//! Zero-allocation XML encoder for the batched capture tail.
//!
//! [`crate::writer::DatasetWriter`] renders each record through
//! `fmt::Write` machinery — correct, but every field goes through a
//! format-string interpreter. The paper's capture machine had to keep up
//! with a live server ("up to 3,000 messages per second at peak"), and
//! our end-to-end throughput is bounded by exactly this serial tail. The
//! encoder in this module renders the *same bytes* with direct pushes
//! into a caller-owned `Vec<u8>`:
//!
//! * integers go through itoa-style stack-buffer formatters
//!   ([`push_u64`] decimal, [`push_hex_u64`] hex) instead of `write!`;
//! * strings go through the lookup-table escape path
//!   ([`crate::escape::escape_into`]), which allocates nothing;
//! * the output buffer is reused across batches, so steady-state
//!   formatting performs **zero heap allocations per record**.
//!
//! Byte-identity with the `write!`-based writer is the correctness spine
//! (the differential proptests in `tests/proptest_xmlout.rs` assert it),
//! because `.etwckpt` checkpoints store absolute writer offsets: if the
//! fast path produced even one different byte, resume would tear.

use crate::escape::escape_into;
use etw_anonymize::scheme::{AnonFileEntry, AnonMessage, AnonRecord, AnonSearchExpr, AnonTagValue};

/// Pairs `00`..`99`, so the decimal formatter emits two digits per
/// division — halving the division chain, which dominates itoa for the
/// dataset's big values (microsecond timestamps, file sizes).
static DIGITS2: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[i * 2] = b'0' + (i / 10) as u8;
        t[i * 2 + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

/// Appends the decimal representation of `v` (itoa-style: digit pairs
/// are produced backwards into a stack buffer from the `DIGITS2` table,
/// then copied in one splice).
#[inline]
pub fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut buf = [0u8; 20]; // u64::MAX has 20 digits
    let mut i = buf.len();
    while v >= 100 {
        let d = ((v % 100) as usize) * 2;
        v /= 100;
        i -= 2;
        buf[i] = DIGITS2[d];
        buf[i + 1] = DIGITS2[d + 1];
    }
    if v >= 10 {
        let d = (v as usize) * 2;
        i -= 2;
        buf[i] = DIGITS2[d];
        buf[i + 1] = DIGITS2[d + 1];
    } else {
        i -= 1;
        buf[i] = b'0' + v as u8;
    }
    out.extend_from_slice(&buf[i..]);
}

/// Appends the lowercase hexadecimal representation of `v` (no prefix,
/// no leading zeros). The dataset's digest strings are pre-rendered by
/// the anonymiser, but offset/telemetry surfaces want hex too.
pub fn push_hex_u64(out: &mut Vec<u8>, mut v: u64) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut buf = [0u8; 16]; // u64::MAX has 16 hex digits
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = HEX[(v & 0xf) as usize];
        v >>= 4;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&buf[i..]);
}

/// Appends an escaped string attribute value.
#[inline]
fn push_escaped(out: &mut Vec<u8>, s: &str) {
    escape_into(out, s);
}

/// Encodes one dialog record — byte-identical to
/// [`crate::writer::DatasetWriter::write_record`].
pub fn encode_record(out: &mut Vec<u8>, r: &AnonRecord) {
    out.extend_from_slice(b"<dialog ts=\"");
    push_u64(out, r.ts_us);
    out.extend_from_slice(b"\" peer=\"");
    push_u64(out, u64::from(r.peer));
    out.extend_from_slice(b"\">");
    encode_msg(out, &r.msg);
    out.extend_from_slice(b"</dialog>\n");
}

/// Encodes a batch of records into `out` (appending). The buffer is the
/// caller's to recycle: clear it, encode the next batch, repeat — the
/// capacity high-water mark is reached once and reused forever.
// etwlint: sink(xml): these bytes become the published dataset
pub fn encode_batch(out: &mut Vec<u8>, records: &[AnonRecord]) {
    for r in records {
        encode_record(out, r);
    }
}

fn encode_msg(out: &mut Vec<u8>, m: &AnonMessage) {
    match m {
        AnonMessage::StatusRequest { challenge } => {
            out.extend_from_slice(b"<status_req challenge=\"");
            push_u64(out, u64::from(*challenge));
            out.extend_from_slice(b"\"/>");
        }
        AnonMessage::StatusResponse {
            challenge,
            users,
            files,
        } => {
            out.extend_from_slice(b"<status_res challenge=\"");
            push_u64(out, u64::from(*challenge));
            out.extend_from_slice(b"\" users=\"");
            push_u64(out, u64::from(*users));
            out.extend_from_slice(b"\" files=\"");
            push_u64(out, u64::from(*files));
            out.extend_from_slice(b"\"/>");
        }
        AnonMessage::ServerDescRequest => out.extend_from_slice(b"<desc_req/>"),
        AnonMessage::ServerDescResponse { name, description } => {
            out.extend_from_slice(b"<desc_res name=\"");
            push_escaped(out, name);
            out.extend_from_slice(b"\" desc=\"");
            push_escaped(out, description);
            out.extend_from_slice(b"\"/>");
        }
        AnonMessage::GetServerList => out.extend_from_slice(b"<server_list_req/>"),
        AnonMessage::ServerList { servers } => {
            out.extend_from_slice(b"<server_list>");
            for (ip, port) in servers {
                out.extend_from_slice(b"<server ip=\"");
                push_u64(out, u64::from(*ip));
                out.extend_from_slice(b"\" port=\"");
                push_u64(out, u64::from(*port));
                out.extend_from_slice(b"\"/>");
            }
            out.extend_from_slice(b"</server_list>");
        }
        AnonMessage::SearchRequest { expr } => {
            out.extend_from_slice(b"<search>");
            encode_expr(out, expr);
            out.extend_from_slice(b"</search>");
        }
        AnonMessage::SearchResponse { results } => {
            out.extend_from_slice(b"<search_res>");
            for e in results {
                encode_entry(out, b"result", e);
            }
            out.extend_from_slice(b"</search_res>");
        }
        AnonMessage::GetSources { files } => {
            out.extend_from_slice(b"<get_sources>");
            for f in files {
                out.extend_from_slice(b"<file id=\"");
                push_u64(out, *f);
                out.extend_from_slice(b"\"/>");
            }
            out.extend_from_slice(b"</get_sources>");
        }
        AnonMessage::FoundSources { file, sources } => {
            out.extend_from_slice(b"<found_sources file=\"");
            push_u64(out, *file);
            out.extend_from_slice(b"\">");
            for (client, port) in sources {
                out.extend_from_slice(b"<src client=\"");
                push_u64(out, u64::from(*client));
                out.extend_from_slice(b"\" port=\"");
                push_u64(out, u64::from(*port));
                out.extend_from_slice(b"\"/>");
            }
            out.extend_from_slice(b"</found_sources>");
        }
        AnonMessage::OfferFiles { files } => {
            out.extend_from_slice(b"<offer>");
            for e in files {
                encode_entry(out, b"f", e);
            }
            out.extend_from_slice(b"</offer>");
        }
    }
}

fn encode_entry(out: &mut Vec<u8>, elem: &[u8], e: &AnonFileEntry) {
    out.push(b'<');
    out.extend_from_slice(elem);
    out.extend_from_slice(b" id=\"");
    push_u64(out, e.file);
    out.extend_from_slice(b"\" client=\"");
    push_u64(out, u64::from(e.client));
    out.extend_from_slice(b"\" port=\"");
    push_u64(out, u64::from(e.port));
    out.extend_from_slice(b"\">");
    for t in &e.tags {
        match &t.value {
            AnonTagValue::Hashed(h) => {
                out.extend_from_slice(b"<tag name=\"");
                push_escaped(out, &t.name);
                out.extend_from_slice(b"\" hash=\"");
                push_escaped(out, h);
                out.extend_from_slice(b"\"/>");
            }
            AnonTagValue::UInt(v) => {
                out.extend_from_slice(b"<tag name=\"");
                push_escaped(out, &t.name);
                out.extend_from_slice(b"\" uint=\"");
                push_u64(out, *v);
                out.extend_from_slice(b"\"/>");
            }
        }
    }
    out.extend_from_slice(b"</");
    out.extend_from_slice(elem);
    out.push(b'>');
}

fn encode_expr(out: &mut Vec<u8>, e: &AnonSearchExpr) {
    match e {
        AnonSearchExpr::Bool { op, left, right } => {
            out.push(b'<');
            out.extend_from_slice(op.as_bytes());
            out.push(b'>');
            encode_expr(out, left);
            encode_expr(out, right);
            out.extend_from_slice(b"</");
            out.extend_from_slice(op.as_bytes());
            out.push(b'>');
        }
        AnonSearchExpr::Keyword(h) => {
            out.extend_from_slice(b"<kw hash=\"");
            push_escaped(out, h);
            out.extend_from_slice(b"\"/>");
        }
        AnonSearchExpr::MetaStr { name, value } => {
            out.extend_from_slice(b"<metastr name=\"");
            push_escaped(out, name);
            out.extend_from_slice(b"\" hash=\"");
            push_escaped(out, value);
            out.extend_from_slice(b"\"/>");
        }
        AnonSearchExpr::MetaNum { name, cmp, value } => {
            out.extend_from_slice(b"<metanum name=\"");
            push_escaped(out, name);
            out.extend_from_slice(b"\" cmp=\"");
            out.extend_from_slice(if *cmp == ">=" { b"ge" } else { b"le" });
            out.extend_from_slice(b"\" value=\"");
            push_u64(out, *value);
            out.extend_from_slice(b"\"/>");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etw_anonymize::scheme::AnonTag;

    #[test]
    fn decimal_formatter_matches_display() {
        for v in [
            0u64,
            1,
            9,
            10,
            99,
            100,
            12_345,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut out = Vec::new();
            push_u64(&mut out, v);
            assert_eq!(String::from_utf8(out).unwrap(), v.to_string());
        }
    }

    #[test]
    fn hex_formatter_matches_format() {
        for v in [0u64, 1, 0xf, 0x10, 0xdead_beef, u64::MAX] {
            let mut out = Vec::new();
            push_hex_u64(&mut out, v);
            assert_eq!(String::from_utf8(out).unwrap(), format!("{v:x}"));
        }
    }

    fn record(msg: AnonMessage) -> AnonRecord {
        AnonRecord {
            ts_us: 123_456,
            peer: 7,
            msg,
        }
    }

    fn writer_bytes(r: &AnonRecord) -> Vec<u8> {
        let mut w = crate::writer::DatasetWriter::new(Vec::new()).unwrap();
        let header = w.bytes_written() as usize;
        w.write_record(r).unwrap();
        let off = w.bytes_written() as usize;
        let bytes = w.finish().unwrap();
        bytes[header..off].to_vec()
    }

    #[test]
    fn every_message_shape_matches_writer() {
        let entry = AnonFileEntry {
            file: 11,
            client: 3,
            port: 4662,
            tags: vec![
                AnonTag {
                    name: "filename".into(),
                    value: AnonTagValue::Hashed("ab&cd".into()),
                },
                AnonTag {
                    name: "filesize".into(),
                    value: AnonTagValue::UInt(716_800),
                },
            ],
        };
        let msgs = vec![
            AnonMessage::StatusRequest { challenge: 42 },
            AnonMessage::StatusResponse {
                challenge: 42,
                users: 50_000,
                files: 1_234_567,
            },
            AnonMessage::ServerDescRequest,
            AnonMessage::ServerDescResponse {
                name: "a<b".into(),
                description: "c\"d'e".into(),
            },
            AnonMessage::GetServerList,
            AnonMessage::ServerList {
                servers: vec![(1, 4661), (2, 4662)],
            },
            AnonMessage::SearchRequest {
                expr: AnonSearchExpr::Bool {
                    op: "andnot",
                    left: Box::new(AnonSearchExpr::Keyword("aa".into())),
                    right: Box::new(AnonSearchExpr::Bool {
                        op: "or",
                        left: Box::new(AnonSearchExpr::MetaStr {
                            name: "artist".into(),
                            value: "bb".into(),
                        }),
                        right: Box::new(AnonSearchExpr::MetaNum {
                            name: "filesize".into(),
                            cmp: ">=",
                            value: 1024,
                        }),
                    }),
                },
            },
            AnonMessage::SearchRequest {
                expr: AnonSearchExpr::MetaNum {
                    name: "filesize".into(),
                    cmp: "<=",
                    value: 2048,
                },
            },
            AnonMessage::SearchResponse {
                results: vec![entry.clone()],
            },
            AnonMessage::GetSources {
                files: vec![0, 1, 2],
            },
            AnonMessage::FoundSources {
                file: 5,
                sources: vec![(9, 4662)],
            },
            AnonMessage::OfferFiles { files: vec![entry] },
        ];
        for msg in msgs {
            let r = record(msg);
            let mut fast = Vec::new();
            encode_record(&mut fast, &r);
            assert_eq!(fast, writer_bytes(&r), "diverged on {:?}", r.msg);
        }
    }

    #[test]
    fn batch_is_concatenation_and_buffer_reuses() {
        let a = record(AnonMessage::GetServerList);
        let b = record(AnonMessage::StatusRequest { challenge: 1 });
        let mut buf = Vec::new();
        encode_batch(&mut buf, &[a.clone(), b.clone()]);
        let mut one = Vec::new();
        encode_record(&mut one, &a);
        encode_record(&mut one, &b);
        assert_eq!(buf, one);
        // Recycled buffer: clear, re-encode, same bytes, no growth needed.
        let cap = buf.capacity();
        buf.clear();
        encode_batch(&mut buf, &[a, b]);
        assert_eq!(buf, one);
        assert_eq!(buf.capacity(), cap);
    }
}
