//! Resume checkpoints: a consistent cut of the campaign's sequential
//! state, serialized to a sidecar file next to the dataset.
//!
//! The campaign is a deterministic function of its seed, so a checkpoint
//! does not need to freeze the traffic generator or the decode workers —
//! replaying the frame stream from the start reproduces them exactly.
//! What *cannot* be replayed cheaply is re-writing the dataset, so the
//! checkpoint records everything needed to continue the output stream
//! byte-for-byte:
//!
//! * the anonymiser's appearance orders (clientIDs and fileIDs) — its
//!   entire state, in replayable form;
//! * the count of records already written, so the resumed sink skips
//!   exactly that many messages;
//! * the dataset writer's byte offset, so the tail a crash left behind
//!   (possibly torn) is truncated before appending;
//! * the next checkpoint boundary, so a resumed run cuts the very same
//!   checkpoints an uninterrupted run would.
//!
//! The sidecar is a versioned line-oriented text format, written
//! atomically (temp file + rename) with a trailing `end` marker so a
//! torn write is detected, never silently half-loaded.
//!
//! Three versions exist. Version 1 (PR 4 and earlier) stores each
//! appearance order as one flat list of ids, the global order implicit
//! in line position. Version 2 mirrors the sharded anonymiser: ids are
//! grouped into sixteen canonical stripes (clientIDs by `raw & 15`,
//! fileIDs by `id.byte(0) & 15` — fixed stripe keys, deliberately
//! independent of the run's shard count and byte-pair selector so a
//! sidecar written at one configuration restores at any other), each
//! entry carrying its explicit global order. Version 3 keeps the v2
//! layout but *seals* every id payload: each clientID/fileID is XOR-masked
//! with a keystream derived from the header fields and the entry's global
//! order, so the sidecar never contains a raw identifier in cleartext.
//! The seal is deterministic (decode re-derives the keystream from the
//! plaintext header), so it is an at-rest masking layer against
//! accidental disclosure — grep, log scrapers, backup indexing — not
//! cryptography; the threat model for *published* artefacts is the
//! anonymiser's, and sidecars remain operational files that must never
//! ship. All versions decode to the same [`Checkpoint`]; encoding always
//! writes version 3.
//!
//! Every version ends with a `fig3` section. Campaigns used to keep a
//! second, FIRST_TWO-indexed fileID store live for Fig. 3 and saved its
//! appearance order there (`fig3 <count>` plus one id line each). Fig. 3
//! is now derived from the fileID encoder at campaign end, so encoding
//! always writes `fig3 -` — which binaries that still expect the section
//! load as "no tracker" — and decoding checks a populated section line
//! by line, then discards it.

use crate::pipeline::PipelineCheckpoint;
use etw_edonkey::ids::FileId;
use std::io::Write;
use std::path::Path;

/// A campaign checkpoint: [`PipelineCheckpoint`] plus the dataset writer
/// offset and the identity of the run it belongs to.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// Campaign seed, as a guard against resuming the wrong run.
    pub seed: u64,
    /// Timestamp of the last message consumed before the cut, µs.
    pub virtual_us: u64,
    /// Boundary the next checkpoint will be cut at, µs.
    pub next_checkpoint_us: u64,
    /// Records written so far (== messages consumed).
    pub records: u64,
    /// Dataset bytes written so far (header included).
    pub writer_bytes: u64,
    /// clientID appearance order.
    // etwlint: source(raw-id): resume state carries the raw clientID order
    pub client_order: Vec<u32>,
    /// fileID appearance order.
    // etwlint: source(raw-id): resume state carries the raw fileID order
    pub file_order: Vec<FileId>,
}

/// Why a sidecar failed to load.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem error.
    Io(std::io::Error),
    /// Not an etwckpt file, or an unsupported version.
    BadHeader,
    /// The file ends before its `end` marker — a torn write.
    Truncated,
    /// A line failed to parse.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was expected there.
        expected: &'static str,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::BadHeader => {
                write!(f, "not an etwckpt file (or an unsupported version)")
            }
            CheckpointError::Truncated => {
                write!(f, "checkpoint truncated (missing end marker)")
            }
            CheckpointError::Malformed { line, expected } => {
                write!(f, "checkpoint line {line}: expected {expected}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl Checkpoint {
    /// Pairs a pipeline cut with the run identity and writer offset.
    pub fn from_pipeline(seed: u64, cut: PipelineCheckpoint, writer_bytes: u64) -> Self {
        Checkpoint {
            seed,
            virtual_us: cut.virtual_us,
            next_checkpoint_us: cut.next_checkpoint_us,
            records: cut.records,
            writer_bytes,
            client_order: cut.client_order,
            file_order: cut.file_order,
        }
    }

    /// Keystream key for this checkpoint's sealed id payloads, derived
    /// from header fields that decode reads before any id line.
    fn seal_key(&self) -> u64 {
        seal_key(self.seed, self.virtual_us, self.records)
    }

    /// Serializes to the sidecar text format (always version 3: v2
    /// stripe layout, id payloads sealed).
    pub fn encode(&self) -> String {
        let key = self.seal_key();
        let mut out =
            String::with_capacity(96 + self.client_order.len() * 14 + self.file_order.len() * 40);
        out.push_str("etwckpt 3\n");
        out.push_str(&format!("seed {}\n", self.seed));
        out.push_str(&format!("virtual_us {}\n", self.virtual_us));
        out.push_str(&format!("next_checkpoint_us {}\n", self.next_checkpoint_us));
        out.push_str(&format!("records {}\n", self.records));
        out.push_str(&format!("writer_bytes {}\n", self.writer_bytes));

        out.push_str(&format!("clients {}\n", self.client_order.len()));
        let mut stripes: [Vec<usize>; SIDECAR_STRIPES] = Default::default();
        for (g, id) in self.client_order.iter().enumerate() {
            stripes[client_stripe(*id)].push(g);
        }
        for (s, members) in stripes.iter().enumerate() {
            out.push_str(&format!("cstripe {s} {}\n", members.len()));
            for &g in members {
                out.push_str(&format!(
                    "{g} {}\n",
                    seal32(key, g as u64, self.client_order[g])
                ));
            }
        }

        out.push_str(&format!("files {}\n", self.file_order.len()));
        let mut stripes: [Vec<usize>; SIDECAR_STRIPES] = Default::default();
        for (g, id) in self.file_order.iter().enumerate() {
            stripes[file_stripe(id)].push(g);
        }
        for (s, members) in stripes.iter().enumerate() {
            out.push_str(&format!("fstripe {s} {}\n", members.len()));
            for &g in members {
                out.push_str(&format!("{g} "));
                push_hex_bytes(&mut out, &seal_file(key, g as u64, &self.file_order[g]));
            }
        }

        // The retired Fig. 3 tracker's section, kept empty so older
        // binaries still load the file (see the module doc).
        out.push_str("fig3 -\nend\n");
        out
    }

    /// Parses the sidecar text format, either version.
    pub fn decode(s: &str) -> Result<Checkpoint, CheckpointError> {
        let mut lines = s.lines().enumerate();
        let mut next = |expected: &'static str| -> Result<(usize, &str), CheckpointError> {
            match lines.next() {
                Some((i, line)) => Ok((i + 1, line)),
                None => {
                    if expected == "end marker" {
                        Err(CheckpointError::Truncated)
                    } else {
                        Err(CheckpointError::Malformed { line: 0, expected })
                    }
                }
            }
        };
        let (_, header) = next("etwckpt header")?;
        let version = match header {
            "etwckpt 1" => 1,
            "etwckpt 2" => 2,
            "etwckpt 3" => 3,
            _ => return Err(CheckpointError::BadHeader),
        };
        let seed = keyed_u64(next("seed")?, "seed")?;
        let virtual_us = keyed_u64(next("virtual_us")?, "virtual_us")?;
        let next_checkpoint_us = keyed_u64(next("next_checkpoint_us")?, "next_checkpoint_us")?;
        let records = keyed_u64(next("records")?, "records")?;
        let writer_bytes = keyed_u64(next("writer_bytes")?, "writer_bytes")?;
        let key = seal_key(seed, virtual_us, records);

        let n_clients = keyed_u64(next("clients count")?, "clients")? as usize;
        let client_order = if version == 1 {
            // v1: flat list, global order implicit in line position.
            let mut order = Vec::with_capacity(n_clients);
            for _ in 0..n_clients {
                let (line_no, line) = next("clientID line")?;
                let id = line
                    .parse::<u32>()
                    .map_err(|_| CheckpointError::Malformed {
                        line: line_no,
                        expected: "a clientID integer",
                    })?;
                order.push(id);
            }
            order
        } else {
            // v2: sixteen stripes of explicit `<global_order> <id>`
            // pairs; rebuild the flat order and insist every slot is
            // assigned exactly once.
            let mut order = vec![0u32; n_clients];
            let mut filled = vec![false; n_clients];
            for stripe in 0..SIDECAR_STRIPES {
                let (line_no, line) = next("cstripe header")?;
                let k = stripe_header(line, "cstripe", stripe).ok_or({
                    CheckpointError::Malformed {
                        line: line_no,
                        expected: "a cstripe header in canonical order",
                    }
                })?;
                for _ in 0..k {
                    let (line_no, line) = next("client stripe entry")?;
                    let malformed = || CheckpointError::Malformed {
                        line: line_no,
                        expected: "a `<order> <clientID>` pair",
                    };
                    let (g, id) = line.split_once(' ').ok_or_else(malformed)?;
                    let g = g.parse::<usize>().map_err(|_| malformed())?;
                    let mut id = id.parse::<u32>().map_err(|_| malformed())?;
                    if version == 3 {
                        id = unseal32(key, g as u64, id);
                    }
                    if g >= n_clients || filled[g] || client_stripe(id) != stripe {
                        return Err(malformed());
                    }
                    order[g] = id;
                    filled[g] = true;
                }
            }
            if filled.iter().any(|f| !f) {
                return Err(CheckpointError::Malformed {
                    line: 0,
                    expected: "every client order slot assigned",
                });
            }
            order
        };

        let n_files = keyed_u64(next("files count")?, "files")? as usize;
        let file_order = if version == 1 {
            let mut order = Vec::with_capacity(n_files);
            for _ in 0..n_files {
                order.push(parse_hex(next("fileID line")?)?);
            }
            order
        } else {
            let mut order = vec![FileId([0; 16]); n_files];
            let mut filled = vec![false; n_files];
            for stripe in 0..SIDECAR_STRIPES {
                let (line_no, line) = next("fstripe header")?;
                let k = stripe_header(line, "fstripe", stripe).ok_or({
                    CheckpointError::Malformed {
                        line: line_no,
                        expected: "an fstripe header in canonical order",
                    }
                })?;
                for _ in 0..k {
                    let (line_no, line) = next("file stripe entry")?;
                    let malformed = || CheckpointError::Malformed {
                        line: line_no,
                        expected: "a `<order> <fileID>` pair",
                    };
                    let (g, hex) = line.split_once(' ').ok_or_else(malformed)?;
                    let g = g.parse::<usize>().map_err(|_| malformed())?;
                    let mut id = parse_hex((line_no, hex))?;
                    if version == 3 {
                        id = unseal_file(key, g as u64, &id);
                    }
                    if g >= n_files || filled[g] || file_stripe(&id) != stripe {
                        return Err(malformed());
                    }
                    order[g] = id;
                    filled[g] = true;
                }
            }
            if filled.iter().any(|f| !f) {
                return Err(CheckpointError::Malformed {
                    line: 0,
                    expected: "every file order slot assigned",
                });
            }
            order
        };

        // The retired Fig. 3 tracker's order: checked line by line so a
        // torn or corrupt file is still rejected, then discarded.
        let (fig3_line_no, fig3_line) = next("fig3 count")?;
        match fig3_line.strip_prefix("fig3 ") {
            Some("-") => {}
            Some(count) => {
                let n = count
                    .parse::<usize>()
                    .map_err(|_| CheckpointError::Malformed {
                        line: fig3_line_no,
                        expected: "fig3 count or '-'",
                    })?;
                for _ in 0..n {
                    parse_hex(next("fig3 fileID line")?)?;
                }
            }
            None => {
                return Err(CheckpointError::Malformed {
                    line: fig3_line_no,
                    expected: "fig3 line",
                })
            }
        }

        let (end_line_no, end) = next("end marker")?;
        if end != "end" {
            return Err(CheckpointError::Malformed {
                line: end_line_no,
                expected: "end marker",
            });
        }
        Ok(Checkpoint {
            seed,
            virtual_us,
            next_checkpoint_us,
            records,
            writer_bytes,
            client_order,
            file_order,
        })
    }

    /// Writes the sidecar atomically: the bytes land in a temp file in
    /// the same directory, then rename onto `path`. A crash mid-write
    /// leaves the previous checkpoint intact.
    pub fn write_atomic(&self, path: &Path) -> std::io::Result<()> {
        let tmp = path.with_extension("tmp");
        write_sidecar_bytes(&tmp, self.encode().as_bytes())?;
        std::fs::rename(&tmp, path)
    }

    /// Loads a sidecar written by [`Checkpoint::write_atomic`].
    pub fn read(path: &Path) -> Result<Checkpoint, CheckpointError> {
        let text = std::fs::read_to_string(path)?;
        Checkpoint::decode(&text)
    }
}

/// Number of canonical sidecar stripes. Fixed at sixteen regardless of
/// the run's `anon_shards`, so any sidecar restores at any shard count.
const SIDECAR_STRIPES: usize = 16;

/// Canonical client stripe: low four id bits (every shard partition for
/// `anon_shards <= 16` is a coarsening of these stripes).
fn client_stripe(id: u32) -> usize {
    (id as usize) & (SIDECAR_STRIPES - 1)
}

/// Canonical file stripe: low four bits of byte 0. Deliberately *not*
/// the run's byte-pair selector — the sidecar doesn't record the
/// selector, so the stripe key must not depend on it.
fn file_stripe(id: &FileId) -> usize {
    (id.byte(0) as usize) & (SIDECAR_STRIPES - 1)
}

/// Parses `"<kind> <stripe> <count>"`, insisting the stripe index equals
/// `expect` (stripes are written in canonical order).
fn stripe_header(line: &str, kind: &str, expect: usize) -> Option<usize> {
    let rest = line.strip_prefix(kind)?.strip_prefix(' ')?;
    let (s, k) = rest.split_once(' ')?;
    if s.parse::<usize>().ok()? != expect {
        return None;
    }
    k.parse::<usize>().ok()
}

/// Every sidecar byte funnels through here; the taint pass treats this
/// as the checkpoint sink, so anything reaching it must be sealed.
// etwlint: sink(checkpoint): sidecar bytes reach disk here
fn write_sidecar_bytes(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(bytes)?;
    f.sync_all()
}

/// Mixes the seal key, a lane tag, and an entry's global order into one
/// keystream word (splitmix64 finalizer).
fn sidecar_mix(key: u64, lane: u64, g: u64) -> u64 {
    let mut z =
        key ^ lane.wrapping_mul(0xa076_1d64_78bd_642f) ^ g.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives the sidecar keystream key from plaintext header fields.
fn seal_key(seed: u64, virtual_us: u64, records: u64) -> u64 {
    seed ^ virtual_us.rotate_left(21) ^ records.rotate_left(42) ^ 0x5851_f42d_4c95_7f2d
}

/// XOR-seals one clientID for the v3 sidecar.
// etwlint: sanitize(raw-id): deterministic seal; the sidecar stores no cleartext clientID
fn seal32(key: u64, g: u64, raw: u32) -> u32 {
    raw ^ (sidecar_mix(key, 1, g) as u32)
}

/// Recovers the raw clientID from its sealed v3 form.
// etwlint: source(raw-id): unsealing reproduces the raw clientID
fn unseal32(key: u64, g: u64, sealed: u32) -> u32 {
    sealed ^ (sidecar_mix(key, 1, g) as u32)
}

/// XOR-seals one fileID for the v3 sidecar.
// etwlint: sanitize(raw-id): deterministic seal; the sidecar stores no cleartext fileID
fn seal_file(key: u64, g: u64, id: &FileId) -> [u8; 16] {
    let mut b = *id.as_bytes();
    mask_file(key, g, &mut b);
    b
}

/// Recovers the raw fileID from its sealed v3 form.
// etwlint: source(raw-id): unsealing reproduces the raw fileID
fn unseal_file(key: u64, g: u64, sealed: &FileId) -> FileId {
    let mut b = *sealed.as_bytes();
    mask_file(key, g, &mut b);
    FileId(b)
}

fn mask_file(key: u64, g: u64, b: &mut [u8; 16]) {
    let lo = sidecar_mix(key, 2, g).to_le_bytes();
    let hi = sidecar_mix(key, 3, g).to_le_bytes();
    for i in 0..8 {
        b[i] ^= lo[i];
        b[i + 8] ^= hi[i];
    }
}

fn push_hex_bytes(out: &mut String, bytes: &[u8; 16]) {
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out.push('\n');
}

#[cfg(test)]
fn push_hex(out: &mut String, id: &FileId) {
    push_hex_bytes(out, id.as_bytes());
}

fn parse_hex((line_no, line): (usize, &str)) -> Result<FileId, CheckpointError> {
    let malformed = CheckpointError::Malformed {
        line: line_no,
        expected: "a 32-hex-digit fileID",
    };
    let bytes = line.as_bytes();
    if bytes.len() != 32 {
        return Err(malformed);
    }
    let mut id = [0u8; 16];
    for (i, pair) in bytes.chunks_exact(2).enumerate() {
        let hex = std::str::from_utf8(pair).map_err(|_| CheckpointError::Malformed {
            line: line_no,
            expected: "a 32-hex-digit fileID",
        })?;
        id[i] = u8::from_str_radix(hex, 16).map_err(|_| CheckpointError::Malformed {
            line: line_no,
            expected: "a 32-hex-digit fileID",
        })?;
    }
    Ok(FileId(id))
}

fn keyed_u64((line_no, line): (usize, &str), key: &'static str) -> Result<u64, CheckpointError> {
    let malformed = || CheckpointError::Malformed {
        line: line_no,
        expected: key,
    };
    let rest = line.strip_prefix(key).ok_or_else(malformed)?;
    rest.trim().parse::<u64>().map_err(|_| malformed())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            seed: 0xED0,
            virtual_us: 123_456_789,
            next_checkpoint_us: 300_000_000,
            records: 4_242,
            writer_bytes: 987_654,
            client_order: vec![7, 0, 65_000, 3],
            file_order: vec![FileId([0xAB; 16]), FileId::of_identity(9)],
        }
    }

    /// The `fig3` section a campaign running the retired live Fig. 3
    /// tracker wrote. The tracker saw exactly the fileID encoder's ids
    /// in the same order, so its appearance order is `file_order`;
    /// `render` gives each id line's 16 bytes from its position.
    fn tracker_section(cp: &Checkpoint, render: impl Fn(u64, &FileId) -> [u8; 16]) -> String {
        let mut out = format!("fig3 {}\n", cp.file_order.len());
        for (i, id) in cp.file_order.iter().enumerate() {
            push_hex_bytes(&mut out, &render(i as u64, id));
        }
        out
    }

    /// Renders `cp` as the previous v3 encoder did for a tracked
    /// campaign: the current layout, plus the populated `fig3` section
    /// sealed on its own keystream lane (the old encoder's salt).
    fn encode_v3_tracked(cp: &Checkpoint) -> String {
        const FIG3_SALT: u64 = 0x8000_0000_0000_0000;
        let key = cp.seal_key();
        let section = tracker_section(cp, |i, id| seal_file(key, FIG3_SALT ^ i, id));
        cp.encode()
            .replacen("fig3 -\nend\n", &format!("{section}end\n"), 1)
    }

    #[test]
    fn encode_decode_round_trip() {
        let cp = sample();
        let text = cp.encode();
        assert!(text.ends_with("\nfig3 -\nend\n"));
        assert_eq!(Checkpoint::decode(&text).unwrap(), cp);
    }

    #[test]
    fn tracked_v3_sidecar_still_decodes() {
        let cp = sample();
        let text = encode_v3_tracked(&cp);
        assert!(text.contains("\nfig3 2\n"));
        assert_eq!(Checkpoint::decode(&text).unwrap(), cp);
        // The discarded section is still checked: a corrupt id line and
        // a tear inside the section are both rejected.
        let fig3_at = text.find("\nfig3 2\n").unwrap() + "\nfig3 2\n".len();
        let mut corrupt = text.clone();
        corrupt.replace_range(fig3_at..fig3_at + 2, "zz");
        assert!(Checkpoint::decode(&corrupt).is_err());
        assert!(Checkpoint::decode(&text[..fig3_at + 10]).is_err());
    }

    /// A campaign resumed from a tracked v3 sidecar rebuilds the
    /// uninterrupted run's dataset byte for byte: dropping the tracker
    /// loses nothing a resume needs.
    #[test]
    fn tracked_v3_sidecar_resumes_byte_identical() {
        use crate::campaign::Campaign;
        use crate::config::CampaignConfig;
        use etw_xmlout::writer::DatasetWriter;

        let mut config = CampaignConfig::tiny_faulty();
        config.generator.duration_secs = 600;
        config.checkpoint_interval_secs = 120;
        let mut cps = Vec::new();
        let (_, writer) = Campaign::new(&config)
            .run_reference(DatasetWriter::new(Vec::new()).unwrap(), |cp| cps.push(cp))
            .unwrap();
        let full = writer.finish().unwrap();
        let cp = &cps[cps.len() / 2];
        assert!(!cp.file_order.is_empty());

        let decoded = Checkpoint::decode(&encode_v3_tracked(cp)).unwrap();
        assert_eq!(&decoded, cp);
        let prefix = full[..cp.writer_bytes as usize].to_vec();
        let (_, writer) = Campaign::new(&config)
            .resume_from(&decoded)
            .run_reference(
                DatasetWriter::resume(prefix, cp.records, cp.writer_bytes),
                |_| {},
            )
            .unwrap();
        let rebuilt = writer.finish().unwrap();
        assert!(rebuilt == full, "resume from a tracked v3 sidecar diverges");
    }

    #[test]
    fn truncated_sidecar_rejected() {
        let text = sample().encode();
        // Cut anywhere before the end marker: must never half-load.
        for cut in [10, text.len() / 2, text.len() - 5] {
            let torn = &text[..cut];
            assert!(
                Checkpoint::decode(torn).is_err(),
                "accepted torn sidecar cut at {cut}"
            );
        }
    }

    #[test]
    fn bad_header_rejected() {
        // An unknown future version is a typed error, not a panic or a
        // misparse.
        assert!(matches!(
            Checkpoint::decode("etwckpt 9\nseed 1\n"),
            Err(CheckpointError::BadHeader)
        ));
        assert!(matches!(
            Checkpoint::decode("not a checkpoint\n"),
            Err(CheckpointError::BadHeader)
        ));
        assert!(Checkpoint::decode("").is_err());
    }

    /// Renders `cp` in the flat v1 sidecar layout (what PR 4-era runs
    /// left on disk).
    fn encode_v1(cp: &Checkpoint) -> String {
        let mut out = String::new();
        out.push_str("etwckpt 1\n");
        out.push_str(&format!("seed {}\n", cp.seed));
        out.push_str(&format!("virtual_us {}\n", cp.virtual_us));
        out.push_str(&format!("next_checkpoint_us {}\n", cp.next_checkpoint_us));
        out.push_str(&format!("records {}\n", cp.records));
        out.push_str(&format!("writer_bytes {}\n", cp.writer_bytes));
        out.push_str(&format!("clients {}\n", cp.client_order.len()));
        for id in &cp.client_order {
            out.push_str(&format!("{id}\n"));
        }
        out.push_str(&format!("files {}\n", cp.file_order.len()));
        for id in &cp.file_order {
            push_hex(&mut out, id);
        }
        out.push_str(&tracker_section(cp, |_, id| *id.as_bytes()));
        out.push_str("end\n");
        out
    }

    #[test]
    fn v1_sidecar_still_decodes() {
        let cp = sample();
        assert_eq!(Checkpoint::decode(&encode_v1(&cp)).unwrap(), cp);
    }

    /// Renders `cp` in the v2 sidecar layout (PR 5-era runs: striped,
    /// ids in cleartext).
    fn encode_v2(cp: &Checkpoint) -> String {
        let mut out = String::new();
        out.push_str("etwckpt 2\n");
        out.push_str(&format!("seed {}\n", cp.seed));
        out.push_str(&format!("virtual_us {}\n", cp.virtual_us));
        out.push_str(&format!("next_checkpoint_us {}\n", cp.next_checkpoint_us));
        out.push_str(&format!("records {}\n", cp.records));
        out.push_str(&format!("writer_bytes {}\n", cp.writer_bytes));
        out.push_str(&format!("clients {}\n", cp.client_order.len()));
        let mut stripes: [Vec<usize>; SIDECAR_STRIPES] = Default::default();
        for (g, id) in cp.client_order.iter().enumerate() {
            stripes[client_stripe(*id)].push(g);
        }
        for (s, members) in stripes.iter().enumerate() {
            out.push_str(&format!("cstripe {s} {}\n", members.len()));
            for &g in members {
                out.push_str(&format!("{g} {}\n", cp.client_order[g]));
            }
        }
        out.push_str(&format!("files {}\n", cp.file_order.len()));
        let mut stripes: [Vec<usize>; SIDECAR_STRIPES] = Default::default();
        for (g, id) in cp.file_order.iter().enumerate() {
            stripes[file_stripe(id)].push(g);
        }
        for (s, members) in stripes.iter().enumerate() {
            out.push_str(&format!("fstripe {s} {}\n", members.len()));
            for &g in members {
                out.push_str(&format!("{g} "));
                push_hex(&mut out, &cp.file_order[g]);
            }
        }
        out.push_str(&tracker_section(cp, |_, id| *id.as_bytes()));
        out.push_str("end\n");
        out
    }

    #[test]
    fn v2_sidecar_still_decodes() {
        let cp = sample();
        assert_eq!(Checkpoint::decode(&encode_v2(&cp)).unwrap(), cp);
    }

    #[test]
    fn v3_striping_is_canonical_and_lossless() {
        // Exercise every client and file stripe with interleaved orders.
        let cp = Checkpoint {
            client_order: (0..64).map(|i| i * 37 % 256).collect(),
            file_order: (0..64)
                .map(|i| FileId([(i * 23 % 256) as u8; 16]))
                .collect(),
            ..sample()
        };
        let text = cp.encode();
        assert!(text.starts_with("etwckpt 3\n"));
        // All sixteen stripe headers of each family appear, in order.
        for s in 0..16 {
            assert!(text.contains(&format!("\ncstripe {s} ")));
            assert!(text.contains(&format!("\nfstripe {s} ")));
        }
        assert_eq!(Checkpoint::decode(&text).unwrap(), cp);
    }

    #[test]
    fn v3_sidecar_contains_no_cleartext_ids() {
        // Distinctive id values: the sealed sidecar must not contain
        // their decimal or hex spellings anywhere.
        let cp = Checkpoint {
            client_order: vec![0xDEAD_BEEF, 0xBAD_CAFE, 41_414_141],
            file_order: vec![FileId(*b"\xfe\xedsixteenbytes!\x99"), FileId([0xA7; 16])],
            ..sample()
        };
        let text = cp.encode();
        for raw in [0xDEAD_BEEFu32, 0xBAD_CAFE, 41_414_141] {
            assert!(
                !text.contains(&format!(" {raw}\n")),
                "cleartext clientID {raw} leaked into sidecar"
            );
        }
        for id in &cp.file_order {
            let mut hex = String::new();
            push_hex(&mut hex, id);
            assert!(
                !text.contains(hex.trim_end()),
                "cleartext fileID {id} leaked into sidecar"
            );
        }
        // Still loss-free.
        assert_eq!(Checkpoint::decode(&text).unwrap(), cp);
    }

    #[test]
    fn v3_rejects_duplicate_or_missing_orders() {
        let cp = sample();
        let text = cp.encode();
        // Re-keying a stripe entry to an already-filled global order (or
        // one whose unsealed id lands in the wrong stripe) must be
        // caught, not silently overwrite. Flipping the order digit
        // changes the keystream position, so the unsealed id is garbage
        // for that stripe with overwhelming probability.
        let key = cp.seal_key();
        let sealed0 = format!("0 {}\n", seal32(key, 0, cp.client_order[0]));
        let dup = text.replacen(
            &sealed0,
            &format!("1 {}\n", seal32(key, 0, cp.client_order[0])),
            1,
        );
        assert!(Checkpoint::decode(&dup).is_err());
        // A stripe claiming fewer members than the header count leaves a
        // slot unassigned.
        let short = text.replacen("clients 4\n", "clients 5\n", 1);
        assert!(Checkpoint::decode(&short).is_err());
    }

    #[test]
    fn atomic_write_read_round_trip() {
        let dir = std::env::temp_dir().join("etw-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.etwckpt");
        let cp = sample();
        cp.write_atomic(&path).unwrap();
        assert_eq!(Checkpoint::read(&path).unwrap(), cp);
        // Overwrite with a later checkpoint: reader sees the new one.
        let later = Checkpoint {
            records: 9_999,
            ..sample()
        };
        later.write_atomic(&path).unwrap();
        assert_eq!(Checkpoint::read(&path).unwrap(), later);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
