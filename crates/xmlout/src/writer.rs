//! Streaming XML writer for the anonymised dialog dataset (paper §2.4:
//! "XML encoding and storage"; §2.5: the released dataset "in xml
//! format... with its formal specification").
//!
//! The element vocabulary is documented in [`crate::schema`]. The writer
//! streams to any `io::Write`, never holding more than one record in
//! memory — the paper's capture machine wrote continuously for ten weeks.
//!
//! Ten weeks of continuous writing also means surviving whatever happens
//! in between, so the writer is crash-aware:
//!
//! * [`DatasetWriter::bytes_written`] exposes the exact output offset, so
//!   a campaign checkpoint can record where the dataset stood;
//! * [`DatasetWriter::resume`] continues an interrupted document (the
//!   caller truncates it to the checkpointed offset first);
//! * dropping an unfinished writer (a panic unwinding past it) appends a
//!   recovery comment and the closing tag, leaving a readable document
//!   that says it is incomplete instead of a torn one.

use crate::escape::escape;
use etw_anonymize::scheme::{AnonFileEntry, AnonMessage, AnonRecord, AnonSearchExpr, AnonTagValue};
use std::io::{self, Write};

/// Byte-counting adapter so the writer always knows its output offset.
struct CountingWriter<W: Write> {
    inner: W,
    bytes: u64,
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Streaming dataset writer.
pub struct DatasetWriter<W: Write> {
    /// `None` only after `finish` handed the sink back.
    out: Option<CountingWriter<W>>,
    records: u64,
    closed: bool,
}

impl<W: Write> DatasetWriter<W> {
    /// Starts a dataset document.
    pub fn new(out: W) -> io::Result<Self> {
        let mut out = CountingWriter {
            inner: out,
            bytes: 0,
        };
        out.write_all(b"<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n")?;
        out.write_all(b"<capture spec=\"etw-1.0\">\n")?;
        Ok(DatasetWriter {
            out: Some(out),
            records: 0,
            closed: false,
        })
    }

    /// Continues an interrupted document: no header is written, the
    /// record counter starts at `records` and the byte counter at
    /// `bytes_already` (both from the checkpoint the caller restored;
    /// the caller is responsible for truncating the underlying file to
    /// that offset first).
    pub fn resume(out: W, records: u64, bytes_already: u64) -> Self {
        DatasetWriter {
            out: Some(CountingWriter {
                inner: out,
                bytes: bytes_already,
            }),
            records,
            closed: false,
        }
    }

    /// Records written so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Bytes written so far (header included; for a resumed writer this
    /// continues from the checkpointed offset).
    pub fn bytes_written(&self) -> u64 {
        self.out.as_ref().map_or(0, |o| o.bytes)
    }

    fn o(&mut self) -> &mut CountingWriter<W> {
        // A `None` here means use-after-finish, which the type system
        // already prevents (finish consumes self); unwrap is unreachable.
        self.out.as_mut().expect("writer already finished")
    }

    /// Flushes a run of pre-encoded records in one write.
    ///
    /// This is the buffer-reuse fast path behind the batched capture
    /// tail: `bytes` must be the exact [`crate::encode`] rendering of
    /// `records` records (the encoder is byte-identical to
    /// [`write_record`](Self::write_record), so offsets and the record
    /// counter stay consistent with the serial path). The records count
    /// only once all their bytes are written.
    // etwlint: sink(xml): bytes written to the dataset output
    pub fn write_encoded(&mut self, bytes: &[u8], records: u64) -> io::Result<()> {
        debug_assert!(!self.closed);
        self.o().write_all(bytes)?;
        self.records += records;
        Ok(())
    }

    /// Writes one dialog record; it counts only once written whole.
    // etwlint: sink(xml): record serialised into the dataset output
    pub fn write_record(&mut self, r: &AnonRecord) -> io::Result<()> {
        debug_assert!(!self.closed);
        write!(self.o(), "<dialog ts=\"{}\" peer=\"{}\">", r.ts_us, r.peer)?;
        self.write_msg(&r.msg)?;
        self.o().write_all(b"</dialog>\n")?;
        self.records += 1;
        Ok(())
    }

    fn write_msg(&mut self, m: &AnonMessage) -> io::Result<()> {
        match m {
            AnonMessage::StatusRequest { challenge } => {
                write!(self.o(), "<status_req challenge=\"{challenge}\"/>")
            }
            AnonMessage::StatusResponse {
                challenge,
                users,
                files,
            } => write!(
                self.o(),
                "<status_res challenge=\"{challenge}\" users=\"{users}\" files=\"{files}\"/>"
            ),
            AnonMessage::ServerDescRequest => self.o().write_all(b"<desc_req/>"),
            AnonMessage::ServerDescResponse { name, description } => write!(
                self.o(),
                "<desc_res name=\"{}\" desc=\"{}\"/>",
                escape(name),
                escape(description)
            ),
            AnonMessage::GetServerList => self.o().write_all(b"<server_list_req/>"),
            AnonMessage::ServerList { servers } => {
                self.o().write_all(b"<server_list>")?;
                for (ip, port) in servers {
                    write!(self.o(), "<server ip=\"{ip}\" port=\"{port}\"/>")?;
                }
                self.o().write_all(b"</server_list>")
            }
            AnonMessage::SearchRequest { expr } => {
                self.o().write_all(b"<search>")?;
                self.write_expr(expr)?;
                self.o().write_all(b"</search>")
            }
            AnonMessage::SearchResponse { results } => {
                self.o().write_all(b"<search_res>")?;
                for e in results {
                    self.write_entry("result", e)?;
                }
                self.o().write_all(b"</search_res>")
            }
            AnonMessage::GetSources { files } => {
                self.o().write_all(b"<get_sources>")?;
                for f in files {
                    write!(self.o(), "<file id=\"{f}\"/>")?;
                }
                self.o().write_all(b"</get_sources>")
            }
            AnonMessage::FoundSources { file, sources } => {
                write!(self.o(), "<found_sources file=\"{file}\">")?;
                for (client, port) in sources {
                    write!(self.o(), "<src client=\"{client}\" port=\"{port}\"/>")?;
                }
                self.o().write_all(b"</found_sources>")
            }
            AnonMessage::OfferFiles { files } => {
                self.o().write_all(b"<offer>")?;
                for e in files {
                    self.write_entry("f", e)?;
                }
                self.o().write_all(b"</offer>")
            }
        }
    }

    fn write_entry(&mut self, elem: &str, e: &AnonFileEntry) -> io::Result<()> {
        write!(
            self.o(),
            "<{elem} id=\"{}\" client=\"{}\" port=\"{}\">",
            e.file,
            e.client,
            e.port
        )?;
        for t in &e.tags {
            match &t.value {
                AnonTagValue::Hashed(h) => write!(
                    self.o(),
                    "<tag name=\"{}\" hash=\"{}\"/>",
                    escape(&t.name),
                    escape(h)
                )?,
                AnonTagValue::UInt(v) => {
                    write!(self.o(), "<tag name=\"{}\" uint=\"{v}\"/>", escape(&t.name))?
                }
            }
        }
        write!(self.o(), "</{elem}>")
    }

    fn write_expr(&mut self, e: &AnonSearchExpr) -> io::Result<()> {
        match e {
            AnonSearchExpr::Bool { op, left, right } => {
                write!(self.o(), "<{op}>")?;
                self.write_expr(left)?;
                self.write_expr(right)?;
                write!(self.o(), "</{op}>")
            }
            AnonSearchExpr::Keyword(h) => write!(self.o(), "<kw hash=\"{}\"/>", escape(h)),
            AnonSearchExpr::MetaStr { name, value } => write!(
                self.o(),
                "<metastr name=\"{}\" hash=\"{}\"/>",
                escape(name),
                escape(value)
            ),
            AnonSearchExpr::MetaNum { name, cmp, value } => {
                let cmp = match *cmp {
                    ">=" => "ge",
                    _ => "le",
                };
                write!(
                    self.o(),
                    "<metanum name=\"{}\" cmp=\"{cmp}\" value=\"{value}\"/>",
                    escape(name)
                )
            }
        }
    }

    /// Closes the document and returns the sink.
    pub fn finish(mut self) -> io::Result<W> {
        self.closed = true;
        let mut out = self.out.take().expect("writer already finished");
        out.write_all(b"</capture>\n")?;
        Ok(out.inner)
    }
}

impl<W: Write> Drop for DatasetWriter<W> {
    /// Last line of defence for abnormal exits that still unwind (a
    /// panic somewhere above the writer): closes the document with a
    /// recovery comment so what is on disk stays parseable and says it
    /// is incomplete. Best-effort — write errors are swallowed because
    /// panicking in drop during unwind would abort. A hard kill skips
    /// drops entirely; that case is [`crate::reader::repair_truncated`]'s
    /// job.
    fn drop(&mut self) {
        if self.closed {
            return;
        }
        if let Some(out) = self.out.as_mut() {
            let _ = write!(
                out,
                "<!-- etw:recovered records=\"{}\" -->\n</capture>\n",
                self.records
            );
            let _ = out.flush();
        }
    }
}

/// Convenience: serialises records into an in-memory XML string.
pub fn to_xml_string(records: &[AnonRecord]) -> String {
    let mut w = DatasetWriter::new(Vec::new()).expect("vec write");
    for r in records {
        w.write_record(r).expect("vec write");
    }
    let bytes = w.finish().expect("vec write");
    String::from_utf8(bytes).expect("writer emits utf-8")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> AnonRecord {
        AnonRecord {
            ts_us: 123_456,
            peer: 7,
            msg: AnonMessage::GetSources {
                files: vec![0, 1, 2],
            },
        }
    }

    #[test]
    fn document_structure() {
        let xml = to_xml_string(&[sample_record()]);
        assert!(xml.starts_with("<?xml"));
        assert!(xml.contains("<capture spec=\"etw-1.0\">"));
        assert!(xml.contains("<dialog ts=\"123456\" peer=\"7\">"));
        assert!(xml.contains(
            "<get_sources><file id=\"0\"/><file id=\"1\"/><file id=\"2\"/></get_sources>"
        ));
        assert!(xml.trim_end().ends_with("</capture>"));
    }

    #[test]
    fn record_counter() {
        let mut w = DatasetWriter::new(Vec::new()).unwrap();
        for _ in 0..5 {
            w.write_record(&sample_record()).unwrap();
        }
        assert_eq!(w.records(), 5);
        w.finish().unwrap();
    }

    #[test]
    fn byte_counter_tracks_output_exactly() {
        let mut w = DatasetWriter::new(Vec::new()).unwrap();
        let mut offsets = vec![w.bytes_written()];
        for _ in 0..3 {
            w.write_record(&sample_record()).unwrap();
            offsets.push(w.bytes_written());
        }
        let bytes = w.finish().unwrap();
        // Each recorded offset is the exact prefix length at that point.
        for (i, off) in offsets.iter().enumerate() {
            assert!(*off <= bytes.len() as u64);
            assert!(i == 0 || offsets[i - 1] < *off);
        }
        assert_eq!(
            offsets[0],
            bytes.len() as u64 - 3 * (offsets[1] - offsets[0]) - "</capture>\n".len() as u64
        );
    }

    #[test]
    fn dropped_writer_leaves_recovered_document() {
        use std::sync::{Arc, Mutex};
        // A shared sink survives the writer's drop.
        #[derive(Clone)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = Shared(Arc::new(Mutex::new(Vec::new())));
        {
            let mut w = DatasetWriter::new(sink.clone()).unwrap();
            w.write_record(&sample_record()).unwrap();
            w.write_record(&sample_record()).unwrap();
            // No finish(): simulate an unwind past the writer.
        }
        let xml = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
        assert!(xml.contains("<!-- etw:recovered records=\"2\" -->"));
        assert!(xml.trim_end().ends_with("</capture>"));
        // The recovered document parses cleanly.
        let got: Vec<AnonRecord> = crate::reader::DatasetReader::new(&xml)
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn failed_write_counts_no_records() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::{Arc, Mutex};
        /// A shared sink that refuses one write when told to, then
        /// accepts again.
        #[derive(Clone, Default)]
        struct Flaky(Arc<Mutex<Vec<u8>>>, Arc<AtomicBool>);
        impl std::io::Write for Flaky {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.1.swap(false, Ordering::Relaxed) {
                    return Err(std::io::Error::other("disk full"));
                }
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = Flaky::default();
        let mut batch = Vec::new();
        crate::encode::encode_batch(&mut batch, &vec![sample_record(); 256]);
        {
            let mut w = DatasetWriter::new(sink.clone()).unwrap();
            w.write_record(&sample_record()).unwrap();
            sink.1.store(true, Ordering::Relaxed);
            assert!(w.write_encoded(&batch, 256).is_err());
            assert_eq!(w.records(), 1, "the refused batch is not counted");
            sink.1.store(true, Ordering::Relaxed);
            assert!(w.write_record(&sample_record()).is_err());
            assert_eq!(w.records(), 1, "the refused record is not counted");
            // No finish(): the writer is dropped after the error.
        }
        let xml = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
        assert!(
            xml.contains("<!-- etw:recovered records=\"1\" -->"),
            "{xml}"
        );
        let got: Vec<AnonRecord> = crate::reader::DatasetReader::new(&xml)
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn resumed_writer_continues_byte_identically() {
        // Full run.
        let mut w = DatasetWriter::new(Vec::new()).unwrap();
        for _ in 0..5 {
            w.write_record(&sample_record()).unwrap();
        }
        let full = w.finish().unwrap();

        // Interrupted after 2 records at a known offset…
        let mut w = DatasetWriter::new(Vec::new()).unwrap();
        for _ in 0..2 {
            w.write_record(&sample_record()).unwrap();
        }
        let (records, bytes) = (w.records(), w.bytes_written());
        let mut prefix = w.finish().unwrap();
        prefix.truncate(bytes as usize); // drop the </capture> tail

        // …then resumed: no second header, counters carry on.
        let mut w = DatasetWriter::resume(prefix, records, bytes);
        assert_eq!(w.records(), 2);
        assert_eq!(w.bytes_written(), bytes);
        for _ in 0..3 {
            w.write_record(&sample_record()).unwrap();
        }
        let resumed = w.finish().unwrap();
        assert_eq!(resumed, full, "resumed dataset must be byte-identical");
    }

    #[test]
    fn search_expression_nesting() {
        let r = AnonRecord {
            ts_us: 1,
            peer: 0,
            msg: AnonMessage::SearchRequest {
                expr: AnonSearchExpr::Bool {
                    op: "and",
                    left: Box::new(AnonSearchExpr::Keyword("aa".into())),
                    right: Box::new(AnonSearchExpr::MetaNum {
                        name: "filesize".into(),
                        cmp: ">=",
                        value: 1024,
                    }),
                },
            },
        };
        let xml = to_xml_string(&[r]);
        assert!(xml.contains(
            "<search><and><kw hash=\"aa\"/><metanum name=\"filesize\" cmp=\"ge\" value=\"1024\"/></and></search>"
        ));
    }

    #[test]
    fn entries_with_tags() {
        use etw_anonymize::scheme::AnonTag;
        let r = AnonRecord {
            ts_us: 9,
            peer: 3,
            msg: AnonMessage::OfferFiles {
                files: vec![AnonFileEntry {
                    file: 11,
                    client: 3,
                    port: 4662,
                    tags: vec![
                        AnonTag {
                            name: "filename".into(),
                            value: AnonTagValue::Hashed("abcd".into()),
                        },
                        AnonTag {
                            name: "filesize".into(),
                            value: AnonTagValue::UInt(700 * 1024),
                        },
                    ],
                }],
            },
        };
        let xml = to_xml_string(&[r]);
        assert!(xml.contains("<offer><f id=\"11\" client=\"3\" port=\"4662\">"));
        assert!(xml.contains("<tag name=\"filename\" hash=\"abcd\"/>"));
        assert!(xml.contains("<tag name=\"filesize\" uint=\"716800\"/>"));
    }
}
