//! The traced run: one timed campaign, the serial-oracle check, the
//! source on its own, and a single-threaded replay of the workload one
//! layer at a time. Each layer's output is materialised before the next
//! layer runs, so each span is that layer's self time.
//!
//! The source's frame stream is private to the campaign, so the replay
//! takes its frames from a serial reference on a noise-free configuration
//! (see [`crate::reference`]); the reference is not a timed layer. Counts
//! that depend on noise (datagrams, malformed messages) are read from the
//! timed campaign; times come from the replay.

use crate::adapter::{self, Outcome};
use crate::check::check_oracle;
use crate::reference::Reference;
use crate::report::{Report, PER_LAYER};
use crate::sink::HashSink;
use crate::spans::Tracer;
use crate::sys::process_cpu;
use crate::timed::{self, CutLog, Rep};
use crate::workloads::Workload;
use etw_anonymize::{AnonRecord, BucketedArrays, ByteSelector, FileIdAnonymizer, PaperScheme};
use etw_anonymize::{AnonymizationScheme, DirectArrayAnonymizer};
use etw_core::pipeline::TimedFrame;
use etw_core::source::run_source_only;
use etw_core::wirepath::{Recovered, WireDecoder};
use etw_core::CampaignConfig;
use etw_edonkey::{ClientId, DecodeOutcome, Decoder, FileId, Message};
use etw_faults::FaultyLink;
use etw_telemetry::Registry;
use etw_workload::catalog::Catalog;
use etw_workload::clients::Population;
use etw_workload::session::{SessionShard, SourceBlobs, SrcEvent, WireParams};
use etw_xmlout::encode_batch;
use etw_xmlout::writer::DatasetWriter;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workload events generated per replay step.
const EVENT_CHUNK: usize = 16_384;
/// Frames pushed through the decode-to-write layers per replay step.
const FRAME_CHUNK: usize = 65_536;
/// Records per anonymise and encode batch, as in the campaign's tail.
const BATCH: usize = 256;

/// Counts from one replay.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayCounts {
    /// Workload events generated.
    pub events: u64,
    /// Frames fed to the wire path (after the fault link, if any).
    pub frames: u64,
    /// Frames the fault link was offered.
    pub link_frames: u64,
    /// eDonkey datagrams the wire path recovered.
    pub datagrams: u64,
    /// Messages decoded (and anonymised: one record each).
    pub records: u64,
    /// Datagrams the decoder rejected.
    pub malformed: u64,
    /// Dataset bytes encoded.
    pub bytes: u64,
    /// fileID store comparisons and shifted entries.
    pub comparisons: u64,
    /// Entries shifted by sorted insertion in the fileID store.
    pub shifted: u64,
    /// Entries shifted in the Fig. 3 FIRST_TWO store.
    pub fig3_shifted: u64,
}

/// fileIDs a message references, as the campaign's Fig. 3 tracker reads
/// them.
fn message_file_ids(msg: &Message) -> Vec<&FileId> {
    match msg {
        Message::GetSources { file_ids } => file_ids.iter().collect(),
        Message::FoundSources { file_id, .. } => vec![file_id],
        Message::SearchResponse { results } => results.iter().map(|e| &e.file_id).collect(),
        Message::OfferFiles { files } => files.iter().map(|e| &e.file_id).collect(),
        _ => Vec::new(),
    }
}

/// Replays `config`'s workload layer by layer. `faults` routes the frames
/// through the campaign's fault link; `fig3` also feeds the FIRST_TWO
/// store, as a campaign that tracks Fig. 3 does.
pub fn replay(
    config: &CampaignConfig,
    faults: bool,
    fig3: bool,
    t: &mut Tracer,
) -> Result<ReplayCounts, String> {
    let mut n = ReplayCounts::default();
    let quiet = WireParams {
        p_corrupt: 0.0,
        p_corrupt_structural: config.p_corrupt_structural,
        p_tcp_noise: 0.0,
        p_udp_noise: 0.0,
    };
    let (mut shard, mut reference) = t.span("replay.world", |_| {
        let catalog = Arc::new(Catalog::generate(&config.catalog, config.seed ^ 1));
        let population = Arc::new(Population::generate(&config.population, config.seed ^ 2));
        let blobs = Arc::new(SourceBlobs::build(&catalog));
        let reference = Reference::new(&catalog, Arc::clone(&blobs), config.mtu);
        let shard = SessionShard::new(
            catalog,
            population,
            blobs,
            config.generator.clone(),
            quiet,
            config.seed ^ 3,
            0,
            1,
        );
        (shard, reference)
    });

    // Workload and reference: every frame of the campaign, materialised.
    let mut frames: Vec<TimedFrame> = Vec::new();
    loop {
        let events: Vec<SrcEvent> =
            t.span("workload", |_| shard.by_ref().take(EVENT_CHUNK).collect());
        if events.is_empty() {
            break;
        }
        n.events += events.len() as u64;
        t.span("reference", |_| reference.frames(&events, &mut frames));
    }
    drop(shard);
    if faults {
        n.link_frames = frames.len() as u64;
        let upstream = std::mem::take(&mut frames);
        frames = t.span("faults", |_| {
            FaultyLink::new(
                upstream.into_iter(),
                config.faults.clone(),
                &Registry::disabled(),
            )
            .collect()
        });
    }
    n.frames = frames.len() as u64;

    // Decode to write, one chunk of frames at a time.
    let mut wire = WireDecoder::new();
    let mut decoder = Decoder::new();
    let mut scheme: PaperScheme = AnonymizationScheme::new(
        DirectArrayAnonymizer::new(config.client_space_bits),
        BucketedArrays::new(config.fileid_selector),
    );
    let mut first_two = fig3.then(|| BucketedArrays::new(ByteSelector::FIRST_TWO));
    let mut writer = DatasetWriter::new(HashSink::new()).map_err(|e| e.to_string())?;
    for chunk in frames.chunks(FRAME_CHUNK) {
        let datagrams: Vec<_> = t.span("wirepath", |_| {
            chunk
                .iter()
                .filter_map(|f| match wire.push(f.ts, &f.bytes) {
                    Recovered::Udp { peer, payload, .. } => Some((f.ts.0, peer, payload)),
                    _ => None,
                })
                .collect()
        });
        n.datagrams += datagrams.len() as u64;
        let msgs: Vec<(u64, ClientId, Message)> = t.span("edonkey", |_| {
            datagrams
                .iter()
                .filter_map(|(ts, peer, payload)| match decoder.push(payload) {
                    DecodeOutcome::Ok(m) => Some((*ts, *peer, m)),
                    _ => None,
                })
                .collect()
        });
        n.malformed += (datagrams.len() - msgs.len()) as u64;
        drop(datagrams);
        if let Some(store) = first_two.as_mut() {
            t.span("anonymize.fig3", |_| {
                for (_, _, m) in &msgs {
                    for id in message_file_ids(m) {
                        store.anonymize(id);
                    }
                }
            });
        }
        let records: Vec<AnonRecord> = t.span("anonymize", |_| {
            let mut out = Vec::with_capacity(msgs.len());
            for batch in msgs.chunks(BATCH) {
                scheme.anonymize_batch(batch.iter().map(|(ts, p, m)| (*ts, *p, m)), &mut out);
            }
            out
        });
        n.records += records.len() as u64;
        drop(msgs);
        let encoded: Vec<(Vec<u8>, u64)> = t.span("xmlout.encode", |_| {
            records
                .chunks(BATCH)
                .map(|b| {
                    let mut buf = Vec::with_capacity(b.len() * 160);
                    encode_batch(&mut buf, b);
                    (buf, b.len() as u64)
                })
                .collect()
        });
        drop(records);
        n.bytes += encoded.iter().map(|(b, _)| b.len() as u64).sum::<u64>();
        t.span("xmlout.write", |_| {
            encoded
                .iter()
                .try_for_each(|(buf, k)| writer.write_encoded(buf, *k))
                .map_err(|e| e.to_string())
        })?;
    }
    let probes = scheme.file_encoder().probe_stats();
    n.comparisons = probes.comparisons;
    n.shifted = probes.shifted;
    n.fig3_shifted = first_two.map_or(0, |s| s.probe_stats().shifted);
    if writer.records() != n.records {
        return Err(format!(
            "replay writer counted {} records, replay anonymised {}",
            writer.records(),
            n.records
        ));
    }
    writer.finish().map_err(|e| e.to_string())?;
    Ok(n)
}

/// The source on its own: wall and process CPU of `run_source_only`.
struct SourceRun {
    wall: Duration,
    cpu: Duration,
    offered: u64,
    lost: u64,
}

fn source_only(config: &CampaignConfig) -> SourceRun {
    let cpu0 = process_cpu();
    let t0 = Instant::now();
    let (side, _bytes) = run_source_only(config, &Registry::disabled());
    SourceRun {
        wall: t0.elapsed(),
        cpu: process_cpu() - cpu0,
        offered: side.offered,
        lost: side.lost,
    }
}

fn per(d: Duration, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        d.as_nanos() as f64 / count as f64
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Runs the traced run of workload `w` under `seed`, writing spans to
/// `spans_path` and checkpoints to `cut_path`.
pub fn traced_run(w: &Workload, seed: u64, cut_path: &Path, spans_path: &Path) -> Report {
    let config = adapter::config(&w.shape, seed);
    let mut t = Tracer::new();
    // Two operations: the campaign (with its oracle check) and the replay.
    let mut campaign_errors: Vec<String> = Vec::new();
    let mut replay_errors: Vec<String> = Vec::new();

    let setup = t.span("setup", |_| timed::setup(&config));
    let rep: Rep = t.span("campaign", |_| {
        timed::campaign(&w.shape, seed, cut_path, true, None)
    });
    if let Err(e) = &rep.check {
        campaign_errors.push(e.clone());
    }
    match t.span("oracle", |_| adapter::oracle(&w.shape, seed)) {
        Ok((digest, records)) => {
            if let Err(e) = check_oracle(&rep.outcome, digest, records) {
                campaign_errors.push(e);
            }
        }
        Err(e) => campaign_errors.push(format!("serial oracle failed: {e}")),
    }
    let source = t.span("source", |_| source_only(&config));
    let o: Outcome = rep.outcome;
    if source.offered != o.offered || source.lost != o.lost {
        replay_errors.push(format!(
            "source alone offered {} / lost {}, campaign {} / {}",
            source.offered, source.lost, o.offered, o.lost
        ));
    }
    let replayed = t.span("replay", |t| {
        replay(&config, w.shape.durable, o.fig3_tracked, t)
    });
    let n = replayed.unwrap_or_else(|e| {
        replay_errors.push(format!("replay failed: {e}"));
        ReplayCounts::default()
    });
    if !w.shape.durable && n.malformed > 0 {
        replay_errors.push(format!(
            "noise-free replay rejected {} datagrams",
            n.malformed
        ));
    }
    eprintln!(
        "perfbench: {} seed {seed}: timed campaign {} records, replay {} records ({} frames)",
        w.name, o.records, n.records, n.frames
    );
    if let Err(e) = t.write(spans_path) {
        replay_errors.push(format!("writing spans to {}: {e}", spans_path.display()));
    }
    for e in campaign_errors.iter().chain(&replay_errors) {
        eprintln!("perfbench: check failed: {e}");
    }

    let wall = |name| t.self_time(name).0;
    let cpu = |name| t.self_time(name).1;
    let cuts: &CutLog = &rep.cuts;
    let layer_cpu: Duration = [
        "faults",
        "wirepath",
        "edonkey",
        "anonymize",
        "anonymize.fig3",
        "xmlout.encode",
        "xmlout.write",
    ]
    .into_iter()
    .map(cpu)
    .sum();
    let overhead =
        rep.cpu_ns_per_record() - per(source.cpu + cuts.cpu, o.records) - per(layer_cpu, n.records);
    let ms_per_cut = |d: Duration| d.as_secs_f64() * 1e3 / cuts.cuts.max(1) as f64;
    let values: [(&str, f64); 28] = [
        ("workload.setup_s", setup.workload.as_secs_f64()),
        ("anonymize.setup_s", setup.anonymize.as_secs_f64()),
        ("source.ns_per_frame", per(source.wall, source.offered)),
        ("source.cpu_ns_per_frame", per(source.cpu, source.offered)),
        ("source.frames", source.offered as f64),
        ("source.lost", source.lost as f64),
        ("workload.ns_per_event", per(wall("workload"), n.events)),
        ("workload.events", n.events as f64),
        ("wirepath.ns_per_frame", per(wall("wirepath"), n.frames)),
        ("wirepath.datagrams", o.udp_datagrams as f64),
        (
            "wirepath.useful_ratio",
            ratio(o.edonkey_datagrams, o.frames),
        ),
        ("edonkey.ns_per_datagram", per(wall("edonkey"), n.datagrams)),
        ("edonkey.decoded", o.decoded as f64),
        ("edonkey.malformed", o.malformed as f64),
        ("anonymize.ns_per_record", per(wall("anonymize"), n.records)),
        (
            "anonymize.fileid.comparisons_per_record",
            ratio(n.comparisons, n.records),
        ),
        (
            "anonymize.fileid.shifted_per_record",
            ratio(n.shifted, n.records),
        ),
        (
            "anonymize.fig3.ns_per_record",
            per(wall("anonymize.fig3"), n.records),
        ),
        (
            "anonymize.fig3.shifted_per_record",
            ratio(n.fig3_shifted, n.records),
        ),
        (
            "xmlout.encode_ns_per_record",
            per(wall("xmlout.encode"), n.records),
        ),
        ("xmlout.bytes_per_record", ratio(n.bytes, n.records)),
        (
            "xmlout.write_ns_per_record",
            per(wall("xmlout.write"), n.records),
        ),
        ("checkpoint.cuts", cuts.cuts as f64),
        ("checkpoint.encode_ms_per_cut", ms_per_cut(cuts.encode)),
        ("checkpoint.persist_ms_per_cut", ms_per_cut(cuts.persist)),
        ("checkpoint.bytes_per_cut", ratio(cuts.bytes, cuts.cuts)),
        ("faults.ns_per_frame", per(wall("faults"), n.link_frames)),
        ("pipeline.overhead_ns_per_record", overhead),
    ];
    Report {
        correct: campaign_errors.is_empty() && replay_errors.is_empty(),
        attempted: 2,
        failed: u64::from(!campaign_errors.is_empty()) + u64::from(!replay_errors.is_empty()),
        metrics: Report::in_catalogue_order(&PER_LAYER.map(|m| (m.name, m.unit)), &values),
    }
}
