//! The benchmark's only contact with the campaign API. Every
//! `CampaignConfig` field the benchmark sets is set in [`config`]; the
//! timed campaign entry point is called in [`run`] and the serial oracle
//! in [`oracle`]. Everything else in the benchmark sees the plain
//! [`Shape`] and [`Outcome`] types, so a change to the campaign entry
//! points or to the configuration (a new constructor API, a removed
//! field) changes this file only. The Fig. 3 tracker is left at its
//! default.

use crate::sink::HashSink;
use etw_core::campaign::try_run_campaign_to_writer;
use etw_core::pipeline::TailConfig;
use etw_core::{run_campaign, CampaignConfig, Checkpoint};
use etw_telemetry::Registry;
use etw_xmlout::writer::DatasetWriter;

/// What a workload varies, in the benchmark's own terms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shape {
    /// Clients in the population.
    pub clients: usize,
    /// Width of the clientID space, in bits (the direct array's width).
    pub id_bits: u32,
    /// Virtual campaign length, in seconds.
    pub duration_secs: u64,
    /// Link faults, supervision, periodic checkpoints, live telemetry
    /// and the flight recorder: the operator's configuration.
    pub durable: bool,
}

/// Virtual seconds between checkpoints of a durable campaign: eleven
/// full snapshots in six virtual hours. Every 300 s (71 cuts) the
/// snapshots take four fifths of the campaign, so per-record figures
/// follow each population's record count, which varies by a third
/// between seeds, more than they follow the code.
const CHECKPOINT_INTERVAL_SECS: u64 = 1_800;

/// The campaign configuration of `shape` under workload seed `seed`.
pub fn config(shape: &Shape, seed: u64) -> CampaignConfig {
    let mut c = CampaignConfig {
        seed,
        client_space_bits: shape.id_bits,
        // One decode worker per core of a 2-core host.
        decode_workers: 2,
        ..CampaignConfig::default()
    };
    c.population.n_clients = shape.clients;
    c.population.id_space_bits = shape.id_bits;
    c.generator.duration_secs = shape.duration_secs;
    // One generator thread.
    c.source.source_shards = 1;
    if shape.durable {
        // The soak preset's link faults, outage and overload windows,
        // with worker crashes spaced so no worker ever degrades.
        let mut faults = CampaignConfig::tiny_faulty().faults;
        faults.seed = seed ^ 0xFA17;
        faults.worker_crash_every = 40_000;
        faults.max_worker_restarts = u32::MAX;
        c.faults = faults;
        c.checkpoint_interval_secs = CHECKPOINT_INTERVAL_SECS;
        c.trace_ring_slots = 256;
    }
    c
}

/// Everything the benchmark reads back from one campaign.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Outcome {
    /// Records the campaign reports.
    pub records: u64,
    /// Records the dataset writer counted.
    pub writer_records: u64,
    /// Digest of the dataset bytes.
    pub digest: u64,
    /// Frames offered to the capture ring.
    pub offered: u64,
    /// Frames the capture ring kept.
    pub captured: u64,
    /// Frames the capture ring lost.
    pub lost: u64,
    /// Frames the pipeline decoded.
    pub frames: u64,
    /// Frames the pipeline shed under overload.
    pub shed: u64,
    /// Complete UDP datagrams the wire path recovered.
    pub udp_datagrams: u64,
    /// Recovered datagrams that carried the eDonkey marker.
    pub edonkey_datagrams: u64,
    /// eDonkey datagrams decoded into messages.
    pub decoded: u64,
    /// eDonkey datagrams rejected as malformed.
    pub malformed: u64,
    /// Whether the campaign kept the live Fig. 3 FIRST_TWO store.
    pub fig3_tracked: bool,
}

/// Runs `shape` under `seed` through the batched writer tail into a
/// [`HashSink`], handing every checkpoint to `on_cut`.
pub fn run(
    shape: &Shape,
    seed: u64,
    on_cut: impl FnMut(Checkpoint) + Send,
) -> Result<Outcome, String> {
    let config = config(shape, seed);
    let registry = if shape.durable {
        Registry::new()
    } else {
        Registry::disabled()
    };
    let writer = DatasetWriter::new(HashSink::new()).map_err(|e| e.to_string())?;
    let (report, writer) =
        try_run_campaign_to_writer(&config, &registry, TailConfig::default(), writer, on_cut)
            .map_err(|e| e.to_string())?;
    let writer_records = writer.records();
    let sink = writer.finish().map_err(|e| e.to_string())?;
    let p = &report.pipeline;
    Ok(Outcome {
        records: report.records,
        writer_records,
        digest: sink.digest(),
        offered: report.capture.offered,
        captured: report.capture.captured,
        lost: report.capture.lost,
        frames: p.frames,
        shed: p.shed,
        udp_datagrams: p.udp_datagrams,
        edonkey_datagrams: p.decoder.handled - p.decoder.not_edonkey,
        decoded: p.decoder.decoded,
        malformed: p.decoder.structurally_invalid + p.decoder.decode_failed,
        fig3_tracked: report.bucket_sizes_first_two.is_some(),
    })
}

/// The serial oracle: the same campaign through the record-at-a-time
/// tail, each record written with `DatasetWriter::write_record`.
/// Returns the dataset digest and record count.
pub fn oracle(shape: &Shape, seed: u64) -> Result<(u64, u64), String> {
    let config = config(shape, seed);
    let mut writer = DatasetWriter::new(HashSink::new()).map_err(|e| e.to_string())?;
    let mut failed = None;
    let report = run_campaign(&config, |r| {
        if let Err(e) = writer.write_record(&r) {
            failed.get_or_insert(e);
        }
    });
    if let Some(e) = failed {
        return Err(e.to_string());
    }
    let sink = writer.finish().map_err(|e| e.to_string())?;
    Ok((sink.digest(), report.records))
}
