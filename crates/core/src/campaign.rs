//! The campaign driver: simulate N virtual weeks of server life and run
//! the capture machine over it, producing the dataset and every number
//! the paper reports.
//!
//! [`Campaign`] is the one entry point; [`run_campaign`] and
//! [`try_run_campaign_to_writer`] are wrappers over it.

use crate::checkpoint::Checkpoint;
use crate::config::{CampaignConfig, ConfigError};
use crate::pipeline::{
    run_capture_pipeline_batched, run_capture_pipeline_with, PipelineOptions, PipelineStats,
    ResumePoint, TailConfig, TimedFrame, TraceOptions,
};
use crate::source::SourceStream;
use etw_anonymize::fileid::{BucketedArrays, ByteSelector};
use etw_anonymize::scheme::{AnonRecord, PaperScheme};
use etw_anonymize::AnonymizationScheme;
use etw_anonymize::DirectArrayAnonymizer;
use etw_faults::FaultyLink;
use etw_netsim::capture::CaptureBuffer;
use etw_telemetry::health::{HealthRecorder, HealthSeries};
use etw_telemetry::Registry;
use etw_workload::catalog::Catalog;
use etw_workload::clients::Population;
use etw_xmlout::writer::DatasetWriter;
use std::cell::Cell;
use std::io::{self, Write};
use std::sync::Arc;

/// Failures of a [`Campaign`] run: a bad configuration or checkpoint,
/// or the dataset writer's sink failing mid-campaign.
#[derive(Debug)]
pub enum CampaignError {
    /// Invalid configuration or checkpoint.
    Config(ConfigError),
    /// The dataset writer hit an io error.
    Io(io::Error),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Config(e) => write!(f, "{e}"),
            CampaignError::Io(e) => write!(f, "dataset writer failed: {e}"),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<ConfigError> for CampaignError {
    fn from(e: ConfigError) -> Self {
        CampaignError::Config(e)
    }
}

/// Capture-side counters, shared between the frame producer and the
/// report.
#[derive(Default, Debug)]
pub struct CaptureSide {
    /// Frames offered to the capture ring.
    pub offered: u64,
    /// Frames captured.
    pub captured: u64,
    /// Frames lost to ring overflow (Fig. 2's counter).
    pub lost: u64,
    /// Sparse per-second loss series.
    pub losses_per_sec: Vec<(u64, u64)>,
    /// Client queries generated at the application level.
    pub queries_generated: u64,
    /// Server answers generated.
    pub answers_generated: u64,
    /// Queries corrupted on the wire.
    pub corrupted: u64,
    /// Noise datagrams injected (UDP).
    pub udp_noise: u64,
    /// TCP packets injected.
    pub tcp_noise: u64,
}

/// Everything a campaign run produces.
#[derive(Debug)]
pub struct CampaignReport {
    /// Pipeline statistics (decode, reassembly, records).
    pub pipeline: PipelineStats,
    /// Capture-side statistics.
    pub capture: CaptureSide,
    /// Distinct clientIDs in the dataset.
    pub distinct_clients: u32,
    /// Distinct fileIDs in the dataset.
    pub distinct_files: u64,
    /// fileID bucket sizes under the configured (fixed) selector.
    pub bucket_sizes_alternative: Vec<usize>,
    /// fileID bucket sizes under FIRST_TWO indexing (Fig. 3's left
    /// panel), derived at campaign end from the fileID encoder. Always
    /// `Some`: the `Option` is kept so existing readers of this field,
    /// the benchmark's adapter among them, keep compiling.
    pub bucket_sizes_first_two: Option<Vec<usize>>,
    /// Dataset records this run emitted, to `on_record` or to the
    /// dataset writer. A resumed run counts only the records after its
    /// checkpoint.
    pub records: u64,
    /// Periodic machine-health records: empty unless the campaign ran
    /// with an enabled registry ([`Campaign::registry`]) and a non-zero
    /// `health_interval_secs`. Every terminal cuts them.
    pub health: HealthSeries,
}

/// One campaign, configured with builder calls and run by one of three
/// terminals. Each terminal simulates the configured server life, runs
/// the capture machine over it and returns the [`CampaignReport`]:
///
/// * [`Campaign::run`] — the serial tail: records stream into a
///   callback in capture order;
/// * [`Campaign::run_reference`] — the serial tail written through
///   `DatasetWriter::write_record`, one record at a time: the oracle
///   every writer-tail byte-identity check compares against;
/// * [`Campaign::run_to_writer`] — the writer tail (see
///   [`run_capture_pipeline_batched`]): shard pool, assembler and write
///   stage threads. Its dataset bytes and checkpoints equal
///   [`Campaign::run_reference`]'s.
///
/// With a nonzero `config.checkpoint_interval_secs`, every terminal
/// hands a [`Checkpoint`] to `on_checkpoint` each time virtual time
/// crosses an interval boundary. `run` leaves `writer_bytes` at 0 (it
/// owns no writer); the other two stamp the writer's offset, and hand
/// out no checkpoint once a write has failed.
///
/// ```
/// use etw_core::campaign::Campaign;
/// use etw_core::config::CampaignConfig;
/// use etw_telemetry::Registry;
///
/// let registry = Registry::new();
/// let mut records = 0u64;
/// let report = Campaign::new(&CampaignConfig::tiny())
///     .registry(&registry)
///     .run(|_record| records += 1, |_checkpoint| {})
///     .expect("valid configuration");
/// assert_eq!(report.records, records);
/// ```
pub struct Campaign<'a> {
    config: &'a CampaignConfig,
    registry: Registry,
    resume: Option<&'a Checkpoint>,
}

impl<'a> Campaign<'a> {
    /// A fresh campaign of `config`, unobserved (disabled registry).
    pub fn new(config: &'a CampaignConfig) -> Self {
        Campaign {
            config,
            registry: Registry::disabled(),
            resume: None,
        }
    }

    /// Reports live telemetry into `registry`: the capture ring, every
    /// pipeline stage (metric names at [`run_capture_pipeline_with`] and
    /// `CaptureBuffer::attach_telemetry`) and the traffic source. A
    /// [`HealthRecorder`] cuts a snapshot every
    /// `config.health_interval_secs` of virtual time. Callers holding a
    /// clone of `registry` can snapshot it from another thread while the
    /// campaign runs; `etwtool monitor` does.
    pub fn registry(mut self, registry: &Registry) -> Self {
        self.registry = registry.clone();
        self
    }

    /// Resumes an interrupted campaign from `checkpoint`. The anonymiser
    /// is restored from the checkpoint's appearance orders, the
    /// deterministic frame stream replays from the seed, and the first
    /// `checkpoint.records` messages are skipped, so only the remainder
    /// is emitted. Appended to a dataset truncated to
    /// `checkpoint.writer_bytes` (reopen it with `DatasetWriter::resume`),
    /// the output is byte-identical to an uninterrupted run's, whichever
    /// tail wrote the checkpoint and whichever tail resumes it.
    ///
    /// The terminal rejects a checkpoint whose seed differs from the
    /// config's with `ConfigError::CheckpointMismatch`. The report then
    /// describes the resumed segment: `records` counts newly emitted
    /// records, while `distinct_clients` and `distinct_files` cover the
    /// whole campaign.
    pub fn resume_from(mut self, checkpoint: &'a Checkpoint) -> Self {
        self.resume = Some(checkpoint);
        self
    }

    /// Runs the serial tail, streaming anonymised records into
    /// `on_record` in capture order. Checkpoints carry
    /// `writer_bytes == 0`.
    pub fn run(
        self,
        mut on_record: impl FnMut(AnonRecord),
        mut on_checkpoint: impl FnMut(Checkpoint),
    ) -> Result<CampaignReport, CampaignError> {
        let Campaign {
            config,
            registry,
            resume,
        } = self;
        let (report, ()) =
            campaign_inner_core(config, &registry, resume, |frames, scheme, opts| {
                let (stats, scheme) = run_capture_pipeline_with(
                    frames,
                    config.decode_workers,
                    scheme,
                    &registry,
                    opts,
                    &mut on_record,
                    |cut| on_checkpoint(Checkpoint::from_pipeline(config.seed, cut, 0)),
                );
                Ok((stats, scheme, ()))
            })?;
        Ok(report)
    }

    /// Runs the serial tail through `writer.write_record`, one record at
    /// a time, and stamps the writer's offset into each checkpoint's
    /// `writer_bytes`, ready to persist. This is the reference the
    /// writer tail is checked against. After the first write error the
    /// campaign runs to its end without writing or handing out
    /// checkpoints, and returns that error as `CampaignError::Io`. The
    /// writer is returned still open: call `finish()` to close the
    /// document.
    pub fn run_reference<W: Write>(
        self,
        mut writer: DatasetWriter<W>,
        mut on_checkpoint: impl FnMut(Checkpoint),
    ) -> Result<(CampaignReport, DatasetWriter<W>), CampaignError> {
        // The offset after the last good write; `None` once a write has
        // failed, since a cut past that point would vouch for records
        // the dataset does not hold.
        let written = Cell::new(Some(writer.bytes_written()));
        let mut failed = None;
        let report = self.run(
            |record| {
                if failed.is_none() {
                    match writer.write_record(&record) {
                        Ok(()) => written.set(Some(writer.bytes_written())),
                        Err(e) => {
                            failed = Some(e);
                            written.set(None);
                        }
                    }
                }
            },
            |mut cp| {
                if let Some(bytes) = written.get() {
                    cp.writer_bytes = bytes;
                    on_checkpoint(cp);
                }
            },
        )?;
        match failed {
            Some(e) => Err(CampaignError::Io(e)),
            None => Ok((report, writer)),
        }
    }

    /// Runs the writer tail (see [`run_capture_pipeline_batched`]): the
    /// reorder stage hands `tail.batch_records`-record batches to the
    /// anonymiser's shard pool and assembler, which feed a write stage
    /// that encodes each batch and writes it in order. The dataset bytes
    /// equal [`Campaign::run_reference`]'s. Checkpoints arrive with
    /// `writer_bytes` stamped by the write stage; after a write error
    /// none arrive. The writer is returned still open: call `finish()`
    /// to close the document.
    pub fn run_to_writer<W: Write + Send>(
        self,
        tail: TailConfig,
        writer: DatasetWriter<W>,
        mut on_checkpoint: impl FnMut(Checkpoint) + Send,
    ) -> Result<(CampaignReport, DatasetWriter<W>), CampaignError> {
        // Reject a bad shard count with a typed error here, before the
        // pipeline's assert would turn it into a panic.
        if !etw_anonymize::shard::shard_count_valid(tail.anon_shards) {
            return Err(ConfigError::ShardCountInvalid {
                got: tail.anon_shards,
            }
            .into());
        }
        let Campaign {
            config,
            registry,
            resume,
        } = self;
        campaign_inner_core(config, &registry, resume, |frames, scheme, opts| {
            run_capture_pipeline_batched(
                frames,
                config.decode_workers,
                scheme,
                &registry,
                opts,
                tail,
                writer,
                |cut, writer_bytes| {
                    on_checkpoint(Checkpoint::from_pipeline(config.seed, cut, writer_bytes))
                },
            )
            .map_err(CampaignError::Io)
        })
    }
}

/// Runs a full unobserved campaign, streaming anonymised records into
/// `on_record`: `Campaign::new(config).run(on_record, |_| {})`, panicking
/// on an invalid configuration.
pub fn run_campaign(config: &CampaignConfig, on_record: impl FnMut(AnonRecord)) -> CampaignReport {
    let run = Campaign::new(config).run(on_record, |_| {});
    // etwlint: allow(no-panic-hot-path): config errors are startup-time
    // caller bugs, not capture-time failures; fallible callers build a
    // Campaign instead.
    run.expect("invalid campaign configuration")
}

/// Runs a campaign through the writer tail:
/// `Campaign::new(config).registry(registry).run_to_writer(tail, writer, on_checkpoint)`.
pub fn try_run_campaign_to_writer<W: Write + Send>(
    config: &CampaignConfig,
    registry: &Registry,
    tail: TailConfig,
    writer: DatasetWriter<W>,
    on_checkpoint: impl FnMut(Checkpoint) + Send,
) -> Result<(CampaignReport, DatasetWriter<W>), CampaignError> {
    Campaign::new(config)
        .registry(registry)
        .run_to_writer(tail, writer, on_checkpoint)
}

/// The body every [`Campaign`] terminal shares: validates, builds the
/// world (catalog, population, sharded source, capture ring, fault
/// link), restores or creates the anonymiser, delegates the capture run
/// to `run_tail` (serial tail or writer tail), then assembles the
/// report. `T` smuggles tail-specific state — the dataset writer — back
/// out.
fn campaign_inner_core<T>(
    config: &CampaignConfig,
    registry: &Registry,
    resume: Option<&Checkpoint>,
    run_tail: impl for<'f> FnOnce(
        Box<dyn Iterator<Item = TimedFrame> + Send + 'f>,
        PaperScheme,
        &PipelineOptions,
    ) -> Result<(PipelineStats, PaperScheme, T), CampaignError>,
) -> Result<(CampaignReport, T), CampaignError> {
    config.validate()?;
    // The seed is all a resume can check: `Checkpoint` stores no
    // checkpoint interval.
    if let Some(cp) = resume {
        if cp.seed != config.seed {
            return Err(ConfigError::CheckpointMismatch {
                reason: "checkpoint seed differs from the campaign seed",
            }
            .into());
        }
    }
    let catalog = Arc::new(Catalog::generate(&config.catalog, config.seed ^ 1));
    let population = Arc::new(Population::generate(&config.population, config.seed ^ 2));
    let mut capture = CaptureBuffer::new(config.capture_ring, config.capture_drain_pps);
    capture.attach_telemetry(registry);
    // The sharded front-end: `config.source.source_shards` generator
    // workers and index shards behind a sequential merger — frame output
    // is byte-identical for every shard count (DESIGN.md §17).
    let health = HealthRecorder::new(registry.clone(), config.health_interval_secs);
    let mut source =
        SourceStream::spawn(catalog, population, config, registry, capture, Some(health));

    // Resume restores the anonymiser by replaying its appearance orders;
    // a fresh run starts empty. Either way the frame stream replays from
    // the seed — determinism is the checkpoint's other half.
    let scheme = match resume {
        None => AnonymizationScheme::new(
            DirectArrayAnonymizer::new(config.client_space_bits),
            BucketedArrays::new(config.fileid_selector),
        ),
        Some(cp) => AnonymizationScheme::new(
            DirectArrayAnonymizer::from_order(config.client_space_bits, &cp.client_order),
            BucketedArrays::from_order(config.fileid_selector, &cp.file_order),
        ),
    };
    let opts = PipelineOptions {
        checkpoint_interval_us: config.checkpoint_interval_secs * 1_000_000,
        resume: resume.map(|cp| ResumePoint {
            records: cp.records,
            virtual_us: cp.virtual_us,
            next_checkpoint_us: cp.next_checkpoint_us,
        }),
        faults: config.faults.worker_plan(),
        trace: (config.trace_ring_slots > 0).then(|| {
            if let Some(dir) = &config.trace_dump_dir {
                // Best-effort: an unwritable dump dir degrades to
                // in-memory recording, it never stops the capture.
                let _ = std::fs::create_dir_all(dir);
            }
            TraceOptions {
                ring_slots: config.trace_ring_slots,
                dump_dir: config.trace_dump_dir.clone(),
                ..TraceOptions::default()
            }
        }),
    };

    // The lossy link sits between the capture tap and the pipeline, so
    // `faults.link.offered_total` equals the ring's captured count.
    let frames: Box<dyn Iterator<Item = TimedFrame> + Send + '_> = if config.faults.link_active() {
        Box::new(FaultyLink::new(
            source.by_ref(),
            config.faults.clone(),
            registry,
        ))
    } else {
        Box::new(source.by_ref())
    };

    let (pipeline, scheme, extra) = run_tail(frames, scheme, &opts)?;

    // Surface the anonymiser's probe work: counters the health file and
    // the prometheus dump can report alongside the pipeline stages.
    let probes = pipeline.fileid_probes;
    registry
        .gauge("anon.fileid.probes_total")
        .set(probes.probes as i64);
    registry
        .gauge("anon.fileid.comparisons_total")
        .set(probes.comparisons as i64);
    registry
        .gauge("anon.fileid.max_probe_depth")
        .set(probes.max_probe_depth as i64);
    registry
        .gauge("anon.fileid.inserts_total")
        .set(probes.inserts as i64);
    registry
        .gauge("anon.fileid.shifted_total")
        .set(probes.shifted as i64);
    registry
        .gauge("anon.fileid.max_shift")
        .set(probes.max_shift as i64);

    // Cut the final health record only now, after the sink has drained,
    // so its snapshot agrees with the report's totals.
    let (capture, health) = source.finish();
    Ok((
        CampaignReport {
            records: pipeline.records,
            distinct_clients: scheme.distinct_clients(),
            distinct_files: scheme.distinct_files(),
            bucket_sizes_alternative: scheme.file_encoder().bucket_sizes(),
            // Fig. 3's left panel, recounted from the fileID encoder:
            // every tail hands back a complete one (the sharded tail
            // rebuilds it from the assembler's orders).
            bucket_sizes_first_two: Some(
                scheme
                    .file_encoder()
                    .bucket_sizes_by(ByteSelector::FIRST_TWO),
            ),
            pipeline,
            capture,
            health,
        },
        extra,
    ))
}

/// Renders a [`HealthSeries`] as a gnuplot-ready `.dat` table, one row
/// per health record. Columns (all cumulative unless noted):
///
/// 1. virtual time (s)    2. wall time (s)
/// 3. interval RTF        4. cumulative RTF (virtual s / wall s)
/// 5. frames produced     6. frames decoded
/// 7. records emitted     8. ring packets lost
/// 9. decode_in stalls   10. decode_in queue depth (instantaneous)
/// 11. decode_out queue depth (instantaneous)
/// 12. reorder depth high-water mark
pub fn render_health_dat(health: &HealthSeries) -> String {
    let mut out = String::from(
        "# virtual_s wall_s rtf_interval rtf_cumulative frames_produced \
         frames_decoded records ring_lost decode_in_stalls \
         decode_in_depth decode_out_depth reorder_depth_hwm\n",
    );
    for r in &health.records {
        let s = &r.snapshot;
        out.push_str(&format!(
            "{} {:.3} {:.1} {:.1} {} {} {} {} {} {} {} {}\n",
            r.virtual_secs(),
            r.wall_secs,
            r.rtf_interval,
            r.rtf_cumulative,
            s.counter("stage.producer.frames_total"),
            s.counter("stage.decode.frames_total"),
            s.counter("stage.sink.records_total"),
            s.counter("ring.lost_total"),
            s.counter("chan.decode_in.stalls_total"),
            s.gauge("chan.decode_in.depth"),
            s.gauge("chan.decode_out.depth"),
            s.gauge("stage.reorder.depth_hwm"),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> (CampaignReport, Vec<AnonRecord>) {
        let mut records = Vec::new();
        let report = run_campaign(&CampaignConfig::tiny(), |r| records.push(r));
        (report, records)
    }

    #[test]
    fn campaign_produces_dataset() {
        let (report, records) = tiny_report();
        assert!(report.records > 500, "records {}", report.records);
        assert_eq!(report.records as usize, records.len());
        assert!(report.distinct_clients > 100);
        assert!(report.distinct_files > 200);
        // Conservation at the capture.
        assert_eq!(
            report.capture.offered,
            report.capture.captured + report.capture.lost
        );
        // The pipeline saw exactly the captured frames.
        assert_eq!(report.pipeline.frames, report.capture.captured);
    }

    #[test]
    fn records_are_time_ordered() {
        let (_, records) = tiny_report();
        // Answers are emitted slightly after queries; overall order must
        // be non-decreasing because the capture ring preserves order.
        for w in records.windows(2) {
            assert!(w[0].ts_us <= w[1].ts_us, "{} > {}", w[0].ts_us, w[1].ts_us);
        }
    }

    #[test]
    fn undecodable_fraction_close_to_configured() {
        let (report, _) = tiny_report();
        let frac = report.pipeline.decoder.undecoded_fraction();
        // Configured 0.68 % corruption; fragment/ring losses can shave a
        // corrupted datagram, so accept a generous band around it.
        assert!(frac > 0.001, "undecoded fraction {frac}");
        assert!(frac < 0.03, "undecoded fraction {frac}");
    }

    #[test]
    fn fig3_buckets_polluted_under_first_two() {
        let (report, _) = tiny_report();
        let first = report.bucket_sizes_first_two.expect("always derived");
        let alt = &report.bucket_sizes_alternative;
        // Pollution concentrates in buckets 0 and 256 under FIRST_TWO…
        let max_first = *first.iter().max().unwrap();
        assert!(first[0] + first[256] > 0, "no pollution captured");
        assert!(
            first[0].max(first[256]) == max_first,
            "pollution should dominate: bucket0={} bucket256={} max={}",
            first[0],
            first[256],
            max_first
        );
        // …and spreads under the alternative selector.
        let max_alt = *alt.iter().max().unwrap();
        assert!(
            max_alt * 4 < max_first,
            "alternative selector should balance: {max_alt} vs {max_first}"
        );
        // Both stores saw the same distinct fileIDs.
        let sum_first: usize = first.iter().sum();
        let sum_alt: usize = alt.iter().sum();
        assert_eq!(sum_first, sum_alt);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut records = Vec::new();
            let report = run_campaign(&CampaignConfig::tiny(), |r| records.push(r));
            (report.records, report.distinct_clients, records)
        };
        let (n1, c1, r1) = run();
        let (n2, c2, r2) = run();
        assert_eq!(n1, n2);
        assert_eq!(c1, c2);
        assert_eq!(r1, r2);
    }

    #[test]
    fn dataset_invariant_under_source_shards() {
        let run = |shards: usize| {
            let mut config = CampaignConfig::tiny();
            config.source.source_shards = shards;
            let mut records = Vec::new();
            let report = run_campaign(&config, |r| records.push(r));
            (report, records)
        };
        let (base_report, base) = run(1);
        assert!(base.len() > 500, "records {}", base.len());
        for shards in [2usize, 4] {
            let (report, records) = run(shards);
            assert_eq!(base, records, "{shards} source shards: dataset diverges");
            assert_eq!(base_report.records, report.records);
            assert_eq!(base_report.distinct_clients, report.distinct_clients);
            assert_eq!(base_report.distinct_files, report.distinct_files);
            assert_eq!(base_report.capture.offered, report.capture.offered);
            assert_eq!(base_report.capture.lost, report.capture.lost);
            assert_eq!(
                base_report.bucket_sizes_alternative,
                report.bucket_sizes_alternative
            );
        }
    }

    #[test]
    fn noise_reaches_classifiers() {
        let (report, _) = tiny_report();
        assert!(report.pipeline.not_udp > 0, "no TCP noise seen");
        assert!(
            report.pipeline.decoder.not_edonkey > 0,
            "no UDP noise classified"
        );
    }

    #[test]
    fn observed_campaign_cuts_health_records() {
        let registry = Registry::new();
        let mut config = CampaignConfig::tiny();
        config.health_interval_secs = 600;
        let report = Campaign::new(&config)
            .registry(&registry)
            .run(|_| {}, |_| {})
            .expect("valid config");

        // tiny() runs 1800 virtual seconds → boundaries at 600, 1200,
        // 1800 (+ a final cut only if time advanced past the last one).
        assert!(
            (3..=4).contains(&report.health.records.len()),
            "expected 3-4 health records, got {}",
            report.health.records.len()
        );
        let mut prev_virtual = 0;
        let mut prev_frames = 0;
        for rec in &report.health.records {
            assert!(rec.virtual_us > prev_virtual, "virtual time must advance");
            prev_virtual = rec.virtual_us;
            assert!(rec.rtf_interval > 0.0 && rec.rtf_interval.is_finite());
            let frames = rec.snapshot.counter("stage.producer.frames_total");
            assert!(frames >= prev_frames, "counters must be monotone");
            prev_frames = frames;
        }

        // The final snapshot agrees with the report's own accounting.
        let last = &report.health.records.last().unwrap().snapshot;
        assert_eq!(last.counter("ring.offered_total"), report.capture.offered);
        assert_eq!(last.counter("ring.captured_total"), report.capture.captured);
        assert_eq!(last.counter("ring.lost_total"), report.capture.lost);
        assert_eq!(last.counter("stage.sink.records_total"), report.records);
        assert_eq!(
            last.counter("campaign.queries_total"),
            report.capture.queries_generated
        );
        assert_eq!(
            last.counter("campaign.answers_total"),
            report.capture.answers_generated
        );
    }

    #[test]
    fn faulty_campaign_conserves_frames_and_is_deterministic() {
        let config = CampaignConfig::tiny_faulty();
        let run = || {
            let registry = Registry::new();
            let mut records = Vec::new();
            let report = Campaign::new(&config)
                .registry(&registry)
                .run(|r| records.push(r), |_| {})
                .expect("valid config");
            (report, records, registry.snapshot())
        };
        let (report, records, snap) = run();

        // The link sits right behind the capture tap.
        let offered = snap.counter("faults.link.offered_total");
        assert_eq!(offered, report.capture.captured);
        // Every fault class fired.
        for c in [
            "faults.link.dropped_total",
            "faults.link.duplicated_total",
            "faults.link.reordered_total",
            "faults.link.delayed_total",
            "faults.link.truncated_total",
            "faults.link.outage_dropped_total",
            "faults.worker.crashes_total",
            "faults.worker.restarts_total",
            "pipeline.shed_total",
        ] {
            assert!(snap.counter(c) > 0, "{c} never fired");
        }
        // Link ledger: frames in = frames out + losses − duplicates.
        let delivered = snap.counter("faults.link.delivered_total");
        assert_eq!(
            delivered,
            offered
                - snap.counter("faults.link.dropped_total")
                - snap.counter("faults.link.outage_dropped_total")
                + snap.counter("faults.link.duplicated_total")
        );
        // Pipeline ledger: everything the link delivered was either shed
        // or routed to a worker, and every routed frame got decoded.
        assert_eq!(delivered, report.pipeline.frames + report.pipeline.shed);
        assert_eq!(snap.counter("pipeline.shed_total"), report.pipeline.shed);
        assert_eq!(
            snap.counter("stage.decode.frames_total"),
            report.pipeline.frames
        );
        // Crashed workers tombstone frames but the campaign survives
        // with a usable dataset.
        assert_eq!(
            snap.counter("faults.worker.crashes_total"),
            snap.counter("faults.worker.restarts_total"),
            "crash budget not exhausted in the soak preset"
        );
        assert_eq!(snap.counter("faults.worker.degraded_total"), 0);
        assert!(report.records > 500, "records {}", report.records);
        assert_eq!(report.records as usize, records.len());
        // Records stay time-ordered under delay/reorder/duplication: the
        // link re-stamps delayed frames and swaps payloads, never
        // timestamps.
        for w in records.windows(2) {
            assert!(w[0].ts_us <= w[1].ts_us);
        }

        // Same seed, same faults, same dataset.
        let (report2, records2, _) = run();
        assert_eq!(report.records, report2.records);
        assert_eq!(records, records2);
    }

    #[test]
    fn faulty_campaign_resumes_record_identical() {
        let config = CampaignConfig::tiny_faulty();
        let mut full = Vec::new();
        let mut cps: Vec<Checkpoint> = Vec::new();
        let report = Campaign::new(&config)
            .run(|r| full.push(r), |cp| cps.push(cp))
            .expect("valid config");
        // 1800 s campaign, 300 s interval → several cuts.
        assert!(cps.len() >= 4, "only {} checkpoints", cps.len());
        for w in cps.windows(2) {
            assert!(w[0].records < w[1].records);
            assert!(w[0].virtual_us < w[1].virtual_us);
        }
        assert_eq!(report.records as usize, full.len());

        // Resume from a mid-campaign checkpoint: the tail must continue
        // the record stream exactly, and the later cuts must be the very
        // same cuts.
        let cp = cps[cps.len() / 2].clone();
        let mut tail = Vec::new();
        let mut tail_cps: Vec<Checkpoint> = Vec::new();
        let resumed = Campaign::new(&config)
            .resume_from(&cp)
            .run(|r| tail.push(r), |c| tail_cps.push(c))
            .expect("resume accepted");
        assert_eq!(resumed.records + cp.records, full.len() as u64);
        assert_eq!(&full[cp.records as usize..], &tail[..]);
        let expected_tail_cps: Vec<&Checkpoint> =
            cps.iter().filter(|c| c.records > cp.records).collect();
        assert_eq!(expected_tail_cps.len(), tail_cps.len());
        for (a, b) in expected_tail_cps.iter().zip(&tail_cps) {
            assert_eq!(*a, b, "resumed checkpoint diverges");
        }
        // Whole-campaign identity survives the restart.
        assert_eq!(resumed.distinct_clients, report.distinct_clients);
        assert_eq!(resumed.distinct_files, report.distinct_files);
        assert_eq!(
            resumed.bucket_sizes_first_two,
            report.bucket_sizes_first_two
        );
    }

    #[test]
    fn mismatched_checkpoint_rejected() {
        let config = CampaignConfig::tiny_faulty();
        let mut cps: Vec<Checkpoint> = Vec::new();
        Campaign::new(&config)
            .run(
                |_| {},
                |cp| {
                    if cps.is_empty() {
                        cps.push(cp)
                    }
                },
            )
            .unwrap();
        let mut wrong_seed = cps.remove(0);
        wrong_seed.seed ^= 1;
        let resumed = || Campaign::new(&config).resume_from(&wrong_seed);
        let writer = || DatasetWriter::new(Vec::new()).expect("vec write");
        let terminals = [
            ("run", resumed().run(|_| {}, |_| {}).err()),
            (
                "run_reference",
                resumed().run_reference(writer(), |_| {}).err(),
            ),
            (
                "run_to_writer",
                resumed()
                    .run_to_writer(TailConfig::default(), writer(), |_| {})
                    .err(),
            ),
        ];
        for (terminal, err) in terminals {
            let err = err.unwrap_or_else(|| panic!("{terminal} accepted a foreign checkpoint"));
            assert!(
                matches!(
                    err,
                    CampaignError::Config(ConfigError::CheckpointMismatch { .. })
                ),
                "{terminal}: {err}"
            );
            assert!(err.to_string().contains("seed"), "{terminal}: {err}");
        }
    }

    #[test]
    fn bad_shard_count_is_a_typed_error() {
        let config = CampaignConfig::tiny();
        for got in [0, 3, 32] {
            let err = match try_run_campaign_to_writer(
                &config,
                &Registry::disabled(),
                TailConfig {
                    anon_shards: got,
                    ..TailConfig::default()
                },
                DatasetWriter::new(Vec::new()).expect("vec write"),
                |_| {},
            ) {
                Err(e) => e,
                Ok(_) => panic!("accepted anon_shards = {got}"),
            };
            assert!(
                matches!(err, CampaignError::Config(ConfigError::ShardCountInvalid { got: g }) if g == got),
                "anon_shards = {got}: {err}"
            );
        }
    }

    /// The serial reference for the writer tail: the campaign's records
    /// through `DatasetWriter::write_record` one at a time, `writer_bytes`
    /// stamped into each checkpoint.
    fn serial_writer_run(config: &CampaignConfig) -> (CampaignReport, Vec<u8>, Vec<Checkpoint>) {
        let mut cps = Vec::new();
        let (report, writer) = Campaign::new(config)
            .run_reference(DatasetWriter::new(Vec::new()).expect("vec write"), |cp| {
                cps.push(cp)
            })
            .expect("valid config");
        let bytes = writer.finish().expect("vec write");
        (report, bytes, cps)
    }

    #[test]
    fn writer_campaign_byte_identical_to_serial_writer() {
        let config = CampaignConfig::tiny_faulty();
        let (report, serial_bytes, serial_cps) = serial_writer_run(&config);
        assert!(!serial_cps.is_empty(), "faulty preset must checkpoint");

        for tail in [
            TailConfig::default(),
            TailConfig {
                batch_records: 7,
                batch_queue: 2,
                anon_shards: 1,
            },
            TailConfig {
                batch_records: 7,
                batch_queue: 2,
                anon_shards: 4,
            },
        ] {
            let mut cps = Vec::new();
            let (batched, writer) = try_run_campaign_to_writer(
                &config,
                &Registry::disabled(),
                tail,
                DatasetWriter::new(Vec::new()).expect("vec write"),
                |cp| cps.push(cp),
            )
            .expect("batched campaign");
            let bytes = writer.finish().expect("vec write");
            assert_eq!(serial_bytes, bytes, "dataset bytes diverge");
            assert_eq!(serial_cps, cps, "checkpoints diverge");
            assert_eq!(report.records, batched.records);
            assert_eq!(report.distinct_clients, batched.distinct_clients);
            assert_eq!(report.distinct_files, batched.distinct_files);
            assert_eq!(report.capture.offered, batched.capture.offered);
        }
    }

    #[test]
    fn writer_campaign_resumes_byte_identical() {
        let config = CampaignConfig::tiny_faulty();
        let (report, full_bytes, cps) = serial_writer_run(&config);
        let cp = cps[cps.len() / 2].clone();

        // Crash simulation: keep only the prefix the checkpoint
        // vouches for, then resume through the batched tail.
        let prefix = full_bytes[..cp.writer_bytes as usize].to_vec();
        let mut tail_cps = Vec::new();
        let (resumed, writer) = Campaign::new(&config)
            .resume_from(&cp)
            .run_to_writer(
                TailConfig::default(),
                DatasetWriter::resume(prefix, cp.records, cp.writer_bytes),
                |c| tail_cps.push(c),
            )
            .expect("resume accepted");
        let rebuilt = writer.finish().expect("vec write");
        assert_eq!(full_bytes, rebuilt, "resumed dataset diverges");
        let expected: Vec<&Checkpoint> = cps.iter().filter(|c| c.records > cp.records).collect();
        assert_eq!(expected.len(), tail_cps.len());
        for (a, b) in expected.iter().zip(&tail_cps) {
            assert_eq!(*a, b, "resumed checkpoint diverges");
        }
        assert_eq!(resumed.records + cp.records, report.records);
    }

    #[test]
    fn every_tail_publishes_the_same_fileid_ledger() {
        let config = CampaignConfig::tiny();
        let ledger = |registry: &Registry| {
            let snap = registry.snapshot();
            [
                "probes_total",
                "comparisons_total",
                "max_probe_depth",
                "inserts_total",
                "shifted_total",
                "max_shift",
            ]
            .map(|name| snap.gauge(&format!("anon.fileid.{name}")))
        };
        let serial = Registry::new();
        Campaign::new(&config)
            .registry(&serial)
            .run(|_| {}, |_| {})
            .expect("valid config");
        let expected = ledger(&serial);
        assert!(expected[0] > 0, "the campaign probes fileIDs");
        for anon_shards in [1, 4] {
            let registry = Registry::new();
            try_run_campaign_to_writer(
                &config,
                &registry,
                TailConfig {
                    anon_shards,
                    ..TailConfig::default()
                },
                DatasetWriter::new(io::sink()).expect("sink write"),
                |_| {},
            )
            .expect("writer campaign");
            assert_eq!(ledger(&registry), expected, "{anon_shards} shards");
        }
    }

    #[test]
    fn writer_campaign_surfaces_io_errors() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        /// Accepts the XML prologue and a few records, then fails, and
        /// says so in `broken`: exercises both writer terminals'
        /// mid-campaign error path (the writer tail's write stage drains,
        /// the campaign returns the error instead of deadlocking; the
        /// reference stops writing and returns it).
        struct FailAfter {
            left: usize,
            broken: Arc<AtomicBool>,
        }
        impl Write for FailAfter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.left < buf.len() {
                    // ordering: Relaxed — written and read on the thread
                    // that writes the dataset and hands out its cuts.
                    self.broken.store(true, Ordering::Relaxed);
                    return Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"));
                }
                self.left -= buf.len();
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        // Checkpoints every 300 virtual s, so a run that failed early
        // still passes five boundaries.
        let mut config = CampaignConfig::tiny();
        config.checkpoint_interval_secs = 300;
        let (_, _, cps) = serial_writer_run(&config);
        assert!(cps.len() >= 5, "a clean run cuts {} checkpoints", cps.len());
        for terminal in ["run_reference", "run_to_writer"] {
            let broken = Arc::new(AtomicBool::new(false));
            let writer = DatasetWriter::new(FailAfter {
                left: 4096,
                broken: Arc::clone(&broken),
            })
            .expect("header fits");
            let mut late_cuts = 0;
            // ordering: Relaxed — as in FailAfter::write.
            let on_cut = |_: Checkpoint| late_cuts += u32::from(broken.load(Ordering::Relaxed));
            let campaign = Campaign::new(&config);
            let err = match terminal {
                "run_reference" => campaign.run_reference(writer, on_cut).err(),
                _ => campaign
                    .run_to_writer(TailConfig::default(), writer, on_cut)
                    .err(),
            };
            match err {
                Some(CampaignError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::StorageFull),
                Some(other) => panic!("{terminal}: expected io error, got {other}"),
                None => panic!("{terminal}: writer must fail"),
            }
            assert!(
                broken.load(Ordering::Relaxed),
                "{terminal}: the sink failed"
            );
            assert_eq!(late_cuts, 0, "{terminal} handed out cuts after the failure");
        }
    }

    #[test]
    fn unobserved_campaign_matches_observed() {
        // The disabled registry must not perturb the simulation.
        let plain = run_campaign(&CampaignConfig::tiny(), |_| {});
        let observed = Campaign::new(&CampaignConfig::tiny())
            .registry(&Registry::new())
            .run(|_| {}, |_| {})
            .expect("valid config");
        assert_eq!(plain.records, observed.records);
        assert_eq!(plain.capture.offered, observed.capture.offered);
        assert_eq!(plain.capture.lost, observed.capture.lost);
        assert!(
            plain.health.is_empty(),
            "plain run must carry no health data"
        );
    }
}
