//! The `repro bench` suite: decode-only, tail-only and end-to-end
//! throughput, plus steady-state allocations per record in the
//! formatter, on the `tiny` and `tiny_faulty` campaign presets.
//!
//! Four measurements, matching the capture machine's serial bottleneck
//! story (the paper's "keeping up with the server" requirement):
//!
//! * `decode_only` — the parallelisable front: wire decapsulation plus
//!   two-step eDonkey decoding over a realistic message mix;
//! * `tail_serial` / `tail_batched` — the sequential tail in isolation:
//!   the same anonymised records pushed through `DatasetWriter::write_record`
//!   (per-record `write!` formatting) versus the batched zero-alloc
//!   encoder + `write_encoded`. The ratio is PR 4's headline number
//!   and [`self_checks`] enforces the [`MIN_TAIL_SPEEDUP`] floor;
//! * `anonymize_serial` / `anonymize_shard4` — the anonymise stage in
//!   isolation: the same decoded message mix through the pre-PR serial
//!   scheme (fresh record per slot) and through the clientID/fileID
//!   shard pool's resolve→assemble→construct path, which reuses record
//!   allocations in place. [`self_checks`] enforces the
//!   [`MIN_ANON_SHARD_SPEEDUP`] floor;
//! * `end_to_end` — full campaigns through the batched writer tail, plus
//!   an `end_to_end_traced` overhead row with the stage-span layer and
//!   flight recorder armed.
//!
//! PR 10 adds the sharded-source rows and two new floors:
//!
//! * `source_only` — the sharded front end in isolation: generator
//!   workers, virtual-time merge, per-shard directory indexes and the
//!   lossy capture ring, with nothing downstream;
//! * `end_to_end_src4` — the `end_to_end/tiny` campaign with four
//!   source shards (`end_to_end/tiny` itself runs one, the default), so
//!   the byte-identical shard widths are also visible as throughput
//!   rows;
//! * the decode-ratio floor ([`MAX_E2E_DECODE_RATIO`]): `end_to_end`
//!   may lag `decode_only` by at most that factor, so the front end
//!   can never silently rot back to the pre-sharding starvation;
//! * the swarm floors: `swarm_served` joins the trajectory-gated set
//!   and the live tap's measured loss must stay under
//!   [`MAX_SWARM_LOSS_PERMILLE`].
//!
//! The trajectory gate compares each of [`GATED_BENCHES`] — end-to-end
//! and the three per-stage benches — against the committed baseline
//! individually, so a stage-local regression trips at its own stage
//! instead of hiding inside the end-to-end average.

use crate::alloc::{counting_active, AllocSpan};
use crate::harness::{time_best_of, BenchReport, BenchResult};
use etw_anonymize::fileid::ByteSelector;
use etw_anonymize::scheme::{AnonRecord, PaperScheme};
use etw_anonymize::ShardedAnonymizer;
use etw_core::campaign::{run_campaign, Campaign};
use etw_core::config::CampaignConfig;
use etw_core::livecap::LiveCapture;
use etw_core::pipeline::TailConfig;
use etw_core::wirepath::{encapsulate, Direction, Recovered, WireDecoder};
use etw_edonkey::decoder::{DecodeOutcome, Decoder};
use etw_edonkey::ids::{ClientId, FileId};
use etw_edonkey::messages::{FileEntry, Message, Source};
use etw_edonkey::search::SearchExpr;
use etw_edonkey::tags::{special, Tag, TagList};
use etw_netsim::clock::VirtualTime;
use etw_telemetry::Registry;
use etw_xmlout::encode::encode_batch;
use etw_xmlout::writer::DatasetWriter;
use std::io;

/// How the suite is run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SuiteOptions {
    /// CI mode: one measured repeat per bench and shortened campaigns.
    /// Throughputs (records/sec) stay comparable to a full run; absolute
    /// record counts do not.
    pub smoke: bool,
}

/// A gated benchmark may regress at most this fraction against the
/// committed baseline before [`trajectory_gate`] fails the run.
pub const MAX_BENCH_REGRESSION: f64 = 0.20;

/// Benchmarks the trajectory gate enforces, each individually against
/// the [`MAX_BENCH_REGRESSION`] budget: the end-to-end campaigns plus
/// the three per-stage benches, so a regression confined to one stage
/// (and diluted below the end-to-end threshold by Amdahl) still trips
/// the gate at the stage where it happened.
pub const GATED_BENCHES: &[&str] = &[
    "end_to_end",
    "decode_only",
    "tail_batched",
    "anonymize_shard4",
    "swarm_served",
];

/// The decode-ratio floor [`self_checks`] enforces: `end_to_end` must
/// stay within this factor of `decode_only`. The decode front runs at
/// millions of records/s; before the sharded source the serial front
/// end held end-to-end 55× below it, and nothing would have caught a
/// relapse — the trajectory gate only sees a 20% slide per PR. Start
/// at 20× (measured ≈ 17× after the sharded source landed) and tighten
/// as the front end improves.
pub const MAX_E2E_DECODE_RATIO: f64 = 20.0;

/// The live-tap loss budget for the swarm bench, in permille of tapped
/// frames. The tap's 256-slot queue is deliberately small (the paper's
/// lossy-capture stand-in), so some loss is expected and *measured* —
/// PR 8 recorded ≈ 7‰ — but a capture path that starts shedding one
/// frame in twenty is broken, not lossy.
pub const MAX_SWARM_LOSS_PERMILLE: f64 = 50.0;

/// The tail-only speedup floor [`self_checks`] enforces: the batched
/// zero-alloc encoder must beat the per-record `write!` writer by at
/// least this factor on `tiny`. PR 4 measured 2.5×; PR 10's `Arc`/`Cow`
/// record representation made the *serial* writer's records cheaper to
/// format too, narrowing the measured gap to ≈ 2.0× — the floor sits
/// under that with room for scheduler noise, not under the old gap.
pub const MIN_TAIL_SPEEDUP: f64 = 1.7;

/// The anonymise-only speedup floor [`self_checks`] enforces: the
/// sharded anonymiser at `ANON_SHARDS` (4) shards must beat the serial
/// scheme by at least this factor on the bench mix. The win is
/// algorithmic, not parallel, so it holds on a single-core host too:
/// the sharded assembler constructs records in place, reusing each
/// output slot's allocations across batches, where the serial scheme
/// builds every record fresh into a cleared `Vec`. PR 5 measured 1.8×;
/// PR 10's memoised `Arc<str>` digests and `Cow<'static, str>` tag
/// names removed most of the serial scheme's per-record allocations,
/// narrowing the measured gap to ≈ 1.4× — the floor tracks that.
pub const MIN_ANON_SHARD_SPEEDUP: f64 = 1.25;

/// Records staged per formatter batch in the tail benches — the
/// pipeline's default batch size, so the bench measures what ships.
const TAIL_BATCH: usize = 256;

/// ClientID space for the anonymise-only benches: the CI matrix's
/// default width, so first-appearance assignment costs what a wide
/// campaign pays.
const ANON_WIDTH_BITS: u32 = 24;

/// Shard count for the `anonymize_shard4` row.
const ANON_SHARDS: usize = 4;

fn preset(name: &str, smoke: bool) -> CampaignConfig {
    let mut config = match name {
        "tiny" => CampaignConfig::tiny(),
        "tiny_faulty" => CampaignConfig::tiny_faulty(),
        other => panic!("unknown bench preset {other:?}"),
    };
    if smoke {
        config.generator.duration_secs = 600;
    }
    config
}

/// Runs the whole suite and returns the report, printing one line per
/// bench to stderr as results land.
pub fn run_suite(opts: &SuiteOptions) -> BenchReport {
    let reps = if opts.smoke { 1 } else { 3 };
    let mut report = BenchReport::default();

    // decode_only carries a per-stage trajectory floor and each pass is
    // tens of milliseconds — best-of-9 for the same reason as the tail
    // benches below: the floor must not flake on a preempted pass.
    report.results.push(bench_decode_only(opts, reps.max(9)));
    eprintln!("  {}", describe(report.results.last().unwrap()));

    // The sharded source in isolation: what the generator workers,
    // virtual-time merger, directory shards and capture ring produce
    // with nothing downstream. Passes are ~25 ms; best-of-9 like the
    // other stage rows.
    report.results.push(bench_source_only(opts, reps.max(9)));
    eprintln!("  {}", describe(report.results.last().unwrap()));

    // Tail corpus: the records a tiny campaign actually produces, so the
    // tail benches format the real message mix (search expressions,
    // offer lists, found sources) rather than a synthetic best case.
    let mut corpus: Vec<AnonRecord> = Vec::new();
    run_campaign(&preset("tiny", opts.smoke), |r| corpus.push(r));
    assert!(!corpus.is_empty(), "corpus campaign produced no records");

    // The tail passes are ~10 ms each — the same order as a scheduler
    // timeslice, so on a busy single-core host any one pass can eat a
    // preemption and read half its true rate. They are cheap enough to
    // always run best-of-9: one clean window is all the measurement
    // needs, and the 2× gate must not flake in CI.
    for result in bench_tail(&corpus, reps.max(9)) {
        eprintln!("  {}", describe(&result));
        report.results.push(result);
    }

    // Anonymise-only passes are ~10 ms too; same best-of-9 rationale so
    // the 1.5× shard gate never reads a preempted pass.
    for result in bench_anonymize(if opts.smoke { 30_000 } else { 60_000 }, reps.max(9)) {
        eprintln!("  {}", describe(&result));
        report.results.push(result);
    }

    // End-to-end carries the trajectory gate; best-of-3 keeps a single
    // preempted campaign from reading as a >20 % regression.
    for preset_name in ["tiny", "tiny_faulty"] {
        let config = preset(preset_name, opts.smoke);
        let result = bench_end_to_end("end_to_end", preset_name, &config, reps.max(3));
        eprintln!("  {}", describe(&result));
        report.results.push(result);
    }

    // The same tiny campaign at 4 source shards (`end_to_end/tiny`
    // runs 1) — a width the CI matrix proves byte-identical, here as a
    // throughput row so the shard machinery's cost (or win, on a
    // multi-core host) stays visible in every committed baseline.
    let mut config = preset("tiny", opts.smoke);
    config.source.source_shards = 4;
    let result = bench_end_to_end("end_to_end_src4", "tiny", &config, reps.max(3));
    eprintln!("  {}", describe(&result));
    report.results.push(result);

    // Informational (never gated — the delta sits inside run-to-run
    // noise): the same tiny campaign with the full observability stack
    // on, quantifying what `stage.*` spans + the flight recorder cost.
    let result = bench_end_to_end_traced(opts, reps.max(3));
    eprintln!("  {}", describe(&result));
    report.results.push(result);

    // The real-socket serving loop and its live capture tap. Wall time
    // here is kernel socket scheduling, so the bench keeps the best of
    // two soaks to damp the jitter; `swarm_served` is trajectory-gated
    // and the tap's measured loss is held under the permille budget by
    // [`self_checks`].
    for result in bench_swarm(opts) {
        eprintln!("  {}", describe(&result));
        report.results.push(result);
    }
    report
}

/// The UDP serving loop under the loopback client swarm, including the
/// mid-run burst window: `swarm_served` is answered queries per wall
/// second; `swarm_tapped` / `swarm_capture_loss` are the live tap's
/// *measured* intake and drop counts through a deliberately small
/// capture queue (the paper's lossy-capture stand-in — the loss is
/// real backpressure, not a simulated coin flip).
///
/// `swarm_served` is trajectory-gated (PR 10), so the bench runs the
/// whole soak twice and keeps the faster run: wall time here is kernel
/// socket scheduling, and one clean window is what the floor needs.
/// The loss rows always come from the kept run, so the permille check
/// in [`self_checks`] reads a consistent (tapped, dropped) pair.
fn bench_swarm(_opts: &SuiteOptions) -> Vec<BenchResult> {
    use etw_server::net::NetConfig;
    use etw_server::swarm::{run_loopback_soak, Roster, SoakConfig, SwarmConfig};

    // Same shape in smoke and full runs: the served rate scales with
    // session concurrency, so a shortened smoke soak would read 40%
    // under the committed full-run baseline and the trajectory floor
    // would compare apples to oranges. The soak is ~1.5 s wall; paying
    // it twice in CI is cheaper than a floor that cannot gate.
    let sessions = 256;
    let duration_us: u64 = 1_500_000;
    let mut best: Option<(f64, u64, u64, u64)> = None; // (wall, answered, tapped, dropped)
    for _ in 0..2 {
        let registry = Registry::new();
        let roster = Roster::default();
        let (capture, tap) = LiveCapture::start(&registry, &roster, 256);
        let cfg = SoakConfig {
            swarm: SwarmConfig {
                sessions,
                seed: 0xBE_0C85,
                duration_us,
                burst_start_us: duration_us / 4,
                burst_len_us: duration_us / 2,
                ..SwarmConfig::default()
            },
            net: NetConfig::default(),
            server_fault: None,
        };
        let mut tap_slot = Some(tap);
        let (wall_secs, outcome) = time_best_of(1, || {
            run_loopback_soak(cfg.clone(), &registry, &roster, tap_slot.take())
        });
        let outcome = outcome.expect("loopback soak");
        assert!(
            outcome.server_error.is_none(),
            "serving loop failed: {:?}",
            outcome.server_error
        );
        let captured = capture.finish();
        let answered = registry.snapshot().counter("server.net.answered_total");
        eprintln!(
            "  swarm capture: {} tapped, {} dropped ({:.3}% measured loss)",
            captured.tapped,
            captured.tap_dropped,
            captured.loss_fraction() * 100.0
        );
        let rate = answered as f64 / wall_secs;
        if best.is_none_or(|(w, a, _, _)| rate > a as f64 / w) {
            best = Some((wall_secs, answered, captured.tapped, captured.tap_dropped));
        }
    }
    let (wall_secs, answered, tapped, dropped) = best.expect("at least one soak");
    vec![
        BenchResult {
            name: "swarm_served".into(),
            preset: "loopback".into(),
            records: answered,
            wall_secs,
            records_per_sec: answered as f64 / wall_secs,
            allocs_per_record: None,
        },
        BenchResult {
            name: "swarm_tapped".into(),
            preset: "loopback".into(),
            records: tapped,
            wall_secs,
            records_per_sec: tapped as f64 / wall_secs,
            allocs_per_record: None,
        },
        BenchResult {
            name: "swarm_capture_loss".into(),
            preset: "loopback".into(),
            records: dropped,
            wall_secs,
            records_per_sec: dropped as f64 / wall_secs,
            allocs_per_record: None,
        },
    ]
}

/// The tiny end-to-end campaign with tracing fully armed — live metric
/// registry, stage-span histograms and the per-thread flight-recorder
/// rings (no dump directory: dumps are fault-path, not steady-state).
/// Compared against `end_to_end/tiny` this is the measured overhead of
/// the observability layer, documented in DESIGN.md §14.
fn bench_end_to_end_traced(opts: &SuiteOptions, reps: usize) -> BenchResult {
    let mut config = preset("tiny", opts.smoke);
    config.trace_ring_slots = 256;
    let mut run = || {
        let (report, writer) = Campaign::new(&config)
            .registry(&Registry::new())
            .run_to_writer(
                TailConfig::default(),
                DatasetWriter::new(io::sink()).expect("sink writer"),
                |_| {},
            )
            .expect("bench campaign");
        writer.finish().expect("sink write");
        report.records
    };
    let (wall_secs, records) = time_best_of(reps, &mut run);
    BenchResult {
        name: "end_to_end_traced".into(),
        preset: "tiny".into(),
        records,
        wall_secs,
        records_per_sec: records as f64 / wall_secs,
        allocs_per_record: None,
    }
}

/// One row as `name/preset: N records in T = R records/s` (T in ms
/// below 0.1 s), the line `repro bench` and `repro ablations` print per
/// measurement.
pub(crate) fn describe(r: &BenchResult) -> String {
    let allocs = match r.allocs_per_record {
        Some(a) => format!(", {a:.3} allocs/record"),
        None => String::new(),
    };
    let wall = if r.wall_secs < 0.1 {
        format!("{:.3}ms", r.wall_secs * 1e3)
    } else {
        format!("{:.3}s", r.wall_secs)
    };
    format!(
        "{}/{}: {} records in {wall} = {:.0} records/s{}",
        r.name, r.preset, r.records, r.records_per_sec, allocs
    )
}

/// The decode front in isolation: frames through the wire decoder and
/// the two-step eDonkey decoder, single-threaded.
fn bench_decode_only(opts: &SuiteOptions, reps: usize) -> BenchResult {
    let n = if opts.smoke { 20_000 } else { 50_000 };
    let frames = mix_frames(message_mix(n, 0xdec0));
    let (wall_secs, decoded) = time_best_of(reps, || decode_frames(&frames));
    assert!(decoded as usize > n / 2, "decode bench mix mostly failed");
    BenchResult {
        name: "decode_only".into(),
        preset: "mix".into(),
        records: n as u64,
        wall_secs,
        records_per_sec: n as f64 / wall_secs,
        allocs_per_record: None,
    }
}

/// Encapsulates encoded messages into ethernet frames, one datagram per
/// message (fragmented past a 1 500-byte MTU).
pub(crate) fn mix_frames(msgs: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
    msgs.into_iter()
        .enumerate()
        .flat_map(|(i, m)| {
            encapsulate(
                m,
                ClientId(i as u32 % 0xffff),
                4672,
                Direction::ToServer,
                i as u16,
                1500,
            )
            .into_iter()
            .map(|f| f.to_bytes())
        })
        .collect()
}

/// Runs `frames` through the wire decoder and the two-step eDonkey
/// decoder on one thread; returns the messages decoded.
pub(crate) fn decode_frames(frames: &[Vec<u8>]) -> u64 {
    let mut wire = WireDecoder::new();
    let mut decoder = Decoder::new();
    let mut decoded = 0u64;
    for f in frames {
        if let Recovered::Udp { payload, .. } = wire.push(VirtualTime::ZERO, f) {
            if let DecodeOutcome::Ok(_) = decoder.push(&payload) {
                decoded += 1;
            }
        }
    }
    decoded
}

/// [`std::io::Write`] into a borrowed, recycled `Vec<u8>` — the tail
/// benches' sink. A plain `io::sink()` would flatter the serial writer
/// (its many small `write!` fragment writes become free); the real tail
/// materialises every byte, so the bench does too. The buffer reaches
/// its high-water capacity during warmup and never reallocates after.
struct BufSink<'a>(&'a mut Vec<u8>);

impl io::Write for BufSink<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The sequential tail in isolation, old vs new: identical records into
/// a recycled memory sink, once through per-record `write!` formatting
/// and once through the batched zero-alloc encoder. Steady-state
/// allocations are read over one extra pass after timing, when every
/// reused buffer has reached its high-water capacity.
fn bench_tail(corpus: &[AnonRecord], reps: usize) -> Vec<BenchResult> {
    let n = corpus.len() as u64;
    let mut out: Vec<u8> = Vec::new();

    let mut serial = || {
        out.clear();
        let mut w = DatasetWriter::new(BufSink(&mut out)).expect("buffer writer");
        for r in corpus {
            w.write_record(r).expect("buffer write");
        }
        w.records()
    };
    let (serial_secs, written) = time_best_of(reps, &mut serial);
    assert_eq!(written, n);
    let serial_allocs = measure_allocs(n, &mut serial);

    let mut buf: Vec<u8> = Vec::with_capacity(TAIL_BATCH * 64);
    let mut batched = || {
        out.clear();
        let mut w = DatasetWriter::new(BufSink(&mut out)).expect("buffer writer");
        for batch in corpus.chunks(TAIL_BATCH) {
            buf.clear();
            encode_batch(&mut buf, batch);
            w.write_encoded(&buf, batch.len() as u64)
                .expect("buffer write");
        }
        w.records()
    };
    let (batched_secs, written) = time_best_of(reps, &mut batched);
    assert_eq!(written, n);
    let batched_allocs = measure_allocs(n, &mut batched);

    vec![
        BenchResult {
            name: "tail_serial".into(),
            preset: "tiny".into(),
            records: n,
            wall_secs: serial_secs,
            records_per_sec: n as f64 / serial_secs,
            allocs_per_record: serial_allocs,
        },
        BenchResult {
            name: "tail_batched".into(),
            preset: "tiny".into(),
            records: n,
            wall_secs: batched_secs,
            records_per_sec: n as f64 / batched_secs,
            allocs_per_record: batched_allocs,
        },
    ]
}

/// Allocation events per record over one steady-state pass, or `None`
/// when the process does not route allocations through the counting
/// allocator (unit tests; any binary without the `#[global_allocator]`).
fn measure_allocs(records: u64, run: &mut impl FnMut() -> u64) -> Option<f64> {
    if !counting_active() {
        return None;
    }
    let span = AllocSpan::start();
    run();
    Some(span.delta() as f64 / records as f64)
}

/// The anonymise stage in isolation, old vs new: the same decoded
/// message mix staged in [`TAIL_BATCH`]-record batches, once through
/// the serial scheme's batch API into a **cleared** `Vec` — exactly
/// the anonymise stage the batched tail ran before this PR, paying a
/// fresh allocation for every string, entry vector and tag list — and
/// once through the [`ANON_SHARDS`]-shard pool's full path (collect
/// ids, per-shard resolve, assemble, construct records **in place**),
/// the work the sharded tail's shard and assembler threads do. The
/// speedup is algorithmic, so it holds on a single core: the in-place
/// construction reuses every record allocation in the shape-stable
/// steady state this corpus models. Each repeat builds fresh encoders
/// so every pass pays the same first-appearance assignment work.
///
/// The corpus cycles the four message families with fixed-arity bodies
/// ([`anon_mix`]): [`TAIL_BATCH`] is a multiple of the period, so every
/// record slot sees the same message shape batch after batch — the
/// repetitive-traffic steady state in-place reuse targets. The
/// randomized-shape case (where reuse degrades to fresh construction)
/// is covered end-to-end by the campaign benches and their trajectory
/// gate.
fn bench_anonymize(n: usize, reps: usize) -> Vec<BenchResult> {
    use std::time::Instant;

    let corpus = anon_mix(n);

    // Fresh encoders are built (and dropped) OUTSIDE the timed window:
    // the 2^24-entry clientID table is memset on construction and
    // unmapped on drop — tens of milliseconds of one-time campaign
    // setup that would swamp the ~10 ms measured pass. The pipeline
    // pays that once per campaign, not per batch. The extra iteration
    // (`0..=reps`) is the untimed warmup, like [`time_best_of`]'s.
    let mut out: Vec<AnonRecord> = Vec::new();
    let mut serial_secs = f64::INFINITY;
    for rep in 0..=reps {
        let mut scheme = PaperScheme::paper(ANON_WIDTH_BITS);
        let mut records = 0u64;
        let t = Instant::now();
        for chunk in corpus.chunks(TAIL_BATCH) {
            out.clear();
            let summary =
                scheme.anonymize_batch(chunk.iter().map(|(t, p, m)| (*t, *p, m)), &mut out);
            records += summary.records;
        }
        if rep > 0 {
            serial_secs = serial_secs.min(t.elapsed().as_secs_f64());
        }
        assert_eq!(records, n as u64);
    }

    // NOT cleared between batches: the stale records are the sharded
    // path's allocation pool, as in the pipeline.
    let mut sharded_out: Vec<AnonRecord> = Vec::new();
    let mut sharded_secs = f64::INFINITY;
    for rep in 0..=reps {
        let mut sh =
            ShardedAnonymizer::new(ANON_WIDTH_BITS, ByteSelector::ALTERNATIVE, ANON_SHARDS);
        let mut records = 0u64;
        let t = Instant::now();
        for chunk in corpus.chunks(TAIL_BATCH) {
            let summary =
                sh.anonymize_batch(chunk.iter().map(|(t, p, m)| (*t, *p, m)), &mut sharded_out);
            records += summary.records;
        }
        if rep > 0 {
            sharded_secs = sharded_secs.min(t.elapsed().as_secs_f64());
        }
        assert_eq!(records, n as u64);
    }

    vec![
        BenchResult {
            name: "anonymize_serial".into(),
            preset: "mix".into(),
            records: n as u64,
            wall_secs: serial_secs,
            records_per_sec: n as f64 / serial_secs,
            allocs_per_record: None,
        },
        BenchResult {
            name: format!("anonymize_shard{ANON_SHARDS}"),
            preset: "mix".into(),
            records: n as u64,
            wall_secs: sharded_secs,
            records_per_sec: n as f64 / sharded_secs,
            allocs_per_record: None,
        },
    ]
}

/// A full campaign of `config` through the batched writer tail into a
/// sink, reported as row `name`/`preset_name`.
fn bench_end_to_end(
    name: &str,
    preset_name: &str,
    config: &CampaignConfig,
    reps: usize,
) -> BenchResult {
    let mut run = || {
        let (report, writer) = Campaign::new(config)
            .run_to_writer(
                TailConfig::default(),
                DatasetWriter::new(io::sink()).expect("sink writer"),
                |_| {},
            )
            .expect("bench campaign");
        writer.finish().expect("sink write");
        report.records
    };
    let (wall_secs, records) = time_best_of(reps, &mut run);
    BenchResult {
        name: name.into(),
        preset: preset_name.into(),
        records,
        wall_secs,
        records_per_sec: records as f64 / wall_secs,
        allocs_per_record: None,
    }
}

/// The sharded source with nothing downstream: generator workers, the
/// virtual-time merger, per-shard directory indexes, answer assembly
/// and the lossy capture ring, on the tiny preset. Records are the
/// frames the capture side kept — the front end's deliverable.
fn bench_source_only(opts: &SuiteOptions, reps: usize) -> BenchResult {
    use etw_core::source::run_source_only;

    let config = preset("tiny", opts.smoke);
    let mut run = || {
        let (side, _bytes) = run_source_only(&config, &Registry::disabled());
        side.captured
    };
    let (wall_secs, frames) = time_best_of(reps, &mut run);
    assert!(frames > 0, "source-only bench captured nothing");
    BenchResult {
        name: "source_only".into(),
        preset: "tiny".into(),
        records: frames,
        wall_secs,
        records_per_sec: frames as f64 / wall_secs,
        allocs_per_record: None,
    }
}

/// Invariants the fresh run must satisfy on its own, baseline or not:
/// the batched tail's ≥ 2× speedup and its zero-allocation steady
/// state, the anonymiser shard floor, the decode-ratio floor
/// ([`MAX_E2E_DECODE_RATIO`]) and the swarm tap's loss budget
/// ([`MAX_SWARM_LOSS_PERMILLE`]). Returns human-readable failures
/// (empty = pass).
pub fn self_checks(fresh: &BenchReport) -> Vec<String> {
    let mut failures = Vec::new();
    match (
        fresh.find("tail_serial", "tiny"),
        fresh.find("tail_batched", "tiny"),
    ) {
        (Some(serial), Some(batched)) => {
            let speedup = batched.records_per_sec / serial.records_per_sec;
            if speedup < MIN_TAIL_SPEEDUP {
                failures.push(format!(
                    "tail speedup {speedup:.2}x below the {MIN_TAIL_SPEEDUP}x floor \
                     ({:.0} vs {:.0} records/s)",
                    batched.records_per_sec, serial.records_per_sec
                ));
            }
            match batched.allocs_per_record {
                Some(a) if a > 0.0 => failures.push(format!(
                    "batched formatter allocates in steady state: {a:.3} allocs/record"
                )),
                Some(_) => {}
                None => failures
                    .push("allocations unmeasured: counting allocator not installed".to_owned()),
            }
        }
        _ => failures.push("tail benches missing from the run".to_owned()),
    }
    match (
        fresh.find("anonymize_serial", "mix"),
        fresh.find(&format!("anonymize_shard{ANON_SHARDS}"), "mix"),
    ) {
        (Some(serial), Some(sharded)) => {
            let speedup = sharded.records_per_sec / serial.records_per_sec;
            if speedup < MIN_ANON_SHARD_SPEEDUP {
                failures.push(format!(
                    "anonymise-only shard speedup {speedup:.2}x below the \
                     {MIN_ANON_SHARD_SPEEDUP}x floor ({:.0} vs {:.0} records/s)",
                    sharded.records_per_sec, serial.records_per_sec
                ));
            }
        }
        _ => failures.push("anonymise-only benches missing from the run".to_owned()),
    }
    // Decode-ratio floor (PR 10): the end-to-end campaign may lag the
    // decode front by at most MAX_E2E_DECODE_RATIO. A relative floor,
    // so it survives host changes that scale both rows together —
    // what it catches is the *front end* rotting back toward the
    // pre-sharding 55× starvation.
    match (
        fresh.find("decode_only", "mix"),
        fresh.find("end_to_end", "tiny"),
    ) {
        (Some(decode), Some(e2e)) => {
            let ratio = decode.records_per_sec / e2e.records_per_sec;
            if ratio > MAX_E2E_DECODE_RATIO {
                failures.push(format!(
                    "decode-ratio gate: end_to_end {:.0} records/s lags decode_only \
                     {:.0} by {ratio:.1}x (budget {MAX_E2E_DECODE_RATIO}x) — \
                     the front end is starving the pipeline again",
                    e2e.records_per_sec, decode.records_per_sec
                ));
            }
        }
        _ => failures.push("decode-ratio gate: decode_only or end_to_end row missing".to_owned()),
    }
    // Swarm tap loss budget (PR 10): measured drops as a fraction of
    // tapped frames, from the soak the swarm bench kept.
    match (
        fresh.find("swarm_tapped", "loopback"),
        fresh.find("swarm_capture_loss", "loopback"),
    ) {
        (Some(tapped), Some(dropped)) if tapped.records > 0 => {
            let permille = dropped.records as f64 * 1000.0 / tapped.records as f64;
            if permille > MAX_SWARM_LOSS_PERMILLE {
                failures.push(format!(
                    "swarm capture-loss gate: {} of {} tapped frames dropped \
                     ({permille:.1}‰ > budget {MAX_SWARM_LOSS_PERMILLE}‰)",
                    dropped.records, tapped.records
                ));
            }
        }
        _ => failures.push(
            "swarm capture-loss gate: swarm_tapped/swarm_capture_loss rows missing \
             or tap saw no frames"
                .to_owned(),
        ),
    }
    failures
}

/// The benchmark trajectory gate: every [`GATED_BENCHES`] result in
/// `baseline` must be matched in `fresh` within
/// [`MAX_BENCH_REGRESSION`], each bench gated individually. Returns
/// human-readable failures.
pub fn trajectory_gate(fresh: &BenchReport, baseline: &BenchReport) -> Vec<String> {
    let mut failures = Vec::new();
    for b in baseline
        .results
        .iter()
        .filter(|r| GATED_BENCHES.contains(&r.name.as_str()))
    {
        match fresh.find(&b.name, &b.preset) {
            None => failures.push(format!(
                "baseline bench {}/{} missing from this run",
                b.name, b.preset
            )),
            Some(f) => {
                let floor = b.records_per_sec * (1.0 - MAX_BENCH_REGRESSION);
                if f.records_per_sec < floor {
                    failures.push(format!(
                        "{}/{} regressed: {:.0} records/s < {:.0} \
                         (baseline {:.0} − {:.0}%)",
                        b.name,
                        b.preset,
                        f.records_per_sec,
                        floor,
                        b.records_per_sec,
                        MAX_BENCH_REGRESSION * 100.0
                    ));
                }
            }
        }
    }
    failures
}

/// The gate's self-demonstration, run by `repro bench --smoke` after a
/// green gate: clone the committed baseline, slow `decode_only` down by
/// 25 %, and confirm [`trajectory_gate`] rejects it. Proves the
/// per-stage floor is live — a stage regression bigger than the budget
/// cannot ride in under a healthy end-to-end number. Returns the line
/// to print, or what went wrong with the demonstration itself.
pub fn demo_gate_rejects_stage_slowdown(baseline: &BenchReport) -> Result<String, String> {
    const SLOWDOWN: f64 = 0.25;
    let mut synthetic = baseline.clone();
    let mut scaled = false;
    for r in &mut synthetic.results {
        if r.name == "decode_only" {
            r.records_per_sec *= 1.0 - SLOWDOWN;
            r.wall_secs /= 1.0 - SLOWDOWN;
            scaled = true;
        }
    }
    if !scaled {
        return Err("gate demo: baseline has no decode_only row to slow down".to_owned());
    }
    let failures = trajectory_gate(&synthetic, baseline);
    if failures.iter().any(|f| f.contains("decode_only")) {
        Ok(format!(
            "gate self-test: synthetic {:.0}% decode_only slowdown rejected \
             ({} violation(s))",
            SLOWDOWN * 100.0,
            failures.len()
        ))
    } else {
        Err(format!(
            "gate demo: synthetic {:.0}% decode_only slowdown NOT rejected — \
             per-stage floor is dead",
            SLOWDOWN * 100.0
        ))
    }
}

/// Self-demonstration for the PR 10 decode-ratio floor: clone the fresh
/// report, starve its `end_to_end` row down to twice the permitted
/// decode ratio, and confirm [`self_checks`] rejects it. Proves a
/// front-end relapse cannot ride in under green per-stage rows.
pub fn demo_ratio_gate_rejects_front_end_rot(fresh: &BenchReport) -> Result<String, String> {
    let decode_rps = match fresh.find("decode_only", "mix") {
        Some(d) => d.records_per_sec,
        None => return Err("ratio demo: fresh run has no decode_only row".to_owned()),
    };
    let starved_rps = decode_rps / (MAX_E2E_DECODE_RATIO * 2.0);
    let mut synthetic = fresh.clone();
    let mut scaled = false;
    for r in &mut synthetic.results {
        if r.name == "end_to_end" && r.preset == "tiny" {
            r.wall_secs *= r.records_per_sec / starved_rps;
            r.records_per_sec = starved_rps;
            scaled = true;
        }
    }
    if !scaled {
        return Err("ratio demo: fresh run has no end_to_end/tiny row".to_owned());
    }
    let failures = self_checks(&synthetic);
    if failures.iter().any(|f| f.contains("decode-ratio gate")) {
        Ok(format!(
            "ratio self-test: synthetic {:.0}x decode/end-to-end gap rejected",
            MAX_E2E_DECODE_RATIO * 2.0
        ))
    } else {
        Err("ratio demo: synthetic front-end starvation NOT rejected — \
             decode-ratio floor is dead"
            .to_owned())
    }
}

/// Self-demonstration for the PR 10 swarm floors, against the committed
/// baseline and the fresh run: a synthetic 25% `swarm_served` slowdown
/// must trip [`trajectory_gate`], and a synthetic tap loss at twice the
/// permille budget must trip [`self_checks`].
pub fn demo_swarm_gates_reject(
    fresh: &BenchReport,
    baseline: &BenchReport,
) -> Result<String, String> {
    const SLOWDOWN: f64 = 0.25;
    if baseline.find("swarm_served", "loopback").is_none() {
        return Err("swarm demo: baseline has no swarm_served row".to_owned());
    }
    let mut slow = baseline.clone();
    for r in &mut slow.results {
        if r.name == "swarm_served" {
            r.records_per_sec *= 1.0 - SLOWDOWN;
            r.wall_secs /= 1.0 - SLOWDOWN;
        }
    }
    if !trajectory_gate(&slow, baseline)
        .iter()
        .any(|f| f.contains("swarm_served"))
    {
        return Err(format!(
            "swarm demo: synthetic {:.0}% swarm_served slowdown NOT rejected — \
             swarm floor is dead",
            SLOWDOWN * 100.0
        ));
    }
    let tapped = match fresh.find("swarm_tapped", "loopback") {
        Some(t) if t.records > 0 => t.records,
        _ => return Err("swarm demo: fresh run has no usable swarm_tapped row".to_owned()),
    };
    let mut lossy = fresh.clone();
    let mut scaled = false;
    for r in &mut lossy.results {
        if r.name == "swarm_capture_loss" {
            r.records = (tapped as f64 * MAX_SWARM_LOSS_PERMILLE * 2.0 / 1000.0).ceil() as u64;
            scaled = true;
        }
    }
    if !scaled {
        return Err("swarm demo: fresh run has no swarm_capture_loss row".to_owned());
    }
    if !self_checks(&lossy)
        .iter()
        .any(|f| f.contains("swarm capture-loss gate"))
    {
        return Err("swarm demo: synthetic 2x-budget tap loss NOT rejected — \
             loss budget is dead"
            .to_owned());
    }
    Ok(format!(
        "swarm self-test: synthetic {:.0}% served slowdown and 2x-budget tap loss \
         both rejected",
        SLOWDOWN * 100.0
    ))
}

/// A realistic message mix (mostly source searches, some metadata
/// searches, announcements, management — per the paper's four message
/// families), encoded to wire bytes for the decode bench.
pub(crate) fn message_mix(n: usize, seed: u64) -> Vec<Vec<u8>> {
    mix_messages(n, seed).iter().map(Message::encode).collect()
}

/// The anonymise-only corpus: the four message families in a fixed
/// rotation with fixed-arity bodies, repeating clientIDs and fileIDs
/// (the server sees every popular file and chatty client over and
/// over). Deterministic and period-4, so with [`TAIL_BATCH`] a multiple
/// of the period every record slot keeps its message shape across
/// batches.
fn anon_mix(n: usize) -> Vec<(u64, ClientId, Message)> {
    (0..n as u64)
        .map(|i| {
            let msg = match i % 4 {
                0 => Message::GetSources {
                    file_ids: vec![FileId::of_identity(i % 1_500)],
                },
                1 => Message::SearchRequest {
                    expr: SearchExpr::and(
                        SearchExpr::keyword("blue"),
                        SearchExpr::keyword("album"),
                    ),
                },
                2 => Message::FoundSources {
                    file_id: FileId::of_identity(i % 1_500),
                    sources: (0..3)
                        .map(|k| Source {
                            client_id: ClientId(((i * 7 + k) % 20_000) as u32),
                            port: 4662,
                        })
                        .collect(),
                },
                _ => Message::OfferFiles {
                    files: vec![FileEntry {
                        file_id: FileId::of_identity(i % 1_500),
                        client_id: ClientId((i % 20_000) as u32),
                        port: 4662,
                        tags: TagList(vec![
                            Tag::str(special::FILENAME, "some file name here.mp3"),
                            Tag::u32(special::FILESIZE, 4_000_000),
                        ]),
                    }],
                },
            };
            (i * 250, ClientId(((i * 13) % 20_000) as u32), msg)
        })
        .collect()
}

/// The same mix, decoded — the decode bench's corpus pre-encoding.
fn mix_messages(n: usize, seed: u64) -> Vec<Message> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| match rng.gen_range(0..10) {
            0..=4 => Message::GetSources {
                file_ids: vec![FileId::of_identity(i as u64 % 5000)],
            },
            5 => Message::SearchRequest {
                expr: SearchExpr::and(SearchExpr::keyword("blue"), SearchExpr::keyword("album")),
            },
            6 => Message::FoundSources {
                file_id: FileId::of_identity(i as u64 % 5000),
                sources: (0..rng.gen_range(1..20))
                    .map(|k| Source {
                        client_id: ClientId(0x0100_0000 + k),
                        port: 4662,
                    })
                    .collect(),
            },
            7..=8 => Message::OfferFiles {
                files: (0..rng.gen_range(1..12))
                    .map(|k| FileEntry {
                        file_id: FileId::of_identity((i * 31 + k) as u64 % 9000),
                        client_id: ClientId(i as u32 % 0xffff),
                        port: 4662,
                        tags: TagList(vec![
                            Tag::str(special::FILENAME, "some file name here.mp3"),
                            Tag::u32(special::FILESIZE, 4_000_000),
                        ]),
                    })
                    .collect(),
            },
            _ => Message::StatusRequest {
                challenge: rng.gen(),
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(name: &str, preset: &str, rps: f64, allocs: Option<f64>) -> BenchResult {
        BenchResult {
            name: name.into(),
            preset: preset.into(),
            records: 1000,
            wall_secs: 1000.0 / rps,
            records_per_sec: rps,
            allocs_per_record: allocs,
        }
    }

    #[test]
    fn trajectory_gate_flags_regression_only() {
        let baseline = BenchReport {
            results: vec![
                result("end_to_end", "tiny", 10_000.0, None),
                result("end_to_end_traced", "tiny", 9_000.0, None),
            ],
        };
        // 15% slower: within the 20% budget.
        let ok = BenchReport {
            results: vec![result("end_to_end", "tiny", 8_500.0, None)],
        };
        assert!(trajectory_gate(&ok, &baseline).is_empty());
        // 30% slower: out of budget.
        let slow = BenchReport {
            results: vec![result("end_to_end", "tiny", 7_000.0, None)],
        };
        assert_eq!(trajectory_gate(&slow, &baseline).len(), 1);
        // Missing bench is a failure too.
        let missing = BenchReport::default();
        assert_eq!(trajectory_gate(&missing, &baseline).len(), 1);
        // Ungated baselines (the traced overhead row) are informational:
        // a fresh run without them, or slower on them, never fails.
        let traced_ignored = BenchReport {
            results: vec![result("end_to_end", "tiny", 10_000.0, None)],
        };
        assert!(trajectory_gate(&traced_ignored, &baseline).is_empty());
    }

    #[test]
    fn trajectory_gate_floors_each_stage_bench() {
        let baseline = BenchReport {
            results: vec![
                result("end_to_end", "tiny", 10_000.0, None),
                result("decode_only", "mix", 2_000_000.0, None),
                result("tail_batched", "tiny", 900_000.0, Some(0.0)),
                result("anonymize_shard4", "mix", 800_000.0, None),
            ],
        };
        // All four within budget: green.
        let ok = BenchReport {
            results: vec![
                result("end_to_end", "tiny", 9_000.0, None),
                result("decode_only", "mix", 1_700_000.0, None),
                result("tail_batched", "tiny", 780_000.0, Some(0.0)),
                result("anonymize_shard4", "mix", 700_000.0, None),
            ],
        };
        assert!(trajectory_gate(&ok, &baseline).is_empty());
        // One stage 25% down while end-to-end holds: exactly that stage
        // trips, named in the failure.
        for (i, name) in ["decode_only", "tail_batched", "anonymize_shard4"]
            .iter()
            .enumerate()
        {
            let mut fresh = ok.clone();
            fresh.results[i + 1].records_per_sec *= 0.75 / 0.85;
            let failures = trajectory_gate(&fresh, &baseline);
            assert_eq!(failures.len(), 1, "{name}: {failures:?}");
            assert!(failures[0].contains(name), "{failures:?}");
        }
        // A missing stage bench is a failure, not a silent skip.
        let mut partial = ok.clone();
        partial.results.remove(1);
        let failures = trajectory_gate(&partial, &baseline);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("decode_only"));
    }

    #[test]
    fn gate_demo_rejects_synthetic_decode_slowdown() {
        let baseline = BenchReport {
            results: vec![
                result("end_to_end", "tiny", 10_000.0, None),
                result("decode_only", "mix", 2_000_000.0, None),
            ],
        };
        let line = demo_gate_rejects_stage_slowdown(&baseline).expect("demo rejects");
        assert!(line.contains("25% decode_only slowdown rejected"));
        // Without a decode_only row the demo reports itself broken.
        let no_decode = BenchReport {
            results: vec![result("end_to_end", "tiny", 10_000.0, None)],
        };
        assert!(demo_gate_rejects_stage_slowdown(&no_decode).is_err());
    }

    /// A result row with an explicit record count, for the swarm loss
    /// check (which reads counts, not rates).
    fn count_result(name: &str, preset: &str, records: u64) -> BenchResult {
        BenchResult {
            name: name.into(),
            preset: preset.into(),
            records,
            wall_secs: 1.0,
            records_per_sec: records as f64,
            allocs_per_record: None,
        }
    }

    /// A report every [`self_checks`] invariant passes on, so each case
    /// below isolates exactly one failure by mutating a clone.
    fn green_report() -> BenchReport {
        BenchReport {
            results: vec![
                result("tail_serial", "tiny", 10_000.0, Some(1.5)),
                result("tail_batched", "tiny", 25_000.0, Some(0.0)),
                result("anonymize_serial", "mix", 10_000.0, None),
                result("anonymize_shard4", "mix", 20_000.0, None),
                // Ratio 10x: inside the 20x decode-ratio budget.
                result("decode_only", "mix", 1_000_000.0, None),
                result("end_to_end", "tiny", 100_000.0, None),
                // 10 per mille measured loss: inside the 50 budget.
                count_result("swarm_tapped", "loopback", 10_000),
                count_result("swarm_capture_loss", "loopback", 100),
            ],
        }
    }

    fn set_rps(report: &mut BenchReport, name: &str, rps: f64) {
        let r = report
            .results
            .iter_mut()
            .find(|r| r.name == name)
            .expect("row present");
        r.records_per_sec = rps;
    }

    #[test]
    fn self_checks_enforce_speedup_and_allocs() {
        let good = green_report();
        assert!(self_checks(&good).is_empty());

        // Batched tail under the 2x floor: exactly one failure.
        let mut slow = green_report();
        set_rps(&mut slow, "tail_batched", 15_000.0);
        assert_eq!(self_checks(&slow).len(), 1);

        // Batched tail allocating in steady state: exactly one failure.
        let mut leaky = green_report();
        leaky
            .results
            .iter_mut()
            .find(|r| r.name == "tail_batched")
            .unwrap()
            .allocs_per_record = Some(0.5);
        assert_eq!(self_checks(&leaky).len(), 1);

        // Sharded anonymiser under the 1.5x floor: exactly one failure.
        let mut shard_slow = green_report();
        set_rps(&mut shard_slow, "anonymize_shard4", 12_000.0);
        let failures = self_checks(&shard_slow);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("anonymise-only shard speedup"));

        // Nothing measured: all four check families reported missing.
        assert_eq!(self_checks(&BenchReport::default()).len(), 4);
    }

    #[test]
    fn decode_ratio_floor_catches_front_end_starvation() {
        // end_to_end at 1/25th of decode_only: over the 20x budget.
        let mut starved = green_report();
        set_rps(&mut starved, "end_to_end", 40_000.0);
        let failures = self_checks(&starved);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("decode-ratio gate"), "{failures:?}");

        // Exactly at the budget: passes (the floor is `>`, not `>=`).
        let mut at_budget = green_report();
        set_rps(
            &mut at_budget,
            "end_to_end",
            1_000_000.0 / MAX_E2E_DECODE_RATIO,
        );
        assert!(self_checks(&at_budget).is_empty());

        // Host twice as slow overall: both rows scale, ratio unchanged,
        // no failure — the floor is relative, not absolute.
        let mut slow_host = green_report();
        set_rps(&mut slow_host, "decode_only", 500_000.0);
        set_rps(&mut slow_host, "end_to_end", 50_000.0);
        assert!(self_checks(&slow_host).is_empty());
    }

    #[test]
    fn swarm_loss_budget_enforced() {
        // 80 per mille: over the 50 budget, named failure.
        let mut lossy = green_report();
        lossy
            .results
            .iter_mut()
            .find(|r| r.name == "swarm_capture_loss")
            .unwrap()
            .records = 800;
        let failures = self_checks(&lossy);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(
            failures[0].contains("swarm capture-loss gate"),
            "{failures:?}"
        );

        // A tap that saw no frames cannot certify the budget: failure,
        // not a silent pass.
        let mut blind = green_report();
        blind
            .results
            .iter_mut()
            .find(|r| r.name == "swarm_tapped")
            .unwrap()
            .records = 0;
        assert_eq!(self_checks(&blind).len(), 1);
    }

    #[test]
    fn swarm_served_is_trajectory_gated() {
        let baseline = BenchReport {
            results: vec![count_result("swarm_served", "loopback", 60_000)],
        };
        // 25% slower than baseline: out of the 20% budget.
        let mut slow = baseline.clone();
        set_rps(&mut slow, "swarm_served", 45_000.0);
        let failures = trajectory_gate(&slow, &baseline);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("swarm_served"));
        // 15% slower: inside the budget.
        let mut ok = baseline.clone();
        set_rps(&mut ok, "swarm_served", 51_000.0);
        assert!(trajectory_gate(&ok, &baseline).is_empty());
    }

    #[test]
    fn ratio_demo_rejects_synthetic_starvation() {
        let fresh = green_report();
        let line = demo_ratio_gate_rejects_front_end_rot(&fresh).expect("demo rejects");
        assert!(line.contains("rejected"), "{line}");
        // Without a decode_only row the demo reports itself broken.
        let mut no_decode = green_report();
        no_decode.results.retain(|r| r.name != "decode_only");
        assert!(demo_ratio_gate_rejects_front_end_rot(&no_decode).is_err());
    }

    #[test]
    fn swarm_demo_rejects_synthetic_violations() {
        let mut baseline = green_report();
        baseline
            .results
            .push(count_result("swarm_served", "loopback", 60_000));
        let fresh = green_report();
        let line = demo_swarm_gates_reject(&fresh, &baseline).expect("demo rejects");
        assert!(line.contains("rejected"), "{line}");
        // Baseline without a swarm_served row: the demo reports itself
        // broken instead of vacuously passing.
        assert!(demo_swarm_gates_reject(&fresh, &green_report()).is_err());
    }

    #[test]
    fn tail_bench_measures_real_corpus() {
        // A miniature corpus through both tails: counts must agree and
        // throughputs be finite. (The 2x floor is checked in `repro
        // bench` where timing is meaningful, not under the test runner.)
        let mut corpus = Vec::new();
        let mut config = CampaignConfig::tiny();
        config.generator.duration_secs = 120;
        run_campaign(&config, |r| corpus.push(r));
        let results = bench_tail(&corpus, 1);
        assert_eq!(results.len(), 2);
        for r in &results {
            assert_eq!(r.records, corpus.len() as u64);
            assert!(r.records_per_sec.is_finite() && r.records_per_sec > 0.0);
        }
    }

    #[test]
    fn anonymize_bench_rows_agree() {
        // Both anonymiser rows over a small mix: same record counts,
        // finite throughputs. (The 1.5x floor is checked in `repro
        // bench` where timing is meaningful, not under the test runner.)
        let results = bench_anonymize(2_000, 1);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].name, "anonymize_serial");
        assert_eq!(results[1].name, format!("anonymize_shard{ANON_SHARDS}"));
        for r in &results {
            assert_eq!(r.records, 2_000);
            assert!(r.records_per_sec.is_finite() && r.records_per_sec > 0.0);
        }
    }
}
