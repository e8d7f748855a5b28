//! Regenerates every table and figure of "Ten weeks in the life of an
//! eDonkey server" from the simulated measurement stack.
//!
//! ```text
//! repro [--tiny] [--out DIR] <t1|fig2|fig3|fig4|fig5|fig6|fig7|fig8|all>
//! ```
//!
//! * `t1`   — the dataset summary numbers (§2.2–2.5)
//! * `fig2` — packet losses per second + cumulative, over ten virtual
//!   weeks (full-duration fluid simulation of the capture ring)
//! * `fig3` — fileID anonymisation-array sizes after one virtual week,
//!   first-two-bytes vs alternative byte selector
//! * `fig4`–`fig7` — the provider/seeker degree distributions
//! * `fig8` — the file-size histogram
//! * `health` — capture-machine telemetry: periodic health snapshots
//!   (`health_*.dat`) and a final Prometheus dump (`health_*.prom`)
//! * `soak [--faults]` — the crash-resilience gate: a lossy active
//!   probe, a fault-injected campaign killed at a random virtual time
//!   and resumed from its checkpoint, and the fault-ledger assertions;
//!   exits nonzero if the rebuilt dataset is not byte-identical or any
//!   ledger fails
//! * `bench [--smoke|--record] [--baseline FILE] [--bench-out FILE]` —
//!   the throughput suite (decode-only, tail-only serial vs batched,
//!   anonymise-only serial vs sharded, end-to-end) plus steady-state
//!   allocations/record in the formatter; `--record` writes the
//!   committable `BENCH_PR10.json` baseline (smoke mode instead gates
//!   against the newest committed `BENCH_PR<k>.json` and fails on a
//!   regression over 20% in end-to-end throughput or in any per-stage
//!   bench — decode-only, batched tail, sharded anonymise, swarm
//!   serving — plus the decode-ratio floor and the swarm tap's
//!   permille loss budget)
//! * `ablations [--smoke]` — the design comparisons the paper argues
//!   for (ablations A1–A6), the per-figure extraction costs and the
//!   codec and distinct-counting extensions, each row timed best-of-N
//!   (`--smoke`: one repeat) and printed with its row name; no gate
//! * `matrix` — the CI campaign matrix: clientID widths {2^24, 2^16} ×
//!   anonymiser shards {1, 4} × source shards {1, 4}; within each width
//!   every shard combination must produce the byte-identical dataset
//!   and the identical checkpoint cuts of the serial tail's reference
//!   run; exits nonzero on any divergence
//! * `swarm [--faults] [--sessions N] [--duration-ms MS]` — the
//!   real-socket soak gate: the UDP serving loop under a loopback
//!   client swarm (with sentinel sessions and hostile noise), exact
//!   ledger conservation across real sockets, and the live-captured
//!   traffic run through the unchanged pipeline and scanned by the
//!   anonymisation canary; exits nonzero on any violation
//! * `all`  — everything, sharing one campaign run
//!
//! Each figure writes a gnuplot-ready `.dat` series under `--out`
//! (default `results/`) and prints a caption with the quantities the
//! paper calls out.

use edonkey_ten_weeks::analysis::report::{describe_fit, grouped, series_f64, series_u64};
use edonkey_ten_weeks::analysis::{
    find_peaks, fit_histogram, DatasetStats, IntHistogram, SparseSeries,
};
use edonkey_ten_weeks::bench::harness::BenchReport;
use edonkey_ten_weeks::bench::{ablations, suite};
use edonkey_ten_weeks::core::{
    render_health_dat, render_t1, Campaign, CampaignConfig, CampaignReport, Checkpoint,
};
use edonkey_ten_weeks::netsim::capture::{CaptureBuffer, LossRecorder};
use edonkey_ten_weeks::netsim::clock::VirtualTime;
use edonkey_ten_weeks::netsim::traffic::RateModel;
use edonkey_ten_weeks::telemetry::Registry;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Route every allocation through the counting wrapper so `repro bench`
/// can measure allocations/record in the tail. Two relaxed atomic adds
/// per allocation — noise for every other subcommand.
#[global_allocator]
static ALLOC: edonkey_ten_weeks::bench::alloc::CountingAllocator =
    edonkey_ten_weeks::bench::alloc::CountingAllocator;

struct Args {
    tiny: bool,
    out: PathBuf,
    what: String,
    /// Virtual campaign length in weeks (default 1; the paper ran 10).
    weeks: u64,
    /// `soak`: enable the full fault-injection spec.
    faults: bool,
    /// `soak`: seed for the kill-point choice (None = OS entropy).
    soak_seed: Option<u64>,
    /// `bench`: CI mode — short runs, gate against the baseline;
    /// `ablations`: one repeat per row.
    smoke: bool,
    /// `bench`: write the committable `BENCH_PR10.json` baseline.
    record: bool,
    /// `bench`: baseline report to gate against (default: the newest
    /// committed `BENCH_PR<k>.json`).
    baseline: Option<PathBuf>,
    /// `bench`: where to write the fresh report.
    bench_out: Option<PathBuf>,
    /// `swarm`: concurrent client sessions.
    sessions: usize,
    /// `swarm`: load-phase duration in milliseconds.
    duration_ms: u64,
}

/// Where `repro bench --record` writes the baseline this PR commits.
const RECORD_PATH: &str = "BENCH_PR10.json";

/// Every experiment name `repro` accepts.
const EXPERIMENTS: [&str; 15] = [
    "t1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "health",
    "soak",
    "bench",
    "ablations",
    "matrix",
    "swarm",
    "all",
];

fn parse_args() -> Args {
    let mut tiny = false;
    let mut out = PathBuf::from("results");
    let mut what = String::from("all");
    let mut weeks = 1u64;
    let mut faults = false;
    let mut soak_seed = None;
    let mut smoke = false;
    let mut record = false;
    let mut baseline = None;
    let mut bench_out = None;
    let mut sessions = 1200usize;
    let mut duration_ms = 4000u64;
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--tiny" => tiny = true,
            "--faults" => faults = true,
            "--smoke" => smoke = true,
            "--record" => record = true,
            "--baseline" => {
                baseline = Some(PathBuf::from(argv.next().unwrap_or_else(|| {
                    eprintln!("--baseline needs a file");
                    std::process::exit(2);
                })))
            }
            "--bench-out" => {
                bench_out = Some(PathBuf::from(argv.next().unwrap_or_else(|| {
                    eprintln!("--bench-out needs a file");
                    std::process::exit(2);
                })))
            }
            "--soak-seed" => {
                soak_seed = Some(argv.next().and_then(|w| w.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--soak-seed needs an integer");
                    std::process::exit(2);
                }))
            }
            "--sessions" => {
                sessions = argv.next().and_then(|w| w.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--sessions needs a positive integer");
                    std::process::exit(2);
                })
            }
            "--duration-ms" => {
                duration_ms = argv.next().and_then(|w| w.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--duration-ms needs a positive integer");
                    std::process::exit(2);
                })
            }
            "--weeks" => {
                weeks = argv.next().and_then(|w| w.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--weeks needs a positive integer");
                    std::process::exit(2);
                })
            }
            "--out" => {
                out = PathBuf::from(argv.next().unwrap_or_else(|| {
                    eprintln!("--out needs a directory");
                    std::process::exit(2);
                }))
            }
            "-h" | "--help" => {
                println!(
                    "usage: repro [--tiny] [--weeks N] [--out DIR] \
                     <t1|fig2|fig3|fig4..fig8|health|soak [--faults]|\
                     bench [--smoke|--record] [--baseline FILE] [--bench-out FILE]|\
                     ablations [--smoke]|matrix|swarm [--faults] [--sessions N] [--duration-ms MS]|all>"
                );
                std::process::exit(0);
            }
            w => what = w.to_owned(),
        }
    }
    Args {
        tiny,
        out,
        what,
        weeks,
        faults,
        soak_seed,
        smoke,
        record,
        baseline,
        bench_out,
        sessions,
        duration_ms,
    }
}

fn main() {
    let args = parse_args();
    // Reject a bad name before anything runs or touches the disk.
    if !EXPERIMENTS.contains(&args.what.as_str()) {
        eprintln!("unknown experiment {:?}; try --help", args.what);
        std::process::exit(2);
    }
    fs::create_dir_all(&args.out).expect("create output dir");
    if args.what == "soak" {
        soak(&args.out, args.faults, args.soak_seed);
        return;
    }
    if args.what == "bench" {
        bench(&args);
        return;
    }
    if args.what == "ablations" {
        ablations::run_ablations(&suite::SuiteOptions { smoke: args.smoke });
        return;
    }
    if args.what == "matrix" {
        matrix();
        return;
    }
    if args.what == "swarm" {
        swarm(&args);
        return;
    }
    let needs_campaign = args.what != "fig2";
    let campaign = needs_campaign.then(|| run_campaign_once(args.tiny, args.weeks));

    match args.what.as_str() {
        "t1" => t1(campaign.as_ref().unwrap()),
        "fig2" => fig2(&args.out, args.tiny),
        "fig3" => fig3(campaign.as_ref().unwrap(), &args.out),
        "fig4" => fig_distribution(campaign.as_ref().unwrap(), &args.out, 4),
        "fig5" => fig_distribution(campaign.as_ref().unwrap(), &args.out, 5),
        "fig6" => fig_distribution(campaign.as_ref().unwrap(), &args.out, 6),
        "fig7" => fig_distribution(campaign.as_ref().unwrap(), &args.out, 7),
        "fig8" => fig8(campaign.as_ref().unwrap(), &args.out),
        "health" => health(campaign.as_ref().unwrap(), &args.out, args.tiny),
        "all" => {
            let c = campaign.as_ref().unwrap();
            t1(c);
            fig2(&args.out, args.tiny);
            fig3(c, &args.out);
            for fig in 4..=7 {
                fig_distribution(c, &args.out, fig);
            }
            fig8(c, &args.out);
            health(c, &args.out, args.tiny);
        }
        other => unreachable!("EXPERIMENTS lists {other:?} but main has no arm for it"),
    }
}

struct CampaignRun {
    report: CampaignReport,
    stats: DatasetStats,
    /// Final telemetry state, for the Prometheus dump.
    final_snapshot: edonkey_ten_weeks::telemetry::Snapshot,
}

fn run_campaign_once(tiny: bool, weeks: u64) -> CampaignRun {
    let mut config = if tiny {
        CampaignConfig::tiny()
    } else {
        CampaignConfig::default()
    };
    if tiny {
        // tiny() spans 1800 virtual seconds; the default hourly health
        // interval would cut a single record.
        config.health_interval_secs = 300;
    } else {
        // The paper's campaign ran ten weeks; message volume scales
        // linearly with virtual duration (~6 min/week at default scale).
        config.generator.duration_secs = weeks.max(1) * 7 * 86_400;
    }
    eprintln!(
        "running campaign: {} clients, {} files, {} virtual seconds, seed {}",
        config.population.n_clients,
        config.catalog.n_files,
        config.generator.duration_secs,
        config.seed
    );
    // etwlint: allow(no-wall-clock): operator-facing elapsed-time print
    // in the binary, not simulation state.
    let started = Instant::now();
    let mut stats = DatasetStats::new();
    let registry = Registry::new();
    let report = Campaign::new(&config)
        .registry(&registry)
        .run(|record| stats.observe(&record), |_| {})
        .unwrap_or_else(|e| {
            eprintln!("invalid campaign configuration: {e}");
            std::process::exit(2);
        });
    eprintln!(
        "campaign done in {:.1}s: {} records",
        started.elapsed().as_secs_f64(),
        grouped(report.records)
    );
    CampaignRun {
        report,
        stats,
        final_snapshot: registry.snapshot(),
    }
}

fn write(out: &Path, name: &str, contents: &str) {
    let path = out.join(name);
    fs::write(&path, contents).expect("write series");
    println!("  wrote {}", path.display());
}

fn t1(c: &CampaignRun) {
    println!("== T1: dataset summary (paper §2.2–2.5) ==");
    print!("{}", render_t1(&c.report));
    println!();
}

/// Fig. 2 runs at the paper's FULL temporal scale: ten weeks of seconds,
/// fluid capture-ring model. (The message-level campaign is scaled down;
/// the loss process does not need messages, only rates.)
fn fig2(out: &Path, tiny: bool) {
    println!("== Fig. 2: ethernet packet losses per second, ten weeks ==");
    let weeks = if tiny { 1 } else { 10 };
    let horizon = weeks * 7 * 86_400u64;
    // Paper-like regime: ~5200 pps mean over the whole capture, rare
    // flash bursts; a 64k-packet kernel ring drained comfortably above
    // the diurnal peak, so that only the tail of the burst distribution
    // overflows it — which is what makes the loss ratio ~1e-5 while
    // Fig. 2 still shows visible loss events.
    let model = RateModel::new(5_200.0, 0.45, 0.10, horizon, 26 * weeks as usize, 0xF162);
    // The fluid ring reports into the same `ring.*` metrics the campaign
    // pipeline uses, so the Fig. 2 loss account and the telemetry loss
    // account are one and the same (ROADMAP open item).
    let registry = Registry::new();
    let mut ring = CaptureBuffer::new(65_536, 68_000.0);
    ring.attach_telemetry(&registry);
    let mut recorder = LossRecorder::new();
    let mut rng = StdRng::seed_from_u64(2);
    let mut offered = 0u64;
    for s in 0..horizon {
        let t = VirtualTime::from_secs(s);
        let n = model.sample_arrivals(t, &mut rng);
        offered += n;
        ring.offer_batch(t, n);
        recorder.tick(s, &ring);
        ring.sample_telemetry();
    }
    let series = SparseSeries::new(recorder.losses_per_sec.clone());
    let snap = registry.snapshot();
    assert_eq!(
        snap.counter("ring.lost_total"),
        recorder.total(),
        "telemetry and recorder loss accounts must agree"
    );
    assert_eq!(snap.counter("ring.offered_total"), offered);
    println!(
        "  offered {} packets, captured {}, lost {} (ratio {:.2e}; paper: 250 266 / 31 555 295 781 = 7.9e-6)",
        grouped(offered),
        grouped(ring.captured()),
        grouped(ring.lost()),
        ring.lost() as f64 / offered as f64
    );
    println!(
        "  loss events in {} distinct seconds out of {} (telemetry agrees: ring.lost_total = {})",
        series.points.len(),
        horizon,
        grouped(snap.counter("ring.lost_total"))
    );
    write(
        out,
        "fig2_losses_per_sec.dat",
        &series_f64(&series.in_weeks()),
    );
    let cum: Vec<(f64, u64)> = series
        .cumulative()
        .into_iter()
        .map(|(s, v)| (s as f64 / (7.0 * 86_400.0), v))
        .collect();
    write(out, "fig2_cumulative.dat", &series_f64(&cum));
    write(out, "fig2_ring.prom", &snap.render_prometheus());
}

fn fig3(c: &CampaignRun, out: &Path) {
    println!("== Fig. 3: fileID anonymisation array sizes (bucket size distribution) ==");
    let first = c
        .report
        .bucket_sizes_first_two
        .as_ref()
        .expect("campaigns always derive the FIRST_TWO sizes");
    let alt = &c.report.bucket_sizes_alternative;
    let hist = |sizes: &[usize]| -> IntHistogram { sizes.iter().map(|&s| s as u64).collect() };
    let h_first = hist(first);
    let h_alt = hist(alt);
    let max_first = first.iter().copied().max().unwrap_or(0);
    let max_alt = alt.iter().copied().max().unwrap_or(0);
    println!(
        "  first-two-bytes: max bucket {} (bucket 0: {}, bucket 256: {}) — paper: 24 024 in bucket 0",
        max_first, first[0], first[256]
    );
    println!("  alternative bytes: max bucket {} — paper: 819", max_alt);
    println!(
        "  imbalance ratio first/alt = {:.1} (paper: 24 024 / 819 = 29.3)",
        max_first as f64 / max_alt.max(1) as f64
    );
    // The figure plots bucket size (x) vs number of buckets (y).
    write(out, "fig3_first_two_bytes.dat", &distribution(&h_first));
    write(out, "fig3_alternative_bytes.dat", &distribution(&h_alt));
}

fn distribution(h: &IntHistogram) -> String {
    series_u64(&h.sorted_points())
}

fn fig_distribution(c: &CampaignRun, out: &Path, fig: u8) {
    let (h, title, file, paper_note) = match fig {
        4 => (
            c.stats.providers_per_file(),
            "Fig. 4: #clients providing each file",
            "fig4_providers_per_file.dat",
            "paper: power-law-ish decay; >3.5M files with a single provider",
        ),
        5 => (
            c.stats.seekers_per_file(),
            "Fig. 5: #clients asking for each file",
            "fig5_seekers_per_file.dat",
            "paper: power-law-ish decay, most-wanted file asked by ~150k clients",
        ),
        6 => (
            c.stats.files_per_provider(),
            "Fig. 6: #files provided by each client",
            "fig6_files_per_provider.dat",
            "paper: NOT a power law; bump at a few thousand files (client limits)",
        ),
        7 => (
            c.stats.files_per_seeker(),
            "Fig. 7: #files asked by each client",
            "fig7_files_per_seeker.dat",
            "paper: multi-regime; sharp peak at exactly 52 queries",
        ),
        _ => unreachable!(),
    };
    println!("== {title} ==");
    println!("  ({paper_note})");
    println!(
        "  population: {} (max x = {})",
        grouped(h.total()),
        h.max_value().unwrap_or(0)
    );
    println!("  {}", describe_fit(&fit_histogram(&h)));
    if fig == 7 {
        let peaks = find_peaks(&h, 5, 5.0, 10);
        match peaks.iter().find(|p| p.value == 52) {
            Some(p) => println!(
                "  peak at 52 detected: {} clients, prominence {:.0}x",
                grouped(p.count),
                p.prominence
            ),
            None => println!("  WARNING: no 52-peak detected"),
        }
    }
    if fig == 6 {
        let at_limits: u64 = [1000u64, 2000].iter().map(|&x| h.count(x)).sum();
        println!("  clients at share-limit plateau values (1000/2000): {at_limits}");
    }
    write(out, file, &distribution(&h));
}

/// Machine health over the campaign: the capture machine's own vital
/// signs, the reproduction's answer to the paper's "the server handled
/// the load" aside. Writes the snapshot series as a gnuplot table and
/// the final registry state in Prometheus text exposition.
fn health(c: &CampaignRun, out: &Path, tiny: bool) {
    println!("== machine health: capture-pipeline telemetry ==");
    let h = &c.report.health;
    if h.is_empty() {
        println!("  no health records (health_interval_secs = 0?)");
        return;
    }
    let last = h.records.last().unwrap();
    println!(
        "  {} snapshots over {} virtual s ({:.1}s wall, cumulative RTF {:.0}x)",
        h.records.len(),
        last.virtual_secs(),
        last.wall_secs,
        last.rtf_cumulative
    );
    let snap = &c.final_snapshot;
    println!(
        "  ring: offered {} / lost {}; decode_in stalls {}; reorder depth hwm {}",
        grouped(snap.counter("ring.offered_total")),
        grouped(snap.counter("ring.lost_total")),
        snap.counter("chan.decode_in.stalls_total"),
        snap.gauge("stage.reorder.depth_hwm"),
    );
    if let Some(service) = snap.histogram("stage.decode.service_ns") {
        println!(
            "  decode service time: mean {:.0} ns, p50 ≤ {} ns, p99 ≤ {} ns",
            service.mean(),
            service.quantile(0.50),
            service.quantile(0.99),
        );
    }
    let scale = if tiny { "tiny" } else { "campaign" };
    write(out, &format!("health_{scale}.dat"), &render_health_dat(h));
    write(
        out,
        &format!("health_{scale}.prom"),
        &snap.render_prometheus(),
    );
}

fn fig8(c: &CampaignRun, out: &Path) {
    println!("== Fig. 8: file size distribution ==");
    let h = c.stats.size_histogram_kb();
    println!("  {} distinct files with a known size", grouped(h.total()));
    // The paper's annotated peaks, in KB.
    let expected = [
        ("175 MB", 175 * 1024u64),
        ("233 MB", 233 * 1024),
        ("350 MB", 350 * 1024),
        ("700 MB", 700 * 1024),
        ("1 GB", 1024 * 1024),
        ("1.4 GB", 1400 * 1024),
    ];
    for (label, kb) in expected {
        println!("  files at exactly {label}: {}", grouped(h.count(kb)));
    }
    let peaks = find_peaks(&h, 8, 20.0, 20);
    let peak_kbs: Vec<u64> = peaks.iter().map(|p| p.value).take(10).collect();
    println!("  top detected peaks (KB): {peak_kbs:?}");
    write(out, "fig8_file_sizes_kb.dat", &distribution(&h));
}

/// Accumulates soak-gate verdicts so one run reports every violation
/// rather than stopping at the first.
struct Gate {
    failures: Vec<String>,
}

impl Gate {
    fn check(&mut self, ok: bool, what: &str) {
        if ok {
            println!("  ok: {what}");
        } else {
            println!("  FAIL: {what}");
            self.failures.push(what.to_owned());
        }
    }
}

/// The newest committed baseline: the `BENCH_PR<k>.json` in the working
/// directory with the highest `k`. Discovering it by number (instead of
/// hardcoding the previous PR's file) means each PR that records a new
/// baseline automatically becomes the gate for the next one.
fn newest_baseline() -> Option<PathBuf> {
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in fs::read_dir(".").ok()?.flatten() {
        let name = entry.file_name();
        let k = name
            .to_string_lossy()
            .strip_prefix("BENCH_PR")
            .and_then(|r| r.strip_suffix(".json"))
            .and_then(|k| k.parse::<u64>().ok());
        if let Some(k) = k {
            if best.as_ref().is_none_or(|(b, _)| k > *b) {
                best = Some((k, entry.path()));
            }
        }
    }
    best.map(|(_, p)| p)
}

/// The benchmark trajectory gate (`repro bench`), run by ci.sh in smoke
/// mode:
///
/// 1. the suite — decode-only, tail-only (serial `write_record` vs
///    batched zero-alloc encoder), anonymise-only (serial scheme vs the
///    clientID/fileID shard pool) and end-to-end throughput, plus
///    steady-state allocations/record in the formatter (measured via the
///    counting global allocator this binary installs);
/// 2. the self-checks — batched tail and sharded anonymiser over their
///    speedup floors versus the serial paths, zero steady-state
///    allocations/record, end-to-end within the decode-ratio budget of
///    decode-only, and the swarm tap's measured loss under its permille
///    budget;
/// 3. `--smoke` only: the trajectory gate — end-to-end, per-stage and
///    swarm-served records/sec must stay within 20% of the newest
///    committed `BENCH_PR<k>.json` — plus the synthetic-violation
///    self-tests proving each floor still rejects.
///
/// `--record` rewrites `BENCH_PR10.json`; commit it to move the
/// baseline. Exits nonzero on any failure.
fn bench(args: &Args) {
    println!(
        "== bench: capture-machine throughput{} ==",
        if args.smoke { " (smoke)" } else { "" }
    );
    let report = suite::run_suite(&suite::SuiteOptions { smoke: args.smoke });

    if let (Some(serial), Some(batched)) = (
        report.find("tail_serial", "tiny"),
        report.find("tail_batched", "tiny"),
    ) {
        println!(
            "  tail speedup: {:.2}x (serial {:.0} -> batched {:.0} records/s)",
            batched.records_per_sec / serial.records_per_sec,
            serial.records_per_sec,
            batched.records_per_sec
        );
    }
    if let (Some(serial), Some(sharded)) = (
        report.find("anonymize_serial", "mix"),
        report.find("anonymize_shard4", "mix"),
    ) {
        println!(
            "  anonymise speedup: {:.2}x (serial {:.0} -> 4 shards {:.0} records/s)",
            sharded.records_per_sec / serial.records_per_sec,
            serial.records_per_sec,
            sharded.records_per_sec
        );
    }
    if let (Some(plain), Some(traced)) = (
        report.find("end_to_end", "tiny"),
        report.find("end_to_end_traced", "tiny"),
    ) {
        println!(
            "  tracing overhead: {:+.1}% (untraced {:.0} -> traced {:.0} records/s)",
            (plain.records_per_sec / traced.records_per_sec - 1.0) * 100.0,
            plain.records_per_sec,
            traced.records_per_sec
        );
    }
    if let (Some(decode), Some(e2e)) = (
        report.find("decode_only", "mix"),
        report.find("end_to_end", "tiny"),
    ) {
        println!(
            "  decode ratio: {:.1}x (decode {:.0} vs end-to-end {:.0} records/s, budget {:.0}x)",
            decode.records_per_sec / e2e.records_per_sec,
            decode.records_per_sec,
            e2e.records_per_sec,
            suite::MAX_E2E_DECODE_RATIO
        );
    }
    if let (Some(s1), Some(s4)) = (
        report.find("end_to_end", "tiny"),
        report.find("end_to_end_src4", "tiny"),
    ) {
        println!(
            "  source shards: 1 -> {:.0} records/s, 4 -> {:.0} records/s",
            s1.records_per_sec, s4.records_per_sec
        );
    }

    let mut failures = suite::self_checks(&report);
    if args.smoke {
        let baseline_path = args.baseline.clone().or_else(newest_baseline);
        let baseline = baseline_path.as_ref().and_then(|p| {
            fs::read_to_string(p)
                .ok()
                .and_then(|s| BenchReport::from_json(&s))
        });
        match (baseline_path, baseline) {
            (Some(baseline_path), Some(baseline)) => {
                let gate = suite::trajectory_gate(&report, &baseline);
                if gate.is_empty() {
                    println!(
                        "  ok: end-to-end and per-stage throughput within {:.0}% of {}",
                        suite::MAX_BENCH_REGRESSION * 100.0,
                        baseline_path.display()
                    );
                }
                failures.extend(gate);
                // Prove the floors bite: a synthetic 25% decode
                // slowdown, a synthetic front-end starvation past the
                // decode-ratio budget, and a synthetic swarm slowdown /
                // 2x-budget tap loss must all be rejected.
                match suite::demo_gate_rejects_stage_slowdown(&baseline) {
                    Ok(line) => println!("  {line}"),
                    Err(why) => failures.push(why),
                }
                match suite::demo_ratio_gate_rejects_front_end_rot(&report) {
                    Ok(line) => println!("  {line}"),
                    Err(why) => failures.push(why),
                }
                match suite::demo_swarm_gates_reject(&report, &baseline) {
                    Ok(line) => println!("  {line}"),
                    Err(why) => failures.push(why),
                }
            }
            (Some(baseline_path), None) => failures.push(format!(
                "baseline {} unreadable (run `repro bench --record` and commit it)",
                baseline_path.display()
            )),
            (None, _) => failures.push(
                "no committed BENCH_PR<k>.json baseline found \
                 (run `repro bench --record` and commit it)"
                    .to_owned(),
            ),
        }
    }

    let out_path = args.bench_out.clone().unwrap_or_else(|| {
        if args.record {
            PathBuf::from(RECORD_PATH)
        } else if args.smoke {
            args.out.join("bench_smoke.json")
        } else {
            args.out.join("bench.json")
        }
    });
    fs::write(&out_path, report.to_json()).expect("write bench report");
    println!("  wrote {}", out_path.display());

    if failures.is_empty() {
        println!("bench OK");
    } else {
        eprintln!("bench FAILED: {} violation(s)", failures.len());
        for f in &failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
}

/// The CI campaign matrix (`repro matrix`), run by ci.sh: a faulty
/// campaign smoke at clientID widths {2^24, 2^16}. Each width's
/// reference is `Campaign::run_reference`: the serial tail's records
/// written one at a time with `DatasetWriter::write_record`,
/// `writer_bytes` stamped into each cut. Every writer-tail cell —
/// anonymiser shard count {1, 4} × source shard count {1, 4} — must
/// produce the byte-identical dataset and the identical checkpoint
/// cuts. That is the writer tail's and the sharded traffic source's
/// portability guarantee, checked against an independent
/// implementation at both the narrow test width and the wide default
/// where clientIDs stripe across every shard's sub-table. Exits nonzero
/// on any divergence.
fn matrix() {
    use edonkey_ten_weeks::core::pipeline::TailConfig;
    use edonkey_ten_weeks::xmlout::writer::DatasetWriter;

    const WIDTHS: [u32; 2] = [24, 16];
    const SHARDS: [usize; 2] = [1, 4];
    const SRC_SHARDS: [usize; 2] = [1, 4];
    println!("== matrix: clientID width x anon shards x source shards ==");
    let mut gate = Gate {
        failures: Vec::new(),
    };
    println!(
        "  {:<8} {:>6} {:>6} {:>9} {:>11} {:>7}  verdict",
        "width", "anon", "src", "records", "bytes", "wall_s"
    );
    let invalid = |e: &dyn std::fmt::Display| -> ! {
        eprintln!("invalid matrix configuration: {e}");
        std::process::exit(2);
    };
    for width in WIDTHS {
        let config = |src_shards: usize| {
            let mut config = CampaignConfig::tiny_faulty();
            config.population.id_space_bits = width;
            config.client_space_bits = width;
            config.generator.duration_secs = 600;
            config.checkpoint_interval_secs = 120;
            config.source.source_shards = src_shards;
            config
        };
        // etwlint: allow(no-wall-clock): operator-facing elapsed-time
        // print in the binary, not simulation state.
        let started = Instant::now();
        let mut ref_cps: Vec<Checkpoint> = Vec::new();
        let (reference, writer) = Campaign::new(&config(1))
            .run_reference(DatasetWriter::new(Vec::new()).expect("vec write"), |cp| {
                ref_cps.push(cp)
            })
            .unwrap_or_else(|e| invalid(&e));
        let ref_bytes = writer.finish().expect("vec write");
        println!(
            "  2^{width:<6} {:>6} {:>6} {:>9} {:>11} {:>7.2}  reference",
            "serial",
            1,
            grouped(reference.records),
            grouped(ref_bytes.len() as u64),
            started.elapsed().as_secs_f64()
        );
        gate.check(
            ref_cps.len() >= 2,
            &format!("width 2^{width}: campaign cut at least 2 checkpoints"),
        );
        gate.check(
            reference.records > 0,
            &format!("width 2^{width}: campaign produced records"),
        );
        for shards in SHARDS {
            for src_shards in SRC_SHARDS {
                let tail = TailConfig {
                    anon_shards: shards,
                    ..TailConfig::default()
                };
                // etwlint: allow(no-wall-clock): operator-facing
                // elapsed-time print in the binary, not simulation state.
                let started = Instant::now();
                let mut cps: Vec<Checkpoint> = Vec::new();
                let (report, writer) = Campaign::new(&config(src_shards))
                    .run_to_writer(
                        tail,
                        DatasetWriter::new(Vec::new()).expect("vec write"),
                        |cp| cps.push(cp),
                    )
                    .unwrap_or_else(|e| invalid(&e));
                let bytes = writer.finish().expect("vec write");
                let verdict = if bytes == ref_bytes && cps == ref_cps {
                    "identical"
                } else {
                    "DIVERGED"
                };
                println!(
                    "  2^{width:<6} {shards:>6} {src_shards:>6} {:>9} {:>11} {:>7.2}  {verdict}",
                    grouped(report.records),
                    grouped(bytes.len() as u64),
                    started.elapsed().as_secs_f64()
                );
                let cell = format!("width 2^{width}, {shards} anon / {src_shards} source shards");
                gate.check(
                    report.records == reference.records,
                    &format!("{cell}: record count matches the serial reference"),
                );
                gate.check(
                    bytes == ref_bytes,
                    &format!("{cell}: dataset byte-identical to the serial reference"),
                );
                gate.check(
                    cps == ref_cps,
                    &format!("{cell}: checkpoint cuts identical to the serial reference"),
                );
            }
        }
    }

    if gate.failures.is_empty() {
        println!(
            "matrix OK ({} writer cells against {} serial references)",
            WIDTHS.len() * SHARDS.len() * SRC_SHARDS.len(),
            WIDTHS.len()
        );
    } else {
        eprintln!("matrix FAILED: {} violation(s)", gate.failures.len());
        for f in &gate.failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
}

/// The real-socket soak gate (`repro swarm`), run by ci.sh:
///
/// 1. binds the eDonkey UDP server on a real loopback socket and drives
///    it with `--sessions` concurrent client sessions (plus noise
///    sessions sending hostile garbage and two sentinel sessions
///    carrying the anonymisation canary's raw identifiers), through
///    seeded socket-level impairment in both directions when `--faults`
///    is set, with a think-time burst window in the middle;
/// 2. the conservation gate, from the ledgers alone: client sent ==
///    server received + impairment drops; server received == answered +
///    shed + malformed; answers sent == answers received — *exactly*,
///    across real sockets;
/// 3. the capture gate: the server's own traffic, sniffed by the live
///    tap into ethernet frames, flows through the UNCHANGED
///    decode→anonymise pipeline into a dataset; capture loss is
///    whatever the tap actually dropped (measured, not simulated);
/// 4. the canary gate: every output surface of that live-captured
///    dataset (XML, checkpoint sidecars, flight dumps, /metrics) is
///    scanned for the sentinel identifiers the sentinel sessions put
///    on the wire.
///
/// Exits nonzero on any violation.
fn swarm(args: &Args) {
    use edonkey_ten_weeks::anonymize::scheme::PaperScheme;
    use edonkey_ten_weeks::core::livecap::LiveCapture;
    use edonkey_ten_weeks::core::pipeline::{
        run_capture_pipeline_batched, PipelineOptions, TailConfig, TraceOptions,
    };
    use edonkey_ten_weeks::faults::{DirectedRates, FaultSpec};
    use edonkey_ten_weeks::sentinel;
    use edonkey_ten_weeks::server::net::NetConfig;
    use edonkey_ten_weeks::server::swarm::{
        run_loopback_soak, soak_gate_failures, Roster, SoakConfig, SwarmConfig,
    };
    use edonkey_ten_weeks::xmlout::writer::DatasetWriter;

    let impaired = args.faults;
    println!(
        "== swarm: real-socket loopback soak ({} sessions{}) ==",
        args.sessions,
        if impaired { ", impaired" } else { "" }
    );
    let mut gate = Gate {
        failures: Vec::new(),
    };
    let registry = Registry::new();

    let rate = |to, from| DirectedRates {
        to_server: to,
        from_server: from,
    };
    let fault = |seed| FaultSpec {
        seed,
        drop: rate(0.04, 0.04),
        duplicate: rate(0.02, 0.02),
        truncate: rate(0.03, 0.02),
        delay: rate(0.04, 0.04),
        delay_max_us: 40_000,
        ..FaultSpec::default()
    };
    let duration_us = args.duration_ms.max(500) * 1_000;
    let cfg = SoakConfig {
        swarm: SwarmConfig {
            sessions: args.sessions.max(3),
            seed: 0x5317_0008,
            duration_us,
            noise_per_mille: 60,
            burst_start_us: duration_us / 4,
            burst_len_us: duration_us / 3,
            special: vec![
                (sentinel::client_a(), sentinel::file_a()),
                (sentinel::client_b(), sentinel::file_b()),
            ],
            fault: impaired.then(|| fault(0xC1_1E47)),
            ..SwarmConfig::default()
        },
        net: NetConfig {
            // Sized so the mid-run burst actually bites: the queue can
            // fill, degraded mode can engage, and shedding is real.
            queue_cap: 512,
            high_water: 384,
            low_water: 128,
            proc_budget: 96,
            ..NetConfig::default()
        },
        server_fault: impaired.then(|| fault(0x5E_12F4)),
    };

    // The capture stack: roster for identity, tap on the server socket,
    // collector assembling pipeline-ready frames.
    let roster: Roster = Roster::default();
    let (capture, tap) = LiveCapture::start(&registry, &roster, 8192);

    // etwlint: allow(no-wall-clock): operator-facing elapsed-time print
    // in the binary, not simulation state.
    let started = Instant::now();
    let outcome = match run_loopback_soak(cfg, &registry, &roster, Some(tap)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("swarm FAILED: {e}");
            std::process::exit(1);
        }
    };
    let mut captured = capture.finish();
    println!(
        "  soak done in {:.1}s wall: {} requests, {} sent, {} answers, {} timeouts, {} noise",
        started.elapsed().as_secs_f64(),
        grouped(outcome.report.requests),
        grouped(outcome.report.sent),
        grouped(outcome.report.answers),
        grouped(outcome.report.timeouts),
        grouped(outcome.report.noise),
    );
    let snap = registry.snapshot();
    println!(
        "  server: {} received, {} answered, {} shed ({} degraded entries), {} malformed",
        grouped(snap.counter("server.net.recv_total")),
        grouped(snap.counter("server.net.answered_total")),
        grouped(snap.counter("server.shed_total")),
        snap.counter("server.net.degraded_entered_total"),
        grouped(snap.counter("server.net.malformed_total")),
    );
    println!(
        "  capture: {} datagrams tapped, {} dropped by the tap ({:.3}% measured loss), {} frames",
        grouped(captured.tapped),
        grouped(captured.tap_dropped),
        captured.loss_fraction() * 100.0,
        grouped(captured.frames.len() as u64),
    );

    // Gate 1 — nothing crashed.
    gate.check(
        outcome.server_error.is_none(),
        "serving loop exited cleanly",
    );

    // Gate 2 — exact conservation across real sockets.
    let failures = soak_gate_failures(&snap, impaired, impaired);
    for f in &failures {
        println!("  FAIL: {f}");
    }
    let conserved = failures.is_empty();
    gate.failures.extend(failures);
    gate.check(conserved, "ledger conservation closed exactly");
    gate.check(
        outcome.report.sent > args.sessions as u64,
        "swarm did real work (sent > sessions)",
    );
    if impaired {
        gate.check(
            snap.counter("faults.sock.to_server.dropped_total") > 0,
            "to-server drop fault fired",
        );
        gate.check(
            snap.counter("faults.sock.from_server.dropped_total") > 0,
            "from-server drop fault fired",
        );
    }
    gate.check(
        snap.counter("server.net.malformed_total") > 0,
        "hostile noise reached the malformed ledgers",
    );

    // Gate 3 — the live-captured traffic flows through the unchanged
    // pipeline into a dataset, checkpoints and all.
    let flight_dir = args.out.join("swarm_flight");
    fs::create_dir_all(&flight_dir).expect("flight dir");
    let opts = PipelineOptions {
        checkpoint_interval_us: (duration_us / 4).max(200_000),
        resume: None,
        faults: None,
        trace: Some(TraceOptions {
            ring_slots: 256,
            dump_dir: Some(flight_dir.clone()),
            max_dumps: 8,
        }),
    };
    let seed = 0x5317_0008u64;
    let mut sidecars = Vec::new();
    let scratch = args.out.join("swarm_sidecars");
    fs::create_dir_all(&scratch).expect("sidecar dir");
    let frames = std::mem::take(&mut captured.frames);
    let n_frames = frames.len();
    let pipeline_result = run_capture_pipeline_batched(
        frames.into_iter(),
        2,
        PaperScheme::paper(24),
        &registry,
        &opts,
        TailConfig::default(),
        DatasetWriter::new(Vec::new()).expect("vec writer"),
        |cut, writer_bytes| {
            let cp = Checkpoint::from_pipeline(seed, cut, writer_bytes);
            let path = scratch.join(format!("swarm_cp_{}.etwckpt", sidecars.len()));
            cp.write_atomic(&path).expect("sidecar write");
            sidecars.push(path);
        },
    );
    let (stats, _scheme, writer) = match pipeline_result {
        Ok(x) => x,
        Err(e) => {
            eprintln!("swarm FAILED: pipeline rejected live capture: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "  pipeline: {} frames in, {} records decoded, {} checkpoints",
        grouped(n_frames as u64),
        grouped(stats.records),
        sidecars.len()
    );
    gate.check(
        stats.records > 0,
        "live-captured frames decode into dataset records",
    );
    gate.check(
        stats.records <= captured.tapped,
        "no more records than datagrams on the wire",
    );

    // Gate 4 — the anonymisation canary over every output surface of
    // the live-captured dataset.
    let dataset = writer.finish().expect("vec write");
    let mut leaks = sentinel::scan_surface("live dataset xml", &dataset);
    for path in &sidecars {
        let bytes = fs::read(path).expect("sidecar read");
        leaks.extend(sentinel::scan_surface("checkpoint sidecar", &bytes));
    }
    for entry in fs::read_dir(&flight_dir).expect("flight dir").flatten() {
        let bytes = fs::read(entry.path()).expect("dump read");
        leaks.extend(sentinel::scan_surface("flight dump", &bytes));
    }
    let final_snap = registry.snapshot();
    leaks.extend(sentinel::scan_surface(
        "/metrics",
        final_snap.render_prometheus().as_bytes(),
    ));
    for l in &leaks {
        println!("  FAIL: {l}");
    }
    let clean = leaks.is_empty();
    gate.failures.extend(leaks);
    gate.check(
        clean,
        "no sentinel identifier on any output surface (canary clean)",
    );

    write(
        &args.out,
        "swarm_dataset.xml",
        &String::from_utf8_lossy(&dataset),
    );
    write(&args.out, "swarm.prom", &final_snap.render_prometheus());
    let report_json = format!(
        "{{\n  \"sessions\": {},\n  \"sent\": {},\n  \"answers\": {},\n  \"timeouts\": {},\n  \
         \"retries\": {},\n  \"gave_up\": {},\n  \"noise\": {},\n  \"requests\": {},\n  \
         \"server_recv\": {},\n  \"server_answered\": {},\n  \"server_shed\": {},\n  \
         \"server_malformed\": {},\n  \"tapped\": {},\n  \"tap_dropped\": {},\n  \
         \"capture_loss\": {:.6},\n  \"records\": {}\n}}\n",
        outcome.report.sessions,
        outcome.report.sent,
        outcome.report.answers,
        outcome.report.timeouts,
        outcome.report.retries,
        outcome.report.gave_up,
        outcome.report.noise,
        outcome.report.requests,
        final_snap.counter("server.net.recv_total"),
        final_snap.counter("server.net.answered_total"),
        final_snap.counter("server.shed_total"),
        final_snap.counter("server.net.malformed_total"),
        captured.tapped,
        captured.tap_dropped,
        captured.loss_fraction(),
        stats.records,
    );
    write(&args.out, "swarm_report.json", &report_json);

    if gate.failures.is_empty() {
        println!(
            "swarm OK ({} sessions, {} live-captured records, canary clean)",
            outcome.report.sessions,
            grouped(stats.records)
        );
    } else {
        eprintln!("swarm FAILED: {} violation(s)", gate.failures.len());
        for f in &gate.failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
}

/// The crash-resilience gate (`repro soak --faults`), run by ci.sh:
///
/// 1. an active probe over a lossy transport, so `probe.timeouts_total`
///    and `probe.retries_total` come from real expired deadlines;
/// 2. a fault-injected campaign written through the reference writer
///    (`Campaign::run_reference`) with checkpoints cut every
///    `checkpoint_interval_secs`;
/// 3. a simulated kill at a random virtual time — the dataset file is
///    torn at an arbitrary byte past the last checkpoint — followed by
///    recovery (truncate to the checkpoint's writer offset) and resume;
/// 4. the ledger assertions: byte-identical rebuilt dataset, conserving
///    fault counters, every fault class nonzero.
///
/// Exits nonzero if any assertion fails.
fn soak(out: &Path, faults: bool, soak_seed: Option<u64>) {
    use edonkey_ten_weeks::edonkey::ids::{ClientId, FileId};
    use edonkey_ten_weeks::edonkey::messages::{FileEntry, Message};
    use edonkey_ten_weeks::edonkey::tags::{special, Tag, TagList};
    use edonkey_ten_weeks::faults::{DirectedRates, LossyChannel};
    use edonkey_ten_weeks::probe::{ActiveProber, ProbeTransport};
    use edonkey_ten_weeks::server::engine::ServerEngine;
    use edonkey_ten_weeks::xmlout::writer::DatasetWriter;
    use rand::Rng;

    // OS entropy via std's randomized hasher: no wall clock involved,
    // and `--soak-seed` reproduces any failing run exactly.
    let kill_seed = soak_seed.unwrap_or_else(|| {
        use std::hash::{BuildHasher, Hasher};
        std::collections::hash_map::RandomState::new()
            .build_hasher()
            .finish()
    });
    println!("== soak: crash-resilient campaign gate (kill seed {kill_seed}) ==");
    let mut gate = Gate {
        failures: Vec::new(),
    };
    let registry = Registry::new();

    // Phase 1 — active probe over a lossy link, sharing the campaign's
    // registry so the final health dump shows the probe's real timeouts.
    let mut server = ServerEngine::new(edonkey_ten_weeks::server::engine::EngineConfig {
        max_search_results: 30,
        ..Default::default()
    });
    let vocab: Vec<String> = (0..40).map(|i| format!("word{i}")).collect();
    let mut vrng = StdRng::seed_from_u64(5);
    for i in 0..200usize {
        let name = format!(
            "{} {} track{i}.mp3",
            vocab[vrng.gen_range(0..vocab.len())],
            vocab[vrng.gen_range(0..vocab.len())]
        );
        let owner = ClientId((1000 + i * 31) as u32);
        server.handle(
            owner,
            &Message::OfferFiles {
                files: vec![FileEntry {
                    file_id: FileId::of_identity(i as u64),
                    client_id: owner,
                    port: 4662,
                    tags: TagList(vec![
                        Tag::str(special::FILENAME, name),
                        Tag::u32(special::FILESIZE, 4_000_000),
                    ]),
                }],
            },
        );
    }
    let mut prober = ActiveProber::new(ClientId(7), vocab, 1);
    prober.attach_telemetry(&registry);
    if faults {
        prober.attach_transport(ProbeTransport::new(
            LossyChannel::new(
                kill_seed ^ 0x7072_6f62,
                DirectedRates {
                    to_server: 0.35,
                    from_server: 0.2,
                },
                Vec::new(),
            ),
            500_000, // 0.5 s virtual deadline
            2,       // two retries before abandoning
            30_000,  // 30 ms RTT
        ));
    }
    let sample = prober.sweep(&mut server, 150, 600);
    println!(
        "  probe: {} searches, {} files found, virtual clock {:.2} s",
        sample.searches,
        sample.files.len(),
        prober.virtual_now_us() as f64 / 1e6
    );

    // Phase 2 — the faulty campaign, full run, dataset + checkpoints.
    let config = if faults {
        CampaignConfig::tiny_faulty()
    } else {
        let mut c = CampaignConfig::tiny();
        c.checkpoint_interval_secs = 300;
        c
    };
    let mut cps: Vec<Checkpoint> = Vec::new();
    let (report, writer) = Campaign::new(&config)
        .registry(&registry)
        .run_reference(DatasetWriter::new(Vec::new()).expect("vec write"), |cp| {
            cps.push(cp)
        })
        .unwrap_or_else(|e| {
            eprintln!("invalid campaign configuration: {e}");
            std::process::exit(2);
        });
    let full = writer.finish().expect("vec write");
    println!(
        "  campaign: {} records, {} bytes, {} checkpoints",
        grouped(report.records),
        grouped(full.len() as u64),
        cps.len()
    );
    gate.check(cps.len() >= 4, "campaign cut at least 4 checkpoints");

    // Phase 3 — kill at a random virtual time. The tear lands anywhere
    // past the first checkpoint; recovery resumes from the last
    // checkpoint before it.
    let mut krng = StdRng::seed_from_u64(kill_seed);
    let tear_at = krng.gen_range(cps[0].writer_bytes as usize..full.len());
    let cp = cps
        .iter()
        .rev()
        .find(|c| c.writer_bytes as usize <= tear_at)
        .expect("tear past the first checkpoint");
    println!(
        "  kill: dataset torn at byte {} (virtual ~{:.0} s); resuming from the {:.0} s checkpoint \
         ({} records, {} bytes)",
        grouped(tear_at as u64),
        cp.next_checkpoint_us as f64 / 1e6,
        cp.virtual_us as f64 / 1e6,
        grouped(cp.records),
        grouped(cp.writer_bytes)
    );
    let sidecar = out.join("soak_checkpoint.etwckpt");
    cp.write_atomic(&sidecar).expect("write checkpoint sidecar");
    let cp = Checkpoint::read(&sidecar).expect("read checkpoint sidecar back");
    println!(
        "  wrote {} (inspect with `etwtool checkpoint-inspect`)",
        sidecar.display()
    );

    let mut torn = full[..tear_at].to_vec();
    torn.truncate(cp.writer_bytes as usize);
    let resume_registry = Registry::new();
    let (resumed, writer) = Campaign::new(&config)
        .registry(&resume_registry)
        .resume_from(&cp)
        .run_reference(
            DatasetWriter::resume(torn, cp.records, cp.writer_bytes),
            |_| {},
        )
        .unwrap_or_else(|e| {
            eprintln!("resume rejected: {e}");
            std::process::exit(2);
        });
    let rebuilt = writer.finish().expect("vec write");

    // Phase 4 — the verdicts.
    gate.check(
        resumed.records + cp.records == report.records,
        "resumed record count completes the full run's (no loss, no double count)",
    );
    gate.check(
        rebuilt == full,
        "rebuilt dataset is byte-identical to the uninterrupted run",
    );
    let snap = registry.snapshot();
    gate.check(
        snap.counter("probe.searches_total") == sample.searches,
        "probe telemetry matches the sample",
    );
    // Reorder ledger: a sequence number the decode front never delivered
    // would strand every step behind it, in release builds too.
    let holes = "pipeline.reorder.holes_total";
    gate.check(
        snap.counter(holes) == 0 && resume_registry.snapshot().counter(holes) == 0,
        "pipeline.reorder.holes_total is 0 (no sequence holes, full and resumed runs)",
    );
    if faults {
        gate.check(
            snap.counter("probe.timeouts_total") > 0,
            "probe.timeouts_total nonzero (real expired deadlines)",
        );
        gate.check(
            snap.counter("probe.retries_total") > 0,
            "probe.retries_total nonzero",
        );
        let offered = snap.counter("faults.link.offered_total");
        gate.check(
            offered == report.capture.captured,
            "faults.link.offered_total equals captured frames",
        );
        let delivered = snap.counter("faults.link.delivered_total");
        gate.check(
            delivered
                == offered
                    - snap.counter("faults.link.dropped_total")
                    - snap.counter("faults.link.outage_dropped_total")
                    + snap.counter("faults.link.duplicated_total"),
            "link ledger: delivered = offered - dropped - outage + duplicated",
        );
        gate.check(
            delivered == report.pipeline.frames + report.pipeline.shed,
            "pipeline ledger: delivered = decoded frames + shed frames",
        );
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
            gate.check(snap.counter(c) > 0, &format!("{c} nonzero"));
        }
        gate.check(
            snap.counter("faults.worker.crashes_total")
                == snap.counter("faults.worker.restarts_total"),
            "every worker crash was restarted (no degradation in the soak preset)",
        );
        gate.check(
            snap.counter("faults.worker.degraded_total") == 0,
            "no worker degraded",
        );
    }
    write(out, "soak.prom", &snap.render_prometheus());

    if gate.failures.is_empty() {
        println!(
            "soak OK ({} records survived the kill)",
            grouped(report.records)
        );
    } else {
        eprintln!("soak FAILED: {} violation(s)", gate.failures.len());
        for f in &gate.failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
}
