//! Dataset toolbox for the released XML format — the utility a consumer
//! of the paper's public dataset would want.
//!
//! ```text
//! etwtool validate   <dataset[.etwz]>        check against the formal spec
//! etwtool stats      <dataset[.etwz]>        record counts + §3 quick stats
//! etwtool head       <dataset[.etwz]> [N]    print the first N records
//! etwtool compress   <in.xml> <out.etwz>     LZSS storage codec
//! etwtool decompress <in.etwz> <out.xml>
//! etwtool monitor    [--tiny] [--faulty] [--top] [--weeks N] [--shards N] [--addr HOST:PORT]
//!                    run a campaign with live telemetry (--addr: also /health.json + /metrics over HTTP)
//! etwtool trace-dump <file.etwtrace>         pretty-print a flight-recorder dump
//! etwtool trace-check [--dir DIR]            faulty campaign must produce parseable flight dumps
//! etwtool checkpoint-inspect <file.etwckpt>  describe a resume checkpoint sidecar
//! etwtool spec                               print the format specification
//! ```
//!
//! Compressed inputs are detected by magic and decompressed on the fly.

use edonkey_ten_weeks::analysis::report::{grouped, KvTable};
use edonkey_ten_weeks::analysis::DatasetStats;
use edonkey_ten_weeks::core::campaign::Campaign;
use edonkey_ten_weeks::core::pipeline::TailConfig;
use edonkey_ten_weeks::core::CampaignConfig;
use edonkey_ten_weeks::telemetry::{Registry, Snapshot};
use edonkey_ten_weeks::trace::ops::{serve, RegistryOps};
use edonkey_ten_weeks::trace::{file as trace_file, SpanKind};
use edonkey_ten_weeks::xmlout::compress::{compress, decompress, MAGIC};
use edonkey_ten_weeks::xmlout::reader::DatasetReader;
use edonkey_ten_weeks::xmlout::schema::{validate, SPEC};
use edonkey_ten_weeks::xmlout::writer::DatasetWriter;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("validate") => cmd_validate(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("head") => cmd_head(&args[1..]),
        Some("compress") => cmd_compress(&args[1..]),
        Some("decompress") => cmd_decompress(&args[1..]),
        Some("split") => cmd_split(&args[1..]),
        Some("merge") => cmd_merge(&args[1..]),
        Some("monitor") => cmd_monitor(&args[1..]),
        Some("trace-dump") => cmd_trace_dump(&args[1..]),
        Some("trace-check") => cmd_trace_check(&args[1..]),
        Some("checkpoint-inspect") => cmd_checkpoint_inspect(&args[1..]),
        Some("spec") => {
            println!("{SPEC}");
            Ok(())
        }
        _ => {
            eprintln!(
                "usage: etwtool <validate|stats|head|compress|decompress|split|merge|monitor|trace-dump|trace-check|checkpoint-inspect|spec> [args]"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("etwtool: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Loads a dataset file, transparently decompressing `.etwz` containers.
fn load(path: &str) -> Result<String, String> {
    let bytes = fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let bytes = if bytes.len() >= 4 && &bytes[..4] == MAGIC {
        decompress(&bytes).map_err(|e| format!("{path}: {e}"))?
    } else {
        bytes
    };
    String::from_utf8(bytes).map_err(|_| format!("{path}: not valid UTF-8"))
}

fn one_arg<'a>(args: &'a [String], what: &str) -> Result<&'a str, String> {
    args.first()
        .map(String::as_str)
        .ok_or_else(|| format!("missing {what}"))
}

fn cmd_validate(args: &[String]) -> Result<(), String> {
    let path = one_arg(args, "dataset path")?;
    let xml = load(path)?;
    let report = validate(&xml).map_err(|e| format!("INVALID: {e}"))?;
    println!("OK: {} records conform to etw-1.0", grouped(report.records));
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let path = one_arg(args, "dataset path")?;
    let xml = load(path)?;
    let mut stats = DatasetStats::new();
    let mut first_ts = u64::MAX;
    let mut last_ts = 0u64;
    for record in DatasetReader::new(&xml) {
        let r = record.map_err(|e| e.to_string())?;
        first_ts = first_ts.min(r.ts_us);
        last_ts = last_ts.max(r.ts_us);
        stats.observe(&r);
    }
    let mut t = KvTable::new();
    t.row("records", grouped(stats.records()))
        .row("queries", grouped(stats.queries()))
        .row(
            "span",
            if stats.records() == 0 {
                "-".to_owned()
            } else {
                format!("{:.1} hours", (last_ts - first_ts) as f64 / 3.6e9)
            },
        );
    let fam = stats.by_family();
    for (name, n) in [
        ("management", fam[0]),
        ("file searches", fam[1]),
        ("source searches", fam[2]),
        ("announcements", fam[3]),
    ] {
        t.row(format!("  {name}"), grouped(n));
    }
    let prov = stats.providers_per_file();
    let seek = stats.files_per_seeker();
    let sizes = stats.size_histogram_kb();
    t.row("files with providers", grouped(prov.total()))
        .row("max providers for one file", prov.max_value().unwrap_or(0))
        .row("clients asking", grouped(seek.total()))
        .row("clients asking exactly 52 files", seek.count(52))
        .row("files sized", grouped(sizes.total()))
        .row("files at exactly 700 MB", sizes.count(700 * 1024));
    print!("{}", t.render());
    Ok(())
}

fn cmd_head(args: &[String]) -> Result<(), String> {
    let path = one_arg(args, "dataset path")?;
    let n: usize = args
        .get(1)
        .map(|s| s.parse().map_err(|_| format!("bad count {s}")))
        .transpose()?
        .unwrap_or(10);
    let xml = load(path)?;
    for (i, record) in DatasetReader::new(&xml).take(n).enumerate() {
        let r = record.map_err(|e| e.to_string())?;
        println!("#{i} {r:?}");
    }
    Ok(())
}

fn cmd_compress(args: &[String]) -> Result<(), String> {
    let [input, output] = args else {
        return Err("usage: compress <in.xml> <out.etwz>".into());
    };
    let data = fs::read(input).map_err(|e| format!("{input}: {e}"))?;
    let packed = compress(&data);
    fs::write(output, &packed).map_err(|e| format!("{output}: {e}"))?;
    println!(
        "{} -> {} bytes ({:.1}x)",
        data.len(),
        packed.len(),
        data.len() as f64 / packed.len().max(1) as f64
    );
    Ok(())
}

/// Splits a dataset into N time-contiguous chunks (`<out>.partK.xml`),
/// as large captures are released (the paper's dataset ships in pieces).
fn cmd_split(args: &[String]) -> Result<(), String> {
    let [input, parts] = args else {
        return Err("usage: split <dataset[.etwz]> <n-parts>".into());
    };
    let n: usize = parts
        .parse()
        .map_err(|_| format!("bad part count {parts}"))?;
    if n == 0 {
        return Err("part count must be positive".into());
    }
    let xml = load(input)?;
    let records: Vec<_> = DatasetReader::new(&xml)
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let per_part = records.len().div_ceil(n.max(1)).max(1);
    let stem = input.trim_end_matches(".etwz").trim_end_matches(".xml");
    for (k, chunk) in records.chunks(per_part).enumerate() {
        let path = format!("{stem}.part{k}.xml");
        let file = fs::File::create(&path).map_err(|e| format!("{path}: {e}"))?;
        let mut w =
            edonkey_ten_weeks::xmlout::writer::DatasetWriter::new(std::io::BufWriter::new(file))
                .map_err(|e| e.to_string())?;
        for r in chunk {
            w.write_record(r).map_err(|e| e.to_string())?;
        }
        w.finish().map_err(|e| e.to_string())?;
        println!("wrote {path} ({} records)", chunk.len());
    }
    Ok(())
}

/// Merges dataset chunks back into one document, checking that record
/// timestamps stay non-decreasing across the seam.
fn cmd_merge(args: &[String]) -> Result<(), String> {
    if args.len() < 2 {
        return Err("usage: merge <out.xml> <part.xml>...".into());
    }
    let output = &args[0];
    let file = fs::File::create(output).map_err(|e| format!("{output}: {e}"))?;
    let mut w =
        edonkey_ten_weeks::xmlout::writer::DatasetWriter::new(std::io::BufWriter::new(file))
            .map_err(|e| e.to_string())?;
    let mut last_ts = 0u64;
    let mut total = 0u64;
    for part in &args[1..] {
        let xml = load(part)?;
        for record in DatasetReader::new(&xml) {
            let r = record.map_err(|e| format!("{part}: {e}"))?;
            if r.ts_us < last_ts {
                return Err(format!(
                    "{part}: timestamps regress across parts ({} < {last_ts}); \
                     merge parts in capture order",
                    r.ts_us
                ));
            }
            last_ts = r.ts_us;
            w.write_record(&r).map_err(|e| e.to_string())?;
            total += 1;
        }
    }
    w.finish().map_err(|e| e.to_string())?;
    println!("wrote {output} ({} records)", grouped(total));
    Ok(())
}

/// Runs a campaign on a worker thread while the foreground polls the
/// shared metric registry — the operator's view of the capture machine
/// keeping up (or not) with its own virtual link.
///
/// ```text
/// etwtool monitor [--tiny] [--faulty] [--top] [--weeks N] [--shards N]
///                 [--refresh-ms MS] [--prom FILE] [--trace-dir DIR]
///                 [--addr HOST:PORT [--linger-ms MS]]
/// ```
///
/// `--top` switches the single status line for a per-stage dashboard:
/// one row per pipeline stage with throughput, utilisation, service
/// p50/p99, queue-wait p99 and input-queue depth, a throughput
/// sparkline over the last 60 samples, and the fault ledger's deltas.
/// `--faulty` runs the soak configuration (lossy link, overload
/// windows, scheduled worker crashes); `--trace-dir` additionally arms
/// the flight recorder so fault events drop `flight_*.etwtrace` files
/// there. `--addr` serves the same registry over HTTP for the whole run
/// — `GET /health.json` (counters, gauges, histogram summaries) and
/// `GET /metrics` (Prometheus text format) — and `--linger-ms` keeps
/// the listener up that long after the campaign for late scrapes.
fn cmd_monitor(args: &[String]) -> Result<(), String> {
    let mut tiny = false;
    let mut faulty = false;
    let mut top = false;
    let mut weeks = 1u64;
    let mut shards = 1usize;
    let mut refresh_ms = 500u64;
    let mut prom: Option<String> = None;
    let mut trace_dir: Option<PathBuf> = None;
    let mut addr: Option<String> = None;
    let mut linger_ms = 0u64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tiny" => tiny = true,
            "--faulty" => faulty = true,
            "--top" => top = true,
            "--addr" => addr = Some(it.next().ok_or("--addr needs HOST:PORT")?.clone()),
            "--linger-ms" => {
                linger_ms = it
                    .next()
                    .and_then(|w| w.parse().ok())
                    .ok_or("--linger-ms needs a duration in ms")?
            }
            "--trace-dir" => {
                trace_dir = Some(PathBuf::from(
                    it.next().ok_or("--trace-dir needs a directory")?,
                ));
            }
            "--shards" => {
                shards = it
                    .next()
                    .and_then(|w| w.parse().ok())
                    .ok_or("--shards needs a power of two in 1..=16")?
            }
            "--weeks" => {
                weeks = it
                    .next()
                    .and_then(|w| w.parse().ok())
                    .ok_or("--weeks needs a positive integer")?
            }
            "--refresh-ms" => {
                refresh_ms = it
                    .next()
                    .and_then(|w| w.parse().ok())
                    .ok_or("--refresh-ms needs a positive integer")?
            }
            "--prom" => {
                prom = Some(it.next().ok_or("--prom needs a file path")?.clone());
            }
            other => return Err(format!("unknown monitor option {other:?}")),
        }
    }

    let mut config = if faulty {
        CampaignConfig::tiny_faulty()
    } else if tiny {
        CampaignConfig::tiny()
    } else {
        let mut c = CampaignConfig::default();
        c.generator.duration_secs = weeks.max(1) * 7 * 86_400;
        c
    };
    // Cut health records often enough that even a tiny run shows a few.
    config.health_interval_secs = if tiny || faulty { 300 } else { 3_600 };
    if let Some(dir) = &trace_dir {
        config.trace_ring_slots = 256;
        config.trace_dump_dir = Some(dir.clone());
    }
    let total_virtual_secs = config.generator.duration_secs;

    // Drive the writer tail (shard→assemble→write) so the monitor shows
    // the shard pool's and the write stage's counters; the dataset
    // itself goes to a sink — monitoring is about vitals, not output.
    // `--shards N` sizes the shard pool behind the q_sh/q_asm columns;
    // two or more shards also light up the balance panel.
    let tail = TailConfig {
        anon_shards: shards,
        ..TailConfig::default()
    };
    if !edonkey_ten_weeks::anonymize::shard::shard_count_valid(shards) {
        return Err(format!(
            "--shards must be a power of two in 1..=16, got {shards}"
        ));
    }
    let registry = Registry::new();
    let server = match &addr {
        Some(addr) => {
            let server = serve(addr, Arc::new(RegistryOps::new(registry.clone())))
                .map_err(|e| format!("{addr}: {e}"))?;
            println!(
                "serving GET /health.json and GET /metrics on http://{}",
                server.local_addr()
            );
            Some(server)
        }
        None => None,
    };
    let worker_registry = registry.clone();
    let worker = std::thread::spawn(move || {
        Campaign::new(&config)
            .registry(&worker_registry)
            .run_to_writer(
                tail,
                DatasetWriter::new(std::io::sink()).expect("sink write"),
                |_| {},
            )
            .map(|(report, writer)| {
                let _ = writer.finish();
                report
            })
    });

    println!(
        "monitoring campaign ({} virtual s; refresh every {refresh_ms} ms)",
        grouped(total_virtual_secs)
    );
    let mut prev = Snapshot::default();
    let mut spark: Vec<f64> = Vec::with_capacity(60);
    loop {
        let done = worker.is_finished();
        let snap = registry.snapshot();
        if top {
            print_top(&snap, &prev, refresh_ms, total_virtual_secs, &mut spark);
        } else {
            print_status_line(&snap, &prev, refresh_ms, total_virtual_secs);
        }
        prev = snap;
        if done {
            break;
        }
        std::thread::sleep(Duration::from_millis(refresh_ms));
    }
    let report = worker
        .join()
        .map_err(|_| "campaign thread panicked")?
        .map_err(|e| format!("campaign failed: {e}"))?;

    println!(
        "campaign finished: {} records, {} health snapshots, ring lost {}",
        grouped(report.records),
        report.health.records.len(),
        grouped(report.capture.lost)
    );
    if let Some(path) = prom {
        let text = registry.snapshot().render_prometheus();
        fs::write(&path, text).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    if let Some(server) = server {
        if linger_ms > 0 {
            println!("lingering {linger_ms} ms for late scrapes");
            std::thread::sleep(Duration::from_millis(linger_ms));
        }
        server.shutdown();
    }
    Ok(())
}

/// Describes a resume-checkpoint sidecar: the state a killed campaign
/// restarts from (`repro soak` writes one at every cut).
fn cmd_checkpoint_inspect(args: &[String]) -> Result<(), String> {
    let path = one_arg(args, "checkpoint path")?;
    let cp = edonkey_ten_weeks::core::checkpoint::Checkpoint::read(std::path::Path::new(path))
        .map_err(|e| format!("{path}: {e}"))?;
    let mut t = KvTable::new();
    t.row("campaign seed", cp.seed)
        .row(
            "virtual time",
            format!("{:.3} s", cp.virtual_us as f64 / 1e6),
        )
        .row(
            "next checkpoint due",
            format!("{:.3} s", cp.next_checkpoint_us as f64 / 1e6),
        )
        .row("records written", grouped(cp.records))
        .row("dataset bytes at cut", grouped(cp.writer_bytes))
        .row(
            "distinct clients seen",
            grouped(cp.client_order.len() as u64),
        )
        .row("distinct files seen", grouped(cp.file_order.len() as u64));
    print!("{}", t.render());
    Ok(())
}

/// One line of operator-facing vitals, with per-refresh rates.
fn print_status_line(snap: &Snapshot, prev: &Snapshot, refresh_ms: u64, total_secs: u64) {
    let per_sec = |name: &str| {
        let d = snap.counter_delta(prev, name);
        d as f64 * 1_000.0 / refresh_ms.max(1) as f64
    };
    let virtual_secs = snap.gauge("campaign.virtual_secs").max(0) as u64;
    println!(
        "virt {:>7}s/{} ({:>5.1}%) | frames {:>11} ({:>9.0}/s) | \
         records {:>11} ({:>7.0}/s) | wr {:>8} batch {:>6.1} MB | \
         lost {:>6} | q_in {:>4} | q_sh {:>3} | q_asm {:>3} | q_wr {:>3} | \
         stalls {:>4}",
        virtual_secs,
        grouped(total_secs),
        virtual_secs as f64 * 100.0 / total_secs.max(1) as f64,
        grouped(snap.counter("stage.producer.frames_total")),
        per_sec("stage.producer.frames_total"),
        grouped(snap.counter("stage.sink.records_total")),
        per_sec("stage.sink.records_total"),
        grouped(snap.counter("stage.write.batches_total")),
        snap.counter("stage.write.bytes_total") as f64 / 1e6,
        snap.counter("ring.lost_total"),
        snap.gauge("chan.decode_in.depth"),
        // Shard-pool vitals: the shards' input queues, and their output
        // queues, which the assembler reads in lockstep.
        snap.gauge("chan.shard_in.depth"),
        snap.gauge("chan.shard_out.depth"),
        snap.gauge("chan.write_in.depth"),
        snap.counter("chan.decode_in.stalls_total"),
    );
}

/// The `--top` dashboard: one row per pipeline stage, driven entirely
/// by the `stage.<name>.latency_ns` / `queue_wait_ns` histograms the
/// stage-span layer maintains, the `chan.<out>.stall_ns_total` counters
/// of each stage's output channels, and the input-queue depth gauges.
/// Time blocked on a full output channel is in neither histogram sum,
/// so service, queue wait and stall tile a stage's window: `util‰` is
/// `Δlatency.sum` and `stall‰` is `Δstall_ns_total`, each over
/// `Δlatency.sum + Δqueue_wait.sum + Δstall_ns_total`. Stages that have
/// not run yet (e.g. the shard pool before its first batch) are
/// omitted.
fn print_top(
    snap: &Snapshot,
    prev: &Snapshot,
    refresh_ms: u64,
    total_secs: u64,
    spark: &mut Vec<f64>,
) {
    let virtual_secs = snap.gauge("campaign.virtual_secs").max(0) as u64;
    let frames_rate = snap.counter_delta(prev, "stage.producer.frames_total") as f64 * 1_000.0
        / refresh_ms.max(1) as f64;
    spark.push(frames_rate);
    if spark.len() > 60 {
        spark.remove(0);
    }
    println!(
        "── virt {:>7}s/{} ({:>5.1}%) ─ frames {:>9.0}/s ─ records {:>11} ─ lost {} ──",
        virtual_secs,
        grouped(total_secs),
        virtual_secs as f64 * 100.0 / total_secs.max(1) as f64,
        frames_rate,
        grouped(snap.counter("stage.sink.records_total")),
        grouped(snap.counter("ring.lost_total")),
    );
    println!("   thr {}", sparkline(spark));
    println!(
        "   {:<9} {:>9} {:>6} {:>6} {:>9} {:>9} {:>9} {:>5}",
        "stage",
        "ops/s",
        "util\u{2030}",
        "stall\u{2030}",
        "p50 \u{b5}s",
        "p99 \u{b5}s",
        "wait99\u{b5}s",
        "q"
    );
    // (stage, its input-queue depth gauge, the channels it sends into)
    for (stage, queue, outputs) in [
        ("decode", "chan.decode_in.depth", &["decode_out"][..]),
        ("reorder", "chan.decode_out.depth", &["shard_in"]),
        ("shard", "chan.shard_in.depth", &["shard_out"]),
        ("assemble", "chan.shard_out.depth", &["write_in"]),
        ("write", "chan.write_in.depth", &[]),
    ] {
        let lat_name = format!("stage.{stage}.latency_ns");
        let wait_name = format!("stage.{stage}.queue_wait_ns");
        let (Some(lat), Some(wait)) = (snap.histogram(&lat_name), snap.histogram(&wait_name))
        else {
            continue;
        };
        let (prev_lat, prev_wait) = (prev.histogram(&lat_name), prev.histogram(&wait_name));
        let ops = (lat.count - prev_lat.map_or(0, |h| h.count)) as f64 * 1_000.0
            / refresh_ms.max(1) as f64;
        let busy = lat.sum - prev_lat.map_or(0, |h| h.sum);
        let idle = wait.sum - prev_wait.map_or(0, |h| h.sum);
        let stalled: u64 = outputs
            .iter()
            .map(|c| snap.counter_delta(prev, &format!("chan.{c}.stall_ns_total")))
            .sum();
        let window = busy + idle + stalled;
        let permille = |ns: u64| ns.saturating_mul(1000).checked_div(window).unwrap_or(0);
        println!(
            "   {:<9} {:>9.0} {:>6} {:>6} {:>9.1} {:>9.1} {:>9.1} {:>5}",
            stage,
            ops,
            permille(busy),
            permille(stalled),
            lat.quantile(0.50) as f64 / 1e3,
            lat.quantile(0.99) as f64 / 1e3,
            wait.quantile(0.99) as f64 / 1e3,
            snap.gauge(queue),
        );
    }
    print_shard_balance(snap, prev, refresh_ms);
    // Fault ledger: per-refresh deltas, printed only when something
    // happened in the window so a healthy run stays quiet.
    let ledger = [
        ("crash", "faults.worker.crashes_total"),
        ("restart", "faults.worker.restarts_total"),
        ("degraded", "faults.worker.degraded_total"),
        ("shed", "pipeline.shed_total"),
        ("link-drop", "faults.link.dropped_total"),
        ("dump", "trace.dumps_total"),
    ];
    let mut line = String::new();
    for (label, name) in ledger {
        let d = snap.counter_delta(prev, name);
        if d > 0 {
            line.push_str(&format!(" +{d} {label} (tot {})", snap.counter(name)));
        }
    }
    if !line.is_empty() {
        println!("   faults{line}");
    }
}

/// The shard-balance panel: one row per anonymiser shard, from the
/// per-shard `anon.shard<i>.*` ledgers the pipeline maintains. Every
/// shard sees every batch, so balance shows in the ids each shard
/// resolved and the share of the refresh window it spent busy. Shown
/// only when the shard pool is actually fanned out (≥2 shards that
/// resolved ids), since a single shard has nothing to skew. The skews
/// are the spread between the busiest and laziest shard in the window
/// — a persistently hot shard means the id spaces are striping
/// unevenly across the pool.
fn print_shard_balance(snap: &Snapshot, prev: &Snapshot, refresh_ms: u64) {
    const MAX_SHARDS: usize = 16;
    let ids = |s: usize| {
        (
            snap.counter(&format!("anon.shard{s}.client_ids_total")),
            snap.counter(&format!("anon.shard{s}.file_ids_total")),
        )
    };
    let active: Vec<usize> = (0..MAX_SHARDS).filter(|&s| ids(s) != (0, 0)).collect();
    if active.len() < 2 {
        return;
    }
    println!(
        "   {:<9} {:>11} {:>11} {:>9} {:>5}",
        "shard", "clientIDs", "fileIDs", "busy\u{2030}", "q"
    );
    let window_ns = refresh_ms.max(1) as f64 * 1e6;
    let mut min_busy = f64::MAX;
    let mut max_busy = 0.0f64;
    let mut min_q = i64::MAX;
    let mut max_q = i64::MIN;
    for &s in &active {
        let busy = snap.counter_delta(prev, &format!("anon.shard{s}.busy_ns_total")) as f64
            * 1_000.0
            / window_ns;
        let depth = snap.gauge(&format!("anon.shard{s}.queue_depth"));
        min_busy = min_busy.min(busy);
        max_busy = max_busy.max(busy);
        min_q = min_q.min(depth);
        max_q = max_q.max(depth);
        let (client_ids, file_ids) = ids(s);
        println!(
            "   shard{:<4} {:>11} {:>11} {:>9.0} {:>5}",
            s,
            grouped(client_ids),
            grouped(file_ids),
            busy,
            depth,
        );
    }
    println!(
        "   balance   busy skew {:>4.0}\u{2030} ({:.0}..{:.0}), depth skew {} ({}..{})",
        max_busy - min_busy,
        min_busy,
        max_busy,
        max_q - min_q,
        min_q,
        max_q,
    );
}

/// Renders samples as a fixed-height unicode sparkline, scaled to the
/// window's maximum.
fn sparkline(samples: &[f64]) -> String {
    const GLYPHS: [char; 8] = [
        '\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}',
        '\u{2588}',
    ];
    let max = samples.iter().cloned().fold(0.0f64, f64::max);
    samples
        .iter()
        .map(|&v| {
            let idx = if max <= 0.0 {
                0
            } else {
                ((v / max) * 7.0).round() as usize
            };
            GLYPHS[idx.min(7)]
        })
        .collect()
}

/// Pretty-prints a `flight_*.etwtrace` dump written by the pipeline's
/// flight recorder.
fn cmd_trace_dump(args: &[String]) -> Result<(), String> {
    let path = one_arg(args, "trace path")?;
    let events = trace_file::read_file(std::path::Path::new(path))?;
    print!("{}", trace_file::render_dump(&events));
    Ok(())
}

/// The ci `trace` gate: runs the soak configuration (scheduled worker
/// crashes, overload, checkpoints) with the flight recorder armed and
/// asserts the observability contract — injected crashes produced
/// `flight_*.etwtrace` dumps, every dump parses, and the merged events
/// contain the fault markers.
///
/// ```text
/// etwtool trace-check [--dir DIR] [--shards N]
/// ```
fn cmd_trace_check(args: &[String]) -> Result<(), String> {
    let mut dir = PathBuf::from("target/trace-check");
    let mut shards = 2usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--dir" => dir = PathBuf::from(it.next().ok_or("--dir needs a directory")?),
            "--shards" => {
                shards = it
                    .next()
                    .and_then(|w| w.parse().ok())
                    .ok_or("--shards needs a power of two in 1..=16")?
            }
            other => return Err(format!("unknown trace-check option {other:?}")),
        }
    }
    let _ = fs::remove_dir_all(&dir);

    let mut config = CampaignConfig::tiny_faulty();
    config.trace_ring_slots = 256;
    config.trace_dump_dir = Some(dir.clone());
    let registry = Registry::new();
    let tail = TailConfig {
        anon_shards: shards,
        ..TailConfig::default()
    };
    let (report, writer) = Campaign::new(&config)
        .registry(&registry)
        .run_to_writer(
            tail,
            DatasetWriter::new(std::io::sink()).map_err(|e| e.to_string())?,
            |_| {},
        )
        .map_err(|e| format!("campaign failed: {e}"))?;
    let _ = writer.finish();

    let snap = registry.snapshot();
    let crashes = snap.counter("faults.worker.crashes_total");
    if crashes == 0 {
        return Err("fault plan injected no worker crashes — nothing to check".into());
    }

    let mut dumps: Vec<PathBuf> = fs::read_dir(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "etwtrace"))
        .collect();
    dumps.sort();
    if dumps.is_empty() {
        return Err(format!(
            "{crashes} worker crash(es) but no flight dump under {}",
            dir.display()
        ));
    }
    let crash_dump = dumps
        .iter()
        .find(|p| p.to_string_lossy().contains("_crash_"))
        .ok_or("no crash-triggered flight dump among the files written")?;

    let mut events_total = 0usize;
    let mut crash_events = 0usize;
    for p in &dumps {
        let events = trace_file::read_file(p)?;
        if events.is_empty() {
            return Err(format!("{}: empty flight dump", p.display()));
        }
        events_total += events.len();
        crash_events += events
            .iter()
            .filter(|ev| ev.kind() == Some(SpanKind::Crash))
            .count();
    }
    if crash_events == 0 {
        return Err("no CRASH span event in any flight dump".into());
    }

    // The pretty-printer must accept what the recorder wrote: show the
    // head of the crash dump as proof.
    let rendered = trace_file::render_dump(&trace_file::read_file(crash_dump)?);
    println!("--- {} ---", crash_dump.display());
    for line in rendered.lines().take(12) {
        println!("{line}");
    }
    println!("---");

    let mut t = KvTable::new();
    t.row("records", grouped(report.records))
        .row("worker crashes", crashes)
        .row(
            "worker restarts",
            snap.counter("faults.worker.restarts_total"),
        )
        .row("frames shed", grouped(snap.counter("pipeline.shed_total")))
        .row("flight dumps", dumps.len() as u64)
        .row("dumps recorded ok", snap.counter("trace.dumps_total"))
        .row("span events dumped", grouped(events_total as u64))
        .row("CRASH events", crash_events as u64);
    print!("{}", t.render());
    println!("trace-check OK");
    Ok(())
}

fn cmd_decompress(args: &[String]) -> Result<(), String> {
    let [input, output] = args else {
        return Err("usage: decompress <in.etwz> <out.xml>".into());
    };
    let data = fs::read(input).map_err(|e| format!("{input}: {e}"))?;
    let plain = decompress(&data).map_err(|e| format!("{input}: {e}"))?;
    fs::write(output, &plain).map_err(|e| format!("{output}: {e}"))?;
    println!("{} -> {} bytes", data.len(), plain.len());
    Ok(())
}
