//! `perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Run from the repository root. Prints progress to stderr and, as the
//! last line of stdout, one JSON object with the run's verdict and
//! metrics: the end-to-end metrics with `--trace 0`, the per-layer ones
//! with `--trace 1`. Checkpoints and span files go under `perfbench-out/`.

use perfbench::report::{Report, END_TO_END};
use perfbench::timed::{self, seed_mean_of_best, Rep};
use perfbench::workloads::{self, Workload};
use perfbench::{adapter, replay};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

/// Default workload seed: the campaign configuration's own default.
const DEFAULT_SEED: u64 = 0xED0;
/// Where checkpoints and span files go, relative to the working directory.
const OUT_DIR: &str = "perfbench-out";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// The timed run: set-up repetitions, then campaigns for `seconds`.
fn timed_run(w: &Workload, seed: u64, seconds: u64, cut_path: &Path) -> Report {
    timed::warm_up(w, seed, cut_path);
    let setup = timed::setup(&adapter::config(&w.shape, seed));
    let reps = timed::repeat(&w.shape, seed, Duration::from_secs(seconds), cut_path);
    let values = [
        (
            "records_per_s",
            seed_mean_of_best(&reps, Rep::records_per_s, true),
        ),
        (
            "cpu_ns_per_record",
            seed_mean_of_best(&reps, Rep::cpu_ns_per_record, false),
        ),
        ("setup_s", (setup.workload + setup.anonymize).as_secs_f64()),
        (
            "peak_rss_mb",
            seed_mean_of_best(&reps, |r| r.peak_rss_mb, false),
        ),
        (
            "frames_kept_permille",
            seed_mean_of_best(&reps, Rep::frames_kept_permille, true),
        ),
    ];
    let failed = reps.iter().filter(|r| r.check.is_err()).count() as u64;
    for (i, r) in reps.iter().enumerate() {
        eprintln!(
            "perfbench: {} seed {} campaign {i}: {} records in {:.3} s ({:.0} records/s, \
             {:.0} cpu-ns/record), {} frames offered, {} lost, {} shed, digest {:016x}{}",
            w.name,
            r.seed,
            r.outcome.records,
            r.wall.as_secs_f64(),
            r.records_per_s(),
            r.cpu_ns_per_record(),
            r.outcome.offered,
            r.outcome.lost,
            r.outcome.shed,
            r.outcome.digest,
            match &r.check {
                Ok(()) => String::new(),
                Err(e) => format!(", CHECK FAILED: {e}"),
            }
        );
    }
    Report {
        correct: failed == 0,
        attempted: reps.len() as u64,
        failed,
        metrics: Report::in_catalogue_order(&END_TO_END.map(|m| (m.name, m.unit)), &values),
    }
}

/// `--workload all`: each workload in a child process of its own (peak
/// memory is per process), one result line per workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in workloads::ALL {
        let out = Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output();
        match out {
            Ok(out) if out.status.success() => {
                let text = String::from_utf8_lossy(&out.stdout);
                let line = text.lines().last().unwrap_or_default();
                ok &= line.contains("\"correct\": true");
                println!("{} {line}", w.name);
            }
            Ok(out) => {
                ok = false;
                eprintln!("perfbench: {} exited with {}", w.name, out.status);
            }
            Err(e) => {
                ok = false;
                eprintln!("perfbench: cannot run {}: {e}", w.name);
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(w) = workloads::by_name(&args.workload) else {
        let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload {}; known: {}",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let run_dir = PathBuf::from(OUT_DIR).join(format!("{}-{}", w.name, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("perfbench: cannot create {}: {e}", run_dir.display());
        return ExitCode::FAILURE;
    }
    let cut_path = run_dir.join("campaign.etwckpt");
    let report = if args.trace {
        let spans =
            PathBuf::from(OUT_DIR).join(format!("spans-{}-seed{}.jsonl", w.name, args.seed));
        let r = replay::traced_run(&w, args.seed, &cut_path, &spans);
        eprintln!("perfbench: spans written to {}", spans.display());
        r
    } else {
        timed_run(&w, args.seed, args.seconds, &cut_path)
    };
    // The checkpoint sidecar is temporary; the span file is the output.
    let _ = std::fs::remove_dir_all(&run_dir);
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
