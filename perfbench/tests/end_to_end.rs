//! Every workload, timed and traced, end to end at a seconds-long size,
//! and `BENCHMARK.json` against the benchmark's own catalogue.

use perfbench::adapter;
use perfbench::check::check_oracle;
use perfbench::replay::traced_run;
use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::timed;
use perfbench::workloads::{self, Workload};
use std::path::PathBuf;
use std::time::Duration;

/// Each workload at a tenth of its clients and virtual time.
fn small(name: &str) -> Workload {
    workloads::by_name(name).expect("known workload").shrunk(10)
}

fn temp_dir(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    std::fs::create_dir_all(&dir).expect("temporary dir");
    dir
}

fn timed_workload(name: &str) {
    let w = small(name);
    let dir = temp_dir(&format!("timed-{name}"));
    let reps = timed::repeat(&w.shape, 11, Duration::ZERO, &dir.join("cut.etwckpt"));
    assert_eq!(reps.len(), timed::MIN_REPS);
    for r in &reps {
        assert_eq!(r.check, Ok(()), "{name}");
        assert!(r.records_per_s() > 0.0 && r.cpu_ns_per_record() > 0.0);
        assert!(r.frames_kept_permille() > 0.0);
        assert_eq!(r.cuts.cuts > 0, w.shape.durable, "{name}: checkpoints");
        let first = reps.iter().find(|x| x.seed == r.seed).unwrap();
        assert_eq!(
            r.outcome.digest, first.outcome.digest,
            "{name}: same seed, same bytes"
        );
    }
    assert_eq!(
        reps[0].seed, 11,
        "the first campaign uses the workload seed"
    );
    assert_eq!(
        reps[timed::SUB_SEEDS as usize].seed,
        11,
        "the first seed runs twice"
    );
    assert_ne!(
        reps[0].outcome.digest, reps[1].outcome.digest,
        "{name}: seeds differ"
    );
    let (digest, records) = adapter::oracle(&w.shape, 11).expect("oracle runs");
    assert_eq!(
        check_oracle(&reps[0].outcome, digest, records),
        Ok(()),
        "{name}"
    );
}

fn traced_workload(name: &str) {
    let w = small(name);
    let dir = temp_dir(&format!("traced-{name}"));
    let spans = dir.join("spans.jsonl");
    let report = traced_run(&w, 11, &dir.join("cut.etwckpt"), &spans);
    assert!(report.correct, "{name}: traced run failed its checks");
    assert_eq!((report.attempted, report.failed), (2, 0));
    let names: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
    let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    assert_eq!(names, expected);
    for (metric, value, _) in &report.metrics {
        assert!(value.is_finite(), "{name}: {metric} = {value}");
    }
    let value = |m: &str| report.metrics.iter().find(|x| x.0 == m).unwrap().1;
    for m in [
        "source.ns_per_frame",
        "workload.ns_per_event",
        "wirepath.ns_per_frame",
        "edonkey.ns_per_datagram",
        "anonymize.ns_per_record",
        "xmlout.encode_ns_per_record",
        "xmlout.write_ns_per_record",
    ] {
        assert!(value(m) > 0.0, "{name}: {m} did no work");
    }
    assert_eq!(value("checkpoint.cuts") > 0.0, w.shape.durable, "{name}");
    assert_eq!(
        value("faults.ns_per_frame") > 0.0,
        w.shape.durable,
        "{name}"
    );
    let text = std::fs::read_to_string(&spans).expect("span file written");
    for layer in [
        "\"wirepath\"",
        "\"edonkey\"",
        "\"anonymize\"",
        "\"xmlout.write\"",
    ] {
        assert!(text.contains(layer), "{name}: no {layer} span");
    }
}

#[test]
fn steady_2k_timed() {
    timed_workload("steady-2k");
}

#[test]
fn wide_20k_timed() {
    timed_workload("wide-20k");
}

#[test]
fn durable_2k_timed() {
    timed_workload("durable-2k");
}

#[test]
fn steady_2k_traced() {
    traced_workload("steady-2k");
}

#[test]
fn wide_20k_traced() {
    traced_workload("wide-20k");
}

#[test]
fn durable_2k_traced() {
    traced_workload("durable-2k");
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let better = |higher| if higher { "higher" } else { "lower" };
    for m in &END_TO_END {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            m.name,
            m.unit,
            better(m.higher_is_better)
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for m in &PER_LAYER {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            m.name,
            m.unit,
            better(m.higher_is_better)
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in &workloads::ALL {
        let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why);
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}
