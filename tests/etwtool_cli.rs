//! End-to-end tests of the `etwtool` dataset CLI, driving the compiled
//! binary the way a dataset consumer would.

use edonkey_ten_weeks::core::{run_campaign, CampaignConfig, Checkpoint};
use edonkey_ten_weeks::edonkey::ids::FileId;
use edonkey_ten_weeks::xmlout::writer::DatasetWriter;
use std::path::{Path, PathBuf};
use std::process::Command;

fn etwtool() -> Command {
    Command::new(env!("CARGO_BIN_EXE_etwtool"))
}

/// Builds a small dataset file once per test-process.
fn dataset_path(dir: &Path) -> PathBuf {
    let path = dir.join("dataset.xml");
    let file = std::fs::File::create(&path).unwrap();
    let mut w = DatasetWriter::new(std::io::BufWriter::new(file)).unwrap();
    run_campaign(&CampaignConfig::tiny(), |r| w.write_record(&r).unwrap());
    w.finish().unwrap();
    path
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("etwtool-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn validate_stats_head() {
    let dir = tempdir("vsh");
    let ds = dataset_path(&dir);

    let out = etwtool().args(["validate"]).arg(&ds).output().unwrap();
    assert!(out.status.success(), "{:?}", out);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("OK:"), "{text}");
    assert!(text.contains("etw-1.0"));

    let out = etwtool().args(["stats"]).arg(&ds).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("records"), "{text}");
    assert!(text.contains("announcements"));

    let out = etwtool().args(["head"]).arg(&ds).arg("3").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert_eq!(text.lines().count(), 3, "{text}");
    assert!(text.starts_with("#0 AnonRecord"));
}

#[test]
fn compress_decompress_cycle() {
    let dir = tempdir("cdc");
    let ds = dataset_path(&dir);
    let z = dir.join("ds.etwz");
    let back = dir.join("back.xml");

    let out = etwtool()
        .args(["compress"])
        .arg(&ds)
        .arg(&z)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    assert!(z.exists());
    // Compressed file is much smaller.
    let orig = std::fs::metadata(&ds).unwrap().len();
    let packed = std::fs::metadata(&z).unwrap().len();
    assert!(packed * 3 < orig, "{packed} vs {orig}");

    // Tools read .etwz transparently.
    let out = etwtool().args(["validate"]).arg(&z).output().unwrap();
    assert!(out.status.success(), "{out:?}");

    let out = etwtool()
        .args(["decompress"])
        .arg(&z)
        .arg(&back)
        .output()
        .unwrap();
    assert!(out.status.success());
    assert_eq!(
        std::fs::read(&ds).unwrap(),
        std::fs::read(&back).unwrap(),
        "decompressed bytes differ"
    );
}

#[test]
fn split_merge_round_trip() {
    let dir = tempdir("smr");
    let ds = dataset_path(&dir);

    let out = etwtool()
        .args(["split"])
        .arg(&ds)
        .arg("4")
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let parts: Vec<PathBuf> = (0..4)
        .map(|k| dir.join(format!("dataset.part{k}.xml")))
        .collect();
    for p in &parts {
        assert!(p.exists(), "{p:?} missing");
    }

    let merged = dir.join("merged.xml");
    let mut cmd = etwtool();
    cmd.args(["merge"]).arg(&merged);
    for p in &parts {
        cmd.arg(p);
    }
    let out = cmd.output().unwrap();
    assert!(out.status.success(), "{out:?}");

    // Merged dataset validates and has the same record count.
    let out = etwtool().args(["validate"]).arg(&merged).output().unwrap();
    let text = String::from_utf8(out.stdout).unwrap();
    let out2 = etwtool().args(["validate"]).arg(&ds).output().unwrap();
    let text2 = String::from_utf8(out2.stdout).unwrap();
    assert_eq!(text, text2);

    // Merging out of order is rejected (timestamps regress).
    let mut cmd = etwtool();
    cmd.args(["merge"]).arg(dir.join("bad.xml"));
    cmd.arg(&parts[2]).arg(&parts[0]);
    let out = cmd.output().unwrap();
    assert!(!out.status.success(), "out-of-order merge accepted");
}

#[test]
fn bad_usage_fails_cleanly() {
    let out = etwtool().output().unwrap();
    assert!(!out.status.success());
    let out = etwtool()
        .args(["validate", "/nonexistent.xml"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let out = etwtool().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
}

/// A sidecar whose clients count no file could hold is reported as a
/// malformed line 7, and the inspector exits 1: the count is never
/// handed to the allocator.
#[test]
fn checkpoint_inspect_rejects_an_oversized_count() {
    let dir = tempdir("cko");
    let path = dir.join("corrupt.etwckpt");
    let cp = Checkpoint {
        seed: 1,
        virtual_us: 2,
        next_checkpoint_us: 3,
        records: 4,
        writer_bytes: 5,
        client_order: vec![10, 11],
        file_order: vec![FileId([7; 16])],
    };
    let text = cp
        .encode()
        .replacen("clients 2\n", "clients 4000000000000\n", 1);
    assert_eq!(text.lines().nth(6), Some("clients 4000000000000"));
    std::fs::write(&path, text).unwrap();

    let out = etwtool()
        .args(["checkpoint-inspect"])
        .arg(&path)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("line 7"), "{err}");
}

#[test]
fn spec_prints_grammar() {
    let out = etwtool().args(["spec"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("etw-1.0 dataset specification"));
    assert!(text.contains("<dialog"));
}

#[test]
fn monitor_top_shows_blocked_on_downstream() {
    let out = etwtool()
        .args(["monitor", "--tiny", "--top", "--refresh-ms", "50"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("stall\u{2030}"), "{text}");
    assert!(
        text.lines().any(|l| l.trim_start().starts_with("reorder ")),
        "{text}"
    );
}
