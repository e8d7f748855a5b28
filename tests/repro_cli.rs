//! Command-line behaviour of the `repro` binary.

use std::process::Command;

#[test]
fn unknown_experiment_fails_before_running_anything() {
    let out_dir = std::env::temp_dir().join(format!("repro-cli-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out_dir);
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--tiny", "--out"])
        .arg(&out_dir)
        .arg("nosuchexp")
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown experiment"), "{stderr}");
    assert!(!stderr.contains("running campaign"), "{stderr}");
    assert!(!out_dir.exists(), "output dir created for a rejected name");
}
