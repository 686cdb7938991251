//! Where run logs land: without `DANCE_RUN_DIR`, a binary writes its run
//! log under `results/runs/` in the directory it runs from, never into the
//! checkout it was built from.

use std::process::Command;

#[test]
fn campaign_run_log_lands_under_the_working_directory() {
    let dir = std::env::temp_dir().join(format!("dance_run_log_cwd_{}", std::process::id()));
    let _fresh = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the working directory");
    let out = Command::new(env!("CARGO_BIN_EXE_dance_campaign"))
        .args(["--lambda2", "0.1", "--seeds", "0", "--envelopes", "edge"])
        .args(["--epochs", "1", "--batch", "16", "--dir", "campaign"])
        .current_dir(&dir)
        .env_remove("DANCE_RUN_DIR")
        .env("DANCE_TELEMETRY", "on")
        .output()
        .expect("dance_campaign starts");
    assert!(
        out.status.success(),
        "dance_campaign failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let runs = dir.join("results/runs");
    let logs: Vec<String> = std::fs::read_dir(&runs)
        .unwrap_or_else(|e| panic!("no run log directory at {}: {e}", runs.display()))
        .filter_map(Result::ok)
        .map(|entry| entry.file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("campaign-") && name.ends_with(".jsonl"))
        .collect();
    assert_eq!(
        logs.len(),
        1,
        "campaign run logs under {}: {logs:?}",
        runs.display()
    );
    let _cleanup = std::fs::remove_dir_all(&dir);
}
