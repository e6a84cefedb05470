//! The `experiments` driver refuses flags it does not know, so a stale
//! invocation (`--s3` and friends moved to `rgpdbench`) cannot pass for a
//! successful run that printed nothing.

use std::process::Command;

fn experiments(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("spawn the experiments binary")
}

#[test]
fn unknown_flags_exit_2_and_list_the_valid_ones() {
    for stale in [&["--s3"][..], &["--fig1", "--json", "out.json"]] {
        let output = experiments(stale);
        assert_eq!(output.status.code(), Some(2), "{stale:?} must be refused");
        assert!(output.stdout.is_empty(), "{stale:?} ran a series anyway");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("unknown flag"), "{stderr}");
        assert!(stderr.contains("--fig1") && stderr.contains("--ablations"));
    }
}

#[test]
fn a_known_flag_runs_its_series_only() {
    let output = experiments(&["--fig1"]);
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("--- F1:"), "{stdout}");
    assert!(!stdout.contains("--- F2:"), "{stdout}");
}
