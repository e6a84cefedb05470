//! Crash-matrix driver: brute-forces a crash at every write index of the
//! scripted DBFS and sharded workloads and reports violations.
//!
//! Run with `cargo run --release -p rgpdos-bench --bin crashgrind --
//! [--seed <n>] [--json <path>]`.  The seed (echoed below) fully determines
//! the pseudo-random workload, so any CI failure reproduces locally with
//! the same flags.  Exits non-zero when any crash point violates a GDPR
//! durability invariant.

use rgpdos_bench::crashgrind::{run_all, SweepReport};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag_value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let seed: u64 = flag_value("--seed")
        .map(|raw| {
            let raw = raw.trim();
            match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16).expect("hex seed"),
                None => raw.parse().expect("decimal seed"),
            }
        })
        .unwrap_or(0xC0FF_EE00);
    let json_path = flag_value("--json");

    println!("rgpdOS crash-matrix (crashgrind)");
    println!("================================");
    println!("seed = {seed:#x} (pass --seed {seed:#x} to reproduce)\n");

    let reports = run_all(seed);
    let mut failed = false;
    for report in &reports {
        println!(
            "{:<12} crash points: {:>5}  journal replays: {:>4}  recovered: {:>4}  sanitizer: {:>3}  leaked: {:>3}  -> {}",
            report.scenario,
            report.crash_points,
            report.journal_replays,
            report.recovered_txs,
            report.sanitizer_reports,
            report.leaked_blocks,
            if report.passed() { "PASS" } else { "FAIL" }
        );
        for violation in &report.violations {
            failed = true;
            println!("    violation: {violation}");
        }
    }

    if let Some(path) = json_path {
        #[derive(serde::Serialize)]
        struct CrashMatrix {
            /// Shared report format version (`rgpdos::trace::SCHEMA_VERSION`).
            schema_version: u32,
            seed: u64,
            sweeps: Vec<SweepReport>,
        }
        let json = serde_json::to_string_pretty(&CrashMatrix {
            schema_version: rgpdos::trace::SCHEMA_VERSION,
            seed,
            sweeps: reports,
        })
        .expect("serialize crash matrix");
        if let Some(dir) = std::path::Path::new(&path).parent() {
            std::fs::create_dir_all(dir).expect("create report directory");
        }
        std::fs::write(&path, json).expect("write crash matrix");
        println!("\n(machine-readable crash matrix written to {path})");
    }

    if failed {
        std::process::exit(1);
    }
}
