//! `rgpdbench` — the committed benchmark of the rgpdOS reproduction.
//!
//! ```text
//! rgpdbench --workload <name> --seed <n> --seconds <n> --trace <0|1> [--smoke]
//! rgpdbench run (--all | --workload <name>...) [--seed n] [--seconds n]
//!               [--repeats n] [--trace] [--smoke] [--label name]
//! rgpdbench compare <A.json> <B.json> [--benchmark BENCHMARK.json]
//! rgpdbench selftest [--seconds n | --smoke]
//! rgpdbench metrics
//! ```
//!
//! The first form is the driver contract of `BENCHMARK.json`: one workload,
//! one process, the result object on the last line of standard output.
//! `run` spawns that form once per workload and repeat.  See `README.md`.

#![forbid(unsafe_code)]

mod bench;
mod driver;
mod layers;
mod probes;
mod report;
mod rng;
mod span;
mod stream;
mod sut;

use bench::NOMINAL_SECONDS;
use std::path::PathBuf;
use std::process::ExitCode;
use stream::{Scale, SMOKE, WORKLOADS};

/// The day the GDPR became applicable.
const DEFAULT_SEED: u64 = 0x2018_0525;

const USAGE: &str = "usage:
  rgpdbench --workload <name> --seed <n> --seconds <n> --trace <0|1> [--smoke]
  rgpdbench run (--all | --workload <name>...) [--seed n] [--seconds n] [--repeats n] [--trace] [--smoke] [--label name]
  rgpdbench compare <A.json> <B.json> [--benchmark BENCHMARK.json]
  rgpdbench selftest [--seconds n | --smoke]
  rgpdbench metrics
workloads: ingest processing rights sharded contended";

/// Why an invocation ended without its result.
enum Failure {
    /// The command line was wrong: exit 2, with the usage text.
    Usage(String),
    /// The run, a check of its outputs or a file failed: exit 1.
    Run(String),
}

/// Every plain-text error raised in this file is about the command line.
impl From<String> for Failure {
    fn from(message: String) -> Self {
        Failure::Usage(message)
    }
}

fn parse_u64(flag: &str, text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|_| format!("{flag}: `{text}` is not a whole number"))
}

/// Flags of one invocation, parsed strictly: an unknown flag, a flag without
/// its value or an unknown workload is an error.
#[derive(Debug, Default)]
struct Args {
    workloads: Vec<String>,
    all: bool,
    seed: Option<u64>,
    seconds: Option<u64>,
    repeats: Option<u64>,
    trace: Option<String>,
    smoke: bool,
    label: Option<String>,
    benchmark: Option<String>,
    positional: Vec<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                if stream::workload(&name).is_none() {
                    return Err(format!("unknown workload `{name}`"));
                }
                parsed.workloads.push(name);
            }
            "--all" => parsed.all = true,
            "--seed" => parsed.seed = Some(parse_u64("--seed", &value("--seed")?)?),
            "--seconds" => parsed.seconds = Some(parse_u64("--seconds", &value("--seconds")?)?),
            "--repeats" => parsed.repeats = Some(parse_u64("--repeats", &value("--repeats")?)?),
            // `--trace 0|1` in the driver contract, a bare `--trace` in `run`.
            "--trace" => {
                parsed.trace = Some(match iter.next_if(|next| !next.starts_with("--")) {
                    Some(given) => given.clone(),
                    None => "1".to_owned(),
                })
            }
            "--smoke" => parsed.smoke = true,
            "--label" => parsed.label = Some(value("--label")?),
            "--benchmark" => parsed.benchmark = Some(value("--benchmark")?),
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            _ => parsed.positional.push(arg.clone()),
        }
    }
    Ok(parsed)
}

fn scale(smoke: bool, seconds: u64) -> Scale {
    if smoke {
        SMOKE
    } else {
        Scale {
            stream: seconds as f64 / NOMINAL_SECONDS as f64,
            population: 1.0,
        }
    }
}

fn seconds_of(args: &Args) -> Result<u64, String> {
    match args.seconds {
        Some(0) => Err("--seconds must be at least 1".to_owned()),
        Some(seconds) => Ok(seconds),
        None => Ok(NOMINAL_SECONDS),
    }
}

fn trace_of(args: &Args) -> Result<bool, String> {
    match args.trace.as_deref() {
        None | Some("0") => Ok(false),
        Some("1") => Ok(true),
        Some(other) => Err(format!("--trace takes 0 or 1, not `{other}`")),
    }
}

/// The driver contract: one workload, the result object on the last line.
fn single(args: &Args) -> Result<ExitCode, Failure> {
    let [name] = args.workloads.as_slice() else {
        return Err("exactly one --workload".to_owned().into());
    };
    if args.all || args.repeats.is_some() || args.label.is_some() || !args.positional.is_empty() {
        return Err("--all, --repeats and --label belong to `run`"
            .to_owned()
            .into());
    }
    let trace = trace_of(args)?;
    let workload = stream::workload(name).expect("checked while parsing");
    let seconds = seconds_of(args)?;
    let result = bench::run(
        workload,
        args.seed.unwrap_or(DEFAULT_SEED),
        scale(args.smoke, seconds),
        trace,
    )
    .map_err(Failure::Run)?;
    let line = serde_json::to_string(&result).map_err(|e| Failure::Run(e.to_string()))?;
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

fn run(args: &Args) -> Result<ExitCode, Failure> {
    if args.all != args.workloads.is_empty() {
        return Err("`run` takes either --all or one or more --workload"
            .to_owned()
            .into());
    }
    if args.benchmark.is_some() || !args.positional.is_empty() {
        return Err(format!("`run` takes no `{}`", args.positional.join(" ")).into());
    }
    let trace = trace_of(args)?;
    let workloads = if args.all {
        WORKLOADS.iter().map(|w| w.name.to_owned()).collect()
    } else {
        args.workloads.clone()
    };
    let options = report::RunOptions {
        workloads,
        seed: args.seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds_of(args)?,
        repeats: args.repeats.unwrap_or(3).max(1) as usize,
        trace,
        smoke: args.smoke,
        label: args
            .label
            .clone()
            .unwrap_or_else(|| if args.smoke { "smoke" } else { "run" }.to_owned()),
    };
    let report = report::run(&options).map_err(Failure::Run)?;
    let failed: u64 = report.workloads.values().map(|w| w.failed).sum();
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare(args: &Args) -> Result<ExitCode, Failure> {
    let [a, b] = args.positional.as_slice() else {
        return Err("`compare` takes two report files".to_owned().into());
    };
    let benchmark = PathBuf::from(args.benchmark.as_deref().unwrap_or("BENCHMARK.json"));
    let clean =
        report::compare(&PathBuf::from(a), &PathBuf::from(b), &benchmark).map_err(Failure::Run)?;
    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Same seed, same counts: every one-client workload twice on one seed must
/// repeat its count-derived metrics and device counters exactly, and a
/// second seed must stay within the bounds of `BENCHMARK.json`.
fn selftest(args: &Args) -> Result<ExitCode, Failure> {
    const EXACT: [&str; 3] = ["sim_io_us_per_op", "write_amp", "space_amp"];
    let seconds = args.seconds.unwrap_or(2).max(1);
    let scale = scale(args.smoke, seconds);
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let benchmark = PathBuf::from(args.benchmark.as_deref().unwrap_or("BENCHMARK.json"));
    let bounds = report::load_benchmark_file(&benchmark).map_err(Failure::Run)?;
    let measure =
        |workload, seed, trace| bench::run(workload, seed, scale, trace).map_err(Failure::Run);
    let mut clean = true;
    for workload in &WORKLOADS {
        // Counts repeat exactly only where one thread drives the store.
        let plan = (workload.plan)(seed, scale);
        if plan.clients.len() + usize::from(plan.reader.is_some()) > 1 {
            continue;
        }
        let first = measure(workload, seed, false)?;
        let again = measure(workload, seed, false)?;
        let other = measure(workload, seed ^ 0x5EED, false)?;
        for name in EXACT {
            let (a, b, c) = (
                first.metrics[name].value,
                again.metrics[name].value,
                other.metrics[name].value,
            );
            let same = a.to_bits() == b.to_bits();
            let bound = bounds
                .end_to_end
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.bound);
            let drift = (c - a).abs() / a;
            let within = drift <= bound || args.smoke;
            println!(
                "{:<11} {name:<18} {a:>14.6} {b:>14.6} {}  other seed {c:>14.6} ({:+.3}% of a {:.1}% bound{})",
                workload.name,
                if same { "identical" } else { "DIFFERENT" },
                drift * 100.0,
                bound * 100.0,
                if args.smoke { ", not enforced at smoke size" } else { "" }
            );
            clean &= same && within;
        }
        let traced = measure(workload, seed, true)?;
        let traced_again = measure(workload, seed, true)?;
        for (name, measured) in traced
            .metrics
            .iter()
            .filter(|(n, _)| n.starts_with("blockdev.") && !n.ends_with("busy_us"))
        {
            let same = measured.value.to_bits() == traced_again.metrics[name].value.to_bits();
            if !same {
                println!("{:<11} {name} DIFFERENT on the same seed", workload.name);
            }
            clean &= same;
        }
        println!("{:<11} blockdev.* counts compared", workload.name);
    }
    println!("selftest {}", if clean { "passed" } else { "FAILED" });
    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn dispatch(args: &[String]) -> Result<ExitCode, Failure> {
    match args.first().map(String::as_str) {
        Some("run") => run(&parse(&args[1..])?),
        Some("compare") => compare(&parse(&args[1..])?),
        Some("selftest") => selftest(&parse(&args[1..])?),
        Some("metrics") if args.len() == 1 => {
            for (name, unit) in bench::END_TO_END {
                println!("end_to_end\t{name}\t{unit}");
            }
            for (name, unit) in bench::per_layer_names() {
                println!("per_layer\t{name}\t{unit}");
            }
            Ok(ExitCode::SUCCESS)
        }
        Some(flag) if flag.starts_with("--") => single(&parse(args)?),
        Some(other) => Err(format!("unknown command `{other}`").into()),
        None => Err("no command".to_owned().into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(Failure::Usage(error)) => {
            eprintln!("rgpdbench: {error}\n{USAGE}");
            ExitCode::from(2)
        }
        Err(Failure::Run(error)) => {
            eprintln!("rgpdbench: {error}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn the_command_line_is_strict() {
        assert!(parse(&args(&["--workload", "ingest", "--seed", "0x10"])).is_ok());
        for bad in [
            &["--bogus"][..],
            &["--workload", "nonesuch"],
            &["--workload"],
            &["--seed", "ten"],
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} must be refused");
        }
        assert!(dispatch(&args(&["frobnicate"])).is_err());
        assert!(dispatch(&args(&["run"])).is_err());
        assert!(dispatch(&args(&["run", "--all", "--workload", "ingest"])).is_err());
        assert!(dispatch(&args(&["--workload", "ingest", "--trace", "2"])).is_err());
        assert!(dispatch(&args(&["compare", "only-one.json"])).is_err());
        let bare = parse(&args(&["--all", "--trace", "--label", "x"])).expect("bare --trace");
        assert_eq!(bare.trace.as_deref(), Some("1"));
        assert_eq!(bare.label.as_deref(), Some("x"));
    }

    /// Runs every workload at smoke size, both passes, and holds the result
    /// objects against `BENCHMARK.json`.  One test, because the span
    /// recorder is process-wide.
    #[test]
    fn smoke_results_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let file = report::load_benchmark_file(&path).expect("BENCHMARK.json loads");
        assert_eq!(file.run_seconds, NOMINAL_SECONDS);
        assert_eq!(file.paths, ["rgpdbench"]);
        assert!(file
            .command
            .iter()
            .any(|part| part == "rgpdbench/Cargo.toml"));
        let listed: Vec<&str> = file.workloads.iter().map(|w| w.name.as_str()).collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(listed, ours);
        assert!(file
            .workloads
            .iter()
            .all(|w| !w.why.is_empty() && w.why.len() <= 200));

        let end_to_end: Vec<(&str, &str)> = file
            .end_to_end
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect();
        assert_eq!(end_to_end, bench::END_TO_END);
        for metric in &file.end_to_end {
            assert!(
                metric.bound > 0.0 && metric.bound <= 0.25,
                "{}",
                metric.name
            );
            assert!(matches!(metric.better.as_str(), "lower" | "higher"));
        }
        let per_layer: Vec<(String, String)> = file
            .per_layer
            .iter()
            .map(|m| (m.name.clone(), m.unit.clone()))
            .collect();
        let ours: Vec<(String, String)> = bench::per_layer_names()
            .into_iter()
            .map(|(name, unit)| (name, unit.to_owned()))
            .collect();
        assert_eq!(per_layer, ours);
        assert!(per_layer.len() <= 128);
        assert!(file
            .per_layer
            .iter()
            .all(|m| matches!(m.better.as_str(), "lower" | "higher")));

        for workload in &WORKLOADS {
            for (trace, expected) in [(false, &end_to_end.len()), (true, &per_layer.len())] {
                let result = bench::run(workload, DEFAULT_SEED, SMOKE, trace)
                    .unwrap_or_else(|e| panic!("{} (trace {trace}): {e}", workload.name));
                assert!(result.correct, "{}", workload.name);
                assert_eq!(result.failed, 0, "{}", workload.name);
                assert!(result.attempted > 0);
                assert_eq!(result.metrics.len(), *expected, "{}", workload.name);
                for (name, measured) in &result.metrics {
                    assert!(well_formed(name), "{name}");
                    assert!(!measured.unit.is_empty(), "{name} has no unit");
                    assert!(measured.value.is_finite(), "{name} = {}", measured.value);
                    let listed = if trace {
                        per_layer
                            .iter()
                            .any(|(n, u)| n == name && *u == measured.unit)
                    } else {
                        end_to_end.contains(&(name.as_str(), measured.unit.as_str()))
                    };
                    assert!(
                        listed,
                        "{name} [{}] is not in BENCHMARK.json",
                        measured.unit
                    );
                    if !trace {
                        assert!(measured.value > 0.0, "{}: {name} is zero", workload.name);
                    }
                }
            }
        }
    }
}
