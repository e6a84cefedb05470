//! `rgpdbench run`: every workload in child processes, medians over the
//! repeats, a printed table and `reports/rgpdbench/<label>.json`.
//! `rgpdbench compare`: two such files against the bounds of
//! `BENCHMARK.json`.

use crate::bench::{median, RunResult, END_TO_END};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Stat {
    pub unit: String,
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub values: Vec<f64>,
}

impl Stat {
    fn of(unit: &str, values: Vec<f64>) -> Self {
        Self {
            unit: unit.to_owned(),
            median: median(&values),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            values,
        }
    }

    /// Run-to-run spread as a share of the median: the distance between the
    /// quartiles from four values up, else between the extremes.
    fn spread(&self) -> f64 {
        if self.median == 0.0 || self.values.len() < 2 {
            return 0.0;
        }
        let width = if self.values.len() >= 4 {
            let (q1, q3) = quartiles(&self.values);
            q3 - q1
        } else {
            self.max - self.min
        };
        width / self.median.abs()
    }
}

/// First and third quartile, as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |k: usize| -> f64 {
        let position = k as f64 * (n + 1) as f64 / 4.0;
        let below = (position.floor() as usize).clamp(1, n - 1);
        let fraction = position - below as f64;
        sorted[below - 1] + fraction * (sorted[below] - sorted[below - 1])
    };
    (at(1), at(3))
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadReport {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: BTreeMap<String, Stat>,
    pub per_layer: BTreeMap<String, Stat>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Report {
    pub label: String,
    pub seed: u64,
    pub seconds: u64,
    pub repeats: usize,
    pub smoke: bool,
    /// `std::thread::available_parallelism` where the report was made.
    pub cpus: usize,
    pub workloads: BTreeMap<String, WorkloadReport>,
}

pub struct RunOptions {
    pub workloads: Vec<String>,
    pub seed: u64,
    pub seconds: u64,
    pub repeats: usize,
    pub trace: bool,
    pub smoke: bool,
    pub label: String,
}

/// One child process per workload and repeat, so that `peak_rss_mib` is the
/// workload's own.
fn child(workload: &str, options: &RunOptions, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if options.smoke {
        command.arg("--smoke");
    }
    let output = command.output().map_err(|e| format!("spawn: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload}: the run failed ({}):\n{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: the run printed nothing"))?;
    serde_json::from_str(last).map_err(|e| format!("{workload}: bad result line: {e}"))
}

fn collect_stats(runs: &[RunResult]) -> BTreeMap<String, Stat> {
    let mut stats = BTreeMap::new();
    let Some(first) = runs.first() else {
        return stats;
    };
    for (name, measured) in &first.metrics {
        let values = runs
            .iter()
            .filter_map(|run| run.metrics.get(name).map(|m| m.value))
            .collect();
        stats.insert(name.clone(), Stat::of(&measured.unit, values));
    }
    stats
}

fn print_table(title: &str, stats: &BTreeMap<String, Stat>, order: &[String]) {
    println!("  {title}");
    println!(
        "    {:<40} {:>16} {:>16} {:>16}  unit",
        "metric", "median", "min", "max"
    );
    for name in order {
        if let Some(stat) = stats.get(name) {
            println!(
                "    {:<40} {:>16.4} {:>16.4} {:>16.4}  {}",
                name, stat.median, stat.min, stat.max, stat.unit
            );
        }
    }
}

pub fn run(options: &RunOptions) -> Result<Report, String> {
    let mut report = Report {
        label: options.label.clone(),
        seed: options.seed,
        seconds: options.seconds,
        repeats: options.repeats,
        smoke: options.smoke,
        cpus: std::thread::available_parallelism().map_or(1, usize::from),
        workloads: BTreeMap::new(),
    };
    let end_to_end_order: Vec<String> = END_TO_END.iter().map(|(n, _)| (*n).to_owned()).collect();
    let per_layer_order: Vec<String> = crate::bench::per_layer_names()
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    for workload in &options.workloads {
        let mut plain = Vec::new();
        for _ in 0..options.repeats {
            plain.push(child(workload, options, false)?);
        }
        let traced = if options.trace {
            vec![child(workload, options, true)?]
        } else {
            Vec::new()
        };
        let attempted: u64 = plain.iter().map(|r| r.attempted).sum();
        let failed: u64 = plain.iter().map(|r| r.failed).sum();
        let mut end_to_end = collect_stats(&plain);
        // The twelfth end-to-end metric: not in BENCHMARK.json, whose bounds
        // are shares of a median and this one's median is zero.
        end_to_end.insert(
            "failed_ops_share".to_owned(),
            Stat::of(
                "ratio",
                plain
                    .iter()
                    .map(|r| r.failed as f64 / r.attempted.max(1) as f64)
                    .collect(),
            ),
        );
        let per_layer = collect_stats(&traced);
        println!(
            "{workload}: {} run(s), {attempted} requests attempted, {failed} failed",
            plain.len()
        );
        let mut order = end_to_end_order.clone();
        order.push("failed_ops_share".to_owned());
        print_table("end to end", &end_to_end, &order);
        if options.trace {
            print_table("per layer (traced pass)", &per_layer, &per_layer_order);
        }
        report.workloads.insert(
            workload.clone(),
            WorkloadReport {
                attempted,
                failed,
                end_to_end,
                per_layer,
            },
        );
    }
    let dir = Path::new("reports/rgpdbench");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}.json", options.label));
    let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("(report written to {})", path.display());
    Ok(report)
}

// ---------------------------------------------------------------------------
// BENCHMARK.json
// ---------------------------------------------------------------------------

// `compare` reads the bounds; the other fields are read by the test that
// holds BENCHMARK.json against the metric and workload lists in the code.
#[cfg_attr(not(test), allow(dead_code))]
#[derive(Debug, Clone, Deserialize)]
pub struct WorkloadEntry {
    pub name: String,
    pub why: String,
}

#[cfg_attr(not(test), allow(dead_code))]
#[derive(Debug, Clone, Deserialize)]
pub struct BoundedMetric {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub bound: f64,
}

#[cfg_attr(not(test), allow(dead_code))]
#[derive(Debug, Clone, Deserialize)]
pub struct LayerMetric {
    pub name: String,
    pub unit: String,
    pub better: String,
}

#[cfg_attr(not(test), allow(dead_code))]
#[derive(Debug, Clone, Deserialize)]
pub struct BenchmarkFile {
    pub command: Vec<String>,
    pub paths: Vec<String>,
    pub run_seconds: u64,
    pub workloads: Vec<WorkloadEntry>,
    pub end_to_end: Vec<BoundedMetric>,
    pub per_layer: Vec<LayerMetric>,
}

pub fn load_benchmark_file(path: &Path) -> Result<BenchmarkFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn load_report(path: &Path) -> Result<Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

// ---------------------------------------------------------------------------
// compare
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `b` against `a`.  `worse` is how much worse `b`'s median is, as a share
/// of `a`'s.  A metric whose runs spread wider than its bound cannot show
/// "no worse": it is unresolved unless every run of one side beats every
/// run of the other.
pub fn verdict(a: &Stat, b: &Stat, higher_is_better: bool, bound: f64) -> (f64, Verdict) {
    let sign = if higher_is_better { -1.0 } else { 1.0 };
    let worse = if a.median == 0.0 {
        0.0
    } else {
        sign * (b.median - a.median) / a.median.abs()
    };
    let (b_all_better, b_all_worse) = if higher_is_better {
        (b.min > a.max, b.max < a.min)
    } else {
        (b.max < a.min, b.min > a.max)
    };
    let noisy = a.spread().max(b.spread()) > bound;
    let verdict = if worse > bound && (!noisy || b_all_worse) {
        Verdict::Regressed
    } else if noisy && !b_all_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

/// Prints one row per (workload, end-to-end metric); `Ok(true)` when no row
/// regressed.
pub fn compare(a_path: &Path, b_path: &Path, benchmark: &Path) -> Result<bool, String> {
    let a = load_report(a_path)?;
    let b = load_report(b_path)?;
    let file = load_benchmark_file(benchmark)?;
    if (a.seconds, a.smoke) != (b.seconds, b.smoke) {
        return Err(format!(
            "the reports were made with different settings: {} s{} against {} s{}",
            a.seconds,
            if a.smoke { " smoke" } else { "" },
            b.seconds,
            if b.smoke { " smoke" } else { "" }
        ));
    }
    println!(
        "{:<11} {:<18} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "bound"
    );
    let (mut regressed, mut unresolved) = (0, 0);
    for workload in &file.workloads {
        let (Some(wa), Some(wb)) = (
            a.workloads.get(&workload.name),
            b.workloads.get(&workload.name),
        ) else {
            return Err(format!(
                "workload {} is missing from a report",
                workload.name
            ));
        };
        for metric in &file.end_to_end {
            let (Some(sa), Some(sb)) = (
                wa.end_to_end.get(&metric.name),
                wb.end_to_end.get(&metric.name),
            ) else {
                return Err(format!(
                    "{}: metric {} is missing from a report",
                    workload.name, metric.name
                ));
            };
            let (worse, verdict) = verdict(sa, sb, metric.better == "higher", metric.bound);
            match verdict {
                Verdict::Regressed => regressed += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Ok => {}
            }
            println!(
                "{:<11} {:<18} {:>14.4} {:>14.4} {:>8.2}% {:>6.1}%  {}",
                workload.name,
                metric.name,
                sa.median,
                sb.median,
                worse * 100.0,
                metric.bound * 100.0,
                verdict.name()
            );
        }
        // Failures have no bound: any increase is a regression.
        let share = |w: &WorkloadReport| w.failed as f64 / w.attempted.max(1) as f64;
        let failed_more = share(wb) > share(wa);
        if failed_more {
            regressed += 1;
        }
        println!(
            "{:<11} {:<18} {:>14.6} {:>14.6} {:>9} {:>7}  {}",
            workload.name,
            "failed_ops_share",
            share(wa),
            share(wb),
            "",
            "none",
            if failed_more { "regressed" } else { "ok" }
        );
    }
    println!("{regressed} regressed, {unresolved} unresolved");
    Ok(regressed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(values: &[f64]) -> Stat {
        Stat::of("us", values.to_vec())
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 8.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 4.5));
    }

    #[test]
    fn verdicts() {
        let base = stat(&[100.0, 101.0, 99.0]);
        assert_eq!(
            verdict(&base, &stat(&[104.0, 105.0, 103.0]), false, 0.10).1,
            Verdict::Ok
        );
        assert_eq!(
            verdict(&base, &stat(&[120.0, 121.0, 119.0]), false, 0.10).1,
            Verdict::Regressed
        );
        // Higher is better: a drop is the regression.
        assert_eq!(
            verdict(&base, &stat(&[80.0, 81.0, 79.0]), true, 0.10).1,
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&base, &stat(&[120.0, 121.0, 119.0]), true, 0.10).1,
            Verdict::Ok
        );
        // Spread wider than the bound: unresolved, unless one side wins
        // every run.
        let noisy = stat(&[80.0, 100.0, 125.0]);
        assert_eq!(verdict(&base, &noisy, false, 0.10).1, Verdict::Unresolved);
        assert_eq!(
            verdict(&noisy, &stat(&[60.0, 70.0, 75.0]), false, 0.10).1,
            Verdict::Ok
        );
        assert_eq!(
            verdict(&noisy, &stat(&[150.0, 170.0, 200.0]), false, 0.10).1,
            Verdict::Regressed
        );
    }
}
