//! One run of one workload: the untraced pass that yields the end-to-end
//! metrics and, when asked, the traced pass and the probes that yield the
//! per-layer ones.

use crate::driver::{self, ClientResult, EndState, StoreCounters, StreamOutcome};
use crate::layers::{self, Summary};
use crate::probes;
use crate::report::quartiles;
use crate::span::{self, Layer, Span};
use crate::stream::{Kind, Plan, Scale, Workload};
use crate::sut::{Backend, Sut, TracedDevice, TracedOs};
use rgpdos::dbfs::Dbfs;
use rgpdos::shard::ShardedDbfs;
use rgpdos::{RgpdOs, ShardedRgpdOs};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Instant;

/// `--seconds` of the driver contract at which the streams have the lengths
/// frozen in `stream.rs`; equal to `run_seconds` in `BENCHMARK.json`.
pub const NOMINAL_SECONDS: u64 = 8;

/// `(name, unit)` of every end-to-end metric, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("read_p50_us", "us"),
    ("write_p50_us", "us"),
    ("sim_io_us_per_op", "us"),
    ("write_amp", "ratio"),
    ("space_amp", "ratio"),
    ("remount_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Measured {
    pub value: f64,
    pub unit: String,
}

pub type Metrics = BTreeMap<String, Measured>;

/// The last line a run prints: the driver contract's result object.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

fn put(metrics: &mut Metrics, name: impl Into<String>, value: f64, unit: &str) {
    metrics.insert(
        name.into(),
        Measured {
            value,
            unit: unit.to_owned(),
        },
    );
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The mount time a run reports: the first quartile of its mounts.  What
/// else the box does only ever adds to a mount, so the low side of a run's
/// mounts is the program's cost and the high side the box's.
fn mount_ms(times: &[f64]) -> f64 {
    quartiles(times).0
}

/// Nearest-rank percentile of sorted nanosecond samples, in microseconds.
fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted_ns.len() as f64).ceil() as usize).clamp(1, sorted_ns.len());
    sorted_ns[rank - 1] as f64 / 1e3
}

fn sorted_latencies(clients: &[ClientResult], keep: impl Fn(Kind) -> bool) -> Vec<u64> {
    let mut ns: Vec<u64> = clients
        .iter()
        .flat_map(|c| c.samples.iter())
        .filter(|(kind, _)| keep(*kind))
        .map(|&(_, ns)| ns)
        .collect();
    ns.sort_unstable();
    ns
}

fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| format!("VmHWM: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1_024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// Everything one pass measured.
struct Pass {
    setup_s: Vec<f64>,
    outcome: StreamOutcome,
    end: EndState,
    remount_ms: Vec<f64>,
    counters: StoreCounters,
    imbalance: f64,
    spans: Vec<Span>,
}

fn counters_delta(after: StoreCounters, before: StoreCounters) -> StoreCounters {
    StoreCounters {
        journal_txs: after.journal_txs - before.journal_txs,
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
        allocated_blocks: after.allocated_blocks,
        index_lock_holds: after.index_lock_holds - before.index_lock_holds,
        snapshot_epochs: after.snapshot_epochs - before.snapshot_epochs,
    }
}

fn pass<T: Sut>(plan: &Plan, setup_reps: usize) -> Result<Pass, String> {
    let mut setup_s = Vec::with_capacity(setup_reps);
    let mut ready = None;
    for _ in 0..setup_reps {
        // The previous instance goes first, so only one is resident.
        drop(ready.take());
        let preload = plan.preload.clone();
        let start = Instant::now();
        let instance = driver::setup::<T>(plan, preload)?;
        setup_s.push(start.elapsed().as_secs_f64());
        ready = Some(instance);
    }
    let ready = ready.ok_or("a pass needs at least one set-up")?;
    let streams = plan.clients.clone();
    let reader = plan.reader.clone();
    if T::TRACED {
        // Set-up spans are not part of the stream.
        span::drain();
    }
    let before = driver::store_counters(ready.sut.backend());
    let outcome = driver::run_streams(&ready, streams, reader);
    let after = driver::store_counters(ready.sut.backend());
    let spans = if T::TRACED { span::drain() } else { Vec::new() };
    if let Some(error) = outcome.clients.iter().find_map(|c| c.first_error.as_ref()) {
        eprintln!(
            "rgpdbench: {} request(s) failed, the first: {error}",
            outcome.failed()
        );
    }
    let end = driver::check_end_state(&ready, plan, &outcome)?;
    let imbalance = ready.sut.backend().imbalance();
    let remount_ms = driver::remount(ready, &end)?;
    Ok(Pass {
        setup_s,
        outcome,
        end,
        remount_ms,
        counters: counters_delta(after, before),
        imbalance,
        spans,
    })
}

fn end_to_end(pass: &Pass) -> Result<Metrics, String> {
    let mut metrics = Metrics::new();
    let outcome = &pass.outcome;
    let fixed = outcome.fixed_requests() as f64;
    let reads = sorted_latencies(&outcome.clients, |k| !k.is_write());
    let writes = sorted_latencies(&outcome.clients, Kind::is_write);
    let payload = outcome.sum(|c| c.payload_bytes) as f64;
    let value = |name: &str| -> f64 {
        match name {
            "setup_s" => median(&pass.setup_s),
            "ops_per_s" => outcome.requests() as f64 / outcome.wall_s,
            "read_p50_us" => percentile_us(&reads, 0.50),
            "write_p50_us" => percentile_us(&writes, 0.50),
            // Device-model time per request of the fixed streams: the
            // looping reader of `contended` adds device time, not requests.
            "sim_io_us_per_op" => outcome.device.simulated_us as f64 / fixed,
            "write_amp" => driver::block_bytes(outcome.device.writes) / payload,
            "space_amp" => {
                driver::block_bytes(pass.counters.allocated_blocks)
                    / pass.end.space.live_bytes as f64
            }
            "remount_ms" => mount_ms(&pass.remount_ms),
            _ => unreachable!("peak_rss_mib is read last"),
        }
    };
    for (name, unit) in END_TO_END {
        if name != "peak_rss_mib" {
            put(&mut metrics, name, value(name), unit);
        }
    }
    put(&mut metrics, "peak_rss_mib", peak_rss_mib()?, "MiB");
    Ok(metrics)
}

/// `(name, unit)` of every per-layer metric, in `BENCHMARK.json` order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = Vec::new();
    for kind in Kind::ALL {
        for (stat, unit) in [
            ("count", "count"),
            ("p50_us", "us"),
            ("p99_us", "us"),
            ("max_us", "us"),
        ] {
            names.push((format!("runtime.{}.{stat}", kind.name()), unit));
        }
    }
    let fixed: &[(&str, &'static str)] = &[
        ("runtime.read.p95_us", "us"),
        ("runtime.read.p99_us", "us"),
        ("runtime.read.max_us", "us"),
        ("runtime.write.p95_us", "us"),
        ("runtime.write.p99_us", "us"),
        ("runtime.write.max_us", "us"),
        ("runtime.failed_ops_share", "ratio"),
        ("runtime.self_us", "us"),
        ("rights.calls", "count"),
        ("rights.busy_us", "us"),
        ("rights.self_us", "us"),
        ("ded.calls", "count"),
        ("ded.busy_us", "us"),
        ("ded.self_us", "us"),
        ("ded.records_processed", "count"),
        ("ded.records_denied", "count"),
        ("ded.self_us_per_record", "us"),
        ("ps.probe.get_invocable_us", "us"),
        ("kernel.probe.syscall_us", "us"),
        ("kernel.probe.mediated_access_us", "us"),
        ("shard.store_busy_us", "us"),
        ("shard.store_self_us", "us"),
        ("shard.legs_per_op", "count"),
        ("shard.slowest_leg_share", "ratio"),
        ("shard.imbalance", "ratio"),
        ("dbfs.calls", "count"),
        ("dbfs.busy_us", "us"),
        ("dbfs.self_us", "us"),
        ("dbfs.collect.self_us", "us"),
        ("dbfs.read.self_us", "us"),
        ("dbfs.membrane.self_us", "us"),
        ("dbfs.erase.self_us", "us"),
        ("dbfs.scrub.self_us", "us"),
        ("dbfs.index_lock_holds", "count"),
        ("dbfs.snapshot_epochs", "count"),
        ("dbfs.tombstones_end", "count"),
        ("dbfs.mount_us", "us"),
        ("inode.journal_txs", "count"),
        ("inode.blocks_per_tx", "count"),
        ("inode.cache_hit_rate", "ratio"),
        ("inode.cache_misses", "count"),
        ("inode.allocated_blocks", "count"),
        ("inode.probe.commit_8blk_us", "us"),
        ("inode.probe.cached_read_us", "us"),
        ("inode.probe.dir_add_us_1k", "us"),
        ("inode.probe.dir_add_us_4k", "us"),
        ("inode.probe.dir_lookup_us_4k", "us"),
        ("blockdev.reads", "count"),
        ("blockdev.writes", "count"),
        ("blockdev.flushes", "count"),
        ("blockdev.bytes_written", "B"),
        ("blockdev.busy_us", "us"),
        ("blockdev.sim_us", "us"),
        ("blockdev.writes_per_flush", "count"),
        ("blockdev.reads_per_kop", "count"),
        ("crypto.probe.escrow_erase_us_per_kib", "us"),
        ("crypto.probe.cipher_mib_per_s", "MiB/s"),
        ("crypto.erasures", "count"),
        ("core.audit_events", "count"),
        ("core.probe.audit_append_us", "us"),
        ("core.probe.record_codec_us", "us"),
        ("core.probe.membrane_check_us", "us"),
        ("dsl.install_types_us", "us"),
        ("analyze.lint_us", "us"),
        ("trace.overhead_share", "ratio"),
        ("trace.spans", "count"),
    ];
    names.extend(fixed.iter().map(|&(name, unit)| (name.to_owned(), unit)));
    names
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// The per-layer metrics: request latencies by kind from the untraced pass,
/// layer times from the spans of the traced pass, counters from the traced
/// pass (on one-client workloads they equal the untraced pass's), probes.
/// Units come from [`per_layer_names`], which is also the list of what must
/// be measured.
fn per_layer(
    plain: &Pass,
    traced: &Pass,
    summary: &Summary,
    sharded: bool,
) -> Result<Metrics, String> {
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut set = |name: &str, value: f64| {
        values.insert(name.to_owned(), value);
    };
    let clients = &plain.outcome.clients;
    for kind in Kind::ALL {
        let ns = sorted_latencies(clients, |k| k == kind);
        let prefix = format!("runtime.{}", kind.name());
        set(&format!("{prefix}.count"), ns.len() as f64);
        set(&format!("{prefix}.p50_us"), percentile_us(&ns, 0.50));
        set(&format!("{prefix}.p99_us"), percentile_us(&ns, 0.99));
        set(&format!("{prefix}.max_us"), percentile_us(&ns, 1.0));
    }
    for (class, is_write) in [("read", false), ("write", true)] {
        let ns = sorted_latencies(clients, |k| k.is_write() == is_write);
        set(&format!("runtime.{class}.p95_us"), percentile_us(&ns, 0.95));
        set(&format!("runtime.{class}.p99_us"), percentile_us(&ns, 0.99));
        set(&format!("runtime.{class}.max_us"), percentile_us(&ns, 1.0));
    }
    set(
        "runtime.failed_ops_share",
        ratio(
            plain.outcome.failed() as f64,
            plain.outcome.requests() as f64,
        ),
    );

    let outcome = &traced.outcome;
    let request = summary.layer(Layer::Request);
    let rights = summary.layer(Layer::Rights);
    let ded = summary.layer(Layer::Ded);
    let store = summary.layer(Layer::Store);
    let device = summary.layer(Layer::Device);
    set("runtime.self_us", us(request.self_ns));
    set("rights.calls", rights.calls as f64);
    set("rights.busy_us", us(rights.busy_ns));
    set("rights.self_us", us(rights.self_ns));
    let processed = outcome.sum(|c| c.records_processed) as f64;
    let denied = outcome.sum(|c| c.records_denied) as f64;
    set("ded.calls", ded.calls as f64);
    set("ded.busy_us", us(ded.busy_ns));
    set("ded.self_us", us(ded.self_ns));
    set("ded.records_processed", processed);
    set("ded.records_denied", denied);
    set(
        "ded.self_us_per_record",
        ratio(us(ded.self_ns), processed + denied),
    );

    // The store wrapper is the `shard` layer on the sharded workload and
    // the `dbfs` layer elsewhere; the other one reads zero.
    let zero = layers::LayerTimes::default();
    let (as_shard, as_dbfs) = if sharded {
        (store, zero)
    } else {
        (zero, store)
    };
    set("shard.store_busy_us", us(as_shard.busy_ns));
    // Store time minus all device time beneath it, pool threads included;
    // legs that overlap in time can push it below zero.
    let shard_self = if sharded {
        us(store.busy_ns) - us(device.busy_ns)
    } else {
        0.0
    };
    set("shard.store_self_us", shard_self);
    set("shard.legs_per_op", summary.legs_per_op);
    set("shard.slowest_leg_share", summary.slowest_leg_share);
    set(
        "shard.imbalance",
        if sharded { traced.imbalance } else { 0.0 },
    );
    set("dbfs.calls", as_dbfs.calls as f64);
    set("dbfs.busy_us", us(as_dbfs.busy_ns));
    set("dbfs.self_us", us(as_dbfs.self_ns));
    for group in ["collect", "read", "membrane", "erase", "scrub"] {
        let ns = if sharded {
            0
        } else {
            summary.store_groups.get(group).copied().unwrap_or(0)
        };
        set(&format!("dbfs.{group}.self_us"), us(ns));
    }
    let counters = traced.counters;
    set("dbfs.index_lock_holds", counters.index_lock_holds as f64);
    set("dbfs.snapshot_epochs", counters.snapshot_epochs as f64);
    set(
        "dbfs.tombstones_end",
        traced.end.space.tombstone_records as f64,
    );
    set("dbfs.mount_us", mount_ms(&plain.remount_ms) * 1e3);

    let dev = outcome.device;
    set("inode.journal_txs", counters.journal_txs as f64);
    set(
        "inode.blocks_per_tx",
        ratio(dev.writes as f64, counters.journal_txs as f64),
    );
    set(
        "inode.cache_hit_rate",
        ratio(
            counters.cache_hits as f64,
            (counters.cache_hits + counters.cache_misses) as f64,
        ),
    );
    set("inode.cache_misses", counters.cache_misses as f64);
    set("inode.allocated_blocks", counters.allocated_blocks as f64);
    set("blockdev.reads", dev.reads as f64);
    set("blockdev.writes", dev.writes as f64);
    set("blockdev.flushes", dev.flushes as f64);
    set("blockdev.bytes_written", driver::block_bytes(dev.writes));
    set("blockdev.busy_us", us(device.busy_ns));
    set("blockdev.sim_us", dev.simulated_us as f64);
    set(
        "blockdev.writes_per_flush",
        ratio(dev.writes as f64, dev.flushes as f64),
    );
    set(
        "blockdev.reads_per_kop",
        ratio(dev.reads as f64 * 1e3, outcome.fixed_requests() as f64),
    );
    set("crypto.erasures", outcome.sum(|c| c.records_erased) as f64);
    set("core.audit_events", traced.end.audit_events as f64);
    set(
        "trace.overhead_share",
        (traced.outcome.wall_s - plain.outcome.wall_s) / plain.outcome.wall_s,
    );
    set("trace.spans", traced.spans.len() as f64);
    for (name, value) in probes::run(driver::compute_age_spec()?)? {
        set(name, value);
    }

    let mut metrics = Metrics::new();
    for (name, unit) in per_layer_names() {
        let value = values
            .remove(&name)
            .ok_or_else(|| format!("per-layer metric {name} was not measured"))?;
        put(&mut metrics, name, value, unit);
    }
    match values.keys().next() {
        Some(extra) => Err(format!("per-layer metric {extra} has no unit")),
        None => Ok(metrics),
    }
}

/// Spans kept in the span file; the rest are counted, not written.
const SPAN_FILE_LIMIT: usize = 200_000;

/// Writes the spans as one JSON object: a `names` table and one row per span
/// `[id, parent, request, layer, name, shard, thread, start_ns, dur_ns]`.
fn write_span_file(workload: &str, spans: &[Span]) -> Result<(), String> {
    use std::io::Write;
    let dir = std::path::Path::new("reports/rgpdbench");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{workload}.json"));
    let mut names: Vec<&'static str> = spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    let written = spans.len().min(SPAN_FILE_LIMIT);
    let body = (|| -> std::io::Result<()> {
        write!(
            out,
            "{{\"workload\":\"{workload}\",\"total_spans\":{},\"written_spans\":{written},\
             \"columns\":[\"id\",\"parent\",\"request\",\"layer\",\"name\",\"shard\",\
             \"thread\",\"start_ns\",\"dur_ns\"],\"names\":[",
            spans.len()
        )?;
        for (i, name) in names.iter().enumerate() {
            write!(out, "{}\"{name}\"", if i > 0 { "," } else { "" })?;
        }
        write!(out, "],\"spans\":[")?;
        for (i, s) in spans[..written].iter().enumerate() {
            let name = names.binary_search(&s.name).expect("name was collected");
            let shard = if s.shard == span::NO_SHARD {
                -1
            } else {
                i32::from(s.shard)
            };
            write!(
                out,
                "{}[{},{},{},\"{}\",{name},{shard},{},{},{}]",
                if i > 0 { ",\n" } else { "\n" },
                s.id,
                s.parent,
                s.request,
                s.layer.name(),
                s.thread,
                s.start_ns,
                s.dur_ns
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    })();
    body.map_err(|e| format!("{}: {e}", path.display()))
}

fn run_on<Plain: Sut, Traced: Sut>(
    workload: &Workload,
    plan: &Plan,
    trace: bool,
) -> Result<RunResult, String> {
    let setup_reps = if trace { 1 } else { workload.setup_reps };
    let plain = pass::<Plain>(plan, setup_reps)?;
    let attempted = plain.outcome.requests();
    let failed = plain.outcome.failed();
    let metrics = if trace {
        let traced = pass::<Traced>(plan, 1)?;
        let summary = layers::summarize(&traced.spans, workload.sharded);
        write_span_file(workload.name, &traced.spans)?;
        per_layer(&plain, &traced, &summary, workload.sharded)?
    } else {
        end_to_end(&plain)?
    };
    Ok(RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}

/// Runs `workload` once, the way the driver contract asks: its inputs made
/// from `seed`, its outputs checked, its metrics returned.
pub fn run(workload: &Workload, seed: u64, scale: Scale, trace: bool) -> Result<RunResult, String> {
    let plan = (workload.plan)(seed, scale);
    if workload.sharded {
        run_on::<ShardedRgpdOs, TracedOs<ShardedDbfs<TracedDevice>>>(workload, &plan, trace)
    } else {
        run_on::<RgpdOs, TracedOs<Dbfs<TracedDevice>>>(workload, &plan, trace)
    }
}
