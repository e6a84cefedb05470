//! `rgpdos_trace` — the zero-dependency observability core of the rgpdOS
//! reproduction.
//!
//! rgpdOS promises that the OS itself enforces GDPR; operators must be able
//! to *prove* it does so at speed — how long a right-of-access or a
//! crypto-erasure actually takes under load.  This crate provides the
//! machinery every layer shares to produce that evidence:
//!
//! * a sharded metrics [`Registry`] of [`Counter`]s, [`Gauge`]s and
//!   log-linear HDR-style latency histograms ([`Hist`]) with O(1) record
//!   and exact p50/p90/p99/p999 readout for microsecond-scale samples;
//! * lightweight span tracing ([`Tracer`]) with parent/child nesting and a
//!   bounded ring-buffer recorder;
//! * a simulated-time [`TraceClock`], advanced by the device model, so
//!   identical runs record identical latencies;
//! * a versioned [`MetricsSnapshot`] (JSON + text) whose pinned schema is
//!   validated in CI.
//!
//! The crate is deliberately std-only: it sits below `rgpdos-blockdev` in
//! the dependency order, performs **no device I/O** (crash-matrix
//! neutrality), and costs nothing beyond a few relaxed atomics until a
//! snapshot is taken.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod hist;
mod metrics;
mod snapshot;
mod span;

pub use clock::TraceClock;
pub use hist::{Histogram, HistogramSummary};
pub use metrics::{metric_key, Counter, Gauge, Hist, HistTimer, Registry};
pub use snapshot::{MetricsSnapshot, SCHEMA_VERSION, SUMMARY_FIELDS, TOP_LEVEL_KEYS};
pub use span::{SpanGuard, SpanRecord, Tracer, DEFAULT_SPAN_CAPACITY};

use std::sync::Arc;

/// The cloneable bundle an instrumented layer holds: registry + tracer +
/// the clock both are driven by.  Every clone shares the same instruments.
#[derive(Debug, Clone)]
pub struct TraceCtx {
    /// The metric registry.
    pub registry: Arc<Registry>,
    /// The span recorder.
    pub tracer: Arc<Tracer>,
    /// The time source (shared with the tracer).
    pub clock: Arc<TraceClock>,
}

impl TraceCtx {
    /// A deterministic simulated-time context with the default span
    /// capacity.
    pub fn sim() -> Self {
        let clock = TraceClock::sim();
        Self {
            registry: Arc::new(Registry::new()),
            tracer: Arc::new(Tracer::new(Arc::clone(&clock))),
            clock,
        }
    }

    /// Freezes every instrument and the span ring into a snapshot stamped
    /// with `seed`.
    pub fn snapshot(&self, seed: u64) -> MetricsSnapshot {
        let (counters, gauges, histograms) = self.registry.collect();
        MetricsSnapshot {
            schema_version: SCHEMA_VERSION,
            seed,
            counters,
            gauges,
            histograms,
            spans_evicted: self.tracer.evicted(),
            spans: self.tracer.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_ctx_snapshots_deterministically() {
        let run = || {
            let ctx = TraceCtx::sim();
            let ops = ctx.registry.counter("ops");
            let lat = ctx.registry.histogram("lat_us");
            for i in 0..50u64 {
                let span = ctx.tracer.span("op");
                let timer = lat.timer(&ctx.clock);
                ctx.clock.advance_us(10 + i % 7);
                ops.inc();
                drop(timer);
                drop(span);
            }
            ctx.snapshot(0xBEEF).to_json()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        MetricsSnapshot::validate_json(&a).unwrap();
    }

    #[test]
    fn snapshot_carries_gauge_fns() {
        let ctx = TraceCtx::sim();
        ctx.registry.gauge_fn("depth", &[("shard", "0")], || 17);
        let snap = ctx.snapshot(1);
        assert_eq!(snap.gauges["depth{shard=\"0\"}"], 17);
        assert_eq!(snap.seed, 1);
        assert_eq!(snap.schema_version, SCHEMA_VERSION);
    }
}
