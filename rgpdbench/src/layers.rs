//! Per-layer times out of the spans of one traced pass.
//!
//! A span's self time is its duration minus the durations of its children
//! (spans opened on the same thread while it was open).  A layer's busy time
//! is the sum over its outermost spans.

use crate::span::{may_scatter, store_group, Layer, Span, NO_SHARD};
use std::collections::BTreeMap;

const MAX_SHARDS: usize = 8;

#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    pub calls: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug, Default)]
pub struct Summary {
    pub layers: BTreeMap<Layer, LayerTimes>,
    /// Self time of the store layer by `dbfs.<group>`.
    pub store_groups: BTreeMap<&'static str, u64>,
    /// Mean number of shards whose device a store call touched, over the
    /// calls that touched any.
    pub legs_per_op: f64,
    /// Mean share of the busiest shard in a call's device time, over the
    /// calls that touched two shards or more.
    pub slowest_leg_share: f64,
}

impl Summary {
    pub fn layer(&self, layer: Layer) -> LayerTimes {
        self.layers.get(&layer).copied().unwrap_or_default()
    }
}

pub fn summarize(spans: &[Span], sharded: bool) -> Summary {
    let max_id = spans.iter().map(|s| s.id).max().unwrap_or(0) as usize;
    let mut child_ns = vec![0u64; max_id + 1];
    let mut layer_of: Vec<Option<Layer>> = vec![None; max_id + 1];
    for span in spans {
        layer_of[span.id as usize] = Some(span.layer);
        // A parent recorded before the drain that opened this pass is not
        // among `spans`; its id is then below every id here.
        if span.parent != 0 {
            child_ns[span.parent as usize] += span.dur_ns;
        }
    }
    let mut summary = Summary::default();
    for span in spans {
        let self_ns = span.dur_ns.saturating_sub(child_ns[span.id as usize]);
        let times = summary.layers.entry(span.layer).or_default();
        times.calls += 1;
        times.self_ns += self_ns;
        let outermost = span.parent == 0 || layer_of[span.parent as usize] != Some(span.layer);
        if outermost {
            times.busy_ns += span.dur_ns;
        }
        if span.layer == Layer::Store {
            if let Some(group) = store_group(span.name) {
                *summary.store_groups.entry(group).or_default() += self_ns;
            }
        }
    }
    if sharded {
        legs(spans, &mut summary);
    }
    summary
}

/// Which shards' devices each store call touched.  Device spans on the
/// calling thread are the call's children; device spans on the router's
/// pool threads have no parent and are matched by time: they belong to the
/// scatter-capable store call open when they started.  With two clients
/// both calls may be open, and both are then charged, so `legs_per_op` is
/// an upper bound under concurrency.
fn legs(spans: &[Span], summary: &mut Summary) {
    let mut per_call: BTreeMap<u32, [u64; MAX_SHARDS]> = BTreeMap::new();
    let is_store: BTreeMap<u32, &Span> = spans
        .iter()
        .filter(|s| s.layer == Layer::Store)
        .map(|s| (s.id, s))
        .collect();
    let mut pool: Vec<&Span> = Vec::new();
    for span in spans.iter().filter(|s| s.layer == Layer::Device) {
        let shard = span.shard as usize;
        if span.shard == NO_SHARD || shard >= MAX_SHARDS {
            continue;
        }
        if span.parent == 0 {
            pool.push(span);
        } else if is_store.contains_key(&span.parent) {
            per_call.entry(span.parent).or_default()[shard] += span.dur_ns;
        }
    }
    // `spans` is ordered by start, so `pool` is too.
    for call in is_store.values().filter(|s| may_scatter(s.name)) {
        let end = call.start_ns + call.dur_ns;
        let first = pool.partition_point(|d| d.start_ns < call.start_ns);
        for device in pool[first..].iter().take_while(|d| d.start_ns <= end) {
            per_call.entry(call.id).or_default()[device.shard as usize] += device.dur_ns;
        }
    }
    let (mut calls, mut leg_total) = (0u64, 0u64);
    let (mut wide_calls, mut share_total) = (0u64, 0.0f64);
    for per_shard in per_call.values() {
        let touched = per_shard.iter().filter(|&&ns| ns > 0).count() as u64;
        if touched == 0 {
            continue;
        }
        calls += 1;
        leg_total += touched;
        if touched >= 2 {
            let total: u64 = per_shard.iter().sum();
            let slowest = *per_shard.iter().max().expect("MAX_SHARDS > 0");
            wide_calls += 1;
            share_total += slowest as f64 / total as f64;
        }
    }
    if calls > 0 {
        summary.legs_per_op = leg_total as f64 / calls as f64;
    }
    if wide_calls > 0 {
        summary.slowest_leg_share = share_total / wide_calls as f64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, layer: Layer, start_ns: u64, dur_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            layer,
            name: "get",
            shard: 0,
            thread: 1,
            start_ns,
            dur_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(1, 0, Layer::Request, 0, 100),
            span(2, 1, Layer::Store, 10, 60),
            span(3, 2, Layer::Device, 20, 25),
            span(4, 2, Layer::Device, 50, 5),
        ];
        let summary = summarize(&spans, false);
        assert_eq!(summary.layer(Layer::Request).self_ns, 40);
        assert_eq!(summary.layer(Layer::Store).self_ns, 30);
        assert_eq!(summary.layer(Layer::Store).busy_ns, 60);
        assert_eq!(summary.layer(Layer::Device).self_ns, 30);
        assert_eq!(summary.layer(Layer::Device).calls, 2);
        assert_eq!(summary.store_groups["read"], 30);
        let total: u64 = summary.layers.values().map(|t| t.self_ns).sum();
        assert_eq!(total, 100, "self times add up to the request");
    }

    #[test]
    fn pool_device_spans_are_matched_to_the_open_scatter_call() {
        let mut call = span(1, 0, Layer::Store, 0, 100);
        call.name = "load_membranes";
        let mut on_pool_a = span(2, 0, Layer::Device, 10, 30);
        on_pool_a.shard = 1;
        let mut on_pool_b = span(3, 0, Layer::Device, 20, 10);
        on_pool_b.shard = 2;
        let summary = summarize(&[call, on_pool_a, on_pool_b], true);
        assert_eq!(summary.legs_per_op, 2.0);
        assert_eq!(summary.slowest_leg_share, 0.75);
    }
}
