//! The versioned [`MetricsSnapshot`]: everything the registry and tracer
//! know, frozen into deterministic JSON and a human-readable text dump.
//!
//! The JSON shape is **pinned**: `schema_version` bumps whenever a field is
//! added, removed or reordered, artifact consumers check it before parsing,
//! and [`MetricsSnapshot::validate_json`] re-checks the shape in CI.  All
//! maps are `BTreeMap`s and histogram digests are emitted on one line each,
//! so two identical (simulated-clock) runs produce byte-identical output.

use crate::hist::HistogramSummary;
use crate::span::SpanRecord;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Version stamped on every machine-readable report this workspace emits
/// (metrics snapshots, crashgrind matrices, the analyzer report).  Bump on any breaking shape change.
pub const SCHEMA_VERSION: u32 = 1;

/// A point-in-time dump of every registered metric plus the span ring.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// The pinned report shape version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// The seed of the run that produced the snapshot (0 when unseeded).
    pub seed: u64,
    /// Counter values by rendered `name{label="value"}` key.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values (stored and derived) by rendered key.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram digests by rendered key.
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// Finished spans evicted from the bounded ring before this snapshot.
    pub spans_evicted: u64,
    /// The finished spans still in the ring, oldest first.
    pub spans: Vec<SpanRecord>,
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn summary_json(s: &HistogramSummary) -> String {
    format!(
        "{{ \"count\": {}, \"min\": {}, \"max\": {}, \"mean\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"p999\": {} }}",
        s.count, s.min, s.max, s.mean, s.p50, s.p90, s.p99, s.p999
    )
}

/// The per-histogram fields, in emission order — shared by the emitter,
/// the validator and the schema documentation.
pub const SUMMARY_FIELDS: [&str; 8] = ["count", "min", "max", "mean", "p50", "p90", "p99", "p999"];

/// The top-level snapshot keys, in emission order.
pub const TOP_LEVEL_KEYS: [&str; 7] = [
    "schema_version",
    "seed",
    "counters",
    "gauges",
    "histograms",
    "spans_evicted",
    "spans",
];

impl MetricsSnapshot {
    /// Deterministic pretty JSON in the pinned snapshot schema.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema_version\": {},", self.schema_version);
        let _ = writeln!(out, "  \"seed\": {},", self.seed);

        out.push_str("  \"counters\": {");
        Self::emit_map(
            &mut out,
            self.counters.iter().map(|(k, v)| (k, v.to_string())),
        );
        out.push_str("},\n");

        out.push_str("  \"gauges\": {");
        Self::emit_map(
            &mut out,
            self.gauges.iter().map(|(k, v)| (k, v.to_string())),
        );
        out.push_str("},\n");

        out.push_str("  \"histograms\": {");
        Self::emit_map(
            &mut out,
            self.histograms.iter().map(|(k, v)| (k, summary_json(v))),
        );
        out.push_str("},\n");

        let _ = writeln!(out, "  \"spans_evicted\": {},", self.spans_evicted);

        out.push_str("  \"spans\": [");
        for (i, span) in self.spans.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let mut name = String::new();
            escape_into(&mut name, &span.name);
            let parent = match span.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            let _ = write!(
                out,
                "    {{ \"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_us\": {}, \"end_us\": {} }}",
                span.id, parent, name, span.start_us, span.end_us
            );
        }
        if !self.spans.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    fn emit_map<'a>(out: &mut String, entries: impl Iterator<Item = (&'a String, String)>) {
        let mut first = true;
        let mut any = false;
        for (key, value) in entries {
            out.push_str(if first { "\n" } else { ",\n" });
            first = false;
            any = true;
            out.push_str("    \"");
            escape_into(out, key);
            out.push_str("\": ");
            out.push_str(&value);
        }
        if any {
            out.push_str("\n  ");
        }
    }

    /// Human-readable dump: one instrument per line, histograms with their
    /// full digest.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "metrics snapshot (schema v{}, seed {})",
            self.schema_version, self.seed
        );
        for (k, v) in &self.counters {
            let _ = writeln!(out, "counter   {k} = {v}");
        }
        for (k, v) in &self.gauges {
            let _ = writeln!(out, "gauge     {k} = {v}");
        }
        for (k, s) in &self.histograms {
            let _ = writeln!(
                out,
                "histogram {k}: count={} min={} max={} mean={} p50={} p90={} p99={} p999={}",
                s.count, s.min, s.max, s.mean, s.p50, s.p90, s.p99, s.p999
            );
        }
        let _ = writeln!(
            out,
            "spans     {} recorded, {} evicted",
            self.spans.len(),
            self.spans_evicted
        );
        for span in &self.spans {
            let _ = writeln!(
                out,
                "  [{} -> {}] #{} {}{}",
                span.start_us,
                span.end_us,
                span.id,
                span.name,
                match span.parent {
                    Some(p) => format!(" (parent #{p})"),
                    None => String::new(),
                }
            );
        }
        out
    }

    /// Checks that `text` is a snapshot in the pinned schema: every
    /// top-level key present in order, the version equal to
    /// [`SCHEMA_VERSION`], and every histogram digest carrying the full
    /// [`SUMMARY_FIELDS`] set in order.  Used by the CI `metrics` job; the
    /// checker is hand-rolled because the in-tree `serde_json` stand-in has
    /// no dynamic `Value` type.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first schema violation.
    pub fn validate_json(text: &str) -> Result<(), String> {
        let trimmed = text.trim();
        if !trimmed.starts_with('{') || !trimmed.ends_with('}') {
            return Err("snapshot is not a JSON object".to_string());
        }
        let mut cursor = 0usize;
        for key in TOP_LEVEL_KEYS {
            let needle = format!("\"{key}\":");
            match text[cursor..].find(&needle) {
                Some(at) => cursor += at + needle.len(),
                None => {
                    return Err(format!(
                        "missing top-level key \"{key}\" (after byte {cursor})"
                    ))
                }
            }
        }
        let version_line = format!("\"schema_version\": {SCHEMA_VERSION},");
        if !text.contains(&version_line) {
            return Err(format!("schema_version is not {SCHEMA_VERSION}"));
        }
        let hist_start = text.find("\"histograms\":").ok_or("missing histograms")?;
        let hist_end = text[hist_start..]
            .find("\"spans_evicted\":")
            .map(|at| hist_start + at)
            .ok_or("missing spans_evicted after histograms")?;
        for line in text[hist_start..hist_end].lines().skip(1) {
            let line = line.trim();
            if line.is_empty() || line == "}," || line == "{" {
                continue;
            }
            let mut cursor = 0usize;
            for field in SUMMARY_FIELDS {
                let needle = format!("\"{field}\":");
                match line[cursor..].find(&needle) {
                    Some(at) => cursor += at + needle.len(),
                    None => {
                        return Err(format!(
                            "histogram digest missing field \"{field}\" in line: {line}"
                        ))
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSnapshot {
        let mut counters = BTreeMap::new();
        counters.insert("dbfs_collects".to_string(), 10u64);
        let mut gauges = BTreeMap::new();
        gauges.insert("shard_live_records{shard=\"0\"}".to_string(), -3i64);
        let mut histograms = BTreeMap::new();
        histograms.insert(
            "fs_commit_latency_us".to_string(),
            HistogramSummary {
                count: 2,
                min: 100,
                max: 260,
                mean: 180,
                p50: 100,
                p90: 260,
                p99: 260,
                p999: 260,
            },
        );
        MetricsSnapshot {
            schema_version: SCHEMA_VERSION,
            seed: 0x0F16,
            counters,
            gauges,
            histograms,
            spans_evicted: 1,
            spans: vec![SpanRecord {
                id: 7,
                parent: None,
                name: "fs_commit".to_string(),
                start_us: 5,
                end_us: 265,
            }],
        }
    }

    #[test]
    fn json_round_trips_the_pinned_schema() {
        let snap = sample();
        let json = snap.to_json();
        MetricsSnapshot::validate_json(&json).unwrap();
        assert!(json.contains("\"schema_version\": 1,"));
        assert!(json.contains("\"seed\": 3862,"));
        assert!(json.contains("\"dbfs_collects\": 10"));
        assert!(json.contains("\"p99\": 260"));
        assert!(json.contains("\"parent\": null"));
    }

    #[test]
    fn json_emission_is_deterministic() {
        assert_eq!(sample().to_json(), sample().to_json());
    }

    #[test]
    fn validator_rejects_drift() {
        let snap = sample();
        let json = snap.to_json();
        assert!(MetricsSnapshot::validate_json("[]").is_err());
        assert!(MetricsSnapshot::validate_json(&json.replace("\"seed\":", "\"sed\":")).is_err());
        assert!(MetricsSnapshot::validate_json(
            &json.replace("\"schema_version\": 1", "\"schema_version\": 9")
        )
        .is_err());
        assert!(
            MetricsSnapshot::validate_json(&json.replace("\"p999\": 260", "\"x\": 260")).is_err()
        );
    }

    #[test]
    fn empty_snapshot_validates() {
        let snap = MetricsSnapshot {
            schema_version: SCHEMA_VERSION,
            seed: 0,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            spans_evicted: 0,
            spans: vec![],
        };
        MetricsSnapshot::validate_json(&snap.to_json()).unwrap();
        assert!(snap.to_text().contains("schema v1"));
    }

    #[test]
    fn text_dump_mentions_every_instrument() {
        let text = sample().to_text();
        assert!(text.contains("counter   dbfs_collects = 10"));
        assert!(text.contains("gauge     shard_live_records{shard=\"0\"} = -3"));
        assert!(text.contains("histogram fs_commit_latency_us"));
        assert!(text.contains("#7 fs_commit"));
    }
}
