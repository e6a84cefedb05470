//! Operation counters exposed by DBFS for the benchmark harness.
//!
//! The tallies are `rgpdos_trace` [`Counter`]s — shared atomics a metrics
//! registry can adopt (`DbfsStatsInner::register`, wired by
//! `Dbfs::attach_trace_as`) so one `MetricsSnapshot` covers the store while
//! [`DbfsStats`] stays available as a thin snapshot view over the very
//! same counters.

use rgpdos_trace::{Counter, Registry};
use std::fmt;

/// Counters of DBFS operations since format/mount.
#[derive(Debug, Default)]
pub struct DbfsStatsInner {
    pub(crate) collects: Counter,
    pub(crate) reads: Counter,
    pub(crate) membrane_loads: Counter,
    pub(crate) updates: Counter,
    pub(crate) copies: Counter,
    pub(crate) erasures: Counter,
    pub(crate) expirations: Counter,
    pub(crate) queries: Counter,
    pub(crate) journal_replays: Counter,
    pub(crate) recovered_txs: Counter,
}

/// A point-in-time snapshot of the counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DbfsStats {
    /// Records collected (inserted), batched APIs included.
    pub collects: u64,
    /// Records read individually.
    pub reads: u64,
    /// Membranes served by the `load_membrane*` family (the
    /// `ded_load_membrane` path), from the index snapshot, without a device
    /// read.
    pub membrane_loads: u64,
    /// Records updated.
    pub updates: u64,
    /// Records copied.
    pub copies: u64,
    /// Records crypto-erased.
    pub erasures: u64,
    /// Records removed by retention expiry.
    pub expirations: u64,
    /// Table queries executed.
    pub queries: u64,
    /// Inode-layer journal transactions replayed at mount (crash recovery).
    pub journal_replays: u64,
    /// DBFS-level recovery actions: mount-time identifier-counter heals
    /// and completed erase intents performed on this instance's behalf.
    pub recovered_txs: u64,
}

impl DbfsStats {
    /// Field-wise sum of two snapshots.  Sharded deployments merge the
    /// per-shard snapshots into one aggregate view with this.
    #[must_use]
    pub fn merge(self, other: DbfsStats) -> DbfsStats {
        DbfsStats {
            collects: self.collects + other.collects,
            reads: self.reads + other.reads,
            membrane_loads: self.membrane_loads + other.membrane_loads,
            updates: self.updates + other.updates,
            copies: self.copies + other.copies,
            erasures: self.erasures + other.erasures,
            expirations: self.expirations + other.expirations,
            queries: self.queries + other.queries,
            journal_replays: self.journal_replays + other.journal_replays,
            recovered_txs: self.recovered_txs + other.recovered_txs,
        }
    }
}

impl DbfsStatsInner {
    pub(crate) fn snapshot(&self) -> DbfsStats {
        DbfsStats {
            collects: self.collects.get(),
            reads: self.reads.get(),
            membrane_loads: self.membrane_loads.get(),
            updates: self.updates.get(),
            copies: self.copies.get(),
            erasures: self.erasures.get(),
            expirations: self.expirations.get(),
            queries: self.queries.get(),
            journal_replays: self.journal_replays.get(),
            recovered_txs: self.recovered_txs.get(),
        }
    }

    pub(crate) fn bump(counter: &Counter) {
        counter.inc();
    }

    /// Adopts every counter into `registry` under its canonical
    /// `dbfs_*` name, so the registry and [`DbfsStatsInner::snapshot`]
    /// read the same atomics.
    pub(crate) fn register(&self, registry: &Registry, labels: &[(&str, &str)]) {
        for (name, counter) in [
            ("dbfs_collects", &self.collects),
            ("dbfs_reads", &self.reads),
            ("dbfs_membrane_loads", &self.membrane_loads),
            ("dbfs_updates", &self.updates),
            ("dbfs_copies", &self.copies),
            ("dbfs_erasures", &self.erasures),
            ("dbfs_expirations", &self.expirations),
            ("dbfs_queries", &self.queries),
            ("dbfs_journal_replays", &self.journal_replays),
            ("dbfs_recovered_txs", &self.recovered_txs),
        ] {
            registry.adopt_counter(name, labels, counter);
        }
    }
}

impl fmt::Display for DbfsStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "collects={} reads={} membrane_loads={} updates={} copies={} erasures={} expirations={} queries={} journal_replays={} recovered_txs={}",
            self.collects,
            self.reads,
            self.membrane_loads,
            self.updates,
            self.copies,
            self.erasures,
            self.expirations,
            self.queries,
            self.journal_replays,
            self.recovered_txs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_bumps() {
        let inner = DbfsStatsInner::default();
        DbfsStatsInner::bump(&inner.collects);
        DbfsStatsInner::bump(&inner.collects);
        DbfsStatsInner::bump(&inner.erasures);
        let snap = inner.snapshot();
        assert_eq!(snap.collects, 2);
        assert_eq!(snap.erasures, 1);
        assert_eq!(snap.reads, 0);
        assert!(snap.to_string().contains("collects=2"));
    }

    #[test]
    fn merge_sums_every_counter_field_wise() {
        let a = DbfsStats {
            collects: 1,
            reads: 2,
            membrane_loads: 3,
            updates: 4,
            copies: 5,
            erasures: 6,
            expirations: 7,
            queries: 8,
            journal_replays: 9,
            recovered_txs: 10,
        };
        let b = DbfsStats {
            collects: 10,
            reads: 20,
            membrane_loads: 30,
            updates: 40,
            copies: 50,
            erasures: 60,
            expirations: 70,
            queries: 80,
            journal_replays: 90,
            recovered_txs: 100,
        };
        let merged = a.merge(b);
        assert_eq!(merged.collects, 11);
        assert_eq!(merged.reads, 22);
        assert_eq!(merged.membrane_loads, 33);
        assert_eq!(merged.updates, 44);
        assert_eq!(merged.copies, 55);
        assert_eq!(merged.erasures, 66);
        assert_eq!(merged.expirations, 77);
        assert_eq!(merged.queries, 88);
        assert_eq!(merged.journal_replays, 99);
        assert_eq!(merged.recovered_txs, 110);
        // The identity element is the default snapshot.
        assert_eq!(a.merge(DbfsStats::default()), a);
    }
}
