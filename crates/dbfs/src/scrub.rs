//! Tombstone scrubbing and space reclamation.
//!
//! Crypto-erasure (the right to be forgotten) leaves a **tombstone** behind:
//! the escrowed ciphertext plus the erased membrane survive so the audit
//! trail and the authorities' investigative access are preserved.  Under
//! sustained erase traffic those tombstones accumulate and the store's
//! **space amplification** — total record bytes over live record bytes —
//! grows without bound.
//!
//! The scrubber closes that hole.  [`PdStore::scrub_tombstones`] reclaims the
//! on-disk footprint of tombstones whose erasure receipt is durable:
//!
//! * each reclamation is **one compound transaction** (both tree entries
//!   unlinked + the record inode freed), so a crash at any write index
//!   leaves either the whole tombstone or none of it;
//! * `secure_free` zeroes the freed blocks, so neither the tombstone
//!   ciphertext nor any stale payload bytes survive on the raw device;
//! * a tombstone referenced by a pending [`EraseIntent`] is **never**
//!   reclaimed — it is still part of an in-flight erasure protocol;
//! * a tombstone with surviving lineage copies is retained until its copies
//!   are reclaimed first (child-before-parent order), so the lineage index
//!   and the cross-shard lineage directory never dangle;
//! * every reclamation is audited as an explicit
//!   [`AuditEventKind::Reclaimed`](rgpdos_core::AuditEventKind) event.
//!
//! [`PdStore::space_stats`] measures the amplification; the
//! `space_amplification` / `tombstones_reclaimed` gauges surface both in the
//! metrics snapshot once a trace context is attached.  There is no
//! background driver: whoever owns the store decides when a pass runs.
//!
//! [`PdStore::scrub_tombstones`]: crate::PdStore::scrub_tombstones
//! [`PdStore::space_stats`]: crate::PdStore::space_stats
//! [`EraseIntent`]: crate::EraseIntent

use rgpdos_core::PdId;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A space-accounting snapshot of one store: live versus tombstoned record
/// footprints, as measured from the record inodes' on-disk sizes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpaceStats {
    /// Live (non-erased) records.
    pub live_records: usize,
    /// Tombstoned records whose footprint the scrubber could reclaim.
    pub tombstone_records: usize,
    /// Bytes held by live record inodes.
    pub live_bytes: u64,
    /// Bytes held by tombstone inodes (escrowed ciphertext + membrane).
    pub tombstone_bytes: u64,
    /// Allocated blocks on the underlying device, metadata included.
    pub allocated_blocks: u64,
}

impl SpaceStats {
    /// Space amplification: total record bytes over live record bytes.
    /// `1.0` for a tombstone-free store, `+inf` when only tombstones
    /// remain.
    pub fn amplification(&self) -> f64 {
        let total = self.live_bytes + self.tombstone_bytes;
        if self.live_bytes == 0 {
            if total == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            total as f64 / self.live_bytes as f64
        }
    }

    /// The amplification as a `×100` fixed-point integer (the gauge
    /// encoding): `100` means 1.00×; saturates when no live byte remains.
    pub fn amplification_x100(&self) -> i64 {
        let scaled = self.amplification() * 100.0;
        if scaled.is_finite() {
            scaled.min(i64::MAX as f64) as i64
        } else {
            i64::MAX
        }
    }

    /// Accumulates another instance's stats (sharded stores sum their
    /// backing shards).
    pub fn merge(&mut self, other: &SpaceStats) {
        self.live_records += other.live_records;
        self.tombstone_records += other.tombstone_records;
        self.live_bytes += other.live_bytes;
        self.tombstone_bytes += other.tombstone_bytes;
        self.allocated_blocks += other.allocated_blocks;
    }
}

/// What one scrub pass did: the tombstones it reclaimed and the ones it
/// deliberately retained.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Tombstones examined by the pass.
    pub scanned_tombstones: usize,
    /// Identifiers whose footprint was reclaimed, in reclamation order.
    pub reclaimed: Vec<PdId>,
    /// Tombstones retained because a pending [`EraseIntent`](crate::EraseIntent)
    /// still references them (the erasure protocol has not confirmed them
    /// durable everywhere).
    pub retained_intent: usize,
    /// Tombstones retained because lineage still references them: a
    /// surviving copy (locally or, for routed stores, in the cross-shard
    /// lineage directory) names them as its original.
    pub retained_lineage: usize,
    /// Bytes the reclaimed inodes held before being freed.
    pub bytes_reclaimed: u64,
}

impl ScrubReport {
    /// Number of tombstones reclaimed by the pass.
    pub fn reclaimed_count(&self) -> usize {
        self.reclaimed.len()
    }

    /// Accumulates another report (sharded stores merge per-shard passes).
    pub fn merge(&mut self, other: ScrubReport) {
        self.scanned_tombstones += other.scanned_tombstones;
        self.reclaimed.extend(other.reclaimed);
        self.retained_intent += other.retained_intent;
        self.retained_lineage += other.retained_lineage;
        self.bytes_reclaimed += other.bytes_reclaimed;
    }
}

/// The space gauges a store keeps current across scrub passes and
/// [`space_stats`](crate::PdStore::space_stats) calls, read by the
/// `space_amplification` / `tombstones_reclaimed` gauge closures without any
/// device I/O.
#[derive(Debug)]
pub struct SpaceGauges {
    /// Last measured amplification, `×100` fixed point (`100` = 1.00×).
    amplification_x100: AtomicI64,
    /// Tombstones reclaimed since format/mount.
    reclaimed: AtomicU64,
}

impl Default for SpaceGauges {
    fn default() -> Self {
        Self {
            amplification_x100: AtomicI64::new(100),
            reclaimed: AtomicU64::new(0),
        }
    }
}

impl SpaceGauges {
    /// Publishes a freshly measured amplification.
    pub(crate) fn set_amplification_x100(&self, value: i64) {
        self.amplification_x100.store(value, Ordering::Relaxed);
    }

    /// Counts `n` more reclaimed tombstones.
    pub(crate) fn add_reclaimed(&self, n: u64) {
        self.reclaimed.fetch_add(n, Ordering::Relaxed);
    }

    /// Last measured space amplification, `×100` fixed point.
    pub fn amplification_x100(&self) -> i64 {
        self.amplification_x100.load(Ordering::Relaxed)
    }

    /// Tombstones reclaimed since format/mount.
    pub fn reclaimed(&self) -> u64 {
        self.reclaimed.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amplification_accounts_tombstones() {
        let mut stats = SpaceStats {
            live_records: 2,
            tombstone_records: 0,
            live_bytes: 1000,
            tombstone_bytes: 0,
            allocated_blocks: 10,
        };
        assert_eq!(stats.amplification(), 1.0);
        assert_eq!(stats.amplification_x100(), 100);
        stats.tombstone_records = 6;
        stats.tombstone_bytes = 3000;
        assert_eq!(stats.amplification(), 4.0);
        assert_eq!(stats.amplification_x100(), 400);
    }

    #[test]
    fn amplification_with_no_live_bytes_saturates() {
        let empty = SpaceStats::default();
        assert_eq!(empty.amplification(), 1.0);
        assert_eq!(empty.amplification_x100(), 100);
        let only_tombstones = SpaceStats {
            tombstone_records: 3,
            tombstone_bytes: 900,
            ..SpaceStats::default()
        };
        assert!(only_tombstones.amplification().is_infinite());
        assert_eq!(only_tombstones.amplification_x100(), i64::MAX);
    }

    #[test]
    fn reports_merge() {
        let mut a = ScrubReport {
            scanned_tombstones: 3,
            reclaimed: vec![PdId::new(1)],
            retained_intent: 1,
            retained_lineage: 1,
            bytes_reclaimed: 512,
        };
        a.merge(ScrubReport {
            scanned_tombstones: 2,
            reclaimed: vec![PdId::new(7), PdId::new(9)],
            retained_intent: 0,
            retained_lineage: 0,
            bytes_reclaimed: 1024,
        });
        assert_eq!(a.scanned_tombstones, 5);
        assert_eq!(a.reclaimed_count(), 3);
        assert_eq!(a.retained_intent, 1);
        assert_eq!(a.bytes_reclaimed, 1536);
    }

    #[test]
    fn stats_merge_sums_shards() {
        let mut total = SpaceStats::default();
        for _ in 0..3 {
            total.merge(&SpaceStats {
                live_records: 10,
                tombstone_records: 5,
                live_bytes: 1000,
                tombstone_bytes: 500,
                allocated_blocks: 64,
            });
        }
        assert_eq!(total.live_records, 30);
        assert_eq!(total.tombstone_records, 15);
        assert_eq!(total.amplification(), 1.5);
        assert_eq!(total.allocated_blocks, 192);
    }
}
