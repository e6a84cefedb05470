//! The cross-shard lineage directory.
//!
//! Per-shard `Dbfs` indexes only know the lineage edges whose endpoints live
//! on the same device.  The directory is the router-level complement: it
//! records **every** copy edge made through the sharded layer (intra- and
//! cross-shard, so the transitive closure of an erasure is computable
//! without asking any shard), which records live off their subject's home
//! shard (so subject-routed reads stay `O(home shard + lineage)`), and which
//! identifiers have been tombstoned (so a `copy` racing an erasure can be
//! refused, mirroring the per-shard erased-ancestor insert guard).
//!
//! The directory itself is pure metadata.  The **erasure** path never does
//! disk I/O under the directory lock (closure snapshot and tombstone
//! pre-announcement are in-memory walks, mirroring the per-shard index
//! discipline).  The **copy/registration** path is the one deliberate
//! exception: a lineage-carrying insert holds the lock across its shard
//! write so the erased-ancestor guard and the registration are atomic —
//! the router-level analogue of `Dbfs` running inserts under its index
//! lock, and, like there, an accepted cost: lineage-free inserts (the
//! common case) bypass the lock entirely.

use rgpdos_core::{DataTypeId, PdId, SubjectId};
use rgpdos_dbfs::{erased_ancestor, RecordSummary};
use std::collections::{BTreeMap, BTreeSet};

/// Every record of the deployment by id, with the shard that holds it: the
/// shards' index summaries, from which all of the directory is derived.
pub(crate) type GlobalSummaries = BTreeMap<PdId, (usize, RecordSummary)>;

/// Routing metadata for one directory-tracked record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DirectoryEntry {
    /// The table the record belongs to (needed to route an erasure).
    pub data_type: DataTypeId,
    /// The data subject (needed to serve subject-routed reads).
    pub subject: SubjectId,
}

/// The ids filed under `key` in a flat `(key, id)` index.
fn ids_under<K: Ord + Copy>(
    index: &BTreeSet<(K, PdId)>,
    key: K,
) -> impl Iterator<Item = PdId> + '_ {
    index
        .range((key, PdId::new(0))..=(key, PdId::new(u64::MAX)))
        .map(|&(_, id)| id)
}

/// The router-level lineage and placement directory.
#[derive(Debug, Default)]
pub(crate) struct LineageDirectory {
    /// `(original, direct copy)` for every copy made through the router.
    copies_of: BTreeSet<(PdId, PdId)>,
    /// copy -> its direct lineage parent.
    copied_from: BTreeMap<PdId, PdId>,
    /// Routing metadata for every id involved in lineage or placed off its
    /// subject's home shard.
    entries: BTreeMap<PdId, DirectoryEntry>,
    /// `(subject, record living off the subject's home shard)`.
    foreign: BTreeSet<(SubjectId, PdId)>,
    /// Identifiers tombstoned through the router (or found tombstoned on
    /// mount).  Grows monotonically — tombstones never resurrect.
    erased: BTreeSet<PdId>,
}

impl LineageDirectory {
    /// The directory the shards' summaries derive — the single definition
    /// of how edges, foreign placements and tombstones follow from what the
    /// shards hold.  `home` is the placement map.  Mount builds the
    /// directory with it, the scrubber resynchronises with it after a failed
    /// pass, and the invariant checker compares the live directory against
    /// it ([`LineageDirectory::first_difference`]).
    pub(crate) fn from_summaries(
        global: &GlobalSummaries,
        home: impl Fn(SubjectId) -> usize,
    ) -> Self {
        let entry_of = |summary: &RecordSummary| DirectoryEntry {
            data_type: summary.data_type.clone(),
            subject: summary.subject,
        };
        let mut directory = Self::default();
        for (&id, (shard, summary)) in global {
            if summary.erased {
                directory.erased.insert(id);
            }
            if let Some(parent) = summary.copied_from {
                let parent_entry = global.get(&parent).map_or(summary, |(_, parent)| parent);
                directory.register_copy(parent, entry_of(parent_entry), id, entry_of(summary));
            }
            if *shard != home(summary.subject) {
                directory.register_foreign(summary.subject, id, entry_of(summary));
            }
        }
        directory
    }

    /// Names the first id on which this (live) directory and one `rebuilt`
    /// from the shards disagree: lineage edges first, then foreign
    /// placements, then tombstone marks.
    pub(crate) fn first_difference(&self, rebuilt: &Self) -> Option<String> {
        let edges = |directory: &Self| -> BTreeSet<(PdId, PdId)> {
            let edges = directory.copied_from.iter();
            edges.map(|(&copy, &original)| (copy, original)).collect()
        };
        let differs = |what: &str, id: &PdId| {
            format!("{what} of {id} differs between the directory and the shards")
        };
        if let Some((copy, _)) = edges(self).symmetric_difference(&edges(rebuilt)).next() {
            return Some(differs("lineage edge", copy));
        }
        if let Some((_, id)) = self.foreign.symmetric_difference(&rebuilt.foreign).next() {
            return Some(differs("foreign placement", id));
        }
        let id = self.erased.symmetric_difference(&rebuilt.erased).next()?;
        Some(differs("tombstone mark", id))
    }

    /// Records a copy edge `original -> copy`, keeping routing metadata for
    /// both endpoints.
    pub(crate) fn register_copy(
        &mut self,
        original: PdId,
        original_entry: DirectoryEntry,
        copy: PdId,
        copy_entry: DirectoryEntry,
    ) {
        self.copies_of.insert((original, copy));
        self.copied_from.insert(copy, original);
        self.entries.entry(original).or_insert(original_entry);
        self.entries.entry(copy).or_insert(copy_entry);
    }

    /// Records that `id` lives off `subject`'s home shard.
    pub(crate) fn register_foreign(&mut self, subject: SubjectId, id: PdId, entry: DirectoryEntry) {
        self.foreign.insert((subject, id));
        self.entries.entry(id).or_insert(entry);
    }

    /// Marks identifiers as tombstoned, returning the ones that were not
    /// already marked (so a failed pre-announcement can be retracted
    /// without resurrecting genuine tombstones).
    pub(crate) fn mark_erased_returning_new(
        &mut self,
        ids: impl IntoIterator<Item = PdId>,
    ) -> Vec<PdId> {
        ids.into_iter()
            .filter(|&id| self.erased.insert(id))
            .collect()
    }

    /// Marks identifiers as tombstoned.
    pub(crate) fn mark_erased(&mut self, ids: impl IntoIterator<Item = PdId>) {
        self.erased.extend(ids);
    }

    /// Retracts tombstone pre-announcements that never reached the disk.
    /// Only used when the durable intent write fails *before* any erasure
    /// started — the marks describe an operation that never happened.
    pub(crate) fn retract_erased(&mut self, ids: impl IntoIterator<Item = PdId>) {
        for id in ids {
            self.erased.remove(&id);
        }
    }

    /// Whether `id` itself is marked tombstoned.
    pub(crate) fn is_erased(&self, id: PdId) -> bool {
        self.erased.contains(&id)
    }

    /// Whether `id` or any ancestor in its lineage chain is tombstoned (the
    /// cross-shard insert guard: a copy must never outlive its lineage).
    pub(crate) fn lineage_erased(&self, id: PdId) -> bool {
        let lookup = |id| Some((self.is_erased(id), self.copied_from.get(&id).copied()));
        erased_ancestor(Some(id), lookup).is_some()
    }

    /// The transitive copy closure of `roots` (descendants only, the roots
    /// themselves excluded) — a pure in-memory walk.
    pub(crate) fn closure(&self, roots: impl IntoIterator<Item = PdId>) -> Vec<PdId> {
        let mut stack: Vec<PdId> = roots.into_iter().collect();
        let mut seen: BTreeSet<PdId> = stack.iter().copied().collect();
        let mut out = Vec::new();
        while let Some(current) = stack.pop() {
            for copy in ids_under(&self.copies_of, current) {
                if seen.insert(copy) {
                    stack.push(copy);
                    out.push(copy);
                }
            }
        }
        out
    }

    /// The routing entry of `id`, when the directory tracks it.
    pub(crate) fn entry(&self, id: PdId) -> Option<&DirectoryEntry> {
        self.entries.get(&id)
    }

    /// The ids recorded as living off `subject`'s home shard (tombstones
    /// included; readers filter).
    pub(crate) fn foreign_of(&self, subject: SubjectId) -> Vec<PdId> {
        ids_under(&self.foreign, subject).collect()
    }

    /// The ids that still have at least one direct copy on record — the
    /// scrubber must not reclaim these tombstones, or the directory (and the
    /// per-shard reverse-lineage indexes rebuilt from it) would dangle.
    pub(crate) fn copy_sources(&self) -> BTreeSet<PdId> {
        self.copies_of
            .iter()
            .map(|&(original, _)| original)
            .collect()
    }

    /// Drops every trace of reclaimed identifiers: tombstone marks, routing
    /// entries, foreign placements and lineage edges.  Called only after the
    /// scrubber has durably freed the tombstones on their shards, so the
    /// monotonic-tombstone rule is not violated — the ids no longer exist
    /// anywhere, and a fresh mount would rebuild the directory without them.
    pub(crate) fn forget(&mut self, ids: impl IntoIterator<Item = PdId>) {
        for id in ids {
            self.erased.remove(&id);
            if let Some(entry) = self.entries.remove(&id) {
                self.foreign.remove(&(entry.subject, id));
            }
            if let Some(parent) = self.copied_from.remove(&id) {
                self.copies_of.remove(&(parent, id));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(table: &str, subject: u64) -> DirectoryEntry {
        DirectoryEntry {
            data_type: table.into(),
            subject: SubjectId::new(subject),
        }
    }

    #[test]
    fn closure_walks_transitive_copies() {
        let mut dir = LineageDirectory::default();
        // 1 -> 2 -> 3, 1 -> 4.
        dir.register_copy(PdId::new(1), entry("t", 9), PdId::new(2), entry("t", 9));
        dir.register_copy(PdId::new(2), entry("t", 9), PdId::new(3), entry("t", 9));
        dir.register_copy(PdId::new(1), entry("t", 9), PdId::new(4), entry("t", 9));
        let mut closure = dir.closure([PdId::new(1)]);
        closure.sort();
        assert_eq!(closure, vec![PdId::new(2), PdId::new(3), PdId::new(4)]);
        assert_eq!(dir.closure([PdId::new(3)]), Vec::<PdId>::new());
    }

    #[test]
    fn lineage_erasure_guard_walks_ancestors() {
        let mut dir = LineageDirectory::default();
        dir.register_copy(PdId::new(1), entry("t", 9), PdId::new(2), entry("t", 9));
        dir.register_copy(PdId::new(2), entry("t", 9), PdId::new(3), entry("t", 9));
        assert!(!dir.lineage_erased(PdId::new(3)));
        dir.mark_erased([PdId::new(1)]);
        assert!(dir.lineage_erased(PdId::new(3)));
        assert!(dir.lineage_erased(PdId::new(1)));
        assert!(!dir.lineage_erased(PdId::new(7)), "untracked ids are clean");
        assert!(dir.is_erased(PdId::new(1)));
        assert!(!dir.is_erased(PdId::new(3)));
    }

    #[test]
    fn foreign_placements_are_per_subject() {
        let mut dir = LineageDirectory::default();
        dir.register_foreign(SubjectId::new(5), PdId::new(10), entry("t", 5));
        dir.register_foreign(SubjectId::new(5), PdId::new(11), entry("u", 5));
        dir.register_foreign(SubjectId::new(6), PdId::new(12), entry("t", 6));
        assert_eq!(
            dir.foreign_of(SubjectId::new(5)),
            vec![PdId::new(10), PdId::new(11)]
        );
        assert!(dir.foreign_of(SubjectId::new(7)).is_empty());
        assert_eq!(dir.entry(PdId::new(11)).unwrap().data_type, "u".into());
    }

    /// Two shards, every subject at home on shard 0: pd-0 (erased) on shard
    /// 0, its copy pd-1 on shard 1 — so pd-1 is an edge and a foreign
    /// placement, pd-0 a tombstone.
    fn summaries() -> GlobalSummaries {
        let summary = |raw: u64, copied_from: Option<u64>, erased| RecordSummary {
            id: PdId::new(raw),
            data_type: "t".into(),
            subject: SubjectId::new(9),
            copied_from: copied_from.map(PdId::new),
            erased,
        };
        GlobalSummaries::from([
            (PdId::new(0), (0, summary(0, None, true))),
            (PdId::new(1), (1, summary(1, Some(0), false))),
        ])
    }

    fn derive(global: &GlobalSummaries) -> LineageDirectory {
        LineageDirectory::from_summaries(global, |_| 0)
    }

    #[test]
    fn from_summaries_derives_edges_foreign_placements_and_tombstones() {
        let dir = derive(&summaries());
        assert_eq!(dir.closure([PdId::new(0)]), [PdId::new(1)]);
        assert!(dir.lineage_erased(PdId::new(1)) && !dir.is_erased(PdId::new(1)));
        assert_eq!(dir.foreign_of(SubjectId::new(9)), [PdId::new(1)]);
        assert_eq!(dir.copy_sources(), BTreeSet::from([PdId::new(0)]));
        assert_eq!(dir.first_difference(&derive(&summaries())), None);
    }

    #[test]
    fn first_difference_names_a_missing_edge_a_stale_placement_and_a_tombstone_mismatch() {
        let rebuilt = derive(&summaries());
        let differs = |live: &LineageDirectory| live.first_difference(&rebuilt).unwrap();

        let mut missing_edge = derive(&summaries());
        missing_edge.copied_from.remove(&PdId::new(1));
        assert!(differs(&missing_edge).starts_with("lineage edge of pd-1 differs"));
        // A reclaimed copy nobody told the directory about.
        let mut gone = summaries();
        gone.remove(&PdId::new(1));
        let stale_edge = rebuilt.first_difference(&derive(&gone)).unwrap();
        assert!(stale_edge.starts_with("lineage edge of pd-1 differs"));

        let mut stale_placement = derive(&summaries());
        stale_placement.register_foreign(SubjectId::new(9), PdId::new(5), entry("t", 9));
        assert!(differs(&stale_placement).starts_with("foreign placement of pd-5 differs"));

        let mut unmarked = derive(&summaries());
        unmarked.retract_erased([PdId::new(0)]);
        assert!(differs(&unmarked).starts_with("tombstone mark of pd-0 differs"));
        let mut pre_announced = derive(&summaries());
        pre_announced.mark_erased([PdId::new(1)]);
        assert!(differs(&pre_announced).starts_with("tombstone mark of pd-1 differs"));

        // `forget` is the exact reverse of the derivation.
        let mut forgotten = derive(&summaries());
        forgotten.forget([PdId::new(1)]);
        assert_eq!(forgotten.first_difference(&derive(&gone)), None);
        assert!(forgotten.copy_sources().is_empty() && forgotten.foreign.is_empty());
    }
}
