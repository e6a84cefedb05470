//! The in-memory index of a [`Dbfs`](crate::Dbfs): the primary record map
//! and the structures derived from it, which a mount rebuilds from the
//! membranes on disk.  Each derivation is stated once:
//!
//! * [`keys_of`] says which table, subject, expiry and lineage key a record
//!   contributes.  The mutators, the mount rebuild (it inserts record by
//!   record) and the checker ([`DbfsIndex::verify`]) all go through it, so a
//!   structure cannot be maintained one way and checked another.
//! * [`erased_ancestor`] is the lineage obligation — no copy outlives its
//!   erased original — as one chain walk, shared by the insert guard, the
//!   shard router's directory and the crash-matrix oracle.
//!
//! The subject, expiry and lineage indexes are flat `(key, id)` sets read
//! by range scan.  All copy-on-write ([`Arc::make_mut`]) happens here.

use crate::dbfs::{corrupt, unknown_type, IdAllocation};
use crate::error::DbfsError;
use rgpdos_core::{
    DataTypeId, DataTypeSchema, Membrane, PdId, SchemaRegistry, SubjectId, Timestamp,
};
use rgpdos_inode::Ino;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Walks the `copied_from` chain that begins at `start` and returns the
/// first erased record on it, if any — the one statement of "a copy must
/// not outlive its lineage".
///
/// `lookup` answers `(erased, copied_from)` for an id, or `None` for an id
/// it does not know, where the chain ends.  The walk is cycle-guarded, so a
/// corrupt chain terminates.
pub fn erased_ancestor(
    start: Option<PdId>,
    lookup: impl Fn(PdId) -> Option<(bool, Option<PdId>)>,
) -> Option<PdId> {
    let mut seen = BTreeSet::new();
    let mut next = start;
    while let Some(current) = next.filter(|id| seen.insert(*id)) {
        let (erased, copied_from) = lookup(current)?;
        if erased {
            return Some(current);
        }
        next = copied_from;
    }
    None
}

#[derive(Debug, Clone)]
pub(crate) struct RecordLocation {
    pub(crate) data_type: DataTypeId,
    pub(crate) subject: SubjectId,
    pub(crate) ino: Ino,
    pub(crate) erased: bool,
    /// Direct lineage parent when the record was produced by `copy`.
    pub(crate) copied_from: Option<PdId>,
    /// When the record's retention period elapses (`None` for unbounded TTLs
    /// and for tombstones, which no longer expire).
    pub(crate) expires_at: Option<Timestamp>,
}

impl RecordLocation {
    pub(crate) fn from_membrane(data_type: &DataTypeId, membrane: &Membrane, ino: Ino) -> Self {
        Self {
            data_type: data_type.clone(),
            subject: membrane.subject(),
            ino,
            erased: membrane.is_erased(),
            copied_from: membrane.copied_from(),
            expires_at: membrane.expiry_instant(),
        }
    }
}

/// What one record contributes to the derived indexes: its table, its
/// `(subject, id)`, its `(expiry instant, id)` while it is live and bounded,
/// and its `(original, copy)` lineage edge when it is a copy.
struct Keys<'a> {
    table: &'a DataTypeId,
    subject: (SubjectId, PdId),
    expiry: Option<(Timestamp, PdId)>,
    lineage: Option<(PdId, PdId)>,
}

/// The single definition of the derived-index keys of a record.
fn keys_of(id: PdId, location: &RecordLocation) -> Keys<'_> {
    let expires_at = location.expires_at.filter(|_| !location.erased);
    Keys {
        table: &location.data_type,
        subject: (location.subject, id),
        expiry: expires_at.map(|at| (at, id)),
        lineage: location.copied_from.map(|original| (original, id)),
    }
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

/// The maps a reader can consult, held by the writer-side [`DbfsIndex`] and
/// by every published [`IndexSnapshot`].  Each is `Arc`-wrapped, so
/// publishing is one clone of this struct (seven `Arc` clones, no map copy,
/// whatever the store's size); the *first* writer mutation after a publish
/// copies only the maps it touches ([`Arc::make_mut`] copy-on-write) while
/// the published snapshots keep the previous versions alive.
#[derive(Debug, Clone, Default)]
pub(crate) struct IndexView {
    pub(crate) schemas: Arc<SchemaRegistry>,
    pub(crate) tables: Arc<BTreeMap<DataTypeId, Ino>>,
    pub(crate) subjects: Arc<BTreeMap<SubjectId, Ino>>,
    /// The primary record map.
    pub(crate) records: Arc<BTreeMap<PdId, RecordLocation>>,
    /// Secondary index: table -> record ids (live and tombstoned).
    by_table: Arc<BTreeMap<DataTypeId, BTreeSet<PdId>>>,
    /// Secondary index: `(subject, id)` (live and tombstoned).
    by_subject: Arc<BTreeSet<(SubjectId, PdId)>>,
    /// Expiry index: `(expiry instant, id)` of live bounded-TTL records.
    /// The retention sweep only ever visits its `..now` range.
    by_expiry: Arc<BTreeSet<(Timestamp, PdId)>>,
}

impl IndexView {
    /// The ids of one table (empty when the table holds no record yet).
    pub(crate) fn table_ids(&self, data_type: &DataTypeId) -> impl Iterator<Item = PdId> + '_ {
        self.by_table
            .get(data_type)
            .into_iter()
            .flat_map(|ids| ids.iter().copied())
    }

    /// The ids of one subject (empty when the subject owns no record).
    pub(crate) fn subject_ids(&self, subject: SubjectId) -> impl Iterator<Item = PdId> + '_ {
        ids_under(&self.by_subject, subject)
    }

    /// The live bounded-TTL ids whose retention period elapsed before `now`.
    pub(crate) fn expired_ids(&self, now: Timestamp) -> impl Iterator<Item = PdId> + '_ {
        self.by_expiry
            .range(..(now, PdId::new(0)))
            .map(|&(_, id)| id)
    }

    /// Projects ids onto their locations (live and tombstoned).
    pub(crate) fn locations<'a>(
        &'a self,
        ids: impl Iterator<Item = PdId> + 'a,
    ) -> impl Iterator<Item = (PdId, &'a RecordLocation)> + 'a {
        ids.filter_map(|id| self.records.get(&id).map(|loc| (id, loc)))
    }

    /// Projects ids onto their live (non-tombstoned) locations.
    pub(crate) fn live_locations<'a>(
        &'a self,
        ids: impl Iterator<Item = PdId> + 'a,
    ) -> impl Iterator<Item = (PdId, &'a RecordLocation)> + 'a {
        self.locations(ids).filter(|(_, loc)| !loc.erased)
    }

    /// Resolves a record, checking table membership.
    pub(crate) fn locate(
        &self,
        data_type: &DataTypeId,
        id: PdId,
    ) -> Result<&RecordLocation, DbfsError> {
        if !self.tables.contains_key(data_type) {
            return Err(unknown_type(data_type));
        }
        match self.records.get(&id) {
            Some(location) if location.data_type == *data_type => Ok(location),
            _ => Err(DbfsError::UnknownPd { id: id.raw() }),
        }
    }
}

/// The writer-side index: the reader-visible [`IndexView`] plus what is only
/// ever consulted under the index lock (`copies_of`, the allocator state).
#[derive(Debug, Default)]
pub(crate) struct DbfsIndex {
    pub(crate) view: IndexView,
    /// Reverse copy-lineage index: `(original, direct copy)`.  Erasure
    /// propagation walks the transitive closure of it.
    copies_of: BTreeSet<(PdId, PdId)>,
    /// Identifier allocation policy (dense by default, strided on shards).
    pub(crate) alloc: IdAllocation,
    pub(crate) next_pd: u64,
    /// Monotonic version counter, bumped on every snapshot publish.
    pub(crate) epoch: u64,
    pub(crate) tables_ino: Ino,
    pub(crate) subjects_ino: Ino,
    pub(crate) meta_ino: Ino,
    /// The erase-intent WAL file, once one exists (created lazily).
    pub(crate) intents_ino: Option<Ino>,
}

impl DbfsIndex {
    /// An empty index over the three root entries of a DBFS image.
    pub(crate) fn new(
        alloc: IdAllocation,
        tables_ino: Ino,
        subjects_ino: Ino,
        meta_ino: Ino,
    ) -> Self {
        Self {
            alloc,
            tables_ino,
            subjects_ino,
            meta_ino,
            ..Self::default()
        }
    }

    /// Makes a table and its schema known (`create_type`, and the mount
    /// scan as it meets each table's schema entry).
    pub(crate) fn register_type(&mut self, table_ino: Ino, schema: DataTypeSchema) {
        Arc::make_mut(&mut self.view.tables).insert(schema.name().clone(), table_ino);
        Arc::make_mut(&mut self.view.schemas).register(schema);
    }

    /// Makes a subject's subtree known.
    pub(crate) fn register_subject(&mut self, subject: SubjectId, ino: Ino) {
        Arc::make_mut(&mut self.view.subjects).insert(subject, ino);
    }

    /// Files a record under every key [`keys_of`] derives for it, then into
    /// the primary map.
    pub(crate) fn insert_record(&mut self, id: PdId, location: RecordLocation) {
        let keys = keys_of(id, &location);
        Arc::make_mut(&mut self.view.by_table)
            .entry(keys.table.clone())
            .or_default()
            .insert(id);
        Arc::make_mut(&mut self.view.by_subject).insert(keys.subject);
        if let Some(key) = keys.expiry {
            Arc::make_mut(&mut self.view.by_expiry).insert(key);
        }
        if let Some(key) = keys.lineage {
            self.copies_of.insert(key);
        }
        Arc::make_mut(&mut self.view.records).insert(id, location);
    }

    /// Drops a record from the primary map and from under every key it was
    /// filed — the exact reverse of [`DbfsIndex::insert_record`].
    pub(crate) fn remove_record(&mut self, id: PdId, location: &RecordLocation) {
        let keys = keys_of(id, location);
        Arc::make_mut(&mut self.view.records).remove(&id);
        if let Some(ids) = Arc::make_mut(&mut self.view.by_table).get_mut(keys.table) {
            ids.remove(&id);
        }
        Arc::make_mut(&mut self.view.by_subject).remove(&keys.subject);
        if let Some(key) = keys.expiry {
            Arc::make_mut(&mut self.view.by_expiry).remove(&key);
        }
        if let Some(key) = keys.lineage {
            self.copies_of.remove(&key);
        }
    }

    /// Changes a record in place and re-files it under its expiry key, the
    /// only derived key whose inputs (`erased`, `expires_at`) ever change.
    fn update(&mut self, id: PdId, change: impl FnOnce(&mut RecordLocation)) {
        let Some(location) = Arc::make_mut(&mut self.view.records).get_mut(&id) else {
            return;
        };
        let before = keys_of(id, location).expiry;
        change(location);
        let after = keys_of(id, location).expiry;
        if before != after {
            let by_expiry = Arc::make_mut(&mut self.view.by_expiry);
            if let Some(key) = before {
                by_expiry.remove(&key);
            }
            if let Some(key) = after {
                by_expiry.insert(key);
            }
        }
    }

    /// Marks a record as a tombstone, retiring it from the expiry index.
    pub(crate) fn mark_erased(&mut self, id: PdId) {
        self.update(id, |location| {
            location.erased = true;
            location.expires_at = None;
        });
    }

    /// Re-keys a live record in the expiry index after a TTL change.
    pub(crate) fn set_expiry(&mut self, id: PdId, expires_at: Option<Timestamp>) {
        self.update(id, |location| {
            if !location.erased {
                location.expires_at = expires_at;
            }
        });
    }

    /// Whether any record still names `id` as its lineage original.
    pub(crate) fn has_copies(&self, id: PdId) -> bool {
        ids_under(&self.copies_of, id).next().is_some()
    }

    /// What an erasure of `roots` must tombstone: the live records among
    /// them, then the live records of their copy closures, each once.
    pub(crate) fn erasure_targets(&self, roots: &[PdId]) -> Vec<(DataTypeId, PdId)> {
        let mut seen: BTreeSet<PdId> = roots.iter().copied().collect();
        let copies = roots.iter().flat_map(|&root| self.lineage_closure(root));
        let copies: Vec<PdId> = copies.filter(|copy| seen.insert(*copy)).collect();
        let targets = self
            .view
            .live_locations(roots.iter().copied().chain(copies));
        targets
            .map(|(id, loc)| (loc.data_type.clone(), id))
            .collect()
    }

    /// The transitive copy closure of `id` (excluding `id` itself), computed
    /// purely from the reverse-lineage index — no disk I/O.
    fn lineage_closure(&self, id: PdId) -> Vec<PdId> {
        let mut closure = Vec::new();
        let mut seen = BTreeSet::from([id]);
        let mut stack = vec![id];
        while let Some(current) = stack.pop() {
            for copy in ids_under(&self.copies_of, current) {
                if seen.insert(copy) {
                    stack.push(copy);
                    closure.push(copy);
                }
            }
        }
        closure
    }

    /// Checks the derived structures against the primary map: every key
    /// [`keys_of`] derives is filed, and each structure holds exactly as
    /// many entries as were derived.  Together that is set equality, decided
    /// without materialising a second index.
    pub(crate) fn verify(&self) -> Result<(), DbfsError> {
        const NAMES: [&str; 4] = ["table", "subject", "expiry", "lineage"];
        let view = &self.view;
        let mut derived = [0usize; 4];
        for (&id, location) in view.records.iter() {
            let keys = keys_of(id, location);
            let in_table = view.by_table.get(keys.table);
            let filed = [
                Some(in_table.is_some_and(|ids| ids.contains(&id))),
                Some(view.by_subject.contains(&keys.subject)),
                keys.expiry.map(|key| view.by_expiry.contains(&key)),
                keys.lineage.map(|key| self.copies_of.contains(&key)),
            ];
            for (i, filed) in filed.into_iter().enumerate() {
                match filed {
                    Some(true) => derived[i] += 1,
                    Some(false) => {
                        return Err(corrupt(format!("{id} missing from {} index", NAMES[i])))
                    }
                    None => {}
                }
            }
        }
        let held = [
            view.by_table.values().map(BTreeSet::len).sum(),
            view.by_subject.len(),
            view.by_expiry.len(),
            self.copies_of.len(),
        ];
        match (0..4).find(|&i| held[i] != derived[i]) {
            None => Ok(()),
            Some(i) => Err(corrupt(format!(
                "{} index holds {} entries, the records derive {}",
                NAMES[i], held[i], derived[i]
            ))),
        }
    }

    /// Cuts an immutable snapshot of the index: one clone of its view.
    pub(crate) fn snapshot(
        &self,
        published_at: Timestamp,
        committed_txs: u64,
    ) -> Arc<IndexSnapshot> {
        Arc::new(IndexSnapshot {
            epoch: self.epoch,
            published_at,
            committed_txs,
            view: self.view.clone(),
        })
    }
}

/// An immutable, versioned view of the record index, published by writers
/// at each commit point and read lock-free (one `RwLock` read to clone an
/// `Arc`, never held across device I/O).
#[derive(Debug)]
pub(crate) struct IndexSnapshot {
    /// Version counter; strictly increasing across publishes.
    pub(crate) epoch: u64,
    /// Logical instant of the publish (drives `read_snapshot_age`).
    pub(crate) published_at: Timestamp,
    /// Journal transactions committed when this snapshot was cut: the
    /// inode-layer commit sequence the snapshot's contents are durable up to.
    pub(crate) committed_txs: u64,
    /// The publishing [`DbfsIndex`]'s view at commit time.
    pub(crate) view: IndexView,
}

#[cfg(test)]
mod tests {
    use super::*;

    const SUBJECT: SubjectId = SubjectId::new(7);

    fn location(copied_from: Option<u64>, expires_at: Option<u64>) -> RecordLocation {
        RecordLocation {
            data_type: "user".into(),
            subject: SUBJECT,
            ino: 0,
            erased: false,
            copied_from: copied_from.map(PdId::new),
            expires_at: expires_at.map(Timestamp::from_secs),
        }
    }

    /// pd-1 (expires at 50) and its copy pd-2 (unbounded).
    fn index() -> DbfsIndex {
        let mut index = DbfsIndex::default();
        index.insert_record(PdId::new(1), location(None, Some(50)));
        index.insert_record(PdId::new(2), location(Some(1), None));
        index.verify().unwrap();
        index
    }

    fn complaint(index: &DbfsIndex) -> String {
        index.verify().unwrap_err().to_string()
    }

    fn table<'a>(index: &'a mut DbfsIndex, name: &str) -> &'a mut BTreeSet<PdId> {
        Arc::make_mut(&mut index.view.by_table)
            .entry(name.into())
            .or_default()
    }

    #[test]
    fn verify_names_a_dropped_an_added_and_a_mis_keyed_table_entry() {
        let mut dropped = index();
        table(&mut dropped, "user").remove(&PdId::new(2));
        assert!(complaint(&dropped).contains("pd-2 missing from table index"));
        let mut added = index();
        table(&mut added, "user").insert(PdId::new(9));
        assert!(complaint(&added).contains("table index holds 3 entries"));
        let mut mis_keyed = index();
        table(&mut mis_keyed, "user").remove(&PdId::new(1));
        table(&mut mis_keyed, "order").insert(PdId::new(1));
        assert!(complaint(&mis_keyed).contains("pd-1 missing from table index"));
    }

    #[test]
    fn verify_names_a_dropped_an_added_and_a_mis_keyed_subject_entry() {
        let other = SubjectId::new(8);
        let mut dropped = index();
        Arc::make_mut(&mut dropped.view.by_subject).remove(&(SUBJECT, PdId::new(1)));
        assert!(complaint(&dropped).contains("pd-1 missing from subject index"));
        let mut added = index();
        Arc::make_mut(&mut added.view.by_subject).insert((other, PdId::new(1)));
        assert!(complaint(&added).contains("subject index holds 3 entries"));
        let mut mis_keyed = index();
        Arc::make_mut(&mut mis_keyed.view.by_subject).remove(&(SUBJECT, PdId::new(2)));
        Arc::make_mut(&mut mis_keyed.view.by_subject).insert((other, PdId::new(2)));
        assert!(complaint(&mis_keyed).contains("pd-2 missing from subject index"));
    }

    #[test]
    fn verify_names_a_dropped_an_added_and_a_mis_keyed_expiry_entry() {
        let at = Timestamp::from_secs;
        let mut dropped = index();
        Arc::make_mut(&mut dropped.view.by_expiry).remove(&(at(50), PdId::new(1)));
        assert!(complaint(&dropped).contains("pd-1 missing from expiry index"));
        let mut added = index();
        Arc::make_mut(&mut added.view.by_expiry).insert((at(60), PdId::new(2)));
        assert!(complaint(&added).contains("expiry index holds 2 entries"));
        let mut mis_keyed = index();
        Arc::make_mut(&mut mis_keyed.view.by_expiry).remove(&(at(50), PdId::new(1)));
        Arc::make_mut(&mut mis_keyed.view.by_expiry).insert((at(51), PdId::new(1)));
        assert!(complaint(&mis_keyed).contains("pd-1 missing from expiry index"));
    }

    #[test]
    fn verify_names_a_dropped_an_added_and_a_mis_keyed_lineage_entry() {
        let mut dropped = index();
        dropped.copies_of.remove(&(PdId::new(1), PdId::new(2)));
        assert!(complaint(&dropped).contains("pd-2 missing from lineage index"));
        let mut added = index();
        added.copies_of.insert((PdId::new(2), PdId::new(1)));
        assert!(complaint(&added).contains("lineage index holds 2 entries"));
        let mut mis_keyed = index();
        mis_keyed.copies_of.remove(&(PdId::new(1), PdId::new(2)));
        mis_keyed.copies_of.insert((PdId::new(3), PdId::new(2)));
        assert!(complaint(&mis_keyed).contains("pd-2 missing from lineage index"));
    }

    #[test]
    fn every_mutator_keeps_the_derived_structures_equal_to_the_keys() {
        let mut index = index();
        index.set_expiry(PdId::new(2), Some(Timestamp::from_secs(70)));
        index.verify().unwrap();
        let expired: Vec<PdId> = index.view.expired_ids(Timestamp::from_secs(71)).collect();
        assert_eq!(expired, [PdId::new(1), PdId::new(2)]);
        assert_eq!(index.view.expired_ids(Timestamp::from_secs(50)).count(), 0);
        index.set_expiry(PdId::new(2), None);
        index.mark_erased(PdId::new(1));
        index.verify().unwrap();
        assert_eq!(
            index
                .view
                .expired_ids(Timestamp::from_secs(u64::MAX))
                .count(),
            0
        );
        // A tombstone's expiry stays retired.
        index.set_expiry(PdId::new(1), Some(Timestamp::from_secs(5)));
        index.verify().unwrap();
        assert!(index.view.by_expiry.is_empty());
        assert!(index.has_copies(PdId::new(1)) && !index.has_copies(PdId::new(2)));
        assert_eq!(index.lineage_closure(PdId::new(1)), [PdId::new(2)]);
        assert_eq!(index.view.subject_ids(SUBJECT).count(), 2);
        let copy = index.view.records[&PdId::new(2)].clone();
        index.remove_record(PdId::new(2), &copy);
        index.verify().unwrap();
        assert!(!index.has_copies(PdId::new(1)));
        assert_eq!(
            index.view.subject_ids(SUBJECT).collect::<Vec<_>>(),
            [PdId::new(1)]
        );
        assert_eq!(index.view.table_ids(&"user".into()).count(), 1);
    }

    #[test]
    fn erased_ancestor_walks_a_chain_a_cycle_and_a_missing_parent() {
        // 4 -> 3 -> 2 -> 1, with 2 erased; 6 <-> 7 a cycle; 9 -> 8 unknown.
        let records: BTreeMap<u64, (bool, Option<u64>)> = BTreeMap::from([
            (1, (false, None)),
            (2, (true, Some(1))),
            (3, (false, Some(2))),
            (4, (false, Some(3))),
            (6, (false, Some(7))),
            (7, (false, Some(6))),
            (9, (false, Some(8))),
        ]);
        let lookup = |id: PdId| {
            let (erased, parent) = records.get(&id.raw())?;
            Some((*erased, parent.map(PdId::new)))
        };
        let walk = |start: u64| erased_ancestor(Some(PdId::new(start)), lookup).map(PdId::raw);
        assert_eq!(walk(4), Some(2), "the nearest erased ancestor");
        assert_eq!(walk(2), Some(2), "the start itself counts");
        assert_eq!(walk(1), None, "a chain that ends clean");
        assert_eq!(walk(6), None, "a cycle terminates");
        assert_eq!(walk(9), None, "a missing parent ends the chain");
        assert_eq!(walk(8), None, "an unknown start");
        assert_eq!(erased_ancestor(None, lookup), None);
    }
}
