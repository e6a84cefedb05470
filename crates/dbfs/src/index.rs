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
//!   shard router's copy guard and the crash-matrix oracle.
//! * Each [`RecordLocation`] holds its record's whole membrane: the
//!   per-record fields inline, its table and the rest of the membrane as
//!   [`Terms`] that every record of the table with equal terms shares,
//!   interned under the index lock ([`DbfsIndex`] keeps the intern table).
//!   Membrane reads are answered from the index alone.
//!
//! The subject, expiry and lineage indexes are flat `(key, id)` sets read
//! by range scan.  Everything a snapshot shares with the writer is a
//! [`PMap`], the persistent ordered map defined here, so a publish copies
//! nothing and the first mutation after it copies one leaf and the spine.

use crate::dbfs::{corrupt, unknown_type, IdAllocation};
use crate::error::DbfsError;
use rgpdos_core::{
    CollectionMethod, ConsentTable, DataTypeId, DataTypeSchema, Membrane, Origin, PdId,
    SchemaRegistry, Sensitivity, SubjectId, TimeToLive, Timestamp,
};
use rgpdos_inode::Ino;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::ops::{Bound, RangeBounds};
use std::sync::Arc;

/// Most entries a [`PMap`] leaf holds.
const LEAF: usize = 64;

/// A persistent ordered map: a spine of `Arc`'d sorted leaves of at most
/// [`LEAF`] entries each, both copy-on-write.  `clone` is two words and
/// shares everything; a mutation of a shared map copies the leaf it lands in
/// and the spine of leaf pointers, and every other leaf stays shared with
/// the clones taken before.  No leaf is empty.
#[derive(Debug)]
pub(crate) struct PMap<K, V> {
    leaves: Arc<Vec<Leaf<K, V>>>,
    len: usize,
}

type Leaf<K, V> = Arc<Vec<(K, V)>>;

/// A persistent ordered set, [`PMap`] with nothing filed under the keys.
pub(crate) type PSet<K> = PMap<K, ()>;

impl<K, V> Clone for PMap<K, V> {
    fn clone(&self) -> Self {
        Self {
            leaves: Arc::clone(&self.leaves),
            len: self.len,
        }
    }
}

impl<K, V> Default for PMap<K, V> {
    fn default() -> Self {
        Self {
            leaves: Arc::default(),
            len: 0,
        }
    }
}

impl<K: Ord + Clone, V: Clone> PMap<K, V> {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Where `key` is or would go: the last leaf that starts at or before
    /// it (the first leaf for a key below every other), and the
    /// `binary_search` outcome inside that leaf.
    fn position(&self, key: &K) -> (usize, Result<usize, usize>) {
        let at = self.leaves.partition_point(|leaf| leaf[0].0 <= *key);
        let at = at.saturating_sub(1);
        let within = self
            .leaves
            .get(at)
            .map_or(Err(0), |leaf| leaf.binary_search_by(|(k, _)| k.cmp(key)));
        (at, within)
    }

    pub(crate) fn get(&self, key: &K) -> Option<&V> {
        let (at, within) = self.position(key);
        within.ok().map(|slot| &self.leaves[at][slot].1)
    }

    pub(crate) fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    pub(crate) fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let (at, within) = self.position(key);
        let slot = within.ok()?;
        Some(&mut Arc::make_mut(&mut Arc::make_mut(&mut self.leaves)[at])[slot].1)
    }

    /// What is filed under `key`, filing the default first when nothing is.
    pub(crate) fn or_default(&mut self, key: &K) -> &mut V
    where
        V: Default,
    {
        if !self.contains_key(key) {
            self.insert(key.clone(), V::default());
        }
        self.get_mut(key).expect("just filed")
    }

    /// Files `value` under `key`, returning what was filed there before.
    pub(crate) fn insert(&mut self, key: K, value: V) -> Option<V> {
        let (at, within) = self.position(&key);
        let leaves = Arc::make_mut(&mut self.leaves);
        if leaves.is_empty() {
            leaves.push(Arc::default());
        }
        let leaf = Arc::make_mut(&mut leaves[at]);
        let slot = match within {
            Ok(slot) => return Some(std::mem::replace(&mut leaf[slot].1, value)),
            Err(slot) => slot,
        };
        leaf.insert(slot, (key, value));
        self.len += 1;
        if leaf.len() > LEAF {
            // An append splits off the new entry alone, so ascending keys
            // (record ids) leave full leaves behind; anything else halves.
            let tail = leaf.split_off(if slot == LEAF { LEAF } else { LEAF / 2 });
            leaves.insert(at + 1, Arc::new(tail));
        }
        None
    }

    /// Drops `key`, returning what was filed under it.  A leaf left empty
    /// goes; one left small is merged into its successor's place when the
    /// two fit half a leaf, so a sparse map does not keep a long spine.
    pub(crate) fn remove(&mut self, key: &K) -> Option<V> {
        let (at, within) = self.position(key);
        let slot = within.ok()?;
        let leaves = Arc::make_mut(&mut self.leaves);
        let (_, value) = Arc::make_mut(&mut leaves[at]).remove(slot);
        self.len -= 1;
        let next = leaves.get(at + 1).map_or(LEAF, |next| next.len());
        if leaves[at].is_empty() {
            leaves.remove(at);
        } else if leaves[at].len() + next <= LEAF / 2 {
            let next = leaves.remove(at + 1);
            Arc::make_mut(&mut leaves[at]).extend(next.iter().cloned());
        }
        Some(value)
    }

    /// The entries whose keys lie in `range`, in key order.
    pub(crate) fn range<'a>(
        &'a self,
        range: impl RangeBounds<K>,
    ) -> impl Iterator<Item = (&'a K, &'a V)> + 'a {
        let (start, end) = (range.start_bound().cloned(), range.end_bound().cloned());
        let first = match &start {
            Bound::Included(key) | Bound::Excluded(key) => self.position(key).0,
            Bound::Unbounded => 0,
        };
        self.leaves[first..]
            .iter()
            .flat_map(|leaf| leaf.iter().map(|(key, value)| (key, value)))
            .skip_while(move |(key, _)| match &start {
                Bound::Included(start) => *key < start,
                Bound::Excluded(start) => *key <= start,
                Bound::Unbounded => false,
            })
            .take_while(move |(key, _)| match &end {
                Bound::Included(end) => *key <= end,
                Bound::Excluded(end) => *key < end,
                Bound::Unbounded => true,
            })
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (&K, &V)> + '_ {
        self.range(..)
    }

    pub(crate) fn keys(&self) -> impl Iterator<Item = &K> + '_ {
        self.iter().map(|(key, _)| key)
    }

    pub(crate) fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.iter().map(|(_, value)| value)
    }
}

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

/// A record's table and what its membrane states beyond the record —
/// origin, consent table, retention period, sensitivity, collection
/// interfaces — and so what many records share: every record collected into
/// a table under its schema's defaults holds the same terms until its
/// subject changes them.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Terms {
    /// The intern key, a hash of the rest ([`Terms::key_of`]).
    key: u64,
    data_type: DataTypeId,
    origin: Origin,
    consents: ConsentTable,
    time_to_live: TimeToLive,
    sensitivity: Sensitivity,
    collection: Vec<CollectionMethod>,
}

impl Terms {
    fn of(key: u64, data_type: &DataTypeId, membrane: &Membrane) -> Self {
        Self {
            key,
            data_type: data_type.clone(),
            origin: membrane.origin(),
            consents: membrane.consents().clone(),
            time_to_live: membrane.time_to_live(),
            sensitivity: membrane.sensitivity(),
            collection: membrane.collection_methods().to_vec(),
        }
    }

    /// The intern key of a record of `data_type` wrapped in `membrane`.
    fn key_of(data_type: &DataTypeId, membrane: &Membrane) -> u64 {
        let mut hasher = DefaultHasher::new();
        data_type.hash(&mut hasher);
        membrane.origin().hash(&mut hasher);
        membrane.consents().hash(&mut hasher);
        membrane.time_to_live().hash(&mut hasher);
        membrane.sensitivity().hash(&mut hasher);
        membrane.collection_methods().hash(&mut hasher);
        hasher.finish()
    }

    /// Whether a record of `data_type` wrapped in `membrane` has exactly
    /// these terms.
    fn stated_by(&self, data_type: &DataTypeId, membrane: &Membrane) -> bool {
        self.data_type == *data_type
            && self.origin == membrane.origin()
            && self.time_to_live == membrane.time_to_live()
            && self.sensitivity == membrane.sensitivity()
            && self.consents == *membrane.consents()
            && self.collection == membrane.collection_methods()
    }
}

#[derive(Debug, Clone)]
pub(crate) struct RecordLocation {
    pub(crate) subject: SubjectId,
    pub(crate) ino: Ino,
    pub(crate) erased: bool,
    /// Direct lineage parent when the record was produced by `copy`.
    pub(crate) copied_from: Option<PdId>,
    pub(crate) collected_at: Timestamp,
    /// The record's table and the rest of its membrane, shared with every
    /// record of equal terms.
    terms: Arc<Terms>,
}

impl RecordLocation {
    /// The location of a record wrapped in `membrane`.  `terms` are its
    /// terms, as [`DbfsIndex::terms_for`] found or made them.
    pub(crate) fn new(membrane: &Membrane, ino: Ino, terms: Arc<Terms>) -> Self {
        Self {
            subject: membrane.subject(),
            ino,
            erased: membrane.is_erased(),
            copied_from: membrane.copied_from(),
            collected_at: membrane.collected_at(),
            terms,
        }
    }

    /// The table the record lives in.
    pub(crate) fn data_type(&self) -> &DataTypeId {
        &self.terms.data_type
    }

    /// The record's membrane, rebuilt from the index alone.
    pub(crate) fn membrane(&self) -> Membrane {
        let terms = &self.terms;
        let mut membrane = Membrane::new(
            self.subject,
            terms.origin,
            terms.consents.clone(),
            terms.time_to_live,
            terms.sensitivity,
            self.collected_at,
        )
        .with_collection_methods(terms.collection.clone());
        if let Some(original) = self.copied_from {
            membrane = membrane.for_copy(original);
        }
        if self.erased {
            membrane.mark_erased();
        }
        membrane
    }

    /// When the record's retention period elapses: `None` for unbounded
    /// TTLs and for tombstones, which no longer expire.
    pub(crate) fn expires_at(&self) -> Option<Timestamp> {
        if self.erased {
            return None;
        }
        self.terms.time_to_live.expires_at(self.collected_at)
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
    Keys {
        table: location.data_type(),
        subject: (location.subject, id),
        expiry: location.expires_at().map(|at| (at, id)),
        lineage: location.copied_from.map(|original| (original, id)),
    }
}

/// The ids filed under `key` in a flat `(key, id)` index.
fn ids_under<K: Ord + Copy>(index: &PSet<(K, PdId)>, key: K) -> impl Iterator<Item = PdId> + '_ {
    index
        .range((key, PdId::new(0))..=(key, PdId::new(u64::MAX)))
        .map(|(&(_, id), ())| id)
}

/// The maps a reader can consult, held by the writer-side [`DbfsIndex`] and
/// by every published [`IndexSnapshot`].  Publishing is one clone of this
/// struct — six pointer clones, no map copy, whatever the store's size —
/// and the writer's next mutations copy only the [`PMap`] leaves they land
/// in, while the published snapshots keep the previous versions alive.
#[derive(Debug, Clone, Default)]
pub(crate) struct IndexView {
    pub(crate) schemas: Arc<SchemaRegistry>,
    pub(crate) tables: PMap<DataTypeId, Ino>,
    /// The primary record map.
    pub(crate) records: PMap<PdId, RecordLocation>,
    /// Secondary index: table -> record ids (live and tombstoned).
    by_table: PMap<DataTypeId, PSet<PdId>>,
    /// Secondary index: `(subject, id)` (live and tombstoned).
    by_subject: PSet<(SubjectId, PdId)>,
    /// Expiry index: `(expiry instant, id)` of live bounded-TTL records.
    /// The retention sweep only ever visits its `..now` range.
    by_expiry: PSet<(Timestamp, PdId)>,
}

impl IndexView {
    /// The ids of one table (empty when the table holds no record yet).
    pub(crate) fn table_ids(&self, data_type: &DataTypeId) -> impl Iterator<Item = PdId> + '_ {
        self.by_table
            .get(data_type)
            .into_iter()
            .flat_map(|ids| ids.keys().copied())
    }

    /// The ids of one subject (empty when the subject owns no record).
    pub(crate) fn subject_ids(&self, subject: SubjectId) -> impl Iterator<Item = PdId> + '_ {
        ids_under(&self.by_subject, subject)
    }

    /// The live bounded-TTL ids whose retention period elapsed before `now`.
    pub(crate) fn expired_ids(&self, now: Timestamp) -> impl Iterator<Item = PdId> + '_ {
        self.by_expiry
            .range(..(now, PdId::new(0)))
            .map(|(&(_, id), ())| id)
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
            Some(location) if location.data_type() == data_type => Ok(location),
            _ => Err(DbfsError::UnknownPd { id: id.raw() }),
        }
    }
}

/// The writer-side index: the reader-visible [`IndexView`] plus what is only
/// ever consulted under the index lock (`copies_of`, the terms intern table,
/// the allocator state).
#[derive(Debug, Default)]
pub(crate) struct DbfsIndex {
    pub(crate) view: IndexView,
    /// Reverse copy-lineage index: `(original, direct copy)`.  Erasure
    /// propagation walks the transitive closure of it.
    copies_of: PSet<(PdId, PdId)>,
    /// The interned terms of the records' membranes, one per key.  Two
    /// unequal terms under one key (a hash collision) cost only the sharing:
    /// the second stays unshared.
    terms: BTreeMap<u64, Arc<Terms>>,
    /// The intern table's size after its last sweep (see
    /// [`DbfsIndex::interned`]).
    terms_swept_at: usize,
    /// Identifier allocation policy (dense by default, strided on shards).
    pub(crate) alloc: IdAllocation,
    pub(crate) next_pd: u64,
    /// Monotonic version counter, bumped on every snapshot publish.
    pub(crate) epoch: u64,
    pub(crate) tables_ino: Ino,
    pub(crate) meta_ino: Ino,
    /// The erase-intent WAL file, once one exists (created lazily).
    pub(crate) intents_ino: Option<Ino>,
}

impl DbfsIndex {
    /// An empty index over the two root entries of a DBFS image.
    pub(crate) fn new(alloc: IdAllocation, tables_ino: Ino, meta_ino: Ino) -> Self {
        Self {
            alloc,
            tables_ino,
            meta_ino,
            ..Self::default()
        }
    }

    /// Makes a table and its schema known (`create_type`, and the mount
    /// scan as it meets each table's schema entry).
    pub(crate) fn register_type(&mut self, table_ino: Ino, schema: DataTypeSchema) {
        self.view.tables.insert(schema.name().clone(), table_ino);
        Arc::make_mut(&mut self.view.schemas).register(schema);
    }

    /// The interned terms of a record of `data_type` wrapped in `membrane`,
    /// or new terms that [`DbfsIndex::insert_record`] interns — a lookup
    /// only, so a writer stages an insert under a shared borrow of the index.
    pub(crate) fn terms_for(&self, data_type: &DataTypeId, membrane: &Membrane) -> Arc<Terms> {
        let key = Terms::key_of(data_type, membrane);
        let interned = self.terms.get(&key);
        match interned.filter(|terms| terms.stated_by(data_type, membrane)) {
            Some(terms) => Arc::clone(terms),
            None => Arc::new(Terms::of(key, data_type, membrane)),
        }
    }

    /// `terms` as interned.  Terms held by nothing else are new: they are
    /// filed, or replaced by equal terms filed since they were made.  Before
    /// it files, the table drops the terms it alone holds — no record and
    /// no snapshot names them — whenever it has doubled since the last such
    /// sweep, so it stays within twice the terms in use.
    fn interned(&mut self, terms: Arc<Terms>) -> Arc<Terms> {
        if Arc::strong_count(&terms) > 1 {
            return terms;
        }
        if let Some(equal) = self.terms.get(&terms.key).filter(|equal| **equal == terms) {
            return Arc::clone(equal);
        }
        if self.terms.len() >= 2 * self.terms_swept_at.max(32) {
            self.terms.retain(|_, terms| Arc::strong_count(terms) > 1);
            self.terms_swept_at = self.terms.len();
        }
        self.terms
            .entry(terms.key)
            .or_insert_with(|| Arc::clone(&terms));
        terms
    }

    /// Files a record under every key [`keys_of`] derives for it, then into
    /// the primary map, its terms interned.
    pub(crate) fn insert_record(&mut self, id: PdId, mut location: RecordLocation) {
        location.terms = self.interned(location.terms);
        let keys = keys_of(id, &location);
        self.view.by_table.or_default(keys.table).insert(id, ());
        self.view.by_subject.insert(keys.subject, ());
        if let Some(key) = keys.expiry {
            self.view.by_expiry.insert(key, ());
        }
        if let Some(key) = keys.lineage {
            self.copies_of.insert(key, ());
        }
        self.view.records.insert(id, location);
    }

    /// Drops a record from the primary map and from under every key it was
    /// filed — the exact reverse of [`DbfsIndex::insert_record`].
    pub(crate) fn remove_record(&mut self, id: PdId, location: &RecordLocation) {
        let keys = keys_of(id, location);
        self.view.records.remove(&id);
        if let Some(ids) = self.view.by_table.get_mut(keys.table) {
            ids.remove(&id);
        }
        self.view.by_subject.remove(&keys.subject);
        if let Some(key) = keys.expiry {
            self.view.by_expiry.remove(&key);
        }
        if let Some(key) = keys.lineage {
            self.copies_of.remove(&key);
        }
    }

    /// Changes a record in place and re-files it under its expiry key, the
    /// only derived key whose inputs (`erased`, the retention period) ever
    /// change.
    fn update(&mut self, id: PdId, change: impl FnOnce(&mut RecordLocation)) {
        let Some(location) = self.view.records.get_mut(&id) else {
            return;
        };
        let before = keys_of(id, location).expiry;
        change(location);
        let after = keys_of(id, location).expiry;
        if before != after {
            if let Some(key) = before {
                self.view.by_expiry.remove(&key);
            }
            if let Some(key) = after {
                self.view.by_expiry.insert(key, ());
            }
        }
    }

    /// Marks a record as a tombstone, retiring it from the expiry index.
    pub(crate) fn mark_erased(&mut self, id: PdId) {
        self.update(id, |location| location.erased = true);
    }

    /// Installs a record's changed membrane (a consent or retention
    /// change), interning its terms, and re-keys the record in the expiry
    /// index.
    pub(crate) fn set_membrane(&mut self, id: PdId, membrane: &Membrane) {
        let Some(location) = self.view.records.get(&id) else {
            return;
        };
        let terms = self.terms_for(location.data_type(), membrane);
        let terms = self.interned(terms);
        self.update(id, |location| location.terms = terms);
    }

    /// The records that name `id` as their lineage original.
    pub(crate) fn copies(&self, id: PdId) -> impl Iterator<Item = PdId> + '_ {
        ids_under(&self.copies_of, id)
    }

    /// The lineage original of every copy, once per copy.
    pub(crate) fn originals(&self) -> impl Iterator<Item = PdId> + '_ {
        self.copies_of.keys().map(|&(original, _)| original)
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
            .map(|(id, loc)| (loc.data_type().clone(), id))
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
                Some(in_table.is_some_and(|ids| ids.contains_key(&id))),
                Some(view.by_subject.contains_key(&keys.subject)),
                keys.expiry.map(|key| view.by_expiry.contains_key(&key)),
                keys.lineage.map(|key| self.copies_of.contains_key(&key)),
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
            view.by_table.values().map(PSet::len).sum(),
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
    use rgpdos_core::schema::listing1_user_schema;
    use rgpdos_core::{ConsentDecision, MembraneDelta};

    const SUBJECT: SubjectId = SubjectId::new(7);

    /// A record collected at 0 whose retention period ends at `expires_at`.
    fn location(copied_from: Option<u64>, expires_at: Option<u64>) -> RecordLocation {
        let ttl = expires_at.map_or(TimeToLive::Unbounded, TimeToLive::seconds);
        let consents = ConsentTable::new();
        let at = Timestamp::from_secs(0);
        let mut membrane = Membrane::new(
            SUBJECT,
            Origin::Subject,
            consents,
            ttl,
            Sensitivity::Low,
            at,
        );
        if let Some(original) = copied_from {
            membrane = membrane.for_copy(PdId::new(original));
        }
        let terms = DbfsIndex::default().terms_for(&"user".into(), &membrane);
        RecordLocation::new(&membrane, 0, terms)
    }

    fn change(index: &mut DbfsIndex, id: u64, delta: MembraneDelta) {
        let id = PdId::new(id);
        let mut membrane = index.view.records.get(&id).unwrap().membrane();
        membrane.apply(&delta);
        index.set_membrane(id, &membrane);
    }

    fn set_ttl(index: &mut DbfsIndex, id: u64, ttl: TimeToLive) {
        change(index, id, MembraneDelta::SetTimeToLive { ttl });
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

    fn table<'a>(index: &'a mut DbfsIndex, name: &str) -> &'a mut PSet<PdId> {
        index.view.by_table.or_default(&name.into())
    }

    #[test]
    fn verify_names_a_dropped_an_added_and_a_mis_keyed_table_entry() {
        let mut dropped = index();
        table(&mut dropped, "user").remove(&PdId::new(2));
        assert!(complaint(&dropped).contains("pd-2 missing from table index"));
        let mut added = index();
        table(&mut added, "user").insert(PdId::new(9), ());
        assert!(complaint(&added).contains("table index holds 3 entries"));
        let mut mis_keyed = index();
        table(&mut mis_keyed, "user").remove(&PdId::new(1));
        table(&mut mis_keyed, "order").insert(PdId::new(1), ());
        assert!(complaint(&mis_keyed).contains("pd-1 missing from table index"));
    }

    #[test]
    fn verify_names_a_dropped_an_added_and_a_mis_keyed_subject_entry() {
        let other = SubjectId::new(8);
        let mut dropped = index();
        dropped.view.by_subject.remove(&(SUBJECT, PdId::new(1)));
        assert!(complaint(&dropped).contains("pd-1 missing from subject index"));
        let mut added = index();
        added.view.by_subject.insert((other, PdId::new(1)), ());
        assert!(complaint(&added).contains("subject index holds 3 entries"));
        let mut mis_keyed = index();
        mis_keyed.view.by_subject.remove(&(SUBJECT, PdId::new(2)));
        mis_keyed.view.by_subject.insert((other, PdId::new(2)), ());
        assert!(complaint(&mis_keyed).contains("pd-2 missing from subject index"));
    }

    #[test]
    fn verify_names_a_dropped_an_added_and_a_mis_keyed_expiry_entry() {
        let at = Timestamp::from_secs;
        let mut dropped = index();
        dropped.view.by_expiry.remove(&(at(50), PdId::new(1)));
        assert!(complaint(&dropped).contains("pd-1 missing from expiry index"));
        let mut added = index();
        added.view.by_expiry.insert((at(60), PdId::new(2)), ());
        assert!(complaint(&added).contains("expiry index holds 2 entries"));
        let mut mis_keyed = index();
        mis_keyed.view.by_expiry.remove(&(at(50), PdId::new(1)));
        mis_keyed.view.by_expiry.insert((at(51), PdId::new(1)), ());
        assert!(complaint(&mis_keyed).contains("pd-1 missing from expiry index"));
    }

    #[test]
    fn verify_names_a_dropped_an_added_and_a_mis_keyed_lineage_entry() {
        let mut dropped = index();
        dropped.copies_of.remove(&(PdId::new(1), PdId::new(2)));
        assert!(complaint(&dropped).contains("pd-2 missing from lineage index"));
        let mut added = index();
        added.copies_of.insert((PdId::new(2), PdId::new(1)), ());
        assert!(complaint(&added).contains("lineage index holds 2 entries"));
        let mut mis_keyed = index();
        mis_keyed.copies_of.remove(&(PdId::new(1), PdId::new(2)));
        mis_keyed.copies_of.insert((PdId::new(3), PdId::new(2)), ());
        assert!(complaint(&mis_keyed).contains("pd-2 missing from lineage index"));
    }

    #[test]
    fn every_mutator_keeps_the_derived_structures_equal_to_the_keys() {
        let mut index = index();
        set_ttl(&mut index, 2, TimeToLive::seconds(70));
        index.verify().unwrap();
        let expired: Vec<PdId> = index.view.expired_ids(Timestamp::from_secs(71)).collect();
        assert_eq!(expired, [PdId::new(1), PdId::new(2)]);
        assert_eq!(index.view.expired_ids(Timestamp::from_secs(50)).count(), 0);
        set_ttl(&mut index, 2, TimeToLive::Unbounded);
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
        set_ttl(&mut index, 1, TimeToLive::seconds(5));
        index.verify().unwrap();
        assert_eq!(index.view.by_expiry.len(), 0);
        assert_eq!(
            index.copies(PdId::new(1)).collect::<Vec<_>>(),
            [PdId::new(2)]
        );
        assert_eq!(index.copies(PdId::new(2)).count(), 0);
        assert_eq!(index.lineage_closure(PdId::new(1)), [PdId::new(2)]);
        assert_eq!(index.view.subject_ids(SUBJECT).count(), 2);
        let copy = index.view.records.get(&PdId::new(2)).unwrap().clone();
        index.remove_record(PdId::new(2), &copy);
        index.verify().unwrap();
        assert_eq!(index.copies(PdId::new(1)).count(), 0);
        assert_eq!(
            index.view.subject_ids(SUBJECT).collect::<Vec<_>>(),
            [PdId::new(1)]
        );
        assert_eq!(index.view.table_ids(&"user".into()).count(), 1);
    }

    /// One step of the differential stream; keys are narrow so that the
    /// steps collide, and a run of inserts is ascending like record ids.
    #[derive(Debug, Clone)]
    enum MapOp {
        Insert(u64, u8),
        Run(u64, u8),
        Remove(u64),
        RemoveRun(u64, u8),
        Range(u64, u64),
        Snapshot,
    }

    fn map_op() -> impl proptest::strategy::Strategy<Value = MapOp> {
        use proptest::prelude::*;
        prop_oneof![
            (0u64..600, any::<u8>()).prop_map(|(key, value)| MapOp::Insert(key, value)),
            (0u64..600, 1u8..150).prop_map(|(from, len)| MapOp::Run(from, len)),
            (0u64..600).prop_map(MapOp::Remove),
            (0u64..600, 1u8..150).prop_map(|(from, len)| MapOp::RemoveRun(from, len)),
            (0u64..600, 0u64..300).prop_map(|(from, len)| MapOp::Range(from, from + len)),
            proptest::strategy::Just(MapOp::Snapshot),
        ]
    }

    fn same(map: &PMap<u64, u8>, model: &BTreeMap<u64, u8>) -> Result<(), String> {
        let entries = || map.iter().map(|(k, v)| (*k, *v));
        if !entries().eq(model.iter().map(|(k, v)| (*k, *v))) || map.len() != model.len() {
            return Err(format!(
                "{:?} is not {model:?}",
                entries().collect::<Vec<_>>()
            ));
        }
        match map
            .leaves
            .iter()
            .find(|leaf| leaf.is_empty() || leaf.len() > LEAF)
        {
            Some(leaf) => Err(format!("a leaf of {} entries", leaf.len())),
            None => Ok(()),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The persistent map against `BTreeMap`, step by step; a snapshot
        /// taken along the way still equals the model of its moment after
        /// everything that followed.
        #[test]
        fn the_persistent_map_is_a_btreemap_whose_clones_never_change(
            ops in proptest::collection::vec(map_op(), 1..120)
        ) {
            let (mut map, mut model) = (PMap::default(), BTreeMap::new());
            let mut snapshots = Vec::new();
            for op in ops {
                match op {
                    MapOp::Insert(key, value) => {
                        proptest::prop_assert_eq!(map.insert(key, value), model.insert(key, value));
                    }
                    MapOp::Run(from, len) => {
                        for key in from..from + u64::from(len) {
                            proptest::prop_assert_eq!(map.insert(key, len), model.insert(key, len));
                        }
                    }
                    MapOp::Remove(key) => {
                        proptest::prop_assert_eq!(map.get(&key), model.get(&key));
                        proptest::prop_assert_eq!(map.remove(&key), model.remove(&key));
                        proptest::prop_assert!(!map.contains_key(&key));
                    }
                    MapOp::RemoveRun(from, len) => {
                        for key in from..from + u64::from(len) {
                            proptest::prop_assert_eq!(map.remove(&key), model.remove(&key));
                        }
                    }
                    MapOp::Range(from, to) => {
                        let got: Vec<_> = map.range(from..to).map(|(k, v)| (*k, *v)).collect();
                        let want: Vec<_> = model.range(from..to).map(|(k, v)| (*k, *v)).collect();
                        proptest::prop_assert_eq!(got, want);
                        let got: Vec<_> = map.range(from..=to).map(|(k, _)| *k).collect();
                        let want: Vec<_> = model.range(from..=to).map(|(k, _)| *k).collect();
                        proptest::prop_assert_eq!(got, want);
                        let got: Vec<_> = map.range(..to).map(|(k, _)| *k).collect();
                        let want: Vec<_> = model.range(..to).map(|(k, _)| *k).collect();
                        proptest::prop_assert_eq!(got, want);
                        if let Some(value) = map.get_mut(&from) {
                            *value = value.wrapping_add(1);
                            *model.get_mut(&from).unwrap() = *value;
                        }
                    }
                    MapOp::Snapshot => snapshots.push((map.clone(), model.clone())),
                }
                if let Err(difference) = same(&map, &model) {
                    proptest::prop_assert!(false, "{}", difference);
                }
            }
            for (snapshot, model) in &snapshots {
                if let Err(difference) = same(snapshot, model) {
                    proptest::prop_assert!(false, "a snapshot changed: {}", difference);
                }
            }
        }
    }

    /// The regression test for "O(1) snapshots, O(n) first write": after a
    /// snapshot of 10k entries, one more insert shares every leaf but the
    /// one it lands in, and a record insert into a 10k-record index leaves
    /// all but a handful of the nodes of every map shared with the snapshot.
    #[test]
    fn one_insert_after_a_snapshot_shares_all_but_a_bounded_number_of_nodes() {
        fn unshared<K, V>(now: &PMap<K, V>, then: &PMap<K, V>) -> usize {
            let shared = |leaf| then.leaves.iter().any(|old| Arc::ptr_eq(old, leaf));
            now.leaves.iter().filter(|leaf| !shared(leaf)).count()
        }
        let mut map: PMap<u64, u64> = PMap::default();
        for key in 0..10_000 {
            map.insert(key * 2, key);
        }
        assert_eq!(
            map.leaves.len(),
            10_000 / LEAF + 1,
            "ascending keys fill their leaves"
        );
        let snapshot = map.clone();
        map.insert(9_001, 0);
        assert_eq!(unshared(&map, &snapshot), 2, "the full leaf it split");
        map.remove(&4_000);
        map.insert(20_001, 0);
        assert_eq!(unshared(&map, &snapshot), 4);
        assert_eq!((snapshot.len(), snapshot.get(&9_001)), (10_000, None));
        assert_eq!(snapshot.get(&4_000), Some(&2_000));

        let mut index = DbfsIndex::default();
        for id in 0..10_000 {
            let mut location = location(None, Some(1_000 + id / 4));
            location.subject = SubjectId::new(id % 1_250);
            index.insert_record(PdId::new(id), location);
        }
        let then = index.snapshot(Timestamp::from_secs(0), 0);
        index.insert_record(PdId::new(10_000), location(Some(17), Some(99)));
        index.mark_erased(PdId::new(5_000));
        index.verify().unwrap();
        let (now, then) = (&index.view, &then.view);
        let users = |view: &'_ IndexView| view.by_table.get(&"user".into()).unwrap().clone();
        let copied = unshared(&now.records, &then.records)
            + unshared(&users(now), &users(then))
            + unshared(&now.by_table, &then.by_table)
            + unshared(&now.by_subject, &then.by_subject)
            + unshared(&now.by_expiry, &then.by_expiry);
        assert!(
            copied <= 8,
            "{copied} leaves copied for one insert and one erase"
        );
        assert_eq!((then.records.len(), now.records.len()), (10_000, 10_001));
        assert!(!then.records.get(&PdId::new(5_000)).unwrap().erased);
    }

    #[test]
    fn an_entry_holds_its_whole_membrane_and_equal_terms_are_shared() {
        let schema = listing1_user_schema();
        let mut index = DbfsIndex::default();
        let mut membranes = Vec::new();
        for id in 0..4u64 {
            let at = Timestamp::from_secs(100 + id);
            let mut membrane = Membrane::from_schema(&schema, SubjectId::new(id % 2), at);
            if id == 3 {
                membrane = membrane.for_copy(PdId::new(1));
            }
            let terms = index.terms_for(schema.name(), &membrane);
            let location = RecordLocation::new(&membrane, id, terms);
            index.insert_record(PdId::new(id), location);
            membranes.push(membrane);
        }
        index.mark_erased(PdId::new(2));
        membranes[2].mark_erased();
        let entry = |index: &DbfsIndex, id: u64| index.view.records.get(&PdId::new(id)).cloned();
        for (id, membrane) in membranes.iter().enumerate() {
            assert_eq!(entry(&index, id as u64).unwrap().membrane(), *membrane);
        }
        let shared = |index: &DbfsIndex, a, b| {
            Arc::ptr_eq(
                &entry(index, a).unwrap().terms,
                &entry(index, b).unwrap().terms,
            )
        };
        assert!((1..4).all(|id| shared(&index, 0, id)), "one terms for all");
        assert_eq!(index.terms.len(), 1);

        // A consent change gives the record terms of its own, which the
        // next record to make the same change shares.
        let grant = || MembraneDelta::Grant {
            purpose: "purpose2".into(),
            decision: ConsentDecision::All,
        };
        change(&mut index, 0, grant());
        change(&mut index, 1, grant());
        assert!(shared(&index, 0, 1) && !shared(&index, 0, 2));
        let granted = entry(&index, 0).unwrap().membrane();
        assert!(granted.permits(&"purpose2".into()).allows_any());
        assert_eq!(index.terms.len(), 2);
        index.verify().unwrap();
    }

    #[test]
    fn terms_no_record_holds_are_swept_as_the_table_grows() {
        let mut index = DbfsIndex::default();
        index.insert_record(PdId::new(1), location(None, Some(1)));
        for ttl in 2..500 {
            set_ttl(&mut index, 1, TimeToLive::seconds(ttl));
        }
        assert!(index.terms.len() <= 64, "{}", index.terms.len());
        let expires = index.view.records.get(&PdId::new(1)).unwrap().expires_at();
        assert_eq!(expires, Some(Timestamp::from_secs(499)));
        index.verify().unwrap();
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
