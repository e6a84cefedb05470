//! The DBFS implementation: one on-disk table tree, typed tables,
//! membranes, crypto-erasure and retention sweeping.
//!
//! # Record layout and secondary indexes
//!
//! Since format v2 every record inode holds the *split* layout of
//! [`rgpdos_core::record::stored`]: a length-prefixed membrane header
//! followed by the row payload.  Mount and the index checker fetch and
//! deserialize the header section without touching the payload; the index
//! entry mount builds from it keeps the whole membrane, so membrane-only
//! reads (`ded_load_membrane`) are answered from the published snapshot
//! with no device read.
//!
//! The table tree is the one on-disk record registry: `tables/<type>/pd-<id>`
//! names every record inode.  The in-memory index (the private `index`
//! module) mirrors it and derives per-table, per-subject, reverse
//! copy-lineage and expiry indexes from the membranes it names, so no scan,
//! subject-wide operation, erasure propagation or retention sweep iterates
//! the global record map.  The per-subject index is the paper's subject
//! tree: every membrane names its subject, so mount rebuilds it and no
//! subject directory is kept on disk.
//!
//! # Write path: one pipeline, group commit
//!
//! Every record mutation — insert, row update, membrane change, erasure,
//! alone or batched — is a slice of write ops run by one private function
//! (`Dbfs::commit_ops`) under one index-lock hold.  It stages the ops into
//! compound transactions of the inode layer, each op behind a savepoint,
//! and commits each as one journal transaction — a **group commit** — cut
//! at the journal-capacity bound, so a batch costs one journal round-trip
//! per *group* instead of per record while each record stays individually
//! crash-atomic.  The single-record built-ins are batches of one; an op
//! that does not fit a journal transaction on its own is refused.

use crate::error::DbfsError;
use crate::index::{erased_ancestor, DbfsIndex, IndexSnapshot, RecordLocation};
use crate::query::QueryRequest;
use crate::scrub::{ScrubReport, SpaceGauges, SpaceStats};
use crate::stats::{DbfsStats, DbfsStatsInner};
use crate::store::PdStore;
use parking_lot::{Mutex, RwLock};
use rgpdos_blockdev::BlockDevice;
use rgpdos_core::record::stored;
use rgpdos_core::{
    AuditEventKind, AuditLog, DataTypeId, DataTypeSchema, LogicalClock, Membrane, MembraneDelta,
    PdId, PdRecord, RecordBatch, Row, SubjectId, Timestamp, WrappedPd,
};
use rgpdos_crypto::escrow::OperatorEscrow;
use rgpdos_crypto::PublicKey;
use rgpdos_inode::fs::ROOT_INO;
use rgpdos_inode::{FormatParams, Ino, InodeFs, InodeKind, JournalMode, Transaction};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Name of the schema entry inside a table directory.
const SCHEMA_ENTRY: &str = "__schema";
/// Name of the metadata file in the DBFS root.
const META_ENTRY: &str = "meta";
/// Name of the erase-intent write-ahead log in the DBFS root (created
/// lazily; absent on images that never ran a routed erasure).
const INTENTS_ENTRY: &str = "__intents";
/// Name of the table tree in the DBFS root.
const TABLES_DIR: &str = "tables";
/// Magic-plus-version tag leading the metadata entry (format v3: the split
/// record layout, and the table tree as the one on-disk record tree).
/// Format v1 metadata was a bare 8-byte `next_pd` counter, and format v2
/// carried [`META_MAGIC_V2`] and kept a subject tree beside the table tree;
/// both are refused on mount.
const META_MAGIC: u64 = 0x5247_5044_4653_0003;
/// The format v2 tag, known only to be refused.
const META_MAGIC_V2: u64 = 0x5247_5044_4653_0002;

/// Encodes the metadata entry (magic + next PD identifier).
fn encode_meta(next_pd: u64) -> [u8; 16] {
    let mut bytes = [0u8; 16];
    bytes[0..8].copy_from_slice(&META_MAGIC.to_le_bytes());
    bytes[8..16].copy_from_slice(&next_pd.to_le_bytes());
    bytes
}

/// Decodes the metadata entry, returning `next_pd`.
fn decode_meta(meta: &[u8]) -> Result<u64, DbfsError> {
    match meta.len() {
        8 => Err(corrupt("unsupported format version 1")),
        16 => {
            let (magic, next_pd) = meta.split_at(8);
            match u64::from_le_bytes(magic.try_into().expect("8 bytes")) {
                META_MAGIC => Ok(u64::from_le_bytes(next_pd.try_into().expect("8 bytes"))),
                META_MAGIC_V2 => Err(corrupt("unsupported format version 2")),
                _ => Err(corrupt("metadata")),
            }
        }
        _ => Err(corrupt("metadata")),
    }
}

pub(crate) fn corrupt(what: impl Into<String>) -> DbfsError {
    DbfsError::Corrupt { what: what.into() }
}

pub(crate) fn unknown_type(name: &DataTypeId) -> DbfsError {
    DbfsError::UnknownType {
        name: name.to_string(),
    }
}

/// Reads only the membrane header section of a split-layout record: the
/// first block is fetched once, and further blocks only when the header
/// spills past it.  The row payload is never read.  Mount and the index
/// checker read membranes this way; every other reader takes them from the
/// index.
fn read_membrane_from<D: BlockDevice>(fs: &InodeFs<D>, ino: Ino) -> Result<Membrane, DbfsError> {
    let block_size = fs.layout().block_size.max(stored::PREFIX_LEN);
    let first = fs.read(ino, 0, block_size)?;
    let header_len = stored::membrane_section_len(&first)?;
    let header_end = stored::PREFIX_LEN.checked_add(header_len).ok_or_else(|| {
        corrupt(format!(
            "membrane header length of record inode {ino} overflows"
        ))
    })?;
    let membrane = if first.len() >= header_end {
        stored::decode_membrane(&first[stored::PREFIX_LEN..header_end])?
    } else {
        let mut section = first[stored::PREFIX_LEN.min(first.len())..].to_vec();
        let rest = fs.read(ino, first.len() as u64, header_end - first.len())?;
        section.extend_from_slice(&rest);
        if section.len() < header_len {
            return Err(corrupt(format!(
                "membrane header of record inode {ino} truncated"
            )));
        }
        stored::decode_membrane(&section)?
    };
    Ok(membrane)
}

/// Reads and decodes a whole split-layout record (membrane + row).
fn read_stored<D: BlockDevice>(fs: &InodeFs<D>, ino: Ino) -> Result<WrappedPd, DbfsError> {
    let bytes = fs.read_all(ino)?;
    let (membrane, row) =
        stored::decode(&bytes).map_err(|_| corrupt(format!("record inode {ino}")))?;
    Ok(WrappedPd::new(row, membrane))
}

/// How a DBFS instance allocates [`PdId`]s: the `n`-th record receives
/// `offset + n * stride`.
///
/// A standalone instance uses the dense default (`offset = 0`, `stride = 1`).
/// A sharded deployment gives shard `i` of `n` the allocation
/// `IdAllocation::sharded(i, n)`, so identifiers are globally unique across
/// shards and the owning shard of any id is computable as `id % n` without a
/// directory lookup.  Only the record *counter* is persisted on disk; the
/// same allocation must be passed at mount time
/// ([`Dbfs::mount_with_ids`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdAllocation {
    /// First identifier handed out.
    pub offset: u64,
    /// Distance between consecutive identifiers (must be non-zero).
    pub stride: u64,
}

impl Default for IdAllocation {
    fn default() -> Self {
        Self {
            offset: 0,
            stride: 1,
        }
    }
}

impl IdAllocation {
    /// The allocation of shard `shard` in a deployment of `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics when `shard >= shards` or `shards == 0`.
    pub fn sharded(shard: usize, shards: usize) -> Self {
        assert!(shards > 0, "at least one shard");
        assert!(shard < shards, "shard index within the deployment");
        Self {
            offset: shard as u64,
            stride: shards as u64,
        }
    }

    fn id_for(&self, counter: u64) -> u64 {
        self.offset + counter * self.stride
    }
}

/// Formatting parameters of DBFS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DbfsParams {
    /// Parameters of the underlying inode layer.
    pub inode_params: FormatParams,
    /// Journal scrub policy.  DBFS defaults to [`JournalMode::Scrub`]; the
    /// [`DbfsParams::insecure`] preset exists only for the ablation
    /// experiment that quantifies what scrubbing costs and what leaving it
    /// out leaks.
    pub journal_mode: JournalMode,
}

impl DbfsParams {
    /// The secure defaults used by rgpdOS (scrubbed journal, zero-on-free).
    ///
    /// The journal is sized so that every mutation the shipped workloads
    /// make — a whole-lineage cascade erasure included — fits one journal
    /// transaction (see the compound transactions of
    /// [`rgpdos_inode::InodeFs`]).
    pub fn secure() -> Self {
        Self {
            inode_params: FormatParams::standard()
                .with_journal_blocks(128)
                .with_secure_free(true),
            journal_mode: JournalMode::Scrub,
        }
    }

    /// A conventional configuration (retained journal, no zero-on-free) used
    /// by the ablation experiments.
    pub fn insecure() -> Self {
        Self {
            inode_params: FormatParams::standard()
                .with_journal_blocks(128)
                .with_secure_free(false),
            journal_mode: JournalMode::Retain,
        }
    }

    /// A small configuration for unit tests.
    pub fn small() -> Self {
        Self {
            inode_params: FormatParams::small()
                .with_inode_count(512)
                .with_journal_blocks(64)
                .with_secure_free(true),
            journal_mode: JournalMode::Scrub,
        }
    }
}

impl Default for DbfsParams {
    fn default() -> Self {
        Self::secure()
    }
}

/// What [`Dbfs::checked_read`] found once its unlocked device read was
/// validated against the current snapshot.
#[derive(Debug)]
enum Checked<T> {
    /// The record is still what the reader's snapshot located.
    AsLocated(T),
    /// Live when located, crypto-erased since: the committed tombstone
    /// image, read again.
    NowTombstone(T),
    /// Reclaimed by a scrub pass since: the id names nothing any more, and
    /// its inode may already hold another record.
    Gone,
}

impl<T> Checked<T> {
    /// For a point read that wants the record it located: an erasure or a
    /// reclaim that won the race is [`DbfsError::Erased`].
    fn into_located(self, id: PdId) -> Result<T, DbfsError> {
        match self {
            Checked::AsLocated(value) => Ok(value),
            _ => Err(DbfsError::Erased { id: id.raw() }),
        }
    }

    /// For a set read: `None` leaves the id out.  A record erased since is
    /// kept — as its tombstone — only when the request includes erased
    /// records.
    fn unless_erased_since(self, include_erased: bool) -> Option<T> {
        match self {
            Checked::AsLocated(value) => Some(value),
            Checked::NowTombstone(value) if include_erased => Some(value),
            _ => None,
        }
    }
}

/// One record mutation on its way through [`Dbfs::commit_ops`], the single
/// write pipeline.  Every public mutating built-in is a batch of these.
#[derive(Debug)]
enum WriteOp<'a> {
    /// `acquisition` / `copy`: store a new wrapped record.  `copy_of` is
    /// the source when the `copy` built-in itself is the caller, which is
    /// then audited as `Copied` right after the insert's `Collected`.
    Insert {
        data_type: &'a DataTypeId,
        wrapped: &'a WrappedPd,
        copy_of: Option<PdId>,
    },
    /// `update`: replace the payload row of a live record.
    UpdateRow {
        data_type: &'a DataTypeId,
        id: PdId,
        row: &'a Row,
    },
    /// Consent / retention change: rewrite the membrane header only.
    MembraneDelta {
        data_type: &'a DataTypeId,
        id: PdId,
        delta: &'a MembraneDelta,
    },
    /// Crypto-erasure: encrypt the row under the authority escrow and
    /// tombstone the membrane (a record that already is one is skipped).
    Erase {
        data_type: &'a DataTypeId,
        id: PdId,
        escrow: &'a OperatorEscrow,
    },
}

/// One op staged into the open compound transaction but not yet committed:
/// the index mutation to apply and the audit event to record once its group
/// commits.  The open group is simply the `Vec` of these, in staging order;
/// an op joins it only after its writes are staged *and* known to fit, so
/// cutting a group never has to un-stage anything in memory.
#[derive(Debug)]
struct StagedOp {
    /// The record the op created or changed.
    id: PdId,
    subject: SubjectId,
    event: AuditEventKind,
    change: IndexChange,
}

/// What a committed [`StagedOp`] does to the in-memory index.  A group
/// publishes a new read snapshot only if one of its ops changes the index.
#[derive(Debug)]
enum IndexChange {
    /// A row update: the record stays where it is.
    None,
    /// A new record.
    Insert(RecordLocation),
    /// A consent or retention change: the record's membrane from now on.
    Membrane(Membrane),
    /// An erasure: the record is a tombstone from now on.
    Erased,
}

impl StagedOp {
    /// The new record's location, when the op is an insert.  Later inserts
    /// of the same group see it.
    fn as_insert(&self) -> Option<&RecordLocation> {
        match &self.change {
            IndexChange::Insert(location) => Some(location),
            _ => None,
        }
    }
}

/// An index-only summary of one record, exposed so that routing layers
/// (sharding, replication) can reason about placement and lineage without
/// any disk I/O.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordSummary {
    /// The record identifier.
    pub id: PdId,
    /// The table the record belongs to.
    pub data_type: DataTypeId,
    /// The data subject.
    pub subject: SubjectId,
    /// Direct lineage parent when the record was produced by `copy`.
    pub copied_from: Option<PdId>,
    /// Whether the record is a tombstone.
    pub erased: bool,
}

impl RecordSummary {
    fn of(id: PdId, location: &RecordLocation) -> Self {
        Self {
            id,
            data_type: location.data_type().clone(),
            subject: location.subject,
            copied_from: location.copied_from,
            erased: location.erased,
        }
    }
}

/// A durable record of a multi-instance erasure in flight, persisted through
/// [`Dbfs::put_erase_intent`] *before* any tombstone is written and cleared
/// after the last one.  If a crash interrupts the erasure, the next mount
/// finds the intent and completes (never partially applies) it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EraseIntent {
    /// `(table name, raw id)` pairs the erasure must tombstone.  Empty
    /// targets mean "heal lineage only": recovery erases whatever live
    /// record has an erased lineage ancestor (the retention sweep uses
    /// this, since its target set is only known mid-sweep).
    pub targets: Vec<(String, u64)>,
    /// Group element of the authority public key the escrow encrypts to, so
    /// recovery can rebuild an equivalent `OperatorEscrow`.
    pub escrow_key: u64,
    /// Who completes the intent after a crash: `false` for a **local**
    /// cascade (every target lives on this instance; completed by
    /// [`Dbfs::mount`]), `true` for a **routed** multi-instance erasure
    /// (targets may live on other shards; completed by the routing layer
    /// that wrote it, which also runs the cross-shard lineage heal).
    pub routed: bool,
}

impl EraseIntent {
    /// The ids the erasure must tombstone.
    pub fn ids(&self) -> Vec<PdId> {
        self.targets.iter().map(|t| PdId::new(t.1)).collect()
    }

    /// The escrow recovery completes the erasure with, rebuilt from the
    /// authority key.
    ///
    /// # Errors
    ///
    /// [`DbfsError::Corrupt`] when the key is not a valid group element.
    pub fn escrow(&self) -> Result<OperatorEscrow, DbfsError> {
        let public = PublicKey::from_element(self.escrow_key)
            .map_err(|_| corrupt("erase intent carries an invalid authority key"))?;
        Ok(OperatorEscrow::new(public))
    }
}

/// On-disk encoding of the intent log (`__intents` in the DBFS root).
#[derive(Debug, Default, Serialize, Deserialize)]
struct IntentsFile {
    next_token: u64,
    pending: Vec<(u64, EraseIntent)>,
}

/// The database-oriented filesystem.
#[derive(Debug)]
pub struct Dbfs<D> {
    fs: InodeFs<D>,
    index: Mutex<DbfsIndex>,
    /// The currently-published read snapshot.  Readers hold the `RwLock`
    /// only long enough to clone the inner `Arc` (O(1), never across I/O);
    /// writers replace it while still holding the index lock, so the lock
    /// order is always `dbfs-index` → `dbfs-snapshot`.  The outer `Arc`
    /// lets metric closures observe the slot without borrowing `self`.
    snapshot: Arc<RwLock<Arc<IndexSnapshot>>>,
    clock: Arc<LogicalClock>,
    audit: AuditLog,
    stats: DbfsStatsInner,
    /// Acquisitions of the writer-side index lock (every `lock_index`
    /// call).  The read path serves from the published snapshot and must
    /// never appear in this tally.
    index_lock_holds: std::sync::atomic::AtomicU64,
    /// Space-accounting gauges (`space_amplification`,
    /// `tombstones_reclaimed`), refreshed by [`PdStore::space_stats`] and every
    /// scrub pass.  `Arc`'d so gauge closures observe them without
    /// borrowing `self` — and without any device I/O.
    space: Arc<SpaceGauges>,
}

impl<D: BlockDevice> Dbfs<D> {
    /// Formats a device as an empty DBFS.
    ///
    /// # Errors
    ///
    /// Propagates inode-layer errors (device too small, I/O failures).
    pub fn format(device: D, params: DbfsParams) -> Result<Self, DbfsError> {
        Self::format_with(
            device,
            params,
            Arc::new(LogicalClock::new()),
            AuditLog::new(),
        )
    }

    /// Formats a device, sharing an existing clock and audit log with the
    /// rest of the rgpdOS instance.
    ///
    /// # Errors
    ///
    /// Propagates inode-layer errors.
    pub fn format_with(
        device: D,
        params: DbfsParams,
        clock: Arc<LogicalClock>,
        audit: AuditLog,
    ) -> Result<Self, DbfsError> {
        Self::format_with_ids(device, params, clock, audit, IdAllocation::default())
    }

    /// Formats like [`Dbfs::format_with`] under an explicit identifier
    /// allocation policy (used by sharded deployments, where every shard
    /// must draw from a disjoint id space).
    ///
    /// # Errors
    ///
    /// Propagates inode-layer errors.
    pub fn format_with_ids(
        device: D,
        params: DbfsParams,
        clock: Arc<LogicalClock>,
        audit: AuditLog,
        alloc: IdAllocation,
    ) -> Result<Self, DbfsError> {
        assert!(alloc.stride > 0, "id stride must be non-zero");
        let fs = InodeFs::format(device, params.inode_params, params.journal_mode)?;
        let tx = fs.begin_tx();
        let tables_ino = fs.alloc_inode(InodeKind::Directory)?;
        fs.dir_add(ROOT_INO, TABLES_DIR, tables_ino)?;
        let meta_ino = fs.alloc_inode(InodeKind::File)?;
        fs.dir_add(ROOT_INO, META_ENTRY, meta_ino)?;
        fs.write_replace(meta_ino, &encode_meta(0))?;
        tx.commit()?;
        let index = DbfsIndex::new(alloc, tables_ino, meta_ino);
        let snapshot = index.snapshot(clock.now(), fs.journal_txs());
        Ok(Self {
            fs,
            index: Mutex::new_named("dbfs-index", index),
            snapshot: Arc::new(RwLock::new_named("dbfs-snapshot", snapshot)),
            clock,
            audit,
            stats: DbfsStatsInner::default(),
            index_lock_holds: std::sync::atomic::AtomicU64::new(0),
            space: Arc::new(SpaceGauges::default()),
        })
    }

    /// Mounts an existing DBFS, rebuilding the in-memory index from the
    /// table tree and the membranes it names.
    ///
    /// # Errors
    ///
    /// Returns [`DbfsError::Corrupt`] when the on-disk structure is not a
    /// DBFS, and propagates inode-layer errors.
    pub fn mount(device: D) -> Result<Self, DbfsError> {
        Self::mount_with(device, Arc::new(LogicalClock::new()), AuditLog::new())
    }

    /// Mounts like [`Dbfs::mount`], sharing a clock and audit log.
    ///
    /// # Errors
    ///
    /// Same as [`Dbfs::mount`].
    pub fn mount_with(
        device: D,
        clock: Arc<LogicalClock>,
        audit: AuditLog,
    ) -> Result<Self, DbfsError> {
        Self::mount_with_ids(device, clock, audit, IdAllocation::default())
    }

    /// Mounts like [`Dbfs::mount_with`] under an explicit identifier
    /// allocation.  The allocation is not persisted: a sharded deployment
    /// must pass the same `IdAllocation` it formatted the shard with.
    ///
    /// Mounting builds the index from the table tree — every derived index,
    /// the per-subject one included, from the membrane headers its entries
    /// name — and repairs nothing in it: every mutation of a record and its
    /// table entry is one journal transaction, so after the inode layer's
    /// journal replay they agree, and [`PdStore::verify_index_invariants`]
    /// reports an image where they do not.  What mount still does on top of
    /// the replay is heal the identifier counter and complete the local
    /// erase intents a crash interrupted, counting both in
    /// [`DbfsStats::recovered_txs`].
    ///
    /// # Errors
    ///
    /// Same as [`Dbfs::mount`]; a record image that does not decode is
    /// [`DbfsError::Corrupt`].
    pub fn mount_with_ids(
        device: D,
        clock: Arc<LogicalClock>,
        audit: AuditLog,
        alloc: IdAllocation,
    ) -> Result<Self, DbfsError> {
        assert!(alloc.stride > 0, "id stride must be non-zero");
        let fs = InodeFs::mount(device)?;
        let tables_ino = fs
            .dir_lookup(ROOT_INO, TABLES_DIR)?
            .ok_or_else(|| corrupt("missing tables tree"))?;
        let meta_ino = fs
            .dir_lookup(ROOT_INO, META_ENTRY)?
            .ok_or_else(|| corrupt("missing metadata file"))?;
        let meta = fs.read_all(meta_ino)?;
        let next_pd = decode_meta(&meta)?;

        let mut index = DbfsIndex::new(alloc, tables_ino, meta_ino);
        index.next_pd = next_pd;
        index.intents_ino = fs.dir_lookup(ROOT_INO, INTENTS_ENTRY)?;

        // The tables tree is the record registry: what a record contributes
        // to every other index — its subject included — follows from its
        // membrane header.
        for (type_name, table_ino) in fs.dir_entries(tables_ino)? {
            let data_type = DataTypeId::from(type_name.as_str());
            for (entry, ino) in fs.dir_entries(table_ino)? {
                if entry == SCHEMA_ENTRY {
                    let bytes = fs.read_all(ino)?;
                    let schema: DataTypeSchema = serde_json::from_slice(&bytes)
                        .map_err(|_| corrupt("schema does not decode"))?;
                    index.register_type(table_ino, schema);
                } else {
                    let raw = entry
                        .strip_prefix("pd-")
                        .and_then(|s| s.parse::<u64>().ok())
                        .ok_or_else(|| corrupt("malformed record entry"))?;
                    let membrane = read_membrane_from(&fs, ino).map_err(|e| match e {
                        DbfsError::Core(_) => corrupt(format!("record image `{entry}`")),
                        e => e,
                    })?;
                    let terms = index.terms_for(&data_type, &membrane);
                    let location = RecordLocation::new(&membrane, ino, terms);
                    index.insert_record(PdId::new(raw), location);
                }
            }
        }

        // Heal the identifier counter: it must stay ahead of every id on
        // disk, or a recycled id could collide with (and resurrect) an
        // existing record.
        let mut max_counter = index.next_pd;
        for &id in index.view.records.keys() {
            let raw = id.raw();
            if raw >= alloc.offset && (raw - alloc.offset).is_multiple_of(alloc.stride) {
                max_counter = max_counter.max((raw - alloc.offset) / alloc.stride + 1);
            }
        }
        let stats = DbfsStatsInner::default();
        stats.journal_replays.add(fs.recovered_txs());
        if max_counter > index.next_pd {
            index.next_pd = max_counter;
            fs.write_replace(meta_ino, &encode_meta(max_counter))?;
            DbfsStatsInner::bump(&stats.recovered_txs);
        }
        let snapshot = index.snapshot(clock.now(), fs.journal_txs());
        let this = Self {
            fs,
            index: Mutex::new_named("dbfs-index", index),
            snapshot: Arc::new(RwLock::new_named("dbfs-snapshot", snapshot)),
            clock,
            audit,
            stats,
            index_lock_holds: std::sync::atomic::AtomicU64::new(0),
            space: Arc::new(SpaceGauges::default()),
        };
        // Complete any local erase cascade a crash interrupted between two
        // of its groups.
        this.recover_local_intents()?;
        Ok(this)
    }

    /// Routes this store's instrumentation through `ctx`: every
    /// [`DbfsStats`] counter is adopted into the registry (the old
    /// accessors keep reading the same atomics), the inode layer below is
    /// attached ([`InodeFs::attach_trace`] — commit latency, phase spans,
    /// cache counters), and the read-snapshot and space gauges are
    /// registered.  `labels` tags all of it (sharded deployments pass
    /// `shard="<i>"`).  The trace layer performs no device I/O of its own.
    pub fn attach_trace_as(&self, ctx: &rgpdos_trace::TraceCtx, labels: &[(&str, &str)]) {
        self.stats.register(&ctx.registry, labels);
        self.fs.attach_trace(ctx, labels);
        // Staleness of the published read snapshot in simulated seconds: 0
        // while writers keep publishing, growing on an idle or wedged store.
        let snapshot = Arc::clone(&self.snapshot);
        let clock = Arc::clone(&self.clock);
        ctx.registry.gauge_fn("read_snapshot_age", labels, move || {
            let published_at = snapshot.read().published_at;
            i64::try_from(clock.now().since(published_at).as_secs()).unwrap_or(i64::MAX)
        });
        // Space lifecycle: amplification as measured by the last
        // `space_stats`/scrub pass (×100 fixed point, 100 = 1.00×) and the
        // running reclaim count.  Both read pre-computed atomics — gauge
        // closures must never perform device I/O.
        let space = Arc::clone(&self.space);
        ctx.registry
            .gauge_fn("space_amplification", labels, move || {
                space.amplification_x100()
            });
        let space = Arc::clone(&self.space);
        ctx.registry
            .gauge_fn("tombstones_reclaimed", labels, move || {
                i64::try_from(space.reclaimed()).unwrap_or(i64::MAX)
            });
    }

    /// Hit/miss counters of the inode-layer buffer cache under this store.
    pub fn cache_stats(&self) -> rgpdos_blockdev::CacheStats {
        self.fs.cache_stats()
    }

    /// Drops the buffer cache (benchmarks use this to measure a cold read
    /// path; correctness never requires it).
    pub fn drop_caches(&self) {
        self.fs.drop_caches();
    }

    /// The underlying inode filesystem.
    pub fn inode_fs(&self) -> &InodeFs<D> {
        &self.fs
    }

    /// The underlying block device (for forensic scans in experiments).
    pub fn device(&self) -> &D {
        self.fs.device()
    }

    // ------------------------------------------------------------------
    // Snapshot publishing (MVCC-lite read path)
    // ------------------------------------------------------------------

    /// Clones the currently-published read snapshot: one `RwLock` read held
    /// for a single `Arc` clone.  Never acquires the index lock and is never
    /// held across device I/O by any caller.
    fn read_snapshot(&self) -> Arc<IndexSnapshot> {
        Arc::clone(&self.snapshot.read())
    }

    /// Acquires the writer-side index lock, counting the acquisition.
    /// Every index-lock site goes through here, so
    /// [`Dbfs::index_lock_holds`] is a complete tally.
    fn lock_index(&self) -> parking_lot::MutexGuard<'_, DbfsIndex> {
        self.index_lock_holds
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.index.lock()
    }

    /// Total acquisitions of the writer-side index lock since
    /// format/mount.  Snapshot-served readers never take that lock, so the
    /// tally is flat across a read-only phase (asserted by the
    /// `snapshot_concurrency` suite of `rgpdos-bench`).
    pub fn index_lock_holds(&self) -> u64 {
        self.index_lock_holds
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Publishes a new snapshot of `index`.  Must be called with the index
    /// lock held (the `&mut DbfsIndex` proves it), so publishes are totally
    /// ordered and the lock order is always `dbfs-index` → `dbfs-snapshot`.
    fn publish_locked(&self, index: &mut DbfsIndex) {
        index.epoch += 1;
        let snapshot = index.snapshot(self.clock.now(), self.fs.journal_txs());
        *self.snapshot.write() = snapshot;
    }

    /// The one checked read: every snapshot-served reader fetches record
    /// bytes through here and nowhere else.
    ///
    /// `read` runs against the inode `snapshot` located, with **no lock
    /// held** — so a crypto-erase, a row rewrite, a scrub reclaim or an
    /// insert reusing the freed inode can commit underneath it.  A read that
    /// overlapped a commit's in-place apply (the inode layer's apply
    /// sequence was odd before it or moved during it) may be half old, half
    /// new, and is read again after a yield.  Whatever a read clear of any
    /// apply returned (bytes, another record's bytes, an error) and whatever
    /// the snapshot said (live or tombstone) is then validated against the
    /// *current* snapshot before anything is handed out: an id the current
    /// snapshot no longer holds is [`Checked::Gone`]; a record erased since
    /// is read again — the tombstone image is committed before the erasure
    /// publishes — and validated again; otherwise the read stands.  With no
    /// commit and no publish since `snapshot` was cut the cost over the bare
    /// read is two loads of the sequence and one slot read.
    fn checked_read<T>(
        &self,
        snapshot: &IndexSnapshot,
        id: PdId,
        location: &RecordLocation,
        read: fn(&InodeFs<D>, Ino) -> Result<T, DbfsError>,
    ) -> Result<Checked<T>, DbfsError> {
        let (mut epoch, mut erased) = (snapshot.epoch, location.erased);
        loop {
            let applying = self.fs.apply_seq();
            let clear = applying.is_multiple_of(2);
            let outcome = clear.then(|| read(&self.fs, location.ino));
            let Some(outcome) = outcome.filter(|_| self.fs.apply_seq() == applying) else {
                std::thread::yield_now();
                continue;
            };
            let current = self.read_snapshot();
            if current.epoch != epoch {
                match current.view.records.get(&id) {
                    None => return Ok(Checked::Gone),
                    Some(now) if now.erased && !erased => {
                        (epoch, erased) = (current.epoch, true);
                        continue;
                    }
                    Some(_) => {}
                }
            }
            return Ok(if erased == location.erased {
                Checked::AsLocated(outcome?)
            } else {
                Checked::NowTombstone(outcome?)
            });
        }
    }

    /// `(epoch, publish instant, committed journal transactions)` of the
    /// currently-published read snapshot.  Every reader observes exactly one
    /// such version; the epoch is strictly increasing across commits.
    pub fn snapshot_info(&self) -> (u64, Timestamp, u64) {
        let snapshot = self.read_snapshot();
        (
            snapshot.epoch,
            snapshot.published_at,
            snapshot.committed_txs,
        )
    }

    // ------------------------------------------------------------------
    // The write pipeline
    // ------------------------------------------------------------------

    /// The one write pipeline: every record mutation — insert, row update,
    /// membrane change, erasure, alone or batched — is a slice of
    /// [`WriteOp`]s run here under **one** index-lock hold, so no other
    /// writer can interleave between an op's checks, its disk writes and
    /// its index update.
    ///
    /// Ops are cut into groups by [`Dbfs::commit_in_groups`] (an insert
    /// cut into the next group keeps its identifier: the counter only
    /// advances with the inserts that joined a group), so no op is ever
    /// applied in pieces.  The in-memory index is updated only after a
    /// group's commit, and a new read snapshot is published per group that
    /// changed it — readers observe whole groups, never a partial one.  A
    /// group no op joined journals nothing and publishes nothing.
    ///
    /// Stats and audit events are recorded per committed group, per op in
    /// input order — a crashed or refused op is never audited.  Returns
    /// the ids of the ops that took effect (the new identifier for an
    /// insert), in input order.
    ///
    /// # Errors
    ///
    /// The first failing op's error, or a commit failure if no op failed.
    fn commit_ops(&self, ops: &[WriteOp<'_>]) -> Result<Vec<PdId>, DbfsError> {
        self.commit_ops_locked(&mut self.lock_index(), ops)
    }

    /// [`Dbfs::commit_ops`] under an index lock the caller already holds
    /// (an erasure snapshots its lineage closure under the same hold).
    fn commit_ops_locked(
        &self,
        index: &mut DbfsIndex,
        ops: &[WriteOp<'_>],
    ) -> Result<Vec<PdId>, DbfsError> {
        let mut ids = Vec::with_capacity(ops.len());
        self.commit_in_groups(
            index,
            ops,
            |index, group, op| self.stage_op(index, group, op),
            |index, tx, group| {
                tx.commit()?;
                self.apply_group(index, group, &mut ids);
                Ok(())
            },
        )?;
        Ok(ids)
    }

    /// The group cut every batch shares: `stage` checks one item against
    /// the index and the open group (a compound transaction) and stages it
    /// behind a savepoint (`Ok(None)`: no effect).  A failing item is
    /// un-staged and ends the batch (prefix semantics); one that pushes the
    /// group past the journal's capacity is un-staged, the group goes to
    /// `commit`, and the item opens the next group — or, overflowing one of
    /// its own, is refused by the commit (`TxTooLarge`), ending the batch.
    /// Returns the first failing item's error, else a commit failure.
    fn commit_in_groups<I, S>(
        &self,
        index: &mut DbfsIndex,
        items: &[I],
        stage: impl Fn(&DbfsIndex, &[S], &I) -> Result<Option<S>, DbfsError>,
        mut commit: impl FnMut(&mut DbfsIndex, Transaction<'_, D>, Vec<S>) -> Result<(), DbfsError>,
    ) -> Result<(), DbfsError> {
        let capacity = self.fs.tx_capacity_blocks();
        let mut failure: Option<DbfsError> = None;
        let mut rest = items;
        // One iteration per group commit.
        while failure.is_none() && !rest.is_empty() {
            let tx = self.fs.begin_tx();
            let mut group = Vec::new();
            while let Some((item, tail)) = rest.split_first() {
                self.fs.tx_savepoint();
                match stage(index, &group, item) {
                    Ok(_) if self.fs.tx_staged_blocks() > capacity => {
                        // Cut: `item` opens the next group instead.  With a
                        // group to itself it stays staged, and the commit
                        // refuses and aborts it.
                        if !group.is_empty() {
                            self.fs.tx_rollback_to();
                        }
                        break;
                    }
                    Ok(staged) => {
                        group.extend(staged);
                        rest = tail;
                    }
                    Err(e) => {
                        self.fs.tx_rollback_to();
                        failure = Some(e);
                        break;
                    }
                }
            }
            // Nothing joined: journal nothing, or refuse the lone overflow.
            let committed = if group.is_empty() {
                tx.commit().map_err(DbfsError::from)
            } else {
                commit(index, tx, group)
            };
            if let Err(e) = committed {
                failure.get_or_insert(e);
                break;
            }
        }
        failure.map_or(Ok(()), Err)
    }

    /// Checks one op against the committed index *and* the open group,
    /// then stages its disk writes into the open compound transaction.
    /// `Ok(None)` is an op with no effect (a membrane delta that changes
    /// nothing): nothing staged, nothing to commit or audit.
    fn stage_op(
        &self,
        index: &DbfsIndex,
        group: &[StagedOp],
        op: &WriteOp<'_>,
    ) -> Result<Option<StagedOp>, DbfsError> {
        match *op {
            WriteOp::Insert {
                data_type,
                wrapped,
                copy_of,
            } => {
                let mut staged = self.stage_insert(index, group, data_type, wrapped)?;
                if let Some(from) = copy_of {
                    staged.event = AuditEventKind::Copied {
                        from,
                        to: staged.id,
                    };
                }
                Ok(Some(staged))
            }
            WriteOp::UpdateRow { data_type, id, row } => {
                let schema = index.view.schemas.get(data_type);
                schema
                    .ok_or_else(|| unknown_type(data_type))?
                    .validate_row(row)?;
                let location = index.view.locate(data_type, id)?;
                if location.erased {
                    return Err(DbfsError::Erased { id: id.raw() });
                }
                let stored = read_stored(&self.fs, location.ino)?;
                let bytes = stored::encode(stored.membrane(), row)?;
                self.fs.write_replace(location.ino, &bytes)?;
                Ok(Some(StagedOp {
                    id,
                    subject: location.subject,
                    event: AuditEventKind::Updated { pd: id },
                    change: IndexChange::None,
                }))
            }
            WriteOp::MembraneDelta {
                data_type,
                id,
                delta,
            } => {
                let location = index.view.locate(data_type, id)?;
                if location.erased {
                    // A tombstone is immutable: no write, no event after
                    // its `Erased`.
                    return Ok(None);
                }
                // Only the membrane header is deserialized and re-encoded;
                // the row payload bytes are carried over untouched.
                let bytes = self.fs.read_all(location.ino)?;
                let mut membrane = stored::membrane_of(&bytes)
                    .map_err(|_| corrupt(format!("record inode {}", location.ino)))?;
                if !membrane.apply(delta) {
                    return Ok(None);
                }
                let spliced = stored::replace_membrane(&bytes, &membrane)?;
                self.fs.write_replace(location.ino, &spliced)?;
                let purpose = match delta {
                    MembraneDelta::Grant { purpose, .. } | MembraneDelta::Withdraw { purpose } => {
                        purpose.clone()
                    }
                    MembraneDelta::SetTimeToLive { .. } => "retention".into(),
                };
                Ok(Some(StagedOp {
                    id,
                    subject: location.subject,
                    event: AuditEventKind::ConsentChanged { pd: id, purpose },
                    change: IndexChange::Membrane(membrane),
                }))
            }
            WriteOp::Erase {
                data_type,
                id,
                escrow,
            } => {
                let location = index.view.locate(data_type, id)?;
                if location.erased {
                    return Ok(None);
                }
                // The escrowed ciphertext captures the row as last
                // committed (or as staged earlier in this group).
                let mut stored = read_stored(&self.fs, location.ino)?;
                let plaintext = serde_json::to_vec(stored.row())
                    .map_err(|_| corrupt("row serialization for erasure"))?;
                stored.erase_with(escrow.erase(&plaintext).encode());
                let bytes = stored::encode(stored.membrane(), stored.row())?;
                self.fs.write_replace(location.ino, &bytes)?;
                Ok(Some(StagedOp {
                    id,
                    subject: location.subject,
                    event: AuditEventKind::Erased { pd: id },
                    change: IndexChange::Erased,
                }))
            }
        }
    }

    /// Checks one insert — schema, lineage guard — against the committed
    /// index *and* the inserts staged by the open group (a staged record is
    /// never erased, but its ancestors must still be walked), then stages
    /// every disk effect of it — identifier counter, record inode,
    /// table-tree entry — into the **open** compound transaction, so a
    /// crash at any write index leaves either the whole record or none of
    /// it.
    fn stage_insert(
        &self,
        index: &DbfsIndex,
        group: &[StagedOp],
        data_type: &DataTypeId,
        wrapped: &WrappedPd,
    ) -> Result<StagedOp, DbfsError> {
        let table_ino = *index
            .view
            .tables
            .get(data_type)
            .ok_or_else(|| unknown_type(data_type))?;
        if !wrapped.membrane().is_erased() {
            let schema = index.view.schemas.get(data_type);
            schema
                .ok_or_else(|| unknown_type(data_type))?
                .validate_row(wrapped.row())?;
            // A copy must not outlive its lineage: refuse a live copy when
            // *any* ancestor in its copied_from chain is already tombstoned.
            // This closes the race where `copy` reads the plaintext just
            // before an `erase` snapshots the lineage closure: the erasure
            // tombstones the chain's root first, so an insert that slips in
            // after the snapshot finds an erased ancestor here and loses.
            let lookup = |id| {
                let staged = || {
                    let mut staged = group.iter().filter(|op| op.id == id);
                    staged.find_map(StagedOp::as_insert)
                };
                let loc = index.view.records.get(&id).or_else(staged)?;
                Some((loc.erased, loc.copied_from))
            };
            if let Some(erased) = erased_ancestor(wrapped.membrane().copied_from(), lookup) {
                return Err(DbfsError::Erased { id: erased.raw() });
            }
        }

        let subject = wrapped.membrane().subject();
        let staged_inserts = group.iter().filter(|op| op.as_insert().is_some()).count();
        let next_pd = index.next_pd + staged_inserts as u64;
        let id = PdId::new(index.alloc.id_for(next_pd));
        // The index is the table tree's duplicate check: `dir_add` trusts it.
        let staged = group
            .iter()
            .any(|op| op.id == id && op.as_insert().is_some());
        if staged || index.view.records.get(&id).is_some() {
            return Err(corrupt(format!("{id} is already in use")));
        }
        self.fs
            .write_replace(index.meta_ino, &encode_meta(next_pd + 1))?;

        // Record inode + table-tree entry.
        let record_ino = self.fs.alloc_inode(InodeKind::Record)?;
        let bytes = stored::encode(wrapped.membrane(), wrapped.row())?;
        self.fs.write_replace(record_ino, &bytes)?;
        self.fs.dir_add(table_ino, &id.to_string(), record_ino)?;

        Ok(StagedOp {
            id,
            subject,
            event: AuditEventKind::Collected { pd: id },
            change: IndexChange::Insert(RecordLocation::new(
                wrapped.membrane(),
                record_ino,
                index.terms_for(data_type, wrapped.membrane()),
            )),
        })
    }

    /// Makes a committed group visible: applies its index mutations,
    /// publishes a snapshot if any of them changed the index (a plain row
    /// update does not; a membrane change does, so the DED sees a consent
    /// change once the call returns) — after the commit, so a reader that
    /// sees the new epoch finds the tombstone already on the device — then
    /// bumps stats and audits each op in order.  The audit append happens under the
    /// index lock on purpose: an erasure or a reclaim of one of these
    /// records can only start after it, so the trail never shows an event
    /// on a record after its `Erased`, nor a `Reclaimed` ahead of it.
    fn apply_group(&self, index: &mut DbfsIndex, mut group: Vec<StagedOp>, ids: &mut Vec<PdId>) {
        let mut index_changed = false;
        for op in &mut group {
            match std::mem::replace(&mut op.change, IndexChange::None) {
                IndexChange::None => continue,
                IndexChange::Insert(location) => {
                    index.insert_record(op.id, location);
                    index.next_pd += 1;
                }
                IndexChange::Membrane(membrane) => index.set_membrane(op.id, &membrane),
                IndexChange::Erased => index.mark_erased(op.id),
            }
            index_changed = true;
        }
        if index_changed {
            self.publish_locked(index);
        }
        for op in group {
            match op.event {
                AuditEventKind::Collected { .. } => DbfsStatsInner::bump(&self.stats.collects),
                AuditEventKind::Updated { .. } => DbfsStatsInner::bump(&self.stats.updates),
                AuditEventKind::Erased { .. } => DbfsStatsInner::bump(&self.stats.erasures),
                // The `copy` built-in is an insert first: `Collected`, then
                // its own `Copied`.
                AuditEventKind::Copied { to, .. } => {
                    DbfsStatsInner::bump(&self.stats.collects);
                    let collected = AuditEventKind::Collected { pd: to };
                    self.audit
                        .record(self.clock.now(), Some(op.subject), collected);
                    DbfsStatsInner::bump(&self.stats.copies);
                }
                _ => {}
            }
            self.audit
                .record(self.clock.now(), Some(op.subject), op.event);
            ids.push(op.id);
        }
    }

    /// The membranes of the records `locations` yields, from the snapshot
    /// entries they are: no device read, no decode.
    fn membranes_of<'a>(
        &self,
        locations: impl Iterator<Item = (PdId, &'a RecordLocation)>,
    ) -> Vec<(PdId, Membrane)> {
        let membranes: Vec<(PdId, Membrane)> = locations
            .map(|(id, location)| (id, location.membrane()))
            .collect();
        self.stats.membrane_loads.add(membranes.len() as u64);
        membranes
    }

    /// Checks one table directory against the index: it holds the entry
    /// `pd-<id>` of each `expected` record, pointing at the record's inode,
    /// once, and (the schema entry aside) nothing else.
    fn verify_tree<'a>(
        &self,
        dir: Ino,
        expected: impl Iterator<Item = (PdId, &'a RecordLocation)>,
    ) -> Result<(), DbfsError> {
        let mut listed = self.fs.dir_entries(dir)?;
        listed.sort_unstable();
        if let Some(pair) = listed.windows(2).find(|pair| pair[0].0 == pair[1].0) {
            let twice = &pair[0].0;
            return Err(corrupt(format!("{twice} named twice in its table tree")));
        }
        let mut entries: BTreeMap<String, Ino> = listed.into_iter().collect();
        entries.remove(SCHEMA_ENTRY);
        for (id, location) in expected {
            if entries.remove(&id.to_string()) != Some(location.ino) {
                return Err(corrupt(format!("{id} missing from its table tree")));
            }
        }
        match entries.into_keys().next() {
            None => Ok(()),
            Some(name) => Err(corrupt(format!(
                "table tree holds `{name}`, which the index lacks"
            ))),
        }
    }

    /// Crypto-erases the live records among `roots` and in their copy
    /// closures — snapshotted from the index under the already-held lock, a
    /// pure memory walk — as one batch of [`WriteOp::Erase`]s through the
    /// write pipeline, roots first, and returns the ids it tombstoned.  Ids
    /// this instance does not hold, and tombstones, are skipped.  Every
    /// cascade of two or more targets logs a **local erase intent** before
    /// the batch and clears it after, whether the batch fits one journal
    /// transaction (every cascade the shipped geometries produce: a crash
    /// applies every tombstone or none) or is cut into atomic groups: a
    /// crash between two groups, or an error that ends the batch after a
    /// prefix, is completed at the next mount instead of leaving a copy
    /// that outlives its erased original.
    fn erase_roots_locked(
        &self,
        index: &mut DbfsIndex,
        roots: &[PdId],
        escrow: &OperatorEscrow,
    ) -> Result<Vec<PdId>, DbfsError> {
        let targets = index.erasure_targets(roots);
        let token = if targets.len() > 1 {
            let intent = EraseIntent {
                targets: targets
                    .iter()
                    .map(|(data_type, id)| (data_type.to_string(), id.raw()))
                    .collect(),
                escrow_key: escrow.public_key().element(),
                routed: false,
            };
            Some(self.put_erase_intent_locked(index, &intent)?)
        } else {
            None
        };
        let ops: Vec<WriteOp<'_>> = targets
            .iter()
            .map(|(data_type, id)| WriteOp::Erase {
                data_type,
                id: *id,
                escrow,
            })
            .collect();
        let done = self.commit_ops_locked(index, &ops)?;
        if let Some(token) = token {
            // A crash before this clear is benign: the next mount finds
            // every target already tombstoned, completes nothing and clears
            // the intent itself.
            self.clear_erase_intent_locked(index, token)?;
        }
        Ok(done)
    }

    /// One cascade (`erase_roots_locked`) over `roots` under the index lock:
    /// how a routing layer erases its members on this instance, and how
    /// recovery re-drives an intent.  Returns the ids it tombstoned.
    ///
    /// # Errors
    ///
    /// Propagates storage errors.
    pub fn erase_ids(
        &self,
        roots: &[PdId],
        escrow: &OperatorEscrow,
    ) -> Result<Vec<PdId>, DbfsError> {
        let mut index = self.lock_index();
        self.erase_roots_locked(&mut index, roots, escrow)
    }

    /// The index summary of one record, off the published snapshot — no
    /// disk I/O, no index lock.  `None` for an id this instance does not
    /// hold.
    pub fn summary(&self, id: PdId) -> Option<RecordSummary> {
        let snapshot = self.read_snapshot();
        let location = snapshot.view.records.get(&id)?;
        Some(RecordSummary::of(id, location))
    }

    /// The index summaries of a subject's records on this instance, live
    /// and tombstoned, in id order, off the published snapshot — no disk
    /// I/O.  Routing layers use it to find a subject's records off its
    /// home instance, and to snapshot an erasure's roots.
    pub fn subject_summaries(&self, subject: SubjectId) -> Vec<RecordSummary> {
        let snapshot = self.read_snapshot();
        let view = &snapshot.view;
        let records = view.locations(view.subject_ids(subject));
        records
            .map(|(id, location)| RecordSummary::of(id, location))
            .collect()
    }

    /// The direct copies of `id` this instance holds, in id order, off the
    /// reverse-lineage index (under the index lock, which that index lives
    /// behind).  A copy may live on another instance than its original, so
    /// a routing layer walks a copy closure by asking every instance.
    pub fn copies_of(&self, id: PdId) -> Vec<PdId> {
        self.lock_index().copies(id).collect()
    }

    /// The ids that at least one copy on this instance names as its lineage
    /// original, off the reverse-lineage index (under the index lock).
    pub fn copy_originals(&self) -> BTreeSet<PdId> {
        self.lock_index().originals().collect()
    }

    /// `(live, tombstoned)` record counts, read straight off the published
    /// snapshot — wait-free, no disk I/O (the cheap path for load
    /// reporting; [`Dbfs::record_index_snapshot`] is the full snapshot).
    pub fn record_counts(&self) -> (usize, usize) {
        let snapshot = self.read_snapshot();
        let tombstones = snapshot
            .view
            .records
            .values()
            .filter(|loc| loc.erased)
            .count();
        (snapshot.view.records.len() - tombstones, tombstones)
    }

    /// An index-only snapshot of every record (live and tombstoned).  Routing
    /// layers use this to heal and audit cross-instance lineage.
    pub fn record_index_snapshot(&self) -> Vec<RecordSummary> {
        self.read_snapshot()
            .view
            .records
            .iter()
            .map(|(&id, location)| RecordSummary::of(id, location))
            .collect()
    }

    // ------------------------------------------------------------------
    // Erase-intent write-ahead log (used by routing layers)
    // ------------------------------------------------------------------

    /// Durably records an [`EraseIntent`] in this instance's intent log
    /// (creating the log file on first use), returning a token for
    /// [`Dbfs::clear_erase_intent`].  The write is one compound transaction,
    /// so the log is never torn.
    ///
    /// Routing layers (the sharded router) write an intent *before* starting
    /// a multi-instance erasure and clear it after the last tombstone: a
    /// crash in between is completed at the next mount from the persisted
    /// target list.
    ///
    /// # Errors
    ///
    /// Propagates storage errors.
    pub fn put_erase_intent(&self, intent: &EraseIntent) -> Result<u64, DbfsError> {
        let mut index = self.lock_index();
        self.put_erase_intent_locked(&mut index, intent)
    }

    fn put_erase_intent_locked(
        &self,
        index: &mut DbfsIndex,
        intent: &EraseIntent,
    ) -> Result<u64, DbfsError> {
        let tx = self.fs.begin_tx();
        let ino = match index.intents_ino {
            Some(ino) => ino,
            None => {
                let ino = self.fs.alloc_inode(InodeKind::File)?;
                self.fs.dir_add(ROOT_INO, INTENTS_ENTRY, ino)?;
                ino
            }
        };
        let mut file = self.read_intents(ino)?;
        let token = file.next_token;
        file.next_token += 1;
        file.pending.push((token, intent.clone()));
        self.write_intents(ino, &file)?;
        tx.commit()?;
        index.intents_ino = Some(ino);
        Ok(token)
    }

    /// The intents whose erasures had not been confirmed complete when this
    /// instance last went down (empty on a cleanly shut-down image).
    ///
    /// # Errors
    ///
    /// Returns [`DbfsError::Corrupt`] when the intent log does not decode.
    pub fn pending_erase_intents(&self) -> Result<Vec<(u64, EraseIntent)>, DbfsError> {
        let index = self.lock_index();
        match index.intents_ino {
            Some(ino) => Ok(self.read_intents(ino)?.pending),
            None => Ok(Vec::new()),
        }
    }

    /// Removes a completed intent from the log.  Clearing an unknown token
    /// is a no-op (the happy path and the recovery path may race benignly).
    ///
    /// # Errors
    ///
    /// Propagates storage errors.
    pub fn clear_erase_intent(&self, token: u64) -> Result<(), DbfsError> {
        let index = self.lock_index();
        self.clear_erase_intent_locked(&index, token)
    }

    fn clear_erase_intent_locked(&self, index: &DbfsIndex, token: u64) -> Result<(), DbfsError> {
        let Some(ino) = index.intents_ino else {
            return Ok(());
        };
        let mut file = self.read_intents(ino)?;
        let before = file.pending.len();
        file.pending.retain(|(t, _)| *t != token);
        if file.pending.len() != before {
            let tx = self.fs.begin_tx();
            self.write_intents(ino, &file)?;
            tx.commit()?;
        }
        Ok(())
    }

    /// Completes **local** erase intents left behind by a crash: a cascade
    /// interrupted between two of its groups is re-driven to completion
    /// with an escrow rebuilt from the intent's authority key, so no copy
    /// outlives its erased original however large the cascade.  Routed
    /// intents are left for the routing layer that wrote them.
    fn recover_local_intents(&self) -> Result<(), DbfsError> {
        for (token, intent) in self.pending_erase_intents()? {
            if intent.routed {
                continue;
            }
            self.erase_ids(&intent.ids(), &intent.escrow()?)?;
            self.clear_erase_intent(token)?;
            self.note_recovered_tx();
        }
        Ok(())
    }

    fn read_intents(&self, ino: Ino) -> Result<IntentsFile, DbfsError> {
        let bytes = self.fs.read_all(ino)?;
        if bytes.is_empty() {
            return Ok(IntentsFile::default());
        }
        serde_json::from_slice(&bytes).map_err(|_| corrupt("erase-intent log"))
    }

    fn write_intents(&self, ino: Ino, file: &IntentsFile) -> Result<(), DbfsError> {
        let bytes = serde_json::to_vec(file).map_err(|_| corrupt("erase-intent serialization"))?;
        self.fs.write_replace(ino, &bytes)?;
        Ok(())
    }

    /// Index-only probe: whether any live record's retention period has
    /// elapsed at `now` (no disk I/O).
    pub fn has_expired_candidates(&self, now: Timestamp) -> bool {
        self.read_snapshot().view.expired_ids(now).next().is_some()
    }

    /// Records one recovery action performed on this instance's behalf by a
    /// routing layer (e.g. a completed cross-shard erase intent), surfacing
    /// it in [`DbfsStats::recovered_txs`].
    pub fn note_recovered_tx(&self) {
        DbfsStatsInner::bump(&self.stats.recovered_txs);
    }

    // ------------------------------------------------------------------
    // Tombstone scrubbing / space reclamation
    // ------------------------------------------------------------------

    /// Tombstones reclaimed by scrub passes since format/mount (the
    /// `tombstones_reclaimed` gauge).
    pub fn tombstones_reclaimed(&self) -> u64 {
        self.space.reclaimed()
    }

    /// One scrub pass: reclaims the on-disk footprint of tombstones whose
    /// erasure receipt is durable.  `reclaimable` is the caller's extra
    /// retention policy — routing layers pass a predicate that retains
    /// tombstones a copy on another instance still names as its original.
    ///
    /// For every reclaimed tombstone, its table entry is unlinked and
    /// the record inode is freed (zeroed under `secure_free`, so the
    /// escrowed ciphertext leaves no residue).  The reclaims are cut into
    /// groups at the journal's capacity like a write batch, each **one**
    /// compound transaction: a crash leaves every tombstone of a group
    /// whole or none of them.  A group's ids leave the index and one
    /// snapshot is published **before** its commit, so a reader that meets
    /// a freed inode finds the id gone when `checked_read` validates — a
    /// reclaimed id is never readable; a failed commit puts them back and
    /// publishes again.  Skipped, in order of precedence:
    ///
    /// * tombstones named by a **pending [`EraseIntent`]** (counted in
    ///   [`ScrubReport::retained_intent`]): the erasure protocol has not
    ///   confirmed them durable everywhere;
    /// * tombstones `reclaimable` refuses, and tombstones that still have
    ///   copies in the reverse-lineage index (both counted in
    ///   [`ScrubReport::retained_lineage`]).  Reclamation is strictly
    ///   child-before-parent — iterated to fixpoint, so a fully erased copy
    ///   chain is reclaimed whole in one pass, deepest copies first.
    ///
    /// After a group commits, each reclaim is counted and audited as an
    /// [`AuditEventKind::Reclaimed`] event, in reclamation order.
    ///
    /// # Errors
    ///
    /// Propagates storage errors — `TxTooLarge` for a tombstone near the
    /// start of a table directory larger than a journal transaction (its
    /// reclaim writes the directory from its entry on); tombstones reclaimed
    /// before the failure stay reclaimed, counted and audited.
    pub fn scrub_tombstones_with(
        &self,
        reclaimable: impl Fn(PdId) -> bool,
    ) -> Result<ScrubReport, DbfsError> {
        let mut report = ScrubReport::default();
        {
            let mut index = self.lock_index();
            // Tombstones named by a pending intent are still part of an
            // in-flight erasure (a local cascade between groups or a routed
            // cross-shard erasure): never reclaim them.
            let pending: BTreeSet<PdId> = match index.intents_ino {
                Some(ino) => self
                    .read_intents(ino)?
                    .pending
                    .iter()
                    .flat_map(|(_, intent)| intent.ids())
                    .collect(),
                None => BTreeSet::new(),
            };
            let mut blocked = 0usize;
            let mut queue = Vec::new();
            for (&id, location) in index.view.records.iter().filter(|(_, loc)| loc.erased) {
                report.scanned_tombstones += 1;
                if pending.contains(&id) {
                    report.retained_intent += 1;
                } else if !reclaimable(id) {
                    blocked += 1;
                } else {
                    queue.push((id, location.clone()));
                }
            }
            // Child-before-parent, iterated to fixpoint: a tombstone joins
            // the order only after every copy naming it as its lineage
            // original, so the reverse-lineage index never dangles.
            let (mut order, mut planned) = (Vec::new(), BTreeSet::new());
            loop {
                let before = order.len();
                let mut deferred = Vec::new();
                for (id, location) in std::mem::take(&mut queue) {
                    if index.copies(id).all(|copy| planned.contains(&copy)) {
                        planned.insert(id);
                        order.push((id, location));
                    } else {
                        deferred.push((id, location));
                    }
                }
                queue = deferred;
                if queue.is_empty() || order.len() == before {
                    break;
                }
            }
            // Whatever still waits on surviving copies — or on the caller's
            // retain policy — stays a tombstone until a later pass.
            report.retained_lineage = blocked + queue.len();
            self.commit_in_groups(
                &mut index,
                &order,
                |index, _, (id, location)| {
                    let Some(&table_ino) = index.view.tables.get(location.data_type()) else {
                        return Err(corrupt(format!("tombstone {id} outside its table tree")));
                    };
                    let bytes = self.fs.stat(location.ino)?.size;
                    self.fs.dir_remove(table_ino, &id.to_string())?;
                    self.fs.free_inode(location.ino)?;
                    Ok(Some((*id, location.clone(), bytes)))
                },
                |index, tx, group| {
                    for (id, location, _) in &group {
                        index.remove_record(*id, location);
                    }
                    self.publish_locked(index);
                    if let Err(e) = tx.commit() {
                        // Nothing reached the device: the tombstones are
                        // all still there.
                        for (id, location, _) in group {
                            index.insert_record(id, location);
                        }
                        self.publish_locked(index);
                        return Err(e.into());
                    }
                    // Counted and audited under the index lock, as erasure
                    // does: an error later in the pass leaves every
                    // committed reclaim accounted for.
                    for (id, location, bytes) in group {
                        self.space.add_reclaimed(1);
                        let reclaimed = AuditEventKind::Reclaimed { pd: id };
                        self.audit
                            .record(self.clock.now(), Some(location.subject), reclaimed);
                        report.bytes_reclaimed += bytes;
                        report.reclaimed.push(id);
                    }
                    Ok(())
                },
            )?;
        }
        // Refresh the amplification gauge from the post-pass footprint.
        self.space_stats()?;
        Ok(report)
    }
}

/// The store operations.  [`PdStore`]'s own documentation is the contract;
/// a method is documented here only for what is specific to the
/// single-device store — which lock it takes, what it journals, what a
/// crash leaves behind.
impl<D: BlockDevice> PdStore for Dbfs<D> {
    fn clock(&self) -> Arc<LogicalClock> {
        Arc::clone(&self.clock)
    }

    fn audit(&self) -> AuditLog {
        self.audit.clone()
    }

    fn stats(&self) -> DbfsStats {
        self.stats.snapshot()
    }

    /// The unlabeled form of [`Dbfs::attach_trace_as`].
    fn attach_trace(&self, ctx: &rgpdos_trace::TraceCtx) {
        self.attach_trace_as(ctx, &[]);
    }

    fn create_type(&self, schema: DataTypeSchema) -> Result<(), DbfsError> {
        let mut index = self.lock_index();
        if index.view.tables.contains_key(schema.name()) {
            return Err(DbfsError::TypeAlreadyExists {
                name: schema.name().to_string(),
            });
        }
        // The table subtree, its schema entry and the tables-tree link are
        // created in one compound transaction: a crash never exposes a table
        // without its schema.
        let tx = self.fs.begin_tx();
        let table_ino = self.fs.alloc_inode(InodeKind::Table)?;
        self.fs
            .dir_add(index.tables_ino, schema.name().as_str(), table_ino)?;
        let schema_ino = self.fs.alloc_inode(InodeKind::Schema)?;
        let bytes = serde_json::to_vec(&schema).map_err(|_| corrupt("schema serialization"))?;
        self.fs.write_replace(schema_ino, &bytes)?;
        self.fs.dir_add(table_ino, SCHEMA_ENTRY, schema_ino)?;
        tx.commit()?;
        index.register_type(table_ino, schema);
        self.publish_locked(&mut index);
        Ok(())
    }

    fn schema(&self, name: &DataTypeId) -> Result<DataTypeSchema, DbfsError> {
        self.read_snapshot()
            .view
            .schemas
            .get(name)
            .cloned()
            .ok_or_else(|| unknown_type(name))
    }

    /// Served from the published snapshot: wait-free, never touches the
    /// index lock.
    fn types(&self) -> Vec<DataTypeId> {
        self.read_snapshot().view.tables.keys().cloned().collect()
    }

    /// Served from the published snapshot, so the answer is
    /// **batch-atomic**: a concurrent group commit is either fully counted
    /// or not at all — a half-applied batch is never observed.
    fn count(&self, name: &DataTypeId) -> Result<usize, DbfsError> {
        let snapshot = self.read_snapshot();
        let view = &snapshot.view;
        if !view.tables.contains_key(name) {
            return Err(unknown_type(name));
        }
        Ok(view.live_locations(view.table_ids(name)).count())
    }

    /// One batch through the write pipeline: the inserts coalesce into
    /// **group commits**, cut at
    /// [`rgpdos_inode::InodeFs::tx_capacity_blocks`] (the crash-atomicity
    /// bound), so a crash leaves a clean *prefix* of the batch (whole
    /// groups), never a torn record; on error the items before the failing
    /// one are inserted exactly as if inserted one by one.
    fn insert_many(&self, items: Vec<(DataTypeId, WrappedPd)>) -> Result<Vec<PdId>, DbfsError> {
        if items.is_empty() {
            return Ok(Vec::new());
        }
        let ops: Vec<WriteOp<'_>> = items
            .iter()
            .map(|(data_type, wrapped)| WriteOp::Insert {
                data_type,
                wrapped,
                copy_of: None,
            })
            .collect();
        self.commit_ops(&ops)
    }

    /// One batch through the write pipeline, sharing group commits like
    /// [`PdStore::insert_many`]; every update stays individually
    /// crash-atomic.
    fn update_rows(
        &self,
        data_type: &DataTypeId,
        updates: Vec<(PdId, Row)>,
    ) -> Result<(), DbfsError> {
        let ops: Vec<WriteOp<'_>> = updates
            .iter()
            .map(|(id, row)| WriteOp::UpdateRow {
                data_type,
                id: *id,
                row,
            })
            .collect();
        self.commit_ops(&ops).map(drop)
    }

    /// Served from the published snapshot, which holds every record's
    /// membrane: no device block is read.
    fn load_membranes(&self, data_type: &DataTypeId) -> Result<Vec<(PdId, Membrane)>, DbfsError> {
        let snapshot = self.read_snapshot();
        if !snapshot.view.tables.contains_key(data_type) {
            return Err(unknown_type(data_type));
        }
        let view = &snapshot.view;
        Ok(self.membranes_of(view.locations(view.table_ids(data_type))))
    }

    /// Resolved through the subject index, served from the published
    /// snapshot.
    fn load_membranes_for_subject(
        &self,
        data_type: &DataTypeId,
        subject: SubjectId,
    ) -> Result<Vec<(PdId, Membrane)>, DbfsError> {
        let snapshot = self.read_snapshot();
        if !snapshot.view.tables.contains_key(data_type) {
            return Err(unknown_type(data_type));
        }
        let view = &snapshot.view;
        let of_type = view
            .locations(view.subject_ids(subject))
            .filter(|(_, loc)| loc.data_type() == data_type);
        Ok(self.membranes_of(of_type))
    }

    /// Served from the published snapshot; a tombstone's membrane is
    /// returned as it is.
    fn load_membrane(&self, data_type: &DataTypeId, id: PdId) -> Result<Membrane, DbfsError> {
        let snapshot = self.read_snapshot();
        let location = snapshot.view.locate(data_type, id)?;
        DbfsStatsInner::bump(&self.stats.membrane_loads);
        Ok(location.membrane())
    }

    /// Every id is located in one published snapshot before any is read;
    /// each record then goes through the checked read
    /// (`Dbfs::checked_read`): the device is read with **no lock held**,
    /// and the result is validated against the current snapshot before it
    /// is returned — [`DbfsError::Erased`] when an erasure or a reclaim of
    /// one of them committed after the snapshot was cut.
    fn load_records(&self, data_type: &DataTypeId, ids: &[PdId]) -> Result<RecordBatch, DbfsError> {
        let snapshot = self.read_snapshot();
        let locations: Vec<(PdId, &RecordLocation)> = ids
            .iter()
            .map(|&id| Ok((id, snapshot.view.locate(data_type, id)?)))
            .collect::<Result<_, DbfsError>>()?;
        let mut batch = RecordBatch::new();
        for (id, location) in locations {
            DbfsStatsInner::bump(&self.stats.reads);
            let stored = self
                .checked_read(&snapshot, id, location, read_stored)?
                .into_located(id)?;
            batch.push(PdRecord::new(id, data_type.clone(), stored));
        }
        Ok(batch)
    }

    /// A batch of one through the write pipeline, which installs the new
    /// membrane in the index and publishes it before the call returns.
    /// Concurrent deltas to the same record are last-writer-wins.  An
    /// erasure racing this call always wins: the stale pre-erasure membrane
    /// is never written over the tombstone.
    fn apply_membrane_delta(
        &self,
        data_type: &DataTypeId,
        id: PdId,
        delta: &MembraneDelta,
    ) -> Result<bool, DbfsError> {
        let applied = self.commit_ops(&[WriteOp::MembraneDelta {
            data_type,
            id,
            delta,
        }])?;
        Ok(!applied.is_empty())
    }

    fn copy(&self, data_type: &DataTypeId, id: PdId) -> Result<PdId, DbfsError> {
        // The source resolves from the published snapshot, so an erasure can
        // commit between this read and the insert below.  That race is closed
        // by `stage_insert`, which re-walks the copy's lineage under the
        // index lock and refuses a live copy of an erased ancestor.
        let snapshot = self.read_snapshot();
        let location = snapshot.view.locate(data_type, id)?;
        if location.erased {
            return Err(DbfsError::Erased { id: id.raw() });
        }
        let stored = self
            .checked_read(&snapshot, id, location, read_stored)?
            .into_located(id)?;
        let (row, membrane) = stored.into_parts();
        let wrapped = WrappedPd::new(row, membrane.for_copy(id));
        let ids = self.commit_ops(&[WriteOp::Insert {
            data_type,
            wrapped: &wrapped,
            copy_of: Some(id),
        }])?;
        Ok(ids[0])
    }

    /// The record's payload is encrypted under the authority's public key
    /// and the membrane is marked erased (§4).  The lineage closure comes
    /// from the reverse copy-lineage index without any disk scan, and the
    /// cascade goes through the write pipeline under the same index-lock
    /// hold (`Dbfs::erase_roots_locked`): whatever write a crash hits, the
    /// next mount ends with the record and every copy tombstoned, or none
    /// of them.  A copy can therefore never outlive its erased original
    /// across a power loss.  Already-erased items are not listed in the
    /// result.
    fn erase(
        &self,
        data_type: &DataTypeId,
        id: PdId,
        escrow: &OperatorEscrow,
    ) -> Result<Vec<PdId>, DbfsError> {
        let mut index = self.lock_index();
        index.view.locate(data_type, id)?;
        self.erase_roots_locked(&mut index, &[id], escrow)
    }

    /// One cascade, as for [`PdStore::erase`], over the subject's records
    /// and every transitive lineage copy (copies carry their original's
    /// subject, so the closure stays within the subject's id set).
    fn erase_subject(
        &self,
        subject: SubjectId,
        escrow: &OperatorEscrow,
    ) -> Result<Vec<PdId>, DbfsError> {
        let mut index = self.lock_index();
        let live = index.view.live_locations(index.view.subject_ids(subject));
        let roots: Vec<PdId> = live.map(|(id, _)| id).collect();
        self.erase_roots_locked(&mut index, &roots, escrow)
    }

    /// The candidates come from the expiry index, so the sweep only ever
    /// visits records that actually expired — unexpired and unbounded-TTL
    /// records cost nothing, in memory or on disk.
    fn purge_expired(&self, escrow: &OperatorEscrow) -> Result<Vec<PdId>, DbfsError> {
        let now = self.clock.now();
        let candidates: Vec<(DataTypeId, PdId, SubjectId)> = {
            let index = self.lock_index();
            index
                .view
                .live_locations(index.view.expired_ids(now))
                .map(|(id, loc)| (loc.data_type().clone(), id, loc.subject))
                .collect()
        };
        let mut expired = Vec::new();
        let mut swept: BTreeSet<PdId> = BTreeSet::new();
        for (data_type, id, subject) in candidates {
            let reached_earlier = swept.contains(&id);
            if !reached_earlier {
                // Re-checked under the index lock: a TTL change publishes its
                // membrane, so one racing the sweep is seen here.  Tombstoned
                // by someone else (a concurrent sweep or an Art. 17 request)
                // since the candidates were taken: not this sweep's expiry to
                // report.
                let still_expired = {
                    let index = self.lock_index();
                    let location = index.view.records.get(&id);
                    location
                        .and_then(RecordLocation::expires_at)
                        .is_some_and(|at| at < now)
                };
                if !still_expired {
                    continue;
                }
                swept.extend(self.erase(&data_type, id, escrow)?);
            }
            // Reported when erased by this iteration, or earlier in this
            // sweep as the expired copy of another expired record.
            if reached_earlier || swept.contains(&id) {
                DbfsStatsInner::bump(&self.stats.expirations);
                self.audit
                    .record(now, Some(subject), AuditEventKind::Expired { pd: id });
                expired.push(id);
            }
        }
        Ok(expired)
    }

    fn records_of_subject(&self, subject: SubjectId) -> Result<Vec<PdRecord>, DbfsError> {
        let snapshot = self.read_snapshot();
        let view = &snapshot.view;
        let mut out = Vec::new();
        for (id, location) in view.live_locations(view.subject_ids(subject)) {
            // Tombstoned or reclaimed since the snapshot was cut: the right
            // of access only returns live records.
            let read = self.checked_read(&snapshot, id, location, read_stored)?;
            let Some(stored) = read.unless_erased_since(false) else {
                continue;
            };
            out.push(PdRecord::new(id, location.data_type().clone(), stored));
        }
        Ok(out)
    }

    fn query(&self, request: &QueryRequest) -> Result<RecordBatch, DbfsError> {
        DbfsStatsInner::bump(&self.stats.queries);
        let schema = self.schema(&request.data_type)?;
        let view = match &request.view {
            Some(view_name) => Some(schema.view(view_name).cloned().ok_or(
                rgpdos_core::CoreError::NotFound {
                    what: format!("view `{view_name}`"),
                },
            )?),
            None => None,
        };
        // Candidates resolve from one published snapshot, so the result is
        // batch-atomic; the device reads below run with no lock held.
        let snapshot = self.read_snapshot();
        let locations: Vec<(PdId, &RecordLocation)> = {
            // Narrow the candidate set through the secondary indexes before
            // touching the disk: seed it from the most selective source —
            // an explicit id-list conjunct, then a subject conjunct, then
            // the table index — so point and per-subject queries cost
            // O(result), not O(table).
            let mut subjects = Vec::new();
            let mut id_sets = Vec::new();
            request
                .predicate
                .conjunctive_hints(&mut subjects, &mut id_sets);
            let candidates: Box<dyn Iterator<Item = PdId> + '_> =
                if let Some(smallest) = id_sets.iter().copied().min_by_key(|ids| ids.len()) {
                    Box::new(smallest.iter().copied())
                } else if let Some(&subject) = subjects.first() {
                    // Any one pinned subject bounds the set; the filters
                    // below hold the candidates to all of them.
                    Box::new(snapshot.view.subject_ids(subject))
                } else {
                    Box::new(snapshot.view.table_ids(&request.data_type))
                };
            snapshot
                .view
                .locations(candidates)
                .filter(|(_, loc)| *loc.data_type() == request.data_type)
                .filter(|(_, loc)| subjects.iter().all(|s| loc.subject == *s))
                .filter(|(id, _)| id_sets.iter().all(|ids| ids.contains(id)))
                .filter(|(_, loc)| !(request.skip_erased && loc.erased))
                .collect()
        };
        let mut batch = RecordBatch::new();
        for (id, loc) in locations {
            // A record tombstoned since the snapshot was cut is kept (as
            // its tombstone) only by a query that includes erased records;
            // a reclaimed one is left out.
            let read = self.checked_read(&snapshot, id, loc, read_stored)?;
            let Some(stored) = read.unless_erased_since(!request.skip_erased) else {
                continue;
            };
            if !request.predicate.matches(id, loc.subject, stored.row()) {
                continue;
            }
            let stored = match &view {
                Some(v) => WrappedPd::new(v.apply(stored.row()), stored.into_parts().1),
                None => stored,
            };
            batch.push(PdRecord::new(id, request.data_type.clone(), stored));
        }
        Ok(batch)
    }

    /// Checks the derived indexes against the primary record map (the
    /// index module's own `verify`), every indexed membrane, whole, against
    /// the membrane header on disk, and the table tree against the primary
    /// map: every record has exactly its `pd-<id>` entry in its table's
    /// directory, naming its inode, and no table directory holds an entry
    /// the index lacks.  All under the index lock from start to end, so no writer can
    /// make the index and the disk disagree while they are compared.
    fn verify_index_invariants(&self) -> Result<(), DbfsError> {
        let index = self.lock_index();
        index.verify()?;
        let view = &index.view;
        // The indexed membranes are the membrane headers on disk.
        for (id, loc) in view.records.iter() {
            if read_membrane_from(&self.fs, loc.ino)? != loc.membrane() {
                return Err(corrupt(format!("{id} disagrees with its on-disk membrane")));
            }
        }
        for (data_type, &dir) in view.tables.iter() {
            self.verify_tree(dir, view.locations(view.table_ids(data_type)))?;
        }
        Ok(())
    }

    /// [`Dbfs::scrub_tombstones_with`] under no extra retention policy.
    fn scrub_tombstones(&self) -> Result<ScrubReport, DbfsError> {
        self.scrub_tombstones_with(|_| true)
    }

    /// Record bytes come from the record inodes' on-disk sizes, resolved
    /// against the published snapshot with no index lock held; a record
    /// reclaimed concurrently is simply skipped.  Also refreshes the
    /// `space_amplification` gauge.
    fn space_stats(&self) -> Result<SpaceStats, DbfsError> {
        let snapshot = self.read_snapshot();
        let mut stats = SpaceStats::default();
        for loc in snapshot.view.records.values() {
            let bytes = match self.fs.stat(loc.ino) {
                Ok(inode) => inode.size,
                // Reclaimed between the snapshot and this stat.
                Err(rgpdos_inode::InodeError::BadInode { .. }) => continue,
                Err(e) => return Err(e.into()),
            };
            if loc.erased {
                stats.tombstone_records += 1;
                stats.tombstone_bytes += bytes;
            } else {
                stats.live_records += 1;
                stats.live_bytes += bytes;
            }
        }
        stats.allocated_blocks = self.fs.allocated_blocks();
        self.space
            .set_amplification_x100(stats.amplification_x100());
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rgpdos_blockdev::{scan_for_pattern, MemDevice};
    use rgpdos_core::schema::listing1_user_schema;
    use rgpdos_core::{AccessDecision, ConsentDecision, Duration, PurposeId};
    use rgpdos_crypto::escrow::Authority;
    use rgpdos_dsl::compile_type_declarations;
    use rgpdos_inode::InodeError;

    fn dbfs() -> Dbfs<Arc<MemDevice>> {
        let device = Arc::new(MemDevice::new(8192, 512));
        let dbfs = Dbfs::format(device, DbfsParams::small()).unwrap();
        dbfs.create_type(listing1_user_schema()).unwrap();
        dbfs
    }

    fn user_row(name: &str, year: i64) -> Row {
        Row::new()
            .with("name", name)
            .with("pwd", "hunter2")
            .with("year_of_birthdate", year)
    }

    #[test]
    fn collect_many_group_commits_and_matches_sequential_results() {
        let batched = dbfs();
        let sequential = dbfs();
        let rows: Vec<(SubjectId, Row)> = (0..40u64)
            .map(|i| {
                (
                    SubjectId::new(i % 7),
                    user_row(&format!("u{i}"), 1950 + i as i64),
                )
            })
            .collect();

        let ids = batched.collect_many(&"user".into(), rows.clone()).unwrap();
        let mut seq_ids = Vec::new();
        for (subject, row) in rows {
            seq_ids.push(sequential.collect(&"user".into(), subject, row).unwrap());
        }
        // Same identifiers, same visible records, same index state.
        assert_eq!(ids, seq_ids);
        assert_eq!(batched.count(&"user".into()).unwrap(), 40);
        for &id in &ids {
            let a = batched.get(&"user".into(), id).unwrap();
            let b = sequential.get(&"user".into(), id).unwrap();
            assert_eq!(a.row(), b.row());
            assert_eq!(a.subject(), b.subject());
        }
        batched.verify_index_invariants().unwrap();

        // The point of group commit: far fewer journal transactions than
        // one per record.
        let grouped_txs = batched.inode_fs().journal_txs();
        let per_op_txs = sequential.inode_fs().journal_txs();
        assert!(
            grouped_txs * 3 <= per_op_txs,
            "group commit must coalesce journal transactions: {grouped_txs} vs {per_op_txs}"
        );
        assert_eq!(batched.stats().collects, 40);
        assert_eq!(
            batched.audit().snapshot().len(),
            sequential.audit().snapshot().len()
        );
    }

    #[test]
    fn insert_many_cuts_groups_at_the_capacity_bound() {
        // A small journal forces several groups; every record must still
        // land intact and the store must stay consistent.
        let device = Arc::new(MemDevice::new(8192, 512));
        let mut params = DbfsParams::small();
        params.inode_params.journal_blocks = 16;
        let dbfs = Dbfs::format(device, params).unwrap();
        dbfs.create_type(listing1_user_schema()).unwrap();
        let items: Vec<(DataTypeId, WrappedPd)> = (0..30u64)
            .map(|i| {
                let membrane = Membrane::from_schema(
                    &listing1_user_schema(),
                    SubjectId::new(i % 5),
                    dbfs.clock().now(),
                );
                (
                    DataTypeId::from("user"),
                    WrappedPd::new(user_row(&format!("g{i}"), 1960), membrane),
                )
            })
            .collect();
        let ids = dbfs.insert_many(items).unwrap();
        assert_eq!(ids.len(), 30);
        assert_eq!(dbfs.count(&"user".into()).unwrap(), 30);
        assert!(
            dbfs.inode_fs().journal_txs() > 1,
            "a 30-record batch cannot fit one 16-block journal transaction"
        );
        dbfs.verify_index_invariants().unwrap();

        // The same cut, reached by updates: rewriting all 30 rows spans
        // several groups too, and every row must come out updated.
        let before_txs = dbfs.inode_fs().journal_txs();
        dbfs.update_rows(
            &"user".into(),
            ids.iter()
                .map(|&id| (id, user_row(&format!("u{}", id.raw()), 1961)))
                .collect(),
        )
        .unwrap();
        assert!(
            dbfs.inode_fs().journal_txs() - before_txs > 1,
            "30 row rewrites cannot fit one 16-block journal transaction"
        );
        for &id in &ids {
            let record = dbfs.get(&"user".into(), id).unwrap();
            assert_eq!(
                record.row().get("name").unwrap().as_text(),
                Some(format!("u{}", id.raw()).as_str())
            );
        }
        assert_eq!(dbfs.stats().updates, 30);
        dbfs.verify_index_invariants().unwrap();
    }

    #[test]
    fn batch_errors_apply_a_clean_prefix() {
        let dbfs = dbfs();
        let rows = vec![
            (SubjectId::new(1), user_row("ok-1", 1980)),
            (SubjectId::new(2), user_row("ok-2", 1981)),
            (SubjectId::new(3), Row::new().with("name", "missing fields")),
            (SubjectId::new(4), user_row("never", 1983)),
        ];
        assert!(matches!(
            dbfs.collect_many(&"user".into(), rows),
            Err(DbfsError::Core(_))
        ));
        // The two valid rows before the failure are applied, nothing after.
        assert_eq!(dbfs.count(&"user".into()).unwrap(), 2);
        assert_eq!(dbfs.stats().collects, 2);
        dbfs.verify_index_invariants().unwrap();
        // The id counter continues cleanly for later inserts.
        let next = dbfs
            .collect(&"user".into(), SubjectId::new(9), user_row("after", 1990))
            .unwrap();
        assert_eq!(next.raw(), 2);

        // Updates follow the same rule: the row before the bad one is
        // rewritten, the bad one and everything after it are not.
        let name_of = |id: u64| {
            let record = dbfs.get(&"user".into(), PdId::new(id)).unwrap();
            record
                .row()
                .get("name")
                .unwrap()
                .as_text()
                .map(String::from)
        };
        let result = dbfs.update_rows(
            &"user".into(),
            vec![
                (PdId::new(0), user_row("updated-0", 1980)),
                (PdId::new(1), Row::new().with("name", "missing fields")),
                (PdId::new(2), user_row("never", 1990)),
            ],
        );
        assert!(matches!(result, Err(DbfsError::Core(_))));
        assert_eq!(dbfs.stats().updates, 1);
        assert_eq!(name_of(0).as_deref(), Some("updated-0"));
        assert_eq!(name_of(1).as_deref(), Some("ok-2"));
        assert_eq!(name_of(2).as_deref(), Some("after"));
        dbfs.verify_index_invariants().unwrap();
    }

    #[test]
    fn an_op_too_large_for_one_group_fails_like_any_other() {
        // A 16-block journal holds an ordinary insert; a 4 KiB row is
        // eight data blocks more and does not fit.
        let device = Arc::new(MemDevice::new(8192, 512));
        let mut params = DbfsParams::small();
        params.inode_params.journal_blocks = 16;
        let dbfs = Dbfs::format(device, params).unwrap();
        dbfs.create_type(listing1_user_schema()).unwrap();
        let capacity = dbfs.inode_fs().tx_capacity_blocks();
        let rows = vec![
            (SubjectId::new(1), user_row("ok-1", 1980)),
            (SubjectId::new(2), user_row("ok-2", 1981)),
            (SubjectId::new(3), user_row(&"x".repeat(4096), 1982)),
            (SubjectId::new(4), user_row("never", 1983)),
        ];
        match dbfs.collect_many(&"user".into(), rows) {
            Err(DbfsError::Inode(InodeError::TxTooLarge {
                staged,
                capacity: bound,
            })) => assert!(staged > capacity && bound == capacity),
            other => panic!("expected the oversize insert to be refused, got {other:?}"),
        }
        // The prefix committed, the oversize row left nothing behind — not
        // in the index, not in the table tree, not in the allocation bitmaps.
        assert_eq!(dbfs.count(&"user".into()).unwrap(), 2);
        assert_eq!(dbfs.stats().collects, 2);
        dbfs.verify_index_invariants().unwrap();
        assert!(dbfs.inode_fs().leaked_data_blocks().unwrap().is_empty());
        let next = dbfs
            .collect(&"user".into(), SubjectId::new(9), user_row("after", 1990))
            .unwrap();
        assert_eq!(next.raw(), 2);
    }

    #[test]
    fn update_rows_batches_and_refuses_tombstones() {
        let dbfs = dbfs();
        let authority = Authority::generate(5);
        let escrow = OperatorEscrow::new(authority.public_key());
        let ids = dbfs
            .collect_many(
                &"user".into(),
                (0..10u64)
                    .map(|i| (SubjectId::new(i), user_row(&format!("v{i}"), 1970)))
                    .collect(),
            )
            .unwrap();
        let before_txs = dbfs.inode_fs().journal_txs();
        dbfs.update_rows(
            &"user".into(),
            ids.iter()
                .map(|&id| (id, user_row("updated", 2000)))
                .collect(),
        )
        .unwrap();
        let grouped = dbfs.inode_fs().journal_txs() - before_txs;
        assert!(grouped < 10, "updates must coalesce: {grouped} txs for 10");
        for &id in &ids {
            assert_eq!(
                dbfs.get(&"user".into(), id)
                    .unwrap()
                    .row()
                    .get("name")
                    .unwrap()
                    .as_text(),
                Some("updated")
            );
        }
        assert_eq!(dbfs.stats().updates, 10);
        // A tombstone mid-batch: prefix applied, error surfaced.
        dbfs.erase(&"user".into(), ids[1], &escrow).unwrap();
        let result = dbfs.update_rows(
            &"user".into(),
            vec![
                (ids[0], user_row("second-pass", 2001)),
                (ids[1], user_row("never", 2001)),
                (ids[2], user_row("never", 2001)),
            ],
        );
        assert!(matches!(result, Err(DbfsError::Erased { .. })));
        assert_eq!(
            dbfs.get(&"user".into(), ids[0])
                .unwrap()
                .row()
                .get("name")
                .unwrap()
                .as_text(),
            Some("second-pass")
        );
        assert_eq!(
            dbfs.get(&"user".into(), ids[2])
                .unwrap()
                .row()
                .get("name")
                .unwrap()
                .as_text(),
            Some("updated")
        );
        dbfs.verify_index_invariants().unwrap();
    }

    #[test]
    fn erasure_leaves_no_plaintext_in_the_buffer_cache() {
        let dbfs = dbfs();
        let authority = Authority::generate(13);
        let escrow = OperatorEscrow::new(authority.public_key());
        let id = dbfs
            .collect(
                &"user".into(),
                SubjectId::new(1),
                user_row("CACHE-RESIDUE-CANARY-77", 1990),
            )
            .unwrap();
        // Warm the cache with the plaintext record.
        let _ = dbfs.get(&"user".into(), id).unwrap();
        assert!(dbfs.inode_fs().cache_contains(b"CACHE-RESIDUE-CANARY-77"));
        dbfs.erase(&"user".into(), id, &escrow).unwrap();
        assert!(
            !dbfs.inode_fs().cache_contains(b"CACHE-RESIDUE-CANARY-77"),
            "crypto-erasure must replace the cached plaintext"
        );
    }

    #[test]
    fn create_type_and_collect() {
        let dbfs = dbfs();
        assert_eq!(dbfs.types(), vec![DataTypeId::from("user")]);
        assert!(matches!(
            dbfs.create_type(listing1_user_schema()),
            Err(DbfsError::TypeAlreadyExists { .. })
        ));
        let id = dbfs
            .collect(&"user".into(), SubjectId::new(1), user_row("Chiraz", 1990))
            .unwrap();
        let record = dbfs.get(&"user".into(), id).unwrap();
        assert_eq!(record.subject(), SubjectId::new(1));
        assert_eq!(record.row().get("name").unwrap().as_text(), Some("Chiraz"));
        assert!(!record.membrane().is_erased());
        assert_eq!(dbfs.count(&"user".into()).unwrap(), 1);
        let summaries = dbfs.subject_summaries(SubjectId::new(1));
        assert_eq!(summaries.iter().map(|s| s.id).collect::<Vec<_>>(), [id]);
        assert_eq!(dbfs.stats().collects, 1);
    }

    #[test]
    fn an_insert_under_an_id_in_use_is_refused_before_anything_is_staged() {
        let dbfs = dbfs();
        let user = DataTypeId::from("user");
        let first = dbfs
            .collect(&user, SubjectId::new(1), user_row("First", 1990))
            .unwrap();
        // A counter behind the index: mount heals the stored one, so only a
        // bug could hand out `first` again.
        dbfs.lock_index().next_pd -= 1;
        let txs = dbfs.inode_fs().journal_txs();
        match dbfs.collect(&user, SubjectId::new(2), user_row("Second", 1991)) {
            Err(DbfsError::Corrupt { what }) => {
                assert_eq!(what, format!("{first} is already in use"))
            }
            other => panic!("expected the id collision to be refused, got {other:?}"),
        }
        assert_eq!(dbfs.inode_fs().journal_txs(), txs);
        assert!(dbfs.subject_summaries(SubjectId::new(2)).is_empty());
        dbfs.verify_index_invariants().unwrap();
    }

    #[test]
    fn every_stored_record_has_a_membrane() {
        // Enforcement rule (3): there is no DBFS API that stores a row
        // without a membrane; `collect` derives it from the schema and
        // `insert_wrapped` takes a WrappedPd which cannot be built without one.
        let dbfs = dbfs();
        let id = dbfs
            .collect(&"user".into(), SubjectId::new(4), user_row("Anyone", 1980))
            .unwrap();
        for (pd, membrane) in dbfs.load_membranes(&"user".into()).unwrap() {
            assert_eq!(pd, id);
            assert_eq!(membrane.subject(), SubjectId::new(4));
        }
    }

    #[test]
    fn collect_validates_against_schema() {
        let dbfs = dbfs();
        let bad = Row::new().with("name", "X");
        assert!(matches!(
            dbfs.collect(&"user".into(), SubjectId::new(1), bad),
            Err(DbfsError::Core(_))
        ));
        assert!(matches!(
            dbfs.collect(&"ghost".into(), SubjectId::new(1), user_row("X", 1990)),
            Err(DbfsError::UnknownType { .. })
        ));
    }

    #[test]
    fn update_and_membrane_delta() {
        let dbfs = dbfs();
        let id = dbfs
            .collect(&"user".into(), SubjectId::new(2), user_row("Old", 1970))
            .unwrap();
        dbfs.update_row(&"user".into(), id, user_row("New", 1970))
            .unwrap();
        let record = dbfs.get(&"user".into(), id).unwrap();
        assert_eq!(record.row().get("name").unwrap().as_text(), Some("New"));
        assert!(matches!(
            dbfs.update_row(&"user".into(), id, Row::new().with("name", 3i64)),
            Err(DbfsError::Core(_))
        ));

        // Grant then withdraw a consent through a membrane delta.
        assert!(dbfs
            .apply_membrane_delta(
                &"user".into(),
                id,
                &MembraneDelta::Grant {
                    purpose: PurposeId::from("newsletter"),
                    decision: ConsentDecision::All,
                },
            )
            .unwrap());
        let record = dbfs.get(&"user".into(), id).unwrap();
        assert_eq!(
            record.membrane().permits(&PurposeId::from("newsletter")),
            AccessDecision::Full
        );
        assert!(dbfs
            .apply_membrane_delta(
                &"user".into(),
                id,
                &MembraneDelta::Withdraw {
                    purpose: PurposeId::from("newsletter"),
                },
            )
            .unwrap());
        let record = dbfs.get(&"user".into(), id).unwrap();
        assert_eq!(
            record.membrane().permits(&PurposeId::from("newsletter")),
            AccessDecision::Denied
        );
        assert_eq!(dbfs.stats().updates, 1);
    }

    #[test]
    fn membrane_delta_leaves_a_tombstone_untouched() {
        let dbfs = dbfs();
        let escrow = OperatorEscrow::new(Authority::generate(3).public_key());
        let id = dbfs
            .collect(&"user".into(), SubjectId::new(2), user_row("Gone", 1970))
            .unwrap();
        dbfs.erase(&"user".into(), id, &escrow).unwrap();
        let tombstone = dbfs.get(&"user".into(), id).unwrap();
        let txs = dbfs.inode_fs().journal_txs();
        let events = dbfs.audit().snapshot().len();
        for delta in [
            MembraneDelta::Grant {
                purpose: PurposeId::from("newsletter"),
                decision: ConsentDecision::All,
            },
            MembraneDelta::SetTimeToLive {
                ttl: rgpdos_core::TimeToLive::days(1),
            },
        ] {
            assert!(!dbfs
                .apply_membrane_delta(&"user".into(), id, &delta)
                .unwrap());
        }
        assert_eq!(dbfs.inode_fs().journal_txs(), txs, "nothing journaled");
        assert_eq!(dbfs.audit().snapshot().len(), events, "nothing audited");
        assert_eq!(dbfs.get(&"user".into(), id).unwrap(), tombstone);
        assert!(matches!(
            dbfs.update_row(&"user".into(), id, user_row("Back", 1970)),
            Err(DbfsError::Erased { .. })
        ));
    }

    #[test]
    fn copy_preserves_membrane_and_erasure_reaches_copies() {
        let dbfs = dbfs();
        let authority = Authority::generate(9);
        let escrow = OperatorEscrow::new(authority.public_key());
        let id = dbfs
            .collect(&"user".into(), SubjectId::new(3), user_row("Copied", 1985))
            .unwrap();
        let copy = dbfs.copy(&"user".into(), id).unwrap();
        let copy_record = dbfs.get(&"user".into(), copy).unwrap();
        assert_eq!(copy_record.membrane().copied_from(), Some(id));
        assert_eq!(copy_record.subject(), SubjectId::new(3));
        assert_eq!(dbfs.count(&"user".into()).unwrap(), 2);

        dbfs.erase(&"user".into(), id, &escrow).unwrap();
        // Both the original and its copy are erased.
        assert!(dbfs.get(&"user".into(), id).unwrap().membrane().is_erased());
        assert!(dbfs
            .get(&"user".into(), copy)
            .unwrap()
            .membrane()
            .is_erased());
        assert_eq!(dbfs.count(&"user".into()).unwrap(), 0);
        assert!(matches!(
            dbfs.copy(&"user".into(), id),
            Err(DbfsError::Erased { .. })
        ));
        assert!(matches!(
            dbfs.update_row(&"user".into(), id, user_row("X", 1985)),
            Err(DbfsError::Erased { .. })
        ));
        assert_eq!(dbfs.stats().erasures, 2);
    }

    #[test]
    fn erasure_reaches_transitive_copies() {
        // Regression test for the lineage bug: a copy-of-a-copy must not
        // survive the erasure of the chain's original (GDPR art. 17).
        let dbfs = dbfs();
        let authority = Authority::generate(13);
        let escrow = OperatorEscrow::new(authority.public_key());
        let original = dbfs
            .collect(&"user".into(), SubjectId::new(6), user_row("Chain", 1988))
            .unwrap();
        let copy = dbfs.copy(&"user".into(), original).unwrap();
        let copy_of_copy = dbfs.copy(&"user".into(), copy).unwrap();
        assert_eq!(
            dbfs.get(&"user".into(), copy_of_copy)
                .unwrap()
                .membrane()
                .copied_from(),
            Some(copy),
            "the second hop's lineage points at the first copy, not the original"
        );

        dbfs.erase(&"user".into(), original, &escrow).unwrap();
        for id in [original, copy, copy_of_copy] {
            assert!(
                dbfs.get(&"user".into(), id).unwrap().membrane().is_erased(),
                "pd-{} survived a lineage erasure",
                id.raw()
            );
        }
        assert_eq!(dbfs.count(&"user".into()).unwrap(), 0);
        assert_eq!(dbfs.stats().erasures, 3);
        // Every hop's erasure is individually audited.
        assert_eq!(
            dbfs.audit()
                .count_matching(|e| matches!(e.kind, AuditEventKind::Erased { .. })),
            3
        );
        dbfs.verify_index_invariants().unwrap();
    }

    #[test]
    fn live_copies_of_erased_originals_cannot_be_inserted() {
        // The storage-level half of the copy/erase race: once an original
        // is tombstoned, inserting a live record whose lineage points at it
        // is refused, so no plaintext copy can slip past an erasure.
        let dbfs = dbfs();
        let authority = Authority::generate(21);
        let escrow = OperatorEscrow::new(authority.public_key());
        let id = dbfs
            .collect(&"user".into(), SubjectId::new(2), user_row("Gone", 1970))
            .unwrap();
        dbfs.erase(&"user".into(), id, &escrow).unwrap();
        let membrane = Membrane::from_schema(
            &listing1_user_schema(),
            SubjectId::new(2),
            dbfs.clock().now(),
        )
        .for_copy(id);
        assert!(matches!(
            dbfs.insert_wrapped(
                &"user".into(),
                WrappedPd::new(user_row("Gone", 1970), membrane),
            ),
            Err(DbfsError::Erased { .. })
        ));
        assert_eq!(dbfs.count(&"user".into()).unwrap(), 0);
        dbfs.verify_index_invariants().unwrap();
    }

    #[test]
    fn format_v1_and_v2_images_are_refused_without_touching_the_device() {
        // Format v1 marked itself by a bare 8-byte counter as metadata;
        // format v2 by its own magic ahead of the counter.
        let v2 = [META_MAGIC_V2.to_le_bytes(), 1u64.to_le_bytes()].concat();
        for (meta, version) in [(1u64.to_le_bytes().to_vec(), 1), (v2, 2)] {
            let device = Arc::new(MemDevice::new(8192, 512));
            let dbfs = Dbfs::format(Arc::clone(&device), DbfsParams::small()).unwrap();
            dbfs.create_type(listing1_user_schema()).unwrap();
            dbfs.collect(&"user".into(), SubjectId::new(9), user_row("Kept", 1975))
                .unwrap();
            let meta_ino = dbfs.fs.dir_lookup(ROOT_INO, META_ENTRY).unwrap().unwrap();
            dbfs.fs.write_replace(meta_ino, &meta).unwrap();
            drop(dbfs);
            let image = |device: &MemDevice| -> Vec<Vec<u8>> {
                (0..device.geometry().blocks)
                    .map(|block| device.read_block(block).unwrap())
                    .collect()
            };
            let before = image(&device);

            match Dbfs::mount(Arc::clone(&device)) {
                Err(DbfsError::Corrupt { what }) => {
                    assert_eq!(what, format!("unsupported format version {version}"))
                }
                Err(other) => panic!("v{version} image refused with the wrong error: {other}"),
                Ok(_) => panic!("a v{version} image must not mount"),
            }
            assert!(before == image(&device), "a refused mount must not write");
        }
    }

    #[test]
    fn membrane_loads_read_no_device_block() {
        use rgpdos_blockdev::{InstrumentedDevice, LatencyModel};
        let device = Arc::new(InstrumentedDevice::new(
            MemDevice::new(16_384, 512),
            LatencyModel::nvme(),
        ));
        let dbfs = Dbfs::format(Arc::clone(&device), DbfsParams::small()).unwrap();
        dbfs.create_type(listing1_user_schema()).unwrap();
        let blob = "x".repeat(8 * 512);
        for i in 0..4u64 {
            dbfs.collect(
                &"user".into(),
                SubjectId::new(i),
                Row::new()
                    .with("name", blob.as_str())
                    .with("pwd", "pw")
                    .with("year_of_birthdate", 1990i64),
            )
            .unwrap();
        }
        dbfs.drop_caches();
        device.reset_stats();
        let membranes = dbfs.load_membranes(&"user".into()).unwrap();
        assert_eq!(membranes.len(), 4);
        let (first, _) = membranes[0];
        let of_subject = dbfs.load_membranes_for_subject(&"user".into(), SubjectId::new(0));
        assert_eq!(of_subject.unwrap(), membranes[..1]);
        assert_eq!(
            dbfs.load_membrane(&"user".into(), first).unwrap(),
            membranes[0].1
        );
        assert_eq!(device.stats().reads, 0, "membranes come from the index");
        let ids: Vec<PdId> = membranes.iter().map(|(id, _)| *id).collect();
        let batch = dbfs.load_records(&"user".into(), &ids).unwrap();
        assert!(device.stats().reads >= 4 * 9, "each record spans 9 blocks");
        let on_disk: Vec<(PdId, Membrane)> = batch
            .iter()
            .map(|record| (record.id(), record.membrane().clone()))
            .collect();
        assert_eq!(on_disk, membranes);
        assert_eq!(dbfs.stats().membrane_loads, 6);
    }

    /// A header that keeps the record's subject, erased flag, lineage
    /// parent and retention period but states another consent table is a
    /// record the index misdescribes to the DED, and the checker names it.
    #[test]
    fn the_checker_names_a_record_whose_on_disk_consents_differ() {
        let dbfs = dbfs();
        let id = dbfs
            .collect(&"user".into(), SubjectId::new(2), user_row("Forged", 1970))
            .unwrap();
        dbfs.verify_index_invariants().unwrap();
        let ino = dbfs.read_snapshot().view.records.get(&id).unwrap().ino;
        let fs = dbfs.inode_fs();
        let bytes = fs.read_all(ino).unwrap();
        let mut forged = stored::membrane_of(&bytes).unwrap();
        forged.apply(&MembraneDelta::Grant {
            purpose: PurposeId::from("purpose2"),
            decision: ConsentDecision::All,
        });
        let tx = fs.begin_tx();
        fs.write_replace(ino, &stored::replace_membrane(&bytes, &forged).unwrap())
            .unwrap();
        tx.commit().unwrap();
        match dbfs.verify_index_invariants() {
            Err(DbfsError::Corrupt { what }) => {
                assert_eq!(what, format!("{id} disagrees with its on-disk membrane"));
            }
            other => panic!("expected {id} to be named, got {other:?}"),
        }
    }

    #[test]
    fn erasure_leaves_no_plaintext_on_the_device_and_authority_recovers() {
        let device = Arc::new(MemDevice::new(8192, 512));
        let dbfs = Dbfs::format(Arc::clone(&device), DbfsParams::small()).unwrap();
        dbfs.create_type(listing1_user_schema()).unwrap();
        let authority = Authority::generate(11);
        let escrow = OperatorEscrow::new(authority.public_key());
        let id = dbfs
            .collect(
                &"user".into(),
                SubjectId::new(5),
                user_row("FORGOTTEN-NAME-XYZ", 1999),
            )
            .unwrap();
        assert!(!scan_for_pattern(device.as_ref(), b"FORGOTTEN-NAME-XYZ")
            .unwrap()
            .is_empty());

        dbfs.erase(&"user".into(), id, &escrow).unwrap();
        // The operator's device no longer holds the plaintext anywhere —
        // data blocks, journal, or tombstone.
        assert!(scan_for_pattern(device.as_ref(), b"FORGOTTEN-NAME-XYZ")
            .unwrap()
            .is_empty());

        // But the authority can still recover it from the tombstone.
        let tombstone = dbfs
            .query(&QueryRequest::all("user").including_erased())
            .unwrap();
        let ciphertext_bytes = tombstone.records()[0]
            .row()
            .get("__erased_ciphertext")
            .unwrap()
            .as_bytes()
            .unwrap()
            .to_vec();
        let ciphertext = rgpdos_crypto::EscrowedCiphertext::decode(&ciphertext_bytes).unwrap();
        let plaintext = authority.recover(&ciphertext).unwrap();
        let row: Row = serde_json::from_slice(&plaintext).unwrap();
        assert_eq!(
            row.get("name").unwrap().as_text(),
            Some("FORGOTTEN-NAME-XYZ")
        );
    }

    #[test]
    fn erase_subject_and_records_of_subject() {
        let dbfs = dbfs();
        let authority = Authority::generate(3);
        let escrow = OperatorEscrow::new(authority.public_key());
        for i in 0..5 {
            dbfs.collect(
                &"user".into(),
                SubjectId::new(10),
                user_row(&format!("dup-{i}"), 1990 + i),
            )
            .unwrap();
        }
        dbfs.collect(&"user".into(), SubjectId::new(11), user_row("other", 1970))
            .unwrap();
        assert_eq!(
            dbfs.records_of_subject(SubjectId::new(10)).unwrap().len(),
            5
        );
        let erased = dbfs.erase_subject(SubjectId::new(10), &escrow).unwrap();
        assert_eq!(erased.len(), 5);
        assert!(dbfs
            .records_of_subject(SubjectId::new(10))
            .unwrap()
            .is_empty());
        assert_eq!(
            dbfs.records_of_subject(SubjectId::new(11)).unwrap().len(),
            1
        );
    }

    #[test]
    fn retention_sweep_erases_expired_records() {
        let dbfs = dbfs();
        let authority = Authority::generate(5);
        let escrow = OperatorEscrow::new(authority.public_key());
        let id = dbfs
            .collect(
                &"user".into(),
                SubjectId::new(1),
                user_row("Expiring", 1990),
            )
            .unwrap();
        // Nothing expires immediately.
        assert!(dbfs.purge_expired(&escrow).unwrap().is_empty());
        // Advance past the 1-year TTL of Listing 1.
        dbfs.clock().advance(Duration::from_days(366));
        let expired = dbfs.purge_expired(&escrow).unwrap();
        assert_eq!(expired, vec![id]);
        assert!(dbfs.get(&"user".into(), id).unwrap().membrane().is_erased());
        assert_eq!(dbfs.stats().expirations, 1);
        // A second sweep is a no-op.
        assert!(dbfs.purge_expired(&escrow).unwrap().is_empty());
    }

    #[test]
    fn queries_filter_and_project() {
        let dbfs = dbfs();
        for i in 0..10 {
            dbfs.collect(
                &"user".into(),
                SubjectId::new(i % 3),
                user_row(&format!("user-{i}"), 1960 + i as i64),
            )
            .unwrap();
        }
        let all = dbfs.query(&QueryRequest::all("user")).unwrap();
        assert_eq!(all.len(), 10);
        let subject0 = dbfs
            .query(&QueryRequest::all("user").for_subject(SubjectId::new(0)))
            .unwrap();
        assert_eq!(subject0.len(), 4);
        let older = dbfs
            .query(
                &QueryRequest::all("user").filter(crate::query::Predicate::IntFieldLessThan {
                    field: "year_of_birthdate".into(),
                    bound: 1965,
                }),
            )
            .unwrap();
        assert_eq!(older.len(), 5);
        let anonymised = dbfs
            .query(&QueryRequest::all("user").through_view("v_ano".into()))
            .unwrap();
        for record in anonymised.iter() {
            assert!(record.row().get("name").is_none());
            assert!(record.row().get("pwd").is_none());
            assert!(record.row().get("year_of_birthdate").is_some());
        }
        assert!(matches!(
            dbfs.query(&QueryRequest::all("user").through_view("nope".into())),
            Err(DbfsError::Core(_))
        ));
        assert!(matches!(
            dbfs.query(&QueryRequest::all("ghost")),
            Err(DbfsError::UnknownType { .. })
        ));
    }

    #[test]
    fn remount_rebuilds_the_index() {
        let device = Arc::new(MemDevice::new(8192, 512));
        let id;
        {
            let dbfs = Dbfs::format(Arc::clone(&device), DbfsParams::small()).unwrap();
            dbfs.create_type(listing1_user_schema()).unwrap();
            id = dbfs
                .collect(
                    &"user".into(),
                    SubjectId::new(7),
                    user_row("Persisted", 2001),
                )
                .unwrap();
            dbfs.collect(&"user".into(), SubjectId::new(8), user_row("Another", 2002))
                .unwrap();
        }
        let dbfs = Dbfs::mount(Arc::clone(&device)).unwrap();
        assert_eq!(dbfs.types(), vec![DataTypeId::from("user")]);
        assert_eq!(dbfs.count(&"user".into()).unwrap(), 2);
        let record = dbfs.get(&"user".into(), id).unwrap();
        assert_eq!(
            record.row().get("name").unwrap().as_text(),
            Some("Persisted")
        );
        // New identifiers do not collide with pre-remount ones.
        let new_id = dbfs
            .collect(&"user".into(), SubjectId::new(7), user_row("Fresh", 2003))
            .unwrap();
        assert!(new_id.raw() > id.raw());
        // Mounting a non-DBFS device fails cleanly.
        assert!(Dbfs::mount(Arc::new(MemDevice::new(64, 512))).is_err());
    }

    #[test]
    fn listing1_schema_from_dsl_round_trips_through_dbfs() {
        let schemas = compile_type_declarations(rgpdos_dsl::listings::LISTING_1).unwrap();
        let device = Arc::new(MemDevice::new(8192, 512));
        let dbfs = Dbfs::format(device, DbfsParams::small()).unwrap();
        dbfs.create_type(schemas[0].clone()).unwrap();
        let loaded = dbfs.schema(&"user".into()).unwrap();
        assert_eq!(&loaded, &schemas[0]);
    }

    #[test]
    fn unknown_pd_is_reported() {
        let dbfs = dbfs();
        assert!(matches!(
            dbfs.get(&"user".into(), PdId::new(99)),
            Err(DbfsError::UnknownPd { .. })
        ));
        assert!(matches!(
            dbfs.load_records(&"user".into(), &[PdId::new(99)]),
            Err(DbfsError::UnknownPd { .. })
        ));
        assert!(matches!(
            dbfs.schema(&"ghost".into()),
            Err(DbfsError::UnknownType { .. })
        ));
        assert!(matches!(
            dbfs.load_membranes(&"ghost".into()),
            Err(DbfsError::UnknownType { .. })
        ));
    }

    #[test]
    fn audit_trail_records_the_lifecycle() {
        let dbfs = dbfs();
        let authority = Authority::generate(2);
        let escrow = OperatorEscrow::new(authority.public_key());
        let id = dbfs
            .collect(&"user".into(), SubjectId::new(1), user_row("Audited", 1991))
            .unwrap();
        dbfs.update_row(&"user".into(), id, user_row("Audited2", 1991))
            .unwrap();
        let copy = dbfs.copy(&"user".into(), id).unwrap();
        dbfs.erase(&"user".into(), id, &escrow).unwrap();
        dbfs.scrub_tombstones().unwrap();
        // The whole trail, in order: a copy is audited as an insert and then
        // as a copy, an erasure root first, a reclaim child first — and no
        // record's `Reclaimed` comes ahead of its `Erased`.
        let kinds: Vec<AuditEventKind> = dbfs
            .audit()
            .snapshot()
            .into_iter()
            .map(|e| e.kind)
            .collect();
        assert_eq!(
            kinds,
            vec![
                AuditEventKind::Collected { pd: id },
                AuditEventKind::Updated { pd: id },
                AuditEventKind::Collected { pd: copy },
                AuditEventKind::Copied { from: id, to: copy },
                AuditEventKind::Erased { pd: id },
                AuditEventKind::Erased { pd: copy },
                AuditEventKind::Reclaimed { pd: copy },
                AuditEventKind::Reclaimed { pd: id },
            ]
        );
        let stats = dbfs.stats();
        assert_eq!((stats.collects, stats.copies, stats.erasures), (2, 1, 2));
    }

    #[test]
    fn scrub_reclaims_tombstones_and_audits_each() {
        let dbfs = dbfs();
        let authority = Authority::generate(7);
        let escrow = OperatorEscrow::new(authority.public_key());
        let mut erased = Vec::new();
        for i in 0..6 {
            let id = dbfs
                .collect(
                    &"user".into(),
                    SubjectId::new(i % 2),
                    user_row(&format!("scrub-{i}"), 1980 + i as i64),
                )
                .unwrap();
            if i < 4 {
                dbfs.erase(&"user".into(), id, &escrow).unwrap();
                erased.push(id);
            }
        }
        let before = dbfs.space_stats().unwrap();
        assert_eq!(before.tombstone_records, 4);
        assert!(before.amplification() > 2.0);

        let report = dbfs.scrub_tombstones().unwrap();
        assert_eq!(report.scanned_tombstones, 4);
        assert_eq!(report.reclaimed, erased);
        assert_eq!(report.retained_intent, 0);
        assert_eq!(report.retained_lineage, 0);
        assert!(report.bytes_reclaimed > 0);

        let after = dbfs.space_stats().unwrap();
        assert_eq!(after.tombstone_records, 0);
        assert_eq!(after.live_records, 2);
        assert_eq!(after.amplification(), 1.0);
        assert!(after.allocated_blocks < before.allocated_blocks);
        assert_eq!(dbfs.tombstones_reclaimed(), 4);
        assert_eq!(dbfs.count(&"user".into()).unwrap(), 2);
        dbfs.verify_index_invariants().unwrap();

        // Each reclamation is audited; a reclaimed id reads as unknown.
        assert_eq!(
            dbfs.audit()
                .count_matching(|e| matches!(e.kind, AuditEventKind::Reclaimed { .. })),
            4
        );
        for id in erased {
            assert!(matches!(
                dbfs.get(&"user".into(), id),
                Err(DbfsError::UnknownPd { .. })
            ));
        }
        // Idempotent: nothing left to reclaim.
        let again = dbfs.scrub_tombstones().unwrap();
        assert_eq!(again.reclaimed_count(), 0);
        assert_eq!(again.scanned_tombstones, 0);
    }

    #[test]
    fn a_scrub_pass_commits_and_publishes_once_per_group() {
        let dbfs = dbfs();
        let escrow = OperatorEscrow::new(Authority::generate(9).public_key());
        let rows = (0..48u64).map(|i| (SubjectId::new(i % 4), user_row("grouped", 1990)));
        let ids = dbfs.collect_many(&"user".into(), rows.collect()).unwrap();
        for &id in ids.iter().step_by(2) {
            dbfs.erase(&"user".into(), id, &escrow).unwrap();
        }
        let (epoch, txs) = (dbfs.snapshot_info().0, dbfs.inode_fs().journal_txs());
        assert_eq!(dbfs.scrub_tombstones().unwrap().reclaimed_count(), 24);
        let groups = dbfs.inode_fs().journal_txs() - txs;
        assert!((2..24).contains(&groups), "{groups} groups for 24 reclaims");
        assert_eq!(
            dbfs.snapshot_info().0 - epoch,
            groups,
            "one publish per group"
        );
        dbfs.verify_index_invariants().unwrap();
        assert_eq!(dbfs.count(&"user".into()).unwrap(), 24);
    }

    #[test]
    fn scrub_leaves_no_tombstone_ciphertext_on_the_device() {
        let device = Arc::new(MemDevice::new(8192, 512));
        let dbfs = Dbfs::format(Arc::clone(&device), DbfsParams::small()).unwrap();
        dbfs.create_type(listing1_user_schema()).unwrap();
        let authority = Authority::generate(11);
        let escrow = OperatorEscrow::new(authority.public_key());
        let id = dbfs
            .collect(
                &"user".into(),
                SubjectId::new(3),
                user_row("SCRUB-TARGET-ABC", 1988),
            )
            .unwrap();
        dbfs.erase(&"user".into(), id, &escrow).unwrap();
        // The tombstone still holds the escrowed ciphertext on disk (the
        // stored row is JSON, so the tombstone marker field names it).
        assert!(!scan_for_pattern(device.as_ref(), b"__erased_ciphertext")
            .unwrap()
            .is_empty());

        dbfs.scrub_tombstones().unwrap();
        // After reclamation neither the plaintext nor the ciphertext
        // survives anywhere on the raw device (zero-on-free scrubbed the
        // tombstone blocks; the journal is scrubbed by policy).
        assert!(scan_for_pattern(device.as_ref(), b"SCRUB-TARGET-ABC")
            .unwrap()
            .is_empty());
        assert!(scan_for_pattern(device.as_ref(), b"__erased_ciphertext")
            .unwrap()
            .is_empty());
        assert!(dbfs.inode_fs().leaked_data_blocks().unwrap().is_empty());
    }

    #[test]
    fn scrub_reclaims_erased_copy_chains_child_first() {
        let dbfs = dbfs();
        let authority = Authority::generate(13);
        let escrow = OperatorEscrow::new(authority.public_key());
        let original = dbfs
            .collect(&"user".into(), SubjectId::new(1), user_row("Chain", 1990))
            .unwrap();
        let copy = dbfs.copy(&"user".into(), original).unwrap();
        let grandcopy = dbfs.copy(&"user".into(), copy).unwrap();
        dbfs.erase(&"user".into(), original, &escrow).unwrap();

        // The whole erased chain is reclaimed in one pass, children first.
        let report = dbfs.scrub_tombstones().unwrap();
        assert_eq!(report.reclaimed_count(), 3);
        let order: Vec<PdId> = report.reclaimed.clone();
        let pos = |id: PdId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(grandcopy) < pos(copy));
        assert!(pos(copy) < pos(original));
        dbfs.verify_index_invariants().unwrap();
        assert_eq!(dbfs.record_counts(), (0, 0));
    }

    #[test]
    fn scrub_retains_tombstones_named_by_pending_intents() {
        let dbfs = dbfs();
        let authority = Authority::generate(17);
        let escrow = OperatorEscrow::new(authority.public_key());
        let id = dbfs
            .collect(&"user".into(), SubjectId::new(1), user_row("Held", 1991))
            .unwrap();
        dbfs.erase(&"user".into(), id, &escrow).unwrap();
        // A routed erasure still in flight names the tombstone.
        let token = dbfs
            .put_erase_intent(&EraseIntent {
                targets: vec![("user".to_owned(), id.raw())],
                escrow_key: escrow.public_key().element(),
                routed: true,
            })
            .unwrap();
        let held = dbfs.scrub_tombstones().unwrap();
        assert_eq!(held.reclaimed_count(), 0);
        assert_eq!(held.retained_intent, 1);
        // The tombstone stays readable as a tombstone while the routed
        // erasure is in flight.
        assert!(dbfs.get(&"user".into(), id).unwrap().membrane().is_erased());

        // Once the protocol confirms and clears the intent, it reclaims.
        dbfs.clear_erase_intent(token).unwrap();
        let freed = dbfs.scrub_tombstones().unwrap();
        assert_eq!(freed.reclaimed, vec![id]);
        dbfs.verify_index_invariants().unwrap();
    }

    #[test]
    fn scrub_respects_the_caller_retain_policy() {
        let dbfs = dbfs();
        let authority = Authority::generate(19);
        let escrow = OperatorEscrow::new(authority.public_key());
        let keep = dbfs
            .collect(&"user".into(), SubjectId::new(1), user_row("Keep", 1990))
            .unwrap();
        let free = dbfs
            .collect(&"user".into(), SubjectId::new(1), user_row("Free", 1991))
            .unwrap();
        dbfs.erase_subject(SubjectId::new(1), &escrow).unwrap();
        let report = dbfs.scrub_tombstones_with(|id| id != keep).unwrap();
        assert_eq!(report.reclaimed, vec![free]);
        assert_eq!(report.retained_lineage, 1);
        assert!(matches!(
            dbfs.load_membrane(&"user".into(), keep),
            Ok(m) if m.is_erased()
        ));
        dbfs.verify_index_invariants().unwrap();
    }

    #[test]
    fn scrubbed_store_survives_remount() {
        let device = Arc::new(MemDevice::new(8192, 512));
        let dbfs = Dbfs::format(Arc::clone(&device), DbfsParams::small()).unwrap();
        dbfs.create_type(listing1_user_schema()).unwrap();
        let authority = Authority::generate(23);
        let escrow = OperatorEscrow::new(authority.public_key());
        let gone = dbfs
            .collect(&"user".into(), SubjectId::new(1), user_row("Gone", 1990))
            .unwrap();
        let stays = dbfs
            .collect(&"user".into(), SubjectId::new(2), user_row("Stays", 1991))
            .unwrap();
        dbfs.erase(&"user".into(), gone, &escrow).unwrap();
        dbfs.scrub_tombstones().unwrap();
        drop(dbfs);

        let remounted = Dbfs::mount(Arc::clone(&device)).unwrap();
        assert_eq!(remounted.record_counts(), (1, 0));
        assert!(matches!(
            remounted.get(&"user".into(), gone),
            Err(DbfsError::UnknownPd { .. })
        ));
        assert_eq!(
            remounted.get(&"user".into(), stays).unwrap().subject(),
            SubjectId::new(2)
        );
        // The healed id counter never recycles a reclaimed id.
        let fresh = remounted
            .collect(&"user".into(), SubjectId::new(3), user_row("Fresh", 1992))
            .unwrap();
        assert!(fresh.raw() > stays.raw());
        remounted.verify_index_invariants().unwrap();
    }
}
