//! [`ShardedDbfs`]: N independent DBFS instances behind a deterministic
//! subject-hash placement map, a scatter-gather router and a cross-shard
//! lineage directory.

use crate::directory::{DirectoryEntry, GlobalSummaries, LineageDirectory};
use crate::pool::ShardPool;
use parking_lot::Mutex;
use rgpdos_blockdev::BlockDevice;
use rgpdos_core::{
    AuditLog, DataTypeId, DataTypeSchema, LogicalClock, Membrane, MembraneDelta, PdId, PdRecord,
    RecordBatch, Row, SubjectId, WrappedPd,
};
use rgpdos_crypto::escrow::OperatorEscrow;
use rgpdos_crypto::PublicKey;
use rgpdos_dbfs::{
    erased_ancestor, Dbfs, DbfsError, DbfsParams, DbfsStats, EraseIntent, IdAllocation, PdStore,
    QueryRequest, ScrubReport, SpaceStats,
};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Per-shard batch slots handed to the worker pool: each involved shard
/// `take()`s its slot exactly once, so row payloads move instead of clone.
type ShardBatches<T> = Arc<Vec<Mutex<Option<Vec<T>>>>>;

/// What one shard answered for its slice of a scatter batch
/// ([`ShardedDbfs::scatter_batch`]).
struct BatchLeg<R> {
    shard: usize,
    /// Input positions of the items routed to `shard`, in input order.
    positions: Vec<usize>,
    result: Result<R, DbfsError>,
}

/// Puts one leg's per-item outputs back at its items' input positions.
fn place<R>(slots: &mut [Option<R>], positions: Vec<usize>, outputs: Vec<R>) {
    for (pos, output) in positions.into_iter().zip(outputs) {
        slots[pos] = Some(output);
    }
}

/// SplitMix64: a strong deterministic mix so that dense subject ids spread
/// evenly over the shards.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The home shard of a subject in a deployment of `shards` shards.
fn home_for(subject: SubjectId, shards: usize) -> usize {
    (mix(subject.raw()) % shards as u64) as usize
}

/// Encodes a routed target list as a durable erase intent.
fn intent_for(targets: &[(usize, DataTypeId, PdId)], escrow: &OperatorEscrow) -> EraseIntent {
    EraseIntent {
        targets: targets
            .iter()
            .map(|(_, data_type, id)| (data_type.to_string(), id.raw()))
            .collect(),
        escrow_key: escrow.public_key().element(),
        routed: true,
    }
}

/// Folds a scatter's per-shard results, surfacing any failure as
/// [`DbfsError::PartialScatter`] instead of silently merging the shards
/// that did answer (which would present an undercount or a partial
/// membrane set as a complete result).  `shards` pairs each result with
/// the shard that produced it; the lowest failing shard is reported and
/// `completed` counts every shard that succeeded.
fn gather_scatter<T>(
    shards: impl IntoIterator<Item = usize>,
    results: Vec<Result<T, DbfsError>>,
) -> Result<Vec<T>, DbfsError> {
    let mut ok = Vec::with_capacity(results.len());
    let mut failed: Option<(usize, DbfsError)> = None;
    for (shard, result) in shards.into_iter().zip(results) {
        match result {
            Ok(value) => ok.push(value),
            Err(source) => match &failed {
                Some((lowest, _)) if *lowest <= shard => {}
                _ => failed = Some((shard, source)),
            },
        }
    }
    match failed {
        None => Ok(ok),
        Some((shard, source)) => Err(DbfsError::PartialScatter {
            shard,
            completed: ok.len(),
            source: Box::new(source),
        }),
    }
}

/// Every record of the deployment by id, with the shard that holds it —
/// read off the shards' published index snapshots, no disk I/O.
fn global_summaries<D: BlockDevice>(shards: &[Arc<Dbfs<D>>]) -> GlobalSummaries {
    let mut global = GlobalSummaries::new();
    for (shard, instance) in shards.iter().enumerate() {
        for summary in instance.record_index_snapshot() {
            global.insert(summary.id, (shard, summary));
        }
    }
    global
}

/// `(descendant, erased ancestor)` pairs over a global summary map: live
/// records whose lineage chain contains an erased ancestor, every
/// transitive descendant included.  Shared by the mount-time lineage heal
/// (which erases the descendants) and the invariant checker (which reports
/// them).
fn erased_ancestor_violations(global: &GlobalSummaries) -> Vec<(PdId, PdId)> {
    let lookup = |id| {
        let (_, summary) = global.get(&id)?;
        Some((summary.erased, summary.copied_from))
    };
    let live = global.iter().filter(|(_, (_, summary))| !summary.erased);
    live.filter_map(|(&id, (_, summary))| Some((id, erased_ancestor(summary.copied_from, lookup)?)))
        .collect()
}

/// Load and operation counters of one shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardLoad {
    /// The shard index.
    pub shard: usize,
    /// Live (non-tombstoned) records on the shard.
    pub live_records: usize,
    /// Tombstoned records on the shard.
    pub tombstones: usize,
    /// The shard's DBFS operation counters.
    pub stats: DbfsStats,
}

/// A point-in-time snapshot of a sharded deployment: per-shard load plus the
/// merged aggregate counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedStats {
    /// One entry per shard, in shard order.
    pub per_shard: Vec<ShardLoad>,
    /// Field-wise sum of every shard's counters.
    pub totals: DbfsStats,
}

impl ShardedStats {
    /// Total live records across the deployment.
    pub fn live_records(&self) -> usize {
        self.per_shard.iter().map(|s| s.live_records).sum()
    }

    /// Live records per shard, in shard order.
    pub fn records_per_shard(&self) -> Vec<usize> {
        self.per_shard.iter().map(|s| s.live_records).collect()
    }

    /// Placement balance: the most loaded shard's live-record count divided
    /// by the mean (`1.0` is perfect balance; an empty deployment reports
    /// `1.0`).
    pub fn imbalance(&self) -> f64 {
        let total = self.live_records();
        if total == 0 || self.per_shard.is_empty() {
            return 1.0;
        }
        let mean = total as f64 / self.per_shard.len() as f64;
        let max = self
            .per_shard
            .iter()
            .map(|s| s.live_records)
            .max()
            .unwrap_or(0) as f64;
        max / mean
    }
}

impl fmt::Display for ShardedStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shards={} live={} imbalance={:.2} [{}]",
            self.per_shard.len(),
            self.live_records(),
            self.imbalance(),
            self.per_shard
                .iter()
                .map(|s| s.live_records.to_string())
                .collect::<Vec<_>>()
                .join("/")
        )
    }
}

/// A horizontally partitioned DBFS: N independent [`Dbfs`] instances, each
/// on its own block device, behind one [`PdStore`] façade.
///
/// * **Placement** is deterministic: a subject's records live on
///   `hash(subject) % N` (the *home shard*), so `collect`, point reads and
///   subject-routed operations touch exactly one shard.
/// * **Identifiers** are globally unique by construction: shard `i` draws
///   from the strided id space `{ i, i + N, i + 2N, … }`
///   ([`IdAllocation::sharded`]), so the owning shard of any id is `id % N`
///   — no directory lookup on the point-read path.
/// * **Scans** (`query` without a subject conjunct, `count`,
///   `load_membranes`) fan out over a worker pool, one worker pinned per
///   shard, and merge the per-shard results in shard order.
/// * **Copies** are placed round-robin across shards, modelling the
///   derived-data copies (caches, processing outputs) that a real
///   deployment spreads for load.  The cross-shard lineage this creates is
///   tracked in a router-level directory, and erasure tombstones the
///   **transitive copy closure on every shard** in two phases: the closure
///   is snapshotted (and the tombstones pre-announced) under the directory
///   lock with no disk I/O, then each involved shard erases its members.
///
/// All mutations must go through the router: driving a shard's `Dbfs`
/// directly would bypass the lineage directory, exactly like writing to a
/// raw device bypasses DBFS.
pub struct ShardedDbfs<D: BlockDevice + 'static> {
    shards: Vec<Arc<Dbfs<D>>>,
    directory: Mutex<LineageDirectory>,
    pool: ShardPool<D>,
    clock: Arc<LogicalClock>,
    audit: AuditLog,
    /// Round-robin cursor for copy placement.
    next_copy: AtomicUsize,
    /// Serializes routed erasures (erase / erase_subject / purge / intent
    /// recovery).  Reads, inserts and copies are unaffected; serializing the
    /// rare erasure path keeps the pre-announce / intent / per-shard-erase /
    /// retract sequence of one request from interleaving with another's —
    /// a failed intent write can then safely retract exactly the tombstone
    /// marks it pre-announced.
    erasures: Mutex<()>,
    /// Router-level observability, set by the first
    /// [`PdStore::attach_trace`]; unset until then.
    trace: OnceLock<ShardTrace>,
}

/// Router-level trace handles: the tracer for scatter-gather spans and the
/// fan-out histogram (how many shards each routed query touched).
#[derive(Debug, Clone)]
struct ShardTrace {
    tracer: Arc<rgpdos_trace::Tracer>,
    fanout: rgpdos_trace::Hist,
}

impl<D: BlockDevice + 'static> fmt::Debug for ShardedDbfs<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedDbfs")
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl<D: BlockDevice + 'static> ShardedDbfs<D> {
    /// Formats one DBFS per device and assembles the router.
    ///
    /// # Errors
    ///
    /// Propagates inode-layer errors from any shard.
    ///
    /// # Panics
    ///
    /// Panics when `devices` is empty.
    pub fn format(devices: Vec<D>, params: DbfsParams) -> Result<Self, DbfsError> {
        Self::format_with(
            devices,
            params,
            Arc::new(LogicalClock::new()),
            AuditLog::new(),
        )
    }

    /// Formats like [`ShardedDbfs::format`], sharing a clock and audit log
    /// with the rest of the rgpdOS instance.
    ///
    /// # Errors
    ///
    /// Propagates inode-layer errors from any shard.
    ///
    /// # Panics
    ///
    /// Panics when `devices` is empty.
    pub fn format_with(
        devices: Vec<D>,
        params: DbfsParams,
        clock: Arc<LogicalClock>,
        audit: AuditLog,
    ) -> Result<Self, DbfsError> {
        assert!(!devices.is_empty(), "at least one shard device");
        let shards = devices.len();
        let instances = devices
            .into_iter()
            .enumerate()
            .map(|(i, device)| {
                Dbfs::format_with_ids(
                    device,
                    params,
                    Arc::clone(&clock),
                    // Each shard records under its own audit stream: dense
                    // per-shard sequences, Lamport-merged globally.
                    audit.for_stream(i as u32),
                    IdAllocation::sharded(i, shards),
                )
                .map(Arc::new)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self::assemble(
            instances,
            LineageDirectory::default(),
            clock,
            audit,
        ))
    }

    /// Mounts an existing sharded deployment.  The devices must be passed in
    /// their original shard order; the lineage directory is rebuilt from the
    /// per-shard indexes (membrane headers only — no payload reads).
    ///
    /// Mounting completes any **crashed two-phase erasure**: erase intents
    /// persisted by [`PdStore::erase`] / [`PdStore::erase_subject`] /
    /// [`PdStore::purge_expired`] before the crash are re-driven to
    /// completion (using an escrow rebuilt from the intent's authority key),
    /// followed by a lineage heal that erases any live record left with an
    /// erased ancestor.  Completed intents are counted in the involved
    /// shard's [`DbfsStats::recovered_txs`].
    ///
    /// # Errors
    ///
    /// Propagates per-shard mount errors.
    ///
    /// # Panics
    ///
    /// Panics when `devices` is empty.
    pub fn mount(devices: Vec<D>) -> Result<Self, DbfsError> {
        Self::mount_with(devices, Arc::new(LogicalClock::new()), AuditLog::new())
    }

    /// Mounts like [`ShardedDbfs::mount`], sharing a clock and audit log.
    ///
    /// # Errors
    ///
    /// Propagates per-shard mount errors.
    ///
    /// # Panics
    ///
    /// Panics when `devices` is empty.
    pub fn mount_with(
        devices: Vec<D>,
        clock: Arc<LogicalClock>,
        audit: AuditLog,
    ) -> Result<Self, DbfsError> {
        assert!(!devices.is_empty(), "at least one shard device");
        let shards = devices.len();
        let instances = devices
            .into_iter()
            .enumerate()
            .map(|(i, device)| {
                Dbfs::mount_with_ids(
                    device,
                    Arc::clone(&clock),
                    audit.for_stream(i as u32),
                    IdAllocation::sharded(i, shards),
                )
                .map(Arc::new)
            })
            .collect::<Result<Vec<_>, _>>()?;

        let directory =
            LineageDirectory::from_summaries(&global_summaries(&instances), |subject| {
                home_for(subject, shards)
            });
        let sharded = Self::assemble(instances, directory, clock, audit);
        sharded.recover_crashed_erasures()?;
        Ok(sharded)
    }

    fn assemble(
        shards: Vec<Arc<Dbfs<D>>>,
        directory: LineageDirectory,
        clock: Arc<LogicalClock>,
        audit: AuditLog,
    ) -> Self {
        let pool = ShardPool::new(&shards);
        Self {
            shards,
            directory: Mutex::new_named("lineage-directory", directory),
            pool,
            clock,
            audit,
            next_copy: AtomicUsize::new(0),
            erasures: Mutex::new_named("cross-shard-erasures", ()),
            trace: OnceLock::new(),
        }
    }

    // ------------------------------------------------------------------
    // Crash recovery
    // ------------------------------------------------------------------

    /// Completes erase intents left behind by a crash (see
    /// [`ShardedDbfs::mount`]).  Idempotent: a crash *during* recovery
    /// leaves the intent in place, and the next mount re-runs it.
    fn recover_crashed_erasures(&self) -> Result<(), DbfsError> {
        let _serialized = self.erasures.lock();
        let mut completed: Vec<(usize, u64)> = Vec::new();
        let mut heal_keys: BTreeSet<u64> = BTreeSet::new();
        for shard in 0..self.shards.len() {
            for (token, intent) in self.shards[shard].pending_erase_intents()? {
                if !intent.routed {
                    // Local cascade intents were already completed by the
                    // shard's own `Dbfs::mount`.
                    continue;
                }
                let public =
                    PublicKey::from_element(intent.escrow_key).map_err(|_| DbfsError::Corrupt {
                        what: "erase intent carries an invalid authority key".to_owned(),
                    })?;
                let escrow = OperatorEscrow::new(public);
                let mut confirmed: BTreeSet<PdId> = BTreeSet::new();
                for (type_name, raw) in &intent.targets {
                    let id = PdId::new(*raw);
                    let data_type = DataTypeId::from(type_name.as_str());
                    let target_shard = self.shard_of_id(id);
                    match self.shards[target_shard].load_membrane(&data_type, id) {
                        Ok(membrane) if !membrane.is_erased() => {
                            confirmed
                                .extend(self.shards[target_shard].erase(&data_type, id, &escrow)?);
                        }
                        Ok(_) => {
                            confirmed.insert(id);
                        }
                        // The target never reached the disk (its insert was
                        // lost in the same crash): nothing to erase, and it
                        // must not be marked in the directory.
                        Err(DbfsError::UnknownPd { .. }) | Err(DbfsError::UnknownType { .. }) => {}
                        Err(e) => return Err(e),
                    }
                }
                self.directory.lock().mark_erased(confirmed);
                heal_keys.insert(intent.escrow_key);
                completed.push((shard, token));
            }
        }
        // Mid-sweep crashes (retention) may have tombstoned originals
        // without reaching their cross-shard copies; one global heal per
        // *distinct authority key* after all intents covers every such
        // survivor (deployments normally have one authority, so this is one
        // pass; with several, each survivor is escrowed under a key the
        // deployment actually uses rather than whichever intent came last).
        for key in heal_keys {
            let public = PublicKey::from_element(key).map_err(|_| DbfsError::Corrupt {
                what: "erase intent carries an invalid authority key".to_owned(),
            })?;
            self.lineage_heal(&OperatorEscrow::new(public))?;
        }
        // Clear only after the heal, so a crash during recovery re-runs it.
        for (shard, token) in completed {
            self.shards[shard].clear_erase_intent(token)?;
            self.shards[shard].note_recovered_tx();
        }
        Ok(())
    }

    /// Erases every live record whose lineage chain contains an erased
    /// ancestor.  One global pass suffices: the walk inspects the *full*
    /// ancestor chain, so every transitive descendant of an erased record is
    /// caught in the same pass.
    fn lineage_heal(&self, escrow: &OperatorEscrow) -> Result<(), DbfsError> {
        let global = global_summaries(&self.shards);
        let victims: Vec<(usize, DataTypeId, PdId)> = erased_ancestor_violations(&global)
            .into_iter()
            .map(|(id, _)| {
                let (shard, summary) = &global[&id];
                (*shard, summary.data_type.clone(), id)
            })
            .collect();
        if victims.is_empty() {
            return Ok(());
        }
        let mut erased: BTreeSet<PdId> = BTreeSet::new();
        for (shard, data_type, id) in victims {
            erased.extend(self.shards[shard].erase(&data_type, id, escrow)?);
        }
        self.directory.lock().mark_erased(erased);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Placement
    // ------------------------------------------------------------------

    /// Number of shards in the deployment.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard a subject's records are collected onto.
    pub fn home_shard(&self, subject: SubjectId) -> usize {
        home_for(subject, self.shards.len())
    }

    /// The shard that allocated an identifier (computable from the strided
    /// id space, no directory lookup).
    pub fn shard_of_id(&self, id: PdId) -> usize {
        (id.raw() % self.shards.len() as u64) as usize
    }

    /// The backing shards, in shard order (read-only instrumentation access
    /// for experiments; mutations must go through the router).
    pub fn shards(&self) -> &[Arc<Dbfs<D>>] {
        &self.shards
    }

    /// Per-shard load plus merged counters (records-per-shard balance).
    pub fn sharded_stats(&self) -> ShardedStats {
        let per_shard = self.pool.scatter(|shard, dbfs| {
            let (live_records, tombstones) = dbfs.record_counts();
            ShardLoad {
                shard,
                live_records,
                tombstones,
                stats: dbfs.stats(),
            }
        });
        let totals = per_shard
            .iter()
            .map(|load| load.stats)
            .fold(DbfsStats::default(), DbfsStats::merge);
        ShardedStats { per_shard, totals }
    }

    // ------------------------------------------------------------------
    // Record lifecycle
    // ------------------------------------------------------------------

    /// Stores a wrapped record on an explicit target shard.
    ///
    /// A record with no lineage parent bound for its subject's home shard
    /// (the common case: DED-produced derived data) needs no directory
    /// registration and never touches the router lock — parallel derived
    /// inserts scale with the shard count.  A record that *does* need
    /// registration (a copy, or an off-home placement) runs its
    /// erased-lineage check, the shard insert and the registration under one
    /// directory-lock acquisition — the router-level analogue of `Dbfs`
    /// running its insert under the index lock — so an erasure can never
    /// interleave between the guard and the insert.
    fn store_routed(
        &self,
        data_type: &DataTypeId,
        wrapped: WrappedPd,
        target: usize,
    ) -> Result<PdId, DbfsError> {
        let subject = wrapped.membrane().subject();
        let parent = wrapped.membrane().copied_from();
        if parent.is_none() && target == self.home_shard(subject) {
            // Lineage-free home placement: nothing to register, no router
            // lock — the shard's own index lock is the only serialization.
            return self.shards[target].insert_wrapped(data_type, wrapped);
        }
        let mut directory = self.directory.lock();
        if !wrapped.membrane().is_erased() {
            if let Some(parent) = parent {
                // The cross-shard analogue of the per-shard erased-ancestor
                // insert guard: a copy whose lineage chain was tombstoned
                // after its plaintext was read must lose the race.
                if directory.lineage_erased(parent) {
                    return Err(DbfsError::Erased { id: parent.raw() });
                }
            }
        }
        let id = self.shards[target].insert_wrapped(data_type, wrapped)?;
        let entry = DirectoryEntry {
            data_type: data_type.clone(),
            subject,
        };
        if let Some(parent) = parent {
            directory.register_copy(parent, entry.clone(), id, entry.clone());
        }
        if target != self.home_shard(subject) {
            directory.register_foreign(subject, id, entry);
        }
        Ok(id)
    }

    /// The scatter half of every batched operation: groups `routed` items
    /// — `(input position, target shard, item)` — per shard, runs `run` on
    /// each involved shard's group concurrently on the worker pool (groups
    /// keep input order and move, not clone, their payloads), and returns
    /// one [`BatchLeg`] per involved shard in ascending shard order.
    fn scatter_batch<T, R>(
        &self,
        routed: impl IntoIterator<Item = (usize, usize, T)>,
        run: impl Fn(&Dbfs<D>, Vec<T>) -> Result<R, DbfsError> + Send + Sync + 'static,
    ) -> Vec<BatchLeg<R>>
    where
        T: Send + 'static,
        R: Send + 'static,
    {
        let mut groups: Vec<Vec<T>> = self.shards.iter().map(|_| Vec::new()).collect();
        let mut positions: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (pos, shard, item) in routed {
            groups[shard].push(item);
            positions[shard].push(pos);
        }
        let involved: Vec<usize> = (0..groups.len())
            .filter(|&shard| !groups[shard].is_empty())
            .collect();
        let groups: ShardBatches<T> = Arc::new(
            groups
                .into_iter()
                .map(|group| Mutex::new(Some(group)))
                .collect(),
        );
        let results = self.pool.scatter_on(&involved, move |shard, dbfs| {
            let batch = groups[shard]
                .lock()
                .take()
                .expect("each involved shard runs exactly once");
            run(dbfs, batch)
        });
        involved
            .into_iter()
            .zip(results)
            .map(|(shard, result)| BatchLeg {
                shard,
                positions: std::mem::take(&mut positions[shard]),
                result,
            })
            .collect()
    }

    /// Drops every shard's inode-layer buffer cache (cold-path
    /// measurements; correctness never requires it).
    pub fn drop_caches(&self) {
        for shard in &self.shards {
            shard.drop_caches();
        }
    }

    /// The tail `erase` and `erase_subject` share once their targets are
    /// snapshotted and pre-announced: persist the routed intent on
    /// `intent_shard` **before the first tombstone**, erase shard by shard
    /// in target order (`erase` lists the root first, so even an unlogged
    /// crash leaves every survivor with an erased ancestor — healable),
    /// record the tombstones in the directory, clear the intent.
    fn erase_routed(
        &self,
        intent_shard: usize,
        targets: Vec<(usize, DataTypeId, PdId)>,
        pre_announced: Vec<PdId>,
        escrow: &OperatorEscrow,
    ) -> Result<Vec<PdId>, DbfsError> {
        if targets.is_empty() {
            return Ok(Vec::new());
        }
        // If the intent write itself fails (nothing touched disk yet),
        // retract the pre-announcement — the directory must not claim
        // tombstones for an erasure that never happened.
        let intent = intent_for(&targets, escrow);
        let token = match self.shards[intent_shard].put_erase_intent(&intent) {
            Ok(token) => token,
            Err(e) => {
                self.directory.lock().retract_erased(pre_announced);
                return Err(e);
            }
        };
        let mut erased: BTreeSet<PdId> = BTreeSet::new();
        for (shard, data_type, id) in targets {
            erased.extend(self.shards[shard].erase(&data_type, id, escrow)?);
        }
        self.directory.lock().mark_erased(erased.iter().copied());
        self.shards[intent_shard].clear_erase_intent(token)?;
        Ok(erased.into_iter().collect())
    }

    /// The rounds of [`PdStore::scrub_tombstones`], run under the cross-shard
    /// erasure lock its caller holds.
    fn scrub_rounds(&self) -> Result<ScrubReport, DbfsError> {
        let mut report = ScrubReport::default();
        let mut first_scan: Option<usize> = None;
        loop {
            // Tombstones named by any shard's pending intents stay: the
            // intent may target ids on other shards, so the guard set is
            // gathered deployment-wide, not per shard.
            let mut pending: BTreeSet<PdId> = BTreeSet::new();
            for shard in &self.shards {
                for (_, intent) in shard.pending_erase_intents()? {
                    pending.extend(intent.targets.iter().map(|(_, raw)| PdId::new(*raw)));
                }
            }
            let blocked = self.directory.lock().copy_sources();
            let mut round = ScrubReport::default();
            // The shard-level scrubber classifies every closure-vetoed
            // tombstone as lineage-retained; count the vetoes that were
            // really in-flight-intent holds so the report attributes them
            // correctly.
            let pending_holds = std::sync::atomic::AtomicUsize::new(0);
            for shard in &self.shards {
                round.merge(shard.scrub_tombstones_with(|id| {
                    if pending.contains(&id) {
                        pending_holds.fetch_add(1, Ordering::Relaxed);
                        return false;
                    }
                    !blocked.contains(&id)
                })?);
            }
            if first_scan.is_none() {
                first_scan = Some(round.scanned_tombstones);
            }
            let pending_holds = pending_holds.into_inner();
            report.retained_intent = round.retained_intent + pending_holds;
            report.retained_lineage = round.retained_lineage.saturating_sub(pending_holds);
            if round.reclaimed.is_empty() {
                break;
            }
            self.directory
                .lock()
                .forget(round.reclaimed.iter().copied());
            report.bytes_reclaimed += round.bytes_reclaimed;
            report.reclaimed.extend(round.reclaimed);
        }
        report.scanned_tombstones = first_scan.unwrap_or(0);
        Ok(report)
    }

    /// Total tombstones reclaimed by scrub passes since mount, summed over
    /// the shards.
    pub fn tombstones_reclaimed(&self) -> u64 {
        self.shards
            .iter()
            .map(|shard| shard.tombstones_reclaimed())
            .sum()
    }
}

/// The store operations.  [`PdStore`]'s own documentation is the contract;
/// a method is documented here only for what the router adds — where the
/// operation is routed, what it scatters, and how a cross-shard erasure
/// survives a crash.
impl<D: BlockDevice + 'static> PdStore for ShardedDbfs<D> {
    fn clock(&self) -> Arc<LogicalClock> {
        Arc::clone(&self.clock)
    }

    fn audit(&self) -> AuditLog {
        self.audit.clone()
    }

    fn stats(&self) -> DbfsStats {
        self.shards
            .iter()
            .map(|shard| shard.stats())
            .fold(DbfsStats::default(), DbfsStats::merge)
    }

    /// Every shard registers its counters and latency histograms under a
    /// `shard="i"` label, per-shard balance is exported as derived gauges
    /// (`shard_live_records` / `shard_tombstones`, read at snapshot time),
    /// and the router itself records scatter-gather spans plus a
    /// `shard_query_fanout` histogram of how many shards each query
    /// touched.
    fn attach_trace(&self, ctx: &rgpdos_trace::TraceCtx) {
        for (i, shard) in self.shards.iter().enumerate() {
            let index = i.to_string();
            shard.attach_trace_as(ctx, &[("shard", &index)]);
            let live = Arc::clone(shard);
            ctx.registry
                .gauge_fn("shard_live_records", &[("shard", &index)], move || {
                    i64::try_from(live.record_counts().0).unwrap_or(i64::MAX)
                });
            let dead = Arc::clone(shard);
            ctx.registry
                .gauge_fn("shard_tombstones", &[("shard", &index)], move || {
                    i64::try_from(dead.record_counts().1).unwrap_or(i64::MAX)
                });
        }
        ctx.registry
            .gauge("shard_count")
            .set(i64::try_from(self.shards.len()).unwrap_or(i64::MAX));
        let _ = self.trace.set(ShardTrace {
            tracer: Arc::clone(&ctx.tracer),
            fanout: ctx.registry.histogram("shard_query_fanout"),
        });
    }

    /// Broadcast shard by shard (shards stay schema-identical).  A
    /// broadcast that a failure or a crash cut short is resumed by calling
    /// again: a shard already holding the identical schema is skipped, and
    /// [`DbfsError::TypeAlreadyExists`] is returned only when every shard
    /// held it — or when one holds a different schema under the name.
    fn create_type(&self, schema: DataTypeSchema) -> Result<(), DbfsError> {
        let mut installed = false;
        for shard in &self.shards {
            match shard.create_type(schema.clone()) {
                Ok(()) => installed = true,
                Err(DbfsError::TypeAlreadyExists { .. })
                    if shard.schema(schema.name())? == schema => {}
                Err(e) => return Err(e),
            }
        }
        if installed {
            Ok(())
        } else {
            Err(DbfsError::TypeAlreadyExists {
                name: schema.name().to_string(),
            })
        }
    }

    /// Answered by shard 0.
    fn schema(&self, name: &DataTypeId) -> Result<DataTypeSchema, DbfsError> {
        self.shards[0].schema(name)
    }

    /// Answered by shard 0.
    fn types(&self) -> Vec<DataTypeId> {
        self.shards[0].types()
    }

    /// Summed over a scatter across every shard.
    fn count(&self, name: &DataTypeId) -> Result<usize, DbfsError> {
        let name = name.clone();
        let counts = gather_scatter(
            0..self.shards.len(),
            self.pool.scatter(move |_, dbfs| dbfs.count(&name)),
        )?;
        Ok(counts.into_iter().sum())
    }

    /// Routed to the subject's home shard.
    fn collect(
        &self,
        data_type: &DataTypeId,
        subject: SubjectId,
        row: Row,
    ) -> Result<PdId, DbfsError> {
        self.shards[self.home_shard(subject)].collect(data_type, subject, row)
    }

    /// Stored on the subject's home shard, registering any lineage the
    /// membrane carries in the directory.
    fn insert_wrapped(
        &self,
        data_type: &DataTypeId,
        wrapped: WrappedPd,
    ) -> Result<PdId, DbfsError> {
        let target = self.home_shard(wrapped.membrane().subject());
        self.store_routed(data_type, wrapped, target)
    }

    /// The rows are grouped by home shard and every involved shard ingests
    /// its group under its own journal group commit — the scatter-write
    /// analogue of the scatter-gather read path.  The groups run
    /// concurrently on the worker pool: each shard appends to its own audit
    /// stream with a dense per-shard sequence, and the streams merge by
    /// Lamport stamp, so the crash-matrix's audit-prefix invariant holds
    /// per stream without serializing the shards.
    ///
    /// The lowest failing shard's error is reported.  On error, each shard
    /// has applied a clean prefix of its own group (per-record atomicity
    /// holds everywhere); rows routed to other shards may or may not have
    /// been applied.
    fn collect_many(
        &self,
        data_type: &DataTypeId,
        rows: Vec<(SubjectId, Row)>,
    ) -> Result<Vec<PdId>, DbfsError> {
        let name = data_type.clone();
        let mut ids: Vec<Option<PdId>> = vec![None; rows.len()];
        let routed = rows
            .into_iter()
            .enumerate()
            .map(|(pos, row)| (pos, self.home_shard(row.0), row));
        let legs = self.scatter_batch(routed, move |dbfs, batch| dbfs.collect_many(&name, batch));
        // Ascending shard order: `?` reports the lowest failing shard.
        for leg in legs {
            place(&mut ids, leg.positions, leg.result?);
        }
        Ok(ids
            .into_iter()
            .map(|id| id.expect("every row was routed to exactly one shard"))
            .collect())
    }

    /// Lineage-free records are batch-routed to their home shards (group
    /// commit per shard, groups run concurrently on the worker pool);
    /// records carrying lineage go through the directory-registering
    /// single-record path.  Partial application on error follows
    /// `collect_many`.
    fn insert_many(&self, items: Vec<(DataTypeId, WrappedPd)>) -> Result<Vec<PdId>, DbfsError> {
        let mut ids: Vec<Option<PdId>> = vec![None; items.len()];
        let mut plain: Vec<(usize, usize, (DataTypeId, WrappedPd))> = Vec::new();
        let mut with_lineage: Vec<(usize, DataTypeId, WrappedPd)> = Vec::new();
        for (pos, (data_type, wrapped)) in items.into_iter().enumerate() {
            if wrapped.membrane().copied_from().is_none() {
                let target = self.home_shard(wrapped.membrane().subject());
                plain.push((pos, target, (data_type, wrapped)));
            } else {
                with_lineage.push((pos, data_type, wrapped));
            }
        }
        let legs = self.scatter_batch(plain, |dbfs, batch| dbfs.insert_many(batch));
        // Ascending shard order: `?` reports the lowest failing shard.
        for leg in legs {
            place(&mut ids, leg.positions, leg.result?);
        }
        for (pos, data_type, wrapped) in with_lineage {
            let target = self.home_shard(wrapped.membrane().subject());
            ids[pos] = Some(self.store_routed(&data_type, wrapped, target)?);
        }
        Ok(ids
            .into_iter()
            .map(|id| id.expect("every item was routed"))
            .collect())
    }

    /// Updates are grouped by owning shard (computable from the strided id
    /// space) and each shard applies its group under journal group commit,
    /// the groups running concurrently on the worker pool.  Partial
    /// application on error follows `collect_many`.
    fn update_rows(
        &self,
        data_type: &DataTypeId,
        updates: Vec<(PdId, Row)>,
    ) -> Result<(), DbfsError> {
        let name = data_type.clone();
        let routed = updates
            .into_iter()
            .enumerate()
            .map(|(pos, update)| (pos, self.shard_of_id(update.0), update));
        let legs = self.scatter_batch(routed, move |dbfs, batch| dbfs.update_rows(&name, batch));
        for leg in legs {
            leg.result?;
        }
        Ok(())
    }

    /// Routed by id.
    fn get(&self, data_type: &DataTypeId, id: PdId) -> Result<PdRecord, DbfsError> {
        self.shards[self.shard_of_id(id)].get(data_type, id)
    }

    /// A scatter-gather over every shard, merged in shard order;
    /// [`DbfsError::PartialScatter`] when any shard fails (wrapping, for
    /// example, [`DbfsError::UnknownType`]): merging only the shards that
    /// answered would pass off a partial membrane set as the whole table.
    fn load_membranes(&self, data_type: &DataTypeId) -> Result<Vec<(PdId, Membrane)>, DbfsError> {
        let name = data_type.clone();
        let per_shard = gather_scatter(
            0..self.shards.len(),
            self.pool.scatter(move |_, dbfs| dbfs.load_membranes(&name)),
        )?;
        Ok(per_shard.into_iter().flatten().collect())
    }

    /// The home shard answers from its subject index, plus the directory's
    /// foreign placements of that subject — `O(home shard + lineage)`,
    /// never a fan-out.
    fn load_membranes_for_subject(
        &self,
        data_type: &DataTypeId,
        subject: SubjectId,
    ) -> Result<Vec<(PdId, Membrane)>, DbfsError> {
        let mut out =
            self.shards[self.home_shard(subject)].load_membranes_for_subject(data_type, subject)?;
        let foreign: Vec<PdId> = {
            let directory = self.directory.lock();
            directory
                .foreign_of(subject)
                .into_iter()
                .filter(|id| {
                    directory
                        .entry(*id)
                        .is_some_and(|entry| &entry.data_type == data_type)
                })
                .collect()
        };
        for id in foreign {
            out.push((id, self.load_membrane(data_type, id)?));
        }
        Ok(out)
    }

    /// Routed by id.
    fn load_membrane(&self, data_type: &DataTypeId, id: PdId) -> Result<Membrane, DbfsError> {
        self.shards[self.shard_of_id(id)].load_membrane(data_type, id)
    }

    /// Grouped per shard and fetched through the worker pool;
    /// [`DbfsError::PartialScatter`] when a shard fails outright.
    fn load_records(&self, data_type: &DataTypeId, ids: &[PdId]) -> Result<RecordBatch, DbfsError> {
        let name = data_type.clone();
        let routed = ids
            .iter()
            .enumerate()
            .map(|(pos, &id)| (pos, self.shard_of_id(id), id));
        let legs = self.scatter_batch(routed, move |dbfs, batch| {
            dbfs.load_records(&name, &batch)
                .map(RecordBatch::into_records)
        });
        let mut records: Vec<Option<PdRecord>> = vec![None; ids.len()];
        let shards: Vec<usize> = legs.iter().map(|leg| leg.shard).collect();
        let results = legs
            .into_iter()
            .map(|leg| leg.result.map(|found| (leg.positions, found)))
            .collect();
        for (positions, found) in gather_scatter(shards, results)? {
            place(&mut records, positions, found);
        }
        Ok(records
            .into_iter()
            .map(|record| record.expect("every id was routed to exactly one shard"))
            .collect())
    }

    /// Routed by id.
    fn update_row(&self, data_type: &DataTypeId, id: PdId, row: Row) -> Result<(), DbfsError> {
        self.shards[self.shard_of_id(id)].update_row(data_type, id, row)
    }

    /// Routed by id.
    fn apply_membrane_delta(
        &self,
        data_type: &DataTypeId,
        id: PdId,
        delta: &MembraneDelta,
    ) -> Result<bool, DbfsError> {
        self.shards[self.shard_of_id(id)].apply_membrane_delta(data_type, id, delta)
    }

    /// The source is read on its own shard; the copy is placed
    /// **round-robin** across the deployment (derived-data load balancing),
    /// so a copy routinely lands on a different shard than its source — the
    /// case the lineage directory exists for.  A source whose erasure wins
    /// the race against this copy is [`DbfsError::Erased`].
    fn copy(&self, data_type: &DataTypeId, id: PdId) -> Result<PdId, DbfsError> {
        let record = self.get(data_type, id)?;
        if record.membrane().is_erased() {
            return Err(DbfsError::Erased { id: id.raw() });
        }
        let wrapped = WrappedPd::new(record.row().clone(), record.membrane().for_copy(id));
        let target = self.next_copy.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        self.store_routed(data_type, wrapped, target)
    }

    /// Tombstones the record *and* the **transitive copy closure on every
    /// shard**.  The erasure is two-phase and crash-durable:
    ///
    /// 1. the closure is snapshotted and pre-announced as tombstoned under
    ///    the directory lock (pure metadata, no disk I/O), so a copy racing
    ///    the erasure is refused from here on;
    /// 2. the full target list is persisted as an [`EraseIntent`] on the
    ///    root's shard **before any tombstone is written**, then each
    ///    involved shard performs its crypto-erasures (each shard's cascade
    ///    is one batch through its write pipeline) and the intent is cleared.
    ///
    /// A crash before the intent write leaves the deployment untouched (a
    /// clean abort); a crash after it is **completed** at the next
    /// [`ShardedDbfs::mount`], so no copy ever outlives its erased original
    /// across a power loss.
    fn erase(
        &self,
        data_type: &DataTypeId,
        id: PdId,
        escrow: &OperatorEscrow,
    ) -> Result<Vec<PdId>, DbfsError> {
        let _serialized = self.erasures.lock();
        let root_shard = self.shard_of_id(id);
        // Validate the id (and learn whether the root is already a
        // tombstone) without mutating anything.
        let root_erased = self.shards[root_shard]
            .load_membrane(data_type, id)?
            .is_erased();
        // Phase 1: snapshot the directory closure and pre-announce the
        // tombstones.  No disk I/O under the directory lock.
        let (targets, pre_announced): (Vec<(usize, DataTypeId, PdId)>, Vec<PdId>) = {
            let mut directory = self.directory.lock();
            let members = directory.closure([id]);
            let pre_announced =
                directory.mark_erased_returning_new(members.iter().copied().chain([id]));
            let mut targets = Vec::with_capacity(members.len() + 1);
            if !root_erased {
                targets.push((root_shard, data_type.clone(), id));
            }
            targets.extend(members.into_iter().map(|member| {
                let member_type = directory
                    .entry(member)
                    .map(|entry| entry.data_type.clone())
                    .unwrap_or_else(|| data_type.clone());
                (self.shard_of_id(member), member_type, member)
            }));
            (targets, pre_announced)
        };
        // Phase 2: intent on the root's shard, then the erasures.
        self.erase_routed(root_shard, targets, pre_announced, escrow)
    }

    /// The subject's home-shard records and foreign placements are
    /// snapshotted together with their transitive copy closure under the
    /// directory lock, the target list is persisted as an [`EraseIntent`]
    /// on the subject's home shard, then every involved shard erases its
    /// members and the intent is cleared.  A crash mid-erasure is completed
    /// at the next mount — the request never stays half-applied.
    fn erase_subject(
        &self,
        subject: SubjectId,
        escrow: &OperatorEscrow,
    ) -> Result<Vec<PdId>, DbfsError> {
        let _serialized = self.erasures.lock();
        // The subject's own records, from the home shard's in-memory index.
        let home_ids = self.shards[self.home_shard(subject)].ids_of_subject(subject);
        // Phase 1: roots = home records + foreign placements; closure-expand
        // through the directory and pre-announce the tombstones.
        let (targets, pre_announced) = {
            let mut directory = self.directory.lock();
            let mut targets: Vec<(usize, DataTypeId, PdId)> = Vec::new();
            let mut seen: BTreeSet<PdId> = BTreeSet::new();
            for (data_type, id) in home_ids {
                if seen.insert(id) {
                    targets.push((self.shard_of_id(id), data_type, id));
                }
            }
            for id in directory.foreign_of(subject) {
                if !directory.is_erased(id) && seen.insert(id) {
                    let data_type = directory
                        .entry(id)
                        .expect("foreign placements carry a directory entry")
                        .data_type
                        .clone();
                    targets.push((self.shard_of_id(id), data_type, id));
                }
            }
            for member in directory.closure(seen.iter().copied()) {
                if seen.insert(member) {
                    if let Some(entry) = directory.entry(member) {
                        targets.push((self.shard_of_id(member), entry.data_type.clone(), member));
                    }
                }
            }
            let pre_announced = directory.mark_erased_returning_new(seen);
            (targets, pre_announced)
        };
        // Phase 2: intent on the subject's home shard, then the erasures.
        self.erase_routed(self.home_shard(subject), targets, pre_announced, escrow)
    }

    /// Every shard purges its own expiry index, then the directory
    /// propagates the erasure to cross-shard copies whose retention
    /// diverged from their expired original (a copy must never outlive its
    /// lineage).
    ///
    /// The sweep's exact target set is only known mid-sweep, so the durable
    /// intent written up front carries no targets — just the authority key.
    /// If a crash interrupts the sweep between a shard purge and the
    /// cross-shard propagation, the next mount finds the intent and runs the
    /// **lineage heal**: any live record with an erased ancestor is erased.
    fn purge_expired(&self, escrow: &OperatorEscrow) -> Result<Vec<PdId>, DbfsError> {
        let _serialized = self.erasures.lock();
        let now = self.clock.now();
        if !self
            .shards
            .iter()
            .any(|shard| shard.has_expired_candidates(now))
        {
            return Ok(Vec::new());
        }
        let token = self.shards[0].put_erase_intent(&EraseIntent {
            targets: Vec::new(),
            escrow_key: escrow.public_key().element(),
            routed: true,
        })?;
        let mut expired: Vec<PdId> = Vec::new();
        for shard in &self.shards {
            expired.extend(shard.purge_expired(escrow)?);
        }
        let targets: Vec<(usize, DataTypeId, PdId)> = {
            let mut directory = self.directory.lock();
            let members = directory.closure(expired.iter().copied());
            let targets = members
                .iter()
                .filter(|member| !directory.is_erased(**member))
                .filter_map(|&member| {
                    directory
                        .entry(member)
                        .map(|entry| (self.shard_of_id(member), entry.data_type.clone(), member))
                })
                .collect();
            directory.mark_erased(expired.iter().copied());
            directory.mark_erased(members.iter().copied());
            targets
        };
        for (shard, data_type, id) in targets {
            expired.extend(self.shards[shard].erase(&data_type, id, escrow)?);
        }
        self.shards[0].clear_erase_intent(token)?;
        Ok(expired)
    }

    /// The home shard's subject index plus the directory's foreign
    /// placements — `O(home shard + lineage)`.
    fn records_of_subject(&self, subject: SubjectId) -> Result<Vec<PdRecord>, DbfsError> {
        let mut out = self.shards[self.home_shard(subject)].records_of_subject(subject)?;
        let foreign: Vec<(PdId, DataTypeId)> = {
            let directory = self.directory.lock();
            directory
                .foreign_of(subject)
                .into_iter()
                .filter(|id| !directory.is_erased(*id))
                .filter_map(|id| {
                    directory
                        .entry(id)
                        .map(|entry| (id, entry.data_type.clone()))
                })
                .collect()
        };
        for (id, data_type) in foreign {
            let record = self.get(&data_type, id)?;
            if !record.membrane().is_erased() {
                out.push(record);
            }
        }
        Ok(out)
    }

    /// A query whose predicate pins an id list is routed to the shards
    /// owning those ids (computable from the strided id space); one that
    /// pins one or more subjects is routed to the home shards of those
    /// subjects (plus the shards holding their foreign records); anything
    /// else scatter-gathers across every shard and merges in shard order.
    /// [`DbfsError::PartialScatter`] when any involved shard fails
    /// (wrapping [`DbfsError::UnknownType`] or [`DbfsError::Core`]): a
    /// merge of the surviving legs would be a silently incomplete answer.
    fn query(&self, request: &QueryRequest) -> Result<RecordBatch, DbfsError> {
        let pinned = request.predicate.pinned_subjects();
        let involved: Vec<usize> = if let Some(ids) = request.predicate.pinned_ids() {
            let mut involved: Vec<usize> = ids.iter().map(|&id| self.shard_of_id(id)).collect();
            involved.sort_unstable();
            involved.dedup();
            involved
        } else if pinned.is_empty() {
            (0..self.shards.len()).collect()
        } else {
            let mut involved: Vec<usize> = pinned.iter().map(|&s| self.home_shard(s)).collect();
            let directory = self.directory.lock();
            for &subject in &pinned {
                for id in directory.foreign_of(subject) {
                    involved.push(self.shard_of_id(id));
                }
            }
            involved.sort_unstable();
            involved.dedup();
            involved
        };
        let trace = self.trace.get();
        let scatter_span = trace.map(|t| t.tracer.span("shard_query_scatter"));
        if let Some(t) = trace {
            t.fanout.record(involved.len() as u64);
        }
        // Pool workers run on their own threads, so the per-leg spans name
        // the scatter span as parent explicitly rather than relying on the
        // tracer's per-thread nesting stack.
        let parent = scatter_span.as_ref().map(rgpdos_trace::SpanGuard::id);
        let legs = trace.cloned();
        let request = Arc::new(request.clone());
        let results = self.pool.scatter_on(&involved, move |_, dbfs| {
            let leg = legs
                .as_ref()
                .map(|t| t.tracer.span_with_parent("shard_query_leg", parent));
            let result = dbfs.query(&request);
            drop(leg);
            result
        });
        let mut batch = RecordBatch::new();
        for shard_batch in gather_scatter(involved.iter().copied(), results)? {
            for record in shard_batch.into_records() {
                batch.push(record);
            }
        }
        drop(scatter_span);
        Ok(batch)
    }

    /// Verifies every shard's own index invariants (in parallel), then the
    /// router-level invariants: globally unique strided ids, every lineage
    /// edge present in the directory (and vice versa), every off-home
    /// placement registered, tombstone agreement between the directory and
    /// the shards, and the GDPR core property — **no live record anywhere in
    /// the deployment has an erased lineage ancestor**.
    ///
    /// Expects a quiescent deployment.
    fn verify_index_invariants(&self) -> Result<(), DbfsError> {
        for result in self.pool.scatter(|_, dbfs| dbfs.verify_index_invariants()) {
            result?;
        }
        let violation = |what: String| DbfsError::Corrupt { what };
        let global = global_summaries(&self.shards);
        for (id, (shard, _)) in &global {
            if self.shard_of_id(*id) != *shard {
                return Err(violation(format!("{id} allocated off its strided shard")));
            }
        }
        // An id held by two shards is one entry of the map.
        let counts = self.shards.iter().map(|shard| shard.record_counts());
        let held: usize = counts.map(|(live, tombstones)| live + tombstones).sum();
        if held != global.len() {
            return Err(violation(format!(
                "an id exists on two shards ({held} records, {} ids)",
                global.len()
            )));
        }
        // The live directory is what the shards' summaries derive.
        let rebuilt = LineageDirectory::from_summaries(&global, |s| self.home_shard(s));
        if let Some(difference) = self.directory.lock().first_difference(&rebuilt) {
            return Err(violation(difference));
        }
        // The GDPR invariant: no live record has an erased lineage ancestor.
        if let Some((id, ancestor)) = erased_ancestor_violations(&global).into_iter().next() {
            return Err(violation(format!(
                "live {id} outlives its erased ancestor {ancestor}"
            )));
        }
        Ok(())
    }

    /// Router-level scrub pass: reclaims every shard's durable tombstones,
    /// honouring the cross-shard protocol state.  A tombstone survives the
    /// pass while **any** shard holds a pending [`EraseIntent`] naming it
    /// (the routed erasure may still be completing elsewhere) or while the
    /// lineage directory records surviving copies of it (per-shard
    /// reverse-lineage indexes rebuilt from disk must never dangle).
    ///
    /// Runs under the cross-shard erasure lock, in rounds: reclaiming a
    /// leaf copy on one shard unblocks its original on another, so the pass
    /// iterates until no shard makes progress — erased copy chains vanish
    /// whole, children first, exactly like the per-shard fixpoint.  After
    /// each round the reclaimed ids are forgotten by the directory.  When a
    /// round fails, what it reclaimed before the error — on the earlier
    /// shards, and on the failing one — is on no report, so the directory
    /// is instead derived afresh from the shards, as a mount would (which
    /// is also why a crash between a reclaim and the forget is benign).
    ///
    /// The returned report accumulates reclaims across rounds; the
    /// `retained_*` counters describe what the *final* round left behind.
    fn scrub_tombstones(&self) -> Result<ScrubReport, DbfsError> {
        let _serialized = self.erasures.lock();
        self.scrub_rounds().inspect_err(|_| {
            let mut directory = self.directory.lock();
            let global = global_summaries(&self.shards);
            *directory = LineageDirectory::from_summaries(&global, |s| self.home_shard(s));
        })
    }

    /// Records, bytes and allocated blocks summed across every shard (see
    /// [`SpaceStats::amplification`]).
    fn space_stats(&self) -> Result<SpaceStats, DbfsError> {
        let mut stats = SpaceStats::default();
        for result in self.pool.scatter(|_, dbfs| dbfs.space_stats()) {
            stats.merge(&result?);
        }
        Ok(stats)
    }
}
