//! [`ShardedDbfs`]: N independent DBFS instances behind a deterministic
//! subject-hash placement map and a scatter-gather router that answers
//! cross-shard lineage questions from the shards' own indexes.

use crate::pool::ShardPool;
use parking_lot::Mutex;
use rgpdos_blockdev::BlockDevice;
use rgpdos_core::{
    AuditLog, DataTypeId, DataTypeSchema, LogicalClock, Membrane, MembraneDelta, PdId, PdRecord,
    RecordBatch, Row, SubjectId, WrappedPd,
};
use rgpdos_crypto::escrow::OperatorEscrow;
use rgpdos_dbfs::{
    erased_ancestor, Dbfs, DbfsError, DbfsParams, DbfsStats, EraseIntent, IdAllocation, PdStore,
    QueryRequest, RecordSummary, ScrubReport, SpaceStats,
};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Per-shard batch slots handed to the scatter's legs: each involved shard
/// `take()`s its slot exactly once, so row payloads move instead of clone.
type ShardBatches<T> = Arc<Vec<Mutex<Option<Vec<T>>>>>;

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

/// Folds the per-shard results of a scatter over two or more shards,
/// surfacing any failure as [`DbfsError::PartialScatter`] instead of
/// silently merging the shards that did answer (which would present an
/// undercount or a partial membrane set as a complete result).  `shards`
/// pairs each result with the shard that produced it; the lowest failing
/// shard is reported and `completed` counts every shard that succeeded.
fn gather_scatter<T>(
    shards: &[usize],
    results: Vec<Result<T, DbfsError>>,
) -> Result<Vec<T>, DbfsError> {
    let mut ok = Vec::with_capacity(results.len());
    let mut failed: Option<(usize, DbfsError)> = None;
    for (&shard, result) in shards.iter().zip(results) {
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

/// Every record of the deployment by id, with the shard that holds it.
type GlobalSummaries = BTreeMap<PdId, (usize, RecordSummary)>;

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
///   — no lookup on the point-read path.
/// * **Scans** (`query` without a subject conjunct, `count`,
///   `load_membranes`) fan out over a worker pool, one worker pinned per
///   shard, and merge the per-shard results in shard order.  Every fan-out
///   — reads and batched writes — goes through one entry point, and one
///   that lands on a single shard runs on the caller's thread instead.
/// * **Copies** are placed round-robin across shards, modelling the
///   derived-data copies (caches, processing outputs) that a real
///   deployment spreads for load.  A copy names its original in its
///   membrane, so the shard holding it files the lineage edge in its own
///   reverse-lineage index; the router walks those indexes, on every
///   shard, for a copy closure and reads placements and tombstones off the
///   shards' snapshots — it keeps no copy of either.  Erasure tombstones the
///   **transitive copy closure on every shard**: the closure is snapshotted
///   and announced under the router's announcement lock, then each involved
///   shard erases its members as its own cascade ([`Dbfs::erase_ids`]).  A
///   closure on one shard is that shard's cascade alone; only one spanning
///   shards is two-phase, behind a routed [`EraseIntent`].  A one-shard
///   router therefore writes exactly what a [`Dbfs`] writes.
///
/// All mutations must go through the router: driving a shard's `Dbfs`
/// directly would bypass the copy guard and the cross-shard erasure, exactly
/// like writing to a raw device bypasses DBFS.
pub struct ShardedDbfs<D: BlockDevice + 'static> {
    shards: Vec<Arc<Dbfs<D>>>,
    /// The ids a routed erasure has announced: its roots and copy closure,
    /// inserted under this lock with the closure walk that found them,
    /// before the first write.  The erasure withdraws the ones it inserted
    /// once its last tombstone is published, or when its routed intent
    /// write fails; a failed shard cascade leaves them, and the next mount
    /// completes the erasure.  The only lineage state the router keeps, and
    /// it guards lineage-carrying inserts and nothing else: targets and
    /// reads come from the shards.
    announced: Mutex<BTreeSet<PdId>>,
    pool: ShardPool<D>,
    clock: Arc<LogicalClock>,
    audit: AuditLog,
    /// Round-robin cursor for copy placement.
    next_copy: AtomicUsize,
    /// Serializes routed erasures (erase / erase_subject / purge / intent
    /// recovery) and scrub passes.  Reads, inserts and copies are
    /// unaffected; serializing the rare erasure path keeps the announce /
    /// intent / per-shard-cascade / withdraw sequence of one request from
    /// interleaving with another's.
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
        Ok(Self::assemble(instances, clock, audit))
    }

    /// Mounts an existing sharded deployment.  The devices must be passed in
    /// their original shard order.  Each shard mounts its own index, and the
    /// router builds nothing from them: every lineage and placement question
    /// is answered off the shards' indexes when it is asked.
    ///
    /// Mounting completes any **crashed cross-shard erasure**: each shard's
    /// own mount completes its local cascade intents, then routed intents
    /// persisted by [`PdStore::erase`] / [`PdStore::erase_subject`] /
    /// [`PdStore::purge_expired`] before the crash are re-driven to
    /// completion — their targets grouped per shard, each group that
    /// shard's cascade, with an escrow rebuilt from the intent's authority
    /// key — followed by a lineage heal that erases, the same way, any live
    /// record left with an erased ancestor.  Completed intents are counted
    /// in the involved shard's [`DbfsStats::recovered_txs`].
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
        let sharded = Self::assemble(instances, clock, audit);
        sharded.recover_crashed_erasures()?;
        Ok(sharded)
    }

    fn assemble(shards: Vec<Arc<Dbfs<D>>>, clock: Arc<LogicalClock>, audit: AuditLog) -> Self {
        let pool = ShardPool::new(&shards);
        Self {
            shards,
            announced: Mutex::new_named("erasure-announcements", BTreeSet::new()),
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
        let mut heal_escrows: BTreeMap<u64, OperatorEscrow> = BTreeMap::new();
        for (shard, dbfs) in self.shards.iter().enumerate() {
            // Local cascade intents were already completed by the shard's
            // own `Dbfs::mount`.
            let routed = dbfs.pending_erase_intents()?.into_iter();
            for (token, intent) in routed.filter(|(_, intent)| intent.routed) {
                let escrow = intent.escrow()?;
                self.erase_per_shard(shard, intent.ids(), &escrow)?;
                heal_escrows.entry(intent.escrow_key).or_insert(escrow);
                completed.push((shard, token));
            }
        }
        // Mid-sweep crashes (retention) may have tombstoned originals
        // without reaching their cross-shard copies; one global heal per
        // *distinct authority key* after all intents covers every such
        // survivor (deployments normally have one authority, so this is one
        // pass; with several, each survivor is escrowed under a key the
        // deployment actually uses rather than whichever intent came last).
        for escrow in heal_escrows.values() {
            self.lineage_heal(escrow)?;
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
        let victims = erased_ancestor_violations(&global).into_iter();
        self.erase_per_shard(0, victims.map(|(id, _)| id), escrow)?;
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
    /// id space, no lookup).
    pub fn shard_of_id(&self, id: PdId) -> usize {
        (id.raw() % self.shards.len() as u64) as usize
    }

    /// The backing shards, in shard order (read-only instrumentation access
    /// for experiments; mutations must go through the router).
    pub fn shards(&self) -> &[Arc<Dbfs<D>>] {
        &self.shards
    }

    /// Per-shard load plus merged counters (records-per-shard balance),
    /// read off each shard's published snapshot and counters in place.
    pub fn sharded_stats(&self) -> ShardedStats {
        let per_shard: Vec<ShardLoad> = self
            .shards
            .iter()
            .enumerate()
            .map(|(shard, dbfs)| {
                let (live_records, tombstones) = dbfs.record_counts();
                ShardLoad {
                    shard,
                    live_records,
                    tombstones,
                    stats: dbfs.stats(),
                }
            })
            .collect();
        let totals = per_shard
            .iter()
            .map(|load| load.stats)
            .fold(DbfsStats::default(), DbfsStats::merge);
        ShardedStats { per_shard, totals }
    }

    // ------------------------------------------------------------------
    // Lineage and placement, off the shards' indexes
    // ------------------------------------------------------------------

    /// The index summary of `id`, off its owning shard's snapshot.
    fn summary(&self, id: PdId) -> Option<RecordSummary> {
        self.shards[self.shard_of_id(id)].summary(id)
    }

    /// The transitive copy closure of `roots` (descendants only, the roots
    /// themselves excluded), walked over every shard's reverse-lineage
    /// index, since a copy may live on any shard.  Each id's direct copies
    /// are visited in id order.
    fn closure(&self, roots: impl IntoIterator<Item = PdId>) -> Vec<PdId> {
        let mut stack: Vec<PdId> = roots.into_iter().collect();
        let mut seen: BTreeSet<PdId> = stack.iter().copied().collect();
        let mut out = Vec::new();
        while let Some(current) = stack.pop() {
            let mut copies: Vec<PdId> = self
                .shards
                .iter()
                .flat_map(|shard| shard.copies_of(current))
                .collect();
            copies.sort_unstable();
            for copy in copies {
                if seen.insert(copy) {
                    stack.push(copy);
                    out.push(copy);
                }
            }
        }
        out
    }

    /// A subject's records held off its home shard (copies placed
    /// elsewhere), live and tombstoned, in id order.
    fn foreign_of(&self, subject: SubjectId) -> Vec<RecordSummary> {
        let home = self.home_shard(subject);
        let others = self.shards.iter().enumerate().filter(|&(i, _)| i != home);
        let mut foreign: Vec<RecordSummary> = others
            .flat_map(|(_, shard)| shard.subject_summaries(subject))
            .collect();
        foreign.sort_unstable_by_key(|summary| summary.id);
        foreign
    }

    /// Withdraws announcements an erasure made (see `announced`).
    fn withdraw(&self, ids: &[PdId]) {
        let mut announced = self.announced.lock();
        for id in ids {
            announced.remove(id);
        }
    }

    // ------------------------------------------------------------------
    // Record lifecycle
    // ------------------------------------------------------------------

    /// Stores a wrapped record on an explicit target shard.
    ///
    /// A record with no lineage parent (the common case: DED-produced
    /// derived data) never touches the router lock — parallel derived
    /// inserts scale with the shard count.  A copy runs its erased-lineage
    /// check and the shard insert under one hold of the announcement lock —
    /// the router-level analogue of `Dbfs` running its insert under the
    /// index lock — so an erasure's closure walk either finds the copy or
    /// has announced the target before the check runs.
    fn store_routed(
        &self,
        data_type: &DataTypeId,
        wrapped: WrappedPd,
        target: usize,
    ) -> Result<PdId, DbfsError> {
        let Some(parent) = wrapped.membrane().copied_from() else {
            return self.shards[target].insert_wrapped(data_type, wrapped);
        };
        let announced = self.announced.lock();
        if !wrapped.membrane().is_erased() {
            // The cross-shard analogue of the per-shard erased-ancestor
            // insert guard: a copy whose lineage chain was tombstoned, or is
            // announced for erasure, after its plaintext was read must lose
            // the race.
            let lookup = |id| {
                let summary = self.summary(id)?;
                Some((
                    summary.erased || announced.contains(&id),
                    summary.copied_from,
                ))
            };
            if erased_ancestor(Some(parent), lookup).is_some() {
                return Err(DbfsError::Erased { id: parent.raw() });
            }
        }
        self.shards[target].insert_wrapped(data_type, wrapped)
    }

    /// Every shard, in shard order: the shards a scan scatters over.
    fn every_shard(&self) -> Vec<usize> {
        (0..self.shards.len()).collect()
    }

    /// The router's one fan-out: runs `job` on each of `shards` (ascending,
    /// distinct) and returns the answers in that order.  Over exactly one
    /// shard, `job` runs on the caller's thread and that shard's answer is
    /// returned unchanged — nothing is merged, so nothing can be partial.
    /// Over two or more, the legs run concurrently on the worker pool and
    /// any failure is [`DbfsError::PartialScatter`] (`gather_scatter`).
    fn scatter<R, F>(&self, shards: &[usize], job: F) -> Result<Vec<R>, DbfsError>
    where
        R: Send + 'static,
        F: Fn(usize, &Dbfs<D>) -> Result<R, DbfsError> + Send + Sync + 'static,
    {
        match *shards {
            [shard] => job(shard, &self.shards[shard]).map(|answer| vec![answer]),
            _ => gather_scatter(shards, self.pool.scatter_on(shards, job)),
        }
    }

    /// The scatter half of every batched operation: groups `routed` items
    /// — `(input position, target shard, item)` — per shard, runs `run` on
    /// each involved shard's group through [`ShardedDbfs::scatter`] (groups
    /// keep input order and move, not clone, their payloads), and returns
    /// each involved shard's input positions and answer, in ascending shard
    /// order.
    fn scatter_batch<T, R>(
        &self,
        routed: impl IntoIterator<Item = (usize, usize, T)>,
        run: impl Fn(&Dbfs<D>, Vec<T>) -> Result<R, DbfsError> + Send + Sync + 'static,
    ) -> Result<Vec<(Vec<usize>, R)>, DbfsError>
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
        let answers = self.scatter(&involved, move |shard, dbfs| {
            let batch = groups[shard]
                .lock()
                .take()
                .expect("each involved shard runs exactly once");
            run(dbfs, batch)
        })?;
        let positions = involved
            .into_iter()
            .map(|shard| std::mem::take(&mut positions[shard]));
        Ok(positions.zip(answers).collect())
    }

    /// Drops every shard's inode-layer buffer cache (cold-path
    /// measurements; correctness never requires it).
    pub fn drop_caches(&self) {
        for shard in &self.shards {
            shard.drop_caches();
        }
    }

    /// Phase one of every routed erasure: walks the copy closure of `roots`
    /// over every shard and announces roots and closure under the
    /// announcement lock — index reads, no disk I/O — so a copy racing the
    /// erasure is refused from here on.  Returns the live members, roots
    /// first, with their types, and the announcements this call made.
    fn announce_closure(&self, roots: Vec<PdId>) -> (Vec<(PdId, DataTypeId)>, Vec<PdId>) {
        let mut announced = self.announced.lock();
        let closure = self.closure(roots.iter().copied());
        let members: Vec<PdId> = roots.into_iter().chain(closure).collect();
        // The ids the set did not hold yet: the announcements this makes.
        let fresh = members.iter().copied().filter(|&id| announced.insert(id));
        let fresh = fresh.collect();
        let live = members.into_iter().filter_map(|id| {
            let summary = self.summary(id).filter(|summary| !summary.erased)?;
            Some((id, summary.data_type))
        });
        (live.collect(), fresh)
    }

    /// Groups `ids` per owning shard, each group in `ids` order, and runs
    /// each group as its shard's own cascade ([`Dbfs::erase_ids`]): `first`'s
    /// group first, the others in shard order.  Returns every id tombstoned.
    fn erase_per_shard(
        &self,
        first: usize,
        ids: impl IntoIterator<Item = PdId>,
        escrow: &OperatorEscrow,
    ) -> Result<Vec<PdId>, DbfsError> {
        let mut groups: BTreeMap<usize, Vec<PdId>> = BTreeMap::new();
        for id in ids {
            groups.entry(self.shard_of_id(id)).or_default().push(id);
        }
        let lead = groups.remove_entry(&first);
        let mut erased = Vec::new();
        for (shard, ids) in lead.into_iter().chain(groups) {
            erased.extend(self.shards[shard].erase_ids(&ids, escrow)?);
        }
        Ok(erased)
    }

    /// The tail `erase` and `erase_subject` share once their roots are
    /// known (`first`: the root's shard, or the subject's home shard): the
    /// closure is announced, then its live members run per shard.  A
    /// closure on one shard is that shard's cascade alone, crash-atomic by
    /// itself, so it writes no routed intent.  One spanning shards persists
    /// a routed [`EraseIntent`] on `first` **before the first tombstone**
    /// and clears it after the last.
    fn erase_closure(
        &self,
        first: usize,
        roots: Vec<PdId>,
        escrow: &OperatorEscrow,
    ) -> Result<Vec<PdId>, DbfsError> {
        let (live, announced) = self.announce_closure(roots);
        let shard_of = |(id, _): &(PdId, DataTypeId)| self.shard_of_id(*id);
        let spans = live.windows(2).any(|w| shard_of(&w[0]) != shard_of(&w[1]));
        let token = if spans {
            let targets = live.iter().map(|(id, name)| (name.to_string(), id.raw()));
            let intent = EraseIntent {
                targets: targets.collect(),
                escrow_key: escrow.public_key().element(),
                routed: true,
            };
            // A failed intent write touched nothing: the erasure never
            // happened.
            let put = self.shards[first].put_erase_intent(&intent);
            Some(put.inspect_err(|_| self.withdraw(&announced))?)
        } else {
            None
        };
        let erased = self.erase_per_shard(first, live.into_iter().map(|(id, _)| id), escrow)?;
        self.withdraw(&announced);
        if let Some(token) = token {
            self.shards[first].clear_erase_intent(token)?;
        }
        Ok(erased)
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
        let counts = self.scatter(&self.every_shard(), move |_, dbfs| dbfs.count(&name))?;
        Ok(counts.into_iter().sum())
    }

    /// Lineage-free records are grouped by home shard and every involved
    /// shard ingests its group under its own journal group commit — the
    /// scatter-write analogue of the scatter-gather read path.  Groups for
    /// two or more shards run concurrently on the worker pool: each shard
    /// appends to its own audit stream with a dense per-shard sequence, and
    /// the streams merge by Lamport stamp, so the crash-matrix's
    /// audit-prefix invariant holds per stream without serializing the
    /// shards.  Records carrying lineage go through the copy-guarded
    /// single-record path (`store_routed`).
    ///
    /// The lowest failing shard's error is reported as it is.  On error,
    /// each shard has applied a clean prefix of its own group (per-record
    /// atomicity holds everywhere); items routed to other shards may or may
    /// not have been applied.
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
        // A failed write leg is that leg's answer, not a lost leg: every
        // shard applied a prefix of its group.  Ascending shard order: `?`
        // reports the lowest failing shard.
        let legs = self.scatter_batch(plain, |dbfs, batch| Ok(dbfs.insert_many(batch)))?;
        for (positions, leg) in legs {
            place(&mut ids, positions, leg?);
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
    /// as [`PdStore::insert_many`] does — so too the error and the partial
    /// application on error.
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
        let update = move |dbfs: &Dbfs<D>, batch| Ok(dbfs.update_rows(&name, batch));
        let legs = self.scatter_batch(routed, update)?;
        legs.into_iter().try_for_each(|(_, leg)| leg)
    }

    /// A scatter-gather over every shard, merged in shard order;
    /// [`DbfsError::PartialScatter`] when any shard fails (wrapping, for
    /// example, [`DbfsError::UnknownType`]): merging only the shards that
    /// answered would pass off a partial membrane set as the whole table.
    fn load_membranes(&self, data_type: &DataTypeId) -> Result<Vec<(PdId, Membrane)>, DbfsError> {
        let name = data_type.clone();
        let per_shard = self.scatter(&self.every_shard(), move |_, dbfs| {
            dbfs.load_membranes(&name)
        })?;
        Ok(per_shard.into_iter().flatten().collect())
    }

    /// The home shard answers from its subject index, plus the subject's
    /// records on the other shards, found in their snapshots' subject
    /// indexes — disk reads for the home shard and the foreign records
    /// only, never a fan-out.
    fn load_membranes_for_subject(
        &self,
        data_type: &DataTypeId,
        subject: SubjectId,
    ) -> Result<Vec<(PdId, Membrane)>, DbfsError> {
        let mut out =
            self.shards[self.home_shard(subject)].load_membranes_for_subject(data_type, subject)?;
        for foreign in self.foreign_of(subject) {
            if &foreign.data_type == data_type {
                out.push((foreign.id, self.load_membrane(data_type, foreign.id)?));
            }
        }
        Ok(out)
    }

    /// Routed by id.
    fn load_membrane(&self, data_type: &DataTypeId, id: PdId) -> Result<Membrane, DbfsError> {
        self.shards[self.shard_of_id(id)].load_membrane(data_type, id)
    }

    /// Grouped per owning shard and fetched through the scatter;
    /// [`DbfsError::PartialScatter`] when the ids span two or more shards
    /// and one fails.
    fn load_records(&self, data_type: &DataTypeId, ids: &[PdId]) -> Result<RecordBatch, DbfsError> {
        let name = data_type.clone();
        let routed = ids
            .iter()
            .enumerate()
            .map(|(pos, &id)| (pos, self.shard_of_id(id), id));
        let legs = self.scatter_batch(routed, move |dbfs, batch| {
            dbfs.load_records(&name, &batch)
                .map(RecordBatch::into_records)
        })?;
        let mut records: Vec<Option<PdRecord>> = vec![None; ids.len()];
        for (positions, found) in legs {
            place(&mut records, positions, found);
        }
        Ok(records
            .into_iter()
            .map(|record| record.expect("every id was routed to exactly one shard"))
            .collect())
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
    /// so a copy routinely lands on a different shard than its source.  A
    /// source whose erasure wins the race against this copy — it is
    /// tombstoned, or announced by an erasure in flight — is
    /// [`DbfsError::Erased`].
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
    /// shard**: the closure is walked over every shard's reverse-lineage
    /// index and announced (index reads, no disk I/O), so a copy racing the
    /// erasure is refused from here on; then each involved shard runs its
    /// live members as its own cascade, the root's shard first.  A closure
    /// on the root's shard alone is exactly [`Dbfs`]'s erase.  One spanning
    /// shards is two-phase: the targets are persisted as an [`EraseIntent`]
    /// on the root's shard **before any tombstone is written**.  A crash is
    /// **completed** at the next [`ShardedDbfs::mount`] — by the shard's
    /// local intent or by the routed one — so no copy ever outlives its
    /// erased original across a power loss.
    fn erase(
        &self,
        data_type: &DataTypeId,
        id: PdId,
        escrow: &OperatorEscrow,
    ) -> Result<Vec<PdId>, DbfsError> {
        let _serialized = self.erasures.lock();
        // Validate the id without mutating anything.
        self.load_membrane(data_type, id)?;
        self.erase_closure(self.shard_of_id(id), vec![id], escrow)
    }

    /// The subject's live records, on its home shard and off it, are the
    /// roots of one erasure like [`PdStore::erase`]'s: their transitive
    /// copy closure is announced, then each involved shard runs its members
    /// as its own cascade, the home shard first.  Records and copies all on
    /// one shard are that shard's cascade and write no routed intent; a
    /// closure spanning shards persists a routed [`EraseIntent`] on the home
    /// shard first.  A crash mid-erasure is completed at the next mount —
    /// the request never stays half-applied.
    fn erase_subject(
        &self,
        subject: SubjectId,
        escrow: &OperatorEscrow,
    ) -> Result<Vec<PdId>, DbfsError> {
        let _serialized = self.erasures.lock();
        let home = self.home_shard(subject);
        let records = self.shards[home].subject_summaries(subject);
        let live = records.into_iter().chain(self.foreign_of(subject));
        let roots = live.filter(|record| !record.erased).map(|record| record.id);
        self.erase_closure(home, roots.collect(), escrow)
    }

    /// On one shard, that shard's own sweep.  On two or more, every shard
    /// purges its own expiry index, then the router propagates the erasure
    /// to cross-shard copies whose retention diverged from their expired
    /// original (a copy must never outlive its lineage): their closure is
    /// walked and announced like `erase`'s, and each involved shard runs its
    /// members as its own cascade.
    ///
    /// The sweep's exact target set is only known mid-sweep, so the durable
    /// intent written up front carries no targets — just the authority key.
    /// If a crash interrupts the sweep between a shard purge and the
    /// cross-shard propagation, the next mount finds the intent and runs the
    /// **lineage heal**: any live record with an erased ancestor is erased.
    fn purge_expired(&self, escrow: &OperatorEscrow) -> Result<Vec<PdId>, DbfsError> {
        let _serialized = self.erasures.lock();
        if let [shard] = self.shards.as_slice() {
            return shard.purge_expired(escrow);
        }
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
        let (live, announced) = self.announce_closure(expired.clone());
        expired.extend(self.erase_per_shard(0, live.into_iter().map(|(id, _)| id), escrow)?);
        self.withdraw(&announced);
        self.shards[0].clear_erase_intent(token)?;
        Ok(expired)
    }

    /// The home shard's subject index plus the subject's live records on
    /// the other shards, found in their snapshots' subject indexes —
    /// `O(home shard + lineage)` reads.
    fn records_of_subject(&self, subject: SubjectId) -> Result<Vec<PdRecord>, DbfsError> {
        let mut out = self.shards[self.home_shard(subject)].records_of_subject(subject)?;
        for foreign in self.foreign_of(subject) {
            if foreign.erased {
                continue;
            }
            let record = self.get(&foreign.data_type, foreign.id)?;
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
    /// [`DbfsError::PartialScatter`] when one of two or more involved shards
    /// fails (wrapping [`DbfsError::UnknownType`] or [`DbfsError::Core`]):
    /// a merge of the surviving legs would be a silently incomplete answer.
    fn query(&self, request: &QueryRequest) -> Result<RecordBatch, DbfsError> {
        let pinned = request.predicate.pinned_subjects();
        let involved: Vec<usize> = if let Some(ids) = request.predicate.pinned_ids() {
            let mut involved: Vec<usize> = ids.iter().map(|&id| self.shard_of_id(id)).collect();
            involved.sort_unstable();
            involved.dedup();
            involved
        } else if pinned.is_empty() {
            self.every_shard()
        } else {
            let mut involved: Vec<usize> = pinned.iter().map(|&s| self.home_shard(s)).collect();
            for &subject in &pinned {
                let foreign = self.foreign_of(subject);
                involved.extend(foreign.iter().map(|record| self.shard_of_id(record.id)));
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
        let answers = self.scatter(&involved, move |_, dbfs| {
            let leg = legs
                .as_ref()
                .map(|t| t.tracer.span_with_parent("shard_query_leg", parent));
            let result = dbfs.query(&request);
            drop(leg);
            result
        })?;
        let mut batch = RecordBatch::new();
        for shard_batch in answers {
            for record in shard_batch.into_records() {
                batch.push(record);
            }
        }
        drop(scatter_span);
        Ok(batch)
    }

    /// Verifies every shard's own index invariants (in parallel), then the
    /// router-level invariants: every id on the shard its stride names, no
    /// id on two shards, and the GDPR core property — **no live record
    /// anywhere in the deployment has an erased lineage ancestor**.  The
    /// router holds no copy of the shards' lineage or placement to check
    /// against them.
    ///
    /// Expects a quiescent deployment.
    fn verify_index_invariants(&self) -> Result<(), DbfsError> {
        self.scatter(&self.every_shard(), |_, dbfs| {
            dbfs.verify_index_invariants()
        })?;
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
    /// (the routed erasure may still be completing elsewhere) or while a
    /// copy on **another** shard names it as its original (no shard's
    /// reverse-lineage index may dangle).  Copies on its own shard are the
    /// shard's business: its pass reclaims a local chain whole, children
    /// first.
    ///
    /// Runs under the cross-shard erasure lock, in rounds: reclaiming a
    /// leaf copy on one shard unblocks its original on another, so the pass
    /// iterates until no shard makes progress — erased copy chains vanish
    /// whole, children first, one round per shard boundary a chain crosses.
    /// On one shard, the first round is the shard's own pass.  A round that
    /// fails leaves nothing to repair: what it reclaimed is gone from the
    /// shards, the only place the router reads it from.
    ///
    /// The returned report accumulates reclaims across rounds; the
    /// `retained_*` counters describe what the *final* round left behind.
    fn scrub_tombstones(&self) -> Result<ScrubReport, DbfsError> {
        let _serialized = self.erasures.lock();
        let mut report = ScrubReport::default();
        let mut first_scan: Option<usize> = None;
        loop {
            // Tombstones named by any shard's pending intents stay: the
            // intent may target ids on other shards, so the guard set is
            // gathered deployment-wide, not per shard.
            let mut pending: BTreeSet<PdId> = BTreeSet::new();
            for shard in &self.shards {
                for (_, intent) in shard.pending_erase_intents()? {
                    pending.extend(intent.ids());
                }
            }
            // Tombstones a surviving copy on another shard names as its
            // original stay: no shard's lineage index may dangle.  A shard
            // orders its own copy chains child-first within its pass.
            let originals: Vec<BTreeSet<PdId>> = self
                .shards
                .iter()
                .map(|shard| shard.copy_originals())
                .collect();
            let mut round = ScrubReport::default();
            // The shard-level scrubber classifies every closure-vetoed
            // tombstone as lineage-retained; count the vetoes that were
            // really in-flight-intent holds so the report attributes them
            // correctly.
            let pending_holds = std::sync::atomic::AtomicUsize::new(0);
            for (i, shard) in self.shards.iter().enumerate() {
                let copied_elsewhere = |id| {
                    let mut others = originals.iter().enumerate().filter(|&(j, _)| j != i);
                    others.any(|(_, named)| named.contains(&id))
                };
                round.merge(shard.scrub_tombstones_with(|id| {
                    if pending.contains(&id) {
                        pending_holds.fetch_add(1, Ordering::Relaxed);
                        return false;
                    }
                    !copied_elsewhere(id)
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
            report.bytes_reclaimed += round.bytes_reclaimed;
            report.reclaimed.extend(round.reclaimed);
        }
        report.scanned_tombstones = first_scan.unwrap_or(0);
        Ok(report)
    }

    /// Records, bytes and allocated blocks summed across every shard (see
    /// [`SpaceStats::amplification`]).
    fn space_stats(&self) -> Result<SpaceStats, DbfsError> {
        let mut stats = SpaceStats::default();
        for shard in self.scatter(&self.every_shard(), |_, dbfs| dbfs.space_stats())? {
            stats.merge(&shard);
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rgpdos_blockdev::MemDevice;
    use rgpdos_core::schema::listing1_user_schema;

    /// While an erasure's targets are announced and not yet tombstoned, a
    /// copy of a target loses the race, by `copy` and by inserting a copy's
    /// membrane directly.
    #[test]
    fn an_announced_target_refuses_copies_before_its_tombstone() {
        let devices = (0..2)
            .map(|_| Arc::new(MemDevice::new(4096, 512)))
            .collect();
        let sharded = ShardedDbfs::format(devices, DbfsParams::small()).unwrap();
        sharded.create_type(listing1_user_schema()).unwrap();
        let user = DataTypeId::from("user");
        let row = Row::new()
            .with("name", "x")
            .with("pwd", "pw")
            .with("year_of_birthdate", 1990i64);
        let target = sharded.collect(&user, SubjectId::new(1), row).unwrap();
        let record = sharded.get(&user, target).unwrap();
        sharded.announced.lock().insert(target);

        let refused = |result: Result<PdId, DbfsError>| matches!(result, Err(DbfsError::Erased { id }) if id == target.raw());
        assert!(refused(sharded.copy(&user, target)));
        let membrane = record.membrane().for_copy(target);
        let wrapped = WrappedPd::new(record.row().clone(), membrane);
        assert!(refused(sharded.insert_wrapped(&user, wrapped)));
        assert!(!sharded.get(&user, target).unwrap().membrane().is_erased());

        sharded.withdraw(&[target]);
        assert!(sharded.copy(&user, target).is_ok());
    }
}
