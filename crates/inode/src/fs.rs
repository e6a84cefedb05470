//! The mid-level filesystem API over the inode layer.
//!
//! [`InodeFs`] exposes inode allocation, byte-granularity reads/writes,
//! truncation, deletion and a minimal directory abstraction.  Every mutating
//! call is a transaction: it joins the one its thread opened with
//! [`InodeFs::begin_tx`], or opens its own and commits it before returning.
//! Either way a commit is one write-ahead journal transaction, so a crash at
//! any point leaves the filesystem, after the next [`InodeFs::mount`], as
//! it was before the transaction or after it.
//!
//! Two knobs matter for the GDPR experiments, both chosen at format time and
//! kept in the superblock:
//!
//! * the [`JournalMode`] decides whether journal blocks are scrubbed after
//!   checkpoint (see [`crate::journal`]);
//! * [`FormatParams::secure_free`] decides whether freed data blocks are
//!   zeroed.  With both disabled the layer behaves like a conventional
//!   filesystem and "deleted" personal data survives on the raw device;
//!   with both enabled it behaves the way rgpdOS's DBFS requires.

use crate::bitmap::Bitmap;
use crate::cache::{BlockCache, DEFAULT_CACHE_BLOCKS};
use crate::error::InodeError;
use crate::inode::{Ino, Inode, InodeKind};
use crate::journal::{
    decode_commit, decode_header, encode_commit, encode_header, max_targets_per_tx, JournalMode,
};
use crate::layout::{Layout, DIRECT_POINTERS, INODE_SIZE};
use crate::superblock::Superblock;
use parking_lot::{Mutex, MutexGuard};
use rgpdos_blockdev::{BlockDevice, CacheStats};
use rgpdos_trace::{Counter, Hist, TraceClock, TraceCtx, Tracer};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// The inode number of the root directory created by `format`.
pub const ROOT_INO: Ino = 0;

/// Parameters chosen at format time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FormatParams {
    /// Number of inodes in the inode table.
    pub inode_count: u64,
    /// Number of blocks reserved for the journal.
    pub journal_blocks: u64,
    /// Whether freed data blocks are overwritten with zeroes.  A file then
    /// grows only as far as one journal transaction can zero and unlink it
    /// (see [`InodeFs::write`]).
    pub secure_free: bool,
}

impl FormatParams {
    /// A small filesystem suitable for unit tests.
    pub fn small() -> Self {
        Self {
            inode_count: 64,
            journal_blocks: 16,
            secure_free: false,
        }
    }

    /// A standard filesystem for examples and benchmarks.
    pub fn standard() -> Self {
        Self {
            inode_count: 4096,
            journal_blocks: 64,
            secure_free: false,
        }
    }

    /// Enables or disables zero-on-free.
    #[must_use]
    pub fn with_secure_free(mut self, secure: bool) -> Self {
        self.secure_free = secure;
        self
    }

    /// Overrides the inode count.
    #[must_use]
    pub fn with_inode_count(mut self, count: u64) -> Self {
        self.inode_count = count;
        self
    }

    /// Overrides the journal size.
    #[must_use]
    pub fn with_journal_blocks(mut self, blocks: u64) -> Self {
        self.journal_blocks = blocks;
        self
    }
}

impl Default for FormatParams {
    fn default() -> Self {
        Self::standard()
    }
}

#[derive(Debug)]
struct FsState {
    superblock: Superblock,
    inode_bitmap: Bitmap,
    data_bitmap: Bitmap,
    op_counter: u64,
}

/// A mounted inode-layer filesystem.
#[derive(Debug)]
pub struct InodeFs<D> {
    device: D,
    layout: Layout,
    state: Mutex<FsState>,
    /// Held by the open transaction's [`Transaction`] guard until it ends,
    /// so a thread that does not own it waits in [`InodeFs::begin_tx`]
    /// instead of mutating under it.
    gate: Mutex<()>,
    /// The open transaction, if any: new block contents staged by every
    /// operation since [`InodeFs::begin_tx`], keyed by block number, plus a
    /// snapshot of the allocation bitmaps taken at `begin_tx`.  The owner's
    /// reads consult the overlay first, so multi-operation mutations observe
    /// their own uncommitted writes; nothing reaches the device until
    /// [`Transaction::commit`] journals the whole set, and an abort restores
    /// the bitmap snapshot so in-memory allocation state never diverges from
    /// the (untouched) device.
    tx: Mutex<Option<TxState>>,
    /// [`thread_token`] of the thread that opened the transaction in `tx`,
    /// zero while none is open.  Only that thread's reads look into the
    /// overlay; every other thread reads committed state and never touches
    /// the `tx` or `state` mutexes on the way.  `Relaxed` throughout: a
    /// thread only asks whether the value is its own token, which no other
    /// thread ever stores, and the overlay itself is read under `tx`.
    tx_owner: AtomicU64,
    /// The buffer cache of committed block contents (see [`crate::cache`]).
    /// Dirty data never lives here — it stays in the transaction overlay
    /// until the commit's journal/apply/flush barrier, after which the
    /// applied blocks are copied in.  The cache therefore always equals
    /// committed device contents and a crash loses nothing that mattered.
    cache: Mutex<BlockCache>,
    /// Number of journal transactions written since format/mount.  Group
    /// commit exists to drive this (and the device write count) down: N
    /// coalesced mutations cost one journal transaction instead of N.  A
    /// trace [`Counter`] so a metrics registry can adopt the same atomic.
    journal_txs: Counter,
    /// Number of journal transactions replayed by `mount` (crash recovery).
    recovered_txs: u64,
    /// Bumped before and after each commit applies its blocks in place, so
    /// odd while it does (see [`InodeFs::apply_seq`]).
    apply_seq: AtomicU64,
    /// Commit-path instrumentation, set by the first
    /// [`InodeFs::attach_trace`].  Unset costs one load per journaled
    /// commit and nothing else.
    trace: OnceLock<FsTrace>,
}

/// The handles [`InodeFs::attach_trace`] installs: the commit-latency
/// histogram, the phase-span tracer, and the clock both read.
#[derive(Debug)]
struct FsTrace {
    clock: Arc<TraceClock>,
    tracer: Arc<Tracer>,
    commit_us: Hist,
}

/// A process-unique, non-zero token for the calling thread.
fn thread_token() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local!(static TOKEN: u64 = NEXT.fetch_add(1, Ordering::Relaxed));
    TOKEN.with(|token| *token)
}

fn corrupt_dir() -> InodeError {
    InodeError::Corrupt {
        what: "directory entries".to_owned(),
    }
}

/// A borrowed scan of an encoded directory (see `InodeFs::read_dir`): yields
/// each counted entry's name bytes and inode, copying nothing, and ends
/// with [`InodeError::Corrupt`] when bytes follow the last counted entry —
/// the size rule every directory update keeps.
struct DirScan<'a> {
    data: &'a [u8],
    /// Counted entries not yet yielded.
    left: u32,
    /// Where the next entry starts; once exhausted, the directory's end.
    offset: usize,
}

impl<'a> DirScan<'a> {
    fn new(data: &'a [u8]) -> Result<Self, InodeError> {
        let left = match data.first_chunk::<4>() {
            Some(count) => u32::from_le_bytes(*count),
            None if data.is_empty() => 0,
            None => return Err(corrupt_dir()),
        };
        Ok(Self {
            data,
            left,
            offset: 4,
        })
    }
}

impl<'a> Iterator for DirScan<'a> {
    type Item = Result<(&'a [u8], Ino), InodeError>;

    fn next(&mut self) -> Option<Self::Item> {
        let Some(left) = self.left.checked_sub(1) else {
            let tail = self.offset < self.data.len();
            self.offset = self.data.len();
            return tail.then(|| Err(corrupt_dir()));
        };
        let rest = self.data.get(self.offset..).unwrap_or_default();
        let entry = rest.split_first_chunk::<2>().and_then(|(len, rest)| {
            let (name, rest) = rest.split_at_checked(u16::from_le_bytes(*len) as usize)?;
            let (ino, _) = rest.split_first_chunk::<8>()?;
            Some((name, u64::from_le_bytes(*ino)))
        });
        // An entry that fails to decode ends the scan.
        self.left = if entry.is_some() { left } else { 0 };
        self.offset = entry.map_or(self.data.len(), |(name, _)| self.offset + 10 + name.len());
        Some(entry.ok_or_else(corrupt_dir))
    }
}

/// `(block, previous)` per overlay mutation since a savepoint, in order,
/// where `None` means the block was not staged before.
type UndoLog = Vec<(u64, Option<Vec<u8>>)>;

/// The staged state of an open compound transaction.
#[derive(Debug)]
struct TxState {
    /// New block contents staged by the transaction, keyed by block number,
    /// each padded to a whole block.
    overlay: BTreeMap<u64, Vec<u8>>,
    /// The open savepoint (see [`InodeFs::tx_savepoint`]), if any: its undo
    /// log and the allocation bitmaps as of it.  Nothing is logged while no
    /// savepoint is open, and rolling back only touches the blocks staged
    /// since — what keeps per-record savepoints affordable inside large
    /// group commits.
    savepoint: Option<(UndoLog, Bitmap, Bitmap)>,
    /// The allocation bitmaps as of `begin_tx`, restored on abort: the
    /// operations inside a transaction mutate the in-memory bitmaps eagerly
    /// (allocations *and* frees), and a freed-in-memory block whose on-disk
    /// inode still references it must not be handed out again.
    saved_inode_bitmap: Bitmap,
    saved_data_bitmap: Bitmap,
}

/// An open compound transaction (see [`InodeFs::begin_tx`]).  Dropping the
/// guard without [`Transaction::commit`] aborts: staged writes are
/// discarded, the allocation bitmaps are rolled back, and the device is
/// left exactly as it was when the transaction began.
#[derive(Debug)]
pub struct Transaction<'a, D: BlockDevice> {
    fs: &'a InodeFs<D>,
    committed: bool,
    /// The filesystem's gate, released once `Drop` has closed the
    /// transaction.
    _gate: MutexGuard<'a, ()>,
}

impl<D: BlockDevice> Transaction<'_, D> {
    /// Journals and applies every staged write as **one** journal
    /// transaction: after a crash the device holds all of them or none.
    ///
    /// # Errors
    ///
    /// [`InodeError::TxTooLarge`] when more blocks are staged than
    /// [`InodeFs::tx_capacity_blocks`]: the transaction is aborted as if
    /// dropped, nothing reaches the device.  Propagates device errors; a
    /// failed commit may leave a journalled but unapplied transaction, which
    /// the next mount replays.
    pub fn commit(mut self) -> Result<(), InodeError> {
        self.committed = true;
        self.fs.commit_tx()
    }
}

impl<D: BlockDevice> Drop for Transaction<'_, D> {
    fn drop(&mut self) {
        if !self.committed {
            self.fs.abort_tx();
        }
    }
}

impl<D: BlockDevice> InodeFs<D> {
    /// Formats `device` and mounts the fresh filesystem.
    ///
    /// # Errors
    ///
    /// Returns [`InodeError::DeviceTooSmall`] when the device cannot hold the
    /// metadata regions, and propagates device errors.
    pub fn format(
        device: D,
        params: FormatParams,
        journal_mode: JournalMode,
    ) -> Result<Self, InodeError> {
        let layout = Layout::compute(device.geometry(), params.inode_count, params.journal_blocks)?;
        let block_size = layout.block_size;

        let superblock = Superblock::new(
            params.inode_count,
            params.journal_blocks,
            journal_mode,
            params.secure_free,
        );
        device.write_block(0, &superblock.encode(block_size))?;

        let mut inode_bitmap = Bitmap::new(params.inode_count);
        inode_bitmap.set(ROOT_INO);
        let mut data_bitmap = Bitmap::new(layout.total_blocks);
        for b in 0..layout.data_start {
            data_bitmap.set(b);
        }

        for b in 0..layout.inode_bitmap_blocks {
            device.write_block(
                layout.inode_bitmap_start + b,
                &inode_bitmap.block_bytes(b, block_size),
            )?;
        }
        for b in 0..layout.data_bitmap_blocks {
            device.write_block(
                layout.data_bitmap_start + b,
                &data_bitmap.block_bytes(b, block_size),
            )?;
        }

        // Zero the inode table, then install the root directory inode.
        let zero = vec![0u8; block_size];
        for b in 0..layout.inode_table_blocks {
            device.write_block(layout.inode_table_start + b, &zero)?;
        }
        let root = Inode::empty(InodeKind::Directory, 0);
        let (root_block, root_offset) = layout.inode_location(ROOT_INO);
        let mut block = device.read_block(root_block)?;
        block[root_offset..root_offset + INODE_SIZE].copy_from_slice(&root.encode());
        device.write_block(root_block, &block)?;
        device.flush()?;
        Ok(Self::assemble(
            device,
            layout,
            superblock,
            inode_bitmap,
            data_bitmap,
            0,
        ))
    }

    /// Mounts an already-formatted device, replaying the journal if a
    /// committed transaction had not been fully applied before a crash.
    ///
    /// # Errors
    ///
    /// Returns [`InodeError::Corrupt`] for an unformatted or damaged device.
    pub fn mount(device: D) -> Result<Self, InodeError> {
        // Journal replay below writes wherever the journal directs it —
        // repairs, not bitmap-checked allocations.  Disarm any attached
        // sanitizer for the duration; the reseed after the bitmaps are
        // loaded re-arms it against recovered state.
        if let Some(sanitizer) = device.sanitizer() {
            sanitizer.begin_recovery();
        }
        let block0 = device.read_block(0)?;
        let mut superblock = Superblock::decode(&block0)?;
        let layout = Layout::compute(
            device.geometry(),
            superblock.inode_count,
            superblock.journal_blocks,
        )?;
        let block_size = layout.block_size;

        // Journal recovery: a committed transaction with id last_applied + 1
        // may exist either at the recorded write pointer or at offset 0
        // (after a wrap).  Re-applying is idempotent.
        let mut recovered_txs = 0u64;
        let mut candidates = vec![superblock.journal_write_ptr];
        if superblock.journal_write_ptr != 0 {
            candidates.push(0);
        }
        'candidates: for pos in candidates {
            if pos >= layout.journal_blocks {
                continue;
            }
            let header_block = device.read_block(layout.journal_start + pos)?;
            let Ok((tx_id, targets)) = decode_header(&header_block) else {
                continue;
            };
            if tx_id != superblock.last_applied_tx + 1 {
                continue;
            }
            let commit_pos = pos + 1 + targets.len() as u64;
            if commit_pos >= layout.journal_blocks {
                continue;
            }
            let commit_block = device.read_block(layout.journal_start + commit_pos)?;
            let Ok(committed_id) = decode_commit(&commit_block) else {
                continue;
            };
            if committed_id != tx_id {
                continue;
            }
            // Replay.
            for (i, target) in targets.iter().enumerate() {
                let data = device.read_block(layout.journal_start + pos + 1 + i as u64)?;
                device.write_block(*target, &data)?;
            }
            device.flush()?;
            superblock.last_started_tx = tx_id;
            superblock.last_applied_tx = tx_id;
            superblock.last_tx_offset = pos;
            superblock.journal_write_ptr = commit_pos + 1;
            device.write_block(0, &superblock.encode(block_size))?;
            if superblock.journal_mode == JournalMode::Scrub {
                let zero = vec![0u8; block_size];
                for b in pos..=commit_pos {
                    device.write_block(layout.journal_start + b, &zero)?;
                }
            }
            device.flush()?;
            recovered_txs += 1;
            break 'candidates;
        }

        // Load the bitmaps (after replay so they reflect recovered state).
        let mut inode_bytes = Vec::new();
        for b in 0..layout.inode_bitmap_blocks {
            inode_bytes.extend_from_slice(&device.read_block(layout.inode_bitmap_start + b)?);
        }
        let inode_bitmap = Bitmap::from_bytes(&inode_bytes, superblock.inode_count);
        let mut data_bytes = Vec::new();
        for b in 0..layout.data_bitmap_blocks {
            data_bytes.extend_from_slice(&device.read_block(layout.data_bitmap_start + b)?);
        }
        let data_bitmap = Bitmap::from_bytes(&data_bytes, layout.total_blocks);
        Ok(Self::assemble(
            device,
            layout,
            superblock,
            inode_bitmap,
            data_bitmap,
            recovered_txs,
        ))
    }

    /// The mounted filesystem over `device`'s authoritative on-disk state,
    /// with any attached block sanitizer armed against `data_bitmap`.
    fn assemble(
        device: D,
        layout: Layout,
        superblock: Superblock,
        inode_bitmap: Bitmap,
        data_bitmap: Bitmap,
        recovered_txs: u64,
    ) -> Self {
        if let Some(sanitizer) = device.sanitizer() {
            sanitizer.reseed_with(|block| data_bitmap.is_set(block));
        }
        Self {
            device,
            layout,
            state: Mutex::new(FsState {
                superblock,
                inode_bitmap,
                data_bitmap,
                op_counter: 1,
            }),
            gate: Mutex::new(()),
            tx: Mutex::new(None),
            tx_owner: AtomicU64::new(0),
            cache: Mutex::new(BlockCache::new(DEFAULT_CACHE_BLOCKS)),
            journal_txs: Counter::new(),
            recovered_txs,
            apply_seq: AtomicU64::new(0),
            trace: OnceLock::new(),
        }
    }

    /// The computed on-disk layout.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// The journal scrub policy this filesystem was formatted with.
    pub fn journal_mode(&self) -> JournalMode {
        self.state.lock().superblock.journal_mode
    }

    /// Whether freed data blocks are zeroed, as formatted.
    pub fn secure_free(&self) -> bool {
        self.state.lock().superblock.secure_free
    }

    /// Gives access to the underlying device (used by forensic scans).
    pub fn device(&self) -> &D {
        &self.device
    }

    /// Number of allocated inodes (including the root directory).
    pub fn allocated_inodes(&self) -> u64 {
        self.state.lock().inode_bitmap.count_set()
    }

    /// Number of allocated blocks, metadata included.
    pub fn allocated_blocks(&self) -> u64 {
        self.state.lock().data_bitmap.count_set()
    }

    /// Number of journal transactions the last `mount` replayed (0 after a
    /// clean shutdown or a fresh format).
    pub fn recovered_txs(&self) -> u64 {
        self.recovered_txs
    }

    /// Number of journal transactions written since format/mount.  One
    /// group commit counts once however many mutations it coalesced, so
    /// this is the denominator batching improves.
    pub fn journal_txs(&self) -> u64 {
        self.journal_txs.get()
    }

    /// The apply sequence: odd while a commit writes its blocks in place,
    /// bumped again once the cache holds them.  An unlocked read of a file
    /// that spans several blocks may meet such an apply half done; the read
    /// stands only when the sequence was even before it and unchanged after.
    pub fn apply_seq(&self) -> u64 {
        self.apply_seq.load(Ordering::SeqCst)
    }

    /// Routes this filesystem's instrumentation through `ctx`: the cache
    /// hit/miss and journal-transaction counters are adopted into the
    /// registry (same atomics the plain accessors read), the mount-time
    /// replay count becomes a gauge, and every subsequent journaled commit
    /// records into the `fs_commit_latency_us` histogram with
    /// journal→apply→flush→checkpoint phase spans.  `labels` distinguishes
    /// instances (e.g. `shard="2"`); the trace layer itself performs no
    /// device I/O.
    pub fn attach_trace(&self, ctx: &TraceCtx, labels: &[(&str, &str)]) {
        let (hits, misses) = self.cache.lock().counters();
        ctx.registry.adopt_counter("fs_cache_hits", labels, &hits);
        ctx.registry
            .adopt_counter("fs_cache_misses", labels, &misses);
        ctx.registry
            .adopt_counter("fs_journal_txs", labels, &self.journal_txs);
        ctx.registry
            .gauge_with("fs_recovered_txs", labels)
            .set(self.recovered_txs as i64);
        let _ = self.trace.set(FsTrace {
            clock: Arc::clone(&ctx.clock),
            tracer: Arc::clone(&ctx.tracer),
            commit_us: ctx.registry.histogram_with("fs_commit_latency_us", labels),
        });
    }

    // ------------------------------------------------------------------
    // Buffer cache
    // ------------------------------------------------------------------

    /// Hit/miss counters of the buffer cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.lock().stats()
    }

    /// Number of blocks currently held in the buffer cache.
    pub fn cached_blocks(&self) -> usize {
        self.cache.lock().len()
    }

    /// Drops every cached block (hit/miss counters are kept).  Benchmarks
    /// call this to measure a cold read path; correctness never requires it
    /// — the cache only ever holds committed device contents.
    pub fn drop_caches(&self) {
        self.cache.lock().clear();
    }

    /// Reconfigures the buffer cache capacity in blocks (zero disables
    /// caching), dropping current contents.
    pub fn set_cache_capacity(&self, blocks: usize) {
        self.cache.lock().set_capacity(blocks);
    }

    /// Whether any cached block contains `pattern` — the buffer-cache
    /// analogue of the raw-device forensic scan.  Crypto-erasure must leave
    /// no plaintext here either; the erasure tests assert exactly that.
    pub fn cache_contains(&self, pattern: &[u8]) -> bool {
        self.cache.lock().contains_pattern(pattern)
    }

    /// Flushes the device.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn sync(&self) -> Result<(), InodeError> {
        self.device.flush()?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Compound transactions
    // ------------------------------------------------------------------

    /// Opens a compound transaction: every mutation the calling thread
    /// performs until the returned guard is committed stages its block
    /// writes in an in-memory overlay instead of touching the device.
    /// [`Transaction::commit`] journals and applies the whole set in **one**
    /// journal transaction, making the compound mutation crash-atomic, and
    /// refuses a set larger than [`InodeFs::tx_capacity_blocks`] — the one
    /// commit rule, since a mutating call made outside a compound
    /// transaction is a transaction of its own.  Dropping the guard aborts:
    /// the device is left untouched and the in-memory allocation bitmaps are
    /// restored to their `begin_tx` snapshot.
    ///
    /// One transaction is open at a time.  Its staged writes are visible to
    /// the thread that opened it and to no other: a concurrent reader sees
    /// the committed contents until the commit applies them, and another
    /// thread's `begin_tx` — or mutating call — waits until it ends.
    ///
    /// # Panics
    ///
    /// Panics when the calling thread already has a transaction open
    /// (transactions do not nest).
    pub fn begin_tx(&self) -> Transaction<'_, D> {
        assert!(
            !self.owns_tx(),
            "InodeFs compound transactions do not nest; commit or drop the previous one first"
        );
        let gate = self.gate.lock();
        let state = self.state.lock();
        *self.tx.lock() = Some(TxState {
            overlay: BTreeMap::new(),
            savepoint: None,
            saved_inode_bitmap: state.inode_bitmap.clone(),
            saved_data_bitmap: state.data_bitmap.clone(),
        });
        self.tx_owner.store(thread_token(), Ordering::Relaxed);
        Transaction {
            fs: self,
            committed: false,
            _gate: gate,
        }
    }

    /// Whether the calling thread has the open transaction.
    fn owns_tx(&self) -> bool {
        self.tx_owner.load(Ordering::Relaxed) == thread_token()
    }

    /// Runs a mutating call in the calling thread's transaction: the one it
    /// has open, else one opened here, committed when `call` succeeds and
    /// aborted when it fails.
    fn in_tx<T>(&self, call: impl FnOnce() -> Result<T, InodeError>) -> Result<T, InodeError> {
        if self.owns_tx() {
            return call();
        }
        let tx = self.begin_tx();
        let out = call()?;
        tx.commit()?;
        Ok(out)
    }

    /// How many distinct blocks a compound transaction can carry (one
    /// journal transaction): bounded by the journal header's target list
    /// and by the journal size itself.
    pub fn tx_capacity_blocks(&self) -> usize {
        max_targets_per_tx(self.layout.block_size)
            .min((self.layout.journal_blocks.saturating_sub(2)) as usize)
            .max(1)
    }

    /// Number of distinct blocks currently staged by the open compound
    /// transaction (zero when none is open).  Batched writers compare this
    /// against [`InodeFs::tx_capacity_blocks`] to decide when to cut a
    /// group commit.
    pub fn tx_staged_blocks(&self) -> usize {
        self.tx
            .lock()
            .as_ref()
            .map_or(0, |staged| staged.overlay.len())
    }

    /// Takes the open transaction's savepoint: it records the allocation
    /// bitmaps and opens the undo log of the overlay, so that
    /// [`InodeFs::tx_rollback_to`] can discard everything staged after it
    /// while keeping the transaction open — the mechanism batched writers
    /// use to un-stage the one mutation that fails or would overflow the
    /// journal capacity.  A transaction has at most one savepoint: taking a
    /// new one replaces the previous one.  (The bitmaps are copied whole: a
    /// few KB on the simulated geometries, cheap next to the block data the
    /// undo log avoids copying.)
    ///
    /// # Panics
    ///
    /// Panics when no compound transaction is open.
    pub fn tx_savepoint(&self) {
        let state = self.state.lock();
        self.tx
            .lock()
            .as_mut()
            .expect("tx_savepoint requires an open compound transaction")
            .savepoint = Some((
            Vec::new(),
            state.inode_bitmap.clone(),
            state.data_bitmap.clone(),
        ));
    }

    /// Rolls the open transaction back to its savepoint: staged writes and
    /// in-memory allocations performed since are discarded, and the
    /// transaction stays open, with no savepoint.  The undo is O(blocks
    /// staged since the savepoint), not O(transaction).
    ///
    /// # Panics
    ///
    /// Panics when no compound transaction is open or it has no savepoint
    /// (none taken, or already rolled back to).
    pub fn tx_rollback_to(&self) {
        let mut state = self.state.lock();
        let mut tx = self.tx.lock();
        let staged = tx
            .as_mut()
            .expect("tx_rollback_to requires an open compound transaction");
        let (undo, inode_bitmap, data_bitmap) = staged
            .savepoint
            .take()
            .expect("tx_rollback_to requires the transaction's savepoint");
        for (block, previous) in undo.into_iter().rev() {
            match previous {
                Some(data) => staged.overlay.insert(block, data),
                None => staged.overlay.remove(&block),
            };
        }
        state.inode_bitmap = inode_bitmap;
        state.data_bitmap = data_bitmap;
        self.sanitizer_reseed(&state.data_bitmap, &staged.saved_data_bitmap);
    }

    fn commit_tx(&self) -> Result<(), InodeError> {
        let (staged, capacity) = (self.tx_staged_blocks(), self.tx_capacity_blocks());
        if staged > capacity {
            self.abort_tx();
            return Err(InodeError::TxTooLarge { staged, capacity });
        }
        let staged = self
            .take_tx()
            .expect("commit_tx requires an open transaction");
        self.commit_journaled(&mut self.state.lock(), staged.overlay)
    }

    /// Stages one block's new contents, padded to a whole block, in the
    /// calling thread's transaction, logging what they replace while a
    /// savepoint is open.
    fn stage(&self, block: u64, mut data: Vec<u8>) {
        assert!(self.owns_tx(), "a mutation stages into its own transaction");
        data.resize(self.layout.block_size, 0);
        let mut tx = self.tx.lock();
        let staged = tx.as_mut().expect("a mutation runs in a transaction");
        let previous = staged.overlay.insert(block, data);
        if let Some((undo, ..)) = &mut staged.savepoint {
            undo.push((block, previous));
        }
    }

    /// Closes the open transaction, if any, handing its staged state over.
    fn take_tx(&self) -> Option<TxState> {
        self.tx_owner.store(0, Ordering::Relaxed);
        self.tx.lock().take()
    }

    fn abort_tx(&self) {
        if let Some(staged) = self.take_tx() {
            // Roll the in-memory bitmaps back to the snapshot: nothing of
            // the aborted transaction reached the device, so the pre-tx
            // bitmaps are the ones that describe it.
            let mut state = self.state.lock();
            state.inode_bitmap = staged.saved_inode_bitmap;
            state.data_bitmap = staged.saved_data_bitmap;
            self.sanitizer_reseed(&state.data_bitmap, &state.data_bitmap);
        }
    }

    /// Reads a block through the transaction overlay (uncommitted staged
    /// writes) when the caller is the thread that opened the transaction,
    /// then the buffer cache (committed contents), then the device.  Every
    /// internal read goes through here so that operations inside a compound
    /// transaction observe their own staged writes, everyone else reads
    /// committed state, and the hot read path is served from memory.
    fn read_block_raw(&self, block: u64) -> Result<Vec<u8>, InodeError> {
        if self.owns_tx() {
            if let Some(data) = self
                .tx
                .lock()
                .as_ref()
                .and_then(|tx| tx.overlay.get(&block))
            {
                return Ok(data.clone());
            }
        }
        let epoch = {
            let mut cache = self.cache.lock();
            if let Some(data) = cache.get(block) {
                return Ok(data);
            }
            cache.epoch()
        };
        let data = self.device.read_block(block)?;
        {
            // Install the miss-fill only if no invalidation (i.e. no
            // committed write) raced the device read: a concurrent commit
            // invalidates the block before applying it, so an unchanged
            // epoch proves the bytes just read are still the committed
            // contents.  A changed epoch merely skips the fill — the next
            // read misses again and re-fetches the fresh contents.
            let mut cache = self.cache.lock();
            if cache.epoch() == epoch {
                cache.insert(block, data.clone());
            }
        }
        Ok(data)
    }

    // ------------------------------------------------------------------
    // Inode lifecycle
    // ------------------------------------------------------------------

    /// Allocates a fresh inode of the given kind.
    ///
    /// # Errors
    ///
    /// Returns [`InodeError::OutOfInodes`] when the inode table is full.
    pub fn alloc_inode(&self, kind: InodeKind) -> Result<Ino, InodeError> {
        self.in_tx(|| {
            let mut state = self.state.lock();
            let ino = match state.inode_bitmap.allocate_from(0) {
                Ok(ino) => ino,
                Err(InodeError::OutOfSpace) => return Err(InodeError::OutOfInodes),
                Err(e) => return Err(e),
            };
            let now = state.op_counter;
            state.op_counter += 1;
            self.stage_inode(ino, &Inode::empty(kind, now))?;
            self.stage_inode_bitmap(&state, ino);
            Ok(ino)
        })
    }

    /// Reads the inode metadata of `ino`.
    ///
    /// # Errors
    ///
    /// Returns [`InodeError::BadInode`] for out-of-range or free inodes.
    pub fn stat(&self, ino: Ino) -> Result<Inode, InodeError> {
        self.load_inode_checked(ino)
    }

    /// Frees an inode, releasing (and, with `secure_free`, zeroing) its data
    /// blocks.
    ///
    /// # Errors
    ///
    /// Returns [`InodeError::BadInode`] for invalid inodes.
    pub fn free_inode(&self, ino: Ino) -> Result<(), InodeError> {
        self.in_tx(|| {
            self.truncate(ino, 0)?;
            let mut state = self.state.lock();
            state.inode_bitmap.clear(ino);
            self.stage_inode(ino, &Inode::default())?;
            self.stage_inode_bitmap(&state, ino);
            Ok(())
        })
    }

    // ------------------------------------------------------------------
    // Data path
    // ------------------------------------------------------------------

    /// Writes `data` at byte `offset` of inode `ino`, growing the file as
    /// needed.
    ///
    /// # Errors
    ///
    /// Returns [`InodeError::FileTooLarge`] when the write would exceed the
    /// inode's addressing capacity, [`InodeError::OutOfSpace`] when no data
    /// block is left, [`InodeError::BadInode`] for invalid inodes, and —
    /// like every mutating call made outside a compound transaction —
    /// [`InodeError::TxTooLarge`] when it stages more blocks than one
    /// journal transaction carries.  With `secure_free`, `TxTooLarge` also
    /// refuses a write that would grow the file past what one journal
    /// transaction can remove, zeroes and unlink included, so every file
    /// stays removable.  Outside a compound transaction a failed call leaves
    /// the filesystem as it was.
    pub fn write(&self, ino: Ino, offset: u64, data: &[u8]) -> Result<(), InodeError> {
        let capacity = self.tx_capacity_blocks();
        let staged = self.remove_cost(offset + data.len() as u64);
        if !data.is_empty() && staged > capacity && self.secure_free() {
            return Err(InodeError::TxTooLarge { staged, capacity });
        }
        self.write_extents(ino, &[(offset, data)])
    }

    /// Blocks a remove of a `size`-byte file stages at most under
    /// `secure_free`: its blocks (the indirect one included) zeroed, one
    /// data-bitmap block per bitmap block they span, its inode and
    /// inode-bitmap blocks, and — for an entry of a one-block directory —
    /// the directory's block and inode.  Directories are not held to it:
    /// they shrink as their entries go.
    fn remove_cost(&self, size: u64) -> usize {
        let data = size.div_ceil(self.layout.block_size as u64);
        let blocks = data + u64::from(data > DIRECT_POINTERS as u64);
        (blocks + blocks.min(self.layout.data_bitmap_blocks) + 4) as usize
    }

    /// [`InodeFs::write`] of several `(offset, bytes)` extents as one call.
    /// An extent that touches a block an earlier one staged patches that
    /// copy.
    fn write_extents(&self, ino: Ino, extents: &[(u64, &[u8])]) -> Result<(), InodeError> {
        let extents = || extents.iter().filter(|(_, data)| !data.is_empty());
        let Some(end) = extents().map(|(at, data)| at + data.len() as u64).max() else {
            return Ok(());
        };
        self.in_tx(|| {
            let mut state = self.state.lock();
            let mut inode = self.load_inode_checked(ino)?;
            let block_size = self.layout.block_size as u64;
            if end > self.layout.max_file_size() {
                return Err(InodeError::FileTooLarge {
                    requested: end,
                    max: self.layout.max_file_size(),
                });
            }

            let mut indirect_table = self.load_indirect_table(&inode)?;
            let mut indirect_dirty = false;
            let mut allocated_bits: Vec<u64> = Vec::new();

            for &(offset, data) in extents() {
                let end = offset + data.len() as u64;
                for file_block in offset / block_size..=(end - 1) / block_size {
                    let existing_ptr = self.file_block_ptr(&inode, &indirect_table, file_block);
                    let (ptr, newly_allocated) = match existing_ptr {
                        Some(p) => (p, false),
                        None => {
                            let p = self.allocate_data_block(&mut state, &mut allocated_bits)?;
                            if (file_block as usize) < DIRECT_POINTERS {
                                inode.direct[file_block as usize] = p;
                            } else {
                                if inode.indirect == 0 {
                                    let ib =
                                        self.allocate_data_block(&mut state, &mut allocated_bits)?;
                                    inode.indirect = ib;
                                }
                                indirect_table[file_block as usize - DIRECT_POINTERS] = p;
                                indirect_dirty = true;
                            }
                            (p, true)
                        }
                    };

                    // Assemble the new contents of this block.
                    let block_start = file_block * block_size;
                    let from = (offset.max(block_start) - block_start) as usize;
                    let to = (end.min(block_start + block_size) - block_start) as usize;
                    let mut content = if newly_allocated || to - from == block_size as usize {
                        vec![0u8; block_size as usize]
                    } else {
                        self.read_block_raw(ptr)?
                    };
                    let source = (block_start + from as u64 - offset) as usize;
                    content[from..to].copy_from_slice(&data[source..source + to - from]);
                    self.stage(ptr, content);
                }
            }

            if indirect_dirty {
                self.stage(inode.indirect, self.encode_indirect_table(&indirect_table));
            }

            inode.size = inode.size.max(end);
            inode.modified_at = state.op_counter;
            state.op_counter += 1;
            self.stage_inode(ino, &inode)?;
            self.stage_data_bitmap(&state, &allocated_bits);
            Ok(())
        })
    }

    /// Reads up to `len` bytes starting at `offset`; the result is truncated
    /// at end-of-file.
    ///
    /// # Errors
    ///
    /// Returns [`InodeError::BadInode`] for invalid inodes and propagates
    /// device errors.
    pub fn read(&self, ino: Ino, offset: u64, len: usize) -> Result<Vec<u8>, InodeError> {
        self.read_inode(&self.load_inode_checked(ino)?, offset, len)
    }

    /// [`InodeFs::read`] of an inode already loaded.
    fn read_inode(&self, inode: &Inode, offset: u64, len: usize) -> Result<Vec<u8>, InodeError> {
        let block_size = self.layout.block_size as u64;
        if offset >= inode.size || len == 0 {
            return Ok(Vec::new());
        }
        let end = (offset + len as u64).min(inode.size);
        let mut out = Vec::with_capacity((end - offset) as usize);
        let first_block = offset / block_size;
        let last_block = (end - 1) / block_size;
        // A read within the direct blocks (a directory's count) skips the
        // indirect one.
        let indirect_table = if last_block < DIRECT_POINTERS as u64 {
            Vec::new()
        } else {
            self.load_indirect_table(inode)?
        };
        for file_block in first_block..=last_block {
            let block_start = file_block * block_size;
            let copy_from = offset.max(block_start);
            let copy_to = end.min(block_start + block_size);
            let content = match self.file_block_ptr(inode, &indirect_table, file_block) {
                Some(ptr) => self.read_block_raw(ptr)?,
                None => vec![0u8; block_size as usize],
            };
            out.extend_from_slice(
                &content[(copy_from - block_start) as usize..(copy_to - block_start) as usize],
            );
        }
        Ok(out)
    }

    /// Reads the whole contents of an inode.
    ///
    /// # Errors
    ///
    /// Same as [`InodeFs::read`].
    pub fn read_all(&self, ino: Ino) -> Result<Vec<u8>, InodeError> {
        let inode = self.load_inode_checked(ino)?;
        self.read_inode(&inode, 0, inode.size as usize)
    }

    /// Shrinks (or sparsely extends) an inode to `new_size` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`InodeError::BadInode`] for invalid inodes.
    pub fn truncate(&self, ino: Ino, new_size: u64) -> Result<(), InodeError> {
        self.in_tx(|| {
            let mut state = self.state.lock();
            let mut inode = self.load_inode_checked(ino)?;
            let block_size = self.layout.block_size;
            let secure_free = state.superblock.secure_free;
            let mut freed_bits: Vec<u64> = Vec::new();

            if new_size < inode.size {
                let keep_blocks = new_size.div_ceil(block_size as u64);
                let total_blocks = inode.size.div_ceil(block_size as u64);
                let mut indirect_table = self.load_indirect_table(&inode)?;
                let mut indirect_dirty = false;
                for file_block in keep_blocks..total_blocks {
                    let ptr = if (file_block as usize) < DIRECT_POINTERS {
                        let p = inode.direct[file_block as usize];
                        inode.direct[file_block as usize] = 0;
                        p
                    } else {
                        let idx = file_block as usize - DIRECT_POINTERS;
                        let p = indirect_table[idx];
                        indirect_table[idx] = 0;
                        indirect_dirty = true;
                        p
                    };
                    if ptr != 0 {
                        state.data_bitmap.clear(ptr);
                        freed_bits.push(ptr);
                        if secure_free {
                            self.stage(ptr, vec![0u8; block_size]);
                        }
                    }
                }
                // Free the indirect block itself if no indirect pointer remains.
                if inode.indirect != 0 && indirect_table.iter().all(|&p| p == 0) {
                    state.data_bitmap.clear(inode.indirect);
                    freed_bits.push(inode.indirect);
                    if secure_free {
                        self.stage(inode.indirect, vec![0u8; block_size]);
                    }
                    inode.indirect = 0;
                } else if indirect_dirty && inode.indirect != 0 {
                    self.stage(inode.indirect, self.encode_indirect_table(&indirect_table));
                }
            }

            inode.size = new_size;
            inode.modified_at = state.op_counter;
            state.op_counter += 1;
            if let Some(sanitizer) = self.device.sanitizer() {
                for &block in &freed_bits {
                    sanitizer.note_free(block);
                }
            }
            self.stage_inode(ino, &inode)?;
            self.stage_data_bitmap(&state, &freed_bits);
            Ok(())
        })
    }

    /// Replaces the whole contents of `ino` with `data`, atomically.
    ///
    /// # Errors
    ///
    /// Same as [`InodeFs::write`] and [`InodeFs::truncate`].
    pub fn write_replace(&self, ino: Ino, data: &[u8]) -> Result<(), InodeError> {
        self.in_tx(|| {
            self.write(ino, 0, data)?;
            self.truncate(ino, data.len() as u64)
        })
    }

    // ------------------------------------------------------------------
    // Directories
    // ------------------------------------------------------------------

    /// Lists the `(name, inode)` entries of a directory.
    ///
    /// # Errors
    ///
    /// Returns [`InodeError::Directory`] when `dir` is not a directory and
    /// [`InodeError::Corrupt`] when its contents fail to decode or do not end
    /// where its last counted entry does.
    pub fn dir_entries(&self, dir: Ino) -> Result<Vec<(String, Ino)>, InodeError> {
        DirScan::new(&self.read_dir(dir)?)?
            .map(|entry| {
                let (name, ino) = entry?;
                let name = String::from_utf8(name.to_vec()).map_err(|_| corrupt_dir())?;
                Ok((name, ino))
            })
            .collect()
    }

    /// The encoded contents of a directory: `u32 count`, then per entry
    /// `u16 len · name · u64 ino`, the last counted entry ending at the
    /// file's size (the size rule: every update writes the entries and the
    /// count in one transaction).
    fn read_dir(&self, dir: Ino) -> Result<Vec<u8>, InodeError> {
        let inode = self.stat_dir(dir)?;
        self.read_inode(&inode, 0, inode.size as usize)
    }

    /// [`InodeFs::stat`] of an inode that must be a directory.
    fn stat_dir(&self, dir: Ino) -> Result<Inode, InodeError> {
        let inode = self.stat(dir)?;
        if inode.kind != InodeKind::Directory && inode.kind != InodeKind::Table {
            return Err(InodeError::Directory {
                reason: format!("inode {dir} is a {} not a directory", inode.kind),
            });
        }
        Ok(inode)
    }

    /// Adds an entry to a directory: the new entry is written at the file's
    /// end and the count is bumped, reading only the count, whatever the
    /// directory's size — a constant number of blocks read and staged.
    ///
    /// The caller guarantees `name` is not in `dir` yet: nothing here looks
    /// for it, and a duplicate would be stored as a second entry.
    ///
    /// # Errors
    ///
    /// Returns [`InodeError::Directory`] when `dir` is not a directory and on
    /// a name too long for the entry's 16-bit length prefix.
    pub fn dir_add(&self, dir: Ino, name: &str, ino: Ino) -> Result<(), InodeError> {
        let name_len = u16::try_from(name.len()).map_err(|_| InodeError::Directory {
            reason: format!("a name of {} bytes does not fit an entry", name.len()),
        })?;
        self.in_tx(|| {
            let inode = self.stat_dir(dir)?;
            let count = DirScan::new(&self.read_inode(&inode, 0, 4)?)?.left + 1;
            let entry = [&name_len.to_le_bytes(), name.as_bytes(), &ino.to_le_bytes()].concat();
            let end = inode.size.max(4);
            self.write_extents(dir, &[(end, &entry), (0, &count.to_le_bytes())])
        })
    }

    /// Looks up an entry by name.
    ///
    /// # Errors
    ///
    /// Propagates directory decoding errors.
    pub fn dir_lookup(&self, dir: Ino, name: &str) -> Result<Option<Ino>, InodeError> {
        for entry in DirScan::new(&self.read_dir(dir)?)? {
            let (entry_name, ino) = entry?;
            if entry_name == name.as_bytes() {
                return Ok(Some(ino));
            }
        }
        Ok(None)
    }

    /// Removes an entry by name, returning the inode it pointed to.  The
    /// entries after it move left over it and the directory is cut to its
    /// new end, in one transaction: only the blocks from the entry to the
    /// last counted entry's end are written (and the count's).
    ///
    /// # Errors
    ///
    /// Returns [`InodeError::Directory`] when the entry does not exist and
    /// [`InodeError::Corrupt`] when the directory fails to decode or breaks
    /// the size rule.
    pub fn dir_remove(&self, dir: Ino, name: &str) -> Result<Ino, InodeError> {
        self.in_tx(|| {
            let data = self.read_dir(dir)?;
            let mut scan = DirScan::new(&data)?;
            let count = scan.left;
            let (mut start, mut removed) = (scan.offset, None);
            while let Some(entry) = scan.next() {
                let (entry_name, ino) = entry?;
                if removed.is_none() && entry_name == name.as_bytes() {
                    removed = Some((start..scan.offset, ino));
                }
                start = scan.offset;
            }
            let (entry, ino) = removed.ok_or_else(|| InodeError::Directory {
                reason: format!("entry `{name}` does not exist"),
            })?;
            let count = (count - 1).to_le_bytes();
            let moved = &data[entry.end..scan.offset];
            self.write_extents(dir, &[(0, &count), (entry.start as u64, moved)])?;
            self.truncate(dir, (scan.offset - entry.len()) as u64)?;
            Ok(ino)
        })
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Loads an allocated inode.  Takes no lock of the filesystem's own: the
    /// inode's `is_free()` says what the allocation bitmap says at every
    /// commit point (and, through the overlay, inside the owner's
    /// transaction), since each is only ever staged together with the other.
    fn load_inode_checked(&self, ino: Ino) -> Result<Inode, InodeError> {
        if ino >= self.layout.inode_count {
            return Err(InodeError::BadInode { ino });
        }
        let (block, offset) = self.layout.inode_location(ino);
        let data = self.read_block_raw(block)?;
        let inode = Inode::decode(&data[offset..offset + INODE_SIZE])?;
        if inode.is_free() {
            return Err(InodeError::BadInode { ino });
        }
        Ok(inode)
    }

    /// Stages `inode` into its inode-table block — the staged copy when the
    /// transaction already holds one.
    fn stage_inode(&self, ino: Ino, inode: &Inode) -> Result<(), InodeError> {
        let (block, offset) = self.layout.inode_location(ino);
        let mut content = self.read_block_raw(block)?;
        content[offset..offset + INODE_SIZE].copy_from_slice(&inode.encode());
        self.stage(block, content);
        Ok(())
    }

    fn stage_inode_bitmap(&self, state: &FsState, ino: Ino) {
        let block_size = self.layout.block_size;
        let rel = state.inode_bitmap.block_of(ino, block_size);
        let abs = self.layout.inode_bitmap_start + rel;
        self.stage(abs, state.inode_bitmap.block_bytes(rel, block_size));
    }

    fn stage_data_bitmap(&self, state: &FsState, bits: &[u64]) {
        let block_size = self.layout.block_size;
        let mut rel_blocks: Vec<u64> = bits
            .iter()
            .map(|&bit| state.data_bitmap.block_of(bit, block_size))
            .collect();
        rel_blocks.sort_unstable();
        rel_blocks.dedup();
        for rel in rel_blocks {
            let abs = self.layout.data_bitmap_start + rel;
            self.stage(abs, state.data_bitmap.block_bytes(rel, block_size));
        }
    }

    fn allocate_data_block(
        &self,
        state: &mut FsState,
        allocated: &mut Vec<u64>,
    ) -> Result<u64, InodeError> {
        let block = state.data_bitmap.allocate_from(self.layout.data_start)?;
        if !self.layout.is_data_block(block) {
            // The bitmap wrapped into the metadata region: the data region is
            // genuinely full.
            state.data_bitmap.clear(block);
            return Err(InodeError::OutOfSpace);
        }
        allocated.push(block);
        if let Some(sanitizer) = self.device.sanitizer() {
            sanitizer.note_alloc(block);
        }
        Ok(block)
    }

    /// Re-aligns an attached block sanitizer's allocation map with the
    /// in-memory data bitmap `now`.  Called wherever the bitmap is replaced
    /// wholesale (rollback, abort) rather than mutated incrementally.  A
    /// block set in `begun` (at `begin_tx`) and clear in `now` stays
    /// `Freed`: the commit's secure-free zero write to it is legitimate.
    fn sanitizer_reseed(&self, now: &Bitmap, begun: &Bitmap) {
        if let Some(sanitizer) = self.device.sanitizer() {
            sanitizer.reseed_with(|block| now.is_set(block));
            let freed = (self.layout.data_start..self.layout.total_blocks)
                .filter(|&block| begun.is_set(block) && !now.is_set(block));
            freed.for_each(|block| sanitizer.note_free(block));
        }
    }

    /// Walks the whole inode table and returns every data block the bitmap
    /// marks allocated but no live inode references — leaked blocks.
    ///
    /// This is the unmount-time leak check of the block-sanitizer suite:
    /// the crash harness runs it after every recovery to prove that no
    /// crash point strands an allocation.  Must not be called with a
    /// compound transaction open (staged allocations are not yet reachable
    /// from any on-disk inode).
    ///
    /// # Errors
    ///
    /// Propagates device and decode errors from the inode-table walk.
    pub fn leaked_data_blocks(&self) -> Result<Vec<u64>, InodeError> {
        let state = self.state.lock();
        let mut reachable = std::collections::HashSet::new();
        for ino in 0..state.superblock.inode_count {
            if !state.inode_bitmap.is_set(ino) {
                continue;
            }
            let inode = self.load_inode_checked(ino)?;
            for &ptr in &inode.direct {
                if ptr != 0 {
                    reachable.insert(ptr);
                }
            }
            if inode.indirect != 0 {
                reachable.insert(inode.indirect);
                for ptr in self.load_indirect_table(&inode)? {
                    if ptr != 0 {
                        reachable.insert(ptr);
                    }
                }
            }
        }
        let mut leaked = Vec::new();
        for block in self.layout.data_start..self.layout.total_blocks {
            if state.data_bitmap.is_set(block) && !reachable.contains(&block) {
                leaked.push(block);
            }
        }
        Ok(leaked)
    }

    fn load_indirect_table(&self, inode: &Inode) -> Result<Vec<u64>, InodeError> {
        let entries = self.layout.block_size / 8;
        if inode.indirect == 0 {
            return Ok(vec![0u64; entries]);
        }
        let data = self.read_block_raw(inode.indirect)?;
        Ok(data
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect())
    }

    fn encode_indirect_table(&self, table: &[u64]) -> Vec<u8> {
        table.iter().flat_map(|ptr| ptr.to_le_bytes()).collect()
    }

    fn file_block_ptr(
        &self,
        inode: &Inode,
        indirect_table: &[u64],
        file_block: u64,
    ) -> Option<u64> {
        let ptr = if (file_block as usize) < DIRECT_POINTERS {
            inode.direct[file_block as usize]
        } else {
            *indirect_table.get(file_block as usize - DIRECT_POINTERS)?
        };
        if ptr == 0 {
            None
        } else {
            Some(ptr)
        }
    }

    /// Step 2 of [`InodeFs::commit_journaled`]: writes `blocks` in place.
    /// The blocks' cache entries are dropped first and re-installed only
    /// after the flush barrier, so the cache never runs ahead of (or goes
    /// stale behind) the device, whatever write the crash lands on.
    /// Re-installing (rather than leaving the blocks uncached) also
    /// guarantees crypto-erasure reaches the cache — a tombstone or
    /// zero-on-free write replaces whatever plaintext the cache held for
    /// that block.
    fn apply_in_place(
        &self,
        trace: Option<&FsTrace>,
        blocks: BTreeMap<u64, Vec<u8>>,
    ) -> Result<(), InodeError> {
        let apply_span = trace.map(|t| t.tracer.span("fs_apply"));
        {
            let mut cache = self.cache.lock();
            for &target in blocks.keys() {
                cache.invalidate(target);
            }
        }
        for (&target, data) in &blocks {
            self.device.write_block(target, data)?;
        }
        drop(apply_span);
        let flush_span = trace.map(|t| t.tracer.span("fs_flush"));
        self.device.flush()?;
        drop(flush_span);
        let mut cache = self.cache.lock();
        for (target, data) in blocks {
            // `install_committed`, not `insert`: the epoch bump defeats a
            // racing miss-fill that read the device before the in-place
            // write above and would otherwise re-install the pre-commit
            // bytes over this entry.
            cache.install_committed(target, data);
        }
        Ok(())
    }

    /// Journals and applies a transaction's staged blocks as **one** journal
    /// transaction (`commit_tx` has refused a set the journal cannot hold).
    fn commit_journaled(
        &self,
        state: &mut FsState,
        blocks: BTreeMap<u64, Vec<u8>>,
    ) -> Result<(), InodeError> {
        if blocks.is_empty() {
            return Ok(());
        }
        let block_size = self.layout.block_size;
        let trace = self.trace.get();
        let commit_span = trace.map(|t| t.tracer.span("fs_commit"));
        let commit_start = trace.map(|t| t.clock.now_us());
        let needed = blocks.len() as u64 + 2;
        let mut pos = state.superblock.journal_write_ptr;
        if pos + needed > self.layout.journal_blocks {
            pos = 0;
        }
        let tx_id = state.superblock.last_started_tx + 1;
        let targets: Vec<u64> = blocks.keys().copied().collect();

        // 1. Journal records.
        let journal_span = trace.map(|t| t.tracer.span("fs_journal"));
        let record = self.layout.journal_start + pos;
        self.device
            .write_block(record, &encode_header(tx_id, &targets, block_size))?;
        for (data, at) in blocks.values().zip(record + 1..) {
            self.device.write_block(at, data)?;
        }
        self.device.write_block(
            record + 1 + blocks.len() as u64,
            &encode_commit(tx_id, block_size),
        )?;
        self.device.flush()?;
        drop(journal_span);

        // 2. In-place application, inside an odd apply sequence — made even
        // again before a failed apply returns, or readers would wait forever.
        self.apply_seq.fetch_add(1, Ordering::SeqCst);
        let applied = self.apply_in_place(trace, blocks);
        self.apply_seq.fetch_add(1, Ordering::SeqCst);
        applied?;
        self.journal_txs.inc();

        // 3. Checkpoint record in the superblock.
        let checkpoint_span = trace.map(|t| t.tracer.span("fs_checkpoint"));
        state.superblock.last_started_tx = tx_id;
        state.superblock.last_applied_tx = tx_id;
        state.superblock.last_tx_offset = pos;
        state.superblock.journal_write_ptr = pos + needed;
        self.device
            .write_block(0, &state.superblock.encode(block_size))?;

        // 4. Optional scrubbing of the journal records.
        if state.superblock.journal_mode == JournalMode::Scrub {
            let zero = vec![0u8; block_size];
            for b in pos..pos + needed {
                self.device
                    .write_block(self.layout.journal_start + b, &zero)?;
            }
        }
        self.device.flush()?;
        drop(checkpoint_span);
        if let (Some(t), Some(start)) = (trace, commit_start) {
            t.commit_us.record(t.clock.now_us().saturating_sub(start));
        }
        drop(commit_span);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rgpdos_blockdev::{
        scan_for_pattern, FaultScript, FaultyDevice, MemDevice, SanitizedDevice,
    };
    use std::sync::Arc;

    fn small_fs() -> InodeFs<Arc<MemDevice>> {
        let device = Arc::new(MemDevice::new(512, 256));
        InodeFs::format(device, FormatParams::small(), JournalMode::Retain).unwrap()
    }

    /// [`small_fs`] with a journal that carries 29 blocks a transaction.
    fn roomy_journal_fs() -> InodeFs<Arc<MemDevice>> {
        let device = Arc::new(MemDevice::new(512, 256));
        let params = FormatParams::small().with_journal_blocks(32);
        InodeFs::format(device, params, JournalMode::Retain).unwrap()
    }

    #[test]
    fn format_creates_root_directory() {
        let fs = small_fs();
        let root = fs.stat(ROOT_INO).unwrap();
        assert_eq!(root.kind, InodeKind::Directory);
        assert_eq!(root.size, 0);
        assert_eq!(fs.dir_entries(ROOT_INO).unwrap().len(), 0);
        assert_eq!(fs.allocated_inodes(), 1);
    }

    #[test]
    fn attached_trace_records_commit_latency_and_phase_spans() {
        let device = Arc::new(MemDevice::new(512, 256));
        let device =
            rgpdos_blockdev::InstrumentedDevice::new(device, rgpdos_blockdev::LatencyModel::nvme());
        let fs = InodeFs::format(device, FormatParams::small(), JournalMode::Retain).unwrap();
        let ctx = TraceCtx::sim();
        fs.attach_trace(&ctx, &[("shard", "0")]);
        let before = fs.journal_txs();
        let ino = fs.alloc_inode(InodeKind::File).unwrap();
        fs.write(ino, 0, b"traced write").unwrap();
        assert!(fs.journal_txs() > before);
        // The adopted journal-tx counter reads the same atomic.
        let snap = ctx.snapshot(0);
        assert_eq!(
            snap.counters["fs_journal_txs{shard=\"0\"}"],
            fs.journal_txs()
        );
        // Each journaled commit recorded a latency sample; with a zero
        // latency model the device does not advance the sim clock, so the
        // count is what matters, not the values.
        let commit = &snap.histograms["fs_commit_latency_us{shard=\"0\"}"];
        assert_eq!(commit.count, fs.journal_txs());
        // Every commit produced the four phase spans under an fs_commit
        // parent.
        let spans = ctx.tracer.snapshot();
        let commit_spans: Vec<_> = spans.iter().filter(|s| s.name == "fs_commit").collect();
        assert_eq!(commit_spans.len() as u64, fs.journal_txs());
        for phase in ["fs_journal", "fs_apply", "fs_flush", "fs_checkpoint"] {
            let phase_spans: Vec<_> = spans.iter().filter(|s| s.name == phase).collect();
            assert_eq!(phase_spans.len() as u64, fs.journal_txs(), "{phase}");
            for s in phase_spans {
                let parent = s.parent.expect("phase spans nest under fs_commit");
                assert!(commit_spans.iter().any(|c| c.id == parent));
            }
        }
        // Cache counters are adopted too.
        let _ = fs.read_all(ino).unwrap();
        let stats = fs.cache_stats();
        let snap = ctx.snapshot(0);
        assert_eq!(snap.counters["fs_cache_hits{shard=\"0\"}"], stats.hits);
        assert_eq!(snap.counters["fs_cache_misses{shard=\"0\"}"], stats.misses);
        assert_eq!(snap.gauges["fs_recovered_txs{shard=\"0\"}"], 0);
    }

    #[test]
    fn write_read_round_trip_small() {
        let fs = small_fs();
        let ino = fs.alloc_inode(InodeKind::File).unwrap();
        fs.write(ino, 0, b"hello world").unwrap();
        assert_eq!(fs.read_all(ino).unwrap(), b"hello world");
        assert_eq!(fs.stat(ino).unwrap().size, 11);
        // Overwrite in the middle.
        fs.write(ino, 6, b"rgpd!").unwrap();
        assert_eq!(fs.read_all(ino).unwrap(), b"hello rgpd!");
        // Partial read.
        assert_eq!(fs.read(ino, 6, 4).unwrap(), b"rgpd");
        // Read past EOF truncates.
        assert_eq!(fs.read(ino, 6, 100).unwrap(), b"rgpd!");
        assert_eq!(fs.read(ino, 100, 10).unwrap(), b"");
    }

    #[test]
    fn write_read_round_trip_large_crosses_indirect() {
        let fs = roomy_journal_fs();
        let ino = fs.alloc_inode(InodeKind::File).unwrap();
        // 256-byte blocks, 10 direct pointers -> anything beyond 2560 bytes
        // needs the indirect block.
        let data: Vec<u8> = (0..6000u32).map(|i| (i % 251) as u8).collect();
        fs.write(ino, 0, &data).unwrap();
        assert_eq!(fs.read_all(ino).unwrap(), data);
        let inode = fs.stat(ino).unwrap();
        assert_ne!(inode.indirect, 0);
        assert_eq!(inode.size, 6000);
    }

    #[test]
    fn sparse_writes_read_back_zeroes() {
        let fs = small_fs();
        let ino = fs.alloc_inode(InodeKind::File).unwrap();
        fs.write(ino, 1000, b"end").unwrap();
        let all = fs.read_all(ino).unwrap();
        assert_eq!(all.len(), 1003);
        assert!(all[..1000].iter().all(|&b| b == 0));
        assert_eq!(&all[1000..], b"end");
    }

    #[test]
    fn file_too_large_is_rejected() {
        let fs = small_fs();
        let ino = fs.alloc_inode(InodeKind::File).unwrap();
        let max = fs.layout().max_file_size();
        assert!(matches!(
            fs.write(ino, max, b"x"),
            Err(InodeError::FileTooLarge { .. })
        ));
    }

    #[test]
    fn out_of_space_is_reported() {
        // 96 total blocks leaves very few data blocks.
        let device = Arc::new(MemDevice::new(96, 256));
        let fs = InodeFs::format(
            device,
            FormatParams::small().with_journal_blocks(8),
            JournalMode::Retain,
        )
        .unwrap();
        let ino = fs.alloc_inode(InodeKind::File).unwrap();
        let mut wrote = 0u64;
        let err = loop {
            match fs.write(ino, wrote, &[7u8; 256]) {
                Ok(()) => wrote += 256,
                Err(e) => break e,
            }
        };
        assert!(matches!(
            err,
            InodeError::OutOfSpace | InodeError::FileTooLarge { .. }
        ));
    }

    #[test]
    fn a_plain_write_that_runs_out_of_space_leaves_the_allocation_as_it_was() {
        let device = Arc::new(MemDevice::new(96, 256));
        let params = FormatParams::small().with_journal_blocks(8);
        let fs = InodeFs::format(device, params, JournalMode::Retain).unwrap();
        let total = fs.layout().total_blocks;
        // Direct blocks only, one a write, until a single block is left.
        'fill: loop {
            let ino = fs.alloc_inode(InodeKind::File).unwrap();
            for block in 0..DIRECT_POINTERS as u64 {
                if fs.allocated_blocks() == total - 1 {
                    break 'fill;
                }
                fs.write(ino, block * 256, &[7; 256]).unwrap();
            }
        }
        let last = fs.alloc_inode(InodeKind::File).unwrap();
        assert_eq!(fs.write(last, 0, &[9; 1_024]), Err(InodeError::OutOfSpace));
        assert_eq!(fs.allocated_blocks(), total - 1);
        assert_eq!(fs.leaked_data_blocks().unwrap(), []);
        assert_eq!(fs.stat(last).unwrap().size, 0);
    }

    #[test]
    fn truncate_frees_blocks() {
        let fs = roomy_journal_fs();
        let ino = fs.alloc_inode(InodeKind::File).unwrap();
        let data = vec![0xAB; 4000];
        fs.write(ino, 0, &data).unwrap();
        let before = fs.allocated_blocks();
        fs.truncate(ino, 100).unwrap();
        let after = fs.allocated_blocks();
        assert!(after < before);
        assert_eq!(fs.stat(ino).unwrap().size, 100);
        assert_eq!(fs.read_all(ino).unwrap(), vec![0xAB; 100]);
        // Sparse extension.
        fs.truncate(ino, 500).unwrap();
        assert_eq!(fs.stat(ino).unwrap().size, 500);
    }

    #[test]
    fn free_inode_releases_everything() {
        let fs = small_fs();
        let ino = fs.alloc_inode(InodeKind::Record).unwrap();
        fs.write(ino, 0, &[1u8; 1000]).unwrap();
        let blocks_before = fs.allocated_blocks();
        fs.free_inode(ino).unwrap();
        assert!(fs.allocated_blocks() < blocks_before);
        assert!(matches!(fs.stat(ino), Err(InodeError::BadInode { .. })));
        // The inode number is recycled.
        let again = fs.alloc_inode(InodeKind::File).unwrap();
        assert_eq!(again, ino);
    }

    #[test]
    fn bad_inode_operations_fail() {
        let fs = small_fs();
        assert!(matches!(fs.stat(63), Err(InodeError::BadInode { .. })));
        assert!(matches!(fs.stat(9999), Err(InodeError::BadInode { .. })));
        assert!(matches!(
            fs.write(9999, 0, b"x"),
            Err(InodeError::BadInode { .. })
        ));
        assert!(matches!(
            fs.read(63, 0, 1),
            Err(InodeError::BadInode { .. })
        ));
    }

    #[test]
    fn directories_add_lookup_remove() {
        let fs = small_fs();
        let a = fs.alloc_inode(InodeKind::File).unwrap();
        let b = fs.alloc_inode(InodeKind::File).unwrap();
        fs.dir_add(ROOT_INO, "users.table", a).unwrap();
        fs.dir_add(ROOT_INO, "orders.table", b).unwrap();
        assert_eq!(fs.dir_lookup(ROOT_INO, "users.table").unwrap(), Some(a));
        assert_eq!(fs.dir_lookup(ROOT_INO, "missing").unwrap(), None);
        assert_eq!(fs.dir_entries(ROOT_INO).unwrap().len(), 2);
        assert_eq!(fs.dir_remove(ROOT_INO, "users.table").unwrap(), a);
        assert_eq!(fs.dir_entries(ROOT_INO).unwrap().len(), 1);
        assert!(matches!(
            fs.dir_remove(ROOT_INO, "users.table"),
            Err(InodeError::Directory { .. })
        ));
        // A plain file is not a directory, to read or to add to.
        assert!(matches!(
            fs.dir_entries(a),
            Err(InodeError::Directory { .. })
        ));
        assert!(matches!(
            fs.dir_add(a, "users.table", b),
            Err(InodeError::Directory { .. })
        ));
    }

    #[test]
    fn many_directory_entries_round_trip() {
        let fs = InodeFs::format(
            Arc::new(MemDevice::new(2048, 256)),
            FormatParams::small().with_inode_count(256),
            JournalMode::Retain,
        )
        .unwrap();
        for i in 0..100u64 {
            let ino = fs.alloc_inode(InodeKind::File).unwrap();
            fs.dir_add(ROOT_INO, &format!("entry-{i:03}"), ino).unwrap();
        }
        let entries = fs.dir_entries(ROOT_INO).unwrap();
        assert_eq!(entries.len(), 100);
        assert!(entries.iter().any(|(n, _)| n == "entry-042"));
    }

    #[test]
    fn remount_preserves_data() {
        let device = Arc::new(MemDevice::new(512, 256));
        let ino;
        {
            let fs = InodeFs::format(
                Arc::clone(&device),
                FormatParams::small(),
                JournalMode::Retain,
            )
            .unwrap();
            ino = fs.alloc_inode(InodeKind::File).unwrap();
            fs.write(ino, 0, b"persistent bytes").unwrap();
            fs.dir_add(ROOT_INO, "file", ino).unwrap();
        }
        let fs = InodeFs::mount(Arc::clone(&device)).unwrap();
        assert_eq!(fs.read_all(ino).unwrap(), b"persistent bytes");
        assert_eq!(fs.dir_lookup(ROOT_INO, "file").unwrap(), Some(ino));
        assert_eq!(fs.allocated_inodes(), 2);
    }

    #[test]
    fn mount_rejects_unformatted_device() {
        let device = Arc::new(MemDevice::new(64, 256));
        assert!(matches!(
            InodeFs::mount(device),
            Err(InodeError::Corrupt { .. })
        ));
    }

    #[test]
    fn journal_retain_leaves_deleted_data_on_device() {
        let device = Arc::new(MemDevice::new(512, 256));
        let fs = InodeFs::format(
            Arc::clone(&device),
            FormatParams::small(),
            JournalMode::Retain,
        )
        .unwrap();
        let ino = fs.alloc_inode(InodeKind::File).unwrap();
        fs.write(ino, 0, b"SENSITIVE-SSN-1-23-45").unwrap();
        fs.free_inode(ino).unwrap();
        // The paper's point: the data is still on the raw device (journal
        // and/or unzeroed data blocks).
        let hits = scan_for_pattern(device.as_ref(), b"SENSITIVE-SSN-1-23-45").unwrap();
        assert!(!hits.is_empty(), "retain mode should leave residue");
    }

    #[test]
    fn scrub_and_secure_free_remove_all_residue() {
        let device = Arc::new(MemDevice::new(512, 256));
        let fs = InodeFs::format(
            Arc::clone(&device),
            FormatParams::small().with_secure_free(true),
            JournalMode::Scrub,
        )
        .unwrap();
        let ino = fs.alloc_inode(InodeKind::File).unwrap();
        fs.write(ino, 0, b"SENSITIVE-SSN-1-23-45").unwrap();
        fs.free_inode(ino).unwrap();
        let hits = scan_for_pattern(device.as_ref(), b"SENSITIVE-SSN-1-23-45").unwrap();
        assert!(hits.is_empty(), "scrub + secure free must leave no residue");
    }

    #[test]
    fn secure_free_survives_a_remount() {
        let device = Arc::new(MemDevice::new(512, 256));
        let params = FormatParams::small().with_secure_free(true);
        let fs = InodeFs::format(Arc::clone(&device), params, JournalMode::Scrub).unwrap();
        let ino = fs.alloc_inode(InodeKind::File).unwrap();
        fs.write(ino, 0, b"SENSITIVE-SSN-1-23-45").unwrap();
        fs.dir_add(ROOT_INO, "pd", ino).unwrap();
        drop(fs);
        let fs = InodeFs::mount(Arc::clone(&device)).unwrap();
        assert!(fs.secure_free());
        fs.free_inode(fs.dir_remove(ROOT_INO, "pd").unwrap())
            .unwrap();
        let hits = scan_for_pattern(device.as_ref(), b"SENSITIVE-SSN-1-23-45").unwrap();
        assert!(hits.is_empty(), "a remount forgot to zero on free");
    }

    #[test]
    fn a_secure_free_file_grows_only_as_far_as_its_removal_fits_one_transaction() {
        // 512 B blocks: the inode addresses 74 blocks, a journal
        // transaction carries 61.
        let device = Arc::new(MemDevice::new(1_024, 512));
        let params = FormatParams::small()
            .with_journal_blocks(64)
            .with_secure_free(true);
        let fs = InodeFs::format(Arc::clone(&device), params, JournalMode::Scrub).unwrap();
        let ino = fs.alloc_inode(InodeKind::File).unwrap();
        fs.dir_add(ROOT_INO, "log", ino).unwrap();
        let chunk = b"SENSITIVE-LOG-16".repeat(32);
        let append_to_the_cap = || {
            let mut size = 0;
            let refusal = loop {
                match fs.write(ino, size, &chunk) {
                    Ok(()) => size += chunk.len() as u64,
                    Err(e) => break e,
                }
            };
            assert_eq!(
                refusal,
                InodeError::TxTooLarge {
                    staged: 62,
                    capacity: 61
                }
            );
            // 55 data blocks, the indirect one, a data-bitmap block and four
            // more (two of the file's, two of its directory's): 61.
            assert_eq!(size, 55 * 512);
        };
        append_to_the_cap();
        fs.write_replace(ino, b"short").unwrap();
        assert_eq!(fs.stat(ino).unwrap().size, 5);
        append_to_the_cap();
        let tx = fs.begin_tx();
        fs.free_inode(fs.dir_remove(ROOT_INO, "log").unwrap())
            .unwrap();
        tx.commit().unwrap();
        let residue = scan_for_pattern(device.as_ref(), b"SENSITIVE-LOG-16").unwrap();
        assert_eq!(residue, []);
        assert_eq!(fs.allocated_inodes(), 1);
        assert_eq!(fs.leaked_data_blocks().unwrap(), []);
    }

    #[test]
    fn crash_between_commit_and_apply_is_recovered() {
        // Run a workload against a pristine device, then simulate a crash by
        // replaying only a prefix of the writes onto a twin device and
        // mounting it.  Whatever the prefix, mount must succeed and the
        // filesystem must be consistent (root directory readable).
        let reference = Arc::new(MemDevice::new(512, 256));
        let fs = InodeFs::format(
            Arc::clone(&reference),
            FormatParams::small(),
            JournalMode::Retain,
        )
        .unwrap();
        let ino = fs.alloc_inode(InodeKind::File).unwrap();
        fs.write(ino, 0, &[0x5A; 700]).unwrap();
        fs.dir_add(ROOT_INO, "f", ino).unwrap();

        // The faulty device crashes after a limited number of writes.
        for crash_after in [1u64, 3, 5, 8, 13, 21] {
            let twin = Arc::new(MemDevice::new(512, 256));
            let faulty = FaultyDevice::new(
                Arc::clone(&twin),
                FaultScript::crash_after_writes(crash_after),
            );
            let fs2 = InodeFs::format(faulty, FormatParams::small(), JournalMode::Retain);
            // Format itself may crash for small limits; that is fine — the
            // device is then unformatted and unmountable, which is a
            // legitimate outcome of crashing during mkfs.
            let Ok(fs2) = fs2 else { continue };
            let r1 = fs2.alloc_inode(InodeKind::File);
            let _ = r1.map(|ino2| fs2.write(ino2, 0, &[0xA5; 700]));
            // Remount the underlying (revived) device and check consistency.
            let remounted = InodeFs::mount(Arc::clone(&twin));
            if let Ok(remounted) = remounted {
                let _ = remounted.dir_entries(ROOT_INO).unwrap();
                // Any inode the bitmap says is allocated must decode.
                for candidate in 0..remounted.layout().inode_count {
                    let _ = remounted.stat(candidate);
                }
            }
        }
    }

    #[test]
    fn journal_replay_applies_committed_tx() {
        // Build a committed-but-unapplied transaction by hand: write the
        // journal records directly, leave the target block stale, then mount.
        let device = Arc::new(MemDevice::new(512, 256));
        let fs = InodeFs::format(
            Arc::clone(&device),
            FormatParams::small(),
            JournalMode::Retain,
        )
        .unwrap();
        let ino = fs.alloc_inode(InodeKind::File).unwrap();
        fs.write(ino, 0, b"old-contents!").unwrap();
        let inode = fs.stat(ino).unwrap();
        let data_block = inode.direct[0];
        let layout = fs.layout();
        let sb_pos = {
            let block0 = device.read_block(0).unwrap();
            Superblock::decode(&block0).unwrap()
        };
        drop(fs);

        // Forge the next transaction: change the data block contents.
        let tx_id = sb_pos.last_applied_tx + 1;
        let pos = sb_pos.journal_write_ptr;
        let mut new_content = vec![0u8; 256];
        new_content[..13].copy_from_slice(b"new-contents!");
        device
            .write_block(
                layout.journal_start + pos,
                &encode_header(tx_id, &[data_block], 256),
            )
            .unwrap();
        device
            .write_block(layout.journal_start + pos + 1, &new_content)
            .unwrap();
        device
            .write_block(layout.journal_start + pos + 2, &encode_commit(tx_id, 256))
            .unwrap();
        // Crash before in-place apply: the data block still holds the old bytes.

        let fs = InodeFs::mount(Arc::clone(&device)).unwrap();
        assert_eq!(&fs.read(ino, 0, 13).unwrap(), b"new-contents!");
    }

    #[test]
    fn write_replace_shrinks() {
        let fs = small_fs();
        let ino = fs.alloc_inode(InodeKind::File).unwrap();
        fs.write_replace(ino, &[1u8; 2000]).unwrap();
        assert_eq!(fs.stat(ino).unwrap().size, 2000);
        fs.write_replace(ino, b"tiny").unwrap();
        assert_eq!(fs.read_all(ino).unwrap(), b"tiny");
        assert_eq!(fs.stat(ino).unwrap().size, 4);
    }

    #[test]
    fn a_crash_inside_a_plain_write_replace_leaves_the_old_or_the_new_contents() {
        let image = || {
            let device = Arc::new(MemDevice::new(512, 256));
            let fs = InodeFs::format(
                Arc::clone(&device),
                FormatParams::small(),
                JournalMode::Retain,
            )
            .unwrap();
            let ino = fs.alloc_inode(InodeKind::File).unwrap();
            fs.write(ino, 0, &[b'A'; 1_000]).unwrap();
            (device, ino)
        };
        let (device, ino) = image();
        let probe = counted_fs(&device, FaultScript::none());
        let (total_writes, done) = probe
            .device()
            .writes_between(|| probe.write_replace(ino, &[b'B'; 300]));
        done.unwrap();
        for crash_after in 0..total_writes {
            let (device, ino) = image();
            let fs = counted_fs(&device, FaultScript::crash_after_writes(crash_after));
            assert!(fs.write_replace(ino, &[b'B'; 300]).is_err());
            drop(fs);
            let contents = InodeFs::mount(device).unwrap().read_all(ino).unwrap();
            assert!(
                contents == [b'A'; 1_000] || contents == [b'B'; 300],
                "crash point {crash_after}: neither the old nor the new contents"
            );
        }
    }

    #[test]
    fn empty_write_is_a_noop() {
        let fs = small_fs();
        let ino = fs.alloc_inode(InodeKind::File).unwrap();
        fs.write(ino, 0, b"").unwrap();
        assert_eq!(fs.stat(ino).unwrap().size, 0);
        assert!(fs.read(ino, 0, 0).unwrap().is_empty());
    }

    #[test]
    fn out_of_inodes() {
        let device = Arc::new(MemDevice::new(512, 256));
        let fs = InodeFs::format(
            device,
            FormatParams::small().with_inode_count(4),
            JournalMode::Retain,
        )
        .unwrap();
        // Root occupies one of the four.
        assert!(fs.alloc_inode(InodeKind::File).is_ok());
        assert!(fs.alloc_inode(InodeKind::File).is_ok());
        assert!(fs.alloc_inode(InodeKind::File).is_ok());
        assert!(matches!(
            fs.alloc_inode(InodeKind::File),
            Err(InodeError::OutOfInodes)
        ));
    }

    #[test]
    fn compound_tx_groups_ops_and_reads_see_overlay() {
        let fs = small_fs();
        let tx = fs.begin_tx();
        let a = fs.alloc_inode(InodeKind::File).unwrap();
        fs.write(a, 0, b"staged contents").unwrap();
        fs.dir_add(ROOT_INO, "a", a).unwrap();
        // Reads inside the transaction observe the staged writes.
        assert_eq!(fs.read_all(a).unwrap(), b"staged contents");
        assert_eq!(fs.dir_lookup(ROOT_INO, "a").unwrap(), Some(a));
        tx.commit().unwrap();
        assert_eq!(fs.read_all(a).unwrap(), b"staged contents");
        assert_eq!(fs.dir_lookup(ROOT_INO, "a").unwrap(), Some(a));
    }

    #[test]
    fn aborted_tx_leaves_the_device_untouched() {
        let device = Arc::new(MemDevice::new(512, 256));
        let fs = InodeFs::format(
            Arc::clone(&device),
            FormatParams::small(),
            JournalMode::Retain,
        )
        .unwrap();
        {
            let _tx = fs.begin_tx();
            let ino = fs.alloc_inode(InodeKind::File).unwrap();
            fs.write(ino, 0, b"never committed").unwrap();
            fs.dir_add(ROOT_INO, "ghost", ino).unwrap();
            // Guard dropped without commit -> abort.
        }
        // Nothing reached the device: a remount sees an empty root.
        drop(fs);
        let fs = InodeFs::mount(device).unwrap();
        assert_eq!(fs.dir_entries(ROOT_INO).unwrap().len(), 0);
        assert_eq!(fs.allocated_inodes(), 1);
    }

    #[test]
    fn aborted_tx_rolls_back_bitmap_frees() {
        // A truncate inside an aborted transaction frees blocks in memory
        // only; the rollback must restore them as allocated, or a later
        // allocation would clobber data the on-disk inode still references.
        let fs = small_fs();
        let a = fs.alloc_inode(InodeKind::File).unwrap();
        fs.write(a, 0, &[0xEE; 1000]).unwrap();
        let before = fs.allocated_blocks();
        {
            let _tx = fs.begin_tx();
            fs.truncate(a, 0).unwrap();
            // Guard dropped without commit -> abort.
        }
        assert_eq!(fs.allocated_blocks(), before, "freed bits are restored");
        assert_eq!(fs.stat(a).unwrap().size, 1000);
        let b = fs.alloc_inode(InodeKind::File).unwrap();
        fs.write(b, 0, &[0x11; 1000]).unwrap();
        assert_eq!(
            fs.read_all(a).unwrap(),
            vec![0xEE; 1000],
            "a post-abort allocation must not reuse still-referenced blocks"
        );
    }

    #[test]
    fn compound_tx_is_crash_atomic_at_every_write_index() {
        // A compound mutation (new inode + data + directory entry) under a
        // crash at every write index: after remount the filesystem either
        // shows the whole mutation or none of it.
        let probe_device = Arc::new(MemDevice::new(512, 256));
        let mutate = |fs: &InodeFs<FaultyDevice<Arc<MemDevice>>>| -> Result<(), InodeError> {
            let tx = fs.begin_tx();
            let ino = fs.alloc_inode(InodeKind::File)?;
            fs.write(ino, 0, &[0xCD; 700])?;
            fs.dir_add(ROOT_INO, "atomic", ino)?;
            tx.commit()
        };
        InodeFs::format(
            Arc::clone(&probe_device),
            FormatParams::small(),
            JournalMode::Retain,
        )
        .unwrap();
        let probe = InodeFs::mount(FaultyDevice::new(
            Arc::clone(&probe_device),
            FaultScript::none(),
        ))
        .unwrap();
        let (total_writes, result) = probe.device().writes_between(|| mutate(&probe));
        result.unwrap();
        assert!(total_writes > 4, "the compound mutation spans many writes");

        let mut outcomes = [0usize; 2];
        for crash_after in 0..total_writes {
            let device = Arc::new(MemDevice::new(512, 256));
            InodeFs::format(
                Arc::clone(&device),
                FormatParams::small(),
                JournalMode::Retain,
            )
            .unwrap();
            let fs = InodeFs::mount(FaultyDevice::new(
                Arc::clone(&device),
                FaultScript::crash_after_writes(crash_after),
            ))
            .unwrap();
            assert!(mutate(&fs).is_err(), "crash point {crash_after} must trip");
            drop(fs);
            let fs = InodeFs::mount(Arc::clone(&device)).unwrap();
            match fs.dir_lookup(ROOT_INO, "atomic").unwrap() {
                Some(ino) => {
                    assert_eq!(
                        fs.read_all(ino).unwrap(),
                        vec![0xCD; 700],
                        "crash point {crash_after}: entry visible but data torn"
                    );
                    outcomes[1] += 1;
                }
                None => outcomes[0] += 1,
            }
        }
        // Crashes before the journal commit roll back; crashes after it roll
        // forward at mount.  Both outcomes must actually occur in the sweep.
        assert!(outcomes[0] > 0, "some crash points roll back");
        assert!(outcomes[1] > 0, "some crash points roll forward via replay");
    }

    #[test]
    fn mount_counts_replayed_transactions() {
        let device = Arc::new(MemDevice::new(512, 256));
        let fs = InodeFs::format(
            Arc::clone(&device),
            FormatParams::small(),
            JournalMode::Retain,
        )
        .unwrap();
        assert_eq!(fs.recovered_txs(), 0);
        let ino = fs.alloc_inode(InodeKind::File).unwrap();
        fs.write(ino, 0, b"old-contents!").unwrap();
        let inode = fs.stat(ino).unwrap();
        let data_block = inode.direct[0];
        let layout = fs.layout();
        let sb = {
            let block0 = device.read_block(0).unwrap();
            Superblock::decode(&block0).unwrap()
        };
        drop(fs);
        // Forge a committed-but-unapplied transaction, as after a crash
        // between journal commit and in-place apply.
        let tx_id = sb.last_applied_tx + 1;
        let pos = sb.journal_write_ptr;
        let mut new_content = vec![0u8; 256];
        new_content[..13].copy_from_slice(b"new-contents!");
        device
            .write_block(
                layout.journal_start + pos,
                &encode_header(tx_id, &[data_block], 256),
            )
            .unwrap();
        device
            .write_block(layout.journal_start + pos + 1, &new_content)
            .unwrap();
        device
            .write_block(layout.journal_start + pos + 2, &encode_commit(tx_id, 256))
            .unwrap();
        let fs = InodeFs::mount(Arc::clone(&device)).unwrap();
        assert_eq!(fs.recovered_txs(), 1);
        assert_eq!(&fs.read(ino, 0, 13).unwrap(), b"new-contents!");
        // A clean remount reports zero.
        drop(fs);
        assert_eq!(InodeFs::mount(device).unwrap().recovered_txs(), 0);
    }

    #[test]
    fn tx_capacity_reflects_journal_and_block_size() {
        let fs = small_fs();
        // 256-byte blocks -> 29 header targets; 16 journal blocks -> 14.
        assert_eq!(fs.tx_capacity_blocks(), 14);
    }

    #[test]
    fn buffer_cache_serves_repeated_reads_and_stays_coherent() {
        let device = Arc::new(MemDevice::new(512, 256));
        let fs = InodeFs::format(
            Arc::clone(&device),
            FormatParams::small(),
            JournalMode::Retain,
        )
        .unwrap();
        let ino = fs.alloc_inode(InodeKind::File).unwrap();
        fs.write(ino, 0, b"cache me").unwrap();
        // Repeated reads hit the cache (the commit installed the block).
        for _ in 0..5 {
            assert_eq!(fs.read(ino, 0, 8).unwrap(), b"cache me");
        }
        let warm = fs.cache_stats();
        assert!(warm.hits > 0, "repeated reads must hit the cache: {warm}");
        // An overwrite through the journal updates the cached copy.
        fs.write(ino, 0, b"fresh!!!").unwrap();
        assert_eq!(fs.read(ino, 0, 8).unwrap(), b"fresh!!!");
        // The cached copy equals the device copy for every cached block.
        let data_block = fs.stat(ino).unwrap().direct[0];
        assert_eq!(
            fs.read(ino, 0, 8).unwrap(),
            device.read_block(data_block).unwrap()[..8].to_vec()
        );
        // Dropping the cache forces device reads again, same bytes.
        fs.drop_caches();
        assert_eq!(fs.cached_blocks(), 0);
        assert_eq!(fs.read(ino, 0, 8).unwrap(), b"fresh!!!");
        assert!(fs.cached_blocks() > 0);
    }

    #[test]
    fn secure_free_scrubs_the_cache_too() {
        let device = Arc::new(MemDevice::new(512, 256));
        let fs = InodeFs::format(
            Arc::clone(&device),
            FormatParams::small().with_secure_free(true),
            JournalMode::Scrub,
        )
        .unwrap();
        let ino = fs.alloc_inode(InodeKind::File).unwrap();
        fs.write(ino, 0, b"CACHED-SENSITIVE-PAYLOAD").unwrap();
        let _ = fs.read_all(ino).unwrap();
        assert!(fs.cache_contains(b"CACHED-SENSITIVE-PAYLOAD"));
        fs.free_inode(ino).unwrap();
        assert!(
            !fs.cache_contains(b"CACHED-SENSITIVE-PAYLOAD"),
            "zero-on-free must replace the cached plaintext as well"
        );
    }

    #[test]
    fn disabled_cache_behaves_identically() {
        let fs = small_fs();
        fs.set_cache_capacity(0);
        let ino = fs.alloc_inode(InodeKind::File).unwrap();
        fs.write(ino, 0, &[0x42; 700]).unwrap();
        assert_eq!(fs.read_all(ino).unwrap(), vec![0x42; 700]);
        assert_eq!(fs.cached_blocks(), 0);
    }

    #[test]
    fn journal_tx_counter_counts_commits() {
        let fs = small_fs();
        let before = fs.journal_txs();
        let tx = fs.begin_tx();
        let a = fs.alloc_inode(InodeKind::File).unwrap();
        fs.write(a, 0, b"one").unwrap();
        fs.dir_add(ROOT_INO, "a", a).unwrap();
        tx.commit().unwrap();
        // The whole compound mutation cost exactly one journal transaction.
        assert_eq!(fs.journal_txs(), before + 1);
        // Per-op commits cost one each.
        let b = fs.alloc_inode(InodeKind::File).unwrap();
        fs.write(b, 0, b"two").unwrap();
        assert_eq!(fs.journal_txs(), before + 3);
    }

    #[test]
    fn oversize_compound_tx_is_refused_and_aborted() {
        let fs = small_fs();
        let capacity = fs.tx_capacity_blocks();
        let a = fs.alloc_inode(InodeKind::File).unwrap();
        let before = fs.allocated_blocks();
        let big = vec![0xAB; 20 * 256];

        let tx = fs.begin_tx();
        fs.write(a, 0, &big).unwrap();
        let staged = fs.tx_staged_blocks();
        assert!(staged > capacity);
        assert_eq!(
            tx.commit(),
            Err(InodeError::TxTooLarge { staged, capacity })
        );
        // Aborted exactly like a dropped guard: nothing written, every
        // allocation undone.
        assert_eq!(fs.stat(a).unwrap().size, 0);
        assert_eq!(fs.allocated_blocks(), before);
        assert!(fs.leaked_data_blocks().unwrap().is_empty());

        // The refusal closed the transaction; the next one works.
        let tx = fs.begin_tx();
        fs.write(a, 0, b"fits").unwrap();
        tx.commit().unwrap();
        assert_eq!(fs.read_all(a).unwrap(), b"fits");

        // Outside a compound transaction the same call is a transaction of
        // its own, refused the same way.
        let before = fs.allocated_blocks();
        assert_eq!(
            fs.write(a, 0, &big),
            Err(InodeError::TxTooLarge { staged, capacity })
        );
        assert_eq!(fs.read_all(a).unwrap(), b"fits");
        assert_eq!(fs.allocated_blocks(), before);
        assert!(fs.leaked_data_blocks().unwrap().is_empty());
    }

    #[test]
    fn savepoint_rolls_back_staged_writes_and_allocations() {
        let fs = small_fs();
        let tx = fs.begin_tx();
        let a = fs.alloc_inode(InodeKind::File).unwrap();
        fs.write(a, 0, b"kept").unwrap();
        fs.dir_add(ROOT_INO, "kept", a).unwrap();
        let staged_before = fs.tx_staged_blocks();
        let inodes_before = fs.allocated_inodes();
        fs.tx_savepoint();
        let b = fs.alloc_inode(InodeKind::File).unwrap();
        fs.write(b, 0, &[0x77; 900]).unwrap();
        fs.dir_add(ROOT_INO, "dropped", b).unwrap();
        assert!(fs.tx_staged_blocks() > staged_before);
        fs.tx_rollback_to();
        assert_eq!(fs.tx_staged_blocks(), staged_before);
        assert_eq!(fs.allocated_inodes(), inodes_before);
        tx.commit().unwrap();
        // The pre-savepoint mutation committed; the rolled-back one left no
        // trace, and its inode number is allocatable again.
        assert_eq!(fs.dir_lookup(ROOT_INO, "kept").unwrap(), Some(a));
        assert_eq!(fs.dir_lookup(ROOT_INO, "dropped").unwrap(), None);
        assert_eq!(fs.alloc_inode(InodeKind::File).unwrap(), b);
    }

    #[test]
    fn a_rollback_keeps_what_the_transaction_freed_before_the_savepoint_freed() {
        let device = Arc::new(SanitizedDevice::new(MemDevice::new(512, 256)));
        let params = FormatParams::small().with_secure_free(true);
        let fs = InodeFs::format(Arc::clone(&device), params, JournalMode::Retain).unwrap();
        let shrunk = fs.alloc_inode(InodeKind::File).unwrap();
        let other = fs.alloc_inode(InodeKind::File).unwrap();
        fs.write(shrunk, 0, &[0xAB; 2_048]).unwrap();
        let tx = fs.begin_tx();
        fs.truncate(shrunk, 0).unwrap();
        fs.tx_savepoint();
        fs.write(other, 0, b"rolled back").unwrap();
        fs.tx_rollback_to();
        tx.commit().unwrap();
        // The commit zeroes the eight blocks the truncate freed: the
        // secure-free scrub, not a write to an unallocated block.
        assert_eq!(device.sanitizer().unwrap().violations(), []);
        assert_eq!(fs.stat(shrunk).unwrap().size, 0);
        assert!(fs.leaked_data_blocks().unwrap().is_empty());
    }

    #[test]
    fn journal_wraps_without_corruption() {
        let device = Arc::new(MemDevice::new(1024, 256));
        let fs = InodeFs::format(
            Arc::clone(&device),
            FormatParams::small().with_journal_blocks(8),
            JournalMode::Retain,
        )
        .unwrap();
        let ino = fs.alloc_inode(InodeKind::File).unwrap();
        // Each write journals several blocks; loop enough to wrap many times.
        for round in 0..50u64 {
            fs.write(ino, (round % 4) * 256, &[round as u8; 256])
                .unwrap();
        }
        assert_eq!(fs.stat(ino).unwrap().size, 1024);
        // Remount and verify data still reads back.
        drop(fs);
        let fs = InodeFs::mount(device).unwrap();
        assert_eq!(fs.stat(ino).unwrap().size, 1024);
    }

    /// The directory format stated apart from the product code — what the
    /// writer that rewrote a directory whole laid down: `u32 count`, then
    /// `u16 len · name · u64 ino` per entry.
    fn encode_dir_whole(entries: &[(String, Ino)]) -> Vec<u8> {
        let mut out = (entries.len() as u32).to_le_bytes().to_vec();
        for (name, ino) in entries {
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&ino.to_le_bytes());
        }
        out
    }

    fn numbered(range: std::ops::Range<u64>) -> Vec<(String, Ino)> {
        range
            .map(|i| (format!("entry-{i:05}"), 1_000 + i))
            .collect()
    }

    type CountedFs = InodeFs<FaultyDevice<Arc<MemDevice>>>;

    fn counted_fs(device: &Arc<MemDevice>, script: FaultScript) -> CountedFs {
        InodeFs::mount(FaultyDevice::new(Arc::clone(device), script)).unwrap()
    }

    #[test]
    fn a_name_too_long_for_its_length_prefix_is_refused_before_anything_is_staged() {
        // 2 KiB blocks: a file holds 532 KiB, so the entry itself would fit,
        // and so does the longest one in a journal transaction.
        let device = Arc::new(MemDevice::new(2_048, 2_048));
        InodeFs::format(
            Arc::clone(&device),
            FormatParams::small().with_journal_blocks(64),
            JournalMode::Retain,
        )
        .unwrap();
        let fs = counted_fs(&device, FaultScript::none());
        let (writes, refused) = fs
            .device()
            .writes_between(|| fs.dir_add(ROOT_INO, &"x".repeat(65_537), 9));
        assert!(matches!(refused, Err(InodeError::Directory { .. })));
        assert_eq!(writes, 0);
        assert_eq!(fs.dir_entries(ROOT_INO).unwrap(), []);
        // The longest name the prefix can state is stored and found whole.
        let longest = "y".repeat(usize::from(u16::MAX));
        fs.dir_add(ROOT_INO, &longest, 9).unwrap();
        assert_eq!(fs.dir_lookup(ROOT_INO, &longest).unwrap(), Some(9));
        assert_eq!(fs.dir_entries(ROOT_INO).unwrap(), [(longest, 9)]);
    }

    #[test]
    fn dir_add_and_remove_cost_the_same_device_writes_at_400_and_at_4000_entries() {
        let device = Arc::new(MemDevice::new(4_096, 2_048));
        InodeFs::format(
            Arc::clone(&device),
            FormatParams::small().with_journal_blocks(64),
            JournalMode::Retain,
        )
        .unwrap();
        let fs = counted_fs(&device, FaultScript::none());
        let dir = fs.alloc_inode(InodeKind::Directory).unwrap();
        // 58-byte entries: 400 of them already reach past the direct
        // blocks, and neither add below crosses into a new block.
        let padded = |name: String| format!("{name:-<48}");
        let mut next = 0;
        let mut cost_at = |entries: u64| {
            while next < entries {
                let tx = fs.begin_tx();
                for (name, ino) in numbered(next..(next + 200).min(entries)) {
                    fs.dir_add(dir, &padded(name), ino).unwrap();
                }
                tx.commit().unwrap();
                next = (next + 200).min(entries);
            }
            let name = padded(format!("extra-{entries:05}"));
            fs.drop_caches();
            let reads = fs.device().reads_seen();
            let (add, added) = fs
                .device()
                .writes_between(|| fs.dir_add(dir, &name, entries));
            added.unwrap();
            let reads = fs.device().reads_seen() - reads;
            let (remove, removed) = fs.device().writes_between(|| fs.dir_remove(dir, &name));
            assert_eq!(removed.unwrap(), entries);
            (reads, add, remove)
        };
        let (small, large) = (cost_at(400), cost_at(4_000));
        assert_eq!(
            small, large,
            "an update read or rewrote a share of its directory"
        );
        // Add reads the inode, block 0 (the count), the indirect block and
        // the entry's block.  It writes header, commit, superblock; entry
        // block, count block and inode, each once in the journal and once in
        // place.  Remove: the same transaction over the count block and the
        // inode.
        assert_eq!(small, (4, 9, 7));
        assert!(fs.stat(dir).unwrap().size > 100 * 2_048);
        assert_eq!(fs.dir_entries(dir).unwrap().len(), 4_000);
    }

    #[test]
    fn a_directory_with_bytes_past_its_last_counted_entry_is_corrupt() {
        let fs = small_fs();
        let dir = fs.alloc_inode(InodeKind::Directory).unwrap();
        let entries = numbered(0..3);
        let whole = encode_dir_whole(&entries);
        // An uncounted entry after the counted ones, and an empty directory
        // that still holds bytes.
        let tail = encode_dir_whole(&numbered(3..4));
        let tailed = [[&whole[..], &tail[4..]].concat(), [0, 0, 0, 0, 7].to_vec()];
        for image in tailed {
            fs.write_replace(dir, &image).unwrap();
            let removed = fs.dir_remove(dir, "entry-00001").map(drop);
            for refused in [fs.dir_entries(dir).map(drop), removed] {
                assert!(
                    matches!(refused, Err(InodeError::Corrupt { .. })),
                    "{refused:?}"
                );
            }
        }
        fs.write_replace(dir, &whole).unwrap();
        assert_eq!(fs.dir_entries(dir).unwrap(), entries);
        assert_eq!(fs.dir_remove(dir, "entry-00001").unwrap(), 1_001);
    }

    #[test]
    fn a_directory_laid_down_whole_by_the_old_writer_behaves_like_a_grown_one() {
        let device = Arc::new(MemDevice::new(1_024, 512));
        let params = FormatParams::small().with_journal_blocks(32);
        let fs = InodeFs::format(device, params, JournalMode::Retain).unwrap();
        let old = fs.alloc_inode(InodeKind::Directory).unwrap();
        let grown = fs.alloc_inode(InodeKind::Table).unwrap();
        let mut entries = numbered(0..300);
        fs.write_replace(old, &encode_dir_whole(&entries)).unwrap();
        for (name, ino) in &entries {
            fs.dir_add(grown, name, *ino).unwrap();
        }
        assert!(
            fs.stat(old).unwrap().size > 10 * 512,
            "past the direct blocks"
        );
        assert_eq!(fs.read_all(old).unwrap(), fs.read_all(grown).unwrap());

        entries.push(("appended".to_owned(), 7));
        // One from the middle, one from the first block, then the last.
        let removed = [entries.remove(150), entries.remove(41)];
        for dir in [old, grown] {
            fs.dir_add(dir, "appended", 7).unwrap();
            for (name, ino) in &removed {
                assert_eq!(fs.dir_remove(dir, name).unwrap(), *ino);
                assert_eq!(fs.dir_lookup(dir, name).unwrap(), None);
            }
            assert_eq!(fs.dir_lookup(dir, "entry-00299").unwrap(), Some(1_299));
            assert_eq!(fs.dir_lookup(dir, "appended").unwrap(), Some(7));
            assert_eq!(fs.dir_entries(dir).unwrap(), entries);
            assert_eq!(fs.read_all(dir).unwrap(), encode_dir_whole(&entries));
            assert_eq!(fs.dir_remove(dir, "appended").unwrap(), 7);
            let kept = &entries[..entries.len() - 1];
            assert_eq!(fs.read_all(dir).unwrap(), encode_dir_whole(kept));
        }
    }

    #[test]
    fn a_crash_inside_a_bare_directory_update_leaves_the_old_or_the_new_directory() {
        // No compound transaction is open: `dir_add` and `dir_remove` (the
        // shift and the truncate) are each one journal transaction.
        let image = || {
            let device = Arc::new(MemDevice::new(1_024, 512));
            let fs = InodeFs::format(
                Arc::clone(&device),
                FormatParams::small(),
                JournalMode::Retain,
            )
            .unwrap();
            let tx = fs.begin_tx();
            for (name, ino) in numbered(0..100) {
                fs.dir_add(ROOT_INO, &name, ino).unwrap();
            }
            tx.commit().unwrap();
            device
        };
        type Update = fn(&CountedFs) -> Result<(), InodeError>;
        let updates: [(Update, Vec<(String, Ino)>); 3] = [
            (|fs| fs.dir_add(ROOT_INO, "fresh", 5), {
                let mut after = numbered(0..100);
                after.push(("fresh".to_owned(), 5));
                after
            }),
            (
                |fs| fs.dir_remove(ROOT_INO, "entry-00099").map(drop),
                numbered(0..99),
            ),
            (|fs| fs.dir_remove(ROOT_INO, "entry-00050").map(drop), {
                let mut after = numbered(0..100);
                after.remove(50);
                after
            }),
        ];
        for (update, after) in updates {
            let probe = counted_fs(&image(), FaultScript::none());
            let (total_writes, done) = probe.device().writes_between(|| update(&probe));
            done.unwrap();
            assert_eq!(probe.dir_entries(ROOT_INO).unwrap(), after);
            for crash_after in 0..total_writes {
                let device = image();
                let fs = counted_fs(&device, FaultScript::crash_after_writes(crash_after));
                assert!(update(&fs).is_err(), "crash point {crash_after} must trip");
                drop(fs);
                let fs = InodeFs::mount(device).unwrap();
                // `dir_entries` also holds the directory to the size rule: a
                // tail behind the count would be `Corrupt`.
                let mut entries = fs.dir_entries(ROOT_INO).unwrap();
                assert!(
                    entries == numbered(0..100) || entries == after,
                    "crash point {crash_after}: neither the old nor the new directory"
                );
                // The next add goes at the file's end, which is the count's.
                fs.dir_add(ROOT_INO, "next", 6).unwrap();
                entries.push(("next".to_owned(), 6));
                assert_eq!(fs.read_all(ROOT_INO).unwrap(), encode_dir_whole(&entries));
                assert!(fs.leaked_data_blocks().unwrap().is_empty());
            }
        }
    }
}
