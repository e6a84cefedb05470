//! Model-checked suite for nested compound-transaction savepoints on the
//! real [`InodeFs`].
//!
//! The writer opens a transaction, stages writes across two nested
//! savepoints, rolls both back (dropping the inner stages; a third
//! savepoint, released inside the outer one, must not cost the outer its
//! undo), re-stages, and commits — while a reader hammers a file whose only
//! staged write is one the writer rolls back, which exercises the
//! owner-only overlay rule and the cache epoch protocol from a second
//! thread.  The filesystem's own
//! `parking_lot` locks and the `MemDevice`'s `RwLock` are the scheduling
//! points; no test-only hooks are inserted into product code.
//!
//! The overlay rule itself — staged bytes are visible to the thread that
//! opened the transaction and to no other — is also distilled into a
//! two-lock model explored exhaustively, with the old rule ("the overlay
//! serves any thread") as the mutation the checker must catch, and so is
//! the release rule — the undo log goes only once no savepoint is
//! outstanding — with "release drops undo entries an outer savepoint needs"
//! as its mutation.
//!
//! The schedule space is far too large for exhaustive DFS (every lock
//! acquisition branches), so this suite uses the seeded random scheduler:
//! thousands of distinct interleavings, deterministic per seed.

use parking_lot::Mutex;
use rgpdos::blockdev::MemDevice;
use rgpdos::inode::{FormatParams, InodeFs, InodeKind, JournalMode};
use rgpdos_conc::{spawn, Checker, FailureKind};
use std::sync::Arc;

fn savepoint_model() {
    let device = Arc::new(MemDevice::new(512, 256));
    let fs = Arc::new(
        InodeFs::format(device, FormatParams::small(), JournalMode::Retain)
            .expect("format in-memory fs"),
    );
    let scratch = fs.alloc_inode(InodeKind::File).expect("writer file");
    let stable = fs.alloc_inode(InodeKind::File).expect("reader file");
    fs.write(stable, 0, b"baseline").expect("seed reader file");

    let writer_fs = Arc::clone(&fs);
    let writer = spawn(move || {
        let tx = writer_fs.begin_tx();
        writer_fs.write(scratch, 0, b"AAAA").expect("stage outer");
        let outer = writer_fs.tx_savepoint();
        writer_fs.write(scratch, 4, b"BBBB").expect("stage middle");
        let inner = writer_fs.tx_savepoint();
        writer_fs.write(scratch, 8, b"CCCC").expect("stage inner");
        writer_fs
            .write(stable, 0, b"SPILLED!")
            .expect("stage spill");
        let own = writer_fs.read_all(stable).expect("owner reads its stage");
        assert_eq!(own, b"SPILLED!", "the owner lost sight of its own write");
        writer_fs.tx_rollback_to(inner); // drops CCCC and the spill
        let kept = writer_fs.tx_savepoint();
        writer_fs.write(scratch, 8, b"DDDD").expect("restage inner");
        writer_fs.tx_release(kept); // `outer` still needs the undo log
        writer_fs.tx_rollback_to(outer); // drops BBBB and DDDD
        let last = writer_fs.tx_savepoint();
        writer_fs
            .write(scratch, 4, b"EEEE")
            .expect("restage after outer");
        writer_fs.tx_release(last); // none outstanding: the log goes
        tx.commit().expect("commit survivors");
    });

    let reader_fs = Arc::clone(&fs);
    let reader = spawn(move || {
        // The only write the transaction ever stages to this file is
        // rolled back, so its committed contents must be stable whatever
        // the writer is doing: stages live in the overlay, the overlay
        // serves its owner alone, and everyone else reads through the
        // epoch-checked cache.
        for _ in 0..2 {
            let data = reader_fs.read_all(stable).expect("read stable file");
            assert_eq!(data, b"baseline", "reader saw transaction spill-over");
        }
    });

    writer.join();
    reader.join();

    // Exactly the survivors of the nested rollbacks are on disk.
    assert_eq!(
        fs.read_all(scratch).expect("read committed file"),
        b"AAAAEEEE",
        "nested savepoint rollback committed the wrong write set"
    );
    assert_eq!(fs.read_all(stable).expect("re-read stable"), b"baseline");
    // The transaction is fully closed: nothing staged leaks past commit.
    assert_eq!(fs.tx_staged_blocks(), 0);
}

#[test]
fn nested_savepoints_commit_exactly_the_survivors() {
    let report = Checker::random(4_000, 0xD5C0_0001)
        .max_steps(200_000)
        .run(savepoint_model);
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert_eq!(report.executions, 4_000);
    assert_eq!(report.truncated, 0, "executions hit the step bound");
}

// ---------------------------------------------------------------------
// The overlay rule, distilled
// ---------------------------------------------------------------------

const COMMITTED: u8 = 0xC0;
const STAGED: u8 = 0x57;

/// `InodeFs::read_block_raw` in miniature: the open transaction's overlay
/// first — for its owner only when `owner_only`, for anyone otherwise —
/// then the committed block.
fn read_block(
    tx: &Mutex<Option<(usize, u8)>>,
    device: &Mutex<u8>,
    me: usize,
    owner_only: bool,
) -> u8 {
    match *tx.lock() {
        Some((owner, staged)) if owner == me || !owner_only => staged,
        _ => *device.lock(),
    }
}

/// Thread 1 opens a transaction, stages a block, reads it back and aborts;
/// thread 2 reads the block once.  What was staged never commits, so the
/// reader may only ever see the committed byte.
fn overlay_model(owner_only: bool) {
    let tx = Arc::new(Mutex::new(None));
    let device = Arc::new(Mutex::new(COMMITTED));
    let (t, d) = (Arc::clone(&tx), Arc::clone(&device));
    let writer = spawn(move || {
        *t.lock() = Some((1, STAGED));
        let own = read_block(&t, &d, 1, owner_only);
        assert_eq!(own, STAGED, "the owner must read its own staged write");
        *t.lock() = None;
    });
    let reader = spawn(move || {
        let seen = read_block(&tx, &device, 2, owner_only);
        assert_eq!(seen, COMMITTED, "a reader saw a byte that never committed");
    });
    writer.join();
    reader.join();
}

#[test]
fn the_overlay_serves_its_owner_and_nobody_else() {
    let report = Checker::dfs().check(|| overlay_model(true));
    assert!(report.complete, "the model must be exhausted");
    assert!(
        report.executions >= 6,
        "{} interleavings",
        report.executions
    );
}

/// Mutation: the rule before — the overlay answers whichever thread asks —
/// lets the reader land between stage and abort.
#[test]
fn checker_finds_the_reader_that_sees_an_aborted_write() {
    let report = Checker::dfs().run(|| overlay_model(false));
    let failure = report.failure.expect("the shared overlay must be caught");
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(
        failure.message.contains("a byte that never committed"),
        "{}",
        failure.message
    );
}

// ---------------------------------------------------------------------
// The release rule, distilled
// ---------------------------------------------------------------------

/// `InodeFs`'s undo log in miniature, over one block: a stage pushes the
/// value it replaces, a savepoint is a position in the log, and closing the
/// last outstanding savepoint — or, in the mutation, any — drops the log.
struct UndoLog {
    block: u8,
    undo: Vec<u8>,
    outstanding: usize,
    release_drops_always: bool,
}

impl UndoLog {
    fn stage(&mut self, value: u8) {
        self.undo.push(self.block);
        self.block = value;
    }

    fn savepoint(&mut self) -> usize {
        self.outstanding += 1;
        self.undo.len()
    }

    fn close(&mut self) {
        self.outstanding -= 1;
        if self.outstanding == 0 || self.release_drops_always {
            self.undo.clear();
        }
    }

    fn rollback_to(&mut self, savepoint: usize) {
        while self.undo.len() > savepoint {
            self.block = self.undo.pop().expect("undo entry");
        }
        self.close();
    }
}

/// Stage, take an outer savepoint, stage, keep an inner op (release its
/// savepoint), then roll the outer one back: everything after it must go.
fn release_model(release_drops_always: bool) {
    let mut log = UndoLog {
        block: COMMITTED,
        undo: Vec::new(),
        outstanding: 0,
        release_drops_always,
    };
    log.stage(0xA0);
    let outer = log.savepoint();
    log.stage(0xB0);
    let _inner = log.savepoint();
    log.stage(0xCC);
    log.close(); // release the inner savepoint
    log.rollback_to(outer);
    assert_eq!(
        log.block, 0xA0,
        "a rollback kept a write staged after its savepoint"
    );
    assert!(
        log.undo.is_empty(),
        "no savepoint is left to need the undo log"
    );
}

#[test]
fn a_released_savepoint_leaves_the_undo_log_to_the_outer_one() {
    let report = Checker::dfs().check(|| release_model(false));
    assert!(report.complete, "the model must be exhausted");
}

/// Mutation: a release that drops the undo log while the outer savepoint is
/// still outstanding — its rollback then has nothing to undo with.
#[test]
fn checker_finds_the_release_that_drops_what_an_outer_savepoint_needs() {
    let report = Checker::dfs().run(|| release_model(true));
    let failure = report.failure.expect("the early drop must be caught");
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(
        failure
            .message
            .contains("kept a write staged after its savepoint"),
        "{}",
        failure.message
    );
}
