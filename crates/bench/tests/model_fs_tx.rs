//! Model-checked suite for compound transactions on the real [`InodeFs`].
//!
//! The savepoint model runs the single-savepoint sequence batched writers
//! (`Dbfs::commit_in_groups`) use: a savepoint per item, each one replacing
//! the last, a rollback for the item that fails, and one commit — while a
//! reader hammers a file whose only staged write is one the writer rolls
//! back, which exercises the owner-only overlay rule and the cache epoch
//! protocol from a second thread.  The concurrent-write model has a second
//! thread write while the first holds a transaction open and then aborts
//! it: the write must wait for the transaction and survive its abort.  The
//! filesystem's own `parking_lot` locks and the `MemDevice`'s `RwLock` are
//! the scheduling points; no test-only hooks are inserted into product
//! code.
//!
//! Both rules are also distilled into small models explored exhaustively,
//! each with the rule before as the mutation the checker must catch: "the
//! overlay serves any thread", and "a non-owner stages into the open
//! overlay".
//!
//! The schedule space of the real-filesystem models is far too large for
//! exhaustive DFS (every lock acquisition branches), so they use the seeded
//! random scheduler: thousands of distinct interleavings, deterministic per
//! seed.

use parking_lot::Mutex;
use rgpdos::blockdev::MemDevice;
use rgpdos::inode::{FormatParams, InodeFs, InodeKind, JournalMode};
use rgpdos_conc::{spawn, Checker, FailureKind};
use std::sync::Arc;

fn small_fs() -> Arc<InodeFs<Arc<MemDevice>>> {
    let device = Arc::new(MemDevice::new(512, 256));
    Arc::new(
        InodeFs::format(device, FormatParams::small(), JournalMode::Retain)
            .expect("format in-memory fs"),
    )
}

fn savepoint_model() {
    let fs = small_fs();
    let scratch = fs.alloc_inode(InodeKind::File).expect("writer file");
    let stable = fs.alloc_inode(InodeKind::File).expect("reader file");
    fs.write(stable, 0, b"baseline").expect("seed reader file");

    let writer_fs = Arc::clone(&fs);
    let writer = spawn(move || {
        let tx = writer_fs.begin_tx();
        writer_fs.tx_savepoint();
        writer_fs.write(scratch, 0, b"AAAA").expect("stage item 1");
        writer_fs.tx_savepoint(); // replaces item 1's
        writer_fs.write(scratch, 4, b"BBBB").expect("stage item 2");
        writer_fs.tx_savepoint();
        writer_fs.write(scratch, 4, b"CCCC").expect("stage item 3");
        writer_fs.write(scratch, 256, b"DDDD").expect("grow item 3");
        writer_fs
            .write(stable, 0, b"SPILLED!")
            .expect("stage spill");
        let own = writer_fs.read_all(stable).expect("owner reads its stage");
        assert_eq!(own, b"SPILLED!", "the owner lost sight of its own write");
        writer_fs.tx_rollback_to(); // drops item 3, not item 2
        writer_fs.tx_savepoint();
        writer_fs.write(scratch, 8, b"EEEE").expect("stage item 4");
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

    // Exactly the items kept are on disk.
    assert_eq!(
        fs.read_all(scratch).expect("read committed file"),
        b"AAAABBBBEEEE",
        "savepoint rollback committed the wrong write set"
    );
    assert_eq!(fs.read_all(stable).expect("re-read stable"), b"baseline");
    // The transaction is fully closed and nothing leaked.
    assert_eq!(fs.tx_staged_blocks(), 0);
    assert_eq!(fs.leaked_data_blocks().expect("leak check"), []);
}

#[test]
fn a_savepoint_per_item_commits_exactly_the_kept_items() {
    let report = Checker::random(4_000, 0xD5C0_0001)
        .max_steps(200_000)
        .run(savepoint_model);
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert_eq!(report.executions, 4_000);
    assert_eq!(report.truncated, 0, "executions hit the step bound");
}

/// Thread 1 stages into a transaction and aborts it; thread 2 writes
/// another file once and reads it back.  Its write is a transaction of its
/// own, so whatever the interleaving it reads its bytes back and they are
/// on disk after the abort.
fn concurrent_write_model() {
    let fs = small_fs();
    let aborted = fs.alloc_inode(InodeKind::File).expect("aborted file");
    let written = fs.alloc_inode(InodeKind::File).expect("written file");
    fs.write(written, 0, b"old bytes")
        .expect("seed written file");

    let owner_fs = Arc::clone(&fs);
    let owner = spawn(move || {
        let _tx = owner_fs.begin_tx();
        owner_fs.write(aborted, 0, b"never").expect("stage");
        // Dropped without a commit: aborted.
    });
    let other_fs = Arc::clone(&fs);
    let other = spawn(move || {
        other_fs
            .write(written, 0, b"new bytes")
            .expect("plain write");
        let back = other_fs.read_all(written).expect("read back");
        assert_eq!(back, b"new bytes", "a plain write did not take effect");
    });
    owner.join();
    other.join();

    assert_eq!(
        fs.read_all(written).expect("read committed file"),
        b"new bytes",
        "a write outside the open transaction was lost with its abort"
    );
    assert_eq!(fs.stat(aborted).expect("stat aborted file").size, 0);
}

#[test]
fn a_mutation_outside_the_open_transaction_waits_for_it_and_survives_its_abort() {
    let report = Checker::random(2_000, 0xD5C0_0002)
        .max_steps(200_000)
        .run(concurrent_write_model);
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert_eq!(report.executions, 2_000);
    assert_eq!(report.truncated, 0, "executions hit the step bound");
}

// ---------------------------------------------------------------------
// The overlay rule, distilled
// ---------------------------------------------------------------------

const COMMITTED: u8 = 0xC0;
const STAGED: u8 = 0x57;
const WRITTEN: u8 = 0x3E;

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
// The mutation rule, distilled
// ---------------------------------------------------------------------

/// `InodeFs`'s mutation rule in miniature, over one block: thread 1 holds
/// the gate while it stages into its transaction and aborts; thread 2
/// writes the block as a transaction of its own, behind the same gate — or,
/// in the mutation, stages into the transaction it finds open instead.
fn mutation_rule_model(non_owner_stages: bool) {
    let gate = Arc::new(Mutex::new(()));
    let tx = Arc::new(Mutex::new(None));
    let device = Arc::new(Mutex::new(COMMITTED));
    let (g, t) = (Arc::clone(&gate), Arc::clone(&tx));
    let owner = spawn(move || {
        let _gate = g.lock();
        *t.lock() = Some(STAGED);
        *t.lock() = None; // abort: nothing reaches the device
    });
    let d = Arc::clone(&device);
    let other = spawn(move || {
        let joined = non_owner_stages && tx.lock().as_mut().map(|b| *b = WRITTEN).is_some();
        if !joined {
            let _gate = gate.lock();
            *d.lock() = WRITTEN;
        }
    });
    owner.join();
    other.join();
    assert_eq!(
        *device.lock(),
        WRITTEN,
        "a write outside the open transaction was lost with its abort"
    );
}

#[test]
fn a_non_owner_waits_for_the_open_transaction() {
    let report = Checker::dfs().check(|| mutation_rule_model(false));
    assert!(report.complete, "the model must be exhausted");
}

/// Mutation: the rule before — a mutation stages into whatever transaction
/// is open — loses the write when its owner aborts.
#[test]
fn checker_finds_the_non_owner_that_stages_into_the_open_overlay() {
    let report = Checker::dfs().run(|| mutation_rule_model(true));
    let failure = report.failure.expect("the shared overlay must be caught");
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(
        failure.message.contains("lost with its abort"),
        "{}",
        failure.message
    );
}
