//! Model-checked suite for the DBFS epoch/snapshot read protocol.
//!
//! `Dbfs::get` resolves a record location from the published
//! `IndexSnapshot`, reads the payload with **zero locks held**, and only
//! then re-validates the location against the *current* snapshot epoch:
//! if the epoch moved and the record is now tombstoned (or gone), the read
//! returns `Erased` instead of whatever bytes the device handed back.  The
//! protocol is distilled here — snapshot slot, epoch bump on publish,
//! post-read validation — and explored exhaustively.
//!
//! The mutation halves re-create the three bugs the protocol closes:
//!
//! 1. **Stale payload after erase**: without the post-read validation, a
//!    reader that resolved its location before an erasure can return bytes
//!    from a block that was freed and already reused for a different
//!    record — another subject's plaintext served under the erased id.
//! 2. **Half-applied group visibility**: with `count` served from the live
//!    index instead of the snapshot, a reader can observe a group commit
//!    half-applied; snapshots only advance at group-commit cut points, so
//!    the fixed read sees whole groups or nothing.
//! 3. **Torn read across an in-place apply**: a commit writes a record's
//!    blocks in place one by one, before it publishes, so the epoch alone
//!    cannot tell a reader that met the apply half done.  The inode layer's
//!    apply sequence is odd while blocks are applied; without the retry on
//!    an odd or moved sequence, a reader returns the record half old, half
//!    new.

use parking_lot::{Mutex, RwLock};
use rgpdos_conc::{spawn, Checker, FailureKind};
use std::collections::BTreeMap;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Model 1: stale payload after erase (block reuse)
// ---------------------------------------------------------------------

/// Record A's plaintext, stored in block 0 at the start of every run.
const SECRET: u8 = 0x5E;
/// Record B's plaintext, written into block 0 after A's erasure frees it.
const REUSED: u8 = 0x77;

const ID_A: u8 = 1;
const ID_B: u8 = 2;

/// The read-relevant slice of the index: `id -> (block, erased)`.
#[derive(Clone)]
struct Snap {
    epoch: u64,
    records: BTreeMap<u8, (usize, bool)>,
}

/// Writer-side state behind the index lock; `publish` mirrors
/// `Dbfs::publish_locked` (bump the epoch, swap the snapshot slot while
/// still holding the index lock).
struct Index {
    epoch: u64,
    records: BTreeMap<u8, (usize, bool)>,
}

type Slot = Arc<RwLock<Arc<Snap>>>;

fn publish(index: &mut Index, slot: &Slot) {
    index.epoch += 1;
    *slot.write() = Arc::new(Snap {
        epoch: index.epoch,
        records: index.records.clone(),
    });
}

/// `Dbfs::get` in miniature: snapshot-resolved location, unlocked device
/// read, then (when `fixed`) the epoch/tombstone re-validation.
fn snapshot_get(slot: &Slot, device: &Mutex<u8>, id: u8, fixed: bool) -> Result<u8, &'static str> {
    let snap = Arc::clone(&slot.read());
    let &(block, erased) = snap.records.get(&id).ok_or("unknown")?;
    if erased {
        return Err("erased");
    }
    debug_assert_eq!(block, 0, "the model has one block");
    let byte = *device.lock();
    if fixed {
        let current = Arc::clone(&slot.read());
        if current.epoch != snap.epoch {
            let still_live = matches!(current.records.get(&id), Some((_, false)));
            if !still_live {
                return Err("erased");
            }
        }
    }
    Ok(byte)
}

/// One reader racing an erase-then-reuse writer.  The invariant: the read
/// either returns A's own plaintext or reports the erasure — it must never
/// surface the bytes record B later stored in the reused block.
fn stale_payload_model(fixed: bool) {
    let slot: Slot = Arc::new(RwLock::new(Arc::new(Snap {
        epoch: 0,
        records: BTreeMap::from([(ID_A, (0, false))]),
    })));
    let index = Arc::new(Mutex::new(Index {
        epoch: 0,
        records: BTreeMap::from([(ID_A, (0, false))]),
    }));
    let device = Arc::new(Mutex::new(SECRET));

    let (s, d) = (Arc::clone(&slot), Arc::clone(&device));
    let reader = spawn(move || {
        if let Ok(byte) = snapshot_get(&s, &d, ID_A, fixed) {
            assert_eq!(byte, SECRET, "stale payload read past erasure: {byte:#04x}");
        }
    });
    let (s, i, d) = (Arc::clone(&slot), Arc::clone(&index), Arc::clone(&device));
    let writer = spawn(move || {
        // Erase A: the tombstone is durable before the publish (the device
        // still holds A's bytes — crypto-erasure drops the key, it does
        // not scrub), and the publish happens under the index lock.
        {
            let mut index = i.lock();
            index.records.insert(ID_A, (0, true));
            publish(&mut index, &s);
        }
        // A later insert reuses the freed block for B.  The device write
        // lands before B's publish, exactly like a journal transaction
        // committing ahead of its group-commit cut point.
        {
            let mut index = i.lock();
            *d.lock() = REUSED;
            index.records.insert(ID_B, (0, false));
            publish(&mut index, &s);
        }
    });
    reader.join();
    writer.join();
}

#[test]
fn post_read_validation_never_serves_reused_bytes() {
    let report = Checker::dfs().check(|| stale_payload_model(true));
    assert!(report.complete, "the model must be exhausted");
    assert!(
        report.executions >= 50,
        "{} interleavings",
        report.executions
    );
}

/// Mutation: dropping the post-read epoch/tombstone validation lets the
/// checker find the reuse interleaving (reader resolves A's location,
/// writer erases A and stores B into the freed block, reader returns B's
/// plaintext under A's id).
#[test]
fn checker_finds_the_stale_payload_without_validation() {
    let report = Checker::dfs().run(|| stale_payload_model(false));
    let failure = report.failure.expect("the unvalidated read must be caught");
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(
        failure.message.contains("stale payload read past erasure"),
        "{}",
        failure.message
    );

    // The stale read is replayable from its recorded schedule.
    let schedule = failure.schedule.clone();
    let replayed =
        std::panic::catch_unwind(move || Checker::replay(&schedule, || stale_payload_model(false)));
    assert!(replayed.is_err(), "replay must reproduce the stale read");
}

// ---------------------------------------------------------------------
// Model 2: half-applied group visibility
// ---------------------------------------------------------------------

/// A two-record group commit against a counting reader.  The live index
/// advances record by record (the index lock is not held across the whole
/// group), but the snapshot only advances at the group-commit cut point —
/// so a snapshot-served `count` sees 0 or 2, never 1.
fn group_visibility_model(fixed: bool) {
    let live = Arc::new(Mutex::new(0u64));
    let slot: Arc<RwLock<Arc<u64>>> = Arc::new(RwLock::new(Arc::new(0)));

    let (l, s) = (Arc::clone(&live), Arc::clone(&slot));
    let reader = spawn(move || {
        let seen = if fixed { **s.read() } else { *l.lock() };
        assert!(
            seen % 2 == 0,
            "half-applied group visible: count={seen} of 2"
        );
    });
    let (l, s) = (Arc::clone(&live), Arc::clone(&slot));
    let writer = spawn(move || {
        *l.lock() += 1;
        *l.lock() += 1;
        // The group-commit cut point: one publish for the whole group.
        let total = *l.lock();
        *s.write() = Arc::new(total);
    });
    reader.join();
    writer.join();
}

#[test]
fn snapshot_count_sees_whole_groups() {
    let report = Checker::dfs().check(|| group_visibility_model(true));
    assert!(report.complete, "the model must be exhausted");
    assert!(
        report.executions >= 10,
        "{} interleavings",
        report.executions
    );
}

/// Mutation: serving `count` from the live index under the lock lets the
/// checker catch the half-applied group.
#[test]
fn checker_finds_the_half_applied_group_on_the_live_index() {
    let report = Checker::dfs().run(|| group_visibility_model(false));
    let failure = report.failure.expect("the live-index count must be caught");
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(
        failure.message.contains("half-applied group visible"),
        "{}",
        failure.message
    );

    let schedule = failure.schedule.clone();
    let replayed = std::panic::catch_unwind(move || {
        Checker::replay(&schedule, || group_visibility_model(false))
    });
    assert!(replayed.is_err(), "replay must reproduce the half read");
}

// ---------------------------------------------------------------------
// Model 3: a read overlapping an in-place apply
// ---------------------------------------------------------------------

/// A two-block record's contents before and after a commit rewrites it.
const OLD: u8 = 0x0D;
const NEW: u8 = 0x4E;

/// `Dbfs::checked_read`'s retry in miniature over a two-block record: note
/// the apply sequence, read both blocks unlocked and let the read stand only
/// when the sequence was even and has not moved (when `fixed`).  The model
/// bounds the retries; `None` is a reader still waiting for the apply.
fn seq_read(seq: &Mutex<u64>, blocks: &[Mutex<u8>; 2], fixed: bool) -> Option<[u8; 2]> {
    for _ in 0..3 {
        let before = *seq.lock();
        if before % 2 == 1 && fixed {
            continue;
        }
        let read = [*blocks[0].lock(), *blocks[1].lock()];
        if !fixed || *seq.lock() == before {
            return Some(read);
        }
    }
    None
}

/// One reader against one commit applying a rewrite in place, the
/// sequence bumped around the apply as `InodeFs::commit_journaled` does.
fn apply_window_model(fixed: bool) {
    let seq = Arc::new(Mutex::new(0u64));
    let blocks = Arc::new([Mutex::new(OLD), Mutex::new(OLD)]);

    let (q, b) = (Arc::clone(&seq), Arc::clone(&blocks));
    let reader = spawn(move || {
        if let Some(read) = seq_read(&q, &b, fixed) {
            assert!(read[0] == read[1], "torn read across an apply: {read:02x?}");
        }
    });
    let (q, b) = (Arc::clone(&seq), Arc::clone(&blocks));
    let writer = spawn(move || {
        *q.lock() += 1;
        *b[0].lock() = NEW;
        *b[1].lock() = NEW;
        *q.lock() += 1;
    });
    reader.join();
    writer.join();
}

#[test]
fn the_apply_sequence_never_lets_a_torn_read_stand() {
    let report = Checker::dfs().check(|| apply_window_model(true));
    assert!(report.complete, "the model must be exhausted");
    assert!(
        report.executions >= 20,
        "{} interleavings",
        report.executions
    );
}

/// Mutation: the read without the retry — the protocol before the apply
/// sequence — lets the checker find the reader that read the first block
/// before the apply and the second after it.
#[test]
fn checker_finds_the_torn_read_without_the_apply_sequence() {
    let report = Checker::dfs().run(|| apply_window_model(false));
    let failure = report.failure.expect("the retry-less read must be caught");
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(
        failure.message.contains("torn read across an apply"),
        "{}",
        failure.message
    );

    let schedule = failure.schedule.clone();
    let replayed =
        std::panic::catch_unwind(move || Checker::replay(&schedule, || apply_window_model(false)));
    assert!(replayed.is_err(), "replay must reproduce the torn read");
}
