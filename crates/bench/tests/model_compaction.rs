//! Model-checked suite for the tombstone scrubber/compactor.
//!
//! The scrubber reclaims tombstones whose erasure is durable: under the
//! index lock it drops the tombstone's index entries, publishes a fresh
//! snapshot, then frees the tombstone's blocks.  Two protocols keep that
//! safe against concurrent traffic, and both are distilled and explored
//! exhaustively here:
//!
//! 1. **Reclaim vs snapshot reader**: a reader that resolved a record's
//!    location from an older published snapshot reads the device with zero
//!    locks held, while a writer takes the record through its whole life —
//!    live → erased → reclaimed → its blocks reused by a fresh insert.
//!    `checked_read` below is `Dbfs::checked_read` in miniature, step for
//!    step: **product and model now run the same check** — validate after
//!    the read against the current snapshot, whatever the read returned and
//!    whether the snapshot located the record live or as a tombstone.  The
//!    read must never serve another record's bytes, or freed blocks, under
//!    the id; the mutations re-create the rules the product used to have.
//! 2. **Reclaim vs in-flight eraser**: a routed erasure parks a durable
//!    `EraseIntent` naming its targets before tombstoning them and clears
//!    it after.  The scrubber must skip tombstones named by a pending
//!    intent — reclaiming one mid-erasure would leave the intent (and its
//!    crash recovery) pointing at an id that no longer exists.

use parking_lot::{Mutex, RwLock};
use rgpdos_conc::{spawn, Checker, FailureKind};
use std::collections::BTreeMap;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Model 1: a checked read vs erase, reclaim and reuse of the record
// ---------------------------------------------------------------------

const ID_T: u8 = 1;
const ID_B: u8 = 2;

/// What the one record inode of the model holds: whose membrane header,
/// whether that membrane says erased, and the payload behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Image {
    owner: u8,
    erased: bool,
    payload: u8,
}

/// `ID_T`'s record as collected.
const T_LIVE: Image = Image {
    owner: ID_T,
    erased: false,
    payload: 0x11,
};
/// `ID_T`'s tombstone: erased membrane, escrowed ciphertext.
const T_TOMBSTONE: Image = Image {
    owner: ID_T,
    erased: true,
    payload: 0x33,
};
/// The inode after the reclaim freed (and zeroed) it.
const FREED: Image = Image {
    owner: 0,
    erased: false,
    payload: 0,
};
/// A fresh record of another subject, stored in the reused inode.
const B_LIVE: Image = Image {
    owner: ID_B,
    erased: false,
    payload: 0x77,
};

/// The read-relevant slice of the index: `id -> erased` (the model has one
/// inode, so every location is that inode).
#[derive(Clone)]
struct Snap {
    epoch: u64,
    records: BTreeMap<u8, bool>,
}

/// Writer-side index state; `publish` mirrors `Dbfs::publish_locked`.
struct Index {
    epoch: u64,
    records: BTreeMap<u8, bool>,
}

type Slot = Arc<RwLock<Arc<Snap>>>;

fn publish(index: &mut Index, slot: &Slot) {
    index.epoch += 1;
    *slot.write() = Arc::new(Snap {
        epoch: index.epoch,
        records: index.records.clone(),
    });
}

/// When the reader validates its unlocked read against the current
/// snapshot.
#[derive(Clone, Copy, PartialEq)]
enum Rule {
    /// The product's rule: always.
    Always,
    /// The rule `get` and `load_records` had: only when the reader's
    /// snapshot located the record live.
    OnlyWhenLocatedLive,
    /// The rule `copy` had: never.
    Never,
}

/// The order of a reclaim's two halves under the index lock.
#[derive(Clone, Copy, PartialEq)]
enum Reclaim {
    /// The product's order: un-index and publish, then free the inode.
    PublishThenFree,
    /// Free first: a reader can meet the freed inode while the snapshot it
    /// validates against still holds the id.
    FreeThenPublish,
}

/// The outcomes of `Dbfs::checked_read`.
#[derive(Debug)]
enum Checked {
    AsLocated(Image),
    NowTombstone(Image),
    Gone,
}

/// `Dbfs::checked_read` in miniature; `None` is an id the reader's snapshot
/// does not hold (`UnknownPd`).
fn checked_read(slot: &Slot, device: &Mutex<Image>, id: u8, rule: Rule) -> Option<Checked> {
    let snap = Arc::clone(&slot.read());
    let located_erased = *snap.records.get(&id)?;
    let (mut epoch, mut erased) = (snap.epoch, located_erased);
    loop {
        let image = *device.lock();
        let validate = match rule {
            Rule::Always => true,
            Rule::OnlyWhenLocatedLive => !located_erased,
            Rule::Never => false,
        };
        if validate {
            let current = Arc::clone(&slot.read());
            if current.epoch != epoch {
                match current.records.get(&id) {
                    None => return Some(Checked::Gone),
                    Some(&now_erased) if now_erased && !erased => {
                        // The tombstone image is on the device before the
                        // erasure publishes: read again, validate again.
                        (epoch, erased) = (current.epoch, true);
                        continue;
                    }
                    Some(_) => {}
                }
            }
        }
        return Some(if erased == located_erased {
            Checked::AsLocated(image)
        } else {
            Checked::NowTombstone(image)
        });
    }
}

/// A reader of `ID_T` — of the whole record, or (`membrane_only`) of just
/// its membrane header — racing a writer that erases `ID_T`, reclaims the
/// tombstone and reuses the inode for `ID_B`: three publishes, and the
/// reader may resolve, read and validate anywhere among them.  The one
/// writer thread stands for every writer (the index lock serialises them,
/// so the model leaves that lock out).
fn record_lifecycle_model(membrane_only: bool, rule: Rule, reclaim: Reclaim) {
    let records = BTreeMap::from([(ID_T, false)]);
    let slot: Slot = Arc::new(RwLock::new(Arc::new(Snap {
        epoch: 0,
        records: records.clone(),
    })));
    let device = Arc::new(Mutex::new(T_LIVE));

    let (s, d) = (Arc::clone(&slot), Arc::clone(&device));
    let reader = spawn(move || {
        let own = match checked_read(&s, &d, ID_T, rule) {
            None | Some(Checked::Gone) => return,
            Some(Checked::NowTombstone(image)) => image == T_TOMBSTONE,
            Some(Checked::AsLocated(image)) if membrane_only => image.owner == ID_T,
            Some(Checked::AsLocated(image)) => image == T_LIVE || image == T_TOMBSTONE,
        };
        assert!(own, "a read of the id served what is not the id's");
    });
    let (s, d) = (Arc::clone(&slot), Arc::clone(&device));
    let writer = spawn(move || {
        let mut index = Index { epoch: 0, records };
        // Erase: the tombstone image is durable before the publish.
        *d.lock() = T_TOMBSTONE;
        index.records.insert(ID_T, true);
        publish(&mut index, &s);
        // Reclaim.
        if reclaim == Reclaim::FreeThenPublish {
            *d.lock() = FREED;
        }
        index.records.remove(&ID_T);
        publish(&mut index, &s);
        if reclaim == Reclaim::PublishThenFree {
            *d.lock() = FREED;
        }
        // A later insert reuses the freed inode for a fresh record.
        *d.lock() = B_LIVE;
        index.records.insert(ID_B, false);
        publish(&mut index, &s);
    });
    reader.join();
    writer.join();
}

#[test]
fn checked_read_never_serves_an_erased_reclaimed_or_reused_inode() {
    for membrane_only in [false, true] {
        let report = Checker::dfs().check(|| {
            record_lifecycle_model(membrane_only, Rule::Always, Reclaim::PublishThenFree)
        });
        assert!(report.complete, "the model must be exhausted");
        assert!(
            report.executions >= 5_000,
            "{} interleavings",
            report.executions
        );
    }
}

/// Runs a mutated model, expects the checker to catch it, and replays the
/// failure from its recorded schedule.
fn assert_caught(membrane_only: bool, rule: Rule, reclaim: Reclaim) {
    let report = Checker::dfs().run(|| record_lifecycle_model(membrane_only, rule, reclaim));
    let failure = report.failure.expect("the mutation must be caught");
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(
        failure.message.contains("served what is not the id's"),
        "{}",
        failure.message
    );
    let schedule = failure.schedule.clone();
    let replayed = std::panic::catch_unwind(move || {
        Checker::replay(&schedule, || {
            record_lifecycle_model(membrane_only, rule, reclaim)
        })
    });
    assert!(replayed.is_err(), "replay must reproduce the failure");
}

/// Mutation: the rule the product used to have — validate only a record
/// the snapshot located live.  A reader that resolved the *tombstone* sits
/// out the reclaim and the reuse and hands out the fresh record's membrane
/// under the reclaimed id (what `load_membranes` did), or its payload
/// (`get`).  And no validation at all, the source read of `copy`.
#[test]
fn checker_finds_the_reads_the_old_rules_let_through() {
    for membrane_only in [true, false] {
        assert_caught(
            membrane_only,
            Rule::OnlyWhenLocatedLive,
            Reclaim::PublishThenFree,
        );
    }
    assert_caught(false, Rule::Never, Reclaim::PublishThenFree);
}

/// Mutation: a reclaim that frees the inode before it un-indexes the id.
/// The reader meets the freed inode and validates against a snapshot that
/// still holds the tombstone — in the product an `invalid inode` error.
#[test]
fn checker_finds_the_reclaim_that_frees_before_it_publishes() {
    assert_caught(true, Rule::Always, Reclaim::FreeThenPublish);
}

// ---------------------------------------------------------------------
// Model 2: scrubber vs an in-flight two-phase erasure
// ---------------------------------------------------------------------

/// The store state the intent protocol guards: the pending-intent flag
/// (phase 1 of a routed erasure) and the tombstone the erasure produces.
struct ErasureState {
    /// A durable `EraseIntent` naming `ID_T` is parked and not yet cleared.
    intent_pending: bool,
    /// The tombstone for `ID_T` still exists (not reclaimed).
    tombstone_exists: bool,
}

/// An eraser running the two-phase protocol against a concurrent scrubber.
/// The invariant: when the eraser comes back to clear its intent, the
/// tombstone the intent names must still exist — intent recovery replays
/// pending intents on remount, and a reclaimed target would make that
/// replay dangle.
fn intent_race_model(fixed: bool) {
    let state = Arc::new(Mutex::new(ErasureState {
        intent_pending: false,
        tombstone_exists: false,
    }));

    let s = Arc::clone(&state);
    let eraser = spawn(move || {
        // Phase 1: park the durable intent, then tombstone the target.
        {
            let mut state = s.lock();
            state.intent_pending = true;
        }
        {
            let mut state = s.lock();
            state.tombstone_exists = true;
        }
        // Phase 2: clear the intent — the target must still be there.
        {
            let mut state = s.lock();
            assert!(
                state.tombstone_exists,
                "a pending erase intent names a reclaimed tombstone"
            );
            state.intent_pending = false;
        }
    });
    let s = Arc::clone(&state);
    let scrubber = spawn(move || {
        let mut state = s.lock();
        // The fixed scrubber reads the pending-intent set under the same
        // lock and skips every tombstone a pending intent names.
        let eligible = state.tombstone_exists && (!fixed || !state.intent_pending);
        if eligible {
            state.tombstone_exists = false;
        }
    });
    eraser.join();
    scrubber.join();
}

#[test]
fn scrubber_skips_tombstones_named_by_pending_intents() {
    let report = Checker::dfs().check(|| intent_race_model(true));
    assert!(report.complete, "the model must be exhausted");
    assert!(
        report.executions >= 5,
        "{} interleavings",
        report.executions
    );
}

/// Mutation: a scrubber that ignores the pending-intent set reclaims the
/// tombstone between the erasure's two phases, and the checker catches the
/// eraser clearing an intent that names a vanished id.
#[test]
fn checker_finds_the_reclaim_racing_an_intent() {
    let report = Checker::dfs().run(|| intent_race_model(false));
    let failure = report.failure.expect("the intent race must be caught");
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(
        failure
            .message
            .contains("pending erase intent names a reclaimed tombstone"),
        "{}",
        failure.message
    );

    let schedule = failure.schedule.clone();
    let replayed =
        std::panic::catch_unwind(move || Checker::replay(&schedule, || intent_race_model(false)));
    assert!(replayed.is_err(), "replay must reproduce the race");
}
