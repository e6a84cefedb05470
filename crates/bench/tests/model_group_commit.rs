//! Model-checked suite for the journal group-commit cut logic.
//!
//! `Dbfs::collect_many` stages N inserts into shared compound transactions
//! and cuts a new group whenever the staged write set would overflow the
//! journal's crash-atomic capacity.  Here a batch sized to force several
//! cuts races a concurrent single-record `collect` on the **real** `Dbfs`
//! stack (index lock, compound transactions, journal, cache); the seeded
//! random scheduler explores thousands of interleavings of their lock
//! acquisitions.
//!
//! Invariants checked after every interleaving: both writers succeed, the
//! identifiers are unique, every record is readable, and the full index
//! invariant suite holds (secondary indexes agree with the on-disk
//! membranes).
//!
//! A second model sends a group-cutting `update_rows` through the same
//! pipeline while an `erase` and consent deltas hit overlapping records:
//! the batch stops at the tombstone with a clean prefix or finishes before
//! it, nothing is ever written over the tombstone, and the audit trail
//! carries no event on the record after its `Erased`.

use rgpdos::blockdev::MemDevice;
use rgpdos::core::schema::listing1_user_schema;
use rgpdos::core::{
    AccessDecision, AuditEventKind, ConsentDecision, DataTypeId, MembraneDelta, PdId, PurposeId,
    Row, SubjectId,
};
use rgpdos::crypto::escrow::{Authority, OperatorEscrow};
use rgpdos::dbfs::{Dbfs, DbfsError, DbfsParams, PdStore};
use rgpdos_conc::{spawn, Checker};
use std::sync::Arc;

fn user_row(name: &str) -> Row {
    Row::new()
        .with("name", name)
        .with("pwd", "hunter2")
        .with("year_of_birthdate", 1970i64)
}

fn group_commit_model() {
    let device = Arc::new(MemDevice::new(8192, 512));
    // A small journal forces the batch below to cut several groups.
    let mut params = DbfsParams::small();
    params.inode_params.journal_blocks = 16;
    let dbfs = Arc::new(Dbfs::format(device, params).expect("format dbfs"));
    dbfs.create_type(listing1_user_schema())
        .expect("create table");

    let batch_store = Arc::clone(&dbfs);
    let batcher = spawn(move || {
        let rows: Vec<(SubjectId, Row)> = (0..6u64)
            .map(|i| (SubjectId::new(i % 3), user_row(&format!("batch{i}"))))
            .collect();
        batch_store
            .collect_many(&"user".into(), rows)
            .expect("batched insert")
    });

    let single_store = Arc::clone(&dbfs);
    let single = spawn(move || {
        single_store
            .collect(&"user".into(), SubjectId::new(9), user_row("solo"))
            .expect("single insert")
    });

    let mut ids = batcher.join();
    ids.push(single.join());

    // Both writers landed, ids are unique, every record is readable.
    assert_eq!(dbfs.count(&"user".into()).unwrap(), 7, "a record was lost");
    let mut unique = ids.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), ids.len(), "duplicate PdId handed out");
    for id in &ids {
        dbfs.get(&"user".into(), *id).expect("record readable");
    }
    // The secondary indexes agree with the on-disk membranes.
    dbfs.verify_index_invariants().expect("index invariants");
}

#[test]
fn group_commit_cuts_survive_a_concurrent_writer() {
    let report = Checker::random(3_000, 0xD5C0_0002)
        .max_steps(400_000)
        .run(group_commit_model);
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert_eq!(report.executions, 3_000);
    assert_eq!(report.truncated, 0, "executions hit the step bound");
}

// ---------------------------------------------------------------------
// Model 2: a group-cutting update batch races an erasure and consent deltas
// ---------------------------------------------------------------------

/// Records preloaded before the race; the update batch rewrites them all,
/// which on the 16-block journal spans several group commits.
const PRELOADED: u64 = 12;
/// Position (and, ids being dense, identifier) of the record the eraser
/// tombstones mid-race.
const ERASED: usize = 5;
/// A record that stays live and takes a consent delta mid-race.
const CONSENTED: usize = 8;

fn small_journal_store() -> (Arc<Dbfs<Arc<MemDevice>>>, Vec<PdId>) {
    let device = Arc::new(MemDevice::new(8192, 512));
    let mut params = DbfsParams::small();
    params.inode_params.journal_blocks = 16;
    let dbfs = Arc::new(Dbfs::format(device, params).expect("format dbfs"));
    dbfs.create_type(listing1_user_schema())
        .expect("create table");
    let rows = (0..PRELOADED)
        .map(|i| (SubjectId::new(i % 3), user_row(&format!("old{i}"))))
        .collect();
    let ids = dbfs.collect_many(&"user".into(), rows).expect("preload");
    (dbfs, ids)
}

fn rewrites(ids: &[PdId]) -> Vec<(PdId, Row)> {
    ids.iter().map(|&id| (id, user_row("rewritten"))).collect()
}

fn newsletter_grant() -> MembraneDelta {
    MembraneDelta::Grant {
        purpose: PurposeId::from("newsletter"),
        decision: ConsentDecision::All,
    }
}

fn update_batch_vs_erasure_model() {
    let (dbfs, ids) = small_journal_store();
    let user = DataTypeId::from("user");

    let (store, batch) = (Arc::clone(&dbfs), rewrites(&ids));
    let updater = spawn(move || store.update_rows(&"user".into(), batch));

    let (store, target) = (Arc::clone(&dbfs), ids[ERASED]);
    let eraser = spawn(move || {
        let escrow = OperatorEscrow::new(Authority::generate(7).public_key());
        store.erase(&"user".into(), target, &escrow).expect("erase")
    });

    let (store, targets) = (Arc::clone(&dbfs), [ids[ERASED], ids[CONSENTED]]);
    let consenter = spawn(move || {
        targets.map(|id| {
            store
                .apply_membrane_delta(&"user".into(), id, &newsletter_grant())
                .expect("consent delta")
        })
    });

    let updated = updater.join();
    assert_eq!(eraser.join(), vec![ids[ERASED]]);
    let [_, granted_live] = consenter.join();
    assert!(granted_live, "a delta to a live record takes effect");

    // The batch either ran to the end or stopped at the tombstone with a
    // clean prefix: everything before it rewritten, nothing after it.
    let name_of = |id: PdId| {
        let record = dbfs.get(&user, id).expect("record readable");
        record
            .row()
            .get("name")
            .and_then(|v| v.as_text().map(String::from))
    };
    match updated {
        Ok(()) => {}
        Err(DbfsError::Erased { id }) => assert_eq!(id, ids[ERASED].raw()),
        Err(e) => panic!("unexpected batch failure: {e}"),
    }
    for (pos, &id) in ids.iter().enumerate() {
        if pos == ERASED {
            continue;
        }
        let rewritten = pos < ERASED || updated.is_ok();
        let expected = if rewritten {
            "rewritten".to_owned()
        } else {
            format!("old{pos}")
        };
        assert_eq!(name_of(id), Some(expected), "record {pos}");
    }
    // No update landed on the tombstone, and neither the rewrite nor the
    // delta of the consented record clobbered the other.
    let tombstone = dbfs.get(&user, ids[ERASED]).expect("tombstone readable");
    assert!(tombstone.membrane().is_erased());
    assert!(
        tombstone.row().get("name").is_none(),
        "plaintext on a tombstone"
    );
    let consented = dbfs.get(&user, ids[CONSENTED]).expect("record readable");
    assert_eq!(
        consented.membrane().permits(&PurposeId::from("newsletter")),
        AccessDecision::Full
    );

    // The audit trail has no event on the record after its `Erased`.
    let erased = ids[ERASED];
    let trail = dbfs.audit().snapshot();
    let erased_at = trail
        .iter()
        .position(|e| e.kind == AuditEventKind::Erased { pd: erased })
        .expect("the erasure is audited");
    for event in &trail[erased_at + 1..] {
        let late = match &event.kind {
            AuditEventKind::Updated { pd } | AuditEventKind::ConsentChanged { pd, .. } => {
                *pd == erased
            }
            _ => false,
        };
        assert!(
            !late,
            "event after the erasure of {erased}: {:?}",
            event.kind
        );
    }
    dbfs.verify_index_invariants().expect("index invariants");
}

#[test]
fn update_batch_cuts_race_erasure_and_consent_without_touching_the_tombstone() {
    // The race is only about the cut if the batch alone spans several
    // groups on this geometry.
    let (dbfs, ids) = small_journal_store();
    let before = dbfs.inode_fs().journal_txs();
    dbfs.update_rows(&"user".into(), rewrites(&ids))
        .expect("sequential batch");
    assert!(dbfs.inode_fs().journal_txs() - before > 1);

    let report = Checker::random(1_500, 0xD5C0_0013)
        .max_steps(400_000)
        .run(update_batch_vs_erasure_model);
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert_eq!(report.executions, 1_500);
    assert_eq!(report.truncated, 0, "executions hit the step bound");
}
