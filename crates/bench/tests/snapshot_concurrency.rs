//! Concurrent reader/writer sweeps over the snapshot read path.
//!
//! Real threads (not the model checker — see `model_snapshot_reads` for the
//! exhaustive interleaving suite) hammer a shared [`Dbfs`] while a writer
//! commits batches and erasures.  Every reader observation must be a
//! committed group-commit prefix: counts move in whole-group multiples and
//! never backwards, snapshot epochs and journal cut points are monotonic,
//! and a record is either served intact or reported `Erased` — never as
//! stale or reused payload bytes.

use rgpdos::blockdev::MemDevice;
use rgpdos::core::schema::listing1_user_schema;
use rgpdos::core::{DataTypeId, Row, SubjectId};
use rgpdos::crypto::escrow::{Authority, OperatorEscrow};
use rgpdos::dbfs::{Dbfs, DbfsError, DbfsParams, PdStore, QueryRequest};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const GROUP: usize = 5;
const GROUPS: usize = 40;

fn user_row(name: &str) -> Row {
    Row::new()
        .with("name", name)
        .with("pwd", "pw")
        .with("year_of_birthdate", 1990i64)
}

fn fresh_dbfs() -> Arc<Dbfs<Arc<MemDevice>>> {
    let dbfs = Dbfs::format(Arc::new(MemDevice::new(16_384, 512)), DbfsParams::small())
        .expect("format DBFS");
    dbfs.create_type(listing1_user_schema())
        .expect("install the user type");
    Arc::new(dbfs)
}

/// A reader sweeping `count`/`query`/`snapshot_info` while a writer commits
/// whole groups: every observation is a group-commit cut point — counts in
/// whole-group multiples, epochs and journal cuts monotonic, no snapshot
/// ever moving backwards.
#[test]
fn concurrent_reader_observes_only_group_commit_cut_points() {
    let dbfs = fresh_dbfs();
    let user = DataTypeId::from("user");
    let done = Arc::new(AtomicBool::new(false));

    let reader = {
        let dbfs = Arc::clone(&dbfs);
        let user = user.clone();
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let (mut last_epoch, _, mut last_txs) = dbfs.snapshot_info();
            let mut last_count = 0usize;
            let mut sweeps = 0u64;
            loop {
                let finished = done.load(Ordering::Acquire);
                let (epoch, _, txs) = dbfs.snapshot_info();
                assert!(epoch >= last_epoch, "snapshot epoch went backwards");
                assert!(txs >= last_txs, "journal cut point went backwards");
                (last_epoch, last_txs) = (epoch, txs);
                let count = dbfs.count(&user).expect("count");
                assert_eq!(
                    count % GROUP,
                    0,
                    "a half-applied group was visible: count={count}"
                );
                assert!(
                    count >= last_count,
                    "count went backwards: {last_count} -> {count}"
                );
                last_count = count;
                let batch = dbfs.query(&QueryRequest::all(user.clone())).expect("query");
                assert_eq!(
                    batch.len() % GROUP,
                    0,
                    "query saw a half group: {} records",
                    batch.len()
                );
                sweeps += 1;
                if finished {
                    break;
                }
            }
            sweeps
        })
    };

    for group in 0..GROUPS {
        let subject = SubjectId::new(1_000 + group as u64);
        let rows = (0..GROUP)
            .map(|row| (subject, user_row(&format!("u{group}-{row}"))))
            .collect();
        dbfs.collect_many(&user, rows).expect("group insert");
    }
    done.store(true, Ordering::Release);
    let sweeps = reader.join().expect("reader thread");
    assert!(sweeps > 0, "the reader never got a sweep in");
    assert_eq!(dbfs.count(&user).unwrap(), GROUP * GROUPS);
    dbfs.verify_index_invariants()
        .expect("quiescent invariants");
}

/// A reader sweeping `get` over every known id while subjects are erased
/// underneath it: each read returns the record or `Erased`, never a decode
/// error from scrubbed or reused blocks, and the live count only shrinks.
#[test]
fn concurrent_reader_sees_erased_not_stale_during_subject_erasure() {
    let dbfs = fresh_dbfs();
    let user = DataTypeId::from("user");
    let subjects: Vec<SubjectId> = (0..20).map(|s| SubjectId::new(2_000 + s)).collect();
    let mut ids = Vec::new();
    for (i, &subject) in subjects.iter().enumerate() {
        let rows = (0..GROUP)
            .map(|row| (subject, user_row(&format!("s{i}-{row}"))))
            .collect();
        ids.extend(dbfs.collect_many(&user, rows).expect("preload"));
    }
    let ids = Arc::new(ids);
    let done = Arc::new(AtomicBool::new(false));

    let reader = {
        let dbfs = Arc::clone(&dbfs);
        let user = user.clone();
        let ids = Arc::clone(&ids);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut last_count = dbfs.count(&user).expect("count");
            loop {
                let finished = done.load(Ordering::Acquire);
                for &id in ids.iter() {
                    match dbfs.get(&user, id) {
                        Ok(record) => assert_eq!(record.id(), id),
                        Err(DbfsError::Erased { .. }) => {}
                        Err(e) => panic!("concurrent get surfaced {e}"),
                    }
                }
                let count = dbfs.count(&user).expect("count");
                assert!(
                    count <= last_count,
                    "an erased record came back: {last_count} -> {count}"
                );
                last_count = count;
                if finished {
                    break;
                }
            }
        })
    };

    let authority = Authority::generate(0x5EED);
    let escrow = OperatorEscrow::new(authority.public_key());
    for &subject in &subjects {
        dbfs.erase_subject(subject, &escrow).expect("erase subject");
    }
    done.store(true, Ordering::Release);
    reader.join().expect("reader thread");
    assert_eq!(dbfs.count(&user).unwrap(), 0);
    for &id in ids.iter() {
        let membrane = dbfs.load_membrane(&user, id).expect("tombstone load");
        assert!(membrane.is_erased(), "{id} survived its subject's erasure");
    }
    dbfs.verify_index_invariants()
        .expect("quiescent invariants");
}

/// Readers are served from the published snapshot: with no writer running,
/// `get`/`query`/`load_membranes`/`records_of_subject`/`count` from two
/// threads take the writer-side index lock zero times.
#[test]
fn read_mix_takes_zero_index_lock_acquisitions() {
    let dbfs = fresh_dbfs();
    let user = DataTypeId::from("user");
    let subjects: Vec<SubjectId> = (0..8).map(|s| SubjectId::new(3_000 + s)).collect();
    let mut ids = Vec::new();
    for (i, &subject) in subjects.iter().enumerate() {
        let rows = (0..GROUP)
            .map(|row| (subject, user_row(&format!("r{i}-{row}"))))
            .collect();
        ids.extend(dbfs.collect_many(&user, rows).expect("preload"));
    }

    let holds_before = dbfs.index_lock_holds();
    assert!(holds_before > 0, "the preload went through the index lock");
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                for &id in &ids {
                    assert_eq!(dbfs.get(&user, id).expect("get").id(), id);
                }
                for &subject in &subjects {
                    let request = QueryRequest::all(user.clone()).for_subject(subject);
                    assert_eq!(dbfs.query(&request).expect("query").len(), GROUP);
                    let owned = dbfs.records_of_subject(subject).expect("subject scan");
                    assert_eq!(owned.len(), GROUP);
                }
                let membranes = dbfs.load_membranes(&user).expect("membrane scan");
                assert_eq!(membranes.len(), ids.len());
                assert_eq!(dbfs.count(&user).unwrap(), ids.len());
            });
        }
    });
    assert_eq!(
        dbfs.index_lock_holds() - holds_before,
        0,
        "a snapshot-served read took the index lock"
    );
}
