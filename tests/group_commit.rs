//! Crash-point regression for the batched (group-commit) write path.
//!
//! A `collect_many` batch is journaled as a handful of group commits
//! instead of one journal transaction per record.  This sweep crashes the
//! batch at **every** device write index and asserts that recovery leaves a
//! clean *prefix* of the batch — whole groups, never a torn record — and in
//! particular that the window **between a group's in-place flush and its
//! journal checkpoint/scrub** rolls forward via mount-time journal replay.
//! A second sweep does the same to a group-cutting `update_rows`, which
//! runs through the same pipeline: the rewritten rows are a prefix of the
//! batch and no row is torn.

use rgpdos::blockdev::{FaultScript, FaultyDevice, MemDevice};
use rgpdos::core::schema::listing1_user_schema;
use rgpdos::core::{PdId, Row, SubjectId};
use rgpdos::dbfs::{Dbfs, DbfsParams, PdStore, QueryRequest};
use std::sync::Arc;

fn batch_rows(n: u64) -> Vec<(SubjectId, Row)> {
    (0..n)
        .map(|i| {
            (
                SubjectId::new(i % 4),
                Row::new()
                    .with("name", format!("batch-{i}"))
                    .with("pwd", "pw")
                    .with("year_of_birthdate", 1970i64 + i as i64),
            )
        })
        .collect()
}

fn fresh_image() -> Arc<MemDevice> {
    let device = Arc::new(MemDevice::new(16_384, 512));
    // A deliberately small journal so the batch cannot fit one journal
    // transaction: the group-commit path must cut several groups, putting
    // real group boundaries inside the sweep.
    let mut params = DbfsParams::small();
    params.inode_params.journal_blocks = 16;
    let dbfs = Dbfs::format(Arc::clone(&device), params).expect("format image");
    dbfs.create_type(listing1_user_schema())
        .expect("install user type");
    device
}

#[test]
fn group_commit_crashes_leave_a_clean_prefix_at_every_write_index() {
    const BATCH: u64 = 12;

    // Reference run: learn the total write count and prove the batch really
    // is group-committed (fewer journal transactions than records).
    let reference = fresh_image();
    let probe = FaultyDevice::new(Arc::clone(&reference), FaultScript::none());
    let cell = probe.cell();
    let dbfs = Dbfs::mount(probe).expect("reference mount");
    let (total_writes, ids) =
        cell.writes_between(|| dbfs.collect_many(&"user".into(), batch_rows(BATCH)));
    assert_eq!(ids.expect("reference batch").len(), BATCH as usize);
    let groups = dbfs.inode_fs().journal_txs();
    assert!(
        groups > 1 && groups < BATCH,
        "the batch must span several group commits: {groups} journal txs for {BATCH} records"
    );
    assert!(total_writes > 10, "the batch spans many device writes");
    drop(dbfs);

    let mut rolled_forward = 0usize;
    let mut prefix_lengths: Vec<usize> = Vec::new();
    for crash_after in 0..total_writes {
        let device = fresh_image();
        let dbfs = Dbfs::mount(FaultyDevice::new(
            Arc::clone(&device),
            FaultScript::crash_after_writes(crash_after),
        ))
        .expect("pre-crash mount");
        assert!(
            dbfs.collect_many(&"user".into(), batch_rows(BATCH))
                .is_err(),
            "crash point {crash_after} must trip"
        );
        drop(dbfs);

        let remounted = Dbfs::mount(Arc::clone(&device)).expect("post-crash mount");
        remounted
            .verify_index_invariants()
            .unwrap_or_else(|e| panic!("crash {crash_after}: invariants violated: {e}"));
        // The committed records are exactly a prefix of the batch: ids are
        // assigned densely in input order and groups commit in order, so
        // the surviving id set must be 0..k with every row intact.
        let batch = remounted
            .query(&QueryRequest::all("user"))
            .unwrap_or_else(|e| panic!("crash {crash_after}: records unreadable: {e}"));
        let mut raws: Vec<u64> = batch.iter().map(|record| record.id().raw()).collect();
        raws.sort_unstable();
        let expected: Vec<u64> = (0..raws.len() as u64).collect();
        assert_eq!(
            raws, expected,
            "crash {crash_after}: committed records must form a clean prefix"
        );
        for record in batch.iter() {
            let name = record.row().get("name").and_then(|v| v.as_text()).unwrap();
            assert_eq!(
                name,
                format!("batch-{}", record.id().raw()),
                "crash {crash_after}: record contents torn"
            );
        }
        prefix_lengths.push(raws.len());
        if remounted.stats().journal_replays > 0 {
            // This crash point landed between a group's journal commit
            // record and its checkpoint/scrub — the flush-to-journal-clear
            // window — and the whole group was rolled forward by replay.
            rolled_forward += 1;
        }
        // The store stays usable after recovery.
        remounted
            .collect(
                &"user".into(),
                SubjectId::new(99),
                Row::new()
                    .with("name", "post-crash")
                    .with("pwd", "pw")
                    .with("year_of_birthdate", 2000i64),
            )
            .unwrap_or_else(|e| panic!("crash {crash_after}: store unusable: {e}"));
    }

    assert!(
        rolled_forward > 0,
        "some crash point must land between the group-commit flush and the \
         journal clear, exercising mount-time replay"
    );
    // Early crash points commit nothing, late ones commit everything, and
    // intermediate group boundaries appear in between.
    assert_eq!(*prefix_lengths.first().unwrap(), 0);
    assert_eq!(*prefix_lengths.last().unwrap() as u64, BATCH);
    assert!(
        prefix_lengths
            .iter()
            .any(|&len| len > 0 && (len as u64) < BATCH),
        "some crash point must land between two committed groups"
    );
}

#[test]
fn update_rows_crashes_leave_a_clean_prefix_at_every_write_index() {
    const BATCH: u64 = 12;
    let preloaded_image = || {
        let device = fresh_image();
        let dbfs = Dbfs::mount(Arc::clone(&device)).expect("preload mount");
        dbfs.collect_many(&"user".into(), batch_rows(BATCH))
            .expect("preload");
        device
    };
    let rewrites = || -> Vec<(PdId, Row)> {
        batch_rows(BATCH)
            .into_iter()
            .enumerate()
            .map(|(i, (_, row))| (PdId::new(i as u64), row.with("name", format!("new-{i}"))))
            .collect()
    };

    let reference = preloaded_image();
    let probe = FaultyDevice::new(Arc::clone(&reference), FaultScript::none());
    let cell = probe.cell();
    let dbfs = Dbfs::mount(probe).expect("reference mount");
    let (total_writes, result) =
        cell.writes_between(|| dbfs.update_rows(&"user".into(), rewrites()));
    result.expect("reference batch");
    let groups = dbfs.inode_fs().journal_txs();
    assert!(
        groups > 1 && groups < BATCH,
        "the rewrites must span several group commits: {groups} journal txs for {BATCH} rows"
    );
    drop(dbfs);

    let mut prefix_lengths: Vec<usize> = Vec::new();
    for crash_after in 0..total_writes {
        let device = preloaded_image();
        let dbfs = Dbfs::mount(FaultyDevice::new(
            Arc::clone(&device),
            FaultScript::crash_after_writes(crash_after),
        ))
        .expect("pre-crash mount");
        assert!(
            dbfs.update_rows(&"user".into(), rewrites()).is_err(),
            "crash point {crash_after} must trip"
        );
        drop(dbfs);

        let remounted = Dbfs::mount(Arc::clone(&device)).expect("post-crash mount");
        remounted
            .verify_index_invariants()
            .unwrap_or_else(|e| panic!("crash {crash_after}: invariants violated: {e}"));
        // Every row is whole — the old one or the new one — and the new
        // ones are exactly the first k of the batch.
        let mut rewritten = Vec::new();
        for i in 0..BATCH {
            let record = remounted
                .get(&"user".into(), PdId::new(i))
                .unwrap_or_else(|e| panic!("crash {crash_after}: record {i} unreadable: {e}"));
            let name = record.row().get("name").and_then(|v| v.as_text()).unwrap();
            assert!(
                name == format!("batch-{i}") || name == format!("new-{i}"),
                "crash {crash_after}: record {i} torn: {name}"
            );
            rewritten.push(name.starts_with("new-"));
        }
        let prefix = rewritten.iter().take_while(|&&new| new).count();
        assert!(
            rewritten[prefix..].iter().all(|&new| !new),
            "crash {crash_after}: rewrites must form a clean prefix: {rewritten:?}"
        );
        prefix_lengths.push(prefix);
    }
    assert_eq!(*prefix_lengths.first().unwrap(), 0);
    assert_eq!(*prefix_lengths.last().unwrap() as u64, BATCH);
    assert!(
        prefix_lengths
            .iter()
            .any(|&len| len > 0 && (len as u64) < BATCH),
        "some crash point must land between two committed groups"
    );
}
