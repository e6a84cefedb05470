//! A scrub pass that meets a storage error part-way.
//!
//! A pass commits its reclaims in groups, and an error while one is staged
//! still commits the reclaims staged before it, so an error in the middle
//! leaves a prefix of whole reclaims behind.  Whatever that prefix is, the
//! accounting must describe it: on one store the `Reclaimed` audit events and
//! the `tombstones_reclaimed` counter name exactly the ids that are gone; on
//! the sharded store the router-level invariants still hold and the next pass
//! finishes the job.  Both tests sweep a transient read fault over every device read of
//! a clean pass (buffer cache off, so every block a pass needs is a read).

use rgpdos::blockdev::{FaultEvent, FaultScript, FaultyDevice, MemDevice};
use rgpdos::core::schema::listing1_user_schema;
use rgpdos::core::{AuditEventKind, DataTypeId, PdId, Row, SubjectId};
use rgpdos::crypto::escrow::{Authority, OperatorEscrow};
use rgpdos::dbfs::{Dbfs, DbfsParams, PdStore};
use rgpdos::shard::ShardedDbfs;
use std::sync::Arc;

type Faulty = Arc<FaultyDevice<MemDevice>>;

fn user() -> DataTypeId {
    "user".into()
}

fn row(name: &str) -> Row {
    Row::new()
        .with("name", name)
        .with("pwd", "pw")
        .with("year_of_birthdate", 1990i64)
}

fn escrow() -> OperatorEscrow {
    OperatorEscrow::new(Authority::generate(0x5C0B).public_key())
}

fn faulty(script: FaultScript) -> Faulty {
    Arc::new(FaultyDevice::new(MemDevice::new(8192, 512), script))
}

fn failed_read_at(k: u64) -> FaultScript {
    FaultScript::new([FaultEvent::FailedReadAt(k)])
}

/// Four tombstones on one store, cache off.  The setup is deterministic, so
/// a read index measured on one instance names the same read on the next.
fn four_tombstones(script: FaultScript) -> (Dbfs<Faulty>, Faulty, Vec<PdId>) {
    let device = faulty(script);
    let dbfs = Dbfs::format(Arc::clone(&device), DbfsParams::small()).unwrap();
    dbfs.create_type(listing1_user_schema()).unwrap();
    let ids: Vec<PdId> = (0..4u64)
        .map(|raw| {
            let name = format!("u{raw}");
            dbfs.collect(&user(), SubjectId::new(raw), row(&name))
                .unwrap()
        })
        .collect();
    for &id in &ids {
        dbfs.erase(&user(), id, &escrow()).unwrap();
    }
    dbfs.inode_fs().set_cache_capacity(0);
    (dbfs, device, ids)
}

#[test]
fn a_failed_scrub_pass_accounts_for_every_reclaim_it_committed() {
    let (clean, device, _) = four_tombstones(FaultScript::none());
    let first = device.reads_seen();
    assert_eq!(clean.scrub_tombstones().unwrap().reclaimed_count(), 4);
    let last = device.reads_seen();
    assert!(last > first + 4, "the pass reads the device");

    let mut failed_with_reclaims = 0;
    for k in first..last {
        let (dbfs, _, ids) = four_tombstones(failed_read_at(k));
        let outcome = dbfs.scrub_tombstones();
        let held: Vec<PdId> = dbfs
            .record_index_snapshot()
            .iter()
            .map(|summary| summary.id)
            .collect();
        let gone = ids.iter().filter(|id| !held.contains(id)).count();
        let audited = dbfs
            .audit()
            .count_matching(|event| matches!(event.kind, AuditEventKind::Reclaimed { .. }));
        let counted = dbfs.tombstones_reclaimed() as usize;
        assert_eq!(
            (audited, counted),
            (gone, gone),
            "read fault at {k} ({outcome:?}): {gone} ids gone, {audited} audited, {counted} counted"
        );
        failed_with_reclaims += usize::from(outcome.is_err() && gone > 0);
        // The fault was transient and the index still describes the device.
        dbfs.verify_index_invariants().unwrap();
        dbfs.scrub_tombstones().unwrap();
        assert!(dbfs.record_index_snapshot().is_empty());
        assert_eq!(dbfs.tombstones_reclaimed(), 4);
    }
    assert!(failed_with_reclaims > 0, "no pass failed part-way");
}

/// Two shards, cache off: three subjects' records, each copied twice through
/// the router (copies are placed round-robin, so lineage crosses the
/// shards), everything erased.
fn erased_cross_shard_chains(scripts: [FaultScript; 2]) -> (ShardedDbfs<Faulty>, Vec<Faulty>) {
    let devices: Vec<Faulty> = scripts.into_iter().map(faulty).collect();
    let sharded = ShardedDbfs::format(devices.clone(), DbfsParams::small()).unwrap();
    sharded.create_type(listing1_user_schema()).unwrap();
    for raw in 0..3u64 {
        let name = format!("s{raw}");
        let id = sharded
            .collect(&user(), SubjectId::new(raw), row(&name))
            .unwrap();
        let copy = sharded.copy(&user(), id).unwrap();
        sharded.copy(&user(), copy).unwrap();
        sharded.erase(&user(), id, &escrow()).unwrap();
    }
    for shard in sharded.shards() {
        shard.inode_fs().set_cache_capacity(0);
    }
    sharded.verify_index_invariants().unwrap();
    (sharded, devices)
}

#[test]
fn a_failed_sharded_scrub_leaves_the_invariants_holding_and_the_next_pass_finishing() {
    let (clean, devices) = erased_cross_shard_chains([FaultScript::none(), FaultScript::none()]);
    let first = devices[1].reads_seen();
    assert_eq!(clean.scrub_tombstones().unwrap().reclaimed_count(), 9);
    let last = devices[1].reads_seen();

    let mut failed = 0;
    for k in first..last {
        let (sharded, _) = erased_cross_shard_chains([FaultScript::none(), failed_read_at(k)]);
        failed += usize::from(sharded.scrub_tombstones().is_err());
        sharded
            .verify_index_invariants()
            .unwrap_or_else(|e| panic!("read fault at {k} on shard 1: {e}"));
        // Nothing stays blocked behind an edge with no record: the next pass
        // finishes the job.
        sharded.scrub_tombstones().unwrap();
        assert_eq!(sharded.space_stats().unwrap().tombstone_records, 0);
    }
    assert!(failed > 0, "no pass failed");
}
