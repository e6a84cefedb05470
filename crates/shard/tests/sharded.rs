//! Integration tests of the sharded DBFS: placement, scatter-gather,
//! cross-shard erasure and the mount-time directory rebuild.

use rgpdos_blockdev::MemDevice;
use rgpdos_core::schema::listing1_user_schema;
use rgpdos_core::{DataTypeId, Duration, MembraneDelta, PdId, Row, SubjectId, TimeToLive};
use rgpdos_crypto::escrow::{Authority, OperatorEscrow};
use rgpdos_dbfs::{DbfsError, DbfsParams, PdStore, Predicate, QueryRequest};
use rgpdos_shard::ShardedDbfs;
use std::sync::Arc;

fn devices(n: usize) -> Vec<Arc<MemDevice>> {
    (0..n)
        .map(|_| Arc::new(MemDevice::new(8192, 512)))
        .collect()
}

fn sharded(n: usize) -> ShardedDbfs<Arc<MemDevice>> {
    let sharded = ShardedDbfs::format(devices(n), DbfsParams::small()).unwrap();
    sharded.create_type(listing1_user_schema()).unwrap();
    sharded
}

fn escrow() -> OperatorEscrow {
    OperatorEscrow::new(Authority::generate(42).public_key())
}

fn user_row(name: &str) -> Row {
    Row::new()
        .with("name", name)
        .with("pwd", "pw")
        .with("year_of_birthdate", 1990i64)
}

fn user() -> DataTypeId {
    DataTypeId::from("user")
}

#[test]
fn placement_is_deterministic_and_ids_are_strided() {
    let sharded = sharded(4);
    for raw in 0..32u64 {
        let subject = SubjectId::new(raw);
        let id = sharded.collect(&user(), subject, user_row("p")).unwrap();
        // The id's strided shard is the subject's home shard.
        assert_eq!(sharded.shard_of_id(id), sharded.home_shard(subject));
        assert_eq!(id.raw() % 4, sharded.home_shard(subject) as u64);
    }
    assert_eq!(sharded.count(&user()).unwrap(), 32);
    // Every shard got some records (the mix spreads 32 dense subjects).
    let stats = sharded.sharded_stats();
    assert!(
        stats.per_shard.iter().all(|s| s.live_records > 0),
        "{stats}"
    );
    assert_eq!(stats.live_records(), 32);
    assert_eq!(stats.totals.collects, 32);
}

#[test]
fn scatter_gather_merges_scans_and_subject_queries_stay_routed() {
    let sharded = sharded(3);
    for raw in 0..30u64 {
        sharded
            .collect(&user(), SubjectId::new(raw), user_row(&format!("s{raw}")))
            .unwrap();
    }
    // Full scan reaches every shard's records.
    let batch = sharded.query(&QueryRequest::all("user")).unwrap();
    assert_eq!(batch.len(), 30);
    let membranes = sharded.load_membranes(&user()).unwrap();
    assert_eq!(membranes.len(), 30);
    // A subject-pinned query returns exactly that subject's records.
    let subject = SubjectId::new(7);
    let pinned = sharded
        .query(&QueryRequest::all("user").for_subject(subject))
        .unwrap();
    assert_eq!(pinned.len(), 1);
    assert_eq!(pinned.iter().next().unwrap().subject(), subject);
    // Point reads route by id.
    let id = pinned.iter().next().unwrap().id();
    let record = sharded.get(&user(), id).unwrap();
    assert_eq!(record.subject(), subject);
    sharded.verify_index_invariants().unwrap();
}

#[test]
fn batched_ingest_routes_groups_to_home_shards_with_group_commit() {
    let sharded = sharded(4);
    let rows: Vec<(SubjectId, Row)> = (0..48u64)
        .map(|raw| (SubjectId::new(raw), user_row(&format!("b{raw}"))))
        .collect();
    let ids = sharded.collect_many(&user(), rows.clone()).unwrap();
    assert_eq!(ids.len(), 48);
    // Input order is preserved and every id landed on its home shard.
    for (&id, (subject, _)) in ids.iter().zip(&rows) {
        assert_eq!(sharded.shard_of_id(id), sharded.home_shard(*subject));
        let record = sharded.get(&user(), id).unwrap();
        assert_eq!(record.subject(), *subject);
    }
    assert_eq!(sharded.count(&user()).unwrap(), 48);
    sharded.verify_index_invariants().unwrap();
    // Each involved shard coalesced its group: far fewer journal
    // transactions than records.
    let journal_txs: u64 = sharded
        .shards()
        .iter()
        .map(|shard| shard.inode_fs().journal_txs())
        .sum();
    assert!(
        journal_txs * 3 <= 48 + sharded.num_shards() as u64,
        "scatter writes must group-commit per shard: {journal_txs} journal txs for 48 records"
    );
    let stats = sharded.stats();
    assert_eq!(stats.collects, 48);
    assert_eq!(stats.insert_batches, 4);

    // Batched updates route by owning shard, preserving per-record checks.
    sharded
        .update_rows(
            &user(),
            ids.iter().map(|&id| (id, user_row("rewritten"))).collect(),
        )
        .unwrap();
    for &id in &ids {
        assert_eq!(
            sharded
                .get(&user(), id)
                .unwrap()
                .row()
                .get("name")
                .unwrap()
                .as_text(),
            Some("rewritten")
        );
    }

    // A schema-invalid row mid-batch leaves its shard a clean prefix: the
    // update before it is applied, the bad row and the one after are not.
    let on_shard_0: Vec<PdId> = ids
        .iter()
        .copied()
        .filter(|&id| sharded.shard_of_id(id) == 0)
        .take(3)
        .collect();
    assert_eq!(on_shard_0.len(), 3, "48 subjects leave shard 0 three ids");
    let result = sharded.update_rows(
        &user(),
        vec![
            (on_shard_0[0], user_row("prefix")),
            (on_shard_0[1], Row::new().with("name", "missing fields")),
            (on_shard_0[2], user_row("never")),
        ],
    );
    assert!(matches!(result, Err(DbfsError::Core(_))));
    let name_of = |id: PdId| {
        let record = sharded.get(&user(), id).unwrap();
        record
            .row()
            .get("name")
            .unwrap()
            .as_text()
            .map(String::from)
    };
    assert_eq!(name_of(on_shard_0[0]).as_deref(), Some("prefix"));
    assert_eq!(name_of(on_shard_0[1]).as_deref(), Some("rewritten"));
    assert_eq!(name_of(on_shard_0[2]).as_deref(), Some("rewritten"));
    assert_eq!(sharded.stats().updates, 49);

    // A batch after an erasure still refuses erased lineage through the
    // single-record guard path (wrapped copies go through store_routed).
    let erased = sharded.erase(&user(), ids[0], &escrow()).unwrap();
    assert!(!erased.is_empty());
    let copy_of_erased = sharded.get(&user(), ids[1]).unwrap();
    let wrapped = rgpdos_core::WrappedPd::new(
        copy_of_erased.row().clone(),
        copy_of_erased.membrane().for_copy(ids[0]),
    );
    assert!(sharded.insert_many(vec![(user(), wrapped)]).is_err());
}

#[test]
fn id_pinned_queries_route_to_the_owning_shards_only() {
    use rgpdos_blockdev::InstrumentedDevice;
    use rgpdos_blockdev::LatencyModel;
    let devices: Vec<Arc<InstrumentedDevice<MemDevice>>> = (0..4)
        .map(|_| {
            Arc::new(InstrumentedDevice::new(
                MemDevice::new(8192, 512),
                LatencyModel::nvme(),
            ))
        })
        .collect();
    let sharded = ShardedDbfs::format(devices.clone(), DbfsParams::small()).unwrap();
    sharded.create_type(listing1_user_schema()).unwrap();
    let ids: Vec<PdId> = (0..16u64)
        .map(|raw| {
            sharded
                .collect(&user(), SubjectId::new(raw), user_row("id-pin"))
                .unwrap()
        })
        .collect();
    let target = ids[0];
    let owner = sharded.shard_of_id(target);
    // Cold-cache measurement: the routing argument is about *device* reads,
    // which the inode-layer buffer cache would otherwise absorb.
    sharded.drop_caches();
    for device in &devices {
        device.reset_stats();
    }
    let batch = sharded
        .query(&QueryRequest::all("user").filter(Predicate::pd_in([target])))
        .unwrap();
    assert_eq!(batch.len(), 1);
    assert_eq!(batch.iter().next().unwrap().id(), target);
    for (shard, device) in devices.iter().enumerate() {
        if shard == owner {
            assert!(device.stats().reads > 0, "owning shard answers");
        } else {
            assert_eq!(device.stats().reads, 0, "shard {shard} must stay idle");
        }
    }
    // An empty mandatory id set matches nothing and touches nothing.
    let empty = sharded
        .query(&QueryRequest::all("user").filter(Predicate::pd_in([])))
        .unwrap();
    assert!(empty.is_empty());
}

#[test]
fn load_records_preserves_request_order_across_shards() {
    let sharded = sharded(3);
    let mut ids: Vec<PdId> = (0..9u64)
        .map(|raw| {
            sharded
                .collect(&user(), SubjectId::new(raw), user_row("o"))
                .unwrap()
        })
        .collect();
    ids.reverse();
    let batch = sharded.load_records(&user(), &ids).unwrap();
    let got: Vec<PdId> = batch.iter().map(|r| r.id()).collect();
    assert_eq!(got, ids);
    // An unknown id is reported, like the single-device store does.
    assert!(sharded.load_records(&user(), &[PdId::new(999)]).is_err());
}

#[test]
fn cross_shard_copies_are_tracked_and_erasure_reaches_the_whole_closure() {
    let sharded = sharded(4);
    let escrow = escrow();
    let subject = SubjectId::new(5);
    let original = sharded
        .collect(&user(), subject, user_row("lineage"))
        .unwrap();
    // Round-robin placement: four copies cover every shard, and a copy of a
    // copy extends the chain cross-shard.
    let copies: Vec<PdId> = (0..4)
        .map(|_| sharded.copy(&user(), original).unwrap())
        .collect();
    let grandchild = sharded.copy(&user(), copies[0]).unwrap();
    let shards_touched: std::collections::BTreeSet<usize> = copies
        .iter()
        .chain([&original, &grandchild])
        .map(|&id| sharded.shard_of_id(id))
        .collect();
    assert!(shards_touched.len() > 1, "copies must span shards");
    // The subject sees every copy, wherever it lives.
    assert_eq!(sharded.records_of_subject(subject).unwrap().len(), 6);
    sharded.verify_index_invariants().unwrap();

    // Erasing the original tombstones the transitive closure on every shard.
    let erased = sharded.erase(&user(), original, &escrow).unwrap();
    assert_eq!(erased.len(), 6, "original + 4 copies + grandchild");
    for id in copies.iter().chain([&original, &grandchild]) {
        assert!(sharded.get(&user(), *id).unwrap().membrane().is_erased());
    }
    assert!(sharded.records_of_subject(subject).unwrap().is_empty());
    // A copy of an erased record is refused.
    assert!(sharded.copy(&user(), original).is_err());
    assert!(sharded.copy(&user(), grandchild).is_err());
    // Tombstones are immutable on whichever shard they live: a membrane
    // delta has no effect and leaves no event after the `Erased`.
    let events = sharded.audit().merged().len();
    let delta = MembraneDelta::SetTimeToLive {
        ttl: TimeToLive::days(1),
    };
    for id in [original, grandchild] {
        assert!(!sharded.apply_membrane_delta(&user(), id, &delta).unwrap());
    }
    assert_eq!(sharded.audit().merged().len(), events);
    sharded.verify_index_invariants().unwrap();
}

#[test]
fn erase_subject_reaches_foreign_copies_on_every_shard() {
    let sharded = sharded(4);
    let escrow = escrow();
    let subject = SubjectId::new(11);
    let other = SubjectId::new(12);
    let a = sharded
        .collect(&user(), subject, user_row("mine-a"))
        .unwrap();
    let b = sharded
        .collect(&user(), subject, user_row("mine-b"))
        .unwrap();
    let other_id = sharded.collect(&user(), other, user_row("theirs")).unwrap();
    let copy_a = sharded.copy(&user(), a).unwrap();
    let copy_b = sharded.copy(&user(), b).unwrap();

    let erased = sharded.erase_subject(subject, &escrow).unwrap();
    let mut expected = vec![a, b, copy_a, copy_b];
    expected.sort();
    let mut got = erased.clone();
    got.sort();
    assert_eq!(got, expected);
    // The other subject is untouched.
    assert!(!sharded
        .get(&user(), other_id)
        .unwrap()
        .membrane()
        .is_erased());
    assert_eq!(sharded.count(&user()).unwrap(), 1);
    sharded.verify_index_invariants().unwrap();
}

#[test]
fn retention_purge_propagates_to_ttl_diverged_cross_shard_copies() {
    let sharded = sharded(3);
    let escrow = escrow();
    let subject = SubjectId::new(2);
    let original = sharded.collect(&user(), subject, user_row("ttl")).unwrap();
    // Find a copy on a different shard than the original, then extend its
    // TTL so it will not expire on its own.
    let copy = loop {
        let copy = sharded.copy(&user(), original).unwrap();
        if sharded.shard_of_id(copy) != sharded.shard_of_id(original) {
            break copy;
        }
    };
    sharded
        .apply_membrane_delta(
            &user(),
            copy,
            &MembraneDelta::SetTimeToLive {
                ttl: TimeToLive::days(10_000),
            },
        )
        .unwrap();
    // Past the 1-year default TTL of Listing 1 the original expires; the
    // sweep must still tombstone the long-lived copy on the other shard —
    // a copy never outlives its lineage.
    sharded.clock().advance(Duration::from_days(400));
    let swept = sharded.purge_expired(&escrow).unwrap();
    assert!(swept.contains(&original));
    assert!(
        swept.contains(&copy),
        "cross-shard copy must be swept: {swept:?}"
    );
    assert!(sharded.get(&user(), copy).unwrap().membrane().is_erased());
    sharded.verify_index_invariants().unwrap();
}

#[test]
fn mount_rebuilds_the_directory_and_invariants_hold() {
    let devices = devices(3);
    let escrow = escrow();
    let erased_original = {
        let sharded = ShardedDbfs::format(devices.clone(), DbfsParams::small()).unwrap();
        sharded.create_type(listing1_user_schema()).unwrap();
        for raw in 0..12u64 {
            sharded
                .collect(&user(), SubjectId::new(raw), user_row(&format!("m{raw}")))
                .unwrap();
        }
        let victim = sharded
            .collect(&user(), SubjectId::new(50), user_row("victim"))
            .unwrap();
        let _spread: Vec<PdId> = (0..3)
            .map(|_| sharded.copy(&user(), victim).unwrap())
            .collect();
        let keeper = sharded
            .collect(&user(), SubjectId::new(51), user_row("keeper"))
            .unwrap();
        sharded.copy(&user(), keeper).unwrap();
        sharded.erase(&user(), victim, &escrow).unwrap();
        sharded.verify_index_invariants().unwrap();
        assert_eq!(
            sharded
                .records_of_subject(SubjectId::new(51))
                .unwrap()
                .len(),
            2
        );
        victim
    };
    // Remount on the same devices: the directory is rebuilt from the
    // per-shard indexes.
    let remounted = ShardedDbfs::mount(devices).unwrap();
    remounted.verify_index_invariants().unwrap();
    assert_eq!(
        remounted.count(&user()).unwrap(),
        14,
        "12 + keeper + its copy"
    );
    // The erased lineage stays erased, and copying from it stays refused.
    assert!(remounted.copy(&user(), erased_original).is_err());
    // The surviving lineage is still visible through the subject route.
    assert_eq!(
        remounted
            .records_of_subject(SubjectId::new(51))
            .unwrap()
            .len(),
        2,
        "keeper + copy"
    );
}

#[test]
fn single_shard_deployment_degenerates_to_plain_dbfs_semantics() {
    let sharded = sharded(1);
    let escrow = escrow();
    let id = sharded
        .collect(&user(), SubjectId::new(1), user_row("solo"))
        .unwrap();
    let copy = sharded.copy(&user(), id).unwrap();
    assert_eq!(sharded.count(&user()).unwrap(), 2);
    let erased = sharded.erase(&user(), id, &escrow).unwrap();
    assert_eq!(erased.len(), 2);
    assert!(sharded.get(&user(), copy).unwrap().membrane().is_erased());
    sharded.verify_index_invariants().unwrap();
}

#[test]
fn pd_store_trait_object_surface_works_for_the_sharded_store() {
    // The engines are generic over PdStore; drive the sharded store through
    // the trait to pin the contract.
    fn through_trait<S: PdStore>(store: &S) {
        let user = DataTypeId::from("user");
        let id = store
            .collect(&user, SubjectId::new(3), user_row("trait"))
            .unwrap();
        let membranes = store
            .load_membranes_for_subject(&user, SubjectId::new(3))
            .unwrap();
        assert_eq!(membranes.len(), 1);
        assert_eq!(membranes[0].0, id);
        assert_eq!(store.count(&user).unwrap(), 1);
        let batch = store
            .query(&QueryRequest::all("user").filter(Predicate::SubjectIs(SubjectId::new(3))))
            .unwrap();
        assert_eq!(batch.len(), 1);
        store.verify_index_invariants().unwrap();
    }
    through_trait(&sharded(4));
}

#[test]
fn attached_trace_labels_shards_and_records_scatter_fanout() {
    use rgpdos_trace::TraceCtx;
    let sharded = sharded(3);
    let ctx = TraceCtx::sim();
    sharded.attach_trace(&ctx);
    for raw in 0..12u64 {
        sharded
            .collect(&user(), SubjectId::new(raw), user_row(&format!("t{raw}")))
            .unwrap();
    }
    // A full scan fans out to all 3 shards; a subject-pinned query to 1.
    assert_eq!(sharded.query(&QueryRequest::all("user")).unwrap().len(), 12);
    let subject = SubjectId::new(5);
    sharded
        .query(&QueryRequest::all("user").for_subject(subject))
        .unwrap();
    let fanout = ctx
        .registry
        .histogram_summary("shard_query_fanout", &[])
        .unwrap();
    assert_eq!(fanout.count, 2);
    assert_eq!(fanout.max, 3);
    assert_eq!(fanout.min, 1);
    // Per-shard counters carry the shard label and sum to the merged stats.
    let (counters, gauges, _) = ctx.registry.collect();
    let collects: u64 = (0..3)
        .map(|i| counters[&format!("dbfs_collects{{shard=\"{i}\"}}")])
        .sum();
    assert_eq!(collects, sharded.stats().collects);
    // Balance gauges are evaluated at collect time and cover every record.
    let live: i64 = (0..3)
        .map(|i| gauges[&format!("shard_live_records{{shard=\"{i}\"}}")])
        .sum();
    assert_eq!(live, 12);
    assert_eq!(gauges["shard_count"], 3);
    // The scatter produced a parent span with one leg per involved shard.
    let spans = ctx.tracer.snapshot();
    let scatters: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "shard_query_scatter")
        .collect();
    assert_eq!(scatters.len(), 2);
    let legs = spans
        .iter()
        .filter(|s| s.name == "shard_query_leg")
        .filter(|s| s.parent.is_some())
        .count();
    assert_eq!(legs, 4, "3 legs for the scan + 1 for the pinned query");
}

/// A shard whose device fails mid-scatter must surface
/// [`DbfsError::PartialScatter`] instead of silently merging the shards
/// that answered (which would pass a partial membrane set off as the whole
/// table).  The fault index is self-calibrating: a fault-free pass measures
/// how many reads setup costs on the target shard, then an identical pass
/// arms [`FaultEvent::FailedReadAt`] at exactly that index, so the very
/// first device read of the scatter leg fails.
#[test]
fn scatter_read_failure_surfaces_as_partial_scatter() {
    use rgpdos_blockdev::{FaultEvent, FaultScript, FaultyDevice};
    use rgpdos_dbfs::DbfsError;

    type FaultyShard = Arc<FaultyDevice<MemDevice>>;

    fn deployment(scripts: [FaultScript; 2]) -> (ShardedDbfs<FaultyShard>, Vec<FaultyShard>) {
        let devices: Vec<FaultyShard> = scripts
            .into_iter()
            .map(|script| Arc::new(FaultyDevice::new(MemDevice::new(8192, 512), script)))
            .collect();
        let sharded = ShardedDbfs::format(devices.clone(), DbfsParams::small()).unwrap();
        sharded.create_type(listing1_user_schema()).unwrap();
        for raw in 0..16u64 {
            sharded
                .collect(&user(), SubjectId::new(raw), user_row(&format!("f{raw}")))
                .unwrap();
        }
        sharded.drop_caches();
        (sharded, devices)
    }

    // Calibration pass: measure how many reads setup costs on shard 1, and
    // confirm the fault-free scatter sees the whole table.
    let (clean, devices) = deployment([FaultScript::none(), FaultScript::none()]);
    let fault_at = devices[1].reads_seen();
    assert_eq!(
        clean.load_membranes(&user()).unwrap().len(),
        16,
        "the fault-free pass must see the whole table"
    );
    assert!(
        devices[1].reads_seen() > fault_at,
        "the scatter leg must actually hit shard 1's device"
    );
    drop(clean);

    // Faulty pass: identical setup, shard 1's next read fails.
    let failing = FaultScript::new([FaultEvent::FailedReadAt(fault_at)]);
    let (sharded, _devices) = deployment([FaultScript::none(), failing]);
    match sharded.load_membranes(&user()) {
        Err(DbfsError::PartialScatter {
            shard, completed, ..
        }) => {
            assert_eq!(shard, 1, "the failing shard is named");
            assert_eq!(completed, 1, "the surviving shard is counted");
        }
        other => panic!("expected PartialScatter, got {other:?}"),
    }
    // The fault was transient: the retry sees the whole table again.
    assert_eq!(sharded.load_membranes(&user()).unwrap().len(), 16);
}

/// `count` must never present a partial sum as a total: a shard that cannot
/// answer (here: the type diverged and is missing on every shard but one)
/// surfaces [`DbfsError::PartialScatter`] naming the failing shard.
#[test]
fn count_surfaces_shard_divergence_instead_of_undercounting() {
    use rgpdos_dbfs::DbfsError;

    let sharded = sharded(2);
    // Install a type on shard 0 only, bypassing the broadcast (simulating
    // a half-applied rollout).
    let lopsided = rgpdos_core::schema::DataTypeSchema::builder("lopsided")
        .field("name", rgpdos_core::value::FieldType::Text)
        .build()
        .unwrap();
    sharded.shards()[0].create_type(lopsided).unwrap();
    match sharded.count(&DataTypeId::from("lopsided")) {
        Err(DbfsError::PartialScatter {
            shard,
            completed,
            source,
        }) => {
            assert_eq!(shard, 1);
            assert_eq!(completed, 1);
            assert!(matches!(*source, DbfsError::UnknownType { .. }));
        }
        other => panic!("expected PartialScatter, got {other:?}"),
    }
    // The healthy type still counts normally.
    assert_eq!(sharded.count(&user()).unwrap(), 0);
}

#[test]
fn scrub_reclaims_cross_shard_erased_chains_whole() {
    let sharded = sharded(4);
    let escrow = escrow();
    let original = sharded
        .collect(&user(), SubjectId::new(5), user_row("chain"))
        .unwrap();
    let copies: Vec<PdId> = (0..4)
        .map(|_| sharded.copy(&user(), original).unwrap())
        .collect();
    let grandchild = sharded.copy(&user(), copies[0]).unwrap();
    let keeper = sharded
        .collect(&user(), SubjectId::new(6), user_row("keeper"))
        .unwrap();
    sharded.erase(&user(), original, &escrow).unwrap();

    let before = sharded.space_stats().unwrap();
    assert_eq!(before.tombstone_records, 6);
    assert!(before.amplification() > 2.0);

    // One router pass reclaims the whole erased chain, across shards: the
    // leaf copies unblock their originals round by round.
    let report = sharded.scrub_tombstones().unwrap();
    assert_eq!(report.reclaimed_count(), 6);
    assert_eq!(report.retained_intent, 0);
    assert_eq!(report.retained_lineage, 0);
    assert!(report.bytes_reclaimed > 0);
    for id in copies.iter().chain([&original, &grandchild]) {
        assert!(sharded.get(&user(), *id).is_err(), "{id} must be reclaimed");
    }
    assert_eq!(sharded.count(&user()).unwrap(), 1);
    assert_eq!(sharded.tombstones_reclaimed(), 6);
    let after = sharded.space_stats().unwrap();
    assert_eq!(after.tombstone_records, 0);
    assert_eq!(after.amplification(), 1.0);
    assert!(after.allocated_blocks < before.allocated_blocks);
    sharded.verify_index_invariants().unwrap();
    // The keeper is untouched and a second pass finds nothing.
    assert!(!sharded.get(&user(), keeper).unwrap().membrane().is_erased());
    assert_eq!(sharded.scrub_tombstones().unwrap().reclaimed_count(), 0);
}

#[test]
fn scrub_retains_tombstones_named_by_in_flight_routed_intents() {
    let sharded = sharded(3);
    let escrow = escrow();
    let id = sharded
        .collect(&user(), SubjectId::new(9), user_row("held"))
        .unwrap();
    sharded.erase(&user(), id, &escrow).unwrap();
    // A routed erasure parked on a *different* shard still names the
    // tombstone: the scrubber must gather intents deployment-wide.
    let holder = (sharded.shard_of_id(id) + 1) % sharded.num_shards();
    let token = sharded.shards()[holder]
        .put_erase_intent(&rgpdos_dbfs::EraseIntent {
            targets: vec![("user".to_owned(), id.raw())],
            escrow_key: escrow.public_key().element(),
            routed: true,
        })
        .unwrap();
    let held = sharded.scrub_tombstones().unwrap();
    assert_eq!(held.reclaimed_count(), 0);
    assert_eq!(held.retained_intent, 1);
    assert!(sharded.get(&user(), id).unwrap().membrane().is_erased());

    sharded.shards()[holder].clear_erase_intent(token).unwrap();
    let freed = sharded.scrub_tombstones().unwrap();
    assert_eq!(freed.reclaimed, vec![id]);
    sharded.verify_index_invariants().unwrap();
}

#[test]
fn scrubbed_deployment_survives_remount_with_a_clean_directory() {
    let devices = devices(3);
    let escrow = escrow();
    let (victim, keeper) = {
        let sharded = ShardedDbfs::format(devices.clone(), DbfsParams::small()).unwrap();
        sharded.create_type(listing1_user_schema()).unwrap();
        let victim = sharded
            .collect(&user(), SubjectId::new(50), user_row("victim"))
            .unwrap();
        for _ in 0..3 {
            sharded.copy(&user(), victim).unwrap();
        }
        let keeper = sharded
            .collect(&user(), SubjectId::new(51), user_row("keeper"))
            .unwrap();
        sharded.copy(&user(), keeper).unwrap();
        sharded.erase(&user(), victim, &escrow).unwrap();
        let report = sharded.scrub_tombstones().unwrap();
        assert_eq!(report.reclaimed_count(), 4);
        sharded.verify_index_invariants().unwrap();
        (victim, keeper)
    };
    // The rebuilt directory has no trace of the reclaimed lineage; the
    // surviving lineage still routes.
    let remounted = ShardedDbfs::mount(devices).unwrap();
    remounted.verify_index_invariants().unwrap();
    assert_eq!(remounted.count(&user()).unwrap(), 2, "keeper + copy");
    assert!(remounted.get(&user(), victim).is_err());
    assert_eq!(
        remounted
            .records_of_subject(SubjectId::new(51))
            .unwrap()
            .len(),
        2
    );
    assert!(!remounted
        .get(&user(), keeper)
        .unwrap()
        .membrane()
        .is_erased());
    assert_eq!(remounted.scrub_tombstones().unwrap().reclaimed_count(), 0);
}

#[test]
fn create_type_resumes_a_broadcast_that_stopped_part_way() {
    let sharded = ShardedDbfs::format(devices(3), DbfsParams::small()).unwrap();
    // What a failure or a crash after shard 0 committed leaves behind.
    sharded.shards()[0]
        .create_type(listing1_user_schema())
        .unwrap();
    assert!(matches!(
        sharded.count(&user()),
        Err(DbfsError::PartialScatter { shard: 1, .. })
    ));

    sharded.create_type(listing1_user_schema()).unwrap();
    for shard in sharded.shards() {
        assert_eq!(shard.schema(&user()).unwrap(), listing1_user_schema());
    }
    // One subject homed on each shard can collect and is counted.
    let mut homes = std::collections::BTreeSet::new();
    for subject in (0..64).map(SubjectId::new) {
        if homes.insert(sharded.home_shard(subject)) {
            sharded.collect(&user(), subject, user_row("r")).unwrap();
        }
    }
    assert_eq!(homes.len(), 3);
    assert_eq!(sharded.count(&user()).unwrap(), 3);

    // Installed everywhere: the type exists.  A different schema under the
    // same name is refused too, and installs nothing.
    assert!(matches!(
        sharded.create_type(listing1_user_schema()),
        Err(DbfsError::TypeAlreadyExists { .. })
    ));
    let other = rgpdos_core::DataTypeSchema::builder("user")
        .field("name", rgpdos_core::FieldType::Text)
        .build()
        .unwrap();
    assert!(matches!(
        sharded.create_type(other),
        Err(DbfsError::TypeAlreadyExists { .. })
    ));
    assert_eq!(sharded.schema(&user()).unwrap(), listing1_user_schema());
    sharded.verify_index_invariants().unwrap();
}
