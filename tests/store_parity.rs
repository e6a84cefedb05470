//! Store parity through the trait: one scripted op stream, written once
//! against `S: PdStore`, run on the single-device `Dbfs`, on a one-shard
//! `ShardedDbfs` and on a three-shard one.
//!
//! * `Dbfs` and one shard must agree on **every return value**, identifiers
//!   included (shard 0 of 1 allocates with stride 1, like `Dbfs`).
//! * Three shards allocate other identifiers and place copies on other
//!   shards, so they must agree on what placement cannot change: whether
//!   each step succeeded and the size of what it returned — counts,
//!   cardinalities, erased-closure sizes.
//! * All three end with `verify_index_invariants()` ok.
//! * `Dbfs` and one shard leave byte-identical devices: a one-shard router
//!   is its shard's own calls, so it must issue exactly `Dbfs`'s writes.
//!
//! Routing, the cross-shard copy closure and the two-phase erasure exist
//! only in the router; every erasure, routed or not, reaches a shard as that
//! shard's own cascade.  The script is the differential test between them.

use rgpdos::blockdev::{BlockDevice, MemDevice};
use rgpdos::core::prelude::*;
use rgpdos::core::schema::listing1_user_schema;
use rgpdos::crypto::escrow::{Authority, OperatorEscrow};
use rgpdos::dbfs::{Dbfs, DbfsError, DbfsParams, PdStore, QueryRequest};
use rgpdos::shard::ShardedDbfs;
use std::fmt::Debug;
use std::sync::Arc;

/// What one step of the script returned.
#[derive(Debug, PartialEq)]
struct Step {
    what: &'static str,
    /// The whole return value, identifiers included.
    exact: String,
    /// Its size — a count, a length, a flag — or `None` for an error.
    size: Option<usize>,
}

#[derive(Default)]
struct Trace(Vec<Step>);

impl Trace {
    /// Records a step's result; `size` measures a success.
    fn step<T: Debug>(
        &mut self,
        what: &'static str,
        result: Result<T, DbfsError>,
        size: impl Fn(&T) -> usize,
    ) -> Option<T> {
        self.0.push(Step {
            what,
            exact: format!("{result:?}"),
            size: result.as_ref().ok().map(size),
        });
        result.ok()
    }

    /// A step returning identifiers whose order the trait does not promise.
    fn ids(&mut self, what: &'static str, result: Result<Vec<PdId>, DbfsError>) -> Vec<PdId> {
        let sorted = result.map(|mut ids| {
            ids.sort();
            ids
        });
        self.step(what, sorted, Vec::len).unwrap_or_default()
    }

    /// `(what, size)` of every step: what placement cannot change.
    fn sizes(&self) -> Vec<(&'static str, Option<usize>)> {
        self.0.iter().map(|step| (step.what, step.size)).collect()
    }
}

fn row(name: &str) -> Row {
    Row::new()
        .with("name", name)
        .with("pwd", "pw")
        .with("year_of_birthdate", 1990i64)
}

fn script<S: PdStore>(store: &S) -> Trace {
    let mut t = Trace::default();
    let user = DataTypeId::from("user");
    let escrow = OperatorEscrow::new(Authority::generate(0xBA51C).public_key());
    let subject = SubjectId::new;
    let newsletter = PurposeId::from("newsletter");

    t.step(
        "create_type",
        store.create_type(listing1_user_schema()),
        |_| 0,
    );
    t.step(
        "create_type again",
        store.create_type(listing1_user_schema()),
        |_| 0,
    );
    t.step("types", Ok(store.types()), Vec::len);

    // collect, collect_many
    let mut ids: Vec<PdId> = Vec::new();
    for (who, name) in [(1, "a"), (2, "b"), (3, "c"), (1, "d")] {
        ids.extend(t.step(
            "collect",
            store.collect(&user, subject(who), row(name)),
            |_| 1,
        ));
    }
    let batch = (0..6)
        .map(|i| (subject(4 + i % 3), row("batched")))
        .collect();
    ids.extend(t.ids("collect_many", store.collect_many(&user, batch)));
    assert_eq!(ids.len(), 10, "every insert of the script succeeds");
    let ghost = DataTypeId::from("ghost");
    t.step(
        "collect into a missing type",
        store.collect(&ghost, subject(1), row("x")),
        |_| 1,
    );
    t.step(
        "an empty batch into a missing type",
        store.collect_many(&ghost, Vec::new()),
        Vec::len,
    );
    t.step("count a missing type", store.count(&ghost), |n| *n);
    t.step(
        "load_records of a missing type",
        store.load_records(&ghost, &ids[..1]),
        RecordBatch::len,
    );
    t.step("count", store.count(&user), |n| *n);

    // update
    t.step(
        "update_row",
        store.update_row(&user, ids[0], row("a2")),
        |_| 0,
    );
    let rewrites = ids[4..7].iter().map(|&id| (id, row("rewritten"))).collect();
    t.step("update_rows", store.update_rows(&user, rewrites), |_| 0);
    t.step(
        "update_row against the schema",
        store.update_row(&user, ids[0], Row::new().with("name", 3i64)),
        |_| 0,
    );
    t.step("get", store.get(&user, ids[0]), |_| 1);

    // consent grant / withdraw
    let grant = MembraneDelta::Grant {
        purpose: newsletter.clone(),
        decision: ConsentDecision::All,
    };
    let withdraw = |purpose: &PurposeId| MembraneDelta::Withdraw {
        purpose: purpose.clone(),
    };
    let flag = |applied: &bool| usize::from(*applied);
    t.step(
        "grant",
        store.apply_membrane_delta(&user, ids[1], &grant),
        flag,
    );
    t.step("load_membrane", store.load_membrane(&user, ids[1]), |m| {
        usize::from(m.permits(&newsletter) == AccessDecision::Full)
    });
    let delta = withdraw(&newsletter);
    t.step(
        "withdraw",
        store.apply_membrane_delta(&user, ids[1], &delta),
        flag,
    );
    let delta = withdraw(&"never-granted".into());
    t.step(
        "withdraw nothing",
        store.apply_membrane_delta(&user, ids[1], &delta),
        flag,
    );
    t.step("load_membrane", store.load_membrane(&user, ids[1]), |m| {
        usize::from(m.permits(&newsletter) == AccessDecision::Full)
    });

    // copy chain: ids[0] <- c1 <- c2, ids[1] <- c3
    let c1 = t
        .step("copy", store.copy(&user, ids[0]), |_| 1)
        .expect("copy");
    let c2 = t
        .step("copy of a copy", store.copy(&user, c1), |_| 1)
        .expect("copy");
    let c3 = t
        .step("copy", store.copy(&user, ids[1]), |_| 1)
        .expect("copy");
    t.step("get the chain's end", store.get(&user, c2), |record| {
        usize::from(record.membrane().copied_from() == Some(c1))
    });
    t.step("count", store.count(&user), |n| *n);

    // reads
    t.step("load_membranes", store.load_membranes(&user), Vec::len);
    t.step(
        "load_membranes_for_subject",
        store.load_membranes_for_subject(&user, subject(1)),
        Vec::len,
    );
    t.step(
        "load_records",
        store.load_records(&user, &[c3, ids[2], ids[9]]),
        RecordBatch::len,
    );
    t.step(
        "query",
        store.query(&QueryRequest::all("user")),
        RecordBatch::len,
    );
    t.step(
        "query a subject",
        store.query(&QueryRequest::all("user").for_subject(subject(4))),
        RecordBatch::len,
    );
    t.step(
        "records_of_subject",
        store.records_of_subject(subject(1)),
        Vec::len,
    );

    // erase: the closure of ids[0] is {ids[0], c1, c2}
    t.ids("erase", store.erase(&user, ids[0], &escrow));
    t.ids("erase again", store.erase(&user, ids[0], &escrow));
    t.ids(
        "erase an unknown id",
        store.erase(&user, PdId::new(9_999), &escrow),
    );
    t.step("get a tombstone", store.get(&user, c1), |record| {
        usize::from(record.membrane().is_erased())
    });
    t.step(
        "update a tombstone",
        store.update_row(&user, c2, row("late")),
        |_| 0,
    );
    t.step(
        "delta on a tombstone",
        store.apply_membrane_delta(&user, c2, &grant),
        flag,
    );
    t.step("copy a tombstone", store.copy(&user, c1), |_| 1);
    t.step(
        "records_of_subject",
        store.records_of_subject(subject(1)),
        Vec::len,
    );

    // erase_subject: subject 2 owns ids[1] and its copy c3
    t.ids("erase_subject", store.erase_subject(subject(2), &escrow));
    t.ids(
        "erase_subject again",
        store.erase_subject(subject(2), &escrow),
    );
    t.step(
        "records_of_subject",
        store.records_of_subject(subject(2)),
        Vec::len,
    );
    t.step("count", store.count(&user), |n| *n);

    // TTL + purge_expired: two records expire, the rest are unbounded
    let ten_days = MembraneDelta::SetTimeToLive {
        ttl: TimeToLive::days(10),
    };
    t.step(
        "set ttl",
        store.apply_membrane_delta(&user, ids[2], &ten_days),
        flag,
    );
    t.step(
        "set ttl",
        store.apply_membrane_delta(&user, ids[7], &ten_days),
        flag,
    );
    t.ids("purge_expired early", store.purge_expired(&escrow));
    store.clock().advance(Duration::from_days(20));
    t.ids("purge_expired", store.purge_expired(&escrow));
    t.step(
        "query including erased",
        store.query(&QueryRequest::all("user").including_erased()),
        RecordBatch::len,
    );
    t.step(
        "query",
        store.query(&QueryRequest::all("user")),
        RecordBatch::len,
    );

    // scrub: every tombstone is reclaimable, copy chains child-first.
    let records = |s: &rgpdos::dbfs::SpaceStats| {
        (
            s.live_records,
            s.tombstone_records,
            s.live_bytes,
            s.tombstone_bytes,
            s.allocated_blocks,
        )
    };
    t.step(
        "space_stats",
        store.space_stats().map(|s| records(&s)),
        |s| s.1,
    );
    let scrub = store.scrub_tombstones().map(|mut report| {
        report.reclaimed.sort();
        report
    });
    t.step("scrub_tombstones", scrub, |report| report.reclaimed.len());
    t.step(
        "scrub_tombstones again",
        store.scrub_tombstones(),
        |report| report.scanned_tombstones,
    );
    t.step(
        "space_stats",
        store.space_stats().map(|s| records(&s)),
        |s| s.1,
    );
    t.step("get a reclaimed id", store.get(&user, c1), |_| 1);
    t.step("load_membranes", store.load_membranes(&user), Vec::len);
    t.step("count", store.count(&user), |n| *n);
    t.step(
        "collect after the scrub",
        store.collect(&user, subject(2), row("back")),
        |_| 1,
    );

    t.step(
        "verify_index_invariants",
        store.verify_index_invariants(),
        |_| 0,
    );
    t
}

fn device() -> Arc<MemDevice> {
    Arc::new(MemDevice::new(8192, 512))
}

fn sharded(devices: Vec<Arc<MemDevice>>) -> ShardedDbfs<Arc<MemDevice>> {
    ShardedDbfs::format(devices, DbfsParams::small()).unwrap()
}

#[test]
fn one_script_reads_the_same_on_dbfs_one_shard_and_three_shards() {
    let (single_device, shard_device) = (device(), device());
    let single = script(&Dbfs::format(Arc::clone(&single_device), DbfsParams::small()).unwrap());
    let one_shard = script(&sharded(vec![Arc::clone(&shard_device)]));
    let three_shards = script(&sharded((0..3).map(|_| device()).collect()));

    // A one-shard router is the shard's own calls: the script leaves the
    // same bytes in every block of both devices.
    let blocks = single_device.geometry().blocks;
    let apart: Vec<u64> = (0..blocks)
        .filter(|&b| single_device.read_block(b).unwrap() != shard_device.read_block(b).unwrap())
        .collect();
    assert!(
        apart.is_empty(),
        "Dbfs and one shard differ in blocks {apart:?}"
    );

    // The script's own expectations, stated once against the single store.
    let size_of = |what: &str| -> Vec<Option<usize>> {
        let steps = single.0.iter().filter(|step| step.what == what);
        steps.map(|step| step.size).collect()
    };
    assert_eq!(size_of("create_type again"), [None]);
    for what in [
        "an empty batch into a missing type",
        "count a missing type",
        "load_records of a missing type",
    ] {
        let step = single.0.iter().find(|step| step.what == what).unwrap();
        assert!(step.exact.starts_with("Err(UnknownType"), "{step:?}");
    }
    assert_eq!(size_of("count"), [Some(10), Some(13), Some(8), Some(6)]);
    assert_eq!(size_of("withdraw nothing"), [Some(0)]);
    assert_eq!(
        size_of("erase"),
        [Some(3)],
        "root + copy + copy of the copy"
    );
    assert_eq!(size_of("erase again"), [Some(0)]);
    assert_eq!(size_of("delta on a tombstone"), [Some(0)]);
    assert_eq!(size_of("copy a tombstone"), [None]);
    assert_eq!(
        size_of("erase_subject"),
        [Some(2)],
        "the record and its copy"
    );
    assert_eq!(size_of("purge_expired early"), [Some(0)]);
    assert_eq!(size_of("purge_expired"), [Some(2)]);
    assert_eq!(size_of("query including erased"), [Some(13)]);
    assert_eq!(size_of("scrub_tombstones"), [Some(7)]);
    assert_eq!(size_of("scrub_tombstones again"), [Some(0)]);
    assert_eq!(size_of("get a reclaimed id"), [None]);
    assert_eq!(size_of("verify_index_invariants"), [Some(0)]);

    assert_eq!(single.0.len(), one_shard.0.len());
    for (a, b) in single.0.iter().zip(&one_shard.0) {
        assert_eq!(a, b, "Dbfs (left) and one shard (right) disagree");
    }
    assert_eq!(single.sizes(), three_shards.sizes());
}
