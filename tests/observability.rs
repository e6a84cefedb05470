//! Workspace-level guarantees of the `rgpdos_trace` observability layer:
//! determinism (identical sim runs snapshot byte-identically), overhead
//! (tracing adds **zero** device I/O and negligible simulated cost), the
//! thin-view contract (legacy stats accessors and the registry read the
//! same atomics), and the space-lifecycle gauges of the scrubber.

use rgpdos::prelude::*;
use rgpdos::trace::SCHEMA_VERSION;

fn ingest_workload(os: &RgpdOs) {
    os.install_types(rgpdos::dsl::listings::LISTING_1)
        .expect("install user type");
    for raw in 0..40u64 {
        let subject = SubjectId::new(raw % 11);
        os.collect(
            "user",
            subject,
            Row::new()
                .with("name", format!("obs-{raw}"))
                .with("pwd", "pw")
                .with("year_of_birthdate", (1950 + (raw % 60)) as i64),
        )
        .expect("collect");
    }
    for raw in 0..11u64 {
        os.right_of_access(SubjectId::new(raw)).expect("access");
    }
    os.right_to_be_forgotten(SubjectId::new(3)).expect("erase");
    os.enforce_retention().expect("retention");
}

/// Two identical sim-clock runs produce byte-identical snapshots: every
/// span id, timestamp, counter and histogram digest — the property the
/// crash matrix and CI artifact diffing rely on.
#[test]
fn identical_sim_runs_snapshot_byte_identically() {
    let run = || {
        let ctx = TraceCtx::sim();
        let os = RgpdOs::builder()
            .device_blocks(16_384)
            .trace(&ctx)
            .boot()
            .expect("boot traced");
        ingest_workload(&os);
        let snapshot = os.metrics_snapshot(0xD5).expect("snapshot");
        (snapshot.to_json(), snapshot.to_text())
    };
    let (json_a, text_a) = run();
    let (json_b, text_b) = run();
    assert_eq!(json_a, json_b, "sim-clock snapshots must be deterministic");
    assert_eq!(text_a, text_b);
    assert_eq!(SCHEMA_VERSION, 1);
    MetricsSnapshot::validate_json(&json_a).expect("snapshot schema");
}

/// The trace layer is crash-matrix-neutral and near-zero-cost: an
/// instrumented run issues exactly the same device I/O (reads, writes,
/// flushes) and the same simulated microseconds as an untraced run of the
/// same workload — tracing observes the device model, it never adds to it.
#[test]
fn tracing_adds_zero_device_io_and_zero_simulated_cost() {
    let boot = |trace: Option<&TraceCtx>| {
        let builder = RgpdOs::builder().device_blocks(16_384);
        let builder = match trace {
            Some(ctx) => builder.trace(ctx),
            None => builder,
        };
        let os = builder.boot().expect("boot");
        ingest_workload(&os);
        os.device_stats()
    };
    let plain = boot(None);
    let ctx = TraceCtx::sim();
    let traced = boot(Some(&ctx));
    assert_eq!(traced.reads, plain.reads, "tracing must not add reads");
    assert_eq!(traced.writes, plain.writes, "tracing must not add writes");
    assert_eq!(
        traced.flushes, plain.flushes,
        "tracing must not add flushes"
    );
    // The simulated-time model is untouched, so the simulated-throughput
    // regression is exactly 0% (well under the 5% budget).
    assert_eq!(traced.simulated_us, plain.simulated_us);
    // And the traced run did actually record something.
    assert!(ctx
        .registry
        .merged_summary("fs_commit_latency_us")
        .is_some_and(|s| s.count > 0));
}

/// Legacy stats accessors stay thin views over the registry's atomics: the
/// numbers `DbfsStats`/`CacheStats` report equal the registry's counters,
/// entry for entry.
#[test]
fn legacy_stats_accessors_are_views_over_the_registry() {
    let ctx = TraceCtx::sim();
    let os = RgpdOs::builder()
        .device_blocks(16_384)
        .trace(&ctx)
        .boot()
        .expect("boot traced");
    ingest_workload(&os);
    let stats = os.dbfs().stats();
    let cache = os.dbfs().cache_stats();
    let (counters, _, _) = ctx.registry.collect();
    assert_eq!(counters["dbfs_collects"], stats.collects);
    assert_eq!(counters["dbfs_reads"], stats.reads);
    assert_eq!(counters["dbfs_erasures"], stats.erasures);
    assert_eq!(counters["dbfs_queries"], stats.queries);
    assert_eq!(counters["fs_cache_hits"], cache.hits);
    assert_eq!(counters["fs_cache_misses"], cache.misses);
    assert_eq!(
        counters["fs_journal_txs"],
        os.dbfs().inode_fs().journal_txs()
    );
}

/// `attach_trace` puts the scrubber's `space_amplification` and
/// `tombstones_reclaimed` gauges on the registry — one series per store,
/// one per shard when sharded — and the reclaim gauge follows a scrub.
#[test]
fn space_gauges_exist_after_attach_trace_and_follow_the_scrubber() {
    use rgpdos::blockdev::MemDevice;
    use rgpdos::core::schema::listing1_user_schema;
    use rgpdos::crypto::escrow::{Authority, OperatorEscrow};
    use rgpdos::dbfs::Dbfs;
    use std::sync::Arc;

    fn check<S: PdStore>(store: &S, series: usize) {
        let ctx = TraceCtx::sim();
        store.attach_trace(&ctx);
        let gauge = |family: &str| -> Vec<i64> {
            let (_, gauges, _) = ctx.registry.collect();
            gauges
                .iter()
                .filter(|(key, _)| key.starts_with(family))
                .map(|(_, value)| *value)
                .collect()
        };
        assert_eq!(gauge("space_amplification").len(), series);
        assert_eq!(gauge("tombstones_reclaimed"), vec![0; series]);

        let user = DataTypeId::from("user");
        store.create_type(listing1_user_schema()).unwrap();
        for raw in 0..8u64 {
            let row = Row::new()
                .with("name", format!("gauge-{raw}"))
                .with("pwd", "pw")
                .with("year_of_birthdate", 1980i64);
            store.collect(&user, SubjectId::new(raw), row).unwrap();
        }
        let escrow = OperatorEscrow::new(Authority::generate(0x6A).public_key());
        store.erase_subject(SubjectId::new(3), &escrow).unwrap();
        assert_eq!(store.scrub_tombstones().unwrap().reclaimed_count(), 1);
        assert_eq!(gauge("tombstones_reclaimed").iter().sum::<i64>(), 1);
    }

    let device = || Arc::new(MemDevice::new(8_192, 512));
    check(&Dbfs::format(device(), DbfsParams::small()).unwrap(), 1);
    let devices = (0..3).map(|_| device()).collect();
    check(
        &ShardedDbfs::format(devices, DbfsParams::small()).unwrap(),
        3,
    );
}
