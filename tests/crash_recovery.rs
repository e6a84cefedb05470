//! Crash-consistency and crypto-erasure coverage over the public facade:
//! brute-forced crash points on DBFS, durable two-phase erasure on the
//! sharded router, recovery observability, and proof that erasure destroys
//! the key material an operator would need to read the raw blocks back.

use rgpdos::blockdev::{scan_for_pattern, FaultScript, FaultyDevice, MemDevice};
use rgpdos::core::record::stored;
use rgpdos::core::schema::{listing1_user_schema, DataTypeSchema};
use rgpdos::core::{DataTypeId, FieldType, Membrane, PdId, Row, SubjectId, Timestamp};
use rgpdos::crypto::escrow::{Authority, OperatorEscrow};
use rgpdos::crypto::EscrowedCiphertext;
use rgpdos::dbfs::{Dbfs, DbfsError, DbfsParams, EraseIntent, PdStore, QueryRequest};
use rgpdos::inode::{InodeError, InodeKind};
use rgpdos::shard::ShardedDbfs;
use std::collections::BTreeMap;
use std::sync::Arc;

fn user_row(name: &str) -> Row {
    Row::new()
        .with("name", name)
        .with("pwd", "pw")
        .with("year_of_birthdate", 1990i64)
}

fn setup_image(device: &Arc<MemDevice>) {
    let dbfs = Dbfs::format(Arc::clone(device), DbfsParams::small()).unwrap();
    dbfs.create_type(listing1_user_schema()).unwrap();
}

/// The tier-1 slice of the crash-point sweep (the full matrix runs in
/// `rgpdos-bench`'s `crashgrind`): insert, copy and a cascading erase are
/// crash-atomic at *every* write index — after revive + remount the indexes
/// verify, no half-written record is visible, and no live copy ever
/// outlives its erased original.
#[test]
fn dbfs_mutations_are_crash_atomic_at_every_write_index() {
    let authority = Authority::generate(17);

    // Reference run to learn the total write count.
    let reference = Arc::new(MemDevice::new(16_384, 512));
    setup_image(&reference);
    let probe = FaultyDevice::new(Arc::clone(&reference), FaultScript::none());
    let cell = probe.cell();
    let dbfs = Dbfs::mount(probe).unwrap();
    let escrow = OperatorEscrow::new(authority.public_key());
    let workload = |dbfs: &Dbfs<FaultyDevice<Arc<MemDevice>>>,
                    escrow: &OperatorEscrow|
     -> Result<(), rgpdos::dbfs::DbfsError> {
        let a = dbfs.collect(&"user".into(), SubjectId::new(1), user_row("alpha"))?;
        let _b = dbfs.collect(&"user".into(), SubjectId::new(2), user_row("bravo"))?;
        let copy = dbfs.copy(&"user".into(), a)?;
        let _chain = dbfs.copy(&"user".into(), copy)?;
        dbfs.erase(&"user".into(), a, escrow)?;
        Ok(())
    };
    let (total_writes, outcome) = cell.writes_between(|| workload(&dbfs, &escrow));
    outcome.unwrap();
    drop(dbfs);
    assert!(total_writes > 20, "the workload spans many writes");

    for crash_after in 0..total_writes {
        let device = Arc::new(MemDevice::new(16_384, 512));
        setup_image(&device);
        let faulty = FaultyDevice::new(
            Arc::clone(&device),
            FaultScript::crash_after_writes(crash_after),
        );
        let dbfs = Dbfs::mount(faulty).unwrap();
        let escrow = OperatorEscrow::new(authority.public_key());
        assert!(
            workload(&dbfs, &escrow).is_err(),
            "crash point {crash_after} must interrupt the workload"
        );
        drop(dbfs);

        let remounted = Dbfs::mount(Arc::clone(&device))
            .unwrap_or_else(|e| panic!("crash point {crash_after}: remount failed: {e}"));
        remounted
            .verify_index_invariants()
            .unwrap_or_else(|e| panic!("crash point {crash_after}: invariants: {e}"));
        // Every record decodes, tombstones included.
        let batch = remounted
            .query(&QueryRequest::all("user").including_erased())
            .unwrap_or_else(|e| panic!("crash point {crash_after}: records torn: {e}"));
        // The erasure cascade is all-or-nothing: no live record has an
        // erased lineage ancestor.
        let membranes: BTreeMap<PdId, Membrane> = batch
            .iter()
            .map(|record| (record.id(), record.membrane().clone()))
            .collect();
        for (id, membrane) in &membranes {
            if membrane.is_erased() {
                continue;
            }
            let mut ancestor = membrane.copied_from();
            while let Some(current) = ancestor {
                match membranes.get(&current) {
                    Some(parent) => {
                        assert!(
                            !parent.is_erased(),
                            "crash point {crash_after}: live {id} outlives erased {current}"
                        );
                        ancestor = parent.copied_from();
                    }
                    None => break,
                }
            }
        }
        // The store stays usable after recovery.
        remounted
            .collect(&"user".into(), SubjectId::new(7), user_row("post-crash"))
            .unwrap_or_else(|e| panic!("crash point {crash_after}: post-crash insert: {e}"));
        remounted.verify_index_invariants().unwrap();
    }
}

/// An insert appends one entry to its table's directory and bumps its
/// count — a handful of blocks of a directory that spans many.  The table
/// is preloaded so that the third of five inserts takes its directory into
/// a new block: the sweep meets the entry inside a block, the one that
/// straddles two and allocates, and the first of the new block.  A crash at
/// any write leaves every record whole in its table tree or absent from it,
/// and no block leaked.
#[test]
fn an_insert_into_a_multi_block_directory_is_crash_atomic_at_every_write_index() {
    let image = |preloaded: u64| {
        let device = Arc::new(MemDevice::new(16_384, 512));
        setup_image(&device);
        let dbfs = Dbfs::mount(Arc::clone(&device)).unwrap();
        let rows = (0..preloaded).map(|i| (SubjectId::new(i % 3), user_row("preloaded")));
        dbfs.collect_many(&"user".into(), rows.collect()).unwrap();
        device
    };
    fn insert<D: rgpdos::blockdev::BlockDevice>(dbfs: &Dbfs<D>) -> Result<PdId, DbfsError> {
        dbfs.collect(&"user".into(), SubjectId::new(1), user_row("swept"))
    }
    fn table_blocks<D: rgpdos::blockdev::BlockDevice>(dbfs: &Dbfs<D>) -> u64 {
        let fs = dbfs.inode_fs();
        let tables = fs.dir_lookup(0, "tables").unwrap().unwrap();
        let table = fs.dir_lookup(tables, "user").unwrap().unwrap();
        fs.stat(table).unwrap().size.div_ceil(512)
    }
    let preloaded = {
        let dbfs = Dbfs::mount(image(150)).unwrap();
        let before = table_blocks(&dbfs);
        assert!(before >= 4, "the table directory spans several blocks");
        let mut records = 150;
        while table_blocks(&dbfs) == before {
            insert(&dbfs).unwrap();
            records += 1;
        }
        records - 3
    };
    let inserts = |dbfs: &Dbfs<FaultyDevice<Arc<MemDevice>>>| -> Result<(), DbfsError> {
        (0..5).try_for_each(|_| insert(dbfs).map(drop))
    };
    let probe = FaultyDevice::new(image(preloaded), FaultScript::none());
    let cell = probe.cell();
    let dbfs = Dbfs::mount(probe).unwrap();
    let blocks_before = table_blocks(&dbfs);
    let (total_writes, outcome) = cell.writes_between(|| inserts(&dbfs));
    outcome.unwrap();
    assert_eq!(table_blocks(&dbfs), blocks_before + 1);
    drop(dbfs);

    for crash_after in 0..total_writes {
        let device = image(preloaded);
        let faulty = FaultyDevice::new(
            Arc::clone(&device),
            FaultScript::crash_after_writes(crash_after),
        );
        let dbfs = Dbfs::mount(faulty).unwrap();
        assert!(inserts(&dbfs).is_err(), "crash point {crash_after}");
        drop(dbfs);
        let remounted = Dbfs::mount(device)
            .unwrap_or_else(|e| panic!("crash point {crash_after}: remount failed: {e}"));
        remounted
            .verify_index_invariants()
            .unwrap_or_else(|e| panic!("crash point {crash_after}: invariants: {e}"));
        let records = remounted.query(&QueryRequest::all("user")).unwrap().len() as u64;
        assert!((preloaded..=preloaded + 5).contains(&records));
        let leaked = remounted.inode_fs().leaked_data_blocks().unwrap();
        assert!(leaked.is_empty(), "crash point {crash_after}: {leaked:?}");
        let next = insert(&remounted)
            .unwrap_or_else(|e| panic!("crash point {crash_after}: post-crash insert: {e}"));
        assert_eq!(next.raw(), records, "ids stay dense");
        remounted.verify_index_invariants().unwrap();
    }
}

/// One table takes inserts until its directory file reaches the inode's
/// addressing cap (10 direct + 64 indirect blocks of 512 B: about 2.3k
/// entries) — well past the ~1.6k at which an insert that staged its
/// directories whole outgrew a 64-block journal.  At the cap the insert
/// fails like any other failing op: the prefix stays, nothing leaks, the
/// image mounts, and other tables are none the wiser.
#[test]
fn a_table_takes_inserts_up_to_its_directory_cap_and_then_fails_cleanly() {
    let device = Arc::new(MemDevice::new(32_768, 512));
    let mut params = DbfsParams::small();
    params.inode_params = params.inode_params.with_inode_count(4_096);
    let dbfs = Dbfs::format(Arc::clone(&device), params).unwrap();
    dbfs.create_type(listing1_user_schema()).unwrap();
    let order = DataTypeSchema::builder("order").field("name", FieldType::Text);
    dbfs.create_type(order.build().unwrap()).unwrap();
    let batch = |from: u64| -> Vec<(SubjectId, Row)> {
        let rows = (from..from + 50).map(|i| (SubjectId::new(i % 8), user_row("r")));
        rows.collect()
    };
    let refusal = (0..)
        .step_by(50)
        .find_map(|from| dbfs.collect_many(&"user".into(), batch(from)).err())
        .unwrap();
    assert!(
        matches!(refusal, DbfsError::Inode(InodeError::FileTooLarge { .. })),
        "{refusal}"
    );
    let held = dbfs.count(&"user".into()).unwrap();
    assert!((2_200..2_400).contains(&held), "{held} records at the cap");
    let full = |dbfs: &Dbfs<Arc<MemDevice>>| {
        dbfs.verify_index_invariants().unwrap();
        assert!(dbfs.inode_fs().leaked_data_blocks().unwrap().is_empty());
        assert_eq!(dbfs.count(&"user".into()).unwrap(), held);
        let again = dbfs.collect(&"user".into(), SubjectId::new(1), user_row("one more"));
        assert!(matches!(
            again,
            Err(DbfsError::Inode(InodeError::FileTooLarge { .. }))
        ));
        let elsewhere = Row::new().with("name", "elsewhere");
        dbfs.collect(&"order".into(), SubjectId::new(1), elsewhere)
            .unwrap();
    };
    full(&dbfs);
    drop(dbfs);
    full(&Dbfs::mount(device).unwrap());
}

/// The store holds as many subjects as its tables hold records: 1 800
/// records of 1 800 distinct subjects, past the 1 772 entries a 512 B-block
/// directory of subjects would have capped, all insert, remount and verify.
#[test]
fn one_table_takes_a_subject_per_record_past_a_subject_directory_cap() {
    let device = Arc::new(MemDevice::new(32_768, 512));
    let mut params = DbfsParams::small();
    params.inode_params = params.inode_params.with_inode_count(4_096);
    let dbfs = Dbfs::format(Arc::clone(&device), params).unwrap();
    dbfs.create_type(listing1_user_schema()).unwrap();
    for from in (0..1_800u64).step_by(50) {
        let rows = (from..from + 50).map(|i| (SubjectId::new(i), user_row("own subject")));
        dbfs.collect_many(&"user".into(), rows.collect()).unwrap();
    }
    drop(dbfs);
    let dbfs = Dbfs::mount(device).unwrap();
    assert_eq!(dbfs.count(&"user".into()).unwrap(), 1_800);
    dbfs.verify_index_invariants().unwrap();
}

/// A reclaim rewrites a table directory only from the removed entry on, so
/// in a 2 000-record table (a 67-block directory, past the 61-block journal
/// transaction) a tombstone near the end is reclaimed.  One near the start
/// still overflows a group of its own: the pass ends with `TxTooLarge`,
/// keeping the groups before it — the bound the keyed on-disk tree removes.
#[test]
fn a_scrub_reclaims_near_the_end_of_a_large_table_and_stops_cleanly_near_its_start() {
    let device = Arc::new(MemDevice::new(32_768, 512));
    let mut params = DbfsParams::small();
    params.inode_params = params.inode_params.with_inode_count(4_096);
    let dbfs = Dbfs::format(Arc::clone(&device), params).unwrap();
    dbfs.create_type(listing1_user_schema()).unwrap();
    let user: DataTypeId = "user".into();
    let mut ids = Vec::new();
    for from in (0..2_000u64).step_by(50) {
        let rows = (from..from + 50).map(|i| (SubjectId::new(i % 8), user_row("r")));
        ids.extend(dbfs.collect_many(&user, rows.collect()).unwrap());
    }
    let escrow = OperatorEscrow::new(Authority::generate(25).public_key());
    // The first record's copy goes last, so the copy is reclaimed first.
    let (first, near_end) = (ids[0], ids[1_990]);
    let copy = dbfs.copy(&user, first).unwrap();
    dbfs.erase(&user, near_end, &escrow).unwrap();
    dbfs.erase(&user, first, &escrow).unwrap();

    let refusal = dbfs.scrub_tombstones().unwrap_err();
    assert!(
        matches!(refusal, DbfsError::Inode(InodeError::TxTooLarge { .. })),
        "{refusal}"
    );
    let check = |dbfs: &Dbfs<Arc<MemDevice>>| {
        dbfs.verify_index_invariants().unwrap();
        assert!(dbfs.inode_fs().leaked_data_blocks().unwrap().is_empty());
        for gone in [near_end, copy] {
            let probe = dbfs.load_membrane(&user, gone);
            assert!(
                matches!(probe, Err(DbfsError::UnknownPd { .. })),
                "{probe:?}"
            );
        }
        assert!(dbfs.load_membrane(&user, first).unwrap().is_erased());
        assert_eq!(dbfs.count(&user).unwrap(), 1_998);
    };
    check(&dbfs);
    assert_eq!(dbfs.tombstones_reclaimed(), 2);
    drop(dbfs);
    check(&Dbfs::mount(device).unwrap());
}

/// A record linked into the table tree behind the id counter's back — the
/// state is forged here — mounts as a whole record: the table tree is the
/// one registry, and its membrane gives the record its subject.  The id
/// counter, healed so that no id on disk is ever handed out again, is the
/// one thing mount fixes.  An entry forged into the table tree of a live
/// store is one the index lacks, and the index checker names it.
#[test]
fn a_forged_record_mounts_whole_and_a_stray_table_entry_fails_the_index_check() {
    let device = Arc::new(MemDevice::new(16_384, 512));
    {
        let dbfs = Dbfs::format(Arc::clone(&device), DbfsParams::small()).unwrap();
        dbfs.create_type(listing1_user_schema()).unwrap();
        dbfs.collect(&"user".into(), SubjectId::new(4), user_row("intact"))
            .unwrap();
        // A record linked into the table tree, with a stale id counter.
        let fs = dbfs.inode_fs();
        let tables = fs
            .dir_lookup(rgpdos::inode::fs::ROOT_INO, "tables")
            .unwrap()
            .unwrap();
        let table = fs.dir_lookup(tables, "user").unwrap().unwrap();
        let membrane =
            Membrane::from_schema(&listing1_user_schema(), SubjectId::new(4), Timestamp::ZERO);
        let torn_ino = fs.alloc_inode(InodeKind::Record).unwrap();
        fs.write_replace(
            torn_ino,
            &stored::encode(&membrane, &user_row("torn")).unwrap(),
        )
        .unwrap();
        fs.dir_add(table, "pd-5", torn_ino).unwrap();
    }

    let dbfs = Dbfs::mount(Arc::clone(&device)).unwrap();
    assert_eq!(dbfs.stats().recovered_txs, 1, "the counter heal, only");
    dbfs.verify_index_invariants().unwrap();
    let forged = dbfs.get(&"user".into(), PdId::new(5)).unwrap();
    assert_eq!(forged.row().get("name").unwrap().as_text(), Some("torn"));
    let owned = dbfs.records_of_subject(SubjectId::new(4)).unwrap();
    assert!(owned.iter().any(|record| record.id() == PdId::new(5)));
    // The counter was healed past the forged id: no collision.
    let fresh = dbfs
        .collect(&"user".into(), SubjectId::new(4), user_row("fresh"))
        .unwrap();
    assert!(fresh.raw() > 5);

    let fs = dbfs.inode_fs();
    let tables = fs
        .dir_lookup(rgpdos::inode::fs::ROOT_INO, "tables")
        .unwrap()
        .unwrap();
    let table = fs.dir_lookup(tables, "user").unwrap().unwrap();
    let stray = fs.alloc_inode(InodeKind::Record).unwrap();
    fs.dir_add(table, "pd-99", stray).unwrap();
    match dbfs.verify_index_invariants() {
        Err(DbfsError::Corrupt { what }) => {
            assert_eq!(what, "table tree holds `pd-99`, which the index lacks");
        }
        other => panic!("expected the extra entry to be reported, got {other:?}"),
    }
}

/// A record named twice in its table tree — the first entry pointing at an
/// orphaned copy, forged by rewriting the directory whole — mounts, and the
/// index check names the duplicate instead of letting one entry hide the
/// other.
#[test]
fn a_record_named_twice_in_its_table_tree_mounts_and_fails_the_index_check() {
    let device = Arc::new(MemDevice::new(16_384, 512));
    let id;
    {
        let dbfs = Dbfs::format(Arc::clone(&device), DbfsParams::small()).unwrap();
        dbfs.create_type(listing1_user_schema()).unwrap();
        id = dbfs
            .collect(&"user".into(), SubjectId::new(4), user_row("twice"))
            .unwrap();
        let fs = dbfs.inode_fs();
        let root = rgpdos::inode::fs::ROOT_INO;
        let child = |dir, name: &str| fs.dir_lookup(dir, name).unwrap().unwrap();
        let table = child(child(root, "tables"), "user");
        let orphan = fs.alloc_inode(InodeKind::Record).unwrap();
        let record = child(table, &id.to_string());
        fs.write_replace(orphan, &fs.read_all(record).unwrap())
            .unwrap();
        let (old, name) = (fs.read_all(table).unwrap(), id.to_string());
        let count = u32::from_le_bytes(old[..4].try_into().unwrap()) + 1;
        let entry = [
            &(name.len() as u16).to_le_bytes()[..],
            name.as_bytes(),
            &orphan.to_le_bytes(),
        ];
        let forged = [&count.to_le_bytes()[..], &entry.concat(), &old[4..]].concat();
        fs.write_replace(table, &forged).unwrap();
    }

    let dbfs = Dbfs::mount(Arc::clone(&device)).unwrap();
    assert_eq!(dbfs.stats().recovered_txs, 0, "mount repairs nothing");
    match dbfs.verify_index_invariants() {
        Err(DbfsError::Corrupt { what }) => {
            assert_eq!(what, format!("{id} named twice in its table tree"));
        }
        other => panic!("expected the duplicate to be reported, got {other:?}"),
    }
}

/// At least one crash point in an insert sweep lands between the journal
/// commit and the in-place apply — the remount replays it and surfaces the
/// replay in `DbfsStats::journal_replays`.
#[test]
fn journal_replays_surface_in_stats_after_a_crash_remount() {
    let mut replays_seen = 0u64;
    for crash_after in 0..40 {
        let device = Arc::new(MemDevice::new(16_384, 512));
        setup_image(&device);
        let faulty = FaultyDevice::new(
            Arc::clone(&device),
            FaultScript::crash_after_writes(crash_after),
        );
        let dbfs = Dbfs::mount(faulty).unwrap();
        let _ = dbfs.collect(&"user".into(), SubjectId::new(1), user_row("x"));
        drop(dbfs);
        let remounted = Dbfs::mount(Arc::clone(&device)).unwrap();
        replays_seen += remounted.stats().journal_replays;
        remounted.verify_index_invariants().unwrap();
    }
    assert!(
        replays_seen > 0,
        "some crash point must land between journal commit and apply"
    );
}

/// The durable two-phase cross-shard erasure: a crash between the root
/// shard's tombstone and the copy shard's erase (the pre-fix hole — the
/// copy outlived its erased original across the reboot) is completed at
/// remount from the persisted intent, and the completion is surfaced in
/// the merged `recovered_txs` counter.
#[test]
fn crashed_two_phase_erase_completes_on_sharded_remount() {
    let devices: Vec<Arc<MemDevice>> = (0..3)
        .map(|_| Arc::new(MemDevice::new(16_384, 512)))
        .collect();
    let authority = Authority::generate(23);
    let escrow = OperatorEscrow::new(authority.public_key());
    let user: DataTypeId = "user".into();

    let (original, copy) = {
        let sharded = ShardedDbfs::format(devices.clone(), DbfsParams::small()).unwrap();
        sharded.create_type(listing1_user_schema()).unwrap();
        let original = sharded
            .collect(&user, SubjectId::new(11), user_row("original"))
            .unwrap();
        // Round-robin placement: find a copy that landed off the original's
        // shard, so the erasure genuinely crosses shards.
        let copy = loop {
            let copy = sharded.copy(&user, original).unwrap();
            if sharded.shard_of_id(copy) != sharded.shard_of_id(original) {
                break copy;
            }
        };
        // Forge the crash window of `ShardedDbfs::erase`: the intent is
        // durable and the root shard has tombstoned its cascade, but the
        // crash hits before the copy's shard erases its member.
        let root_shard = sharded.shard_of_id(original);
        sharded.shards()[root_shard]
            .put_erase_intent(&EraseIntent {
                targets: vec![
                    ("user".to_owned(), original.raw()),
                    ("user".to_owned(), copy.raw()),
                ],
                escrow_key: escrow.public_key().element(),
                routed: true,
            })
            .unwrap();
        sharded.shards()[root_shard]
            .erase(&user, original, &escrow)
            .unwrap();
        // Pre-recovery, the copy is still live: the exact state the pre-fix
        // router left behind for good.
        assert!(!sharded.get(&user, copy).unwrap().membrane().is_erased());
        (original, copy)
    };

    // Remount = reboot: recovery completes the erasure from the intent.
    let sharded = ShardedDbfs::mount(devices.clone()).unwrap();
    sharded.verify_index_invariants().unwrap();
    assert!(sharded.get(&user, original).unwrap().membrane().is_erased());
    assert!(
        sharded.get(&user, copy).unwrap().membrane().is_erased(),
        "the cross-shard copy must not outlive its erased original"
    );
    let stats = sharded.sharded_stats();
    assert!(
        stats.totals.recovered_txs >= 1,
        "the completed intent is surfaced in the merged stats"
    );
    assert!(sharded
        .shards()
        .iter()
        .all(|shard| shard.pending_erase_intents().unwrap().is_empty()));

    // A second remount has nothing left to recover.
    drop(sharded);
    let sharded = ShardedDbfs::mount(devices).unwrap();
    assert_eq!(sharded.sharded_stats().totals.recovered_txs, 0);
    sharded.verify_index_invariants().unwrap();
}

/// An empty-target intent (what `purge_expired` persists, since its target
/// set is only known mid-sweep) triggers the global lineage heal: any live
/// record left with an erased ancestor is erased at remount.
#[test]
fn empty_target_intent_heals_lineage_on_remount() {
    let devices: Vec<Arc<MemDevice>> = (0..3)
        .map(|_| Arc::new(MemDevice::new(16_384, 512)))
        .collect();
    let authority = Authority::generate(29);
    let escrow = OperatorEscrow::new(authority.public_key());
    let user: DataTypeId = "user".into();

    let copy = {
        let sharded = ShardedDbfs::format(devices.clone(), DbfsParams::small()).unwrap();
        sharded.create_type(listing1_user_schema()).unwrap();
        let original = sharded
            .collect(&user, SubjectId::new(3), user_row("expiring"))
            .unwrap();
        let copy = loop {
            let copy = sharded.copy(&user, original).unwrap();
            if sharded.shard_of_id(copy) != sharded.shard_of_id(original) {
                break copy;
            }
        };
        // Simulate the retention sweep crashing between the shard-local
        // purge (original tombstoned) and the cross-shard propagation.
        sharded.shards()[0]
            .put_erase_intent(&EraseIntent {
                targets: Vec::new(),
                escrow_key: escrow.public_key().element(),
                routed: true,
            })
            .unwrap();
        let root_shard = sharded.shard_of_id(original);
        sharded.shards()[root_shard]
            .erase(&user, original, &escrow)
            .unwrap();
        copy
    };

    let sharded = ShardedDbfs::mount(devices).unwrap();
    sharded.verify_index_invariants().unwrap();
    assert!(
        sharded.get(&user, copy).unwrap().membrane().is_erased(),
        "lineage heal must erase the surviving copy"
    );
    assert!(sharded.sharded_stats().totals.recovered_txs >= 1);
}

/// Crypto-erasure coverage (single store): after `erase`, the raw device
/// holds no plaintext, the on-disk tombstone decodes only to an escrowed
/// ciphertext the *operator cannot decrypt* — the per-record key material
/// is gone, encapsulated to the authority — and only the right authority
/// recovers it.
#[test]
fn erasure_destroys_key_material_on_dbfs() {
    let device = Arc::new(MemDevice::new(16_384, 512));
    let dbfs = Dbfs::format(Arc::clone(&device), DbfsParams::small()).unwrap();
    dbfs.create_type(listing1_user_schema()).unwrap();
    let authority = Authority::generate(31);
    let impostor = Authority::generate(32);
    let escrow = OperatorEscrow::new(authority.public_key());
    let id = dbfs
        .collect(
            &"user".into(),
            SubjectId::new(5),
            user_row("RAW-BLOCK-CANARY-77"),
        )
        .unwrap();
    assert!(!scan_for_pattern(device.as_ref(), b"RAW-BLOCK-CANARY-77")
        .unwrap()
        .is_empty());

    dbfs.erase(&"user".into(), id, &escrow).unwrap();

    // 1. The raw blocks (data, journal, tombstone) hold no plaintext.
    assert!(scan_for_pattern(device.as_ref(), b"RAW-BLOCK-CANARY-77")
        .unwrap()
        .is_empty());
    // 2. Reading the record back through the device yields only the
    //    escrowed ciphertext, and decryption without the authority's
    //    private key fails in every way available to the operator.
    let tombstones = dbfs
        .query(&QueryRequest::all("user").including_erased())
        .unwrap();
    let ciphertext_bytes = tombstones.records()[0]
        .row()
        .get("__erased_ciphertext")
        .expect("tombstone payload is the ciphertext")
        .as_bytes()
        .unwrap()
        .to_vec();
    let ciphertext = EscrowedCiphertext::decode(&ciphertext_bytes).unwrap();
    assert!(ciphertext.recover_plaintext_hint().is_none());
    assert!(impostor.recover(&ciphertext).is_err());
    assert_ne!(ciphertext.payload(), b"RAW-BLOCK-CANARY-77");
    // 3. Only the real authority can recover.
    let plaintext = authority.recover(&ciphertext).unwrap();
    let row: Row = serde_json::from_slice(&plaintext).unwrap();
    assert_eq!(
        row.get("name").unwrap().as_text(),
        Some("RAW-BLOCK-CANARY-77")
    );
}

/// Crypto-erasure coverage (sharded): a cross-shard erasure leaves no
/// plaintext on *any* shard device and every tombstone in the cascade is
/// operator-opaque.
#[test]
fn erasure_destroys_key_material_on_sharded_dbfs() {
    let devices: Vec<Arc<MemDevice>> = (0..3)
        .map(|_| Arc::new(MemDevice::new(16_384, 512)))
        .collect();
    let sharded = ShardedDbfs::format(devices.clone(), DbfsParams::small()).unwrap();
    sharded.create_type(listing1_user_schema()).unwrap();
    let authority = Authority::generate(41);
    let impostor = Authority::generate(42);
    let escrow = OperatorEscrow::new(authority.public_key());
    let user: DataTypeId = "user".into();
    let original = sharded
        .collect(&user, SubjectId::new(9), user_row("SHARD-CANARY-4242"))
        .unwrap();
    // Force a cross-shard copy so the ciphertext lands on a second device.
    let copy = loop {
        let copy = sharded.copy(&user, original).unwrap();
        if sharded.shard_of_id(copy) != sharded.shard_of_id(original) {
            break copy;
        }
    };
    assert!(devices.iter().any(|device| {
        !scan_for_pattern(device.as_ref(), b"SHARD-CANARY-4242")
            .unwrap()
            .is_empty()
    }));

    let erased = sharded.erase(&user, original, &escrow).unwrap();
    assert!(erased.contains(&original) && erased.contains(&copy));

    for (shard, device) in devices.iter().enumerate() {
        assert!(
            scan_for_pattern(device.as_ref(), b"SHARD-CANARY-4242")
                .unwrap()
                .is_empty(),
            "shard {shard} still holds plaintext after the cascade"
        );
    }
    for id in [original, copy] {
        let record = sharded.get(&user, id).unwrap();
        assert!(record.membrane().is_erased());
        let bytes = record
            .row()
            .get("__erased_ciphertext")
            .unwrap()
            .as_bytes()
            .unwrap()
            .to_vec();
        let ciphertext = EscrowedCiphertext::decode(&bytes).unwrap();
        assert!(ciphertext.recover_plaintext_hint().is_none());
        assert!(impostor.recover(&ciphertext).is_err());
        let row: Row = serde_json::from_slice(&authority.recover(&ciphertext).unwrap()).unwrap();
        assert_eq!(
            row.get("name").unwrap().as_text(),
            Some("SHARD-CANARY-4242")
        );
    }
    // No intent is left pending after a clean cascade.
    assert!(sharded
        .shards()
        .iter()
        .all(|shard| shard.pending_erase_intents().unwrap().is_empty()));
}

/// The intent WAL round-trips across a remount and is atomic (never torn).
#[test]
fn erase_intents_persist_across_remount() {
    let device = Arc::new(MemDevice::new(16_384, 512));
    let intent = EraseIntent {
        targets: vec![("user".to_owned(), 7), ("orders".to_owned(), 12)],
        escrow_key: Authority::generate(5).public_key().element(),
        routed: true,
    };
    let token = {
        let dbfs = Dbfs::format(Arc::clone(&device), DbfsParams::small()).unwrap();
        dbfs.create_type(listing1_user_schema()).unwrap();
        assert!(dbfs.pending_erase_intents().unwrap().is_empty());
        let token = dbfs.put_erase_intent(&intent).unwrap();
        assert_eq!(dbfs.pending_erase_intents().unwrap().len(), 1);
        token
    };
    let dbfs = Dbfs::mount(Arc::clone(&device)).unwrap();
    let pending = dbfs.pending_erase_intents().unwrap();
    assert_eq!(pending, vec![(token, intent)]);
    dbfs.clear_erase_intent(token).unwrap();
    assert!(dbfs.pending_erase_intents().unwrap().is_empty());
    // Tokens are not recycled after a clear + remount.
    drop(dbfs);
    let dbfs = Dbfs::mount(device).unwrap();
    let next = dbfs
        .put_erase_intent(&EraseIntent {
            targets: Vec::new(),
            escrow_key: Authority::generate(5).public_key().element(),
            routed: true,
        })
        .unwrap();
    assert!(next > token);
}

/// An intent too large for one journal transaction is refused before
/// anything is written.  (It used to be written in chunks, and a crash
/// between two of them left an intent log no mount could decode.)
#[test]
fn an_oversize_erase_intent_is_refused_and_leaves_the_log_intact() {
    let device = Arc::new(MemDevice::new(16_384, 512));
    // Ten journal blocks just fit `format` and `create_type`.
    let mut params = DbfsParams::small();
    params.inode_params = params.inode_params.with_journal_blocks(10);
    let probe = FaultyDevice::new(Arc::clone(&device), FaultScript::none());
    let cell = probe.cell();
    let dbfs = Dbfs::format(probe, params).unwrap();
    dbfs.create_type(listing1_user_schema()).unwrap();
    let intent = |targets: u64| EraseIntent {
        targets: (0..targets).map(|id| ("user".to_owned(), id)).collect(),
        escrow_key: Authority::generate(5).public_key().element(),
        routed: true,
    };
    let token = dbfs.put_erase_intent(&intent(2)).unwrap();
    let (writes, refused) = cell.writes_between(|| dbfs.put_erase_intent(&intent(1_000)));
    assert!(matches!(
        refused,
        Err(DbfsError::Inode(InodeError::TxTooLarge { .. }))
    ));
    assert_eq!(writes, 0, "a refusal writes nothing");
    assert_eq!(dbfs.pending_erase_intents().unwrap(), [(token, intent(2))]);
    drop(dbfs);
    let dbfs = Dbfs::mount(device).unwrap();
    assert_eq!(dbfs.pending_erase_intents().unwrap(), [(token, intent(2))]);
    dbfs.verify_index_invariants().unwrap();
}
