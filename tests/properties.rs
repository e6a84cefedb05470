//! Property-based tests over the core invariants of the reproduction.

use proptest::prelude::*;
use rgpdos::blockdev::{scan_for_pattern, BlockDevice, MemDevice};
use rgpdos::core::prelude::*;
use rgpdos::core::schema::listing1_user_schema;
use rgpdos::crypto::escrow::{Authority, OperatorEscrow};
use rgpdos::dbfs::{Dbfs, DbfsParams, PdStore};
use rgpdos::inode::{FormatParams, InodeFs, InodeKind, JournalMode};
use std::sync::Arc;

fn field_value_strategy() -> impl Strategy<Value = FieldValue> {
    prop_oneof![
        any::<i64>().prop_map(FieldValue::Int),
        any::<bool>().prop_map(FieldValue::Bool),
        "[a-zA-Z0-9 _-]{0,40}".prop_map(FieldValue::Text),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(FieldValue::Bytes),
        any::<u64>().prop_map(FieldValue::Date),
        (-1.0e12f64..1.0e12).prop_map(FieldValue::Float),
    ]
}

fn row_strategy() -> impl Strategy<Value = Row> {
    proptest::collection::btree_map("[a-z_]{1,12}", field_value_strategy(), 0..8)
        .prop_map(|fields| fields.into_iter().collect())
}

/// One step of the buffer-cache transparency property.
#[derive(Debug, Clone)]
enum CacheOp {
    Write(u64, Vec<u8>),
    Read(u64, usize),
    Truncate(u64),
    Flush,
    DropCache,
}

fn cache_op_strategy() -> impl Strategy<Value = CacheOp> {
    prop_oneof![
        (0u64..3_000, proptest::collection::vec(any::<u8>(), 1..200))
            .prop_map(|(offset, data)| CacheOp::Write(offset, data)),
        (0u64..3_500, 1usize..400).prop_map(|(offset, len)| CacheOp::Read(offset, len)),
        (0u64..3_000).prop_map(CacheOp::Truncate),
        proptest::strategy::Just(CacheOp::Flush),
        proptest::strategy::Just(CacheOp::DropCache),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Row binary encoding round-trips for arbitrary rows.
    #[test]
    fn row_encoding_round_trips(row in row_strategy()) {
        let encoded = row.encode();
        let decoded = Row::decode(&encoded).unwrap();
        prop_assert_eq!(decoded, row);
    }

    /// The escrow protocol always lets the right authority (and only the
    /// right authority) recover the plaintext.
    #[test]
    fn escrow_recovery_is_exact(
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        seed in 1u64..1_000_000,
    ) {
        let authority = Authority::generate(seed);
        let wrong = Authority::generate(seed + 1);
        let operator = OperatorEscrow::new(authority.public_key());
        let ciphertext = operator.erase(&payload);
        prop_assert_eq!(authority.recover(&ciphertext).unwrap(), payload);
        prop_assert!(wrong.recover(&ciphertext).is_err());
    }

    /// Consent checks never grant access to a purpose that was not granted:
    /// for any set of granted purposes, every other purpose is denied.
    #[test]
    fn unknown_purposes_are_always_denied(
        granted in proptest::collection::btree_set("[a-z]{1,8}", 0..6),
        probe in "[a-z]{1,8}",
    ) {
        let mut table = ConsentTable::new();
        for purpose in &granted {
            table.grant(purpose.as_str(), ConsentDecision::All);
        }
        let decision = table.check(&PurposeId::from(probe.as_str()));
        if granted.contains(&probe) {
            prop_assert_eq!(decision, AccessDecision::Full);
        } else {
            prop_assert_eq!(decision, AccessDecision::Denied);
        }
    }

    /// Whatever is written through the inode layer reads back identically,
    /// at any offset.
    #[test]
    fn inode_fs_write_read_round_trip(
        chunks in proptest::collection::vec((0u64..4_000, proptest::collection::vec(any::<u8>(), 1..300)), 1..6)
    ) {
        let device = Arc::new(MemDevice::new(2_048, 256));
        let fs = InodeFs::format(device, FormatParams::small().with_inode_count(16), JournalMode::Retain).unwrap();
        let ino = fs.alloc_inode(InodeKind::File).unwrap();
        let mut shadow = vec![0u8; 5_000];
        let mut max_end = 0usize;
        for (offset, data) in &chunks {
            fs.write(ino, *offset, data).unwrap();
            let end = *offset as usize + data.len();
            shadow[*offset as usize..end].copy_from_slice(data);
            max_end = max_end.max(end);
        }
        let read_back = fs.read_all(ino).unwrap();
        prop_assert_eq!(read_back.len(), max_end);
        prop_assert_eq!(&read_back[..], &shadow[..max_end]);
    }

    /// Buffer-cache transparency: any interleaving of writes, reads,
    /// truncates, flushes and cache drops observes exactly the same bytes
    /// through a cached filesystem as through an uncached one, and leaves
    /// the raw devices bit-identical.  A tiny cache capacity forces
    /// evictions, so the hit, miss and eviction paths are all exercised.
    #[test]
    fn cached_reads_match_the_uncached_device(
        ops in proptest::collection::vec(cache_op_strategy(), 1..24),
        capacity in 1usize..32,
    ) {
        let cached_device = Arc::new(MemDevice::new(2_048, 256));
        let plain_device = Arc::new(MemDevice::new(2_048, 256));
        let params = FormatParams::small().with_inode_count(16);
        let cached = InodeFs::format(Arc::clone(&cached_device), params, JournalMode::Scrub).unwrap();
        let plain = InodeFs::format(Arc::clone(&plain_device), params, JournalMode::Scrub).unwrap();
        cached.set_cache_capacity(capacity);
        plain.set_cache_capacity(0);
        let a = cached.alloc_inode(InodeKind::File).unwrap();
        let b = plain.alloc_inode(InodeKind::File).unwrap();
        prop_assert_eq!(a, b);
        for op in &ops {
            match op {
                CacheOp::Write(offset, data) => {
                    prop_assert_eq!(
                        cached.write(a, *offset, data).is_ok(),
                        plain.write(b, *offset, data).is_ok()
                    );
                }
                CacheOp::Read(offset, len) => {
                    prop_assert_eq!(
                        cached.read(a, *offset, *len).unwrap(),
                        plain.read(b, *offset, *len).unwrap()
                    );
                }
                CacheOp::Truncate(size) => {
                    cached.truncate(a, *size).unwrap();
                    plain.truncate(b, *size).unwrap();
                }
                CacheOp::Flush => {
                    cached.sync().unwrap();
                    plain.sync().unwrap();
                }
                CacheOp::DropCache => cached.drop_caches(),
            }
        }
        prop_assert_eq!(cached.read_all(a).unwrap(), plain.read_all(b).unwrap());
        // The devices underneath are bit-identical: caching changed no write.
        prop_assert_eq!(cached_device.raw_dump().unwrap(), plain_device.raw_dump().unwrap());
    }

    /// DBFS membrane filtering is sound: a purpose that a record's membrane
    /// denies never appears among that record's permitted purposes.
    #[test]
    fn membrane_permits_is_consistent_with_consents(year in 1900i64..2020) {
        let schema = listing1_user_schema();
        let membrane = Membrane::from_schema(&schema, SubjectId::new(1), Timestamp::ZERO);
        for purpose in ["purpose1", "purpose2", "purpose3", "unknown"] {
            let decision = membrane.permits(&PurposeId::from(purpose));
            let listed = membrane
                .consents()
                .permitted_purposes()
                .any(|p| p.as_str() == purpose);
            prop_assert_eq!(decision.allows_any(), listed, "purpose {} year {}", purpose, year);
        }
    }
}

// ---------------------------------------------------------------------
// DSL round-trip properties: arbitrary generated declarations survive the
// lexer -> parser -> compile pipeline without panicking, and pretty-printed
// ASTs re-parse to the same AST.
// ---------------------------------------------------------------------

fn ident_strategy() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,8}"
}

fn field_type_spelling() -> impl Strategy<Value = String> {
    prop_oneof![
        proptest::strategy::Just("string".to_owned()),
        proptest::strategy::Just("int".to_owned()),
        proptest::strategy::Just("float".to_owned()),
        proptest::strategy::Just("bool".to_owned()),
        proptest::strategy::Just("date".to_owned()),
        // Unknown spellings must surface as errors, never panics.
        ident_strategy(),
    ]
}

fn type_decl_strategy() -> impl Strategy<Value = rgpdos::dsl::TypeDecl> {
    use rgpdos::dsl::{ConsentClause, FieldDecl, TypeDecl, ViewDecl};
    let fields = proptest::collection::vec((ident_strategy(), field_type_spelling()), 0..5);
    let views = proptest::collection::vec(
        (
            ident_strategy(),
            proptest::collection::vec(ident_strategy(), 0..4),
        ),
        0..3,
    );
    let consent = proptest::collection::vec((ident_strategy(), ident_strategy()), 0..3);
    let attrs = (
        proptest::collection::vec(
            (
                prop_oneof![
                    proptest::strategy::Just("web_form".to_owned()),
                    proptest::strategy::Just("third_party".to_owned()),
                    ident_strategy(),
                ],
                ident_strategy(),
            ),
            0..3,
        ),
        prop_oneof![
            proptest::strategy::Just(None),
            ident_strategy().prop_map(Some)
        ],
        prop_oneof![
            proptest::strategy::Just(None),
            proptest::strategy::Just(Some("1Y".to_owned())),
            proptest::strategy::Just(Some("30D".to_owned())),
            ident_strategy().prop_map(Some),
        ],
        prop_oneof![
            proptest::strategy::Just(None),
            ident_strategy().prop_map(Some)
        ],
    );
    ((ident_strategy(), fields), (views, consent), attrs).prop_map(
        |((name, fields), (views, consent), (collection, origin, age, sensitivity))| TypeDecl {
            name,
            fields: fields
                .into_iter()
                .map(|(name, field_type)| FieldDecl {
                    name,
                    field_type,
                    ..FieldDecl::default()
                })
                .collect(),
            views: views
                .into_iter()
                .map(|(name, fields)| ViewDecl {
                    name,
                    fields: fields.into_iter().map(Into::into).collect(),
                    ..ViewDecl::default()
                })
                .collect(),
            consent: consent
                .into_iter()
                .map(|(purpose, decision)| ConsentClause {
                    purpose,
                    decision,
                    ..ConsentClause::default()
                })
                .collect(),
            collection: collection.into_iter().map(Into::into).collect(),
            origin: origin.map(Into::into),
            age: age.map(Into::into),
            sensitivity: sensitivity.map(Into::into),
            ..TypeDecl::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Pretty-printing an arbitrary AST and re-parsing it yields the same
    /// AST, and compiling the result never panics (it may well `Err` — the
    /// generated declarations are frequently nonsense).
    #[test]
    fn pretty_printed_type_decls_reparse_to_the_same_ast(
        decls in proptest::collection::vec(type_decl_strategy(), 1..4)
    ) {
        use rgpdos::dsl::parse_type_declarations;
        let source = decls
            .iter()
            .map(|decl| decl.to_string())
            .collect::<Vec<_>>()
            .join("\n");
        let reparsed = parse_type_declarations(&source).unwrap();
        prop_assert_eq!(&reparsed, &decls);
        for decl in &reparsed {
            // Must return (Ok or Err) without panicking.
            let _ = rgpdos::dsl::compile_type_declaration(decl);
        }
    }

    /// The whole pipeline (lexer -> parser -> compile) never panics on
    /// arbitrary token soup; it either compiles or reports a DslError.
    #[test]
    fn dsl_pipeline_never_panics_on_arbitrary_input(
        soup in "[a-z0-9_{}:;,\" \n/*.-]{0,120}"
    ) {
        if let Ok(decls) = rgpdos::dsl::parse_type_declarations(&soup) {
            for decl in &decls {
                let _ = rgpdos::dsl::compile_type_declaration(decl);
            }
            // The analyzer accepts whatever the parser accepts.
            let _ = rgpdos::analyze::analyze(&decls);
        }
        // Purpose declarations share the lexer; they must not panic either.
        let _ = rgpdos::dsl::parse_purpose_declarations(&soup);
        let _ = rgpdos::dsl::extract_purpose_annotation(&soup);
    }

    /// The static analyzer never panics on arbitrary (frequently nonsense)
    /// ASTs, and its verdict is stable across a pretty-print round trip: the
    /// same diagnostic codes come out whether it sees the hand-built AST
    /// (dummy spans) or the re-parsed pretty-printed text (real spans).
    /// Spans and span-derived message fragments are exactly what the round
    /// trip is allowed to change, so the comparison is on sorted codes.
    #[test]
    fn analyzer_is_total_and_stable_under_pretty_print_round_trip(
        decls in proptest::collection::vec(type_decl_strategy(), 1..4)
    ) {
        let direct = rgpdos::analyze::analyze(&decls);
        let source = decls
            .iter()
            .map(|decl| decl.to_string())
            .collect::<Vec<_>>()
            .join("\n");
        let reparsed = rgpdos::analyze::analyze_source(&source).unwrap();
        let mut direct_codes: Vec<&str> = direct.iter().map(|d| d.code).collect();
        let mut reparsed_codes: Vec<&str> = reparsed.iter().map(|d| d.code).collect();
        direct_codes.sort_unstable();
        reparsed_codes.sort_unstable();
        prop_assert_eq!(direct_codes, reparsed_codes);
        // Analyzing the same source twice is fully deterministic, spans,
        // messages and ordering included.
        prop_assert_eq!(&reparsed, &rgpdos::analyze::analyze_source(&source).unwrap());
        // A policy with no error-severity diagnostics must compile; hard
        // compile errors must be flagged as analyzer errors.
        let has_errors = reparsed.iter().any(|d| d.is_error());
        for decl in rgpdos::dsl::parse_type_declarations(&source).unwrap() {
            if let Err(e) = rgpdos::dsl::compile_type_declaration(&decl) {
                prop_assert!(has_errors, "compile failed ({e}) but analyzer saw no errors");
            }
        }
    }
}

/// One step of the index-consistency property: the operations a DBFS index
/// must survive in any order (insert, copy, erase, subject-wide erase, TTL
/// change, clock advance, retention sweep).
#[derive(Debug, Clone)]
enum DbfsOp {
    Collect { subject: u8 },
    Copy { pick: u8 },
    Erase { pick: u8 },
    EraseSubject { subject: u8 },
    SetTtlDays { pick: u8, days: u64 },
    AdvanceDays { days: u64 },
    Purge,
    Scrub,
}

fn dbfs_op_strategy() -> impl Strategy<Value = DbfsOp> {
    prop_oneof![
        (0u8..6).prop_map(|subject| DbfsOp::Collect { subject }),
        any::<u8>().prop_map(|pick| DbfsOp::Copy { pick }),
        any::<u8>().prop_map(|pick| DbfsOp::Erase { pick }),
        (0u8..6).prop_map(|subject| DbfsOp::EraseSubject { subject }),
        (any::<u8>(), 1u64..800).prop_map(|(pick, days)| DbfsOp::SetTtlDays { pick, days }),
        (1u64..400).prop_map(|days| DbfsOp::AdvanceDays { days }),
        proptest::strategy::Just(DbfsOp::Purge),
        proptest::strategy::Just(DbfsOp::Scrub),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After an arbitrary sequence of lifecycle operations the secondary
    /// indexes (per-table, per-subject, reverse lineage, expiry) agree with
    /// the primary record map and with the membrane headers on disk — and a
    /// remount rebuilds the same picture.  `Scrub` interleaves tombstone
    /// compaction anywhere in the sequence; after every pass the invariants
    /// must hold and **no erased id may ever be readable as live data
    /// again** — a reclaimed tombstone is gone, never resurrected.
    #[test]
    fn secondary_indexes_stay_consistent(
        ops in proptest::collection::vec(dbfs_op_strategy(), 1..40)
    ) {
        let device = Arc::new(MemDevice::new(16_384, 512));
        let dbfs = Dbfs::format(Arc::clone(&device), DbfsParams::small()).unwrap();
        dbfs.create_type(listing1_user_schema()).unwrap();
        let authority = Authority::generate(99);
        let escrow = OperatorEscrow::new(authority.public_key());
        let user = rgpdos::core::DataTypeId::from("user");
        let mut ids: Vec<PdId> = Vec::new();
        let mut erased: std::collections::BTreeSet<PdId> = std::collections::BTreeSet::new();
        let mut reclaimed: std::collections::BTreeSet<PdId> = std::collections::BTreeSet::new();
        for op in ops {
            match op {
                DbfsOp::Collect { subject } => {
                    let row = Row::new()
                        .with("name", format!("subject-{subject}"))
                        .with("pwd", "pw")
                        .with("year_of_birthdate", 1990i64);
                    ids.push(dbfs.collect(&user, SubjectId::new(subject as u64), row).unwrap());
                }
                DbfsOp::Copy { pick } if !ids.is_empty() => {
                    let id = ids[pick as usize % ids.len()];
                    // Copying an erased (or reclaimed) record is refused.
                    if let Ok(copy) = dbfs.copy(&user, id) {
                        ids.push(copy);
                    }
                }
                DbfsOp::Erase { pick } if !ids.is_empty() => {
                    let id = ids[pick as usize % ids.len()];
                    match dbfs.erase(&user, id, &escrow) {
                        Ok(closure) => erased.extend(closure),
                        // Only a reclaimed id may refuse an erasure.
                        Err(e) => prop_assert!(
                            reclaimed.contains(&id),
                            "erase of {} failed: {}", id, e
                        ),
                    }
                }
                DbfsOp::EraseSubject { subject } => {
                    erased.extend(
                        dbfs.erase_subject(SubjectId::new(subject as u64), &escrow).unwrap()
                    );
                }
                DbfsOp::SetTtlDays { pick, days } if !ids.is_empty() => {
                    let id = ids[pick as usize % ids.len()];
                    let delta = MembraneDelta::SetTimeToLive { ttl: TimeToLive::days(days) };
                    match dbfs.apply_membrane_delta(&user, id, &delta) {
                        Ok(_) => {}
                        Err(e) => prop_assert!(
                            reclaimed.contains(&id),
                            "ttl change of {} failed: {}", id, e
                        ),
                    }
                }
                DbfsOp::AdvanceDays { days } => {
                    dbfs.clock().advance(Duration::from_days(days));
                }
                DbfsOp::Purge => {
                    erased.extend(dbfs.purge_expired(&escrow).unwrap());
                }
                DbfsOp::Scrub => {
                    let report = dbfs.scrub_tombstones().unwrap();
                    reclaimed.extend(report.reclaimed.iter().copied());
                    dbfs.verify_index_invariants().unwrap();
                    // No erased id is ever readable as live data again: it
                    // is a tombstone until reclaimed, then gone for good.
                    for &id in &erased {
                        match dbfs.get(&user, id) {
                            Ok(record) => prop_assert!(
                                record.membrane().is_erased(),
                                "erased {} readable as live data after a scrub", id
                            ),
                            Err(_) => prop_assert!(
                                reclaimed.contains(&id),
                                "erased {} vanished without being reclaimed", id
                            ),
                        }
                    }
                }
                // Pick-based operations on an empty store are no-ops.
                _ => {}
            }
        }
        dbfs.verify_index_invariants().unwrap();
        let live = dbfs.count(&user).unwrap();
        drop(dbfs);
        let remounted = Dbfs::mount(device).unwrap();
        remounted.verify_index_invariants().unwrap();
        prop_assert_eq!(remounted.count(&user).unwrap(), live);
        // Reclaims survive the remount: a reclaimed id never resurrects.
        for &id in &reclaimed {
            prop_assert!(
                remounted.get(&user, id).is_err(),
                "reclaimed {} resurrected across a remount", id
            );
        }
    }
}

/// One step of the cross-shard lineage property: the operations a sharded
/// deployment must survive in any interleaving.  `Copy` is the interesting
/// one — the sharded router places copies round-robin, so lineage routinely
/// spans shards.
#[derive(Debug, Clone)]
enum ShardOp {
    Collect { subject: u8 },
    Copy { pick: u8 },
    Erase { pick: u8 },
    EraseSubject { subject: u8 },
    SetTtlDays { pick: u8, days: u64 },
    AdvanceDays { days: u64 },
    Purge,
    Scrub,
}

fn shard_op_strategy() -> impl Strategy<Value = ShardOp> {
    prop_oneof![
        (0u8..8).prop_map(|subject| ShardOp::Collect { subject }),
        // Copies listed twice to weight them up: cross-shard lineage is the
        // property under test.
        any::<u8>().prop_map(|pick| ShardOp::Copy { pick }),
        any::<u8>().prop_map(|pick| ShardOp::Copy { pick }),
        any::<u8>().prop_map(|pick| ShardOp::Erase { pick }),
        (0u8..8).prop_map(|subject| ShardOp::EraseSubject { subject }),
        (any::<u8>(), 1u64..800).prop_map(|(pick, days)| ShardOp::SetTtlDays { pick, days }),
        (1u64..400).prop_map(|days| ShardOp::AdvanceDays { days }),
        proptest::strategy::Just(ShardOp::Purge),
        proptest::strategy::Just(ShardOp::Scrub),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The sharded analogue of `secondary_indexes_stay_consistent`: after an
    /// arbitrary interleaving of collect/copy/erase/TTL/purge operations
    /// across shards, no live record anywhere in the deployment has an
    /// erased lineage ancestor, every router-level index (lineage directory,
    /// foreign placements, tombstones) agrees with the shards — and a
    /// remount rebuilds the same picture.
    #[test]
    fn cross_shard_lineage_never_outlives_erasure(
        ops in proptest::collection::vec(shard_op_strategy(), 1..40)
    ) {
        use rgpdos::shard::ShardedDbfs;
        let devices: Vec<Arc<MemDevice>> =
            (0..3).map(|_| Arc::new(MemDevice::new(16_384, 512))).collect();
        let sharded = ShardedDbfs::format(devices.clone(), DbfsParams::small()).unwrap();
        sharded.create_type(listing1_user_schema()).unwrap();
        let authority = Authority::generate(99);
        let escrow = OperatorEscrow::new(authority.public_key());
        let user = rgpdos::core::DataTypeId::from("user");
        let mut ids: Vec<PdId> = Vec::new();
        let mut erased: std::collections::BTreeSet<PdId> = std::collections::BTreeSet::new();
        let mut reclaimed: std::collections::BTreeSet<PdId> = std::collections::BTreeSet::new();
        for op in ops {
            match op {
                ShardOp::Collect { subject } => {
                    let row = Row::new()
                        .with("name", format!("subject-{subject}"))
                        .with("pwd", "pw")
                        .with("year_of_birthdate", 1990i64);
                    ids.push(
                        sharded
                            .collect(&user, SubjectId::new(subject as u64), row)
                            .unwrap(),
                    );
                }
                ShardOp::Copy { pick } if !ids.is_empty() => {
                    let id = ids[pick as usize % ids.len()];
                    // Copying an erased record (or one whose lineage was
                    // erased) is correctly refused.
                    if let Ok(copy) = sharded.copy(&user, id) {
                        ids.push(copy);
                    }
                }
                ShardOp::Erase { pick } if !ids.is_empty() => {
                    let id = ids[pick as usize % ids.len()];
                    match sharded.erase(&user, id, &escrow) {
                        Ok(closure) => erased.extend(closure),
                        // Only a reclaimed id may refuse an erasure.
                        Err(e) => prop_assert!(
                            reclaimed.contains(&id),
                            "erase of {} failed: {}", id, e
                        ),
                    }
                }
                ShardOp::EraseSubject { subject } => {
                    erased.extend(
                        sharded
                            .erase_subject(SubjectId::new(subject as u64), &escrow)
                            .unwrap(),
                    );
                }
                ShardOp::SetTtlDays { pick, days } if !ids.is_empty() => {
                    let id = ids[pick as usize % ids.len()];
                    let delta = MembraneDelta::SetTimeToLive { ttl: TimeToLive::days(days) };
                    match sharded.apply_membrane_delta(&user, id, &delta) {
                        Ok(_) => {}
                        Err(e) => prop_assert!(
                            reclaimed.contains(&id),
                            "ttl change of {} failed: {}", id, e
                        ),
                    }
                }
                ShardOp::AdvanceDays { days } => {
                    sharded.clock().advance(Duration::from_days(days));
                }
                ShardOp::Purge => {
                    erased.extend(sharded.purge_expired(&escrow).unwrap());
                }
                ShardOp::Scrub => {
                    let report = sharded.scrub_tombstones().unwrap();
                    reclaimed.extend(report.reclaimed.iter().copied());
                    sharded.verify_index_invariants().unwrap();
                    // No erased id is ever readable as live data again,
                    // on any shard.
                    for &id in &erased {
                        match sharded.get(&user, id) {
                            Ok(record) => prop_assert!(
                                record.membrane().is_erased(),
                                "erased {} readable as live data after a scrub", id
                            ),
                            Err(_) => prop_assert!(
                                reclaimed.contains(&id),
                                "erased {} vanished without being reclaimed", id
                            ),
                        }
                    }
                }
                // Pick-based operations on an empty deployment are no-ops.
                _ => {}
            }
        }
        // The router-level checker already enforces the core property (no
        // live record with an erased lineage ancestor) plus directory/shard
        // agreement; assert it again independently from the membranes so the
        // test does not rely on the checker's own bookkeeping.
        sharded.verify_index_invariants().unwrap();
        let mut membranes: std::collections::BTreeMap<PdId, (bool, Option<PdId>)> =
            std::collections::BTreeMap::new();
        for (id, membrane) in sharded.load_membranes(&user).unwrap() {
            membranes.insert(id, (membrane.is_erased(), membrane.copied_from()));
        }
        for (&id, &(erased, parent)) in &membranes {
            if erased {
                continue;
            }
            let mut seen = std::collections::BTreeSet::from([id]);
            let mut ancestor = parent;
            while let Some(current) = ancestor {
                prop_assert!(seen.insert(current), "lineage cycle at {current}");
                match membranes.get(&current) {
                    Some(&(ancestor_erased, next)) => {
                        prop_assert!(
                            !ancestor_erased,
                            "live {id} has erased ancestor {current}"
                        );
                        ancestor = next;
                    }
                    None => break,
                }
            }
        }
        let live = sharded.count(&user).unwrap();
        drop(sharded);
        let remounted = ShardedDbfs::mount(devices).unwrap();
        remounted.verify_index_invariants().unwrap();
        prop_assert_eq!(remounted.count(&user).unwrap(), live);
        // Reclaims survive the remount on every shard.
        for &id in &reclaimed {
            prop_assert!(
                remounted.get(&user, id).is_err(),
                "reclaimed {} resurrected across a remount", id
            );
        }
    }
}

/// The index stays consistent under concurrent use of a shared
/// `Arc<Dbfs<_>>`.  Each thread works in its own table so the final
/// verification observes every thread's full history.
#[test]
fn concurrent_dbfs_operations_keep_indexes_consistent() {
    use rgpdos::core::{DataTypeSchema, FieldType};
    let device = Arc::new(MemDevice::new(32_768, 512));
    let dbfs = Arc::new(Dbfs::format(Arc::clone(&device), DbfsParams::small()).unwrap());
    for thread in 0..4 {
        dbfs.create_type(
            DataTypeSchema::builder(format!("events_{thread}"))
                .field("name", FieldType::Text)
                .build()
                .unwrap(),
        )
        .unwrap();
    }
    let authority = Authority::generate(7);
    let escrow = Arc::new(OperatorEscrow::new(authority.public_key()));
    let mut handles = Vec::new();
    for thread in 0..4u64 {
        let dbfs = Arc::clone(&dbfs);
        let escrow = Arc::clone(&escrow);
        handles.push(std::thread::spawn(move || {
            let table = rgpdos::core::DataTypeId::from(format!("events_{thread}").as_str());
            for i in 0..25u64 {
                let subject = SubjectId::new(thread * 100 + i % 5);
                let row = Row::new().with("name", format!("t{thread}-i{i}"));
                let id = dbfs.collect(&table, subject, row).unwrap();
                if i % 3 == 0 {
                    let copy = dbfs.copy(&table, id).unwrap();
                    if i % 6 == 0 {
                        // Erasing the original must reach the copy.
                        dbfs.erase(&table, id, &escrow).unwrap();
                        assert!(dbfs.get(&table, copy).unwrap().membrane().is_erased());
                    }
                }
                assert!(!dbfs.load_membranes(&table).unwrap().is_empty());
                dbfs.records_of_subject(subject).unwrap();
            }
        }));
    }
    for handle in handles {
        handle.join().unwrap();
    }
    dbfs.verify_index_invariants().unwrap();
    // 100 direct collects plus 36 copies (copies store through the same
    // path, so they count as collects too).
    assert_eq!(dbfs.stats().collects, 136);
    assert_eq!(dbfs.stats().copies, 36);
}

/// Erasure leaves no plaintext residue for arbitrary (printable) payloads —
/// the storage-level half of the right to be forgotten, checked end to end
/// against the raw device.
#[test]
fn erasure_never_leaves_residue_for_sampled_payloads() {
    let names = [
        "UNIQUE-CANARY-ALPHA-123456",
        "UNIQUE-CANARY-BRAVO-998877",
        "UNIQUE-CANARY-CHARLIE-5555",
    ];
    for (i, name) in names.iter().enumerate() {
        let device = Arc::new(MemDevice::new(8_192, 512));
        let dbfs = Dbfs::format(Arc::clone(&device), DbfsParams::small()).unwrap();
        dbfs.create_type(listing1_user_schema()).unwrap();
        let authority = Authority::generate(i as u64 + 1);
        let escrow = OperatorEscrow::new(authority.public_key());
        let id = dbfs
            .collect(
                &"user".into(),
                SubjectId::new(i as u64),
                Row::new()
                    .with("name", *name)
                    .with("pwd", "pw")
                    .with("year_of_birthdate", 1990i64),
            )
            .unwrap();
        assert!(!scan_for_pattern(device.as_ref(), name.as_bytes())
            .unwrap()
            .is_empty());
        dbfs.erase(&"user".into(), id, &escrow).unwrap();
        assert!(
            scan_for_pattern(device.as_ref(), name.as_bytes())
                .unwrap()
                .is_empty(),
            "residue found for {name}"
        );
    }
}

/// After scrub + compaction, a forensic dump of **every raw device** shows
/// neither the erased payload bytes (crypto-erasure already removed those)
/// nor the tombstone itself (the scrubber reclaimed it: its on-disk marker
/// `__erased_ciphertext` is the scannable trace of the escrowed ciphertext
/// field).  Checked against both the single-device store and a sharded
/// deployment whose erased lineage spans shards.
#[test]
fn scrub_leaves_no_forensic_residue_on_any_device() {
    use rgpdos::shard::ShardedDbfs;
    const TOMBSTONE_MARKER: &[u8] = b"__erased_ciphertext";
    let canary = "UNIQUE-CANARY-SCRUBBED-777";
    let keeper = "UNIQUE-KEEPER-STAYS-LIVE-1";
    let user = rgpdos::core::DataTypeId::from("user");
    let row = |name: &str| {
        Row::new()
            .with("name", name)
            .with("pwd", "pw")
            .with("year_of_birthdate", 1990i64)
    };

    // Single-device store.
    {
        let device = Arc::new(MemDevice::new(8_192, 512));
        let dbfs = Dbfs::format(Arc::clone(&device), DbfsParams::small()).unwrap();
        dbfs.create_type(listing1_user_schema()).unwrap();
        let authority = Authority::generate(41);
        let escrow = OperatorEscrow::new(authority.public_key());
        let id = dbfs.collect(&user, SubjectId::new(1), row(canary)).unwrap();
        dbfs.collect(&user, SubjectId::new(2), row(keeper)).unwrap();
        dbfs.erase(&user, id, &escrow).unwrap();
        // The tombstone is on disk (marker present), the payload is not.
        assert!(!scan_for_pattern(device.as_ref(), TOMBSTONE_MARKER)
            .unwrap()
            .is_empty());
        dbfs.scrub_tombstones().unwrap();
        for pattern in [canary.as_bytes(), TOMBSTONE_MARKER] {
            assert!(
                scan_for_pattern(device.as_ref(), pattern)
                    .unwrap()
                    .is_empty(),
                "dbfs: residue {:?} survived the scrub",
                String::from_utf8_lossy(pattern)
            );
        }
        // The keeper is untouched by the compaction.
        assert!(!scan_for_pattern(device.as_ref(), keeper.as_bytes())
            .unwrap()
            .is_empty());
    }

    // Sharded deployment: the erased record's copies land round-robin on
    // other shards, so the subject erasure tombstones — and the scrub must
    // clean — several devices.
    {
        let devices: Vec<Arc<MemDevice>> = (0..3)
            .map(|_| Arc::new(MemDevice::new(8_192, 512)))
            .collect();
        let sharded = ShardedDbfs::format(devices.clone(), DbfsParams::small()).unwrap();
        sharded.create_type(listing1_user_schema()).unwrap();
        let authority = Authority::generate(42);
        let escrow = OperatorEscrow::new(authority.public_key());
        let id = sharded
            .collect(&user, SubjectId::new(1), row(canary))
            .unwrap();
        let copy = sharded.copy(&user, id).unwrap();
        sharded.copy(&user, copy).unwrap();
        sharded
            .collect(&user, SubjectId::new(2), row(keeper))
            .unwrap();
        sharded.erase_subject(SubjectId::new(1), &escrow).unwrap();
        assert!(
            devices
                .iter()
                .any(|d| !scan_for_pattern(d.as_ref(), TOMBSTONE_MARKER)
                    .unwrap()
                    .is_empty()),
            "the erasure left no tombstone to scrub"
        );
        sharded.scrub_tombstones().unwrap();
        for (shard, device) in devices.iter().enumerate() {
            for pattern in [canary.as_bytes(), TOMBSTONE_MARKER] {
                assert!(
                    scan_for_pattern(device.as_ref(), pattern)
                        .unwrap()
                        .is_empty(),
                    "shard {shard}: residue {:?} survived the scrub",
                    String::from_utf8_lossy(pattern)
                );
            }
        }
        assert!(devices
            .iter()
            .any(|d| !scan_for_pattern(d.as_ref(), keeper.as_bytes())
                .unwrap()
                .is_empty()));
    }
}
