//! # rgpdos-bench — paper-reproduction scenarios and the crash matrix
//!
//! The paper is a vision paper without a quantitative evaluation section, so
//! the experiment set reproduced here is the one defined in `DESIGN.md`
//! (F1–F4 for the figures, L1–L3 for the listings, C1–C5 for the prose
//! claims, plus the A-series ablations).  This crate provides the scenario
//! builders of the `experiments` binary (which prints every series) and the
//! [`crashgrind`] crash-point harness.  Performance is measured elsewhere,
//! by the `rgpdbench/` package.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crashgrind;

use rgpdos::baseline::UserspaceDbEngine;
use rgpdos::blockdev::MemDevice;
use rgpdos::prelude::*;
use rgpdos::workloads::{GeneratedSubject, OperationKind, PopulationGenerator, WorkloadMix};
use std::sync::Arc;

/// The purpose used by the benchmark processings.
pub const BENCH_PURPOSE: &str = "purpose3";

/// A populated rgpdOS instance plus the ids needed by the experiments.
pub struct RgpdOsScenario {
    /// The booted instance.
    pub os: RgpdOs,
    /// The registered `compute_age` processing.
    pub compute_age: rgpdos::core::ProcessingId,
    /// The generated population (one DBFS record each).
    pub population: Vec<GeneratedSubject>,
}

/// Builds the `compute_age` spec of Listing 2.
pub fn compute_age_spec() -> ProcessingSpec {
    ProcessingSpec::builder("compute_age", "user")
        .source(rgpdos::dsl::listings::LISTING_2_C)
        .purpose_declaration(rgpdos::dsl::listings::LISTING_2_PURPOSE)
        .expect("the purpose declaration of Listing 2 parses")
        .expected_view("v_ano")
        .output_type("age_pd")
        .function(Arc::new(|row| {
            let year = row
                .get("year_of_birthdate")
                .and_then(FieldValue::as_int)
                .ok_or("age not allowed to be seen")?;
            Ok(ProcessingOutput::Value(FieldValue::Int(2022 - year)))
        }))
        .build()
}

/// Boots rgpdOS, installs Listing 1, registers `compute_age` and collects
/// `subjects` generated subjects with the given full-consent rate.
///
/// # Panics
///
/// Panics if the simulated device is too small for the requested population
/// (the experiments pick device sizes accordingly).
pub fn rgpdos_scenario(subjects: usize, consent_rate: f64, params: DbfsParams) -> RgpdOsScenario {
    // Scale the simulated device and the inode table with the population so
    // that large sweeps (C5 runs up to 5 000 subjects) fit comfortably.
    let blocks = (subjects as u64 * 8).max(8_192);
    let mut params = params;
    params.inode_params.inode_count = params
        .inode_params
        .inode_count
        .max(subjects as u64 * 3 + 128);
    let os = RgpdOs::builder()
        .device_blocks(blocks)
        .block_size(2_048)
        .dbfs_params(params)
        .boot()
        .expect("boot rgpdOS");
    os.install_types(rgpdos::dsl::listings::LISTING_1)
        .expect("install Listing 1");
    let compute_age = os
        .register_processing(compute_age_spec())
        .expect("register compute_age");
    let population = PopulationGenerator::new(0x0F16)
        .with_consent_rate(consent_rate)
        .with_restricted_rate((1.0 - consent_rate) / 2.0)
        .generate(subjects);
    for subject in &population {
        let pd = os
            .collect("user", subject.subject, subject.row.clone())
            .expect("collect subject row");
        os.dbfs()
            .apply_membrane_delta(
                &"user".into(),
                pd,
                &MembraneDelta::Grant {
                    purpose: BENCH_PURPOSE.into(),
                    decision: subject.consent.clone(),
                },
            )
            .expect("apply consent decision");
    }
    RgpdOsScenario {
        os,
        compute_age,
        population,
    }
}

/// A populated baseline (Fig. 2) engine.
pub struct BaselineScenario {
    /// The engine.
    pub engine: UserspaceDbEngine<Arc<MemDevice>>,
    /// The raw device underneath (for residue scans).
    pub device: Arc<MemDevice>,
    /// The record ids inserted.
    pub records: Vec<u64>,
    /// The generated population.
    pub population: Vec<GeneratedSubject>,
}

/// Builds the baseline engine with the same population as
/// [`rgpdos_scenario`].
///
/// # Panics
///
/// Panics when the simulated device cannot hold the population.
pub fn baseline_scenario(subjects: usize, consent_rate: f64) -> BaselineScenario {
    let blocks = (subjects as u64 * 16).max(16_384);
    let device = Arc::new(MemDevice::new(blocks, 512));
    let engine = UserspaceDbEngine::new(Arc::clone(&device)).expect("baseline engine");
    engine.create_table("user").expect("create table");
    let population = PopulationGenerator::new(0x0F16)
        .with_consent_rate(consent_rate)
        .with_restricted_rate((1.0 - consent_rate) / 2.0)
        .generate(subjects);
    let mut records = Vec::with_capacity(subjects);
    for subject in &population {
        let id = engine
            .insert("user", subject.subject, &subject.row)
            .expect("insert row");
        engine.set_consent(
            subject.subject,
            &BENCH_PURPOSE.into(),
            subject.consent.allows_any(),
        );
        records.push(id);
    }
    BaselineScenario {
        engine,
        device,
        records,
        population,
    }
}

/// Outcome of replaying a GDPRBench-style mix (experiment C4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MixOutcome {
    /// Operations attempted.
    pub operations: usize,
    /// Operations that failed (should stay zero).
    pub failures: usize,
}

/// Replays an operation mix against a populated rgpdOS scenario.
///
/// # Panics
///
/// Panics on unexpected runtime failures (failures that are *expected* by the
/// mix, e.g. access to an erased subject, are counted instead).
pub fn run_mix_on_rgpdos(scenario: &RgpdOsScenario, mix: &WorkloadMix, ops: usize) -> MixOutcome {
    let stream = mix.generate(ops, 0xC4);
    let mut outcome = MixOutcome {
        operations: ops,
        failures: 0,
    };
    let subjects: Vec<SubjectId> = scenario.population.iter().map(|s| s.subject).collect();
    let mut next_subject_id = 1_000_000u64;
    for (i, op) in stream.iter().enumerate() {
        let subject = subjects[i % subjects.len()];
        let result: Result<(), String> = match op {
            OperationKind::Collect => {
                next_subject_id += 1;
                scenario
                    .os
                    .collect(
                        "user",
                        SubjectId::new(next_subject_id),
                        rgpdos::core::Row::new()
                            .with("name", format!("extra-{next_subject_id}"))
                            .with("pwd", "pw")
                            .with("year_of_birthdate", 1990i64),
                    )
                    .map(|_| ())
                    .map_err(|e| e.to_string())
            }
            OperationKind::Read => scenario
                .os
                .dbfs()
                .records_of_subject(subject)
                .map(|_| ())
                .map_err(|e| e.to_string()),
            OperationKind::Update | OperationKind::ConsentChange => scenario
                .os
                .rights()
                .grant_consent(subject, &"newsletter".into(), ConsentDecision::All)
                .map(|_| ())
                .map_err(|e| e.to_string()),
            OperationKind::Invoke => scenario
                .os
                .invoke(scenario.compute_age, InvokeRequest::whole_type())
                .map(|_| ())
                .map_err(|e| e.to_string()),
            OperationKind::AccessRequest => match scenario.os.right_of_access(subject) {
                Ok(_) => Ok(()),
                // Serving "no data" is a valid outcome once the subject has
                // been erased earlier in the stream.
                Err(_) => Ok(()),
            },
            OperationKind::Portability => match scenario.os.right_to_portability(subject) {
                Ok(_) => Ok(()),
                // As for access: an erased subject has nothing to export.
                Err(_) => Ok(()),
            },
            OperationKind::Erasure => scenario
                .os
                .right_to_be_forgotten(subject)
                .map(|_| ())
                .map_err(|e| e.to_string()),
            OperationKind::Audit => scenario
                .os
                .compliance_report()
                .map(|_| ())
                .map_err(|e| e.to_string()),
        };
        if result.is_err() {
            outcome.failures += 1;
        }
    }
    outcome
}

/// Replays the same mix against the baseline engine (operations that have no
/// baseline equivalent — audits — fall back to a full-table export).
///
/// # Panics
///
/// Panics on unexpected engine failures.
pub fn run_mix_on_baseline(
    scenario: &BaselineScenario,
    mix: &WorkloadMix,
    ops: usize,
) -> MixOutcome {
    let stream = mix.generate(ops, 0xC4);
    let mut outcome = MixOutcome {
        operations: ops,
        failures: 0,
    };
    let mut erased: Vec<u64> = Vec::new();
    for (i, op) in stream.iter().enumerate() {
        let idx = i % scenario.records.len();
        let subject = scenario.population[idx].subject;
        let record = scenario.records[idx];
        let ok = match op {
            OperationKind::Collect => scenario
                .engine
                .insert("user", subject, &scenario.population[idx].row)
                .is_ok(),
            OperationKind::Read => scenario.engine.export_subject(subject).is_ok(),
            OperationKind::Invoke => scenario.engine.query("user", &BENCH_PURPOSE.into()).is_ok(),
            OperationKind::Update | OperationKind::ConsentChange => {
                scenario
                    .engine
                    .set_consent(subject, &"newsletter".into(), true);
                true
            }
            OperationKind::AccessRequest | OperationKind::Portability | OperationKind::Audit => {
                scenario.engine.export_subject(subject).is_ok()
            }
            OperationKind::Erasure => {
                if erased.contains(&record) {
                    true
                } else {
                    erased.push(record);
                    scenario.engine.delete("user", record).is_ok()
                }
            }
        };
        if !ok {
            outcome.failures += 1;
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use rgpdos::blockdev::{InstrumentedDevice, LatencyModel};
    use rgpdos::dbfs::Dbfs;

    #[test]
    fn scenarios_build_and_run() {
        let scenario = rgpdos_scenario(20, 0.8, DbfsParams::small());
        assert_eq!(scenario.population.len(), 20);
        assert_eq!(scenario.os.dbfs().count(&"user".into()).unwrap(), 20);
        let result = scenario
            .os
            .invoke(scenario.compute_age, InvokeRequest::whole_type())
            .unwrap();
        assert_eq!(result.processed + result.denied, 20);

        let baseline = baseline_scenario(20, 0.8);
        assert_eq!(baseline.records.len(), 20);
        assert_eq!(baseline.engine.record_count(), 20);
    }

    type Device = Arc<InstrumentedDevice<MemDevice>>;

    fn instrumented_device(records: usize) -> Device {
        Arc::new(InstrumentedDevice::new(
            MemDevice::new((records as u64 * 24).max(16_384), 512),
            LatencyModel::nvme(),
        ))
    }

    fn params_for(records: usize) -> DbfsParams {
        let mut params = DbfsParams::secure();
        params.inode_params.inode_count = params
            .inode_params
            .inode_count
            .max(records as u64 * 2 + 256);
        params
    }

    /// A store whose `target` table holds 50 multi-block records, created
    /// first so its on-disk layout does not depend on what follows, plus
    /// `other_tables` unrelated tables of `per_table` records each.
    fn many_tables(other_tables: usize, per_table: usize) -> (Dbfs<Device>, Device) {
        let total = 50 + other_tables * per_table;
        let device = instrumented_device(total);
        let dbfs = Dbfs::format(Arc::clone(&device), params_for(total)).unwrap();
        let payload = "x".repeat(1_024);
        let fill = |table: &str, records: usize| {
            let schema = DataTypeSchema::builder(table)
                .field("seq", FieldType::Int)
                .field("payload", FieldType::Text)
                .build()
                .unwrap();
            dbfs.create_type(schema).unwrap();
            let rows = (0..records)
                .map(|seq| {
                    let row = Row::new()
                        .with("seq", seq as i64)
                        .with("payload", payload.as_str());
                    (SubjectId::new(seq as u64 % 64), row)
                })
                .collect();
            dbfs.collect_many(&table.into(), rows).unwrap();
        };
        fill("target", 50);
        for table in 0..other_tables {
            fill(&format!("other_{table}"), per_table);
        }
        (dbfs, device)
    }

    #[test]
    fn target_table_scan_cost_is_independent_of_other_tables() {
        // The acceptance check of the indexed read path: scanning the
        // membranes of one table costs the same number of block reads
        // whether the store holds 0 or 400 unrelated records.
        let target = DataTypeId::from("target");
        let membrane_scan_reads = |(dbfs, device): &(Dbfs<Device>, Device)| {
            // Cold-cache measurement: the claim is about *device* reads,
            // which the inode-layer buffer cache would otherwise absorb.
            dbfs.drop_caches();
            device.reset_stats();
            let membranes = dbfs.load_membranes(&target).unwrap();
            assert_eq!(membranes.len(), 50);
            device.stats().reads
        };
        let big = many_tables(4, 100);
        let isolated = membrane_scan_reads(&many_tables(0, 0));
        let crowded = membrane_scan_reads(&big);
        assert_eq!(
            isolated, crowded,
            "per-table membrane scans must not depend on other tables' records"
        );
        // And the membrane-only scan reads a fraction of the blocks a
        // full-record scan does.
        let (dbfs, device) = big;
        dbfs.drop_caches();
        device.reset_stats();
        let batch = dbfs.query(&QueryRequest::all(target)).unwrap();
        assert_eq!(batch.len(), 50);
        let full = device.stats().reads;
        assert!(
            crowded * 2 <= full,
            "membrane scan ({crowded} reads) should cost well under a full scan ({full} reads)"
        );
    }

    /// Four shards; the smallest subject homed on shard 0 collects 50
    /// records first, then `other_records` rows go to 64 subjects homed on
    /// the other shards.
    fn many_shards(other_records: usize) -> (ShardedDbfs<Device>, Vec<Device>, SubjectId) {
        let total = 50 + other_records;
        let devices: Vec<Device> = (0..4).map(|_| instrumented_device(total)).collect();
        let dbfs = ShardedDbfs::format(devices.clone(), params_for(total)).unwrap();
        dbfs.create_type(rgpdos::core::schema::listing1_user_schema())
            .unwrap();
        let user_row = |name: String| {
            Row::new()
                .with("name", name)
                .with("pwd", "pw")
                .with("year_of_birthdate", 1990i64)
        };
        let mut subjects = (0..u64::MAX).map(SubjectId::new);
        let target = subjects
            .find(|&subject| dbfs.home_shard(subject) == 0)
            .unwrap();
        let elsewhere: Vec<SubjectId> = subjects
            .filter(|&subject| dbfs.home_shard(subject) != 0)
            .take(64)
            .collect();
        let rows = (0..50).map(|i| (target, user_row(format!("target-{i}"))));
        dbfs.collect_many(&"user".into(), rows.collect()).unwrap();
        let rows = (0..other_records).map(|i| (elsewhere[i % 64], user_row(format!("other-{i}"))));
        dbfs.collect_many(&"user".into(), rows.collect()).unwrap();
        (dbfs, devices, target)
    }

    #[test]
    fn target_subject_cost_is_independent_of_other_shards() {
        // The acceptance check of the sharded read path: a subject-routed
        // operation costs the same block reads on the home shard whether the
        // other shards hold 0 or 1000 records — and zero reads elsewhere.
        let subject_reads = |(dbfs, devices, target): &(ShardedDbfs<Device>, Vec<Device>, _)| {
            // Cold-cache: isolation is a device-read property.
            dbfs.drop_caches();
            for device in devices {
                device.reset_stats();
            }
            let records = dbfs.records_of_subject(*target).unwrap();
            assert_eq!(records.len(), 50);
            let elsewhere: u64 = devices[1..].iter().map(|d| d.stats().reads).sum();
            (devices[0].stats().reads, elsewhere)
        };
        let big = many_shards(1_000);
        let (isolated, quiet_a) = subject_reads(&many_shards(0));
        let (crowded, quiet_b) = subject_reads(&big);
        assert_eq!(
            isolated, crowded,
            "subject-routed reads must not depend on other shards' records"
        );
        assert_eq!(quiet_a + quiet_b, 0, "non-home shards are never touched");
        // Every off-target record landed live, none on the target's shard.
        let (dbfs, ..) = big;
        assert_eq!(dbfs.count(&"user".into()).unwrap(), 50 + 1_000);
        assert_eq!(dbfs.sharded_stats().records_per_shard()[0], 50);
    }

    #[test]
    fn mixes_replay_without_unexpected_failures() {
        let scenario = rgpdos_scenario(10, 0.9, DbfsParams::small());
        let outcome = run_mix_on_rgpdos(&scenario, &WorkloadMix::controller(), 50);
        assert_eq!(outcome.operations, 50);
        assert_eq!(outcome.failures, 0);

        let baseline = baseline_scenario(10, 0.9);
        let outcome = run_mix_on_baseline(&baseline, &WorkloadMix::controller(), 50);
        assert_eq!(outcome.failures, 0);
    }
}
