//! Cross-crate integration tests: the full rgpdOS stack against the baseline
//! architecture, and the enforcement-completeness matrix (experiment C1).

use rgpdos::baseline::UserspaceDbEngine;
use rgpdos::blockdev::{scan_for_pattern, MemDevice};
use rgpdos::kernel::{ObjectClass, Operation, SecurityContext, Syscall};
use rgpdos::prelude::*;
use rgpdos::workloads::PopulationGenerator;
use std::sync::Arc;

fn boot() -> RgpdOs {
    RgpdOs::builder()
        .device_blocks(32_768)
        .block_size(512)
        .boot()
        .expect("boot")
}

fn compute_age_spec() -> ProcessingSpec {
    ProcessingSpec::builder("compute_age", "user")
        .source(rgpdos::dsl::listings::LISTING_2_C)
        .purpose_declaration(rgpdos::dsl::listings::LISTING_2_PURPOSE)
        .expect("purpose declaration parses")
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

fn user_row(name: &str, year: i64) -> Row {
    Row::new()
        .with("name", name)
        .with("pwd", "pw")
        .with("year_of_birthdate", year)
}

#[test]
fn listings_1_2_3_full_pipeline() {
    let os = boot();
    os.install_types(rgpdos::dsl::listings::LISTING_1).unwrap();
    let id = os.register_processing(compute_age_spec()).unwrap();
    for (i, year) in [1950i64, 1975, 1990, 2003].iter().enumerate() {
        os.collect("user", SubjectId::new(i as u64), user_row("subject", *year))
            .unwrap();
    }
    let result = os.invoke(id, InvokeRequest::whole_type()).unwrap();
    assert_eq!(result.processed, 4);
    assert_eq!(result.denied, 0);
    assert_eq!(result.errors, 0);
    let mut ages: Vec<i64> = result
        .values
        .iter()
        .filter_map(FieldValue::as_int)
        .collect();
    ages.sort_unstable();
    assert_eq!(ages, vec![19, 32, 47, 72]);
    assert!(os.compliance_report().unwrap().is_compliant());
}

#[test]
fn figure_2_versus_figure_3_erasure_residue() {
    // Baseline (Fig. 2): delete leaves plaintext on the raw device.
    let device = Arc::new(MemDevice::new(8_192, 512));
    let baseline = UserspaceDbEngine::new(Arc::clone(&device)).unwrap();
    baseline.create_table("users").unwrap();
    let id = baseline
        .insert(
            "users",
            SubjectId::new(1),
            &user_row("RESIDUE-SENTINEL", 1990),
        )
        .unwrap();
    baseline.delete("users", id).unwrap();
    assert!(!scan_for_pattern(device.as_ref(), b"RESIDUE-SENTINEL")
        .unwrap()
        .is_empty());

    // rgpdOS (Fig. 3): erasure leaves nothing readable on the device.
    let os = boot();
    os.install_types(rgpdos::dsl::listings::LISTING_1).unwrap();
    os.collect(
        "user",
        SubjectId::new(1),
        user_row("RESIDUE-SENTINEL", 1990),
    )
    .unwrap();
    os.right_to_be_forgotten(SubjectId::new(1)).unwrap();
    assert!(scan_for_pattern(os.device().inner(), b"RESIDUE-SENTINEL")
        .unwrap()
        .is_empty());
}

/// Erasure plus reclaim leaves not even the subject's identifier behind:
/// once both of a subject's records are crypto-erased and scrubbed, no
/// block of the device names the subject, before or after a remount.
#[test]
fn an_erased_and_scrubbed_subject_leaves_no_identifier_on_the_device() {
    use rgpdos::crypto::escrow::{Authority, OperatorEscrow};
    use rgpdos::dbfs::Dbfs;
    let device = Arc::new(MemDevice::new(8_192, 512));
    let subject = SubjectId::new(424_242);
    let needle = subject.to_string();
    let dbfs = Dbfs::format(Arc::clone(&device), DbfsParams::secure()).unwrap();
    dbfs.create_type(rgpdos::core::schema::listing1_user_schema())
        .unwrap();
    let rows = vec![
        (subject, user_row("one", 1990)),
        (subject, user_row("two", 1991)),
    ];
    dbfs.collect_many(&"user".into(), rows).unwrap();
    let escrow = OperatorEscrow::new(Authority::generate(42).public_key());
    assert_eq!(dbfs.erase_subject(subject, &escrow).unwrap().len(), 2);
    assert_eq!(dbfs.scrub_tombstones().unwrap().reclaimed.len(), 2);
    let hits = |device: &MemDevice| scan_for_pattern(device, needle.as_bytes()).unwrap().len();
    assert_eq!(hits(&device), 0, "{needle} left on the device");
    assert!(dbfs.records_of_subject(subject).unwrap().is_empty());
    drop(dbfs);
    let dbfs = Dbfs::mount(Arc::clone(&device)).unwrap();
    assert!(dbfs.records_of_subject(subject).unwrap().is_empty());
    dbfs.verify_index_invariants().unwrap();
    assert_eq!(
        hits(&device),
        0,
        "{needle} left on the device after a remount"
    );
}

#[test]
fn figure_2_versus_figure_3_cross_purpose_access() {
    // Baseline: the unconsented purpose can still reach the data by going
    // around the application-level check.
    let device = Arc::new(MemDevice::new(8_192, 512));
    let baseline = UserspaceDbEngine::new(device).unwrap();
    baseline.create_table("users").unwrap();
    let id = baseline
        .insert("users", SubjectId::new(1), &user_row("private", 1990))
        .unwrap();
    baseline.set_consent(SubjectId::new(1), &"purpose2".into(), false);
    assert!(baseline
        .query("users", &"purpose2".into())
        .unwrap()
        .is_empty());
    assert!(baseline
        .direct_access_bypassing_consent("users", id)
        .is_ok());

    // rgpdOS: the same attempt is denied by the membrane at the DED filter
    // step, and the data never reaches the function.
    let os = boot();
    os.install_types(rgpdos::dsl::listings::LISTING_1).unwrap();
    os.collect("user", SubjectId::new(1), user_row("private", 1990))
        .unwrap();
    let spy = os
        .register_processing(
            ProcessingSpec::builder("spy", "user")
                .source("/* purpose2 */ fn spy() {}")
                .purpose_name("purpose2")
                .function(Arc::new(|row| {
                    Ok(ProcessingOutput::Value(
                        row.get("name").cloned().unwrap_or(FieldValue::Bool(false)),
                    ))
                }))
                .build(),
        )
        .unwrap();
    let result = os.invoke(spy, InvokeRequest::whole_type()).unwrap();
    assert_eq!(result.processed, 0);
    assert_eq!(result.denied, 1);
    assert!(result.values.is_empty());
}

#[test]
fn enforcement_completeness_matrix_c1() {
    let os = boot();
    os.install_types(rgpdos::dsl::listings::LISTING_1).unwrap();
    os.collect("user", SubjectId::new(1), user_row("canary", 1990))
        .unwrap();
    let machine = os.machine();

    // 1. Direct DBFS access from an application task is blocked by the LSM.
    let app = machine
        .spawn_task(machine.general_kernel(), SecurityContext::Application)
        .unwrap();
    assert!(machine
        .mediated_access(app, ObjectClass::DbfsStorage, Operation::Read)
        .is_err());

    // 2. An external process cannot touch the raw device or the registry.
    let external = machine
        .spawn_task(machine.general_kernel(), SecurityContext::ExternalProcess)
        .unwrap();
    assert!(machine
        .mediated_access(external, ObjectClass::RawDevice, Operation::Read)
        .is_err());
    assert!(machine
        .mediated_access(external, ObjectClass::ProcessingRegistry, Operation::Read)
        .is_err());

    // 3. Unregistered / unapproved processings cannot be invoked.
    assert!(os
        .invoke_by_name("never_registered", InvokeRequest::whole_type())
        .is_err());
    let pending = os
        .register_processing_outcome(
            ProcessingSpec::builder("mismatched", "user")
                .source("/* purpose1 */")
                .purpose_declaration(rgpdos::dsl::listings::LISTING_2_PURPOSE)
                .unwrap()
                .function(Arc::new(|_row| Ok(ProcessingOutput::Nothing)))
                .build(),
        )
        .unwrap();
    assert_eq!(pending.status, RegistrationStatus::PendingApproval);
    assert!(os.invoke(pending.id, InvokeRequest::whole_type()).is_err());

    // 4. A processing with no purpose at all is rejected outright.
    assert!(os
        .register_processing_outcome(
            ProcessingSpec::builder("anonymous", "user")
                .source("fn anonymous() {}")
                .function(Arc::new(|_row| Ok(ProcessingOutput::Nothing)))
                .build(),
        )
        .is_err());

    // 5. F_pd tasks cannot issue exfiltration syscalls.
    let fpd = machine
        .spawn_task(machine.rgpd_kernel(), SecurityContext::DedProcessing)
        .unwrap();
    for syscall in [
        Syscall::FileWrite {
            path: "/tmp/leak".into(),
            bytes: 64,
        },
        Syscall::NetworkSend { bytes: 64 },
        Syscall::Spawn,
        Syscall::ShareMemory { bytes: 4096 },
    ] {
        assert!(machine.syscall(fpd, syscall).is_err());
    }

    // 6. Every blocked attempt left an audit trace (kernel-level denials go
    //    to the machine's log, registration alerts to the rgpdOS log).
    let is_violation = |e: &rgpdos::core::AuditEvent| {
        matches!(
            e.kind,
            rgpdos::core::AuditEventKind::ViolationBlocked { .. }
        )
    };
    let blocked =
        machine.audit().count_matching(is_violation) + os.audit().count_matching(is_violation);
    assert!(
        blocked >= 8,
        "only {blocked} blocked violations were audited"
    );
}

#[test]
fn consent_rate_controls_processing_coverage() {
    let os = boot();
    os.install_types(rgpdos::dsl::listings::LISTING_1).unwrap();
    let id = os.register_processing(compute_age_spec()).unwrap();
    let population = PopulationGenerator::new(7)
        .with_consent_rate(0.5)
        .generate(60);
    for subject in &population {
        let pd = os
            .collect("user", subject.subject, subject.row.clone())
            .unwrap();
        // Apply each subject's consent decision for purpose3.
        os.dbfs()
            .apply_membrane_delta(
                &"user".into(),
                pd,
                &MembraneDelta::Grant {
                    purpose: "purpose3".into(),
                    decision: subject.consent.clone(),
                },
            )
            .unwrap();
    }
    let result = os.invoke(id, InvokeRequest::whole_type()).unwrap();
    assert_eq!(result.processed + result.denied, 60);
    let refused = population
        .iter()
        .filter(|s| s.consent == ConsentDecision::None)
        .count();
    assert_eq!(result.denied, refused);
    // Subjects with restricted consent still get processed (view v_ano).
    assert!(result.errors == 0);
}

#[test]
fn right_of_access_covers_processing_history_across_crates() {
    let os = boot();
    os.install_types(rgpdos::dsl::listings::LISTING_1).unwrap();
    let id = os.register_processing(compute_age_spec()).unwrap();
    let pd = os
        .collect("user", SubjectId::new(42), user_row("history", 1984))
        .unwrap();
    os.invoke(id, InvokeRequest::whole_type()).unwrap();
    os.invoke(id, InvokeRequest::single(PdRef::new("user".into(), pd)))
        .unwrap();
    let package = os.right_of_access(SubjectId::new(42)).unwrap();
    assert_eq!(package.items.len(), 1);
    assert_eq!(package.processings.len(), 2);
    let json = package.to_json().unwrap();
    let parsed = SubjectAccessPackage::from_json(&json).unwrap();
    assert_eq!(parsed, package);
}

#[test]
fn retention_and_compliance_interplay() {
    let os = boot();
    os.install_types(rgpdos::dsl::listings::LISTING_1).unwrap();
    os.collect("user", SubjectId::new(1), user_row("old", 1960))
        .unwrap();
    os.clock().advance(Duration::from_days(366));
    // Before the sweep the compliance report flags storage limitation.
    let report = os.compliance_report().unwrap();
    assert!(!report.is_compliant());
    let expired = os.rights().enforce_retention().unwrap();
    assert_eq!(expired.len(), 1);
    let report = os.compliance_report().unwrap();
    assert!(report.is_compliant());
}
