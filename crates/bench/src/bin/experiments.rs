//! Paper-reproduction driver: regenerates every figure/listing/claim
//! experiment of `DESIGN.md` and prints the series the way the paper reports
//! them.  Anything about speed is measured by `rgpdbench/` instead (see its
//! README); nothing here is a performance gate.
//!
//! Run everything with `cargo run -p rgpdos-bench --bin experiments --release`,
//! or selected series with e.g. `-- --fig1 --c4`.  Unknown flags are refused
//! with exit code 2.

use rgpdos::blockdev::{scan_for_pattern, LatencyModel};
use rgpdos::kernel::{ObjectClass, Operation, SecurityContext, Syscall};
use rgpdos::prelude::*;
use rgpdos::workloads::penalties::{dataset, top_sectors, totals_by_year};
use rgpdos::workloads::WorkloadMix;
use rgpdos_bench::{
    baseline_scenario, compute_age_spec, rgpdos_scenario, run_mix_on_baseline, run_mix_on_rgpdos,
    BENCH_PURPOSE,
};
use std::sync::Arc;
use std::time::Instant;

/// Every series this driver can print, in the order `--all` runs them.
const SERIES: [(&str, fn()); 11] = [
    ("--fig1", fig1),
    ("--fig2", fig2),
    ("--fig3", fig3),
    ("--fig4", fig4),
    ("--listings", listings),
    ("--c1", c1),
    ("--c2", c2),
    ("--c3", c3),
    ("--c4", c4),
    ("--c5", c5),
    ("--ablations", ablations),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let known = |arg: &str| arg == "--all" || SERIES.iter().any(|(flag, _)| *flag == arg);
    if let Some(unknown) = args.iter().find(|arg| !known(arg)) {
        let flags: Vec<&str> = SERIES.iter().map(|(flag, _)| *flag).collect();
        eprintln!("experiments: unknown flag `{unknown}`");
        eprintln!("valid flags: --all {}", flags.join(" "));
        std::process::exit(2);
    }
    let run_all = args.is_empty() || args.iter().any(|arg| arg == "--all");

    println!("rgpdOS reproduction — experiment driver");
    println!("=======================================\n");
    for (flag, series) in SERIES {
        if run_all || args.iter().any(|arg| arg == flag) {
            series();
        }
    }
}

fn fig1() {
    println!("--- F1: Figure 1 — GDPR penalties ---");
    let records = dataset();
    println!("year, total_fines_meur");
    for (year, total) in totals_by_year(&records) {
        println!("{year}, {total:.1}");
    }
    println!("sector, total_fines_meur (top 5)");
    for (sector, total) in top_sectors(&records, 5) {
        println!("{sector}, {total:.1}");
    }
    println!();
}

fn fig2() {
    println!("--- F2: Figure 2 — state-of-the-art failure modes ---");
    let scenario = baseline_scenario(200, 0.5);
    // Failure mode 1: cross-purpose access despite refused consent.
    let refused: Vec<usize> = scenario
        .population
        .iter()
        .enumerate()
        .filter(|(_, s)| !s.consent.allows_any())
        .map(|(i, _)| i)
        .collect();
    let mut bypasses = 0usize;
    for &i in &refused {
        if scenario
            .engine
            .direct_access_bypassing_consent("user", scenario.records[i])
            .is_ok()
        {
            bypasses += 1;
        }
    }
    println!(
        "cross-purpose access: {} refused subjects, {} readable by bypassing the app-level check ({}%)",
        refused.len(),
        bypasses,
        if refused.is_empty() { 0 } else { 100 * bypasses / refused.len() }
    );
    // Failure mode 2: residue after delete (a dedicated record with a unique
    // canary value, so the scan cannot match another subject's data).
    let canary = "F2-RESIDUE-CANARY-8f3a";
    let victim = scenario
        .engine
        .insert(
            "user",
            SubjectId::new(999_999),
            &Row::new()
                .with("name", canary)
                .with("pwd", "pw")
                .with("year_of_birthdate", 1990i64),
        )
        .unwrap();
    scenario.engine.delete("user", victim).unwrap();
    let hits = scan_for_pattern(scenario.device.as_ref(), canary.as_bytes()).unwrap();
    println!(
        "right to be forgotten: deleted record still present at {} raw-device location(s)\n",
        hits.len()
    );
}

fn fig3() {
    println!("--- F3: Figure 3 — rgpdOS blocks both failure modes ---");
    let scenario = rgpdos_scenario(200, 0.5, DbfsParams::secure());
    let result = scenario
        .os
        .invoke(scenario.compute_age, InvokeRequest::whole_type())
        .unwrap();
    println!(
        "cross-purpose access: {} records processed, {} denied by their membrane, 0 reachable otherwise",
        result.processed, result.denied
    );
    let canary = "F3-RESIDUE-CANARY-5c1d";
    let victim = SubjectId::new(999_999);
    scenario
        .os
        .collect(
            "user",
            victim,
            Row::new()
                .with("name", canary)
                .with("pwd", "pw")
                .with("year_of_birthdate", 1990i64),
        )
        .unwrap();
    scenario.os.right_to_be_forgotten(victim).unwrap();
    let hits = scan_for_pattern(scenario.os.device().inner(), canary.as_bytes()).unwrap();
    println!(
        "right to be forgotten: erased subject's plaintext present at {} raw-device location(s)\n",
        hits.len()
    );
}

fn fig4() {
    println!("--- F4: Figure 4 — ps_invoke / DED pipeline sweep ---");
    println!("subjects, consent_rate_pct, processed, denied, wall_ms, simulated_io_us");
    for &subjects in &[100usize, 500, 1_000] {
        for &consent in &[0.0f64, 0.25, 0.5, 0.75, 1.0] {
            let scenario = rgpdos_scenario(subjects, consent, DbfsParams::secure());
            // Cold-cache: the reported metric is simulated *device* I/O,
            // which the buffer cache would otherwise absorb.
            scenario.os.dbfs().drop_caches();
            scenario.os.device().reset_stats();
            let start = Instant::now();
            let result = scenario
                .os
                .invoke(scenario.compute_age, InvokeRequest::whole_type())
                .unwrap();
            let wall = start.elapsed().as_secs_f64() * 1_000.0;
            let io = scenario.os.device_stats().simulated_us;
            println!(
                "{subjects}, {:.0}, {}, {}, {:.2}, {}",
                consent * 100.0,
                result.processed,
                result.denied,
                wall,
                io
            );
        }
    }
    println!();
}

fn listings() {
    println!("--- L1–L3: the paper's listings, executed ---");
    let os = RgpdOs::builder()
        .device_blocks(16_384)
        .block_size(512)
        .boot()
        .unwrap();
    let types = os.install_types(rgpdos::dsl::listings::LISTING_1).unwrap();
    println!(
        "L1: installed {types:?} with {} views",
        os.dbfs().schema(&"user".into()).unwrap().views().count()
    );
    let id = os.register_processing(compute_age_spec()).unwrap();
    println!("L2: compute_age registered as {id} (annotation matches declaration: approved)");
    os.collect(
        "user",
        SubjectId::new(1),
        Row::new()
            .with("name", "Chiraz")
            .with("pwd", "pw")
            .with("year_of_birthdate", 1990i64),
    )
    .unwrap();
    let result = os.invoke(id, InvokeRequest::whole_type()).unwrap();
    println!(
        "L3: ps_invoke returned ages {:?} (references only, no raw PD)\n",
        result
            .values
            .iter()
            .filter_map(FieldValue::as_int)
            .collect::<Vec<_>>()
    );
}

fn c1() {
    println!("--- C1: enforcement completeness matrix ---");
    let scenario = rgpdos_scenario(10, 1.0, DbfsParams::secure());
    let os = &scenario.os;
    let machine = os.machine();
    let app = machine
        .spawn_task(machine.general_kernel(), SecurityContext::Application)
        .unwrap();
    let external = machine
        .spawn_task(machine.general_kernel(), SecurityContext::ExternalProcess)
        .unwrap();
    let fpd = machine
        .spawn_task(machine.rgpd_kernel(), SecurityContext::DedProcessing)
        .unwrap();
    let checks = [
        (
            "application reads DBFS directly",
            machine
                .mediated_access(app, ObjectClass::DbfsStorage, Operation::Read)
                .is_err(),
        ),
        (
            "external process reads raw device",
            machine
                .mediated_access(external, ObjectClass::RawDevice, Operation::Read)
                .is_err(),
        ),
        (
            "external process reads processing registry",
            machine
                .mediated_access(external, ObjectClass::ProcessingRegistry, Operation::Read)
                .is_err(),
        ),
        (
            "F_pd issues network send",
            machine
                .syscall(fpd, Syscall::NetworkSend { bytes: 64 })
                .is_err(),
        ),
        (
            "F_pd writes a file",
            machine
                .syscall(
                    fpd,
                    Syscall::FileWrite {
                        path: "/tmp/leak".into(),
                        bytes: 64,
                    },
                )
                .is_err(),
        ),
        (
            "unregistered processing invoked",
            os.invoke_by_name("ghost", InvokeRequest::whole_type())
                .is_err(),
        ),
        (
            "processing without purpose registered",
            os.register_processing_outcome(
                ProcessingSpec::builder("anon", "user")
                    .source("fn anon() {}")
                    .function(Arc::new(|_r| Ok(ProcessingOutput::Nothing)))
                    .build(),
            )
            .is_err(),
        ),
    ];
    for (name, blocked) in checks {
        println!(
            "{}: {}",
            name,
            if blocked {
                "BLOCKED"
            } else {
                "ALLOWED (violation!)"
            }
        );
    }
    println!();
}

fn c2() {
    println!("--- C2: right to be forgotten, end to end ---");
    println!("system, erase_wall_ms, residue_hits, authority_can_recover");
    // Baseline.
    let baseline = baseline_scenario(100, 1.0);
    let canary = "C2-ERASE-CANARY-21aa";
    let victim_record = baseline
        .engine
        .insert(
            "user",
            SubjectId::new(888_888),
            &Row::new()
                .with("name", canary)
                .with("pwd", "pw")
                .with("year_of_birthdate", 1990i64),
        )
        .unwrap();
    let start = Instant::now();
    baseline.engine.delete("user", victim_record).unwrap();
    let wall = start.elapsed().as_secs_f64() * 1_000.0;
    let hits = scan_for_pattern(baseline.device.as_ref(), canary.as_bytes()).unwrap();
    println!("baseline, {wall:.2}, {}, n/a", hits.len());
    // rgpdOS.
    let scenario = rgpdos_scenario(100, 1.0, DbfsParams::secure());
    let victim = SubjectId::new(888_888);
    scenario
        .os
        .collect(
            "user",
            victim,
            Row::new()
                .with("name", canary)
                .with("pwd", "pw")
                .with("year_of_birthdate", 1990i64),
        )
        .unwrap();
    let start = Instant::now();
    scenario.os.right_to_be_forgotten(victim).unwrap();
    let wall = start.elapsed().as_secs_f64() * 1_000.0;
    let hits = scan_for_pattern(scenario.os.device().inner(), canary.as_bytes()).unwrap();
    // The authority can still recover the escrowed record.
    let tombstones = scenario
        .os
        .dbfs()
        .query(&QueryRequest::all("user").including_erased())
        .unwrap();
    let recoverable = tombstones
        .iter()
        .filter(|r| r.membrane().is_erased())
        .any(|r| {
            r.row()
                .get("__erased_ciphertext")
                .and_then(FieldValue::as_bytes)
                .and_then(|bytes| rgpdos::crypto::EscrowedCiphertext::decode(bytes).ok())
                .and_then(|ct| scenario.os.authority().recover(&ct).ok())
                .is_some()
        });
    println!("rgpdos, {wall:.2}, {}, {recoverable}\n", hits.len());
}

fn c3() {
    println!("--- C3: right of access — structured machine-readable export ---");
    let scenario = rgpdos_scenario(200, 0.8, DbfsParams::secure());
    scenario
        .os
        .invoke(scenario.compute_age, InvokeRequest::whole_type())
        .unwrap();
    let subject = scenario.population[10].subject;
    let start = Instant::now();
    let package = scenario.os.right_of_access(subject).unwrap();
    let wall = start.elapsed().as_secs_f64() * 1_000.0;
    let json = package.to_json().unwrap();
    let parsed = SubjectAccessPackage::from_json(&json).unwrap();
    println!(
        "items: {}, processing history entries: {}, export bytes: {}, re-parses identically: {}, wall_ms: {:.2}",
        package.items.len(),
        package.processings.len(),
        json.len(),
        parsed == package,
        wall
    );
    println!(
        "every key is a schema field name: {}\n",
        package
            .items
            .iter()
            .all(|i| i.fields.contains("name") && i.fields.contains("year_of_birthdate"))
    );
}

fn c4() {
    println!("--- C4: overhead versus the baseline (GDPRBench-style mixes) ---");
    println!("mix, system, operations, failures, wall_ms");
    for (name, mix) in [
        ("controller", WorkloadMix::controller()),
        ("customer", WorkloadMix::customer()),
        ("regulator", WorkloadMix::regulator()),
    ] {
        let ops = 200;
        let baseline = baseline_scenario(100, 0.75);
        let start = Instant::now();
        let outcome = run_mix_on_baseline(&baseline, &mix, ops);
        println!(
            "{name}, baseline, {}, {}, {:.2}",
            outcome.operations,
            outcome.failures,
            start.elapsed().as_secs_f64() * 1_000.0
        );
        let scenario = rgpdos_scenario(100, 0.75, DbfsParams::secure());
        let start = Instant::now();
        let outcome = run_mix_on_rgpdos(&scenario, &mix, ops);
        println!(
            "{name}, rgpdos, {}, {}, {:.2}",
            outcome.operations,
            outcome.failures,
            start.elapsed().as_secs_f64() * 1_000.0
        );
    }
    println!();
}

fn c5() {
    println!("--- C5: membrane filtering scalability ---");
    println!("records, load_membranes_ms, filter_ms, permitted, denied");
    for &n in &[100usize, 1_000, 5_000] {
        let scenario = rgpdos_scenario(n, 0.6, DbfsParams::secure());
        let start = Instant::now();
        let membranes = scenario.os.dbfs().load_membranes(&"user".into()).unwrap();
        let load_ms = start.elapsed().as_secs_f64() * 1_000.0;
        let start = Instant::now();
        let purpose = rgpdos::core::PurposeId::from(BENCH_PURPOSE);
        let now = scenario.os.clock().now();
        let (mut permitted, mut denied) = (0usize, 0usize);
        for (_, membrane) in &membranes {
            if membrane.permits_at(&purpose, now).allows_any() {
                permitted += 1;
            } else {
                denied += 1;
            }
        }
        let filter_ms = start.elapsed().as_secs_f64() * 1_000.0;
        println!("{n}, {load_ms:.2}, {filter_ms:.3}, {permitted}, {denied}");
    }
    println!();
}

fn ablations() {
    println!(
        "--- A1: journal scrubbing + zero-on-free (secure) vs conventional (insecure) DBFS ---"
    );
    println!("mode, collect_100_ms, erase_10_ms, residue_hits_after_erase");
    for (name, params) in [
        ("secure", DbfsParams::secure()),
        ("insecure", DbfsParams::insecure()),
    ] {
        let os = RgpdOs::builder()
            .device_blocks(32_768)
            .block_size(512)
            .dbfs_params(params)
            .boot()
            .unwrap();
        os.install_types(rgpdos::dsl::listings::LISTING_1).unwrap();
        let start = Instant::now();
        for i in 0..100u64 {
            os.collect(
                "user",
                SubjectId::new(i),
                Row::new()
                    .with("name", format!("ABLATION-CANARY-{i:03}-END"))
                    .with("pwd", "pw")
                    .with("year_of_birthdate", 1990i64),
            )
            .unwrap();
        }
        let collect_ms = start.elapsed().as_secs_f64() * 1_000.0;
        let start = Instant::now();
        for i in 0..10u64 {
            os.right_to_be_forgotten(SubjectId::new(i)).unwrap();
        }
        let erase_ms = start.elapsed().as_secs_f64() * 1_000.0;
        let mut residue = 0usize;
        for i in 0..10u64 {
            residue += scan_for_pattern(
                os.device().inner(),
                format!("ABLATION-CANARY-{i:03}-END").as_bytes(),
            )
            .unwrap()
            .len();
        }
        println!("{name}, {collect_ms:.2}, {erase_ms:.2}, {residue}");
    }
    println!();

    println!("--- A2: device latency model sweep (simulated I/O cost of one invocation) ---");
    println!("latency_model, simulated_io_us, wall_ms");
    for (name, model) in [
        ("nvme", LatencyModel::nvme()),
        ("ssd", LatencyModel::ssd()),
        ("hdd", LatencyModel::hdd()),
    ] {
        let os = RgpdOs::builder()
            .device_blocks(32_768)
            .block_size(512)
            .latency(model)
            .boot()
            .unwrap();
        os.install_types(rgpdos::dsl::listings::LISTING_1).unwrap();
        let id = os.register_processing(compute_age_spec()).unwrap();
        for i in 0..200u64 {
            os.collect(
                "user",
                SubjectId::new(i),
                Row::new()
                    .with("name", format!("s{i}"))
                    .with("pwd", "pw")
                    .with("year_of_birthdate", (1950 + (i % 50)) as i64),
            )
            .unwrap();
        }
        // Cold-cache: the latency-model comparison is about device cost.
        os.dbfs().drop_caches();
        os.device().reset_stats();
        let start = Instant::now();
        os.invoke(id, InvokeRequest::whole_type()).unwrap();
        println!(
            "{name}, {}, {:.2}",
            os.device_stats().simulated_us,
            start.elapsed().as_secs_f64() * 1_000.0
        );
    }
    println!();

    println!("--- A3: consent filtering before vs after data load ---");
    println!("strategy, records_read_from_dbfs, wall_ms");
    let scenario = rgpdos_scenario(2_000, 0.3, DbfsParams::secure());
    let dbfs = scenario.os.dbfs();
    let purpose = rgpdos::core::PurposeId::from(BENCH_PURPOSE);
    let now = scenario.os.clock().now();
    // Filter-before (the DED's ded_filter step): membranes first, data only
    // for permitted records.
    let start = Instant::now();
    let membranes = dbfs.load_membranes(&"user".into()).unwrap();
    let allowed: Vec<_> = membranes
        .iter()
        .filter(|(_, m)| m.permits_at(&purpose, now).allows_any())
        .map(|(id, _)| *id)
        .collect();
    let batch = dbfs.load_records(&"user".into(), &allowed).unwrap();
    println!(
        "filter-before-load (rgpdOS), {}, {:.2}",
        batch.len(),
        start.elapsed().as_secs_f64() * 1_000.0
    );
    // Filter-after: load everything, then filter (what a process-centric
    // design effectively does).
    let start = Instant::now();
    let all = dbfs.query(&QueryRequest::all("user")).unwrap();
    let kept = all
        .iter()
        .filter(|r| r.membrane().permits_at(&purpose, now).allows_any())
        .count();
    println!(
        "filter-after-load (process-centric), {}, {:.2}  (kept {kept})",
        all.len(),
        start.elapsed().as_secs_f64() * 1_000.0
    );
    println!();
}
