//! Short timings of public functions of the layers no wrapper can isolate.
//! Each probe runs a fixed number of calls on inputs of its own and reports
//! the mean; together they take about a second of a traced run.

use crate::rng::Rng;
use rgpdos::blockdev::MemDevice;
use rgpdos::core::record::stored;
use rgpdos::core::schema::listing1_user_schema;
use rgpdos::core::{AuditEventKind, AuditLog, Membrane, PurposeId, Row, SubjectId, Timestamp};
use rgpdos::crypto::escrow::{Authority, OperatorEscrow};
use rgpdos::crypto::StreamCipher;
use rgpdos::dsl::listings::LISTING_1;
use rgpdos::inode::{FormatParams, InodeFs, InodeKind, JournalMode};
use rgpdos::kernel::{Machine, ObjectClass, Operation, SecurityContext, Syscall};
use rgpdos::ps::{ProcessingSpec, ProcessingStore};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Mean microseconds of `calls` runs of `body`.
fn mean_us(calls: usize, mut body: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    for i in 0..calls {
        body(i);
    }
    start.elapsed().as_secs_f64() * 1e6 / calls as f64
}

fn must<T, E: std::fmt::Display>(what: &str, result: Result<T, E>) -> Result<T, String> {
    result.map_err(|e| format!("probe {what}: {e}"))
}

/// Every probe, as `(metric name, value)`.
pub fn run(spec: ProcessingSpec) -> Result<Vec<(&'static str, f64)>, String> {
    let mut out = Vec::new();
    inode(&mut out)?;
    kernel_and_ps(&mut out, spec)?;
    crypto(&mut out);
    core(&mut out)?;
    policy(&mut out)?;
    Ok(out)
}

const PROBE_BLOCK: usize = 2_048;

fn inode(out: &mut Vec<(&'static str, f64)>) -> Result<(), String> {
    let params = FormatParams::standard()
        .with_inode_count(16_384)
        .with_journal_blocks(128)
        .with_secure_free(true);
    let fs = must(
        "format",
        InodeFs::format(
            Arc::new(MemDevice::new(32_768, PROBE_BLOCK)),
            params,
            JournalMode::Scrub,
        ),
    )?;
    let file = must("alloc", fs.alloc_inode(InodeKind::File))?;
    let payload = vec![0xA5u8; 8 * PROBE_BLOCK];
    let mut failed = None;
    // One compound transaction rewriting eight data blocks: journal write,
    // apply, flush, journal scrub.
    let commit = mean_us(200, |_| {
        let tx = fs.begin_tx();
        let result = fs.write(file, 0, &payload).and_then(|()| tx.commit());
        if let Err(e) = result {
            failed = Some(e.to_string());
        }
    });
    out.push(("inode.probe.commit_8blk_us", commit));
    let cached = mean_us(20_000, |i| {
        let offset = ((i % 8) * PROBE_BLOCK) as u64;
        if let Err(e) = fs.read(file, offset, PROBE_BLOCK).map(black_box) {
            failed = Some(e.to_string());
        }
    });
    out.push(("inode.probe.cached_read_us", cached));

    // Directory cost against directory size, inside one open transaction so
    // that only the directory code is timed, not the journal.
    let dir = must("alloc", fs.alloc_inode(InodeKind::Directory))?;
    let tx = fs.begin_tx();
    let mut next = 0u64;
    let mut grow_to = |entries: u64, failed: &mut Option<String>| {
        while next < entries {
            if let Err(e) = fs.dir_add(dir, &format!("pd-{next}"), next) {
                *failed = Some(e.to_string());
                return;
            }
            next += 1;
        }
    };
    grow_to(1_000, &mut failed);
    let start = Instant::now();
    grow_to(1_050, &mut failed);
    let add_1k = start.elapsed().as_secs_f64() * 1e6 / 50.0;
    grow_to(DIR_LARGE, &mut failed);
    let start = Instant::now();
    grow_to(DIR_LARGE + 50, &mut failed);
    let add_large = start.elapsed().as_secs_f64() * 1e6 / 50.0;
    let lookup = mean_us(50, |i| {
        match fs.dir_lookup(dir, &format!("pd-{}", i as u64 * 97 % DIR_LARGE)) {
            Ok(found) => {
                black_box(found);
            }
            Err(e) => failed = Some(e.to_string()),
        }
    });
    drop(tx);
    out.push(("inode.probe.dir_add_us_1k", add_1k));
    out.push(("inode.probe.dir_add_us_4k", add_large));
    out.push(("inode.probe.dir_lookup_us_4k", lookup));
    match failed {
        Some(error) => Err(format!("probe inode: {error}")),
        None => Ok(()),
    }
}

/// Entries of the large probe directory.  A flat directory is rewritten on
/// every add, so growing one to 10 000 entries would take ten seconds.
const DIR_LARGE: u64 = 4_000;

fn kernel_and_ps(out: &mut Vec<(&'static str, f64)>, spec: ProcessingSpec) -> Result<(), String> {
    let ps = ProcessingStore::new();
    let id = must("register", ps.register(spec))?.id;
    let mut failed = None;
    let get = mean_us(20_000, |_| match ps.get_invocable(id) {
        Ok(processing) => {
            black_box(processing);
        }
        Err(e) => failed = Some(e.to_string()),
    });
    out.push(("ps.probe.get_invocable_us", get));

    let machine = must("machine", Machine::builder().build())?;
    let task = must(
        "spawn",
        machine.spawn_task(machine.rgpd_kernel(), SecurityContext::DedProcessing),
    )?;
    let syscall = mean_us(20_000, |_| {
        if let Err(e) = machine.syscall(task, Syscall::ClockRead) {
            failed = Some(e.to_string());
        }
    });
    out.push(("kernel.probe.syscall_us", syscall));
    let access = mean_us(20_000, |_| {
        if let Err(e) = machine.mediated_access(task, ObjectClass::DbfsStorage, Operation::Read) {
            failed = Some(e.to_string());
        }
    });
    out.push(("kernel.probe.mediated_access_us", access));
    match failed {
        Some(error) => Err(format!("probe kernel/ps: {error}")),
        None => Ok(()),
    }
}

fn crypto(out: &mut Vec<(&'static str, f64)>) {
    let escrow = OperatorEscrow::new(Authority::generate(7).public_key());
    let plaintext = vec![0x5Au8; 1_024];
    let erase = mean_us(2_000, |_| {
        black_box(escrow.erase(black_box(&plaintext)));
    });
    out.push(("crypto.probe.escrow_erase_us_per_kib", erase));
    let cipher = StreamCipher::new(0x1234_5678_9ABC_DEF0, 42);
    let mut buffer = vec![0u8; 1 << 20];
    let per_mib_us = mean_us(8, |_| {
        cipher.apply_in_place(black_box(&mut buffer));
    });
    out.push(("crypto.probe.cipher_mib_per_s", 1e6 / per_mib_us));
}

fn core(out: &mut Vec<(&'static str, f64)>) -> Result<(), String> {
    let audit = AuditLog::new();
    let append = mean_us(20_000, |i| {
        audit.record(
            Timestamp::ZERO,
            Some(SubjectId::new(i as u64)),
            AuditEventKind::AccessRequestServed,
        );
    });
    out.push(("core.probe.audit_append_us", append));

    let schema = listing1_user_schema();
    let membrane = Membrane::from_schema(&schema, SubjectId::new(1), Timestamp::ZERO);
    let mut rng = Rng::new(1);
    let row = Row::new()
        .with("name", rng.word(20))
        .with("pwd", rng.word(16))
        .with("year_of_birthdate", 1984i64);
    let mut failed = None;
    let codec = mean_us(5_000, |_| {
        let result = stored::encode(&membrane, &row).and_then(|bytes| stored::decode(&bytes));
        match result {
            Ok(decoded) => {
                black_box(decoded);
            }
            Err(e) => failed = Some(e.to_string()),
        }
    });
    out.push(("core.probe.record_codec_us", codec));
    let purpose = PurposeId::from("purpose3");
    let check = mean_us(50_000, |_| {
        black_box(membrane.permits_at(black_box(&purpose), Timestamp::ZERO));
    });
    out.push(("core.probe.membrane_check_us", check));
    match failed {
        Some(error) => Err(format!("probe core: {error}")),
        None => Ok(()),
    }
}

fn policy(out: &mut Vec<(&'static str, f64)>) -> Result<(), String> {
    let mut failed = None;
    let install = mean_us(200, |_| {
        match rgpdos::dsl::compile_type_declarations(LISTING_1) {
            Ok(schemas) => {
                black_box(schemas);
            }
            Err(e) => failed = Some(e.to_string()),
        }
    });
    out.push(("dsl.install_types_us", install));
    let lint = mean_us(200, |_| match rgpdos::analyze::analyze_source(LISTING_1) {
        Ok(diagnostics) => {
            black_box(diagnostics);
        }
        Err(e) => failed = Some(e.to_string()),
    });
    out.push(("analyze.lint_us", lint));
    match failed {
        Some(error) => Err(format!("probe dsl/analyze: {error}")),
        None => Ok(()),
    }
}
