//! Deterministic crash-point harness for DBFS and the sharded router.
//!
//! `crashgrind` brute-forces durability: for a scripted workload it first
//! runs a fault-free *reference* pass to learn the total number of device
//! writes `N` and the expected audit trail, then replays the same workload
//! `N` times against a [`FaultyDevice`], crashing after write `0, 1, …,
//! N-1`.  After each crash the device is revived and remounted, and the
//! GDPR invariants are asserted:
//!
//! * the store remounts and [`PdStore::verify_index_invariants`] passes;
//! * **no erased id is ever live again** — every id a pre-crash erasure
//!   reported tombstoned is still tombstoned;
//! * a subject whose erase-subject request completed before the crash has
//!   no live records;
//! * **no half-written record is visible** — every record (tombstones
//!   included) decodes;
//! * no live record anywhere has an erased lineage ancestor, and a
//!   subject-wide erasure the crash interrupted tombstoned all of its
//!   targets or none (the erasure cascade is all-or-nothing across the
//!   crash, however many journal transactions it spans);
//! * the audit log at the moment of the crash is a **prefix** of the
//!   reference run's audit log (no event is recorded for work that never
//!   committed);
//! * the store remains usable: a fresh record can be collected after
//!   recovery.
//!
//! The sharded sweep wraps every shard device around one shared
//! [`FaultCell`], so the crash models a whole-machine power loss at a
//! global write index — exactly the window the two-phase cross-shard
//! erasure's intent log exists for.

use rgpdos::blockdev::{
    BlockDevice, FaultCell, FaultScript, FaultyDevice, MemDevice, SanitizedDevice,
};
use rgpdos::core::schema::listing1_user_schema;
use rgpdos::core::{
    AuditEvent, DataTypeId, Duration, Membrane, MembraneDelta, PdId, Row, SubjectId, TimeToLive,
};
use rgpdos::crypto::escrow::{Authority, OperatorEscrow};
use rgpdos::dbfs::{erased_ancestor, Dbfs, DbfsError, DbfsParams, PdStore, QueryRequest};
use rgpdos::inode::InodeError;
use rgpdos::shard::ShardedDbfs;
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// One step of a scripted crash-consistency workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScriptOp {
    /// Collect a fresh record for `subject`.
    Insert {
        /// The data subject.
        subject: u64,
    },
    /// Collect a batch of records through the batched `collect_many` API:
    /// stores with journal group commit coalesce the batch into as few
    /// journal transactions as the capacity bound allows, which is exactly
    /// the path this op exists to sweep — a crash must leave a clean
    /// prefix of whole groups, never a torn record.
    InsertMany {
        /// First data subject; record `i` belongs to `base_subject + i % 3`.
        base_subject: u64,
        /// Records in the batch.
        count: u8,
    },
    /// Replace the row of a previously created record.
    Update {
        /// Index into the ids created so far (modulo).
        pick: u8,
    },
    /// Rewrite the rows of the `count` most recently created records,
    /// newest first, through the batched `update_rows` API: the rewrites
    /// share a group commit, so a crash inside it must leave every record
    /// whole.  Rows carry no identity the invariants track, so the shadow
    /// accepts any whole-group prefix; a tombstone among the targets ends
    /// the batch with the expected `Erased` refusal after a clean prefix.
    UpdateMany {
        /// Records rewritten (capped at the number created so far).
        count: u8,
    },
    /// Copy a previously created record (round-robin across shards when
    /// sharded — the cross-shard lineage case).
    Copy {
        /// Index into the ids created so far (modulo).
        pick: u8,
    },
    /// Change a record's retention period.
    SetTtlDays {
        /// Index into the ids created so far (modulo).
        pick: u8,
        /// The new TTL in days.
        days: u64,
    },
    /// Advance the shared clock.
    AdvanceDays {
        /// Days to advance.
        days: u64,
    },
    /// Right to be forgotten on one record (cascades over the lineage).
    Erase {
        /// Index into the ids created so far (modulo).
        pick: u8,
    },
    /// Subject-wide right to be forgotten.
    EraseSubject {
        /// The data subject.
        subject: u64,
    },
    /// Retention sweep.
    Purge,
    /// Tombstone scrub/compaction pass: reclaims every tombstone whose
    /// erasure is durable and unreferenced.  Each reclaim is its own
    /// committed compound transaction, so a crash at any write index of
    /// the pass must leave a clean prefix of whole reclaims — never a
    /// resurrected record, never a half-freed inode.
    Scrub,
}

/// The default workload: covers insert, update, copy (including a
/// copy-of-a-copy lineage chain), TTL change, erase, subject erase and the
/// retention sweep.
pub fn default_script() -> Vec<ScriptOp> {
    vec![
        ScriptOp::Insert { subject: 1 },
        ScriptOp::Insert { subject: 1 },
        ScriptOp::Insert { subject: 2 },
        ScriptOp::Copy { pick: 0 },
        ScriptOp::Copy { pick: 3 },
        ScriptOp::Update { pick: 1 },
        ScriptOp::SetTtlDays { pick: 1, days: 30 },
        ScriptOp::Insert { subject: 3 },
        ScriptOp::Erase { pick: 0 },
        ScriptOp::EraseSubject { subject: 2 },
        ScriptOp::AdvanceDays { days: 40 },
        ScriptOp::Purge,
    ]
}

/// The scrubber workload: builds up lineage (including a copy chain the
/// scrubber must reclaim child-first), erases into a tombstone pile,
/// compacts, keeps mutating on the compacted store, erases and compacts
/// again.  Swept against both backends, this crashes at every write index
/// *inside* a compaction pass.
pub fn scrub_script() -> Vec<ScriptOp> {
    vec![
        ScriptOp::Insert { subject: 1 },
        ScriptOp::Insert { subject: 2 },
        ScriptOp::Insert { subject: 3 },
        ScriptOp::Copy { pick: 0 },
        ScriptOp::Copy { pick: 3 },
        ScriptOp::Erase { pick: 0 },
        ScriptOp::EraseSubject { subject: 2 },
        ScriptOp::Scrub,
        ScriptOp::Insert { subject: 4 },
        ScriptOp::SetTtlDays { pick: 2, days: 10 },
        ScriptOp::AdvanceDays { days: 20 },
        ScriptOp::Purge,
        ScriptOp::Scrub,
    ]
}

/// The batched-write-path workload: group-committed batches (including one
/// large enough to span several journal transactions on the small test
/// geometry), interleaved with the mutations that must stay correct around
/// them — copies into batch-created lineage, erasure, TTL expiry, a
/// subject-wide erasure of subjects created by a batch — and batched row
/// rewrites, once over live records only and once running into the
/// tombstones the erasures left.
pub fn batched_script() -> Vec<ScriptOp> {
    vec![
        ScriptOp::InsertMany {
            base_subject: 1,
            count: 6,
        },
        ScriptOp::Copy { pick: 2 },
        ScriptOp::InsertMany {
            base_subject: 4,
            count: 5,
        },
        ScriptOp::Update { pick: 1 },
        ScriptOp::UpdateMany { count: 12 },
        ScriptOp::SetTtlDays { pick: 3, days: 20 },
        ScriptOp::Erase { pick: 0 },
        ScriptOp::EraseSubject { subject: 2 },
        ScriptOp::UpdateMany { count: 12 },
        ScriptOp::AdvanceDays { days: 30 },
        ScriptOp::Purge,
    ]
}

/// The large-cascade workload, for a store formatted with
/// [`cascade_params`]: one subject's records, their copies and the copies
/// of those, 18 in all, so that its subject-wide erasure is cut into
/// several groups — a crash between two of them is the window only the
/// local erase intent covers — then a scrub of the pile.
pub fn cascade_script() -> Vec<ScriptOp> {
    let mut script = vec![ScriptOp::Insert { subject: 1 }; 6];
    script.extend((0..12).map(|pick| ScriptOp::Copy { pick }));
    script.extend([ScriptOp::EraseSubject { subject: 1 }, ScriptOp::Scrub]);
    script
}

/// [`DbfsParams::small`] with a 16-block journal: a transaction holds 14
/// blocks, an insert and a few tombstones.
pub fn cascade_params() -> DbfsParams {
    let mut params = DbfsParams::small();
    params.inode_params = params.inode_params.with_journal_blocks(16);
    params
}

/// A deterministic pseudo-random workload derived from `seed` (echoed in CI
/// logs so any sweep can be reproduced bit-for-bit).
pub fn scripted_ops(seed: u64, len: usize) -> Vec<ScriptOp> {
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut ops = Vec::with_capacity(len);
    for _ in 0..len {
        let op = match next() % 11 {
            0..=2 => ScriptOp::Insert {
                subject: next() % 4,
            },
            9 => ScriptOp::Scrub,
            3 => ScriptOp::Update {
                pick: (next() % 251) as u8,
            },
            4..=5 => ScriptOp::Copy {
                pick: (next() % 251) as u8,
            },
            6 => ScriptOp::SetTtlDays {
                pick: (next() % 251) as u8,
                days: 1 + next() % 200,
            },
            7 => ScriptOp::Erase {
                pick: (next() % 251) as u8,
            },
            8 => ScriptOp::EraseSubject {
                subject: next() % 4,
            },
            _ => {
                if next() % 2 == 0 {
                    ScriptOp::AdvanceDays {
                        days: 1 + next() % 300,
                    }
                } else {
                    ScriptOp::Purge
                }
            }
        };
        ops.push(op);
    }
    ops
}

/// What a (possibly interrupted) replay observed succeed before the crash.
#[derive(Debug, Default)]
struct Shadow {
    /// Ids created so far (inserts and copies), in creation order.
    ids: Vec<PdId>,
    /// Every id an erasure / sweep *reported* tombstoned before the crash.
    erased: BTreeSet<PdId>,
    /// Subjects whose subject-wide erasure completed before the crash and
    /// that were not legitimately re-collected afterwards.
    erased_subjects: BTreeSet<SubjectId>,
    /// Every id a completed scrub *reported* reclaimed before the crash:
    /// these must stay gone after recovery.
    reclaimed: BTreeSet<PdId>,
    /// The live records of a subject whose subject-wide erasure had started
    /// but not returned when the crash hit: after recovery they are all
    /// tombstones or all still live, whatever the cascade's size.
    erasing: Vec<PdId>,
    /// Whether any scrub pass *started* before the crash.  A crash
    /// mid-scrub can durably reclaim tombstones the interrupted call never
    /// reported, so "erased id is gone" is only legitimate once this is
    /// set.
    scrub_started: bool,
}

/// The machine-readable outcome of one sweep (uploaded as a CI artifact).
#[derive(Debug, Serialize)]
pub struct SweepReport {
    /// Which scenario was swept (`dbfs`, `dbfs-scrub`, `sharded-3`, …).
    pub scenario: String,
    /// Number of crash points exercised (= writes in the reference run).
    pub crash_points: u64,
    /// Inode-journal replays observed across every remount.
    pub journal_replays: u64,
    /// DBFS/router recovery actions observed across every remount.
    pub recovered_txs: u64,
    /// Block-sanitizer reports (read-of-freed, write-to-unallocated,
    /// double-free, …) across the whole sweep; every sweep runs on a
    /// [`SanitizedDevice`] and this must stay 0.
    pub sanitizer_reports: u64,
    /// Data blocks found allocated-but-unreachable by the unmount-time
    /// leak check across every remount; must stay 0.
    pub leaked_blocks: u64,
    /// Human-readable invariant violations (empty on a passing sweep).
    pub violations: Vec<String>,
}

impl SweepReport {
    fn new(scenario: impl Into<String>, crash_points: u64) -> Self {
        Self {
            scenario: scenario.into(),
            crash_points,
            journal_replays: 0,
            recovered_txs: 0,
            sanitizer_reports: 0,
            leaked_blocks: 0,
            violations: Vec::new(),
        }
    }

    /// Drains an attached block sanitizer's reports into the violation
    /// list, labelled with the crash point (or phase) they occurred in.
    fn drain_sanitizer(&mut self, device: &dyn BlockDevice, label: &str) {
        if let Some(sanitizer) = device.sanitizer() {
            for violation in sanitizer.take_violations() {
                self.sanitizer_reports += 1;
                self.violations
                    .push(format!("{label}: sanitizer: {violation}"));
            }
        }
    }

    /// Runs the unmount-time leak check on one recovered inode filesystem
    /// and records any stranded blocks.
    fn check_leaks<D: BlockDevice>(&mut self, fs: &rgpdos::inode::InodeFs<D>, label: &str) {
        match fs.leaked_data_blocks() {
            Ok(leaked) if leaked.is_empty() => {}
            Ok(leaked) => {
                self.leaked_blocks += leaked.len() as u64;
                self.violations.push(format!(
                    "{label}: {} data blocks leaked after recovery: {leaked:?}",
                    leaked.len()
                ));
            }
            Err(e) => self
                .violations
                .push(format!("{label}: leak check failed: {e}")),
        }
    }

    /// Whether every crash point upheld every invariant.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

fn sample_row(name: &str) -> Row {
    Row::new()
        .with("name", name)
        .with("pwd", "pw")
        .with("year_of_birthdate", 1990i64)
}

/// Whether an error is the injected crash surfacing (as opposed to a
/// legitimate logical refusal such as "already erased").
fn is_crash(error: &DbfsError) -> bool {
    matches!(error, DbfsError::Inode(InodeError::Device(_)))
}

/// The only logical refusals a replayed script legitimately provokes:
/// operating on a tombstone (copy/update of an erased record, an erased
/// lineage ancestor) or on an id the interrupted script never created.
/// Anything else — `Corrupt`, schema errors, crypto failures — is a real
/// defect the sweep must surface, not swallow.
fn is_expected_refusal(error: &DbfsError) -> bool {
    matches!(
        error,
        DbfsError::Erased { .. } | DbfsError::UnknownPd { .. }
    )
}

/// How a replay ended before the script ran to completion.
#[derive(Debug)]
enum ReplayFailure {
    /// The injected crash fired (the expected outcome of a crash run).
    Crash(#[allow(dead_code)] DbfsError),
    /// A mutation failed for a reason the script cannot legitimately
    /// provoke — a harness-visible defect.
    Unexpected(DbfsError),
}

/// Replays the script until it ends or the injected crash fires, recording
/// successful outcomes in `shadow`.  Logical refusals (copying an erased
/// record, updating a tombstone) are expected and skipped.
fn replay<S: PdStore>(
    store: &S,
    escrow: &OperatorEscrow,
    script: &[ScriptOp],
    shadow: &mut Shadow,
    user: &DataTypeId,
) -> Result<(), ReplayFailure> {
    /// What an op reported, nothing (`T::default()`) for a logical refusal.
    fn settle<T: Default>(result: Result<T, DbfsError>) -> Result<T, ReplayFailure> {
        match result {
            Ok(outcome) => Ok(outcome),
            Err(e) if is_crash(&e) => Err(ReplayFailure::Crash(e)),
            Err(e) if is_expected_refusal(&e) => Ok(T::default()),
            Err(e) => Err(ReplayFailure::Unexpected(e)),
        }
    }
    for op in script {
        match *op {
            ScriptOp::Insert { subject } => {
                let subject = SubjectId::new(subject);
                let result = store
                    .collect(user, subject, sample_row("scripted"))
                    .map(Some);
                // A fresh collection for a previously erased subject is a
                // new processing ground, not a survivor of the old erasure,
                // so the subject-wide check no longer applies (the erased
                // ids themselves stay covered individually).  A
                // crash-interrupted collect counts too: the record is
                // durable iff the crash hit after its journal commit, which
                // the shadow cannot observe.
                if !matches!(result, Err(ref e) if is_expected_refusal(e)) {
                    shadow.erased_subjects.remove(&subject);
                }
                shadow.ids.extend(settle(result)?);
            }
            ScriptOp::InsertMany {
                base_subject,
                count,
            } => {
                let rows: Vec<(SubjectId, Row)> = (0..u64::from(count))
                    .map(|i| (SubjectId::new(base_subject + i % 3), sample_row("batched")))
                    .collect();
                let result = store.collect_many(user, rows);
                // As for `Insert`: a batch (even one interrupted by the
                // crash, which may leave a committed prefix) revives its
                // subjects for the subject-wide erasure check.
                if !matches!(result, Err(ref e) if is_expected_refusal(e)) {
                    for i in 0..u64::from(count) {
                        shadow
                            .erased_subjects
                            .remove(&SubjectId::new(base_subject + i % 3));
                    }
                }
                // Only a fully returned batch enters the shadow: a crash
                // mid-batch may leave a committed prefix the shadow does
                // not know about, which the decode-all and invariant
                // checks still cover after remount.
                shadow.ids.extend(settle(result)?);
            }
            ScriptOp::Update { pick } => {
                if let Some(id) = pick_id(&shadow.ids, pick).copied() {
                    settle(store.update_row(user, id, sample_row("updated")))?;
                }
            }
            ScriptOp::UpdateMany { count } => {
                let updates: Vec<(PdId, Row)> = shadow
                    .ids
                    .iter()
                    .rev()
                    .take(usize::from(count))
                    .map(|&id| (id, sample_row("batch-updated")))
                    .collect();
                settle(store.update_rows(user, updates))?;
            }
            ScriptOp::Copy { pick } => {
                if let Some(id) = pick_id(&shadow.ids, pick).copied() {
                    let result = store.copy(user, id).map(Some);
                    shadow.ids.extend(settle(result)?);
                }
            }
            ScriptOp::SetTtlDays { pick, days } => {
                if let Some(id) = pick_id(&shadow.ids, pick).copied() {
                    let delta = MembraneDelta::SetTimeToLive {
                        ttl: TimeToLive::days(days),
                    };
                    settle(store.apply_membrane_delta(user, id, &delta))?;
                }
            }
            ScriptOp::AdvanceDays { days } => {
                store.clock().advance(Duration::from_days(days));
            }
            ScriptOp::Erase { pick } => {
                if let Some(id) = pick_id(&shadow.ids, pick).copied() {
                    shadow.erased.extend(settle(store.erase(user, id, escrow))?);
                }
            }
            ScriptOp::EraseSubject { subject } => {
                let subject = SubjectId::new(subject);
                if let Ok(membranes) = store.load_membranes_for_subject(user, subject) {
                    let live = membranes.into_iter().filter(|(_, m)| !m.is_erased());
                    shadow.erasing = live.map(|(id, _)| id).collect();
                }
                // A crash returns from here with `erasing` still set.
                let erased = settle(store.erase_subject(subject, escrow).map(Some))?;
                shadow.erasing.clear();
                if let Some(erased) = erased {
                    shadow.erased.extend(erased);
                    shadow.erased_subjects.insert(subject);
                }
            }
            ScriptOp::Purge => shadow.erased.extend(settle(store.purge_expired(escrow))?),
            ScriptOp::Scrub => {
                shadow.scrub_started = true;
                let scrub = settle(store.scrub_tombstones())?;
                shadow.reclaimed.extend(scrub.reclaimed);
            }
        }
    }
    Ok(())
}

fn pick_id(ids: &[PdId], pick: u8) -> Option<&PdId> {
    if ids.is_empty() {
        None
    } else {
        ids.get(pick as usize % ids.len())
    }
}

/// Post-crash, post-remount invariant checks (see the module docs for the
/// full list).  Returns human-readable violations.
fn check_recovered<S: PdStore>(
    store: &S,
    shadow: &Shadow,
    crashed_audit: &[AuditEvent],
    reference_audit: &[AuditEvent],
    user: &DataTypeId,
) -> Vec<String> {
    let mut violations = Vec::new();
    if let Err(e) = store.verify_index_invariants() {
        violations.push(format!("index invariants violated after remount: {e}"));
    }
    // No erased id is ever live again.  Once a scrub pass started, an
    // erased id may legitimately be *gone* (each reclaim commits its own
    // compound transaction, so an interrupted pass leaves a clean prefix of
    // whole reclaims) — but it must never be live.
    for &id in &shadow.erased {
        match store.load_membrane(user, id) {
            Ok(membrane) if membrane.is_erased() => {}
            Ok(_) => violations.push(format!("{id} was erased before the crash but is live")),
            Err(DbfsError::UnknownPd { .. }) if shadow.scrub_started => {}
            Err(e) => violations.push(format!("{id} was erased before the crash but is gone: {e}")),
        }
    }
    // An interrupted subject-wide erasure tombstoned all of its targets or
    // none: the intent completes what a crash between two groups left.
    let tombstoned = |&id: &PdId| matches!(store.load_membrane(user, id), Ok(m) if m.is_erased());
    let done = shadow.erasing.iter().filter(|id| tombstoned(id)).count();
    if done != 0 && done != shadow.erasing.len() {
        violations.push(format!(
            "an interrupted subject erasure tombstoned {done} of its {} targets",
            shadow.erasing.len()
        ));
    }
    // A reclaim a completed scrub reported is durable: the id must stay
    // gone — neither a live record (resurrection) nor a reappeared
    // tombstone (a half-undone compound transaction).
    for &id in &shadow.reclaimed {
        match store.load_membrane(user, id) {
            Err(DbfsError::UnknownPd { .. }) => {}
            Ok(membrane) if membrane.is_erased() => violations.push(format!(
                "{id} was reclaimed before the crash but its tombstone reappeared"
            )),
            Ok(_) => violations.push(format!(
                "{id} was reclaimed before the crash but resurrected live"
            )),
            Err(e) => violations.push(format!("{id} was reclaimed but probing it failed: {e}")),
        }
    }
    // No half-written record is visible: every record, tombstones included,
    // decodes end to end.
    if let Err(e) = store.query(&QueryRequest::all(user.clone()).including_erased()) {
        violations.push(format!("a stored record no longer decodes: {e}"));
    }
    // Lineage atomicity: no live record has an erased ancestor, and
    // completed subject erasures left no survivor.
    match store.load_membranes(user) {
        Ok(membranes) => {
            let map: BTreeMap<PdId, Membrane> = membranes.into_iter().collect();
            for (id, membrane) in &map {
                if membrane.is_erased() {
                    continue;
                }
                if shadow.erased_subjects.contains(&membrane.subject()) {
                    violations.push(format!(
                        "{id} survived the completed erasure of its subject {}",
                        membrane.subject()
                    ));
                }
                let lookup = |id| {
                    let parent = map.get(&id)?;
                    Some((parent.is_erased(), parent.copied_from()))
                };
                if let Some(ancestor) = erased_ancestor(membrane.copied_from(), lookup) {
                    violations.push(format!("live {id} outlives its erased ancestor {ancestor}"));
                }
            }
        }
        Err(e) => violations.push(format!("membrane scan failed after remount: {e}")),
    }
    // Per-stream audit-prefix: each shard appends to its own audit stream,
    // so the crash-time trail must be a prefix of the reference trail
    // stream by stream.  Lamport stamps are excluded from the comparison:
    // they decide the cross-stream merge order and legitimately vary with
    // the worker-pool interleaving, while `(seq, at, subject, kind)` are
    // fully deterministic within a stream.
    fn by_stream(events: &[AuditEvent]) -> BTreeMap<u32, Vec<&AuditEvent>> {
        let mut streams: BTreeMap<u32, Vec<&AuditEvent>> = BTreeMap::new();
        for event in events {
            streams.entry(event.stream).or_default().push(event);
        }
        streams
    }
    let reference_streams = by_stream(reference_audit);
    for (stream, crashed) in by_stream(crashed_audit) {
        let reference = reference_streams
            .get(&stream)
            .map_or(&[][..], Vec::as_slice);
        let same = |a: &AuditEvent, b: &AuditEvent| {
            a.seq == b.seq && a.at == b.at && a.subject == b.subject && a.kind == b.kind
        };
        if crashed.len() > reference.len()
            || !crashed.iter().zip(reference).all(|(c, r)| same(c, r))
        {
            violations.push(format!(
                "audit stream {stream} diverged from the reference run \
                 ({} events at crash, {} in reference)",
                crashed.len(),
                reference.len()
            ));
        }
        // Each stream's sequence numbers are dense and monotonic: crash and
        // recovery must never reuse, skip, or reorder a stream's slice of
        // the log.
        for (expected, event) in crashed.iter().enumerate() {
            if event.seq != expected as u64 {
                violations.push(format!(
                    "audit stream {stream} broke seq density: \
                     event {expected} carries seq {}",
                    event.seq
                ));
                break;
            }
        }
    }
    // The store stays usable after recovery.
    if let Err(e) = store.collect(user, SubjectId::new(9_999), sample_row("post-crash")) {
        violations.push(format!("collect after recovery failed: {e}"));
    } else if let Err(e) = store.verify_index_invariants() {
        violations.push(format!(
            "index invariants broke on first post-crash write: {e}"
        ));
    }
    violations
}

/// Every sweep runs on a sanitizer-wrapped in-memory device, so the whole
/// crash matrix doubles as a use-after-free sweep of the block layer.
type SweepDevice = Arc<SanitizedDevice<MemDevice>>;

fn fresh_sweep_device() -> SweepDevice {
    Arc::new(SanitizedDevice::new(MemDevice::new(16_384, 512)))
}

/// A sweep device behind a fault cell.  Every store of a sweep — the one
/// that formats the image, the one that crashes and the one that recovers —
/// is mounted over these, so one store type serves all three; only the
/// cell's script differs.
type FaultyDev = FaultyDevice<SweepDevice>;

/// Wraps `devices` behind one shared [`FaultCell`] running `script`: a
/// crash is a whole-machine power loss at a global write index.
fn behind_one_cell(
    devices: &[SweepDevice],
    script: FaultScript,
) -> (Arc<FaultCell>, Vec<FaultyDev>) {
    let cell = Arc::new(FaultCell::new(script));
    let wrapped = devices
        .iter()
        .map(|device| FaultyDevice::with_cell(Arc::clone(device), Arc::clone(&cell)))
        .collect();
    (cell, wrapped)
}

/// What a sweep needs from a store besides [`PdStore`]: building one over a
/// set of devices, and the `Dbfs` instances underneath for the leak check.
trait MountableStore: PdStore + Sized {
    fn format(devices: Vec<FaultyDev>, params: DbfsParams) -> Result<Self, DbfsError>;
    fn mount(devices: Vec<FaultyDev>) -> Result<Self, DbfsError>;
    fn instances(&self) -> Vec<&Dbfs<FaultyDev>>;
}

impl MountableStore for Dbfs<FaultyDev> {
    fn format(mut devices: Vec<FaultyDev>, params: DbfsParams) -> Result<Self, DbfsError> {
        Dbfs::format(devices.pop().expect("one device"), params)
    }

    fn mount(mut devices: Vec<FaultyDev>) -> Result<Self, DbfsError> {
        Dbfs::mount(devices.pop().expect("one device"))
    }

    fn instances(&self) -> Vec<&Dbfs<FaultyDev>> {
        vec![self]
    }
}

impl MountableStore for ShardedDbfs<FaultyDev> {
    fn format(devices: Vec<FaultyDev>, params: DbfsParams) -> Result<Self, DbfsError> {
        ShardedDbfs::format(devices, params)
    }

    fn mount(devices: Vec<FaultyDev>) -> Result<Self, DbfsError> {
        ShardedDbfs::mount(devices)
    }

    fn instances(&self) -> Vec<&Dbfs<FaultyDev>> {
        self.shards().iter().map(|shard| &**shard).collect()
    }
}

/// Fresh devices holding a formatted image with the user type installed
/// (none of it counted or faulted: the crash window starts at the mount).
fn fresh_image<S: MountableStore>(device_count: usize, params: DbfsParams) -> Vec<SweepDevice> {
    let devices: Vec<SweepDevice> = (0..device_count).map(|_| fresh_sweep_device()).collect();
    let store =
        S::format(behind_one_cell(&devices, FaultScript::none()).1, params).expect("format image");
    store
        .create_type(listing1_user_schema())
        .expect("install the user type");
    devices
}

/// Sweeps every *global* write index of `script` against a store of type
/// `S` over `device_count` devices formatted with `params`, reporting under
/// `scenario`.
fn sweep<S: MountableStore>(
    scenario: &str,
    script: &[ScriptOp],
    device_count: usize,
    authority_seed: u64,
    params: DbfsParams,
) -> SweepReport {
    let authority = Authority::generate(authority_seed);
    let escrow = OperatorEscrow::new(authority.public_key());
    let user: DataTypeId = "user".into();

    // Reference run: learns the write count and the expected audit trail.
    let reference_devices = fresh_image::<S>(device_count, params);
    let (cell, wrapped) = behind_one_cell(&reference_devices, FaultScript::none());
    let store = S::mount(wrapped).expect("reference mount");
    let mut reference_shadow = Shadow::default();
    let (total_writes, outcome) =
        cell.writes_between(|| replay(&store, &escrow, script, &mut reference_shadow, &user));
    outcome.expect("the reference run must not fail");
    let reference_audit = store.audit().snapshot();
    drop(store);

    let mut report = SweepReport::new(scenario, total_writes);
    for device in &reference_devices {
        report.drain_sanitizer(device, "reference run");
    }
    for crash_after in 0..total_writes {
        let devices = fresh_image::<S>(device_count, params);
        let crashing = behind_one_cell(&devices, FaultScript::crash_after_writes(crash_after)).1;
        let store = match S::mount(crashing) {
            Ok(store) => store,
            Err(e) => {
                report
                    .violations
                    .push(format!("crash {crash_after}: pre-crash mount failed: {e}"));
                continue;
            }
        };
        let mut shadow = Shadow::default();
        match replay(&store, &escrow, script, &mut shadow, &user) {
            Err(ReplayFailure::Crash(_)) => {}
            Ok(()) => report
                .violations
                .push(format!("crash {crash_after}: the fault never fired")),
            Err(ReplayFailure::Unexpected(e)) => report.violations.push(format!(
                "crash {crash_after}: unexpected pre-crash failure: {e}"
            )),
        }
        let crashed_audit = store.audit().snapshot();
        drop(store);

        // Remount the revived devices; this runs journal and intent recovery.
        let revived = behind_one_cell(&devices, FaultScript::none()).1;
        let remounted = match S::mount(revived) {
            Ok(store) => store,
            Err(e) => {
                report
                    .violations
                    .push(format!("crash {crash_after}: remount failed: {e}"));
                continue;
            }
        };
        let stats = remounted.stats();
        report.journal_replays += stats.journal_replays;
        report.recovered_txs += stats.recovered_txs;
        for violation in
            check_recovered(&remounted, &shadow, &crashed_audit, &reference_audit, &user)
        {
            report
                .violations
                .push(format!("crash {crash_after}: {violation}"));
        }
        for (index, instance) in remounted.instances().into_iter().enumerate() {
            report.check_leaks(
                instance.inode_fs(),
                &format!("crash {crash_after} shard {index}"),
            );
        }
        drop(remounted);
        for (index, device) in devices.iter().enumerate() {
            report.drain_sanitizer(device, &format!("crash {crash_after} shard {index}"));
        }
    }
    report
}

/// Sweeps every write index of `script` against a single-device DBFS,
/// reporting under `scenario`.
pub fn sweep_dbfs(scenario: &str, script: &[ScriptOp]) -> SweepReport {
    sweep::<Dbfs<FaultyDev>>(scenario, script, 1, 0xA0D1, DbfsParams::small())
}

/// Sweeps every *global* write index of `script` against a sharded DBFS:
/// all shard devices share one [`FaultCell`], so the crash is a
/// whole-machine power loss — the window the two-phase cross-shard erasure
/// must survive.
pub fn sweep_sharded(scenario: &str, script: &[ScriptOp], shards: usize) -> SweepReport {
    let scenario = format!("{scenario}-{shards}");
    sweep::<ShardedDbfs<FaultyDev>>(&scenario, script, shards, 0x5A4D, DbfsParams::small())
}

/// Runs the full crash-matrix: the default single-store sweep, a seeded
/// pseudo-random single-store sweep, the **batched** (group-commit)
/// single-store and sharded sweeps, the **scrubber** (tombstone
/// compaction) single-store and sharded sweeps, the sharded whole-machine
/// sweep and the single-store **large-cascade** sweep.
pub fn run_all(seed: u64) -> Vec<SweepReport> {
    vec![
        sweep_dbfs("dbfs", &default_script()),
        sweep_dbfs("dbfs-seeded", &scripted_ops(seed, 10)),
        sweep_dbfs("dbfs-batched", &batched_script()),
        sweep_dbfs("dbfs-scrub", &scrub_script()),
        sweep_sharded("sharded", &default_script(), 3),
        sweep_sharded("sharded-batched", &batched_script(), 2),
        sweep_sharded("sharded-scrub", &scrub_script(), 2),
        sweep::<Dbfs<FaultyDev>>(
            "dbfs-cascade",
            &cascade_script(),
            1,
            0xA0D1,
            cascade_params(),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_ops_are_deterministic() {
        assert_eq!(scripted_ops(42, 12), scripted_ops(42, 12));
        assert_ne!(scripted_ops(42, 12), scripted_ops(43, 12));
        assert_eq!(scripted_ops(7, 5).len(), 5);
    }

    #[test]
    fn default_script_covers_every_mutating_op() {
        let script = default_script();
        assert!(script
            .iter()
            .any(|op| matches!(op, ScriptOp::Insert { .. })));
        assert!(script
            .iter()
            .any(|op| matches!(op, ScriptOp::Update { .. })));
        assert!(script.iter().any(|op| matches!(op, ScriptOp::Copy { .. })));
        assert!(script
            .iter()
            .any(|op| matches!(op, ScriptOp::SetTtlDays { .. })));
        assert!(script.iter().any(|op| matches!(op, ScriptOp::Erase { .. })));
        assert!(script
            .iter()
            .any(|op| matches!(op, ScriptOp::EraseSubject { .. })));
        assert!(script.iter().any(|op| matches!(op, ScriptOp::Purge)));
    }

    #[test]
    fn batched_script_exercises_group_commit_and_cascades() {
        let script = batched_script();
        assert!(script
            .iter()
            .any(|op| matches!(op, ScriptOp::InsertMany { .. })));
        assert!(script
            .iter()
            .any(|op| matches!(op, ScriptOp::UpdateMany { .. })));
        assert!(script.iter().any(|op| matches!(op, ScriptOp::Copy { .. })));
        assert!(script.iter().any(|op| matches!(op, ScriptOp::Erase { .. })));
        assert!(script
            .iter()
            .any(|op| matches!(op, ScriptOp::EraseSubject { .. })));
        assert!(script.iter().any(|op| matches!(op, ScriptOp::Purge)));
    }

    #[test]
    fn batched_sweep_passes() {
        // The acceptance gate of the group-commit write path: every crash
        // point of the batched workload recovers with zero violations.
        let report = sweep_dbfs("dbfs-batched", &batched_script());
        assert!(report.crash_points > 0);
        assert!(
            report.passed(),
            "batched sweep violations: {:?}",
            report.violations
        );
    }

    #[test]
    fn cascade_script_cuts_its_erasure_into_at_least_three_groups() {
        let script = cascade_script();
        let erase_at = script.len() - 2;
        assert!(matches!(script[erase_at], ScriptOp::EraseSubject { .. }));

        // The subject erasure journals its intent, at least three groups of
        // tombstones, and the intent's clear: the `dbfs-cascade` sweep
        // crashes between groups.
        let devices = fresh_image::<Dbfs<FaultyDev>>(1, cascade_params());
        let store = <Dbfs<FaultyDev> as MountableStore>::mount(
            behind_one_cell(&devices, FaultScript::none()).1,
        )
        .unwrap();
        let escrow = OperatorEscrow::new(Authority::generate(0xA0D1).public_key());
        let user: DataTypeId = "user".into();
        let mut shadow = Shadow::default();
        replay(&store, &escrow, &script[..erase_at], &mut shadow, &user).unwrap();
        let before = store.inode_fs().journal_txs();
        replay(
            &store,
            &escrow,
            &script[erase_at..=erase_at],
            &mut shadow,
            &user,
        )
        .unwrap();
        let groups = store.inode_fs().journal_txs() - before - 2;
        assert!(groups >= 3, "the cascade spans {groups} groups");
        assert_eq!(shadow.erased.len(), 18);
    }

    #[test]
    fn scrub_script_compacts_twice_over_lineage() {
        let script = scrub_script();
        assert_eq!(
            script
                .iter()
                .filter(|op| matches!(op, ScriptOp::Scrub))
                .count(),
            2
        );
        assert!(script.iter().any(|op| matches!(op, ScriptOp::Copy { .. })));
        assert!(script.iter().any(|op| matches!(op, ScriptOp::Erase { .. })));
        assert!(script.iter().any(|op| matches!(op, ScriptOp::Purge)));
    }

    #[test]
    fn scrub_sweep_passes() {
        // The acceptance gate of the compactor: a crash at every write
        // index of a scrub pass recovers with zero violations — no
        // resurrected record, no reappeared tombstone, no leaked block.
        let report = sweep_dbfs("dbfs-scrub", &scrub_script());
        assert!(report.crash_points > 0);
        assert!(
            report.passed(),
            "scrub sweep violations: {:?}",
            report.violations
        );
    }
}
