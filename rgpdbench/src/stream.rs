//! The five workloads: for each, the population to preload and the fixed
//! request stream of every client, generated from the seed alone, together
//! with the state the store must be in once the stream has run.
//!
//! A generator keeps a shadow of the store (which records are live, whose
//! they are, what each allows `purpose3` to see), so every request it emits
//! is valid when it runs and carries the reply it must get.  Records are
//! named by [`Handle`]: the position in the order records are created.  The
//! driver maps handles to the identifiers the store hands out.

use crate::rng::{Rng, Zipf};
use crate::sut::BootCfg;
use rgpdos::core::{Row, SubjectId};
use std::collections::BTreeMap;

/// How much of a workload to run.  The driver contract's `--seconds N` sets
/// `stream` to `N / NOMINAL_SECONDS` and leaves the populations alone;
/// `--smoke` shrinks both.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub stream: f64,
    pub population: f64,
}

/// `--smoke`: a fiftieth of everything.
pub const SMOKE: Scale = Scale {
    stream: 0.02,
    population: 0.02,
};

impl Scale {
    fn stream(&self, nominal: usize) -> usize {
        ((nominal as f64 * self.stream).round() as usize).max(1)
    }

    fn population(&self, nominal: usize) -> usize {
        ((nominal as f64 * self.population).round() as usize).max(8)
    }
}

/// The request kinds of `runtime.<kind>.*`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Collect,
    CollectMany,
    Update,
    Consent,
    Get,
    Query,
    InvokeSubject,
    InvokeType,
    Access,
    Portability,
    Erasure,
    Copy,
    Scrub,
}

impl Kind {
    pub const ALL: [Kind; 13] = [
        Kind::Collect,
        Kind::CollectMany,
        Kind::Update,
        Kind::Consent,
        Kind::Get,
        Kind::Query,
        Kind::InvokeSubject,
        Kind::InvokeType,
        Kind::Access,
        Kind::Portability,
        Kind::Erasure,
        Kind::Copy,
        Kind::Scrub,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Collect => "collect",
            Kind::CollectMany => "collect_many",
            Kind::Update => "update",
            Kind::Consent => "consent",
            Kind::Get => "get",
            Kind::Query => "query",
            Kind::InvokeSubject => "invoke_subject",
            Kind::InvokeType => "invoke_type",
            Kind::Access => "access",
            Kind::Portability => "portability",
            Kind::Erasure => "erasure",
            Kind::Copy => "copy",
            Kind::Scrub => "scrub",
        }
    }

    /// Mutating requests feed `write_*`, the others `read_*`.
    pub fn is_write(self) -> bool {
        matches!(
            self,
            Kind::Collect
                | Kind::CollectMany
                | Kind::Update
                | Kind::Consent
                | Kind::Erasure
                | Kind::Copy
                | Kind::Scrub
        )
    }
}

/// What a record's membrane lets `purpose3` (the purpose of `compute_age`)
/// see.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    All,
    /// The `v_ano` view — Listing 1's default.
    Ano,
    Deny,
}

/// The n-th record created: preloaded records first, then preload copies,
/// then each client's own records in the order its stream creates them.
pub type Handle = u32;

#[derive(Debug, Clone)]
pub enum Op {
    CollectMany {
        rows: Vec<(SubjectId, Row)>,
    },
    Collect {
        subject: u64,
        row: Row,
    },
    /// `PdStore::update_row`.
    Update {
        target: Handle,
        row: Row,
    },
    /// The same change through the rights engine (art. 16).
    Rectify {
        target: Handle,
        row: Row,
    },
    Grant {
        subject: u64,
        decision: Decision,
        changed: usize,
    },
    Withdraw {
        subject: u64,
        changed: usize,
    },
    Copy {
        target: Handle,
    },
    /// Subject-wide right to be forgotten; `erased` counts copies too.
    Forget {
        subject: u64,
        erased: usize,
    },
    /// `PdStore::erase` of one record without copies.
    EraseRecord {
        target: Handle,
    },
    Scrub,
    /// Advance the clock past the short retention period, then sweep.
    Retention {
        expired: usize,
    },
    Get {
        target: Handle,
        subject: u64,
    },
    QuerySubject {
        subject: u64,
        records: usize,
    },
    Membranes {
        subject: u64,
        records: usize,
    },
    Count {
        at_least: usize,
    },
    InvokeSubject {
        subject: u64,
        records: usize,
        denied: usize,
    },
    InvokeType {
        at_least: usize,
    },
    Access {
        subject: u64,
        items: usize,
    },
    Portability {
        subject: u64,
        items: usize,
    },
}

impl Op {
    pub fn kind(&self) -> Kind {
        match self {
            Op::CollectMany { .. } => Kind::CollectMany,
            Op::Collect { .. } => Kind::Collect,
            Op::Update { .. } | Op::Rectify { .. } => Kind::Update,
            Op::Grant { .. } | Op::Withdraw { .. } => Kind::Consent,
            Op::Copy { .. } => Kind::Copy,
            Op::Forget { .. } | Op::EraseRecord { .. } => Kind::Erasure,
            Op::Scrub | Op::Retention { .. } => Kind::Scrub,
            Op::Get { .. } => Kind::Get,
            Op::QuerySubject { .. } | Op::Membranes { .. } | Op::Count { .. } => Kind::Query,
            Op::InvokeSubject { .. } => Kind::InvokeSubject,
            Op::InvokeType { .. } => Kind::InvokeType,
            Op::Access { .. } => Kind::Access,
            Op::Portability { .. } => Kind::Portability,
        }
    }
}

/// One request: the operation and the user bytes it hands the system (row
/// encodings, or the consent change), the denominator of `write_amp`.
#[derive(Debug, Clone)]
pub struct Request {
    pub op: Op,
    pub payload: u32,
}

#[derive(Debug, Clone)]
pub struct PreRecord {
    pub subject: u64,
    pub row: Row,
    pub decision: Decision,
    /// Retention of [`SHORT_TTL_DAYS`] instead of Listing 1's year.
    pub short_ttl: bool,
}

pub const SHORT_TTL_DAYS: u64 = 30;

/// Bytes a consent change hands the system: the purpose name and decision.
const CONSENT_PAYLOAD: u32 = 16;

/// Everything one run of a workload needs.
#[derive(Debug, Clone)]
pub struct Plan {
    pub boot: BootCfg,
    pub preload: Vec<PreRecord>,
    /// Records copied right after the preload, in order; the i-th copy gets
    /// handle `preload.len() + i`.
    pub preload_copies: Vec<Handle>,
    /// One fixed stream per closed-loop client.
    pub clients: Vec<Vec<Request>>,
    /// `contended` only: a cycle the reader repeats until the writer ends.
    pub reader: Option<Vec<Request>>,
    /// Live `user` records once every stream has run.
    pub live: usize,
    /// Per client, the handles that must read as erased or unknown.
    pub erased: Vec<Vec<Handle>>,
}

impl Plan {
    pub fn shared_records(&self) -> usize {
        self.preload.len() + self.preload_copies.len()
    }
}

// ---------------------------------------------------------------------------
// The shadow store
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct ShadowRecord {
    subject: u64,
    live: bool,
    denied: bool,
    short_ttl: bool,
    row_bytes: u32,
}

#[derive(Debug, Clone, Default)]
struct Shadow {
    records: Vec<ShadowRecord>,
    /// Live handles per subject.
    by_subject: BTreeMap<u64, Vec<Handle>>,
    erased: Vec<Handle>,
}

impl Shadow {
    fn add(&mut self, subject: u64, decision: Decision, short_ttl: bool, row_bytes: u32) -> Handle {
        let handle = self.records.len() as Handle;
        self.records.push(ShadowRecord {
            subject,
            live: true,
            denied: decision == Decision::Deny,
            short_ttl,
            row_bytes,
        });
        self.by_subject.entry(subject).or_default().push(handle);
        handle
    }

    fn copy(&mut self, source: Handle) -> Handle {
        let record = self.records[source as usize].clone();
        let decision = if record.denied {
            Decision::Deny
        } else {
            Decision::Ano
        };
        self.add(record.subject, decision, record.short_ttl, record.row_bytes)
    }

    fn live_of(&self, subject: u64) -> &[Handle] {
        self.by_subject.get(&subject).map_or(&[], Vec::as_slice)
    }

    fn denied_of(&self, subject: u64) -> usize {
        self.live_of(subject)
            .iter()
            .filter(|&&h| self.records[h as usize].denied)
            .count()
    }

    fn set_decision(&mut self, subject: u64, decision: Decision) {
        for handle in self.live_of(subject).to_vec() {
            self.records[handle as usize].denied = decision == Decision::Deny;
        }
    }

    fn erase_subject(&mut self, subject: u64) -> usize {
        let handles = self.by_subject.remove(&subject).unwrap_or_default();
        for &handle in &handles {
            self.records[handle as usize].live = false;
        }
        self.erased.extend(&handles);
        handles.len()
    }

    fn erase_record(&mut self, handle: Handle) {
        let subject = self.records[handle as usize].subject;
        self.records[handle as usize].live = false;
        if let Some(live) = self.by_subject.get_mut(&subject) {
            live.retain(|&h| h != handle);
            if live.is_empty() {
                self.by_subject.remove(&subject);
            }
        }
        self.erased.push(handle);
    }

    fn expire_short_ttl(&mut self) -> usize {
        let expired: Vec<Handle> = (0..self.records.len() as Handle)
            .filter(|&h| {
                let record = &self.records[h as usize];
                record.live && record.short_ttl
            })
            .collect();
        for &handle in &expired {
            self.erase_record(handle);
        }
        expired.len()
    }

    fn live_total(&self) -> usize {
        self.by_subject.values().map(Vec::len).sum()
    }
}

// ---------------------------------------------------------------------------
// Shared generator pieces
// ---------------------------------------------------------------------------

/// A `user` row of Listing 1 with seed-drawn field lengths.
fn user_row(rng: &mut Rng) -> Row {
    let name_len = rng.between(8, 32);
    let pwd_len = rng.between(8, 24);
    Row::new()
        .with("name", rng.word(name_len))
        .with("pwd", rng.word(pwd_len))
        .with("year_of_birthdate", rng.between(1940, 2010) as i64)
}

fn row_bytes(row: &Row) -> u32 {
    row.encode().len() as u32
}

fn request(op: Op, payload: u32) -> Request {
    Request { op, payload }
}

/// `total` slots holding each tag in exact proportion to its weight (largest
/// remainders round up), in seed-shuffled order.  Drawing every request's
/// kind independently would let the number of erasures, and with it the
/// number of scrub passes and the tombstones left at the end, differ from
/// seed to seed; a shuffled exact mix keeps the work the same and only moves
/// it around.
fn schedule<T: Copy>(rng: &mut Rng, total: usize, weights: &[(T, usize)]) -> Vec<T> {
    let weight_sum: usize = weights.iter().map(|(_, w)| w).sum();
    let mut counts: Vec<usize> = weights
        .iter()
        .map(|(_, w)| total * w / weight_sum)
        .collect();
    let mut by_remainder: Vec<usize> = (0..weights.len()).collect();
    by_remainder.sort_by_key(|&i| std::cmp::Reverse(total * weights[i].1 % weight_sum));
    let short = total - counts.iter().sum::<usize>();
    for &i in by_remainder.iter().take(short) {
        counts[i] += 1;
    }
    let mut slots: Vec<T> = weights
        .iter()
        .zip(&counts)
        .flat_map(|((tag, _), &count)| std::iter::repeat_n(*tag, count))
        .collect();
    for i in (1..slots.len()).rev() {
        slots.swap(i, rng.below(i + 1));
    }
    slots
}

/// `records` records dealt round-robin over `subjects` subjects: every
/// subject owns the same number (give or take one), spread over the table as
/// if collected over time.  No single request dwarfs the others and the cost
/// of a request does not depend on which subjects a seed makes popular; the
/// skew is in which subjects are *asked for* ([`Targets`]).  `decide` maps a
/// record's rank within its subject to its membrane.
fn population(
    rng: &mut Rng,
    shadow: &mut Shadow,
    subjects: usize,
    records: usize,
    decide: impl Fn(usize) -> (Decision, bool),
) -> Vec<PreRecord> {
    (0..records)
        .map(|i| {
            let subject = (i % subjects) as u64;
            let row = user_row(rng);
            let (decision, short_ttl) = decide(i / subjects);
            shadow.add(subject, decision, short_ttl, row_bytes(&row));
            PreRecord {
                subject,
                row,
                decision,
                short_ttl,
            }
        })
        .collect()
}

fn default_membrane(_rank: usize) -> (Decision, bool) {
    (Decision::Ano, false)
}

/// Choice among a fixed list of subjects, skipping the ones that no longer
/// have live records: Zipf(1.0) by position in the list for the requests
/// that read or ask, uniform for the ones that reshape a subject (its
/// consent, its copies, its erasure) — were those Zipf too, the few most
/// popular subjects would differ from seed to seed in size and consent, and
/// every latency percentile with them.
struct Targets {
    subjects: Vec<u64>,
    zipf: Zipf,
}

impl Targets {
    fn new(subjects: Vec<u64>) -> Self {
        let zipf = Zipf::new(subjects.len());
        Self { subjects, zipf }
    }

    fn live_from(&self, start: usize, shadow: &Shadow) -> u64 {
        (0..self.subjects.len())
            .map(|step| self.subjects[(start + step) % self.subjects.len()])
            .find(|&subject| !shadow.live_of(subject).is_empty())
            .expect("the stream never erases every subject it targets")
    }

    fn popular(&self, rng: &mut Rng, shadow: &Shadow) -> u64 {
        self.live_from(self.zipf.sample(rng), shadow)
    }

    fn any(&self, rng: &mut Rng, shadow: &Shadow) -> u64 {
        self.live_from(rng.below(self.subjects.len()), shadow)
    }

    fn popular_record(&self, rng: &mut Rng, shadow: &Shadow) -> (Handle, u64) {
        let subject = self.popular(rng, shadow);
        let live = shadow.live_of(subject);
        (live[rng.below(live.len())], subject)
    }
}

fn boot_cfg(shards: usize, max_records: usize, cache_blocks: Option<usize>) -> BootCfg {
    let per_shard = (max_records / shards) as u64;
    BootCfg {
        shards,
        // A record takes an inode and at least one data block; tombstones
        // keep theirs until scrubbed.  Twice that, plus the journal and the
        // directories, leaves room on every seed.
        device_blocks: per_shard * 4 + 16_384,
        inode_count: per_shard * 2 + 1_024,
        cache_blocks,
    }
}

fn get_op(targets: &Targets, rng: &mut Rng, shadow: &Shadow) -> Request {
    let (target, subject) = targets.popular_record(rng, shadow);
    request(Op::Get { target, subject }, 0)
}

fn query_op(targets: &Targets, rng: &mut Rng, shadow: &Shadow) -> Request {
    let subject = targets.popular(rng, shadow);
    let records = shadow.live_of(subject).len();
    request(Op::QuerySubject { subject, records }, 0)
}

fn invoke_subject_op(targets: &Targets, rng: &mut Rng, shadow: &Shadow) -> Request {
    let subject = targets.popular(rng, shadow);
    request(
        Op::InvokeSubject {
            subject,
            records: shadow.live_of(subject).len(),
            denied: shadow.denied_of(subject),
        },
        0,
    )
}

fn access_op(targets: &Targets, rng: &mut Rng, shadow: &Shadow) -> Request {
    let subject = targets.popular(rng, shadow);
    let items = shadow.live_of(subject).len();
    request(Op::Access { subject, items }, 0)
}

/// A subject-wide consent change: half withdraw, the rest grant `all` or
/// the anonymised view.
fn consent_op(subject: u64, rng: &mut Rng, shadow: &mut Shadow) -> Request {
    let changed = shadow.live_of(subject).len();
    let op = match rng.below(4) {
        0 | 1 => {
            shadow.set_decision(subject, Decision::Deny);
            Op::Withdraw { subject, changed }
        }
        2 => {
            shadow.set_decision(subject, Decision::All);
            Op::Grant {
                subject,
                decision: Decision::All,
                changed,
            }
        }
        _ => {
            shadow.set_decision(subject, Decision::Ano);
            Op::Grant {
                subject,
                decision: Decision::Ano,
                changed,
            }
        }
    };
    request(op, CONSENT_PAYLOAD)
}

fn update_op(target: Handle, rng: &mut Rng, shadow: &mut Shadow, rectify: bool) -> Request {
    let row = user_row(rng);
    let bytes = row_bytes(&row);
    shadow.records[target as usize].row_bytes = bytes;
    let op = if rectify {
        Op::Rectify { target, row }
    } else {
        Op::Update { target, row }
    };
    request(op, bytes)
}

fn collect_many_op(rng: &mut Rng, shadow: &mut Shadow, owners: &[u64]) -> Request {
    let mut payload = 0;
    let rows = owners
        .iter()
        .map(|&subject| {
            let row = user_row(rng);
            let bytes = row_bytes(&row);
            payload += bytes;
            shadow.add(subject, Decision::Ano, false, bytes);
            (SubjectId::new(subject), row)
        })
        .collect();
    request(Op::CollectMany { rows }, payload)
}

fn collect_op(rng: &mut Rng, shadow: &mut Shadow, subject: u64) -> Request {
    let row = user_row(rng);
    let bytes = row_bytes(&row);
    shadow.add(subject, Decision::Ano, false, bytes);
    request(Op::Collect { subject, row }, bytes)
}

// ---------------------------------------------------------------------------
// ingest
// ---------------------------------------------------------------------------

/// Units of the ingest stream at nominal length, each 36 records and 13
/// requests: 300 units grow the table from empty to 10 800 records.
const INGEST_UNITS: usize = 300;
const INGEST_SUBJECTS: usize = 1_350;

fn ingest(seed: u64, scale: Scale) -> Plan {
    let mut rng = Rng::substream(seed, "ingest");
    let units = scale.stream(INGEST_UNITS);
    // The subject count follows the stream so records per subject stay at 8.
    let subjects = ((INGEST_SUBJECTS * units) / INGEST_UNITS).max(4);
    let mut shadow = Shadow::default();
    let mut stream = Vec::with_capacity(units * 13);
    let mut recent: Vec<Handle> = Vec::new();
    for _ in 0..units {
        let first = shadow.records.len() as Handle;
        let owners: Vec<u64> = (0..32).map(|_| rng.below(subjects) as u64).collect();
        stream.push(collect_many_op(&mut rng, &mut shadow, &owners));
        for _ in 0..4 {
            let subject = rng.below(subjects) as u64;
            stream.push(collect_op(&mut rng, &mut shadow, subject));
        }
        recent.clear();
        recent.extend(first..shadow.records.len() as Handle);
        // One consent grant over a subject written in this unit, one update
        // of any earlier record: both costs follow the population.
        let subject = shadow.records[recent[rng.below(recent.len())] as usize].subject;
        let changed = shadow.live_of(subject).len();
        shadow.set_decision(subject, Decision::All);
        stream.push(request(
            Op::Grant {
                subject,
                decision: Decision::All,
                changed,
            },
            CONSENT_PAYLOAD,
        ));
        let target = rng.below(shadow.records.len()) as Handle;
        stream.push(update_op(target, &mut rng, &mut shadow, false));
        // Read-your-write: four records by identifier, then everything two
        // of their subjects have (which grows with the table, and gives the
        // read class a tail longer than a cached `get`).
        for read in 0..6 {
            let target = recent[rng.below(recent.len())];
            let subject = shadow.records[target as usize].subject;
            let op = if read < 4 {
                Op::Get { target, subject }
            } else {
                let records = shadow.live_of(subject).len();
                Op::QuerySubject { subject, records }
            };
            stream.push(request(op, 0));
        }
    }
    Plan {
        boot: boot_cfg(1, units * 36, None),
        preload: Vec::new(),
        preload_copies: Vec::new(),
        clients: vec![stream],
        reader: None,
        live: shadow.live_total(),
        erased: vec![shadow.erased],
    }
}

// ---------------------------------------------------------------------------
// processing
// ---------------------------------------------------------------------------

const PROCESSING_RECORDS: usize = 8_000;
const PROCESSING_SUBJECTS: usize = 1_000;
const PROCESSING_REQUESTS: usize = 28_000;
/// One whole-type invocation per this many requests: each reads all 8 000
/// records, so a larger share would leave the run measuring little else.
const PROCESSING_WHOLE_TYPE_EVERY: usize = 4_000;

#[derive(Debug, Clone, Copy)]
enum ProcessingOp {
    Invoke,
    Get,
    Query,
    Consent,
}

fn processing(seed: u64, scale: Scale) -> Plan {
    let mut rng = Rng::substream(seed, "processing");
    let records = scale.population(PROCESSING_RECORDS);
    let subjects = scale.population(PROCESSING_SUBJECTS).min(records);
    let requests = scale.stream(PROCESSING_REQUESTS);
    let mut shadow = Shadow::default();
    // Of every eight records of a subject, six consent to everything, one to
    // the anonymised view and one to nothing: by rank, so that every subject
    // starts with the same mix and an invocation costs the same whoever a
    // seed makes popular.
    let preload = population(&mut rng, &mut shadow, subjects, records, |rank| {
        let decision = match rank % 8 {
            5 => Decision::Ano,
            7 => Decision::Deny,
            _ => Decision::All,
        };
        (decision, false)
    });
    let targets = Targets::new((0..subjects as u64).collect());
    let kinds = schedule(
        &mut rng,
        requests,
        &[
            (ProcessingOp::Invoke, 71),
            (ProcessingOp::Get, 15),
            (ProcessingOp::Query, 9),
            (ProcessingOp::Consent, 5),
        ],
    );
    let mut stream = Vec::with_capacity(requests);
    for (i, kind) in kinds.into_iter().enumerate() {
        if (i + 1) % PROCESSING_WHOLE_TYPE_EVERY == 0 {
            stream.push(request(Op::InvokeType { at_least: records }, 0));
            continue;
        }
        stream.push(match kind {
            ProcessingOp::Invoke => invoke_subject_op(&targets, &mut rng, &shadow),
            ProcessingOp::Get => get_op(&targets, &mut rng, &shadow),
            ProcessingOp::Query => query_op(&targets, &mut rng, &shadow),
            ProcessingOp::Consent => {
                let subject = targets.any(&mut rng, &shadow);
                consent_op(subject, &mut rng, &mut shadow)
            }
        });
    }
    Plan {
        boot: boot_cfg(1, records, None),
        preload,
        preload_copies: Vec::new(),
        clients: vec![stream],
        reader: None,
        live: shadow.live_total(),
        erased: vec![shadow.erased],
    }
}

// ---------------------------------------------------------------------------
// rights
// ---------------------------------------------------------------------------

const RIGHTS_RECORDS: usize = 3_000;
const RIGHTS_SUBJECTS: usize = 600;
/// Events of the rights stream; an erasure event is two requests (the
/// erasure and the signup that follows it), so the stream has about 5 300.
const RIGHTS_EVENTS: usize = 4_500;
/// Erasure requests between two scrub passes.
const RIGHTS_SCRUB_EVERY: usize = 250;
/// Blocks of buffer cache: more than the device holds, so the whole
/// working set fits (the default is 1 024).
const RIGHTS_CACHE_BLOCKS: usize = 65_536;

#[derive(Debug, Clone, Copy)]
enum RightsOp {
    Access,
    Portability,
    Consent,
    Rectify,
    Copy,
    Erasure,
}

fn rights(seed: u64, scale: Scale) -> Plan {
    let mut rng = Rng::substream(seed, "rights");
    let records = scale.population(RIGHTS_RECORDS);
    let subjects = scale.population(RIGHTS_SUBJECTS).min(records);
    let events = scale.stream(RIGHTS_EVENTS);
    let scrub_every = ((RIGHTS_SCRUB_EVERY as f64 * scale.stream) as usize).clamp(4, 250);
    let mut shadow = Shadow::default();
    // Every subject's fifth record expires after a month instead of a year.
    let preload = population(&mut rng, &mut shadow, subjects, records, |rank| {
        (Decision::Ano, rank == 4)
    });
    // One record in ten has a lineage copy.
    let preload_copies: Vec<Handle> = (0..records as Handle).filter(|h| h % 10 == 3).collect();
    for &source in &preload_copies {
        shadow.copy(source);
    }
    let kinds = schedule(
        &mut rng,
        events,
        &[
            (RightsOp::Access, 35),
            (RightsOp::Portability, 12),
            (RightsOp::Consent, 24),
            (RightsOp::Rectify, 6),
            (RightsOp::Copy, 6),
            (RightsOp::Erasure, 17),
        ],
    );
    let mut known: Vec<u64> = (0..subjects as u64).collect();
    let mut next_subject = 1_000_000u64;
    let mut erasures = 0usize;
    let mut stream = Vec::with_capacity(events * 5 / 4);
    for kind in kinds {
        // Erased subjects leave the list, signed-up ones join it, so the
        // Zipf ranks keep pointing at subjects that have data.
        let targets = Targets::new(known.clone());
        match kind {
            RightsOp::Access => stream.push(access_op(&targets, &mut rng, &shadow)),
            RightsOp::Portability => {
                let subject = targets.popular(&mut rng, &shadow);
                let items = shadow.live_of(subject).len();
                stream.push(request(Op::Portability { subject, items }, 0));
            }
            RightsOp::Consent => {
                let subject = targets.popular(&mut rng, &shadow);
                stream.push(consent_op(subject, &mut rng, &mut shadow));
            }
            RightsOp::Rectify => {
                let (target, _) = targets.popular_record(&mut rng, &shadow);
                stream.push(update_op(target, &mut rng, &mut shadow, true));
            }
            RightsOp::Copy => {
                let subject = targets.any(&mut rng, &shadow);
                let live = shadow.live_of(subject);
                let target = live[rng.below(live.len())];
                let payload = shadow.records[target as usize].row_bytes;
                shadow.copy(target);
                stream.push(request(Op::Copy { target }, payload));
            }
            RightsOp::Erasure => {
                // An erasure, and a signup of as many records under a new
                // subject: the live population holds while tombstones pile up.
                let subject = targets.any(&mut rng, &shadow);
                let erased = shadow.erase_subject(subject);
                known.retain(|&s| s != subject);
                stream.push(request(Op::Forget { subject, erased }, 0));
                erasures += 1;
                if erasures.is_multiple_of(scrub_every) {
                    stream.push(request(Op::Scrub, 0));
                }
                next_subject += 1;
                known.push(next_subject);
                let owners = vec![next_subject; erased.clamp(1, 12)];
                stream.push(collect_many_op(&mut rng, &mut shadow, &owners));
            }
        }
    }
    let expired = shadow.expire_short_ttl();
    stream.push(request(Op::Retention { expired }, 0));
    let max_records = records + preload_copies.len() + events * 2;
    Plan {
        boot: boot_cfg(1, max_records, Some(RIGHTS_CACHE_BLOCKS)),
        preload,
        preload_copies,
        clients: vec![stream],
        reader: None,
        live: shadow.live_total(),
        erased: vec![shadow.erased],
    }
}

// ---------------------------------------------------------------------------
// sharded
// ---------------------------------------------------------------------------

const SHARDED_SHARDS: usize = 4;
const SHARDED_CLIENTS: usize = 2;
const SHARDED_RECORDS: usize = 12_000;
const SHARDED_SUBJECTS: usize = 1_500;
/// Requests of client 0.
const SHARDED_REQUESTS: usize = 9_000;
/// Requests of client 1 per thousand of client 0's, set so that the two end
/// together at the commit that added the benchmark.
const SHARDED_CLIENT1_PER_MILLE: usize = 800;
/// Client 0 sends one whole-type invocation per this many requests: each
/// reads every record on every shard, so they are counted, not drawn.
const SHARDED_WHOLE_TYPE_EVERY: usize = 750;

#[derive(Debug, Clone, Copy)]
enum ShardedOp {
    Get,
    Query,
    Update,
    Consent,
    Collect,
    Invoke,
    Access,
    Erasure,
}

/// Client 0 is the controller: every request that rewrites or erases a
/// record in place, and every whole-type invocation, is its own, one after
/// the other.  Client 1 reads its half and collects new records.  At this
/// commit a whole-type read that meets a record being rewritten or erased
/// under it fails as a whole (`PartialScatter`: `corrupt dbfs structure` or
/// `has been erased`), and a workload's requests must not fail.
const SHARDED_MIX: [&[(ShardedOp, usize)]; SHARDED_CLIENTS] = [
    &[
        (ShardedOp::Get, 20),
        (ShardedOp::Query, 20),
        (ShardedOp::Update, 24),
        (ShardedOp::Consent, 20),
        (ShardedOp::Invoke, 14),
        (ShardedOp::Erasure, 2),
    ],
    &[
        (ShardedOp::Get, 35),
        (ShardedOp::Query, 25),
        (ShardedOp::Collect, 30),
        (ShardedOp::Invoke, 6),
        (ShardedOp::Access, 4),
    ],
];

fn sharded(seed: u64, scale: Scale) -> Plan {
    let mut rng = Rng::substream(seed, "sharded");
    let records = scale.population(SHARDED_RECORDS);
    let subjects = scale.population(SHARDED_SUBJECTS).min(records);
    let mut shadow = Shadow::default();
    let preload = population(&mut rng, &mut shadow, subjects, records, default_membrane);
    // One record in twenty has a copy; the router places copies round-robin,
    // so three in four land on another shard than their original.
    let preload_copies: Vec<Handle> = (0..records as Handle).filter(|h| h % 20 == 7).collect();
    for &source in &preload_copies {
        shadow.copy(source);
    }
    let mut clients = Vec::new();
    let mut erased = Vec::new();
    let mut live = 0;
    let mut total_requests = 0;
    for (client, mix) in SHARDED_MIX.iter().enumerate() {
        let mut rng = Rng::substream(seed, &format!("sharded-client-{client}"));
        // A client only names subjects of its own half, so no request meets
        // a record the other client changed; the router, the pool, the
        // lineage directory, the per-shard index locks and the caches are
        // where the two meet.
        let mut shadow = shadow.clone();
        let own: Vec<u64> = (0..subjects as u64)
            .filter(|s| (*s as usize) % SHARDED_CLIENTS == client)
            .collect();
        shadow.by_subject.retain(|s, _| own.contains(s));
        let targets = Targets::new(own);
        let mut next_subject = 1_000_000 * (client as u64 + 1);
        let requests = match client {
            0 => scale.stream(SHARDED_REQUESTS),
            _ => scale.stream(SHARDED_REQUESTS * SHARDED_CLIENT1_PER_MILLE / 1_000),
        };
        total_requests += requests;
        let kinds = schedule(&mut rng, requests, mix);
        let mut stream = Vec::with_capacity(requests);
        for (i, kind) in kinds.into_iter().enumerate() {
            if client == 0 && (i + 1) % SHARDED_WHOLE_TYPE_EVERY == 0 {
                stream.push(request(Op::InvokeType { at_least: 1 }, 0));
                continue;
            }
            stream.push(match kind {
                ShardedOp::Get => get_op(&targets, &mut rng, &shadow),
                ShardedOp::Query => query_op(&targets, &mut rng, &shadow),
                ShardedOp::Update => {
                    let (target, _) = targets.popular_record(&mut rng, &shadow);
                    update_op(target, &mut rng, &mut shadow, false)
                }
                ShardedOp::Consent => {
                    let subject = targets.any(&mut rng, &shadow);
                    consent_op(subject, &mut rng, &mut shadow)
                }
                ShardedOp::Collect => {
                    // Four records per new subject, from the client's own
                    // range of subject identifiers.
                    if shadow.live_of(next_subject).len() >= 4 {
                        next_subject += 1;
                    }
                    collect_op(&mut rng, &mut shadow, next_subject)
                }
                ShardedOp::Invoke => invoke_subject_op(&targets, &mut rng, &shadow),
                ShardedOp::Access => access_op(&targets, &mut rng, &shadow),
                ShardedOp::Erasure => {
                    let subject = targets.any(&mut rng, &shadow);
                    let erased = shadow.erase_subject(subject);
                    request(Op::Forget { subject, erased }, 0)
                }
            });
        }
        live += shadow.live_total();
        erased.push(shadow.erased);
        clients.push(stream);
    }
    let max_records = records + preload_copies.len() + total_requests;
    Plan {
        boot: boot_cfg(SHARDED_SHARDS, max_records * 2, None),
        preload,
        preload_copies,
        clients,
        reader: None,
        live,
        erased,
    }
}

// ---------------------------------------------------------------------------
// contended
// ---------------------------------------------------------------------------

const CONTENDED_RECORDS: usize = 4_000;
const CONTENDED_SUBJECTS: usize = 500;
const CONTENDED_WRITES: usize = 4_500;
const CONTENDED_SCRUB_EVERY: usize = 200;
const CONTENDED_READER_CYCLE: usize = 4_096;

#[derive(Debug, Clone, Copy)]
enum WriterOp {
    CollectMany,
    Update,
    Erase,
}

fn contended(seed: u64, scale: Scale) -> Plan {
    let mut rng = Rng::substream(seed, "contended");
    let records = scale.population(CONTENDED_RECORDS);
    let subjects = scale.population(CONTENDED_SUBJECTS).min(records);
    let writes = scale.stream(CONTENDED_WRITES);
    let scrub_every = ((CONTENDED_SCRUB_EVERY as f64 * scale.stream) as usize).clamp(4, 200);
    let mut shadow = Shadow::default();
    let preload = population(&mut rng, &mut shadow, subjects, records, default_membrane);
    // The reader names preloaded records only; the writer rewrites and
    // erases only records it collected itself, under subjects the reader
    // never asks for.  At this commit a read that meets a record being
    // rewritten, or one the scrubber is reclaiming, can fail (`corrupt dbfs
    // structure`, `invalid inode`), and a workload's requests must not
    // fail.  The two threads still share the index, its lock, the snapshots,
    // the journal and the cache.
    let targets = Targets::new((0..subjects as u64).collect());
    let mut reader_rng = Rng::substream(seed, "contended-reader");
    let reader: Vec<Request> = (0..CONTENDED_READER_CYCLE)
        .map(|_| {
            let (target, subject) = targets.popular_record(&mut reader_rng, &shadow);
            let records = shadow.live_of(subject).len();
            // Three reads in ten are by identifier and take a tenth of the
            // time of the others: the median read then lies well inside
            // the subject-wide ones.  At five in ten it sat on the edge
            // between the two and moved by a fifth from run to run.
            let op = match reader_rng.below(10) {
                0..=2 => Op::Get { target, subject },
                3..=5 => Op::QuerySubject { subject, records },
                6 => Op::Count { at_least: records },
                _ => Op::Membranes { subject, records },
            };
            request(op, 0)
        })
        .collect();

    let kinds = schedule(
        &mut rng,
        writes.saturating_sub(1),
        &[
            (WriterOp::CollectMany, 10),
            (WriterOp::Update, 65),
            (WriterOp::Erase, 25),
        ],
    );
    let mut next_subject = 1_000_000u64;
    let mut erasures = 0usize;
    let mut stream = Vec::with_capacity(writes + writes / scrub_every);
    // The first request gives the writer records of its own.
    stream.push(collect_many_op(&mut rng, &mut shadow, &[next_subject; 8]));
    for kind in kinds {
        // The writer's own live records: a random one to rewrite, the most
        // recent one to erase, more when none is left.
        let own: Vec<Handle> = (records as Handle..shadow.records.len() as Handle)
            .filter(|&h| shadow.records[h as usize].live)
            .collect();
        match (kind, own.last()) {
            (WriterOp::CollectMany, _) | (_, None) => {
                next_subject += 1;
                stream.push(collect_many_op(&mut rng, &mut shadow, &[next_subject; 8]));
            }
            (WriterOp::Update, Some(_)) => {
                let target = own[rng.below(own.len())];
                stream.push(update_op(target, &mut rng, &mut shadow, false));
            }
            (WriterOp::Erase, Some(&newest)) => {
                shadow.erase_record(newest);
                stream.push(request(Op::EraseRecord { target: newest }, 0));
                erasures += 1;
                if erasures.is_multiple_of(scrub_every) {
                    stream.push(request(Op::Scrub, 0));
                }
            }
        }
    }
    Plan {
        boot: boot_cfg(1, records + writes * 2, None),
        preload,
        preload_copies: Vec::new(),
        clients: vec![stream],
        reader: Some(reader),
        live: shadow.live_total(),
        erased: vec![shadow.erased],
    }
}

// ---------------------------------------------------------------------------
// The workload table
// ---------------------------------------------------------------------------

pub struct Workload {
    pub name: &'static str,
    pub sharded: bool,
    /// Set-ups timed per run; `setup_s` is their median.
    pub setup_reps: usize,
    pub plan: fn(u64, Scale) -> Plan,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "ingest",
        sharded: false,
        // An empty store sets up in under a millisecond.
        setup_reps: 301,
        plan: ingest,
    },
    Workload {
        name: "processing",
        sharded: false,
        setup_reps: 3,
        plan: processing,
    },
    Workload {
        name: "rights",
        sharded: false,
        setup_reps: 5,
        plan: rights,
    },
    Workload {
        name: "sharded",
        sharded: true,
        setup_reps: 3,
        plan: sharded,
    },
    Workload {
        name: "contended",
        sharded: false,
        setup_reps: 5,
        plan: contended,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_a_function_of_the_seed() {
        for workload in &WORKLOADS {
            let a = (workload.plan)(7, SMOKE);
            let b = (workload.plan)(7, SMOKE);
            let c = (workload.plan)(8, SMOKE);
            assert_eq!(format!("{:?}", a.clients), format!("{:?}", b.clients));
            assert_ne!(format!("{:?}", a.clients), format!("{:?}", c.clients));
        }
    }

    #[test]
    fn nominal_streams_give_each_latency_class_200_samples() {
        let nominal = Scale {
            stream: 1.0,
            population: 1.0,
        };
        for workload in &WORKLOADS {
            let plan = (workload.plan)(0x2018_0525, nominal);
            let writes = plan
                .clients
                .iter()
                .flatten()
                .filter(|r| r.op.kind().is_write())
                .count();
            let reads = plan.clients.iter().flatten().count() - writes;
            assert!(writes >= 200, "{}: {writes} writes", workload.name);
            // `contended` reads come from the looping reader.
            assert!(
                reads >= 200 || plan.reader.is_some(),
                "{}: {reads} reads",
                workload.name
            );
        }
    }
}
