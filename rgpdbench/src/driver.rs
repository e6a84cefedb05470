//! One pass of a workload: set the system up, run every client's stream in
//! a closed loop, and check what the system returned and what it holds.

use crate::span::{self, Layer, NO_SHARD};
use crate::stream::{Decision, Handle, Kind, Op, Plan, PreRecord, Request, SHORT_TTL_DAYS};
use crate::sut::{text, Backend, Sut, BLOCK_SIZE};
use rgpdos::blockdev::DeviceStats;
use rgpdos::core::{
    ConsentDecision, DataTypeId, Duration, FieldValue, Membrane, MembraneDelta, PdId, ProcessingId,
    PurposeId, SubjectId, TimeToLive, ViewId, WrappedPd,
};
use rgpdos::dbfs::{DbfsError, PdStore, QueryRequest, SpaceStats};
use rgpdos::ded::InvokeRequest;
use rgpdos::dsl::listings::{LISTING_1, LISTING_2_C, LISTING_2_PURPOSE};
use rgpdos::ps::{ProcessingOutput, ProcessingSpec};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// The purpose of `compute_age` (Listing 2), the one consent changes name.
const PURPOSE: &str = "purpose3";
/// The end-state image is mounted once untimed, then nine times, and then
/// until three seconds have gone into mounts or 41 are done.  The box slows
/// down in bursts of a second or so; a handful of mounts inside one burst
/// reads the burst, a dozen spread over three seconds straddle it.
const REMOUNTS: std::ops::RangeInclusive<usize> = 9..=41;
const REMOUNT_S: f64 = 3.0;

/// A booted, preloaded system.
pub struct Ready<T: Sut> {
    pub sut: T,
    /// Identifiers of the preloaded records and their copies, by handle.
    pub ids: Vec<PdId>,
    compute_age: ProcessingId,
    user: DataTypeId,
    purpose: PurposeId,
}

pub fn compute_age_spec() -> Result<ProcessingSpec, String> {
    Ok(ProcessingSpec::builder("compute_age", "user")
        .source(LISTING_2_C)
        .purpose_declaration(LISTING_2_PURPOSE)
        .map_err(|e| e.to_string())?
        .expected_view("v_ano")
        .output_type("age_pd")
        .function(Arc::new(|row| {
            let year = row
                .get("year_of_birthdate")
                .and_then(FieldValue::as_int)
                .ok_or("age not allowed to be seen")?;
            Ok(ProcessingOutput::Value(FieldValue::Int(2022 - year)))
        }))
        .build())
}

fn consent(decision: Decision) -> ConsentDecision {
    match decision {
        Decision::All => ConsentDecision::All,
        Decision::Ano => ConsentDecision::View(ViewId::from("v_ano")),
        Decision::Deny => ConsentDecision::None,
    }
}

/// Boot, `install_types`, register `compute_age`, preload: what `setup_s`
/// times.
pub fn setup<T: Sut>(plan: &Plan, preload: Vec<PreRecord>) -> Result<Ready<T>, String> {
    let sut = T::boot(&plan.boot)?;
    sut.install_types(LISTING_1)?;
    let compute_age = sut.register(compute_age_spec()?)?;
    let user = DataTypeId::from("user");
    let purpose = PurposeId::from(PURPOSE);
    let store = sut.store();
    let mut ids = Vec::with_capacity(plan.shared_records());
    if !preload.is_empty() {
        let schema = store.schema(&user).map_err(|e| e.to_string())?;
        let now = sut.clock().now();
        let items = preload
            .into_iter()
            .map(|record| {
                let mut membrane =
                    Membrane::from_schema(&schema, SubjectId::new(record.subject), now);
                if record.decision != Decision::Ano {
                    membrane.apply(&MembraneDelta::Grant {
                        purpose: purpose.clone(),
                        decision: consent(record.decision),
                    });
                }
                if record.short_ttl {
                    membrane.apply(&MembraneDelta::SetTimeToLive {
                        ttl: TimeToLive::days(SHORT_TTL_DAYS),
                    });
                }
                (user.clone(), WrappedPd::new(record.row, membrane))
            })
            .collect();
        ids = store.insert_many(items).map_err(|e| e.to_string())?;
        for &source in &plan.preload_copies {
            let copy = sut.copy(&user, ids[source as usize])?;
            ids.push(copy);
        }
    }
    Ok(Ready {
        sut,
        ids,
        compute_age,
        user,
        purpose,
    })
}

/// What one client saw.
#[derive(Debug, Default)]
pub struct ClientResult {
    /// Latency of every request, in nanoseconds.
    pub samples: Vec<(Kind, u64)>,
    pub failed: u64,
    pub first_error: Option<String>,
    /// Identifiers of the records this client created, in creation order.
    pub local_ids: Vec<PdId>,
    pub payload_bytes: u64,
    pub records_processed: u64,
    pub records_denied: u64,
    pub records_erased: u64,
    pub tombstones_reclaimed: u64,
}

struct Client<'a, T: Sut> {
    ready: &'a Ready<T>,
    result: ClientResult,
}

/// The identifier behind a handle: the shared (preloaded) records come
/// first, then the records the client created itself.
fn resolve(shared: &[PdId], local: &[PdId], handle: Handle) -> PdId {
    match (handle as usize).checked_sub(shared.len()) {
        None => shared[handle as usize],
        Some(own) => local[own],
    }
}

impl<T: Sut> Client<'_, T> {
    fn id(&self, handle: Handle) -> PdId {
        resolve(&self.ready.ids, &self.result.local_ids, handle)
    }

    fn run(&mut self, request: Request) {
        let kind = request.op.kind();
        self.result.payload_bytes += u64::from(request.payload);
        let span = T::TRACED.then(|| span::enter(Layer::Request, kind.name(), NO_SHARD));
        let start = Instant::now();
        let outcome = self.exec(request.op);
        let ns = start.elapsed().as_nanos() as u64;
        drop(span);
        self.result.samples.push((kind, ns));
        if let Err(error) = outcome {
            self.result.failed += 1;
            self.result
                .first_error
                .get_or_insert(format!("{}: {error}", kind.name()));
        }
    }

    fn exec(&mut self, op: Op) -> Result<(), String> {
        let Ready {
            sut,
            compute_age,
            user,
            purpose,
            ..
        } = self.ready;
        let store = sut.store();
        match op {
            Op::CollectMany { rows } => {
                let expected = rows.len();
                let ids = store.collect_many(user, rows).map_err(text)?;
                expect("records collected", ids.len(), expected)?;
                self.result.local_ids.extend(ids);
            }
            Op::Collect { subject, row } => {
                let id = sut.collect(user, SubjectId::new(subject), row)?;
                self.result.local_ids.push(id);
            }
            Op::Update { target, row } => {
                store.update_row(user, self.id(target), row).map_err(text)?;
            }
            Op::Rectify { target, row } => sut.rectify(user, self.id(target), row)?,
            Op::Grant {
                subject,
                decision,
                changed,
            } => {
                let got = sut.grant_consent(SubjectId::new(subject), purpose, consent(decision))?;
                expect("membranes changed", got, changed)?;
            }
            Op::Withdraw { subject, changed } => {
                let got = sut.withdraw_consent(SubjectId::new(subject), purpose)?;
                expect("membranes changed", got, changed)?;
            }
            Op::Copy { target } => {
                let id = sut.copy(user, self.id(target))?;
                self.result.local_ids.push(id);
            }
            Op::Forget { subject, erased } => {
                let got = sut.forget(SubjectId::new(subject))?;
                self.result.records_erased += got.len() as u64;
                expect("records erased", got.len(), erased)?;
            }
            Op::EraseRecord { target } => {
                let got = store
                    .erase(user, self.id(target), sut.escrow())
                    .map_err(text)?;
                self.result.records_erased += got.len() as u64;
                expect("records erased", got.len(), 1)?;
            }
            Op::Scrub => {
                let report = store.scrub_tombstones().map_err(text)?;
                self.result.tombstones_reclaimed += report.reclaimed_count() as u64;
                expect("tombstones held by an intent", report.retained_intent, 0)?;
            }
            Op::Retention { expired } => {
                sut.clock().advance(Duration::from_days(SHORT_TTL_DAYS + 1));
                let got = sut.enforce_retention()?;
                self.result.records_erased += got.len() as u64;
                expect("records expired", got.len(), expired)?;
            }
            Op::Get { target, subject } => {
                let record = store.get(user, self.id(target)).map_err(text)?;
                expect("subject of the record", record.subject().raw(), subject)?;
                expect("erased", record.membrane().is_erased(), false)?;
            }
            Op::QuerySubject { subject, records } => {
                let request = QueryRequest::all(user.clone()).for_subject(SubjectId::new(subject));
                let batch = store.query(&request).map_err(text)?;
                expect("records of the subject", batch.len(), records)?;
            }
            Op::Membranes { subject, records } => {
                let membranes = store
                    .load_membranes_for_subject(user, SubjectId::new(subject))
                    .map_err(text)?;
                expect("membranes of the subject", membranes.len(), records)?;
            }
            Op::Count { at_least } => {
                let count = store.count(user).map_err(text)?;
                if count < at_least {
                    return Err(format!("count {count} below {at_least}"));
                }
            }
            Op::InvokeSubject {
                subject,
                records,
                denied,
            } => {
                let request = InvokeRequest::subject(SubjectId::new(subject));
                let result = sut.invoke(*compute_age, request)?;
                self.result.records_processed += result.processed as u64;
                self.result.records_denied += result.denied as u64;
                expect("records seen", result.processed + result.denied, records)?;
                expect("records denied", result.denied, denied)?;
                expect("ages computed", result.values.len(), records - denied)?;
            }
            Op::InvokeType { at_least } => {
                let result = sut.invoke(*compute_age, InvokeRequest::whole_type())?;
                self.result.records_processed += result.processed as u64;
                self.result.records_denied += result.denied as u64;
                if result.processed + result.denied < at_least {
                    return Err(format!(
                        "whole-type invocation saw {} records, below {at_least}",
                        result.processed + result.denied
                    ));
                }
                expect("ages computed", result.values.len(), result.processed)?;
            }
            Op::Access { subject, items } => {
                expect("items", sut.access(SubjectId::new(subject))?, items)?;
            }
            Op::Portability { subject, items } => {
                expect("items", sut.portability(SubjectId::new(subject))?, items)?;
            }
        }
        Ok(())
    }
}

fn expect<V: PartialEq + std::fmt::Debug>(what: &str, got: V, want: V) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, expected {want:?}"))
    }
}

/// What the stream did, before any check.
#[derive(Debug)]
pub struct StreamOutcome {
    /// Seconds from the clients' common start to the last one's end.
    pub wall_s: f64,
    /// One per fixed-stream client, then the looping reader if any.
    pub clients: Vec<ClientResult>,
    /// How many of `clients` ran a fixed stream.
    pub fixed_clients: usize,
    /// Device counters over the stream alone.
    pub device: DeviceStats,
}

impl StreamOutcome {
    /// Requests of the fixed streams (the looping reader's excluded).
    pub fn fixed_requests(&self) -> u64 {
        self.clients[..self.fixed_clients]
            .iter()
            .map(|c| c.samples.len() as u64)
            .sum()
    }

    pub fn requests(&self) -> u64 {
        self.clients.iter().map(|c| c.samples.len() as u64).sum()
    }

    pub fn failed(&self) -> u64 {
        self.clients.iter().map(|c| c.failed).sum()
    }

    pub fn sum(&self, field: impl Fn(&ClientResult) -> u64) -> u64 {
        self.clients.iter().map(field).sum()
    }
}

fn delta(after: DeviceStats, before: DeviceStats) -> DeviceStats {
    DeviceStats {
        reads: after.reads - before.reads,
        writes: after.writes - before.writes,
        flushes: after.flushes - before.flushes,
        simulated_us: after.simulated_us - before.simulated_us,
    }
}

/// Runs every client of the plan to the end of its stream, each on its own
/// thread, each waiting for a reply before its next request.
pub fn run_streams<T: Sut>(
    ready: &Ready<T>,
    streams: Vec<Vec<Request>>,
    reader: Option<Vec<Request>>,
) -> StreamOutcome {
    let fixed_clients = streams.len();
    let threads = fixed_clients + usize::from(reader.is_some());
    let barrier = Barrier::new(threads + 1);
    let writers_done = AtomicBool::new(false);
    let before = ready.sut.device_stats();
    let (wall_s, clients) = std::thread::scope(|scope| {
        let mut handles: Vec<_> = streams
            .into_iter()
            .map(|stream| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = Client {
                        ready,
                        result: ClientResult::default(),
                    };
                    client.result.samples.reserve(stream.len());
                    barrier.wait();
                    for request in stream {
                        client.run(request);
                    }
                    client.result
                })
            })
            .collect();
        if let Some(cycle) = reader {
            let (barrier, done) = (&barrier, &writers_done);
            handles.push(scope.spawn(move || {
                let mut client = Client {
                    ready,
                    result: ClientResult::default(),
                };
                barrier.wait();
                'run: loop {
                    for request in &cycle {
                        if done.load(Ordering::Acquire) {
                            break 'run;
                        }
                        client.run(request.clone());
                    }
                }
                client.result
            }));
        }
        barrier.wait();
        let start = Instant::now();
        let mut results = Vec::with_capacity(handles.len());
        let mut wall_s = 0.0;
        for (index, handle) in handles.into_iter().enumerate() {
            results.push(handle.join().expect("a client thread panicked"));
            if index + 1 == fixed_clients {
                wall_s = start.elapsed().as_secs_f64();
                // Release pairs with the reader's Acquire load.
                writers_done.store(true, Ordering::Release);
            }
        }
        (wall_s, results)
    });
    StreamOutcome {
        wall_s,
        clients,
        fixed_clients,
        device: delta(ready.sut.device_stats(), before),
    }
}

/// What the store holds at the end, as the checks found it.
#[derive(Debug, Clone, Copy)]
pub struct EndState {
    pub space: SpaceStats,
    pub audit_events: usize,
}

/// The output checks.  Any failure here fails the run: no number is
/// reported for a system that holds the wrong data.
pub fn check_end_state<T: Sut>(
    ready: &Ready<T>,
    plan: &Plan,
    outcome: &StreamOutcome,
) -> Result<EndState, String> {
    let store = ready.sut.store();
    let user = &ready.user;
    let live = store.count(user).map_err(text)?;
    expect("live records", live, plan.live)?;
    let space = store.space_stats().map_err(text)?;
    expect("live records by space_stats", space.live_records, plan.live)?;
    let erased: usize = plan.erased.iter().map(Vec::len).sum();
    expect(
        "records erased by the stream",
        outcome.sum(|c| c.records_erased) as usize,
        erased,
    )?;
    let reclaimed = outcome.sum(|c| c.tombstones_reclaimed) as usize;
    expect("tombstones", space.tombstone_records, erased - reclaimed)?;
    store.verify_index_invariants().map_err(text)?;
    for (handles, client) in plan.erased.iter().zip(&outcome.clients) {
        for &handle in handles {
            let id = resolve(&ready.ids, &client.local_ids, handle);
            match store.get(user, id) {
                // Reclaimed by a scrub pass, or erased under the reader.
                Err(DbfsError::Erased { .. } | DbfsError::UnknownPd { .. }) => {}
                // A tombstone: the erased membrane over the escrowed
                // ciphertext, none of the row's fields.
                Ok(record) if record.membrane().is_erased() && !record.row().contains("name") => {}
                Ok(_) => return Err(format!("erased record {id} is still readable")),
                Err(error) => return Err(format!("erased record {id}: {error}")),
            }
        }
    }
    if !ready.sut.compliant()? {
        return Err("the compliance report has failures".to_owned());
    }
    Ok(EndState {
        space,
        audit_events: ready.sut.audit_len(),
    })
}

/// Drops the system and mounts its end-state image repeatedly.
/// Returns each timed mount's milliseconds.  The first mount is the warm-up
/// (the allocator has just taken back the whole system) and the one whose
/// store is checked against what the live one reported.
pub fn remount<T: Sut>(ready: Ready<T>, end: &EndState) -> Result<Vec<f64>, String> {
    let devices = ready.sut.mount_devices();
    let user = ready.user.clone();
    drop(ready);
    let mounted = T::Backend::mount(devices.clone()).map_err(text)?;
    let count = mounted.count(&user).map_err(text)?;
    expect("live records after remount", count, end.space.live_records)?;
    let space = mounted.space_stats().map_err(text)?;
    expect("space_stats after remount", space, end.space)?;
    drop(mounted);
    let mut times = Vec::new();
    let began = Instant::now();
    while times.len() < *REMOUNTS.start()
        || (times.len() < *REMOUNTS.end() && began.elapsed().as_secs_f64() < REMOUNT_S)
    {
        let start = Instant::now();
        let mounted = T::Backend::mount(devices.clone()).map_err(text)?;
        times.push(start.elapsed().as_secs_f64() * 1_000.0);
        // Taking the store down again is not part of a mount.
        drop(mounted);
    }
    Ok(times)
}

/// Per-instance counters summed over the store's `Dbfs` instances.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreCounters {
    pub journal_txs: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub allocated_blocks: u64,
    pub index_lock_holds: u64,
    pub snapshot_epochs: u64,
}

pub fn store_counters<B: Backend>(backend: &B) -> StoreCounters {
    let mut total = StoreCounters::default();
    for instance in backend.instances() {
        let fs = instance.inode_fs();
        let cache = fs.cache_stats();
        total.journal_txs += fs.journal_txs();
        total.cache_hits += cache.hits;
        total.cache_misses += cache.misses;
        total.allocated_blocks += fs.allocated_blocks();
        total.index_lock_holds += instance.index_lock_holds();
        total.snapshot_epochs += instance.snapshot_info().0;
    }
    total
}

pub fn block_bytes(blocks: u64) -> f64 {
    (blocks * BLOCK_SIZE as u64) as f64
}
