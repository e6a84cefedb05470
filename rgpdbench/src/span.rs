//! Spans recorded from outside the system, at the layer boundaries the
//! benchmark can reach through public types: one per request, one per call
//! into the rights engine or the DED, one per `PdStore` method
//! ([`SpanStore`]) and one per device operation ([`SpanDevice`]).
//!
//! Spans stay in memory until the pass ends.  Each thread appends to its own
//! buffer and keeps its own parent stack, so a span's parent is the span
//! open on the same thread when it started.  The shard pool's worker threads
//! belong to the product and have no parent to offer: their device spans
//! carry the shard index instead.

use rgpdos::blockdev::sanitize::BlockSanitizer;
use rgpdos::blockdev::{BlockDevice, DeviceError, DeviceGeometry};
use rgpdos::core::{
    AuditLog, DataTypeId, DataTypeSchema, LogicalClock, Membrane, MembraneDelta, PdId, PdRecord,
    RecordBatch, Row, SubjectId, WrappedPd,
};
use rgpdos::crypto::escrow::OperatorEscrow;
use rgpdos::dbfs::{DbfsError, DbfsStats, PdStore, QueryRequest, ScrubReport, SpaceStats};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// The layer a span belongs to.  `Store` is reported as `dbfs` on the
/// single-store workloads and as `shard` on the sharded one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Request,
    Rights,
    Ded,
    Store,
    Device,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Request => "runtime",
            Layer::Rights => "rights",
            Layer::Ded => "ded",
            Layer::Store => "store",
            Layer::Device => "blockdev",
        }
    }
}

/// `shard` of a span that is not tied to one shard.
pub const NO_SHARD: u8 = u8::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    /// 0 when the span has no parent on its thread.
    pub parent: u32,
    /// The request open on the recording thread, 0 outside any request.
    pub request: u32,
    pub layer: Layer,
    pub name: &'static str,
    pub shard: u8,
    pub thread: u16,
    pub start_ns: u64,
    pub dur_ns: u64,
}

type Buffer = Arc<Mutex<Vec<Span>>>;

static BUFFERS: Mutex<Vec<Buffer>> = Mutex::new(Vec::new());
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();

struct ThreadTrace {
    buffer: Buffer,
    thread: u16,
    stack: Vec<u32>,
    request: u32,
}

thread_local! {
    static TRACE: RefCell<Option<ThreadTrace>> = const { RefCell::new(None) };
}

fn with_trace<R>(f: impl FnOnce(&mut ThreadTrace) -> R) -> R {
    TRACE.with(|cell| {
        let mut slot = cell.borrow_mut();
        let trace = slot.get_or_insert_with(|| {
            let buffer: Buffer = Arc::new(Mutex::new(Vec::new()));
            let mut buffers = BUFFERS.lock().expect("span registry poisoned");
            buffers.push(Arc::clone(&buffer));
            ThreadTrace {
                buffer,
                thread: buffers.len() as u16,
                stack: Vec::new(),
                request: 0,
            }
        });
        f(trace)
    })
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// An open span; records itself when dropped.
pub struct SpanGuard {
    id: u32,
    parent: u32,
    layer: Layer,
    name: &'static str,
    shard: u8,
    start_ns: u64,
}

pub fn enter(layer: Layer, name: &'static str, shard: u8) -> SpanGuard {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = with_trace(|t| {
        let parent = t.stack.last().copied().unwrap_or(0);
        t.stack.push(id);
        if layer == Layer::Request {
            t.request = id;
        }
        parent
    });
    SpanGuard {
        id,
        parent,
        layer,
        name,
        shard,
        start_ns: now_ns(),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let end_ns = now_ns();
        with_trace(|t| {
            t.stack.pop();
            let span = Span {
                id: self.id,
                parent: self.parent,
                request: t.request,
                layer: self.layer,
                name: self.name,
                shard: self.shard,
                thread: t.thread,
                start_ns: self.start_ns,
                dur_ns: end_ns - self.start_ns,
            };
            if self.layer == Layer::Request {
                t.request = 0;
            }
            t.buffer.lock().expect("span buffer poisoned").push(span);
        });
    }
}

/// Takes every span recorded so far, from every thread, ordered by start.
pub fn drain() -> Vec<Span> {
    let buffers = BUFFERS.lock().expect("span registry poisoned");
    let mut spans: Vec<Span> = Vec::new();
    for buffer in buffers.iter() {
        spans.append(&mut buffer.lock().expect("span buffer poisoned"));
    }
    spans.sort_by_key(|s| (s.start_ns, s.id));
    spans
}

// ---------------------------------------------------------------------------
// The device wrapper
// ---------------------------------------------------------------------------

/// Delegates to `inner`, recording one span per device operation.
#[derive(Debug, Clone)]
pub struct SpanDevice<D> {
    inner: D,
    shard: u8,
}

impl<D: BlockDevice> SpanDevice<D> {
    pub fn new(inner: D, shard: u8) -> Self {
        Self { inner, shard }
    }
}

impl<D: BlockDevice> BlockDevice for SpanDevice<D> {
    fn geometry(&self) -> DeviceGeometry {
        self.inner.geometry()
    }

    fn read_block(&self, block: u64) -> Result<Vec<u8>, DeviceError> {
        let _span = enter(Layer::Device, "read", self.shard);
        self.inner.read_block(block)
    }

    fn write_block(&self, block: u64, data: &[u8]) -> Result<(), DeviceError> {
        let _span = enter(Layer::Device, "write", self.shard);
        self.inner.write_block(block, data)
    }

    fn flush(&self) -> Result<(), DeviceError> {
        let _span = enter(Layer::Device, "flush", self.shard);
        self.inner.flush()
    }

    fn sanitizer(&self) -> Option<&BlockSanitizer> {
        self.inner.sanitizer()
    }
}

// ---------------------------------------------------------------------------
// The store wrapper
// ---------------------------------------------------------------------------

/// Delegates every `PdStore` method to `inner`, recording one span per call.
#[derive(Debug)]
pub struct SpanStore<S> {
    inner: S,
}

impl<S: PdStore> SpanStore<S> {
    pub fn new(inner: S) -> Self {
        Self { inner }
    }

    pub fn inner(&self) -> &S {
        &self.inner
    }
}

/// The `dbfs.<group>.self_us` group of a `PdStore` method.
pub fn store_group(method: &str) -> Option<&'static str> {
    Some(match method {
        "collect" | "insert_wrapped" | "collect_many" | "insert_many" | "update_rows"
        | "update_row" | "copy" => "collect",
        "get" | "load_records" | "query" | "records_of_subject" | "count" => "read",
        "load_membranes"
        | "load_membranes_for_subject"
        | "load_membrane"
        | "apply_membrane_delta" => "membrane",
        "erase" | "erase_subject" | "purge_expired" => "erase",
        "scrub_tombstones" | "space_stats" => "scrub",
        _ => return None,
    })
}

/// Store methods the sharded router may fan out over its worker pool.
pub fn may_scatter(method: &str) -> bool {
    matches!(
        method,
        "collect_many"
            | "insert_many"
            | "update_rows"
            | "count"
            | "load_membranes"
            | "load_records"
            | "query"
            | "scrub_tombstones"
            | "space_stats"
            | "verify_index_invariants"
    )
}

macro_rules! spanned {
    ($name:literal, $call:expr) => {{
        let _span = enter(Layer::Store, $name, NO_SHARD);
        $call
    }};
}

impl<S: PdStore> PdStore for SpanStore<S> {
    fn clock(&self) -> Arc<LogicalClock> {
        self.inner.clock()
    }

    fn audit(&self) -> AuditLog {
        self.inner.audit()
    }

    fn stats(&self) -> DbfsStats {
        self.inner.stats()
    }

    fn create_type(&self, schema: DataTypeSchema) -> Result<(), DbfsError> {
        spanned!("create_type", self.inner.create_type(schema))
    }

    fn schema(&self, name: &DataTypeId) -> Result<DataTypeSchema, DbfsError> {
        spanned!("schema", self.inner.schema(name))
    }

    fn types(&self) -> Vec<DataTypeId> {
        spanned!("types", self.inner.types())
    }

    fn count(&self, name: &DataTypeId) -> Result<usize, DbfsError> {
        spanned!("count", self.inner.count(name))
    }

    fn collect(
        &self,
        data_type: &DataTypeId,
        subject: SubjectId,
        row: Row,
    ) -> Result<PdId, DbfsError> {
        spanned!("collect", self.inner.collect(data_type, subject, row))
    }

    fn insert_wrapped(
        &self,
        data_type: &DataTypeId,
        wrapped: WrappedPd,
    ) -> Result<PdId, DbfsError> {
        spanned!(
            "insert_wrapped",
            self.inner.insert_wrapped(data_type, wrapped)
        )
    }

    fn collect_many(
        &self,
        data_type: &DataTypeId,
        rows: Vec<(SubjectId, Row)>,
    ) -> Result<Vec<PdId>, DbfsError> {
        spanned!("collect_many", self.inner.collect_many(data_type, rows))
    }

    fn insert_many(&self, items: Vec<(DataTypeId, WrappedPd)>) -> Result<Vec<PdId>, DbfsError> {
        spanned!("insert_many", self.inner.insert_many(items))
    }

    fn update_rows(
        &self,
        data_type: &DataTypeId,
        updates: Vec<(PdId, Row)>,
    ) -> Result<(), DbfsError> {
        spanned!("update_rows", self.inner.update_rows(data_type, updates))
    }

    fn get(&self, data_type: &DataTypeId, id: PdId) -> Result<PdRecord, DbfsError> {
        spanned!("get", self.inner.get(data_type, id))
    }

    fn load_membranes(&self, data_type: &DataTypeId) -> Result<Vec<(PdId, Membrane)>, DbfsError> {
        spanned!("load_membranes", self.inner.load_membranes(data_type))
    }

    fn load_membranes_for_subject(
        &self,
        data_type: &DataTypeId,
        subject: SubjectId,
    ) -> Result<Vec<(PdId, Membrane)>, DbfsError> {
        spanned!(
            "load_membranes_for_subject",
            self.inner.load_membranes_for_subject(data_type, subject)
        )
    }

    fn load_membrane(&self, data_type: &DataTypeId, id: PdId) -> Result<Membrane, DbfsError> {
        spanned!("load_membrane", self.inner.load_membrane(data_type, id))
    }

    fn load_records(&self, data_type: &DataTypeId, ids: &[PdId]) -> Result<RecordBatch, DbfsError> {
        spanned!("load_records", self.inner.load_records(data_type, ids))
    }

    fn update_row(&self, data_type: &DataTypeId, id: PdId, row: Row) -> Result<(), DbfsError> {
        spanned!("update_row", self.inner.update_row(data_type, id, row))
    }

    fn apply_membrane_delta(
        &self,
        data_type: &DataTypeId,
        id: PdId,
        delta: &MembraneDelta,
    ) -> Result<bool, DbfsError> {
        spanned!(
            "apply_membrane_delta",
            self.inner.apply_membrane_delta(data_type, id, delta)
        )
    }

    fn copy(&self, data_type: &DataTypeId, id: PdId) -> Result<PdId, DbfsError> {
        spanned!("copy", self.inner.copy(data_type, id))
    }

    fn erase(
        &self,
        data_type: &DataTypeId,
        id: PdId,
        escrow: &OperatorEscrow,
    ) -> Result<Vec<PdId>, DbfsError> {
        spanned!("erase", self.inner.erase(data_type, id, escrow))
    }

    fn erase_subject(
        &self,
        subject: SubjectId,
        escrow: &OperatorEscrow,
    ) -> Result<Vec<PdId>, DbfsError> {
        spanned!("erase_subject", self.inner.erase_subject(subject, escrow))
    }

    fn purge_expired(&self, escrow: &OperatorEscrow) -> Result<Vec<PdId>, DbfsError> {
        spanned!("purge_expired", self.inner.purge_expired(escrow))
    }

    fn records_of_subject(&self, subject: SubjectId) -> Result<Vec<PdRecord>, DbfsError> {
        spanned!("records_of_subject", self.inner.records_of_subject(subject))
    }

    fn query(&self, request: &QueryRequest) -> Result<RecordBatch, DbfsError> {
        spanned!("query", self.inner.query(request))
    }

    fn verify_index_invariants(&self) -> Result<(), DbfsError> {
        spanned!(
            "verify_index_invariants",
            self.inner.verify_index_invariants()
        )
    }

    fn scrub_tombstones(&self) -> Result<ScrubReport, DbfsError> {
        spanned!("scrub_tombstones", self.inner.scrub_tombstones())
    }

    fn space_stats(&self) -> Result<SpaceStats, DbfsError> {
        spanned!("space_stats", self.inner.space_stats())
    }
}
