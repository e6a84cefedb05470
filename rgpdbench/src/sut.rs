//! The system under test, as the request drivers see it.
//!
//! Two assemblies implement [`Sut`]: the product's own runtime
//! ([`RgpdOsWith`], plain types, used by the untraced pass that yields the
//! end-to-end metrics) and [`TracedOs`], which the benchmark wires itself
//! from the public constructors so that [`SpanDevice`] can sit under the
//! store and [`SpanStore`] between the store and the engines.  `TracedOs`
//! mirrors `src/runtime.rs` call for call; what it cannot reproduce is the
//! runtime's private `right_probe`, which is a no-op without a trace
//! context.

use crate::span::{self, Layer, SpanDevice, SpanStore, NO_SHARD};
use rgpdos::blockdev::{BlockDevice, DeviceStats};
use rgpdos::core::{
    AuditLog, ConsentDecision, DataTypeId, LogicalClock, PdId, ProcessingId, PurposeId, Row,
    SubjectId,
};
use rgpdos::crypto::escrow::{Authority, OperatorEscrow};
use rgpdos::dbfs::{Dbfs, DbfsError, DbfsParams, PdStore};
use rgpdos::ded::builtins::Builtins;
use rgpdos::ded::{DedEngine, InvokeRequest, InvokeResult};
use rgpdos::dsl::compile_type_declarations;
use rgpdos::kernel::Machine;
use rgpdos::ps::{ProcessingSpec, ProcessingStore, RegistrationStatus};
use rgpdos::rights::{ComplianceChecker, RightsEngine};
use rgpdos::shard::ShardedDbfs;
use rgpdos::{RgpdOsBuilder, RgpdOsDevice, RgpdOsWith};
use std::sync::Arc;

/// Every store of the benchmark uses 2 KiB blocks: a flat table directory
/// then holds about 25 000 entries, against 2 300 on 512 B blocks.
pub const BLOCK_SIZE: usize = 2_048;

/// The authority key every assembly is booted with (the runtime's default).
const AUTHORITY_SEED: u64 = 0x2018_0525;

/// How to size one booted instance.
#[derive(Debug, Clone, Copy)]
pub struct BootCfg {
    pub shards: usize,
    /// Blocks of each shard's device.
    pub device_blocks: u64,
    /// Inodes of each shard's filesystem.
    pub inode_count: u64,
    /// Buffer-cache capacity in blocks; `None` keeps the product's default.
    pub cache_blocks: Option<usize>,
}

impl BootCfg {
    fn params(&self) -> DbfsParams {
        let mut params = DbfsParams::secure();
        params.inode_params.inode_count = self.inode_count;
        params
    }

    fn builder(&self) -> RgpdOsBuilder {
        RgpdOsBuilder::default()
            .device_blocks(self.device_blocks)
            .block_size(BLOCK_SIZE)
            .dbfs_params(self.params())
            .authority_seed(AUTHORITY_SEED)
            .shards(self.shards)
    }
}

/// The product store underneath a [`Sut`]: one `Dbfs` or a sharded router.
pub trait Backend: PdStore + Sized + 'static {
    type Dev: BlockDevice + Clone + 'static;

    fn format(
        devices: Vec<Self::Dev>,
        params: DbfsParams,
        clock: Arc<LogicalClock>,
        audit: AuditLog,
    ) -> Result<Self, DbfsError>;

    fn mount(devices: Vec<Self::Dev>) -> Result<Self, DbfsError>;

    /// The `Dbfs` instances behind the store, in shard order.
    fn instances(&self) -> Vec<&Dbfs<Self::Dev>>;

    /// Largest shard's live records over the mean; 1.0 for a single store.
    fn imbalance(&self) -> f64;
}

impl<D: BlockDevice + Clone + 'static> Backend for Dbfs<D> {
    type Dev = D;

    fn format(
        mut devices: Vec<D>,
        params: DbfsParams,
        clock: Arc<LogicalClock>,
        audit: AuditLog,
    ) -> Result<Self, DbfsError> {
        let device = devices.pop().expect("one device for a single store");
        Dbfs::format_with(device, params, clock, audit)
    }

    fn mount(mut devices: Vec<D>) -> Result<Self, DbfsError> {
        Dbfs::mount(devices.pop().expect("one device for a single store"))
    }

    fn instances(&self) -> Vec<&Dbfs<D>> {
        vec![self]
    }

    fn imbalance(&self) -> f64 {
        1.0
    }
}

impl<D: BlockDevice + Clone + 'static> Backend for ShardedDbfs<D> {
    type Dev = D;

    fn format(
        devices: Vec<D>,
        params: DbfsParams,
        clock: Arc<LogicalClock>,
        audit: AuditLog,
    ) -> Result<Self, DbfsError> {
        ShardedDbfs::format_with(devices, params, clock, audit)
    }

    fn mount(devices: Vec<D>) -> Result<Self, DbfsError> {
        ShardedDbfs::mount(devices)
    }

    fn instances(&self) -> Vec<&Dbfs<D>> {
        self.shards().iter().map(|shard| &**shard).collect()
    }

    fn imbalance(&self) -> f64 {
        self.sharded_stats().imbalance()
    }
}

/// A backend the product's own builder can boot.
pub trait PlainBackend: Backend<Dev = RgpdOsDevice> {
    fn boot(builder: RgpdOsBuilder) -> Result<RgpdOsWith<Self>, String>;
}

impl PlainBackend for Dbfs<RgpdOsDevice> {
    fn boot(builder: RgpdOsBuilder) -> Result<RgpdOsWith<Self>, String> {
        builder.boot().map_err(|e| e.to_string())
    }
}

impl PlainBackend for ShardedDbfs<RgpdOsDevice> {
    fn boot(builder: RgpdOsBuilder) -> Result<RgpdOsWith<Self>, String> {
        builder.boot_sharded().map_err(|e| e.to_string())
    }
}

/// What the request drivers call.  Errors are rendered to text: the drivers
/// only count them and print the first.
pub trait Sut: Sized + Send + Sync {
    /// The store requests go through.
    type Store: PdStore;
    type Backend: Backend;
    const TRACED: bool;

    fn boot(cfg: &BootCfg) -> Result<Self, String>;
    fn store(&self) -> &Arc<Self::Store>;
    fn backend(&self) -> &Self::Backend;
    /// The instrumented devices, in shard order (for the device-model clock).
    fn stat_devices(&self) -> &[RgpdOsDevice];
    /// The devices to mount the end-state image from.
    fn mount_devices(&self) -> Vec<<Self::Backend as Backend>::Dev>;
    fn clock(&self) -> &Arc<LogicalClock>;
    fn escrow(&self) -> &Arc<OperatorEscrow>;
    fn audit_len(&self) -> usize;

    fn install_types(&self, declarations: &str) -> Result<(), String>;
    fn register(&self, spec: ProcessingSpec) -> Result<ProcessingId, String>;
    fn collect(&self, data_type: &DataTypeId, subject: SubjectId, row: Row)
        -> Result<PdId, String>;
    fn copy(&self, data_type: &DataTypeId, id: PdId) -> Result<PdId, String>;
    fn invoke(&self, id: ProcessingId, request: InvokeRequest) -> Result<InvokeResult, String>;
    /// Number of items in the access package.
    fn access(&self, subject: SubjectId) -> Result<usize, String>;
    fn portability(&self, subject: SubjectId) -> Result<usize, String>;
    fn forget(&self, subject: SubjectId) -> Result<Vec<PdId>, String>;
    fn rectify(&self, data_type: &DataTypeId, id: PdId, row: Row) -> Result<(), String>;
    fn grant_consent(
        &self,
        subject: SubjectId,
        purpose: &PurposeId,
        decision: ConsentDecision,
    ) -> Result<usize, String>;
    fn withdraw_consent(&self, subject: SubjectId, purpose: &PurposeId) -> Result<usize, String>;
    fn enforce_retention(&self) -> Result<Vec<PdId>, String>;
    fn compliant(&self) -> Result<bool, String>;

    fn device_stats(&self) -> DeviceStats {
        self.stat_devices()
            .iter()
            .map(|d| d.stats())
            .fold(DeviceStats::default(), |acc, s| DeviceStats {
                reads: acc.reads + s.reads,
                writes: acc.writes + s.writes,
                flushes: acc.flushes + s.flushes,
                simulated_us: acc.simulated_us + s.simulated_us,
            })
    }
}

pub fn text<E: std::fmt::Display>(error: E) -> String {
    error.to_string()
}

// ---------------------------------------------------------------------------
// The product's runtime, plain types
// ---------------------------------------------------------------------------

impl<B: PlainBackend> Sut for RgpdOsWith<B> {
    type Store = B;
    type Backend = B;
    const TRACED: bool = false;

    fn boot(cfg: &BootCfg) -> Result<Self, String> {
        let os = B::boot(cfg.builder())?;
        if let Some(blocks) = cfg.cache_blocks {
            for instance in os.dbfs().instances() {
                instance.inode_fs().set_cache_capacity(blocks);
            }
        }
        Ok(os)
    }

    fn store(&self) -> &Arc<B> {
        self.dbfs()
    }

    fn backend(&self) -> &B {
        self.dbfs()
    }

    fn stat_devices(&self) -> &[RgpdOsDevice] {
        self.devices()
    }

    fn mount_devices(&self) -> Vec<RgpdOsDevice> {
        self.devices().to_vec()
    }

    fn clock(&self) -> &Arc<LogicalClock> {
        RgpdOsWith::clock(self)
    }

    fn escrow(&self) -> &Arc<OperatorEscrow> {
        RgpdOsWith::escrow(self)
    }

    fn audit_len(&self) -> usize {
        self.audit().len()
    }

    fn install_types(&self, declarations: &str) -> Result<(), String> {
        RgpdOsWith::install_types(self, declarations)
            .map(|_| ())
            .map_err(text)
    }

    fn register(&self, spec: ProcessingSpec) -> Result<ProcessingId, String> {
        self.register_processing(spec).map_err(text)
    }

    fn collect(
        &self,
        data_type: &DataTypeId,
        subject: SubjectId,
        row: Row,
    ) -> Result<PdId, String> {
        RgpdOsWith::collect(self, data_type.clone(), subject, row).map_err(text)
    }

    fn copy(&self, data_type: &DataTypeId, id: PdId) -> Result<PdId, String> {
        self.builtins().copy(data_type, id).map_err(text)
    }

    fn invoke(&self, id: ProcessingId, request: InvokeRequest) -> Result<InvokeResult, String> {
        RgpdOsWith::invoke(self, id, request).map_err(text)
    }

    fn access(&self, subject: SubjectId) -> Result<usize, String> {
        self.right_of_access(subject)
            .map(|package| package.items.len())
            .map_err(text)
    }

    fn portability(&self, subject: SubjectId) -> Result<usize, String> {
        self.right_to_portability(subject)
            .map(|package| package.items.len())
            .map_err(text)
    }

    fn forget(&self, subject: SubjectId) -> Result<Vec<PdId>, String> {
        self.right_to_be_forgotten(subject)
            .map(|receipt| receipt.erased)
            .map_err(text)
    }

    fn rectify(&self, data_type: &DataTypeId, id: PdId, row: Row) -> Result<(), String> {
        self.rights()
            .right_to_rectification(data_type, id, row)
            .map_err(text)
    }

    fn grant_consent(
        &self,
        subject: SubjectId,
        purpose: &PurposeId,
        decision: ConsentDecision,
    ) -> Result<usize, String> {
        RgpdOsWith::grant_consent(self, subject, purpose, decision).map_err(text)
    }

    fn withdraw_consent(&self, subject: SubjectId, purpose: &PurposeId) -> Result<usize, String> {
        RgpdOsWith::withdraw_consent(self, subject, purpose).map_err(text)
    }

    fn enforce_retention(&self) -> Result<Vec<PdId>, String> {
        RgpdOsWith::enforce_retention(self).map_err(text)
    }

    fn compliant(&self) -> Result<bool, String> {
        self.compliance_report()
            .map(|report| report.is_compliant())
            .map_err(text)
    }
}

// ---------------------------------------------------------------------------
// The benchmark's own assembly, with spans at every boundary it can reach
// ---------------------------------------------------------------------------

pub type TracedDevice = SpanDevice<RgpdOsDevice>;

pub struct TracedOs<B: Backend<Dev = TracedDevice>> {
    devices: Vec<RgpdOsDevice>,
    store: Arc<SpanStore<B>>,
    ps: ProcessingStore,
    ded: DedEngine<SpanStore<B>>,
    rights: RightsEngine<SpanStore<B>>,
    escrow: Arc<OperatorEscrow>,
    clock: Arc<LogicalClock>,
    audit: AuditLog,
}

fn span_devices(devices: &[RgpdOsDevice]) -> Vec<TracedDevice> {
    devices
        .iter()
        .enumerate()
        .map(|(shard, device)| SpanDevice::new(Arc::clone(device), shard as u8))
        .collect()
}

impl<B: Backend<Dev = TracedDevice>> Sut for TracedOs<B> {
    type Store = SpanStore<B>;
    type Backend = B;
    const TRACED: bool = true;

    fn boot(cfg: &BootCfg) -> Result<Self, String> {
        use rgpdos::blockdev::{InstrumentedDevice, LatencyModel, MemDevice};
        let devices: Vec<RgpdOsDevice> = (0..cfg.shards)
            .map(|_| {
                Arc::new(InstrumentedDevice::new(
                    MemDevice::new(cfg.device_blocks, BLOCK_SIZE),
                    LatencyModel::nvme(),
                ))
            })
            .collect();
        let clock = Arc::new(LogicalClock::new());
        let audit = AuditLog::new();
        let backend = B::format(
            span_devices(&devices),
            cfg.params(),
            Arc::clone(&clock),
            audit.clone(),
        )
        .map_err(text)?;
        if let Some(blocks) = cfg.cache_blocks {
            for instance in backend.instances() {
                instance.inode_fs().set_cache_capacity(blocks);
            }
        }
        let store = Arc::new(SpanStore::new(backend));
        // The machine, escrow, PS, DED and rights wiring of
        // `RgpdOsBuilder::assemble`, with its default machine size.
        let machine = Arc::new(
            Machine::builder()
                .cpus(8)
                .memory_mb(8_192)
                .io_device("pd-nvme0")
                .io_device("npd-nvme1")
                .build()
                .map_err(text)?,
        );
        let authority = Authority::generate(AUTHORITY_SEED);
        let escrow = Arc::new(OperatorEscrow::new(authority.public_key()));
        let ps = ProcessingStore::with_audit(audit.clone());
        let ded = DedEngine::new(Arc::clone(&store), machine, ps.clone(), Arc::clone(&escrow));
        let rights = RightsEngine::new(Arc::clone(&store), Arc::clone(&escrow));
        Ok(Self {
            devices,
            store,
            ps,
            ded,
            rights,
            escrow,
            clock,
            audit,
        })
    }

    fn store(&self) -> &Arc<SpanStore<B>> {
        &self.store
    }

    fn backend(&self) -> &B {
        self.store.inner()
    }

    fn stat_devices(&self) -> &[RgpdOsDevice] {
        &self.devices
    }

    fn mount_devices(&self) -> Vec<TracedDevice> {
        span_devices(&self.devices)
    }

    fn clock(&self) -> &Arc<LogicalClock> {
        &self.clock
    }

    fn escrow(&self) -> &Arc<OperatorEscrow> {
        &self.escrow
    }

    fn audit_len(&self) -> usize {
        self.audit.len()
    }

    fn install_types(&self, declarations: &str) -> Result<(), String> {
        let diagnostics = rgpdos::analyze::analyze_source(declarations).map_err(text)?;
        if rgpdos::analyze::gate_fails(&diagnostics, false) {
            return Err("policy rejected by the static analyzer".to_owned());
        }
        for schema in compile_type_declarations(declarations).map_err(text)? {
            self.store.create_type(schema).map_err(text)?;
        }
        Ok(())
    }

    fn register(&self, spec: ProcessingSpec) -> Result<ProcessingId, String> {
        let outcome = self.ps.register(spec).map_err(text)?;
        if outcome.status != RegistrationStatus::Approved {
            return Err(format!("processing parked: {}", outcome.alerts.join("; ")));
        }
        Ok(outcome.id)
    }

    fn collect(
        &self,
        data_type: &DataTypeId,
        subject: SubjectId,
        row: Row,
    ) -> Result<PdId, String> {
        let _span = span::enter(Layer::Ded, "acquire", NO_SHARD);
        Builtins::new(&self.ded)
            .acquire(data_type.clone(), subject, row)
            .map_err(text)
    }

    fn copy(&self, data_type: &DataTypeId, id: PdId) -> Result<PdId, String> {
        let _span = span::enter(Layer::Ded, "copy", NO_SHARD);
        Builtins::new(&self.ded).copy(data_type, id).map_err(text)
    }

    fn invoke(&self, id: ProcessingId, request: InvokeRequest) -> Result<InvokeResult, String> {
        let _span = span::enter(Layer::Ded, "invoke", NO_SHARD);
        self.ded.invoke(id, request).map_err(text)
    }

    fn access(&self, subject: SubjectId) -> Result<usize, String> {
        let _span = span::enter(Layer::Rights, "access", NO_SHARD);
        self.rights
            .right_of_access(subject)
            .map(|package| package.items.len())
            .map_err(text)
    }

    fn portability(&self, subject: SubjectId) -> Result<usize, String> {
        let _span = span::enter(Layer::Rights, "portability", NO_SHARD);
        self.rights
            .right_to_portability(subject)
            .map(|package| package.items.len())
            .map_err(text)
    }

    fn forget(&self, subject: SubjectId) -> Result<Vec<PdId>, String> {
        let _span = span::enter(Layer::Rights, "erasure", NO_SHARD);
        self.rights
            .right_to_be_forgotten(subject)
            .map(|receipt| receipt.erased)
            .map_err(text)
    }

    fn rectify(&self, data_type: &DataTypeId, id: PdId, row: Row) -> Result<(), String> {
        let _span = span::enter(Layer::Rights, "rectification", NO_SHARD);
        self.rights
            .right_to_rectification(data_type, id, row)
            .map_err(text)
    }

    fn grant_consent(
        &self,
        subject: SubjectId,
        purpose: &PurposeId,
        decision: ConsentDecision,
    ) -> Result<usize, String> {
        let _span = span::enter(Layer::Rights, "consent", NO_SHARD);
        self.rights
            .grant_consent(subject, purpose, decision)
            .map_err(text)
    }

    fn withdraw_consent(&self, subject: SubjectId, purpose: &PurposeId) -> Result<usize, String> {
        let _span = span::enter(Layer::Rights, "consent", NO_SHARD);
        self.rights.withdraw_consent(subject, purpose).map_err(text)
    }

    fn enforce_retention(&self) -> Result<Vec<PdId>, String> {
        let _span = span::enter(Layer::Rights, "retention", NO_SHARD);
        self.rights.enforce_retention().map_err(text)
    }

    fn compliant(&self) -> Result<bool, String> {
        ComplianceChecker::new(Arc::clone(&self.store))
            .run()
            .map(|report| report.is_compliant())
    }
}
