//! The assembled rgpdOS runtime.

use rgpdos_blockdev::{DeviceStats, InstrumentedDevice, LatencyModel, MemDevice};
use rgpdos_core::{
    AuditLog, DataTypeId, FieldValue, LogicalClock, PdId, ProcessingId, Row, SubjectId,
};
use rgpdos_crypto::escrow::{Authority, OperatorEscrow};
use rgpdos_dbfs::{Dbfs, DbfsParams, PdStore};
use rgpdos_ded::builtins::Builtins;
use rgpdos_ded::{DedEngine, InvokeRequest, InvokeResult};
use rgpdos_dsl::compile_type_declarations;
use rgpdos_kernel::Machine;
use rgpdos_ps::{ProcessingSpec, ProcessingStore, RegistrationOutcome};
use rgpdos_rights::{
    ComplianceChecker, ComplianceReport, ErasureReceipt, RightsEngine, SubjectAccessPackage,
};
use rgpdos_shard::ShardedDbfs;
use rgpdos_trace::{HistTimer, MetricsSnapshot, SpanGuard, TraceCtx};
use std::error::Error as StdError;
use std::fmt;
use std::sync::Arc;

pub use rgpdos_ded::builtins::Builtins as RgpdOsBuiltins;

/// The device type the runtime boots on: an instrumented in-memory device,
/// so every experiment can report simulated I/O cost.
pub type RgpdOsDevice = Arc<InstrumentedDevice<MemDevice>>;

/// Any error the runtime can surface.
#[derive(Debug)]
pub struct RuntimeError {
    message: String,
    source: Option<Box<dyn StdError + Send + Sync + 'static>>,
}

impl RuntimeError {
    fn new<E: StdError + Send + Sync + 'static>(error: E) -> Self {
        Self {
            message: error.to_string(),
            source: Some(Box::new(error)),
        }
    }

    fn message(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            source: None,
        }
    }
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rgpdos runtime error: {}", self.message)
    }
}

impl StdError for RuntimeError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        self.source
            .as_deref()
            .map(|e| e as &(dyn StdError + 'static))
    }
}

macro_rules! impl_from_error {
    ($($ty:ty),* $(,)?) => {
        $(impl From<$ty> for RuntimeError {
            fn from(e: $ty) -> Self {
                RuntimeError::new(e)
            }
        })*
    };
}

impl_from_error!(
    rgpdos_dbfs::DbfsError,
    rgpdos_ded::DedError,
    rgpdos_ps::PsError,
    rgpdos_rights::RightsError,
    rgpdos_kernel::KernelError,
    rgpdos_dsl::DslError,
    rgpdos_inode::InodeError,
);

/// Builder for [`RgpdOs`] / [`ShardedRgpdOs`] (C-BUILDER).
#[derive(Debug, Clone)]
pub struct RgpdOsBuilder {
    device_blocks: u64,
    block_size: usize,
    latency: LatencyModel,
    dbfs_params: DbfsParams,
    authority_seed: u64,
    cpus: u32,
    memory_mb: u64,
    shards: usize,
    deny_policy_warnings: bool,
    trace: Option<TraceCtx>,
}

impl Default for RgpdOsBuilder {
    fn default() -> Self {
        Self {
            device_blocks: 16_384,
            block_size: 512,
            latency: LatencyModel::nvme(),
            dbfs_params: DbfsParams::secure(),
            authority_seed: 0x2018_0525, // the GDPR's entry into force (2018-05-25)
            cpus: 8,
            memory_mb: 8_192,
            shards: 1,
            deny_policy_warnings: false,
            trace: None,
        }
    }
}

impl RgpdOsBuilder {
    /// Sets the number of blocks of the simulated PD device.
    #[must_use]
    pub fn device_blocks(mut self, blocks: u64) -> Self {
        self.device_blocks = blocks;
        self
    }

    /// Sets the block size of the simulated PD device.
    #[must_use]
    pub fn block_size(mut self, block_size: usize) -> Self {
        self.block_size = block_size;
        self
    }

    /// Sets the device latency model used for simulated I/O accounting.
    #[must_use]
    pub fn latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Overrides the DBFS formatting parameters (the insecure preset is used
    /// by the ablation experiments only).
    #[must_use]
    pub fn dbfs_params(mut self, params: DbfsParams) -> Self {
        self.dbfs_params = params;
        self
    }

    /// Sets the machine size.
    #[must_use]
    pub fn machine(mut self, cpus: u32, memory_mb: u64) -> Self {
        self.cpus = cpus;
        self.memory_mb = memory_mb;
        self
    }

    /// Seeds the data-protection authority's key pair.
    #[must_use]
    pub fn authority_seed(mut self, seed: u64) -> Self {
        self.authority_seed = seed;
        self
    }

    /// Sets the number of DBFS shards used by [`RgpdOsBuilder::boot_sharded`]
    /// (each shard gets its own `device_blocks`-sized device).
    ///
    /// # Panics
    ///
    /// Panics when `shards` is zero.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        assert!(shards > 0, "at least one shard");
        self.shards = shards;
        self
    }

    /// Treats static-analyzer **warnings** as installation failures.
    ///
    /// [`RgpdOsWith::install_types`] always runs the [`crate::analyze`]
    /// passes over the declaration text and refuses to install a policy
    /// with *error*-severity diagnostics.  With this flag set the gate is
    /// strict: warning-severity diagnostics (missing retention, over-broad
    /// views, unconsented third-party collection, …) also abort the
    /// installation — the CI posture for production policies.
    #[must_use]
    pub fn deny_policy_warnings(mut self) -> Self {
        self.deny_policy_warnings = true;
        self
    }

    /// Attaches an observability context to the instance being built: the
    /// PD device(s) record per-I/O latency histograms and drive the trace
    /// clock, the store registers its counters and commit/op histograms
    /// (per-`shard` labels on a sharded boot), and the runtime records a
    /// latency histogram per exercised GDPR right
    /// (`right_latency_us{right="access"|...}`) plus a span per request.
    #[must_use]
    pub fn trace(mut self, ctx: &TraceCtx) -> Self {
        self.trace = Some(ctx.clone());
        self
    }

    fn fresh_device(&self, index: usize) -> RgpdOsDevice {
        let inner = MemDevice::new(self.device_blocks, self.block_size);
        Arc::new(match &self.trace {
            Some(ctx) => {
                InstrumentedDevice::with_trace(inner, self.latency, ctx, &format!("pd{index}"))
            }
            None => InstrumentedDevice::new(inner, self.latency),
        })
    }

    fn build_machine(&self) -> Result<Arc<Machine>, RuntimeError> {
        Ok(Arc::new(
            Machine::builder()
                .cpus(self.cpus)
                .memory_mb(self.memory_mb)
                .io_device("pd-nvme0")
                .io_device("npd-nvme1")
                .build()?,
        ))
    }

    /// Boots the rgpdOS instance: builds the purpose-kernel machine, formats
    /// DBFS on a fresh simulated device, creates the PS, DED and rights
    /// engine, and wires the authority escrow.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] when the device is too small or the machine
    /// configuration is invalid.
    pub fn boot(self) -> Result<RgpdOs, RuntimeError> {
        let device = self.fresh_device(0);
        let clock = Arc::new(LogicalClock::new());
        let audit = AuditLog::new();
        let dbfs = Arc::new(Dbfs::format_with(
            Arc::clone(&device),
            self.dbfs_params,
            Arc::clone(&clock),
            audit.clone(),
        )?);
        self.assemble(vec![device], dbfs, clock, audit)
    }

    /// Boots a **sharded** rgpdOS instance: one DBFS per shard device behind
    /// the scatter-gather router of `rgpdos_shard`, with the same machine,
    /// PS, DED, rights engine and escrow wiring as [`RgpdOsBuilder::boot`].
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] when a device is too small or the machine
    /// configuration is invalid.
    pub fn boot_sharded(self) -> Result<ShardedRgpdOs, RuntimeError> {
        let devices: Vec<RgpdOsDevice> = (0..self.shards).map(|i| self.fresh_device(i)).collect();
        let clock = Arc::new(LogicalClock::new());
        let audit = AuditLog::new();
        let dbfs = Arc::new(ShardedDbfs::format_with(
            devices.clone(),
            self.dbfs_params,
            Arc::clone(&clock),
            audit.clone(),
        )?);
        self.assemble(devices, dbfs, clock, audit)
    }

    fn assemble<S: PdStore>(
        self,
        devices: Vec<RgpdOsDevice>,
        dbfs: Arc<S>,
        clock: Arc<LogicalClock>,
        audit: AuditLog,
    ) -> Result<RgpdOsWith<S>, RuntimeError> {
        let machine = self.build_machine()?;
        let authority = Authority::generate(self.authority_seed);
        let escrow = Arc::new(OperatorEscrow::new(authority.public_key()));
        let ps = ProcessingStore::with_audit(audit.clone());
        let ded = DedEngine::new(
            Arc::clone(&dbfs),
            Arc::clone(&machine),
            ps.clone(),
            Arc::clone(&escrow),
        );
        let rights = RightsEngine::new(Arc::clone(&dbfs), Arc::clone(&escrow));
        if let Some(ctx) = &self.trace {
            dbfs.attach_trace(ctx);
        }
        Ok(RgpdOsWith {
            devices,
            machine,
            dbfs,
            ps,
            ded,
            rights,
            authority,
            escrow,
            clock,
            audit,
            deny_policy_warnings: self.deny_policy_warnings,
            trace: self.trace,
        })
    }
}

/// A booted rgpdOS instance, generic over its personal-data store: the
/// assembly of Fig. 4 (left).  Use the [`RgpdOs`] alias for the
/// single-device deployment and [`ShardedRgpdOs`] for the subject-sharded
/// one.
#[derive(Debug)]
pub struct RgpdOsWith<S: PdStore> {
    devices: Vec<RgpdOsDevice>,
    machine: Arc<Machine>,
    dbfs: Arc<S>,
    ps: ProcessingStore,
    ded: DedEngine<S>,
    rights: RightsEngine<S>,
    authority: Authority,
    escrow: Arc<OperatorEscrow>,
    clock: Arc<LogicalClock>,
    audit: AuditLog,
    deny_policy_warnings: bool,
    trace: Option<TraceCtx>,
}

/// The classic single-device rgpdOS instance.
pub type RgpdOs = RgpdOsWith<Dbfs<RgpdOsDevice>>;

/// An rgpdOS instance over subject-partitioned DBFS shards.
pub type ShardedRgpdOs = RgpdOsWith<ShardedDbfs<RgpdOsDevice>>;

impl RgpdOs {
    /// Boots an instance with default parameters.
    ///
    /// # Errors
    ///
    /// See [`RgpdOsBuilder::boot`].
    pub fn boot_default() -> Result<Self, RuntimeError> {
        Self::builder().boot()
    }
}

impl<S: PdStore> RgpdOsWith<S> {
    /// Starts building an instance.
    pub fn builder() -> RgpdOsBuilder {
        RgpdOsBuilder::default()
    }

    // --- accessors ------------------------------------------------------

    /// The (first) simulated personal-data device (instrumented).  Sharded
    /// instances expose every shard device through
    /// [`RgpdOsWith::devices`].
    pub fn device(&self) -> &RgpdOsDevice {
        &self.devices[0]
    }

    /// Every simulated personal-data device, in shard order (a single-device
    /// instance has exactly one).
    pub fn devices(&self) -> &[RgpdOsDevice] {
        &self.devices
    }

    /// The purpose-kernel machine.
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// The personal-data store (a single DBFS or a sharded deployment).
    /// Its operations are the methods of [`PdStore`]: bring the trait into
    /// scope (it is in the prelude) to call them.
    pub fn dbfs(&self) -> &Arc<S> {
        &self.dbfs
    }

    /// The Processing Store.
    pub fn processing_store(&self) -> &ProcessingStore {
        &self.ps
    }

    /// The Data Execution Domain.
    pub fn ded(&self) -> &DedEngine<S> {
        &self.ded
    }

    /// The rights engine.
    pub fn rights(&self) -> &RightsEngine<S> {
        &self.rights
    }

    /// The data-protection authority (holds the escrow private key).
    pub fn authority(&self) -> &Authority {
        &self.authority
    }

    /// The operator-side escrow engine.
    pub fn escrow(&self) -> &Arc<OperatorEscrow> {
        &self.escrow
    }

    /// The machine clock.
    pub fn clock(&self) -> &Arc<LogicalClock> {
        &self.clock
    }

    /// The machine-wide audit log.
    pub fn audit(&self) -> AuditLog {
        self.audit.clone()
    }

    /// The built-in `F_pd^w` functions.
    pub fn builtins(&self) -> Builtins<'_, S> {
        Builtins::new(&self.ded)
    }

    /// The attached observability context, when the instance was booted
    /// with [`RgpdOsBuilder::trace`].
    pub fn trace_ctx(&self) -> Option<&TraceCtx> {
        self.trace.as_ref()
    }

    /// Freezes the attached instruments into a versioned snapshot stamped
    /// with the run `seed`; `None` when no trace context is attached.
    pub fn metrics_snapshot(&self, seed: u64) -> Option<MetricsSnapshot> {
        self.trace.as_ref().map(|ctx| ctx.snapshot(seed))
    }

    /// A latency timer + span for one subject-facing GDPR right, no-op
    /// without an attached trace context.  The timer feeds
    /// `right_latency_us{right="<right>"}` — the histogram behind the
    /// per-right SLO summaries in the bench reports.
    fn right_probe(&self, right: &'static str) -> Option<(SpanGuard, HistTimer)> {
        self.trace.as_ref().map(|ctx| {
            let span = ctx.tracer.span(&format!("right_{right}"));
            let timer = ctx
                .registry
                .histogram_with("right_latency_us", &[("right", right)])
                .timer(&ctx.clock);
            (span, timer)
        })
    }

    // --- sysadmin-facing operations --------------------------------------

    /// Compiles and installs every type declaration in `declarations`
    /// (Listing 1 syntax), returning the installed type names.
    ///
    /// The text is first run through the static policy analyzer
    /// ([`crate::analyze`]): error-severity diagnostics always abort the
    /// installation, and warning-severity diagnostics abort it too when the
    /// instance was booted with [`RgpdOsBuilder::deny_policy_warnings`].
    ///
    /// # Errors
    ///
    /// Propagates DSL and DBFS errors, and surfaces analyzer diagnostics
    /// (one per line) when the policy gate fails.
    pub fn install_types(&self, declarations: &str) -> Result<Vec<DataTypeId>, RuntimeError> {
        let diagnostics = rgpdos_analyze::analyze_source(declarations)?;
        if rgpdos_analyze::gate_fails(&diagnostics, self.deny_policy_warnings) {
            let listed: Vec<String> = diagnostics.iter().map(ToString::to_string).collect();
            return Err(RuntimeError::message(format!(
                "policy rejected by the static analyzer ({} diagnostic(s)):\n{}",
                diagnostics.len(),
                listed.join("\n")
            )));
        }
        let schemas = compile_type_declarations(declarations)?;
        let mut names = Vec::with_capacity(schemas.len());
        for schema in schemas {
            names.push(schema.name().clone());
            self.dbfs.create_type(schema)?;
        }
        Ok(names)
    }

    /// Installs an already-built schema.
    ///
    /// # Errors
    ///
    /// Propagates DBFS errors.
    pub fn install_schema(&self, schema: rgpdos_core::DataTypeSchema) -> Result<(), RuntimeError> {
        self.dbfs.create_type(schema)?;
        Ok(())
    }

    /// `ps_register`: registers a processing, returning its id when it is
    /// immediately approved.
    ///
    /// # Errors
    ///
    /// Returns an error carrying the alert text when the processing is parked
    /// pending sysadmin approval, so callers that expect a clean registration
    /// notice immediately.  Use [`RgpdOs::register_processing_outcome`] to
    /// handle the pending case explicitly.
    pub fn register_processing(&self, spec: ProcessingSpec) -> Result<ProcessingId, RuntimeError> {
        let outcome = self.ps.register(spec)?;
        if outcome.status != rgpdos_ps::RegistrationStatus::Approved {
            return Err(RuntimeError::message(format!(
                "processing parked pending sysadmin approval: {}",
                outcome.alerts.join("; ")
            )));
        }
        Ok(outcome.id)
    }

    /// `ps_register` returning the full outcome (approved or pending).
    ///
    /// # Errors
    ///
    /// Propagates Processing Store errors.
    pub fn register_processing_outcome(
        &self,
        spec: ProcessingSpec,
    ) -> Result<RegistrationOutcome, RuntimeError> {
        Ok(self.ps.register(spec)?)
    }

    // --- application-facing operations ------------------------------------

    /// Collects a personal-data row (the `acquisition` built-in).
    ///
    /// # Errors
    ///
    /// Propagates DBFS and kernel errors.
    pub fn collect(
        &self,
        data_type: impl Into<DataTypeId>,
        subject: SubjectId,
        row: Row,
    ) -> Result<PdId, RuntimeError> {
        Ok(self.builtins().acquire(data_type, subject, row)?)
    }

    /// `ps_invoke`: runs a registered processing inside the DED (Listing 3).
    ///
    /// # Errors
    ///
    /// Propagates PS, DED, DBFS and kernel errors.
    pub fn invoke(
        &self,
        processing: ProcessingId,
        request: InvokeRequest,
    ) -> Result<InvokeResult, RuntimeError> {
        Ok(self.ded.invoke(processing, request)?)
    }

    /// `ps_invoke` by processing name.
    ///
    /// # Errors
    ///
    /// Propagates PS, DED, DBFS and kernel errors.
    pub fn invoke_by_name(
        &self,
        name: &str,
        request: InvokeRequest,
    ) -> Result<InvokeResult, RuntimeError> {
        Ok(self.ded.invoke_by_name(name, request)?)
    }

    // --- subject-facing operations ----------------------------------------

    /// Right of access (art. 15).
    ///
    /// # Errors
    ///
    /// Propagates rights-engine errors.
    pub fn right_of_access(
        &self,
        subject: SubjectId,
    ) -> Result<SubjectAccessPackage, RuntimeError> {
        let _probe = self.right_probe("access");
        Ok(self.rights.right_of_access(subject)?)
    }

    /// Right to data portability (art. 20): the subject's data in an
    /// export-ready package, without the processing history.
    ///
    /// # Errors
    ///
    /// Propagates rights-engine errors.
    pub fn right_to_portability(
        &self,
        subject: SubjectId,
    ) -> Result<SubjectAccessPackage, RuntimeError> {
        let _probe = self.right_probe("portability");
        Ok(self.rights.right_to_portability(subject)?)
    }

    /// Right to be forgotten (art. 17).
    ///
    /// # Errors
    ///
    /// Propagates rights-engine errors.
    pub fn right_to_be_forgotten(
        &self,
        subject: SubjectId,
    ) -> Result<ErasureReceipt, RuntimeError> {
        let _probe = self.right_probe("erasure");
        Ok(self.rights.right_to_be_forgotten(subject)?)
    }

    /// Grants consent for one purpose across every item of the subject
    /// (art. 6(1)(a)).  Returns the number of membranes changed.
    ///
    /// # Errors
    ///
    /// Propagates rights-engine errors.
    pub fn grant_consent(
        &self,
        subject: SubjectId,
        purpose: &rgpdos_core::PurposeId,
        decision: rgpdos_core::ConsentDecision,
    ) -> Result<usize, RuntimeError> {
        let _probe = self.right_probe("consent");
        Ok(self.rights.grant_consent(subject, purpose, decision)?)
    }

    /// Withdraws consent for one purpose across every item of the subject
    /// (art. 7(3)).  Returns the number of membranes changed.
    ///
    /// # Errors
    ///
    /// Propagates rights-engine errors.
    pub fn withdraw_consent(
        &self,
        subject: SubjectId,
        purpose: &rgpdos_core::PurposeId,
    ) -> Result<usize, RuntimeError> {
        let _probe = self.right_probe("consent");
        Ok(self.rights.withdraw_consent(subject, purpose)?)
    }

    /// Storage limitation (art. 5(1)(e)): crypto-erases every record whose
    /// retention period has elapsed.  The sweep is driven by the DBFS expiry
    /// index, so it only ever visits records that actually expired.
    ///
    /// # Errors
    ///
    /// Propagates rights-engine errors.
    pub fn enforce_retention(&self) -> Result<Vec<PdId>, RuntimeError> {
        let _probe = self.right_probe("retention");
        Ok(self.rights.enforce_retention()?)
    }

    /// Runs the compliance checker.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] when the checker cannot inspect storage.
    pub fn compliance_report(&self) -> Result<ComplianceReport, RuntimeError> {
        ComplianceChecker::new(Arc::clone(&self.dbfs))
            .run()
            .map_err(RuntimeError::message)
    }

    /// Convenience for experiments: the simulated I/O statistics of the PD
    /// device(s), summed across shards for a sharded instance.
    pub fn device_stats(&self) -> DeviceStats {
        self.devices.iter().map(|device| device.stats()).fold(
            DeviceStats::default(),
            |acc, stats| DeviceStats {
                reads: acc.reads + stats.reads,
                writes: acc.writes + stats.writes,
                flushes: acc.flushes + stats.flushes,
                simulated_us: acc.simulated_us + stats.simulated_us,
            },
        )
    }

    /// Convenience for experiments: a single non-personal scalar produced by
    /// summing the values of an invocation (used by examples).
    pub fn sum_values(result: &InvokeResult) -> i64 {
        result.values.iter().filter_map(FieldValue::as_int).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rgpdos_ps::ProcessingOutput;

    fn compute_age_spec() -> ProcessingSpec {
        ProcessingSpec::builder("compute_age", "user")
            .source(rgpdos_dsl::listings::LISTING_2_C)
            .purpose_declaration(rgpdos_dsl::listings::LISTING_2_PURPOSE)
            .unwrap()
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
    fn boot_install_collect_invoke() {
        let os = RgpdOs::builder()
            .device_blocks(8_192)
            .block_size(512)
            .boot()
            .unwrap();
        let types = os.install_types(rgpdos_dsl::listings::LISTING_1).unwrap();
        assert_eq!(types, vec![DataTypeId::from("user")]);
        let id = os.register_processing(compute_age_spec()).unwrap();
        os.collect("user", SubjectId::new(1), user_row("A", 1990))
            .unwrap();
        os.collect("user", SubjectId::new(2), user_row("B", 2002))
            .unwrap();
        let result = os.invoke(id, InvokeRequest::whole_type()).unwrap();
        assert_eq!(result.processed, 2);
        assert_eq!(RgpdOs::sum_values(&result), (2022 - 1990) + (2022 - 2002));
        assert!(os.device_stats().writes > 0);
        let report = os.compliance_report().unwrap();
        assert!(report.is_compliant());
        // Duplicate type installation is reported.
        assert!(os.install_types(rgpdos_dsl::listings::LISTING_1).is_err());
    }

    #[test]
    fn install_types_runs_the_policy_gate() {
        // Warning-only policy (missing retention): installable by default…
        let warn_only = "type t { fields { a: string } }";
        let lenient = RgpdOs::boot_default().unwrap();
        lenient.install_types(warn_only).unwrap();
        // …but refused when the instance denies policy warnings.
        let strict = RgpdOs::builder().deny_policy_warnings().boot().unwrap();
        let err = strict.install_types(warn_only).unwrap_err();
        assert!(err.to_string().contains("RG0302"), "{err}");
        assert!(err.to_string().contains("static analyzer"), "{err}");
        // Error-severity diagnostics abort regardless of the flag.
        let bad = "type u { fields { a: string }; consent { p: ghost }; age: 1Y }";
        let err = lenient.install_types(bad).unwrap_err();
        assert!(err.to_string().contains("RG0101"), "{err}");
    }

    #[test]
    fn pending_registration_is_surfaced() {
        let os = RgpdOs::boot_default().unwrap();
        os.install_types(rgpdos_dsl::listings::LISTING_1).unwrap();
        let spec = ProcessingSpec::builder("shady", "user")
            .source("/* purpose1 */")
            .purpose_declaration(rgpdos_dsl::listings::LISTING_2_PURPOSE)
            .unwrap()
            .function(Arc::new(|_row| Ok(ProcessingOutput::Nothing)))
            .build();
        let err = os.register_processing(spec).unwrap_err();
        assert!(err.to_string().contains("sysadmin"));
        let outcome = os
            .register_processing_outcome(
                ProcessingSpec::builder("shady2", "user")
                    .source("/* purpose1 */")
                    .purpose_declaration(rgpdos_dsl::listings::LISTING_2_PURPOSE)
                    .unwrap()
                    .function(Arc::new(|_row| Ok(ProcessingOutput::Nothing)))
                    .build(),
            )
            .unwrap();
        assert_eq!(
            outcome.status,
            rgpdos_ps::RegistrationStatus::PendingApproval
        );
    }

    #[test]
    fn subject_rights_through_the_runtime() {
        use rgpdos_core::Duration;
        let os = RgpdOs::boot_default().unwrap();
        os.install_types(rgpdos_dsl::listings::LISTING_1).unwrap();
        os.collect("user", SubjectId::new(3), user_row("Right", 1980))
            .unwrap();
        let package = os.right_of_access(SubjectId::new(3)).unwrap();
        assert_eq!(package.items.len(), 1);
        // Nothing has expired yet; the sweep is an indexed no-op.
        assert!(os.enforce_retention().unwrap().is_empty());
        // Past the 1-year TTL of Listing 1 the record is swept.
        os.clock().advance(Duration::from_days(366));
        assert_eq!(os.enforce_retention().unwrap().len(), 1);
        os.clock().advance(Duration::from_days(1));
        os.collect("user", SubjectId::new(3), user_row("Again", 1981))
            .unwrap();
        let receipt = os.right_to_be_forgotten(SubjectId::new(3)).unwrap();
        assert_eq!(receipt.erased.len(), 1);
        assert!(os.right_of_access(SubjectId::new(3)).is_err());
        // The authority can still recover the erased row.
        assert!(os.authority().public_key().element() > 0);
    }

    #[test]
    fn sharded_boot_runs_the_whole_stack() {
        let os = RgpdOs::builder()
            .device_blocks(8_192)
            .block_size(512)
            .shards(4)
            .boot_sharded()
            .unwrap();
        assert_eq!(os.devices().len(), 4);
        assert_eq!(os.dbfs().num_shards(), 4);
        os.install_types(rgpdos_dsl::listings::LISTING_1).unwrap();
        let id = os.register_processing(compute_age_spec()).unwrap();
        for raw in 0..20u64 {
            os.collect(
                "user",
                SubjectId::new(raw),
                user_row(&format!("s{raw}"), 1990),
            )
            .unwrap();
        }
        // The DED pipeline scatter-gathers over every shard.
        let result = os.invoke(id, InvokeRequest::whole_type()).unwrap();
        assert_eq!(result.processed, 20);
        // Subject rights route to one shard (plus lineage).
        let package = os.right_of_access(SubjectId::new(3)).unwrap();
        assert_eq!(package.items.len(), 1);
        let receipt = os.right_to_be_forgotten(SubjectId::new(3)).unwrap();
        assert_eq!(receipt.erased.len(), 1);
        assert!(os.right_of_access(SubjectId::new(3)).is_err());
        // Compliance checking runs unchanged over the sharded store.
        let report = os.compliance_report().unwrap();
        assert!(report.is_compliant(), "failures: {:?}", report.failures());
        os.dbfs().verify_index_invariants().unwrap();
        assert!(os.device_stats().writes > 0);
    }

    #[test]
    fn traced_boot_records_per_right_latency_and_device_histograms() {
        use rgpdos_core::{ConsentDecision, PurposeId};
        let ctx = TraceCtx::sim();
        let os = RgpdOs::builder()
            .device_blocks(8_192)
            .trace(&ctx)
            .boot()
            .unwrap();
        os.install_types(rgpdos_dsl::listings::LISTING_1).unwrap();
        let subject = SubjectId::new(9);
        os.collect("user", subject, user_row("T", 1991)).unwrap();
        os.right_of_access(subject).unwrap();
        os.right_to_portability(subject).unwrap();
        os.grant_consent(
            subject,
            &PurposeId::from("statistics"),
            ConsentDecision::All,
        )
        .unwrap();
        os.withdraw_consent(subject, &PurposeId::from("statistics"))
            .unwrap();
        os.enforce_retention().unwrap();
        os.right_to_be_forgotten(subject).unwrap();
        for right in ["access", "portability", "erasure", "retention"] {
            let summary = ctx
                .registry
                .histogram_summary("right_latency_us", &[("right", right)])
                .unwrap_or_else(|| panic!("no histogram for right {right}"));
            assert_eq!(summary.count, 1, "{right}");
        }
        let consent = ctx
            .registry
            .histogram_summary("right_latency_us", &[("right", "consent")])
            .unwrap();
        assert_eq!(consent.count, 2, "grant + withdraw");
        // The device feeds labeled I/O histograms and drives the sim clock,
        // so erasure latency (which must flush) is strictly positive.
        let writes = ctx
            .registry
            .histogram_summary("device_write_us", &[("device", "pd0")])
            .unwrap();
        assert_eq!(writes.count, os.device_stats().writes);
        let erasure = ctx
            .registry
            .histogram_summary("right_latency_us", &[("right", "erasure")])
            .unwrap();
        assert!(erasure.min > 0, "erasure must pay simulated device time");
        // The snapshot is versioned and carries the spans.
        let snapshot = os.metrics_snapshot(42).unwrap();
        assert_eq!(snapshot.schema_version, rgpdos_trace::SCHEMA_VERSION);
        assert_eq!(snapshot.seed, 42);
        assert!(snapshot.spans.iter().any(|s| s.name == "right_erasure"));
        assert!(snapshot.spans.iter().any(|s| s.name == "fs_commit"));
        rgpdos_trace::MetricsSnapshot::validate_json(&snapshot.to_json()).unwrap();
    }

    #[test]
    fn sharded_traced_boot_labels_every_shard_device() {
        let ctx = TraceCtx::sim();
        let os = RgpdOs::builder()
            .device_blocks(8_192)
            .shards(3)
            .trace(&ctx)
            .boot_sharded()
            .unwrap();
        os.install_types(rgpdos_dsl::listings::LISTING_1).unwrap();
        for raw in 0..9u64 {
            os.collect("user", SubjectId::new(raw), user_row("S", 1990))
                .unwrap();
        }
        let (counters, _, histograms) = ctx.registry.collect();
        for shard in 0..3 {
            assert!(
                histograms.contains_key(&format!("device_write_us{{device=\"pd{shard}\"}}")),
                "missing device histogram for shard {shard}"
            );
            assert!(counters[&format!("dbfs_collects{{shard=\"{shard}\"}}")] > 0);
        }
        // The sharded store merges commit latency across shard labels.
        let merged = ctx.registry.merged_summary("fs_commit_latency_us").unwrap();
        assert!(merged.count > 0);
        assert!(merged.p99 >= merged.p50);
    }

    #[test]
    fn runtime_error_display_and_source() {
        let e = RuntimeError::from(rgpdos_dbfs::DbfsError::UnknownPd { id: 7 });
        assert!(e.to_string().contains("pd-7"));
        assert!(e.source().is_some());
        let e = RuntimeError::message("plain");
        assert!(e.source().is_none());
    }
}
