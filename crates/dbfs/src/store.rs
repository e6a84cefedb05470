//! The [`PdStore`] abstraction: the storage interface the rest of rgpdOS
//! (the DED pipeline, the rights engine, the compliance checker, the
//! runtime) programs against.
//!
//! Two implementations exist: the single-device [`Dbfs`](crate::Dbfs) in
//! this crate, and the horizontally partitioned `ShardedDbfs` of
//! `rgpdos_shard`, which runs N independent `Dbfs` instances behind a
//! subject-hash placement map.  Every method either enforces an obligation
//! (membrane-wrapped storage, lineage erasure, retention) or serves a
//! subject right, so any store that implements the trait inherits the
//! whole enforcement stack above it.
//!
//! The trait is the *only* statement of the store operations: neither
//! implementation has same-named inherent methods, so the documentation
//! here is the contract and an implementation documents only what is
//! specific to it.

use crate::error::DbfsError;
use crate::query::QueryRequest;
use crate::scrub::{ScrubReport, SpaceStats};
use crate::stats::DbfsStats;
use rgpdos_core::{
    AuditLog, DataTypeId, DataTypeSchema, LogicalClock, Membrane, MembraneDelta, PdId, PdRecord,
    RecordBatch, Row, SubjectId, WrappedPd,
};
use rgpdos_crypto::escrow::OperatorEscrow;
use std::sync::Arc;

/// A store of membrane-wrapped personal data.
///
/// All methods take `&self`: implementations are internally synchronised so
/// that one store can be shared by the DED, the rights engine and the
/// compliance checker.
pub trait PdStore: Send + Sync {
    /// The clock used to timestamp membranes.
    fn clock(&self) -> Arc<LogicalClock>;

    /// The audit log storage events are recorded into.
    fn audit(&self) -> AuditLog;

    /// Operation counters since format/mount (aggregated across backing
    /// instances for partitioned stores).
    fn stats(&self) -> DbfsStats;

    /// Routes the store's instrumentation through a trace context: op
    /// latency histograms, commit latency, cache and stats counters —
    /// labeled per backing instance for partitioned stores.  The default
    /// is a no-op so minimal stores stay trivially conformant.
    fn attach_trace(&self, ctx: &rgpdos_trace::TraceCtx) {
        let _ = ctx;
    }

    /// Installs a personal-data type.
    ///
    /// # Errors
    ///
    /// Returns [`DbfsError::TypeAlreadyExists`] when the type exists.
    fn create_type(&self, schema: DataTypeSchema) -> Result<(), DbfsError>;

    /// Returns the schema of a type.
    ///
    /// # Errors
    ///
    /// Returns [`DbfsError::UnknownType`].
    fn schema(&self, name: &DataTypeId) -> Result<DataTypeSchema, DbfsError>;

    /// The installed type names.
    fn types(&self) -> Vec<DataTypeId>;

    /// Number of live (non-erased) records of a type.
    ///
    /// # Errors
    ///
    /// Returns [`DbfsError::UnknownType`] when the type is not installed,
    /// and partitioned stores return [`DbfsError::PartialScatter`] when any
    /// backing instance failed — an undercount is never presented as a
    /// complete answer.
    fn count(&self, name: &DataTypeId) -> Result<usize, DbfsError>;

    /// The `acquisition` built-in: stores a newly collected row under the
    /// default membrane of its type.
    ///
    /// # Errors
    ///
    /// Returns [`DbfsError::UnknownType`] or [`DbfsError::Core`] on schema
    /// mismatch.
    fn collect(
        &self,
        data_type: &DataTypeId,
        subject: SubjectId,
        row: Row,
    ) -> Result<PdId, DbfsError>;

    /// Stores an already-wrapped record (the DED's store step for produced
    /// personal data, and the second half of `copy`).
    ///
    /// # Errors
    ///
    /// Same as [`PdStore::collect`], plus [`DbfsError::Erased`] for a live
    /// copy whose lineage chain is already tombstoned.
    fn insert_wrapped(&self, data_type: &DataTypeId, wrapped: WrappedPd)
        -> Result<PdId, DbfsError>;

    /// Batched `acquisition`: collects every row, returning the assigned
    /// identifiers in input order.  The batch goes through the store's
    /// write pipeline as one unit: the inserts share journal group commits
    /// (per backing instance for partitioned stores), each record is
    /// individually atomic, and a crash leaves a prefix of whole groups.
    ///
    /// # Errors
    ///
    /// Same as [`PdStore::collect`]; on error the rows before the failing
    /// one are applied (per backing instance for partitioned stores).
    fn collect_many(
        &self,
        data_type: &DataTypeId,
        rows: Vec<(SubjectId, Row)>,
    ) -> Result<Vec<PdId>, DbfsError>;

    /// Batched [`PdStore::insert_wrapped`] (see [`PdStore::collect_many`]
    /// for the batching and crash semantics).
    ///
    /// # Errors
    ///
    /// Same as [`PdStore::insert_wrapped`]; on error the items before the
    /// failing one are applied.
    fn insert_many(&self, items: Vec<(DataTypeId, WrappedPd)>) -> Result<Vec<PdId>, DbfsError>;

    /// Batched [`PdStore::update_row`] (see [`PdStore::collect_many`] for
    /// the batching and crash semantics).
    ///
    /// # Errors
    ///
    /// Same as [`PdStore::update_row`]; on error the updates before the
    /// failing one are applied.
    fn update_rows(
        &self,
        data_type: &DataTypeId,
        updates: Vec<(PdId, Row)>,
    ) -> Result<(), DbfsError>;

    /// Reads one record (payload + membrane).
    ///
    /// # Errors
    ///
    /// Returns [`DbfsError::UnknownPd`] when the id does not exist or
    /// belongs to another type.
    fn get(&self, data_type: &DataTypeId, id: PdId) -> Result<PdRecord, DbfsError>;

    /// Membrane-only load of a whole table (the `ded_load_membrane`
    /// request), so consent filtering can happen *before* any personal data
    /// is read.  Tombstones are included.
    ///
    /// # Errors
    ///
    /// Returns [`DbfsError::UnknownType`].
    fn load_membranes(&self, data_type: &DataTypeId) -> Result<Vec<(PdId, Membrane)>, DbfsError>;

    /// Membrane-only load restricted to one subject's records of a type.
    ///
    /// # Errors
    ///
    /// Returns [`DbfsError::UnknownType`].
    fn load_membranes_for_subject(
        &self,
        data_type: &DataTypeId,
        subject: SubjectId,
    ) -> Result<Vec<(PdId, Membrane)>, DbfsError>;

    /// Membrane-only load of a single record (a tombstone's membrane says
    /// so itself).
    ///
    /// # Errors
    ///
    /// Returns [`DbfsError::UnknownPd`].
    fn load_membrane(&self, data_type: &DataTypeId, id: PdId) -> Result<Membrane, DbfsError>;

    /// Full-record load of the identifiers that passed the membrane filter,
    /// in the order given.
    ///
    /// # Errors
    ///
    /// Returns [`DbfsError::UnknownPd`] for unknown identifiers.
    fn load_records(&self, data_type: &DataTypeId, ids: &[PdId]) -> Result<RecordBatch, DbfsError>;

    /// The `update` built-in: replaces the payload row of a record.
    ///
    /// # Errors
    ///
    /// Returns [`DbfsError::Erased`] or [`DbfsError::Core`].
    fn update_row(&self, data_type: &DataTypeId, id: PdId, row: Row) -> Result<(), DbfsError>;

    /// Applies a subject-initiated membrane change (consent grant or
    /// withdrawal, retention change); returns whether the delta had an
    /// effect.  A delta to an erased record has none: `Ok(false)`, nothing
    /// written, nothing audited.
    ///
    /// # Errors
    ///
    /// Returns [`DbfsError::UnknownPd`].
    fn apply_membrane_delta(
        &self,
        data_type: &DataTypeId,
        id: PdId,
        delta: &MembraneDelta,
    ) -> Result<bool, DbfsError>;

    /// The `copy` built-in: duplicates a record, recording lineage.
    ///
    /// # Errors
    ///
    /// Returns [`DbfsError::Erased`] for erased records.
    fn copy(&self, data_type: &DataTypeId, id: PdId) -> Result<PdId, DbfsError>;

    /// The `delete` built-in: crypto-erases a record and its transitive
    /// lineage closure, so no copy outlives its erased original.  Returns
    /// the identifiers this call tombstoned — the record itself plus every
    /// transitively reached copy; already-erased items are not listed.
    ///
    /// # Errors
    ///
    /// Returns [`DbfsError::UnknownPd`].
    fn erase(
        &self,
        data_type: &DataTypeId,
        id: PdId,
        escrow: &OperatorEscrow,
    ) -> Result<Vec<PdId>, DbfsError>;

    /// Subject-wide right to be forgotten.  Returns every identifier
    /// tombstoned by the call, transitively reached lineage copies included.
    ///
    /// # Errors
    ///
    /// Propagates storage errors.
    fn erase_subject(
        &self,
        subject: SubjectId,
        escrow: &OperatorEscrow,
    ) -> Result<Vec<PdId>, DbfsError>;

    /// Storage-limitation sweep: erases every record whose retention period
    /// elapsed.  Returns the expired identifiers.
    ///
    /// # Errors
    ///
    /// Propagates storage errors.
    fn purge_expired(&self, escrow: &OperatorEscrow) -> Result<Vec<PdId>, DbfsError>;

    /// Every live record of a subject, across all types (the right of
    /// access).
    ///
    /// # Errors
    ///
    /// Propagates storage errors.
    fn records_of_subject(&self, subject: SubjectId) -> Result<Vec<PdRecord>, DbfsError>;

    /// Executes a query against one table.
    ///
    /// # Errors
    ///
    /// Returns [`DbfsError::UnknownType`] or [`DbfsError::Core`].
    fn query(&self, request: &QueryRequest) -> Result<RecordBatch, DbfsError>;

    /// Verifies the store's internal indexes against its persisted state.
    ///
    /// # Errors
    ///
    /// Returns [`DbfsError::Corrupt`] describing the first violation.
    fn verify_index_invariants(&self) -> Result<(), DbfsError>;

    /// One tombstone-scrub pass: reclaims the on-disk footprint of
    /// tombstones whose erasure receipt is durable, never touching one
    /// still referenced by a pending erase intent or by surviving lineage
    /// (locally or in a routing layer's lineage directory).
    ///
    /// # Errors
    ///
    /// Propagates storage errors.
    fn scrub_tombstones(&self) -> Result<ScrubReport, DbfsError>;

    /// The store's space footprint: live versus tombstone record bytes and
    /// allocated blocks (aggregated across backing instances for
    /// partitioned stores).
    ///
    /// # Errors
    ///
    /// Propagates storage errors.
    fn space_stats(&self) -> Result<SpaceStats, DbfsError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dbfs, DbfsParams};
    use rgpdos_blockdev::MemDevice;
    use rgpdos_core::schema::listing1_user_schema;

    /// A generic function over any `PdStore` exercises the trait surface the
    /// engines rely on.
    fn lifecycle_through_trait<S: PdStore>(store: &S) {
        let user = DataTypeId::from("user");
        store.create_type(listing1_user_schema()).unwrap();
        let row = Row::new()
            .with("name", "Trait")
            .with("pwd", "pw")
            .with("year_of_birthdate", 1990i64);
        let id = store.collect(&user, SubjectId::new(1), row).unwrap();
        assert_eq!(store.count(&user).unwrap(), 1);
        assert!(matches!(
            store.count(&DataTypeId::from("ghost")),
            Err(DbfsError::UnknownType { .. } | DbfsError::PartialScatter { .. })
        ));
        let copy = store.copy(&user, id).unwrap();
        assert_ne!(copy, id);
        assert_eq!(
            store.records_of_subject(SubjectId::new(1)).unwrap().len(),
            2
        );
        let membranes = store.load_membranes(&user).unwrap();
        assert_eq!(membranes.len(), 2);
        store.verify_index_invariants().unwrap();
    }

    #[test]
    fn dbfs_implements_pd_store() {
        let dbfs = Dbfs::format(
            std::sync::Arc::new(MemDevice::new(8192, 512)),
            DbfsParams::small(),
        )
        .unwrap();
        lifecycle_through_trait(&dbfs);
    }
}
