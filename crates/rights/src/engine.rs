//! The rights engine: subject-facing GDPR rights over any [`PdStore`]
//! (a single DBFS instance or a sharded deployment).

use crate::access::SubjectAccessPackage;
use crate::error::RightsError;
use rgpdos_core::{
    AuditEventKind, AuditLog, ConsentDecision, DataTypeId, LogicalClock, MembraneDelta, PdId,
    PurposeId, Row, SubjectId,
};
use rgpdos_crypto::escrow::OperatorEscrow;
use rgpdos_dbfs::PdStore;
use std::sync::Arc;

/// Receipt returned by an erasure request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErasureReceipt {
    /// The subject whose data was erased.
    pub subject: SubjectId,
    /// Every personal-data item the request tombstoned: the subject's
    /// records **and** every transitively tombstoned lineage copy the
    /// erasure cascade reached (on every shard, in a sharded deployment).
    pub erased: Vec<PdId>,
    /// When the erasure happened (simulated seconds).
    pub at: u64,
}

/// The engine serving subject rights requests.
#[derive(Debug)]
pub struct RightsEngine<S> {
    dbfs: Arc<S>,
    escrow: Arc<OperatorEscrow>,
    audit: AuditLog,
    clock: Arc<LogicalClock>,
}

impl<S: PdStore> RightsEngine<S> {
    /// Creates a rights engine over a personal-data store.
    pub fn new(dbfs: Arc<S>, escrow: Arc<OperatorEscrow>) -> Self {
        let audit = dbfs.audit();
        let clock = dbfs.clock();
        Self {
            dbfs,
            escrow,
            audit,
            clock,
        }
    }

    /// The store the engine operates on.
    pub fn dbfs(&self) -> &Arc<S> {
        &self.dbfs
    }

    /// Right of access (art. 15): the subject's data in structured,
    /// machine-readable form, plus the processings executed over it.
    ///
    /// # Errors
    ///
    /// Returns [`RightsError::UnknownSubject`] when the subject has no data.
    pub fn right_of_access(&self, subject: SubjectId) -> Result<SubjectAccessPackage, RightsError> {
        let records = self.dbfs.records_of_subject(subject)?;
        if records.is_empty() {
            return Err(RightsError::UnknownSubject {
                subject: subject.raw(),
            });
        }
        let package = SubjectAccessPackage::new(
            subject,
            self.clock.now(),
            &records,
            &self.audit.snapshot(),
            true,
        );
        self.audit.record(
            self.clock.now(),
            Some(subject),
            AuditEventKind::AccessRequestServed,
        );
        Ok(package)
    }

    /// Right to data portability (art. 20): the same export without the
    /// processing history.
    ///
    /// # Errors
    ///
    /// Returns [`RightsError::UnknownSubject`] when the subject has no data.
    pub fn right_to_portability(
        &self,
        subject: SubjectId,
    ) -> Result<SubjectAccessPackage, RightsError> {
        let records = self.dbfs.records_of_subject(subject)?;
        if records.is_empty() {
            return Err(RightsError::UnknownSubject {
                subject: subject.raw(),
            });
        }
        Ok(SubjectAccessPackage::new(
            subject,
            self.clock.now(),
            &records,
            &[],
            false,
        ))
    }

    /// Right to be forgotten (art. 17): crypto-erases every item of the
    /// subject, copies included.
    ///
    /// # Errors
    ///
    /// Propagates storage errors.
    pub fn right_to_be_forgotten(&self, subject: SubjectId) -> Result<ErasureReceipt, RightsError> {
        let erased = self.dbfs.erase_subject(subject, &self.escrow)?;
        Ok(ErasureReceipt {
            subject,
            erased,
            at: self.clock.now().as_secs(),
        })
    }

    /// Erasure of a single item (art. 17 on one record).
    ///
    /// # Errors
    ///
    /// Propagates storage errors.
    pub fn erase_item(&self, data_type: &DataTypeId, id: PdId) -> Result<(), RightsError> {
        self.dbfs.erase(data_type, id, &self.escrow)?;
        Ok(())
    }

    /// Right to rectification (art. 16): replaces the payload of a record.
    ///
    /// # Errors
    ///
    /// Propagates storage errors (schema violations included).
    pub fn right_to_rectification(
        &self,
        data_type: &DataTypeId,
        id: PdId,
        corrected: Row,
    ) -> Result<(), RightsError> {
        self.dbfs.update_row(data_type, id, corrected)?;
        Ok(())
    }

    /// Consent withdrawal (art. 7(3)) for one purpose across every item of
    /// the subject.  Returns the number of items whose membrane changed.
    ///
    /// # Errors
    ///
    /// Propagates storage errors.
    pub fn withdraw_consent(
        &self,
        subject: SubjectId,
        purpose: &PurposeId,
    ) -> Result<usize, RightsError> {
        let records = self.dbfs.records_of_subject(subject)?;
        let mut changed = 0;
        for record in records {
            let applied = self.dbfs.apply_membrane_delta(
                record.data_type(),
                record.id(),
                &MembraneDelta::Grant {
                    purpose: purpose.clone(),
                    decision: ConsentDecision::None,
                },
            )?;
            if applied {
                changed += 1;
            }
        }
        Ok(changed)
    }

    /// Grants consent for one purpose across every item of the subject.
    ///
    /// # Errors
    ///
    /// Propagates storage errors.
    pub fn grant_consent(
        &self,
        subject: SubjectId,
        purpose: &PurposeId,
        decision: ConsentDecision,
    ) -> Result<usize, RightsError> {
        let records = self.dbfs.records_of_subject(subject)?;
        let mut changed = 0;
        for record in records {
            if self.dbfs.apply_membrane_delta(
                record.data_type(),
                record.id(),
                &MembraneDelta::Grant {
                    purpose: purpose.clone(),
                    decision: decision.clone(),
                },
            )? {
                changed += 1;
            }
        }
        Ok(changed)
    }

    /// Storage limitation (art. 5(1)(e)): erases every record whose retention
    /// period has elapsed.  Returns the expired identifiers.
    ///
    /// # Errors
    ///
    /// Propagates storage errors.
    pub fn enforce_retention(&self) -> Result<Vec<PdId>, RightsError> {
        Ok(self.dbfs.purge_expired(&self.escrow)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rgpdos_blockdev::{scan_for_pattern, MemDevice};
    use rgpdos_core::schema::listing1_user_schema;
    use rgpdos_core::{AccessDecision, Duration};
    use rgpdos_crypto::escrow::Authority;
    use rgpdos_dbfs::{Dbfs, DbfsParams};

    fn engine() -> (RightsEngine<Dbfs<Arc<MemDevice>>>, Arc<MemDevice>) {
        let device = Arc::new(MemDevice::new(8192, 512));
        let dbfs = Arc::new(Dbfs::format(Arc::clone(&device), DbfsParams::small()).unwrap());
        dbfs.create_type(listing1_user_schema()).unwrap();
        let authority = Authority::generate(4);
        let escrow = Arc::new(OperatorEscrow::new(authority.public_key()));
        (RightsEngine::new(dbfs, escrow), device)
    }

    fn user_row(name: &str, year: i64) -> Row {
        Row::new()
            .with("name", name)
            .with("pwd", "pw")
            .with("year_of_birthdate", year)
    }

    #[test]
    fn right_of_access_returns_structured_export() {
        let (engine, _) = engine();
        let dbfs = engine.dbfs();
        dbfs.collect(&"user".into(), SubjectId::new(1), user_row("Chiraz", 1990))
            .unwrap();
        dbfs.collect(&"user".into(), SubjectId::new(1), user_row("Chiraz2", 1991))
            .unwrap();
        dbfs.collect(&"user".into(), SubjectId::new(2), user_row("Other", 1970))
            .unwrap();

        let package = engine.right_of_access(SubjectId::new(1)).unwrap();
        assert_eq!(package.subject, 1);
        assert_eq!(package.items.len(), 2);
        let json = package.to_json().unwrap();
        // Keys are the schema's field names, not arbitrary labels.
        assert!(json.contains("year_of_birthdate"));
        let parsed = SubjectAccessPackage::from_json(&json).unwrap();
        assert_eq!(parsed.items.len(), 2);
        // The request itself is audited.
        assert_eq!(
            engine
                .dbfs()
                .audit()
                .count_matching(|e| matches!(e.kind, AuditEventKind::AccessRequestServed)),
            1
        );
        // Unknown subjects are reported.
        assert!(matches!(
            engine.right_of_access(SubjectId::new(99)),
            Err(RightsError::UnknownSubject { .. })
        ));
    }

    #[test]
    fn portability_matches_access_minus_processings() {
        let (engine, _) = engine();
        engine
            .dbfs()
            .collect(&"user".into(), SubjectId::new(5), user_row("Port", 1988))
            .unwrap();
        let package = engine.right_to_portability(SubjectId::new(5)).unwrap();
        assert_eq!(package.items.len(), 1);
        assert!(package.processings.is_empty());
        assert!(engine.right_to_portability(SubjectId::new(6)).is_err());
    }

    #[test]
    fn right_to_be_forgotten_end_to_end() {
        let (engine, device) = engine();
        let dbfs = engine.dbfs();
        let id = dbfs
            .collect(
                &"user".into(),
                SubjectId::new(9),
                user_row("ERASE-ME-PLEASE", 1990),
            )
            .unwrap();
        dbfs.copy(&"user".into(), id).unwrap();
        let receipt = engine.right_to_be_forgotten(SubjectId::new(9)).unwrap();
        assert_eq!(receipt.subject, SubjectId::new(9));
        assert_eq!(receipt.erased.len(), 2, "the copy is erased too");
        // No plaintext residue anywhere on the device.
        assert!(scan_for_pattern(device.as_ref(), b"ERASE-ME-PLEASE")
            .unwrap()
            .is_empty());
        // After erasure the subject has no accessible data left.
        assert!(engine.right_of_access(SubjectId::new(9)).is_err());
    }

    #[test]
    fn rectification_and_single_item_erasure() {
        let (engine, _) = engine();
        let dbfs = engine.dbfs();
        let id = dbfs
            .collect(&"user".into(), SubjectId::new(2), user_row("Wrnog", 1990))
            .unwrap();
        engine
            .right_to_rectification(&"user".into(), id, user_row("Right", 1990))
            .unwrap();
        assert_eq!(
            dbfs.get(&"user".into(), id)
                .unwrap()
                .row()
                .get("name")
                .unwrap()
                .as_text(),
            Some("Right")
        );
        // Schema violations are propagated.
        assert!(engine
            .right_to_rectification(&"user".into(), id, Row::new().with("name", 1i64))
            .is_err());
        engine.erase_item(&"user".into(), id).unwrap();
        assert!(dbfs.get(&"user".into(), id).unwrap().membrane().is_erased());
    }

    #[test]
    fn consent_withdrawal_and_grant() {
        let (engine, _) = engine();
        let dbfs = engine.dbfs();
        let id = dbfs
            .collect(&"user".into(), SubjectId::new(3), user_row("Consent", 1990))
            .unwrap();
        // Grant a new purpose, check, withdraw, check again.
        let purpose = PurposeId::from("newsletter");
        assert_eq!(
            engine
                .grant_consent(SubjectId::new(3), &purpose, ConsentDecision::All)
                .unwrap(),
            1
        );
        assert_eq!(
            dbfs.get(&"user".into(), id)
                .unwrap()
                .membrane()
                .permits(&purpose),
            AccessDecision::Full
        );
        assert_eq!(
            engine
                .withdraw_consent(SubjectId::new(3), &purpose)
                .unwrap(),
            1
        );
        assert_eq!(
            dbfs.get(&"user".into(), id)
                .unwrap()
                .membrane()
                .permits(&purpose),
            AccessDecision::Denied
        );
    }

    #[test]
    fn retention_enforcement() {
        let (engine, _) = engine();
        let dbfs = engine.dbfs();
        dbfs.collect(&"user".into(), SubjectId::new(4), user_row("Old", 1950))
            .unwrap();
        assert!(engine.enforce_retention().unwrap().is_empty());
        dbfs.clock().advance(Duration::from_days(400));
        assert_eq!(engine.enforce_retention().unwrap().len(), 1);
    }
}
