//! The PD membrane: the first demonstration of *active data* (§2).
//!
//! Every piece of personal data stored in DBFS is wrapped in a [`Membrane`]
//! carrying the metadata that lets the data enforce its subject's decisions:
//! origin, per-purpose consent, time to live, sensitivity level, collection
//! interface, lineage of copies, and the erasure marker used by the right to
//! be forgotten.

use crate::clock::{TimeToLive, Timestamp};
use crate::consent::{AccessDecision, ConsentDecision, ConsentTable, LegalBasis};
use crate::error::CoreError;
use crate::ids::{PdId, PurposeId, SubjectId};
use crate::schema::DataTypeSchema;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Where a piece of personal data came from (traceability requirement of the
/// `collection` built-in, §2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Origin {
    /// Collected directly from the data subject.
    Subject,
    /// Entered by the data operator (sysadmin).
    Sysadmin,
    /// Transferred from another data operator.
    OtherOperator,
    /// Derived by a processing from existing personal data.
    Derived,
}

impl fmt::Display for Origin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Origin::Subject => "subject",
            Origin::Sysadmin => "sysadmin",
            Origin::OtherOperator => "other-operator",
            Origin::Derived => "derived",
        };
        f.write_str(s)
    }
}

impl Origin {
    /// Parses the DSL spelling used by Listing 1 (`origin: subject`).
    pub fn parse(spelling: &str) -> Result<Self, CoreError> {
        match spelling {
            "subject" => Ok(Origin::Subject),
            "sysadmin" | "operator" => Ok(Origin::Sysadmin),
            "third_party" | "other_operator" => Ok(Origin::OtherOperator),
            "derived" => Ok(Origin::Derived),
            other => Err(CoreError::InvalidSchema {
                reason: format!("unknown origin `{other}`"),
            }),
        }
    }
}

/// Sensitivity level of a data type.
///
/// The GDPR requires sensitive data (art. 9 special categories) to receive
/// stronger protection; DBFS uses the level to decide storage segregation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Sensitivity {
    /// Non-sensitive personal data (e.g. a display name).
    Low,
    /// Ordinary personal data (e.g. an email address).
    Medium,
    /// Sensitive personal data (e.g. a social security number, health data).
    High,
}

impl Sensitivity {
    /// Parses the DSL spelling (`sensitivity: hight` — the paper's listing
    /// contains that typo, which we accept).
    pub fn parse(spelling: &str) -> Result<Self, CoreError> {
        match spelling {
            "low" => Ok(Sensitivity::Low),
            "medium" | "normal" => Ok(Sensitivity::Medium),
            "high" | "hight" => Ok(Sensitivity::High),
            other => Err(CoreError::InvalidSchema {
                reason: format!("unknown sensitivity `{other}`"),
            }),
        }
    }
}

impl fmt::Display for Sensitivity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Sensitivity::Low => "low",
            Sensitivity::Medium => "medium",
            Sensitivity::High => "high",
        };
        f.write_str(s)
    }
}

/// A declared way of collecting data of a given type when it is not yet
/// present in DBFS (Listing 1's `collection { web_form: …, third_party: … }`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CollectionMethod {
    /// A web form served to the data subject.
    WebForm {
        /// The page implementing the form.
        page: String,
    },
    /// A script fetching the data from a third party.
    ThirdParty {
        /// The fetcher script.
        script: String,
    },
    /// Data is provided inline by the calling application (used in tests and
    /// synthetic workloads).
    Inline,
}

impl fmt::Display for CollectionMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectionMethod::WebForm { page } => write!(f, "web_form:{page}"),
            CollectionMethod::ThirdParty { script } => write!(f, "third_party:{script}"),
            CollectionMethod::Inline => f.write_str("inline"),
        }
    }
}

/// The membrane wrapped around every PD item stored in DBFS.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Membrane {
    subject: SubjectId,
    origin: Origin,
    consents: ConsentTable,
    time_to_live: TimeToLive,
    sensitivity: Sensitivity,
    collection: Vec<CollectionMethod>,
    collected_at: Timestamp,
    /// Identifier of the PD this item was copied from, when the item was
    /// produced by the `copy` built-in.  Copies must keep membranes
    /// consistent, and erasure must reach every copy.
    copied_from: Option<PdId>,
    /// Set when the right to be forgotten has been exercised: the payload is
    /// crypto-erased and only the authority can recover it.
    erased: bool,
}

impl Membrane {
    /// Creates a membrane with explicit metadata.
    pub fn new(
        subject: SubjectId,
        origin: Origin,
        consents: ConsentTable,
        time_to_live: TimeToLive,
        sensitivity: Sensitivity,
        collected_at: Timestamp,
    ) -> Self {
        Self {
            subject,
            origin,
            consents,
            time_to_live,
            sensitivity,
            collection: Vec::new(),
            collected_at,
            copied_from: None,
            erased: false,
        }
    }

    /// Creates the default membrane for data of type `schema`, as the
    /// `acquisition` built-in does at collection time: the schema's default
    /// consent, origin, TTL and sensitivity are copied into the membrane.
    pub fn from_schema(
        schema: &DataTypeSchema,
        subject: SubjectId,
        collected_at: Timestamp,
    ) -> Self {
        let mut consents = ConsentTable::new();
        for (purpose, decision) in schema.default_consent() {
            // Default consent expresses operations backed by a legitimate
            // basis of the operator, not an explicit subject consent.
            consents.grant_with_basis(
                purpose.clone(),
                decision.clone(),
                LegalBasis::LegitimateInterest,
            );
        }
        Self {
            subject,
            origin: schema.origin(),
            consents,
            time_to_live: schema.time_to_live(),
            sensitivity: schema.sensitivity(),
            collection: schema.collection_methods().to_vec(),
            collected_at,
            copied_from: None,
            erased: false,
        }
    }

    /// The data subject this PD belongs to.
    pub fn subject(&self) -> SubjectId {
        self.subject
    }

    /// Where the data came from.
    pub fn origin(&self) -> Origin {
        self.origin
    }

    /// The consent table.
    pub fn consents(&self) -> &ConsentTable {
        &self.consents
    }

    /// The retention period.
    pub fn time_to_live(&self) -> TimeToLive {
        self.time_to_live
    }

    /// The sensitivity level.
    pub fn sensitivity(&self) -> Sensitivity {
        self.sensitivity
    }

    /// The declared collection interfaces.
    pub fn collection_methods(&self) -> &[CollectionMethod] {
        &self.collection
    }

    /// When the data was collected.
    pub fn collected_at(&self) -> Timestamp {
        self.collected_at
    }

    /// The PD this item was copied from, if it is a copy.
    pub fn copied_from(&self) -> Option<PdId> {
        self.copied_from
    }

    /// Whether the item has been crypto-erased.
    pub fn is_erased(&self) -> bool {
        self.erased
    }

    /// Checks whether `purpose` may access the wrapped data, combining the
    /// consent table with the erasure and retention state: erased or expired
    /// data is never accessible to processings.
    pub fn permits(&self, purpose: &PurposeId) -> AccessDecision {
        if self.erased {
            return AccessDecision::Denied;
        }
        self.consents.check(purpose)
    }

    /// Same as [`Membrane::permits`] but also enforces the retention period
    /// against the supplied current time.
    pub fn permits_at(&self, purpose: &PurposeId, now: Timestamp) -> AccessDecision {
        if self.time_to_live.is_expired(self.collected_at, now) {
            return AccessDecision::Denied;
        }
        self.permits(purpose)
    }

    /// Returns `true` if the retention period has elapsed at `now`.
    pub fn is_expired(&self, now: Timestamp) -> bool {
        self.time_to_live.is_expired(self.collected_at, now)
    }

    /// The instant at which the wrapped data expires: `None` for unbounded
    /// retention and for erased tombstones (which no longer expire).
    pub fn expiry_instant(&self) -> Option<Timestamp> {
        if self.erased {
            None
        } else {
            self.time_to_live.expires_at(self.collected_at)
        }
    }

    /// Produces the membrane for a copy of this PD, preserving every
    /// restriction (the `copy` built-in must keep membranes consistent across
    /// copies, §2).
    pub fn for_copy(&self, original: PdId) -> Membrane {
        let mut copy = self.clone();
        copy.copied_from = Some(original);
        copy
    }

    /// Produces the membrane for PD *derived* from this item by a processing
    /// (`ded_build_membrane` step): the derived item inherits the subject,
    /// consent table, TTL and sensitivity, but its origin becomes
    /// [`Origin::Derived`].
    pub fn for_derived(&self, created_at: Timestamp) -> Membrane {
        let mut derived = self.clone();
        derived.origin = Origin::Derived;
        derived.collected_at = created_at;
        derived.copied_from = None;
        derived
    }

    /// Marks the wrapped data as erased (right to be forgotten).  The
    /// membrane itself survives so that the erasure is auditable and so the
    /// authorities can still locate the ciphertext.
    pub fn mark_erased(&mut self) {
        self.erased = true;
    }

    /// Applies a [`MembraneDelta`] (subject-initiated consent change).
    pub fn apply(&mut self, delta: &MembraneDelta) -> bool {
        match delta {
            MembraneDelta::Grant { purpose, decision } => {
                self.consents.grant(purpose.clone(), decision.clone());
                true
            }
            MembraneDelta::Withdraw { purpose } => self.consents.withdraw(purpose),
            MembraneDelta::SetTimeToLive { ttl } => {
                self.time_to_live = *ttl;
                true
            }
        }
    }
}

impl fmt::Display for Membrane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "membrane(subject={}, origin={}, sensitivity={}, ttl={}, erased={})",
            self.subject, self.origin, self.sensitivity, self.time_to_live, self.erased
        )
    }
}

/// A subject-initiated change to a membrane.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum MembraneDelta {
    /// Grant (or change) consent for a purpose.
    Grant {
        /// The purpose whose consent changes.
        purpose: PurposeId,
        /// The new decision.
        decision: ConsentDecision,
    },
    /// Withdraw consent for a purpose.
    Withdraw {
        /// The purpose whose consent is withdrawn.
        purpose: PurposeId,
    },
    /// Change the retention period.
    SetTimeToLive {
        /// The new retention period.
        ttl: TimeToLive,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Duration;
    use crate::schema::listing1_user_schema;

    fn membrane() -> Membrane {
        Membrane::from_schema(
            &listing1_user_schema(),
            SubjectId::new(1),
            Timestamp::from_secs(100),
        )
    }

    #[test]
    fn origin_and_sensitivity_parse() {
        assert_eq!(Origin::parse("subject").unwrap(), Origin::Subject);
        assert_eq!(Origin::parse("sysadmin").unwrap(), Origin::Sysadmin);
        assert_eq!(Origin::parse("third_party").unwrap(), Origin::OtherOperator);
        assert_eq!(Origin::parse("derived").unwrap(), Origin::Derived);
        assert!(Origin::parse("mars").is_err());
        assert_eq!(Sensitivity::parse("hight").unwrap(), Sensitivity::High);
        assert_eq!(Sensitivity::parse("low").unwrap(), Sensitivity::Low);
        assert!(Sensitivity::parse("extreme").is_err());
        assert!(Sensitivity::Low < Sensitivity::High);
    }

    #[test]
    fn from_schema_copies_defaults() {
        let m = membrane();
        assert_eq!(m.subject(), SubjectId::new(1));
        assert_eq!(m.origin(), Origin::Subject);
        assert_eq!(m.sensitivity(), Sensitivity::High);
        assert_eq!(m.time_to_live(), TimeToLive::years(1));
        assert_eq!(m.collected_at(), Timestamp::from_secs(100));
        assert_eq!(m.collection_methods().len(), 2);
        assert!(!m.is_erased());
        assert_eq!(
            m.permits(&PurposeId::from("purpose1")),
            AccessDecision::Full
        );
        assert_eq!(
            m.permits(&PurposeId::from("purpose2")),
            AccessDecision::Denied
        );
        assert!(m.permits(&PurposeId::from("purpose3")).view().is_some());
        // Unknown purposes are denied by default.
        assert_eq!(m.permits(&PurposeId::from("spam")), AccessDecision::Denied);
    }

    #[test]
    fn erasure_denies_everything() {
        let mut m = membrane();
        m.mark_erased();
        assert!(m.is_erased());
        assert_eq!(
            m.permits(&PurposeId::from("purpose1")),
            AccessDecision::Denied
        );
    }

    #[test]
    fn retention_is_enforced() {
        let m = membrane();
        let before_expiry = Timestamp::from_secs(100).advanced_by(Duration::from_days(364));
        let after_expiry = Timestamp::from_secs(100).advanced_by(Duration::from_days(366));
        assert_eq!(
            m.permits_at(&PurposeId::from("purpose1"), before_expiry),
            AccessDecision::Full
        );
        assert_eq!(
            m.permits_at(&PurposeId::from("purpose1"), after_expiry),
            AccessDecision::Denied
        );
        assert!(!m.is_expired(before_expiry));
        assert!(m.is_expired(after_expiry));
    }

    #[test]
    fn copy_preserves_membrane_and_lineage() {
        let m = membrane();
        let copy = m.for_copy(PdId::new(7));
        assert_eq!(copy.copied_from(), Some(PdId::new(7)));
        assert_eq!(copy.consents(), m.consents());
        assert_eq!(copy.sensitivity(), m.sensitivity());
        assert_eq!(copy.subject(), m.subject());
    }

    #[test]
    fn derived_membrane_changes_origin_only() {
        let m = membrane();
        let derived = m.for_derived(Timestamp::from_secs(500));
        assert_eq!(derived.origin(), Origin::Derived);
        assert_eq!(derived.collected_at(), Timestamp::from_secs(500));
        assert_eq!(derived.consents(), m.consents());
        assert_eq!(derived.copied_from(), None);
    }

    #[test]
    fn deltas_apply() {
        let mut m = membrane();
        assert!(m.apply(&MembraneDelta::Grant {
            purpose: PurposeId::from("newsletter"),
            decision: ConsentDecision::All,
        }));
        assert_eq!(
            m.permits(&PurposeId::from("newsletter")),
            AccessDecision::Full
        );
        assert!(m.apply(&MembraneDelta::Withdraw {
            purpose: PurposeId::from("newsletter"),
        }));
        assert_eq!(
            m.permits(&PurposeId::from("newsletter")),
            AccessDecision::Denied
        );
        // purpose1 was granted under legitimate interest by the schema default,
        // so the subject cannot withdraw it.
        assert!(!m.apply(&MembraneDelta::Withdraw {
            purpose: PurposeId::from("purpose1"),
        }));
        assert!(m.apply(&MembraneDelta::SetTimeToLive {
            ttl: TimeToLive::days(1),
        }));
        assert_eq!(m.time_to_live(), TimeToLive::days(1));
    }

    #[test]
    fn display_is_informative() {
        let m = membrane();
        let s = m.to_string();
        assert!(s.contains("subject-1"));
        assert!(s.contains("erased=false"));
        assert_eq!(CollectionMethod::Inline.to_string(), "inline");
        assert_eq!(
            CollectionMethod::WebForm {
                page: "f.html".into()
            }
            .to_string(),
            "web_form:f.html"
        );
    }
}
