//! Consent model.
//!
//! The membrane of every PD item records, per purpose, what the data subject
//! (or a legitimate basis) allows: everything, nothing, or a restricted view.
//! This module defines that vocabulary ([`ConsentDecision`]), the per-item
//! consent table ([`ConsentTable`]) and the outcome of checking a purpose
//! against it ([`AccessDecision`]).

use crate::ids::{PurposeId, ViewId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// The legal basis under which a processing purpose operates (GDPR art. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LegalBasis {
    /// The data subject has given consent (art. 6(1)(a)).
    Consent,
    /// Processing is necessary for the performance of a contract (6(1)(b)).
    Contract,
    /// Processing is necessary for compliance with a legal obligation (6(1)(c)).
    LegalObligation,
    /// Processing is necessary to protect vital interests (6(1)(d)).
    VitalInterest,
    /// Processing is necessary for a task in the public interest (6(1)(e)).
    PublicInterest,
    /// Processing is necessary for legitimate interests of the controller (6(1)(f)).
    LegitimateInterest,
}

impl fmt::Display for LegalBasis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LegalBasis::Consent => "consent",
            LegalBasis::Contract => "contract",
            LegalBasis::LegalObligation => "legal-obligation",
            LegalBasis::VitalInterest => "vital-interest",
            LegalBasis::PublicInterest => "public-interest",
            LegalBasis::LegitimateInterest => "legitimate-interest",
        };
        f.write_str(s)
    }
}

/// What a subject allows a given purpose to see of one PD item.
///
/// This mirrors the `consent { purpose1: all, purpose2: none, purpose3: ano }`
/// block of Listing 1.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ConsentDecision {
    /// The purpose may access every field of the data type.
    All,
    /// The purpose may not access this data at all.
    None,
    /// The purpose may only access the fields exposed by the named view.
    View(ViewId),
}

impl ConsentDecision {
    /// Returns `true` if the decision grants access to at least one field.
    pub fn allows_any(&self) -> bool {
        !matches!(self, ConsentDecision::None)
    }

    /// Parses the DSL spelling used in Listing 1 (`all`, `none`, or a view
    /// name such as `ano` which is resolved against the declared views by the
    /// schema builder).
    pub fn parse(spelling: &str) -> Self {
        match spelling {
            "all" => ConsentDecision::All,
            "none" => ConsentDecision::None,
            view => ConsentDecision::View(ViewId::from(view)),
        }
    }
}

impl fmt::Display for ConsentDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConsentDecision::All => f.write_str("all"),
            ConsentDecision::None => f.write_str("none"),
            ConsentDecision::View(v) => write!(f, "view:{v}"),
        }
    }
}

/// The result of asking a membrane "may purpose P touch this PD?".
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessDecision {
    /// Access granted to all fields.
    Full,
    /// Access granted, restricted to the named view.
    Restricted(ViewId),
    /// Access denied.
    Denied,
}

impl AccessDecision {
    /// Returns `true` if the decision grants access to at least one field.
    pub fn allows_any(&self) -> bool {
        !matches!(self, AccessDecision::Denied)
    }

    /// Returns the view restriction, if any.
    pub fn view(&self) -> Option<&ViewId> {
        match self {
            AccessDecision::Restricted(v) => Some(v),
            _ => None,
        }
    }
}

impl fmt::Display for AccessDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessDecision::Full => f.write_str("full"),
            AccessDecision::Restricted(v) => write!(f, "restricted({v})"),
            AccessDecision::Denied => f.write_str("denied"),
        }
    }
}

/// Per-PD table of consent decisions, keyed by purpose.
///
/// The table also records the legal basis claimed for each purpose, so that
/// the rights engine can distinguish subject-granted consent (revocable) from
/// a legal obligation (not revocable by the subject).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConsentTable {
    entries: BTreeMap<PurposeId, ConsentEntry>,
}

/// One consent entry: the decision and the legal basis backing it.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConsentEntry {
    /// What the purpose may see.
    pub decision: ConsentDecision,
    /// Why the purpose may see it.
    pub basis: LegalBasis,
}

impl ConsentTable {
    /// Creates an empty consent table (everything denied by default).
    pub fn new() -> Self {
        Self::default()
    }

    /// Grants `decision` to `purpose` under the subject's consent.
    pub fn grant(&mut self, purpose: impl Into<PurposeId>, decision: ConsentDecision) {
        self.grant_with_basis(purpose, decision, LegalBasis::Consent);
    }

    /// Grants `decision` to `purpose` under an explicit legal basis.
    pub fn grant_with_basis(
        &mut self,
        purpose: impl Into<PurposeId>,
        decision: ConsentDecision,
        basis: LegalBasis,
    ) {
        self.entries
            .insert(purpose.into(), ConsentEntry { decision, basis });
    }

    /// Withdraws consent for `purpose`.
    ///
    /// Entries backed by a legal basis other than [`LegalBasis::Consent`]
    /// cannot be withdrawn by the subject; the call returns `false` and
    /// leaves the entry in place, which mirrors GDPR art. 7(3) (withdrawal
    /// applies to consent-based processing only).
    pub fn withdraw(&mut self, purpose: &PurposeId) -> bool {
        match self.entries.get(purpose) {
            Some(entry) if entry.basis == LegalBasis::Consent => {
                self.entries.insert(
                    purpose.clone(),
                    ConsentEntry {
                        decision: ConsentDecision::None,
                        basis: LegalBasis::Consent,
                    },
                );
                true
            }
            _ => false,
        }
    }

    /// Checks what `purpose` may see.  Unknown purposes are denied — the
    /// paper's deny-by-default stance ("every access to PD must be controlled
    /// by rgpdOS").
    pub fn check(&self, purpose: &PurposeId) -> AccessDecision {
        match self.entries.get(purpose) {
            None => AccessDecision::Denied,
            Some(entry) => match &entry.decision {
                ConsentDecision::All => AccessDecision::Full,
                ConsentDecision::None => AccessDecision::Denied,
                ConsentDecision::View(v) => AccessDecision::Restricted(v.clone()),
            },
        }
    }

    /// Returns the entry for `purpose`, if any.
    pub fn entry(&self, purpose: &PurposeId) -> Option<&ConsentEntry> {
        self.entries.get(purpose)
    }

    /// Iterates over all `(purpose, entry)` pairs in purpose order.
    pub fn iter(&self) -> impl Iterator<Item = (&PurposeId, &ConsentEntry)> {
        self.entries.iter()
    }

    /// Number of purposes with an explicit entry.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no purpose has an explicit entry.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns the purposes that currently have access to at least one field.
    pub fn permitted_purposes(&self) -> impl Iterator<Item = &PurposeId> {
        self.entries
            .iter()
            .filter(|(_, e)| e.decision.allows_any())
            .map(|(p, _)| p)
    }
}

impl FromIterator<(PurposeId, ConsentEntry)> for ConsentTable {
    fn from_iter<T: IntoIterator<Item = (PurposeId, ConsentEntry)>>(iter: T) -> Self {
        ConsentTable {
            entries: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn purpose(name: &str) -> PurposeId {
        PurposeId::from(name)
    }

    #[test]
    fn decision_parse_matches_listing1() {
        assert_eq!(ConsentDecision::parse("all"), ConsentDecision::All);
        assert_eq!(ConsentDecision::parse("none"), ConsentDecision::None);
        assert_eq!(
            ConsentDecision::parse("ano"),
            ConsentDecision::View(ViewId::from("ano"))
        );
    }

    #[test]
    fn unknown_purpose_is_denied_by_default() {
        let table = ConsentTable::new();
        assert_eq!(table.check(&purpose("marketing")), AccessDecision::Denied);
        assert!(table.is_empty());
    }

    #[test]
    fn grant_and_check() {
        let mut table = ConsentTable::new();
        table.grant("purpose1", ConsentDecision::All);
        table.grant("purpose2", ConsentDecision::None);
        table.grant("purpose3", ConsentDecision::View(ViewId::from("v_ano")));
        assert_eq!(table.check(&purpose("purpose1")), AccessDecision::Full);
        assert_eq!(table.check(&purpose("purpose2")), AccessDecision::Denied);
        assert_eq!(
            table.check(&purpose("purpose3")),
            AccessDecision::Restricted(ViewId::from("v_ano"))
        );
        assert_eq!(table.len(), 3);
        assert_eq!(table.permitted_purposes().count(), 2);
    }

    #[test]
    fn withdraw_consent_only_affects_consent_basis() {
        let mut table = ConsentTable::new();
        table.grant("newsletter", ConsentDecision::All);
        table.grant_with_basis(
            "tax-audit",
            ConsentDecision::All,
            LegalBasis::LegalObligation,
        );
        assert!(table.withdraw(&purpose("newsletter")));
        assert_eq!(table.check(&purpose("newsletter")), AccessDecision::Denied);
        // Withdrawal does not remove the entry, it records a `None` decision:
        assert!(table.entry(&purpose("newsletter")).is_some());
        // A legal obligation survives a withdrawal attempt.
        assert!(!table.withdraw(&purpose("tax-audit")));
        assert_eq!(table.check(&purpose("tax-audit")), AccessDecision::Full);
        // Withdrawing a purpose that has no entry does nothing.
        assert!(!table.withdraw(&purpose("unknown")));
    }

    #[test]
    fn access_decision_helpers() {
        assert!(AccessDecision::Full.allows_any());
        assert!(AccessDecision::Restricted(ViewId::from("v")).allows_any());
        assert!(!AccessDecision::Denied.allows_any());
        assert_eq!(
            AccessDecision::Restricted(ViewId::from("v")).view(),
            Some(&ViewId::from("v"))
        );
        assert_eq!(AccessDecision::Full.view(), None);
    }

    #[test]
    fn displays_are_informative() {
        assert_eq!(ConsentDecision::All.to_string(), "all");
        assert_eq!(AccessDecision::Denied.to_string(), "denied");
        assert_eq!(LegalBasis::LegalObligation.to_string(), "legal-obligation");
        assert_eq!(
            AccessDecision::Restricted(ViewId::from("v_ano")).to_string(),
            "restricted(v_ano)"
        );
    }

    #[test]
    fn table_from_iterator() {
        let table: ConsentTable = vec![(
            purpose("p"),
            ConsentEntry {
                decision: ConsentDecision::All,
                basis: LegalBasis::Contract,
            },
        )]
        .into_iter()
        .collect();
        assert_eq!(table.check(&purpose("p")), AccessDecision::Full);
        assert_eq!(table.iter().count(), 1);
    }
}
