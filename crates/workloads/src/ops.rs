//! GDPRBench-style operation mixes.
//!
//! Shastri et al.'s GDPR benchmark (cited by the paper) structures workloads
//! around three roles: the **controller** (ordinary business traffic), the
//! **customer** (data subjects exercising their rights) and the **regulator**
//! (audits).  The [`WorkloadMix`] presets follow that structure so the C4
//! overhead experiment can compare rgpdOS and the baseline on comparable
//! operation streams.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// One operation of a workload stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperationKind {
    /// Collect (insert) a new personal-data item.
    Collect,
    /// Read one item.
    Read,
    /// Update one item.
    Update,
    /// Invoke a registered processing over the whole type.
    Invoke,
    /// Serve a right-of-access request.
    AccessRequest,
    /// Serve a right-to-portability request (machine-readable export).
    Portability,
    /// Serve a right-to-be-forgotten request.
    Erasure,
    /// Record a consent change.
    ConsentChange,
    /// Run a compliance audit pass.
    Audit,
}

impl fmt::Display for OperationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OperationKind::Collect => "collect",
            OperationKind::Read => "read",
            OperationKind::Update => "update",
            OperationKind::Invoke => "invoke",
            OperationKind::AccessRequest => "access-request",
            OperationKind::Portability => "portability",
            OperationKind::Erasure => "erasure",
            OperationKind::ConsentChange => "consent-change",
            OperationKind::Audit => "audit",
        };
        f.write_str(s)
    }
}

/// Relative weights of each operation kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadMix {
    /// Weight of collects.
    pub collect: u32,
    /// Weight of reads.
    pub read: u32,
    /// Weight of updates.
    pub update: u32,
    /// Weight of processing invocations.
    pub invoke: u32,
    /// Weight of access requests.
    pub access_request: u32,
    /// Weight of portability requests.
    pub portability: u32,
    /// Weight of erasures.
    pub erasure: u32,
    /// Weight of consent changes.
    pub consent_change: u32,
    /// Weight of audits.
    pub audit: u32,
}

impl WorkloadMix {
    /// The controller role: mostly business reads/writes, few rights
    /// requests.
    pub fn controller() -> Self {
        Self {
            collect: 15,
            read: 50,
            update: 20,
            invoke: 10,
            access_request: 2,
            portability: 0,
            erasure: 1,
            consent_change: 2,
            audit: 0,
        }
    }

    /// The customer role: data subjects exercising their rights.
    pub fn customer() -> Self {
        Self {
            collect: 5,
            read: 10,
            update: 5,
            invoke: 0,
            access_request: 30,
            portability: 10,
            erasure: 20,
            consent_change: 20,
            audit: 0,
        }
    }

    /// The regulator role: audits and access requests.
    pub fn regulator() -> Self {
        Self {
            collect: 0,
            read: 10,
            update: 0,
            invoke: 0,
            access_request: 40,
            portability: 0,
            erasure: 0,
            consent_change: 0,
            audit: 50,
        }
    }

    fn weights(&self) -> [(OperationKind, u32); 9] {
        [
            (OperationKind::Collect, self.collect),
            (OperationKind::Read, self.read),
            (OperationKind::Update, self.update),
            (OperationKind::Invoke, self.invoke),
            (OperationKind::AccessRequest, self.access_request),
            (OperationKind::Portability, self.portability),
            (OperationKind::Erasure, self.erasure),
            (OperationKind::ConsentChange, self.consent_change),
            (OperationKind::Audit, self.audit),
        ]
    }

    /// Total weight.
    pub fn total_weight(&self) -> u32 {
        self.weights().iter().map(|(_, w)| w).sum()
    }

    /// Generates a deterministic stream of `count` operations.
    ///
    /// # Panics
    ///
    /// Panics if every weight is zero.
    pub fn generate(&self, count: usize, seed: u64) -> Vec<OperationKind> {
        let total = self.total_weight();
        assert!(
            total > 0,
            "a workload mix needs at least one positive weight"
        );
        let weights = self.weights();
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let mut draw = rng.gen_range(0..total);
                for (kind, weight) in weights {
                    if draw < weight {
                        return kind;
                    }
                    draw -= weight;
                }
                OperationKind::Read
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn histogram(ops: &[OperationKind]) -> BTreeMap<String, usize> {
        let mut h = BTreeMap::new();
        for op in ops {
            *h.entry(op.to_string()).or_insert(0) += 1;
        }
        h
    }

    #[test]
    fn generation_is_deterministic_and_respects_weights() {
        let mix = WorkloadMix::controller();
        let a = mix.generate(10_000, 9);
        let b = mix.generate(10_000, 9);
        assert_eq!(a, b);
        let h = histogram(&a);
        // Reads dominate the controller mix.
        assert!(h["read"] > h["collect"]);
        assert!(h["read"] > h["erasure"]);
        // No audits in the controller mix.
        assert!(!h.contains_key("audit"));
    }

    #[test]
    fn role_presets_have_the_expected_emphasis() {
        let customer = histogram(&WorkloadMix::customer().generate(10_000, 1));
        assert!(customer["access-request"] > customer["read"]);
        assert!(customer["erasure"] > 0);
        let regulator = histogram(&WorkloadMix::regulator().generate(10_000, 1));
        assert!(regulator["audit"] > regulator["read"]);
        assert!(!regulator.contains_key("erasure"));
    }

    #[test]
    fn total_weight_and_display() {
        assert_eq!(WorkloadMix::controller().total_weight(), 100);
        assert_eq!(WorkloadMix::customer().total_weight(), 100);
        assert_eq!(WorkloadMix::regulator().total_weight(), 100);
        assert_eq!(OperationKind::Erasure.to_string(), "erasure");
        assert_eq!(OperationKind::Portability.to_string(), "portability");
    }

    #[test]
    #[should_panic(expected = "positive weight")]
    fn empty_mix_panics() {
        let mix = WorkloadMix {
            collect: 0,
            read: 0,
            update: 0,
            invoke: 0,
            access_request: 0,
            portability: 0,
            erasure: 0,
            consent_change: 0,
            audit: 0,
        };
        let _ = mix.generate(1, 0);
    }
}
