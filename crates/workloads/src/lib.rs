//! # rgpdos-workloads — workload generators and the Fig. 1 dataset
//!
//! The paper has no performance evaluation of its own, so the reproduction's
//! experiments need workloads from somewhere.  This crate provides:
//!
//! * [`penalties`] — the public GDPR-penalty aggregates behind **Figure 1**
//!   (total fines per year, most-sanctioned business sectors);
//! * [`population`] — deterministic generators of subjects and `user` rows
//!   (the Listing 1 type) with configurable consent rates;
//! * [`ops`] — GDPRBench-style operation mixes (the paper cites Shastri et
//!   al.'s benchmark as the reference point for GDPR-workload shapes), with
//!   the controller / customer / regulator role presets.
//!
//! Everything is seeded and deterministic so that benchmark runs are
//! reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ops;
pub mod penalties;
pub mod population;

pub use ops::{OperationKind, WorkloadMix};
pub use penalties::{PenaltyRecord, Sector};
pub use population::{GeneratedSubject, PopulationGenerator};
