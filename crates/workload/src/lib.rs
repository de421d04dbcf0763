//! Workload generation and experiment drivers for the SODA reproduction.
//!
//! This crate turns the protocol implementations into *measurements*. All
//! clusters are built and driven through the [`soda_registry`] facade — the
//! [`soda_registry::RegisterCluster`] trait and
//! [`soda_registry::ClusterBuilder`] — so a single scenario runner
//! ([`scenario::run_scenario`]) measures SODA, SODAerr, ABD, CAS and CASGC
//! with the identical three-phase procedure, selected by
//! [`soda_registry::ProtocolKind`]. It converts the resulting operation
//! records into [`soda_consistency::History`] values for atomicity checking,
//! and aggregates the normalized storage/communication costs and latencies
//! that the paper's theorems and Table I talk about.
//!
//! [`experiments`] states the paper's claims (Table I, Theorems 3.2 and
//! 5.3–6.3) as one checked list of measured quantities beside their closed
//! forms; `soda-bench`'s `reproduce` binary prints it and a tier-1 test
//! asserts it.
//!
//! [`explore`] is the adversarial counterpart of [`scenario`]: instead of
//! measuring costs on clean runs, it samples thousands of seeded schedules
//! of one register cluster under crashes, repairs, partitions and network
//! faults, machine-checks atomicity and liveness, and shrinks any violation
//! to a minimal reproducer. The sharded store's one check, the `store_model`
//! test, generates its own seeded store scenarios and checks that every key
//! runs as its lone cluster would, atomic and live.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod explore;
pub mod json;
pub mod scenario;

pub use scenario::{run_scenario, ScenarioOutcome, ScenarioParams};
