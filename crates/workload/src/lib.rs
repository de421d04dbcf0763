//! Workload generation and experiment drivers for the SODA reproduction.
//!
//! This crate turns the protocol implementations into *measurements*. All
//! clusters are built and driven through the [`soda_registry`] facade — the
//! [`soda_registry::RegisterCluster`] trait and
//! [`soda_registry::ClusterBuilder`].
//!
//! [`experiments`] states the paper's claims (Table I, Theorems 3.2 and
//! 5.3–6.3) as one checked list of measured quantities beside their closed
//! forms; `soda-bench`'s `reproduce` binary prints it and a tier-1 test
//! asserts it. Its one measurement procedure, `measure`, runs SODA, SODAerr,
//! ABD, CAS and CASGC through the identical three phases on the builder each
//! sweep describes, checks the history's atomicity and normalizes the
//! storage and communication costs and latencies the claims talk about.
//!
//! [`explore`] is the adversarial counterpart of the gate's measurement:
//! instead of measuring costs on clean runs, it samples thousands of seeded
//! schedules of one register cluster under crashes, repairs, partitions and
//! network faults, machine-checks atomicity and liveness, and shrinks any
//! violation to a minimal reproducer. The sharded store's one check, the
//! `store_model` test, generates its own seeded store scenarios and checks
//! that every key runs as its lone cluster would, atomic and live.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod explore;
pub mod json;
