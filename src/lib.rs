//! Umbrella crate for the SODA reproduction workspace.
//!
//! The interesting code lives in the `crates/` workspace members; this crate
//! only hosts the end-to-end examples in `examples/` and re-exports the
//! protocol-agnostic client facade so they (and downstream users) need a
//! single dependency:
//!
//! * [`soda_registry`] — the [`soda_registry::RegisterCluster`] trait and
//!   [`soda_registry::ClusterBuilder`], one client API over SODA, SODAerr,
//!   ABD, CAS and CASGC.
//! * [`soda_store`] — the sharded multi-object KV store layered over the
//!   register protocols ([`soda_store::ShardedStore`]).
//! * [`soda_workload`] — the shared measurement scenario and the paper's
//!   claims as one checked list.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use soda_consistency;
pub use soda_registry;
pub use soda_simnet;
pub use soda_store;
pub use soda_workload;
