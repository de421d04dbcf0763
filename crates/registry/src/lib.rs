//! One client API over every atomic-register protocol in this workspace.
//!
//! The paper's whole argument is comparative — Table I pits SODA/SODAerr
//! against ABD (Attiya et al.) and CAS/CASGC (Cadambe et al.), and treats
//! them as variants of one quorum-phase skeleton over one network model.
//! This crate says so once, which makes the comparison mechanical:
//!
//! * [`ProtocolKind`] — the algorithm to run: `Soda`, `SodaErr { e }`, `Abd`,
//!   `Cas` or `Casgc { gc }`, and the [`QuorumTable`] its phases read.
//! * [`ClusterBuilder`] — one named, defaulted, *validated* constructor for
//!   all five (rejecting e.g. `n ≤ 2f`, or SODAerr parameters with
//!   `k = n − f − 2e < 1`).
//! * [`RegisterCluster`] — the shared driving API: queue writes and reads
//!   (optionally at chosen simulated times), inject server and client
//!   crashes, run to quiescence, and extract [`OpRecord`]s, per-server
//!   storage occupancy, message statistics, and an atomicity-checkable
//!   [`soda_consistency::History`].
//! * [`Harness`] — the one implementation of that API, generic over a
//!   [`soda_protocol::ProtocolSpec`]. It owns the simulation, the process
//!   ids and the repair epochs; a protocol contributes only its processes
//!   and a few probes into them, from its own crate.
//!
//! Anything protocol-specific (SODA's reader registrations, CASGC's stored
//! version counts) is an inherent method of that protocol's harness type
//! ([`SodaRegisterCluster`], [`CasRegisterCluster`]), reached through the
//! typed [`ClusterBuilder::build_soda`] and [`ClusterBuilder::build_cas`]
//! constructors.
//!
//! # Quick start
//!
//! ```
//! use soda_registry::{ClusterBuilder, ProtocolKind};
//!
//! // The same scenario against two protocols, through one API.
//! for kind in [ProtocolKind::Soda, ProtocolKind::Abd] {
//!     let mut cluster = ClusterBuilder::new(kind, 5, 2).with_seed(7).build().unwrap();
//!     cluster.invoke_write(0, b"hello atomic world".to_vec());
//!     cluster.run_to_quiescence();
//!     cluster.invoke_read(0);
//!     cluster.run_to_quiescence();
//!     let ops = cluster.completed_ops();
//!     assert_eq!(ops.len(), 2);
//!     assert_eq!(ops[1].value.as_deref(), Some(b"hello atomic world".as_slice()));
//!     assert!(cluster.history(&[]).check_atomicity().is_ok());
//! }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod builder;
mod cluster;
mod harness;
mod kind;
mod record;

pub use builder::{BuildError, ClusterBuilder, PartitionWindow};
pub use cluster::RegisterCluster;
pub use harness::{AbdRegisterCluster, CasRegisterCluster, Harness, SodaRegisterCluster};
pub use kind::{ClusterDescriptor, ProtocolKind, QuorumTable};
pub use record::{history_from_records, history_with_pending, version_of_tag};
pub use soda_protocol::{
    Deployment, OpKind, OpRecord, PendingWrite, Quorum, RepairError, RepairStatus, Value,
};

/// All five protocol kinds with representative parameters, for tests and
/// sweeps that want to cover the whole matrix. `e` and `gc` are placeholders
/// (`e = 1`, `gc = 1`); scenario code usually overrides them.
pub const ALL_KINDS: [ProtocolKind; 5] = [
    ProtocolKind::Soda,
    ProtocolKind::SodaErr { e: 1 },
    ProtocolKind::Abd,
    ProtocolKind::Cas,
    ProtocolKind::Casgc { gc: 1 },
];
