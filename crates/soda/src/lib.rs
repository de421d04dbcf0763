//! SODA and SODAerr: storage-optimized data-atomic MWMR register emulation.
//!
//! This crate is the core contribution of the reproduced paper
//! (*"Storage-Optimized Data-Atomic Algorithms for Handling Erasures and
//! Errors in Distributed Storage Systems"*, Konwar et al.). It implements, on
//! top of the [`soda_simnet`] execution substrate and the [`soda_protocol`]
//! primitives:
//!
//! * the **SODA** algorithm (Section IV): an `[n, k = n − f]` MDS-coded
//!   multi-writer multi-reader atomic register with total storage cost
//!   `n/(n−f)`, write cost `O(f²)` and read cost `n/(n−f)·(δw + 1)`;
//! * the **SODAerr** variant (Section VI): the same protocol with
//!   `k = n − f − 2e`, tolerating up to `e` byzantine servers that silently
//!   corrupt every coded element they send a reader ([`adversary`]);
//! * [`SodaSpec`], the [`soda_protocol::ProtocolSpec`] through which the
//!   generic cluster harness of `soda-registry` builds these automata inside
//!   the simulator and reads their operation logs, storage occupancy and
//!   repair progress.
//!
//! The three process roles map one-to-one onto the paper's automata:
//!
//! | paper role | type | behaviour |
//! |---|---|---|
//! | writer `w ∈ W` | [`WriterProcess`] | `write-get` (majority tag query) then `write-put` (MD-VALUE dispersal, wait for `max(k, majority)` acks) |
//! | reader `r ∈ R` | [`ReaderProcess`] | `read-get` (majority tag query), `read-value` (register + collect coded elements of tags `≥ t_r`, decode the highest tag with `k` / `k + 2e` of them), `read-complete` |
//! | server `s ∈ S` | [`ServerProcess`] | stores one `(tag, coded element)` pair, relays concurrent writes to registered readers, runs the READ-DISPERSE bookkeeping that eventually unregisters every reader; a replacement repairs by running the reader's read against the survivors and re-encoding its own element |
//!
//! Both clients keep their operations in a [`soda_protocol::OpQueue`] (the
//! invocation queue, the operation in flight and the completed log, shared
//! with the baselines' clients) and add only their phases.
//!
//! # Building clusters
//!
//! Application code should not construct deployments through this crate
//! directly: the `soda-registry` crate's `RegisterCluster` trait and
//! `ClusterBuilder` provide the one validated, protocol-agnostic client API
//! over SODA, SODAerr and the baselines (select this crate's algorithms with
//! `ProtocolKind::Soda` / `ProtocolKind::SodaErr { e }`). This crate holds
//! the automata and their [`SodaSpec`]; the harness that runs them, and its
//! quick start, are there.
//!
//! The automata stay directly usable: every process of a cluster shares one
//! [`soda_protocol::Deployment`], which holds the layout, the code, the error
//! budget and the quorums that [`Phase`]'s table is read in:
//!
//! ```
//! use soda::Phase;
//! use soda_protocol::{Deployment, Layout};
//! use soda_simnet::ProcessId;
//!
//! // SODA on five servers tolerating two crashes runs the [5, 3] code.
//! let layout = Layout::new((0..5u32).map(ProcessId).collect(), 2);
//! let deployment = Deployment::new(layout, 3, 0);
//! assert_eq!(deployment.quorum(Phase::WriteGet), 3); // a majority
//! assert_eq!(deployment.quorum(Phase::ReadValue), 3); // k + 2e elements
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod adversary;

mod config;
mod messages;
mod reader;
mod server;
mod spec;
mod writer;

pub use adversary::coded_element_corruptor;
pub use config::Phase;
pub use messages::{MetaPayload, OpId, SodaMsg};
pub use reader::ReaderProcess;
pub use server::ServerProcess;
pub use spec::SodaSpec;
pub use writer::WriterProcess;
