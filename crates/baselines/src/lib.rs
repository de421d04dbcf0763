//! Baseline atomic-register algorithms the paper compares SODA against
//! (Table I and Section I-B):
//!
//! * [`abd`] — the replication-based ABD algorithm (Attiya, Bar-Noy, Dolev):
//!   every server stores the full value; writes and reads are two majority
//!   phases; the read writes the value back. Write cost, read cost and total
//!   storage cost are all `n`.
//! * [`cas`] — the erasure-coded CAS algorithm and its garbage-collected
//!   variant CASGC (Cadambe, Lynch, Médard, Musial): servers store coded
//!   elements for multiple versions with `pre`/`fin` labels; quorums of size
//!   `n − f` intersect in `k = n − 2f` elements. Per-operation communication
//!   cost is `n/(n−2f)`; CASGC bounds storage to `δ + 1` versions,
//!   i.e. `n/(n−2f)·(δ+1)`.
//!
//! Both are implemented over the same [`soda_simnet`] substrate and the same
//! cost model as SODA, so the experiment harness can regenerate the paper's
//! comparison table by running all three side by side.
//!
//! Each module holds its protocol's messages, server and client automata,
//! and a [`soda_protocol::ProtocolSpec`] ([`abd::AbdSpec`], [`cas::CasSpec`])
//! through which the one generic cluster harness of `soda-registry` builds,
//! drives and inspects them. The operation records the clients log and the
//! repair retry loop the replacement servers run are the shared ones of
//! `soda-protocol`. Application code builds clusters through that crate's
//! `ClusterBuilder` (with `ProtocolKind::Abd`, `ProtocolKind::Cas` or
//! `ProtocolKind::Casgc { gc }`), which validates parameters and returns the
//! protocol-agnostic `RegisterCluster` facade.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod abd;
pub mod cas;
