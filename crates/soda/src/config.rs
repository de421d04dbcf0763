//! SODA's phases and their quorum table. Everything else a deployment
//! shares — layout, code, error budget, quorums — is its
//! [`soda_protocol::Deployment`].

use soda_protocol::{Quorum, QuorumPhase};

/// The phases of a SODA operation. A replacement server's repair is a read
/// that re-encodes, so it runs the read's two.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// `write-get`: query every server's tag.
    WriteGet,
    /// `write-put`: disperse the value, collect acks.
    WritePut,
    /// `read-get`: query every server's tag.
    ReadGet,
    /// `read-value`: registered with the servers, collecting coded elements.
    ReadValue,
}

/// SODA's and SODAerr's thresholds: the two gets wait for a majority of
/// responders and `write-put` for `max(k, majority)` acks, so a completed
/// write meets every later get. That is `k` for SODA (`k = n − f` is at
/// least a majority); SODAerr's `k = n − f − 2e` may be less. `read-value`
/// waits for `k + 2e` coded elements *of one tag*, which the read counts per
/// tag beside the phase driver's count of responders.
impl QuorumPhase for Phase {
    const QUORUMS: &'static [(Phase, Quorum)] = &[
        (Phase::WriteGet, Quorum::Majority),
        (Phase::WritePut, Quorum::KAtLeastMajority),
        (Phase::ReadGet, Quorum::Majority),
        (Phase::ReadValue, Quorum::KPlus2E),
    ];
}
