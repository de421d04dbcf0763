//! One validated constructor for every protocol's cluster.

use crate::cluster::RegisterCluster;
use crate::harness::{CasRegisterCluster, Harness, SodaRegisterCluster};
use crate::kind::{ClusterDescriptor, ProtocolKind};
use soda::SodaSpec;
use soda_baselines::abd::AbdSpec;
use soda_baselines::cas::CasSpec;
use soda_simnet::{NetFaultPlan, NetworkConfig, ProcessId, SimTime};
use std::error::Error;
use std::fmt;

/// Why a [`ClusterBuilder`] refused to build.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// The cluster has no servers.
    NoServers,
    /// `f` is too large for `n`: every protocol here needs intersecting
    /// majorities, i.e. `n > 2f`.
    TooManyFaults {
        /// Number of servers.
        n: usize,
        /// Requested fault tolerance.
        f: usize,
    },
    /// The requested parameters leave no valid MDS code dimension
    /// (`k = n − f − 2e < 1` for SODAerr).
    InvalidCodeDimension {
        /// Number of servers.
        n: usize,
        /// Requested fault tolerance.
        f: usize,
        /// Requested error budget.
        e: usize,
    },
    /// The relay-ablation switch only exists in SODA / SODAerr.
    RelayAblationUnsupported {
        /// The offending protocol's name.
        kind: &'static str,
    },
    /// A typed `build_*` method was called for a different protocol kind.
    KindMismatch {
        /// What the typed constructor builds.
        expected: &'static str,
        /// What the builder was configured with.
        actual: &'static str,
    },
    /// Byzantine (element-corrupting) servers only exist in the SODA /
    /// SODAerr threat model.
    ByzantineUnsupported {
        /// The offending protocol's name.
        kind: &'static str,
    },
    /// A byzantine server rank does not name a server.
    ByzantineOutOfRange {
        /// The offending rank.
        rank: usize,
        /// Number of servers.
        n: usize,
    },
    /// The test-only quorum override only exists for ABD.
    QuorumOverrideUnsupported {
        /// The offending protocol's name.
        kind: &'static str,
    },
    /// A [`PartitionWindow`] names a server rank the cluster does not have.
    PartitionRankOutOfRange {
        /// The offending rank.
        rank: usize,
        /// Number of servers.
        n: usize,
    },
    /// A [`PartitionWindow`] is empty (`start >= end`) or isolates no
    /// ranks: it could never cut a link, so it is almost certainly a typo.
    PartitionEmptyWindow {
        /// The window's start tick.
        start: u64,
        /// The window's end tick.
        end: u64,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::NoServers => write!(out, "cluster needs at least one server"),
            BuildError::TooManyFaults { n, f } => write!(
                out,
                "fault tolerance f = {f} too large for n = {n} servers: majorities must \
                 intersect, so n > 2f is required"
            ),
            BuildError::InvalidCodeDimension { n, f, e } => write!(
                out,
                "no valid code dimension: k = n - f - 2e = {n} - {f} - 2*{e} < 1"
            ),
            BuildError::RelayAblationUnsupported { kind } => write!(
                out,
                "the relay-ablation switch is a SODA/SODAerr feature, not available for {kind}"
            ),
            BuildError::KindMismatch { expected, actual } => write!(
                out,
                "typed constructor for {expected} called on a builder configured for {actual}"
            ),
            BuildError::ByzantineUnsupported { kind } => write!(
                out,
                "byzantine element corruption is a SODA/SODAerr feature, not available for {kind}"
            ),
            BuildError::ByzantineOutOfRange { rank, n } => write!(
                out,
                "byzantine server rank {rank} out of range for n = {n} servers"
            ),
            BuildError::QuorumOverrideUnsupported { kind } => write!(
                out,
                "the test-only quorum override exists only for ABD, not for {kind}"
            ),
            BuildError::PartitionRankOutOfRange { rank, n } => write!(
                out,
                "partition isolates rank {rank} but the cluster has {n} servers"
            ),
            BuildError::PartitionEmptyWindow { start, end } => {
                write!(out, "partition window [{start}, {end}) isolates nothing")
            }
        }
    }
}

impl Error for BuildError {}

/// A scheduled partition: the server `ranks` are unreachable from **every
/// other process** of their cluster (surviving servers and all client
/// handles, both directions) during `[start, end)` ticks, healing at `end`.
///
/// Installed by [`ClusterBuilder::with_partition_window`] as a deterministic
/// isolation ([`NetFaultPlan::with_isolation`]), so the cuts consume no
/// randomness: a cluster with windows and one without sample identical RNG
/// streams for everything else.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionWindow {
    /// Isolated server ranks.
    pub ranks: Vec<usize>,
    /// First tick of the outage (inclusive).
    pub start: u64,
    /// First tick after the heal (exclusive end).
    pub end: u64,
}

impl PartitionWindow {
    /// Window length in ticks.
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// Whether the window is degenerate (cuts nothing).
    pub fn is_empty(&self) -> bool {
        self.start >= self.end || self.ranks.is_empty()
    }

    /// The window as an `n`-server cluster sees it: ranks that name no server
    /// are dropped, and `None` is returned if nothing is left to cut.
    pub fn on_cluster(&self, n: usize) -> Option<PartitionWindow> {
        let window = PartitionWindow {
            ranks: self.ranks.iter().copied().filter(|&r| r < n).collect(),
            ..*self
        };
        (!window.is_empty()).then_some(window)
    }
}

/// Builds any [`ProtocolKind`]'s cluster behind the shared
/// [`RegisterCluster`] API.
///
/// This is the only constructor of clusters: all parameters are named,
/// defaulted, validated, and identical across protocols.
///
/// ```
/// use soda_registry::{ClusterBuilder, ProtocolKind};
///
/// let mut cluster = ClusterBuilder::new(ProtocolKind::Soda, 5, 2)
///     .with_seed(7)
///     .build()
///     .unwrap();
/// cluster.invoke_write(0, b"hello".to_vec());
/// cluster.run_to_quiescence();
/// cluster.invoke_read(0);
/// cluster.run_to_quiescence();
/// let ops = cluster.completed_ops();
/// assert_eq!(ops[1].value.as_deref(), Some(b"hello".as_slice()));
/// ```
#[derive(Clone, Debug)]
pub struct ClusterBuilder {
    pub(crate) kind: ProtocolKind,
    pub(crate) n: usize,
    pub(crate) f: usize,
    pub(crate) num_writers: usize,
    pub(crate) num_readers: usize,
    pub(crate) seed: u64,
    pub(crate) network: NetworkConfig,
    pub(crate) initial_value: Vec<u8>,
    pub(crate) relay_enabled: bool,
    pub(crate) net_faults: NetFaultPlan,
    pub(crate) partitions: Vec<PartitionWindow>,
    pub(crate) byzantine_servers: Vec<usize>,
    pub(crate) quorum_override: Option<usize>,
}

impl ClusterBuilder {
    /// A `kind` cluster of `n` servers tolerating `f` crashes, with one
    /// writer and one reader, seed 0, uniform random delays in `[1, 10]` and
    /// an empty initial value.
    pub fn new(kind: ProtocolKind, n: usize, f: usize) -> Self {
        ClusterBuilder {
            kind,
            n,
            f,
            num_writers: 1,
            num_readers: 1,
            seed: 0,
            network: NetworkConfig::uniform(10),
            initial_value: Vec::new(),
            relay_enabled: true,
            net_faults: NetFaultPlan::none(),
            partitions: Vec::new(),
            byzantine_servers: Vec::new(),
            quorum_override: None,
        }
    }

    /// Sets the protocol the cluster runs.
    pub fn with_kind(mut self, kind: ProtocolKind) -> Self {
        self.kind = kind;
        self
    }

    /// Sets the RNG seed controlling message delays (and thus the
    /// interleaving).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of writer and reader handles.
    pub fn with_clients(mut self, writers: usize, readers: usize) -> Self {
        self.num_writers = writers;
        self.num_readers = readers;
        self
    }

    /// Sets the network delay model.
    pub fn with_network(mut self, network: NetworkConfig) -> Self {
        self.network = network;
        self
    }

    /// Sets the initial object value `v0`.
    pub fn with_initial_value(mut self, value: Vec<u8>) -> Self {
        self.initial_value = value;
        self
    }

    /// Disables concurrent-write relaying at every server (SODA / SODAerr
    /// ablation only).
    pub fn with_relay_disabled(mut self) -> Self {
        self.relay_enabled = false;
        self
    }

    /// Installs a network adversary (message drop / delay / reordering /
    /// duplication per [`soda_simnet::LinkFaults`]). Works for every
    /// protocol kind — the knobs are identical across SODA, SODAerr, ABD,
    /// CAS and CASGC, so adversarial schedules are directly comparable.
    pub fn with_net_faults(mut self, plan: NetFaultPlan) -> Self {
        self.net_faults = plan;
        self
    }

    /// Schedules a [`PartitionWindow`] on top of the installed adversary.
    /// Windows may be stacked (call repeatedly) and overlap freely. Rejected
    /// at `build` if a rank names no server or the window is empty; callers
    /// holding windows drawn for another cluster size trim them first with
    /// [`PartitionWindow::on_cluster`].
    pub fn with_partition_window(mut self, window: &PartitionWindow) -> Self {
        self.partitions.push(window.clone());
        self
    }

    /// Marks the given server ranks as byzantine (SODA / SODAerr only): every
    /// coded element they send to a reader is corrupted in flight, their
    /// stored elements and their relays of concurrent writes alike, and a
    /// repaired rank stays byzantine. This is SODAerr's threat model (see
    /// `soda::adversary`). SODAerr tolerates up to `e` such servers per
    /// read; exceeding the budget is allowed here precisely so tests can
    /// verify that over-budget corruption is *detected* rather than silently
    /// decoded.
    pub fn with_byzantine_servers(mut self, ranks: Vec<usize>) -> Self {
        self.byzantine_servers = ranks;
        self
    }

    /// **Test-only.** Overrides the per-phase quorum size of every ABD
    /// client, *below majority if asked*. This deliberately breaks ABD's
    /// quorum-intersection argument; the schedule-exploration harness builds
    /// such clusters to verify it catches non-atomic executions. Rejected
    /// for every other protocol kind.
    pub fn with_unsound_quorum(mut self, quorum: usize) -> Self {
        self.quorum_override = Some(quorum);
        self
    }

    /// Checks the parameter combination without building anything.
    pub fn validate(&self) -> Result<(), BuildError> {
        if self.n == 0 {
            return Err(BuildError::NoServers);
        }
        if 2 * self.f >= self.n {
            return Err(BuildError::TooManyFaults {
                n: self.n,
                f: self.f,
            });
        }
        if let ProtocolKind::SodaErr { e } = self.kind {
            if self.kind.code_dimension(self.n, self.f).is_none() {
                return Err(BuildError::InvalidCodeDimension {
                    n: self.n,
                    f: self.f,
                    e,
                });
            }
        }
        if !self.relay_enabled && !self.kind.is_soda_family() {
            return Err(BuildError::RelayAblationUnsupported {
                kind: self.kind.name(),
            });
        }
        if !self.byzantine_servers.is_empty() && !self.kind.is_soda_family() {
            return Err(BuildError::ByzantineUnsupported {
                kind: self.kind.name(),
            });
        }
        if let Some(&rank) = self.byzantine_servers.iter().find(|&&rank| rank >= self.n) {
            return Err(BuildError::ByzantineOutOfRange { rank, n: self.n });
        }
        if self.quorum_override.is_some() && self.kind != ProtocolKind::Abd {
            return Err(BuildError::QuorumOverrideUnsupported {
                kind: self.kind.name(),
            });
        }
        for window in &self.partitions {
            if window.is_empty() {
                return Err(BuildError::PartitionEmptyWindow {
                    start: window.start,
                    end: window.end,
                });
            }
            if let Some(&rank) = window.ranks.iter().find(|&&rank| rank >= self.n) {
                return Err(BuildError::PartitionRankOutOfRange { rank, n: self.n });
            }
        }
        Ok(())
    }

    /// The shape the cluster will be built with: protocol, `n`, `f` and
    /// client handles.
    pub fn descriptor(&self) -> ClusterDescriptor {
        ClusterDescriptor {
            kind: self.kind,
            n: self.n,
            f: self.f,
            num_writers: self.num_writers,
            num_readers: self.num_readers,
        }
    }

    /// The installed adversary plus every scheduled [`PartitionWindow`]. This
    /// is the one place that turns server ranks into a process-level cut:
    /// servers are registered first, so rank `r` is `ProcessId(r)`, and the
    /// isolation cuts it off from every other process.
    pub(crate) fn take_net_fault_plan(&mut self) -> NetFaultPlan {
        let mut plan = std::mem::take(&mut self.net_faults);
        for window in &self.partitions {
            plan = plan.with_isolation(
                window.ranks.iter().map(|&rank| ProcessId(rank as u32)),
                SimTime::from_ticks(window.start),
                SimTime::from_ticks(window.end),
            );
        }
        plan
    }

    fn soda_harness(self) -> SodaRegisterCluster {
        let spec = SodaSpec {
            relay_enabled: self.relay_enabled,
        };
        let corruptor = (!self.byzantine_servers.is_empty()).then(|| {
            soda::coded_element_corruptor(self.byzantine_servers.iter().copied().collect())
        });
        Harness::new(spec, self, corruptor)
    }

    fn cas_harness(self) -> CasRegisterCluster {
        let gc_versions = match self.kind {
            ProtocolKind::Casgc { gc } => Some(gc + 1),
            _ => None,
        };
        let spec = CasSpec { gc_versions };
        Harness::new(spec, self, None)
    }

    /// Builds the cluster behind the protocol-agnostic facade.
    pub fn build(self) -> Result<Box<dyn RegisterCluster>, BuildError> {
        self.validate()?;
        Ok(match self.kind {
            ProtocolKind::Soda | ProtocolKind::SodaErr { .. } => Box::new(self.soda_harness()),
            ProtocolKind::Abd => {
                let quorum_override = self.quorum_override;
                Box::new(Harness::new(AbdSpec { quorum_override }, self, None))
            }
            ProtocolKind::Cas | ProtocolKind::Casgc { .. } => Box::new(self.cas_harness()),
        })
    }

    /// Builds a SODA / SODAerr cluster with its concrete type, for callers
    /// that need SODA-specific state inspection without downcasting.
    pub fn build_soda(self) -> Result<SodaRegisterCluster, BuildError> {
        self.validate()?;
        if !self.kind.is_soda_family() {
            return Err(BuildError::KindMismatch {
                expected: "SODA/SODAerr",
                actual: self.kind.name(),
            });
        }
        Ok(self.soda_harness())
    }

    /// Builds a CAS / CASGC cluster with its concrete type, for callers that
    /// need CAS-specific state inspection (e.g. stored version counts).
    pub fn build_cas(self) -> Result<CasRegisterCluster, BuildError> {
        self.validate()?;
        if !matches!(self.kind, ProtocolKind::Cas | ProtocolKind::Casgc { .. }) {
            return Err(BuildError::KindMismatch {
                expected: "CAS/CASGC",
                actual: self.kind.name(),
            });
        }
        Ok(self.cas_harness())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_majority_violations_for_every_kind() {
        for kind in [
            ProtocolKind::Soda,
            ProtocolKind::SodaErr { e: 1 },
            ProtocolKind::Abd,
            ProtocolKind::Cas,
            ProtocolKind::Casgc { gc: 1 },
        ] {
            // n = 2f is never enough for intersecting majorities.
            let err = ClusterBuilder::new(kind, 4, 2).validate().unwrap_err();
            assert_eq!(err, BuildError::TooManyFaults { n: 4, f: 2 }, "{kind:?}");
            // n = 2f + 1 is always acceptable.
            ClusterBuilder::new(kind, 5, 2)
                .validate()
                .unwrap_or_else(|e| {
                    panic!("{kind:?} must accept n = 5, f = 2: {e}");
                });
        }
    }

    #[test]
    fn rejects_empty_clusters() {
        assert_eq!(
            ClusterBuilder::new(ProtocolKind::Soda, 0, 0).validate(),
            Err(BuildError::NoServers)
        );
    }

    #[test]
    fn rejects_sodaerr_without_a_code_dimension() {
        // k = n - f - 2e = 7 - 2 - 2*3 < 1.
        let err = ClusterBuilder::new(ProtocolKind::SodaErr { e: 3 }, 7, 2)
            .validate()
            .unwrap_err();
        assert_eq!(err, BuildError::InvalidCodeDimension { n: 7, f: 2, e: 3 });
        // k = 1 exactly is fine.
        ClusterBuilder::new(ProtocolKind::SodaErr { e: 2 }, 7, 2)
            .validate()
            .unwrap();
    }

    #[test]
    fn rejects_soda_only_features_on_baselines() {
        let err = ClusterBuilder::new(ProtocolKind::Casgc { gc: 1 }, 5, 2)
            .with_relay_disabled()
            .validate()
            .unwrap_err();
        assert_eq!(err, BuildError::RelayAblationUnsupported { kind: "CASGC" });
    }

    #[test]
    fn a_partition_window_splits_its_server_ranks_from_every_other_process() {
        let window = |ranks: &[usize], start, end| PartitionWindow {
            ranks: ranks.to_vec(),
            start,
            end,
        };
        let mut builder = ClusterBuilder::new(ProtocolKind::Abd, 5, 2)
            .with_partition_window(&window(&[3, 0], 50, 1000))
            .with_clients(1, 2);
        builder.validate().unwrap();
        let (start, end) = (SimTime::from_ticks(50), SimTime::from_ticks(1000));
        let expected =
            NetFaultPlan::none().with_isolation([ProcessId(0), ProcessId(3)], start, end);
        let plan = builder.take_net_fault_plan();
        assert_eq!(plan, expected);
        // 5 servers, then 1 writer and 2 readers: ProcessId(0..8). Ranks 0
        // and 3 are cut from every other process, both ways, and keep their
        // link to each other.
        let isolated = |p: u32| p == 0 || p == 3;
        for from in 0..8 {
            for to in (0..8).filter(|&to| to != from) {
                assert_eq!(
                    plan.is_partitioned(ProcessId(from), ProcessId(to), start),
                    isolated(from) != isolated(to),
                    "{from} -> {to}"
                );
            }
        }
    }

    #[test]
    fn rejects_malformed_partition_windows() {
        let with_window = |ranks: &[usize], start, end| {
            ClusterBuilder::new(ProtocolKind::Soda, 5, 2)
                .with_partition_window(&PartitionWindow {
                    ranks: ranks.to_vec(),
                    start,
                    end,
                })
                .validate()
        };
        assert_eq!(
            with_window(&[1, 5], 0, 100),
            Err(BuildError::PartitionRankOutOfRange { rank: 5, n: 5 })
        );
        assert_eq!(
            with_window(&[1], 200, 200),
            Err(BuildError::PartitionEmptyWindow {
                start: 200,
                end: 200
            })
        );
        assert_eq!(
            with_window(&[], 0, 100),
            Err(BuildError::PartitionEmptyWindow { start: 0, end: 100 })
        );
        assert_eq!(with_window(&[0, 4], 0, 100), Ok(()));
    }

    #[test]
    fn typed_constructors_check_the_kind() {
        let err = ClusterBuilder::new(ProtocolKind::Abd, 5, 2)
            .build_soda()
            .map(|_| ())
            .unwrap_err();
        assert_eq!(
            err,
            BuildError::KindMismatch {
                expected: "SODA/SODAerr",
                actual: "ABD"
            }
        );
    }

    #[test]
    fn build_errors_render_helpfully() {
        let message = BuildError::TooManyFaults { n: 4, f: 2 }.to_string();
        assert!(message.contains("n > 2f"), "{message}");
    }
}
