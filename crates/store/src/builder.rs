//! Validated construction of a [`ShardedStore`].

use crate::map::ShardMap;
use crate::store::ShardedStore;
use soda_registry::{BuildError, ClusterBuilder, PartitionWindow, ProtocolKind};
use soda_simnet::{NetFaultPlan, NetworkConfig};
use std::error::Error;
use std::fmt;

/// Which backend drives the shards when the store runs.
///
/// Every runtime produces **bit-identical** per-key histories and
/// [`StoreMetrics`](crate::StoreMetrics): every key's cluster is a
/// self-contained deterministic simulation, so the runtimes only decide
/// *where* each cluster executes, never what it computes. The
/// runtime-conformance tests in `crates/store/tests` assert this under
/// crashes, partitions and repairs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum StoreRuntime {
    /// Every key cluster is run on the calling thread, in `(shard,
    /// cluster-index)` order. Fully deterministic: the same store, seed and
    /// operation sequence reproduce the same histories, which is what tests
    /// and the adversarial exploration campaigns need.
    #[default]
    Simulation,
    /// The same drain as `WorkStealing { workers: 0 }`: one thread per
    /// hardware thread.
    Threaded,
    /// Parallel drains: each drain spawns `workers − 1` scoped threads, the
    /// calling thread joins them, and every thread claims the next key
    /// cluster from one shared cursor until none is left, so skewed key
    /// populations still balance. Nothing is stolen; the name is kept for
    /// the benchmark, which spells it. See [`crate::PoolMetrics`] for the
    /// drains' counters.
    WorkStealing {
        /// Threads per drain, the calling thread included. `0` means one per
        /// hardware thread (so one, the calling thread, on a single-threaded
        /// host); an explicit count is honored as given, which lets tests
        /// run parallel drains regardless of the host's core count.
        workers: usize,
    },
}

/// Virtual nodes per shard on the consistent-hash placement ring.
const VNODES_PER_SHARD: usize = 16;

/// Per-shard configuration: the register-cluster shape every key placed on
/// the shard is built with.
#[derive(Clone, Debug)]
pub(crate) struct ShardSpec {
    /// The register protocol this shard runs.
    pub kind: ProtocolKind,
    /// Servers per register cluster.
    pub n: usize,
    /// Tolerated server crashes per register cluster.
    pub f: usize,
    /// Writer handles per key.
    pub writers_per_key: usize,
    /// Reader handles per key.
    pub readers_per_key: usize,
    /// Message delay model for the shard's clusters.
    pub network: NetworkConfig,
    /// Network adversary applied to every cluster of the shard.
    pub net_faults: NetFaultPlan,
    /// Scheduled partition windows applied to every cluster of the shard.
    pub partitions: Vec<PartitionWindow>,
    /// **Test-only.** Sub-majority quorum override for ABD shards (rejected
    /// at `build` for every other kind) — deliberately breaks atomicity so
    /// the store-level exploration harness and its shrinker can be validated
    /// against a known-broken protocol.
    pub unsound_quorum: Option<usize>,
}

impl ShardSpec {
    /// How many of the shard's servers may be simultaneously dead or under
    /// repair without wedging the shard: the declared crash tolerance `f`.
    ///
    /// This is the *dynamic* budget — repairing a server returns it to the
    /// budget once the repair completes, so a long-lived shard can survive
    /// far more than `f` crashes in total. For SODAerr the corruption budget
    /// `e` is already priced into the code dimension (`k = n − f − 2e`), so
    /// its crash budget is still `f`: reads need `k + 2e = n − f` responders,
    /// and corrupting servers keep responding.
    pub fn crash_budget(&self) -> usize {
        self.f
    }

    /// The representative [`ClusterBuilder`] for this spec (used both for
    /// validation and for building each key's cluster).
    pub(crate) fn cluster_builder(&self, seed: u64) -> ClusterBuilder {
        let mut builder = ClusterBuilder::new(self.kind, self.n, self.f)
            .with_seed(seed)
            .with_clients(self.writers_per_key, self.readers_per_key)
            .with_network(self.network.clone())
            .with_net_faults(self.net_faults.clone());
        for window in &self.partitions {
            builder = builder.with_partition_window(window);
        }
        if let Some(quorum) = self.unsound_quorum {
            builder = builder.with_unsound_quorum(quorum);
        }
        builder
    }
}

/// Why a [`StoreBuilder`] refused to build.
#[derive(Debug)]
pub enum StoreBuildError {
    /// The store has no shards.
    NoShards,
    /// `with_shard_kinds` was given a list whose length is not the shard
    /// count.
    ShardKindsLength {
        /// Number of shards the store was created with.
        shards: usize,
        /// Length of the provided kind list.
        kinds: usize,
    },
    /// A per-shard method named a shard that does not exist.
    ShardOutOfRange {
        /// The offending shard index.
        shard: usize,
        /// Number of shards.
        shards: usize,
    },
    /// A shard's cluster parameters failed [`ClusterBuilder`] validation.
    Shard {
        /// The offending shard index.
        shard: usize,
        /// The underlying cluster-builder error.
        source: BuildError,
    },
    /// A [`PartitionWindow`] names a server rank the shard does not have.
    PartitionRankOutOfRange {
        /// The offending shard index.
        shard: usize,
        /// The out-of-range rank.
        rank: usize,
        /// Servers per cluster on that shard.
        n: usize,
    },
    /// A [`PartitionWindow`] is empty (`start >= end`) or isolates no
    /// ranks — it could never cut a link, so it is almost certainly a typo.
    PartitionEmptyWindow {
        /// The offending shard index.
        shard: usize,
        /// The window's start tick.
        start: u64,
        /// The window's end tick.
        end: u64,
    },
    /// Every key needs at least one writer and one reader handle, or its
    /// puts or gets could never be issued.
    NoClientHandles {
        /// Writer handles per key.
        writers: usize,
        /// Reader handles per key.
        readers: usize,
    },
}

impl fmt::Display for StoreBuildError {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreBuildError::NoShards => write!(out, "store needs at least one shard"),
            StoreBuildError::ShardKindsLength { shards, kinds } => write!(
                out,
                "with_shard_kinds got {kinds} kinds for {shards} shards (lengths must match)"
            ),
            StoreBuildError::ShardOutOfRange { shard, shards } => {
                write!(out, "shard {shard} out of range for {shards} shards")
            }
            StoreBuildError::Shard { shard, source } => {
                write!(out, "shard {shard}: {source}")
            }
            StoreBuildError::PartitionRankOutOfRange { shard, rank, n } => write!(
                out,
                "shard {shard}: partition isolates rank {rank} but clusters have {n} servers"
            ),
            StoreBuildError::PartitionEmptyWindow { shard, start, end } => write!(
                out,
                "shard {shard}: partition window [{start}, {end}) isolates nothing"
            ),
            StoreBuildError::NoClientHandles { writers, readers } => write!(
                out,
                "every key needs a writer and a reader handle, got {writers} writers and \
                 {readers} readers per key"
            ),
        }
    }
}

impl Error for StoreBuildError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StoreBuildError::Shard { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Builds a [`ShardedStore`]: `S` shards, each a register-cluster fleet with
/// its own protocol choice, placed under one consistent-hash keyspace.
///
/// ```
/// use soda_registry::ProtocolKind;
/// use soda_store::StoreBuilder;
///
/// let mut store = StoreBuilder::new(4, ProtocolKind::Soda, 5, 2)
///     .with_seed(7)
///     .build()
///     .unwrap();
/// let put = store.put(b"user:1".to_vec(), b"ada".to_vec());
/// let get = store.get(b"user:1".to_vec());
/// store.run_until_quiescent();
/// assert!(store.poll(put).is_done());
/// assert_eq!(store.poll(get).value(), Some(b"ada".as_slice()));
/// store.check_per_key_atomicity().unwrap();
/// ```
#[derive(Clone, Debug)]
pub struct StoreBuilder {
    specs: Vec<ShardSpec>,
    seed: u64,
    runtime: StoreRuntime,
    errors: Vec<StoreBuildErrorKind>,
}

/// Deferred-error bookkeeping so the chained builder methods stay infallible
/// (errors surface at `build`, like `ClusterBuilder`).
#[derive(Clone, Debug)]
enum StoreBuildErrorKind {
    ShardKindsLength { kinds: usize },
    ShardOutOfRange { shard: usize },
}

impl StoreBuilder {
    /// A store of `shards` shards, all running `kind` clusters of `n` servers
    /// tolerating `f` crashes, with one writer and one reader handle per key,
    /// seed 0 and the deterministic [`StoreRuntime::Simulation`] backend.
    pub fn new(shards: usize, kind: ProtocolKind, n: usize, f: usize) -> Self {
        let spec = ShardSpec {
            kind,
            n,
            f,
            writers_per_key: 1,
            readers_per_key: 1,
            network: NetworkConfig::uniform(10),
            net_faults: NetFaultPlan::none(),
            partitions: Vec::new(),
            unsound_quorum: None,
        };
        StoreBuilder {
            specs: vec![spec; shards],
            seed: 0,
            runtime: StoreRuntime::Simulation,
            errors: Vec::new(),
        }
    }

    /// Sets the store seed (mixed with each key's hash to derive per-cluster
    /// simulation seeds).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the execution backend.
    pub fn with_runtime(mut self, runtime: StoreRuntime) -> Self {
        self.runtime = runtime;
        self
    }

    /// Gives every shard its own protocol (`kinds[i]` for shard `i`) — mixed
    /// fleets in one store. The list length must equal the shard count.
    pub fn with_shard_kinds(mut self, kinds: Vec<ProtocolKind>) -> Self {
        if kinds.len() != self.specs.len() {
            self.errors
                .push(StoreBuildErrorKind::ShardKindsLength { kinds: kinds.len() });
            return self;
        }
        for (spec, kind) in self.specs.iter_mut().zip(kinds) {
            spec.kind = kind;
        }
        self
    }

    /// Overrides one shard's protocol.
    pub fn with_shard_kind(mut self, shard: usize, kind: ProtocolKind) -> Self {
        match self.specs.get_mut(shard) {
            Some(spec) => spec.kind = kind,
            None => self
                .errors
                .push(StoreBuildErrorKind::ShardOutOfRange { shard }),
        }
        self
    }

    /// Sets writer/reader handles per key, for every shard.
    pub fn with_clients_per_key(mut self, writers: usize, readers: usize) -> Self {
        for spec in &mut self.specs {
            spec.writers_per_key = writers;
            spec.readers_per_key = readers;
        }
        self
    }

    /// Sets the message delay model for every shard.
    pub fn with_network(mut self, network: NetworkConfig) -> Self {
        for spec in &mut self.specs {
            spec.network = network.clone();
        }
        self
    }

    /// Installs a network adversary on every shard.
    pub fn with_net_faults(mut self, plan: NetFaultPlan) -> Self {
        for spec in &mut self.specs {
            spec.net_faults = plan.clone();
        }
        self
    }

    /// Schedules a [`PartitionWindow`] on one shard: its server ranks are
    /// cut off from every other process of each key's cluster during
    /// `[start, end)` ticks, healing at `end`. Windows may be stacked (call
    /// repeatedly) and overlap freely. Rejected at `build` if a rank is out
    /// of range or the window is empty.
    pub fn with_shard_partition(mut self, shard: usize, window: &PartitionWindow) -> Self {
        match self.specs.get_mut(shard) {
            Some(spec) => spec.partitions.push(window.clone()),
            None => self
                .errors
                .push(StoreBuildErrorKind::ShardOutOfRange { shard }),
        }
        self
    }

    /// **Test-only.** Overrides the ABD quorum size on every shard, below
    /// majority if asked, which deliberately breaks atomicity so the
    /// store-level exploration harness and its shrinker can be validated
    /// against a known-broken protocol. Rejected at `build` unless every
    /// shard runs ABD.
    pub fn with_unsound_quorum(mut self, quorum: usize) -> Self {
        for spec in &mut self.specs {
            spec.unsound_quorum = Some(quorum);
        }
        self
    }

    /// Checks every shard's parameters without building anything.
    pub fn validate(&self) -> Result<(), StoreBuildError> {
        if let Some(err) = self.errors.first() {
            return Err(match *err {
                StoreBuildErrorKind::ShardKindsLength { kinds } => {
                    StoreBuildError::ShardKindsLength {
                        shards: self.specs.len(),
                        kinds,
                    }
                }
                StoreBuildErrorKind::ShardOutOfRange { shard } => {
                    StoreBuildError::ShardOutOfRange {
                        shard,
                        shards: self.specs.len(),
                    }
                }
            });
        }
        if self.specs.is_empty() {
            return Err(StoreBuildError::NoShards);
        }
        for (shard, spec) in self.specs.iter().enumerate() {
            if spec.writers_per_key == 0 || spec.readers_per_key == 0 {
                return Err(StoreBuildError::NoClientHandles {
                    writers: spec.writers_per_key,
                    readers: spec.readers_per_key,
                });
            }
            for window in &spec.partitions {
                if window.is_empty() {
                    return Err(StoreBuildError::PartitionEmptyWindow {
                        shard,
                        start: window.start,
                        end: window.end,
                    });
                }
                if let Some(&rank) = window.ranks.iter().find(|&&r| r >= spec.n) {
                    return Err(StoreBuildError::PartitionRankOutOfRange {
                        shard,
                        rank,
                        n: spec.n,
                    });
                }
            }
            spec.cluster_builder(0)
                .validate()
                .map_err(|source| StoreBuildError::Shard { shard, source })?;
        }
        Ok(())
    }

    /// Builds the store.
    pub fn build(self) -> Result<ShardedStore, StoreBuildError> {
        self.validate()?;
        let map = ShardMap::new(self.specs.len(), VNODES_PER_SHARD);
        Ok(ShardedStore::new(map, self.specs, self.seed, self.runtime))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_build() {
        let store = StoreBuilder::new(4, ProtocolKind::Soda, 5, 2)
            .build()
            .unwrap();
        assert_eq!(store.num_shards(), 4);
    }

    #[test]
    fn rejects_zero_shards() {
        let err = StoreBuilder::new(0, ProtocolKind::Soda, 5, 2)
            .build()
            .unwrap_err();
        assert!(matches!(err, StoreBuildError::NoShards), "{err}");
    }

    #[test]
    fn rejects_invalid_shard_parameters_with_the_shard_index() {
        let err = StoreBuilder::new(3, ProtocolKind::Soda, 5, 2)
            .with_shard_kind(1, ProtocolKind::SodaErr { e: 3 }) // k = 5-2-6 < 1
            .build()
            .unwrap_err();
        match err {
            StoreBuildError::Shard { shard, source } => {
                assert_eq!(shard, 1);
                assert!(matches!(source, BuildError::InvalidCodeDimension { .. }));
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn rejects_mismatched_kind_lists_and_bad_shard_indices() {
        let err = StoreBuilder::new(2, ProtocolKind::Soda, 5, 2)
            .with_shard_kinds(vec![ProtocolKind::Abd])
            .build()
            .unwrap_err();
        assert!(
            matches!(err, StoreBuildError::ShardKindsLength { .. }),
            "{err}"
        );

        let err = StoreBuilder::new(2, ProtocolKind::Soda, 5, 2)
            .with_shard_kind(5, ProtocolKind::Abd)
            .build()
            .unwrap_err();
        assert!(
            matches!(
                err,
                StoreBuildError::ShardOutOfRange {
                    shard: 5,
                    shards: 2
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn rejects_keys_without_writer_or_reader_handles() {
        for (writers, readers) in [(0, 1), (1, 0)] {
            let err = StoreBuilder::new(2, ProtocolKind::Abd, 5, 2)
                .with_clients_per_key(writers, readers)
                .build()
                .unwrap_err();
            assert!(
                matches!(
                    err,
                    StoreBuildError::NoClientHandles { writers: w, readers: r }
                        if (w, r) == (writers, readers)
                ),
                "{err}"
            );
        }
    }

    #[test]
    fn errors_render_helpfully() {
        let msg = StoreBuildError::Shard {
            shard: 2,
            source: BuildError::TooManyFaults { n: 4, f: 2 },
        }
        .to_string();
        assert!(msg.contains("shard 2"), "{msg}");
        assert!(msg.contains("n > 2f"), "{msg}");
    }
}
