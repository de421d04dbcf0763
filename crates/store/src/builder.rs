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

/// Why a [`StoreBuilder`] refused to build.
#[derive(Clone, Debug)]
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
    /// One template per shard: every key placed on shard `i` gets
    /// `templates[i]` with its own derived seed.
    templates: Vec<ClusterBuilder>,
    seed: u64,
    runtime: StoreRuntime,
    /// The first error of a chained setter, so that the setters stay
    /// infallible and errors surface at `build`, like `ClusterBuilder`'s.
    error: Option<StoreBuildError>,
}

impl StoreBuilder {
    /// A store of `shards` shards, all running `kind` clusters of `n` servers
    /// tolerating `f` crashes, with one writer and one reader handle per key,
    /// seed 0 and the deterministic [`StoreRuntime::Simulation`] backend.
    pub fn new(shards: usize, kind: ProtocolKind, n: usize, f: usize) -> Self {
        StoreBuilder {
            templates: vec![ClusterBuilder::new(kind, n, f); shards],
            seed: 0,
            runtime: StoreRuntime::Simulation,
            error: None,
        }
    }

    /// Applies `set` to every shard's template.
    fn with_each(mut self, set: impl Fn(ClusterBuilder) -> ClusterBuilder) -> Self {
        self.templates = self.templates.into_iter().map(set).collect();
        self
    }

    /// Applies `set` to shard `shard`'s template, or defers
    /// [`StoreBuildError::ShardOutOfRange`] to `build`.
    fn with_one(
        mut self,
        shard: usize,
        set: impl FnOnce(ClusterBuilder) -> ClusterBuilder,
    ) -> Self {
        let shards = self.templates.len();
        match self.templates.get_mut(shard) {
            Some(template) => *template = set(template.clone()),
            None => self.defer(StoreBuildError::ShardOutOfRange { shard, shards }),
        }
        self
    }

    /// Keeps `error` for `build` unless an earlier setter already failed.
    fn defer(&mut self, error: StoreBuildError) {
        self.error.get_or_insert(error);
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
        if kinds.len() != self.templates.len() {
            self.defer(StoreBuildError::ShardKindsLength {
                shards: self.templates.len(),
                kinds: kinds.len(),
            });
            return self;
        }
        self.templates = (self.templates.into_iter().zip(kinds))
            .map(|(template, kind)| template.with_kind(kind))
            .collect();
        self
    }

    /// Overrides one shard's protocol.
    pub fn with_shard_kind(self, shard: usize, kind: ProtocolKind) -> Self {
        self.with_one(shard, |template| template.with_kind(kind))
    }

    /// Sets writer/reader handles per key, for every shard.
    pub fn with_clients_per_key(self, writers: usize, readers: usize) -> Self {
        self.with_each(|template| template.with_clients(writers, readers))
    }

    /// Sets the message delay model for every shard.
    pub fn with_network(self, network: NetworkConfig) -> Self {
        self.with_each(|template| template.with_network(network.clone()))
    }

    /// Installs a network adversary on every shard.
    pub fn with_net_faults(self, plan: NetFaultPlan) -> Self {
        self.with_each(|template| template.with_net_faults(plan.clone()))
    }

    /// Schedules a [`PartitionWindow`] on one shard: its server ranks are
    /// cut off from every other process of each key's cluster during
    /// `[start, end)` ticks, healing at `end`. Windows may be stacked (call
    /// repeatedly) and overlap freely. Rejected at `build` if a rank is out
    /// of range or the window is empty (see
    /// [`ClusterBuilder::with_partition_window`]).
    pub fn with_shard_partition(self, shard: usize, window: &PartitionWindow) -> Self {
        self.with_one(shard, |template| template.with_partition_window(window))
    }

    /// **Test-only.** Overrides the ABD quorum size on every shard, below
    /// majority if asked, which deliberately breaks atomicity so the
    /// store-level exploration harness and its shrinker can be validated
    /// against a known-broken protocol. Rejected at `build` unless every
    /// shard runs ABD.
    pub fn with_unsound_quorum(self, quorum: usize) -> Self {
        self.with_each(|template| template.with_unsound_quorum(quorum))
    }

    /// Checks every shard's parameters without building anything.
    pub fn validate(&self) -> Result<(), StoreBuildError> {
        if let Some(error) = &self.error {
            return Err(error.clone());
        }
        if self.templates.is_empty() {
            return Err(StoreBuildError::NoShards);
        }
        for (shard, template) in self.templates.iter().enumerate() {
            let descriptor = template.descriptor();
            if descriptor.num_writers == 0 || descriptor.num_readers == 0 {
                return Err(StoreBuildError::NoClientHandles {
                    writers: descriptor.num_writers,
                    readers: descriptor.num_readers,
                });
            }
            template
                .validate()
                .map_err(|source| StoreBuildError::Shard { shard, source })?;
        }
        Ok(())
    }

    /// Builds the store.
    pub fn build(self) -> Result<ShardedStore, StoreBuildError> {
        self.validate()?;
        let map = ShardMap::new(self.templates.len(), VNODES_PER_SHARD);
        Ok(ShardedStore::new(
            map,
            self.templates,
            self.seed,
            self.runtime,
        ))
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
