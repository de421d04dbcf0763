//! The store is a composition of clusters, checked as one.
//!
//! Atomic objects compose, so a `ShardedStore` is per-key atomic because
//! every register protocol is atomic, but only if the store drives each
//! key's cluster exactly as a lone cluster would be driven. This test checks
//! that directly. A model keeps one lone `RegisterCluster` per key, built
//! from `ShardedStore::cluster_builder_for(key)`, and makes on it the calls
//! the store's API documents for that key:
//! - puts and gets go to the key's writer and reader handles round-robin;
//! - a shard crash crashes the rank in every cluster of the shard, and a
//!   cluster created later starts with every rank that is down crashed;
//! - a repair repairs the rank in every existing cluster; a rank whose
//!   repair failed anywhere is crashed again everywhere;
//! - a crash that would leave more than `f` ranks dead or under repair is
//!   refused.
//!
//! Seeded store scenarios (phased batches, shard crashes, repairs, follow-up
//! crashes and partition windows) drive the store and the model side by
//! side. Every key's projection of `keyed_history()` must equal its lone
//! cluster's `closed_history`, op for op, under every runtime.

use soda_registry::ProtocolKind::{Abd, Cas, Casgc, Soda, SodaErr};
use soda_registry::RegisterCluster;
use soda_store::{ShardedStore, StoreRuntime};
use soda_workload::store_explore::{
    build_store, generate_store_scenario, StoreExploreConfig, StoreScenario,
};
use std::collections::{BTreeMap, BTreeSet};

/// One key's lone cluster and its round-robin handle cursors.
struct LoneCluster {
    shard: usize,
    cluster: Box<dyn RegisterCluster>,
    writes: usize,
    reads: usize,
}

/// One shard as the model sees it.
#[derive(Default)]
struct ModelShard {
    /// Ranks crashed in every cluster of the shard, existing and future.
    downed: BTreeSet<usize>,
    /// Ranks repaired in the existing clusters whose repair has not settled.
    repairing: BTreeSet<usize>,
}

/// What a scenario exercised, so the seeds are known not to be vacuous.
#[derive(Default, Debug)]
struct Coverage {
    /// Clusters created on a shard with ranks already down.
    born_degraded: usize,
    /// Repairs applied to two clusters or more.
    shared_repairs: usize,
    /// Crashes accepted after the first phase.
    follow_up_crashes: usize,
    /// Scenarios with partition windows.
    partitioned: usize,
}

struct Model<'a> {
    n: usize,
    f: usize,
    shards: Vec<ModelShard>,
    keys: BTreeMap<Vec<u8>, LoneCluster>,
    coverage: &'a mut Coverage,
}

impl<'a> Model<'a> {
    fn new(cfg: &StoreExploreConfig, coverage: &'a mut Coverage) -> Self {
        Model {
            n: cfg.n,
            f: cfg.f,
            shards: (0..cfg.shards).map(|_| ModelShard::default()).collect(),
            keys: BTreeMap::new(),
            coverage,
        }
    }

    /// `key`'s lone cluster, built on first use with the ranks that are down
    /// on its shard crashed.
    fn cluster(&mut self, store: &ShardedStore, key: &[u8]) -> &mut LoneCluster {
        let (shards, coverage) = (&self.shards, &mut *self.coverage);
        self.keys.entry(key.to_vec()).or_insert_with(|| {
            let shard = store.shard_of(key);
            let mut cluster = store.cluster_builder_for(key).build().unwrap();
            for &rank in &shards[shard].downed {
                cluster.crash_server_at(cluster.now(), rank);
            }
            coverage.born_degraded += usize::from(!shards[shard].downed.is_empty());
            LoneCluster {
                shard,
                cluster,
                writes: 0,
                reads: 0,
            }
        })
    }

    fn on_shard(&mut self, shard: usize) -> impl Iterator<Item = &mut LoneCluster> {
        self.keys
            .values_mut()
            .filter(move |lone| lone.shard == shard)
    }

    fn put(&mut self, store: &ShardedStore, key: &[u8], value: Vec<u8>) {
        let lone = self.cluster(store, key);
        let handle = lone.writes % lone.cluster.descriptor().num_writers;
        lone.writes += 1;
        lone.cluster.invoke_write(handle, value);
    }

    fn get(&mut self, store: &ShardedStore, key: &[u8]) {
        let lone = self.cluster(store, key);
        let handle = lone.reads % lone.cluster.descriptor().num_readers;
        lone.reads += 1;
        lone.cluster.invoke_read(handle);
    }

    /// Crashes `ranks` on `shard`, or refuses (changing nothing) if a rank
    /// does not exist or the shard would exceed its crash budget `f`.
    fn crash(&mut self, shard: usize, ranks: impl IntoIterator<Item = usize>) -> bool {
        let ranks: BTreeSet<usize> = ranks.into_iter().collect();
        let s = &self.shards[shard];
        let down_after =
            (s.downed.iter().chain(&s.repairing).chain(&ranks)).collect::<BTreeSet<_>>();
        if ranks.iter().any(|&rank| rank >= self.n) || down_after.len() > self.f {
            return false;
        }
        for rank in ranks {
            self.crash_everywhere(shard, rank);
        }
        true
    }

    fn crash_everywhere(&mut self, shard: usize, rank: usize) {
        let s = &mut self.shards[shard];
        if s.downed.insert(rank) {
            s.repairing.remove(&rank);
            for lone in self.on_shard(shard) {
                lone.cluster.crash_server_at(lone.cluster.now(), rank);
            }
        }
    }

    /// Repairs a downed rank in every existing cluster of `shard`, or
    /// refuses if the rank is not down.
    fn repair(&mut self, shard: usize, rank: usize) -> bool {
        let s = &mut self.shards[shard];
        if !s.downed.remove(&rank) {
            return false;
        }
        s.repairing.insert(rank);
        let mut repaired = 0;
        for lone in self.on_shard(shard) {
            lone.cluster.repair_server_at(lone.cluster.now(), rank);
            repaired += 1;
        }
        self.coverage.shared_repairs += usize::from(repaired >= 2);
        true
    }

    /// Runs every lone cluster to quiescence, then settles repairs: a rank
    /// still being repaired somewhere stays under repair, a rank whose
    /// repair failed somewhere is crashed again everywhere, and any other
    /// rank is healthy again.
    fn run(&mut self) {
        for lone in self.keys.values_mut() {
            lone.cluster.run_to_quiescence();
        }
        for shard in 0..self.shards.len() {
            let mut failed = Vec::new();
            for rank in self.shards[shard].repairing.clone() {
                let reports: Vec<_> = (self.on_shard(shard))
                    .filter_map(|lone| lone.cluster.repair_report(rank))
                    .collect();
                if reports.iter().any(|report| report.in_progress()) {
                    continue;
                }
                if reports.iter().any(|report| report.failed()) {
                    failed.push(rank);
                } else {
                    self.shards[shard].repairing.remove(&rank);
                }
            }
            for rank in failed {
                self.crash_everywhere(shard, rank);
            }
        }
    }
}

/// Drives `scenario` through the store and the model with the same calls,
/// phase by phase, the way `run_store_scenario` drives the store, and
/// checks the store against the model.
fn check_against_lone_clusters(
    cfg: &StoreExploreConfig,
    scenario: &StoreScenario,
    coverage: &mut Coverage,
) {
    let label = format!("seed {} under {:?}", scenario.seed, cfg.runtime);
    let mut store = build_store(cfg, scenario);
    coverage.partitioned += usize::from(!scenario.shard_partitions.is_empty());
    let mut model = Model::new(cfg, coverage);
    for &(shard, count) in &scenario.shard_crashes {
        let refused = store.crash_shard_servers(shard, count).is_err();
        assert_eq!(refused, !model.crash(shard, 0..count), "{label}");
    }
    for (phase_idx, phase) in scenario.phases.iter().enumerate() {
        for &(_, shard, rank) in scenario.shard_repairs.iter().filter(|r| r.0 == phase_idx) {
            let refused = store.repair_shard_server(shard, rank).is_err();
            assert_eq!(refused, !model.repair(shard, rank), "{label}");
        }
        for &(_, shard, rank) in scenario
            .follow_up_crashes
            .iter()
            .filter(|c| c.0 == phase_idx)
        {
            let refused = store.crash_shard_server(shard, rank).is_err();
            assert_eq!(refused, !model.crash(shard, [rank]), "{label}");
            model.coverage.follow_up_crashes += usize::from(!refused);
        }
        for op in phase {
            let key = format!("key/{}", op.key).into_bytes();
            if op.is_write {
                model.put(&store, &key, vec![op.fill; 24]);
                store.put(key, vec![op.fill; 24]);
            } else {
                model.get(&store, &key);
                store.get(key);
            }
        }
        store.run_until_quiescent();
        model.run();
        for (shard, modeled) in model.shards.iter().enumerate() {
            let downed: Vec<usize> = modeled.downed.iter().copied().collect();
            let dead_or_repairing = downed.len() + modeled.repairing.len();
            assert_eq!(store.shard_downed_servers(shard), Ok(downed), "{label}");
            assert_eq!(
                store.shard_dead_or_repairing(shard),
                Ok(dead_or_repairing),
                "{label}"
            );
        }
    }

    let history = store.keyed_history();
    let mut modeled_ops = 0;
    for (key, lone) in &model.keys {
        let projected: Vec<_> = (history.ops().iter())
            .filter(|op| *op.key == key[..])
            .map(|op| {
                let client = op.client & 0xFF_FFFF;
                (
                    client,
                    op.kind,
                    op.invoked,
                    op.responded,
                    op.value.clone(),
                    op.version,
                )
            })
            .collect();
        let alone = lone.cluster.closed_history(&[]);
        let alone: Vec<_> = (alone.ops().iter())
            .map(|op| {
                (
                    op.client,
                    op.kind,
                    op.invoked,
                    op.responded,
                    op.value.clone(),
                    op.version,
                )
            })
            .collect();
        let key = String::from_utf8_lossy(key);
        assert_eq!(projected, alone, "{label}: key {key}");
        modeled_ops += alone.len();
    }
    assert_eq!(history.len(), modeled_ops, "{label}: ops of unmodeled keys");
}

#[test]
fn every_key_runs_as_its_lone_cluster_would_under_every_runtime() {
    let runtimes = [
        StoreRuntime::Simulation,
        StoreRuntime::Threaded,
        StoreRuntime::WorkStealing { workers: 3 },
    ];
    // Four phases rather than three and more repairs, so that repairs
    // leave room for follow-up crashes and for keys first touched after
    // them. The store places `key/0` … `key/23` on shards 0, 1 and 2
    // only, so the second fleet puts the other protocols there.
    let fleet = |kinds| StoreExploreConfig {
        kinds,
        keys: 24,
        phases: 4,
        repair_p: 0.8,
        ..StoreExploreConfig::mixed(4)
    };
    let campaigns = [
        fleet(vec![Soda, Abd, Cas, Casgc { gc: 2 }]),
        fleet(vec![Casgc { gc: 2 }, SodaErr { e: 1 }, Soda, Abd]).with_partitions(0.7, 800),
    ];
    for runtime in runtimes {
        let mut coverage = Coverage::default();
        for cfg in &campaigns {
            let cfg = StoreExploreConfig {
                runtime,
                ..cfg.clone()
            };
            for seed in 0..16 {
                let scenario = generate_store_scenario(&cfg, seed);
                check_against_lone_clusters(&cfg, &scenario, &mut coverage);
            }
        }
        assert!(coverage.born_degraded > 0, "{coverage:?}");
        assert!(coverage.shared_repairs > 0, "{coverage:?}");
        assert!(coverage.follow_up_crashes > 0, "{coverage:?}");
        assert!(coverage.partitioned > 0, "{coverage:?}");
    }
}
