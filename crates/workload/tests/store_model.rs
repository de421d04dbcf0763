//! The store's one check: every key runs as its lone cluster would.
//!
//! Atomicity is a per-object property, so a `ShardedStore` is correct if and
//! only if it drives each key's cluster exactly as a lone cluster would be
//! driven, and each of those clusters is atomic and live. This test checks
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
//! Seeded store scenarios (`store_model/scenarios.rs`: phased batches, shard
//! crashes, repairs, follow-up crashes and partition windows) drive the
//! store and the model side by side, and `check_against_lone_clusters` is
//! the only loop that drives a store scenario. Per scenario it asserts three
//! things: every key's projection of `keyed_history()` equals its lone
//! cluster's `closed_history`, op for op; `check_each_key()` passes; and no
//! shard is starved whose crashes and windows pass
//! `explore::liveness_guaranteed`.
//!
//! The store's drain runs every key's cluster each round, so a key that a
//! batch skips is polled idle and gives its event queue's slots back. The
//! model runs every lone cluster at each drain too, so both sides are polled
//! idle alike, and equal histories here do not show that idle polls change
//! no schedule. `soda-registry`'s conformance test
//! `idle_polls_change_no_schedule_for_every_kind` shows that.
//!
//! The tier-1 tests keep the schedule counts small; `store_model_smoke` is
//! `#[ignore]`d and run by the nightly CI job with a larger budget, in the
//! same invocation as the cluster smokes. `EXPLORE_SCHEDULES` is the
//! *per-cluster* budget: a store schedule drives dozens of per-key clusters,
//! so each store campaign runs a quarter of it.
//!
//! ```text
//! EXPLORE_SCHEDULES=200 cargo test --release -p soda-workload \
//!     --test exploration --test store_model -- --ignored --nocapture
//! ```

mod common;
// Not in `common/`: the `exploration` binary would compile it unused.
#[path = "store_model/scenarios.rs"]
mod scenarios;

use scenarios::{build_store, generate_store_scenario, StoreExploreConfig, StoreScenario};
use soda_consistency::KeyViolation;
use soda_registry::ProtocolKind::{Abd, Cas, Casgc, Soda, SodaErr};
use soda_registry::{PartitionWindow, RegisterCluster};
use soda_store::{ShardedStore, StoreMetrics, StoreRuntime};
use soda_workload::explore::{liveness_guaranteed, AdversaryKnobs};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::Range;

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
    /// Keys the store placed on a shard of each protocol, from
    /// `keys_per_shard()`.
    keys_per_protocol: BTreeMap<&'static str, usize>,
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

/// Why a scenario failed the store's check.
#[derive(Debug)]
enum Failure {
    /// The store answered a call, or ran a key, unlike the model.
    Diverged(String),
    /// A drain hit the event cap (a protocol bug such as an endless relay
    /// loop; never expected).
    EventCap,
    /// A key's history is not atomic.
    NotAtomic(KeyViolation),
    /// A shard left tickets pending although its crashes and windows pass
    /// `liveness_guaranteed`.
    Starved {
        shard: usize,
        protocol: &'static str,
        pending: u64,
    },
}

impl fmt::Display for Failure {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Diverged(what) => write!(out, "the store and the model differ: {what}"),
            Failure::EventCap => write!(out, "a drain hit the event cap"),
            Failure::NotAtomic(violation) => write!(out, "not atomic: {violation}"),
            Failure::Starved {
                shard,
                protocol,
                pending,
            } => write!(
                out,
                "not live: shard {shard} ({protocol}) left {pending} ticket(s) pending \
                 although a quorum stayed reachable"
            ),
        }
    }
}

/// `Ok` if the store and the model answered `call` alike.
fn agree<T: PartialEq + fmt::Debug>(call: &str, store: T, model: T) -> Result<(), Failure> {
    if store == model {
        return Ok(());
    }
    let what = format!("{call}: store {store:?}, model {model:?}");
    Err(Failure::Diverged(what))
}

/// The first shard that left tickets pending although every ticket on it
/// was guaranteed to complete. Every rank that was ever dead or isolated on
/// the shard counts against its budget for the whole scenario.
fn starved_shard(
    cfg: &StoreExploreConfig,
    scenario: &StoreScenario,
    metrics: &StoreMetrics,
) -> Option<Failure> {
    let starved = metrics.per_shard.iter().find(|m| {
        let shard = m.shard;
        let initial = (scenario.shard_crashes.iter().filter(|c| c.0 == shard))
            .flat_map(|&(_, count)| 0..count);
        let follow_ups =
            (scenario.follow_up_crashes.iter().filter(|c| c.1 == shard)).map(|&(_, _, rank)| rank);
        let windows =
            (scenario.shard_partitions.iter().filter(|p| p.0 == shard)).map(|(_, window)| window);
        let crashed = initial.chain(follow_ups);
        m.pending_tickets > 0
            && liveness_guaranteed(cfg.n, cfg.f, &scenario.net, false, crashed, windows)
    })?;
    Some(Failure::Starved {
        shard: starved.shard,
        protocol: starved.protocol,
        pending: starved.pending_tickets,
    })
}

/// Drives `scenario` through the store and the model with the same calls,
/// phase by phase, and checks the store against the model, each key for
/// atomicity and each guaranteed shard for liveness. Returns the tickets
/// the store completed and left pending.
fn check_against_lone_clusters(
    cfg: &StoreExploreConfig,
    scenario: &StoreScenario,
    coverage: &mut Coverage,
) -> Result<(usize, usize), Failure> {
    let mut store = build_store(cfg, scenario);
    coverage.partitioned += usize::from(!scenario.shard_partitions.is_empty());
    let mut model = Model::new(cfg, coverage);
    for &(shard, count) in &scenario.shard_crashes {
        let crashed = store.crash_shard_servers(shard, count).is_ok();
        let call = format!("crash {count} on shard {shard}");
        agree(&call, crashed, model.crash(shard, 0..count))?;
    }
    let mut tickets = (0, 0);
    let mut hit_event_cap = false;
    for (phase_idx, phase) in scenario.phases.iter().enumerate() {
        // Fault events fire at the phase boundary, racing this phase's
        // operations.
        for &(_, shard, rank) in scenario.shard_repairs.iter().filter(|r| r.0 == phase_idx) {
            let repaired = store.repair_shard_server(shard, rank).is_ok();
            let call = format!("phase {phase_idx}: repair {rank} on shard {shard}");
            agree(&call, repaired, model.repair(shard, rank))?;
        }
        for &(_, shard, rank) in scenario
            .follow_up_crashes
            .iter()
            .filter(|c| c.0 == phase_idx)
        {
            let crashed = store.crash_shard_server(shard, rank).is_ok();
            let call = format!("phase {phase_idx}: crash {rank} on shard {shard}");
            agree(&call, crashed, model.crash(shard, [rank]))?;
            model.coverage.follow_up_crashes += usize::from(crashed);
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
        let outcome = store.run_until_quiescent();
        tickets = (outcome.completed_tickets, outcome.pending_tickets);
        hit_event_cap |= outcome.hit_event_cap;
        model.run();
        for (shard, modeled) in model.shards.iter().enumerate() {
            let downed: Vec<usize> = modeled.downed.iter().copied().collect();
            let dead_or_repairing = downed.len() + modeled.repairing.len();
            let call = format!("phase {phase_idx}: shard {shard}'s downed ranks");
            agree(&call, store.shard_downed_servers(shard), Ok(downed))?;
            let call = format!("phase {phase_idx}: shard {shard}'s dead or repairing");
            let dead = store.shard_dead_or_repairing(shard);
            agree(&call, dead, Ok(dead_or_repairing))?;
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
        modeled_ops += alone.len();
        let call = format!("key {}'s history", String::from_utf8_lossy(key));
        agree(&call, projected, alone)?;
    }
    agree("ops of all keys", history.len(), modeled_ops)?;

    let metrics = store.metrics();
    let protocols = metrics.per_shard.iter().map(|m| m.protocol);
    let keys_per_protocol = &mut model.coverage.keys_per_protocol;
    for (protocol, keys) in protocols.zip(store.keys_per_shard()) {
        *keys_per_protocol.entry(protocol).or_default() += keys;
    }
    if hit_event_cap {
        return Err(Failure::EventCap);
    }
    history.check_each_key().map_err(Failure::NotAtomic)?;
    match starved_shard(cfg, scenario, &metrics) {
        Some(starved) => Err(starved),
        None => Ok(tickets),
    }
}

/// Checks the scenarios of `seeds` and fails the test with the first
/// failure and its scenario. Returns the tickets they completed and left
/// pending in total, and what they covered.
fn expect_clean(cfg: &StoreExploreConfig, seeds: Range<u64>) -> ((usize, usize), Coverage) {
    let mut coverage = Coverage::default();
    let mut total = (0, 0);
    for seed in seeds {
        let scenario = generate_store_scenario(cfg, seed);
        match check_against_lone_clusters(cfg, &scenario, &mut coverage) {
            Ok((completed, pending)) => total = (total.0 + completed, total.1 + pending),
            Err(failure) => panic!("seed {seed} under {:?}: {failure}\n{scenario}", cfg.runtime),
        }
    }
    (total, coverage)
}

/// Two four-shard fleets whose keys reach all five protocols between them.
/// Four phases rather than three and more repairs, so that repairs leave
/// room for follow-up crashes and for keys first touched after them. The
/// store places `key/0` … `key/23` on shards 0, 1 and 2 only, so the second
/// fleet puts the other protocols there.
fn five_kind_fleets() -> [StoreExploreConfig; 2] {
    let fleet = |kinds| StoreExploreConfig {
        kinds,
        keys: 24,
        phases: 4,
        repair_p: 0.8,
        ..StoreExploreConfig::mixed(4)
    };
    [
        fleet(vec![Soda, Abd, Cas, Casgc { gc: 2 }]),
        fleet(vec![Casgc { gc: 2 }, SodaErr { e: 1 }, Soda, Abd]).with_partitions(0.7, 800),
    ]
}

#[test]
fn every_key_runs_as_its_lone_cluster_would_under_every_runtime() {
    let runtimes = [
        StoreRuntime::Simulation,
        StoreRuntime::Threaded,
        StoreRuntime::WorkStealing { workers: 3 },
    ];
    for runtime in runtimes {
        let mut coverage = Coverage::default();
        for (fleet, cfg) in five_kind_fleets().iter().enumerate() {
            let cfg = StoreExploreConfig {
                runtime,
                ..cfg.clone()
            };
            for seed in 0..16 {
                let scenario = generate_store_scenario(&cfg, seed);
                if let Err(failure) = check_against_lone_clusters(&cfg, &scenario, &mut coverage) {
                    panic!("fleet {fleet} seed {seed} under {runtime:?}: {failure}\n{scenario}");
                }
            }
        }
        assert!(coverage.born_degraded > 0, "{coverage:?}");
        assert!(coverage.shared_repairs > 0, "{coverage:?}");
        assert!(coverage.follow_up_crashes > 0, "{coverage:?}");
        assert!(coverage.partitioned > 0, "{coverage:?}");
        // `key/N` keys reach few shards (ROADMAP item 12(d)); the two
        // fleets are laid out so that every protocol still serves keys.
        let served = coverage.keys_per_protocol.values().filter(|&&k| k > 0);
        assert_eq!(served.count(), 5, "{coverage:?}");
    }
}

/// Pins the store generator and runner across commits: these campaigns'
/// totals have to stay what they were when the explorers were merged into
/// one engine (and `mixed(4)` is the nightly smoke's fleet). A change that
/// moves them has moved an RNG draw, a message or a settlement — say so, as
/// ROADMAP's fix-first item will when it lands.
#[test]
fn mixed_four_shard_store_survives_adversarial_schedules() {
    let (tickets, _) = expect_clean(&StoreExploreConfig::mixed(4), 0..6);
    assert_eq!(tickets, (200, 88));
    let partitioned = StoreExploreConfig::mixed(4).with_partitions(0.7, 800);
    let (tickets, _) = expect_clean(&partitioned, 0..4);
    assert_eq!(tickets, (157, 35));
}

#[test]
fn a_clean_mixed_store_schedule_is_atomic_and_fully_served() {
    let cfg = StoreExploreConfig {
        knobs: AdversaryKnobs::off(),
        shard_crash_p: 0.0,
        phases: 2,
        ops_per_phase: 8,
        ..StoreExploreConfig::mixed(4)
    };
    let (tickets, _) = expect_clean(&cfg, 1..2);
    assert_eq!(tickets, (16, 0), "fault-free runs serve everything");
}

#[test]
fn hand_built_windows_are_applied_the_way_a_cluster_sees_them() {
    // The store builder rejects a window with no ranks, with ranks the shards
    // do not have, or that heals before it opens; `build_store` has to skip
    // or trim them instead, as the cluster runner does, or a hand-built
    // scenario panics.
    let cfg = StoreExploreConfig::mixed(4);
    let window = |ranks: &[usize], start, end| PartitionWindow {
        ranks: ranks.to_vec(),
        start,
        end,
    };
    let run_with = |shard_partitions| {
        let scenario = StoreScenario {
            shard_partitions,
            ..generate_store_scenario(&cfg, 3)
        };
        check_against_lone_clusters(&cfg, &scenario, &mut Coverage::default())
            .unwrap_or_else(|failure| panic!("{failure}\n{scenario}"))
    };
    let nothing_cut = run_with(vec![
        (0, window(&[], 0, 500)),
        (1, window(&[cfg.n, cfg.n + 3], 0, 500)),
        (2, window(&[1], 300, 300)),
    ]);
    assert_eq!(nothing_cut, run_with(Vec::new()));
    // A rank out of range is dropped from its window, not the window with it.
    // (Three ranks exceed f = 2, so the cut shard visibly starves.)
    let trimmed = run_with(vec![(0, window(&[0, 1, 2, cfg.n], 0, 100_000))]);
    assert_eq!(trimmed, run_with(vec![(0, window(&[0, 1, 2], 0, 100_000))]));
    assert_ne!(
        trimmed, nothing_cut,
        "the surviving ranks must still be cut"
    );
}

/// A deliberately broken protocol on every shard, run on a small store with
/// no other fault, for the check to catch.
fn broken_abd_store(quorum: usize) -> StoreExploreConfig {
    StoreExploreConfig {
        kinds: vec![Abd],
        quorum_override: Some(quorum),
        knobs: AdversaryKnobs::off(),
        repair_p: 0.0,
        ..StoreExploreConfig::mixed(2)
    }
}

/// The failures of seeds `0..seeds`, in seed order.
fn failures(cfg: &StoreExploreConfig, seeds: u64) -> Vec<Failure> {
    let check = |seed| {
        let scenario = generate_store_scenario(cfg, seed);
        check_against_lone_clusters(cfg, &scenario, &mut Coverage::default()).err()
    };
    (0..seeds).filter_map(check).collect()
}

#[test]
fn a_weakened_abd_store_is_caught_as_not_atomic() {
    // Single-server quorums: reads and writes no longer intersect, so stale
    // reads and duplicate versions appear without any adversary. Every key
    // still runs as its lone cluster would; the atomicity check must fail.
    let cfg = StoreExploreConfig {
        shard_crash_p: 0.0,
        keys: 2,
        ops_per_phase: 6,
        ..broken_abd_store(1)
    };
    let failures = failures(&cfg, 64);
    assert!(!failures.is_empty(), "weakened ABD must violate");
    for failure in failures {
        assert!(matches!(failure, Failure::NotAtomic(_)), "{failure}");
    }
}

#[test]
fn unsound_store_quorum_starvation_is_flagged() {
    // Every shard runs ABD waiting for all n = 5 responses; crashing one
    // server starves every ticket on that shard while the guarantee
    // predicate holds, so the liveness check must flag it.
    let cfg = StoreExploreConfig {
        shard_crash_p: 1.0,
        keys: 4,
        phases: 2,
        ops_per_phase: 6,
        ..broken_abd_store(5)
    };
    let failures = failures(&cfg, 8);
    assert!(!failures.is_empty(), "an unsound quorum must starve");
    for failure in failures {
        let flagged = matches!(failure, Failure::Starved { pending, .. } if pending > 0);
        assert!(flagged, "{failure}");
    }
}

/// The store's nightly smoke: four campaigns over each of the two
/// [`five_kind_fleets`], each asserting that every key runs as its lone
/// cluster would, atomic and live. The general pass; the repair pass, where
/// every shard crash is repaired at a later phase boundary and half the
/// repairs are followed by a crash of a different rank; the partition pass,
/// with windows on every shard plus crash → partition → heal → repair
/// chains; and the scheduling pass, with every drain on four threads
/// claiming key clusters from one cursor. Between them the fleets' keys
/// reach all five protocols (`mixed(4)`'s reach only its SODA and ABD
/// shards, ROADMAP item 12(d)); the smoke prints the keys each protocol
/// served. Ignored in tier-1; scale with `EXPLORE_SCHEDULES`.
#[test]
#[ignore = "nightly fuzz-smoke budget; run with --ignored (EXPLORE_SCHEDULES to scale)"]
fn store_model_smoke() {
    let schedules = common::schedules_from_env(100) / 4;
    let campaigns = five_kind_fleets()
        .into_iter()
        .enumerate()
        .flat_map(|(fleet, base)| {
            let repairs = |crash_p| StoreExploreConfig {
                shard_crash_p: crash_p,
                repair_p: 1.0,
                ..base.clone()
            };
            // (name, first seed, config, whether repairs and windows must be dense)
            [
                ("store", 1_000, base.clone(), false, false),
                ("store-repair", 9_000, repairs(0.75), true, false),
                (
                    "store-partition",
                    13_000,
                    repairs(0.75).with_partitions(1.0, 1200),
                    false,
                    true,
                ),
                (
                    "store-workstealing",
                    17_000,
                    StoreExploreConfig {
                        runtime: StoreRuntime::WorkStealing { workers: 4 },
                        ..repairs(0.5).with_partitions(0.5, 1000)
                    },
                    false,
                    false,
                ),
            ]
            .map(|(name, seed, cfg, repairs, windows)| {
                (format!("{name}/fleet {fleet}"), seed, cfg, repairs, windows)
            })
        });
    for (name, seed_start, cfg, dense_repairs, dense_windows) in campaigns {
        let seeds = seed_start..seed_start + schedules as u64;
        let scenarios: Vec<_> = (seeds.clone())
            .map(|seed| generate_store_scenario(&cfg, seed))
            .collect();
        let count = |wanted: &dyn Fn(&StoreScenario) -> bool| {
            scenarios.iter().filter(|s| wanted(s)).count()
        };
        let with_repairs = count(&|s| !s.shard_repairs.is_empty());
        let with_follow_up = count(&|s| !s.follow_up_crashes.is_empty());
        let windowed = count(&|s| !s.shard_partitions.is_empty());
        // A chain: some crashed-then-repaired shard also carries a window.
        let with_chains = count(&|s| {
            let mut windowed = s.shard_partitions.iter().map(|&(shard, _)| shard);
            windowed.any(|shard| s.shard_repairs.iter().any(|&(_, sh, _)| sh == shard))
        });
        if dense_repairs {
            assert!(
                with_repairs * 2 >= schedules,
                "{name}: only {with_repairs}/{schedules} schedules contain repairs"
            );
            assert!(
                with_follow_up > 0,
                "{name}: no crash → repair → crash chain in {schedules} schedules"
            );
        }
        if dense_windows {
            assert!(
                windowed * 2 >= schedules,
                "{name}: only {windowed}/{schedules} schedules contain windows"
            );
            assert!(
                with_chains > 0,
                "{name}: no crash → partition → heal → repair chain in {schedules} schedules"
            );
        }
        let ((completed, pending), coverage) = expect_clean(&cfg, seeds);
        assert!(completed > 0, "{name}: the adversary starved every ticket");
        eprintln!(
            "{name}: {schedules} schedules ({with_repairs} with repairs, {with_follow_up} \
             follow-up crashes, {windowed} with windows, {with_chains} chains), {completed} \
             tickets settled, {pending} pending, every key as its lone cluster, all atomic, \
             all live; keys per protocol {:?}",
            coverage.keys_per_protocol
        );
    }
}
