//! Seeded store scenarios: what the sharded-store model test runs.
//!
//! A [`StoreExploreConfig`] describes a mixed-protocol fleet of
//! [`soda_store::ShardedStore`] shards serving many keys through the batched
//! ticket API, under per-scenario sampled network faults, in-tolerance shard
//! crashes, crash → repair → crash interleavings at phase boundaries and
//! per-shard partition windows. [`generate_store_scenario`] derives the
//! [`StoreScenario`] for a seed and [`build_store`] the store it runs on.
//! The network faults and windows are drawn with the cluster explorer's own
//! samplers, `NetIntensity::sample` and `sample_window`.
//!
//! The store adds no protocol, and atomicity is a per-object property, so
//! the store is correct if and only if every key's cluster runs exactly as a
//! lone cluster would, atomic and live. The model test beside this module
//! drives each scenario through the store and through one lone cluster per
//! key side by side, and checks exactly that: it is the store's one check. A
//! schedule that breaks a key is then `soda_workload::explore`'s to dig into.

use soda_registry::{PartitionWindow, ProtocolKind};
use soda_simnet::rng::SimRng;
use soda_store::{ShardedStore, StoreBuilder, StoreRuntime};
use soda_workload::explore::{sample_window, AdversaryKnobs, NetIntensity};
use std::fmt;

/// Parameters of a family of seeded store scenarios.
#[derive(Clone, Debug)]
pub struct StoreExploreConfig {
    /// Number of shards.
    pub shards: usize,
    /// Protocol kinds cycled across the shards (shard `i` runs
    /// `kinds[i % kinds.len()]`); a single entry gives a homogeneous fleet.
    pub kinds: Vec<ProtocolKind>,
    /// Servers per shard cluster.
    pub n: usize,
    /// Tolerated crashes per shard cluster.
    pub f: usize,
    /// Writer handles per key.
    pub writers_per_key: usize,
    /// Reader handles per key.
    pub readers_per_key: usize,
    /// Size of the keyspace (`key/0` … `key/{keys-1}`).
    pub keys: usize,
    /// Queue-then-drain rounds per scenario.
    pub phases: usize,
    /// Operations queued per phase.
    pub ops_per_phase: usize,
    /// Probability that each shard loses servers (sampled `1..=f`, so every
    /// shard stays within its fault tolerance and liveness is preserved).
    pub shard_crash_p: f64,
    /// Probability that a crashed shard is repaired at a later phase boundary
    /// (the replacement re-acquires its state from survivors); half of those
    /// repairs are followed by a crash of a *different* rank, exercising the
    /// dynamic crash budget.
    pub repair_p: f64,
    /// Network-fault intensity bounds (sampled per scenario).
    pub knobs: AdversaryKnobs,
    /// Probability that each shard gets a scheduled **partition window**
    /// isolating `1..=f` of its server ranks from every other process, and
    /// that each crashed-then-repaired shard additionally gets a window over
    /// its crashed ranks — the crash → partition → heal → repair chain.
    /// Default `0.0`; at `0.0` partition generation consumes **no** RNG
    /// draws, so existing seeds reproduce bit-identical scenarios.
    pub partition_p: f64,
    /// Maximum length (and start bound) in ticks of sampled partition
    /// windows. Kept below the repair retry budget (8 attempts spanning
    /// 2800 ticks) by default so repairs scheduled behind a window succeed
    /// once it heals rather than exhausting their retries.
    pub partition_len_max: u64,
    /// **Test-only.** Builds every shard's ABD clusters with this (possibly
    /// sub-majority) quorum size, deliberately breaking atomicity (or, above
    /// `n − f`, liveness) so the store's check can itself be validated. See
    /// `ClusterBuilder::with_unsound_quorum`.
    pub quorum_override: Option<usize>,
    /// Store runtime every scenario is driven under. Defaults to
    /// [`StoreRuntime::Simulation`]; every key's history is the same under
    /// every runtime (the model test checks it), so switching this to
    /// [`StoreRuntime::WorkStealing`] runs every drain on several threads
    /// claiming clusters from one cursor, without changing which histories
    /// get explored.
    pub runtime: StoreRuntime,
}

impl StoreExploreConfig {
    /// The standard mixed-fleet campaign over `shards` shards: all five
    /// protocols cycled, `(n, f) = (5, 2)` (SODAerr at `e = 1`, so
    /// `k = n − f − 2e = 1`), one writer and two readers per key, 12 keys,
    /// three queue-then-drain phases of 16 operations, in-tolerance shard
    /// crashes and the standard adversary.
    pub fn mixed(shards: usize) -> Self {
        StoreExploreConfig {
            shards,
            kinds: vec![
                ProtocolKind::Soda,
                ProtocolKind::Abd,
                ProtocolKind::Cas,
                ProtocolKind::Casgc { gc: 2 },
                ProtocolKind::SodaErr { e: 1 },
            ],
            n: 5,
            f: 2,
            writers_per_key: 1,
            readers_per_key: 2,
            keys: 12,
            phases: 3,
            ops_per_phase: 16,
            shard_crash_p: 0.25,
            repair_p: 0.5,
            knobs: AdversaryKnobs::standard(),
            partition_p: 0.0,
            partition_len_max: 1600,
            quorum_override: None,
            runtime: StoreRuntime::Simulation,
        }
    }

    /// Enables scheduled partition windows: each shard gets one with
    /// probability `partition_p`, each at most `partition_len_max` ticks
    /// long, and crashed-then-repaired shards sample the full
    /// crash → partition → heal → repair chain.
    pub fn with_partitions(mut self, partition_p: f64, partition_len_max: u64) -> Self {
        self.partition_p = partition_p;
        self.partition_len_max = partition_len_max;
        self
    }

    fn shard_kinds(&self) -> Vec<ProtocolKind> {
        (0..self.shards)
            .map(|i| self.kinds[i % self.kinds.len()])
            .collect()
    }
}

/// One planned store operation (keys are indices into the campaign keyspace).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreOp {
    /// Key index (`key/{key}` on the wire).
    pub key: usize,
    /// Put (`true`) or get (`false`).
    pub is_write: bool,
    /// Fill byte identifying the written value (ignored for gets).
    pub fill: u8,
}

/// A fully concrete, seed-derived store scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct StoreScenario {
    /// The seed this scenario was generated from (also the store seed).
    pub seed: u64,
    /// Operations per phase; each phase is queued in order, then the whole
    /// store is drained to quiescence before the next phase.
    pub phases: Vec<Vec<StoreOp>>,
    /// `(shard, crashed servers)` applied before any operation; counts stay
    /// within each shard's `f` when generated.
    pub shard_crashes: Vec<(usize, usize)>,
    /// `(phase, shard, rank)` repairs applied at that phase's start —
    /// the replacement re-acquires its state from survivors while the phase's
    /// operations are in flight.
    pub shard_repairs: Vec<(usize, usize, usize)>,
    /// `(phase, shard, rank)` crashes of a *different* rank applied at that
    /// phase's start, after a repair has freed the budget. The store refuses
    /// it if the budget is still spent (the enabling repair has not
    /// settled).
    pub follow_up_crashes: Vec<(usize, usize, usize)>,
    /// `(shard, window)` scheduled partition windows: the window's ranks are
    /// cut off from every other process of that shard's clusters, and the
    /// cuts are counted in the shard's `messages_partitioned` metric. Empty
    /// unless [`StoreExploreConfig::partition_p`] is positive.
    pub shard_partitions: Vec<(usize, PartitionWindow)>,
    /// Network-fault intensities for this scenario.
    pub net: NetIntensity,
}

impl fmt::Display for StoreScenario {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(out, "store scenario seed={}", self.seed)?;
        for (i, phase) in self.phases.iter().enumerate() {
            writeln!(out, "  phase {i}:")?;
            for op in phase {
                if op.is_write {
                    writeln!(out, "    put key/{} (fill=0x{:02x})", op.key, op.fill)?;
                } else {
                    writeln!(out, "    get key/{}", op.key)?;
                }
            }
        }
        for &(shard, count) in &self.shard_crashes {
            writeln!(out, "  crash {count} server(s) on shard {shard}")?;
        }
        for &(phase, shard, rank) in &self.shard_repairs {
            writeln!(
                out,
                "  phase {phase}: repair server {rank} on shard {shard}"
            )?;
        }
        for &(phase, shard, rank) in &self.follow_up_crashes {
            writeln!(out, "  phase {phase}: crash server {rank} on shard {shard}")?;
        }
        for (shard, w) in &self.shard_partitions {
            writeln!(
                out,
                "  t=[{},{}) partition servers {:?} of shard {shard} from everyone",
                w.start, w.end, w.ranks
            )?;
        }
        if self.net.has_net_faults() {
            writeln!(out, "  {}", self.net)?;
        }
        Ok(())
    }
}

/// Deterministically derives the store scenario for `(config, seed)`.
pub fn generate_store_scenario(cfg: &StoreExploreConfig, seed: u64) -> StoreScenario {
    let mut rng = SimRng::new(seed ^ 0x5704_E5EED);
    let mut fill: u8 = 0;
    let phases = (0..cfg.phases)
        .map(|_| {
            (0..cfg.ops_per_phase)
                .map(|_| {
                    let is_write = rng.next_f64() < 0.5;
                    fill = fill.wrapping_mul(31).wrapping_add(7);
                    StoreOp {
                        key: rng.gen_range(0..cfg.keys.max(1)),
                        is_write,
                        fill,
                    }
                })
                .collect()
        })
        .collect();
    let mut shard_crashes = Vec::new();
    for shard in 0..cfg.shards {
        if cfg.f > 0 && rng.next_f64() < cfg.shard_crash_p {
            shard_crashes.push((shard, rng.gen_range(1..=cfg.f)));
        }
    }
    let net = NetIntensity::sample(&mut rng, &cfg.knobs);
    // Repair draws are appended at the END of the draw order so every
    // existing seed keeps its operation schedule, crash set and network
    // intensities unchanged.
    let mut shard_repairs = Vec::new();
    let mut follow_up_crashes = Vec::new();
    for &(shard, count) in &shard_crashes {
        if cfg.phases > 1 && rng.next_f64() < cfg.repair_p {
            let repair_phase = rng.gen_range(1..cfg.phases);
            for rank in 0..count {
                shard_repairs.push((repair_phase, shard, rank));
            }
            // Spend the freed budget on a rank the initial crash never
            // touched, one phase (or more) after the repair settles.
            if repair_phase + 1 < cfg.phases && count < cfg.n && rng.next_f64() < 0.5 {
                follow_up_crashes.push((
                    rng.gen_range(repair_phase + 1..cfg.phases),
                    shard,
                    rng.gen_range(count..cfg.n),
                ));
            }
        }
    }
    // Partition draws come LAST for the same reason: configs that leave
    // `partition_p` at 0 take none of them and replay old seeds unchanged.
    let mut shard_partitions = Vec::new();
    if cfg.partition_p > 0.0 && cfg.f > 0 {
        for shard in 0..cfg.shards {
            if rng.next_f64() < cfg.partition_p {
                let max = cfg.partition_len_max;
                shard_partitions.push((shard, sample_window(&mut rng, cfg.n, cfg.f, max, max)));
            }
        }
        // The crash → partition → heal → repair chain: shards whose crash
        // will later be repaired get a window over the crashed ranks from
        // tick 0, so the repair is scheduled while (or right after) its
        // survivor fan-out crosses a cut that then heals under the retries.
        for &(shard, count) in &shard_crashes {
            if shard_repairs.iter().any(|&(_, s, _)| s == shard) && rng.next_f64() < cfg.partition_p
            {
                let window = PartitionWindow {
                    ranks: (0..count).collect(),
                    start: 0,
                    end: rng.gen_range(1..=cfg.partition_len_max.max(1)),
                };
                shard_partitions.push((shard, window));
            }
        }
    }
    StoreScenario {
        seed,
        phases,
        shard_crashes,
        shard_repairs,
        follow_up_crashes,
        shard_partitions,
        net,
    }
}

/// Builds the store `(config, scenario)` runs on, before any crash or
/// operation. Windows are applied the way a cluster would see them: ranks
/// the shards do not have are dropped, and windows that cut nothing are
/// skipped.
///
/// # Panics
/// Panics if the configuration is invalid for any shard's protocol kind
/// (see [`soda_store::StoreBuilder`] validation).
pub fn build_store(cfg: &StoreExploreConfig, scenario: &StoreScenario) -> ShardedStore {
    let mut builder = StoreBuilder::new(
        cfg.shards,
        cfg.kinds.first().copied().unwrap_or(ProtocolKind::Soda),
        cfg.n,
        cfg.f,
    )
    .with_shard_kinds(cfg.shard_kinds())
    .with_clients_per_key(cfg.writers_per_key, cfg.readers_per_key)
    .with_net_faults(scenario.net.fault_plan())
    .with_seed(scenario.seed)
    .with_runtime(cfg.runtime);
    for (shard, window) in &scenario.shard_partitions {
        if let Some(w) = window.on_cluster(cfg.n) {
            builder = builder.with_shard_partition(*shard, &w);
        }
    }
    if let Some(quorum) = cfg.quorum_override {
        builder = builder.with_unsound_quorum(quorum);
    }
    builder
        .build()
        .unwrap_or_else(|e| panic!("invalid store exploration config: {e}"))
}

mod tests {
    use super::*;

    #[test]
    fn store_scenario_generation_is_deterministic_per_seed() {
        let cfg = StoreExploreConfig::mixed(4);
        let a = generate_store_scenario(&cfg, 9);
        assert_eq!(a, generate_store_scenario(&cfg, 9));
        assert_ne!(a, generate_store_scenario(&cfg, 10));
        assert_eq!(a.phases.len(), cfg.phases);
        assert!(a.phases.iter().all(|p| p.len() == cfg.ops_per_phase));
        assert!(a
            .shard_crashes
            .iter()
            .all(|&(s, c)| s < cfg.shards && c >= 1 && c <= cfg.f));
        assert!(a.net.drop_p <= cfg.knobs.drop_p_max);
    }

    #[test]
    fn kinds_cycle_across_shards() {
        let cfg = StoreExploreConfig::mixed(7);
        let kinds = cfg.shard_kinds();
        assert_eq!(kinds.len(), 7);
        assert_eq!(kinds[0], kinds[5], "cycle length is five protocols");
        assert_ne!(kinds[0], kinds[1]);
    }

    #[test]
    fn scenarios_render_as_reproduction_recipes() {
        let cfg = StoreExploreConfig::mixed(4);
        let rendered = generate_store_scenario(&cfg, 2).to_string();
        assert!(rendered.contains("store scenario seed=2"), "{rendered}");
        assert!(rendered.contains("phase 0"), "{rendered}");
    }

    #[test]
    fn repair_events_are_generated_and_stay_causal() {
        let cfg = StoreExploreConfig {
            shard_crash_p: 1.0,
            repair_p: 1.0,
            ..StoreExploreConfig::mixed(6)
        };
        let mut saw_repair = false;
        let mut saw_follow_up = false;
        for seed in 0..32 {
            let s = generate_store_scenario(&cfg, seed);
            saw_repair |= !s.shard_repairs.is_empty();
            saw_follow_up |= !s.follow_up_crashes.is_empty();
            for &(phase, shard, rank) in &s.shard_repairs {
                // A repair answers an initial crash of that exact rank, at a
                // phase boundary strictly after the crash (phase 0 start).
                assert!(phase >= 1 && phase < cfg.phases);
                let count = s
                    .shard_crashes
                    .iter()
                    .find(|&&(sh, _)| sh == shard)
                    .map(|&(_, c)| c)
                    .expect("repair without a crash");
                assert!(rank < count, "repairing a rank that never crashed");
            }
            for &(phase, shard, rank) in &s.follow_up_crashes {
                // A follow-up spends budget freed by that shard's repair, so
                // it must come at least one phase later and hit a fresh rank.
                let repair_phase = s
                    .shard_repairs
                    .iter()
                    .find(|&&(_, sh, _)| sh == shard)
                    .map(|&(p, _, _)| p)
                    .expect("follow-up crash without an enabling repair");
                assert!(phase > repair_phase);
                let count = s
                    .shard_crashes
                    .iter()
                    .find(|&&(sh, _)| sh == shard)
                    .map(|&(_, c)| c)
                    .unwrap();
                assert!(rank >= count && rank < cfg.n);
            }
        }
        assert!(saw_repair, "repair_p = 1.0 must generate repairs");
        assert!(saw_follow_up, "follow-up crashes must be sampled");
    }

    #[test]
    fn zero_repair_probability_generates_no_repairs() {
        let cfg = StoreExploreConfig {
            shard_crash_p: 1.0,
            repair_p: 0.0,
            ..StoreExploreConfig::mixed(6)
        };
        for seed in 0..16 {
            let s = generate_store_scenario(&cfg, seed);
            assert!(s.shard_repairs.is_empty());
            assert!(s.follow_up_crashes.is_empty());
        }
    }

    #[test]
    fn store_partition_draws_are_appended_and_gated() {
        let base = StoreExploreConfig::mixed(6);
        let with = base.clone().with_partitions(1.0, 800);
        for seed in 0..24 {
            let a = generate_store_scenario(&base, seed);
            let b = generate_store_scenario(&with, seed);
            assert!(a.shard_partitions.is_empty());
            assert!(
                !b.shard_partitions.is_empty(),
                "partition_p = 1 must sample"
            );
            let stripped = StoreScenario {
                shard_partitions: Vec::new(),
                ..b.clone()
            };
            assert_eq!(a, stripped, "seed {seed}: non-partition draws differ");
            for (shard, w) in &b.shard_partitions {
                assert!(!w.is_empty());
                assert!(*shard < with.shards);
                assert!(!w.ranks.is_empty() && w.ranks.len() <= with.f);
                assert!(w.ranks.iter().all(|&r| r < with.n));
                assert!(w.len() <= 800);
            }
        }
    }

    #[test]
    fn crash_partition_heal_repair_chains_are_sampled() {
        let cfg = StoreExploreConfig {
            shard_crash_p: 1.0,
            repair_p: 1.0,
            ..StoreExploreConfig::mixed(4).with_partitions(1.0, 600)
        };
        let mut saw_chain = false;
        for seed in 0..24 {
            let s = generate_store_scenario(&cfg, seed);
            // A chain window covers a crashed-then-repaired shard's crashed
            // ranks from tick 0.
            saw_chain |= s.shard_partitions.iter().any(|(shard, w)| {
                w.start == 0
                    && s.shard_repairs.iter().any(|&(_, sh, _)| sh == *shard)
                    && s.shard_crashes.iter().any(|&(sh, count)| {
                        sh == *shard && w.ranks == (0..count).collect::<Vec<_>>()
                    })
            });
        }
        assert!(saw_chain, "chain windows must be sampled");
    }
}
