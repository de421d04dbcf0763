//! The **sharded store** target of the exploration [`engine`](crate::engine).
//!
//! [`crate::explore`] drives a single register cluster; a
//! [`StoreExploreConfig`] is the engine [`Target`] that drives a whole
//! [`soda_store::ShardedStore`]: a mixed-protocol fleet serving many keys
//! through the batched ticket API, under per-scenario sampled network faults,
//! in-tolerance shard crashes, crash → repair → crash interleavings at phase
//! boundaries and per-shard partition windows. [`generate_store_scenario`]
//! derives the [`StoreScenario`] for a seed; [`run_store_scenario`] drains
//! every phase to quiescence, machine-checks the store-wide history projected
//! per key ([`soda_consistency::KeyedHistory::check_each_key`]) and looks for
//! a shard that starved although it was guaranteed to serve every ticket
//! ([`StoreLivenessViolation`]). The campaign loop, the shrinker, the report
//! and the counterexample type are the engine's; [`explore_store`],
//! [`shrink_store`] and [`shrink_store_liveness`] are its entry points under
//! their store names. Once a violation is localized to one key's schedule,
//! the cluster target is the right tool to dig further.
//!
//! ```
//! use soda_workload::store_explore::{explore_store, StoreExploreConfig};
//!
//! let report = explore_store(&StoreExploreConfig::mixed(4), 0, 3);
//! assert_eq!(report.check(), Ok(()));
//! ```

use crate::engine::{
    campaign, liveness_guaranteed, sample_window, AdversaryKnobs, NetIntensity, Outcome, Report,
    Target,
};
pub use crate::engine::{shrink as shrink_store, shrink_liveness as shrink_store_liveness};
use soda_consistency::{KeyViolation, KeyedHistory};
use soda_registry::{PartitionWindow, ProtocolKind};
use soda_simnet::rng::SimRng;
use soda_store::{ShardedStore, StoreBuilder, StoreMetrics, StoreRuntime};
use std::fmt;

/// Parameters of one store-level exploration campaign.
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
    /// sub-majority) quorum size, deliberately breaking atomicity so the
    /// store-level harness and shrinker can themselves be validated. See
    /// `ClusterBuilder::with_unsound_quorum`.
    pub quorum_override: Option<usize>,
    /// Store runtime every scenario is driven under. Defaults to
    /// [`StoreRuntime::Simulation`]; campaigns are bit-identical across
    /// runtimes (that is itself a checked property), so switching this to
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
    /// phase's start, after a repair has freed the budget. Applied
    /// best-effort: if the budget is still spent (e.g. the enabling repair
    /// was shrunk away), the crash is skipped.
    pub follow_up_crashes: Vec<(usize, usize, usize)>,
    /// `(shard, window)` scheduled partition windows: the window's ranks are
    /// cut off from every other process of that shard's clusters, and the
    /// cuts are counted in the shard's `messages_partitioned` metric. Empty
    /// unless [`StoreExploreConfig::partition_p`] is positive.
    pub shard_partitions: Vec<(usize, PartitionWindow)>,
    /// Network-fault intensities for this scenario.
    pub net: NetIntensity,
}

impl crate::engine::Scenario for StoreScenario {
    /// Operations newest phase first, then fault events — follow-up crashes
    /// before the repairs that enabled them, repairs before the initial
    /// crashes they answer — then the windows.
    fn event_lists(&self) -> Vec<usize> {
        let phases = self.phases.iter().rev().map(Vec::len);
        phases
            .chain([
                self.follow_up_crashes.len(),
                self.shard_repairs.len(),
                self.shard_crashes.len(),
                self.shard_partitions.len(),
            ])
            .collect()
    }

    fn remove_event(&mut self, list: usize, index: usize) {
        let phases = self.phases.len();
        match list.checked_sub(phases) {
            None => drop(self.phases[phases - 1 - list].remove(index)),
            Some(0) => drop(self.follow_up_crashes.remove(index)),
            Some(1) => drop(self.shard_repairs.remove(index)),
            Some(2) => drop(self.shard_crashes.remove(index)),
            Some(_) => drop(self.shard_partitions.remove(index)),
        }
    }

    fn net(&self) -> &NetIntensity {
        &self.net
    }

    fn net_mut(&mut self) -> &mut NetIntensity {
        &mut self.net
    }

    fn windows_mut(&mut self) -> Vec<&mut PartitionWindow> {
        let windows = self.shard_partitions.iter_mut();
        windows.map(|(_, window)| window).collect()
    }
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

/// A **liveness** violation at the store layer: a shard on which every
/// ticket was guaranteed to complete — the shard's crashes and windows pass
/// [`liveness_guaranteed`] — still had tickets pending after the final drain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreLivenessViolation {
    /// The starved shard.
    pub shard: usize,
    /// Name of the protocol the shard runs.
    pub protocol: &'static str,
    /// Tickets routed to the shard that never completed.
    pub pending_tickets: u64,
}

impl fmt::Display for StoreLivenessViolation {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            out,
            "liveness: shard {} ({}) left {} ticket(s) pending although a \
             quorum stayed reachable",
            self.shard, self.protocol, self.pending_tickets
        )
    }
}

/// Finds the first guaranteed-but-starved shard, if any.
fn store_liveness_violation(
    cfg: &StoreExploreConfig,
    scenario: &StoreScenario,
    metrics: &StoreMetrics,
    hit_event_cap: bool,
) -> Option<StoreLivenessViolation> {
    for shard_m in &metrics.per_shard {
        if shard_m.pending_tickets == 0 {
            continue;
        }
        let shard = shard_m.shard;
        // Every rank that was ever dead or isolated on this shard counts
        // against the budget for the whole scenario.
        let initial = scenario.shard_crashes.iter();
        let initial = initial.filter_map(|&(s, count)| (s == shard).then_some(0..count));
        let follow_ups = scenario.follow_up_crashes.iter();
        let follow_ups = follow_ups.filter_map(|&(_, s, rank)| (s == shard).then_some(rank));
        let crashed = initial.flatten().chain(follow_ups);
        let windows = scenario.shard_partitions.iter();
        let windows = windows.filter_map(|(s, window)| (*s == shard).then_some(window));
        if !liveness_guaranteed(cfg.n, cfg.f, &scenario.net, hit_event_cap, crashed, windows) {
            continue;
        }
        return Some(StoreLivenessViolation {
            shard,
            protocol: shard_m.protocol,
            pending_tickets: shard_m.pending_tickets,
        });
    }
    None
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

/// Builds the store for `(config, scenario)` with [`build_store`], drives
/// every phase to quiescence, and machine-checks per-key atomicity over the
/// closed store history.
///
/// # Panics
/// Panics if the configuration is invalid for any shard's protocol kind.
pub fn run_store_scenario(
    cfg: &StoreExploreConfig,
    scenario: &StoreScenario,
) -> Outcome<StoreExploreConfig> {
    let mut store = build_store(cfg, scenario);
    for &(shard, count) in &scenario.shard_crashes {
        store
            .crash_shard_servers(shard, count)
            .expect("generated crash counts stay within each shard's budget");
    }
    let mut completed = 0;
    let mut pending = 0;
    let mut hit_event_cap = false;
    for (phase_idx, phase) in scenario.phases.iter().enumerate() {
        // Fault events fire at the phase boundary, racing this phase's
        // operations. Both are best-effort (`.ok()`): after shrinking, a
        // repair may target a rank that was never crashed, and a follow-up
        // crash may find the budget still spent — the scenario must stay
        // runnable under any subset of its events.
        for &(at, shard, rank) in &scenario.shard_repairs {
            if at == phase_idx {
                store.repair_shard_server(shard, rank).ok();
            }
        }
        for &(at, shard, rank) in &scenario.follow_up_crashes {
            if at == phase_idx {
                store.crash_shard_server(shard, rank).ok();
            }
        }
        for op in phase {
            let key = format!("key/{}", op.key).into_bytes();
            if op.is_write {
                store.put(key, vec![op.fill; 24]);
            } else {
                store.get(key);
            }
        }
        let outcome = store.run_until_quiescent();
        completed = outcome.completed_tickets;
        pending = outcome.pending_tickets;
        hit_event_cap |= outcome.hit_event_cap;
    }
    let history = store.keyed_history();
    Outcome {
        violation: history.check_each_key().err(),
        liveness: store_liveness_violation(cfg, scenario, &store.metrics(), hit_event_cap),
        completed_ops: completed,
        pending,
        hit_event_cap,
        history,
    }
}

impl Target for StoreExploreConfig {
    type Scenario = StoreScenario;
    type Violation = KeyViolation;
    type Starvation = StoreLivenessViolation;
    type History = KeyedHistory;

    fn name(&self) -> &'static str {
        "store"
    }

    fn generate(&self, seed: u64) -> StoreScenario {
        generate_store_scenario(self, seed)
    }

    fn run(&self, scenario: &StoreScenario) -> Outcome<Self> {
        run_store_scenario(self, scenario)
    }
}

/// What [`explore_store`] returns.
pub type StoreExplorationReport = Report<StoreExploreConfig>;

/// [`campaign`] against a sharded store: runs `schedules` seeded store
/// scenarios (`seed_start`, `seed_start + 1`, …), shrinking every violation.
///
/// # Panics
/// Panics if the configuration is invalid for any shard's protocol kind.
pub fn explore_store(
    cfg: &StoreExploreConfig,
    seed_start: u64,
    schedules: usize,
) -> StoreExplorationReport {
    campaign(cfg, seed_start, schedules)
}

#[cfg(test)]
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
    fn crash_repair_crash_schedules_stay_atomic() {
        // Force repairs on and run real scenarios: crash → repair → crash a
        // different rank, with operations racing every transition.
        let cfg = StoreExploreConfig {
            shard_crash_p: 1.0,
            repair_p: 1.0,
            knobs: AdversaryKnobs::off(),
            shards: 3,
            keys: 6,
            ops_per_phase: 8,
            ..StoreExploreConfig::mixed(3)
        };
        let mut ran_with_repairs = 0;
        for seed in 0..6 {
            let scenario = generate_store_scenario(&cfg, seed);
            ran_with_repairs += usize::from(!scenario.shard_repairs.is_empty());
            let outcome = run_store_scenario(&cfg, &scenario);
            assert!(outcome.violation.is_none(), "seed {seed}");
            assert!(!outcome.hit_event_cap, "seed {seed}");
        }
        assert!(ran_with_repairs > 0);
    }

    #[test]
    fn the_store_shrinker_drops_irrelevant_repair_events() {
        // Validate the shrinker against a deliberately broken protocol: a
        // homogeneous weakened-ABD fleet (quorum 1) violates even fault-free.
        // Shards are independent simulations, so crash/repair/follow-up
        // events injected on the shard that does NOT host the violating key
        // are provably irrelevant — the shrinker must strip every one.
        let cfg = StoreExploreConfig {
            kinds: vec![ProtocolKind::Abd],
            quorum_override: Some(1),
            shard_crash_p: 0.0,
            knobs: AdversaryKnobs::off(),
            keys: 2,
            phases: 3,
            ops_per_phase: 6,
            ..StoreExploreConfig::mixed(2)
        };
        let base = (0..64)
            .find_map(|seed| {
                let scenario = generate_store_scenario(&cfg, seed);
                run_store_scenario(&cfg, &scenario)
                    .violation
                    .map(|_| scenario)
            })
            .expect("weakened ABD must violate within 64 seeds");
        // At least one of the two shards is not where the violation lives;
        // events injected there keep the violation alive.
        let scenario = (0..cfg.shards)
            .find_map(|shard| {
                let mut candidate = base.clone();
                candidate.shard_crashes = vec![(shard, 1)];
                candidate.shard_repairs = vec![(1, shard, 0)];
                candidate.follow_up_crashes = vec![(2, shard, 1)];
                run_store_scenario(&cfg, &candidate)
                    .violation
                    .map(|_| candidate)
            })
            .expect("one shard must be irrelevant to the violation");
        let (minimized, violation) = shrink_store(&cfg, &scenario);
        // The minimized scenario still reproduces …
        assert!(run_store_scenario(&cfg, &minimized).violation.is_some());
        assert_eq!(
            run_store_scenario(&cfg, &minimized).violation.unwrap().key,
            violation.key
        );
        // … with the noise gone: injected crash, repair and follow-up are
        // all stripped, the op schedule shrank, and no net faults remain.
        assert!(minimized.shard_repairs.is_empty(), "{minimized}");
        assert!(minimized.follow_up_crashes.is_empty(), "{minimized}");
        assert!(minimized.shard_crashes.is_empty(), "{minimized}");
        let ops = |s: &StoreScenario| s.phases.iter().map(Vec::len).sum::<usize>();
        assert!(ops(&minimized) < ops(&scenario), "{minimized}");
        assert!(!minimized.net.has_net_faults());
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

    #[test]
    fn partitioned_store_schedules_stay_atomic_and_live() {
        // The only adversity is scheduled windows plus in-budget crash,
        // repair and chain events: every shard stays within `f` once-dead-or-
        // isolated ranks unless the union overflows, and the liveness checker
        // must find nothing on the guaranteed shards.
        let cfg = StoreExploreConfig {
            knobs: AdversaryKnobs::off(),
            shard_crash_p: 0.5,
            repair_p: 1.0,
            shards: 3,
            keys: 6,
            ops_per_phase: 8,
            ..StoreExploreConfig::mixed(3).with_partitions(0.7, 600)
        };
        assert_eq!(explore_store(&cfg, 0, 8).check(), Ok(()));
    }

    #[test]
    fn unsound_store_quorum_starvation_is_shrunk_and_replayable() {
        // Every shard runs ABD waiting for all n = 5 responses; crashing one
        // server starves every ticket on that shard while the guarantee
        // predicate holds — the store-level liveness checker must flag it
        // and the shrinker must strip the noise.
        let cfg = StoreExploreConfig {
            kinds: vec![ProtocolKind::Abd],
            quorum_override: Some(5),
            knobs: AdversaryKnobs::off(),
            shard_crash_p: 1.0,
            repair_p: 0.0,
            keys: 4,
            phases: 2,
            ops_per_phase: 6,
            ..StoreExploreConfig::mixed(2)
        };
        let report = explore_store(&cfg, 0, 8);
        assert!(!report.all_live(), "unsound quorum must starve");
        let verdict = report.check().unwrap_err();
        assert!(verdict.starts_with("not live"), "{verdict}");
        let cx = &report.liveness_counterexamples[0];
        assert!(cx.violation.pending_tickets > 0);
        assert!(cx.to_string().contains("liveness"), "{cx}");
        // Minimized scenario still reproduces from scratch …
        let replay = run_store_scenario(&cfg, &cx.minimized);
        assert!(replay.liveness.is_some());
        // … and the seed alone reproduces the original.
        let regen = generate_store_scenario(&cfg, cx.seed);
        assert!(run_store_scenario(&cfg, &regen).liveness.is_some());
        // The shrinker pared the operation schedule down.
        let ops = |s: &StoreScenario| s.phases.iter().map(Vec::len).sum::<usize>();
        assert!(ops(&cx.minimized) <= ops(&cx.original));
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
        let outcome = run_store_scenario(&cfg, &generate_store_scenario(&cfg, 1));
        assert!(outcome.violation.is_none());
        assert!(!outcome.hit_event_cap);
        assert_eq!(outcome.pending, 0, "fault-free runs serve everything");
        assert_eq!(outcome.completed_ops, 16);
    }
}
