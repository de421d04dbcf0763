//! Seeded adversarial exploration of one register cluster: machine-checked
//! atomicity and liveness under crashes, repairs, partitions and an
//! adversarial network.
//!
//! The paper's safety and liveness claims are universally quantified over
//! asynchronous, adversarial executions — *every* schedule of message delays,
//! losses, reorderings, duplications, partitions, crashes, repairs and (for
//! SODAerr) in-budget element corruption must yield an atomic history in
//! which every guaranteed operation completes. This module samples that
//! quantifier. [`generate_scenario`] derives a [`Scenario`] — planned reads
//! and writes, server and client crashes, repairs, byzantine servers,
//! partition windows and sampled network-fault intensities — from an
//! [`ExploreConfig`] and a seed. [`run_scenario`] drives it to quiescence
//! through the [`soda_registry::RegisterCluster`] facade, closes the history
//! under pending writes, feeds it to [`History::check_atomicity`] and looks
//! for a starved operation that was guaranteed to complete
//! ([`LivenessViolation`]). [`explore`] runs a range of seeds and **shrinks**
//! every violation — events, fault intensities and partition windows are
//! greedily removed while the violation persists — into a minimal
//! [`Counterexample`]. Everything derives deterministically from
//! `(config, seed)`, so a counterexample replays exactly with
//! [`generate_scenario`] + [`run_scenario`].
//!
//! ```
//! use soda_registry::ProtocolKind;
//! use soda_workload::explore::{explore, ExploreConfig};
//!
//! let report = explore(&ExploreConfig::new(ProtocolKind::Soda, 5, 2), 0, 5);
//! assert_eq!(report.check(), Ok(()));
//! ```
//!
//! The harness is validated against a deliberately broken protocol: ABD with
//! a sub-majority quorum override
//! ([`ExploreConfig::quorum_override`]) quickly produces
//! non-atomic histories, which exploration catches and minimizes — see the
//! `exploration` integration tests.
//!
//! The sharded store is not explored here. It adds no protocol, so its one
//! check (the `store_model` test, which generates its own seeded store
//! scenarios from [`NetIntensity::sample`] and [`sample_window`]) is that
//! every key runs exactly as its lone cluster would, atomic and live (using
//! [`liveness_guaranteed`] per shard); a key that breaks is a cluster
//! schedule this module can shrink.

use crate::experiments::value_of;
use soda_consistency::{History, Violation};
use soda_registry::{ClusterBuilder, PartitionWindow, ProtocolKind};
use soda_simnet::rng::SimRng;
use soda_simnet::{DelayModel, LinkFaults, NetFaultPlan, NetworkConfig, ProcessId, SimTime};
use std::fmt;

/// Upper bounds for the per-scenario sampled network-fault intensities.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdversaryKnobs {
    /// Maximum per-message drop probability.
    pub drop_p_max: f64,
    /// Maximum per-message duplication probability.
    pub duplicate_p_max: f64,
    /// Maximum extra delivery delay in ticks (sampled uniformly per message).
    pub extra_delay_max: u64,
    /// Maximum probability that a message is held back (reordered).
    pub reorder_p_max: f64,
    /// Hold-back window in ticks for reordered messages.
    pub reorder_window: u64,
}

impl AdversaryKnobs {
    /// The default adversary: lossy, duplicating, reordering delivery that
    /// still lets most operations finish (drop probability stays well below
    /// the point where quorums become unreachable in every phase).
    pub fn standard() -> Self {
        AdversaryKnobs {
            drop_p_max: 0.15,
            duplicate_p_max: 0.2,
            extra_delay_max: 40,
            reorder_p_max: 0.3,
            reorder_window: 60,
        }
    }

    /// No network faults at all (crash-only exploration).
    pub fn off() -> Self {
        AdversaryKnobs {
            drop_p_max: 0.0,
            duplicate_p_max: 0.0,
            extra_delay_max: 0,
            reorder_p_max: 0.0,
            reorder_window: 0,
        }
    }
}

/// Draws `count` distinct server ranks of an `n`-server cluster.
fn sample_ranks(rng: &mut SimRng, n: usize, count: usize) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..n).collect();
    (0..count)
        .map(|_| {
            let pick = rng.gen_range(0..pool.len());
            pool.swap_remove(pick)
        })
        .collect()
}

/// Draws a partition window isolating `1..=f` distinct ranks of an `(n, f)`
/// cluster, opening in `[0, start_max]` and `1..=len_max` ticks long (three
/// draws plus one per rank). The cluster generator draws its windows with
/// it, and so does the `store_model` test's generator, one per shard.
pub fn sample_window(
    rng: &mut SimRng,
    n: usize,
    f: usize,
    start_max: u64,
    len_max: u64,
) -> PartitionWindow {
    let count = rng.gen_range(1..=f);
    let ranks = sample_ranks(rng, n, count);
    let start = rng.gen_range(0..=start_max);
    let end = start + rng.gen_range(1..=len_max.max(1));
    PartitionWindow { ranks, start, end }
}

/// One halving step toward zero for a fault probability: values below `1e-3`
/// snap to `0.0` so the descent terminates instead of chasing denormals.
fn halve_probability(p: f64) -> f64 {
    if p < 1e-3 {
        0.0
    } else {
        p / 2.0
    }
}

/// The network-fault intensities one scenario runs under, sampled below an
/// [`AdversaryKnobs`] bound. `Display` renders the scenario's `net:` line.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetIntensity {
    /// Per-message drop probability.
    pub drop_p: f64,
    /// Per-message duplication probability.
    pub duplicate_p: f64,
    /// Maximum extra delay in ticks (uniform per message when non-zero).
    pub extra_delay: u64,
    /// Per-message hold-back (reordering) probability.
    pub reorder_p: f64,
    /// Hold-back window in ticks.
    pub reorder_window: u64,
}

impl NetIntensity {
    /// How many intensities [`NetIntensity::halved`] can step.
    pub const KNOBS: usize = 5;

    /// Samples intensities below `knobs` (four draws; three when
    /// `extra_delay_max` is zero). The cluster generator draws its
    /// network faults with it, and so does the `store_model` test's.
    pub fn sample(rng: &mut SimRng, knobs: &AdversaryKnobs) -> Self {
        let drop_p = rng.next_f64() * knobs.drop_p_max;
        let duplicate_p = rng.next_f64() * knobs.duplicate_p_max;
        let extra_delay = if knobs.extra_delay_max > 0 {
            rng.gen_range(0..=knobs.extra_delay_max)
        } else {
            0
        };
        NetIntensity {
            drop_p,
            duplicate_p,
            extra_delay,
            reorder_p: rng.next_f64() * knobs.reorder_p_max,
            reorder_window: knobs.reorder_window,
        }
    }

    fn link_faults(&self) -> LinkFaults {
        LinkFaults {
            drop_p: self.drop_p,
            duplicate_p: self.duplicate_p,
            extra_delay: (self.extra_delay > 0).then_some(DelayModel::Uniform {
                min: 1,
                max: self.extra_delay,
            }),
            reorder_p: self.reorder_p,
            reorder_window: self.reorder_window,
        }
    }

    /// Whether any network fault is active.
    pub fn has_net_faults(&self) -> bool {
        !self.link_faults().is_clean()
    }

    /// The adversary these intensities install on every link.
    pub fn fault_plan(&self) -> NetFaultPlan {
        NetFaultPlan::none().with_default(self.link_faults())
    }

    /// The shrinker's single step on intensity number `knob` (drop,
    /// duplication and reordering probabilities, extra delay, hold-back
    /// window, in that order): the intensity halved, or `None` once it is
    /// zero. The hold-back window only steps while something is held back.
    pub fn halved(&self, knob: usize) -> Option<NetIntensity> {
        let mut next = *self;
        match knob {
            0 => next.drop_p = halve_probability(self.drop_p),
            1 => next.duplicate_p = halve_probability(self.duplicate_p),
            2 => next.reorder_p = halve_probability(self.reorder_p),
            3 => next.extra_delay /= 2,
            _ if self.reorder_p > 0.0 => next.reorder_window /= 2,
            _ => {}
        }
        (next != *self).then_some(next)
    }
}

impl fmt::Display for NetIntensity {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            out,
            "net: drop={:.3} dup={:.3} extra_delay<={} reorder={:.3}/{}",
            self.drop_p, self.duplicate_p, self.extra_delay, self.reorder_p, self.reorder_window
        )
    }
}

/// Whether every operation by a live client is **guaranteed** to complete on
/// an `(n, f)` cluster: no probabilistic message loss (`drop_p > 0`; delays,
/// duplication and reordering all still deliver), no event-cap hit, and the
/// ranks ever `crashed` or ever isolated by one of `windows` total at most
/// `f`.
///
/// The guarantee is deliberately conservative — every exemption is an
/// execution where starvation can be legitimate. Clients do not retransmit,
/// so an op that fans out while more than `f` servers are (cumulatively)
/// dead or isolated may starve; and a server that sat out a window can be
/// permanently stale (it missed writes the way a crashed server would), so
/// window-isolated ranks count against the budget for the whole scenario,
/// heal or no heal. Within that budget every protocol's quorums (`n − f`, or
/// an ABD majority) stay reachable from invocation onward, so an incomplete
/// op is a protocol liveness bug, not an adversarial artifact.
pub fn liveness_guaranteed<'a>(
    n: usize,
    f: usize,
    net: &NetIntensity,
    hit_event_cap: bool,
    crashed: impl IntoIterator<Item = usize>,
    windows: impl IntoIterator<Item = &'a PartitionWindow>,
) -> bool {
    if hit_event_cap || net.drop_p > 0.0 {
        return false;
    }
    let mut budget: Vec<usize> = crashed.into_iter().collect();
    for window in windows.into_iter().filter_map(|w| w.on_cluster(n)) {
        budget.extend(window.ranks);
    }
    budget.sort_unstable();
    budget.dedup();
    budget.len() <= f
}

/// Parameters of one exploration campaign.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// The protocol under test.
    pub kind: ProtocolKind,
    /// Number of servers.
    pub n: usize,
    /// Tolerated server crashes.
    pub f: usize,
    /// Number of writer handles.
    pub writers: usize,
    /// Number of reader handles.
    pub readers: usize,
    /// Operations per scenario (reads and writes mixed).
    pub ops: usize,
    /// Invocation times are drawn from `[0, horizon]` ticks.
    pub horizon: u64,
    /// Size of every written value in bytes.
    pub value_size: usize,
    /// Up to this many servers crash per scenario (clamped to `f`). Bounds
    /// the servers *concurrently* dead, not total crashes: repaired ranks
    /// free their budget slot, and the generator may spend it on a further
    /// crash (see [`ExploreConfig::repair_p`]).
    pub max_server_crashes: usize,
    /// Probability that each crashed server is later **repaired** — replaced
    /// by a fresh, empty server that re-acquires its state from survivors.
    /// Each repair may be followed by a crash of a *different* rank, so
    /// scenarios exercise crash → repair → crash interleavings that exceed
    /// `f` crashes in total while staying within `f` at any instant.
    pub repair_p: f64,
    /// Probability that each individual client is crashed mid-scenario.
    pub client_crash_p: f64,
    /// Probability that the scenario gets scheduled **partition windows**:
    /// time-windowed cuts isolating 1..=`f` server ranks from every other
    /// process, healing at the window's end (see [`PartitionWindow`]).
    /// Default `0.0`; at `0.0` partition generation consumes **no** RNG
    /// draws, so existing seeds reproduce bit-identical scenarios.
    pub partition_p: f64,
    /// Maximum length of a sampled partition window in ticks. Kept below the
    /// repair retry budget (8 attempts spanning 2800 ticks) by default so a
    /// repair scheduled mid-window can settle after the heal.
    pub partition_len_max: u64,
    /// Network-fault intensity bounds.
    pub knobs: AdversaryKnobs,
    /// **Test-only.** Builds ABD clusters with this (possibly sub-majority)
    /// quorum size, deliberately breaking atomicity so the harness itself can
    /// be validated. See `ClusterBuilder::with_unsound_quorum`.
    pub quorum_override: Option<usize>,
}

impl ExploreConfig {
    /// A standard campaign against a `kind` cluster of `(n, f)`: 2 writers,
    /// 2 readers, 8 operations over 250 ticks, 48-byte values, up to `f`
    /// server crashes, occasional client crashes, the standard adversary,
    /// and in-budget corruption for SODAerr.
    pub fn new(kind: ProtocolKind, n: usize, f: usize) -> Self {
        ExploreConfig {
            kind,
            n,
            f,
            writers: 2,
            readers: 2,
            ops: 8,
            horizon: 250,
            value_size: 48,
            max_server_crashes: f,
            repair_p: 0.5,
            client_crash_p: 0.2,
            partition_p: 0.0,
            partition_len_max: 1600,
            knobs: AdversaryKnobs::standard(),
            quorum_override: None,
        }
    }

    /// Enables partition-window sampling with probability `partition_p` per
    /// scenario (windows up to `partition_len_max` ticks long).
    pub fn with_partitions(mut self, partition_p: f64, partition_len_max: u64) -> Self {
        self.partition_p = partition_p;
        self.partition_len_max = partition_len_max;
        self
    }
}

/// One planned client operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlannedOp {
    /// Invocation time in ticks.
    pub at: u64,
    /// Handle index of the respective kind (writer handle for writes,
    /// reader handle for reads). Generated scenarios keep it in range;
    /// `run_scenario` reduces it modulo the handle count as a defense for
    /// hand-built scenarios, and `Display` prints it verbatim.
    pub client: usize,
    /// Write (`true`) or read (`false`).
    pub is_write: bool,
    /// Fill byte identifying the written value (distinct per planned write,
    /// so stale reads are distinguishable).
    pub fill: u8,
}

/// A fully concrete, seed-derived scenario: operations, crash schedule and
/// network-fault intensities. `Display` renders it as a reproduction recipe.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// The seed this scenario was generated from (also the simulation seed).
    pub seed: u64,
    /// Planned operations.
    pub ops: Vec<PlannedOp>,
    /// `(rank, at)` server crashes. May exceed `f` entries in total when
    /// repairs interleave; `run_scenario` applies them **dynamically**,
    /// skipping any crash that would push the *currently*-dead-or-repairing
    /// count past `f`.
    pub server_crashes: Vec<(usize, u64)>,
    /// `(rank, at)` server repairs: at `at`, a fresh replacement takes over
    /// the rank and re-acquires its state from survivors. Repairs of ranks
    /// that are not down at `at` are skipped.
    pub server_repairs: Vec<(usize, u64)>,
    /// `(writer handle, at)` client crashes.
    pub writer_crashes: Vec<(usize, u64)>,
    /// `(reader handle, at)` client crashes.
    pub reader_crashes: Vec<(usize, u64)>,
    /// Network-fault intensities for this scenario.
    pub net: NetIntensity,
    /// Byzantine server ranks (SODA family only; within the error budget
    /// when generated, beyond it only if a caller builds such a scenario by
    /// hand).
    pub byzantine: Vec<usize>,
    /// Scheduled partition windows (empty unless
    /// [`ExploreConfig::partition_p`] is positive or a caller adds them by
    /// hand).
    pub partitions: Vec<PartitionWindow>,
}

impl Scenario {
    /// Lengths of the scenario's removable event lists — ops, server
    /// crashes, server repairs, writer crashes, reader crashes, byzantine
    /// ranks, partition windows — in the order the shrinker visits them.
    pub fn event_lists(&self) -> [usize; 7] {
        [
            self.ops.len(),
            self.server_crashes.len(),
            self.server_repairs.len(),
            self.writer_crashes.len(),
            self.reader_crashes.len(),
            self.byzantine.len(),
            self.partitions.len(),
        ]
    }

    /// Removes event `index` of list `list` (as numbered by
    /// [`Scenario::event_lists`]).
    pub fn remove_event(&mut self, list: usize, index: usize) {
        match list {
            0 => drop(self.ops.remove(index)),
            1 => drop(self.server_crashes.remove(index)),
            2 => drop(self.server_repairs.remove(index)),
            3 => drop(self.writer_crashes.remove(index)),
            4 => drop(self.reader_crashes.remove(index)),
            5 => drop(self.byzantine.remove(index)),
            _ => drop(self.partitions.remove(index)),
        }
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(out, "scenario seed={}", self.seed)?;
        for op in &self.ops {
            if op.is_write {
                writeln!(
                    out,
                    "  t={:>4} writer[{}] <- write(fill=0x{:02x})",
                    op.at, op.client, op.fill
                )?;
            } else {
                writeln!(out, "  t={:>4} reader[{}] <- read", op.at, op.client)?;
            }
        }
        for &(rank, at) in &self.server_crashes {
            writeln!(out, "  t={at:>4} crash server {rank}")?;
        }
        for &(rank, at) in &self.server_repairs {
            writeln!(out, "  t={at:>4} repair server {rank}")?;
        }
        for &(w, at) in &self.writer_crashes {
            writeln!(out, "  t={at:>4} crash writer[{w}]")?;
        }
        for &(r, at) in &self.reader_crashes {
            writeln!(out, "  t={at:>4} crash reader[{r}]")?;
        }
        if self.net.has_net_faults() {
            writeln!(out, "  {}", self.net)?;
        }
        if !self.byzantine.is_empty() {
            writeln!(out, "  byzantine servers: {:?}", self.byzantine)?;
        }
        for w in &self.partitions {
            writeln!(
                out,
                "  t=[{:>4},{:>4}) partition servers {:?} from everyone",
                w.start, w.end, w.ranks
            )?;
        }
        Ok(())
    }
}

/// Deterministically derives the scenario for `(config, seed)`.
pub fn generate_scenario(cfg: &ExploreConfig, seed: u64) -> Scenario {
    let mut rng = SimRng::new(seed ^ 0x50DA_5EED);
    let mut ops = Vec::with_capacity(cfg.ops);
    for i in 0..cfg.ops {
        let write_roll = rng.next_f64();
        // Degenerate campaigns (0 writers or 0 readers) only get the op
        // kind they can execute.
        let is_write = if cfg.writers == 0 {
            false
        } else if cfg.readers == 0 {
            true
        } else {
            write_roll < 0.45
        };
        let handles = if is_write { cfg.writers } else { cfg.readers };
        ops.push(PlannedOp {
            at: rng.gen_range(0..=cfg.horizon),
            client: rng.gen_range(0..handles.max(1)),
            is_write,
            fill: (i as u8).wrapping_mul(13).wrapping_add(1),
        });
    }
    let crash_budget = cfg.max_server_crashes.min(cfg.f);
    let crash_count = if crash_budget > 0 {
        rng.gen_range(0..=crash_budget)
    } else {
        0
    };
    let mut ranks: Vec<usize> = (0..cfg.n).collect();
    let mut server_crashes = Vec::new();
    for _ in 0..crash_count {
        let pick = rng.gen_range(0..ranks.len());
        server_crashes.push((ranks.swap_remove(pick), rng.gen_range(0..=cfg.horizon * 2)));
    }
    let mut writer_crashes = Vec::new();
    for w in 0..cfg.writers {
        if rng.next_f64() < cfg.client_crash_p {
            writer_crashes.push((w, rng.gen_range(0..=cfg.horizon * 2)));
        }
    }
    let mut reader_crashes = Vec::new();
    for r in 0..cfg.readers {
        if rng.next_f64() < cfg.client_crash_p {
            reader_crashes.push((r, rng.gen_range(0..=cfg.horizon * 2)));
        }
    }
    let byzantine = match cfg.kind {
        ProtocolKind::SodaErr { e } if e > 0 => {
            // Up to `e` distinct ranks: always within the budget the decoder
            // is provisioned for.
            let count = rng.gen_range(0..=e);
            sample_ranks(&mut rng, cfg.n, count)
        }
        _ => Vec::new(),
    };
    let net = NetIntensity::sample(&mut rng, &cfg.knobs);
    // Crash → repair → crash interleavings (drawn last so the draw order of
    // everything above is unchanged across seeds): each crashed rank may be
    // repaired, and a completed repair frees a budget slot the adversary may
    // immediately spend on a *different* rank.
    let mut server_repairs = Vec::new();
    let mut follow_up_crashes = Vec::new();
    for &(rank, at) in &server_crashes {
        if rng.next_f64() < cfg.repair_p {
            let repair_at = at + 1 + rng.gen_range(0..=cfg.horizon);
            server_repairs.push((rank, repair_at));
            if !ranks.is_empty() && rng.next_f64() < 0.5 {
                let pick = rng.gen_range(0..ranks.len());
                follow_up_crashes.push((
                    ranks.swap_remove(pick),
                    repair_at + 1 + rng.gen_range(0..=cfg.horizon),
                ));
            }
        }
    }
    server_crashes.extend(follow_up_crashes);
    // Partition windows are drawn last of all, and the whole block is gated
    // on `partition_p > 0.0` *before* touching the RNG: campaigns without
    // partitions consume zero extra draws, so their seeds keep reproducing
    // bit-identical scenarios.
    let mut partitions = Vec::new();
    if cfg.partition_p > 0.0 && cfg.f > 0 && rng.next_f64() < cfg.partition_p {
        let windows = 1 + usize::from(rng.next_f64() < 0.3);
        for _ in 0..windows {
            let (start_max, len_max) = (cfg.horizon, cfg.partition_len_max);
            partitions.push(sample_window(&mut rng, cfg.n, cfg.f, start_max, len_max));
        }
    }
    Scenario {
        seed,
        ops,
        server_crashes,
        server_repairs,
        writer_crashes,
        reader_crashes,
        net,
        byzantine,
        partitions,
    }
}

/// A **liveness** violation: an operation that was *guaranteed* to complete
/// by quiescence — invoked by a client that never crashed, in a scenario that
/// passes [`liveness_guaranteed`] — yet never completed (including ops
/// invoked only after the final heal).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LivenessViolation {
    /// `true` for a writer handle, `false` for a reader handle.
    pub is_writer: bool,
    /// The starved client handle (writer or reader index per `is_writer`).
    pub handle: usize,
    /// Planned invocation tick of the first starved op on the handle.
    pub invoked_at: u64,
    /// Whether the starved op is a write.
    pub is_write: bool,
    /// Ops that did complete on this handle before the starved one (clients
    /// execute their queue FIFO).
    pub completed_before: usize,
    /// Total ops planned on this handle.
    pub planned: usize,
}

impl fmt::Display for LivenessViolation {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            out,
            "liveness: {}[{}] {} invoked at t={} never completed although a quorum stayed \
             reachable ({}/{} earlier ops on the handle completed)",
            if self.is_writer { "writer" } else { "reader" },
            self.handle,
            if self.is_write { "write" } else { "read" },
            self.invoked_at,
            self.completed_before,
            self.planned,
        )
    }
}

/// Decides whether a scenario's outcome contains a [`LivenessViolation`],
/// given the operations completed on each writer handle (`per_writer`) and
/// each reader handle (`per_reader`).
///
/// Everything is exempt unless the scenario passes [`liveness_guaranteed`];
/// beyond that, a crashed client's own handle is exempt, and reader handles
/// are exempt entirely when any *writer* crashed (a read can commit to a
/// half-propagated tag whose remaining elements will never arrive).
///
/// For every non-exempt handle the client executes its planned queue FIFO,
/// so the first `completed` ops of the queue (in invocation-time order) are
/// the completed ones; the first op past that count is the starved witness.
fn liveness_violation(
    cfg: &ExploreConfig,
    scenario: &Scenario,
    per_writer: &[usize],
    per_reader: &[usize],
    hit_event_cap: bool,
) -> Option<LivenessViolation> {
    let crashed = scenario.server_crashes.iter().map(|&(rank, _)| rank);
    let windows = &scenario.partitions;
    if !liveness_guaranteed(cfg.n, cfg.f, &scenario.net, hit_event_cap, crashed, windows) {
        return None;
    }
    let any_writer_crashed = !scenario.writer_crashes.is_empty();
    for (is_writer, per_handle, crashes) in [
        (true, per_writer, &scenario.writer_crashes),
        (false, per_reader, &scenario.reader_crashes),
    ] {
        for (handle, &done) in per_handle.iter().enumerate() {
            if crashes.iter().any(|&(h, _)| h == handle) || (!is_writer && any_writer_crashed) {
                continue;
            }
            // The handle's queue in delivery order: invocation messages
            // arrive at their planned tick, ties in plan order.
            let mut queue: Vec<&PlannedOp> = scenario
                .ops
                .iter()
                .filter(|op| op.is_write == is_writer && op.client % per_handle.len() == handle)
                .collect();
            queue.sort_by_key(|op| op.at);
            if done < queue.len() {
                let starved = queue[done];
                return Some(LivenessViolation {
                    is_writer,
                    handle,
                    invoked_at: starved.at,
                    is_write: starved.is_write,
                    completed_before: done,
                    planned: queue.len(),
                });
            }
        }
    }
    None
}

/// The outcome of running one scenario to quiescence.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The atomicity violation, if the history failed the checker.
    pub violation: Option<Violation>,
    /// The liveness violation, if a guaranteed operation starved (see
    /// [`liveness_guaranteed`]).
    pub liveness: Option<LivenessViolation>,
    /// Operations that completed.
    pub completed_ops: usize,
    /// Writes left pending at quiescence (starved, or their writer crashed).
    pub pending: usize,
    /// Whether a simulation hit its event cap (indicates a protocol bug such
    /// as an infinite relay loop; never expected).
    pub hit_event_cap: bool,
    /// The checked history (completed ops closed under pending writes).
    pub history: History,
}

/// Builds the cluster for `(config, scenario)` and runs the scenario to
/// quiescence, returning the checked outcome. Windows are applied the way
/// the cluster sees them: ranks it does not have are dropped, and windows
/// that cut nothing are skipped.
///
/// # Panics
/// Panics if the configuration is invalid for the protocol kind (see
/// `ClusterBuilder::validate`); campaign entry points validate up front.
pub fn run_scenario(cfg: &ExploreConfig, scenario: &Scenario) -> Outcome {
    let mut builder = ClusterBuilder::new(cfg.kind, cfg.n, cfg.f)
        .with_seed(scenario.seed)
        .with_clients(cfg.writers, cfg.readers)
        .with_network(NetworkConfig::uniform(10))
        .with_net_faults(scenario.net.fault_plan());
    for window in scenario
        .partitions
        .iter()
        .filter_map(|w| w.on_cluster(cfg.n))
    {
        builder = builder.with_partition_window(&window);
    }
    if !scenario.byzantine.is_empty() {
        builder = builder.with_byzantine_servers(scenario.byzantine.clone());
    }
    if let Some(q) = cfg.quorum_override {
        builder = builder.with_unsound_quorum(q);
    }
    let mut cluster = builder
        .build()
        .unwrap_or_else(|e| panic!("invalid exploration config: {e}"));
    for op in &scenario.ops {
        let at = SimTime::from_ticks(op.at);
        if op.is_write {
            // Hand-built scenarios may plan ops the campaign has no handles
            // for; skip those instead of indexing an empty client list.
            if cfg.writers == 0 {
                continue;
            }
            cluster.invoke_write_at(
                at,
                op.client % cfg.writers,
                value_of(cfg.value_size, op.fill),
            );
        } else {
            if cfg.readers == 0 {
                continue;
            }
            cluster.invoke_read_at(at, op.client % cfg.readers);
        }
    }
    for &(w, at) in &scenario.writer_crashes {
        cluster.crash_writer_at(SimTime::from_ticks(at), w);
    }
    for &(r, at) in &scenario.reader_crashes {
        cluster.crash_reader_at(SimTime::from_ticks(at), r);
    }
    // Server crashes and repairs are applied *dynamically*, in time order:
    // the crash budget is the number of currently-dead-or-repairing servers
    // (at most `f`), not a static count, so a crash drawn while the budget is
    // full — e.g. before an interleaved repair completes — is skipped rather
    // than wedging the cluster beyond its declared tolerance.
    const CRASH: u8 = 0;
    const REPAIR: u8 = 1;
    let mut fault_events: Vec<(u64, u8, usize)> = scenario
        .server_crashes
        .iter()
        .map(|&(rank, at)| (at, CRASH, rank))
        .chain(
            scenario
                .server_repairs
                .iter()
                .map(|&(rank, at)| (at, REPAIR, rank)),
        )
        .collect();
    fault_events.sort_unstable();
    let mut down: Vec<usize> = Vec::new();
    for (at, kind, rank) in fault_events {
        cluster.run_until(SimTime::from_ticks(at));
        match kind {
            CRASH => {
                if rank < cfg.n && !down.contains(&rank) && cluster.dead_or_repairing() < cfg.f {
                    cluster.crash_server_at(SimTime::from_ticks(at), rank);
                    // Drain the just-scheduled event so dead_or_repairing()
                    // stays authoritative for later same-tick decisions
                    // (run_until is deadline-inclusive).
                    cluster.run_until(SimTime::from_ticks(at));
                    down.push(rank);
                }
            }
            _ => {
                // Repairing a rank that is not down would replace a healthy
                // server with an empty one; only down ranks are repaired.
                if let Some(pos) = down.iter().position(|&r| r == rank) {
                    down.swap_remove(pos);
                    cluster.repair_server_at(SimTime::from_ticks(at), rank);
                    cluster.run_until(SimTime::from_ticks(at));
                }
            }
        }
    }
    let outcome = cluster.run_to_quiescence();
    let history = cluster.closed_history(&[]);
    let completed = cluster.completed_ops();
    let done = |process: ProcessId| {
        let client = u64::from(process.0);
        completed.iter().filter(|op| op.client == client).count()
    };
    let per_writer: Vec<usize> = (0..cfg.writers)
        .map(|h| done(cluster.writer_process(h)))
        .collect();
    let per_reader: Vec<usize> = (0..cfg.readers)
        .map(|h| done(cluster.reader_process(h)))
        .collect();
    let hit_event_cap = outcome.hit_event_cap;
    let liveness = liveness_violation(cfg, scenario, &per_writer, &per_reader, hit_event_cap);
    Outcome {
        violation: history.check_atomicity().err(),
        liveness,
        completed_ops: completed.len(),
        pending: cluster.pending_writes().len(),
        hit_event_cap,
        history,
    }
}

/// A minimized, seed-reproducible violation — of atomicity or of liveness,
/// per `V`. Replay it with [`generate_scenario`] + [`run_scenario`].
#[derive(Clone, Debug, PartialEq)]
pub struct Counterexample<V> {
    /// The seed that produced the violation.
    pub seed: u64,
    /// The protocol under test.
    pub target: &'static str,
    /// The violation reported for the *minimized* scenario.
    pub violation: V,
    /// The scenario as originally generated.
    pub original: Scenario,
    /// The greedily minimized scenario (still violating).
    pub minimized: Scenario,
}

impl<V: fmt::Display> fmt::Display for Counterexample<V> {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        let events = |s: &Scenario| s.event_lists().iter().sum::<usize>();
        let (target, seed, violation) = (self.target, self.seed, &self.violation);
        let (kept, generated) = (events(&self.minimized), events(&self.original));
        writeln!(out, "{target}: counterexample at seed {seed}: {violation}")?;
        writeln!(out, "minimized repro ({kept} of {generated} events):")?;
        write!(out, "{}", self.minimized)
    }
}

/// Keeps the best scenario found so far and the violation it reproduces.
struct Shrinker<V, F> {
    current: Scenario,
    violation: V,
    violates: F,
    changed: bool,
}

impl<V, F: Fn(&Scenario) -> Option<V>> Shrinker<V, F> {
    /// Applies `edit` to a copy and keeps it iff *some* violation persists
    /// (the goal is a minimal repro, not the same repro).
    fn keep(&mut self, edit: impl FnOnce(&mut Scenario)) -> bool {
        let mut candidate = self.current.clone();
        edit(&mut candidate);
        let Some(violation) = (self.violates)(&candidate) else {
            return false;
        };
        self.current = candidate;
        self.violation = violation;
        self.changed = true;
        true
    }
}

/// Greedily shrinks a violating scenario: repeatedly drops single events
/// (every list of [`Scenario::event_lists`], back to front so indices stay
/// valid), tries switching the network faults off entirely, bisects each
/// fault *intensity* down by repeated halving ([`NetIntensity::halved`]), and
/// bisects each surviving partition window's length and start — so a
/// counterexample that genuinely needs, say, message drops is reported with
/// (roughly) the smallest drop probability and the shortest, latest outage
/// that still reproduce it, and whatever the violation never needed comes
/// back removed or zero. A change is kept iff `violates` still reports a
/// violation. Deterministic, and terminates because every kept step removes
/// something or strictly decreases a quantity that bottoms out.
///
/// # Panics
/// Panics if `scenario` does not violate to begin with.
fn shrink_with<V>(scenario: &Scenario, violates: impl Fn(&Scenario) -> Option<V>) -> (Scenario, V) {
    let mut best = Shrinker {
        violation: violates(scenario).expect("shrinking requires a violating scenario"),
        current: scenario.clone(),
        violates,
        changed: true,
    };
    while std::mem::take(&mut best.changed) {
        for list in 0..best.current.event_lists().len() {
            for index in (0..best.current.event_lists()[list]).rev() {
                best.keep(|s| s.remove_event(list, index));
            }
        }
        let mut off = best.current.net;
        (off.drop_p, off.duplicate_p, off.extra_delay, off.reorder_p) = (0.0, 0.0, 0, 0.0);
        if best.current.net.has_net_faults() {
            best.keep(|s| s.net = off);
        }
        // All-off failed (or was unnecessary): halve the surviving
        // intensities one by one, each until the violation is lost.
        for knob in 0..NetIntensity::KNOBS {
            while let Some(net) = best.current.net.halved(knob) {
                if !best.keep(|s| s.net = net) {
                    break;
                }
            }
        }
        // Surviving windows: halve the length (healing earlier), then
        // advance the start toward the end. Both keep the length ≥ 1.
        for index in 0..best.current.partitions.len() {
            for advance_start in [false, true] {
                loop {
                    let window = &best.current.partitions[index];
                    let (start, len) = (window.start, window.len());
                    let kept = len > 1
                        && best.keep(|s| {
                            let window = &mut s.partitions[index];
                            if advance_start {
                                window.start = start + len.div_ceil(2);
                            } else {
                                window.end = start + len / 2;
                            }
                        });
                    if !kept {
                        break;
                    }
                }
            }
        }
    }
    (best.current, best.violation)
}

/// Greedily shrinks `scenario` against the **atomicity** checker.
///
/// # Panics
/// Panics if `scenario` does not violate atomicity under `cfg`.
pub fn shrink(cfg: &ExploreConfig, scenario: &Scenario) -> (Scenario, Violation) {
    shrink_with(scenario, |candidate| run_scenario(cfg, candidate).violation)
}

/// Greedily shrinks `scenario` against the **liveness** checker.
///
/// # Panics
/// Panics if `scenario` starves no guaranteed operation under `cfg`.
pub fn shrink_liveness(cfg: &ExploreConfig, scenario: &Scenario) -> (Scenario, LivenessViolation) {
    shrink_with(scenario, |candidate| run_scenario(cfg, candidate).liveness)
}

/// Aggregate result of an [`explore`] campaign.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    /// Scenarios run.
    pub schedules: usize,
    /// Total operations completed across all scenarios.
    pub completed_ops: usize,
    /// Total [`Outcome::pending`] across all scenarios.
    pub pending: usize,
    /// Scenarios that hit the event cap (always 0 for healthy protocols).
    pub event_cap_hits: usize,
    /// Atomicity violations found, each minimized to a reproducer.
    pub counterexamples: Vec<Counterexample<Violation>>,
    /// Liveness violations found (guaranteed ops that starved), each
    /// minimized to a reproducer.
    pub liveness_counterexamples: Vec<Counterexample<LivenessViolation>>,
}

impl Report {
    /// Whether every schedule passed the atomicity checker.
    pub fn all_atomic(&self) -> bool {
        self.counterexamples.is_empty()
    }

    /// Whether every schedule passed the liveness checker.
    pub fn all_live(&self) -> bool {
        self.liveness_counterexamples.is_empty()
    }

    /// The campaign's verdict: every schedule atomic and live, none hit the
    /// event cap, and at least one operation completed (or the adversary
    /// starved everything and the campaign checked nothing). The error
    /// renders the first counterexample.
    pub fn check(&self) -> Result<(), String> {
        let (atomicity, liveness) = (&self.counterexamples, &self.liveness_counterexamples);
        match (atomicity.first(), liveness.first()) {
            (Some(first), _) => Err(format!(
                "not atomic, first of {}:\n{first}",
                atomicity.len()
            )),
            (_, Some(first)) => Err(format!("not live, first of {}:\n{first}", liveness.len())),
            _ if self.event_cap_hits > 0 => Err(format!(
                "{} schedule(s) hit the event cap",
                self.event_cap_hits
            )),
            _ if self.completed_ops == 0 => {
                Err("the adversary starved every operation: the campaign is vacuous".into())
            }
            _ => Ok(()),
        }
    }
}

/// Shrinks `original` with `shrink` and records the result.
fn minimized<V>(
    cfg: &ExploreConfig,
    seed: u64,
    original: &Scenario,
    shrink: impl Fn(&ExploreConfig, &Scenario) -> (Scenario, V),
) -> Counterexample<V> {
    let (minimized, violation) = shrink(cfg, original);
    Counterexample {
        seed,
        target: cfg.kind.name(),
        violation,
        original: original.clone(),
        minimized,
    }
}

/// Runs `schedules` seeded scenarios (`seed_start`, `seed_start + 1`, …)
/// against a register cluster and returns the aggregate report. Every
/// violation is shrunk to a minimal reproducer before being recorded.
///
/// # Panics
/// Panics if the configuration is invalid for the protocol kind.
pub fn explore(cfg: &ExploreConfig, seed_start: u64, schedules: usize) -> Report {
    let mut report = Report::default();
    for seed in seed_start..seed_start + schedules as u64 {
        let scenario = generate_scenario(cfg, seed);
        let outcome = run_scenario(cfg, &scenario);
        report.schedules += 1;
        report.completed_ops += outcome.completed_ops;
        report.pending += outcome.pending;
        report.event_cap_hits += usize::from(outcome.hit_event_cap);
        if outcome.violation.is_some() {
            let found = minimized(cfg, seed, &scenario, shrink);
            report.counterexamples.push(found);
        }
        if outcome.liveness.is_some() {
            let found = minimized(cfg, seed, &scenario, shrink_liveness);
            report.liveness_counterexamples.push(found);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probability_halving_reaches_zero_in_finitely_many_steps() {
        for start in [1.0, 0.15, 0.2, 0.3, 1e-2, 9.99e-4] {
            let mut p = start;
            let mut steps = 0;
            while p > 0.0 {
                let next = halve_probability(p);
                assert!(next < p, "halving must strictly decrease ({p} -> {next})");
                p = next;
                steps += 1;
                assert!(steps < 64, "descent from {start} must terminate");
            }
        }
        assert_eq!(halve_probability(0.0), 0.0);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = ExploreConfig::new(ProtocolKind::Soda, 5, 2);
        let a = generate_scenario(&cfg, 42);
        let b = generate_scenario(&cfg, 42);
        assert_eq!(a, b);
        let c = generate_scenario(&cfg, 43);
        assert_ne!(a, c, "different seeds should differ");
        assert_eq!(a.ops.len(), cfg.ops);
        // Total crashes may exceed `f` only by way of interleaved repairs;
        // the *concurrent* budget is enforced dynamically by `run_scenario`.
        assert!(a.server_crashes.len() <= cfg.f + a.server_repairs.len());
        assert!(a.net.drop_p <= cfg.knobs.drop_p_max);
    }

    #[test]
    fn repair_events_are_generated_and_stay_causal() {
        let cfg = ExploreConfig {
            repair_p: 1.0,
            ..ExploreConfig::new(ProtocolKind::Soda, 5, 2)
        };
        let mut saw_repair = false;
        let mut saw_follow_up = false;
        for seed in 0..64 {
            let s = generate_scenario(&cfg, seed);
            // Every crash gets a repair at repair_p = 1, and each repair
            // strictly follows its crash.
            for (i, &(rank, crash_at)) in s.server_crashes.iter().enumerate() {
                if let Some(&(_, repair_at)) = s.server_repairs.iter().find(|&&(r, _)| r == rank) {
                    saw_repair = true;
                    if i < s.server_repairs.len() {
                        assert!(repair_at > crash_at, "seed {seed}: repair before crash");
                    }
                }
            }
            saw_follow_up |=
                s.server_crashes.len() > s.server_repairs.len() && !s.server_repairs.is_empty();
            // Follow-up crashes target ranks distinct from every other crash.
            let mut ranks: Vec<usize> = s.server_crashes.iter().map(|&(r, _)| r).collect();
            ranks.sort_unstable();
            ranks.dedup();
            assert_eq!(ranks.len(), s.server_crashes.len(), "seed {seed}");
        }
        assert!(saw_repair, "repair_p = 1 must generate repairs");
        assert!(saw_follow_up, "crash→repair→crash chains must occur");
    }

    #[test]
    fn zero_repair_probability_generates_none() {
        let cfg = ExploreConfig {
            repair_p: 0.0,
            ..ExploreConfig::new(ProtocolKind::Soda, 5, 2)
        };
        for seed in 0..16 {
            assert!(generate_scenario(&cfg, seed).server_repairs.is_empty());
        }
    }

    #[test]
    fn crash_repair_crash_schedules_run_and_stay_within_budget() {
        // A hand-built chain that would exceed f = 2 statically (three
        // crashes) but never concurrently: rank 0 is repaired before rank 2
        // goes down.
        let cfg = ExploreConfig {
            knobs: AdversaryKnobs::off(),
            client_crash_p: 0.0,
            ..ExploreConfig::new(ProtocolKind::Soda, 5, 2)
        };
        let mut scenario = generate_scenario(&cfg, 8);
        scenario.server_crashes = vec![(0, 20), (1, 30), (2, 700)];
        scenario.server_repairs = vec![(0, 400)];
        let outcome = run_scenario(&cfg, &scenario);
        assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
        assert!(!outcome.hit_event_cap);
        assert!(outcome.completed_ops > 0);
    }

    #[test]
    fn sodaerr_corruption_stays_within_the_error_budget() {
        let cfg = ExploreConfig::new(ProtocolKind::SodaErr { e: 2 }, 9, 2);
        for seed in 0..40 {
            let s = generate_scenario(&cfg, seed);
            assert!(s.byzantine.len() <= 2, "seed {seed}: {:?}", s.byzantine);
            let mut unique = s.byzantine.clone();
            unique.sort_unstable();
            unique.dedup();
            assert_eq!(unique.len(), s.byzantine.len(), "ranks must be distinct");
        }
    }

    #[test]
    fn scenarios_render_as_reproduction_recipes() {
        let cfg = ExploreConfig::new(ProtocolKind::Soda, 5, 2);
        let rendered = generate_scenario(&cfg, 3).to_string();
        assert!(rendered.contains("scenario seed=3"), "{rendered}");
        assert!(
            rendered.contains("write") || rendered.contains("read"),
            "{rendered}"
        );
    }

    #[test]
    fn degenerate_campaigns_only_plan_executable_ops() {
        // 0 readers → writes only; 0 writers → reads only; both run without
        // panicking and the planned handles stay in range.
        let write_only = ExploreConfig {
            readers: 0,
            ..ExploreConfig::new(ProtocolKind::Soda, 5, 2)
        };
        let s = generate_scenario(&write_only, 5);
        assert!(s.ops.iter().all(|op| op.is_write && op.client < 2));
        assert!(run_scenario(&write_only, &s).violation.is_none());

        let read_only = ExploreConfig {
            writers: 0,
            ..ExploreConfig::new(ProtocolKind::Soda, 5, 2)
        };
        let s = generate_scenario(&read_only, 5);
        assert!(s.ops.iter().all(|op| !op.is_write && op.client < 2));
        assert!(run_scenario(&read_only, &s).violation.is_none());
    }

    #[test]
    fn partition_draws_are_appended_and_gated() {
        // With partition_p = 0 the generator takes zero partition draws, so
        // scenarios are identical (minus the empty window list) to those of
        // a partition-enabled config — the draws are appended strictly after
        // everything else.
        let base = ExploreConfig::new(ProtocolKind::Soda, 5, 2);
        let with = base.clone().with_partitions(1.0, 800);
        for seed in 0..32 {
            let a = generate_scenario(&base, seed);
            let b = generate_scenario(&with, seed);
            assert!(a.partitions.is_empty());
            assert!(!b.partitions.is_empty(), "partition_p = 1 must sample");
            let stripped = Scenario {
                partitions: Vec::new(),
                ..b.clone()
            };
            assert_eq!(a, stripped, "seed {seed}: non-partition draws differ");
            for w in &b.partitions {
                assert!(!w.is_empty());
                assert!(!w.ranks.is_empty() && w.ranks.len() <= 2);
                assert!(w.ranks.iter().all(|&r| r < 5));
                assert!(w.len() <= 800);
            }
        }
    }

    #[test]
    fn partitioned_clean_scenarios_stay_atomic_and_live() {
        // No probabilistic faults, no crashes: the only adversity is the
        // partition windows, which isolate at most f ranks — every op is
        // guaranteed, and the checker must agree.
        for kind in [ProtocolKind::Soda, ProtocolKind::Abd] {
            let cfg = ExploreConfig {
                knobs: AdversaryKnobs::off(),
                client_crash_p: 0.0,
                max_server_crashes: 0,
                ..ExploreConfig::new(kind, 5, 2).with_partitions(1.0, 600)
            };
            assert_eq!(explore(&cfg, 0, 12).check(), Ok(()));
        }
    }

    #[test]
    fn unsound_quorum_starvation_is_a_shrunk_replayable_liveness_violation() {
        // ABD waiting for all n = 5 responses with one server crashed: every
        // op starves, while the guarantee predicate (1 crash ≤ f, no loss,
        // clients alive) says they must complete. The checker must flag it,
        // the shrinker must minimize it, and the seed must replay it.
        let cfg = ExploreConfig {
            knobs: AdversaryKnobs::off(),
            client_crash_p: 0.0,
            repair_p: 0.0,
            quorum_override: Some(5),
            ..ExploreConfig::new(ProtocolKind::Abd, 5, 2)
        };
        let mut found = None;
        for seed in 0..32 {
            let scenario = generate_scenario(&cfg, seed);
            if scenario.server_crashes.is_empty() {
                continue;
            }
            let outcome = run_scenario(&cfg, &scenario);
            if outcome.liveness.is_some() {
                found = Some((seed, scenario));
                break;
            }
        }
        let (seed, scenario) = found.expect("a crashy seed must starve the unsound quorum");
        let (minimized, violation) = shrink_liveness(&cfg, &scenario);
        assert!(minimized.ops.len() <= scenario.ops.len());
        assert_eq!(
            minimized.server_crashes.len(),
            1,
            "one crash suffices: {minimized}"
        );
        assert!(violation.completed_before <= violation.planned);
        // Replay from the seed alone.
        let replayed = run_scenario(&cfg, &generate_scenario(&cfg, seed));
        assert!(replayed.liveness.is_some(), "seed {seed} must reproduce");
        // And the campaign surfaces it as a first-class counterexample.
        let report = explore(&cfg, seed, 1);
        assert!(!report.all_live());
        let cx = &report.liveness_counterexamples[0];
        assert_eq!(cx.seed, seed);
        assert!(cx.to_string().contains("liveness"), "{cx}");
    }

    #[test]
    fn liveness_checker_exempts_lossy_and_overbudget_scenarios() {
        let cfg = ExploreConfig::new(ProtocolKind::Abd, 5, 2);
        let mut scenario = generate_scenario(&cfg, 3);
        // Lossy: exempt regardless of what completed.
        scenario.net.drop_p = 0.1;
        let nothing = [0; 2];
        assert!(liveness_violation(&cfg, &scenario, &nothing, &nothing, false).is_none());
        // Over budget: crashes ∪ isolated ranks > f.
        scenario.net.drop_p = 0.0;
        scenario.server_crashes = vec![(0, 10)];
        scenario.partitions = vec![PartitionWindow {
            ranks: vec![1, 2],
            start: 0,
            end: 50,
        }];
        scenario.writer_crashes.clear();
        scenario.reader_crashes.clear();
        assert!(liveness_violation(&cfg, &scenario, &nothing, &nothing, false).is_none());
        // Event cap: exempt.
        scenario.partitions.clear();
        assert!(liveness_violation(&cfg, &scenario, &nothing, &nothing, true).is_none());
        // Within budget, nothing completed, clients alive: flagged.
        let flagged = liveness_violation(&cfg, &scenario, &nothing, &nothing, false);
        assert!(flagged.is_some());
    }

    #[test]
    fn clean_soda_schedule_is_atomic() {
        let cfg = ExploreConfig {
            knobs: AdversaryKnobs::off(),
            max_server_crashes: 0,
            client_crash_p: 0.0,
            ..ExploreConfig::new(ProtocolKind::Soda, 5, 2)
        };
        let outcome = run_scenario(&cfg, &generate_scenario(&cfg, 1));
        assert!(outcome.violation.is_none());
        assert!(!outcome.hit_event_cap);
        assert_eq!(outcome.completed_ops, cfg.ops, "all ops finish cleanly");
    }
}
