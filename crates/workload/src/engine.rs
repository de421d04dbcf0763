//! The exploration engine: one campaign loop, one greedy shrinker and one
//! counterexample type for everything a seeded adversarial scenario can
//! drive.
//!
//! The paper's safety and liveness claims are universally quantified over
//! asynchronous, adversarial executions — *every* schedule of message delays,
//! losses, reorderings, duplications, partitions, crashes, repairs and (for
//! SODAerr) in-budget element corruption must yield an atomic history in
//! which every guaranteed operation completes. The engine samples that
//! quantifier for any [`Target`]: it derives a [`Scenario`] from each seed,
//! runs it to quiescence, and on a violation **shrinks** the scenario —
//! events, fault intensities and partition windows are greedily removed
//! while the violation persists — into a minimal [`Counterexample`].
//!
//! One target exists: a register cluster ([`crate::explore`]). It brings its
//! config, generator, runner and liveness witness; everything else — the
//! [`campaign`] loop, [`shrink_with`], the [`Report`] and its verdict, the
//! sampled [`NetIntensity`], the [`liveness_guaranteed`] predicate — is
//! written here, for any target. Everything a target derives comes
//! deterministically from `(config, seed)`, so a reported counterexample
//! replays exactly with [`Target::generate`] + [`Target::run`].
//!
//! The sharded store is not a target. It adds no protocol, so its one check
//! (the `store_model` test over [`crate::store_explore`]'s scenarios) is
//! that every key runs exactly as its lone cluster would, atomic and live
//! (using [`liveness_guaranteed`] per shard); a key that breaks is a cluster
//! schedule this engine can shrink.

use soda_registry::PartitionWindow;
use soda_simnet::rng::SimRng;
use soda_simnet::{DelayModel, LinkFaults, NetFaultPlan};
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
pub(crate) fn sample_ranks(rng: &mut SimRng, n: usize, count: usize) -> Vec<usize> {
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
/// draws plus one per rank).
pub(crate) fn sample_window(
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
    /// `extra_delay_max` is zero).
    pub(crate) fn sample(rng: &mut SimRng, knobs: &AdversaryKnobs) -> Self {
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
    pub(crate) fn fault_plan(&self) -> NetFaultPlan {
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

/// The shrinker's view of a fully concrete, seed-derived scenario. `Display`
/// renders it as a reproduction recipe.
pub trait Scenario: Clone + fmt::Display {
    /// Lengths of the scenario's removable event lists (planned operations,
    /// crashes, repairs, partition windows, …), in the order the shrinker
    /// visits them. The number of lists never changes.
    fn event_lists(&self) -> Vec<usize>;

    /// Removes event `index` of list `list` (as numbered by
    /// [`Scenario::event_lists`]).
    fn remove_event(&mut self, list: usize, index: usize);

    /// The network-fault intensities.
    fn net(&self) -> &NetIntensity;

    /// The network-fault intensities, for the shrinker to step.
    fn net_mut(&mut self) -> &mut NetIntensity;

    /// The scheduled partition windows, for the shrinker to bisect.
    fn windows_mut(&mut self) -> Vec<&mut PartitionWindow>;
}

/// Something seeded scenarios can drive: a campaign config that knows how to
/// derive the scenario for a seed and how to run one to a checked
/// [`Outcome`].
pub trait Target: Sized {
    /// The scenarios this target runs.
    type Scenario: Scenario;
    /// What the target's atomicity checker reports.
    type Violation: fmt::Display;
    /// The target's witness of a guaranteed operation that starved.
    type Starvation: fmt::Display;
    /// The checked history an outcome carries.
    type History;

    /// A short name for counterexamples (the protocol).
    fn name(&self) -> &'static str;

    /// Deterministically derives the scenario for `seed`.
    fn generate(&self, seed: u64) -> Self::Scenario;

    /// Builds the system under test and runs `scenario` to quiescence.
    fn run(&self, scenario: &Self::Scenario) -> Outcome<Self>;
}

/// The outcome of running one scenario to quiescence.
#[derive(Clone, Debug)]
pub struct Outcome<T: Target> {
    /// The atomicity violation, if the history failed the checker.
    pub violation: Option<T::Violation>,
    /// The liveness violation, if a guaranteed operation starved (see
    /// [`liveness_guaranteed`]).
    pub liveness: Option<T::Starvation>,
    /// Operations that completed.
    pub completed_ops: usize,
    /// Operations the target counts as left pending at quiescence (a
    /// cluster's starved or writer-crashed writes).
    pub pending: usize,
    /// Whether a simulation hit its event cap (indicates a protocol bug such
    /// as an infinite relay loop; never expected).
    pub hit_event_cap: bool,
    /// The checked history (completed ops closed under pending writes).
    pub history: T::History,
}

/// A minimized, seed-reproducible violation — of atomicity or of liveness,
/// per `V`. Replay it with [`Target::generate`] + [`Target::run`].
#[derive(Clone, Debug)]
pub struct Counterexample<S, V> {
    /// The seed that produced the violation.
    pub seed: u64,
    /// [`Target::name`] of the target under test.
    pub target: &'static str,
    /// The violation reported for the *minimized* scenario.
    pub violation: V,
    /// The scenario as originally generated.
    pub original: S,
    /// The greedily minimized scenario (still violating).
    pub minimized: S,
}

impl<S: Scenario, V: fmt::Display> fmt::Display for Counterexample<S, V> {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        let events = |s: &S| s.event_lists().iter().sum::<usize>();
        let (target, seed, violation) = (self.target, self.seed, &self.violation);
        let (kept, generated) = (events(&self.minimized), events(&self.original));
        writeln!(out, "{target}: counterexample at seed {seed}: {violation}")?;
        writeln!(out, "minimized repro ({kept} of {generated} events):")?;
        write!(out, "{}", self.minimized)
    }
}

/// Keeps the best scenario found so far and the violation it reproduces.
struct Shrinker<S, V, F> {
    current: S,
    violation: V,
    violates: F,
    changed: bool,
}

impl<S: Scenario, V, F: Fn(&S) -> Option<V>> Shrinker<S, V, F> {
    /// Applies `edit` to a copy and keeps it iff *some* violation persists
    /// (the goal is a minimal repro, not the same repro).
    fn keep(&mut self, edit: impl FnOnce(&mut S)) -> bool {
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
pub fn shrink_with<S: Scenario, V>(scenario: &S, violates: impl Fn(&S) -> Option<V>) -> (S, V) {
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
        let mut off = *best.current.net();
        (off.drop_p, off.duplicate_p, off.extra_delay, off.reorder_p) = (0.0, 0.0, 0, 0.0);
        if best.current.net().has_net_faults() {
            best.keep(|s| *s.net_mut() = off);
        }
        // All-off failed (or was unnecessary): halve the surviving
        // intensities one by one, each until the violation is lost.
        for knob in 0..NetIntensity::KNOBS {
            while let Some(net) = best.current.net().halved(knob) {
                if !best.keep(|s| *s.net_mut() = net) {
                    break;
                }
            }
        }
        // Surviving windows: halve the length (healing earlier), then
        // advance the start toward the end. Both keep the length ≥ 1.
        for index in 0..best.current.windows_mut().len() {
            for advance_start in [false, true] {
                loop {
                    let windows = best.current.windows_mut();
                    let (start, len) = (windows[index].start, windows[index].len());
                    let kept = len > 1
                        && best.keep(|s| {
                            let window = &mut *s.windows_mut()[index];
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

/// [`shrink_with`] against the target's **atomicity** checker.
///
/// # Panics
/// Panics if `scenario` does not violate atomicity under `target`.
pub fn shrink<T: Target>(target: &T, scenario: &T::Scenario) -> (T::Scenario, T::Violation) {
    shrink_with(scenario, |candidate| target.run(candidate).violation)
}

/// [`shrink_with`] against the target's **liveness** checker.
///
/// # Panics
/// Panics if `scenario` starves no guaranteed operation under `target`.
pub fn shrink_liveness<T: Target>(
    target: &T,
    scenario: &T::Scenario,
) -> (T::Scenario, T::Starvation) {
    shrink_with(scenario, |candidate| target.run(candidate).liveness)
}

/// Aggregate result of a [`campaign`].
#[derive(Clone, Debug)]
pub struct Report<T: Target> {
    /// Scenarios run.
    pub schedules: usize,
    /// Total operations completed across all scenarios.
    pub completed_ops: usize,
    /// Total [`Outcome::pending`] across all scenarios.
    pub pending: usize,
    /// Scenarios that hit the event cap (always 0 for healthy protocols).
    pub event_cap_hits: usize,
    /// Atomicity violations found, each minimized to a reproducer.
    pub counterexamples: Vec<Counterexample<T::Scenario, T::Violation>>,
    /// Liveness violations found (guaranteed ops that starved), each
    /// minimized to a reproducer.
    pub liveness_counterexamples: Vec<Counterexample<T::Scenario, T::Starvation>>,
}

impl<T: Target> Report<T> {
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
fn minimized<T: Target, V>(
    target: &T,
    seed: u64,
    original: &T::Scenario,
    shrink: impl Fn(&T, &T::Scenario) -> (T::Scenario, V),
) -> Counterexample<T::Scenario, V> {
    let (minimized, violation) = shrink(target, original);
    Counterexample {
        seed,
        target: target.name(),
        violation,
        original: original.clone(),
        minimized,
    }
}

/// Runs `schedules` seeded scenarios (`seed_start`, `seed_start + 1`, …)
/// against `target` and returns the aggregate report. Every violation is
/// shrunk to a minimal reproducer before being recorded.
///
/// # Panics
/// Panics if the target's configuration is invalid.
pub fn campaign<T: Target>(target: &T, seed_start: u64, schedules: usize) -> Report<T> {
    let mut report = Report {
        schedules: 0,
        completed_ops: 0,
        pending: 0,
        event_cap_hits: 0,
        counterexamples: Vec::new(),
        liveness_counterexamples: Vec::new(),
    };
    for seed in seed_start..seed_start + schedules as u64 {
        let scenario = target.generate(seed);
        let outcome = target.run(&scenario);
        report.schedules += 1;
        report.completed_ops += outcome.completed_ops;
        report.pending += outcome.pending;
        report.event_cap_hits += usize::from(outcome.hit_event_cap);
        if outcome.violation.is_some() {
            let found = minimized(target, seed, &scenario, shrink);
            report.counterexamples.push(found);
        }
        if outcome.liveness.is_some() {
            let found = minimized(target, seed, &scenario, shrink_liveness);
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
}
