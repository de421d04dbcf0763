//! Adversarial message-delivery faults.
//!
//! Crash faults are scheduled on the simulation itself
//! ([`crate::Simulation::schedule_crash`]); this module models the *network*
//! adversary of the asynchronous model: an execution in which
//! messages may be *dropped*, *delayed* by arbitrary finite amounts,
//! *reordered*, *duplicated*, or — for senders designated byzantine —
//! *corrupted* in flight. The SODA/SODAerr atomicity proofs (and the ABD and
//! CAS proofs they are compared against) are stated for exactly this
//! adversary, so a reproduction that only ever runs clean schedules is not
//! exercising the claims.
//!
//! A [`NetFaultPlan`] holds a default [`LinkFaults`] applying to every
//! directed link, optional per-link overrides, and the set of corrupt
//! senders. It is handed to [`crate::Simulation::set_net_fault_plan`] and
//! consulted on every process-to-process send (externally injected
//! invocations and timers are never faulted). Payload corruption is
//! message-type specific, so the plan only *selects* the corrupt senders; the
//! mutation itself is performed by a [`crate::CorruptionHook`] installed
//! with [`crate::Simulation::set_corruption_hook`].
//!
//! Probabilistic faults are sampled per message from the simulation's
//! network stream ([`crate::rng::SimRng::network`]), so a given
//! `(seed, plan)` pair still produces a fully deterministic execution —
//! failing schedules can be replayed exactly.
//!
//! On top of the probabilistic adversary, the plan carries *scheduled*
//! [`LinkWindow`]s: a directed link is unreachable during `[start, end)` and
//! heals at `end`. Windows are deterministic — a partitioned send is dropped
//! by a membership test that consumes **no** RNG draws, so adding windows to
//! a plan never perturbs the schedule an existing seed produces on the
//! still-connected links. The [`Partition`] helper expands a symmetric
//! multi-group partition into the cross-group windows it implies.
//!
//! What is *not* modeled: unbounded delay (delays are finite so that
//! `run_to_quiescence` terminates; liveness under a fair adversary is
//! approximated by `drop_p < 1` and by partitions that heal).

use crate::config::DelayModel;
use crate::process::ProcessId;
use crate::rng::SimRng;
use crate::time::SimTime;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Adversarial behaviour of one directed link (probabilities are per
/// message).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkFaults {
    /// Probability that a message is silently dropped.
    pub drop_p: f64,
    /// Probability that a message is delivered twice (the duplicate gets an
    /// independently sampled delay; duplicates are never themselves
    /// duplicated, so executions stay finite).
    pub duplicate_p: f64,
    /// Extra delay added to every message on top of the base
    /// [`crate::NetworkConfig`] delay.
    pub extra_delay: Option<DelayModel>,
    /// Probability that a message is *held back*: an additional uniform delay
    /// in `[1, reorder_window]` is added, letting later sends overtake it.
    pub reorder_p: f64,
    /// Size of the hold-back window used when a message is reordered.
    pub reorder_window: u64,
}

impl LinkFaults {
    /// A fault-free link (the default).
    pub const NONE: LinkFaults = LinkFaults {
        drop_p: 0.0,
        duplicate_p: 0.0,
        extra_delay: None,
        reorder_p: 0.0,
        reorder_window: 0,
    };

    /// Whether this link behaves like a reliable channel.
    pub fn is_clean(&self) -> bool {
        self.drop_p <= 0.0
            && self.duplicate_p <= 0.0
            && self.extra_delay.is_none()
            && (self.reorder_p <= 0.0 || self.reorder_window == 0)
    }

    /// Samples whether the adversary drops a message on this link.
    pub(crate) fn sample_drop(&self, rng: &mut SimRng) -> bool {
        self.drop_p > 0.0 && rng.gen_bool(self.drop_p.min(1.0))
    }

    /// Samples whether the adversary duplicates a message on this link.
    pub(crate) fn sample_duplicate(&self, rng: &mut SimRng) -> bool {
        self.duplicate_p > 0.0 && rng.gen_bool(self.duplicate_p.min(1.0))
    }

    /// Samples the extra delay (delay faults plus reordering hold-back) the
    /// adversary adds to one delivery on this link.
    pub(crate) fn sample_extra_delay(&self, rng: &mut SimRng) -> u64 {
        let mut extra = match self.extra_delay {
            // The +1 floor of DelayModel::sample is about causality of the
            // base delay; an *extra* delay of a model that can produce "no
            // extra" should be allowed to be 0, so Constant(0) is kept as-is.
            Some(DelayModel::Constant(d)) => d,
            Some(model) => model.sample(rng),
            None => 0,
        };
        if self.reorder_p > 0.0 && self.reorder_window > 0 && rng.gen_bool(self.reorder_p.min(1.0))
        {
            extra = extra.saturating_add(rng.gen_range(1..=self.reorder_window));
        }
        extra
    }
}

impl Default for LinkFaults {
    fn default() -> Self {
        LinkFaults::NONE
    }
}

/// A scheduled outage of one directed link: messages sent from `from` to
/// `to` while `start <= now < end` are dropped deterministically (no RNG
/// draw), and the link heals at `end`. Use `end = SimTime::MAX` for a
/// partition that never heals.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkWindow {
    /// Sender side of the cut link.
    pub from: ProcessId,
    /// Receiver side of the cut link.
    pub to: ProcessId,
    /// First instant at which sends are cut (inclusive).
    pub start: SimTime,
    /// Heal time: first instant at which sends go through again (exclusive
    /// end of the outage).
    pub end: SimTime,
}

impl LinkWindow {
    /// A window cutting `from → to` during `[start, end)`.
    pub fn new(from: ProcessId, to: ProcessId, start: SimTime, end: SimTime) -> Self {
        LinkWindow {
            from,
            to,
            start,
            end,
        }
    }

    /// Whether a send at `now` falls inside the outage.
    pub fn covers(&self, now: SimTime) -> bool {
        self.start <= now && now < self.end
    }
}

/// A symmetric network partition: during `[start, end)` every link that
/// crosses a group boundary is cut in both directions; links inside a group
/// are untouched. Expands to the [`LinkWindow`]s it implies via
/// [`Partition::split`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    windows: Vec<LinkWindow>,
}

impl Partition {
    /// Cuts all cross-group links symmetrically during `[start, end)`; the
    /// partition heals at `end`. Processes not listed in any group are
    /// unaffected (they stay reachable from everyone). A process listed in
    /// two groups keeps its links to both (the groups overlap there), so
    /// callers normally pass disjoint groups.
    pub fn split(groups: &[Vec<ProcessId>], start: SimTime, end: SimTime) -> Self {
        let mut windows = Vec::new();
        for (i, a) in groups.iter().enumerate() {
            for b in groups.iter().skip(i + 1) {
                for &p in a {
                    for &q in b {
                        if p == q {
                            continue;
                        }
                        windows.push(LinkWindow::new(p, q, start, end));
                        windows.push(LinkWindow::new(q, p, start, end));
                    }
                }
            }
        }
        Partition { windows }
    }

    /// The directed link windows this partition expands to.
    pub fn windows(&self) -> &[LinkWindow] {
        &self.windows
    }

    /// Consumes the partition, yielding its link windows.
    pub fn into_windows(self) -> Vec<LinkWindow> {
        self.windows
    }
}

/// The network adversary for one execution: per-link fault behaviour plus the
/// set of byzantine (payload-corrupting) senders.
///
/// Composes with crashes: those are scheduled on the simulation
/// ([`crate::Simulation::schedule_crash`]), message-level faults through this
/// plan, and both can be active in the same execution.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NetFaultPlan {
    default: LinkFaults,
    link_overrides: HashMap<(ProcessId, ProcessId), LinkFaults>,
    corrupt_senders: BTreeSet<ProcessId>,
    /// Scheduled outages per directed link (sorted map so iteration — e.g.
    /// for display — is deterministic).
    windows: BTreeMap<(ProcessId, ProcessId), Vec<(SimTime, SimTime)>>,
}

impl NetFaultPlan {
    /// A plan with no faults at all (reliable channels).
    pub fn none() -> Self {
        NetFaultPlan::default()
    }

    /// Sets the fault behaviour applying to every link without an override.
    pub fn with_default(mut self, faults: LinkFaults) -> Self {
        self.default = faults;
        self
    }

    /// Overrides the fault behaviour of one directed link.
    pub fn with_link(mut self, from: ProcessId, to: ProcessId, faults: LinkFaults) -> Self {
        self.link_overrides.insert((from, to), faults);
        self
    }

    /// Marks a sender as byzantine: every message it sends is offered to the
    /// corruption hook installed with
    /// [`crate::Simulation::set_corruption_hook`].
    pub fn with_corrupt_sender(mut self, sender: ProcessId) -> Self {
        self.corrupt_senders.insert(sender);
        self
    }

    /// Marks several senders as byzantine.
    pub fn with_corrupt_senders<I: IntoIterator<Item = ProcessId>>(mut self, senders: I) -> Self {
        self.corrupt_senders.extend(senders);
        self
    }

    /// Adds one scheduled link outage.
    pub fn with_window(mut self, window: LinkWindow) -> Self {
        self.windows
            .entry((window.from, window.to))
            .or_default()
            .push((window.start, window.end));
        self
    }

    /// Adds several scheduled link outages.
    pub fn with_windows<I: IntoIterator<Item = LinkWindow>>(mut self, windows: I) -> Self {
        for w in windows {
            self = self.with_window(w);
        }
        self
    }

    /// Adds every link window a symmetric [`Partition`] implies.
    pub fn with_partition(self, partition: Partition) -> Self {
        self.with_windows(partition.into_windows())
    }

    /// Whether a send from `from` to `to` at time `now` falls inside a
    /// scheduled outage. This is a pure membership test — it consumes no
    /// randomness — so plans that only differ in windows produce identical
    /// RNG streams on the links that stay connected.
    pub fn is_partitioned(&self, from: ProcessId, to: ProcessId, now: SimTime) -> bool {
        if self.windows.is_empty() {
            return false;
        }
        self.windows
            .get(&(from, to))
            .is_some_and(|spans| spans.iter().any(|&(start, end)| start <= now && now < end))
    }

    /// The fault behaviour applying to a particular directed link.
    pub fn faults_for(&self, from: ProcessId, to: ProcessId) -> LinkFaults {
        self.link_overrides
            .get(&(from, to))
            .copied()
            .unwrap_or(self.default)
    }

    /// Whether `sender`'s messages are offered to the corruption hook.
    pub fn corrupts_sends_of(&self, sender: ProcessId) -> bool {
        self.corrupt_senders.contains(&sender)
    }

    /// Whether the plan changes nothing about delivery (the state a fresh
    /// [`crate::Simulation`] starts in). A passthrough plan consumes no
    /// randomness, so executions with and without it are identical.
    ///
    /// Any scheduled window disqualifies the plan — even one entirely in the
    /// past or future. The simulation caches this answer once at
    /// [`crate::Simulation::set_net_fault_plan`] time, so a plan that is
    /// clean *now* but partitions *later* must never report passthrough.
    pub fn is_passthrough(&self) -> bool {
        self.default.is_clean()
            && self.link_overrides.values().all(LinkFaults::is_clean)
            && self.corrupt_senders.is_empty()
            && self.windows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_passthrough() {
        let plan = NetFaultPlan::none();
        assert!(plan.is_passthrough());
        assert!(plan.faults_for(ProcessId(0), ProcessId(1)).is_clean());
        assert!(!plan.corrupts_sends_of(ProcessId(0)));
    }

    #[test]
    fn link_overrides_and_corrupt_senders() {
        let lossy = LinkFaults {
            drop_p: 0.5,
            ..LinkFaults::NONE
        };
        let plan = NetFaultPlan::none()
            .with_link(ProcessId(0), ProcessId(1), lossy)
            .with_corrupt_sender(ProcessId(3));
        assert!(!plan.is_passthrough());
        assert_eq!(plan.faults_for(ProcessId(0), ProcessId(1)), lossy);
        assert!(plan.faults_for(ProcessId(1), ProcessId(0)).is_clean());
        assert!(plan.corrupts_sends_of(ProcessId(3)));
    }

    #[test]
    fn clean_links_consume_no_randomness() {
        let mut rng = SimRng::network(9);
        let clean = LinkFaults::NONE;
        assert!(!clean.sample_drop(&mut rng));
        assert!(!clean.sample_duplicate(&mut rng));
        assert_eq!(clean.sample_extra_delay(&mut rng), 0);
        assert_eq!(rng.draws(), 0);
    }

    #[test]
    fn windowed_plan_is_never_passthrough() {
        // Regression: the simulation caches `is_passthrough` once, so a plan
        // that is clean at t=0 but partitions later must not pass through.
        let future = NetFaultPlan::none().with_window(LinkWindow::new(
            ProcessId(0),
            ProcessId(1),
            SimTime::from_ticks(100),
            SimTime::from_ticks(200),
        ));
        assert!(!future.is_partitioned(ProcessId(0), ProcessId(1), SimTime::ZERO));
        assert!(!future.is_passthrough(), "clean-now, partitioned-later");

        // Even a window entirely in the past keeps the general path.
        let past = NetFaultPlan::none().with_window(LinkWindow::new(
            ProcessId(0),
            ProcessId(1),
            SimTime::ZERO,
            SimTime::from_ticks(1),
        ));
        assert!(!past.is_passthrough());
    }

    #[test]
    fn window_membership_is_half_open() {
        let plan = NetFaultPlan::none().with_window(LinkWindow::new(
            ProcessId(2),
            ProcessId(3),
            SimTime::from_ticks(10),
            SimTime::from_ticks(20),
        ));
        let cut = |t| plan.is_partitioned(ProcessId(2), ProcessId(3), SimTime::from_ticks(t));
        assert!(!cut(9));
        assert!(cut(10), "start is inclusive");
        assert!(cut(19));
        assert!(!cut(20), "end is the heal instant");
        // Only the scheduled direction is cut.
        assert!(!plan.is_partitioned(ProcessId(3), ProcessId(2), SimTime::from_ticks(15)));
    }

    #[test]
    fn partition_split_cuts_cross_group_links_symmetrically() {
        let g0 = vec![ProcessId(0), ProcessId(1)];
        let g1 = vec![ProcessId(2)];
        let part = Partition::split(&[g0, g1], SimTime::from_ticks(5), SimTime::from_ticks(15));
        // 2 cross-group pairs, both directions.
        assert_eq!(part.windows().len(), 4);
        let plan = NetFaultPlan::none().with_partition(part);
        let at = SimTime::from_ticks(7);
        assert!(plan.is_partitioned(ProcessId(0), ProcessId(2), at));
        assert!(plan.is_partitioned(ProcessId(2), ProcessId(0), at));
        assert!(plan.is_partitioned(ProcessId(1), ProcessId(2), at));
        assert!(plan.is_partitioned(ProcessId(2), ProcessId(1), at));
        // Intra-group links stay connected.
        assert!(!plan.is_partitioned(ProcessId(0), ProcessId(1), at));
        // Heals at end.
        assert!(!plan.is_partitioned(ProcessId(0), ProcessId(2), SimTime::from_ticks(15)));
    }

    #[test]
    fn never_healing_window_reports_max_heal() {
        let plan = NetFaultPlan::none().with_window(LinkWindow::new(
            ProcessId(0),
            ProcessId(1),
            SimTime::from_ticks(3),
            SimTime::MAX,
        ));
        assert!(plan.is_partitioned(ProcessId(0), ProcessId(1), SimTime::from_ticks(1 << 40)));
    }

    #[test]
    fn drop_probability_one_always_drops() {
        let mut rng = SimRng::network(1);
        let always = LinkFaults {
            drop_p: 1.0,
            ..LinkFaults::NONE
        };
        for _ in 0..20 {
            assert!(always.sample_drop(&mut rng));
        }
    }

    #[test]
    fn extra_delay_and_reorder_window_bound_the_hold_back() {
        let mut rng = SimRng::network(2);
        let faults = LinkFaults {
            extra_delay: Some(DelayModel::Uniform { min: 1, max: 5 }),
            reorder_p: 1.0,
            reorder_window: 10,
            ..LinkFaults::NONE
        };
        for _ in 0..200 {
            let extra = faults.sample_extra_delay(&mut rng);
            assert!(
                (2..=15).contains(&extra),
                "extra delay {extra} out of range"
            );
        }
        let constant = LinkFaults {
            extra_delay: Some(DelayModel::Constant(0)),
            ..LinkFaults::NONE
        };
        assert_eq!(constant.sample_extra_delay(&mut rng), 0);
    }
}
