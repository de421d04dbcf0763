//! Adversarial message-delivery faults.
//!
//! Crash faults are scheduled on the simulation itself
//! ([`crate::Simulation::schedule_crash`]); this module models the *network*
//! adversary of the asynchronous model: an execution in which
//! messages may be *dropped*, *delayed* by arbitrary finite amounts,
//! *reordered*, *duplicated*, or *cut* by a partition. The SODA/SODAerr
//! atomicity proofs (and the ABD and CAS proofs they are compared against)
//! are stated for exactly this adversary, so a reproduction that only ever
//! runs clean schedules is not exercising the claims.
//!
//! A [`NetFaultPlan`] holds one [`LinkFaults`] applying to every link and a
//! list of isolation windows. It is handed to
//! [`crate::Simulation::set_net_fault_plan`] and consulted on every
//! process-to-process send (externally injected invocations and timers are
//! never faulted). Byzantine payload corruption is not part of the plan: it
//! is message-type specific, so a [`crate::CorruptionHook`] installed with
//! [`crate::Simulation::set_corruption_hook`] decides alone which sends it
//! mutates.
//!
//! Probabilistic faults are sampled per message from the simulation's
//! network stream ([`crate::rng::SimRng::network`]), so a given
//! `(seed, plan)` pair still produces a fully deterministic execution —
//! failing schedules can be replayed exactly.
//!
//! On top of the probabilistic adversary, the plan carries *scheduled*
//! isolations ([`NetFaultPlan::with_isolation`]): during `[start, end)` every
//! link between a member and a non-member is cut in both directions, and the
//! cut heals at `end`. Cuts are deterministic — a cut send is dropped by a
//! membership test that consumes **no** RNG draws, so adding isolations to a
//! plan never perturbs the schedule an existing seed produces on the links
//! that stay connected.
//!
//! What is *not* modeled: unbounded delay (delays are finite so that
//! `run_to_quiescence` terminates; liveness under a fair adversary is
//! approximated by `drop_p < 1` and by partitions that heal).

use crate::config::DelayModel;
use crate::process::ProcessId;
use crate::rng::SimRng;
use crate::time::SimTime;

/// Adversarial behaviour of a link (probabilities are per message).
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

/// One scheduled isolation: `members` (sorted, deduplicated) are cut off
/// from everyone else during `[start, end)`.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Isolation {
    members: Vec<ProcessId>,
    start: SimTime,
    end: SimTime,
}

/// The network adversary for one execution: the fault behaviour of every
/// link plus scheduled isolation windows.
///
/// Composes with crashes: those are scheduled on the simulation
/// ([`crate::Simulation::schedule_crash`]), message-level faults through this
/// plan, and both can be active in the same execution.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NetFaultPlan {
    /// The fault behaviour of every link.
    pub(crate) faults: LinkFaults,
    isolations: Vec<Isolation>,
}

impl NetFaultPlan {
    /// A plan with no faults at all (reliable channels).
    pub fn none() -> Self {
        NetFaultPlan::default()
    }

    /// Sets the fault behaviour of every link.
    pub fn with_default(mut self, faults: LinkFaults) -> Self {
        self.faults = faults;
        self
    }

    /// Isolates `processes` during `[start, end)`: every link between a
    /// member and a non-member is cut in both directions, links among
    /// members stay up, and the cut heals at `end` (`SimTime::MAX` never
    /// heals). Isolations stack and may overlap.
    pub fn with_isolation<I: IntoIterator<Item = ProcessId>>(
        mut self,
        processes: I,
        start: SimTime,
        end: SimTime,
    ) -> Self {
        let mut members: Vec<ProcessId> = processes.into_iter().collect();
        members.sort_unstable();
        members.dedup();
        self.isolations.push(Isolation {
            members,
            start,
            end,
        });
        self
    }

    /// Whether a send from `from` to `to` at time `now` is cut by an
    /// isolation. This is a pure membership test — it consumes no
    /// randomness — so plans that only differ in isolations produce
    /// identical RNG streams on the links that stay connected.
    pub fn is_partitioned(&self, from: ProcessId, to: ProcessId, now: SimTime) -> bool {
        self.isolations.iter().any(|iso| {
            iso.start <= now
                && now < iso.end
                && iso.members.contains(&from) != iso.members.contains(&to)
        })
    }

    /// Whether the plan changes nothing about delivery (the state a fresh
    /// [`crate::Simulation`] starts in). A passthrough plan consumes no
    /// randomness, so executions with and without it are identical.
    ///
    /// Any isolation disqualifies the plan — even one entirely in the past
    /// or future. The simulation caches this answer once at
    /// [`crate::Simulation::set_net_fault_plan`] time, so a plan that is
    /// clean *now* but partitions *later* must never report passthrough.
    pub fn is_passthrough(&self) -> bool {
        self.faults.is_clean() && self.isolations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ticks(t: u64) -> SimTime {
        SimTime::from_ticks(t)
    }

    #[test]
    fn default_plan_is_passthrough() {
        let plan = NetFaultPlan::none();
        assert!(plan.is_passthrough());
        assert!(plan.faults.is_clean());
        assert!(!plan.is_partitioned(ProcessId(0), ProcessId(1), SimTime::ZERO));
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
        let future = NetFaultPlan::none().with_isolation([ProcessId(0)], ticks(100), ticks(200));
        assert!(!future.is_partitioned(ProcessId(0), ProcessId(1), SimTime::ZERO));
        assert!(!future.is_passthrough(), "clean-now, partitioned-later");

        // Even a window entirely in the past keeps the general path.
        let past = NetFaultPlan::none().with_isolation([ProcessId(0)], SimTime::ZERO, ticks(1));
        assert!(!past.is_passthrough());
    }

    #[test]
    fn window_membership_is_half_open() {
        let plan = NetFaultPlan::none().with_isolation([ProcessId(2)], ticks(10), ticks(20));
        let cut = |t| plan.is_partitioned(ProcessId(2), ProcessId(3), ticks(t));
        assert!(!cut(9));
        assert!(cut(10), "start is inclusive");
        assert!(cut(19));
        assert!(!cut(20), "end is the heal instant");
        // Both directions are cut.
        assert!(plan.is_partitioned(ProcessId(3), ProcessId(2), ticks(15)));
    }

    #[test]
    fn partition_split_cuts_cross_group_links_symmetrically() {
        let plan = NetFaultPlan::none().with_isolation(
            [ProcessId(1), ProcessId(0), ProcessId(1)],
            ticks(5),
            ticks(15),
        );
        let at = ticks(7);
        assert!(plan.is_partitioned(ProcessId(0), ProcessId(2), at));
        assert!(plan.is_partitioned(ProcessId(2), ProcessId(0), at));
        assert!(plan.is_partitioned(ProcessId(1), ProcessId(2), at));
        assert!(plan.is_partitioned(ProcessId(2), ProcessId(1), at));
        // Members keep their links to each other, and so do non-members.
        assert!(!plan.is_partitioned(ProcessId(0), ProcessId(1), at));
        assert!(!plan.is_partitioned(ProcessId(1), ProcessId(0), at));
        assert!(!plan.is_partitioned(ProcessId(2), ProcessId(3), at));
        // Heals at end.
        assert!(!plan.is_partitioned(ProcessId(0), ProcessId(2), ticks(15)));
        // Member order and repeats do not matter.
        assert_eq!(
            plan,
            NetFaultPlan::none().with_isolation([ProcessId(0), ProcessId(1)], ticks(5), ticks(15))
        );
    }

    #[test]
    fn never_healing_window_reports_max_heal() {
        let plan = NetFaultPlan::none().with_isolation([ProcessId(0)], ticks(3), SimTime::MAX);
        assert!(plan.is_partitioned(ProcessId(0), ProcessId(1), ticks(1 << 40)));
        assert!(plan.is_partitioned(ProcessId(1), ProcessId(0), ticks(u64::MAX - 1)));
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
