//! Crash-fault injection.
//!
//! The paper tolerates up to `f ≤ (n−1)/2` server crashes and arbitrarily many
//! client crashes. A [`FaultPlan`] describes which processes crash and when;
//! it can be handed to the simulation up front or crashes can be scheduled
//! dynamically with [`crate::Simulation::schedule_crash`].
//!
//! A [`FaultPlan`] models **crash-stop faults with replacement**: a crashed
//! process permanently stops receiving events, but messages it already sent
//! stay in the channels (the paper's channel model) and its state remains
//! inspectable by the harness. It does *not* model message loss, delay,
//! reordering, duplication, or corruption — message-level (network) faults
//! live in [`crate::NetFaultPlan`], and the two compose: schedule crashes
//! from a `FaultPlan` (merging independent plans with [`FaultPlan::merge`])
//! and install the network adversary with
//! [`crate::Simulation::set_net_fault_plan`] in the same execution.
//!
//! **Recovery** is modelled as *replacement*, never resurrection: a
//! [`RecoveryEvent`] says that a **fresh process with empty state** takes
//! over the crashed process's id at time `at` (the paper's §V / RADON repair
//! setting — a repaired server re-joins with none of its pre-crash state and
//! must re-acquire it from survivors via a protocol-level repair procedure).
//! Because the replacement's initial state is protocol-specific, a
//! `FaultPlan` records only *that* a recovery happens; the replacement
//! process itself is supplied by the harness, either directly via
//! [`crate::Simulation::schedule_recovery`] or through the factory passed to
//! [`crate::Simulation::apply_fault_plan_with`].

use crate::process::ProcessId;
use crate::time::SimTime;

/// A single scheduled crash.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashEvent {
    /// The process that crashes.
    pub process: ProcessId,
    /// When the crash takes effect. No events are delivered to the process at
    /// or after this time.
    pub at: SimTime,
}

/// A single scheduled recovery: a fresh, empty-state replacement process
/// takes over `process`'s id at time `at`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryEvent {
    /// The process id the replacement takes over.
    pub process: ProcessId,
    /// When the replacement joins. Events are delivered to it from this time
    /// on (its `on_start` runs before the next event is processed).
    pub at: SimTime,
}

/// A collection of scheduled crashes and recoveries.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    crashes: Vec<CrashEvent>,
    recoveries: Vec<RecoveryEvent>,
}

impl FaultPlan {
    /// An empty plan (no failures).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Adds a crash of `process` at time `at` (builder style).
    pub fn crash(mut self, process: ProcessId, at: SimTime) -> Self {
        self.crashes.push(CrashEvent { process, at });
        self
    }

    /// Adds a recovery of `process` at time `at` (builder style): a fresh
    /// replacement with empty state takes over the id. The replacement
    /// process itself is supplied when the plan is applied (see
    /// [`crate::Simulation::apply_fault_plan_with`]).
    pub fn recover(mut self, process: ProcessId, at: SimTime) -> Self {
        self.recoveries.push(RecoveryEvent { process, at });
        self
    }

    /// Merges another plan's crashes and recoveries into this one (builder
    /// style), so independently built crash plans — e.g. a baseline
    /// server-crash plan and a scenario-specific client-crash plan, alongside
    /// a [`crate::NetFaultPlan`] — compose into one schedule. Events are
    /// concatenated; duplicates are harmless (crashing a crashed process is a
    /// no-op, recovering a live one replaces it).
    pub fn merge(mut self, other: FaultPlan) -> Self {
        self.crashes.extend(other.crashes);
        self.recoveries.extend(other.recoveries);
        self
    }

    /// The scheduled crashes.
    pub fn crashes(&self) -> &[CrashEvent] {
        &self.crashes
    }

    /// The scheduled recoveries.
    pub fn recoveries(&self) -> &[RecoveryEvent] {
        &self.recoveries
    }

    /// Number of scheduled crashes.
    pub fn len(&self) -> usize {
        self.crashes.len()
    }

    /// Whether the plan schedules nothing at all.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty() && self.recoveries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_crashes() {
        let plan = FaultPlan::none()
            .crash(ProcessId(1), SimTime::from_ticks(10))
            .crash(ProcessId(2), SimTime::from_ticks(20))
            .crash(ProcessId(3), SimTime::from_ticks(20));
        assert_eq!(plan.len(), 3);
        assert!(!plan.is_empty());
        assert_eq!(plan.crashes()[0].process, ProcessId(1));
        assert_eq!(plan.crashes()[2].at, SimTime::from_ticks(20));
    }

    #[test]
    fn empty_plan() {
        assert!(FaultPlan::none().is_empty());
        assert_eq!(FaultPlan::none().len(), 0);
    }

    #[test]
    fn merge_concatenates_crashes() {
        let servers = FaultPlan::none().crash(ProcessId(0), SimTime::from_ticks(5));
        let clients = FaultPlan::none()
            .crash(ProcessId(7), SimTime::from_ticks(1))
            .crash(ProcessId(8), SimTime::from_ticks(2));
        let merged = servers.merge(clients);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged.crashes()[0].process, ProcessId(0));
        assert_eq!(merged.crashes()[2].process, ProcessId(8));
        // Merging an empty plan changes nothing.
        let same = merged.clone().merge(FaultPlan::none());
        assert_eq!(same, merged);
    }

    #[test]
    fn recoveries_accumulate_and_merge() {
        let plan = FaultPlan::none()
            .crash(ProcessId(1), SimTime::from_ticks(10))
            .recover(ProcessId(1), SimTime::from_ticks(30));
        assert_eq!(plan.recoveries().len(), 1);
        assert_eq!(plan.recoveries()[0].process, ProcessId(1));
        assert_eq!(plan.recoveries()[0].at, SimTime::from_ticks(30));
        assert!(!plan.is_empty());

        // A plan with only recoveries is non-empty even though len() (crash
        // count) is zero.
        let only_recovery = FaultPlan::none().recover(ProcessId(2), SimTime::from_ticks(5));
        assert_eq!(only_recovery.len(), 0);
        assert!(!only_recovery.is_empty());

        let merged = plan.clone().merge(only_recovery);
        assert_eq!(merged.recoveries().len(), 2);
    }
}
