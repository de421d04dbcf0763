//! The repair retry loop shared by every protocol's replacement server.
//!
//! A replacement server re-acquires its state from the survivors by fanning
//! out a request and waiting for a quorum of answers. A partition window can
//! swallow that fan-out, so the replacement re-sends it on a timer until the
//! survivors answer or a bounded attempt budget runs out; it then halts
//! itself, which reverts the rank to plain dead so a later repair can claim
//! the crash-budget slot again. What is fanned out, and what completes the
//! repair, is the protocol's business; the cadence, the give-up rule and the
//! cost accounting live here, once.

use soda_simnet::{Context, Message, SimTime};

/// Ticks between repair retries. Comfortably above one network round trip,
/// so a clean-path repair completes before the first retry fires (the timer
/// then finds the repair done and does nothing).
pub const REPAIR_RETRY_INTERVAL: u64 = 400;
/// Total attempts (first fan-out + retries) before a repair gives up. The
/// product with [`REPAIR_RETRY_INTERVAL`] bounds how long a repair survives
/// a partition — long enough to straddle the heal of any window the
/// exploration harness samples, short enough that `run_to_quiescence`
/// terminates when survivors never come back.
pub const REPAIR_MAX_ATTEMPTS: u32 = 8;
/// Timer token of the repair retry loop.
const REPAIR_RETRY_TOKEN: u64 = u64::MAX;

/// Why a repair gave up (see [`RepairStatus::error`]).
///
/// A failed repair is *retryable*: the replacement halted itself, so the
/// rank is plain dead again, the crash-budget slot it held is released back
/// to "dead" accounting, and a later repair starts a fresh incarnation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepairError {
    /// The replacement exhausted its bounded retry budget without assembling
    /// a quorum of survivor responses — typically because a partition window
    /// outlived every retry.
    Unreachable,
}

impl std::fmt::Display for RepairError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RepairError::Unreachable => {
                write!(f, "survivors unreachable for the whole retry budget")
            }
        }
    }
}

/// Progress and cost accounting of a replacement server's repair. Until
/// `completed_at` is set the replacement counts against the crash budget `f`
/// and answers no queries whose staleness could violate atomicity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairStatus {
    /// When the replacement started pulling state from survivors.
    pub started_at: SimTime,
    /// When the repair finished (`None` while still in progress — or, when
    /// [`RepairStatus::error`] is set, never).
    pub completed_at: Option<SimTime>,
    /// Bytes of value / coded-element data received for the repair — the
    /// repair bandwidth.
    pub traffic_bytes: u64,
    /// Set when the repair gave up instead of completing: its retry budget
    /// ran out with the survivors unreachable (e.g. a partition that
    /// outlived every retry). The replacement halted itself, so the rank is
    /// plain dead again and can be repaired anew.
    pub error: Option<RepairError>,
}

impl RepairStatus {
    /// Whether the repair has neither finished nor given up.
    pub fn in_progress(&self) -> bool {
        self.completed_at.is_none() && !self.failed()
    }

    /// Whether the repair gave up with a typed error.
    pub fn failed(&self) -> bool {
        self.error.is_some()
    }

    /// Repair latency in ticks (`None` until the repair has finished).
    pub fn latency(&self) -> Option<u64> {
        self.completed_at.map(|done| done.since(self.started_at))
    }
}

/// Drives one repair: stamps its start and finish, counts its traffic, and
/// owns the retry timer.
///
/// The owner calls [`start`](Self::start) from `on_start`, forwards every
/// `on_timer` to [`on_timer`](Self::on_timer), charges received data with
/// [`add_traffic`](Self::add_traffic) and calls [`finish`](Self::finish) once
/// it has adopted the survivors' state. The fan-out closures must be
/// idempotent at the receivers, since a retry repeats them.
#[derive(Debug, Default)]
pub struct RepairDriver {
    status: RepairStatus,
    /// Fan-outs so far (the initial send counts as one).
    attempts: u32,
}

impl RepairDriver {
    /// The repair's progress so far.
    pub fn status(&self) -> RepairStatus {
        self.status
    }

    /// Whether the repair has neither finished nor given up.
    pub fn in_progress(&self) -> bool {
        self.status.in_progress()
    }

    /// Starts the repair: stamps the start time, sends the first fan-out and
    /// arms the retry timer.
    pub fn start<M: Message>(
        &mut self,
        ctx: &mut Context<'_, M>,
        fan_out: impl FnOnce(&mut Context<'_, M>),
    ) {
        self.status.started_at = ctx.now();
        self.attempts = 1;
        fan_out(ctx);
        ctx.set_timer(REPAIR_RETRY_INTERVAL, REPAIR_RETRY_TOKEN);
    }

    /// Handles a timer. A tick of the retry timer on a repair still in
    /// progress re-sends the fan-out and re-arms the timer, or — once
    /// [`REPAIR_MAX_ATTEMPTS`] fan-outs went unanswered — marks the repair
    /// failed and halts the process. Any other token, and any tick after the
    /// repair finished or failed, does nothing.
    pub fn on_timer<M: Message>(
        &mut self,
        token: u64,
        ctx: &mut Context<'_, M>,
        fan_out: impl FnOnce(&mut Context<'_, M>),
    ) {
        if token != REPAIR_RETRY_TOKEN || !self.in_progress() {
            return;
        }
        if self.attempts >= REPAIR_MAX_ATTEMPTS {
            self.status.error = Some(RepairError::Unreachable);
            ctx.halt();
            return;
        }
        self.attempts += 1;
        fan_out(ctx);
        ctx.set_timer(REPAIR_RETRY_INTERVAL, REPAIR_RETRY_TOKEN);
    }

    /// Charges `bytes` of received value / coded-element data to the repair.
    /// Data re-transferred by a retry is charged again: a retried repair
    /// genuinely costs that bandwidth.
    pub fn add_traffic(&mut self, bytes: usize) {
        self.status.traffic_bytes += bytes as u64;
    }

    /// Marks the repair finished at `now`.
    pub fn finish(&mut self, now: SimTime) {
        self.status.completed_at = Some(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soda_simnet::testkit::{fire_timer, start};
    use soda_simnet::{Process, ProcessId};

    #[derive(Clone, Debug)]
    struct Pull;
    impl Message for Pull {}

    /// A replacement that pulls from one peer and never hears back.
    struct Replacement(RepairDriver);

    const PEER: ProcessId = ProcessId(1);

    impl Process<Pull> for Replacement {
        fn on_start(&mut self, ctx: &mut Context<'_, Pull>) {
            self.0.start(ctx, |ctx| ctx.send(PEER, Pull));
        }
        fn on_message(&mut self, _: ProcessId, _: Pull, _: &mut Context<'_, Pull>) {}
        fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, Pull>) {
            self.0.on_timer(token, ctx, |ctx| ctx.send(PEER, Pull));
        }
    }

    const ME: ProcessId = ProcessId(0);
    const ARMED: (u64, u64) = (REPAIR_RETRY_INTERVAL, REPAIR_RETRY_TOKEN);

    fn t(ticks: u64) -> SimTime {
        SimTime::from_ticks(ticks)
    }

    #[test]
    fn retries_until_the_budget_then_gives_up_once() {
        let mut p = Replacement(RepairDriver::default());
        let first = start(&mut p, ME, t(50));
        assert_eq!(first.sends.len(), 1);
        assert_eq!(first.timers, vec![ARMED]);
        assert_eq!(p.0.status().started_at, t(50));

        // A timer that is not the repair's is ignored and consumes no attempt.
        let foreign = fire_timer(&mut p, ME, t(60), 7);
        assert!(foreign.sends.is_empty() && foreign.timers.is_empty() && !foreign.halted);

        // The first fan-out plus these retries make exactly the budget.
        for retry in 1..REPAIR_MAX_ATTEMPTS {
            let at = t(50 + u64::from(retry) * REPAIR_RETRY_INTERVAL);
            let tick = fire_timer(&mut p, ME, at, REPAIR_RETRY_TOKEN);
            assert_eq!(tick.sends.len(), 1, "retry {retry} re-sends the fan-out");
            assert_eq!(tick.timers, vec![ARMED], "retry {retry} re-arms");
            assert!(!tick.halted);
            assert!(p.0.in_progress());
        }

        let end = t(50 + u64::from(REPAIR_MAX_ATTEMPTS) * REPAIR_RETRY_INTERVAL);
        let gave_up = fire_timer(&mut p, ME, end, REPAIR_RETRY_TOKEN);
        assert!(gave_up.halted && gave_up.sends.is_empty() && gave_up.timers.is_empty());
        let status = p.0.status();
        assert!(status.failed() && status.completed_at.is_none() && !status.in_progress());
        assert_eq!(status.latency(), None);

        // Giving up happens once: a later tick finds nothing to do.
        let after = fire_timer(&mut p, ME, end, REPAIR_RETRY_TOKEN);
        assert!(!after.halted && after.sends.is_empty() && after.timers.is_empty());
    }

    #[test]
    fn a_finished_repair_ignores_its_timer() {
        let mut p = Replacement(RepairDriver::default());
        start(&mut p, ME, t(5));
        p.0.add_traffic(96);
        p.0.finish(t(30));
        let tick = fire_timer(&mut p, ME, t(405), REPAIR_RETRY_TOKEN);
        assert!(tick.sends.is_empty() && tick.timers.is_empty() && !tick.halted);
        assert_eq!(
            p.0.status(),
            RepairStatus {
                started_at: t(5),
                completed_at: Some(t(30)),
                traffic_bytes: 96,
                error: None,
            }
        );
        assert_eq!(p.0.status().latency(), Some(25));
    }
}
