//! The quorum phase every protocol runs.
//!
//! A client, or a replacement server repairing itself, sends one message to
//! each server, counts one reply per responder up to a threshold, then moves
//! on (Figs. 3–4 of the paper; CAS's phases; RADON's repair). The driver
//! keeps that count, reading each phase's threshold from its protocol's
//! quorum table ([`QuorumPhase`]). What a reply carries — the highest tag,
//! ABD's `(tag, value)`, CAS's coded elements — each protocol folds as it
//! arrives.

use crate::{QuorumPhase, QuorumSizes};
use soda_simnet::ProcessId;

/// What [`PhaseDriver::record`] made of a reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reply {
    /// A reply to another phase or operation, or from a responder already
    /// counted in this one: drop it.
    Ignored,
    /// A new responder that did not complete the phase: the count is still
    /// short of the threshold, or was already past it.
    Counted,
    /// The new responder that brought the count to the threshold. Reported
    /// once per phase.
    Completed,
}

/// The quorum phase in flight, if any: which phase `P`, for which operation
/// `K` (a client's sequence number, or a repair's op id), how many distinct
/// responders it waits for and which have answered.
///
/// Duplicate replies from one responder count once, so the driver is
/// idempotent under message duplication and under a repair's re-sent
/// fan-out. The caller sends the fan-out itself, right after
/// [`begin`](Self::begin): a repair's is re-sent by its
/// [`RepairDriver`](crate::RepairDriver).
#[derive(Debug)]
pub struct PhaseDriver<P, K = u64> {
    running: Option<(P, K)>,
    needed: usize,
    /// Responders of the phase in flight: at most `n` servers, scanned
    /// linearly.
    responders: Vec<ProcessId>,
}

impl<P, K> Default for PhaseDriver<P, K> {
    /// No phase in flight.
    fn default() -> Self {
        PhaseDriver {
            running: None,
            needed: 0,
            responders: Vec::new(),
        }
    }
}

impl<P: QuorumPhase, K: Copy + Eq> PhaseDriver<P, K> {
    /// Starts `phase` of operation `key`, waiting for as many distinct
    /// responders as its row of the quorum table says, evaluated in `sizes`;
    /// whatever ran before is forgotten.
    pub fn begin(&mut self, phase: P, key: K, sizes: &QuorumSizes) {
        self.running = Some((phase, key));
        self.needed = sizes.of(phase.quorum());
        self.responders.clear();
    }

    /// Ends the phase in flight: the driver is idle until the next
    /// [`begin`](Self::begin).
    pub fn end(&mut self) {
        self.running = None;
    }

    /// The phase in flight; `None` when idle.
    pub fn phase(&self) -> Option<P> {
        self.running.map(|(phase, _)| phase)
    }

    /// Whether `phase` of operation `key` is the one in flight.
    pub fn is_running(&self, phase: P, key: K) -> bool {
        self.running == Some((phase, key))
    }

    /// Whether the phase in flight has heard from its threshold of
    /// responders.
    pub fn reached(&self) -> bool {
        self.running.is_some() && self.responders.len() >= self.needed
    }

    /// Records a reply from `from` to `phase` of operation `key`.
    pub fn record(&mut self, phase: P, key: K, from: ProcessId) -> Reply {
        if !self.is_running(phase, key) || self.responders.contains(&from) {
            return Reply::Ignored;
        }
        self.responders.push(from);
        if self.responders.len() == self.needed {
            Reply::Completed
        } else {
            Reply::Counted
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Layout, Quorum};

    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Phase {
        Get,
        Put,
    }

    /// Both phases wait for `k + 2e` replies, which is `k` at `e = 0`.
    impl QuorumPhase for Phase {
        const QUORUMS: &'static [(Phase, Quorum)] =
            &[(Phase::Get, Quorum::KPlus2E), (Phase::Put, Quorum::KPlus2E)];
    }

    /// Quorums in which `k + 2e` is `needed`.
    fn sizes(needed: usize) -> QuorumSizes {
        QuorumSizes::new(&Layout::new(vec![ProcessId(0)], 0), needed, 0)
    }

    /// Begins `(Get, seq 1)` waiting for `needed` responders, feeds it
    /// `replies` as `(phase, seq, from)`, and checks what each reply is and
    /// whether the threshold is reached after them.
    fn check(needed: usize, replies: &[(Phase, u64, u32)], expected: &[Reply], reached: bool) {
        let mut driver = PhaseDriver::default();
        assert_eq!((driver.phase(), driver.reached()), (None, false), "idle");
        driver.begin(Phase::Get, 1, &sizes(needed));
        assert_eq!(driver.phase(), Some(Phase::Get));
        let got: Vec<Reply> = replies
            .iter()
            .map(|&(phase, seq, from)| driver.record(phase, seq, ProcessId(from)))
            .collect();
        assert_eq!(got, expected, "needed {needed}");
        assert_eq!(driver.reached(), reached, "needed {needed}");
    }

    #[test]
    fn quorum_completes_after_needed_distinct_responses() {
        use Reply::{Completed, Counted, Ignored};
        // Three distinct responders complete; a duplicate counts once; a
        // reply after the threshold does not complete again.
        check(
            3,
            &[
                (Phase::Get, 1, 0),
                (Phase::Get, 1, 1),
                (Phase::Get, 1, 1),
                (Phase::Get, 1, 2),
                (Phase::Get, 1, 3),
                (Phase::Get, 1, 2),
            ],
            &[Counted, Counted, Ignored, Completed, Counted, Ignored],
            true,
        );
        // One responder suffices.
        check(1, &[(Phase::Get, 1, 9)], &[Completed], true);
    }

    #[test]
    fn stale_sequence_numbers_and_other_phases_are_dropped() {
        use Reply::{Counted, Ignored};
        check(
            2,
            &[(Phase::Get, 0, 0), (Phase::Put, 1, 1), (Phase::Get, 1, 4)],
            &[Ignored, Ignored, Counted],
            false,
        );
    }

    #[test]
    fn zero_needed_is_immediately_complete() {
        // Nothing needed: reached at once, never reported.
        check(0, &[(Phase::Get, 1, 0)], &[Reply::Counted], true);
    }

    #[test]
    fn begin_resets_the_count_and_end_goes_idle() {
        let mut driver = PhaseDriver::default();
        driver.begin(Phase::Get, 7, &sizes(2));
        assert_eq!(driver.record(Phase::Get, 7, ProcessId(0)), Reply::Counted);
        assert_eq!(driver.record(Phase::Get, 7, ProcessId(1)), Reply::Completed);

        // The next phase counts the same responders afresh; the last
        // phase's replies are stale.
        driver.begin(Phase::Put, 7, &sizes(2));
        assert!(driver.is_running(Phase::Put, 7) && !driver.reached());
        assert_eq!(driver.record(Phase::Get, 7, ProcessId(2)), Reply::Ignored);
        assert_eq!(driver.record(Phase::Put, 7, ProcessId(1)), Reply::Counted);
        assert_eq!(driver.record(Phase::Put, 7, ProcessId(0)), Reply::Completed);

        driver.end();
        assert_eq!((driver.phase(), driver.reached()), (None, false));
        assert_eq!(driver.record(Phase::Put, 7, ProcessId(2)), Reply::Ignored);
    }
}
