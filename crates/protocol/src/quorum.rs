//! Reply thresholds. Atomicity rests on quorum intersection, which depends
//! only on how many replies each phase waits for, so each protocol states
//! those counts once: a `const` table from its phase enum to a [`Quorum`].

use crate::Layout;

/// A phase's reply threshold, in the terms the proofs use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Quorum {
    /// A majority, `⌊n/2⌋ + 1`.
    Majority,
    /// `n − f`: every server but the `f` that may crash.
    NMinusF,
    /// `max(k, ⌊n/2⌋ + 1)`: `k` coded elements, and never fewer replies
    /// than a majority, so that the phase meets every majority.
    KAtLeastMajority,
    /// `k + 2e`: enough coded elements to decode past `e` corrupted ones.
    KPlus2E,
}

/// A protocol's phase enum and its quorum table.
pub trait QuorumPhase: Copy + Eq + 'static {
    /// Every phase with the replies it waits for.
    const QUORUMS: &'static [(Self, Quorum)];

    /// `self`'s row of [`Self::QUORUMS`].
    fn quorum(self) -> Quorum {
        let row = Self::QUORUMS.iter().find(|&&(phase, _)| phase == self);
        row.expect("every phase has a row in its quorum table").1
    }
}

/// One deployment's quorums, evaluated once by
/// [`Deployment::new`](crate::Deployment::new) from its layout, its code
/// dimension `k` and its error budget `e`; indexed by [`Quorum`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuorumSizes([usize; 4]);

impl QuorumSizes {
    /// The quorums on `layout` of a code of dimension `k` with error budget
    /// `e`. Replication is the `k = 1` code.
    pub(crate) fn new(layout: &Layout, k: usize, e: usize) -> Self {
        let (majority, n_minus_f) = (layout.majority(), layout.n() - layout.f());
        QuorumSizes([majority, n_minus_f, k.max(majority), k + 2 * e])
    }

    /// How many replies `quorum` is here.
    pub fn of(&self, quorum: Quorum) -> usize {
        self.0[quorum as usize]
    }

    /// **Test-only.** The same quorums with a majority of `majority`, which
    /// may be too small to intersect: ABD's unsound override.
    pub fn with_majority(mut self, majority: usize) -> Self {
        self.0[Quorum::Majority as usize] = majority;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soda_simnet::ProcessId;

    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Phase {
        Get,
        Put,
    }

    impl QuorumPhase for Phase {
        const QUORUMS: &'static [(Phase, Quorum)] = &[
            (Phase::Get, Quorum::Majority),
            (Phase::Put, Quorum::KPlus2E),
        ];
    }

    #[test]
    fn each_phase_reads_its_row_evaluated_for_the_deployment() {
        let layout = Layout::new((0..9).map(ProcessId).collect(), 2);
        let sizes = QuorumSizes::new(&layout, 3, 2);
        let needed = |phase: Phase| sizes.of(phase.quorum());
        assert_eq!((needed(Phase::Get), needed(Phase::Put)), (5, 7));
        // A majority of 9 is 5: above k = 3, below k = 6.
        let at_least_majority = |k| QuorumSizes::new(&layout, k, 0).of(Quorum::KAtLeastMajority);
        assert_eq!((at_least_majority(3), at_least_majority(6)), (5, 6));
        assert_eq!(sizes.of(Quorum::NMinusF), 7);

        let unsound = sizes.with_majority(1);
        assert_eq!(unsound.of(Phase::Get.quorum()), 1);
        assert_eq!(unsound.of(Quorum::KPlus2E), 7, "only the majority moves");
    }
}
