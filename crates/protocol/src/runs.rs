//! Exact sets of per-origin counters, stored as runs.
//!
//! Every id the protocols deduplicate is dense per origin: a writer's
//! dispersals are numbered by its operation `seq`, readers and servers count
//! their dispersals and operations from 1, and a replacement server counts
//! from `epoch << 32`. A set of such ids is a handful of intervals per
//! origin, so it is stored as one, not as a hash entry per id that only ever
//! grows.

use soda_simnet::ProcessId;

/// The inclusive counter interval `[first, last]` of one origin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Run {
    origin: ProcessId,
    first: u64,
    last: u64,
}

/// A set of `(origin, counter)` pairs that stores, per origin, the sorted,
/// disjoint and non-adjacent runs of consecutive counters it holds.
///
/// Membership is exact — [`RunSet::insert`] returns what
/// `HashSet::insert` would — while memory follows the number of gaps, not
/// the number of ids: a relay that has seen every dispersal of an origin
/// holds one run for it, whatever the uptime.
#[derive(Clone, Debug, Default)]
pub struct RunSet {
    /// Sorted by `(origin, first)`.
    runs: Vec<Run>,
    ids: usize,
}

impl RunSet {
    /// Adds `(origin, counter)`; returns `false` if it was already present.
    pub fn insert(&mut self, origin: ProcessId, counter: u64) -> bool {
        let at = self.run_after(origin, counter);
        // `at - 1` is the last run starting at or before the counter.
        if let Some(prev) = at.checked_sub(1).map(|i| &mut self.runs[i]) {
            if prev.origin == origin && counter <= prev.last {
                return false;
            }
            // `prev.last < counter`, so the increment cannot overflow.
            if prev.origin == origin && prev.last + 1 == counter {
                prev.last = counter;
                self.ids += 1;
                if self.joins_next(at, origin, counter) {
                    self.runs[at - 1].last = self.runs[at].last;
                    self.runs.remove(at);
                }
                return true;
            }
        }
        self.ids += 1;
        if self.joins_next(at, origin, counter) {
            self.runs[at].first = counter;
        } else {
            self.runs.insert(
                at,
                Run {
                    origin,
                    first: counter,
                    last: counter,
                },
            );
        }
        true
    }

    /// Whether `(origin, counter)` is present.
    pub fn contains(&self, origin: ProcessId, counter: u64) -> bool {
        let at = self.run_after(origin, counter);
        at.checked_sub(1)
            .map(|i| self.runs[i])
            .is_some_and(|prev| prev.origin == origin && counter <= prev.last)
    }

    /// Number of ids held (not runs).
    pub fn len(&self) -> usize {
        self.ids
    }

    /// Whether no id is held.
    pub fn is_empty(&self) -> bool {
        self.ids == 0
    }

    /// Number of runs held, across all origins.
    pub fn runs(&self) -> usize {
        self.runs.len()
    }

    /// Number of distinct origins with at least one id.
    pub fn origins(&self) -> usize {
        let changes = self.runs.windows(2).filter(|w| w[0].origin != w[1].origin);
        self.runs.first().map_or(0, |_| 1 + changes.count())
    }

    /// Index of the first run that starts after `(origin, counter)`.
    fn run_after(&self, origin: ProcessId, counter: u64) -> usize {
        self.runs
            .partition_point(|r| (r.origin, r.first) <= (origin, counter))
    }

    /// Whether the run at `at` belongs to `origin` and starts right after
    /// `counter`.
    fn joins_next(&self, at: usize, origin: ProcessId, counter: u64) -> bool {
        self.runs
            .get(at)
            .is_some_and(|next| next.origin == origin && counter.checked_add(1) == Some(next.first))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::md::MessageId;
    use soda_simnet::rng::SimRng;
    use std::collections::HashSet;

    /// Drives a `RunSet` and a `HashSet<MessageId>` reference with the same
    /// inserts and demands equal answers after every step.
    fn check_against_reference(counters: impl Fn(&mut SimRng) -> u64, seed: u64) {
        let mut rng = SimRng::network(seed);
        let mut set = RunSet::default();
        let mut reference: HashSet<MessageId> = HashSet::new();
        let mut probes: Vec<MessageId> = Vec::new();
        for _ in 0..4_000 {
            let id = MessageId::new(ProcessId(rng.gen_range(0..4u32)), counters(&mut rng));
            assert_eq!(
                set.insert(id.origin, id.counter),
                reference.insert(id),
                "insert {id:?}"
            );
            assert_eq!(set.len(), reference.len());
            probes.push(id);
            for probe in [id, MessageId::new(id.origin, id.counter.wrapping_add(1))]
                .into_iter()
                .chain(probes.get(rng.gen_range(0..probes.len())).copied())
            {
                assert_eq!(
                    set.contains(probe.origin, probe.counter),
                    reference.contains(&probe),
                    "contains {probe:?}"
                );
            }
        }
        // Runs are sorted, disjoint and non-adjacent, so they are minimal.
        for pair in set.runs.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            assert!(a.first <= a.last);
            if a.origin == b.origin {
                assert!(a.last + 1 < b.first, "{a:?} and {b:?} should be one run");
            } else {
                assert!(a.origin < b.origin);
            }
        }
    }

    #[test]
    fn matches_a_hash_set_on_dense_out_of_order_counters() {
        // Small counters: many duplicates, gaps that open and close.
        check_against_reference(|rng| rng.gen_range(0..300u64), 1);
    }

    #[test]
    fn matches_a_hash_set_across_the_epoch_jump() {
        // A replacement's ids start at `epoch << 32`, next to the previous
        // incarnation's small counters.
        check_against_reference(
            |rng| {
                let epoch = rng.gen_range(0..3u64);
                (epoch << 32) + rng.gen_range(0..60u64)
            },
            2,
        );
    }

    #[test]
    fn matches_a_hash_set_at_the_ends_of_the_counter_range() {
        check_against_reference(
            |rng| {
                if rng.gen_bool(0.5) {
                    rng.gen_range(0..40u64)
                } else {
                    u64::MAX - rng.gen_range(0..40u64)
                }
            },
            3,
        );
    }

    #[test]
    fn in_order_ids_of_one_origin_are_one_run() {
        let mut set = RunSet::default();
        for origin in [ProcessId(3), ProcessId(1)] {
            for counter in 1..=1_000 {
                assert!(set.insert(origin, counter));
            }
        }
        assert_eq!((set.len(), set.runs(), set.origins()), (2_000, 2, 2));
        // A gap, filled later, merges back into one run.
        assert!(set.insert(ProcessId(1), 1_002));
        assert_eq!(set.runs(), 3);
        assert!(set.insert(ProcessId(1), 1_001));
        assert_eq!((set.runs(), set.len()), (2, 2_002));
        assert!(!set.insert(ProcessId(1), 500));
        assert!(set.insert(ProcessId(1), 0));
        assert!(set.insert(ProcessId(2), u64::MAX));
        assert!(!set.insert(ProcessId(2), u64::MAX));
        assert!(set.contains(ProcessId(2), u64::MAX));
        assert!(!set.contains(ProcessId(2), 0));
        assert_eq!((set.runs(), set.origins()), (3, 3));
        assert!(!RunSet::default().contains(ProcessId(0), 0));
        assert!(RunSet::default().is_empty());
    }
}
