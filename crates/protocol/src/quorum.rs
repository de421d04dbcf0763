//! Quorum response collection.

use soda_simnet::ProcessId;
use std::collections::BTreeMap;

/// Collects one response per process until a target count is reached.
///
/// Used by every phase that waits for a majority (write-get, read-get, ABD
/// phases) or for `k` acknowledgements (write-put). Duplicate responses from
/// the same process are ignored, which makes the tracker idempotent under
/// message duplication.
#[derive(Clone, Debug)]
pub struct QuorumTracker<T> {
    needed: usize,
    responses: BTreeMap<ProcessId, T>,
}

impl<T> QuorumTracker<T> {
    /// Creates a tracker requiring `needed` distinct responses.
    pub fn new(needed: usize) -> Self {
        QuorumTracker {
            needed,
            responses: BTreeMap::new(),
        }
    }

    /// Records a response from `from`. Returns `true` if this response was new
    /// (not a duplicate).
    pub fn record(&mut self, from: ProcessId, response: T) -> bool {
        if self.responses.contains_key(&from) {
            return false;
        }
        self.responses.insert(from, response);
        true
    }

    /// Whether the quorum has been reached.
    pub fn is_complete(&self) -> bool {
        self.responses.len() >= self.needed
    }

    /// Number of distinct responses recorded so far.
    pub fn count(&self) -> usize {
        self.responses.len()
    }

    /// Required number of responses.
    pub fn needed(&self) -> usize {
        self.needed
    }

    /// Iterator over the recorded responses.
    pub fn responses(&self) -> impl Iterator<Item = (&ProcessId, &T)> {
        self.responses.iter()
    }

    /// The maximum response according to `Ord`, if any (e.g. the highest tag
    /// in a get phase).
    pub fn max_response(&self) -> Option<&T>
    where
        T: Ord,
    {
        self.responses.values().max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_completes_after_needed_distinct_responses() {
        let mut q: QuorumTracker<u32> = QuorumTracker::new(3);
        assert!(!q.is_complete());
        assert!(q.record(ProcessId(0), 5));
        assert!(q.record(ProcessId(1), 7));
        assert!(!q.is_complete());
        // Duplicate is ignored.
        assert!(!q.record(ProcessId(1), 100));
        assert_eq!(q.count(), 2);
        assert!(q.record(ProcessId(2), 1));
        assert!(q.is_complete());
        assert_eq!(q.needed(), 3);
        assert_eq!(q.max_response(), Some(&7));
    }

    #[test]
    fn responses_are_retrievable() {
        let mut q: QuorumTracker<&'static str> = QuorumTracker::new(2);
        q.record(ProcessId(4), "a");
        q.record(ProcessId(2), "b");
        let all: Vec<_> = q.responses().map(|(p, v)| (*p, *v)).collect();
        assert_eq!(all, vec![(ProcessId(2), "b"), (ProcessId(4), "a")]);
    }

    #[test]
    fn zero_needed_is_immediately_complete() {
        let q: QuorumTracker<()> = QuorumTracker::new(0);
        assert!(q.is_complete());
        assert_eq!(q.max_response(), None);
    }
}
