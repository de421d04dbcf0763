//! The atomicity and linearizability checkers.

use crate::history::{History, Kind, Op, OpId, Version};
use std::fmt;

/// A violation of the atomicity conditions of Lemma 2.1.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// The history is not well formed: a client overlapped two of its own
    /// operations.
    NotWellFormed {
        /// The earlier operation.
        first: OpId,
        /// The overlapping later operation.
        second: OpId,
    },
    /// P1 violated: `earlier` completed before `later` was invoked, but the
    /// tag order puts `later` strictly before `earlier`.
    RealTimeOrderViolated {
        /// The operation that finished first.
        earlier: OpId,
        /// The operation that started later but is ordered before `earlier`.
        later: OpId,
    },
    /// P2 violated: two distinct writes carry the same version.
    DuplicateWriteVersion {
        /// First write.
        first: OpId,
        /// Second write with the same version.
        second: OpId,
    },
    /// P3 violated: a read returned a value inconsistent with the write whose
    /// version it carries (or with the initial value).
    WrongReadValue {
        /// The offending read.
        read: OpId,
    },
    /// A read carries a non-initial version for which no write exists in the
    /// history.
    ReadOfUnknownVersion {
        /// The offending read.
        read: OpId,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::NotWellFormed { first, second } => {
                write!(f, "client overlapped operations {first} and {second}")
            }
            Violation::RealTimeOrderViolated { earlier, later } => write!(
                f,
                "operation {later} is ordered before {earlier} although {earlier} finished first"
            ),
            Violation::DuplicateWriteVersion { first, second } => {
                write!(f, "writes {first} and {second} share the same version")
            }
            Violation::WrongReadValue { read } => {
                write!(
                    f,
                    "read {read} returned a value inconsistent with its version"
                )
            }
            Violation::ReadOfUnknownVersion { read } => {
                write!(f, "read {read} carries a version no write produced")
            }
        }
    }
}

impl std::error::Error for Violation {}

/// Is `a ≺ b` in the tag-based partial order of the SODA proof?
/// `a ≺ b` iff `tag(a) < tag(b)`, or the tags are equal and `a` is a write
/// while `b` is a read.
fn before(a: &Op, b: &Op) -> bool {
    a.version < b.version
        || (a.version == b.version && a.kind == Kind::Write && b.kind == Kind::Read)
}

/// The position of `op` in the tag-based order: [`before`]`(a, b)` iff
/// `rank(a) < rank(b)`.
fn rank(op: &Op) -> (Version, bool) {
    (op.version, op.kind == Kind::Read)
}

/// Checks P1/P2/P3 of Lemma 2.1 under the tag-based order. A history
/// [`holds`] passes in `O(n log n)`; any other one goes through [`scan`],
/// which names the first violation.
pub(crate) fn check_atomicity(history: &History) -> Result<(), Violation> {
    if let Err((first, second)) = history.check_well_formed() {
        return Err(Violation::NotWellFormed { first, second });
    }
    if holds(history) {
        return Ok(());
    }
    scan(history)
}

/// Whether P1, P2 and P3 all hold: `scan(history).is_ok()`, decided in
/// `O(n log n)`.
fn holds(history: &History) -> bool {
    let ops = history.ops();
    // P2: sorted, two writes with one version are neighbours.
    let mut writes: Vec<&Op> = ops.iter().filter(|op| op.kind == Kind::Write).collect();
    writes.sort_unstable_by_key(|write| write.version);
    if writes
        .windows(2)
        .any(|pair| pair[0].version == pair[1].version)
    {
        return false;
    }
    // P3: with P2 holding, each version names at most one write.
    let value_ok = |read: &Op| {
        if read.version == Version::INITIAL {
            return *read.value == *history.initial_value();
        }
        writes
            .binary_search_by_key(&read.version, |write| write.version)
            .is_ok_and(|at| writes[at].value == read.value)
    };
    if !ops.iter().filter(|op| op.kind == Kind::Read).all(value_ok) {
        return false;
    }
    // P1: no `b` is ranked below an `a` that responded before `b` was
    // invoked. Sweep the ops by invocation, keeping the highest rank among
    // the ops that responded earlier.
    let mut by_invocation: Vec<&Op> = ops.iter().collect();
    by_invocation.sort_unstable_by_key(|op| op.invoked);
    let mut by_response: Vec<&Op> = ops.iter().collect();
    by_response.sort_unstable_by_key(|op| op.responded);
    let mut responded = by_response.iter().peekable();
    let mut highest = None;
    by_invocation.iter().all(|b| {
        while let Some(a) = responded.next_if(|a| a.responded < b.invoked) {
            highest = highest.max(Some(rank(a)));
        }
        highest.is_none_or(|highest| rank(b) >= highest)
    })
}

/// The quadratic scan of P2, then P1, then P3; returns the first violation.
fn scan(history: &History) -> Result<(), Violation> {
    let ops = history.ops();

    // P2: distinct writes must have distinct versions (otherwise they are
    // incomparable, so the order would not be total on writes).
    for (i, a) in ops.iter().enumerate() {
        if a.kind != Kind::Write {
            continue;
        }
        for b in ops.iter().skip(i + 1) {
            if b.kind == Kind::Write && a.version == b.version {
                return Err(Violation::DuplicateWriteVersion {
                    first: a.id,
                    second: b.id,
                });
            }
        }
    }

    // P1: the partial order must not contradict real time.
    for a in ops {
        for b in ops {
            if a.id != b.id && a.precedes(b) && before(b, a) {
                return Err(Violation::RealTimeOrderViolated {
                    earlier: a.id,
                    later: b.id,
                });
            }
        }
    }

    // P3: a read's value must match the write carrying the same version, or
    // the initial value when the version is the initial one.
    for read in ops.iter().filter(|op| op.kind == Kind::Read) {
        if read.version == Version::INITIAL {
            if *read.value != *history.initial_value() {
                return Err(Violation::WrongReadValue { read: read.id });
            }
            continue;
        }
        match ops
            .iter()
            .find(|w| w.kind == Kind::Write && w.version == read.version)
        {
            None => return Err(Violation::ReadOfUnknownVersion { read: read.id }),
            Some(write) => {
                if write.value != read.value {
                    return Err(Violation::WrongReadValue { read: read.id });
                }
            }
        }
    }
    Ok(())
}

/// Brute-force linearizability check: searches for a total order of the
/// operations that respects real-time precedence and register semantics
/// (every read returns the most recently written value, or the initial value).
/// Versions are ignored. Exponential in the worst case — use on small
/// histories only.
pub fn check_linearizable(history: &History) -> bool {
    let ops = history.ops();
    if ops.len() > 20 {
        panic!("brute-force linearizability check limited to 20 operations");
    }
    let mut linearized = vec![false; ops.len()];
    search(history, &mut linearized, history.initial_value(), ops.len())
}

fn search(history: &History, linearized: &mut Vec<bool>, current: &[u8], remaining: usize) -> bool {
    if remaining == 0 {
        return true;
    }
    let ops = history.ops();
    for candidate in 0..ops.len() {
        if linearized[candidate] {
            continue;
        }
        // A candidate is minimal if no other un-linearized operation finished
        // before the candidate was invoked.
        let minimal = ops.iter().all(|other| {
            linearized[other.id] || other.id == candidate || !other.precedes(&ops[candidate])
        });
        if !minimal {
            continue;
        }
        let op = &ops[candidate];
        match op.kind {
            Kind::Read => {
                if *op.value == *current {
                    linearized[candidate] = true;
                    if search(history, linearized, current, remaining - 1) {
                        return true;
                    }
                    linearized[candidate] = false;
                }
            }
            Kind::Write => {
                linearized[candidate] = true;
                if search(history, linearized, &op.value, remaining - 1) {
                    return true;
                }
                linearized[candidate] = false;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::History;
    use std::sync::Arc;

    fn v(z: u64, w: u64) -> Version {
        Version::new(z, w)
    }

    #[test]
    fn sequential_write_read_is_atomic() {
        let mut h = History::new(Vec::new());
        h.push(1, Kind::Write, 0, 10, b"a".to_vec(), v(1, 1));
        h.push(2, Kind::Read, 20, 30, b"a".to_vec(), v(1, 1));
        assert!(h.check_atomicity().is_ok());
        assert!(h.check_linearizable_brute_force());
    }

    #[test]
    fn read_of_initial_value_is_atomic() {
        let mut h = History::new(b"init".to_vec());
        h.push(1, Kind::Read, 0, 5, b"init".to_vec(), Version::INITIAL);
        assert!(h.check_atomicity().is_ok());
        assert!(h.check_linearizable_brute_force());
    }

    #[test]
    fn stale_read_after_write_completes_is_a_violation() {
        let mut h = History::new(b"init".to_vec());
        h.push(1, Kind::Write, 0, 10, b"new".to_vec(), v(1, 1));
        // Read starts after the write completed but returns the initial value.
        h.push(2, Kind::Read, 20, 30, b"init".to_vec(), Version::INITIAL);
        assert!(matches!(
            h.check_atomicity(),
            Err(Violation::RealTimeOrderViolated { .. })
        ));
        assert!(!h.check_linearizable_brute_force());
    }

    #[test]
    fn concurrent_read_may_return_either_value() {
        // Write of "b" overlaps the read; the read may return "a" (old) or "b".
        for (returned, version) in [(b"a".to_vec(), v(1, 1)), (b"b".to_vec(), v(2, 2))] {
            let mut h = History::new(Vec::new());
            h.push(1, Kind::Write, 0, 10, b"a".to_vec(), v(1, 1));
            h.push(2, Kind::Write, 20, 40, b"b".to_vec(), v(2, 2));
            h.push(3, Kind::Read, 25, 35, returned.clone(), version);
            assert!(h.check_atomicity().is_ok(), "returned {returned:?}");
            assert!(h.check_linearizable_brute_force());
        }
    }

    #[test]
    fn new_old_inversion_between_reads_is_a_violation() {
        // Read r1 finishes before r2 starts; r1 returns the new value but r2
        // returns the old one — the classic regular-but-not-atomic anomaly.
        let mut h = History::new(Vec::new());
        h.push(1, Kind::Write, 0, 50, b"old".to_vec(), v(1, 1));
        h.push(1, Kind::Write, 60, 100, b"new".to_vec(), v(2, 1));
        h.push(2, Kind::Read, 65, 70, b"new".to_vec(), v(2, 1));
        h.push(3, Kind::Read, 75, 80, b"old".to_vec(), v(1, 1));
        assert!(matches!(
            h.check_atomicity(),
            Err(Violation::RealTimeOrderViolated { .. })
        ));
        assert!(!h.check_linearizable_brute_force());
    }

    #[test]
    fn duplicate_write_versions_are_rejected() {
        let mut h = History::new(Vec::new());
        h.push(1, Kind::Write, 0, 10, b"a".to_vec(), v(1, 1));
        h.push(2, Kind::Write, 20, 30, b"b".to_vec(), v(1, 1));
        assert_eq!(
            h.check_atomicity(),
            Err(Violation::DuplicateWriteVersion {
                first: 0,
                second: 1
            })
        );
    }

    #[test]
    fn wrong_read_value_for_version_is_rejected() {
        let mut h = History::new(Vec::new());
        h.push(1, Kind::Write, 0, 10, b"a".to_vec(), v(1, 1));
        h.push(2, Kind::Read, 20, 30, b"z".to_vec(), v(1, 1));
        assert_eq!(
            h.check_atomicity(),
            Err(Violation::WrongReadValue { read: 1 })
        );
    }

    #[test]
    fn read_of_unknown_version_is_rejected() {
        let mut h = History::new(Vec::new());
        h.push(2, Kind::Read, 20, 30, b"ghost".to_vec(), v(9, 9));
        assert_eq!(
            h.check_atomicity(),
            Err(Violation::ReadOfUnknownVersion { read: 0 })
        );
    }

    #[test]
    fn ill_formed_history_is_rejected() {
        let mut h = History::new(Vec::new());
        h.push(1, Kind::Write, 0, 10, b"a".to_vec(), v(1, 1));
        h.push(1, Kind::Write, 5, 20, b"b".to_vec(), v(2, 1));
        assert!(matches!(
            h.check_atomicity(),
            Err(Violation::NotWellFormed { .. })
        ));
    }

    /// A well-formed history of up to 40 ops by four clients, atomic unless
    /// one edit breaks it. Each op takes effect at a point inside its
    /// interval; in point order, writes take rising versions and each read
    /// returns the last write's. The edit, in 3 of 5 histories, moves a read
    /// or write to another version or gives a read another value.
    fn random_history(rng: &mut soda_simnet::rng::SimRng) -> History {
        let mut next_free = [0u64; 4];
        let (mut ops, mut points) = (Vec::new(), Vec::new());
        for id in 0..rng.gen_range(0..40usize) {
            let client = rng.gen_range(0..4usize);
            let invoked = next_free[client].max(rng.gen_range(0..200u64));
            let responded = invoked + rng.gen_range(0..30u64);
            next_free[client] = responded + 1;
            points.push(rng.gen_range(invoked..=responded));
            ops.push(Op {
                id,
                client: client as u64,
                kind: [Kind::Write, Kind::Read][rng.gen_range(0..2usize)],
                invoked,
                responded,
                value: Arc::from([]),
                version: Version::INITIAL,
            });
        }
        let mut order: Vec<usize> = (0..ops.len()).collect();
        order.sort_by_key(|&i| (points[i], i));
        let mut last: (Arc<[u8]>, Version) = (Arc::from(&b"v0"[..]), Version::INITIAL);
        for (writes, i) in (1..).zip(order) {
            let op = &mut ops[i];
            if op.kind == Kind::Write {
                let value = [writes as u8, op.client as u8];
                last = (Arc::from(&value[..]), v(writes, op.client));
            }
            (op.value, op.version) = last.clone();
        }
        if !ops.is_empty() && rng.gen_bool(0.6) {
            let (donor, edited) = (rng.gen_range(0..ops.len()), rng.gen_range(0..ops.len()));
            let donor = ops[donor].clone();
            let op = &mut ops[edited];
            match (rng.gen_range(0..4u64), op.kind) {
                (0, Kind::Read) => (op.value, op.version) = (donor.value, donor.version),
                (1, Kind::Read) => op.value = Arc::from(&b"junk"[..]),
                (2, Kind::Read) => op.version = v(op.version.z, 9),
                (_, Kind::Write) => op.version = donor.version,
                _ => op.version = v(op.version.z.saturating_sub(1), op.version.writer),
            }
        }
        let mut history = History::new(b"v0".to_vec());
        for op in ops {
            let Op {
                client,
                kind,
                invoked,
                responded,
                value,
                version,
                ..
            } = op;
            history.push(client, kind, invoked, responded, value, version);
        }
        history
    }

    #[test]
    fn the_fast_pass_decides_exactly_what_the_scan_rejects() {
        let mut rng = soda_simnet::rng::SimRng::new(0xa70);
        let mut seen = std::collections::BTreeMap::<&str, usize>::new();
        for case in 0..4_000 {
            let history = random_history(&mut rng);
            assert!(history.check_well_formed().is_ok());
            let reference = scan(&history);
            assert_eq!(
                holds(&history),
                reference.is_ok(),
                "case {case}: {history:?}"
            );
            assert_eq!(check_atomicity(&history), reference);
            let outcome = match reference {
                Ok(()) => "atomic",
                Err(Violation::RealTimeOrderViolated { .. }) => "P1",
                Err(Violation::DuplicateWriteVersion { .. }) => "P2",
                Err(Violation::WrongReadValue { .. }) => "P3 value",
                Err(Violation::ReadOfUnknownVersion { .. }) => "P3 unknown",
                Err(Violation::NotWellFormed { .. }) => unreachable!("checked above"),
            };
            *seen.entry(outcome).or_default() += 1;
        }
        assert_eq!(seen.len(), 5, "{seen:?}");
        assert!(seen.values().all(|&count| count >= 100), "{seen:?}");
    }

    #[test]
    fn violations_display_readably() {
        let violations = [
            Violation::NotWellFormed {
                first: 1,
                second: 2,
            },
            Violation::RealTimeOrderViolated {
                earlier: 1,
                later: 2,
            },
            Violation::DuplicateWriteVersion {
                first: 1,
                second: 2,
            },
            Violation::WrongReadValue { read: 3 },
            Violation::ReadOfUnknownVersion { read: 4 },
        ];
        for v in violations {
            assert!(!v.to_string().is_empty());
        }
    }

    #[test]
    fn brute_force_finds_subtle_valid_interleavings() {
        // Three concurrent writes and a read that returns the middle one — a
        // serialization exists (w1, w3-read order chosen appropriately).
        let mut h = History::new(Vec::new());
        h.push(1, Kind::Write, 0, 100, b"one".to_vec(), v(1, 1));
        h.push(2, Kind::Write, 0, 100, b"two".to_vec(), v(1, 2));
        h.push(3, Kind::Write, 0, 100, b"three".to_vec(), v(1, 3));
        h.push(4, Kind::Read, 0, 100, b"two".to_vec(), v(1, 2));
        assert!(h.check_linearizable_brute_force());
    }

    #[test]
    #[should_panic(expected = "limited to 20 operations")]
    fn brute_force_refuses_large_histories() {
        let mut h = History::new(Vec::new());
        for i in 0..21 {
            h.push(i, Kind::Write, i * 10, i * 10 + 5, vec![i as u8], v(i, i));
        }
        let _ = h.check_linearizable_brute_force();
    }
}
