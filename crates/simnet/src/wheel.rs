//! A timing-wheel event queue: the scheduler's hot path.
//!
//! The simulator schedules almost every event a handful of ticks into the
//! future (message delays are small integers), so a classic binary heap pays
//! an `O(log n)` sift of large event structs on every push and pop for
//! ordering power it never needs. This wheel keeps a ring of FIFO buckets for
//! the next [`SPAN`] ticks — push and pop are `O(1)` — and spills the rare
//! far-future event (long timers, fault-plan crashes) into an overflow heap
//! that migrates events into the ring as the cursor approaches them.
//!
//! Pop order is exactly ascending `(at, seq)`, identical to the binary heap
//! it replaces, so seeded executions are bit-for-bit unchanged:
//!
//! * Within one bucket, events are FIFO. Sequence numbers are assigned in
//!   push order, so FIFO equals ascending `seq`.
//! * A tick's bucket only receives *near* pushes after the tick has entered
//!   the wheel's window, and all overflow events for that tick migrate (in
//!   heap order) at the moment the window reaches it — before any near push
//!   can target it — so migrated events keep their lower sequence numbers
//!   ahead of later near pushes.
//!
//! Memory follows the live events, not the window. Near events sit in one
//! slab of slots; each bucket is a FIFO chained through the slots by index,
//! and popped slots go on a free list that the next push reuses. While the
//! wheel is busy, the slab therefore holds exactly as many slots as the most
//! near events ever live at once — a fresh wheel allocates nothing — and
//! once it has grown to that peak, pushes and pops allocate nothing either.
//! An idle wheel gives the slab back: [`EventWheel::release_if_empty`] takes
//! every slot of an empty wheel and keeps only the chain links. A released
//! slab goes to a process-wide [`Reserve`] of empty slabs, one per event
//! type, and the next wheel of that type to refill takes it from there. The
//! reserve keeps as many slabs as its recent bursts of refills took, and
//! frees the rest. Handing every released slab back to the allocator
//! instead fragments its heap: in a store of 4 KiB values, the CAS and
//! CASGC clusters then took about 30 % longer per event. A refill takes
//! whichever slab was released last, whatever its size, and a slab only
//! grows, so the wheels of one event type drift toward the largest burst
//! any of them had (SODA and SODAerr clusters share one type; in a store
//! they share `n`, and so about the same `n²` read burst). Slot indices
//! never decide pop order, so neither a release nor the slab a refill
//! receives changes a schedule.
//!
//! A bucket's head is a chain link like a slot's successor, and an empty
//! bucket's tail is its head, so an append is two stores and never branches
//! on whether the bucket was empty, which a hot event loop would mispredict
//! about every other push.

use std::any::{Any, TypeId};
use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::{Mutex, PoisonError};

/// Width of the near window in ticks. Power of two (the bucket index is
/// `at % SPAN`); comfortably larger than every delay model's typical range so
/// the overflow heap stays empty in ordinary executions.
const SPAN: u64 = 64;

/// Empty slabs that idle wheels of one event type released, for the next
/// wheels of that type to refill from.
///
/// How many to keep is what the reserve observes: the refills it serves
/// between two releases, its bursts. A store submits a round's operations
/// before it drains, so every key the round wakes refills in one burst, and
/// the round's drain then releases the keys the round skipped, for the next
/// round's burst to take back. The reserve keeps as many slabs as the larger
/// of its last two bursts took, and frees the rest. So one narrow burst in
/// between (a lone put, a crash scheduled into every cluster) does not make
/// it free slabs the next round wants, and one wide burst (a store's preload
/// of every key) is forgotten two bursts later.
#[derive(Default)]
struct Reserve {
    /// Empty `Vec<Option<E>>` slabs, boxed as `Any`; a refill takes the
    /// last.
    slabs: Vec<Box<dyn Any + Send>>,
    /// Refills since the last release: the burst in progress.
    burst: usize,
    /// The last two completed bursts, the latest first.
    bursts: [usize; 2],
}

impl Reserve {
    /// The most slabs the reserve keeps.
    fn keep(&self) -> usize {
        self.bursts[0].max(self.bursts[1])
    }

    /// Counts a refill and hands it the slab released last, if any.
    fn refill(&mut self) -> Option<Box<dyn Any + Send>> {
        self.burst += 1;
        self.slabs.pop()
    }

    /// Takes `slab` if there is room; drops it otherwise.
    fn release(&mut self, slab: Box<dyn Any + Send>) {
        if self.burst > 0 {
            self.bursts = [self.burst, self.bursts[0]];
            self.burst = 0;
            self.slabs.truncate(self.keep());
        }
        if self.slabs.len() < self.keep() {
            self.slabs.push(slab);
        }
    }
}

/// The reserves, by event type. One lock for the process, not one reserve
/// per thread: the store's drain releases on its worker threads, which end
/// with the drain, and its next round refills on the thread that submits.
/// A wheel takes the lock once when it goes idle and once when it wakes, not
/// per event; how it contends with more than two drain threads has not been
/// measured.
static RESERVES: Mutex<BTreeMap<TypeId, Reserve>> = Mutex::new(BTreeMap::new());

/// An entry the wheel can order: a scheduled time in ticks plus the
/// monotonically increasing sequence number assigned at push time.
pub(crate) trait Scheduled {
    /// Scheduled time in ticks.
    fn at_ticks(&self) -> u64;
    /// Global push sequence number (strictly increasing across pushes).
    fn seq(&self) -> u64;
}

/// Overflow-heap wrapper ordering events by `(at, seq)` without requiring
/// `Ord` on the event type itself.
struct FarEntry<E>(E);

impl<E: Scheduled> PartialEq for FarEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.0.at_ticks() == other.0.at_ticks() && self.0.seq() == other.0.seq()
    }
}
impl<E: Scheduled> Eq for FarEntry<E> {}
impl<E: Scheduled> PartialOrd for FarEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E: Scheduled> Ord for FarEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.0.at_ticks(), self.0.seq()).cmp(&(other.0.at_ticks(), other.0.seq()))
    }
}

/// End of a chain.
const NIL: u32 = u32::MAX;

/// Near buckets, as `usize` for indexing.
const BUCKETS: usize = SPAN as usize;

/// The event queue: a near ring of FIFO buckets over one slab of slots, plus
/// a far overflow heap.
pub(crate) struct EventWheel<E: Scheduled> {
    /// The chains, by node: node `b < SPAN` is bucket `b`'s head and node
    /// `SPAN + s` is slab slot `s`; each entry is the node that follows, or
    /// `NIL`. Bucket `b` chains the slots of the events scheduled for tick `t`
    /// with `t % SPAN == b` and `cursor <= t < cursor + SPAN`, in push (= seq)
    /// order; free slots form one more chain from `free`.
    links: Vec<u32>,
    /// `tails[b]` is the last node of bucket `b`'s chain: `b` itself while
    /// the bucket is empty.
    tails: [u32; BUCKETS],
    /// The slab: every near event, by slot. `None` while the slot is free.
    events: Vec<Option<E>>,
    /// First free node, or `NIL`.
    free: u32,
    /// Events at `cursor + SPAN` or later, ordered by `(at, seq)`.
    far: BinaryHeap<Reverse<FarEntry<E>>>,
    /// The earliest tick that may still hold events. Monotone.
    cursor: u64,
    near_len: usize,
    len: usize,
}

impl<E: Scheduled + Send + 'static> EventWheel<E> {
    pub(crate) fn new() -> Self {
        EventWheel {
            links: Vec::new(),
            tails: std::array::from_fn(|b| b as u32),
            events: Vec::new(),
            free: NIL,
            far: BinaryHeap::new(),
            cursor: 0,
            near_len: 0,
            len: 0,
        }
    }

    /// Gives the slab of an empty wheel to the reserve and keeps its chain
    /// links, so an idle wheel holds no event-sized memory per slot. A wheel
    /// with queued events is left as it is.
    pub(crate) fn release_if_empty(&mut self) {
        if self.len > 0 || self.events.capacity() == 0 {
            return;
        }
        // Empty, so every bucket head is `NIL` and every slot is free.
        let mut slab = std::mem::take(&mut self.events);
        slab.clear();
        let mut reserves = RESERVES.lock().unwrap_or_else(PoisonError::into_inner);
        reserves
            .entry(TypeId::of::<E>())
            .or_default()
            .release(Box::new(slab));
        drop(reserves);
        // The chains keep their buffer, four bytes a slot against the
        // slab's event-sized ones: freeing it too cost more in allocator
        // traffic than it saved.
        self.links.truncate(BUCKETS);
        self.free = NIL;
    }

    /// Takes the slab released last from the reserve, if it holds one.
    /// Kept out of line: pushes call it once per burst at most.
    #[cold]
    #[inline(never)]
    fn refill(&mut self) {
        let slab = (RESERVES.lock().unwrap_or_else(PoisonError::into_inner))
            .entry(TypeId::of::<E>())
            .or_default()
            .refill();
        if let Some(slab) = slab {
            self.events = *slab.downcast().expect("the reserve is keyed by type");
        }
    }

    /// Number of queued events (used by the equivalence tests).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn push(&mut self, event: E) {
        // Past times cannot occur (delays are >= 1 and external injections
        // clamp to `now`), but clamping keeps the wheel safe regardless.
        let at = event.at_ticks().max(self.cursor);
        self.len += 1;
        if at - self.cursor < SPAN {
            self.push_near(at, event);
        } else {
            self.far.push(Reverse(FarEntry(event)));
        }
    }

    /// Appends `event` to tick `at`'s bucket, in a free slot if there is one.
    #[inline(always)]
    fn push_near(&mut self, at: u64, event: E) {
        let node = if self.free == NIL {
            // The bucket heads come with the first slot, so that a wheel
            // that never held a near event holds no memory.
            if self.links.is_empty() {
                self.links.resize(BUCKETS, NIL);
            }
            // The first slot of a fresh or released wheel takes a slab from
            // the reserve.
            if self.events.capacity() == 0 {
                self.refill();
            }
            let node = u32::try_from(self.links.len())
                .ok()
                .filter(|&node| node != NIL)
                .expect("fewer than 2^32 - 65 near events live at once");
            self.links.push(NIL);
            self.events.push(Some(event));
            node
        } else {
            let node = self.free;
            self.free = self.links[node as usize];
            self.links[node as usize] = NIL;
            self.events[node as usize - BUCKETS] = Some(event);
            node
        };
        let bucket = (at % SPAN) as usize;
        self.links[self.tails[bucket] as usize] = node;
        self.tails[bucket] = node;
        self.near_len += 1;
    }

    /// Time of the next event, if any.
    pub(crate) fn peek_at(&self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        if self.near_len > 0 {
            let mut tick = self.cursor;
            loop {
                if self.links[(tick % SPAN) as usize] != NIL {
                    return Some(tick);
                }
                tick += 1;
            }
        }
        self.far.peek().map(|Reverse(e)| e.0.at_ticks())
    }

    /// Removes and returns the next event in ascending `(at, seq)` order.
    pub(crate) fn pop(&mut self) -> Option<E> {
        if self.len == 0 {
            return None;
        }
        loop {
            if self.near_len > 0 {
                let bucket = (self.cursor % SPAN) as usize;
                let node = self.links[bucket];
                if node != NIL {
                    let next = self.links[node as usize];
                    self.links[bucket] = next;
                    if next == NIL {
                        self.tails[bucket] = bucket as u32;
                    }
                    self.links[node as usize] = self.free;
                    self.free = node;
                    self.len -= 1;
                    self.near_len -= 1;
                    return self.events[node as usize - BUCKETS].take();
                }
                self.cursor += 1;
            } else {
                // Near ring drained: jump straight to the overflow head.
                let head_at = self
                    .far
                    .peek()
                    .map(|Reverse(e)| e.0.at_ticks())
                    .expect("len > 0 and near empty imply far non-empty");
                self.cursor = head_at;
            }
            self.migrate();
        }
    }

    /// Moves every overflow event that has entered the near window into its
    /// bucket. The heap yields them in `(at, seq)` order, so same-tick events
    /// land in their bucket in seq order, ahead of any later near push.
    fn migrate(&mut self) {
        let horizon = self.cursor.saturating_add(SPAN);
        while let Some(Reverse(head)) = self.far.peek() {
            if head.0.at_ticks() >= horizon {
                break;
            }
            let Reverse(FarEntry(event)) = self.far.pop().expect("peeked above");
            self.push_near(event.at_ticks(), event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    struct Ev {
        at: u64,
        seq: u64,
    }
    impl Scheduled for Ev {
        fn at_ticks(&self) -> u64 {
            self.at
        }
        fn seq(&self) -> u64 {
            self.seq
        }
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut wheel = EventWheel::new();
        wheel.push(Ev { at: 5, seq: 1 });
        wheel.push(Ev { at: 3, seq: 2 });
        wheel.push(Ev { at: 5, seq: 3 });
        wheel.push(Ev { at: 3, seq: 4 });
        let order: Vec<_> = std::iter::from_fn(|| wheel.pop()).collect();
        assert_eq!(
            order,
            vec![
                Ev { at: 3, seq: 2 },
                Ev { at: 3, seq: 4 },
                Ev { at: 5, seq: 1 },
                Ev { at: 5, seq: 3 },
            ]
        );
    }

    #[test]
    fn far_events_interleave_correctly_with_near_pushes() {
        let mut wheel = EventWheel::new();
        // Far event for tick 100, pushed first (lowest seq).
        wheel.push(Ev { at: 100, seq: 1 });
        wheel.push(Ev { at: 1, seq: 2 });
        assert_eq!(wheel.pop(), Some(Ev { at: 1, seq: 2 }));
        // Cursor is now at tick 1; tick 100 is outside the window until the
        // queue drains towards it. A near push for 100 after it has entered
        // the window must pop *after* the far event despite arriving through
        // a different path.
        assert_eq!(wheel.pop(), Some(Ev { at: 100, seq: 1 }));
        assert_eq!(wheel.pop(), None);
    }

    #[test]
    fn empty_wheel_behaves() {
        let mut wheel: EventWheel<Ev> = EventWheel::new();
        assert_eq!(wheel.len(), 0);
        assert_eq!(wheel.peek_at(), None);
        assert_eq!(wheel.pop(), None);
    }

    #[test]
    fn matches_reference_heap_on_random_workload() {
        // Drive the wheel and a (at, seq)-ordered reference heap with the
        // same randomized monotone workload and demand identical pop order,
        // including pushes relative to the advancing current time and
        // far-future outliers. The slab must never hold more slots than the
        // most near events live at once.
        let mut rng = SimRng::network(42);
        let mut wheel = EventWheel::new();
        let mut reference: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut now = 0u64;
        let mut seq = 0u64;
        let mut popped = 0usize;
        let mut peak_near = 0usize;
        for _ in 0..20_000 {
            if rng.gen_bool(0.55) || reference.is_empty() {
                // Mostly short delays, occasionally far-future ones.
                let delay = if rng.gen_bool(0.05) {
                    rng.gen_range(SPAN..SPAN * 20)
                } else {
                    rng.gen_range(0..12)
                };
                seq += 1;
                wheel.push(Ev {
                    at: now + delay,
                    seq,
                });
                reference.push(Reverse((now + delay, seq)));
            } else {
                let Reverse((at, expect_seq)) = reference.pop().unwrap();
                let got = wheel.pop().expect("wheel has the same events");
                assert_eq!((got.at, got.seq), (at, expect_seq));
                assert!(at >= now, "time went backwards");
                now = at;
                popped += 1;
            }
            assert_eq!(wheel.len(), reference.len());
            assert_eq!(
                wheel.peek_at(),
                reference.peek().map(|Reverse((at, _))| *at)
            );
            peak_near = peak_near.max(wheel.near_len);
            assert!(
                wheel.events.len() <= peak_near,
                "slab outgrew the live peak"
            );
        }
        assert!(popped > 5_000, "workload actually exercised pops");
        while let Some(Reverse((at, expect_seq))) = reference.pop() {
            let got = wheel.pop().unwrap();
            assert_eq!((got.at, got.seq), (at, expect_seq));
        }
        assert_eq!(wheel.pop(), None);
        assert_eq!(wheel.events.len(), peak_near);
    }

    #[test]
    fn release_and_refill_keep_pop_order_and_reuse_the_released_slab() {
        // Its own event type, so that no other test shares its reserve.
        #[derive(Debug, PartialEq)]
        struct Own {
            at: u64,
            seq: u64,
        }
        impl Scheduled for Own {
            fn at_ticks(&self) -> u64 {
                self.at
            }
            fn seq(&self) -> u64 {
                self.seq
            }
        }
        // Bursts of events, as a cluster's operations produce them, each
        // drained against the reference heap with pushes interleaved into
        // the drain. Most bursts drain to empty and release the wheel; the
        // rest stop halfway, where a release must change nothing.
        let mut rng = SimRng::network(7);
        let mut wheel = EventWheel::new();
        let mut reference: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let (mut now, mut seq) = (0u64, 0u64);
        let mut push = |wheel: &mut EventWheel<Own>,
                        reference: &mut BinaryHeap<_>,
                        rng: &mut SimRng,
                        now: u64| {
            let delay = if rng.gen_bool(0.05) {
                rng.gen_range(SPAN..SPAN * 4)
            } else {
                rng.gen_range(0..12)
            };
            seq += 1;
            wheel.push(Own {
                at: now + delay,
                seq,
            });
            reference.push(Reverse((now + delay, seq)));
        };
        let (mut released, mut refills) = (None, 0);
        for _ in 0..400 {
            // The first slot after a release takes back the released slab:
            // the wheel is the only one of its type.
            let mut expect_refill = |wheel: &EventWheel<Own>| {
                if wheel.events.is_empty() {
                    return;
                }
                if let Some(slab) = released.take() {
                    assert_eq!(wheel.events.as_ptr(), slab, "the released slab");
                    refills += 1;
                }
            };
            for _ in 0..rng.gen_range(1..48u64) {
                push(&mut wheel, &mut reference, &mut rng, now);
                expect_refill(&wheel);
            }
            let drain_all = rng.gen_bool(0.8);
            let stop_at = if drain_all { 0 } else { reference.len() / 2 };
            while reference.len() > stop_at {
                let Reverse((at, expect_seq)) = reference.pop().unwrap();
                let got = wheel.pop().expect("wheel has the same events");
                assert_eq!((got.at, got.seq), (at, expect_seq));
                now = at;
                if rng.gen_bool(0.3) {
                    push(&mut wheel, &mut reference, &mut rng, now);
                    expect_refill(&wheel);
                }
            }
            assert_eq!(wheel.len(), reference.len());
            let (slots, capacity) = (wheel.events.len(), wheel.events.capacity());
            let slab = wheel.events.as_ptr();
            wheel.release_if_empty();
            if reference.is_empty() {
                released = (capacity > 0).then_some(slab);
                assert_eq!(wheel.events.capacity(), 0, "a released wheel holds no slot");
                assert_eq!(wheel.links.len(), BUCKETS, "only the bucket heads stay");
                assert!(wheel.links[..BUCKETS].iter().all(|&head| head == NIL));
            } else {
                assert_eq!(
                    (
                        wheel.events.len(),
                        wheel.events.capacity(),
                        wheel.events.as_ptr()
                    ),
                    (slots, capacity, slab),
                    "a wheel with queued events keeps its slab"
                );
            }
        }
        assert!(refills > 200, "{refills} refills");
        while let Some(Reverse((at, expect_seq))) = reference.pop() {
            let got = wheel.pop().unwrap();
            assert_eq!((got.at, got.seq), (at, expect_seq));
        }
        assert_eq!(wheel.pop(), None);
    }

    #[test]
    fn the_reserve_keeps_what_its_last_two_bursts_of_refills_took() {
        // Its own event type, so that no other test shares its reserve.
        #[derive(Debug, PartialEq)]
        struct Own(u64);
        impl Scheduled for Own {
            fn at_ticks(&self) -> u64 {
                self.0
            }
            fn seq(&self) -> u64 {
                self.0
            }
        }
        // (slabs held, slabs kept at most)
        let reserve = || {
            let reserves = RESERVES.lock().unwrap();
            (reserves.get(&TypeId::of::<Own>()))
                .map_or((0, 0), |reserve| (reserve.slabs.len(), reserve.keep()))
        };
        let wake = |wheels: &mut [EventWheel<Own>]| {
            for wheel in wheels {
                wheel.push(Own(1));
                assert_eq!(wheel.pop(), Some(Own(1)));
            }
        };
        let release = |wheels: &mut [EventWheel<Own>]| {
            for wheel in wheels {
                wheel.release_if_empty();
                assert_eq!(wheel.events.capacity(), 0);
            }
        };
        let mut wheels: Vec<EventWheel<Own>> = (0..48).map(|_| EventWheel::new()).collect();
        // Two wakes with no release between are one burst of 32, and the
        // releases after it keep 32 slabs.
        wake(&mut wheels[..20]);
        wake(&mut wheels[20..32]);
        assert_eq!(reserve(), (0, 0));
        let released = wheels[31].events.as_ptr();
        release(&mut wheels[31..32]);
        assert_eq!(reserve(), (1, 32));
        // The next burst takes the last slab released first, then new ones.
        wake(&mut wheels[32..40]);
        assert_eq!(wheels[32].events.as_ptr(), released);
        assert_eq!(reserve(), (0, 32));
        // 39 slabs come back: the reserve keeps 32, the larger of its last
        // two bursts, and frees the rest.
        release(&mut wheels[..40]);
        assert_eq!(reserve(), (32, 32));
        // Two narrow bursts in a row forget the wide one: the reserve frees
        // what it holds beyond them.
        wake(&mut wheels[..4]);
        release(&mut wheels[..4]);
        assert_eq!(reserve(), (8, 8));
        // A wider burst empties the reserve and raises the cap at once.
        wake(&mut wheels);
        assert_eq!(reserve(), (0, 8));
        release(&mut wheels);
        assert_eq!(reserve(), (48, 48));
    }

    #[test]
    fn drained_slots_are_reused_in_fifo_order() {
        let mut wheel = EventWheel::new();
        let mut seq = 0u64;
        let mut push = |wheel: &mut EventWheel<Ev>, at: u64| {
            seq += 1;
            wheel.push(Ev { at, seq });
        };
        // Fill three ticks, interleaved, then drain to empty.
        for at in [2, 1, 3, 1, 2, 3, 1] {
            push(&mut wheel, at);
        }
        let first: Vec<_> = std::iter::from_fn(|| wheel.pop()).collect();
        let order: Vec<_> = first.iter().map(|e| (e.at, e.seq)).collect();
        assert_eq!(
            order,
            vec![(1, 2), (1, 4), (1, 7), (2, 1), (2, 5), (3, 3), (3, 6)]
        );
        assert_eq!(wheel.events.len(), 7);
        // Refill from the free list: one tick, then a second tick interleaved
        // with it. No slot is added, and each tick stays FIFO.
        for at in [5, 5, 4, 5, 4, 5, 4] {
            push(&mut wheel, at);
        }
        assert_eq!(wheel.events.len(), 7, "refill reuses the drained slots");
        let second: Vec<_> = std::iter::from_fn(|| wheel.pop()).collect();
        let order: Vec<_> = second.iter().map(|e| (e.at, e.seq)).collect();
        assert_eq!(
            order,
            vec![(4, 10), (4, 12), (4, 14), (5, 8), (5, 9), (5, 11), (5, 13)]
        );
        // A partial drain followed by pushes onto the bucket being popped.
        for _ in 0..3 {
            push(&mut wheel, 6);
        }
        assert_eq!(wheel.pop().map(|e| e.seq), Some(15));
        push(&mut wheel, 6);
        let rest: Vec<_> = std::iter::from_fn(|| wheel.pop()).map(|e| e.seq).collect();
        assert_eq!(rest, vec![16, 17, 18]);
        assert_eq!((wheel.len(), wheel.events.len()), (0, 7));
    }
}
