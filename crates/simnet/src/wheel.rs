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
//! The next event is found in `O(1)` however many ticks lie empty before
//! it. One bit per bucket records whether the bucket holds an event, and
//! the first set bit at or after the cursor's, found by one rotate and one
//! trailing-zeros count, is the next near tick. A pop jumps the cursor
//! straight there and migrates once. That keeps the order: after every
//! migration all overflow events lie at `cursor + SPAN` or later, so each is
//! later than every near event, and the ones the jump brings into the
//! window land after the tick it jumped to. A pop with a deadline the next
//! event is past moves nothing, so a later push before that event is not
//! clamped to it.
//!
//! Memory follows the live events, not the window. Near events sit in one
//! slab of slots; each bucket is a FIFO chained through the slots by index,
//! and popped slots go on a free list that the next push reuses. While the
//! wheel is busy, the slab therefore holds exactly as many slots as the most
//! near events ever live at once — a fresh wheel allocates nothing — and
//! once it has grown to that peak, pushes and pops allocate nothing either.
//! An empty wheel gives its slab and its chain links away:
//! [`EventWheel::give_back_if_empty`] hands both to this thread's spare set
//! for the event type, which holds one set per type, and the next wheel of
//! that type on the thread to push a near event takes them back. So a
//! thread that runs many simulations of one type one after another, as the
//! store's drain does with its key clusters, keeps one warm slab for all of
//! them, and a wheel that is not running holds none. A hand-over takes no
//! lock, allocates nothing and touches no slot: each type's spare lives in a
//! box allocated once per thread, and an empty wheel's buckets are all empty
//! and its slots all on the free chain, so the set moves as it is. A scoped
//! thread's spares are freed when it ends. If the spare is taken when an
//! empty wheel gives back, the larger slab stays and the other is freed.
//! Slot indices never decide pop order, so neither a give nor the slab a
//! take receives changes a schedule.
//!
//! A bucket's head is a chain link like a slot's successor, and an empty
//! bucket's tail is its head, so an append is two stores and never branches
//! on whether the bucket was empty, which a hot event loop would mispredict
//! about every other push.

use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Width of the near window in ticks. Power of two (the bucket index is
/// `at % SPAN`); comfortably larger than every delay model's typical range so
/// the overflow heap stays empty in ordinary executions.
const SPAN: u64 = 64;

/// The slab and the chain links an empty wheel gave back, as they were: every
/// bucket empty and every slot free, on the chain from `free`.
struct Spare<E> {
    events: Vec<Option<E>>,
    links: Vec<u32>,
    free: u32,
}

thread_local! {
    /// This thread's spare sets, by event type: an `Option<Spare<E>>` boxed
    /// as `Any`. A type's box is allocated when a wheel of that type first
    /// gives back on the thread, and a hand-over only moves its contents.
    static SPARES: RefCell<Vec<(TypeId, Box<dyn Any>)>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` on this thread's spare set for event type `E`.
fn with_spare<E: 'static, R>(f: impl FnOnce(&mut Option<Spare<E>>) -> R) -> R {
    SPARES.with_borrow_mut(|spares| {
        let id = TypeId::of::<E>();
        let index = match spares.iter().position(|(type_id, _)| *type_id == id) {
            Some(index) => index,
            None => {
                spares.push((id, Box::new(None::<Spare<E>>)));
                spares.len() - 1
            }
        };
        let spare = spares[index].1.downcast_mut();
        f(spare.expect("spares are keyed by type"))
    })
}

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

/// Where the bucket tails start in the chain links.
const TAILS: usize = BUCKETS;

/// The first slot's node.
const SLOTS: usize = 2 * BUCKETS;

/// The event queue: a near ring of FIFO buckets over one slab of slots, plus
/// a far overflow heap.
pub(crate) struct EventWheel<E: Scheduled> {
    /// The chains, by node: node `b < SPAN` is bucket `b`'s head and node
    /// `2 · SPAN + s` is slab slot `s`; each entry is the node that follows,
    /// or `NIL`. Bucket `b` chains the slots of the events scheduled for tick
    /// `t` with `t % SPAN == b` and `cursor <= t < cursor + SPAN`, in push
    /// (= seq) order; free slots form one more chain from `free`. Entry
    /// `SPAN + b` is no node but bucket `b`'s tail, the last node of its
    /// chain: `b` itself while the bucket is empty. The tails live here, not
    /// in the wheel, so that they come and go with the links.
    links: Vec<u32>,
    /// The slab: every near event, by slot. `None` while the slot is free.
    events: Vec<Option<E>>,
    /// First free node, or `NIL`.
    free: u32,
    /// Events at `cursor + SPAN` or later, ordered by `(at, seq)`.
    far: BinaryHeap<Reverse<FarEntry<E>>>,
    /// The earliest tick that may still hold events. Monotone.
    cursor: u64,
    /// Bit `b` is set while bucket `b` holds an event.
    occupied: u64,
    len: usize,
}

impl<E: Scheduled + 'static> EventWheel<E> {
    pub(crate) fn new() -> Self {
        EventWheel {
            links: Vec::new(),
            events: Vec::new(),
            free: NIL,
            far: BinaryHeap::new(),
            cursor: 0,
            occupied: 0,
            len: 0,
        }
    }

    /// Gives the slab and the chain links of an empty wheel to this
    /// thread's spare set for `E`, so a wheel with nothing queued holds no
    /// memory per slot. A wheel with queued events is left as it is.
    pub(crate) fn give_back_if_empty(&mut self) {
        if self.len > 0 || self.links.is_empty() {
            return;
        }
        // Empty, so every bucket head is `NIL`, every tail is its bucket and
        // every slot is on the free chain: the set is ready for the next
        // wheel as it is, and a hand-over touches no slot.
        let given = Spare {
            events: std::mem::take(&mut self.events),
            links: std::mem::take(&mut self.links),
            free: std::mem::replace(&mut self.free, NIL),
        };
        with_spare(|spare: &mut Option<Spare<E>>| {
            if spare
                .as_ref()
                .is_none_or(|held| held.events.capacity() < given.events.capacity())
            {
                *spare = Some(given);
            }
        });
    }

    /// Takes this thread's spare set for `E` if it holds one, or lays out
    /// the bucket heads and tails of a fresh set. Kept out of line: a wheel
    /// calls it once per run at most.
    #[cold]
    #[inline(never)]
    fn take_spare(&mut self) {
        if let Some(Spare {
            events,
            links,
            free,
        }) = with_spare(Option::take)
        {
            (self.events, self.links, self.free) = (events, links, free);
        } else {
            self.links.resize(BUCKETS, NIL);
            self.links.extend(0..BUCKETS as u32);
        }
    }

    /// Number of queued events (used by the equivalence tests).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Slots and chain links held, as capacities.
    #[cfg(test)]
    pub(crate) fn memory_held(&self) -> (usize, usize) {
        (self.events.capacity(), self.links.capacity())
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
        // The first near event of a fresh or emptied wheel takes the
        // thread's spare slab and links, bucket heads and tails included, so
        // that a wheel that holds no near event holds no memory.
        if self.links.is_empty() {
            self.take_spare();
        }
        let node = if self.free == NIL {
            let node = u32::try_from(self.links.len())
                .ok()
                .filter(|&node| node != NIL)
                .expect("fewer than 2^32 - 129 near events live at once");
            self.links.push(NIL);
            self.events.push(Some(event));
            node
        } else {
            let node = self.free;
            self.free = self.links[node as usize];
            self.links[node as usize] = NIL;
            self.events[node as usize - SLOTS] = Some(event);
            node
        };
        let bucket = (at % SPAN) as usize;
        let last = self.links[TAILS + bucket];
        self.links[last as usize] = node;
        self.links[TAILS + bucket] = node;
        self.occupied |= 1 << bucket;
    }

    /// Time of the next event, if any.
    pub(crate) fn peek_at(&self) -> Option<u64> {
        if self.occupied != 0 {
            // The first occupied bucket at or after the cursor's: every near
            // event lies in `[cursor, cursor + SPAN)`, so a bucket names one
            // tick, and every far event is later still.
            let offset = self.occupied.rotate_right((self.cursor % SPAN) as u32);
            return Some(self.cursor + u64::from(offset.trailing_zeros()));
        }
        self.far.peek().map(|Reverse(e)| e.0.at_ticks())
    }

    /// Removes and returns the next event in ascending `(at, seq)` order if
    /// it is due at or before tick `deadline`; otherwise changes nothing.
    pub(crate) fn pop_due(&mut self, deadline: u64) -> Option<E> {
        let at = self.peek_at().filter(|&at| at <= deadline)?;
        if at != self.cursor {
            // Jump over the empty ticks and migrate once. Before the jump
            // every far event was at `cursor + SPAN` or later, so later than
            // every near event: the events the jump brings into the window
            // are later than `at` and share no tick with a near event.
            self.cursor = at;
            self.migrate();
        }
        let bucket = (at % SPAN) as usize;
        let node = self.links[bucket];
        let next = self.links[node as usize];
        self.links[bucket] = next;
        if next == NIL {
            self.links[TAILS + bucket] = bucket as u32;
            self.occupied &= !(1 << bucket);
        }
        self.links[node as usize] = self.free;
        self.free = node;
        self.len -= 1;
        self.events[node as usize - SLOTS].take()
    }

    /// Removes and returns the next event, however far ahead.
    #[cfg(test)]
    pub(crate) fn pop(&mut self) -> Option<E> {
        self.pop_due(u64::MAX)
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
            peak_near = peak_near.max(wheel.len() - wheel.far.len());
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
    fn matches_reference_heap_across_sparse_gaps() {
        // Sparse traffic: bursts on one tick, then gaps from one tick to
        // several windows, with far-future events pushed among them. Pops
        // cross long runs of empty ticks and enter windows that hold far
        // events, in every combination of near and far.
        let mut rng = SimRng::network(45);
        let mut wheel = EventWheel::new();
        let mut reference: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let (mut now, mut seq) = (0u64, 0u64);
        let (mut pops, mut jumps, mut far, mut misses) = (0usize, 0usize, 0usize, 0usize);
        for _ in 0..20_000 {
            if rng.gen_bool(0.2) || reference.is_empty() {
                let scale = [1, 2, SPAN / 2, SPAN - 1, SPAN, SPAN + 1, 3 * SPAN, 9 * SPAN]
                    [rng.gen_range(0..8usize)];
                let at = now + rng.gen_range(1..=scale);
                far += usize::from(at >= now + SPAN);
                for _ in 0..rng.gen_range(1..6u64) {
                    seq += 1;
                    wheel.push(Ev { at, seq });
                    reference.push(Reverse((at, seq)));
                }
            } else {
                // A deadline short of the next event pops nothing and moves
                // nothing, as a run that stops at its deadline does.
                let deadline = now + rng.gen_range(0..2 * SPAN);
                let got = wheel.pop_due(deadline);
                if reference
                    .peek()
                    .is_some_and(|Reverse((at, _))| *at <= deadline)
                {
                    let Reverse((at, expect_seq)) = reference.pop().unwrap();
                    let got = got.expect("wheel has the same events");
                    assert_eq!((got.at, got.seq), (at, expect_seq));
                    jumps += usize::from(at > now + 1);
                    now = at;
                    pops += 1;
                } else {
                    assert_eq!(got, None, "not due by {deadline}");
                    misses += 1;
                }
            }
            assert_eq!(wheel.len(), reference.len());
            assert_eq!(
                wheel.peek_at(),
                reference.peek().map(|Reverse((at, _))| *at)
            );
        }
        assert!(
            pops > 5_000 && jumps > 2_000 && far > 500 && misses > 1_000,
            "{pops} pops, {jumps} jumps, {far} far, {misses} not due"
        );
        while let Some(Reverse((at, expect_seq))) = reference.pop() {
            let got = wheel.pop().unwrap();
            assert_eq!((got.at, got.seq), (at, expect_seq));
        }
        assert_eq!(wheel.pop(), None);
    }

    #[test]
    fn give_and_take_keep_pop_order_and_reuse_the_given_slab() {
        // Its own event type, so that no other test shares its spare.
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
        /// Where a wheel's slab and links live, and the slab's slots: right
        /// after a take and one push, the same as when given, since the push
        /// reuses a free slot of the given set.
        fn memory(wheel: &EventWheel<Own>) -> (*const Option<Own>, *const u32, usize) {
            let events = &wheel.events;
            (events.as_ptr(), wheel.links.as_ptr(), events.len())
        }
        fn assert_given(wheel: &EventWheel<Own>) {
            assert_eq!(wheel.events.capacity(), 0, "an emptied wheel holds no slot");
            assert_eq!(wheel.links.capacity(), 0, "nor any chain link");
        }
        // Bursts of events, as a cluster's runs produce them, each drained
        // against the reference heap with pushes interleaved into the drain.
        // Most bursts drain to empty and the wheel gives back; the rest stop
        // halfway, where a give must change nothing. Between bursts another
        // wheel of the type sometimes runs on the spare and gives it back, as
        // the next cluster of a store's drain does.
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
        let (mut given, mut takes, mut shared) = (None, 0, 0);
        for _ in 0..400 {
            if given.is_some() && rng.gen_bool(0.3) {
                let mut other = EventWheel::new();
                other.push(Own { at: 3, seq: 1 });
                assert_eq!(Some(memory(&other)), given, "the other wheel's take");
                assert_eq!(other.pop(), Some(Own { at: 3, seq: 1 }));
                other.give_back_if_empty();
                assert_given(&other);
                shared += 1;
            }
            // The first near push after a give takes back the given slab and
            // links: no other wheel of the type holds them.
            let mut expect_take = |wheel: &EventWheel<Own>| {
                if wheel.links.is_empty() {
                    return;
                }
                if let Some(memory_given) = given.take() {
                    assert_eq!(memory(wheel), memory_given, "the given slab");
                    takes += 1;
                }
            };
            for _ in 0..rng.gen_range(1..48u64) {
                push(&mut wheel, &mut reference, &mut rng, now);
                expect_take(&wheel);
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
                    expect_take(&wheel);
                }
            }
            assert_eq!(wheel.len(), reference.len());
            let (slots, capacity) = (wheel.events.len(), wheel.events.capacity());
            let (links, held) = (wheel.links.len(), memory(&wheel));
            wheel.give_back_if_empty();
            if reference.is_empty() {
                given = (capacity > 0).then_some(held);
                assert_given(&wheel);
            } else {
                assert_eq!(
                    (
                        wheel.events.len(),
                        wheel.events.capacity(),
                        wheel.links.len(),
                        memory(&wheel)
                    ),
                    (slots, capacity, links, held),
                    "a wheel with queued events keeps its slab and links"
                );
            }
        }
        assert!(takes > 200 && shared > 50, "{takes} takes, {shared} shared");
        while let Some(Reverse((at, expect_seq))) = reference.pop() {
            let got = wheel.pop().unwrap();
            assert_eq!((got.at, got.seq), (at, expect_seq));
        }
        assert_eq!(wheel.pop(), None);

        // The spare holds one set: of two given back, the larger slab stays,
        // whichever comes first, and the next take receives it. A wheel that
        // keeps an event holds on to the slab the loop above gave back.
        let mut holder = EventWheel::new();
        holder.push(Own { at: 1, seq: 1 });
        for larger_first in [false, true] {
            let mut wheels: [EventWheel<Own>; 2] = std::array::from_fn(|_| EventWheel::new());
            for (events, wheel) in [2u64, 40].into_iter().zip(&mut wheels) {
                (1..=events).for_each(|seq| wheel.push(Own { at: 1, seq }));
                while wheel.pop().is_some() {}
            }
            let larger = memory(&wheels[1]);
            if larger_first {
                wheels.reverse();
            }
            wheels.iter_mut().for_each(EventWheel::give_back_if_empty);
            let mut taker = EventWheel::new();
            taker.push(Own { at: 1, seq: 1 });
            assert_eq!(memory(&taker), larger, "larger first: {larger_first}");
        }
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
