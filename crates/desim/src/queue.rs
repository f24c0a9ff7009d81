//! The pending-event set.
//!
//! A binary heap of **runs** over a **generation-stamped slab** of event
//! payloads. Every event has a `(time, seq)` dispatch key; `seq` is a
//! monotonically increasing tie-breaker so that events scheduled for the
//! same instant fire in scheduling order — this is what makes
//! whole-federation runs bit-for-bit reproducible under a fixed seed.
//!
//! A run is a maximal streak of consecutive pushes at one instant. Its
//! events are linked through their slab slots, and the heap holds one key
//! per run, the key of the run's head. A push at the instant of the push
//! before it, while that push's run is pending, links onto the run's tail
//! with no heap operation; any other push adds a key. A pop takes the
//! head of the top run and, if the run goes on, writes the next member's
//! key `(time, seq + 1)` over the top key. A run's pushes are consecutive,
//! so its seqs are too, and the heap's order over run heads is exactly
//! the `(time, seq)` order over events: where several runs of one instant
//! are pending, the heap merges them.
//!
//! Why runs: the executive pulls the bulk workload from a sorted side feed
//! one event ahead
//! ([`Simulation::feed_from`](crate::Simulation::feed_from)), so the queue
//! holds only what is in flight — protocol timers and messages on the
//! wire, about 10³ events (peak 1,214 on a 512 x 100-node federation,
//! 2,126 on 1024 x 100). But what is in flight arrives in streaks: a CLC
//! round's request and commit reach every node of a cluster at one
//! instant. In the hostile campaign's `flash_crowd_hostile` cells on the
//! paper's 100-node clusters, 96 % of pushes land at the instant of the
//! push before them; on the reference federation's `hc3i-sim run`, 67 %.
//! A heap of single events sorted each of them by hand, although they
//! arrive in order: its `pop` was a fifth of the campaign's profile
//! samples. Here a streak costs one heap insertion, and a pop inside it
//! is a replace-top whose sift stops at once unless another run of the
//! instant holds a smaller seq (`bench/ABLATIONS.md`, *Same-instant runs:
//! added*).
//!
//! The heap of single events had itself replaced a calendar queue: a
//! 700-line timing structure tuned for 10⁵-event populations, A/B'd
//! against the heap on every workload the repository runs, which lost on
//! all of them, including the one with 68 k events pending
//! (`bench/ABLATIONS.md`, *Calendar queue*). At 10³ events `log n` is ten
//! comparisons over two or three cache lines.
//!
//! Cancellation (needed for resettable protocol timers: "the timer is reset
//! when a forced CLC is established") is O(1) and hash-free: every slab
//! slot carries a generation counter that is bumped whenever the slot is
//! vacated, so a stale heap key (or a stale [`EventKey`]) is detected by a
//! single generation comparison. A cancelled payload is dropped at once.
//! A cancelled singleton run — what a reset timer is — vacates its slot at
//! once too, and only its 24-byte heap key stays behind until it reaches
//! the top and is discarded. A cancelled member of a longer run stays
//! linked, its slot empty, until the run reaches it. Vacated slots are
//! recycled through a free list, so a steady-state simulation reaches zero
//! allocations per schedule/fire cycle.

use hc3i_types::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Opaque handle identifying a scheduled event, usable to cancel it.
///
/// The handle carries the event's slab slot and the slot's generation at
/// scheduling time; a key whose generation no longer matches the slot
/// (because the event fired, was cancelled, or the slot was recycled) is
/// simply rejected by [`EventQueue::cancel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventKey {
    seq: u64,
    slot: u32,
    generation: u32,
}

impl EventKey {
    /// The raw scheduling sequence number (diagnostics only).
    pub fn raw(self) -> u64 {
        self.seq
    }
}

/// [`Slot::next`] of a run's only pending member: no event before it in
/// the run, none after it.
const SOLO: u32 = u32::MAX;
/// [`Slot::next`] of a run's tail behind at least one other member.
const LAST: u32 = u32::MAX - 1;

/// One slab slot: the payload of a pending event, the link to the next
/// member of its run, and the generation stamp that invalidates stale heap
/// keys and event keys. The generation is bumped only when the slot is
/// vacated, so a key that reaches a slot still linked in a run matches it.
struct Slot<E> {
    generation: u32,
    /// The slot of the run's next member, or [`SOLO`] or [`LAST`]. It
    /// takes the place of padding beside `generation`: for a 72-byte
    /// event with a niche, like the simulator's, the slot is 80 B with it
    /// as without it.
    next: u32,
    /// `None` once fired or cancelled; a cancelled member of a longer run
    /// stays linked, empty, until the run reaches it.
    event: Option<E>,
}

/// One heap entry: the `(time, seq)` dispatch key of a run's head plus its
/// slab coordinates. 24 bytes, no payload — sifting never touches the
/// event itself. Field order is comparison order; `seq` is unique, so the
/// slab coordinates never decide.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct HeapKey {
    at: SimTime,
    seq: u64,
    slot: u32,
    generation: u32,
}

/// Future event list: a cancellable, deterministic priority queue.
pub struct EventQueue<E> {
    /// One key per run, earliest first: `BinaryHeap` is a max-heap, hence
    /// the `Reverse`.
    heap: BinaryHeap<Reverse<HeapKey>>,
    slots: Vec<Slot<E>>,
    /// Vacated slot indices available for reuse.
    free: Vec<u32>,
    /// The run of the latest push while it is pending: its instant and its
    /// tail slot, onto which a push at the same instant links.
    open: Option<(SimTime, u32)>,
    next_seq: u64,
    /// Live (scheduled, not yet fired or cancelled) events.
    live: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            open: None,
            next_seq: 0,
            live: 0,
        }
    }

    /// Schedule `event` at absolute time `at`; returns a cancellation key.
    pub fn push(&mut self, at: SimTime, event: E) -> EventKey {
        let seq = self.next_seq;
        self.next_seq += 1;
        let tail = match self.open {
            Some((t, tail)) if t == at => Some(tail),
            _ => None,
        };
        let next = if tail.is_some() { LAST } else { SOLO };
        let slot = match self.free.pop() {
            Some(s) => {
                let free = &mut self.slots[s as usize];
                free.next = next;
                free.event = Some(event);
                s
            }
            None => {
                self.slots.push(Slot {
                    generation: 0,
                    next,
                    event: Some(event),
                });
                (self.slots.len() - 1) as u32
            }
        };
        let generation = self.slots[slot as usize].generation;
        match tail {
            Some(tail) => self.slots[tail as usize].next = slot,
            None => self.heap.push(Reverse(HeapKey {
                at,
                seq,
                slot,
                generation,
            })),
        }
        self.open = Some((at, slot));
        self.live += 1;
        EventKey {
            seq,
            slot,
            generation,
        }
    }

    /// Cancel a previously scheduled event. Returns `true` if the event was
    /// still pending (i.e. not yet popped and not already cancelled).
    pub fn cancel(&mut self, key: EventKey) -> bool {
        match self.slots.get_mut(key.slot as usize) {
            Some(s) if s.generation == key.generation && s.event.is_some() => {
                s.event = None;
                self.live -= 1;
                // A singleton run leaves only its heap key behind, stale
                // once the slot is vacated; a longer run's member stays
                // linked until the run reaches it.
                if s.next == SOLO {
                    self.vacate(key.slot);
                }
                true
            }
            _ => false,
        }
    }

    /// Remove and return the earliest live event with its firing time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let top = self.live_top()?;
        Some((top.at, self.take(top)))
    }

    /// Remove and return the earliest live event only if it fires exactly
    /// at `at` — the executive's same-instant batch drain.
    pub fn pop_if_at(&mut self, at: SimTime) -> Option<E> {
        let top = self.live_top().filter(|top| top.at == at)?;
        Some(self.take(top))
    }

    /// Firing time of the earliest live event without removing it
    /// (discards cancelled entries that have reached the top).
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.live_top().map(|top| top.at)
    }

    /// Number of live (non-cancelled) pending events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live event is pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The top heap key once it names a live event: stale keys of
    /// cancelled singletons are discarded, and cancelled heads of longer
    /// runs are stepped past.
    fn live_top(&mut self) -> Option<HeapKey> {
        loop {
            let Reverse(top) = *self.heap.peek()?;
            let s = &self.slots[top.slot as usize];
            if s.generation != top.generation {
                self.heap.pop();
            } else if s.event.is_some() {
                return Some(top);
            } else {
                self.advance(top);
            }
        }
    }

    /// Take the live event of `top`, the top heap key.
    fn take(&mut self, top: HeapKey) -> E {
        let event = self.slots[top.slot as usize].event.take();
        self.live -= 1;
        self.advance(top);
        event.expect("the top key names a live event")
    }

    /// Retire `top`, the top heap key, whose event is fired or cancelled:
    /// its run's next member takes its place, or the key leaves the heap
    /// with the run's last member. Either way the slot is vacated.
    fn advance(&mut self, top: HeapKey) {
        match self.slots[top.slot as usize].next {
            SOLO | LAST => {
                self.heap.pop();
            }
            next => {
                let s = &mut self.slots[next as usize];
                if s.next == LAST {
                    s.next = SOLO;
                }
                let head = HeapKey {
                    at: top.at,
                    seq: top.seq + 1,
                    slot: next,
                    generation: s.generation,
                };
                *self.heap.peek_mut().expect("top is in the heap") = Reverse(head);
            }
        }
        self.vacate(top.slot);
    }

    /// Bump `slot`'s generation, so every key naming it goes stale, and
    /// recycle it; a vacated tail closes the open run.
    fn vacate(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        s.generation = s.generation.wrapping_add(1);
        self.free.push(slot);
        if self.open.is_some_and(|(_, tail)| tail == slot) {
            self.open = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc3i_types::SimDuration;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(3), "c");
        q.push(t(1), "a");
        q.push(t(2), "b");
        assert_eq!(q.pop(), Some((t(1), "a")));
        assert_eq!(q.pop(), Some((t(2), "b")));
        assert_eq!(q.pop(), Some((t(3), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn cancel_skips_event() {
        let mut q = EventQueue::new();
        let _a = q.push(t(1), "a");
        let b = q.push(t(2), "b");
        let _c = q.push(t(3), "c");
        assert!(q.cancel(b));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((t(1), "a")));
        assert_eq!(q.pop(), Some((t(3), "c")));
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_twice_fails_second_time() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), "a");
        assert!(q.cancel(a));
        assert!(!q.cancel(a));
    }

    #[test]
    fn cancel_after_pop_fails() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), "a");
        assert_eq!(q.pop(), Some((t(1), "a")));
        assert!(!q.cancel(a));
    }

    #[test]
    fn cancel_unknown_key_fails() {
        let mut q: EventQueue<&str> = EventQueue::new();
        assert!(!q.cancel(EventKey {
            seq: 42,
            slot: 42,
            generation: 0
        }));
    }

    #[test]
    fn peek_time_skips_cancelled_head() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), "a");
        q.push(t(2), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(2)));
        assert_eq!(q.pop(), Some((t(2), "b")));
    }

    #[test]
    fn len_tracks_live_entries() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        let a = q.push(t(1), 1);
        q.push(t(2), 2);
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_of_popped_key_after_later_pushes_fails() {
        // Regression: found by the model-based property test. Cancelling a
        // key that was already popped must fail even while other events are
        // live, and must not corrupt the live count.
        let mut q = EventQueue::new();
        let a = q.push(t(0), 1);
        q.push(t(0), 2);
        assert_eq!(q.pop(), Some((t(0), 1)));
        q.push(t(0), 3);
        q.push(t(0), 4);
        assert!(!q.cancel(a), "key was already consumed");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((t(0), 2)));
        assert_eq!(q.pop(), Some((t(0), 3)));
        assert_eq!(q.pop(), Some((t(0), 4)));
        assert!(q.is_empty());
    }

    #[test]
    fn stale_key_for_recycled_slot_fails() {
        // A cancelled event's slot is recycled by a later push; the old
        // key's generation no longer matches and must not cancel the new
        // occupant.
        let mut q = EventQueue::new();
        let a = q.push(t(1), "a");
        assert!(q.cancel(a), "slot 0 vacated");
        let _b = q.push(t(2), "b"); // reuses slot 0 at generation 1
        assert!(!q.cancel(a), "stale generation rejected");
        assert_eq!(q.pop(), Some((t(2), "b")));
    }

    #[test]
    fn slots_are_recycled_not_grown() {
        // Steady-state schedule/fire cycles reuse the same slot instead of
        // growing the slab.
        let mut q = EventQueue::new();
        for i in 0..1_000u64 {
            let k = q.push(t(i), i);
            if i % 2 == 0 {
                assert_eq!(q.pop(), Some((t(i), i)));
            } else {
                assert!(q.cancel(k));
            }
        }
        assert!(q.is_empty());
        assert_eq!(q.slots.len(), 1, "one slot recycled 1000 times");
    }

    #[test]
    fn far_future_events_round_trip_through_overflow() {
        // Far-future events come back in order, including an "infinite
        // timer" at SimTime::MAX.
        let mut q = EventQueue::new();
        q.push(SimTime::MAX, "inf");
        q.push(t(1), "near");
        q.push(SimTime::ZERO + SimDuration::from_hours(10), "far");
        assert_eq!(q.pop(), Some((t(1), "near")));
        assert_eq!(
            q.pop(),
            Some((SimTime::ZERO + SimDuration::from_hours(10), "far"))
        );
        assert_eq!(q.pop(), Some((SimTime::MAX, "inf")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn push_earlier_than_served_bucket_rewinds() {
        // The raw queue (unlike Ctx) permits pushing a time earlier than
        // the head already peeked; it must become the new head.
        let mut q = EventQueue::new();
        q.push(t(50), "late");
        assert_eq!(q.peek_time(), Some(t(50)));
        q.push(t(1), "early");
        assert_eq!(q.pop(), Some((t(1), "early")));
        assert_eq!(q.pop(), Some((t(50), "late")));
    }

    #[test]
    fn pop_if_at_only_takes_matching_instant() {
        let mut q = EventQueue::new();
        q.push(t(1), "a");
        q.push(t(1), "b");
        q.push(t(2), "c");
        assert_eq!(q.pop_if_at(t(1)), Some("a"));
        assert_eq!(q.pop_if_at(t(1)), Some("b"));
        assert_eq!(q.pop_if_at(t(1)), None, "next event is at t(2)");
        assert_eq!(q.pop_if_at(t(2)), Some("c"));
        assert_eq!(q.pop_if_at(t(2)), None, "empty");
    }

    #[test]
    fn interleaved_streaks_of_one_instant_merge_in_seq_order() {
        // Three streaks at t(5), split by pushes at other instants, are
        // three runs; the heap merges them back into scheduling order.
        let mut q = EventQueue::new();
        for i in 0..3 {
            q.push(t(5), i);
        }
        q.push(t(7), 100);
        for i in 3..6 {
            q.push(t(5), i);
        }
        q.push(t(3), 101);
        for i in 6..9 {
            q.push(t(5), i);
        }
        assert_eq!(q.heap.len(), 5, "one heap key per run");
        assert_eq!(q.pop(), Some((t(3), 101)));
        for i in 0..9 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
        assert_eq!(q.pop(), Some((t(7), 100)));
        assert!(q.is_empty());
        assert!(q.heap.is_empty());
    }

    #[test]
    fn cancel_inside_a_run_skips_only_that_event() {
        let mut q = EventQueue::new();
        let keys: Vec<_> = (0..5).map(|i| q.push(t(1), i)).collect();
        q.push(t(2), 5);
        assert!(q.cancel(keys[0]), "the run's head");
        assert!(q.cancel(keys[2]), "inside the run");
        assert!(q.cancel(keys[4]), "the run's tail");
        assert!(!q.cancel(keys[2]), "already cancelled");
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(t(1)));
        assert_eq!(q.pop(), Some((t(1), 1)));
        assert_eq!(q.pop(), Some((t(1), 3)));
        assert_eq!(q.pop(), Some((t(2), 5)));
        assert!(q.is_empty());
        assert!(q.heap.is_empty());
        assert_eq!(q.free.len(), q.slots.len(), "every slot vacated");
    }

    #[test]
    fn a_slot_is_80_bytes_for_a_72_byte_event_with_a_niche() {
        // The run link takes the padding beside the generation. The
        // simulator's event is at most 72 B and an enum, so `Option` of
        // it needs no tag of its own; a stand-in of that shape:
        type Event = (std::num::NonZeroU64, [u64; 8]);
        assert_eq!(std::mem::size_of::<Option<Event>>(), 72);
        assert_eq!(std::mem::size_of::<Slot<Event>>(), 80);
    }

    #[test]
    fn same_instant_push_during_drain_joins_in_seq_order() {
        // Pushes landing on the instant being drained must merge into the
        // pending run in (time, seq) order.
        let mut q = EventQueue::new();
        q.push(t(1), 0u32);
        q.push(t(1), 1);
        assert_eq!(q.pop_if_at(t(1)), Some(0));
        q.push(t(1), 2); // same instant, mid-drain
        assert_eq!(q.pop_if_at(t(1)), Some(1));
        assert_eq!(q.pop_if_at(t(1)), Some(2));
        assert_eq!(q.pop_if_at(t(1)), None);
    }
}
