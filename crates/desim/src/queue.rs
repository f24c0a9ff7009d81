//! The pending-event set.
//!
//! A binary heap of `(time, seq)` keys over a **generation-stamped slab**
//! of event payloads. `seq` is a monotonically increasing tie-breaker so
//! that events scheduled for the same instant fire in scheduling order —
//! this is what makes whole-federation runs bit-for-bit reproducible under
//! a fixed seed.
//!
//! Why a plain heap: the executive pulls the bulk workload from a sorted
//! side feed one event ahead
//! ([`Simulation::feed_from`](crate::Simulation::feed_from)), so the heap
//! only ever holds what is in flight — protocol timers and messages on the
//! wire — however long the schedule is (1.39 M sends on the paper's
//! reference federation over 250 simulated hours). Measured, that is about
//! 10³ events (peak 1,214 on a 512 x 100-node federation, 2,126 on
//! 1024 x 100), where `log n` is ten
//! comparisons over two or three cache lines. A 700-line timing structure
//! tuned for 10⁵-event populations was A/B'd against this heap on every
//! workload the repository runs and lost on all of them, including the one
//! with 68 k events pending (`bench/ABLATIONS.md`).
//!
//! Cancellation (needed for resettable protocol timers: "the timer is reset
//! when a forced CLC is established") is O(1) and hash-free: every slab
//! slot carries a generation counter that is bumped whenever the slot is
//! vacated, so a stale heap entry (or a stale [`EventKey`]) is detected by
//! a single generation comparison. Cancelled payloads are dropped
//! immediately; only the 24-byte heap entry stays behind until it reaches
//! the top and is discarded. Vacated slots are recycled through a free
//! list, so a steady-state simulation reaches zero allocations per
//! schedule/fire cycle.

use crate::time::SimTime;
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

/// One slab slot: the payload of a live event plus the generation stamp
/// that invalidates stale heap entries and keys.
struct Slot<E> {
    generation: u32,
    event: Option<E>,
}

/// One heap entry: the `(time, seq)` dispatch key plus the slab
/// coordinates of the payload. 24 bytes, no payload — sifting never
/// touches the event itself. Field order is comparison order; `seq` is
/// unique, so the slab coordinates never decide.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct HeapKey {
    at: SimTime,
    seq: u64,
    slot: u32,
    generation: u32,
}

/// Future event list: a cancellable, deterministic priority queue.
pub struct EventQueue<E> {
    /// Earliest first: `BinaryHeap` is a max-heap, hence the `Reverse`.
    heap: BinaryHeap<Reverse<HeapKey>>,
    slots: Vec<Slot<E>>,
    /// Vacated slot indices available for reuse.
    free: Vec<u32>,
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
            next_seq: 0,
            live: 0,
        }
    }

    /// Schedule `event` at absolute time `at`; returns a cancellation key.
    pub fn push(&mut self, at: SimTime, event: E) -> EventKey {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize].event = Some(event);
                s
            }
            None => {
                self.slots.push(Slot {
                    generation: 0,
                    event: Some(event),
                });
                (self.slots.len() - 1) as u32
            }
        };
        let generation = self.slots[slot as usize].generation;
        self.heap.push(Reverse(HeapKey {
            at,
            seq,
            slot,
            generation,
        }));
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
                s.generation = s.generation.wrapping_add(1);
                self.free.push(key.slot);
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Remove and return the earliest live event with its firing time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(Reverse(k)) = self.heap.pop() {
            let s = &mut self.slots[k.slot as usize];
            if s.generation == k.generation {
                if let Some(event) = s.event.take() {
                    s.generation = s.generation.wrapping_add(1);
                    self.free.push(k.slot);
                    self.live -= 1;
                    return Some((k.at, event));
                }
            }
        }
        None
    }

    /// Remove and return the earliest live event only if it fires exactly
    /// at `at` — the executive's same-instant batch drain.
    pub fn pop_if_at(&mut self, at: SimTime) -> Option<E> {
        if self.peek_time() != Some(at) {
            return None;
        }
        self.pop().map(|(_, e)| e)
    }

    /// Firing time of the earliest live event without removing it
    /// (discards cancelled entries that have reached the top).
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(Reverse(k)) = self.heap.peek() {
            let s = &self.slots[k.slot as usize];
            if s.generation == k.generation && s.event.is_some() {
                return Some(k.at);
            }
            self.heap.pop();
        }
        None
    }

    /// Number of live (non-cancelled) pending events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live event is pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

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
