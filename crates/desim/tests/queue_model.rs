//! Model-based property test: the cancellable event queue behaves exactly
//! like a reference implementation built on `BTreeMap` — across the time
//! regimes a federation run mixes (same-instant ties, microsecond
//! deliveries, 30-minute timers, `SimTime::MAX` sentinels), under pushes
//! earlier than the current head, slot recycling and 10 k-event
//! populations. Streaks of pushes at one instant are the queue's runs:
//! streaks of one instant interleaved with pushes elsewhere, cancels
//! inside a streak and at its tail, and pushes at the head instant while
//! it drains all pin the order the runs are merged in.

use desim::{EventKey, EventQueue, SimTime};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

#[derive(Debug, Clone)]
enum Op {
    /// Push an event at the given time.
    Push(u64),
    /// Push n events at the given time, one after another: one run.
    PushStreak(u64, usize),
    /// Push this far *before* the current head (the raw queue, unlike
    /// `Ctx`, permits it — and after pops that is before the last pop).
    PushBeforeHead(u64),
    /// Cancel the newest key and push at the given time straight away, so
    /// the push recycles the slot just vacated; the old key must be dead.
    Recycle(u64),
    /// Pop the earliest event.
    Pop,
    /// Batch-drain up to n events of the head instant via `pop_if_at`.
    PopBatch(usize),
    /// `pop_if_at` at a time that may not be the head instant (usually a
    /// miss — must take nothing).
    PopAt(u64),
    /// Cancel the k-th key handed out so far (if any).
    Cancel(usize),
    /// Cancel the k-th newest key (0 is the newest: a streak's tail).
    CancelRecent(usize),
    /// Drain up to n events of the head instant via `pop_if_at`, pushing
    /// one event at that instant after each: it joins the run being
    /// drained, or starts one behind it.
    DrainPushing(usize),
    /// Peek the earliest pending time.
    Peek,
}

const NS_PER_US: u64 = 1_000;
const HALF_HOUR_NS: u64 = 30 * 60 * 1_000_000_000;

/// Firing times from 1 ns to `SimTime::MAX`.
fn time_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        // Dense small times: same-instant ties are common.
        4 => 0u64..50,
        // Deliveries a few microseconds apart, starting at 1 ns.
        3 => (0u64..2_000).prop_map(|us| 1 + us * NS_PER_US),
        // 30-minute protocol timers among them.
        2 => (1u64..6).prop_map(|k| k * HALF_HOUR_NS),
        // "Infinite" timers: the end of time and just before it.
        1 => (0u64..3).prop_map(|d| u64::MAX - d),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => time_strategy().prop_map(Op::Push),
        3 => (time_strategy(), 1usize..9).prop_map(|(t, n)| Op::PushStreak(t, n)),
        1 => (1u64..5_000).prop_map(Op::PushBeforeHead),
        1 => time_strategy().prop_map(Op::Recycle),
        3 => Just(Op::Pop),
        2 => (1usize..6).prop_map(Op::PopBatch),
        1 => time_strategy().prop_map(Op::PopAt),
        2 => any::<prop::sample::Index>().prop_map(|i| Op::Cancel(i.index(64))),
        2 => (0usize..8).prop_map(Op::CancelRecent),
        1 => (1usize..6).prop_map(Op::DrainPushing),
        1 => Just(Op::Peek),
    ]
}

/// Reference model: live events keyed by `(time, seq)`, plus each live
/// event's time by `seq` so a cancel is a lookup.
#[derive(Default)]
struct Model {
    live: BTreeMap<(u64, u64), u64>, // (time, seq) -> value
    time_of: HashMap<u64, u64>,      // seq -> time, live events only
    next_seq: u64,
}

impl Model {
    fn push(&mut self, t: u64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live.insert((t, seq), seq);
        self.time_of.insert(seq, t);
        seq
    }
    fn pop(&mut self) -> Option<(u64, u64)> {
        let ((t, seq), v) = self.live.pop_first()?;
        self.time_of.remove(&seq);
        Some((t, v))
    }
    fn cancel(&mut self, seq: u64) -> bool {
        match self.time_of.remove(&seq) {
            Some(t) => self.live.remove(&(t, seq)).is_some(),
            None => false,
        }
    }
    fn peek(&self) -> Option<u64> {
        self.live.keys().next().map(|&(t, _)| t)
    }
    /// Pop the earliest event only if it fires exactly at `t`.
    fn pop_if_at(&mut self, t: u64) -> Option<u64> {
        if self.peek() != Some(t) {
            return None;
        }
        self.pop().map(|(_, v)| v)
    }
}

/// The queue under test and the model, driven in lockstep.
#[derive(Default)]
struct Pair {
    queue: EventQueue<u64>,
    model: Model,
    keys: Vec<EventKey>,
}

impl Pair {
    fn push(&mut self, t: u64) -> Result<(), TestCaseError> {
        let key = self.queue.push(SimTime(t), self.model.next_seq);
        let seq = self.model.push(t);
        prop_assert_eq!(key.raw(), seq);
        self.keys.push(key);
        Ok(())
    }

    fn cancel(&mut self, key: EventKey) -> Result<(), TestCaseError> {
        let got = self.queue.cancel(key);
        let want = self.model.cancel(key.raw());
        prop_assert_eq!(got, want, "cancel({})", key.raw());
        Ok(())
    }

    fn pop(&mut self) -> Result<bool, TestCaseError> {
        match (self.queue.pop(), self.model.pop()) {
            (None, None) => Ok(false),
            (Some((t, v)), Some((mt, mv))) => {
                prop_assert_eq!(t, SimTime(mt));
                prop_assert_eq!(v, mv);
                Ok(true)
            }
            (g, w) => {
                prop_assert!(false, "queue {g:?} vs model {w:?}");
                Ok(false)
            }
        }
    }

    fn apply(&mut self, op: Op) -> Result<(), TestCaseError> {
        match op {
            Op::Push(t) => self.push(t)?,
            Op::PushStreak(t, n) => {
                for _ in 0..n {
                    self.push(t)?;
                }
            }
            Op::PushBeforeHead(d) => {
                let head = self.model.peek().unwrap_or(0);
                self.push(head.saturating_sub(d))?;
            }
            Op::Recycle(t) => {
                if let Some(&old) = self.keys.last() {
                    self.cancel(old)?;
                    self.push(t)?;
                    prop_assert!(!self.queue.cancel(old), "a recycled slot's old key is dead");
                }
            }
            Op::Pop => {
                self.pop()?;
            }
            Op::PopBatch(n) => {
                if let Some(at) = self.queue.peek_time() {
                    prop_assert_eq!(Some(at.nanos()), self.model.peek());
                    for _ in 0..n {
                        let got = self.queue.pop_if_at(at);
                        prop_assert_eq!(got, self.model.pop_if_at(at.nanos()));
                        if got.is_none() {
                            break;
                        }
                    }
                }
            }
            Op::PopAt(t) => {
                let got = self.queue.pop_if_at(SimTime(t));
                prop_assert_eq!(got, self.model.pop_if_at(t), "pop_if_at({t})");
            }
            Op::Cancel(i) => {
                if !self.keys.is_empty() {
                    self.cancel(self.keys[i % self.keys.len()])?;
                }
            }
            Op::CancelRecent(k) => {
                if let Some(&key) = self.keys.iter().rev().nth(k) {
                    self.cancel(key)?;
                }
            }
            Op::DrainPushing(n) => {
                if let Some(at) = self.queue.peek_time() {
                    for _ in 0..n {
                        let got = self.queue.pop_if_at(at);
                        prop_assert_eq!(got, self.model.pop_if_at(at.nanos()));
                        self.push(at.nanos())?;
                    }
                }
            }
            Op::Peek => {
                prop_assert_eq!(self.queue.peek_time(), self.model.peek().map(SimTime));
            }
        }
        prop_assert_eq!(self.queue.len(), self.model.live.len());
        prop_assert_eq!(self.queue.is_empty(), self.model.live.is_empty());
        Ok(())
    }

    /// Drain both and compare the tails.
    fn drain(&mut self) -> Result<(), TestCaseError> {
        while self.pop()? {}
        prop_assert!(self.queue.is_empty());
        Ok(())
    }
}

/// Apply `ops` to a fresh pair, then drain it.
fn run_ops(ops: Vec<Op>) -> Result<(), TestCaseError> {
    let mut pair = Pair::default();
    for op in ops {
        pair.apply(op)?;
    }
    pair.drain()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn queue_matches_reference_model(ops in prop::collection::vec(op_strategy(), 1..300)) {
        run_ops(ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    /// The same property, 20,000 cases deep: every committed golden's
    /// dispatch order rests on the run merge. CI runs it with `--ignored`.
    #[test]
    #[ignore = "deep run, ~8 s in a debug build; CI runs it with --ignored"]
    fn queue_matches_reference_model_deep(ops in prop::collection::vec(op_strategy(), 1..300)) {
        run_ops(ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A population two orders of magnitude above what a federation run
    /// keeps pending: 10 k events pushed, a share cancelled, half popped,
    /// a second wave pushed around the moving head, then everything
    /// drained — in the model's order throughout.
    #[test]
    fn ten_thousand_events_stay_in_model_order(
        times in prop::collection::vec(time_strategy(), 10_000..10_001),
        second_wave in prop::collection::vec(op_strategy(), 2_000..2_001),
        cancel_every in 2usize..7,
    ) {
        let mut pair = Pair::default();
        for t in times {
            pair.push(t)?;
        }
        prop_assert_eq!(pair.queue.len(), 10_000);
        for i in (0..pair.keys.len()).step_by(cancel_every) {
            pair.cancel(pair.keys[i])?;
        }
        for _ in 0..pair.queue.len() / 2 {
            prop_assert!(pair.pop()?);
        }
        for op in second_wave {
            pair.apply(op)?;
        }
        pair.drain()?;
    }
}
