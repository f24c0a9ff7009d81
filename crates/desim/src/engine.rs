//! The simulation executive.
//!
//! A `Simulation` owns the clock, the pending-event set and a user-supplied
//! *world* (the model). The world handles events and schedules follow-up
//! events through the [`Ctx`] handle it receives. The design is the
//! event-scheduling flavour of discrete-event simulation — the same world
//! view C++SIM's process threads expose, but deterministic and with no
//! thread-scheduling nondeterminism.
//!
//! Dispatch is **instant-drained**: when the executive reaches a simulated
//! instant it hands *every* event firing at that instant to
//! [`World::handle`] in one loop, instead of re-entering the executive
//! (and re-finding the next instant) once per event. Order within the
//! instant is the global `(time, seq)` dispatch order — events a handler
//! schedules *at the same instant* get larger `seq`s and join the tail of
//! the same drain, exactly as a one-event-per-step executive would have
//! dispatched them, so runs are bit-identical. (Measured against one event
//! per step: that costs `sim_dense` +7.2 % `wall_s`; `bench/ABLATIONS.md`.)
//! The queue keeps each streak of pushes at one instant as one run, so a
//! handler's broadcast (a CLC request to every node of a cluster, whose
//! copies land at one instant) is one heap entry, and each pop of that
//! instant's drain advances the run in place; where several runs of the
//! instant are pending, the heap merges them by `seq`, which keeps the
//! order above.

use crate::queue::{EventKey, EventQueue};
use hc3i_types::SimTime;
use std::collections::BTreeMap;

/// Canonical ordering key for [inbox](Ctx::schedule_inbox) events: an
/// opaque `(sent, route, copy)` triple supplied by the world.
///
/// Inbox events at one instant dispatch in ascending key order — *not* in
/// scheduling order like queue events. The federation world routes every
/// inter-cluster delivery through the inbox with a key derived from the
/// sending side alone (send instant, directed cluster route, then send
/// order), so the order in which same-instant inter-cluster arrivals
/// reach their receivers is a function of the messages, not of
/// the order their senders happened to be dispatched in. Every committed
/// fingerprint (`bench/FINGERPRINT.txt`, `campaign/GOLDEN.json`, the
/// benchmark's `expected.json`) pins that order.
pub type InboxKey = (SimTime, u64, u64);

/// The model being simulated: a state machine fed events by the executive.
pub trait World {
    /// The world's event alphabet.
    type Event;

    /// Handle `event` occurring at `ctx.now()`. Schedule follow-ups via `ctx`.
    fn handle(&mut self, ctx: &mut Ctx<'_, Self::Event>, event: Self::Event);
}

/// Scheduling handle passed to [`World::handle`].
pub struct Ctx<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
    feed: &'a mut Feed<E>,
    inbox: &'a mut BTreeMap<(SimTime, InboxKey), E>,
    stop_requested: &'a mut bool,
}

impl<'a, E> Ctx<'a, E> {
    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at absolute time `at`. Scheduling in the past is a
    /// model bug and panics (it would silently reorder causality otherwise).
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventKey {
        assert!(
            at >= self.now,
            "event scheduled in the past: now={} at={}",
            self.now,
            at
        );
        self.queue.push(at, event)
    }

    /// Schedule `event` after `delay` from now, saturating at the end of time.
    pub fn schedule_in(&mut self, delay: hc3i_types::SimDuration, event: E) -> EventKey {
        let at = self.now.saturating_add(delay);
        self.queue.push(at, event)
    }

    /// Cancel a previously scheduled event (e.g. to reset a timer).
    pub fn cancel(&mut self, key: EventKey) -> bool {
        self.queue.cancel(key)
    }

    /// Schedule `event` through the canonically-ordered inbox (see
    /// [`InboxKey`]). Inbox events at one instant dispatch *after* the
    /// instant's queue events, in ascending key order regardless of
    /// insertion order. Strictly-future only: an inbox event needs a full
    /// instant boundary to sort against its peers.
    ///
    /// # Panics
    /// If `at` is not in the strict future, or the key is already taken.
    pub fn schedule_inbox(&mut self, at: SimTime, key: InboxKey, event: E) {
        assert!(
            at > self.now,
            "inbox event must be strictly future: now={} at={}",
            self.now,
            at
        );
        let clash = self.inbox.insert((at, key), event);
        assert!(clash.is_none(), "inbox key collision at {at}: {key:?}");
    }

    /// Ask the executive to stop after the current event completes.
    pub fn stop(&mut self) {
        *self.stop_requested = true;
    }

    /// Take the next event firing at `at`, the current instant, or `None`
    /// when the instant is drained. The order: feed events first (the feed
    /// wins ties), then queued events in scheduling order (including
    /// events scheduled *at* this instant while it drains), then inbox
    /// events in canonical key order. Inbox insertion is strictly future,
    /// so the inbox tail of an instant is complete before it starts
    /// draining. Events leave the pending set only as they are taken, so
    /// a handler's [`Ctx::cancel`] of a later same-instant event works.
    fn pop_at(&mut self, at: SimTime) -> Option<E> {
        match self.feed.next_time() {
            Some(ft) if ft == at => Some(self.feed.pop()),
            _ => match self.queue.pop_if_at(at) {
                Some(e) => Some(e),
                None => match self.inbox.first_key_value() {
                    Some((&(t, _), _)) if t == at => {
                        Some(self.inbox.pop_first().expect("peeked").1)
                    }
                    _ => None,
                },
            },
        }
    }
}

/// The external workload: a time-sorted stream read one event ahead, so
/// the executive holds one feed event however long the stream is.
struct Feed<E> {
    /// The next feed event to dispatch, already pulled from `rest`.
    head: Option<(SimTime, E)>,
    /// The stream behind `head`; `None` until a feed is installed.
    rest: Option<Box<dyn Iterator<Item = (SimTime, E)>>>,
}

impl<E> Feed<E> {
    /// Time of the next feed event, if any.
    #[inline]
    fn next_time(&self) -> Option<SimTime> {
        self.head.as_ref().map(|&(at, _)| at)
    }

    /// Pull the event behind the current head (or the first one, with
    /// `floor` the clock at install), refusing a step back in time.
    fn advance(&mut self, floor: SimTime, what: &str) {
        self.head = self.rest.as_mut().and_then(|rest| rest.next());
        if let Some((at, _)) = self.head {
            assert!(at >= floor, "workload feed {what}: {at} < {floor}");
        }
    }

    /// Take the head event and read one ahead.
    fn pop(&mut self) -> E {
        let (at, event) = self.head.take().expect("peeked");
        self.advance(at, "must be sorted by time");
        event
    }
}

/// Why a run loop returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The pending-event set drained.
    Exhausted,
    /// The world requested a stop.
    Stopped,
    /// The configured event budget was consumed.
    BudgetExhausted,
}

/// The simulation executive: clock + event set + world.
pub struct Simulation<W: World> {
    world: W,
    queue: EventQueue<W::Event>,
    /// Pre-sorted external workload, merged lazily into the dispatch order
    /// (see [`Simulation::feed_from`]). Kept outside the queue so a bulk
    /// workload does not inflate the in-flight set for the whole run.
    feed: Feed<W::Event>,
    /// Canonically-ordered side channel (see [`InboxKey`]): events here
    /// dispatch after the queue at their instant, in key order.
    inbox: BTreeMap<(SimTime, InboxKey), W::Event>,
    now: SimTime,
    stop_requested: bool,
    events_processed: u64,
}

impl<W: World> Simulation<W> {
    /// Wrap `world` with an empty schedule at t = 0.
    pub fn new(world: W) -> Self {
        Simulation {
            world,
            queue: EventQueue::new(),
            feed: Feed {
                head: None,
                rest: None,
            },
            inbox: BTreeMap::new(),
            now: SimTime::ZERO,
            stop_requested: false,
            events_processed: 0,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Immutable access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable access to the world (between runs; e.g. to extract stats).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Consume the simulation, returning the world.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Schedule an initial event from outside the world.
    pub fn schedule_at(&mut self, at: SimTime, event: W::Event) -> EventKey {
        assert!(at >= self.now, "initial event scheduled in the past");
        self.queue.push(at, event)
    }

    /// Time of the next event to dispatch (feed wins ties), if any.
    fn next_time(&mut self) -> Option<SimTime> {
        let fq = match (self.feed.next_time(), self.queue.peek_time()) {
            (Some(f), Some(q)) => Some(f.min(q)),
            (Some(f), None) => Some(f),
            (None, q) => q,
        };
        let inbox = self.inbox.first_key_value().map(|(&(at, _), _)| at);
        match (fq, inbox) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Advance to the next pending instant and dispatch up to `max_events`
    /// of its events, stopping early if the world calls [`Ctx::stop`] (the
    /// rest stay pending). Returns the number of events dispatched (0 when
    /// nothing is pending).
    pub(crate) fn step_instant(&mut self, max_events: u64) -> u64 {
        let Some(at) = self.next_time() else {
            return 0;
        };
        debug_assert!(at >= self.now, "event queue returned a past event");
        self.now = at;
        let mut ctx = Ctx {
            now: at,
            queue: &mut self.queue,
            feed: &mut self.feed,
            inbox: &mut self.inbox,
            stop_requested: &mut self.stop_requested,
        };
        let mut taken = 0;
        while taken < max_events && !*ctx.stop_requested {
            let Some(event) = ctx.pop_at(at) else { break };
            taken += 1;
            self.world.handle(&mut ctx, event);
        }
        self.events_processed += taken;
        taken
    }

    /// Run until the event set drains or the world calls [`Ctx::stop`].
    pub fn run(&mut self) -> RunOutcome {
        self.run_with_budget(u64::MAX)
    }

    /// Run, but dispatch at most `budget` events (guards runaway models).
    pub fn run_with_budget(&mut self, budget: u64) -> RunOutcome {
        let mut remaining = budget;
        while !self.stop_requested {
            if remaining == 0 {
                return RunOutcome::BudgetExhausted;
            }
            let taken = self.step_instant(remaining);
            if taken == 0 {
                return RunOutcome::Exhausted;
            }
            remaining -= taken;
        }
        RunOutcome::Stopped
    }
}

/// The workload feed. The stream is boxed as `'static`, hence the bound,
/// which only these two entries carry.
impl<W: World> Simulation<W>
where
    W::Event: 'static,
{
    /// Install a bulk external workload as a pulled stream: `events` must
    /// yield in time order (ties fire in stream order) and is read one
    /// event ahead of the dispatch, so the executive holds one feed event
    /// at a time whatever the stream's length — the stream decides what,
    /// if anything, is materialised behind it. At equal timestamps a fed
    /// event fires **before** anything in the pending-event set — exactly
    /// the order that scheduling the whole workload up-front (before any
    /// other initial event) would produce, without the workload sitting
    /// in the pending set for the entire run and taxing every queue
    /// operation.
    ///
    /// # Panics
    /// If a feed is already installed or the stream starts in the past;
    /// and, when the offending event is pulled, if the stream steps back
    /// in time.
    pub fn feed_from<I>(&mut self, events: I)
    where
        I: Iterator<Item = (SimTime, W::Event)> + 'static,
    {
        assert!(self.feed.rest.is_none(), "workload feed already installed");
        self.feed.rest = Some(Box::new(events));
        self.feed.advance(self.now, "starts in the past");
    }

    /// [`Simulation::feed_from`] over a workload that is already a vector
    /// (consumed front to back as it is dispatched).
    pub fn feed_sorted(&mut self, events: Vec<(SimTime, W::Event)>) {
        self.feed_from(events.into_iter());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc3i_types::SimDuration;

    /// A world that plays ping-pong `limit` times.
    struct PingPong {
        count: u32,
        limit: u32,
        log: Vec<(u64, &'static str)>,
    }

    #[derive(Debug)]
    enum Ev {
        Ping,
        Pong,
    }

    impl World for PingPong {
        type Event = Ev;
        fn handle(&mut self, ctx: &mut Ctx<'_, Ev>, event: Ev) {
            match event {
                Ev::Ping => {
                    self.log.push((ctx.now().nanos(), "ping"));
                    ctx.schedule_in(SimDuration::from_secs(1), Ev::Pong);
                }
                Ev::Pong => {
                    self.log.push((ctx.now().nanos(), "pong"));
                    self.count += 1;
                    if self.count < self.limit {
                        ctx.schedule_in(SimDuration::from_secs(1), Ev::Ping);
                    } else {
                        ctx.stop();
                    }
                }
            }
        }
    }

    fn pingpong(limit: u32) -> Simulation<PingPong> {
        let mut sim = Simulation::new(PingPong {
            count: 0,
            limit,
            log: vec![],
        });
        sim.schedule_at(SimTime::ZERO, Ev::Ping);
        sim
    }

    #[test]
    fn runs_to_stop() {
        let mut sim = pingpong(3);
        assert_eq!(sim.run(), RunOutcome::Stopped);
        assert_eq!(sim.world().count, 3);
        assert_eq!(sim.events_processed(), 6);
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_secs(5));
    }

    #[test]
    fn exhausts_when_no_events() {
        struct Inert;
        impl World for Inert {
            type Event = ();
            fn handle(&mut self, _: &mut Ctx<'_, ()>, _: ()) {}
        }
        let mut sim = Simulation::new(Inert);
        assert_eq!(sim.run(), RunOutcome::Exhausted);
    }

    #[test]
    fn budget_limits_events() {
        let mut sim = pingpong(1_000);
        assert_eq!(sim.run_with_budget(7), RunOutcome::BudgetExhausted);
        assert_eq!(sim.events_processed(), 7);
    }

    #[test]
    fn budget_splits_an_instant_batch() {
        // 10 events at the same instant, budget 4: the batch is cut mid-
        // instant and the remaining 6 events stay pending for a later run.
        struct Tally {
            seen: Vec<u32>,
        }
        impl World for Tally {
            type Event = u32;
            fn handle(&mut self, _: &mut Ctx<'_, u32>, ev: u32) {
                self.seen.push(ev);
            }
        }
        let mut sim = Simulation::new(Tally { seen: vec![] });
        for i in 0..10 {
            sim.schedule_at(SimTime::ZERO + SimDuration::from_secs(1), i);
        }
        assert_eq!(sim.run_with_budget(4), RunOutcome::BudgetExhausted);
        assert_eq!(sim.events_processed(), 4);
        assert_eq!(sim.world().seen, vec![0, 1, 2, 3]);
        assert_eq!(sim.run(), RunOutcome::Exhausted);
        assert_eq!(sim.world().seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn stop_mid_batch_leaves_rest_pending() {
        // An instant with 5 events where the second handler stops: the
        // remaining 3 were never popped and stay pending.
        struct Stopper {
            handled: u32,
        }
        impl World for Stopper {
            type Event = u32;
            fn handle(&mut self, ctx: &mut Ctx<'_, u32>, ev: u32) {
                self.handled += 1;
                if ev == 1 {
                    ctx.stop();
                }
            }
        }
        let mut sim = Simulation::new(Stopper { handled: 0 });
        for i in 0..5 {
            sim.schedule_at(SimTime::ZERO, i);
        }
        assert_eq!(sim.run(), RunOutcome::Stopped);
        assert_eq!(sim.world().handled, 2);
        assert_eq!(sim.events_processed(), 2);
    }

    #[test]
    fn cancel_within_batch_skips_later_event() {
        // Handler of the first event cancels the third (same instant):
        // the third must not fire, exactly as with one-per-step dispatch.
        struct Canceller {
            key: Option<EventKey>,
            fired: Vec<u32>,
        }
        impl World for Canceller {
            type Event = u32;
            fn handle(&mut self, ctx: &mut Ctx<'_, u32>, ev: u32) {
                self.fired.push(ev);
                if ev == 0 {
                    assert!(ctx.cancel(self.key.take().expect("key set")));
                }
            }
        }
        let mut sim = Simulation::new(Canceller {
            key: None,
            fired: vec![],
        });
        sim.schedule_at(SimTime::ZERO, 0);
        sim.schedule_at(SimTime::ZERO, 1);
        let k = sim.schedule_at(SimTime::ZERO, 2);
        sim.world_mut().key = Some(k);
        assert_eq!(sim.run(), RunOutcome::Exhausted);
        assert_eq!(sim.world().fired, vec![0, 1]);
        assert_eq!(sim.events_processed(), 2);
    }

    #[test]
    fn same_instant_schedules_join_the_batch_tail() {
        // A handler scheduling at the current instant: the new event fires
        // within the same batch, after everything already pending there.
        struct Chain {
            fired: Vec<u32>,
        }
        impl World for Chain {
            type Event = u32;
            fn handle(&mut self, ctx: &mut Ctx<'_, u32>, ev: u32) {
                self.fired.push(ev);
                if ev == 0 {
                    ctx.schedule_at(ctx.now(), 99);
                }
            }
        }
        let mut sim = Simulation::new(Chain { fired: vec![] });
        sim.schedule_at(SimTime::ZERO, 0);
        sim.schedule_at(SimTime::ZERO, 1);
        assert_eq!(sim.run(), RunOutcome::Exhausted);
        assert_eq!(sim.world().fired, vec![0, 1, 99], "99 after pending 1");
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        struct Bad;
        impl World for Bad {
            type Event = u32;
            fn handle(&mut self, ctx: &mut Ctx<'_, u32>, ev: u32) {
                if ev == 1 {
                    ctx.schedule_at(SimTime::ZERO, 2);
                }
            }
        }
        let mut sim = Simulation::new(Bad);
        sim.schedule_at(SimTime::ZERO + SimDuration::from_secs(1), 1);
        sim.run();
    }

    #[test]
    fn deterministic_replay() {
        let run = |limit| {
            let mut sim = pingpong(limit);
            sim.run();
            sim.into_world().log
        };
        assert_eq!(run(50), run(50));
    }

    #[test]
    fn feed_ties_fire_before_queue_events_within_a_batch() {
        // Feed events at t and queued events at t share one batch; the
        // feed's must come first (the pre-batching tie rule).
        struct Order {
            fired: Vec<u32>,
        }
        impl World for Order {
            type Event = u32;
            fn handle(&mut self, _: &mut Ctx<'_, u32>, ev: u32) {
                self.fired.push(ev);
            }
        }
        let t1 = SimTime::ZERO + SimDuration::from_secs(1);
        let mut sim = Simulation::new(Order { fired: vec![] });
        sim.schedule_at(t1, 10);
        sim.schedule_at(t1, 11);
        sim.feed_sorted(vec![(t1, 0), (t1, 1)]);
        assert_eq!(sim.run(), RunOutcome::Exhausted);
        assert_eq!(sim.world().fired, vec![0, 1, 10, 11]);
        assert_eq!(sim.events_processed(), 4);
    }

    type Seed = Box<dyn FnOnce(&mut Ctx<'_, u32>)>;

    /// Event 0 runs `seed` against the context (the inbox is reachable
    /// only from inside a handler); every other event is recorded, and
    /// `stop_on` stops the run.
    struct Inboxed {
        seed: Option<Seed>,
        fired: Vec<u32>,
        stop_on: Option<u32>,
    }

    impl World for Inboxed {
        type Event = u32;
        fn handle(&mut self, ctx: &mut Ctx<'_, u32>, ev: u32) {
            if ev == 0 {
                (self.seed.take().expect("one seed event"))(ctx);
                return;
            }
            self.fired.push(ev);
            if self.stop_on == Some(ev) {
                ctx.stop();
            }
        }
    }

    fn inboxed(seed: impl FnOnce(&mut Ctx<'_, u32>) + 'static) -> Simulation<Inboxed> {
        let mut sim = Simulation::new(Inboxed {
            seed: Some(Box::new(seed)),
            fired: vec![],
            stop_on: None,
        });
        sim.schedule_at(SimTime::ZERO, 0);
        sim
    }

    #[test]
    fn inbox_fires_after_queue_in_key_order() {
        // Queue and inbox events at one instant: the queue's fire first
        // (in scheduling order), then the inbox's in key order — NOT in
        // insertion order.
        let t = SimTime::ZERO + SimDuration::from_secs(1);
        let mut sim = inboxed(move |ctx| {
            ctx.schedule_at(t, 10);
            // Inserted out of key order; keys sort 100 < 101 < 102.
            ctx.schedule_inbox(t, (SimTime(5), 0, 1), 102);
            ctx.schedule_inbox(t, (SimTime(3), 0, 0), 100);
            ctx.schedule_inbox(t, (SimTime(3), 7, 0), 101);
            ctx.schedule_at(t, 11);
        });
        assert_eq!(sim.run(), RunOutcome::Exhausted);
        assert_eq!(sim.world().fired, vec![10, 11, 100, 101, 102]);
        assert_eq!(sim.events_processed(), 6);
    }

    #[test]
    fn inbox_alone_advances_the_clock() {
        // next_time must see the inbox even when feed and queue are empty.
        let t = SimTime::ZERO + SimDuration::from_secs(2);
        let mut sim = inboxed(move |ctx| ctx.schedule_inbox(t, (SimTime::ZERO, 1, 0), 7));
        assert_eq!(sim.run(), RunOutcome::Exhausted);
        assert_eq!(sim.world().fired, vec![7]);
        assert_eq!(sim.now(), t);
    }

    #[test]
    fn inbox_events_can_schedule_followups() {
        // An inbox handler schedules a queue event at a later instant; it
        // dispatches normally.
        struct Chain {
            fired: Vec<u32>,
        }
        impl World for Chain {
            type Event = u32;
            fn handle(&mut self, ctx: &mut Ctx<'_, u32>, ev: u32) {
                self.fired.push(ev);
                if ev <= 1 {
                    let next = ctx.now() + SimDuration::from_secs(1);
                    ctx.schedule_at(next, 2 * ev + 2);
                    ctx.schedule_inbox(next, (ctx.now(), 0, 0), 2 * ev + 1);
                }
            }
        }
        let mut sim = Simulation::new(Chain { fired: vec![] });
        sim.schedule_at(SimTime::ZERO, 0);
        assert_eq!(sim.run(), RunOutcome::Exhausted);
        // At t=1 the queued 2 fires before the inboxed 1; the inboxed 1
        // schedules 4 (queue) and 3 (inbox) for t=2, same rule.
        assert_eq!(sim.world().fired, vec![0, 2, 1, 4, 3]);
    }

    #[test]
    fn stop_skips_remaining_inbox_events() {
        // A queue event stopping the run leaves same-instant inbox events
        // unpulled — the rule that lets the horizon `End` event cut off
        // deliveries arriving exactly at the horizon.
        let t = SimTime::ZERO + SimDuration::from_secs(1);
        let mut sim = inboxed(move |ctx| {
            ctx.schedule_at(t, 1);
            ctx.schedule_inbox(t, (SimTime::ZERO, 0, 0), 9);
        });
        sim.world_mut().stop_on = Some(1);
        assert_eq!(sim.run(), RunOutcome::Stopped);
        assert_eq!(sim.world().fired, vec![1]);
    }

    #[test]
    #[should_panic(expected = "strictly future")]
    fn inbox_event_at_the_current_instant_panics() {
        inboxed(|ctx| ctx.schedule_inbox(ctx.now(), (SimTime::ZERO, 0, 0), 1)).run();
    }

    #[test]
    #[should_panic(expected = "inbox key collision")]
    fn duplicate_inbox_keys_panic() {
        let t = SimTime::ZERO + SimDuration::from_secs(1);
        inboxed(move |ctx| {
            ctx.schedule_inbox(t, (SimTime::ZERO, 0, 0), 1);
            ctx.schedule_inbox(t, (SimTime::ZERO, 0, 0), 2);
        })
        .run();
    }

    #[test]
    fn feed_interleaves_at_bucket_boundaries() {
        // Feed and queue events alternating across (and colliding exactly
        // on) 2^16 ns boundaries dispatch in global (time, seq) order with
        // feed winning ties.
        struct Log {
            fired: Vec<(u64, u32)>,
        }
        impl World for Log {
            type Event = u32;
            fn handle(&mut self, ctx: &mut Ctx<'_, u32>, ev: u32) {
                self.fired.push((ctx.now().nanos(), ev));
            }
        }
        let mut sim = Simulation::new(Log { fired: vec![] });
        // Place events on and around multiples of 2^16 ns, far apart, and
        // at ties.
        let w = 1u64 << 16;
        let mut expect = Vec::new();
        let mut feed = Vec::new();
        for i in 0..200u64 {
            let at = SimTime(i * w / 2 + (i % 3));
            if i % 2 == 0 {
                sim.schedule_at(at, i as u32);
            } else {
                feed.push((at, i as u32));
            }
            expect.push((at.nanos(), i as u32));
        }
        // Far-future events, plus ties against feed.
        for i in 0..8u64 {
            let at = SimTime(w * 4096 * (i + 1));
            sim.schedule_at(at, 1_000 + i as u32);
            feed.push((at, 2_000 + i as u32));
            // Feed wins the tie despite the queue push happening first.
            expect.push((at.nanos(), 2_000 + i as u32));
            expect.push((at.nanos(), 1_000 + i as u32));
        }
        sim.feed_sorted(feed);
        assert_eq!(sim.run(), RunOutcome::Exhausted);
        expect.sort_by_key(|&(at, ev)| (at, (1_000..2_000).contains(&ev) as u32, ev));
        assert_eq!(sim.world().fired, expect);
    }

    /// Records every event it is handed.
    struct Fired(Vec<u32>);
    impl World for Fired {
        type Event = u32;
        fn handle(&mut self, _: &mut Ctx<'_, u32>, ev: u32) {
            self.0.push(ev);
        }
    }

    fn secs(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn feed_is_pulled_one_event_ahead() {
        // The stream counts the events it yields: installing pulls the one
        // look-ahead, and k dispatched feed events have pulled k + 1.
        use std::cell::Cell;
        use std::rc::Rc;
        let pulled = Rc::new(Cell::new(0u32));
        let counter = pulled.clone();
        let mut sim = Simulation::new(Fired(vec![]));
        sim.feed_from((0..1_000u32).map(move |i| {
            counter.set(counter.get() + 1);
            (secs(u64::from(i / 2)), i)
        }));
        assert_eq!(pulled.get(), 1, "install reads the look-ahead only");
        for k in 1..=10 {
            assert_eq!(sim.step_instant(1), 1);
            assert_eq!(pulled.get(), k + 1);
        }
        assert_eq!(sim.world().0, (0..10).collect::<Vec<_>>());
        assert_eq!(sim.run(), RunOutcome::Exhausted);
        assert_eq!(sim.events_processed(), 1_000);
        assert_eq!(pulled.get(), 1_000);
    }

    #[test]
    #[should_panic(expected = "must be sorted by time")]
    fn feed_stepping_back_in_time_panics_when_pulled() {
        let mut sim = Simulation::new(Fired(vec![]));
        sim.feed_sorted(vec![(secs(1), 1), (secs(3), 2), (secs(2), 3), (secs(4), 4)]);
        // Installing and the first event are fine; dispatching the second
        // pulls the offender.
        assert_eq!(sim.step_instant(1), 1);
        assert_eq!(sim.world().0, vec![1]);
        sim.step_instant(1);
    }

    #[test]
    #[should_panic(expected = "starts in the past")]
    fn feed_starting_before_now_panics() {
        let mut sim = Simulation::new(Fired(vec![]));
        sim.schedule_at(secs(5), 0);
        sim.run();
        sim.feed_sorted(vec![(secs(4), 1)]);
    }

    #[test]
    #[should_panic(expected = "already installed")]
    fn second_feed_panics() {
        let mut sim = Simulation::new(Fired(vec![]));
        sim.feed_sorted(vec![]);
        sim.feed_sorted(vec![(secs(1), 1)]);
    }
}
