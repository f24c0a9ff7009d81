//! The conservative parallel executive.
//!
//! Clusters are partitioned across `K` shards (see
//! [`ShardMap`](crate::world::ShardMap)); each shard runs its own
//! [`Simulation`] — calendar queue, engine sub-arena, sender-side network
//! state — on its own OS thread. Safety comes from the protocol's wire
//! model: an inter-cluster message sent at `s` arrives no earlier than
//! `s + L`, where `L` is the federation's minimum inter-cluster latency
//! ([`Topology::lookahead`](netsim::Topology::lookahead); hostile skew,
//! holds and FIFO clamps only *add* delay).
//!
//! Execution advances in lock-step *epochs*. At the top of an epoch every
//! shard drains its mailbox, publishes the timestamp of its next pending
//! event through an atomic, and crosses the opening barrier. The global
//! minimum `N` of those timestamps bounds the epoch window: every shard
//! runs its own events strictly below `N + L`, accumulating cross-shard
//! sends in an outbox, then pushes the outbox to the destination
//! mailboxes and crosses the closing barrier.
//!
//! * **Safety.** Any message created during the epoch is sent at or after
//!   `N` (no shard has an unprocessed event before `N`), so it arrives at
//!   or after `N + L` — strictly past everything any shard ran this
//!   epoch. Reactions to such a message happen in a later epoch (mail
//!   rests in the mailbox until the next drain), so transitive influence
//!   is delayed by at least `L` per hop, matching the window bound.
//! * **Liveness.** The shard owning the global minimum always runs at
//!   least that event (`L` is floored at 1 ns), and a quiet stretch is
//!   crossed in a *single* epoch: the window is computed from the actual
//!   next-event time, so the horizon jumps instead of climbing — the
//!   epoch count is proportional to the number of lookahead quanta that
//!   contain events, not to `duration / L`.
//!
//! Determinism does not depend on thread timing at all: every
//! inter-cluster delivery carries a canonical [`InboxKey`] derived from
//! the sending side alone, and the destination's inbox replays
//! same-instant arrivals in key order whatever order the mail showed up.
//! `hc3i_baselines --fingerprint` is byte-identical across shard counts.

use crate::config::SimConfig;
use crate::hostile::HostileRunStats;
use crate::report::RunReport;
use crate::run::{seed_shard_events, EVENT_BUDGET};
use crate::world::{Ev, FederationWorld, ShardMap};
use desim::{InboxKey, SimTime, Simulation, Tracer};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Panic message observed by shards whose sibling died mid-epoch.
const SIBLING_PANIC: &str = "sibling simulator shard panicked";

/// True when a joined panic payload is the sibling echo a poisoned
/// barrier produces (as opposed to the original failure).
fn is_sibling_panic(payload: &(dyn std::any::Any + Send)) -> bool {
    payload
        .downcast_ref::<String>()
        .is_some_and(|s| s == SIBLING_PANIC)
        || payload
            .downcast_ref::<&str>()
            .is_some_and(|s| *s == SIBLING_PANIC)
}

/// One shard's synchronization endpoint.
struct Gate {
    /// The shard's next pending event time in nanoseconds (`u64::MAX`
    /// when stopped or empty), published at the top of every epoch.
    next: AtomicU64,
    /// Cross-shard deliveries addressed to this shard.
    mail: Mutex<Vec<(SimTime, InboxKey, Ev)>>,
}

/// A reusable barrier for the epoch loop: generation-counted so the same
/// instance closes every epoch, poisonable so a panicking shard releases
/// its siblings (who re-panic) instead of deadlocking them.
struct EpochBarrier {
    state: Mutex<BarrierState>,
    cv: Condvar,
    /// Mirror of `state.generation` for the lock-free spin phase.
    generation: AtomicU64,
    poisoned: AtomicBool,
    total: usize,
}

struct BarrierState {
    arrived: usize,
    generation: u64,
}

impl EpochBarrier {
    fn new(total: usize) -> Self {
        EpochBarrier {
            state: Mutex::new(BarrierState {
                arrived: 0,
                generation: 0,
            }),
            cv: Condvar::new(),
            generation: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            total,
        }
    }

    fn wait(&self) {
        if self.poisoned.load(Ordering::Acquire) {
            panic!("{SIBLING_PANIC}");
        }
        let gen = {
            let mut st = self.state.lock().expect("epoch barrier lock poisoned");
            st.arrived += 1;
            if st.arrived == self.total {
                st.arrived = 0;
                st.generation += 1;
                self.generation.store(st.generation, Ordering::Release);
                drop(st);
                self.cv.notify_all();
                return;
            }
            st.generation
        };
        // Epochs are short, so siblings usually arrive within the spin
        // phase; fall back to the condvar (with a timeout, so a poison
        // that raced the notify is still noticed) for real stalls.
        for _ in 0..512 {
            if self.generation.load(Ordering::Acquire) != gen {
                return;
            }
            std::hint::spin_loop();
        }
        let mut st = self.state.lock().expect("epoch barrier lock poisoned");
        while st.generation == gen {
            if self.poisoned.load(Ordering::Acquire) {
                drop(st);
                panic!("{SIBLING_PANIC}");
            }
            let (guard, _) = self
                .cv
                .wait_timeout(st, Duration::from_millis(20))
                .expect("epoch barrier lock poisoned");
            st = guard;
        }
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        self.cv.notify_all();
    }
}

/// Poisons the barrier if the owning shard unwinds, so siblings blocked
/// at either barrier crossing re-panic instead of waiting forever (the
/// original panic still propagates at join).
struct PoisonGuard<'a>(&'a EpochBarrier);

impl Drop for PoisonGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

struct ShardResult {
    report: RunReport,
    tracer: Tracer,
    hostile: HostileRunStats,
}

/// Run `cfg` across `shards` parallel simulator shards and merge the
/// per-shard results into exactly what the sequential executive reports.
pub(crate) fn run_sharded(cfg: SimConfig, shards: usize) -> (RunReport, Tracer, HostileRunStats) {
    assert!(shards > 1, "use the sequential path for one shard");
    let map = ShardMap::new(&cfg.topology, shards);
    let lookahead = cfg.topology.lookahead().nanos();
    let trace_level = cfg.trace;
    let num_clusters = cfg.topology.num_clusters();
    let gates: Vec<Gate> = (0..shards)
        .map(|_| Gate {
            next: AtomicU64::new(0),
            mail: Mutex::new(Vec::new()),
        })
        .collect();
    let barrier = EpochBarrier::new(shards);

    let mut parts: Vec<ShardResult> = Vec::with_capacity(shards);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..shards)
            .map(|shard| {
                let cfg = cfg.clone();
                let map = map.clone();
                let gates = &gates;
                let barrier = &barrier;
                scope.spawn(move || run_shard(cfg, map, shard, gates, barrier, lookahead))
            })
            .collect();
        let mut panics = Vec::new();
        for h in handles {
            match h.join() {
                Ok(part) => parts.push(part),
                Err(panic) => panics.push(panic),
            }
        }
        if !panics.is_empty() {
            // Prefer the original panic over the sibling echoes the
            // poisoned barrier produced.
            let original = panics
                .iter()
                .position(|p| !is_sibling_panic(p.as_ref()))
                .unwrap_or(0);
            std::panic::resume_unwind(panics.swap_remove(original));
        }
    });

    merge(parts, &map, num_clusters, trace_level)
}

fn run_shard(
    cfg: SimConfig,
    map: ShardMap,
    shard: usize,
    gates: &[Gate],
    barrier: &EpochBarrier,
    lookahead: u64,
) -> ShardResult {
    let _guard = PoisonGuard(barrier);
    let mut sim = Simulation::new(FederationWorld::new_shard(cfg, map, shard));
    seed_shard_events(&mut sim);

    let mut epochs = 0u64;
    let mut busy_epochs = 0u64;
    loop {
        epochs += 1;
        // (1) Drain the mailbox into the canonically-ordered inbox. The
        // previous epoch's closing barrier ordered every sibling's push
        // before this drain, so the publish below accounts for all mail.
        {
            let mut mail = gates[shard].mail.lock().expect("shard mailbox poisoned");
            for (at, key, ev) in mail.drain(..) {
                sim.ingest(at, key, ev);
            }
        }
        // (2) Publish this shard's next pending event time.
        let next = if sim.is_stopped() {
            u64::MAX
        } else {
            sim.next_time().map(|t| t.nanos()).unwrap_or(u64::MAX)
        };
        gates[shard].next.store(next, Ordering::Release);
        // (3) Opening barrier: every publish is now visible to everyone,
        // so all shards compute the same epoch window.
        barrier.wait();
        let floor = gates
            .iter()
            .map(|g| g.next.load(Ordering::Acquire))
            .min()
            .expect("at least one shard");
        if floor == u64::MAX {
            // Every shard is stopped (or drained) with empty mailboxes:
            // all of them see this same minimum and exit together.
            break;
        }
        // (4) Run every event strictly below `floor + L`. The horizon
        // jumps straight to the global minimum, so quiet stretches cost
        // one epoch regardless of how many lookahead quanta they span.
        let horizon = SimTime(floor.saturating_add(lookahead) - 1);
        if next <= horizon.nanos() {
            busy_epochs += 1;
            sim.run_until(horizon);
            assert!(
                sim.events_processed() <= EVENT_BUDGET,
                "simulation exceeded the event budget — protocol livelock?"
            );
            // (5) Hand cross-shard sends to their owners. One mailbox
            // lock per destination shard, not per copy.
            let mut outbox = sim.world_mut().take_outbox();
            if !outbox.is_empty() {
                outbox.sort_by_key(|&(dest, ..)| dest);
                let mut iter = outbox.into_iter().peekable();
                while let Some((dest, at, key, ev)) = iter.next() {
                    let mut mail = gates[dest].mail.lock().expect("shard mailbox poisoned");
                    mail.push((at, key, ev));
                    while let Some(&(d, ..)) = iter.peek() {
                        if d != dest {
                            break;
                        }
                        let (_, at, key, ev) = iter.next().expect("peeked");
                        mail.push((at, key, ev));
                    }
                }
            }
        }
        // (6) Closing barrier: every epoch-`e` push lands before any
        // shard's epoch-`e+1` drain.
        barrier.wait();
    }

    // Debug aid for tuning the executive (never part of the report, so
    // the determinism contract is untouched): per-shard epoch counts on
    // stderr when HC3I_EPOCH_STATS is set.
    if std::env::var_os("HC3I_EPOCH_STATS").is_some() {
        eprintln!(
            "shard {shard}: {epochs} epochs, {busy_epochs} busy, {} events",
            sim.events_processed()
        );
    }

    let now = sim.now();
    let events = sim.events_processed();
    let report = sim.world_mut().finalize(now, events);
    let hostile = sim.world_mut().finalize_hostile();
    let world = sim.into_world();
    ShardResult {
        report,
        tracer: world.tracer,
        hostile,
    }
}

/// Fold per-shard results into the sequential run's report: per-cluster
/// stats come from the owning shard, traffic counters and matrices are
/// disjoint sums (all network accounting is sender-side), the clock ends
/// at the common horizon, and the per-shard `End` events — the only
/// events dispatched more than once across the federation — are deducted.
fn merge(
    parts: Vec<ShardResult>,
    map: &ShardMap,
    num_clusters: usize,
    trace_level: desim::TraceLevel,
) -> (RunReport, Tracer, HostileRunStats) {
    let shards = parts.len();
    let mut report = RunReport::new(num_clusters);
    let mut hostile = HostileRunStats::default();
    let mut tracers = Vec::with_capacity(shards);
    for (s, part) in parts.into_iter().enumerate() {
        let r = part.report;
        for (c, stats) in r.clusters.into_iter().enumerate() {
            if map.owner(c) == s {
                report.clusters[c] = stats;
            }
        }
        for (i, row) in r.app_matrix.into_iter().enumerate() {
            for (j, v) in row.into_iter().enumerate() {
                report.app_matrix[i][j] += v;
            }
        }
        report.app_delivered += r.app_delivered;
        report.app_sent += r.app_sent;
        report.protocol_messages += r.protocol_messages;
        report.protocol_bytes += r.protocol_bytes;
        report.ack_messages += r.ack_messages;
        report.ack_bytes += r.ack_bytes;
        report.app_bytes += r.app_bytes;
        report.late_crossings += r.late_crossings;
        report.unrecoverable_faults += r.unrecoverable_faults;
        report.events_processed += r.events_processed;
        report.ended_at = report.ended_at.max(r.ended_at);

        let h = part.hostile;
        hostile.partitions_activated += h.partitions_activated;
        hostile.partitions_healed += h.partitions_healed;
        hostile.messages_held += h.messages_held;
        hostile.duplicates_injected += h.duplicates_injected;
        hostile.messages_reordered += h.messages_reordered;
        hostile.messages_lost += h.messages_lost;
        hostile.retransmissions += h.retransmissions;
        if let Some(l) = h.ledger {
            hostile
                .ledger
                .get_or_insert_with(Default::default)
                .absorb(&l);
        }
        tracers.push(part.tracer);
    }
    report.events_processed -= shards as u64 - 1;
    (report, Tracer::merged(trace_level, tracers), hostile)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The barrier must be reusable: the same instance closes thousands
    /// of epochs, so a stale generation must never release early or trap
    /// a thread from the next round.
    #[test]
    fn barrier_closes_many_generations() {
        use std::sync::atomic::AtomicU64;
        const THREADS: usize = 4;
        const ROUNDS: u64 = 200;
        let barrier = EpochBarrier::new(THREADS);
        let counter = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for round in 0..ROUNDS {
                        counter.fetch_add(1, Ordering::Relaxed);
                        barrier.wait();
                        // Everyone incremented before anyone left.
                        assert!(counter.load(Ordering::Relaxed) >= (round + 1) * THREADS as u64);
                        barrier.wait();
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), ROUNDS * THREADS as u64);
    }

    /// A poisoned barrier releases blocked waiters as panics instead of
    /// deadlocking them — the property that lets a crashed shard's
    /// siblings unwind.
    #[test]
    fn poison_unblocks_waiters() {
        let barrier = EpochBarrier::new(2);
        let outcome = std::thread::scope(|scope| {
            let h = scope.spawn(|| barrier.wait());
            std::thread::sleep(Duration::from_millis(10));
            barrier.poison();
            h.join()
        });
        let payload = outcome.expect_err("waiter must panic, not hang");
        assert!(is_sibling_panic(payload.as_ref()));
    }
}
