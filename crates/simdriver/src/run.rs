//! The run entry point.

use crate::config::SimConfig;
use crate::hostile::HostileRunStats;
use crate::trace::TraceEvent;
use crate::world::{Ev, FederationWorld, Finished};
use desim::{exponential, RngStreams, RunOutcome, SimDuration, SimTime, Simulation};
use hc3i_core::{AppPayload, Input, RunReport};
use rand::Rng;
use workload::SendEvent;

/// Hard ceiling on dispatched events, guarding against model bugs.
const EVENT_BUDGET: u64 = 500_000_000;

/// Run one federation simulation to completion and report.
///
/// The application's sends are pulled as simulated time reaches them:
/// walked from [`SimConfig::sends`], or drawn from
/// [`SimConfig::stochastic`] with [`SimConfig::seed`], which then picks
/// the schedule as well as the MTBF faults.
///
/// # Panics
/// Before the first event, if [`SimConfig::sends`] is not sorted by time
/// (the message names the first send out of order) or is set alongside
/// [`SimConfig::stochastic`], or a cluster's CLC
/// delay or the GC interval is zero (such a timer re-arms at the instant
/// it fires); or if the event budget is exhausted (a protocol livelock —
/// never expected).
pub fn run(cfg: SimConfig) -> RunReport {
    run_traced(cfg).0
}

/// Like [`run`], but also returns the trace: the records the level set
/// by [`SimConfig::trace`] keeps, in the order they happened (empty, and
/// never allocated, when it is off). [`crate::trace::render`] prints it.
pub fn run_traced(cfg: SimConfig) -> (RunReport, Vec<(SimTime, TraceEvent)>) {
    let (report, trace, _) = run_inner(cfg);
    (report, trace)
}

/// Like [`run`], but also returns the hostile-network side statistics
/// (partition/duplication/reorder counters and, with
/// [`SimConfig::with_delivery_ledger`], the per-tag delivery ledger that
/// the shared interpreter fed, keyed by epoch and SN).
///
/// The [`RunReport`] is computed identically to [`run`]'s — hostile
/// observations never touch the fingerprinted report.
pub fn run_hostile(cfg: SimConfig) -> (RunReport, HostileRunStats) {
    let (report, _, hostile) = run_inner(cfg);
    (report, hostile)
}

/// Schedule the run's initial events: the workload feed, scripted and
/// MTBF-driven faults, scripted checkpoints and collections, partition
/// bookkeeping, the periodic timers and the horizon.
fn seed_events(sim: &mut Simulation<FederationWorld>) {
    let streams = RngStreams::new(sim.world().cfg.seed);
    let horizon = sim.world().cfg.horizon();

    // Install the workload as a pulled feed: scheduling it first would
    // give every send the smallest sequence numbers, so sends fire before
    // same-instant protocol events — the feed's tie-breaking rule
    // reproduces exactly that order while keeping the bulk workload out
    // of the pending-event heap (whose per-op cost scales with its depth).
    // An explicit schedule is moved out of the world and mapped as it is
    // pulled, so the run holds it once; the model is drawn as it is
    // pulled, so the run holds no schedule at all. A send's tag is its
    // pull index either way.
    let sends = std::mem::take(&mut sim.world_mut().cfg.sends);
    match sim.world_mut().cfg.stochastic.take() {
        Some(model) => {
            assert!(
                sends.is_empty(),
                "cfg.sends and cfg.stochastic are both set: a run has one source of sends"
            );
            feed_sends(sim, model.sends(&streams));
        }
        None => {
            if let Some(i) = sends.windows(2).position(|w| w[1].at < w[0].at) {
                panic!(
                    "cfg.sends must be sorted by time: send {} at {} follows send {i} at {}",
                    i + 1,
                    sends[i + 1].at,
                    sends[i].at
                );
            }
            feed_sends(sim, sends.into_iter());
        }
    }

    // Scripted faults, checkpoints and collections. A scripted checkpoint
    // or collection is the coordinator's timer input, fired once: the
    // periodic timers are left alone.
    for i in 0..sim.world().cfg.faults.len() {
        let f = sim.world().cfg.faults[i];
        sim.schedule_at(f.at, Ev::Fault { node: f.node });
    }
    for i in 0..sim.world().cfg.scripted_clcs.len() {
        let (at, cluster) = sim.world().cfg.scripted_clcs[i];
        let node = sim.world().cfg.protocol.coordinator(cluster);
        let input = Input::ClcTimer;
        sim.schedule_at(at, Ev::Input { node, input });
    }
    for i in 0..sim.world().cfg.scripted_gcs.len() {
        let at = sim.world().cfg.scripted_gcs[i];
        let node = sim.world().cfg.protocol.coordinator(0);
        let input = Input::GcTimer;
        sim.schedule_at(at, Ev::Input { node, input });
    }

    // Scripted partition cuts and heals (bookkeeping events; the holds
    // themselves are computed from the schedule at send time). Only ever
    // scheduled when partitions exist, keeping the pristine event stream
    // untouched.
    for index in 0..sim.world().cfg.partitions.len() {
        let p = &sim.world().cfg.partitions[index];
        let (at, until) = (p.at, p.until);
        sim.schedule_at(at, Ev::PartitionStart { index });
        if until < horizon {
            sim.schedule_at(until, Ev::PartitionHeal { index });
        }
    }

    // MTBF-driven faults.
    if let Some(mtbf) = sim.world().cfg.topology.mtbf {
        let total_nodes = sim.world().cfg.topology.total_nodes();
        let mut rng = streams.stream("faults", 0);
        let mut t = SimTime::ZERO;
        loop {
            let gap = exponential(&mut rng, mtbf.as_secs_f64());
            t = t.saturating_add(SimDuration::from_secs_f64(gap));
            if t >= horizon {
                break;
            }
            let node = sim
                .world()
                .layout
                .node(rng.gen_range(0..total_nodes) as usize);
            sim.schedule_at(t, Ev::Fault { node });
        }
    }

    // Periodic timers (the GC timer belongs to the federation initiator,
    // cluster 0's coordinator). Each re-arms itself one delay after it
    // fires, so a zero delay would never let the clock advance.
    for cluster in 0..sim.world().cfg.clc_delays.len() {
        let delay = sim.world().cfg.clc_delays[cluster];
        assert!(
            delay > SimDuration::ZERO,
            "cluster {cluster}'s CLC delay must be positive"
        );
        if !delay.is_infinite() {
            let key = sim.schedule_at(SimTime::ZERO + delay, Ev::ClcTimer { cluster });
            sim.world_mut().clc_timer_keys[cluster] = Some(key);
        }
    }
    if let Some(interval) = sim.world().cfg.gc_interval {
        assert!(
            interval > SimDuration::ZERO,
            "the GC interval must be positive"
        );
        sim.schedule_at(SimTime::ZERO + interval, Ev::GcTimer);
    }

    sim.schedule_at(horizon, Ev::End);
}

/// Install time-sorted `sends` as the run's workload feed, each an
/// application send input tagged with its pull index.
fn feed_sends(
    sim: &mut Simulation<FederationWorld>,
    sends: impl Iterator<Item = SendEvent> + 'static,
) {
    sim.feed_from(sends.enumerate().map(|(tag, s)| {
        let (node, tag) = (s.from, tag as u64);
        let payload = AppPayload {
            bytes: s.bytes,
            tag,
        };
        let input = Input::AppSend { to: s.to, payload };
        (s.at, Ev::Input { node, input })
    }));
}

fn run_inner(cfg: SimConfig) -> Finished {
    let mut sim = Simulation::new(FederationWorld::new(cfg));
    seed_events(&mut sim);

    let outcome = sim.run_with_budget(EVENT_BUDGET);
    assert_ne!(
        outcome,
        RunOutcome::BudgetExhausted,
        "simulation exceeded the event budget — protocol livelock?"
    );
    let now = sim.now();
    let events = sim.events_processed();
    sim.into_world().finalize(now, events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TraceLevel;
    use desim::SimDuration;
    use hc3i_core::{Msg, ProtoEvent};
    use netsim::{HostileSpec, NodeId, Topology};
    use workload::{TargetCountWorkload, Workload};

    fn small_cfg(duration_min: u64) -> SimConfig {
        let topo = Topology::new(
            vec![
                netsim::ClusterSpec {
                    nodes: 4,
                    intra: netsim::LinkSpec::myrinet_like(),
                };
                2
            ],
            netsim::LinkSpec::ethernet_like(),
        );
        SimConfig::new(topo, SimDuration::from_minutes(duration_min))
    }

    fn small_workload(duration_min: u64, counts: Vec<Vec<u64>>) -> Vec<workload::SendEvent> {
        TargetCountWorkload {
            cluster_sizes: vec![4, 4],
            duration: SimDuration::from_minutes(duration_min),
            counts,
            payload_bytes: 256,
        }
        .schedule(&RngStreams::new(99))
    }

    #[test]
    fn quiet_run_produces_no_clcs() {
        let report = run(small_cfg(10));
        assert_eq!(report.clusters[0].total_clcs(), 0);
        assert_eq!(report.app_sent, 0);
        assert_eq!(report.late_crossings, 0);
    }

    #[test]
    fn timer_driven_clcs_accumulate() {
        let cfg = small_cfg(60).with_clc_delay(0, SimDuration::from_minutes(10));
        let report = run(cfg);
        // 60 minutes / 10-minute timer: 5–6 unforced CLCs in cluster 0.
        let c0 = &report.clusters[0];
        assert!(
            (5..=6).contains(&c0.unforced_clcs),
            "got {} unforced",
            c0.unforced_clcs
        );
        assert_eq!(c0.forced_clcs, 0);
        assert_eq!(report.clusters[1].total_clcs(), 0);
    }

    #[test]
    fn traffic_is_delivered_and_counted() {
        let sends = small_workload(10, vec![vec![50, 5], vec![5, 50]]);
        let n_sends = sends.len() as u64;
        let report = run(small_cfg(10).with_sends(sends));
        assert_eq!(report.app_sent, n_sends);
        assert_eq!(report.app_delivered, n_sends, "reliable network");
        assert_eq!(report.app_matrix[0][0], 50);
        assert_eq!(report.app_matrix[0][1], 5);
        assert_eq!(report.late_crossings, 0);
    }

    #[test]
    #[should_panic(expected = "cfg.sends must be sorted by time: send 2 at")]
    fn an_unsorted_schedule_is_refused_before_the_first_event() {
        // Tags are indices into `cfg.sends`, so the schedule is never
        // reordered behind the caller's back.
        let mut sends = small_workload(10, vec![vec![50, 5], vec![5, 50]]);
        sends[2].at = SimTime::ZERO;
        assert!(sends[1].at > SimTime::ZERO);
        run(small_cfg(10).with_sends(sends));
    }

    #[test]
    fn a_model_drawn_as_pulled_runs_as_its_schedule() {
        let model = workload::StochasticWorkload {
            cluster_sizes: vec![4, 4],
            duration: SimDuration::from_minutes(30),
            compute_mean_secs: vec![2.0, 3.0],
            pattern: vec![vec![0.9, 0.1], vec![0.1, 0.9]],
            payload_bytes: 256,
        };
        let cfg = small_cfg(30)
            .with_clc_delay(0, SimDuration::from_minutes(5))
            .with_fault(
                SimTime::ZERO + SimDuration::from_minutes(17),
                NodeId::new(1, 2),
            )
            .with_seed(11)
            .with_trace(TraceLevel::Full);
        let schedule = model.schedule(&RngStreams::new(11));
        let (listed, listed_trace) = run_traced(cfg.clone().with_sends(schedule));
        let (drawn, drawn_trace) = run_traced(cfg.with_sends(model));
        assert!(drawn.app_sent > 1000 && drawn.total_rollbacks() == 1);
        assert_eq!(format!("{drawn:?}"), format!("{listed:?}"));
        assert_eq!(drawn_trace, listed_trace, "same sends, same tags");
    }

    #[test]
    #[should_panic(expected = "cfg.sends and cfg.stochastic are both set")]
    fn a_schedule_beside_a_model_is_refused_before_the_first_event() {
        let model = workload::StochasticWorkload {
            cluster_sizes: vec![4, 4],
            duration: SimDuration::from_minutes(10),
            compute_mean_secs: vec![2.0, 3.0],
            pattern: vec![vec![0.9, 0.1], vec![0.1, 0.9]],
            payload_bytes: 256,
        };
        let mut cfg = small_cfg(10).with_sends(model);
        cfg.sends = small_workload(10, vec![vec![5, 5], vec![5, 5]]);
        run(cfg);
    }

    #[test]
    #[should_panic(expected = "cluster 1's CLC delay must be positive")]
    fn a_zero_clc_delay_is_refused_before_the_first_event() {
        run(small_cfg(10).with_clc_delay(1, SimDuration::ZERO));
    }

    #[test]
    #[should_panic(expected = "the GC interval must be positive")]
    fn a_zero_gc_interval_is_refused_before_the_first_event() {
        run(small_cfg(10).with_gc_interval(SimDuration::ZERO));
    }

    #[test]
    fn inter_cluster_messages_force_clcs() {
        // Cluster 0 checkpoints on a timer; each new CLC makes the next
        // 0→1 message force a CLC in cluster 1.
        let sends = small_workload(60, vec![vec![0, 30], vec![0, 0]]);
        let cfg = small_cfg(60)
            .with_clc_delay(0, SimDuration::from_minutes(10))
            .with_sends(sends);
        let report = run(cfg);
        let forced = report.clusters[1].forced_clcs;
        // First message forces (SN 1 > 0); then one force per cluster-0 CLC
        // that is followed by a message: ≈ 6 + 1, bounded by message count.
        assert!(forced >= 2, "got {forced}");
        assert!(forced <= 8, "got {forced}");
        assert_eq!(report.clusters[1].unforced_clcs, 0);
    }

    #[test]
    fn deterministic_under_same_seed() {
        let mk = || {
            let sends = small_workload(30, vec![vec![40, 8], vec![8, 40]]);
            run(small_cfg(30)
                .with_clc_delay(0, SimDuration::from_minutes(5))
                .with_clc_delay(1, SimDuration::from_minutes(7))
                .with_sends(sends))
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.app_delivered, b.app_delivered);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.clusters[0].total_clcs(), b.clusters[0].total_clcs());
        assert_eq!(a.protocol_messages, b.protocol_messages);
    }

    #[test]
    fn fault_triggers_rollback_and_recovery() {
        let sends = small_workload(30, vec![vec![40, 5], vec![0, 40]]);
        let cfg = small_cfg(30)
            .with_clc_delay(0, SimDuration::from_minutes(5))
            .with_clc_delay(1, SimDuration::from_minutes(5))
            .with_sends(sends)
            .with_fault(
                SimTime::ZERO + SimDuration::from_minutes(17),
                NodeId::new(0, 2),
            );
        let report = run(cfg);
        assert_eq!(report.clusters[0].rollbacks.len(), 1);
        let (at, sn, _) = report.clusters[0].rollbacks[0];
        assert!(at >= SimTime::ZERO + SimDuration::from_minutes(17));
        assert!(sn.value() >= 1);
        assert_eq!(report.unrecoverable_faults, 0);
        // Work lost is under one timer period (fault at 17 min, CLC at 15).
        assert!(report.clusters[0].work_lost[0] <= SimDuration::from_minutes(5));
        assert_eq!(report.late_crossings, 0);
    }

    #[test]
    fn a_failed_coordinator_recovers_and_its_timer_clcs_resume() {
        let cfg = small_cfg(60)
            .with_clc_delay(0, SimDuration::from_minutes(5))
            .with_fault(
                SimTime::ZERO + SimDuration::from_minutes(17),
                NodeId::new(0, 0),
            )
            .with_trace(TraceLevel::Protocol);
        let (report, trace) = run_traced(cfg);
        assert_eq!(report.clusters[0].rollbacks.len(), 1);
        assert_eq!(report.unrecoverable_faults, 0);
        let (rolled_back_at, ..) = report.clusters[0].rollbacks[0];
        // Rank 1 hears the report and restores CLC 4 (5, 10, 15 min);
        // the revived coordinator's timer then commits every 5 minutes
        // again, at 22 through 57 min.
        let resumed = trace
            .iter()
            .filter(|(at, r)| {
                *at > rolled_back_at
                    && matches!(
                        r,
                        TraceEvent::Proto(ProtoEvent::Committed { cluster: 0, .. })
                    )
            })
            .count();
        assert_eq!(resumed, 8, "timer CLCs after the rollback");
        assert_eq!(report.clusters[0].forced_clcs, 0);
    }

    #[test]
    fn gc_prunes_during_run() {
        let cfg = small_cfg(120)
            .with_clc_delay(0, SimDuration::from_minutes(10))
            .with_clc_delay(1, SimDuration::from_minutes(10))
            .with_gc_interval(SimDuration::from_minutes(45));
        let report = run(cfg);
        let gc0 = &report.clusters[0].gc_before_after;
        assert!(gc0.len() >= 2, "two GCs in 120 min: {gc0:?}");
        for &(before, after) in gc0 {
            assert!(after <= before);
            assert!(after >= 1);
        }
        // Independent clusters: GC collapses storage to the latest CLC.
        assert!(gc0.iter().all(|&(_, after)| after == 1));
    }

    #[test]
    fn mtbf_faults_fire() {
        let mut cfg = small_cfg(600).with_clc_delay(0, SimDuration::from_minutes(30));
        cfg.topology.mtbf = Some(SimDuration::from_hours(2));
        cfg = cfg.with_clc_delay(1, SimDuration::from_minutes(30));
        let report = run(cfg);
        // 10 hours at a 2-hour MTBF ≈ 5 faults; all recoverable.
        assert!(
            report.total_rollbacks() >= 1,
            "expected at least one MTBF fault"
        );
        assert_eq!(report.unrecoverable_faults, 0);
    }

    /// The transport comes with the loss: a hostile run that cannot drop
    /// a copy puts no transport frame on the wire and retransmits
    /// nothing; the same run over a lossy wire wraps and retransmits.
    #[test]
    fn the_reliable_transport_runs_exactly_when_the_wire_can_lose() {
        let traced = |spec: HostileSpec| {
            let cfg = small_cfg(10)
                .with_sends(small_workload(10, vec![vec![20, 40], vec![40, 20]]))
                .with_clc_delay(0, SimDuration::from_minutes(2))
                .with_clc_delay(1, SimDuration::from_minutes(2))
                .with_hostile(spec)
                .with_partition(
                    SimTime::ZERO + SimDuration::from_minutes(3),
                    SimTime::ZERO + SimDuration::from_minutes(4),
                    vec![0],
                )
                .with_trace(TraceLevel::Full);
            let (_, trace, hostile) = run_inner(cfg);
            let frames = trace
                .iter()
                .filter(|(_, r)| {
                    matches!(
                        r,
                        TraceEvent::Wire {
                            msg: Msg::Reliable { .. } | Msg::XportAck { .. },
                            ..
                        }
                    )
                })
                .count();
            (frames, hostile)
        };
        let spec = HostileSpec::seeded(7)
            .with_duplication(0.2, SimDuration::from_millis(1))
            .with_reorder(0.2, SimDuration::from_micros(500));

        let (frames, hostile) = traced(spec.clone());
        assert!(hostile.duplicates_injected > 0 && hostile.messages_reordered > 0);
        assert!(hostile.messages_held > 0, "the partition held traffic");
        assert_eq!(
            (frames, hostile.retransmissions),
            (0, 0),
            "no loss, no transport"
        );

        let (frames, hostile) = traced(spec.with_loss(0.2));
        assert!(hostile.messages_lost > 0, "a 20% wire drops something");
        assert!(frames > 0, "loss brings Reliable frames and acks");
        assert!(hostile.retransmissions > 0, "and retransmits what it lost");
    }
}
