//! Property test: the sharded runtime, the discrete-event simulator and
//! the instant test federation agree on every random workload, at every
//! shard count.
//!
//! Each case generates a random scripted scenario (sends, manual
//! checkpoints, single faults, garbage collections) and runs it on every
//! host:
//!
//! * through `simdriver`, with the steps spaced one simulated second
//!   apart (each step fully quiesces before the next — network latencies
//!   are sub-millisecond) and the checkpoints/GCs scripted as the
//!   coordinator's one-shot `ClcTimer`/`GcTimer` inputs;
//! * through the threaded [`runtime::Federation`] at shard counts
//!   {1, 2, 8}, with a ping barrier quiescing each step;
//! * through [`InstantFederation`], which runs each step to quiescence on
//!   its FIFO queue.
//!
//! Every host produces a `RunReport` — the simulator natively, the
//! runtime through [`runtime::Federation::report`], the test federation
//! through [`InstantFederation::report`] — and the comparable artifact is
//! a fingerprint over the deterministic protocol outcomes: commit counts
//! by kind, rollback restore points and discard counts, end-of-run
//! storage and log occupancy, deliveries and soundness counters.
//! Timings and wire-byte totals are host-specific and excluded. All five
//! runs must produce the identical fingerprint.
//!
//! The hosts share the engine, the one entry point into it
//! (`hc3i_core::host::input`) and the report fold (`RunReport::observe`);
//! what differs, and what this test therefore checks, is the `Host` shims
//! — how each carries a message, tells the time and arms a timer.

use hc3i::core::testkit::InstantFederation;
use hc3i::core::{AppPayload, ProtocolConfig};
use hc3i::prelude::*;
use netsim::NodeId;
use proptest::prelude::*;
use runtime::{Federation, RtEvent, RunReport, RuntimeConfig};
use std::time::Duration;

const CLUSTERS: usize = 2;
const PER_CLUSTER: u32 = 3;
const NODES: usize = CLUSTERS * PER_CLUSTER as usize;
const TICK: Duration = Duration::from_secs(10);
const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

fn node(i: usize) -> NodeId {
    NodeId::new(
        (i / PER_CLUSTER as usize) as u16,
        (i % PER_CLUSTER as usize) as u32,
    )
}

#[derive(Debug, Clone, Copy)]
enum Step {
    Send { from: usize, to: usize },
    Checkpoint { cluster: usize },
    Fault { victim: usize },
    Gc,
}

fn steps_strategy() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        prop_oneof![
            4 => (0u32..NODES as u32, 0u32..NODES as u32 - 1).prop_map(|(f, t)| {
                // Skip the sender's own slot so from != to.
                let to = if t >= f { t + 1 } else { t };
                Step::Send { from: f as usize, to: to as usize }
            }),
            2 => (0u32..CLUSTERS as u32).prop_map(|c| Step::Checkpoint { cluster: c as usize }),
            1 => (0u32..NODES as u32).prop_map(|v| Step::Fault { victim: v as usize }),
            1 => Just(Step::Gc),
        ],
        6..=14,
    )
}

/// The deterministic protocol outcomes of a run, extracted identically
/// from either substrate's `RunReport`.
/// Per cluster: (unforced commits, forced commits, rollback
/// `(restore SN, discarded)` pairs in order, GC before/after pairs,
/// stored CLCs at end, logged messages at end).
type ClusterFingerprint = (
    u64,
    u64,
    Vec<(u64, usize)>,
    Vec<(usize, usize)>,
    usize,
    usize,
);

#[derive(Debug, Clone, PartialEq, Eq)]
struct Fingerprint {
    clusters: Vec<ClusterFingerprint>,
    delivered: u64,
    late_crossings: u64,
    unrecoverable: u64,
}

impl Fingerprint {
    fn of(r: &RunReport) -> Self {
        Fingerprint {
            clusters: r
                .clusters
                .iter()
                .map(|c| {
                    (
                        c.unforced_clcs,
                        c.forced_clcs,
                        c.rollbacks
                            .iter()
                            .map(|&(_, sn, discarded)| (sn.value(), discarded))
                            .collect(),
                        c.gc_before_after.clone(),
                        c.stored_clcs,
                        c.logged_messages as usize,
                    )
                })
                .collect(),
            delivered: r.app_delivered,
            late_crossings: r.late_crossings,
            unrecoverable: r.unrecoverable_faults,
        }
    }
}

fn sim_report(steps: &[Step]) -> RunReport {
    let topo = Topology::new(
        vec![
            netsim::ClusterSpec {
                nodes: PER_CLUSTER,
                intra: netsim::LinkSpec::myrinet_like(),
            };
            CLUSTERS
        ],
        netsim::LinkSpec::ethernet_like(),
    );
    let duration = SimDuration::from_secs(steps.len() as u64 + 5);
    let mut cfg = SimConfig::new(topo, duration);
    let mut sends = Vec::new();
    for (k, s) in steps.iter().enumerate() {
        let at = SimTime::ZERO + SimDuration::from_secs(1 + k as u64);
        match *s {
            Step::Send { from, to } => sends.push(workload::SendEvent {
                at,
                from: node(from),
                to: node(to),
                bytes: 512,
            }),
            Step::Checkpoint { cluster } => cfg = cfg.with_scripted_clc(at, cluster),
            Step::Fault { victim } => cfg = cfg.with_fault(at, node(victim)),
            Step::Gc => cfg = cfg.with_scripted_gc(at),
        }
    }
    cfg = cfg.with_sends(sends);
    simdriver::run(cfg)
}

fn threaded_report(steps: &[Step], shards: usize) -> RunReport {
    let fed =
        Federation::spawn(RuntimeConfig::manual(vec![PER_CLUSTER; CLUSTERS]).with_shards(shards));
    let wait = |fed: &Federation, what: &str, mut pred: Box<dyn FnMut(&RtEvent) -> bool>| {
        fed.wait_for(TICK, |e| pred(e))
            .unwrap_or_else(|| panic!("timed out waiting for {what} @ {shards} shards"));
    };
    for (k, s) in steps.iter().enumerate() {
        // Mirror the simulator's one-second step spacing with a ping
        // barrier: everything a step caused settles before the next.
        assert_eq!(fed.quiesce(4, TICK), NODES, "barrier @ {shards} shards");
        match *s {
            Step::Send { from, to } => {
                let tag = k as u64;
                fed.send_app(node(from), node(to), AppPayload { bytes: 512, tag });
                wait(
                    &fed,
                    "delivery",
                    Box::new(
                        move |e| matches!(e, RtEvent::Delivered { payload, .. } if payload.tag == tag),
                    ),
                );
            }
            Step::Checkpoint { cluster } => {
                fed.checkpoint_now(cluster);
                wait(
                    &fed,
                    "commit",
                    Box::new(
                        move |e| matches!(e, RtEvent::Committed { cluster: c, .. } if *c == cluster),
                    ),
                );
            }
            Step::Fault { victim } => {
                let v = node(victim);
                fed.fail(v);
                // The detector reports to the lowest-ranked survivor, like
                // the simulator's recovery coordinator.
                let detector = NodeId::new(v.cluster.0, u32::from(v.rank == 0));
                fed.detect(detector, v.rank);
                wait(
                    &fed,
                    "rollback",
                    Box::new(move |e| matches!(e, RtEvent::RolledBack { node: n, .. } if *n == v)),
                );
            }
            Step::Gc => {
                fed.gc_now();
                let mut reports = 0;
                wait(
                    &fed,
                    "gc reports",
                    Box::new(move |e| {
                        if matches!(e, RtEvent::GcReport { .. }) {
                            reports += 1;
                        }
                        reports == CLUSTERS
                    }),
                );
            }
        }
    }
    assert_eq!(
        fed.quiesce(4, TICK),
        NODES,
        "final barrier @ {shards} shards"
    );
    fed.report()
}

fn instant_report(steps: &[Step]) -> RunReport {
    let mut fed = InstantFederation::new(ProtocolConfig::new(vec![PER_CLUSTER; CLUSTERS]));
    for (k, s) in steps.iter().enumerate() {
        match *s {
            Step::Send { from, to } => {
                let tag = k as u64;
                fed.app_send(node(from), node(to), AppPayload { bytes: 512, tag });
            }
            Step::Checkpoint { cluster } => fed.fire_clc_timer(cluster),
            Step::Fault { victim } => fed.fail_node(node(victim)),
            Step::Gc => fed.run_gc(),
        }
    }
    fed.report()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_workloads_fingerprint_identically(steps in steps_strategy()) {
        let sim = sim_report(&steps);
        prop_assert_eq!(&sim.late_crossings, &0u64, "sim must stay sound: {:?}", steps);
        let sim_fp = Fingerprint::of(&sim);
        let instant = instant_report(&steps);
        prop_assert_eq!(&instant.app_sent, &sim.app_sent, "send counts disagree on {:?}", steps);
        prop_assert_eq!(
            &sim_fp,
            &Fingerprint::of(&instant),
            "the test federation disagrees on {:?}",
            steps
        );
        for shards in SHARD_COUNTS {
            let threaded = threaded_report(&steps, shards);
            prop_assert_eq!(
                &threaded.app_sent,
                &sim.app_sent,
                "send counts disagree at {} shards on {:?}",
                shards,
                steps
            );
            let threaded_fp = Fingerprint::of(&threaded);
            prop_assert_eq!(
                &sim_fp,
                &threaded_fp,
                "substrates disagree at {} shards on {:?}",
                shards,
                steps
            );
        }
    }
}
