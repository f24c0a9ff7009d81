//! Property-based tests of the protocol under hostile networks.
//!
//! Random partition/duplication/reorder schedules drive full simulator
//! runs; every run must satisfy the campaign invariants (no committed
//! work lost, delivered-record consistency, sound recovery) and be
//! bit-deterministic for its seed. The hostile layer's own FIFO clamp
//! state is weighed with this binary's counting allocator: it follows the
//! messages in flight, not every node pair that ever talked.

use campaign::invariants::{self, FaultWave};
use desim::{RngStreams, SimDuration, SimTime};
use hc3i::prelude::*;
use hc3i_core::ProtoEvent;
use netsim::{ClusterSpec, HostileNet, HostileSpec, LinkSpec, NodeId};
use proptest::prelude::*;
use simdriver::{TraceEvent, TraceLevel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes requested by this thread (tests run on parallel threads).
    /// Const-initialised and without a destructor, so reading it from
    /// inside the allocator never allocates.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn note(size: usize) {
    BYTES.with(|b| b.set(b.get() + size as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter never touches the
// returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn minutes(m: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_minutes(m)
}

/// Two clusters of four on a LAN/WAN split: small enough that a full run
/// is milliseconds, real enough to exercise every protocol path.
fn small_topology() -> Topology {
    Topology::new(
        vec![
            ClusterSpec {
                nodes: 4,
                intra: LinkSpec::myrinet_like(),
            };
            2
        ],
        LinkSpec::ethernet_like(),
    )
}

/// A randomly drawn hostile schedule.
#[derive(Debug, Clone)]
struct Schedule {
    seed: u64,
    /// Duplication probability in percent (0–50).
    dup_pct: u32,
    /// Reorder probability in percent (0–50).
    reorder_pct: u32,
    /// Partition window `(start_min, len_min)` cutting cluster 0 off.
    partition: Option<(u64, u64)>,
    /// Asymmetric cut: only cluster 0's egress is severed; its ingress
    /// flows throughout the window.
    oneway: bool,
    /// Inter-cluster packet-loss probability in percent. Non-zero loss
    /// brings the host-level reliable transport with it.
    loss_pct: u32,
    /// Whether node (0, 1) fails at minute 7.
    fault: bool,
}

fn schedule_strategy() -> impl Strategy<Value = Schedule> {
    (
        0u64..(1 << 48),
        0u32..=50,
        0u32..=50,
        (any::<bool>(), 2u64..=6, 1u64..=2),
        any::<bool>(),
        // The issue's loss sweep: off, 1%, 10%, and an even-odds wire.
        prop_oneof![Just(0u32), Just(1), Just(10), Just(50)],
        any::<bool>(),
    )
        .prop_map(
            |(seed, dup_pct, reorder_pct, (cut, at, len), oneway, loss_pct, fault)| Schedule {
                seed,
                dup_pct,
                reorder_pct,
                partition: cut.then_some((at, len)),
                oneway,
                loss_pct,
                fault,
            },
        )
}

fn build_config(s: &Schedule) -> SimConfig {
    let sends = TargetCountWorkload {
        cluster_sizes: vec![4, 4],
        duration: SimDuration::from_minutes(8),
        counts: vec![vec![10, 6], vec![6, 10]],
        payload_bytes: 256,
    }
    .schedule(&RngStreams::new(s.seed));
    let spec = HostileSpec::seeded(s.seed ^ 0xB057)
        .with_duplication(s.dup_pct as f64 / 100.0, SimDuration::from_millis(1))
        .with_reorder(s.reorder_pct as f64 / 100.0, SimDuration::from_micros(500))
        .with_loss(s.loss_pct as f64 / 100.0);
    let mut cfg = SimConfig::new(small_topology(), SimDuration::from_minutes(10))
        .with_sends(sends)
        .with_seed(s.seed)
        .with_clc_delay(0, SimDuration::from_minutes(1))
        .with_clc_delay(1, SimDuration::from_minutes(1))
        .with_hostile(spec)
        .with_delivery_ledger();
    if let Some((at, len)) = s.partition {
        cfg = if s.oneway {
            cfg.with_oneway_partition(minutes(at), minutes(at + len), vec![0])
        } else {
            cfg.with_partition(minutes(at), minutes(at + len), vec![0])
        };
    }
    if s.fault {
        cfg = cfg.with_fault(minutes(7), NodeId::new(0, 1));
    }
    cfg
}

fn waves(s: &Schedule) -> Vec<FaultWave> {
    if s.fault {
        vec![FaultWave {
            from: minutes(7),
            until: minutes(10),
            direct: vec![0],
        }]
    } else {
        vec![]
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any random partition/duplication/reorder schedule: no committed
    /// inter-cluster work is lost, no tag is delivered twice in one
    /// incarnation, recovery stays sound, and rollbacks happen exactly
    /// when the schedule says they may.
    #[test]
    fn hostile_schedules_lose_no_committed_work(s in schedule_strategy()) {
        let (report, hostile) = simdriver::run_hostile(build_config(&s));
        invariants::assert_clean(
            [
                invariants::soundness(&report),
                invariants::rollback_waves(&report, &waves(&s)),
                invariants::no_lost_committed_work(&hostile),
                invariants::delivered_record_consistency(&hostile),
            ]
            .concat(),
        );
    }

    /// The same seed twice produces bit-identical reports and hostile
    /// statistics — the determinism contract extends to the hostile
    /// fault model.
    #[test]
    fn hostile_schedules_are_seed_deterministic(s in schedule_strategy()) {
        let (ra, ha) = simdriver::run_hostile(build_config(&s));
        let (rb, hb) = simdriver::run_hostile(build_config(&s));
        prop_assert_eq!(format!("{ra:?}"), format!("{rb:?}"));
        prop_assert_eq!(ha.duplicates_injected, hb.duplicates_injected);
        prop_assert_eq!(ha.messages_held, hb.messages_held);
        prop_assert_eq!(ha.messages_reordered, hb.messages_reordered);
        prop_assert_eq!(ha.messages_lost, hb.messages_lost);
        prop_assert_eq!(ha.retransmissions, hb.retransmissions);
        prop_assert_eq!(
            ha.ledger.as_ref().map(|l| l.delivered_tags()),
            hb.ledger.as_ref().map(|l| l.delivered_tags())
        );
    }
}

/// Full duplication (every inter-cluster message sent twice) is invisible
/// to the protocol outcome: same checkpoints, same deliveries, same
/// cluster statistics — only the ack traffic doubles, because every
/// duplicate delivery is re-acknowledged from the delivered record.
#[test]
fn full_duplication_changes_nothing_but_acks() {
    let base_cfg = || {
        let sends = TargetCountWorkload {
            cluster_sizes: vec![4, 4],
            duration: SimDuration::from_minutes(8),
            counts: vec![vec![10, 6], vec![6, 10]],
            payload_bytes: 256,
        }
        .schedule(&RngStreams::new(20040426));
        SimConfig::new(small_topology(), SimDuration::from_minutes(10))
            .with_sends(sends)
            .with_seed(20040426)
            .with_clc_delay(0, SimDuration::from_minutes(1))
            .with_clc_delay(1, SimDuration::from_minutes(1))
    };
    let baseline = simdriver::run(base_cfg());
    let (dup, hostile) =
        simdriver::run_hostile(base_cfg().with_hostile(
            HostileSpec::seeded(99).with_duplication(1.0, SimDuration::from_micros(10)),
        ));
    assert!(hostile.duplicates_injected > 0);
    assert_eq!(
        format!("{:?}", baseline.clusters),
        format!("{:?}", dup.clusters),
        "per-cluster checkpoint statistics must be duplication-blind"
    );
    assert_eq!(baseline.app_sent, dup.app_sent);
    assert_eq!(baseline.app_delivered, dup.app_delivered);
    assert_eq!(baseline.app_bytes, dup.app_bytes);
    assert_eq!(baseline.late_crossings, 0);
    assert_eq!(dup.late_crossings, 0);
    // Duplicates delivered after the original are re-acked from the
    // delivered record (extra acks); duplicates arriving while the
    // original is still held for a forced CLC are dropped without an ack
    // (acknowledging before delivery would break sender-log replay). So
    // ack traffic grows, but never past one extra ack per duplicate.
    assert!(
        dup.ack_messages > baseline.ack_messages,
        "re-acks missing: {} vs {}",
        dup.ack_messages,
        baseline.ack_messages
    );
    assert!(
        dup.ack_messages <= 2 * baseline.ack_messages,
        "more than one extra ack per duplicated delivery: {} vs {}",
        dup.ack_messages,
        baseline.ack_messages
    );
}

/// A wire that drops half of all inter-cluster traffic, with the reliable
/// transport restoring exactly-once delivery underneath the engines:
/// every workload tag still arrives, no tag arrives twice in one
/// incarnation, and the protocol outcome (checkpoints, deliveries) is
/// identical to a loss-free run — only retransmissions and acks grow.
#[test]
fn half_lossy_wire_with_transport_delivers_everything() {
    let base_cfg = || {
        let sends = TargetCountWorkload {
            cluster_sizes: vec![4, 4],
            duration: SimDuration::from_minutes(8),
            counts: vec![vec![10, 6], vec![6, 10]],
            payload_bytes: 256,
        }
        .schedule(&RngStreams::new(20040426));
        SimConfig::new(small_topology(), SimDuration::from_minutes(10))
            .with_sends(sends)
            .with_seed(20040426)
            .with_clc_delay(0, SimDuration::from_minutes(1))
            .with_clc_delay(1, SimDuration::from_minutes(1))
            .with_delivery_ledger()
    };
    let (baseline, _) = simdriver::run_hostile(base_cfg());
    let (report, hostile) =
        simdriver::run_hostile(base_cfg().with_hostile(HostileSpec::seeded(0xB057).with_loss(0.5)));
    assert!(hostile.messages_lost > 0, "a 50% wire must drop something");
    assert!(
        hostile.retransmissions > 0,
        "loss must force retransmission"
    );
    invariants::assert_clean(
        [
            invariants::soundness(&report),
            invariants::no_lost_committed_work(&hostile),
            invariants::delivered_record_consistency(&hostile),
        ]
        .concat(),
    );
    let ledger = hostile.ledger.as_ref().expect("ledger enabled");
    assert_eq!(ledger.undelivered(), Vec::<u64>::new());
    assert_eq!(
        baseline.app_delivered, report.app_delivered,
        "application deliveries must be loss-blind under the transport"
    );
}

/// One executive, so reproducibility is "the same run twice": a six-cluster
/// ring under duplication, reordering and loss (behind the reliable
/// transport), with a fault mid-run, replays from its seed to the same
/// report and the same full trace, record for record.
#[test]
fn hostile_ring_replays_identically_trace_and_all() {
    const CLUSTERS: usize = 6;
    let cfg = || {
        let mut counts = vec![vec![0u64; CLUSTERS]; CLUSTERS];
        for (i, row) in counts.iter_mut().enumerate() {
            row[i] = 60;
            row[(i + 1) % CLUSTERS] = 20;
        }
        let w = TargetCountWorkload {
            cluster_sizes: vec![4; CLUSTERS],
            duration: SimDuration::from_minutes(28),
            counts,
            payload_bytes: 512,
        };
        let topo = Topology::new(
            vec![
                ClusterSpec {
                    nodes: 4,
                    intra: LinkSpec::myrinet_like(),
                };
                CLUSTERS
            ],
            LinkSpec::ethernet_like(),
        );
        let spec = HostileSpec::seeded(20040426)
            .with_duplication(0.10, SimDuration::from_millis(1))
            .with_reorder(0.10, SimDuration::from_micros(500))
            .with_loss(0.05);
        let mut cfg = SimConfig::new(topo, SimDuration::from_minutes(30))
            .with_sends(w.schedule(&RngStreams::new(20040426)))
            .with_seed(20040426)
            .with_hostile(spec)
            .with_fault(minutes(14), NodeId::new(2, 1))
            .with_trace(TraceLevel::Full);
        for c in 0..CLUSTERS {
            cfg = cfg.with_clc_delay(c, SimDuration::from_minutes(5));
        }
        cfg
    };
    let (report_a, trace_a) = simdriver::run_traced(cfg());
    let (report_b, trace_b) = simdriver::run_traced(cfg());
    assert_eq!(format!("{report_a:#?}"), format!("{report_b:#?}"));
    assert_eq!(trace_a, trace_b);

    // The run was worth replaying: every hostile mechanism fired, the
    // fault rolled its cluster back, and the trace saw all of it.
    let (_, hostile) = simdriver::run_hostile(cfg());
    assert!(hostile.duplicates_injected > 0 && hostile.messages_reordered > 0);
    assert!(hostile.messages_lost > 0 && hostile.retransmissions > 0);
    assert!(!report_a.clusters[2].rollbacks.is_empty());
    assert!(trace_a.iter().any(|(_, r)| matches!(
        r,
        TraceEvent::Proto(ProtoEvent::RolledBack { node, .. }) if node.cluster.index() == 2
    )));
    let lost = |r: &TraceEvent| matches!(r, TraceEvent::Wire { arrival: None, .. });
    assert_eq!(
        trace_a.iter().filter(|(_, r)| lost(r)).count() as u64,
        hostile.messages_lost
    );
    assert!(trace_a.len() as u64 > report_a.app_sent);
}

/// Bytes requested while `channels` distinct inter-cluster node channels
/// each carry one message through a hostile layer with reordering and
/// duplication on, every one sent after the previous one arrived.
fn hostile_post_per_channel(channels: u32) -> u64 {
    let spec = HostileSpec::seeded(20040426)
        .with_duplication(0.5, SimDuration::from_micros(10))
        .with_reorder(0.5, SimDuration::from_micros(10));
    let mut h = HostileNet::new(spec, vec![]);
    let mut now = SimTime::ZERO;
    let before = BYTES.with(Cell::get);
    for c in 0..channels {
        let (from, to) = (NodeId::new(0, c / 100), NodeId::new(1, c % 100));
        let o = h.post(now, from, to, now + SimDuration::from_micros(200));
        now = o.arrival + SimDuration::from_nanos(1);
    }
    let bytes = BYTES.with(Cell::get) - before;
    assert!(h.duplicates > 0 && h.reordered > 0);
    bytes
}

/// The hostile layer's FIFO clamp state follows the messages in flight:
/// ten times the channels, each used once and after the previous message
/// landed, cost no more bytes, within a slack. A map keeping every
/// channel requests about 100 KB for 1,000 channels and 800 KB for
/// 10,000.
#[test]
fn hostile_clamp_state_follows_the_messages_in_flight() {
    let (few, many) = (
        hostile_post_per_channel(1_000),
        hostile_post_per_channel(10_000),
    );
    assert!(few > 0, "the counting allocator is not installed");
    assert!(
        many <= few + 1024,
        "{few} B for 1,000 channels, {many} B for 10,000"
    );
}
