//! The two substrates must agree: driving the identical scenario through
//! the instant test network and through the threaded messaging runtime
//! must leave the protocol in the same state.
//!
//! Both substrates feed their engines through the one entry point
//! (`hc3i_core::host::input`), so what this checks is two host shims — a FIFO queue with a counter clock
//! against shard channels with a wall clock — not two copies of the
//! protocol's hosting logic.

use hc3i::core::testkit::InstantFederation;
use hc3i::core::{AppPayload, ProtocolConfig, SeqNum};
use netsim::NodeId;
use runtime::{Federation, RtEvent, RuntimeConfig};
use std::time::Duration;

const TICK: Duration = Duration::from_secs(5);

fn n(c: u16, r: u32) -> NodeId {
    NodeId::new(c, r)
}

/// The scripted scenario: sends, checkpoints, a fault, a GC.
#[derive(Debug, Clone, Copy)]
enum Step {
    Send(NodeId, NodeId, u64),
    Checkpoint(usize),
    Fault(NodeId),
    Gc,
}

fn scenario() -> Vec<Step> {
    use Step::*;
    vec![
        Send(n(0, 0), n(1, 1), 1),
        Send(n(0, 1), n(0, 2), 2),
        Checkpoint(0),
        Send(n(0, 2), n(1, 0), 3),
        Checkpoint(1),
        Send(n(1, 0), n(0, 0), 4),
        Fault(n(1, 2)),
        Send(n(0, 0), n(1, 1), 5),
        Gc,
        Checkpoint(0),
    ]
}

fn run_instant(steps: &[Step]) -> InstantFederation {
    let mut fed = InstantFederation::new(ProtocolConfig::new(vec![3, 3]));
    for s in steps {
        match *s {
            Step::Send(from, to, tag) => fed.app_send(from, to, AppPayload { bytes: 512, tag }),
            Step::Checkpoint(c) => fed.fire_clc_timer(c),
            Step::Fault(node) => fed.fail_node(node),
            Step::Gc => fed.run_gc(),
        }
    }
    fed
}

/// Shard counts every cross-check sweeps: the protocol state must be
/// independent of how the executor multiplexes nodes onto workers.
const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

fn run_threaded(
    steps: &[Step],
    shards: usize,
) -> std::collections::HashMap<NodeId, hc3i::core::NodeEngine> {
    let fed = Federation::spawn(RuntimeConfig::manual(vec![3, 3]).with_shards(shards));
    for s in steps {
        // The instant federation runs each step to quiescence; mirror that
        // with a ping barrier so in-flight acks/alert consequences from the
        // previous step cannot race this step's inputs (4 rounds cover the
        // deepest chain: alert → local scan → replay → re-delivery → ack).
        assert_eq!(fed.quiesce(4, TICK), 6, "all six nodes answer the barrier");
        match *s {
            Step::Send(from, to, tag) => {
                fed.send_app(from, to, AppPayload { bytes: 512, tag });
                fed.wait_for(
                    TICK,
                    |e| matches!(e, RtEvent::Delivered { payload, .. } if payload.tag == tag),
                )
                .unwrap_or_else(|| panic!("delivery of tag {tag}"));
            }
            Step::Checkpoint(c) => {
                fed.checkpoint_now(c);
                fed.wait_for(
                    TICK,
                    |e| matches!(e, RtEvent::Committed { cluster, .. } if *cluster == c),
                )
                .expect("commit");
            }
            Step::Fault(node) => {
                fed.fail(node);
                let detector = n(node.cluster.0, if node.rank == 0 { 1 } else { 0 });
                fed.detect(detector, node.rank);
                fed.wait_for(
                    TICK,
                    |e| matches!(e, RtEvent::RolledBack { node: nn, .. } if *nn == node),
                )
                .expect("rollback revives the failed node");
            }
            Step::Gc => {
                fed.gc_now();
                let mut reports = 0;
                fed.wait_for(TICK, |e| {
                    if matches!(e, RtEvent::GcReport { .. }) {
                        reports += 1;
                    }
                    reports == 2
                })
                .expect("gc reports");
            }
        }
    }
    // Flush in-flight acks/alert consequences before freezing the final
    // engine states: without the barrier a message still on the wire races
    // the Shutdown envelope and the cross-check flakes.
    assert_eq!(fed.quiesce(4, TICK), 6, "all six nodes answer the barrier");
    fed.shutdown()
}

#[test]
fn instant_and_threaded_reach_the_same_protocol_state() {
    let steps = scenario();
    let instant = run_instant(&steps);
    for shards in SHARD_COUNTS {
        let threaded = run_threaded(&steps, shards);
        for c in 0..2u16 {
            for r in 0..3u32 {
                let id = n(c, r);
                let a = instant.engine(id);
                let b = &threaded[&id];
                assert_eq!(a.sn(), b.sn(), "{id} @ {shards} shards: SN mismatch");
                assert_eq!(a.ddv(), b.ddv(), "{id} @ {shards} shards: DDV mismatch");
                assert_eq!(
                    a.store().ddv_list(),
                    b.store().ddv_list(),
                    "{id} @ {shards} shards: stored CLC stamps mismatch"
                );
                assert_eq!(
                    a.epoch(),
                    b.epoch(),
                    "{id} @ {shards} shards: epoch mismatch"
                );
                assert_eq!(
                    a.log().len(),
                    b.log().len(),
                    "{id} @ {shards} shards: log length mismatch"
                );
                assert_eq!(a.late_crossings(), 0);
                assert_eq!(b.late_crossings(), 0);
            }
        }
    }
}

#[test]
fn threaded_scenario_sanity() {
    // The threaded run on its own: cluster SNs coherent at shutdown.
    let threaded = run_threaded(&scenario(), 2);
    for c in 0..2u16 {
        let sn0 = threaded[&n(c, 0)].sn();
        for r in 1..3u32 {
            assert_eq!(threaded[&n(c, r)].sn(), sn0, "cluster {c} incoherent");
        }
        assert!(sn0 >= SeqNum(2));
    }
}
