//! End-to-end application state capture and restore.
//!
//! A `CounterApp` runs on every node; its serialized state rides inside
//! every staged checkpoint. After a fault, the cluster's applications must
//! come back exactly at the restored checkpoint's state, and log replay
//! must re-apply only the deliveries the rollback lost.

use hc3i_core::AppPayload;
use hc3i_types::NodeId;
use runtime::{Application, CounterApp, Federation, RtEvent, RuntimeConfig};
use std::time::Duration;

const TICK: Duration = Duration::from_secs(5);

fn n(c: u16, r: u32) -> NodeId {
    NodeId::new(c, r)
}

fn pay(tag: u64) -> AppPayload {
    AppPayload { bytes: 64, tag }
}

fn spawn() -> Federation {
    Federation::spawn(RuntimeConfig::manual(vec![2, 2]).with_app(|_| Box::new(CounterApp::new())))
}

fn wait_delivery(fed: &Federation, tag: u64) {
    fed.wait_for(
        TICK,
        |e| matches!(e, RtEvent::Delivered { payload, .. } if payload.tag == tag),
    )
    .unwrap_or_else(|| panic!("delivery of {tag}"));
}

#[test]
fn app_state_restored_to_checkpoint_then_replayed_forward() {
    let fed = spawn();
    let target = n(1, 1);

    // Tag 1 forces a CLC in cluster 1 and is delivered after it commits;
    // the committed checkpoint therefore holds the PRE-delivery app state.
    fed.send_app(n(0, 0), target, pay(1));
    wait_delivery(&fed, 1);

    // Checkpoint cluster 1 now: this CLC captures count=1 (tag 1 applied).
    fed.checkpoint_now(1);
    fed.wait_for(TICK, |e| {
        matches!(
            e,
            RtEvent::Committed {
                cluster: 1,
                forced: false,
                ..
            }
        )
    })
    .expect("manual checkpoint");

    // Tag 2 delivered after the checkpoint: it will be lost by the
    // rollback and must come back via log replay.
    fed.send_app(n(0, 0), target, pay(2));
    wait_delivery(&fed, 2);

    // Fault: cluster 1 restores the manual CLC (count=1), and the sender
    // replays tag 2 (acked after the restored checkpoint).
    fed.fail(n(1, 0));
    fed.detect(n(1, 1), 0);
    wait_delivery(&fed, 2);

    let state = fed.shutdown_with_apps();
    let (engine, app) = &state[&target];
    let app = app.as_ref().expect("app installed");
    let snap = app.snapshot();
    let mut counter = CounterApp::new();
    counter.restore(Some(&snap));

    // Final state: tag 1 (from the restored checkpoint) + tag 2 (replayed)
    // applied exactly once each.
    assert_eq!(
        counter.count, 2,
        "exactly two deliveries in the final state"
    );
    let mut expected = CounterApp::new();
    expected.on_deliver(n(0, 0), pay(1));
    expected.on_deliver(n(0, 0), pay(2));
    assert_eq!(counter.digest, expected.digest, "same order, same payloads");
    assert!(!engine.is_failed());
}

#[test]
fn rollback_to_initial_checkpoint_resets_app() {
    let fed = spawn();
    let target = n(1, 0);

    // Deliver into cluster 1 (forced CLC, delivery after commit), then
    // fail cluster 1. It restores the forced CLC — whose app state
    // predates the delivery — and the sender replays.
    fed.send_app(n(0, 1), target, pay(9));
    wait_delivery(&fed, 9);
    fed.fail(n(1, 1));
    fed.detect(n(1, 0), 1);
    wait_delivery(&fed, 9);

    let state = fed.shutdown_with_apps();
    let (_, app) = &state[&target];
    let snap = app.as_ref().expect("app").snapshot();
    let mut counter = CounterApp::new();
    counter.restore(Some(&snap));
    assert_eq!(counter.count, 1, "the replay re-applied the delivery once");
}

#[test]
fn unaffected_cluster_keeps_its_state() {
    let fed = spawn();
    // Local traffic in cluster 0.
    fed.send_app(n(0, 0), n(0, 1), pay(5));
    wait_delivery(&fed, 5);
    // Fault in cluster 1 (no dependencies anywhere).
    fed.fail(n(1, 1));
    fed.detect(n(1, 0), 1);
    fed.wait_for(
        TICK,
        |e| matches!(e, RtEvent::RolledBack { node, .. } if node.cluster.0 == 1),
    )
    .expect("cluster 1 recovery");

    let state = fed.shutdown_with_apps();
    let snap = state[&n(0, 1)].1.as_ref().expect("app").snapshot();
    let mut counter = CounterApp::new();
    counter.restore(Some(&snap));
    assert_eq!(counter.count, 1, "cluster 0's state untouched");
}
