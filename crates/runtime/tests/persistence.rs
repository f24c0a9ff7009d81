//! A live federation's checkpoint stores, application snapshots included,
//! read back from its durable segment log.

use hc3i_core::{AppPayload, CheckpointCodec, SeqNum};
use netsim::NodeId;
use runtime::{Application, CounterApp, Federation, RtEvent, RuntimeConfig};
use std::time::Duration;

#[test]
fn engine_store_survives_a_disk_round_trip() {
    let dir = std::env::temp_dir().join(format!("hc3i-runtime-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fed = Federation::spawn(
        RuntimeConfig::manual(vec![2, 2])
            .with_app(|_| Box::new(CounterApp::new()))
            .with_durable_dir(&dir),
    );
    let n = NodeId::new;

    // Build up real state: a forced CLC with an app snapshot inside.
    fed.send_app(n(0, 0), n(1, 1), AppPayload { bytes: 128, tag: 1 });
    fed.wait_for(
        Duration::from_secs(5),
        |e| matches!(e, RtEvent::Delivered { payload, .. } if payload.tag == 1),
    )
    .expect("delivery");
    fed.checkpoint_now(1);
    fed.wait_for(
        Duration::from_secs(5),
        |e| matches!(e, RtEvent::Committed { cluster: 1, sn, .. } if *sn == SeqNum(3)),
    )
    .expect("second checkpoint");

    let engines = fed.shutdown();
    let store = engines[&n(1, 1)].store();
    assert_eq!(store.len(), 3, "initial + forced + manual");

    let image = storage::recover(&dir, &CheckpointCodec).expect("clean log recovers");
    std::fs::remove_dir_all(&dir).ok();
    // Global index of (1, 1): cluster 0's two nodes come first.
    let restored = &image.stores[&3];

    assert_eq!(restored.len(), store.len());
    assert_eq!(restored.ddv_list(), store.ddv_list());
    // The manual CLC captured the post-delivery application snapshot.
    let latest = restored.latest().expect("latest");
    let app_state = latest.payload.app_state.as_ref().expect("app snapshot");
    let mut app = CounterApp::new();
    app.restore(Some(app_state));
    assert_eq!(app.count, 1, "snapshot contains the delivery");
    // The forced CLC (SN 2) predates the delivery: rolling the application
    // back to it undoes the count.
    let forced = restored.get(SeqNum(2)).expect("forced CLC");
    assert!(forced.meta.forced);
    app.restore(forced.payload.app_state.as_deref());
    assert_eq!(app.count, 0, "pre-delivery snapshot");
    // The log holds exactly the engine's chain, snapshots and all.
    assert!(restored
        .iter()
        .zip(store.iter())
        .all(|(disk, mem)| disk.meta == mem.meta && disk.payload == mem.payload));
}
