//! Duplicate-message idempotence at the engine level.
//!
//! A duplicating WAN (or an original racing a §3.3 replay) can hand a
//! `NodeEngine` the same message twice. Every protocol message must be
//! idempotent on the second copy: re-acked, ignored, or dropped — never
//! double-counted and never delivered twice to the application.

use hc3i_core::testkit::InstantFederation;
use hc3i_core::{
    AppPayload, Ddv, Input, LogId, Msg, NodeEngine, Output, OutputBuf, Piggyback, ProtocolConfig,
    SeqNum,
};
use hc3i_types::NodeId;
use std::sync::Arc;

fn receive(from: NodeId, msg: Msg) -> Input {
    Input::Receive { from, msg }
}

/// A duplicated `AppInter` whose original was already delivered is
/// re-acknowledged from the delivered record, never re-delivered.
#[test]
fn duplicate_app_inter_is_reacked_not_redelivered() {
    let mut fed = InstantFederation::new(ProtocolConfig::new(vec![2, 2]));
    let sender = NodeId::new(0, 0);
    let receiver = NodeId::new(1, 0);
    fed.app_send(sender, receiver, AppPayload { bytes: 256, tag: 1 });
    assert_eq!(fed.delivered_tags(receiver), vec![1]);

    // The WAN re-delivers the same message (the sender logged it as
    // LogId(0), its first inter-cluster send).
    fed.input(
        receiver,
        receive(
            sender,
            Msg::AppInter {
                payload: AppPayload { bytes: 256, tag: 1 },
                piggyback: Piggyback::Sn(SeqNum(0)),
                log_id: LogId(0),
                resend: false,
                sender_epoch: 0,
            },
        ),
    );
    assert_eq!(
        fed.delivered_tags(receiver),
        vec![1],
        "duplicate must not reach the application a second time"
    );
}

/// A duplicated `ClcCommit` after the round already committed finds no
/// frozen state and is a no-op: no double-counted commit, no SN change.
#[test]
fn duplicate_clc_commit_is_a_no_op() {
    let mut fed = InstantFederation::new(ProtocolConfig::new(vec![2, 2]));
    fed.fire_clc_timer(0);
    assert_eq!(fed.clc_counts(0), (1, 0));
    let node = NodeId::new(0, 1);
    // The initial CLC is SN 1 (paper §4), so the timer commit is SN 2.
    let sn = fed.engine(node).sn();
    assert_eq!(sn, SeqNum(2));

    let ddv = Arc::new(fed.engine(node).ddv().clone());
    fed.input(
        node,
        receive(
            NodeId::new(0, 0),
            Msg::ClcCommit {
                round: 1,
                sn,
                ddv,
                forced: false,
                epoch: 0,
            },
        ),
    );
    assert_eq!(fed.clc_counts(0), (1, 0), "commit double-counted");
    assert_eq!(fed.engine(node).sn(), sn);
    assert!(!fed.engine(node).is_frozen());
}

/// A duplicated `FragmentReplica` after the round committed re-stores the
/// fragment and re-acks `FragmentStored`; the owner (no longer frozen)
/// ignores the stale ack. Nothing advances, nothing panics.
#[test]
fn duplicate_fragment_replica_is_idempotent() {
    let mut fed = InstantFederation::new(ProtocolConfig::new(vec![2, 2]));
    fed.fire_clc_timer(0);
    assert_eq!(fed.clc_counts(0), (1, 0));
    let holder = NodeId::new(0, 0);
    let sn_before = fed.engine(holder).sn();

    fed.input(
        holder,
        receive(
            NodeId::new(0, 1),
            Msg::FragmentReplica {
                round: 1,
                owner: 1,
                epoch: 0,
            },
        ),
    );
    assert_eq!(fed.clc_counts(0), (1, 0));
    assert_eq!(fed.engine(holder).sn(), sn_before);
    assert!(!fed.engine(holder).is_frozen());
    assert!(!fed.engine(NodeId::new(0, 1)).is_frozen());
}

/// Regression: a duplicate arriving while the original is held for a
/// forced CLC must be dropped — before the dedup check in `recv_inter`,
/// both copies were queued and the commit delivered the payload twice.
/// This drives a bare engine through the full forced-CLC round by hand so
/// the hold window stays open across the duplicate.
#[test]
fn pending_duplicate_delivers_exactly_once() {
    let cfg = ProtocolConfig::new(vec![1, 2]);
    let me = NodeId::new(1, 1); // rank 1: not the coordinator, so the
                                // forced CLC stays in flight until we
                                // deliver the round by hand.
    let mut engine = NodeEngine::new(cfg, me);
    let mut out = OutputBuf::new();
    let sender = NodeId::new(0, 0);
    let t = |n: u64| hc3i_types::SimTime::ZERO + hc3i_types::SimDuration::from_nanos(n);
    let app_inter = || {
        receive(
            sender,
            Msg::AppInter {
                payload: AppPayload { bytes: 256, tag: 9 },
                // The sender's cluster is one CLC ahead: forces a CLC here.
                piggyback: Piggyback::Sn(SeqNum(1)),
                log_id: LogId(0),
                resend: false,
                sender_epoch: 0,
            },
        )
    };

    let mut deliveries = 0usize;
    let mut drain = |out: &mut OutputBuf| {
        let outs: Vec<Output> = out.drain().collect();
        deliveries += outs
            .iter()
            .filter(|o| matches!(o, Output::DeliverApp { .. }))
            .count();
        outs
    };

    // Original: held, CLC requested from the coordinator.
    engine.handle(t(1), app_inter(), &mut out);
    let outs = drain(&mut out);
    assert_eq!(engine.pending_inter_count(), 1);
    assert!(outs
        .iter()
        .any(|o| matches!(o, Output::Send { to, msg: Msg::ClcInit { .. } } if to.rank == 0)));

    // Duplicate while held: dropped, not queued a second time.
    engine.handle(t(2), app_inter(), &mut out);
    let outs = drain(&mut out);
    assert_eq!(engine.pending_inter_count(), 1, "duplicate was queued");
    assert!(outs.is_empty(), "duplicate produced outputs: {outs:?}");

    // Run the 2PC round by hand: request → fragment stored → commit.
    let coord = NodeId::new(1, 0);
    engine.handle(
        t(3),
        receive(coord, Msg::ClcRequest { round: 1, epoch: 0 }),
        &mut out,
    );
    drain(&mut out);
    engine.handle(
        t(4),
        receive(
            coord,
            Msg::FragmentStored {
                round: 1,
                holder: 0,
                epoch: 0,
            },
        ),
        &mut out,
    );
    drain(&mut out);
    engine.handle(
        t(5),
        receive(
            coord,
            Msg::ClcCommit {
                round: 1,
                // The initial CLC is SN 1, so this forced CLC commits as 2.
                sn: SeqNum(2),
                // The commit records the dependency on the sender cluster,
                // so the held message no longer forces anything.
                ddv: Arc::new(Ddv::from_entries(vec![SeqNum(1), SeqNum(2)])),
                forced: true,
                epoch: 0,
            },
        ),
        &mut out,
    );
    let outs = drain(&mut out);
    assert_eq!(engine.pending_inter_count(), 0);
    assert!(
        outs.iter().any(|o| matches!(
            o,
            Output::Send {
                msg: Msg::InterAck { .. },
                ..
            }
        )),
        "held message must be acknowledged at commit"
    );
    assert_eq!(
        deliveries, 1,
        "payload must reach the application exactly once"
    );
}

/// A retransmitted copy of a log id whose delivery a rollback just
/// discarded must not be misclassified as a duplicate: the probe runs
/// against the *restored* delivered record, finds nothing, and
/// re-delivers into the new incarnation. (Named for the per-sender
/// high-water fast path that once sat in front of that probe and was not
/// reset by a rollback; PR 18 deleted it on measurement, the redelivery
/// contract stays.)
#[test]
fn rolled_back_log_id_is_redelivered_despite_stale_hwm() {
    let mut fed = InstantFederation::new(ProtocolConfig::new(vec![2, 2]));
    let sender = NodeId::new(0, 0);
    let receiver = NodeId::new(1, 0);
    // Two sends: log ids 0 and 1. The first forces CLC 2; both deliveries
    // land *after* that commit, so the restored record will contain
    // neither.
    fed.app_send(
        sender,
        receiver,
        AppPayload {
            bytes: 256,
            tag: 41,
        },
    );
    fed.app_send(
        sender,
        receiver,
        AppPayload {
            bytes: 256,
            tag: 42,
        },
    );
    assert_eq!(fed.delivered_tags(receiver), vec![41, 42]);

    // Fail a cluster-1 node: the cluster restores CLC 2, discarding both
    // deliveries; the sender's log replays both messages with their
    // original log ids — exactly the retransmitted-rolled-back-id shape.
    fed.fail_node(NodeId::new(1, 1));
    assert_eq!(
        fed.delivered_tags(receiver),
        vec![41, 42, 41, 42],
        "replayed copies must re-deliver into the restored incarnation"
    );

    // A late transport duplicate of the replay is now a true duplicate of
    // the new incarnation's delivery: re-acked, never a third delivery.
    fed.input(
        receiver,
        receive(
            sender,
            Msg::AppInter {
                payload: AppPayload {
                    bytes: 256,
                    tag: 42,
                },
                piggyback: Piggyback::Sn(SeqNum(1)),
                log_id: LogId(1),
                resend: true,
                sender_epoch: 0,
            },
        ),
    );
    assert_eq!(fed.delivered_tags(receiver), vec![41, 42, 41, 42]);
}

/// Satellite of the lossy-network work: the ack-loss shape. The original
/// is delivered and acknowledged, the ack vanishes on the wire, and the
/// sender's retransmission arrives only after a later CLC sealed the
/// delivery into a committed checkpoint. The retransmitted copy must be
/// re-acknowledged with the SN recorded at first delivery — probed
/// through the sealed generational record — and never re-delivered.
#[test]
fn retransmission_after_clc_is_reacked_with_original_sn() {
    let cfg = ProtocolConfig::new(vec![1, 2]);
    let me = NodeId::new(1, 1);
    let mut engine = NodeEngine::new(cfg, me);
    let mut out = OutputBuf::new();
    let sender = NodeId::new(0, 0);
    let t = |n: u64| hc3i_types::SimTime::ZERO + hc3i_types::SimDuration::from_nanos(n);
    let app_inter = |resend: bool| {
        receive(
            sender,
            Msg::AppInter {
                payload: AppPayload { bytes: 256, tag: 9 },
                piggyback: Piggyback::Sn(SeqNum(0)),
                log_id: LogId(0),
                resend,
                sender_epoch: 0,
            },
        )
    };

    // Original: delivered immediately (no forced CLC) and acked at SN 1.
    engine.handle(t(1), app_inter(false), &mut out);
    let outs: Vec<Output> = out.drain().collect();
    assert!(outs.iter().any(|o| matches!(o, Output::DeliverApp { .. })));
    assert!(outs.iter().any(|o| matches!(
        o,
        Output::Send {
            msg: Msg::InterAck {
                receiver_sn: SeqNum(1),
                ..
            },
            ..
        }
    )));
    // The ack is "lost" on the wire: nothing is forwarded to the sender.

    // A CLC commits, sealing the delivery into checkpoint SN 2.
    let coord = NodeId::new(1, 0);
    engine.handle(
        t(2),
        receive(coord, Msg::ClcRequest { round: 1, epoch: 0 }),
        &mut out,
    );
    out.drain().for_each(drop);
    engine.handle(
        t(3),
        receive(
            coord,
            Msg::FragmentStored {
                round: 1,
                holder: 0,
                epoch: 0,
            },
        ),
        &mut out,
    );
    out.drain().for_each(drop);
    engine.handle(
        t(4),
        receive(
            coord,
            Msg::ClcCommit {
                round: 1,
                sn: SeqNum(2),
                ddv: Arc::new(Ddv::from_entries(vec![SeqNum(1), SeqNum(2)])),
                forced: false,
                epoch: 0,
            },
        ),
        &mut out,
    );
    out.drain().for_each(drop);

    // The sender retransmits the unacked message post-CLC: the probe must
    // reach through the sealed record, re-ack with the *original* SN 1
    // (not the current SN 2), and must not deliver a second time.
    engine.handle(t(5), app_inter(true), &mut out);
    let outs: Vec<Output> = out.drain().collect();
    assert!(
        !outs.iter().any(|o| matches!(o, Output::DeliverApp { .. })),
        "retransmitted copy re-delivered: {outs:?}"
    );
    assert!(
        outs.iter().any(|o| matches!(
            o,
            Output::Send {
                to,
                msg: Msg::InterAck {
                    log_id: LogId(0),
                    receiver_sn: SeqNum(1),
                },
            } if *to == sender
        )),
        "re-ack with the first-delivery SN missing: {outs:?}"
    );
}

/// The per-origin epoch floors are sparse; the last cluster of a wide
/// federation must behave exactly as the first. A duplicated
/// `RollbackAlert` from origin `width - 1` is processed once, and after it
/// a copy sent by that origin's dead incarnation (a ghost) is dropped
/// while the new incarnation — and every other origin — still gets
/// through.
#[test]
fn duplicate_alert_and_ghost_from_the_last_of_300_clusters() {
    const WIDTH: usize = 300;
    let mut engine = NodeEngine::new(ProtocolConfig::new(vec![2; WIDTH]), NodeId::new(0, 0));
    let mut out = OutputBuf::new();
    let last = NodeId::new((WIDTH - 1) as u16, 0);
    let app_inter = |from: NodeId, tag: u64, sender_epoch: u64| {
        receive(
            from,
            Msg::AppInter {
                payload: AppPayload { bytes: 64, tag },
                piggyback: Piggyback::Sn(SeqNum(0)),
                log_id: LogId(tag),
                resend: false,
                sender_epoch,
            },
        )
    };
    let mut handle = |input: Input| -> Vec<Output> {
        engine.handle(hc3i_types::SimTime::ZERO, input, &mut out);
        out.drain().collect()
    };
    let delivered = |outs: &[Output]| outs.iter().any(|o| matches!(o, Output::DeliverApp { .. }));
    let alert = || {
        receive(
            last,
            Msg::RollbackAlert {
                origin: WIDTH - 1,
                sn: SeqNum(5),
                origin_epoch: 1,
            },
        )
    };

    assert!(delivered(&handle(app_inter(last, 1, 0))));

    // First copy: relayed to the rest of the cluster. Second copy: nothing.
    let outs = handle(alert());
    assert!(
        outs.iter().any(|o| matches!(
            o,
            Output::Send {
                msg: Msg::AlertLocal { origin, .. },
                ..
            } if *origin == WIDTH - 1
        )),
        "first alert not relayed: {outs:?}"
    );
    let outs = handle(alert());
    assert!(outs.is_empty(), "duplicate alert processed twice: {outs:?}");

    // Ghost of the rolled-back incarnation: neither delivered nor acked.
    let outs = handle(app_inter(last, 2, 0));
    assert!(outs.is_empty(), "ghost message had an effect: {outs:?}");
    // The new incarnation and an untouched neighbour origin get through.
    assert!(delivered(&handle(app_inter(last, 3, 1))));
    let neighbour = NodeId::new((WIDTH - 2) as u16, 1);
    assert!(delivered(&handle(app_inter(neighbour, 4, 0))));
}
