//! Property-based tests of the protocol's core invariants.
//!
//! Random operation sequences (sends, checkpoints, faults, garbage
//! collections) drive a real federation of `NodeEngine`s through the
//! instant test network; afterwards the run must satisfy the invariants
//! the paper's correctness argument rests on.

use hc3i::core::testkit::InstantFederation;
use hc3i::core::{gc, is_consistent_cut, recovery_line, AppPayload, ProtocolConfig};
use hc3i::core::{PiggybackMode, SeqNum};
use netsim::NodeId;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Send { from: (u16, u32), to: (u16, u32) },
    Timer { cluster: usize },
    Fault { cluster: u16, rank: u32 },
    Gc,
}

/// Two clusters of three, one cluster of two.
const SIZES: [u32; 3] = [3, 3, 2];

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => ((0u16..3, 0u32..3), (0u16..3, 0u32..3)).prop_filter_map(
            "distinct nodes",
            |(f, t)| {
                let from = (f.0, f.1 % SIZES[f.0 as usize]);
                let to = (t.0, t.1 % SIZES[t.0 as usize]);
                (from != to).then_some(Op::Send { from, to })
            }
        ),
        2 => (0usize..3).prop_map(|cluster| Op::Timer { cluster }),
        1 => (0u16..3, 0u32..3).prop_map(|(c, r)| Op::Fault {
            cluster: c,
            rank: r % SIZES[c as usize],
        }),
        1 => Just(Op::Gc),
    ]
}

fn run_ops(ops: &[Op], piggyback: PiggybackMode) -> InstantFederation {
    let cfg = ProtocolConfig::new(SIZES.to_vec()).with_piggyback(piggyback);
    let mut fed = InstantFederation::new(cfg);
    let mut tag = 0u64;
    for op in ops {
        match op {
            Op::Send { from, to } => {
                tag += 1;
                fed.app_send(
                    NodeId::new(from.0, from.1),
                    NodeId::new(to.0, to.1),
                    AppPayload { bytes: 256, tag },
                );
            }
            Op::Timer { cluster } => fed.fire_clc_timer(*cluster),
            Op::Fault { cluster, rank } => {
                let node = NodeId::new(*cluster, *rank);
                if !fed.engine(node).is_failed() {
                    fed.fail_node(node);
                }
            }
            Op::Gc => fed.run_gc(),
        }
    }
    fed
}

fn check_invariants(fed: &InstantFederation) {
    // 1. The consistency monitor never fired.
    assert_eq!(
        fed.report().late_crossings,
        0,
        "intra message crossed a checkpoint"
    );

    for (c, &size) in SIZES.iter().enumerate() {
        let coord = fed.engine(NodeId::new(c as u16, 0));
        // 2. Cluster coherence: every node of a cluster agrees on SN, DDV
        //    and the stored checkpoint stamps.
        for r in 1..size {
            let e = fed.engine(NodeId::new(c as u16, r));
            assert_eq!(e.sn(), coord.sn(), "cluster {c} rank {r} SN diverged");
            assert_eq!(e.ddv(), coord.ddv(), "cluster {c} rank {r} DDV diverged");
            assert_eq!(
                e.store().ddv_list(),
                coord.store().ddv_list(),
                "cluster {c} rank {r} store diverged"
            );
        }
        // 3. DDV self-entry equals the cluster SN (paper §3.2).
        assert_eq!(coord.ddv().get(c), coord.sn());
        // 4. DDVs are monotone across the stored CLC sequence.
        let list = coord.store().ddv_list();
        for w in list.windows(2) {
            assert!(w[0].0 < w[1].0, "SNs strictly increase");
            assert!(w[0].1.dominated_by(&w[1].1), "DDV monotone");
        }
    }

    // 5. Every single-cluster failure has a consistent recovery line
    //    computable from the *currently stored* checkpoints (GC never
    //    pruned something a failure could need).
    let lists: Vec<_> = (0..SIZES.len())
        .map(|c| fed.engine(NodeId::new(c as u16, 0)).store().ddv_list())
        .collect();
    for faulty in 0..SIZES.len() {
        let line = recovery_line(&lists, faulty);
        assert!(
            is_consistent_cut(&lists, &line.sns, &line.rolled_back),
            "failure of {faulty} yields inconsistent line {line:?}"
        );
    }

    // 6. GC minima never exceed any recovery line's restored SNs.
    let mins = gc::safe_minimum_sns(&lists);
    for faulty in 0..SIZES.len() {
        let line = recovery_line(&lists, faulty);
        for (sn, min) in line.sns.iter().zip(&mins) {
            assert!(
                sn >= min,
                "GC would prune a CLC needed after a failure of {faulty}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn invariants_hold_under_random_ops_sn_only(
        ops in prop::collection::vec(op_strategy(), 1..60)
    ) {
        let fed = run_ops(&ops, PiggybackMode::SnOnly);
        check_invariants(&fed);
    }

    #[test]
    fn invariants_hold_under_random_ops_full_ddv(
        ops in prop::collection::vec(op_strategy(), 1..60)
    ) {
        let fed = run_ops(&ops, PiggybackMode::FullDdv);
        check_invariants(&fed);
    }

    #[test]
    fn ddv_knowledge_never_exceeds_reality(
        ops in prop::collection::vec(op_strategy(), 1..40)
    ) {
        // Fault-free runs (rollbacks legitimately leave stale stamps that
        // reference discarded SNs): a cluster's DDV entry for a peer can
        // never exceed the peer's actual sequence number, in either
        // piggyback mode — dependency tracking cannot invent knowledge.
        let ops: Vec<Op> = ops
            .into_iter()
            .filter(|o| !matches!(o, Op::Fault { .. }))
            .collect();
        for mode in [PiggybackMode::SnOnly, PiggybackMode::FullDdv] {
            let fed = run_ops(&ops, mode);
            for c in 0..SIZES.len() {
                let e = fed.engine(NodeId::new(c as u16, 0));
                for other in 0..SIZES.len() {
                    if other == c {
                        continue;
                    }
                    let peer_sn = fed.engine(NodeId::new(other as u16, 0)).sn();
                    prop_assert!(
                        e.ddv().get(other) <= peer_sn,
                        "cluster {c} claims {other} reached {} but it is at {peer_sn} ({mode:?})",
                        e.ddv().get(other)
                    );
                }
            }
        }
    }

    #[test]
    fn deliveries_never_duplicate_within_incarnation(
        ops in prop::collection::vec(op_strategy(), 1..50)
    ) {
        // Within one epoch (incarnation) of its receiver, an inter-cluster
        // send is delivered at most once: the delivery ledger keys every
        // delivery by the receiving engine's epoch.
        let fed = run_ops(&ops, PiggybackMode::SnOnly);
        let ledger = &fed.ledger;
        prop_assert_eq!(ledger.duplicated_in_incarnation(), vec![]);
        // The ledger saw every inter-cluster delivery the federation made.
        let mut inter: Vec<u64> = fed
            .deliveries
            .iter()
            .filter(|d| d.from.cluster != d.to.cluster)
            .map(|d| d.payload.tag)
            .collect();
        inter.sort_unstable();
        inter.dedup();
        prop_assert_eq!(ledger.delivered_tags(), inter.len());
    }

    #[test]
    fn no_committed_work_is_lost(
        ops in prop::collection::vec(op_strategy(), 1..50)
    ) {
        // Sender-based logging (paper §3.3–3.4): every inter-cluster send
        // that no later rollback of its own cluster undid is delivered.
        for mode in [PiggybackMode::SnOnly, PiggybackMode::FullDdv] {
            let fed = run_ops(&ops, mode);
            prop_assert_eq!(fed.ledger.undelivered(), vec![], "{:?}", mode);
        }
    }
}

/// Seven operations that leave one inter-cluster send held forever under
/// the full-DDV piggyback. Cluster 1's forced CLC 2 is stamped with the
/// raise for cluster 2's SN 4, taken before the delivery it guards. Cluster
/// 0's fault rolls cluster 2 back to CLC 2 and cluster 1 to its CLC 2,
/// whose stamp still names cluster 2's discarded SN 4. Cluster 0 inherits
/// that entry, and its next send to cluster 2 carries a DDV whose entry
/// for cluster 2 (4) is above cluster 2's SN (2). The receiver holds the
/// send for a forced CLC, but the CLC stamps its own entry with its new
/// SN (3), so the held DDV is still not dominated, and `recheck_pending`
/// asks for no further CLC: the send waits until cluster 2's own timer
/// CLCs pass SN 4. The SN piggyback carries no third cluster's entry and
/// delivers it.
#[test]
#[ignore = "protocol defect: a stale own entry in a piggybacked DDV holds a send past the forced CLC"]
fn a_stale_own_entry_in_a_piggybacked_ddv_does_not_hold_a_send_forever() {
    let send = |from, to| Op::Send { from, to };
    let ops = [
        send((1, 1), (0, 0)),
        send((0, 2), (2, 1)),
        Op::Timer { cluster: 2 },
        Op::Timer { cluster: 2 },
        send((2, 0), (1, 1)),
        Op::Fault {
            cluster: 0,
            rank: 0,
        },
        send((0, 1), (2, 1)),
    ];
    let sn_only = run_ops(&ops, PiggybackMode::SnOnly);
    assert!(sn_only.ledger.undelivered().is_empty());
    let fed = run_ops(&ops, PiggybackMode::FullDdv);
    assert_eq!(fed.ledger.undelivered(), Vec::<u64>::new());
}

#[test]
fn figure5_scenario_regression() {
    // The exact Figure 5 cascade as a pinned regression (the walkthrough
    // example prints it; this asserts it).
    let mut fed = InstantFederation::new(ProtocolConfig::new(vec![2, 2, 2]));
    let n = NodeId::new;
    let pay = |tag| AppPayload { bytes: 512, tag };
    fed.app_send(n(0, 0), n(1, 0), pay(1)); // m1 forces in C1
    fed.app_send(n(0, 1), n(1, 1), pay(2)); // m2 no force
    fed.fire_clc_timer(0);
    fed.app_send(n(0, 0), n(2, 0), pay(3)); // m3 forces in C2
    fed.fire_clc_timer(1);
    fed.app_send(n(1, 0), n(2, 1), pay(4)); // m4 forces in C2
    fed.fire_clc_timer(2);
    fed.app_send(n(2, 0), n(0, 0), pay(5)); // m5 forces in C0

    assert_eq!(fed.engine(n(0, 0)).sn(), SeqNum(3));
    assert_eq!(fed.engine(n(1, 0)).sn(), SeqNum(3));
    assert_eq!(fed.engine(n(2, 0)).sn(), SeqNum(4));

    fed.fail_node(n(1, 1));
    // C1 restores its latest (SN 3); C2 falls to its CLC3 (first with
    // DDV[1] >= 3); C0 falls to its CLC3 (first with DDV[2] >= 3, the one
    // stamped "4 in cluster 3's entry" in the paper's words).
    assert_eq!(fed.engine(n(1, 0)).sn(), SeqNum(3));
    assert_eq!(fed.engine(n(2, 0)).sn(), SeqNum(3));
    assert_eq!(fed.engine(n(0, 0)).sn(), SeqNum(3));
    assert_eq!(fed.report().late_crossings, 0);
}
