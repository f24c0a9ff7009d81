//! A step-by-step replay of the paper's Figure 5 worked example.
//!
//! Three clusters; messages m1..m5 drive forced CLCs and DDV updates; a
//! fault in cluster 2 (paper numbering: "cluster 2", our index 1) triggers
//! the alert cascade. The protocol state is printed after every step so
//! the run can be compared against the paper's three snapshots.
//!
//! ```text
//! cargo run --example figure5_walkthrough
//! ```

use hc3i::core::testkit::InstantFederation;
use hc3i::core::{AppPayload, ProtocolConfig};
use hc3i::prelude::*;

fn show(fed: &InstantFederation, caption: &str) {
    println!("--- {caption}");
    for c in 0..3u16 {
        let e = fed.engine(NodeId::new(c, 0));
        let stored: Vec<String> = e
            .store()
            .iter()
            .map(|entry| {
                format!(
                    "CLC{}{}{}",
                    entry.meta.sn,
                    if entry.meta.forced { "*" } else { "" },
                    entry.meta.ddv
                )
            })
            .collect();
        println!(
            "  C{c}: SN={} DDV={} stored: {}",
            e.sn(),
            e.ddv(),
            stored.join(" ")
        );
    }
    println!();
}

fn main() {
    println!("== Figure 5 walkthrough (paper cluster k = our C(k-1)) ==\n");
    println!("(* marks forced CLCs; DDVs are [C0 C1 C2])\n");

    // Three clusters of two nodes each (the cluster size does not change
    // the protocol state; two nodes keep the trace readable).
    let mut fed = InstantFederation::new(ProtocolConfig::new(vec![2, 2, 2]));
    let pay = |tag| AppPayload { bytes: 512, tag };
    let n = NodeId::new;

    show(&fed, "start: every cluster holds its initial CLC (SN 1)");

    // m1: C0 -> C1 carrying SN 1; C1's DDV[0] = 0 < 1: forced CLC.
    fed.app_send(n(0, 0), n(1, 0), pay(1));
    show(&fed, "m1: C0->C1 (SN 1) forces a CLC in C1 before delivery");

    // m2: C0 -> C1 again with SN 1: no new CLC in C0, so no force.
    fed.app_send(n(0, 1), n(1, 1), pay(2));
    show(&fed, "m2: C0->C1 (still SN 1) does NOT force");

    // C0 commits an unforced CLC (its timer fires): SN 2.
    fed.fire_clc_timer(0);
    // m3: C0 -> C2 with SN 2: forces a CLC in C2.
    fed.app_send(n(0, 0), n(2, 0), pay(3));
    show(&fed, "C0 checkpoints (SN 2); m3: C0->C2 forces a CLC in C2");

    // C1 commits an unforced CLC: SN 3.
    fed.fire_clc_timer(1);
    // m4: C1 -> C2 with SN 3: forces another CLC in C2.
    fed.app_send(n(1, 0), n(2, 1), pay(4));
    show(&fed, "C1 checkpoints (SN 3); m4: C1->C2 forces a CLC in C2");

    // C2 commits an unforced CLC: SN 4. m5: C2 -> C0 forces a CLC in C0.
    fed.fire_clc_timer(2);
    fed.app_send(n(2, 0), n(0, 0), pay(5));
    show(&fed, "C2 checkpoints (SN 4); m5: C2->C0 forces a CLC in C0");

    // The fault: a node of C1 (paper's cluster 2) fail-stops.
    println!(">>> FAULT in C1: the cluster restores its last stored CLC");
    fed.fail_node(n(1, 1));
    show(&fed, "after the alert cascade settles");

    let report = fed.report();
    for (c, stats) in report.clusters.iter().enumerate() {
        let restored: Vec<String> = stats.rollbacks.iter().map(|r| r.1.to_string()).collect();
        println!("C{c} restored SN: [{}]", restored.join(", "));
    }
    println!(
        "deliveries after recovery (tags): {:?}",
        fed.deliveries
            .iter()
            .map(|d| d.payload.tag)
            .collect::<Vec<_>>()
    );
    assert_eq!(report.late_crossings, 0);
    assert!(
        !report.clusters[1].rollbacks.is_empty(),
        "the faulty cluster rolled back"
    );
}
