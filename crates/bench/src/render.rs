//! Plain-text rendering of experiment results, in the paper's row format.

use crate::experiments::{
    DdvAblationRow, Fig67Row, Fig8Row, Fig9Row, OverheadRow, ProtocolRow, ReplicationRow,
    ScalingRow,
};
use simdriver::RunReport;

/// Render Table 1 (application message counts).
pub(crate) fn table1(report: &RunReport) -> String {
    format!(
        "Table 1: Application messages (reference workload)\n{}",
        report.format_app_matrix()
    )
}

/// Render Figure 6 (cluster-0 CLC counts vs cluster-0 timer).
pub(crate) fn figure6(rows: &[Fig67Row]) -> String {
    let mut s = String::from(
        "Figure 6: Interval Between CLCs Influence in Cluster 0\n\
         delay_min  unforced  forced  total\n",
    );
    for r in rows {
        s.push_str(&format!(
            "{:>9}  {:>8}  {:>6}  {:>5}\n",
            r.delay_min,
            r.c0_unforced,
            r.c0_forced,
            r.c0_unforced + r.c0_forced
        ));
    }
    s
}

/// Render Figure 7 (cluster-1 CLC counts vs cluster-0 timer).
pub(crate) fn figure7(rows: &[Fig67Row]) -> String {
    let mut s = String::from(
        "Figure 7: Interval Between CLCs Influence in Cluster 1\n\
         delay_min  unforced  forced  total\n",
    );
    for r in rows {
        s.push_str(&format!(
            "{:>9}  {:>8}  {:>6}  {:>5}\n",
            r.delay_min,
            r.c1_unforced,
            r.c1_forced,
            r.c1_unforced + r.c1_forced
        ));
    }
    s
}

/// Render Figure 8 (impact of cluster-1 timer on both clusters).
pub(crate) fn figure8(rows: &[Fig8Row]) -> String {
    let mut s = String::from(
        "Figure 8: Increasing the Number of CLCs in Cluster 1\n\
         c1_delay_min  c0_total  c1_total  c1_forced\n",
    );
    for r in rows {
        s.push_str(&format!(
            "{:>12}  {:>8}  {:>8}  {:>9}\n",
            r.c1_delay_min, r.c0_total, r.c1_total, r.c1_forced
        ));
    }
    s
}

/// Render Figure 9 (communication-pattern sweep).
pub(crate) fn figure9(rows: &[Fig9Row]) -> String {
    let mut s = String::from(
        "Figure 9: Increasing Communication from Cluster 1 to Cluster 0\n\
         msgs_1to0  c0_total  c0_forced  c1_total  c1_forced\n",
    );
    for r in rows {
        s.push_str(&format!(
            "{:>9}  {:>8}  {:>9}  {:>8}  {:>9}\n",
            r.reverse_msgs, r.c0_total, r.c0_forced, r.c1_total, r.c1_forced
        ));
    }
    s
}

/// Render Tables 2/3 (stored CLCs before/after each garbage collection).
pub(crate) fn gc_table(title: &str, report: &RunReport) -> String {
    let mut s = format!("{title}\n");
    let n = report.clusters.len();
    let collections = report
        .clusters
        .iter()
        .map(|c| c.gc_before_after.len())
        .max()
        .unwrap_or(0);
    s.push_str("gc#  ");
    for c in 0..n {
        s.push_str(&format!("cluster{c}_before  cluster{c}_after  "));
    }
    s.push('\n');
    for k in 0..collections {
        s.push_str(&format!("{:>3}  ", k + 1));
        for c in 0..n {
            match report.clusters[c].gc_before_after.get(k) {
                Some(&(before, after)) => {
                    s.push_str(&format!("{before:>15}  {after:>14}  "));
                }
                None => s.push_str(&format!("{:>15}  {:>14}  ", "-", "-")),
            }
        }
        s.push('\n');
    }
    s
}

/// Render the SnOnly-vs-FullDdv ablation.
pub(crate) fn ablation_ddv(rows: &[DdvAblationRow]) -> String {
    let mut s = String::from(
        "Ablation: dependency piggybacking (paper §7 extension)\n\
         clusters  forced_sn_only  forced_full_ddv  reduction\n",
    );
    for r in rows {
        let reduction = if r.forced_sn_only == 0 {
            0.0
        } else {
            100.0 * (r.forced_sn_only.saturating_sub(r.forced_full_ddv)) as f64
                / r.forced_sn_only as f64
        };
        s.push_str(&format!(
            "{:>8}  {:>14}  {:>15}  {:>8.1}%\n",
            r.clusters, r.forced_sn_only, r.forced_full_ddv, reduction
        ));
    }
    s
}

/// Render the cross-protocol ablation.
pub(crate) fn ablation_protocols(rows: &[ProtocolRow]) -> String {
    let mut s = String::from(
        "Ablation: protocol families on the reference workload (2 faults)\n\
         protocol            ckpts  proto_msgs  scope  lost_node_s  peak_log_bytes\n",
    );
    for r in rows {
        s.push_str(&format!(
            "{:<18}  {:>5}  {:>10}  {:>5.2}  {:>11.0}  {:>14}\n",
            r.protocol,
            r.checkpoints,
            r.protocol_messages,
            r.mean_rollback_scope,
            r.lost_node_seconds,
            r.peak_log_bytes
        ));
    }
    s
}

/// Render the replication-degree ablation.
pub(crate) fn ablation_replication(rows: &[ReplicationRow]) -> String {
    let mut s = String::from(
        "Ablation: stable-storage replication degree (paper §7 extension)\n\
         degree  guaranteed_faults  copies_per_clc  triple_fault_survival\n",
    );
    for r in rows {
        s.push_str(&format!(
            "{:>6}  {:>17}  {:>14}  {:>20.3}\n",
            r.degree, r.guaranteed_faults, r.copies_per_clc, r.random_triple_fault_survival
        ));
    }
    s
}

/// Render the §5.2 overhead breakdown.
pub(crate) fn overhead(rows: &[OverheadRow]) -> String {
    let mut s = String::from(
        "Overhead breakdown (paper 5.2): network and storage cost vs CLC frequency\n\
         timer  clcs  app_MB  proto_MB  ack_KB  proto_msgs  peak_stored  peak_logged\n",
    );
    for r in rows {
        let timer = match r.delay_min {
            Some(d) => format!("{d}m"),
            None => "inf".to_string(),
        };
        s.push_str(&format!(
            "{:>5}  {:>4}  {:>6.1}  {:>8.1}  {:>6.1}  {:>10}  {:>11}  {:>11}\n",
            timer,
            r.total_clcs,
            r.app_bytes as f64 / 1e6,
            r.protocol_bytes as f64 / 1e6,
            r.ack_bytes as f64 / 1e3,
            r.protocol_messages,
            r.peak_stored,
            r.peak_logged
        ));
    }
    s
}

/// Render the federation-scaling sweep.
pub(crate) fn scaling(rows: &[ScalingRow]) -> String {
    let mut s = String::from(
        "Federation scaling: ring workload, 20 nodes per cluster, 10 h\n\
         clusters  total_clcs  forced  proto_msgs    events  ddv_bytes\n",
    );
    for r in rows {
        s.push_str(&format!(
            "{:>8}  {:>10}  {:>6}  {:>10}  {:>8}  {:>9}\n",
            r.clusters, r.total_clcs, r.forced_clcs, r.protocol_messages, r.events, r.ddv_bytes
        ));
    }
    s
}
