//! Machine-checkable protocol invariants.
//!
//! Every checker returns a list of human-readable violations (empty =
//! invariant holds) so the campaign runner can aggregate them into its
//! summary; tests use [`assert_clean`] to fail loudly on the first
//! violating run. This module is the single source of truth for
//! "rollbacks are bounded by their causes" — the scenario tests under
//! `tests/` call the same code the CI campaign does.

use desim::{SimDuration, SimTime};
use simdriver::{HostileRunStats, RunReport};

/// A declared fault wave: every scripted fault (or churn burst) of a
/// scenario lands in exactly one window, and recovery — including
/// cross-cluster cascades — is expected to complete inside it.
#[derive(Debug, Clone)]
pub struct FaultWave {
    /// Window start (the earliest fault instant of the wave).
    pub from: SimTime,
    /// Window end (exclusive); must cover detection latency and cascade
    /// propagation.
    pub until: SimTime,
    /// Clusters hit directly by a fault in this wave: they must roll back
    /// exactly once. Every other cluster may cascade at most once.
    pub direct: Vec<usize>,
}

/// What a scenario expects from garbage collection.
#[derive(Debug, Clone, Copy)]
pub struct GcExpectation {
    /// Minimum completed collections per cluster.
    pub min_collections: usize,
    /// Upper bound on stored CLCs after the final collection (the debt
    /// must drain, not grow without bound).
    pub max_after: usize,
}

/// Basic soundness: the consistency monitor never fired and every fault
/// was recoverable.
pub fn soundness(r: &RunReport) -> Vec<String> {
    let mut v = Vec::new();
    if r.late_crossings != 0 {
        v.push(format!(
            "late_crossings = {} (intra message crossed a checkpoint)",
            r.late_crossings
        ));
    }
    if r.unrecoverable_faults != 0 {
        v.push(format!("unrecoverable_faults = {}", r.unrecoverable_faults));
    }
    v
}

/// Bounded rollbacks per cluster per fault wave, counted by cause.
///
/// Every rollback has exactly one cause: the cluster's own fault report,
/// or one rollback alert from another cluster. A rollback sends exactly
/// one alert to each other cluster, and a cluster acts on an alert at most
/// once (`alert_seen`). So inside a wave's window a cluster cannot roll
/// back more often than all *other* clusters did together — plus once if
/// it was hit directly, and a direct hit rolls back at least once. No
/// rollback may happen outside every declared wave; with no waves
/// declared, any rollback is a violation.
///
/// "Exactly one rollback per cluster" is the common outcome, not the
/// rule. Two legitimate shapes exceed it, and both stay inside the bound:
///
/// * **Cascade-back at the victim** (PR 10, lossy wires): a dependent
///   cluster's alert arrives seconds late, after the direct victim has
///   already committed a fresh CLC and done new (dirty) work on top of
///   it; the victim conservatively discards that work with a second
///   rollback to its newest CLC.
/// * **Transitive step at a bystander** (`lossy_wan` seeds 4 and 38,
///   `churn_partition` seed 35, all on `wan_triangle` — it takes three
///   clusters): DDVs record *direct* dependencies only, so the recovery
///   line is found iteratively (paper §3.4). Bystander B restores its
///   newest CLC on the victim's alert; one WAN hop later bystander A's
///   alert arrives, and the state B just restored still depends on work
///   A's own rollback undid — B goes one CLC deeper.
pub fn rollback_waves(r: &RunReport, waves: &[FaultWave]) -> Vec<String> {
    let mut v = Vec::new();
    let mut in_any_wave: Vec<Vec<bool>> = r
        .clusters
        .iter()
        .map(|c| vec![false; c.rollbacks.len()])
        .collect();
    for (w, wave) in waves.iter().enumerate() {
        let inside = |at: SimTime| at >= wave.from && at < wave.until;
        let counts: Vec<usize> = r
            .clusters
            .iter()
            .zip(&mut in_any_wave)
            .map(|(cluster, seen)| {
                for (hit, &(at, _, _)) in seen.iter_mut().zip(&cluster.rollbacks) {
                    *hit |= inside(at);
                }
                cluster
                    .rollbacks
                    .iter()
                    .filter(|&&(at, _, _)| inside(at))
                    .count()
            })
            .collect();
        let total: usize = counts.iter().sum();
        for (c, &count) in counts.iter().enumerate() {
            // Alerts the other clusters' rollbacks sent to this one.
            let alerts = total - count;
            if wave.direct.contains(&c) {
                if count == 0 || count > 1 + alerts {
                    v.push(format!(
                        "cluster {c}: {count} rollbacks in wave {w} (direct hit expects 1, plus at most one per alert received: {alerts})"
                    ));
                }
            } else if count > alerts {
                v.push(format!(
                    "cluster {c}: {count} rollbacks in wave {w} (cascade allows at most one per alert received: {alerts})"
                ));
            }
        }
    }
    for (c, (cluster, seen)) in r.clusters.iter().zip(&in_any_wave).enumerate() {
        for (&(at, sn, _), hit) in cluster.rollbacks.iter().zip(seen) {
            if !hit {
                v.push(format!(
                    "cluster {c}: unexpected rollback to {sn:?} at {at} outside every declared wave"
                ));
            }
        }
    }
    v
}

/// GC liveness: every cluster completed at least the expected number of
/// collections, collections never grow storage, and the final collection
/// left at most `max_after` stored CLCs — checkpoint debt drains.
pub fn gc_liveness(r: &RunReport, expect: &GcExpectation) -> Vec<String> {
    let mut v = Vec::new();
    for (c, cluster) in r.clusters.iter().enumerate() {
        let gcs = &cluster.gc_before_after;
        if gcs.len() < expect.min_collections {
            v.push(format!(
                "cluster {c}: only {} completed collections (expected >= {})",
                gcs.len(),
                expect.min_collections
            ));
            continue;
        }
        if let Some(&(before, after)) = gcs.iter().find(|&&(before, after)| after > before) {
            v.push(format!(
                "cluster {c}: a collection grew storage {before} -> {after}"
            ));
        }
        if let Some(&(_, after)) = gcs.last() {
            if after > expect.max_after {
                v.push(format!(
                    "cluster {c}: {after} CLCs stored after the final collection (bound {})",
                    expect.max_after
                ));
            }
        }
    }
    v
}

/// No committed work lost: every inter-cluster send that no later
/// rollback of its own cluster undid was delivered at least once by the
/// end of the run — across partitions, heals, duplication and churn
/// ([`DeliveryLedger::undelivered`](simdriver::DeliveryLedger::undelivered)).
/// Requires the run to have recorded a delivery ledger.
pub fn no_lost_committed_work(stats: &HostileRunStats) -> Vec<String> {
    let Some(ledger) = stats.ledger.as_ref() else {
        return vec!["no delivery ledger recorded (SimConfig::with_delivery_ledger)".into()];
    };
    let lost = ledger.undelivered();
    if lost.is_empty() {
        return vec![];
    }
    vec![format!(
        "{} inter-cluster sends never delivered (tags {:?}{})",
        lost.len(),
        &lost[..lost.len().min(8)],
        if lost.len() > 8 { ", …" } else { "" }
    )]
}

/// Delivered-record consistency: within one epoch (incarnation) of the
/// receiving engine, each workload tag is delivered at most once —
/// duplicated WAN copies and replays must be absorbed by the
/// delivered-record filter.
pub fn delivered_record_consistency(stats: &HostileRunStats) -> Vec<String> {
    let Some(ledger) = stats.ledger.as_ref() else {
        return vec!["no delivery ledger recorded (SimConfig::with_delivery_ledger)".into()];
    };
    ledger
        .duplicated_in_incarnation()
        .into_iter()
        .map(|(tag, inc, count)| {
            format!("tag {tag} delivered {count} times in incarnation {inc} of its receiver")
        })
        .collect()
}

/// Work lost per rollback stays below `bound` (the paper's bound: one
/// checkpoint period plus detection and recovery latency).
pub fn work_lost_bounded(r: &RunReport, bound: SimDuration) -> Vec<String> {
    let mut v = Vec::new();
    for (c, cluster) in r.clusters.iter().enumerate() {
        for (i, &lost) in cluster.work_lost.iter().enumerate() {
            if lost > bound {
                v.push(format!(
                    "cluster {c}: rollback {i} lost {lost} of work (bound {bound})"
                ));
            }
        }
    }
    v
}

/// Panic with every violation listed (tests' entry point).
///
/// # Panics
/// If `violations` is non-empty.
pub fn assert_clean(violations: Vec<String>) {
    assert!(
        violations.is_empty(),
        "protocol invariant violations:\n  - {}",
        violations.join("\n  - ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::SimTime;
    use hc3i_core::SeqNum;
    use simdriver::ClusterStats;

    fn t(min: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_minutes(min)
    }

    fn report_with_rollbacks(per_cluster: Vec<Vec<u64>>) -> RunReport {
        RunReport {
            clusters: per_cluster
                .into_iter()
                .map(|times| ClusterStats {
                    rollbacks: times.into_iter().map(|m| (t(m), SeqNum(1), 0)).collect(),
                    ..Default::default()
                })
                .collect(),
            ..Default::default()
        }
    }

    #[test]
    fn wave_accepts_direct_hit_and_cascade() {
        let r = report_with_rollbacks(vec![vec![20], vec![20]]);
        let waves = [FaultWave {
            from: t(19),
            until: t(25),
            direct: vec![0],
        }];
        assert!(rollback_waves(&r, &waves).is_empty());
    }

    #[test]
    fn wave_rejects_missing_direct_rollback() {
        let r = report_with_rollbacks(vec![vec![], vec![]]);
        let waves = [FaultWave {
            from: t(19),
            until: t(25),
            direct: vec![0],
        }];
        let v = rollback_waves(&r, &waves);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("direct hit expects 1"));
    }

    #[test]
    fn wave_accepts_direct_hit_with_cascade_back() {
        // A second rollback at the direct victim (dirty-state cascade-back
        // after its dependent's late alert) is within bounds; a third is
        // not.
        let r = report_with_rollbacks(vec![vec![20, 22], vec![21]]);
        let waves = [FaultWave {
            from: t(19),
            until: t(25),
            direct: vec![0],
        }];
        assert!(rollback_waves(&r, &waves).is_empty());
    }

    #[test]
    fn wave_accepts_a_transitive_step_at_a_bystander() {
        // Three clusters: the victim once, both bystanders on its alert,
        // then bystander 2 one CLC deeper on bystander 1's alert.
        let r = report_with_rollbacks(vec![vec![20], vec![20], vec![20, 21]]);
        let waves = [FaultWave {
            from: t(19),
            until: t(25),
            direct: vec![0],
        }];
        assert!(rollback_waves(&r, &waves).is_empty());
    }

    #[test]
    fn wave_rejects_more_rollbacks_than_causes() {
        // Two clusters: the bystander heard one alert and rolled back
        // twice; a victim nobody alerted rolled back twice.
        let waves = [FaultWave {
            from: t(19),
            until: t(25),
            direct: vec![0],
        }];
        let r = report_with_rollbacks(vec![vec![20], vec![20, 21]]);
        let v = rollback_waves(&r, &waves);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("cluster 1: 2 rollbacks") && v[0].contains("alert received: 1"));
        let r = report_with_rollbacks(vec![vec![20, 22], vec![]]);
        let v = rollback_waves(&r, &waves);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("direct hit expects 1"));
    }

    #[test]
    fn wave_rejects_triple_rollback_and_strays() {
        let r = report_with_rollbacks(vec![vec![20, 21, 22], vec![5]]);
        let waves = [FaultWave {
            from: t(19),
            until: t(25),
            direct: vec![0],
        }];
        let v = rollback_waves(&r, &waves);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().any(|m| m.contains("direct hit expects 1")));
        assert!(v.iter().any(|m| m.contains("outside every declared wave")));
    }

    #[test]
    fn no_waves_means_no_rollbacks() {
        let quiet = report_with_rollbacks(vec![vec![], vec![]]);
        assert!(rollback_waves(&quiet, &[]).is_empty());
        let noisy = report_with_rollbacks(vec![vec![10], vec![]]);
        assert_eq!(rollback_waves(&noisy, &[]).len(), 1);
    }

    #[test]
    fn gc_liveness_flags_starvation_and_growth() {
        let mut r = report_with_rollbacks(vec![vec![]]);
        r.clusters[0].gc_before_after = vec![(5, 2), (4, 1)];
        let ok = GcExpectation {
            min_collections: 2,
            max_after: 3,
        };
        assert!(gc_liveness(&r, &ok).is_empty());
        assert_eq!(
            gc_liveness(
                &r,
                &GcExpectation {
                    min_collections: 3,
                    max_after: 3
                }
            )
            .len(),
            1
        );
        r.clusters[0].gc_before_after = vec![(5, 2), (2, 9)];
        let v = gc_liveness(&r, &ok);
        assert!(v.iter().any(|m| m.contains("grew storage")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("after the final")), "{v:?}");
    }

    #[test]
    fn ledger_checks_require_a_ledger() {
        let stats = HostileRunStats::default();
        assert_eq!(no_lost_committed_work(&stats).len(), 1);
        assert_eq!(delivered_record_consistency(&stats).len(), 1);
    }

    #[test]
    #[should_panic(expected = "protocol invariant violations")]
    fn assert_clean_panics_with_details() {
        assert_clean(vec!["boom".into()]);
    }
}
