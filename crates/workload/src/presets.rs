//! Canned workloads for the paper's scenarios and the examples.

use crate::generate::{BurstyWorkload, StochasticWorkload, TargetCountWorkload};
use desim::{SimDuration, SimTime};

/// The paper's motivating application (Figure 1): a pipeline of modules —
/// simulation → treatment → display — one per cluster. Traffic is heavy
/// inside each module and trickles forward along the pipeline.
pub fn pipeline(
    num_clusters: usize,
    nodes_per_cluster: u32,
    duration: SimDuration,
    forward_fraction: f64,
) -> StochasticWorkload {
    assert!(num_clusters >= 1);
    assert!((0.0..1.0).contains(&forward_fraction));
    let mut pattern = vec![vec![0.0; num_clusters]; num_clusters];
    for (i, row) in pattern.iter_mut().enumerate() {
        if i + 1 < num_clusters {
            row[i] = 1.0 - forward_fraction;
            row[i + 1] = forward_fraction;
        } else {
            row[i] = 1.0; // last stage has nobody downstream
        }
    }
    StochasticWorkload {
        cluster_sizes: vec![nodes_per_cluster; num_clusters],
        duration,
        compute_mean_secs: vec![30.0; num_clusters],
        pattern,
        payload_bytes: 1024,
    }
}

/// A three-cluster variant for the paper's Table 3: "Cluster 2 is a clone
/// of cluster 1. There's approximately 200 messages that leave and arrive
/// in each cluster."
pub fn paper_three_clusters() -> TargetCountWorkload {
    TargetCountWorkload {
        cluster_sizes: vec![100, 100, 100],
        duration: SimDuration::from_hours(10),
        counts: vec![
            vec![2920, 100, 100],
            vec![100, 2497, 100],
            vec![100, 100, 2497],
        ],
        payload_bytes: 1024,
    }
}

/// Heavy-tailed background traffic: Pareto inter-send gaps (bursts
/// separated by long silences), mostly-local with a configurable cross
/// fraction to the next cluster. Stresses dense-timestamp regimes —
/// many sends inside one network round trip.
pub(crate) fn heavy_tailed(
    num_clusters: usize,
    nodes_per_cluster: u32,
    duration: SimDuration,
    cross_fraction: f64,
) -> BurstyWorkload {
    assert!(num_clusters >= 1);
    assert!((0.0..1.0).contains(&cross_fraction));
    let mut pattern = vec![vec![0.0; num_clusters]; num_clusters];
    for (i, row) in pattern.iter_mut().enumerate() {
        if num_clusters == 1 {
            row[i] = 1.0;
        } else {
            row[i] = 1.0 - cross_fraction;
            row[(i + 1) % num_clusters] = cross_fraction;
        }
    }
    BurstyWorkload {
        cluster_sizes: vec![nodes_per_cluster; num_clusters],
        duration,
        gap_scale_secs: 10.0,
        gap_alpha: 1.5,
        pattern,
        payload_bytes: 1024,
        flash_crowds: vec![],
        flash_fanout: 0,
    }
}

/// `heavy_tailed` plus `crowds` evenly-spaced flash crowds: 100 ms
/// windows in which every node fires `fanout` extra sends — checkpoint
/// rounds race a spike of near-simultaneous application traffic.
pub fn flash_crowd(
    num_clusters: usize,
    nodes_per_cluster: u32,
    duration: SimDuration,
    cross_fraction: f64,
    crowds: u32,
    fanout: u32,
) -> BurstyWorkload {
    assert!(crowds >= 1);
    let mut w = heavy_tailed(num_clusters, nodes_per_cluster, duration, cross_fraction);
    // Crowds at 1/(n+1), 2/(n+1), … of the run — never at the very start
    // or end, where the protocol is idle or draining.
    let step = duration.nanos() / (crowds as u64 + 1);
    w.flash_crowds = (1..=crowds as u64)
        .map(|k| {
            (
                SimTime::ZERO + SimDuration::from_nanos(k * step),
                SimDuration::from_millis(100),
            )
        })
        .collect();
    w.flash_fanout = fanout;
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::Workload;
    use desim::RngStreams;

    #[test]
    fn pipeline_rows_sum_to_one() {
        let w = pipeline(3, 8, SimDuration::from_hours(1), 0.05);
        w.validate().unwrap();
        assert_eq!(w.pattern[0][1], 0.05);
        assert_eq!(w.pattern[2][2], 1.0, "last stage keeps traffic local");
    }

    #[test]
    fn pipeline_traffic_flows_forward_only() {
        let w = pipeline(3, 6, SimDuration::from_minutes(30), 0.1);
        let schedule = w.schedule(&RngStreams::new(3));
        assert!(schedule
            .iter()
            .all(|e| e.to.cluster.0 == e.from.cluster.0 || e.to.cluster.0 == e.from.cluster.0 + 1));
    }

    #[test]
    fn heavy_tailed_preset_validates_and_schedules() {
        let w = heavy_tailed(3, 4, SimDuration::from_minutes(20), 0.1);
        let schedule = w.schedule(&RngStreams::new(5));
        assert!(!schedule.is_empty());
        // Cross traffic goes to the next cluster only.
        assert!(schedule
            .iter()
            .all(|e| e.to.cluster.0 == e.from.cluster.0
                || e.to.cluster.0 == (e.from.cluster.0 + 1) % 3));
    }

    #[test]
    fn flash_crowd_preset_spikes() {
        let w = flash_crowd(2, 5, SimDuration::from_minutes(30), 0.2, 3, 4);
        assert_eq!(w.flash_crowds.len(), 3);
        let schedule = w.schedule(&RngStreams::new(5));
        for &(start, width) in &w.flash_crowds {
            let dense = schedule
                .iter()
                .filter(|e| e.at >= start && e.at < start + width)
                .count();
            assert!(dense >= 40, "crowd at {start} only {dense} sends");
        }
    }

    #[test]
    fn three_cluster_preset_shape() {
        let w = paper_three_clusters();
        assert_eq!(w.cluster_sizes.len(), 3);
        let leave0: u64 = w.counts[0][1] + w.counts[0][2];
        assert_eq!(leave0, 200, "≈200 messages leave each cluster");
    }
}
