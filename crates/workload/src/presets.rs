//! Canned workloads for the paper's scenarios and the examples.

use crate::generate::{StochasticWorkload, TargetCountWorkload};
use desim::SimDuration;

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
    fn three_cluster_preset_shape() {
        let w = paper_three_clusters();
        assert_eq!(w.cluster_sizes.len(), 3);
        let leave0: u64 = w.counts[0][1] + w.counts[0][2];
        assert_eq!(leave0, 200, "≈200 messages leave each cluster");
    }
}
