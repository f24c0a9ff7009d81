//! Traffic generation.
//!
//! Two generators, both producing a deterministic, time-sorted schedule of
//! application sends from a seed:
//!
//! * [`StochasticWorkload`] — the paper's application model (§5.1): each
//!   node alternates exponentially-distributed computation phases with
//!   sends whose destinations follow a cluster-to-cluster probability
//!   matrix.
//! * [`TargetCountWorkload`] — fixes the *number* of messages per directed
//!   cluster pair and spreads them uniformly over the run. This is what
//!   regenerates Table 1's exact message counts and Figure 9's
//!   "messages from cluster 1 to cluster 0" sweep.
//! * [`BurstyWorkload`] — heavy-tailed (Pareto) inter-send gaps plus
//!   scripted flash crowds, for stressing dense-timestamp regimes the
//!   paper's smooth models never produce.

use desim::{exponential, pareto, RngStreams, SimDuration, SimTime};
use netsim::NodeId;
use rand::Rng;

/// One application-level send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendEvent {
    /// When the application issues the send.
    pub at: SimTime,
    /// Sending node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Payload size.
    pub bytes: u64,
}

/// Sort events by time (ties broken by sender then destination, keeping
/// schedules deterministic across generator implementations).
fn sort_schedule(events: &mut [SendEvent]) {
    // Unstable is safe *and* bit-identical here: every generator emits a
    // uniform `bytes`, so events tied on the full `(at, from, to)` key are
    // indistinguishable — any permutation of them is the same schedule.
    events.sort_unstable_by_key(|e| (e.at, e.from, e.to));
}

/// A workload that can be scheduled deterministically.
pub trait Workload {
    /// Produce the full, time-sorted send schedule.
    fn schedule(&self, streams: &RngStreams) -> Vec<SendEvent>;
}

/// The paper's stochastic application model.
#[derive(Debug, Clone)]
pub struct StochasticWorkload {
    /// Nodes per cluster.
    pub cluster_sizes: Vec<u32>,
    /// Total application duration.
    pub duration: SimDuration,
    /// Mean computation time between sends, per cluster (seconds).
    pub compute_mean_secs: Vec<f64>,
    /// `pattern[i][j]` = probability that a send from cluster `i` targets
    /// cluster `j`. Rows must sum to ~1.
    pub pattern: Vec<Vec<f64>>,
    /// Payload size of every message.
    pub payload_bytes: u64,
}

impl StochasticWorkload {
    /// Validate dimensions, compute means and probability rows.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.cluster_sizes.len();
        if self.compute_mean_secs.len() != n {
            return Err("compute_mean per cluster required".into());
        }
        // `schedule` steps each node's clock by draws around the mean until
        // it passes the horizon: a mean that is not a positive number never
        // gets there.
        for (c, &mean) in self.compute_mean_secs.iter().enumerate() {
            if !(mean.is_finite() && mean > 0.0) {
                return Err(format!(
                    "compute_mean of cluster {c} must be positive and finite, got {mean}"
                ));
            }
        }
        if self.pattern.len() != n || self.pattern.iter().any(|row| row.len() != n) {
            return Err("pattern must be an NxN matrix".into());
        }
        for (i, row) in self.pattern.iter().enumerate() {
            if row.iter().any(|&p| !(0.0..=1.0).contains(&p)) {
                return Err(format!("pattern row {i} has out-of-range probability"));
            }
            let sum: f64 = row.iter().sum();
            if (sum - 1.0).abs() > 1e-6 {
                return Err(format!("pattern row {i} sums to {sum}, expected 1"));
            }
        }
        Ok(())
    }
}

/// Pick a destination node in `cluster`, different from `from`.
fn pick_node_in(rng: &mut impl Rng, cluster: usize, size: u32, from: NodeId) -> Option<NodeId> {
    if size == 0 {
        return None;
    }
    let same_cluster = from.cluster.index() == cluster;
    if same_cluster && size == 1 {
        return None; // nobody else to talk to
    }
    loop {
        let rank = rng.gen_range(0..size);
        let candidate = NodeId::new(cluster as u16, rank);
        if candidate != from {
            return Some(candidate);
        }
    }
}

impl Workload for StochasticWorkload {
    fn schedule(&self, streams: &RngStreams) -> Vec<SendEvent> {
        self.validate().expect("invalid stochastic workload");
        let mut events = Vec::new();
        let horizon = SimTime::ZERO + self.duration;
        for (c, &size) in self.cluster_sizes.iter().enumerate() {
            for rank in 0..size {
                let from = NodeId::new(c as u16, rank);
                let mut rng = streams.stream("workload.node", (c as u64) << 32 | rank as u64);
                let mut t = SimTime::ZERO;
                loop {
                    let step = exponential(&mut rng, self.compute_mean_secs[c]);
                    t = t.saturating_add(SimDuration::from_secs_f64(step));
                    if t >= horizon {
                        break;
                    }
                    // Draw the destination cluster from the pattern row.
                    let u: f64 = rng.gen();
                    let mut acc = 0.0;
                    let mut dest_cluster = self.pattern[c].len() - 1;
                    for (j, &p) in self.pattern[c].iter().enumerate() {
                        acc += p;
                        if u < acc {
                            dest_cluster = j;
                            break;
                        }
                    }
                    if let Some(to) = pick_node_in(
                        &mut rng,
                        dest_cluster,
                        self.cluster_sizes[dest_cluster],
                        from,
                    ) {
                        events.push(SendEvent {
                            at: t,
                            from,
                            to,
                            bytes: self.payload_bytes,
                        });
                    }
                }
            }
        }
        sort_schedule(&mut events);
        events
    }
}

/// Fixed per-cluster-pair message counts spread uniformly over the run.
#[derive(Debug, Clone)]
pub struct TargetCountWorkload {
    /// Nodes per cluster.
    pub cluster_sizes: Vec<u32>,
    /// Total application duration.
    pub duration: SimDuration,
    /// `counts[i][j]` = number of messages from cluster `i` to cluster `j`.
    pub counts: Vec<Vec<u64>>,
    /// Payload size of every message.
    pub payload_bytes: u64,
}

impl TargetCountWorkload {
    /// The paper's Table 1 reference workload on 2×100 nodes over 10 h:
    /// 2920 intra cluster 0, 2497 intra cluster 1, 145 messages 0→1 and
    /// 11 messages 1→0.
    pub fn paper_table1() -> Self {
        TargetCountWorkload {
            cluster_sizes: vec![100, 100],
            duration: SimDuration::from_hours(10),
            counts: vec![vec![2920, 145], vec![11, 2497]],
            payload_bytes: 1024,
        }
    }

    /// Same as [`paper_table1`](Self::paper_table1) but with the
    /// cluster-1 → cluster-0 count overridden (the Figure 9 x-axis).
    pub fn paper_with_reverse_count(reverse: u64) -> Self {
        let mut w = Self::paper_table1();
        w.counts[1][0] = reverse;
        w
    }
}

impl Workload for TargetCountWorkload {
    fn schedule(&self, streams: &RngStreams) -> Vec<SendEvent> {
        let n = self.cluster_sizes.len();
        assert_eq!(self.counts.len(), n, "counts must be NxN");
        let total: u64 = self.counts.iter().flatten().sum();
        let mut events = Vec::with_capacity(total as usize);
        let span = self.duration.nanos();
        for i in 0..n {
            assert_eq!(self.counts[i].len(), n, "counts must be NxN");
            for j in 0..n {
                // Untouched pairs draw nothing: skipping the stream set-up
                // entirely leaves every other pair's stream — and thus the
                // schedule — bit-identical. Wide federations have O(n^2)
                // pairs but O(n) active ones, so this dominates set-up cost.
                if self.counts[i][j] == 0 {
                    continue;
                }
                let mut rng = streams.stream("workload.pair", (i as u64) << 32 | j as u64);
                for _ in 0..self.counts[i][j] {
                    let at = SimTime(rng.gen_range(0..span.max(1)));
                    let from_rank = rng.gen_range(0..self.cluster_sizes[i]);
                    let from = NodeId::new(i as u16, from_rank);
                    let Some(to) = pick_node_in(&mut rng, j, self.cluster_sizes[j], from) else {
                        continue;
                    };
                    events.push(SendEvent {
                        at,
                        from,
                        to,
                        bytes: self.payload_bytes,
                    });
                }
            }
        }
        sort_schedule(&mut events);
        events
    }
}

/// Heavy-tailed, bursty traffic: per-node inter-send gaps are Pareto
/// distributed (dense bursts separated by long silences), optionally
/// punctuated by *flash crowds* — windows in which every node fires
/// additional sends almost simultaneously.
///
/// This stresses dense-timestamp regimes: many sends inside one network
/// round trip, checkpoint rounds racing application traffic, and forced-CLC
/// storms when a crowd crosses clusters.
#[derive(Debug, Clone)]
pub struct BurstyWorkload {
    /// Nodes per cluster.
    pub cluster_sizes: Vec<u32>,
    /// Total application duration.
    pub duration: SimDuration,
    /// Minimum inter-send gap in seconds (the Pareto scale).
    pub gap_scale_secs: f64,
    /// Pareto tail exponent; `1 < alpha <= 2` gives the heavy tail.
    pub gap_alpha: f64,
    /// `pattern[i][j]` = probability that a send from cluster `i` targets
    /// cluster `j`. Rows must sum to ~1.
    pub pattern: Vec<Vec<f64>>,
    /// Payload size of every message.
    pub payload_bytes: u64,
    /// Flash-crowd windows `(start, width)`: every node issues
    /// [`flash_fanout`](Self::flash_fanout) extra sends at uniform times
    /// inside each window.
    pub flash_crowds: Vec<(SimTime, SimDuration)>,
    /// Extra sends per node per flash crowd.
    pub flash_fanout: u32,
}

impl BurstyWorkload {
    fn pick_dest_cluster(&self, rng: &mut impl Rng, from_cluster: usize) -> usize {
        let u: f64 = rng.gen();
        let mut acc = 0.0;
        let mut dest = self.pattern[from_cluster].len() - 1;
        for (j, &p) in self.pattern[from_cluster].iter().enumerate() {
            acc += p;
            if u < acc {
                dest = j;
                break;
            }
        }
        dest
    }
}

impl Workload for BurstyWorkload {
    fn schedule(&self, streams: &RngStreams) -> Vec<SendEvent> {
        assert!(self.gap_scale_secs > 0.0, "gap scale must be positive");
        assert!(self.gap_alpha > 0.0, "tail exponent must be positive");
        let mut events = Vec::new();
        let horizon = SimTime::ZERO + self.duration;
        for (c, &size) in self.cluster_sizes.iter().enumerate() {
            for rank in 0..size {
                let from = NodeId::new(c as u16, rank);
                let mut rng = streams.stream("workload.bursty", (c as u64) << 32 | rank as u64);
                // Background heavy-tailed stream.
                let mut t = SimTime::ZERO;
                loop {
                    let gap = pareto(&mut rng, self.gap_scale_secs, self.gap_alpha);
                    t = t.saturating_add(SimDuration::from_secs_f64(gap));
                    if t >= horizon {
                        break;
                    }
                    let dest = self.pick_dest_cluster(&mut rng, c);
                    if let Some(to) = pick_node_in(&mut rng, dest, self.cluster_sizes[dest], from) {
                        events.push(SendEvent {
                            at: t,
                            from,
                            to,
                            bytes: self.payload_bytes,
                        });
                    }
                }
                // Flash crowds: every node joins every window.
                for &(start, width) in &self.flash_crowds {
                    for _ in 0..self.flash_fanout {
                        let offset = SimDuration::from_nanos(if width.nanos() == 0 {
                            0
                        } else {
                            rng.gen_range(0..width.nanos())
                        });
                        let at = start.saturating_add(offset);
                        if at >= horizon {
                            continue;
                        }
                        let dest = self.pick_dest_cluster(&mut rng, c);
                        if let Some(to) =
                            pick_node_in(&mut rng, dest, self.cluster_sizes[dest], from)
                        {
                            events.push(SendEvent {
                                at,
                                from,
                                to,
                                bytes: self.payload_bytes,
                            });
                        }
                    }
                }
            }
        }
        sort_schedule(&mut events);
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn streams() -> RngStreams {
        RngStreams::new(12345)
    }

    #[test]
    fn target_counts_are_exact() {
        let w = TargetCountWorkload::paper_table1();
        let schedule = w.schedule(&streams());
        let count = |fi: u16, ti: u16| {
            schedule
                .iter()
                .filter(|e| e.from.cluster.0 == fi && e.to.cluster.0 == ti)
                .count() as u64
        };
        assert_eq!(count(0, 0), 2920);
        assert_eq!(count(1, 1), 2497);
        assert_eq!(count(0, 1), 145);
        assert_eq!(count(1, 0), 11);
        assert_eq!(schedule.len(), 2920 + 2497 + 145 + 11);
    }

    #[test]
    fn schedules_are_sorted_and_deterministic() {
        let w = TargetCountWorkload::paper_table1();
        let a = w.schedule(&streams());
        let b = w.schedule(&streams());
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn different_seed_different_schedule() {
        let w = TargetCountWorkload::paper_table1();
        let a = w.schedule(&RngStreams::new(1));
        let b = w.schedule(&RngStreams::new(2));
        assert_ne!(a, b);
    }

    #[test]
    fn no_self_sends() {
        let w = TargetCountWorkload {
            cluster_sizes: vec![2, 2],
            duration: SimDuration::from_secs(100),
            counts: vec![vec![500, 50], vec![50, 500]],
            payload_bytes: 64,
        };
        assert!(w.schedule(&streams()).iter().all(|e| e.from != e.to));
    }

    #[test]
    fn events_within_duration() {
        let w = TargetCountWorkload::paper_table1();
        let horizon = SimTime::ZERO + w.duration;
        assert!(w.schedule(&streams()).iter().all(|e| e.at < horizon));
    }

    #[test]
    fn reverse_count_override() {
        let w = TargetCountWorkload::paper_with_reverse_count(103);
        let schedule = w.schedule(&streams());
        let rev = schedule
            .iter()
            .filter(|e| e.from.cluster.0 == 1 && e.to.cluster.0 == 0)
            .count();
        assert_eq!(rev, 103);
    }

    fn stochastic() -> StochasticWorkload {
        StochasticWorkload {
            cluster_sizes: vec![10, 10],
            duration: SimDuration::from_hours(1),
            compute_mean_secs: vec![10.0, 12.0],
            pattern: vec![vec![0.97, 0.03], vec![0.01, 0.99]],
            payload_bytes: 512,
        }
    }

    #[test]
    fn stochastic_respects_pattern_shape() {
        let schedule = stochastic().schedule(&streams());
        assert!(!schedule.is_empty());
        let inter01 = schedule
            .iter()
            .filter(|e| e.from.cluster.0 == 0 && e.to.cluster.0 == 1)
            .count() as f64;
        let intra0 = schedule
            .iter()
            .filter(|e| e.from.cluster.0 == 0 && e.to.cluster.0 == 0)
            .count() as f64;
        // 3% of cluster-0 traffic crosses; allow generous sampling slack.
        let frac = inter01 / (inter01 + intra0);
        assert!(
            (0.01..=0.06).contains(&frac),
            "inter fraction {frac} out of plausible band"
        );
    }

    #[test]
    fn stochastic_mean_rate_plausible() {
        let w = stochastic();
        let schedule = w.schedule(&streams());
        // 10 nodes sending every ~10 s for an hour ≈ 3600 sends from
        // cluster 0; both clusters together ≈ 6600.
        let expected = 3600.0 + 3000.0;
        let actual = schedule.len() as f64;
        assert!(
            (actual - expected).abs() < expected * 0.15,
            "got {actual}, expected ≈ {expected}"
        );
    }

    #[test]
    fn stochastic_validation_catches_means_that_never_reach_the_horizon() {
        for mean in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut w = stochastic();
            w.compute_mean_secs[1] = mean;
            let e = w.validate().unwrap_err();
            assert!(e.contains("compute_mean of cluster 1"), "{mean}: {e}");
        }
    }

    #[test]
    fn stochastic_validation_catches_bad_rows() {
        let mut w = stochastic();
        w.pattern[0][0] = 0.5; // row no longer sums to 1
        assert!(w.validate().is_err());
        let mut w2 = stochastic();
        w2.pattern.pop();
        assert!(w2.validate().is_err());
        let mut w3 = stochastic();
        w3.compute_mean_secs.pop();
        assert!(w3.validate().is_err());
    }

    fn bursty() -> BurstyWorkload {
        BurstyWorkload {
            cluster_sizes: vec![6, 6],
            duration: SimDuration::from_minutes(30),
            gap_scale_secs: 5.0,
            gap_alpha: 1.5,
            pattern: vec![vec![0.9, 0.1], vec![0.1, 0.9]],
            payload_bytes: 512,
            flash_crowds: vec![(
                SimTime::ZERO + SimDuration::from_minutes(10),
                SimDuration::from_millis(50),
            )],
            flash_fanout: 4,
        }
    }

    #[test]
    fn bursty_is_deterministic_and_sorted() {
        let w = bursty();
        let a = w.schedule(&streams());
        let b = w.schedule(&streams());
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(a.iter().all(|e| e.from != e.to));
    }

    #[test]
    fn bursty_flash_crowd_is_dense() {
        let w = bursty();
        let schedule = w.schedule(&streams());
        let start = SimTime::ZERO + SimDuration::from_minutes(10);
        let end = start + SimDuration::from_millis(50);
        let in_window = schedule
            .iter()
            .filter(|e| e.at >= start && e.at < end)
            .count();
        // 12 nodes × 4 fanout land inside a 50 ms window (background sends
        // rarely coincide): a dense-timestamp spike by construction.
        assert!(
            in_window >= 48,
            "only {in_window} sends in the crowd window"
        );
    }

    #[test]
    fn bursty_tail_is_heavier_than_exponential() {
        // With alpha = 1.5 and scale 5 s, gaps above 10× the scale must
        // appear (P[gap > 50 s] ≈ 3%) — the silences between bursts.
        let w = BurstyWorkload {
            flash_crowds: vec![],
            duration: SimDuration::from_hours(4),
            ..bursty()
        };
        let schedule = w.schedule(&streams());
        let mut long_gaps = 0usize;
        for rank in 0..6u32 {
            let node: Vec<_> = schedule
                .iter()
                .filter(|e| e.from == NodeId::new(0, rank))
                .collect();
            for pair in node.windows(2) {
                if pair[1].at - pair[0].at > SimDuration::from_secs(50) {
                    long_gaps += 1;
                }
            }
        }
        assert!(long_gaps > 0, "heavy tail should produce long silences");
    }

    #[test]
    fn single_node_cluster_skips_self_traffic() {
        let w = StochasticWorkload {
            cluster_sizes: vec![1, 2],
            duration: SimDuration::from_secs(1000),
            compute_mean_secs: vec![1.0, 1.0],
            pattern: vec![vec![1.0, 0.0], vec![0.0, 1.0]],
            payload_bytes: 8,
        };
        // Cluster 0's lone node has nobody to talk to intra-cluster.
        let schedule = w.schedule(&streams());
        assert!(schedule.iter().all(|e| e.from.cluster.0 != 0));
    }
}
