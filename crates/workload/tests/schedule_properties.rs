//! Property tests for the traffic generators.

use desim::{exponential, RngStreams, SimDuration, SimTime};
use netsim::NodeId;
use proptest::prelude::*;
use rand::Rng;
use workload::{SendEvent, StochasticWorkload, TargetCountWorkload, Workload};

/// The paper's model as a whole schedule: every node's draws appended,
/// then sorted by `(at, from, to)` — what `StochasticWorkload::schedule`
/// did before it streamed, kept here as the reference the stream must
/// equal.
fn generate_then_sort(w: &StochasticWorkload, streams: &RngStreams) -> Vec<SendEvent> {
    let mut events = Vec::new();
    let horizon = SimTime::ZERO + w.duration;
    for (c, &size) in w.cluster_sizes.iter().enumerate() {
        for rank in 0..size {
            let from = NodeId::new(c as u16, rank);
            let mut rng = streams.stream("workload.node", (c as u64) << 32 | rank as u64);
            let mut t = SimTime::ZERO;
            loop {
                let step = exponential(&mut rng, w.compute_mean_secs[c]);
                t = t.saturating_add(SimDuration::from_secs_f64(step));
                if t >= horizon {
                    break;
                }
                let u: f64 = rng.gen();
                let mut acc = 0.0;
                let mut dest = w.pattern[c].len() - 1;
                for (j, &p) in w.pattern[c].iter().enumerate() {
                    acc += p;
                    if u < acc {
                        dest = j;
                        break;
                    }
                }
                let size = w.cluster_sizes[dest];
                if size == 0 || (dest == c && size == 1) {
                    continue;
                }
                let to = loop {
                    let candidate = NodeId::new(dest as u16, rng.gen_range(0..size));
                    if candidate != from {
                        break candidate;
                    }
                };
                events.push(SendEvent {
                    at: t,
                    from,
                    to,
                    bytes: w.payload_bytes,
                });
            }
        }
    }
    events.sort_unstable_by_key(|e| (e.at, e.from, e.to));
    events
}

/// Compute means to pick from: a nanosecond or two makes most of a
/// node's phases round to the same instant as the one before.
const MEANS: [f64; 4] = [1e-9, 2e-9, 0.5, 20.0];

/// A model of `n` clusters from raw draws: sizes, indices into [`MEANS`]
/// and pattern weights (a row of zeros keeps its traffic at home).
fn model(n: usize, sizes: &[u32], means: &[usize], weights: &[Vec<u32>]) -> StochasticWorkload {
    let compute_mean_secs: Vec<f64> = means[..n].iter().map(|&m| MEANS[m]).collect();
    let pattern = (0..n)
        .map(|i| {
            let row = &weights[i][..n];
            let sum: u32 = row.iter().sum();
            (0..n)
                .map(|j| match sum {
                    0 => f64::from(u8::from(i == j)),
                    _ => f64::from(row[j]) / f64::from(sum),
                })
                .collect()
        })
        .collect();
    // Nanosecond phases fit thousands of draws into a few microseconds.
    let duration = if compute_mean_secs.iter().any(|&m| m < 1e-6) {
        SimDuration::from_nanos(3_000)
    } else {
        SimDuration::from_minutes(20)
    };
    StochasticWorkload {
        cluster_sizes: sizes[..n].to_vec(),
        duration,
        compute_mean_secs,
        pattern,
        payload_bytes: 64,
    }
}

/// Sends of one node at one instant beyond the first: what only the
/// stream's per-node tie order puts in `(at, from, to)` order.
fn same_instant_repeats(schedule: &[SendEvent]) -> usize {
    schedule
        .windows(2)
        .filter(|p| p[0].at == p[1].at && p[0].from == p[1].from)
        .count()
}

#[test]
fn a_nanosecond_compute_mean_forces_same_instant_draws_and_the_stream_still_matches() {
    let w = model(2, &[3, 2], &[0, 2], &[vec![1, 1], vec![0, 1]]);
    for seed in 0..8 {
        let streams = RngStreams::new(seed);
        let stream: Vec<SendEvent> = w.sends(&streams).collect();
        assert!(same_instant_repeats(&stream) > 100, "seed {seed}: no ties");
        assert_eq!(stream, generate_then_sort(&w, &streams), "seed {seed}");
        assert_eq!(w.schedule(&streams), stream, "seed {seed}");
    }
}

fn counts_strategy(n: usize) -> impl Strategy<Value = Vec<Vec<u64>>> {
    prop::collection::vec(prop::collection::vec(0u64..120, n), n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn target_counts_always_exact(
        counts in counts_strategy(3),
        sizes in prop::collection::vec(2u32..10, 3),
        seed in any::<u64>(),
    ) {
        let w = TargetCountWorkload {
            cluster_sizes: sizes,
            duration: SimDuration::from_hours(1),
            counts: counts.clone(),
            payload_bytes: 100,
        };
        let schedule = w.schedule(&RngStreams::new(seed));
        for i in 0..3u16 {
            for j in 0..3u16 {
                let got = schedule
                    .iter()
                    .filter(|e| e.from.cluster.0 == i && e.to.cluster.0 == j)
                    .count() as u64;
                prop_assert_eq!(got, counts[i as usize][j as usize]);
            }
        }
    }

    #[test]
    fn schedules_sorted_in_range_no_self_sends(
        counts in counts_strategy(2),
        seed in any::<u64>(),
    ) {
        let w = TargetCountWorkload {
            cluster_sizes: vec![3, 3],
            duration: SimDuration::from_minutes(30),
            counts,
            payload_bytes: 64,
        };
        let schedule = w.schedule(&RngStreams::new(seed));
        let horizon = SimTime::ZERO + w.duration;
        prop_assert!(schedule.windows(2).all(|p| p[0].at <= p[1].at));
        prop_assert!(schedule.iter().all(|e| e.at < horizon));
        prop_assert!(schedule.iter().all(|e| e.from != e.to));
        prop_assert!(schedule
            .iter()
            .all(|e| e.from.rank < 3 && e.to.rank < 3));
    }

    #[test]
    fn stochastic_never_targets_zero_probability_clusters(
        seed in any::<u64>(),
        cross in 0.0f64..0.2,
    ) {
        // Cluster 2 receives nothing under this pattern.
        let w = StochasticWorkload {
            cluster_sizes: vec![4, 4, 4],
            duration: SimDuration::from_minutes(60),
            compute_mean_secs: vec![5.0, 5.0, 5.0],
            pattern: vec![
                vec![1.0 - cross, cross, 0.0],
                vec![cross, 1.0 - cross, 0.0],
                vec![0.0, 0.0, 1.0],
            ],
            payload_bytes: 32,
        };
        w.validate().unwrap();
        let schedule = w.schedule(&RngStreams::new(seed));
        prop_assert!(schedule
            .iter()
            .all(|e| !(e.to.cluster.0 == 2 && e.from.cluster.0 != 2)));
    }

    #[test]
    fn stochastic_is_seed_deterministic(seed in any::<u64>()) {
        let w = StochasticWorkload {
            cluster_sizes: vec![3, 3],
            duration: SimDuration::from_minutes(20),
            compute_mean_secs: vec![7.0, 9.0],
            pattern: vec![vec![0.9, 0.1], vec![0.2, 0.8]],
            payload_bytes: 128,
        };
        let a = w.schedule(&RngStreams::new(seed));
        let b = w.schedule(&RngStreams::new(seed));
        prop_assert_eq!(a, b);
    }

    #[test]
    fn the_stochastic_stream_is_generate_then_sort(
        seed in any::<u64>(),
        n in 1usize..4,
        sizes in prop::collection::vec(1u32..5, 3),
        means in prop::collection::vec(0usize..MEANS.len(), 3),
        weights in prop::collection::vec(prop::collection::vec(0u32..4, 3), 3),
    ) {
        let w = model(n, &sizes, &means, &weights);
        w.validate().unwrap();
        let streams = RngStreams::new(seed);
        let stream: Vec<SendEvent> = w.sends(&streams).collect();
        prop_assert_eq!(stream, generate_then_sort(&w, &streams));
    }
}
