//! `sim_mega`: the `scaling_mega` ring of `hc3i_baselines` at half its
//! width — 512 clusters x 100 nodes, 120 intra + 30 inter sends per
//! cluster, one simulated hour, 30-minute timers — through
//! `simdriver::run` in-process.
//!
//! 51,200 engines and ~670 MiB: construction, first-touch faults and
//! cache misses dominate and the hot path is a minority, so arena, DDV
//! interning and construction work shows here; the prediction for such
//! work on `sim_dense` is no change.
//!
//! A rep is two fresh children: `setup` times schedule +
//! `FederationWorld::new` alone (`setup_s`, `simdriver.world_new_s`),
//! `run` times the `simdriver::run` call. Separate processes, because a
//! world built earlier in the same process leaves its faulted pages in
//! the allocator and halves the next construction. Half the width,
//! because the two children must cycle well inside two seconds (see
//! `runner.rs`): at 1024 clusters they do not, and the same rep takes
//! 3.4 s or 8 s depending on what ran before it.

use super::Region;
use crate::host::Who;
use crate::rep::{fnv1a, RepCtx, RepOut, Scale};
use crate::stream::Stream;
use crate::trace;
use desim::{RngStreams, SimDuration};
use hc3i_core::ProtocolConfig;
use netsim::{ClusterSpec, LinkSpec, Topology};
use simdriver::{FederationWorld, SimConfig};
use std::time::Instant;
use workload::{TargetCountWorkload, Workload as _};

/// `(clusters, nodes per cluster)`.
fn shape(scale: Scale) -> (usize, u32) {
    scale.pick((512, 100), (64, 100), (8, 4))
}

fn ring(n: usize, nodes: u32) -> (Topology, TargetCountWorkload) {
    let mut counts = vec![vec![0u64; n]; n];
    for (i, row) in counts.iter_mut().enumerate() {
        row[i] = 120;
        row[(i + 1) % n] = 30;
    }
    let topology = Topology::new(
        vec![
            ClusterSpec {
                nodes,
                intra: LinkSpec::myrinet_like(),
            };
            n
        ],
        LinkSpec::ethernet_like(),
    );
    let workload = TargetCountWorkload {
        cluster_sizes: vec![nodes; n],
        duration: SimDuration::from_hours(1),
        counts,
        payload_bytes: 1024,
    };
    (topology, workload)
}

fn config(seed: u64, scale: Scale) -> SimConfig {
    let (n, nodes) = shape(scale);
    let (topology, workload) = ring(n, nodes);
    let sends = trace::in_span("workload", "schedule", || {
        workload.schedule(&RngStreams::new(seed))
    });
    let mut cfg = SimConfig::new(topology, workload.duration)
        .with_sends(sends)
        .with_seed(seed)
        .with_protocol(ProtocolConfig::new(vec![nodes; n]));
    for c in 0..n {
        cfg = cfg.with_clc_delay(c, SimDuration::from_minutes(30));
    }
    cfg
}

/// The call stream the isolated-layer probes replay.
pub fn stream(seed: u64) -> Stream {
    let (n, nodes) = shape(Scale::Full);
    let (topology, workload) = ring(n, nodes);
    let sends = workload.schedule(&RngStreams::new(seed));
    // Two timer rounds per cluster over the hour's sends.
    let per_clc = sends.len() / (2 * n);
    Stream::new(topology, sends, per_clc)
}

/// One phase of one rep.
pub fn rep(ctx: &RepCtx, phase: &str) -> RepOut {
    let mut out = RepOut::default();
    if ctx.traced {
        trace::start();
    }
    let root = trace::span("harness", "sim_mega");
    match phase {
        "setup" => {
            let t0 = Instant::now();
            let cfg = config(ctx.seed, ctx.scale);
            let scheduled = t0.elapsed().as_secs_f64();
            let sends = cfg.sends.len();
            let t_new = Instant::now();
            let world = trace::in_span("simdriver", "world_new", || FederationWorld::new(cfg));
            let built = t_new.elapsed().as_secs_f64();
            out.put("setup_s", t0.elapsed().as_secs_f64());
            out.put("simdriver.world_new_s", built);
            out.put("workload.schedule_s", scheduled);
            out.put("workload.sends_per_s", sends as f64 / scheduled);
            drop(world);
        }
        "run" => {
            let cfg = config(ctx.seed, ctx.scale);
            let (sent, late) = (cfg.sends.len() as u64, super::late_sends(&cfg));
            let region = Region::begin(Who::Myself, ctx.traced);
            let report = trace::in_span("simdriver", "run", || simdriver::run(cfg));
            region.end(&mut out, sent);
            let run_s = out.get("wall_s").expect("region recorded wall_s");
            out.put("simdriver.run_s", run_s);
            out.put(
                "simdriver.ns_per_event",
                run_s * 1e9 / report.events_processed as f64,
            );
            super::put_glue_weights(&mut out, &report);
            super::check_delivery(&mut out, report.app_sent, report.app_delivered, late);
            out.check(report.app_sent == sent, || {
                format!("report sent {} != scheduled {sent}", report.app_sent)
            });
            out.fingerprint = format!(
                "sent={} delivered={} events={} report={:016x}",
                report.app_sent,
                report.app_delivered,
                report.events_processed,
                fnv1a(format!("{report:?}").as_bytes())
            );
        }
        other => out.fail(format!("sim_mega has no phase {other:?}")),
    }
    drop(root);
    if ctx.traced {
        crate::write_trace(ctx, "sim_mega", &trace::finish());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{assert_clean, tiny_ctx};
    use super::*;

    #[test]
    fn tiny_rep_runs_both_phases_clean() {
        let ctx = tiny_ctx("sim_mega", true);
        let mut out = rep(&ctx, "setup");
        assert!(out.get("setup_s").is_some() && out.attempted == 0);
        out.merge(rep(&ctx, "run"));
        assert_clean(
            &out,
            &[
                "wall_s",
                "setup_s",
                "simdriver.world_new_s",
                "simdriver.run_s",
                "alloc.bytes_per_op",
            ],
        );
        // 8 clusters x (120 intra + 30 inter).
        assert_eq!(out.attempted, 8 * 150);
        assert_eq!(rep(&ctx, "run").fingerprint, out.fingerprint);
        assert_eq!(rep(&ctx, "nope").failed, 1);
        let _ = std::fs::remove_dir_all(&ctx.dir);
    }
}
