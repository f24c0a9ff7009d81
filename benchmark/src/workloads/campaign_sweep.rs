//! `campaign_sweep`: `hc3i-sim campaign --seeds S,S+1,… --json F` as a
//! subprocess — every scenario x topology of the adversarial library over
//! a run of consecutive seeds.
//!
//! The only workload that reaches `netsim::hostile`, `core::xport`, fault
//! → alert → rollback → replay, the delivery ledger, and per-run set-up
//! paid once per cell. `flash_crowd_hostile x paper_scale` is about three
//! quarters of its events, so per-scenario cell time is a layer row. The
//! prediction for hot-path work that keeps `hostile == None` fast is no
//! change here.
//!
//! A cell whose invariants fail is a *completed* operation: the campaign
//! found something, deterministically, and says so with exit code 1. The
//! count is the `campaign.failed_cells` row and part of the fingerprint;
//! this benchmark records it, it does not fix the cells.

use super::Region;
use crate::host::Who;
use crate::rep::{fnv1a, run_captured, RepCtx, RepOut, Scale};
use crate::stream::Stream;
use crate::trace::{self, Acc};
use campaign::scenarios::{scenarios, topologies};
use campaign::{invariants, CampaignSummary, CellOutcome};
use std::process::Command;
use std::time::{Duration, Instant};

/// Consecutive seeds per sweep: 8 x 7 scenarios x 3 topologies = 168
/// cells, a rep of about a second. One seed's 21 cells cost 0.137 s
/// +- 5 % (measured over seeds 1..40), so eight of them leave about 2 %
/// between sweeps of different seeds; what a longer sweep would buy in
/// averaging it loses in reps per run, and the reps are what absorb the
/// sandbox's slow phases.
fn seeds(seed: u64, scale: Scale) -> Vec<u64> {
    (0..scale.pick(8, 1, 1)).map(|i| seed + i).collect()
}

/// Tiny reps skip the 200-node preset.
fn topology_count(scale: Scale) -> usize {
    scale.pick(usize::MAX, usize::MAX, 2)
}

/// The call stream the isolated-layer probes replay: the 2x100 preset
/// under the first scenario's workload.
pub fn stream(seed: u64) -> Stream {
    let topos = topologies();
    let (_, topo) = topos.last().expect("library has topologies");
    let built = scenarios()[0].build(topo, seed);
    // CLC every 2 of the workload's 28 simulated minutes.
    let per_clc = built.cfg.sends.len() / 14;
    Stream::new(topo.clone(), built.cfg.sends, per_clc)
}

/// What `campaign::run_campaign` does per cell, through the same public
/// functions, with a span around each.
fn sweep_in_process(ctx: &RepCtx, out: &mut RepOut) -> CampaignSummary {
    let topos = topologies();
    let mut build = Acc::new("campaign", "Scenario::build");
    let mut run = Acc::new("simdriver", "run_hostile");
    let mut check = Acc::new("campaign", "invariants");
    let mut cells = Vec::new();
    for scenario in scenarios() {
        let t_scenario = Instant::now();
        for (topo_name, topo) in topos.iter().take(topology_count(ctx.scale)) {
            for &seed in &seeds(ctx.seed, ctx.scale) {
                let built = build.time(|| scenario.build(topo, seed));
                let (waves, gc) = (built.waves, built.gc);
                let (report, hostile) = run.time(|| simdriver::run_hostile(built.cfg));
                let violations = check.time(|| {
                    let mut v = invariants::soundness(&report);
                    v.extend(invariants::rollback_waves(&report, &waves));
                    v.extend(invariants::gc_liveness(&report, &gc));
                    v.extend(invariants::no_lost_committed_work(&hostile));
                    v.extend(invariants::delivered_record_consistency(&hostile));
                    v
                });
                cells.push(CellOutcome {
                    scenario: scenario.name,
                    topology: topo_name,
                    seed,
                    violations,
                    rollbacks: report.total_rollbacks() as u64,
                    app_sent: report.app_sent,
                    app_delivered: report.app_delivered,
                    duplicates: hostile.duplicates_injected,
                    held: hostile.messages_held,
                    reordered: hostile.messages_reordered,
                    lost: hostile.messages_lost,
                    retransmissions: hostile.retransmissions,
                    gc_runs: report
                        .clusters
                        .iter()
                        .map(|c| c.gc_before_after.len() as u64)
                        .sum(),
                    forced_clcs: report.clusters.iter().map(|c| c.forced_clcs).sum(),
                    unforced_clcs: report.clusters.iter().map(|c| c.unforced_clcs).sum(),
                    events: report.events_processed,
                });
            }
        }
        out.put(
            &format!("campaign.cell_ms.{}", scenario.name),
            t_scenario.elapsed().as_secs_f64() * 1e3,
        );
    }
    let per_cell_ms = |acc: &Acc| acc.mean_ns() / 1e6;
    out.put("campaign.build_ms_per_cell", per_cell_ms(&build));
    out.put("campaign.run_ms_per_cell", per_cell_ms(&run));
    out.put("campaign.check_ms_per_cell", per_cell_ms(&check));
    let sum = |f: fn(&CellOutcome) -> u64| cells.iter().map(f).sum::<u64>() as f64;
    out.put("campaign.events", sum(|c| c.events));
    out.put("campaign.retransmissions", sum(|c| c.retransmissions));
    out.put("campaign.rollbacks", sum(|c| c.rollbacks));
    for acc in [build, run, check] {
        acc.flush();
    }
    CampaignSummary { cells }
}

fn fingerprint(cells: usize, failing: usize, summary_json: &[u8]) -> String {
    format!(
        "cells={cells} failing={failing} summary={:016x}",
        fnv1a(summary_json)
    )
}

/// One rep.
pub fn rep(ctx: &RepCtx, _phase: &str) -> RepOut {
    let mut out = RepOut::default();
    let seed_list = seeds(ctx.seed, ctx.scale);

    if ctx.traced {
        trace::start();
        let region = Region::begin(Who::Myself, true);
        let root = trace::span("harness", "campaign_sweep");
        // Acc::time only measures while recording, and the per-cell rows
        // come from it: the traced path is the only in-process one.
        let summary = sweep_in_process(ctx, &mut out);
        drop(root);
        region.end(&mut out, summary.cells.len() as u64);
        let failing = summary.failures().len();
        out.put("campaign.failed_cells", failing as f64);
        out.fingerprint = fingerprint(summary.cells.len(), failing, summary.to_json().as_bytes());
        crate::write_trace(ctx, "campaign_sweep", &trace::finish());
        return out;
    }

    let summary_path = ctx.dir.join("summary.json");
    let mut cmd = Command::new(&ctx.sim_bin);
    cmd.arg("campaign")
        .arg("--seeds")
        .arg(
            seed_list
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(","),
        )
        .arg("--json")
        .arg(&summary_path)
        // "campaign FAILED: n/m cells" is counted below, not shown per rep.
        .stderr(std::process::Stdio::null());
    let cells = (scenarios().len() * topologies().len() * seed_list.len()) as u64;
    let region = Region::begin(Who::Children, false);
    let done = run_captured(cmd, Duration::from_secs(100));
    region.end(&mut out, cells);

    // setup_s: the per-run set-up the sweep pays once per cell. After the
    // subprocess, so this process is small when it spawns (the kernel
    // seeds a child's RSS mark with its parent's).
    let t0 = Instant::now();
    let topos = topologies();
    for scenario in scenarios() {
        for (_, topo) in &topos {
            for &seed in &seed_list {
                std::hint::black_box(scenario.build(topo, seed));
            }
        }
    }
    out.put("setup_s", t0.elapsed().as_secs_f64());
    match done {
        Err(e) => out.fail(format!("hc3i-sim campaign: {e}")),
        Ok(done) => {
            // 0 = all cells clean, 1 = completed with failing cells.
            out.check(matches!(done.status.code(), Some(0 | 1)), || {
                format!("hc3i-sim campaign exited with {}", done.status)
            });
            let text = String::from_utf8_lossy(&done.stdout);
            let lines = |tag: &str| text.lines().filter(|l| l.starts_with(tag)).count();
            let (ok, failing) = (lines("ok "), lines("FAIL "));
            out.check((ok + failing) as u64 == cells, || {
                format!("{ok} ok + {failing} FAIL lines for {cells} cells")
            });
            out.check((failing > 0) == (done.status.code() == Some(1)), || {
                format!("{failing} failing cells but exit {}", done.status)
            });
            match std::fs::read(&summary_path) {
                Ok(json) => out.fingerprint = fingerprint(ok + failing, failing, &json),
                Err(e) => out.fail(format!("no campaign summary written: {e}")),
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{assert_clean, tiny_ctx};
    use super::*;

    #[test]
    fn tiny_traced_sweep_is_clean_and_deterministic() {
        let ctx = tiny_ctx("campaign", true);
        let a = rep(&ctx, "run");
        assert_clean(
            &a,
            &[
                "wall_s",
                "campaign.build_ms_per_cell",
                "campaign.run_ms_per_cell",
                "campaign.check_ms_per_cell",
                "campaign.cell_ms.lossy_wan",
                "campaign.events",
                "campaign.failed_cells",
            ],
        );
        // 7 scenarios x 2 small topologies x 1 seed.
        assert_eq!(a.attempted, 14);
        assert_eq!(rep(&ctx, "run").fingerprint, a.fingerprint);
        let _ = std::fs::remove_dir_all(&ctx.dir);
    }

    #[test]
    fn fingerprint_names_the_failing_share() {
        assert!(fingerprint(168, 2, b"{}").starts_with("cells=168 failing=2 summary="));
    }
}
