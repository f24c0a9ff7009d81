//! The workloads. Each is a function from a [`RepCtx`] to a [`RepOut`]:
//! generate inputs from the seed, build the program (that is `setup_s`),
//! run the timed region, check the outputs.
//!
//! Five carry the end-to-end metrics ([`ALL`]). The sixth,
//! `durable_commit`, is measured in every traced run instead
//! ([`LAYER_HOMES`]): its wall time is the sandbox disk's fsync latency
//! times a constant, and that latency drifted by 1.7x within an hour of
//! measuring it, so a bound on it would judge the disk, not the code.

pub mod campaign_sweep;
pub mod durable_commit;
pub mod recovery_replay;
pub mod runtime_wave;
pub mod sim_dense;
pub mod sim_mega;

use crate::alloc;
use crate::host::{own_peak_rss_mib, rusage, Rusage, Who};
use crate::metrics::Times;
use crate::rep::{RepCtx, RepOut, Scale};
use crate::stream::Stream;
use std::time::Instant;

/// Seed of the committed expectations (the paper's publication date, as
/// everywhere else in the repository).
pub const DEFAULT_SEED: u64 = 20040426;

/// A named workload.
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it is here, in one line (`BENCHMARK.json`'s `why`).
    pub why: &'static str,
    /// A rep is one fresh child per phase, results merged in order.
    /// Everything but `sim_mega` is the single phase `"run"`.
    pub phases: &'static [&'static str],
    /// Run one phase of one rep.
    pub run: RunFn,
    /// The call stream the isolated-layer probes replay in its traced run.
    pub stream: fn(u64) -> Stream,
    /// Which rep's time stands for a run.
    pub times: Times,
}

/// One named phase of one rep.
pub type RunFn = fn(&RepCtx, &str) -> RepOut;

/// The workloads that carry the end-to-end metrics, in reporting order.
pub const ALL: [Workload; 5] = [
    Workload {
        name: "sim_dense",
        why: "Paper's 2x100 reference federation via hc3i-sim run: small working set, long steady state, so the per-event hot path is nearly all of the wall and construction is nil.",
        phases: &["run"],
        run: sim_dense::rep,
        stream: sim_dense::stream,
        times: Times::Fastest,
    },
    Workload {
        name: "sim_mega",
        why: "512 clusters x 100 nodes in-process: construction, first-touch faults and cache misses dominate and the hot path is a minority; the prediction for hot-path work is no change here.",
        phases: &["setup", "run"],
        run: sim_mega::rep,
        stream: sim_mega::stream,
        times: Times::Fastest,
    },
    Workload {
        name: "campaign_sweep",
        why: "hc3i-sim campaign over 168 hostile cells: the only path through netsim::hostile, the reliable transport, fault-alert-rollback-replay and per-run set-up paid per cell.",
        phases: &["run"],
        run: campaign_sweep::rep,
        stream: campaign_sweep::stream,
        times: Times::Fastest,
    },
    Workload {
        name: "runtime_wave",
        why: "Live 4x16 threaded federation under a closed loop of 64 clients: channel, shard tick and park/unpark around the same engine the simulator drives, on a wall clock.",
        phases: &["run"],
        run: runtime_wave::rep,
        stream: runtime_wave::stream,
        times: Times::FirstQuartile,
    },
    Workload {
        name: "recovery_replay",
        why: "storage::recover over a 2048-node segment log: the durable layer read instead of written, so a frame-format change that helps commits and hurts recovery or disk size shows.",
        phases: &["run"],
        run: recovery_replay::rep,
        // A recovery makes no sends: the reference federation stands in.
        stream: |seed| sim_dense::stream_at(seed, Scale::Probe),
        times: Times::Fastest,
    },
];

/// Where each layer's rows come from in the traced run of a workload that
/// does not reach the layer itself: a traced rep of the layer's home
/// workload at this size, run in the probe child. `durable_commit` runs
/// at full size (its p99 needs the 1,000 samples); `sim_mega` is nobody's
/// home: its rows are `sim_dense`'s at another size.
pub const LAYER_HOMES: [(&str, RunFn, Scale); 5] = [
    ("sim_dense", sim_dense::rep, Scale::Probe),
    ("campaign_sweep", campaign_sweep::rep, Scale::Probe),
    ("runtime_wave", runtime_wave::rep, Scale::Probe),
    ("durable_commit", durable_commit::rep, Scale::Full),
    ("recovery_replay", recovery_replay::rep, Scale::Probe),
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// The timed region of a rep: wall clock plus the kernel's accounting of
/// the measured process over the same interval, and (traced) the
/// allocation counters.
pub struct Region {
    who: Who,
    traced: bool,
    t0: Instant,
    ru0: Rusage,
    alloc0: (u64, u64),
}

impl Region {
    /// Start timing. `who` is the measured process: this one, or the
    /// `hc3i-sim` child about to be spawned and waited for.
    pub fn begin(who: Who, traced: bool) -> Region {
        if traced {
            alloc::enable(true);
        }
        Region {
            who,
            traced,
            alloc0: alloc::snapshot(),
            ru0: rusage(who),
            t0: Instant::now(),
        }
    }

    /// Stop timing and record `wall_s`, `peak_rss_mb` and the `proc.*`
    /// rows; traced, also the `alloc.*` rows over `ops` operations.
    pub fn end(self, out: &mut RepOut, ops: u64) {
        let wall = self.t0.elapsed();
        let used = rusage(self.who).since(&self.ru0);
        let alloc1 = alloc::snapshot();
        if self.traced {
            alloc::enable(false);
        }
        out.attempted += ops;
        out.put("wall_s", wall.as_secs_f64());
        out.put(
            "peak_rss_mb",
            match self.who {
                Who::Myself => own_peak_rss_mib(),
                Who::Children => used.peak_rss_mib,
            },
        );
        out.put("proc.user_cpu_s", used.user.as_secs_f64());
        out.put("proc.sys_cpu_s", used.sys.as_secs_f64());
        out.put("proc.minor_faults", used.minor_faults as f64);
        out.put("proc.vol_ctx_switches", used.vol_ctx_switches as f64);
        if self.traced {
            let ops = ops.max(1) as f64;
            out.put(
                "alloc.count_per_op",
                (alloc1.0 - self.alloc0.0) as f64 / ops,
            );
            out.put(
                "alloc.bytes_per_op",
                (alloc1.1 - self.alloc0.1) as f64 / ops,
            );
        }
    }
}

/// Sends the schedule issues in the last simulated second: the horizon
/// may cut them off in flight, so up to this many may stay undelivered in
/// a correct run.
pub fn late_sends(cfg: &simdriver::SimConfig) -> u64 {
    let horizon = cfg.horizon();
    let margin = desim::SimDuration::from_secs(1);
    cfg.sends
        .iter()
        .filter(|s| s.at.saturating_add(margin) >= horizon)
        .count() as u64
}

/// Check a simulator run delivered everything it could.
pub fn check_delivery(out: &mut RepOut, sent: u64, delivered: u64, late: u64) {
    out.check(delivered <= sent && sent - delivered <= late, || {
        format!("app delivered {delivered} of {sent} sent ({late} sent in the last second)")
    });
}

/// How often a simulated event is a wire message or an application send:
/// the weights of `simdriver.glue_ns_per_event` (internal rows, not
/// reported).
pub fn put_glue_weights(out: &mut RepOut, report: &simdriver::RunReport) {
    let events = report.events_processed.max(1) as f64;
    let wire = report.app_sent + report.protocol_messages + report.ack_messages;
    out.put("sim.wire_msgs_per_event", wire as f64 / events);
    out.put("sim.app_sends_per_event", report.app_sent as f64 / events);
}

/// Usable cores the runtime workloads size their shard pool from: one
/// core stays with the load generator, and more than three shards on a
/// small box would time the scheduler, not the runtime.
pub fn runtime_shards() -> usize {
    crate::host::nproc().saturating_sub(1).clamp(1, 3)
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use std::path::PathBuf;

    /// A tiny-scale context over a fresh directory under the system temp
    /// dir (unit tests are not benchmark runs; they may write there).
    pub fn tiny_ctx(tag: &str, traced: bool) -> RepCtx {
        let dir = std::env::temp_dir().join(format!("hc3i-bm-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        RepCtx {
            seed: 7,
            scale: Scale::Tiny,
            dir,
            // Tiny reps never spawn the CLI: tests do not build it.
            sim_bin: PathBuf::from("/nonexistent/hc3i-sim"),
            traced,
            trace_file: None,
        }
    }

    /// Assert a rep produced a clean result carrying `names`.
    pub fn assert_clean(out: &RepOut, names: &[&str]) {
        assert!(out.errors.is_empty(), "{:?}", out.errors);
        assert_eq!(out.failed, 0);
        assert!(out.attempted > 0);
        assert!(!out.fingerprint.is_empty());
        for n in names {
            let v = out.get(n).unwrap_or_else(|| panic!("{n} not measured"));
            assert!(v.is_finite() && v >= 0.0, "{n} = {v}");
        }
    }
}
