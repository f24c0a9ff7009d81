//! `sim_dense`: the paper's reference federation (§5.2, Table 1: 2x100
//! nodes, 95/5 % traffic, CLC every 30 min in cluster 0, GC every 2 h)
//! from the three config files, run by `hc3i-sim run` as a subprocess.
//!
//! Small working set, long steady state: the per-event path (`desim` pop
//! → `simdriver` dispatch → `NodeEngine::handle` → `netsim` send) is
//! nearly all of the wall and construction is nil, so a hot-path
//! optimisation shows here and nowhere else this cleanly.

use super::Region;
use crate::host::Who;
use crate::rep::{fnv1a, run_captured, RepCtx, RepOut, Scale};
use crate::stream::Stream;
use crate::trace;
use desim::RngStreams;
use hc3i_core::ProtocolConfig;
use simdriver::{FederationWorld, SimConfig};
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};
use workload::Workload as _;

/// Simulated application hours. 250 h is ~1.4 M sends and ~5.8 M events:
/// a second and a half of steady state per rep, so a run's time budget
/// holds enough reps for a steady median.
fn hours(scale: Scale) -> u64 {
    scale.pick(250, 20, 1)
}

/// The three files `hc3i-sim sample-configs` writes, at `hours`.
fn config_files(hours: u64) -> [(&'static str, String); 3] {
    [
        (
            "topology.conf",
            "clusters 2\nnodes 100 100\nintra 0 10us 80Mbps\nintra 1 10us 80Mbps\n\
             inter 0 1 150us 100Mbps\nmtbf inf\n"
                .to_string(),
        ),
        (
            "application.conf",
            format!(
                "duration {hours}h\npayload 1024\ncompute_mean 0 120s\ncompute_mean 1 140s\n\
                 pattern 0 0.95 0.05\npattern 1 0.005 0.995\n"
            ),
        ),
        (
            "timers.conf",
            "clc_timer 0 30m\nclc_timer 1 inf\ngc_timer 2h\ndetection_delay 100ms\n".to_string(),
        ),
    ]
}

fn write_configs(dir: &Path, hours: u64) {
    for (name, text) in config_files(hours) {
        std::fs::write(dir.join(name), text).expect("write config file");
    }
}

/// What `hc3i-sim run` does between reading its files and calling the
/// simulator, through the same public functions.
fn load(dir: &Path, seed: u64) -> SimConfig {
    let read = |name: &str| std::fs::read_to_string(dir.join(name)).expect("read config file");
    let (topo_text, app_text, timers_text) = (
        read("topology.conf"),
        read("application.conf"),
        read("timers.conf"),
    );
    let topo = trace::in_span("workload", "parse_topology", || {
        workload::parse_topology(&topo_text).expect("topology parses")
    });
    let app = trace::in_span("workload", "parse_application", || {
        workload::parse_application(&app_text, &topo).expect("application parses")
    });
    let timers = trace::in_span("workload", "parse_timers", || {
        workload::parse_timers(&timers_text, topo.num_clusters()).expect("timers parse")
    });
    let sends = trace::in_span("workload", "schedule", || {
        app.schedule(&RngStreams::new(seed))
    });
    let mut cfg = SimConfig::new(topo, app.duration)
        .with_sends(sends)
        .with_seed(seed)
        .with_protocol(ProtocolConfig::new(app.cluster_sizes.clone()));
    cfg.detection_delay = timers.detection_delay;
    cfg.clc_delays = timers.clc_delays;
    cfg.gc_interval = timers.gc_interval;
    cfg
}

/// The call stream the isolated-layer probes replay.
pub fn stream(seed: u64) -> Stream {
    stream_at(seed, Scale::Full)
}

/// The reference federation's call stream at `scale`.
pub fn stream_at(seed: u64, scale: Scale) -> Stream {
    let files = config_files(hours(scale));
    let topo = workload::parse_topology(&files[0].1).expect("topology parses");
    let app = workload::parse_application(&files[1].1, &topo).expect("application parses");
    let sends = app.schedule(&RngStreams::new(seed));
    // One CLC per 30 simulated minutes of this send rate.
    let per_clc = (sends.len() as u64 / (hours(scale) * 2)).max(1) as usize;
    Stream::new(topo, sends, per_clc)
}

fn sim_command(ctx: &RepCtx, dir: &Path) -> Command {
    let mut cmd = Command::new(&ctx.sim_bin);
    cmd.arg("run")
        .arg("--topology")
        .arg(dir.join("topology.conf"))
        .arg("--application")
        .arg(dir.join("application.conf"))
        .arg("--timers")
        .arg(dir.join("timers.conf"))
        .arg("--seed")
        .arg(ctx.seed.to_string());
    cmd
}

/// `(app sent, app delivered, events)` from the report `hc3i-sim run`
/// prints.
fn parse_report(stdout: &str) -> Option<(u64, u64, u64)> {
    let word_after = |line: &str, key: &str| -> Option<u64> {
        let rest = &line[line.find(key)? + key.len()..];
        rest.split(|c: char| !c.is_ascii_digit())
            .find(|w| !w.is_empty())?
            .parse()
            .ok()
    };
    let events = stdout
        .lines()
        .find(|l| l.starts_with("simulated time:"))
        .and_then(|l| word_after(l, "events:"))?;
    let messages = stdout.lines().find(|l| l.starts_with("messages:"))?;
    Some((
        word_after(messages, "app sent")?,
        word_after(messages, "delivered")?,
        events,
    ))
}

const SUBPROCESS_TIMEOUT: Duration = Duration::from_secs(100);

/// Spawn the CLI on the written configs, fingerprint its report, and
/// return its `(app sent, app delivered)`.
fn run_cli(ctx: &RepCtx, out: &mut RepOut) -> Option<(u64, u64)> {
    match run_captured(sim_command(ctx, &ctx.dir), SUBPROCESS_TIMEOUT) {
        Err(e) => {
            out.fail(format!("hc3i-sim run: {e}"));
            None
        }
        Ok(done) => {
            out.check(done.status.success(), || {
                format!("hc3i-sim run exited with {}", done.status)
            });
            let parsed = parse_report(&String::from_utf8_lossy(&done.stdout));
            match parsed {
                None => out.fail("hc3i-sim run printed no report"),
                Some((sent, delivered, events)) => {
                    out.fingerprint = format!(
                        "sent={sent} delivered={delivered} events={events} stdout={:016x}",
                        fnv1a(&done.stdout)
                    );
                }
            }
            parsed.map(|(sent, delivered, _)| (sent, delivered))
        }
    }
}

/// The CLI's counts against the schedule the harness generates from the
/// same files and seed.
fn check_against_schedule(
    out: &mut RepOut,
    (cli_sent, cli_delivered): (u64, u64),
    (sent, late): (u64, u64),
) {
    out.check(cli_sent == sent, || {
        format!("CLI sent {cli_sent}, the same files schedule {sent}")
    });
    super::check_delivery(out, cli_sent, cli_delivered, late);
}

/// One rep.
pub fn rep(ctx: &RepCtx, _phase: &str) -> RepOut {
    let mut out = RepOut::default();
    let hours = hours(ctx.scale);

    if !ctx.traced {
        // The CLI first, while this process is still small: the kernel
        // seeds a child's RSS mark with its parent's.
        write_configs(&ctx.dir, hours);
        let region = Region::begin(Who::Children, false);
        let ran = run_cli(ctx, &mut out);
        region.end(&mut out, ran.map_or(0, |(sent, _)| sent));

        // setup_s: everything `hc3i-sim run` does before its first event,
        // on the same inputs, in this fresh process.
        let t0 = Instant::now();
        let cfg = load(&ctx.dir, ctx.seed);
        let (sent, late) = (cfg.sends.len() as u64, super::late_sends(&cfg));
        drop(FederationWorld::new(cfg));
        out.put("setup_s", t0.elapsed().as_secs_f64());
        if let Some((cli_sent, cli_delivered)) = ran {
            check_against_schedule(&mut out, (cli_sent, cli_delivered), (sent, late));
        }
        return out;
    }

    // Traced: the same path in-process, a span around each layer call.
    write_configs(&ctx.dir, hours);
    trace::start();
    let region = Region::begin(Who::Myself, true);
    let root = trace::span("harness", "sim_dense");
    let cfg = load(&ctx.dir, ctx.seed);
    let (sent, late) = (cfg.sends.len() as u64, super::late_sends(&cfg));
    let t_run = Instant::now();
    let report = trace::in_span("simdriver", "run", || simdriver::run(cfg));
    let run_s = t_run.elapsed().as_secs_f64();
    drop(root);
    region.end(&mut out, sent);
    let inproc_s = out.get("wall_s").expect("region recorded wall_s");
    let spans = trace::finish();

    // Construction alone (run() did its own inside its span), from a
    // second load so that no copy of the schedule is made while timing.
    let again = load(&ctx.dir, ctx.seed);
    let t_new = Instant::now();
    drop(FederationWorld::new(again));
    out.put("simdriver.world_new_s", t_new.elapsed().as_secs_f64());

    let span_s = |name: &str| {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e9)
            .sum::<f64>()
    };
    let schedule_s = span_s("schedule");
    out.put(
        "workload.parse_ms",
        (span_s("parse_topology") + span_s("parse_application") + span_s("parse_timers")) * 1e3,
    );
    out.put("workload.schedule_s", schedule_s);
    out.put("workload.sends_per_s", sent as f64 / schedule_s);
    out.put("simdriver.run_s", run_s);
    out.put(
        "simdriver.ns_per_event",
        run_s * 1e9 / report.events_processed as f64,
    );

    super::put_glue_weights(&mut out, &report);

    super::check_delivery(&mut out, report.app_sent, report.app_delivered, late);
    out.fingerprint = format!(
        "sent={} delivered={} events={}",
        report.app_sent, report.app_delivered, report.events_processed
    );

    if ctx.scale != Scale::Tiny {
        // The CLI's own cost: the subprocess on the same inputs minus the
        // in-process path, and its floor on a one-minute run.
        let in_process_fp = out.fingerprint.clone();
        let t_cli = Instant::now();
        if let Some(counts) = run_cli(ctx, &mut out) {
            out.put("cli.overhead_s", t_cli.elapsed().as_secs_f64() - inproc_s);
            check_against_schedule(&mut out, counts, (sent, late));
            let cli_fp = out.fingerprint.clone();
            out.check(cli_fp.starts_with(&in_process_fp), || {
                format!("CLI {cli_fp} vs in-process {in_process_fp}")
            });
        }
        let floor_dir = ctx.dir.join("floor");
        std::fs::create_dir_all(&floor_dir).expect("create floor dir");
        for (name, text) in config_files(hours) {
            let text = text.replace(&format!("duration {hours}h"), "duration 1m");
            std::fs::write(floor_dir.join(name), text).expect("write config file");
        }
        match run_captured(sim_command(ctx, &floor_dir), SUBPROCESS_TIMEOUT) {
            Ok(done) if done.status.success() => {
                out.put("cli.startup_ms", done.wall.as_secs_f64() * 1e3)
            }
            Ok(done) => out.fail(format!("1-minute hc3i-sim run exited with {}", done.status)),
            Err(e) => out.fail(format!("1-minute hc3i-sim run: {e}")),
        }
    }
    crate::write_trace(ctx, "sim_dense", &spans);
    out
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{assert_clean, tiny_ctx};
    use super::*;

    #[test]
    fn tiny_traced_rep_is_clean_and_deterministic() {
        let ctx = tiny_ctx("sim_dense", true);
        let a = rep(&ctx, "run");
        assert_clean(
            &a,
            &[
                "wall_s",
                "workload.parse_ms",
                "workload.schedule_s",
                "simdriver.run_s",
                "simdriver.ns_per_event",
                "simdriver.world_new_s",
                "alloc.count_per_op",
            ],
        );
        let b = rep(&ctx, "run");
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.attempted, b.attempted);
        let _ = std::fs::remove_dir_all(&ctx.dir);
    }

    #[test]
    fn report_parser_reads_the_cli_format() {
        let text = "== HC3I simulation report ==\n\
                    simulated time: 36000.000000000s  events: 75133\n\n\
                    cluster 0: CLCs committed 20 (unforced 20, forced 0), stored 1 (peak 5)\n\n\
                    messages: app sent 5573 delivered 5570, protocol 9 (1 bytes), acks 3\n";
        assert_eq!(parse_report(text), Some((5573, 5570, 75133)));
        assert_eq!(parse_report("error: nope\n"), None);
    }

    #[test]
    fn stream_has_the_reference_shape() {
        let s = stream_at(7, Scale::Tiny);
        assert_eq!(s.cluster_sizes, vec![100, 100]);
        assert!(!s.sends.is_empty() && s.sends_per_clc >= 1);
    }
}
