//! `runtime_wave`: a live `runtime::Federation`, 4 clusters x 16 nodes,
//! in memory, under a **closed loop of 64 clients** — every node keeps one
//! message outstanding and sends its next on the `Delivered` of the last.
//!
//! 5 % of the messages cross clusters along the pipeline c → c+1 (no
//! wrap-around: on a ring the forced-CLC count depends on thread timing);
//! `checkpoint_now` round-robin every 5,000 deliveries and `gc_now` every
//! 50,000 keep the message logs in the paper's regime. Channel, shard
//! tick, park/unpark and the shared engine under real threads: the same
//! `hc3i-core`/`storage` code as `sim_dense`, used differently (the
//! inter-cluster log/ack/forced-CLC path, a wall clock).
//!
//! In a closed loop `wall_s` = messages x mean latency / clients, so the
//! bound on `wall_s` is a bound on mean latency; the percentiles are the
//! `runtime.lat_*` rows.

use super::{runtime_shards, Region};
use crate::host::Who;
use crate::rep::{RepCtx, RepOut, Scale};
use crate::stats;
use crate::stream::Stream;
use crate::trace::{self, Acc};
use desim::SimTime;
use hc3i_core::{AppPayload, NodeEngine};
use netsim::{ClusterSpec, LinkSpec, Mix64, NodeId, Topology};
use runtime::{Federation, RtEvent, RuntimeConfig};
use std::collections::HashMap;
use std::time::{Duration, Instant};
use workload::SendEvent;

pub(crate) const CLUSTERS: usize = 4;
pub(crate) const PER_CLUSTER: u32 = 16;
const CLIENTS: u64 = CLUSTERS as u64 * PER_CLUSTER as u64;
const INTER_SHARE: f64 = 0.05;
const CLC_EVERY: u64 = 5_000;
const GC_EVERY: u64 = 50_000;
pub(crate) const STEP_TIMEOUT: Duration = Duration::from_secs(60);

fn messages(scale: Scale) -> u64 {
    scale.pick(1_000_000, 100_000, 4_000)
}

fn blast_messages(scale: Scale) -> u64 {
    scale.pick(400_000, 50_000, 2_000)
}

fn client_node(client: u64) -> NodeId {
    NodeId::new(
        (client / PER_CLUSTER as u64) as u16,
        (client % PER_CLUSTER as u64) as u32,
    )
}

/// Destination of every message: message `k` belongs to client
/// `k % CLIENTS`, which sends its messages in `k` order.
fn destinations(seed: u64, n: u64) -> Vec<NodeId> {
    let mut rng = Mix64::new(seed ^ 0x5741_5645);
    (0..n)
        .map(|k| {
            let from = client_node(k % CLIENTS);
            let c = from.cluster.0;
            if (c as usize) < CLUSTERS - 1 && rng.chance(INTER_SHARE) {
                NodeId::new(c + 1, rng.below(PER_CLUSTER as u64) as u32)
            } else {
                // Another rank of the same cluster.
                let hop = 1 + rng.below(PER_CLUSTER as u64 - 1) as u32;
                NodeId::new(c, (from.rank + hop) % PER_CLUSTER)
            }
        })
        .collect()
}

/// The 4x16 federation's shape (links as the simulator's defaults; the
/// runtime itself has no link model).
pub(crate) fn topology() -> Topology {
    Topology::new(
        vec![
            ClusterSpec {
                nodes: PER_CLUSTER,
                intra: LinkSpec::myrinet_like(),
            };
            CLUSTERS
        ],
        LinkSpec::ethernet_like(),
    )
}

/// The call stream the isolated-layer probes replay: the wave's own
/// message list, one microsecond apart.
pub fn stream(seed: u64) -> Stream {
    let sends = destinations(seed, messages(Scale::Full))
        .into_iter()
        .enumerate()
        .map(|(k, to)| SendEvent {
            at: SimTime(k as u64 * 1_000),
            from: client_node(k as u64 % CLIENTS),
            to,
            bytes: 256,
        })
        .collect();
    Stream::new(topology(), sends, CLC_EVERY as usize)
}

/// Spawn a federation and wait until every node answers one ping round:
/// the program is constructed and its workers are running.
pub(crate) fn spawn_ready(cfg: RuntimeConfig, out: &mut RepOut) -> Federation {
    let fed = trace::in_span("runtime", "Federation::spawn", || Federation::spawn(cfg));
    let answered = trace::in_span("runtime", "quiesce(1)", || fed.quiesce(1, STEP_TIMEOUT));
    out.check(answered as u64 == CLIENTS, || {
        format!("{answered}/{CLIENTS} nodes answered the first ping round")
    });
    fed
}

/// Stop the pool, check the consistency monitor on every engine and hand
/// the final engines back.
pub(crate) fn shutdown_checked(fed: Federation, out: &mut RepOut) -> HashMap<NodeId, NodeEngine> {
    let engines = trace::in_span("runtime", "shutdown", || fed.shutdown());
    let late: u64 = engines.values().map(|e| e.late_crossings()).sum();
    out.check(late == 0, || {
        format!("{late} late crossings after shutdown")
    });
    engines
}

/// Event tallies of a run.
#[derive(Default)]
struct Tally {
    commits: u64,
    forced: u64,
    gc_reports: u64,
    alarms: u64,
}

impl Tally {
    fn note(&mut self, ev: &RtEvent) {
        match ev {
            RtEvent::Committed { forced, .. } => {
                self.commits += 1;
                self.forced += *forced as u64;
            }
            RtEvent::GcReport { .. } => self.gc_reports += 1,
            RtEvent::Delivered { .. } => {}
            // No fault is injected: any of these is a protocol failure.
            RtEvent::RolledBack { .. }
            | RtEvent::Unrecoverable { .. }
            | RtEvent::LateCrossing { .. } => self.alarms += 1,
        }
    }
}

/// One rep.
pub fn rep(ctx: &RepCtx, _phase: &str) -> RepOut {
    let mut out = RepOut::default();
    let n = messages(ctx.scale);
    if ctx.traced {
        trace::start();
    }
    let root = trace::span("harness", "runtime_wave");

    // setup_s: input generation + construction until the pool answers.
    let t_setup = Instant::now();
    let dests = destinations(ctx.seed, n);
    let t_spawn = Instant::now();
    let cfg = RuntimeConfig::manual(vec![PER_CLUSTER; CLUSTERS]).with_shards(runtime_shards());
    let fed = spawn_ready(cfg, &mut out);
    out.put("runtime.spawn_ms", t_spawn.elapsed().as_secs_f64() * 1e3);
    out.put("setup_s", t_setup.elapsed().as_secs_f64());

    let mut send_app = Acc::new("runtime", "send_app");
    let mut next_event = Acc::new("runtime", "next_event");
    let mut drain = Acc::new("runtime", "drain_events");
    let send = |acc: &mut Acc, k: u64| {
        acc.time(|| {
            fed.send_app(
                client_node(k % CLIENTS),
                dests[k as usize],
                AppPayload { bytes: 256, tag: k },
            )
        })
    };

    let mut outstanding = [(0u64, Instant::now()); CLIENTS as usize];
    let mut lat_us: Vec<f64> = Vec::with_capacity(n as usize);
    let mut tally = Tally::default();
    let (mut delivered, mut misdelivered) = (0u64, 0u64);
    let mut quarter_marks = [None; 2];

    let region = Region::begin(Who::Myself, ctx.traced);
    let wave = trace::span("harness", "closed_loop");
    let t0 = Instant::now();
    for client in 0..CLIENTS.min(n) {
        outstanding[client as usize] = (client, Instant::now());
        send(&mut send_app, client);
    }
    let mut timed_out = false;
    while delivered < n {
        let Some(first) = next_event.time(|| fed.next_event(STEP_TIMEOUT)) else {
            timed_out = true;
            break;
        };
        let rest = drain.time(|| fed.drain_events());
        for ev in std::iter::once(first).chain(rest) {
            tally.note(&ev);
            let RtEvent::Delivered { payload, .. } = ev else {
                continue;
            };
            let now = Instant::now();
            let client = (payload.tag % CLIENTS) as usize;
            let (tag, sent_at) = outstanding[client];
            // One message outstanding per client: anything but its tag is
            // a duplicate, a loss or a misroute.
            if tag != payload.tag {
                misdelivered += 1;
                continue;
            }
            lat_us.push(now.duration_since(sent_at).as_nanos() as f64 / 1e3);
            delivered += 1;
            if delivered == n / 4 {
                quarter_marks[0] = Some(now);
            } else if delivered == n - n / 4 {
                quarter_marks[1] = Some(now);
            }
            if delivered % CLC_EVERY == 0 {
                fed.checkpoint_now(((delivered / CLC_EVERY) % CLUSTERS as u64) as usize);
            }
            if delivered % GC_EVERY == 0 {
                fed.gc_now();
            }
            let next = payload.tag + CLIENTS;
            if next < n {
                outstanding[client] = (next, now);
                send(&mut send_app, next);
            } else {
                // Retire the client: a replay of its last tag must not match.
                outstanding[client].0 = u64::MAX;
            }
        }
    }
    let last_delivery = Instant::now();
    let t_quiesce = Instant::now();
    let answered = trace::in_span("runtime", "quiesce(4)", || fed.quiesce(4, STEP_TIMEOUT));
    out.put(
        "runtime.quiesce_ms",
        t_quiesce.elapsed().as_secs_f64() * 1e3,
    );
    drop(wave);
    region.end(&mut out, n);
    for ev in fed.drain_events() {
        tally.note(&ev);
    }
    if ctx.traced {
        out.put("runtime.send_app_ns", send_app.mean_ns());
    }
    for acc in [send_app, next_event, drain] {
        acc.flush();
    }

    out.check(!timed_out, || {
        format!("timed out with {delivered}/{n} delivered")
    });
    out.check(misdelivered == 0, || {
        format!("{misdelivered} deliveries did not match their client's outstanding tag")
    });
    out.check(answered as u64 == CLIENTS, || {
        format!("{answered}/{CLIENTS} nodes answered the final quiesce")
    });
    out.check(tally.alarms == 0, || {
        format!(
            "{} rollback/unrecoverable/late-crossing events",
            tally.alarms
        )
    });
    out.failed += n - delivered;

    let wall = out.get("wall_s").expect("region recorded wall_s");
    out.put("runtime.msgs_per_s", n as f64 / wall);
    out.put("runtime.commits", tally.commits as f64);
    out.put("runtime.forced_commits", tally.forced as f64);
    out.put("runtime.gc_reports", tally.gc_reports as f64);
    if let [Some(q1_end), Some(q4_start)] = quarter_marks {
        let q1 = q1_end.duration_since(t0).as_secs_f64();
        let q4 = last_delivery.duration_since(q4_start).as_secs_f64();
        out.put("runtime.wall_q4_over_q1", q4 / q1);
    }
    if !lat_us.is_empty() {
        out.put("runtime.lat_p50_us", stats::percentile(&lat_us, 50.0));
        out.put("runtime.lat_p99_us", stats::percentile(&lat_us, 99.0));
        out.check(stats::samples_beyond(lat_us.len(), 99.0) >= 10, || {
            format!("{} latency samples cannot carry a p99", lat_us.len())
        });
    }

    let t_shutdown = Instant::now();
    let engines = shutdown_checked(fed, &mut out);
    let log_peak = engines.values().map(|e| e.log().peak()).max().unwrap_or(0);
    out.put(
        "runtime.shutdown_ms",
        t_shutdown.elapsed().as_secs_f64() * 1e3,
    );
    out.put("core.log_peak_entries", log_peak as f64);
    out.fingerprint = format!("delivered={delivered}/{n} answered={answered}");

    if ctx.traced {
        blast(ctx, &mut out);
    }
    drop(root);
    if ctx.traced {
        crate::write_trace(ctx, "runtime_wave", &trace::finish());
    }
    out
}

/// The batch-drain regime (`runtime_throughput`'s shape in
/// `hc3i_baselines`): everything sent at once, then awaited. A park/spin
/// change that helps the closed loop and costs this one shows here.
fn blast(ctx: &RepCtx, out: &mut RepOut) {
    let n = blast_messages(ctx.scale);
    let dests = destinations(ctx.seed ^ 0xB1A5, n);
    let cfg = RuntimeConfig::manual(vec![PER_CLUSTER; CLUSTERS]).with_shards(runtime_shards());
    let fed = Federation::spawn(cfg);
    let _span = trace::span("harness", "blast");
    let t0 = Instant::now();
    for k in 0..n {
        fed.send_app(
            client_node(k % CLIENTS),
            dests[k as usize],
            AppPayload { bytes: 256, tag: k },
        );
    }
    let mut delivered = 0u64;
    let done = fed.wait_for(STEP_TIMEOUT, |e| {
        delivered += matches!(e, RtEvent::Delivered { .. }) as u64;
        delivered == n
    });
    out.put(
        "runtime.blast_msgs_per_s",
        n as f64 / t0.elapsed().as_secs_f64(),
    );
    out.check(done.is_some(), || {
        format!("blast timed out with {delivered}/{n} delivered")
    });
    fed.shutdown();
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{assert_clean, tiny_ctx};
    use super::*;

    #[test]
    fn destinations_follow_the_pipeline() {
        let n = 20_000;
        let d = destinations(7, n);
        assert_eq!(d, destinations(7, n));
        assert_ne!(d, destinations(8, n));
        let mut inter = 0;
        for (k, to) in d.iter().enumerate() {
            let from = client_node(k as u64 % CLIENTS);
            assert_ne!(*to, from);
            if to.cluster != from.cluster {
                assert_eq!(to.cluster.0, from.cluster.0 + 1, "pipeline only");
                inter += 1;
            }
        }
        // 5 % of the three clusters that have a successor.
        let share = inter as f64 / n as f64;
        assert!((0.03..0.045).contains(&share), "{share}");
    }

    #[test]
    fn tiny_traced_wave_is_clean() {
        let ctx = tiny_ctx("runtime_wave", true);
        let out = rep(&ctx, "run");
        assert_clean(
            &out,
            &[
                "wall_s",
                "setup_s",
                "runtime.spawn_ms",
                "runtime.quiesce_ms",
                "runtime.shutdown_ms",
                "runtime.send_app_ns",
                "runtime.msgs_per_s",
                "runtime.lat_p50_us",
                "runtime.lat_p99_us",
                "runtime.wall_q4_over_q1",
                "runtime.blast_msgs_per_s",
                "core.log_peak_entries",
            ],
        );
        assert_eq!(out.attempted, 4_000);
        assert_eq!(out.fingerprint, "delivered=4000/4000 answered=64");
        let _ = std::fs::remove_dir_all(&ctx.dir);
    }
}
