//! `hc3i-sim` — run HC3I federation simulations from config files.
//!
//! Mirrors the paper's simulator interface (§5.1): a topology file, an
//! application file and a timers file.
//!
//! ```text
//! hc3i-sim run --topology topo.conf --application app.conf --timers timers.conf
//!          [--seed N] [--fault MINUTES:CLUSTER:RANK]... [--full-ddv]
//!          [--contention none|fifo] [--replication N]
//!          [--trace protocol|full] [--trace-file PATH]
//!          [--runtime [--shards N]]
//! hc3i-sim sample-configs <dir>
//! ```
//!
//! `--runtime` drives the same workload through the live sharded
//! message-passing substrate (`runtime::Federation`) instead of the
//! discrete-event simulator, and prints the identical report format via
//! [`runtime::Federation::report`].

use desim::{RngStreams, SimDuration, SimTime};
use hc3i_core::{PiggybackMode, ProtocolConfig, ReplicationPolicy};
use netsim::{ContentionModel, NodeId};
use simdriver::{SimConfig, TraceLevel};
use std::io::{self, Write};
use std::process::ExitCode;
use workload::Workload;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("campaign") => cmd_campaign(&args[1..]),
        Some("recover") => cmd_recover(&args[1..]),
        Some("sample-configs") => cmd_sample(&args[1..]),
        _ => {
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
usage:
  hc3i-sim run --topology FILE --application FILE --timers FILE
           [--seed N] [--fault MIN:CLUSTER:RANK]... [--full-ddv]
           [--contention none|fifo] [--replication N]
           [--trace protocol|full] [--trace-file PATH]
           [--durable-dir DIR [--durable-crash-after N]]
           [--runtime [--shards N]]
  hc3i-sim campaign [--json PATH] [--seeds LIST]
  hc3i-sim recover --durable-dir DIR [--verify-prefix-of DIR]
  hc3i-sim sample-configs DIR

flags:
  --full-ddv         piggyback the whole DDV (paper §7) instead of the SN
  --contention       inter-cluster link model: none (default) or fifo
                     (transfers on a directed cluster pair serialize)
  --replication N    checkpoint-fragment replication degree, 1 to 64
                     (default 1)
  --trace LEVEL      record protocol or full trace (default off)
  --trace-file PATH  write the trace to PATH instead of stdout (implies
                     --trace protocol unless a level is given; not with
                     --trace off)
  --runtime          drive the live sharded substrate instead of the
                     simulator and report via Federation::report (faults,
                     contention and tracing are simulator-only; clusters
                     with a finite clc_timer take one explicit CLC after
                     the workload drains, and gc_timer maps to one final
                     collection)
  --shards N         worker-pool cap for --runtime (default: all cores; at
                     most one shard per cluster, each cluster on one)
  --durable-dir DIR  mirror every node's CLC store to an on-disk segment
                     log under DIR (must not already hold one); a
                     hard-killed run recovers via `hc3i-sim recover`
  --durable-crash-after N
                     abort the process (simulated power loss) once N
                     commit frames are durable (simulator-only; for
                     crash-consistency testing)

campaign flags:
  --json PATH        write the deterministic JSON summary to PATH
  --seeds LIST       override the default seed set (20040426,7,424242):
                     a comma list of seeds N and ranges A..=B, as in
                     1..=400 or 7,20040426..=20040433

recover flags:
  --durable-dir DIR  the segment-log directory to scan (read-only)
  --verify-prefix-of DIR
                     also recover DIR and require every node chain of the
                     first image to be a prefix of its chain there (the
                     crash-consistency check for fault-free runs: a
                     killed run's durable state vs its uninterrupted twin)
";

/// Why a subcommand stopped early.
enum Stop {
    /// A failure to report: one `error:` line, exit 1.
    Error(String),
    /// Whoever read our stdout left (`hc3i-sim … | head -1`): nothing
    /// more can be said, and nothing went wrong.
    PipeClosed,
}

impl From<String> for Stop {
    fn from(e: String) -> Self {
        Stop::Error(e)
    }
}

impl From<io::Error> for Stop {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::BrokenPipe => Stop::PipeClosed,
            _ => Stop::Error(format!("stdout: {e}")),
        }
    }
}

/// Run `body` with the one stdout handle reports are printed through —
/// locked once, buffered, flushed at the end — and turn how it ended into
/// the exit code.
fn with_stdout(body: impl FnOnce(&mut dyn Write) -> Result<ExitCode, Stop>) -> ExitCode {
    let mut out = io::BufWriter::new(io::stdout().lock());
    let ended = body(&mut out).and_then(|code| Ok(out.flush().map(|()| code)?));
    match ended {
        Ok(code) => code,
        Err(Stop::PipeClosed) => ExitCode::SUCCESS,
        Err(Stop::Error(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--durable-dir` of a run must be fresh: refuse one that holds a log
/// or cannot be created, before anything opens (and trims) it.
fn require_fresh(dir: &str) -> Result<(), String> {
    match storage::holds_log(std::path::Path::new(dir)) {
        Ok(false) => std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}")),
        Ok(true) => Err(format!(
            "{dir} already holds a segment log; recover it or use a fresh directory"
        )),
        Err(e) => Err(format!("{dir}: {e}")),
    }
}

fn cmd_run(args: &[String]) -> ExitCode {
    let mut topology = None;
    let mut application = None;
    let mut timers = None;
    let mut seed = 42u64;
    let mut faults: Vec<(u64, u16, u32)> = vec![];
    let mut full_ddv = false;
    let mut trace: Option<TraceLevel> = None;
    let mut trace_file: Option<String> = None;
    let mut contention = ContentionModel::Unlimited;
    let mut replication: Option<u32> = None;
    let mut live_runtime = false;
    let mut shards: Option<usize> = None;
    let mut durable_dir: Option<String> = None;
    let mut durable_crash_after: Option<u64> = None;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--runtime" => live_runtime = true,
            "--durable-dir" => {
                durable_dir = match it.next() {
                    Some(p) => Some(p.clone()),
                    None => return usage_error("--durable-dir needs a directory"),
                }
            }
            "--durable-crash-after" => {
                durable_crash_after = match it.next().and_then(|s| s.parse().ok()) {
                    Some(0) => return usage_error("--durable-crash-after needs a count >= 1"),
                    Some(n) => Some(n),
                    None => return usage_error("--durable-crash-after needs an integer"),
                }
            }
            "--shards" => {
                shards = match it.next().and_then(|s| s.parse().ok()) {
                    Some(0) => return usage_error("--shards needs a pool size >= 1"),
                    Some(s) => Some(s),
                    None => return usage_error("--shards needs an integer"),
                }
            }
            "--topology" => topology = it.next().cloned(),
            "--application" => application = it.next().cloned(),
            "--timers" => timers = it.next().cloned(),
            "--seed" => {
                seed = match it.next().and_then(|s| s.parse().ok()) {
                    Some(s) => s,
                    None => return usage_error("--seed needs an integer"),
                }
            }
            "--full-ddv" => full_ddv = true,
            "--contention" => {
                contention = match it.next().map(String::as_str) {
                    Some("none") => ContentionModel::Unlimited,
                    Some("fifo") => ContentionModel::InterClusterFifo,
                    _ => return usage_error("--contention wants none|fifo"),
                }
            }
            "--replication" => {
                replication = match it.next().and_then(|s| s.parse().ok()) {
                    Some(0) => return usage_error("--replication needs a degree >= 1"),
                    Some(d) if d > ReplicationPolicy::MAX_DEGREE => {
                        return usage_error(&format!(
                            "--replication needs a degree <= {}",
                            ReplicationPolicy::MAX_DEGREE
                        ))
                    }
                    Some(d) => Some(d),
                    None => return usage_error("--replication needs an integer"),
                }
            }
            "--trace" => {
                trace = match it.next().map(String::as_str) {
                    Some("protocol") => Some(TraceLevel::Protocol),
                    Some("full") => Some(TraceLevel::Full),
                    Some("off") => Some(TraceLevel::Off),
                    _ => return usage_error("--trace wants protocol|full|off"),
                }
            }
            "--trace-file" => {
                trace_file = match it.next() {
                    Some(p) => Some(p.clone()),
                    None => return usage_error("--trace-file needs a path"),
                }
            }
            "--fault" => {
                let spec = it.next().cloned().unwrap_or_default();
                let parsed = match spec.split(':').collect::<Vec<_>>()[..] {
                    [m, c, r] => (|| Some((m.parse().ok()?, c.parse().ok()?, r.parse().ok()?)))(),
                    _ => None,
                };
                match parsed {
                    Some(f) => faults.push(f),
                    None => return usage_error("--fault wants MINUTES:CLUSTER:RANK"),
                }
            }
            other => return usage_error(&format!("unknown flag {other}")),
        }
    }

    // A trace file without a level gets the protocol trace; beside an
    // explicit `off` it would be a file nobody asked to fill.
    let trace = match (trace, &trace_file) {
        (Some(TraceLevel::Off), Some(_)) => {
            return usage_error("--trace-file wants a trace, not --trace off")
        }
        (None, Some(_)) => TraceLevel::Protocol,
        (level, _) => level.unwrap_or_default(),
    };

    let (Some(topology), Some(application), Some(timers)) = (topology, application, timers) else {
        return usage_error("need --topology, --application and --timers");
    };

    if live_runtime {
        if !faults.is_empty() {
            return usage_error("--fault is simulator-only (scheduled in simulated time)");
        }
        if trace != TraceLevel::Off || trace_file.is_some() {
            return usage_error("--trace is simulator-only");
        }
        if contention != ContentionModel::Unlimited {
            return usage_error("--contention is simulator-only");
        }
        if durable_crash_after.is_some() {
            return usage_error("--durable-crash-after is simulator-only");
        }
    }
    if shards.is_some() && !live_runtime {
        return usage_error("--shards requires --runtime");
    }
    if durable_crash_after.is_some() && durable_dir.is_none() {
        return usage_error("--durable-crash-after requires --durable-dir");
    }

    let read = |path: &str| -> Result<String, String> {
        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
    };
    with_stdout(|out| {
        if let Some(dir) = &durable_dir {
            require_fresh(dir)?;
        }
        let topo =
            workload::parse_topology(&read(&topology)?).map_err(|e| format!("{topology}: {e}"))?;
        let app = workload::parse_application(&read(&application)?, &topo)
            .map_err(|e| format!("{application}: {e}"))?;
        let timer_spec = workload::parse_timers(&read(&timers)?, topo.num_clusters())
            .map_err(|e| format!("{timers}: {e}"))?;
        // A fault names a node of *this* topology and a time the clock can
        // hold: check both here, where the answer is a usage error, not an
        // index panic mid-run or a wrapped-around fault time.
        for &(minutes, cluster, rank) in &faults {
            // `SimDuration::from_minutes` below multiplies unchecked.
            let problem = if minutes.checked_mul(60 * 1_000_000_000).is_none() {
                Some(format!(
                    "{minutes} minutes is past the end of simulated time"
                ))
            } else {
                topo.check_node(NodeId::new(cluster, rank)).err()
            };
            if let Some(problem) = problem {
                eprintln!("error: --fault {minutes}:{cluster}:{rank}: {problem}");
                return Ok(ExitCode::from(2));
            }
        }

        let mut protocol = ProtocolConfig::new(app.cluster_sizes.clone());
        if full_ddv {
            protocol = protocol.with_piggyback(PiggybackMode::FullDdv);
        }
        if let Some(degree) = replication {
            protocol = protocol.with_replication(ReplicationPolicy::with_degree(degree));
        }
        if live_runtime {
            let report = run_live(
                &app.cluster_sizes,
                protocol,
                &app.schedule(&RngStreams::new(seed)),
                &timer_spec,
                shards,
                durable_dir.as_deref(),
            )?;
            writeln!(out, "== live substrate (sharded runtime) ==")?;
            print_report(out, &report)?;
            return Ok(ExitCode::SUCCESS);
        }
        // The simulator draws the model's sends from the seed as it
        // reaches them.
        let mut cfg = SimConfig::new(topo, app.duration)
            .with_sends(app)
            .with_seed(seed)
            .with_protocol(protocol);
        if let Some(dir) = &durable_dir {
            cfg = cfg.with_durable_dir(dir);
        }
        if let Some(n) = durable_crash_after {
            cfg = cfg.with_durable_crash_after(n);
        }
        cfg.contention = contention;
        cfg.detection_delay = timer_spec.detection_delay;
        for (c, d) in timer_spec.clc_delays.iter().enumerate() {
            cfg.clc_delays[c] = *d;
        }
        if let Some(gc) = timer_spec.gc_interval {
            cfg = cfg.with_gc_interval(gc);
        }
        for (minutes, cluster, rank) in &faults {
            cfg = cfg.with_fault(
                SimTime::ZERO + SimDuration::from_minutes(*minutes),
                NodeId::new(*cluster, *rank),
            );
        }

        cfg = cfg.with_trace(trace);
        let (report, records) = simdriver::run_traced(cfg);
        if let Some(path) = &trace_file {
            let write = || -> io::Result<()> {
                let mut f = io::BufWriter::new(std::fs::File::create(path)?);
                simdriver::trace::render(&mut f, &records)?;
                f.flush()
            };
            write().map_err(|e| format!("{path}: {e}"))?;
            eprintln!("trace: {} records -> {path}", records.len());
        } else if trace != TraceLevel::Off {
            writeln!(out, "== trace ({} records) ==", records.len())?;
            simdriver::trace::render(out, &records)?;
            writeln!(out)?;
        }
        print_report(out, &report)?;
        Ok(ExitCode::SUCCESS)
    })
}

/// Drive the parsed workload through the live sharded substrate and
/// produce the run report via [`runtime::Federation::report`] — the same
/// shape (and printer) the simulator path uses.
///
/// The schedule's sends are injected in timestamp order and every
/// delivery awaited (forced CLCs happen exactly as in simulation);
/// clusters whose timers file arms a finite `clc_timer` then take one
/// explicit unforced CLC, and a configured `gc_timer` maps to one final
/// garbage collection. Simulated-time timer replay is meaningless on a
/// wall-clock substrate, so the mapping is workload-equivalent, not
/// time-equivalent.
fn run_live(
    cluster_sizes: &[u32],
    protocol: ProtocolConfig,
    sends: &[workload::SendEvent],
    timer_spec: &workload::TimerSpec,
    shards: Option<usize>,
    durable_dir: Option<&str>,
) -> Result<runtime::RunReport, String> {
    use runtime::{Federation, RtEvent, RuntimeConfig};
    use std::time::Duration;

    const STEP_TIMEOUT: Duration = Duration::from_secs(120);

    let mut cfg = RuntimeConfig::manual(cluster_sizes.to_vec()).with_protocol(protocol);
    if let Some(s) = shards {
        cfg = cfg.with_shards(s);
    }
    if let Some(dir) = durable_dir {
        cfg = cfg.with_durable_dir(dir);
    }
    let fed = Federation::spawn(cfg);
    eprintln!(
        "runtime: {} nodes on {} shard worker(s); injecting {} sends",
        cluster_sizes.iter().map(|&n| n as usize).sum::<usize>(),
        fed.shards(),
        sends.len()
    );
    for (tag, s) in sends.iter().enumerate() {
        fed.send_app(
            s.from,
            s.to,
            hc3i_core::AppPayload {
                bytes: s.bytes,
                tag: tag as u64,
            },
        );
    }
    if !sends.is_empty() {
        let total = sends.len() as u64;
        let mut delivered = 0u64;
        fed.wait_for(STEP_TIMEOUT, |e| {
            if matches!(e, RtEvent::Delivered { .. }) {
                delivered += 1;
            }
            delivered == total
        })
        .ok_or_else(|| format!("timed out: {delivered}/{total} deliveries"))?;
    }
    // One explicit CLC per periodically-checkpointing cluster.
    for (c, delay) in timer_spec.clc_delays.iter().enumerate() {
        if !delay.is_infinite() {
            fed.checkpoint_now(c);
            fed.wait_for(
                STEP_TIMEOUT,
                |e| matches!(e, RtEvent::Committed { cluster, .. } if *cluster == c),
            )
            .ok_or_else(|| format!("timed out waiting for cluster {c}'s CLC"))?;
        }
    }
    // One final collection when the timers file configures a GC.
    if timer_spec.gc_interval.is_some() {
        let clusters = cluster_sizes.len();
        let mut reports = 0usize;
        fed.gc_now();
        fed.wait_for(STEP_TIMEOUT, |e| {
            if matches!(e, RtEvent::GcReport { .. }) {
                reports += 1;
            }
            reports == clusters
        })
        .ok_or_else(|| format!("timed out: {reports}/{clusters} GC reports"))?;
    }
    let nodes: usize = cluster_sizes.iter().map(|&n| n as usize).sum();
    let answered = fed.quiesce(4, STEP_TIMEOUT);
    if answered != nodes {
        return Err(format!(
            "quiesce barrier: {answered}/{nodes} nodes answered"
        ));
    }
    Ok(fed.report())
}

/// `hc3i-sim campaign`: run the adversarial scenario × topology × seed
/// matrix, print one line per cell, and exit nonzero on any invariant
/// violation. `--json PATH` writes the deterministic summary CI diffs
/// against the committed golden.
fn cmd_campaign(args: &[String]) -> ExitCode {
    let mut json_path: Option<String> = None;
    let mut plan = campaign::CampaignPlan::default();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => match it.next() {
                Some(p) => json_path = Some(p.clone()),
                None => return usage_error("--json needs a path"),
            },
            "--seeds" => {
                let Some(list) = it.next() else {
                    return usage_error("--seeds needs a comma-separated list");
                };
                match parse_seeds(list) {
                    Ok(seeds) => plan.seeds = seeds,
                    Err(msg) => return usage_error(&msg),
                }
            }
            other => return usage_error(&format!("unknown campaign flag {other}")),
        }
    }

    with_stdout(|out| {
        // A closed pipe stops the printing, not the campaign: its exit
        // code still says whether the cells held.
        let mut printed = Ok(());
        let summary = campaign::run_campaign(&plan, |cell| {
            if printed.is_ok() {
                printed = print_cell(out, cell);
            }
        });
        if let Some(path) = json_path {
            std::fs::write(&path, summary.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
            printed = printed.and_then(|()| writeln!(out, "summary written to {path}"));
        }
        let failures = summary.failures();
        if !failures.is_empty() {
            eprintln!(
                "campaign FAILED: {}/{} cells violated protocol invariants",
                failures.len(),
                summary.cells.len()
            );
            return Ok(ExitCode::FAILURE);
        }
        printed?;
        writeln!(out, "campaign passed: {} cells clean", summary.cells.len())?;
        Ok(ExitCode::SUCCESS)
    })
}

/// `--seeds`' comma list: seeds `N` and inclusive ranges `A..=B`, in the
/// order given.
fn parse_seeds(list: &str) -> Result<Vec<u64>, String> {
    let wrong = || format!("--seeds wants seeds and ranges like 1,2,3 or 1..=400, not {list}");
    let mut seeds = Vec::new();
    for item in list.split(',') {
        match item.split_once("..=") {
            Some((first, last)) => {
                let (first, last): (u64, u64) = match (first.parse(), last.parse()) {
                    (Ok(first), Ok(last)) => (first, last),
                    _ => return Err(wrong()),
                };
                if first > last {
                    return Err(format!("--seeds range {item} is reversed"));
                }
                seeds.extend(first..=last);
            }
            None => seeds.push(item.parse().map_err(|_| wrong())?),
        }
    }
    Ok(seeds)
}

/// One cell's line and its violations, flushed as the cell finishes:
/// progress, not a report.
fn print_cell(out: &mut dyn Write, cell: &campaign::CellOutcome) -> io::Result<()> {
    let status = if cell.violations.is_empty() {
        "ok"
    } else {
        "FAIL"
    };
    writeln!(
        out,
        "{status:4} {:<20} {:<12} seed {:<10} rollbacks {:<2} delivered {}/{} dup {} held {} reord {} lost {} rexmit {}",
        cell.scenario,
        cell.topology,
        cell.seed,
        cell.rollbacks,
        cell.app_delivered,
        cell.app_sent,
        cell.duplicates,
        cell.held,
        cell.reordered,
        cell.lost,
        cell.retransmissions,
    )?;
    for v in &cell.violations {
        writeln!(out, "       - {v}")?;
    }
    out.flush()
}

/// `hc3i-sim recover`: scan a durable segment log read-only, rebuild every
/// node's CLC chain to the last durable checkpoint, and print a
/// deterministic per-node summary. With `--verify-prefix-of`, a second
/// image is recovered and every node chain of the first must be a prefix
/// of its counterpart there — the crash-consistency check for fault-free
/// runs, where a killed run's durable state can only trail (never diverge
/// from) its uninterrupted twin.
fn cmd_recover(args: &[String]) -> ExitCode {
    let mut dir: Option<String> = None;
    let mut reference: Option<String> = None;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--durable-dir" => match it.next() {
                Some(p) => dir = Some(p.clone()),
                None => return usage_error("--durable-dir needs a directory"),
            },
            "--verify-prefix-of" => match it.next() {
                Some(p) => reference = Some(p.clone()),
                None => return usage_error("--verify-prefix-of needs a directory"),
            },
            other => return usage_error(&format!("unknown recover flag {other}")),
        }
    }
    let Some(dir) = dir else {
        return usage_error("recover needs --durable-dir");
    };

    let recover_dir = |d: &str| {
        storage::recover(std::path::Path::new(d), &hc3i_core::CheckpointCodec)
            .map_err(|e| format!("{d}: {e}"))
    };
    with_stdout(|out| {
        let image = recover_dir(&dir)?;
        writeln!(out, "== durable recovery report ==")?;
        writeln!(
            out,
            "segments scanned: {}  frames replayed: {}",
            image.segments, image.frames
        )?;
        match &image.torn {
            None => writeln!(out, "torn tail: none")?,
            Some(t) => writeln!(
                out,
                "torn tail: segment {} offset {} ({} bytes discarded)",
                t.segment, t.offset, t.discarded
            )?,
        }
        for (node, chain) in image.stores.iter() {
            let sns: Vec<String> = chain.iter().map(|e| e.meta.sn.to_string()).collect();
            let (delivered, channel) = chain.latest().map_or((0, 0), |e| {
                (e.payload.delivered.len(), e.payload.channel_state.len())
            });
            writeln!(
                out,
                "node {node}: {} CLCs, SNs [{}], latest delivered {delivered} channel {channel}",
                chain.len(),
                sns.join(" "),
            )?;
        }
        writeln!(
            out,
            "total: {} nodes, {} stored CLCs",
            image.stores.len(),
            image.total_entries()
        )?;

        if let Some(reference) = reference {
            let full = recover_dir(&reference)?;
            if image.stores.len() != full.stores.len() {
                return Err(format!(
                    "prefix check: node count differs ({} vs {})",
                    image.stores.len(),
                    full.stores.len()
                )
                .into());
            }
            // The reference ran to completion, so its garbage collector can
            // have pruned CLCs the crashed image still holds (the crash
            // froze the image before those collections). Chains therefore
            // align by SN, not by position: image entries below the
            // reference chain's floor are historic — provably collected,
            // impossible to compare — and are reported, not failed.
            let mut historic_total = 0usize;
            let mut compared_total = 0usize;
            for (node, chain) in image.stores.iter() {
                let Some(other) = full.stores.get(node) else {
                    return Err(
                        format!("prefix check: node {node} missing from {reference}").into(),
                    );
                };
                let floor = other
                    .iter()
                    .next()
                    .map(|e| e.meta.sn)
                    .ok_or_else(|| format!("prefix check: node {node} empty in {reference}"))?;
                let historic = chain.iter().take_while(|e| e.meta.sn < floor).count();
                if historic > 0 {
                    historic_total += historic;
                    writeln!(
                        out,
                        "node {node}: {historic} CLC(s) historic (GC-pruned in reference), skipped"
                    )?;
                }
                for mine in chain.iter().skip(historic) {
                    let Some(theirs) = other.iter().find(|t| t.meta.sn == mine.meta.sn) else {
                        return Err(format!(
                            "prefix check: node {node} has SN {} absent from {reference}",
                            mine.meta.sn
                        )
                        .into());
                    };
                    if mine.meta != theirs.meta || mine.payload != theirs.payload {
                        return Err(format!(
                            "prefix check: node {node} diverges at SN {}",
                            mine.meta.sn
                        )
                        .into());
                    }
                    compared_total += 1;
                }
            }
            writeln!(
                out,
                "prefix check: OK ({compared_total} CLCs are a prefix of {} in the reference \
                 image{})",
                full.total_entries(),
                if historic_total > 0 {
                    format!("; {historic_total} historic, skipped")
                } else {
                    String::new()
                }
            )?;
        }
        Ok(ExitCode::SUCCESS)
    })
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprint!("{USAGE}");
    ExitCode::from(2)
}

fn print_report(out: &mut dyn Write, report: &simdriver::RunReport) -> io::Result<()> {
    writeln!(out, "== HC3I simulation report ==")?;
    writeln!(
        out,
        "simulated time: {}  events: {}",
        report.ended_at, report.events_processed
    )?;
    writeln!(out)?;
    write!(out, "{}", report.format_app_matrix())?;
    writeln!(out)?;
    for (c, s) in report.clusters.iter().enumerate() {
        writeln!(
            out,
            "cluster {c}: CLCs committed {} (unforced {}, forced {}), stored {} (peak {})",
            s.total_clcs(),
            s.unforced_clcs,
            s.forced_clcs,
            s.stored_clcs,
            s.peak_stored_clcs
        )?;
        for (k, &(before, after)) in s.gc_before_after.iter().enumerate() {
            writeln!(out, "  gc #{:<2} stored CLCs {before} -> {after}", k + 1)?;
        }
        for (i, &(at, sn, discarded)) in s.rollbacks.iter().enumerate() {
            writeln!(
                out,
                "  rollback #{:<2} at {at} -> SN {sn} ({discarded} CLCs discarded, {} lost)",
                i + 1,
                s.work_lost[i]
            )?;
        }
    }
    writeln!(out)?;
    writeln!(
        out,
        "messages: app sent {} delivered {}, protocol {} ({} bytes), acks {}",
        report.app_sent,
        report.app_delivered,
        report.protocol_messages,
        report.protocol_bytes,
        report.ack_messages
    )?;
    if report.late_crossings > 0 || report.unrecoverable_faults > 0 {
        writeln!(
            out,
            "WARNINGS: late_crossings={} unrecoverable_faults={}",
            report.late_crossings, report.unrecoverable_faults
        )?;
    }
    Ok(())
}

fn cmd_sample(args: &[String]) -> ExitCode {
    let Some(dir) = args.first() else {
        return usage_error("sample-configs needs a directory");
    };
    let dir = std::path::Path::new(dir);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let files = [
        (
            "topology.conf",
            "# The paper's reference federation (section 5.2)\n\
             clusters 2\n\
             nodes 100 100\n\
             intra 0 10us 80Mbps\n\
             intra 1 10us 80Mbps\n\
             inter 0 1 150us 100Mbps\n\
             mtbf inf\n",
        ),
        (
            "application.conf",
            "# Simulation on cluster 0 feeding a trace processor on cluster 1\n\
             duration 10h\n\
             payload 1024\n\
             compute_mean 0 120s\n\
             compute_mean 1 140s\n\
             pattern 0 0.95 0.05\n\
             pattern 1 0.005 0.995\n",
        ),
        (
            "timers.conf",
            "# Checkpoint every 30 minutes in cluster 0; never in cluster 1;\n\
             # collect garbage every 2 hours.\n\
             clc_timer 0 30m\n\
             clc_timer 1 inf\n\
             gc_timer 2h\n\
             detection_delay 100ms\n",
        ),
    ];
    with_stdout(|out| {
        // A reader that left stops the printing, not the writing.
        let mut printed = Ok(());
        for (name, content) in files {
            if let Err(e) = std::fs::write(dir.join(name), content) {
                eprintln!("error writing {name}: {e}");
                return Ok(ExitCode::FAILURE);
            }
            if printed.is_ok() {
                printed = writeln!(out, "wrote {}", dir.join(name).display());
            }
        }
        printed?;
        Ok(ExitCode::SUCCESS)
    })
}
