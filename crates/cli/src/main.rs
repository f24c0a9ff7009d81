//! `hc3i-sim` — run HC3I federation simulations from config files.
//!
//! Mirrors the paper's simulator interface (§5.1): a topology file, an
//! application file and a timers file. [`USAGE`] lists the subcommands
//! and their flags.
//!
//! Each subcommand is a parse of its arguments (`parse_run`,
//! `parse_campaign`, `parse_recover`: no I/O, an `Err` is a usage error)
//! and a run of what was parsed. `--runtime` drives the same workload
//! through the live sharded message-passing substrate
//! (`runtime::Federation`) instead of the discrete-event simulator, and
//! prints the identical report format via [`runtime::Federation::report`].

use desim::{RngStreams, SimDuration, SimTime};
use hc3i_core::{PiggybackMode, ProtocolConfig, ReplicationPolicy};
use netsim::{ContentionModel, NodeId};
use simdriver::{SimConfig, TraceLevel};
use std::fmt::Display;
use std::io::{self, Write};
use std::ops::RangeInclusive;
use std::process::ExitCode;
use std::str::FromStr;
use workload::Workload;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, args) = args
        .split_first()
        .map_or(("", &[][..]), |(command, rest)| (command.as_str(), rest));
    let ran = match command {
        "run" => parse_run(args).map(cmd_run),
        "campaign" => parse_campaign(args).map(cmd_campaign),
        "recover" => parse_recover(args).map(cmd_recover),
        "sample-configs" => args
            .first()
            .map(|dir| cmd_sample(dir))
            .ok_or_else(|| "sample-configs needs a directory".to_string()),
        _ => {
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    ran.unwrap_or_else(|e| usage_error(&e))
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

/// A subcommand's arguments, read flag by flag: the reader takes the
/// value after a flag, reads it, and says what is wrong with it, naming
/// the flag read last.
struct Flags<'a> {
    args: std::slice::Iter<'a, String>,
    flag: &'a str,
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Self {
        Flags {
            args: args.iter(),
            flag: "",
        }
    }

    /// The next flag, if any is left.
    fn next(&mut self) -> Option<&'a str> {
        self.flag = self.args.next()?;
        Some(self.flag)
    }

    /// The flag's value as `read` takes it; `{flag} {error}` when it is
    /// missing or `read` refuses it.
    fn read<T>(&mut self, error: &str, read: impl FnOnce(&str) -> Option<T>) -> Result<T, String> {
        let value = self.args.next().and_then(|v| read(v));
        value.ok_or_else(|| format!("{} {error}", self.flag))
    }

    /// The flag's value, whatever it is.
    fn value(&mut self, what: &str) -> Result<String, String> {
        self.read(&format!("needs {what}"), |v| Some(v.to_owned()))
    }

    /// The flag's value as one of `choices`, by name.
    fn choice<T: Copy>(&mut self, choices: &[(&str, T)]) -> Result<T, String> {
        let names: Vec<&str> = choices.iter().map(|c| c.0).collect();
        let error = format!("wants {}", names.join("|"));
        self.read(&error, |v| choices.iter().find(|c| c.0 == v).map(|c| c.1))
    }

    /// The flag's value as a number.
    fn number<T: FromStr>(&mut self) -> Result<T, String> {
        self.read("needs an integer", |v| v.parse().ok())
    }

    /// The flag's value as a `what` from 1 to `max`.
    fn count<T>(&mut self, what: &str, max: T) -> Result<T, String>
    where
        T: FromStr + PartialOrd + From<u8> + Display,
    {
        let n = self.number()?;
        if n < T::from(1) {
            return Err(format!("{} needs a {what} >= 1", self.flag));
        }
        if n > max {
            return Err(format!("{} needs a {what} <= {max}", self.flag));
        }
        Ok(n)
    }
}

const CONTENTION: [(&str, ContentionModel); 2] = [
    ("none", ContentionModel::Unlimited),
    ("fifo", ContentionModel::InterClusterFifo),
];

const TRACE_LEVELS: [(&str, TraceLevel); 3] = [
    ("protocol", TraceLevel::Protocol),
    ("full", TraceLevel::Full),
    ("off", TraceLevel::Off),
];

/// `hc3i-sim run`'s arguments, checked against each other.
#[derive(Default)]
struct RunArgs {
    topology: String,
    application: String,
    timers: String,
    seed: u64,
    /// `(minutes, cluster, rank)`, checked against the topology once it
    /// is read.
    faults: Vec<(u64, u16, u32)>,
    piggyback: PiggybackMode,
    /// The checkpoint-fragment replication degree.
    degree: u32,
    contention: ContentionModel,
    trace: TraceLevel,
    trace_file: Option<String>,
    durable_dir: Option<String>,
    crash_after: Option<u64>,
    live_runtime: bool,
    shards: Option<usize>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut a = RunArgs {
        seed: 42,
        degree: 1,
        ..RunArgs::default()
    };
    let (mut topology, mut application, mut timers, mut trace) = (None, None, None, None);
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--topology" => topology = Some(flags.value("a file")?),
            "--application" => application = Some(flags.value("a file")?),
            "--timers" => timers = Some(flags.value("a file")?),
            "--seed" => a.seed = flags.number()?,
            "--fault" => a
                .faults
                .push(flags.read("wants MINUTES:CLUSTER:RANK", fault)?),
            "--full-ddv" => a.piggyback = PiggybackMode::FullDdv,
            "--replication" => a.degree = flags.count("degree", ReplicationPolicy::MAX_DEGREE)?,
            "--contention" => a.contention = flags.choice(&CONTENTION)?,
            "--trace" => trace = Some(flags.choice(&TRACE_LEVELS)?),
            "--trace-file" => a.trace_file = Some(flags.value("a path")?),
            "--durable-dir" => a.durable_dir = Some(flags.value("a directory")?),
            "--durable-crash-after" => a.crash_after = Some(flags.count("count", u64::MAX)?),
            "--runtime" => a.live_runtime = true,
            "--shards" => a.shards = Some(flags.count("pool size", usize::MAX)?),
            other => return Err(format!("unknown flag {other}")),
        }
    }

    // A trace file without a level gets the protocol trace; beside an
    // explicit `off` it would be a file nobody asked to fill.
    a.trace = match (trace, &a.trace_file) {
        (Some(TraceLevel::Off), Some(_)) => {
            return Err("--trace-file wants a trace, not --trace off".into())
        }
        (None, Some(_)) => TraceLevel::Protocol,
        (level, _) => level.unwrap_or_default(),
    };
    let (Some(topology), Some(application), Some(timers)) = (topology, application, timers) else {
        return Err("need --topology, --application and --timers".into());
    };
    (a.topology, a.application, a.timers) = (topology, application, timers);

    if a.live_runtime {
        if !a.faults.is_empty() {
            return Err("--fault is simulator-only (scheduled in simulated time)".into());
        }
        if a.trace != TraceLevel::Off || a.trace_file.is_some() {
            return Err("--trace is simulator-only".into());
        }
        if a.contention != ContentionModel::Unlimited {
            return Err("--contention is simulator-only".into());
        }
        if a.crash_after.is_some() {
            return Err("--durable-crash-after is simulator-only".into());
        }
    }
    if a.shards.is_some() && !a.live_runtime {
        return Err("--shards requires --runtime".into());
    }
    if a.crash_after.is_some() && a.durable_dir.is_none() {
        return Err("--durable-crash-after requires --durable-dir".into());
    }
    Ok(a)
}

/// `--fault`'s `MINUTES:CLUSTER:RANK`.
fn fault(spec: &str) -> Option<(u64, u16, u32)> {
    match spec.split(':').collect::<Vec<_>>()[..] {
        [m, c, r] => Some((m.parse().ok()?, c.parse().ok()?, r.parse().ok()?)),
        _ => None,
    }
}

fn cmd_run(a: RunArgs) -> ExitCode {
    let read = |path: &str| -> Result<String, String> {
        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
    };
    with_stdout(|out| {
        if let Some(dir) = &a.durable_dir {
            require_fresh(dir)?;
        }
        let topo = workload::parse_topology(&read(&a.topology)?)
            .map_err(|e| format!("{}: {e}", a.topology))?;
        let app = workload::parse_application(&read(&a.application)?, &topo)
            .map_err(|e| format!("{}: {e}", a.application))?;
        let timer_spec = workload::parse_timers(&read(&a.timers)?, topo.num_clusters())
            .map_err(|e| format!("{}: {e}", a.timers))?;
        let protocol = ProtocolConfig::new(app.cluster_sizes.clone())
            .with_piggyback(a.piggyback)
            .with_replication(ReplicationPolicy::with_degree(a.degree));
        if a.live_runtime {
            let report = run_live(
                &app.cluster_sizes,
                protocol,
                &app.schedule(&RngStreams::new(a.seed)),
                &timer_spec,
                &a,
            )?;
            writeln!(out, "== live substrate (sharded runtime) ==")?;
            print_report(out, &report)?;
            return Ok(ExitCode::SUCCESS);
        }
        // The simulator draws the model's sends from the seed as it
        // reaches them.
        let mut cfg = SimConfig::new(topo, app.duration)
            .with_sends(app)
            .with_seed(a.seed)
            .with_protocol(protocol)
            .with_trace(a.trace);
        cfg.contention = a.contention;
        cfg.durable_dir = a.durable_dir.map(Into::into);
        cfg.durable_crash_after = a.crash_after;
        cfg.clc_delays = timer_spec.clc_delays;
        cfg.gc_interval = timer_spec.gc_interval;
        cfg.detection_delay = timer_spec.detection_delay;
        // A fault names a node of *this* topology and a time the clock can
        // hold: check both here, where the answer is a usage error, not an
        // index panic mid-run or a wrapped-around fault time.
        for &(minutes, cluster, rank) in &a.faults {
            let node = NodeId::new(cluster, rank);
            // `SimDuration::from_minutes` multiplies unchecked.
            let problem = if minutes.checked_mul(60 * 1_000_000_000).is_none() {
                format!("{minutes} minutes is past the end of simulated time")
            } else if let Err(problem) = cfg.topology.check_node(node) {
                problem
            } else {
                cfg = cfg.with_fault(SimTime::ZERO + SimDuration::from_minutes(minutes), node);
                continue;
            };
            eprintln!("error: --fault {minutes}:{cluster}:{rank}: {problem}");
            return Ok(ExitCode::from(2));
        }
        let (report, records) = simdriver::run_traced(cfg);
        if let Some(path) = &a.trace_file {
            let write = || -> io::Result<()> {
                let mut f = io::BufWriter::new(std::fs::File::create(path)?);
                simdriver::trace::render(&mut f, &records)?;
                f.flush()
            };
            write().map_err(|e| format!("{path}: {e}"))?;
            eprintln!("trace: {} records -> {path}", records.len());
        } else if a.trace != TraceLevel::Off {
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
    a: &RunArgs,
) -> Result<runtime::RunReport, String> {
    use runtime::RtEvent::{self, Committed, Delivered, GcReport};
    use runtime::{Federation, RuntimeConfig};
    use std::time::Duration;

    const STEP_TIMEOUT: Duration = Duration::from_secs(120);

    let mut cfg = RuntimeConfig::manual(cluster_sizes.to_vec()).with_protocol(protocol);
    cfg.shards = a.shards;
    cfg.durable_dir = a.durable_dir.as_deref().map(Into::into);
    let fed = Federation::spawn(cfg);
    let nodes: usize = cluster_sizes.iter().map(|&n| n as usize).sum();
    let (shards, total) = (fed.shards(), sends.len());
    eprintln!("runtime: {nodes} nodes on {shards} shard worker(s); injecting {total} sends");
    for (tag, s) in sends.iter().enumerate() {
        let payload = hc3i_core::AppPayload {
            bytes: s.bytes,
            tag: tag as u64,
        };
        fed.send_app(s.from, s.to, payload);
    }
    // Awaits `n` events that `is` picks out; `what` names them.
    let count = |n: usize, what: &str, is: fn(&RtEvent) -> bool| {
        let mut seen = 0;
        let mut counted = |e: &RtEvent| {
            seen += usize::from(is(e));
            seen == n
        };
        if n == 0 || fed.wait_for(STEP_TIMEOUT, &mut counted).is_some() {
            return Ok(());
        }
        Err(format!("timed out: {seen}/{n} {what}"))
    };
    count(total, "deliveries", |e| matches!(e, Delivered { .. }))?;
    // One explicit CLC per periodically-checkpointing cluster.
    for (c, delay) in timer_spec.clc_delays.iter().enumerate() {
        if !delay.is_infinite() {
            fed.checkpoint_now(c);
            fed.wait_for(
                STEP_TIMEOUT,
                |e| matches!(e, Committed { cluster, .. } if *cluster == c),
            )
            .ok_or_else(|| format!("timed out waiting for cluster {c}'s CLC"))?;
        }
    }
    // One final collection when the timers file configures a GC.
    if timer_spec.gc_interval.is_some() {
        fed.gc_now();
        count(cluster_sizes.len(), "GC reports", |e| {
            matches!(e, GcReport { .. })
        })?;
    }
    let answered = fed.quiesce(4, STEP_TIMEOUT);
    if answered != nodes {
        return Err(format!(
            "quiesce barrier: {answered}/{nodes} nodes answered"
        ));
    }
    Ok(fed.report())
}

/// `hc3i-sim campaign`'s arguments.
#[derive(Default)]
struct CampaignArgs {
    json: Option<String>,
    plan: campaign::CampaignPlan,
}

fn parse_campaign(args: &[String]) -> Result<CampaignArgs, String> {
    let mut a = CampaignArgs::default();
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--json" => a.json = Some(flags.value("a path")?),
            "--seeds" => a.plan.seeds = parse_seeds(&flags.value("a comma-separated list")?)?,
            other => return Err(format!("unknown campaign flag {other}")),
        }
    }
    Ok(a)
}

/// `hc3i-sim campaign`: run the adversarial scenario × topology × seed
/// matrix, print one line per cell, and exit nonzero on any invariant
/// violation. `--json PATH` writes the deterministic summary CI diffs
/// against the committed golden.
fn cmd_campaign(a: CampaignArgs) -> ExitCode {
    with_stdout(|out| {
        // A closed pipe stops the printing, not the campaign: its exit
        // code still says whether the cells held.
        let mut printed = Ok(());
        let summary = campaign::run_campaign(&a.plan, |cell| {
            if printed.is_ok() {
                printed = print_cell(out, cell);
            }
        });
        if let Some(path) = a.json {
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
/// order given. Each stays a range: no list is built from a count the
/// user typed.
fn parse_seeds(list: &str) -> Result<Vec<RangeInclusive<u64>>, String> {
    list.split(',')
        .map(|item| {
            let (first, last) = item.split_once("..=").unwrap_or((item, item));
            let (Ok(first), Ok(last)) = (first.parse::<u64>(), last.parse::<u64>()) else {
                return Err(format!(
                    "--seeds wants seeds and ranges like 1,2,3 or 1..=400, not {list}"
                ));
            };
            if first > last {
                return Err(format!("--seeds range {item} is reversed"));
            }
            Ok(first..=last)
        })
        .collect()
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

/// `hc3i-sim recover`'s arguments.
struct RecoverArgs {
    dir: String,
    reference: Option<String>,
}

fn parse_recover(args: &[String]) -> Result<RecoverArgs, String> {
    let (mut dir, mut reference) = (None, None);
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--durable-dir" => dir = Some(flags.value("a directory")?),
            "--verify-prefix-of" => reference = Some(flags.value("a directory")?),
            other => return Err(format!("unknown recover flag {other}")),
        }
    }
    let dir = dir.ok_or("recover needs --durable-dir")?;
    Ok(RecoverArgs { dir, reference })
}

/// `hc3i-sim recover`: scan a durable segment log read-only, rebuild every
/// node's CLC chain to the last durable checkpoint, and print a
/// deterministic per-node summary. With `--verify-prefix-of`, a second
/// image is recovered and every node chain of the first must be a prefix
/// of its counterpart there — the crash-consistency check for fault-free
/// runs, where a killed run's durable state can only trail (never diverge
/// from) its uninterrupted twin.
fn cmd_recover(RecoverArgs { dir, reference }: RecoverArgs) -> ExitCode {
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
            let (mine, theirs) = (image.stores.len(), full.stores.len());
            if mine != theirs {
                return Err(
                    format!("prefix check: node count differs ({mine} vs {theirs})").into(),
                );
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
                    let sn = mine.meta.sn;
                    let Some(theirs) = other.iter().find(|t| t.meta.sn == sn) else {
                        let absent = format!("node {node} has SN {sn} absent from {reference}");
                        return Err(format!("prefix check: {absent}").into());
                    };
                    if mine.meta != theirs.meta || mine.payload != theirs.payload {
                        return Err(format!("prefix check: node {node} diverges at SN {sn}").into());
                    }
                    compared_total += 1;
                }
            }
            let total = full.total_entries();
            let skipped = match historic_total {
                0 => String::new(),
                n => format!("; {n} historic, skipped"),
            };
            writeln!(
                out,
                "prefix check: OK ({compared_total} CLCs are a prefix of {total} in the \
                 reference image{skipped})"
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

fn cmd_sample(dir: &str) -> ExitCode {
    let dir = std::path::Path::new(dir);
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
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        // A reader that left stops the printing, not the writing.
        let mut printed = Ok(());
        for (name, content) in files {
            let written = std::fs::write(dir.join(name), content);
            written.map_err(|e| format!("writing {name}: {e}"))?;
            if printed.is_ok() {
                printed = writeln!(out, "wrote {}", dir.join(name).display());
            }
        }
        printed?;
        Ok(ExitCode::SUCCESS)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    const COMMANDS: [&str; 3] = ["run", "campaign", "recover"];

    /// `command`'s parse, what it parsed dropped.
    fn parse(command: &str, args: &[String]) -> Result<(), String> {
        match command {
            "run" => parse_run(args).map(drop),
            "campaign" => parse_campaign(args).map(drop),
            "recover" => parse_recover(args).map(drop),
            _ => unreachable!("{command}"),
        }
    }

    /// The words of `text` that look like flags.
    fn flags_in(text: &str) -> impl Iterator<Item = &str> {
        text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|w| w.len() > 2 && w.starts_with("--"))
    }

    /// The flags USAGE's synopsis of `command` lists: its
    /// `hc3i-sim command` line and the indented lines that go on from it.
    fn usage_flags(command: &str) -> BTreeSet<&'static str> {
        let head = format!("  hc3i-sim {command} ");
        let mut lines = USAGE.lines().skip_while(|l| !l.starts_with(&head));
        let first = lines.next().unwrap_or_default();
        let rest = lines.take_while(|l| l.starts_with("    "));
        std::iter::once(first)
            .chain(rest)
            .flat_map(flags_in)
            .collect()
    }

    /// USAGE and the parsers agree: of every flag this file names, each
    /// subcommand takes exactly those its synopsis lists.
    #[test]
    fn usage_lists_exactly_the_flags_each_parser_takes() {
        let named: BTreeSet<&str> = flags_in(include_str!("main.rs")).collect();
        let mut drift = vec![];
        for command in COMMANDS {
            let listed = usage_flags(command);
            assert!(!listed.is_empty(), "{command}");
            for flag in &named {
                let refused = parse(command, &[flag.to_string(), "1".into()])
                    .is_err_and(|e| e.starts_with("unknown ") && e.ends_with(&format!(" {flag}")));
                if refused == listed.contains(flag) {
                    let (taken, usage) = if refused {
                        ("refuses", "")
                    } else {
                        ("takes", "not ")
                    };
                    drift.push(format!("{command} {taken} {flag}, {usage}in its synopsis"));
                }
            }
        }
        assert!(drift.is_empty(), "{drift:#?}");
    }

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    /// A seed range is kept as the range the user typed, however long:
    /// `--seeds 0..=18446744073709551615` once asked for a list of 2^64
    /// seeds and aborted with `capacity overflow`.
    #[test]
    fn a_seed_range_stays_a_range() {
        let seeds = |list: &str| parse_campaign(&strings(&["--seeds", list])).map(|a| a.plan.seeds);
        assert_eq!(seeds("0..=18446744073709551615"), Ok(vec![0..=u64::MAX]));
        assert_eq!(seeds("9,7..=8"), Ok(vec![9..=9, 7..=8]));
        assert_eq!(
            seeds("7,400..=1"),
            Err("--seeds range 400..=1 is reversed".into())
        );
        assert!(seeds("1..=18446744073709551616").is_err());
        assert_eq!(
            parse_campaign(&[]).map(|a| a.plan.seeds),
            Ok(campaign::CampaignPlan::default().seeds)
        );
    }

    /// Each reader's error names its flag.
    #[test]
    fn a_bad_value_names_its_flag() {
        for (args, error) in [
            (&["--seed", "-1"][..], "--seed needs an integer"),
            (&["--shards", "0"], "--shards needs a pool size >= 1"),
            (
                &["--replication", "65"],
                "--replication needs a degree <= 64",
            ),
            (
                &["--durable-crash-after"],
                "--durable-crash-after needs an integer",
            ),
            (&["--contention", "fast"], "--contention wants none|fifo"),
            (&["--trace"], "--trace wants protocol|full|off"),
            (
                &["--fault", "1:2:3:4"],
                "--fault wants MINUTES:CLUSTER:RANK",
            ),
            (&["--topology"], "--topology needs a file"),
            (&["--trace-file"], "--trace-file needs a path"),
        ] {
            assert_eq!(parse_run(&strings(args)).map(drop), Err(error.into()));
        }
    }

    /// Flag values from the edges of what each flag takes.
    const VALUES: &[&str] = &[
        "0",
        "1",
        "-1",
        "64",
        "65",
        "18446744073709551615",
        "18446744073709551616",
        "1..=0",
        "0..=18446744073709551615",
        "1,2..=3",
        ",",
        "a:b:c",
        "1:0:0",
        "307445735:0:2",
        "none",
        "fifo",
        "off",
        "protocol",
        "full",
        "",
        "--",
    ];

    /// Up to eight flags, each from some subcommand's synopsis or a
    /// stranger, each followed by an edge value or by nothing.
    fn arguments() -> impl Strategy<Value = Vec<String>> {
        let mut words: BTreeSet<&str> = COMMANDS.into_iter().flat_map(usage_flags).collect();
        words.extend(["--banana", "-x", "run", "--seeds=1"]);
        let words: Vec<&str> = words.into_iter().collect();
        prop::collection::vec((0..words.len(), 0..VALUES.len() + 1), 0..8).prop_map(move |picks| {
            let mut args = vec![];
            for (word, value) in picks {
                args.push(words[word].to_string());
                args.extend(VALUES.get(value).map(|v| v.to_string()));
            }
            args
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// No argument list panics a parse: each answers `Ok` or `Err`.
        #[test]
        fn random_arguments_parse_or_err(args in arguments()) {
            for command in COMMANDS {
                let _ = catch_unwind(AssertUnwindSafe(|| parse(command, &args)))
                    .map_err(|_| TestCaseError::fail(format!("{command} panicked on {args:?}")))?;
            }
        }
    }
}
