//! The HC3I benchmark harness.
//!
//! ```text
//! harness --workload NAME --seed N --seconds S --trace 0|1   one workload, result line last
//! harness [--seed N] [--seconds S] [--traced]                every workload, printed table
//! harness --repeat-check [--record]                          two runs of one build must agree
//! harness --print-benchmark-json                             BENCHMARK.json, from the tables
//! harness exec-one …                                         (internal) one phase of one rep
//! ```
//!
//! `benchmark/run.sh` builds `hc3i-sim` and this binary and passes its
//! arguments through; see `benchmark/README.md`.

mod alloc;
mod baseline;
mod host;
mod json;
mod metrics;
mod probes;
mod rep;
mod report;
mod runner;
mod stats;
mod stream;
mod trace;
mod workloads;

use rep::{RepCtx, RepOut, Scale};
use runner::Dirs;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Workload;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Seconds of timed reps per workload per run (`run_seconds` in
/// `BENCHMARK.json`).
pub const DEFAULT_SECONDS: u64 = 12;

/// Append a rep's spans to the run's trace file, if it has one.
pub fn write_trace(ctx: &RepCtx, workload: &str, spans: &[trace::Span]) {
    let Some(path) = &ctx.trace_file else { return };
    let label = format!("{workload}@{}#{}", ctx.scale.as_str(), std::process::id());
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(trace::to_jsonl(&label, spans).as_bytes()));
    if let Err(e) = appended {
        eprintln!("warning: trace not written to {}: {e}", path.display());
    }
    // Where the traced rep's time went, by layer, for the reader of the log.
    let shares = trace::layer_self_ns(spans);
    let total: u64 = shares.iter().map(|&(_, ns)| ns).sum();
    let line: Vec<String> = shares
        .iter()
        .map(|(layer, ns)| format!("{layer} {:.1}%", *ns as f64 * 100.0 / total.max(1) as f64))
        .collect();
    eprintln!("trace {label}: self time {}", line.join(", "));
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("exec-one") {
        exec_one(&args[1..])
    } else {
        drive(&args)
    };
    match result {
        Ok(code) => code,
        Err(usage) => {
            eprintln!("error: {usage}");
            ExitCode::from(2)
        }
    }
}

/// Flag values by name; every flag of the harness takes one value except
/// the listed switches.
struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    const SWITCHES: [&'static str; 4] = [
        "--traced",
        "--repeat-check",
        "--record",
        "--print-benchmark-json",
    ];

    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if !flag.starts_with("--") {
                return Err(format!("unexpected argument {flag:?}"));
            }
            let value = if Self::SWITCHES.contains(&flag.as_str()) {
                None
            } else {
                Some(it.next().ok_or(format!("{flag} needs a value"))?.clone())
            };
            out.push((flag.clone(), value));
        }
        Ok(Flags(out))
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|(f, _)| f == flag)
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(f, _)| f == flag)
            .and_then(|(_, v)| v.as_deref())
    }

    fn number(&self, flag: &str, default: u64) -> Result<u64, String> {
        self.get(flag).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("{flag} wants a whole number, got {v:?}"))
        })
    }

    fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(f, _)| !known.contains(&f.as_str())) {
            Some((f, _)) => Err(format!("unknown flag {f}")),
            None => Ok(()),
        }
    }
}

/// One phase of one rep, in this fresh process; prints the rep's result.
fn exec_one(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args)?;
    flags.reject_unknown(&[
        "--workload",
        "--phase",
        "--seed",
        "--dir",
        "--sim-bin",
        "--trace-file",
    ])?;
    let need = |f: &str| flags.get(f).ok_or(format!("exec-one needs {f}"));
    let workload = workloads::by_name(need("--workload")?).ok_or("no such workload")?;
    let trace_file = flags.get("--trace-file").map(PathBuf::from);
    let ctx = RepCtx {
        seed: flags.number("--seed", workloads::DEFAULT_SEED)?,
        scale: Scale::Full,
        dir: PathBuf::from(need("--dir")?),
        sim_bin: PathBuf::from(need("--sim-bin")?),
        traced: trace_file.is_some(),
        trace_file,
    };
    let out = match need("--phase")? {
        "probes" => probe_phase(&ctx, workload),
        phase => (workload.run)(&ctx, phase),
    };
    println!("{}", out.to_json().compact());
    Ok(ExitCode::SUCCESS)
}

/// The probe child of `workload`'s traced run: the isolated-layer probes
/// on its call stream, then a traced rep of every *other* layer home (see
/// [`workloads::LAYER_HOMES`]), so that every row is measured in every
/// traced run.
fn probe_phase(ctx: &RepCtx, workload: &Workload) -> RepOut {
    let mut out = RepOut::default();
    probes::run_all(ctx, &(workload.stream)(ctx.seed), &mut out);

    for (home, rep, scale) in workloads::LAYER_HOMES {
        if home == workload.name {
            continue;
        }
        let dir = ctx.dir.join(home);
        std::fs::create_dir_all(&dir).expect("create probe scratch dir");
        let rep = rep(
            &RepCtx {
                scale,
                dir,
                ..ctx.clone()
            },
            "run",
        );
        for (name, value) in rep.metrics {
            let own_row = metrics::is_own_process_row(&name)
                || metrics::END_TO_END.iter().any(|m| m.name == name);
            if !own_row {
                out.put(&name, value);
            }
        }
        out.failed += rep.failed;
        out.errors.extend(
            rep.errors
                .into_iter()
                .map(|e| format!("{home} in the probe child: {e}")),
        );
    }
    out
}

/// Everything but `exec-one`.
fn drive(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args)?;
    flags.reject_unknown(&[
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--traced",
        "--repeat-check",
        "--record",
        "--print-benchmark-json",
        "--out-dir",
    ])?;
    if flags.has("--print-benchmark-json") {
        print!("{}", metrics::benchmark_json().pretty());
        return Ok(ExitCode::SUCCESS);
    }
    let seed = flags.number("--seed", workloads::DEFAULT_SEED)?;
    let seconds = flags.number("--seconds", DEFAULT_SECONDS)?;
    let traced = flags.has("--traced")
        || match flags.get("--trace") {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace wants 0 or 1, got {other:?}")),
        };
    let out = PathBuf::from(flags.get("--out-dir").unwrap_or("benchmark/out"));
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dirs = Dirs {
        // run.sh builds both binaries into one target directory.
        sim_bin: exe.with_file_name("hc3i-sim"),
        out,
    };
    if !dirs.sim_bin.is_file() {
        return Err(format!(
            "{} not found: build it with `cargo build --release -p hc3i-cli` (benchmark/run.sh does)",
            dirs.sim_bin.display()
        ));
    }

    if let Some(name) = flags.get("--workload") {
        let workload = workloads::by_name(name).ok_or(format!("no workload named {name:?}"))?;
        return Ok(one_workload(&dirs, workload, seed, seconds, traced));
    }
    let all: Vec<&'static Workload> = workloads::ALL.iter().collect();
    if flags.has("--repeat-check") || flags.has("--record") {
        return baseline::repeat_check(&dirs, &all, seed, seconds, flags.has("--record"));
    }
    let measured = runner::measure(&dirs, &all, seed, seconds, traced);
    let summaries: Vec<_> = measured
        .iter()
        .map(if traced {
            report::per_layer
        } else {
            report::end_to_end
        })
        .collect();
    print!("{}", report::table(&summaries));
    Ok(if report::print_failures(&summaries) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The benchmark contract's invocation: one workload, one result line as
/// the last line of stdout. A failed check is `"correct": false` in that
/// line; the exit code is for runs that produce no result.
fn one_workload(
    dirs: &Dirs,
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> ExitCode {
    let measured = runner::measure(dirs, &[workload], seed, seconds, traced);
    let summary = if traced {
        report::per_layer(&measured[0])
    } else {
        report::end_to_end(&measured[0])
    };
    eprint!("{}", report::samples_lines(&measured[0]));
    eprint!("{}", report::table(std::slice::from_ref(&summary)));
    report::print_failures(std::slice::from_ref(&summary));
    println!("{}", summary.result_line());
    ExitCode::SUCCESS
}
