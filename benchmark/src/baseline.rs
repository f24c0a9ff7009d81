//! `--repeat-check`: two full runs of one build must agree within each
//! end-to-end metric's bound. `--record` adds the traced run and writes
//! the three through to `benchmark/BASELINE.json`, `BASELINE.md` and one
//! line of `HISTORY.jsonl`, stamped with what they were measured on.

use crate::host;
use crate::json::Json;
use crate::metrics::END_TO_END;
use crate::report::{self, Summary};
use crate::runner::{self, Dirs};
use crate::workloads::Workload;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode};

/// Run the check (and the recording).
pub fn repeat_check(
    dirs: &Dirs,
    workloads: &[&'static Workload],
    seed: u64,
    seconds: u64,
    record: bool,
) -> Result<ExitCode, String> {
    let mut ok = true;
    let mut runs: Vec<Vec<Summary>> = Vec::new();
    for n in 1..=2 {
        eprintln!("== run {n} of 2 ==");
        let measured = runner::measure(dirs, workloads, seed, seconds, false);
        let summaries: Vec<Summary> = measured.iter().map(report::end_to_end).collect();
        print!("{}", report::table(&summaries));
        ok &= report::print_failures(&summaries);
        runs.push(summaries);
    }
    let disagreements = report::disagreements(&runs[0], &runs[1]);
    for (workload, metric, first, second, bound) in &disagreements {
        eprintln!(
            "NOT REPEATABLE {workload} {metric}: {first} then {second} ({:+.1} %, bound {:.0} %)",
            (second / first - 1.0) * 100.0,
            bound * 100.0
        );
    }
    ok &= disagreements.is_empty();
    if disagreements.is_empty() {
        eprintln!("repeat check: both runs agree within every bound");
    }

    if record {
        eprintln!("== traced run ==");
        let measured = runner::measure(dirs, workloads, seed, seconds, true);
        let traced: Vec<Summary> = measured.iter().map(report::per_layer).collect();
        print!("{}", report::table(&traced));
        ok &= report::print_failures(&traced);
        // Beside the scratch directory: `benchmark/` for `benchmark/out`.
        let home = dirs.out.parent().unwrap_or(Path::new("."));
        let stamp = stamp(home, seed, seconds);
        let doc = Json::obj([
            ("stamp", stamp.clone()),
            ("claim", Json::Null),
            ("repeatable", Json::Bool(disagreements.is_empty())),
            (
                "end_to_end",
                Json::Arr(runs.iter().map(|r| report::summaries_json(r)).collect()),
            ),
            ("per_layer", report::summaries_json(&traced)),
        ]);
        write(&home.join("BASELINE.json"), &doc.pretty())?;
        write(&home.join("BASELINE.md"), &markdown(&stamp, &runs, &traced))?;
        let line = Json::obj([
            ("stamp", stamp),
            ("claim", Json::Null),
            ("end_to_end", report::summaries_json(&runs[0])),
        ]);
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(home.join("HISTORY.jsonl"))
            .and_then(|mut f| writeln!(f, "{}", line.compact()))
            .map_err(|e| format!("append HISTORY.jsonl: {e}"))?;
        eprintln!(
            "recorded BASELINE.json, BASELINE.md and one HISTORY.jsonl line in {}",
            home.display()
        );
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// What the numbers were measured on.
fn stamp(home: &Path, seed: u64, seconds: u64) -> Json {
    let git = |args: &[&str]| {
        Command::new("git")
            .arg("-C")
            .arg(home)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let commit = git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let dirty = git(&["status", "--porcelain"]).is_some_and(|s| !s.is_empty());
    let recorded_unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    Json::obj([
        ("commit", Json::str(commit)),
        ("worktree_dirty", Json::Bool(dirty)),
        ("recorded_unix", Json::Num(recorded_unix as f64)),
        ("seed", Json::Num(seed as f64)),
        ("seconds_per_workload", Json::Num(seconds as f64)),
        ("nproc", Json::Num(host::nproc() as f64)),
        ("kernel", Json::str(host::kernel())),
        ("fs_type", Json::str(host::fs_type(home))),
        (
            "calibration_iters_per_s",
            Json::Num(host::calibration_iters_per_s(9)),
        ),
    ])
}

fn markdown(stamp: &Json, runs: &[Vec<Summary>], traced: &[Summary]) -> String {
    let mut md = String::from(
        "# Benchmark baseline\n\n\
         Written by `benchmark/run.sh --record`: two untraced runs of one build and\n\
         one traced run. No gain is claimed (`\"claim\": null`); these are the\n\
         numbers later changes are compared against. Definitions are in\n\
         `README.md`.\n\n## Stamp\n\n",
    );
    for (k, v) in stamp.as_obj().unwrap_or_default() {
        let _ = writeln!(md, "- `{k}`: {}", v.compact());
    }

    md.push_str(
        "\n## End to end, both runs\n\n\
         The run's value, then median [q1, q3] over its timed reps; the last column is\n\
         the second value over the first.\n\n\
         | workload | metric | unit | run 1 | reps | run 2 | reps | run 2 / run 1 | bound |\n\
         |---|---|---|---|---:|---|---:|---:|---:|\n",
    );
    for (a, b) in runs[0].iter().zip(&runs[1]) {
        for def in &END_TO_END {
            if let (Some(x), Some(y)) = (a.get(def.name), b.get(def.name)) {
                let cell = |s: &report::Stat| {
                    format!(
                        "**{:.4}**, {:.4} [{:.4}, {:.4}]",
                        s.value, s.median, s.q1, s.q3
                    )
                };
                let _ = writeln!(
                    md,
                    "| `{}` | `{}` | {} | {} | {} | {} | {} | {:.3} | {:.0} % |",
                    a.workload,
                    def.name,
                    def.unit,
                    cell(x),
                    x.n,
                    cell(y),
                    y.n,
                    y.value / x.value,
                    def.bound * 100.0
                );
            }
        }
        let _ = writeln!(
            md,
            "| `{}` | `fail_ratio` | ratio | {}/{} | | {}/{} | | | may not rise |",
            a.workload, a.failed, a.attempted, b.failed, b.attempted
        );
    }

    md.push_str("\n## Per layer, traced run\n\n| metric | unit |");
    for s in traced {
        let _ = write!(md, " `{}` |", s.workload);
    }
    md.push_str("\n|---|---|");
    md.push_str(&"---:|".repeat(traced.len()));
    md.push('\n');
    for def in &crate::metrics::PER_LAYER {
        let _ = write!(md, "| `{}` | {} |", def.name, def.unit);
        for s in traced {
            match s.get(def.name) {
                Some(st) => {
                    let _ = write!(md, " {} |", short(st.median));
                }
                None => md.push_str(" — |"),
            }
        }
        md.push('\n');
    }

    md.push_str(&answers(traced, &runs[0]));
    md
}

/// Four significant digits, no exponent for ordinary sizes.
fn short(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.5}")
    }
}

/// The two questions ROADMAP leaves open, answered from the rows above.
fn answers(traced: &[Summary], untraced: &[Summary]) -> String {
    let row = |set: &[Summary], workload: &str, name: &str| {
        set.iter()
            .find(|s| s.workload == workload)
            .and_then(|s| s.get(name))
            .map_or(f64::NAN, |s| s.value)
    };
    let mut md = String::from("\n## The two open questions\n\n");

    let t = |name: &str| row(traced, "sim_mega", name);
    let (wall, setup) = (
        row(untraced, "sim_mega", "wall_s"),
        row(untraced, "sim_mega", "setup_s"),
    );
    let (cold, new, run, ns, user, sys, faults) = (
        t("proc.cold_wall_s"),
        t("simdriver.world_new_s"),
        t("simdriver.run_s"),
        t("simdriver.ns_per_event"),
        t("proc.user_cpu_s"),
        t("proc.sys_cpu_s"),
        t("proc.minor_faults"),
    );
    let dense_ns = row(traced, "sim_dense", "simdriver.ns_per_event");
    let _ = writeln!(
        md,
        "**Where does `sim_mega`'s time go?** (512 clusters x 100 nodes, half of \
         `scaling_mega`'s width and a quarter of its memory.) The `simdriver::run` call takes \
         {wall:.2} s in the fastest timed rep (`wall_s`), {run:.2} s in the median rep of the \
         traced run, {cold:.2} s in the run's first rep (`proc.cold_wall_s`), which pays the \
         host's first touch of the memory on top of the guest's. `FederationWorld::new` alone, \
         in a fresh child, is {new:.2} s (`simdriver.world_new_s`, median; `setup_s`, the \
         fastest such child with its schedule, {setup:.2} s): about {:.0} % of the call is construction and {:.2} s is the event \
         loop. Over the call the process spends {user:.2} s in user mode and {sys:.2} s in the \
         kernel, on {faults:.0} minor faults. Per event that is {ns:.0} ns against \
         {dense_ns:.0} ns on `sim_dense` ({:.1}x); the engines' per-event work is the same \
         code, so the gap is construction, page faults and cache misses over 51,200 engines. \
         At `scaling_mega`'s full width the same split was measured by hand while sizing this \
         benchmark: 3.4 s right after an identical process, of which 1.0 s construction, 1.7 s \
         user and 1.7 s kernel on 562,000 faults; 5.5-8 s after a smaller process and 20 s \
         after a pause, all of the difference kernel time — the host re-backing guest memory \
         it had taken back (README, *Process discipline*). ROADMAP's 12.5 s and \"267k \
         events/s\" are that, not the event loop.\n",
        new / run * 100.0,
        run - new,
        ns / dense_ns,
    );

    // Every traced run measures the durable rows; read them where the
    // in-memory federation's are the workload's own.
    let d = |name: &str| row(traced, "runtime_wave", name);
    let (fsync, append, frames, p50, p99, fsyncs, commits_per_s) = (
        d("storage.fsync_us"),
        d("storage.append_us"),
        d("storage.frames_per_clc"),
        d("durable.lat_p50_us"),
        d("durable.lat_p99_us"),
        d("durable.p50_fsyncs"),
        d("storage.commits_per_s"),
    );
    let clusters = crate::workloads::runtime_wave::CLUSTERS as f64;
    let per_round = (fsync + append) * frames * clusters;
    let busy = commits_per_s * frames * (fsync + append) / 1e6;
    let _ = writeln!(
        md,
        "**How serialised is `durable_commit`?** A commit frame costs {append:.1} µs to append \
         and {fsync:.0} µs more to fsync on this disk (isolated probe, same run). A CLC writes \
         {frames:.0} frames, each flushed on its own under the federation's one mutex, and \
         {clusters:.0} clusters commit at once: {frames:.0} x {clusters:.0} x ({append:.1} + \
         {fsync:.0}) = {per_round:.0} µs of flushing per round of requests, none of it \
         overlapped. Measured: {commits_per_s:.0} commits/s, that is {:.0} frames/s, which at \
         the probe's cost per frame is {busy:.2} of the wall (1 is a log that never stops \
         flushing; the isolated fsync and the run's are minutes apart on a disk that drifts). The \
         median request sees its `Committed` after {p50:.0} µs = {fsyncs:.1} fsyncs \
         (`durable.p50_fsyncs`; p99 {p99:.0} µs) — fewer than its own CLC's {frames:.0}, because \
         the coordinator emits `Committed` when it applies its own commit \
         (`crates/core/src/node.rs`, `apply_commit`), one frame in, while the other nodes' \
         frames queue behind it and behind the other clusters'. So the client-visible latency \
         is queueing for the mutex, and the throughput is the disk's: group commit (one flush \
         per CLC) would divide the flushing by {frames:.0}.\n",
        commits_per_s * frames,
    );
    md
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_numbers_keep_four_digits_of_sense() {
        assert_eq!(short(0.0), "0");
        assert_eq!(short(12345.678), "12346");
        assert_eq!(short(12.345678), "12.346");
        assert_eq!(short(0.0123456), "0.01235");
    }

    #[test]
    fn stamp_names_the_machine() {
        let s = stamp(Path::new("."), 7, 3);
        for key in [
            "commit",
            "nproc",
            "kernel",
            "fs_type",
            "calibration_iters_per_s",
        ] {
            assert!(s.get(key).is_some(), "{key}");
        }
        assert_eq!(s.get("seed").unwrap().as_u64(), Some(7));
    }
}
