//! The names every later change will use: the end-to-end metrics with
//! their regression bounds, and the per-layer rows with the layer each
//! belongs to. `BENCHMARK.json` declares exactly these (it is printed
//! from here, and a test keeps the committed copy in step); the README
//! gives each definition at length.

use crate::json::Json;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How a run's timed reps become one number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Over {
    /// A time: the workload's [`Times`] rule.
    Time,
    /// The median rep (sizes, which nothing disturbs).
    Median,
}

/// Which rep's time stands for a run. Interference in the sandbox is
/// one-sided and comes in phases — a rep is never faster than the quiet
/// machine allows and often 30-70 % slower, for tens of seconds at a time
/// — so the median of a run's reps follows the phases (over ten seeded
/// runs per workload it spread 11-18 % on a fair day, 26-33 % on a bad
/// one) and the low end of the reps does not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Times {
    /// The fastest rep: for a deterministic single-threaded workload it
    /// is the undisturbed value (5-10 % on the fair day; on the bad one
    /// 2 % and 19 % where the first quartile gave 7 % and 22 %).
    Fastest,
    /// The first quartile of the reps: for a threaded workload, whose
    /// spread is partly its own. One or two reps in fifteen of
    /// `runtime_wave` land in a faster scheduling regime (0.55 s against
    /// 0.75 s); whether a run catches one is chance, and the minimum
    /// would report it.
    FirstQuartile,
}

/// An end-to-end metric of a run.
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Which rep stands for the run.
    pub over: Over,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// What a user of the system sees, on every workload.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        over: Over::Time,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        over: Over::Time,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        over: Over::Median,
        bound: 0.05,
    },
];

/// A per-layer row of the traced run.
pub struct PerLayer {
    /// Name (`layer.what_unit`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Every per-layer row, outside in.
pub const PER_LAYER: [PerLayer; 76] = [
    // The host: metadata for reading everything else.
    higher("host.calibration_iters_per_s", "1/s"),
    higher("host.nproc", "count"),
    // The measured process over the timed region, and the tracing itself.
    lower("proc.user_cpu_s", "s"),
    lower("proc.sys_cpu_s", "s"),
    lower("proc.minor_faults", "count"),
    lower("proc.vol_ctx_switches", "count"),
    lower("proc.cold_wall_s", "s"),
    lower("alloc.count_per_op", "count"),
    lower("alloc.bytes_per_op", "B"),
    lower("trace.overhead_pct", "%"),
    // hc3i-cli
    lower("cli.startup_ms", "ms"),
    lower("cli.overhead_s", "s"),
    // workload
    lower("workload.parse_ms", "ms"),
    lower("workload.schedule_s", "s"),
    higher("workload.sends_per_s", "1/s"),
    // simdriver
    lower("simdriver.world_new_s", "s"),
    lower("simdriver.run_s", "s"),
    lower("simdriver.ns_per_event", "ns"),
    lower("simdriver.glue_ns_per_event", "ns"),
    // desim
    lower("desim.exec_ns_per_event", "ns"),
    lower("desim.cancel_ns", "ns"),
    // netsim
    lower("netsim.send_ns_per_msg", "ns"),
    lower("netsim.hostile_post_ns_per_msg", "ns"),
    lower("netsim.new_ms", "ms"),
    // hc3i-core
    lower("core.handle_ns_per_input", "ns"),
    lower("core.clc_commit_us", "us"),
    lower("core.engine_new_us", "us"),
    lower("core.engine_bytes", "B"),
    lower("core.gc_round_us", "us"),
    lower("core.persist_encode_ns", "ns"),
    lower("core.persist_bytes_per_ckpt", "B"),
    lower("core.xport_ns_per_frame", "ns"),
    lower("core.log_peak_entries", "count"),
    // storage
    lower("storage.log_ack_ns_at_256", "ns"),
    lower("storage.log_ack_ns_at_4096", "ns"),
    lower("storage.append_us", "us"),
    lower("storage.fsync_us", "us"),
    lower("storage.frames_per_clc", "count"),
    lower("storage.bytes_per_frame", "B"),
    higher("storage.commits_per_s", "1/s"),
    lower("storage.recover_ns_per_entry", "ns"),
    lower("storage.open_existing_ms", "ms"),
    lower("storage.compact_ms", "ms"),
    // runtime
    lower("runtime.spawn_ms", "ms"),
    lower("runtime.shutdown_ms", "ms"),
    lower("runtime.quiesce_ms", "ms"),
    lower("runtime.send_app_ns", "ns"),
    higher("runtime.msgs_per_s", "1/s"),
    lower("runtime.commits", "count"),
    lower("runtime.forced_commits", "count"),
    lower("runtime.gc_reports", "count"),
    lower("runtime.wall_q4_over_q1", "ratio"),
    higher("runtime.blast_msgs_per_s", "1/s"),
    lower("runtime.lat_p50_us", "us"),
    lower("runtime.lat_p99_us", "us"),
    // The durable federation and the recovery image, as their clients see them.
    lower("durable.lat_p50_us", "us"),
    lower("durable.lat_p99_us", "us"),
    lower("durable.p50_fsyncs", "count"),
    lower("durable.disk_mb", "MiB"),
    lower("recovery.disk_mb", "MiB"),
    // crossbeam (vendored)
    higher("channel.msgs_per_s", "1/s"),
    lower("channel.pingpong_us", "us"),
    // campaign
    lower("campaign.build_ms_per_cell", "ms"),
    lower("campaign.run_ms_per_cell", "ms"),
    lower("campaign.check_ms_per_cell", "ms"),
    lower("campaign.cell_ms.partition_heal", "ms"),
    lower("campaign.cell_ms.dup_reorder_storm", "ms"),
    lower("campaign.cell_ms.churn_partition", "ms"),
    lower("campaign.cell_ms.flash_crowd_hostile", "ms"),
    lower("campaign.cell_ms.lossy_wan", "ms"),
    lower("campaign.cell_ms.asymmetric_cut", "ms"),
    lower("campaign.cell_ms.partition_during_cascade", "ms"),
    lower("campaign.events", "count"),
    lower("campaign.retransmissions", "count"),
    lower("campaign.rollbacks", "count"),
    lower("campaign.failed_cells", "count"),
];

/// `BENCHMARK.json`, generated from the tables above and the workload
/// list, so the declaration cannot drift from what the harness prints.
pub fn benchmark_json() -> Json {
    let metric = |name: &str, unit: &str, better: Better| {
        assert!(valid_name(name) && valid_unit(unit), "{name} [{unit}]");
        vec![
            ("name", Json::str(name)),
            ("unit", Json::str(unit)),
            ("better", Json::str(better.as_str())),
        ]
    };
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(crate::DEFAULT_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                crate::workloads::ALL
                    .iter()
                    .map(|w| {
                        assert!(valid_name(w.name) && w.why.len() <= 200, "{}", w.name);
                        Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        let mut row = metric(m.name, m.unit, m.better);
                        row.push(("bound", Json::Num(m.bound)));
                        Json::obj(row)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| Json::obj(metric(m.name, m.unit, m.better)))
                    .collect(),
            ),
        ),
    ])
}

/// Rows that describe the traced workload's own process and never come
/// from a probe-size run of another workload.
pub fn is_own_process_row(name: &str) -> bool {
    ["proc.", "alloc.", "trace."]
        .iter()
        .any(|p| name.starts_with(p))
}

/// Is `name` a per-layer row?
pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// A metric or workload name as the benchmark contract allows it: starts
/// with a letter or digit, then letters, digits, `_`, `.`, `-`; at most 64.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit as the contract allows it.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn name_validation() {
        for ok in ["wall_s", "campaign.cell_ms.lossy_wan", "9lives", "a-b.c_d"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", ".hidden", "_x", "has space", "µs", "a/b", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["s", "1/s", "%", "MiB", "count"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "µs", "seventeen-chars-xx", "a b"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn tables_are_valid_and_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(workloads::ALL.iter().map(|w| w.name))
            .collect();
        assert!(names.iter().all(|n| valid_name(n)));
        assert!(END_TO_END.iter().all(|m| valid_unit(m.unit)));
        assert!(PER_LAYER.iter().all(|m| valid_unit(m.unit)));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
    }

    /// The committed `BENCHMARK.json` is what `--print-benchmark-json`
    /// prints, and has the shape the contract fixes.
    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let doc = benchmark_json();
        assert_eq!(
            committed,
            doc.pretty(),
            "run.sh --print-benchmark-json > BENCHMARK.json"
        );
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(committed.len() <= 64 << 10);
        let count = |key: &str| doc.get(key).unwrap().as_arr().unwrap().len();
        assert!((2..=8).contains(&count("workloads")));
        assert!((1..=16).contains(&count("end_to_end")));
        assert!((1..=128).contains(&count("per_layer")));
    }
}
