//! The three configuration files (paper §5.1) never panic their reader.
//!
//! Random keyword lines with arguments drawn from the edges — zero, `inf`,
//! huge numbers, negative and fractional values, unit soup and garbage —
//! go through each parser, which must answer `Ok` or `Err`. A topology the
//! parser accepts must then build a simulation config (and so the
//! protocol config) without panicking: what `hc3i-sim run` does next with
//! it. Node counts stay small, so a file that is accepted is also cheap.

use hc3i::desim::SimDuration;
use hc3i::netsim::Topology;
use hc3i::simdriver::SimConfig;
use hc3i::workload::files::{parse_application, parse_timers, parse_topology, ParseError};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Arguments from the edges of every value a file takes.
const ARGS: &[&str] = &[
    "0",
    "1",
    "2",
    "3",
    "0.5",
    "1.5",
    "-1",
    "-0",
    "inf",
    "INFINITE",
    "nan",
    "65536",
    "65537",
    "4294967296",
    "18446744073709551616",
    "99999999999999999999h",
    "1e308",
    "1ns",
    "10us",
    "150ms",
    "0s",
    "0ms",
    "30m",
    "2h",
    "0bps",
    "0.4bps",
    "80Mbps",
    "999999999999Gbps",
    "µs",
    "abc",
    "#",
];

/// One `keyword args…` line: a keyword of the file or a stranger, and up
/// to five edge arguments.
fn line(keywords: &'static [&'static str]) -> impl Strategy<Value = String> {
    (
        0..keywords.len() + 1,
        prop::collection::vec(0..ARGS.len(), 0..6),
    )
        .prop_map(move |(k, args)| {
            let mut line = keywords.get(k).copied().unwrap_or("banana").to_string();
            for a in args {
                line.push(' ');
                line.push_str(ARGS[a]);
            }
            line
        })
}

fn lines(keywords: &'static [&'static str]) -> impl Strategy<Value = String> {
    prop::collection::vec(line(keywords), 0..6).prop_map(|lines| lines.join("\n"))
}

const TOPOLOGY: &[&str] = &["clusters", "nodes", "intra", "inter", "mtbf"];
const APPLICATION: &[&str] = &["duration", "payload", "compute_mean", "pattern"];
const TIMERS: &[&str] = &["clc_timer", "gc_timer", "detection_delay"];

/// A topology file likely to be accepted: a `clusters` line and a `nodes`
/// line of up to three small counts (zero among them), then random lines.
fn topology_text() -> impl Strategy<Value = String> {
    (
        1usize..4,
        prop::collection::vec(0u32..4, 0..4),
        lines(TOPOLOGY),
    )
        .prop_map(|(clusters, nodes, rest)| {
            let nodes: Vec<String> = nodes.iter().map(u32::to_string).collect();
            format!("clusters {clusters}\nnodes {}\n{rest}\n", nodes.join(" "))
        })
}

/// `f()`, or the failure of a case whose input `what` made it panic.
fn no_panic<T>(what: &str, f: impl FnOnce() -> T) -> Result<T, TestCaseError> {
    catch_unwind(AssertUnwindSafe(f))
        .map_err(|_| TestCaseError::fail(format!("panicked on {what:?}")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn an_accepted_topology_builds_a_simulation_config(
        text in prop_oneof![topology_text(), lines(TOPOLOGY)],
    ) {
        let parsed = no_panic(&text, || parse_topology(&text))?;
        if let Ok(topology) = parsed {
            no_panic(&text, || SimConfig::new(topology, SimDuration::from_hours(1)))?;
        }
    }

    #[test]
    fn random_application_lines_parse_or_err(clusters in 1usize..4, text in lines(APPLICATION)) {
        let topology = Topology::paper_reference(clusters);
        let _ = no_panic(&text, || parse_application(&text, &topology))?;
    }

    #[test]
    fn random_timer_lines_parse_or_err(clusters in 1usize..4, text in lines(TIMERS)) {
        let _ = no_panic(&text, || parse_timers(&text, clusters))?;
    }
}

/// A token after a keyword's arguments is an error at its line, naming the
/// keyword: `gc_timer 2h 30m` does not collect every 2 h. One case per
/// keyword that takes a fixed count; `nodes`, `intra`, `inter` and
/// `pattern` check their own.
#[test]
fn a_token_after_a_keywords_arguments_is_a_line_numbered_error() {
    let reference = Topology::paper_reference(2);
    let topology = |text: &str| parse_topology(text).map(drop);
    let application = |text: &str| parse_application(text, &reference).map(drop);
    let timers = |text: &str| parse_timers(text, 2).map(drop);
    let topology_file = "clusters 2\nnodes 4 4\n";
    let application_file = "duration 1h\ncompute_mean 0 1s\ncompute_mean 1 1s\n\
                            pattern 0 0.5 0.5\npattern 1 0.5 0.5\n";
    type Parser<'a> = &'a dyn Fn(&str) -> Result<(), ParseError>;
    let cases: [(Parser, &str, &str); 8] = [
        (&topology, topology_file, "clusters 2"),
        (&topology, topology_file, "mtbf 1h"),
        (&application, application_file, "duration 2h"),
        (&application, application_file, "payload 512"),
        (&application, application_file, "compute_mean 0 2s"),
        (&timers, "", "clc_timer 0 30m"),
        (&timers, "", "gc_timer 2h"),
        (&timers, "", "detection_delay 100ms"),
    ];
    for (parse, file, line) in cases {
        assert_eq!(parse(&format!("{file}{line}\n")), Ok(()), "{line}");
        let e = parse(&format!("{file}{line} 30m\n")).expect_err(line);
        let keyword = line.split(' ').next().unwrap();
        assert_eq!(e.line, file.lines().count() + 1, "{line}");
        assert!(e.message.contains(keyword), "{line}: {e}");
    }
}
