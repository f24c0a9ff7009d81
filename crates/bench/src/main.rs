//! Regenerate the paper's tables and figures, and the two runs CI pins.
//!
//! ```text
//! regen <name> [seed]   print one artifact
//! regen all [seed]      print every artifact; at the default seed also
//!                       rewrite paper/RESULTS.md (run from the repo root)
//! regen fingerprint     print the determinism dump (bench/FINGERPRINT.txt)
//! regen mega [seed]     run the 1024 x 100 ring once; print nodes, events, wall
//! ```
//!
//! `fingerprint` and `mega` are not part of `all` or `paper/RESULTS.md`:
//! one is a behaviour pin, the other a timing. `fingerprint` takes no seed.
//!
//! `experiments` runs one setup per table and figure and returns its rows.
//! Every run here, `fingerprint`'s and `mega`'s too, is one
//! `experiments::federation`, over the paper's traffic or over an
//! `experiments::ring`. `render` prints the rows in the paper's row format,
//! and `global`, `independent` and `pessimistic` (over `common`'s input and
//! report) are cost models of the protocol families §6 compares HC3I with,
//! for the `ablation_protocols` table. Performance is measured by
//! `benchmark/` and gated by `ci/pair.sh`, not here.

mod common;
mod experiments;
mod global;
mod independent;
mod pessimistic;
mod render;

use desim::{SimDuration, SimTime};
use hc3i_core::PiggybackMode;
use netsim::{HostileSpec, NodeId};
use simdriver::{RunReport, SimConfig};
use std::fmt::Write as _;

const RESULTS: &str = "paper/RESULTS.md";

/// One artifact: its name, what it is, and the experiment piped into its
/// renderer (seed in, text out).
type Artifact = (&'static str, &'static str, fn(u64) -> String);

const ARTIFACTS: &[Artifact] = &[
    ("table1", "application message counts", |s| {
        render::table1(&experiments::table1(s))
    }),
    ("figure6", "CLC counts in cluster 0 vs its timer", |s| {
        render::figure6(&experiments::figure6_7(&experiments::figure6_delays(), s))
    }),
    (
        "figure7",
        "CLC counts in cluster 1 vs cluster 0's timer",
        |s| render::figure7(&experiments::figure6_7(&experiments::figure6_delays(), s)),
    ),
    ("figure8", "CLC counts vs cluster 1's timer", |s| {
        render::figure8(&experiments::figure8(&experiments::figure8_delays(), s))
    }),
    ("figure9", "forced CLCs vs reverse traffic", |s| {
        render::figure9(&experiments::figure9(&experiments::figure9_counts(), s))
    }),
    ("table2", "stored CLCs, 2 clusters", |s| {
        render::gc_table(
            "Table 2: Number of stored CLCs (2 clusters, GC every 2 h)",
            &experiments::table2(s),
        )
    }),
    ("table3", "stored CLCs, 3 clusters", |s| {
        render::gc_table(
            "Table 3: Number of stored CLCs (3 clusters, GC every 2 h)",
            &experiments::table3(s),
        )
    }),
    ("overhead", "the section 5.2 overhead analysis", |s| {
        render::overhead(&experiments::overhead_breakdown(
            &[None, Some(120), Some(60), Some(30), Some(15), Some(5)],
            s,
        ))
    }),
    ("scaling", "federation width sweep", |s| {
        render::scaling(&experiments::federation_scaling(&[2, 3, 4, 6, 8, 12], s))
    }),
    (
        "ablation_ddv",
        "SN-only vs full-DDV piggybacking (section 7)",
        |s| render::ablation_ddv(&experiments::ablation_ddv(&[3, 4, 5], s)),
    ),
    (
        "ablation_protocols",
        "HC3I vs the comparator protocols (section 6)",
        |s| render::ablation_protocols(&experiments::ablation_protocols(s)),
    ),
    (
        "ablation_replication",
        "fragment replication degree (section 7)",
        |s| render::ablation_replication(&experiments::ablation_replication(&[1, 2, 3, 4], s)),
    ),
];

/// A wide-federation ring: `n` clusters of `nodes` nodes, 120 local and
/// 30 next-cluster messages per cluster, 30-minute timers.
fn ring_config(n: usize, nodes: u32, hours: u64, seed: u64) -> SimConfig {
    let w = experiments::ring(n, nodes, hours, [120, 30, 0]);
    experiments::federation(&w, &vec![Some(30); n], None, PiggybackMode::SnOnly, seed)
}

/// Debug-dump a set of seeded reference runs. Any code change that
/// preserves the determinism contract must reproduce this file
/// byte-for-byte: CI `cmp`s it against `bench/FINGERPRINT.txt`.
fn fingerprint() -> String {
    let mut s = String::new();
    for seed in [20040426u64, 7, 424242] {
        let r = simdriver::run(experiments::reference(PiggybackMode::SnOnly, seed));
        let _ = writeln!(s, "reference sn_only seed={seed}\n{r:#?}\n");
        let r = simdriver::run(experiments::reference(PiggybackMode::FullDdv, seed));
        let _ = writeln!(s, "reference full_ddv seed={seed}\n{r:#?}\n");
    }
    // Faulty run: rollback + alert + replay paths.
    let mut cfg = experiments::reference(PiggybackMode::SnOnly, 20040426);
    for h in 1..8u64 {
        cfg = cfg.with_fault(
            SimTime::ZERO + SimDuration::from_minutes(h * 60 + 11),
            NodeId::new((h % 2) as u16, (h * 13 % 100) as u32),
        );
    }
    let r: RunReport = simdriver::run(cfg);
    let _ = writeln!(s, "reference faulty seed=20040426\n{r:#?}\n");
    // Wide ring: many clusters, forced-CLC heavy.
    let r = simdriver::run(ring_config(12, 4, 2, 20040426));
    let _ = writeln!(s, "ring 12x4 seed=20040426\n{r:#?}\n");
    // Hostile ring: duplication + reordering + a lossy wire, which brings
    // the reliable transport. The hostile side statistics (injected
    // duplicates, reorders, losses, retransmissions) are fingerprinted
    // alongside the report, so the per-pair RNG streams are pinned too;
    // no delivery ledger is tracked (`ledger: None`).
    let spec = HostileSpec::seeded(20040426)
        .with_duplication(0.10, SimDuration::from_millis(1))
        .with_reorder(0.10, SimDuration::from_micros(500))
        .with_loss(0.05);
    let cfg = ring_config(6, 4, 1, 20040426).with_hostile(spec);
    let (r, h) = simdriver::run_hostile(cfg);
    let _ = writeln!(s, "ring hostile 6x4 seed=20040426\n{r:#?}\n{h:#?}\n");
    s
}

/// The order-of-magnitude scale run: 1024 clusters of 100 nodes = 102,400
/// engines through the executive to completion, once. CI's `runtime-scale`
/// job holds its wall time and polled peak RSS under ceilings.
fn mega(seed: u64) -> String {
    let (clusters, nodes) = (1024usize, 100u32);
    let t0 = std::time::Instant::now();
    let events = simdriver::run(ring_config(clusters, nodes, 1, seed)).events_processed;
    format!(
        "mega {clusters}x{nodes}: nodes={} events={events} wall_ms={:.0}\n",
        clusters as u32 * nodes,
        t0.elapsed().as_secs_f64() * 1e3
    )
}

fn usage() -> ! {
    let names: Vec<&str> = ARTIFACTS.iter().map(|a| a.0).collect();
    eprintln!(
        "usage: regen <all|{}|mega> [seed] | regen fingerprint",
        names.join("|")
    );
    std::process::exit(2);
}

/// The sub-command and its seed, or `None` for a usage error: a missing
/// name, a seed that is not a `u64`, a seed given to `fingerprint`, or a
/// third argument.
fn parse_args(args: &[String]) -> Option<(&str, u64)> {
    match args {
        [name] => Some((name, experiments::DEFAULT_SEED)),
        [name, seed] if name != "fingerprint" => Some((name, seed.parse().ok()?)),
        _ => None,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, seed)) = parse_args(&args) else {
        usage()
    };
    if name != "all" {
        let text = match name {
            "fingerprint" => fingerprint(),
            "mega" => mega(seed),
            _ => match ARTIFACTS.iter().find(|a| a.0 == name) {
                Some(artifact) => artifact.2(seed),
                None => usage(),
            },
        };
        print!("{text}");
        return;
    }
    let mut results = format!(
        "# The paper's tables and figures, regenerated\n\n\
         Written by `cargo run --release -p hc3i-bench --bin regen -- all` at seed\n\
         {seed}; simulated outcomes only, so the file is identical on every\n\
         machine. Never hand-edited: a diff here is a paper number that moved.\n"
    );
    for (name, what, run) in ARTIFACTS {
        let text = run(seed);
        println!("{text}");
        results.push_str(&format!("\n## `{name}` — {what}\n\n```text\n{text}```\n"));
    }
    if seed == experiments::DEFAULT_SEED {
        if let Err(e) = std::fs::write(RESULTS, results) {
            eprintln!("error: {RESULTS}: {e} (run from the repository root)");
            std::process::exit(1);
        }
        eprintln!("wrote {RESULTS}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Option<(String, u64)> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_args(&args).map(|(name, seed)| (name.to_string(), seed))
    }

    #[test]
    fn a_name_takes_its_seed_or_the_default() {
        let default = experiments::DEFAULT_SEED;
        assert_eq!(parse(&["all"]), Some(("all".into(), default)));
        assert_eq!(
            parse(&["fingerprint"]),
            Some(("fingerprint".into(), default))
        );
        assert_eq!(parse(&["figure6", "7"]), Some(("figure6".into(), 7)));
        assert_eq!(parse(&["mega", "7"]), Some(("mega".into(), 7)));
    }

    #[test]
    fn ignored_or_malformed_arguments_are_usage_errors() {
        for args in [
            &[][..],
            &["fingerprint", "7"],
            &["all", "7", "8"],
            &["table1", "seven"],
            &["table1", "-1"],
        ] {
            assert_eq!(parse(args), None, "{args:?}");
        }
    }
}
