//! Regenerate the paper's tables and figures.
//!
//! ```text
//! regen <name> [seed]   print one artifact
//! regen all [seed]      print every artifact; at the default seed also
//!                       rewrite paper/RESULTS.md (run from the repo root)
//! ```
use hc3i_bench::{experiments, render};

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

fn usage() -> ! {
    let names: Vec<&str> = ARTIFACTS.iter().map(|a| a.0).collect();
    eprintln!("usage: regen <all|{}> [seed]", names.join("|"));
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(name) = args.next() else { usage() };
    let seed = match args.next() {
        Some(s) => s.parse().unwrap_or_else(|_| usage()),
        None => experiments::DEFAULT_SEED,
    };
    if name != "all" {
        let Some(artifact) = ARTIFACTS.iter().find(|a| a.0 == name) else {
            usage()
        };
        print!("{}", artifact.2(seed));
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
