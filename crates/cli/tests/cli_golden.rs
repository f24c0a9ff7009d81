//! Golden-output tests of `hc3i-sim run`.
//!
//! A simulation is a pure function of its configuration and seed, so the
//! CLI's report and its protocol trace must match the checked-in fixtures
//! byte for byte — on any machine. Regenerate both after an *intentional*
//! behaviour change with the command embedded in `golden_args` below, e.g.:
//!
//! ```text
//! hc3i-sim sample-configs /tmp/d && hc3i-sim run --topology … \
//!     --trace-file crates/cli/tests/golden/run_reference.trace \
//!     > crates/cli/tests/golden/run_reference.stdout
//! ```

use std::path::PathBuf;
use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_hc3i-sim")
}

/// Write the sample configs into a fresh temp dir and return it.
fn sample_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hc3i-cli-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(bin())
        .args(["sample-configs", dir.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    dir
}

fn golden_args(dir: &std::path::Path, trace_file: &std::path::Path) -> Vec<String> {
    let arg = |name: &str| dir.join(name).to_str().unwrap().to_string();
    vec![
        "run".into(),
        "--topology".into(),
        arg("topology.conf"),
        "--application".into(),
        arg("application.conf"),
        "--timers".into(),
        arg("timers.conf"),
        "--seed".into(),
        "7".into(),
        "--fault".into(),
        "200:0:17".into(),
        "--contention".into(),
        "fifo".into(),
        "--replication".into(),
        "2".into(),
        "--trace".into(),
        "protocol".into(),
        "--trace-file".into(),
        trace_file.to_str().unwrap().into(),
    ]
}

#[test]
fn report_matches_golden_fixture_exactly() {
    let dir = sample_dir("report");
    let trace_path = dir.join("trace.txt");
    let out = Command::new(bin())
        .args(golden_args(&dir, &trace_path))
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let got = String::from_utf8(out.stdout).expect("utf8 report");
    let want = include_str!("golden/run_reference.stdout");
    assert_eq!(
        got, want,
        "report deviates from the golden fixture — if the change is \
         intentional, regenerate crates/cli/tests/golden/run_reference.stdout"
    );

    // The trace went to the file, not stdout, and every line of it —
    // commits, the scripted fault's rollback, the periodic GC — is pinned.
    assert!(!got.contains("== trace"), "trace leaked into stdout");
    let trace = std::fs::read_to_string(&trace_path).expect("trace file written");
    assert_eq!(
        trace,
        include_str!("golden/run_reference.trace"),
        "trace deviates from the golden fixture — if the change is \
         intentional, regenerate crates/cli/tests/golden/run_reference.trace"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn contention_model_changes_delivery_timing() {
    let dir = sample_dir("contention");
    let arg = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let run = |contention: &str| {
        let trace = dir.join(format!("trace-{contention}.txt"));
        let out = Command::new(bin())
            .args([
                "run",
                "--topology",
                &arg("topology.conf"),
                "--application",
                &arg("application.conf"),
                "--timers",
                &arg("timers.conf"),
                "--seed",
                "7",
                "--trace",
                "protocol",
                "--trace-file",
                trace.to_str().unwrap(),
                "--contention",
                contention,
            ])
            .output()
            .expect("spawn");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read_to_string(&trace).expect("trace written")
    };
    // The report only aggregates counts; the protocol *timestamps* are
    // where serializing the shared inter-cluster pipe shows up.
    let unlimited = run("none");
    let fifo = run("fifo");
    assert_ne!(
        unlimited, fifo,
        "serializing the inter-cluster pipe must shift protocol timing"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_flag_values_fail_with_usage() {
    for args in [
        vec!["run", "--contention", "carrier-pigeon"],
        vec!["run", "--replication", "0"],
        vec!["run", "--replication", "65"],
        vec!["run", "--replication", "many"],
        vec!["run", "--trace-file"],
        vec!["run", "--trace", "off", "--trace-file", "t.txt"],
    ] {
        let out = Command::new(bin()).args(&args).output().expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{args:?} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage"), "{args:?}: {err}");
    }
}

#[test]
fn a_trace_file_beside_trace_off_is_a_usage_error() {
    // An explicit `off` is not the default a trace file upgrades: the run
    // stops before reading its configs or writing any file.
    let dir = sample_dir("trace-off");
    let trace = dir.join("trace.txt");
    let mut args = golden_args(&dir, &trace);
    let level = args.iter().position(|a| a == "protocol").unwrap();
    args[level] = "off".into();
    let out = Command::new(bin()).args(&args).output().expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--trace off") && err.contains("usage"),
        "{err}"
    );
    assert!(out.stdout.is_empty() && !trace.exists());
    std::fs::remove_dir_all(&dir).ok();
}
