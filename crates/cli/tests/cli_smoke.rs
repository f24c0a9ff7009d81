//! End-to-end smoke tests of the `hc3i-sim` binary.

use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_hc3i-sim")
}

#[test]
fn sample_configs_then_run() {
    let dir = std::env::temp_dir().join(format!("hc3i-cli-smoke-{}", std::process::id()));
    let out = Command::new(bin())
        .args(["sample-configs", dir.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let arg = |name: &str| dir.join(name).to_str().unwrap().to_string();
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
            "--fault",
            "200:0:17",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("HC3I simulation report"));
    assert!(
        stdout.contains("rollback #1"),
        "fault must appear: {stdout}"
    );
    assert!(!stdout.contains("WARNINGS"), "run must be clean: {stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_args_fail_with_usage() {
    let out = Command::new(bin()).args(["run"]).output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn unknown_subcommand_prints_usage() {
    let out = Command::new(bin()).args(["bogus"]).output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn runtime_mode_drives_live_substrate() {
    let dir = std::env::temp_dir().join(format!("hc3i-cli-runtime-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // A small workload so the live run stays fast in debug builds.
    let write = |name: &str, content: &str| {
        std::fs::write(dir.join(name), content).unwrap();
    };
    write(
        "topology.conf",
        "clusters 2\nnodes 4 4\nintra 0 10us 80Mbps\nintra 1 10us 80Mbps\n\
         inter 0 1 150us 100Mbps\nmtbf inf\n",
    );
    write(
        "application.conf",
        "duration 10m\npayload 256\ncompute_mean 0 30s\ncompute_mean 1 30s\n\
         pattern 0 0.9 0.1\npattern 1 0.1 0.9\n",
    );
    write(
        "timers.conf",
        "clc_timer 0 5m\nclc_timer 1 inf\ngc_timer 5m\ndetection_delay 100ms\n",
    );
    let arg = |name: &str| dir.join(name).to_str().unwrap().to_string();
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
            "11",
            "--runtime",
            "--shards",
            "2",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("live substrate"), "{stdout}");
    assert!(stdout.contains("HC3I simulation report"), "{stdout}");
    assert!(stdout.contains("gc #1"), "gc must have run: {stdout}");
    assert!(!stdout.contains("WARNINGS"), "run must be clean: {stdout}");
    // Every injected message was delivered (the report prints both).
    let line = stdout
        .lines()
        .find(|l| l.starts_with("messages: app sent"))
        .expect("messages line");
    let mut nums = line
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty());
    let sent: u64 = nums.next().unwrap().parse().unwrap();
    let delivered: u64 = nums.next().unwrap().parse().unwrap();
    assert_eq!(sent, delivered, "{line}");
    assert!(sent > 0, "{line}");

    // --runtime rejects simulator-only flags.
    let out = Command::new(bin())
        .args([
            "run",
            "--topology",
            &arg("topology.conf"),
            "--application",
            &arg("application.conf"),
            "--timers",
            &arg("timers.conf"),
            "--runtime",
            "--fault",
            "1:0:0",
        ])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("simulator-only"));
    std::fs::remove_dir_all(&dir).ok();
}

/// A small federation's three config files under `dir`; returns the
/// `run` arguments naming them.
fn small_configs(dir: &std::path::Path) -> Vec<String> {
    std::fs::create_dir_all(dir).unwrap();
    let files = [
        (
            "--topology",
            "topology.conf",
            "clusters 2\nnodes 3 3\nintra 0 10us 80Mbps\nintra 1 10us 80Mbps\n\
             inter 0 1 150us 100Mbps\nmtbf inf\n",
        ),
        (
            "--application",
            "application.conf",
            "duration 60m\npayload 256\ncompute_mean 0 30s\ncompute_mean 1 30s\n\
             pattern 0 0.9 0.1\npattern 1 0.1 0.9\n",
        ),
        (
            "--timers",
            "timers.conf",
            "clc_timer 0 5m\nclc_timer 1 7m\ngc_timer inf\ndetection_delay 100ms\n",
        ),
    ];
    let mut args = vec!["run".to_string()];
    for (flag, name, content) in files {
        std::fs::write(dir.join(name), content).unwrap();
        args.extend([
            flag.to_string(),
            dir.join(name).to_str().unwrap().to_string(),
        ]);
    }
    args
}

/// `--fault` names a node the topology does not have, or a minute count
/// whose nanoseconds overflow the clock: a usage error (exit 2, one
/// `error:` line saying which part is out of range), not an index panic
/// from inside the run or a fault at the wrapped-around time (26 s in).
/// A spec with a field past the rank is malformed (exit 2 and the usage),
/// not a fault at its first three fields.
#[test]
fn fault_on_a_node_outside_the_topology_is_a_usage_error() {
    let dir = std::env::temp_dir().join(format!("hc3i-cli-fault-range-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let args = small_configs(&dir);
    for (spec, problem) in [
        ("10:5:0", "cluster 5 out of range (topology has 2)"),
        ("10:0:999", "rank 999 out of range (cluster 0 has 3)"),
        (
            "307445735:0:2",
            "307445735 minutes is past the end of simulated time",
        ),
    ] {
        let out = Command::new(bin())
            .args(&args)
            .args(["--fault", spec])
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{spec}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            stderr.trim_end(),
            format!("error: --fault {spec}: {problem}")
        );
        assert!(out.stdout.is_empty(), "{spec}: no report");
    }
    let out = Command::new(bin())
        .args(&args)
        .args(["--fault", "5:0:1:9"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("error: --fault wants MINUTES:CLUSTER:RANK\nusage:"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "no report");
    std::fs::remove_dir_all(&dir).ok();
}

/// A `compute_mean` of zero parses as a duration, and a generator stepping
/// its clock by zero never reaches the horizon: the file is refused with
/// its line (exit 1, as for any bad config file) before anything is
/// scheduled, instead of the run filling memory until the allocator
/// aborts.
#[test]
fn a_zero_compute_mean_is_a_config_error_not_a_hang() {
    let dir = std::env::temp_dir().join(format!("hc3i-cli-zero-mean-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let args = small_configs(&dir);
    let app = dir.join("application.conf");
    std::fs::write(
        &app,
        "duration 60m\npayload 256\ncompute_mean 0 0s\ncompute_mean 1 30s\n\
         pattern 0 0.9 0.1\npattern 1 0.1 0.9\n",
    )
    .unwrap();
    let out = Command::new(bin()).args(&args).output().expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr).trim_end(),
        format!(
            "error: {}: line 3: compute_mean must be positive",
            app.display()
        )
    );
    assert!(out.stdout.is_empty(), "no report");
    std::fs::remove_dir_all(&dir).ok();
}

/// A zero CLC or GC delay re-arms its timer at the instant it fires and a
/// zero bandwidth delivers nothing: each file is refused with its line
/// before anything is scheduled, instead of a run that spins into the
/// event budget, fills memory, or reports zero deliveries and exits 0. An
/// empty cluster (which used to panic the run) and a self-link are refused
/// the same way, at their line.
#[test]
fn a_zero_timer_or_bandwidth_is_a_config_error_not_a_hang() {
    let dir = std::env::temp_dir().join(format!("hc3i-cli-zero-timer-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for (name, content, problem) in [
        (
            "timers.conf",
            "clc_timer 0 0s\nclc_timer 1 7m\n",
            "line 1: clc_timer delay must be positive",
        ),
        (
            "timers.conf",
            "clc_timer 0 5m\nclc_timer 1 7m\ngc_timer 0s\n",
            "line 3: gc_timer delay must be positive",
        ),
        (
            "topology.conf",
            "clusters 2\nnodes 3 3\nintra 0 10us 0bps\n",
            "line 3: link bandwidth must be positive",
        ),
        (
            "topology.conf",
            "clusters 2\nnodes 0 100\n",
            "line 2: a cluster needs at least one node",
        ),
        (
            "topology.conf",
            "clusters 2\nnodes 3 3\ninter 0 0 150us 100Mbps\n",
            "line 3: inter pair out of range",
        ),
    ] {
        let args = small_configs(&dir);
        let file = dir.join(name);
        std::fs::write(&file, content).unwrap();
        let out = Command::new(bin()).args(&args).output().expect("spawn");
        assert_eq!(out.status.code(), Some(1), "{problem}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr).trim_end(),
            format!("error: {}: {problem}", file.display())
        );
        assert!(out.stdout.is_empty(), "{problem}: no report");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The simulator has one executive: the flag that used to pick a shard
/// count is an unknown option on both subcommands. (Spelled in two
/// halves so a grep of the tree for the old knob stays empty.)
#[test]
fn the_simulator_shard_flag_is_gone() {
    let flag = concat!("--sim", "-shards");
    let dir = std::env::temp_dir().join(format!("hc3i-cli-no-knob-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut run = small_configs(&dir);
    run.extend([flag.to_string(), "2".to_string()]);
    let campaign = ["campaign".to_string(), flag.to_string(), "2".to_string()];
    for cmd in [&run[..], &campaign[..]] {
        let out = Command::new(bin()).args(cmd).output().expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{cmd:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("error: unknown "), "{stderr}");
        assert!(
            stderr.contains(flag) && stderr.contains("usage:"),
            "{stderr}"
        );
        assert!(!stderr[stderr.find("usage:").unwrap()..].contains(flag));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn durable_dir_that_holds_a_log_is_refused_and_left_alone() {
    let dir = std::env::temp_dir().join(format!("hc3i-cli-used-dir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut args = small_configs(&dir);
    let log_dir = dir.join("log");
    args.extend([
        "--durable-dir".to_string(),
        log_dir.to_str().unwrap().to_string(),
    ]);
    let run = |extra: &[&str]| {
        Command::new(bin())
            .args(&args)
            .args(extra)
            .output()
            .expect("spawn")
    };
    let first = run(&[]);
    assert!(
        first.status.success(),
        "{}",
        String::from_utf8_lossy(&first.stderr)
    );
    let segment = log_dir.join("seg-00000000.log");
    let before = std::fs::read(&segment).expect("the first run left a log");

    // The same directory again, on either substrate: one `error:` line,
    // exit 1 (not a panic's 101), the log byte-identical.
    for extra in [&[][..], &["--runtime", "--shards", "1"]] {
        let again = run(extra);
        assert_eq!(again.status.code(), Some(1), "{extra:?}");
        let stderr = String::from_utf8_lossy(&again.stderr);
        assert_eq!(stderr.lines().count(), 1, "{stderr}");
        assert!(stderr.starts_with("error: "), "{stderr}");
        assert!(
            stderr.contains("already holds a segment log; recover it or use a fresh directory"),
            "{stderr}"
        );
        assert_eq!(std::fs::read(&segment).unwrap(), before, "log untouched");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `--durable-dir` names a directory that cannot be created (`/proc` holds
/// no new entries): one `error:` line naming it, exit 1, no report —
/// refused before a store is opened, not a panic's 101 from opening it.
fn uncreatable_durable_dir_is_an_error(substrate: &[&str], tag: &str) {
    let dir = std::env::temp_dir().join(format!("hc3i-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(bin())
        .args(small_configs(&dir))
        .args(["--durable-dir", "/proc/nope/x"])
        .args(substrate)
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1), "{substrate:?}");
    assert!(out.stdout.is_empty(), "{substrate:?}: no report");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.starts_with("error: /proc/nope/x: "), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_uncreatable_durable_dir_is_an_error_not_a_panic() {
    uncreatable_durable_dir_is_an_error(&[], "nodir-sim");
}

#[test]
fn an_uncreatable_durable_dir_is_an_error_not_a_panic_on_the_runtime() {
    uncreatable_durable_dir_is_an_error(&["--runtime", "--shards", "1"], "nodir-rt");
}

/// `hc3i-sim sample-configs DIR | head -0`: the reader is gone before the
/// first line. The files are the work, so all three are written, and the
/// exit is a quiet success, not a panic from printing.
#[test]
fn sample_configs_into_a_closed_pipe_still_writes_every_file() {
    let dir = std::env::temp_dir().join(format!("hc3i-cli-sample-pipe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(bin())
        .args(["sample-configs", dir.to_str().unwrap()])
        .stdout(writer)
        .output()
        .expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert_eq!(stderr, "");
    for name in ["topology.conf", "application.conf", "timers.conf"] {
        assert!(dir.join(name).is_file(), "{name} written");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_closed_stdout_pipe_is_a_quiet_success() {
    use std::io::Read;
    use std::process::Stdio;
    let dir = std::env::temp_dir().join(format!("hc3i-cli-pipe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Both commands print more than a pipe holds (64 KiB), so each is
    // blocked mid-report when the reader leaves: a full trace of the
    // run, and the recovery report of a 2,000-node log.
    let mut traced = small_configs(&dir);
    traced.extend(["--trace".to_string(), "full".to_string()]);
    let log_dir = dir.join("log");
    {
        let genesis = hc3i_core::NodeEngine::new(
            hc3i_core::ProtocolConfig::new(vec![1]),
            netsim::NodeId::new(0, 0),
        );
        let mut log = storage::DurableStore::open(
            &log_dir,
            hc3i_core::CheckpointCodec,
            storage::DurableOptions::default(),
        )
        .expect("open log");
        let mut chain = storage::ClcStore::new();
        let initial = genesis.store().latest().expect("initial CLC");
        chain.commit(initial.meta.clone(), hc3i_core::NodeCheckpoint::default());
        for node in 0..2000 {
            log.snapshot_node(node, &chain).expect("seed");
        }
        log.sync().expect("sync");
    }
    let recover = [
        "recover".to_string(),
        "--durable-dir".to_string(),
        log_dir.to_str().unwrap().to_string(),
    ];
    for cmd in [&traced[..], &recover[..]] {
        // `… | head -c 1`: read one byte, then hang up.
        let mut child = Command::new(bin())
            .args(cmd)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn");
        let mut stdout = child.stdout.take().expect("piped stdout");
        stdout.read_exact(&mut [0u8; 1]).expect("a first byte");
        drop(stdout);
        let out = child.wait_with_output().expect("wait");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{cmd:?}: {stderr}");
        assert_eq!(stderr, "", "{cmd:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `--seeds` takes `A..=B` ranges among its comma-separated seeds, in the
/// order given.
#[test]
fn campaign_seeds_take_ranges() {
    let out = Command::new(bin())
        .args(["campaign", "--seeds", "9,7..=8"])
        .output()
        .expect("spawn");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    // Seeds vary fastest: every scenario x topology runs 9, 7, 8.
    let seeds: Vec<&str> = stdout
        .lines()
        .filter_map(|line| line.split_whitespace().skip_while(|w| *w != "seed").nth(1))
        .collect();
    assert_eq!(seeds.len(), 63, "{stdout}");
    assert!(seeds.chunks(3).all(|c| c == ["9", "7", "8"]), "{stdout}");
}

/// A range whose end is below its start is a usage error, before any cell
/// runs.
#[test]
fn campaign_rejects_a_reversed_seed_range() {
    let out = Command::new(bin())
        .args(["campaign", "--seeds", "7,400..=1"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no cell may run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("error: --seeds range 400..=1 is reversed") && stderr.contains("usage:"),
        "{stderr}"
    );
}

/// A seed range as long as `u64` allows is parsed as a range, not spelled
/// out: the flag after it is read and refused (exit 2) where a list of
/// 2^64 seeds once aborted the process with `capacity overflow` (exit
/// 101).
#[test]
fn campaign_parses_the_widest_seed_range() {
    let out = Command::new(bin())
        .args(["campaign", "--seeds", "0..=18446744073709551615", "--json"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no cell may run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("error: --json needs a path\nusage:"),
        "{stderr}"
    );
}
