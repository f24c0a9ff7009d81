//! Process discipline: every rep in a fresh child of this executable, a
//! discarded warm-up, a private scratch directory per child, and a
//! timeout that counts as a failed operation instead of a hang.
//!
//! Children run back to back and nothing else in the runner touches
//! memory. The sandbox's hypervisor takes back guest memory that has been
//! free for about two seconds (virtio-balloon free-page reporting); a
//! child that starts right after its twin exits gets the twin's pages
//! while the host still backs them, and its first-touch faults cost what
//! the guest kernel charges. A child that has to reach past them pays a
//! host fault per page: measured on a 1024-cluster `sim_mega`, 3.4 s
//! became 8 s, or 20 s after a pause. That is why the warm-up rep is
//! discarded, why `sim_mega` is sized so its two phases cycle well inside
//! two seconds, why workloads are measured one after another and not in
//! turns (tried: `sim_mega` 1.28 s in turns, 0.96 s in a row), and why
//! pre-touching memory from here (also tried) made `sim_dense` bimodal
//! instead of steady.

use crate::json::Json;
use crate::rep::{run_captured, RepOut};
use crate::workloads::Workload;
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A child that has not answered by now is killed and counted failed.
const REP_TIMEOUT: Duration = Duration::from_secs(120);
/// Timed reps a run takes at least, however short its time budget.
const MIN_REPS: usize = 3;

/// Where a run keeps its files.
pub struct Dirs {
    /// `benchmark/out`: scratch directories and the trace file.
    pub out: PathBuf,
    /// The built `hc3i-sim`.
    pub sim_bin: PathBuf,
}

impl Dirs {
    /// The trace file of the traced run.
    pub fn trace_file(&self) -> PathBuf {
        self.out.join("trace.jsonl")
    }
}

/// What one workload's reps of one run came to.
pub struct Measured {
    /// The workload.
    pub workload: &'static Workload,
    /// The first rep: untraced, discarded from the medians (it pays the
    /// host's first touch of everything), kept as `proc.cold_wall_s`.
    pub cold: Option<RepOut>,
    /// Timed untraced reps.
    pub untraced: Vec<RepOut>,
    /// Timed traced reps (traced runs only).
    pub traced: Vec<RepOut>,
    /// The isolated-layer probes and probe-size neighbours (traced runs).
    pub probes: Option<RepOut>,
    /// Failed operations that belong to no rep: timeouts, crashes,
    /// fingerprint mismatches.
    pub failed: u64,
    /// One line per such failure.
    pub errors: Vec<String>,
}

impl Measured {
    pub(crate) fn new(workload: &'static Workload) -> Self {
        Measured {
            workload,
            cold: None,
            untraced: Vec::new(),
            traced: Vec::new(),
            probes: None,
            failed: 0,
            errors: Vec::new(),
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.errors.push(why);
    }

    /// Every rep of the run, cold one first.
    pub fn all_reps(&self) -> impl Iterator<Item = &RepOut> {
        self.cold
            .iter()
            .chain(&self.untraced)
            .chain(&self.traced)
            .chain(&self.probes)
    }
}

/// Run one rep of `workload`: a fresh child per phase, results merged.
/// `Err` is a rep that produced no result (crash, timeout, garbage).
fn run_rep(
    dirs: &Dirs,
    workload: &Workload,
    phases: &[&str],
    seed: u64,
    traced: bool,
) -> Result<RepOut, String> {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let mut merged = RepOut::default();
    for phase in phases {
        let scratch = dirs.out.join(format!(
            "tmp-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&scratch).map_err(|e| format!("create {scratch:?}: {e}"))?;
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.arg("exec-one")
            .args(["--workload", workload.name])
            .args(["--phase", phase])
            .args(["--seed", &seed.to_string()])
            .arg("--dir")
            .arg(&scratch)
            .arg("--sim-bin")
            .arg(&dirs.sim_bin);
        if traced {
            cmd.arg("--trace-file").arg(dirs.trace_file());
        }
        let finished = run_captured(cmd, REP_TIMEOUT);
        let _ = std::fs::remove_dir_all(&scratch);
        let finished = finished.map_err(|e| format!("{} {phase}: {e}", workload.name))?;
        let text = String::from_utf8_lossy(&finished.stdout);
        let parsed = text
            .lines()
            .last()
            .and_then(|line| Json::parse(line).ok())
            .and_then(|v| RepOut::from_json(&v));
        match parsed {
            Some(out) if finished.status.success() => merged.merge(out),
            _ => {
                return Err(format!(
                    "{} {phase}: child exited with {} and no result",
                    workload.name, finished.status
                ))
            }
        }
    }
    Ok(merged)
}

/// Measure `workloads` for `seconds` of timed reps each, one workload
/// after another (not in turns: a rep must follow its twin, see above).
///
/// Untraced: one discarded warm-up rep, then timed reps until the budget
/// is spent (at least three). Traced: the cold rep, then traced and
/// untraced reps in turn until the budget is spent (at least one of
/// each), then one child for the probes.
pub fn measure(
    dirs: &Dirs,
    workloads: &[&'static Workload],
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Vec<Measured> {
    let budget = Duration::from_secs(seconds);
    if traced {
        let _ = std::fs::remove_file(dirs.trace_file());
    }
    workloads
        .iter()
        .map(|workload| {
            let mut m = Measured::new(workload);
            let mut spent = Duration::ZERO;
            // A workload that keeps failing stops taking reps.
            while m.failed < MIN_REPS as u64 {
                let warm_up = m.cold.is_none();
                let enough = if traced {
                    !m.traced.is_empty() && !m.untraced.is_empty()
                } else {
                    m.untraced.len() >= MIN_REPS
                };
                if enough && spent >= budget {
                    break;
                }
                let kinds: &[bool] = if warm_up || !traced {
                    &[false]
                } else {
                    &[true, false]
                };
                for &rep_traced in kinds {
                    let t0 = Instant::now();
                    let rep = run_rep(dirs, workload, workload.phases, seed, rep_traced);
                    if !warm_up {
                        spent += t0.elapsed();
                    }
                    match rep {
                        Err(why) => m.fail(why),
                        Ok(out) if warm_up => m.cold = Some(out),
                        Ok(out) if rep_traced => m.traced.push(out),
                        Ok(out) => m.untraced.push(out),
                    }
                }
            }
            if traced {
                match run_rep(dirs, workload, &["probes"], seed, true) {
                    Ok(out) => m.probes = Some(out),
                    Err(why) => m.fail(why),
                }
            }
            check_fingerprints(&mut m, seed);
            m
        })
        .collect()
}

/// Same seed, same outputs: every rep of a run carries one fingerprint,
/// and at the default seed it is the committed one.
fn check_fingerprints(m: &mut Measured, seed: u64) {
    let prints: Vec<String> = m
        .cold
        .iter()
        .chain(&m.untraced)
        .chain(&m.traced)
        .map(|r| r.fingerprint.clone())
        .collect();
    let Some(first) = prints.first() else { return };
    if let Some(other) = prints.iter().find(|p| *p != first) {
        m.fail(format!(
            "{}: outputs differ between reps of seed {seed}:\n  {first}\n  {other}",
            m.workload.name
        ));
    }
    if seed == crate::workloads::DEFAULT_SEED {
        match expected_fingerprint(m.workload.name) {
            Some(expected) if expected != *first => m.fail(format!(
                "{}: outputs differ from benchmark/expected.json:\n  expected {expected}\n  got      {first}",
                m.workload.name
            )),
            Some(_) => {}
            None => m.fail(format!(
                "{}: benchmark/expected.json has no entry; got {first}",
                m.workload.name
            )),
        }
    }
}

/// The committed outputs at the default seed.
const EXPECTED: &str = include_str!("../expected.json");

fn expected_fingerprint(workload: &str) -> Option<String> {
    Json::parse(EXPECTED)
        .expect("expected.json parses")
        .get("fingerprints")?
        .get(workload)?
        .as_str()
        .map(str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn expected_json_covers_every_workload_at_the_default_seed() {
        let doc = Json::parse(EXPECTED).unwrap();
        assert_eq!(
            doc.get("seed").and_then(Json::as_u64),
            Some(workloads::DEFAULT_SEED)
        );
        for w in &workloads::ALL {
            assert!(expected_fingerprint(w.name).is_some(), "{}", w.name);
        }
    }

    #[test]
    fn differing_fingerprints_are_a_failed_operation() {
        let rep = |fp: &str| RepOut {
            fingerprint: fp.into(),
            ..Default::default()
        };
        let mut m = Measured::new(&workloads::ALL[0]);
        m.cold = Some(rep("a"));
        m.untraced = vec![rep("a"), rep("a")];
        check_fingerprints(&mut m, 1);
        assert_eq!(m.failed, 0);
        m.traced.push(rep("b"));
        check_fingerprints(&mut m, 1);
        assert_eq!(m.failed, 1);
        assert!(m.errors[0].contains("differ between reps"));
        // At the default seed the committed value is checked too.
        let mut m = Measured::new(&workloads::ALL[0]);
        m.untraced = vec![rep("not what is committed")];
        check_fingerprints(&mut m, workloads::DEFAULT_SEED);
        assert_eq!(m.failed, 1);
        assert!(m.errors[0].contains("expected.json"));
    }
}
