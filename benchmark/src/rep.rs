//! One rep of one workload: what it is given, what it hands back, and
//! the subprocess plumbing reps and the runner share.

use crate::json::Json;
use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How big a rep is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The size the end-to-end metrics are defined at.
    Full,
    /// A short run of the same code: supplies a layer's rows in the traced
    /// run of a workload that does not reach that layer itself.
    Probe,
    /// Seconds-free: unit-test smoke of generator and checker.
    Tiny,
}

impl Scale {
    /// Name, for labels.
    pub fn as_str(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Probe => "probe",
            Scale::Tiny => "tiny",
        }
    }

    /// Pick the value for this scale.
    pub fn pick<T>(self, full: T, probe: T, tiny: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Probe => probe,
            Scale::Tiny => tiny,
        }
    }
}

/// Everything a rep is given. The program under test sees only what the
/// rep generates from `seed`.
#[derive(Debug, Clone)]
pub struct RepCtx {
    /// Workload seed.
    pub seed: u64,
    /// Rep size.
    pub scale: Scale,
    /// Private scratch directory (exists, empty, removed by the caller).
    pub dir: PathBuf,
    /// The built `hc3i-sim`.
    pub sim_bin: PathBuf,
    /// Record spans and count allocations around the layer calls.
    pub traced: bool,
    /// Where a traced rep appends its spans (none: they are dropped).
    pub trace_file: Option<PathBuf>,
}

/// What a rep hands back.
#[derive(Debug, Default)]
pub struct RepOut {
    /// Metric name → value, for the names this rep measured.
    pub metrics: Vec<(String, f64)>,
    /// Operations attempted in the timed region.
    pub attempted: u64,
    /// Operations that failed, including each failed output check.
    pub failed: u64,
    /// Deterministic facts about the outputs. Equal across reps of one
    /// seed; equal to `expected.json` at the default seed.
    pub fingerprint: String,
    /// One line per failed check.
    pub errors: Vec<String>,
}

impl RepOut {
    /// Record a measurement.
    pub fn put(&mut self, name: &str, value: f64) {
        debug_assert!(
            !self.metrics.iter().any(|(n, _)| n == name),
            "{name} measured twice"
        );
        self.metrics.push((name.to_string(), value));
    }

    /// A measured value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Record a failed output check: one failed operation.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.errors.push(why.into());
    }

    /// Check `cond`, recording `why` as a failure when it does not hold.
    pub fn check(&mut self, cond: bool, why: impl FnOnce() -> String) {
        if !cond {
            self.fail(why());
        }
    }

    /// Fold a later phase of the same rep into this one.
    pub fn merge(&mut self, later: RepOut) {
        for (name, value) in later.metrics {
            self.put(&name, value);
        }
        self.attempted += later.attempted;
        self.failed += later.failed;
        if !later.fingerprint.is_empty() {
            if !self.fingerprint.is_empty() {
                self.fingerprint.push(' ');
            }
            self.fingerprint.push_str(&later.fingerprint);
        }
        self.errors.extend(later.errors);
    }

    /// The line a rep child prints.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(n, v)| (n.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("fingerprint", Json::str(&self.fingerprint)),
            (
                "errors",
                Json::Arr(self.errors.iter().map(Json::str).collect()),
            ),
        ])
    }

    /// Read back the line a rep child printed.
    pub fn from_json(v: &Json) -> Option<RepOut> {
        Some(RepOut {
            metrics: v
                .get("metrics")?
                .as_obj()?
                .iter()
                .map(|(n, v)| Some((n.clone(), v.as_f64()?)))
                .collect::<Option<_>>()?,
            attempted: v.get("attempted")?.as_u64()?,
            failed: v.get("failed")?.as_u64()?,
            fingerprint: v.get("fingerprint")?.as_str()?.to_string(),
            errors: v
                .get("errors")?
                .as_arr()?
                .iter()
                .map(|e| e.as_str().map(str::to_string))
                .collect::<Option<_>>()?,
        })
    }
}

/// FNV-1a over `bytes`: the fingerprint hash (not cryptographic; it pins
/// deterministic output against accidental change).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A finished subprocess.
pub struct Finished {
    /// Exit status.
    pub status: ExitStatus,
    /// Everything it wrote to stdout.
    pub stdout: Vec<u8>,
    /// Spawn to exit.
    pub wall: Duration,
}

/// Run `cmd` to completion with stdout captured, or kill it at `timeout`
/// (`Err` carries what it had printed). The clock stops when the child
/// has closed stdout and been reaped — no polling interval in the
/// measurement.
pub fn run_captured(mut cmd: Command, timeout: Duration) -> Result<Finished, String> {
    let t0 = Instant::now();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {:?}: {e}", cmd.get_program()))?;
    let mut pipe = child.stdout.take().expect("stdout was piped");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut buf = Vec::new();
        let _ = pipe.read_to_end(&mut buf);
        let _ = tx.send(());
        buf
    });
    let timed_out = rx.recv_timeout(timeout).is_err();
    if timed_out {
        let _ = child.kill();
    }
    let status = child.wait().map_err(|e| format!("wait: {e}"))?;
    let wall = t0.elapsed();
    let stdout = reader.join().map_err(|_| "stdout reader panicked")?;
    if timed_out {
        return Err(format!(
            "timed out after {timeout:?}; stdout so far: {}",
            String::from_utf8_lossy(&stdout)
        ));
    }
    Ok(Finished {
        status,
        stdout,
        wall,
    })
}

/// Bytes under `dir` (regular files, recursively).
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rep_out_round_trips_and_merges() {
        let mut a = RepOut::default();
        a.put("setup_s", 0.25);
        a.fingerprint = "built=1".into();
        let mut b = RepOut {
            attempted: 10,
            fingerprint: "events=5".into(),
            ..Default::default()
        };
        b.put("wall_s", 1.5);
        b.check(false, || "nope".into());
        b.check(true, || unreachable!());
        a.merge(b);
        assert_eq!((a.attempted, a.failed), (10, 1));
        assert_eq!(a.fingerprint, "built=1 events=5");
        let back = RepOut::from_json(&Json::parse(&a.to_json().compact()).unwrap()).unwrap();
        assert_eq!(back.metrics, a.metrics);
        assert_eq!(back.errors, vec!["nope".to_string()]);
        assert_eq!(back.get("wall_s"), Some(1.5));
        assert_eq!(back.get("absent"), None);
    }

    #[test]
    fn fnv_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn captures_output_and_kills_on_timeout() {
        let mut ok = Command::new("sh");
        ok.args(["-c", "echo hello; exit 3"]);
        let done = run_captured(ok, Duration::from_secs(10)).unwrap();
        assert_eq!(done.status.code(), Some(3));
        assert_eq!(done.stdout, b"hello\n");

        let mut hang = Command::new("sh");
        hang.args(["-c", "echo early; exec sleep 30"]);
        let t0 = Instant::now();
        let err = run_captured(hang, Duration::from_millis(200))
            .err()
            .expect("must time out");
        assert!(err.contains("timed out") && err.contains("early"), "{err}");
        assert!(t0.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn scale_picks_its_value() {
        assert_eq!(Scale::Full.pick(1, 2, 3), 1);
        assert_eq!(Scale::Probe.pick(1, 2, 3), 2);
        assert_eq!(Scale::Tiny.pick(1, 2, 3), 3);
    }
}
