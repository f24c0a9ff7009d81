//! From reps to numbers: the value, median and quartiles of the end-to-end metrics,
//! the per-layer rows of a traced run, the driver's result line, the
//! printed table and the recorded baseline.

use crate::json::Json;
use crate::metrics::{self, Over, Times, END_TO_END, PER_LAYER};
use crate::rep::RepOut;
use crate::runner::Measured;
use crate::stats;
use std::fmt::Write as _;

/// One metric over a run's reps: the reported value, and the spread of
/// the samples it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    /// The run's number: the median, or for end-to-end times the fastest
    /// rep or the first quartile (see [`Times`]).
    pub value: f64,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Reps.
    pub n: usize,
}

fn stat(values: &[f64]) -> Option<Stat> {
    if values.is_empty() {
        return None;
    }
    let (q1, q3) = stats::quartiles(values);
    let median = stats::median(values);
    Some(Stat {
        value: median,
        median,
        q1,
        q3,
        n: values.len(),
    })
}

fn samples(reps: &[RepOut], name: &str) -> Vec<f64> {
    reps.iter().filter_map(|r| r.get(name)).collect()
}

/// One workload's results of one run.
pub struct Summary {
    /// Workload name.
    pub workload: &'static str,
    /// Operations attempted over the timed reps.
    pub attempted: u64,
    /// Operations failed, output checks included.
    pub failed: u64,
    /// Metric name → statistic, in table order.
    pub metrics: Vec<(&'static str, Stat)>,
    /// What failed, one line each.
    pub errors: Vec<String>,
}

impl Summary {
    /// Did every operation succeed and every metric get measured?
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// A metric's statistic.
    pub fn get(&self, name: &str) -> Option<&Stat> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s)
    }

    /// The result line the benchmark contract asks for.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, s)| {
                            (
                                name.to_string(),
                                Json::obj([
                                    ("value", Json::Num(s.value)),
                                    ("unit", Json::str(unit_of(name))),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
        .compact()
    }
}

fn tally(m: &Measured) -> (u64, u64, Vec<String>) {
    let attempted = m.untraced.iter().map(|r| r.attempted).sum();
    // Failures count wherever they happened: a failed check in the
    // warm-up or a probe is as wrong as one in a timed rep.
    let failed = m.failed + m.all_reps().map(|r| r.failed).sum::<u64>();
    let errors = m
        .errors
        .iter()
        .cloned()
        .chain(m.all_reps().flat_map(|r| r.errors.iter().cloned()))
        .collect();
    (attempted, failed, errors)
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(m: &Measured) -> Summary {
    let (attempted, mut failed, mut errors) = tally(m);
    let mut metrics = Vec::new();
    for def in &END_TO_END {
        let reps = samples(&m.untraced, def.name);
        match stat(&reps) {
            Some(mut s) => {
                if def.over == Over::Time {
                    s.value = match m.workload.times {
                        Times::Fastest => reps.iter().copied().fold(s.value, f64::min),
                        Times::FirstQuartile => s.q1,
                    };
                }
                metrics.push((def.name, s))
            }
            None => {
                failed += 1;
                errors.push(format!(
                    "{}: {} was not measured",
                    m.workload.name, def.name
                ));
            }
        }
    }
    Summary {
        workload: m.workload.name,
        attempted,
        failed,
        metrics,
        errors,
    }
}

/// The per-layer rows of a traced run. A row comes from the untraced reps
/// when they carry it (nothing perturbs them), else from the traced reps,
/// else from the probes; the derived rows are computed last.
pub fn per_layer(m: &Measured) -> Summary {
    let (attempted, mut failed, mut errors) = tally(m);
    let probes = m.probes.as_slice();
    let find = |name: &str| -> Option<Stat> {
        let own: &[&[RepOut]] = &[&m.untraced, &m.traced];
        own.iter()
            .chain(
                // Never another workload's process rows.
                (!metrics::is_own_process_row(name)).then_some(&probes),
            )
            .find_map(|reps| stat(&samples(reps, name)))
    };
    let mut metrics: Vec<(&'static str, Stat)> = Vec::new();
    for def in &PER_LAYER {
        let derived = match def.name {
            "proc.cold_wall_s" => m.cold.as_ref().and_then(|c| c.get("wall_s")).map(one),
            // Quartile against quartile, as for the end-to-end times.
            "trace.overhead_pct" => {
                match (
                    stat(&samples(&m.traced, "wall_s")),
                    stat(&samples(&m.untraced, "wall_s")),
                ) {
                    (Some(t), Some(u)) => Some(one((t.q1 / u.q1 - 1.0) * 100.0)),
                    _ => None,
                }
            }
            "simdriver.glue_ns_per_event" => glue(&find),
            // The request latency in units of this disk's fsync: how many
            // flushes a checkpoint request waits for, whatever they cost.
            "durable.p50_fsyncs" => match (find("durable.lat_p50_us"), find("storage.fsync_us")) {
                (Some(lat), Some(fsync)) => Some(one(lat.median / fsync.median)),
                _ => None,
            },
            name => find(name),
        };
        match derived {
            Some(s) => metrics.push((def.name, s)),
            None => {
                failed += 1;
                errors.push(format!(
                    "{}: {} was not measured",
                    m.workload.name, def.name
                ));
            }
        }
    }
    Summary {
        workload: m.workload.name,
        attempted,
        failed,
        metrics,
        errors,
    }
}

fn one(value: f64) -> Stat {
    Stat {
        value,
        median: value,
        q1: value,
        q3: value,
        n: 1,
    }
}

/// `simdriver.glue_ns_per_event`: what is left of the simulator's time
/// per event after the isolated desim, netsim and engine costs, each
/// weighted by how often the run calls it per event. A computed
/// residual, indicative only: the isolated layers run warmer than they do
/// inside the run.
fn glue(find: &impl Fn(&str) -> Option<Stat>) -> Option<Stat> {
    let v = |name: &str| find(name).map(|s| s.median);
    Some(one(v("simdriver.ns_per_event")?
        - v("desim.exec_ns_per_event")?
        - v("netsim.send_ns_per_msg")?
            * v("sim.wire_msgs_per_event")?
        - v("core.handle_ns_per_input")?
            * v("sim.app_sends_per_event")?))
}

/// Unit of a metric of either table.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| metrics::per_layer(name).map(|m| m.unit))
        .unwrap_or("")
}

/// Print what failed in a run; `true` when nothing did.
pub fn print_failures(summaries: &[Summary]) -> bool {
    let mut ok = true;
    for s in summaries {
        for e in &s.errors {
            eprintln!("FAILED {}: {e}", s.workload);
        }
        ok &= s.correct();
    }
    ok
}

/// The timed reps' samples of the end-to-end metrics, one line each: what
/// the numbers of [`table`] were taken from.
pub fn samples_lines(m: &Measured) -> String {
    let mut out = String::new();
    for def in &END_TO_END {
        let _ = write!(out, "{:<16} {:<12} reps:", m.workload.name, def.name);
        for v in samples(&m.untraced, def.name) {
            let _ = write!(out, " {v:.4}");
        }
        out.push('\n');
    }
    out
}

/// The printed table of a run.
pub fn table(summaries: &[Summary]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:<36} {:<6} {:>14} {:>14} {:>14} {:>14} {:>5}",
        "workload", "metric", "unit", "value", "median", "q1", "q3", "reps"
    );
    for s in summaries {
        for (name, st) in &s.metrics {
            let _ = writeln!(
                out,
                "{:<16} {:<36} {:<6} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>5}",
                s.workload,
                name,
                unit_of(name),
                st.value,
                st.median,
                st.q1,
                st.q3,
                st.n
            );
        }
        let _ = writeln!(
            out,
            "{:<16} {:<36} {:<6} {:>14}",
            s.workload,
            "fail_ratio",
            "ratio",
            format!("{}/{}", s.failed, s.attempted),
        );
    }
    out
}

/// Where two runs of the same build disagree by more than a metric's
/// bound: `(workload, metric, first value, second value, bound)`.
pub fn disagreements(
    first: &[Summary],
    second: &[Summary],
) -> Vec<(&'static str, &'static str, f64, f64, f64)> {
    let mut out = Vec::new();
    for (a, b) in first.iter().zip(second) {
        for def in &END_TO_END {
            if let (Some(x), Some(y)) = (a.get(def.name), b.get(def.name)) {
                if (y.value - x.value).abs() / x.value > def.bound {
                    out.push((a.workload, def.name, x.value, y.value, def.bound));
                }
            }
        }
    }
    out
}

/// A run's summaries as JSON (baseline files).
pub fn summaries_json(summaries: &[Summary]) -> Json {
    Json::Obj(
        summaries
            .iter()
            .map(|s| {
                let mut rows: Vec<(String, Json)> = s
                    .metrics
                    .iter()
                    .map(|(name, st)| {
                        (
                            name.to_string(),
                            Json::obj([
                                ("value", Json::Num(st.value)),
                                ("median", Json::Num(st.median)),
                                ("q1", Json::Num(st.q1)),
                                ("q3", Json::Num(st.q3)),
                                ("reps", Json::Num(st.n as f64)),
                                ("unit", Json::str(unit_of(name))),
                            ]),
                        )
                    })
                    .collect();
                rows.push(("attempted".into(), Json::Num(s.attempted as f64)));
                rows.push(("failed".into(), Json::Num(s.failed as f64)));
                (s.workload.to_string(), Json::Obj(rows))
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    fn rep(pairs: &[(&str, f64)], attempted: u64) -> RepOut {
        let mut r = RepOut {
            attempted,
            fingerprint: "x".into(),
            ..Default::default()
        };
        for (n, v) in pairs {
            r.put(n, *v);
        }
        r
    }

    fn measured() -> Measured {
        Measured::new(&workloads::ALL[0])
    }

    #[test]
    fn end_to_end_takes_the_runs_value_and_counts_missing_metrics() {
        let mut m = measured();
        for (w, s, r) in [(1.0, 0.1, 10.0), (3.0, 0.3, 30.0), (2.0, 0.2, 20.0)] {
            m.untraced.push(rep(
                &[("wall_s", w), ("setup_s", s), ("peak_rss_mb", r)],
                100,
            ));
        }
        let s = end_to_end(&m);
        assert!(s.correct(), "{:?}", s.errors);
        assert_eq!(s.attempted, 300);
        // A time of `sim_dense` is its fastest rep; a size its median.
        assert_eq!(s.get("wall_s").unwrap().value, 1.0);
        assert_eq!(s.get("wall_s").unwrap().median, 2.0);
        assert_eq!(s.get("wall_s").unwrap().n, 3);
        assert_eq!(s.get("peak_rss_mb").unwrap().value, 20.0);
        let line = s.result_line();
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let wall = doc.get("metrics").unwrap().get("wall_s").unwrap();
        assert_eq!(wall.get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(doc.as_obj().unwrap().len(), 4);

        m.untraced
            .iter_mut()
            .for_each(|r| r.metrics.retain(|(n, _)| n != "setup_s"));
        let s = end_to_end(&m);
        assert!(!s.correct());
        assert!(s.errors[0].contains("setup_s was not measured"));
    }

    #[test]
    fn a_failed_check_in_any_rep_fails_the_run() {
        let mut m = measured();
        m.untraced.push(rep(
            &[("wall_s", 1.0), ("setup_s", 1.0), ("peak_rss_mb", 1.0)],
            5,
        ));
        let mut cold = rep(&[], 5);
        cold.fail("stdout hash differs");
        m.cold = Some(cold);
        let s = end_to_end(&m);
        assert_eq!((s.attempted, s.failed), (5, 1));
        assert_eq!(s.errors, vec!["stdout hash differs".to_string()]);
    }

    #[test]
    fn per_layer_prefers_untraced_then_traced_then_probes() {
        let mut m = measured();
        m.cold = Some(rep(&[("wall_s", 9.0)], 1));
        m.untraced
            .push(rep(&[("wall_s", 2.0), ("runtime.lat_p50_us", 50.0)], 1));
        m.traced.push(rep(
            &[
                ("wall_s", 2.5),
                ("runtime.lat_p50_us", 70.0),
                ("alloc.count_per_op", 3.0),
            ],
            1,
        ));
        m.probes = Some(rep(
            &[
                ("alloc.count_per_op", 99.0),
                ("alloc.bytes_per_op", 99.0),
                ("desim.cancel_ns", 12.0),
            ],
            0,
        ));
        let s = per_layer(&m);
        assert_eq!(s.get("runtime.lat_p50_us").unwrap().median, 50.0);
        assert_eq!(s.get("alloc.count_per_op").unwrap().median, 3.0);
        assert_eq!(s.get("desim.cancel_ns").unwrap().median, 12.0);
        assert_eq!(s.get("proc.cold_wall_s").unwrap().median, 9.0);
        assert_eq!(s.get("trace.overhead_pct").unwrap().median, 25.0);
        // A process row is never borrowed from the probes' process.
        assert!(s.get("alloc.bytes_per_op").is_none());
        assert!(!s.correct(), "unmeasured rows fail the run");
    }

    #[test]
    fn disagreement_is_relative_to_the_first_run() {
        let run = |wall: f64| {
            let mut m = measured();
            m.untraced.push(rep(
                &[("wall_s", wall), ("setup_s", 1.0), ("peak_rss_mb", 1.0)],
                1,
            ));
            vec![end_to_end(&m)]
        };
        assert!(disagreements(&run(1.0), &run(1.2)).is_empty());
        let d = disagreements(&run(1.0), &run(0.7));
        assert_eq!(d.len(), 1);
        assert_eq!((d[0].0, d[0].1), ("sim_dense", "wall_s"));
    }
}
