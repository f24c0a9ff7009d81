//! Outside-in spans: one around each call the harness makes into a
//! layer's public functions. Kept in memory, written out at exit.
//!
//! All spans are recorded on the thread that drives the workload (the
//! program's own worker threads are inside the calls being timed), so the
//! collector is thread-local and the parent of a span is simply the
//! innermost span still open.

use crate::json::Json;
use std::cell::RefCell;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index in the recording (also the identifier written out).
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// Layer (crate) the call belongs to.
    pub layer: &'static str,
    /// The call.
    pub name: &'static str,
    /// Nanoseconds since the recording started.
    pub start_ns: u64,
    /// Nanoseconds since the recording started.
    pub end_ns: u64,
    /// Calls folded into this span: 1 for a plain span; more for an
    /// [`Acc`], whose interval is `start of first call .. + busy time`.
    pub calls: u64,
}

impl Span {
    /// Span length.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recording {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDING: RefCell<Option<Recording>> = const { RefCell::new(None) };
}

/// Start recording on this thread.
pub fn start() {
    RECORDING.with(|r| {
        *r.borrow_mut() = Some(Recording {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        })
    });
}

/// Is this thread recording?
pub fn enabled() -> bool {
    RECORDING.with(|r| r.borrow().is_some())
}

/// Stop recording and hand back the spans (empty if never started).
pub fn finish() -> Vec<Span> {
    RECORDING.with(|r| r.borrow_mut().take().map_or_else(Vec::new, |rec| rec.spans))
}

/// Closes its span when dropped.
#[must_use = "a span covers the scope its guard lives in"]
pub struct Guard(Option<usize>);

/// Open a span around a call into `layer`; a no-op when not recording.
pub fn span(layer: &'static str, name: &'static str) -> Guard {
    RECORDING.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut() else {
            return Guard(None);
        };
        let id = rec.spans.len();
        let now = rec.epoch.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            id,
            parent: rec.open.last().copied(),
            layer,
            name,
            start_ns: now,
            end_ns: now,
            calls: 1,
        });
        rec.open.push(id);
        Guard(Some(id))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(id) = self.0 else { return };
        RECORDING.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[id].end_ns = rec.epoch.elapsed().as_nanos() as u64;
                // Guards drop innermost-first; anything else is a harness bug.
                assert_eq!(rec.open.pop(), Some(id), "span guards dropped out of order");
            }
        });
    }
}

/// Time `f` under a span.
pub fn in_span<R>(layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
    let _g = span(layer, name);
    f()
}

/// A span folded over many short calls (a per-message `send_app`): one
/// record with the call count and the summed busy time, instead of
/// millions of records. Costs two clock reads per call while recording
/// and nothing otherwise.
pub struct Acc {
    layer: &'static str,
    name: &'static str,
    on: bool,
    first: Option<Instant>,
    busy_ns: u64,
    calls: u64,
}

impl Acc {
    /// An accumulator for calls into `layer`.
    pub fn new(layer: &'static str, name: &'static str) -> Acc {
        Acc {
            layer,
            name,
            on: enabled(),
            first: None,
            busy_ns: 0,
            calls: 0,
        }
    }

    /// Run `f`, adding its time when recording.
    #[inline]
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        self.busy_ns += t0.elapsed().as_nanos() as u64;
        self.calls += 1;
        self.first.get_or_insert(t0);
        r
    }

    /// Mean nanoseconds per call (0 when nothing was timed).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.busy_ns as f64 / self.calls as f64
        }
    }

    /// Record the folded span as a child of the innermost open span.
    pub fn flush(self) {
        let Some(first) = self.first else { return };
        RECORDING.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                let id = rec.spans.len();
                let start_ns = first.saturating_duration_since(rec.epoch).as_nanos() as u64;
                rec.spans.push(Span {
                    id,
                    parent: rec.open.last().copied(),
                    layer: self.layer,
                    name: self.name,
                    start_ns,
                    end_ns: start_ns + self.busy_ns,
                    calls: self.calls,
                });
            }
        });
    }
}

/// Self time of every span: its length minus the part of it its children
/// cover. Plain children may nest or overlap each other (their union is
/// subtracted once); folded children are busy time of sequential calls
/// that overlap nothing, so their lengths are subtracted as they are.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut plain: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    let mut folded = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if s.calls > 1 {
                folded[p] += s.dur_ns();
            } else {
                // Clip to the parent: a child cannot take more than it has.
                let (lo, hi) = (
                    s.start_ns.max(spans[p].start_ns),
                    s.end_ns.min(spans[p].end_ns),
                );
                if hi > lo {
                    plain[p].push((lo, hi));
                }
            }
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv = std::mem::take(&mut plain[s.id]);
            iv.sort_unstable();
            let (mut covered, mut reach) = (0u64, 0u64);
            for (lo, hi) in iv {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.dur_ns().saturating_sub(covered + folded[s.id])
        })
        .collect()
}

/// Self time summed per layer, largest first.
pub fn layer_self_ns(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut by_layer: Vec<(&'static str, u64)> = Vec::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        match by_layer.iter_mut().find(|(l, _)| *l == s.layer) {
            Some((_, total)) => *total += own,
            None => by_layer.push((s.layer, own)),
        }
    }
    by_layer.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
    by_layer
}

/// The trace file's lines for one workload's spans.
pub fn to_jsonl(workload: &str, spans: &[Span]) -> String {
    let own = self_times_ns(spans);
    let mut out = String::new();
    for (s, own) in spans.iter().zip(own) {
        let row = Json::obj([
            ("workload", Json::str(workload)),
            ("id", Json::Num(s.id as f64)),
            (
                "parent",
                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
            ),
            ("layer", Json::str(s.layer)),
            ("name", Json::str(s.name)),
            ("start_ns", Json::Num(s.start_ns as f64)),
            ("end_ns", Json::Num(s.end_ns as f64)),
            ("calls", Json::Num(s.calls as f64)),
            ("self_ns", Json::Num(own as f64)),
        ]);
        out.push_str(&row.compact());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: usize, parent: Option<usize>, start: u64, end: u64, calls: u64) -> Span {
        Span {
            id,
            parent,
            layer: if id.is_multiple_of(2) { "even" } else { "odd" },
            name: "s",
            start_ns: start,
            end_ns: end,
            calls,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        // root 0..100 > a 10..60 > b 20..30 ; root > c 70..90
        let spans = vec![
            sp(0, None, 0, 100, 1),
            sp(1, Some(0), 10, 60, 1),
            sp(2, Some(1), 20, 30, 1),
            sp(3, Some(0), 70, 90, 1),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 40, 10, 20]);
        // even: root 30 + b 10; odd: a 40 + c 20.
        assert_eq!(layer_self_ns(&spans), vec![("odd", 60), ("even", 40)]);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // children 10..50 and 30..70 overlap by 20; a third lies inside.
        let spans = vec![
            sp(0, None, 0, 100, 1),
            sp(1, Some(0), 10, 50, 1),
            sp(2, Some(0), 30, 70, 1),
            sp(3, Some(0), 35, 45, 1),
        ];
        assert_eq!(self_times_ns(&spans)[0], 40);
    }

    #[test]
    fn folded_children_subtract_their_busy_time() {
        // Two folded children both "start" at 10: their intervals overlap
        // on paper, their calls never did.
        let spans = vec![
            sp(0, None, 0, 100, 1),
            sp(1, Some(0), 10, 40, 1000),
            sp(2, Some(0), 10, 30, 500),
        ];
        assert_eq!(self_times_ns(&spans)[0], 50);
    }

    #[test]
    fn child_outliving_its_parent_is_clipped() {
        let spans = vec![sp(0, None, 10, 20, 1), sp(1, Some(0), 15, 40, 1)];
        assert_eq!(self_times_ns(&spans), vec![5, 25]);
    }

    #[test]
    fn recording_links_parents_and_folds_hot_calls() {
        assert!(!enabled());
        drop(span("x", "ignored"));
        start();
        {
            let _outer = span("runtime", "wave");
            in_span("core", "inner", || std::hint::black_box(1 + 1));
            let mut acc = Acc::new("runtime", "send_app");
            for _ in 0..10 {
                acc.time(|| std::hint::black_box(2 * 2));
            }
            assert!(acc.mean_ns() >= 0.0);
            acc.flush();
        }
        let spans = finish();
        assert!(!enabled());
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[2].parent, spans[2].calls), (Some(0), 10));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let text = to_jsonl("w", &spans);
        assert_eq!(text.lines().count(), 3);
        let first = Json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(first.get("workload").unwrap().as_str(), Some("w"));
        assert_eq!(first.get("parent"), Some(&Json::Null));
    }

    #[test]
    fn acc_outside_a_recording_times_nothing() {
        let mut acc = Acc::new("runtime", "send_app");
        assert_eq!(acc.time(|| 7), 7);
        assert_eq!(acc.mean_ns(), 0.0);
        acc.flush();
        assert!(finish().is_empty());
    }
}
