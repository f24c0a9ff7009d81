//! Execution tracing.
//!
//! The paper's simulator "can be compiled with different trace levels. With
//! the higher trace level, we can observe each node time-stamped action".
//! We reproduce that as a runtime-configurable tracer: models emit
//! `(time, subsystem, message)` records; the sink either drops or stores
//! them, depending on the configured level.

use crate::time::SimTime;

/// How much detail the tracer keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TraceLevel {
    /// Keep nothing (statistics only) — the paper's "lowest output".
    #[default]
    Off,
    /// Keep protocol-level actions (checkpoints, rollbacks, GC).
    Protocol,
    /// Keep everything, including every message send/receive and timer fire.
    Full,
}

/// A single time-stamped trace record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// When the action happened.
    pub at: SimTime,
    /// Subsystem tag, e.g. `"clc"`, `"net"`, `"rollback"`.
    pub subsystem: &'static str,
    /// Human-readable description.
    pub detail: String,
}

/// Collects trace records according to the configured level.
#[derive(Debug, Default)]
pub struct Tracer {
    level: TraceLevel,
    records: Vec<TraceRecord>,
}

impl Tracer {
    /// A tracer keeping records at `level`.
    pub fn new(level: TraceLevel) -> Self {
        Tracer {
            level,
            records: vec![],
        }
    }

    /// Whether records needing `level` are currently kept. Hot paths guard
    /// on this to skip even *constructing* the record closure and its
    /// captured arguments.
    #[inline]
    pub fn enabled(&self, level: TraceLevel) -> bool {
        self.level >= level
    }

    /// Record a protocol-level action (kept at `Protocol` and `Full`).
    pub fn protocol(
        &mut self,
        at: SimTime,
        subsystem: &'static str,
        detail: impl FnOnce() -> String,
    ) {
        self.emit(TraceLevel::Protocol, at, subsystem, detail);
    }

    /// Record a fine-grained action (kept only at `Full`).
    pub fn full(&mut self, at: SimTime, subsystem: &'static str, detail: impl FnOnce() -> String) {
        self.emit(TraceLevel::Full, at, subsystem, detail);
    }

    fn emit(
        &mut self,
        needs: TraceLevel,
        at: SimTime,
        subsystem: &'static str,
        detail: impl FnOnce() -> String,
    ) {
        if self.level < needs {
            return;
        }
        self.records.push(TraceRecord {
            at,
            subsystem,
            detail: detail(),
        });
    }

    /// All kept records, in emission order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Records for one subsystem.
    pub fn by_subsystem<'a>(&'a self, subsystem: &str) -> impl Iterator<Item = &'a TraceRecord> {
        let owned = subsystem.to_string();
        self.records
            .iter()
            .filter(move |r| r.subsystem == owned.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_drops_everything() {
        let mut t = Tracer::new(TraceLevel::Off);
        t.protocol(SimTime::ZERO, "clc", || "commit".into());
        t.full(SimTime::ZERO, "net", || "send".into());
        assert!(t.records().is_empty());
    }

    #[test]
    fn protocol_keeps_protocol_only() {
        let mut t = Tracer::new(TraceLevel::Protocol);
        t.protocol(SimTime::ZERO, "clc", || "commit".into());
        t.full(SimTime::ZERO, "net", || "send".into());
        assert_eq!(t.records().len(), 1);
        assert_eq!(t.records()[0].subsystem, "clc");
    }

    #[test]
    fn full_keeps_everything_in_order() {
        let mut t = Tracer::new(TraceLevel::Full);
        t.protocol(SimTime::ZERO, "clc", || "a".into());
        t.full(SimTime::ZERO, "net", || "b".into());
        assert_eq!(t.records().len(), 2);
        assert_eq!(t.records()[0].detail, "a");
        assert_eq!(t.records()[1].detail, "b");
    }

    #[test]
    fn by_subsystem_filters() {
        let mut t = Tracer::new(TraceLevel::Full);
        t.full(SimTime::ZERO, "net", || "1".into());
        t.full(SimTime::ZERO, "clc", || "2".into());
        t.full(SimTime::ZERO, "net", || "3".into());
        let net: Vec<_> = t.by_subsystem("net").map(|r| r.detail.clone()).collect();
        assert_eq!(net, vec!["1", "3"]);
    }

    #[test]
    fn closures_not_evaluated_when_dropped() {
        let mut t = Tracer::new(TraceLevel::Off);
        let mut evaluated = false;
        t.full(SimTime::ZERO, "net", || {
            evaluated = true;
            String::new()
        });
        assert!(!evaluated, "detail closure must be lazy");
    }
}
