//! The run's trace: typed, time-stamped records, rendered in one place.
//!
//! The paper's simulator "can be compiled with different trace levels.
//! With the higher trace level, we can observe each node time-stamped
//! action" (§5.1). Here the level is [`TraceLevel`], chosen per run, and a
//! record is what the world already holds when it happens — the
//! [`ProtoEvent`] its host emitted, a wire copy, a partition cut — not a
//! string. [`render`] is the one formatter; other views (a JSON line per
//! record, a rollback explanation) are further functions over the same
//! records.

use crate::config::TraceLevel;
use desim::SimTime;
use hc3i_core::{Msg, ProtoEvent};
use netsim::NodeId;
use std::fmt;
use std::io;

/// One recorded thing that happened in a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A protocol event, as the simulator's host emitted it.
    Proto(ProtoEvent),
    /// One copy of a message put on the wire.
    Wire {
        /// Sending node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// The message.
        msg: Msg,
        /// Its size under the protocol's byte model.
        bytes: u64,
        /// When it arrives; `None` if the hostile network lost it.
        arrival: Option<SimTime>,
    },
    /// A scripted partition cut became active.
    Cut {
        /// Index into the configured partitions.
        index: usize,
        /// The clusters it severs from the rest.
        group: Vec<u16>,
    },
    /// A scripted partition healed.
    Heal {
        /// Index into the configured partitions.
        index: usize,
    },
}

impl TraceEvent {
    /// The lowest level that keeps this record; `None` for what no level
    /// traces (a non-coordinator's restore — rank 0's stands for the
    /// cluster — and the two soundness alarms, which the report counts).
    pub fn level(&self) -> Option<TraceLevel> {
        match self {
            TraceEvent::Proto(ProtoEvent::Committed { .. } | ProtoEvent::GcReport { .. })
            | TraceEvent::Cut { .. }
            | TraceEvent::Heal { .. } => Some(TraceLevel::Protocol),
            TraceEvent::Proto(ProtoEvent::RolledBack { node, .. }) if node.rank == 0 => {
                Some(TraceLevel::Protocol)
            }
            TraceEvent::Proto(ProtoEvent::Delivered { .. }) | TraceEvent::Wire { .. } => {
                Some(TraceLevel::Full)
            }
            TraceEvent::Proto(
                ProtoEvent::RolledBack { .. }
                | ProtoEvent::Unrecoverable { .. }
                | ProtoEvent::LateCrossing { .. },
            ) => None,
        }
    }

    /// The subsystem column of the rendered line.
    fn subsystem(&self) -> &'static str {
        match self {
            TraceEvent::Proto(ev) => match ev {
                ProtoEvent::Delivered { .. } => "app",
                ProtoEvent::Committed { .. } => "clc",
                ProtoEvent::RolledBack { .. } => "rollback",
                ProtoEvent::GcReport { .. } => "gc",
                ProtoEvent::Unrecoverable { .. } | ProtoEvent::LateCrossing { .. } => "alarm",
            },
            TraceEvent::Wire { .. } => "net",
            TraceEvent::Cut { .. } | TraceEvent::Heal { .. } => "partition",
        }
    }
}

/// The detail column of the rendered line.
impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::Proto(ev) => match *ev {
                ProtoEvent::Delivered { to, from, payload } => {
                    write!(f, "{to} delivered tag {} from {from}", payload.tag)
                }
                ProtoEvent::Committed {
                    cluster,
                    sn,
                    forced,
                } => {
                    let forced = if forced { " (forced)" } else { "" };
                    write!(f, "cluster {cluster} committed CLC {sn}{forced}")
                }
                ProtoEvent::RolledBack {
                    node,
                    restore_sn,
                    discarded_clcs,
                } => write!(
                    f,
                    "cluster {} restored CLC {restore_sn} ({discarded_clcs} discarded)",
                    node.cluster.index()
                ),
                ProtoEvent::GcReport {
                    cluster,
                    before,
                    after,
                } => write!(f, "cluster {cluster} pruned {before} -> {after} CLCs"),
                // No level keeps an alarm; the report counts them.
                ProtoEvent::Unrecoverable { .. } | ProtoEvent::LateCrossing { .. } => {
                    write!(f, "{ev:?}")
                }
            },
            TraceEvent::Wire {
                from,
                to,
                msg,
                bytes,
                arrival,
            } => {
                write!(f, "{from} -> {to}: {msg:?} ({bytes} B, ")?;
                match arrival {
                    Some(at) => write!(f, "arrives {at})"),
                    None => write!(f, "LOST)"),
                }
            }
            TraceEvent::Cut { index, group } => {
                write!(f, "cut {index} active: clusters {group:?} severed")
            }
            TraceEvent::Heal { index } => write!(f, "cut {index} healed"),
        }
    }
}

/// Write `trace` as text, one `[time] subsystem detail` line per record.
pub fn render(out: &mut dyn io::Write, trace: &[(SimTime, TraceEvent)]) -> io::Result<()> {
    for (at, ev) in trace {
        writeln!(out, "[{at}] {:<9} {ev}", ev.subsystem())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_traced, FederationWorld, RunReport, SimConfig};
    use desim::{RngStreams, SimDuration};
    use netsim::{ClusterSpec, LinkSpec, Topology};
    use workload::{TargetCountWorkload, Workload};

    fn minutes(m: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_minutes(m)
    }

    /// Three clusters of four with timers, GC, inter-cluster traffic, a
    /// fault and a healed partition: every kind of record occurs.
    fn config(level: TraceLevel) -> SimConfig {
        let topo = Topology::new(
            vec![
                ClusterSpec {
                    nodes: 4,
                    intra: LinkSpec::myrinet_like(),
                };
                3
            ],
            LinkSpec::ethernet_like(),
        );
        let sends = TargetCountWorkload {
            cluster_sizes: vec![4; 3],
            duration: SimDuration::from_minutes(30),
            counts: vec![vec![20, 5, 5], vec![5, 20, 5], vec![5, 5, 20]],
            payload_bytes: 256,
        }
        .schedule(&RngStreams::new(5));
        let mut cfg = SimConfig::new(topo, SimDuration::from_minutes(30))
            .with_sends(sends)
            .with_gc_interval(SimDuration::from_minutes(12))
            .with_fault(minutes(17), netsim::NodeId::new(1, 2))
            .with_partition(minutes(8), minutes(11), vec![2])
            .with_trace(level);
        for c in 0..3 {
            cfg = cfg.with_clc_delay(c, SimDuration::from_minutes(5));
        }
        cfg
    }

    fn traced(level: TraceLevel) -> (RunReport, Vec<(SimTime, TraceEvent)>) {
        run_traced(config(level))
    }

    #[test]
    fn off_drops_everything() {
        assert!(FederationWorld::new(config(TraceLevel::Off))
            .trace
            .is_none());
        let (_, trace) = traced(TraceLevel::Off);
        assert!(trace.is_empty());
        assert_eq!(trace.capacity(), 0, "an untraced run never allocates one");
    }

    #[test]
    fn closures_not_evaluated_when_dropped() {
        // Untraced, a record is never built: no wire copy's message is
        // cloned on the hot path.
        let mut evaluated = false;
        crate::world::record(&mut None, TraceLevel::Off, SimTime::ZERO, || {
            evaluated = true;
            TraceEvent::Heal { index: 0 }
        });
        assert!(!evaluated, "the record closure must be lazy");
    }

    #[test]
    fn protocol_keeps_protocol_only() {
        let (report, trace) = traced(TraceLevel::Protocol);
        let kept = |pred: fn(&TraceEvent) -> bool| trace.iter().filter(|(_, r)| pred(r)).count();
        assert!(kept(|r| matches!(r, TraceEvent::Proto(ProtoEvent::Committed { .. }))) > 0);
        assert!(kept(|r| matches!(r, TraceEvent::Proto(ProtoEvent::GcReport { .. }))) > 0);
        assert_eq!(kept(|r| matches!(r, TraceEvent::Cut { index: 0, .. })), 1);
        assert_eq!(kept(|r| matches!(r, TraceEvent::Heal { index: 0 })), 1);
        // One restore per cluster rollback: rank 0's.
        assert!(report.total_rollbacks() > 0);
        assert_eq!(
            kept(|r| matches!(r, TraceEvent::Proto(ProtoEvent::RolledBack { .. }))),
            report.total_rollbacks()
        );
        for (_, r) in &trace {
            match r {
                TraceEvent::Proto(ProtoEvent::Committed { .. } | ProtoEvent::GcReport { .. })
                | TraceEvent::Cut { .. }
                | TraceEvent::Heal { .. } => {}
                TraceEvent::Proto(ProtoEvent::RolledBack { node, .. }) => assert_eq!(node.rank, 0),
                other => panic!("not a protocol-level record: {other:?}"),
            }
        }
    }

    #[test]
    fn full_keeps_everything_in_order() {
        let (_, protocol) = traced(TraceLevel::Protocol);
        let (_, full) = traced(TraceLevel::Full);
        let wire = full
            .iter()
            .filter(|(_, r)| matches!(r, TraceEvent::Wire { .. }))
            .count();
        let delivered = full
            .iter()
            .filter(|(_, r)| matches!(r, TraceEvent::Proto(ProtoEvent::Delivered { .. })))
            .count();
        assert!(wire > 0 && delivered > 0);
        assert_eq!(full.len(), protocol.len() + wire + delivered);
        // What `Protocol` keeps is `Full`'s protocol records, in order.
        let protocol_in_full: Vec<_> = full
            .into_iter()
            .filter(|(_, r)| r.level() == Some(TraceLevel::Protocol))
            .collect();
        assert_eq!(protocol_in_full, protocol);
    }

    #[test]
    fn records_render_as_time_subsystem_detail_lines() {
        let rec = |ev| (minutes(1), ev);
        let trace = [
            rec(TraceEvent::Proto(ProtoEvent::Committed {
                cluster: 1,
                sn: hc3i_core::SeqNum(3),
                forced: true,
            })),
            rec(TraceEvent::Cut {
                index: 0,
                group: vec![2],
            }),
            rec(TraceEvent::Heal { index: 0 }),
        ];
        let mut out = Vec::new();
        render(&mut out, &trace).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "[60.000000s] clc       cluster 1 committed CLC 3 (forced)\n\
             [60.000000s] partition cut 0 active: clusters [2] severed\n\
             [60.000000s] partition cut 0 healed\n"
        );
    }
}
