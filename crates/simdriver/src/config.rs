//! Simulation configuration.

use desim::{SimDuration, SimTime};
use hc3i_core::{ProtocolConfig, XportConfig};
use netsim::{ContentionModel, HostileSpec, NodeId, PartitionSpec, Topology};
use workload::{SendEvent, StochasticWorkload};

/// How much of a run the trace keeps (the paper's compile-time trace
/// levels, chosen at run time; `hc3i-sim run --trace off|protocol|full`).
/// Which records each level keeps is decided per [`TraceEvent`](crate::TraceEvent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TraceLevel {
    /// Keep nothing (statistics only) — the paper's "lowest output".
    #[default]
    Off,
    /// Keep protocol-level actions (checkpoints, rollbacks, GC, partitions).
    Protocol,
    /// Keep everything, including every wire copy and delivery.
    Full,
}

/// A scripted node failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// When the node fail-stops.
    pub at: SimTime,
    /// Which node.
    pub node: NodeId,
}

/// Where a run's application sends come from
/// ([`SimConfig::with_sends`]).
#[derive(Debug, Clone)]
pub enum Sends {
    /// An explicit, time-sorted schedule: [`SimConfig::sends`].
    List(Vec<SendEvent>),
    /// The paper's model, drawn from the run's seed as the run pulls its
    /// sends: [`SimConfig::stochastic`].
    Stochastic(StochasticWorkload),
}

impl From<Vec<SendEvent>> for Sends {
    fn from(list: Vec<SendEvent>) -> Self {
        Sends::List(list)
    }
}

impl From<StochasticWorkload> for Sends {
    fn from(model: StochasticWorkload) -> Self {
        Sends::Stochastic(model)
    }
}

/// Everything a federation run needs.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Clusters, nodes and links.
    pub topology: Topology,
    /// Protocol parameters (piggyback mode, replication, GC fault tolerance).
    pub protocol: ProtocolConfig,
    /// Delay between unforced CLCs, per cluster (`INFINITE` = never).
    pub clc_delays: Vec<SimDuration>,
    /// Garbage-collection period (`None` = never).
    pub gc_interval: Option<SimDuration>,
    /// Failure-detection latency (fault → its detection round).
    pub detection_delay: SimDuration,
    /// Total simulated application time.
    pub duration: SimDuration,
    /// An explicit application send schedule, sorted by time as
    /// [`workload::Workload::schedule`] returns it. [`run`](crate::run())
    /// checks the order and panics on a schedule that steps back in time;
    /// it moves the schedule into the event feed, walking it as the run
    /// proceeds, and a send's tag is its index here. Set through
    /// [`with_sends`](Self::with_sends), like [`stochastic`](Self::stochastic).
    pub sends: Vec<SendEvent>,
    /// The paper's application model, in place of an explicit schedule:
    /// [`run`](crate::run()) draws its sends from [`seed`](Self::seed)
    /// as the event feed pulls them ([`StochasticWorkload::sends`]), so
    /// the seed picks the schedule and no schedule is held. The sends and
    /// their tags are those of `sends` set to the model's
    /// [`schedule`](workload::Workload::schedule) at the same seed.
    /// [`run`](crate::run()) panics if `sends` is not empty as well.
    pub stochastic: Option<StochasticWorkload>,
    /// Scripted faults (in addition to MTBF-driven ones if the topology
    /// sets an MTBF).
    pub faults: Vec<FaultEvent>,
    /// Scripted one-shot unforced CLCs: `(when, cluster)`. The simulator
    /// counterpart of the runtime controller's `checkpoint_now` — lets a
    /// scripted scenario run step-for-step on both substrates.
    pub scripted_clcs: Vec<(SimTime, usize)>,
    /// Scripted one-shot garbage collections (runtime `gc_now`).
    pub scripted_gcs: Vec<SimTime>,
    /// Network contention model.
    pub contention: ContentionModel,
    /// Root RNG seed (MTBF fault placement).
    pub seed: u64,
    /// Trace level (the paper's compile-time trace levels, made runtime).
    pub trace: TraceLevel,
    /// Hostile-network behaviour (duplication, reordering, latency skew).
    /// `None` keeps the pristine network and the exact event stream of a
    /// run that predates the hostile model.
    pub hostile: Option<HostileSpec>,
    /// Scripted cluster partitions with heal times. Inter-cluster messages
    /// crossing an active cut are held until the heal.
    pub partitions: Vec<PartitionSpec>,
    /// Record a per-tag delivery ledger into the side statistics of
    /// [`run_hostile`](crate::run_hostile). Observation only; the run
    /// itself is unaffected.
    pub track_delivery: bool,
    /// Host-level reliable transport for inter-cluster traffic
    /// (retransmission + dedup; see `hc3i_core::xport`). Required for the
    /// engine's exactly-once assumptions to survive hostile packet loss.
    /// `None` keeps the wire format and event stream of a run that
    /// predates the transport.
    pub xport: Option<XportConfig>,
    /// Mirror every node's CLC store to an on-disk segment log under this
    /// directory (`storage::DurableStore`): commits, rollback truncations
    /// and GC prunes are appended as checksummed frames, fsync-ed per
    /// commit, so a hard-killed run recovers to its last durable CLC. The
    /// directory must not already hold a segment log. `None` (the
    /// default) keeps everything in memory; the event stream and report
    /// fingerprint are identical either way.
    pub durable_dir: Option<std::path::PathBuf>,
    /// Crash injection for durability tests: once this many commit frames
    /// have been appended to the durable log, abort the whole process (no
    /// flush, no destructors — a simulated power loss at a deterministic
    /// point). Requires [`SimConfig::durable_dir`].
    pub durable_crash_after: Option<u64>,
}

impl SimConfig {
    /// A config over `topology` with paper-default protocol parameters, no
    /// timers armed, no faults, empty schedule.
    pub fn new(topology: Topology, duration: SimDuration) -> Self {
        let sizes = topology
            .cluster_ids()
            .map(|c| topology.nodes_in(c))
            .collect::<Vec<_>>();
        let n = sizes.len();
        SimConfig {
            topology,
            protocol: ProtocolConfig::new(sizes),
            clc_delays: vec![SimDuration::INFINITE; n],
            gc_interval: None,
            detection_delay: SimDuration::from_millis(100),
            duration,
            sends: vec![],
            stochastic: None,
            faults: vec![],
            scripted_clcs: vec![],
            scripted_gcs: vec![],
            contention: ContentionModel::Unlimited,
            seed: 0xC3C3_C3C3,
            trace: TraceLevel::Off,
            hostile: None,
            partitions: vec![],
            track_delivery: false,
            xport: None,
            durable_dir: None,
            durable_crash_after: None,
        }
    }

    /// Set one cluster's unforced-CLC delay.
    pub fn with_clc_delay(mut self, cluster: usize, delay: SimDuration) -> Self {
        self.clc_delays[cluster] = delay;
        self
    }

    /// Set the GC period.
    pub fn with_gc_interval(mut self, interval: SimDuration) -> Self {
        self.gc_interval = Some(interval);
        self
    }

    /// Replace the application's sends: a time-sorted schedule (see
    /// [`SimConfig::sends`]) or the paper's model, drawn as the run
    /// proceeds (see [`SimConfig::stochastic`]).
    pub fn with_sends(mut self, sends: impl Into<Sends>) -> Self {
        (self.sends, self.stochastic) = match sends.into() {
            Sends::List(list) => (list, None),
            Sends::Stochastic(model) => (vec![], Some(model)),
        };
        self
    }

    /// Add a scripted fault.
    ///
    /// # Panics
    /// If `node` is not a node of the topology.
    pub fn with_fault(mut self, at: SimTime, node: NodeId) -> Self {
        if let Err(problem) = self.topology.check_node(node) {
            panic!("fault on {node}: {problem}");
        }
        self.faults.push(FaultEvent { at, node });
        self
    }

    /// Take one unforced CLC in `cluster` at `at` (independent of the
    /// periodic timer).
    pub fn with_scripted_clc(mut self, at: SimTime, cluster: usize) -> Self {
        self.scripted_clcs.push((at, cluster));
        self
    }

    /// Run one garbage collection at `at` (independent of the periodic
    /// GC interval).
    pub fn with_scripted_gc(mut self, at: SimTime) -> Self {
        self.scripted_gcs.push(at);
        self
    }

    /// Replace the protocol configuration.
    pub fn with_protocol(mut self, protocol: ProtocolConfig) -> Self {
        assert_eq!(
            protocol.num_clusters(),
            self.topology.num_clusters(),
            "protocol/topology cluster count mismatch"
        );
        self.protocol = protocol;
        self
    }

    /// Set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the trace level.
    pub fn with_trace(mut self, level: TraceLevel) -> Self {
        self.trace = level;
        self
    }

    /// Enable the hostile-network fault model.
    pub fn with_hostile(mut self, spec: HostileSpec) -> Self {
        self.hostile = Some(spec);
        self
    }

    /// Add a scripted cluster partition: the clusters in `group` are cut
    /// off from the rest between `at` and `until`.
    pub fn with_partition(mut self, at: SimTime, until: SimTime, group: Vec<u16>) -> Self {
        self.partitions.push(PartitionSpec {
            at,
            until,
            group,
            oneway: false,
        });
        self
    }

    /// Add an *asymmetric* partition: between `at` and `until`, traffic
    /// *from* the clusters in `group` to the rest is severed while the
    /// reverse direction flows.
    pub fn with_oneway_partition(mut self, at: SimTime, until: SimTime, group: Vec<u16>) -> Self {
        self.partitions.push(PartitionSpec {
            at,
            until,
            group,
            oneway: true,
        });
        self
    }

    /// Enable the host-level reliable transport (default tuning) on every
    /// inter-cluster link.
    pub fn with_reliable_transport(mut self) -> Self {
        self.xport = Some(XportConfig::default());
        self
    }

    /// Track per-tag deliveries in the side ledger of
    /// [`run_hostile`](crate::run_hostile).
    pub fn with_delivery_ledger(mut self) -> Self {
        self.track_delivery = true;
        self
    }

    /// Mirror every node's CLC store to an on-disk segment log under
    /// `dir` (must not already hold one).
    pub fn with_durable_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.durable_dir = Some(dir.into());
        self
    }

    /// Abort the process (simulated power loss) after `commits` durable
    /// commit frames.
    pub fn with_durable_crash_after(mut self, commits: u64) -> Self {
        self.durable_crash_after = Some(commits);
        self
    }

    /// End of simulated time.
    pub fn horizon(&self) -> SimTime {
        SimTime::ZERO + self.duration
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_quiet() {
        let c = SimConfig::new(Topology::paper_reference(2), SimDuration::from_hours(1));
        assert!(c.clc_delays.iter().all(|d| d.is_infinite()));
        assert!(c.gc_interval.is_none());
        assert!(c.sends.is_empty() && c.stochastic.is_none());
        assert_eq!(c.protocol.num_clusters(), 2);
        assert_eq!(c.horizon(), SimTime::ZERO + SimDuration::from_hours(1));
    }

    #[test]
    fn builders_apply() {
        let c = SimConfig::new(Topology::paper_reference(2), SimDuration::from_hours(1))
            .with_clc_delay(0, SimDuration::from_minutes(30))
            .with_gc_interval(SimDuration::from_hours(2))
            .with_fault(
                SimTime::ZERO + SimDuration::from_minutes(5),
                NodeId::new(0, 3),
            )
            .with_seed(7);
        assert_eq!(c.clc_delays[0], SimDuration::from_minutes(30));
        assert!(c.clc_delays[1].is_infinite());
        assert_eq!(c.gc_interval, Some(SimDuration::from_hours(2)));
        assert_eq!(c.faults.len(), 1);
        assert_eq!(c.seed, 7);
    }

    #[test]
    fn sends_come_from_one_source() {
        let model = workload::parse_application(
            "duration 1h\npayload 64\ncompute_mean 0 10s\ncompute_mean 1 10s\n\
             pattern 0 1 0\npattern 1 0 1\n",
            &Topology::paper_reference(2),
        )
        .unwrap();
        let send = SendEvent {
            at: SimTime::ZERO,
            from: NodeId::new(0, 0),
            to: NodeId::new(0, 1),
            bytes: 64,
        };
        let c = SimConfig::new(Topology::paper_reference(2), SimDuration::from_hours(1))
            .with_sends(vec![send])
            .with_sends(model);
        assert!(c.sends.is_empty() && c.stochastic.is_some());
        let c = c.with_sends(vec![send]);
        assert_eq!((c.sends, c.stochastic.is_none()), (vec![send], true));
    }

    #[test]
    #[should_panic(expected = "fault on C5.n0: cluster 5 out of range (topology has 2)")]
    fn fault_on_a_missing_cluster_is_rejected() {
        let _ = SimConfig::new(Topology::paper_reference(2), SimDuration::from_hours(1))
            .with_fault(SimTime::ZERO, NodeId::new(5, 0));
    }

    #[test]
    #[should_panic(expected = "fault on C0.n999: rank 999 out of range (cluster 0 has 100)")]
    fn fault_on_a_missing_rank_is_rejected() {
        let _ = SimConfig::new(Topology::paper_reference(2), SimDuration::from_hours(1))
            .with_fault(SimTime::ZERO, NodeId::new(0, 999));
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn protocol_dimension_checked() {
        let _ = SimConfig::new(Topology::paper_reference(2), SimDuration::from_hours(1))
            .with_protocol(hc3i_core::ProtocolConfig::new(vec![4, 4, 4]));
    }
}
