//! A workload's call stream: the shape (cluster widths, links) and the
//! send list the isolated-layer probes replay against one layer's public
//! functions at a time.

use netsim::Topology;
use workload::SendEvent;

/// Sends a probe replays at most: enough for a steady per-call mean, and
/// it keeps a traced run's probe phase to seconds.
const MAX_SENDS: usize = 200_000;

/// What a workload asks of the layers.
pub struct Stream {
    /// Clusters, nodes and links.
    pub topology: Topology,
    /// Nodes per cluster.
    pub cluster_sizes: Vec<u32>,
    /// Application sends in time order (at most [`MAX_SENDS`]).
    pub sends: Vec<SendEvent>,
    /// CLC cadence: application sends between two unforced CLC rounds.
    pub sends_per_clc: usize,
}

impl Stream {
    /// A stream over `topology`, truncated to the probe cap.
    pub fn new(topology: Topology, mut sends: Vec<SendEvent>, sends_per_clc: usize) -> Stream {
        sends.truncate(MAX_SENDS);
        let cluster_sizes = topology
            .cluster_ids()
            .map(|c| topology.nodes_in(c))
            .collect();
        Stream {
            topology,
            cluster_sizes,
            sends,
            sends_per_clc: sends_per_clc.max(1),
        }
    }

    /// Sends that cross clusters.
    pub fn inter_cluster(&self) -> impl Iterator<Item = &SendEvent> {
        self.sends.iter().filter(|s| s.from.cluster != s.to.cluster)
    }
}
