//! Federation topology.
//!
//! Mirrors the paper's *topology file*: number of clusters, nodes per
//! cluster, bandwidth and latency inside each cluster and between every
//! cluster pair (a triangular matrix), and the federation MTBF.

use hc3i_types::{ClusterId, NodeId, SimDuration, MAX_CLUSTERS};

/// Latency + bandwidth of a (bidirectional) link class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSpec {
    /// One-way propagation latency.
    pub latency: SimDuration,
    /// Usable bandwidth in bits per second.
    pub bandwidth_bps: u64,
}

impl LinkSpec {
    /// The paper's intra-cluster "Myrinet-like" SAN: 10 µs, 80 Mb/s.
    pub fn myrinet_like() -> Self {
        LinkSpec {
            latency: SimDuration::from_micros(10),
            bandwidth_bps: 80_000_000,
        }
    }

    /// The paper's inter-cluster "Ethernet-like" link: 150 µs, 100 Mb/s.
    pub fn ethernet_like() -> Self {
        LinkSpec {
            latency: SimDuration::from_micros(150),
            bandwidth_bps: 100_000_000,
        }
    }

    /// A slow WAN link (5 ms, 10 Mb/s) for wide-federation experiments.
    pub fn wan_like() -> Self {
        LinkSpec {
            latency: SimDuration::from_millis(5),
            bandwidth_bps: 10_000_000,
        }
    }

    /// Pure serialization time for a payload of `bytes` on this link.
    pub fn transmit_time(&self, bytes: u64) -> SimDuration {
        if self.bandwidth_bps == 0 {
            return SimDuration::INFINITE;
        }
        // bits / (bits/sec) -> sec; computed in nanoseconds to stay integral.
        let bits = bytes.saturating_mul(8);
        SimDuration::from_nanos(
            ((bits as u128 * 1_000_000_000u128) / self.bandwidth_bps as u128) as u64,
        )
    }
}

/// One cluster: node count plus its internal (SAN) link class.
#[derive(Debug, Clone, Copy)]
pub struct ClusterSpec {
    /// Number of nodes in the cluster.
    pub nodes: u32,
    /// Link class joining any two nodes of the cluster.
    pub intra: LinkSpec,
}

/// A symmetric cluster-pair matrix stored as a lower triangle.
#[derive(Debug, Clone)]
pub(crate) struct TriMatrix<T> {
    n: usize,
    cells: Vec<T>,
}

impl<T: Copy> TriMatrix<T> {
    /// `n`×`n` symmetric matrix (diagonal excluded) filled with `fill`.
    pub(crate) fn new(n: usize, fill: T) -> Self {
        let cells = vec![fill; n * (n.saturating_sub(1)) / 2];
        TriMatrix { n, cells }
    }

    fn index(&self, i: usize, j: usize) -> usize {
        assert!(i != j, "triangular matrix has no diagonal");
        assert!(i < self.n && j < self.n, "cluster index out of range");
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        // Row `hi` of the lower triangle starts at hi*(hi-1)/2.
        hi * (hi - 1) / 2 + lo
    }

    /// Read the entry for the unordered pair `{i, j}`.
    pub(crate) fn get(&self, i: usize, j: usize) -> T {
        self.cells[self.index(i, j)]
    }

    /// Write the entry for the unordered pair `{i, j}`.
    pub(crate) fn set(&mut self, i: usize, j: usize, value: T) {
        let idx = self.index(i, j);
        self.cells[idx] = value;
    }
}

/// The whole federation: clusters + inter-cluster link matrix + MTBF.
#[derive(Debug, Clone)]
pub struct Topology {
    clusters: Vec<ClusterSpec>,
    inter: TriMatrix<LinkSpec>,
    /// Federation mean time between failures (None = no spontaneous faults).
    pub mtbf: Option<SimDuration>,
}

impl Topology {
    /// Build a federation of `clusters`, all inter-cluster pairs using
    /// `inter` (individual pairs can be overridden with [`set_inter_link`]).
    ///
    /// [`set_inter_link`]: Topology::set_inter_link
    pub fn new(clusters: Vec<ClusterSpec>, inter: LinkSpec) -> Self {
        assert!(
            !clusters.is_empty(),
            "a federation needs at least one cluster"
        );
        let n = clusters.len();
        assert!(
            n <= MAX_CLUSTERS,
            "a federation has at most {MAX_CLUSTERS} clusters, got {n}"
        );
        Topology {
            clusters,
            inter: TriMatrix::new(n, inter),
            mtbf: None,
        }
    }

    /// The paper's reference setup (§5.2): `n` clusters of 100 nodes each,
    /// Myrinet-like SANs, Ethernet-like inter-cluster links.
    pub fn paper_reference(n: usize) -> Self {
        Topology::new(
            vec![
                ClusterSpec {
                    nodes: 100,
                    intra: LinkSpec::myrinet_like(),
                };
                n
            ],
            LinkSpec::ethernet_like(),
        )
    }

    /// Number of clusters in the federation.
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Nodes in cluster `c`.
    pub fn nodes_in(&self, c: ClusterId) -> u32 {
        self.clusters[c.index()].nodes
    }

    /// `Ok` when `node` is a node of this topology; otherwise which part of
    /// its id is out of range — the one place a node named from outside
    /// (a CLI flag, a scripted fault) is checked against the federation.
    pub fn check_node(&self, node: NodeId) -> Result<(), String> {
        let (cluster, clusters) = (node.cluster.index(), self.clusters.len());
        if cluster >= clusters {
            return Err(format!(
                "cluster {cluster} out of range (topology has {clusters})"
            ));
        }
        let nodes = self.clusters[cluster].nodes;
        if node.rank >= nodes {
            return Err(format!(
                "rank {} out of range (cluster {cluster} has {nodes})",
                node.rank
            ));
        }
        Ok(())
    }

    /// Total nodes across the federation.
    pub fn total_nodes(&self) -> u64 {
        self.clusters.iter().map(|c| c.nodes as u64).sum()
    }

    /// Link class between two *distinct* clusters.
    pub fn inter_link(&self, a: ClusterId, b: ClusterId) -> LinkSpec {
        self.inter.get(a.index(), b.index())
    }

    /// Override the link class of one cluster pair.
    pub fn set_inter_link(&mut self, a: ClusterId, b: ClusterId, link: LinkSpec) {
        self.inter.set(a.index(), b.index(), link);
    }

    /// Link class used by a message from `from` to `to` (same- or
    /// cross-cluster).
    pub fn link_between(&self, from: ClusterId, to: ClusterId) -> LinkSpec {
        if from == to {
            self.clusters[from.index()].intra
        } else {
            self.inter_link(from, to)
        }
    }

    /// Iterate all cluster ids.
    pub fn cluster_ids(&self) -> impl Iterator<Item = ClusterId> {
        // Narrow each index, not the count: `MAX_CLUSTERS as u16` is 0.
        (0..self.clusters.len()).map(|c| ClusterId(c as u16))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transmit_time_matches_bandwidth() {
        // 80 Mb/s -> 1 MB takes 0.1 s.
        let l = LinkSpec::myrinet_like();
        assert_eq!(l.transmit_time(1_000_000), SimDuration::from_millis(100));
        // Zero-size messages cost only latency.
        assert_eq!(l.transmit_time(0), SimDuration::ZERO);
    }

    #[test]
    fn check_node_names_the_part_out_of_range() {
        let t = Topology::paper_reference(2);
        assert_eq!(t.check_node(NodeId::new(1, 99)), Ok(()));
        assert_eq!(
            t.check_node(NodeId::new(5, 0)).unwrap_err(),
            "cluster 5 out of range (topology has 2)"
        );
        assert_eq!(
            t.check_node(NodeId::new(0, 999)).unwrap_err(),
            "rank 999 out of range (cluster 0 has 100)"
        );
    }

    #[test]
    fn zero_bandwidth_is_infinite() {
        let l = LinkSpec {
            latency: SimDuration::ZERO,
            bandwidth_bps: 0,
        };
        assert!(l.transmit_time(1).is_infinite());
    }

    #[test]
    fn trimatrix_is_symmetric() {
        let mut m = TriMatrix::new(4, 0u32);
        m.set(1, 3, 7);
        assert_eq!(m.get(3, 1), 7);
        assert_eq!(m.get(1, 3), 7);
        m.set(3, 1, 9);
        assert_eq!(m.get(1, 3), 9);
        assert_eq!(m.get(0, 1), 0);
    }

    #[test]
    #[should_panic(expected = "no diagonal")]
    fn trimatrix_rejects_diagonal() {
        TriMatrix::new(3, 0u32).get(2, 2);
    }

    #[test]
    fn trimatrix_indexing_covers_all_pairs() {
        let n = 6;
        let mut m = TriMatrix::new(n, 0usize);
        let mut v = 1;
        for i in 0..n {
            for j in (i + 1)..n {
                m.set(i, j, v);
                v += 1;
            }
        }
        // Every pair readable from both orders with distinct values.
        let mut seen = std::collections::HashSet::new();
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    seen.insert(m.get(i, j));
                }
            }
        }
        assert_eq!(seen.len(), n * (n - 1) / 2);
    }

    #[test]
    fn paper_reference_matches_section_5_2() {
        let t = Topology::paper_reference(2);
        assert_eq!(t.num_clusters(), 2);
        assert_eq!(t.nodes_in(ClusterId(0)), 100);
        assert_eq!(t.total_nodes(), 200);
        let intra = t.link_between(ClusterId(0), ClusterId(0));
        assert_eq!(intra.latency, SimDuration::from_micros(10));
        assert_eq!(intra.bandwidth_bps, 80_000_000);
        let inter = t.link_between(ClusterId(0), ClusterId(1));
        assert_eq!(inter.latency, SimDuration::from_micros(150));
        assert_eq!(inter.bandwidth_bps, 100_000_000);
    }

    #[test]
    fn inter_link_override() {
        let mut t = Topology::paper_reference(3);
        t.set_inter_link(ClusterId(0), ClusterId(2), LinkSpec::wan_like());
        assert_eq!(
            t.link_between(ClusterId(2), ClusterId(0)).latency,
            SimDuration::from_millis(5)
        );
        // Other pairs untouched.
        assert_eq!(
            t.link_between(ClusterId(0), ClusterId(1)).latency,
            SimDuration::from_micros(150)
        );
    }

    #[test]
    #[should_panic(expected = "at least one cluster")]
    fn empty_federation_rejected() {
        Topology::new(vec![], LinkSpec::ethernet_like());
    }

    #[test]
    #[should_panic(expected = "at most 65536 clusters")]
    fn overwide_federation_rejected() {
        // Must fire before the inter-cluster matrix is sized.
        let spec = ClusterSpec {
            nodes: 1,
            intra: LinkSpec::myrinet_like(),
        };
        Topology::new(vec![spec; MAX_CLUSTERS + 1], LinkSpec::ethernet_like());
    }
}
