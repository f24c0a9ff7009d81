//! Federation topology.
//!
//! Mirrors the paper's *topology file*: number of clusters, nodes per
//! cluster, bandwidth and latency inside each cluster and between every
//! cluster pair, and the federation MTBF. Like the file, a topology keeps
//! one default inter-cluster link and the pairs whose link differs from
//! it, so nothing here is sized by cluster pairs.

use hc3i_types::{ClusterId, NodeId, SimDuration, MAX_CLUSTERS};
use std::collections::BTreeMap;

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
        // Any payload under ~2.3 GB keeps the product in `u64`, whose
        // division is one instruction; larger ones take the `u128` path,
        // which compiles to a library call. Both round down alike.
        let bits = bytes.saturating_mul(8);
        let nanos = match bits.checked_mul(1_000_000_000) {
            Some(product) => product / self.bandwidth_bps,
            None => ((bits as u128 * 1_000_000_000u128) / self.bandwidth_bps as u128) as u64,
        };
        SimDuration::from_nanos(nanos)
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

/// The whole federation: clusters + inter-cluster links + MTBF.
#[derive(Debug, Clone)]
pub struct Topology {
    clusters: Vec<ClusterSpec>,
    /// Link class of every cluster pair not in `overrides`.
    inter: LinkSpec,
    /// The cluster pairs whose link differs from `inter`, keyed by
    /// [`Self::pair`]. The pairs come from a topology file, so they are
    /// not hashed: no list of pairs can make a lookup slow.
    overrides: BTreeMap<(u16, u16), LinkSpec>,
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
            inter,
            overrides: BTreeMap::new(),
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

    /// The key of the unordered pair `{a, b}` of two distinct clusters.
    fn pair(&self, a: ClusterId, b: ClusterId) -> (u16, u16) {
        assert!(a != b, "the inter-cluster links have no diagonal");
        let n = self.clusters.len();
        assert!(a.index() < n && b.index() < n, "cluster index out of range");
        (a.0.min(b.0), a.0.max(b.0))
    }

    /// Link class between two *distinct* clusters, in either direction.
    pub fn inter_link(&self, a: ClusterId, b: ClusterId) -> LinkSpec {
        let link = self.overrides.get(&self.pair(a, b));
        link.copied().unwrap_or(self.inter)
    }

    /// Override the link class of one cluster pair; a pair set back to
    /// the default link is dropped from the overrides.
    pub fn set_inter_link(&mut self, a: ClusterId, b: ClusterId, link: LinkSpec) {
        let pair = self.pair(a, b);
        if link == self.inter {
            self.overrides.remove(&pair);
        } else {
            self.overrides.insert(pair, link);
        }
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
    fn transmit_time_equals_the_u128_formula_across_the_u64_boundary() {
        // The last payload whose bit count times 10^9 fits in `u64`.
        let boundary = u64::MAX / 1_000_000_000 / 8;
        let payloads = [
            0,
            1,
            boundary - 1,
            boundary,
            boundary + 1,
            4 << 20,
            u64::MAX / 8,
            u64::MAX,
        ];
        let bandwidths = [1, 7, 80_000_000, 100_000_000, 999_999_937, u64::MAX];
        for bytes in payloads {
            for bandwidth_bps in bandwidths {
                let link = LinkSpec {
                    latency: SimDuration::ZERO,
                    bandwidth_bps,
                };
                let bits = bytes.saturating_mul(8) as u128;
                let want = (bits * 1_000_000_000 / bandwidth_bps as u128) as u64;
                assert_eq!(
                    link.transmit_time(bytes),
                    SimDuration::from_nanos(want),
                    "{bytes} B at {bandwidth_bps} b/s"
                );
            }
        }
        // The boundary is where the `u64` product ends.
        assert!((boundary * 8).checked_mul(1_000_000_000).is_some());
        assert!(((boundary + 1) * 8).checked_mul(1_000_000_000).is_none());
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

    /// A link told apart from the others by its latency alone.
    fn link(nanos: u64) -> LinkSpec {
        LinkSpec {
            latency: SimDuration::from_nanos(nanos),
            bandwidth_bps: 1,
        }
    }

    /// The inter-cluster links read as a symmetric triangular matrix:
    /// a pair written in one order reads back in both.
    #[test]
    fn trimatrix_is_symmetric() {
        let spec = ClusterSpec {
            nodes: 1,
            intra: link(1),
        };
        let mut t = Topology::new(vec![spec; 4], link(0));
        t.set_inter_link(ClusterId(1), ClusterId(3), link(7));
        assert_eq!(t.inter_link(ClusterId(3), ClusterId(1)), link(7));
        assert_eq!(t.inter_link(ClusterId(1), ClusterId(3)), link(7));
        t.set_inter_link(ClusterId(3), ClusterId(1), link(9));
        assert_eq!(t.inter_link(ClusterId(1), ClusterId(3)), link(9));
        assert_eq!(t.inter_link(ClusterId(0), ClusterId(1)), link(0));
    }

    /// Every unordered pair has a slot of its own, readable in both orders.
    #[test]
    fn trimatrix_indexing_covers_all_pairs() {
        let n = 6;
        let spec = ClusterSpec {
            nodes: 1,
            intra: link(1),
        };
        let mut t = Topology::new(vec![spec; n], link(0));
        let mut v = 1;
        for i in 0..n {
            for j in (i + 1)..n {
                t.set_inter_link(ClusterId(i as u16), ClusterId(j as u16), link(v));
                v += 1;
            }
        }
        let mut seen = std::collections::HashSet::new();
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    let l = t.inter_link(ClusterId(i as u16), ClusterId(j as u16));
                    assert_eq!(l, t.inter_link(ClusterId(j as u16), ClusterId(i as u16)));
                    seen.insert(l.latency);
                }
            }
        }
        assert_eq!(seen.len(), n * (n - 1) / 2);
    }

    #[test]
    #[should_panic(expected = "no diagonal")]
    fn inter_link_rejects_the_diagonal() {
        let t = Topology::paper_reference(3);
        t.inter_link(ClusterId(2), ClusterId(2));
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
        // Must fire at construction: a cluster past the 65,536th has no
        // `u16` id to key its inter-cluster links by.
        let spec = ClusterSpec {
            nodes: 1,
            intra: LinkSpec::myrinet_like(),
        };
        Topology::new(vec![spec; MAX_CLUSTERS + 1], LinkSpec::ethernet_like());
    }
}
