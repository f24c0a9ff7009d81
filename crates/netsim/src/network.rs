//! Message delivery timing and traffic accounting.
//!
//! The network is reliable ("a sent message will be received in an arbitrary
//! but finite laps of time" — paper §2.1): no loss, no duplication. We add
//! per-directed-channel FIFO ordering, which is what a SAN or a TCP-backed
//! WAN link provides in practice and what keeps two-phase-commit rounds
//! simple.
//!
//! Delivery time = queueing (optional contention model) + serialization
//! (size / bandwidth) + propagation latency. Every message is also charged
//! to a `(from_cluster, to_cluster, class)` account — the paper's Table 1 is
//! exactly a dump of those accounts for the application class.

use crate::topology::Topology;
use hc3i_types::{ClusterId, FastHashMap, MessageClass, NodeId, SimDuration, SimTime};

/// How concurrent transfers share a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ContentionModel {
    /// Infinite capacity: every transfer sees full bandwidth (the classic
    /// latency+bandwidth DES model; paper-faithful for light traffic).
    #[default]
    Unlimited,
    /// Transfers on the same directed *cluster pair* serialize (models a
    /// single shared inter-cluster pipe; intra-cluster stays unlimited).
    InterClusterFifo,
}

/// Cumulative per-account traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficCell {
    /// Message count.
    pub messages: u64,
    /// Payload bytes.
    pub bytes: u64,
}

/// The network model: timing + accounting.
///
/// Hot-path layout: state is sized by what carried a message, never by
/// federation width squared, and follows the federation's hierarchy.
/// *Intra*-cluster traffic — nearly all of it, all ranks talking to all
/// ranks — has one dense rank table of FIFO state and one `[App,
/// Protocol, Ack]` account per cluster, so an intra-cluster `send` hashes
/// nothing and allocates nothing after its cluster's first message.
/// *Inter*-cluster traffic — many possible routes, few used: on a ring
/// each cluster talks to two — shares two hash maps, one keyed by the
/// directed node channel (FIFO state) and one by the directed cluster
/// pair (contention pipe and accounts), each with an entry only for what
/// has carried a message.
pub struct Network {
    topology: Topology,
    contention: ContentionModel,
    /// Per directed intra-cluster node channel, indexed by cluster: last
    /// scheduled arrival (FIFO ordering). `None` until the cluster's first
    /// intra-cluster message.
    intra_channels: Vec<Option<IntraFifo>>,
    /// The same for every directed inter-cluster node channel in use.
    inter_channels: FastHashMap<(NodeId, NodeId), SimTime>,
    /// Accounting of each cluster's traffic to itself.
    intra_accounts: Vec<Accounts>,
    /// Pipe and accounting of every directed pair of distinct clusters
    /// that has carried a message.
    pairs: FastHashMap<(ClusterId, ClusterId), PairState>,
}

const N_CLASSES: usize = 3;

/// One route's cumulative traffic, indexed as `[App, Protocol, Ack]`.
type Accounts = [TrafficCell; N_CLASSES];

/// What the network keeps per directed pair of distinct clusters.
#[derive(Default)]
struct PairState {
    /// When the shared pipe frees up (`ZERO` = never contended for).
    pipe_free_at: SimTime,
    accounts: Accounts,
}

/// A cluster's `ranks × ranks` channel table is allocated densely up to
/// this many cells (512 KiB, 256 ranks); larger clusters hash per cluster.
/// An input-size guard, not a tuning knob: a topology file may name a
/// cluster of any `u32` size, and a dense table for 100,000 ranks would be
/// 80 GB. No committed workload has a cluster above 100 ranks, so only
/// `hashed_intra_channels_time_like_the_dense_table` runs the hashed arm.
const DENSE_CHANNEL_LIMIT: usize = 65_536;

/// FIFO last-arrival state of one cluster's intra-cluster node channels.
/// `SimTime::ZERO` means "channel never used" — a real arrival is always
/// strictly later.
enum IntraFifo {
    /// `last[from_rank * ranks + to_rank]`.
    Dense { ranks: usize, last: Box<[SimTime]> },
    /// Clusters too large for a dense rank product.
    Hash(FastHashMap<(u32, u32), SimTime>),
}

impl IntraFifo {
    fn new(ranks: usize) -> Self {
        if ranks * ranks <= DENSE_CHANNEL_LIMIT {
            IntraFifo::Dense {
                ranks,
                last: vec![SimTime::ZERO; ranks * ranks].into_boxed_slice(),
            }
        } else {
            IntraFifo::Hash(FastHashMap::default())
        }
    }
}

#[inline]
fn class_index(class: MessageClass) -> usize {
    match class {
        MessageClass::App => 0,
        MessageClass::Protocol => 1,
        MessageClass::Ack => 2,
    }
}

impl Network {
    /// A network over `topology` with the default (unlimited) contention.
    pub fn new(topology: Topology) -> Self {
        let n = topology.num_clusters();
        Network {
            topology,
            contention: ContentionModel::default(),
            intra_channels: (0..n).map(|_| None).collect(),
            inter_channels: FastHashMap::default(),
            intra_accounts: vec![Accounts::default(); n],
            pairs: FastHashMap::default(),
        }
    }

    /// Select the contention model.
    pub fn with_contention(mut self, model: ContentionModel) -> Self {
        self.contention = model;
        self
    }

    /// Compute the arrival time of a message sent now, update FIFO state and
    /// charge the traffic account. Never returns a time `<= now`.
    pub fn send(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        bytes: u64,
        class: MessageClass,
    ) -> SimTime {
        let link = self.topology.link_between(from.cluster, to.cluster);
        let transmit = link.transmit_time(bytes);

        // Where this route's state lives: the departure under the chosen
        // contention model (only inter-cluster transfers queue), the FIFO
        // cell of the directed node channel, and the account to charge.
        let (depart, last, accounts) = if from.cluster == to.cluster {
            let c = from.cluster.index();
            let fifo = self.intra_channels[c].get_or_insert_with(|| {
                IntraFifo::new(self.topology.nodes_in(from.cluster) as usize)
            });
            let last = match fifo {
                IntraFifo::Dense { ranks, last } => {
                    &mut last[from.rank as usize * *ranks + to.rank as usize]
                }
                IntraFifo::Hash(m) => m.entry((from.rank, to.rank)).or_insert(SimTime::ZERO),
            };
            (now, last, &mut self.intra_accounts[c])
        } else {
            let pair = self.pairs.entry((from.cluster, to.cluster)).or_default();
            let depart = match self.contention {
                ContentionModel::Unlimited => now,
                ContentionModel::InterClusterFifo => {
                    let depart = pair.pipe_free_at.max(now);
                    pair.pipe_free_at = depart.saturating_add(transmit);
                    depart
                }
            };
            let last = self
                .inter_channels
                .entry((from, to))
                .or_insert(SimTime::ZERO);
            (depart, last, &mut pair.accounts)
        };

        let mut arrival = depart.saturating_add(transmit).saturating_add(link.latency);
        // Enforce FIFO per directed node channel.
        if arrival <= *last {
            arrival = last.saturating_add(SimDuration::from_nanos(1));
        }
        *last = arrival;

        // Make progress even for zero-latency zero-size sends.
        if arrival <= now {
            arrival = now.saturating_add(SimDuration::from_nanos(1));
        }

        let cell = &mut accounts[class_index(class)];
        cell.messages += 1;
        cell.bytes += bytes;

        arrival
    }

    /// Traffic charged to a `(from, to, class)` account. Total: a pair that
    /// never carried a message, and out-of-range cluster ids, report zero.
    pub fn traffic(&self, from: ClusterId, to: ClusterId, class: MessageClass) -> TrafficCell {
        let accounts = if from == to {
            self.intra_accounts.get(from.index())
        } else {
            self.pairs.get(&(from, to)).map(|pair| &pair.accounts)
        };
        accounts.map_or_else(TrafficCell::default, |a| a[class_index(class)])
    }

    /// All application messages from `from` to `to` (the Table 1 cells).
    pub fn app_messages(&self, from: ClusterId, to: ClusterId) -> u64 {
        self.traffic(from, to, MessageClass::App).messages
    }

    /// Every route that has an account — each cluster to itself, and the
    /// directed pairs that carried a message — with its cells as `[App,
    /// Protocol, Ack]`, in no particular order. A route not yielded has
    /// carried nothing.
    pub fn accounts(&self) -> impl Iterator<Item = (ClusterId, ClusterId, &[TrafficCell; 3])> {
        let intra = self.intra_accounts.iter().enumerate().map(|(c, cells)| {
            let c = ClusterId(c as u16);
            (c, c, cells)
        });
        let inter = self
            .pairs
            .iter()
            .map(|(&(from, to), pair)| (from, to, &pair.accounts));
        intra.chain(inter)
    }

    /// Messages and bytes of every class summed over all accounts, in one
    /// sweep; indexed as `[App, Protocol, Ack]`.
    pub fn class_totals(&self) -> [TrafficCell; 3] {
        let mut totals = [TrafficCell::default(); N_CLASSES];
        for (_, _, cells) in self.accounts() {
            for (total, cell) in totals.iter_mut().zip(cells) {
                total.messages += cell.messages;
                total.bytes += cell.bytes;
            }
        }
        totals
    }

    /// Total messages of one class across all accounts.
    pub fn total_by_class(&self, class: MessageClass) -> u64 {
        self.class_totals()[class_index(class)].messages
    }

    /// Total bytes of one class across all accounts.
    pub fn total_bytes_by_class(&self, class: MessageClass) -> u64 {
        self.class_totals()[class_index(class)].bytes
    }

    /// Inter-cluster messages of one class (excludes intra-cluster traffic).
    pub fn inter_cluster_by_class(&self, class: MessageClass) -> u64 {
        let k = class_index(class);
        self.pairs.values().map(|p| p.accounts[k].messages).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{ClusterSpec, LinkSpec};

    fn net() -> Network {
        Network::new(Topology::paper_reference(2))
    }

    fn t_us(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    #[test]
    fn intra_cluster_delivery_uses_san() {
        let mut n = net();
        // 1000 bytes over 80 Mb/s = 100 µs; + 10 µs latency.
        let arrival = n.send(
            SimTime::ZERO,
            NodeId::new(0, 0),
            NodeId::new(0, 1),
            1000,
            MessageClass::App,
        );
        assert_eq!(arrival, t_us(110));
    }

    #[test]
    fn inter_cluster_delivery_uses_wan() {
        let mut n = net();
        // 1000 bytes over 100 Mb/s = 80 µs; + 150 µs latency.
        let arrival = n.send(
            SimTime::ZERO,
            NodeId::new(0, 0),
            NodeId::new(1, 0),
            1000,
            MessageClass::App,
        );
        assert_eq!(arrival, t_us(230));
    }

    #[test]
    fn arrival_is_strictly_after_send() {
        let mut n = Network::new(Topology::new(
            vec![ClusterSpec {
                nodes: 2,
                intra: LinkSpec {
                    latency: SimDuration::ZERO,
                    bandwidth_bps: 1_000_000_000,
                },
            }],
            LinkSpec::ethernet_like(),
        ));
        let arrival = n.send(
            SimTime::ZERO,
            NodeId::new(0, 0),
            NodeId::new(0, 1),
            0,
            MessageClass::Protocol,
        );
        assert!(arrival > SimTime::ZERO);
    }

    #[test]
    fn channel_is_fifo() {
        let mut n = net();
        let from = NodeId::new(0, 0);
        let to = NodeId::new(1, 0);
        // Big message first, then a tiny one at the same instant: the tiny
        // one must not overtake.
        let a1 = n.send(SimTime::ZERO, from, to, 1_000_000, MessageClass::App);
        let a2 = n.send(SimTime::ZERO, from, to, 1, MessageClass::App);
        assert!(a2 > a1, "FIFO violated: {a2:?} <= {a1:?}");
    }

    #[test]
    fn hashed_intra_channels_time_like_the_dense_table() {
        // The same traffic among the first 256 ranks of a 300-rank cluster
        // (hashed: 90,000 cells is over the dense limit) and of a 256-rank
        // cluster (dense: exactly at it) must arrive at the same instants,
        // FIFO clamps included.
        let cluster = |nodes| {
            Network::new(Topology::new(
                vec![ClusterSpec {
                    nodes,
                    intra: LinkSpec::myrinet_like(),
                }],
                LinkSpec::ethernet_like(),
            ))
        };
        let (mut hashed, mut dense) = (cluster(300), cluster(256));
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut step = || {
            x = x.wrapping_mul(0xd1342543de82ef95).rotate_left(23) ^ 0x5bd1;
            x >> 33
        };
        let mut now = SimTime::ZERO;
        for _ in 0..20_000 {
            // 16 hot ranks, big-then-small sizes: plenty of FIFO clamps.
            let (from, to) = (step() % 16, step() % 256);
            if from == to {
                continue;
            }
            let bytes = if step() % 4 == 0 {
                100_000
            } else {
                step() % 64
            };
            now = now.saturating_add(SimDuration::from_nanos(step() % 2_000));
            let (from, to) = (NodeId::new(0, from as u32), NodeId::new(0, to as u32));
            assert_eq!(
                hashed.send(now, from, to, bytes, MessageClass::App),
                dense.send(now, from, to, bytes, MessageClass::App),
            );
        }
        assert!(matches!(hashed.intra_channels[0], Some(IntraFifo::Hash(_))));
        assert!(matches!(
            dense.intra_channels[0],
            Some(IntraFifo::Dense { .. })
        ));
    }

    #[test]
    fn distinct_channels_do_not_interfere() {
        let mut n = net();
        let a1 = n.send(
            SimTime::ZERO,
            NodeId::new(0, 0),
            NodeId::new(1, 0),
            1_000_000,
            MessageClass::App,
        );
        // Different sender: no FIFO coupling under Unlimited contention.
        let a2 = n.send(
            SimTime::ZERO,
            NodeId::new(0, 1),
            NodeId::new(1, 0),
            1,
            MessageClass::App,
        );
        assert!(a2 < a1);
    }

    #[test]
    fn inter_cluster_fifo_contention_serializes_pipe() {
        let mut n = Network::new(Topology::paper_reference(2))
            .with_contention(ContentionModel::InterClusterFifo);
        // Two 1 MB transfers from different senders share the 100 Mb/s pipe:
        // each takes 80 ms to serialize; the second departs only at 80 ms.
        let a1 = n.send(
            SimTime::ZERO,
            NodeId::new(0, 0),
            NodeId::new(1, 0),
            1_000_000,
            MessageClass::App,
        );
        let a2 = n.send(
            SimTime::ZERO,
            NodeId::new(0, 1),
            NodeId::new(1, 1),
            1_000_000,
            MessageClass::App,
        );
        assert_eq!(a1, SimTime::ZERO + SimDuration::from_micros(80_150));
        assert_eq!(a2, SimTime::ZERO + SimDuration::from_micros(160_150));
    }

    #[test]
    fn contention_does_not_affect_intra_cluster() {
        let mut n = Network::new(Topology::paper_reference(2))
            .with_contention(ContentionModel::InterClusterFifo);
        let a1 = n.send(
            SimTime::ZERO,
            NodeId::new(0, 0),
            NodeId::new(0, 1),
            1000,
            MessageClass::App,
        );
        let a2 = n.send(
            SimTime::ZERO,
            NodeId::new(0, 2),
            NodeId::new(0, 3),
            1000,
            MessageClass::App,
        );
        assert_eq!(a1, a2);
    }

    #[test]
    fn traffic_is_total_over_cluster_ids() {
        let n = net();
        assert_eq!(
            n.traffic(ClusterId(9), ClusterId(0), MessageClass::App),
            TrafficCell::default(),
            "out-of-range ids report zero traffic, not a panic"
        );
    }

    #[test]
    fn accounting_by_pair_and_class() {
        let mut n = net();
        let c0 = ClusterId(0);
        let c1 = ClusterId(1);
        n.send(
            SimTime::ZERO,
            NodeId::new(0, 0),
            NodeId::new(0, 1),
            10,
            MessageClass::App,
        );
        n.send(
            SimTime::ZERO,
            NodeId::new(0, 0),
            NodeId::new(1, 0),
            20,
            MessageClass::App,
        );
        n.send(
            SimTime::ZERO,
            NodeId::new(1, 0),
            NodeId::new(0, 0),
            30,
            MessageClass::Ack,
        );
        n.send(
            SimTime::ZERO,
            NodeId::new(0, 1),
            NodeId::new(0, 2),
            40,
            MessageClass::Protocol,
        );

        assert_eq!(n.app_messages(c0, c0), 1);
        assert_eq!(n.app_messages(c0, c1), 1);
        assert_eq!(n.app_messages(c1, c0), 0);
        assert_eq!(n.traffic(c1, c0, MessageClass::Ack).messages, 1);
        assert_eq!(n.traffic(c1, c0, MessageClass::Ack).bytes, 30);
        assert_eq!(n.total_by_class(MessageClass::Protocol), 1);
        assert_eq!(n.total_by_class(MessageClass::App), 2);
        assert_eq!(n.total_bytes_by_class(MessageClass::App), 30);
        assert_eq!(n.inter_cluster_by_class(MessageClass::App), 1);
    }
}
