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
use std::hash::Hash;

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
/// *Intra*-cluster traffic has one FIFO table and one `[App, Protocol,
/// Ack]` account per cluster. The FIFO table starts as a hash map with an
/// entry per channel in use, and turns into a dense `ranks × ranks` table
/// once the map would grow past that table's bytes: a cluster whose ranks
/// all talk to all ranks goes dense, and its `send` then hashes nothing
/// and allocates nothing; a cluster that uses a few hundred of its
/// channels keeps a map of a few hundred entries.
/// *Inter*-cluster traffic — many possible routes, few used: on a ring
/// each cluster talks to two — shares two hash maps. One is keyed by the
/// directed cluster pair (contention pipe and accounts) and has an entry
/// for each pair that has carried a message. The other is the FIFO state
/// of the directed node channels, sized by the channels with a message
/// in flight, not by those that ever talked: a federation whose node
/// pairs each exchange a message now and then keeps a few entries, not
/// one per pair.
///
/// `send` must be called with a `now` that never decreases, as a
/// simulator's clock does: the FIFO state forgets a channel once its
/// last message has arrived.
pub struct Network {
    topology: Topology,
    contention: ContentionModel,
    /// Per directed intra-cluster node channel, indexed by cluster: last
    /// scheduled arrival (FIFO ordering).
    intra_channels: Vec<IntraFifo>,
    /// The same for every directed inter-cluster node channel with a
    /// message in flight.
    inter_channels: InFlight<(NodeId, NodeId)>,
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

/// A cluster's channel map turns into a dense `ranks × ranks` table only
/// up to this many cells (512 KiB, 256 ranks); larger clusters keep the
/// map however many channels they use. An input-size guard, not a tuning
/// knob: a topology file may name a cluster of any `u32` size, and a
/// dense table for 100,000 ranks would be 80 GB.
const DENSE_CHANNEL_LIMIT: usize = 65_536;

/// FIFO last-arrival state of one cluster's intra-cluster node channels,
/// keyed by the channel's cell `from_rank * ranks + to_rank`.
/// `SimTime::ZERO` means "channel never used" — a real arrival is always
/// strictly later.
///
/// Every cluster starts as a `Map` and allocates nothing until its first
/// message. A `Map` turns `Dense`, once and for good, when a new channel
/// would grow it past the dense table's bytes; every entry is copied, so
/// the FIFO clamps of messages in flight carry over.
enum IntraFifo {
    /// The channels that carried a message.
    Map {
        ranks: usize,
        last: FastHashMap<u64, SimTime>,
    },
    /// `last[from_rank * ranks + to_rank]`.
    Dense { ranks: usize, last: Box<[SimTime]> },
}

impl IntraFifo {
    fn new(ranks: usize) -> Self {
        IntraFifo::Map {
            ranks,
            last: FastHashMap::default(),
        }
    }

    /// The last-arrival cell of channel `from -> to`. A channel the map
    /// lacks, arriving when the map is full, first turns the map dense if
    /// the map would otherwise outgrow the dense table.
    #[inline]
    fn cell(&mut self, from: u32, to: u32) -> &mut SimTime {
        if let IntraFifo::Map { ranks, last } = self {
            let key = from as u64 * *ranks as u64 + to as u64;
            if last.len() == last.capacity()
                && outgrows_dense(last.capacity(), *ranks)
                && !last.contains_key(&key)
            {
                self.promote();
            }
        }
        match self {
            IntraFifo::Dense { ranks, last } => &mut last[from as usize * *ranks + to as usize],
            IntraFifo::Map { ranks, last } => last
                .entry(from as u64 * *ranks as u64 + to as u64)
                .or_insert(SimTime::ZERO),
        }
    }

    /// Turns a `Map` into the `Dense` table, copying every entry. Once per
    /// cluster at most, so kept out of `cell`'s inlined body.
    #[cold]
    #[inline(never)]
    fn promote(&mut self) {
        if let IntraFifo::Map { ranks, last } = self {
            let mut dense = vec![SimTime::ZERO; *ranks * *ranks].into_boxed_slice();
            for (&cell, &at) in last.iter() {
                dense[cell as usize] = at;
            }
            *self = IntraFifo::Dense {
                ranks: *ranks,
                last: dense,
            };
        }
    }
}

/// The last scheduled arrival of each channel that has a message in
/// flight: FIFO clamp state sized by the messages on the wire, not by
/// the channels that ever carried one.
///
/// A channel the map lacks reads as `SimTime::ZERO`, as a channel never
/// used does. An entry arriving before `now` is worth no more: every send
/// at `now` or later departs at `now` or later, so it cannot arrive at or
/// before that entry and the clamp never fires; the send then overwrites
/// the entry with its own arrival. (An entry *at* `now` is kept: a
/// zero-latency, zero-size send at `now` arrives at `now` before the
/// progress rule and is clamped behind it.) So before the map grows it
/// drops every such entry, and grows only if it is still at least half
/// full: each pruning pass over `c` entries is followed by at least
/// `c / 2` inserts before the next, and the map holds O(channels in
/// flight) entries. This is exact only while `now` never decreases.
#[derive(Debug)]
pub(crate) struct InFlight<K> {
    last: FastHashMap<K, SimTime>,
}

impl<K> Default for InFlight<K> {
    fn default() -> Self {
        InFlight {
            last: FastHashMap::default(),
        }
    }
}

impl<K: Eq + Hash> InFlight<K> {
    /// The last-arrival cell of `channel` for a send at `now`,
    /// `SimTime::ZERO` for a channel the map lacks.
    #[inline]
    pub(crate) fn cell(&mut self, now: SimTime, channel: K) -> &mut SimTime {
        if self.last.len() == self.last.capacity() && !self.last.contains_key(&channel) {
            self.prune(now);
        }
        self.last.entry(channel).or_insert(SimTime::ZERO)
    }

    /// Drops the entries that arrived before `now`, then grows the map
    /// past its old capacity if it is still at least half full. Once per
    /// map fill at most, so kept out of `cell`'s body.
    #[cold]
    #[inline(never)]
    fn prune(&mut self, now: SimTime) {
        let capacity = self.last.capacity();
        self.last.retain(|_, at| *at >= now);
        let live = self.last.len();
        if 2 * live >= capacity {
            self.last.reserve(capacity + 1 - live);
        }
    }
}

/// Whether a full channel map of `capacity` entries, once grown, holds
/// more bytes than the dense table of a `ranks`-rank cluster, which may
/// take its place. The map doubles as it grows, from a smallest table of
/// four buckets, and each bucket is an entry and a control byte.
fn outgrows_dense(capacity: usize, ranks: usize) -> bool {
    let cells = ranks.saturating_mul(ranks);
    let bucket = std::mem::size_of::<(u64, SimTime)>() + 1;
    cells <= DENSE_CHANNEL_LIMIT
        && (2 * capacity).max(4) * bucket > cells * std::mem::size_of::<SimTime>()
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
        let intra_channels = (0..n)
            .map(|c| IntraFifo::new(topology.nodes_in(ClusterId(c as u16)) as usize))
            .collect();
        Network {
            topology,
            contention: ContentionModel::default(),
            intra_channels,
            inter_channels: InFlight::default(),
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
            let last = self.intra_channels[c].cell(from.rank, to.rank);
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
            let last = self.inter_channels.cell(now, (from, to));
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

    /// The `from -> to` route's `[App, Protocol, Ack]` cells, zero for a
    /// route [`Network::accounts`] does not yield.
    fn cells(n: &Network, from: ClusterId, to: ClusterId) -> Accounts {
        n.accounts()
            .find(|&(f, t, _)| (f, t) == (from, to))
            .map_or_else(Accounts::default, |(_, _, cells)| *cells)
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

    /// One cluster of `nodes` ranks on the SAN.
    fn cluster(nodes: u32) -> Network {
        Network::new(Topology::new(
            vec![ClusterSpec {
                nodes,
                intra: LinkSpec::myrinet_like(),
            }],
            LinkSpec::ethernet_like(),
        ))
    }

    fn is_dense(n: &Network) -> bool {
        matches!(n.intra_channels[0], IntraFifo::Dense { .. })
    }

    /// Sends one message on every channel `from -> to` with `from` below
    /// `senders` and `to` a different rank below `ranks`, in order.
    fn all_pairs(n: &mut Network, senders: u32, ranks: u32) -> usize {
        let mut sent = 0;
        for from in 0..senders {
            for to in (0..ranks).filter(|&to| to != from) {
                let (from, to) = (NodeId::new(0, from), NodeId::new(0, to));
                n.send(SimTime::ZERO, from, to, 64, MessageClass::Protocol);
                sent += 1;
            }
        }
        sent
    }

    #[test]
    fn an_over_limit_cluster_never_promotes() {
        // 300 ranks is 90,000 cells, over the limit: 29,900 channels grow
        // the map past the 720,000 B a dense table would take, and it
        // stays a map.
        let mut n = cluster(300);
        assert_eq!(all_pairs(&mut n, 100, 300), 29_900);
        match &n.intra_channels[0] {
            IntraFifo::Map { last, .. } => assert_eq!(last.len(), 29_900),
            IntraFifo::Dense { .. } => panic!("a 300-rank cluster went dense"),
        }
    }

    #[test]
    fn all_to_all_traffic_promotes() {
        // A 100-rank cluster's map holds 3,584 channels in 4,096 buckets
        // (69,632 B, under the 80,000 B table); the 3,585th would double
        // it past the table, so it turns dense instead, and stays dense.
        let mut n = cluster(100);
        // Ranks 0..36 to every other rank: 36 x 99 = 3,564 channels, then
        // 20 of rank 36's.
        all_pairs(&mut n, 36, 100);
        for to in 0..20 {
            let (from, to) = (NodeId::new(0, 36), NodeId::new(0, to));
            n.send(SimTime::ZERO, from, to, 64, MessageClass::App);
        }
        assert!(!is_dense(&n), "a map of 3,584 channels fits its buckets");
        // An old channel does not grow the map.
        n.send(
            SimTime::ZERO,
            NodeId::new(0, 0),
            NodeId::new(0, 1),
            64,
            MessageClass::App,
        );
        assert!(!is_dense(&n));
        n.send(
            SimTime::ZERO,
            NodeId::new(0, 36),
            NodeId::new(0, 20),
            64,
            MessageClass::App,
        );
        assert!(is_dense(&n), "the 3,585th channel");
        all_pairs(&mut n, 100, 100);
        assert!(is_dense(&n));
        assert_eq!(cells(&n, ClusterId(0), ClusterId(0))[0].messages, 22);
    }

    #[test]
    fn hashed_intra_channels_time_like_the_dense_table() {
        // The same traffic among the first 40 ranks of a 300-rank cluster
        // (over the limit: a map throughout) and of a 40-rank cluster
        // (which turns dense partway, with big messages in flight) must
        // arrive at the same instants, FIFO clamps included.
        let (mut hashed, mut switching) = (cluster(300), cluster(40));
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut step = || {
            x = x.wrapping_mul(0xd1342543de82ef95).rotate_left(23) ^ 0x5bd1;
            x >> 33
        };
        let mut now = SimTime::ZERO;
        let mut promoted_at = None;
        for i in 0..20_000 {
            // 16 hot senders, big-then-small sizes: plenty of FIFO clamps.
            let (from, to) = (step() % 16, step() % 40);
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
                switching.send(now, from, to, bytes, MessageClass::App),
            );
            if promoted_at.is_none() && is_dense(&switching) {
                promoted_at = Some(i);
            }
        }
        let promoted_at = promoted_at.expect("the 40-rank cluster turns dense");
        assert!(
            (100..10_000).contains(&promoted_at),
            "promoted at send {promoted_at}, not partway"
        );
        assert!(!is_dense(&hashed));
    }

    #[test]
    fn inter_cluster_fifo_state_follows_the_messages_in_flight() {
        // Each of 10,000 node channels carries one message, sent after
        // the previous one arrived: the map never holds more than its
        // smallest table, where keeping every channel would hold 10,000.
        let mut n = net();
        let mut now = SimTime::ZERO;
        for from in 0..100 {
            for to in 0..100 {
                let (from, to) = (NodeId::new(0, from), NodeId::new(1, to));
                now = n.send(now, from, to, 64, MessageClass::App);
            }
        }
        let held = n.inter_channels.last.len();
        assert!(held <= 3, "{held} entries");
        // Messages still in flight are all kept, FIFO clamps and all.
        let now = now + SimDuration::from_nanos(1);
        let (from, to) = (NodeId::new(0, 0), NodeId::new(1, 0));
        let first = n.send(now, from, to, 1_000_000, MessageClass::App);
        for rank in 1..100 {
            n.send(now, NodeId::new(0, rank), to, 64, MessageClass::App);
        }
        assert_eq!(n.inter_channels.last.len(), 100);
        assert!(n.send(now, from, to, 1, MessageClass::App) > first);
    }

    #[test]
    fn a_zero_latency_clamp_at_now_survives_a_prune() {
        // On a zero-latency link a zero-size send at `now` arrives at `now`
        // before the progress rule, and that is the entry it leaves: the
        // next send on the channel at the same instant is clamped behind
        // it, so a prune at `now` must keep it.
        let free = LinkSpec {
            latency: SimDuration::ZERO,
            bandwidth_bps: u64::MAX,
        };
        let cluster = ClusterSpec {
            nodes: 8,
            intra: free,
        };
        let mut n = Network::new(Topology::new(vec![cluster; 2], free));
        let now = t_us(5);
        let tick = SimDuration::from_nanos(1);
        let (from, to) = (NodeId::new(0, 0), NodeId::new(1, 0));
        assert_eq!(n.send(now, from, to, 0, MessageClass::App), now + tick);
        // Fill the map's smallest table and open one more channel: a prune.
        for rank in 1..4 {
            n.send(now, NodeId::new(0, rank), to, 0, MessageClass::App);
        }
        assert_eq!(n.send(now, from, to, 0, MessageClass::App), now + tick);
        assert_eq!(
            n.send(now, from, to, 0, MessageClass::App),
            now + SimDuration::from_nanos(2)
        );
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
        assert!(
            n.accounts()
                .all(|(from, to, _)| from.index() < 2 && to.index() < 2),
            "only the topology's clusters have accounts"
        );
        assert_eq!(
            cells(&n, ClusterId(9), ClusterId(0)),
            Accounts::default(),
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

        let (app, protocol, ack) = (0, 1, 2);
        assert_eq!(cells(&n, c0, c0)[app].messages, 1);
        assert_eq!(cells(&n, c0, c1)[app].messages, 1);
        assert_eq!(cells(&n, c1, c0)[app].messages, 0);
        assert_eq!(cells(&n, c1, c0)[ack].messages, 1);
        assert_eq!(cells(&n, c1, c0)[ack].bytes, 30);
        let totals = n.class_totals();
        assert_eq!(totals[protocol].messages, 1);
        assert_eq!(totals[app].messages, 2);
        assert_eq!(totals[app].bytes, 30);
        let inter_app: u64 = n
            .accounts()
            .filter(|&(from, to, _)| from != to)
            .map(|(_, _, cells)| cells[app].messages)
            .sum();
        assert_eq!(inter_app, 1);
    }
}
