//! Property tests for the network model: FIFO ordering, causality and
//! conservation of accounting, and the FIFO clamp state of the base
//! network (between clusters and inside them) and of the hostile layer,
//! pruned as messages land, against reference models that never forget
//! a channel.

use desim::{SimDuration, SimTime};
use netsim::{
    ClusterId, ClusterSpec, ContentionModel, HostileNet, HostileOutcome, HostileSpec, LatencyDist,
    LinkSpec, MessageClass, Mix64, Network, NodeId, PartitionSpec, Topology, TrafficCell,
};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone, Copy)]
struct Send {
    gap_us: u64,
    from: (u16, u32),
    to: (u16, u32),
    bytes: u64,
    class_pick: u8,
}

fn send_strategy() -> impl Strategy<Value = Send> {
    (
        0u64..500,
        (0u16..2, 0u32..4),
        (0u16..2, 0u32..4),
        0u64..100_000,
        0u8..3,
    )
        .prop_filter_map("no self sends", |(gap_us, f, t, bytes, class_pick)| {
            (f != t).then_some(Send {
                gap_us,
                from: f,
                to: t,
                bytes,
                class_pick,
            })
        })
}

fn class_of(pick: u8) -> MessageClass {
    match pick {
        0 => MessageClass::App,
        1 => MessageClass::Protocol,
        _ => MessageClass::Ack,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arrivals_are_causal_and_fifo(
        sends in prop::collection::vec(send_strategy(), 1..120),
        contended in any::<bool>(),
    ) {
        let topo = Topology::paper_reference(2);
        let model = if contended {
            ContentionModel::InterClusterFifo
        } else {
            ContentionModel::Unlimited
        };
        let mut net = Network::new(topo).with_contention(model);
        let mut now = SimTime::ZERO;
        let mut last_arrival: std::collections::HashMap<(NodeId, NodeId), SimTime> =
            std::collections::HashMap::new();
        let mut per_class = [0u64; 3];

        for s in &sends {
            now += SimDuration::from_micros(s.gap_us);
            let from = NodeId::new(s.from.0, s.from.1);
            let to = NodeId::new(s.to.0, s.to.1);
            let class = class_of(s.class_pick);
            let arrival = net.send(now, from, to, s.bytes, class);
            // Causality: arrival strictly after the send.
            prop_assert!(arrival > now, "arrival {arrival} <= send {now}");
            // FIFO per directed channel.
            if let Some(&prev) = last_arrival.get(&(from, to)) {
                prop_assert!(arrival > prev, "channel reordering");
            }
            last_arrival.insert((from, to), arrival);
            per_class[s.class_pick.min(2) as usize] += 1;
        }

        // Conservation: accounting matches what we sent.
        let totals = net.class_totals();
        prop_assert_eq!(totals.map(|t| t.messages), per_class);
        let matrix_total: u64 = net
            .accounts()
            .flat_map(|(_, _, cells)| cells.iter().map(|c| c.messages))
            .sum();
        prop_assert_eq!(matrix_total, sends.len() as u64);
    }

    #[test]
    fn contention_never_speeds_anything_up(
        sends in prop::collection::vec(send_strategy(), 1..60),
    ) {
        let mk = |model| {
            let mut net = Network::new(Topology::paper_reference(2)).with_contention(model);
            let mut now = SimTime::ZERO;
            sends
                .iter()
                .map(|s| {
                    now += SimDuration::from_micros(s.gap_us);
                    net.send(
                        now,
                        NodeId::new(s.from.0, s.from.1),
                        NodeId::new(s.to.0, s.to.1),
                        s.bytes,
                        class_of(s.class_pick),
                    )
                })
                .collect::<Vec<_>>()
        };
        let free = mk(ContentionModel::Unlimited);
        let fifo = mk(ContentionModel::InterClusterFifo);
        for (a, b) in free.iter().zip(&fifo) {
            prop_assert!(b >= a, "contention made a message faster");
        }
    }
}

/// 64 three-node clusters and one 300-node cluster: the big cluster's
/// 90,000 rank pairs exceed the dense-table limit, so between them the
/// sends below reach the dense intra-cluster table, the hashed one and
/// the inter-cluster map.
const SMALL_CLUSTERS: u16 = 64;
const BIG_CLUSTER_NODES: u32 = 300;

fn wide_topology() -> Topology {
    let small = ClusterSpec {
        nodes: 3,
        intra: LinkSpec::myrinet_like(),
    };
    let mut clusters = vec![small; SMALL_CLUSTERS as usize];
    clusters.push(ClusterSpec {
        nodes: BIG_CLUSTER_NODES,
        ..small
    });
    Topology::new(clusters, LinkSpec::ethernet_like())
}

/// A node out of a handful (first, second and last small cluster, first,
/// middle and last rank of the big one), so channels repeat and the FIFO
/// clamp is exercised, not only the first message of each.
fn wide_node_strategy() -> impl Strategy<Value = NodeId> {
    (0usize..4, 0usize..3).prop_map(|(c, r)| {
        let cluster = [0, 1, SMALL_CLUSTERS - 1, SMALL_CLUSTERS][c];
        let rank = if cluster == SMALL_CLUSTERS {
            [0, BIG_CLUSTER_NODES / 2, BIG_CLUSTER_NODES - 1][r]
        } else {
            r as u32
        };
        NodeId::new(cluster, rank)
    })
}

/// The network's rules restated the plain way: one FIFO entry per
/// directed node channel and one pipe per directed cluster pair in hash
/// maps, and the accounts as the dense `clusters x clusters x class`
/// table the network itself does not keep.
struct ReferenceNetwork {
    topology: Topology,
    contended: bool,
    last_arrival: HashMap<(NodeId, NodeId), SimTime>,
    pipe_free_at: HashMap<(ClusterId, ClusterId), SimTime>,
    /// `accounts[from * n + to][class]`.
    accounts: Vec<[TrafficCell; 3]>,
}

impl ReferenceNetwork {
    fn new(topology: Topology, contended: bool) -> Self {
        let n = topology.num_clusters();
        ReferenceNetwork {
            topology,
            contended,
            last_arrival: HashMap::new(),
            pipe_free_at: HashMap::new(),
            accounts: vec![[TrafficCell::default(); 3]; n * n],
        }
    }

    /// The network under test over the same topology and contention model.
    fn network(&self) -> Network {
        Network::new(self.topology.clone()).with_contention(if self.contended {
            ContentionModel::InterClusterFifo
        } else {
            ContentionModel::Unlimited
        })
    }

    fn send(&mut self, now: SimTime, from: NodeId, to: NodeId, bytes: u64, class: u8) -> SimTime {
        let tick = SimDuration::from_nanos(1);
        let link = self.topology.link_between(from.cluster, to.cluster);
        let transmit = link.transmit_time(bytes);
        let mut depart = now;
        if self.contended && from.cluster != to.cluster {
            let pipe = self
                .pipe_free_at
                .entry((from.cluster, to.cluster))
                .or_insert(SimTime::ZERO);
            depart = now.max(*pipe);
            *pipe = depart.saturating_add(transmit);
        }
        let mut arrival = depart.saturating_add(transmit).saturating_add(link.latency);
        let last = self.last_arrival.entry((from, to)).or_insert(SimTime::ZERO);
        if arrival <= *last {
            arrival = last.saturating_add(tick);
        }
        *last = arrival;
        let n = self.topology.num_clusters();
        let cell = &mut self.accounts[from.cluster.index() * n + to.cluster.index()]
            [class.min(2) as usize];
        cell.messages += 1;
        cell.bytes += bytes;
        arrival.max(now.saturating_add(tick))
    }

    /// Both accounting views of `net` against the dense table: the class
    /// totals, and each route `accounts` yields — once, within the
    /// topology, with its cells — and zero on every route it does not.
    fn check_accounts(&self, net: &Network) -> Result<(), TestCaseError> {
        let n = self.topology.num_clusters();
        let mut totals = [TrafficCell::default(); 3];
        for cells in &self.accounts {
            for (total, cell) in totals.iter_mut().zip(cells) {
                total.messages += cell.messages;
                total.bytes += cell.bytes;
            }
        }
        prop_assert_eq!(net.class_totals(), totals);
        let mut seen = vec![false; n * n];
        for (from, to, cells) in net.accounts() {
            prop_assert!(from.index() < n && to.index() < n, "{} -> {}", from, to);
            let slot = from.index() * n + to.index();
            prop_assert!(
                !std::mem::replace(&mut seen[slot], true),
                "route yielded twice"
            );
            prop_assert_eq!(cells, &self.accounts[slot]);
        }
        for (slot, cells) in self.accounts.iter().enumerate() {
            prop_assert!(seen[slot] || *cells == [TrafficCell::default(); 3]);
        }
        Ok(())
    }
}

/// A federation of `n` three-node clusters that talk along a ring
/// (`c -> c ± 1`) or a star (`0 <-> c`): `n²` possible cluster pairs, `2n`
/// used. `pick` names a cluster and `kind` what it does: 0 sends to
/// itself, 1 along its edge, 2 against it.
fn edge_of(star: bool, n: u16, pick: u16, kind: u8) -> (u16, u16) {
    let c = pick % n;
    let peer = if star {
        if c == 0 {
            1
        } else {
            0
        }
    } else {
        (c + 1) % n
    };
    match kind {
        0 => (c, c),
        1 => (c, peer),
        _ => (peer, c),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever table a channel's FIFO state lives in, every arrival and
    /// every account is the reference model's, under both contention
    /// models.
    #[test]
    fn arrivals_equal_the_reference_model(
        sends in prop::collection::vec(
            (0u64..500, wide_node_strategy(), wide_node_strategy(), 0u64..2_000_000, 0u8..3),
            1..250,
        ),
        contended in any::<bool>(),
    ) {
        let mut reference = ReferenceNetwork::new(wide_topology(), contended);
        let mut net = reference.network();
        let mut now = SimTime::ZERO;
        for &(gap_us, from, to, bytes, class_pick) in &sends {
            if from == to {
                continue;
            }
            now += SimDuration::from_micros(gap_us);
            let got = net.send(now, from, to, bytes, class_of(class_pick));
            let want = reference.send(now, from, to, bytes, class_pick);
            prop_assert_eq!(got, want, "{} -> {} sent at {}", from, to, now);
        }
        reference.check_accounts(&net)?;
    }

    /// The same on federations of 64–256 clusters whose traffic follows a
    /// ring or a star: pair state exists only for the edges that carried
    /// a message, and every view of it still equals the dense table —
    /// including the `n² - 2n` pairs that never did.
    #[test]
    fn rings_and_stars_equal_the_dense_model(
        star in any::<bool>(),
        n in 64u16..=256,
        sends in prop::collection::vec(
            (0u64..500, any::<u16>(), 0u8..3, 0u32..3, 0u32..3, 0u64..2_000_000, 0u8..3),
            1..300,
        ),
        contended in any::<bool>(),
    ) {
        let cluster = ClusterSpec { nodes: 3, intra: LinkSpec::myrinet_like() };
        let topology = Topology::new(vec![cluster; n as usize], LinkSpec::ethernet_like());
        let mut reference = ReferenceNetwork::new(topology, contended);
        let mut net = reference.network();
        let mut now = SimTime::ZERO;
        for &(gap_us, pick, kind, from_rank, to_rank, bytes, class_pick) in &sends {
            let (from, to) = edge_of(star, n, pick, kind);
            let (from, to) = (NodeId::new(from, from_rank), NodeId::new(to, to_rank));
            if from == to {
                continue;
            }
            now += SimDuration::from_micros(gap_us);
            let got = net.send(now, from, to, bytes, class_of(class_pick));
            let want = reference.send(now, from, to, bytes, class_pick);
            prop_assert_eq!(got, want, "{} -> {} sent at {}", from, to, now);
        }
        reference.check_accounts(&net)?;
    }
}

/// Inter-cluster links a topology test may set: the default, two that
/// differ from it in both fields, and one that differs in bandwidth only.
const LINKS: [LinkSpec; 4] = [
    LinkSpec {
        latency: SimDuration::from_micros(150),
        bandwidth_bps: 100_000_000,
    },
    LinkSpec {
        latency: SimDuration::from_millis(5),
        bandwidth_bps: 10_000_000,
    },
    LinkSpec {
        latency: SimDuration::from_micros(10),
        bandwidth_bps: 80_000_000,
    },
    LinkSpec {
        latency: SimDuration::from_micros(150),
        bandwidth_bps: 10_000_000,
    },
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A topology keeps its default link and the pairs that differ from
    /// it; every ordered pair's link still equals an `n x n` table in
    /// which a link set for `{a, b}` is the link in both directions, the
    /// last write wins and an unnamed pair has the default.
    #[test]
    fn sparse_inter_links_equal_the_dense_model(
        n in 2usize..=8,
        writes in prop::collection::vec((0usize..8, 0usize..8, 0usize..LINKS.len()), 0..40),
    ) {
        let intra = LinkSpec { latency: SimDuration::from_nanos(1), bandwidth_bps: 1 };
        let cluster = ClusterSpec { nodes: 1, intra };
        let mut topology = Topology::new(vec![cluster; n], LINKS[0]);
        let mut dense = vec![vec![LINKS[0]; n]; n];
        for &(a, b, pick) in &writes {
            let (a, b) = (a % n, b % n);
            if a == b {
                continue;
            }
            topology.set_inter_link(ClusterId(a as u16), ClusterId(b as u16), LINKS[pick]);
            (dense[a][b], dense[b][a]) = (LINKS[pick], LINKS[pick]);
        }
        for (a, row) in dense.iter().enumerate() {
            for (b, &link) in row.iter().enumerate() {
                let want = if a == b { intra } else { link };
                let got = topology.link_between(ClusterId(a as u16), ClusterId(b as u16));
                prop_assert_eq!(got, want, "{} -> {} after {:?}", a, b, &writes);
            }
        }
    }
}

/// Clusters of 5, 6 and 8 ranks: each one's channel map turns into a
/// dense table partway through its channels (at the 8th of 20, the 15th
/// of 30 and the 29th of 56).
const PROMOTING_RANKS: [u32; 3] = [5, 6, 8];

/// `steps` sends inside the clusters of [`PROMOTING_RANKS`]: each cluster
/// opens its channels in an order shuffled by `seed`, and a step whose
/// `repeat` pick is even resends on a channel already open instead, so
/// every channel of every cluster opens (and every cluster crosses its
/// promotion point) with FIFO clamps pending on the channels opened
/// before it.
fn promoting_sends(
    seed: u64,
    steps: &[(u64, u8, u8, u64, u8)],
) -> Vec<(u64, NodeId, NodeId, u64, u8)> {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut closed: Vec<Vec<(u32, u32)>> = PROMOTING_RANKS
        .iter()
        .map(|&n| {
            let mut pairs: Vec<_> = (0..n)
                .flat_map(|f| (0..n).filter(move |&t| t != f).map(move |t| (f, t)))
                .collect();
            for i in (1..pairs.len()).rev() {
                pairs.swap(i, next() as usize % (i + 1));
            }
            pairs
        })
        .collect();
    let mut open: Vec<Vec<(u32, u32)>> = vec![Vec::new(); PROMOTING_RANKS.len()];
    let mut sends = Vec::new();
    for &(gap_us, cluster, repeat, bytes, class_pick) in steps {
        let c = cluster as usize % PROMOTING_RANKS.len();
        let (from, to) = if (repeat % 2 == 0 && !open[c].is_empty()) || closed[c].is_empty() {
            open[c][repeat as usize % open[c].len()]
        } else {
            let pair = closed[c].pop().expect("a closed channel");
            open[c].push(pair);
            pair
        };
        let (from, to) = (NodeId::new(c as u16, from), NodeId::new(c as u16, to));
        sends.push((gap_us, from, to, bytes, class_pick));
    }
    // The rest of every cluster's channels, so each crosses its promotion.
    for (c, pairs) in closed.into_iter().enumerate() {
        for (from, to) in pairs {
            let (from, to) = (NodeId::new(c as u16, from), NodeId::new(c as u16, to));
            sends.push((next() % 50, from, to, next() % 2_000_000, 0));
        }
    }
    sends
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Across the point where a cluster's channel map turns dense, with
    /// megabyte messages still in flight on the channels it copies, every
    /// arrival and every account is the reference model's, send by send.
    #[test]
    fn promotion_mid_flight_equals_the_reference_model(
        seed in any::<u64>(),
        steps in prop::collection::vec(
            (0u64..200, any::<u8>(), any::<u8>(), 0u64..2_000_000, 0u8..3),
            0..160,
        ),
    ) {
        let cluster = |nodes| ClusterSpec { nodes, intra: LinkSpec::myrinet_like() };
        let topology = Topology::new(
            PROMOTING_RANKS.iter().map(|&n| cluster(n)).collect(),
            LinkSpec::ethernet_like(),
        );
        let mut reference = ReferenceNetwork::new(topology, false);
        let mut net = reference.network();
        let mut now = SimTime::ZERO;
        for (gap_us, from, to, bytes, class_pick) in promoting_sends(seed, &steps) {
            now += SimDuration::from_micros(gap_us);
            let got = net.send(now, from, to, bytes, class_of(class_pick));
            let want = reference.send(now, from, to, bytes, class_pick);
            prop_assert_eq!(got, want, "{} -> {} sent at {}", from, to, now);
            reference.check_accounts(&net)?;
        }
    }
}

/// A random hostile schedule for the partition/reorder/loss interaction
/// property below.
#[derive(Debug, Clone)]
struct HostileScript {
    seed: u64,
    reorder_pct: u32,
    loss_pct: u32,
    dup_pct: u32,
    /// Partition windows `(start_ms, len_ms, oneway)` cutting cluster 0.
    windows: Vec<(u64, u64, bool)>,
    /// Gaps between consecutive sends, in milliseconds.
    gaps_ms: Vec<u64>,
}

fn hostile_script_strategy() -> impl Strategy<Value = HostileScript> {
    (
        0u64..(1 << 48),
        0u32..=100,
        0u32..=50,
        0u32..=50,
        prop::collection::vec((0u64..600, 1u64..300, any::<bool>()), 1..=3),
        prop::collection::vec(0u64..40, 1..150),
    )
        .prop_map(
            |(seed, reorder_pct, loss_pct, dup_pct, windows, gaps_ms)| HostileScript {
                seed,
                reorder_pct,
                loss_pct,
                dup_pct,
                windows,
                gaps_ms,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Pin of the reorder × partition interaction: no matter how the
    /// reorder jitter, the loss draw, earlier holds and the FIFO clamp
    /// move an arrival around, a message sent before a severing window
    /// heals never lands inside that window — and messages a cut holds
    /// drain strictly in send order. (Regression: a reordered release
    /// used to bypass hold-and-drain and could arrive mid-outage.)
    #[test]
    fn no_arrival_lands_inside_an_active_partition_window(
        script in hostile_script_strategy(),
    ) {
        let ms = |v: u64| SimTime::ZERO + SimDuration::from_millis(v);
        let cuts: Vec<PartitionSpec> = script
            .windows
            .iter()
            .map(|&(at, len, oneway)| PartitionSpec {
                at: ms(at),
                until: ms(at + len),
                group: vec![0],
                oneway,
            })
            .collect();
        let spec = HostileSpec::seeded(script.seed)
            .with_reorder(
                script.reorder_pct as f64 / 100.0,
                SimDuration::from_millis(400),
            )
            .with_loss(script.loss_pct as f64 / 100.0)
            .with_duplication(script.dup_pct as f64 / 100.0, SimDuration::from_millis(5));
        let mut h = HostileNet::new(spec, cuts.clone());

        let from = NodeId::new(0, 0);
        let to = NodeId::new(1, 0);
        let mut now = SimTime::ZERO;
        let mut last_held = SimTime::ZERO;
        for &gap in &script.gaps_ms {
            now += SimDuration::from_millis(gap);
            let base = now + SimDuration::from_millis(1);
            let o = h.post(now, from, to, base);
            if o.lost {
                prop_assert!(o.duplicate.is_none());
                prop_assert!(!o.held);
                continue;
            }
            for cut in &cuts {
                if cut.severs_directed(from.cluster, to.cluster) && now < cut.until {
                    prop_assert!(
                        !(o.arrival >= cut.at && o.arrival <= cut.until),
                        "sent {now}, arrival {} inside active window [{}, {}]",
                        o.arrival,
                        cut.at,
                        cut.until
                    );
                }
            }
            if o.held {
                prop_assert!(
                    o.arrival > last_held,
                    "held messages must drain in send order"
                );
                last_held = o.arrival;
            }
        }
    }
}

/// Three clusters of eight: 384 directed inter-cluster node channels, so
/// a few hundred sends keep opening channels the FIFO maps lack. When
/// `free` is set, clusters 0 and 2 are joined by a link of zero latency
/// and unbounded bandwidth, on which a send arrives at its own instant
/// before the progress rule.
fn pruning_topology(free: bool) -> Topology {
    let cluster = ClusterSpec {
        nodes: 8,
        intra: LinkSpec::myrinet_like(),
    };
    let mut topology = Topology::new(vec![cluster; 3], LinkSpec::ethernet_like());
    if free {
        let link = LinkSpec {
            latency: SimDuration::ZERO,
            bandwidth_bps: u64::MAX,
        };
        topology.set_inter_link(ClusterId(0), ClusterId(2), link);
    }
    topology
}

/// The gap before a send: half are zero and most others a few
/// microseconds, so channels pile up in flight; one in eight jumps up to
/// 300 ms, past every arrival pending, so what the maps hold expires and
/// is pruned as they fill.
fn clock_gap(pick: u8, us: u64) -> SimDuration {
    match pick % 8 {
        0..=3 => SimDuration::ZERO,
        4 => SimDuration::from_millis(us % 300),
        _ => SimDuration::from_micros(us % 40),
    }
}

fn pruning_node_strategy() -> impl Strategy<Value = NodeId> {
    (0u16..3, 0u32..8).prop_map(|(c, r)| NodeId::new(c, r))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// With the clock moving past pending arrivals again and again, the
    /// inter-cluster FIFO map fills, drops what has arrived and refills
    /// many times over; every arrival still equals the never-pruning
    /// reference model's, same-instant zero-latency clamps included.
    #[test]
    fn pruned_fifo_state_equals_the_never_pruning_model(
        free in any::<bool>(),
        width in 2u32..=8,
        contended in any::<bool>(),
        sends in prop::collection::vec(
            (any::<u8>(), any::<u64>(), pruning_node_strategy(), pruning_node_strategy(),
             prop_oneof![Just(0u64), 0u64..200_000], 0u8..3),
            1..400,
        ),
    ) {
        let mut reference = ReferenceNetwork::new(pruning_topology(free), contended);
        let mut net = reference.network();
        let mut now = SimTime::ZERO;
        // The first `width` ranks of each cluster talk: with two, 24
        // inter-cluster channels, so a map stays small and prunes often.
        let narrow = |n: NodeId| NodeId::new(n.cluster.0, n.rank % width);
        let mut recent = Vec::new();
        for &(pick, us, from, to, bytes, class_pick) in &sends {
            // One step in four reuses one of the last four channels, and
            // a step sends `class_pick + 1` copies at one instant, so
            // clamps stack on a channel, at one instant too, with other
            // channels opening in between.
            let (from, to) = match recent.len() {
                4.. if pick >= 192 => recent[recent.len() - 1 - (us % 4) as usize],
                _ => (narrow(from), narrow(to)),
            };
            if from == to {
                continue;
            }
            recent.push((from, to));
            now += clock_gap(pick, us);
            for _ in 0..=class_pick {
                let got = net.send(now, from, to, bytes, class_of(class_pick));
                let want = reference.send(now, from, to, bytes, class_pick);
                prop_assert_eq!(got, want, "{} -> {} sent at {}", from, to, now);
            }
        }
        reference.check_accounts(&net)?;
    }
}

/// Ranks of the over-limit cluster that talk: six of its 300, so its
/// channels repeat and its map fills and prunes like a small one's.
const WIDE_TALKERS: u16 = 6;

/// A cluster's own link: the SAN, or one of zero latency and unbounded
/// bandwidth, on which a send arrives at its own instant before the
/// progress rule.
fn intra_link(free: bool) -> LinkSpec {
    if free {
        LinkSpec {
            latency: SimDuration::ZERO,
            bandwidth_bps: u64::MAX,
        }
    } else {
        LinkSpec::myrinet_like()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Inside clusters, with the clock moving past pending arrivals again
    /// and again, each cluster's FIFO map fills, drops what has landed and
    /// refills; the clusters of 2–12 ranks turn dense partway, with clamps
    /// of messages up to 4 MiB and of same-instant zero-latency sends
    /// pending, and the 300-rank one, over the dense-table limit, stays a
    /// map. Every arrival and every account still equals the reference
    /// model's, whose map keeps every channel it ever saw.
    #[test]
    fn pruned_intra_clamps_equal_the_never_pruning_model(
        small in prop::collection::vec((2u32..=12, any::<bool>()), 1..=4),
        wide_free in any::<bool>(),
        sends in prop::collection::vec(
            (any::<u8>(), any::<u64>(), any::<u8>(), any::<u16>(), any::<u16>(),
             prop_oneof![Just(0u64), 0u64..=4 << 20], 0u8..3),
            1..400,
        ),
    ) {
        let cluster = |nodes, free| ClusterSpec { nodes, intra: intra_link(free) };
        let mut clusters: Vec<_> = small.iter().map(|&(ranks, free)| cluster(ranks, free)).collect();
        clusters.push(cluster(300, wide_free));
        let width = clusters.len();
        let topology = Topology::new(clusters, LinkSpec::ethernet_like());
        let mut reference = ReferenceNetwork::new(topology, false);
        let mut net = reference.network();
        let node = |c: usize, rank: u16| {
            let rank = match small.get(c) {
                Some(&(ranks, _)) => u32::from(rank) % ranks,
                None => u32::from(rank % WIDE_TALKERS) * 50,
            };
            NodeId::new(c as u16, rank)
        };
        let mut now = SimTime::ZERO;
        let mut recent = Vec::new();
        for &(pick, us, cluster, from, to, bytes, class_pick) in &sends {
            // As in the inter-cluster property: recent channels recur, and
            // a step sends `class_pick + 1` copies at one instant.
            let c = usize::from(cluster) % width;
            let (from, to) = match recent.len() {
                4.. if pick >= 192 => recent[recent.len() - 1 - (us % 4) as usize],
                _ => (node(c, from), node(c, to)),
            };
            if from == to {
                continue;
            }
            recent.push((from, to));
            now += clock_gap(pick, us);
            for _ in 0..=class_pick {
                let got = net.send(now, from, to, bytes, class_of(class_pick));
                let want = reference.send(now, from, to, bytes, class_pick);
                prop_assert_eq!(got, want, "{} -> {} sent at {}", from, to, now);
            }
        }
        // Every channel of every small cluster, twice, at the last
        // instant: the first pass opens the rest (so each cluster turns
        // dense, if it has not yet, with the clamps above pending), the
        // second runs into the clamps the first left.
        for (c, &(ranks, _)) in small.iter().enumerate() {
            for pass in 0..2u32 {
                for (from, to) in (0..ranks).flat_map(|f| (0..ranks).map(move |t| (f, t))) {
                    if from == to {
                        continue;
                    }
                    let bytes = if (from + to + pass) % 2 == 0 { 0 } else { 1 << 20 };
                    let (from, to) = (NodeId::new(c as u16, from), NodeId::new(c as u16, to));
                    let got = net.send(now, from, to, bytes, MessageClass::App);
                    let want = reference.send(now, from, to, bytes, 0);
                    prop_assert_eq!(got, want, "{} -> {} sent at {}", from, to, now);
                }
            }
        }
        reference.check_accounts(&net)?;
    }
}

/// The hostile layer's pipeline restated with a clamp map that never
/// forgets a channel: the per-pair SplitMix64 streams seeded as the layer
/// seeds them, then skew, reorder, loss, partition hold, FIFO clamp and
/// duplication, in that order.
struct ReferenceHostile {
    spec: HostileSpec,
    cuts: Vec<PartitionSpec>,
    rngs: HashMap<(u16, u16), Mix64>,
    last_arrival: HashMap<(NodeId, NodeId), SimTime>,
}

impl ReferenceHostile {
    fn jitter(rng: &mut Mix64, max: SimDuration) -> SimDuration {
        match max.nanos() {
            0 => SimDuration::ZERO,
            max => SimDuration::from_nanos(rng.next_u64() % max),
        }
    }

    fn post(&mut self, now: SimTime, from: NodeId, to: NodeId, base: SimTime) -> HostileOutcome {
        let tick = SimDuration::from_nanos(1);
        let inter = from.cluster != to.cluster;
        let skew = self
            .spec
            .skew
            .iter()
            .rev()
            .find(|&&(f, t, _)| (f, t) == (from.cluster.0, to.cluster.0))
            .map(|&(_, _, dist)| dist);
        let quiet = HostileOutcome {
            arrival: base,
            duplicate: None,
            held: false,
            lost: false,
        };
        if !inter && skew.is_none() {
            return quiet;
        }
        let seed = self.spec.seed;
        let rng = self
            .rngs
            .entry((from.cluster.0, to.cluster.0))
            .or_insert_with(|| {
                let pair = (u64::from(from.cluster.0) << 32) | u64::from(to.cluster.0);
                Mix64::new(Mix64::new(seed ^ pair.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64())
            });
        let mut arrival = base;
        if let Some(dist) = skew {
            arrival = arrival.saturating_add(dist.base + Self::jitter(rng, dist.jitter));
        }
        let mut reordered = false;
        if inter && self.spec.reorder > 0.0 && rng.chance(self.spec.reorder) {
            arrival = arrival.saturating_add(Self::jitter(rng, self.spec.reorder_jitter));
            reordered = true;
        }
        if inter && self.spec.loss > 0.0 && rng.chance(self.spec.loss) {
            return HostileOutcome {
                arrival,
                lost: true,
                ..quiet
            };
        }
        let mut held = false;
        let mut bumped = inter;
        while bumped {
            bumped = false;
            for cut in &self.cuts {
                let release = cut.until.saturating_add(tick);
                if cut.severs_directed(from.cluster, to.cluster)
                    && now < cut.until
                    && arrival >= cut.at
                    && release > arrival
                {
                    arrival = release;
                    bumped = true;
                    held = true;
                }
            }
        }
        let last = self.last_arrival.entry((from, to)).or_insert(SimTime::ZERO);
        if (!reordered || held) && *last != SimTime::ZERO && arrival <= *last {
            arrival = last.saturating_add(tick);
        }
        *last = (*last).max(arrival);
        let duplicate = (inter && self.spec.duplication > 0.0 && rng.chance(self.spec.duplication))
            .then(|| arrival.saturating_add(tick) + Self::jitter(rng, self.spec.dup_delay));
        HostileOutcome {
            arrival,
            duplicate,
            held,
            lost: false,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The hostile layer's clamp map is pruned as the clock passes its
    /// arrivals, with reordering, partition holds, duplicates, loss and a
    /// skewed cluster all on: every outcome still equals the reference
    /// pipeline's, whose map keeps every channel it ever saw.
    #[test]
    fn pruned_hostile_clamps_equal_the_never_pruning_model(
        seed in any::<u64>(),
        windows in prop::collection::vec((0u64..3_000, 1u64..400, any::<bool>()), 0..=3),
        sends in prop::collection::vec(
            (any::<u8>(), any::<u64>(), pruning_node_strategy(), pruning_node_strategy(),
             0u64..20_000),
            1..400,
        ),
    ) {
        let ms = |v: u64| SimTime::ZERO + SimDuration::from_millis(v);
        let cuts: Vec<PartitionSpec> = windows
            .iter()
            .map(|&(at, len, oneway)| PartitionSpec {
                at: ms(at),
                until: ms(at + len),
                group: vec![0],
                oneway,
            })
            .collect();
        let skew = LatencyDist {
            base: SimDuration::from_micros(30),
            jitter: SimDuration::from_micros(200),
        };
        // Named twice, the 2 -> 0 pair takes its last distribution.
        let restated = LatencyDist {
            base: SimDuration::from_micros(90),
            jitter: SimDuration::from_micros(40),
        };
        let spec = HostileSpec::seeded(seed)
            .with_reorder(0.3, SimDuration::from_millis(20))
            .with_duplication(0.3, SimDuration::from_millis(5))
            .with_loss(0.1)
            .with_skew(1, 1, skew)
            .with_skew(2, 0, skew)
            .with_skew(2, 0, restated);
        let mut h = HostileNet::new(spec.clone(), cuts.clone());
        let mut reference = ReferenceHostile {
            spec,
            cuts,
            rngs: HashMap::new(),
            last_arrival: HashMap::new(),
        };
        let mut now = SimTime::ZERO;
        let mut held = 0;
        for &(pick, us, from, to, transit_us) in &sends {
            if from == to {
                continue;
            }
            now += clock_gap(pick, us);
            let base = now + SimDuration::from_micros(150 + transit_us);
            let got = h.post(now, from, to, base);
            prop_assert_eq!(got, reference.post(now, from, to, base), "{} -> {} at {}", from, to, now);
            held += u64::from(got.held);
        }
        prop_assert_eq!(h.held, held);
    }
}
