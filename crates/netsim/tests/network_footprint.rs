//! Footprint gate: what a `Network` allocates follows the cluster pairs
//! and the node channels that talk, not the ones that could.
//!
//! A federation of `n` clusters has `n²` directed cluster pairs, and on
//! the topologies the paper's hierarchy suggests — a ring, a star, a few
//! coupled codes — a cluster talks to a handful of them. Pipe and account
//! tables indexed by pair were 56 MiB of an idle 1,024-cluster network.
//! Inside a cluster the same holds for its `ranks²` node channels: a
//! dense FIFO table per cluster was 40 MiB of a 512 x 100 ring. Both
//! measured here with the test binary's own counting allocator, as are
//! the FIFO state of the inter-cluster channels and of a cluster's own,
//! which follows the channels with a message in flight, not every node
//! pair that ever talked, and the
//! topology, which keeps one default inter-cluster link and the pairs
//! that differ from it instead of a triangle of `n(n-1)/2` links.

use desim::{SimDuration, SimTime};
use netsim::{ClusterSpec, ContentionModel, LinkSpec, MessageClass, Network, NodeId, Topology};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes requested by this thread (tests run on parallel threads).
    /// Const-initialised and without a destructor, so reading it from
    /// inside the allocator never allocates.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn note(size: usize) {
    BYTES.with(|b| b.set(b.get() + size as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter never touches the
// returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result and the bytes this thread requested while it ran.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BYTES.with(Cell::get);
    let value = f();
    (value, BYTES.with(Cell::get) - before)
}

fn federation(clusters: usize) -> Topology {
    let cluster = ClusterSpec {
        nodes: 4,
        intra: LinkSpec::myrinet_like(),
    };
    Topology::new(vec![cluster; clusters], LinkSpec::ethernet_like())
}

/// Bytes requested while one message crosses every edge `c -> c + 1` of
/// a `clusters`-wide ring, on a contended network (so the pipes are live).
fn ring_round(clusters: usize) -> u64 {
    let mut net =
        Network::new(federation(clusters)).with_contention(ContentionModel::InterClusterFifo);
    let now = SimTime::ZERO + SimDuration::from_secs(1);
    let ((), bytes) = allocated_by(|| {
        for c in 0..clusters {
            let (from, to) = (c as u16, ((c + 1) % clusters) as u16);
            net.send(
                now,
                NodeId::new(from, 0),
                NodeId::new(to, 0),
                512,
                MessageClass::App,
            );
        }
    });
    let inter_app: u64 = net
        .accounts()
        .filter(|&(from, to, _)| from != to)
        .map(|(_, _, cells)| cells[0].messages)
        .sum();
    assert_eq!(inter_app, clusters as u64);
    bytes
}

#[test]
fn a_topology_is_linear_in_its_width() {
    // A run holds two copies: its config's and its network's. Each one's
    // cluster table is 1,024 x 24 B, so the two fit in 64 KiB; a triangle
    // of inter-cluster links would add 523,776 x 16 B (8 MiB) to each.
    let cluster = ClusterSpec {
        nodes: 1,
        intra: LinkSpec::myrinet_like(),
    };
    let (copies, bytes) = allocated_by(|| {
        let topology = Topology::new(vec![cluster; 1024], LinkSpec::ethernet_like());
        let copy = topology.clone();
        (topology, copy)
    });
    assert!(bytes > 0, "the counting allocator is not installed");
    assert!(
        bytes < 64 << 10,
        "Topology::new over 1,024 clusters and one clone requested {bytes} B: a table is sized by cluster pairs"
    );
    assert_eq!(copies.1.num_clusters(), 1024);
}

#[test]
fn an_idle_network_is_linear_in_its_width() {
    let topology = federation(1024);
    let (net, bytes) = allocated_by(|| Network::new(topology));
    assert!(bytes > 0, "the counting allocator is not installed");
    assert!(
        bytes < 1 << 20,
        "Network::new over 1,024 clusters requested {bytes} B: a table is sized by cluster pairs"
    );
    drop(net);
}

#[test]
fn a_ring_round_allocates_per_edge_not_per_pair() {
    // Four times the edges: about four times the bytes (hash maps grow by
    // doubling, hence the slack) — a per-pair table would make it sixteen.
    let (narrow, wide) = (ring_round(256), ring_round(1024));
    assert!(narrow > 0);
    assert!(
        wide <= 6 * narrow,
        "{narrow} B for a 256-cluster ring round, {wide} B for a 1,024-cluster one"
    );
    // And the whole round stays far below one `n x n` table of `u64`s.
    assert!(wide < 1 << 20, "{wide} B against 8 MiB");
}

/// Bytes requested while one 100-rank cluster carries the intra-cluster
/// traffic of a CLC-driven run on a ring federation: the coordinator's
/// fan-out to every rank and the replies, each rank's checkpoint fragment
/// to its ring neighbour and the ack back, and 120 application messages
/// between random pairs.
fn one_cluster_of_a_ring_run(ranks: u32) -> (u64, usize) {
    let topology = Topology::new(
        vec![ClusterSpec {
            nodes: ranks,
            intra: LinkSpec::myrinet_like(),
        }],
        LinkSpec::ethernet_like(),
    );
    let mut net = Network::new(topology);
    let mut traffic = Vec::new();
    for rank in 1..ranks {
        traffic.push((0, rank, MessageClass::Protocol));
        traffic.push((rank, 0, MessageClass::Protocol));
    }
    for rank in 0..ranks {
        let holder = (rank + 1) % ranks;
        traffic.push((rank, holder, MessageClass::Protocol));
        traffic.push((holder, rank, MessageClass::Ack));
    }
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut pairs = 0;
    while pairs < 120 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let (from, to) = ((x % ranks as u64) as u32, ((x >> 32) % ranks as u64) as u32);
        if from != to {
            traffic.push((from, to, MessageClass::App));
            pairs += 1;
        }
    }
    let mut now = SimTime::ZERO;
    let ((), bytes) = allocated_by(|| {
        for &(from, to, class) in &traffic {
            now += SimDuration::from_micros(10);
            net.send(now, NodeId::new(0, from), NodeId::new(0, to), 1024, class);
        }
    });
    assert_eq!(
        net.class_totals().iter().map(|c| c.messages).sum::<u64>(),
        traffic.len() as u64
    );
    (bytes, traffic.len())
}

#[test]
fn a_cluster_allocates_per_channel_in_use_not_per_rank_pair() {
    // 518 messages on some 500 of the cluster's 9,900 channels: the FIFO
    // state is one bit per channel (1,256 B) and a map of the few
    // channels with a message in flight, about 3.4 KB requested in all.
    // A map of every channel used would be 1,024 buckets (17,424 B), and
    // the tables it outgrew on the way add up to about as much again.
    // Half the 80,000 B `100 x 100` table of `u64`s bounds the lot.
    let (bytes, messages) = one_cluster_of_a_ring_run(100);
    assert_eq!(messages, 518);
    assert!(bytes > 0, "the counting allocator is not installed");
    assert!(
        bytes < 40_000,
        "{bytes} B for one 100-rank cluster's run, against the 80,000 B dense table"
    );
}

/// Bytes requested while `channels` distinct inter-cluster node channels
/// of the 2 x 100 reference federation each carry one message, every one
/// sent after the previous one arrived.
fn one_message_per_channel(channels: u32) -> u64 {
    let mut net = Network::new(Topology::paper_reference(2));
    let mut now = SimTime::ZERO;
    let ((), bytes) = allocated_by(|| {
        for c in 0..channels {
            let (from, to) = (NodeId::new(0, c / 100), NodeId::new(1, c % 100));
            let arrival = net.send(now, from, to, 512, MessageClass::App);
            now = arrival + SimDuration::from_nanos(1);
        }
    });
    let inter_app: u64 = net
        .accounts()
        .filter(|&(from, to, _)| from != to)
        .map(|(_, _, cells)| cells[0].messages)
        .sum();
    assert_eq!(inter_app, u64::from(channels));
    bytes
}

#[test]
fn inter_cluster_fifo_state_follows_the_messages_in_flight() {
    // One message at a time: ten times the channels must cost no more
    // bytes, within a slack. A map keeping every channel requests about
    // 100 KB for 1,000 channels and 800 KB for 10,000.
    let (few, many) = (
        one_message_per_channel(1_000),
        one_message_per_channel(10_000),
    );
    assert!(few > 0, "the counting allocator is not installed");
    assert!(
        many <= few + 1024,
        "{few} B for 1,000 channels, {many} B for 10,000"
    );
}

/// Bytes requested while `messages` distinct node channels of one
/// 300-rank cluster each carry one message, every one sent after the
/// previous one arrived. 90,000 rank pairs is over the dense-table limit,
/// so the cluster's FIFO state stays a map throughout.
fn one_message_per_intra_channel(messages: u32) -> u64 {
    let topology = Topology::new(
        vec![ClusterSpec {
            nodes: 300,
            intra: LinkSpec::myrinet_like(),
        }],
        LinkSpec::ethernet_like(),
    );
    let mut net = Network::new(topology);
    let mut now = SimTime::ZERO;
    let ((), bytes) = allocated_by(|| {
        for m in 0..messages {
            let (from, to) = (NodeId::new(0, m / 100), NodeId::new(0, 100 + m % 100));
            let arrival = net.send(now, from, to, 512, MessageClass::App);
            now = arrival + SimDuration::from_nanos(1);
        }
    });
    assert_eq!(net.class_totals()[0].messages, u64::from(messages));
    bytes
}

#[test]
fn intra_cluster_fifo_state_follows_the_messages_in_flight() {
    // One message at a time: ten times the messages, on ten times the
    // channels, must cost no more bytes, within a slack. A map keeping
    // every channel requests about 70 KB for 1,000 channels and 560 KB
    // for 10,000.
    let (few, many) = (
        one_message_per_intra_channel(1_000),
        one_message_per_intra_channel(10_000),
    );
    assert!(few > 0, "the counting allocator is not installed");
    assert!(
        many <= few + 1024,
        "{few} B for 1,000 landed messages, {many} B for 10,000"
    );
}
