//! Footprint gate: what a `NodeEngine` owns does not grow with the
//! federation's width.
//!
//! The paper tracks dependencies per *cluster*, and a host builds one
//! engine per *node*: any engine field of federation width makes the arena
//! `nodes x clusters` — quadratic in federation size (two such vectors
//! were 400 MiB of a 512 x 100 run). The `O(clusters)` data an engine does
//! reference (config, DDV stamps) is `Arc`-shared, so with a shared
//! initial DDV the bytes an engine allocates must be the same in a
//! federation of 2 clusters and of 4096 — measured here with the test
//! binary's own counting allocator. The same allocator gates the CLC
//! round: in steady state it allocates only at the coordinator, so a round
//! costs as many allocations on a wide cluster as on a narrow one, and its
//! stamp holds only non-zero entries, so it costs as many bytes in a wide
//! federation as in a narrow one. And what an engine emits per input stays
//! one cache line per action.

use hc3i_core::testkit::InstantFederation;
use hc3i_core::{Ddv, Input, Msg, NodeEngine, Output, OutputBuf, ProtocolConfig, SeqNum};
use hc3i_types::{NodeId, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Bytes requested by this thread (tests run on parallel threads).
    /// Const-initialised and without a destructor, so reading it from
    /// inside the allocator never allocates.
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Allocations (and reallocations) made by this thread.
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn note(size: usize) {
    BYTES.with(|b| b.set(b.get() + size as u64));
    COUNT.with(|c| c.set(c.get() + 1));
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

/// How many allocations this thread made while `f` ran, and their bytes.
fn allocations_in(f: impl FnOnce()) -> (u64, u64) {
    let before = COUNT.with(Cell::get);
    let ((), bytes) = allocated_by(f);
    (COUNT.with(Cell::get) - before, bytes)
}

const WIDTHS: [usize; 2] = [2, 4096];
const NODES_PER_CLUSTER: u32 = 4;

/// Engine `rank` of cluster 0 in a `width`-cluster federation, built the
/// way an arena host builds it (shared config, shared initial DDV), and
/// the bytes its construction allocated.
fn build(width: usize, rank: u32) -> (NodeEngine, u64) {
    let cfg = Arc::new(ProtocolConfig::new(vec![NODES_PER_CLUSTER; width]));
    let mut ddv = Ddv::zeros(width);
    ddv.set(0, SeqNum(1));
    let ddv = Arc::new(ddv);
    allocated_by(|| NodeEngine::with_initial_ddv(cfg.clone(), NodeId::new(0, rank), ddv.clone()))
}

#[test]
fn construction_allocates_the_same_at_every_width() {
    let [narrow, wide] = WIDTHS.map(|w| build(w, 1).1);
    assert!(narrow > 0, "the counting allocator is not installed");
    assert_eq!(
        narrow, wide,
        "an engine field is sized by the federation's width \
         ({narrow} B at {} clusters, {wide} B at {})",
        WIDTHS[0], WIDTHS[1]
    );
}

/// An alert about a rollback of cluster `origin`, as a message.
type Alert = fn(origin: usize) -> Msg;

/// Bytes `rank` of cluster 0 allocates while handling its first alert
/// from the last cluster of a `width`-cluster federation.
fn alert_growth(width: usize, rank: u32, alert: Alert) -> u64 {
    let (mut engine, _) = build(width, rank);
    // Room for the relay fan-out up front: only the engine may allocate.
    let mut out = OutputBuf::with_capacity(2 * NODES_PER_CLUSTER as usize);
    let input = Input::Receive {
        from: NodeId::new((width - 1) as u16, 0),
        msg: alert(width - 1),
    };
    allocated_by(|| engine.handle(SimTime::ZERO, input, &mut out)).1
}

#[test]
fn first_alert_from_the_last_origin_grows_the_engine_by_a_constant() {
    let cases: [(u32, Alert); 2] = [
        // The coordinator dedups the alert and raises its ghost floor...
        (0, |origin| Msg::RollbackAlert {
            origin,
            sn: SeqNum(1),
            origin_epoch: 1,
        }),
        // ...every other node raises its ghost floor on the local relay.
        (1, |origin| Msg::AlertLocal {
            origin,
            sn: SeqNum(1),
            origin_epoch: 1,
        }),
    ];
    for (rank, alert) in cases {
        let [narrow, wide] = WIDTHS.map(|w| alert_growth(w, rank, alert));
        assert!(narrow > 0, "rank {rank}: a new floor must be recorded");
        assert_eq!(
            narrow, wide,
            "rank {rank}: recording one origin's epoch cost O(width)"
        );
        assert!(wide <= 256, "rank {rank}: {wide} B for one origin's epoch");
    }
}

/// Allocations made by one timer CLC round of cluster 0, `width` clusters
/// of `nodes` nodes each, in steady state, and their bytes.
fn clc_round_allocations(width: usize, nodes: u32) -> (u64, u64) {
    let mut fed = InstantFederation::new(ProtocolConfig::new(vec![nodes; width]));
    // Grow every store, queue and buffer to its working size, prune the
    // stores back with a collection, then take the round to be measured
    // once unmeasured: the measured one reuses what this one grew.
    for _ in 0..4 {
        fed.fire_clc_timer(0);
    }
    fed.run_gc();
    fed.fire_clc_timer(0);
    let allocated = allocations_in(|| fed.fire_clc_timer(0));
    assert_eq!(fed.clc_counts(0), (6, 0), "every round committed");
    allocated
}

/// Every action an engine emits sits in its host's reused buffer at this
/// size. The finished store and event records ride in the buffer without
/// widening it: 64 bytes, what an `Output` was when each record had a
/// variant of its own, and what a `Send` of the largest `Msg` needs.
#[test]
fn an_output_fits_one_cache_line() {
    let size = std::mem::size_of::<Output>();
    assert!(size <= 64, "Output grew to {size} bytes");
}

#[test]
fn a_clc_round_allocates_only_at_the_coordinator() {
    let [narrow, wide] = [4, 64].map(|nodes| clc_round_allocations(2, nodes).0);
    assert_eq!(
        narrow, wide,
        "a CLC round allocates per node: {narrow} allocations on 4 nodes, {wide} on 64"
    );
    // The committed stamp, a DDV, and the `Arc` every member shares it
    // through: the coordinator's ack bitmap and reason list are reused.
    assert_eq!(narrow, 2, "allocations of one steady-state CLC round");
}

/// The committed stamp holds the cluster's dependencies, not one entry per
/// cluster of the federation: a round with none but its own SN costs the
/// same bytes at every width. (Two nodes a cluster: the width is what is
/// measured, and the collection's recovery lines are quadratic in it.)
#[test]
fn a_clc_round_allocates_the_same_bytes_at_every_width() {
    let [narrow, wide] = WIDTHS.map(|w| clc_round_allocations(w, 2).1);
    assert!(narrow > 0, "the counting allocator is not installed");
    assert_eq!(
        narrow, wide,
        "a CLC round's stamp is sized by the federation's width \
         ({narrow} B at {} clusters, {wide} B at {})",
        WIDTHS[0], WIDTHS[1]
    );
}
