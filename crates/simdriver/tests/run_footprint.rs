//! Footprint gate: a run's memory follows what is live, not how long the
//! run is.
//!
//! The send schedule is the one thing that grows with a run's length (32
//! bytes per send; 42 MiB of the paper's reference federation over 250
//! simulated hours), and everything else a run keeps live — engines,
//! checkpoint stores, the pending-event heap — follows what is in flight.
//! So an explicit schedule (`SimConfig::sends`) is held once: the peak of
//! the live heap during `simdriver::run` stays under twice the schedule's
//! own bytes, where a second materialised copy (80 bytes per send as
//! executive events, plus the scratch of sorting them) does not fit. And
//! the paper's model (`SimConfig::stochastic`) is drawn as the run pulls
//! it: a run four times as long peaks within a small fixed slack of the
//! short one, far below the bytes its schedule would take. The one
//! structure of a run sized by cluster pairs, the report's application
//! matrix, is built once the engines are freed, so a wide federation
//! never holds both. Measured with the test binary's own live-bytes
//! counting allocator.

use desim::{RngStreams, SimDuration, SimTime};
use hc3i_core::host::Layout as EngineLayout;
use netsim::{ClusterSpec, LinkSpec, NodeId, Topology};
use simdriver::SimConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use workload::{SendEvent, StochasticWorkload, TargetCountWorkload, Workload};

thread_local! {
    /// Bytes this thread holds allocated, and the highest that has been.
    /// Const-initialised and without destructors, so touching them from
    /// inside the allocator never allocates.
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

fn grew(size: usize) {
    let live = LIVE.with(|l| {
        l.set(l.get() + size);
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

fn shrank(size: usize) {
    // Saturating: a block another thread allocated may be freed here.
    LIVE.with(|l| l.set(l.get().saturating_sub(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters never touch the
// returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's obligations are passed straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Old and new block may both exist while the bytes are copied.
        grew(new_size);
        shrank(layout.size());
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn a_run_holds_its_schedule_once() {
    // The paper's shape in small: two clusters of four nodes, ten
    // simulated hours, 222,200 sends of which 1 % cross, a CLC timer in
    // cluster 0 and an hourly collection, so stores and sender logs stay
    // at their steady-state size (a few hundred KB).
    let duration = SimDuration::from_hours(10);
    let cluster = ClusterSpec {
        nodes: 4,
        intra: LinkSpec::myrinet_like(),
    };
    let topology = Topology::new(vec![cluster; 2], LinkSpec::ethernet_like());
    let mut sends = TargetCountWorkload {
        cluster_sizes: vec![4, 4],
        duration,
        counts: vec![vec![110_000, 2_000], vec![200, 110_000]],
        payload_bytes: 256,
    }
    .schedule(&RngStreams::new(20040426));
    sends.shrink_to_fit();
    let n_sends = sends.len();
    assert!(n_sends >= 200_000);
    let schedule_bytes = sends.capacity() * std::mem::size_of::<SendEvent>();
    let cfg = SimConfig::new(topology, duration)
        .with_clc_delay(0, SimDuration::from_minutes(30))
        .with_gc_interval(SimDuration::from_hours(1))
        .with_sends(sends);

    let before = LIVE.with(Cell::get);
    assert!(
        before >= schedule_bytes,
        "the counting allocator is not installed"
    );
    PEAK.with(|p| p.set(before));
    let report = simdriver::run(cfg);
    let peak = PEAK.with(Cell::get);

    assert_eq!(report.app_sent, n_sends as u64);
    assert!(
        peak < 2 * schedule_bytes,
        "peak live heap {peak} B during a run over a {schedule_bytes} B schedule \
         ({n_sends} sends): something holds the schedule a second time"
    );
}

/// The paper's model in small: two clusters of four nodes, a send every
/// ~6 s per node, a CLC timer in cluster 0 and an hourly collection.
/// Returns the run's peak live heap above what was live before it, and
/// its sends.
///
/// No send crosses: an engine keeps every inter-cluster delivery it has
/// made for the duplicate check (`DeliveredRecord`, which nothing prunes:
/// ~110 B of peak heap per crossing send at 5 %), so cross traffic grows
/// the live heap with the run's length through the protocol's own state,
/// and this gate is about the schedule.
fn stochastic_run_peak(hours: u64) -> (usize, u64) {
    let duration = SimDuration::from_hours(hours);
    let cluster = ClusterSpec {
        nodes: 4,
        intra: LinkSpec::myrinet_like(),
    };
    let topology = Topology::new(vec![cluster; 2], LinkSpec::ethernet_like());
    let model = StochasticWorkload {
        cluster_sizes: vec![4, 4],
        duration,
        compute_mean_secs: vec![5.0, 6.0],
        pattern: vec![vec![1.0, 0.0], vec![0.0, 1.0]],
        payload_bytes: 256,
    };
    let cfg = SimConfig::new(topology, duration)
        .with_clc_delay(0, SimDuration::from_minutes(30))
        .with_gc_interval(SimDuration::from_hours(1))
        .with_sends(model)
        .with_seed(20040426);

    let before = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(before));
    let report = simdriver::run(cfg);
    (PEAK.with(Cell::get) - before, report.app_sent)
}

#[test]
fn a_stochastic_run_holds_no_schedule() {
    let (short_peak, short_sends) = stochastic_run_peak(10);
    let (long_peak, long_sends) = stochastic_run_peak(40);
    assert!(short_sends >= 40_000 && long_sends >= 4 * short_sends * 9 / 10);
    let schedule_bytes = long_sends as usize * std::mem::size_of::<SendEvent>();
    let slack = 64 << 10;
    assert!(
        long_peak <= short_peak + slack,
        "peak live heap {long_peak} B over 40 h ({long_sends} sends) against {short_peak} B \
         over 10 h ({short_sends} sends): the run holds something that grows with its length"
    );
    assert!(
        long_peak < schedule_bytes / 64,
        "peak live heap {long_peak} B against a {schedule_bytes} B schedule"
    );
}

#[test]
fn a_wide_run_never_holds_its_matrix_beside_its_engines() {
    // 1,024 one-node clusters, each sending one message a second to the
    // next along a ring for ten seconds. The report's `1,024²` matrix of
    // `u64`s is 8 MiB; the run's peak live heap stays under what the
    // engines take when built plus that matrix, so the two never meet.
    // (The engines grow as the run goes, by the messages they log.)
    let n: u16 = 1024;
    let cluster = ClusterSpec {
        nodes: 1,
        intra: LinkSpec::myrinet_like(),
    };
    let topology = Topology::new(vec![cluster; n.into()], LinkSpec::ethernet_like());
    let sends = (1..=10u64)
        .flat_map(|s| {
            (0..n).map(move |c| SendEvent {
                at: SimTime::ZERO + SimDuration::from_secs(s),
                from: NodeId::new(c, 0),
                to: NodeId::new((c + 1) % n, 0),
                bytes: 256,
            })
        })
        .collect::<Vec<_>>();
    let cfg = SimConfig::new(topology, SimDuration::from_secs(12)).with_sends(sends);

    let before = LIVE.with(Cell::get);
    let engines = EngineLayout::new(&cfg.protocol).engines(&cfg.protocol);
    let engine_bytes = LIVE.with(Cell::get) - before;
    drop(engines);
    let matrix_bytes = usize::from(n) * usize::from(n) * std::mem::size_of::<u64>();

    let before = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(before));
    let report = simdriver::run(cfg);
    let peak = PEAK.with(Cell::get) - before;

    assert_eq!(report.app_matrix.len(), usize::from(n));
    assert_eq!(report.app_matrix[n as usize - 1][0], 10);
    assert!(engine_bytes > 0, "the counting allocator is not installed");
    assert!(
        peak < engine_bytes + matrix_bytes,
        "peak live heap {peak} B during a 1,024-cluster run, against {engine_bytes} B of \
         engines and a {matrix_bytes} B matrix: the run holds both at once"
    );
}

/// Every pending event of the executive is one `Ev`, and a message off the
/// wire is one of them (`Ev::Input` carrying `Input::Receive`): a variant
/// that widens it widens every queue slot of every run.
#[test]
fn an_event_fits_72_bytes() {
    let size = std::mem::size_of::<simdriver::Ev>();
    assert!(size <= 72, "Ev grew to {size} bytes");
}
