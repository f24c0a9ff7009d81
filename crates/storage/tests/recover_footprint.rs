//! Footprint gate: a recovered image holds each stamp's dependencies, not
//! one entry per cluster of the federation.
//!
//! The segment format writes every DDV entry, so a log of a wide
//! federation is wide on disk; what [`storage::recover`] rebuilds from it
//! must not be. A ring-shaped chain — each CLC stamped with its own
//! cluster's SN and its predecessor's — is recovered at 2 clusters and at
//! 4096, and the heap the image keeps, per entry, must match within a
//! constant. Measured with the test binary's own counting allocator.

use hc3i_types::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::Arc;
use storage::{ClcMeta, Ddv, DurableOptions, DurableStore, EntryCodec, SeqNum, SyncPolicy};

thread_local! {
    /// Bytes this thread holds: allocated minus freed. Const-initialised
    /// and without a destructor, so the allocator can read it.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

fn note(delta: i64) {
    LIVE.with(|b| b.set(b.get() + delta));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter never touches the
// returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64);
        // SAFETY: the caller's obligations are passed straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as i64 - layout.size() as i64);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as i64));
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Payload-free entries: the stamps are what is measured.
struct NoPayload;

impl EntryCodec for NoPayload {
    type Payload = ();

    fn encode_payload(&self, _: &(), _: Option<&()>) -> Vec<u8> {
        Vec::new()
    }

    fn decode_payload(&self, buf: &[u8], _: Option<&()>) -> Result<(), String> {
        match buf {
            [] => Ok(()),
            _ => Err("payload bytes".into()),
        }
    }
}

const NODES: u64 = 8;
const CLCS: u64 = 32;

/// Write the ring's log at `width` clusters: node `n` sits in cluster `n`
/// and commits `CLCS` CLCs, the `k`-th stamped `k` for its own cluster and
/// `k - 1` for the cluster before it.
fn ring_log(width: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hc3i-recover-footprint-{width}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = DurableOptions {
        sync: SyncPolicy::Manual,
        compact_bytes: None,
    };
    let mut log = DurableStore::open(&dir, NoPayload, opts).expect("open log");
    for node in 0..NODES {
        let cluster = node as usize % width;
        for k in 1..=CLCS {
            let mut ddv = Ddv::zeros(width);
            ddv.set(cluster, SeqNum(k));
            ddv.set((cluster + width - 1) % width, SeqNum(k - 1));
            let meta = ClcMeta {
                sn: SeqNum(k),
                ddv: Arc::new(ddv),
                committed_at: SimTime(k),
                forced: false,
            };
            log.append_commit(node, &meta, &()).expect("append");
        }
    }
    log.sync().expect("sync");
    dir
}

/// Heap the image recovered from the ring at `width` keeps, per entry.
fn held_per_entry(width: usize) -> i64 {
    let dir = ring_log(width);
    let before = LIVE.with(Cell::get);
    let image = storage::recover(&dir, &NoPayload).expect("recover");
    let held = LIVE.with(Cell::get) - before;
    assert_eq!(image.total_entries(), NODES * CLCS);
    drop(image);
    std::fs::remove_dir_all(&dir).expect("remove log");
    held / (NODES * CLCS) as i64
}

#[test]
fn a_recovered_stamp_is_sized_by_its_dependencies() {
    let [narrow, wide] = [2, 4096].map(held_per_entry);
    assert!(narrow > 0, "the counting allocator is not installed");
    assert!(
        wide - narrow <= 16,
        "a recovered entry holds {wide} B at 4096 clusters, {narrow} B at 2"
    );
}
