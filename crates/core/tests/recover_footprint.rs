//! Footprint gate: a delivery record that [`storage::recover`] rebuilds
//! holds its entries as sorted runs, 24 bytes an entry, not hash maps.
//!
//! A CLC carries the receiver's whole delivery record, so the records a
//! log replays to grow with the run, and recovery rebuilds one per body.
//! The log here has the benchmark's `recovery_replay` shape: every node's
//! record grows by one delivery per CLC, is never sealed, and so every
//! body is a full record (tag 0). It is recovered twice — with the
//! deliveries and with the same log stripped of them — and the heap the
//! deliveries add to the image, per delivery entry, must stay within
//! 32 bytes. A sorted run is 24 bytes an entry plus one generation per
//! body; a hash-map generation is ~40–50.

use hc3i_core::{AppPayload, CheckpointCodec, Ddv, DeliveredRecord, NodeCheckpoint, SeqNum};
use hc3i_types::{NodeId, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::Arc;
use storage::{ClcMeta, DurableOptions, DurableStore, EntryCodec, SyncPolicy};

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

const CLUSTERS: usize = 4;
const NODES: u64 = 2;
const CLCS: u64 = 64;

/// Write the log: node `(c, r)`'s `k`-th CLC records one more delivery
/// from the next cluster's rank `r` (none when `deliveries` is false),
/// is stamped with its own SN and its ring predecessor's, and captures one
/// channel message. Returns the log's directory and the deliveries its
/// bodies hold.
fn write_log(deliveries: bool) -> (PathBuf, u64) {
    let dir = std::env::temp_dir().join(format!(
        "hc3i-core-recover-footprint-{deliveries}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = DurableOptions {
        sync: SyncPolicy::Manual,
        compact_bytes: None,
    };
    let mut log = DurableStore::open(&dir, CheckpointCodec, opts).expect("open log");
    let mut held = 0;
    for c in 0..CLUSTERS {
        for r in 0..NODES {
            let mut delivered = DeliveredRecord::new();
            let mut prev: Option<NodeCheckpoint> = None;
            for k in 1..=CLCS {
                if deliveries {
                    let from = NodeId::new(((c + 1) % CLUSTERS) as u16, r as u32);
                    delivered.insert((from, k), SeqNum(k));
                }
                let mut ddv = Ddv::zeros(CLUSTERS);
                ddv.set(c, SeqNum(k));
                ddv.set((c + CLUSTERS - 1) % CLUSTERS, SeqNum(k - 1));
                let meta = ClcMeta {
                    sn: SeqNum(k),
                    ddv: Arc::new(ddv),
                    committed_at: SimTime(k),
                    forced: false,
                };
                let payload = NodeCheckpoint {
                    delivered: delivered.clone(),
                    channel_state: vec![(
                        NodeId::new(c as u16, ((r + 1) % NODES) as u32),
                        AppPayload { bytes: 64, tag: k },
                    )],
                    app_state: None,
                };
                let body = CheckpointCodec.encode_payload(&payload, prev.as_ref());
                if deliveries {
                    assert_eq!(body[0], 0, "an unsealed record is written in full");
                }
                held += payload.delivered.len() as u64;
                log.append_commit(c as u64 * NODES + r, &meta, &payload)
                    .expect("append");
                prev = Some(payload);
            }
        }
    }
    log.sync().expect("sync");
    (dir, held)
}

/// Heap the image recovered from the log keeps, and the deliveries in it.
fn recovered_heap(deliveries: bool) -> (i64, u64) {
    let (dir, held) = write_log(deliveries);
    let before = LIVE.with(Cell::get);
    let image = storage::recover(&dir, &CheckpointCodec).expect("recover");
    let heap = LIVE.with(Cell::get) - before;
    assert_eq!(image.total_entries(), CLUSTERS as u64 * NODES * CLCS);
    let recovered: u64 = image
        .stores
        .values()
        .flat_map(|chain| chain.iter())
        .map(|e| e.payload.delivered.len() as u64)
        .sum();
    assert_eq!(recovered, held);
    drop(image);
    std::fs::remove_dir_all(&dir).expect("remove log");
    (heap, held)
}

#[test]
fn a_recovered_delivery_entry_is_a_sorted_run_slot_not_a_hash_bucket() {
    let (bare, none) = recovered_heap(false);
    let (full, entries) = recovered_heap(true);
    assert!(bare > 0, "the counting allocator is not installed");
    assert_eq!(none, 0);
    assert_eq!(entries, CLUSTERS as u64 * NODES * CLCS * (CLCS + 1) / 2);
    let per_entry = (full - bare) / entries as i64;
    assert!(
        per_entry <= 32,
        "the image holds {per_entry} B per delivery entry ({} B for {entries})",
        full - bare
    );
}
