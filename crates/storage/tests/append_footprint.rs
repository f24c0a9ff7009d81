//! Allocation gate on the segment log's write path, measured with the test
//! binary's own counting allocator.
//!
//! [`DurableStore::append_commit`] encodes a commit's body straight into
//! its frame in the pending buffer: no buffer of its own per body, and no
//! copy. A body-sized `Vec` per append would show as at least one
//! allocation per append; what is left is the amortised growth of the
//! pending buffer and of the mirrored chain.

use hc3i_types::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use storage::{ClcMeta, Ddv, DurableOptions, DurableStore, EntryCodec, SeqNum, SyncPolicy};

thread_local! {
    /// Allocations (and reallocations) this thread has made. Const-
    /// initialised and without a destructor, so the allocator can read it.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn note() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter never touches the
// returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's obligations are passed straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
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

/// Every entry's body is `BODY` bytes of filler that decode to nothing.
struct Filler;

const BODY: usize = 4 << 10;

impl EntryCodec for Filler {
    type Payload = ();

    fn encode_into(&self, _: &(), _: Option<&()>, out: &mut Vec<u8>) {
        out.resize(out.len() + BODY, 0x5A);
    }

    fn decode_payload(&self, buf: &[u8], _: Option<&()>) -> Result<(), String> {
        if buf.len() == BODY && buf.iter().all(|&b| b == 0x5A) {
            Ok(())
        } else {
            Err("not filler".into())
        }
    }
}

#[test]
fn an_append_allocates_no_body_buffer() {
    const APPENDS: u64 = 1000;
    let dir = std::env::temp_dir().join(format!("hc3i-append-footprint-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = DurableOptions {
        sync: SyncPolicy::Manual,
        compact_bytes: None,
    };
    let mut log = DurableStore::open(&dir, Filler, opts).expect("open log");
    let ddv = Arc::new(Ddv::zeros(1));
    let before = ALLOCS.with(Cell::get);
    for k in 1..=APPENDS {
        let meta = ClcMeta {
            sn: SeqNum(k),
            ddv: Arc::clone(&ddv),
            committed_at: SimTime(k),
            forced: false,
        };
        log.append_commit(0, &meta, &()).expect("append");
    }
    let allocs = ALLOCS.with(Cell::get) - before;
    log.sync().expect("sync");
    drop(log);
    let image = storage::recover(&dir, &Filler).expect("recover");
    assert_eq!(image.total_entries(), APPENDS);
    assert!(allocs > 0, "the counting allocator is not installed");
    assert!(
        allocs * 10 < APPENDS,
        "{APPENDS} appends of a {BODY}-byte body made {allocs} allocations"
    );
    std::fs::remove_dir_all(&dir).expect("remove log");
}
