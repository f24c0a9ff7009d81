//! Allocation gate on a CLC store's growth, measured with the test
//! binary's own counting allocator.
//!
//! Every node commits its initial CLC when it is built, and the stores of
//! a wide federation peak at a handful of entries. So a store takes one
//! slot first and then grows straight to eight: `Vec`'s own growth would
//! allocate a 4-slot block at the second commit and free it at the fifth,
//! once per store. From eight slots on, the store doubles.

use hc3i_types::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use storage::{ClcEntry, ClcMeta, ClcStore, Ddv, SeqNum};

/// How many requested block sizes a thread remembers.
const KEPT: usize = 8;

thread_local! {
    /// The sizes of the first `KEPT` blocks this thread requested since
    /// the last reset (allocations and reallocations), and their count.
    /// Const-initialised and without a destructor, so the allocator can
    /// write it.
    static SIZES: Cell<([usize; KEPT], usize)> = const { Cell::new(([0; KEPT], 0)) };
}

struct Counting;

fn note(size: usize) {
    SIZES.with(|s| {
        let (mut sizes, n) = s.get();
        if n < KEPT {
            sizes[n] = size;
        }
        s.set((sizes, n + 1));
    });
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

/// The sizes of the blocks this thread requested while `f` ran.
fn requests(f: impl FnOnce()) -> Vec<usize> {
    SIZES.with(|s| s.set(([0; KEPT], 0)));
    f();
    let (sizes, n) = SIZES.with(Cell::get);
    assert!(n <= KEPT, "{n} requests, more than the {KEPT} kept");
    sizes[..n].to_vec()
}

#[test]
fn a_store_grows_one_slot_then_eight_then_doubles() {
    let slot = std::mem::size_of::<ClcEntry<()>>();
    // Every meta is built before anything is measured: one shared stamp,
    // which is monotone with itself.
    let ddv = Arc::new(Ddv::zeros(2));
    let metas: Vec<ClcMeta> = (1..=9)
        .map(|sn| ClcMeta {
            sn: SeqNum(sn),
            ddv: ddv.clone(),
            committed_at: SimTime::ZERO,
            forced: false,
        })
        .collect();
    let mut metas = metas.into_iter();
    let mut store = ClcStore::new();
    let first_eight = requests(|| {
        for meta in metas.by_ref().take(8) {
            store.commit(meta, ());
        }
    });
    assert!(
        !first_eight.contains(&(4 * slot)),
        "a 4-slot block was allocated: {first_eight:?}"
    );
    assert_eq!(
        first_eight,
        [slot, 8 * slot],
        "block sizes of eight commits"
    );
    let ninth = requests(|| store.commit(metas.next().expect("nine metas"), ()));
    assert_eq!(ninth, [16 * slot], "the ninth commit doubles");
    assert_eq!(store.len(), 9);
}
