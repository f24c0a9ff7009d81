//! Decoders size nothing from a length or a count the input does not
//! back: decoding any buffer of at most 64 bytes — through the segment-log
//! entry codec and `storage::recover` itself — requests less than 64 KiB
//! from the allocator, and never panics. The inputs are a seeded sweep
//! biased towards what breaks decoders (valid tags, continuation bytes,
//! huge varints) plus the crafted lengths and counts that, before
//! `storage::varint`, overflowed `pos + len` or reserved 2^28 entries up
//! front.

use hc3i_core::{CheckpointCodec, NodeCheckpoint};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use storage::EntryCodec;

thread_local! {
    /// Bytes this thread has asked the allocator for.
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// const-initialised thread-local `Cell` with no destructor, so touching it
// allocates nothing and cannot re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = REQUESTED.try_with(|r| r.set(r.get() + layout.size()));
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = REQUESTED.try_with(|r| r.set(r.get() + new_size));
        // SAFETY: the caller's contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const BUDGET: usize = 64 << 10;

/// Run `f`, then require it to have requested less than the budget.
fn within_budget<T>(what: &str, input: &[u8], f: impl FnOnce() -> T) -> T {
    let before = REQUESTED.with(Cell::get);
    let out = f();
    let requested = REQUESTED.with(Cell::get) - before;
    assert!(
        requested < BUDGET,
        "{what} requested {requested} bytes decoding {input:?}"
    );
    out
}

/// xorshift64*.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A buffer of `head` then random bytes, at most 64 in all: half of
    /// them tiny (tags, counts, one-byte varints), a quarter continuation
    /// bytes, a quarter anything.
    fn buffer(&mut self, head: &[u8]) -> Vec<u8> {
        let len = self.next() as usize % (65 - head.len());
        let mut buf = head.to_vec();
        buf.extend((0..len).map(|_| {
            let r = self.next();
            match r & 3 {
                0 | 1 => (r >> 8) as u8 & 3,
                2 => (r >> 8) as u8 | 0x80,
                _ => (r >> 8) as u8,
            }
        }));
        buf
    }
}

const MAX_LEN: [u8; 10] = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01];
const TWO_POW_28: [u8; 5] = [0x80, 0x80, 0x80, 0x80, 0x01];

#[test]
fn small_inputs_never_panic_or_outgrow_their_allocation_budget() {
    let mut rng = Rng(0x17_0000_2004_0426);
    let sealed_empty = NodeCheckpoint::default();

    let entry = |buf: &[u8]| {
        for prev in [None, Some(&sealed_empty)] {
            let _ = within_budget("decode_payload", buf, || {
                CheckpointCodec.decode_payload(buf, prev)
            });
        }
    };

    // The crafted inputs: an app snapshot of u64::MAX bytes, 2^28
    // deliveries, 2^28 channel messages.
    entry(&[&[0, 0, 0, 1][..], &MAX_LEN].concat());
    entry(&[&[0][..], &TWO_POW_28].concat());
    entry(&[&[0, 0][..], &TWO_POW_28].concat());

    for _ in 0..20_000 {
        let tag = [rng.next() as u8 & 1];
        entry(&rng.buffer(&tag));
    }

    // The same through the segment log: one correctly framed, correctly
    // checksummed frame of arbitrary payload.
    let dir = std::env::temp_dir().join(format!("hc3i-decode-bounds-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let seg = dir.join("seg-00000000.log");
    let mut frames = vec![
        [&[4, 0][..], &TWO_POW_28].concat(),    // snapshot entries
        [&[1, 0, 1][..], &TWO_POW_28].concat(), // commit DDV
        [&[4, 0, 1, 1, 0, 0, 0, 0][..], &MAX_LEN].concat(), // snapshot body length
    ];
    for _ in 0..2_000 {
        let op = [1 + rng.next() as u8 % 4];
        frames.push(rng.buffer(&op));
    }
    for payload in frames {
        let mut bytes = b"HC3ISEG\x01".to_vec();
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&storage::durable::crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        std::fs::write(&seg, &bytes).expect("write segment");
        let _ = within_budget("recover", &payload, || {
            storage::recover(&dir, &CheckpointCodec).map(|image| image.frames)
        });
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
