//! Log-structured durable backend for CLC stores.
//!
//! The paper implements stable storage as in-memory neighbour replication,
//! which survives the failure model's single node fault but not a power
//! loss. This module keeps every node's [`ClcStore`] on disk as an
//! append-only *segment log* so a hard-killed federation recovers to its
//! last durable CLC:
//!
//! * **Segments** — files `seg-NNNNNNNN.log`, each starting with an 8-byte
//!   magic header. The highest-numbered segment is the active tail; older
//!   segments are immutable.
//! * **Frames** — every mutation is one length-prefixed, CRC-32-checksummed
//!   record: `[len: u32 LE][crc32(payload): u32 LE][payload]`. The payload
//!   is an op byte, the node's global index, and an op-specific body
//!   (commit, truncate-after-rollback, GC prune, or a whole-chain
//!   snapshot); integers are [`crate::varint`]s.
//! * **Compaction** — once enough frame bytes accumulate, the store
//!   rewrites every node's flattened delta chain as snapshot frames into a
//!   fresh segment and deletes the older segments (newest-first, so any
//!   crash mid-deletion leaves a contiguous prefix of old segments plus
//!   the complete snapshot segment — both replay to the same state,
//!   because a snapshot *replaces* the node's chain).
//!
//! ## The frame checksum
//!
//! [`crc32`] is the IEEE 802.3 CRC-32 (reflected, polynomial
//! `0xEDB8_8320`) of a frame's payload. The writer computes it once per
//! frame as it closes the frame in the pending buffer, and recovery
//! recomputes it for every frame it reads, so it runs over every byte the
//! log holds on both paths. Two kernels compute the same value, and the
//! CPU alone picks between them: on x86_64, when the CPU reports
//! `pclmulqdq` and `sse4.1` at run time, a payload of at least 64 bytes is
//! folded 64 bytes a step by carry-less multiplication; otherwise — other
//! targets, older CPUs, shorter payloads, and the kernel's last few
//! bytes — a slicing-by-8 table loop runs. No option, variable or
//! feature chooses.
//!
//! ## The pending buffer and its flush points
//!
//! Frames are assembled in one buffer inside the [`DurableStore`]. A
//! commit frame is written there in one pass: op, node and meta, then the
//! codec encodes the body straight behind them
//! ([`EntryCodec::encode_into`]), so a body has no buffer of its own and
//! is never copied. A snapshot frame prefixes each body with its length,
//! so its bodies go through one scratch buffer, reused across entries and
//! nodes. The frames reach the file in a single `write` at each **flush
//! point**:
//!
//! 1. a commit under [`SyncPolicy::EveryCommit`] (followed by the `fsync`);
//! 2. [`DurableStore::sync`] (likewise);
//! 3. compaction — the old tail first gets what it is owed, and the
//!    snapshot frames take the same route into the new segment;
//! 4. dropping the store (best effort: `Drop` cannot report an error,
//!    call `sync` to see one);
//! 5. the buffer passing 64 KiB.
//!
//! Between flush points the newest frames exist only in this process: a
//! `kill -9` loses them, not just a power cut. [`recover`] on the
//! directory of a live store therefore sees the log as of the last flush
//! point.
//!
//! ## Durability contract
//!
//! With [`SyncPolicy::EveryCommit`] (the default), `fsync` runs after
//! every commit frame: once [`DurableStore::append_commit`] returns, that
//! CLC survives a crash. Truncate and prune frames wait in the pending
//! buffer until the next commit or `sync` — losing them, with the process
//! or with the power, merely recovers a slightly *older* (still
//! consistent) state, because frames after them in the log are lost too:
//! a log prefix is always a state the federation actually passed through.
//! [`SyncPolicy::Manual`] leaves durability to explicit
//! [`DurableStore::sync`] calls (benchmarks, bulk image construction):
//! appended frames may sit in user space until `sync`, compaction, drop
//! or 64 KiB, and nothing is `fsync`ed before `sync` or a compaction.
//!
//! ## Torn-tail policy
//!
//! Recovery replays segments in order. In the **final** segment, the first
//! frame whose length field overruns the file or whose CRC mismatches is
//! treated as a torn write: that frame and everything after it is
//! discarded ([`DurableStore::open`] truncates the file there, and the
//! discarded span is reported via [`TornTail`]). Any damage in a
//! *non-final* segment — or a frame that passes its CRC but fails to
//! decode or violates store monotonicity — is not a torn write and fails
//! recovery with [`DurableError::Corrupt`]. Recovery never panics on
//! arbitrary bytes: every invariant [`ClcStore::commit`] asserts is
//! checked (and turned into an error) first, and every length and count
//! is checked against the bytes that back it ([`crate::varint`]).
//!
//! Each segment is read as a stream, frame by frame, through one buffer
//! of at most 64 KiB into one reused frame buffer: recovery's memory is the image it
//! rebuilds plus one frame, whatever the segment's size. A length field
//! that overruns what the segment has left is refused before the frame
//! buffer is sized for it, so it allocates nothing of its size.
//! A segment is read as far as its size when recovery opens it: on the
//! directory of a live store, frames flushed after that are not read.

use crate::clc_store::{ClcMeta, ClcStore};
use crate::stamp::SeqNum;
use crate::varint::{put_ddv, put_u64, Cursor};
use hc3i_types::SimTime;
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{BufReader, ErrorKind, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Segment-file header: magic + layout version.
const SEG_MAGIC: &[u8; 8] = b"HC3ISEG\x01";
/// Frame ops.
const OP_COMMIT: u8 = 1;
const OP_TRUNCATE: u8 = 2;
const OP_PRUNE: u8 = 3;
const OP_SNAPSHOT: u8 = 4;
/// Ceiling on a single frame payload (a snapshot of one node's chain);
/// anything larger in a length field is damage, not data.
const MAX_FRAME: u32 = 1 << 26;
/// The pending buffer is written out once it holds this much, and
/// recovery reads a segment through a buffer of this size.
const FLUSH_BYTES: usize = 64 << 10;

// ---- CRC-32 (IEEE 802.3, reflected) ----------------------------------------

/// `t[0]` is the classic byte-at-a-time table; `t[k][b]` is the CRC of
/// byte `b` followed by `k` zero bytes, which lets eight input bytes be
/// folded per step with eight independent lookups.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let c = t[k - 1][i];
            t[k][i] = t[0][(c & 0xFF) as usize] ^ (c >> 8);
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// Inputs shorter than this take the table loop even where the
/// carry-less kernel runs: below it the kernel's set-up and final
/// reduction cost more than the lookups they replace.
const CLMUL_MIN_LEN: usize = 64;

/// CRC-32 (IEEE) of `bytes` — the frame checksum.
pub fn crc32(bytes: &[u8]) -> u32 {
    let folded = match bytes.len() {
        CLMUL_MIN_LEN.. => crc32_clmul(!0, bytes),
        _ => None,
    };
    !folded.unwrap_or_else(|| crc32_table(!0, bytes))
}

/// The CRC register `c` advanced over `bytes` by slicing-by-8 lookups.
fn crc32_table(mut c: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// The CRC register `c` advanced over `bytes` by the carry-less kernel,
/// or `None` where this CPU lacks the instructions it needs.
#[cfg(target_arch = "x86_64")]
fn crc32_clmul(c: u32, bytes: &[u8]) -> Option<u32> {
    if !(is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")) {
        return None;
    }
    // SAFETY: `clmul::update` is compiled for `pclmulqdq` and `sse4.1`,
    // and the CPU has just reported both at run time.
    Some(unsafe { clmul::update(c, bytes) })
}

#[cfg(not(target_arch = "x86_64"))]
fn crc32_clmul(_: u32, _: &[u8]) -> Option<u32> {
    None
}

/// CRC-32 by carry-less multiplication (`pclmulqdq`), after Intel's
/// *Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
/// Instruction* in its bit-reflected form: four 16-byte lanes are folded
/// 64 bytes a step, then into one lane, 16 bytes a step, and the last 128
/// bits are reduced to the 32-bit register by a Barrett reduction. What
/// is left under 16 bytes goes through the table loop.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    // Fold constants, each `x^n mod P(x)` bit-reflected and shifted left
    // by one (the reflected product of two 64-bit halves is one bit short).
    /// `n = 4·128 + 32`: one lane folded 512 bits forward, low half.
    const K1: i64 = 0x1_5444_2bd4;
    /// `n = 4·128 − 32`: the same, high half.
    const K2: i64 = 0x1_c6e4_1596;
    /// `n = 128 + 32`: one lane folded 128 bits forward, low half.
    const K3: i64 = 0x1_7519_97d0;
    /// `n = 128 − 32`: the same, high half.
    const K4: i64 = 0x0_ccaa_009e;
    /// `n = 64`: 96 bits folded to 64.
    const K5: i64 = 0x1_63cd_6124;
    /// `P(x)` itself, reflected, with its `x^32` term.
    const P: i64 = 0x1_db71_0641;
    /// `μ = ⌊x^64 / P(x)⌋`, reflected: the Barrett constant.
    const MU: i64 = 0x1_f701_1641;

    /// Advance the CRC register `c` over `bytes`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn update(c: u32, bytes: &[u8]) -> u32 {
        let mut blocks = bytes.chunks_exact(64);
        let Some(first) = blocks.next() else {
            return super::crc32_table(c, bytes);
        };
        let mut x = [
            lane(&first[..16]),
            lane(&first[16..32]),
            lane(&first[32..48]),
            lane(&first[48..]),
        ];
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(c as i32));
        let k1k2 = _mm_set_epi64x(K2, K1);
        for block in &mut blocks {
            for (i, x) in x.iter_mut().enumerate() {
                *x = fold(*x, lane(&block[16 * i..16 * i + 16]), k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let [x0, x1, x2, x3] = x;
        let mut x = fold(fold(fold(x0, x1, k3k4), x2, k3k4), x3, k3k4);
        let mut lanes = blocks.remainder().chunks_exact(16);
        for next in &mut lanes {
            x = fold(x, lane(next), k3k4);
        }

        // 128 bits to 64: the low half folded onto the high one, then the
        // low 32 bits of that onto the upper 64.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett: t1 = (x mod x^32)·μ, t2 = (t1 mod x^32)·P, and the
        // register is the upper half of x ^ t2 (the reflected quotient).
        let pmu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pmu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pmu, 0x00);
        let c = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
        super::crc32_table(c, lanes.remainder())
    }

    /// `next` ^ `x` carried 128 bits forward: `x`'s halves times `keys`'.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(x: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(x, keys, 0x00);
        let hi = _mm_clmulepi64_si128(x, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// Sixteen bytes as one little-endian lane.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn lane(bytes: &[u8]) -> __m128i {
        let (lo, hi) = bytes.split_at(8);
        let word = |b: &[u8]| i64::from_le_bytes(b.try_into().expect("8 bytes"));
        _mm_set_epi64x(word(hi), word(lo))
    }
}

// ---- frame bodies ---------------------------------------------------------

fn put_meta(buf: &mut Vec<u8>, meta: &ClcMeta) {
    put_u64(buf, meta.sn.0);
    put_ddv(buf, &meta.ddv);
    put_u64(buf, meta.committed_at.nanos());
    buf.push(meta.forced as u8);
}

fn get_meta(cur: &mut Cursor<'_>) -> Result<ClcMeta, String> {
    let sn = SeqNum(cur.u64()?);
    let ddv = Arc::new(cur.ddv()?);
    let committed_at = SimTime(cur.u64()?);
    let forced = match cur.u8()? {
        0 => false,
        1 => true,
        t => return Err(format!("bad forced byte {t}")),
    };
    Ok(ClcMeta {
        sn,
        ddv,
        committed_at,
        forced,
    })
}

// ---- codec plug-in --------------------------------------------------------

/// Serializes one store entry's payload for the segment log.
///
/// Defined here (below the protocol crate in the dependency order) so
/// `hc3i-core` can plug in its byte-stable checkpoint encoding
/// (`CheckpointCodec`): the `prev` argument is the node's previous chain
/// entry, letting the codec write a checkpoint's delivery record as a
/// structural delta against it. [`EntryCodec::encode_into`] is the one
/// encoder a codec writes: it appends to a buffer it is handed, which on
/// the write path is the commit's frame itself.
/// [`EntryCodec::encode_payload`] wraps it for a body on its own.
pub trait EntryCodec {
    /// What a chain entry's payload is (a node checkpoint upstream).
    type Payload: Clone;

    /// Append the encoding of `payload` to `out`, optionally as a delta
    /// against `prev` (the entry immediately below it in the node's
    /// chain). The bytes already in `out` stay as they are: the segment
    /// log encodes a commit's body straight into its frame, behind the
    /// op, node and meta it has written there.
    fn encode_into(&self, payload: &Self::Payload, prev: Option<&Self::Payload>, out: &mut Vec<u8>);

    /// [`EntryCodec::encode_into`] a fresh buffer: the body alone.
    fn encode_payload(&self, payload: &Self::Payload, prev: Option<&Self::Payload>) -> Vec<u8> {
        let mut body = Vec::new();
        self.encode_into(payload, prev, &mut body);
        body
    }

    /// Decode one payload written by [`EntryCodec::encode_into`] with the
    /// same `prev`. Must consume `buf` exactly and must *never* panic
    /// on arbitrary bytes.
    fn decode_payload(
        &self,
        buf: &[u8],
        prev: Option<&Self::Payload>,
    ) -> Result<Self::Payload, String>;
}

// ---- errors and options ---------------------------------------------------

/// A durable-store failure.
#[derive(Debug)]
pub enum DurableError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// A segment other than the torn tail is damaged, or a checksummed
    /// frame decodes to something that violates store invariants.
    Corrupt {
        /// Segment index the damage was found in.
        segment: u64,
        /// Byte offset of the offending frame within the segment.
        offset: u64,
        /// What failed.
        what: String,
    },
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Io(e) => write!(f, "durable store I/O: {e}"),
            DurableError::Corrupt {
                segment,
                offset,
                what,
            } => write!(f, "segment {segment} corrupt at byte {offset}: {what}"),
        }
    }
}

impl std::error::Error for DurableError {}

impl From<std::io::Error> for DurableError {
    fn from(e: std::io::Error) -> Self {
        DurableError::Io(e)
    }
}

/// When the log flushes to the platter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Write and `fsync` after every commit frame: a returned
    /// `append_commit` is a durable CLC (the default; see the module docs
    /// for what this means for truncate/prune frames).
    EveryCommit,
    /// `fsync` only on explicit [`DurableStore::sync`] (bulk image
    /// construction, benchmarks); until then frames may not even have left
    /// the process (see the module docs' flush points).
    Manual,
}

/// Tuning of a [`DurableStore`].
#[derive(Debug, Clone, Copy)]
pub struct DurableOptions {
    /// Flush policy.
    pub sync: SyncPolicy,
    /// Rewrite flattened chains into a fresh segment once this many frame
    /// bytes accumulate since the last compaction; `None` compacts only on
    /// explicit [`DurableStore::compact`] calls.
    pub compact_bytes: Option<u64>,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            sync: SyncPolicy::EveryCommit,
            compact_bytes: Some(8 << 20),
        }
    }
}

/// The span recovery discarded from the active segment's tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TornTail {
    /// Segment the tear was found in (always the final one).
    pub segment: u64,
    /// Offset of the first discarded byte.
    pub offset: u64,
    /// How many bytes were discarded.
    pub discarded: u64,
}

/// A read-only recovered image: what [`recover`] rebuilds from a segment
/// directory without touching it.
pub struct Recovered<C: EntryCodec> {
    /// Every node's rebuilt chain, keyed by global node index.
    pub stores: BTreeMap<u64, ClcStore<C::Payload>>,
    /// The tail span that was discarded as a torn write, if any.
    pub torn: Option<TornTail>,
    /// Segments scanned.
    pub segments: u64,
    /// Valid frames replayed.
    pub frames: u64,
}

impl<C: EntryCodec> Recovered<C> {
    /// Total chain entries across all recovered nodes.
    pub fn total_entries(&self) -> u64 {
        self.stores.values().map(|s| s.len() as u64).sum()
    }
}

// ---- replay ---------------------------------------------------------------

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("seg-{index:08}.log"))
}

/// `seg-NNNNNNNN.log` files in `dir`, sorted by index.
fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, DurableError> {
    let mut segs = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(idx) = name
            .strip_prefix("seg-")
            .and_then(|s| s.strip_suffix(".log"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            segs.push((idx, entry.path()));
        }
    }
    segs.sort_unstable_by_key(|&(idx, _)| idx);
    Ok(segs)
}

/// True when `dir` exists and already holds a segment log. Read-only: what
/// a caller that needs a *fresh* directory asks before [`DurableStore::open`]
/// (which would replay the log, and trim a torn tail off it).
pub fn holds_log(dir: &Path) -> Result<bool, DurableError> {
    match list_segments(dir) {
        Ok(segs) => Ok(!segs.is_empty()),
        Err(DurableError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
        Err(e) => Err(e),
    }
}

struct Replayer<'a, C: EntryCodec> {
    codec: &'a C,
    stores: BTreeMap<u64, ClcStore<C::Payload>>,
}

impl<C: EntryCodec> Replayer<'_, C> {
    /// Apply one checksummed frame payload. Errors here are semantic
    /// corruption (the CRC already vouched for the bytes), never a torn
    /// write.
    fn apply(&mut self, payload: &[u8]) -> Result<(), String> {
        let mut cur = Cursor::new(payload);
        let op = cur.u8()?;
        let node = cur.u64()?;
        match op {
            OP_COMMIT => {
                let meta = get_meta(&mut cur)?;
                let store = self.stores.entry(node).or_default();
                commit_next(self.codec, store, meta, cur.rest())
            }
            OP_TRUNCATE => {
                let sn = SeqNum(cur.u64()?);
                cur.finish()?;
                self.stores.entry(node).or_default().truncate_after(sn);
                Ok(())
            }
            OP_PRUNE => {
                let min_sn = SeqNum(cur.u64()?);
                cur.finish()?;
                self.stores.entry(node).or_default().prune_below(min_sn);
                Ok(())
            }
            OP_SNAPSHOT => {
                // An entry is a meta (four fields) and a body length.
                let n = cur.count(5)?;
                let mut chain: ClcStore<C::Payload> = ClcStore::new();
                for _ in 0..n {
                    let meta = get_meta(&mut cur)?;
                    commit_next(self.codec, &mut chain, meta, cur.bytes()?)?;
                }
                cur.finish()?;
                // A snapshot *replaces* the node's chain: replay is
                // idempotent whether or not pre-compaction segments
                // survived.
                self.stores.insert(node, chain);
                Ok(())
            }
            t => Err(format!("unknown frame op {t}")),
        }
    }
}

/// Decode `body` against `chain`'s newest entry and commit it under
/// `meta` — after checking everything [`ClcStore::commit`] would assert,
/// so a corrupt frame errors instead of panicking.
fn commit_next<C: EntryCodec>(
    codec: &C,
    chain: &mut ClcStore<C::Payload>,
    meta: ClcMeta,
    body: &[u8],
) -> Result<(), String> {
    let last = chain.latest();
    if let Some(last) = last {
        if meta.sn <= last.meta.sn {
            return Err("non-monotone chain SN".into());
        }
        if meta.ddv.len() != last.meta.ddv.len() || !last.meta.ddv.dominated_by(&meta.ddv) {
            return Err("non-monotone chain DDV".into());
        }
    }
    let decoded = codec.decode_payload(body, last.map(|e| &e.payload))?;
    chain.commit(meta, decoded);
    Ok(())
}

/// Fill `buf` from `src`; `false` if `src` ends first.
fn read_full(src: &mut impl Read, buf: &mut [u8]) -> std::io::Result<bool> {
    match src.read_exact(buf) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == ErrorKind::UnexpectedEof => Ok(false),
        Err(e) => Err(e),
    }
}

/// Replay one segment, frame by frame: the file is read through one
/// buffer of at most `FLUSH_BYTES`, each frame into one reused frame
/// buffer, and only as far as its size at open. Returns the torn span if
/// its tail was discarded.
fn scan_segment<C: EntryCodec>(
    index: u64,
    path: &Path,
    is_final: bool,
    replayer: &mut Replayer<'_, C>,
    frames: &mut u64,
) -> Result<Option<TornTail>, DurableError> {
    let file = File::open(path)?;
    let size = file.metadata()?.len();
    // What is still unread; its limit is the bytes left before the end.
    // (A segment smaller than the buffer gets a buffer of its own size.)
    let buffer = size.min(FLUSH_BYTES as u64) as usize;
    let mut rest = BufReader::with_capacity(buffer, file).take(size);
    let corrupt = |left: u64, what: String| DurableError::Corrupt {
        segment: index,
        offset: size - left,
        what,
    };
    // Framing damage where `left` bytes remain: a torn write (discard from
    // there on) in the final segment, corruption anywhere else.
    let damaged = |left: u64, what: &str| {
        if is_final {
            Ok(Some(TornTail {
                segment: index,
                offset: size - left,
                discarded: left,
            }))
        } else {
            Err(corrupt(left, what.to_string()))
        }
    };
    // A final segment whose very header is incomplete is a crash during
    // segment creation: the whole file is discarded.
    let mut magic = [0; SEG_MAGIC.len()];
    if !read_full(&mut rest, &mut magic)? || magic != *SEG_MAGIC {
        return damaged(size, "bad segment header");
    }
    let mut frame = Vec::new();
    while rest.limit() > 0 {
        let left = rest.limit();
        // Frame header: [len u32][crc u32].
        let mut head = [0; 8];
        if !read_full(&mut rest, &mut head)? {
            return damaged(left, "truncated frame header");
        }
        let [l0, l1, l2, l3, c0, c1, c2, c3] = head;
        let len = u32::from_le_bytes([l0, l1, l2, l3]);
        let crc = u32::from_le_bytes([c0, c1, c2, c3]);
        // A length past what the segment has left is refused before the
        // frame buffer is sized for it, never an allocation of that size.
        if len > MAX_FRAME || u64::from(len) > rest.limit() {
            return damaged(left, "frame length overruns segment");
        }
        frame.resize(len as usize, 0);
        if !read_full(&mut rest, &mut frame)? {
            return damaged(left, "segment shrank while it was read");
        }
        if crc32(&frame) != crc {
            return damaged(left, "frame checksum mismatch");
        }
        replayer.apply(&frame).map_err(|what| corrupt(left, what))?;
        *frames += 1;
    }
    Ok(None)
}

/// Rebuild every node's chain from the segment log in `dir` without
/// modifying it (the torn tail, if any, is skipped but left on disk).
///
/// Holds the image it rebuilds plus one read buffer and one frame, never
/// a whole segment. Each segment is read as the prefix present when it is
/// opened, so on a live store's directory this is the log as of the last
/// flush point before that (see the module docs).
pub fn recover<C: EntryCodec>(dir: &Path, codec: &C) -> Result<Recovered<C>, DurableError> {
    let segs = list_segments(dir)?;
    let mut replayer = Replayer {
        codec,
        stores: BTreeMap::new(),
    };
    let mut frames = 0u64;
    let mut torn = None;
    let last = segs.len().saturating_sub(1);
    for (i, (index, path)) in segs.iter().enumerate() {
        torn = scan_segment(*index, path, i == last, &mut replayer, &mut frames)?;
    }
    Ok(Recovered {
        stores: replayer.stores,
        torn,
        segments: segs.len() as u64,
        frames,
    })
}

// ---- the store ------------------------------------------------------------

/// Append-only, checksummed, compacting on-disk image of a federation's
/// CLC stores (one chain per node, keyed by global node index).
///
/// See the module docs for the flush points, the durability contract and
/// the torn-tail policy.
pub struct DurableStore<C: EntryCodec> {
    dir: PathBuf,
    codec: C,
    opts: DurableOptions,
    /// Index of the active (tail) segment.
    seg_index: u64,
    writer: File,
    /// Framed bytes `writer` has not been handed yet.
    pending: Vec<u8>,
    /// Frame bytes appended since the last compaction (or open).
    appended: u64,
    /// In-memory replica of what the log replays to — the write path's
    /// source of `prev` payloads for delta encoding, and what compaction
    /// flattens. [`DurableStore::append_commit`] keeps a clone of each
    /// payload. A sealed payload shares structure with the engine's store
    /// (`Arc`-backed stamps and sealed records), so that clone copies
    /// pointers; an unsealed one is copied whole — a `DeliveredRecord`
    /// that was never sealed clones its entire delivery map, as the
    /// benchmark's `recovery_replay` image build does at every append.
    mirror: BTreeMap<u64, ClcStore<C::Payload>>,
    /// Commit frames appended by this handle (crash-injection hooks and
    /// tests key off it).
    commits: u64,
}

impl<C: EntryCodec> DurableStore<C> {
    /// Open (or create) the segment log in `dir`, replaying any existing
    /// segments: the write-path recovery. A torn tail in the final
    /// segment is truncated off the file before appending resumes.
    pub fn open(dir: &Path, codec: C, opts: DurableOptions) -> Result<Self, DurableError> {
        fs::create_dir_all(dir)?;
        let recovered = recover(dir, &codec)?;
        let segs = list_segments(dir)?;
        let (seg_index, writer) = match segs.last() {
            None => {
                let f = create_segment(dir, 0)?;
                f.sync_all()?;
                sync_dir(dir);
                (0, f)
            }
            Some((index, path)) => {
                let mut f = OpenOptions::new().read(true).append(true).open(path)?;
                if let Some(t) = recovered.torn {
                    if t.offset < SEG_MAGIC.len() as u64 {
                        // The header itself was torn: rewrite the file.
                        f.set_len(0)?;
                        f.write_all(SEG_MAGIC)?;
                    } else {
                        // Resume right after the last valid frame.
                        f.set_len(t.offset)?;
                    }
                    f.sync_all()?;
                }
                (*index, f)
            }
        };
        Ok(DurableStore {
            dir: dir.to_path_buf(),
            codec,
            opts,
            seg_index,
            writer,
            pending: Vec::new(),
            appended: 0,
            mirror: recovered.stores,
            commits: 0,
        })
    }

    /// Commit frames appended through this handle.
    pub fn commit_frames(&self) -> u64 {
        self.commits
    }

    /// One node's current chain, as the log replays to it.
    pub fn store(&self, node: u64) -> Option<&ClcStore<C::Payload>> {
        self.mirror.get(&node)
    }

    /// Every chain, keyed by global node index.
    pub fn stores(&self) -> &BTreeMap<u64, ClcStore<C::Payload>> {
        &self.mirror
    }

    /// Append one committed CLC to `node`'s chain. With
    /// [`SyncPolicy::EveryCommit`] the entry is durable when this
    /// returns.
    pub fn append_commit(
        &mut self,
        node: u64,
        meta: &ClcMeta,
        payload: &C::Payload,
    ) -> Result<(), DurableError> {
        // One pass: the body is encoded into the frame, against the
        // chain's newest entry, with no buffer of its own.
        let store = self.mirror.entry(node).or_default();
        let prev = store.latest().map(|e| &e.payload);
        let codec = &self.codec;
        let bytes = frame_into(&mut self.pending, |frame| {
            frame.push(OP_COMMIT);
            put_u64(frame, node);
            put_meta(frame, meta);
            codec.encode_into(payload, prev, frame);
        });
        store.commit(meta.clone(), payload.clone());
        self.commits += 1;
        self.framed(bytes)?;
        if self.opts.sync == SyncPolicy::EveryCommit {
            self.sync()?;
        }
        self.maybe_compact()
    }

    /// Record a rollback: `node`'s chain drops every entry newer than
    /// `sn`.
    pub fn append_truncate(&mut self, node: u64, sn: SeqNum) -> Result<(), DurableError> {
        self.mirror.entry(node).or_default().truncate_after(sn);
        self.append(|_, frame| {
            frame.push(OP_TRUNCATE);
            put_u64(frame, node);
            put_u64(frame, sn.0);
        })?;
        self.maybe_compact()
    }

    /// Record a GC prune: `node`'s chain drops entries below `min_sn`
    /// (always keeping the newest).
    pub fn append_prune(&mut self, node: u64, min_sn: SeqNum) -> Result<(), DurableError> {
        self.mirror.entry(node).or_default().prune_below(min_sn);
        self.append(|_, frame| {
            frame.push(OP_PRUNE);
            put_u64(frame, node);
            put_u64(frame, min_sn.0);
        })?;
        self.maybe_compact()
    }

    /// Seed `node`'s chain with a whole store (the genesis CLC of a fresh
    /// federation, written as a snapshot frame).
    pub fn snapshot_node(
        &mut self,
        node: u64,
        store: &ClcStore<C::Payload>,
    ) -> Result<(), DurableError> {
        self.mirror.insert(node, store.clone());
        let mut body = Vec::new();
        self.append(|codec, frame| put_snapshot(frame, codec, node, store, &mut body))?;
        self.maybe_compact()
    }

    /// Flush everything appended so far to the platter.
    pub fn sync(&mut self) -> Result<(), DurableError> {
        flush(&mut self.writer, &mut self.pending)?;
        self.writer.sync_all()?;
        Ok(())
    }

    /// Rewrite every node's flattened chain as snapshot frames into a
    /// fresh segment, then delete the older segments. Crash-safe at every
    /// step (see the module docs).
    pub fn compact(&mut self) -> Result<(), DurableError> {
        flush(&mut self.writer, &mut self.pending)?;
        let old = list_segments(&self.dir)?;
        let new_index = self.seg_index + 1;
        let mut f = create_segment(&self.dir, new_index)?;
        let mut body = Vec::new();
        for (&node, store) in &self.mirror {
            frame_into(&mut self.pending, |frame| {
                put_snapshot(frame, &self.codec, node, store, &mut body)
            });
            if self.pending.len() >= FLUSH_BYTES {
                flush(&mut f, &mut self.pending)?;
            }
        }
        flush(&mut f, &mut self.pending)?;
        // The snapshot segment must be durable before anything older
        // disappears.
        f.sync_all()?;
        sync_dir(&self.dir);
        self.writer = f;
        self.seg_index = new_index;
        self.appended = 0;
        // Newest-first: a crash mid-deletion leaves a contiguous *prefix*
        // of old segments (replayable on its own) plus the complete
        // snapshot segment that replaces whatever it said.
        for (_, path) in old.iter().rev() {
            fs::remove_file(path)?;
        }
        sync_dir(&self.dir);
        Ok(())
    }

    fn maybe_compact(&mut self) -> Result<(), DurableError> {
        if let Some(limit) = self.opts.compact_bytes {
            if self.appended >= limit {
                self.compact()?;
            }
        }
        Ok(())
    }

    /// Frame what `fill` writes as one record in the pending buffer, and
    /// count it.
    fn append(&mut self, fill: impl FnOnce(&C, &mut Vec<u8>)) -> Result<(), DurableError> {
        let bytes = frame_into(&mut self.pending, |frame| fill(&self.codec, frame));
        self.framed(bytes)
    }

    /// Count a frame of `bytes` just put in the pending buffer, and write
    /// the buffer out once it is full (flush point 5).
    fn framed(&mut self, bytes: u64) -> Result<(), DurableError> {
        self.appended += bytes;
        if self.pending.len() >= FLUSH_BYTES {
            flush(&mut self.writer, &mut self.pending)?;
        }
        Ok(())
    }
}

impl<C: EntryCodec> Drop for DurableStore<C> {
    fn drop(&mut self) {
        // Flush point 4. An error has nowhere to go from here; callers
        // that need to see it call `sync` first.
        let _ = flush(&mut self.writer, &mut self.pending);
    }
}

fn create_segment(dir: &Path, index: u64) -> Result<File, DurableError> {
    let mut f = OpenOptions::new()
        .create_new(true)
        .append(true)
        .open(segment_path(dir, index))?;
    f.write_all(SEG_MAGIC)?;
    Ok(f)
}

/// Append one `[len][crc][payload]` frame to `out`, its payload being what
/// `fill` writes; returns the frame's size.
fn frame_into(out: &mut Vec<u8>, fill: impl FnOnce(&mut Vec<u8>)) -> u64 {
    let start = out.len();
    out.extend_from_slice(&[0; 8]);
    fill(out);
    let (head, payload) = out[start..].split_at_mut(8);
    head[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    head[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    (out.len() - start) as u64
}

/// Hand `pending` to `f` in one write.
fn flush(f: &mut File, pending: &mut Vec<u8>) -> std::io::Result<()> {
    f.write_all(pending)?;
    pending.clear();
    Ok(())
}

/// Write `node`'s whole chain as one snapshot frame's payload. Each body
/// is length-prefixed, so it is encoded into `body` (a scratch buffer the
/// caller reuses across entries and nodes) and copied in behind its
/// length.
fn put_snapshot<C: EntryCodec>(
    frame: &mut Vec<u8>,
    codec: &C,
    node: u64,
    store: &ClcStore<C::Payload>,
    body: &mut Vec<u8>,
) {
    frame.push(OP_SNAPSHOT);
    put_u64(frame, node);
    put_u64(frame, store.len() as u64);
    let mut prev: Option<&C::Payload> = None;
    for entry in store.iter() {
        put_meta(frame, &entry.meta);
        body.clear();
        codec.encode_into(&entry.payload, prev, body);
        put_u64(frame, body.len() as u64);
        frame.extend_from_slice(body);
        prev = Some(&entry.payload);
    }
}

/// `fsync` the directory itself so entry creations/deletions are durable
/// (best-effort on platforms where directories cannot be opened).
fn sync_dir(dir: &Path) {
    if let Ok(f) = File::open(dir) {
        let _ = f.sync_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stamp::Ddv;

    /// A trivially-delta'd payload: a list of u64s, encoded either in
    /// full or as a suffix delta against the previous entry.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    struct Nums(Vec<u64>);

    struct NumsCodec;

    impl EntryCodec for NumsCodec {
        type Payload = Nums;

        fn encode_into(&self, payload: &Nums, prev: Option<&Nums>, out: &mut Vec<u8>) {
            match prev {
                Some(p) if payload.0.starts_with(&p.0) => {
                    out.push(1);
                    put_u64(out, (payload.0.len() - p.0.len()) as u64);
                    for &v in &payload.0[p.0.len()..] {
                        put_u64(out, v);
                    }
                }
                _ => {
                    out.push(0);
                    put_u64(out, payload.0.len() as u64);
                    for &v in &payload.0 {
                        put_u64(out, v);
                    }
                }
            }
        }

        fn decode_payload(&self, buf: &[u8], prev: Option<&Nums>) -> Result<Nums, String> {
            let mut cur = Cursor::new(buf);
            let tag = cur.u8()?;
            let n = cur.count(1)?;
            let mut vals = match tag {
                0 => Vec::with_capacity(n),
                1 => prev.ok_or("delta without prev")?.0.clone(),
                t => return Err(format!("bad payload tag {t}")),
            };
            for _ in 0..n {
                vals.push(cur.u64()?);
            }
            cur.finish()?;
            Ok(Nums(vals))
        }
    }

    fn meta(sn: u64, ddv: &[u64], forced: bool) -> ClcMeta {
        ClcMeta {
            sn: SeqNum(sn),
            ddv: Arc::new(Ddv::from_entries(ddv.iter().copied().map(SeqNum).collect())),
            committed_at: SimTime(sn * 1000),
            forced,
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "hc3i-durable-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn opts_manual() -> DurableOptions {
        DurableOptions {
            sync: SyncPolicy::Manual,
            compact_bytes: None,
        }
    }

    fn populate(store: &mut DurableStore<NumsCodec>) {
        // Two nodes, growing chains sharing prefixes (delta-encodable).
        for node in 0..2u64 {
            for k in 1..=4u64 {
                let payload = Nums((0..k * 2 + node).collect());
                store
                    .append_commit(node, &meta(k, &[k, k / 2], k % 2 == 0), &payload)
                    .unwrap();
            }
        }
        store.append_truncate(1, SeqNum(3)).unwrap();
        store.append_prune(0, SeqNum(2)).unwrap();
    }

    fn expected_state() -> BTreeMap<u64, Vec<(u64, usize)>> {
        // node -> [(sn, payload len)]
        let mut m = BTreeMap::new();
        m.insert(0, vec![(2, 4), (3, 6), (4, 8)]);
        m.insert(1, vec![(1, 3), (2, 5), (3, 7)]);
        m
    }

    fn assert_state(stores: &BTreeMap<u64, ClcStore<Nums>>) {
        let expected = expected_state();
        assert_eq!(stores.len(), expected.len());
        for (node, chain) in &expected {
            let s = &stores[node];
            let got: Vec<(u64, usize)> =
                s.iter().map(|e| (e.meta.sn.0, e.payload.0.len())).collect();
            assert_eq!(&got, chain, "node {node}");
        }
    }

    #[test]
    fn round_trip_through_recovery() {
        let dir = tmpdir("roundtrip");
        let mut store = DurableStore::open(&dir, NumsCodec, opts_manual()).unwrap();
        assert!(
            store.mirror.is_empty(),
            "a fresh directory replays to nothing"
        );
        populate(&mut store);
        assert_state(store.stores());
        drop(store);
        let rec = recover(&dir, &NumsCodec).unwrap();
        assert!(rec.torn.is_none());
        assert_eq!(rec.segments, 1);
        assert_state(&rec.stores);
        // Reopen (write-path recovery) sees the same state.
        let store = DurableStore::open(&dir, NumsCodec, opts_manual()).unwrap();
        assert!(!store.mirror.is_empty());
        assert_state(store.stores());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_preserves_state_and_drops_segments() {
        let dir = tmpdir("compact");
        let mut store = DurableStore::open(&dir, NumsCodec, opts_manual()).unwrap();
        populate(&mut store);
        store.compact().unwrap();
        let segs = list_segments(&dir).unwrap();
        assert_eq!(segs.len(), 1, "old segments deleted");
        assert_eq!(segs[0].0, 1, "snapshot segment has the next index");
        assert_state(store.stores());
        // Appends continue after compaction and everything replays.
        store
            .append_commit(0, &meta(9, &[9, 9], false), &Nums(vec![1, 2, 3]))
            .unwrap();
        drop(store);
        let rec = recover(&dir, &NumsCodec).unwrap();
        assert_eq!(rec.stores[&0].latest().unwrap().meta.sn, SeqNum(9));
        assert_eq!(rec.stores[&1].len(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn auto_compaction_triggers_on_threshold() {
        let dir = tmpdir("autocompact");
        let opts = DurableOptions {
            sync: SyncPolicy::Manual,
            compact_bytes: Some(256),
        };
        let mut store = DurableStore::open(&dir, NumsCodec, opts).unwrap();
        for k in 1..=32u64 {
            store
                .append_commit(0, &meta(k, &[k], false), &Nums((0..k).collect()))
                .unwrap();
        }
        let segs = list_segments(&dir).unwrap();
        assert_eq!(segs.len(), 1, "auto-compaction keeps one live segment");
        assert!(segs[0].0 >= 1, "compaction bumped the segment index");
        // Frames since the last compaction are still pending.
        store.sync().unwrap();
        let rec = recover(&dir, &NumsCodec).unwrap();
        assert_eq!(rec.stores[&0].len(), 32);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_discarded_and_reopen_appends() {
        let dir = tmpdir("torn");
        let mut store = DurableStore::open(&dir, NumsCodec, opts_manual()).unwrap();
        populate(&mut store);
        drop(store);
        let (idx, path) = list_segments(&dir).unwrap().pop().unwrap();
        let full = fs::read(&path).unwrap();
        // Tear off the last 3 bytes: the final frame is now torn.
        fs::write(&path, &full[..full.len() - 3]).unwrap();
        let rec = recover(&dir, &NumsCodec).unwrap();
        let t = rec.torn.expect("tear detected");
        assert_eq!(t.segment, idx);
        // The discarded frame was the prune: node 0 still has 4 entries.
        assert_eq!(rec.stores[&0].len(), 4);
        assert_eq!(rec.stores[&1].len(), 3, "truncate survived");
        // The write path truncates the tear and appends cleanly after it.
        let mut store = DurableStore::open(&dir, NumsCodec, opts_manual()).unwrap();
        store.append_prune(0, SeqNum(2)).unwrap();
        drop(store);
        let rec = recover(&dir, &NumsCodec).unwrap();
        assert!(rec.torn.is_none());
        assert_state(&rec.stores);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_truncation_point_recovers_or_errors() {
        let dir = tmpdir("cuts");
        let mut store = DurableStore::open(&dir, NumsCodec, opts_manual()).unwrap();
        populate(&mut store);
        drop(store);
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let full = fs::read(&path).unwrap();
        fs::remove_dir_all(&dir).unwrap();
        every_cut_tears_at_its_frame("cuts", &full);
        // The read buffer's edges: a frame header split by the end of the
        // first buffer (the first frame ends 4 bytes before it) …
        let first = (FLUSH_BYTES - 40..)
            .map(|n| commit_frame(1, n))
            .find(|f| SEG_MAGIC.len() + f.len() == FLUSH_BYTES - 4)
            .unwrap();
        let split = [
            &SEG_MAGIC[..],
            &first,
            &commit_frame(2, 20),
            &commit_frame(3, 5),
        ]
        .concat();
        every_cut_tears_at_its_frame("split-header", &split);
        // … and a frame larger than the buffer, between two small ones.
        let big = commit_frame(2, FLUSH_BYTES + 4096);
        assert!(big.len() > FLUSH_BYTES);
        let long = [
            &SEG_MAGIC[..],
            &commit_frame(1, 10),
            &big,
            &commit_frame(3, 5),
        ]
        .concat();
        every_cut_tears_at_its_frame("long-frame", &long);
    }

    #[test]
    fn bit_flips_recover_or_error_never_panic() {
        let dir = tmpdir("flips");
        let mut store = DurableStore::open(&dir, NumsCodec, opts_manual()).unwrap();
        populate(&mut store);
        drop(store);
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let full = fs::read(&path).unwrap();
        for i in 0..full.len() {
            let mut bad = full.clone();
            bad[i] ^= 0x41;
            fs::write(&path, &bad).unwrap();
            // Either a clean error or a (possibly shortened) recovery.
            let _ = recover(&dir, &NumsCodec);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damage_in_non_final_segment_is_corrupt() {
        let dir = tmpdir("midseg");
        let mut store = DurableStore::open(&dir, NumsCodec, opts_manual()).unwrap();
        populate(&mut store);
        store.compact().unwrap();
        store
            .append_commit(0, &meta(9, &[9, 9], false), &Nums(vec![7]))
            .unwrap();
        drop(store);
        // Fabricate a follow-up segment so the snapshot segment is no
        // longer final, then damage the snapshot segment.
        let segs = list_segments(&dir).unwrap();
        assert_eq!(segs.len(), 1);
        let (idx, snap_path) = segs[0].clone();
        let bytes = fs::read(&snap_path).unwrap();
        fs::copy(&snap_path, segment_path(&dir, idx + 1)).unwrap();
        fs::write(&snap_path, &bytes[..bytes.len() - 2]).unwrap();
        let last_frame = *frame_starts(&bytes).last().unwrap() as u64;
        match recover(&dir, &NumsCodec) {
            Err(DurableError::Corrupt {
                segment,
                offset,
                what,
            }) => {
                assert_eq!(segment, idx);
                assert_eq!(offset, last_frame, "the cut frame is the damage");
                assert_eq!(what, "frame length overruns segment");
            }
            other => panic!("expected Corrupt, got {:?}", other.map(|r| r.frames)),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_flipped_payload_byte_in_the_final_segment_tears_there() {
        let dir = tmpdir("payload-flip");
        let mut store = DurableStore::open(&dir, NumsCodec, opts_manual()).unwrap();
        populate(&mut store);
        drop(store);
        let (idx, path) = list_segments(&dir).unwrap().pop().unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let last_frame = *frame_starts(&bytes).last().unwrap() as u64;
        // The last byte is the prune's `min_sn` (2): flipped, it still
        // decodes (to 67), so only the checksum tells it from data.
        *bytes.last_mut().unwrap() ^= 0x41;
        fs::write(&path, &bytes).unwrap();
        let rec = recover(&dir, &NumsCodec).unwrap();
        assert_eq!(
            rec.torn,
            Some(TornTail {
                segment: idx,
                offset: last_frame,
                discarded: bytes.len() as u64 - last_frame,
            })
        );
        assert_eq!(rec.stores[&0].len(), 4, "the flipped prune is not applied");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_flipped_bit_in_a_long_final_frame_tears_there_on_either_crc_path() {
        let dir = tmpdir("long-flip");
        let mut store = DurableStore::open(&dir, NumsCodec, opts_manual()).unwrap();
        for k in 1..=4u64 {
            let payload = Nums(vec![k; 150]);
            store
                .append_commit(0, &meta(k, &[k], false), &payload)
                .unwrap();
        }
        drop(store);
        let (idx, path) = list_segments(&dir).unwrap().pop().unwrap();
        let image = fs::read(&path).unwrap();
        let starts = frame_starts(&image);
        assert!(
            starts.windows(2).all(|w| w[1] - w[0] >= 128),
            "frames of at least 128 B"
        );
        let last = *starts.last().unwrap();
        let (body, len) = (last + 8, image.len() - last - 8);
        // The kernel folds the payload's whole 16-byte lanes, from 64 B
        // on; the table loop takes the bytes after them.
        let folded = len - len % 16;
        assert!(len >= CLMUL_MIN_LEN && folded < len, "a {len}-byte payload");
        for (what, at) in [
            ("folded span", body + folded / 2),
            ("table tail", body + len - 1),
        ] {
            let mut bytes = image.clone();
            bytes[at] ^= 0x08;
            fs::write(&path, &bytes).unwrap();
            let rec = recover(&dir, &NumsCodec).unwrap();
            let torn = TornTail {
                segment: idx,
                offset: last as u64,
                discarded: (image.len() - last) as u64,
            };
            assert_eq!(rec.torn, Some(torn), "a flip in the {what}");
            assert_eq!(rec.stores[&0].len(), 3, "a flip in the {what}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Where each frame of an intact segment image starts, walked by the
    /// length fields.
    fn frame_starts(image: &[u8]) -> Vec<usize> {
        let mut starts = Vec::new();
        let mut at = SEG_MAGIC.len();
        while at < image.len() {
            starts.push(at);
            let len = u32::from_le_bytes(image[at..at + 4].try_into().unwrap());
            at += 8 + len as usize;
        }
        assert_eq!(at, image.len(), "the image ends on a frame boundary");
        starts
    }

    /// The commit frame of node 0's `sn`-th CLC with a full body of `n`
    /// values, each one byte: what `append_commit` writes for it.
    fn commit_frame(sn: u64, n: usize) -> Vec<u8> {
        let mut frame = Vec::new();
        frame_into(&mut frame, |f| {
            f.push(OP_COMMIT);
            put_u64(f, 0);
            put_meta(f, &meta(sn, &[sn], false));
            f.extend(NumsCodec.encode_payload(&Nums(vec![sn; n]), None));
        });
        frame
    }

    /// Write `image` cut at every byte as the only segment, and check that
    /// each cut replays exactly the frames wholly before it and discards
    /// the rest from the start of the frame it cuts (from 0 when it cuts
    /// the segment header).
    fn every_cut_tears_at_its_frame(tag: &str, image: &[u8]) {
        let starts = frame_starts(image);
        let ends: Vec<usize> = starts[1..].iter().copied().chain([image.len()]).collect();
        let dir = tmpdir(tag);
        fs::create_dir_all(&dir).unwrap();
        let path = segment_path(&dir, 0);
        fs::write(&path, image).unwrap();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        // Shortest last, so each cut is a truncation and not a rewrite.
        for cut in (0..=image.len()).rev() {
            file.set_len(cut as u64).unwrap();
            let rec = recover(&dir, &NumsCodec).unwrap();
            let whole = ends.iter().filter(|&&end| end <= cut).count();
            let torn_at = if cut < SEG_MAGIC.len() {
                Some(0)
            } else {
                Some(starts.get(whole).copied().unwrap_or(cut)).filter(|&at| at < cut)
            };
            let expected = torn_at.map(|at| TornTail {
                segment: 0,
                offset: at as u64,
                discarded: (cut - at) as u64,
            });
            assert_eq!(rec.torn, expected, "{tag}: cut at {cut}");
            assert_eq!(rec.frames, whole as u64, "{tag}: cut at {cut}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_node_seeds_genesis() {
        let dir = tmpdir("genesis");
        let mut chain = ClcStore::new();
        chain.commit(meta(1, &[1, 0], false), Nums(vec![1]));
        let mut store = DurableStore::open(&dir, NumsCodec, opts_manual()).unwrap();
        store.snapshot_node(5, &chain).unwrap();
        store
            .append_commit(5, &meta(2, &[2, 0], false), &Nums(vec![1, 2]))
            .unwrap();
        drop(store);
        let rec = recover(&dir, &NumsCodec).unwrap();
        assert_eq!(rec.stores[&5].len(), 2);
        assert_eq!(rec.total_entries(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// FNV-1a (64-bit) of every segment in `dir`, in index order.
    fn segment_hashes(dir: &Path) -> Vec<(u64, u64)> {
        list_segments(dir)
            .unwrap()
            .into_iter()
            .map(|(idx, path)| {
                let hash = fs::read(path)
                    .unwrap()
                    .iter()
                    .fold(0xcbf2_9ce4_8422_2325, |h, &b| {
                        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
                    });
                (idx, hash)
            })
            .collect()
    }

    /// Every frame type and both payload tags: genesis snapshot, delta and
    /// full commits, truncate, prune, more commits.
    fn pin_script(store: &mut DurableStore<NumsCodec>) {
        let mut chain = ClcStore::new();
        chain.commit(meta(1, &[1, 0, 0], false), Nums(vec![7, 300]));
        store.snapshot_node(3, &chain).unwrap();
        for k in 2..=6u64 {
            // Even SNs extend the previous payload (delta), odd ones don't.
            let payload = if k % 2 == 0 {
                Nums((0..k).map(|v| v * 1000).collect())
            } else {
                Nums(vec![7, 300, k, u64::MAX - k])
            };
            store
                .append_commit(3, &meta(k, &[k, k / 2, 1 << 40], k % 3 == 0), &payload)
                .unwrap();
            store
                .append_commit(200, &meta(k, &[k], false), &Nums((0..k).collect()))
                .unwrap();
        }
        store.append_truncate(3, SeqNum(4)).unwrap();
        store.append_prune(200, SeqNum(3)).unwrap();
        for k in 7..=9u64 {
            store
                .append_commit(200, &meta(k, &[k], true), &Nums((0..k).collect()))
                .unwrap();
        }
    }

    /// The on-disk format, pinned: these hashes were recorded at the
    /// commit before the data path was rebuilt (PR 17) and must never move
    /// without a segment-magic bump.
    #[test]
    fn segment_bytes_are_pinned() {
        let dir = tmpdir("pin");
        let mut store = DurableStore::open(&dir, NumsCodec, opts_manual()).unwrap();
        pin_script(&mut store);
        drop(store);
        assert_eq!(segment_hashes(&dir), [(0, 0x619e_b250_e0a9_c30a)]);
        fs::remove_dir_all(&dir).unwrap();

        // The same script through two auto-compactions.
        let opts = DurableOptions {
            sync: SyncPolicy::EveryCommit,
            compact_bytes: Some(150),
        };
        let mut store = DurableStore::open(&dir, NumsCodec, opts).unwrap();
        pin_script(&mut store);
        drop(store);
        assert_eq!(segment_hashes(&dir), [(2, 0x7425_fdf6_2b21_31ab)]);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The byte-at-a-time CRC-32 the sliced one replaced: the oracle.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        !bytes.iter().fold(!0u32, |c, &b| {
            CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8)
        })
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Both paths — the table loop and, where this CPU runs it, the
    /// carry-less kernel, each called directly — and `crc32` itself
    /// against the oracle.
    fn assert_crc32_paths(buf: &[u8], what: &str) {
        let want = crc32_bytewise(buf);
        assert_eq!(!crc32_table(!0, buf), want, "table loop, {what}");
        if let Some(c) = crc32_clmul(!0, buf) {
            assert_eq!(!c, want, "carry-less kernel, {what}");
        }
        assert_eq!(crc32(buf), want, "crc32, {what}");
    }

    #[test]
    fn crc32_sliced_equals_the_bytewise_oracle() {
        // xorshift64*: a fixed stream of test bytes.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let pool: Vec<u8> = (0..(1 << 20) + 16).map(|_| (next() >> 56) as u8).collect();
        // Every length 0..=1024 at every start offset 0..16 …
        for start in 0..16 {
            for len in 0..=1024 {
                let buf = &pool[start..start + len];
                assert_crc32_paths(buf, &format!("start {start} len {len}"));
            }
        }
        // … 1,000 random windows of up to 64 KiB …
        for _ in 0..1000 {
            let (start, len) = (
                next() as usize % (1 << 16),
                next() as usize % ((1 << 16) + 1),
            );
            let buf = &pool[start..start + len];
            assert_crc32_paths(buf, &format!("start {start} len {len}"));
        }
        // … and one 1 MiB buffer.
        assert_crc32_paths(&pool[..1 << 20], "1 MiB");
    }
}
