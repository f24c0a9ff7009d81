//! The one LEB128 implementation: what the segment log's frames and the
//! checkpoint entry bodies inside them (`hc3i-core`'s `CheckpointCodec`)
//! write integers, lengths and DDV stamps with.
//!
//! Writing is [`put_u64`] (7 bits per byte, low bits first, high bit set
//! on every byte but the last). Reading goes through a [`Cursor`], a
//! shrinking view of the input that cannot index past it, and follows two
//! bounds rules so that arbitrary bytes never panic a decoder or make it
//! allocate beyond the buffer it was handed:
//!
//! * a **length** is honoured only by `Cursor::take`, which compares it
//!   with the bytes that remain — there is no `pos + len` to overflow.
//!   The one length read outside a `Cursor` is a segment frame's `u32`
//!   length field, which the framing reader in `durable` honours with a
//!   read of the file bounded by it: a body the file does not back is a
//!   short read;
//! * a **count** is read only by [`Cursor::count`], which refuses one that
//!   the remaining bytes could not back at the item's smallest encoding —
//!   so `with_capacity(count)` is bounded by the input's own size.
//!
//! A varint is at most ten bytes; a tenth byte with its high bit set is
//! [`Error::Overflow`], an input that ends first is [`Error::Truncated`].
//! A decoder that has read a whole value ends with [`Cursor::finish`], so
//! bytes after it are [`Error::Trailing`] rather than silently ignored.

use crate::stamp::{Ddv, SeqNum};

/// Why a read failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// The input ended before the value (or the items a count promised).
    Truncated,
    /// A varint ran past ten bytes.
    Overflow,
    /// Bytes followed a complete value. (No count: a payload would widen
    /// every `Result` a read returns.)
    Trailing,
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Error::Truncated => "input truncated",
            Error::Overflow => "varint overflow",
            Error::Trailing => "trailing bytes",
        })
    }
}

impl From<Error> for String {
    fn from(e: Error) -> String {
        e.to_string()
    }
}

/// Append `v` as a LEB128 varint.
#[inline]
pub fn put_u64(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Append a DDV: entry count, then every entry.
pub fn put_ddv(buf: &mut Vec<u8>, ddv: &Ddv) {
    put_u64(buf, ddv.len() as u64);
    for e in ddv.iter() {
        put_u64(buf, e.0);
    }
}

/// The unread rest of an input buffer.
#[derive(Debug)]
pub struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    /// Start reading `buf` at its first byte.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor(buf)
    }

    /// Everything not yet read.
    pub(crate) fn rest(self) -> &'a [u8] {
        self.0
    }

    /// End a read that must have consumed the whole input.
    pub fn finish(self) -> Result<(), Error> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(Error::Trailing)
        }
    }

    /// The next byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, Error> {
        let (&b, rest) = self.0.split_first().ok_or(Error::Truncated)?;
        self.0 = rest;
        Ok(b)
    }

    /// The next varint. Values below 128 — most sequence numbers, ranks,
    /// counts and tags — are one byte and skip the loop.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, Error> {
        match self.0 {
            [b, rest @ ..] if *b < 0x80 => {
                self.0 = rest;
                Ok(u64::from(*b))
            }
            _ => self.u64_multibyte(),
        }
    }

    fn u64_multibyte(&mut self) -> Result<u64, Error> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            v |= u64::from(byte & 0x7F) << shift;
            if byte < 0x80 {
                return Ok(v);
            }
        }
        Err(Error::Overflow)
    }

    /// The next `len` bytes, if that many remain.
    #[inline]
    fn take(&mut self, len: u64) -> Result<&'a [u8], Error> {
        let len = usize::try_from(len).map_err(|_| Error::Truncated)?;
        let (head, rest) = self.0.split_at_checked(len).ok_or(Error::Truncated)?;
        self.0 = rest;
        Ok(head)
    }

    /// A varint length, then that many bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8], Error> {
        let len = self.u64()?;
        self.take(len)
    }

    /// A varint item count, refused unless the remaining bytes could hold
    /// that many items of at least `min_item_bytes` each.
    pub fn count(&mut self, min_item_bytes: usize) -> Result<usize, Error> {
        let n = self.u64()?;
        match usize::try_from(n) {
            Ok(n) if n <= self.0.len() / min_item_bytes => Ok(n),
            _ => Err(Error::Truncated),
        }
    }

    /// A DDV written by [`put_ddv`], read straight into its sparse form:
    /// zeros are skipped and the non-zero entries counted first, so the
    /// stamp is allocated once at its exact size. A stamp whose entries
    /// are all below 128 (one byte each) is read as a byte run.
    pub fn ddv(&mut self) -> Result<Ddv, Error> {
        let n = self.count(1)?;
        let run = &self.0[..n];
        let nonzero = if run.iter().fold(0, |acc, b| acc | b) < 0x80 {
            self.0 = &self.0[n..];
            let mut nonzero = Vec::with_capacity(run.iter().filter(|&&b| b != 0).count());
            nonzero.extend(
                (run.iter().enumerate())
                    .filter(|&(_, &b)| b != 0)
                    .map(|(c, &b)| (c, SeqNum(u64::from(b)))),
            );
            nonzero
        } else {
            let mut scan = Cursor(self.0);
            let mut count = 0;
            for _ in 0..n {
                count += usize::from(scan.u64()? != 0);
            }
            let mut nonzero = Vec::with_capacity(count);
            for c in 0..n {
                match self.u64()? {
                    0 => {}
                    sn => nonzero.push((c, SeqNum(sn))),
                }
            }
            nonzero
        };
        Ok(Ddv::from_nonzero(n, nonzero))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundaries_round_trip() {
        for v in [0u64, 127, 128, 16383, 16384, u64::MAX] {
            let mut buf = Vec::new();
            put_u64(&mut buf, v);
            let mut cur = Cursor::new(&buf);
            assert_eq!(cur.u64(), Ok(v));
            assert_eq!(cur.finish(), Ok(()));
            buf.push(0);
            let mut cur = Cursor::new(&buf);
            assert_eq!(cur.u64(), Ok(v));
            assert_eq!(cur.finish(), Err(Error::Trailing));
        }
    }

    #[test]
    fn overlong_and_cut_varints_are_errors() {
        assert_eq!(Cursor::new(&[0x80; 11]).u64(), Err(Error::Overflow));
        assert_eq!(Cursor::new(&[0x80; 9]).u64(), Err(Error::Truncated));
        assert_eq!(Cursor::new(&[]).u64(), Err(Error::Truncated));
    }

    #[test]
    fn lengths_and_counts_are_checked_against_the_remaining_bytes() {
        // A u64::MAX length over one byte: no `pos + len` to overflow.
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX);
        buf.push(7);
        assert_eq!(Cursor::new(&buf).bytes(), Err(Error::Truncated));
        // A count of 2^28 over nothing is refused before anything is sized.
        let mut cur = Cursor::new(&[0x80, 0x80, 0x80, 0x80, 0x01]);
        assert_eq!(cur.count(1), Err(Error::Truncated));
        // Three bytes back three 1-byte items, but not two 2-byte ones.
        assert_eq!(Cursor::new(&[3, 0, 0, 0]).count(1), Ok(3));
        assert_eq!(Cursor::new(&[2, 0, 0, 0]).count(2), Err(Error::Truncated));
    }

    #[test]
    fn ddv_run_and_general_decodes_agree() {
        for entries in [vec![], vec![0, 5, 127], vec![1, 128, 3], vec![u64::MAX]] {
            let ddv = Ddv::from_entries(entries.into_iter().map(SeqNum).collect());
            let mut buf = Vec::new();
            put_ddv(&mut buf, &ddv);
            buf.push(9);
            let mut cur = Cursor::new(&buf);
            assert_eq!(cur.ddv().as_ref(), Ok(&ddv));
            assert_eq!(cur.u8(), Ok(9), "cursor sits right after the stamp");
        }
        // The count is bounded like any other.
        assert_eq!(Cursor::new(&[4, 1, 2, 3]).ddv(), Err(Error::Truncated));
    }
}
