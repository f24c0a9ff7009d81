//! Sequence numbers and Direct Dependency Vectors (DDV).
//!
//! Every cluster maintains a **sequence number (SN)** incremented at each
//! committed cluster-level checkpoint (CLC), and a **DDV** with one entry
//! per *cluster* of the federation (paper §3.2):
//!
//! * `DDV[self] = SN` of the own cluster,
//! * `DDV[other] =` last SN received from `other` (0 if none).
//!
//! DDV entries are monotone over a cluster's CLC sequence, which is what
//! makes the rollback rule ("oldest CLC whose entry for the faulty cluster
//! is >= the alert SN") a simple scan.
//!
//! A [`Ddv`] is stored **sparse**: its width and the `(cluster, SN)` pairs
//! of its non-zero entries. An entry records a *direct* dependency, and in
//! a federation built on the hierarchy a cluster talks to few others, so a
//! stamp is almost all zeros — a ring of 128 clusters commits stamps with
//! two non-zero entries, which a dense vector kept as 1 KiB each, and
//! every CLC of every node carries one. A zero is never stored, so the
//! stored form is canonical and the derived `Eq` and `Hash` are content
//! equality. [`Ddv::iter`], `Display` and `Debug` still show every entry,
//! zeros included, so the segment format, the wire sizes and the
//! fingerprints read the same as the dense form's.

use std::fmt;

/// A cluster-level checkpoint sequence number.
///
/// `SeqNum(0)` means "before any checkpoint" / "never heard from"; the
/// initial CLC taken at application start commits as `SeqNum(1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SeqNum(pub u64);

impl SeqNum {
    /// The zero sequence number (no checkpoint committed / never heard).
    pub const ZERO: SeqNum = SeqNum(0);

    /// The successor sequence number.
    #[inline]
    pub fn next(self) -> SeqNum {
        SeqNum(self.0 + 1)
    }

    /// Raw value.
    #[inline]
    pub fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for SeqNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A Direct Dependency Vector: one [`SeqNum`] per cluster of the federation,
/// stored as its non-zero entries (see the module documentation).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Ddv {
    width: usize,
    /// Strictly increasing clusters below `width`, no zero SN.
    nonzero: Vec<(usize, SeqNum)>,
}

impl Ddv {
    /// All-zero DDV for a federation of `n` clusters. Allocates nothing.
    pub fn zeros(n: usize) -> Self {
        Ddv {
            width: n,
            nonzero: Vec::new(),
        }
    }

    /// Build from explicit entries.
    pub fn from_entries(entries: Vec<SeqNum>) -> Self {
        let width = entries.len();
        let nonzero = entries.into_iter().enumerate();
        let nonzero = nonzero.filter(|&(_, sn)| sn != SeqNum::ZERO).collect();
        Ddv::from_nonzero(width, nonzero)
    }

    /// Build from a width and the non-zero entries in strictly increasing
    /// cluster order, below `width` — what the segment decoder reads.
    pub(crate) fn from_nonzero(width: usize, nonzero: Vec<(usize, SeqNum)>) -> Self {
        debug_assert!(nonzero.windows(2).all(|w| w[0].0 < w[1].0));
        debug_assert!(nonzero
            .iter()
            .all(|&(c, sn)| c < width && sn != SeqNum::ZERO));
        Ddv { width, nonzero }
    }

    /// Number of clusters this DDV covers.
    pub fn len(&self) -> usize {
        self.width
    }

    /// True for a zero-cluster DDV (degenerate).
    pub fn is_empty(&self) -> bool {
        self.width == 0
    }

    /// Where cluster `i`'s entry is stored, or would be inserted.
    #[inline]
    fn find(&self, i: usize) -> Result<usize, usize> {
        assert!(i < self.width, "DDV index {i} out of {}", self.width);
        self.nonzero.binary_search_by_key(&i, |&(c, _)| c)
    }

    /// Entry for cluster `i`.
    #[inline]
    pub fn get(&self, i: usize) -> SeqNum {
        match self.find(i) {
            Ok(at) => self.nonzero[at].1,
            Err(_) => SeqNum::ZERO,
        }
    }

    /// Set entry for cluster `i`.
    #[inline]
    pub fn set(&mut self, i: usize, sn: SeqNum) {
        match (self.find(i), sn == SeqNum::ZERO) {
            (Ok(at), false) => self.nonzero[at].1 = sn,
            (Ok(at), true) => {
                self.nonzero.remove(at);
            }
            (Err(at), false) => self.nonzero.insert(at, (i, sn)),
            (Err(_), true) => {}
        }
    }

    /// Raise entry `i` to at least `sn`; returns `true` if it changed.
    pub fn raise(&mut self, i: usize, sn: SeqNum) -> bool {
        let raised = sn > self.get(i);
        if raised {
            self.set(i, sn);
        }
        raised
    }

    /// Component-wise max merge (the FullDdv transitive variant, paper §7).
    /// Returns `true` if any entry increased.
    pub fn merge_max(&mut self, other: &Ddv) -> bool {
        assert_eq!(self.width, other.width, "DDV dimension mismatch");
        let mut changed = false;
        for &(c, sn) in &other.nonzero {
            changed |= self.raise(c, sn);
        }
        changed
    }

    /// Component-wise `<=` (is every dependency of `self` covered by
    /// `other`?). Used by consistency checks.
    pub fn dominated_by(&self, other: &Ddv) -> bool {
        assert_eq!(self.width, other.width);
        let mut theirs = other.nonzero.iter().peekable();
        self.nonzero.iter().all(|&(c, sn)| {
            while theirs.next_if(|&&(t, _)| t < c).is_some() {}
            matches!(theirs.peek(), Some(&&(t, bound)) if t == c && sn <= bound)
        })
    }

    /// Iterate all [`len`](Ddv::len) entries in cluster order, zeros
    /// included.
    pub fn iter(&self) -> impl Iterator<Item = SeqNum> + '_ {
        let mut nonzero = self.nonzero.iter().peekable();
        (0..self.width).map(move |i| match nonzero.next_if(|&&(c, _)| c == i) {
            Some(&(_, sn)) => sn,
            None => SeqNum::ZERO,
        })
    }
}

/// The text the derived `Debug` of a dense `Ddv { entries: Vec<SeqNum> }`
/// printed, which fingerprints hash.
impl fmt::Debug for Ddv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Entries<'a>(&'a Ddv);
        impl fmt::Debug for Entries<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0.iter()).finish()
            }
        }
        f.debug_struct("Ddv")
            .field("entries", &Entries(self))
            .finish()
    }
}

impl fmt::Display for Ddv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, e) in self.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seqnum_next_and_display() {
        assert_eq!(SeqNum::ZERO.next(), SeqNum(1));
        assert_eq!(SeqNum(41).next().value(), 42);
        assert_eq!(SeqNum(7).to_string(), "7");
    }

    #[test]
    fn zeros_has_all_zero_entries() {
        let d = Ddv::zeros(3);
        assert_eq!(d.len(), 3);
        assert!(d.iter().all(|e| e == SeqNum::ZERO));
    }

    #[test]
    fn raise_only_increases() {
        let mut d = Ddv::zeros(2);
        assert!(d.raise(1, SeqNum(5)));
        assert!(!d.raise(1, SeqNum(5)), "equal value is not a raise");
        assert!(!d.raise(1, SeqNum(3)), "lower value is not a raise");
        assert_eq!(d.get(1), SeqNum(5));
        assert_eq!(d.get(0), SeqNum::ZERO);
    }

    #[test]
    fn merge_max_is_componentwise() {
        let mut a = Ddv::from_entries(vec![SeqNum(1), SeqNum(5), SeqNum(0)]);
        let b = Ddv::from_entries(vec![SeqNum(2), SeqNum(3), SeqNum(0)]);
        assert!(a.merge_max(&b));
        assert_eq!(a, Ddv::from_entries(vec![SeqNum(2), SeqNum(5), SeqNum(0)]));
        // Merging something already dominated changes nothing.
        assert!(!a.merge_max(&b));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn merge_rejects_dimension_mismatch() {
        let mut a = Ddv::zeros(2);
        a.merge_max(&Ddv::zeros(3));
    }

    #[test]
    fn dominated_by_is_a_partial_order() {
        let a = Ddv::from_entries(vec![SeqNum(1), SeqNum(2)]);
        let b = Ddv::from_entries(vec![SeqNum(2), SeqNum(2)]);
        let c = Ddv::from_entries(vec![SeqNum(0), SeqNum(9)]);
        assert!(a.dominated_by(&b));
        assert!(!b.dominated_by(&a));
        assert!(
            !a.dominated_by(&c) && !c.dominated_by(&a),
            "incomparable pair"
        );
        assert!(a.dominated_by(&a), "reflexive");
    }

    #[test]
    fn display_format() {
        let d = Ddv::from_entries(vec![SeqNum(1), SeqNum(0), SeqNum(3)]);
        assert_eq!(d.to_string(), "[1 0 3]");
    }
}
