//! Sparse per-origin epoch floors.
//!
//! An engine remembers, per origin cluster, the highest rollback epoch it
//! has seen from there (ghost rejection, alert dedup). Epochs start at 0
//! and only move when a cluster rolls back, so in a fault-free run every
//! floor is 0 and in a faulty one only the origins that ever rolled back
//! are not. [`EpochFloors`] stores exactly those: an engine's share of the
//! federation's width is zero bytes until a fault touches it.

/// `origin → epoch` with absent = 0: `(origin, epoch)` pairs with a
/// non-zero epoch, sorted by origin and binary-searched.
#[derive(Debug)]
pub(crate) struct EpochFloors {
    /// Federation width; an origin at or beyond it is a caller bug and
    /// panics, as indexing the dense vector this replaces did.
    width: usize,
    floors: Vec<(usize, u64)>,
}

impl EpochFloors {
    /// All-zero floors for a federation of `width` clusters. Allocates
    /// nothing.
    pub(crate) fn new(width: usize) -> Self {
        EpochFloors {
            width,
            floors: Vec::new(),
        }
    }

    fn search(&self, origin: usize) -> Result<usize, usize> {
        assert!(
            origin < self.width,
            "origin cluster {origin} out of range (federation of {})",
            self.width
        );
        self.floors.binary_search_by_key(&origin, |&(o, _)| o)
    }

    /// The floor recorded for `origin` (0 when none was).
    #[inline]
    pub(crate) fn get(&self, origin: usize) -> u64 {
        match self.search(origin) {
            Ok(i) => self.floors[i].1,
            Err(_) => 0,
        }
    }

    /// Raise `origin`'s floor to at least `epoch` (a monotone max).
    pub(crate) fn raise(&mut self, origin: usize, epoch: u64) {
        match self.search(origin) {
            Ok(i) => self.floors[i].1 = self.floors[i].1.max(epoch),
            Err(i) if epoch > 0 => self.floors.insert(i, (origin, epoch)),
            Err(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn absent_is_zero_and_empty_allocates_nothing() {
        let f = EpochFloors::new(4096);
        assert_eq!(f.get(0), 0);
        assert_eq!(f.get(4095), 0);
        assert_eq!(f.floors.capacity(), 0);
    }

    #[test]
    fn raise_is_a_monotone_max() {
        let mut f = EpochFloors::new(8);
        f.raise(3, 5);
        assert_eq!(f.get(3), 5);
        f.raise(3, 2);
        assert_eq!(f.get(3), 5, "a lower epoch never lowers the floor");
        f.raise(3, 9);
        assert_eq!(f.get(3), 9);
        assert_eq!(f.get(2), 0, "neighbours untouched");
    }

    #[test]
    fn epoch_zero_inserts_nothing() {
        let mut f = EpochFloors::new(8);
        f.raise(1, 0);
        f.raise(7, 0);
        assert!(f.floors.is_empty());
        f.raise(1, 4);
        f.raise(1, 0);
        assert_eq!(f.floors, vec![(1, 4)]);
    }

    #[test]
    fn pairs_stay_sorted_by_origin() {
        let mut f = EpochFloors::new(300);
        for origin in [299, 0, 150, 7, 298] {
            f.raise(origin, origin as u64 + 1);
        }
        assert_eq!(
            f.floors,
            vec![(0, 1), (7, 8), (150, 151), (298, 299), (299, 300)]
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_rejects_out_of_range_origin() {
        EpochFloors::new(4).get(4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn raise_rejects_out_of_range_origin() {
        EpochFloors::new(4).raise(9, 1);
    }

    proptest! {
        /// The sparse floors answer every `get` as the dense `Vec<u64>`
        /// they replace would, over any `get`/`raise` sequence.
        #[test]
        fn matches_the_dense_vector(
            width in 1usize..40,
            ops in proptest::collection::vec((any::<bool>(), 0usize..40, 0u64..6), 0..200),
        ) {
            let mut sparse = EpochFloors::new(width);
            let mut dense = vec![0u64; width];
            for (is_raise, origin, epoch) in ops {
                let origin = origin % width;
                if is_raise {
                    sparse.raise(origin, epoch);
                    dense[origin] = dense[origin].max(epoch);
                }
                prop_assert_eq!(sparse.get(origin), dense[origin]);
            }
            for (origin, &want) in dense.iter().enumerate() {
                prop_assert_eq!(sparse.get(origin), want);
            }
            prop_assert!(sparse.floors.windows(2).all(|w| w[0].0 < w[1].0));
            prop_assert!(sparse.floors.iter().all(|&(_, e)| e > 0));
        }
    }
}
