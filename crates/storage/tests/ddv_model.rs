//! Model-based property test: the sparse [`Ddv`] behaves exactly like the
//! dense `Vec<SeqNum>` it replaced — under random sequences of
//! construction, `set` (to zero too), `raise` and `merge_max` — and shows
//! the dense form's text and bytes: `iter`, `Display`, `Debug` and the
//! `put_ddv` encoding list every entry, zeros included, and equal
//! contents compare and hash equal however they were built.

use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use storage::varint::{put_ddv, put_u64, Cursor};
use storage::{Ddv, SeqNum};

/// The dense stamp, with the derived `Debug` the sparse one reproduces.
mod dense {
    #[derive(Debug)]
    pub(crate) struct Ddv {
        pub(crate) entries: Vec<storage::SeqNum>,
    }
}

/// Sequence numbers: zero often, one-byte and multi-byte varints both.
fn sn_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        3 => Just(0u64),
        4 => 1u64..128,
        2 => 128u64..100_000,
        1 => (0u64..3).prop_map(|d| u64::MAX - d),
    ]
}

/// A few `(cluster, SN)` writes over an all-zero stamp.
fn sparse_strategy() -> impl Strategy<Value = Vec<(prop::sample::Index, u64)>> {
    prop::collection::vec((any::<prop::sample::Index>(), sn_strategy()), 0..8)
}

#[derive(Debug, Clone)]
enum Op {
    /// Replace the stamp with `Ddv::zeros`.
    Zeros,
    /// Replace the stamp with `Ddv::from_entries` of these writes.
    FromEntries(Vec<(prop::sample::Index, u64)>),
    /// Set one entry (zero included).
    Set(prop::sample::Index, u64),
    /// Raise one entry.
    Raise(prop::sample::Index, u64),
    /// Merge a stamp built from these writes.
    MergeMax(Vec<(prop::sample::Index, u64)>),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        1 => Just(Op::Zeros),
        2 => sparse_strategy().prop_map(Op::FromEntries),
        5 => (any::<prop::sample::Index>(), sn_strategy()).prop_map(|(i, sn)| Op::Set(i, sn)),
        4 => (any::<prop::sample::Index>(), sn_strategy()).prop_map(|(i, sn)| Op::Raise(i, sn)),
        3 => sparse_strategy().prop_map(Op::MergeMax),
    ]
}

fn dense_of(width: usize, writes: &[(prop::sample::Index, u64)]) -> Vec<SeqNum> {
    let mut entries = vec![SeqNum::ZERO; width];
    for (i, sn) in writes {
        entries[i.index(width)] = SeqNum(*sn);
    }
    entries
}

fn hash_of(ddv: &Ddv) -> u64 {
    let mut h = DefaultHasher::new();
    ddv.hash(&mut h);
    h.finish()
}

/// Everything observable about `ddv` against the dense `model`, and
/// `dominated_by` against `other` (dense `theirs`) both ways.
fn check(ddv: &Ddv, model: &[SeqNum], other: &Ddv, theirs: &[SeqNum]) -> Result<(), TestCaseError> {
    prop_assert_eq!(ddv.len(), model.len());
    prop_assert_eq!(ddv.is_empty(), model.is_empty());
    for (i, &sn) in model.iter().enumerate() {
        prop_assert_eq!(ddv.get(i), sn, "entry {}", i);
    }
    prop_assert_eq!(ddv.iter().collect::<Vec<_>>(), model);

    let rebuilt = Ddv::from_entries(model.to_vec());
    prop_assert_eq!(ddv, &rebuilt);
    prop_assert_eq!(hash_of(ddv), hash_of(&rebuilt));

    let shown = dense::Ddv {
        entries: model.to_vec(),
    };
    prop_assert_eq!(format!("{ddv:?}"), format!("{shown:?}"));
    prop_assert_eq!(format!("{ddv:#?}"), format!("{shown:#?}"));
    let words: Vec<String> = shown.entries.iter().map(|sn| sn.to_string()).collect();
    prop_assert_eq!(ddv.to_string(), format!("[{}]", words.join(" ")));

    let mut bytes = Vec::new();
    put_u64(&mut bytes, model.len() as u64);
    for sn in model {
        put_u64(&mut bytes, sn.0);
    }
    let mut written = Vec::new();
    put_ddv(&mut written, ddv);
    prop_assert_eq!(&written, &bytes);
    let mut cur = Cursor::new(&written);
    let read = cur.ddv().map_err(|e| TestCaseError::fail(e.to_string()))?;
    prop_assert_eq!(cur.finish(), Ok(()));
    prop_assert_eq!(&read, ddv);
    prop_assert_eq!(hash_of(&read), hash_of(ddv));
    let mut again = Vec::new();
    put_ddv(&mut again, &read);
    prop_assert_eq!(again, bytes);

    let covers = |a: &[SeqNum], b: &[SeqNum]| a.iter().zip(b).all(|(x, y)| x <= y);
    prop_assert_eq!(ddv.dominated_by(other), covers(model, theirs));
    prop_assert_eq!(other.dominated_by(ddv), covers(theirs, model));
    prop_assert!(ddv.dominated_by(ddv));
    Ok(())
}

fn run(width: usize, ops: Vec<(Op, Vec<(prop::sample::Index, u64)>)>) -> Result<(), TestCaseError> {
    let mut ddv = Ddv::zeros(width);
    let mut model = vec![SeqNum::ZERO; width];
    for (op, other) in ops {
        match op {
            Op::Zeros => {
                ddv = Ddv::zeros(width);
                model = vec![SeqNum::ZERO; width];
            }
            Op::FromEntries(writes) => {
                model = dense_of(width, &writes);
                ddv = Ddv::from_entries(model.clone());
            }
            Op::Set(i, sn) => {
                let i = i.index(width);
                ddv.set(i, SeqNum(sn));
                model[i] = SeqNum(sn);
            }
            Op::Raise(i, sn) => {
                let i = i.index(width);
                let raised = SeqNum(sn) > model[i];
                model[i] = model[i].max(SeqNum(sn));
                prop_assert_eq!(ddv.raise(i, SeqNum(sn)), raised);
            }
            Op::MergeMax(writes) => {
                let theirs = dense_of(width, &writes);
                let mut changed = false;
                for (mine, &t) in model.iter_mut().zip(&theirs) {
                    changed |= t > *mine;
                    *mine = (*mine).max(t);
                }
                prop_assert_eq!(ddv.merge_max(&Ddv::from_entries(theirs)), changed);
            }
        }
        // Compare against an unrelated stamp and against one above this.
        let theirs = dense_of(width, &other);
        check(&ddv, &model, &Ddv::from_entries(theirs.clone()), &theirs)?;
        let above: Vec<SeqNum> = model
            .iter()
            .zip(&theirs)
            .map(|(a, b)| (*a).max(*b))
            .collect();
        check(&ddv, &model, &Ddv::from_entries(above.clone()), &above)?;
    }
    Ok(())
}

fn ops_strategy() -> impl Strategy<Value = Vec<(Op, Vec<(prop::sample::Index, u64)>)>> {
    prop::collection::vec((op_strategy(), sparse_strategy()), 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn width_1_matches_the_dense_model(ops in ops_strategy()) {
        run(1, ops)?;
    }

    #[test]
    fn width_2_matches_the_dense_model(ops in ops_strategy()) {
        run(2, ops)?;
    }

    #[test]
    fn width_3_matches_the_dense_model(ops in ops_strategy()) {
        run(3, ops)?;
    }
}

proptest! {
    // Each step checks all 512 entries, text and bytes: fewer cases.
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn width_512_matches_the_dense_model(ops in ops_strategy()) {
        run(512, ops)?;
    }
}
