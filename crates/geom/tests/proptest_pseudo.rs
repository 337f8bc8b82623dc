//! Property tests of the flat gap tracker's incremental state: agreement
//! with an ordered-set reference after every insertion, and verdicts that
//! do not depend on the insertion order, over direction vectors biased
//! toward exact axis rays, exact diagonals and collinear ties.
//!
//! The file keeps its historical name: it once also held the properties of
//! a trig-free pseudo-angle kernel, since removed in favour of the flat
//! tracker.

use std::collections::BTreeSet;
use std::f64::consts::TAU;

use cbtc_geom::gap::{has_alpha_gap, max_gap, FlatGapTracker};
use cbtc_geom::{Alpha, Angle, Vec2};
use proptest::prelude::*;

/// Non-zero direction vectors, biased toward the cases that break naive
/// angular code: exact axis rays, exact diagonals, and on-axis vectors
/// of random magnitude appear alongside generic components.
fn direction() -> impl Strategy<Value = Vec2> {
    (0u8..12, -100.0f64..100.0, -100.0f64..100.0).prop_map(|(sel, x, y)| {
        let v = match sel {
            0 => Vec2::new(1.0, 0.0),
            1 => Vec2::new(0.0, 1.0),
            2 => Vec2::new(-1.0, 0.0),
            3 => Vec2::new(0.0, -1.0),
            4 => Vec2::new(1.0, 1.0),
            5 => Vec2::new(-1.0, 1.0),
            6 => Vec2::new(-1.0, -1.0),
            7 => Vec2::new(1.0, -1.0),
            8 => Vec2::new(x, 0.0),
            9 => Vec2::new(0.0, y),
            _ => Vec2::new(x, y),
        };
        if v.x == 0.0 && v.y == 0.0 {
            Vec2::new(1.0, 0.0)
        } else {
            v
        }
    })
}

fn directions(max_len: usize) -> impl Strategy<Value = Vec<Vec2>> {
    proptest::collection::vec(direction(), 0..max_len)
}

fn alphas() -> impl Strategy<Value = Alpha> {
    (0u8..5, 0.05f64..TAU).prop_map(|(sel, a)| match sel {
        0 => Alpha::TWO_PI_THIRDS,
        1 => Alpha::FIVE_PI_SIXTHS,
        _ => Alpha::new(a).unwrap(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// After every insertion the flat tracker holds exactly the distinct
    /// directions of a `BTreeSet` of direction bits, and the batch scan
    /// over that set reproduces its max gap and α-gap verdict bit-for-bit.
    #[test]
    fn flat_tracker_bit_identical_to_btree_tracker(
        raw in proptest::collection::vec(0.0f64..TAU, 0..32),
        alpha in alphas(),
    ) {
        let mut flat = FlatGapTracker::new(alpha);
        let mut tree = BTreeSet::new();
        for r in raw {
            let dir = Angle::new(r);
            flat.insert(dir);
            tree.insert(dir.radians().to_bits());
            let set: Vec<Angle> = tree.iter().map(|&b| Angle::new(f64::from_bits(b))).collect();
            prop_assert_eq!(flat.len(), tree.len());
            prop_assert_eq!(flat.max_gap().to_bits(), max_gap(&set).to_bits());
            prop_assert_eq!(flat.has_open_gap(), has_alpha_gap(&set, alpha));
        }
    }

    /// Inserting the same directions forwards and backwards leaves the
    /// tracker in the same state: count, max gap and verdict.
    #[test]
    fn tracker_verdicts_are_order_independent(dirs in directions(12), alpha in alphas()) {
        let mut forward = FlatGapTracker::new(alpha);
        let mut backward = FlatGapTracker::new(alpha);
        for v in &dirs {
            forward.insert(v.angle());
        }
        for v in dirs.iter().rev() {
            backward.insert(v.angle());
        }
        prop_assert_eq!(forward.len(), backward.len());
        prop_assert_eq!(forward.max_gap().to_bits(), backward.max_gap().to_bits());
        prop_assert_eq!(forward.has_open_gap(), backward.has_open_gap());
    }
}
