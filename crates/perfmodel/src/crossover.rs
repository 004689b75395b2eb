//! Break-even analysis between kernel variants.
//!
//! Adaptic estimates the execution time of a kernel *before and after*
//! applying each optimization as a function of input dimensions; the
//! performance break-even points determine the dimensions at which the
//! optimization is enabled or disabled (§3 of the paper). This module
//! partitions an input range into per-variant subranges at those points.

/// A subrange `[lo, hi]` of the input space assigned to variant `variant`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeAssignment {
    pub lo: i64,
    pub hi: i64,
    /// Index of the winning variant in the candidate list.
    pub variant: usize,
}

/// Partition `[lo, hi]` among `variants`, assigning each point to the
/// cheapest cost function. The boundaries are located with geometric
/// probing plus binary-search refinement, so the cost functions are
/// evaluated O(V² log hi) times rather than at every point.
///
/// The planner does not call this: it places variant boundaries with its
/// own search in `adaptic::plan`. The repository benchmark's
/// `perfmodel.partition_us` probe is the only caller outside tests.
///
/// # Panics
///
/// Panics when `variants` is empty or the range is empty.
pub fn partition_range(
    lo: i64,
    hi: i64,
    variants: &mut [Box<dyn FnMut(i64) -> f64 + '_>],
) -> Vec<RangeAssignment> {
    assert!(!variants.is_empty(), "no variants to choose from");
    assert!(lo <= hi, "empty range");

    let best_at = |variants: &mut [Box<dyn FnMut(i64) -> f64 + '_>], x: i64| -> usize {
        let mut best = 0;
        let mut best_cost = f64::INFINITY;
        for (i, v) in variants.iter_mut().enumerate() {
            let c = v(x);
            if c < best_cost {
                best_cost = c;
                best = i;
            }
        }
        best
    };

    let mut out: Vec<RangeAssignment> = Vec::new();
    let mut cur_lo = lo;
    let mut cur_best = best_at(variants, lo);
    let mut x = lo;
    while x < hi {
        // Geometric probing to find where the winner changes.
        let mut step = 1i64;
        let mut next = x;
        let mut changed_at: Option<i64> = None;
        loop {
            let probe = (x + step).min(hi);
            let b = best_at(variants, probe);
            if b != cur_best {
                changed_at = Some(probe);
                break;
            }
            next = probe;
            if probe == hi {
                break;
            }
            step *= 2;
        }
        match changed_at {
            None => {
                x = hi;
            }
            Some(probe) => {
                // Binary search in (next, probe] for the first change.
                let (mut a, mut b) = (next, probe);
                while b - a > 1 {
                    let mid = a + (b - a) / 2;
                    if best_at(variants, mid) == cur_best {
                        a = mid;
                    } else {
                        b = mid;
                    }
                }
                out.push(RangeAssignment {
                    lo: cur_lo,
                    hi: b - 1,
                    variant: cur_best,
                });
                cur_lo = b;
                cur_best = best_at(variants, b);
                x = b;
            }
        }
    }
    out.push(RangeAssignment {
        lo: cur_lo,
        hi,
        variant: cur_best,
    });
    out
}

/// Check that assignments exactly tile `[lo, hi]` without gaps or overlap
/// (used by tests and by the compiler's internal assertions).
pub fn tiles_exactly(lo: i64, hi: i64, ranges: &[RangeAssignment]) -> bool {
    if ranges.is_empty() {
        return false;
    }
    if ranges[0].lo != lo || ranges[ranges.len() - 1].hi != hi {
        return false;
    }
    ranges.windows(2).all(|w| w[0].hi + 1 == w[1].lo) && ranges.iter().all(|r| r.lo <= r.hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_two_variants() {
        let mut variants: Vec<Box<dyn FnMut(i64) -> f64>> =
            vec![Box::new(|x| 100.0 + x as f64), Box::new(|x| 2.0 * x as f64)];
        let ranges = partition_range(1, 10_000, &mut variants);
        assert!(tiles_exactly(1, 10_000, &ranges));
        assert_eq!(ranges.len(), 2);
        assert_eq!(ranges[0].variant, 1); // 2x cheaper for small x
        assert_eq!(ranges[1].variant, 0);
        // 2x is strictly cheaper than 100+x up to x=99; ties go to variant 0.
        assert_eq!(ranges[0].hi, 99);
    }

    #[test]
    fn partition_three_variants() {
        // v0 wins small, v1 middle, v2 large.
        let mut variants: Vec<Box<dyn FnMut(i64) -> f64>> = vec![
            Box::new(|x| x as f64),
            Box::new(|x| 50.0 + 0.5 * x as f64),
            Box::new(|x| 400.0 + 0.1 * x as f64),
        ];
        let ranges = partition_range(1, 100_000, &mut variants);
        assert!(tiles_exactly(1, 100_000, &ranges));
        let variants_seen: Vec<usize> = ranges.iter().map(|r| r.variant).collect();
        assert_eq!(variants_seen, vec![0, 1, 2]);
    }

    #[test]
    fn single_variant_whole_range() {
        let mut variants: Vec<Box<dyn FnMut(i64) -> f64>> = vec![Box::new(|_| 1.0)];
        let ranges = partition_range(5, 10, &mut variants);
        assert_eq!(
            ranges,
            vec![RangeAssignment {
                lo: 5,
                hi: 10,
                variant: 0
            }]
        );
    }

    #[test]
    fn degenerate_single_point_range() {
        let mut variants: Vec<Box<dyn FnMut(i64) -> f64>> =
            vec![Box::new(|_| 2.0), Box::new(|_| 1.0)];
        let ranges = partition_range(7, 7, &mut variants);
        assert!(tiles_exactly(7, 7, &ranges));
        assert_eq!(ranges[0].variant, 1);
    }

    #[test]
    fn tiles_exactly_detects_gaps_and_overlap() {
        let ok = vec![
            RangeAssignment {
                lo: 1,
                hi: 5,
                variant: 0,
            },
            RangeAssignment {
                lo: 6,
                hi: 9,
                variant: 1,
            },
        ];
        assert!(tiles_exactly(1, 9, &ok));
        let gap = vec![
            RangeAssignment {
                lo: 1,
                hi: 4,
                variant: 0,
            },
            RangeAssignment {
                lo: 6,
                hi: 9,
                variant: 1,
            },
        ];
        assert!(!tiles_exactly(1, 9, &gap));
        let overlap = vec![
            RangeAssignment {
                lo: 1,
                hi: 6,
                variant: 0,
            },
            RangeAssignment {
                lo: 6,
                hi: 9,
                variant: 1,
            },
        ];
        assert!(!tiles_exactly(1, 9, &overlap));
        assert!(!tiles_exactly(1, 9, &[]));
    }
}
