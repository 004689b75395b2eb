//! Buffer layouts and the memory-restructuring transform (§4.1.1).
//!
//! In the natural streaming layout ([`Layout::RowMajor`]), firing `f`'s
//! window occupies words `[f*pop, (f+1)*pop)`. When one GPU thread executes
//! one firing, lane-consecutive threads then access addresses `pop` words
//! apart — non-coalesced for any `pop > 1` (Figure 3a of the paper).
//!
//! *Memory restructuring* transposes the buffer ([`Layout::Transposed`]):
//! the j-th item of every firing is stored contiguously across firings, so
//! each pop instruction of a warp touches consecutive addresses
//! (Figure 3b). The host performs the transform at data-generation time,
//! so no kernel cycles are spent on it; the kernels merely compute
//! different addresses.

/// How a stream buffer is laid out in device memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layout {
    /// Firing-major: firing `f`, item `j` at `f*rate + j`.
    RowMajor,
    /// Item-major (restructured): firing `f`, item `j` at `j*firings + f`.
    Transposed,
}

impl Layout {
    /// Device address of item `j` in firing `f`'s window.
    #[inline]
    pub fn addr(self, firing: usize, j: usize, rate: usize, firings: usize) -> usize {
        match self {
            Layout::RowMajor => firing * rate + j,
            Layout::Transposed => j * firings + firing,
        }
    }

    /// The `(per firing, per item)` address steps of the layout:
    /// [`Layout::addr`] is `firing * per_firing + j * per_item`.
    #[inline]
    pub(crate) fn strides(self, rate: usize, firings: usize) -> (usize, usize) {
        match self {
            Layout::RowMajor => (rate, 1),
            Layout::Transposed => (1, firings),
        }
    }

    /// Transactions per warp memory instruction when `warp_size`
    /// lane-consecutive threads each access item `j` of consecutive
    /// firings (the closed-form the compiler uses before running anything).
    pub fn transactions_per_access(self, rate: usize, warp_size: u32) -> f64 {
        match self {
            // Stride = rate: lanes span `rate * warp_size` words; each
            // transaction covers `warp_size` words.
            Layout::RowMajor => (rate as f64).min(warp_size as f64).max(1.0),
            Layout::Transposed => 1.0,
        }
    }
}

/// Restructure a row-major stream buffer into the transposed layout.
///
/// `rate` is the per-firing window size; `data.len()` must be a multiple
/// of it.
///
/// # Panics
///
/// Panics if `data.len()` is not a multiple of `rate` or `rate` is zero.
pub fn restructure(data: &[f32], rate: usize) -> Vec<f32> {
    assert!(rate > 0, "rate must be positive");
    assert_eq!(
        data.len() % rate,
        0,
        "buffer length {} not a multiple of rate {rate}",
        data.len()
    );
    let firings = data.len() / rate;
    let mut out = vec![0.0; data.len()];
    for f in 0..firings {
        for j in 0..rate {
            out[j * firings + f] = data[f * rate + j];
        }
    }
    out
}

/// Invert [`restructure`].
///
/// # Panics
///
/// Panics under the same conditions as [`restructure`].
pub fn unrestructure(data: &[f32], rate: usize) -> Vec<f32> {
    assert!(rate > 0, "rate must be positive");
    assert_eq!(
        data.len() % rate,
        0,
        "buffer length {} not a multiple of rate {rate}",
        data.len()
    );
    let firings = data.len() / rate;
    let mut out = vec![0.0; data.len()];
    for f in 0..firings {
        for j in 0..rate {
            out[f * rate + j] = data[j * firings + f];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_major_addressing() {
        assert_eq!(Layout::RowMajor.addr(2, 1, 4, 10), 9);
        assert_eq!(Layout::Transposed.addr(2, 1, 4, 10), 12);
    }

    #[test]
    fn restructure_round_trips() {
        let data: Vec<f32> = (0..24).map(|i| i as f32).collect();
        for rate in [1, 2, 3, 4, 6, 8, 12, 24] {
            let t = restructure(&data, rate);
            assert_eq!(unrestructure(&t, rate), data, "rate {rate}");
        }
    }

    #[test]
    fn restructure_matches_addressing() {
        let rate = 3;
        let firings = 4;
        let data: Vec<f32> = (0..rate * firings).map(|i| i as f32).collect();
        let t = restructure(&data, rate);
        for f in 0..firings {
            for j in 0..rate {
                assert_eq!(
                    t[Layout::Transposed.addr(f, j, rate, firings)],
                    data[Layout::RowMajor.addr(f, j, rate, firings)]
                );
            }
        }
    }

    #[test]
    fn transaction_estimates() {
        assert_eq!(Layout::RowMajor.transactions_per_access(1, 32), 1.0);
        assert_eq!(Layout::RowMajor.transactions_per_access(4, 32), 4.0);
        assert_eq!(Layout::RowMajor.transactions_per_access(64, 32), 32.0);
        assert_eq!(Layout::Transposed.transactions_per_access(64, 32), 1.0);
    }

    #[test]
    fn rate_one_is_identity() {
        let data = vec![1.0, 2.0, 3.0];
        assert_eq!(restructure(&data, 1), data);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn misaligned_buffer_panics() {
        let _ = restructure(&[1.0, 2.0, 3.0], 2);
    }
}
