//! The benchmark's own input generators.
//!
//! Copied from `adaptic_bench::workloads` rather than imported, so a
//! later edit there cannot change a workload of this benchmark. Every
//! generator is a pure function of its arguments and the seed.

/// 64-bit LCG (Knuth's MMIX constants), high bits out.
#[derive(Debug, Clone)]
pub struct Lcg(u64);

impl Lcg {
    pub fn new(seed: u64) -> Lcg {
        // One scramble step so small consecutive seeds diverge at once.
        let mut g = Lcg(seed ^ 0x9e37_79b9_7f4a_7c15);
        g.next_u64();
        g
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        self.next_u64() as f64 / (1u64 << 31) as f64
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Log-uniform integer in `[lo, hi]`.
    pub fn log_range(&mut self, lo: i64, hi: i64) -> i64 {
        let (lo, hi) = (lo.min(hi).max(1), lo.max(hi).max(1));
        let (llo, lhi) = ((lo as f64).ln(), (hi as f64).ln());
        let v = (llo + (lhi - llo) * self.next_f64()).exp().round() as i64;
        v.clamp(lo, hi)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// `n` values in `[-1, 1)`.
pub fn data(n: usize, seed: u64) -> Vec<f32> {
    let mut g = Lcg::new(seed);
    (0..n)
        .map(|_| (g.next_u64() as f32 / (1u64 << 31) as f32) * 2.0 - 1.0)
        .collect()
}

/// `n` log-spaced sizes from `lo` to `hi`, each moved by up to `±jitter`
/// of itself. The grid fixes the shape of a workload; the jitter makes the
/// inputs (and the simulated time they cost) a function of the seed.
pub fn jittered_grid(lo: f64, hi: f64, n: usize, jitter: f64, g: &mut Lcg) -> Vec<i64> {
    (0..n)
        .map(|i| {
            let t = if n > 1 {
                i as f64 / (n - 1) as f64
            } else {
                0.0
            };
            let base = lo * (hi / lo).powf(t);
            (base * (1.0 + jitter * (2.0 * g.next_f64() - 1.0))).round() as i64
        })
        .collect()
}

/// Sizes that ramp from `lo` up to `hi` and back every `period` firings
/// (cosine in log space) with `±jitter` multiplicative noise.
pub fn diurnal(
    firings: usize,
    lo: i64,
    hi: i64,
    period: usize,
    jitter: f64,
    seed: u64,
) -> Vec<i64> {
    let (llo, lhi) = ((lo as f64).ln(), (hi as f64).ln());
    let mut g = Lcg::new(seed);
    (0..firings)
        .map(|t| {
            let phase = (t % period) as f64 / period as f64;
            let level = 0.5 - 0.5 * (2.0 * std::f64::consts::PI * phase).cos();
            let base = (llo + (lhi - llo) * level).exp();
            let j = 1.0 + jitter * (2.0 * g.next_f64() - 1.0);
            ((base * j).round() as i64).clamp(lo, hi)
        })
        .collect()
}

/// Sizes from the `base` regime, except that every `burst_every` firings
/// `burst_len` of them come from the `burst` regime.
pub fn bursty(
    firings: usize,
    base: (i64, i64),
    burst: (i64, i64),
    burst_every: usize,
    burst_len: usize,
    seed: u64,
) -> Vec<i64> {
    let mut g = Lcg::new(seed);
    (0..firings)
        .map(|t| {
            let (lo, hi) = if t % burst_every < burst_len {
                burst
            } else {
                base
            };
            g.log_range(lo, hi)
        })
        .collect()
}

/// Sizes that dwell in one regime for `dwell` firings, then flip to the
/// next, round-robin.
pub fn regime_flip(firings: usize, regimes: &[(i64, i64)], dwell: usize, seed: u64) -> Vec<i64> {
    let mut g = Lcg::new(seed);
    (0..firings)
        .map(|t| {
            let (lo, hi) = regimes[(t / dwell) % regimes.len()];
            g.log_range(lo, hi)
        })
        .collect()
}

/// Seeds used to draw the fixed ladders traces are matched onto.
pub const LADDER_SEED: u64 = 0x001a_dde4;

/// The values of `ladder` in the order of `trace`: the smallest value of
/// the trace becomes the smallest of the ladder, and so on, each then
/// moved by up to `±jitter` of itself. A seeded trace keeps its shape in
/// time (its bursts, ramps and flips) while every seed offers the same
/// volume of work: seeds change the order and the detail of a workload,
/// never how heavy it is.
pub fn rank_match(trace: &[i64], ladder: &[i64], jitter: f64, g: &mut Lcg) -> Vec<i64> {
    assert_eq!(
        trace.len(),
        ladder.len(),
        "ladder and trace differ in length"
    );
    let mut sorted = ladder.to_vec();
    sorted.sort_unstable();
    let mut by_value: Vec<usize> = (0..trace.len()).collect();
    by_value.sort_by_key(|&i| (trace[i], i));
    let mut out = vec![0; trace.len()];
    for (rank, &i) in by_value.iter().enumerate() {
        let j = 1.0 + jitter * (2.0 * g.next_f64() - 1.0);
        out[i] = ((sorted[rank] as f64 * j).round() as i64).max(1);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(data(64, 3), data(64, 3));
        assert_ne!(data(64, 3), data(64, 4));
        assert_eq!(
            regime_flip(40, &[(64, 128), (4096, 8192)], 8, 5),
            regime_flip(40, &[(64, 128), (4096, 8192)], 8, 5)
        );
        assert!(data(256, 1).iter().all(|v| (-1.0..1.0).contains(v)));
    }

    #[test]
    fn shapes_hold() {
        for (t, &x) in bursty(64, (256, 512), (4096, 8192), 16, 4, 3)
            .iter()
            .enumerate()
        {
            let want = if t % 16 < 4 { 4096..=8192 } else { 256..=512 };
            assert!(want.contains(&x), "firing {t}: {x}");
        }
        let ramp = diurnal(32, 256, 65536, 32, 0.0, 1);
        assert!(ramp.iter().all(|&x| x <= ramp[16]) && ramp[0] < ramp[16] / 8);
        let matched = rank_match(&[50, 10, 30, 10], &[1, 2, 3, 4], 0.0, &mut Lcg::new(1));
        assert_eq!(matched, vec![4, 1, 3, 2]);
        let grid = jittered_grid(1024.0, 131072.0, 8, 0.1, &mut Lcg::new(9));
        assert_eq!(grid.len(), 8);
        assert!((922..=1127).contains(&grid[0]) && grid[7] > 100_000);
    }
}
