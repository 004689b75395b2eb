//! Phase-change workload generators: seed-deterministic traffic traces
//! that stress the adaptive loop end to end.
//!
//! Each generator returns a sequence of per-firing input sizes (rates).
//! Everything is driven by a splitmix-style LCG seeded by the caller, so a
//! trace is reproducible from `(shape parameters, seed)` alone — the drift
//! stress suite replays the same trace through a dynamic-rate region and a
//! manager-free oracle and compares outputs bit for bit.
//!
//! Three phase-change shapes:
//!
//! * [`diurnal`] — a smooth log-space ramp up and back down per period,
//!   like a day/night load curve, with multiplicative jitter;
//! * [`bursty`] — a steady base regime interrupted by deterministic
//!   bursts of heavy sizes;
//! * [`regime_flip`] — abrupt switches between size regimes every `dwell`
//!   firings, the adversarial case for a plan tuned to one window of rates.

/// The repo-wide 64-bit LCG (same constants as `data`), exposed as a
/// stateful generator for workload shaping.
#[derive(Debug, Clone)]
pub struct Lcg(u64);

impl Lcg {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Lcg {
        Lcg(seed)
    }

    /// Next raw 64-bit state-derived value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() & ((1 << 31) - 1)) as f64 / (1u64 << 31) as f64
    }

    /// Uniform integer in `[lo, hi]` (inclusive).
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        let (lo, hi) = (lo.min(hi), lo.max(hi));
        lo + (self.next_u64() as i64).rem_euclid(hi - lo + 1)
    }

    /// Log-uniform integer in `[lo, hi]` (inclusive): sizes spread evenly
    /// across orders of magnitude, the natural distribution for input
    /// sizes.
    pub fn log_range(&mut self, lo: i64, hi: i64) -> i64 {
        let (lo, hi) = (lo.min(hi).max(1), lo.max(hi).max(1));
        let (llo, lhi) = ((lo as f64).ln(), (hi as f64).ln());
        let v = (llo + (lhi - llo) * self.next_f64()).exp().round() as i64;
        v.clamp(lo, hi)
    }
}

/// A diurnal ramp: sizes sweep smoothly from `lo` up to `hi` and back over
/// each `period` firings (cosine in log space), with `±jitter`
/// multiplicative noise. `firings` sizes total; deterministic in `seed`.
pub fn diurnal(
    firings: usize,
    lo: i64,
    hi: i64,
    period: usize,
    jitter: f64,
    seed: u64,
) -> Vec<i64> {
    let (lo, hi) = (lo.min(hi).max(1), lo.max(hi).max(1));
    let period = period.max(2);
    let (llo, lhi) = ((lo as f64).ln(), (hi as f64).ln());
    let mut rng = Lcg::new(seed);
    (0..firings)
        .map(|t| {
            let phase = (t % period) as f64 / period as f64;
            let level = 0.5 - 0.5 * (2.0 * std::f64::consts::PI * phase).cos();
            let base = (llo + (lhi - llo) * level).exp();
            let j = 1.0 + jitter * (2.0 * rng.next_f64() - 1.0);
            ((base * j).round() as i64).clamp(lo, hi)
        })
        .collect()
}

/// A bursty mix: sizes sit in the `base` regime, except that every
/// `burst_every` firings a burst of `burst_len` firings draws from the
/// `burst` regime. Regimes are inclusive `(lo, hi)` ranges sampled
/// log-uniformly; deterministic in `seed`.
pub fn bursty(
    firings: usize,
    base: (i64, i64),
    burst: (i64, i64),
    burst_every: usize,
    burst_len: usize,
    seed: u64,
) -> Vec<i64> {
    let burst_every = burst_every.max(1);
    let mut rng = Lcg::new(seed);
    (0..firings)
        .map(|t| {
            let in_burst = t % burst_every < burst_len.min(burst_every);
            let (lo, hi) = if in_burst { burst } else { base };
            rng.log_range(lo, hi)
        })
        .collect()
}

/// A regime-flip mix: traffic dwells in one size regime for `dwell`
/// firings, then abruptly flips to the next (round-robin over `regimes`).
/// Sizes are log-uniform within the active regime; deterministic in
/// `seed`. This is the adversarial trace for a plan tuned to one window
/// of rates — every flip leaves the window at once.
pub fn regime_flip(firings: usize, regimes: &[(i64, i64)], dwell: usize, seed: u64) -> Vec<i64> {
    assert!(!regimes.is_empty(), "regime_flip needs at least one regime");
    let dwell = dwell.max(1);
    let mut rng = Lcg::new(seed);
    (0..firings)
        .map(|t| {
            let (lo, hi) = regimes[(t / dwell) % regimes.len()];
            rng.log_range(lo, hi)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_seed_deterministic() {
        assert_eq!(
            diurnal(64, 256, 65536, 16, 0.1, 7),
            diurnal(64, 256, 65536, 16, 0.1, 7)
        );
        assert_eq!(
            bursty(64, (256, 1024), (32768, 65536), 16, 4, 7),
            bursty(64, (256, 1024), (32768, 65536), 16, 4, 7)
        );
        assert_eq!(
            regime_flip(64, &[(256, 1024), (32768, 65536)], 8, 7),
            regime_flip(64, &[(256, 1024), (32768, 65536)], 8, 7)
        );
        // Different seeds change the jittered/sampled values.
        assert_ne!(
            bursty(64, (256, 1024), (32768, 65536), 16, 4, 7),
            bursty(64, (256, 1024), (32768, 65536), 16, 4, 8)
        );
    }

    #[test]
    fn diurnal_ramps_within_bounds_and_peaks_mid_period() {
        let trace = diurnal(32, 256, 65536, 32, 0.0, 1);
        assert!(trace.iter().all(|&x| (256..=65536).contains(&x)));
        // Zero jitter: the mid-period firing is the peak of the ramp.
        let peak = trace[16];
        assert!(trace.iter().all(|&x| x <= peak));
        assert!(trace[0] < peak / 8, "period starts near the trough");
    }

    #[test]
    fn bursty_separates_base_and_burst() {
        let trace = bursty(64, (256, 512), (32768, 65536), 16, 4, 3);
        for (t, &x) in trace.iter().enumerate() {
            if t % 16 < 4 {
                assert!((32768..=65536).contains(&x), "firing {t} in burst: {x}");
            } else {
                assert!((256..=512).contains(&x), "firing {t} in base: {x}");
            }
        }
    }

    #[test]
    fn regime_flip_dwells_then_switches() {
        let regimes = [(256i64, 1024i64), (32768, 65536)];
        let trace = regime_flip(40, &regimes, 10, 9);
        for (t, &x) in trace.iter().enumerate() {
            let (lo, hi) = regimes[(t / 10) % 2];
            assert!((lo..=hi).contains(&x), "firing {t} outside regime: {x}");
        }
    }

    #[test]
    fn log_range_is_bounded_and_covers_decades() {
        let mut rng = Lcg::new(5);
        let mut small = 0usize;
        for _ in 0..512 {
            let v = rng.log_range(16, 1 << 16);
            assert!((16..=(1 << 16)).contains(&v));
            if v < 1 << 10 {
                small += 1;
            }
        }
        // Log-uniform: roughly half the samples fall below the geometric
        // midpoint (2^10 of [2^4, 2^16]); a uniform sampler would put
        // ~1.5% there.
        assert!(small > 128, "only {small}/512 below the geometric mid");
    }
}
