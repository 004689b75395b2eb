//! Shared helpers for baseline kernels.

use gpu_sim::{
    try_launch_pooled, DeviceSpec, ExecMode, ExecPolicy, GlobalMem, Kernel, KernelStats,
    LaunchControl, ScratchPool, StatsCache,
};
use perfmodel::estimate_stats;

/// Accumulated result of a multi-kernel baseline run.
#[derive(Debug, Clone, Default)]
pub struct TimedRun {
    /// Output values (meaning depends on the benchmark).
    pub output: Vec<f32>,
    /// Per-kernel statistics in launch order.
    pub kernels: Vec<KernelStats>,
    /// Estimated device time in microseconds (kernels + launch overheads).
    pub time_us: f64,
}

impl TimedRun {
    /// Total floating-point operations across kernels.
    pub fn flops(&self) -> f64 {
        self.kernels.iter().map(|k| k.totals.flops).sum()
    }

    /// Achieved GFLOPS under the estimated time.
    pub fn gflops(&self) -> f64 {
        if self.time_us > 0.0 {
            self.flops() / (self.time_us * 1e3)
        } else {
            0.0
        }
    }
}

/// Launch a kernel serially and fold its stats/time into `run`.
pub(crate) fn launch_timed(
    device: &DeviceSpec,
    mem: &mut GlobalMem,
    kernel: &(dyn Kernel + Sync),
    mode: ExecMode,
    run: &mut TimedRun,
) {
    launch_timed_opts(device, mem, kernel, mode, ExecPolicy::Serial, None, run);
}

/// Launch a kernel under an explicit engine policy, optionally through a
/// launch-stats memoization cache, and fold its stats/time into `run`.
///
/// On a cache hit the kernel is *not* executed — `mem` keeps its prior
/// contents and only the memoized statistics/time accumulate, so a cache
/// belongs in timing-only sweeps (the benchmarks' `SampledExec` passes),
/// never in correctness checks. `dims` is the caller's input-shape
/// fingerprint for the cache key (e.g. `(rows, cols)`).
pub(crate) fn launch_timed_opts(
    device: &DeviceSpec,
    mem: &mut GlobalMem,
    kernel: &(dyn Kernel + Sync),
    mode: ExecMode,
    policy: ExecPolicy,
    cache: Option<(&dyn StatsCache, (u64, u64))>,
    run: &mut TimedRun,
) {
    let (pool, ctl) = (ScratchPool::new(), LaunchControl::default());
    let stats = match cache {
        Some((cache, dims)) => cache
            .launch_cached(device, mem, kernel, mode, policy, dims, &pool, ctl)
            .map(|(stats, _hit)| stats),
        None => try_launch_pooled(device, mem, kernel, mode, policy, &pool, ctl),
    }
    .unwrap_or_else(|e| panic!("launch failed: {e}"));
    run.time_us += estimate_stats(device, &stats).time_us;
    run.kernels.push(stats);
}

/// Largest power of two `<= x` (minimum 1).
pub(crate) fn prev_pow2(x: u32) -> u32 {
    if x == 0 {
        1
    } else {
        1 << (31 - x.leading_zeros())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prev_pow2_values() {
        assert_eq!(prev_pow2(0), 1);
        assert_eq!(prev_pow2(1), 1);
        assert_eq!(prev_pow2(2), 2);
        assert_eq!(prev_pow2(3), 2);
        assert_eq!(prev_pow2(255), 128);
        assert_eq!(prev_pow2(256), 256);
    }

    #[test]
    fn empty_run_has_zero_gflops() {
        let r = TimedRun::default();
        assert_eq!(r.gflops(), 0.0);
        assert_eq!(r.flops(), 0.0);
    }
}
