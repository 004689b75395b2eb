//! Property tests of the analytical model: sanity constraints that must
//! hold over the whole input space the compiler explores.

use proptest::prelude::*;

use gpu_sim::DeviceSpec;
use perfmodel::{estimate, partition_range, tiles_exactly, LaunchProfile};

fn profile(grid: u32, block: u32, mem: f64, trans: f64, compute: f64) -> LaunchProfile {
    LaunchProfile {
        grid_dim: grid,
        block_dim: block,
        shared_words: 0,
        mem_insts_per_warp: mem,
        transactions_per_mem_inst: trans,
        compute_insts_per_warp: compute,
        shared_cycles_per_warp: 0.0,
        syncs_per_block: 0.0,
        flops: 1.0,
    }
}

proptest! {
    /// Time estimates are strictly positive, finite, and at least the
    /// launch overhead.
    #[test]
    fn estimates_are_positive_and_bounded_below(
        grid in 1u32..100_000,
        block in prop::sample::select(vec![32u32, 64, 128, 256, 512]),
        mem in 0.0f64..1000.0,
        compute in 0.0f64..10_000.0,
        trans in 1.0f64..32.0,
    ) {
        for device in [DeviceSpec::tesla_c2050(), DeviceSpec::gtx285(), DeviceSpec::gtx480()] {
            let est = estimate(&device, &profile(grid, block, mem, trans, compute));
            prop_assert!(est.total_cycles.is_finite());
            prop_assert!(est.total_cycles >= device.launch_overhead_cycles());
            prop_assert!(est.time_us > 0.0);
            prop_assert!(est.mwp >= 1.0);
            prop_assert!(est.cwp >= 1.0);
            prop_assert!(est.waves >= 1.0);
        }
    }

    /// More uncoalesced transactions never make a memory-bound kernel
    /// faster.
    #[test]
    fn worse_coalescing_never_helps(
        grid in 64u32..10_000,
        mem in 1.0f64..200.0,
        t1 in 1.0f64..16.0,
        extra in 0.0f64..16.0,
    ) {
        let d = DeviceSpec::tesla_c2050();
        let a = estimate(&d, &profile(grid, 256, mem, t1, 4.0));
        let b = estimate(&d, &profile(grid, 256, mem, t1 + extra, 4.0));
        prop_assert!(b.total_cycles >= a.total_cycles * 0.999);
    }

    /// A strictly larger grid (same per-warp work) never takes less time.
    #[test]
    fn more_blocks_never_faster(
        grid in 1u32..5_000,
        extra in 1u32..5_000,
        mem in 1.0f64..100.0,
    ) {
        let d = DeviceSpec::gtx480();
        let a = estimate(&d, &profile(grid, 256, mem, 2.0, 10.0));
        let b = estimate(&d, &profile(grid + extra, 256, mem, 2.0, 10.0));
        prop_assert!(b.total_cycles >= a.total_cycles * 0.999,
            "{} blocks: {:.0} cy, {} blocks: {:.0} cy",
            grid, a.total_cycles, grid + extra, b.total_cycles);
    }

    /// Range partitioning tiles exactly and assigns each probe point to a
    /// cost-minimal variant.
    #[test]
    fn partition_is_exact_and_optimal_at_samples(
        lo in 1i64..100,
        span in 100i64..100_000,
        c0 in 1.0f64..100.0,
        c1 in 0.1f64..10.0,
    ) {
        let hi = lo + span;
        let f0 = move |x: i64| c0 + 0.5 * x as f64;
        let f1 = move |x: i64| c1 * x as f64;
        let mut variants: Vec<Box<dyn FnMut(i64) -> f64>> =
            vec![Box::new(f0), Box::new(f1)];
        let ranges = partition_range(lo, hi, &mut variants);
        prop_assert!(tiles_exactly(lo, hi, &ranges));
        for r in &ranges {
            let mid = (r.lo + r.hi) / 2;
            let costs = [f0(mid), f1(mid)];
            let best = if costs[0] <= costs[1] { 0 } else { 1 };
            // Ties may go either way; require within-epsilon optimality.
            prop_assert!(costs[r.variant] <= costs[best] * (1.0 + 1e-9));
        }
    }

    /// Partitioning still tiles exactly — no gaps, no overlap — for any
    /// number of variants with random affine cost curves.
    #[test]
    fn partition_tiles_for_any_variant_count(
        lo in 1i64..50,
        span in 10i64..50_000,
        curves in prop::collection::vec((0.0f64..500.0, 0.01f64..5.0), 1..6),
    ) {
        let hi = lo + span;
        let mut variants: Vec<Box<dyn FnMut(i64) -> f64>> = curves
            .iter()
            .map(|&(b, m)| Box::new(move |x: i64| b + m * x as f64) as Box<dyn FnMut(i64) -> f64>)
            .collect();
        let ranges = partition_range(lo, hi, &mut variants);
        prop_assert!(tiles_exactly(lo, hi, &ranges));
        for r in &ranges {
            prop_assert!(r.variant < curves.len());
        }
    }
}
