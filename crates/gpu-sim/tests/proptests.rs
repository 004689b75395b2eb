//! Property tests of the GPU simulator's accounting.

use proptest::prelude::*;

use gpu_sim::mem::full_mask;
use gpu_sim::{
    bank_conflict_degree, coalesce_transactions, launch, try_launch_pooled, BlockCtx, DeviceSpec,
    ExecMode, ExecPolicy, GlobalMem, Kernel, LaunchConfig, LaunchControl, ScratchPool,
};

proptest! {
    /// Strided warp accesses need exactly the closed-form number of
    /// transactions: `ceil(span / segment)` distinct aligned segments.
    #[test]
    fn strided_transactions_match_closed_form(
        stride in 1u64..64,
        base in 0u64..1000,
    ) {
        let addrs: Vec<u64> = (0..32).map(|i| base + i * stride).collect();
        let got = coalesce_transactions(full_mask(32), &addrs, 32);
        // Closed form: distinct values of (base + i*stride) >> 5.
        let mut segs: Vec<u64> = (0..32).map(|i| (base + i * stride) >> 5).collect();
        segs.sort_unstable();
        segs.dedup();
        prop_assert_eq!(got as usize, segs.len());
    }

    /// Transactions are monotone under adding lanes.
    #[test]
    fn transactions_monotone_in_active_lanes(
        addrs in proptest::collection::vec(0u64..10_000, 1..32),
    ) {
        let full = coalesce_transactions(full_mask(addrs.len()), &addrs, 32);
        let fewer = coalesce_transactions(full_mask(addrs.len()) >> 1, &addrs, 32);
        prop_assert!(fewer <= full);
    }

    /// Bank conflict degree is between 1 and the number of distinct
    /// addresses, and broadcast never conflicts.
    #[test]
    fn bank_conflicts_bounded(
        addrs in proptest::collection::vec(0u64..512, 1..32),
        banks in prop::sample::select(vec![16u32, 32]),
    ) {
        let mask = full_mask(addrs.len());
        let degree = bank_conflict_degree(mask, &addrs, banks);
        let mut distinct = addrs.clone();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert!(degree >= 1);
        prop_assert!(degree as usize <= distinct.len().max(1));

        let broadcast = vec![addrs[0]; addrs.len()];
        prop_assert_eq!(bank_conflict_degree(mask, &broadcast, banks), 1);
    }
}

/// Kernel that writes `base + i` everywhere, used to check scaling.
struct Fill {
    buf: gpu_sim::BufId,
    n: usize,
}

impl Kernel for Fill {
    fn name(&self) -> &str {
        "fill"
    }

    fn config(&self) -> LaunchConfig {
        LaunchConfig::new((self.n as u32).div_ceil(128), 128, 0)
    }

    fn run_block(&self, block: u32, ctx: &mut BlockCtx<'_>) {
        for tid in ctx.threads() {
            let i = (block * 128 + tid) as usize;
            if i < self.n {
                ctx.st_global(0, tid, self.buf, i, i as f32);
                ctx.compute(tid, 1);
                ctx.count_flops(1);
            }
        }
    }
}

/// A randomly-parameterized kernel exercising every accounting path:
/// strided global loads (coalescing), shared-memory traffic with a
/// barrier (bank conflicts + syncs), compute rounds, and a
/// block-disjoint global store — the launch invariant the parallel
/// engine relies on.
struct RandomKernel {
    input: gpu_sim::BufId,
    out: gpu_sim::BufId,
    n_in: usize,
    grid: u32,
    block_dim: u32,
    stride: usize,
    rounds: u32,
    use_shared: bool,
}

impl Kernel for RandomKernel {
    fn name(&self) -> &str {
        "random_kernel"
    }

    fn config(&self) -> LaunchConfig {
        let shared = if self.use_shared { self.block_dim } else { 0 };
        LaunchConfig::new(self.grid, self.block_dim, shared)
    }

    fn run_block(&self, block: u32, ctx: &mut BlockCtx<'_>) {
        let bd = self.block_dim as usize;
        for tid in ctx.threads() {
            let gid = block as usize * bd + tid as usize;
            let mut acc = ctx.ld_global(0, tid, self.input, (gid * self.stride) % self.n_in);
            for r in 0..self.rounds {
                let idx = (gid + r as usize * 31 + 1) % self.n_in;
                acc += ctx.ld_global(1, tid, self.input, idx) * (r + 1) as f32;
                ctx.compute(tid, 2);
                ctx.count_flops(2);
            }
            if self.use_shared {
                ctx.st_shared(2, tid, tid as usize, acc);
            } else {
                // Keep the store below unconditional on the same value.
                ctx.st_global(3, tid, self.out, gid, acc);
            }
        }
        if self.use_shared {
            ctx.sync();
            for tid in ctx.threads() {
                let bd = self.block_dim as usize;
                let gid = block as usize * bd + tid as usize;
                let neighbor = (tid as usize + 1) % bd;
                let v = ctx.ld_shared(4, tid, tid as usize) + ctx.ld_shared(5, tid, neighbor);
                ctx.compute(tid, 1);
                ctx.count_flops(1);
                ctx.st_global(3, tid, self.out, gid, v);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    /// The tentpole property: for random kernels, grids, execution modes,
    /// and worker counts — more workers than executed blocks and ragged
    /// last ranges included — `try_launch_pooled` under `Parallel(n)` is
    /// *bit-for-bit* identical to `Serial`: same output buffer, same
    /// `KernelStats` (counters, scaled totals, executed/recorded block
    /// counts).
    #[test]
    fn parallel_engine_is_bit_identical_to_serial(
        grid in 1u32..48,
        block_dim in prop::sample::select(vec![32u32, 64, 128]),
        stride in 1usize..9,
        rounds in 0u32..4,
        shared_sel in 0u32..2,
        mode_sel in prop::sample::select(vec![
            ExecMode::Full,
            ExecMode::SampledStats(4),
            ExecMode::SampledExec(3),
            ExecMode::SampledExec(7),
        ]),
        workers in 1usize..17,
        seed in 0u64..1_000_000,
    ) {
        let device = DeviceSpec::tesla_c2050();
        let n = (grid * block_dim) as usize;
        let data: Vec<f32> = (0..n)
            .map(|i| ((i as u64).wrapping_mul(seed | 1) % 1024) as f32 - 512.0)
            .collect();

        let mut mem_s = GlobalMem::new();
        let input_s = mem_s.alloc_from(&data);
        let out_s = mem_s.alloc(n);
        let k_s = RandomKernel {
            input: input_s,
            out: out_s,
            n_in: n,
            grid,
            block_dim,
            stride,
            rounds,
            use_shared: shared_sel == 1,
        };
        let run = |mem: &mut GlobalMem, k: &RandomKernel, policy| {
            let (pool, ctl) = (ScratchPool::new(), LaunchControl::default());
            try_launch_pooled(&device, mem, k, mode_sel, policy, &pool, ctl)
                .expect("fault-free launch succeeds")
        };
        let serial = run(&mut mem_s, &k_s, ExecPolicy::Serial);

        let mut mem_p = GlobalMem::new();
        let input_p = mem_p.alloc_from(&data);
        let out_p = mem_p.alloc(n);
        let k_p = RandomKernel { input: input_p, out: out_p, ..k_s };
        let parallel = run(&mut mem_p, &k_p, ExecPolicy::Parallel(workers));

        // Full stats equality: name, config, per-counter totals, scaled
        // counters, block counts — everything `KernelStats` carries.
        prop_assert_eq!(&serial, &parallel);
        prop_assert_eq!(serial.executed_blocks, parallel.executed_blocks);
        prop_assert_eq!(serial.totals, parallel.totals);
        // Output buffers match bit-for-bit (both engines executed the
        // same block subset and wrote the same words).
        prop_assert_eq!(mem_s.read(out_s), mem_p.read(out_p));
    }
}

proptest! {
    /// Sampled statistics scale exactly for uniform workloads, for every
    /// sample size.
    #[test]
    fn sampled_stats_scale_exactly(
        blocks in 2u32..64,
        sample in 1u32..64,
    ) {
        let device = DeviceSpec::tesla_c2050();
        let n = blocks as usize * 128;
        let mut mem = GlobalMem::new();
        let buf = mem.alloc(n);
        let k = Fill { buf, n };
        let full = launch(&device, &mut mem, &k, ExecMode::Full);
        let sampled = launch(&device, &mut mem, &k, ExecMode::SampledStats(sample));
        prop_assert!((full.totals.flops - sampled.totals.flops).abs() < 1e-6);
        prop_assert!(
            (full.totals.store_transactions - sampled.totals.store_transactions).abs() < 1e-6
        );
        prop_assert_eq!(sampled.executed_blocks, blocks);
    }
}
