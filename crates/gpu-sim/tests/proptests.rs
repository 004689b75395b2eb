//! Property tests of the GPU simulator's accounting.

use proptest::prelude::*;

use gpu_sim::mem::full_mask;
use std::sync::Mutex;

use gpu_sim::mem::MAX_LANES;
use gpu_sim::{
    bank_conflict_degree, coalesce_transactions, launch, try_launch_pooled, BlockCtx, DeviceSpec,
    ExecMode, ExecPolicy, GlobalMem, Kernel, LaunchConfig, LaunchControl, Row, ScratchPool,
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

/// Words of global and of shared memory a [`Script`] may address: the
/// widest row (base below 512, stride 40, 32 lanes) ends below 1 752.
const SCRIPT_WORDS: usize = 2048;

/// How a [`Script`] hands its rows to the block context.
#[derive(Debug, Clone, Copy)]
enum Issue {
    /// As the progression's descriptor.
    Affine,
    /// As the equal lane-assembled row, junk in the inactive lanes.
    Lanes,
    /// One per-lane call per active lane, ascending.
    PerLane,
}

/// One warp memory instruction of a script: `op` 0..4 is global load,
/// global store, shared load, shared store; lanes `lo..lo + lanes` of
/// `warp` access `base + i * stride`.
#[derive(Debug, Clone, Copy)]
struct ScriptRow {
    op: u8,
    site: u32,
    warp: u32,
    lo: u32,
    lanes: u32,
    base: u64,
    stride: u64,
}

/// A one-block kernel that plays a list of warp rows and logs every
/// loaded word.
struct Script {
    rows: Vec<ScriptRow>,
    block_dim: u32,
    issue: Issue,
    buf: gpu_sim::BufId,
    loaded: Mutex<Vec<f32>>,
}

impl Kernel for Script {
    fn name(&self) -> &str {
        "script"
    }

    fn config(&self) -> LaunchConfig {
        LaunchConfig::new(1, self.block_dim, SCRIPT_WORDS as u32)
    }

    fn run_block(&self, _block: u32, ctx: &mut BlockCtx<'_>) {
        let ws = ctx.warp_size();
        let mut loaded = self.loaded.lock().unwrap();
        for (n, r) in self.rows.iter().enumerate() {
            let active = r.lo as usize..(r.lo + r.lanes) as usize;
            let addr = |l: usize| r.base + (l as u64 - r.lo as u64) * r.stride;
            let mut addrs = [u64::MAX; MAX_LANES];
            let mut vals = [f32::NAN; MAX_LANES];
            for l in active.clone() {
                addrs[l] = addr(l);
                vals[l] = (n * 100 + l) as f32;
            }
            let row = match self.issue {
                Issue::Affine => Row::Affine {
                    lo: r.lo,
                    lanes: r.lanes,
                    base: r.base,
                    stride: r.stride,
                },
                _ => Row::Lanes {
                    mask: full_mask(r.lanes as usize) << r.lo,
                    addrs: &addrs,
                },
            };
            let tid = |l: usize| r.warp * ws + l as u32;
            match (r.op, self.issue) {
                (0, Issue::PerLane) => {
                    for l in active.clone() {
                        vals[l] = ctx.ld_global(r.site, tid(l), self.buf, addr(l) as usize);
                    }
                }
                (1, Issue::PerLane) => {
                    for l in active.clone() {
                        ctx.st_global(r.site, tid(l), self.buf, addr(l) as usize, vals[l]);
                    }
                }
                (2, Issue::PerLane) => {
                    for l in active.clone() {
                        vals[l] = ctx.ld_shared(r.site, tid(l), addr(l) as usize);
                    }
                }
                (_, Issue::PerLane) => {
                    for l in active.clone() {
                        ctx.st_shared(r.site, tid(l), addr(l) as usize, vals[l]);
                    }
                }
                (0, _) => ctx.ld_global_row(r.site, r.warp, self.buf, row, &mut vals),
                (1, _) => ctx.st_global_row(r.site, r.warp, self.buf, row, &vals),
                (2, _) => ctx.ld_shared_row(r.site, r.warp, row, &mut vals),
                (_, _) => ctx.st_shared_row(r.site, r.warp, row, &vals),
            }
            if r.op % 2 == 0 {
                loaded.extend_from_slice(&vals[active]);
            }
        }
    }
}

proptest! {
    /// A progression issued as `Row::Affine`, as the equal `Row::Lanes`
    /// and lane by lane through the per-lane calls (the path the in-crate
    /// HashMap oracle pins) is the same instruction: identical counters,
    /// identical loaded words, identical memory afterwards. Rows are
    /// full, ragged (a prefix) or an offset run; a few sites shared by
    /// all rows leave a warp's lanes at different occurrences, so rows
    /// also merge across them.
    #[test]
    fn affine_rows_equal_lane_rows_and_per_lane_calls(
        block_dim in prop::sample::select(vec![32u32, 48, 64, 96]),
        raw in proptest::collection::vec(
            ((0u8..4, 0usize..3, any::<u32>()), (0u8..3, any::<u32>(), any::<u32>()), (0u64..512, 0usize..6)),
            1..40,
        ),
        gt200 in any::<bool>(),
    ) {
        // 16 banks on the GT200, 32 on Fermi; 32-word transactions on both.
        let device = if gt200 { DeviceSpec::gtx285() } else { DeviceSpec::tesla_c2050() };
        let ws = device.warp_size;
        let rows: Vec<ScriptRow> = raw
            .iter()
            .map(|&((op, site, warp), (shape, a, b), (base, stride))| {
                let warp = warp % block_dim.div_ceil(ws);
                let resident = (block_dim - warp * ws).min(ws);
                let (lo, lanes) = match shape {
                    0 => (0, resident),
                    1 => (0, 1 + a % resident),
                    _ => {
                        let lo = a % resident;
                        (lo, 1 + b % (resident - lo))
                    }
                };
                let stride = [0, 1, 2, 33, 32, 40][stride];
                ScriptRow { op, site: [0, 5, 9][site], warp, lo, lanes, base, stride }
            })
            .collect();
        let run = |issue| {
            let mut mem = GlobalMem::new();
            let buf = mem.alloc_from((0..SCRIPT_WORDS).map(|i| i as f32 * 0.5).collect::<Vec<_>>());
            let k = Script { rows: rows.clone(), block_dim, issue, buf, loaded: Mutex::default() };
            let stats = launch(&device, &mut mem, &k, ExecMode::Full);
            (stats, k.loaded.into_inner().unwrap(), mem.into_host(buf))
        };
        let (affine, lanes, per_lane) = (run(Issue::Affine), run(Issue::Lanes), run(Issue::PerLane));
        prop_assert_eq!(&affine, &lanes);
        prop_assert_eq!(&affine, &per_lane);
    }
}
