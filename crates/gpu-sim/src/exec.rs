//! Kernel launching and statistics collection.
//!
//! [`launch`] executes a [`Kernel`] block-by-block on a [`GlobalMem`],
//! producing [`KernelStats`] — the input of the analytical performance
//! model. Very large grids can be *sampled*: a representative subset of
//! blocks is executed and/or recorded and the counters are scaled up, which
//! keeps figure-scale sweeps (tens of millions of threads) tractable while
//! preserving the aggregate access-pattern statistics.
//!
//! One engine drives the block loop: the executed blocks are split into
//! contiguous ranges, one per worker, and every range runs the same
//! `run_range` loop over the concurrent memory view, accumulating its own
//! [`BlockCounters`]; the per-range counters are merged back **in
//! block-index order**. [`ExecPolicy`] only picks the worker count:
//! `Serial` is the one-range case on the caller's thread (no spawn; use it
//! to pin down behaviour in correctness tests), `Parallel(n)` spawns `n`
//! ranges on `std::thread::scope`. The resulting [`KernelStats`] are
//! bit-for-bit identical for every worker count. This is sound because
//! blocks of one launch never communicate (see the invariant on
//! [`Kernel`]).
//!
//! The engine serves both scalar and warp-batched kernels: a kernel's
//! `run_block` may record accesses one lane at a time
//! ([`BlockCtx::ld_global`] etc.) or one warp-row per instruction
//! ([`BlockCtx::ld_global_row`] etc., the warp evaluator's shape). The
//! streaming accounting engine groups accesses by
//! `(site, kind, occurrence, warp)` and its collapse contributions
//! commute, so counters depend only on each lane's own access sequence,
//! never on cross-lane arrival order — row-batched and lane-at-a-time
//! recording produce bit-identical [`KernelStats`].
//!
//! Repeated identical launches inside figure sweeps can additionally be
//! memoized with [`crate::ShardedLaunchCache`].

use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::accounting::ScratchPool;
use crate::faults::{Fault, LaunchControl, LaunchError};
use crate::kernel::{BlockCounters, BlockCtx, Kernel, LaunchConfig};
use crate::mem::{GlobalMem, SharedMem};
use crate::spec::DeviceSpec;

/// How much of the grid to execute and to record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// Execute and record every block — exact functional output and exact
    /// statistics. Use in correctness tests.
    Full,
    /// Execute every block (exact output) but record statistics on at most
    /// this many evenly-spaced blocks, scaling counters to the full grid.
    /// The sample size must be at least 1; zero is rejected at launch.
    SampledStats(u32),
    /// Execute and record only this many evenly-spaced blocks; the rest of
    /// the output is left unwritten. Use in timing-only sweeps where the
    /// workload is data-independent. The sample size must be at least 1;
    /// zero is rejected at launch.
    SampledExec(u32),
}

impl ExecMode {
    /// Reasonable default for figure harnesses.
    pub fn default_sampled() -> ExecMode {
        ExecMode::SampledExec(512)
    }
}

/// How many workers drive the block loop of a launch.
///
/// Every policy produces **identical** functional output and identical
/// [`KernelStats`]; `Parallel` only changes host wall-clock. Tests that
/// want a pinned, single-threaded execution order should use `Serial`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecPolicy {
    /// One host thread, blocks in index order.
    Serial,
    /// Up to this many workers over contiguous block ranges. `Parallel(0)`
    /// and `Parallel(1)` are `Serial`.
    Parallel(usize),
}

impl ExecPolicy {
    /// Parallel engine sized to the host
    /// (`std::thread::available_parallelism`).
    pub fn auto() -> ExecPolicy {
        ExecPolicy::Parallel(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// Worker count this policy resolves to.
    pub fn workers(&self) -> usize {
        match self {
            ExecPolicy::Serial => 1,
            ExecPolicy::Parallel(n) => (*n).max(1),
        }
    }
}

/// Aggregated, scaled statistics of one kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelStats {
    /// Kernel name. `Arc<str>` so reports and memoization caches clone
    /// stats without re-allocating the name in every sweep iteration.
    pub name: Arc<str>,
    /// Launch geometry.
    pub config: LaunchConfig,
    /// Scaled whole-grid counters.
    pub totals: ScaledCounters,
    /// Blocks whose counters were recorded.
    pub recorded_blocks: u32,
    /// Blocks functionally executed.
    pub executed_blocks: u32,
}

/// Whole-grid counters, scaled from the recorded sample.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ScaledCounters {
    pub warp_load_insts: f64,
    pub warp_store_insts: f64,
    pub load_transactions: f64,
    pub store_transactions: f64,
    pub warp_compute_insts: f64,
    pub shared_insts: f64,
    pub shared_cycles: f64,
    pub syncs: f64,
    pub flops: f64,
}

impl ScaledCounters {
    fn from_counters(c: &BlockCounters, scale: f64) -> ScaledCounters {
        ScaledCounters {
            warp_load_insts: c.warp_load_insts as f64 * scale,
            warp_store_insts: c.warp_store_insts as f64 * scale,
            load_transactions: c.load_transactions as f64 * scale,
            store_transactions: c.store_transactions as f64 * scale,
            warp_compute_insts: c.warp_compute_insts as f64 * scale,
            shared_insts: c.shared_insts as f64 * scale,
            shared_cycles: c.shared_cycles as f64 * scale,
            syncs: c.syncs as f64 * scale,
            flops: c.flops as f64 * scale,
        }
    }

    /// Warp-level global memory instructions (loads + stores).
    pub fn warp_mem_insts(&self) -> f64 {
        self.warp_load_insts + self.warp_store_insts
    }

    /// Global memory transactions (loads + stores).
    pub fn transactions(&self) -> f64 {
        self.load_transactions + self.store_transactions
    }

    /// Average transactions per warp memory instruction: 1.0 means fully
    /// coalesced, `warp_size` means fully scattered.
    pub fn transactions_per_mem_inst(&self) -> f64 {
        let insts = self.warp_mem_insts();
        if insts == 0.0 {
            0.0
        } else {
            self.transactions() / insts
        }
    }
}

impl KernelStats {
    /// Total warps in the grid for the given warp width.
    pub fn warps_in_grid(&self, warp_size: u32) -> f64 {
        self.config.grid_dim as f64 * self.config.block_dim.div_ceil(warp_size) as f64
    }

    /// Sanity gate over the counters: every total must be finite and
    /// non-negative, and the block tallies must be consistent with the
    /// grid. A launch whose stats fail this gate is treated as failed
    /// (see [`LaunchError::CorruptStats`]) — this is what catches an
    /// injected [`Fault::StatCorruption`], and what would catch a garbage
    /// counter readback on real hardware.
    pub fn sanity_check(&self) -> Result<(), String> {
        let t = &self.totals;
        let fields = [
            ("warp_load_insts", t.warp_load_insts),
            ("warp_store_insts", t.warp_store_insts),
            ("load_transactions", t.load_transactions),
            ("store_transactions", t.store_transactions),
            ("warp_compute_insts", t.warp_compute_insts),
            ("shared_insts", t.shared_insts),
            ("shared_cycles", t.shared_cycles),
            ("syncs", t.syncs),
            ("flops", t.flops),
        ];
        for (name, v) in fields {
            if !v.is_finite() || v < 0.0 {
                return Err(format!("{name} = {v}"));
            }
        }
        if self.recorded_blocks == 0 || self.executed_blocks == 0 {
            return Err(format!(
                "no blocks recorded ({}/{} recorded/executed)",
                self.recorded_blocks, self.executed_blocks
            ));
        }
        Ok(())
    }
}

/// Which blocks to include in an evenly-spaced sample of size `sample`.
/// Zero-sized samples are rejected earlier, in [`validate`].
fn sample_stride(grid: u32, sample: u32) -> u32 {
    debug_assert!(sample > 0, "zero sample rejected at validate()");
    grid.div_ceil(sample.min(grid)).max(1)
}

/// Execute `kernel` on `device`/`mem` under `mode`: the panicking form of
/// [`try_launch_pooled`] on one worker, with a fresh scratch pool and no
/// injector or deadline.
///
/// Returns whole-grid statistics; functional effects are visible in `mem`
/// (for all blocks under [`ExecMode::Full`]/[`ExecMode::SampledStats`], or
/// the sampled subset under [`ExecMode::SampledExec`]).
///
/// # Panics
///
/// Panics if the launch configuration is impossible for the device (block
/// larger than `max_threads_per_block`, zero-sized grid/block, more
/// shared memory than a block may allocate, or a zero-sized statistics
/// sample) — mirroring a CUDA launch failure — and with
/// `launch failed: …` when a block panics.
pub fn launch(
    device: &DeviceSpec,
    mem: &mut GlobalMem,
    kernel: &(dyn Kernel + Sync),
    mode: ExecMode,
) -> KernelStats {
    let pool = ScratchPool::new();
    let ctl = LaunchControl::default();
    match try_launch_pooled(device, mem, kernel, mode, ExecPolicy::Serial, &pool, ctl) {
        Ok(stats) => stats,
        // Without an injector the only reachable failure is a genuine
        // block panic; re-raise it.
        Err(e) => panic!("launch failed: {e}"),
    }
}

/// Extract a human-readable message from a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The one launch entry point: execute `kernel` under `mode` on
/// `policy`'s worker count, drawing each worker's accounting scratch from
/// `pool` (so buffers are recycled across the launches of a sweep), and
/// report failures as values.
///
/// * **Panic isolation** — a panicking block worker (kernel assert, or an
///   injected [`Fault::MidBlockPanic`]) is caught — `catch_unwind` on the
///   caller's thread, `join` on spawned ones — and reported as
///   [`LaunchError::WorkerPanic`] instead of unwinding through the caller.
///   Device memory may hold a partial write set; kernels never read their
///   output buffers, so a retry recomputes identical bytes.
/// * **Fault injection** — `ctl.faults`, when present, is consulted once
///   at the start of the attempt and the returned [`Fault`] is acted out.
/// * **Deadline budget** — with `ctl.deadline` set, an attempt whose host
///   wall-clock exceeds the budget reports
///   [`LaunchError::DeadlineExceeded`] (post-hoc watchdog); an injected
///   [`Fault::Hang`] reports the same without executing.
/// * **Stats sanity gate** — completed launches run
///   [`KernelStats::sanity_check`]; corrupt counters (injected or real)
///   surface as [`LaunchError::CorruptStats`] rather than poisoning
///   downstream caches and cost models.
///
/// # Panics
///
/// Launch *validation* panics (see [`launch`]): an impossible
/// configuration is a programming error, not a runtime fault.
pub fn try_launch_pooled(
    device: &DeviceSpec,
    mem: &mut GlobalMem,
    kernel: &(dyn Kernel + Sync),
    mode: ExecMode,
    policy: ExecPolicy,
    pool: &ScratchPool,
    ctl: LaunchControl<'_>,
) -> Result<KernelStats, LaunchError> {
    let (config, exec_stride, stat_stride) = validate(device, kernel, mode);
    // Number of blocks the stride actually executes.
    let n_exec = config.grid_dim.div_ceil(exec_stride);

    let fault = ctl.faults.and_then(|f| f.on_launch(kernel.name()));
    let mut panic_at: Option<u32> = None;
    let mut corrupt = false;
    match fault {
        Some(Fault::LaunchReject) => return Err(LaunchError::Rejected),
        Some(Fault::Hang) => {
            // The simulated watchdog: the grid never completes, the driver
            // kills it once the budget elapses.
            return Err(LaunchError::DeadlineExceeded {
                elapsed_us: ctl.deadline.map(|d| d.as_micros() as u64).unwrap_or(0),
                budget_us: ctl.deadline.map(|d| d.as_micros() as u64).unwrap_or(0),
            });
        }
        Some(Fault::DegradedSm { remaining_sms }) => {
            return Err(LaunchError::DeviceDegraded { remaining_sms });
        }
        Some(Fault::MidBlockPanic { after_blocks }) => {
            panic_at = Some(after_blocks % n_exec);
        }
        Some(Fault::StatCorruption) => corrupt = true,
        None => {}
    }

    let start = Instant::now();
    let workers = policy.workers().min(n_exec as usize).max(1) as u32;
    // Contiguous executed-block ranges, one per worker: worker w executes
    // blocks with executed-index in [w*chunk, min((w+1)*chunk, n_exec)).
    let chunk = n_exec.div_ceil(workers);
    let view = mem.shared_view();
    let range = |w: u32| {
        let blocks = w * chunk..((w + 1) * chunk).min(n_exec);
        run_range(
            device,
            &view,
            kernel,
            config,
            (exec_stride, stat_stride),
            pool,
            panic_at,
            blocks,
        )
    };
    let results: Vec<std::thread::Result<_>> = if workers == 1 {
        vec![panic::catch_unwind(AssertUnwindSafe(|| range(0)))]
    } else {
        let range = &range;
        // Joining in spawn order == block-index order (ranges are
        // contiguous and ascending), so the merge below is deterministic.
        // A panicking worker is isolated here: the launch rolls up as
        // failed after every sibling has joined.
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| scope.spawn(move || range(w)))
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        })
    };
    let mut merged = BlockCounters::default();
    let mut recorded = 0u32;
    let mut executed = 0u32;
    let mut panicked: Option<String> = None;
    for result in results {
        match result {
            Ok((c, r, e)) => {
                merged.merge(&c);
                recorded += r;
                executed += e;
            }
            Err(payload) => panicked = Some(panic_message(payload)),
        }
    }
    if let Some(message) = panicked {
        return Err(LaunchError::WorkerPanic { message });
    }

    if let Some(budget) = ctl.deadline {
        let elapsed = start.elapsed();
        if elapsed > budget {
            return Err(LaunchError::DeadlineExceeded {
                elapsed_us: elapsed.as_micros() as u64,
                budget_us: budget.as_micros() as u64,
            });
        }
    }

    let mut stats = finish(kernel, config, merged, recorded, executed);
    if corrupt {
        // Transient counter-readback corruption: poison the totals so the
        // sanity gate below rejects them, exactly as a garbage DMA would.
        stats.totals.flops = f64::NAN;
        stats.totals.load_transactions = -1.0;
    }
    stats
        .sanity_check()
        .map_err(|detail| LaunchError::CorruptStats { detail })?;
    Ok(stats)
}

/// Validate the launch against device limits and resolve the sampling
/// strides for `mode`.
fn validate(
    device: &DeviceSpec,
    kernel: &(impl Kernel + ?Sized),
    mode: ExecMode,
) -> (LaunchConfig, u32, u32) {
    let config = kernel.config();
    assert!(config.grid_dim > 0, "launch with empty grid");
    assert!(config.block_dim > 0, "launch with empty block");
    assert!(
        config.block_dim <= device.max_threads_per_block,
        "block of {} threads exceeds device limit {}",
        config.block_dim,
        device.max_threads_per_block
    );
    assert!(
        config.shared_words <= device.shared_words_per_block,
        "shared allocation of {} words exceeds device limit {}",
        config.shared_words,
        device.shared_words_per_block
    );
    if let ExecMode::SampledStats(s) | ExecMode::SampledExec(s) = mode {
        assert!(
            s > 0,
            "launch with zero-sized sample ({mode:?}): sampled modes must \
             record at least one block"
        );
    }

    let (exec_stride, stat_stride) = match mode {
        ExecMode::Full => (1, 1),
        ExecMode::SampledStats(s) => (1, sample_stride(config.grid_dim, s)),
        ExecMode::SampledExec(s) => {
            let st = sample_stride(config.grid_dim, s);
            (st, st)
        }
    };
    (config, exec_stride, stat_stride)
}

/// The block loop: execute the blocks whose executed-index lies in
/// `blocks`, merging their counters in block order. The worker owns one
/// scratch from `pool` for the whole range; on a panic it is dropped
/// instead of returned (its per-block state is mid-flight and must not be
/// recycled).
#[allow(clippy::too_many_arguments)]
fn run_range(
    device: &DeviceSpec,
    view: &SharedMem<'_>,
    kernel: &(dyn Kernel + Sync),
    config: LaunchConfig,
    (exec_stride, stat_stride): (u32, u32),
    pool: &ScratchPool,
    panic_at: Option<u32>,
    blocks: std::ops::Range<u32>,
) -> (BlockCounters, u32, u32) {
    let mut scratch = pool.take();
    let mut merged = BlockCounters::default();
    let mut recorded = 0u32;
    let mut executed = 0u32;
    for i in blocks {
        if panic_at == Some(i) {
            panic!("injected fault: mid-block panic at executed block {i}");
        }
        let block = i * exec_stride;
        // The strides are equal under SampledExec and exec_stride is 1
        // otherwise, so no recorded block is ever skipped.
        let record = block.is_multiple_of(stat_stride);
        let mut ctx = BlockCtx::new(device, view, block, config, record, &mut scratch);
        kernel.run_block(block, &mut ctx);
        let counters = ctx.finalize();
        if record {
            merged.merge(&counters);
            recorded += 1;
        }
        executed += 1;
    }
    pool.give(scratch);
    (merged, recorded, executed)
}

/// Intern a kernel name: every launch of a kernel hands back the *same*
/// `Arc<str>`, so the per-launch stats path performs no name allocation
/// after a kernel's first launch. Kernel names are static-ish labels (one
/// per generated kernel), so the interner stays small for the life of the
/// process.
fn intern_name(name: &str) -> Arc<str> {
    static NAMES: OnceLock<Mutex<HashMap<String, Arc<str>>>> = OnceLock::new();
    let names = NAMES.get_or_init(|| Mutex::new(HashMap::new()));
    let mut guard = names.lock().unwrap();
    if let Some(interned) = guard.get(name) {
        return interned.clone();
    }
    let interned: Arc<str> = Arc::from(name);
    guard.insert(name.to_string(), interned.clone());
    interned
}

/// Scale merged counters into whole-grid [`KernelStats`].
fn finish(
    kernel: &(impl Kernel + ?Sized),
    config: LaunchConfig,
    merged: BlockCounters,
    recorded: u32,
    executed: u32,
) -> KernelStats {
    let scale = config.grid_dim as f64 / recorded.max(1) as f64;
    KernelStats {
        name: intern_name(kernel.name()),
        config,
        totals: ScaledCounters::from_counters(&merged, scale),
        recorded_blocks: recorded,
        executed_blocks: executed,
    }
}

/// Key of one memoizable launch: the device, the kernel's identity and
/// geometry, the caller-supplied input-dimension fingerprint, and the
/// execution mode.
///
/// Data *values* are deliberately not part of the key: memoization is meant
/// for timing sweeps over data-independent workloads (the only place the
/// harnesses re-launch identical configurations), where statistics depend
/// on shapes, not values. The device *is* part of the key — counters
/// depend on warp width, transaction geometry and bank count, so stats
/// recorded on one [`DeviceSpec`] must never serve a launch on another.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LaunchKey {
    /// Device fingerprint ([`DeviceSpec::fingerprint`]).
    pub device: u64,
    /// Kernel name.
    pub name: Arc<str>,
    /// Launch geometry.
    pub config: LaunchConfig,
    /// Caller-defined input dimensions (e.g. `(rows, cols)` or `(n, 0)`).
    pub dims: (u64, u64),
    /// Execution mode the stats were collected under.
    pub mode: ExecMode,
}

/// The launch-statistics memoization layer the runtime routes launches
/// through; implemented by [`crate::ShardedLaunchCache`].
pub trait StatsCache: Sync {
    /// Launch through the cache: on a hit return the memoized stats (the
    /// kernel is *not* executed, `mem` is untouched); on a miss execute
    /// with `policy`, memoize, and return. The boolean is `true` on a hit.
    ///
    /// Failed launches (see [`try_launch_pooled`] and `ctl`) are **never**
    /// memoized — a transient fault must not serve poisoned stats to later
    /// callers — and are reported as `Err` without touching the cache.
    #[allow(clippy::too_many_arguments)]
    fn launch_cached(
        &self,
        device: &DeviceSpec,
        mem: &mut GlobalMem,
        kernel: &(dyn Kernel + Sync),
        mode: ExecMode,
        policy: ExecPolicy,
        dims: (u64, u64),
        pool: &ScratchPool,
        ctl: LaunchControl<'_>,
    ) -> Result<(KernelStats, bool), LaunchError>;
}

/// Build the [`LaunchKey`] of one launch.
pub(crate) fn launch_key(
    device: &DeviceSpec,
    kernel: &(dyn Kernel + Sync),
    mode: ExecMode,
    dims: (u64, u64),
) -> LaunchKey {
    LaunchKey {
        device: device.fingerprint(),
        name: intern_name(kernel.name()),
        config: kernel.config(),
        dims,
        mode,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::BlockCtx;
    use crate::mem::BufId;

    /// y[i] = 2 * x[i], one thread per element.
    struct Scale2 {
        x: BufId,
        y: BufId,
        n: usize,
        block_dim: u32,
    }

    impl Kernel for Scale2 {
        fn name(&self) -> &str {
            "scale2"
        }

        fn config(&self) -> LaunchConfig {
            let grid = (self.n as u32).div_ceil(self.block_dim);
            LaunchConfig::new(grid, self.block_dim, 0)
        }

        fn run_block(&self, block: u32, ctx: &mut BlockCtx<'_>) {
            for t in ctx.threads() {
                let i = (block * ctx.block_dim() + t) as usize;
                if i < self.n {
                    let v = ctx.ld_global(0, t, self.x, i);
                    ctx.st_global(1, t, self.y, i, 2.0 * v);
                    ctx.compute(t, 1);
                    ctx.count_flops(1);
                }
            }
        }
    }

    #[test]
    fn full_execution_is_functionally_correct() {
        let d = DeviceSpec::tesla_c2050();
        let mut mem = GlobalMem::new();
        let data: Vec<f32> = (0..1000).map(|i| i as f32).collect();
        let x = mem.alloc_from(&data);
        let y = mem.alloc(1000);
        let k = Scale2 {
            x,
            y,
            n: 1000,
            block_dim: 128,
        };
        let stats = launch(&d, &mut mem, &k, ExecMode::Full);
        assert_eq!(stats.executed_blocks, 8);
        assert_eq!(stats.recorded_blocks, 8);
        for (i, v) in mem.read(y).iter().enumerate() {
            assert_eq!(*v, 2.0 * i as f32);
        }
        // 1000 loads fully coalesced: ceil-per-warp transactions.
        assert!(stats.totals.transactions_per_mem_inst() <= 1.01);
        assert_eq!(stats.totals.flops, 1000.0);
    }

    #[test]
    fn sampled_stats_scale_to_full_grid() {
        let d = DeviceSpec::tesla_c2050();
        let mut mem = GlobalMem::new();
        let n = 128 * 64;
        let x = mem.alloc(n);
        let y = mem.alloc(n);
        let k = Scale2 {
            x,
            y,
            n,
            block_dim: 128,
        };
        let full = launch(&d, &mut mem, &k, ExecMode::Full);
        let sampled = launch(&d, &mut mem, &k, ExecMode::SampledStats(8));
        assert_eq!(sampled.executed_blocks, 64);
        assert_eq!(sampled.recorded_blocks, 8);
        // Uniform workload: scaled counters match the exact ones.
        assert!((sampled.totals.load_transactions - full.totals.load_transactions).abs() < 1e-9);
        assert!((sampled.totals.flops - full.totals.flops).abs() < 1e-9);
    }

    #[test]
    fn sampled_exec_executes_subset() {
        let d = DeviceSpec::tesla_c2050();
        let mut mem = GlobalMem::new();
        let n = 128 * 64;
        let x = mem.alloc_from(vec![1.0; n]);
        let y = mem.alloc(n);
        let k = Scale2 {
            x,
            y,
            n,
            block_dim: 128,
        };
        let s = launch(&d, &mut mem, &k, ExecMode::SampledExec(8));
        assert_eq!(s.executed_blocks, 8);
        // Block 0 was executed; its outputs are written.
        assert_eq!(mem.read(y)[0], 2.0);
        // Counters still describe the whole grid.
        assert_eq!(s.totals.flops, n as f64);
    }

    #[test]
    #[should_panic(expected = "exceeds device limit")]
    fn oversized_block_panics() {
        let d = DeviceSpec::gtx285();
        let mut mem = GlobalMem::new();
        let x = mem.alloc(1024);
        let y = mem.alloc(1024);
        let k = Scale2 {
            x,
            y,
            n: 1024,
            block_dim: 1024, // > 512 on GTX 285
        };
        let _ = launch(&d, &mut mem, &k, ExecMode::Full);
    }

    #[test]
    fn parallel_policy_matches_serial_exactly() {
        let d = DeviceSpec::tesla_c2050();
        let n = 128 * 37; // non-power-of-two block count
        for mode in [
            ExecMode::Full,
            ExecMode::SampledStats(8),
            ExecMode::SampledExec(8),
        ] {
            let run = |policy| {
                let (_, mut mem, k) = scale2_setup(n);
                let (pool, ctl) = (ScratchPool::new(), LaunchControl::default());
                let stats = try_launch_pooled(&d, &mut mem, &k, mode, policy, &pool, ctl)
                    .expect("fault-free launch succeeds");
                (stats, mem.read(k.y).to_vec())
            };
            let serial = run(ExecPolicy::Serial);
            // 3 and 5 leave a ragged last range; 64 exceeds the executed
            // block count under every mode and clamps to it.
            for workers in [2usize, 3, 5, 8, 64] {
                let parallel = run(ExecPolicy::Parallel(workers));
                assert_eq!(serial, parallel, "mode {mode:?}, {workers} workers");
            }
        }
    }

    #[test]
    fn parallel_degrades_to_serial_for_tiny_grids() {
        let (d, mut mem, k) = scale2_setup(3); // 1 block
        let s = try_launch(
            &d,
            &mut mem,
            &k,
            ExecPolicy::Parallel(16),
            LaunchControl::default(),
        )
        .expect("fault-free launch succeeds");
        assert_eq!(s.executed_blocks, 1);
        assert_eq!(mem.read(k.y), &[0.0, 2.0, 4.0]);
    }

    #[test]
    fn policy_workers_resolution() {
        assert_eq!(ExecPolicy::Serial.workers(), 1);
        assert_eq!(ExecPolicy::Parallel(0).workers(), 1);
        assert_eq!(ExecPolicy::Parallel(6).workers(), 6);
        assert!(ExecPolicy::auto().workers() >= 1);
    }

    #[test]
    fn stride_computation() {
        assert_eq!(sample_stride(100, 10), 10);
        assert_eq!(sample_stride(7, 10), 1);
        assert_eq!(sample_stride(1, 1), 1);
    }

    #[test]
    #[should_panic(expected = "zero-sized sample")]
    fn zero_sampled_stats_is_rejected() {
        let d = DeviceSpec::tesla_c2050();
        let mut mem = GlobalMem::new();
        let x = mem.alloc(128);
        let y = mem.alloc(128);
        let k = Scale2 {
            x,
            y,
            n: 128,
            block_dim: 128,
        };
        let _ = launch(&d, &mut mem, &k, ExecMode::SampledStats(0));
    }

    #[test]
    #[should_panic(expected = "zero-sized sample")]
    fn zero_sampled_exec_is_rejected() {
        let d = DeviceSpec::tesla_c2050();
        let mut mem = GlobalMem::new();
        let x = mem.alloc(128);
        let y = mem.alloc(128);
        let k = Scale2 {
            x,
            y,
            n: 128,
            block_dim: 128,
        };
        let _ = launch(&d, &mut mem, &k, ExecMode::SampledExec(0));
    }

    #[test]
    fn kernel_names_are_interned_across_launches() {
        let d = DeviceSpec::tesla_c2050();
        let mut mem = GlobalMem::new();
        let x = mem.alloc(256);
        let y = mem.alloc(256);
        let k = Scale2 {
            x,
            y,
            n: 256,
            block_dim: 128,
        };
        let a = launch(&d, &mut mem, &k, ExecMode::Full);
        let b = launch(&d, &mut mem, &k, ExecMode::Full);
        assert!(
            Arc::ptr_eq(&a.name, &b.name),
            "repeated launches must share one interned name"
        );
    }

    #[test]
    fn pooled_launches_recycle_scratch() {
        let (d, mut mem, k) = scale2_setup(1024);
        let pool = ScratchPool::new();
        let baseline = launch(&d, &mut mem, &k, ExecMode::Full);
        let mut pooled = |policy| {
            let ctl = LaunchControl::default();
            try_launch_pooled(&d, &mut mem, &k, ExecMode::Full, policy, &pool, ctl)
                .expect("fault-free launch succeeds")
        };
        for _ in 0..3 {
            assert_eq!(pooled(ExecPolicy::Serial), baseline);
        }
        assert_eq!(pool.idle(), 1, "serial launches share one scratch");
        assert_eq!(pooled(ExecPolicy::Parallel(4)), baseline);
        // Every worker returns its scratch; a fast worker's scratch may be
        // re-taken by a late-starting one, so the idle count lands anywhere
        // in [1, workers].
        let idle = pool.idle();
        assert!(
            (1..=4).contains(&idle),
            "workers must return scratches, got {idle}"
        );
    }

    /// Injector that returns the same fault on every consult.
    #[derive(Debug)]
    struct Always(Fault);

    impl crate::faults::FaultInjector for Always {
        fn on_launch(&self, _: &str) -> Option<Fault> {
            Some(self.0)
        }
    }

    fn scale2_setup(n: usize) -> (DeviceSpec, GlobalMem, Scale2) {
        let d = DeviceSpec::tesla_c2050();
        let mut mem = GlobalMem::new();
        let data: Vec<f32> = (0..n).map(|i| (i % 13) as f32).collect();
        let x = mem.alloc_from(&data);
        let y = mem.alloc(n);
        (
            d,
            mem,
            Scale2 {
                x,
                y,
                n,
                block_dim: 128,
            },
        )
    }

    fn try_launch(
        d: &DeviceSpec,
        mem: &mut GlobalMem,
        k: &Scale2,
        policy: ExecPolicy,
        ctl: LaunchControl<'_>,
    ) -> Result<KernelStats, LaunchError> {
        try_launch_pooled(d, mem, k, ExecMode::Full, policy, &ScratchPool::new(), ctl)
    }

    #[test]
    fn fault_free_try_launch_matches_infallible_launch() {
        let (d, mut mem_a, k_a) = scale2_setup(1024);
        let baseline = launch(&d, &mut mem_a, &k_a, ExecMode::Full);
        let (_, mut mem_b, k_b) = scale2_setup(1024);
        let stats = try_launch(
            &d,
            &mut mem_b,
            &k_b,
            ExecPolicy::Serial,
            LaunchControl::default(),
        )
        .expect("fault-free launch succeeds");
        assert_eq!(stats, baseline);
        assert_eq!(mem_a.read(k_a.y), mem_b.read(k_b.y));
    }

    #[test]
    fn injected_faults_surface_as_typed_errors() {
        let cases = [
            (Fault::LaunchReject, LaunchError::Rejected),
            (
                Fault::Hang,
                LaunchError::DeadlineExceeded {
                    elapsed_us: 0,
                    budget_us: 0,
                },
            ),
            (
                Fault::DegradedSm { remaining_sms: 2 },
                LaunchError::DeviceDegraded { remaining_sms: 2 },
            ),
        ];
        for (fault, want) in cases {
            let (d, mut mem, k) = scale2_setup(512);
            let before = mem.read(k.y).to_vec();
            let inj = Always(fault);
            let got = try_launch(
                &d,
                &mut mem,
                &k,
                ExecPolicy::Serial,
                LaunchControl::with_faults(&inj),
            );
            assert_eq!(got, Err(want), "fault {fault:?}");
            // Pre-execution faults leave device memory untouched.
            assert_eq!(mem.read(k.y), &before[..], "fault {fault:?}");
        }
    }

    #[test]
    fn corrupt_stats_are_gated_not_returned() {
        let (d, mut mem, k) = scale2_setup(512);
        let inj = Always(Fault::StatCorruption);
        let got = try_launch(
            &d,
            &mut mem,
            &k,
            ExecPolicy::Serial,
            LaunchControl::with_faults(&inj),
        );
        assert!(
            matches!(got, Err(LaunchError::CorruptStats { .. })),
            "got {got:?}"
        );
        // The grid did run (corruption is a readback fault), so a retry's
        // output is already in place and byte-identical to a clean run.
        let (_, mut mem_clean, k_clean) = scale2_setup(512);
        launch(&d, &mut mem_clean, &k_clean, ExecMode::Full);
        assert_eq!(mem.read(k.y), mem_clean.read(k_clean.y));
    }

    #[test]
    fn mid_block_panic_is_isolated_and_retry_is_bit_identical() {
        let (d, mut mem_clean, k_clean) = scale2_setup(128 * 10);
        let baseline = launch(&d, &mut mem_clean, &k_clean, ExecMode::Full);

        for policy in [ExecPolicy::Serial, ExecPolicy::Parallel(4)] {
            let (d, mut mem, k) = scale2_setup(128 * 10);
            let inj = Always(Fault::MidBlockPanic { after_blocks: 3 });
            let got = try_launch(&d, &mut mem, &k, policy, LaunchControl::with_faults(&inj));
            match got {
                Err(LaunchError::WorkerPanic { message }) => {
                    assert!(
                        message.contains("injected fault"),
                        "unexpected payload: {message}"
                    );
                }
                other => panic!("expected WorkerPanic under {policy:?}, got {other:?}"),
            }
            // Retry without the injector: the partially-written output
            // buffer is fully recomputed — stats and bytes match a run
            // that never faulted.
            let stats = try_launch(&d, &mut mem, &k, policy, LaunchControl::default())
                .expect("retry succeeds");
            assert_eq!(stats, baseline, "{policy:?}");
            assert_eq!(mem.read(k.y), mem_clean.read(k_clean.y), "{policy:?}");
        }
    }

    #[test]
    fn out_of_bounds_access_is_a_worker_panic_on_every_worker_count() {
        // Every launch goes through the raw-pointer view, so its bounds
        // asserts are the only thing between a bad index and UB.
        for policy in [ExecPolicy::Serial, ExecPolicy::Parallel(4)] {
            let (d, mut mem, mut k) = scale2_setup(128 * 4);
            k.n += 1; // last thread of the last block reads x[n]
            let got = try_launch(&d, &mut mem, &k, policy, LaunchControl::default());
            match got {
                Err(LaunchError::WorkerPanic { message }) => {
                    assert!(message.contains("out of bounds"), "{message}")
                }
                other => panic!("expected WorkerPanic under {policy:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn zero_deadline_reports_overrun() {
        let (d, mut mem, k) = scale2_setup(128 * 32);
        let ctl = LaunchControl {
            faults: None,
            deadline: Some(std::time::Duration::ZERO),
        };
        let got = try_launch(&d, &mut mem, &k, ExecPolicy::Serial, ctl);
        assert!(
            matches!(got, Err(LaunchError::DeadlineExceeded { .. })),
            "got {got:?}"
        );
    }
}
