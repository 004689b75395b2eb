//! Kernel interface and per-block execution context.
//!
//! Simulated kernels implement [`Kernel`]: they declare a launch
//! configuration and provide `run_block`, which executes *one thread
//! block*. Inside `run_block`, code addresses threads explicitly (the
//! "vector style"): sweep over `ctx.threads()` for each program phase and
//! call [`BlockCtx::sync`] between phases — sequence points that model
//! `__syncthreads()`.
//!
//! All memory traffic goes through the context so the engine can account
//! for warp-level coalescing and shared-memory bank conflicts. Access
//! *sites* (the `site` argument) identify static instructions: the k-th
//! dynamic access of each lane at a given site forms one warp instruction,
//! mirroring SIMT lockstep execution.
//!
//! Code that already executes warp-wide issues a whole instruction at once
//! through the four `*_row` calls, describing its lanes' addresses with
//! one [`Row`]: the progression descriptor `Row::Affine` when it knows the
//! row is one (accounted in O(1), moved as a slice when the stride is 1),
//! lane addresses otherwise. Either way the call is equivalent to the
//! per-lane calls of the row's active lanes in ascending order.

use crate::accounting::{AccessKind, BlockScratch};
use crate::mem::{BufId, Row, SharedMem};
use crate::spec::DeviceSpec;

/// Launch geometry for a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LaunchConfig {
    /// Number of thread blocks.
    pub grid_dim: u32,
    /// Threads per block.
    pub block_dim: u32,
    /// Shared memory per block, in 4-byte words.
    pub shared_words: u32,
}

impl LaunchConfig {
    /// Convenience constructor.
    pub fn new(grid_dim: u32, block_dim: u32, shared_words: u32) -> LaunchConfig {
        LaunchConfig {
            grid_dim,
            block_dim,
            shared_words,
        }
    }

    /// Total threads in the launch.
    pub fn total_threads(&self) -> u64 {
        self.grid_dim as u64 * self.block_dim as u64
    }
}

/// A simulated GPU kernel.
///
/// # The launch invariant
///
/// Blocks of one launch must not communicate: `run_block` may read
/// locations written by *earlier launches* freely, but must never read a
/// location that another block of the *same* launch writes, and no two
/// blocks of one launch may write the same location. This mirrors CUDA,
/// where the block schedule is undefined and inter-block data flow within
/// a launch (without atomics, which this model does not provide) is a data
/// race. The parallel execution engine ([`crate::exec::ExecPolicy`])
/// relies on it.
pub trait Kernel {
    /// Kernel name, for reports and debugging.
    fn name(&self) -> &str;

    /// Launch geometry (may depend on the kernel's parameters).
    fn config(&self) -> LaunchConfig;

    /// Execute one thread block.
    fn run_block(&self, block: u32, ctx: &mut BlockCtx<'_>);
}

/// Static access-site identifier (one per load/store instruction in the
/// kernel source).
pub type Site = u32;

/// Raw per-block counters produced by executing one block with recording
/// enabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockCounters {
    /// Warp-level global load instructions.
    pub warp_load_insts: u64,
    /// Warp-level global store instructions.
    pub warp_store_insts: u64,
    /// Global memory transactions after coalescing.
    pub load_transactions: u64,
    /// Global store transactions after coalescing.
    pub store_transactions: u64,
    /// Warp-level compute instructions (max over lanes per warp).
    pub warp_compute_insts: u64,
    /// Warp-level shared-memory instructions.
    pub shared_insts: u64,
    /// Total shared-access cycles including serialization (>= shared_insts;
    /// equality means conflict-free).
    pub shared_cycles: u64,
    /// `__syncthreads()` executed.
    pub syncs: u64,
    /// Floating-point operations (thread-level, for GFLOPS reporting).
    pub flops: u64,
}

impl BlockCounters {
    /// Merge another block's counters into this one.
    pub fn merge(&mut self, other: &BlockCounters) {
        self.warp_load_insts += other.warp_load_insts;
        self.warp_store_insts += other.warp_store_insts;
        self.load_transactions += other.load_transactions;
        self.store_transactions += other.store_transactions;
        self.warp_compute_insts += other.warp_compute_insts;
        self.shared_insts += other.shared_insts;
        self.shared_cycles += other.shared_cycles;
        self.syncs += other.syncs;
        self.flops += other.flops;
    }
}

/// Execution context for one thread block.
///
/// Borrowed mutably by [`Kernel::run_block`]; provides global/shared memory
/// access with accounting, barrier counting, and compute instrumentation.
/// Global memory is reached through the engine's concurrent view.
pub struct BlockCtx<'a> {
    device: &'a DeviceSpec,
    mem: &'a SharedMem<'a>,
    block: u32,
    config: LaunchConfig,
    record: bool,
    /// Reusable accounting arena owned by the engine worker; reset for
    /// this block at construction (see [`BlockScratch`]).
    scratch: &'a mut BlockScratch,
    syncs: u64,
    flops: u64,
}

impl<'a> BlockCtx<'a> {
    pub(crate) fn new(
        device: &'a DeviceSpec,
        mem: &'a SharedMem<'a>,
        block: u32,
        config: LaunchConfig,
        record: bool,
        scratch: &'a mut BlockScratch,
    ) -> Self {
        scratch.begin_block(device, config.shared_words, config.block_dim);
        BlockCtx {
            device,
            mem,
            block,
            config,
            record,
            scratch,
            syncs: 0,
            flops: 0,
        }
    }

    /// This block's index.
    pub fn block(&self) -> u32 {
        self.block
    }

    /// Threads per block.
    pub fn block_dim(&self) -> u32 {
        self.config.block_dim
    }

    /// Blocks in the launch.
    pub fn grid_dim(&self) -> u32 {
        self.config.grid_dim
    }

    /// Warp width of the device.
    pub fn warp_size(&self) -> u32 {
        self.device.warp_size
    }

    /// Iterate over the thread indices of this block.
    pub fn threads(&self) -> std::ops::Range<u32> {
        0..self.config.block_dim
    }

    /// Record one warp-instruction-forming access.
    #[inline]
    fn record_access(&mut self, site: Site, kind: AccessKind, tid: u32, addr: u64) {
        if !self.record {
            return;
        }
        self.scratch.record(site, kind, tid, addr);
    }

    /// Global load by thread `tid` at word index `idx` of `buf`.
    #[inline]
    pub fn ld_global(&mut self, site: Site, tid: u32, buf: BufId, idx: usize) -> f32 {
        self.record_access(site, AccessKind::GlobalLoad, tid, idx as u64);
        self.mem.load(buf, idx)
    }

    /// Global store by thread `tid`.
    #[inline]
    pub fn st_global(&mut self, site: Site, tid: u32, buf: BufId, idx: usize, v: f32) {
        self.record_access(site, AccessKind::GlobalStore, tid, idx as u64);
        self.mem.store(buf, idx, v);
    }

    /// Shared-memory load.
    ///
    /// # Panics
    ///
    /// Panics if `idx` exceeds the declared shared allocation — simulated
    /// kernels must size their shared memory explicitly, like real ones.
    #[inline]
    pub fn ld_shared(&mut self, site: Site, tid: u32, idx: usize) -> f32 {
        self.record_access(site, AccessKind::Shared, tid, idx as u64);
        self.scratch.shared[idx]
    }

    /// Shared-memory store.
    ///
    /// # Panics
    ///
    /// Panics if `idx` exceeds the declared shared allocation.
    #[inline]
    pub fn st_shared(&mut self, site: Site, tid: u32, idx: usize, v: f32) {
        self.record_access(site, AccessKind::Shared, tid, idx as u64);
        self.scratch.shared[idx] = v;
    }

    /// Record a whole warp-row access of warp `warp` in one call.
    /// Equivalent to per-lane [`record_access`] calls in the order of
    /// [`Row::for_each`] — for a [`Row::Affine`], lanes `lo..lo + lanes`
    /// at `base + i * stride`.
    /// Uniform full-warp rows take the accounting engine's fast path,
    /// where an affine row costs O(1).
    ///
    /// [`record_access`]: Self::record_access
    #[inline]
    fn record_row(&mut self, site: Site, kind: AccessKind, warp: u32, row: Row<'_>) {
        if !self.record {
            return;
        }
        self.scratch.record_row(site, kind, warp, row);
    }

    /// Warp-batched global load: one accounting row for warp `warp`, one
    /// value loaded per active lane of `row` into `out[lane]`. A
    /// unit-stride [`Row::Affine`] is one bounds-checked slice copy.
    ///
    /// # Panics
    ///
    /// Panics if any active address is out of the buffer's bounds.
    pub fn ld_global_row(
        &mut self,
        site: Site,
        warp: u32,
        buf: BufId,
        row: Row<'_>,
        out: &mut [f32],
    ) {
        self.record_row(site, AccessKind::GlobalLoad, warp, row);
        match row.unit_run() {
            Some((base, lanes)) => self.mem.load_run(buf, base, &mut out[lanes]),
            None => row.for_each(|l, addr| out[l] = self.mem.load(buf, addr as usize)),
        }
    }

    /// Warp-batched global store: one accounting row, `vals[lane]` stored
    /// at each active lane's address, in ascending lane order.
    ///
    /// # Panics
    ///
    /// Panics if any active address is out of the buffer's bounds.
    pub fn st_global_row(&mut self, site: Site, warp: u32, buf: BufId, row: Row<'_>, vals: &[f32]) {
        self.record_row(site, AccessKind::GlobalStore, warp, row);
        match row.unit_run() {
            Some((base, lanes)) => self.mem.store_run(buf, base, &vals[lanes]),
            None => row.for_each(|l, addr| self.mem.store(buf, addr as usize, vals[l])),
        }
    }

    /// Warp-batched shared-memory load.
    ///
    /// # Panics
    ///
    /// Panics if any active address exceeds the declared shared
    /// allocation, like [`Self::ld_shared`].
    pub fn ld_shared_row(&mut self, site: Site, warp: u32, row: Row<'_>, out: &mut [f32]) {
        self.record_row(site, AccessKind::Shared, warp, row);
        let shared = &self.scratch.shared;
        match row.unit_run() {
            Some((base, lanes)) => {
                let n = lanes.len();
                out[lanes].copy_from_slice(&shared[base..][..n]);
            }
            None => row.for_each(|l, addr| out[l] = shared[addr as usize]),
        }
    }

    /// Warp-batched shared-memory store.
    ///
    /// # Panics
    ///
    /// Panics if any active address exceeds the declared shared
    /// allocation.
    pub fn st_shared_row(&mut self, site: Site, warp: u32, row: Row<'_>, vals: &[f32]) {
        self.record_row(site, AccessKind::Shared, warp, row);
        let shared = &mut self.scratch.shared;
        match row.unit_run() {
            Some((base, lanes)) => {
                let n = lanes.len();
                shared[base..][..n].copy_from_slice(&vals[lanes]);
            }
            None => row.for_each(|l, addr| shared[addr as usize] = vals[l]),
        }
    }

    /// Barrier between phases (`__syncthreads()`).
    pub fn sync(&mut self) {
        self.syncs += 1;
    }

    /// Charge `n` compute instructions to thread `tid`.
    #[inline]
    pub fn compute(&mut self, tid: u32, n: u32) {
        if self.record {
            self.scratch.compute[tid as usize] += n as u64;
        }
    }

    /// Count `n` floating-point operations (for GFLOPS reporting; does not
    /// affect timing beyond the instructions charged via [`Self::compute`]).
    #[inline]
    pub fn count_flops(&mut self, n: u64) {
        if self.record {
            self.flops += n;
        }
    }

    /// Finish the block: collapse the remaining recorded warp rows into
    /// counters, leaving the scratch ready for the next block.
    pub(crate) fn finalize(self) -> BlockCounters {
        self.scratch.finish_block(self.syncs, self.flops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::GlobalMem;

    fn device() -> DeviceSpec {
        DeviceSpec::tesla_c2050()
    }

    #[test]
    fn coalesced_sweep_counts_one_transaction_per_warp() {
        let d = device();
        let mut mem = GlobalMem::new();
        let buf = mem.alloc(64);
        let cfg = LaunchConfig::new(1, 64, 0);
        let mut scratch = BlockScratch::new();
        let view = mem.shared_view();
        let mut ctx = BlockCtx::new(&d, &view, 0, cfg, true, &mut scratch);
        for t in ctx.threads() {
            let _ = ctx.ld_global(0, t, buf, t as usize);
        }
        let c = ctx.finalize();
        assert_eq!(c.warp_load_insts, 2); // 64 threads = 2 warps
        assert_eq!(c.load_transactions, 2); // 1 per warp
    }

    #[test]
    fn strided_sweep_counts_many_transactions() {
        let d = device();
        let mut mem = GlobalMem::new();
        let buf = mem.alloc(32 * 32);
        let cfg = LaunchConfig::new(1, 32, 0);
        let mut scratch = BlockScratch::new();
        let view = mem.shared_view();
        let mut ctx = BlockCtx::new(&d, &view, 0, cfg, true, &mut scratch);
        for t in ctx.threads() {
            let _ = ctx.ld_global(0, t, buf, t as usize * 32);
        }
        let c = ctx.finalize();
        assert_eq!(c.warp_load_insts, 1);
        assert_eq!(c.load_transactions, 32);
    }

    #[test]
    fn occurrences_group_separately() {
        // Each thread loads twice; k-th loads of all lanes form one warp
        // instruction each.
        let d = device();
        let mut mem = GlobalMem::new();
        let buf = mem.alloc(64);
        let cfg = LaunchConfig::new(1, 32, 0);
        let mut scratch = BlockScratch::new();
        let view = mem.shared_view();
        let mut ctx = BlockCtx::new(&d, &view, 0, cfg, true, &mut scratch);
        for t in ctx.threads() {
            let _ = ctx.ld_global(0, t, buf, t as usize);
            let _ = ctx.ld_global(0, t, buf, 32 + t as usize);
        }
        let c = ctx.finalize();
        assert_eq!(c.warp_load_insts, 2);
        assert_eq!(c.load_transactions, 2);
    }

    #[test]
    fn shared_memory_works_and_counts_conflicts() {
        let d = device();
        let mut mem = GlobalMem::new();
        let cfg = LaunchConfig::new(1, 32, 64);
        let mut scratch = BlockScratch::new();
        let view = mem.shared_view();
        let mut ctx = BlockCtx::new(&d, &view, 0, cfg, true, &mut scratch);
        for t in ctx.threads() {
            ctx.st_shared(0, t, (t as usize * 2) % 64, t as f32);
        }
        ctx.sync();
        for t in ctx.threads() {
            let _ = ctx.ld_shared(1, t, (t as usize * 2) % 64);
        }
        let c = ctx.finalize();
        assert_eq!(c.syncs, 1);
        assert_eq!(c.shared_insts, 2);
        // Stride-2 on 32 banks: 2-way conflict on both instructions.
        assert_eq!(c.shared_cycles, 4);
    }

    #[test]
    fn compute_is_warp_max() {
        let d = device();
        let mut mem = GlobalMem::new();
        let cfg = LaunchConfig::new(1, 32, 0);
        let mut scratch = BlockScratch::new();
        let view = mem.shared_view();
        let mut ctx = BlockCtx::new(&d, &view, 0, cfg, true, &mut scratch);
        for t in ctx.threads() {
            // Divergent work: lane 5 does 10 instructions, others 1.
            ctx.compute(t, if t == 5 { 10 } else { 1 });
        }
        let c = ctx.finalize();
        assert_eq!(c.warp_compute_insts, 10);
    }

    #[test]
    fn recording_off_skips_accounting_but_not_effects() {
        let d = device();
        let mut mem = GlobalMem::new();
        let buf = mem.alloc(4);
        let cfg = LaunchConfig::new(1, 4, 0);
        let mut scratch = BlockScratch::new();
        let view = mem.shared_view();
        let mut ctx = BlockCtx::new(&d, &view, 0, cfg, false, &mut scratch);
        for t in ctx.threads() {
            ctx.st_global(0, t, buf, t as usize, t as f32 + 1.0);
            ctx.compute(t, 100);
        }
        let c = ctx.finalize();
        assert_eq!(c.warp_store_insts, 0);
        assert_eq!(c.warp_compute_insts, 0);
        assert_eq!(mem.read(buf), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = BlockCounters {
            warp_load_insts: 1,
            flops: 10,
            ..Default::default()
        };
        let b = BlockCounters {
            warp_load_insts: 2,
            flops: 5,
            syncs: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.warp_load_insts, 3);
        assert_eq!(a.flops, 15);
        assert_eq!(a.syncs, 1);
    }
}
