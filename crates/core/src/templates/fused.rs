//! Horizontally-integrated reduction kernel (§4.3.2 of the paper).
//!
//! When a duplicate splitter feeds several reduction actors (e.g. a
//! program needing both the maximum *and* the sum of an array), launching
//! one kernel per actor reads the input once per actor and pays the launch
//! and synchronization overheads repeatedly. Horizontal actor integration
//! fuses the siblings into one kernel: each element window is loaded from
//! global memory *once* and fed to every reduction's element expression;
//! the block then tree-reduces one shared-memory segment per sibling.

use gpu_sim::{BlockCtx, BufId, Kernel, LaunchConfig};

use super::{affine, compute_row, index_row, mask_run, Body, SITE_STATE};
use crate::layout::Layout;
use crate::templates::reduction::{
    store_accs, tree_reduce, ReduceSpec, SITE_ELEM, SITE_OUT, SITE_SHARED_LD,
};
use crate::warp::{for_lanes, WarpIo, MAX_LANES};

/// One kernel computing several reductions over the same input.
#[derive(Debug, Clone)]
pub struct FusedReduce {
    /// Sibling reductions; all must pop the same number of items per
    /// element (they observe the same duplicated stream).
    pub specs: Vec<ReduceSpec>,
    pub name: String,
    pub n_arrays: usize,
    pub n_elements: usize,
    pub block_dim: u32,
    pub in_buf: BufId,
    pub in_layout: Layout,
    /// Receives `n_arrays * specs.len()` results, sibling-major per array
    /// (matching a round-robin joiner's interleaving).
    pub out_buf: BufId,
}

impl FusedReduce {
    fn pops_per_elem(&self) -> usize {
        self.specs.first().map_or(0, |s| s.pops_per_elem)
    }
}

/// Warp-granular window reader: pops come from the pre-loaded per-lane
/// element windows (`windows[j * ws + lane]` is lane `lane`'s `j`-th
/// popped word, so siblings share loads), state loads go straight to
/// global as whole rows (the fused template has no scalar-promotion
/// cache).
struct WindowWarpIo<'c, 'd, 's> {
    ctx: &'c mut BlockCtx<'d>,
    body: &'s Body,
    warp: u32,
    windows: &'s [f32],
    ws: usize,
    cursor: [usize; MAX_LANES],
}

impl WarpIo for WindowWarpIo<'_, '_, '_> {
    fn pop_row(&mut self, mask: u64, out: &mut [f32]) {
        for_lanes(mask, out.len(), |l| {
            out[l] = self.windows[self.cursor[l] * self.ws + l];
            self.cursor[l] += 1;
        });
    }

    fn peek_row(&mut self, _: u64, _: &[i64], _: &mut [f32]) {
        panic!("peek rejected by reduction detection")
    }

    fn push_row(&mut self, _: u64, _: &[f32]) {
        panic!("push inside reduction element")
    }

    fn state_load_row(&mut self, id: u16, _: &str, mask: u64, idx: &[i64], out: &mut [f32]) {
        let (slot, buf) = self.body.array(id);
        let mut addrs = [0u64; MAX_LANES];
        let row = index_row(mask, idx, &mut addrs);
        self.ctx
            .ld_global_row(SITE_STATE + slot, self.warp, buf, row, out);
    }

    fn state_store_row(&mut self, _: u16, _: &str, _: u64, _: &[i64], _: &[f32]) {
        panic!("state store inside reduction element")
    }
}

impl Kernel for FusedReduce {
    fn name(&self) -> &str {
        &self.name
    }

    fn config(&self) -> LaunchConfig {
        LaunchConfig::new(
            self.n_arrays as u32,
            self.block_dim,
            self.block_dim * self.specs.len() as u32,
        )
    }

    fn run_block(&self, block: u32, ctx: &mut BlockCtx<'_>) {
        let array = block as usize;
        let k = self.specs.len();
        let bdim = self.block_dim as usize;

        // Phase 1: whole warps march the grid-stride loop in lockstep.
        // Each popped word becomes one batched load row shared by every
        // sibling, each sibling's (branch-free) element program runs once
        // per warp, and the final accumulators land in shared memory as
        // one row per sibling.
        let ppe = self.pops_per_elem();
        let total_elems = self.n_arrays * self.n_elements;
        let ws = ctx.warp_size() as usize;
        let mut wfs: Vec<_> = self
            .specs
            .iter()
            .map(|s| s.elem.frame(ws.min(bdim)))
            .collect();
        let per_elem = self.in_layout.strides(ppe, total_elems).0;
        // The shared pop windows live in the first sibling's pooled frame.
        let mut windows = wfs
            .first_mut()
            .map(|wf| std::mem::take(&mut wf.aux))
            .unwrap_or_default();
        windows.clear();
        windows.resize(ppe * ws, 0.0);
        let mut accs = vec![[0.0f32; MAX_LANES]; k];
        let mut elems = [0usize; MAX_LANES];

        let mut lane0 = 0usize;
        while lane0 < bdim {
            let live = (bdim - lane0).min(ws);
            let warp = (lane0 / ws) as u32;
            for (s, spec) in self.specs.iter().enumerate() {
                accs[s][..live].fill(spec.op.identity());
            }
            let mut mask = 0u64;
            for (l, elem) in elems.iter_mut().enumerate().take(live) {
                *elem = lane0 + l;
                if *elem < self.n_elements {
                    mask |= 1 << l;
                }
            }
            while mask != 0 {
                // Lanes hold consecutive elements and run dry from the
                // top lane down: each window word is one progression.
                let (lo, lanes) = mask_run(mask).expect("live lanes are one run");
                let first_elem = array * self.n_elements + elems[lo];
                for (j, w) in windows.chunks_exact_mut(ws).enumerate() {
                    let first = self.in_layout.addr(first_elem, j, ppe, total_elems);
                    let row = affine(lo, lanes, first, per_elem);
                    ctx.ld_global_row(SITE_ELEM, warp, self.in_buf, row, w);
                }
                for (s, spec) in self.specs.iter().enumerate() {
                    let wf = &mut wfs[s];
                    spec.elem.start(wf, mask, live, |l| elems[l] as i64);
                    let mut io = WindowWarpIo {
                        ctx,
                        body: &spec.elem,
                        warp,
                        windows: &windows,
                        ws,
                        cursor: [0; MAX_LANES],
                    };
                    let row = spec.elem.eval_row(wf, mask, &mut io);
                    // This template counts one flop (the combine) per
                    // element, not the element body's own count.
                    ctx.count_flops(mask.count_ones() as u64);
                    compute_row(ctx, warp, mask, spec.elem.compute);
                    for_lanes(mask, live, |l| {
                        accs[s][l] = spec.op.apply(accs[s][l], row[l]);
                    });
                }
                let mut next = 0u64;
                for_lanes(mask, live, |l| {
                    elems[l] += bdim;
                    if elems[l] < self.n_elements {
                        next |= 1 << l;
                    }
                });
                mask = next;
            }
            for (s, acc) in accs.iter().enumerate() {
                store_accs(ctx, warp, s * bdim + lane0, live, acc);
            }
            lane0 += ws;
        }
        if let Some(wf) = wfs.first_mut() {
            wf.aux = windows;
        }
        ctx.sync();

        // Phase 2: one tree reduction per sibling segment.
        for (s, spec) in self.specs.iter().enumerate() {
            tree_reduce(ctx, spec.op, 0, s * bdim, bdim);
        }
        ctx.sync();

        // Phase 3: lane 0 applies init/post and writes each output.
        for (s, (spec, mut wf)) in self.specs.iter().zip(wfs).enumerate() {
            let combined = ctx.ld_shared(SITE_SHARED_LD, 0, s * bdim);
            let v = spec.finish(combined, &mut wf);
            ctx.st_global(SITE_OUT, 0, self.out_buf, array * k + s, v);
            spec.elem.give(wf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::reduction::CombineOp;
    use crate::templates::tests::{raw, spec};
    use gpu_sim::{launch, DeviceSpec, ExecMode, GlobalMem};
    use streamir::graph::bindings;
    use streamir::ir::Expr;

    fn assert_close(a: f32, b: f32) {
        let tol = 1e-4 * b.abs().max(1.0);
        assert!((a - b).abs() <= tol, "{a} != {b}");
    }

    #[test]
    fn fused_max_and_sum_match_separate() {
        let device = DeviceSpec::tesla_c2050();
        let n = 10_000usize;
        let data: Vec<f32> = (0..n).map(|i| ((i * 31) % 101) as f32 - 50.0).collect();
        let want_sum: f32 = data.iter().sum();
        let want_max = data.iter().cloned().fold(f32::NEG_INFINITY, f32::max);

        let mut mem = GlobalMem::new();
        let in_buf = mem.alloc_from(&data);
        let out_buf = mem.alloc(2);
        let k = FusedReduce {
            specs: vec![raw(CombineOp::Max), raw(CombineOp::Add)],
            name: "max_sum".into(),
            n_arrays: 1,
            n_elements: n,
            block_dim: 256,
            in_buf,
            in_layout: Layout::RowMajor,
            out_buf,
        };
        let fused_stats = launch(&device, &mut mem, &k, ExecMode::Full);
        assert_close(mem.read(out_buf)[0], want_max);
        assert_close(mem.read(out_buf)[1], want_sum);

        // The fusion claim: one fused kernel loads the input once, two
        // separate kernels load it twice.
        use crate::templates::reduction::BlockReduce;
        let mut mem2 = GlobalMem::new();
        let in2 = mem2.alloc_from(&data);
        let o2 = mem2.alloc(1);
        let single = BlockReduce {
            spec: raw(CombineOp::Add),
            name: "sum".into(),
            n_arrays: 1,
            n_elements: n,
            arrays_per_block: 1,
            chunks: 1,
            block_dim: 256,
            in_buf: in2,
            in_layout: Layout::RowMajor,
            out_buf: o2,
            out_stride: 1,
            out_offset: 0,
            partials: false,
        };
        let single_stats = launch(&device, &mut mem2, &single, ExecMode::Full);
        assert!(
            fused_stats.totals.load_transactions < 1.5 * single_stats.totals.load_transactions,
            "fused loads {} should be ~1x a single reduction's {}",
            fused_stats.totals.load_transactions,
            single_stats.totals.load_transactions
        );
    }

    #[test]
    fn fused_multiple_arrays_sibling_major_output() {
        let device = DeviceSpec::tesla_c2050();
        let (n_arrays, n_elements) = (5, 640);
        let data: Vec<f32> = (0..n_arrays * n_elements)
            .map(|i| ((i * 7) % 29) as f32)
            .collect();
        let mut mem = GlobalMem::new();
        let in_buf = mem.alloc_from(&data);
        let out_buf = mem.alloc(n_arrays * 2);
        let k = FusedReduce {
            specs: vec![raw(CombineOp::Min), raw(CombineOp::Add)],
            name: "min_sum".into(),
            n_arrays,
            n_elements,
            block_dim: 128,
            in_buf,
            in_layout: Layout::RowMajor,
            out_buf,
        };
        launch(&device, &mut mem, &k, ExecMode::Full);
        for a in 0..n_arrays {
            let slice = &data[a * n_elements..(a + 1) * n_elements];
            let want_min = slice.iter().cloned().fold(f32::INFINITY, f32::min);
            let want_sum: f32 = slice.iter().sum();
            assert_close(mem.read(out_buf)[a * 2], want_min);
            assert_close(mem.read(out_buf)[a * 2 + 1], want_sum);
        }
    }

    #[test]
    fn fused_with_elem_transform_and_post() {
        // Fuses snrm2 (sqrt of sum of squares) with sasum (sum of abs).
        let device = DeviceSpec::tesla_c2050();
        let data: Vec<f32> = (0..1024).map(|i| (i % 7) as f32 - 3.0).collect();
        let want_nrm2 = data.iter().map(|x| x * x).sum::<f32>().sqrt();
        let want_asum: f32 = data.iter().map(|x| x.abs()).sum();

        let mut mem = GlobalMem::new();
        let in_buf = mem.alloc_from(&data);
        let out_buf = mem.alloc(2);
        let binds = bindings(&[]);
        // One pop per element: square via pow so the shared window
        // (sized by pops_per_elem) is read exactly once.
        let square = Expr::Call {
            intrinsic: streamir::ir::Intrinsic::Pow,
            args: vec![Expr::Pop, Expr::Float(2.0)],
        };
        let sqrt = Expr::Call {
            intrinsic: streamir::ir::Intrinsic::Sqrt,
            args: vec![Expr::var("acc")],
        };
        let nrm2 = spec(CombineOp::Add, square, 1, Some(("acc", sqrt)), &binds, &[]);
        let abs = Expr::Call {
            intrinsic: streamir::ir::Intrinsic::Abs,
            args: vec![Expr::Pop],
        };
        let asum = spec(CombineOp::Add, abs, 1, None, &binds, &[]);
        let k = FusedReduce {
            specs: vec![nrm2, asum],
            name: "nrm2_asum".into(),
            n_arrays: 1,
            n_elements: data.len(),
            block_dim: 256,
            in_buf,
            in_layout: Layout::RowMajor,
            out_buf,
        };
        launch(&device, &mut mem, &k, ExecMode::Full);
        assert_close(mem.read(out_buf)[0], want_nrm2);
        assert_close(mem.read(out_buf)[1], want_asum);
    }
}
