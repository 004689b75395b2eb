//! Stream-reduction kernel templates (§4.2.1, Figure 8 of the paper).
//!
//! A reduction consumes `n_arrays` arrays of `n_elements` elements each and
//! produces one value per array. Every variant runs one block-reduce
//! kernel ([`BlockReduce`]): each block folds one or more groups of
//! threads, each group an (array, element range), into registers by
//! grid-striding, dumps the partials into shared memory, then
//! tree-reduces each group: loop L1 halves the active threads with
//! barriers down to warp width, loop L2 finishes within one warp without
//! barriers (redundant lanes instead of divergence, exactly as Figure 8
//! argues). Two translation schemes use it:
//!
//! * **Single-kernel**: one group per array (several per block under
//!   horizontal thread integration) writes the final value. Best when
//!   there are enough arrays to fill the device.
//!
//! * **Two-kernel** ([`two_kernel_reduce`]): an *initial reduction kernel*
//!   chunks each array across many blocks (there is no inter-block
//!   synchronization, so raw partials go back to global memory), then a
//!   *merge kernel* ([`merge_kernel`]) reduces the per-block partials.
//!   Best when arrays are long and few — e.g. a dot product of two
//!   million-element vectors.

use std::sync::{Arc, OnceLock};

use gpu_sim::{BlockCtx, BufId, Kernel, LaunchConfig};
use streamir::ir::{Expr, Stmt};
use streamir::rates::Bindings;

use super::{affine, compute_row, cursor_row, for_warp_rows, Body, StateCache};
use crate::analysis::opcount::{body_counts, OpCounts};
use crate::analysis::reduction::CombineOp;
use crate::bytecode::{self, Program};
use crate::layout::Layout;
use crate::warp::{for_lanes, WarpFrame, WarpIo, MAX_LANES};

// Shared with the fused template, which reuses the row helpers below.
pub(super) const SITE_ELEM: u32 = 0;
const SITE_SHARED_ST: u32 = 1;
pub(super) const SITE_SHARED_LD: u32 = 2;
pub(super) const SITE_OUT: u32 = 3;

/// The reduction semantics shared by all variants.
#[derive(Debug, Clone)]
pub struct ReduceSpec {
    /// Combiner (associative + commutative).
    pub op: CombineOp,
    /// Initial accumulator value (folded in once per output).
    pub init: f32,
    /// Pops per element.
    pub pops_per_elem: usize,
    /// The per-element expression; its preset is the loop variable, bound
    /// to the element index within the array.
    pub elem: Body,
    /// Final transform (e.g. `sqrt(acc)`); its preset is the accumulator.
    /// `None` writes the accumulator.
    pub post: Option<Body>,
}

impl ReduceSpec {
    /// The final value of one output: `init` folded into the combined
    /// value, then the post expression applied on the block's pooled
    /// frame `wf`.
    pub(super) fn finish(&self, combined: f32, wf: &mut WarpFrame) -> f32 {
        let v = self.op.apply(combined, self.init);
        match &self.post {
            Some(post) => post.eval_one(wf, v),
            None => v,
        }
    }
}

/// The per-element charges of a reduction element expression `elem`
/// popping `pops_per_elem` words: its instructions plus the combine, and
/// one flop for the combine plus one per pop.
pub fn elem_counts(elem: &Expr, binds: &Bindings, pops_per_elem: usize) -> OpCounts {
    OpCounts {
        compute: body_counts(&[Stmt::Push(elem.clone())], binds).compute + 1.0,
        flops: (1 + pops_per_elem) as f64,
        ..OpCounts::default()
    }
}

/// Warp-granular element reader: maps the j-th pop of each lane's element
/// to device addresses under the chosen layout. Element expressions are
/// branch-free (`select` is eager), so a warp of elements evaluates with
/// a constant mask; each lane reads its own `(array, element)` pair and
/// whole address rows flow to the accounting engine in one call.
struct ElemWarpIo<'c, 'd, 's> {
    ctx: &'c mut BlockCtx<'d>,
    kernel: &'s BlockReduce,
    warp: u32,
    tid0: u32,
    /// Per-lane global element index.
    globals: [usize; MAX_LANES],
    /// True when the masked lanes' elements are consecutive
    /// (`globals[l + 1] == globals[l] + 1`).
    consecutive: bool,
    /// Per-lane pop cursor within the current element.
    pops: [usize; MAX_LANES],
    /// The block's scalar-promotion cache for unit-invariant state loads.
    state_cache: &'c mut StateCache,
}

impl WarpIo for ElemWarpIo<'_, '_, '_> {
    fn pop_row(&mut self, mask: u64, out: &mut [f32]) {
        let k = self.kernel;
        let (ppe, total, layout) = (k.spec.pops_per_elem, k.n_arrays * k.n_elements, k.in_layout);
        let stride = self.consecutive.then(|| layout.strides(ppe, total).0);
        let globals = &self.globals;
        let mut addrs = [0u64; MAX_LANES];
        let row = cursor_row(mask, &mut self.pops, stride, &mut addrs, |l, j| {
            layout.addr(globals[l], j, ppe, total)
        });
        self.ctx
            .ld_global_row(SITE_ELEM, self.warp, k.in_buf, row, out);
    }

    fn peek_row(&mut self, _: u64, _: &[i64], _: &mut [f32]) {
        panic!("peek rejected by reduction detection")
    }

    fn push_row(&mut self, _: u64, _: &[f32]) {
        panic!("push inside reduction element")
    }

    fn state_load_row(&mut self, id: u16, _: &str, mask: u64, idx: &[i64], out: &mut [f32]) {
        let target = self.kernel.spec.elem.array(id);
        self.state_cache
            .load_row(self.ctx, self.tid0, target, mask, idx, out);
    }

    fn state_store_row(&mut self, _: u16, _: &str, _: u64, _: &[i64], _: &[f32]) {
        panic!("state store inside reduction element")
    }
}

/// Store each live lane's accumulator to consecutive shared words from
/// `base` (the warp's first thread's slot) as one row.
pub(super) fn store_accs(
    ctx: &mut BlockCtx<'_>,
    warp_idx: u32,
    base: usize,
    live: usize,
    acc: &[f32; MAX_LANES],
) {
    ctx.st_shared_row(SITE_SHARED_ST, warp_idx, affine(0, live, base, 1), acc);
}

/// One level of a shared-memory tree reduction, issued as warp rows:
/// thread `t0 + lane` combines `shared[base + lane]` with
/// `shared[base + lane + active]` for `lane < active`. No lane reads a
/// word another lane of the level writes, so the row order is free.
fn tree_level(ctx: &mut BlockCtx<'_>, op: CombineOp, t0: usize, base: usize, active: usize) {
    let ws = ctx.warp_size() as usize;
    let (mut a, mut b) = ([0.0f32; MAX_LANES], [0.0f32; MAX_LANES]);
    for_warp_rows(ws, t0, active, |warp, lo, lanes| {
        let near = base + warp as usize * ws + lo - t0;
        compute_row(ctx, warp, crate::warp::full_mask(lanes) << lo, 1);
        ctx.ld_shared_row(SITE_SHARED_LD, warp, affine(lo, lanes, near, 1), &mut a);
        ctx.ld_shared_row(
            SITE_SHARED_LD,
            warp,
            affine(lo, lanes, near + active, 1),
            &mut b,
        );
        for l in lo..lo + lanes {
            a[l] = op.apply(a[l], b[l]);
        }
        ctx.st_shared_row(SITE_SHARED_ST, warp, affine(lo, lanes, near, 1), &a);
    });
}

/// Block-level tree reduction over shared memory (Figure 8's loops L1/L2):
/// threads `t0..` fold the `size` words from `shared[base]` in halving
/// levels, leaving the combined value in `shared[base]`. While more than
/// one warp participates (L1) every level ends at a barrier; the last warp
/// finishes without one (L2: Figure 8 keeps warp lanes active rather than
/// diverging further). Several groups per block (horizontal thread
/// integration, fused siblings) each call this on their own words.
pub(super) fn tree_reduce(
    ctx: &mut BlockCtx<'_>,
    op: CombineOp,
    t0: usize,
    base: usize,
    size: usize,
) {
    debug_assert!(
        size.is_power_of_two(),
        "reduction groups are power-of-two sized (got {size})"
    );
    let warp = ctx.warp_size() as usize;
    let mut active = size / 2;
    while active >= 1 {
        tree_level(ctx, op, t0, base, active);
        if active >= warp {
            ctx.sync();
        }
        active /= 2;
    }
}

/// The block-reduce kernel. Group `g` of block `b` is the `block_dim /
/// arrays_per_block` threads from `g * block_dim / arrays_per_block`; it
/// reduces chunk `c` of array `a`, where `a * chunks + c = b *
/// arrays_per_block + g`. A chunk is a run of whole 32-element segments, so
/// every grid-stride warp load of a chunked array stays within one
/// transaction segment; with `chunks == 1` it is the whole array.
#[derive(Debug, Clone)]
pub struct BlockReduce {
    pub spec: ReduceSpec,
    pub name: String,
    pub n_arrays: usize,
    pub n_elements: usize,
    /// Groups per block (horizontal thread integration); 1 when chunked.
    pub arrays_per_block: usize,
    /// Chunks (and blocks) per array.
    pub chunks: usize,
    pub block_dim: u32,
    pub in_buf: BufId,
    pub in_layout: Layout,
    pub out_buf: BufId,
    /// Group `a * chunks + c` writes at `(a * chunks + c) * out_stride +
    /// out_offset` — lets unfused split-join siblings interleave into a
    /// shared round-robin buffer.
    pub out_stride: usize,
    pub out_offset: usize,
    /// Write each group's raw combined value (a two-kernel partial)
    /// instead of the final value (`init` folded in, post applied).
    pub partials: bool,
}

impl BlockReduce {
    fn threads_per_group(&self) -> usize {
        (self.block_dim as usize / self.arrays_per_block).max(1)
    }
}

impl Kernel for BlockReduce {
    fn name(&self) -> &str {
        &self.name
    }

    fn config(&self) -> LaunchConfig {
        let groups = self.n_arrays * self.chunks;
        let grid = groups.div_ceil(self.arrays_per_block).max(1) as u32;
        LaunchConfig::new(grid, self.block_dim, self.block_dim)
    }

    fn run_block(&self, block: u32, ctx: &mut BlockCtx<'_>) {
        let (apb, tpg, n) = (
            self.arrays_per_block,
            self.threads_per_group(),
            self.n_elements,
        );
        let chunk_size = n.div_ceil(self.chunks).next_multiple_of(32);
        // (array, first element, element limit) of group `g`.
        let group = |g: usize| {
            let at = block as usize * apb + g;
            let chunk = at % self.chunks;
            let lo = (chunk * chunk_size).min(n);
            (at / self.chunks, lo, ((chunk + 1) * chunk_size).min(n))
        };
        let body = &self.spec.elem;
        let mut state_cache = StateCache::default();
        // Phase 1: grid-stride accumulation into registers, then shared.
        // Lanes carry `(array, element, accumulator)` triples; each round
        // evaluates one element row and folds it in, and lanes whose
        // element stream runs dry drop out of the round mask (the
        // reduction analogue of uneven trip counts).
        let ws = ctx.warp_size() as usize;
        let bdim = self.block_dim as usize;
        let mut wf = body.frame(ws.min(bdim));
        let mut lane0 = 0usize;
        while lane0 < bdim {
            let live = (bdim - lane0).min(ws);
            let warp = (lane0 / ws) as u32;
            let mut acc = [self.spec.op.identity(); MAX_LANES];
            let (mut arrays, mut elems, mut limits) =
                ([0; MAX_LANES], [0; MAX_LANES], [0; MAX_LANES]);
            let mut mask = 0u64;
            for l in 0..live {
                let tid = lane0 + l;
                let (array, lo, hi) = group(tid / tpg);
                (arrays[l], elems[l], limits[l]) = (array, lo + tid % tpg, hi);
                if tid / tpg < apb && array < self.n_arrays && elems[l] < hi {
                    mask |= 1 << l;
                }
            }
            // Every lane advances by the same stride per round, so lanes
            // that start on consecutive elements of one array stay
            // consecutive.
            let mut consecutive = true;
            let mut prev = None;
            for_lanes(mask, live, |l| {
                let at = (arrays[l], elems[l]);
                consecutive &= prev.is_none_or(|(a, e)| (a, e + 1) == at);
                prev = Some(at);
            });
            while mask != 0 {
                body.start(&mut wf, mask, live, |l| elems[l] as i64);
                let mut globals = [0usize; MAX_LANES];
                for_lanes(mask, live, |l| globals[l] = arrays[l] * n + elems[l]);
                let mut io = ElemWarpIo {
                    ctx,
                    kernel: self,
                    warp,
                    tid0: lane0 as u32,
                    globals,
                    consecutive,
                    pops: [0; MAX_LANES],
                    state_cache: &mut state_cache,
                };
                let row = body.eval_row(&mut wf, mask, &mut io);
                body.charge(ctx, warp, mask);
                let mut still = 0u64;
                for_lanes(mask, live, |l| {
                    acc[l] = self.spec.op.apply(acc[l], row[l]);
                    elems[l] += tpg;
                    if elems[l] < limits[l] {
                        still |= 1 << l;
                    }
                });
                mask = still;
            }
            store_accs(ctx, warp, lane0, live, &acc);
            lane0 += ws;
        }
        ctx.sync();
        // Phase 2: tree reduction per group.
        for g in 0..apb {
            tree_reduce(ctx, self.spec.op, g * tpg, g * tpg, tpg);
        }
        ctx.sync();
        // The first thread of each group writes its value.
        for g in 0..apb {
            let (array, _, _) = group(g);
            if array >= self.n_arrays {
                continue;
            }
            let tid = g * tpg;
            let combined = ctx.ld_shared(SITE_SHARED_LD, tid as u32, tid);
            let v = match self.partials {
                true => combined,
                false => self.spec.finish(combined, &mut wf),
            };
            let at = block as usize * apb + g;
            let out = at * self.out_stride.max(1) + self.out_offset;
            ctx.st_global(SITE_OUT, tid as u32, self.out_buf, out, v);
        }
        body.give(wf);
    }
}

/// `pop()` lowered once per process: the element of every merge kernel.
fn pop_program() -> Arc<Program> {
    static POP: OnceLock<Arc<Program>> = OnceLock::new();
    POP.get_or_init(|| {
        Arc::new(bytecode::compile_expr(&Expr::Pop, &Bindings::new(), &[]).expect("`pop()` lowers"))
    })
    .clone()
}

/// Build the merge kernel that finishes a two-kernel reduction: blocks of
/// `merge_block` threads reduce each array's `initial_blocks` partials,
/// fold in the initial value and apply the final transform.
pub fn merge_kernel(
    spec: &ReduceSpec,
    n_arrays: usize,
    (initial_blocks, merge_block): (usize, u32),
    partials_buf: BufId,
    out_buf: BufId,
) -> BlockReduce {
    let binds = Bindings::new();
    let elem = Body::new(
        pop_program(),
        &binds,
        None,
        &[],
        elem_counts(&Expr::Pop, &binds, 1),
        spec.elem.frames.clone(),
    )
    .expect("`pop()` reads no parameter and no state");
    BlockReduce {
        spec: ReduceSpec {
            op: spec.op,
            init: spec.init,
            pops_per_elem: 1,
            elem,
            post: spec.post.clone(),
        },
        name: "reduce_merge".into(),
        n_arrays,
        n_elements: initial_blocks,
        arrays_per_block: 1,
        chunks: 1,
        block_dim: merge_block,
        in_buf: partials_buf,
        in_layout: Layout::RowMajor,
        out_buf,
        out_stride: 1,
        out_offset: 0,
        partials: false,
    }
}

/// The two kernels of the two-kernel scheme, in launch order, under the
/// geometry `(initial_blocks, merge_block)` (see
/// [`crate::opt::two_kernel_geometry`]).
///
/// The caller allocates `partials_buf` with `n_arrays * initial_blocks`
/// words. The initial kernel writes raw partials; the merge kernel folds
/// in `init` and applies the post expression.
#[allow(clippy::too_many_arguments)]
pub fn two_kernel_reduce(
    spec: ReduceSpec,
    n_arrays: usize,
    n_elements: usize,
    geometry: (usize, u32),
    block_dim: u32,
    in_buf: BufId,
    in_layout: Layout,
    partials_buf: BufId,
    out_buf: BufId,
) -> (BlockReduce, BlockReduce) {
    let merge = merge_kernel(&spec, n_arrays, geometry, partials_buf, out_buf);
    let initial = BlockReduce {
        spec,
        name: "reduce_initial".into(),
        n_arrays,
        n_elements,
        arrays_per_block: 1,
        chunks: geometry.0,
        block_dim,
        in_buf,
        in_layout,
        out_buf: partials_buf,
        out_stride: 1,
        out_offset: 0,
        partials: true,
    };
    (initial, merge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{launch, DeviceSpec, ExecMode, GlobalMem};
    use streamir::graph::bindings;
    use streamir::ir::Intrinsic;

    use crate::templates::tests::{raw, spec};

    fn sum_spec() -> ReduceSpec {
        raw(CombineOp::Add)
    }

    fn assert_close(a: f32, b: f32) {
        let tol = 1e-4 * b.abs().max(1.0);
        assert!((a - b).abs() <= tol, "{a} != {b}");
    }

    #[test]
    fn single_kernel_sums_one_array() {
        let device = DeviceSpec::tesla_c2050();
        let mut mem = GlobalMem::new();
        let n = 10_000usize;
        let data: Vec<f32> = (0..n).map(|i| (i % 7) as f32).collect();
        let expected: f32 = data.iter().sum();
        let in_buf = mem.alloc_from(&data);
        let out_buf = mem.alloc(1);
        let k = BlockReduce {
            spec: sum_spec(),
            name: "sum".into(),
            n_arrays: 1,
            n_elements: n,
            arrays_per_block: 1,
            chunks: 1,
            block_dim: 256,
            in_buf,
            in_layout: Layout::RowMajor,
            out_buf,
            out_stride: 1,
            out_offset: 0,
            partials: false,
        };
        launch(&device, &mut mem, &k, ExecMode::Full);
        assert_close(mem.read(out_buf)[0], expected);
    }

    #[test]
    fn single_kernel_many_arrays() {
        let device = DeviceSpec::tesla_c2050();
        let mut mem = GlobalMem::new();
        let (n_arrays, n_elements) = (37, 129); // deliberately odd sizes
        let data: Vec<f32> = (0..n_arrays * n_elements)
            .map(|i| ((i * 13) % 11) as f32 - 5.0)
            .collect();
        let in_buf = mem.alloc_from(&data);
        let out_buf = mem.alloc(n_arrays);
        let k = BlockReduce {
            spec: sum_spec(),
            name: "sum".into(),
            n_arrays,
            n_elements,
            arrays_per_block: 1,
            chunks: 1,
            block_dim: 128,
            in_buf,
            in_layout: Layout::RowMajor,
            out_buf,
            out_stride: 1,
            out_offset: 0,
            partials: false,
        };
        launch(&device, &mut mem, &k, ExecMode::Full);
        for a in 0..n_arrays {
            let expected: f32 = data[a * n_elements..(a + 1) * n_elements].iter().sum();
            assert_close(mem.read(out_buf)[a], expected);
        }
    }

    #[test]
    fn horizontal_thread_integration_multiple_arrays_per_block() {
        let device = DeviceSpec::tesla_c2050();
        let mut mem = GlobalMem::new();
        let (n_arrays, n_elements) = (64, 33);
        let data: Vec<f32> = (0..n_arrays * n_elements).map(|i| (i % 5) as f32).collect();
        let in_buf = mem.alloc_from(&data);
        let out_buf = mem.alloc(n_arrays);
        let k = BlockReduce {
            spec: sum_spec(),
            name: "sum_hti".into(),
            n_arrays,
            n_elements,
            arrays_per_block: 4,
            chunks: 1,
            block_dim: 128, // 32 threads per array
            in_buf,
            in_layout: Layout::RowMajor,
            out_buf,
            out_stride: 1,
            out_offset: 0,
            partials: false,
        };
        let stats = launch(&device, &mut mem, &k, ExecMode::Full);
        assert_eq!(stats.config.grid_dim, 16);
        for a in 0..n_arrays {
            let expected: f32 = data[a * n_elements..(a + 1) * n_elements].iter().sum();
            assert_close(mem.read(out_buf)[a], expected);
        }
    }

    #[test]
    fn two_kernel_matches_fold() {
        let device = DeviceSpec::tesla_c2050();
        let mut mem = GlobalMem::new();
        let n = 1 << 18;
        let data: Vec<f32> = (0..n).map(|i| ((i % 9) as f32) * 0.5).collect();
        let expected: f32 = data.iter().sum();
        let in_buf = mem.alloc_from(&data);
        let initial_blocks = 28;
        let partials = mem.alloc(initial_blocks);
        let out_buf = mem.alloc(1);
        let (k1, k2) = two_kernel_reduce(
            sum_spec(),
            1,
            n,
            (initial_blocks, 32),
            256,
            in_buf,
            Layout::RowMajor,
            partials,
            out_buf,
        );
        launch(&device, &mut mem, &k1, ExecMode::Full);
        launch(&device, &mut mem, &k2, ExecMode::Full);
        assert_close(mem.read(out_buf)[0], expected);
    }

    #[test]
    fn max_reduction_with_post() {
        // isamax-like: max(abs(x)), then post = acc * 2.
        let device = DeviceSpec::tesla_c2050();
        let mut mem = GlobalMem::new();
        let data = vec![1.0, -9.0, 3.5, 2.0, -4.0];
        let in_buf = mem.alloc_from(&data);
        let out_buf = mem.alloc(1);
        let spec = spec(
            CombineOp::Max,
            Expr::Call {
                intrinsic: Intrinsic::Abs,
                args: vec![Expr::Pop],
            },
            1,
            Some(("m", Expr::mul(Expr::var("m"), Expr::Float(2.0)))),
            &bindings(&[]),
            &[],
        );
        let k = BlockReduce {
            spec,
            name: "isamax".into(),
            n_arrays: 1,
            n_elements: data.len(),
            arrays_per_block: 1,
            chunks: 1,
            block_dim: 32,
            in_buf,
            in_layout: Layout::RowMajor,
            out_buf,
            out_stride: 1,
            out_offset: 0,
            partials: false,
        };
        launch(&device, &mut mem, &k, ExecMode::Full);
        assert_close(mem.read(out_buf)[0], 18.0);
    }

    #[test]
    fn dot_product_via_two_pops_and_layouts() {
        // Interleaved (x, y) pairs: elem = pop() * pop().
        let device = DeviceSpec::tesla_c2050();
        let n = 4096usize;
        let mut interleaved = Vec::with_capacity(2 * n);
        for i in 0..n {
            interleaved.push((i % 13) as f32);
            interleaved.push(((i + 3) % 7) as f32);
        }
        let expected: f32 = (0..n)
            .map(|i| interleaved[2 * i] * interleaved[2 * i + 1])
            .sum();
        let spec = spec(
            CombineOp::Add,
            Expr::mul(Expr::Pop, Expr::Pop),
            2,
            None,
            &bindings(&[]),
            &[],
        );

        // Row-major (interleaved as-is).
        let mut mem = GlobalMem::new();
        let in_buf = mem.alloc_from(&interleaved);
        let out_buf = mem.alloc(1);
        let k = BlockReduce {
            spec: spec.clone(),
            name: "sdot".into(),
            n_arrays: 1,
            n_elements: n,
            arrays_per_block: 1,
            chunks: 1,
            block_dim: 256,
            in_buf,
            in_layout: Layout::RowMajor,
            out_buf,
            out_stride: 1,
            out_offset: 0,
            partials: false,
        };
        let rm_stats = launch(&device, &mut mem, &k, ExecMode::Full);
        assert_close(mem.read(out_buf)[0], expected);

        // Restructured: x's then y's.
        let mut mem2 = GlobalMem::new();
        let in2 = mem2.alloc_from(crate::layout::restructure(&interleaved, 2));
        let out2 = mem2.alloc(1);
        let k2 = BlockReduce {
            spec,
            name: "sdot_t".into(),
            n_arrays: 1,
            n_elements: n,
            arrays_per_block: 1,
            chunks: 1,
            block_dim: 256,
            in_buf: in2,
            in_layout: Layout::Transposed,
            out_buf: out2,
            out_stride: 1,
            out_offset: 0,
            partials: false,
        };
        let t_stats = launch(&device, &mut mem2, &k2, ExecMode::Full);
        assert_close(mem2.read(out2)[0], expected);
        assert!(
            t_stats.totals.load_transactions < rm_stats.totals.load_transactions,
            "restructuring should reduce transactions: {} vs {}",
            t_stats.totals.load_transactions,
            rm_stats.totals.load_transactions
        );
    }

    #[test]
    fn state_indexed_elements_tmv_row() {
        // One row-dot: elem = pop() * x[i].
        let device = DeviceSpec::tesla_c2050();
        let cols = 1000usize;
        let row: Vec<f32> = (0..cols).map(|i| (i % 10) as f32).collect();
        let x: Vec<f32> = (0..cols).map(|i| ((i + 1) % 4) as f32).collect();
        let expected: f32 = row.iter().zip(&x).map(|(a, b)| a * b).sum();
        let mut mem = GlobalMem::new();
        let in_buf = mem.alloc_from(&row);
        let x_buf = mem.alloc_from(&x);
        let out_buf = mem.alloc(1);
        let spec = spec(
            CombineOp::Add,
            Expr::mul(
                Expr::Pop,
                Expr::StateLoad {
                    array: "x".into(),
                    index: Box::new(Expr::var("i")),
                },
            ),
            1,
            None,
            &bindings(&[("cols", cols as i64)]),
            &[("x".into(), x_buf)],
        );
        let k = BlockReduce {
            spec,
            name: "tmv_row".into(),
            n_arrays: 1,
            n_elements: cols,
            arrays_per_block: 1,
            chunks: 1,
            block_dim: 128,
            in_buf,
            in_layout: Layout::RowMajor,
            out_buf,
            out_stride: 1,
            out_offset: 0,
            partials: false,
        };
        launch(&device, &mut mem, &k, ExecMode::Full);
        assert_close(mem.read(out_buf)[0], expected);
    }

    #[test]
    fn product_reduction_nonzero_identity() {
        let device = DeviceSpec::tesla_c2050();
        let mut mem = GlobalMem::new();
        let data = vec![1.5, 2.0, 4.0, 0.5];
        let in_buf = mem.alloc_from(&data);
        let out_buf = mem.alloc(1);
        let k = BlockReduce {
            spec: raw(CombineOp::Mul),
            name: "prod".into(),
            n_arrays: 1,
            n_elements: data.len(),
            arrays_per_block: 1,
            chunks: 1,
            block_dim: 32,
            in_buf,
            in_layout: Layout::RowMajor,
            out_buf,
            out_stride: 1,
            out_offset: 0,
            partials: false,
        };
        launch(&device, &mut mem, &k, ExecMode::Full);
        assert_close(mem.read(out_buf)[0], 6.0);
    }
}
