//! Stream-reduction kernel templates (§4.2.1, Figure 8 of the paper).
//!
//! A reduction consumes `n_arrays` arrays of `n_elements` elements each and
//! produces one value per array. Two translation schemes exist:
//!
//! * **Single-kernel** ([`SingleKernelReduce`]): one block per array (or
//!   per few arrays under horizontal thread integration). Each thread
//!   grid-strides over the array combining elements into a register, dumps
//!   partials into shared memory, then the block tree-reduces: loop L1
//!   halves the active threads with barriers down to warp width, loop L2
//!   finishes within one warp without barriers (redundant lanes instead of
//!   divergence, exactly as Figure 8 argues). Best when there are enough
//!   arrays to fill the device.
//!
//! * **Two-kernel** ([`two_kernel_reduce`]): an *initial reduction kernel*
//!   chunks each array across many blocks (there is no inter-block
//!   synchronization, so partials go back to global memory), then a *merge
//!   kernel* reduces the per-block partials. Best when arrays are long and
//!   few — e.g. a dot product of two million-element vectors.

use std::sync::{Arc, OnceLock};

use gpu_sim::{BlockCtx, BufId, Kernel, LaunchConfig};
use streamir::ir::Expr;
use streamir::rates::Bindings;
use streamir::value::Value;

use super::{affine, compute_row, cursor_row, for_warp_rows, state_ref, state_slots, StateCache};
use crate::analysis::opcount::body_counts;
use crate::analysis::reduction::{CombineOp, ReductionPattern};
use crate::bytecode::{self, Ty};
use crate::layout::Layout;
use crate::warp::{self, for_lanes, HostIo, WarpFrame, WarpFramePool, WarpIo, MAX_LANES};

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
    /// Per-element expression.
    pub elem: Expr,
    /// Loop variable bound to the element index within the array.
    pub loop_var: String,
    /// Pops per element.
    pub pops_per_elem: usize,
    /// Accumulator name used by `post`.
    pub acc_name: String,
    /// Final transform (e.g. `sqrt(acc)`); `None` pushes the accumulator.
    pub post: Option<Expr>,
    /// Parameter bindings.
    pub binds: Bindings,
    /// Bound state arrays.
    pub state: Vec<(String, BufId)>,
    /// Bytecode execution machinery (programs, frame pool); `Default`
    /// compiles lazily on first use.
    pub exec: ReduceExec,
}

/// Bytecode machinery attached to a [`ReduceSpec`]: the (lazily) compiled
/// element/post programs and the engine's frame pool. `Default` leaves
/// the cell empty so hand-built specs compile on first use; the runtime
/// injects plan-precompiled programs and the shared pool.
#[derive(Debug, Clone, Default)]
pub struct ReduceExec {
    /// Plan-precompiled `(elem, post)` programs; when present, the lazy
    /// cell binds these instead of re-lowering per launch.
    pub precompiled: Option<(Arc<bytecode::Program>, Option<Arc<bytecode::Program>>)>,
    cell: OnceLock<Arc<CompiledReduce>>,
    /// Warp-frame pool shared with the engine (injected by the runtime).
    pub warp_frames: Arc<WarpFramePool>,
}

/// A [`ReduceSpec`]'s programs bound against its bindings.
#[derive(Debug)]
pub struct CompiledReduce {
    pub(crate) elem: Arc<bytecode::Program>,
    pub(crate) elem_proto: Vec<Value>,
    pub(crate) loop_slot: Option<u16>,
    /// Element-program state id → index into `ReduceSpec::state`.
    pub(crate) state_slots: Vec<Option<u32>>,
    /// [`ReduceSpec::compute_per_elem`], charged per element evaluated.
    pub(crate) compute_per_elem: u32,
    post: Option<(Arc<bytecode::Program>, Vec<Value>, Option<u16>)>,
}

impl ReduceSpec {
    /// Build a spec from a detected pattern.
    pub fn from_pattern(p: &ReductionPattern, binds: Bindings) -> ReduceSpec {
        let post = if p.post_is_identity() {
            None
        } else {
            Some(p.post.clone())
        };
        ReduceSpec {
            op: p.op,
            init: p.init,
            elem: p.elem.clone(),
            loop_var: p.loop_var.clone(),
            pops_per_elem: p.pops_per_elem,
            acc_name: p.acc.clone(),
            post,
            binds,
            state: Vec::new(),
            exec: ReduceExec::default(),
        }
    }

    /// The trivial spec summing raw elements (used by merge kernels).
    pub fn raw(op: CombineOp, binds: Bindings) -> ReduceSpec {
        ReduceSpec {
            op,
            init: op.identity(),
            elem: Expr::Pop,
            loop_var: "i".into(),
            pops_per_elem: 1,
            acc_name: "acc".into(),
            post: None,
            binds,
            state: Vec::new(),
            exec: ReduceExec::default(),
        }
    }

    /// Instruction estimate per element (for the performance model).
    pub fn compute_per_elem(&self) -> f64 {
        let body = [streamir::ir::Stmt::Push(self.elem.clone())];
        body_counts(&body, &self.binds).compute + 1.0
    }

    /// The spec's bound bytecode programs, compiled on first use (or
    /// adopted from [`ReduceExec::precompiled`]).
    pub(crate) fn compiled(&self) -> &Arc<CompiledReduce> {
        self.exec.cell.get_or_init(|| {
            let (elem, post) = match &self.exec.precompiled {
                Some((e, p)) => (e.clone(), p.clone()),
                None => {
                    let e = Arc::new(
                        bytecode::compile_expr(
                            &self.elem,
                            &self.binds,
                            &[(&self.loop_var, Ty::I64)],
                        )
                        .expect("element expression lowers to bytecode"),
                    );
                    let p = self.post.as_ref().map(|post| {
                        Arc::new(
                            bytecode::compile_expr(post, &self.binds, &[(&self.acc_name, Ty::F32)])
                                .expect("post expression lowers to bytecode"),
                        )
                    });
                    (e, p)
                }
            };
            let elem_proto = elem.bind(&self.binds).expect("bindings cover element");
            let loop_slot = elem.slot_of(&self.loop_var);
            let state_slots = state_slots(&elem, &self.state);
            let post = post.map(|p| {
                let proto = p.bind(&self.binds).expect("bindings cover post");
                let acc_slot = p.slot_of(&self.acc_name);
                (p, proto, acc_slot)
            });
            Arc::new(CompiledReduce {
                elem,
                elem_proto,
                loop_slot,
                state_slots,
                compute_per_elem: self.compute_per_elem() as u32,
                post,
            })
        })
    }

    /// Apply the final transform to a combined value (once per output: a
    /// firing with no lanes to batch) on the block's pooled frame, refitted
    /// to one lane of the post program. Post expressions are pure; any I/O
    /// one attempted would panic on the empty `HostIo`.
    pub(crate) fn apply_post(&self, acc: f32, wf: &mut WarpFrame) -> f32 {
        let Some((prog, proto, acc_slot)) = &self.compiled().post else {
            return acc;
        };
        wf.fit(prog, 1);
        wf.reset(proto);
        if let Some(s) = acc_slot {
            wf.f32_row_mut(*s)[0] = acc;
        }
        warp::eval_row(prog, wf, 1, &mut HostIo::default())[0]
    }
}

/// Warp-granular element reader: maps the j-th pop of each lane's element
/// to device addresses under the chosen layout. Element expressions are
/// branch-free (`select` is eager), so a warp of elements evaluates with
/// a constant mask; each lane reads its own `(array, element)` pair and
/// whole address rows flow to the accounting engine in one call.
struct ElemWarpIo<'c, 'd, 's> {
    ctx: &'c mut BlockCtx<'d>,
    spec: &'s ReduceSpec,
    warp: u32,
    tid0: u32,
    in_buf: BufId,
    in_layout: Layout,
    /// Per-lane global element index.
    globals: [usize; MAX_LANES],
    /// True when the masked lanes' elements are consecutive
    /// (`globals[l + 1] == globals[l] + 1`).
    consecutive: bool,
    total_elems: usize,
    /// Per-lane pop cursor within the current element.
    pops: [usize; MAX_LANES],
    /// The block's scalar-promotion cache for unit-invariant state loads.
    state_cache: &'c mut StateCache,
    /// Element-program state id → `spec.state` index.
    state_slots: &'s [Option<u32>],
}

impl WarpIo for ElemWarpIo<'_, '_, '_> {
    fn pop_row(&mut self, mask: u64, out: &mut [f32]) {
        let (ppe, total, layout) = (self.spec.pops_per_elem, self.total_elems, self.in_layout);
        let stride = self.consecutive.then(|| layout.strides(ppe, total).0);
        let globals = &self.globals;
        let mut addrs = [0u64; MAX_LANES];
        let row = cursor_row(mask, &mut self.pops, stride, &mut addrs, |l, j| {
            layout.addr(globals[l], j, ppe, total)
        });
        self.ctx
            .ld_global_row(SITE_ELEM, self.warp, self.in_buf, row, out);
    }

    fn peek_row(&mut self, _: u64, _: &[i64], _: &mut [f32]) {
        panic!("peek rejected by reduction detection")
    }

    fn push_row(&mut self, _: u64, _: &[f32]) {
        panic!("push inside reduction element")
    }

    fn state_load_row(&mut self, id: u16, array: &str, mask: u64, idx: &[i64], out: &mut [f32]) {
        let target = state_ref(&self.spec.state, self.state_slots, id, array);
        self.state_cache
            .load_row(self.ctx, self.tid0, target, mask, idx, out);
    }

    fn state_store_row(&mut self, _: u16, _: &str, _: u64, _: &[i64], _: &[f32]) {
        panic!("state store inside reduction element")
    }
}

/// One warp-wide accumulation sweep shared by [`SingleKernelReduce`] and
/// [`InitialReduce`] phase 1: lanes carry `(array, element, accumulator)`
/// triples, each round evaluates one element row via [`crate::warp::eval_row`]
/// and folds it in, and lanes whose element stream runs dry drop out of
/// the round mask (the reduction analogue of uneven trip counts).
#[allow(clippy::too_many_arguments)]
fn warp_accumulate(
    ctx: &mut BlockCtx<'_>,
    spec: &ReduceSpec,
    comp: &CompiledReduce,
    wf: &mut WarpFrame,
    state_cache: &mut StateCache,
    warp_idx: u32,
    tid0: u32,
    live: usize,
    in_buf: BufId,
    in_layout: Layout,
    n_elements: usize,
    total_elems: usize,
    arrays: &[usize; MAX_LANES],
    elems: &mut [usize; MAX_LANES],
    stride: usize,
    limit: usize,
    mut mask: u64,
    acc: &mut [f32; MAX_LANES],
) {
    let cpe = comp.compute_per_elem;
    let fpe = 1 + spec.pops_per_elem as u64;
    // Every lane advances by the same `stride` per round, so lanes that
    // start on consecutive elements of one array stay consecutive.
    let mut consecutive = true;
    let mut prev = None;
    for_lanes(mask, live, |l| {
        let at = (arrays[l], elems[l]);
        consecutive &= prev.is_none_or(|(a, e)| (a, e + 1) == at);
        prev = Some(at);
    });
    while mask != 0 {
        wf.reset(&comp.elem_proto);
        if let Some(slot) = comp.loop_slot {
            let var = wf.i64_row_mut(slot);
            for_lanes(mask, live, |l| var[l] = elems[l] as i64);
        }
        let mut globals = [0usize; MAX_LANES];
        for_lanes(mask, live, |l| {
            globals[l] = arrays[l] * n_elements + elems[l];
        });
        let mut io = ElemWarpIo {
            ctx,
            spec,
            warp: warp_idx,
            tid0,
            in_buf,
            in_layout,
            globals,
            consecutive,
            total_elems,
            pops: [0; MAX_LANES],
            state_cache: &mut *state_cache,
            state_slots: &comp.state_slots,
        };
        let row = warp::eval_row(&comp.elem, wf, mask, &mut io);
        ctx.count_flops(mask.count_ones() as u64 * fpe);
        let mut still = 0u64;
        compute_row(ctx, warp_idx, mask, cpe);
        for_lanes(mask, live, |l| {
            acc[l] = spec.op.apply(acc[l], row[l]);
            elems[l] += stride;
            if elems[l] < limit {
                still |= 1 << l;
            }
        });
        mask = still;
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

/// Single-kernel reduction: each block reduces one array (or
/// `arrays_per_block` arrays, splitting its threads among them).
#[derive(Debug, Clone)]
pub struct SingleKernelReduce {
    pub spec: ReduceSpec,
    pub name: String,
    pub n_arrays: usize,
    pub n_elements: usize,
    /// Arrays handled by one block (horizontal thread integration).
    pub arrays_per_block: usize,
    pub block_dim: u32,
    pub in_buf: BufId,
    pub in_layout: Layout,
    pub out_buf: BufId,
    /// Output written at `array * out_stride + out_offset` — lets unfused
    /// split-join siblings interleave into a shared round-robin buffer.
    pub out_stride: usize,
    pub out_offset: usize,
}

impl SingleKernelReduce {
    fn threads_per_array(&self) -> usize {
        (self.block_dim as usize / self.arrays_per_block).max(1)
    }
}

impl Kernel for SingleKernelReduce {
    fn name(&self) -> &str {
        &self.name
    }

    fn config(&self) -> LaunchConfig {
        let grid = self.n_arrays.div_ceil(self.arrays_per_block).max(1) as u32;
        LaunchConfig::new(grid, self.block_dim, self.block_dim)
    }

    fn run_block(&self, block: u32, ctx: &mut BlockCtx<'_>) {
        let tpa = self.threads_per_array();
        let total_elems = self.n_arrays * self.n_elements;
        let comp = self.spec.compiled().clone();
        let mut state_cache = StateCache::default();
        // Phase 1: grid-stride accumulation into registers, then shared.
        let ws = ctx.warp_size() as usize;
        let bdim = self.block_dim as usize;
        let mut wf = self.spec.exec.warp_frames.take();
        wf.fit(&comp.elem, ws.min(bdim));
        let mut lane0 = 0usize;
        while lane0 < bdim {
            let live = (bdim - lane0).min(ws);
            let mut acc = [self.spec.op.identity(); MAX_LANES];
            let mut arrays = [0usize; MAX_LANES];
            let mut elems = [0usize; MAX_LANES];
            let mut mask = 0u64;
            for l in 0..live {
                let tid = lane0 + l;
                let local_array = tid / tpa;
                arrays[l] = block as usize * self.arrays_per_block + local_array;
                elems[l] = tid % tpa;
                if local_array < self.arrays_per_block
                    && arrays[l] < self.n_arrays
                    && elems[l] < self.n_elements
                {
                    mask |= 1 << l;
                }
            }
            let warp_idx = (lane0 / ws) as u32;
            warp_accumulate(
                ctx,
                &self.spec,
                &comp,
                &mut wf,
                &mut state_cache,
                warp_idx,
                lane0 as u32,
                live,
                self.in_buf,
                self.in_layout,
                self.n_elements,
                total_elems,
                &arrays,
                &mut elems,
                tpa,
                self.n_elements,
                mask,
                &mut acc,
            );
            store_accs(ctx, warp_idx, lane0, live, &acc);
            lane0 += ws;
        }
        ctx.sync();
        // Phase 2: tree reduction per array group.
        for local_array in 0..self.arrays_per_block {
            let base = local_array * tpa;
            tree_reduce(ctx, self.spec.op, base, base, tpa);
        }
        ctx.sync();
        // First lane of each group writes the result.
        for local_array in 0..self.arrays_per_block {
            let array = block as usize * self.arrays_per_block + local_array;
            if array >= self.n_arrays {
                continue;
            }
            let tid = (local_array * tpa) as u32;
            let combined = ctx.ld_shared(SITE_SHARED_LD, tid, local_array * tpa);
            let v = self.spec.op.apply(combined, self.spec.init);
            let v = self.spec.apply_post(v, &mut wf);
            ctx.st_global(
                SITE_OUT,
                tid,
                self.out_buf,
                array * self.out_stride.max(1) + self.out_offset,
                v,
            );
        }
        self.spec.exec.warp_frames.give(wf);
    }
}

/// The initial (chunking) kernel of the two-kernel scheme.
#[derive(Debug, Clone)]
pub struct InitialReduce {
    pub spec: ReduceSpec,
    pub name: String,
    pub n_arrays: usize,
    pub n_elements: usize,
    /// Blocks per array.
    pub initial_blocks: usize,
    pub block_dim: u32,
    pub in_buf: BufId,
    pub in_layout: Layout,
    /// Receives `n_arrays * initial_blocks` partials.
    pub partials_buf: BufId,
}

impl Kernel for InitialReduce {
    fn name(&self) -> &str {
        &self.name
    }

    fn config(&self) -> LaunchConfig {
        LaunchConfig::new(
            (self.n_arrays * self.initial_blocks) as u32,
            self.block_dim,
            self.block_dim,
        )
    }

    fn run_block(&self, block: u32, ctx: &mut BlockCtx<'_>) {
        let array = block as usize / self.initial_blocks;
        let chunk = block as usize % self.initial_blocks;
        // Chunk boundaries aligned to the transaction size so every
        // grid-stride warp load stays within one segment.
        let chunk_size = self
            .n_elements
            .div_ceil(self.initial_blocks)
            .next_multiple_of(32);
        let lo = (chunk * chunk_size).min(self.n_elements);
        let hi = ((chunk + 1) * chunk_size).min(self.n_elements);
        let total_elems = self.n_arrays * self.n_elements;
        let comp = self.spec.compiled().clone();
        let mut state_cache = StateCache::default();

        let ws = ctx.warp_size() as usize;
        let bdim = self.block_dim as usize;
        let mut wf = self.spec.exec.warp_frames.take();
        wf.fit(&comp.elem, ws.min(bdim));
        let mut arrays = [0usize; MAX_LANES];
        arrays.fill(array);
        let mut lane0 = 0usize;
        while lane0 < bdim {
            let live = (bdim - lane0).min(ws);
            let mut acc = [self.spec.op.identity(); MAX_LANES];
            let mut elems = [0usize; MAX_LANES];
            let mut mask = 0u64;
            for (l, elem) in elems.iter_mut().enumerate().take(live) {
                *elem = lo + lane0 + l;
                if *elem < hi {
                    mask |= 1 << l;
                }
            }
            let warp_idx = (lane0 / ws) as u32;
            warp_accumulate(
                ctx,
                &self.spec,
                &comp,
                &mut wf,
                &mut state_cache,
                warp_idx,
                lane0 as u32,
                live,
                self.in_buf,
                self.in_layout,
                self.n_elements,
                total_elems,
                &arrays,
                &mut elems,
                bdim,
                hi,
                mask,
                &mut acc,
            );
            store_accs(ctx, warp_idx, lane0, live, &acc);
            lane0 += ws;
        }
        self.spec.exec.warp_frames.give(wf);
        ctx.sync();
        tree_reduce(ctx, self.spec.op, 0, 0, self.block_dim as usize);
        ctx.sync();
        let combined = ctx.ld_shared(SITE_SHARED_LD, 0, 0);
        ctx.st_global(
            SITE_OUT,
            0,
            self.partials_buf,
            array * self.initial_blocks + chunk,
            combined,
        );
    }
}

/// Build the merge kernel that finishes a two-kernel reduction: reduces
/// each array's `initial_blocks` partials, folds in the initial value and
/// applies the final transform.
pub fn merge_kernel(
    spec: &ReduceSpec,
    n_arrays: usize,
    initial_blocks: usize,
    partials_buf: BufId,
    out_buf: BufId,
) -> SingleKernelReduce {
    let mut raw = ReduceSpec::raw(spec.op, spec.binds.clone());
    raw.init = spec.init;
    raw.post = spec.post.clone();
    raw.acc_name = spec.acc_name.clone();
    raw.exec.warp_frames = spec.exec.warp_frames.clone();
    SingleKernelReduce {
        spec: raw,
        name: "reduce_merge".into(),
        n_arrays,
        n_elements: initial_blocks,
        arrays_per_block: 1,
        block_dim: (initial_blocks.next_power_of_two().max(32) as u32).min(256),
        in_buf: partials_buf,
        in_layout: Layout::RowMajor,
        out_buf,
        out_stride: 1,
        out_offset: 0,
    }
}

/// Convenience: the two kernels of the two-kernel scheme, in launch order.
///
/// The caller allocates `partials_buf` with `n_arrays * initial_blocks`
/// words. The initial kernel's `init`/`post` are suppressed (identity
/// partials); the merge kernel applies both.
#[allow(clippy::too_many_arguments)]
pub fn two_kernel_reduce(
    spec: ReduceSpec,
    n_arrays: usize,
    n_elements: usize,
    initial_blocks: usize,
    block_dim: u32,
    in_buf: BufId,
    in_layout: Layout,
    partials_buf: BufId,
    out_buf: BufId,
) -> (InitialReduce, SingleKernelReduce) {
    let merge = merge_kernel(&spec, n_arrays, initial_blocks, partials_buf, out_buf);
    let initial = InitialReduce {
        spec,
        name: "reduce_initial".into(),
        n_arrays,
        n_elements,
        initial_blocks,
        block_dim,
        in_buf,
        in_layout,
        partials_buf,
    };
    (initial, merge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{launch, DeviceSpec, ExecMode, GlobalMem};
    use streamir::graph::bindings;
    use streamir::ir::Intrinsic;

    fn sum_spec() -> ReduceSpec {
        ReduceSpec::raw(CombineOp::Add, bindings(&[]))
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
        let k = SingleKernelReduce {
            spec: sum_spec(),
            name: "sum".into(),
            n_arrays: 1,
            n_elements: n,
            arrays_per_block: 1,
            block_dim: 256,
            in_buf,
            in_layout: Layout::RowMajor,
            out_buf,
            out_stride: 1,
            out_offset: 0,
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
        let k = SingleKernelReduce {
            spec: sum_spec(),
            name: "sum".into(),
            n_arrays,
            n_elements,
            arrays_per_block: 1,
            block_dim: 128,
            in_buf,
            in_layout: Layout::RowMajor,
            out_buf,
            out_stride: 1,
            out_offset: 0,
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
        let k = SingleKernelReduce {
            spec: sum_spec(),
            name: "sum_hti".into(),
            n_arrays,
            n_elements,
            arrays_per_block: 4,
            block_dim: 128, // 32 threads per array
            in_buf,
            in_layout: Layout::RowMajor,
            out_buf,
            out_stride: 1,
            out_offset: 0,
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
            initial_blocks,
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
        let spec = ReduceSpec {
            op: CombineOp::Max,
            init: CombineOp::Max.identity(),
            elem: Expr::Call {
                intrinsic: Intrinsic::Abs,
                args: vec![Expr::Pop],
            },
            loop_var: "i".into(),
            pops_per_elem: 1,
            acc_name: "m".into(),
            post: Some(Expr::mul(Expr::var("m"), Expr::Float(2.0))),
            binds: bindings(&[]),
            state: Vec::new(),
            exec: ReduceExec::default(),
        };
        let k = SingleKernelReduce {
            spec,
            name: "isamax".into(),
            n_arrays: 1,
            n_elements: data.len(),
            arrays_per_block: 1,
            block_dim: 32,
            in_buf,
            in_layout: Layout::RowMajor,
            out_buf,
            out_stride: 1,
            out_offset: 0,
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
        let spec = ReduceSpec {
            op: CombineOp::Add,
            init: 0.0,
            elem: Expr::mul(Expr::Pop, Expr::Pop),
            loop_var: "i".into(),
            pops_per_elem: 2,
            acc_name: "acc".into(),
            post: None,
            binds: bindings(&[]),
            state: Vec::new(),
            exec: ReduceExec::default(),
        };

        // Row-major (interleaved as-is).
        let mut mem = GlobalMem::new();
        let in_buf = mem.alloc_from(&interleaved);
        let out_buf = mem.alloc(1);
        let k = SingleKernelReduce {
            spec: spec.clone(),
            name: "sdot".into(),
            n_arrays: 1,
            n_elements: n,
            arrays_per_block: 1,
            block_dim: 256,
            in_buf,
            in_layout: Layout::RowMajor,
            out_buf,
            out_stride: 1,
            out_offset: 0,
        };
        let rm_stats = launch(&device, &mut mem, &k, ExecMode::Full);
        assert_close(mem.read(out_buf)[0], expected);

        // Restructured: x's then y's.
        let mut mem2 = GlobalMem::new();
        let in2 = mem2.alloc_from(crate::layout::restructure(&interleaved, 2));
        let out2 = mem2.alloc(1);
        let k2 = SingleKernelReduce {
            spec,
            name: "sdot_t".into(),
            n_arrays: 1,
            n_elements: n,
            arrays_per_block: 1,
            block_dim: 256,
            in_buf: in2,
            in_layout: Layout::Transposed,
            out_buf: out2,
            out_stride: 1,
            out_offset: 0,
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
        let mut spec = ReduceSpec {
            op: CombineOp::Add,
            init: 0.0,
            elem: Expr::mul(
                Expr::Pop,
                Expr::StateLoad {
                    array: "x".into(),
                    index: Box::new(Expr::var("i")),
                },
            ),
            loop_var: "i".into(),
            pops_per_elem: 1,
            acc_name: "acc".into(),
            post: None,
            binds: bindings(&[("cols", cols as i64)]),
            state: Vec::new(),
            exec: ReduceExec::default(),
        };
        spec.state.push(("x".into(), x_buf));
        let k = SingleKernelReduce {
            spec,
            name: "tmv_row".into(),
            n_arrays: 1,
            n_elements: cols,
            arrays_per_block: 1,
            block_dim: 128,
            in_buf,
            in_layout: Layout::RowMajor,
            out_buf,
            out_stride: 1,
            out_offset: 0,
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
        let k = SingleKernelReduce {
            spec: ReduceSpec::raw(CombineOp::Mul, bindings(&[])),
            name: "prod".into(),
            n_arrays: 1,
            n_elements: data.len(),
            arrays_per_block: 1,
            block_dim: 32,
            in_buf,
            in_layout: Layout::RowMajor,
            out_buf,
            out_stride: 1,
            out_offset: 0,
        };
        launch(&device, &mut mem, &k, ExecMode::Full);
        assert_close(mem.read(out_buf)[0], 6.0);
    }
}
