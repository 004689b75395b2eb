//! Kernel templates — the code the compiler "generates".
//!
//! Each template is a parametric kernel executable on the GPU simulator,
//! mirroring a CUDA code template of the original system (the CUDA text
//! itself is emitted by [`crate::codegen`]):
//!
//! * [`map`] — one thread per firing / loop iteration, with layout choice
//!   and thread coarsening;
//! * [`reduction`] — Figure 8's block-reduce kernel, run as the
//!   single-kernel and the two-kernel reductions;
//! * [`stencil`] — the super-tile shared-memory stencil of Figure 6;
//! * [`fused`] — horizontally-integrated sibling reductions.
//!
//! Every template runs its work bodies through one [`Body`].

pub mod fused;
pub mod map;
pub mod reduction;
pub mod stencil;

use std::sync::Arc;

use gpu_sim::mem::{for_each_lane, mask_run};
use gpu_sim::{BlockCtx, BufId, Row};
use streamir::error::{Error, Result};
use streamir::rates::Bindings;
use streamir::value::Value;

use crate::analysis::opcount::OpCounts;
use crate::bytecode::Program;
use crate::warp::{self, for_lanes, HostIo, WarpFrame, WarpFramePool, WarpIo, MAX_LANES};

pub use fused::FusedReduce;
pub use map::MapKernel;
pub use reduction::{elem_counts, merge_kernel, two_kernel_reduce, BlockReduce, ReduceSpec};
pub use stencil::StencilKernel;

/// First access-site id of bound state arrays, shared by every template:
/// array `slot` is accounted at site `SITE_STATE + slot`.
const SITE_STATE: u32 = 8;

/// A plan-lowered work body bound once per launch — the body machinery
/// every template shares. [`Body::new`] binds the program's parameters,
/// finds its preset slot and resolves its state arrays; blocks then only
/// take a pooled frame, reset it per warp of firings and seed the preset.
#[derive(Debug, Clone)]
pub struct Body {
    program: Arc<Program>,
    /// The slot prototype under the launch's bindings.
    proto: Vec<Value>,
    /// Slot of the preset the kernel seeds per lane (a loop variable, or
    /// the accumulator of a reduction's post expression), when the body
    /// reads it.
    preset: Option<u16>,
    /// Program state id → (slot, buffer): `slot` is the array's position
    /// in the kernel's bound list, accounted at site `SITE_STATE + slot`.
    state: Vec<(u32, BufId)>,
    /// Instructions charged per firing.
    compute: u32,
    /// Floating-point operations counted per firing.
    flops: u64,
    /// Warp-frame pool shared with the engine, so frames recycle across
    /// blocks and launches.
    frames: Arc<WarpFramePool>,
}

impl Body {
    /// Bind `program` for one launch: its parameters under `binds`, the
    /// slot of `preset`, and every state array it touches to the first
    /// entry of `state` of that name. `counts` gives the per-firing
    /// compute and flop charges.
    ///
    /// # Errors
    ///
    /// [`Error::UnboundParam`] when `binds` lacks a parameter the body
    /// reads; [`Error::Runtime`] when `state` lacks an array it touches.
    pub fn new(
        program: Arc<Program>,
        binds: &Bindings,
        preset: Option<&str>,
        state: &[(String, BufId)],
        counts: OpCounts,
        frames: Arc<WarpFramePool>,
    ) -> Result<Body> {
        let proto = program.bind(binds)?;
        let state = program
            .state_names()
            .iter()
            .map(|name| match state.iter().position(|(n, _)| n == name) {
                Some(slot) => Ok((slot as u32, state[slot].1)),
                None => Err(Error::Runtime(format!("unbound state array `{name}`"))),
            })
            .collect::<Result<_>>()?;
        Ok(Body {
            preset: preset.and_then(|p| program.slot_of(p)),
            program,
            proto,
            state,
            compute: counts.compute as u32,
            flops: counts.flops as u64,
            frames,
        })
    }

    /// A pooled frame fitted for `lanes` lanes of this body; hand it back
    /// with [`Body::give`].
    fn frame(&self, lanes: usize) -> WarpFrame {
        let mut wf = self.frames.take();
        wf.fit(&self.program, lanes);
        wf
    }

    fn give(&self, wf: WarpFrame) {
        self.frames.give(wf);
    }

    /// Reset `wf` for one warp of firings and seed the preset of each set
    /// lane of `mask` (of `live` resident ones) with `value(lane)`.
    fn start(&self, wf: &mut WarpFrame, mask: u64, live: usize, value: impl Fn(usize) -> i64) {
        wf.reset(&self.proto);
        if let Some(slot) = self.preset {
            let row = wf.i64_row_mut(slot);
            for_lanes(mask, live, |l| row[l] = value(l));
        }
    }

    /// Run the body warp-wide over the lanes of `mask`.
    fn eval(&self, wf: &mut WarpFrame, mask: u64, io: &mut dyn WarpIo) {
        warp::eval(&self.program, wf, mask, io);
    }

    /// Run an expression body warp-wide; the row holds each set lane's
    /// value.
    fn eval_row<'f>(&self, wf: &'f mut WarpFrame, mask: u64, io: &mut dyn WarpIo) -> &'f [f32] {
        warp::eval_row(&self.program, wf, mask, io)
    }

    /// Run an expression body once with its `f32` preset set to `x` (a
    /// firing with no lanes to batch) on `wf`, refitted to one lane. Such
    /// bodies are pure; any I/O one attempted would panic on the empty
    /// `HostIo`.
    fn eval_one(&self, wf: &mut WarpFrame, x: f32) -> f32 {
        wf.fit(&self.program, 1);
        wf.reset(&self.proto);
        if let Some(slot) = self.preset {
            wf.f32_row_mut(slot)[0] = x;
        }
        warp::eval_row(&self.program, wf, 1, &mut HostIo::default())[0]
    }

    /// Charge the per-firing flops and instructions to every lane of
    /// warp `warp` set in `mask`.
    fn charge(&self, ctx: &mut BlockCtx<'_>, warp: u32, mask: u64) {
        ctx.count_flops(mask.count_ones() as u64 * self.flops);
        compute_row(ctx, warp, mask, self.compute);
    }

    /// The `(slot, buffer)` of program state id `id`.
    fn array(&self, id: u16) -> (u32, BufId) {
        self.state[id as usize]
    }
}

/// Block-level cache of state loads (scalar promotion): uniform state
/// reads — scale factors, rotation coefficients — hit global memory once
/// per block instead of once per unit, like the constant cache of a real
/// GPU. Capped so array-indexed state stays honestly counted.
#[derive(Default)]
struct StateCache(Vec<((u32, i64), f32)>);

impl StateCache {
    /// Maximum distinct `(slot, idx)` keys promoted per block.
    const CAP: usize = 64;

    fn probe(&self, slot: u32, idx: i64) -> Option<f32> {
        self.0
            .iter()
            .find(|(key, _)| *key == (slot, idx))
            .map(|(_, v)| *v)
    }

    fn insert(&mut self, slot: u32, idx: i64, v: f32) {
        if self.0.len() < Self::CAP {
            self.0.push(((slot, idx), v));
        }
    }

    /// One state-load opcode for a warp: `out[lane]` receives the value
    /// at `idx[lane]`. Rows mix hits (no access) and misses (one access by
    /// thread `tid0 + lane`), served per lane in ascending lane order.
    fn load_row(
        &mut self,
        ctx: &mut BlockCtx<'_>,
        tid0: u32,
        (slot, buf): (u32, BufId),
        mask: u64,
        idx: &[i64],
        out: &mut [f32],
    ) {
        for_lanes(mask, out.len(), |l| {
            let idx = idx[l];
            out[l] = self.probe(slot, idx).unwrap_or_else(|| {
                let v = ctx.ld_global(SITE_STATE + slot, tid0 + l as u32, buf, idx as usize);
                self.insert(slot, idx, v);
                v
            });
        });
    }
}

/// The warp row whose lanes `lo..lo + lanes` access `base + i * stride`:
/// what every template site that knows its row is a progression hands to
/// `gpu_sim`, in the templates' index type.
fn affine(lo: usize, lanes: usize, base: usize, stride: usize) -> Row<'static> {
    Row::Affine {
        lo: lo as u32,
        lanes: lanes as u32,
        base: base as u64,
        stride: stride as u64,
    }
}

/// An evaluator-produced operand row (peek offsets, state indices) whose
/// active lanes are one contiguous run stepping by a constant: lane
/// `lo + i` holds `first + i * step`, and `last` is the run's final lane.
struct LaneRun {
    lo: usize,
    lanes: usize,
    first: i64,
    last: i64,
    step: i64,
}

/// Test a row once for the [`LaneRun`] shape; the `WarpIo` impls then map
/// the run's two ends through their index arithmetic instead of every
/// lane.
fn lane_run(mask: u64, vals: &[i64]) -> Option<LaneRun> {
    let (lo, lanes) = mask_run(mask)?;
    let active = &vals[lo..lo + lanes];
    let (first, last) = (active[0], active[lanes - 1]);
    let step = active.get(1).map_or(0, |second| second.wrapping_sub(first));
    let mut deviation = 0i64;
    for pair in active.windows(2) {
        deviation |= pair[1].wrapping_sub(pair[0]) ^ step;
    }
    (deviation == 0).then_some(LaneRun {
        lo,
        lanes,
        first,
        last,
        step,
    })
}

/// The row of one pop or push per set lane of `mask`: lane `l`, at its
/// cursor `j = cursors[l]`, addresses `addr(l, j)`; every served cursor
/// advances by one. `stride` is the address step between adjacent lanes
/// at equal cursors, when the lanes' work items are consecutive (`None`
/// when they are not). A contiguous run of lanes whose cursors agree —
/// they do unless the lanes diverged around a pop or push — then goes out
/// as the descriptor from the run's first address; any other row is mapped
/// lane by lane into `buf`.
fn cursor_row<'a>(
    mask: u64,
    cursors: &mut [usize; MAX_LANES],
    stride: Option<usize>,
    buf: &'a mut [u64; MAX_LANES],
    addr: impl Fn(usize, usize) -> usize,
) -> Row<'a> {
    if let (Some(stride), Some((lo, lanes))) = (stride, mask_run(mask)) {
        let run = &mut cursors[lo..lo + lanes];
        let j = run[0];
        if run.iter().all(|&c| c == j) {
            run.fill(j + 1);
            return affine(lo, lanes, addr(lo, j), stride);
        }
    }
    for_each_lane(mask, |l| {
        buf[l] = addr(l, cursors[l]) as u64;
        cursors[l] += 1;
    });
    Row::Lanes { mask, addrs: buf }
}

/// A row of word indices produced by the evaluator (`idx[lane]` per set
/// lane of `mask`) as a `gpu_sim` row: the descriptor when the indices are
/// a non-negative, non-descending [`LaneRun`], otherwise lane addresses
/// written into `buf`. A negative index becomes an address far past any
/// buffer, so the access panics as out of bounds.
fn index_row<'a>(mask: u64, idx: &[i64], buf: &'a mut [u64; MAX_LANES]) -> Row<'a> {
    match lane_run(mask, idx) {
        Some(run) if run.first >= 0 && run.step >= 0 => {
            affine(run.lo, run.lanes, run.first as usize, run.step as usize)
        }
        _ => {
            for_lanes(mask, idx.len(), |l| buf[l] = idx[l] as u64);
            Row::Lanes { mask, addrs: buf }
        }
    }
}

/// Charge `n` compute instructions to every lane of warp `warp` set in
/// `mask` (thread `warp * warp_size + lane`).
fn compute_row(ctx: &mut BlockCtx<'_>, warp: u32, mask: u64, n: u32) {
    let tid0 = warp * ctx.warp_size();
    for_each_lane(mask, |l| ctx.compute(tid0 + l as u32, n));
}

/// Split the thread range `t0..t0 + n` of a block into per-warp pieces and
/// call `f(warp, lo, lanes)` for each: the piece is lanes `lo..lo + lanes`
/// of warp `warp` (lane `l` is thread `warp * ws + l`). The cooperative
/// sweeps of the templates issue their loads and stores through this as
/// whole affine warp rows.
fn for_warp_rows(ws: usize, t0: usize, n: usize, mut f: impl FnMut(u32, usize, usize)) {
    let mut t = t0;
    while t < t0 + n {
        let lane0 = t % ws;
        let count = (ws - lane0).min(t0 + n - t);
        f((t / ws) as u32, lane0, count);
        t += count;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::sync::Arc;

    use gpu_sim::BufId;
    use streamir::ir::{Expr, Stmt};
    use streamir::rates::Bindings;

    use super::{elem_counts, Body, ReduceSpec};
    use crate::analysis::opcount::{body_counts, OpCounts};
    use crate::analysis::reduction::CombineOp;
    use crate::bytecode::{compile_body, compile_expr, Ty};

    /// A hand-built kernel's work body: `stmts` lowered with `preset` as
    /// its `i64` loop variable, bound under `binds` and charged its
    /// `body_counts`.
    pub(crate) fn body(
        stmts: &[Stmt],
        binds: &Bindings,
        preset: Option<&str>,
        state: &[(String, BufId)],
    ) -> Body {
        let presets: Vec<_> = preset.iter().map(|p| (*p, Ty::I64)).collect();
        let program = Arc::new(compile_body(stmts, binds, &presets).unwrap());
        let counts = body_counts(stmts, binds);
        Body::new(program, binds, preset, state, counts, Arc::default()).unwrap()
    }

    /// A hand-built reduction: `elem` over loop variable `i`, and `post`
    /// over its named accumulator.
    pub(crate) fn spec(
        op: CombineOp,
        elem: Expr,
        pops_per_elem: usize,
        post: Option<(&str, Expr)>,
        binds: &Bindings,
        state: &[(String, BufId)],
    ) -> ReduceSpec {
        let program = Arc::new(compile_expr(&elem, binds, &[("i", Ty::I64)]).unwrap());
        let counts = elem_counts(&elem, binds, pops_per_elem);
        let elem = Body::new(program, binds, Some("i"), state, counts, Arc::default()).unwrap();
        let post = post.map(|(acc, post)| {
            let program = Arc::new(compile_expr(&post, binds, &[(acc, Ty::F32)]).unwrap());
            Body::new(
                program,
                binds,
                Some(acc),
                &[],
                OpCounts::default(),
                Arc::default(),
            )
            .unwrap()
        });
        ReduceSpec {
            op,
            init: op.identity(),
            pops_per_elem,
            elem,
            post,
        }
    }

    /// The spec combining raw elements with `op`.
    pub(crate) fn raw(op: CombineOp) -> ReduceSpec {
        spec(op, Expr::Pop, 1, None, &Bindings::new(), &[])
    }
}
