//! Kernel templates — the code the compiler "generates".
//!
//! Each template is a parametric kernel executable on the GPU simulator,
//! mirroring a CUDA code template of the original system (the CUDA text
//! itself is emitted by [`crate::codegen`]):
//!
//! * [`map`] — one thread per firing / loop iteration, with layout choice
//!   and thread coarsening;
//! * [`reduction`] — Figure 8's single-kernel and two-kernel reductions;
//! * [`stencil`] — the super-tile shared-memory stencil of Figure 6;
//! * [`fused`] — horizontally-integrated sibling reductions.

pub mod fused;
pub mod map;
pub mod reduction;
pub mod stencil;

use gpu_sim::mem::{for_each_lane, mask_run};
use gpu_sim::{BlockCtx, BufId, Row};

use crate::bytecode::Program;
use crate::warp::{for_lanes, MAX_LANES};

pub use fused::FusedReduce;
pub use map::MapKernel;
pub use reduction::{
    merge_kernel, two_kernel_reduce, InitialReduce, ReduceSpec, SingleKernelReduce,
};
pub use stencil::StencilKernel;

/// First access-site id of bound state arrays, shared by every template:
/// array `slot` is accounted at site `SITE_STATE + slot`.
const SITE_STATE: u32 = 8;

/// The dense program-state-id → kernel-state-index table [`state_ref`]
/// consults: entry `id` is the position in `state` of the array the
/// program's state id `id` names, when bound.
fn state_slots(program: &Program, state: &[(String, BufId)]) -> Vec<Option<u32>> {
    program
        .state_names()
        .iter()
        .map(|n| state.iter().position(|(s, _)| s == n).map(|i| i as u32))
        .collect()
}

/// Resolve a program state id to a kernel's `(slot, buffer)` pair. The
/// precomputed `slots` table is guarded by a name check so hand-built
/// kernels that edit `state` after compilation still resolve correctly
/// (via the search).
fn state_ref(
    state: &[(String, BufId)],
    slots: &[Option<u32>],
    id: u16,
    array: &str,
) -> (u32, BufId) {
    if let Some(Some(slot)) = slots.get(id as usize) {
        if let Some((n, b)) = state.get(*slot as usize) {
            if n == array {
                return (*slot, *b);
            }
        }
    }
    state
        .iter()
        .enumerate()
        .find(|(_, (n, _))| n == array)
        .map(|(i, (_, b))| (i as u32, *b))
        .unwrap_or_else(|| panic!("unbound state array `{array}`"))
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
