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

use gpu_sim::{BlockCtx, BufId};

use crate::bytecode::Program;
use crate::warp::{for_lanes, full_mask};

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

/// Split the thread range `t0..t0 + n` of a block into per-warp pieces and
/// call `f(warp, mask)` for each, `mask` holding the piece's lanes (lane
/// `l` is thread `warp * ws + l`). The cooperative sweeps of the templates
/// issue their loads and stores through this as whole warp rows.
fn for_warp_rows(ws: usize, t0: usize, n: usize, mut f: impl FnMut(u32, u64)) {
    let mut t = t0;
    while t < t0 + n {
        let lane0 = t % ws;
        let count = (ws - lane0).min(t0 + n - t);
        f((t / ws) as u32, full_mask(count) << lane0);
        t += count;
    }
}
