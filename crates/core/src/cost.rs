//! Closed-form cost profiles for the kernel templates.
//!
//! The compiler must decide between kernel variants *without running
//! anything*: each template's per-warp instruction and transaction counts
//! are written down as functions of the launch shape and the input
//! dimensions, and fed to the analytical model. These formulas mirror what
//! the templates actually do; `tests/` cross-checks them against measured
//! simulator statistics.

use gpu_sim::DeviceSpec;
use perfmodel::LaunchProfile;

use crate::layout::Layout;

/// Closed-form profile of a [`crate::templates::MapKernel`] launch.
#[allow(clippy::too_many_arguments)]
pub fn map_profile(
    device: &DeviceSpec,
    units: usize,
    pops_per_unit: usize,
    pushes_per_unit: usize,
    state_accesses_per_unit: f64,
    compute_per_unit: f64,
    flops_per_unit: f64,
    in_layout: Layout,
    out_layout: Layout,
    coarsen: usize,
    block_dim: u32,
) -> LaunchProfile {
    let coarsen = coarsen.max(1);
    let grid = units.div_ceil(block_dim as usize * coarsen).max(1) as u32;
    // SIMT lockstep: the lanes of a warp each process one unit per
    // coarsening step, so a warp issues each access site once per step —
    // per-warp instruction counts are per-unit counts times the coarsening
    // factor, NOT times the lane count.
    let steps = coarsen as f64;
    let in_insts = pops_per_unit as f64 * steps;
    let out_insts = pushes_per_unit as f64 * steps;
    let state_insts = state_accesses_per_unit * steps;
    let mem_insts = in_insts + out_insts + state_insts;
    let t_in = in_layout.transactions_per_access(pops_per_unit, device.warp_size);
    let t_out = out_layout.transactions_per_access(pushes_per_unit, device.warp_size);
    // State arrays are indexed uniformly across a warp (broadcast) in the
    // workloads we lower: one transaction per access.
    let transactions = in_insts * t_in + out_insts * t_out + state_insts;
    LaunchProfile {
        grid_dim: grid,
        block_dim,
        shared_words: 0,
        mem_insts_per_warp: mem_insts,
        transactions_per_mem_inst: if mem_insts > 0.0 {
            transactions / mem_insts
        } else {
            1.0
        },
        compute_insts_per_warp: compute_per_unit * steps,
        shared_cycles_per_warp: 0.0,
        syncs_per_block: 0.0,
        flops: flops_per_unit * units as f64,
    }
}

/// Closed-form profile of a one-chunk [`crate::templates::BlockReduce`]
/// launch: a single-kernel reduction, or the merge stage of the
/// two-kernel scheme.
#[allow(clippy::too_many_arguments)]
pub fn single_reduce_profile(
    device: &DeviceSpec,
    n_arrays: usize,
    n_elements: usize,
    pops_per_elem: usize,
    state_accesses_per_elem: f64,
    compute_per_elem: f64,
    arrays_per_block: usize,
    block_dim: u32,
    in_layout: Layout,
) -> LaunchProfile {
    let apb = arrays_per_block.max(1);
    let grid = n_arrays.div_ceil(apb).max(1) as u32;
    let tpa = (block_dim as usize / apb).max(1);
    let elems_per_thread = n_elements.div_ceil(tpa) as f64;
    // Phase 1: each thread strides over its array.
    let mem_insts = elems_per_thread * (pops_per_elem as f64 + state_accesses_per_elem);
    let t_in = in_layout.transactions_per_access(pops_per_elem, device.warp_size);
    // Phase 2: tree reduction in shared memory.
    let tree_steps = (tpa as f64).log2().max(1.0);
    let shared_cycles = 1.0 + 3.0 * tree_steps;
    let syncs = tree_steps.min((tpa as f64 / device.warp_size as f64).log2().max(0.0)) + 2.0;
    LaunchProfile {
        grid_dim: grid,
        block_dim,
        shared_words: block_dim,
        mem_insts_per_warp: mem_insts,
        transactions_per_mem_inst: (pops_per_elem as f64 * t_in + state_accesses_per_elem)
            / (pops_per_elem as f64 + state_accesses_per_elem).max(1.0),
        compute_insts_per_warp: compute_per_elem * elems_per_thread + 2.0 * tree_steps,
        shared_cycles_per_warp: shared_cycles,
        syncs_per_block: syncs,
        flops: (n_arrays * n_elements) as f64 * (1.0 + pops_per_elem as f64),
    }
    .finish(device)
}

/// Closed-form profile of the initial (chunking)
/// [`crate::templates::BlockReduce`] launch of the two-kernel scheme.
#[allow(clippy::too_many_arguments)]
pub fn initial_reduce_profile(
    device: &DeviceSpec,
    n_arrays: usize,
    n_elements: usize,
    pops_per_elem: usize,
    state_accesses_per_elem: f64,
    compute_per_elem: f64,
    initial_blocks: usize,
    block_dim: u32,
    in_layout: Layout,
) -> LaunchProfile {
    let grid = (n_arrays * initial_blocks).max(1) as u32;
    let chunk = n_elements.div_ceil(initial_blocks);
    let elems_per_thread = chunk.div_ceil(block_dim as usize) as f64;
    let mem_insts = elems_per_thread * (pops_per_elem as f64 + state_accesses_per_elem);
    let t_in = in_layout.transactions_per_access(pops_per_elem, device.warp_size);
    let tree_steps = (block_dim as f64).log2().max(1.0);
    LaunchProfile {
        grid_dim: grid,
        block_dim,
        shared_words: block_dim,
        mem_insts_per_warp: mem_insts,
        transactions_per_mem_inst: (pops_per_elem as f64 * t_in + state_accesses_per_elem)
            / (pops_per_elem as f64 + state_accesses_per_elem).max(1.0),
        compute_insts_per_warp: compute_per_elem * elems_per_thread + 2.0 * tree_steps,
        shared_cycles_per_warp: 1.0 + 3.0 * tree_steps,
        syncs_per_block: tree_steps + 2.0,
        flops: (n_arrays * n_elements) as f64 * (1.0 + pops_per_elem as f64),
    }
    .finish(device)
}

/// Closed-form profile of a [`crate::templates::StencilKernel`] launch.
#[allow(clippy::too_many_arguments)]
pub fn stencil_profile(
    device: &DeviceSpec,
    rows: usize,
    cols: usize,
    tile_w: usize,
    tile_h: usize,
    halo_r: usize,
    halo_c: usize,
    taps: usize,
    compute_per_elem: f64,
    flops_per_elem: f64,
    block_dim: u32,
) -> LaunchProfile {
    let tiles = rows.div_ceil(tile_h) * cols.div_ceil(tile_w);
    let grid = tiles.max(1) as u32;
    let ext = (tile_w + 2 * halo_c) * (tile_h + 2 * halo_r);
    let warps_per_block = block_dim.div_ceil(device.warp_size) as f64;
    // Phase 1 loads the extended tile, coalesced row segments.
    let loads_per_warp = ext as f64 / (warps_per_block * device.warp_size as f64);
    // Phase 2 stores one output per element.
    let elems = tile_w * tile_h;
    let stores_per_warp = elems as f64 / (warps_per_block * device.warp_size as f64);
    let elems_per_thread = elems.div_ceil(block_dim as usize) as f64;
    LaunchProfile {
        grid_dim: grid,
        block_dim,
        shared_words: ext as u32,
        mem_insts_per_warp: loads_per_warp + stores_per_warp,
        transactions_per_mem_inst: 1.2, // tile-edge fragmentation
        compute_insts_per_warp: compute_per_elem * elems_per_thread,
        shared_cycles_per_warp: (taps as f64 + 1.0) * elems_per_thread + loads_per_warp,
        syncs_per_block: 1.0,
        flops: flops_per_elem * (rows * cols) as f64,
    }
    .finish(device)
}

/// Profile of the host-side fallback for an opaque actor: a pure CPU cost
/// expressed as an equivalent time (the model charges a fixed per-item
/// cost at host speed).
pub fn host_cost_us(items: usize, compute_per_item: f64) -> f64 {
    // ~1 GHz effective scalar rate, 2 inst/item floor.
    items as f64 * (compute_per_item.max(2.0)) * 1e-3
}

trait Finish {
    fn finish(self, device: &DeviceSpec) -> LaunchProfile;
}

impl Finish for LaunchProfile {
    /// Clamp shared allocations to the device budget (profiles are used to
    /// *reject* infeasible shapes, not to panic).
    fn finish(mut self, device: &DeviceSpec) -> LaunchProfile {
        if self.shared_words > device.shared_words_per_block {
            self.shared_words = device.shared_words_per_block;
        }
        if self.block_dim > device.max_threads_per_block {
            self.block_dim = device.max_threads_per_block;
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfmodel::{estimate, KernelClass};

    fn device() -> DeviceSpec {
        DeviceSpec::tesla_c2050()
    }

    #[test]
    fn map_profile_transposed_beats_row_major_for_wide_pops() {
        let d = device();
        let rm = map_profile(
            &d,
            1 << 16,
            8,
            8,
            0.0,
            10.0,
            8.0,
            Layout::RowMajor,
            Layout::RowMajor,
            1,
            256,
        );
        let tp = map_profile(
            &d,
            1 << 16,
            8,
            8,
            0.0,
            10.0,
            8.0,
            Layout::Transposed,
            Layout::Transposed,
            1,
            256,
        );
        let t_rm = estimate(&d, &rm).time_us;
        let t_tp = estimate(&d, &tp).time_us;
        assert!(t_tp < t_rm, "transposed {t_tp} vs row-major {t_rm}");
    }

    #[test]
    fn reduce_profiles_capture_the_crossover() {
        // Many arrays: single-kernel wins (two-kernel pays a second launch
        // and extra global traffic). One huge array: two-kernel wins
        // (single kernel leaves the device idle with 1 block).
        let d = device();
        let time_single = |n_arrays: usize, n_elements: usize| {
            estimate(
                &d,
                &single_reduce_profile(
                    &d,
                    n_arrays,
                    n_elements,
                    1,
                    0.0,
                    3.0,
                    1,
                    256,
                    Layout::RowMajor,
                ),
            )
            .time_us
        };
        let time_two = |n_arrays: usize, n_elements: usize| {
            let blocks = 2 * d.sm_count as usize;
            let init = estimate(
                &d,
                &initial_reduce_profile(
                    &d,
                    n_arrays,
                    n_elements,
                    1,
                    0.0,
                    3.0,
                    blocks,
                    256,
                    Layout::RowMajor,
                ),
            )
            .time_us;
            let merge = estimate(
                &d,
                &single_reduce_profile(&d, n_arrays, blocks, 1, 0.0, 1.0, 1, 64, Layout::RowMajor),
            )
            .time_us;
            init + merge
        };
        // 4M-element single array.
        assert!(
            time_two(1, 1 << 22) < time_single(1, 1 << 22),
            "two-kernel should win on one huge array: {} vs {}",
            time_two(1, 1 << 22),
            time_single(1, 1 << 22)
        );
        // 4K arrays of 1K elements.
        assert!(
            time_single(4096, 1024) < time_two(4096, 1024),
            "single-kernel should win on many arrays: {} vs {}",
            time_single(4096, 1024),
            time_two(4096, 1024)
        );
    }

    #[test]
    fn stencil_bigger_tiles_cost_less_memory_time() {
        let d = device();
        let small = stencil_profile(&d, 1024, 1024, 8, 8, 1, 1, 5, 10.0, 5.0, 256);
        let large = stencil_profile(&d, 1024, 1024, 64, 16, 1, 1, 5, 10.0, 5.0, 256);
        let ts = estimate(&d, &small).time_us;
        let tl = estimate(&d, &large).time_us;
        assert!(tl < ts, "large tiles {tl} vs small tiles {ts}");
    }

    #[test]
    fn tiny_grid_profiles_classify_latency_bound() {
        let d = device();
        let p = single_reduce_profile(&d, 2, 1 << 20, 1, 0.0, 3.0, 1, 256, Layout::RowMajor);
        let est = estimate(&d, &p);
        assert_eq!(est.class, KernelClass::LatencyBound);
    }

    #[test]
    fn host_cost_scales_linearly() {
        assert!(host_cost_us(1000, 4.0) < host_cost_us(2000, 4.0));
        assert_eq!(host_cost_us(0, 4.0), 0.0);
    }
}
