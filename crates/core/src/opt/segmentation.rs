//! Actor-segmentation decisions (§4.2 of the paper): how to split a
//! reduction's work across threads and blocks for the actual input shape.

use gpu_sim::DeviceSpec;
use perfmodel::estimate;

use crate::cost::{initial_reduce_profile, single_reduce_profile};
use crate::layout::Layout;

/// A concrete reduction-lowering choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceChoice {
    /// Two-kernel scheme (§4.2.1, Figure 7c): a chunking kernel then a
    /// merge kernel. The number of chunking blocks per array and the
    /// merge block size are *launch parameters* computed from the actual
    /// input ([`two_kernel_geometry`]), not part of the compiled variant.
    TwoKernel { block_dim: u32 },
    /// Single-kernel scheme (Figure 7b): `arrays_per_block` arrays per
    /// block (>1 = horizontal thread integration).
    OneKernel {
        arrays_per_block: usize,
        block_dim: u32,
    },
    /// One thread reduces one whole array serially (the TMV case study's
    /// fifth kernel: many very short rows). Lowered as a map over firings
    /// with a restructured (array-major) input so loads stay coalesced.
    ThreadPerArray { block_dim: u32 },
}

impl ReduceChoice {
    /// Human-readable label for reports.
    pub fn label(&self) -> String {
        match self {
            ReduceChoice::TwoKernel { .. } => "two-kernel".to_string(),
            ReduceChoice::OneKernel {
                arrays_per_block, ..
            } => format!("one-kernel({arrays_per_block} arrays/block)"),
            ReduceChoice::ThreadPerArray { .. } => "thread-per-array".to_string(),
        }
    }
}

/// Pick the number of chunking blocks for the two-kernel scheme: enough to
/// fill the device a couple of waves over, but never more blocks than
/// there are thread-sized chunks.
pub fn pick_initial_blocks(
    device: &DeviceSpec,
    n_arrays: usize,
    n_elements: usize,
    block_dim: u32,
) -> usize {
    let target_blocks = (device.sm_count * device.max_blocks_per_sm) as usize * 2;
    let per_array = target_blocks.div_ceil(n_arrays.max(1));
    let max_useful = n_elements.div_ceil(block_dim as usize).max(1);
    per_array.clamp(1, max_useful).min(256)
}

/// The two-kernel scheme's launch geometry for a shape: chunking blocks
/// per array — [`pick_initial_blocks`], but at least 2, since one chunk
/// per array would leave the merge pass nothing to merge — and the merge
/// kernel's block size. The price and the launch both read it.
pub fn two_kernel_geometry(
    device: &DeviceSpec,
    n_arrays: usize,
    n_elements: usize,
    block_dim: u32,
) -> (usize, u32) {
    let initial_blocks = pick_initial_blocks(device, n_arrays, n_elements, block_dim).max(2);
    let merge_block = (initial_blocks.next_power_of_two().max(32) as u32).min(256);
    (initial_blocks, merge_block)
}

/// Estimated time (µs) of a reduction under a given choice.
#[allow(clippy::too_many_arguments)]
pub fn reduce_choice_time(
    device: &DeviceSpec,
    choice: ReduceChoice,
    n_arrays: usize,
    n_elements: usize,
    pops_per_elem: usize,
    state_per_elem: f64,
    compute_per_elem: f64,
    layout: Layout,
) -> f64 {
    match choice {
        ReduceChoice::OneKernel {
            arrays_per_block,
            block_dim,
        } => {
            let p = single_reduce_profile(
                device,
                n_arrays,
                n_elements,
                pops_per_elem,
                state_per_elem,
                compute_per_elem,
                arrays_per_block,
                block_dim,
                layout,
            );
            estimate(device, &p).time_us
        }
        ReduceChoice::ThreadPerArray { block_dim } => {
            let p = crate::cost::map_profile(
                device,
                n_arrays,
                n_elements * pops_per_elem,
                1,
                state_per_elem * n_elements as f64,
                compute_per_elem * n_elements as f64,
                (1 + pops_per_elem) as f64 * n_elements as f64,
                Layout::Transposed,
                Layout::RowMajor,
                1,
                block_dim,
            );
            estimate(device, &p).time_us
        }
        ReduceChoice::TwoKernel { block_dim } => {
            let (initial_blocks, merge_block) =
                two_kernel_geometry(device, n_arrays, n_elements, block_dim);
            let init = initial_reduce_profile(
                device,
                n_arrays,
                n_elements,
                pops_per_elem,
                state_per_elem,
                compute_per_elem,
                initial_blocks,
                block_dim,
                layout,
            );
            let merge = single_reduce_profile(
                device,
                n_arrays,
                initial_blocks,
                1,
                0.0,
                1.0,
                1,
                merge_block,
                Layout::RowMajor,
            );
            estimate(device, &init).time_us + estimate(device, &merge).time_us
        }
    }
}

/// Enumerate the reduction-lowering candidates for a shape.
pub fn reduce_candidates(
    device: &DeviceSpec,
    n_arrays: usize,
    n_elements: usize,
) -> Vec<ReduceChoice> {
    let mut out = Vec::new();
    for block_dim in [128u32, 256] {
        // With one chunk per array the two-kernel scheme degenerates into
        // the one-kernel scheme plus a useless merge pass — never offer it.
        if pick_initial_blocks(device, n_arrays, n_elements, block_dim) > 1 {
            out.push(ReduceChoice::TwoKernel { block_dim });
        }
        for apb in [1usize, 2, 4, 8] {
            if apb <= n_arrays.max(1) && block_dim as usize / apb >= 32 {
                out.push(ReduceChoice::OneKernel {
                    arrays_per_block: apb,
                    block_dim,
                });
            }
        }
    }
    out.push(ReduceChoice::ThreadPerArray { block_dim: 256 });
    out
}

/// The best choice for a shape (used by single-point compilation and by
/// the range partitioner as one of its cost closures).
#[allow(clippy::too_many_arguments)]
pub fn best_reduce_choice(
    device: &DeviceSpec,
    n_arrays: usize,
    n_elements: usize,
    pops_per_elem: usize,
    state_per_elem: f64,
    compute_per_elem: f64,
    layout: Layout,
) -> (ReduceChoice, f64) {
    reduce_candidates(device, n_arrays, n_elements)
        .into_iter()
        .map(|c| {
            (
                c,
                reduce_choice_time(
                    device,
                    c,
                    n_arrays,
                    n_elements,
                    pops_per_elem,
                    state_per_elem,
                    compute_per_elem,
                    layout,
                ),
            )
        })
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("candidate list is never empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;

    fn device() -> DeviceSpec {
        DeviceSpec::tesla_c2050()
    }

    #[test]
    fn initial_blocks_bounded_by_chunks() {
        let d = device();
        assert_eq!(pick_initial_blocks(&d, 1, 100, 256), 1);
        let big = pick_initial_blocks(&d, 1, 1 << 22, 256);
        assert!(big >= d.sm_count as usize);
        assert!(big <= 256);
        // Many arrays need few blocks each.
        assert_eq!(pick_initial_blocks(&d, 10_000, 1 << 22, 256), 1);
    }

    #[test]
    fn one_huge_array_prefers_two_kernel() {
        let d = device();
        let (choice, _) = best_reduce_choice(&d, 1, 1 << 22, 1, 0.0, 3.0, Layout::RowMajor);
        assert!(
            matches!(choice, ReduceChoice::TwoKernel { .. }),
            "{choice:?}"
        );
    }

    #[test]
    fn many_arrays_prefer_one_kernel() {
        let d = device();
        let (choice, _) = best_reduce_choice(&d, 8192, 512, 1, 0.0, 3.0, Layout::RowMajor);
        assert!(
            matches!(choice, ReduceChoice::OneKernel { .. }),
            "{choice:?}"
        );
    }

    #[test]
    fn tiny_rows_get_thread_integration() {
        // Huge number of very short arrays: best served by packing several
        // arrays per block.
        let d = device();
        let (choice, _) = best_reduce_choice(&d, 1 << 18, 32, 1, 0.0, 3.0, Layout::RowMajor);
        match choice {
            ReduceChoice::OneKernel {
                arrays_per_block, ..
            } => assert!(arrays_per_block > 1, "expected thread integration"),
            ReduceChoice::ThreadPerArray { .. } => {} // even stronger packing
            other => panic!("expected packed lowering, got {other:?}"),
        }
    }

    #[test]
    fn candidates_are_valid_shapes() {
        let d = device();
        for c in reduce_candidates(&d, 64, 4096) {
            match c {
                ReduceChoice::OneKernel {
                    arrays_per_block,
                    block_dim,
                } => {
                    assert!((block_dim as usize).is_multiple_of(arrays_per_block));
                    assert!((block_dim as usize / arrays_per_block).is_power_of_two());
                }
                ReduceChoice::TwoKernel { block_dim } => {
                    assert!(block_dim.is_power_of_two())
                }
                ReduceChoice::ThreadPerArray { block_dim } => {
                    assert!(block_dim.is_power_of_two());
                }
            }
        }
    }

    #[test]
    fn labels_are_descriptive() {
        let c = ReduceChoice::OneKernel {
            arrays_per_block: 4,
            block_dim: 256,
        };
        assert!(c.label().contains("one-kernel"));
    }
}
