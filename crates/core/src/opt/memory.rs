//! Memory-optimization decisions (§4.1 of the paper).
//!
//! * **Memory restructuring** (§4.1.1): decide per stream edge whether the
//!   transposed layout is applicable — it requires the producer and
//!   consumer windows to match (rate-matched edges), which is why the
//!   paper notes the optimization is inapplicable across mismatched-rate
//!   actor pairs.
//! * **Super-tile sizing** (§4.1.2): choose the tile geometry for a
//!   stencil by maximizing the paper's *reuse metric* subject to the
//!   shared-memory budget, shrinking tiles for small inputs to keep
//!   enough blocks in flight.

use gpu_sim::DeviceSpec;

use crate::layout::Layout;

/// Decide the layout of a stream edge.
///
/// `producer_rate`/`consumer_rate` are the per-unit push/pop window sizes
/// on each side (`None` for the host side, which can restructure freely at
/// generation time). Transposed is chosen when some GPU side has a
/// multi-word window (otherwise both layouts are identical) and the
/// device-resident sides agree on the window size.
pub fn choose_edge_layout(producer_rate: Option<usize>, consumer_rate: Option<usize>) -> Layout {
    match (producer_rate, consumer_rate) {
        (None, None) => Layout::RowMajor,
        (Some(p), None) => {
            if p > 1 {
                Layout::Transposed
            } else {
                Layout::RowMajor
            }
        }
        (None, Some(c)) => {
            if c > 1 {
                Layout::Transposed
            } else {
                Layout::RowMajor
            }
        }
        (Some(p), Some(c)) => {
            if p == c && p > 1 {
                Layout::Transposed
            } else {
                Layout::RowMajor
            }
        }
    }
}

/// The reuse metric of §4.1.2: total shared-memory element accesses per
/// halo word fetched. Larger is better.
pub fn reuse_metric(
    tile_w: usize,
    tile_h: usize,
    halo_r: usize,
    halo_c: usize,
    taps: usize,
) -> f64 {
    let area = tile_w * tile_h;
    let ext = (tile_w + 2 * halo_c) * (tile_h + 2 * halo_r);
    let halo = ext - area;
    if halo == 0 {
        return f64::INFINITY;
    }
    (taps * area) as f64 / halo as f64
}

/// Predicted time (µs) of a stencil over a `rows x cols` grid with super
/// tile `(w, h)`; `None` when the halo-extended tile overflows the
/// shared-memory budget.
pub(crate) fn tile_time(
    device: &DeviceSpec,
    rows: usize,
    cols: usize,
    (w, h): (usize, usize),
    (halo_r, halo_c): (usize, usize),
    taps: usize,
) -> Option<f64> {
    let ext = (w + 2 * halo_c) * (h + 2 * halo_r);
    if ext > device.shared_words_per_block as usize {
        return None;
    }
    let compute_per_elem = 2.0 * taps as f64 + 2.0;
    let profile = crate::cost::stencil_profile(
        device,
        rows,
        cols,
        w,
        h,
        halo_r,
        halo_c,
        taps,
        compute_per_elem,
        taps as f64,
        256,
    );
    Some(perfmodel::estimate(device, &profile).time_us)
}

/// Choose a super-tile geometry for a stencil.
///
/// Enumerates warp-multiple widths and power-of-two heights, rejects
/// shapes whose extended tile exceeds the shared-memory budget, and picks
/// the shape the performance model predicts fastest (§4.1.2: increasing a
/// super tile trades halo traffic against occupancy, possibly flipping
/// the kernel latency-bound — exactly what the model arbitrates). The
/// reuse metric breaks ties. (32, 1) when no shape fits.
pub fn choose_tile(
    device: &DeviceSpec,
    rows: usize,
    cols: usize,
    halo_r: usize,
    halo_c: usize,
    taps: usize,
) -> (usize, usize) {
    let time = |tile| tile_time(device, rows, cols, tile, (halo_r, halo_c), taps);
    search_tiles(rows, cols, halo_r, halo_c, taps, time).map_or((32, 1), |(tile, _)| tile)
}

/// [`choose_tile`]'s search under the tile times `time` gives, pricing
/// each tile once: the chosen tile and its time, `None` when `time`
/// prices none.
pub(crate) fn search_tiles(
    rows: usize,
    cols: usize,
    halo_r: usize,
    halo_c: usize,
    taps: usize,
    time: impl Fn((usize, usize)) -> Option<f64>,
) -> Option<((usize, usize), f64)> {
    let widths = [32usize, 64, 128, 256, 512];
    let heights: &[usize] = if rows == 1 {
        &[1]
    } else {
        &[1, 2, 4, 8, 16, 32]
    };

    let mut best: Option<(f64, f64, (usize, usize))> = None;
    for &w in &widths {
        if w > cols.next_power_of_two().max(32) {
            continue;
        }
        for &h in heights {
            if h > rows.next_power_of_two() {
                continue;
            }
            let Some(time) = time((w, h)) else {
                continue;
            };
            let m = reuse_metric(w, h, halo_r, halo_c, taps);
            let better = match best {
                None => true,
                Some((bt, bm, _)) => time < bt || (time == bt && m > bm),
            };
            if better {
                best = Some((time, m, (w, h)));
            }
        }
    }
    best.map(|(time, _, wh)| (wh, time))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_layout_rules() {
        // Host-to-kernel with wide windows: restructure.
        assert_eq!(choose_edge_layout(None, Some(4)), Layout::Transposed);
        assert_eq!(choose_edge_layout(Some(4), None), Layout::Transposed);
        // Unit windows: nothing to gain.
        assert_eq!(choose_edge_layout(None, Some(1)), Layout::RowMajor);
        assert_eq!(choose_edge_layout(Some(1), Some(1)), Layout::RowMajor);
        // Matching device windows: restructure.
        assert_eq!(choose_edge_layout(Some(3), Some(3)), Layout::Transposed);
        // Rate-mismatched device edge: the paper's inapplicable case.
        assert_eq!(choose_edge_layout(Some(2), Some(4)), Layout::RowMajor);
    }

    #[test]
    fn reuse_metric_prefers_big_tiles() {
        let small = reuse_metric(8, 8, 1, 1, 5);
        let big = reuse_metric(32, 32, 1, 1, 5);
        assert!(big > small);
    }

    #[test]
    fn reuse_metric_infinite_without_halo() {
        assert!(reuse_metric(8, 8, 0, 0, 1).is_infinite());
    }

    #[test]
    fn tile_fits_shared_memory() {
        let d = gpu_sim::DeviceSpec::gtx285(); // small 16 KB shared
        let (w, h) = choose_tile(&d, 4096, 4096, 1, 1, 5);
        let ext = (w + 2) * (h + 2);
        assert!(ext <= d.shared_words_per_block as usize);
        assert!(w % 32 == 0);
    }

    #[test]
    fn small_inputs_get_smaller_tiles() {
        let d = gpu_sim::DeviceSpec::tesla_c2050();
        let (bw, bh) = choose_tile(&d, 4096, 4096, 1, 1, 5);
        let (sw, sh) = choose_tile(&d, 64, 64, 1, 1, 5);
        assert!(
            sw * sh <= bw * bh,
            "small input tile {sw}x{sh} should not exceed large input tile {bw}x{bh}"
        );
        // Small input must still produce multiple tiles.
        assert!(64usize.div_ceil(sh) * 64usize.div_ceil(sw) > 1);
    }

    #[test]
    fn one_dimensional_inputs_get_row_tiles() {
        let d = gpu_sim::DeviceSpec::tesla_c2050();
        let (_, h) = choose_tile(&d, 1, 1 << 20, 0, 8, 17);
        assert_eq!(h, 1);
    }
}
