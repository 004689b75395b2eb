//! Neighboring-access kernel template (§4.1.2 of the paper).
//!
//! Each block stages one *super tile* plus its halo from global into
//! shared memory, synchronizes, then computes its output elements entirely
//! out of shared memory (Figure 6). The super tile merges several simple
//! tiles so the halo-to-tile ratio shrinks; its size and shape are chosen
//! by the optimizer via the reuse metric (see `opt::memory`), the template
//! just executes a given geometry.
//!
//! The element computation re-executes the actor's original loop body, so
//! edge conditions and the combining function keep their exact semantics:
//! `peek(idx + Δ)` is redirected to the shared tile.

use gpu_sim::{BlockCtx, BufId, Kernel, LaunchConfig, Row};

use super::{affine, for_warp_rows, index_row, lane_run, mask_run, Body, SITE_STATE};
use crate::warp::{for_lanes, full_mask, WarpIo, MAX_LANES};

const SITE_LOAD: u32 = 0;
const SITE_TILE_ST: u32 = 1;
const SITE_TILE_LD: u32 = 2;
const SITE_PUSH: u32 = 3;

/// A compiled super-tile stencil kernel.
#[derive(Debug, Clone)]
pub struct StencilKernel {
    pub name: String,
    /// The per-element loop body (from the detected pattern); its preset
    /// is the loop variable, bound to the global element index.
    pub body: Body,
    /// Grid extent: `rows == 1` for 1-D stencils.
    pub rows: usize,
    pub cols: usize,
    /// Super-tile geometry (output elements per block).
    pub tile_w: usize,
    pub tile_h: usize,
    /// Halo radii (from the pattern's footprint).
    pub halo_r: usize,
    pub halo_c: usize,
    pub block_dim: u32,
    pub in_buf: BufId,
    pub out_buf: BufId,
}

impl StencilKernel {
    /// Extended (shared) tile width including halos.
    pub fn ext_w(&self) -> usize {
        self.tile_w + 2 * self.halo_c
    }

    /// Extended tile height including halos.
    pub fn ext_h(&self) -> usize {
        self.tile_h + 2 * self.halo_r
    }

    fn tiles_x(&self) -> usize {
        self.cols.div_ceil(self.tile_w)
    }

    fn tiles_y(&self) -> usize {
        self.rows.div_ceil(self.tile_h)
    }
}

/// Warp-granular I/O for the stencil template: tile peeks and output
/// pushes travel as whole lane-rows. Lane `l` computes global element
/// `globals[l]` as thread `tid0 + l`; edge tiles leave holes in the
/// lane mask, which the rows carry through to the accounting engine.
struct StencilWarpIo<'c, 'd, 'k> {
    ctx: &'c mut BlockCtx<'d>,
    kernel: &'k StencilKernel,
    warp: u32,
    /// Tile origin (warp-uniform).
    tile_r0: usize,
    tile_c0: usize,
    /// Per-lane global element index (valid for masked lanes only).
    globals: [u64; MAX_LANES],
    /// True when the warp's elements lie in one tile row, so that
    /// `globals[l] == globals[0] + l` on every masked lane.
    one_row: bool,
    pushed: u64,
}

impl StencilWarpIo<'_, '_, '_> {
    /// The shared-tile `(row, column)` of a peek at global offset
    /// `offset`, or the message of whichever of the two checks every peek
    /// gets — inside the input, inside the halo — it fails.
    fn locate(&self, offset: i64) -> Result<(usize, usize), String> {
        let k = self.kernel;
        if offset < 0 || offset as usize >= k.rows * k.cols {
            return Err(format!(
                "stencil peek at {offset} outside the input (guard missing?)"
            ));
        }
        let g = offset as usize;
        let (r, c) = (g / k.cols, g % k.cols);
        let er = r as i64 - self.tile_r0 as i64 + k.halo_r as i64;
        let ec = c as i64 - self.tile_c0 as i64 + k.halo_c as i64;
        if er < 0 || er as usize >= k.ext_h() || ec < 0 || ec as usize >= k.ext_w() {
            return Err(format!(
                "stencil peek at ({r},{c}) escapes the halo of tile ({},{})",
                self.tile_r0, self.tile_c0
            ));
        }
        Ok((er as usize, ec as usize))
    }
}

impl WarpIo for StencilWarpIo<'_, '_, '_> {
    fn pop_row(&mut self, _mask: u64, _out: &mut [f32]) {
        panic!("pop inside stencil element (rejected at detection)")
    }

    fn peek_row(&mut self, mask: u64, offsets: &[i64], out: &mut [f32]) {
        let ext_w = self.kernel.ext_w();
        // An ascending run of offsets whose two ends pass both checks and
        // land in one tile row: the offsets between them stay in that
        // grid row, between the ends' columns, so the ends' checks cover
        // every lane and the tile words step by the offsets' step.
        // Anything else — an end that fails included, so the panic names
        // the failing lane's own offset — is mapped lane by lane.
        if let Some(run) = lane_run(mask, offsets).filter(|run| run.step >= 0) {
            if let (Ok((er, ec)), Ok((er_last, _))) =
                (self.locate(run.first), self.locate(run.last))
            {
                if er == er_last {
                    let row = affine(run.lo, run.lanes, er * ext_w + ec, run.step as usize);
                    self.ctx.ld_shared_row(SITE_TILE_LD, self.warp, row, out);
                    return;
                }
            }
        }
        let mut addrs = [0u64; MAX_LANES];
        for_lanes(mask, out.len(), |l| {
            let (er, ec) = self
                .locate(offsets[l])
                .unwrap_or_else(|fault| panic!("{fault}"));
            addrs[l] = (er * ext_w + ec) as u64;
        });
        let row = Row::Lanes {
            mask,
            addrs: &addrs,
        };
        self.ctx.ld_shared_row(SITE_TILE_LD, self.warp, row, out);
    }

    fn push_row(&mut self, mask: u64, vals: &[f32]) {
        assert!(self.pushed & mask == 0, "stencil element pushed twice");
        self.pushed |= mask;
        let row = match mask_run(mask) {
            Some((lo, lanes)) if self.one_row => affine(lo, lanes, self.globals[lo] as usize, 1),
            _ => Row::Lanes {
                mask,
                addrs: &self.globals,
            },
        };
        self.ctx
            .st_global_row(SITE_PUSH, self.warp, self.kernel.out_buf, row, vals);
    }

    fn state_load_row(&mut self, id: u16, _: &str, mask: u64, idx: &[i64], out: &mut [f32]) {
        let (slot, buf) = self.kernel.body.array(id);
        let mut addrs = [0u64; MAX_LANES];
        let row = index_row(mask, idx, &mut addrs);
        self.ctx
            .ld_global_row(SITE_STATE + slot, self.warp, buf, row, out);
    }

    fn state_store_row(&mut self, _: u16, _: &str, _: u64, _: &[i64], _: &[f32]) {
        panic!("state store inside stencil element")
    }
}

impl Kernel for StencilKernel {
    fn name(&self) -> &str {
        &self.name
    }

    fn config(&self) -> LaunchConfig {
        LaunchConfig::new(
            (self.tiles_x() * self.tiles_y()) as u32,
            self.block_dim,
            (self.ext_w() * self.ext_h()) as u32,
        )
    }

    fn run_block(&self, block: u32, ctx: &mut BlockCtx<'_>) {
        let tiles_x = self.tiles_x();
        let (tx, ty) = (block as usize % tiles_x, block as usize / tiles_x);
        let tile_r0 = ty * self.tile_h;
        let tile_c0 = tx * self.tile_w;
        let (ext_w, ext_h) = (self.ext_w(), self.ext_h());

        // Phase 1: cooperative load of tile + halo, row by row so each
        // warp sweep touches consecutive global addresses. Every warp
        // issues one global-load row (its in-grid lanes) and one
        // shared-store row per sweep, both unit-stride progressions;
        // cells outside the grid stage 0.
        let bdim = self.block_dim as usize;
        let ws = ctx.warp_size() as usize;
        let mut vals = [0.0f32; MAX_LANES];
        for er in 0..ext_h {
            let r = tile_r0 as i64 - self.halo_r as i64 + er as i64;
            let row_in_grid = r >= 0 && (r as usize) < self.rows;
            let mut base = 0usize;
            while base < ext_w {
                for_warp_rows(ws, 0, bdim.min(ext_w - base), |warp, lo, lanes| {
                    let ec = base + warp as usize * ws + lo;
                    // Grid column of lane `lo`; lanes `skip..end` of the
                    // piece are inside the grid.
                    let c = tile_c0 as i64 - self.halo_c as i64 + ec as i64;
                    let skip = (-c).clamp(0, lanes as i64) as usize;
                    let end = (self.cols as i64 - c).clamp(0, lanes as i64) as usize;
                    vals[lo..lo + lanes].fill(0.0);
                    if row_in_grid && skip < end {
                        let global = r as usize * self.cols + (c + skip as i64) as usize;
                        let row = affine(lo + skip, end - skip, global, 1);
                        ctx.ld_global_row(SITE_LOAD, warp, self.in_buf, row, &mut vals);
                    }
                    let row = affine(lo, lanes, er * ext_w + ec, 1);
                    ctx.st_shared_row(SITE_TILE_ST, warp, row, &vals);
                });
                base += bdim;
            }
        }
        ctx.sync();

        // Phase 2: warps of lane-consecutive tile elements (strided for
        // coalesced output stores) run through `warp::eval`, peeking the
        // shared tile and pushing output as whole lane-rows. Elements
        // past the grid edge leave holes in an edge tile's lane mask.
        let elems = self.tile_w * self.tile_h;
        let mut wf = self.body.frame(ws.min(bdim));
        let mut e = 0usize;
        while e < elems {
            let mut lane0 = 0usize;
            while lane0 < bdim && e + lane0 < elems {
                let live = (elems - e - lane0).min((bdim - lane0).min(ws));
                let el0 = e + lane0;
                let (dr, dc) = (el0 / self.tile_w, el0 % self.tile_w);
                let mut mask = 0u64;
                let mut globals = [0u64; MAX_LANES];
                // A warp inside one tile row covers consecutive grid
                // columns of one grid row: its in-grid lanes are a prefix
                // and their elements consecutive. A warp that wraps tile
                // rows maps each lane.
                let one_row = dc + live <= self.tile_w;
                if one_row {
                    let (r, c) = (tile_r0 + dr, tile_c0 + dc);
                    if r < self.rows && c < self.cols {
                        let valid = live.min(self.cols - c);
                        mask = full_mask(valid);
                        for (l, global) in globals[..valid].iter_mut().enumerate() {
                            *global = (r * self.cols + c + l) as u64;
                        }
                    }
                } else {
                    for (l, global) in globals.iter_mut().enumerate().take(live) {
                        let el = el0 + l;
                        let (dr, dc) = (el / self.tile_w, el % self.tile_w);
                        let (r, c) = (tile_r0 + dr, tile_c0 + dc);
                        if r >= self.rows || c >= self.cols {
                            continue;
                        }
                        mask |= 1 << l;
                        *global = (r * self.cols + c) as u64;
                    }
                }
                if mask != 0 {
                    self.body.start(&mut wf, mask, live, |l| globals[l] as i64);
                    let warp = (lane0 / ws) as u32;
                    let mut io = StencilWarpIo {
                        ctx,
                        kernel: self,
                        warp,
                        tile_r0,
                        tile_c0,
                        globals,
                        one_row,
                        pushed: 0,
                    };
                    self.body.eval(&mut wf, mask, &mut io);
                    self.body.charge(ctx, warp, mask);
                }
                lane0 += ws;
            }
            e += bdim;
        }
        self.body.give(wf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{launch, DeviceSpec, ExecMode, GlobalMem};
    use streamir::interp::Interpreter;
    use streamir::parse::parse_program;

    use crate::templates::tests::body;

    const FIVE_POINT: &str = r#"
        pipeline P(rows, cols) {
            actor Stencil(pop rows*cols, push rows*cols, peek rows*cols) {
                for idx in 0..rows*cols {
                    r = idx / cols;
                    c = idx % cols;
                    if (r > 0 && r < rows - 1 && c > 0 && c < cols - 1) {
                        push(0.25 * (peek(idx - 1) + peek(idx + 1)
                            + peek(idx - cols) + peek(idx + cols)));
                    } else {
                        push(peek(idx));
                    }
                }
            }
        }
    "#;

    fn run_reference(rows: usize, cols: usize, input: &[f32]) -> Vec<f32> {
        let p = parse_program(FIVE_POINT).unwrap();
        let mut it = Interpreter::new(&p);
        it.bind_param("rows", rows as i64);
        it.bind_param("cols", cols as i64);
        it.run(input).unwrap()
    }

    fn kernel_for(
        rows: usize,
        cols: usize,
        tile_w: usize,
        tile_h: usize,
        in_buf: BufId,
        out_buf: BufId,
    ) -> StencilKernel {
        let p = parse_program(FIVE_POINT).unwrap();
        let pat = crate::analysis::detect_stencil(&p.actors[0]).expect("stencil");
        let (hr, hc) = pat.halo();
        let binds = streamir::graph::bindings(&[("rows", rows as i64), ("cols", cols as i64)]);
        StencilKernel {
            name: "five_point".into(),
            body: body(&pat.body, &binds, Some(&pat.loop_var), &[]),
            rows,
            cols,
            tile_w,
            tile_h,
            halo_r: hr as usize,
            halo_c: hc as usize,
            block_dim: 256,
            in_buf,
            out_buf,
        }
    }

    /// The stencil template's access sequence issued thread by thread
    /// through the per-lane calls — same sites, same order within each
    /// thread — so its counters are what the row-issued kernel must
    /// reproduce bit for bit. `peeks` lists the global offsets element
    /// `idx` peeks, in body order.
    struct PerLaneStencil<'k> {
        k: &'k StencilKernel,
        peeks: fn(usize, usize, usize) -> Vec<usize>,
    }

    impl Kernel for PerLaneStencil<'_> {
        fn name(&self) -> &str {
            &self.k.name
        }

        fn config(&self) -> LaunchConfig {
            self.k.config()
        }

        fn run_block(&self, block: u32, ctx: &mut BlockCtx<'_>) {
            let k = self.k;
            let (tx, ty) = (block as usize % k.tiles_x(), block as usize / k.tiles_x());
            let (tile_r0, tile_c0) = (ty * k.tile_h, tx * k.tile_w);
            let bdim = k.block_dim as usize;
            for er in 0..k.ext_h() {
                let r = (tile_r0 + er) as i64 - k.halo_r as i64;
                for ec in 0..k.ext_w() {
                    let tid = (ec % bdim) as u32;
                    let c = (tile_c0 + ec) as i64 - k.halo_c as i64;
                    let inside = r >= 0 && (r as usize) < k.rows && c >= 0 && (c as usize) < k.cols;
                    let v = match inside {
                        true => {
                            let g = r as usize * k.cols + c as usize;
                            ctx.ld_global(SITE_LOAD, tid, k.in_buf, g)
                        }
                        false => 0.0,
                    };
                    ctx.st_shared(SITE_TILE_ST, tid, er * k.ext_w() + ec, v);
                }
            }
            ctx.sync();
            for el in 0..k.tile_w * k.tile_h {
                let tid = (el % bdim) as u32;
                let (r, c) = (tile_r0 + el / k.tile_w, tile_c0 + el % k.tile_w);
                if r >= k.rows || c >= k.cols {
                    continue;
                }
                let g = r * k.cols + c;
                let mut sum = 0.0;
                for p in (self.peeks)(g, k.rows, k.cols) {
                    let er = p / k.cols + k.halo_r - tile_r0;
                    let ec = p % k.cols + k.halo_c - tile_c0;
                    sum += ctx.ld_shared(SITE_TILE_LD, tid, er * k.ext_w() + ec);
                }
                ctx.st_global(SITE_PUSH, tid, k.out_buf, g, sum);
                ctx.compute(tid, k.body.compute);
                ctx.count_flops(k.body.flops);
            }
        }
    }

    fn five_point_peeks(idx: usize, rows: usize, cols: usize) -> Vec<usize> {
        let (r, c) = (idx / cols, idx % cols);
        if r > 0 && r < rows - 1 && c > 0 && c < cols - 1 {
            vec![idx - 1, idx + 1, idx - cols, idx + cols]
        } else {
            vec![idx]
        }
    }

    fn blur_peeks(idx: usize, _rows: usize, n: usize) -> Vec<usize> {
        if idx >= 1 && idx < n - 1 {
            vec![idx - 1, idx, idx + 1]
        } else {
            vec![idx]
        }
    }

    /// Launch `k` on both devices: the output must equal `expected` and
    /// every counter the per-lane-issued reference's.
    fn assert_matches_per_lane(
        k: &StencilKernel,
        input: &[f32],
        expected: &[f32],
        peeks: fn(usize, usize, usize) -> Vec<usize>,
    ) {
        for device in [DeviceSpec::tesla_c2050(), DeviceSpec::gtx285()] {
            let run = |kernel: &(dyn Kernel + Sync)| {
                let mut mem = GlobalMem::new();
                assert_eq!(mem.alloc_from(input), k.in_buf);
                assert_eq!(mem.alloc(expected.len()), k.out_buf);
                let stats = launch(&device, &mut mem, kernel, ExecMode::Full);
                (stats, mem.into_host(k.out_buf))
            };
            let (stats, out) = run(k);
            assert_eq!(out, expected, "{} on {}", k.name, device.name);
            let (reference, _) = run(&PerLaneStencil { k, peeks });
            assert_eq!(stats, reference, "{} on {}", k.name, device.name);
        }
    }

    #[test]
    fn row_issued_stencils_match_interpreter_and_per_lane_counters() {
        // The buffer ids every kernel below is built against.
        let mut ids = GlobalMem::new();
        let (in_buf, out_buf) = (ids.alloc(0), ids.alloc(0));
        // (rows, cols, tile_w, tile_h): a grid narrower than a warp under
        // a wider tile, 16-wide tiles whose warps wrap two tile rows, a
        // right and bottom edge that cut the last tiles, and both at once.
        for (rows, cols, tw, th) in [
            (12, 20, 32, 4),
            (32, 48, 16, 8),
            (37, 53, 32, 8),
            (9, 21, 16, 4),
        ] {
            let input: Vec<f32> = (0..rows * cols).map(|i| ((i * 7) % 23) as f32).collect();
            let expected = run_reference(rows, cols, &input);
            let k = kernel_for(rows, cols, tw, th, in_buf, out_buf);
            assert_matches_per_lane(&k, &input, &expected, five_point_peeks);
        }
        // A 1-D stencil: one grid row, tiles of one row.
        let p = parse_program(BLUR).unwrap();
        let n = 1000usize;
        let input: Vec<f32> = (0..n).map(|i| (i % 17) as f32).collect();
        let mut it = Interpreter::new(&p);
        it.bind_param("n", n as i64);
        let expected = it.run(&input).unwrap();
        let k = blur_kernel(&p, n, in_buf, out_buf);
        assert_matches_per_lane(&k, &input, &expected, blur_peeks);
    }

    #[test]
    fn five_point_matches_interpreter() {
        let (rows, cols) = (37, 53); // awkward, non-multiple-of-tile sizes
        let input: Vec<f32> = (0..rows * cols).map(|i| ((i * 7) % 23) as f32).collect();
        let expected = run_reference(rows, cols, &input);

        let device = DeviceSpec::tesla_c2050();
        let mut mem = GlobalMem::new();
        let in_buf = mem.alloc_from(&input);
        let out_buf = mem.alloc(rows * cols);
        let k = kernel_for(rows, cols, 16, 8, in_buf, out_buf);
        launch(&device, &mut mem, &k, ExecMode::Full);
        assert_eq!(mem.read(out_buf), expected.as_slice());
    }

    #[test]
    fn super_tile_geometry_changes_grid_not_results() {
        let (rows, cols) = (64, 64);
        let input: Vec<f32> = (0..rows * cols).map(|i| (i % 31) as f32).collect();
        let expected = run_reference(rows, cols, &input);
        let device = DeviceSpec::tesla_c2050();

        let mut grids = Vec::new();
        for (tw, th) in [(8, 8), (32, 8), (64, 16)] {
            let mut mem = GlobalMem::new();
            let in_buf = mem.alloc_from(&input);
            let out_buf = mem.alloc(rows * cols);
            let k = kernel_for(rows, cols, tw, th, in_buf, out_buf);
            let stats = launch(&device, &mut mem, &k, ExecMode::Full);
            assert_eq!(mem.read(out_buf), expected.as_slice(), "tile {tw}x{th}");
            grids.push(stats.config.grid_dim);
        }
        assert!(grids[0] > grids[1] && grids[1] > grids[2]);
    }

    #[test]
    fn larger_tiles_reduce_halo_traffic() {
        let (rows, cols) = (128, 128);
        let input = vec![1.0; rows * cols];
        let device = DeviceSpec::tesla_c2050();

        let mut loads = Vec::new();
        for (tw, th) in [(8, 8), (32, 32)] {
            let mut mem = GlobalMem::new();
            let in_buf = mem.alloc_from(&input);
            let out_buf = mem.alloc(rows * cols);
            let k = kernel_for(rows, cols, tw, th, in_buf, out_buf);
            let stats = launch(&device, &mut mem, &k, ExecMode::Full);
            loads.push(stats.totals.load_transactions);
        }
        assert!(
            loads[1] < loads[0],
            "32x32 super tiles should load less than 8x8: {loads:?}"
        );
    }

    const BLUR: &str = r#"
        pipeline P(n) {
            actor Blur(pop n, push n, peek n) {
                for i in 0..n {
                    if (i >= 1 && i < n - 1) {
                        push((peek(i - 1) + peek(i) + peek(i + 1)) / 3.0);
                    } else {
                        push(peek(i));
                    }
                }
            }
        }
    "#;

    fn blur_kernel(
        p: &streamir::graph::Program,
        n: usize,
        in_buf: BufId,
        out_buf: BufId,
    ) -> StencilKernel {
        let pat = crate::analysis::detect_stencil(&p.actors[0]).unwrap();
        let (hr, hc) = pat.halo();
        assert_eq!((hr, hc), (0, 1));
        let binds = streamir::graph::bindings(&[("n", n as i64)]);
        StencilKernel {
            name: "blur".into(),
            body: body(&pat.body, &binds, Some(&pat.loop_var), &[]),
            rows: 1,
            cols: n,
            tile_w: 128,
            tile_h: 1,
            halo_r: hr as usize,
            halo_c: hc as usize,
            block_dim: 256,
            in_buf,
            out_buf,
        }
    }

    #[test]
    fn one_dimensional_stencil() {
        let p = parse_program(BLUR).unwrap();
        let n = 1000usize;
        let input: Vec<f32> = (0..n).map(|i| (i % 17) as f32).collect();
        let mut it = Interpreter::new(&p);
        it.bind_param("n", n as i64);
        let expected = it.run(&input).unwrap();

        let device = DeviceSpec::tesla_c2050();
        let mut mem = GlobalMem::new();
        let in_buf = mem.alloc_from(&input);
        let out_buf = mem.alloc(n);
        let k = blur_kernel(&p, n, in_buf, out_buf);
        launch(&device, &mut mem, &k, ExecMode::Full);
        assert_eq!(mem.read(out_buf), expected.as_slice());
    }
}
