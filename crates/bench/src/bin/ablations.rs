//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. memory restructuring vs shared-memory staging vs nothing (coalesce);
//! 2. reuse-metric super-tile selection vs fixed small tiles;
//! 3. one-kernel vs two-kernel reduction across the array-count spectrum;
//! 4. the warp-tail (L2) loop vs full-barrier tree reduction;
//! 5. thread-coarsening factor sweep.

use std::sync::Arc;

use adaptic::analysis::opcount::body_counts;
use adaptic::analysis::reduction::CombineOp;
use adaptic::bytecode::{compile_body, compile_expr, Ty};
use adaptic::layout::{restructure, Layout};
use adaptic::templates::{
    elem_counts, two_kernel_reduce, BlockReduce, Body, MapKernel, ReduceSpec, StencilKernel,
};
use adaptic_bench::{data, header, scale};
use gpu_sim::{launch, BufId, DeviceSpec, ExecMode, GlobalMem, Kernel};
use perfmodel::estimate_stats;
use streamir::graph::bindings;
use streamir::ir::{Expr, Stmt};
use streamir::parse::parse_program;
use streamir::rates::Bindings;

/// `stmts` lowered and bound under `binds`, with `preset` its `i64` loop
/// variable.
fn body(stmts: &[Stmt], binds: &Bindings, preset: Option<&str>) -> Body {
    let presets: Vec<_> = preset.iter().map(|p| (*p, Ty::I64)).collect();
    let program = Arc::new(compile_body(stmts, binds, &presets).expect("body lowers"));
    let counts = body_counts(stmts, binds);
    Body::new(program, binds, preset, &[], counts, Arc::default()).expect("body binds")
}

/// A row-major map kernel of 256-thread blocks.
fn map_kernel(
    stmts: &[Stmt],
    units: usize,
    pops: usize,
    pushes: usize,
    io: (BufId, BufId),
) -> MapKernel {
    MapKernel {
        name: "m".into(),
        body: body(stmts, &bindings(&[]), None),
        units,
        units_per_firing: units,
        window_pop: None,
        pops_per_unit: pops,
        pushes_per_unit: pushes,
        in_buf: io.0,
        in_layout: Layout::RowMajor,
        out_buf: io.1,
        out_layout: Layout::RowMajor,
        coarsen: 1,
        out_group: None,
        stage_window: false,
        block_dim: 256,
    }
}

/// The spec summing raw elements.
fn sum_spec() -> ReduceSpec {
    let binds = bindings(&[]);
    let pop = Arc::new(compile_expr(&Expr::Pop, &binds, &[]).expect("`pop()` lowers"));
    let counts = elem_counts(&Expr::Pop, &binds, 1);
    ReduceSpec {
        op: CombineOp::Add,
        init: 0.0,
        pops_per_elem: 1,
        elem: Body::new(pop, &binds, None, &[], counts, Arc::default()).expect("`pop()` binds"),
        post: None,
    }
}

fn time_of(device: &DeviceSpec, mem: &mut GlobalMem, k: &(dyn Kernel + Sync)) -> f64 {
    let stats = launch(device, mem, k, ExecMode::SampledExec(256));
    estimate_stats(device, &stats).time_us
}

fn main() {
    header("Ablations");
    let device = DeviceSpec::tesla_c2050();
    let n = (1usize << 20) / scale();

    // 1. Coalescing strategies on a pop-8 map.
    {
        let src = r#"pipeline P(N) {
            actor M(pop 8, push 8) {
                a = pop(); b = pop(); c = pop(); d = pop();
                e = pop(); f = pop(); g = pop(); h = pop();
                push(a + h); push(b + g); push(c + f); push(d + e);
                push(a - h); push(b - g); push(c - f); push(d - e);
            }
        }"#;
        let program = parse_program(src).unwrap();
        let stmts = program.actors[0].work.body.clone();
        let input = data(n, 1);
        let units = n / 8;
        println!("--- ablation 1: coalescing a pop-8 map ({units} units) ---");
        for (name, layout, staged, input_data) in [
            (
                "row-major (uncoalesced)",
                Layout::RowMajor,
                false,
                input.clone(),
            ),
            (
                "shared staging (4.1.1 alt)",
                Layout::RowMajor,
                true,
                input.clone(),
            ),
            (
                "restructured (4.1.1)",
                Layout::Transposed,
                false,
                restructure(&input, 8),
            ),
        ] {
            let mut mem = GlobalMem::new();
            let in_buf = mem.alloc_from(&input_data);
            let out_buf = mem.alloc(n);
            let k = MapKernel {
                in_layout: layout,
                out_layout: layout,
                stage_window: staged,
                block_dim: if staged { 128 } else { 256 },
                ..map_kernel(&stmts, units, 8, 8, (in_buf, out_buf))
            };
            println!("  {name:28} {:9.1} us", time_of(&device, &mut mem, &k));
        }
    }

    // 2. Super-tile sizing for a five-point stencil.
    {
        let side = 1024usize / scale().clamp(1, 4);
        let src = r#"pipeline P(rows, cols) {
            actor S(pop rows*cols, push rows*cols, peek rows*cols) {
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
        }"#;
        let program = parse_program(src).unwrap();
        let pat = adaptic::analysis::detect_stencil(&program.actors[0]).unwrap();
        let (hr, hc) = pat.halo();
        let chosen = adaptic::opt::choose_tile(&device, side, side, hr as usize, hc as usize, 5);
        println!("--- ablation 2: super-tile shapes, {side}x{side} five-point ---");
        let input = data(side * side, 2);
        for (name, tile) in [
            ("fixed 8x8", (8usize, 8usize)),
            ("fixed 32x4", (32, 4)),
            ("reuse-metric choice", chosen),
        ] {
            let mut mem = GlobalMem::new();
            let in_buf = mem.alloc_from(&input);
            let out_buf = mem.alloc(side * side);
            let binds = bindings(&[("rows", side as i64), ("cols", side as i64)]);
            let k = StencilKernel {
                name: "s".into(),
                body: body(&pat.body, &binds, Some(&pat.loop_var)),
                rows: side,
                cols: side,
                tile_w: tile.0,
                tile_h: tile.1,
                halo_r: hr as usize,
                halo_c: hc as usize,
                block_dim: 256,
                in_buf,
                out_buf,
            };
            println!(
                "  {name:28} tile {:>3}x{:<3} {:9.1} us",
                tile.0,
                tile.1,
                time_of(&device, &mut mem, &k)
            );
        }
    }

    // 3. Reduction scheme across the array-count spectrum.
    {
        println!("--- ablation 3: one- vs two-kernel reduction, {n} total elements ---");
        println!(
            "  {:>10} {:>12} {:>12}",
            "arrays", "one-kernel", "two-kernel"
        );
        let input = data(n, 3);
        for n_arrays in [1usize, 16, 256, 4096] {
            let n_elements = n / n_arrays;
            let mut one_mem = GlobalMem::new();
            let in1 = one_mem.alloc_from(&input);
            let out1 = one_mem.alloc(n_arrays);
            let one = BlockReduce {
                spec: sum_spec(),
                name: "one".into(),
                n_arrays,
                n_elements,
                arrays_per_block: 1,
                chunks: 1,
                block_dim: 256,
                in_buf: in1,
                in_layout: Layout::RowMajor,
                out_buf: out1,
                out_stride: 1,
                out_offset: 0,
                partials: false,
            };
            let t_one = time_of(&device, &mut one_mem, &one);

            let geometry = adaptic::opt::two_kernel_geometry(&device, n_arrays, n_elements, 256);
            let mut two_mem = GlobalMem::new();
            let in2 = two_mem.alloc_from(&input);
            let partials = two_mem.alloc(n_arrays * geometry.0);
            let out2 = two_mem.alloc(n_arrays);
            let (k1, k2) = two_kernel_reduce(
                sum_spec(),
                n_arrays,
                n_elements,
                geometry,
                256,
                in2,
                Layout::RowMajor,
                partials,
                out2,
            );
            let t_two = time_of(&device, &mut two_mem, &k1) + time_of(&device, &mut two_mem, &k2);
            println!("  {n_arrays:>10} {t_one:>10.1}us {t_two:>10.1}us");
        }
    }

    // 4. Warp-tail (L2) loop: measured as barrier counts of the block tree.
    {
        println!("--- ablation 4: warp-tail reduction (barriers per block) ---");
        let input = data(1 << 16, 4);
        let mut mem = GlobalMem::new();
        let in_buf = mem.alloc_from(&input);
        let out_buf = mem.alloc(1);
        let k = BlockReduce {
            spec: sum_spec(),
            name: "tail".into(),
            n_arrays: 1,
            n_elements: input.len(),
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
        let stats = launch(&device, &mut mem, &k, ExecMode::Full);
        let syncs_per_block = stats.totals.syncs / stats.config.grid_dim as f64;
        // Figure 8's L1 loop barriers: log2(256) - log2(32) = 3 plus the
        // phase barriers; a naive tree would need log2(256) = 8.
        println!(
            "  with warp tail (Fig. 8): {syncs_per_block:.0} barriers/block; naive tree: {} barriers/block",
            (256f64).log2() as u32 + 2
        );
    }

    // 5. Thread-coarsening sweep on a trivial map.
    {
        println!("--- ablation 5: thread coarsening on a pop-1 map ({n} units) ---");
        let src = "pipeline P(N) { actor M(pop 1, push 1) { push(pop() * 1.5 + 2.0); } }";
        let program = parse_program(src).unwrap();
        let input = data(n, 5);
        for coarsen in [1usize, 2, 4, 8, 16, 32] {
            let mut mem = GlobalMem::new();
            let in_buf = mem.alloc_from(&input);
            let out_buf = mem.alloc(n);
            let k = MapKernel {
                coarsen,
                ..map_kernel(&program.actors[0].work.body, n, 1, 1, (in_buf, out_buf))
            };
            let grid = k.config().grid_dim;
            println!(
                "  coarsen {coarsen:>2}: grid {grid:>6}  {:9.1} us",
                time_of(&device, &mut mem, &k)
            );
        }
    }
}
