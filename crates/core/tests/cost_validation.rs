//! Cross-validation of the closed-form cost profiles against measured
//! simulator statistics — the promise DESIGN.md makes: the formulas the
//! compiler decides with must track what the kernels actually do.

use adaptic::analysis::reduction::CombineOp;
use adaptic::cost::{initial_reduce_profile, map_profile, single_reduce_profile};
use adaptic::layout::Layout;
use std::sync::Arc;

use adaptic::analysis::opcount::{body_counts, OpCounts};
use adaptic::bytecode::{compile_body, compile_expr};
use adaptic::templates::{
    elem_counts, two_kernel_reduce, BlockReduce, Body, MapKernel, ReduceSpec,
};
use gpu_sim::{launch, BufId, DeviceSpec, ExecMode, GlobalMem};
use perfmodel::LaunchProfile;
use streamir::graph::bindings;
use streamir::ir::{Expr, Stmt};
use streamir::parse::parse_program;

/// A body with no parameters, preset or state arrays, charged `counts`.
fn body(program: adaptic::bytecode::Program, counts: OpCounts) -> Body {
    Body::new(
        Arc::new(program),
        &bindings(&[]),
        None,
        &[],
        counts,
        Arc::default(),
    )
    .unwrap()
}

/// A row-major map kernel of 256-thread blocks over `stmts`.
fn map_kernel(
    stmts: &[Stmt],
    units: usize,
    pops: usize,
    pushes: usize,
    io: (BufId, BufId),
) -> MapKernel {
    let binds = bindings(&[]);
    MapKernel {
        name: "m".into(),
        body: body(
            compile_body(stmts, &binds, &[]).unwrap(),
            body_counts(stmts, &binds),
        ),
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
    let pop = compile_expr(&Expr::Pop, &binds, &[]).unwrap();
    ReduceSpec {
        op: CombineOp::Add,
        init: 0.0,
        pops_per_elem: 1,
        elem: body(pop, elem_counts(&Expr::Pop, &binds, 1)),
        post: None,
    }
}

fn within(a: f64, b: f64, factor: f64) -> bool {
    if a == 0.0 && b == 0.0 {
        return true;
    }
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    hi <= lo * factor + 1e-9
}

fn check(predicted: &LaunchProfile, measured: &LaunchProfile, what: &str) {
    assert_eq!(predicted.grid_dim, measured.grid_dim, "{what}: grid");
    assert!(
        within(
            predicted.mem_insts_per_warp,
            measured.mem_insts_per_warp,
            1.6
        ),
        "{what}: mem insts/warp predicted {:.2} vs measured {:.2}",
        predicted.mem_insts_per_warp,
        measured.mem_insts_per_warp
    );
    assert!(
        within(
            predicted.transactions_per_mem_inst,
            measured.transactions_per_mem_inst,
            1.6
        ),
        "{what}: trans/inst predicted {:.2} vs measured {:.2}",
        predicted.transactions_per_mem_inst,
        measured.transactions_per_mem_inst
    );
}

#[test]
fn map_profile_tracks_measurement() {
    let device = DeviceSpec::tesla_c2050();
    let src = "pipeline P(N) { actor M(pop 2, push 1) { a = pop(); b = pop(); push(a * b); } }";
    let program = parse_program(src).unwrap();
    let units = 1usize << 14;
    for (layout, staged_input) in [(Layout::RowMajor, false), (Layout::Transposed, true)] {
        let input: Vec<f32> = (0..2 * units).map(|i| (i % 7) as f32).collect();
        let data = if staged_input {
            adaptic::restructure(&input, 2)
        } else {
            input
        };
        let mut mem = GlobalMem::new();
        let in_buf = mem.alloc_from(&data);
        let out_buf = mem.alloc(units);
        let k = MapKernel {
            in_layout: layout,
            out_layout: layout,
            ..map_kernel(&program.actors[0].work.body, units, 2, 1, (in_buf, out_buf))
        };
        let stats = launch(&device, &mut mem, &k, ExecMode::Full);
        let measured = LaunchProfile::from_stats(&device, &stats);
        let predicted = map_profile(&device, units, 2, 1, 0.0, 2.0, 1.0, layout, layout, 1, 256);
        check(&predicted, &measured, &format!("map {layout:?}"));
    }
}

#[test]
fn single_reduce_profile_tracks_measurement() {
    let device = DeviceSpec::tesla_c2050();
    let (n_arrays, n_elements) = (64usize, 2048usize);
    let data: Vec<f32> = (0..n_arrays * n_elements).map(|i| (i % 5) as f32).collect();
    let mut mem = GlobalMem::new();
    let in_buf = mem.alloc_from(&data);
    let out_buf = mem.alloc(n_arrays);
    let k = BlockReduce {
        spec: sum_spec(),
        name: "sum".into(),
        n_arrays,
        n_elements,
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
    let measured = LaunchProfile::from_stats(&device, &stats);
    let predicted = single_reduce_profile(
        &device,
        n_arrays,
        n_elements,
        1,
        0.0,
        2.0,
        1,
        256,
        Layout::RowMajor,
    );
    check(&predicted, &measured, "single-kernel reduce");
}

#[test]
fn initial_reduce_profile_tracks_measurement() {
    let device = DeviceSpec::tesla_c2050();
    let n = 1usize << 18;
    let blocks = 28usize;
    let data: Vec<f32> = (0..n).map(|i| (i % 3) as f32).collect();
    let mut mem = GlobalMem::new();
    let in_buf = mem.alloc_from(&data);
    let partials = mem.alloc(blocks);
    let out = mem.alloc(1);
    let (k1, _k2) = two_kernel_reduce(
        sum_spec(),
        1,
        n,
        (blocks, 32),
        256,
        in_buf,
        Layout::RowMajor,
        partials,
        out,
    );
    let stats = launch(&device, &mut mem, &k1, ExecMode::Full);
    let measured = LaunchProfile::from_stats(&device, &stats);
    let predicted =
        initial_reduce_profile(&device, 1, n, 1, 0.0, 2.0, blocks, 256, Layout::RowMajor);
    check(&predicted, &measured, "initial reduce");
}

#[test]
fn predicted_ordering_matches_measured_ordering_for_reduction_schemes() {
    // The decision the compiler actually makes: at 1 array x 256K
    // elements, both the model and the measurement must rank two-kernel
    // ahead of one-kernel; at 4096 x 64 the ranking must flip.
    let device = DeviceSpec::tesla_c2050();
    let measure = |n_arrays: usize, n_elements: usize, two: bool| -> f64 {
        let data = vec![1.0f32; n_arrays * n_elements];
        let mut mem = GlobalMem::new();
        let in_buf = mem.alloc_from(&data);
        let out = mem.alloc(n_arrays);
        let mut total = 0.0;
        if two {
            let blocks = 28usize.min(n_elements.div_ceil(256)).max(2);
            let partials = mem.alloc(n_arrays * blocks);
            let (k1, k2) = two_kernel_reduce(
                sum_spec(),
                n_arrays,
                n_elements,
                (blocks, 32),
                256,
                in_buf,
                Layout::RowMajor,
                partials,
                out,
            );
            for k in [&k1 as &(dyn gpu_sim::Kernel + Sync), &k2] {
                let stats = launch(&device, &mut mem, k, ExecMode::SampledExec(64));
                total += perfmodel::estimate_stats(&device, &stats).time_us;
            }
        } else {
            let k = BlockReduce {
                spec: sum_spec(),
                name: "one".into(),
                n_arrays,
                n_elements,
                arrays_per_block: 1,
                chunks: 1,
                block_dim: 256,
                in_buf,
                in_layout: Layout::RowMajor,
                out_buf: out,
                out_stride: 1,
                out_offset: 0,
                partials: false,
            };
            let stats = launch(&device, &mut mem, &k, ExecMode::SampledExec(64));
            total = perfmodel::estimate_stats(&device, &stats).time_us;
        }
        total
    };
    // One huge array: two-kernel wins.
    assert!(measure(1, 1 << 18, true) < measure(1, 1 << 18, false));
    // Many short arrays: one-kernel wins.
    assert!(measure(4096, 64, false) < measure(4096, 64, true));
}
