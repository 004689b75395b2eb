//! Property tests of the compiler's transformations and templates.

use std::sync::Arc;

use proptest::prelude::*;

use adaptic::analysis::reduction::CombineOp;
use adaptic::layout::Layout;
use adaptic::templates::{elem_counts, two_kernel_reduce, BlockReduce, Body, ReduceSpec};
use gpu_sim::{launch, DeviceSpec, ExecMode, GlobalMem};
use streamir::graph::bindings;
use streamir::ir::Expr;

/// A body with no parameters, preset or state arrays, charged `counts`.
fn body(program: adaptic::bytecode::Program, counts: adaptic::analysis::opcount::OpCounts) -> Body {
    let binds = bindings(&[]);
    Body::new(Arc::new(program), &binds, None, &[], counts, Arc::default()).unwrap()
}

/// The spec combining raw elements with `op`.
fn raw(op: CombineOp) -> ReduceSpec {
    let binds = bindings(&[]);
    let pop = adaptic::bytecode::compile_expr(&Expr::Pop, &binds, &[]).unwrap();
    ReduceSpec {
        op,
        init: op.identity(),
        pops_per_elem: 1,
        elem: body(pop, elem_counts(&Expr::Pop, &binds, 1)),
        post: None,
    }
}

fn close(a: f32, b: f32, tol: f32) -> bool {
    (a - b).abs() <= tol * b.abs().max(1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every reduction lowering (one-kernel with any group shape, and
    /// two-kernel with any chunking) computes the same value.
    #[test]
    fn reduction_variants_agree(
        log_n in 5u32..13,
        arrays_per_block in prop::sample::select(vec![1usize, 2, 4, 8]),
        block_dim in prop::sample::select(vec![128u32, 256]),
        initial_blocks in 2usize..24,
        seed in 0u64..1000,
    ) {
        let n = 1usize << log_n;
        let data: Vec<f32> = (0..n)
            .map(|i| (((i as u64).wrapping_mul(seed + 7) % 37) as f32) - 18.0)
            .collect();
        let want: f32 = data.iter().sum();
        let device = DeviceSpec::tesla_c2050();

        // One-kernel with group shape constraints honored.
        if block_dim as usize / arrays_per_block >= 32 {
            let mut mem = GlobalMem::new();
            let in_buf = mem.alloc_from(&data);
            let out = mem.alloc(1);
            let k = BlockReduce {
                spec: raw(CombineOp::Add),
                name: "one".into(),
                n_arrays: 1,
                n_elements: n,
                arrays_per_block: 1,
                chunks: 1, // one array: groups beyond 1 idle
                block_dim,
                in_buf,
                in_layout: Layout::RowMajor,
                out_buf: out,
                out_stride: 1,
                out_offset: 0,
                partials: false,
            };
            launch(&device, &mut mem, &k, ExecMode::Full);
            prop_assert!(close(mem.read(out)[0], want, 1e-3));
        }

        // Two-kernel with arbitrary chunking.
        let mut mem = GlobalMem::new();
        let in_buf = mem.alloc_from(&data);
        let partials = mem.alloc(initial_blocks);
        let out = mem.alloc(1);
        let (k1, k2) = two_kernel_reduce(
            raw(CombineOp::Add),
            1,
            n,
            (initial_blocks, 32),
            block_dim,
            in_buf,
            Layout::RowMajor,
            partials,
            out,
        );
        launch(&device, &mut mem, &k1, ExecMode::Full);
        launch(&device, &mut mem, &k2, ExecMode::Full);
        prop_assert!(close(mem.read(out)[0], want, 1e-3));
    }

    /// Max/min reductions are exact (no reassociation error) under every
    /// lowering.
    #[test]
    fn extremum_reductions_are_exact(
        log_n in 5u32..12,
        op_is_max in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let n = 1usize << log_n;
        let data: Vec<f32> = (0..n)
            .map(|i| (((i as u64).wrapping_mul(seed + 13) % 1009) as f32) - 500.0)
            .collect();
        let op = if op_is_max { CombineOp::Max } else { CombineOp::Min };
        let want = data
            .iter()
            .cloned()
            .fold(op.identity(), |a, b| op.apply(a, b));
        let device = DeviceSpec::gtx285();
        let mut mem = GlobalMem::new();
        let in_buf = mem.alloc_from(&data);
        let out = mem.alloc(1);
        let k = BlockReduce {
            spec: raw(op),
            name: "ext".into(),
            n_arrays: 1,
            n_elements: n,
            arrays_per_block: 1,
            chunks: 1,
            block_dim: 128,
            in_buf,
            in_layout: Layout::RowMajor,
            out_buf: out,
            out_stride: 1,
            out_offset: 0,
            partials: false,
        };
        launch(&device, &mut mem, &k, ExecMode::Full);
        prop_assert_eq!(mem.read(out)[0], want);
    }

    /// Layout choice never changes a map kernel's output, only its
    /// access pattern; and the transposed layout is never worse in
    /// transactions.
    #[test]
    fn layout_preserves_results_and_helps_coalescing(
        rate in prop::sample::select(vec![2usize, 3, 4, 8]),
        firings in 16usize..200,
    ) {
        use adaptic::templates::MapKernel;
        use streamir::parse::parse_program;

        let program = parse_program(
            "pipeline P(N) { actor M(pop 2, push 2) { a = pop(); b = pop(); push(b); push(a); } }",
        ).unwrap();
        let _ = &program;
        // Build a swap-all body at the requested rate programmatically.
        use streamir::ir::Stmt;
        let mut stmts = Vec::new();
        for j in 0..rate {
            stmts.push(Stmt::Assign {
                name: format!("v{j}"),
                expr: Expr::Pop,
            });
        }
        for j in (0..rate).rev() {
            stmts.push(Stmt::Push(Expr::var(&format!("v{j}"))));
        }

        let data: Vec<f32> = (0..rate * firings).map(|i| i as f32).collect();
        let device = DeviceSpec::tesla_c2050();
        let mut outs = Vec::new();
        let mut txs = Vec::new();
        for layout in [Layout::RowMajor, Layout::Transposed] {
            let mut mem = GlobalMem::new();
            let staged = match layout {
                Layout::RowMajor => data.clone(),
                Layout::Transposed => adaptic::restructure(&data, rate),
            };
            let in_buf = mem.alloc_from(&staged);
            let out_buf = mem.alloc(data.len());
            let counts = adaptic::analysis::opcount::body_counts(&stmts, &bindings(&[]));
            let program = adaptic::bytecode::compile_body(&stmts, &bindings(&[]), &[]).unwrap();
            let k = MapKernel {
                name: "m".into(),
                body: body(program, counts),
                units: firings,
                units_per_firing: firings,
                window_pop: None,
                pops_per_unit: rate,
                pushes_per_unit: rate,
                in_buf,
                in_layout: layout,
                out_buf,
                out_layout: layout,
                coarsen: 1,
                out_group: None,
                stage_window: false,
                block_dim: 256,
            };
            let stats = launch(&device, &mut mem, &k, ExecMode::Full);
            let raw = mem.read(out_buf).to_vec();
            let out = match layout {
                Layout::RowMajor => raw,
                Layout::Transposed => adaptic::unrestructure(&raw, rate),
            };
            outs.push(out);
            txs.push(stats.totals.transactions());
        }
        prop_assert_eq!(&outs[0], &outs[1]);
        prop_assert!(txs[1] <= txs[0], "transposed {} > row-major {}", txs[1], txs[0]);
    }
}
