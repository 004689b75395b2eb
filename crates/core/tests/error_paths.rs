//! Error-path coverage: the compiler and runtime must fail loudly and
//! precisely, never silently mis-execute.

use std::sync::Arc;

use adaptic::analysis::detect_stencil;
use adaptic::analysis::opcount::{body_counts, OpCounts};
use adaptic::bytecode::{compile_body, Ty};
use adaptic::templates::{Body, StencilKernel};
use adaptic::{compile, compile_single, InputAxis, RunOptions, StateBinding};
use gpu_sim::{
    try_launch_pooled, BlockCtx, BufId, DeviceSpec, ExecMode, ExecPolicy, GlobalMem, Kernel,
    LaunchConfig, LaunchControl, LaunchError, Row, ScratchPool,
};
use streamir::error::Error;
use streamir::graph::bindings;
use streamir::parse::parse_program;

fn device() -> DeviceSpec {
    DeviceSpec::tesla_c2050()
}

#[test]
fn missing_state_binding_is_reported_with_names() {
    let p = parse_program(
        r#"pipeline P(N) {
            actor Scale(pop 1, push 1) {
                state a[1];
                push(a[0] * pop());
            }
        }"#,
    )
    .unwrap();
    let axis = InputAxis::total_size("N", 16, 4096);
    let compiled = compile(&p, &device(), &axis).unwrap();
    let err = compiled.run(64, &vec![1.0; 64]).unwrap_err();
    match err {
        Error::Runtime(msg) => {
            assert!(msg.contains("Scale"), "{msg}");
            assert!(msg.contains('a'), "{msg}");
        }
        other => panic!("expected runtime error, got {other:?}"),
    }
}

#[test]
fn a_binder_omitting_a_body_parameter_is_a_typed_error() {
    // `S` is read only in the work body, and bound only up to x = 64: the
    // probe point binds it, so the plan compiles, and a launch past 64
    // must refuse to bind the body rather than panic.
    let p =
        parse_program("pipeline P(N, S) { actor A(pop 1, push 1) { push(pop() * S); } }").unwrap();
    let axis = InputAxis::new("N", 16, 128, |x| match x <= 64 {
        true => bindings(&[("N", x), ("S", 2)]),
        false => bindings(&[("N", x)]),
    });
    let compiled = compile(&p, &device(), &axis).unwrap();
    assert_eq!(compiled.run(32, &[1.0; 32]).unwrap().output, vec![2.0; 32]);
    match compiled.run(128, &[1.0; 128]) {
        Err(Error::UnboundParam(name)) => assert_eq!(name, "S"),
        other => panic!("expected an unbound-parameter error, got {other:?}"),
    }
}

#[test]
fn a_body_reading_an_unbound_state_array_fails_at_construction() {
    let p = parse_program(
        "pipeline P() { actor A(pop 1, push 1) { state scale[1]; push(pop() * scale[0]); } }",
    )
    .unwrap();
    let binds = bindings(&[]);
    let program = Arc::new(compile_body(&p.actors[0].work.body, &binds, &[]).unwrap());
    match Body::new(
        program,
        &binds,
        None,
        &[],
        OpCounts::default(),
        Arc::default(),
    ) {
        Err(Error::Runtime(msg)) => assert!(msg.contains("scale"), "{msg}"),
        other => panic!("expected an unbound-state error, got {other:?}"),
    }
}

#[test]
fn insufficient_input_reports_requirements() {
    let p = parse_program(
        r#"pipeline P(N) {
            actor Sum(pop N, push 1) {
                acc = 0.0;
                for i in 0..N { acc = acc + pop(); }
                push(acc);
            }
        }"#,
    )
    .unwrap();
    let axis = InputAxis::total_size("N", 16, 4096);
    let compiled = compile(&p, &device(), &axis).unwrap();
    let err = compiled.run(1024, &[1.0; 10]).unwrap_err();
    assert!(matches!(
        err,
        Error::InsufficientInput {
            needed: 1024,
            got: 10
        }
    ));
}

#[test]
fn roundrobin_splitjoin_compiles_to_clear_error() {
    let p = parse_program(
        r#"pipeline P(N) {
            splitjoin {
                split roundrobin(1, 1);
                actor A(pop 1, push 1) { push(pop()); }
                actor B(pop 1, push 1) { push(pop()); }
                join roundrobin(1, 1);
            }
        }"#,
    )
    .unwrap();
    let axis = InputAxis::total_size("N", 16, 4096);
    let err = compile(&p, &device(), &axis).unwrap_err();
    match err {
        Error::Semantic(msg) => assert!(msg.contains("round-robin"), "{msg}"),
        other => panic!("expected semantic error, got {other:?}"),
    }
}

#[test]
fn mixed_splitjoin_branches_rejected() {
    // A reduction sibling next to a map sibling is neither supported shape.
    let p = parse_program(
        r#"pipeline P(N) {
            splitjoin {
                split duplicate;
                actor Sum4(pop 4, push 1) {
                    s = 0.0;
                    for i in 0..4 { s = s + pop(); }
                    push(s);
                }
                actor First(pop 4, push 1) { x = pop(); push(x); }
                join roundrobin(1, 1);
            }
        }"#,
    )
    .unwrap();
    let axis = InputAxis::total_size("N", 16, 4096);
    let err = compile(&p, &device(), &axis).unwrap_err();
    assert!(matches!(err, Error::Semantic(_)), "{err:?}");
}

#[test]
fn loop_bound_no_parameter_defines_is_refused_at_compile_time() {
    // `M` is not a parameter, so no launch of this plan could size its
    // loop: the plan is refused up front instead of failing every run.
    let p = parse_program(
        r#"pipeline P(N) {
            actor R(pop N, push N) {
                for i in 0..M { push(pop() * 2.0); }
            }
        }"#,
    )
    .unwrap();
    let axis = InputAxis::total_size("N", 64, 4096);
    match compile(&p, &device(), &axis).unwrap_err() {
        Error::Runtime(msg) => assert!(msg.contains("unbound loop bound"), "{msg}"),
        other => panic!("expected the unbound bound, got {other:?}"),
    }
}

#[test]
fn compile_single_runs_at_its_point() {
    let p = parse_program(
        r#"pipeline P(N) {
            actor Neg(pop 1, push 1) { push(0.0 - pop()); }
        }"#,
    )
    .unwrap();
    let compiled = compile_single(&p, &device(), &bindings(&[("N", 256)])).unwrap();
    assert_eq!(compiled.variant_count(), 1);
    let rep = compiled
        .run_opts(
            1,
            &[1.0, -2.0, 3.0],
            &[],
            RunOptions::serial(ExecMode::Full),
            None,
        )
        .unwrap();
    assert_eq!(rep.output, vec![-1.0, 2.0, -3.0]);
}

#[test]
fn state_binding_surplus_is_harmless() {
    // Extra (unused) bindings must not fail the run.
    let p = parse_program("pipeline P(N) { actor Id(pop 1, push 1) { push(pop()); } }").unwrap();
    let axis = InputAxis::total_size("N", 16, 4096);
    let compiled = compile(&p, &device(), &axis).unwrap();
    let rep = compiled
        .run_opts(
            64,
            &vec![2.0; 64],
            &[StateBinding::new("Ghost", "x", vec![1.0])],
            RunOptions::serial(ExecMode::Full),
            None,
        )
        .unwrap();
    assert_eq!(rep.output, vec![2.0; 64]);
}

#[test]
fn axis_clamps_out_of_range_queries() {
    let p = parse_program("pipeline P(N) { actor Id(pop 1, push 1) { push(pop()); } }").unwrap();
    let axis = InputAxis::total_size("N", 100, 200);
    let compiled = compile(&p, &device(), &axis).unwrap();
    // Below and above the compiled range: clamped variants still run.
    let (lo_idx, _) = compiled.variant_for(1);
    let (hi_idx, _) = compiled.variant_for(1_000_000);
    assert_eq!(lo_idx, 0);
    assert_eq!(hi_idx, compiled.variant_count() - 1);
}

/// Launch `kernel` and return the message of the block panic it must die
/// of.
fn worker_panic(mem: &mut GlobalMem, kernel: &(dyn Kernel + Sync)) -> String {
    let (pool, ctl) = (ScratchPool::new(), LaunchControl::default());
    let mode = ExecMode::Full;
    match try_launch_pooled(&device(), mem, kernel, mode, ExecPolicy::Serial, &pool, ctl) {
        Err(LaunchError::WorkerPanic { message }) => message,
        other => panic!("expected a worker panic, got {other:?}"),
    }
}

/// A stencil kernel over a `rows x cols` grid for the one-actor program
/// `src`, its column halo shrunk by `halo_cut`.
fn stencil_kernel(
    src: &str,
    binds: &[(&str, i64)],
    (rows, cols): (usize, usize),
    halo_cut: usize,
    mem: &mut GlobalMem,
) -> StencilKernel {
    let p = parse_program(src).unwrap();
    let pat = detect_stencil(&p.actors[0]).expect("stencil");
    let (hr, hc) = pat.halo();
    let in_buf = mem.alloc(rows * cols);
    let out_buf = mem.alloc(rows * cols);
    let binds = bindings(binds);
    let lv = pat.loop_var.as_str();
    let program = Arc::new(compile_body(&pat.body, &binds, &[(lv, Ty::I64)]).unwrap());
    let counts = body_counts(&pat.body, &binds);
    StencilKernel {
        name: "stencil".into(),
        body: Body::new(program, &binds, Some(lv), &[], counts, Arc::default()).unwrap(),
        rows,
        cols,
        tile_w: 32,
        tile_h: if rows == 1 { 1 } else { 4 },
        halo_r: hr as usize,
        halo_c: hc as usize - halo_cut,
        block_dim: 256,
        in_buf,
        out_buf,
    }
}

// The three tests below pin the checks on the warp-row fast paths: a
// contiguous run of peeks is mapped and checked at its two ends only, and
// a unit-stride row moves as one slice, so each fault here sits in a
// single end lane of an otherwise valid row.

#[test]
fn stencil_with_a_halo_one_too_small_still_escapes() {
    // Every interior warp's `peek(idx - 1)` leaves the tile by one column
    // in its first lane only, and `peek(idx + 1)` in its last.
    let src = r#"pipeline P(rows, cols) {
        actor S(pop rows*cols, push rows*cols, peek rows*cols) {
            for idx in 0..rows*cols {
                c = idx % cols;
                if (c > 0 && c < cols - 1) {
                    push(peek(idx - 1) + peek(idx + 1));
                } else {
                    push(peek(idx));
                }
            }
        }
    }"#;
    let mut mem = GlobalMem::new();
    let k = stencil_kernel(src, &[("rows", 8), ("cols", 96)], (8, 96), 1, &mut mem);
    assert_eq!((k.halo_c, k.tile_w), (0, 32));
    let message = worker_panic(&mut mem, &k);
    assert!(message.contains("escapes the halo"), "{message}");
}

#[test]
fn stencil_peek_past_the_input_is_still_caught() {
    // Unguarded `peek(i + 1)`: only the grid's last element, the last
    // lane of the last warp's run, peeks one word past the input.
    let src = r#"pipeline P(n) {
        actor S(pop n, push n, peek n) {
            for i in 0..n { push(peek(i + 1)); }
        }
    }"#;
    let mut mem = GlobalMem::new();
    let k = stencil_kernel(src, &[("n", 64)], (1, 64), 0, &mut mem);
    let message = worker_panic(&mut mem, &k);
    assert!(
        message.contains("peek at 64 outside the input"),
        "{message}"
    );
}

/// One warp loading `row` from `buf`.
struct OneRow {
    buf: BufId,
    row: Row<'static>,
}

impl Kernel for OneRow {
    fn name(&self) -> &str {
        "one_row"
    }

    fn config(&self) -> LaunchConfig {
        LaunchConfig::new(1, 32, 0)
    }

    fn run_block(&self, _block: u32, ctx: &mut BlockCtx<'_>) {
        ctx.ld_global_row(0, 0, self.buf, self.row, &mut [0.0; 32]);
    }
}

#[test]
fn affine_global_row_past_the_buffer_is_out_of_bounds() {
    let mut mem = GlobalMem::new();
    let buf = mem.alloc(100);
    let affine = |base, stride| Row::Affine {
        lo: 0,
        lanes: 32,
        base,
        stride,
    };
    // In bounds up to the last word: fine.
    let (pool, ctl) = (ScratchPool::new(), LaunchControl::default());
    let k = OneRow {
        buf,
        row: affine(68, 1),
    };
    try_launch_pooled(
        &device(),
        &mut mem,
        &k,
        ExecMode::Full,
        ExecPolicy::Serial,
        &pool,
        ctl,
    )
    .expect("row ends at the buffer's last word");
    // The slice move (unit stride) and the per-lane move (any other),
    // each with only its last lane one word out.
    for row in [affine(69, 1), affine(7, 3)] {
        let message = worker_panic(&mut mem, &OneRow { buf, row });
        assert!(message.contains("load out of bounds"), "{row:?}: {message}");
    }
    // A progression that wraps the address space never reaches memory.
    let message = worker_panic(
        &mut mem,
        &OneRow {
            buf,
            row: affine(u64::MAX - 40, 2),
        },
    );
    assert!(message.contains("wraps"), "{message}");
}
