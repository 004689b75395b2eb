//! Error-path coverage: the compiler and runtime must fail loudly and
//! precisely, never silently mis-execute.

use adaptic::{compile, compile_single, InputAxis, RunOptions, StateBinding};
use gpu_sim::{DeviceSpec, ExecMode};
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
