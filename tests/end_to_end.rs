//! Cross-crate integration tests: DSL source → Adaptic compilation → GPU
//! simulator execution, differentially checked against the `streamir`
//! interpreter and the CPU references, on both device targets.

use adaptic_repro::adaptic::{
    compile, compile_with_options, CompileOptions, InputAxis, RunOptions, StateBinding,
};
use adaptic_repro::apps::programs::{self, zip2};
use adaptic_repro::baselines::reference;
use adaptic_repro::gpu_sim::{DeviceSpec, ExecMode};
use adaptic_repro::streamir::interp::Interpreter;

fn devices() -> Vec<DeviceSpec> {
    vec![DeviceSpec::tesla_c2050(), DeviceSpec::gtx285()]
}

fn assert_close(got: f32, want: f32, tol: f32, what: &str) {
    assert!(
        (got - want).abs() <= tol * want.abs().max(1.0),
        "{what}: {got} vs {want}"
    );
}

#[test]
fn blas1_reductions_match_references_on_both_devices() {
    for device in devices() {
        let axis = InputAxis::total_size("N", 256, 1 << 18);
        for n in [256usize, 4096, 65536] {
            let x: Vec<f32> = (0..n).map(|i| ((i * 13) % 17) as f32 - 8.0).collect();
            let y: Vec<f32> = (0..n).map(|i| ((i * 7) % 11) as f32 - 5.0).collect();

            let sdot = compile(&programs::sdot().program, &device, &axis).unwrap();
            let rep = sdot.run(n as i64, &zip2(&x, &y)).unwrap();
            assert_close(rep.output[0], reference::dot(&x, &y), 1e-3, "sdot");

            let sasum = compile(&programs::sasum().program, &device, &axis).unwrap();
            let rep = sasum.run(n as i64, &x).unwrap();
            assert_close(rep.output[0], reference::asum(&x), 1e-3, "sasum");

            let snrm2 = compile(&programs::snrm2().program, &device, &axis).unwrap();
            let rep = snrm2.run(n as i64, &x).unwrap();
            assert_close(rep.output[0], reference::nrm2(&x), 1e-3, "snrm2");

            let isamax = compile(&programs::isamax().program, &device, &axis).unwrap();
            let rep = isamax.run(n as i64, &x).unwrap();
            assert_close(rep.output[0], reference::amax_abs(&x), 1e-5, "isamax");
        }
    }
}

#[test]
fn every_variant_of_the_table_is_functionally_correct() {
    // Run the compiled sum at a size inside every variant's range; all
    // must produce the same (correct) value.
    let device = DeviceSpec::tesla_c2050();
    let axis = InputAxis::total_size("N", 256, 1 << 18);
    let program = programs::sasum().program;
    let compiled = compile(&program, &device, &axis).unwrap();
    assert!(compiled.variant_count() >= 2);
    for v in &compiled.variants {
        let n = ((v.lo + v.hi) / 2).clamp(v.lo, v.hi) as usize;
        let x: Vec<f32> = (0..n).map(|i| ((i * 3) % 13) as f32 - 6.0).collect();
        let rep = compiled.run(n as i64, &x).unwrap();
        assert_close(
            rep.output[0],
            reference::asum(&x),
            1e-3,
            &format!("variant [{}, {}]", v.lo, v.hi),
        );
    }
}

#[test]
fn tmv_matches_reference_across_shapes_and_devices() {
    let total: i64 = 1 << 14;
    for device in devices() {
        let axis = InputAxis::new("rows", 4, total / 4, move |rows| {
            adaptic_repro::streamir::graph::bindings(&[("rows", rows), ("cols", total / rows)])
        })
        .with_items(move |_| total);
        let compiled = compile(&programs::tmv().program, &device, &axis).unwrap();
        for rows in [4usize, 128, 2048] {
            let cols = total as usize / rows;
            let a: Vec<f32> = (0..total as usize).map(|i| ((i * 7) % 5) as f32).collect();
            let x: Vec<f32> = (0..cols).map(|i| ((i * 3) % 4) as f32).collect();
            let rep = compiled
                .run_opts(
                    rows as i64,
                    &a,
                    &[StateBinding::new("RowDot", "x", x.clone())],
                    RunOptions::serial(ExecMode::Full),
                    None,
                )
                .unwrap();
            let expected = reference::tmv(&a, &x, rows, cols);
            for (r, &exp) in expected.iter().enumerate() {
                assert_close(
                    rep.output[r],
                    exp,
                    1e-3,
                    &format!("{}: tmv {rows}x{cols} row {r}", device.name),
                );
            }
        }
    }
}

#[test]
fn dct_pipeline_matches_reference() {
    let device = DeviceSpec::tesla_c2050();
    let axis = InputAxis::total_size("N", 1, 1 << 12);
    let compiled = compile(&programs::dct8x8().program, &device, &axis).unwrap();
    let n_tiles = 9usize;
    let tiles: Vec<f32> = (0..n_tiles * 64)
        .map(|i| ((i * 31) % 19) as f32 - 9.0)
        .collect();
    let rep = compiled.run(n_tiles as i64, &tiles).unwrap();
    for t in 0..n_tiles {
        let expected = reference::dct8x8(&tiles[t * 64..(t + 1) * 64]);
        for (i, &exp) in expected.iter().enumerate() {
            assert_close(
                rep.output[t * 64 + i],
                exp,
                1e-3,
                &format!("dct tile {t} coeff {i}"),
            );
        }
    }
}

#[test]
fn black_scholes_matches_reference_and_interpreter() {
    let device = DeviceSpec::tesla_c2050();
    let axis = InputAxis::total_size("N", 16, 1 << 16);
    let program = programs::black_scholes().program;
    let compiled = compile(&program, &device, &axis).unwrap();
    let n = 500usize;
    let prices: Vec<f32> = (0..n)
        .flat_map(|i| vec![80.0 + (i % 40) as f32, 100.0, 0.25 + 0.01 * (i % 50) as f32])
        .collect();
    let state = [StateBinding::new("Price", "rv", vec![0.02, 0.3])];
    let rep = compiled
        .run_opts(
            n as i64,
            &prices,
            &state,
            RunOptions::serial(ExecMode::Full),
            None,
        )
        .unwrap();

    let mut it = Interpreter::new(&program);
    it.bind_param("N", n as i64);
    it.bind_state("Price", "rv", vec![0.02, 0.3]);
    let golden = it.run(&prices).unwrap();
    assert_eq!(rep.output.len(), golden.len());
    for (i, (g, w)) in rep.output.iter().zip(&golden).enumerate() {
        assert_close(*g, *w, 1e-4, &format!("black-scholes item {i}"));
    }
}

#[test]
fn optimization_levels_agree_functionally() {
    // Figure 11's premise: every optimization level computes the same
    // answers, only the kernels differ.
    let device = DeviceSpec::gtx285();
    let src = r#"pipeline P(N) {
        actor A(pop 2, push 1) {
            x = pop();
            y = pop();
            push(x * 2.0 + y);
        }
        actor B(pop 1, push 1) { push(pop() - 1.0); }
    }"#;
    let program = adaptic_repro::streamir::parse::parse_program(src).unwrap();
    let axis = InputAxis::total_size("N", 64, 1 << 16);
    let n = 3000usize;
    let input: Vec<f32> = (0..2 * n).map(|i| (i % 23) as f32).collect();
    let mut outputs = Vec::new();
    for opts in [
        CompileOptions::baseline(),
        CompileOptions {
            segmentation: true,
            memory: false,
            integration: false,
            probes: 9,
        },
        CompileOptions::default(),
    ] {
        let compiled = compile_with_options(&program, &device, &axis, opts).unwrap();
        let rep = compiled.run(n as i64, &input).unwrap();
        outputs.push(rep.output);
    }
    assert_eq!(outputs[0], outputs[1]);
    assert_eq!(outputs[0], outputs[2]);
    // And they are correct.
    for i in 0..n {
        assert_eq!(outputs[0][i], input[2 * i] * 2.0 + input[2 * i + 1] - 1.0);
    }
}

#[test]
fn gtx285_respects_its_smaller_limits() {
    // Compiling for the GT200-class part must never produce launches that
    // exceed 512 threads/block or 16 KB shared — the simulator panics on
    // violations, so a clean run is the assertion.
    let device = DeviceSpec::gtx285();
    for bench in programs::figure9_benches() {
        if bench.program.params.len() != 1 {
            continue;
        }
        let axis = InputAxis::total_size(&bench.program.params[0], 256, 1 << 18);
        let compiled = match compile(&bench.program, &device, &axis) {
            Ok(c) => c,
            Err(e) => panic!("{}: {e}", bench.name),
        };
        let n = 8192usize;
        let needed = match bench.name {
            "Sdot" => 2 * n,
            "Scalar Product" => 2 * n,
            "MonteCarlo" => 6 * n,
            _ => n,
        };
        let input: Vec<f32> = (0..needed).map(|i| (i % 9) as f32).collect();
        let _ = compiled
            .run_opts(
                n as i64,
                &input,
                &[],
                RunOptions::serial(ExecMode::SampledExec(32)),
                None,
            )
            .unwrap();
    }
}
