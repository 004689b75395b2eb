//! Workspace-level property tests: the compiled pipeline agrees with the
//! interpreter on randomly generated programs and inputs, and structural
//! invariants of compilation hold.

mod common;

use proptest::prelude::*;

use std::collections::HashMap;

use adaptic_repro::adaptic::bytecode::compile_body;
use adaptic_repro::adaptic::warp::{self, full_mask, VecWarpIo, WarpFrame};
use adaptic_repro::adaptic::{
    compile, compile_with_store, restructure, unrestructure, CompileOptions, CompiledProgram,
    InputAxis, RunOptions, StateBinding,
};
use adaptic_repro::gpu_sim::{DeviceSpec, ExecMode, ExecPolicy};
use adaptic_repro::streamir::graph::Program;
use adaptic_repro::streamir::interp::Interpreter;
use adaptic_repro::streamir::parse::parse_program;
use common::{assert_matches_oracle, temp_store};

/// One random building block for a work body. Every block is valid by
/// construction: it only reads variables that are definitely assigned
/// (`x`, `k`, the 4-element state array `s`), keeps peeks in bounds, and
/// keeps every integer divisor provably nonzero — so the reference
/// interpreter never errors and the compiled body never diverges on an
/// invalid program.
fn body_block(sel: u8) -> &'static str {
    match sel % 8 {
        0 => "x = x + peek(0) * 0.5;",
        1 => "k = k * 2654435761 + 12345;",
        2 => "x = x + (k % 97) * 0.125;",
        3 => "acc = 0.0; for i in 0..4 { acc = acc + peek(i); } x = x + acc;",
        4 => "if (x < 0.0) { x = 0.0 - x; } else { x = x * 1.5; }",
        5 => "s[1] = x + s[1]; x = x + s[2] * s[0];",
        6 => "k = k - 7 * (k / 3); x = x / ((k % 7 + 8) * 1.0);",
        _ => "x = max(x, 0.0 - 100.0) + pop();",
    }
}

/// One random *divergence-heavy* building block: data-dependent
/// branches and loop trip counts, so neighbouring warp lanes take
/// different control paths and reconverge. The last two store a uniform
/// value under a varying branch or loop and read it after the join,
/// where only some lanes hold it. Stateless on purpose — warp
/// lanes share one state array in lockstep, so sequential-firing state
/// semantics only apply lane-privately (which the templates guarantee
/// and `random_body_bytecode_matches_ast_oracle` covers host-side).
fn divergent_block(sel: u8) -> &'static str {
    match sel % 8 {
        0 => "if (x > 0.0) { t = 6; } else { t = 2; } for i in 0..t { x = x * 0.75 + 0.25; }",
        1 => "if (x < 0.0) { x = 0.0 - x; } else { x = x * 1.125; }",
        2 => "if (x > 2.0) { x = x - 4.0; } else { if (x > 0.5) { x = x * 0.5; } else { x = x + 1.0; } }",
        3 => "t = 1; if (x > 1.0) { t = t + 3; } if (x > 3.0) { t = t + 4; } for i in 0..t { x = x * 0.875; }",
        4 => "for i in 0..3 { if (x > 1.0) { x = x * 0.5; } else { x = x + 0.375; } }",
        5 => "x = x + 0.0625;",
        6 => "u = 2.0; if (x > 0.5) { u = 3.0; } x = x * u;",
        _ => "w = 1.0; m = 0; if (x > 0.0) { m = 2; } for j in 0..m { w = 0.25; } x = x + w;",
    }
}

/// The oracle for the template-family properties: `program` under the
/// reference interpreter at axis value `x` (the side of a square grid for
/// stencils, `N` otherwise).
fn interpret(program: &Program, is_stencil: bool, x: i64, input: &[f32]) -> Vec<f32> {
    let mut it = Interpreter::new(program);
    if is_stencil {
        it.bind_param("rows", x).bind_param("cols", x);
    } else {
        it.bind_param("N", x);
    }
    it.run(input).unwrap()
}

/// A random straight-line map body over one popped value.
fn map_expr(ops: &[u8]) -> String {
    let mut e = "x".to_string();
    for op in ops {
        e = match op % 5 {
            0 => format!("({e} + 1.5)"),
            1 => format!("({e} * 0.5)"),
            2 => format!("abs({e})"),
            3 => format!("max({e}, 0.25)"),
            _ => format!("({e} - 2.0)"),
        };
    }
    e
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any random map chain compiles and matches the interpreter exactly.
    #[test]
    fn random_map_chain_matches_interpreter(
        ops1 in proptest::collection::vec(0u8..5, 1..5),
        ops2 in proptest::collection::vec(0u8..5, 1..5),
        data in proptest::collection::vec(-100.0f32..100.0, 32..512),
    ) {
        let src = format!(
            "pipeline P(N) {{
                actor A(pop 1, push 1) {{ x = pop(); push({}); }}
                actor B(pop 1, push 1) {{ x = pop(); push({}); }}
            }}",
            map_expr(&ops1),
            map_expr(&ops2),
        );
        let program = parse_program(&src).unwrap();
        let n = data.len();
        let golden = Interpreter::new(&program).run(&data).unwrap();

        let device = DeviceSpec::tesla_c2050();
        let axis = InputAxis::total_size("N", 16, 1 << 14);
        let compiled = compile(&program, &device, &axis).unwrap();
        let rep = compiled.run(n as i64, &data).unwrap();
        prop_assert_eq!(rep.output, golden);
    }

    /// Random reductions (op and element transform) match a CPU fold
    /// within float-reassociation tolerance, at sizes spanning variants.
    #[test]
    fn random_reduction_matches_fold(
        op_sel in 0u8..3,
        elem_sel in 0u8..3,
        log_n in 6u32..14,
    ) {
        let (init, op) = match op_sel {
            0 => ("0.0", "acc + ELEM"),
            1 => ("-1000000.0", "max(acc, ELEM)"),
            _ => ("1000000.0", "min(acc, ELEM)"),
        };
        let elem = match elem_sel {
            0 => "pop()",
            1 => "abs(pop())",
            _ => "pow(pop(), 2.0)",
        };
        let body = op.replace("ELEM", elem);
        let src = format!(
            "pipeline P(N) {{
                actor R(pop N, push 1) {{
                    acc = {init};
                    for i in 0..N {{ acc = {body}; }}
                    push(acc);
                }}
            }}"
        );
        let program = parse_program(&src).unwrap();
        let n = 1usize << log_n;
        let data: Vec<f32> = (0..n).map(|i| ((i * 37) % 101) as f32 - 50.0).collect();

        let elem_f = |x: f32| -> f32 {
            match elem_sel {
                0 => x,
                1 => x.abs(),
                _ => x * x,
            }
        };
        let want = match op_sel {
            0 => data.iter().map(|x| elem_f(*x)).sum::<f32>(),
            1 => data.iter().map(|x| elem_f(*x)).fold(f32::NEG_INFINITY, f32::max),
            _ => data.iter().map(|x| elem_f(*x)).fold(f32::INFINITY, f32::min),
        };

        let device = DeviceSpec::tesla_c2050();
        let axis = InputAxis::total_size("N", 64, 1 << 14);
        let compiled = compile(&program, &device, &axis).unwrap();
        let rep = compiled.run(n as i64, &data).unwrap();
        prop_assert!(
            (rep.output[0] - want).abs() <= 1e-3 * want.abs().max(1.0),
            "{} vs {}", rep.output[0], want
        );
    }

    /// The variant table exactly tiles the compiled axis for arbitrary
    /// ranges.
    #[test]
    fn variant_table_tiles_the_axis(lo in 1i64..1000, span in 10i64..1_000_000) {
        let program = parse_program(
            "pipeline P(N) {
                actor Sum(pop N, push 1) {
                    acc = 0.0;
                    for i in 0..N { acc = acc + pop(); }
                    push(acc);
                }
            }",
        ).unwrap();
        let hi = lo + span;
        let axis = InputAxis::total_size("N", lo, hi);
        let compiled = compile(&program, &DeviceSpec::tesla_c2050(), &axis).unwrap();
        let vs = &compiled.variants;
        prop_assert_eq!(vs[0].lo, lo);
        prop_assert_eq!(vs.last().unwrap().hi, hi);
        for w in vs.windows(2) {
            prop_assert_eq!(w[0].hi + 1, w[1].lo);
        }
        for v in vs {
            prop_assert!(v.lo <= v.hi);
        }
    }

    /// Memory restructuring round-trips for arbitrary rates and data.
    #[test]
    fn restructure_round_trips(
        rate in 1usize..32,
        firings in 1usize..64,
    ) {
        let data: Vec<f32> = (0..rate * firings).map(|i| i as f32).collect();
        let t = restructure(&data, rate);
        prop_assert_eq!(unrestructure(&t, rate), data);
    }

    /// Simulated kernel statistics are deterministic: two runs of the
    /// same compiled program yield identical stats and outputs.
    #[test]
    fn execution_is_deterministic(seed in 0u64..100) {
        let program = parse_program(
            "pipeline P(N) { actor M(pop 1, push 1) { push(pop() * 3.0); } }",
        ).unwrap();
        let device = DeviceSpec::gtx285();
        let axis = InputAxis::total_size("N", 16, 1 << 12);
        let compiled = compile(&program, &device, &axis).unwrap();
        let data: Vec<f32> = (0..777).map(|i| ((i as u64 * seed) % 97) as f32).collect();
        let a = compiled.run(777, &data).unwrap();
        let b = compiled.run(777, &data).unwrap();
        prop_assert_eq!(a.output, b.output);
        prop_assert_eq!(a.time_us, b.time_us);
        prop_assert_eq!(a.kernels.len(), b.kernels.len());
    }

    /// Random work bodies (loops, branches, peeks after pops, state
    /// loads/stores, a state scalar, wrapping integer arithmetic mixed with
    /// floats) evaluate bit-identically on the opaque-actor host path —
    /// `compile` classifies the stateful actor opaque and `run_opts` fires
    /// it sequentially — and under the oracle, the `streamir` AST
    /// interpreter, over consecutive firings: same outputs, and — the body
    /// pushes `c` and `s[0..4]` last — same state after every firing. The
    /// plan is compiled twice through one artifact store, and the warm
    /// plan, whose bodies are lowered again beside the loaded table, must
    /// give the cold plan's output bit for bit.
    #[test]
    fn random_body_bytecode_matches_ast_oracle(
        blocks in proptest::collection::vec(0u8..8, 0..8),
        k0 in -1000i64..1000,
        data in proptest::collection::vec(-50.0f32..50.0, 64..96),
        sdata in proptest::collection::vec(-4.0f32..4.0, 4),
    ) {
        let body_src = blocks.iter().map(|b| body_block(*b)).collect::<Vec<_>>().join("\n");
        let src = format!(
            "pipeline P(N) {{
                actor T(pop 16, push 7, peek 16) {{
                    state s[4];
                    state c = 0.5;
                    x = pop();
                    k = {k0};
                    {body_src}
                    c = c * 0.5 + x;
                    push(x);
                    push((k % 1000) * 1.0);
                    push(c);
                    for j in 0..4 {{ push(s[j]); }}
                }}
            }}"
        );
        let program = parse_program(&src).unwrap();
        let firings = data.len() / 16;

        let mut it = Interpreter::new(&program);
        it.bind_state("T", "s", sdata.clone());
        let want = it.run(&data).unwrap();

        let device = DeviceSpec::tesla_c2050();
        let axis = InputAxis::total_size("N", 16, 1 << 12);
        let (dir, store) = temp_store("random_body");
        let build = || compile_with_store(&program, &device, &axis, CompileOptions::default(), &store);
        let (cold, warm) = (build().unwrap(), build().unwrap());
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!((store.misses(), store.hits()), (1, 1));
        let state = [StateBinding::new("T", "s", sdata.clone())];
        let opts = RunOptions::serial(ExecMode::Full);
        let run = |plan: &CompiledProgram| plan.run_opts(data.len() as i64, &data, &state, opts, None);
        let (rep, warm_rep) = (run(&cold).unwrap(), run(&warm).unwrap());
        prop_assert!(rep.kernels.is_empty(), "the stateful actor runs on the host");

        prop_assert_eq!(want.len(), firings * 7);
        prop_assert_eq!(want.len(), rep.output.len());
        for (i, (a, b)) in want.iter().zip(&rep.output).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "output {} differs: {} vs {}", i, a, b);
        }
        let bits = |out: &[f32]| out.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&rep.output), bits(&warm_rep.output), "warm plan diverged");
    }

    /// Every template family (map, reduction, stencil, fused split-join)
    /// matches the interpreter on random bodies, on both simulated
    /// devices: bit for bit where the template preserves evaluation order,
    /// within reassociation tolerance for the tree-order reductions.
    #[test]
    fn template_families_match_interpreter(
        family in 0u8..4,
        ops in proptest::collection::vec(0u8..5, 1..4),
        log_n in 8u32..11,
        dev_sel in 0u8..2,
    ) {
        let reassociates = matches!(family, 1 | 3);
        let (src, is_stencil) = match family {
            0 => (format!(
                "pipeline P(N) {{
                    actor A(pop 1, push 1) {{ x = pop(); push({}); }}
                    actor B(pop 1, push 1) {{ x = pop(); push(x + 1.0); }}
                }}",
                map_expr(&ops),
            ), false),
            1 => (format!(
                "pipeline P(N) {{
                    actor R(pop N, push 1) {{
                        acc = 0.0;
                        for i in 0..N {{ x = pop(); acc = acc + {}; }}
                        push(acc);
                    }}
                }}",
                map_expr(&ops),
            ), false),
            2 => ("pipeline P(rows, cols) {
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
                }".to_string(), true),
            _ => ("pipeline P(N) {
                    splitjoin {
                        split duplicate;
                        actor MaxA(pop N, push 1) {
                            m = -100000.0;
                            for i in 0..N { m = max(m, pop()); }
                            push(m);
                        }
                        actor SumA(pop N, push 1) {
                            s = 0.0;
                            for i in 0..N { s = s + pop(); }
                            push(s);
                        }
                        join roundrobin(1, 1);
                    }
                }".to_string(), false),
        };
        let program = parse_program(&src).unwrap();
        let device = if dev_sel == 0 {
            DeviceSpec::tesla_c2050()
        } else {
            DeviceSpec::gtx480()
        };
        let (axis, x, n_items) = if is_stencil {
            let side = 1usize << (log_n / 2).max(4);
            (
                InputAxis::new("side", 16, 512, |s| {
                    adaptic_repro::streamir::graph::bindings(&[("rows", s), ("cols", s)])
                }),
                side as i64,
                side * side,
            )
        } else {
            let n = 1usize << log_n;
            (InputAxis::total_size("N", 64, 1 << 14), n as i64, n)
        };
        let compiled = compile(&program, &device, &axis).unwrap();
        let input: Vec<f32> = (0..n_items).map(|i| ((i * 13) % 97) as f32 - 48.0).collect();

        let rep = compiled.run(x, &input).unwrap();
        assert_matches_oracle(
            &rep.output,
            &interpret(&program, is_stencil, x, &input),
            !reassociates,
            &format!("family {family} on {}", device.name),
        );
    }

    /// Branch-heavy bodies with uneven, data-dependent loop trip counts
    /// evaluate bit-identically on the warp-batched evaluator (lanes
    /// diverging and reconverging under predicate masks, including a
    /// ragged final warp), on one-lane frames one firing at a time (the
    /// shape of host-sequential firings), and under the `streamir` AST
    /// interpreter.
    #[test]
    fn warp_eval_matches_scalar_and_ast_on_divergent_bodies(
        blocks in proptest::collection::vec(0u8..8, 1..6),
        lanes in 2usize..33,
        data in proptest::collection::vec(-6.0f32..6.0, 33..97),
    ) {
        let body_src = blocks.iter().map(|b| divergent_block(*b)).collect::<Vec<_>>().join("\n");
        let src = format!(
            "pipeline P(N) {{
                actor D(pop 1, push 1) {{
                    x = pop();
                    {body_src}
                    push(x);
                }}
            }}"
        );
        let program = parse_program(&src).unwrap();
        let actor = program.actor("D").unwrap();
        let binds = adaptic_repro::streamir::graph::bindings(&[]);
        let firings = data.len();

        // The AST interpreter: one firing per input item.
        let ast_out = Interpreter::new(&program).run(&data).unwrap();

        // One lane, one firing at a time.
        let prog = compile_body(&actor.work.body, &binds, &[]).unwrap();
        let proto = prog.bind(&binds).unwrap();
        let mut one = WarpFrame::default();
        one.fit(&prog, 1);
        let mut one_io = VecWarpIo {
            input: data.clone(),
            cursor: vec![0],
            output: vec![0.0; firings],
            out_pos: vec![0],
            state: HashMap::new(),
        };
        for _ in 0..firings {
            one.reset(&proto);
            warp::eval(&prog, &mut one, 1, &mut one_io);
        }

        // Warp-batched, `lanes` firings per eval; the final warp is
        // ragged whenever `firings % lanes != 0`.
        let mut wf = WarpFrame::default();
        wf.fit(&prog, lanes);
        let mut wio = VecWarpIo {
            input: data.clone(),
            cursor: vec![0; lanes],
            output: vec![0.0; firings],
            out_pos: vec![0; lanes],
            state: HashMap::new(),
        };
        let mut base = 0;
        while base < firings {
            let live = lanes.min(firings - base);
            for l in 0..live {
                wio.cursor[l] = base + l;
                wio.out_pos[l] = base + l;
            }
            wf.reset(&proto);
            warp::eval(&prog, &mut wf, full_mask(live), &mut wio);
            base += live;
        }

        prop_assert_eq!(ast_out.len(), firings);
        prop_assert_eq!(one_io.out_pos[0], firings);
        for (i, ast) in ast_out.iter().enumerate() {
            prop_assert_eq!(
                ast.to_bits(),
                one_io.output[i].to_bits(),
                "firing {}: ast {} vs one lane {}", i, ast, one_io.output[i]
            );
            prop_assert_eq!(
                ast.to_bits(),
                wio.output[i].to_bits(),
                "firing {}: ast {} vs warp {}", i, ast, wio.output[i]
            );
        }
    }

    /// Five template families (divergent map, map chain, reduction,
    /// stencil, fused split-join) produce bit-identical outputs, kernel
    /// statistics, and report telemetry on both execution engines, on both
    /// simulated devices, and match the interpreter. Input sizes are odd
    /// so final warps are ragged.
    #[test]
    fn template_families_engine_stats_identical(
        family in 0u8..5,
        log_n in 8u32..11,
        dev_sel in 0u8..2,
    ) {
        let (src, is_stencil) = match family {
            0 => ("pipeline P(N) {
                    actor D(pop 1, push 1) {
                        x = pop();
                        if (x > 0.0) { t = 5; } else { t = 2; }
                        acc = 0.0;
                        for i in 0..t { acc = acc + x * 0.25; x = x * 0.5 + 0.125; }
                        if (acc > 1.0) { push(acc); } else { push(acc - x); }
                    }
                }".to_string(), false),
            1 => ("pipeline P(N) {
                    actor A(pop 1, push 1) { x = pop(); push(max(abs(x) * 0.5, 0.25)); }
                    actor B(pop 1, push 1) { x = pop(); push(x + 1.0); }
                }".to_string(), false),
            2 => ("pipeline P(N) {
                    actor R(pop N, push 1) {
                        acc = 0.0;
                        for i in 0..N { x = pop(); acc = acc + abs(x); }
                        push(acc);
                    }
                }".to_string(), false),
            3 => ("pipeline P(rows, cols) {
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
                }".to_string(), true),
            _ => ("pipeline P(N) {
                    splitjoin {
                        split duplicate;
                        actor MaxA(pop N, push 1) {
                            m = -100000.0;
                            for i in 0..N { m = max(m, pop()); }
                            push(m);
                        }
                        actor SumA(pop N, push 1) {
                            s = 0.0;
                            for i in 0..N { s = s + pop(); }
                            push(s);
                        }
                        join roundrobin(1, 1);
                    }
                }".to_string(), false),
        };
        let program = parse_program(&src).unwrap();
        let device = if dev_sel == 0 {
            DeviceSpec::tesla_c2050()
        } else {
            DeviceSpec::gtx480()
        };
        let (axis, x, n_items) = if is_stencil {
            let side = (1usize << (log_n / 2).max(4)) + 1;
            (
                InputAxis::new("side", 16, 512, |s| {
                    adaptic_repro::streamir::graph::bindings(&[("rows", s), ("cols", s)])
                }),
                side as i64,
                side * side,
            )
        } else {
            let n = (1usize << log_n) + 3;
            (InputAxis::total_size("N", 64, 1 << 14), n as i64, n)
        };
        let compiled = compile(&program, &device, &axis).unwrap();
        let input: Vec<f32> = (0..n_items).map(|i| ((i * 13) % 97) as f32 - 48.0).collect();

        let run = |policy| {
            let opts = RunOptions {
                policy,
                ..RunOptions::serial(ExecMode::Full)
            };
            compiled.run_opts(x, &input, &[], opts, None).unwrap()
        };
        let serial = run(ExecPolicy::Serial);
        assert_matches_oracle(
            &serial.output,
            &interpret(&program, is_stencil, x, &input),
            !matches!(family, 2 | 4),
            &format!("family {family} on {}", device.name),
        );
        let parallel = run(ExecPolicy::Parallel(2));
        prop_assert_eq!(serial.output.len(), parallel.output.len());
        for (a, b) in serial.output.iter().zip(&parallel.output) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "output differs: {} vs {}", a, b);
        }
        prop_assert_eq!(serial.kernels.len(), parallel.kernels.len());
        for (f, o) in serial.kernels.iter().zip(&parallel.kernels) {
            prop_assert_eq!(&f.stats, &o.stats, "kernel {} stats diverge", f.name);
        }
        prop_assert_eq!(serial.time_us, parallel.time_us);
        prop_assert_eq!(serial.host_time_us, parallel.host_time_us);
        prop_assert_eq!(serial.variant_index, parallel.variant_index);
        prop_assert_eq!(&serial.telemetry, &parallel.telemetry);
    }
}
