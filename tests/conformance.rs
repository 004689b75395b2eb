//! Cross-engine conformance suite: every template family, on both device
//! presets, must produce **bit-identical** outputs, stream cursors and
//! kernel statistics under both execution engines — the warp-batched
//! evaluator driven serially and by 4 parallel workers — and every output
//! must match the oracle, the independent `streamir::Interpreter`.
//!
//! The engines run the same plan, so any divergence between them is a bug
//! by definition; comparing at the bit level (not within-epsilon) is what
//! lets the deterministic-parallel claim be trusted at all. Against the
//! interpreter the comparison is bit-level too wherever the template
//! preserves evaluation order (maps, stencils), and within float
//! reassociation error for the tree-order reductions.
//!
//! Inputs come from the replayable seed corpus in
//! `tests/corpus/conformance_seeds.txt` via the shared harness in
//! `tests/common/mod.rs` (also driven by the chaos suite): each seed
//! drives a deterministic LCG, and every failure message names the
//! family, device, engine, seed and size, so a red run replays exactly.

mod common;

use adaptic_repro::adaptic::{ExecMode, ExecPolicy, RunOptions};
use adaptic_repro::gpu_sim::DeviceSpec;
use common::{assert_matches_oracle, cases, compiled_for, corpus_seeds, data, devices};

/// The two engines under test. Serial (the default) is the baseline the
/// parallel engine is compared against.
fn engines() -> Vec<(&'static str, RunOptions<'static>)> {
    vec![
        ("serial-warp", RunOptions::serial(ExecMode::Full)),
        (
            "parallel-warp",
            RunOptions {
                policy: ExecPolicy::Parallel(4),
                ..RunOptions::serial(ExecMode::Full)
            },
        ),
    ]
}

#[test]
fn engines_are_bit_identical_across_families_devices_and_seeds() {
    let seeds = corpus_seeds();
    for case in cases() {
        for device in devices() {
            let compiled = compiled_for(&case, &device);
            for &x in case.sizes {
                for &seed in &seeds {
                    let input = data((case.items)(x), seed);
                    let state = (case.state)();
                    let ctx = format!(
                        "family={} device={} x={x} seed={seed}",
                        case.family, device.name
                    );

                    let engines = engines();
                    let (_, base_opts) = &engines[0];
                    let base = compiled
                        .run_opts(x, &input, &state, *base_opts, None)
                        .unwrap_or_else(|e| panic!("{ctx}: baseline run failed: {e}"));
                    assert_matches_oracle(
                        &base.output,
                        &case.interpret(x, &input),
                        case.bit_exact(),
                        &ctx,
                    );

                    for (engine, opts) in &engines[1..] {
                        let got = compiled
                            .run_opts(x, &input, &state, *opts, None)
                            .unwrap_or_else(|e| panic!("{ctx} engine={engine}: {e}"));

                        // Output stream: identical cursor (length) and
                        // bit-identical values.
                        assert_eq!(
                            got.output.len(),
                            base.output.len(),
                            "{ctx} engine={engine}: output cursor diverged"
                        );
                        for (i, (g, b)) in got.output.iter().zip(&base.output).enumerate() {
                            assert_eq!(
                                g.to_bits(),
                                b.to_bits(),
                                "{ctx} engine={engine}: output[{i}] {g} vs {b}"
                            );
                        }

                        // Selection and kernel statistics.
                        assert_eq!(
                            got.variant_index, base.variant_index,
                            "{ctx} engine={engine}: variant diverged"
                        );
                        assert_eq!(
                            got.kernels.len(),
                            base.kernels.len(),
                            "{ctx} engine={engine}: launch count diverged"
                        );
                        for (g, b) in got.kernels.iter().zip(&base.kernels) {
                            assert_eq!(g.name, b.name, "{ctx} engine={engine}");
                            assert_eq!(
                                g.stats, b.stats,
                                "{ctx} engine={engine} kernel={}: stats diverged",
                                g.name
                            );
                            assert_eq!(
                                g.estimate, b.estimate,
                                "{ctx} engine={engine} kernel={}: estimate diverged",
                                g.name
                            );
                        }
                        assert_eq!(
                            got.telemetry, base.telemetry,
                            "{ctx} engine={engine}: telemetry diverged"
                        );
                    }
                }
            }
        }
    }
}

/// Dynamic-rate conformance: the same regime-flip trace through a
/// [`DynamicRegion`] per engine, with rates on both sides of the
/// declaration. Every firing (in-declaration and clamped) stays
/// bit-identical across both engines and matches the interpreter, and
/// the region's counters agree across engines because they observe
/// rates, not execution.
#[test]
fn dynamic_regions_and_their_clamps_are_bit_identical_across_engines() {
    use adaptic_repro::adaptic::{CompileOptions, DynamicRegion, ReschedPolicy};
    use adaptic_repro::apps::programs;
    use adaptic_repro::streamir::RateInterval;

    let mut program = programs::sasum().program;
    let declared = RateInterval::new(64, 8192).unwrap();
    program
        .actors
        .iter_mut()
        .find(|a| a.name == "Asum")
        .unwrap()
        .dyn_rates
        .insert("N".into(), declared);
    // Two dwells per regime: tiny, huge, tiny, with 32 below and 16384
    // above the declared [64, 8192], so the trace exercises the manager
    // path and the clamped path.
    let trace: Vec<i64> = [
        64, 32, 96, 128, 8192, 16384, 4096, 6144, 2048, 96, 32, 64, 128,
    ]
    .iter()
    .flat_map(|&x| [x, x])
    .collect();
    let input = data(16384, 11);
    let outside = trace.iter().filter(|&&x| !declared.contains(x)).count() as u64;

    struct EnginePass {
        engine: &'static str,
        outs: Vec<Vec<f32>>,
        counts: (u64, u64),
        variants: Vec<usize>,
        stats: Vec<Vec<adaptic_repro::gpu_sim::KernelStats>>,
        telemetry: Option<adaptic_repro::adaptic::TelemetrySnapshot>,
    }

    // The oracle: a reduction, so within reassociation tolerance.
    let oracle = |x: i64| {
        let mut it = adaptic_repro::streamir::Interpreter::new(&program);
        it.bind_param("N", x);
        it.run(&input[..x as usize]).unwrap()
    };

    for device in devices() {
        let engines = engines();
        let mut outputs: Vec<EnginePass> = Vec::new();
        for (engine, opts) in &engines {
            let mut region = DynamicRegion::new(
                &program,
                &device,
                CompileOptions::default(),
                ReschedPolicy,
                trace[0],
                None,
            )
            .unwrap_or_else(|e| panic!("device={} engine={engine}: {e}", device.name));
            let mut outs = Vec::new();
            let mut variants = Vec::new();
            let mut stats = Vec::new();
            let mut telemetry = None;
            for (t, &x) in trace.iter().enumerate() {
                let rep = region
                    .run(x, &input[..x as usize], &[], *opts)
                    .unwrap_or_else(|e| {
                        panic!(
                            "device={} engine={engine} firing {t} (x={x}): {e}",
                            device.name
                        )
                    });
                assert_matches_oracle(
                    &rep.output,
                    &oracle(x),
                    false,
                    &format!("device={} engine={engine} firing {t} (x={x})", device.name),
                );
                outs.push(rep.output);
                variants.push(rep.variant_index);
                stats.push(rep.kernels.into_iter().map(|k| k.stats).collect());
                telemetry = rep.telemetry;
            }
            assert_eq!(
                region.clamped_runs(),
                outside,
                "device={} engine={engine}: every outside firing clamped once",
                device.name
            );
            outputs.push(EnginePass {
                engine,
                outs,
                counts: (region.reschedules(), region.clamped_runs()),
                variants,
                stats,
                telemetry,
            });
        }

        let base = &outputs[0];
        let base_name = &base.engine;
        for EnginePass {
            engine,
            outs,
            counts,
            variants,
            stats,
            telemetry,
        } in &outputs[1..]
        {
            assert_eq!(
                counts, &base.counts,
                "device={}: re-plan and clamp counts diverged between {base_name} and {engine}",
                device.name
            );
            assert_eq!(
                variants, &base.variants,
                "device={}: variant selection diverged between {base_name} and {engine}",
                device.name
            );
            assert_eq!(
                stats, &base.stats,
                "device={}: kernel statistics diverged between {base_name} and {engine}",
                device.name
            );
            assert_eq!(
                telemetry, &base.telemetry,
                "device={}: telemetry diverged between {base_name} and {engine}",
                device.name
            );
            for (t, (got, base)) in outs.iter().zip(&base.outs).enumerate() {
                assert_eq!(
                    got.len(),
                    base.len(),
                    "device={} engine={engine} firing {t}: output cursor diverged",
                    device.name
                );
                for (i, (g, b)) in got.iter().zip(base).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        b.to_bits(),
                        "device={} engine={engine} firing {t}: output[{i}] {g} vs {b}",
                        device.name
                    );
                }
            }
        }
    }
}

#[test]
fn conformance_covers_every_template_family() {
    // The suite's coverage claim, pinned: if a new template family is
    // added to the compiler, this test reminds the author to extend the
    // conformance matrix.
    use adaptic_repro::adaptic::SegChoice;
    let mut seen = std::collections::BTreeSet::new();
    let device = DeviceSpec::tesla_c2050();
    for case in cases() {
        let compiled = compiled_for(&case, &device);
        for v in &compiled.variants {
            for c in &v.choices {
                seen.insert(match c {
                    SegChoice::Reduce { .. } => "reduce",
                    SegChoice::Map { .. } => "unit-map",
                    SegChoice::Stencil { .. } => "stencil",
                    SegChoice::HFused { .. } => "hfused",
                    SegChoice::MapSiblings => "map-siblings",
                    SegChoice::Opaque => "host",
                });
            }
        }
    }
    for family in ["unit-map", "reduce", "stencil", "hfused", "map-siblings"] {
        assert!(seen.contains(family), "family {family} not exercised");
    }
}
