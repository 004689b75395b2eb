//! Golden-stats snapshot tests: the five examples' `ExecutionReport` /
//! `KernelStats` (or run summaries, for the iterative solvers that return
//! their own summaries) and one report set per template family and device
//! preset, serialized into `tests/golden/*.txt` and compared
//! **byte-for-byte**.
//!
//! The whole stack — compiler, simulator, analytical model — is
//! deterministic, so any byte of drift in these snapshots is a behaviour
//! change that must be either fixed or consciously accepted.
//!
//! To accept an intentional change, regenerate the snapshots:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test golden_stats
//! git diff tests/golden/   # review what actually changed
//! ```
//!
//! Never regenerate to silence a diff you cannot explain.

mod common;

use std::fmt::Write as _;
use std::path::PathBuf;

use adaptic_repro::adaptic::{
    compile, compile_with_options, CompileOptions, CompiledProgram, ExecMode, ExecutionReport,
    InputAxis, RunOptions, StateBinding,
};
use adaptic_repro::apps::bicgstab::{self, AdapticBicgstab};
use adaptic_repro::apps::datasets::dataset;
use adaptic_repro::apps::programs;
use adaptic_repro::apps::svm::AdapticSvm;
use adaptic_repro::baselines::gpusvm::SvmConfig;
use adaptic_repro::gpu_sim::DeviceSpec;
use adaptic_repro::streamir::graph::Program;
use adaptic_repro::streamir::parse::parse_program;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

/// Compare `content` against the checked-in snapshot, byte for byte.
/// `UPDATE_GOLDEN=1` rewrites the snapshot instead.
fn check_golden(name: &str, content: &str) {
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDEN").as_deref() == Ok("1") {
        std::fs::write(&path, content).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden snapshot {path:?}; generate it with \
             `UPDATE_GOLDEN=1 cargo test --test golden_stats`"
        )
    });
    assert!(
        want == content,
        "golden snapshot `{name}` drifted.\n\
         --- checked in ---\n{want}\n--- produced ---\n{content}\n\
         If the change is intentional, regenerate with \
         `UPDATE_GOLDEN=1 cargo test --test golden_stats` and review the diff."
    );
}

/// Order-dependent digest of a float stream: every bit of every value
/// participates, so snapshots notice any numeric drift without storing
/// megabytes of output.
fn digest(xs: &[f32]) -> String {
    let mut acc = 0xcbf29ce484222325u64; // FNV-1a
    for x in xs {
        acc = (acc ^ x.to_bits() as u64).wrapping_mul(0x100000001b3);
    }
    format!("len={} fnv={acc:016x}", xs.len())
}

/// Stable text rendering of an [`ExecutionReport`]: selection, stream
/// digest, timing, and every kernel's statistics and model estimate.
fn render_report(tag: &str, rep: &ExecutionReport) -> String {
    let mut s = String::new();
    writeln!(s, "[{tag}]").unwrap();
    writeln!(
        s,
        "variant={} output {}",
        rep.variant_index,
        digest(&rep.output)
    )
    .unwrap();
    writeln!(
        s,
        "time_us={:?} host_time_us={:?} cache={}h/{}m",
        rep.time_us, rep.host_time_us, rep.cache_hits, rep.cache_misses
    )
    .unwrap();
    for k in &rep.kernels {
        writeln!(
            s,
            "kernel {} grid={} block={} shared={} recorded={} executed={} cached={}",
            k.name,
            k.stats.config.grid_dim,
            k.stats.config.block_dim,
            k.stats.config.shared_words,
            k.stats.recorded_blocks,
            k.stats.executed_blocks,
            k.cached
        )
        .unwrap();
        writeln!(s, "  totals {:?}", k.stats.totals).unwrap();
        writeln!(
            s,
            "  estimate class={:?} cycles={:?} time_us={:?} mwp={:?} cwp={:?}",
            k.estimate.class,
            k.estimate.total_cycles,
            k.estimate.time_us,
            k.estimate.mwp,
            k.estimate.cwp
        )
        .unwrap();
    }
    s
}

#[test]
fn quickstart_reports_are_stable() {
    let program = parse_program(
        r#"pipeline MeanSquare(N) {
            actor Square(pop 1, push 1) {
                x = pop();
                push(x * x);
            }
            actor Mean(pop N, push 1) {
                acc = 0.0;
                for i in 0..N { acc = acc + pop(); }
                push(acc / N);
            }
        }"#,
    )
    .unwrap();
    let device = DeviceSpec::tesla_c2050();
    let axis = InputAxis::total_size("N", 1 << 8, 1 << 22);
    let compiled = compile(&program, &device, &axis).unwrap();

    let mut snap = String::new();
    writeln!(snap, "variants={}", compiled.variant_count()).unwrap();
    for (i, v) in compiled.variants.iter().enumerate() {
        writeln!(
            snap,
            "v{i}: [{}, {}] {:?} tags={:?}",
            v.lo, v.hi, v.choices, v.tags
        )
        .unwrap();
    }
    for n in [512usize, 1 << 14] {
        let input: Vec<f32> = (0..n).map(|i| (i % 100) as f32 * 0.1).collect();
        let rep = compiled.run(n as i64, &input).unwrap();
        snap.push_str(&render_report(&format!("quickstart N={n}"), &rep));
    }
    check_golden("quickstart", &snap);
}

#[test]
fn heat_stencil_reports_are_stable() {
    let program = parse_program(
        r#"pipeline Heat(rows, cols) {
            actor Diffuse(pop rows*cols, push rows*cols, peek rows*cols) {
                for idx in 0..rows*cols {
                    r = idx / cols;
                    c = idx % cols;
                    if (r > 0 && r < rows - 1 && c > 0 && c < cols - 1) {
                        push(peek(idx)
                            + 0.2 * (peek(idx - 1) + peek(idx + 1)
                                + peek(idx - cols) + peek(idx + cols)
                                - 4.0 * peek(idx)));
                    } else {
                        push(peek(idx));
                    }
                }
            }
        }"#,
    )
    .unwrap();
    let device = DeviceSpec::tesla_c2050();
    let axis = InputAxis::new("side", 16, 256, |s| {
        adaptic_repro::streamir::graph::bindings(&[("rows", s), ("cols", s)])
    });
    let compiled = compile(&program, &device, &axis).unwrap();

    let side = 48usize;
    let mut grid = vec![0.0f32; side * side];
    for r in side / 3..2 * side / 3 {
        for c in side / 3..2 * side / 3 {
            grid[r * side + c] = 100.0;
        }
    }
    let mut snap = String::new();
    for step in 0..3 {
        let rep = compiled.run(side as i64, &grid).unwrap();
        snap.push_str(&render_report(
            &format!("heat side={side} step={step}"),
            &rep,
        ));
        grid = rep.output;
    }
    check_golden("heat_stencil", &snap);
}

/// TMV over a fixed element count, swept from 4 wide rows to 4-wide rows.
fn tmv_axis(total: i64) -> InputAxis {
    InputAxis::new("rows", 4, total / 4, move |rows| {
        adaptic_repro::streamir::graph::bindings(&[("rows", rows), ("cols", total / rows)])
    })
    .with_items(move |_| total)
}

#[test]
fn tmv_sweep_reports_are_stable() {
    let device = DeviceSpec::tesla_c2050();
    let total: usize = 1 << 14;
    let axis = tmv_axis(total as i64);
    let compiled = compile(&programs::tmv().program, &device, &axis).unwrap();

    let mut snap = String::new();
    writeln!(snap, "variants={}", compiled.variant_count()).unwrap();
    for rows in [4usize, 64, 1024] {
        let cols = total / rows;
        let a: Vec<f32> = (0..total).map(|i| ((i * 13) % 7) as f32 - 3.0).collect();
        let x: Vec<f32> = (0..cols).map(|i| ((i * 5) % 9) as f32 - 4.0).collect();
        let rep = compiled
            .run_opts(
                rows as i64,
                &a,
                &[StateBinding::new("RowDot", "x", x)],
                RunOptions::serial(ExecMode::SampledExec(256)),
                None,
            )
            .unwrap();
        snap.push_str(&render_report(&format!("tmv {rows}x{cols}"), &rep));
    }
    check_golden("tmv_sweep", &snap);
}

#[test]
fn svm_train_summary_is_stable() {
    // The trainer is iterative and returns a run summary rather than one
    // ExecutionReport; snapshot the summary plus the model digest.
    let device = DeviceSpec::tesla_c2050();
    let ds = dataset("Adult", 32);
    let cfg = SvmConfig {
        iterations: 6,
        cache_rows: 0,
        lr: 0.2,
        ..SvmConfig::default()
    };
    let svm =
        AdapticSvm::compile(&device, 64, ds.n as i64, ds.d, CompileOptions::default()).unwrap();
    let run = svm
        .train(&ds.data, &ds.labels, ds.n, &cfg, ExecMode::SampledExec(128))
        .unwrap();

    let mut snap = String::new();
    writeln!(snap, "dataset={} n={} d={}", ds.name, ds.n, ds.d).unwrap();
    writeln!(
        snap,
        "time_us={:?} launches={} alphas {}",
        run.time_us,
        run.launches,
        digest(&run.alphas)
    )
    .unwrap();
    check_golden("svm_train", &snap);
}

#[test]
fn bicgstab_solver_summary_is_stable() {
    let device = DeviceSpec::tesla_c2050();
    let n = 96usize;
    let iters = 2usize;
    let (a, b) = bicgstab::synth_system(n, 42);
    let solver = AdapticBicgstab::compile(&device, 64, 4096, CompileOptions::default()).unwrap();
    let (x, time_us) = solver.solve(&a, &b, n, iters, ExecMode::Full).unwrap();

    let mut snap = String::new();
    writeln!(snap, "system {n}x{n} iters={iters}").unwrap();
    writeln!(snap, "time_us={time_us:?} x {}", digest(&x)).unwrap();
    check_golden("bicgstab_solver", &snap);
}

/// One snapshot per template family and device preset, at the conformance
/// sizes. The `family_*.txt` files were generated at the last commit where
/// the warp, scalar-bytecode and AST evaluators were still proven
/// bit-identical on these exact cases (output bits and every `KernelStats`
/// counter), so they carry that three-way identity forward for the one
/// evaluator that remains.
#[test]
fn template_family_reports_are_stable() {
    let seed = common::corpus_seeds()[0];
    for case in common::cases() {
        for device in common::devices() {
            let compiled = common::compiled_for(&case, &device);
            let mut snap = String::new();
            writeln!(snap, "variants={}", compiled.variant_count()).unwrap();
            for &x in case.sizes {
                let input = common::data((case.items)(x), seed);
                let rep = compiled
                    .run_opts(
                        x,
                        &input,
                        &(case.state)(),
                        RunOptions::serial(ExecMode::Full),
                        None,
                    )
                    .unwrap();
                let tag = format!("{} {} x={x} seed={seed}", case.family, device.name);
                snap.push_str(&render_report(&tag, &rep));
            }
            let dev = device.name.to_lowercase().replace(' ', "_");
            check_golden(&format!("family_{}_{dev}", case.family), &snap);
        }
    }
}

/// The family programs and the TMV sweep, with their axes: the programs
/// the plan-table snapshots compile.
fn plan_cases() -> Vec<(String, Program, InputAxis)> {
    let mut cases: Vec<(String, Program, InputAxis)> = common::cases()
        .into_iter()
        .map(|c| (c.family.to_string(), c.program, (c.axis)()))
        .collect();
    cases.push(("tmv".into(), programs::tmv().program, tmv_axis(1 << 14)));
    cases
}

/// One line per variant of `compiled`'s table: range, choices and tags.
fn write_variants(snap: &mut String, compiled: &CompiledProgram) {
    for (i, v) in compiled.variants.iter().enumerate() {
        writeln!(
            snap,
            "v{i}: [{}, {}] {:?} tags={:?}",
            v.lo, v.hi, v.choices, v.tags
        )
        .unwrap();
    }
}

/// Every plan table the compiler builds for the family programs and the
/// TMV sweep, on every device preset under the default and the baseline
/// options, and every variant's predicted time at every variant's range
/// ends — including its neighbours', which is where the
/// kernel-management unit's crossover search prices it.
#[test]
fn plan_tables_and_predictions_are_stable() {
    let cases = plan_cases();
    let options = [
        ("default", CompileOptions::default()),
        ("baseline", CompileOptions::baseline()),
    ];
    let mut snap = String::new();
    for (name, program, axis) in &cases {
        for device in DeviceSpec::presets() {
            for (opts_name, opts) in options {
                writeln!(snap, "[{name} {} {opts_name}]", device.name).unwrap();
                let compiled = match compile_with_options(program, &device, axis, opts) {
                    Ok(c) => c,
                    Err(e) => {
                        writeln!(snap, "error: {e}").unwrap();
                        continue;
                    }
                };
                write_variants(&mut snap, &compiled);
                let mut points: Vec<i64> = compiled
                    .variants
                    .iter()
                    .flat_map(|v| [v.lo, v.hi])
                    .collect();
                points.sort_unstable();
                points.dedup();
                for x in points {
                    let predicted: Vec<Option<f64>> = (0..compiled.variant_count())
                        .map(|v| compiled.predicted_time_us(x, v))
                        .collect();
                    writeln!(snap, "x={x}: {predicted:?}").unwrap();
                }
            }
        }
    }
    check_golden("plan_tables", &snap);
}

/// The same programs' tables on every device preset at default options
/// but 769 probes: a dense probe grid lands inside narrow variants and
/// bisects many more boundaries than the default 33, so a change in how
/// the probe scan decides or reuses its decisions shows here first.
#[test]
fn dense_plan_tables_are_stable() {
    let opts = CompileOptions {
        probes: 769,
        ..CompileOptions::default()
    };
    let mut snap = String::new();
    for (name, program, axis) in &plan_cases() {
        for device in DeviceSpec::presets() {
            writeln!(snap, "[{name} {} probes=769]", device.name).unwrap();
            match compile_with_options(program, &device, axis, opts) {
                Ok(compiled) => write_variants(&mut snap, &compiled),
                Err(e) => writeln!(snap, "error: {e}").unwrap(),
            }
        }
    }
    check_golden("plan_tables_dense", &snap);
}
