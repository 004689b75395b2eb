//! §5.1 code-size discussion: Adaptic's output binaries carry several
//! kernel versions per actor; the paper reports an average 1.4x (up to
//! 2.5x) size over the input-unaware binaries. We approximate binary size
//! by the emitted CUDA text of every variant, deduplicated per distinct
//! kernel-choice signature.

use std::collections::BTreeSet;

use adaptic::{compile, compile_with_options, CompileOptions, InputAxis};
use adaptic_apps::programs;
use adaptic_bench::{header, row};
use gpu_sim::DeviceSpec;

fn main() {
    header("Section 5.1: generated code size, Adaptic vs input-unaware");
    let device = DeviceSpec::tesla_c2050();
    let widths = [24usize, 10, 14, 14, 8];
    println!(
        "{}",
        row(
            &[
                "benchmark".into(),
                "variants".into(),
                "adaptic(B)".into(),
                "baseline(B)".into(),
                "ratio".into(),
            ],
            &widths
        )
    );

    let mut ratios = Vec::new();
    for bench in programs::figure9_benches()
        .into_iter()
        .chain(programs::insensitive_benches())
    {
        // Axes with the right parameter names per benchmark family.
        let axis = match bench.program.params.as_slice() {
            [p] => InputAxis::total_size(p, 256, 4 << 20),
            _ => InputAxis::new("rows", 64, 16 << 10, |x| {
                streamir::graph::bindings(&[("rows", x), ("cols", (4 << 20) / x)])
            }),
        };
        let adaptic = match compile(&bench.program, &device, &axis) {
            Ok(c) => c,
            Err(e) => {
                println!("{:>24}  (skipped: {e})", bench.name);
                continue;
            }
        };
        let baseline =
            compile_with_options(&bench.program, &device, &axis, CompileOptions::baseline())
                .expect("baseline compiles");
        // Deduplicate identical kernel texts: variants differing only in
        // launch parameters share code.
        // Strip the range-comment header so variants that share kernel
        // code (differing only in launch parameters) collapse.
        let strip = |src: String| -> String {
            src.lines()
                .filter(|l| !l.starts_with("/* Adaptic-generated"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let distinct: BTreeSet<String> = adaptic
            .variants
            .iter()
            .map(|v| strip(adaptic::codegen::emit_variant(&adaptic, v)))
            .collect();
        let a_size: usize = distinct.iter().map(String::len).sum();
        let b_size: usize = baseline
            .variants
            .iter()
            .map(|v| adaptic::codegen::emit_variant(&baseline, v).len())
            .sum();
        let ratio = a_size as f64 / b_size.max(1) as f64;
        ratios.push(ratio);
        println!(
            "{}",
            row(
                &[
                    bench.name.into(),
                    format!("{}", adaptic.variant_count()),
                    format!("{a_size}"),
                    format!("{b_size}"),
                    format!("{ratio:.2}"),
                ],
                &widths
            )
        );
    }
    let avg = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
    let max = ratios.iter().cloned().fold(0.0f64, f64::max);
    println!("\naverage code-size ratio {avg:.2} (paper: 1.4x), max {max:.2} (paper: up to 2.5x)");
}
