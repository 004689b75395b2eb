//! §5.3: input-insensitive benchmarks — Adaptic-generated code vs the
//! hand-optimized SDK/CUBLAS kernels at a representative size. The paper
//! reports Adaptic within ~5% on average; the point is that the adaptive
//! machinery costs nothing when there is nothing to adapt to.

use adaptic::{compile, InputAxis, RunOptions, StateBinding};
use adaptic_apps::programs::{self, zip2};
use adaptic_bench::{data, header, row, scale, size_label, sweep_mode};
use gpu_sim::DeviceSpec;

fn main() {
    header("Section 5.3: input-insensitive benchmarks (Adaptic vs hand-optimized)");
    let device = DeviceSpec::tesla_c2050();
    let n = (1usize << 20) / scale();
    let widths = [24usize, 12, 12, 12];
    println!(
        "{}",
        row(
            &[
                "benchmark".into(),
                "base(us)".into(),
                "adaptic(us)".into(),
                "ratio".into(),
            ],
            &widths
        )
    );
    let mut ratios: Vec<f64> = Vec::new();
    let mut emit = |name: &str, base_us: f64, adaptic_us: f64| {
        let ratio = adaptic_us / base_us.max(1e-9);
        ratios.push(ratio);
        println!(
            "{}",
            row(
                &[
                    name.into(),
                    format!("{base_us:.1}"),
                    format!("{adaptic_us:.1}"),
                    format!("{ratio:.2}"),
                ],
                &widths
            )
        );
    };

    let axis = InputAxis::total_size("N", 256, (4 << 20) as i64);
    let mode = sweep_mode();

    // BlackScholes.
    {
        let b = programs::black_scholes();
        let compiled = compile(&b.program, &device, &axis).unwrap();
        let prices: Vec<f32> = (0..n)
            .flat_map(|i| vec![80.0 + (i % 40) as f32, 100.0, 0.25 + 0.01 * (i % 50) as f32])
            .collect();
        let base = adaptic_baselines::sdk::black_scholes(&device, &prices, 0.02, 0.3, mode);
        let state = [StateBinding::new("Price", "rv", vec![0.02, 0.3])];
        let rep = compiled
            .run_opts(n as i64, &prices, &state, RunOptions::serial(mode), None)
            .unwrap();
        emit(b.name, base.time_us, rep.time_us);
    }
    // VectorAdd.
    {
        let b = programs::vector_add();
        let compiled = compile(&b.program, &device, &axis).unwrap();
        let (x, y) = (data(n, 1), data(n, 2));
        let base = adaptic_baselines::sdk::vector_add(&device, &x, &y, mode);
        let rep = compiled
            .run_opts(n as i64, &zip2(&x, &y), &[], RunOptions::serial(mode), None)
            .unwrap();
        emit(b.name, base.time_us, rep.time_us);
    }
    // Saxpy / Scopy / Sscal / Sswap / Srot.
    {
        use adaptic_baselines::blas1::{map_l1, MapOp};
        let (x, y) = (data(n, 3), data(n, 4));
        let cases: Vec<(adaptic_apps::Bench, MapOp, bool, Vec<StateBinding>)> = vec![
            (
                programs::saxpy(),
                MapOp::Saxpy { a: 2.0 },
                true,
                vec![StateBinding::new("Axpy", "a", vec![2.0])],
            ),
            (programs::scopy(), MapOp::Scopy, false, vec![]),
            (
                programs::sscal(),
                MapOp::Sscal { a: 0.5 },
                false,
                vec![StateBinding::new("Scal", "a", vec![0.5])],
            ),
            (programs::sswap(), MapOp::Sswap, true, vec![]),
            (
                programs::srot(),
                MapOp::Srot { c: 0.6, s: 0.8 },
                true,
                vec![StateBinding::new("Rot", "cs", vec![0.6, 0.8])],
            ),
        ];
        for (bench, op, zip, state) in cases {
            let compiled = compile(&bench.program, &device, &axis).unwrap();
            let (base, _, _) = map_l1(&device, op, &x, Some(&y), mode);
            let input = if zip { zip2(&x, &y) } else { x.clone() };
            let rep = compiled
                .run_opts(n as i64, &input, &state, RunOptions::serial(mode), None)
                .unwrap();
            emit(bench.name, base.time_us, rep.time_us);
        }
    }
    // DCT8x8.
    {
        let b = programs::dct8x8();
        let compiled = compile(&b.program, &device, &axis).unwrap();
        let tiles = data((n / 64) * 64, 5);
        let base = adaptic_baselines::sdk::dct8x8(&device, &tiles, mode);
        let rep = compiled
            .run_opts(
                (tiles.len() / 64) as i64,
                &tiles,
                &[],
                RunOptions::serial(mode),
                None,
            )
            .unwrap();
        emit(b.name, base.time_us, rep.time_us);
    }
    // QuasiRandomGenerator.
    {
        let b = programs::quasirandom();
        let compiled = compile(&b.program, &device, &axis).unwrap();
        let indices: Vec<f32> = (0..n).map(|i| i as f32 + 1.0).collect();
        let base = adaptic_baselines::sdk::quasirandom(&device, n, 0.618_034, mode);
        let rep = compiled
            .run_opts(n as i64, &indices, &[], RunOptions::serial(mode), None)
            .unwrap();
        emit(b.name, base.time_us, rep.time_us);
    }

    let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
    println!(
        "\naverage Adaptic/base ratio at {}: {:.2} (paper: within ~5% of 1.0)",
        size_label(n),
        avg
    );
    println!(
        "note: Histogram64 is baseline-only in this reproduction (the DSL \
         subset has no scatter-reduction; see EXPERIMENTS.md)"
    );
}
