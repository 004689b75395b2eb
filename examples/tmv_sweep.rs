//! The paper's running case study (§5.2.1): transposed matrix–vector
//! multiplication across matrix shapes, input-aware vs input-unaware.
//!
//! ```sh
//! cargo run --release --example tmv_sweep
//! ```

use adaptic_repro::adaptic::{compile, InputAxis, RunOptions, StateBinding};
use adaptic_repro::apps::programs;
use adaptic_repro::baselines;
use adaptic_repro::gpu_sim::{DeviceSpec, ExecMode};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let device = DeviceSpec::tesla_c2050();
    let total: usize = 1 << 20; // fixed element count, shape swept

    let bench = programs::tmv();
    let t = total as i64;
    let axis = InputAxis::new("rows", 4, t / 4, move |rows| {
        adaptic_repro::streamir::graph::bindings(&[("rows", rows), ("cols", t / rows)])
    })
    .with_items(move |_| t);
    let compiled = compile(&bench.program, &device, &axis)?;
    println!(
        "compiled TMV once for all shapes: {} variants\n",
        compiled.variant_count()
    );
    println!(
        "{:>12} {:>12} {:>12} {:>9}",
        "shape", "cublas", "adaptic", "speedup"
    );

    let mut rows = 4usize;
    while rows <= total / 4 {
        let cols = total / rows;
        let a: Vec<f32> = (0..total).map(|i| ((i * 13) % 7) as f32 - 3.0).collect();
        let x: Vec<f32> = (0..cols).map(|i| ((i * 5) % 9) as f32 - 4.0).collect();

        let base = baselines::tmv::tmv(&device, &a, &x, rows, cols, ExecMode::SampledExec(256));
        let rep = compiled.run_opts(
            rows as i64,
            &a,
            &[StateBinding::new("RowDot", "x", x)],
            RunOptions::serial(ExecMode::SampledExec(256)),
            None,
        )?;
        println!(
            "{:>12} {:>9.2} GF {:>9.2} GF {:>8.2}x",
            format!("{rows}x{cols}"),
            base.gflops(),
            rep.gflops(),
            base.time_us / rep.time_us.max(1e-9)
        );
        rows *= 16;
    }
    Ok(())
}
