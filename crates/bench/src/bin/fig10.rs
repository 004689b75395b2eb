//! Figure 10: transposed matrix–vector multiplication — Adaptic's
//! input-aware kernels vs. the CUBLAS-style baseline, swept across matrix
//! shapes at three fixed element counts.
//!
//! The sweep runs on the parallel engine ([`sweep_policy`]) and routes
//! every launch through a shared [`ShardedLaunchCache`]: each (kernel,
//! geometry, shape) point simulates once, and the closing memoized
//! re-sweep replays the whole figure from cached statistics to show the
//! concurrent cache at work.

use adaptic::{compile, InputAxis, StateBinding};
use adaptic_apps::programs;
use adaptic_bench::{data, header, row, scale, size_label, sweep_opts, sweep_policy};
use gpu_sim::{DeviceSpec, ShardedLaunchCache};

fn main() {
    header("Figure 10: TMV GFLOPS, Adaptic vs CUBLAS, across shapes");
    let device = DeviceSpec::tesla_c2050();
    let bench = programs::tmv();
    let widths = [12usize, 12, 12, 10, 24];
    let cache = ShardedLaunchCache::default();

    for base in [1usize << 20, 4 << 20, 16 << 20] {
        let total = base / scale();
        println!("--- {} elements ---", size_label(total));
        println!(
            "{}",
            row(
                &[
                    "shape".into(),
                    "cublas".into(),
                    "adaptic".into(),
                    "speedup".into(),
                    "adaptic variant".into(),
                ],
                &widths
            )
        );
        let t = total as i64;
        let axis = InputAxis::new("rows", 4, t / 4, move |rows| {
            streamir::graph::bindings(&[("rows", rows), ("cols", t / rows)])
        })
        .with_items(move |_| t);
        let compiled = compile(&bench.program, &device, &axis).expect("compile TMV");

        let mut rows_count = 4usize;
        let mut won = 0usize;
        let mut points = 0usize;
        while rows_count <= total / 4 {
            let cols = total / rows_count;
            let a = data(total, 1);
            let x = data(cols, 2);

            let base_run = adaptic_baselines::tmv::tmv_with(
                &device,
                &a,
                &x,
                rows_count,
                cols,
                sweep_opts().mode,
                sweep_policy(),
                Some(&cache),
            );
            let state = [StateBinding::new("RowDot", "x", x)];
            let rep = compiled
                .run_opts(rows_count as i64, &a, &state, sweep_opts(), Some(&cache))
                .expect("run TMV");
            let (vi, variant) = compiled.variant_for(rows_count as i64);
            let label = variant
                .choices
                .first()
                .map(|c| format!("{c:?}"))
                .unwrap_or_default();
            let label = label.chars().take(24).collect::<String>();
            let speedup = base_run.time_us / rep.time_us.max(1e-9);
            if speedup >= 0.95 {
                won += 1;
            }
            points += 1;
            println!(
                "{}",
                row(
                    &[
                        format!("{}x{}", size_label(rows_count), size_label(cols)),
                        format!("{:.2}", base_run.gflops()),
                        format!("{:.2}", rep.gflops()),
                        format!("{:.2}x", speedup),
                        format!("v{vi}:{label}"),
                    ],
                    &widths
                )
            );
            rows_count *= 8;
        }
        println!(
            "Adaptic >= 0.95x CUBLAS at {won}/{points} shapes; {} kernel variants generated\n",
            compiled.variant_count()
        );
    }

    // Memoized re-sweep: replay the whole figure through the shared cache.
    // Every launch was already simulated above, so this pass must be pure
    // cache hits — it demonstrates (and exercises) the launch-stats
    // memoization that makes repeated sweeps cheap.
    let miss_before = cache.misses();
    let hit_before = cache.hits();
    let start = std::time::Instant::now();
    for base in [1usize << 20, 4 << 20, 16 << 20] {
        let total = base / scale();
        let t = total as i64;
        let axis = InputAxis::new("rows", 4, t / 4, move |rows| {
            streamir::graph::bindings(&[("rows", rows), ("cols", t / rows)])
        })
        .with_items(move |_| t);
        let compiled = compile(&bench.program, &device, &axis).expect("compile TMV");
        let mut rows_count = 4usize;
        while rows_count <= total / 4 {
            let cols = total / rows_count;
            let a = data(total, 1);
            let x = data(cols, 2);
            adaptic_baselines::tmv::tmv_with(
                &device,
                &a,
                &x,
                rows_count,
                cols,
                sweep_opts().mode,
                sweep_policy(),
                Some(&cache),
            );
            let state = [StateBinding::new("RowDot", "x", x)];
            let rep = compiled
                .run_opts(rows_count as i64, &a, &state, sweep_opts(), Some(&cache))
                .expect("re-run TMV");
            assert_eq!(rep.cache_misses, 0, "re-sweep must be fully memoized");
            rows_count *= 8;
        }
    }
    let new_hits = cache.hits() - hit_before;
    let new_misses = cache.misses() - miss_before;
    // Wall-clock time differs on every run, so the line goes to stderr
    // and stdout stays reproducible.
    eprintln!(
        "Launch-stats cache: {} memoized launches across {} shards; first sweep \
         {} misses / {} hits; re-sweep {} hits / {} misses / {} evictions in {:.1} ms",
        cache.len(),
        cache.shard_count(),
        miss_before,
        hit_before,
        new_hits,
        new_misses,
        cache.evictions(),
        start.elapsed().as_secs_f64() * 1e3,
    );
}
