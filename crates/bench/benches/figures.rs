//! Criterion benches of the end-to-end figure pipelines at small scale —
//! one group per paper experiment, for tracking regressions in the
//! *implementation's* wall-clock (the simulated device times live in the
//! `src/bin/fig*` harnesses).
//!
//! Policy: these harnesses run the way the figure sweeps do in anger —
//! the deterministic parallel engine ([`RunOptions::parallel`]) plus a
//! one-stripe, unbounded [`ShardedLaunchCache`] created outside the
//! measurement loop, so steady-state
//! iterations exercise the memoized path. Engine choice and caching
//! never change results, only wall-clock; benches that measure the
//! cold simulation path should opt out explicitly.

use criterion::{criterion_group, criterion_main, Criterion};

use adaptic::{compile, CompileOptions, InputAxis, RunOptions, StateBinding};
use adaptic_apps::bicgstab::{self, AdapticBicgstab};
use adaptic_apps::programs::{self, zip2};
use adaptic_bench::data;
use gpu_sim::{DeviceSpec, ExecMode, ExecPolicy, ShardedLaunchCache};

fn bench_fig1_tmv_baseline(c: &mut Criterion) {
    let device = DeviceSpec::tesla_c2050();
    let (rows, cols) = (256usize, 256usize);
    let a = data(rows * cols, 1);
    let x = data(cols, 2);
    let cache = ShardedLaunchCache::new(1, usize::MAX);
    c.bench_function("fig1_tmv_baseline_256x256", |b| {
        b.iter(|| {
            adaptic_baselines::tmv::tmv_with(
                &device,
                &a,
                &x,
                rows,
                cols,
                ExecMode::SampledExec(32),
                ExecPolicy::auto(),
                Some(&cache),
            )
        })
    });
}

fn bench_fig9_sdot_point(c: &mut Criterion) {
    let device = DeviceSpec::tesla_c2050();
    let bench = programs::sdot();
    let axis = InputAxis::total_size("N", 256, 1 << 16);
    let compiled = compile(&bench.program, &device, &axis).unwrap();
    let n = 1 << 14;
    let input = zip2(&data(n, 3), &data(n, 4));
    let cache = ShardedLaunchCache::new(1, usize::MAX);
    c.bench_function("fig9_sdot_adaptic_16k", |b| {
        b.iter(|| {
            compiled
                .run_opts(
                    n as i64,
                    &input,
                    &[],
                    RunOptions::parallel(ExecMode::SampledExec(32)),
                    Some(&cache),
                )
                .unwrap()
        })
    });
}

fn bench_fig10_tmv_adaptic_point(c: &mut Criterion) {
    let device = DeviceSpec::tesla_c2050();
    let total: i64 = 1 << 16;
    let axis = InputAxis::new("rows", 4, total / 4, move |rows| {
        streamir::graph::bindings(&[("rows", rows), ("cols", total / rows)])
    })
    .with_items(move |_| total);
    let compiled = compile(&programs::tmv().program, &device, &axis).unwrap();
    let rows = 256usize;
    let cols = total as usize / rows;
    let a = data(total as usize, 5);
    let x = data(cols, 6);
    let cache = ShardedLaunchCache::new(1, usize::MAX);
    c.bench_function("fig10_tmv_adaptic_256rows", |b| {
        b.iter(|| {
            compiled
                .run_opts(
                    rows as i64,
                    &a,
                    &[StateBinding::new("RowDot", "x", x.clone())],
                    RunOptions::parallel(ExecMode::SampledExec(32)),
                    Some(&cache),
                )
                .unwrap()
        })
    });
}

fn bench_fig11_bicgstab_iteration(c: &mut Criterion) {
    let device = DeviceSpec::tesla_c2050();
    let n = 128usize;
    let (a, b_vec) = bicgstab::synth_system(n, 3);
    let solver = AdapticBicgstab::compile(&device, 64, 1024, CompileOptions::default()).unwrap();
    c.bench_function("fig11_bicgstab_128_1iter", |bch| {
        bch.iter(|| {
            // Iterative solver: each launch consumes the previous output,
            // so only the engine policy applies (no launch cache).
            solver
                .solve_opts(
                    &a,
                    &b_vec,
                    n,
                    1,
                    RunOptions::parallel(ExecMode::SampledExec(32)),
                )
                .unwrap()
        })
    });
}

fn bench_variant_selection(c: &mut Criterion) {
    // The runtime kernel-management decision itself must be cheap: the
    // paper hides it under the host-to-device transfer.
    let device = DeviceSpec::tesla_c2050();
    let axis = InputAxis::total_size("N", 256, 1 << 22);
    let compiled = compile(&programs::sasum().program, &device, &axis).unwrap();
    c.bench_function("runtime_variant_lookup", |b| {
        b.iter(|| compiled.variant_for(std::hint::black_box(123_456)))
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_fig1_tmv_baseline, bench_fig9_sdot_point, bench_fig10_tmv_adaptic_point,
        bench_fig11_bicgstab_iteration, bench_variant_selection
);
criterion_main!(benches);
