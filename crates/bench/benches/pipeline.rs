//! Criterion benchmarks of the implementation itself (wall-clock of our
//! compiler + simulator, for regression tracking — the *simulated* device
//! timings live in the figure binaries).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use adaptic::{compile, CompileOptions, InputAxis, RunOptions};
use adaptic_bench::data;
use gpu_sim::{DeviceSpec, ExecMode};
use streamir::interp::Interpreter;
use streamir::parse::parse_program;
use streamir::schedule::rate_match;

const SUM_SRC: &str = r#"pipeline Sum(N) {
    actor Sum(pop N, push 1) {
        acc = 0.0;
        for i in 0..N { acc = acc + pop(); }
        push(acc);
    }
}"#;

fn bench_parse(c: &mut Criterion) {
    c.bench_function("parse_sum_program", |b| {
        b.iter(|| parse_program(std::hint::black_box(SUM_SRC)).unwrap())
    });
}

fn bench_schedule(c: &mut Criterion) {
    let program = parse_program(SUM_SRC).unwrap();
    let fg = program.flatten().unwrap();
    let binds = streamir::graph::bindings(&[("N", 1 << 20)]);
    c.bench_function("rate_match_sum", |b| {
        b.iter(|| rate_match(std::hint::black_box(&fg), &binds).unwrap())
    });
}

fn bench_compile(c: &mut Criterion) {
    let program = parse_program(SUM_SRC).unwrap();
    let device = DeviceSpec::tesla_c2050();
    let axis = InputAxis::total_size("N", 1 << 8, 1 << 22);
    c.bench_function("compile_sum_full_range", |b| {
        b.iter(|| compile(&program, &device, std::hint::black_box(&axis)).unwrap())
    });
    let opts = CompileOptions {
        probes: 9,
        ..CompileOptions::default()
    };
    c.bench_function("compile_sum_coarse_probes", |b| {
        b.iter(|| {
            adaptic::compile_with_options(&program, &device, std::hint::black_box(&axis), opts)
                .unwrap()
        })
    });
}

fn bench_run(c: &mut Criterion) {
    let program = parse_program(SUM_SRC).unwrap();
    let device = DeviceSpec::tesla_c2050();
    let axis = InputAxis::total_size("N", 1 << 8, 1 << 22);
    let compiled = compile(&program, &device, &axis).unwrap();
    let mut group = c.benchmark_group("run_sum");
    for &n in &[1usize << 10, 1 << 14, 1 << 18] {
        let input = data(n, 7);
        group.bench_with_input(BenchmarkId::from_parameter(n), &input, |b, input| {
            b.iter(|| {
                compiled
                    .run_opts(
                        input.len() as i64,
                        input,
                        &[],
                        RunOptions::serial(ExecMode::SampledExec(64)),
                        None,
                    )
                    .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_interp(c: &mut Criterion) {
    let program = parse_program(SUM_SRC).unwrap();
    let input = data(1 << 14, 9);
    c.bench_function("interpret_sum_16k", |b| {
        b.iter(|| {
            let mut it = Interpreter::new(&program);
            it.bind_param("N", input.len() as i64);
            it.run(std::hint::black_box(&input)).unwrap()
        })
    });
}

fn bench_baseline_kernel(c: &mut Criterion) {
    let device = DeviceSpec::tesla_c2050();
    let x = data(1 << 16, 3);
    let y = data(1 << 16, 4);
    c.bench_function("simulate_cublas_sdot_64k", |b| {
        b.iter(|| {
            adaptic_baselines::blas1::sdot(
                &device,
                std::hint::black_box(&x),
                &y,
                ExecMode::SampledExec(64),
            )
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_parse, bench_schedule, bench_compile, bench_run, bench_interp,
        bench_baseline_kernel
);
criterion_main!(benches);
