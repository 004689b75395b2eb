//! Criterion benchmark of work-body evaluation: scalar bytecode vs
//! warp-batched bytecode.
//!
//! Every simulated thread of every launch ultimately evaluates an actor's
//! work body, so the evaluator is the inner loop of the whole
//! reproduction. Two levels are measured on a Horner-style polynomial
//! map body (a 16-iteration loop per element):
//!
//! * `bytecode` / `warp` — the two evaluators head-to-head over many
//!   firings: one register [`Frame`] reset per firing and a flat opcode
//!   loop (what host-sequential code runs), against one [`WarpFrame`]
//!   evaluating 32 lanes per opcode dispatch (what kernels run).
//! * `pipeline_warp` — the same body through the full compiled pipeline
//!   (`ExecMode::Full`, every element executed): planning, memory
//!   movement and accounting around the warp evaluator.
//!
//! A machine-readable copy of the latest run is written to
//! `results/BENCH_interp.json` by the trailing JSON pass;
//! `results/interp_speedup.txt` and `results/warp_speedup.txt` hold the
//! prose history, including the AST-walker and scalar-pipeline rows
//! measured before those paths were removed.
//!
//! [`WarpFrame`]: adaptic::warp::WarpFrame

use std::collections::HashMap;

use criterion::{criterion_group, criterion_main, Criterion};

use adaptic::bytecode::{self, compile_body, Frame, VecIo};
use adaptic::warp::{self, full_mask, VecWarpIo, WarpFrame};
use adaptic::{compile, InputAxis, RunOptions};
use adaptic_bench::{bench_json, measure};
use gpu_sim::{DeviceSpec, ExecMode};
use streamir::parse::parse_program;

const HORNER_SRC: &str = "pipeline P(N) {
    actor H(pop 1, push 1) {
        x = pop();
        acc = 0.0;
        for i in 0..16 { acc = acc * x + 0.5; }
        push(acc * 0.001);
    }
}";

const FIRINGS: usize = 4096;
const LANES: usize = 32;

fn horner_input(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| ((i * 31) % 97) as f32 / 97.0 - 0.5)
        .collect()
}

/// Evaluate `FIRINGS` firings scalar-style: one frame, one firing at a
/// time.
fn run_scalar(
    prog: &bytecode::Program,
    proto: &[streamir::value::Value],
    frame: &mut Frame,
    io: &mut VecIo,
) {
    io.cursor = 0;
    io.output.clear();
    for _ in 0..FIRINGS {
        frame.reset(proto);
        bytecode::eval(prog, frame, io);
    }
}

/// Evaluate `FIRINGS` firings warp-style: 32 lanes per eval call.
fn run_warp(
    prog: &bytecode::Program,
    proto: &[streamir::value::Value],
    wf: &mut WarpFrame,
    io: &mut VecWarpIo,
) {
    let mask = full_mask(LANES);
    for round in 0..FIRINGS / LANES {
        let base = round * LANES;
        for l in 0..LANES {
            io.cursor[l] = base + l;
            io.out_pos[l] = base + l;
        }
        wf.reset(proto);
        warp::eval(prog, wf, mask, io);
    }
}

fn bench_evaluators(c: &mut Criterion) {
    let program = parse_program(HORNER_SRC).unwrap();
    let body = program.actor("H").unwrap().work.body.clone();
    let binds = streamir::graph::bindings(&[("N", FIRINGS as i64)]);
    let input = horner_input(FIRINGS);

    let prog = compile_body(&body, &binds, &[]).unwrap();
    let proto = prog.bind(&binds).unwrap();
    let mut frame = Frame::default();
    frame.fit(&prog);
    let mut io = VecIo {
        input: input.clone(),
        ..VecIo::default()
    };
    c.bench_function("interp/bytecode_4k_firings", |b| {
        b.iter(|| {
            run_scalar(&prog, &proto, &mut frame, &mut io);
            io.output.len()
        })
    });

    let mut wf = WarpFrame::default();
    wf.fit(&prog, LANES);
    let mut wio = VecWarpIo {
        input,
        cursor: vec![0; LANES],
        output: vec![0.0; FIRINGS],
        out_pos: vec![0; LANES],
        state: HashMap::new(),
    };
    c.bench_function("interp/warp_4k_firings", |b| {
        b.iter(|| {
            run_warp(&prog, &proto, &mut wf, &mut wio);
            wio.output.len()
        })
    });
}

fn bench_pipeline(c: &mut Criterion) {
    let device = DeviceSpec::tesla_c2050();
    let program = parse_program(HORNER_SRC).unwrap();
    let axis = InputAxis::total_size("N", 256, 1 << 16);
    let compiled = compile(&program, &device, &axis).unwrap();
    let n = 1usize << 14;
    let input = horner_input(n);

    let warp = RunOptions::serial(ExecMode::Full);
    c.bench_function("interp/pipeline_warp_16k", |b| {
        b.iter(|| {
            compiled
                .run_opts(n as i64, &input, &[], warp, None)
                .unwrap()
        })
    });
}

/// Re-measure the same workloads with plain wall-clock timing and write
/// `results/BENCH_interp.json` (name, min/mean/max ns, warp's speedup
/// over scalar bytecode, git rev) for machines to read.
fn emit_json(_c: &mut Criterion) {
    let program = parse_program(HORNER_SRC).unwrap();
    let body = program.actor("H").unwrap().work.body.clone();
    let binds = streamir::graph::bindings(&[("N", FIRINGS as i64)]);
    let input = horner_input(FIRINGS);

    let prog = compile_body(&body, &binds, &[]).unwrap();
    let proto = prog.bind(&binds).unwrap();
    let mut frame = Frame::default();
    frame.fit(&prog);
    let mut sio = VecIo {
        input: input.clone(),
        ..VecIo::default()
    };
    let scalar = measure("interp/bytecode_4k_firings", 10, || {
        run_scalar(&prog, &proto, &mut frame, &mut sio)
    });

    let mut wf = WarpFrame::default();
    wf.fit(&prog, LANES);
    let mut wio = VecWarpIo {
        input,
        cursor: vec![0; LANES],
        output: vec![0.0; FIRINGS],
        out_pos: vec![0; LANES],
        state: HashMap::new(),
    };
    let warp_raw = measure("interp/warp_4k_firings", 10, || {
        run_warp(&prog, &proto, &mut wf, &mut wio)
    })
    .vs(&scalar);

    let device = DeviceSpec::tesla_c2050();
    let axis = InputAxis::total_size("N", 256, 1 << 16);
    let compiled = compile(&program, &device, &axis).unwrap();
    let n = 1usize << 14;
    let pinput = horner_input(n);
    let full = RunOptions::serial(ExecMode::Full);
    let p_warp = measure("interp/pipeline_warp_16k", 5, || {
        compiled
            .run_opts(n as i64, &pinput, &[], full, None)
            .unwrap();
    });

    let path = bench_json("interp", &[scalar, warp_raw, p_warp]).expect("write BENCH_interp.json");
    println!("wrote {}", path.display());
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_evaluators, bench_pipeline, emit_json
);
criterion_main!(benches);
