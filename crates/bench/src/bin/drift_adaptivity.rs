//! Drift figure: a regime-flip traffic mix served by a plan over the
//! declared rate interval and by a plan over a window around the first
//! firing's rate.
//!
//! The workload is the adversarial trace for a plan tuned to one window of
//! rates: the per-firing input size dwells in one regime (tiny
//! reductions), then abruptly flips to another (huge reductions),
//! round-robin, for the whole trace (see
//! [`adaptic_bench::workloads::regime_flip`]). Two systems serve it:
//!
//! * `declared_once` — an [`adaptic::DynamicRegion`]: one plan over the
//!   declared interval, a variant picked per firing by the
//!   kernel-management unit;
//! * `startup_window` — one plan over the power-of-two window
//!   `[rate / 4, rate * 4]` around the first firing's rate, clipped to
//!   the declaration; firings outside it are served through the plan's
//!   clamped (mis-tuned) variant selection.
//!
//! Stdout carries simulated device+host µs and plan counts only, so it is
//! deterministic and `scripts/figures.sh` pins it as
//! `results/drift_adaptivity.txt`. The wall-clock time each plan took goes
//! to stderr. With `--assert` the process exits non-zero unless the
//! declared-once region planned exactly once, clamped nothing, and serves
//! the trace at least `MARGIN` times cheaper than the startup window; the
//! CI `drift` job runs exactly that. Seed comes from `ADAPTIC_DRIFT_SEED`
//! (default 42).

use std::process::ExitCode;

use adaptic::{
    compile_with_options, CompileOptions, DynamicRegion, ExecMode, InputAxis, ReschedPolicy,
    RunOptions,
};
use adaptic_apps::programs;
use adaptic_bench::workloads::regime_flip;
use adaptic_bench::{data, sweep_opts};
use gpu_sim::DeviceSpec;
use streamir::{Program, RateInterval};

/// Required serve-cost advantage of declared-once over the startup window.
const MARGIN: f64 = 1.3;
/// Output sanity bound against the host reference, per firing.
const REL_TOL: f64 = 1e-3;
const FIRINGS: usize = 192;
const DWELL: usize = 24;
/// Tiny and huge size regimes. The tiny regime is capped at 512 so the
/// startup window around it stays below the reduction's structure
/// boundary — the window's clamped variant is genuinely mis-tuned for the
/// huge regime.
const REGIMES: [(i64, i64); 2] = [(256, 512), (1 << 15, 1 << 17)];
/// Declared dynamic interval on the reduction's rate parameter.
const DECLARED: (i64, i64) = (256, 1 << 18);
/// Geometric half-width of the startup window.
const SPREAD: i64 = 4;

fn seed() -> u64 {
    match std::env::var("ADAPTIC_DRIFT_SEED") {
        Err(_) => 42,
        Ok(raw) => {
            let raw = raw.trim();
            let parsed =
                if let Some(hex) = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
                    u64::from_str_radix(hex, 16)
                } else {
                    raw.parse()
                };
            parsed.unwrap_or_else(|_| panic!("bad ADAPTIC_DRIFT_SEED: {raw:?}"))
        }
    }
}

/// The paper's `sasum` reduction with its rate parameter declared dynamic.
fn dynamic_sasum() -> Program {
    let mut p = programs::sasum().program;
    let interval = RateInterval::new(DECLARED.0, DECLARED.1).expect("declared interval");
    let asum = p
        .actors
        .iter_mut()
        .find(|a| a.name == "Asum")
        .expect("sasum has the Asum actor");
    asum.dyn_rates.insert("N".into(), interval);
    p
}

/// The smallest power-of-two window containing `[rate / SPREAD, rate *
/// SPREAD]`, clipped to the declaration.
fn startup_window(rate: i64) -> (i64, i64) {
    let below = (rate / SPREAD).max(1) as u64;
    let lo = 1i64 << (63 - below.leading_zeros());
    let hi = ((rate * SPREAD) as u64).next_power_of_two() as i64;
    (lo.max(DECLARED.0), hi.min(DECLARED.1))
}

#[derive(Default)]
struct Outcome {
    serve_us: f64,
    plan_wall_us: f64,
    plans: u64,
    clamped: u64,
    max_rel_err: f64,
}

impl Outcome {
    fn record(&mut self, slice: &[f32], rep: &adaptic::ExecutionReport) {
        self.serve_us += rep.time_us + rep.host_time_us;
        let expected: f64 = slice.iter().map(|v| v.abs() as f64).sum();
        let got = rep.output[0] as f64;
        let rel = (got - expected).abs() / expected.abs().max(1.0);
        self.max_rel_err = self.max_rel_err.max(rel);
    }
}

/// SampledStats: full execution (outputs are exact, checked against the
/// host reference) with sampled launch accounting.
fn opts() -> RunOptions<'static> {
    RunOptions {
        mode: ExecMode::SampledStats(256),
        ..sweep_opts()
    }
}

fn declared_once(program: &Program, trace: &[i64], input: &[f32]) -> Outcome {
    let (device, options) = (DeviceSpec::tesla_c2050(), CompileOptions::default());
    let policy = ReschedPolicy;
    let mut region = DynamicRegion::new(program, &device, options, policy, trace[0], None)
        .expect("region plans");
    let mut o = Outcome::default();
    for &x in trace {
        let slice = &input[..x as usize];
        let rep = region.run(x, slice, &[], opts()).expect("firing serves");
        o.record(slice, &rep);
    }
    o.plan_wall_us = region.plan_wall_us();
    o.plans = 1 + region.reschedules();
    o.clamped = region.clamped_runs();
    o
}

fn startup_plan(program: &Program, trace: &[i64], input: &[f32]) -> Outcome {
    let (lo, hi) = startup_window(trace[0]);
    let (device, options) = (DeviceSpec::tesla_c2050(), CompileOptions::default());
    let t = std::time::Instant::now();
    let axis = InputAxis::total_size("N", lo, hi);
    let compiled =
        compile_with_options(program, &device, &axis, options).expect("startup window plans");
    let mut o = Outcome {
        plan_wall_us: t.elapsed().as_secs_f64() * 1e6,
        plans: 1,
        ..Outcome::default()
    };
    for &x in trace {
        let slice = &input[..x as usize];
        let rep = compiled.run_opts(x, slice, &[], opts(), None);
        o.record(slice, &rep.expect("firing serves"));
        o.clamped += u64::from(x < lo || x > hi);
    }
    o
}

fn main() -> ExitCode {
    let assert_mode = std::env::args().any(|a| a == "--assert");
    let seed = seed();
    let program = dynamic_sasum();
    let trace = regime_flip(FIRINGS, &REGIMES, DWELL, seed);
    let input = data(DECLARED.1 as usize, 7);
    let (lo, hi) = startup_window(trace[0]);

    println!(
        "=== Regime-flip drift: {FIRINGS} firings, dwell {DWELL}, regimes {REGIMES:?}, \
         declared {DECLARED:?}, startup window ({lo}, {hi}), seed {seed} ===\n"
    );
    let declared = declared_once(&program, &trace, &input);
    let startup = startup_plan(&program, &trace, &input);
    for (name, o) in [("declared_once", &declared), ("startup_window", &startup)] {
        println!(
            "{name:>14}: serve {:>10.1} sim us  {:>3} plans  {:>3} clamped firings  \
             rel err {:.1e}",
            o.serve_us, o.plans, o.clamped, o.max_rel_err
        );
        eprintln!("{name}: planning took {:.1} wall us", o.plan_wall_us);
    }
    let ratio = startup.serve_us / declared.serve_us;
    println!("\ndeclared_once serves {ratio:.2}x cheaper than startup_window (need >= {MARGIN}x)");

    if assert_mode {
        if declared.plans != 1 || declared.clamped != 0 {
            eprintln!(
                "FAIL: declared_once made {} plans and clamped {} firings (want 1 and 0)",
                declared.plans, declared.clamped
            );
            return ExitCode::FAILURE;
        }
        if ratio < MARGIN {
            eprintln!("FAIL: declared_once serves only {ratio:.2}x cheaper (need {MARGIN}x)");
            return ExitCode::FAILURE;
        }
        let worst = declared.max_rel_err.max(startup.max_rel_err);
        if worst > REL_TOL {
            eprintln!("FAIL: rel err {worst:.2e} above {REL_TOL:.0e}");
            return ExitCode::FAILURE;
        }
        eprintln!("asserts hold: one plan, no clamps, {ratio:.2}x cheaper serving");
    }
    ExitCode::SUCCESS
}
