//! Drift figure: a regime-flip traffic mix through three serving systems,
//! demonstrating that rate-conditioned re-scheduling with hysteresis beats
//! both a static plan and eager always-replanning.
//!
//! The workload is the adversarial trace for a rate-conditioned plan: the
//! per-firing input size dwells in one regime (tiny reductions), then
//! abruptly flips to another (huge reductions), round-robin, for the whole
//! trace (see [`adaptic_bench::workloads::regime_flip`]). All three
//! systems are the *same* [`adaptic::DynamicRegion`] machinery — only the
//! hysteresis policy differs:
//!
//! * `static_plan` — the governor never proposes; the startup-window plan
//!   serves every firing, the off-regime half through clamped (mis-tuned)
//!   variant selection;
//! * `always_replan` — hysteresis disabled (streak 1, no cooldown, unit
//!   spread, no artifact store): every window exit re-plans immediately;
//! * `adaptive` — the default hysteresis plus an artifact store, so a
//!   regime revisit re-proposes the identical quantized window and the
//!   re-plan resolves from the store instead of compiling.
//!
//! Cost per system = simulated device+host µs of every firing **plus**
//! wall-clock µs spent planning (initial compile and every re-plan), so
//! re-scheduling pays for its own compiles in the figure of merit.
//!
//! With `--assert` the process exits non-zero unless adaptive beats the
//! static plan by `MARGIN` and always-replan costs more than adaptive; the
//! CI `drift` job runs exactly that. Writes `results/BENCH_drift.json`
//! and `results/drift_adaptivity.txt`. Seed comes from
//! `ADAPTIC_DRIFT_SEED` (default 42).

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use adaptic::{ArtifactStore, CompileOptions, DynamicRegion, ExecMode, ReschedPolicy, RunOptions};
use adaptic_apps::programs;
use adaptic_bench::workloads::regime_flip;
use adaptic_bench::{bench_json, data, sweep_opts, BenchRecord};
use gpu_sim::DeviceSpec;
use streamir::{Program, RateInterval};

/// Required mean-cost advantage of adaptive over the static plan.
const MARGIN: f64 = 1.3;
/// Output sanity bound against the host reference, per firing.
const REL_TOL: f64 = 1e-3;
const FIRINGS: usize = 192;
const DWELL: usize = 24;
/// Tiny and huge size regimes; every flip leaves any one planned window.
/// The tiny regime is capped at 512 so a startup window quantized around
/// it (spread 4) stays below the reduction's structure boundary — the
/// static plan's clamped variant is genuinely mis-tuned for the huge
/// regime.
const REGIMES: [(i64, i64); 2] = [(256, 512), (1 << 15, 1 << 17)];
/// Declared dynamic interval on the reduction's rate parameter.
const DECLARED: (i64, i64) = (256, 1 << 18);

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

struct Outcome {
    serve_us: f64,
    plan_us: f64,
    plans: u64,
    exits: u64,
    clamped: u64,
    max_rel_err: f64,
}

impl Outcome {
    fn total_us(&self) -> f64 {
        self.serve_us + self.plan_us
    }
}

/// Serve the whole trace through one region configured by `policy`.
fn drive(
    program: &Program,
    trace: &[i64],
    input: &[f32],
    policy: ReschedPolicy,
    store: Option<Arc<ArtifactStore>>,
) -> Outcome {
    let device = DeviceSpec::tesla_c2050();
    // SampledStats: full execution (outputs are exact, checked against the
    // host reference) with sampled launch accounting.
    let opts = RunOptions {
        mode: ExecMode::SampledStats(256),
        ..sweep_opts()
    };
    let mut region = DynamicRegion::new(
        program,
        &device,
        CompileOptions::default(),
        policy,
        trace[0],
        store,
    )
    .expect("region plans");
    let (mut serve_us, mut max_rel_err) = (0.0f64, 0.0f64);
    for &x in trace {
        let slice = &input[..x as usize];
        let rep = region.run(x, slice, &[], opts).expect("firing serves");
        serve_us += rep.time_us + rep.host_time_us;
        let expected: f64 = slice.iter().map(|v| v.abs() as f64).sum();
        let got = rep.output[0] as f64;
        max_rel_err = max_rel_err.max((got - expected).abs() / expected.abs().max(1.0));
    }
    Outcome {
        serve_us,
        plan_us: region.plan_wall_us(),
        plans: 1 + region.reschedules(),
        exits: region.governor().exits(),
        clamped: region.clamped_runs(),
        max_rel_err,
    }
}

fn main() -> ExitCode {
    let assert_mode = std::env::args().any(|a| a == "--assert");
    let seed = seed();
    let program = dynamic_sasum();
    let trace = regime_flip(FIRINGS, &REGIMES, DWELL, seed);
    let input = data(DECLARED.1 as usize, 7);

    let static_policy = ReschedPolicy {
        exit_streak: u32::MAX, // the governor never arms
        ..ReschedPolicy::default()
    };
    let eager_policy = ReschedPolicy {
        exit_streak: 1,
        cooldown: 0,
        spread: 1.0,
        ..ReschedPolicy::default()
    };
    let store_dir = std::env::temp_dir().join(format!("adaptic_drift_{}", std::process::id()));
    let store = Arc::new(ArtifactStore::new(&store_dir));

    let systems: [(&str, ReschedPolicy, Option<Arc<ArtifactStore>>); 3] = [
        ("static_plan", static_policy, None),
        ("always_replan", eager_policy, None),
        ("adaptive", ReschedPolicy::default(), Some(store)),
    ];

    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== Regime-flip drift: {FIRINGS} firings, dwell {DWELL}, regimes {:?}, seed {seed} ===\n",
        REGIMES
    );
    let mut records: Vec<BenchRecord> = Vec::new();
    let mut outcomes: Vec<(&str, Outcome)> = Vec::new();
    for (name, policy, store) in systems {
        let o = drive(&program, &trace, &input, policy, store);
        let _ = writeln!(
            out,
            "{name:>14}: total {:>10.1} us  (serve {:>10.1} us + plan {:>8.1} us)  \
             {:>3} plans  {:>3} window exits  {:>3} clamped firings  rel err {:.1e}",
            o.total_us(),
            o.serve_us,
            o.plan_us,
            o.plans,
            o.exits,
            o.clamped,
            o.max_rel_err
        );
        records.push(BenchRecord {
            name: name.into(),
            mean_ns: o.total_us() * 1000.0,
            min_ns: o.serve_us * 1000.0,
            max_ns: o.total_us() * 1000.0,
            speedup: None,
            rate: None,
        });
        outcomes.push((name, o));
    }
    std::fs::remove_dir_all(&store_dir).ok();
    let baseline = records[0].clone();
    for r in records.iter_mut().skip(1) {
        *r = r.clone().vs(&baseline);
    }
    let static_total = outcomes[0].1.total_us();
    let eager_total = outcomes[1].1.total_us();
    let adaptive = &outcomes[2].1;
    let _ = writeln!(
        out,
        "\nadaptive vs static: {:.2}x (need >= {MARGIN}x)   adaptive vs always-replan: {:.2}x",
        static_total / adaptive.total_us(),
        eager_total / adaptive.total_us()
    );

    print!("{out}");
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&results).expect("results dir");
    std::fs::write(results.join("drift_adaptivity.txt"), &out).expect("write drift_adaptivity");
    let json = bench_json("drift", &records).expect("write BENCH_drift.json");
    println!("wrote {}", json.display());

    if assert_mode {
        if adaptive.total_us() * MARGIN > static_total {
            eprintln!(
                "FAIL: adaptive {:.1} us does not beat static {static_total:.1} us by {MARGIN}x",
                adaptive.total_us()
            );
            return ExitCode::FAILURE;
        }
        if eager_total <= adaptive.total_us() {
            eprintln!(
                "FAIL: always-replan {eager_total:.1} us not the upper-overhead baseline \
                 (adaptive {:.1} us)",
                adaptive.total_us()
            );
            return ExitCode::FAILURE;
        }
        if adaptive.plans < 2 {
            eprintln!("FAIL: adaptive never re-planned across the regime flips");
            return ExitCode::FAILURE;
        }
        if let Some((name, o)) = outcomes.iter().find(|(_, o)| o.max_rel_err > REL_TOL) {
            eprintln!(
                "FAIL: {name} rel err {:.2e} above {REL_TOL:.0e}",
                o.max_rel_err
            );
            return ExitCode::FAILURE;
        }
        println!(
            "asserts hold: adaptive {:.2}x over static, always-replan pays {:.2}x adaptive",
            static_total / adaptive.total_us(),
            eager_total / adaptive.total_us()
        );
    }
    ExitCode::SUCCESS
}
