//! Fleet scheduling figure: a skewed request mix over a heterogeneous
//! device fleet, comparing placement policies.
//!
//! The fleet is every [`DeviceSpec`] preset — from the iGPU-class part
//! (cheap launches, thin memory) to the HPC-class part (expensive
//! launches, 900 GB/s). The workload is deliberately skewed: mostly tiny
//! reductions where the iGPU wins, a tail of huge ones where the wide
//! part wins — so a scheduler that actually reads the cost model has
//! something to exploit over round-robin.
//!
//! Reported per policy: fleet makespan (busiest device's simulated time),
//! throughput, each device's share and the fleet telemetry rollup. Stdout
//! carries simulated µs only, so it is deterministic and
//! `scripts/figures.sh` pins it as `results/fleet_throughput.txt`. With
//! `--assert` the process also exits non-zero unless cost-predicted
//! placement beats round-robin on makespan, with the verdict on stderr;
//! the CI `fleet` job runs exactly that.

use std::process::ExitCode;

use adaptic::{ExecMode, Fleet, FleetNode, InputAxis, Placement, PlacementPolicy, RunOptions};
use adaptic_apps::programs;
use adaptic_bench::data;
use gpu_sim::DeviceSpec;

const REQUESTS: usize = 240;
const SEED: u64 = 42;

/// Skewed request sizes: 70% tiny, 20% medium, 10% huge. Deterministic.
fn workload(axis_lo: i64, axis_hi: i64) -> Vec<i64> {
    let mut state = SEED;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as i64
    };
    (0..REQUESTS)
        .map(|_| {
            let (lo, hi) = match next() % 10 {
                0..=6 => (axis_lo, axis_lo * 4),        // tiny
                7 | 8 => (axis_lo * 32, axis_lo * 128), // medium
                _ => (axis_hi / 2, axis_hi),            // huge
            };
            lo + next().rem_euclid(hi - lo + 1)
        })
        .collect()
}

fn build_fleet(axis: &InputAxis) -> Fleet {
    Fleet::compile(&programs::sasum().program, axis, &DeviceSpec::presets())
        .expect("fleet compiles on every preset")
}

/// How a run admits one request: charge a node's ledger, say which.
type Admit = fn(&Fleet, i64) -> Placement;

fn round_robin(fleet: &Fleet, x: i64) -> Placement {
    fleet.admit(x, PlacementPolicy::RoundRobin).expect("admit")
}

fn cost_predicted(fleet: &Fleet, x: i64) -> Placement {
    fleet
        .admit(x, PlacementPolicy::CostPredicted)
        .expect("admit")
}

/// Bench-side baseline: pin the launch to the node whose *offline*
/// analytical model is cheapest for `x`, ignoring measured corrections
/// and backlog — what an ahead-of-time placement would do. The ledger is
/// still charged the node's corrected cost, like every library policy.
fn static_affinity(fleet: &Fleet, x: i64) -> Placement {
    let offline = |node: &FleetNode| {
        let program = node.manager().program();
        let priced = program.try_variant_for(x).ok();
        priced
            .and_then(|(v, _)| program.predicted_time_us(x, v))
            .unwrap_or(f64::INFINITY)
    };
    let (node, chosen) = (fleet.nodes().iter().enumerate())
        .min_by(|a, b| offline(a.1).total_cmp(&offline(b.1)))
        .expect("non-empty fleet");
    let predicted_us = chosen.manager().corrected_cost(x).expect("price");
    chosen.queue().enqueue(predicted_us);
    Placement { node, predicted_us }
}

/// Run the request mix through `fleet` under `admit` as a burst: every
/// request is admitted (charging backlogs) before any settles, so
/// placement decisions see the queue state a loaded fleet would have.
/// Returns (makespan µs, launches/ms of simulated fleet time).
fn drive(fleet: &Fleet, sizes: &[i64], input: &[f32], admit: Admit) -> (f64, f64) {
    let opts = RunOptions {
        mode: ExecMode::SampledExec(64),
        ..RunOptions::default()
    };
    let placements: Vec<_> = sizes.iter().map(|&x| admit(fleet, x)).collect();
    for (&x, p) in sizes.iter().zip(placements) {
        fleet
            .settle(p, x, &input[..x as usize], &[], opts)
            .expect("settle");
    }
    let makespan = fleet.makespan_us();
    (makespan, sizes.len() as f64 / (makespan / 1000.0))
}

fn main() -> ExitCode {
    let assert_mode = std::env::args().any(|a| a == "--assert");
    let axis = InputAxis::total_size("N", 256, 1 << 18);
    let sizes = workload(256, 1 << 18);
    let input = data(1 << 18, 7);

    println!(
        "=== Heterogeneous fleet: {} requests (70% tiny / 20% medium / 10% huge), {} devices ===\n",
        sizes.len(),
        DeviceSpec::presets().len()
    );

    let policies: [(&str, Admit); 3] = [
        ("round_robin", round_robin),
        ("static_affinity", static_affinity),
        ("cost_predicted", cost_predicted),
    ];
    let makespans = policies.map(|(name, admit)| {
        let fleet = build_fleet(&axis);
        let (makespan, throughput) = drive(&fleet, &sizes, &input, admit);
        println!(
            "{name:>16}: makespan {makespan:>10.1} us  throughput {throughput:>7.2} launches/ms"
        );
        for n in fleet.nodes() {
            println!(
                "{:>18}- {:<14} {:>4} launches, {:>10.1} us busy",
                "",
                n.name(),
                n.queue().completed(),
                n.queue().busy_us()
            );
        }
        let t = fleet.telemetry().expect("non-empty fleet");
        println!(
            "{:>18}  fleet telemetry: {} launches, model error {:.1}%",
            "",
            t.launches,
            t.mean_model_error * 100.0
        );
        makespan
    });

    if assert_mode {
        let [rr, _, cp] = makespans;
        if cp > rr {
            eprintln!("FAIL: cost-predicted makespan {cp:.1} us worse than round-robin {rr:.1} us");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "asserts hold: cost-predicted beats round-robin ({:.2}x)",
            rr / cp
        );
    }
    ExitCode::SUCCESS
}
