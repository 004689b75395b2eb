//! Fleet scheduling figure: a skewed request mix over a heterogeneous
//! device fleet, comparing placement policies and "few fit most"
//! variant-set pruning.
//!
//! The fleet is every [`DeviceSpec`] preset — from the iGPU-class part
//! (cheap launches, thin memory) to the HPC-class part (expensive
//! launches, 900 GB/s). The workload is deliberately skewed: mostly tiny
//! reductions where the iGPU wins, a tail of huge ones where the wide
//! part wins — so a scheduler that actually reads the cost model has
//! something to exploit over round-robin.
//!
//! Reported per policy: fleet makespan (busiest device's simulated time)
//! and throughput. Then the cost-predicted fleet is pruned to the
//! smallest per-device variant subset within `TOLERANCE` of the full
//! table and the same workload re-runs — the makespan must stay within
//! the bound while the per-device plan artifacts shrink.
//!
//! With `--assert` the process exits non-zero unless cost-predicted
//! placement beats round-robin and the pruned fleet holds its bound; CI
//! runs exactly that. Writes `results/BENCH_fleet.json` and
//! `results/fleet_throughput.txt`.

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use adaptic::{
    ExecMode, Fleet, FleetNode, InputAxis, Placement, PlacementPolicy, PruneOutcome, RunOptions,
};
use adaptic_apps::programs;
use adaptic_bench::{bench_json, data, BenchRecord};
use gpu_sim::DeviceSpec;

/// Worst-case per-launch slowdown the pruned variant set may admit.
const TOLERANCE: f64 = 0.10;
/// End-to-end slack on top of `TOLERANCE` for the makespan bound: the
/// per-launch bound is on *predicted* curves, and pruning also re-tiles
/// boundaries, so measured makespan gets a little headroom.
const MAKESPAN_SLACK: f64 = 0.05;
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

    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== Heterogeneous fleet: {} requests (70% tiny / 20% medium / 10% huge), {} devices ===\n",
        sizes.len(),
        DeviceSpec::presets().len()
    );

    let policies: [(&str, Admit); 3] = [
        ("round_robin", round_robin),
        ("static_affinity", static_affinity),
        ("cost_predicted", cost_predicted),
    ];
    let mut records: Vec<BenchRecord> = Vec::new();
    let mut makespans = std::collections::BTreeMap::new();
    for (name, admit) in policies {
        let fleet = build_fleet(&axis);
        let (makespan, throughput) = drive(&fleet, &sizes, &input, admit);
        makespans.insert(name, makespan);
        let _ = writeln!(
            out,
            "{name:>16}: makespan {makespan:>10.1} us  throughput {throughput:>7.2} launches/ms"
        );
        for n in fleet.nodes() {
            let _ = writeln!(
                out,
                "{:>18}- {:<14} {:>4} launches, {:>10.1} us busy",
                "",
                n.name(),
                n.queue().completed(),
                n.queue().busy_us()
            );
        }
        let t = fleet.telemetry().expect("non-empty fleet");
        let _ = writeln!(
            out,
            "{:>18}  fleet telemetry: {} launches, model error {:.1}%",
            "",
            t.launches,
            t.mean_model_error * 100.0
        );
        records.push(BenchRecord {
            name: name.into(),
            mean_ns: makespan * 1000.0,
            min_ns: makespan * 1000.0,
            max_ns: makespan * 1000.0,
            speedup: None,
            rate: None,
        });
    }
    let baseline = records[0].clone();
    for r in records.iter_mut().skip(1) {
        *r = r.clone().vs(&baseline);
    }

    // "Few fit most": prune the cost-predicted fleet and re-run.
    let mut pruned_fleet = build_fleet(&axis);
    let outcomes: Vec<PruneOutcome> = pruned_fleet
        .prune(64, TOLERANCE)
        .expect("pruning keeps a valid table per node");
    let (pruned_makespan, pruned_throughput) = drive(&pruned_fleet, &sizes, &input, cost_predicted);
    let _ = writeln!(
        out,
        "\n--- variant-set pruning (tolerance {:.0}%) ---",
        TOLERANCE * 100.0
    );
    let (mut full_bytes, mut pruned_bytes) = (0usize, 0usize);
    for o in &outcomes {
        full_bytes += o.full_bytes;
        pruned_bytes += o.pruned_bytes;
        let _ = writeln!(
            out,
            "{:>18}- {:<14} {} -> {} variants, {} -> {} artifact bytes (max overhead {:.1}%)",
            "",
            o.node,
            o.full_variants,
            o.selection.kept.len(),
            o.full_bytes,
            o.pruned_bytes,
            o.selection.max_overhead * 100.0
        );
    }
    let full_makespan = makespans["cost_predicted"];
    let _ = writeln!(
        out,
        "{:>16}: makespan {:>10.1} us  throughput {:>7.2} launches/ms  \
         ({:+.1}% vs full table, bound {:.0}%)",
        "pruned",
        pruned_makespan,
        pruned_throughput,
        (pruned_makespan / full_makespan - 1.0) * 100.0,
        (TOLERANCE + MAKESPAN_SLACK) * 100.0
    );
    let _ = writeln!(
        out,
        "{:>16}  fleet artifact footprint: {} -> {} bytes ({:.1}% of full)",
        "",
        full_bytes,
        pruned_bytes,
        pruned_bytes as f64 / full_bytes.max(1) as f64 * 100.0
    );
    records.push(
        BenchRecord {
            name: "cost_predicted_pruned".into(),
            mean_ns: pruned_makespan * 1000.0,
            min_ns: pruned_makespan * 1000.0,
            max_ns: pruned_makespan * 1000.0,
            speedup: None,
            rate: None,
        }
        .vs(&baseline),
    );

    print!("{out}");
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&results).expect("results dir");
    std::fs::write(results.join("fleet_throughput.txt"), &out).expect("write fleet_throughput");
    let json = bench_json("fleet", &records).expect("write BENCH_fleet.json");
    println!("wrote {}", json.display());

    if assert_mode {
        let rr = makespans["round_robin"];
        if full_makespan > rr {
            eprintln!(
                "FAIL: cost-predicted makespan {full_makespan:.1} us worse than round-robin {rr:.1} us"
            );
            return ExitCode::FAILURE;
        }
        if pruned_makespan > full_makespan * (1.0 + TOLERANCE + MAKESPAN_SLACK) {
            eprintln!(
                "FAIL: pruned makespan {pruned_makespan:.1} us breaks the {:.0}% bound over {full_makespan:.1} us",
                (TOLERANCE + MAKESPAN_SLACK) * 100.0
            );
            return ExitCode::FAILURE;
        }
        if pruned_bytes > full_bytes {
            eprintln!("FAIL: pruning grew the artifact footprint ({full_bytes} -> {pruned_bytes})");
            return ExitCode::FAILURE;
        }
        println!(
            "asserts hold: cost-predicted beats round-robin ({:.2}x), pruned within bound",
            rr / full_makespan
        );
    }
    ExitCode::SUCCESS
}
