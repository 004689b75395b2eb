//! Warm-start benchmark: cold boot (full plan-time compile + first
//! launch) against warm boot (artifact-store hit + learned-state seed +
//! first launch) for a map program and a reduction program.
//!
//! Cold pays bytecode lowering for every segment plus the planner's
//! geometric probe sweep and binary-search boundary refinement (a dense
//! 769-point offline tune here, each probe a full rate-match + cost
//! estimate); warm pays one cheap structure rebuild and a
//! length-prefixed decode. The measured
//! quantity is the paper-relevant one — *time to first useful result* on
//! process boot — so each sample is `compile + KernelManager + first
//! launch`.
//!
//! Results land in `results/BENCH_warmstart.json` (machine-readable, with
//! `speedup` = cold mean / warm mean) and `results/warmstart_speedup.txt`
//! (prose record). The acceptance bar is a ≥ 5x reduction in
//! plan+first-launch time; the bench asserts it.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use adaptic::{
    compile_with_options, compile_with_store, ArtifactStore, CompileOptions, ExecMode, InputAxis,
    KernelManager, RunOptions, StateBinding,
};
use adaptic_apps::programs;
use adaptic_bench::{bench_json, data, measure, BenchRecord};
use gpu_sim::DeviceSpec;
use streamir::graph::Program;

/// First launch executed by every boot sample.
const FIRST_LAUNCH: ExecMode = ExecMode::Full;

/// Plan-time configuration: a thorough offline tune (dense probe sweep)
/// — the cost the artifact store amortizes away.
fn tuned() -> CompileOptions {
    CompileOptions {
        probes: 769,
        ..CompileOptions::default()
    }
}

struct Workload {
    name: &'static str,
    program: Program,
    axis: InputAxis,
    /// First-launch axis value and input length.
    x: i64,
    items: usize,
    state: Vec<StateBinding>,
}

fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "sasum",
            program: programs::sasum().program,
            axis: InputAxis::total_size("N", 256, 1 << 18),
            x: 256,
            items: 256,
            state: Vec::new(),
        },
        Workload {
            name: "dct8x8",
            program: programs::dct8x8().program,
            axis: InputAxis::total_size("N", 64, 1 << 16),
            x: 64,
            items: 64,
            state: Vec::new(),
        },
        Workload {
            name: "black_scholes",
            program: programs::black_scholes().program,
            axis: InputAxis::total_size("N", 16, 1 << 16),
            x: 16,
            items: 3 * 16,
            state: vec![StateBinding::new("Price", "rv", vec![0.02, 0.3])],
        },
    ]
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("adaptic_warmstart_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Cold boot: compile from nothing, stand up the manager, run once.
fn cold_boot(w: &Workload, device: &DeviceSpec, input: &[f32]) {
    let compiled = compile_with_options(&w.program, device, &w.axis, tuned()).unwrap();
    let kmu = KernelManager::new(compiled);
    kmu.run(w.x, input, &w.state, RunOptions::serial(FIRST_LAUNCH))
        .unwrap();
}

/// Warm boot: load the plan from the store (a hit skips lowering and the
/// probe sweep), seed the KMU from persisted learned state, run once.
fn warm_boot(w: &Workload, device: &DeviceSpec, input: &[f32], store: &Arc<ArtifactStore>) {
    let compiled = compile_with_store(&w.program, device, &w.axis, tuned(), store).unwrap();
    let kmu = KernelManager::new(compiled).with_artifacts(Arc::clone(store));
    kmu.run(w.x, input, &w.state, RunOptions::serial(FIRST_LAUNCH))
        .unwrap();
}

fn main() {
    let device = DeviceSpec::tesla_c2050();
    let samples = 10;
    let mut records: Vec<BenchRecord> = Vec::new();
    let mut prose = String::from(
        "Warm-start benchmark: cold boot (full plan-time compile + first launch)\n\
         vs warm boot (artifact-store hit + learned-state seed + first launch),\n\
         Tesla C2050 preset, ExecMode::Full first launch.\n\n",
    );

    for w in workloads() {
        let input = data(w.items, 11);
        let dir = fresh_dir(w.name);
        let store = Arc::new(ArtifactStore::new(&dir));

        // Seed the store: one cold compile-with-store writes the plan,
        // one short-lived manager persists learned state.
        {
            let compiled =
                compile_with_store(&w.program, &device, &w.axis, tuned(), &store).unwrap();
            let kmu = KernelManager::new(compiled).with_artifacts(Arc::clone(&store));
            kmu.run(w.x, &input, &w.state, RunOptions::serial(FIRST_LAUNCH))
                .unwrap();
            kmu.persist_learned().unwrap();
        }

        let cold = measure(&format!("warmstart/{}_cold_boot", w.name), samples, || {
            cold_boot(&w, &device, &input)
        });
        let hits_before = store.hits();
        let warm = measure(&format!("warmstart/{}_warm_boot", w.name), samples, || {
            warm_boot(&w, &device, &input, &store)
        })
        .vs(&cold);
        assert!(
            store.hits() > hits_before,
            "warm boots must hit the artifact store"
        );

        let speedup = cold.mean_ns / warm.mean_ns;
        println!(
            "{:>28}: cold {:>10.1} us  warm {:>8.1} us  speedup {speedup:>5.1}x",
            w.name,
            cold.mean_ns / 1e3,
            warm.mean_ns / 1e3,
        );
        prose.push_str(&format!(
            "{}: cold {:.1} us, warm {:.1} us -> {speedup:.1}x\n",
            w.name,
            cold.mean_ns / 1e3,
            warm.mean_ns / 1e3,
        ));
        assert!(
            speedup >= 5.0,
            "{}: warm boot must be >= 5x faster than cold, got {speedup:.1}x",
            w.name
        );
        records.push(cold);
        records.push(warm);
        let _ = std::fs::remove_dir_all(&dir);
    }

    let path = bench_json("warmstart", &records).expect("write BENCH_warmstart.json");
    println!("wrote {}", path.display());
    let txt = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/warmstart_speedup.txt");
    std::fs::write(&txt, prose).expect("write warmstart_speedup.txt");
    println!("wrote {}", txt.display());
}
