//! Warm-start demo: boot the adaptive pipeline against a persistent
//! artifact store and report hit/miss/reject counters, so two invocations
//! of the same binary in the same workspace demonstrate the warm path
//! end to end.
//!
//! The store directory comes from `ADAPTIC_ARTIFACT_DIR` (default
//! `artifacts/` under the current directory). Each boot compiles three
//! programs through [`compile_with_store`], attaches the store to every
//! [`KernelManager`], runs one launch per program, and persists the
//! learned cost ratios on the way out.
//!
//! ```sh
//! ADAPTIC_ARTIFACT_DIR=/tmp/adaptic-store cargo run --release --bin warmstart_demo
//! ADAPTIC_ARTIFACT_DIR=/tmp/adaptic-store cargo run --release --bin warmstart_demo -- --expect-warm
//! ```
//!
//! With `--expect-warm` the process exits non-zero unless every plan came
//! out of the store: artifact hits > 0 and zero misses/rejects (i.e. zero
//! recompiles). CI runs exactly that sequence.

use std::process::ExitCode;
use std::sync::Arc;

use adaptic::{
    compile_with_store, ArtifactStore, CompileOptions, ExecMode, InputAxis, KernelManager,
    RunOptions, StateBinding,
};
use adaptic_apps::programs;
use adaptic_bench::data;
use gpu_sim::DeviceSpec;

fn main() -> ExitCode {
    let expect_warm = std::env::args().any(|a| a == "--expect-warm");
    let store = Arc::new(
        ArtifactStore::from_env()
            .unwrap_or_else(|| ArtifactStore::new(std::path::Path::new("artifacts"))),
    );
    println!("artifact store: {}", store.dir().display());

    let device = DeviceSpec::tesla_c2050();
    let boots: [(_, _, InputAxis, i64, usize, Vec<StateBinding>); 3] = [
        (
            "sasum",
            programs::sasum().program,
            InputAxis::total_size("N", 256, 1 << 18),
            4096,
            4096,
            Vec::new(),
        ),
        (
            "dct8x8",
            programs::dct8x8().program,
            InputAxis::total_size("N", 64, 1 << 16),
            1024,
            1024,
            Vec::new(),
        ),
        (
            "black_scholes",
            programs::black_scholes().program,
            InputAxis::total_size("N", 16, 1 << 16),
            1024,
            3 * 1024,
            vec![StateBinding::new("Price", "rv", vec![0.02, 0.3])],
        ),
    ];

    for (name, program, axis, x, items, state) in boots {
        let compiled =
            compile_with_store(&program, &device, &axis, CompileOptions::default(), &store)
                .expect("compile");
        let kmu = KernelManager::new(compiled).with_artifacts(Arc::clone(&store));
        let input = data(items, 7);
        let report = kmu
            .run(x, &input, &state, RunOptions::serial(ExecMode::Full))
            .expect("first launch");
        kmu.persist_learned().expect("persist learned state");
        println!(
            "{name:>16}: variant {} in {:.1} simulated us",
            report.variant_index, report.time_us
        );
    }

    let (hits, misses, rejects) = (store.hits(), store.misses(), store.rejects());
    println!("artifacts: {hits} hits, {misses} misses, {rejects} rejects");
    if expect_warm && (hits == 0 || misses != 0 || rejects != 0) {
        eprintln!("expected a fully warm boot (hits > 0, zero recompiles)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
