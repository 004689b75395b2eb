//! Drift stress suite: phase-change workloads through a dynamic-rate
//! region, pinning that one plan over the declared interval serves them.
//!
//! Every workload shape from `adaptic_bench::workloads` (diurnal ramp,
//! bursty mix, regime flips) is replayed through a [`DynamicRegion`] from
//! a fixed seed (plus an optional `ADAPTIC_DRIFT_SEED` from the
//! environment — the CI drift job sweeps three fixed seeds through it).
//! The pinned invariants:
//!
//! * **One plan** — the region plans the declared interval once and never
//!   re-plans; a trace inside the declaration clamps no firing and counts
//!   no rate exit.
//! * **Static-oracle equivalence** — every firing's output is
//!   bit-identical to a plain, manager-free run of the same compiled plan
//!   (forced to the variant that served in-declaration firings, clamped
//!   selection for the others): the manager and the clamped path add zero
//!   functional perturbation.
//! * **No quarantine false-positives** — a fault-free drift soak must
//!   never trip the degradation ladder: no retries, fallbacks,
//!   quarantines or degraded runs, and every firing is served exactly
//!   once (`launches + clamped_runs == firings`).
//! * **Clamped serving** — a rate outside the declaration is served
//!   through clamped selection and counted once in `clamped_runs` and once
//!   in `rate_exits`.
//! * **Store reuse** — a second region over the same artifact store loads
//!   the plan instead of compiling it, and serves a trace identically.

use adaptic_bench::workloads::{bursty, diurnal, regime_flip};
use std::sync::Arc;

use adaptic_repro::adaptic::{
    ArtifactStore, CompileOptions, DynamicRegion, ExecMode, ReschedPolicy, RunOptions,
};
use adaptic_repro::apps::programs;
use adaptic_repro::gpu_sim::DeviceSpec;
use adaptic_repro::streamir::graph::Program;
use adaptic_repro::streamir::RateInterval;

/// Declared dynamic interval for the soak program (small enough for
/// `ExecMode::Full` firings).
const DECLARED: (i64, i64) = (64, 8192);

/// The base fixed seed plus the CI-provided `ADAPTIC_DRIFT_SEED`, if any.
fn drift_seeds() -> Vec<u64> {
    let mut seeds = vec![0xD21F7];
    if let Ok(raw) = std::env::var("ADAPTIC_DRIFT_SEED") {
        let raw = raw.trim();
        let parsed = if let Some(hex) = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
            u64::from_str_radix(hex, 16)
        } else {
            raw.parse()
        };
        seeds.push(parsed.unwrap_or_else(|_| panic!("bad ADAPTIC_DRIFT_SEED: {raw:?}")));
    }
    seeds
}

/// The `sasum` reduction with its rate parameter declared dynamic.
fn dynamic_sasum() -> Program {
    let mut p = programs::sasum().program;
    let interval = RateInterval::new(DECLARED.0, DECLARED.1).unwrap();
    let asum = p.actors.iter_mut().find(|a| a.name == "Asum").unwrap();
    asum.dyn_rates.insert("N".into(), interval);
    p
}

/// Deterministic input stream, shared with the bench harness.
fn data(n: usize, seed: u64) -> Vec<f32> {
    adaptic_bench::data(n, seed)
}

struct SoakOutcome {
    clamped: u64,
    rate_exits: u64,
}

/// Replay `trace` through a fresh region, checking the static oracle per
/// firing, and the single plan and the no-false-positive ladder counters
/// at the end.
fn soak(trace: &[i64], ctx: &str) -> SoakOutcome {
    let program = dynamic_sasum();
    let device = DeviceSpec::tesla_c2050();
    let mut region = DynamicRegion::new(
        &program,
        &device,
        CompileOptions::default(),
        ReschedPolicy,
        trace[0],
        None,
    )
    .unwrap_or_else(|e| panic!("{ctx}: region fails to plan: {e}"));
    let plan = region.manager().program().clone();
    assert_eq!(
        plan.axis_range(),
        DECLARED,
        "{ctx}: plan axis is the declaration"
    );
    let longest = trace.iter().copied().max().unwrap_or(0).max(DECLARED.1);
    let input = data(longest as usize, 7);
    let opts = RunOptions::serial(ExecMode::Full);

    for (t, &x) in trace.iter().enumerate() {
        let slice = &input[..x as usize];
        let rep = region
            .run(x, slice, &[], opts)
            .unwrap_or_else(|e| panic!("{ctx} firing {t} (x={x}): {e}"));

        // Static oracle: the same compiled plan, manager-free. In-axis
        // firings force the exact variant that served; out-of-axis
        // firings repeat the clamped (unforced) selection.
        let in_axis = x >= DECLARED.0 && x <= DECLARED.1;
        let oracle_opts = if in_axis {
            opts.with_variant(rep.variant_index)
        } else {
            opts
        };
        let oracle = plan
            .run_opts(x, slice, &[], oracle_opts, None)
            .unwrap_or_else(|e| panic!("{ctx} firing {t} (x={x}): oracle failed: {e}"));
        assert_eq!(
            rep.output.len(),
            oracle.output.len(),
            "{ctx} firing {t} (x={x}): output cursor diverged from the static oracle"
        );
        for (i, (g, b)) in rep.output.iter().zip(&oracle.output).enumerate() {
            assert_eq!(
                g.to_bits(),
                b.to_bits(),
                "{ctx} firing {t} (x={x}): output[{i}] {g} vs oracle {b}"
            );
        }
    }

    // Fault-free soak: the ladder must not fire at all.
    let t = region.telemetry();
    assert_eq!(t.retries, 0, "{ctx}: spurious retries");
    assert_eq!(t.fallbacks, 0, "{ctx}: spurious variant fallbacks");
    assert_eq!(t.quarantines, 0, "{ctx}: quarantine false-positive");
    assert_eq!(t.degraded_runs, 0, "{ctx}: spurious degraded runs");
    assert!(
        t.quarantined_variants.is_empty(),
        "{ctx}: variants left quarantined: {:?}",
        t.quarantined_variants
    );
    assert_eq!(t.faults_observed, 0, "{ctx}: phantom faults");
    // Exactly-once serving: every firing went through the manager or the
    // clamped path, never both, never neither.
    assert_eq!(
        t.launches + region.clamped_runs(),
        trace.len() as u64,
        "{ctx}: firings dropped or double-served"
    );
    // One plan for the whole trace.
    assert_eq!(region.reschedules(), 0, "{ctx}: the region re-planned");
    assert_eq!(t.reschedules, 0, "{ctx}: telemetry reports a re-plan");
    SoakOutcome {
        clamped: region.clamped_runs(),
        rate_exits: t.rate_exits,
    }
}

/// A trace inside the declaration never leaves the one plan's axis.
fn assert_in_declaration(out: &SoakOutcome, ctx: &str) {
    assert_eq!(out.clamped, 0, "{ctx}: in-declaration firings clamped");
    assert_eq!(
        out.rate_exits, 0,
        "{ctx}: in-declaration firings counted as exits"
    );
}

#[test]
fn regime_flips_are_served_by_one_plan() {
    for seed in drift_seeds() {
        let trace = regime_flip(96, &[(64, 128), (2048, 8192)], 16, seed);
        let ctx = format!("regime_flip seed={seed}");
        assert_in_declaration(&soak(&trace, &ctx), &ctx);
    }
}

#[test]
fn diurnal_ramp_does_not_thrash() {
    for seed in drift_seeds() {
        let trace = diurnal(96, DECLARED.0, DECLARED.1, 32, 0.2, seed);
        let ctx = format!("diurnal seed={seed}");
        assert_in_declaration(&soak(&trace, &ctx), &ctx);
    }
}

#[test]
fn bursty_traffic_is_absorbed_without_thrash() {
    for seed in drift_seeds() {
        let trace = bursty(96, (64, 256), (2048, 8192), 24, 2, seed);
        let ctx = format!("bursty seed={seed}");
        assert_in_declaration(&soak(&trace, &ctx), &ctx);
    }
}

#[test]
fn out_of_declaration_rates_are_clamp_served_once() {
    // 32 lies below the declared [64, 8192] and 16384 above it.
    let trace = [256, 32, 4096, 16384, 16384, 64, 32, 8192, 16384];
    let outside = trace
        .iter()
        .filter(|&&x| x < DECLARED.0 || x > DECLARED.1)
        .count() as u64;
    let out = soak(&trace, "out of declaration");
    assert_eq!(out.clamped, outside, "each outside firing clamped once");
    assert_eq!(out.rate_exits, outside, "each outside firing one rate exit");
}

#[test]
fn a_second_region_loads_its_plan_from_the_store() {
    let dir = std::env::temp_dir().join(format!("adaptic_drift_store_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(ArtifactStore::new(&dir));
    let program = dynamic_sasum();
    let device = DeviceSpec::tesla_c2050();
    let trace = regime_flip(24, &[(64, 128), (2048, 8192)], 4, 0xD21F7);
    let input = data(DECLARED.1 as usize, 7);
    let opts = RunOptions::serial(ExecMode::Full);

    let mut passes = Vec::new();
    for boot in 0..2 {
        let hits_before = store.hits();
        let mut region = DynamicRegion::new(
            &program,
            &device,
            CompileOptions::default(),
            ReschedPolicy,
            trace[0],
            Some(Arc::clone(&store)),
        )
        .unwrap_or_else(|e| panic!("boot {boot}: region fails to plan: {e}"));
        if boot == 1 {
            assert!(
                store.hits() > hits_before,
                "the second boot missed the store"
            );
        }
        let served: Vec<(usize, Vec<u32>)> = trace
            .iter()
            .map(|&x| {
                let rep = region.run(x, &input[..x as usize], &[], opts).unwrap();
                let bits = rep.output.iter().map(|v| v.to_bits()).collect();
                (rep.variant_index, bits)
            })
            .collect();
        let hash = region.manager().program().content_hash();
        passes.push((hash, served));
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        passes[0].0, passes[1].0,
        "the stored plan differs from the compiled one"
    );
    assert_eq!(passes[0].1, passes[1].1, "a stored plan served differently");
}
