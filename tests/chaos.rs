//! Chaos suite: the conformance corpus re-run under seeded fault
//! injection, pinning the resilient launch pipeline's recovery guarantee.
//!
//! Every template family runs with a [`FaultPlan`] drawn from the same
//! replayable seed corpus the conformance suite uses (plus an optional
//! `ADAPTIC_CHAOS_SEED` from the environment — the CI chaos job sweeps
//! three fixed seeds through it). The pinned invariants:
//!
//! * **Completion** — the degradation ladder (retry → variant fallback →
//!   quarantine → serial last resort) absorbs every injected fault; a run
//!   that exhausts the whole ladder is a test failure.
//! * **Bit-identical recovery** — a run that succeeds after faults
//!   produces the exact output bytes and kernel statistics of a
//!   fault-free run of the variant that completed. (Different variants
//!   reduce in different orders, so cross-variant agreement is only
//!   within rounding — recovery is compared per variant, which is the
//!   strongest claim a variant-switching pipeline can make.)
//! * **Determinism** — the same seed replays the same fault schedule,
//!   the same recovery path and the same bytes, so a red chaos run in CI
//!   reproduces locally by exporting the seed it names.

mod common;

use std::collections::HashSet;
use std::sync::Mutex;

use adaptic_repro::adaptic::{
    CompiledProgram, ExecMode, ExecutionReport, Fault, FaultInjector, FaultKind, FaultPlan,
    KernelManager, RetryPolicy, RunOptions, StateBinding,
};
use adaptic_repro::gpu_sim::DeviceSpec;
use adaptic_repro::streamir::error::Error;
use common::{cases, compiled_for, corpus_seeds, data, Case};
use proptest::prelude::*;

/// Corpus seeds plus the CI-provided `ADAPTIC_CHAOS_SEED`, if any.
fn chaos_seeds() -> Vec<u64> {
    let mut seeds = corpus_seeds();
    if let Ok(raw) = std::env::var("ADAPTIC_CHAOS_SEED") {
        let raw = raw.trim();
        let parsed = if let Some(hex) = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
            u64::from_str_radix(hex, 16)
        } else {
            raw.parse()
        };
        seeds.push(parsed.unwrap_or_else(|_| panic!("bad ADAPTIC_CHAOS_SEED: {raw:?}")));
    }
    seeds
}

/// A [`FaultPlan`] wrapper that records which fault kinds it handed out,
/// so the suite can assert the schedule actually exercised the taxonomy.
#[derive(Debug)]
struct KindTally {
    plan: FaultPlan,
    kinds: Mutex<HashSet<FaultKind>>,
}

impl KindTally {
    fn new(plan: FaultPlan) -> KindTally {
        KindTally {
            plan,
            kinds: Mutex::new(HashSet::new()),
        }
    }

    fn kinds(&self) -> HashSet<FaultKind> {
        self.kinds.lock().unwrap().clone()
    }
}

impl FaultInjector for KindTally {
    fn on_launch(&self, kernel: &str) -> Option<Fault> {
        let fault = self.plan.on_launch(kernel);
        if let Some(f) = fault {
            self.kinds.lock().unwrap().insert(f.kind());
        }
        fault
    }

    fn injected(&self) -> u64 {
        self.plan.injected()
    }
}

/// Fault-free reference run of every variant at `(x, input, state)`:
/// recovery is bit-identical *to the variant that completed*.
fn variant_baselines(
    compiled: &CompiledProgram,
    x: i64,
    input: &[f32],
    state: &[StateBinding],
) -> Vec<ExecutionReport> {
    (0..compiled.variant_count())
        .map(|v| {
            compiled
                .run_opts(
                    x,
                    input,
                    state,
                    RunOptions::serial(ExecMode::Full).with_variant(v),
                    None,
                )
                .unwrap_or_else(|e| panic!("fault-free baseline of variant {v} failed: {e}"))
        })
        .collect()
}

/// Assert `rep` matches the fault-free baseline of the variant it
/// completed on: output cursor, output bits, launch schedule and kernel
/// statistics.
fn assert_bit_identical(ctx: &str, rep: &ExecutionReport, baselines: &[ExecutionReport]) {
    let base = &baselines[rep.variant_index];
    assert_eq!(
        rep.output.len(),
        base.output.len(),
        "{ctx}: output cursor diverged after recovery"
    );
    for (i, (g, b)) in rep.output.iter().zip(&base.output).enumerate() {
        assert_eq!(
            g.to_bits(),
            b.to_bits(),
            "{ctx}: output[{i}] {g} vs {b} after recovery"
        );
    }
    assert_eq!(
        rep.kernels.len(),
        base.kernels.len(),
        "{ctx}: launch count diverged after recovery"
    );
    for (g, b) in rep.kernels.iter().zip(&base.kernels) {
        assert_eq!(g.name, b.name, "{ctx}: launch schedule diverged");
        assert_eq!(
            g.stats, b.stats,
            "{ctx} kernel={}: stats diverged after recovery",
            g.name
        );
    }
}

fn reduce_case() -> Case {
    cases()
        .into_iter()
        .find(|c| c.family == "reduce")
        .expect("corpus has a reduce case")
}

#[test]
fn chaos_recovery_is_bit_identical_across_the_corpus() {
    let device = DeviceSpec::tesla_c2050();
    let seeds = chaos_seeds();
    let mut kinds_seen: HashSet<FaultKind> = HashSet::new();
    let mut total_injected = 0u64;
    let mut total_retries = 0u64;
    for case in cases() {
        let compiled = compiled_for(&case, &device);
        let kmu = KernelManager::new(compiled);
        for &x in case.sizes {
            let state = (case.state)();
            for &seed in &seeds {
                let input = data((case.items)(x), seed);
                let baselines = variant_baselines(kmu.program(), x, &input, &state);
                let inj = KindTally::new(FaultPlan::new(seed).with_rate(0.35));
                let ctx = format!("family={} x={x} seed={seed}", case.family);
                let rep = kmu
                    .run(
                        x,
                        &input,
                        &state,
                        RunOptions::serial(ExecMode::Full).with_faults(&inj),
                    )
                    .unwrap_or_else(|e| panic!("{ctx}: ladder failed to complete: {e}"));
                assert_bit_identical(&ctx, &rep, &baselines);
                kinds_seen.extend(inj.kinds());
                total_injected += inj.injected();
            }
        }
        total_retries += kmu.telemetry().retries;
    }
    assert!(total_injected > 0, "the schedule must actually inject");
    assert!(total_retries > 0, "some faults must have been retried away");
    assert!(
        kinds_seen.len() >= 3,
        "schedule must exercise >=3 fault kinds, saw {kinds_seen:?}"
    );
}

#[test]
fn chaos_replays_identically_for_a_fixed_seed() {
    let device = DeviceSpec::tesla_c2050();
    let case = reduce_case();
    let compiled = compiled_for(&case, &device);
    let x = case.sizes[0];
    let input = data((case.items)(x), 42);

    let run_pass = || {
        let kmu = KernelManager::new(compiled.clone());
        let plan = FaultPlan::new(0xDEADBEEF).with_rate(0.5);
        let mut trace: Vec<u64> = Vec::new();
        for _ in 0..4 {
            let rep = kmu
                .run(
                    x,
                    &input,
                    &[],
                    RunOptions::serial(ExecMode::Full).with_faults(&plan),
                )
                .expect("the ladder must complete");
            trace.push(rep.variant_index as u64);
            trace.extend(rep.output.iter().map(|v| u64::from(v.to_bits())));
        }
        let snap = kmu.telemetry();
        trace.extend([
            plan.injected(),
            plan.consulted(),
            snap.faults_observed,
            snap.retries,
            snap.fallbacks,
            snap.quarantines,
        ]);
        trace
    };
    assert_eq!(
        run_pass(),
        run_pass(),
        "the same seed must replay the same faults, path and bytes"
    );
}

#[test]
fn hard_fault_window_quarantines_then_readmits() {
    let device = DeviceSpec::tesla_c2050();
    let case = reduce_case();
    let compiled = compiled_for(&case, &device);
    assert!(compiled.variant_count() >= 2, "need a fallback target");
    let kmu = KernelManager::new(compiled).with_quarantine(1, 2);
    let x = kmu.telemetry().boundaries[0].0; // the table's primary is variant 0
    let input = data(x as usize, 7);
    let baselines = variant_baselines(kmu.program(), x, &input, &[]);

    // Reject exactly the primary's whole attempt budget, then go inert.
    let budget = u64::from(RetryPolicy::default().max_attempts);
    let plan = FaultPlan::new(7)
        .with_rate(1.0)
        .with_kinds(vec![FaultKind::LaunchReject])
        .with_window(0, budget);
    for round in 0..4 {
        let rep = kmu
            .run(
                x,
                &input,
                &[],
                RunOptions::serial(ExecMode::Full).with_faults(&plan),
            )
            .unwrap_or_else(|e| panic!("round {round}: ladder failed: {e}"));
        assert_bit_identical(&format!("round {round}"), &rep, &baselines);
    }
    let snap = kmu.telemetry();
    assert_eq!(
        snap.quarantines, 1,
        "the primary must have been quarantined"
    );
    assert!(snap.fallbacks >= 1, "a neighbor must have served meanwhile");
    assert_eq!(snap.half_open_probes, 1, "one probe after the window");
    assert_eq!(snap.readmissions, 1, "the probe must re-admit the primary");
    assert!(snap.quarantined_variants.is_empty(), "breaker closed again");
    assert_eq!(snap.faults_injected, budget);
}

/// Persistence under fire: a fault-injected process that persists its
/// learned state while a variant sits quarantined must NOT leak the
/// quarantine into the store — the artifact carries histograms only, and
/// a reloaded process starts with every breaker closed while inheriting
/// the learned histograms.
#[test]
fn quarantine_state_never_leaks_into_the_store() {
    let device = DeviceSpec::tesla_c2050();
    let case = reduce_case();
    let compiled = compiled_for(&case, &device);
    assert!(compiled.variant_count() >= 2, "need a fallback target");
    let dir = std::env::temp_dir().join(format!("adaptic_chaos_store_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = std::sync::Arc::new(adaptic_repro::adaptic::ArtifactStore::new(&dir));

    // Long quarantine window so the breaker is still open at "shutdown".
    let kmu = KernelManager::new(compiled.clone())
        .with_quarantine(1, 1_000_000)
        .with_artifacts(std::sync::Arc::clone(&store));
    let x = kmu.telemetry().boundaries[0].0;
    let input = data(x as usize, 7);

    // Reject the primary's whole attempt budget: variant 0 quarantines and
    // a neighbor serves the run.
    let budget = u64::from(RetryPolicy::default().max_attempts);
    let plan = FaultPlan::new(7)
        .with_rate(1.0)
        .with_kinds(vec![FaultKind::LaunchReject])
        .with_window(0, budget);
    kmu.run(
        x,
        &input,
        &[],
        RunOptions::serial(ExecMode::Full).with_faults(&plan),
    )
    .expect("the ladder must complete");
    let snap = kmu.telemetry();
    assert_eq!(snap.quarantines, 1, "the primary must be quarantined");
    assert!(
        !snap.quarantined_variants.is_empty(),
        "breaker must still be open at persist time"
    );

    // Persist mid-quarantine, then "reboot".
    kmu.persist_learned().expect("persist");
    let learned = kmu.export_learned();
    drop(kmu);

    let reloaded = KernelManager::new(compiled).with_artifacts(std::sync::Arc::clone(&store));
    let fresh = reloaded.telemetry();
    assert!(
        fresh.quarantined_variants.is_empty(),
        "a reloaded process must start with closed breakers, got {:?}",
        fresh.quarantined_variants
    );
    assert_eq!(fresh.quarantines, 0, "no quarantine history inherited");
    assert_eq!(
        reloaded.export_learned(),
        learned,
        "learned histograms must survive the restart"
    );
    assert_eq!(fresh.artifact_hits, 1, "the reload must be a store hit");

    // And the reloaded manager runs the once-quarantined primary again.
    let rep = reloaded
        .run(x, &input, &[], RunOptions::serial(ExecMode::Full))
        .expect("fault-free run after reload");
    assert_eq!(
        rep.variant_index, 0,
        "primary selectable again after reboot"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Faults hot across a dynamic-rate region: a regime-flip trace with
/// rates on both sides of the declaration through a [`DynamicRegion`],
/// with the chaos injector running the whole time, so faults land on
/// in-declaration firings and on clamped ones. Invariants:
///
/// * every firing completes — the degradation ladder absorbs faults on
///   the manager path, and the clamped path falls back to the same
///   serial-degraded last resort rather than dropping the firing;
/// * recovery stays bit-identical to the fault-free baseline of the plan
///   and variant that served each firing (clamped firings against the
///   clamped selection of the same plan);
/// * accounting: `launches + clamped == firings` (nothing dropped or
///   double-run), with faults observed; each outside firing is counted
///   once as a clamp and once as a rate exit, each injected fault once,
///   and every firing's retries and faults are kept, clamped ones
///   included.
#[test]
fn faults_across_a_dynamic_region_fall_down_the_ladder() {
    use adaptic_repro::adaptic::{CompileOptions, DynamicRegion, ReschedPolicy, RunOptions};
    use adaptic_repro::apps::programs;
    use adaptic_repro::streamir::RateInterval;

    let mut program = programs::sasum().program;
    program
        .actors
        .iter_mut()
        .find(|a| a.name == "Asum")
        .unwrap()
        .dyn_rates
        .insert("N".into(), RateInterval::new(64, 8192).unwrap());
    // Tiny regime, flip to huge, flip back, with 32 below and 16384 above
    // the declared [64, 8192]: the injector gets shots at the manager
    // path and at the clamped path.
    let trace: Vec<i64> = [
        64, 32, 96, 128, 8192, 16384, 4096, 6144, 2048, 96, 32, 64, 128,
    ]
    .iter()
    .flat_map(|&x| [x, x])
    .collect();
    let outside = trace.iter().filter(|&&x| !(64..=8192).contains(&x)).count() as u64;
    let device = DeviceSpec::tesla_c2050();

    for seed in chaos_seeds() {
        let input = data(16384, seed);
        let mut region = DynamicRegion::new(
            &program,
            &device,
            CompileOptions::default(),
            ReschedPolicy,
            trace[0],
            None,
        )
        .expect("region plans");
        let inj = KindTally::new(FaultPlan::new(seed).with_rate(0.35));
        let (mut reported_faults, mut reported_retries) = (0, 0);

        for (t, &x) in trace.iter().enumerate() {
            let slice = &input[..x as usize];
            let ctx = format!("drift-chaos seed={seed} firing={t} x={x}");
            let rep = region
                .run(
                    x,
                    slice,
                    &[],
                    RunOptions::serial(ExecMode::Full).with_faults(&inj),
                )
                .unwrap_or_else(|e| panic!("{ctx}: ladder failed to complete: {e}"));
            reported_faults += rep.faults_observed;
            reported_retries += rep.retries;

            // Fault-free baseline against the plan that served the
            // firing. In-axis firings pin the variant that completed;
            // out-of-axis firings repeat the clamped (unforced)
            // selection of the same planned table.
            let plan = region.manager().program();
            let (lo, hi) = plan.axis_range();
            if x >= lo && x <= hi {
                let baselines = variant_baselines(plan, x, slice, &[]);
                assert_bit_identical(&ctx, &rep, &baselines);
            } else {
                let base = plan
                    .run_opts(x, slice, &[], RunOptions::serial(ExecMode::Full), None)
                    .unwrap_or_else(|e| panic!("{ctx}: clamped baseline failed: {e}"));
                assert_eq!(
                    rep.output.len(),
                    base.output.len(),
                    "{ctx}: clamped output cursor diverged after recovery"
                );
                for (i, (g, b)) in rep.output.iter().zip(&base.output).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        b.to_bits(),
                        "{ctx}: clamped output[{i}] {g} vs {b} after recovery"
                    );
                }
            }
        }

        let t = region.telemetry();
        assert!(
            t.faults_observed > 0,
            "seed={seed}: the schedule never actually injected"
        );
        assert_eq!(
            t.launches + region.clamped_runs(),
            trace.len() as u64,
            "seed={seed}: firings dropped or double-run"
        );
        assert_eq!(
            t.reschedules,
            region.reschedules(),
            "seed={seed}: telemetry"
        );
        assert_eq!(
            (region.clamped_runs(), t.rate_exits),
            (outside, outside),
            "seed={seed}: each outside firing is one clamp and one rate exit"
        );
        assert_eq!(
            t.faults_injected,
            inj.injected(),
            "seed={seed}: one injector, each fault counted once"
        );
        assert!(
            t.faults_observed >= reported_faults && t.retries >= reported_retries,
            "seed={seed}: firings' own tallies dropped: observed {} < {reported_faults} \
             or retries {} < {reported_retries}",
            t.faults_observed,
            t.retries
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Satellite invariant: for *any* seeded plan, a run that the ladder
    /// completes is bit-identical to the fault-free run of the variant
    /// that completed; a run the ladder cannot complete surfaces as the
    /// typed `Error::LaunchFailed`, never a panic or corrupt output.
    #[test]
    fn any_seeded_plan_recovers_bit_identical(seed in any::<u64>(), rate in 0.05f64..0.5) {
        let device = DeviceSpec::tesla_c2050();
        let case = reduce_case();
        let compiled = compiled_for(&case, &device);
        let x = case.sizes[0];
        let input = data((case.items)(x), seed);
        let baselines = variant_baselines(&compiled, x, &input, &[]);
        let kmu = KernelManager::new(compiled);
        let plan = FaultPlan::new(seed).with_rate(rate);
        match kmu.run(x, &input, &[], RunOptions::serial(ExecMode::Full).with_faults(&plan)) {
            Ok(rep) => assert_bit_identical(&format!("seed={seed} rate={rate}"), &rep, &baselines),
            Err(e) => prop_assert!(
                matches!(e, Error::LaunchFailed { .. }),
                "only the typed launch failure may escape: {e}"
            ),
        }
    }
}

/// Serving-plane storm: a misbehaving tenant (quota-busting arrival rate
/// plus 100% fault injection on every request it lands) shares devices
/// with a well-behaved tenant. The plane must confine the blast radius:
///
/// * **No quarantine bleed** — the storm trips only its own breakers;
///   the well-behaved tenant's telemetry shows zero quarantines and
///   zero observed faults.
/// * **Exactly-once accounting** — per tenant, every admitted request
///   resolves to exactly one of completed/failed/shed, and the fleet
///   rollup sums tenant tallies without double-counting.
/// * **Bounded interference** — the well-behaved tenant's closed-loop
///   p99 latency under the storm stays within 25% of its solo baseline
///   (plus a small absolute floor so scheduler jitter on a loaded CI
///   host cannot fail the isolation claim; genuine bleed — storm
///   ladders monopolising the workers — costs far more than the floor).
#[test]
fn tenant_storm_cannot_bleed_across_the_serving_plane() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    use adaptic_repro::adaptic::InputAxis;
    use adaptic_repro::apps::programs;
    use adaptic_repro::serve::{Outcome, Request, Server, ServerConfig, TenantPolicy};

    let seed = *chaos_seeds().last().unwrap();
    let program = programs::sasum().program;
    let axis = InputAxis::total_size("N", 256, 1 << 14);
    let server = Server::start(ServerConfig {
        workers: 4,
        global_queue_cap: 512,
        ..ServerConfig::default()
    });

    // Well-behaved: effectively unmetered, heavier fair-share weight.
    // Storm: a trickle quota (so the quota-busting loop is mostly turned
    // away at the door), hair-trigger breakers, and a retry budget so
    // each hopeless all-faults ladder dies in bounded wall-clock time.
    server
        .register_tenant(
            "well",
            &program,
            &axis,
            TenantPolicy::default()
                .with_weight(4.0)
                .with_quota(100_000.0, 0.0),
        )
        .expect("well tenant registers");
    server
        .register_tenant(
            "storm",
            &program,
            &axis,
            TenantPolicy::default()
                .with_quota(2.0, 10.0)
                .with_retry(RetryPolicy {
                    max_attempts: 2,
                    backoff_base_us: 10,
                    backoff_cap_us: 50,
                    deadline_us: 1_000,
                })
                .with_quarantine(2, 64),
        )
        .expect("storm tenant registers");

    let x = 4096i64;
    let input = Arc::new(data(x as usize, seed));
    let run_well = |n: usize| -> Vec<u64> {
        (0..n)
            .map(|i| {
                let t0 = server.now_us();
                let ticket = server
                    .submit("well", Request::new(x, Arc::clone(&input)))
                    .unwrap_or_else(|r| panic!("well request {i} rejected: {r:?}"));
                match ticket.wait() {
                    Outcome::Completed(c) => c.finished_at_us.saturating_sub(t0),
                    other => panic!("well request {i} did not complete: {other:?}"),
                }
            })
            .collect()
    };
    fn p99(lat: &mut [u64]) -> u64 {
        lat.sort_unstable();
        lat[(lat.len() * 99).div_ceil(100) - 1]
    }

    // Phase A: solo baseline for the well-behaved tenant. 300 samples,
    // so the p99 tolerates three scheduler-jitter outliers per phase.
    let mut solo = run_well(300);

    // Phase B: the same closed loop while the storm hammers the plane.
    // The storm injects `LaunchReject` only: with `RUST_BACKTRACE` set, a
    // `MidBlockPanic` storm would spend more CPU symbolising panic
    // backtraces than serving, drowning the latency signal this phase
    // measures. The rest of the suite covers the full fault taxonomy.
    let plan: Arc<dyn FaultInjector + Send + Sync> = Arc::new(
        FaultPlan::new(seed)
            .with_rate(1.0)
            .with_kinds(vec![FaultKind::LaunchReject]),
    );
    let p99_solo = p99(&mut solo).max(1);
    let bound = (p99_solo + p99_solo / 4).max(p99_solo + 3_000);
    let stop = AtomicBool::new(false);
    let mut p99_storm = u64::MAX;
    let mut well_phases = 1u64; // phase A already ran
    std::thread::scope(|scope| {
        let storm = scope.spawn(|| {
            let mut tickets = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                if let Ok(t) = server.submit(
                    "storm",
                    Request::new(x, Arc::clone(&input)).with_faults(Arc::clone(&plan)),
                ) {
                    tickets.push(t);
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            tickets
        });
        // A genuine cross-tenant bleed is systematic — it shows up in
        // every repetition — while a one-core host preempting the
        // measurement loop is transient. Take the best of up to three
        // storm-phase measurements so scheduler jitter cannot flake the
        // isolation assertion without masking a real regression.
        for _ in 0..3 {
            well_phases += 1;
            let mut stormy = run_well(300);
            p99_storm = p99_storm.min(p99(&mut stormy));
            if p99_storm <= bound {
                break;
            }
        }
        stop.store(true, Ordering::Relaxed);
        // Resolve every storm ticket so the counters are settled before
        // the assertions read them.
        for t in storm.join().unwrap() {
            let _ = t.wait();
        }
    });

    let well = server.tenant_telemetry("well").expect("well telemetry");
    let storm = server.tenant_telemetry("storm").expect("storm telemetry");

    // No cross-tenant bleed: the storm trips only its own breakers.
    assert_eq!(well.quarantines, 0, "well-behaved breakers must not trip");
    assert_eq!(well.faults_observed, 0, "no fault may leak across tenants");
    assert!(
        storm.faults_observed > 0,
        "the storm never actually injected"
    );
    assert!(
        storm.quarantines > 0,
        "100% faults must trip the storm's own breakers"
    );
    assert!(
        storm.rejected_quota > 0,
        "the quota-busting loop must be turned away at the bucket"
    );

    // Exactly-once accounting per admitted request, per tenant.
    let (well_done, well_failed, well_shed) = server
        .counters("well", |c| (c.completed(), c.failed(), c.shed_deadline()))
        .expect("well counters");
    let expected = 300 * well_phases;
    assert_eq!(well.admitted, expected, "closed-loop phases of 300 each");
    assert_eq!((well_done, well_failed, well_shed), (expected, 0, 0));
    let (storm_admitted, storm_done, storm_failed, storm_shed) = server
        .counters("storm", |c| {
            (c.admitted(), c.completed(), c.failed(), c.shed_deadline())
        })
        .expect("storm counters");
    assert!(storm_admitted > 0, "the storm must land at least its burst");
    assert!(
        storm_failed > 0,
        "all-faults requests must surface as failures"
    );
    assert_eq!(
        storm_admitted,
        storm_done + storm_failed + storm_shed,
        "every admitted storm request resolves exactly once"
    );

    // The rollup sums tenant tallies without double-counting.
    let roll = server.rollup().expect("rollup");
    assert_eq!(roll.admitted, well.admitted + storm.admitted);
    assert_eq!(roll.quarantines, storm.quarantines);
    assert_eq!(roll.rejected_quota, storm.rejected_quota);

    // Bounded interference on the well-behaved tenant's p99.
    assert!(
        p99_storm <= bound,
        "storm moved well-behaved p99 {p99_solo}us -> {p99_storm}us (bound {bound}us)"
    );
}
