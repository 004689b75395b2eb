//! Dynamic-rate regions: the runtime half of dynamic-rate support.
//!
//! `streamir` lets actors declare a rate parameter as *dynamic* over an
//! interval ([`RateInterval`]). That declaration is the range of input
//! sizes the paper compiles for: a [`DynamicRegion`] plans the program
//! over the whole declared interval **once** and lets its
//! [`KernelManager`] pick a variant per firing, exactly as for a static
//! input axis. Nothing is re-planned at run time.
//!
//! A firing whose rate lies outside the declaration never fails and is
//! never dropped: it is served through the plan's clamped variant
//! selection (possibly mis-tuned, always correct) and counted once in
//! [`DynamicRegion::clamped_runs`] and once in the `rate_exits` telemetry
//! row, so `launches + clamped_runs == firings` always holds.

use std::sync::Arc;

use gpu_sim::DeviceSpec;
use streamir::error::{Error, Result};
use streamir::rates::RateInterval;
use streamir::schedule::merged_rate_intervals;
use streamir::Program;

use crate::artifact::ArtifactStore;
use crate::kmu::KernelManager;
use crate::plan::{compile_with_options, compile_with_store, CompileOptions, InputAxis};
use crate::runtime::{ExecutionReport, RunOptions, StateBinding};
use crate::telemetry::TelemetrySnapshot;

/// A region's planning policy. It has no settings, since a region plans
/// its declared interval once; the type is kept only because the repo
/// benchmark (`perfbench/src/layers.rs`) passes `ReschedPolicy::default()`
/// to [`DynamicRegion::new`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ReschedPolicy;

/// One dynamic-rate program at runtime: a plan over the declared rate
/// interval and the [`KernelManager`] running it.
#[derive(Debug)]
pub struct DynamicRegion {
    declared: RateInterval,
    kmu: KernelManager,
    /// Firings served through clamped selection because their rate was
    /// outside the declared interval.
    clamped_runs: u64,
    /// Wall-clock µs the one plan took to build (or to load from the
    /// store).
    plan_wall_us: f64,
}

impl DynamicRegion {
    /// Plan `program` over its declared rate interval on `device`.
    ///
    /// The program must declare exactly one dynamic rate parameter (see
    /// [`streamir::ActorDef::with_rate_interval`]); its merged declared
    /// interval is the plan's input axis. With a `store`, the plan
    /// resolves through [`crate::compile_with_store`] and learned KMU
    /// state warm-starts from it. `policy` and `initial_rate` are ignored:
    /// the plan does not depend on the rate the region starts at.
    ///
    /// # Errors
    ///
    /// [`Error::Semantic`] unless exactly one dynamic parameter is
    /// declared; otherwise whatever compilation returns.
    pub fn new(
        program: &Program,
        device: &DeviceSpec,
        options: CompileOptions,
        _policy: ReschedPolicy,
        _initial_rate: i64,
        store: Option<Arc<ArtifactStore>>,
    ) -> Result<DynamicRegion> {
        let mut dynamic = merged_rate_intervals(program)?;
        let (param, declared) = match dynamic.len() {
            1 => dynamic.pop_first().expect("len checked"),
            0 => {
                return Err(Error::Semantic(
                    "dynamic region needs a dynamic rate declaration \
                     (ActorDef::with_rate_interval)"
                        .into(),
                ))
            }
            n => {
                return Err(Error::Semantic(format!(
                    "dynamic region must be governed by exactly one rate \
                     parameter, found {n}"
                )))
            }
        };
        let t = std::time::Instant::now();
        let axis = InputAxis::total_size(&param, declared.lo, declared.hi);
        let kmu = match store {
            Some(store) => {
                let compiled = compile_with_store(program, device, &axis, options, &store)?;
                KernelManager::new(compiled).with_artifacts(store)
            }
            None => KernelManager::new(compile_with_options(program, device, &axis, options)?),
        };
        Ok(DynamicRegion {
            declared,
            kmu,
            clamped_runs: 0,
            plan_wall_us: t.elapsed().as_secs_f64() * 1e6,
        })
    }

    /// Run one firing at rate `x`.
    ///
    /// Firings inside the declared interval go through the
    /// [`KernelManager`] (table selection, degradation ladder, quarantine).
    /// A firing outside it is served through the plan's clamped variant
    /// selection — executed at the real `x`, so outputs are exact — and
    /// counted in `clamped_runs` and `rate_exits`, with the manager
    /// counting the firing's retries and faults.
    ///
    /// # Errors
    ///
    /// The run errors of [`KernelManager::run`] /
    /// [`crate::CompiledProgram::run_opts`].
    pub fn run(
        &mut self,
        x: i64,
        input: &[f32],
        state: &[StateBinding],
        opts: RunOptions<'_>,
    ) -> Result<ExecutionReport> {
        if self.declared.contains(x) {
            return self.kmu.run(x, input, state, opts);
        }
        self.clamped_runs += 1;
        let kmu = &self.kmu;
        kmu.tally_rate_exit();
        let program = kmu.program();
        let result = match program.run_opts(x, input, state, opts, None) {
            // Same degraded-but-correct last resort as the manager's
            // ladder. Variant fallback is unavailable here — a forced
            // variant rejects out-of-axis `x` by contract.
            Err(e @ Error::LaunchFailed { .. }) => {
                kmu.tally_failure(&e, opts);
                program.run_opts(x, input, state, opts.degraded(), None)
            }
            other => other,
        };
        match &result {
            Ok(report) => kmu.tally_report(report, opts),
            Err(e) => kmu.tally_failure(e, opts),
        }
        let mut report = result?;
        report.telemetry = Some(kmu.telemetry());
        Ok(report)
    }

    /// The manager's telemetry. `reschedules` is always 0.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.kmu.telemetry()
    }

    /// The manager (plan, table, learned state).
    pub fn manager(&self) -> &KernelManager {
        &self.kmu
    }

    /// Firings served through clamped selection (rate outside the
    /// declared interval).
    pub fn clamped_runs(&self) -> u64 {
        self.clamped_runs
    }

    /// Re-plans: always 0, since the region plans once. Kept for the repo
    /// benchmark's `reschedules` row.
    pub fn reschedules(&self) -> u64 {
        0
    }

    /// Wall-clock µs spent planning.
    pub fn plan_wall_us(&self) -> f64 {
        self.plan_wall_us
    }

    /// Persist the manager's learned state to the attached store (no-op
    /// without one).
    pub fn persist_learned(&self) -> std::result::Result<(), crate::artifact::ArtifactError> {
        self.kmu.persist_learned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::ExecMode;
    use streamir::parse::parse_program;

    fn iv(lo: i64, hi: i64) -> RateInterval {
        RateInterval::new(lo, hi).unwrap()
    }

    const DYN_SUM: &str = r#"pipeline DynSum(N) {
        actor Sum(pop N, push 1) {
            acc = 0.0;
            for i in 0..N { acc = acc + pop(); }
            push(acc);
        }
    }"#;

    fn dyn_sum_program(lo: i64, hi: i64) -> Program {
        let mut p = parse_program(DYN_SUM).unwrap();
        let a = p.actors.iter_mut().find(|a| a.name == "Sum").unwrap();
        a.dyn_rates.insert("N".into(), iv(lo, hi));
        p
    }

    fn region(p: &Program) -> DynamicRegion {
        let dev = DeviceSpec::tesla_c2050();
        let policy = ReschedPolicy;
        DynamicRegion::new(p, &dev, CompileOptions::baseline(), policy, 256, None).unwrap()
    }

    #[test]
    fn region_requires_exactly_one_dynamic_param() {
        let p = parse_program(DYN_SUM).unwrap();
        let dev = DeviceSpec::tesla_c2050();
        let err = DynamicRegion::new(
            &p,
            &dev,
            CompileOptions::baseline(),
            ReschedPolicy,
            256,
            None,
        );
        assert!(matches!(err, Err(Error::Semantic(_))));
    }

    #[test]
    fn region_plans_the_declared_interval_once_and_clamps_outside_it() {
        let mut region = region(&dyn_sum_program(64, 1 << 16));
        assert_eq!(region.manager().program().axis_range(), (64, 1 << 16));
        let opts = RunOptions::serial(ExecMode::SampledStats(32));
        let input: Vec<f32> = (0..1 << 17).map(|i| (i % 7) as f32).collect();

        // A regime flip inside the declaration: every firing goes through
        // the manager on the one plan.
        for x in [256, 256, 1 << 16, 1 << 16, 256] {
            let slice = &input[..x as usize];
            let rep = region.run(x, slice, &[], opts).unwrap();
            let expected: f32 = slice.iter().sum();
            assert!((rep.output[0] - expected).abs() / expected.abs() < 1e-3);
        }
        assert_eq!((region.reschedules(), region.clamped_runs()), (0, 0));

        // Outside the declaration, both ways: clamp-served, exact, counted
        // once as a clamp and once as a rate exit.
        for x in [32, 1 << 17] {
            let slice = &input[..x as usize];
            let rep = region.run(x, slice, &[], opts).unwrap();
            let expected: f32 = slice.iter().sum();
            assert!((rep.output[0] - expected).abs() / expected.abs() < 1e-3);
            assert_eq!(rep.telemetry.unwrap().rate_exits, region.clamped_runs());
        }
        let t = region.telemetry();
        assert_eq!((t.rate_exits, t.reschedules), (2, 0));
        assert_eq!(region.clamped_runs(), 2);
        assert_eq!(t.launches + region.clamped_runs(), 7);
    }

    #[test]
    fn one_plan_covers_the_static_stages_too() {
        const SRC: &str = r#"pipeline Mix(N) {
            actor Scale(pop 1, push 1) {
                x = pop();
                push(x * 2.0);
            }
            actor Sum(pop N, push 1) {
                acc = 0.0;
                for i in 0..N { acc = acc + pop(); }
                push(acc);
            }
        }"#;
        let mut p = parse_program(SRC).unwrap();
        let a = p.actors.iter_mut().find(|a| a.name == "Sum").unwrap();
        a.dyn_rates.insert("N".into(), iv(64, 1 << 18));

        let mut region = region(&p);
        let opts = RunOptions::serial(ExecMode::SampledStats(32));
        let input: Vec<f32> = (0..1 << 16).map(|i| (i % 5) as f32).collect();
        for x in [256, 256, 1 << 15, 1 << 15, 1 << 16] {
            let slice = &input[..x as usize];
            let rep = region.run(x, slice, &[], opts).unwrap();
            let expected: f32 = slice.iter().map(|v| v * 2.0).sum();
            assert!((rep.output[0] - expected).abs() / expected.abs() < 1e-3);
        }
        assert_eq!(region.clamped_runs(), 0);
        assert_eq!(region.telemetry().launches, 5);
    }
}
