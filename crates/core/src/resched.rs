//! Rate-conditioned re-scheduling: the runtime half of dynamic-rate
//! support.
//!
//! `streamir` lets actors declare a rate parameter as *dynamic* over an
//! interval ([`RateInterval`]) and partitions the graph into
//! rate-conditioned regions ([`streamir::schedule::partition_rate_regions`]).
//! This module plans each dynamic region against a *window* inside its
//! declared interval and keeps the plan honest at runtime:
//!
//! * a [`RateGovernor`] watches the per-firing rate against the planned
//!   window and — with hysteresis, so oscillating traffic cannot thrash —
//!   proposes a new window once the observed rate has *sustainably* left
//!   the old one;
//! * a [`DynamicRegion`] owns the region's [`KernelManager`] and swaps in
//!   a freshly planned one when the governor commits a proposal, reusing
//!   [`crate::compile_with_store`] so revisited regimes hit the artifact
//!   store instead of re-planning, and carrying learned KMU state across
//!   the swap through the same store;
//! * a [`DynamicPipeline`] splits a program along its region partition and
//!   re-schedules **only the affected region** — static regions keep their
//!   plan for the life of the pipeline.
//!
//! Windows are quantized to powers of two around the observed rate, so a
//! regime that recurs proposes the *same* window every time — the same
//! content hash, and therefore a plan-artifact hit on every revisit.
//!
//! Firings whose rate is outside the current window never fail and are
//! never dropped: they are served through the current plan's clamped
//! variant selection (possibly mis-tuned, always correct) while the
//! governor decides whether the traffic shift is real.

use std::collections::BTreeSet;
use std::sync::Arc;

use gpu_sim::DeviceSpec;
use streamir::error::{Error, Result};
use streamir::graph::StreamNode;
use streamir::rates::RateInterval;
use streamir::schedule::merged_rate_intervals;
use streamir::Program;

use crate::artifact::ArtifactStore;
use crate::kmu::KernelManager;
use crate::plan::{compile_with_options, compile_with_store, CompileOptions, InputAxis};
use crate::runtime::{ExecutionReport, RunOptions, StateBinding};
use crate::telemetry::TelemetrySnapshot;

/// Hysteresis policy of the rate governor: when does a window exit become
/// a re-plan?
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReschedPolicy {
    /// Consecutive out-of-window firings required before a re-plan is
    /// proposed. A single outlier (or an oscillation that re-enters the
    /// window) resets the streak and never re-plans.
    pub exit_streak: u32,
    /// Minimum firings between two committed re-plans. Even a sustained
    /// exit immediately after a re-plan waits this long — the second half
    /// of the thrash protection.
    pub cooldown: u64,
    /// Geometric half-width of a proposed window: the window spans
    /// `[rate / spread, rate * spread]` (power-of-two quantized) around
    /// the smoothed exit rate. Must be >= 1.
    pub spread: f64,
    /// EWMA weight of the newest sample when smoothing the exit rate a
    /// proposal centers on (in `(0, 1]`).
    pub alpha: f64,
}

impl Default for ReschedPolicy {
    fn default() -> Self {
        ReschedPolicy {
            exit_streak: 3,
            cooldown: 8,
            spread: 4.0,
            alpha: 0.5,
        }
    }
}

/// What one observed firing did to the governor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateEvent {
    /// The firing's rate was outside the planned window.
    pub exited: bool,
    /// A new window the caller should re-plan against — set only when the
    /// exit streak and cooldown thresholds are both met.
    pub proposal: Option<RateInterval>,
}

/// Pure per-region state machine deciding *when* to re-plan and against
/// *which* window. Deterministic: its decisions depend only on the
/// observed rate sequence and the policy, never on time or randomness.
#[derive(Debug, Clone)]
pub struct RateGovernor {
    declared: RateInterval,
    window: RateInterval,
    policy: ReschedPolicy,
    /// Consecutive out-of-window firings (resets on any in-window firing).
    streak: u32,
    /// EWMA of the rates seen during the current exit streak.
    streak_mean: f64,
    /// Firings since the last committed re-plan.
    since_commit: u64,
    observations: u64,
    exits: u64,
    commits: u64,
}

impl RateGovernor {
    /// Govern `declared` with `policy`, starting from the window planned
    /// for `initial_rate` (see [`RateGovernor::window_for`]).
    pub fn new(declared: RateInterval, initial_rate: i64, policy: ReschedPolicy) -> RateGovernor {
        let mut g = RateGovernor {
            declared,
            window: declared,
            policy,
            streak: 0,
            streak_mean: 0.0,
            // No commit has happened yet, so no cooldown is pending.
            since_commit: policy.cooldown,
            observations: 0,
            exits: 0,
            commits: 0,
        };
        g.window = g.window_for(initial_rate as f64);
        g
    }

    /// The currently planned window.
    pub fn window(&self) -> RateInterval {
        self.window
    }

    /// The declared interval the window always stays inside.
    pub fn declared(&self) -> RateInterval {
        self.declared
    }

    /// The governing policy.
    pub fn policy(&self) -> ReschedPolicy {
        self.policy
    }

    /// Firings observed so far.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Firings whose rate was outside the window at observation time.
    pub fn exits(&self) -> u64 {
        self.exits
    }

    /// Committed re-plans.
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// The power-of-two quantized window for a rate: the smallest
    /// `[2^a, 2^b]` window containing `[rate / spread, rate * spread]`,
    /// clamped into the declared interval. Quantization makes the mapping
    /// from traffic regime to window (and so to plan content hash)
    /// deterministic and coarse — recurring regimes re-propose identical
    /// windows, which re-plans resolve from the artifact store.
    pub fn window_for(&self, rate: f64) -> RateInterval {
        let rate = rate.clamp(self.declared.lo as f64, self.declared.hi as f64);
        let spread = self.policy.spread.max(1.0);
        let lo = pow2_floor(rate / spread).max(self.declared.lo);
        let hi = pow2_ceil(rate * spread).min(self.declared.hi);
        if lo > hi {
            // Degenerate declared interval (narrower than one quantum).
            return self.declared;
        }
        RateInterval { lo, hi }
    }

    /// Feed one observed firing rate through the governor.
    ///
    /// In-window firings reset the exit streak. Out-of-window firings
    /// extend it; once the streak reaches `policy.exit_streak` *and* at
    /// least `policy.cooldown` firings have passed since the last commit,
    /// the event carries a window proposal. The governor itself does not
    /// switch windows — the caller re-plans and then calls
    /// [`RateGovernor::commit`], so a failed re-plan leaves the governor
    /// ready to re-propose.
    pub fn observe(&mut self, rate: i64) -> RateEvent {
        self.observations += 1;
        self.since_commit = self.since_commit.saturating_add(1);
        if self.window.contains(rate) {
            self.streak = 0;
            return RateEvent {
                exited: false,
                proposal: None,
            };
        }
        self.exits += 1;
        self.streak_mean = if self.streak == 0 {
            rate as f64
        } else {
            self.policy.alpha * rate as f64 + (1.0 - self.policy.alpha) * self.streak_mean
        };
        self.streak = self.streak.saturating_add(1);
        let armed = self.streak >= self.policy.exit_streak.max(1)
            && self.since_commit >= self.policy.cooldown;
        let proposal = if armed {
            let w = self.window_for(self.streak_mean);
            // A proposal identical to the current window would re-plan to
            // the same plan — suppress it (the rate is outside even the
            // declared interval's best window; clamped serving handles it).
            (w != self.window).then_some(w)
        } else {
            None
        };
        RateEvent {
            exited: true,
            proposal,
        }
    }

    /// Record that the caller re-planned against `window`. Resets the exit
    /// streak and starts a new cooldown period.
    pub fn commit(&mut self, window: RateInterval) {
        self.window = window;
        self.streak = 0;
        self.since_commit = 0;
        self.commits += 1;
    }
}

/// Largest power of two `<= v` (at least 1).
fn pow2_floor(v: f64) -> i64 {
    let v = v.max(1.0).min(2f64.powi(62));
    1i64 << (v.log2().floor() as u32).min(62)
}

/// Smallest power of two `>= v` (at least 1).
fn pow2_ceil(v: f64) -> i64 {
    let v = v.max(1.0).min(2f64.powi(62));
    1i64 << (v.log2().ceil() as u32).min(62)
}

/// One dynamic region at runtime: a compiled plan conditioned on a rate
/// window, a [`KernelManager`] running it, and a [`RateGovernor`] deciding
/// when to throw both away and re-plan.
///
/// Telemetry is cumulative across re-plans: snapshots of retired managers
/// are folded into every [`DynamicRegion::telemetry`] result, with
/// `reschedules` read from the region itself. The managers replace one
/// another and read one store and the caller's one injector, so the fold
/// treats them as sharing their sources: each fault is counted once.
#[derive(Debug)]
pub struct DynamicRegion {
    program: Program,
    device: DeviceSpec,
    options: CompileOptions,
    store: Option<Arc<ArtifactStore>>,
    /// The single dynamic parameter governing this region's rates.
    param: String,
    governor: RateGovernor,
    kmu: KernelManager,
    /// Folded telemetry of managers retired by re-plans.
    retired: TelemetrySnapshot,
    reschedules: u64,
    /// Firings served through clamped selection because their rate was
    /// outside the current plan's window.
    clamped_runs: u64,
    /// Wall-clock µs spent planning (initial compile plus every re-plan),
    /// so callers can charge re-scheduling overhead against its payoff.
    plan_wall_us: f64,
    /// Recalibration hysteresis override, applied to the live manager and
    /// every re-planned one (tests freeze it for replay determinism).
    hysteresis: Option<perfmodel::Hysteresis>,
}

impl DynamicRegion {
    /// Plan `program` for the window around `initial_rate` on `device`.
    ///
    /// The program must declare exactly one dynamic rate parameter (see
    /// [`streamir::ActorDef::with_rate_interval`]); its merged declared
    /// interval bounds every window this region will ever plan against.
    /// With a `store`, plans are resolved through
    /// [`crate::compile_with_store`] and learned KMU state is persisted at
    /// each swap — revisited regimes warm-start from disk.
    ///
    /// # Errors
    ///
    /// [`Error::Semantic`] unless exactly one dynamic parameter is
    /// declared; otherwise whatever compilation returns.
    pub fn new(
        program: &Program,
        device: &DeviceSpec,
        options: CompileOptions,
        policy: ReschedPolicy,
        initial_rate: i64,
        store: Option<Arc<ArtifactStore>>,
    ) -> Result<DynamicRegion> {
        let dynamic = merged_rate_intervals(program)?;
        let (param, declared) = match dynamic.len() {
            1 => {
                let (p, iv) = dynamic.into_iter().next().expect("len checked");
                (p, iv)
            }
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
        let governor = RateGovernor::new(declared, initial_rate, policy);
        let t = std::time::Instant::now();
        let kmu = plan_manager(
            program,
            device,
            options,
            store.as_ref(),
            &param,
            governor.window(),
        )?;
        let plan_wall_us = t.elapsed().as_secs_f64() * 1e6;
        Ok(DynamicRegion {
            program: program.clone(),
            device: device.clone(),
            options,
            store,
            param,
            governor,
            kmu,
            retired: TelemetrySnapshot::default(),
            reschedules: 0,
            clamped_runs: 0,
            plan_wall_us,
            hysteresis: None,
        })
    }

    /// Pin the recalibration hysteresis of the live manager and of every
    /// manager a future re-plan installs. Tests freeze it
    /// (`min_rel_shift: INFINITY`) so wall-clock measurement noise cannot
    /// move variant boundaries between replays.
    pub fn with_kmu_hysteresis(mut self, hysteresis: perfmodel::Hysteresis) -> DynamicRegion {
        self.hysteresis = Some(hysteresis);
        self.kmu.set_hysteresis(hysteresis);
        self
    }

    /// Compile the region's program for `window` and wrap it in a manager
    /// declaring that window as its rate window.
    fn build_manager(&self, window: RateInterval) -> Result<KernelManager> {
        let mut kmu = plan_manager(
            &self.program,
            &self.device,
            self.options,
            self.store.as_ref(),
            &self.param,
            window,
        )?;
        if let Some(h) = self.hysteresis {
            kmu.set_hysteresis(h);
        }
        Ok(kmu)
    }

    /// Retire the current manager and install one planned for `window`.
    /// On a compile error the current plan stays; the governor is not
    /// committed, so the next sustained exit re-proposes.
    fn replan(&mut self, window: RateInterval) -> Result<()> {
        let t = std::time::Instant::now();
        let next = self.build_manager(window)?;
        self.plan_wall_us += t.elapsed().as_secs_f64() * 1e6;
        let _ = self.kmu.persist_learned();
        self.retired.merge(&self.kmu.telemetry(), true);
        self.kmu = next;
        self.governor.commit(window);
        self.reschedules += 1;
        Ok(())
    }

    /// Run one firing at rate `x`.
    ///
    /// The governor observes `x` first; if that makes a window proposal,
    /// the region re-plans *before* serving the firing. In-window firings
    /// go through the [`KernelManager`] (recalibration, degradation
    /// ladder, quarantine). Out-of-window firings are served through the
    /// current plan's clamped variant selection — executed at the real
    /// `x`, so outputs are exact — and tallied in `clamped_runs`, with the
    /// manager counting the `rate_exits` telemetry event and the firing's
    /// retries and faults.
    ///
    /// # Errors
    ///
    /// Re-plan compile errors and the run errors of
    /// [`KernelManager::run`] / [`crate::CompiledProgram::run_opts`].
    pub fn run(
        &mut self,
        x: i64,
        input: &[f32],
        state: &[StateBinding],
        opts: RunOptions<'_>,
    ) -> Result<ExecutionReport> {
        let event = self.governor.observe(x);
        if let Some(window) = event.proposal {
            self.replan(window)?;
        }
        let (lo, hi) = self.kmu.program().axis_range();
        let mut report = if x >= lo && x <= hi {
            self.kmu.run(x, input, state, opts)?
        } else {
            // Outside the plan's axis: the manager cannot admit it, so
            // tally the rate exit and serve the firing through clamped
            // selection on the same compiled program.
            self.clamped_runs += 1;
            let kmu = &self.kmu;
            kmu.tally_rate_exit(x);
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
            result?
        };
        if let Some(t) = &mut report.telemetry {
            self.fold_region_counters(t);
        } else {
            report.telemetry = Some(self.telemetry());
        }
        Ok(report)
    }

    /// Cumulative telemetry: retired managers' snapshots folded into the
    /// live manager's, with region-level counters patched in. The
    /// boundaries and quarantine list are the *live* table's.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        let mut snap = self.kmu.telemetry();
        self.fold_region_counters(&mut snap);
        snap
    }

    fn fold_region_counters(&self, snap: &mut TelemetrySnapshot) {
        // The live table's state survives the merge, which drops it.
        let boundaries = std::mem::take(&mut snap.boundaries);
        let quarantined = std::mem::take(&mut snap.quarantined_variants);
        snap.merge(&self.retired, true);
        snap.boundaries = boundaries;
        snap.quarantined_variants = quarantined;
        snap.reschedules = self.reschedules;
    }

    /// The live manager (plan, table, learned state of the current window).
    pub fn manager(&self) -> &KernelManager {
        &self.kmu
    }

    /// The rate governor (window, streak/cooldown state, counters).
    pub fn governor(&self) -> &RateGovernor {
        &self.governor
    }

    /// The dynamic parameter governing this region.
    pub fn param(&self) -> &str {
        &self.param
    }

    /// Firings served through clamped selection (rate outside the plan).
    pub fn clamped_runs(&self) -> u64 {
        self.clamped_runs
    }

    /// Committed re-plans.
    pub fn reschedules(&self) -> u64 {
        self.reschedules
    }

    /// Wall-clock µs spent planning so far (initial compile + re-plans).
    pub fn plan_wall_us(&self) -> f64 {
        self.plan_wall_us
    }

    /// Persist the live manager's learned state to the attached store
    /// (no-op without one).
    pub fn persist_learned(&self) -> std::result::Result<(), crate::artifact::ArtifactError> {
        self.kmu.persist_learned()
    }
}

/// Compile `program` for `window` on `device` and wrap the plan in a
/// [`KernelManager`] declaring that window as its rate window. With a
/// store, the plan resolves content-addressed and learned KMU state
/// warm-starts from disk.
fn plan_manager(
    program: &Program,
    device: &DeviceSpec,
    options: CompileOptions,
    store: Option<&Arc<ArtifactStore>>,
    param: &str,
    window: RateInterval,
) -> Result<KernelManager> {
    let axis = InputAxis::total_size(param, window.lo, window.hi);
    let compiled = match store {
        Some(store) => compile_with_store(program, device, &axis, options, store)?,
        None => compile_with_options(program, device, &axis, options)?,
    };
    let mut kmu = KernelManager::new(compiled).with_rate_window(window.lo, window.hi);
    if let Some(store) = store {
        kmu = kmu.with_artifacts(Arc::clone(store));
    }
    Ok(kmu)
}

/// One stage of a [`DynamicPipeline`].
#[derive(Debug)]
enum Stage {
    /// Rate-static: planned once over the declared interval, never
    /// re-planned. Selection still adapts per firing via clamped lookup.
    Static {
        program: Program,
        compiled: Box<crate::plan::CompiledProgram>,
    },
    /// Rate-dynamic: owns a [`DynamicRegion`].
    Dynamic {
        program: Program,
        region: Box<DynamicRegion>,
    },
}

/// The report of one [`DynamicPipeline`] firing: the final output plus
/// each stage's execution report, in pipeline order.
#[derive(Debug)]
pub struct PipelineReport {
    /// Output of the last stage.
    pub output: Vec<f32>,
    /// Per-stage reports, in pipeline order.
    pub stages: Vec<ExecutionReport>,
}

/// A program split along its rate-region partition: consecutive top-level
/// pipeline children with the same dynamic-rate dependence form one stage.
/// Dynamic stages re-plan independently through their own
/// [`DynamicRegion`]; static stages are planned exactly once — a rate
/// regime change re-schedules **only the affected region**.
#[derive(Debug)]
pub struct DynamicPipeline {
    stages: Vec<Stage>,
}

impl DynamicPipeline {
    /// Split `program` into rate-conditioned stages and plan each.
    ///
    /// All dynamic stages must be governed by the same single parameter
    /// (the one whose per-firing value [`DynamicPipeline::run`] takes).
    ///
    /// # Errors
    ///
    /// [`Error::Semantic`] when dynamic declarations are missing or
    /// involve more than one parameter; otherwise compile errors.
    pub fn new(
        program: &Program,
        device: &DeviceSpec,
        options: CompileOptions,
        policy: ReschedPolicy,
        initial_rate: i64,
        store: Option<Arc<ArtifactStore>>,
    ) -> Result<DynamicPipeline> {
        let dynamic = merged_rate_intervals(program)?;
        if dynamic.len() != 1 {
            return Err(Error::Semantic(format!(
                "dynamic pipeline must be governed by exactly one rate \
                 parameter, found {}",
                dynamic.len()
            )));
        }
        let (param, declared) = dynamic.into_iter().next().expect("len checked");

        let children: Vec<StreamNode> = match &program.graph {
            StreamNode::Pipeline(children) => children.clone(),
            other => vec![other.clone()],
        };
        // Group consecutive children by whether their rates depend on the
        // dynamic parameter.
        let mut groups: Vec<(bool, Vec<StreamNode>)> = Vec::new();
        for child in children {
            let dynamic_child = node_mentions_param(program, &child, &param);
            match groups.last_mut() {
                Some((d, nodes)) if *d == dynamic_child => nodes.push(child),
                _ => groups.push((dynamic_child, vec![child])),
            }
        }

        let mut stages = Vec::with_capacity(groups.len());
        for (i, (dynamic_group, nodes)) in groups.into_iter().enumerate() {
            let sub = Program {
                name: format!("{}_r{i}", program.name),
                params: program.params.clone(),
                actors: program.actors.clone(),
                graph: StreamNode::Pipeline(nodes),
            };
            if dynamic_group {
                let region =
                    DynamicRegion::new(&sub, device, options, policy, initial_rate, store.clone())?;
                stages.push(Stage::Dynamic {
                    program: sub,
                    region: Box::new(region),
                });
            } else {
                // A static stage's rates never mention the dynamic
                // parameter, so one plan over the declared interval covers
                // every regime.
                let axis = InputAxis::total_size(&param, declared.lo, declared.hi);
                let compiled = match &store {
                    Some(store) => compile_with_store(&sub, device, &axis, options, store)?,
                    None => compile_with_options(&sub, device, &axis, options)?,
                };
                stages.push(Stage::Static {
                    program: sub,
                    compiled: Box::new(compiled),
                });
            }
        }
        Ok(DynamicPipeline { stages })
    }

    /// Run one firing at rate `x` through every stage in order, feeding
    /// each stage's output to the next.
    ///
    /// # Errors
    ///
    /// The first failing stage's error.
    pub fn run(
        &mut self,
        x: i64,
        input: &[f32],
        state: &[StateBinding],
        opts: RunOptions<'_>,
    ) -> Result<PipelineReport> {
        let mut current: Vec<f32> = input.to_vec();
        let mut reports = Vec::with_capacity(self.stages.len());
        for stage in &mut self.stages {
            let report = match stage {
                Stage::Static { program, compiled } => {
                    let bound = filter_state(program, state);
                    compiled.run_opts(x, &current, &bound, opts, None)?
                }
                Stage::Dynamic { program, region } => {
                    let bound = filter_state(program, state);
                    region.run(x, &current, &bound, opts)?
                }
            };
            current = report.output.clone();
            reports.push(report);
        }
        Ok(PipelineReport {
            output: current,
            stages: reports,
        })
    }

    /// Number of stages.
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// The dynamic regions, in pipeline order.
    pub fn regions(&self) -> impl Iterator<Item = &DynamicRegion> {
        self.stages.iter().filter_map(|s| match s {
            Stage::Dynamic { region, .. } => Some(region.as_ref()),
            Stage::Static { .. } => None,
        })
    }

    /// Content hashes of the static stages' plans, in pipeline order.
    /// These never change over the pipeline's lifetime — the witness that
    /// re-scheduling touches only the affected region.
    pub fn static_plan_hashes(&self) -> Vec<u64> {
        self.stages
            .iter()
            .filter_map(|s| match s {
                Stage::Static { compiled, .. } => Some(compiled.content_hash()),
                Stage::Dynamic { .. } => None,
            })
            .collect()
    }

    /// Total committed re-plans across all dynamic regions.
    pub fn reschedules(&self) -> u64 {
        self.regions().map(DynamicRegion::reschedules).sum()
    }
}

/// Does any rate reachable from `node` mention `param`?
fn node_mentions_param(program: &Program, node: &StreamNode, param: &str) -> bool {
    fn actor_names<'a>(node: &'a StreamNode, out: &mut BTreeSet<&'a str>) {
        match node {
            StreamNode::Actor(name) => {
                out.insert(name.as_str());
            }
            StreamNode::Pipeline(children) => {
                for c in children {
                    actor_names(c, out);
                }
            }
            StreamNode::SplitJoin { branches, .. } => {
                for b in branches {
                    actor_names(b, out);
                }
            }
        }
    }
    fn weights_mention(node: &StreamNode, param: &str) -> bool {
        match node {
            StreamNode::Actor(_) => false,
            StreamNode::Pipeline(children) => children.iter().any(|c| weights_mention(c, param)),
            StreamNode::SplitJoin {
                splitter,
                branches,
                joiner,
            } => {
                let split = match splitter {
                    streamir::Splitter::Duplicate => false,
                    streamir::Splitter::RoundRobin(ws) => {
                        ws.iter().any(|w| w.params().contains(&param))
                    }
                };
                let streamir::Joiner::RoundRobin(ws) = joiner;
                split
                    || ws.iter().any(|w| w.params().contains(&param))
                    || branches.iter().any(|b| weights_mention(b, param))
            }
        }
    }
    let mut names = BTreeSet::new();
    actor_names(node, &mut names);
    let actor_rates = names.iter().any(|n| {
        program.actor(n).is_some_and(|a| {
            [&a.work.pop, &a.work.push, &a.work.peek]
                .iter()
                .any(|r| r.params().contains(&param))
        })
    });
    actor_rates || weights_mention(node, param)
}

/// State bindings restricted to actors that exist in `program`.
fn filter_state(program: &Program, state: &[StateBinding]) -> Vec<StateBinding> {
    state
        .iter()
        .filter(|b| program.actor(&b.actor).is_some())
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::ExecMode;
    use streamir::parse::parse_program;

    fn iv(lo: i64, hi: i64) -> RateInterval {
        RateInterval::new(lo, hi).unwrap()
    }

    fn policy() -> ReschedPolicy {
        ReschedPolicy {
            exit_streak: 2,
            cooldown: 3,
            spread: 2.0,
            alpha: 0.5,
        }
    }

    #[test]
    fn governor_windows_are_quantized_and_bounded() {
        let g = RateGovernor::new(iv(16, 1 << 16), 1000, ReschedPolicy::default());
        let w = g.window();
        assert!(w.lo <= 1000 && 1000 <= w.hi, "initial window covers rate");
        assert!(w.lo >= 16 && w.hi <= 1 << 16, "window inside declared");
        assert!(w.lo.count_ones() == 1 || w.lo == 16);
        assert!(w.hi.count_ones() == 1 || w.hi == 1 << 16);
        // Identical rates map to identical windows (regime determinism).
        assert_eq!(g.window_for(900.0), g.window_for(900.0));
        // Rates clamp into the declared interval.
        let tiny = g.window_for(1.0);
        assert!(tiny.lo >= 16);
    }

    #[test]
    fn governor_requires_a_sustained_exit() {
        let mut g = RateGovernor::new(iv(1, 1 << 20), 256, policy());
        let w = g.window();
        // One outlier: exit recorded, no proposal (streak 1 < 2).
        let ev = g.observe(w.hi * 8);
        assert!(ev.exited && ev.proposal.is_none());
        // Back in window: streak resets.
        assert!(!g.observe(w.lo).exited);
        let ev = g.observe(w.hi * 8);
        assert!(ev.exited && ev.proposal.is_none(), "streak restarted at 1");
        // Second consecutive exit: streak 2 and cooldown satisfied.
        let ev = g.observe(w.hi * 8);
        assert!(ev.exited);
        let proposed = ev.proposal.expect("sustained exit proposes");
        assert!(proposed.contains(w.hi * 8));
        g.commit(proposed);
        assert_eq!(g.commits(), 1);
        assert_eq!(g.window(), proposed);
    }

    #[test]
    fn governor_cooldown_blocks_immediate_replan() {
        let mut g = RateGovernor::new(iv(1, 1 << 20), 256, policy());
        let w = g.window();
        g.observe(w.hi * 16);
        let p = g.observe(w.hi * 16).proposal.expect("proposes");
        g.commit(p);
        // Rates flip straight back: exits accrue but the cooldown (3)
        // must elapse before a proposal can fire again.
        let ev1 = g.observe(w.lo);
        let ev2 = g.observe(w.lo);
        assert!(ev1.exited && ev1.proposal.is_none());
        assert!(ev2.exited && ev2.proposal.is_none(), "cooldown holds");
        let ev3 = g.observe(w.lo);
        assert!(ev3.proposal.is_some(), "cooldown elapsed");
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

    #[test]
    fn region_requires_exactly_one_dynamic_param() {
        let p = parse_program(DYN_SUM).unwrap();
        let dev = DeviceSpec::tesla_c2050();
        let err = DynamicRegion::new(
            &p,
            &dev,
            CompileOptions::baseline(),
            ReschedPolicy::default(),
            256,
            None,
        );
        assert!(matches!(err, Err(Error::Semantic(_))));
    }

    #[test]
    fn region_replans_on_regime_change_and_serves_transients_clamped() {
        let p = dyn_sum_program(64, 1 << 18);
        let dev = DeviceSpec::tesla_c2050();
        let mut region =
            DynamicRegion::new(&p, &dev, CompileOptions::baseline(), policy(), 256, None).unwrap();
        let opts = RunOptions::serial(ExecMode::SampledStats(32));
        let first_window = region.governor().window();
        let input: Vec<f32> = (0..1 << 16).map(|i| (i % 7) as f32).collect();

        // Steady small regime: no exits, no re-plans.
        for _ in 0..4 {
            let rep = region.run(256, &input[..256], &[], opts).unwrap();
            assert_eq!(rep.output.len(), 1);
        }
        assert_eq!(region.reschedules(), 0);
        assert_eq!(region.governor().exits(), 0);

        // Regime flip to large sizes: the first exits are served clamped,
        // then the governor commits a re-plan.
        let big = 1 << 16;
        for _ in 0..6 {
            let rep = region.run(big, &input[..big as usize], &[], opts).unwrap();
            let expected: f32 = input[..big as usize].iter().sum();
            assert!((rep.output[0] - expected).abs() / expected.abs() < 1e-3);
        }
        assert_eq!(region.reschedules(), 1, "one re-plan for one flip");
        assert!(region.clamped_runs() >= 1, "transients served clamped");
        assert_ne!(region.governor().window(), first_window);
        assert!(region.governor().window().contains(big));

        let t = region.telemetry();
        assert_eq!(t.reschedules, 1);
        assert!(t.rate_exits >= 1);
        // Cumulative across the swap: every firing is accounted for.
        assert_eq!(t.launches + region.clamped_runs(), 10);
    }

    #[test]
    fn pipeline_replans_only_the_affected_region() {
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

        let dev = DeviceSpec::tesla_c2050();
        let mut pipe =
            DynamicPipeline::new(&p, &dev, CompileOptions::baseline(), policy(), 256, None)
                .unwrap();
        assert_eq!(pipe.stage_count(), 2);
        let static_hashes = pipe.static_plan_hashes();
        assert_eq!(static_hashes.len(), 1);

        let opts = RunOptions::serial(ExecMode::SampledStats(32));
        let input: Vec<f32> = (0..1 << 16).map(|i| (i % 5) as f32).collect();
        for _ in 0..3 {
            pipe.run(256, &input[..256], &[], opts).unwrap();
        }
        let big = 1 << 15;
        for _ in 0..6 {
            let rep = pipe.run(big, &input[..big as usize], &[], opts).unwrap();
            let expected: f32 = input[..big as usize].iter().map(|v| v * 2.0).sum();
            assert!((rep.output[0] - expected).abs() / expected.abs() < 1e-3);
            assert_eq!(rep.stages.len(), 2);
        }
        assert_eq!(pipe.reschedules(), 1, "dynamic region re-planned once");
        assert_eq!(
            pipe.static_plan_hashes(),
            static_hashes,
            "static stage untouched by the re-schedule"
        );
    }
}
