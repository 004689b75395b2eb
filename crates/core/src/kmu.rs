//! The online kernel-management unit (§5 of the paper).
//!
//! The planner places variant boundaries where the analytical model says
//! two lowerings break even, and the [`KernelManager`] selects, for each
//! input, the variant whose compiled sub-range holds it: the table the
//! planner built is the table that runs, so selection is a pure function
//! of the axis value. Around that lookup the manager adds what a running
//! system needs — a fallback ladder, per-variant circuit breakers, a
//! sharded launch-stats cache and telemetry.
//!
//! Every launch also records measured cost (the simulated-cycle estimate
//! read back from `gpu_sim` accounting plus modelled host time) into a
//! per-variant [`VariantHistogram`]: an EWMA of `measured / predicted`
//! and the running relative error. The ratio corrects the manager's cost
//! quote ([`KernelManager::corrected_cost`]) for fleet placement and
//! admission; it never moves a boundary.
//!
//! Fallbacks never change results: every variant of the table computes
//! the same function (the conformance suite pins this bit-for-bit), so a
//! fallback only moves *time*.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use gpu_sim::{ExecMode, ShardedLaunchCache, StatsCache};
use streamir::error::{Error, Result};

use crate::artifact::{ArtifactError, ArtifactStore, LearnedState};
use crate::plan::CompiledProgram;
use crate::runtime::{ExecutionReport, RunOptions, StateBinding};
use crate::telemetry::{TelemetryCounters, TelemetrySnapshot};

/// EWMA weight of the newest measured/predicted ratio sample.
const RATIO_ALPHA: f64 = 0.3;

/// Per-variant circuit breaker: quarantines a variant whose launches keep
/// failing, so selection stops feeding inputs to a lowering the device
/// currently cannot run.
///
/// Time is the manager's *logical clock* (one tick per
/// [`KernelManager::run`]), not wall time — deterministic under fault
/// injection, and a quarantined variant is re-probed after a bounded
/// number of subsequent runs rather than a wall-clock timeout.
///
/// States: **closed** (`open_until == 0`, healthy), **open**
/// (`tick < open_until`, quarantined — never selected), **half-open**
/// (`open_until != 0 && tick >= open_until` — the next selection is a
/// probe: success re-admits the variant, failure re-opens it with a
/// doubled window).
#[derive(Debug, Clone, Default)]
struct Breaker {
    /// Launch failures since the last success (closed state only).
    consecutive_failures: u32,
    /// Logical tick at which quarantine ends; 0 = not tripped.
    open_until: u64,
    /// Window applied at the last trip (doubles while probes keep failing).
    window: u64,
}

impl Breaker {
    fn is_open(&self, tick: u64) -> bool {
        tick < self.open_until
    }

    fn is_half_open(&self, tick: u64) -> bool {
        self.open_until != 0 && tick >= self.open_until
    }

    /// Record a successful launch. Returns `true` when this was a
    /// half-open probe succeeding (the variant is re-admitted).
    fn record_success(&mut self) -> bool {
        let readmitted = self.open_until != 0;
        self.consecutive_failures = 0;
        self.open_until = 0;
        self.window = 0;
        readmitted
    }

    /// Record a launch failure at `tick`. Returns `true` when this trips
    /// the breaker open (first quarantine or a failed probe re-opening it).
    fn record_failure(&mut self, tick: u64, threshold: u32, base_window: u64) -> bool {
        if self.open_until != 0 {
            // A half-open probe failed: re-open with a doubled window.
            self.window = self.window.saturating_mul(2).max(1);
            self.open_until = tick.saturating_add(self.window);
            true
        } else {
            self.consecutive_failures += 1;
            if self.consecutive_failures >= threshold.max(1) {
                self.consecutive_failures = 0;
                self.window = base_window.max(1);
                self.open_until = tick.saturating_add(self.window);
                true
            } else {
                false
            }
        }
    }
}

/// Measured-cost history of one variant of the table.
#[derive(Debug, Clone, PartialEq)]
pub struct VariantHistogram {
    /// Launches of this variant recorded so far.
    pub samples: u64,
    /// EWMA of `measured / predicted` (1.0 = the model is exact).
    pub ratio: f64,
    /// Running `Σ |measured - predicted| / predicted` for telemetry.
    sum_rel_err: f64,
}

impl VariantHistogram {
    /// Reassemble a histogram from persisted fields (the artifact codec).
    pub fn from_raw(samples: u64, ratio: f64, sum_rel_err: f64) -> Self {
        VariantHistogram {
            samples,
            ratio,
            sum_rel_err,
        }
    }

    /// Running `Σ |measured - predicted| / predicted`.
    pub fn sum_rel_err(&self) -> f64 {
        self.sum_rel_err
    }
}

impl Default for VariantHistogram {
    fn default() -> Self {
        VariantHistogram {
            samples: 0,
            ratio: 1.0,
            sum_rel_err: 0.0,
        }
    }
}

/// Mutable manager state, guarded by one short-held mutex (launches
/// themselves run outside it; only bookkeeping locks).
#[derive(Debug)]
struct KmuState {
    hist: Vec<VariantHistogram>,
    /// Per-variant circuit breakers (quarantine on repeated failure).
    breakers: Vec<Breaker>,
    /// Logical clock: one tick per [`KernelManager::run`] call; breakers
    /// measure quarantine windows against it.
    clock: u64,
}

/// Slots of a manager's price memo (a power of two).
const MEMO_SLOTS: usize = 1 << 10;

/// A bounded, direct-mapped memo of model prices keyed by `(variant, x)`.
///
/// Each launch prices its own point once (for the ratio), and so does
/// every cost quote. A price depends only on the manager's immutable
/// plan, so a hit returns the bit-identical value. A key that collides
/// overwrites its slot: the memo never holds more than [`MEMO_SLOTS`]
/// prices. The table is allocated on the first miss, so a manager that
/// never prices costs nothing.
#[derive(Default)]
struct PriceMemo {
    slots: Mutex<Vec<MemoSlot>>,
}

/// One memoised price; an empty slot holds [`MemoSlot::EMPTY`].
#[derive(Clone, Copy)]
struct MemoSlot {
    /// `(v, x)` packed by [`PriceMemo::key`].
    key: u64,
    price: f64,
}

impl MemoSlot {
    /// No valid key has `v == 0xFFFF`, so this key matches nothing.
    const EMPTY: MemoSlot = MemoSlot {
        key: u64::MAX,
        price: 0.0,
    };
}

impl PriceMemo {
    /// `(v, x)` in one word: `v` in the top 16 bits, `x` in the low 48.
    /// `None` for a point that does not fit; it is priced unmemoised.
    fn key(x: i64, v: usize) -> Option<u64> {
        (v < 0xFFFF && (0..1 << 48).contains(&x)).then_some((v as u64) << 48 | x as u64)
    }

    fn slot(key: u64) -> usize {
        const K: u64 = 0x9E37_79B9_7F4A_7C15;
        (key.wrapping_mul(K) >> (64 - MEMO_SLOTS.trailing_zeros())) as usize
    }

    fn lock(&self) -> MutexGuard<'_, Vec<MemoSlot>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The memoised price of `(v, x)`, or `price()` — computed outside the
    /// lock — stored and returned.
    fn get_or_price(&self, x: i64, v: usize, price: impl FnOnce() -> f64) -> f64 {
        let Some(key) = Self::key(x, v) else {
            return price();
        };
        let i = Self::slot(key);
        let hit = self.lock().get(i).copied();
        if let Some(s) = hit.filter(|s| s.key == key) {
            return s.price;
        }
        let price = price();
        let mut slots = self.lock();
        if slots.is_empty() {
            slots.resize(MEMO_SLOTS, MemoSlot::EMPTY);
        }
        slots[i] = MemoSlot { key, price };
        price
    }
}

impl std::fmt::Debug for PriceMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PriceMemo").finish_non_exhaustive()
    }
}

/// The online kernel-management unit: wraps a [`CompiledProgram`] with
/// table selection, a fallback ladder, a sharded launch-stats cache and
/// telemetry.
///
/// `&KernelManager` is `Sync`: many threads can call
/// [`run`](KernelManager::run) concurrently. Launches execute outside the
/// state lock, cache stripes are independently locked, and counters are
/// atomic.
#[derive(Debug)]
pub struct KernelManager {
    program: CompiledProgram,
    cache: ShardedLaunchCache,
    counters: TelemetryCounters,
    state: Mutex<KmuState>,
    /// Consecutive launch failures that quarantine a variant.
    quarantine_threshold: u32,
    /// Initial quarantine length in logical ticks (doubles while half-open
    /// probes keep failing).
    quarantine_window: u64,
    /// Attached artifact store: learned histograms are seeded
    /// from it at attach time and written back by
    /// [`KernelManager::persist_learned`]. `None` = persistence off.
    store: Option<Arc<crate::artifact::ArtifactStore>>,
    /// Model prices already computed, so a repeated point is a lookup.
    memo: PriceMemo,
}

impl KernelManager {
    /// Manage `program` with default cache geometry and breaker policy.
    pub fn new(program: CompiledProgram) -> KernelManager {
        let n = program.variants.len();
        KernelManager {
            counters: TelemetryCounters::new(n),
            state: Mutex::new(KmuState {
                hist: vec![VariantHistogram::default(); n],
                breakers: vec![Breaker::default(); n],
                clock: 0,
            }),
            cache: ShardedLaunchCache::default(),
            quarantine_threshold: 3,
            quarantine_window: 8,
            store: None,
            memo: PriceMemo::default(),
            program,
        }
    }

    /// Replace the circuit-breaker policy: `threshold` consecutive launch
    /// failures quarantine a variant for `window` logical ticks (both
    /// clamped to at least 1; the window doubles while half-open probes
    /// keep failing).
    pub fn with_quarantine(mut self, threshold: u32, window: u64) -> KernelManager {
        self.quarantine_threshold = threshold.max(1);
        self.quarantine_window = window.max(1);
        self
    }

    /// Replace the launch-stats cache geometry.
    pub fn with_cache(mut self, shards: usize, capacity_per_shard: usize) -> KernelManager {
        self.cache = ShardedLaunchCache::new(shards, capacity_per_shard);
        self
    }

    /// Attach a persistent [`ArtifactStore`] and warm-start from it: if
    /// the store holds learned state for this program on this device (and
    /// it has one histogram per variant), the histograms are seeded from
    /// it — the manager's cost quotes start where the last process left
    /// off instead of at the bare model.
    /// A miss, a corrupt file or a version mismatch is a counted non-event
    /// (see [`ArtifactStore`] telemetry) and the manager starts cold.
    ///
    /// Circuit-breaker/quarantine state is **never** loaded (or stored):
    /// a reloaded process always starts with closed breakers.
    pub fn with_artifacts(mut self, store: Arc<ArtifactStore>) -> KernelManager {
        {
            let mut st = self.lock_state();
            if let Some(learned) = store.load_learned(self.program.artifact_key(), st.hist.len()) {
                st.hist = learned.histograms;
            }
        }
        self.store = Some(store);
        self
    }

    /// The attached artifact store, if any.
    pub fn artifact_store(&self) -> Option<&ArtifactStore> {
        self.store.as_deref()
    }

    /// A copy of the current learned state — the per-variant histograms —
    /// suitable for persisting or for shipping to a peer node
    /// ([`LearnedState::to_bytes`]). Run-time quarantine state is
    /// deliberately excluded.
    pub fn export_learned(&self) -> LearnedState {
        let st = self.lock_state();
        LearnedState {
            histograms: st.hist.clone(),
        }
    }

    /// Adopt a peer's learned state: replaces the histograms after
    /// validating that `learned` has one per variant of this program and
    /// that every one carries a finite, positive ratio. Breakers and the
    /// logical clock are untouched.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Malformed`] when the state does not fit this
    /// program; the manager's state is unchanged on error.
    pub fn import_learned(&self, learned: &LearnedState) -> std::result::Result<(), ArtifactError> {
        let n = self.program.variants.len();
        if !learned.fits(n) {
            return Err(ArtifactError::Malformed(format!(
                "learned state does not fit {n} variants"
            )));
        }
        if let Some(h) = learned
            .histograms
            .iter()
            .find(|h| !(h.ratio.is_finite() && h.ratio > 0.0 && h.sum_rel_err().is_finite()))
        {
            return Err(ArtifactError::Malformed(format!(
                "non-finite histogram {h:?}"
            )));
        }
        self.lock_state().hist = learned.histograms.clone();
        Ok(())
    }

    /// Write the current learned state back to the attached store
    /// (atomic replace); a no-op without one. Call at shutdown — or
    /// periodically — so the next process warm-starts.
    ///
    /// # Errors
    ///
    /// Propagates the store's filesystem errors.
    pub fn persist_learned(&self) -> std::result::Result<(), ArtifactError> {
        let Some(store) = &self.store else {
            return Ok(());
        };
        store.store_learned(self.program.artifact_key(), &self.export_learned())
    }

    /// Lock the manager state, recovering from poison: state mutations
    /// are single-field scalar/element writes, so a panic mid-critical
    /// section cannot leave it half-updated — the recovered state is
    /// always consistent.
    fn lock_state(&self) -> MutexGuard<'_, KmuState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The managed program.
    pub fn program(&self) -> &CompiledProgram {
        &self.program
    }

    /// The launch-stats cache (hit/miss/eviction counters live here).
    pub fn cache(&self) -> &ShardedLaunchCache {
        &self.cache
    }

    /// The variant whose planned sub-range holds axis value `x` — a pure
    /// function of `x`.
    ///
    /// # Errors
    ///
    /// [`Error::EmptyVariantTable`] when there is nothing to select from;
    /// [`Error::InputOutOfRange`] when `x` is outside the compiled range —
    /// typed errors, never a panic or a silent clamp.
    pub fn select(&self, x: i64) -> Result<usize> {
        self.program.try_variant_for(x).map(|(v, _)| v)
    }

    /// The manager's best current estimate of what running axis value `x`
    /// here would cost, in µs: the analytical model's prediction for the
    /// variant the table selects, scaled by that variant's
    /// measured/predicted EWMA ratio (1.0 until measurements arrive). This
    /// is the per-device cost term a fleet scheduler compares across
    /// heterogeneous devices — it sharpens online as histograms fill in,
    /// without ever launching anything.
    ///
    /// # Errors
    ///
    /// The selection errors of [`KernelManager::select`].
    pub fn corrected_cost(&self, x: i64) -> Result<f64> {
        let v = self.select(x)?;
        let correction = self.lock_state().hist[v].ratio;
        Ok(correction * self.predicted(x, v))
    }

    /// Model prediction of variant `v` at `x` (∞ when the model cannot
    /// price it), through the price memo: the plan never changes, so
    /// neither does a point's price.
    fn predicted(&self, x: i64, v: usize) -> f64 {
        self.memo.get_or_price(x, v, || {
            self.program
                .predicted_time_us(x, v)
                .unwrap_or(f64::INFINITY)
        })
    }

    /// Run the program at axis value `x` on the variant the table selects,
    /// recording its measured cost.
    ///
    /// Launches are resilient: a variant whose launch fails (after the
    /// runtime's own retry budget, [`crate::RetryPolicy`]) is retried on
    /// the next-nearest non-quarantined variant — every variant computes
    /// the same function, so a fallback changes only time, never results.
    /// A variant that keeps failing is *quarantined* by a per-variant
    /// circuit breaker (see [`KernelManager::with_quarantine`]) and
    /// re-probed half-open after its window of logical ticks. When every
    /// variant is unavailable, the run completes on one worker with
    /// a doubled retry budget — the degraded-but-correct last resort.
    ///
    /// The launch-stats cache is engaged only for
    /// [`ExecMode::SampledExec`] runs — the cache skips execution on hits,
    /// which is only sound where outputs are already being discarded.
    /// The returned report carries a [`TelemetrySnapshot`].
    ///
    /// # Errors
    ///
    /// Selection errors ([`Error::EmptyVariantTable`],
    /// [`Error::InputOutOfRange`]), everything
    /// [`CompiledProgram::run_opts`] returns, and
    /// [`Error::LaunchFailed`] only when the entire degradation ladder —
    /// every admitted variant plus the serial last resort — failed.
    pub fn run(
        &self,
        x: i64,
        input: &[f32],
        state: &[StateBinding],
        opts: RunOptions<'_>,
    ) -> Result<ExecutionReport> {
        let primary = self.select(x)?;
        let cache: Option<&dyn StatsCache> = match opts.mode {
            ExecMode::SampledExec(_) => Some(&self.cache),
            _ => None,
        };

        // Admission, under the lock: advance the logical clock and build
        // the candidate ladder — the primary first, then the remaining
        // variants by distance from it, skipping quarantined (open)
        // breakers. A half-open breaker is admitted as a probe.
        let (tick, candidates) = {
            let mut st = self.lock_state();
            st.clock += 1;
            let tick = st.clock;
            let mut order: Vec<usize> = (0..st.breakers.len()).collect();
            order.sort_by_key(|&v| (v.abs_diff(primary), v));
            let candidates: Vec<(usize, bool)> = order
                .into_iter()
                .filter(|&v| !st.breakers[v].is_open(tick))
                .map(|v| (v, st.breakers[v].is_half_open(tick)))
                .collect();
            (tick, candidates)
        };

        // The retry policy's wall-clock budget bounds the whole ladder:
        // after at least one attempt, a spent budget stops the walk down
        // the fallback variants (and the degraded resort) with the last
        // failure instead of retrying past the caller's deadline.
        let ladder_started = std::time::Instant::now();
        let budget_us = opts.retry.deadline_us;
        let budget_spent =
            || budget_us > 0 && ladder_started.elapsed().as_micros() as u64 >= budget_us;
        let mut last_err: Option<Error> = None;
        for (v, probe) in candidates {
            if let Some(e) = last_err.take_if(|_| budget_spent()) {
                self.counters
                    .deadline_overruns
                    .fetch_add(1, Ordering::Relaxed);
                return Err(e);
            }
            if probe {
                self.counters
                    .half_open_probes
                    .fetch_add(1, Ordering::Relaxed);
            }
            match self
                .program
                .run_opts(x, input, state, opts.with_variant(v), cache)
            {
                Ok(report) => {
                    let readmitted = self.lock_state().breakers[v].record_success();
                    if readmitted {
                        self.counters.readmissions.fetch_add(1, Ordering::Relaxed);
                    }
                    if v != primary {
                        self.counters.fallbacks.fetch_add(1, Ordering::Relaxed);
                    }
                    return self.finish_run(x, v, opts, report);
                }
                Err(e) => {
                    if !matches!(e, Error::LaunchFailed { .. }) {
                        // Not a launch failure (bad input, semantic error,
                        // ...): no other variant can do better — propagate.
                        return Err(e);
                    }
                    self.tally_failure(&e, opts);
                    let opened = self.lock_state().breakers[v].record_failure(
                        tick,
                        self.quarantine_threshold,
                        self.quarantine_window,
                    );
                    if opened {
                        self.counters.quarantines.fetch_add(1, Ordering::Relaxed);
                    }
                    last_err = Some(e);
                }
            }
        }
        if let Some(e) = last_err {
            if budget_spent() {
                self.counters
                    .deadline_overruns
                    .fetch_add(1, Ordering::Relaxed);
                return Err(e);
            }
        }

        // Degraded-but-correct last resort: every variant is quarantined
        // or just failed, so run the primary on one worker with a
        // doubled retry budget. Faults are still injected here — an
        // injector hot enough to kill this too surfaces as
        // `Error::LaunchFailed` to the caller.
        let degraded = opts.degraded().with_variant(primary);
        match self.program.run_opts(x, input, state, degraded, cache) {
            Ok(report) => {
                self.counters.degraded_runs.fetch_add(1, Ordering::Relaxed);
                self.counters.fallbacks.fetch_add(1, Ordering::Relaxed);
                self.finish_run(x, primary, opts, report)
            }
            Err(e) => {
                self.tally_failure(&e, opts);
                Err(e)
            }
        }
    }

    /// Count a [`crate::DynamicRegion`] firing whose rate left the
    /// declared interval as a `rate_exits` event.
    pub(crate) fn tally_rate_exit(&self) {
        self.counters.rate_exits.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a completed run's resilience tallies (its report's deltas)
    /// and the injector's lifetime total. Clamped firings of a
    /// [`crate::DynamicRegion`] count here too.
    pub(crate) fn tally_report(&self, report: &ExecutionReport, opts: RunOptions<'_>) {
        let c = &self.counters;
        c.retries.fetch_add(report.retries, Ordering::Relaxed);
        c.faults_observed
            .fetch_add(report.faults_observed, Ordering::Relaxed);
        c.deadline_overruns
            .fetch_add(report.deadline_overruns, Ordering::Relaxed);
        self.tally_injected(opts);
    }

    /// Count a failed launch — each of its attempts faulted, all but the
    /// first were retries — and the injector's lifetime total.
    pub(crate) fn tally_failure(&self, e: &Error, opts: RunOptions<'_>) {
        if let Error::LaunchFailed { attempts, .. } = e {
            let c = &self.counters;
            c.retries
                .fetch_add(u64::from(attempts.saturating_sub(1)), Ordering::Relaxed);
            c.faults_observed
                .fetch_add(u64::from(*attempts), Ordering::Relaxed);
        }
        self.tally_injected(opts);
    }

    /// Raise the injected-fault high-water mark to the injector's lifetime
    /// total (injectors report a total, not a delta).
    fn tally_injected(&self, opts: RunOptions<'_>) {
        if let Some(f) = opts.faults {
            self.counters
                .faults_injected
                .fetch_max(f.injected(), Ordering::Relaxed);
        }
    }

    /// Post-success bookkeeping for a run that executed variant `idx`:
    /// selection and resilience telemetry, measured-feedback recording
    /// and the report's telemetry snapshot.
    fn finish_run(
        &self,
        x: i64,
        idx: usize,
        opts: RunOptions<'_>,
        mut report: ExecutionReport,
    ) -> Result<ExecutionReport> {
        self.counters.record_selection(idx);
        self.tally_report(&report, opts);

        let measured = report.time_us + report.host_time_us;
        // Price the launch before taking the lock: predicted_time_us does
        // a rate_match and a model estimate per segment, far too slow to
        // serialize concurrent callers behind.
        let predicted = self.predicted(x, idx);
        let mut st = self.lock_state();
        if predicted.is_finite() && predicted > 0.0 && measured.is_finite() {
            let h = &mut st.hist[idx];
            let ratio = measured / predicted;
            h.ratio = if h.samples == 0 {
                ratio
            } else {
                RATIO_ALPHA * ratio + (1.0 - RATIO_ALPHA) * h.ratio
            };
            h.samples += 1;
            h.sum_rel_err += (measured - predicted).abs() / predicted;
        }
        report.telemetry = Some(self.snapshot_locked(&st));
        Ok(report)
    }

    /// A point-in-time copy of all telemetry.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        let st = self.lock_state();
        self.snapshot_locked(&st)
    }

    fn snapshot_locked(&self, st: &KmuState) -> TelemetrySnapshot {
        let samples: u64 = st.hist.iter().map(|h| h.samples).sum();
        let sum_err: f64 = st.hist.iter().map(|h| h.sum_rel_err).sum();
        let store = self.store.as_deref();
        TelemetrySnapshot {
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            cache_evictions: self.cache.evictions(),
            artifact_hits: store.map_or(0, ArtifactStore::hits),
            artifact_misses: store.map_or(0, ArtifactStore::misses),
            artifact_rejects: store.map_or(0, ArtifactStore::rejects),
            mean_model_error: if samples > 0 {
                sum_err / samples as f64
            } else {
                0.0
            },
            boundaries: self.program.variants.iter().map(|v| (v.lo, v.hi)).collect(),
            quarantined_variants: st
                .breakers
                .iter()
                .enumerate()
                .filter(|(_, b)| b.is_open(st.clock))
                .map(|(i, _)| i)
                .collect(),
            ..self.counters.snapshot()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{compile, InputAxis};
    use gpu_sim::{DeviceSpec, Fault, FaultInjector};
    use std::sync::atomic::{AtomicBool, AtomicU64};
    use streamir::parse::parse_program;

    const SUM_SRC: &str = r#"pipeline P(N) {
        actor Sum(pop N, push 1) {
            acc = 0.0;
            for i in 0..N { acc = acc + pop(); }
            push(acc);
        }
    }"#;

    fn compiled_sum() -> CompiledProgram {
        let p = parse_program(SUM_SRC).unwrap();
        let axis = InputAxis::total_size("N", 64, 1 << 20);
        compile(&p, &DeviceSpec::tesla_c2050(), &axis).unwrap()
    }

    #[test]
    fn selector_rejects_out_of_range_and_empty_table() {
        let compiled = compiled_sum();
        let kmu = KernelManager::new(compiled.clone());
        assert!(matches!(
            kmu.select(63),
            Err(Error::InputOutOfRange { x: 63, lo: 64, .. })
        ));
        assert!(matches!(
            kmu.select((1 << 20) + 1),
            Err(Error::InputOutOfRange { .. })
        ));
        assert!(matches!(
            kmu.run(1 << 30, &[1.0; 4], &[], RunOptions::default()),
            Err(Error::InputOutOfRange { .. })
        ));

        let mut empty = compiled;
        empty.variants.clear();
        assert!(matches!(
            empty.try_variant_for(1024),
            Err(Error::EmptyVariantTable)
        ));
        let kmu = KernelManager::new(empty);
        assert!(matches!(kmu.select(1024), Err(Error::EmptyVariantTable)));
    }

    #[test]
    fn memoised_prices_are_the_model_prices_and_stay_bounded() {
        let compiled = compiled_sum();
        let kmu = KernelManager::new(compiled.clone());
        let opts = RunOptions::serial(ExecMode::SampledStats(32));
        // A mixed trace: every variant launched and costs quoted across
        // the axis.
        for (i, n) in [256usize, 65536, 1024, 16384, 4096, 256, 65536, 1024]
            .into_iter()
            .enumerate()
        {
            kmu.run(n as i64, &vec![1.0f32; n], &[], opts).unwrap();
            kmu.corrected_cost((n as i64) * 3 + i as i64).unwrap();
        }
        let slots = kmu.memo.lock().clone();
        assert_eq!(slots.len(), MEMO_SLOTS, "allocated once, never grown");
        assert_eq!(std::mem::size_of::<MemoSlot>(), 16);
        let live: Vec<(usize, MemoSlot)> = slots
            .into_iter()
            .enumerate()
            .filter(|(_, s)| s.key != MemoSlot::EMPTY.key)
            .collect();
        assert!(
            live.len() > compiled.variant_count(),
            "the trace priced points"
        );
        for (i, s) in live {
            let (v, x) = ((s.key >> 48) as usize, (s.key & ((1 << 48) - 1)) as i64);
            assert_eq!(PriceMemo::key(x, v), Some(s.key), "({v}, {x}) packs back");
            assert_eq!(PriceMemo::slot(s.key), i, "({v}, {x}) misplaced");
            let model = compiled.predicted_time_us(x, v).unwrap_or(f64::INFINITY);
            assert_eq!(s.price.to_bits(), model.to_bits(), "({v}, {x})");
        }
        // A point whose key does not fit is priced, not memoised.
        assert_eq!(PriceMemo::key(-1, 0), None);
        assert_eq!(PriceMemo::key(1 << 48, 0), None);
        assert_eq!(PriceMemo::key(1024, 0xFFFF), None);
        let memo = PriceMemo::default();
        assert_eq!(memo.get_or_price(-1, 0, || 2.5), 2.5);
        assert!(memo.lock().is_empty(), "nothing stored");
    }

    /// Selection is a pure function of the axis value: one multiset of
    /// inputs, run through two managers in opposite orders, picks the same
    /// variant for every x and charges the same simulated time — however
    /// far the measured ratios drift from the model in between.
    #[test]
    fn selection_does_not_depend_on_launch_order() {
        let compiled = compiled_sum();
        assert!(compiled.variant_count() >= 2, "need a boundary");
        // Points straddling every planned boundary, three launches each,
        // plus a spread across the axis.
        let mut xs: Vec<i64> = vec![256, 1024, 4096, 16384, 65536];
        for v in &compiled.variants[1..] {
            let b = v.lo;
            for x in [
                b * 3 / 4,
                b * 9 / 10,
                b - 1,
                b,
                b + 1,
                b * 11 / 10,
                b * 4 / 3,
            ] {
                xs.extend([x; 3]);
            }
        }
        let (lo, hi) = compiled.axis_range();
        xs.retain(|&x| (lo..=hi).contains(&x));
        xs.sort_unstable();
        let input = vec![1.0f32; *xs.last().unwrap() as usize];
        let opts = RunOptions::serial(ExecMode::SampledStats(32));

        // Per x: the variants it ran on and its summed simulated time.
        let replay = |order: &[i64]| {
            let kmu = KernelManager::new(compiled.clone());
            let mut per_x = std::collections::BTreeMap::<i64, (Vec<usize>, f64)>::new();
            for &x in order {
                let rep = kmu.run(x, &input[..x as usize], &[], opts).unwrap();
                let e = per_x.entry(x).or_default();
                if !e.0.contains(&rep.variant_index) {
                    e.0.push(rep.variant_index);
                }
                e.1 += rep.time_us;
            }
            per_x
        };
        let ascending = replay(&xs);
        let descending = replay(&xs.iter().rev().copied().collect::<Vec<_>>());
        for (x, (variants, time)) in &ascending {
            let (other, other_time) = &descending[x];
            assert_eq!(variants.len(), 1, "x={x} ran on {variants:?}");
            assert_eq!(variants, other, "x={x}: variant depends on launch order");
            assert_eq!(
                time.to_bits(),
                other_time.to_bits(),
                "x={x}: simulated time depends on launch order"
            );
        }
    }

    #[test]
    fn concurrent_runs_record_every_launch_on_the_planned_table() {
        // Many threads recording measurements at once: every launch is
        // counted, and the table the snapshots report is the planned one.
        let compiled = compiled_sum();
        let planned: Vec<(i64, i64)> = compiled.variants.iter().map(|v| (v.lo, v.hi)).collect();
        let kmu = KernelManager::new(compiled);
        let opts = RunOptions::serial(ExecMode::SampledStats(16));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (kmu, planned) = (&kmu, &planned);
                scope.spawn(move || {
                    for n in [256usize, 1024, 4096, 16384] {
                        let n = n << (t % 2);
                        let input = vec![1.0f32; n];
                        let snap = kmu
                            .run(n as i64, &input, &[], opts)
                            .unwrap()
                            .telemetry
                            .unwrap();
                        assert_eq!(&snap.boundaries, planned);
                    }
                });
            }
        });
        let snap = kmu.telemetry();
        assert_eq!(snap.launches, 16);
        assert_eq!(snap.selections.iter().sum::<u64>(), 16);
        let samples: u64 = kmu
            .export_learned()
            .histograms
            .iter()
            .map(|h| h.samples)
            .sum();
        assert_eq!(samples, 16, "every launch recorded its measurement");
    }

    #[test]
    fn forced_variants_compute_identical_results() {
        // Selection changes must never change results: every variant is
        // the same function. (The conformance suite pins this across
        // engines; this pins it across the table.)
        let compiled = compiled_sum();
        let n = 8192usize;
        let input: Vec<f32> = (0..n).map(|i| (i % 7) as f32).collect();
        let baseline = compiled.run(n as i64, &input).unwrap();
        for v in 0..compiled.variant_count() {
            let forced = compiled
                .run_opts(
                    n as i64,
                    &input,
                    &[],
                    RunOptions::default().with_variant(v),
                    None,
                )
                .unwrap();
            assert_eq!(forced.variant_index, v);
            let expected: f32 = input.iter().sum();
            assert!(
                (forced.output[0] - expected).abs() <= 1e-3 * expected,
                "variant {v}: {} vs {expected}",
                forced.output[0]
            );
            assert_eq!(forced.output.len(), baseline.output.len());
        }
    }

    /// An injector with an on/off switch: while hot it rejects every
    /// launch; cold it is inert. Lets a test script "the whole device is
    /// failing, then recovers" without counting consultations.
    #[derive(Debug)]
    struct Switchable {
        hot: AtomicBool,
        handed: AtomicU64,
    }

    impl Switchable {
        fn new(hot: bool) -> Switchable {
            Switchable {
                hot: AtomicBool::new(hot),
                handed: AtomicU64::new(0),
            }
        }
    }

    impl FaultInjector for Switchable {
        fn on_launch(&self, _kernel: &str) -> Option<Fault> {
            if self.hot.load(Ordering::Relaxed) {
                self.handed.fetch_add(1, Ordering::Relaxed);
                Some(Fault::LaunchReject)
            } else {
                None
            }
        }

        fn injected(&self) -> u64 {
            self.handed.load(Ordering::Relaxed)
        }
    }

    #[test]
    fn kmu_quarantines_failing_variants_and_readmits_after_probe() {
        let kmu = KernelManager::new(compiled_sum()).with_quarantine(1, 2);
        let inj = Switchable::new(true);
        let n = 4096usize;
        let input = vec![1.0f32; n];
        let opts = RunOptions::serial(ExecMode::Full).with_faults(&inj);

        // Tick 1: the injector rejects every launch, so every admitted
        // variant fails and trips its breaker (threshold 1), and the
        // serial last resort fails too — the whole ladder is exhausted.
        let err = kmu.run(n as i64, &input, &[], opts).unwrap_err();
        assert!(matches!(err, Error::LaunchFailed { .. }), "{err}");
        let snap = kmu.telemetry();
        assert!(snap.quarantines >= 1);
        assert!(!snap.quarantined_variants.is_empty());
        assert!(snap.faults_observed > 0 && snap.retries > 0);
        assert!(snap.faults_injected > 0);
        assert_eq!(snap.launches, 0, "no launch completed");

        // The fault clears, but the breakers are still open (window 2):
        // tick 2 completes on the degraded serial last resort, correctly.
        inj.hot.store(false, Ordering::Relaxed);
        let rep = kmu.run(n as i64, &input, &[], opts).unwrap();
        assert!((rep.output[0] - n as f32).abs() <= 1e-3 * n as f32);
        let snap = rep.telemetry.clone().expect("kmu run carries telemetry");
        assert!(snap.degraded_runs >= 1);
        assert!(snap.fallbacks >= 1);
        assert!(!snap.quarantined_variants.is_empty());

        // Tick 3: the window elapsed — the primary is probed half-open,
        // the probe succeeds, and the variant is re-admitted.
        let rep = kmu.run(n as i64, &input, &[], opts).unwrap();
        let snap = rep.telemetry.expect("kmu run carries telemetry");
        assert!(snap.half_open_probes >= 1);
        assert!(snap.readmissions >= 1);
        assert!(snap.quarantined_variants.is_empty());
    }

    /// An injector that rejects only the first `limit` consultations: with
    /// `limit` = the runtime's per-launch attempt budget, it deterministically
    /// kills exactly the first candidate the manager tries (its first kernel
    /// burns the whole budget) and lets every later candidate through.
    #[derive(Debug)]
    struct FirstN {
        limit: u64,
        seen: AtomicU64,
        handed: AtomicU64,
    }

    impl FirstN {
        fn new(limit: u64) -> FirstN {
            FirstN {
                limit,
                seen: AtomicU64::new(0),
                handed: AtomicU64::new(0),
            }
        }
    }

    impl FaultInjector for FirstN {
        fn on_launch(&self, _kernel: &str) -> Option<Fault> {
            if self.seen.fetch_add(1, Ordering::Relaxed) < self.limit {
                self.handed.fetch_add(1, Ordering::Relaxed);
                Some(Fault::LaunchReject)
            } else {
                None
            }
        }

        fn injected(&self) -> u64 {
            self.handed.load(Ordering::Relaxed)
        }
    }

    #[test]
    fn kmu_falls_back_past_a_flaky_variant_then_stops_launching_it() {
        let compiled = compiled_sum();
        assert!(compiled.variant_count() >= 2, "need a fallback target");
        let kmu = KernelManager::new(compiled).with_quarantine(2, 64);
        let x = kmu.telemetry().boundaries[0].0; // primary = variant 0
        let input = vec![1.0f32; x as usize];
        let expected: f32 = x as f32;
        let budget = u64::from(crate::runtime::RetryPolicy::default().max_attempts);

        // Runs 1-2: the primary burns its whole attempt budget on a
        // rejected first kernel, the run falls back to the next variant and
        // still computes the right answer; the second failure trips the
        // primary's breaker.
        for _ in 0..2 {
            let inj = FirstN::new(budget);
            let rep = kmu
                .run(
                    x,
                    &input,
                    &[],
                    RunOptions::serial(ExecMode::Full).with_faults(&inj),
                )
                .unwrap();
            assert_ne!(
                rep.variant_index, 0,
                "must not complete on the flaky variant"
            );
            assert!((rep.output[0] - expected).abs() <= 1e-3 * expected);
            assert_eq!(inj.injected(), budget, "primary burned its budget");
        }
        let snap = kmu.telemetry();
        assert_eq!(snap.quarantined_variants, vec![0]);
        assert_eq!(snap.quarantines, 1);
        assert!(snap.fallbacks >= 2);
        assert!(snap.faults_observed >= 2 * budget && snap.retries >= 2);

        // Run 3 (fault-free): the quarantined variant is skipped outright —
        // selection goes straight to a healthy neighbor.
        let rep = kmu
            .run(x, &input, &[], RunOptions::serial(ExecMode::Full))
            .unwrap();
        assert_ne!(rep.variant_index, 0);
        assert!((rep.output[0] - expected).abs() <= 1e-3 * expected);
        let snap = rep.telemetry.expect("kmu run carries telemetry");
        assert_eq!(snap.quarantined_variants, vec![0], "window 64 still open");
        assert!(snap.degraded_runs == 0, "healthy fallback, not degraded");
    }

    #[test]
    fn kmu_cache_engages_only_for_sampled_exec() {
        let compiled = compiled_sum();
        let kmu = KernelManager::new(compiled);
        let n = 4096usize;
        let input = vec![1.0f32; n];
        // Full mode: no cache traffic.
        kmu.run(n as i64, &input, &[], RunOptions::serial(ExecMode::Full))
            .unwrap();
        assert_eq!(kmu.cache().hits() + kmu.cache().misses(), 0);
        // SampledExec: cold misses, then hits.
        let opts = RunOptions::serial(ExecMode::SampledExec(8));
        let cold = kmu.run(n as i64, &input, &[], opts).unwrap();
        assert!(cold.cache_misses > 0);
        let warm = kmu.run(n as i64, &input, &[], opts).unwrap();
        assert_eq!(warm.cache_misses, 0);
        assert_eq!(warm.cache_hits, cold.cache_misses);
        let snap = kmu.telemetry();
        assert_eq!(snap.cache_hits, warm.cache_hits);
        assert_eq!(snap.cache_misses, cold.cache_misses);
    }
}
