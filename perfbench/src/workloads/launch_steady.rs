//! `launch_steady`: one op is one managed *sampled* launch, the path the
//! figure sweeps take. Nine ops in ten draw their input size from a hot
//! set of 64 and are served from the launch cache; one in ten draws a
//! size the cache does not hold, from a scan set at least four times the
//! cache's capacity, so it is simulated, inserted and, once the cache is
//! full, evicts.
//!
//! `kmu` (select, record, recalibrate), `gpu_sim`'s launch cache and
//! `telemetry` dominate the hit ops, tens of µs each, while `warp` does
//! little: reads beside writes on one cache, a working set both inside
//! and beyond its capacity. `op_ms_p50` is a hit; with a tenth of the ops
//! missing, `op_ms_p95` is the median miss.
//!
//! A sampled launch leaves its output incomplete, so what is checked per
//! op is the simulated time (bit for bit against a cache-less run of the
//! same variant) and that hits hit and misses miss; set-up also executes
//! hot sizes in full against the interpreter.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use super::{check_output, Limit, Meter, Outcome, Workload};
use crate::corpus::{Entry, CORPUS};
use crate::gen::{data, jittered_grid, Lcg};
use crate::layers::{self, Counts, Launch, Manager, Mode};
use crate::trace::Tracer;

const HOT: usize = 64;
const HOT_ITEMS: (f64, f64) = (1024.0, 16384.0);
const HOT_JITTER: f64 = 0.02;
/// Sizes the scan walks: all of them once before any repeats.
const SCAN: (i64, i64) = (1024, 32768);
const AXIS_ITEMS: (i64, i64) = (512, 1 << 16);
/// One op in this many is a scan op.
const SCAN_EVERY: u64 = 10;
/// Hot sizes per program that set-up executes in full.
const FULL_CHECKS: usize = 4;
/// Every n-th miss is re-run without the cache and compared.
const RECHECK_EVERY: u64 = 16;
/// Ops behind `sim_us_per_op` and the determinism digest.
const SIM_WINDOW: u64 = 4096;

struct Lane {
    entry: &'static Entry,
    manager: Manager,
    buffer: Vec<f32>,
    /// Position of the scan walk, and its stride (coprime to the range).
    scan_at: i64,
    scan_stride: i64,
}

impl Lane {
    fn next_scan(&mut self, hot: &[(usize, i64)], me: usize) -> i64 {
        let span = SCAN.1 - SCAN.0;
        loop {
            self.scan_at = (self.scan_at + self.scan_stride) % span;
            let x = SCAN.0 + self.scan_at;
            if !hot.contains(&(me, x)) {
                return x;
            }
        }
    }
}

pub struct LaunchSteady {
    lanes: Vec<Lane>,
    hot: Vec<(usize, i64)>,
    rng: Lcg,
    /// Simulated time of `(lane, x, variant)` from a cache-less run.
    expected: HashMap<(usize, i64, usize), u64>,
    /// The variant that last served each hot size. Recalibration may move
    /// a size to another variant, whose kernels the cache may not hold (or
    /// no longer hold): only a launch of the same variant must hit.
    last_variant: HashMap<(usize, i64), usize>,
}

impl LaunchSteady {
    fn expected_bits(&mut self, lane: usize, x: i64, variant: usize) -> Result<u64, String> {
        if let Some(&bits) = self.expected.get(&(lane, x, variant)) {
            return Ok(bits);
        }
        let l = &self.lanes[lane];
        let input = &l.buffer[..l.entry.items(x)];
        let plan = layers::plan_of(&l.manager);
        let bits = layers::run_plan(plan, x, input, Mode::Sampled, Some(variant))?
            .sim_us
            .to_bits();
        self.expected.insert((lane, x, variant), bits);
        Ok(bits)
    }

    fn check(
        &mut self,
        lane: usize,
        x: i64,
        scan: bool,
        nth_scan: u64,
        l: &Launch,
    ) -> Result<(), String> {
        if scan {
            if l.cache_hits != 0 || l.cache_misses == 0 {
                return Err(format!(
                    "scan x={x}: {} hits, {} misses",
                    l.cache_hits, l.cache_misses
                ));
            }
            if !nth_scan.is_multiple_of(RECHECK_EVERY) {
                return Ok(());
            }
        } else {
            let same_variant = self.last_variant.insert((lane, x), l.variant) == Some(l.variant);
            if same_variant && l.cache_misses != 0 {
                return Err(format!(
                    "hot x={x} variant {}: {} hits, {} misses",
                    l.variant, l.cache_hits, l.cache_misses
                ));
            }
        }
        let want = self.expected_bits(lane, x, l.variant)?;
        if l.sim_us.to_bits() != want {
            return Err(format!(
                "x={x} variant {}: simulated {} us, cache-less run {} us",
                l.variant,
                l.sim_us,
                f64::from_bits(want)
            ));
        }
        Ok(())
    }
}

impl Workload for LaunchSteady {
    const NAME: &'static str = "launch_steady";
    const PREFIX_OPS: u64 = 1024;

    fn setup(seed: u64, _scratch: &Path) -> Result<LaunchSteady, String> {
        let mut g = Lcg::new(seed);
        let mut off = Tracer::off();
        let mut lanes = Vec::new();
        for (i, entry) in CORPUS.iter().filter(|e| e.has_wide_axis()).enumerate() {
            let program = layers::program_of(entry);
            let axis = layers::axis_for(entry, AXIS_ITEMS.0, AXIS_ITEMS.1);
            let plan = layers::compile_cold(
                &mut off,
                0,
                &program,
                &layers::main_device(),
                &axis,
                layers::options(None),
            )?;
            let span = SCAN.1 - SCAN.0;
            lanes.push((
                program,
                Lane {
                    entry,
                    manager: layers::manage_small_cache(plan),
                    buffer: data(SCAN.1 as usize, seed.wrapping_add(i as u64)),
                    scan_at: g.below(span as u64) as i64,
                    // Odd, and the span is a power-of-two multiple of 31:
                    // any odd stride not divisible by 31 walks every value.
                    scan_stride: 2 * (1 + g.below(4096) as i64) * 31 + 1,
                },
            ));
        }
        let span = (SCAN.1 - SCAN.0) as usize;
        let capacity = layers::cache_capacity(&lanes[0].1.manager);
        if span < 4 * capacity + HOT {
            return Err(format!(
                "scan set {span} is under 4x the cache capacity {capacity}"
            ));
        }

        // Hot set: sizes spread over the lanes, distinct within a lane.
        let per_lane = HOT / lanes.len();
        let mut hot = Vec::new();
        for lane in 0..lanes.len() {
            let mut xs = jittered_grid(HOT_ITEMS.0, HOT_ITEMS.1, per_lane, HOT_JITTER, &mut g);
            xs.sort_unstable();
            xs.dedup();
            hot.extend(xs.into_iter().map(|x| (lane, x)));
        }

        // Execute a few hot sizes per lane in full against the interpreter,
        // then touch every hot size once so the run's hot ops hit.
        let mut last_variant = HashMap::new();
        for (lane, (program, l)) in lanes.iter().enumerate() {
            let mine: Vec<i64> = hot.iter().filter(|h| h.0 == lane).map(|h| h.1).collect();
            for &x in mine.iter().step_by((mine.len() / FULL_CHECKS).max(1)) {
                let input = &l.buffer[..l.entry.items(x)];
                let full =
                    layers::run_plan(layers::plan_of(&l.manager), x, input, Mode::Full, None)?;
                check_output(&full.output, &layers::interpret(program, l.entry, x, input))
                    .map_err(|e| format!("set-up check of `{}` at x={x}: {e}", l.entry.name))?;
            }
            for &x in &mine {
                let input = &l.buffer[..l.entry.items(x)];
                let touch = layers::run_managed(&mut off, 0, &l.manager, x, input, Mode::Sampled)?;
                last_variant.insert((lane, x), touch.variant);
            }
        }
        Ok(LaunchSteady {
            lanes: lanes.into_iter().map(|(_, l)| l).collect(),
            hot,
            rng: Lcg::new(seed ^ 0x5ca1_ab1e),
            expected: HashMap::new(),
            last_variant,
        })
    }

    fn corrupt_reference(&mut self) {
        // Whatever variant serves the first hot size, the time expected of
        // it is now one no launch can have.
        let (lane, x) = self.hot[0];
        let variants = layers::variant_count(layers::plan_of(&self.lanes[lane].manager));
        for variant in 0..variants {
            self.expected.insert((lane, x, variant), f64::NAN.to_bits());
        }
    }

    fn run(&mut self, limit: Limit, traced: bool) -> Outcome {
        let mut m = Meter::new(limit, traced, SIM_WINDOW);
        let before: Vec<Counts> = self
            .lanes
            .iter()
            .map(|l| layers::manager_counts(&l.manager))
            .collect();
        let mut scans = 0u64;
        while m.more() {
            let scan = self.rng.below(SCAN_EVERY) == 0;
            let (lane, x) = if scan {
                scans += 1;
                let lane = (scans % self.lanes.len() as u64) as usize;
                (lane, self.lanes[lane].next_scan(&self.hot, lane))
            } else {
                self.hot[self.rng.below(self.hot.len() as u64) as usize]
            };
            let op = m.out.attempted;
            let l = &self.lanes[lane];
            let input = &l.buffer[..l.entry.items(x)];
            let t0 = Instant::now();
            let launch = m.tracer.span("op", op, |tr| {
                layers::run_managed(tr, op, &l.manager, x, input, Mode::Sampled)
            });
            let ns = t0.elapsed().as_nanos() as u64;
            match launch {
                Ok(launch) => {
                    let verdict = self.check(lane, x, scan, scans, &launch);
                    m.record(
                        ns,
                        verdict,
                        launch.sim_us,
                        &[
                            launch.variant as u64,
                            launch.cache_hits,
                            launch.cache_misses,
                        ],
                    );
                }
                Err(e) => m.record(ns, Err(e), 0.0, &[]),
            }
        }
        let mut counts = Counts::default();
        for (l, b) in self.lanes.iter().zip(&before) {
            counts.add(&layers::manager_counts(&l.manager).since(b));
        }
        m.finish(counts)
    }
}
