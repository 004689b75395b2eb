//! `drift_replan`: one op is one firing of a dynamic-rate region, every
//! element executed, over a seeded trace: regime flips between small and
//! large rates, then a diurnal ramp. The region resolves its plans through
//! an artifact store.
//!
//! This puts `plan` and `artifact` on the hot path — re-plans when the
//! rate leaves the planned window, store hits when a regime comes back,
//! clamp-served firings in between — the same layers as `compile_boot`,
//! used differently, under `resched`'s governor. The re-plan firings are
//! the tail of the latency distribution.
//!
//! One pass replays the trace through a fresh region over an empty store,
//! so every pass does the same work. Every firing's output is compared
//! with the interpreter's, and every pass must serve each firing exactly
//! once: `launches + clamped == firings`.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use super::{check_output, corrupt, Limit, Meter, Outcome, Workload};
use crate::corpus::{self, Entry};
use crate::gen::{data, diurnal, rank_match, regime_flip, Lcg, LADDER_SEED};
use crate::layers::{self, Counts, Program};

/// The flips dwell twice in the small regime for once in the large one,
/// so that more than half of a pass's firings are small: the median
/// firing then sits inside the small regime, not on the slope between two.
const FLIP_FIRINGS: usize = 288;
const FLIP_DWELL: usize = 16;
const RAMP_FIRINGS: usize = 96;
const RAMP_PERIOD: usize = 48;
/// Each rate moves by up to this share of itself with the seed.
const JITTER: f64 = 0.02;

pub struct DriftReplan {
    entry: &'static Entry,
    program: Program,
    trace: Vec<i64>,
    /// One buffer; a firing at rate `x` consumes its first `x` values.
    buffer: Vec<f32>,
    /// The interpreter's output per distinct rate in the trace.
    references: HashMap<i64, Vec<f32>>,
    store_root: PathBuf,
    passes: u64,
}

impl Workload for DriftReplan {
    const NAME: &'static str = "drift_replan";
    const PREFIX_OPS: u64 = (FLIP_FIRINGS + RAMP_FIRINGS) as u64;

    fn setup(seed: u64, scratch: &Path) -> Result<DriftReplan, String> {
        let entry = corpus::entry("nrm2");
        let rate = entry.dynamic.expect("nrm2 declares a dynamic rate");
        let program = layers::program_of(entry);
        // Each half of the seed's trace is matched onto a fixed ladder of
        // rates: the flips and the ramp stay where the seed put them, the
        // work they carry is the same for every seed.
        let small = (rate.lo, rate.lo * 4);
        let large = (rate.hi / 4, rate.hi);
        let flips = |s| regime_flip(FLIP_FIRINGS, &[small, small, large], FLIP_DWELL, s);
        let ramp = |s| diurnal(RAMP_FIRINGS, rate.lo, rate.hi, RAMP_PERIOD, 0.1, s);
        let mut g = Lcg::new(seed);
        let mut trace = rank_match(&flips(seed), &flips(LADDER_SEED), JITTER, &mut g);
        trace.extend(rank_match(&ramp(seed), &ramp(LADDER_SEED), JITTER, &mut g));
        for x in &mut trace {
            *x = (*x).clamp(rate.lo, rate.hi);
        }
        let buffer = data(rate.hi as usize, seed);
        let mut references = HashMap::new();
        for &x in &trace {
            references
                .entry(x)
                .or_insert_with(|| layers::interpret(&program, entry, x, &buffer[..x as usize]));
        }
        Ok(DriftReplan {
            entry,
            program,
            trace,
            buffer,
            references,
            store_root: scratch.join("drift"),
            passes: 0,
        })
    }

    fn corrupt_reference(&mut self) {
        let x = self.trace[0];
        corrupt(&mut self.references.get_mut(&x).expect("reference per rate")[0]);
    }

    fn run(&mut self, limit: Limit, traced: bool) -> Outcome {
        let mut m = Meter::passes(limit, traced, self.trace.len());
        let mut counts = Counts::default();
        while m.more() {
            // A fresh region over an empty store: untimed, like set-up.
            self.passes += 1;
            let dir = self.store_root.join(self.passes.to_string());
            let store = Arc::new(layers::open_store(&dir));
            let mut region = match layers::new_region(
                &self.program,
                &layers::main_device(),
                self.trace[0],
                Arc::clone(&store),
            ) {
                Ok(r) => r,
                Err(e) => {
                    m.out.fail(format!(
                        "region for `{}` does not plan: {e}",
                        self.entry.name
                    ));
                    break;
                }
            };
            let mut served = 0u64;
            for &x in &self.trace {
                let op = m.out.attempted;
                let input = &self.buffer[..x as usize];
                let t0 = Instant::now();
                let launch = m.tracer.span("op", op, |tr| {
                    layers::run_region(tr, op, &mut region, x, input)
                });
                let ns = t0.elapsed().as_nanos() as u64;
                served += 1;
                match launch {
                    Ok(l) => m.record(
                        ns,
                        check_output(&l.output, &self.references[&x]),
                        l.sim_us,
                        &[l.variant as u64],
                    ),
                    Err(e) => m.record(ns, Err(e), 0.0, &[]),
                }
            }
            let mut c = layers::region_counts(&region);
            if c.launches + c.clamped != served {
                m.out.fail(format!(
                    "accounting: {served} firings, {} launches + {} clamped",
                    c.launches, c.clamped
                ));
            }
            // The region reports the store's counters through its
            // telemetry; take them from the store itself instead.
            let s = layers::store_counts(&store);
            (c.artifact_hits, c.artifact_misses, c.artifact_rejects) =
                (s.artifact_hits, s.artifact_misses, s.artifact_rejects);
            c.region_store_hits = s.artifact_hits;
            counts.add(&c);
            drop(region);
            let _ = std::fs::remove_dir_all(&dir);
        }
        m.finish(counts)
    }
}
