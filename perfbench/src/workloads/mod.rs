//! The six workloads and what they share: the run limit, the outcome of
//! a run, output checking against the interpreter's reference, and the
//! bookkeeping of a single-threaded closed loop.

use std::path::Path;
use std::time::Instant;

use crate::layers::Counts;
use crate::stats::windowed_rate;
use crate::trace::Tracer;

pub mod compile_boot;
pub mod drift_replan;
pub mod exec_full;
pub mod launch_steady;
pub mod serve_closed;
pub mod serve_open;

/// A run stops at whichever comes first.
#[derive(Debug, Clone, Copy)]
pub struct Limit {
    pub seconds: f64,
    pub max_ops: u64,
}

impl Limit {
    pub fn seconds(seconds: f64) -> Limit {
        Limit {
            seconds,
            max_ops: u64::MAX,
        }
    }

    pub fn ops(max_ops: u64) -> Limit {
        Limit {
            seconds: f64::INFINITY,
            max_ops,
        }
    }
}

/// What the serving workloads observe from their replies.
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// `Completion::queued_us` of every completed request.
    pub queued_us: Vec<u64>,
    /// Submit-to-reply (closed) or due-to-reply (open) of the same, µs.
    pub latency_us: Vec<u64>,
    /// Completed, but after the deadline.
    pub late: u64,
    /// Launches stopped by the deadline watchdog.
    pub deadline_killed: u64,
    /// Launches that ran to completion, on time or not.
    pub completed: u64,
    /// Per rate step of the open loop: (offered, on time, schedule seconds).
    pub steps: Vec<(u64, u64, f64)>,
    /// How late the open-loop generator sent each request, µs.
    pub lag_us: Vec<u64>,
    /// Smallest inter-arrival gap of the schedule, µs.
    pub min_gap_us: f64,
}

/// Everything one run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Verified against the reference, and on time where a deadline exists.
    pub ok: u64,
    /// Wrong output, unexpected error or broken accounting.
    pub failed: u64,
    pub first_error: Option<String>,
    /// Host latency of each op that is a sample of `op_ms_p50/p95`, in the
    /// order the ops ended. A reported percentile is the median over
    /// consecutive windows of this list of each window's percentile.
    pub lat_ns: Vec<u64>,
    /// Ops of one pass, for a loop that repeats one list of ops: windows
    /// are whole passes. 0 for a workload that draws its ops.
    pub pass_ops: usize,
    /// Host seconds `ops_per_s` divides by: a single-threaded loop's op
    /// count over its median pace, the wall-clock of the closed-loop
    /// clients, the schedule's length in the open loop.
    pub busy_s: f64,
    /// Simulated device µs over the first `sim_ops` ops: a fixed op set,
    /// so the same seed gives the same value whatever the run length.
    pub sim_us: f64,
    pub sim_ops: u64,
    /// Digest of the choices made over the same fixed op set.
    pub digest: u64,
    pub counts: Counts,
    pub serve: Option<ServeStats>,
    pub tracers: Vec<Tracer>,
}

impl Outcome {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_error.get_or_insert(why);
    }
}

/// One of the six workloads. `setup` builds everything a run needs from
/// the seed: inputs, reference outputs from the interpreter, plans,
/// managers, servers. The program under test sees only those inputs.
/// `scratch` is a directory inside the checkout for artifact stores.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// Ops of the in-process determinism check; 0 for a workload whose
    /// clients run on several threads.
    const PREFIX_OPS: u64;
    fn setup(seed: u64, scratch: &Path) -> Result<Self, String>;
    /// Damage one expected value, for `--self-test`.
    fn corrupt_reference(&mut self);
    fn run(&mut self, limit: Limit, traced: bool) -> Outcome;
}

/// Relative tolerance of an output against the interpreter's: the
/// compiled reductions add in tree order, the interpreter in stream order.
pub const REL_TOL: f32 = 1e-3;

/// `Ok` when `got` equals `want` within [`REL_TOL`] of `max(|want|, 1)`.
pub fn check_output(got: &[f32], want: &[f32]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "output has {} items, reference {}",
            got.len(),
            want.len()
        ));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let off = (g - w).abs();
        if off.is_nan() || off > REL_TOL * w.abs().max(1.0) {
            return Err(format!("output[{i}] = {g}, reference {w}"));
        }
    }
    Ok(())
}

/// Move a reference value well outside the tolerance.
pub fn corrupt(v: &mut f32) {
    *v += 1.0 + v.abs();
}

/// Order-sensitive 64-bit digest (FNV-1a over words).
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn push(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Bookkeeping of a single-threaded closed loop: one op at a time, its
/// latency taken around the layer calls only, checking done off the clock.
pub struct Meter {
    limit: Limit,
    started: Instant,
    pub tracer: Tracer,
    pub out: Outcome,
    digest: Digest,
    /// Ops whose simulated time and choices feed `sim_us` and the digest.
    sim_window: u64,
}

impl Meter {
    /// For a loop that draws its ops; the first `sim_window` of them are
    /// the fixed set behind `sim_us_per_op`.
    pub fn new(limit: Limit, traced: bool, sim_window: u64) -> Meter {
        let started = Instant::now();
        Meter {
            limit,
            started,
            tracer: if traced {
                Tracer::on(started)
            } else {
                Tracer::off()
            },
            out: Outcome::default(),
            digest: Digest::new(),
            sim_window,
        }
    }

    /// For a loop that repeats one pass of `pass_ops` ops; the first pass
    /// is the fixed set.
    pub fn passes(limit: Limit, traced: bool, pass_ops: usize) -> Meter {
        let mut m = Meter::new(limit, traced, pass_ops as u64);
        m.out.pass_ops = pass_ops;
        m
    }

    /// True while the limit allows another pass. Loops ask between whole
    /// passes over their op list, never inside one, so every run measures
    /// the same mix of ops however long it is.
    pub fn more(&self) -> bool {
        self.out.attempted < self.limit.max_ops
            && self.started.elapsed().as_secs_f64() < self.limit.seconds
    }

    /// Account one op: its latency, its verdict, and (inside the window)
    /// its simulated time and the words describing its choices.
    pub fn record(&mut self, ns: u64, verdict: Result<(), String>, sim_us: f64, choices: &[u64]) {
        if self.out.attempted < self.sim_window {
            self.out.sim_us += sim_us;
            self.out.sim_ops += 1;
            self.digest.push(sim_us.to_bits());
            for &c in choices {
                self.digest.push(c);
            }
        }
        self.out.attempted += 1;
        self.out.lat_ns.push(ns);
        match verdict {
            Ok(()) => self.out.ok += 1,
            Err(why) => self.out.fail(why),
        }
    }

    /// The run's length is taken at its median pace: summed op latencies
    /// (checking is off the clock), a stalled window left out.
    pub fn finish(mut self, counts: Counts) -> Outcome {
        let pace = windowed_rate(&self.out.lat_ns, self.out.pass_ops);
        self.out.busy_s = self.out.attempted as f64 / pace.max(1e-9);
        self.out.digest = self.digest.value();
        self.out.counts = counts;
        self.out.tracers = vec![self.tracer];
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_check_is_relative_and_rejects_nan() {
        assert!(check_output(&[1000.5], &[1000.0]).is_ok());
        assert!(check_output(&[1002.0], &[1000.0]).is_err());
        assert!(check_output(&[0.0005], &[0.0]).is_ok());
        assert!(check_output(&[f32::NAN], &[0.0]).is_err());
        assert!(check_output(&[1.0, 2.0], &[1.0]).is_err());
        let mut v = 3.0;
        corrupt(&mut v);
        assert!(check_output(&[3.0], &[v]).is_err());
    }

    #[test]
    fn digest_depends_on_order() {
        let (mut a, mut b) = (Digest::new(), Digest::new());
        a.push(1);
        a.push(2);
        b.push(2);
        b.push(1);
        assert_ne!(a.value(), b.value());
    }
}
