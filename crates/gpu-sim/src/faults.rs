//! Deterministic, seed-driven fault injection for the simulated device.
//!
//! A production runtime treats kernel failure as an *expected* event: real
//! devices reject launches under resource pressure, kernels hit asserts,
//! watchdogs kill hung grids, and counter readbacks occasionally return
//! garbage. This module lets tests and chaos harnesses script those events
//! deterministically, so the resilient launch pipeline upstream (retry,
//! fallback, variant quarantine in `adaptic`) can be exercised and its
//! bit-identical-recovery guarantee checked on every CI run.
//!
//! The pieces:
//!
//! * [`Fault`] / [`FaultKind`] — the taxonomy of injectable failures;
//! * [`FaultInjector`] — the hook the execution engines consult once per
//!   launch attempt ([`crate::exec::try_launch_pooled`]);
//! * [`FaultPlan`] — the standard injector: a seeded, rate-limited,
//!   optionally kernel-targeted and windowed schedule. The same seed
//!   always produces the same fault sequence, so a red chaos run replays
//!   exactly;
//! * [`LaunchError`] — how an injected (or genuine) failure surfaces from
//!   a fallible launch;
//! * [`LaunchControl`] — per-launch knobs (injector, deadline budget)
//!   threaded through the engines.
//!
//! Injection is *observable but transient*: a faulted launch either
//! returns a typed [`LaunchError`] before or instead of completing, or (for
//! [`FaultKind::StatCorruption`]) produces counters that fail the engine's
//! sanity gate and are rejected the same way. Kernels never write their
//! input buffers, so a retried launch recomputes byte-identical output —
//! the invariant the conformance chaos suite pins.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The taxonomy of injectable faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The device rejects the launch outright (driver out of resources).
    LaunchReject,
    /// A block worker panics mid-grid (kernel assert, simulated ECC trap).
    MidBlockPanic,
    /// Counter readback returns garbage: the stats fail the sanity gate.
    StatCorruption,
    /// The grid hangs; the watchdog fires and the launch overruns its
    /// deadline budget.
    Hang,
    /// The device loses SMs (thermal throttle / partial reset) and refuses
    /// the launch until it recovers.
    DegradedSm,
}

impl FaultKind {
    /// Every injectable kind, in a stable order (used by seeded plans to
    /// pick a kind deterministically).
    pub const ALL: [FaultKind; 5] = [
        FaultKind::LaunchReject,
        FaultKind::MidBlockPanic,
        FaultKind::StatCorruption,
        FaultKind::Hang,
        FaultKind::DegradedSm,
    ];
}

/// One concrete fault to inject into one launch attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Reject before executing anything.
    LaunchReject,
    /// Panic the worker that executes this (executed-index, modulo the
    /// grid's executed-block count) block.
    MidBlockPanic { after_blocks: u32 },
    /// Complete the launch but corrupt the merged counters.
    StatCorruption,
    /// Hang until the watchdog fires (simulated: the launch reports a
    /// deadline overrun without executing).
    Hang,
    /// Report the device degraded to this many SMs and refuse the launch.
    DegradedSm { remaining_sms: u32 },
}

impl Fault {
    /// The kind this concrete fault belongs to.
    pub fn kind(&self) -> FaultKind {
        match self {
            Fault::LaunchReject => FaultKind::LaunchReject,
            Fault::MidBlockPanic { .. } => FaultKind::MidBlockPanic,
            Fault::StatCorruption => FaultKind::StatCorruption,
            Fault::Hang => FaultKind::Hang,
            Fault::DegradedSm { .. } => FaultKind::DegradedSm,
        }
    }
}

/// The hook the engine consults once per launch attempt.
///
/// Implementations must be `Sync` (parallel launches and concurrent
/// kernel-management callers share one injector) and deterministic for a
/// fixed construction + consultation order, so chaos runs replay.
pub trait FaultInjector: fmt::Debug + Sync {
    /// Called once at the start of every launch attempt with the kernel's
    /// name. Returning `Some` makes the engine inject that fault.
    fn on_launch(&self, kernel: &str) -> Option<Fault>;

    /// Total faults handed out so far (telemetry).
    fn injected(&self) -> u64 {
        0
    }
}

/// SplitMix64 — the same tiny deterministic mixer the test harnesses use.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// A deterministic, seed-driven fault schedule.
///
/// Every consultation advances an attempt counter; whether attempt `n`
/// faults — and which [`FaultKind`] it gets — is a pure function of
/// `(seed, n)`, so two runs with the same plan construction and the same
/// launch order see the same faults. The plan can be *targeted* (only
/// kernels whose name contains a substring fault) and *windowed* (faults
/// fire only while the counter is inside `[start, end)`), which is how the
/// chaos demo scripts "variant X is flaky for a while, then recovers".
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    /// Probability, in [0, 1], that a consulted attempt faults.
    rate: f64,
    kinds: Vec<FaultKind>,
    target: Option<String>,
    /// Half-open `[start, end)` window on the attempt counter.
    window: Option<(u64, u64)>,
    consulted: AtomicU64,
    injected: AtomicU64,
}

impl FaultPlan {
    /// A plan over every fault kind at a 25% per-attempt rate.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rate: 0.25,
            kinds: FaultKind::ALL.to_vec(),
            target: None,
            window: None,
            consulted: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }
    }

    /// Set the per-attempt fault probability (clamped to [0, 1]).
    pub fn with_rate(mut self, rate: f64) -> FaultPlan {
        self.rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Restrict the plan to these fault kinds.
    ///
    /// # Panics
    ///
    /// Panics when `kinds` is empty — a plan that can fault but has no
    /// kind to inject is a configuration bug.
    pub fn with_kinds(mut self, kinds: Vec<FaultKind>) -> FaultPlan {
        assert!(!kinds.is_empty(), "fault plan needs at least one kind");
        self.kinds = kinds;
        self
    }

    /// Only fault kernels whose name contains `substr`.
    pub fn targeting(mut self, substr: &str) -> FaultPlan {
        self.target = Some(substr.to_string());
        self
    }

    /// Only fault while the attempt counter is in `[start, end)`; outside
    /// the window the plan is inert (the "flaky for a while" schedule).
    pub fn with_window(mut self, start: u64, end: u64) -> FaultPlan {
        self.window = Some((start, end));
        self
    }

    /// Launch attempts consulted so far.
    pub fn consulted(&self) -> u64 {
        self.consulted.load(Ordering::Relaxed)
    }
}

impl FaultInjector for FaultPlan {
    fn on_launch(&self, kernel: &str) -> Option<Fault> {
        let n = self.consulted.fetch_add(1, Ordering::Relaxed);
        if let Some((start, end)) = self.window {
            if n < start || n >= end {
                return None;
            }
        }
        if let Some(t) = &self.target {
            if !kernel.contains(t.as_str()) {
                return None;
            }
        }
        let h = splitmix64(self.seed ^ n.wrapping_mul(0x9e3779b97f4a7c15));
        // Top 53 bits → uniform in [0, 1).
        let draw = (h >> 11) as f64 / (1u64 << 53) as f64;
        if draw >= self.rate {
            return None;
        }
        let h2 = splitmix64(h);
        let kind = self.kinds[(h2 % self.kinds.len() as u64) as usize];
        let h3 = splitmix64(h2);
        let fault = match kind {
            FaultKind::LaunchReject => Fault::LaunchReject,
            FaultKind::MidBlockPanic => Fault::MidBlockPanic {
                after_blocks: (h3 % 64) as u32,
            },
            FaultKind::StatCorruption => Fault::StatCorruption,
            FaultKind::Hang => Fault::Hang,
            FaultKind::DegradedSm => Fault::DegradedSm {
                remaining_sms: (h3 % 4) as u32,
            },
        };
        self.injected.fetch_add(1, Ordering::Relaxed);
        Some(fault)
    }

    fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }
}

/// How a fallible launch failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaunchError {
    /// The device rejected the launch before executing anything.
    Rejected,
    /// A block worker panicked; the engine isolated it and rolled the
    /// launch up as failed. `message` is the panic payload when it was a
    /// string.
    WorkerPanic { message: String },
    /// The launch overran its deadline budget (real overrun or the
    /// simulated watchdog of an injected [`Fault::Hang`]).
    DeadlineExceeded { elapsed_us: u64, budget_us: u64 },
    /// The device reported itself degraded (fewer live SMs than the spec)
    /// and refused the launch.
    DeviceDegraded { remaining_sms: u32 },
    /// The launch completed but its counters failed the sanity gate
    /// (non-finite or negative totals).
    CorruptStats { detail: String },
}

impl fmt::Display for LaunchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LaunchError::Rejected => write!(f, "launch rejected by the device"),
            LaunchError::WorkerPanic { message } => {
                write!(f, "launch worker panicked: {message}")
            }
            LaunchError::DeadlineExceeded {
                elapsed_us,
                budget_us,
            } => write!(
                f,
                "launch exceeded its deadline budget ({elapsed_us}us elapsed, \
                 {budget_us}us allowed)"
            ),
            LaunchError::DeviceDegraded { remaining_sms } => {
                write!(f, "device degraded to {remaining_sms} SMs; launch refused")
            }
            LaunchError::CorruptStats { detail } => {
                write!(f, "launch statistics failed the sanity gate: {detail}")
            }
        }
    }
}

impl std::error::Error for LaunchError {}

/// Per-launch control knobs threaded through the fallible engines: the
/// fault injector to consult (if any) and the wall-clock deadline budget
/// the launch must finish within.
#[derive(Debug, Clone, Copy, Default)]
pub struct LaunchControl<'a> {
    /// Injector consulted once at the start of the attempt.
    pub faults: Option<&'a dyn FaultInjector>,
    /// Host wall-clock budget; `None` disables the post-hoc watchdog
    /// (injected [`Fault::Hang`]s still report a deadline overrun).
    pub deadline: Option<Duration>,
}

impl<'a> LaunchControl<'a> {
    /// Control block with this injector and no deadline.
    pub fn with_faults(faults: &'a dyn FaultInjector) -> LaunchControl<'a> {
        LaunchControl {
            faults: Some(faults),
            deadline: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(plan: &FaultPlan, kernel: &str, n: usize) -> Vec<Option<Fault>> {
        (0..n).map(|_| plan.on_launch(kernel)).collect()
    }

    #[test]
    fn same_seed_replays_the_same_schedule() {
        let a = collect(&FaultPlan::new(42).with_rate(0.5), "k", 256);
        let b = collect(&FaultPlan::new(42).with_rate(0.5), "k", 256);
        assert_eq!(a, b);
        assert!(a.iter().any(|f| f.is_some()), "rate 0.5 must fault");
        assert!(a.iter().any(|f| f.is_none()), "rate 0.5 must also pass");
    }

    #[test]
    fn different_seeds_diverge() {
        let a = collect(&FaultPlan::new(1).with_rate(0.5), "k", 256);
        let b = collect(&FaultPlan::new(2).with_rate(0.5), "k", 256);
        assert_ne!(a, b);
    }

    #[test]
    fn rate_bounds_are_honored() {
        let never = FaultPlan::new(7).with_rate(0.0);
        assert!(collect(&never, "k", 128).iter().all(|f| f.is_none()));
        assert_eq!(never.injected(), 0);
        assert_eq!(never.consulted(), 128);

        let always = FaultPlan::new(7).with_rate(1.0);
        assert!(collect(&always, "k", 128).iter().all(|f| f.is_some()));
        assert_eq!(always.injected(), 128);
    }

    #[test]
    fn targeting_spares_other_kernels() {
        let plan = FaultPlan::new(3).with_rate(1.0).targeting("flaky");
        assert!(plan.on_launch("solid_sum").is_none());
        assert!(plan.on_launch("flaky_reduce").is_some());
        assert_eq!(plan.injected(), 1);
        assert_eq!(plan.consulted(), 2);
    }

    #[test]
    fn window_gates_the_schedule() {
        let plan = FaultPlan::new(9).with_rate(1.0).with_window(2, 4);
        let got = collect(&plan, "k", 6);
        let fired: Vec<bool> = got.iter().map(|f| f.is_some()).collect();
        assert_eq!(fired, vec![false, false, true, true, false, false]);
    }

    #[test]
    fn restricted_kinds_are_respected() {
        let plan = FaultPlan::new(5)
            .with_rate(1.0)
            .with_kinds(vec![FaultKind::Hang, FaultKind::LaunchReject]);
        for f in collect(&plan, "k", 64).into_iter().flatten() {
            assert!(
                matches!(f.kind(), FaultKind::Hang | FaultKind::LaunchReject),
                "unexpected kind {f:?}"
            );
        }
        // Over 64 draws both kinds appear.
        let kinds: std::collections::BTreeSet<_> = collect(&plan, "k", 64)
            .into_iter()
            .flatten()
            .map(|f| format!("{:?}", f.kind()))
            .collect();
        assert_eq!(kinds.len(), 2);
    }

    #[test]
    fn launch_error_display_is_lowercase_and_nonempty() {
        let cases = [
            LaunchError::Rejected,
            LaunchError::WorkerPanic {
                message: "boom".into(),
            },
            LaunchError::DeadlineExceeded {
                elapsed_us: 10,
                budget_us: 5,
            },
            LaunchError::DeviceDegraded { remaining_sms: 2 },
            LaunchError::CorruptStats {
                detail: "flops = NaN".into(),
            },
        ];
        for c in cases {
            let s = c.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn fault_kinds_round_trip() {
        for k in FaultKind::ALL {
            let f = match k {
                FaultKind::LaunchReject => Fault::LaunchReject,
                FaultKind::MidBlockPanic => Fault::MidBlockPanic { after_blocks: 3 },
                FaultKind::StatCorruption => Fault::StatCorruption,
                FaultKind::Hang => Fault::Hang,
                FaultKind::DegradedSm => Fault::DegradedSm { remaining_sms: 1 },
            };
            assert_eq!(f.kind(), k);
        }
    }
}
