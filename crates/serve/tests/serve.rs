//! Integration suite for the serving plane: admission, bounded queues,
//! shedding, deadline propagation, weighted-fair drain, coalescing, and
//! graceful shutdown. Determinism comes from gate injectors (worker
//! threads block until a test opens the gate) rather than sleeps.

use std::sync::{Arc, Condvar, Mutex};

use adaptic::{ExecMode, Fault, FaultInjector, FaultPlan, InputAxis, RetryPolicy};
use adaptic_apps::programs;
use adaptic_serve::{
    Outcome, RejectReason, Request, Server, ServerConfig, ShedReason, TenantPolicy,
};
use streamir::graph::Program;

fn sasum() -> Program {
    programs::sasum().program
}

fn axis() -> InputAxis {
    InputAxis::total_size("N", 256, 1 << 18)
}

fn data(n: usize) -> Arc<Vec<f32>> {
    Arc::new((0..n).map(|i| (i % 7) as f32 - 3.0).collect())
}

fn server(workers: usize, global_cap: usize) -> Server {
    Server::start(ServerConfig {
        workers,
        global_queue_cap: global_cap,
        ..ServerConfig::default()
    })
}

/// Blocks every launch attempt until the test opens it; injects nothing.
/// Carrying an injector also (deliberately) opts the request out of
/// coalescing, so gated requests serve one-by-one.
#[derive(Debug)]
struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn closed() -> Arc<Gate> {
        Arc::new(Gate {
            open: Mutex::new(false),
            cv: Condvar::new(),
        })
    }

    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }
}

impl FaultInjector for Gate {
    fn on_launch(&self, _kernel: &str) -> Option<Fault> {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
        None
    }
}

#[test]
fn round_trip_serves_and_bills() {
    let s = server(2, 64);
    s.register_tenant("acme", &sasum(), &axis(), TenantPolicy::default())
        .unwrap();
    let n = 4096usize;
    let input = data(n);
    let expected: f32 = input.iter().map(|v| v.abs()).sum();
    let ticket = s.submit("acme", Request::new(n as i64, input)).unwrap();
    match ticket.wait() {
        Outcome::Completed(c) => {
            assert!((c.report.output[0] - expected).abs() <= expected * 1e-5);
            assert!(c.deadline_met, "no deadline means always met");
            assert!(!c.coalesced);
        }
        other => panic!("expected completion, got {other:?}"),
    }
    let snap = s.tenant_telemetry("acme").unwrap();
    assert_eq!(snap.admitted, 1);
    assert_eq!(snap.launches, 1);
    assert_eq!(
        snap.rejected_quota + snap.rejected_queue_full + snap.rejected_deadline,
        0
    );
    assert!(s.tenant_telemetry("nobody").is_none());
}

#[test]
fn unknown_and_duplicate_tenants_are_rejected() {
    let s = server(1, 8);
    assert_eq!(
        s.submit("ghost", Request::new(512, data(512))).unwrap_err(),
        RejectReason::UnknownTenant
    );
    s.register_tenant("a", &sasum(), &axis(), TenantPolicy::default())
        .unwrap();
    assert!(s
        .register_tenant("a", &sasum(), &axis(), TenantPolicy::default())
        .is_err());
}

#[test]
fn token_bucket_quota_rejects_typed() {
    let s = server(1, 64);
    // Fixed budget of 2 admissions, no refill.
    let policy = TenantPolicy::default().with_quota(2.0, 0.0);
    s.register_tenant("metered", &sasum(), &axis(), policy)
        .unwrap();
    let input = data(512);
    let t1 = s.submit("metered", Request::new(512, Arc::clone(&input)));
    let t2 = s.submit("metered", Request::new(512, Arc::clone(&input)));
    assert!(t1.is_ok() && t2.is_ok());
    assert_eq!(
        s.submit("metered", Request::new(512, input)).unwrap_err(),
        RejectReason::QuotaExhausted
    );
    assert_eq!(
        s.counters("metered", |c| c.admitted()).unwrap(),
        2,
        "rejected requests are not admitted"
    );
    let snap = s.tenant_telemetry("metered").unwrap();
    assert_eq!(snap.rejected_quota, 1);
    for t in [t1.unwrap(), t2.unwrap()] {
        assert!(matches!(t.wait(), Outcome::Completed(_)));
    }
}

#[test]
fn bounded_queue_rejects_queue_full_when_nothing_is_sheddable() {
    let s = server(1, 64);
    let policy = TenantPolicy::default()
        .with_queue_cap(2)
        .with_quota(64.0, 0.0);
    s.register_tenant("bursty", &sasum(), &axis(), policy)
        .unwrap();
    let gate = Gate::closed();
    let input = data(512);
    // Occupy the single worker behind the gate…
    let blocked = s
        .submit(
            "bursty",
            Request::new(512, Arc::clone(&input)).with_faults(gate.clone()),
        )
        .unwrap();
    // Give the worker time to dequeue the gated request, so the FIFO is
    // empty when we start filling it.
    std::thread::sleep(std::time::Duration::from_millis(20));
    // …then fill the bounded FIFO. No deadlines anywhere, so nothing is
    // sheddable and the third queued request must be refused.
    let q1 = s.submit("bursty", Request::new(512, Arc::clone(&input)));
    let q2 = s.submit("bursty", Request::new(512, Arc::clone(&input)));
    assert!(q1.is_ok() && q2.is_ok());
    assert_eq!(
        s.submit("bursty", Request::new(512, Arc::clone(&input)))
            .unwrap_err(),
        RejectReason::QueueFull
    );
    assert_eq!(s.tenant_telemetry("bursty").unwrap().rejected_queue_full, 1);
    gate.open();
    for t in [blocked, q1.unwrap(), q2.unwrap()] {
        assert!(matches!(t.wait(), Outcome::Completed(_)));
    }
}

#[test]
fn infeasible_deadlines_are_rejected_up_front() {
    let s = server(1, 64);
    s.register_tenant("dl", &sasum(), &axis(), TenantPolicy::default())
        .unwrap();
    // A deadline in the past leaves zero budget: corrected_cost + backlog
    // can never fit, on any device.
    let req = Request::new(1 << 18, data(1 << 18)).with_deadline_at(s.now_us());
    assert_eq!(
        s.submit("dl", req).unwrap_err(),
        RejectReason::DeadlineInfeasible
    );
    let snap = s.tenant_telemetry("dl").unwrap();
    assert_eq!(snap.rejected_deadline, 1);
    assert_eq!(snap.admitted, 0);
}

#[test]
fn queued_requests_past_deadline_are_shed_not_run() {
    let s = server(1, 64);
    s.register_tenant("late", &sasum(), &axis(), TenantPolicy::default())
        .unwrap();
    let gate = Gate::closed();
    let input = data(512);
    let blocked = s
        .submit(
            "late",
            Request::new(512, Arc::clone(&input)).with_faults(gate.clone()),
        )
        .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(10));
    // Generous-now, hopeless-soon deadlines: feasible at admission (the
    // device is idle by the ledger), stale by the time the gate opens.
    let soon = s.now_us() + 15_000;
    let t1 = s
        .submit(
            "late",
            Request::new(512, Arc::clone(&input)).with_deadline_at(soon),
        )
        .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(40));
    gate.open();
    assert!(matches!(blocked.wait(), Outcome::Completed(_)));
    assert!(
        matches!(t1.wait(), Outcome::Shed(ShedReason::DeadlinePassed)),
        "stale queued work must be shed, not served late"
    );
    assert_eq!(s.tenant_telemetry("late").unwrap().shed_deadline, 1);
}

#[test]
fn deadline_caps_the_retry_watchdog() {
    let s = server(1, 64);
    // Patient per-tenant retry policy: without a deadline the ladder
    // would retry/backoff at length.
    let policy = TenantPolicy::default().with_retry(RetryPolicy {
        max_attempts: 10,
        backoff_base_us: 2_000,
        backoff_cap_us: 50_000,
        deadline_us: 0,
    });
    s.register_tenant("impatient", &sasum(), &axis(), policy)
        .unwrap();
    let faults: Arc<dyn FaultInjector + Send + Sync> = Arc::new(FaultPlan::new(7).with_rate(1.0));
    let budget_us = 30_000u64;
    let deadline = s.now_us() + budget_us;
    let started = std::time::Instant::now();
    let t = s
        .submit(
            "impatient",
            Request::new(4096, data(4096))
                .with_deadline_at(deadline)
                .with_faults(faults),
        )
        .unwrap();
    let outcome = t.wait();
    let elapsed_us = started.elapsed().as_micros() as u64;
    // The watchdog must cut the ladder near the budget — not after the
    // full 10-attempt backoff schedule (which alone exceeds 150ms).
    assert!(
        elapsed_us < budget_us * 5,
        "deadline did not bound the retry ladder: {elapsed_us}us"
    );
    let snap = s.tenant_telemetry("impatient").unwrap();
    match outcome {
        // Either the ladder failed out within budget or a degraded run
        // squeaked through — both respect the deadline contract.
        Outcome::Failed(_) | Outcome::Completed(_) => {}
        other => panic!("unexpected outcome {other:?}"),
    }
    assert!(
        snap.deadline_overruns > 0 || snap.faults_observed > 0,
        "the fault ladder must have been engaged"
    );
}

#[test]
fn weighted_fair_drain_prefers_heavy_tenants() {
    let s = server(1, 256);
    let heavy = TenantPolicy::default()
        .with_weight(4.0)
        .with_quota(64.0, 0.0);
    let light = TenantPolicy::default()
        .with_weight(1.0)
        .with_quota(64.0, 0.0);
    s.register_tenant("heavy", &sasum(), &axis(), heavy)
        .unwrap();
    s.register_tenant("light", &sasum(), &axis(), light)
        .unwrap();
    let gate = Gate::closed();
    let input = data(512);
    let blocked = s
        .submit(
            "light",
            Request::new(512, Arc::clone(&input)).with_faults(gate.clone()),
        )
        .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(10));
    let mut tickets = Vec::new();
    for _ in 0..8 {
        tickets.push((
            "heavy",
            s.submit("heavy", Request::new(512, Arc::clone(&input)))
                .unwrap(),
        ));
        tickets.push((
            "light",
            s.submit("light", Request::new(512, Arc::clone(&input)))
                .unwrap(),
        ));
    }
    gate.open();
    assert!(matches!(blocked.wait(), Outcome::Completed(_)));
    let mut finished: Vec<(&str, u64)> = tickets
        .into_iter()
        .map(|(who, t)| match t.wait() {
            Outcome::Completed(c) => (who, c.finished_at_us),
            other => panic!("expected completion, got {other:?}"),
        })
        .collect();
    finished.sort_by_key(|(_, at)| *at);
    let heavy_in_first_half = finished[..8].iter().filter(|(w, _)| *w == "heavy").count();
    assert!(
        heavy_in_first_half >= 6,
        "4:1 weights should front-load the heavy tenant, got {heavy_in_first_half}/8"
    );
}

#[test]
fn identical_sampled_launches_coalesce_across_tenants() {
    let s = server(2, 256);
    for name in ["blue", "green"] {
        s.register_tenant(name, &sasum(), &axis(), TenantPolicy::default())
            .unwrap();
    }
    // One shared input buffer (coalescing keys on Arc identity), sampled
    // execution (the only coalescable mode), heavy enough that the two
    // workers overlap on the same key.
    let x = 1i64 << 18;
    let input = data(x as usize);
    let mode = ExecMode::SampledExec(1 << 16);
    let mut tickets = Vec::new();
    for _round in 0..3 {
        for name in ["blue", "green"] {
            tickets.push((
                name,
                s.submit(name, Request::new(x, Arc::clone(&input)).with_mode(mode))
                    .unwrap(),
            ));
        }
    }
    for (_, t) in tickets {
        assert!(matches!(t.wait(), Outcome::Completed(_)));
    }
    let rollup = s.rollup().unwrap();
    let completed: u64 = ["blue", "green"]
        .iter()
        .map(|n| s.counters(n, |c| c.completed()).unwrap())
        .sum();
    assert_eq!(completed, 6);
    assert_eq!(rollup.admitted, 6);
    // Exactly-once accounting for the work itself: every completion was
    // either a real launch (counted once, by the leader's manager) or a
    // coalesced ride-along — never both, never neither.
    assert_eq!(
        rollup.launches + rollup.coalesced,
        completed,
        "launches {} + coalesced {} != completed {completed}",
        rollup.launches,
        rollup.coalesced
    );
    assert!(
        rollup.coalesced >= 1,
        "identical overlapping launches never coalesced"
    );
    assert!(rollup.launches < 6, "coalescing must deduplicate launches");
}

#[test]
fn graceful_drain_serves_then_sheds_and_reports() {
    let s = server(1, 256);
    s.register_tenant(
        "t",
        &sasum(),
        &axis(),
        TenantPolicy::default().with_quota(64.0, 0.0),
    )
    .unwrap();
    let gate = Gate::closed();
    let input = data(512);
    let blocked = s
        .submit(
            "t",
            Request::new(512, Arc::clone(&input)).with_faults(gate.clone()),
        )
        .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(10));
    let queued: Vec<_> = (0..4)
        .map(|_| {
            s.submit("t", Request::new(512, Arc::clone(&input)))
                .unwrap()
        })
        .collect();
    // Shut down with a tiny drain budget while the worker is stuck: the
    // in-flight request finishes (workers are joined), queued ones shed.
    let handle = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(30));
        gate.open();
    });
    let report = s.shutdown(5_000);
    handle.join().unwrap();
    assert!(!report.drained_clean);
    assert_eq!(report.total_shed, 4);
    assert_eq!(report.shed, vec![("t".to_string(), 4)]);
    assert!(matches!(blocked.wait(), Outcome::Completed(_)));
    for t in queued {
        assert!(
            matches!(t.wait(), Outcome::Shed(ShedReason::Draining)),
            "every queued request must get its terminal outcome"
        );
    }
}

#[test]
fn clean_shutdown_drains_everything() {
    let s = server(2, 64);
    s.register_tenant("t", &sasum(), &axis(), TenantPolicy::default())
        .unwrap();
    let input = data(2048);
    let tickets: Vec<_> = (0..6)
        .map(|_| {
            s.submit("t", Request::new(2048, Arc::clone(&input)))
                .unwrap()
        })
        .collect();
    let report = s.shutdown(10_000_000);
    assert!(report.drained_clean);
    assert_eq!(report.total_shed, 0);
    for t in tickets {
        assert!(matches!(t.wait(), Outcome::Completed(_)));
    }
}

#[test]
fn multi_tenant_burst_accounts_exactly_once() {
    // Two tenants sharing the physical fleet (the device backlog ledgers
    // are shared; the cross-fleet steering itself is pinned by the
    // `shared_queues_make_backlog_visible_across_fleets` unit test in
    // `adaptic::fleet`). Every admitted request must resolve to exactly
    // one outcome and exactly one unit of accounting.
    let s = server(2, 256);
    for name in ["a", "b"] {
        s.register_tenant(name, &sasum(), &axis(), TenantPolicy::default())
            .unwrap();
    }
    let x = 1i64 << 14;
    let input = data(x as usize);
    let tickets: Vec<_> = (0..12)
        .map(|i| {
            let name = if i % 2 == 0 { "a" } else { "b" };
            s.submit(name, Request::new(x, Arc::clone(&input))).unwrap()
        })
        .collect();
    for t in tickets {
        assert!(matches!(t.wait(), Outcome::Completed(_)));
    }
    let rollup = s.rollup().unwrap();
    assert_eq!(rollup.launches, 12, "Full mode never coalesces");
    assert_eq!(rollup.admitted, 12);
    for name in ["a", "b"] {
        let (admitted, completed, failed, shed) = s
            .counters(name, |c| {
                (c.admitted(), c.completed(), c.failed(), c.shed_deadline())
            })
            .unwrap();
        assert_eq!(admitted, completed + failed + shed);
        assert_eq!(admitted, 6);
        // The exported snapshot carries the same outcome rows.
        let t = s.tenant_telemetry(name).unwrap();
        assert_eq!(t.admitted, t.completed + t.failed + t.shed_deadline);
        assert_eq!((t.admitted, t.completed), (admitted, completed));
    }
    assert_eq!(rollup.completed, 12);
}
