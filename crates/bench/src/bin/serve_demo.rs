//! Serving-plane figure: an open-loop arrival sweep through two serving
//! configurations, demonstrating graceful degradation under overload.
//!
//! Both systems are the *same* [`adaptic_serve::Server`] — two tenants
//! over the default two-device fleet — and serve the identical
//! fixed-seed request trace (sizes interleaved from the
//! [`adaptic_bench::workloads::bursty`] and
//! [`adaptic_bench::workloads::diurnal`] generators). Only the overload
//! posture differs:
//!
//! * `bounded` — small per-tenant queues, a global cap, and a per-request
//!   deadline, so admission control rejects what cannot finish in time
//!   and the queues shed requests whose deadline passes while they wait;
//! * `unbounded` — effectively infinite queues and no declared deadline:
//!   every request is accepted and eventually served, however late. The
//!   same deadline is applied *externally* when scoring, so both systems
//!   are judged by the identical service-level objective.
//!
//! Offered load is calibrated, not hard-coded: a closed-loop warm-up
//! measures the plane's mean service time on this machine and profile,
//! and the sweep offers multiples (0.5x .. 3x) of the measured capacity.
//! The figure of merit is **goodput** — deadline-met completions per
//! second of wall clock — and the **deadline-hit rate** over everything
//! offered.
//!
//! With `--assert` the process exits non-zero unless, at every load at or
//! beyond 2x capacity, the bounded plane's goodput stays within 20% of
//! its own peak across the sweep, while the unbounded baseline's hit rate
//! at the top load has collapsed to at most half the bounded plane's; the
//! CI `serve` job runs exactly that. Writes `results/BENCH_serve.json`
//! and `results/serve_goodput.txt`. Seed comes from `ADAPTIC_SERVE_SEED`
//! (default 42).

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use adaptic::InputAxis;
use adaptic_apps::programs;
use adaptic_bench::workloads::{bursty, diurnal};
use adaptic_bench::{bench_json, data, BenchRecord};
use adaptic_serve::{Outcome, RejectReason, Request, Server, ServerConfig, TenantPolicy};
use streamir::Program;

/// Requests per run: long enough that an unbounded queue's wait grows
/// far past the deadline before the trace ends.
const REQUESTS: usize = 480;
/// Closed-loop warm-up requests per calibration thread. Calibration
/// error shifts every offered load together, so more samples here buy
/// stability for the whole sweep.
const CALIBRATION: usize = 60;
/// Offered-load multipliers over the calibrated capacity.
const LOADS: [f64; 4] = [0.5, 1.0, 2.0, 3.0];
/// Deadline per request, as a multiple of the calibrated effective
/// (concurrent) service time: generous at low load, hopeless once a
/// queue grows unboundedly.
const DEADLINE_X: u64 = 8;
/// Bounded posture: per-tenant queue depth and the global cap. Sized so
/// a full queue's wait (cap x effective service) stays near half the
/// deadline — a request the queue accepts can still finish on time.
const TENANT_QUEUE_CAP: usize = 4;
const GLOBAL_QUEUE_CAP: usize = 16;
/// Required goodput retention at >= 2x load, relative to the bounded
/// plane's peak. The peak is estimated robustly as the mean goodput
/// across the saturated (>= 1x) loads — a graceful plane's goodput
/// curve is flat there, so the mean *is* the peak, and averaging keeps
/// single-run scheduler noise from inflating the reference the way a
/// max over noisy runs would.
const RETENTION: f64 = 0.8;
/// Somewhere in the overloaded (>= 2x) band, the unbounded baseline's
/// hit rate must fall to at most this fraction of the bounded plane's.
const COLLAPSE: f64 = 0.5;

fn seed() -> u64 {
    match std::env::var("ADAPTIC_SERVE_SEED") {
        Err(_) => 42,
        Ok(raw) => {
            let raw = raw.trim();
            let parsed =
                if let Some(hex) = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
                    u64::from_str_radix(hex, 16)
                } else {
                    raw.parse()
                };
            parsed.unwrap_or_else(|_| panic!("bad ADAPTIC_SERVE_SEED: {raw:?}"))
        }
    }
}

fn sasum() -> Program {
    programs::sasum().program
}

fn axis() -> InputAxis {
    InputAxis::total_size("N", 256, 1 << 15)
}

/// Request sizes: the bursty and diurnal generators interleaved, so one
/// trace exercises both traffic shapes.
fn sizes(n: usize, seed: u64) -> Vec<i64> {
    let half = n.div_ceil(2);
    let b = bursty(half, (1024, 4096), (8192, 16384), 16, 4, seed);
    let d = diurnal(half, 1024, 16384, 32, 0.15, seed ^ 0x9e3779b97f4a7c15);
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let src = if i % 2 == 0 { &b } else { &d };
        out.push(src[i / 2]);
    }
    out
}

fn start(bounded: bool) -> Server {
    let (tenant_cap, global_cap) = if bounded {
        (TENANT_QUEUE_CAP, GLOBAL_QUEUE_CAP)
    } else {
        (1 << 20, 1 << 20)
    };
    let server = Server::start(ServerConfig {
        global_queue_cap: global_cap,
        ..ServerConfig::default()
    });
    let program = sasum();
    let axis = axis();
    for name in ["alpha", "beta"] {
        server
            .register_tenant(
                name,
                &program,
                &axis,
                TenantPolicy::default()
                    .with_queue_cap(tenant_cap)
                    .with_quota(1e9, 1e9),
            )
            .expect("tenant registers");
    }
    server
}

/// Measured capacity (requests/s) of the plane on this machine and
/// build profile: `workers` concurrent closed loops, so the yardstick
/// includes the CPU contention the open-loop sweep will actually see.
fn calibrate(trace: &[i64], inputs: &[Arc<Vec<f32>>]) -> f64 {
    let server = start(true);
    let workers = ServerConfig::default().workers;
    let t0 = server.now_us();
    std::thread::scope(|scope| {
        for t in 0..workers {
            let server = &server;
            scope.spawn(move || {
                let tenant = if t % 2 == 0 { "alpha" } else { "beta" };
                for i in 0..CALIBRATION {
                    let k = (t + i * workers) % trace.len();
                    let ticket = server
                        .submit(tenant, Request::new(trace[k], Arc::clone(&inputs[k])))
                        .expect("calibration admits");
                    match ticket.wait() {
                        Outcome::Completed(_) => {}
                        other => panic!("calibration request failed: {other:?}"),
                    }
                }
            });
        }
    });
    let elapsed_us = (server.now_us() - t0).max(1);
    (workers * CALIBRATION) as f64 * 1e6 / elapsed_us as f64
}

#[derive(Debug, Default)]
struct RunStat {
    offered: u64,
    on_time: u64,
    late: u64,
    failed: u64,
    shed: u64,
    rejected_quota: u64,
    rejected_full: u64,
    rejected_deadline: u64,
    makespan_us: u64,
    lat_sum_us: u64,
    lat_max_us: u64,
    lat_min_us: u64,
}

impl RunStat {
    fn admitted(&self) -> u64 {
        self.on_time + self.late + self.failed + self.shed
    }

    fn rejected(&self) -> u64 {
        self.rejected_quota + self.rejected_full + self.rejected_deadline
    }

    fn goodput_rps(&self) -> f64 {
        self.on_time as f64 / (self.makespan_us.max(1) as f64 / 1e6)
    }

    fn hit_rate(&self) -> f64 {
        self.on_time as f64 / self.offered.max(1) as f64
    }

    fn mean_lat_us(&self) -> f64 {
        let served = self.on_time + self.late;
        self.lat_sum_us as f64 / served.max(1) as f64
    }
}

/// Offer the trace open-loop at `rate_rps` and score it against a
/// `deadline_us` service objective. Bounded mode declares the deadline on
/// each request (arming admission control and shedding); unbounded mode
/// submits best-effort and is scored externally against the same budget.
fn offer(
    bounded: bool,
    trace: &[i64],
    inputs: &[Arc<Vec<f32>>],
    rate_rps: f64,
    deadline_us: u64,
) -> RunStat {
    let server = start(bounded);
    let inter_us = (1e6 / rate_rps).max(1.0) as u64;
    let mut stat = RunStat {
        offered: trace.len() as u64,
        lat_min_us: u64::MAX,
        ..RunStat::default()
    };
    let t0 = server.now_us();
    let mut pending: Vec<(u64, adaptic_serve::Ticket)> = Vec::with_capacity(trace.len());
    for (i, &x) in trace.iter().enumerate() {
        // Absolute arrival targets: oversleeping batches arrivals but
        // preserves the offered rate over the whole trace.
        let target = t0 + i as u64 * inter_us;
        let now = server.now_us();
        if now < target {
            std::thread::sleep(Duration::from_micros(target - now));
        }
        let tenant = if i % 2 == 0 { "alpha" } else { "beta" };
        let submitted = server.now_us();
        let mut req = Request::new(x, Arc::clone(&inputs[i]));
        if bounded {
            req = req.with_deadline_at(submitted + deadline_us);
        }
        match server.submit(tenant, req) {
            Ok(ticket) => pending.push((submitted, ticket)),
            Err(RejectReason::QuotaExhausted) => stat.rejected_quota += 1,
            Err(RejectReason::QueueFull) => stat.rejected_full += 1,
            Err(RejectReason::DeadlineInfeasible) => stat.rejected_deadline += 1,
            Err(other) => panic!("unexpected rejection: {other:?}"),
        }
    }
    let mut last_finish = t0;
    for (submitted, ticket) in pending {
        match ticket.wait() {
            Outcome::Completed(c) => {
                let lat = c.finished_at_us.saturating_sub(submitted);
                let hit = if bounded {
                    c.deadline_met
                } else {
                    lat <= deadline_us
                };
                if hit {
                    stat.on_time += 1;
                } else {
                    stat.late += 1;
                }
                stat.lat_sum_us += lat;
                stat.lat_max_us = stat.lat_max_us.max(lat);
                stat.lat_min_us = stat.lat_min_us.min(lat);
                last_finish = last_finish.max(c.finished_at_us);
            }
            // Failures here are launches that raced the deadline watchdog
            // and lost — expected under overload, and scored as misses.
            Outcome::Shed(_) => stat.shed += 1,
            Outcome::Failed(_) => stat.failed += 1,
        }
    }
    stat.makespan_us = (last_finish - t0).max(1);
    if stat.lat_min_us == u64::MAX {
        stat.lat_min_us = 0;
    }
    stat
}

fn main() -> ExitCode {
    let assert_mode = std::env::args().any(|a| a == "--assert");
    let seed = seed();
    let trace = sizes(REQUESTS, seed);
    let inputs: Vec<Arc<Vec<f32>>> = trace
        .iter()
        .enumerate()
        .map(|(i, &x)| Arc::new(data(x as usize, seed.wrapping_add(i as u64))))
        .collect();

    let capacity_rps = calibrate(&trace, &inputs);
    let workers = ServerConfig::default().workers as f64;
    // Effective per-request service time under full concurrency.
    let service_us = workers * 1e6 / capacity_rps;
    let deadline_us = DEADLINE_X * service_us as u64;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== Serving-plane overload sweep: {REQUESTS} requests/run, seed {seed} ===\n\
         calibrated capacity {capacity_rps:.0} req/s ({workers:.0} workers, effective \
         service {service_us:.0} us); deadline {deadline_us} us ({DEADLINE_X}x service)\n"
    );

    let mut records: Vec<BenchRecord> = Vec::new();
    // (load multiplier, bounded stat, unbounded stat)
    let mut runs: Vec<(f64, RunStat, RunStat)> = Vec::new();
    for &mult in &LOADS {
        let rate = mult * capacity_rps;
        let mut pair: Vec<RunStat> = Vec::new();
        for bounded in [true, false] {
            let stat = offer(bounded, &trace, &inputs, rate, deadline_us);
            let name = if bounded { "bounded" } else { "unbounded" };
            let _ = writeln!(
                out,
                "{name:>9} @ {mult:>3.1}x: goodput {:>7.1} req/s  hit {:>5.1}%  \
                 ({:>3} on-time, {:>3} late, {:>3} shed, {:>3} rejected [{}q/{}f/{}d], {} failed)  \
                 mean lat {:>8.0} us",
                stat.goodput_rps(),
                100.0 * stat.hit_rate(),
                stat.on_time,
                stat.late,
                stat.shed,
                stat.rejected(),
                stat.rejected_quota,
                stat.rejected_full,
                stat.rejected_deadline,
                stat.failed,
                stat.mean_lat_us(),
            );
            records.push(BenchRecord {
                name: format!("{name}@{mult}x"),
                mean_ns: stat.mean_lat_us() * 1000.0,
                min_ns: stat.lat_min_us as f64 * 1000.0,
                max_ns: stat.lat_max_us as f64 * 1000.0,
                speedup: Some(stat.goodput_rps()),
                rate: None,
            });
            pair.push(stat);
        }
        let unbounded = pair.pop().expect("unbounded stat");
        let bounded = pair.pop().expect("bounded stat");
        runs.push((mult, bounded, unbounded));
    }

    let saturated: Vec<f64> = runs
        .iter()
        .filter(|(m, _, _)| *m >= 1.0)
        .map(|(_, b, _)| b.goodput_rps())
        .collect();
    let peak = saturated.iter().sum::<f64>() / saturated.len().max(1) as f64;
    let (top_mult, top_bounded, top_unbounded) = runs
        .last()
        .map(|(m, b, u)| (*m, b, u))
        .expect("at least one load");
    let _ = writeln!(
        out,
        "\npeak bounded goodput {peak:.1} req/s (mean over >=1x loads); at {top_mult}x: \
         bounded holds {:.0}% of peak with {:.1}% hit rate, unbounded hit rate {:.1}%",
        100.0 * top_bounded.goodput_rps() / peak.max(1e-9),
        100.0 * top_bounded.hit_rate(),
        100.0 * top_unbounded.hit_rate(),
    );

    print!("{out}");
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&results).expect("results dir");
    std::fs::write(results.join("serve_goodput.txt"), &out).expect("write serve_goodput");
    let json = bench_json("serve", &records).expect("write BENCH_serve.json");
    println!("wrote {}", json.display());

    if assert_mode {
        for (mult, bounded, _) in &runs {
            // Exactly-once, observed from the outside: every admitted
            // request produced exactly one terminal outcome.
            let accounted = bounded.admitted() + bounded.rejected();
            if accounted != bounded.offered {
                eprintln!(
                    "FAIL: bounded @ {mult}x accounted {accounted} of {} offered",
                    bounded.offered
                );
                return ExitCode::FAILURE;
            }
            if *mult >= 2.0 && bounded.goodput_rps() < RETENTION * peak {
                eprintln!(
                    "FAIL: bounded goodput {:.1} req/s @ {mult}x fell below {RETENTION}x \
                     its peak {peak:.1} req/s",
                    bounded.goodput_rps()
                );
                return ExitCode::FAILURE;
            }
        }
        if top_bounded.on_time == 0 {
            eprintln!("FAIL: bounded plane served nothing on time at {top_mult}x");
            return ExitCode::FAILURE;
        }
        // The baseline must collapse somewhere in the overload band. A
        // single load point's ratio is noisy — the calibration itself
        // varies run to run, so a "3x" sweep can land less deep into
        // overload than its label — but a queue with no admission
        // control degrades across the whole >= 2x band, so the
        // *deepest* collapse over that band is the stable signal.
        let collapse = runs
            .iter()
            .filter(|(m, _, _)| *m >= 2.0)
            .map(|(_, b, u)| u.hit_rate() / b.hit_rate().max(1e-9))
            .fold(f64::INFINITY, f64::min);
        if collapse > COLLAPSE {
            eprintln!(
                "FAIL: unbounded hit rate held {:.0}% of bounded at every >= 2x load \
                 (must collapse below {:.0}% somewhere)",
                100.0 * collapse,
                100.0 * COLLAPSE
            );
            return ExitCode::FAILURE;
        }
        println!(
            "asserts hold: bounded keeps {:.0}% of peak goodput at {top_mult}x while \
             the unbounded hit rate collapses to {:.0}% of bounded under overload",
            100.0 * top_bounded.goodput_rps() / peak.max(1e-9),
            100.0 * collapse
        );
    }
    ExitCode::SUCCESS
}
