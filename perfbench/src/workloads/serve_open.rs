//! `serve_open`: the same server in its bounded posture (per-tenant queue
//! of 4, 16 in all, a deadline on every request), offered an open-loop
//! schedule: requests are due at fixed times whether or not earlier ones
//! have answered, so a queue can form. Three steps at fixed rates, about
//! 0.5x, 0.9x and 1.5x of what `serve_closed` sustains on the host the
//! rates were frozen on, each visited once in every one of five rounds.
//!
//! Queueing, admission, shedding and the deadline watchdog only act when
//! a queue forms: independent users make an open loop. One generator
//! thread sends, one collector thread takes the replies. Latency runs from
//! the time a request was *due* on the server's clock, and the deadline is
//! set from that time too, so a late generator is charged, not hidden;
//! how late it ran is reported.
//!
//! An op is one offered request. It is `ok` when its reply came on time
//! and equals the interpreter's output. A request refused, shed, stopped
//! by the watchdog or late misses; none of those is a *failure* — a wrong
//! output or any other error is.

use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use super::serve_closed::{start, tenants, Tenant};
use super::{check_output, corrupt, Limit, Outcome, ServeStats, Workload};
use crate::layers::{self, QueueCaps, Refusal, Reply, Server};
use crate::stats::{due_latency_us, WINDOWS};
use crate::trace::Tracer;

/// Offered rates of the three steps, requests per second. Frozen at
/// 0.5x, 0.9x and 1.5x of the `serve_closed` baseline of 1500 ops/s
/// (2-core host, release build; see the README).
pub const RATES_RPS: [f64; 3] = [750.0, 1350.0, 2250.0];
/// Deadline of every request, µs after it was due: 8x the `serve_closed`
/// baseline `op_ms_p50` of 1.09 ms.
pub const DEADLINE_US: u64 = 8700;
/// How long before a due time the generator stops sleeping and spins.
const SPIN_US: u64 = 80;
const CAPS: QueueCaps = QueueCaps {
    per_tenant: 4,
    global: 16,
};

pub struct ServeOpen {
    tenants: Vec<Tenant>,
    server: Server,
}

/// What the generator hands the collector for each request it offered.
struct Offered {
    tenant: usize,
    request: usize,
    due_us: u64,
    sent: Result<layers::Ticket, Refusal>,
}

/// The run goes through the three rates in this many rounds of equal
/// length. The reported latency is the median over windows of the first
/// step's replies, and under an open loop one stall of the host lifts the
/// tail of the few hundred requests behind it: with a round to a window,
/// the windows lie two seconds apart and a stall falls into one of them.
const ROUNDS: usize = WINDOWS;

/// A warm-up at the first step's rate, offered and answered before the
/// first step and counted nowhere: the server's managers start cold, and
/// the first step is the one whose latency is reported.
const LEAD_IN_S: f64 = 0.4;

impl ServeOpen {
    /// Offer `n` requests at `rate` per second, numbered from `first_op`,
    /// and take every reply. `step` is `None` for the lead-in, whose
    /// replies are taken and dropped.
    #[allow(clippy::too_many_arguments)]
    fn offer(
        &self,
        step: Option<usize>,
        rate: f64,
        n: u64,
        first_op: u64,
        tracers: (&mut Tracer, &mut Tracer),
        out: &mut Outcome,
        stats: &mut ServeStats,
    ) {
        let (server, tenants) = (&self.server, &self.tenants);
        let (gen_tracer, col_tracer) = tracers;
        let gap_us = 1e6 / rate;
        let (tx, rx) = mpsc::channel::<Offered>();
        let (mut offered, mut on_time) = (0u64, 0u64);
        let mut lag = Vec::with_capacity(n as usize);
        std::thread::scope(|scope| {
            let lag = &mut lag;
            scope.spawn(move || {
                // A short lead so the first request is not already late.
                let t0 = layers::server_now_us(server) + 2_000;
                for i in 0..n {
                    let due_us = t0 + (i as f64 * gap_us) as u64;
                    // Sleep to just short of the due time, then spin: a
                    // sleeping thread wakes tens of µs late.
                    let now = layers::server_now_us(server);
                    if now + SPIN_US < due_us {
                        std::thread::sleep(Duration::from_micros(due_us - now - SPIN_US));
                    }
                    while layers::server_now_us(server) < due_us {
                        std::hint::spin_loop();
                    }
                    let op = first_op + i;
                    let tenant = (op % tenants.len() as u64) as usize;
                    let t = &tenants[tenant];
                    let request = (op / tenants.len() as u64) as usize % t.requests.len();
                    let req = &t.requests[request];
                    lag.push(layers::server_now_us(server).saturating_sub(due_us));
                    let deadline = Some(due_us + DEADLINE_US);
                    let sent = gen_tracer.span("op", op, |tr| {
                        layers::submit(tr, op, server, t.name, req.x, &req.input, deadline)
                    });
                    let offered = Offered {
                        tenant,
                        request,
                        due_us,
                        sent,
                    };
                    if tx.send(offered).is_err() {
                        return;
                    }
                }
            });

            // The collector: replies in the order their requests were
            // offered; a reply's own finish time is what is scored.
            for (i, o) in rx.iter().enumerate() {
                let op = first_op + i as u64;
                offered += 1;
                let req = &tenants[o.tenant].requests[o.request];
                let Ok(ticket) = o.sent else { continue };
                let reply = layers::wait(col_tracer, op, ticket);
                if step.is_none() {
                    continue;
                }
                match reply {
                    Reply::Completed {
                        launch,
                        queued_us,
                        finished_at_us,
                        deadline_met,
                    } => {
                        stats.completed += 1;
                        if let Err(e) = check_output(&launch.output, &req.reference) {
                            out.fail(format!("x={}: {e}", req.x));
                        } else if !deadline_met {
                            stats.late += 1;
                        } else {
                            on_time += 1;
                            let latency_us = due_latency_us(o.due_us, finished_at_us);
                            stats.queued_us.push(queued_us);
                            stats.latency_us.push(latency_us);
                            if step == Some(0) {
                                out.lat_ns.push(latency_us * 1000);
                                out.sim_us += launch.sim_us;
                                out.sim_ops += 1;
                            }
                        }
                    }
                    Reply::Shed => {}
                    Reply::DeadlineKilled => stats.deadline_killed += 1,
                    Reply::Failed(e) => out.fail(format!("x={}: {e}", req.x)),
                }
            }
        });
        if let Some(step) = step {
            let seconds = n as f64 / rate;
            out.attempted += offered;
            out.ok += on_time;
            out.busy_s += seconds;
            let total = &mut stats.steps[step];
            *total = (total.0 + offered, total.1 + on_time, total.2 + seconds);
            stats.lag_us.extend(lag);
        }
    }
}

impl Workload for ServeOpen {
    const NAME: &'static str = "serve_open";
    const PREFIX_OPS: u64 = 0;

    fn setup(seed: u64, _scratch: &Path) -> Result<ServeOpen, String> {
        let tenants = tenants(seed);
        let server = start(&tenants, Some(CAPS))?;
        Ok(ServeOpen { tenants, server })
    }

    fn corrupt_reference(&mut self) {
        corrupt(&mut self.tenants[0].requests[0].reference[0]);
    }

    fn run(&mut self, limit: Limit, traced: bool) -> Outcome {
        let names: Vec<&str> = self.tenants.iter().map(|t| t.name).collect();
        let epoch = Instant::now();
        let tracer = |on: bool| if on { Tracer::on(epoch) } else { Tracer::off() };
        let (mut gen_tracer, mut col_tracer) = (tracer(traced), tracer(traced));
        let mut out = Outcome::default();
        let mut stats = ServeStats {
            min_gap_us: 1e6 / RATES_RPS[RATES_RPS.len() - 1],
            steps: vec![(0, 0, 0.0); RATES_RPS.len()],
            ..ServeStats::default()
        };
        let part_s = limit.seconds / (ROUNDS * RATES_RPS.len()) as f64;

        let lead_in = (RATES_RPS[0] * LEAD_IN_S.min(part_s)).ceil() as u64;
        let mut idle = (Tracer::off(), Tracer::off());
        self.offer(
            None,
            RATES_RPS[0],
            lead_in,
            0,
            (&mut idle.0, &mut idle.1),
            &mut out,
            &mut stats,
        );
        let before = layers::server_counts(&self.server, &names);
        let mut first_op = lead_in;
        for _ in 0..ROUNDS {
            for (step, &rate) in RATES_RPS.iter().enumerate() {
                let n = ((rate * part_s).ceil() as u64).max(1);
                let tracers = (&mut gen_tracer, &mut col_tracer);
                self.offer(Some(step), rate, n, first_op, tracers, &mut out, &mut stats);
                first_op += n;
            }
        }

        // Exactly-once, seen from outside: every offered request was
        // refused or admitted, and every admitted one ended exactly once.
        let counts = layers::server_counts(&self.server, &names).since(&before);
        let refused = counts.rejected_quota + counts.rejected_queue_full + counts.rejected_deadline;
        let ended = stats.completed + counts.shed + counts.serve_failed;
        if counts.admitted + refused != out.attempted || ended != counts.admitted {
            out.fail(format!(
                "accounting: offered {}, admitted {} + refused {refused}; ended {ended}",
                out.attempted, counts.admitted
            ));
        }
        out.counts = counts;
        out.serve = Some(stats);
        out.tracers = vec![gen_tracer, col_tracer];
        out
    }
}
