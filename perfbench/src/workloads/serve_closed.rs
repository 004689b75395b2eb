//! `serve_closed`: one op is one request through the serving plane —
//! submit, then wait for its reply. Two closed-loop clients, one per
//! tenant, each sending its next request only when the last one answered;
//! default server configuration; every element executed; sizes of 8K to
//! 64K items from the bursty and the diurnal generators.
//!
//! The whole request path (admit, queue, place, select, launch, reply)
//! with no backlog: what `serve` and `fleet` add on top of `exec_full`-like
//! work. Callers that wait for a reply make a closed loop; a slow system
//! receives less load, so this is the open loop's bypass: nothing here
//! queues, sheds or misses a deadline.
//!
//! Every reply's output is compared with the interpreter's, every ticket
//! must produce exactly one outcome, and the server's own counters must
//! agree with what the clients saw.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use super::{check_output, corrupt, Limit, Outcome, ServeStats, Workload};
use crate::corpus::{self, Entry};
use crate::gen::{bursty, data, diurnal, rank_match, Lcg, LADDER_SEED};
use crate::layers::{self, Program, QueueCaps, Reply, Server};
use crate::trace::Tracer;

/// Distinct requests per tenant; a client cycles through its list.
const REQUESTS: usize = 48;
/// Stream lengths of the requests. Sized so that a request takes about a
/// millisecond: the open loop's generator sleeps between arrivals, and
/// below a few hundred µs between them a sleeping thread cannot keep time.
const BASE_ITEMS: (i64, i64) = (8192, 24576);
const BURST_ITEMS: (i64, i64) = (32768, 65536);
/// The tenants' plans cover streams of 256 to 128K items.
const AXIS_ITEMS: (i64, i64) = (256, 1 << 17);
/// Requests per client behind `sim_us_per_op`.
const SIM_WINDOW: u64 = 256;

pub struct Req {
    pub x: i64,
    pub input: Arc<Vec<f32>>,
    pub reference: Vec<f32>,
}

pub struct Tenant {
    pub name: &'static str,
    pub entry: &'static Entry,
    pub program: Program,
    pub requests: Vec<Req>,
}

/// Each size moves by up to this share of itself with the seed.
const JITTER: f64 = 0.02;

/// The bursty and the diurnal trace interleaved, so one list has both
/// traffic shapes.
fn raw_sizes(n: usize, seed: u64) -> Vec<i64> {
    let half = n.div_ceil(2);
    let b = bursty(half, BASE_ITEMS, BURST_ITEMS, 16, 4, seed);
    let d = diurnal(
        half,
        BASE_ITEMS.0,
        BURST_ITEMS.1,
        32,
        0.15,
        seed ^ 0x9e37_79b9_7f4a_7c15,
    );
    (0..n)
        .map(|i| if i % 2 == 0 { b[i / 2] } else { d[i / 2] })
        .collect()
}

/// Request sizes: the seed's trace, matched onto one fixed ladder of
/// sizes so that every seed offers the same volume of work.
fn sizes(n: usize, seed: u64) -> Vec<i64> {
    let mut g = Lcg::new(seed);
    rank_match(
        &raw_sizes(n, seed),
        &raw_sizes(n, LADDER_SEED),
        JITTER,
        &mut g,
    )
}

/// The two tenants (a reduction and a fused split-join), each with its
/// request list and the interpreter's answer to every request.
pub fn tenants(seed: u64) -> Vec<Tenant> {
    [("alpha", "asum"), ("beta", "maxsum")]
        .into_iter()
        .enumerate()
        .map(|(t, (name, program))| {
            let entry = corpus::entry(program);
            let program = layers::program_of(entry);
            let requests = sizes(REQUESTS, seed.wrapping_add(t as u64))
                .into_iter()
                .enumerate()
                .map(|(i, x)| {
                    let input = data(entry.items(x), seed.wrapping_add((t * REQUESTS + i) as u64));
                    let reference = layers::interpret(&program, entry, x, &input);
                    Req {
                        x,
                        input: Arc::new(input),
                        reference,
                    }
                })
                .collect();
            Tenant {
                name,
                entry,
                program,
                requests,
            }
        })
        .collect()
}

pub fn start(tenants: &[Tenant], caps: Option<QueueCaps>) -> Result<Server, String> {
    let axes: Vec<_> = tenants
        .iter()
        .map(|t| layers::axis_for(t.entry, AXIS_ITEMS.0, AXIS_ITEMS.1))
        .collect();
    let registered: Vec<_> = tenants
        .iter()
        .zip(&axes)
        .map(|(t, a)| (t.name, &t.program, a))
        .collect();
    layers::start_server(&registered, caps)
}

pub struct ServeClosed {
    tenants: Vec<Tenant>,
    server: Server,
}

/// One client's closed loop. Beside its outcome, when each of its ops
/// ended, in ns since `started`.
fn client(
    tenant: &Tenant,
    server: &Server,
    limit: Limit,
    started: Instant,
    tracer: Tracer,
) -> (Outcome, Vec<u64>) {
    let mut out = Outcome {
        serve: Some(ServeStats::default()),
        ..Outcome::default()
    };
    let mut ended_ns = Vec::new();
    let mut tracer = tracer;
    while out.attempted < limit.max_ops && started.elapsed().as_secs_f64() < limit.seconds {
        let op = out.attempted;
        let req = &tenant.requests[op as usize % tenant.requests.len()];
        let t0 = Instant::now();
        let reply = tracer.span("op", op, |tr| {
            layers::submit(tr, op, server, tenant.name, req.x, &req.input, None)
                .map(|ticket| layers::wait(tr, op, ticket))
        });
        let ns = t0.elapsed().as_nanos() as u64;
        out.attempted += 1;
        out.lat_ns.push(ns);
        ended_ns.push(started.elapsed().as_nanos() as u64);
        match reply {
            Ok(Reply::Completed {
                launch, queued_us, ..
            }) => {
                if op < SIM_WINDOW {
                    out.sim_us += launch.sim_us;
                    out.sim_ops += 1;
                }
                let stats = out.serve.as_mut().expect("set above");
                stats.completed += 1;
                stats.queued_us.push(queued_us);
                stats.latency_us.push(ns / 1000);
                match check_output(&launch.output, &req.reference) {
                    Ok(()) => out.ok += 1,
                    Err(e) => out.fail(format!("{} x={}: {e}", tenant.name, req.x)),
                }
            }
            Ok(other) => out.fail(format!(
                "{} x={}: {other:?} with no deadline",
                tenant.name, req.x
            )),
            Err(refusal) => out.fail(format!(
                "{} x={}: refused ({refusal:?})",
                tenant.name, req.x
            )),
        }
    }
    out.tracers = vec![tracer];
    (out, ended_ns)
}

/// Fold one client's outcome into the run's, but for its latencies.
fn merge(total: &mut Outcome, part: Outcome) {
    total.attempted += part.attempted;
    total.ok += part.ok;
    total.failed += part.failed;
    if total.first_error.is_none() {
        total.first_error = part.first_error;
    }
    total.sim_us += part.sim_us;
    total.sim_ops += part.sim_ops;
    total.tracers.extend(part.tracers);
    if let (Some(t), Some(p)) = (total.serve.as_mut(), part.serve) {
        t.queued_us.extend(p.queued_us);
        t.latency_us.extend(p.latency_us);
        t.late += p.late;
        t.deadline_killed += p.deadline_killed;
        t.completed += p.completed;
    }
}

impl Workload for ServeClosed {
    const NAME: &'static str = "serve_closed";
    const PREFIX_OPS: u64 = 0;

    fn setup(seed: u64, _scratch: &Path) -> Result<ServeClosed, String> {
        let tenants = tenants(seed);
        let server = start(&tenants, None)?;
        Ok(ServeClosed { tenants, server })
    }

    fn corrupt_reference(&mut self) {
        corrupt(&mut self.tenants[0].requests[0].reference[0]);
    }

    fn run(&mut self, limit: Limit, traced: bool) -> Outcome {
        let names: Vec<&str> = self.tenants.iter().map(|t| t.name).collect();
        let before = layers::server_counts(&self.server, &names);
        let started = Instant::now();
        let per_client = Limit {
            max_ops: limit.max_ops / self.tenants.len() as u64,
            ..limit
        };
        let server = &self.server;
        let parts: Vec<(Outcome, Vec<u64>)> = std::thread::scope(|scope| {
            let clients: Vec<_> = self
                .tenants
                .iter()
                .map(|t| {
                    let tracer = if traced {
                        Tracer::on(started)
                    } else {
                        Tracer::off()
                    };
                    scope.spawn(move || client(t, server, per_client, started, tracer))
                })
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("client thread panicked"))
                .collect()
        });
        let mut out = Outcome {
            serve: Some(ServeStats::default()),
            busy_s: started.elapsed().as_secs_f64(),
            ..Outcome::default()
        };
        // Latencies of both clients in the order their ops ended.
        let mut timed: Vec<(u64, u64)> = Vec::new();
        for (mut part, ended_ns) in parts {
            timed.extend(ended_ns.into_iter().zip(std::mem::take(&mut part.lat_ns)));
            merge(&mut out, part);
        }
        timed.sort_unstable();
        out.lat_ns = timed.into_iter().map(|(_, ns)| ns).collect();
        let counts = layers::server_counts(&self.server, &names).since(&before);
        let completed = out.serve.as_ref().map_or(0, |s| s.completed);
        if counts.admitted != out.attempted || counts.launches != completed {
            out.fail(format!(
                "accounting: {} sent and {completed} completed, server admitted {} and launched {}",
                out.attempted, counts.admitted, counts.launches
            ));
        }
        out.counts = counts;
        out
    }
}
