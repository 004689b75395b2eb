//! The serving front-end: admission, bounded weighted-fair queues,
//! deadline propagation, cross-tenant coalescing, and graceful drain.
//!
//! One [`Server`] owns a pool of worker threads (the *global concurrency
//! limit*) and, per registered tenant, a private [`Fleet`] — one
//! [`KernelManager`] per device, carrying the tenant's own breakers,
//! retry budget, and learned state — built over **shared**
//! [`DeviceQueue`] backlog ledgers so every tenant's placement sees the
//! work every other tenant has in flight on the physical device. That
//! split is the isolation boundary: policy and learned state are per
//! tenant, hardware time is not.
//!
//! Requests travel: [`Server::submit`] (admission: quota → deadline
//! feasibility → bounded queue) → per-tenant FIFO → weighted-fair worker
//! drain → shed-if-stale → [`Fleet::admit`]/[`Fleet::settle`] → reply on
//! the request's [`Ticket`]. Every admitted request gets **exactly one**
//! terminal [`Outcome`], even through a draining shutdown.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::{mpsc, Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use adaptic::fleet::{Fleet, FleetNode, PlacementPolicy};
use adaptic::telemetry::{TelemetryCounters, TelemetrySnapshot};
use adaptic::{
    compile, ExecMode, ExecPolicy, ExecutionReport, FaultInjector, InputAxis, KernelManager,
    RunOptions, StateBinding,
};
use gpu_sim::{DeviceQueue, DeviceSpec};
use streamir::error::{Error, Result};
use streamir::graph::Program;

use crate::tenant::{TenantPolicy, TokenBucket};

/// Server-wide configuration. Worker count doubles as the global
/// concurrency limit: at most `workers` requests are inside the fleet at
/// once, everything else waits in bounded queues behind admission.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The physical devices every tenant's fleet schedules over.
    pub devices: Vec<DeviceSpec>,
    /// Worker threads draining the queues — the global concurrency limit.
    pub workers: usize,
    /// Bound on the total queued requests across all tenants.
    pub global_queue_cap: usize,
}

/// Placement policy used for every dispatch.
const PLACEMENT: PlacementPolicy = PlacementPolicy::CostPredicted;
/// Block-execution policy inside each launch: the serving plane's
/// parallelism is across requests, not inside one.
const EXEC: ExecPolicy = ExecPolicy::Serial;

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            devices: vec![DeviceSpec::igpu_small(), DeviceSpec::hpc_wide()],
            workers: 2,
            global_queue_cap: 128,
        }
    }
}

/// Why a request was turned away at [`Server::submit`]. Typed, so clients
/// can react (back off on `QuotaExhausted`, retry elsewhere on
/// `QueueFull`, drop on `DeadlineInfeasible`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// The tenant's token bucket is empty: sustained rate above quota.
    QuotaExhausted,
    /// The tenant (or global) bounded queue is full even after shedding
    /// past-deadline entries.
    QueueFull,
    /// `corrected_cost + backlog_us` already exceeds the remaining
    /// deadline budget on every device that can price the input — the
    /// request cannot finish in time, so it is refused before costing
    /// anyone anything.
    DeadlineInfeasible,
    /// The server is draining; admission is closed.
    ShuttingDown,
    /// No tenant registered under that name.
    UnknownTenant,
}

/// Why an *admitted* request was dropped without running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// Its deadline passed while it waited in queue.
    DeadlinePassed,
    /// The drain deadline arrived with the request still queued.
    Draining,
}

/// A served request's result.
#[derive(Debug, Clone)]
pub struct Completion {
    /// The execution report (leader's report, for coalesced requests).
    pub report: ExecutionReport,
    /// Microseconds between admission and dispatch start.
    pub queued_us: u64,
    /// Server-clock time the reply was produced.
    pub finished_at_us: u64,
    /// Whether the reply beat the request deadline (true if none was set).
    pub deadline_met: bool,
    /// Whether this request coalesced onto another identical in-flight
    /// launch instead of launching itself.
    pub coalesced: bool,
}

/// Exactly one of these arrives on every admitted request's [`Ticket`].
#[derive(Debug, Clone)]
pub enum Outcome {
    /// The launch ran (or coalesced) and produced a report.
    Completed(Box<Completion>),
    /// The request was shed before dispatch.
    Shed(ShedReason),
    /// The launch failed out of the degradation ladder.
    Failed(Error),
}

/// The caller's handle to an admitted request.
#[derive(Debug)]
pub struct Ticket {
    rx: Receiver<Outcome>,
}

impl Ticket {
    /// Block until the request's terminal outcome.
    pub fn wait(self) -> Outcome {
        self.rx
            .recv()
            .unwrap_or_else(|_| Outcome::Failed(Error::Runtime("server dropped reply".into())))
    }

    /// The outcome, if already available.
    pub fn try_wait(&self) -> Option<Outcome> {
        match self.rx.try_recv() {
            Ok(o) => Some(o),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => Some(Outcome::Failed(Error::Runtime(
                "server dropped reply".into(),
            ))),
        }
    }
}

/// One compile-and-run request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Input-axis value (e.g. total input size) the launch is priced by.
    pub x: i64,
    /// Shared input buffer. Coalescing keys on buffer *identity*: two
    /// requests only coalesce when they share the same `Arc`.
    pub input: Arc<Vec<f32>>,
    /// Stateful-actor bindings, usually empty.
    pub state: Arc<Vec<StateBinding>>,
    /// Execution mode. Coalescing applies only to `SampledExec` — the
    /// same restriction the launch-stats cache enforces.
    pub mode: ExecMode,
    /// Absolute deadline on the server clock ([`Server::now_us`]), or
    /// `None` for best-effort.
    pub deadline_us: Option<u64>,
    /// Per-request fault injector (chaos testing). Requests carrying an
    /// injector never coalesce.
    pub faults: Option<Arc<dyn FaultInjector + Send + Sync>>,
}

impl Request {
    /// A best-effort full run over `input`.
    pub fn new(x: i64, input: Arc<Vec<f32>>) -> Request {
        Request {
            x,
            input,
            state: Arc::new(Vec::new()),
            mode: ExecMode::Full,
            deadline_us: None,
            faults: None,
        }
    }

    /// Set the execution mode.
    pub fn with_mode(mut self, mode: ExecMode) -> Request {
        self.mode = mode;
        self
    }

    /// Set an absolute server-clock deadline.
    pub fn with_deadline_at(mut self, deadline_us: u64) -> Request {
        self.deadline_us = Some(deadline_us);
        self
    }

    /// Attach a fault injector (disables coalescing for this request).
    pub fn with_faults(mut self, faults: Arc<dyn FaultInjector + Send + Sync>) -> Request {
        self.faults = Some(faults);
        self
    }
}

/// What a draining [`Server::shutdown`] left behind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainReport {
    /// Requests shed at the drain deadline, per tenant (zero entries are
    /// omitted). Each also received [`Outcome::Shed`]`(`[`ShedReason::Draining`]`)`.
    pub shed: Vec<(String, u64)>,
    /// Total requests shed by the drain.
    pub total_shed: u64,
    /// Whether the queues emptied before the drain deadline.
    pub drained_clean: bool,
}

struct Queued {
    req: Request,
    enq_us: u64,
    reply: Sender<Outcome>,
}

struct TenantState {
    name: String,
    queue_cap: usize,
    retry: adaptic::RetryPolicy,
    coalesce: bool,
    /// Program identity (content hash over program + axis + options):
    /// cross-tenant coalescing requires equal hashes.
    program_hash: u64,
    fleet: Fleet,
    bucket: Mutex<TokenBucket>,
    /// The tenant's serving-plane counters (its managers keep their own).
    counters: TelemetryCounters,
}

impl TenantState {
    /// Cheapest `corrected_cost + backlog_us` across devices that can
    /// price `x`; `None` when nothing can (left to fail at dispatch).
    fn best_total_cost_us(&self, x: i64) -> Option<f64> {
        self.fleet
            .nodes()
            .iter()
            .filter_map(|n| {
                let cost = n.manager().corrected_cost(x).ok()?;
                Some(cost + n.queue().backlog_us())
            })
            .min_by(f64::total_cmp)
    }
}

/// One tenant's telemetry: its fleet rollup merged with its own serving
/// counters. The managers are private to the tenant, so nothing is shared.
fn tenant_snapshot(t: &TenantState) -> TelemetrySnapshot {
    let mut snap = t.fleet.telemetry().unwrap_or_default();
    snap.merge(&t.counters.snapshot(), false);
    snap
}

/// A single-flight ledger entry: the leader publishes its result here and
/// every coalesced follower clones it.
struct Flight {
    done: Mutex<Option<std::result::Result<ExecutionReport, Error>>>,
    cv: Condvar,
}

impl Flight {
    fn wait(&self) -> std::result::Result<ExecutionReport, Error> {
        let mut done = self.done.lock().expect("flight lock");
        while done.is_none() {
            done = self.cv.wait(done).expect("flight lock");
        }
        done.clone().expect("loop exits only when set")
    }

    fn publish(&self, result: std::result::Result<ExecutionReport, Error>) {
        *self.done.lock().expect("flight lock") = Some(result);
        self.cv.notify_all();
    }
}

/// Coalesce key: (program identity, axis value, sample size, input buffer
/// identity). Buffer identity makes the key exact — no risk of serving
/// tenant B a report computed over tenant A's different data.
type FlightKey = (u64, i64, u32, usize);

/// Removes the flight from the ledger on every exit path; if the leader
/// unwound before publishing, publishes an error so followers never hang.
struct FlightGuard<'a> {
    flights: &'a Mutex<HashMap<FlightKey, Arc<Flight>>>,
    key: FlightKey,
    flight: Arc<Flight>,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        self.flights
            .lock()
            .expect("flight ledger")
            .remove(&self.key);
        let mut done = self.flight.done.lock().expect("flight lock");
        if done.is_none() {
            *done = Some(Err(Error::Runtime("coalesce leader aborted".into())));
            drop(done);
            self.flight.cv.notify_all();
        }
    }
}

struct Sched {
    /// One FIFO per tenant, indexed by registration order.
    queues: Vec<VecDeque<Queued>>,
    /// Weighted-fair bookkeeping: requests drained per tenant.
    drained: Vec<u64>,
    /// Fair-share weights, mirrored from each tenant's policy.
    weights: Vec<f64>,
    total_queued: usize,
    /// Admission closed; workers exit once the queues empty.
    draining: bool,
    /// Hard stop: workers exit after their current request.
    halted: bool,
}

struct Inner {
    cfg: ServerConfig,
    started: Instant,
    /// Registration-ordered tenant states; `Sched` indexes match.
    tenants: RwLock<Vec<Arc<TenantState>>>,
    names: RwLock<HashMap<String, usize>>,
    sched: Mutex<Sched>,
    work: Condvar,
    flights: Mutex<HashMap<FlightKey, Arc<Flight>>>,
    device_queues: Vec<Arc<DeviceQueue>>,
}

impl Inner {
    fn now_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    /// Weighted-fair pick: among tenants with queued work, the one whose
    /// `drained / weight` is lowest — a stride scheduler over admission
    /// counts. Returns a tenant index.
    fn pick(sched: &Sched) -> Option<usize> {
        sched
            .queues
            .iter()
            .enumerate()
            .filter(|(_, q)| !q.is_empty())
            .min_by(|(a, _), (b, _)| {
                let ka = (sched.drained[*a] + 1) as f64 / sched.weights[*a];
                let kb = (sched.drained[*b] + 1) as f64 / sched.weights[*b];
                ka.total_cmp(&kb)
            })
            .map(|(i, _)| i)
    }

    fn tenant(&self, idx: usize) -> Arc<TenantState> {
        Arc::clone(&self.tenants.read().expect("tenant table")[idx])
    }

    fn worker(self: &Arc<Inner>) {
        loop {
            let next = {
                let mut sched = self.sched.lock().expect("scheduler lock");
                loop {
                    if sched.halted {
                        return;
                    }
                    if let Some(tid) = Inner::pick(&sched) {
                        let job = sched.queues[tid].pop_front().expect("picked non-empty");
                        sched.total_queued -= 1;
                        sched.drained[tid] += 1;
                        break (tid, job);
                    }
                    if sched.draining {
                        return;
                    }
                    sched = self.work.wait(sched).expect("scheduler lock");
                }
            };
            let (tid, job) = next;
            self.process(&self.tenant(tid), job);
        }
    }

    /// Serve one dequeued request to its terminal outcome.
    fn process(&self, tenant: &TenantState, job: Queued) {
        let now = self.now_us();
        if let Some(d) = job.req.deadline_us {
            // The admission-time feasibility check ran against a fresh
            // budget; queue wait may have consumed most of it. Re-check
            // with the cheapest service estimate before burning a worker
            // on a launch that cannot finish in time. The estimate must
            // fit with 50% headroom: a launch that would only *just* fit
            // loses the race against the retry watchdog often enough
            // that shedding it for the next queued request is the better
            // trade. Requests comfortably inside the budget still run.
            let remaining = d.saturating_sub(now);
            let hopeless = remaining == 0
                || tenant
                    .fleet
                    .nodes()
                    .iter()
                    .filter_map(|n| n.manager().corrected_cost(job.req.x).ok())
                    .min_by(f64::total_cmp)
                    .is_some_and(|cost| cost * 1.5 >= remaining as f64);
            if hopeless {
                tenant
                    .counters
                    .shed_deadline
                    .fetch_add(1, Ordering::Relaxed);
                let _ = job.reply.send(Outcome::Shed(ShedReason::DeadlinePassed));
                return;
            }
        }
        let queued_us = now.saturating_sub(job.enq_us);
        let coalescable = tenant.coalesce && job.req.faults.is_none();
        let sample = match job.req.mode {
            ExecMode::SampledExec(n) if coalescable => Some(n),
            _ => None,
        };
        let (result, coalesced) = match sample {
            None => (self.run_once(tenant, &job.req, now), false),
            Some(n) => {
                let key: FlightKey = (
                    tenant.program_hash,
                    job.req.x,
                    n,
                    Arc::as_ptr(&job.req.input) as usize,
                );
                let (flight, leader) = {
                    let mut flights = self.flights.lock().expect("flight ledger");
                    match flights.get(&key) {
                        Some(f) => (Arc::clone(f), false),
                        None => {
                            let f = Arc::new(Flight {
                                done: Mutex::new(None),
                                cv: Condvar::new(),
                            });
                            flights.insert(key, Arc::clone(&f));
                            (f, true)
                        }
                    }
                };
                if leader {
                    let guard = FlightGuard {
                        flights: &self.flights,
                        key,
                        flight: Arc::clone(&flight),
                    };
                    let result = self.run_once(tenant, &job.req, now);
                    flight.publish(result.clone());
                    drop(guard);
                    (result, false)
                } else {
                    let result = flight.wait();
                    if result.is_ok() {
                        tenant.counters.coalesced.fetch_add(1, Ordering::Relaxed);
                    }
                    (result, true)
                }
            }
        };
        let finished_at_us = self.now_us();
        match result {
            Ok(report) => {
                let deadline_met = job.req.deadline_us.is_none_or(|d| finished_at_us <= d);
                tenant.counters.completed.fetch_add(1, Ordering::Relaxed);
                if deadline_met {
                    tenant.counters.deadline_met.fetch_add(1, Ordering::Relaxed);
                }
                let _ = job.reply.send(Outcome::Completed(Box::new(Completion {
                    report,
                    queued_us,
                    finished_at_us,
                    deadline_met,
                    coalesced,
                })));
            }
            Err(e) => {
                tenant.counters.failed.fetch_add(1, Ordering::Relaxed);
                let _ = job.reply.send(Outcome::Failed(e));
            }
        }
    }

    /// One real launch through the tenant's fleet, with the request
    /// deadline folded into the retry watchdog.
    fn run_once(
        &self,
        tenant: &TenantState,
        req: &Request,
        now: u64,
    ) -> std::result::Result<ExecutionReport, Error> {
        let mut retry = tenant.retry;
        if let Some(d) = req.deadline_us {
            let remaining = d.saturating_sub(now).max(1);
            retry.deadline_us = if retry.deadline_us == 0 {
                remaining
            } else {
                retry.deadline_us.min(remaining)
            };
        }
        let opts = RunOptions {
            mode: req.mode,
            policy: EXEC,
            faults: req.faults.as_deref().map(|f| f as &dyn FaultInjector),
            retry,
            ..RunOptions::default()
        };
        let placement = tenant.fleet.admit(req.x, PLACEMENT)?;
        tenant
            .fleet
            .settle(placement, req.x, &req.input, &req.state, opts)
    }

    /// Drop `tid`'s past-deadline entries (oldest first, the whole FIFO).
    /// Returns how many were shed; each got its `Shed` outcome.
    fn shed_stale(&self, sched: &mut Sched, tenant: &TenantState, tid: usize, now: u64) -> usize {
        let before = sched.queues[tid].len();
        let mut kept = VecDeque::with_capacity(before);
        for q in sched.queues[tid].drain(..) {
            if q.req.deadline_us.is_some_and(|d| now >= d) {
                tenant
                    .counters
                    .shed_deadline
                    .fetch_add(1, Ordering::Relaxed);
                let _ = q.reply.send(Outcome::Shed(ShedReason::DeadlinePassed));
            } else {
                kept.push_back(q);
            }
        }
        let shed = before - kept.len();
        sched.queues[tid] = kept;
        sched.total_queued -= shed;
        shed
    }
}

/// The long-lived, in-process serving front-end. See the module docs for
/// the request path; construction starts the worker pool immediately and
/// [`Server::shutdown`] (or drop) stops it.
pub struct Server {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Start a server: spawns `cfg.workers` drain threads (at least 1).
    pub fn start(cfg: ServerConfig) -> Server {
        let device_queues = cfg
            .devices
            .iter()
            .map(|_| Arc::new(DeviceQueue::new()))
            .collect();
        let workers = cfg.workers.max(1);
        let inner = Arc::new(Inner {
            cfg,
            started: Instant::now(),
            tenants: RwLock::new(Vec::new()),
            names: RwLock::new(HashMap::new()),
            sched: Mutex::new(Sched {
                queues: Vec::new(),
                drained: Vec::new(),
                weights: Vec::new(),
                total_queued: 0,
                draining: false,
                halted: false,
            }),
            work: Condvar::new(),
            flights: Mutex::new(HashMap::new()),
            device_queues,
        });
        let handles = (0..workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || inner.worker())
            })
            .collect();
        Server {
            inner,
            workers: handles,
        }
    }

    /// Microseconds since the server started — the clock deadlines are
    /// expressed in.
    pub fn now_us(&self) -> u64 {
        self.inner.now_us()
    }

    /// Register `name`, compiling `program` over `axis` once per device.
    /// The tenant gets private managers (its own breakers, retry budget,
    /// learned state) over the server's shared device ledgers.
    ///
    /// # Errors
    ///
    /// [`Error::Semantic`] for a duplicate name; compile errors propagate.
    pub fn register_tenant(
        &self,
        name: &str,
        program: &Program,
        axis: &InputAxis,
        policy: TenantPolicy,
    ) -> Result<()> {
        if self
            .inner
            .names
            .read()
            .expect("name table")
            .contains_key(name)
        {
            return Err(Error::Semantic(format!(
                "tenant `{name}` already registered"
            )));
        }
        let nodes = self
            .inner
            .cfg
            .devices
            .iter()
            .zip(&self.inner.device_queues)
            .map(|(device, queue)| {
                let compiled = compile(program, device, axis)?;
                let manager = KernelManager::new(compiled)
                    .with_quarantine(policy.quarantine_threshold, policy.quarantine_window);
                Ok(FleetNode::with_queue(
                    device.name.clone(),
                    manager,
                    Arc::clone(queue),
                ))
            })
            .collect::<Result<Vec<_>>>()?;
        let program_hash =
            adaptic::content_hash(program, axis, &adaptic::CompileOptions::default());
        let state = Arc::new(TenantState {
            name: name.to_string(),
            queue_cap: policy.queue_cap.max(1),
            retry: policy.retry,
            coalesce: policy.coalesce,
            program_hash,
            fleet: Fleet::new(nodes),
            bucket: Mutex::new(TokenBucket::new(policy.burst, policy.refill_per_sec)),
            counters: TelemetryCounters::new(0),
        });
        let mut tenants = self.inner.tenants.write().expect("tenant table");
        let mut names = self.inner.names.write().expect("name table");
        let mut sched = self.inner.sched.lock().expect("scheduler lock");
        names.insert(name.to_string(), tenants.len());
        tenants.push(state);
        sched.queues.push(VecDeque::new());
        sched.drained.push(0);
        sched.weights.push(policy.weight.max(f64::MIN_POSITIVE));
        Ok(())
    }

    /// Admit or reject one request. Admission is synchronous and cheap:
    /// token bucket → deadline feasibility (`corrected_cost + backlog_us`
    /// vs remaining budget) → bounded queue (shedding past-deadline
    /// entries under pressure before refusing). An `Ok` ticket is a
    /// promise of exactly one terminal [`Outcome`].
    pub fn submit(&self, tenant: &str, req: Request) -> std::result::Result<Ticket, RejectReason> {
        let tid = *self
            .inner
            .names
            .read()
            .expect("name table")
            .get(tenant)
            .ok_or(RejectReason::UnknownTenant)?;
        let t = self.inner.tenant(tid);
        let now = self.inner.now_us();
        if !t.bucket.lock().expect("bucket lock").try_take(now) {
            t.counters.rejected_quota.fetch_add(1, Ordering::Relaxed);
            return Err(RejectReason::QuotaExhausted);
        }
        if let Some(d) = req.deadline_us {
            let remaining = d.saturating_sub(now);
            if let Some(cost) = t.best_total_cost_us(req.x) {
                if cost > remaining as f64 {
                    t.counters.rejected_deadline.fetch_add(1, Ordering::Relaxed);
                    return Err(RejectReason::DeadlineInfeasible);
                }
            }
        }
        let (tx, rx) = mpsc::channel();
        {
            let mut sched = self.inner.sched.lock().expect("scheduler lock");
            if sched.draining {
                return Err(RejectReason::ShuttingDown);
            }
            if sched.queues[tid].len() >= t.queue_cap
                || sched.total_queued >= self.inner.cfg.global_queue_cap
            {
                // Backpressure: make room by shedding work that can no
                // longer meet its deadline before refusing new work.
                self.inner.shed_stale(&mut sched, &t, tid, now);
            }
            if sched.queues[tid].len() >= t.queue_cap
                || sched.total_queued >= self.inner.cfg.global_queue_cap
            {
                drop(sched);
                t.counters
                    .rejected_queue_full
                    .fetch_add(1, Ordering::Relaxed);
                return Err(RejectReason::QueueFull);
            }
            sched.queues[tid].push_back(Queued {
                req,
                enq_us: now,
                reply: tx,
            });
            sched.total_queued += 1;
            t.counters.admitted.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.work.notify_one();
        Ok(Ticket { rx })
    }

    /// One tenant's telemetry: its fleet rollup (launches, cache traffic,
    /// faults, quarantines across its managers) plus its serving-plane
    /// counters.
    pub fn tenant_telemetry(&self, name: &str) -> Option<TelemetrySnapshot> {
        let tid = *self.inner.names.read().expect("name table").get(name)?;
        Some(tenant_snapshot(&self.inner.tenant(tid)))
    }

    /// Every tenant's telemetry, in registration order.
    pub fn telemetry_by_tenant(&self) -> Vec<(String, TelemetrySnapshot)> {
        let tenants = self.inner.tenants.read().expect("tenant table").clone();
        tenants
            .iter()
            .map(|t| (t.name.clone(), tenant_snapshot(t)))
            .collect()
    }

    /// The fleet-wide rollup of every tenant's snapshot
    /// ([`TelemetrySnapshot::fleet_rollup`]). Tenants' managers are
    /// private (no shared artifact store), so counters sum; a coalesced
    /// launch appears once in `launches` (the leader ran it) while each
    /// participant's billing shows in `admitted`/`coalesced`.
    pub fn rollup(&self) -> Option<TelemetrySnapshot> {
        let snaps: Vec<TelemetrySnapshot> = self
            .telemetry_by_tenant()
            .into_iter()
            .map(|(_, s)| s)
            .collect();
        TelemetrySnapshot::fleet_rollup(&snaps, false)
    }

    /// Direct access to one tenant's live serving counters (tests).
    pub fn counters<R>(&self, name: &str, read: impl FnOnce(&TelemetryCounters) -> R) -> Option<R> {
        let tid = *self.inner.names.read().expect("name table").get(name)?;
        Some(read(&self.inner.tenant(tid).counters))
    }

    /// Graceful drain: close admission immediately, let workers finish
    /// what is queued for up to `drain_budget_us`, then shed the rest
    /// (each shed request receives [`ShedReason::Draining`]) and join the
    /// workers. The report says exactly what was given up.
    pub fn shutdown(mut self, drain_budget_us: u64) -> DrainReport {
        {
            let mut sched = self.inner.sched.lock().expect("scheduler lock");
            sched.draining = true;
        }
        self.inner.work.notify_all();
        let drain_deadline = Instant::now() + Duration::from_micros(drain_budget_us);
        let drained_clean = loop {
            {
                let sched = self.inner.sched.lock().expect("scheduler lock");
                if sched.total_queued == 0 {
                    break true;
                }
            }
            if Instant::now() >= drain_deadline {
                break false;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        let mut per_tenant: Vec<(String, u64)> = Vec::new();
        let mut total_shed = 0u64;
        {
            let tenants = self.inner.tenants.read().expect("tenant table").clone();
            let mut sched = self.inner.sched.lock().expect("scheduler lock");
            sched.halted = true;
            for (tid, queue) in sched.queues.iter_mut().enumerate() {
                let mut shed_here = 0u64;
                for q in queue.drain(..) {
                    tenants[tid]
                        .counters
                        .shed_deadline
                        .fetch_add(1, Ordering::Relaxed);
                    let _ = q.reply.send(Outcome::Shed(ShedReason::Draining));
                    shed_here += 1;
                }
                total_shed += shed_here;
                if shed_here > 0 {
                    per_tenant.push((tenants[tid].name.clone(), shed_here));
                }
            }
            sched.total_queued = 0;
        }
        self.inner.work.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        DrainReport {
            shed: per_tenant,
            total_shed,
            drained_clean,
        }
    }
}

impl Drop for Server {
    /// A dropped (not shut down) server stops accepting and abandons its
    /// queues without draining; prefer [`Server::shutdown`].
    fn drop(&mut self) {
        if self.workers.is_empty() {
            return;
        }
        {
            let mut sched = self.inner.sched.lock().expect("scheduler lock");
            sched.draining = true;
            sched.halted = true;
        }
        self.inner.work.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}
