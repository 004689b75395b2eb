//! The one file that names the repository's APIs.
//!
//! Workloads and probes call the program under test only through the
//! functions here, and get back the benchmark's own types ([`Launch`],
//! [`Counts`], [`Reply`]), so a change to a layer's public API is a fix to
//! this file alone. Every call a workload makes into a layer's public
//! functions is wrapped in a span named `<layer>.<call>`.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use adaptic::fleet::{Placement, PlacementPolicy};
use adaptic::warp::{self, VecWarpIo, WarpFrame};
use adaptic::{bytecode, ExecMode, ExecPolicy, RunOptions};
use adaptic_serve::{Outcome, RejectReason, Request, ServerConfig, TenantPolicy};
use gpu_sim::{
    try_launch_pooled, BlockCtx, BufId, GlobalMem, Kernel, LaunchConfig, LaunchControl,
    ScratchPool, StatsCache,
};
use streamir::graph::{bindings, FlatGraph};
use streamir::ir::Stmt;
use streamir::rates::Bindings;
use streamir::value::Value;

use crate::corpus::{AxisKind, DynamicRate, Entry};
use crate::trace::Tracer;

pub type Program = streamir::Program;
pub type Device = gpu_sim::DeviceSpec;
pub type Axis = adaptic::InputAxis;
pub type Options = adaptic::CompileOptions;
pub type Plan = adaptic::CompiledProgram;
pub type Manager = adaptic::KernelManager;
pub type Store = adaptic::ArtifactStore;
pub type Region = adaptic::DynamicRegion;
pub type Fleet = adaptic::Fleet;
pub type Server = adaptic_serve::Server;
pub type Placed = Placement;
pub type Ticket = adaptic_serve::Ticket;

/// Blocks a sampled launch executes: the figure-sweep setting.
const SAMPLED_BLOCKS: u32 = 256;
/// Launch-cache geometry of the cache workloads: 16 stripes of 32. The
/// default (16 x 256) takes more misses to fill than a ten-second run
/// makes; this one is evicting steadily after the first two seconds, and
/// the scan set is sized from `capacity()` either way.
const CACHE_GEOMETRY: (usize, usize) = (16, 32);

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

// ---------------------------------------------------------------- devices

/// Every device preset: the compile workload plans for all of them.
pub fn all_devices() -> Vec<Device> {
    Device::presets()
}

/// The two devices launches run on.
pub fn exec_devices() -> Vec<Device> {
    vec![Device::tesla_c2050(), Device::gtx285()]
}

pub fn main_device() -> Device {
    Device::tesla_c2050()
}

pub fn device_name(d: &Device) -> &str {
    &d.name
}

// ------------------------------------------------------- streamir + plan

/// `streamir`: DSL text to a program.
pub fn parse(tr: &mut Tracer, op: u64, src: &str) -> Result<Program, String> {
    tr.span("streamir.parse", op, |_| {
        streamir::parse::parse_program(src).map_err(err)
    })
}

/// The entry's program, with its dynamic rate declared if it has one.
pub fn program_of(entry: &Entry) -> Program {
    let mut p = streamir::parse::parse_program(entry.src)
        .unwrap_or_else(|e| panic!("corpus program `{}` does not parse: {e}", entry.name));
    if let Some(d) = entry.dynamic {
        declare_dynamic(&mut p, &d);
    }
    p
}

/// The DSL has no syntax for a dynamic rate; it is declared on the AST.
pub fn declare_dynamic(program: &mut Program, d: &DynamicRate) {
    let interval = streamir::RateInterval::new(d.lo, d.hi).expect("corpus interval is valid");
    let actor = program
        .actors
        .iter_mut()
        .find(|a| a.name == d.actor)
        .unwrap_or_else(|| panic!("no actor `{}`", d.actor));
    actor.dyn_rates.insert(d.param.into(), interval);
}

/// The input axis of `entry` covering streams of `lo_items..=hi_items`.
pub fn axis_for(entry: &Entry, lo_items: i64, hi_items: i64) -> Axis {
    match entry.axis {
        AxisKind::Total(param) => Axis::total_size(param, lo_items, hi_items),
        AxisKind::Square => Axis::new("side", entry.x_for(lo_items), entry.x_for(hi_items), |s| {
            bindings(&[("rows", s), ("cols", s)])
        }),
    }
}

/// Default options, or the default with a denser probe grid.
pub fn options(probes: Option<usize>) -> Options {
    let mut o = Options::default();
    if let Some(p) = probes {
        o.probes = p;
    }
    o
}

/// `plan`: a full compile, no store.
pub fn compile_cold(
    tr: &mut Tracer,
    op: u64,
    program: &Program,
    device: &Device,
    axis: &Axis,
    opts: Options,
) -> Result<Plan, String> {
    tr.span("plan.compile", op, |_| {
        adaptic::compile_with_options(program, device, axis, opts).map_err(err)
    })
}

/// `plan` + `artifact`: load-or-compile through a store.
pub fn compile_stored(
    tr: &mut Tracer,
    op: u64,
    program: &Program,
    device: &Device,
    axis: &Axis,
    opts: Options,
    store: &Store,
) -> Result<Plan, String> {
    tr.span("plan.compile_with_store", op, |_| {
        adaptic::compile_with_store(program, device, axis, opts, store).map_err(err)
    })
}

/// A digest of everything a plan decides: its content address, its
/// variant table and the size of its artifact. Two compiles of one key
/// must agree on it.
pub fn plan_fingerprint(plan: &Plan) -> u64 {
    let text = format!(
        "{:x}|{:?}|{}",
        plan.content_hash(),
        plan.variants,
        plan.export_plan().byte_size()
    );
    adaptic::artifact::fnv1a64(text.as_bytes())
}

pub fn variant_count(plan: &Plan) -> usize {
    plan.variant_count()
}

/// The reference semantics: the independent stream interpreter.
pub fn interpret(program: &Program, entry: &Entry, x: i64, input: &[f32]) -> Vec<f32> {
    let mut it = streamir::Interpreter::new(program);
    match entry.axis {
        AxisKind::Total(param) => {
            it.bind_param(param, x);
        }
        AxisKind::Square => {
            it.bind_param("rows", x).bind_param("cols", x);
        }
    }
    it.run(input)
        .unwrap_or_else(|e| panic!("interpreter rejects `{}` at x={x}: {e}", entry.name))
}

// ------------------------------------------------------------- launches

/// How much of a launch is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Every element: outputs are exact.
    Full,
    /// A block sample: statistics only, launch cache engaged.
    Sampled,
}

fn run_options(mode: Mode) -> RunOptions<'static> {
    RunOptions::serial(match mode {
        Mode::Full => ExecMode::Full,
        Mode::Sampled => ExecMode::SampledExec(SAMPLED_BLOCKS),
    })
}

/// What the benchmark keeps of an execution report.
#[derive(Debug, Clone, Default)]
pub struct Launch {
    pub output: Vec<f32>,
    /// Simulated device time, µs. Never added to host time.
    pub sim_us: f64,
    pub variant: usize,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Simulated threads over the launch's kernels.
    pub threads: u64,
    /// Warp-level memory instructions the accounting recorded.
    pub mem_rows: f64,
}

impl From<adaptic::ExecutionReport> for Launch {
    fn from(r: adaptic::ExecutionReport) -> Launch {
        Launch {
            sim_us: r.time_us,
            variant: r.variant_index,
            cache_hits: r.cache_hits,
            cache_misses: r.cache_misses,
            threads: r
                .kernels
                .iter()
                .map(|k| k.stats.config.total_threads())
                .sum(),
            mem_rows: r
                .kernels
                .iter()
                .map(|k| k.stats.totals.warp_mem_insts())
                .sum(),
            output: r.output,
        }
    }
}

pub fn manage(plan: Plan) -> Manager {
    Manager::new(plan)
}

/// A manager whose launch cache uses [`CACHE_GEOMETRY`].
pub fn manage_small_cache(plan: Plan) -> Manager {
    Manager::new(plan).with_cache(CACHE_GEOMETRY.0, CACHE_GEOMETRY.1)
}

pub fn cache_capacity(m: &Manager) -> usize {
    m.cache().capacity()
}

/// `kmu`: select, launch, record.
pub fn run_managed(
    tr: &mut Tracer,
    op: u64,
    manager: &Manager,
    x: i64,
    input: &[f32],
    mode: Mode,
) -> Result<Launch, String> {
    tr.span("kmu.run", op, |_| {
        manager
            .run(x, input, &[], run_options(mode))
            .map(Launch::from)
            .map_err(err)
    })
}

/// A plan run with no manager and no cache; `variant` forces a table row.
pub fn run_plan(
    plan: &Plan,
    x: i64,
    input: &[f32],
    mode: Mode,
    variant: Option<usize>,
) -> Result<Launch, String> {
    let mut opts = run_options(mode);
    opts.force_variant = variant;
    plan.run_opts(x, input, &[], opts, None)
        .map(Launch::from)
        .map_err(err)
}

pub fn plan_of(manager: &Manager) -> &Plan {
    manager.program()
}

pub fn select(manager: &Manager, x: i64) -> Result<usize, String> {
    manager.select(x).map_err(err)
}

pub fn corrected_cost(manager: &Manager, x: i64) -> Result<f64, String> {
    manager.corrected_cost(x).map_err(err)
}

// ---------------------------------------------------------------- counts

/// The counters the layers expose, in the benchmark's own names. A field
/// a source does not have stays 0.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    pub launches: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub boundary_moves: u64,
    pub model_error_mean: f64,
    pub fallbacks: u64,
    pub retries: u64,
    pub artifact_hits: u64,
    pub artifact_misses: u64,
    pub artifact_rejects: u64,
    pub reschedules: u64,
    pub rate_exits: u64,
    pub clamped: u64,
    pub plan_wall_us: f64,
    /// Artifact-store hits of a re-scheduling region's re-plans.
    pub region_store_hits: u64,
    pub admitted: u64,
    pub rejected_quota: u64,
    pub rejected_queue_full: u64,
    pub rejected_deadline: u64,
    pub shed: u64,
    pub coalesced: u64,
    pub serve_failed: u64,
}

/// Apply `$op` (`+=` or `-=`) to every additive field of two [`Counts`].
macro_rules! each_count {
    ($a:ident $op:tt $b:ident) => {
        $a.launches $op $b.launches;
        $a.cache_hits $op $b.cache_hits;
        $a.cache_misses $op $b.cache_misses;
        $a.cache_evictions $op $b.cache_evictions;
        $a.boundary_moves $op $b.boundary_moves;
        $a.fallbacks $op $b.fallbacks;
        $a.retries $op $b.retries;
        $a.artifact_hits $op $b.artifact_hits;
        $a.artifact_misses $op $b.artifact_misses;
        $a.artifact_rejects $op $b.artifact_rejects;
        $a.reschedules $op $b.reschedules;
        $a.rate_exits $op $b.rate_exits;
        $a.clamped $op $b.clamped;
        $a.plan_wall_us $op $b.plan_wall_us;
        $a.region_store_hits $op $b.region_store_hits;
        $a.admitted $op $b.admitted;
        $a.rejected_quota $op $b.rejected_quota;
        $a.rejected_queue_full $op $b.rejected_queue_full;
        $a.rejected_deadline $op $b.rejected_deadline;
        $a.shed $op $b.shed;
        $a.coalesced $op $b.coalesced;
        $a.serve_failed $op $b.serve_failed;
    };
}

impl Counts {
    /// Sum of two sources; the model error is weighted by launches.
    pub fn add(&mut self, o: &Counts) {
        let launches = self.launches + o.launches;
        if launches > 0 {
            self.model_error_mean = (self.model_error_mean * self.launches as f64
                + o.model_error_mean * o.launches as f64)
                / launches as f64;
        }
        each_count!(self += o);
    }

    /// What one source counted since an `earlier` reading of it; the model
    /// error stays the current cumulative mean.
    pub fn since(mut self, earlier: &Counts) -> Counts {
        each_count!(self -= earlier);
        self
    }
}

impl From<&adaptic::TelemetrySnapshot> for Counts {
    fn from(t: &adaptic::TelemetrySnapshot) -> Counts {
        Counts {
            launches: t.launches,
            cache_hits: t.cache_hits,
            cache_misses: t.cache_misses,
            cache_evictions: t.cache_evictions,
            boundary_moves: t.recalibration_moves,
            model_error_mean: t.mean_model_error,
            fallbacks: t.fallbacks,
            retries: t.retries,
            artifact_hits: t.artifact_hits,
            artifact_misses: t.artifact_misses,
            artifact_rejects: t.artifact_rejects,
            reschedules: t.reschedules,
            rate_exits: t.rate_exits,
            admitted: t.admitted,
            rejected_quota: t.rejected_quota,
            rejected_queue_full: t.rejected_queue_full,
            rejected_deadline: t.rejected_deadline,
            shed: t.shed_deadline,
            coalesced: t.coalesced,
            ..Counts::default()
        }
    }
}

/// `telemetry`: one snapshot of a manager.
pub fn manager_counts(manager: &Manager) -> Counts {
    Counts::from(&manager.telemetry())
}

pub fn store_counts(store: &Store) -> Counts {
    Counts {
        artifact_hits: store.hits(),
        artifact_misses: store.misses(),
        artifact_rejects: store.rejects(),
        ..Counts::default()
    }
}

// -------------------------------------------------------------- artifact

pub fn open_store(dir: &Path) -> Store {
    Store::new(dir)
}

// --------------------------------------------------------------- resched

/// `resched`: a region planned around `initial_rate`, default options and
/// policy, resolving plans through `store`.
pub fn new_region(
    program: &Program,
    device: &Device,
    initial_rate: i64,
    store: Arc<Store>,
) -> Result<Region, String> {
    Region::new(
        program,
        device,
        Options::default(),
        adaptic::ReschedPolicy::default(),
        initial_rate,
        Some(store),
    )
    .map_err(err)
}

/// `resched`: one firing, every element executed.
pub fn run_region(
    tr: &mut Tracer,
    op: u64,
    region: &mut Region,
    x: i64,
    input: &[f32],
) -> Result<Launch, String> {
    tr.span("resched.run", op, |_| {
        region
            .run(x, input, &[], run_options(Mode::Full))
            .map(Launch::from)
            .map_err(err)
    })
}

pub fn region_counts(region: &Region) -> Counts {
    Counts {
        clamped: region.clamped_runs(),
        plan_wall_us: region.plan_wall_us(),
        reschedules: region.reschedules(),
        ..Counts::from(&region.telemetry())
    }
}

// ----------------------------------------------------------------- fleet

pub fn fleet_for(program: &Program, axis: &Axis, devices: &[Device]) -> Result<Fleet, String> {
    Fleet::compile(program, axis, devices).map_err(err)
}

pub fn fleet_place(fleet: &Fleet, x: i64) -> Result<Placed, String> {
    fleet.place(x, PlacementPolicy::CostPredicted).map_err(err)
}

pub fn fleet_admit(fleet: &Fleet, x: i64) -> Result<Placed, String> {
    fleet.admit(x, PlacementPolicy::CostPredicted).map_err(err)
}

pub fn fleet_settle(
    fleet: &Fleet,
    placed: Placed,
    x: i64,
    input: &[f32],
) -> Result<Launch, String> {
    fleet
        .settle(placed, x, input, &[], run_options(Mode::Full))
        .map(Launch::from)
        .map_err(err)
}

/// Simulated makespan of everything the fleet has settled, µs.
pub fn fleet_makespan_sim_us(fleet: &Fleet) -> f64 {
    fleet.makespan_us()
}

// ----------------------------------------------------------------- serve

/// Queue bounds of the serving plane: `None` keeps the server's defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueCaps {
    pub per_tenant: usize,
    pub global: usize,
}

/// `serve`: a server with default configuration (two devices, two
/// workers), one tenant per `(name, program, axis)`, quotas out of the
/// way so only queues and deadlines refuse work.
pub fn start_server(
    tenants: &[(&str, &Program, &Axis)],
    caps: Option<QueueCaps>,
) -> Result<Server, String> {
    let mut cfg = ServerConfig::default();
    let mut policy = TenantPolicy::default().with_quota(1e9, 1e9);
    if let Some(c) = caps {
        cfg.global_queue_cap = c.global;
        policy = policy.with_queue_cap(c.per_tenant);
    }
    let server = Server::start(cfg);
    for (name, program, axis) in tenants {
        server
            .register_tenant(name, program, axis, policy.clone())
            .map_err(err)?;
    }
    Ok(server)
}

pub fn server_now_us(server: &Server) -> u64 {
    server.now_us()
}

/// Why admission turned a request away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    Quota,
    QueueFull,
    Deadline,
    Other,
}

/// `serve`: admission of one full-execution request.
pub fn submit(
    tr: &mut Tracer,
    op: u64,
    server: &Server,
    tenant: &str,
    x: i64,
    input: &Arc<Vec<f32>>,
    deadline_at_us: Option<u64>,
) -> Result<Ticket, Refusal> {
    tr.span("serve.submit", op, |_| {
        let mut req = Request::new(x, Arc::clone(input));
        if let Some(d) = deadline_at_us {
            req = req.with_deadline_at(d);
        }
        server.submit(tenant, req).map_err(|r| match r {
            RejectReason::QuotaExhausted => Refusal::Quota,
            RejectReason::QueueFull => Refusal::QueueFull,
            RejectReason::DeadlineInfeasible => Refusal::Deadline,
            RejectReason::ShuttingDown | RejectReason::UnknownTenant => Refusal::Other,
        })
    })
}

/// The one terminal outcome of an admitted request.
#[derive(Debug, Clone)]
pub enum Reply {
    Completed {
        launch: Launch,
        queued_us: u64,
        finished_at_us: u64,
        deadline_met: bool,
    },
    /// Dropped from the queue before it ran.
    Shed,
    /// Launched, then stopped by the deadline watchdog: work done and
    /// thrown away.
    DeadlineKilled,
    /// Any other failure: never expected without injected faults.
    Failed(String),
}

/// `serve`: block until the ticket's outcome.
pub fn wait(tr: &mut Tracer, op: u64, ticket: Ticket) -> Reply {
    tr.span("serve.wait", op, |_| match ticket.wait() {
        Outcome::Completed(c) => Reply::Completed {
            queued_us: c.queued_us,
            finished_at_us: c.finished_at_us,
            deadline_met: c.deadline_met,
            launch: Launch::from(c.report),
        },
        Outcome::Shed(_) => Reply::Shed,
        // The only signal of a watchdog kill visible from outside is the
        // failure's cause text.
        Outcome::Failed(streamir::Error::LaunchFailed { cause, .. })
            if cause.contains("deadline") =>
        {
            Reply::DeadlineKilled
        }
        Outcome::Failed(e) => Reply::Failed(e.to_string()),
    })
}

/// Serving and fleet counters summed over `tenants`.
pub fn server_counts(server: &Server, tenants: &[&str]) -> Counts {
    let mut total = Counts::default();
    for name in tenants {
        if let Some(t) = server.tenant_telemetry(name) {
            let mut c = Counts::from(&t);
            c.serve_failed = server.counters(name, |c| c.failed()).unwrap_or(0);
            total.add(&c);
        }
    }
    total
}

/// Drain and stop; true when the queues emptied in time.
pub fn shutdown(server: Server) -> bool {
    server.shutdown(2_000_000).drained_clean
}

// ------------------------------------------------------ probe: streamir

pub struct Flat(FlatGraph);

pub fn flatten(program: &Program) -> Result<Flat, String> {
    program.flatten().map(Flat).map_err(err)
}

/// `streamir`: the steady-state schedule at axis value `x`; returns the
/// firings per steady state.
pub fn rate_match(flat: &Flat, axis: &Axis, x: i64) -> Result<u64, String> {
    streamir::schedule::rate_match(&flat.0, &axis.bind(x))
        .map(|s| s.total_firings())
        .map_err(err)
}

pub fn content_hash(program: &Program, axis: &Axis, opts: &Options) -> u64 {
    adaptic::content_hash(program, axis, opts)
}

// ------------------------------------------------ probe: bytecode + warp

/// One actor's work body with the bindings it is lowered under.
pub struct Body {
    stmts: Vec<Stmt>,
    binds: Bindings,
    pop: usize,
    push: usize,
}

/// The work bodies of `program` bound at axis value `x`.
pub fn bodies(program: &Program, axis: &Axis, x: i64) -> Result<Vec<Body>, String> {
    let binds = axis.bind(x);
    program
        .actors
        .iter()
        .map(|a| {
            Ok(Body {
                stmts: a.work.body.clone(),
                pop: a.work.pop.eval(&binds).map_err(err)?.max(0) as usize,
                push: a.work.push.eval(&binds).map_err(err)?.max(0) as usize,
                binds: binds.clone(),
            })
        })
        .collect()
}

/// `bytecode`: lower one body; returns its opcode count.
pub fn lower(body: &Body) -> Result<usize, String> {
    bytecode::compile_body(&body.stmts, &body.binds, &[])
        .map(|p| p.ops().len())
        .map_err(err)
}

/// A lowered body ready to be evaluated one warp at a time over vectors.
pub struct WarpBench {
    prog: bytecode::Program,
    proto: Vec<Value>,
    frame: WarpFrame,
    io: VecWarpIo,
    pop: usize,
    push: usize,
}

pub const WARP_LANES: usize = 32;

impl WarpBench {
    pub fn new(body: &Body, data: &[f32]) -> Result<WarpBench, String> {
        let prog = bytecode::compile_body(&body.stmts, &body.binds, &[]).map_err(err)?;
        let proto = prog.bind(&body.binds).map_err(err)?;
        let mut frame = WarpFrame::default();
        frame.fit(&prog, WARP_LANES);
        let need = body.pop * WARP_LANES;
        let input: Vec<f32> = data.iter().copied().cycle().take(need).collect();
        Ok(WarpBench {
            io: VecWarpIo {
                input,
                cursor: vec![0; WARP_LANES],
                output: vec![0.0; body.push * WARP_LANES],
                out_pos: vec![0; WARP_LANES],
                state: HashMap::new(),
            },
            prog,
            proto,
            frame,
            pop: body.pop,
            push: body.push,
        })
    }

    /// `warp`: one firing on each of [`WARP_LANES`] lanes.
    pub fn eval(&mut self) -> f32 {
        for l in 0..WARP_LANES {
            self.io.cursor[l] = l * self.pop;
            self.io.out_pos[l] = l * self.push;
        }
        self.frame.reset(&self.proto);
        warp::eval(
            &self.prog,
            &mut self.frame,
            warp::full_mask(WARP_LANES),
            &mut self.io,
        );
        self.io.output.first().copied().unwrap_or(0.0)
    }
}

// ------------------------------------------------------ probe: perfmodel

/// A launch profile taken from a real launch, and the device it ran on.
pub struct ModelProbe {
    device: Device,
    profile: perfmodel::LaunchProfile,
}

impl ModelProbe {
    /// The profile of the first kernel `plan` launches at `x`.
    pub fn new(plan: &Plan, x: i64, input: &[f32]) -> Result<ModelProbe, String> {
        let report = plan
            .run_opts(x, input, &[], run_options(Mode::Sampled), None)
            .map_err(err)?;
        let first = report
            .kernels
            .first()
            .ok_or("the plan launched no kernel")?;
        Ok(ModelProbe {
            device: plan.device().clone(),
            profile: perfmodel::LaunchProfile::from_stats(plan.device(), &first.stats),
        })
    }

    /// `perfmodel`: one timing estimate; returns the simulated µs.
    pub fn estimate(&self) -> f64 {
        perfmodel::estimate(&self.device, &self.profile).time_us
    }
}

/// `perfmodel`: partition an axis among three analytic cost curves (a
/// flat, a linear and a super-linear one); returns the range count.
pub fn partition(lo: i64, hi: i64) -> usize {
    let mut curves: Vec<Box<dyn FnMut(i64) -> f64>> = vec![
        Box::new(|x| 40.0 + 0.010 * x as f64),
        Box::new(|x| 12.0 + 0.015 * x as f64),
        Box::new(|x| 4.0 + 0.002 * x as f64 * (x as f64).ln()),
    ];
    perfmodel::partition_range(lo, hi, &mut curves).len()
}

// ------------------------------------------------------- probe: artifact

/// One plan's artifact beside a store that holds it.
pub struct ArtifactProbe {
    store: Store,
    key: adaptic::ArtifactKey,
    artifact: adaptic::artifact::PlanArtifact,
    segments: usize,
    range: (i64, i64),
    file: PathBuf,
}

impl ArtifactProbe {
    pub fn new(plan: &Plan, dir: &Path) -> Result<ArtifactProbe, String> {
        let store = Store::new(dir);
        let (key, artifact) = (plan.artifact_key(), plan.export_plan());
        store.store_plan(key, &artifact).map_err(err)?;
        let file = std::fs::read_dir(dir)
            .map_err(err)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .next()
            .ok_or("store wrote no file")?;
        Ok(ArtifactProbe {
            store,
            key,
            artifact,
            segments: plan.segment_labels().len(),
            range: plan.axis_range(),
            file,
        })
    }

    /// `artifact`: encode only (what `byte_size` does); returns the bytes.
    pub fn encode(&self) -> usize {
        self.artifact.byte_size()
    }

    /// `artifact`: encode + atomic write.
    pub fn store(&self) -> Result<(), String> {
        self.store.store_plan(self.key, &self.artifact).map_err(err)
    }

    /// `artifact`: read + decode + validate; true on a hit.
    pub fn load(&self) -> bool {
        self.store
            .load_plan(self.key, self.segments, self.range.0, self.range.1)
            .is_some()
    }

    /// The file read alone, to take the decode time by difference.
    pub fn read_raw(&self) -> usize {
        std::fs::read(&self.file).map(|b| b.len()).unwrap_or(0)
    }
}

// -------------------------------------------------- probe: gpu_sim.cache

/// One block that copies `x[i] + 1` to `y[i]`: the smallest launch there
/// is, so the cache's own cost is what a cached launch of it measures.
struct TinyKernel {
    x: BufId,
    y: BufId,
}

const TINY_THREADS: u32 = 32;

impl Kernel for TinyKernel {
    fn name(&self) -> &str {
        "perf_tiny"
    }

    fn config(&self) -> LaunchConfig {
        LaunchConfig::new(1, TINY_THREADS, 0)
    }

    fn run_block(&self, _block: u32, ctx: &mut BlockCtx<'_>) {
        for t in ctx.threads() {
            let v = ctx.ld_global(0, t, self.x, t as usize);
            ctx.st_global(1, t, self.y, t as usize, v + 1.0);
        }
    }
}

/// The launch cache of a manager, driven directly through `StatsCache`.
pub struct CacheProbe {
    manager: Manager,
    device: Device,
    mem: GlobalMem,
    kernel: TinyKernel,
    pool: ScratchPool,
    next_dims: u64,
}

impl CacheProbe {
    pub fn new(plan: Plan) -> CacheProbe {
        let device = plan.device().clone();
        let mut mem = GlobalMem::new();
        let x = mem.alloc_from(&[0.5; TINY_THREADS as usize]);
        let y = mem.alloc(TINY_THREADS as usize);
        CacheProbe {
            manager: manage_small_cache(plan),
            device,
            mem,
            kernel: TinyKernel { x, y },
            pool: ScratchPool::new(),
            next_dims: 1,
        }
    }

    fn cached(&mut self, dims: u64) -> bool {
        self.manager
            .cache()
            .launch_cached(
                &self.device,
                &mut self.mem,
                &self.kernel,
                ExecMode::SampledExec(SAMPLED_BLOCKS),
                ExecPolicy::Serial,
                (dims, 0),
                &self.pool,
                LaunchControl::default(),
            )
            .map(|(_, hit)| hit)
            .unwrap_or(false)
    }

    /// `gpu_sim.cache`: a lookup that hits (dims 0 is inserted first).
    pub fn hit(&mut self) -> bool {
        self.cached(0)
    }

    /// `gpu_sim.cache`: never-seen dims: lookup, launch, insert and, once
    /// the cache is full, evict.
    pub fn miss(&mut self) -> bool {
        self.next_dims += 1;
        !self.cached(self.next_dims)
    }

    /// The same launch with no cache, to take the insert by difference.
    pub fn direct(&mut self) -> bool {
        try_launch_pooled(
            &self.device,
            &mut self.mem,
            &self.kernel,
            ExecMode::SampledExec(SAMPLED_BLOCKS),
            ExecPolicy::Serial,
            &self.pool,
            LaunchControl::default(),
        )
        .is_ok()
    }

    pub fn capacity(&self) -> usize {
        cache_capacity(&self.manager)
    }

    pub fn counts(&self) -> Counts {
        manager_counts(&self.manager)
    }
}
