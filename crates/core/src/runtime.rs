//! Runtime kernel management (§3 of the paper).
//!
//! At execution time the kernel-management unit selects the properly
//! optimized variant for the actual program input, sets each kernel's
//! launch parameters (blocks, threads per block, shared-memory size),
//! uploads/restructures host data, launches the plan's kernels in order on
//! the simulated device, and reads back the output. As in the paper, the
//! selection logic itself runs on the host and its cost is hidden under
//! the initial host-to-device transfer, so it does not appear in kernel
//! time.

use std::borrow::Cow;
use std::sync::Arc;

use gpu_sim::{
    try_launch_pooled, BufId, ExecMode, ExecPolicy, FaultInjector, GlobalMem, Kernel, KernelStats,
    LaunchControl, LaunchError, ScratchPool, StatsCache,
};
use perfmodel::{estimate_stats, TimingEstimate};
use streamir::actor::{ActorDef, StateVar};
use streamir::error::{Error, Result};
use streamir::ir::{Expr, Stmt};
use streamir::rates::Bindings;
use streamir::schedule::Balance;
use streamir::value::Value;

use crate::analysis::opcount::{body_counts, OpCounts};
use crate::analysis::reduction::ReductionPattern;
use crate::bytecode;
use crate::layout::{restructure, unrestructure, Layout};
use crate::opt::segmentation::ReduceChoice;
use crate::plan::{CompiledProgram, ReduceBodies, SegChoice, SegKind};
use crate::templates::{
    elem_counts, two_kernel_reduce, BlockReduce, Body, FusedReduce, MapKernel, ReduceSpec,
    StencilKernel,
};
use crate::warp::{self, HostIo, WarpFrame};

/// Host data bound to one actor's state array before execution.
#[derive(Debug, Clone)]
pub struct StateBinding {
    pub actor: String,
    pub array: String,
    pub data: Vec<f32>,
}

impl StateBinding {
    /// Convenience constructor.
    pub fn new(actor: &str, array: &str, data: Vec<f32>) -> StateBinding {
        StateBinding {
            actor: actor.to_string(),
            array: array.to_string(),
            data,
        }
    }
}

/// Statistics and timing of one launched kernel.
#[derive(Debug, Clone)]
pub struct KernelReport {
    pub name: Arc<str>,
    pub stats: KernelStats,
    pub estimate: TimingEstimate,
    /// True when the stats were served from a [`StatsCache`]
    /// ([`crate::ShardedLaunchCache`]) instead of being re-simulated.
    pub cached: bool,
}

/// How failed launches are retried before the runtime gives up on a
/// kernel: attempt budget, bounded exponential backoff between attempts,
/// and an optional per-launch deadline.
///
/// The default policy changes nothing about fault-free runs: retries only
/// trigger on a failed launch, and `deadline_us == 0` disables the
/// watchdog entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per launch (first try included); at least 1.
    pub max_attempts: u32,
    /// Backoff before retry `k` is `base << (k-1)`, capped below.
    pub backoff_base_us: u64,
    /// Upper bound on a single backoff sleep.
    pub backoff_cap_us: u64,
    /// Wall-clock budget for the whole resilient run; 0 disables the
    /// deadline watchdog. A single in-flight attempt gets this as its
    /// simulated launch deadline, and once the budget has elapsed no
    /// further retries are issued — neither within a launch's attempt
    /// loop nor down the manager's variant-fallback ladder. The first
    /// attempt always runs, so a zero-remaining budget degrades to
    /// one try, not zero.
    pub deadline_us: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_base_us: 50,
            backoff_cap_us: 800,
            deadline_us: 0,
        }
    }
}

impl RetryPolicy {
    /// Backoff to sleep before retrying after `failed_attempts` failures.
    pub(crate) fn backoff_us(&self, failed_attempts: u32) -> u64 {
        let shift = failed_attempts.saturating_sub(1).min(16);
        (self.backoff_base_us << shift).min(self.backoff_cap_us)
    }
}

/// How the runtime executes a program's kernels: the grid-sampling mode
/// and the engine driving the block loop, plus the resilience knobs (fault
/// injector, retry policy).
///
/// The lifetime ties an optional borrowed [`FaultInjector`] to the options
/// value; fault-free callers use `RunOptions<'static>` (what the
/// constructors return) and never see it.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions<'f> {
    /// How much of each grid to execute/record.
    pub mode: ExecMode,
    /// Serial or deterministic-parallel block execution.
    pub policy: ExecPolicy,
    /// Run this variant of the table instead of the one selected for the
    /// input. The kernel-management unit uses it to launch each rung of
    /// its fallback ladder; tests use it to measure a variant outside its
    /// model-assigned sub-range.
    pub force_variant: Option<usize>,
    /// Fault injector consulted once per launch attempt (chaos testing);
    /// `None` in production runs.
    pub faults: Option<&'f dyn FaultInjector>,
    /// Retry/backoff/deadline policy applied to every launch.
    pub retry: RetryPolicy,
}

impl<'f> RunOptions<'f> {
    /// The given mode on one worker (the caller's thread).
    pub fn serial(mode: ExecMode) -> RunOptions<'static> {
        RunOptions {
            mode,
            policy: ExecPolicy::Serial,
            force_variant: None,
            faults: None,
            retry: RetryPolicy::default(),
        }
    }

    /// The given mode on one worker per host core.
    pub fn parallel(mode: ExecMode) -> RunOptions<'static> {
        RunOptions {
            mode,
            policy: ExecPolicy::auto(),
            force_variant: None,
            faults: None,
            retry: RetryPolicy::default(),
        }
    }

    /// Force a specific variant of the table, bypassing input-based
    /// selection.
    pub fn with_variant(mut self, index: usize) -> RunOptions<'f> {
        self.force_variant = Some(index);
        self
    }

    /// Consult this injector on every launch attempt (shortens the
    /// lifetime to the injector's borrow).
    pub fn with_faults<'g>(self, faults: &'g dyn FaultInjector) -> RunOptions<'g>
    where
        'f: 'g,
    {
        RunOptions {
            faults: Some(faults),
            ..self
        }
    }

    /// Replace the retry/backoff/deadline policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> RunOptions<'f> {
        self.retry = retry;
        self
    }

    /// The degraded-but-correct last resort of these options: one worker
    /// and a doubled retry budget.
    pub(crate) fn degraded(mut self) -> RunOptions<'f> {
        self.policy = ExecPolicy::Serial;
        self.retry.max_attempts = self.retry.max_attempts.max(1).saturating_mul(2);
        self
    }
}

impl Default for RunOptions<'static> {
    fn default() -> Self {
        RunOptions::serial(ExecMode::Full)
    }
}

/// The result of running a compiled program on one input.
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// The program's output stream.
    pub output: Vec<f32>,
    /// Per-kernel statistics, in launch order.
    pub kernels: Vec<KernelReport>,
    /// Estimated device time (µs), kernels + launch overheads.
    pub time_us: f64,
    /// Host-side time (µs) spent in opaque (non-GPU) segments.
    pub host_time_us: f64,
    /// Which variant of the table ran.
    pub variant_index: usize,
    /// Kernel launches served from the memoization cache in this run.
    pub cache_hits: u64,
    /// Kernel launches that had to simulate in this run (always equals the
    /// launch count when no cache was supplied).
    pub cache_misses: u64,
    /// Launch attempts re-issued after a failed attempt in this run.
    pub retries: u64,
    /// Launch failures the resilient pipeline observed (each either
    /// retried away or escalated to [`Error::LaunchFailed`]).
    pub faults_observed: u64,
    /// Launch attempts that overran their deadline budget (injected hangs
    /// and genuine overruns).
    pub deadline_overruns: u64,
    /// Kernel-management-unit telemetry, filled in when the run went
    /// through a [`crate::KernelManager`]; `None` for direct runs.
    pub telemetry: Option<crate::telemetry::TelemetrySnapshot>,
}

impl ExecutionReport {
    /// Total floating-point operations counted across kernels.
    pub fn flops(&self) -> f64 {
        self.kernels.iter().map(|k| k.stats.totals.flops).sum()
    }

    /// Achieved GFLOPS under the estimated time.
    pub fn gflops(&self) -> f64 {
        let t = self.time_us + self.host_time_us;
        if t > 0.0 {
            self.flops() / (t * 1e3)
        } else {
            0.0
        }
    }
}

impl CompiledProgram {
    /// Run the program on `input` at axis value `x`, with full (exact)
    /// execution, no state arrays, one worker and no memoization:
    /// [`run_opts`](CompiledProgram::run_opts) under
    /// `RunOptions::serial(ExecMode::Full)`.
    ///
    /// # Errors
    ///
    /// See [`CompiledProgram::run_opts`].
    pub fn run(&self, x: i64, input: &[f32]) -> Result<ExecutionReport> {
        self.run_opts(x, input, &[], RunOptions::serial(ExecMode::Full), None)
    }

    /// Run with explicit execution options and an optional launch-stats
    /// memoization cache.
    ///
    /// The engine choice ([`RunOptions::policy`]) never changes results:
    /// parallel execution merges per-worker counters in block-index order
    /// and is bit-for-bit identical to serial. Supplying a `cache` *does*
    /// change functional output on hits — memoized launches are not
    /// re-executed, so device buffers keep their prior contents. Only pass
    /// a cache in timing-only sweeps over data-independent workloads
    /// (where [`ExecMode::SampledExec`] is already discarding outputs);
    /// hit/miss counts are reported in the [`ExecutionReport`].
    ///
    /// [`ExecMode::SampledExec`] executes a block subset — outputs are
    /// partial but the statistics (and therefore timing) still describe
    /// the whole launch; use it for timing-only sweeps.
    ///
    /// # Errors
    ///
    /// Returns scheduling errors, [`Error::InsufficientInput`], and
    /// [`Error::Runtime`] for missing state bindings.
    pub fn run_opts(
        &self,
        x: i64,
        input: &[f32],
        state: &[StateBinding],
        opts: RunOptions<'_>,
        cache: Option<&dyn StatsCache>,
    ) -> Result<ExecutionReport> {
        let env = LaunchEnv {
            device: &self.device,
            opts,
            cache,
            // Fingerprint of this run's input dimensions: the axis value
            // and the stream length. Together with the kernel name and
            // launch geometry this pins the statistics of a
            // data-independent launch.
            dims: (x as u64, input.len() as u64),
            hits: std::cell::Cell::new(0),
            misses: std::cell::Cell::new(0),
            retries: std::cell::Cell::new(0),
            faults_observed: std::cell::Cell::new(0),
            deadline_overruns: std::cell::Cell::new(0),
            scratch: ScratchPool::new(),
        };
        let (variant_index, variant) = match opts.force_variant {
            Some(idx) => {
                // Forcing bypasses selection, not the input contract: an
                // axis value outside the compiled range is a typed error
                // (the unforced path clamps because selection alone moves;
                // here the caller named a specific (variant, x) pair, so
                // silently running a different point would falsify the
                // measurement they asked for).
                let (lo, hi) = self.axis_range();
                if x < lo || x > hi {
                    return Err(Error::InputOutOfRange { x, lo, hi });
                }
                let variant = self.variants.get(idx).ok_or_else(|| {
                    Error::Runtime(format!(
                        "forced variant {idx} out of bounds (table has {})",
                        self.variants.len()
                    ))
                })?;
                (idx, variant)
            }
            None => self.try_variant_for(x.clamp(self.axis_range().0, self.axis_range().1))?,
        };
        let choices = variant.choices.clone();
        let binds = self.axis.bind(x);
        let mut bal = Balance::default();
        let steady_input = self.flat.repetitions(&binds, &mut bal)?;
        if steady_input == 0 {
            return Err(Error::RateMismatch("program consumes no input".into()));
        }
        let iterations = input.len() as u64 / steady_input;
        if iterations == 0 {
            return Err(Error::InsufficientInput {
                needed: steady_input as usize,
                got: input.len(),
            });
        }

        let mut mem = GlobalMem::new();
        // Upload state arrays once, in binding order. Segments resolve
        // their arrays positionally against this dense table — no per-run
        // map and no string clones on the resolution path.
        let state_bufs: Vec<BufId> = state.iter().map(|sb| mem.alloc_from(&sb.data)).collect();

        let mut kernels: Vec<KernelReport> = Vec::new();
        let mut host_time_us = 0.0f64;
        // The current stream: either still on the host (before the first
        // GPU segment) or a device buffer.
        let mut cur_host: Option<Cow<'_, [f32]>> = Some(Cow::Borrowed(input));
        let mut cur_buf: Option<BufId> = None;
        let mut cur_layout = Layout::RowMajor;

        // The bound state arrays of actor `name`, in declaration order (an
        // actor the program does not have binds none).
        let arrays = |name: &str| -> Result<Vec<(String, BufId)>> {
            let Some(actor) = self.program.actor(name) else {
                return Ok(Vec::new());
            };
            let mut out = Vec::new();
            for sv in &actor.state {
                if let StateVar::Array { name, .. } = sv {
                    let buf = state
                        .iter()
                        .position(|sb| sb.actor == actor.name && sb.array == *name)
                        .map(|p| state_bufs[p])
                        .ok_or_else(|| {
                            Error::Runtime(format!("state array {}::{name} not bound", actor.name))
                        })?;
                    out.push((name.clone(), buf));
                }
            }
            Ok(out)
        };
        // A segment's lowered body bound for this launch.
        let body = |program: &Arc<bytecode::Program>,
                    preset: Option<&str>,
                    bound: &[(String, BufId)],
                    counts: OpCounts| {
            Body::new(
                program.clone(),
                &binds,
                preset,
                bound,
                counts,
                self.warp_frames.clone(),
            )
        };
        let spec = |p: &ReductionPattern, (elem, post): &ReduceBodies, actor: &str| {
            let counts = elem_counts(&p.elem, &binds, p.pops_per_elem);
            Ok::<_, Error>(ReduceSpec {
                op: p.op,
                init: p.init,
                pops_per_elem: p.pops_per_elem,
                elem: body(elem, Some(&p.loop_var), &arrays(actor)?, counts)?,
                post: match post {
                    Some(post) => Some(body(post, Some(&p.acc), &[], OpCounts::default())?),
                    None => None,
                },
            })
        };

        for (i, seg) in self.segments.iter().enumerate() {
            let shape = crate::plan::shape(seg, &binds, bal.reps(), iterations)?;
            let reps = shape.reps;
            let want_in_layout = self.edge_layouts[i];
            let choice = &choices[i];

            match (&seg.kind, choice) {
                (SegKind::Unit(u), SegChoice::Map { coarsen }) => {
                    let upf = shape.upf;
                    let units = reps * upf;
                    let window = match &u.window_pop {
                        Some(w) => Some(w.eval(&binds)?.max(0) as usize),
                        None => None,
                    };
                    let in_items = match window {
                        Some(w) => reps * w,
                        None => units * u.pops_per_unit,
                    };
                    let out_items = units * u.pushes_per_unit;
                    let in_buf = ensure_device(
                        &mut mem,
                        &mut cur_host,
                        &mut cur_buf,
                        &mut cur_layout,
                        if window.is_some() {
                            Layout::RowMajor
                        } else {
                            want_in_layout
                        },
                        u.pops_per_unit,
                        in_items,
                    )?;
                    let out_buf = mem.alloc(out_items);
                    let mut bound = Vec::new();
                    for actor in &u.state_actors {
                        bound.extend(arrays(actor)?);
                    }
                    let counts = body_counts(&u.body, &binds);
                    let k = MapKernel {
                        name: seg.label.clone(),
                        body: body(&u.program, u.loop_var.as_deref(), &bound, counts)?,
                        units,
                        units_per_firing: upf,
                        window_pop: window,
                        pops_per_unit: u.pops_per_unit,
                        pushes_per_unit: u.pushes_per_unit,
                        in_buf,
                        in_layout: cur_layout,
                        out_buf,
                        out_layout: self.edge_layouts[i + 1],
                        coarsen: (*coarsen).max(1),
                        out_group: None,
                        stage_window: false,
                        block_dim: 256,
                    };
                    run_kernel(&env, &mut mem, &k, &mut kernels)?;
                    cur_buf = Some(out_buf);
                    cur_layout = self.edge_layouts[i + 1];
                }
                (SegKind::Reduce(r), SegChoice::Reduce { choice }) => {
                    let (n_arrays, n_elements) = (reps, shape.elements);
                    let ppe = r.pattern.pops_per_elem.max(1);
                    let in_items = n_arrays * n_elements * ppe;
                    let out_buf_len = n_arrays;
                    match choice {
                        ReduceChoice::ThreadPerArray { block_dim } => {
                            // Lower as a per-array serial map with the
                            // array-major (transposed) layout.
                            let in_buf = ensure_device(
                                &mut mem,
                                &mut cur_host,
                                &mut cur_buf,
                                &mut cur_layout,
                                Layout::Transposed,
                                n_elements * ppe,
                                in_items,
                            )?;
                            let out_buf = mem.alloc(out_buf_len);
                            let counts = body_counts(&r.serial_body, &binds);
                            let k = MapKernel {
                                name: format!("{}_tpa", seg.label),
                                body: body(&r.serial, None, &arrays(&r.actor)?, counts)?,
                                units: n_arrays,
                                units_per_firing: n_arrays,
                                window_pop: None,
                                pops_per_unit: n_elements * ppe,
                                pushes_per_unit: 1,
                                in_buf,
                                in_layout: cur_layout,
                                out_buf,
                                out_layout: Layout::RowMajor,
                                coarsen: 1,
                                out_group: None,
                                stage_window: false,
                                block_dim: *block_dim,
                            };
                            run_kernel(&env, &mut mem, &k, &mut kernels)?;
                            cur_buf = Some(out_buf);
                            cur_layout = Layout::RowMajor;
                        }
                        ReduceChoice::OneKernel {
                            arrays_per_block,
                            block_dim,
                        } => {
                            let in_buf = ensure_device(
                                &mut mem,
                                &mut cur_host,
                                &mut cur_buf,
                                &mut cur_layout,
                                want_in_layout,
                                ppe,
                                in_items,
                            )?;
                            let out_buf = mem.alloc(out_buf_len);
                            let k = BlockReduce {
                                spec: spec(&r.pattern, &r.bodies, &r.actor)?,
                                name: seg.label.clone(),
                                n_arrays,
                                n_elements,
                                arrays_per_block: *arrays_per_block,
                                chunks: 1,
                                block_dim: *block_dim,
                                in_buf,
                                in_layout: cur_layout,
                                out_buf,
                                out_stride: 1,
                                out_offset: 0,
                                partials: false,
                            };
                            run_kernel(&env, &mut mem, &k, &mut kernels)?;
                            cur_buf = Some(out_buf);
                            cur_layout = Layout::RowMajor;
                        }
                        ReduceChoice::TwoKernel { block_dim } => {
                            let geometry = crate::opt::two_kernel_geometry(
                                &self.device,
                                n_arrays,
                                n_elements,
                                *block_dim,
                            );
                            let in_buf = ensure_device(
                                &mut mem,
                                &mut cur_host,
                                &mut cur_buf,
                                &mut cur_layout,
                                want_in_layout,
                                ppe,
                                in_items,
                            )?;
                            let partials = mem.alloc(n_arrays * geometry.0);
                            let out_buf = mem.alloc(out_buf_len);
                            let (k1, k2) = two_kernel_reduce(
                                spec(&r.pattern, &r.bodies, &r.actor)?,
                                n_arrays,
                                n_elements,
                                geometry,
                                *block_dim,
                                in_buf,
                                cur_layout,
                                partials,
                                out_buf,
                            );
                            run_kernel(&env, &mut mem, &k1, &mut kernels)?;
                            run_kernel(&env, &mut mem, &k2, &mut kernels)?;
                            cur_buf = Some(out_buf);
                            cur_layout = Layout::RowMajor;
                        }
                    }
                }
                (SegKind::Stencil(s), SegChoice::Stencil { tile }) => {
                    if reps != 1 {
                        return Err(Error::Runtime(format!(
                            "stencil segment `{}` must process the whole input in one \
                             firing (got {reps} firings)",
                            seg.label
                        )));
                    }
                    let total = shape.elements;
                    let (hr, hc) = shape.halo;
                    let in_buf = ensure_device(
                        &mut mem,
                        &mut cur_host,
                        &mut cur_buf,
                        &mut cur_layout,
                        Layout::RowMajor,
                        1,
                        total,
                    )?;
                    let out_buf = mem.alloc(total);
                    let p = &s.pattern;
                    let counts = body_counts(&p.body, &binds);
                    let k = StencilKernel {
                        name: seg.label.clone(),
                        body: body(&s.program, Some(&p.loop_var), &arrays(&s.actor)?, counts)?,
                        rows: shape.rows,
                        cols: shape.cols,
                        tile_w: tile.0,
                        tile_h: tile.1,
                        halo_r: hr,
                        halo_c: hc,
                        block_dim: 256,
                        in_buf,
                        out_buf,
                    };
                    run_kernel(&env, &mut mem, &k, &mut kernels)?;
                    cur_buf = Some(out_buf);
                    cur_layout = Layout::RowMajor;
                }
                (SegKind::HFused(h), SegChoice::HFused { fused }) => {
                    let (n_arrays, n_elements) = (reps, shape.elements);
                    let ppe = h.patterns[0].pops_per_elem.max(1);
                    let k_out = h.patterns.len();
                    let in_items = n_arrays * n_elements * ppe;
                    let in_buf = ensure_device(
                        &mut mem,
                        &mut cur_host,
                        &mut cur_buf,
                        &mut cur_layout,
                        want_in_layout,
                        ppe,
                        in_items,
                    )?;
                    let out_buf = mem.alloc(n_arrays * k_out);
                    let specs = (h.patterns.iter().zip(&h.bodies).zip(&h.actors))
                        .map(|((p, bodies), actor)| spec(p, bodies, actor))
                        .collect::<Result<Vec<_>>>()?;
                    if *fused {
                        // Shared memory holds one block_dim-sized segment
                        // per sibling; shrink blocks until they fit.
                        let cap = self.device.shared_words_per_block as usize;
                        let mut block_dim = 256usize;
                        while block_dim > 32 && block_dim * k_out > cap {
                            block_dim /= 2;
                        }
                        let k = FusedReduce {
                            specs,
                            name: seg.label.clone(),
                            n_arrays,
                            n_elements,
                            block_dim: block_dim as u32,
                            in_buf,
                            in_layout: cur_layout,
                            out_buf,
                        };
                        run_kernel(&env, &mut mem, &k, &mut kernels)?;
                    } else {
                        for (s_idx, spec) in specs.into_iter().enumerate() {
                            let k = BlockReduce {
                                spec,
                                name: format!("{}_{s_idx}", seg.label),
                                n_arrays,
                                n_elements,
                                arrays_per_block: 1,
                                chunks: 1,
                                block_dim: 256,
                                in_buf,
                                in_layout: cur_layout,
                                out_buf,
                                out_stride: k_out,
                                out_offset: s_idx,
                                partials: false,
                            };
                            run_kernel(&env, &mut mem, &k, &mut kernels)?;
                        }
                    }
                    cur_buf = Some(out_buf);
                    cur_layout = Layout::RowMajor;
                }
                (SegKind::MapSiblings(m), SegChoice::MapSiblings) => {
                    let units = reps;
                    let in_items = units * m.pops_per_unit;
                    let out_items = units * m.total_push;
                    let in_buf = ensure_device(
                        &mut mem,
                        &mut cur_host,
                        &mut cur_buf,
                        &mut cur_layout,
                        want_in_layout,
                        m.pops_per_unit,
                        in_items,
                    )?;
                    let out_buf = mem.alloc(out_items);
                    let mut offset = 0usize;
                    for (ast, pushes, actor, program) in &m.branches {
                        let counts = body_counts(ast, &binds);
                        let k = MapKernel {
                            name: format!("{}_{actor}", seg.label),
                            body: body(program, None, &arrays(actor)?, counts)?,
                            units,
                            units_per_firing: units,
                            window_pop: None,
                            pops_per_unit: m.pops_per_unit,
                            pushes_per_unit: *pushes,
                            in_buf,
                            in_layout: cur_layout,
                            out_buf,
                            out_layout: Layout::RowMajor,
                            coarsen: 1,
                            out_group: Some((m.total_push, offset)),
                            stage_window: false,
                            block_dim: 256,
                        };
                        run_kernel(&env, &mut mem, &k, &mut kernels)?;
                        offset += pushes;
                    }
                    cur_buf = Some(out_buf);
                    cur_layout = Layout::RowMajor;
                }
                (SegKind::Opaque(actor_idx, program), SegChoice::Opaque) => {
                    // Host execution: download, interpret, keep on host.
                    let actor = &self.program.actors[*actor_idx];
                    let data: &[f32] = match (&cur_host, cur_buf) {
                        (Some(h), _) => h,
                        (None, Some(buf)) => mem.read(buf),
                        _ => unreachable!("stream is somewhere"),
                    };
                    let (out, us) = run_opaque(actor, reps, data, &binds, state, program)?;
                    host_time_us += us;
                    cur_host = Some(Cow::Owned(out));
                    cur_buf = None;
                    cur_layout = Layout::RowMajor;
                }
                (kind, choice) => {
                    return Err(Error::Runtime(format!(
                        "segment/choice mismatch: {kind:?} with {choice:?}"
                    )));
                }
            }
        }

        // Read back the output.
        let mut output = match (cur_host, cur_buf) {
            (Some(h), _) => h.into_owned(),
            (None, Some(buf)) => mem.into_host(buf),
            _ => Vec::new(),
        };
        if cur_layout == Layout::Transposed {
            // The final push window of the last unit segment.
            if let Some(SegKind::Unit(u)) = self.segments.last().map(|s| &s.kind) {
                if u.pushes_per_unit > 1 {
                    output = unrestructure(&output, u.pushes_per_unit);
                }
            }
        }

        let time_us = kernels.iter().map(|k| k.estimate.time_us).sum();
        Ok(ExecutionReport {
            output,
            kernels,
            time_us,
            host_time_us,
            variant_index,
            cache_hits: env.hits.get(),
            cache_misses: env.misses.get(),
            retries: env.retries.get(),
            faults_observed: env.faults_observed.get(),
            deadline_overruns: env.deadline_overruns.get(),
            telemetry: None,
        })
    }
}

/// Ensure the stream lives in device memory with the wanted layout;
/// restructuring host data is free (done at generation time, §4.1.1).
fn ensure_device(
    mem: &mut GlobalMem,
    cur_host: &mut Option<Cow<'_, [f32]>>,
    cur_buf: &mut Option<BufId>,
    cur_layout: &mut Layout,
    want: Layout,
    window: usize,
    expect_items: usize,
) -> Result<BufId> {
    if let Some(host) = cur_host.take() {
        if host.len() < expect_items {
            return Err(Error::InsufficientInput {
                needed: expect_items,
                got: host.len(),
            });
        }
        // The one host-to-device copy: a restructured or borrowed stream
        // is copied here, an owned one moves in.
        let data = match host {
            host if want == Layout::Transposed && window > 1 => {
                restructure(&host[..expect_items], window)
            }
            Cow::Borrowed(h) => h[..expect_items].to_vec(),
            Cow::Owned(mut h) => {
                h.truncate(expect_items);
                h
            }
        };
        let buf = mem.alloc_from(data);
        *cur_buf = Some(buf);
        *cur_layout = if window > 1 { want } else { Layout::RowMajor };
        return Ok(buf);
    }
    // Device-resident data keeps whatever layout its producer wrote; the
    // planner guarantees producer/consumer agreement. A stream that is on
    // neither side is a planner bug, surfaced as a typed error rather than
    // a panic so callers in long-running services keep control.
    cur_buf.ok_or_else(|| Error::Runtime("stream is neither on host nor device".into()))
}

/// Per-run launch context threaded through [`run_kernel`]: the device, the
/// engine options, the optional memoization cache, this run's dimension
/// fingerprint for cache keys, the resilience counters, and the scratch
/// pool that recycles warp accounting arenas across the run's kernel
/// launches.
struct LaunchEnv<'a> {
    device: &'a gpu_sim::DeviceSpec,
    opts: RunOptions<'a>,
    cache: Option<&'a dyn StatsCache>,
    dims: (u64, u64),
    hits: std::cell::Cell<u64>,
    misses: std::cell::Cell<u64>,
    retries: std::cell::Cell<u64>,
    faults_observed: std::cell::Cell<u64>,
    deadline_overruns: std::cell::Cell<u64>,
    scratch: ScratchPool,
}

/// Launch one kernel under the resilient pipeline: every attempt runs
/// fallibly (panic-isolated, deadline-budgeted, injector-consulted); a
/// failed attempt is retried with bounded exponential backoff up to
/// [`RetryPolicy::max_attempts`], after which the launch escalates as
/// [`Error::LaunchFailed`]. Retrying is sound because kernels never write
/// their input buffers: a partially-executed grid recomputes byte-identical
/// output on the next attempt.
fn run_kernel(
    env: &LaunchEnv<'_>,
    mem: &mut GlobalMem,
    kernel: &(dyn Kernel + Sync),
    out: &mut Vec<KernelReport>,
) -> Result<()> {
    let retry = env.opts.retry;
    let started = std::time::Instant::now();
    let ctl = LaunchControl {
        faults: env.opts.faults,
        deadline: (retry.deadline_us > 0)
            .then(|| std::time::Duration::from_micros(retry.deadline_us)),
    };
    let mut attempt = 0u32;
    let (stats, cached) = loop {
        attempt += 1;
        let result = match env.cache {
            Some(cache) => cache.launch_cached(
                env.device,
                mem,
                kernel,
                env.opts.mode,
                env.opts.policy,
                env.dims,
                &env.scratch,
                ctl,
            ),
            None => try_launch_pooled(
                env.device,
                mem,
                kernel,
                env.opts.mode,
                env.opts.policy,
                &env.scratch,
                ctl,
            )
            .map(|stats| (stats, false)),
        };
        match result {
            Ok(r) => break r,
            Err(e) => {
                env.faults_observed.set(env.faults_observed.get() + 1);
                if matches!(e, LaunchError::DeadlineExceeded { .. }) {
                    env.deadline_overruns.set(env.deadline_overruns.get() + 1);
                }
                // The wall-clock budget bounds retrying, not the first
                // try: once it is spent, escalate with the last cause.
                let elapsed_us = started.elapsed().as_micros() as u64;
                let over_budget = retry.deadline_us > 0 && elapsed_us >= retry.deadline_us;
                if over_budget {
                    env.deadline_overruns.set(env.deadline_overruns.get() + 1);
                }
                if attempt >= retry.max_attempts.max(1) || over_budget {
                    let cause = if over_budget {
                        format!("{e} (retry budget {}us exhausted)", retry.deadline_us)
                    } else {
                        e.to_string()
                    };
                    return Err(Error::LaunchFailed {
                        kernel: kernel.name().to_string(),
                        attempts: attempt,
                        cause,
                    });
                }
                env.retries.set(env.retries.get() + 1);
                let mut backoff = retry.backoff_us(attempt);
                if retry.deadline_us > 0 {
                    // Never sleep past the budget's expiry.
                    backoff = backoff.min(retry.deadline_us.saturating_sub(elapsed_us));
                }
                if backoff > 0 {
                    std::thread::sleep(std::time::Duration::from_micros(backoff));
                }
            }
        }
    };
    if cached {
        env.hits.set(env.hits.get() + 1);
    } else {
        env.misses.set(env.misses.get() + 1);
    }
    let estimate = estimate_stats(env.device, &stats);
    out.push(KernelReport {
        name: stats.name.clone(),
        stats,
        estimate,
        cached,
    });
    Ok(())
}

/// Build the serial form of a reduction pattern (kept on the plan's
/// reduce segment for the thread-per-array lowering and the CUDA printer).
pub(crate) fn pattern_to_serial_body(p: &ReductionPattern) -> Vec<Stmt> {
    let combine = match p.op {
        crate::analysis::CombineOp::Add => Expr::add(Expr::var(&p.acc), p.elem.clone()),
        crate::analysis::CombineOp::Mul => Expr::mul(Expr::var(&p.acc), p.elem.clone()),
        crate::analysis::CombineOp::Max => Expr::Call {
            intrinsic: streamir::ir::Intrinsic::Max,
            args: vec![Expr::var(&p.acc), p.elem.clone()],
        },
        crate::analysis::CombineOp::Min => Expr::Call {
            intrinsic: streamir::ir::Intrinsic::Min,
            args: vec![Expr::var(&p.acc), p.elem.clone()],
        },
    };
    vec![
        Stmt::Assign {
            name: p.acc.clone(),
            expr: Expr::Float(p.init),
        },
        Stmt::For {
            var: p.loop_var.clone(),
            start: Expr::Int(0),
            end: p.bound.clone(),
            body: vec![Stmt::Assign {
                name: p.acc.clone(),
                expr: combine,
            }],
        },
        Stmt::Push(p.post.clone()),
    ]
}

/// Execute an opaque actor on the host for `firings` sequential firings:
/// [`warp::eval`] on one one-lane frame, reset per firing, there being no
/// lanes to batch. I/O goes through a `HostIo` over each firing's window
/// (`max(peek, pop)` items, cut short at the end of the input) and copies
/// of the bound state arrays. Scalar state lives in its `f32`
/// preset slot (lowering converts every store to it to `f32`, as the
/// interpreter does) and is copied back into the prototype after each
/// firing so it persists.
fn run_opaque(
    actor: &ActorDef,
    firings: usize,
    input: &[f32],
    binds: &Bindings,
    state: &[StateBinding],
    prog: &bytecode::Program,
) -> Result<(Vec<f32>, f64)> {
    let pop = actor.work.pop.eval(binds)?.max(0) as usize;
    let width = actor.work.peek.eval(binds)?.max(0) as usize;
    let needed = firings * pop;
    if input.len() < needed {
        return Err(Error::InsufficientInput {
            needed,
            got: input.len(),
        });
    }
    let bound = |name: &str| {
        state
            .iter()
            .find(|s| s.actor == actor.name && s.array == name)
            .ok_or_else(|| Error::Runtime(format!("state array {}::{name} not bound", actor.name)))
    };
    for sv in &actor.state {
        if let StateVar::Array { name, .. } = sv {
            bound(name)?;
        }
    }
    let mut io = HostIo {
        state: prog
            .state_names()
            .iter()
            .map(|name| Ok(bound(name)?.data.clone()))
            .collect::<Result<_>>()?,
        ..HostIo::default()
    };
    let counts = crate::analysis::opcount::body_counts(&actor.work.body, binds);

    let mut proto = prog.bind(binds)?;
    let mut scalar_slots = Vec::new();
    for sv in &actor.state {
        if let StateVar::Scalar { name, init } = sv {
            let slot = prog.slot_of(name).ok_or_else(|| {
                Error::Runtime(format!("scalar state {name} missing from program"))
            })?;
            proto[slot as usize] = Value::F32(*init);
            scalar_slots.push(slot);
        }
    }
    let mut wf = WarpFrame::default();
    wf.fit(prog, 1);
    for f in 0..firings {
        io.window = &input[f * pop..(f * pop + width.max(pop)).min(input.len())];
        io.popped = 0;
        wf.reset(&proto);
        warp::eval(prog, &mut wf, 1, &mut io);
        for &slot in &scalar_slots {
            proto[slot as usize] = Value::F32(wf.f32_row_mut(slot)[0]);
        }
    }
    let host_us = crate::cost::host_cost_us(firings, counts.compute);
    Ok((io.output, host_us))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{compile, compile_with_options, CompileOptions, InputAxis};
    use gpu_sim::{DeviceSpec, ShardedLaunchCache};
    use streamir::interp::Interpreter;
    use streamir::parse::parse_program;

    fn device() -> DeviceSpec {
        DeviceSpec::tesla_c2050()
    }

    #[test]
    fn compiled_sum_matches_interpreter_across_variants() {
        let src = r#"pipeline P(N) {
            actor Sum(pop N, push 1) {
                acc = 0.0;
                for i in 0..N { acc = acc + pop(); }
                push(acc);
            }
        }"#;
        let p = parse_program(src).unwrap();
        let axis = InputAxis::total_size("N", 64, 1 << 20);
        let compiled = compile(&p, &device(), &axis).unwrap();
        for n in [64usize, 1024, 65536] {
            let input: Vec<f32> = (0..n).map(|i| (i % 7) as f32).collect();
            let report = compiled.run(n as i64, &input).unwrap();
            let expected: f32 = input.iter().sum();
            assert!(
                (report.output[0] - expected).abs() <= 1e-3 * expected.max(1.0),
                "n={n}: {} vs {expected}",
                report.output[0]
            );
            assert!(report.time_us > 0.0);
        }
    }

    #[test]
    fn different_sizes_select_different_variants() {
        let src = r#"pipeline P(N) {
            actor Sum(pop N, push 1) {
                acc = 0.0;
                for i in 0..N { acc = acc + pop(); }
                push(acc);
            }
        }"#;
        let p = parse_program(src).unwrap();
        let axis = InputAxis::total_size("N", 64, 1 << 22);
        let compiled = compile(&p, &device(), &axis).unwrap();
        let small = compiled.run(64, &vec![1.0; 64]).unwrap();
        let large = compiled
            .run_opts(
                1 << 20,
                &vec![1.0; 1 << 20],
                &[],
                RunOptions::serial(ExecMode::SampledStats(64)),
                None,
            )
            .unwrap();
        assert_ne!(small.variant_index, large.variant_index);
    }

    #[test]
    fn fused_map_chain_runs_correctly() {
        let src = r#"pipeline P(N) {
            actor Scale(pop 1, push 1) { push(pop() * 2.0); }
            actor Offset(pop 1, push 1) { push(pop() + 1.0); }
        }"#;
        let p = parse_program(src).unwrap();
        let axis = InputAxis::total_size("N", 64, 1 << 16);
        let compiled = compile(&p, &device(), &axis).unwrap();
        let input: Vec<f32> = (0..1024).map(|i| i as f32).collect();
        let report = compiled.run(1024, &input).unwrap();
        let expected: Vec<f32> = input.iter().map(|x| x * 2.0 + 1.0).collect();
        assert_eq!(report.output, expected);
        // Fused: exactly one kernel.
        assert_eq!(report.kernels.len(), 1);
    }

    #[test]
    fn unfused_chain_launches_two_kernels() {
        let src = r#"pipeline P(N) {
            actor Scale(pop 1, push 1) { push(pop() * 2.0); }
            actor Offset(pop 1, push 1) { push(pop() + 1.0); }
        }"#;
        let p = parse_program(src).unwrap();
        let axis = InputAxis::total_size("N", 64, 1 << 16);
        let compiled = compile_with_options(
            &p,
            &device(),
            &axis,
            CompileOptions {
                integration: false,
                ..CompileOptions::default()
            },
        )
        .unwrap();
        let input: Vec<f32> = (0..256).map(|i| i as f32).collect();
        let report = compiled.run(256, &input).unwrap();
        assert_eq!(report.kernels.len(), 2);
        let expected: Vec<f32> = input.iter().map(|x| x * 2.0 + 1.0).collect();
        assert_eq!(report.output, expected);
    }

    #[test]
    fn splitjoin_fused_and_unfused_agree() {
        let src = r#"pipeline P(N) {
            splitjoin {
                split duplicate;
                actor MaxA(pop N, push 1) {
                    m = -100000.0;
                    for i in 0..N { m = max(m, pop()); }
                    push(m);
                }
                actor SumA(pop N, push 1) {
                    s = 0.0;
                    for i in 0..N { s = s + pop(); }
                    push(s);
                }
                join roundrobin(1, 1);
            }
        }"#;
        let p = parse_program(src).unwrap();
        let axis = InputAxis::total_size("N", 256, 1 << 16);
        let input: Vec<f32> = (0..4096).map(|i| ((i * 13) % 100) as f32).collect();
        let mut it = Interpreter::new(&p);
        it.bind_param("N", 4096);
        let expected = it.run(&input).unwrap();

        let fused = compile(&p, &device(), &axis).unwrap();
        let rf = fused.run(4096, &input).unwrap();
        assert_eq!(rf.kernels.len(), 1);
        assert_eq!(rf.output.len(), 2);
        assert!((rf.output[0] - expected[0]).abs() < 1e-2);
        assert!((rf.output[1] - expected[1]).abs() < 1e-1);

        let unfused = compile_with_options(
            &p,
            &device(),
            &axis,
            CompileOptions {
                integration: false,
                ..CompileOptions::default()
            },
        )
        .unwrap();
        let ru = unfused.run(4096, &input).unwrap();
        assert_eq!(ru.kernels.len(), 2);
        assert!((ru.output[0] - expected[0]).abs() < 1e-2);
        assert!((ru.output[1] - expected[1]).abs() < 1e-1);
    }

    #[test]
    fn map_siblings_fused_and_unfused_agree_with_interpreter() {
        let src = r#"pipeline P(N) {
            splitjoin {
                split duplicate;
                actor Twice(pop 2, push 1) { a = pop(); b = pop(); push(a + b); }
                actor Diff(pop 2, push 2) { a = pop(); b = pop(); push(a - b); push(b - a); }
                join roundrobin(1, 2);
            }
        }"#;
        let p = streamir::parse::parse_program(src).unwrap();
        let input: Vec<f32> = (0..512).map(|i| ((i * 7) % 23) as f32).collect();
        let golden = Interpreter::new(&p).run(&input).unwrap();
        let axis = InputAxis::total_size("N", 16, 4096);

        let fused = compile(&p, &device(), &axis).unwrap();
        let rf = fused.run(256, &input).unwrap();
        assert_eq!(rf.kernels.len(), 1, "fused siblings launch one kernel");
        assert_eq!(rf.output, golden);

        let unfused = compile_with_options(
            &p,
            &device(),
            &axis,
            CompileOptions {
                integration: false,
                ..CompileOptions::default()
            },
        )
        .unwrap();
        let ru = unfused.run(256, &input).unwrap();
        assert_eq!(ru.kernels.len(), 2, "unfused siblings launch per actor");
        assert_eq!(ru.output, golden);

        // The fusion claim: one kernel reads the duplicated window once.
        assert!(
            rf.kernels[0].stats.totals.load_transactions
                < ru.kernels
                    .iter()
                    .map(|k| k.stats.totals.load_transactions)
                    .sum::<f64>()
        );
    }

    #[test]
    fn stencil_program_end_to_end() {
        let src = r#"pipeline P(rows, cols) {
            actor S(pop rows*cols, push rows*cols, peek rows*cols) {
                for idx in 0..rows*cols {
                    r = idx / cols;
                    c = idx % cols;
                    if (r > 0 && r < rows - 1 && c > 0 && c < cols - 1) {
                        push(0.25 * (peek(idx - 1) + peek(idx + 1)
                            + peek(idx - cols) + peek(idx + cols)));
                    } else {
                        push(peek(idx));
                    }
                }
            }
        }"#;
        let p = parse_program(src).unwrap();
        // Axis: square grids of side x.
        let axis = InputAxis::new("side", 16, 512, |x| {
            streamir::graph::bindings(&[("rows", x), ("cols", x)])
        });
        let compiled = compile(&p, &device(), &axis).unwrap();
        let side = 48usize;
        let input: Vec<f32> = (0..side * side).map(|i| (i % 11) as f32).collect();
        let mut it = Interpreter::new(&p);
        it.bind_param("rows", side as i64);
        it.bind_param("cols", side as i64);
        let expected = it.run(&input).unwrap();
        let report = compiled.run(side as i64, &input).unwrap();
        assert_eq!(report.output, expected);
    }

    #[test]
    fn tmv_with_state_vector() {
        let src = r#"pipeline TMV(rows, cols) {
            actor RowDot(pop cols, push 1) {
                state x[cols];
                acc = 0.0;
                for i in 0..cols { acc = acc + pop() * x[i]; }
                push(acc);
            }
        }"#;
        let p = parse_program(src).unwrap();
        // Fixed 64K elements, shape swept by row count.
        let total: i64 = 1 << 16;
        let axis = InputAxis::new("rows", 4, total / 4, move |rows| {
            streamir::graph::bindings(&[("rows", rows), ("cols", total / rows)])
        });
        let compiled = compile(&p, &device(), &axis).unwrap();
        for rows in [4usize, 256, 4096] {
            let cols = (total as usize) / rows;
            let a: Vec<f32> = (0..rows * cols).map(|i| ((i * 7) % 13) as f32).collect();
            let x: Vec<f32> = (0..cols).map(|i| ((i + 1) % 5) as f32).collect();
            let state = [StateBinding::new("RowDot", "x", x.clone())];
            let report = compiled
                .run_opts(
                    rows as i64,
                    &a,
                    &state,
                    RunOptions::serial(ExecMode::Full),
                    None,
                )
                .unwrap();
            assert_eq!(report.output.len(), rows);
            for r in 0..rows {
                let expected: f32 = (0..cols).map(|c| a[r * cols + c] * x[c]).sum();
                let got = report.output[r];
                assert!(
                    (got - expected).abs() <= 1e-3 * expected.abs().max(1.0),
                    "rows={rows} r={r}: {got} vs {expected}"
                );
            }
        }
    }

    #[test]
    fn opaque_actor_falls_back_to_host() {
        let src = r#"pipeline P(N) {
            actor Scan(pop N, push N) {
                acc = 0.0;
                for i in 0..N { acc = acc * 0.5 + pop(); push(acc); }
            }
        }"#;
        let p = parse_program(src).unwrap();
        let axis = InputAxis::total_size("N", 16, 4096);
        let compiled = compile(&p, &device(), &axis).unwrap();
        let input: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let mut it = Interpreter::new(&p);
        it.bind_param("N", 64);
        let expected = it.run(&input).unwrap();
        let report = compiled.run(64, &input).unwrap();
        assert_eq!(report.output, expected);
        assert!(report.kernels.is_empty());
        assert!(report.host_time_us > 0.0);
    }

    #[test]
    fn opaque_firings_peek_their_window_and_keep_state() {
        // Several host firings carrying a state scalar and a bound state
        // array; the peeks come after the pops and still read from the
        // start of the firing's window, as `peek(i)` does in the language.
        let src = r#"pipeline P(N) {
            actor Acc(pop 2, push 2, peek 2) {
                state c = 0.5;
                state w[3];
                x = pop();
                y = pop();
                c = c * 0.5 + x;
                w[1] = w[1] + y;
                push(peek(0) * 10.0 + c);
                push(peek(1) - w[1] + w[2]);
            }
        }"#;
        let p = parse_program(src).unwrap();
        let axis = InputAxis::total_size("N", 16, 4096);
        let compiled = compile(&p, &device(), &axis).unwrap();
        let n = 64usize;
        let input: Vec<f32> = (0..n).map(|i| (i % 9) as f32 * 0.75 - 2.0).collect();
        let w = vec![0.25, -1.0, 3.5];
        let mut it = Interpreter::new(&p);
        it.bind_param("N", n as i64)
            .bind_state("Acc", "w", w.clone());
        let want = it.run(&input).unwrap();
        let state = [StateBinding::new("Acc", "w", w)];
        let opts = RunOptions::serial(ExecMode::Full);
        let report = compiled
            .run_opts(n as i64, &input, &state, opts, None)
            .unwrap();
        assert!(
            report.kernels.is_empty(),
            "the stateful actor runs on the host"
        );
        assert_eq!(want.len(), n);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&report.output), bits(&want));
    }

    #[test]
    fn opaque_firings_peek_past_their_pops() {
        // `peek 3` over `pop 2`: each firing reads one item of the next
        // firing's window, and the last firing reads the trailing item.
        let src = r#"pipeline P(N) {
            actor Win(pop 2, push 1, peek 3) {
                state c = 0.0;
                c = c + pop();
                push(c + peek(2) * 10.0);
            }
        }"#;
        let p = parse_program(src).unwrap();
        let axis = InputAxis::total_size("N", 16, 4096);
        let compiled = compile(&p, &device(), &axis).unwrap();
        let input: Vec<f32> = (0..33).map(|i| i as f32 * 0.5).collect();
        let mut it = Interpreter::new(&p);
        it.bind_param("N", 32);
        let want = it.run(&input).unwrap();
        assert_eq!(want.len(), 16);
        let report = compiled.run(32, &input).unwrap();
        assert!(
            report.kernels.is_empty(),
            "the stateful actor runs on the host"
        );
        assert_eq!(report.output, want);
    }

    #[test]
    fn integer_stored_to_scalar_state_becomes_a_float() {
        // The interpreter converts a value assigned to a state scalar to
        // `f32` at once, so `c / 2` divides floats: 3.0 / 2 = 1.5, not 1.
        let src = r#"pipeline P(N) {
            actor A(pop 1, push 1) {
                state c = 0.0;
                c = 3;
                push(pop() + c / 2);
            }
        }"#;
        let p = parse_program(src).unwrap();
        let axis = InputAxis::total_size("N", 16, 4096);
        let compiled = compile(&p, &device(), &axis).unwrap();
        let input: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let mut it = Interpreter::new(&p);
        it.bind_param("N", 16);
        let want = it.run(&input).unwrap();
        assert_eq!(want[0], 1.5);
        assert_eq!(compiled.run(16, &input).unwrap().output, want);
    }

    #[test]
    fn opaque_body_that_does_not_lower_is_a_compile_error() {
        // `ghost` is never assigned: the host body has no bytecode form,
        // and there is no slower evaluator to fall back to.
        let src = r#"pipeline P(N) {
            actor Scan(pop N, push N) {
                acc = 0.0;
                for i in 0..N { acc = acc * 0.5 + pop() + ghost; push(acc); }
            }
        }"#;
        let p = parse_program(src).unwrap();
        let axis = InputAxis::total_size("N", 16, 4096);
        match compile(&p, &device(), &axis) {
            Err(Error::Runtime(msg)) => assert!(msg.contains("unknown variable `ghost`"), "{msg}"),
            other => panic!("expected a typed compile error, got {other:?}"),
        }
    }

    #[test]
    fn parallel_engine_matches_serial_run() {
        let src = r#"pipeline P(N) {
            actor Sum(pop N, push 1) {
                acc = 0.0;
                for i in 0..N { acc = acc + pop(); }
                push(acc);
            }
        }"#;
        let p = parse_program(src).unwrap();
        let axis = InputAxis::total_size("N", 64, 1 << 20);
        let compiled = compile(&p, &device(), &axis).unwrap();
        let n = 65536usize;
        let input: Vec<f32> = (0..n).map(|i| (i % 11) as f32).collect();
        for mode in [ExecMode::Full, ExecMode::SampledExec(16)] {
            let serial = compiled
                .run_opts(n as i64, &input, &[], RunOptions::serial(mode), None)
                .unwrap();
            let par = compiled
                .run_opts(n as i64, &input, &[], RunOptions::parallel(mode), None)
                .unwrap();
            assert_eq!(serial.output, par.output, "mode {mode:?}");
            assert_eq!(serial.kernels.len(), par.kernels.len());
            for (s, q) in serial.kernels.iter().zip(&par.kernels) {
                assert_eq!(s.stats, q.stats, "mode {mode:?} kernel {}", s.name);
            }
            assert_eq!(par.cache_hits, 0);
            assert_eq!(par.cache_misses, par.kernels.len() as u64);
        }
    }

    #[test]
    fn launch_cache_memoizes_repeated_runs() {
        let src = r#"pipeline P(N) {
            actor Sum(pop N, push 1) {
                acc = 0.0;
                for i in 0..N { acc = acc + pop(); }
                push(acc);
            }
        }"#;
        let p = parse_program(src).unwrap();
        let axis = InputAxis::total_size("N", 64, 1 << 20);
        let compiled = compile(&p, &device(), &axis).unwrap();
        let n = 4096usize;
        let input: Vec<f32> = (0..n).map(|i| (i % 5) as f32).collect();
        // One stripe, no bound: the shape a single-threaded sweep uses.
        let cache = ShardedLaunchCache::new(1, usize::MAX);
        let opts = RunOptions::parallel(ExecMode::SampledExec(8));
        let cold = compiled
            .run_opts(n as i64, &input, &[], opts, Some(&cache))
            .unwrap();
        assert_eq!(cold.cache_hits, 0);
        assert!(cold.cache_misses > 0);
        let warm = compiled
            .run_opts(n as i64, &input, &[], opts, Some(&cache))
            .unwrap();
        assert_eq!(warm.cache_hits, cold.cache_misses);
        assert_eq!(warm.cache_misses, 0);
        assert!(warm.kernels.iter().all(|k| k.cached));
        // Memoized stats are identical, so so is the timing estimate.
        assert_eq!(cold.time_us, warm.time_us);
        for (c, w) in cold.kernels.iter().zip(&warm.kernels) {
            assert_eq!(c.stats, w.stats);
        }
        // A different input size is a different key: misses again.
        let m = 8192usize;
        let input2: Vec<f32> = (0..m).map(|i| (i % 5) as f32).collect();
        let other = compiled
            .run_opts(m as i64, &input2, &[], opts, Some(&cache))
            .unwrap();
        assert_eq!(other.cache_hits, 0);
        assert!(other.cache_misses > 0);
    }

    #[test]
    fn warp_frame_pool_reuses_frames_across_runs() {
        // The second program's `post` evaluates on the pooled frames too.
        for post in ["acc", "sqrt(acc)"] {
            let src = format!(
                "pipeline P(N) {{
                    actor Scale(pop 1, push 1) {{ push(pop() * 2.0); }}
                    actor Sum(pop N, push 1) {{
                        acc = 0.0;
                        for i in 0..N {{ acc = acc + pop(); }}
                        push({post});
                    }}
                }}"
            );
            let p = parse_program(&src).unwrap();
            let axis = InputAxis::total_size("N", 64, 1 << 16);
            let compiled = compile(&p, &device(), &axis).unwrap();
            let n = 4096usize;
            let input: Vec<f32> = (0..n).map(|i| (i % 7) as f32).collect();
            let first = compiled.run(n as i64, &input).unwrap();
            let warp_created = compiled.warp_frames.created();
            assert!(warp_created > 0, "first run must populate the warp pool");
            assert!(
                compiled.warp_frames.idle() > 0,
                "warp frames return to the pool"
            );
            for _ in 0..3 {
                let again = compiled.run(n as i64, &input).unwrap();
                assert_eq!(again.output, first.output);
            }
            // Steady state: later runs allocate no new frames, only reuse.
            assert_eq!(compiled.warp_frames.created(), warp_created, "{post}");
            assert!(compiled.warp_frames.reused() > 0);
        }
    }

    #[test]
    fn two_kernel_launch_geometry_is_the_priced_one() {
        // A forced two-kernel variant at an `x` whose shape fits one
        // chunk per array: the launch still runs two chunking blocks, and
        // both kernels take the geometry the price reads.
        let src = r#"pipeline P(N) {
            actor Sum(pop N, push 1) {
                acc = 0.0;
                for i in 0..N { acc = acc + pop(); }
                push(acc);
            }
        }"#;
        let p = parse_program(src).unwrap();
        let compiled = compile(&p, &device(), &InputAxis::total_size("N", 64, 1 << 20)).unwrap();
        let (index, block_dim) = compiled
            .variants
            .iter()
            .enumerate()
            .find_map(|(i, v)| match v.choices[0] {
                SegChoice::Reduce {
                    choice: ReduceChoice::TwoKernel { block_dim },
                } => Some((i, block_dim)),
                _ => None,
            })
            .expect("a two-kernel variant");
        let n = 100usize;
        let d = device();
        assert_eq!(crate::opt::pick_initial_blocks(&d, 1, n, block_dim), 1);
        let (initial_blocks, merge_block) = crate::opt::two_kernel_geometry(&d, 1, n, block_dim);
        let input: Vec<f32> = (0..n).map(|i| (i % 5) as f32).collect();
        let opts = RunOptions::default().with_variant(index);
        let report = compiled
            .run_opts(n as i64, &input, &[], opts, None)
            .unwrap();
        let [initial, merge] = &report.kernels[..] else {
            panic!("two kernels, got {}", report.kernels.len());
        };
        assert_eq!(initial.stats.config.grid_dim as usize, initial_blocks);
        assert_eq!(initial.stats.config.block_dim, block_dim);
        assert_eq!(merge.stats.config.grid_dim, 1);
        assert_eq!(merge.stats.config.block_dim, merge_block);
        assert_eq!(report.output, vec![input.iter().sum::<f32>()]);
    }

    #[test]
    fn forced_variant_rejects_out_of_range_axis_value() {
        let src = r#"pipeline P(N) {
            actor Sum(pop N, push 1) {
                acc = 0.0;
                for i in 0..N { acc = acc + pop(); }
                push(acc);
            }
        }"#;
        let p = parse_program(src).unwrap();
        let axis = InputAxis::total_size("N", 64, 1 << 16);
        let compiled = compile(&p, &device(), &axis).unwrap();
        for x in [63i64, (1 << 16) + 1] {
            let err = compiled
                .run_opts(
                    x,
                    &vec![1.0; 128],
                    &[],
                    RunOptions::default().with_variant(0),
                    None,
                )
                .unwrap_err();
            assert!(
                matches!(err, Error::InputOutOfRange { x: ex, lo: 64, .. } if ex == x),
                "x={x}: {err:?}"
            );
        }
    }
}
