//! The compilation pipeline: structure building, per-input-range decision
//! making, and the variant table (§3 of the paper, Figure 2).
//!
//! `compile` takes a platform-independent streaming program, a target
//! device and a *range of interest* over one input axis, and produces a
//! [`CompiledProgram`]: a fixed graph *structure* (what got fused with
//! what, which pattern each actor matched) plus a table of *variants*,
//! each covering a sub-range of the axis with concrete lowering choices
//! (reduction scheme, tile geometry, coarsening factor). At run time the
//! kernel-management unit (`runtime` module) selects the variant for the
//! actual input and launches it.

use std::cell::Cell;
use std::fmt;
use std::sync::Arc;

use gpu_sim::DeviceSpec;
use perfmodel::estimate;
use streamir::error::{Error, Result};
use streamir::graph::{FlatGraph, FlatNode, Program, Splitter};
use streamir::ir::{Expr, Stmt};
use streamir::rates::Bindings;
use streamir::schedule::Balance;

use crate::analysis::opcount::{body_counts, eval_bound, expr_counts, OpCounts};
use crate::analysis::recurrence::ParallelLoop;
use crate::analysis::reduction::ReductionPattern;
use crate::analysis::stencil::StencilPattern;
use crate::analysis::{classify, ActorClass};
use crate::bytecode::{self, Ty};
use crate::cost::{host_cost_us, map_profile};
use crate::layout::Layout;
use crate::opt::integration::{can_fuse_horizontal, fuse_into_reduction, fuse_parallel_loops};
use crate::opt::memory::{choose_edge_layout, search_tiles, tile_time};
use crate::opt::segmentation::{reduce_candidates, reduce_choice_time, ReduceChoice};

/// The one-dimensional family of input shapes a program is compiled for.
///
/// Every evaluation in the paper sweeps a one-parameter family (total
/// size, or shape at a fixed element count); `bind` maps the axis value to
/// full parameter bindings.
#[derive(Clone)]
pub struct InputAxis {
    /// Descriptive name of the axis (e.g. `"N"`, `"rows"`).
    pub name: String,
    /// Inclusive range of interest `[lo, hi]`.
    pub lo: i64,
    pub hi: i64,
    binder: Arc<dyn Fn(i64) -> Bindings + Send + Sync>,
    /// Expected program-input length at each axis point; `None` means one
    /// steady state. This is how the compiler knows the *firing counts*
    /// (e.g. TMV's row count) before any data exists.
    items: Option<Arc<dyn Fn(i64) -> i64 + Send + Sync>>,
}

impl fmt::Debug for InputAxis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InputAxis")
            .field("name", &self.name)
            .field("lo", &self.lo)
            .field("hi", &self.hi)
            .finish_non_exhaustive()
    }
}

impl InputAxis {
    /// An axis binding a single parameter to the axis value.
    pub fn total_size(param: &str, lo: i64, hi: i64) -> InputAxis {
        let p = param.to_string();
        InputAxis {
            name: p.clone(),
            lo,
            hi,
            binder: Arc::new(move |x| {
                let mut b = Bindings::new();
                b.insert(p.clone(), x);
                b
            }),
            items: None,
        }
    }

    /// A general axis with a custom binder.
    pub fn new(
        name: &str,
        lo: i64,
        hi: i64,
        binder: impl Fn(i64) -> Bindings + Send + Sync + 'static,
    ) -> InputAxis {
        InputAxis {
            name: name.to_string(),
            lo,
            hi,
            binder: Arc::new(binder),
            items: None,
        }
    }

    /// Declare the expected program-input length as a function of the axis
    /// value. Without it, compile-time decisions assume one steady state
    /// per execution; with it, firing counts (and thus e.g. a reduction's
    /// array count) are input-aware.
    pub fn with_items(mut self, f: impl Fn(i64) -> i64 + Send + Sync + 'static) -> InputAxis {
        self.items = Some(Arc::new(f));
        self
    }

    /// Steady-state iterations expected at axis value `x`.
    pub fn expected_iterations(&self, x: i64, steady_input: u64) -> u64 {
        match (&self.items, steady_input) {
            (Some(f), s) if s > 0 => ((f(x).max(0) as u64) / s).max(1),
            _ => 1,
        }
    }

    /// Parameter bindings at axis value `x`.
    pub fn bind(&self, x: i64) -> Bindings {
        (self.binder)(x)
    }

    /// Geometric midpoint of the range (the structure probe point).
    pub fn probe_point(&self) -> i64 {
        let (lo, hi) = (self.lo.max(1) as f64, self.hi.max(1) as f64);
        (lo * hi).sqrt() as i64
    }

    /// `n` (at least 2) geometrically spaced points of the range plus its
    /// two ends, sorted and deduplicated.
    fn geometric_points(&self, n: usize) -> Vec<i64> {
        let n = n.max(2);
        let (lo, hi) = (self.lo, self.hi);
        let mut points: Vec<i64> = (0..n)
            .map(|k| {
                let t = k as f64 / (n - 1) as f64;
                let x = ((lo.max(1) as f64).ln() * (1.0 - t) + (hi.max(1) as f64).ln() * t).exp();
                (x as i64).clamp(lo, hi)
            })
            .collect();
        points.extend([lo, hi]);
        points.sort_unstable();
        points.dedup();
        points
    }
}

/// Which optimization families the compiler may use — the knob behind the
/// paper's Figure 11/12 breakdowns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileOptions {
    /// Actor segmentation (§4.2): input-aware reduction schemes and
    /// intra-actor parallelization beyond the baseline lowering.
    pub segmentation: bool,
    /// Memory optimizations (§4.1): restructuring and adaptive super
    /// tiles.
    pub memory: bool,
    /// Actor integration (§4.3): vertical/horizontal fusion and thread
    /// coarsening.
    pub integration: bool,
    /// Probe points used when building the variant table.
    pub probes: usize,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            segmentation: true,
            memory: true,
            integration: true,
            probes: 33,
        }
    }
}

impl CompileOptions {
    /// The input-unaware baseline (§3's "input-unaware optimizations"
    /// only).
    pub fn baseline() -> Self {
        CompileOptions {
            segmentation: false,
            memory: false,
            integration: false,
            probes: 9,
        }
    }
}

/// Optimizations active in a variant, for reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OptTag {
    MemoryRestructuring,
    NeighboringAccess,
    StreamReduction,
    IntraActorParallelization,
    VerticalIntegration,
    HorizontalIntegration,
    ThreadIntegration,
}

/// How the input is counted for one work unit of a segment.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum UnitsPerFiring {
    /// One unit per firing (plain map actor).
    One,
    /// One unit per loop iteration; expression gives iterations/firing.
    Loop(Expr),
}

/// A map-like segment (plain maps, parallelized loops, fused chains).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct UnitSeg {
    pub body: Vec<Stmt>,
    /// `body` lowered, with `loop_var` as its `i64` preset.
    pub program: Arc<bytecode::Program>,
    pub loop_var: Option<String>,
    pub units_per_firing: UnitsPerFiring,
    pub pops_per_unit: usize,
    pub pushes_per_unit: usize,
    /// For peek-window loops: the firing's input window size (the actor's
    /// pop rate); iterations share the window read-only.
    pub window_pop: Option<streamir::rates::RateExpr>,
    /// Actors whose state arrays this segment reads.
    pub state_actors: Vec<String>,
    pub fused_count: usize,
    pub has_parloop: bool,
}

/// A reduction segment.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ReduceSeg {
    pub pattern: ReductionPattern,
    /// `pattern`'s element and post expressions lowered.
    pub bodies: ReduceBodies,
    /// The serial (thread-per-array) form of `pattern`, built once here for
    /// lowering, per-launch instruction counts and the CUDA printer.
    pub serial_body: Vec<Stmt>,
    /// `serial_body` lowered.
    pub serial: Arc<bytecode::Program>,
    pub actor: String,
    pub fused_producer: bool,
}

/// A reduction pattern's element expression (the loop variable its
/// `i64` preset) and, unless the identity, its post expression (the
/// accumulator its `f32` preset), lowered.
pub(crate) type ReduceBodies = (Arc<bytecode::Program>, Option<Arc<bytecode::Program>>);

impl ReduceSeg {
    fn new(
        pattern: ReductionPattern,
        actor: String,
        fused_producer: bool,
        binds: &Bindings,
    ) -> Result<ReduceSeg> {
        let serial_body = crate::runtime::pattern_to_serial_body(&pattern);
        Ok(ReduceSeg {
            bodies: lower_reduction(&pattern, binds)?,
            serial: lower(&serial_body, binds, &[])?,
            serial_body,
            pattern,
            actor,
            fused_producer,
        })
    }
}

/// A stencil segment.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StencilSeg {
    pub pattern: StencilPattern,
    /// The pattern's per-element body lowered, with its loop variable as
    /// the `i64` preset.
    pub program: Arc<bytecode::Program>,
    pub actor: String,
}

/// A horizontally-integrable split-join of sibling reductions.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct HFusedSeg {
    pub patterns: Vec<ReductionPattern>,
    /// Each pattern's expressions lowered (parallel to `patterns`).
    pub bodies: Vec<ReduceBodies>,
    pub actors: Vec<String>,
}

/// A duplicate split-join of sibling *map* actors that could not be fused
/// (integration disabled or non-straightline bodies): lowered as one
/// kernel per sibling with interleaved output groups.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MapSiblingsSeg {
    /// (body, pushes, actor name, lowered body) per sibling; all share
    /// the same pop window.
    pub branches: Vec<(Vec<Stmt>, usize, String, Arc<bytecode::Program>)>,
    pub pops_per_unit: usize,
    pub total_push: usize,
}

/// One stage of the lowered pipeline.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum SegKind {
    Unit(UnitSeg),
    Reduce(ReduceSeg),
    Stencil(StencilSeg),
    HFused(HFusedSeg),
    MapSiblings(MapSiblingsSeg),
    /// Host-interpreted actor (index into `Program::actors`) and its work
    /// body lowered, run on a one-lane warp.
    Opaque(usize, Arc<bytecode::Program>),
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Segment {
    pub kind: SegKind,
    /// Flat-graph node whose repetition count drives this segment.
    pub node: usize,
    pub label: String,
}

/// Lower a segment body once at plan time. Parameter *names* are what
/// matter here — [`InputAxis::bind`] produces the same keys at every axis
/// value, so a body lowered at the probe point binds at any `x`.
fn lower(
    body: &[Stmt],
    binds: &Bindings,
    presets: &[(&str, Ty)],
) -> Result<Arc<bytecode::Program>> {
    Ok(Arc::new(bytecode::compile_body(body, binds, presets)?))
}

fn lower_reduction(p: &ReductionPattern, binds: &Bindings) -> Result<ReduceBodies> {
    let elem = bytecode::compile_expr(&p.elem, binds, &[(&p.loop_var, Ty::I64)])?;
    let post = match p.post_is_identity() {
        true => None,
        false => Some(Arc::new(bytecode::compile_expr(
            &p.post,
            binds,
            &[(&p.acc, Ty::F32)],
        )?)),
    };
    Ok((Arc::new(elem), post))
}

/// Lowering decision for one segment in one variant.
#[derive(Debug, Clone, PartialEq)]
pub enum SegChoice {
    /// Map-like segment with a thread-coarsening factor.
    Map { coarsen: usize },
    /// Reduction scheme.
    Reduce { choice: ReduceChoice },
    /// Stencil super-tile geometry.
    Stencil { tile: (usize, usize) },
    /// Split-join of reductions: fused into one kernel or not.
    HFused { fused: bool },
    /// Split-join of maps lowered one kernel per sibling.
    MapSiblings,
    /// Host execution.
    Opaque,
}

/// A sub-range of the input axis with its lowering decisions.
#[derive(Debug, Clone, PartialEq)]
pub struct Variant {
    /// Inclusive axis sub-range.
    pub lo: i64,
    pub hi: i64,
    /// One choice per segment.
    pub choices: Vec<SegChoice>,
    /// Active optimizations (for reports).
    pub tags: Vec<OptTag>,
}

/// A compiled program: structure + variant table + everything needed to
/// run it.
///
/// Execution entry points live in [`crate::runtime`]:
/// [`run_opts`](CompiledProgram::run_opts) picks the worker count via
/// [`crate::RunOptions`] (deterministic parallel block execution) and can
/// memoize launch statistics through a [`crate::ShardedLaunchCache`] for
/// timing-only sweeps; [`run`](CompiledProgram::run) is its exact,
/// one-worker, uncached shorthand.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// [`content_hash`] of the (program, axis, options) this was compiled
    /// from — one half of the program's [`artifact
    /// key`](CompiledProgram::artifact_key).
    pub(crate) content_hash: u64,
    pub(crate) program: Program,
    /// `program`'s flattened graph, built once at compile time and shared
    /// by clones.
    pub(crate) flat: Arc<FlatGraph>,
    pub(crate) device: DeviceSpec,
    pub(crate) axis: InputAxis,
    pub(crate) options: CompileOptions,
    pub(crate) segments: Vec<Segment>,
    /// Warp-frame pool shared by every launch of this program: kernel
    /// workers recycle SoA lane-row frames across blocks and runs.
    pub(crate) warp_frames: Arc<crate::warp::WarpFramePool>,
    pub(crate) edge_layouts: Vec<Layout>,
    /// Variant table ordered by `lo`.
    pub variants: Vec<Variant>,
}

impl CompiledProgram {
    /// The variant covering axis value `x` (clamped into the range).
    ///
    /// # Panics
    ///
    /// Panics when the variant table is empty; use
    /// [`try_variant_for`](CompiledProgram::try_variant_for) for a typed
    /// error instead.
    pub fn variant_for(&self, x: i64) -> (usize, &Variant) {
        let x = x.clamp(self.axis.lo, self.axis.hi);
        self.try_variant_for(x)
            .expect("variant table tiles the axis")
    }

    /// The variant covering axis value `x`, rejecting invalid selections
    /// with typed errors instead of clamping or panicking: an empty table
    /// is [`Error::EmptyVariantTable`], an `x` outside the compiled range
    /// is [`Error::InputOutOfRange`].
    pub fn try_variant_for(&self, x: i64) -> Result<(usize, &Variant)> {
        if self.variants.is_empty() {
            return Err(Error::EmptyVariantTable);
        }
        if x < self.axis.lo || x > self.axis.hi {
            return Err(Error::InputOutOfRange {
                x,
                lo: self.axis.lo,
                hi: self.axis.hi,
            });
        }
        let idx = self
            .variants
            .iter()
            .position(|v| x >= v.lo && x <= v.hi)
            .expect("variant table tiles the axis");
        Ok((idx, &self.variants[idx]))
    }

    /// The declared input range `[lo, hi]` of the compiled axis.
    pub fn axis_range(&self) -> (i64, i64) {
        (self.axis.lo, self.axis.hi)
    }

    /// Stable [`content_hash`] of the compilation request.
    pub fn content_hash(&self) -> u64 {
        self.content_hash
    }

    /// The content address of this program on its device — the key its
    /// plan and learned KMU state live under in an
    /// [`ArtifactStore`](crate::artifact::ArtifactStore).
    pub fn artifact_key(&self) -> crate::artifact::ArtifactKey {
        crate::artifact::ArtifactKey {
            content: self.content_hash,
            device: self.device.fingerprint(),
        }
    }

    /// A copy of this program's plan-time tables — the exact payload
    /// [`compile_with_store`] persists — for explicit
    /// [`ArtifactStore::store_plan`](crate::artifact::ArtifactStore::store_plan)
    /// calls and roundtrip tests.
    pub fn export_plan(&self) -> crate::artifact::PlanArtifact {
        crate::artifact::PlanArtifact::new(self.variants.clone())
    }

    /// The analytical model's predicted execution time (µs) of running
    /// variant `variant_index`'s lowering decisions at axis value `x` —
    /// the sum over segments of the planner's own `price` of each
    /// segment's `shape`, exposed so the runtime kernel-management unit can
    /// compare prediction against measurement.
    ///
    /// `x` need not lie inside the variant's own sub-range: a fallback
    /// launch prices variants outside their own ranges. A choice that
    /// cannot run at `x` (a stencil tile whose halo-extended tile
    /// overflows shared memory) prices as ∞. Returns
    /// `None` when the variant index is out of bounds or the axis value
    /// cannot be scheduled.
    pub fn predicted_time_us(&self, x: i64, variant_index: usize) -> Option<f64> {
        let variant = self.variants.get(variant_index)?;
        let binds = self.axis.bind(x);
        let mut bal = Balance::default();
        let steady_input = self.flat.repetitions(&binds, &mut bal).ok()?;
        let iterations = self.axis.expected_iterations(x, steady_input);
        let mut total = 0.0f64;
        for (i, (seg, choice)) in self.segments.iter().zip(&variant.choices).enumerate() {
            let shape = shape(seg, &binds, bal.reps(), iterations).ok()?;
            let edges = &self.edge_layouts[i..];
            total += price(&self.device, &self.program, seg, &shape, choice, edges)
                .unwrap_or(f64::INFINITY);
        }
        Some(total)
    }

    /// Number of generated kernel variants (a proxy for the paper's code
    /// size discussion in §5.1).
    pub fn variant_count(&self) -> usize {
        self.variants.len()
    }

    /// The target device.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// The options the program was compiled with.
    pub fn options(&self) -> &CompileOptions {
        &self.options
    }

    /// The compiled program's segments' labels, in pipeline order.
    pub fn segment_labels(&self) -> Vec<&str> {
        self.segments.iter().map(|s| s.label.as_str()).collect()
    }
}

/// A unit segment as a parallel loop over its `units` work units (a plain
/// map's loop variable is `__unit`).
fn seg_as_parloop(seg: &UnitSeg, units: usize) -> ParallelLoop {
    ParallelLoop {
        loop_var: seg.loop_var.clone().unwrap_or_else(|| "__unit".into()),
        bound: Expr::Int(units as i64),
        pops_per_iter: seg.pops_per_unit,
        pushes_per_iter: seg.pushes_per_unit,
        body: seg.body.clone(),
        ivs_applied: false,
        window_peeks: seg.window_pop.is_some(),
    }
}

/// Build the lowered structure of the program (flattened as `fg`) at a
/// probe binding.
fn build_structure(
    program: &Program,
    fg: &FlatGraph,
    options: &CompileOptions,
    binds: &Bindings,
) -> Result<(Vec<Segment>, Vec<OptTag>)> {
    let topo = fg.topo_order()?;
    let mut bal = Balance::default();
    fg.repetitions(binds, &mut bal)?;

    let mut segments: Vec<Segment> = Vec::new();
    let mut structure_tags: Vec<OptTag> = Vec::new();
    let mut skip_until_join: Option<usize> = None;

    for &node in &topo {
        if let Some(join) = skip_until_join {
            if node != join {
                continue;
            }
            skip_until_join = None;
            continue;
        }
        match &fg.nodes[node] {
            FlatNode::Actor { actor } => {
                let def = &program.actors[*actor];
                let class = classify(def, binds);
                let kind = match class {
                    ActorClass::Reduction(pattern) => {
                        SegKind::Reduce(ReduceSeg::new(pattern, def.name.clone(), false, binds)?)
                    }
                    ActorClass::Stencil(pattern) => SegKind::Stencil(StencilSeg {
                        program: lower(&pattern.body, binds, &[(&pattern.loop_var, Ty::I64)])?,
                        pattern,
                        actor: def.name.clone(),
                    }),
                    ActorClass::ParallelLoop(pl) => SegKind::Unit(UnitSeg {
                        window_pop: pl.window_peeks.then(|| def.work.pop.clone()),
                        program: lower(&pl.body, binds, &[(&pl.loop_var, Ty::I64)])?,
                        body: pl.body,
                        loop_var: Some(pl.loop_var),
                        units_per_firing: UnitsPerFiring::Loop(pl.bound),
                        pops_per_unit: pl.pops_per_iter,
                        pushes_per_unit: pl.pushes_per_iter,
                        state_actors: vec![def.name.clone()],
                        fused_count: 1,
                        has_parloop: true,
                    }),
                    ActorClass::Map | ActorClass::Transfer => {
                        let pop = def.work.pop.as_constant().unwrap_or(1) as usize;
                        let push = def.work.push.as_constant().unwrap_or(1) as usize;
                        SegKind::Unit(UnitSeg {
                            body: def.work.body.clone(),
                            program: lower(&def.work.body, binds, &[])?,
                            loop_var: None,
                            units_per_firing: UnitsPerFiring::One,
                            pops_per_unit: pop.max(1),
                            pushes_per_unit: push.max(1),
                            window_pop: None,
                            state_actors: vec![def.name.clone()],
                            fused_count: 1,
                            has_parloop: false,
                        })
                    }
                    ActorClass::Opaque => {
                        // Scalar state is `f32`, as in the interpreter.
                        let presets: Vec<_> = def
                            .state
                            .iter()
                            .filter_map(|sv| match sv {
                                streamir::actor::StateVar::Scalar { name, .. } => {
                                    Some((name.as_str(), Ty::F32))
                                }
                                _ => None,
                            })
                            .collect();
                        SegKind::Opaque(*actor, lower(&def.work.body, binds, &presets)?)
                    }
                };
                segments.push(Segment {
                    kind,
                    node,
                    label: def.name.clone(),
                });
            }
            FlatNode::Split(Splitter::Duplicate) => {
                // Recognize duplicate split-joins of sibling reductions
                // (horizontal actor integration's headline case) or
                // sibling maps over the same windows.
                let branch_entries: Vec<usize> = fg
                    .out_channels(node)
                    .iter()
                    .map(|&c| fg.channels[c].dst)
                    .collect();
                let mut patterns = Vec::new();
                let mut maps: Vec<(Vec<Stmt>, usize, usize, String)> = Vec::new();
                let mut actors = Vec::new();
                let mut join = None;
                let mut ok = true;
                for &b in &branch_entries {
                    let FlatNode::Actor { actor } = &fg.nodes[b] else {
                        ok = false;
                        break;
                    };
                    let def = &program.actors[*actor];
                    match classify(def, binds) {
                        ActorClass::Reduction(p) => {
                            patterns.push(p);
                            actors.push(def.name.clone());
                        }
                        ActorClass::Map | ActorClass::Transfer => {
                            let pop = def.work.pop.as_constant().unwrap_or(0).max(1) as usize;
                            let push = def.work.push.as_constant().unwrap_or(0).max(1) as usize;
                            maps.push((def.work.body.clone(), pop, push, def.name.clone()));
                            actors.push(def.name.clone());
                        }
                        _ => {
                            ok = false;
                            break;
                        }
                    }
                    let outs = fg.out_channels(b);
                    let j = fg.channels[outs[0]].dst;
                    match join {
                        None => join = Some(j),
                        Some(prev) if prev == j => {}
                        _ => {
                            ok = false;
                            break;
                        }
                    }
                }
                // Mixed or neither-kind branch sets are unsupported.
                if !ok || join.is_none() || (patterns.is_empty() == maps.is_empty()) {
                    return Err(Error::Semantic(
                        "unsupported split-join: duplicate splitters must feed \
                         sibling reduction actors or sibling map actors"
                            .into(),
                    ));
                }
                if !patterns.is_empty() {
                    let refs: Vec<&ReductionPattern> = patterns.iter().collect();
                    if !can_fuse_horizontal(&refs) {
                        return Err(Error::Semantic(
                            "sibling reductions must share element windows to be \
                             GPU-lowerable"
                                .into(),
                        ));
                    }
                    let bodies = patterns
                        .iter()
                        .map(|p| lower_reduction(p, binds))
                        .collect::<Result<_>>()?;
                    segments.push(Segment {
                        kind: SegKind::HFused(HFusedSeg {
                            patterns,
                            bodies,
                            actors,
                        }),
                        node: branch_entries[0],
                        label: "splitjoin".into(),
                    });
                } else {
                    let pop = maps[0].1;
                    if maps.iter().any(|(_, p, _, _)| *p != pop) {
                        return Err(Error::Semantic(
                            "sibling maps must pop the same window".into(),
                        ));
                    }
                    let total_push: usize = maps.iter().map(|(_, _, q, _)| *q).sum();
                    let fused = if options.integration {
                        crate::opt::integration::fuse_duplicate_maps(
                            &maps
                                .iter()
                                .map(|(b, _, _, n)| (b.clone(), n.clone()))
                                .collect::<Vec<_>>(),
                            pop,
                        )
                    } else {
                        None
                    };
                    match fused {
                        Some(body) => {
                            structure_tags.push(OptTag::HorizontalIntegration);
                            segments.push(Segment {
                                kind: SegKind::Unit(UnitSeg {
                                    program: lower(&body, binds, &[])?,
                                    body,
                                    loop_var: None,
                                    units_per_firing: UnitsPerFiring::One,
                                    pops_per_unit: pop,
                                    pushes_per_unit: total_push,
                                    window_pop: None,
                                    state_actors: actors,
                                    fused_count: maps.len(),
                                    has_parloop: false,
                                }),
                                node: branch_entries[0],
                                label: "splitjoin".into(),
                            });
                        }
                        None => {
                            segments.push(Segment {
                                kind: SegKind::MapSiblings(MapSiblingsSeg {
                                    branches: maps
                                        .into_iter()
                                        .map(|(b, _, q, n)| {
                                            let program = lower(&b, binds, &[])?;
                                            Ok((b, q, n, program))
                                        })
                                        .collect::<Result<_>>()?,
                                    pops_per_unit: pop,
                                    total_push,
                                }),
                                node: branch_entries[0],
                                label: "splitjoin".into(),
                            });
                        }
                    }
                }
                // Skip the branch actors; resume after the join.
                skip_until_join = join;
            }
            FlatNode::Split(_) => {
                return Err(Error::Semantic(
                    "round-robin splitters are not GPU-lowerable by this reproduction".into(),
                ));
            }
            FlatNode::Join(_) => {
                // Joins of recognized split-joins are skipped above; a
                // stray join means the structure was unsupported.
            }
        }
    }

    // Vertical integration (§4.3.1): fuse adjacent unit segments, then
    // unit→reduction producers. A segment whose units cannot be counted
    // at the probe point is left unfused.
    if options.integration {
        let units = |s: &Segment| shape(s, binds, bal.reps(), 1).ok().map(|s| s.reps * s.upf);
        let mut fused_any = false;
        let mut i = 0;
        while i + 1 < segments.len() {
            let (left, right) = segments.split_at_mut(i + 1);
            let a_seg = &left[i];
            let b_seg = &right[0];
            let merged = match (&a_seg.kind, &b_seg.kind) {
                (SegKind::Unit(a), SegKind::Unit(b))
                    if a.window_pop.is_none() && b.window_pop.is_none() =>
                {
                    match (units(a_seg), units(b_seg)) {
                        (Some(ua), Some(ub)) if ua == ub => {
                            let pa = seg_as_parloop(a, ua);
                            let pb = seg_as_parloop(b, ub);
                            fuse_parallel_loops(&pa, &pb, binds).map(|f| {
                                let mut state = a.state_actors.clone();
                                state.extend(b.state_actors.clone());
                                // Unit accounting follows whichever side
                                // gives the loop variable real semantics:
                                // the consumer when it has one (its body
                                // indexes with it), else the producer.
                                let (upf, node) = if b.loop_var.is_some() {
                                    (b.units_per_firing.clone(), b_seg.node)
                                } else {
                                    (a.units_per_firing.clone(), a_seg.node)
                                };
                                Ok(Segment {
                                    kind: SegKind::Unit(UnitSeg {
                                        program: lower(&f.body, binds, &[(&f.loop_var, Ty::I64)])?,
                                        body: f.body,
                                        loop_var: Some(f.loop_var),
                                        units_per_firing: upf,
                                        pops_per_unit: f.pops_per_iter,
                                        pushes_per_unit: f.pushes_per_iter,
                                        window_pop: None,
                                        state_actors: state,
                                        fused_count: a.fused_count + b.fused_count,
                                        has_parloop: a.has_parloop || b.has_parloop,
                                    }),
                                    node,
                                    label: format!("{}+{}", a_seg.label, b_seg.label),
                                })
                            })
                        }
                        _ => None,
                    }
                }
                (SegKind::Unit(a), SegKind::Reduce(r)) => units(a_seg).and_then(|ua| {
                    let pa = seg_as_parloop(a, ua);
                    fuse_into_reduction(&pa, &r.pattern, binds).map(|p| {
                        Ok(Segment {
                            kind: SegKind::Reduce(ReduceSeg::new(p, r.actor.clone(), true, binds)?),
                            node: b_seg.node,
                            label: format!("{}+{}", a_seg.label, b_seg.label),
                        })
                    })
                }),
                _ => None,
            };
            match merged.transpose()? {
                Some(seg) => {
                    segments[i] = seg;
                    segments.remove(i + 1);
                    fused_any = true;
                }
                None => i += 1,
            }
        }
        if fused_any {
            structure_tags.push(OptTag::VerticalIntegration);
        }
    }

    if segments
        .iter()
        .any(|s| matches!(&s.kind, SegKind::Unit(u) if u.has_parloop))
    {
        structure_tags.push(OptTag::IntraActorParallelization);
    }
    if segments
        .iter()
        .any(|s| matches!(s.kind, SegKind::HFused(_)))
        && options.integration
    {
        structure_tags.push(OptTag::HorizontalIntegration);
    }

    Ok((segments, structure_tags))
}

/// Choose the layout of every edge of the pipeline (edge i feeds segment
/// i; the last edge is the program output).
fn choose_layouts(segments: &[Segment], memory_enabled: bool) -> Vec<Layout> {
    let n = segments.len();
    let mut layouts = vec![Layout::RowMajor; n + 1];
    if !memory_enabled {
        return layouts;
    }
    let window_in = |s: &Segment| -> Option<usize> {
        match &s.kind {
            // Peek-window loops address raw firing windows (row-major).
            SegKind::Unit(u) if u.window_pop.is_some() => None,
            SegKind::Unit(u) => Some(u.pops_per_unit),
            SegKind::Reduce(r) => Some(r.pattern.pops_per_elem),
            SegKind::HFused(h) => h.patterns.first().map(|p| p.pops_per_elem),
            SegKind::MapSiblings(m) => Some(m.pops_per_unit),
            // Stencils address the raw grid; opaque runs on the host.
            SegKind::Stencil(_) | SegKind::Opaque(..) => None,
        }
    };
    let window_out = |s: &Segment| -> Option<usize> {
        match &s.kind {
            SegKind::Unit(u) => Some(u.pushes_per_unit),
            // Reductions emit one scalar per array — already coalesced.
            SegKind::Reduce(_) | SegKind::HFused(_) => Some(1),
            // Sibling kernels interleave output groups: row-major only.
            SegKind::MapSiblings(_) => None,
            SegKind::Stencil(_) | SegKind::Opaque(..) => None,
        }
    };
    for (i, layout) in layouts.iter_mut().enumerate() {
        let producer = if i == 0 { None } else { Some(&segments[i - 1]) };
        let consumer = segments.get(i);
        let p = match producer {
            None => None, // host can restructure freely
            Some(s) => match window_out(s) {
                Some(w) => Some(w),
                None => {
                    continue; // stencil/opaque producer: keep row-major
                }
            },
        };
        let c = match consumer {
            None => None,
            Some(s) => match window_in(s) {
                Some(w) => Some(w),
                None => {
                    continue;
                }
            },
        };
        // Host-to-host trivial case would be (None, None): skip.
        if p.is_none() && c.is_none() {
            continue;
        }
        *layout = choose_edge_layout(p, c);
    }
    layouts
}

/// Fractional advantage a challenger must have over the incumbent choice
/// before the variant table switches — hysteresis that keeps near-tie
/// cost-model noise from fragmenting the table into spurious variants.
const SWITCH_MARGIN: f64 = 1.05;

/// The first cheapest of `candidates` under `time`, with its time,
/// skipping those `time` cannot price; `None` when it prices none.
fn cheapest<T>(
    candidates: impl IntoIterator<Item = T>,
    time: impl Fn(&T) -> Option<f64>,
) -> Option<(T, f64)> {
    let mut best: Option<(T, f64)> = None;
    for c in candidates {
        let Some(t) = time(&c) else { continue };
        if best.as_ref().is_none_or(|&(_, bt)| t < bt) {
            best = Some((c, t));
        }
    }
    best
}

/// One segment's decision at one point. `search` prices the candidates
/// through the `time` it is handed and returns its winner with the
/// winner's time (`None` when `time` cannot price it). The incumbent
/// `prev` (the decision at smaller inputs) then stands unless the winner
/// is at least [`SWITCH_MARGIN`] cheaper or `prev` has no finite price.
/// Every candidate is priced once; `prev` is priced only when `search`
/// did not price it. `None` when `search` finds no winner.
fn pick<T: Clone + PartialEq>(
    prev: Option<&T>,
    time: impl Fn(&T) -> Option<f64>,
    search: impl FnOnce(&dyn Fn(&T) -> Option<f64>) -> Option<(T, Option<f64>)>,
) -> Option<T> {
    let prev_time = Cell::new(None);
    let (best, best_time) = search(&|c: &T| {
        let t = time(c);
        if prev == Some(c) {
            prev_time.set(Some(t));
        }
        t
    })?;
    Some(match prev {
        Some(p) if *p != best => {
            let cp = prev_time.get().unwrap_or_else(|| time(p));
            match (cp, best_time) {
                (Some(cp), Some(cb)) if cp.is_finite() && cb * SWITCH_MARGIN >= cp => p.clone(),
                _ => best,
            }
        }
        _ => best,
    })
}

/// The input-unaware reduction lowering, which also prices each sibling
/// of a horizontally fused split-join.
const ONE_ARRAY_PER_BLOCK: ReduceChoice = ReduceChoice::OneKernel {
    arrays_per_block: 1,
    block_dim: 256,
};

/// A segment's size at one axis point: what the planner, the
/// kernel-management unit's predictions and the launch read off its
/// bounds. [`shape`] is the only place those bounds are evaluated.
#[derive(Debug)]
pub(crate) struct Shape<'a> {
    /// Firings over the whole input: the node's steady-state repetitions
    /// (at least 1) times the steady states the input holds.
    pub reps: usize,
    /// Work units per firing (unit segments; 1 for every other kind).
    pub upf: usize,
    /// Elements per array (reductions) or grid points (stencils).
    pub elements: usize,
    /// The stencil's grid and (row, column) halo.
    pub rows: usize,
    pub cols: usize,
    pub halo: (usize, usize),
    /// The bindings the shape was taken at, which [`price`] counts bodies
    /// under.
    binds: &'a Bindings,
    /// The segment's own body counted under `binds`, on its first
    /// [`price`]: every choice priced at this shape shares one walk.
    counts: Cell<Option<OpCounts>>,
}

impl Shape<'_> {
    /// The memoized body counts, `count`ed on first use. (A `OnceCell`
    /// would run `count` on its cold path, and every prediction takes it.)
    fn counts(&self, count: impl FnOnce() -> OpCounts) -> OpCounts {
        if let Some(c) = self.counts.get() {
            return c;
        }
        let c = count();
        self.counts.set(Some(c));
        c
    }
}

/// The [`Shape`] of `seg` at `binds` over `iterations` steady states,
/// with `reps` the flat nodes' repetitions per steady state
/// ([`Balance::reps`]).
///
/// # Errors
///
/// [`Error::Runtime`] when a bound does not evaluate under `binds`: no
/// launch could size the segment.
pub(crate) fn shape<'a>(
    seg: &Segment,
    binds: &'a Bindings,
    reps: &[u64],
    iterations: u64,
) -> Result<Shape<'a>> {
    let bound = |e: &Expr, what: &str| -> Result<i64> {
        let n =
            eval_bound(e, binds).ok_or_else(|| Error::Runtime(format!("unbound {what} bound")))?;
        Ok(n.max(1))
    };
    let mut shape = Shape {
        reps: (reps[seg.node].max(1) * iterations) as usize,
        upf: 1,
        elements: 0,
        rows: 0,
        cols: 0,
        halo: (0, 0),
        binds,
        counts: Cell::new(None),
    };
    match &seg.kind {
        SegKind::Unit(u) => {
            if let UnitsPerFiring::Loop(e) = &u.units_per_firing {
                shape.upf = bound(e, "loop")? as usize;
            }
        }
        SegKind::Reduce(r) => shape.elements = bound(&r.pattern.bound, "reduction")? as usize,
        SegKind::HFused(h) => shape.elements = bound(&h.patterns[0].bound, "reduction")? as usize,
        SegKind::Stencil(s) => {
            let total = bound(&s.pattern.bound, "stencil")?;
            let cols = match &s.pattern.width_param {
                Some(w) => binds.get(w).copied().unwrap_or(total).max(1),
                None => total,
            };
            let (hr, hc) = s.pattern.halo();
            shape.elements = total as usize;
            shape.rows = (total / cols).max(1) as usize;
            shape.cols = cols as usize;
            shape.halo = (hr as usize, hc as usize);
        }
        SegKind::MapSiblings(_) | SegKind::Opaque(..) => {}
    }
    Ok(shape)
}

/// The model's time (µs) of lowering `seg` as `choice` at `shape`, its
/// input edge's layout `edges[0]` and output edge's `edges[1]`: the one
/// place a (segment, choice) pair becomes a [`crate::cost`] profile and a
/// time. `None` when `choice` cannot run there — a stencil tile whose
/// halo-extended tile overflows shared memory — or is not a lowering of
/// `seg`'s kind.
pub(crate) fn price(
    device: &DeviceSpec,
    program: &Program,
    seg: &Segment,
    shape: &Shape<'_>,
    choice: &SegChoice,
    edges: &[Layout],
) -> Option<f64> {
    let binds = shape.binds;
    let map_time = |units, pops, pushes, c: OpCounts, out, coarsen| {
        let state = c.state_loads + c.state_stores + c.peeks;
        let p = map_profile(
            device, units, pops, pushes, state, c.compute, c.flops, edges[0], out, coarsen, 256,
        );
        estimate(device, &p).time_us
    };
    let reduce_time = |choice, pattern: &ReductionPattern, c: OpCounts| {
        reduce_choice_time(
            device,
            choice,
            shape.reps,
            shape.elements,
            pattern.pops_per_elem,
            c.state_loads,
            c.compute + 1.0,
            edges[0],
        )
    };
    Some(match (&seg.kind, choice) {
        (SegKind::Unit(u), SegChoice::Map { coarsen }) => {
            let counts = shape.counts(|| body_counts(&u.body, binds));
            let units = shape.reps * shape.upf;
            map_time(
                units,
                u.pops_per_unit,
                u.pushes_per_unit,
                counts,
                edges[1],
                *coarsen,
            )
        }
        (SegKind::Reduce(r), SegChoice::Reduce { choice }) => {
            let elem = &r.pattern.elem;
            let counts = shape.counts(|| expr_counts(elem, binds));
            reduce_time(*choice, &r.pattern, counts)
        }
        (SegKind::Stencil(s), SegChoice::Stencil { tile }) => {
            let taps = s.pattern.offsets.len();
            tile_time(device, shape.rows, shape.cols, *tile, shape.halo, taps)?
        }
        (SegKind::HFused(h), SegChoice::HFused { fused }) => {
            let per = (h.patterns.iter())
                .map(|p| reduce_time(ONE_ARRAY_PER_BLOCK, p, expr_counts(&p.elem, binds)));
            if *fused {
                // One kernel reads the shared window once; cost is
                // dominated by the most expensive sibling.
                per.fold(0.0, f64::max)
            } else {
                per.sum()
            }
        }
        (SegKind::MapSiblings(m), SegChoice::MapSiblings) => m
            .branches
            .iter()
            .map(|(body, pushes, _, _)| {
                let counts = body_counts(body, binds);
                map_time(
                    shape.reps,
                    m.pops_per_unit,
                    *pushes,
                    counts,
                    Layout::RowMajor,
                    1,
                )
            })
            .sum(),
        (SegKind::Opaque(idx, _), SegChoice::Opaque) => {
            let body = &program.actors[*idx].work.body;
            let counts = shape.counts(|| body_counts(body, binds));
            host_cost_us(shape.reps, counts.compute)
        }
        _ => return None,
    })
}

/// Decide the lowering of every segment at one axis point: take its
/// [`shape`], [`price`] each candidate choice once, keep the first
/// cheapest, then let the incumbent `prev` (the decision at smaller
/// inputs) stand unless that is [`SWITCH_MARGIN`] cheaper ([`pick`]). A
/// segment the options leave nothing to choose for gets its
/// [`fixed_choice`], with no hysteresis.
///
/// # Errors
///
/// The segment's [`shape`] error.
#[allow(clippy::too_many_arguments)]
fn decide(
    program: &Program,
    segments: &[Segment],
    device: &DeviceSpec,
    options: &CompileOptions,
    layouts: &[Layout],
    binds: &Bindings,
    reps: &[u64],
    iterations: u64,
    prev: Option<&[SegChoice]>,
) -> Result<Vec<SegChoice>> {
    segments
        .iter()
        .enumerate()
        .map(|(i, seg)| {
            let shape = shape(seg, binds, reps, iterations)?;
            let time = |c: &SegChoice| price(device, program, seg, &shape, c, &layouts[i..]);
            // An incumbent packing more arrays per block than there are
            // arrays no longer stands.
            let incumbent = prev.and_then(|p| p.get(i)).filter(|c| match c {
                SegChoice::Reduce {
                    choice:
                        ReduceChoice::OneKernel {
                            arrays_per_block, ..
                        },
                } => *arrays_per_block <= shape.reps,
                _ => true,
            });
            let priced = |best: Option<(SegChoice, f64)>| best.map(|(c, t)| (c, Some(t)));
            let picked = match &seg.kind {
                SegKind::Unit(_) if options.integration => pick(incumbent, time, |time| {
                    let coarsened = [1, 2, 4, 8, 16].map(|coarsen| SegChoice::Map { coarsen });
                    priced(cheapest(coarsened, time))
                }),
                SegKind::Reduce(_) if options.segmentation => pick(incumbent, time, |time| {
                    let choices = reduce_candidates(device, shape.reps, shape.elements)
                        .into_iter()
                        // Thread-per-array needs the array-major
                        // restructured layout, which only the host can
                        // provide: the host-fed first segment, under the
                        // memory optimization.
                        .filter(|c| {
                            (i == 0 && options.memory)
                                || !matches!(c, ReduceChoice::ThreadPerArray { .. })
                        })
                        .map(|choice| SegChoice::Reduce { choice });
                    priced(cheapest(choices, time))
                }),
                // `search_tiles` searches the tiles, breaking equal times
                // by the reuse metric.
                SegKind::Stencil(s) if options.memory => pick(incumbent, time, |time| {
                    let (hr, hc) = shape.halo;
                    let taps = s.pattern.offsets.len();
                    let stencil = |tile| SegChoice::Stencil { tile };
                    let tile_time = |tile| time(&stencil(tile));
                    Some(
                        match search_tiles(shape.rows, shape.cols, hr, hc, taps, tile_time) {
                            Some((tile, t)) => (stencil(tile), Some(t)),
                            // No tile fits, (32, 1) included: `choose_tile`'s
                            // fallback.
                            None => (stencil((32, 1)), None),
                        },
                    )
                }),
                _ => None,
            };
            Ok(picked.unwrap_or_else(|| fixed_choice(seg, &shape, options)))
        })
        .collect()
}

/// The input-unaware lowering of `seg`: what the planner runs when the
/// options leave it nothing to choose.
fn fixed_choice(seg: &Segment, shape: &Shape<'_>, options: &CompileOptions) -> SegChoice {
    match &seg.kind {
        SegKind::Unit(_) => SegChoice::Map { coarsen: 1 },
        SegKind::Reduce(_) => SegChoice::Reduce {
            choice: ONE_ARRAY_PER_BLOCK,
        },
        SegKind::Stencil(_) => SegChoice::Stencil {
            tile: (32, if shape.rows == 1 { 1 } else { 4 }),
        },
        SegKind::HFused(_) => SegChoice::HFused {
            fused: options.integration,
        },
        SegKind::MapSiblings(_) => SegChoice::MapSiblings,
        SegKind::Opaque(..) => SegChoice::Opaque,
    }
}

fn variant_tags(
    choices: &[SegChoice],
    layouts: &[Layout],
    structure_tags: &[OptTag],
) -> Vec<OptTag> {
    let mut tags: Vec<OptTag> = structure_tags.to_vec();
    if layouts.contains(&Layout::Transposed) {
        tags.push(OptTag::MemoryRestructuring);
    }
    for choice in choices {
        match choice {
            SegChoice::Reduce { choice } => {
                tags.push(OptTag::StreamReduction);
                if matches!(
                    choice,
                    ReduceChoice::OneKernel { arrays_per_block, .. } if *arrays_per_block > 1
                ) {
                    tags.push(OptTag::ThreadIntegration);
                }
            }
            SegChoice::Map { coarsen } if *coarsen > 1 => {
                tags.push(OptTag::ThreadIntegration);
            }
            SegChoice::Stencil { .. } => tags.push(OptTag::NeighboringAccess),
            SegChoice::HFused { fused: true } => tags.push(OptTag::HorizontalIntegration),
            _ => {}
        }
    }
    tags.sort_unstable();
    tags.dedup();
    tags
}

/// Compile a program for a device over an input axis with default options.
///
/// # Errors
///
/// Returns [`Error::Semantic`] for graphs this reproduction cannot lower
/// (round-robin splitters, non-reduction split-joins) and propagates
/// scheduling errors at the probe points.
pub fn compile(
    program: &Program,
    device: &DeviceSpec,
    axis: &InputAxis,
) -> Result<CompiledProgram> {
    compile_with_options(program, device, axis, CompileOptions::default())
}

/// Compile with explicit optimization toggles (used for the paper's
/// optimization-breakdown figures).
pub fn compile_with_options(
    program: &Program,
    device: &DeviceSpec,
    axis: &InputAxis,
    options: CompileOptions,
) -> Result<CompiledProgram> {
    let content = content_hash(program, axis, &options);
    let (mut compiled, structure_tags) = assemble(program, device, axis, options, content)?;
    compiled.variants = plan_tables(&compiled, &structure_tags)?;
    Ok(compiled)
}

/// Load-or-compile through a persistent [`ArtifactStore`](crate::artifact::ArtifactStore).
///
/// The cheap plan-time work always runs: the structure pass (one
/// probe-point flatten + classify) rebuilds the segment list the persisted
/// table is validated against, every segment body is lowered and the edge
/// layouts are chosen. On a store hit the expensive part — the
/// probe/binary-search construction of the variant table — is skipped and
/// the persisted [`PlanArtifact`](crate::artifact::PlanArtifact) is
/// spliced in. On a miss (including corrupt or version-mismatched files,
/// which the store counts as rejects) the table is built normally and
/// written back atomically; write failures are swallowed — a read-only
/// store degrades to cold compiles, never an error.
///
/// # Errors
///
/// Exactly the errors of [`compile_with_options`]; store problems are
/// never surfaced as errors.
pub fn compile_with_store(
    program: &Program,
    device: &DeviceSpec,
    axis: &InputAxis,
    options: CompileOptions,
    store: &crate::artifact::ArtifactStore,
) -> Result<CompiledProgram> {
    let content = content_hash(program, axis, &options);
    let (mut compiled, structure_tags) = assemble(program, device, axis, options, content)?;
    let key = compiled.artifact_key();
    match store.load_plan(key, compiled.segments.len(), axis.lo, axis.hi) {
        Some(plan) => compiled.variants = plan.variants,
        None => {
            compiled.variants = plan_tables(&compiled, &structure_tags)?;
            let _ = store.store_plan(key, &compiled.export_plan());
        }
    }
    Ok(compiled)
}

/// Content address of a compilation request: a stable structural hash of
/// (program AST, compile options, input axis). Two requests with the same
/// hash produce the same plan on the same device, so the hash keys the
/// artifact store (together with
/// [`DeviceSpec::fingerprint`](gpu_sim::DeviceSpec::fingerprint)).
///
/// The axis carries two closures (`bind`, `items`) that cannot be hashed
/// directly; their *behavior* is sampled at the range endpoints and the
/// probe point instead. Axes that differ only between sample points can
/// alias — acceptable, because the variant table is validated structurally
/// against the freshly rebuilt segments on every load.
pub fn content_hash(program: &Program, axis: &InputAxis, options: &CompileOptions) -> u64 {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = write!(
        s,
        "{program:?}|{options:?}|axis {}=[{},{}]",
        axis.name, axis.lo, axis.hi
    );
    for x in [axis.lo, axis.probe_point(), axis.hi] {
        let _ = write!(s, "|@{x}:");
        for (k, v) in axis.bind(x) {
            let _ = write!(s, "{k}={v},");
        }
        let _ = write!(s, "items={}", axis.expected_iterations(x, 1));
    }
    crate::artifact::fnv1a64(s.as_bytes())
}

/// The expensive plan-time pass: build the variant table of `compiled`'s
/// segments by probing the axis. This is exactly what a warm boot skips.
fn plan_tables(compiled: &CompiledProgram, structure_tags: &[OptTag]) -> Result<Vec<Variant>> {
    let CompiledProgram {
        program,
        device,
        axis,
        options,
        segments,
        edge_layouts: layouts,
        flat,
        ..
    } = compiled;
    let mut bal = Balance::default();
    let mut decide_at = |x: i64, prev: Option<&[SegChoice]>| -> Result<Vec<SegChoice>> {
        let binds = axis.bind(x);
        let steady_input = flat.repetitions(&binds, &mut bal)?;
        let iterations = axis.expected_iterations(x, steady_input);
        decide(
            program,
            segments,
            device,
            options,
            layouts,
            &binds,
            bal.reps(),
            iterations,
            prev,
        )
    };

    // Probe the axis geometrically and refine the boundaries where the
    // decision signature changes.
    let probes = axis.geometric_points(options.probes);
    let (lo, hi) = (axis.lo, axis.hi);

    let mut variants: Vec<Variant> = Vec::new();
    let mut cur_lo = lo;
    let mut cur_sig = decide_at(lo, None)?;
    // `cursor` is the largest x known to share `cur_sig`; one probe
    // interval may contain several decision changes, so keep splitting
    // until the probe itself agrees with the running signature.
    let mut cursor = lo;
    for &x in probes.iter().skip(1) {
        loop {
            let sig = decide_at(x, Some(&cur_sig))?;
            if sig == cur_sig {
                cursor = x;
                break;
            }
            // Binary search the first change in (cursor, x]; `next_sig`
            // is the decision at `b`, taken with the same incumbent.
            let (mut a, mut b, mut next_sig) = (cursor, x, sig);
            while b - a > 1 {
                let mid = a + (b - a) / 2;
                let mid_sig = decide_at(mid, Some(&cur_sig))?;
                if mid_sig == cur_sig {
                    a = mid;
                } else {
                    (b, next_sig) = (mid, mid_sig);
                }
            }
            variants.push(Variant {
                lo: cur_lo,
                hi: b - 1,
                tags: variant_tags(&cur_sig, layouts, structure_tags),
                choices: cur_sig,
            });
            cur_lo = b;
            cur_sig = next_sig;
            cursor = b;
            if b == x {
                break;
            }
        }
    }
    variants.push(Variant {
        lo: cur_lo,
        hi,
        tags: variant_tags(&cur_sig, layouts, structure_tags),
        choices: cur_sig,
    });

    Ok(variants)
}

/// The run-time [`CompiledProgram`] shell, with an empty variant table,
/// and the structure's optimization tags: the segment list, every segment
/// body lowered and the edge layouts chosen — the cheap plan-time work
/// every compile redoes, warm or cold.
fn assemble(
    program: &Program,
    device: &DeviceSpec,
    axis: &InputAxis,
    options: CompileOptions,
    content_hash: u64,
) -> Result<(CompiledProgram, Vec<OptTag>)> {
    let probe_binds = axis.bind(axis.probe_point());
    let flat = program.flatten()?;
    let (segments, structure_tags) = build_structure(program, &flat, &options, &probe_binds)?;
    let edge_layouts = choose_layouts(&segments, options.memory);
    let compiled = CompiledProgram {
        content_hash,
        program: program.clone(),
        flat: Arc::new(flat),
        device: device.clone(),
        axis: axis.clone(),
        options,
        segments,
        warp_frames: Arc::new(crate::warp::WarpFramePool::new()),
        edge_layouts,
        variants: Vec::new(),
    };
    Ok((compiled, structure_tags))
}

/// Compile for a single concrete binding (one-shot execution).
pub fn compile_single(
    program: &Program,
    device: &DeviceSpec,
    binds: &Bindings,
) -> Result<CompiledProgram> {
    let b = binds.clone();
    let axis = InputAxis::new("point", 1, 1, move |_| b.clone());
    let opts = CompileOptions {
        probes: 2,
        ..CompileOptions::default()
    };
    compile_with_options(program, device, &axis, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamir::parse::parse_program;

    fn device() -> DeviceSpec {
        DeviceSpec::tesla_c2050()
    }

    const SUM_SRC: &str = r#"pipeline P(N) {
        actor Sum(pop N, push 1) {
            acc = 0.0;
            for i in 0..N { acc = acc + pop(); }
            push(acc);
        }
    }"#;

    #[test]
    fn sum_compiles_with_multiple_variants() {
        let p = parse_program(SUM_SRC).unwrap();
        let axis = InputAxis::total_size("N", 64, 1 << 22);
        let compiled = compile(&p, &device(), &axis).unwrap();
        // The reduction scheme must change across this enormous range.
        assert!(
            compiled.variant_count() >= 2,
            "expected multiple variants, got {}",
            compiled.variant_count()
        );
        // The table tiles the axis exactly.
        assert_eq!(compiled.variants[0].lo, 64);
        assert_eq!(compiled.variants.last().unwrap().hi, 1 << 22);
        for w in compiled.variants.windows(2) {
            assert_eq!(w[0].hi + 1, w[1].lo);
        }
    }

    #[test]
    fn no_variant_packs_more_arrays_per_block_than_its_range_has() {
        // 32-element rows that grow fewer along the axis: an incumbent
        // packing several rows per block must give way once fewer rows
        // remain, however close its price.
        let src = r#"pipeline P(cols) {
            actor RowSum(pop cols, push 1) {
                acc = 0.0;
                for i in 0..cols { acc = acc + pop(); }
                push(acc);
            }
        }"#;
        let p = parse_program(src).unwrap();
        let rows = |x: i64| 4096 / x;
        let axis = InputAxis::new("x", 1, 4096, |_| streamir::graph::bindings(&[("cols", 32)]))
            .with_items(move |x| rows(x) * 32);
        for device in DeviceSpec::presets() {
            let compiled = compile(&p, &device, &axis).unwrap();
            for v in &compiled.variants {
                if let SegChoice::Reduce {
                    choice:
                        ReduceChoice::OneKernel {
                            arrays_per_block, ..
                        },
                } = v.choices[0]
                {
                    assert!(
                        arrays_per_block as i64 <= rows(v.hi),
                        "{}: {v:?}",
                        device.name
                    );
                }
            }
        }
    }

    /// [`pick`] over `candidates` with incumbent `prev` and [`cheapest`]
    /// as the search, pricing through a counter: the decision and how
    /// often each choice was priced.
    fn counted_pick(candidates: &[u32], prev: Option<u32>) -> (Option<u32>, Vec<(u32, usize)>) {
        let priced = std::cell::RefCell::new(std::collections::BTreeMap::new());
        let time = |c: &u32| {
            *priced.borrow_mut().entry(*c).or_insert(0) += 1;
            match c {
                0 | 4 => Some(10.0),
                1 => Some(9.9),
                2 | 3 => Some(8.0),
                7 => Some(f64::INFINITY),
                _ => None,
            }
        };
        let picked = pick(prev.as_ref(), time, |time| {
            cheapest(candidates.iter().copied(), time).map(|(c, t)| (c, Some(t)))
        });
        (picked, priced.into_inner().into_iter().collect())
    }

    #[test]
    fn pick_prices_each_choice_once() {
        // No incumbent: the cheapest, each candidate priced once.
        assert_eq!(
            counted_pick(&[0, 1, 2], None),
            (Some(2), vec![(0, 1), (1, 1), (2, 1)])
        );
        // Kept within the margin (9.9 * 1.05 >= 10), the incumbent being a
        // candidate and priced once.
        assert_eq!(
            counted_pick(&[0, 1], Some(0)),
            (Some(0), vec![(0, 1), (1, 1)])
        );
        // Kept within the margin, the absent incumbent priced once.
        assert_eq!(counted_pick(&[1], Some(4)), (Some(4), vec![(1, 1), (4, 1)]));
        // Switched beyond the margin (8 * 1.05 < 10).
        assert_eq!(
            counted_pick(&[0, 2], Some(0)),
            (Some(2), vec![(0, 1), (2, 1)])
        );
        assert_eq!(counted_pick(&[2], Some(4)), (Some(2), vec![(2, 1), (4, 1)]));
        // Switched when the incumbent's price is infinite or missing.
        assert_eq!(counted_pick(&[0], Some(7)), (Some(0), vec![(0, 1), (7, 1)]));
        assert_eq!(
            counted_pick(&[0, 9], Some(9)),
            (Some(0), vec![(0, 1), (9, 1)])
        );
        // On a tie the first minimum wins.
        assert_eq!(counted_pick(&[2, 3], None).0, Some(2));
        assert_eq!(counted_pick(&[3, 2], None).0, Some(3));
        // The incumbent is the winner: nothing priced twice.
        assert_eq!(
            counted_pick(&[0, 2], Some(2)),
            (Some(2), vec![(0, 1), (2, 1)])
        );
        // Nothing priceable: no decision.
        assert_eq!(counted_pick(&[9], Some(0)), (None, vec![(9, 1)]));
    }

    #[test]
    fn variant_lookup_clamps() {
        let p = parse_program(SUM_SRC).unwrap();
        let axis = InputAxis::total_size("N", 64, 4096);
        let compiled = compile(&p, &device(), &axis).unwrap();
        let (i_lo, _) = compiled.variant_for(1);
        assert_eq!(i_lo, 0);
        let (i_hi, _) = compiled.variant_for(1 << 30);
        assert_eq!(i_hi, compiled.variant_count() - 1);
    }

    #[test]
    fn baseline_options_produce_fixed_reduction() {
        let p = parse_program(SUM_SRC).unwrap();
        let axis = InputAxis::total_size("N", 64, 1 << 22);
        let compiled =
            compile_with_options(&p, &device(), &axis, CompileOptions::baseline()).unwrap();
        assert_eq!(compiled.variant_count(), 1);
        assert!(matches!(
            compiled.variants[0].choices[0],
            SegChoice::Reduce {
                choice: ReduceChoice::OneKernel {
                    arrays_per_block: 1,
                    block_dim: 256
                }
            }
        ));
    }

    #[test]
    fn map_chain_fuses_vertically() {
        let src = r#"pipeline P(N) {
            actor Scale(pop 1, push 1) { push(pop() * 2.0); }
            actor Offset(pop 1, push 1) { push(pop() + 1.0); }
        }"#;
        let p = parse_program(src).unwrap();
        let axis = InputAxis::total_size("N", 1 << 10, 1 << 20);
        let fused = compile(&p, &device(), &axis).unwrap();
        assert_eq!(fused.segments.len(), 1);
        assert!(fused.variants[0]
            .tags
            .contains(&OptTag::VerticalIntegration));

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
        assert_eq!(unfused.segments.len(), 2);
    }

    #[test]
    fn duplicate_splitjoin_of_reductions_recognized() {
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
        let axis = InputAxis::total_size("N", 1 << 10, 1 << 20);
        let compiled = compile(&p, &device(), &axis).unwrap();
        assert_eq!(compiled.segments.len(), 1);
        assert!(matches!(compiled.segments[0].kind, SegKind::HFused(_)));
        assert!(compiled.variants[0]
            .tags
            .contains(&OptTag::HorizontalIntegration));
    }

    #[test]
    fn duplicate_splitjoin_of_maps_fuses_horizontally() {
        let src = r#"pipeline P(N) {
            splitjoin {
                split duplicate;
                actor SinA(pop 1, push 1) { push(sin(pop())); }
                actor CosA(pop 1, push 1) { push(cos(pop())); }
                join roundrobin(1, 1);
            }
        }"#;
        let p = parse_program(src).unwrap();
        let axis = InputAxis::total_size("N", 64, 1 << 16);
        let fused = compile(&p, &device(), &axis).unwrap();
        assert_eq!(fused.segments.len(), 1);
        assert!(matches!(fused.segments[0].kind, SegKind::Unit(_)));
        assert!(fused.variants[0]
            .tags
            .contains(&OptTag::HorizontalIntegration));

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
        assert!(matches!(unfused.segments[0].kind, SegKind::MapSiblings(_)));
    }

    #[test]
    fn roundrobin_splitter_rejected() {
        let src = r#"pipeline P() {
            splitjoin {
                split roundrobin(1, 1);
                actor A(pop 1, push 1) { push(pop()); }
                actor B(pop 1, push 1) { push(pop()); }
                join roundrobin(1, 1);
            }
        }"#;
        let p = parse_program(src).unwrap();
        let axis = InputAxis::total_size("N", 1, 100);
        assert!(compile(&p, &device(), &axis).is_err());
    }

    #[test]
    fn sdot_edge_gets_restructured() {
        let src = r#"pipeline P(N) {
            actor Dot(pop 2*N, push 1) {
                acc = 0.0;
                for i in 0..N { acc = acc + pop() * pop(); }
                push(acc);
            }
        }"#;
        let p = parse_program(src).unwrap();
        let axis = InputAxis::total_size("N", 1 << 10, 1 << 20);
        let compiled = compile(&p, &device(), &axis).unwrap();
        assert_eq!(compiled.edge_layouts[0], Layout::Transposed);
        assert!(compiled.variants[0]
            .tags
            .contains(&OptTag::MemoryRestructuring));
    }
}
