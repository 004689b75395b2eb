//! The map kernel template.
//!
//! Lowers per-firing actors (one thread per firing) and parallelized
//! loops (one thread per iteration, §4.2.2). The schedulable unit is a
//! *work unit*: a firing of a small actor, or one iteration of a
//! parallelized loop. Units are distributed block-contiguously and
//! thread-strided, so that lane-consecutive threads process consecutive
//! units — the precondition for memory restructuring (§4.1.1) to coalesce
//! every pop/push.
//!
//! *Horizontal thread integration* (§4.3.2) is the `coarsen` knob: each
//! thread processes several units, reducing the number of blocks when
//! block counts are excessive.

use gpu_sim::{BlockCtx, BufId, Kernel, LaunchConfig, Row};

use super::{
    affine, compute_row, cursor_row, for_warp_rows, index_row, lane_run, Body, StateCache,
    SITE_STATE,
};
use crate::layout::Layout;
use crate::warp::{for_lanes, full_mask, WarpIo, MAX_LANES};

/// Access-site ids used by this template.
const SITE_POP: u32 = 0;
const SITE_PEEK: u32 = 1;
const SITE_PUSH: u32 = 2;
const SITE_STAGE_LD: u32 = 3;
const SITE_STAGE_ST: u32 = 4;
const SITE_STAGE_RD: u32 = 5;

/// A compiled element-wise kernel.
#[derive(Debug, Clone)]
pub struct MapKernel {
    /// Kernel name for reports.
    pub name: String,
    /// The per-unit work body; its preset, when any, is the loop variable
    /// bound to the unit's iteration index.
    pub body: Body,
    /// Total work units in the launch.
    pub units: usize,
    /// Units per actor firing: the loop variable is the unit index *within
    /// its firing* (`unit % units_per_firing`).
    pub units_per_firing: usize,
    /// For peek-window loops: the firing's input window size in words.
    /// Peeks then address `firing_window[offset]` instead of the unit's
    /// own pop window.
    pub window_pop: Option<usize>,
    /// Items popped per unit.
    pub pops_per_unit: usize,
    /// Items pushed per unit.
    pub pushes_per_unit: usize,
    /// Input buffer and layout.
    pub in_buf: BufId,
    pub in_layout: Layout,
    /// Output buffer and layout.
    pub out_buf: BufId,
    pub out_layout: Layout,
    /// Units per thread (1 = no thread integration).
    pub coarsen: usize,
    /// Interleaved output groups for unfused sibling kernels: pushes land
    /// at `unit * total + offset + j` (row-major interleave matching a
    /// round-robin joiner).
    pub out_group: Option<(usize, usize)>,
    /// §4.1.1's *first* coalescing method: cooperatively stage the block's
    /// input windows into shared memory with coalesced sweeps, then let
    /// each thread read its own window from shared. The paper prefers
    /// memory restructuring because staging caps the thread count by the
    /// shared budget and adds address arithmetic — both effects are
    /// measurable here (see the `ablations` harness).
    pub stage_window: bool,
    /// Threads per block.
    pub block_dim: u32,
}

impl MapKernel {
    /// Units handled per block.
    pub fn units_per_block(&self) -> usize {
        self.block_dim as usize * self.coarsen
    }
}

/// Warp-granular I/O for the map template: each [`WarpIo`] call serves
/// one opcode for a whole warp of units, handing `gpu_sim` one complete
/// row (one accounting call per warp memory instruction) instead of
/// reassembling warps lane-by-lane. Lane `l` executes unit `unit0 + l` as
/// thread `tid0 + l`; pop/push cursors are per lane, since divergent
/// lanes consume and produce independently.
///
/// Units are lane-consecutive, so a contiguous run of lanes whose cursors
/// agree (or whose peek offsets step by a constant) addresses a
/// progression: its first address and stride come from the layout and the
/// row goes out as a descriptor. Every other row is mapped lane by lane
/// into `addrs`.
struct MapWarpIo<'c, 'd, 'k> {
    ctx: &'c mut BlockCtx<'d>,
    kernel: &'k MapKernel,
    /// Warp index within the block (drives the accounting row key).
    warp: u32,
    /// Thread id of lane 0.
    tid0: u32,
    /// Unit of lane 0 (units are lane-consecutive by construction).
    unit0: usize,
    /// First unit handled by this block (staging offsets are block-local).
    block_base: usize,
    /// Per-lane pop counts so far.
    pops: [usize; MAX_LANES],
    /// Per-lane push counts so far.
    pushes: [usize; MAX_LANES],
    /// Address row of a lane-mapped instruction being issued.
    addrs: [u64; MAX_LANES],
    /// The block's scalar-promotion cache, shared with every warp of the
    /// block.
    state_cache: &'c mut StateCache,
}

impl WarpIo for MapWarpIo<'_, '_, '_> {
    fn pop_row(&mut self, mask: u64, out: &mut [f32]) {
        let k = self.kernel;
        let (unit0, base, ppu) = (self.unit0, self.block_base, k.pops_per_unit);
        if k.stage_window {
            let local = |l, j| (unit0 + l - base) * ppu + j;
            let row = cursor_row(mask, &mut self.pops, Some(ppu), &mut self.addrs, local);
            self.ctx.ld_shared_row(SITE_STAGE_RD, self.warp, row, out);
            return;
        }
        let stride = k.in_layout.strides(ppu, k.units).0;
        let global = |l, j| k.in_layout.addr(unit0 + l, j, ppu, k.units);
        let row = cursor_row(mask, &mut self.pops, Some(stride), &mut self.addrs, global);
        self.ctx
            .ld_global_row(SITE_POP, self.warp, k.in_buf, row, out);
    }

    fn peek_row(&mut self, mask: u64, offsets: &[i64], out: &mut [f32]) {
        let k = self.kernel;
        let (unit0, base, ppu) = (self.unit0, self.block_base, k.pops_per_unit);
        let upf = k.units_per_firing.max(1);
        let staged = k.stage_window && k.window_pop.is_none();
        let addr = |unit: usize, off: usize| {
            if staged {
                (unit - base) * ppu + off
            } else if let Some(w) = k.window_pop {
                unit / upf * w + off
            } else {
                k.in_layout.addr(unit, off, ppu, k.units)
            }
        };
        // A run of non-negative, non-descending offsets (both ends
        // checked) over lane-consecutive units peeks a progression: the
        // address steps by `per_unit` from lane to lane and by `per_item`
        // per unit of offset. A window peek is one only inside a firing.
        let run = lane_run(mask, offsets).filter(|run| run.first >= 0 && run.step >= 0);
        let progression = run.and_then(|run| {
            let unit = unit0 + run.lo;
            let (per_unit, per_item) = if staged {
                (ppu, 1)
            } else if k.window_pop.is_some() {
                (
                    (unit / upf == (unit + run.lanes - 1) / upf).then_some(0)?,
                    1,
                )
            } else {
                k.in_layout.strides(ppu, k.units)
            };
            let stride = per_unit + run.step as usize * per_item;
            Some(affine(
                run.lo,
                run.lanes,
                addr(unit, run.first as usize),
                stride,
            ))
        });
        let row = progression.unwrap_or_else(|| {
            for_lanes(mask, out.len(), |l| {
                let offset = offsets[l];
                assert!(
                    offset >= 0,
                    "map peek at {offset} outside the input (guard missing?)"
                );
                self.addrs[l] = addr(unit0 + l, offset as usize) as u64;
            });
            Row::Lanes {
                mask,
                addrs: &self.addrs,
            }
        });
        if staged {
            self.ctx.ld_shared_row(SITE_STAGE_RD, self.warp, row, out);
        } else {
            self.ctx
                .ld_global_row(SITE_PEEK, self.warp, k.in_buf, row, out);
        }
    }

    fn push_row(&mut self, mask: u64, vals: &[f32]) {
        let k = self.kernel;
        let unit0 = self.unit0;
        let stride = match k.out_group {
            Some((total, _)) => total,
            None => k.out_layout.strides(k.pushes_per_unit, k.units).0,
        };
        let addr = |l, j| match k.out_group {
            Some((total, offset)) => (unit0 + l) * total + offset + j,
            None => k.out_layout.addr(unit0 + l, j, k.pushes_per_unit, k.units),
        };
        let row = cursor_row(mask, &mut self.pushes, Some(stride), &mut self.addrs, addr);
        self.ctx
            .st_global_row(SITE_PUSH, self.warp, k.out_buf, row, vals);
    }

    fn state_load_row(&mut self, id: u16, _: &str, mask: u64, idx: &[i64], out: &mut [f32]) {
        let target = self.kernel.body.array(id);
        self.state_cache
            .load_row(self.ctx, self.tid0, target, mask, idx, out);
    }

    fn state_store_row(&mut self, id: u16, _: &str, mask: u64, idx: &[i64], vals: &[f32]) {
        let (slot, buf) = self.kernel.body.array(id);
        let row = index_row(mask, idx, &mut self.addrs);
        self.ctx
            .st_global_row(SITE_STATE + slot, self.warp, buf, row, vals);
    }
}

impl Kernel for MapKernel {
    fn name(&self) -> &str {
        &self.name
    }

    fn config(&self) -> LaunchConfig {
        let grid = self.units.div_ceil(self.units_per_block()).max(1) as u32;
        let shared = if self.stage_window {
            (self.units_per_block() * self.pops_per_unit) as u32
        } else {
            0
        };
        LaunchConfig::new(grid, self.block_dim, shared)
    }

    fn run_block(&self, block: u32, ctx: &mut BlockCtx<'_>) {
        let base = block as usize * self.units_per_block();
        if self.stage_window {
            debug_assert_eq!(
                self.in_layout,
                Layout::RowMajor,
                "staging is the alternative to restructuring; input stays row-major"
            );
            // Cooperative, coalesced staging sweep: consecutive threads
            // copy consecutive global words of the block's input span.
            let span = (self.units_per_block() * self.pops_per_unit)
                .min(self.units.saturating_sub(base) * self.pops_per_unit);
            let global_base = base * self.pops_per_unit;
            let bdim = self.block_dim as usize;
            let ws = ctx.warp_size() as usize;
            let mut vals = [0.0f32; MAX_LANES];
            let mut off = 0usize;
            while off < span {
                for_warp_rows(ws, 0, bdim.min(span - off), |warp, lo, lanes| {
                    let local = off + warp as usize * ws + lo;
                    let mask = full_mask(lanes) << lo;
                    compute_row(ctx, warp, mask, 2); // the extra address arithmetic
                    let global = affine(lo, lanes, global_base + local, 1);
                    ctx.ld_global_row(SITE_STAGE_LD, warp, self.in_buf, global, &mut vals);
                    ctx.st_shared_row(SITE_STAGE_ST, warp, affine(lo, lanes, local, 1), &vals);
                });
                off += bdim;
            }
            ctx.sync();
        }
        // One `warp::eval` per warp of units: each opcode is dispatched
        // once and applied across the warp's lanes, with whole address
        // rows handed to the accounting engine.
        let ws = ctx.warp_size() as usize;
        let bdim = self.block_dim as usize;
        let upf = self.units_per_firing.max(1);
        let mut state_cache = StateCache::default();
        let mut wf = self.body.frame(ws.min(bdim));
        for c in 0..self.coarsen {
            // Thread-strided within the block's contiguous range so each
            // sweep touches consecutive units.
            let sweep0 = base + c * bdim;
            let mut lane0 = 0usize;
            while lane0 < bdim {
                let unit0 = sweep0 + lane0;
                if unit0 >= self.units {
                    break;
                }
                // Lanes past the unit count are simply not resident
                // (the ragged final warp).
                let live = (self.units - unit0).min((bdim - lane0).min(ws));
                let mask = full_mask(live);
                self.body
                    .start(&mut wf, mask, live, |l| ((unit0 + l) % upf) as i64);
                let warp = (lane0 / ws) as u32;
                let mut io = MapWarpIo {
                    ctx,
                    kernel: self,
                    warp,
                    tid0: lane0 as u32,
                    unit0,
                    block_base: base,
                    pops: [0; MAX_LANES],
                    pushes: [0; MAX_LANES],
                    addrs: [0; MAX_LANES],
                    state_cache: &mut state_cache,
                };
                self.body.eval(&mut wf, mask, &mut io);
                self.body.charge(ctx, warp, mask);
                lane0 += ws;
            }
        }
        self.body.give(wf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{launch, DeviceSpec, ExecMode, GlobalMem};
    use streamir::graph::bindings;
    use streamir::interp::Interpreter;
    use streamir::ir::Stmt;
    use streamir::parse::parse_program;

    use crate::layout::restructure;
    use crate::templates::tests::body;

    /// A row-major map kernel of 256-thread blocks over `units` units.
    fn kernel(
        name: &str,
        body: Body,
        units: usize,
        pops_per_unit: usize,
        pushes_per_unit: usize,
        in_buf: BufId,
        out_buf: BufId,
    ) -> MapKernel {
        MapKernel {
            name: name.into(),
            body,
            units,
            units_per_firing: units,
            window_pop: None,
            pops_per_unit,
            pushes_per_unit,
            in_buf,
            in_layout: Layout::RowMajor,
            out_buf,
            out_layout: Layout::RowMajor,
            coarsen: 1,
            out_group: None,
            stage_window: false,
            block_dim: 256,
        }
    }

    #[test]
    fn map_matches_interpreter() {
        let src = "pipeline P() { actor M(pop 1, push 1) { x = pop(); push(x * x + 1.0); } }";
        let program = parse_program(src).unwrap();
        let input: Vec<f32> = (0..1000).map(|i| i as f32 * 0.25).collect();
        let expected = Interpreter::new(&program).run(&input).unwrap();

        let device = DeviceSpec::tesla_c2050();
        let mut mem = GlobalMem::new();
        let in_buf = mem.alloc_from(&input);
        let out_buf = mem.alloc(input.len());
        let k = kernel(
            "m",
            body(&program.actors[0].work.body, &bindings(&[]), None, &[]),
            input.len(),
            1,
            1,
            in_buf,
            out_buf,
        );
        launch(&device, &mut mem, &k, ExecMode::Full);
        assert_eq!(mem.read(out_buf), expected.as_slice());
    }

    #[test]
    fn multi_rate_map_row_major_vs_transposed() {
        // pop 4, push 2: sums pairs.
        let src = r#"pipeline P() {
            actor M(pop 4, push 2) {
                a = pop(); b = pop(); c = pop(); d = pop();
                push(a + b);
                push(c + d);
            }
        }"#;
        let program = parse_program(src).unwrap();
        let input: Vec<f32> = (0..256).map(|i| i as f32).collect();
        let expected = Interpreter::new(&program).run(&input).unwrap();
        let device = DeviceSpec::tesla_c2050();

        // Row-major.
        let mut mem = GlobalMem::new();
        let in_buf = mem.alloc_from(&input);
        let out_buf = mem.alloc(input.len() / 2);
        let base = kernel(
            "m",
            body(&program.actors[0].work.body, &bindings(&[]), None, &[]),
            input.len() / 4,
            4,
            2,
            in_buf,
            out_buf,
        );
        let row_stats = launch(&device, &mut mem, &base, ExecMode::Full);
        assert_eq!(mem.read(out_buf), expected.as_slice());

        // Transposed (restructured input, restructured output).
        let mut mem2 = GlobalMem::new();
        let in2 = mem2.alloc_from(restructure(&input, 4));
        let out2 = mem2.alloc(input.len() / 2);
        let opt = MapKernel {
            in_buf: in2,
            in_layout: Layout::Transposed,
            out_buf: out2,
            out_layout: Layout::Transposed,
            ..base.clone()
        };
        let t_stats = launch(&device, &mut mem2, &opt, ExecMode::Full);
        let out_rm = crate::layout::unrestructure(mem2.read(out2), 2);
        assert_eq!(out_rm, expected);

        // Restructuring must improve coalescing.
        assert!(
            t_stats.totals.transactions() < row_stats.totals.transactions(),
            "transposed {} vs row-major {}",
            t_stats.totals.transactions(),
            row_stats.totals.transactions()
        );
        assert!(t_stats.totals.transactions_per_mem_inst() <= 1.01);
    }

    #[test]
    fn coarsening_reduces_blocks_preserves_output() {
        let src = "pipeline P() { actor M(pop 1, push 1) { push(pop() + 1.0); } }";
        let program = parse_program(src).unwrap();
        let input: Vec<f32> = (0..4096).map(|i| i as f32).collect();
        let device = DeviceSpec::tesla_c2050();

        let mut mem = GlobalMem::new();
        let in_buf = mem.alloc_from(&input);
        let out_buf = mem.alloc(input.len());
        let k = kernel(
            "m",
            body(&program.actors[0].work.body, &bindings(&[]), None, &[]),
            input.len(),
            1,
            1,
            in_buf,
            out_buf,
        );
        let plain = k.config().grid_dim;
        let k4 = MapKernel { coarsen: 4, ..k };
        assert_eq!(k4.config().grid_dim * 4, plain);
        launch(&device, &mut mem, &k4, ExecMode::Full);
        for (i, v) in mem.read(out_buf).iter().enumerate() {
            assert_eq!(*v, i as f32 + 1.0);
        }
    }

    #[test]
    fn parallel_loop_lowering_with_loop_var() {
        // Units are loop iterations; the loop variable must be visible.
        let src = r#"pipeline P(N) {
            actor A(pop N, push N) {
                for i in 0..N { push(pop() + i); }
            }
        }"#;
        let program = parse_program(src).unwrap();
        let n = 100usize;
        let input = vec![1.0; n];
        let mut it = Interpreter::new(&program);
        it.bind_param("N", n as i64);
        let expected = it.run(&input).unwrap();

        // Per-iteration body: strip the For, keep its body with loop_var.
        let Stmt::For {
            var, body: stmts, ..
        } = &program.actors[0].work.body[0]
        else {
            panic!("expected for");
        };
        let device = DeviceSpec::tesla_c2050();
        let mut mem = GlobalMem::new();
        let in_buf = mem.alloc_from(&input);
        let out_buf = mem.alloc(n);
        let binds = bindings(&[("N", n as i64)]);
        let k = kernel(
            "pl",
            body(stmts, &binds, Some(var), &[]),
            n,
            1,
            1,
            in_buf,
            out_buf,
        );
        launch(&device, &mut mem, &k, ExecMode::Full);
        assert_eq!(mem.read(out_buf), expected.as_slice());
    }

    #[test]
    fn staged_window_matches_direct_and_coalesces() {
        // pop 4, push 2 row-major map: direct loads are strided (4
        // transactions/inst); staging restores coalescing at the price of
        // shared traffic and a capped block size.
        let src = r#"pipeline P() {
            actor M(pop 4, push 2) {
                a = pop(); b = pop(); c = pop(); d = pop();
                push(a + c);
                push(b + d);
            }
        }"#;
        let program = parse_program(src).unwrap();
        let input: Vec<f32> = (0..1024).map(|i| i as f32).collect();
        let expected = Interpreter::new(&program).run(&input).unwrap();
        let device = DeviceSpec::tesla_c2050();

        let mut direct_mem = GlobalMem::new();
        let in1 = direct_mem.alloc_from(&input);
        let out1 = direct_mem.alloc(input.len() / 2);
        let direct = kernel(
            "direct",
            body(&program.actors[0].work.body, &bindings(&[]), None, &[]),
            input.len() / 4,
            4,
            2,
            in1,
            out1,
        );
        let direct_stats = launch(&device, &mut direct_mem, &direct, ExecMode::Full);
        assert_eq!(direct_mem.read(out1), expected.as_slice());

        let mut staged_mem = GlobalMem::new();
        let in2 = staged_mem.alloc_from(&input);
        let out2 = staged_mem.alloc(input.len() / 2);
        let staged = MapKernel {
            stage_window: true,
            block_dim: 128,
            ..kernel(
                "staged",
                body(&program.actors[0].work.body, &bindings(&[]), None, &[]),
                input.len() / 4,
                4,
                2,
                in2,
                out2,
            )
        };
        let staged_stats = launch(&device, &mut staged_mem, &staged, ExecMode::Full);
        assert_eq!(staged_mem.read(out2), expected.as_slice());

        // Staging coalesces the global loads...
        assert!(
            staged_stats.totals.load_transactions < direct_stats.totals.load_transactions,
            "staged {} vs direct {}",
            staged_stats.totals.load_transactions,
            direct_stats.totals.load_transactions
        );
        // ...but declares shared memory and pays shared traffic (the
        // paper's stated shortcomings).
        assert!(staged_stats.config.shared_words > 0);
        assert!(staged_stats.totals.shared_insts > 0.0);
    }

    #[test]
    fn peeks_address_the_same_words_as_a_run_and_lane_by_lane() {
        // `peek(1)` is served to whole warps (one progression); the
        // peeks under the data-dependent branch reach holed lane masks
        // and are mapped lane by lane. Both must read the interpreter's
        // words under every input layout.
        let src = r#"pipeline P() {
            actor M(pop 4, push 1) {
                a = peek(1);
                if (peek(0) > 0.0) { b = peek(3); } else { b = peek(2); }
                x = pop(); y = pop(); z = pop(); w = pop();
                push(a + 2.0 * b + 4.0 * x + y - z + w);
            }
        }"#;
        let program = parse_program(src).unwrap();
        let input: Vec<f32> = (0..1200).map(|i| ((i * 37) % 101) as f32 - 50.0).collect();
        let expected = Interpreter::new(&program).run(&input).unwrap();
        let device = DeviceSpec::tesla_c2050();
        for (layout, stage) in [
            (Layout::RowMajor, false),
            (Layout::Transposed, false),
            (Layout::RowMajor, true),
        ] {
            let mut mem = GlobalMem::new();
            let in_buf = match layout {
                Layout::RowMajor => mem.alloc_from(&input),
                Layout::Transposed => mem.alloc_from(restructure(&input, 4)),
            };
            let out_buf = mem.alloc(input.len() / 4);
            let k = MapKernel {
                in_layout: layout,
                stage_window: stage,
                block_dim: 128,
                ..kernel(
                    "peeks",
                    body(&program.actors[0].work.body, &bindings(&[]), None, &[]),
                    input.len() / 4,
                    4,
                    1,
                    in_buf,
                    out_buf,
                )
            };
            launch(&device, &mut mem, &k, ExecMode::Full);
            assert_eq!(mem.read(out_buf), expected, "{layout:?}, staged {stage}");
        }
    }

    /// `peek(i - 1)` over a parallelized loop: unit 0 peeks offset -1,
    /// the first lane of an otherwise valid ascending run.
    fn negative_peek_kernel(mem: &mut GlobalMem, stage: bool) -> MapKernel {
        let src = r#"pipeline P(N) {
            actor A(pop N, push N, peek N) {
                for i in 0..N { push(peek(i - 1)); }
            }
        }"#;
        let program = parse_program(src).unwrap();
        let Stmt::For {
            var, body: stmts, ..
        } = &program.actors[0].work.body[0]
        else {
            panic!("expected for");
        };
        let n = 64usize;
        let in_buf = mem.alloc(n);
        let out_buf = mem.alloc(n);
        let binds = bindings(&[("N", n as i64)]);
        let k = kernel(
            "neg",
            body(stmts, &binds, Some(var), &[]),
            n,
            1,
            1,
            in_buf,
            out_buf,
        );
        MapKernel {
            stage_window: stage,
            window_pop: (!stage).then_some(n),
            ..k
        }
    }

    #[test]
    #[should_panic(expected = "map peek at -1 outside the input")]
    fn negative_window_peek_is_reported_not_wrapped() {
        let mut mem = GlobalMem::new();
        let k = negative_peek_kernel(&mut mem, false);
        launch(&DeviceSpec::tesla_c2050(), &mut mem, &k, ExecMode::Full);
    }

    #[test]
    #[should_panic(expected = "map peek at -1 outside the input")]
    fn negative_staged_peek_is_reported_not_wrapped() {
        let mut mem = GlobalMem::new();
        let k = negative_peek_kernel(&mut mem, true);
        launch(&DeviceSpec::tesla_c2050(), &mut mem, &k, ExecMode::Full);
    }

    #[test]
    fn state_arrays_are_readable() {
        let src = r#"pipeline P(N) {
            actor A(pop 1, push 1) {
                state scale[1];
                push(pop() * scale[0]);
            }
        }"#;
        let program = parse_program(src).unwrap();
        let device = DeviceSpec::tesla_c2050();
        let mut mem = GlobalMem::new();
        let in_buf = mem.alloc_from(&[1.0, 2.0, 3.0]);
        let out_buf = mem.alloc(3);
        let scale = mem.alloc_from(&[10.0]);
        let state = [("scale".to_string(), scale)];
        let binds = bindings(&[("N", 3)]);
        let k = kernel(
            "s",
            body(&program.actors[0].work.body, &binds, None, &state),
            3,
            1,
            1,
            in_buf,
            out_buf,
        );
        launch(&device, &mut mem, &k, ExecMode::Full);
        assert_eq!(mem.read(out_buf), &[10.0, 20.0, 30.0]);
    }
}
