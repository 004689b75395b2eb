//! Warp-batched SIMT execution of compiled bytecode.
//!
//! The scalar evaluator in [`crate::bytecode`] dispatches every opcode
//! once *per thread per firing*; after PR 3 that dispatch loop became the
//! dominant cost of figure-scale sweeps. Real GPU hardware does not pay
//! it: a warp fetches one instruction and applies it to 32 lanes in
//! lockstep. This module reproduces that shape in software:
//!
//! * **SoA warp frames.** A [`WarpFrame`] holds one *row* per register
//!   slot and per operand-stack depth — `lanes` consecutive [`Value`]s,
//!   lane-indexed — so each opcode executes once and loops over a
//!   resident-lane bitmask. The operand stack is a preallocated slab
//!   (`max_stack × lanes`); pushes and pops are pointer bumps, never
//!   `Vec` traffic.
//!
//! * **Predicate masks + a reconvergence worklist.** Divergence
//!   (per-lane branches, uneven loop trip counts) is handled by
//!   splitting the active mask: the taken lanes continue, the others are
//!   *parked* as a `(pc, mask)` fragment. The scheduler always runs the
//!   fragment with the smallest program counter and merges fragments
//!   that meet at the same pc, which for the structured control flow the
//!   compiler emits (forward `if`/`else` joins, backward loop edges) is
//!   exactly immediate-post-dominator reconvergence. The compiler emits
//!   every branch opcode at operand-stack depth 0 (statements have net
//!   zero stack effect and `JumpIfFalse` pops its own condition), so one
//!   shared SoA stack serves all fragments; the scheduler asserts the
//!   stack is empty at every suspend and merge point.
//!
//! * **Masked lane loops.** An opcode only ever evaluates *active*
//!   lanes: inactive lanes may hold garbage whose evaluation could fault
//!   (integer division by zero, boolean coercion of a float), exactly as
//!   inactive hardware lanes are predicated off. A full-mask fast path
//!   iterates `0..lanes` without bit scanning.
//!
//! Per-lane semantics are *identical* to the scalar evaluator — wrapping
//! `i64` arithmetic, non-short-circuit `&&`/`||`, variant-preserving
//! `select` — because both paths share the same `bin`/`call` kernels.
//! Each lane executes its own control path in program order, so the
//! per-thread access sequences observed by `gpu_sim::accounting` are
//! unchanged; only cross-lane interleaving differs, which the streaming
//! engine's counters are invariant to. The scalar evaluator is the
//! in-crate differential reference (see the tests below); the oracle for
//! both is [`streamir::interp::Interpreter`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use streamir::ir::BinOp;
use streamir::value::Value;

use crate::bytecode::{as_f32, as_i64, bin, call, Op, Program};

/// Maximum lanes per warp frame (mask width).
pub const MAX_LANES: usize = 64;

/// All-resident mask for a `lanes`-wide warp.
#[inline]
pub fn full_mask(lanes: usize) -> u64 {
    debug_assert!(0 < lanes && lanes <= MAX_LANES);
    if lanes >= 64 {
        u64::MAX
    } else {
        (1u64 << lanes) - 1
    }
}

/// Iterate the set lanes of `mask`, fast-pathing the full mask.
#[inline]
pub fn for_lanes(mask: u64, lanes: usize, mut f: impl FnMut(usize)) {
    if mask == full_mask(lanes) {
        for l in 0..lanes {
            f(l);
        }
    } else {
        let mut m = mask;
        while m != 0 {
            let l = m.trailing_zeros() as usize;
            m &= m - 1;
            f(l);
        }
    }
}

/// Warp-wide I/O hooks: the row-granular counterpart of
/// [`crate::bytecode::IrIo`]. Each method serves one opcode for every set
/// lane of `mask` at once, letting implementations batch whole lane-rows
/// into `gpu_sim` (one accounting call per warp instruction instead of
/// one per lane). Lane indices are warp-relative; implementations map
/// them to threads/units themselves.
pub trait WarpIo {
    /// One `pop()` per set lane; write `Value::F32` results into
    /// `out[lane]`.
    fn pop_row(&mut self, mask: u64, out: &mut [Value]);
    /// In place: `row[lane]` holds the peek offset (integral) on entry
    /// and must hold the peeked `Value::F32` on exit.
    fn peek_row(&mut self, mask: u64, row: &mut [Value]);
    /// One `push(v)` per set lane, `vals[lane]` being the value.
    fn push_row(&mut self, mask: u64, vals: &[Value]);
    /// In place: `row[lane]` holds the state index on entry, the loaded
    /// `Value::F32` on exit.
    fn state_load_row(&mut self, id: u16, array: &str, mask: u64, row: &mut [Value]);
    /// One state store per set lane (`idx[lane]`, `vals[lane]`).
    fn state_store_row(&mut self, id: u16, array: &str, mask: u64, idx: &[Value], vals: &[Value]);
}

/// A reusable warp-wide evaluation frame: SoA slot rows plus an SoA
/// operand-stack slab, both `lanes` values wide. Obtained from a
/// [`WarpFramePool`]; reset per warp of firings by broadcasting the
/// launch's bound slot prototype across every lane.
#[derive(Debug, Default)]
pub struct WarpFrame {
    lanes: usize,
    n_slots: usize,
    /// Slot-major rows: `slots[slot * lanes + lane]`.
    slots: Vec<Value>,
    /// Depth-major rows: `stack[depth * lanes + lane]`.
    stack: Vec<Value>,
    /// Operand-stack depth in rows.
    sp: usize,
}

impl WarpFrame {
    /// Size the frame for `prog` at `lanes` lanes so evaluation never
    /// reallocates. Must precede [`WarpFrame::reset`].
    pub fn fit(&mut self, prog: &Program, lanes: usize) {
        assert!(0 < lanes && lanes <= MAX_LANES, "warp width {lanes}");
        self.lanes = lanes;
        self.n_slots = prog.n_slots();
        self.slots.clear();
        self.slots.resize(prog.n_slots() * lanes, Value::F32(0.0));
        self.stack.clear();
        self.stack.resize(prog.max_stack() * lanes, Value::F32(0.0));
        self.sp = 0;
    }

    /// Prepare for one warp of firings: every lane's slots become a copy
    /// of `proto`, the operand stack empties.
    pub fn reset(&mut self, proto: &[Value]) {
        debug_assert_eq!(proto.len(), self.n_slots, "fit() before reset()");
        for (s, v) in proto.iter().enumerate() {
            self.slots[s * self.lanes..(s + 1) * self.lanes].fill(*v);
        }
        self.sp = 0;
    }

    /// Lane count this frame was fitted for.
    #[inline]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Write one lane of a preset slot (loop variable, accumulator).
    #[inline]
    pub fn set_lane(&mut self, slot: u16, lane: usize, v: Value) {
        self.slots[slot as usize * self.lanes + lane] = v;
    }

    /// Read one lane of a slot back.
    #[inline]
    pub fn get_lane(&self, slot: u16, lane: usize) -> Value {
        self.slots[slot as usize * self.lanes + lane]
    }

    /// Push a fresh stack row and return it for writing.
    #[inline]
    fn push_row(&mut self) -> &mut [Value] {
        let base = self.sp * self.lanes;
        self.sp += 1;
        &mut self.stack[base..base + self.lanes]
    }

    /// Pop the top row and return it (still valid until the next push).
    #[inline]
    fn pop_row(&mut self) -> &[Value] {
        self.sp -= 1;
        let base = self.sp * self.lanes;
        &self.stack[base..base + self.lanes]
    }

    /// The top row, mutable in place.
    #[inline]
    fn top_row_mut(&mut self) -> &mut [Value] {
        let base = (self.sp - 1) * self.lanes;
        &mut self.stack[base..base + self.lanes]
    }

    /// The two top rows `(below, top)`, for binary operators.
    #[inline]
    fn top2_mut(&mut self) -> (&mut [Value], &mut [Value]) {
        let mid = (self.sp - 1) * self.lanes;
        let lo = mid - self.lanes;
        let (a, b) = self.stack.split_at_mut(mid);
        (&mut a[lo..], &mut b[..self.lanes])
    }

    /// Take the single result row of an expression program: asserts the
    /// stack holds exactly one row and empties it.
    pub fn take_value_row(&mut self) -> &[Value] {
        assert_eq!(self.sp, 1, "expression leaves one value row");
        self.sp = 0;
        &self.stack[..self.lanes]
    }
}

/// A shared pool of [`WarpFrame`]s, mirroring
/// `gpu_sim::accounting::ScratchPool`: workers `take` a frame per block
/// and `give` it back, so steady-state execution allocates nothing. Locks
/// recover from poisoning: frame contents are reset before every use, so
/// a panicking worker cannot leave a frame in a state the next taker
/// could observe.
#[derive(Debug, Default)]
pub struct WarpFramePool {
    inner: Mutex<Vec<WarpFrame>>,
    created: AtomicUsize,
    reused: AtomicUsize,
}

impl WarpFramePool {
    /// An empty pool.
    pub fn new() -> WarpFramePool {
        WarpFramePool::default()
    }

    fn lock_inner(&self) -> MutexGuard<'_, Vec<WarpFrame>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Take a frame (recycled when available).
    pub fn take(&self) -> WarpFrame {
        let recycled = self.lock_inner().pop();
        match recycled {
            Some(f) => {
                self.reused.fetch_add(1, Ordering::Relaxed);
                f
            }
            None => {
                self.created.fetch_add(1, Ordering::Relaxed);
                WarpFrame::default()
            }
        }
    }

    /// Return a frame for reuse.
    pub fn give(&self, frame: WarpFrame) {
        self.lock_inner().push(frame);
    }

    /// Frames allocated fresh over the pool's lifetime.
    pub fn created(&self) -> usize {
        self.created.load(Ordering::Relaxed)
    }

    /// Takes satisfied by recycling.
    pub fn reused(&self) -> usize {
        self.reused.load(Ordering::Relaxed)
    }

    /// Frames currently idle in the pool.
    pub fn idle(&self) -> usize {
        self.lock_inner().len()
    }
}

/// One `Op::Bin` over a whole row: `a[l] = a[l] op b[l]` for active
/// lanes.
///
/// The generic path calls [`bin`] per lane, which re-dispatches the
/// operator *and* both operand variants on every lane — exactly the
/// per-firing cost warp batching exists to amortize. Full-mask rows
/// whose operands are uniformly `f32` (by far the common case in
/// numeric bodies) instead match the operator once per row and run a
/// tight untag/compute/retag loop. The arithmetic inside is the same
/// `f32` expression `bin` evaluates, so results stay per-lane
/// bit-identical to the scalar evaluator.
#[inline]
fn bin_row(op: BinOp, mask: u64, lanes: usize, a: &mut [Value], b: &[Value]) {
    let (a, b) = (&mut a[..lanes], &b[..lanes]);
    let uniform_f32 = mask == full_mask(lanes)
        && a.iter().all(|v| matches!(v, Value::F32(_)))
        && b.iter().all(|v| matches!(v, Value::F32(_)));
    if uniform_f32 {
        #[inline(always)]
        fn f(v: Value) -> f32 {
            match v {
                Value::F32(x) => x,
                _ => unreachable!("row checked uniform f32"),
            }
        }
        macro_rules! arith {
            ($w:expr) => {
                for l in 0..lanes {
                    a[l] = Value::F32($w(f(a[l]), f(b[l])));
                }
            };
        }
        macro_rules! cmp {
            ($w:expr) => {
                for l in 0..lanes {
                    a[l] = Value::Bool($w(f(a[l]), f(b[l])));
                }
            };
        }
        match op {
            BinOp::Add => arith!(|x, y| x + y),
            BinOp::Sub => arith!(|x, y| x - y),
            BinOp::Mul => arith!(|x, y| x * y),
            BinOp::Div => arith!(|x, y| x / y),
            BinOp::Rem => arith!(|x: f32, y: f32| x % y),
            BinOp::Lt => cmp!(|x, y| x < y),
            BinOp::Le => cmp!(|x, y| x <= y),
            BinOp::Gt => cmp!(|x, y| x > y),
            BinOp::Ge => cmp!(|x, y| x >= y),
            BinOp::Eq => cmp!(|x, y| x == y),
            BinOp::Ne => cmp!(|x, y| x != y),
            // Boolean coercion of floats is `bin`'s business.
            BinOp::And | BinOp::Or => {
                for l in 0..lanes {
                    a[l] = bin(op, a[l], b[l]);
                }
            }
        }
        return;
    }
    for_lanes(mask, lanes, |l| a[l] = bin(op, a[l], b[l]));
}

/// A suspended divergent fragment: lanes in `mask` are waiting to resume
/// at `pc`.
#[derive(Debug, Clone, Copy)]
struct Frag {
    pc: u32,
    mask: u64,
}

/// Park lanes at `pc`, merging with a fragment already waiting there
/// (lanes of one loop exiting at different iterations accumulate into a
/// single fragment at the exit pc).
#[inline]
fn park(pending: &mut Vec<Frag>, pc: u32, mask: u64) {
    for f in pending.iter_mut() {
        if f.pc == pc {
            f.mask |= mask;
            return;
        }
    }
    pending.push(Frag { pc, mask });
}

/// Remove and return the fragment with the smallest pc.
#[inline]
fn take_min(pending: &mut Vec<Frag>) -> Frag {
    let mut mi = 0;
    for i in 1..pending.len() {
        if pending[i].pc < pending[mi].pc {
            mi = i;
        }
    }
    pending.swap_remove(mi)
}

#[inline]
fn min_pc(pending: &[Frag]) -> u32 {
    pending.iter().map(|f| f.pc).min().unwrap_or(u32::MAX)
}

/// Execute a compiled body warp-wide: one dispatch per opcode, a masked
/// lane loop per dispatch. `init_mask` selects the resident lanes (a
/// ragged final warp simply passes fewer bits). The frame must have been
/// [`WarpFrame::fit`] for `prog` and [`WarpFrame::reset`] with the bound
/// prototype, preset rows seeded per lane.
///
/// Infallible like the scalar evaluator; data-dependent faults panic on
/// the faulting lane just as they would scalar (inactive lanes are never
/// evaluated, so predicated-off garbage cannot fault).
pub fn eval(prog: &Program, wf: &mut WarpFrame, init_mask: u64, io: &mut dyn WarpIo) {
    let ops = prog.ops();
    let n_ops = ops.len() as u32;
    let lanes = wf.lanes;
    debug_assert!(lanes > 0, "fit() before eval()");
    debug_assert_eq!(init_mask & !full_mask(lanes), 0, "mask exceeds lanes");
    if init_mask == 0 {
        return;
    }
    let mut pc: u32 = 0;
    let mut mask = init_mask;
    // Suspended fragments, at most one per structured-control-flow
    // nesting level — a handful, so linear scans beat any heap.
    let mut pending: Vec<Frag> = Vec::new();
    // min pc over `pending`: the next reconvergence point. One compare
    // per straight-line op.
    let mut next_wait: u32 = u32::MAX;
    loop {
        // Fragment scheduling: the running fragment must hold the
        // minimum pc (else divergent partners could starve), and all
        // fragments meeting at one pc merge before executing it.
        while pc >= next_wait {
            debug_assert_eq!(wf.sp, 0, "operand stack empty at fragment switch");
            if pc == next_wait {
                let mut i = 0;
                while i < pending.len() {
                    if pending[i].pc == pc {
                        mask |= pending[i].mask;
                        pending.swap_remove(i);
                    } else {
                        i += 1;
                    }
                }
            } else {
                park(&mut pending, pc, mask);
                let f = take_min(&mut pending);
                pc = f.pc;
                mask = f.mask;
            }
            next_wait = min_pc(&pending);
        }
        if pc >= n_ops {
            // This fragment's lanes completed the program. Resume the
            // earliest waiter, or finish.
            if pending.is_empty() {
                break;
            }
            debug_assert_eq!(wf.sp, 0, "operand stack empty at fragment retire");
            let f = take_min(&mut pending);
            pc = f.pc;
            mask = f.mask;
            next_wait = min_pc(&pending);
            continue;
        }
        match ops[pc as usize] {
            // Constants broadcast to the whole row: writing inactive
            // lanes is harmless (their values are never read) and a
            // `fill` beats a masked loop.
            Op::ConstF(x) => wf.push_row().fill(Value::F32(x)),
            Op::ConstI(i) => wf.push_row().fill(Value::I64(i)),
            Op::ConstB(b) => wf.push_row().fill(Value::Bool(b)),
            Op::Load(s) => {
                let base = s as usize * lanes;
                let sp = wf.sp;
                wf.sp += 1;
                let (slots, stack) = (&wf.slots, &mut wf.stack);
                stack[sp * lanes..(sp + 1) * lanes].copy_from_slice(&slots[base..base + lanes]);
            }
            Op::Store(s) => {
                // Masked: inactive lanes keep their slot values across
                // divergent branches (full mask is a straight row copy).
                wf.sp -= 1;
                let sp = wf.sp;
                let base = s as usize * lanes;
                let (slots, stack) = (&mut wf.slots, &wf.stack);
                if mask == full_mask(lanes) {
                    slots[base..base + lanes].copy_from_slice(&stack[sp * lanes..(sp + 1) * lanes]);
                } else {
                    for_lanes(mask, lanes, |l| slots[base + l] = stack[sp * lanes + l]);
                }
            }
            Op::Pop => io.pop_row(mask, wf.push_row()),
            Op::Peek => io.peek_row(mask, wf.top_row_mut()),
            Op::StateLoad(id) => {
                io.state_load_row(id, &prog.state_names()[id as usize], mask, wf.top_row_mut());
            }
            Op::StateStore(id) => {
                wf.sp -= 2;
                let base = wf.sp * lanes;
                let (idx, vals) = wf.stack[base..base + 2 * lanes].split_at(lanes);
                io.state_store_row(id, &prog.state_names()[id as usize], mask, idx, vals);
            }
            Op::PushOut => io.push_row(mask, wf.pop_row()),
            Op::Bin(op) => {
                let (a, b) = wf.top2_mut();
                bin_row(op, mask, lanes, a, b);
                wf.sp -= 1;
            }
            Op::Neg => {
                let row = wf.top_row_mut();
                for_lanes(mask, lanes, |l| {
                    row[l] = match row[l] {
                        Value::I64(i) => Value::I64(i.wrapping_neg()),
                        other => Value::F32(-as_f32(other)),
                    };
                });
            }
            Op::Not => {
                let row = wf.top_row_mut();
                for_lanes(mask, lanes, |l| row[l] = Value::Bool(!row[l].as_bool()));
            }
            Op::Call(intr) => {
                let n = intr.arity();
                wf.sp -= n - 1;
                let base = (wf.sp - 1) * lanes;
                let rows = &mut wf.stack[base..base + n * lanes];
                for_lanes(mask, lanes, |l| {
                    let mut args = [Value::F32(0.0); 3];
                    for (i, a) in args.iter_mut().enumerate().take(n) {
                        *a = rows[i * lanes + l];
                    }
                    rows[l] = call(intr, &args[..n]);
                });
            }
            Op::Jump(t) => {
                pc = t;
                continue;
            }
            Op::JumpIfFalse(t) => {
                let row = wf.pop_row();
                let mut false_mask = 0u64;
                for_lanes(mask, lanes, |l| {
                    if !row[l].as_bool() {
                        false_mask |= 1 << l;
                    }
                });
                if false_mask == mask {
                    pc = t;
                    continue;
                }
                if false_mask != 0 {
                    debug_assert_eq!(wf.sp, 0, "branch at operand depth 0");
                    park(&mut pending, t, false_mask);
                    next_wait = next_wait.min(t);
                    mask &= !false_mask;
                }
            }
            Op::ForInit { counter, end } => {
                wf.sp -= 2;
                let base = wf.sp * lanes;
                let (cb, eb) = (counter as usize * lanes, end as usize * lanes);
                let (slots, stack) = (&mut wf.slots, &wf.stack);
                for_lanes(mask, lanes, |l| {
                    let hi = stack[base + lanes + l];
                    let lo = stack[base + l];
                    slots[cb + l] = Value::I64(as_i64(lo));
                    slots[eb + l] = Value::I64(as_i64(hi));
                });
            }
            Op::ForTest {
                counter,
                end,
                var,
                exit,
            } => {
                let (cb, eb, vb) = (
                    counter as usize * lanes,
                    end as usize * lanes,
                    var as usize * lanes,
                );
                let slots = &mut wf.slots;
                let mut exit_mask = 0u64;
                for_lanes(mask, lanes, |l| {
                    let c = as_i64(slots[cb + l]);
                    if c < as_i64(slots[eb + l]) {
                        slots[vb + l] = Value::I64(c);
                    } else {
                        exit_mask |= 1 << l;
                    }
                });
                if exit_mask == mask {
                    pc = exit;
                    continue;
                }
                if exit_mask != 0 {
                    debug_assert_eq!(wf.sp, 0, "branch at operand depth 0");
                    park(&mut pending, exit, exit_mask);
                    next_wait = next_wait.min(exit);
                    mask &= !exit_mask;
                }
            }
            Op::ForStep { counter, head } => {
                let cb = counter as usize * lanes;
                let slots = &mut wf.slots;
                for_lanes(mask, lanes, |l| {
                    let c = as_i64(slots[cb + l]);
                    slots[cb + l] = Value::I64(c.wrapping_add(1));
                });
                pc = head;
                continue;
            }
        }
        pc += 1;
    }
}

/// Execute a compiled *expression* warp-wide and write each active
/// lane's `f32` result into `out[lane]`.
pub fn eval_row(
    prog: &Program,
    wf: &mut WarpFrame,
    mask: u64,
    io: &mut dyn WarpIo,
    out: &mut [f32],
) {
    eval(prog, wf, mask, io);
    let lanes = wf.lanes;
    let row = wf.take_value_row();
    for_lanes(mask, lanes, |l| out[l] = as_f32(row[l]));
}

/// Host-side warp I/O over plain vectors: the row-granular counterpart of
/// [`crate::bytecode::VecIo`], used by differential tests and benches.
/// Each lane owns an independent cursor into the shared `input` and a
/// preassigned output range, so lane results land exactly where a scalar
/// per-lane run would put them. State arrays are shared; within a row,
/// lanes are served in ascending lane order.
#[derive(Debug, Default)]
pub struct VecWarpIo {
    /// Shared input words.
    pub input: Vec<f32>,
    /// Per-lane read cursor into `input` (peeks are cursor-relative).
    pub cursor: Vec<usize>,
    /// Flat output buffer; must be pre-sized.
    pub output: Vec<f32>,
    /// Per-lane next write index into `output`.
    pub out_pos: Vec<usize>,
    /// Shared state arrays.
    pub state: HashMap<String, Vec<f32>>,
}

impl WarpIo for VecWarpIo {
    fn pop_row(&mut self, mask: u64, out: &mut [Value]) {
        for_lanes(mask, out.len(), |l| {
            let v = self.input[self.cursor[l]];
            self.cursor[l] += 1;
            out[l] = Value::F32(v);
        });
    }

    fn peek_row(&mut self, mask: u64, row: &mut [Value]) {
        for_lanes(mask, row.len(), |l| {
            let off = as_i64(row[l]);
            row[l] = Value::F32(self.input[(self.cursor[l] as i64 + off) as usize]);
        });
    }

    fn push_row(&mut self, mask: u64, vals: &[Value]) {
        for_lanes(mask, vals.len(), |l| {
            self.output[self.out_pos[l]] = as_f32(vals[l]);
            self.out_pos[l] += 1;
        });
    }

    fn state_load_row(&mut self, _id: u16, array: &str, mask: u64, row: &mut [Value]) {
        let arr = &self.state[array];
        for_lanes(mask, row.len(), |l| {
            row[l] = Value::F32(arr[as_i64(row[l]) as usize]);
        });
    }

    fn state_store_row(&mut self, _id: u16, array: &str, mask: u64, idx: &[Value], vals: &[Value]) {
        let arr = self.state.get_mut(array).expect("bound state array");
        for_lanes(mask, idx.len(), |l| {
            arr[as_i64(idx[l]) as usize] = as_f32(vals[l]);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{compile_body, compile_expr, eval as scalar_eval, Frame, VecIo};
    use streamir::graph::bindings;
    use streamir::ir::Stmt;
    use streamir::parse::parse_program;

    fn body_of(src: &str) -> Vec<Stmt> {
        parse_program(src).unwrap().actors[0].work.body.clone()
    }

    /// Run `body` scalar (per lane) and warp-wide over per-lane inputs;
    /// assert bit-identical outputs and cursors.
    fn run_both(body: &[Stmt], lane_inputs: &[Vec<f32>], pushes_per_lane: usize) {
        let binds = bindings(&[]);
        let prog = compile_body(body, &binds, &["lane"]).unwrap();
        let proto = prog.bind(&binds).unwrap();
        let lane_slot = prog.slot_of("lane");
        let lanes = lane_inputs.len();

        // Scalar reference: lane-by-lane with private cursors.
        let mut want = Vec::new();
        let mut want_cursors = Vec::new();
        for (l, input) in lane_inputs.iter().enumerate() {
            let mut frame = Frame::default();
            frame.fit(&prog);
            frame.reset(&proto);
            if let Some(s) = lane_slot {
                frame.set(s, Value::I64(l as i64));
            }
            let mut io = VecIo {
                input: input.clone(),
                ..Default::default()
            };
            scalar_eval(&prog, &mut frame, &mut io);
            want.extend(io.output);
            want_cursors.push(io.cursor);
        }

        // Warp run: one shared input with per-lane segments.
        let seg = lane_inputs[0].len();
        let mut wio = VecWarpIo {
            input: lane_inputs.iter().flatten().copied().collect(),
            cursor: (0..lanes).map(|l| l * seg).collect(),
            output: vec![0.0; pushes_per_lane * lanes],
            out_pos: (0..lanes).map(|l| l * pushes_per_lane).collect(),
            ..Default::default()
        };
        let mut wf = WarpFrame::default();
        wf.fit(&prog, lanes);
        wf.reset(&proto);
        if let Some(s) = lane_slot {
            for l in 0..lanes {
                wf.set_lane(s, l, Value::I64(l as i64));
            }
        }
        eval(&prog, &mut wf, full_mask(lanes), &mut wio);

        assert_eq!(want.len(), wio.output.len());
        for (i, (a, b)) in want.iter().zip(&wio.output).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "output {i}: {a} vs {b}");
        }
        for (l, c) in wio.cursor.iter().enumerate() {
            assert_eq!(c - l * seg, want_cursors[l], "lane {l} cursor");
        }
    }

    #[test]
    fn uniform_body_matches_scalar() {
        let body = body_of(
            r#"pipeline P() {
                actor H(pop 1, push 1) {
                    x = pop();
                    acc = 0.0;
                    for i in 0..16 { acc = acc * x + 1.0; }
                    push(acc);
                }
            }"#,
        );
        let inputs: Vec<Vec<f32>> = (0..32).map(|l| vec![l as f32 * 0.25 - 3.0]).collect();
        run_both(&body, &inputs, 1);
    }

    #[test]
    fn divergent_branches_match_scalar() {
        let body = body_of(
            r#"pipeline P() {
                actor D(pop 1, push 1) {
                    x = pop();
                    if (x < 0.0) { x = 0.0 - x; if (x > 2.0) { x = x * 0.5; } }
                    else { x = x * 1.5; }
                    push(x);
                }
            }"#,
        );
        let inputs: Vec<Vec<f32>> = (0..32).map(|l| vec![l as f32 - 16.0]).collect();
        run_both(&body, &inputs, 1);
    }

    #[test]
    fn uneven_trip_counts_match_scalar() {
        // Trip count depends on the lane id: lanes exit the loop at
        // different iterations and must reconverge at the exit pc.
        let body = body_of(
            r#"pipeline P() {
                actor U(pop 1, push 1) {
                    x = pop();
                    for i in 0..lane { x = x + i * 1.0; if (i % 2 == 0) { x = x * 1.0625; } }
                    push(x);
                }
            }"#,
        );
        let inputs: Vec<Vec<f32>> = (0..32).map(|l| vec![l as f32 * 0.5]).collect();
        run_both(&body, &inputs, 1);
    }

    #[test]
    fn pops_under_divergence_match_scalar() {
        // Divergent lanes consume different numbers of inputs.
        let body = body_of(
            r#"pipeline P() {
                actor V(pop 4, push 1) {
                    x = pop();
                    if (x < 8.0) { x = x + pop(); } else { x = x * 2.0; }
                    push(x);
                }
            }"#,
        );
        let inputs: Vec<Vec<f32>> = (0..32)
            .map(|l| vec![l as f32, 100.0, 200.0, 300.0])
            .collect();
        run_both(&body, &inputs, 1);
    }

    #[test]
    fn ragged_final_warp_runs_partial_mask() {
        let body = body_of(
            r#"pipeline P() {
                actor R(pop 1, push 1) { push(pop() + 1.0); }
            }"#,
        );
        let binds = bindings(&[]);
        let prog = compile_body(&body, &binds, &[]).unwrap();
        let proto = prog.bind(&binds).unwrap();
        let lanes = 32;
        let resident = 5usize; // ragged: only 5 of 32 lanes live
        let mut wio = VecWarpIo {
            input: (0..lanes).map(|l| l as f32).collect(),
            cursor: (0..lanes).collect(),
            output: vec![-1.0; lanes],
            out_pos: (0..lanes).collect(),
            ..Default::default()
        };
        let mut wf = WarpFrame::default();
        wf.fit(&prog, lanes);
        wf.reset(&proto);
        eval(&prog, &mut wf, full_mask(resident), &mut wio);
        for l in 0..lanes {
            let want = if l < resident { l as f32 + 1.0 } else { -1.0 };
            assert_eq!(wio.output[l], want, "lane {l}");
        }
    }

    #[test]
    fn wrapping_integer_semantics_preserved() {
        let body = body_of(
            r#"pipeline P() {
                actor W(pop 1, push 1) {
                    k = 9223372036854775807;
                    k = k + 1;
                    x = pop();
                    push(select(k < 0, x, 0.0 - x));
                }
            }"#,
        );
        let inputs: Vec<Vec<f32>> = (0..8).map(|l| vec![l as f32]).collect();
        run_both(&body, &inputs, 1);
    }

    #[test]
    fn state_rows_read_and_write() {
        let body = body_of(
            r#"pipeline P() {
                actor S(pop 1, push 1) {
                    state s[64];
                    x = pop();
                    s[lane] = x * 2.0;
                    push(s[lane] + 1.0);
                }
            }"#,
        );
        let binds = bindings(&[]);
        let prog = compile_body(&body, &binds, &["lane"]).unwrap();
        let proto = prog.bind(&binds).unwrap();
        let lane_slot = prog.slot_of("lane").unwrap();
        let lanes = 16;
        let mut wio = VecWarpIo {
            input: (0..lanes).map(|l| l as f32).collect(),
            cursor: (0..lanes).collect(),
            output: vec![0.0; lanes],
            out_pos: (0..lanes).collect(),
            ..Default::default()
        };
        wio.state.insert("s".into(), vec![0.0; 64]);
        let mut wf = WarpFrame::default();
        wf.fit(&prog, lanes);
        wf.reset(&proto);
        for l in 0..lanes {
            wf.set_lane(lane_slot, l, Value::I64(l as i64));
        }
        eval(&prog, &mut wf, full_mask(lanes), &mut wio);
        for l in 0..lanes {
            assert_eq!(wio.output[l], l as f32 * 2.0 + 1.0);
            assert_eq!(wio.state["s"][l], l as f32 * 2.0);
        }
    }

    #[test]
    fn expression_rows_yield_values() {
        use streamir::ir::{BinOp, Expr};
        let e = Expr::bin(BinOp::Mul, Expr::var("acc"), Expr::Float(0.5));
        let binds = bindings(&[]);
        let prog = compile_expr(&e, &binds, &["acc"]).unwrap();
        let slot = prog.slot_of("acc").unwrap();
        let proto = prog.bind(&binds).unwrap();
        let lanes = 8;
        let mut wf = WarpFrame::default();
        wf.fit(&prog, lanes);
        wf.reset(&proto);
        for l in 0..lanes {
            wf.set_lane(slot, l, Value::F32(l as f32 * 2.0));
        }
        let mut io = VecWarpIo::default();
        let mut out = vec![0.0f32; lanes];
        eval_row(&prog, &mut wf, full_mask(lanes), &mut io, &mut out);
        for (l, v) in out.iter().enumerate() {
            assert_eq!(*v, l as f32);
        }
    }

    #[test]
    fn warp_frame_pool_recycles_and_recovers_poison() {
        let pool = WarpFramePool::new();
        let f1 = pool.take();
        pool.give(f1);
        assert_eq!(pool.idle(), 1);
        let _f2 = pool.take();
        assert_eq!(pool.created(), 1);
        assert_eq!(pool.reused(), 1);
    }
}
