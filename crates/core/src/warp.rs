//! Warp-batched SIMT execution of compiled bytecode — the one evaluator
//! of a [`Program`].
//!
//! A warp fetches one instruction and applies it to 32 lanes in lockstep;
//! [`eval`] reproduces that shape in software, so a dispatch is paid once
//! per opcode per warp, not once per thread per firing. Host-sequential
//! firings (opaque actors, a reduction's `post` expression) run the same
//! evaluator on a one-lane frame.
//!
//! * **Typed, untagged SoA rows.** The typing pass of
//!   [`crate::bytecode`] fixes the type of every slot and stack entry at
//!   plan time, so a [`WarpFrame`] holds plain `f32` rows, plain `i64`
//!   rows and — for booleans — one `u64` lane mask per row. Each opcode
//!   executes once as a tight loop over its rows that the compiler can
//!   vectorize; a comparison produces a mask, `&&`/`||`/`!` are single
//!   word operations, and a branch condition splits the active mask with
//!   `mask & !cond`. The operand stack is a preallocated slab per type
//!   (`max_stack` rows each, one shared depth); pushes and pops are
//!   pointer bumps.
//!
//! * **Predicate masks + a reconvergence worklist.** Divergence
//!   (per-lane branches, uneven loop trip counts) is handled by
//!   splitting the active mask: the taken lanes continue, the others are
//!   *parked* as a `(pc, mask)` fragment. The scheduler always runs the
//!   fragment with the smallest program counter and merges fragments
//!   that meet at the same pc, which for the structured control flow the
//!   compiler emits (forward `if`/`else` joins, backward loop edges) is
//!   exactly immediate-post-dominator reconvergence. Every branch opcode
//!   sits at operand-stack depth 0 (the typing pass checks it), so one
//!   shared stack serves all fragments.
//!
//! * **What stays masked.** Pure opcodes compute every lane of a row,
//!   active or not: an inactive lane holds garbage whose result is never
//!   observed, and a straight loop beats bit-scanning. Three things are
//!   observable and therefore run on active lanes only: slot stores
//!   (inactive lanes keep their values across divergent branches), `i64`
//!   `/` and `%` (a zero divisor on a predicated-off lane must not
//!   fault) and I/O (each lane's pop/push sequence is its own).
//!
//! Per-lane semantics equal the reference interpreter's
//! ([`streamir::interp::Interpreter`], the oracle the tests below compare
//! every lane against) — wrapping `i64` arithmetic, truncating
//! `f32 → i64`, non-short-circuit `&&`/`||`, numbers true when non-zero.
//! Each lane executes its own control path in program order, so the
//! per-thread access sequences observed by `gpu_sim::accounting` are
//! those of a one-thread run; only cross-lane interleaving differs, which
//! the streaming engine's counters are invariant to.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use streamir::ir::{BinOp, Intrinsic};
use streamir::value::Value;

use crate::bytecode::{Op, Program, Ty, NO_ROW};

/// Maximum lanes per warp frame (mask width) and the all-resident mask
/// of a `lanes`-wide warp: the row shape `gpu_sim` accounts.
pub use gpu_sim::mem::{full_mask, MAX_LANES};

/// Iterate the set lanes of `mask`, fast-pathing the full mask.
#[inline]
pub fn for_lanes(mask: u64, lanes: usize, mut f: impl FnMut(usize)) {
    if mask == full_mask(lanes) {
        for l in 0..lanes {
            f(l);
        }
    } else {
        gpu_sim::mem::for_each_lane(mask, f);
    }
}

/// Warp-wide stream and state I/O hooks. Each method serves one opcode
/// for every set lane of `mask` at once, letting implementations batch
/// whole lane-rows into `gpu_sim` (one accounting call per warp
/// instruction instead of one per lane). Rows are as wide as the frame;
/// lane indices are warp-relative and implementations map them to
/// threads/units themselves. Only the set lanes of an input row are
/// meaningful and only the set lanes of `out` need writing.
pub trait WarpIo {
    /// One `pop()` per set lane into `out[lane]`.
    fn pop_row(&mut self, mask: u64, out: &mut [f32]);
    /// One `peek(offsets[lane])` per set lane into `out[lane]`.
    fn peek_row(&mut self, mask: u64, offsets: &[i64], out: &mut [f32]);
    /// One `push(vals[lane])` per set lane.
    fn push_row(&mut self, mask: u64, vals: &[f32]);
    /// One state load per set lane: `array[idx[lane]]` into `out[lane]`.
    fn state_load_row(&mut self, id: u16, array: &str, mask: u64, idx: &[i64], out: &mut [f32]);
    /// One state store per set lane: `array[idx[lane]] = vals[lane]`.
    fn state_store_row(&mut self, id: u16, array: &str, mask: u64, idx: &[i64], vals: &[f32]);
}

/// A reusable warp-wide evaluation frame: typed SoA slot rows plus a
/// typed SoA operand-stack slab, `lanes` values (or one mask bit per
/// lane) wide. Obtained from a [`WarpFramePool`]; reset per warp of
/// firings by broadcasting the launch's bound slot prototype across every
/// lane.
#[derive(Debug, Default)]
pub struct WarpFrame {
    lanes: usize,
    /// Slot → row index per [`Ty`], copied from the program by `fit`.
    rows: Vec<[u16; 3]>,
    /// Slot rows, row-major per type: `f_slots[row * lanes + lane]`.
    f_slots: Vec<f32>,
    i_slots: Vec<i64>,
    /// One lane mask per boolean slot row.
    b_slots: Vec<u64>,
    /// Operand stack, depth-major per type; entry `d` lives in the slab
    /// of its (statically known) type.
    f_stack: Vec<f32>,
    i_stack: Vec<i64>,
    b_stack: Vec<u64>,
    /// Operand-stack depth in rows.
    sp: usize,
    /// Kernel-owned staging space that rides along with the pooled frame
    /// (the fused-reduction template keeps its shared pop windows here).
    pub aux: Vec<f32>,
}

impl WarpFrame {
    /// Size the frame for `prog` at `lanes` lanes so evaluation never
    /// reallocates. Must precede [`WarpFrame::reset`].
    pub fn fit(&mut self, prog: &Program, lanes: usize) {
        assert!(0 < lanes && lanes <= MAX_LANES, "warp width {lanes}");
        self.lanes = lanes;
        self.rows.clear();
        self.rows.extend_from_slice(prog.rows());
        let [nf, ni, nb] = prog.n_rows().map(usize::from);
        self.f_slots.resize(nf * lanes, 0.0);
        self.i_slots.resize(ni * lanes, 0);
        self.b_slots.resize(nb, 0);
        let depth = prog.max_stack();
        self.f_stack.resize(depth * lanes, 0.0);
        self.i_stack.resize(depth * lanes, 0);
        self.b_stack.resize(depth, 0);
        self.sp = 0;
    }

    /// Prepare for one warp of firings: every lane of a slot's row of the
    /// prototype value's type becomes that value, its other rows zero,
    /// and the operand stack empties.
    pub fn reset(&mut self, proto: &[Value]) {
        debug_assert_eq!(proto.len(), self.rows.len(), "fit() before reset()");
        let lanes = self.lanes;
        for (v, &[rf, ri, rb]) in proto.iter().zip(&self.rows) {
            let (f, i, b) = match *v {
                Value::F32(x) => (x, 0, false),
                Value::I64(i) => (0.0, i, false),
                Value::Bool(b) => (0.0, 0, b),
            };
            if rf != NO_ROW {
                self.f_slots[rf as usize * lanes..][..lanes].fill(f);
            }
            if ri != NO_ROW {
                self.i_slots[ri as usize * lanes..][..lanes].fill(i);
            }
            if rb != NO_ROW {
                self.b_slots[rb as usize] = if b { u64::MAX } else { 0 };
            }
        }
        self.sp = 0;
    }

    /// Lane count this frame was fitted for.
    #[inline]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Start of `slot`'s row of type `ty` in that type's slot slab.
    #[inline]
    fn slot_base(&self, slot: u16, ty: Ty) -> usize {
        let row = self.rows[slot as usize][ty as usize];
        assert!(row != NO_ROW, "slot {slot} holds no {ty:?}");
        row as usize * self.lanes
    }

    /// The `i64` row of a slot, for seeding an integer preset (loop
    /// variable) per lane after a reset.
    ///
    /// # Panics
    ///
    /// Panics if the program never holds an `i64` in `slot`.
    #[inline]
    pub fn i64_row_mut(&mut self, slot: u16) -> &mut [i64] {
        let base = self.slot_base(slot, Ty::I64);
        &mut self.i_slots[base..base + self.lanes]
    }

    /// The `f32` row of a slot, for seeding a float preset (accumulator)
    /// per lane after a reset.
    ///
    /// # Panics
    ///
    /// Panics if the program never holds an `f32` in `slot`.
    #[inline]
    pub fn f32_row_mut(&mut self, slot: u16) -> &mut [f32] {
        let base = self.slot_base(slot, Ty::F32);
        &mut self.f_slots[base..base + self.lanes]
    }

    /// Take the single `f32` result row of an expression program: asserts
    /// the stack holds exactly one row and empties it.
    pub fn take_value_row(&mut self) -> &[f32] {
        assert_eq!(self.sp, 1, "expression leaves one value row");
        self.sp = 0;
        &self.f_stack[..self.lanes]
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

/// Row `d` of a depth- or row-major slab.
macro_rules! row {
    ($slab:expr, $d:expr, $lanes:expr) => {
        $slab[$d * $lanes..($d + 1) * $lanes]
    };
}

/// The two top stack rows `(below, top)` of one slab, for binary
/// operators: the result overwrites `below`.
#[inline]
fn top2<T>(slab: &mut [T], sp: usize, lanes: usize) -> (&mut [T], &[T]) {
    let (below, top) = slab[(sp - 2) * lanes..sp * lanes].split_at_mut(lanes);
    (below, top)
}

/// Lane mask of `f(a[l], b[l])`.
#[inline]
fn mask_of<T: Copy>(a: &[T], b: &[T], f: impl Fn(T, T) -> bool) -> u64 {
    let mut m = 0u64;
    for (l, (x, y)) in a.iter().zip(b).enumerate() {
        m |= (f(*x, *y) as u64) << l;
    }
    m
}

/// Lane mask of the comparison `a[l] op b[l]`.
#[inline]
fn compare_rows<T: Copy + PartialOrd>(op: BinOp, a: &[T], b: &[T]) -> u64 {
    match op {
        BinOp::Lt => mask_of(a, b, |x, y| x < y),
        BinOp::Le => mask_of(a, b, |x, y| x <= y),
        BinOp::Gt => mask_of(a, b, |x, y| x > y),
        BinOp::Ge => mask_of(a, b, |x, y| x >= y),
        BinOp::Eq => mask_of(a, b, |x, y| x == y),
        BinOp::Ne => mask_of(a, b, |x, y| x != y),
        _ => unreachable!("typed as arithmetic or Bool"),
    }
}

/// `a[l] = f(a[l], b[l])` on every lane.
#[inline]
fn zip_rows<T: Copy>(a: &mut [T], b: &[T], f: impl Fn(T, T) -> T) {
    for (x, y) in a.iter_mut().zip(b) {
        *x = f(*x, *y);
    }
}

/// Result `r` of a commutative `f32` operator applied to `(x, _)`, with
/// the NaN rule pinned: a NaN `x` answers itself (quieted). When both
/// operands are NaN the hardware returns the first one's payload, and the
/// compiler is free to swap the operands of `+` and `*` in a vectorised
/// loop, which would let the second one's sign through; the interpreter's
/// scalar `x op y` keeps the first.
#[inline]
fn first_nan(x: f32, r: f32) -> f32 {
    if x.is_nan() {
        f32::from_bits(x.to_bits() | 0x0040_0000)
    } else {
        r
    }
}

/// `dst[l] = src[l]` on the lanes of `mask`.
#[inline]
fn store_masked<T: Copy>(mask: u64, dst: &mut [T], src: &[T]) {
    if mask == full_mask(dst.len()) {
        dst.copy_from_slice(src);
    } else {
        for_lanes(mask, dst.len(), |l| dst[l] = src[l]);
    }
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

/// Execute a compiled body warp-wide: one dispatch per opcode, one typed
/// row loop per dispatch. `init_mask` selects the resident lanes (a
/// ragged final warp simply passes fewer bits). The frame must have been
/// [`WarpFrame::fit`] for `prog` and [`WarpFrame::reset`] with the bound
/// prototype, preset rows seeded per lane.
///
/// Infallible (see [`crate::bytecode`]); an integer division by zero
/// panics on the faulting lane (inactive lanes are never divided, so
/// predicated-off garbage cannot fault).
pub fn eval(prog: &Program, wf: &mut WarpFrame, init_mask: u64, io: &mut dyn WarpIo) {
    let ops = prog.ops();
    let n_ops = ops.len() as u32;
    let lanes = wf.lanes;
    debug_assert!(lanes > 0, "fit() before eval()");
    debug_assert_eq!(init_mask & !full_mask(lanes), 0, "mask exceeds lanes");
    if init_mask == 0 {
        return;
    }
    let full = full_mask(lanes);
    let slot_row = |rows: &[[u16; 3]], s: u16, ty: Ty| rows[s as usize][ty as usize] as usize;
    let mut sp = wf.sp;
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
            debug_assert_eq!(sp, 0, "operand stack empty at fragment switch");
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
            debug_assert_eq!(sp, 0, "operand stack empty at fragment retire");
            let f = take_min(&mut pending);
            pc = f.pc;
            mask = f.mask;
            next_wait = min_pc(&pending);
            continue;
        }
        let ty = prog.ty_at(pc as usize);
        match ops[pc as usize] {
            Op::ConstF(x) => {
                row!(wf.f_stack, sp, lanes).fill(x);
                sp += 1;
            }
            Op::ConstI(i) => {
                row!(wf.i_stack, sp, lanes).fill(i);
                sp += 1;
            }
            Op::ConstB(b) => {
                wf.b_stack[sp] = if b { u64::MAX } else { 0 };
                sp += 1;
            }
            Op::Load(s) => {
                let r = slot_row(&wf.rows, s, ty);
                match ty {
                    Ty::F32 => {
                        row!(wf.f_stack, sp, lanes).copy_from_slice(&row!(wf.f_slots, r, lanes))
                    }
                    Ty::I64 => {
                        row!(wf.i_stack, sp, lanes).copy_from_slice(&row!(wf.i_slots, r, lanes))
                    }
                    Ty::Bool => wf.b_stack[sp] = wf.b_slots[r],
                }
                sp += 1;
            }
            Op::Store(s) => {
                // Masked: inactive lanes keep their slot values across
                // divergent branches.
                sp -= 1;
                let r = slot_row(&wf.rows, s, ty);
                match ty {
                    Ty::F32 => store_masked(
                        mask,
                        &mut row!(wf.f_slots, r, lanes),
                        &row!(wf.f_stack, sp, lanes),
                    ),
                    Ty::I64 => store_masked(
                        mask,
                        &mut row!(wf.i_slots, r, lanes),
                        &row!(wf.i_stack, sp, lanes),
                    ),
                    Ty::Bool => {
                        wf.b_slots[r] = (wf.b_slots[r] & !mask) | (wf.b_stack[sp] & mask);
                    }
                }
            }
            Op::Pop => {
                io.pop_row(mask, &mut row!(wf.f_stack, sp, lanes));
                sp += 1;
            }
            Op::Peek => io.peek_row(
                mask,
                &row!(wf.i_stack, sp - 1, lanes),
                &mut row!(wf.f_stack, sp - 1, lanes),
            ),
            Op::StateLoad(id) => io.state_load_row(
                id,
                &prog.state_names()[id as usize],
                mask,
                &row!(wf.i_stack, sp - 1, lanes),
                &mut row!(wf.f_stack, sp - 1, lanes),
            ),
            Op::StateStore(id) => {
                sp -= 2;
                io.state_store_row(
                    id,
                    &prog.state_names()[id as usize],
                    mask,
                    &row!(wf.i_stack, sp, lanes),
                    &row!(wf.f_stack, sp + 1, lanes),
                );
            }
            Op::PushOut => {
                sp -= 1;
                io.push_row(mask, &row!(wf.f_stack, sp, lanes));
            }
            Op::Bin(op) => {
                match ty {
                    Ty::F32 => {
                        let (a, b) = top2(&mut wf.f_stack, sp, lanes);
                        let cmp = &mut wf.b_stack[sp - 2];
                        match op {
                            BinOp::Add => zip_rows(a, b, |x, y| first_nan(x, x + y)),
                            BinOp::Sub => zip_rows(a, b, |x, y| x - y),
                            BinOp::Mul => zip_rows(a, b, |x, y| first_nan(x, x * y)),
                            BinOp::Div => zip_rows(a, b, |x, y| x / y),
                            BinOp::Rem => zip_rows(a, b, |x, y| x % y),
                            _ => *cmp = compare_rows(op, a, b),
                        }
                    }
                    Ty::I64 => {
                        let (a, b) = top2(&mut wf.i_stack, sp, lanes);
                        let cmp = &mut wf.b_stack[sp - 2];
                        match op {
                            BinOp::Add => zip_rows(a, b, i64::wrapping_add),
                            BinOp::Sub => zip_rows(a, b, i64::wrapping_sub),
                            BinOp::Mul => zip_rows(a, b, i64::wrapping_mul),
                            // Masked: a zero divisor faults, and an
                            // inactive lane may hold one.
                            BinOp::Div => for_lanes(mask, lanes, |l| {
                                assert!(b[l] != 0, "validated body: integer division by zero");
                                a[l] = a[l].wrapping_div(b[l]);
                            }),
                            BinOp::Rem => for_lanes(mask, lanes, |l| {
                                assert!(b[l] != 0, "validated body: integer remainder by zero");
                                a[l] = a[l].wrapping_rem(b[l]);
                            }),
                            _ => *cmp = compare_rows(op, a, b),
                        }
                    }
                    Ty::Bool => match op {
                        BinOp::And => wf.b_stack[sp - 2] &= wf.b_stack[sp - 1],
                        BinOp::Or => wf.b_stack[sp - 2] |= wf.b_stack[sp - 1],
                        _ => unreachable!("typed as a number"),
                    },
                }
                sp -= 1;
            }
            Op::Neg => match ty {
                Ty::F32 => row!(wf.f_stack, sp - 1, lanes)
                    .iter_mut()
                    .for_each(|x| *x = -*x),
                Ty::I64 => row!(wf.i_stack, sp - 1, lanes)
                    .iter_mut()
                    .for_each(|x| *x = x.wrapping_neg()),
                Ty::Bool => unreachable!("typed as a number"),
            },
            Op::Not => wf.b_stack[sp - 1] = !wf.b_stack[sp - 1],
            Op::Cast(to, depth) => {
                let d = sp - 1 - depth as usize;
                let f = &mut row!(wf.f_stack, d, lanes);
                let i = &mut row!(wf.i_stack, d, lanes);
                match (ty, to) {
                    (Ty::I64, Ty::F32) => f.iter_mut().zip(&*i).for_each(|(x, n)| *x = *n as f32),
                    (Ty::F32, Ty::I64) => i.iter_mut().zip(&*f).for_each(|(n, x)| *n = *x as i64),
                    (Ty::F32, Ty::Bool) => wf.b_stack[d] = mask_of(f, f, |x, _| x != 0.0),
                    (Ty::I64, Ty::Bool) => wf.b_stack[d] = mask_of(i, i, |n, _| n != 0),
                    _ => unreachable!("typing pass emits number casts only"),
                }
            }
            Op::Call(Intrinsic::Select) => {
                sp -= 2;
                let cond = wf.b_stack[sp - 1];
                match ty {
                    Ty::F32 => select_rows(cond, &mut wf.f_stack[(sp - 1) * lanes..], lanes),
                    Ty::I64 => select_rows(cond, &mut wf.i_stack[(sp - 1) * lanes..], lanes),
                    Ty::Bool => {
                        wf.b_stack[sp - 1] = (cond & wf.b_stack[sp]) | (!cond & wf.b_stack[sp + 1])
                    }
                }
            }
            Op::Call(intr) => {
                if intr.arity() == 2 {
                    let (a, b) = top2(&mut wf.f_stack, sp, lanes);
                    match intr {
                        Intrinsic::Max => zip_rows(a, b, f32::max),
                        Intrinsic::Min => zip_rows(a, b, f32::min),
                        // A libm call per lane: worth skipping inactive ones.
                        _ => for_lanes(mask, lanes, |l| a[l] = a[l].powf(b[l])),
                    }
                    sp -= 1;
                } else {
                    let a = &mut row!(wf.f_stack, sp - 1, lanes);
                    let libm = |a: &mut [f32], f: fn(f32) -> f32| {
                        for_lanes(mask, lanes, |l| a[l] = f(a[l]));
                    };
                    match intr {
                        Intrinsic::Sqrt => a.iter_mut().for_each(|x| *x = x.sqrt()),
                        Intrinsic::Abs => a.iter_mut().for_each(|x| *x = x.abs()),
                        Intrinsic::Floor => a.iter_mut().for_each(|x| *x = x.floor()),
                        Intrinsic::Exp => libm(a, f32::exp),
                        Intrinsic::Log => libm(a, f32::ln),
                        Intrinsic::Sin => libm(a, f32::sin),
                        _ => libm(a, f32::cos),
                    }
                }
            }
            Op::Jump(t) => {
                pc = t;
                continue;
            }
            Op::JumpIfFalse(t) => {
                sp -= 1;
                let false_mask = mask & !wf.b_stack[sp];
                if false_mask == mask {
                    pc = t;
                    continue;
                }
                if false_mask != 0 {
                    debug_assert_eq!(sp, 0, "branch at operand depth 0");
                    park(&mut pending, t, false_mask);
                    next_wait = next_wait.min(t);
                    mask &= !false_mask;
                }
            }
            Op::ForInit { counter, end } => {
                sp -= 2;
                let c = slot_row(&wf.rows, counter, Ty::I64);
                let e = slot_row(&wf.rows, end, Ty::I64);
                store_masked(
                    mask,
                    &mut row!(wf.i_slots, c, lanes),
                    &row!(wf.i_stack, sp, lanes),
                );
                store_masked(
                    mask,
                    &mut row!(wf.i_slots, e, lanes),
                    &row!(wf.i_stack, sp + 1, lanes),
                );
            }
            Op::ForTest {
                counter,
                end,
                var,
                exit,
            } => {
                let cb = slot_row(&wf.rows, counter, Ty::I64) * lanes;
                let eb = slot_row(&wf.rows, end, Ty::I64) * lanes;
                let vb = slot_row(&wf.rows, var, Ty::I64) * lanes;
                let slots = &mut wf.i_slots;
                let go =
                    mask & mask_of(&slots[cb..cb + lanes], &slots[eb..eb + lanes], |c, e| c < e);
                if go == full {
                    slots.copy_within(cb..cb + lanes, vb);
                } else {
                    for_lanes(go, lanes, |l| slots[vb + l] = slots[cb + l]);
                }
                let exit_mask = mask & !go;
                if exit_mask == mask {
                    pc = exit;
                    continue;
                }
                if exit_mask != 0 {
                    debug_assert_eq!(sp, 0, "branch at operand depth 0");
                    park(&mut pending, exit, exit_mask);
                    next_wait = next_wait.min(exit);
                    mask = go;
                }
            }
            Op::ForStep { counter, head } => {
                let c = slot_row(&wf.rows, counter, Ty::I64);
                let c = &mut row!(wf.i_slots, c, lanes);
                if mask == full {
                    c.iter_mut().for_each(|c| *c = c.wrapping_add(1));
                } else {
                    for_lanes(mask, lanes, |l| c[l] = c[l].wrapping_add(1));
                }
                pc = head;
                continue;
            }
        }
        pc += 1;
    }
    wf.sp = sp;
}

/// `select` over the three rows starting at `rows`: row 0 becomes
/// `cond ? row 1 : row 2` per lane.
#[inline]
fn select_rows<T: Copy>(cond: u64, rows: &mut [T], lanes: usize) {
    let (out, arms) = rows[..3 * lanes].split_at_mut(lanes);
    let (a, b) = arms.split_at(lanes);
    for (l, x) in out.iter_mut().enumerate() {
        *x = if cond >> l & 1 != 0 { a[l] } else { b[l] };
    }
}

/// Execute a compiled *expression* warp-wide; the returned row holds each
/// active lane's `f32` result.
pub fn eval_row<'f>(
    prog: &Program,
    wf: &'f mut WarpFrame,
    mask: u64,
    io: &mut dyn WarpIo,
) -> &'f [f32] {
    eval(prog, wf, mask, io);
    wf.take_value_row()
}

/// Host-side warp I/O over plain vectors, for tests and benches that run
/// many lanes over one shared input. Each lane owns an independent
/// cursor into `input` and a preassigned output range, so lane results
/// land exactly where a one-lane run per firing would put them. State
/// arrays are shared; within a row, lanes are served in ascending lane
/// order.
///
/// Peeks here are relative to the lane's *cursor*, which moves with every
/// pop. That is not the language's rule — `peek(i)` reads item `i` of the
/// firing's window however many items the firing has popped — so the two
/// agree only on peeks before a firing's first pop. Host firings go
/// through the window-relative `HostIo`.
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
    fn pop_row(&mut self, mask: u64, out: &mut [f32]) {
        for_lanes(mask, out.len(), |l| {
            out[l] = self.input[self.cursor[l]];
            self.cursor[l] += 1;
        });
    }

    fn peek_row(&mut self, mask: u64, offsets: &[i64], out: &mut [f32]) {
        for_lanes(mask, out.len(), |l| {
            out[l] = self.input[(self.cursor[l] as i64 + offsets[l]) as usize];
        });
    }

    fn push_row(&mut self, mask: u64, vals: &[f32]) {
        for_lanes(mask, vals.len(), |l| {
            self.output[self.out_pos[l]] = vals[l];
            self.out_pos[l] += 1;
        });
    }

    fn state_load_row(&mut self, _id: u16, array: &str, mask: u64, idx: &[i64], out: &mut [f32]) {
        let arr = &self.state[array];
        for_lanes(mask, out.len(), |l| out[l] = arr[idx[l] as usize]);
    }

    fn state_store_row(&mut self, _id: u16, array: &str, mask: u64, idx: &[i64], vals: &[f32]) {
        let arr = self.state.get_mut(array).expect("bound state array");
        for_lanes(mask, idx.len(), |l| arr[idx[l] as usize] = vals[l]);
    }
}

/// One-lane I/O for host-sequential firings on a one-lane frame: the
/// firing's input `window`, the pushes of every firing so far, and state
/// arrays by program state id. Peeks are window-relative, the language's
/// rule: `peek(i)` reads `window[i]` however many items the firing has
/// popped. A default `HostIo` has no window and no state, so any pop,
/// peek or state access through it panics.
#[derive(Debug, Default)]
pub(crate) struct HostIo<'w> {
    pub window: &'w [f32],
    /// Items of `window` popped by this firing.
    pub popped: usize,
    pub output: Vec<f32>,
    pub state: Vec<Vec<f32>>,
}

impl WarpIo for HostIo<'_> {
    fn pop_row(&mut self, _: u64, out: &mut [f32]) {
        out[0] = self.window[self.popped];
        self.popped += 1;
    }

    fn peek_row(&mut self, _: u64, offsets: &[i64], out: &mut [f32]) {
        out[0] = self.window[offsets[0] as usize];
    }

    fn push_row(&mut self, _: u64, vals: &[f32]) {
        self.output.push(vals[0]);
    }

    fn state_load_row(&mut self, id: u16, _: &str, _: u64, idx: &[i64], out: &mut [f32]) {
        out[0] = self.state[id as usize][idx[0] as usize];
    }

    fn state_store_row(&mut self, id: u16, _: &str, _: u64, idx: &[i64], vals: &[f32]) {
        self.state[id as usize][idx[0] as usize] = vals[0];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{compile_body, compile_expr};
    use streamir::graph::bindings;
    use streamir::interp::Interpreter;
    use streamir::ir::Stmt;
    use streamir::parse::parse_program;

    fn body_of(src: &str) -> Vec<Stmt> {
        parse_program(src).unwrap().actors[0].work.body.clone()
    }

    /// Run the one-actor program `src` warp-wide over per-lane inputs,
    /// with the preset `lane` holding each lane's index, and assert every
    /// lane's pushes bit-identical to the reference interpreter's run of
    /// that lane's input with `lane` bound as a parameter, and every
    /// lane's pop count equal to a one-lane run of that lane alone.
    fn run_both(src: &str, lane_inputs: &[Vec<f32>], pushes_per_lane: usize) {
        let program = parse_program(src).unwrap();
        let binds = bindings(&[]);
        let body = &program.actors[0].work.body;
        let prog = compile_body(body, &binds, &[("lane", Ty::I64)]).unwrap();
        let proto = prog.bind(&binds).unwrap();
        let lane_slot = prog.slot_of("lane");
        let lanes = lane_inputs.len();

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
            for (l, lane) in wf.i64_row_mut(s).iter_mut().enumerate() {
                *lane = l as i64;
            }
        }
        eval(&prog, &mut wf, full_mask(lanes), &mut wio);

        for (l, input) in lane_inputs.iter().enumerate() {
            let want = Interpreter::new(&program)
                .bind_param("lane", l as i64)
                .run(input)
                .unwrap();
            assert_eq!(want.len(), pushes_per_lane, "lane {l}");
            let got = &wio.output[l * pushes_per_lane..][..pushes_per_lane];
            for (i, (a, b)) in want.iter().zip(got).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "lane {l} push {i}: {a} vs {b}");
            }

            // A masked-off lane must not pop: its warp cursor moves as far
            // as the same lane run alone on a one-lane frame.
            let mut one = WarpFrame::default();
            one.fit(&prog, 1);
            one.reset(&proto);
            if let Some(s) = lane_slot {
                one.i64_row_mut(s)[0] = l as i64;
            }
            let mut hio = HostIo {
                window: input,
                ..HostIo::default()
            };
            eval(&prog, &mut one, 1, &mut hio);
            assert_eq!(wio.cursor[l] - l * seg, hio.popped, "lane {l} pops");
        }
    }

    #[test]
    fn uniform_body_matches_scalar() {
        let src = r#"pipeline P() {
                actor H(pop 1, push 1) {
                    x = pop();
                    acc = 0.0;
                    for i in 0..16 { acc = acc * x + 1.0; }
                    push(acc);
                }
            }"#;
        let inputs: Vec<Vec<f32>> = (0..32).map(|l| vec![l as f32 * 0.25 - 3.0]).collect();
        run_both(src, &inputs, 1);
    }

    #[test]
    fn divergent_branches_match_scalar() {
        let src = r#"pipeline P() {
                actor D(pop 1, push 1) {
                    x = pop();
                    if (x < 0.0) { x = 0.0 - x; if (x > 2.0) { x = x * 0.5; } }
                    else { x = x * 1.5; }
                    push(x);
                }
            }"#;
        let inputs: Vec<Vec<f32>> = (0..32).map(|l| vec![l as f32 - 16.0]).collect();
        run_both(src, &inputs, 1);
    }

    #[test]
    fn uneven_trip_counts_match_scalar() {
        // Trip count depends on the lane id: lanes exit the loop at
        // different iterations and must reconverge at the exit pc.
        let src = r#"pipeline P() {
                actor U(pop 1, push 1) {
                    x = pop();
                    for i in 0..lane { x = x + i * 1.0; if (i % 2 == 0) { x = x * 1.0625; } }
                    push(x);
                }
            }"#;
        let inputs: Vec<Vec<f32>> = (0..32).map(|l| vec![l as f32 * 0.5]).collect();
        run_both(src, &inputs, 1);
    }

    #[test]
    fn pops_under_divergence_match_scalar() {
        // Divergent lanes consume different numbers of inputs.
        let src = r#"pipeline P() {
                actor V(pop 4, push 1) {
                    x = pop();
                    if (x < 8.0) { x = x + pop(); } else { x = x * 2.0; }
                    push(x);
                }
            }"#;
        let inputs: Vec<Vec<f32>> = (0..32)
            .map(|l| vec![l as f32, 100.0, 200.0, 300.0])
            .collect();
        run_both(src, &inputs, 1);
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
    fn inactive_lanes_never_fault_integer_division() {
        // Every third lane holds a zero divisor and is predicated off
        // around the `/` and `%`; its rows still carry the 0.
        let src = r#"pipeline P() {
                actor D(pop 1, push 1) {
                    x = pop();
                    d = lane % 3;
                    q = 0;
                    if (d != 0) { q = 100 / d + 100 % d; }
                    push(x + q);
                }
            }"#;
        let inputs: Vec<Vec<f32>> = (0..32).map(|l| vec![l as f32]).collect();
        run_both(src, &inputs, 1);

        // A lane outside the initial mask (lane 0, whose `lane` is 0)
        // never divides either.
        let body = body_of(
            r#"pipeline P() {
                actor D(pop 1, push 1) { push(pop() + (7 / lane + 7 % lane)); }
            }"#,
        );
        let binds = bindings(&[]);
        let prog = compile_body(&body, &binds, &[("lane", Ty::I64)]).unwrap();
        let lanes = 8;
        let mut wio = VecWarpIo {
            input: vec![0.5; lanes],
            cursor: (0..lanes).collect(),
            output: vec![-1.0; lanes],
            out_pos: (0..lanes).collect(),
            ..Default::default()
        };
        let mut wf = WarpFrame::default();
        wf.fit(&prog, lanes);
        wf.reset(&prog.bind(&binds).unwrap());
        for (l, lane) in wf
            .i64_row_mut(prog.slot_of("lane").unwrap())
            .iter_mut()
            .enumerate()
        {
            *lane = l as i64;
        }
        eval(&prog, &mut wf, full_mask(lanes) & !1, &mut wio);
        assert_eq!(wio.output[0], -1.0);
        for l in 1..lanes {
            assert_eq!(wio.output[l], 0.5 + (7 / l + 7 % l) as f32, "lane {l}");
        }
    }

    #[test]
    fn nan_operands_keep_their_order() {
        // An operator on two NaNs answers the first operand's payload, as
        // the interpreter's scalar arithmetic does; an optimised build must
        // not swap the operands of the commutative ones.
        let src = r#"pipeline P() {
                actor N(pop 2, push 8) {
                    x = pop();
                    y = pop();
                    push(x * y);
                    push(y * x);
                    push(x + y);
                    push(y + x);
                    push(x - y);
                    push(x / y);
                    push(max(x, y));
                    push(min(y, x));
                }
            }"#;
        let nans = [0x7fc0_0000u32, 0xffc0_0000, 0x7fc0_1234, 0xffc0_4321].map(f32::from_bits);
        let inputs: Vec<Vec<f32>> = (0..32)
            .map(|l| match l % 3 {
                0 => vec![nans[l % 4], nans[(l / 4) % 4]],
                1 => vec![nans[l % 4], l as f32],
                _ => vec![l as f32, nans[l % 4]],
            })
            .collect();
        run_both(src, &inputs, 8);
    }

    #[test]
    fn wrapping_integer_semantics_preserved() {
        let src = r#"pipeline P() {
                actor W(pop 1, push 1) {
                    k = 9223372036854775807;
                    k = k + 1;
                    x = pop();
                    push(select(k < 0, x, 0.0 - x));
                }
            }"#;
        let inputs: Vec<Vec<f32>> = (0..8).map(|l| vec![l as f32]).collect();
        run_both(src, &inputs, 1);
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
        let prog = compile_body(&body, &binds, &[("lane", Ty::I64)]).unwrap();
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
        for (l, lane) in wf.i64_row_mut(lane_slot).iter_mut().enumerate() {
            *lane = l as i64;
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
        let prog = compile_expr(&e, &binds, &[("acc", Ty::F32)]).unwrap();
        let slot = prog.slot_of("acc").unwrap();
        let proto = prog.bind(&binds).unwrap();
        let lanes = 8;
        let mut wf = WarpFrame::default();
        wf.fit(&prog, lanes);
        wf.reset(&proto);
        for (l, acc) in wf.f32_row_mut(slot).iter_mut().enumerate() {
            *acc = l as f32 * 2.0;
        }
        let mut io = VecWarpIo::default();
        let out = eval_row(&prog, &mut wf, full_mask(lanes), &mut io);
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
