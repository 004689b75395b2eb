//! Warp-batched SIMT execution of compiled bytecode — the one evaluator
//! of a [`Program`].
//!
//! A warp fetches one instruction and applies it to 32 lanes in lockstep;
//! [`eval`] reproduces that shape in software, so a dispatch is paid once
//! per instruction per warp, not once per thread per firing. Host-sequential
//! firings (opaque actors, a reduction's `post` expression) run the same
//! evaluator on a one-lane frame.
//!
//! * **Register form, typed and untagged.** [`eval`] runs a program's
//!   register form (see [`crate::bytecode`]): each instruction reads its
//!   operands where they live — a slot row, a temp row or a scalar — and
//!   writes a temp or its slot directly, so loads, literals and stores
//!   cost no row copy. A [`WarpFrame`] holds plain `f32` rows, plain
//!   `i64` rows, one scalar per uniform value and one `u64` lane-mask
//!   word per boolean. A row is a run of 32-lane parts (one for a warp)
//!   and a row op a loop over them whose body is one fixed-width
//!   operation the compiler vectorises, with one loop per operand shape
//!   (row or broadcast scalar on either side); a comparison packs each
//!   part's 32 results into its mask in the same fixed-width way. An op
//!   whose operands are all scalars runs once per warp. `&&`/`||`/`!` are single word
//!   operations, and a branch condition splits the active mask with
//!   `mask & !cond`.
//!
//! * **Predicate masks + a reconvergence worklist.** Divergence
//!   (per-lane branches, uneven loop trip counts) is handled by
//!   splitting the active mask: the taken lanes continue, the others are
//!   *parked* as a `(pc, mask)` fragment. The scheduler always runs the
//!   fragment with the smallest program counter and merges fragments
//!   that meet at the same pc, which for the structured control flow the
//!   compiler emits (forward `if`/`else` joins, backward loop edges) is
//!   exactly immediate-post-dominator reconvergence. Every branch sits
//!   between statements (the typing pass checks it), so no temp is live
//!   across one and all fragments share the temps. A branch on a uniform
//!   condition and a loop over a uniform counter and end never split:
//!   their test is one scalar comparison.
//!
//! * **What stays masked.** Pure ops compute every lane of a row, active
//!   or not: an inactive lane holds garbage whose result is never
//!   observed, and a straight loop beats bit-scanning. Three things are
//!   observable and therefore run on active lanes only: slot-row writes
//!   while some resident lanes are parked (they must keep their values
//!   across the divergent code), `i64` `/` and `%` (a zero divisor on a
//!   predicated-off lane must not fault) and I/O (each lane's pop/push
//!   sequence is its own). The libm intrinsics are masked for cost. A
//!   uniform slot is only ever written under uniform control, so its
//!   scalar needs no mask.
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

use crate::bytecode::{Dst, Opnd, Program, Reg, Ty};

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

/// Lanes per part. A row is a run of whole parts, and a row op is a loop
/// over parts whose body is one fixed-width operation on a warp's worth
/// of lanes; lanes past the frame width carry garbage nobody reads.
const P: usize = 32;
type Part<T> = [T; P];

/// The running fragment, as every row op sees it.
#[derive(Clone, Copy)]
struct Cx {
    /// Active lanes.
    mask: u64,
    /// `mask` is every resident lane: a slot row can be written whole.
    whole: bool,
}

impl Cx {
    /// The fragment's lanes of `mask`, of `init` resident ones.
    #[inline]
    fn new(mask: u64, init: u64) -> Cx {
        Cx {
            mask,
            whole: mask == init,
        }
    }

    /// The active lanes of part `p`.
    #[inline]
    fn bits(self, p: usize) -> u32 {
        (self.mask >> (P * p)) as u32
    }
}

/// An operand resolved for a row loop: the first part of its row, or
/// its scalar.
#[derive(Clone, Copy)]
enum Operand<T> {
    Row(usize),
    Splat(T),
}

impl<T: Copy> Operand<T> {
    #[inline(always)]
    fn part(self, rows: &[Part<T>], p: usize) -> Part<T> {
        match self {
            Operand::Row(at) => rows[at + p],
            Operand::Splat(v) => [v; P],
        }
    }
}

/// One number type's registers.
#[derive(Debug, Default)]
struct File<T> {
    /// Rows of `parts` parts: varying slots, temps, then the scratch row.
    rows: Vec<Part<T>>,
    /// Uniform slots, uniform temps, then the program's literals.
    sc: Vec<T>,
    scratch: u16,
    /// The frame's lanes, and parts per row.
    lanes: usize,
    parts: usize,
}

impl<T: Copy + Default> File<T> {
    fn fit(&mut self, rows: u16, lanes: usize, scalars: u16, consts: &[T]) {
        let parts = lanes.div_ceil(P);
        (self.lanes, self.parts) = (lanes, parts);
        self.rows.resize(rows as usize * parts, [T::default(); P]);
        self.sc.clear();
        self.sc.resize(scalars as usize, T::default());
        self.sc.extend_from_slice(consts);
        self.scratch = rows - 1;
    }

    /// Set a slot's home to `v` on every lane.
    fn set(&mut self, home: Opnd, v: T) {
        let parts = self.parts;
        match home {
            Opnd::Row(r) => self.rows[r as usize * parts..][..parts].fill([v; P]),
            Opnd::Sc(s) => self.sc[s as usize] = v,
        }
    }

    /// Row `r` as `lanes` values.
    #[inline]
    fn row(&self, r: u16) -> &[T] {
        &self.rows[r as usize * self.parts..][..self.parts].as_flattened()[..self.lanes]
    }

    #[inline]
    fn row_mut(&mut self, r: u16) -> &mut [T] {
        let parts = self.parts;
        &mut self.rows[r as usize * parts..][..parts].as_flattened_mut()[..self.lanes]
    }

    #[inline]
    fn operand(&self, o: Opnd) -> Operand<T> {
        match o {
            Opnd::Row(r) => Operand::Row(r as usize * self.parts),
            Opnd::Sc(s) => Operand::Splat(self.sc[s as usize]),
        }
    }

    /// Write part `p` of `d`'s row: every lane, or only the active ones of
    /// a slot row while some resident lanes are parked.
    #[inline(always)]
    fn put(&mut self, d: Dst, p: usize, v: Part<T>, cx: Cx) {
        let (r, keep) = match d {
            Dst::Temp(r) => (r, false),
            Dst::Slot(r) => (r, !cx.whole),
            Dst::Sc(_) => unreachable!("a varying value never lands in a scalar"),
        };
        let out = &mut self.rows[r as usize * self.parts + p];
        if keep {
            let m = cx.bits(p);
            *out = std::array::from_fn(|l| if m >> l & 1 != 0 { v[l] } else { out[l] });
        } else {
            *out = v;
        }
    }

    /// Write every part of `d`'s row as `part(rows, p)` computes it. Each
    /// part is read whole before it is written, so `d` may be an operand.
    #[inline(always)]
    fn each(&mut self, d: Dst, cx: Cx, part: impl Fn(&[Part<T>], usize) -> Part<T>) {
        for p in 0..self.parts {
            let v = part(&self.rows, p);
            self.put(d, p, v, cx);
        }
    }

    /// The row an I/O op reads operand `o` from: its own, or the scratch
    /// row holding its scalar.
    #[inline]
    fn in_row(&mut self, o: Opnd) -> u16 {
        match o {
            Opnd::Row(r) => r,
            Opnd::Sc(s) => {
                let v = self.sc[s as usize];
                self.set(Opnd::Row(self.scratch), v);
                self.scratch
            }
        }
    }

    /// The row an I/O op writes `d` through: a slot row that must keep
    /// its inactive lanes goes through the scratch row, then
    /// [`File::settle`].
    #[inline]
    fn out_row(&self, d: Dst, cx: Cx) -> u16 {
        match d {
            Dst::Temp(r) => r,
            Dst::Slot(r) if cx.whole => r,
            Dst::Slot(_) => self.scratch,
            Dst::Sc(_) => unreachable!("I/O results are varying"),
        }
    }

    #[inline]
    fn settle(&mut self, d: Dst, via: u16, cx: Cx) {
        if via == self.scratch {
            let at = via as usize * self.parts;
            self.each(d, cx, |rows, p| rows[at + p]);
        }
    }
}

// The row kernels below are `inline(never)`: each (kernel, operator)
// pair compiles to one small function with the operator inlined and one
// loop per operand shape, and the dispatch loop in `eval` stays small
// enough to keep its state in registers. An op on scalars only runs
// inline, once.

/// `d = op(a, b)` on every lane, or once when all three are scalars.
#[inline(always)]
fn bin<T: Copy + Default>(
    f: &mut File<T>,
    a: Opnd,
    b: Opnd,
    d: Dst,
    cx: Cx,
    op: impl Fn(T, T) -> T,
) {
    match (a, b, d) {
        (Opnd::Sc(x), Opnd::Sc(y), Dst::Sc(s)) => {
            f.sc[s as usize] = op(f.sc[x as usize], f.sc[y as usize]);
        }
        _ => bin_rows(f, a, b, d, cx, op),
    }
}

#[inline(never)]
fn bin_rows<T: Copy + Default>(
    f: &mut File<T>,
    a: Opnd,
    b: Opnd,
    d: Dst,
    cx: Cx,
    op: impl Fn(T, T) -> T,
) {
    let n = f.parts;
    match (a, b) {
        (Opnd::Row(x), Opnd::Row(y)) => {
            let (x, y) = (x as usize * n, y as usize * n);
            f.each(d, cx, |rows, p| {
                let (x, y) = (rows[x + p], rows[y + p]);
                std::array::from_fn(|l| op(x[l], y[l]))
            });
        }
        (Opnd::Row(x), Opnd::Sc(y)) => {
            let (x, y) = (x as usize * n, f.sc[y as usize]);
            f.each(d, cx, |rows, p| {
                let x = rows[x + p];
                std::array::from_fn(|l| op(x[l], y))
            });
        }
        (Opnd::Sc(x), Opnd::Row(y)) => {
            let (x, y) = (f.sc[x as usize], y as usize * n);
            f.each(d, cx, |rows, p| {
                let y = rows[y + p];
                std::array::from_fn(|l| op(x, y[l]))
            });
        }
        (Opnd::Sc(x), Opnd::Sc(y)) => {
            let v = op(f.sc[x as usize], f.sc[y as usize]);
            f.each(d, cx, |_, _| [v; P]);
        }
    }
}

/// [`bin`] on the active lanes only: for ops that may fault or call libm.
#[inline(always)]
fn bin_active<T: Copy + Default>(
    f: &mut File<T>,
    a: Opnd,
    b: Opnd,
    d: Dst,
    cx: Cx,
    op: impl Fn(T, T) -> T,
) {
    match (a, b, d) {
        (Opnd::Sc(x), Opnd::Sc(y), Dst::Sc(s)) => {
            f.sc[s as usize] = op(f.sc[x as usize], f.sc[y as usize]);
        }
        _ => bin_active_rows(f, a, b, d, cx, op),
    }
}

#[inline(never)]
fn bin_active_rows<T: Copy + Default>(
    f: &mut File<T>,
    a: Opnd,
    b: Opnd,
    d: Dst,
    cx: Cx,
    op: impl Fn(T, T) -> T,
) {
    let (x, y) = (f.operand(a), f.operand(b));
    f.each(d, cx, |rows, p| {
        let (x, y, m) = (x.part(rows, p), y.part(rows, p), cx.bits(p));
        let mut out = [T::default(); P];
        for l in 0..P {
            if m >> l & 1 != 0 {
                out[l] = op(x[l], y[l]);
            }
        }
        out
    });
}

/// Integer `/` as the interpreter runs it.
#[inline]
fn div(x: i64, y: i64) -> i64 {
    assert!(y != 0, "validated body: integer division by zero");
    x.wrapping_div(y)
}

/// Integer `%` as the interpreter runs it.
#[inline]
fn rem(x: i64, y: i64) -> i64 {
    assert!(y != 0, "validated body: integer remainder by zero");
    x.wrapping_rem(y)
}

#[inline(always)]
fn un<T: Copy + Default>(f: &mut File<T>, a: Opnd, d: Dst, cx: Cx, op: impl Fn(T) -> T) {
    bin(f, a, a, d, cx, |x, _| op(x));
}

#[inline(always)]
fn un_active<T: Copy + Default>(f: &mut File<T>, a: Opnd, d: Dst, cx: Cx, op: impl Fn(T) -> T) {
    bin_active(f, a, a, d, cx, |x, _| op(x));
}

/// `d = op(a)` from one number type to the other.
#[inline(never)]
fn conv<S: Copy + Default, T: Copy + Default>(
    src: &File<S>,
    dst: &mut File<T>,
    a: Opnd,
    d: Dst,
    cx: Cx,
    op: impl Fn(S) -> T,
) {
    match (a, d) {
        (Opnd::Sc(x), Dst::Sc(s)) => dst.sc[s as usize] = op(src.sc[x as usize]),
        _ => {
            let x = src.operand(a);
            dst.each(d, cx, |_, p| x.part(&src.rows, p).map(&op));
        }
    }
}

/// Lane mask of `op(a, b)`: all or nothing when both are scalars, else
/// one fixed-width pack per part.
#[inline(always)]
fn mask_of<T: Copy + Default>(f: &File<T>, a: Opnd, b: Opnd, op: impl Fn(T, T) -> bool) -> u64 {
    match (a, b) {
        (Opnd::Sc(x), Opnd::Sc(y)) => {
            if op(f.sc[x as usize], f.sc[y as usize]) {
                u64::MAX
            } else {
                0
            }
        }
        _ => mask_rows(f, a, b, op),
    }
}

#[inline(never)]
fn mask_rows<T: Copy + Default>(f: &File<T>, a: Opnd, b: Opnd, op: impl Fn(T, T) -> bool) -> u64 {
    let (x, y) = (f.operand(a), f.operand(b));
    let mut m = 0u64;
    for p in 0..f.parts {
        let (x, y) = (x.part(&f.rows, p), y.part(&f.rows, p));
        let mut bits = 0u32;
        for l in 0..P {
            bits |= u32::from(op(x[l], y[l])) << l;
        }
        m |= u64::from(bits) << (P * p);
    }
    m
}

/// Lane mask of the comparison `a op b`.
#[inline(always)]
fn compare<T: Copy + Default + PartialOrd>(f: &File<T>, op: BinOp, a: Opnd, b: Opnd) -> u64 {
    match op {
        BinOp::Lt => mask_of(f, a, b, |x, y| x < y),
        BinOp::Le => mask_of(f, a, b, |x, y| x <= y),
        BinOp::Gt => mask_of(f, a, b, |x, y| x > y),
        BinOp::Ge => mask_of(f, a, b, |x, y| x >= y),
        BinOp::Eq => mask_of(f, a, b, |x, y| x == y),
        _ => mask_of(f, a, b, |x, y| x != y),
    }
}

/// `d = cond ? a : b` per lane, or once when all three are uniform.
#[inline(never)]
fn select<T: Copy + Default>(f: &mut File<T>, cond: u64, a: Opnd, b: Opnd, d: Dst, cx: Cx) {
    if let Dst::Sc(s) = d {
        let pick = if cond & cx.mask != 0 { a } else { b };
        f.sc[s as usize] = f.sc[pick.index()];
        return;
    }
    let (x, y) = (f.operand(a), f.operand(b));
    f.each(d, cx, |rows, p| {
        let (x, y, m) = (x.part(rows, p), y.part(rows, p), (cond >> (P * p)) as u32);
        std::array::from_fn(|l| if m >> l & 1 != 0 { x[l] } else { y[l] })
    });
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

/// A reusable warp-wide evaluation frame: a program's registers, `lanes`
/// values (or one mask bit per lane) wide. Obtained from a
/// [`WarpFramePool`]; reset per warp of firings by broadcasting the
/// launch's bound slot prototype across every lane.
#[derive(Debug, Default)]
pub struct WarpFrame {
    lanes: usize,
    /// Slot → home per [`Ty`], copied from the program by `fit`.
    homes: Vec<[Option<Opnd>; 3]>,
    f: File<f32>,
    i: File<i64>,
    /// Lane-mask words: boolean slots, temps, `false`, `true`.
    words: Vec<u64>,
    /// [`eval`]'s parked fragments, kept to reuse the allocation.
    pending: Vec<Frag>,
    /// Kernel-owned staging space that rides along with the pooled frame
    /// (the fused-reduction template keeps its shared pop windows here).
    pub aux: Vec<f32>,
}

impl WarpFrame {
    /// Size the frame for `prog` at `lanes` lanes so evaluation never
    /// reallocates. Must precede [`WarpFrame::reset`].
    pub fn fit(&mut self, prog: &Program, lanes: usize) {
        assert!(0 < lanes && lanes <= MAX_LANES, "warp width {lanes}");
        let reg = prog.reg();
        self.lanes = lanes;
        self.homes.clear();
        self.homes.extend_from_slice(&reg.homes);
        let s = reg.shape;
        self.f.fit(s.rows[0], lanes, s.scalars[0], &reg.f_consts);
        self.i.fit(s.rows[1], lanes, s.scalars[1], &reg.i_consts);
        self.words.resize(s.words as usize, 0);
        let n = self.words.len();
        self.words[n - 2..].copy_from_slice(&[0, u64::MAX]);
    }

    /// Prepare for one warp of firings: every lane of a slot's home of
    /// the prototype value's type becomes that value, its other homes
    /// zero.
    pub fn reset(&mut self, proto: &[Value]) {
        debug_assert_eq!(proto.len(), self.homes.len(), "fit() before reset()");
        for (v, &[hf, hi, hb]) in proto.iter().zip(&self.homes) {
            let (f, i, b) = match *v {
                Value::F32(x) => (x, 0, false),
                Value::I64(i) => (0.0, i, false),
                Value::Bool(b) => (0.0, 0, b),
            };
            if let Some(h) = hf {
                self.f.set(h, f);
            }
            if let Some(h) = hi {
                self.i.set(h, i);
            }
            if let Some(h) = hb {
                self.words[h.index()] = if b { u64::MAX } else { 0 };
            }
        }
    }

    /// Lane count this frame was fitted for.
    #[inline]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The row of `slot`'s `ty` value.
    fn slot_row(&self, slot: u16, ty: Ty) -> u16 {
        match self.homes[slot as usize][ty as usize] {
            Some(Opnd::Row(r)) => r,
            _ => panic!("slot {slot} holds no {ty:?} row"),
        }
    }

    /// The `i64` row of a slot, for seeding an integer preset (loop
    /// variable) per lane after a reset.
    ///
    /// # Panics
    ///
    /// Panics if the program never holds an `i64` row in `slot` (presets
    /// are varying, so a preset has one).
    #[inline]
    pub fn i64_row_mut(&mut self, slot: u16) -> &mut [i64] {
        let r = self.slot_row(slot, Ty::I64);
        self.i.row_mut(r)
    }

    /// The `f32` row of a slot, for seeding a float preset (accumulator)
    /// per lane after a reset.
    ///
    /// # Panics
    ///
    /// Panics if the program never holds an `f32` row in `slot`.
    #[inline]
    pub fn f32_row_mut(&mut self, slot: u16) -> &mut [f32] {
        let r = self.slot_row(slot, Ty::F32);
        self.f.row_mut(r)
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

/// Execute a compiled body warp-wide: one dispatch per register-form
/// instruction, one row loop (or one scalar op) per dispatch.
/// `init_mask` selects the resident lanes (a ragged final warp simply
/// passes fewer bits). The frame must have been [`WarpFrame::fit`] for
/// `prog` and [`WarpFrame::reset`] with the bound prototype, preset rows
/// seeded per lane.
///
/// Infallible (see [`crate::bytecode`]); an integer division by zero
/// panics on the faulting lane (inactive lanes are never divided, so
/// predicated-off garbage cannot fault).
pub fn eval(prog: &Program, wf: &mut WarpFrame, init_mask: u64, io: &mut dyn WarpIo) {
    let code = &prog.reg().code;
    let n_ops = code.len() as u32;
    debug_assert!(wf.lanes > 0, "fit() before eval()");
    debug_assert_eq!(init_mask & !full_mask(wf.lanes), 0, "mask exceeds lanes");
    if init_mask == 0 {
        return;
    }
    let mut pc: u32 = 0;
    let mut mask = init_mask;
    // Suspended fragments, at most one per structured-control-flow
    // nesting level — a handful, so linear scans beat any heap.
    let mut pending = std::mem::take(&mut wf.pending);
    pending.clear();
    // min pc over `pending`: the next reconvergence point. One compare
    // per straight-line op.
    let mut next_wait: u32 = u32::MAX;
    loop {
        // Fragment scheduling: the running fragment must hold the
        // minimum pc (else divergent partners could starve), and all
        // fragments meeting at one pc merge before executing it.
        while pc >= next_wait {
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
            let f = take_min(&mut pending);
            pc = f.pc;
            mask = f.mask;
            next_wait = min_pc(&pending);
            continue;
        }
        let cx = Cx::new(mask, init_mask);
        let (f, i, w) = (&mut wf.f, &mut wf.i, &mut wf.words);
        match code[pc as usize] {
            Reg::BinF(op, a, b, d) => match op {
                BinOp::Add => bin(f, a, b, d, cx, |x, y| first_nan(x, x + y)),
                BinOp::Sub => bin(f, a, b, d, cx, |x, y| x - y),
                BinOp::Mul => bin(f, a, b, d, cx, |x, y| first_nan(x, x * y)),
                BinOp::Div => bin(f, a, b, d, cx, |x, y| x / y),
                _ => bin(f, a, b, d, cx, |x, y| x % y),
            },
            Reg::BinI(op, a, b, d) => match op {
                BinOp::Add => bin(i, a, b, d, cx, i64::wrapping_add),
                BinOp::Sub => bin(i, a, b, d, cx, i64::wrapping_sub),
                BinOp::Mul => bin(i, a, b, d, cx, i64::wrapping_mul),
                // Active lanes only: a zero divisor faults, and an
                // inactive lane may hold one.
                BinOp::Div => bin_active(i, a, b, d, cx, div),
                _ => bin_active(i, a, b, d, cx, rem),
            },
            Reg::CmpF(op, a, b, t) => w[t as usize] = compare(f, op, a, b),
            Reg::CmpI(op, a, b, t) => w[t as usize] = compare(i, op, a, b),
            Reg::Logic(op, a, b, t) => {
                let (a, b) = (w[a as usize], w[b as usize]);
                w[t as usize] = if op == BinOp::And { a & b } else { a | b };
            }
            Reg::Not(a, t) => w[t as usize] = !w[a as usize],
            Reg::NegF(a, d) => un(f, a, d, cx, |x| -x),
            Reg::NegI(a, d) => un(i, a, d, cx, i64::wrapping_neg),
            Reg::MovF(a, d) => un(f, a, d, cx, |x| x),
            Reg::MovI(a, d) => un(i, a, d, cx, |x| x),
            Reg::MovB(a, t) => {
                let t = t as usize;
                w[t] = (w[t] & !mask) | (w[a as usize] & mask);
            }
            Reg::Call1(intr, a, d) => match intr {
                Intrinsic::Sqrt => un(f, a, d, cx, f32::sqrt),
                Intrinsic::Abs => un(f, a, d, cx, f32::abs),
                Intrinsic::Floor => un(f, a, d, cx, f32::floor),
                // A libm call per lane: worth skipping inactive ones.
                Intrinsic::Exp => un_active(f, a, d, cx, f32::exp),
                Intrinsic::Log => un_active(f, a, d, cx, f32::ln),
                Intrinsic::Sin => un_active(f, a, d, cx, f32::sin),
                _ => un_active(f, a, d, cx, f32::cos),
            },
            Reg::Call2(intr, a, b, d) => match intr {
                Intrinsic::Max => bin(f, a, b, d, cx, f32::max),
                Intrinsic::Min => bin(f, a, b, d, cx, f32::min),
                _ => bin_active(f, a, b, d, cx, f32::powf),
            },
            Reg::SelF(c, a, b, d) => select(f, w[c as usize], a, b, d, cx),
            Reg::SelI(c, a, b, d) => select(i, w[c as usize], a, b, d, cx),
            Reg::SelB(c, a, b, t) => {
                let c = w[c as usize];
                w[t as usize] = (c & w[a as usize]) | (!c & w[b as usize]);
            }
            Reg::IToF(a, d) => conv(i, f, a, d, cx, |n| n as f32),
            Reg::FToI(a, d) => conv(f, i, a, d, cx, |x| x as i64),
            Reg::FToB(a, t) => w[t as usize] = mask_of(f, a, a, |x, _| x != 0.0),
            Reg::IToB(a, t) => w[t as usize] = mask_of(i, a, a, |n, _| n != 0),
            Reg::Pop(d) => {
                let r = f.out_row(d, cx);
                io.pop_row(mask, f.row_mut(r));
                f.settle(d, r, cx);
            }
            Reg::Peek(at, d) => {
                let (o, r) = (i.in_row(at), f.out_row(d, cx));
                io.peek_row(mask, i.row(o), f.row_mut(r));
                f.settle(d, r, cx);
            }
            Reg::StateLoad(id, at, d) => {
                let (o, r) = (i.in_row(at), f.out_row(d, cx));
                let name = &prog.state_names()[id as usize];
                io.state_load_row(id, name, mask, i.row(o), f.row_mut(r));
                f.settle(d, r, cx);
            }
            Reg::StateStore(id, at, v) => {
                let (o, r) = (i.in_row(at), f.in_row(v));
                let name = &prog.state_names()[id as usize];
                io.state_store_row(id, name, mask, i.row(o), f.row(r));
            }
            Reg::Push(v) => {
                let r = f.in_row(v);
                io.push_row(mask, f.row(r));
            }
            Reg::Jump(t) => {
                pc = t;
                continue;
            }
            Reg::JumpIfFalse(c, t) => {
                let false_mask = mask & !w[c as usize];
                if false_mask == mask {
                    pc = t;
                    continue;
                }
                if false_mask != 0 {
                    park(&mut pending, t, false_mask);
                    next_wait = next_wait.min(t);
                    mask &= !false_mask;
                }
            }
            Reg::ForTest { .. } | Reg::ForStep { .. } => {
                // A step runs its loop's test in place and branches past it.
                let (test, body) = match code[pc as usize] {
                    Reg::ForStep { counter, head } => {
                        un(i, counter, Dst::slot(counter), cx, |c| c.wrapping_add(1));
                        (code[head as usize], head + 1)
                    }
                    test => (test, pc + 1),
                };
                let Reg::ForTest {
                    counter,
                    end,
                    var,
                    exit,
                } = test
                else {
                    unreachable!("a back edge targets its loop's test");
                };
                // One scalar comparison when counter and end are uniform.
                let go = mask & mask_of(i, counter, end, |c, e| c < e);
                if go != 0 {
                    un(i, counter, var, Cx::new(go, init_mask), |c| c);
                }
                let exit_mask = mask & !go;
                if exit_mask == mask {
                    pc = exit;
                    continue;
                }
                if exit_mask != 0 {
                    park(&mut pending, exit, exit_mask);
                    next_wait = next_wait.min(exit);
                    mask = go;
                }
                pc = body;
                continue;
            }
        }
        pc += 1;
    }
    wf.pending = pending;
}

/// Execute a compiled *expression* warp-wide; the returned row holds each
/// active lane's `f32` result.
///
/// # Panics
///
/// Panics if `prog` is a body, which leaves no value.
pub fn eval_row<'f>(
    prog: &Program,
    wf: &'f mut WarpFrame,
    mask: u64,
    io: &mut dyn WarpIo,
) -> &'f [f32] {
    eval(prog, wf, mask, io);
    let row = prog
        .reg()
        .value_row
        .expect("an expression leaves one value");
    wf.f.row(row)
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
    fn a_uniform_nan_keeps_its_operand_order() {
        // `n` is a literal NaN folded at lowering, so one scalar per warp
        // broadcast against each lane's row: on the left it is still the
        // first operand, as in the interpreter's scalar arithmetic.
        let src = r#"pipeline P() {
                actor N(pop 1, push 12) {
                    x = pop();
                    n = 0.0 / 0.0;
                    push(n + x);
                    push(x + n);
                    push(n * x);
                    push(x * n);
                    push(n - x);
                    push(x - n);
                    push(n / x);
                    push(x / n);
                    push(max(n, x));
                    push(max(x, n));
                    push(min(n, x));
                    push(min(x, n));
                }
            }"#;
        let nans = [0x7fc0_0000u32, 0xffc0_0000, 0x7fc0_1234, 0xffc0_4321].map(f32::from_bits);
        let inputs: Vec<Vec<f32>> = (0..32)
            .map(|l| {
                vec![if l % 2 == 0 {
                    nans[l / 2 % 4]
                } else {
                    l as f32 - 16.0
                }]
            })
            .collect();
        run_both(src, &inputs, 12);
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
