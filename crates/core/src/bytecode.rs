//! Register-slot bytecode for actor work bodies.
//!
//! Every work body is lowered once per *program*: [`compile_body`] turns a
//! validated body into a flat postorder [`Op`] sequence over a value
//! stack, with
//!
//! - locals resolved to dense `u16` slots (parameters become slots bound
//!   from [`Bindings`] once per launch, template-supplied scalars like the
//!   loop variable become *preset* slots the kernel writes directly),
//! - state arrays resolved to dense ids in first-use order,
//! - all-literal subtrees constant-folded (folding never crosses an I/O
//!   opcode, so the observable `pop`/`peek`/state sequence — and thus
//!   every `KernelStats` counter — is unchanged),
//! - `for` loops driven by a *hidden* counter slot so body assignments to
//!   the loop variable cannot perturb iteration, exactly like the
//!   reference interpreter's Rust-side `for i in lo..hi` loop,
//! - every value statically typed ([`Ty`]) by one forward pass over the
//!   opcode stream (see [`Program`]'s typing rule): each coercion the
//!   interpreter performs per value becomes an explicit [`Op::Cast`], and
//!   every opcode gets the operand type it runs at, so the warp evaluator
//!   works on untagged `f32`/`i64`/mask rows.
//!
//! The stack form is what lowering emits, what the artifact store
//! persists and what the typing pass verifies. What runs is the
//! *register form* derived from it, once, by [`Program`]'s one
//! constructor: every value is classed *uniform* (the same on every
//! lane of a warp) or *varying* (see [`Program`]'s uniformity rule), and
//! every arithmetic, compare, cast or select op reads its operands in
//! place — a slot row, a temp row (stack depth `d` is temp `d`) or a
//! scalar — and writes a temp or, when a store follows, the slot itself.
//! `Load` and `Const*` emit nothing; uniform values live in one scalar
//! per warp instead of a row.
//!
//! One evaluator runs a [`Program`]: [`crate::warp::eval`]. Kernels run it
//! warp-wide; the firings with no lanes to batch — opaque (stateful)
//! actors executed sequentially on the host and the once-per-output
//! reduction `post` expression — run it on a one-lane frame.
//!
//! Evaluation is infallible on the hot path: lowering rejects everything
//! the reference interpreter ([`streamir::interp::Interpreter`], the
//! oracle every test compares against) would reject statically (unknown
//! variables, a boolean used as a number), and data-dependent faults
//! (integer division by zero) panic. Integer `+`/`-`/`*` and unary
//! negation wrap on overflow, matching [`streamir::interp::eval_binop`].

use std::collections::HashMap;

use streamir::error::{Error, Result};
use streamir::interp::{eval_binop, eval_intrinsic};
use streamir::ir::{BinOp, Expr, Intrinsic, Stmt, UnOp};
use streamir::rates::Bindings;
use streamir::value::Value;

/// Static type of a value, fixed at plan time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ty {
    /// Single-precision float — stream items.
    F32 = 0,
    /// 64-bit integer — parameters, loop indices, integer scalars.
    I64 = 1,
    /// Boolean — comparison results.
    Bool = 2,
}

/// One bytecode instruction. Expressions are postorder over an operand
/// stack; control flow uses absolute instruction indices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Push a float literal.
    ConstF(f32),
    /// Push an integer literal.
    ConstI(i64),
    /// Push a boolean literal (folded comparison results).
    ConstB(bool),
    /// Push the value of a slot.
    Load(u16),
    /// Pop the stack into a slot.
    Store(u16),
    /// `io.pop()` → push.
    Pop,
    /// Pop offset (`i64`), `io.peek(offset)` → push.
    Peek,
    /// Pop index (`i64`), `io.state_load(name(id), ..)` → push.
    StateLoad(u16),
    /// Pop value (`f32`) then index (`i64`), `io.state_store(name(id), ..)`.
    StateStore(u16),
    /// Pop value (`f32`), `io.push(value)`.
    PushOut,
    /// Pop rhs then lhs (same type), push `lhs op rhs`.
    Bin(BinOp),
    /// Arithmetic negation of the top of stack (integers wrap).
    Neg,
    /// Boolean negation of the top of stack.
    Not,
    /// Pop `arity` arguments, push the intrinsic's result.
    Call(Intrinsic),
    /// Convert the value `depth` below the top of stack to the given
    /// type, in place: `i as f32`, truncating `x as i64`, or non-zero →
    /// `true`. Inserted by the typing pass wherever the interpreter
    /// coerces.
    Cast(Ty, u8),
    /// Unconditional branch.
    Jump(u32),
    /// Pop a condition (`bool`); branch when false.
    JumpIfFalse(u32),
    /// Pop loop end then start (both `i64`) into two hidden slots.
    ForInit { counter: u16, end: u16 },
    /// If `counter < end`, copy the counter into the user-visible loop
    /// variable slot and fall through; else branch to `exit`.
    ForTest {
        counter: u16,
        end: u16,
        var: u16,
        exit: u32,
    },
    /// Increment the hidden counter (wrapping) and branch to `head`.
    ForStep { counter: u16, head: u32 },
}

/// How a slot gets its initial value for a firing.
#[derive(Debug, Clone, PartialEq)]
pub enum SlotKind {
    /// Plain local, zero-initialized; valid bodies assign before reading.
    Local,
    /// Program parameter, bound to `I64` from [`Bindings`] at
    /// [`Program::bind`] time (once per launch).
    Param,
    /// Kernel-supplied scalar of the given type (template loop variable,
    /// reduction accumulator, opaque-actor scalar state); the kernel
    /// writes the slot directly after each frame reset.
    Preset(Ty),
}

/// Where a register-form operand lives in a warp frame. An `f32` or
/// `i64` `Row` holds one value per lane and an `Sc` one scalar shared by
/// every lane. A boolean is always one lane-mask word; for it `Row` and
/// `Sc` only record whether the value is varying or uniform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Opnd {
    Row(u16),
    Sc(u16),
}

impl Opnd {
    /// The row, scalar or word index.
    #[inline]
    pub(crate) fn index(self) -> usize {
        match self {
            Opnd::Row(i) | Opnd::Sc(i) => i as usize,
        }
    }

    fn uniform(self) -> bool {
        matches!(self, Opnd::Sc(_))
    }
}

/// Where a register-form op writes an `f32` or `i64` result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dst {
    /// A temp row: every lane is written.
    Temp(u16),
    /// A slot row: only the active lanes are written.
    Slot(u16),
    /// A scalar: a uniform temp or slot.
    Sc(u16),
}

impl Dst {
    /// The destination writing a slot whose home is `home`.
    #[inline]
    pub(crate) fn slot(home: Opnd) -> Dst {
        match home {
            Opnd::Row(r) => Dst::Slot(r),
            Opnd::Sc(s) => Dst::Sc(s),
        }
    }

    /// The destination writing temp `t`.
    fn temp(t: Opnd) -> Dst {
        match t {
            Opnd::Row(r) => Dst::Temp(r),
            Opnd::Sc(s) => Dst::Sc(s),
        }
    }
}

/// One register-form instruction. `u16` operands are lane-mask words;
/// jump targets index the register form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Reg {
    /// `f32` `+ - * / %`.
    BinF(BinOp, Opnd, Opnd, Dst),
    /// `i64` `+ - * / %`, wrapping.
    BinI(BinOp, Opnd, Opnd, Dst),
    /// `f32` comparison into a word.
    CmpF(BinOp, Opnd, Opnd, u16),
    /// `i64` comparison into a word.
    CmpI(BinOp, Opnd, Opnd, u16),
    /// `&&` or `||` of two words.
    Logic(BinOp, u16, u16, u16),
    Not(u16, u16),
    NegF(Opnd, Dst),
    NegI(Opnd, Dst),
    /// A copy: a store whose value no op of its own computed, or a load
    /// kept alive across a store to its slot.
    MovF(Opnd, Dst),
    MovI(Opnd, Dst),
    /// Copy a word on the active lanes.
    MovB(u16, u16),
    /// A one-argument `f32` intrinsic.
    Call1(Intrinsic, Opnd, Dst),
    /// `max`, `min` or `pow`.
    Call2(Intrinsic, Opnd, Opnd, Dst),
    /// `select(cond, a, b)`.
    SelF(u16, Opnd, Opnd, Dst),
    SelI(u16, Opnd, Opnd, Dst),
    SelB(u16, u16, u16, u16),
    /// `i as f32`.
    IToF(Opnd, Dst),
    /// Truncating `x as i64`.
    FToI(Opnd, Dst),
    /// Non-zero → `true`.
    FToB(Opnd, u16),
    IToB(Opnd, u16),
    Pop(Dst),
    Peek(Opnd, Dst),
    StateLoad(u16, Opnd, Dst),
    /// State id, index, value.
    StateStore(u16, Opnd, Opnd),
    Push(Opnd),
    Jump(u32),
    /// Branch when the word is false.
    JumpIfFalse(u16, u32),
    /// If `counter < end`, copy the counter into `var` and fall through;
    /// else branch to `exit`.
    ForTest {
        counter: Opnd,
        end: Opnd,
        var: Dst,
        exit: u32,
    },
    /// Increment the counter slot (wrapping) and run the `ForTest` at
    /// `head` in place: the lanes that go on branch past it.
    ForStep {
        counter: Opnd,
        head: u32,
    },
}

impl Reg {
    /// The branch target of a control op.
    fn target_mut(&mut self) -> Option<&mut u32> {
        match self {
            Reg::Jump(t)
            | Reg::JumpIfFalse(_, t)
            | Reg::ForTest { exit: t, .. }
            | Reg::ForStep { head: t, .. } => Some(t),
            _ => None,
        }
    }

    /// The destination of an op that computes an `f32` or `i64` value.
    fn dst_mut(&mut self) -> Option<&mut Dst> {
        match self {
            Reg::BinF(.., d)
            | Reg::BinI(.., d)
            | Reg::NegF(_, d)
            | Reg::NegI(_, d)
            | Reg::MovF(_, d)
            | Reg::MovI(_, d)
            | Reg::Call1(_, _, d)
            | Reg::Call2(.., d)
            | Reg::SelF(.., d)
            | Reg::SelI(.., d)
            | Reg::IToF(_, d)
            | Reg::FToI(_, d)
            | Reg::Pop(d)
            | Reg::Peek(_, d)
            | Reg::StateLoad(_, _, d) => Some(d),
            _ => None,
        }
    }
}

/// How much a warp frame holds for a register-form program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Shape {
    /// Rows per number type (`[f32, i64]`): varying slots, one temp per
    /// stack depth, then one scratch row (the last).
    pub rows: [u16; 2],
    /// Scalars per number type ahead of the constants: uniform slots,
    /// then one temp per stack depth.
    pub scalars: [u16; 2],
    /// Lane-mask words: boolean slots, one temp per stack depth, then
    /// `false` and `true`.
    pub words: u16,
}

/// The register form of a [`Program`], which [`crate::warp::eval`] runs.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct RegForm {
    pub code: Vec<Reg>,
    /// Slot → home of each [`Ty`] it holds (`None` when it never holds
    /// that type).
    pub homes: Vec<[Option<Opnd>; 3]>,
    pub shape: Shape,
    /// Literals, stored after [`Shape::scalars`] in their type's scalars.
    pub f_consts: Vec<f32>,
    pub i_consts: Vec<i64>,
    /// The `f32` row an expression program leaves its value in.
    pub value_row: Option<u16>,
}

/// A compiled work body (or expression): flat opcodes plus the slot and
/// state-id tables produced by lowering, the static types inferred over
/// them, and the register form derived from both.
///
/// # Typing rule
///
/// Parameters are `i64`, presets have the type their kernel declares, a
/// local has the type of the value last stored to it. A store to an `f32`
/// preset — a body stores only to an opaque actor's scalar state —
/// converts to `f32`, as the interpreter's assignment to it does.
/// Arithmetic and comparisons on two `i64` stay integral, any other pair
/// of numbers is promoted to `f32`; `&&`/`||`/`!`/conditions take any
/// value (numbers are true when non-zero); stream items, intrinsic
/// arguments and state values are `f32`, offsets, indices and loop bounds
/// `i64`. A slot stored with more than one type holds one value per type
/// and each `Load` reads the one inferred at its pc. There is no dynamic
/// fallback: a `Load` whose slot's type depends on the path taken, a
/// `select` whose arms differ in type, and a boolean used as a number
/// are compile errors.
///
/// # Uniformity rule
///
/// Literals, parameters and pure ops over uniform operands are uniform.
/// Presets (a template's element index, an accumulator), `pop`, `peek`
/// and state loads are varying. Control is varying between a branch on
/// a varying condition and its join, and inside a loop whose counter or
/// end is varying: some lanes may skip that code. A slot is uniform when
/// every store to it stores a uniform value under uniform control;
/// otherwise it is varying for the whole body, because the lanes that
/// skipped a store keep their old value after the join. The classes are
/// per slot and type and found by iterating to a fixed point (a loop's
/// back edge can carry a varying store to a read above it). A uniform
/// slot is one scalar per warp; a varying one a row.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    ops: Vec<Op>,
    /// Per-slot init kind; parallel to `names`.
    kinds: Vec<SlotKind>,
    /// Slot names (hidden loop slots get `#for{n}`/`#end{n}` names).
    names: Vec<String>,
    /// Dense state id → array name, in first-use order.
    state_names: Vec<String>,
    /// Worst-case operand-stack depth: the temps a frame holds.
    max_stack: usize,
    reg: RegForm,
}

impl Program {
    /// The opcode sequence (read-only; used by tests and the printer).
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Worst-case operand-stack depth.
    pub fn max_stack(&self) -> usize {
        self.max_stack
    }

    /// Dense state id → array name, in first-use order.
    pub fn state_names(&self) -> &[String] {
        &self.state_names
    }

    /// Per-slot init kinds, parallel to [`Program::names`].
    pub(crate) fn kinds(&self) -> &[SlotKind] {
        &self.kinds
    }

    /// Slot names, parallel to [`Program::kinds`].
    pub(crate) fn names(&self) -> &[String] {
        &self.names
    }

    /// The register form [`crate::warp::eval`] runs.
    #[inline]
    pub(crate) fn reg(&self) -> &RegForm {
        &self.reg
    }

    /// Reassemble a program from its raw parts (the artifact decoder).
    /// Validates the structural invariants lowering guarantees — slot and
    /// state indices in range, jump targets within `0..=ops.len()`, and
    /// parallel slot tables — then re-infers the types, so a decoded
    /// artifact can neither index out of bounds nor apply an opcode to a
    /// value of the wrong type at eval time. The register form is derived
    /// only from a stream that passed.
    pub(crate) fn from_raw(
        ops: Vec<Op>,
        kinds: Vec<SlotKind>,
        names: Vec<String>,
        state_names: Vec<String>,
        max_stack: usize,
    ) -> std::result::Result<Program, String> {
        if kinds.len() != names.len() {
            return Err(format!(
                "slot kinds ({}) / names ({}) mismatch",
                kinds.len(),
                names.len()
            ));
        }
        if kinds.len() >= u16::MAX as usize {
            return Err(format!("{} slots exceed the slot space", kinds.len()));
        }
        let n_slots = kinds.len();
        let n_state = state_names.len();
        let n_ops = ops.len();
        let slot_ok = |s: u16| (s as usize) < n_slots;
        let target_ok = |t: u32| (t as usize) <= n_ops;
        for (pc, op) in ops.iter().enumerate() {
            let ok = match *op {
                Op::Load(s) | Op::Store(s) => slot_ok(s),
                Op::StateLoad(id) | Op::StateStore(id) => (id as usize) < n_state,
                Op::Jump(t) | Op::JumpIfFalse(t) => target_ok(t),
                Op::ForInit { counter, end } => slot_ok(counter) && slot_ok(end),
                Op::ForTest {
                    counter,
                    end,
                    var,
                    exit,
                } => slot_ok(counter) && slot_ok(end) && slot_ok(var) && target_ok(exit),
                Op::ForStep { counter, head } => slot_ok(counter) && target_ok(head),
                _ => true,
            };
            if !ok {
                return Err(format!("op {op:?} at pc {pc} indexes out of range"));
            }
        }
        let typed = Typer::run(&ops, &kinds, false)?;
        if typed.max_stack != max_stack {
            return Err(format!(
                "declared stack depth {max_stack}, ops need {}",
                typed.max_stack
            ));
        }
        typed.into_program(kinds, names, state_names)
    }

    /// Slot index of a named local/param/preset, if the body mentions it.
    pub fn slot_of(&self, name: &str) -> Option<u16> {
        self.names.iter().position(|n| n == name).map(|i| i as u16)
    }

    /// Dense id of a state array, if the body touches it.
    pub fn state_index(&self, name: &str) -> Option<u16> {
        self.state_names
            .iter()
            .position(|n| n == name)
            .map(|i| i as u16)
    }

    /// Resolve parameters against concrete bindings, producing the slot
    /// prototype copied into a frame at every reset. Done once per launch.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnboundParam`] when a parameter slot has no
    /// binding.
    pub fn bind(&self, binds: &Bindings) -> Result<Vec<Value>> {
        self.kinds
            .iter()
            .zip(&self.names)
            .map(|(kind, name)| match kind {
                SlotKind::Param => binds
                    .get(name)
                    .map(|v| Value::I64(*v))
                    .ok_or_else(|| Error::UnboundParam(name.clone())),
                SlotKind::Preset(Ty::I64) => Ok(Value::I64(0)),
                SlotKind::Preset(Ty::Bool) => Ok(Value::Bool(false)),
                SlotKind::Local | SlotKind::Preset(Ty::F32) => Ok(Value::F32(0.0)),
            })
            .collect()
    }
}

/// The type a slot holds at one program point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotTy {
    /// Not stored on any path here; reads see the zeros a frame reset
    /// leaves.
    Unset,
    /// Last stored with this type on every path here that stored it.
    Is(Ty),
    /// Last stored with different types on different paths.
    Mixed,
}

/// What the typing pass tracks per slot.
#[derive(Debug, Clone, Copy)]
struct SlotState {
    ty: SlotTy,
    /// Nesting depth of the outermost open loop whose head reaches this
    /// point without a store to the slot ([`NO_LOOP`] when none does): a
    /// read here sees whatever that loop's back edge carries in.
    since: u8,
}

const NO_LOOP: u8 = u8::MAX;

fn join_slots(into: &mut [SlotState], from: &[SlotState]) {
    for (a, b) in into.iter_mut().zip(from) {
        a.ty = match (a.ty, b.ty) {
            (x, y) if x == y => x,
            (SlotTy::Unset, t) | (t, SlotTy::Unset) => t,
            _ => SlotTy::Mixed,
        };
        a.since = a.since.min(b.since);
    }
}

/// A `for` loop the typing pass is inside of.
struct OpenLoop {
    /// Input pcs of the loop's `ForTest` and of its exit.
    head: u32,
    exit: u32,
    /// Slot states assumed at the head.
    at_head: Vec<SlotState>,
    /// Slots the body read as the head left them.
    reads: Vec<bool>,
    /// `out.len()` when the head was reached, to rewind for a second walk.
    out_len: usize,
    retried: bool,
}

/// The typing pass: one forward walk over an opcode stream that tracks
/// the type of every stack entry and slot, annotates each op with the
/// type it runs at, records the types each slot holds and — when `insert` is
/// set (lowering) — materializes each implicit coercion as an
/// [`Op::Cast`]. With `insert` unset (decoding) a missing cast is an
/// error, which makes the same walk the verifier for untrusted streams.
///
/// Control flow is the structured subset lowering emits: forward
/// `Jump`/`JumpIfFalse`/`ForTest` exits whose states are joined at their
/// target, and `ForStep` back edges. A loop body is walked under the
/// types at loop entry; only when the back edge carries a different type
/// into a slot the body read as the head left it (`acc = 0` before a loop
/// doing `acc = acc + pop()`) is the body walked again under the join,
/// where that read is an error. So the pass is linear in the op count
/// for every program it accepts.
struct Typer {
    insert: bool,
    /// Slots that are `f32` presets (scalar state): every store casts.
    f32_presets: Vec<bool>,
    out: Vec<Op>,
    tys: Vec<Ty>,
    stack: Vec<Ty>,
    max_stack: usize,
    slots: Vec<SlotState>,
    /// False after an unconditional jump, until a jump target revives it.
    live: bool,
    /// Slot states waiting at forward jump targets.
    incoming: Vec<(u32, Vec<SlotState>)>,
    loops: Vec<OpenLoop>,
    /// Slot → whether it ever holds each [`Ty`].
    holds: Vec<[bool; 3]>,
}

type Typed<T> = std::result::Result<T, String>;

impl Typer {
    fn run(ops: &[Op], kinds: &[SlotKind], insert: bool) -> Typed<Typer> {
        let unset = SlotState {
            ty: SlotTy::Unset,
            since: NO_LOOP,
        };
        let mut t = Typer {
            insert,
            f32_presets: kinds
                .iter()
                .map(|k| *k == SlotKind::Preset(Ty::F32))
                .collect(),
            out: Vec::with_capacity(ops.len()),
            tys: Vec::with_capacity(ops.len()),
            stack: Vec::new(),
            max_stack: 0,
            slots: vec![unset; kinds.len()],
            live: true,
            incoming: Vec::new(),
            loops: Vec::new(),
            holds: vec![[false; 3]; kinds.len()],
        };
        for (s, kind) in kinds.iter().enumerate() {
            match kind {
                SlotKind::Local => {}
                SlotKind::Param => t.store(s as u16, Ty::I64),
                SlotKind::Preset(ty) => t.store(s as u16, *ty),
            }
        }
        // Input pc → output pc, to retarget jumps past inserted casts.
        let mut new_pc = vec![0u32; ops.len() + 1];
        let mut pc = 0usize;
        while pc < ops.len() {
            t.arrive(pc as u32)?;
            if !t.live {
                return Err(format!("op at pc {pc} is unreachable"));
            }
            new_pc[pc] = t.out.len() as u32;
            match t.step(pc as u32, ops[pc]) {
                Ok(next) => pc = next as usize,
                Err(e) => return Err(format!("{e} (op {:?} at pc {pc})", ops[pc])),
            }
        }
        t.arrive(ops.len() as u32)?;
        if !t.loops.is_empty() || !t.incoming.is_empty() {
            return Err("unterminated loop or branch".into());
        }
        // A body leaves nothing behind; an expression leaves its `f32`.
        match t.stack.len() {
            0 => {}
            1 => t.need(0, Ty::F32)?,
            n => return Err(format!("{n} values left on the stack")),
        }
        new_pc[ops.len()] = t.out.len() as u32;
        for op in &mut t.out {
            match op {
                Op::Jump(x)
                | Op::JumpIfFalse(x)
                | Op::ForTest { exit: x, .. }
                | Op::ForStep { head: x, .. } => *x = new_pc[*x as usize],
                _ => {}
            }
        }
        Ok(t)
    }

    /// Assemble the program, deriving its register form from the typed
    /// stack form.
    fn into_program(
        self,
        kinds: Vec<SlotKind>,
        names: Vec<String>,
        state_names: Vec<String>,
    ) -> Typed<Program> {
        let yields = !self.stack.is_empty();
        let varying = varying_slots(&self.out, &self.tys, &kinds);
        let reg = RegBuilder::derive(
            &self.out,
            &self.tys,
            &self.holds,
            &varying,
            self.max_stack,
            yields,
        )?;
        Ok(Program {
            ops: self.out,
            kinds,
            names,
            state_names,
            max_stack: self.max_stack,
            reg,
        })
    }

    /// Merge the states parked at jump target `pc` into the current one.
    fn arrive(&mut self, pc: u32) -> Typed<()> {
        if let Some(i) = self.incoming.iter().position(|(t, _)| *t == pc) {
            let (_, state) = self.incoming.swap_remove(i);
            if self.live {
                self.at_depth_0()?;
                join_slots(&mut self.slots, &state);
            } else {
                self.slots = state;
                self.live = true;
            }
        }
        Ok(())
    }

    /// Park the current slot state at forward target `t`.
    fn branch_to(&mut self, pc: u32, t: u32) -> Typed<()> {
        if t <= pc {
            return Err(format!("backward branch to {t}"));
        }
        self.at_depth_0()?;
        match self.incoming.iter_mut().find(|(x, _)| *x == t) {
            Some((_, state)) => join_slots(state, &self.slots),
            None => self.incoming.push((t, self.slots.clone())),
        }
        Ok(())
    }

    /// Branches happen between statements: no temp is live across one, so
    /// divergent fragments of a warp share the temps on that guarantee.
    fn at_depth_0(&self) -> Typed<()> {
        if self.stack.is_empty() {
            Ok(())
        } else {
            Err("branch inside an expression".into())
        }
    }

    fn emit(&mut self, op: Op, ty: Ty) {
        self.out.push(op);
        self.tys.push(ty);
    }

    fn push(&mut self, ty: Ty) {
        self.stack.push(ty);
        self.max_stack = self.max_stack.max(self.stack.len());
    }

    fn pop(&mut self) -> Typed<Ty> {
        self.stack.pop().ok_or_else(|| "stack underflow".into())
    }

    /// Type of the stack entry `depth` below the top.
    fn peek(&self, depth: usize) -> Typed<Ty> {
        self.stack
            .len()
            .checked_sub(depth + 1)
            .map(|i| self.stack[i])
            .ok_or_else(|| "stack underflow".into())
    }

    /// Require the entry `depth` below the top to be `want`, casting it
    /// when lowering.
    fn need(&mut self, depth: usize, want: Ty) -> Typed<()> {
        let have = self.peek(depth)?;
        if have == want {
            return Ok(());
        }
        if !self.insert {
            return Err(format!("operand is {have:?}, expected {want:?}"));
        }
        self.cast(depth, want)
    }

    fn cast(&mut self, depth: usize, to: Ty) -> Typed<()> {
        let from = self.peek(depth)?;
        if from == Ty::Bool || from == to {
            return Err(format!("cannot convert {from:?} to {to:?}"));
        }
        self.emit(Op::Cast(to, depth as u8), from);
        let i = self.stack.len() - 1 - depth;
        self.stack[i] = to;
        Ok(())
    }

    /// `slot` now holds a `ty`.
    fn store(&mut self, slot: u16, ty: Ty) {
        self.slots[slot as usize] = SlotState {
            ty: SlotTy::Is(ty),
            since: NO_LOOP,
        };
        self.holds[slot as usize][ty as usize] = true;
    }

    /// The type a read of `slot` sees here.
    fn load(&mut self, slot: u16) -> Typed<Ty> {
        let SlotState { ty, since } = self.slots[slot as usize];
        for l in self.loops.iter_mut().skip(since as usize) {
            l.reads[slot as usize] = true;
        }
        match ty {
            SlotTy::Is(ty) => Ok(ty),
            SlotTy::Unset => {
                self.holds[slot as usize][Ty::F32 as usize] = true;
                Ok(Ty::F32)
            }
            SlotTy::Mixed => Err(format!("the type of slot {slot} depends on the path taken")),
        }
    }

    fn load_i64(&mut self, slot: u16) -> Typed<()> {
        match self.load(slot)? {
            Ty::I64 => Ok(()),
            _ => Err(format!("loop slot {slot} does not hold an i64")),
        }
    }

    /// Type one op, emit it (after any casts it needs) and return the
    /// next input pc.
    fn step(&mut self, pc: u32, op: Op) -> Typed<u32> {
        let mut ann = Ty::F32;
        match op {
            Op::ConstF(_) | Op::Pop => self.push(Ty::F32),
            Op::ConstI(_) => self.push(Ty::I64),
            Op::ConstB(_) => self.push(Ty::Bool),
            Op::Load(s) => {
                ann = self.load(s)?;
                self.push(ann);
            }
            Op::Store(s) => {
                if self.f32_presets[s as usize] {
                    self.need(0, Ty::F32)?;
                }
                ann = self.pop()?;
                self.store(s, ann);
            }
            Op::Peek | Op::StateLoad(_) => {
                self.need(0, Ty::I64)?;
                self.pop()?;
                self.push(Ty::F32);
            }
            Op::StateStore(_) => {
                self.need(0, Ty::F32)?;
                self.need(1, Ty::I64)?;
                self.pop()?;
                self.pop()?;
            }
            Op::PushOut => {
                self.need(0, Ty::F32)?;
                self.pop()?;
            }
            Op::Bin(b) => {
                ann = if matches!(b, BinOp::And | BinOp::Or) {
                    Ty::Bool
                } else if (self.peek(0)?, self.peek(1)?) == (Ty::I64, Ty::I64) {
                    Ty::I64
                } else {
                    Ty::F32
                };
                self.need(0, ann)?;
                self.need(1, ann)?;
                self.pop()?;
                self.pop()?;
                let arith = matches!(
                    b,
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem
                );
                self.push(if arith { ann } else { Ty::Bool });
            }
            Op::Neg => {
                ann = self.peek(0)?;
                if ann == Ty::Bool {
                    return Err("cannot negate a Bool".into());
                }
            }
            Op::Not => self.need(0, Ty::Bool)?,
            Op::Call(Intrinsic::Select) => {
                self.need(2, Ty::Bool)?;
                ann = self.pop()?;
                if self.pop()? != ann {
                    return Err("the arms of `select` differ in type".into());
                }
                self.pop()?;
                self.push(ann);
            }
            Op::Call(intr) => {
                for depth in 0..intr.arity() {
                    self.need(depth, Ty::F32)?;
                }
                for _ in 0..intr.arity() {
                    self.pop()?;
                }
                self.push(Ty::F32);
            }
            Op::Cast(to, depth) => {
                // Only a decoded stream carries casts; `cast` emits it.
                self.cast(depth as usize, to)?;
                return Ok(pc + 1);
            }
            Op::Jump(t) => {
                self.branch_to(pc, t)?;
                self.live = false;
            }
            Op::JumpIfFalse(t) => {
                self.need(0, Ty::Bool)?;
                self.pop()?;
                self.branch_to(pc, t)?;
            }
            Op::ForInit { counter, end } => {
                self.need(0, Ty::I64)?;
                self.need(1, Ty::I64)?;
                self.pop()?;
                self.pop()?;
                self.store(counter, Ty::I64);
                self.store(end, Ty::I64);
            }
            Op::ForTest {
                counter,
                end,
                var,
                exit,
            } => {
                if self.loops.last().map(|l| l.head) != Some(pc) {
                    let depth = self.loops.len();
                    if depth >= NO_LOOP as usize {
                        return Err("loops nest too deeply".into());
                    }
                    for s in &mut self.slots {
                        s.since = s.since.min(depth as u8);
                    }
                    self.loops.push(OpenLoop {
                        head: pc,
                        exit,
                        at_head: self.slots.clone(),
                        reads: vec![false; self.slots.len()],
                        out_len: self.out.len(),
                        retried: false,
                    });
                }
                self.load_i64(counter)?;
                self.load_i64(end)?;
                self.branch_to(pc, exit)?;
                self.store(var, Ty::I64);
            }
            Op::ForStep { counter, head } => {
                self.at_depth_0()?;
                self.load_i64(counter)?;
                let Some(l) = self.loops.last_mut().filter(|l| l.head == head) else {
                    return Err("back edge does not close the innermost loop".into());
                };
                let mut joined = l.at_head.clone();
                join_slots(&mut joined, &self.slots);
                let stale = (joined.iter().zip(&l.at_head).zip(&l.reads))
                    .any(|((j, h), read)| *read && j.ty != h.ty);
                if stale {
                    if l.retried {
                        return Err("loop types do not converge".into());
                    }
                    // Walk the body again under the join; the states it
                    // parked at the exit are recomputed.
                    l.retried = true;
                    l.at_head.clone_from(&joined);
                    self.out.truncate(l.out_len);
                    self.tys.truncate(l.out_len);
                    self.incoming.retain(|(t, _)| *t <= head);
                    self.slots = joined;
                    return Ok(head);
                }
                // The exit sees the head's state, this back edge included.
                let exit = l.exit;
                self.loops.pop();
                match self.incoming.iter_mut().find(|(t, _)| *t == exit) {
                    Some((_, state)) => join_slots(state, &self.slots),
                    None => return Err("loop exit is not a branch target".into()),
                }
                self.live = false;
            }
        }
        self.emit(op, ann);
        Ok(pc + 1)
    }
}

/// Slot → whether each of its typed values is varying, under
/// [`Program`]'s uniformity rule, for a typed stack program. Classes only
/// ever turn varying, so the walk repeats until none does.
fn varying_slots(ops: &[Op], tys: &[Ty], kinds: &[SlotKind]) -> Vec<[bool; 3]> {
    let mut varying: Vec<[bool; 3]> = kinds
        .iter()
        .map(|k| [matches!(k, SlotKind::Preset(_)); 3])
        .collect();
    // A verified stream never underflows.
    let pop = |stack: &mut Vec<bool>| stack.pop().unwrap_or(false);
    loop {
        // Uniform bit per stack entry.
        let mut stack: Vec<bool> = Vec::new();
        let mut diverge: Vec<(usize, u32)> = Vec::new();
        let mut stores: Vec<(usize, u16, Ty, bool)> = Vec::new();
        let uniform = |varying: &[[bool; 3]], s: u16, ty: Ty| !varying[s as usize][ty as usize];
        for (pc, (&op, &ty)) in ops.iter().zip(tys).enumerate() {
            match op {
                Op::ConstF(_) | Op::ConstI(_) | Op::ConstB(_) => stack.push(true),
                Op::Load(s) => stack.push(uniform(&varying, s, ty)),
                Op::Store(s) => {
                    let u = pop(&mut stack);
                    stores.push((pc, s, ty, u));
                }
                Op::Pop => stack.push(false),
                Op::Peek | Op::StateLoad(_) => {
                    pop(&mut stack);
                    stack.push(false);
                }
                Op::StateStore(_) => {
                    pop(&mut stack);
                    pop(&mut stack);
                }
                Op::PushOut => {
                    pop(&mut stack);
                }
                Op::Bin(_) | Op::Call(_) => {
                    let arity = match op {
                        Op::Call(intr) => intr.arity(),
                        _ => 2,
                    };
                    let u = (0..arity).fold(true, |u, _| pop(&mut stack) & u);
                    stack.push(u);
                }
                Op::Neg | Op::Not | Op::Cast(..) | Op::Jump(_) => {}
                Op::JumpIfFalse(t) => {
                    if !pop(&mut stack) {
                        diverge.push((pc + 1, t));
                    }
                }
                Op::ForInit { counter, end } => {
                    let e = pop(&mut stack);
                    let s = pop(&mut stack);
                    stores.push((pc, counter, Ty::I64, s));
                    stores.push((pc, end, Ty::I64, e));
                }
                Op::ForTest {
                    counter,
                    end,
                    var,
                    exit,
                } => {
                    let c = uniform(&varying, counter, Ty::I64);
                    if !(c && uniform(&varying, end, Ty::I64)) {
                        diverge.push((pc, exit));
                    }
                    stores.push((pc, var, Ty::I64, c));
                }
                Op::ForStep { counter, .. } => {
                    stores.push((pc, counter, Ty::I64, uniform(&varying, counter, Ty::I64)));
                }
            }
        }
        let control = varying_control(ops, &diverge);
        let mut changed = false;
        for (pc, s, ty, u) in stores {
            if !u || control[pc] {
                let v = &mut varying[s as usize][ty as usize];
                changed |= !*v;
                *v = true;
            }
        }
        if !changed {
            return varying;
        }
    }
}

/// Whether some resident lanes may skip op `pc`: it lies between a
/// divergent branch and the join of its lanes. `diverge` lists each
/// divergent branch as (first pc its lanes may split at, branch target).
/// The join is the target, pushed past every forward branch out of the
/// region (an `if`'s `Jump` over its `else`). Lowering emits nothing
/// else; a region some back edge leaves is answered by making all
/// control varying.
fn varying_control(ops: &[Op], diverge: &[(usize, u32)]) -> Vec<bool> {
    let mut open = vec![0i32; ops.len() + 1];
    for &(start, target) in diverge {
        let mut join = target as usize;
        let mut pc = start;
        while pc < join {
            match ops[pc] {
                Op::Jump(t) | Op::JumpIfFalse(t) | Op::ForTest { exit: t, .. } => {
                    join = join.max(t as usize)
                }
                Op::ForStep { head, .. } if (head as usize) < start => {
                    return vec![true; ops.len()];
                }
                _ => {}
            }
            pc += 1;
        }
        if start < join {
            open[start] += 1;
            open[join] -= 1;
        }
    }
    let mut depth = 0;
    open[..ops.len()]
        .iter()
        .map(|d| {
            depth += d;
            depth > 0
        })
        .collect()
}

/// Derives the register form from a typed stack program by running its
/// operand stack symbolically: each entry is the place its value lives,
/// so a `Load` or a literal pushes its slot's or constant's place and
/// emits nothing, and every other op reads its operands where they are.
struct RegBuilder<'a> {
    homes: &'a [[Option<Opnd>; 3]],
    /// First temp row and first temp scalar per number type.
    temp_row: [u16; 2],
    temp_sc: [u16; 2],
    temp_word: u16,
    /// Word holding `false`; `true` follows it.
    false_word: u16,
    shape: Shape,
    /// `f32` literals by bit pattern, so a NaN dedups with itself.
    f_consts: Vec<u32>,
    i_consts: Vec<i64>,
    code: Vec<Reg>,
    stack: Vec<(Ty, Opnd)>,
    /// `code` index of the op that computed the top of the stack, while
    /// nothing has been emitted since: a store that follows retargets it.
    fresh: Option<usize>,
}

impl<'a> RegBuilder<'a> {
    fn derive(
        ops: &[Op],
        tys: &[Ty],
        holds: &[[bool; 3]],
        varying: &[[bool; 3]],
        max_stack: usize,
        yields: bool,
    ) -> Typed<RegForm> {
        // Homes: varying number slots get rows, uniform ones scalars,
        // booleans words; each kind numbered densely per type.
        let (mut rows, mut scalars, mut words) = ([0usize; 2], [0usize; 2], 0usize);
        let homes: Vec<[Option<Opnd>; 3]> = (holds.iter().zip(varying))
            .map(|(held, vary)| {
                std::array::from_fn(|t| {
                    held[t].then(|| {
                        let next = match t {
                            2 => &mut words,
                            _ if vary[t] => &mut rows[t],
                            _ => &mut scalars[t],
                        };
                        *next += 1;
                        let i = (*next - 1) as u16;
                        if vary[t] {
                            Opnd::Row(i)
                        } else {
                            Opnd::Sc(i)
                        }
                    })
                })
            })
            .collect();
        // Every index below stays under this bound: literals are at most
        // one per op.
        let fits = |n: usize| n + max_stack + ops.len() + 2 < u16::MAX as usize;
        if !(rows.iter().chain(&scalars).all(|&n| fits(n)) && fits(words)) {
            return Err("program exceeds the frame's register space".into());
        }
        let n = max_stack as u16;
        let mut b = RegBuilder {
            homes: &homes,
            temp_row: rows.map(|r| r as u16),
            temp_sc: scalars.map(|s| s as u16),
            temp_word: words as u16,
            false_word: words as u16 + n,
            shape: Shape {
                rows: rows.map(|r| r as u16 + n + 1),
                scalars: scalars.map(|s| s as u16 + n),
                words: words as u16 + n + 2,
            },
            f_consts: Vec::new(),
            i_consts: Vec::new(),
            code: Vec::with_capacity(ops.len()),
            stack: Vec::with_capacity(max_stack),
            fresh: None,
        };
        // Stack pc → register pc, to retarget jumps.
        let mut at = Vec::with_capacity(ops.len() + 1);
        for (&op, &ty) in ops.iter().zip(tys) {
            at.push(b.code.len() as u32);
            b.step(op, ty);
        }
        at.push(b.code.len() as u32);
        let value_row = yields.then(|| {
            let (_, v) = b.pop();
            let row = b.temp_row[Ty::F32 as usize];
            if v != Opnd::Row(row) {
                b.emit(Reg::MovF(v, Dst::Temp(row)));
            }
            row
        });
        let RegBuilder {
            mut code,
            shape,
            f_consts,
            i_consts,
            ..
        } = b;
        for t in code.iter_mut().filter_map(Reg::target_mut) {
            *t = at[*t as usize];
        }
        Ok(RegForm {
            code,
            homes,
            shape,
            f_consts: f_consts.into_iter().map(f32::from_bits).collect(),
            i_consts,
            value_row,
        })
    }

    fn emit(&mut self, r: Reg) {
        self.code.push(r);
        self.fresh = None;
    }

    /// Emit `r`, which computes the value `place` of the new top of stack.
    fn emit_top(&mut self, r: Reg, ty: Ty, place: Opnd) {
        self.code.push(r);
        self.stack.push((ty, place));
        self.fresh = Some(self.code.len() - 1);
    }

    fn pop(&mut self) -> (Ty, Opnd) {
        self.stack.pop().expect("a verified stack program")
    }

    fn home(&self, slot: u16, ty: Ty) -> Opnd {
        self.homes[slot as usize][ty as usize].expect("typing records every type a slot holds")
    }

    /// Temp `i` of type `ty`: a row when varying, a scalar (a word for a
    /// boolean) when uniform.
    fn temp(&self, ty: Ty, i: usize, uniform: bool) -> Opnd {
        let i = i as u16;
        match (ty, uniform) {
            (Ty::Bool, true) => Opnd::Sc(self.temp_word + i),
            (Ty::Bool, false) => Opnd::Row(self.temp_word + i),
            (_, true) => Opnd::Sc(self.temp_sc[ty as usize] + i),
            (_, false) => Opnd::Row(self.temp_row[ty as usize] + i),
        }
    }

    fn literal<T: PartialEq + Copy>(pool: &mut Vec<T>, base: u16, v: T) -> Opnd {
        let i = pool.iter().position(|&c| c == v).unwrap_or_else(|| {
            pool.push(v);
            pool.len() - 1
        });
        Opnd::Sc(base + i as u16)
    }

    fn mov(ty: Ty, v: Opnd, dst: Dst) -> Reg {
        match ty {
            Ty::F32 => Reg::MovF(v, dst),
            Ty::I64 => Reg::MovI(v, dst),
            Ty::Bool => unreachable!("words move with MovB"),
        }
    }

    /// Before `slot` is written: copy every stack entry that still reads
    /// it in place — all but the top `keep` — to its temp. True when one
    /// did (lowering never leaves one; a decoded stream may).
    fn before_write(&mut self, slot: u16, keep: usize) -> bool {
        let homes = self.homes[slot as usize];
        let mut copied = false;
        for i in 0..self.stack.len().saturating_sub(keep) {
            let (ty, v) = self.stack[i];
            if homes[ty as usize] == Some(v) {
                let t = self.temp(ty, i, v.uniform());
                self.emit(match ty {
                    Ty::Bool => Reg::MovB(v.index() as u16, t.index() as u16),
                    _ => Self::mov(ty, v, Dst::temp(t)),
                });
                self.stack[i] = (ty, t);
                copied = true;
            }
        }
        copied
    }

    /// Translate one typed stack op.
    fn step(&mut self, op: Op, ty: Ty) {
        let fresh = self.fresh.take();
        let top = self.stack.len();
        let w = |o: Opnd| o.index() as u16;
        match op {
            Op::ConstF(x) => {
                let c = Self::literal(&mut self.f_consts, self.shape.scalars[0], x.to_bits());
                self.stack.push((Ty::F32, c));
            }
            Op::ConstI(i) => {
                let c = Self::literal(&mut self.i_consts, self.shape.scalars[1], i);
                self.stack.push((Ty::I64, c));
            }
            Op::ConstB(v) => self
                .stack
                .push((Ty::Bool, Opnd::Sc(self.false_word + v as u16))),
            Op::Load(s) => self.stack.push((ty, self.home(s, ty))),
            Op::Store(s) => {
                let home = self.home(s, ty);
                let copied = self.before_write(s, 1);
                let (_, v) = self.pop();
                match (ty, fresh.filter(|_| !copied)) {
                    (Ty::Bool, _) => self.emit(Reg::MovB(w(v), w(home))),
                    (_, Some(at)) => {
                        *self.code[at].dst_mut().expect("fresh ops write a Dst") = Dst::slot(home)
                    }
                    (_, None) => self.emit(Self::mov(ty, v, Dst::slot(home))),
                }
            }
            Op::Pop => {
                let t = self.temp(Ty::F32, top, false);
                self.emit_top(Reg::Pop(Dst::temp(t)), Ty::F32, t);
            }
            Op::Peek | Op::StateLoad(_) => {
                let (_, at) = self.pop();
                let t = self.temp(Ty::F32, top - 1, false);
                let r = match op {
                    Op::StateLoad(id) => Reg::StateLoad(id, at, Dst::temp(t)),
                    _ => Reg::Peek(at, Dst::temp(t)),
                };
                self.emit_top(r, Ty::F32, t);
            }
            Op::StateStore(id) => {
                let (_, v) = self.pop();
                let (_, at) = self.pop();
                self.emit(Reg::StateStore(id, at, v));
            }
            Op::PushOut => {
                let (_, v) = self.pop();
                self.emit(Reg::Push(v));
            }
            Op::Bin(op) => {
                let (_, y) = self.pop();
                let (_, x) = self.pop();
                let u = x.uniform() && y.uniform();
                let word = self.temp(Ty::Bool, top - 2, u);
                let t = self.temp(ty, top - 2, u);
                match ty {
                    Ty::Bool => self.emit_top(Reg::Logic(op, w(x), w(y), w(word)), Ty::Bool, word),
                    _ if op.is_comparison() => {
                        let r = match ty {
                            Ty::F32 => Reg::CmpF(op, x, y, w(word)),
                            _ => Reg::CmpI(op, x, y, w(word)),
                        };
                        self.emit_top(r, Ty::Bool, word);
                    }
                    Ty::F32 => self.emit_top(Reg::BinF(op, x, y, Dst::temp(t)), ty, t),
                    Ty::I64 => self.emit_top(Reg::BinI(op, x, y, Dst::temp(t)), ty, t),
                }
            }
            Op::Neg | Op::Not => {
                // `Not` carries no operand type: it only takes a Bool.
                let (ty, x) = self.pop();
                let t = self.temp(ty, top - 1, x.uniform());
                let r = match ty {
                    Ty::F32 => Reg::NegF(x, Dst::temp(t)),
                    Ty::I64 => Reg::NegI(x, Dst::temp(t)),
                    Ty::Bool => Reg::Not(w(x), w(t)),
                };
                self.emit_top(r, ty, t);
            }
            Op::Call(Intrinsic::Select) => {
                let (_, b) = self.pop();
                let (_, a) = self.pop();
                let (_, c) = self.pop();
                let u = c.uniform() && a.uniform() && b.uniform();
                let t = self.temp(ty, top - 3, u);
                let r = match ty {
                    Ty::F32 => Reg::SelF(w(c), a, b, Dst::temp(t)),
                    Ty::I64 => Reg::SelI(w(c), a, b, Dst::temp(t)),
                    Ty::Bool => Reg::SelB(w(c), w(a), w(b), w(t)),
                };
                self.emit_top(r, ty, t);
            }
            Op::Call(intr) => {
                let r = if intr.arity() == 1 {
                    let (_, x) = self.pop();
                    let t = self.temp(Ty::F32, top - 1, x.uniform());
                    (Reg::Call1(intr, x, Dst::temp(t)), t)
                } else {
                    let (_, y) = self.pop();
                    let (_, x) = self.pop();
                    let t = self.temp(Ty::F32, top - 2, x.uniform() && y.uniform());
                    (Reg::Call2(intr, x, y, Dst::temp(t)), t)
                };
                self.emit_top(r.0, Ty::F32, r.1);
            }
            Op::Cast(to, depth) => {
                let i = top - 1 - depth as usize;
                let (_, v) = self.stack[i];
                let t = self.temp(to, i, v.uniform());
                let r = match (ty, to) {
                    (Ty::I64, Ty::F32) => Reg::IToF(v, Dst::temp(t)),
                    (Ty::F32, Ty::I64) => Reg::FToI(v, Dst::temp(t)),
                    (Ty::F32, _) => Reg::FToB(v, w(t)),
                    _ => Reg::IToB(v, w(t)),
                };
                self.stack[i] = (to, t);
                self.code.push(r);
                self.fresh = (depth == 0).then(|| self.code.len() - 1);
            }
            Op::Jump(t) => self.emit(Reg::Jump(t)),
            Op::JumpIfFalse(t) => {
                let (_, c) = self.pop();
                self.emit(Reg::JumpIfFalse(w(c), t));
            }
            Op::ForInit { counter, end } => {
                self.before_write(counter, 0);
                self.before_write(end, 0);
                let (_, e) = self.pop();
                let (_, s) = self.pop();
                self.emit(Reg::MovI(s, Dst::slot(self.home(counter, Ty::I64))));
                self.emit(Reg::MovI(e, Dst::slot(self.home(end, Ty::I64))));
            }
            Op::ForTest {
                counter,
                end,
                var,
                exit,
            } => self.emit(Reg::ForTest {
                counter: self.home(counter, Ty::I64),
                end: self.home(end, Ty::I64),
                var: Dst::slot(self.home(var, Ty::I64)),
                exit,
            }),
            Op::ForStep { counter, head } => self.emit(Reg::ForStep {
                counter: self.home(counter, Ty::I64),
                head,
            }),
        }
    }
}

/// Compile a statement body.
///
/// `params` supplies the names readable as runtime bindings (their values
/// become [`SlotKind::Param`] slots, bound per launch); `presets` names
/// and types the scalars the owning kernel seeds directly (loop variables,
/// accumulators). Any other name that is read before the body could have
/// assigned it is rejected, mirroring the reference interpreter's
/// "unknown variable" runtime error.
///
/// # Errors
///
/// Returns [`Error::Runtime`] for unknown variables, for bodies exceeding
/// the `u16` slot space, and for bodies the typing rule rejects (see
/// [`Program`]).
pub fn compile_body(body: &[Stmt], params: &Bindings, presets: &[(&str, Ty)]) -> Result<Program> {
    let mut c = Compiler::new(params, presets);
    c.lower_body(body)?;
    c.finish()
}

/// Compile a single expression; evaluation via [`crate::warp::eval_row`]
/// yields its value, converted to `f32`.
///
/// # Errors
///
/// See [`compile_body`].
pub fn compile_expr(expr: &Expr, params: &Bindings, presets: &[(&str, Ty)]) -> Result<Program> {
    let mut c = Compiler::new(params, presets);
    c.lower_expr(expr)?;
    c.finish()
}

struct Compiler<'a> {
    ops: Vec<Op>,
    kinds: Vec<SlotKind>,
    names: Vec<String>,
    state_names: Vec<String>,
    slots: HashMap<String, u16>,
    params: &'a Bindings,
    hidden: usize,
}

impl<'a> Compiler<'a> {
    fn new(params: &'a Bindings, presets: &[(&str, Ty)]) -> Compiler<'a> {
        let mut c = Compiler {
            ops: Vec::new(),
            kinds: Vec::new(),
            names: Vec::new(),
            state_names: Vec::new(),
            slots: HashMap::new(),
            params,
            hidden: 0,
        };
        // Presets get the first slots so kernels can seed them cheaply.
        for (name, ty) in presets {
            c.alloc_slot(name, SlotKind::Preset(*ty));
        }
        c
    }

    /// Type the lowered ops (inserting the casts) and assemble the program.
    fn finish(self) -> Result<Program> {
        if self.kinds.len() >= u16::MAX as usize {
            return Err(Error::Runtime("work body exceeds the slot space".into()));
        }
        Typer::run(&self.ops, &self.kinds, true)
            .and_then(|typed| typed.into_program(self.kinds, self.names, self.state_names))
            .map_err(|e| Error::Runtime(format!("work body does not type: {e}")))
    }

    fn alloc_slot(&mut self, name: &str, kind: SlotKind) -> u16 {
        let id = self.kinds.len() as u16;
        self.kinds.push(kind);
        self.names.push(name.to_string());
        self.slots.insert(name.to_string(), id);
        id
    }

    fn hidden_slot(&mut self, prefix: &str) -> u16 {
        let name = format!("#{prefix}{}", self.hidden);
        self.hidden += 1;
        let id = self.kinds.len() as u16;
        self.kinds.push(SlotKind::Local);
        self.names.push(name);
        // Hidden slots are unreachable by name lookups: not in `slots`.
        id
    }

    /// Slot a name *reads* from: existing local/preset, else a parameter.
    fn read_slot(&mut self, name: &str) -> Result<u16> {
        if let Some(&id) = self.slots.get(name) {
            return Ok(id);
        }
        if self.params.contains_key(name) {
            return Ok(self.alloc_slot(name, SlotKind::Param));
        }
        Err(Error::Runtime(format!("unknown variable `{name}`")))
    }

    /// Slot a name *writes* to: allocated on first assignment. Assigning
    /// a parameter name shadows it (locals are looked up before
    /// bindings).
    fn write_slot(&mut self, name: &str) -> u16 {
        match self.slots.get(name) {
            Some(&id) => id,
            None if self.params.contains_key(name) => self.alloc_slot(name, SlotKind::Param),
            None => self.alloc_slot(name, SlotKind::Local),
        }
    }

    fn emit(&mut self, op: Op) -> usize {
        self.ops.push(op);
        self.ops.len() - 1
    }

    fn emit_const(&mut self, v: Value) {
        match v {
            Value::F32(x) => self.emit(Op::ConstF(x)),
            Value::I64(i) => self.emit(Op::ConstI(i)),
            Value::Bool(b) => self.emit(Op::ConstB(b)),
        };
    }

    fn state_id(&mut self, name: &str) -> u16 {
        match self.state_names.iter().position(|n| n == name) {
            Some(i) => i as u16,
            None => {
                self.state_names.push(name.to_string());
                (self.state_names.len() - 1) as u16
            }
        }
    }

    /// Fold an all-literal subtree to its value. Folding is attempted
    /// only on expressions with no I/O and no variable reads, using the
    /// same `eval_binop`/`eval_intrinsic` the reference interpreter uses, so folded
    /// results are bit-identical. A subtree whose folding *errors* (e.g.
    /// a literal division by zero) is emitted as ops instead, deferring
    /// the fault to runtime exactly like the interpreter.
    fn try_fold(&self, e: &Expr) -> Option<Value> {
        match e {
            Expr::Float(x) => Some(Value::F32(*x)),
            Expr::Int(i) => Some(Value::I64(*i)),
            Expr::Binary { op, lhs, rhs } => {
                let a = self.try_fold(lhs)?;
                let b = self.try_fold(rhs)?;
                eval_binop(*op, a, b).ok()
            }
            Expr::Unary { op, operand } => {
                let v = self.try_fold(operand)?;
                match op {
                    UnOp::Neg => match v {
                        Value::I64(i) => Some(Value::I64(i.wrapping_neg())),
                        other => other.as_f32().ok().map(|x| Value::F32(-x)),
                    },
                    UnOp::Not => Some(Value::Bool(!v.as_bool())),
                }
            }
            Expr::Call { intrinsic, args } => {
                let vals: Option<Vec<Value>> = args.iter().map(|a| self.try_fold(a)).collect();
                eval_intrinsic(*intrinsic, &vals?).ok()
            }
            Expr::Var(_) | Expr::Pop | Expr::Peek(_) | Expr::StateLoad { .. } => None,
        }
    }

    /// Lower an expression; exactly one value is left on the stack.
    fn lower_expr(&mut self, e: &Expr) -> Result<()> {
        if let Some(v) = self.try_fold(e) {
            self.emit_const(v);
            return Ok(());
        }
        match e {
            Expr::Float(x) => {
                self.emit(Op::ConstF(*x));
            }
            Expr::Int(i) => {
                self.emit(Op::ConstI(*i));
            }
            Expr::Var(name) => {
                let slot = self.read_slot(name)?;
                self.emit(Op::Load(slot));
            }
            Expr::Pop => {
                self.emit(Op::Pop);
            }
            Expr::Peek(off) => {
                self.lower_expr(off)?;
                self.emit(Op::Peek);
            }
            Expr::StateLoad { array, index } => {
                self.lower_expr(index)?;
                let id = self.state_id(array);
                self.emit(Op::StateLoad(id));
            }
            Expr::Binary { op, lhs, rhs } => {
                // Both sides always evaluate (`&&`/`||` do not
                // short-circuit), matching the interpreter.
                self.lower_expr(lhs)?;
                self.lower_expr(rhs)?;
                self.emit(Op::Bin(*op));
            }
            Expr::Unary { op, operand } => {
                self.lower_expr(operand)?;
                self.emit(match op {
                    UnOp::Neg => Op::Neg,
                    UnOp::Not => Op::Not,
                });
            }
            Expr::Call { intrinsic, args } => {
                if args.len() != intrinsic.arity() {
                    return Err(Error::Runtime(format!(
                        "{} expects {} arguments, got {}",
                        intrinsic.name(),
                        intrinsic.arity(),
                        args.len()
                    )));
                }
                for a in args {
                    self.lower_expr(a)?;
                }
                self.emit(Op::Call(*intrinsic));
            }
        }
        Ok(())
    }

    fn lower_body(&mut self, body: &[Stmt]) -> Result<()> {
        for stmt in body {
            match stmt {
                Stmt::Assign { name, expr } => {
                    // Expression first: `x = x + 1` with unknown `x` must
                    // fail, as it would in the interpreter.
                    self.lower_expr(expr)?;
                    let slot = self.write_slot(name);
                    self.emit(Op::Store(slot));
                }
                Stmt::StateStore { array, index, expr } => {
                    self.lower_expr(index)?;
                    self.lower_expr(expr)?;
                    let id = self.state_id(array);
                    self.emit(Op::StateStore(id));
                }
                Stmt::Push(e) => {
                    self.lower_expr(e)?;
                    self.emit(Op::PushOut);
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    self.lower_expr(cond)?;
                    let jf = self.emit(Op::JumpIfFalse(0));
                    self.lower_body(then_body)?;
                    if else_body.is_empty() {
                        let end = self.ops.len() as u32;
                        self.ops[jf] = Op::JumpIfFalse(end);
                    } else {
                        let jmp = self.emit(Op::Jump(0));
                        let else_head = self.ops.len() as u32;
                        self.ops[jf] = Op::JumpIfFalse(else_head);
                        self.lower_body(else_body)?;
                        let end = self.ops.len() as u32;
                        self.ops[jmp] = Op::Jump(end);
                    }
                }
                Stmt::For {
                    var,
                    start,
                    end,
                    body: loop_body,
                } => {
                    // The loop runs on a hidden counter; the user-visible
                    // variable is a copy refreshed each iteration, so body
                    // assignments to it cannot change the trip count —
                    // exactly the interpreter's `for i in lo..hi` loop.
                    self.lower_expr(start)?;
                    self.lower_expr(end)?;
                    let counter = self.hidden_slot("for");
                    let end_slot = self.hidden_slot("end");
                    let var_slot = self.write_slot(var);
                    self.emit(Op::ForInit {
                        counter,
                        end: end_slot,
                    });
                    let head = self.ops.len() as u32;
                    let test = self.emit(Op::ForTest {
                        counter,
                        end: end_slot,
                        var: var_slot,
                        exit: 0,
                    });
                    self.lower_body(loop_body)?;
                    self.emit(Op::ForStep { counter, head });
                    let exit = self.ops.len() as u32;
                    self.ops[test] = Op::ForTest {
                        counter,
                        end: end_slot,
                        var: var_slot,
                        exit,
                    };
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::warp::{self, HostIo, WarpFrame};
    use streamir::graph::bindings;
    use streamir::interp::Interpreter;
    use streamir::parse::parse_program;

    fn body_of(src: &str) -> Vec<Stmt> {
        parse_program(src).unwrap().actors[0].work.body.clone()
    }

    /// One firing of `prog` on a one-lane frame reset to `proto`, after
    /// `seed` writes its presets.
    fn fire(prog: &Program, proto: &[Value], io: &mut HostIo, seed: impl FnOnce(&mut WarpFrame)) {
        let mut wf = WarpFrame::default();
        wf.fit(prog, 1);
        wf.reset(proto);
        seed(&mut wf);
        warp::eval(prog, &mut wf, 1, io);
    }

    /// One firing of the one-actor program `src` under the reference
    /// interpreter and compiled, on a one-lane frame; returns the
    /// interpreter's output and the compiled run's I/O.
    fn run_both<'a>(src: &str, params: &[(&str, i64)], input: &'a [f32]) -> (Vec<f32>, HostIo<'a>) {
        let program = parse_program(src).unwrap();
        let mut it = Interpreter::new(&program);
        for (name, v) in params {
            it.bind_param(name, *v);
        }
        let want = it.run(input).unwrap();

        let binds = bindings(params);
        let prog = compile_body(&program.actors[0].work.body, &binds, &[]).unwrap();
        let mut io = HostIo {
            window: input,
            ..HostIo::default()
        };
        fire(&prog, &prog.bind(&binds).unwrap(), &mut io, |_| {});
        (want, io)
    }

    #[test]
    fn sum_body_matches_interpreter() {
        let (want, got) = run_both(
            r#"pipeline P(N) {
                actor Sum(pop N, push 1) {
                    acc = 0.0;
                    for i in 0..N { acc = acc + pop(); }
                    push(acc);
                }
            }"#,
            &[("N", 4)],
            &[1.0, 2.5, -3.0, 8.0],
        );
        assert_eq!(want, got.output);
        assert_eq!(got.popped, 4);
    }

    #[test]
    fn branches_and_intrinsics_match_interpreter() {
        let src = r#"pipeline P() {
            actor A(pop 2, push 1) {
                x = pop();
                y = pop();
                if (x < y) { z = max(x, y * 2.0); } else { z = min(x, -y); }
                push(sqrt(abs(z)));
            }
        }"#;
        for input in [vec![1.0, 5.0], vec![5.0, 1.0]] {
            let (want, got) = run_both(src, &[], &input);
            assert_eq!(want, got.output);
        }
    }

    #[test]
    fn loop_var_assignment_does_not_change_trip_count() {
        // The interpreter drives `for` with its own Rust counter; writing
        // the loop variable inside the body must not affect iteration.
        let (want, got) = run_both(
            r#"pipeline P() {
                actor A(pop 1, push 1) {
                    s = 0.0;
                    for i in 0..4 { i = 100; s = s + 1.0; }
                    push(s);
                }
            }"#,
            &[],
            &[0.0],
        );
        assert_eq!(want, vec![4.0]);
        assert_eq!(want, got.output);
    }

    #[test]
    fn constants_fold_without_touching_io() {
        let src = r#"pipeline P() {
            actor A(pop 1, push 1) {
                push(pop() * (2.0 + 3.0 * 4.0));
            }
        }"#;
        let prog = compile_body(&body_of(src), &bindings(&[]), &[]).unwrap();
        // `2.0 + 3.0 * 4.0` folds to a single constant.
        let consts = prog
            .ops()
            .iter()
            .filter(|o| matches!(o, Op::ConstF(_)))
            .count();
        assert_eq!(consts, 1);
        assert!(prog
            .ops()
            .iter()
            .any(|o| matches!(o, Op::ConstF(x) if *x == 14.0)));
        let (want, got) = run_both(src, &[], &[2.0]);
        assert_eq!(want, got.output);
    }

    #[test]
    fn peeks_read_the_window_without_consuming() {
        let (want, got) = run_both(
            r#"pipeline P() {
                actor A(pop 2, push 1, peek 2) {
                    push(peek(1) * 10.0 + peek(0));
                }
            }"#,
            &[],
            &[5.0, 7.0],
        );
        assert_eq!(want, vec![75.0]);
        assert_eq!(want, got.output);
        assert_eq!(got.popped, 0);
    }

    #[test]
    fn state_arrays_get_dense_ids() {
        let body = body_of(
            r#"pipeline P() {
                actor A(pop 1, push 1) {
                    state w[4];
                    state v[4];
                    w[1] = pop();
                    push(w[1] + v[0]);
                }
            }"#,
        );
        let binds = bindings(&[]);
        let prog = compile_body(&body, &binds, &[]).unwrap();
        assert_eq!(prog.state_names(), &["w".to_string(), "v".to_string()]);
        assert_eq!(prog.state_index("w"), Some(0));
        assert_eq!(prog.state_index("v"), Some(1));

        let mut io = HostIo {
            window: &[3.0],
            state: vec![vec![0.0; 4], vec![7.0; 4]],
            ..HostIo::default()
        };
        fire(&prog, &prog.bind(&binds).unwrap(), &mut io, |_| {});
        assert_eq!(io.output, vec![10.0]);
        assert_eq!(io.state[0][1], 3.0);
    }

    #[test]
    fn params_bind_per_launch() {
        let body = body_of(
            r#"pipeline P(N) {
                actor A(pop 1, push 1) {
                    push(pop() + N);
                }
            }"#,
        );
        let binds = bindings(&[("N", 5)]);
        let prog = compile_body(&body, &binds, &[]).unwrap();
        let proto = prog.bind(&bindings(&[("N", 7)])).unwrap();
        let mut io = HostIo {
            window: &[1.0],
            ..HostIo::default()
        };
        fire(&prog, &proto, &mut io, |_| {});
        assert_eq!(io.output, vec![8.0]);
        assert!(prog.bind(&bindings(&[])).is_err());
    }

    #[test]
    fn presets_are_seedable_slots() {
        let body = body_of(
            r#"pipeline P() {
                actor A(pop 1, push 1) {
                    push(pop() + i);
                }
            }"#,
        );
        let binds = bindings(&[]);
        let prog = compile_body(&body, &binds, &[("i", Ty::I64)]).unwrap();
        let slot = prog.slot_of("i").unwrap();
        let mut io = HostIo {
            window: &[1.0],
            ..HostIo::default()
        };
        fire(&prog, &prog.bind(&binds).unwrap(), &mut io, |wf| {
            wf.i64_row_mut(slot)[0] = 41;
        });
        assert_eq!(io.output, vec![42.0]);
    }

    #[test]
    fn unknown_variable_rejected_at_compile_time() {
        let body = vec![Stmt::Push(Expr::var("ghost"))];
        assert!(compile_body(&body, &bindings(&[]), &[]).is_err());
    }

    #[test]
    fn integer_arithmetic_wraps() {
        let (want, got) = run_both(
            r#"pipeline P() {
                actor W(pop 1, push 1) {
                    k = 9223372036854775807;
                    k = k + 1;
                    x = pop();
                    push(select(k < 0, x, 0.0 - x));
                }
            }"#,
            &[],
            &[3.0],
        );
        assert_eq!(want, vec![3.0]);
        assert_eq!(want, got.output);
    }

    fn actor(stmts: &str) -> String {
        format!("pipeline P(N) {{ actor A(pop 1, push 1) {{ {stmts} }} }}")
    }

    /// The typing error `stmts` is rejected with.
    fn type_error(stmts: &str) -> String {
        match compile_body(&body_of(&actor(stmts)), &bindings(&[("N", 5)]), &[]) {
            Err(Error::Runtime(msg)) => msg,
            other => panic!("expected a typing error, got {other:?}"),
        }
    }

    #[test]
    fn int_float_pairs_promote_through_an_explicit_cast() {
        let src = actor("k = N / 2; push(pop() * k);");
        let prog = compile_body(&body_of(&src), &bindings(&[("N", 5)]), &[]).unwrap();
        // `N / 2` stays integral; `pop() * k` runs as f32 on a cast `k`.
        assert!(prog.ops().contains(&Op::Cast(Ty::F32, 0)));
        let runs = |want: fn(&Reg) -> bool| prog.reg().code.iter().any(want);
        assert!(runs(|r| matches!(r, Reg::BinI(BinOp::Div, ..))));
        assert!(runs(|r| matches!(r, Reg::IToF(..))));
        assert!(runs(|r| matches!(r, Reg::BinF(BinOp::Mul, ..))));
        let (want, got) = run_both(&src, &[("N", 5)], &[1.5]);
        assert_eq!(want, vec![3.0]);
        assert_eq!(want, got.output);
    }

    #[test]
    fn select_arms_must_agree_in_type() {
        let (want, got) = run_both(
            &actor("x = pop(); push(select(x < 0.0, 1.0, x));"),
            &[("N", 5)],
            &[-4.0],
        );
        assert_eq!(want, got.output);
        assert!(type_error("x = pop(); push(select(x < 0.0, 1, x));").contains("select"));
    }

    #[test]
    fn a_slot_stored_with_two_types_gets_a_row_per_type() {
        let src = actor("t = N; a = t + 1; t = pop(); push(t + a);");
        let prog = compile_body(&body_of(&src), &bindings(&[("N", 5)]), &[]).unwrap();
        let [f, i, b] = prog.reg().homes[prog.slot_of("t").unwrap() as usize];
        assert!(f.is_some() && i.is_some() && b.is_none());
        // Each load reads the home of the type stored last before it:
        // `t + 1` adds the i64 one, `t + a` the f32 one.
        let code = &prog.reg().code;
        assert!(code
            .iter()
            .any(|r| matches!(*r, Reg::BinI(BinOp::Add, x, ..) if Some(x) == i)));
        assert!(code
            .iter()
            .any(|r| matches!(*r, Reg::BinF(BinOp::Add, x, ..) if Some(x) == f)));
        let (want, got) = run_both(&src, &[("N", 5)], &[0.5]);
        assert_eq!(want, vec![6.5]);
        assert_eq!(want, got.output);
    }

    #[test]
    fn path_dependent_slot_types_are_compile_errors() {
        let branch = "x = pop(); if (x < 0.0) { t = 1; } else { t = 2.5; }";
        assert!(type_error(&format!("{branch} push(t);")).contains("depends on the path"));
        // Unread after the join, the same stores are fine.
        compile_body(
            &body_of(&actor(&format!("{branch} push(x);"))),
            &bindings(&[]),
            &[],
        )
        .unwrap();
        // A back edge is a path too: `acc` is i64 on entry, f32 after.
        let looped = "acc = 0; for i in 0..4 { acc = acc + pop(); } push(acc);";
        assert!(type_error(looped).contains("depends on the path"));
        // A boolean never becomes a number.
        assert!(type_error("x = pop(); push(x < 1.0);").contains("Bool"));
    }

    #[test]
    fn from_raw_reinfers_types_and_rejects_ill_typed_streams() {
        let src = actor("push(pop() + N);");
        let prog = compile_body(&body_of(&src), &bindings(&[("N", 5)]), &[]).unwrap();
        let raw = |ops: Vec<Op>| {
            Program::from_raw(
                ops,
                prog.kinds().to_vec(),
                prog.names().to_vec(),
                prog.state_names().to_vec(),
                prog.max_stack(),
            )
        };
        assert_eq!(raw(prog.ops().to_vec()).as_ref(), Ok(&prog));
        // Drop the cast: `+` would apply to an f32 and an i64 row.
        let mut ops = prog.ops().to_vec();
        let cast = ops.iter().position(|o| matches!(o, Op::Cast(..))).unwrap();
        ops.remove(cast);
        assert!(raw(ops).unwrap_err().contains("expected F32"));
        // Retype the cast: a number row cannot come from a mask.
        let mut ops = prog.ops().to_vec();
        ops[cast] = Op::Cast(Ty::Bool, 0);
        assert!(raw(ops).is_err());
    }

    #[test]
    fn expression_programs_yield_values() {
        let e = Expr::bin(BinOp::Mul, Expr::var("acc"), Expr::Float(0.5));
        let binds = bindings(&[]);
        let prog = compile_expr(&e, &binds, &[("acc", Ty::F32)]).unwrap();
        let slot = prog.slot_of("acc").unwrap();
        let mut wf = WarpFrame::default();
        wf.fit(&prog, 1);
        wf.reset(&prog.bind(&binds).unwrap());
        wf.f32_row_mut(slot)[0] = 8.0;
        let v = warp::eval_row(&prog, &mut wf, 1, &mut HostIo::default())[0];
        assert_eq!(v, 4.0);
    }

    /// `stmts` compiled with parameter `N` and the given presets; returns
    /// the program and a lookup of whether a named slot is uniform.
    fn uniformity(stmts: &str, presets: &[(&str, Ty)]) -> (Program, impl Fn(&str) -> bool) {
        let prog = compile_body(&body_of(&actor(stmts)), &bindings(&[("N", 5)]), presets).unwrap();
        let p = prog.clone();
        // Uniform when every type the slot holds is one scalar per warp.
        (prog, move |name| {
            let homes = p.reg().homes[p.slot_of(name).unwrap() as usize];
            homes.iter().flatten().all(|h| h.uniform())
        })
    }

    #[test]
    fn a_slot_stored_under_a_varying_branch_is_varying() {
        let (_, uniform) = uniformity("t = 1.0; if (pop() > 0.0) { t = 2.0; } push(t);", &[]);
        assert!(!uniform("t"));
        // The same literal stores under uniform control stay one scalar.
        let (_, uniform) = uniformity("t = 1.0; if (N > 2) { t = 2.0; } push(t + pop());", &[]);
        assert!(uniform("t"));
    }

    #[test]
    fn loop_counters_follow_their_bounds() {
        let (_, uniform) = uniformity(
            "n = pop(); s = 0.0; for i in 0..n { s = s + 1.0; } push(s);",
            &[],
        );
        assert!(!uniform("#for0") && !uniform("i") && !uniform("s"));
        let (prog, uniform) = uniformity(
            "s = 0.0; for i in 0..N { s = s + 1.0; } push(s + pop());",
            &[],
        );
        assert!(uniform("#for0") && uniform("#end1") && uniform("i") && uniform("s"));
        // The loop test is one scalar comparison.
        assert!(prog.reg().code.iter().any(|r| matches!(
            r,
            Reg::ForTest {
                counter: Opnd::Sc(_),
                end: Opnd::Sc(_),
                var: Dst::Sc(_),
                ..
            }
        )));
    }

    #[test]
    fn a_uniform_store_inside_a_varying_loop_is_varying() {
        let (_, uniform) = uniformity(
            "n = pop(); u = 0.0; for i in 0..n { u = 1.0; } push(u);",
            &[],
        );
        assert!(!uniform("u"));
    }

    #[test]
    fn every_preset_is_varying() {
        let presets = [("k", Ty::I64), ("acc", Ty::F32)];
        let (_, uniform) = uniformity("acc = 1.0; push(acc + k + pop());", &presets);
        assert!(!uniform("k") && !uniform("acc"));
    }

    #[test]
    fn register_form_reads_operands_in_place() {
        // Loads and literals emit nothing and a store retargets the op
        // computing its value: `x * 2.0 + x` is a product into a temp row
        // and a sum writing `y`'s row, with the literal a scalar.
        let src = "x = pop(); y = x * 2.0 + x; push(y);";
        let (prog, uniform) = uniformity(src, &[]);
        assert!(!uniform("x") && !uniform("y"));
        let code = &prog.reg().code;
        assert!(matches!(
            code[..],
            [
                Reg::Pop(Dst::Slot(_)),
                Reg::BinF(BinOp::Mul, Opnd::Row(_), Opnd::Sc(_), Dst::Temp(t)),
                Reg::BinF(BinOp::Add, Opnd::Row(u), Opnd::Row(_), Dst::Slot(_)),
                Reg::Push(Opnd::Row(_)),
            ] if t == u
        ));
        let (want, got) = run_both(&actor(src), &[("N", 5)], &[1.5]);
        assert_eq!(want, got.output);
    }
}
