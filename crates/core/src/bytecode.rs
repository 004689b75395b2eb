//! Register bytecode for actor work bodies.
//!
//! Every work body is lowered once per *program*: [`compile_body`] walks a
//! validated body's AST and emits the register code [`crate::warp::eval`]
//! runs, with
//!
//! - locals resolved to dense `u16` slots (parameters become slots bound
//!   from [`Bindings`] once per launch, template-supplied scalars like the
//!   loop variable become *preset* slots the kernel writes directly),
//! - state arrays resolved to dense ids in first-use order,
//! - all-literal subtrees constant-folded (folding never crosses an I/O
//!   expression, so the observable `pop`/`peek`/state sequence — and thus
//!   every `KernelStats` counter — is unchanged),
//! - `for` loops driven by a *hidden* counter slot so body assignments to
//!   the loop variable cannot perturb iteration, exactly like the
//!   reference interpreter's Rust-side `for i in lo..hi` loop,
//! - every value statically typed ([`Ty`], see [`Program`]'s typing rule):
//!   each coercion the interpreter performs per value becomes an explicit
//!   cast op, and every op runs at one operand type, so the warp evaluator
//!   works on untagged `f32`/`i64`/mask rows,
//! - every value classed *uniform* (the same on every lane of a warp) or
//!   *varying* (see [`Program`]'s uniformity rule); uniform values live in
//!   one scalar per warp instead of a row.
//!
//! Lowering is one walk of the AST, repeated until the uniformity classes
//! settle. Each walk types the body — an `if` joins its arms' slot types,
//! a `for` body is walked again once when its back edge changes the type
//! of a slot the body read — classes every store, and emits register ops
//! that read their operands in place (a slot's home, a temp — the value
//! of an expression at depth `d` is temp `d` — or a literal scalar) and
//! write a temp or, when a store takes the value, the slot itself. The
//! code of the walk that changed no class is the program.
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
    /// A copy: a store whose value no op of its own computed.
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
    /// expression depth, then one scratch row (the last).
    pub rows: [u16; 2],
    /// Scalars per number type ahead of the constants: uniform slots,
    /// then one temp per expression depth.
    pub scalars: [u16; 2],
    /// Lane-mask words: boolean slots, one temp per expression depth,
    /// then `false` and `true`.
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

/// A compiled work body (or expression): the slot and state-id tables
/// produced by lowering and the register code, with the static types and
/// uniformity classes it was lowered under.
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
/// and each read reads the one inferred where it stands. There is no
/// dynamic fallback: a read of a slot whose type depends on the path
/// taken, a `select` whose arms differ in type, and a boolean used as a
/// number are compile errors.
///
/// # Uniformity rule
///
/// Literals, parameters and pure ops over uniform operands are uniform.
/// Presets (a template's element index, an accumulator), `pop`, `peek`
/// and state loads are varying. Control is varying inside the arms of an
/// `if` on a varying condition, and inside a loop whose counter or end is
/// varying: some lanes may skip that code. A slot is uniform when every
/// store to it stores a uniform value under uniform control; otherwise it
/// is varying for the whole body, because the lanes that skipped a store
/// keep their old value after the join. The classes are per slot and type
/// and found by iterating to a fixed point (a loop's back edge can carry a
/// varying store to a read above it). A uniform slot is one scalar per
/// warp; a varying one a row.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Per-slot init kind; parallel to `names`.
    kinds: Vec<SlotKind>,
    /// Slot names (hidden loop slots get `#for{n}`/`#end{n}` names).
    names: Vec<String>,
    /// Dense state id → array name, in first-use order.
    state_names: Vec<String>,
    reg: RegForm,
}

impl Program {
    /// The register code (read-only; its length is the op count).
    pub fn ops(&self) -> &[impl Sized] {
        &self.reg.code
    }

    /// Dense state id → array name, in first-use order.
    pub fn state_names(&self) -> &[String] {
        &self.state_names
    }

    /// The register form [`crate::warp::eval`] runs.
    #[inline]
    pub(crate) fn reg(&self) -> &RegForm {
        &self.reg
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
    let mut l = Lower::new(params, presets);
    l.resolve_body(body)?;
    l.finish(|l| l.body(body).map(|()| None))
}

/// Compile a single expression; evaluation via [`crate::warp::eval_row`]
/// yields its value, converted to `f32`.
///
/// # Errors
///
/// See [`compile_body`].
pub fn compile_expr(expr: &Expr, params: &Bindings, presets: &[(&str, Ty)]) -> Result<Program> {
    let mut l = Lower::new(params, presets);
    l.resolve_expr(expr)?;
    l.finish(|l| {
        let v = l.expr(expr, 0)?;
        l.coerce(v, 0, Ty::F32).map(Some)
    })
}

type Typed<T> = std::result::Result<T, String>;

/// What typing knows of a slot at one point of a walk.
#[derive(Debug, Clone, Copy)]
struct SlotAt {
    /// Bit `ty` is set when some path here last stored a `ty`. No bit:
    /// never stored, reads see the zeros a frame reset leaves; more than
    /// one: the type depends on the path taken.
    tys: u8,
    /// Nesting depth of the outermost open loop whose head reaches here
    /// without a store to the slot ([`NO_LOOP`] when none does): a read
    /// here sees what that loop's back edge carries in.
    since: u8,
}

const NO_LOOP: u8 = u8::MAX;

/// The slot states at a join of two paths.
fn join(into: &mut [SlotAt], from: &[SlotAt]) {
    for (a, b) in into.iter_mut().zip(from) {
        a.tys |= b.tys;
        a.since = a.since.min(b.since);
    }
}

/// A lowered value: its type, where it lives, and whether it is the
/// result of the last op emitted (a store then writes it in place).
#[derive(Debug, Clone, Copy)]
struct Val {
    ty: Ty,
    at: Opnd,
    fresh: bool,
}

/// The word a boolean operand names.
fn word(o: Opnd) -> u16 {
    o.index() as u16
}

/// An all-literal subtree's value. Folding uses the same
/// `eval_binop`/`eval_intrinsic` the reference interpreter uses, so folded
/// results are bit-identical. A subtree whose folding *errors* (e.g. a
/// literal division by zero) is lowered as ops instead, deferring the
/// fault to runtime exactly like the interpreter.
fn fold(e: &Expr) -> Option<Value> {
    match e {
        Expr::Float(x) => Some(Value::F32(*x)),
        Expr::Int(i) => Some(Value::I64(*i)),
        Expr::Binary { op, lhs, rhs } => eval_binop(*op, fold(lhs)?, fold(rhs)?).ok(),
        Expr::Unary { op, operand } => {
            let v = fold(operand)?;
            match op {
                UnOp::Neg => match v {
                    Value::I64(i) => Some(Value::I64(i.wrapping_neg())),
                    other => other.as_f32().ok().map(|x| Value::F32(-x)),
                },
                UnOp::Not => Some(Value::Bool(!v.as_bool())),
            }
        }
        Expr::Call { intrinsic, args } => {
            let vals: Option<Vec<Value>> = args.iter().map(fold).collect();
            eval_intrinsic(*intrinsic, &vals?).ok()
        }
        Expr::Var(_) | Expr::Pop | Expr::Peek(_) | Expr::StateLoad { .. } => None,
    }
}

/// Lowers one body: [`Lower::resolve_body`] allocates its slots and state
/// ids, then [`Lower::finish`] walks it until its uniformity classes
/// settle.
struct Lower<'a> {
    params: &'a Bindings,
    kinds: Vec<SlotKind>,
    names: Vec<String>,
    state_names: Vec<String>,
    /// Named slots; hidden loop slots are unreachable by name.
    slots: HashMap<String, u16>,
    /// Each `for`'s hidden (counter, end) slots, in preorder.
    loops: Vec<(u16, u16)>,

    // Typing, redone by every walk.
    at: Vec<SlotAt>,
    /// Per open loop: the slots its body read as its head left them.
    reads: Vec<Vec<bool>>,
    /// Preorder index of the next `for` the walk meets.
    next_loop: usize,
    /// Slot → whether it ever holds each [`Ty`] — in any walk, the first
    /// walk of a loop body that is walked again included.
    holds: Vec<[bool; 3]>,
    /// Deepest expression: the temps a frame holds.
    max_stack: usize,

    // Uniformity.
    /// Slot → whether each of its typed values is varying.
    varying: Vec<[bool; 3]>,
    /// Varying branches and loops around the code being walked.
    vary: usize,
    /// The (slot, type) pairs this walk turns varying.
    marks: Vec<(u16, Ty)>,

    // Emission, under the homes the last walk's classes gave.
    homes: Vec<[Option<Opnd>; 3]>,
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
}

impl<'a> Lower<'a> {
    fn new(params: &'a Bindings, presets: &[(&str, Ty)]) -> Lower<'a> {
        let mut l = Lower {
            params,
            kinds: Vec::new(),
            names: Vec::new(),
            state_names: Vec::new(),
            slots: HashMap::new(),
            loops: Vec::new(),
            at: Vec::new(),
            reads: Vec::new(),
            next_loop: 0,
            holds: Vec::new(),
            max_stack: 0,
            varying: Vec::new(),
            vary: 0,
            marks: Vec::new(),
            homes: Vec::new(),
            temp_row: [0; 2],
            temp_sc: [0; 2],
            temp_word: 0,
            false_word: 0,
            shape: Shape::default(),
            f_consts: Vec::new(),
            i_consts: Vec::new(),
            code: Vec::new(),
        };
        // Presets get the first slots so kernels can seed them cheaply.
        for (name, ty) in presets {
            l.alloc_slot(name, SlotKind::Preset(*ty));
        }
        l
    }

    fn alloc_slot(&mut self, name: &str, kind: SlotKind) -> u16 {
        let id = self.kinds.len() as u16;
        self.kinds.push(kind);
        self.names.push(name.to_string());
        self.slots.insert(name.to_string(), id);
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

    fn state_id(&mut self, name: &str) -> u16 {
        match self.state_names.iter().position(|n| n == name) {
            Some(i) => i as u16,
            None => {
                self.state_names.push(name.to_string());
                (self.state_names.len() - 1) as u16
            }
        }
    }

    /// Allocate the slots and state ids of `body` in the order it names
    /// them, rejecting unknown variables and misused intrinsics.
    fn resolve_body(&mut self, body: &[Stmt]) -> Result<()> {
        for stmt in body {
            match stmt {
                Stmt::Assign { name, expr } => {
                    // Expression first: `x = x + 1` with unknown `x` must
                    // fail, as it would in the interpreter.
                    self.resolve_expr(expr)?;
                    self.write_slot(name);
                }
                Stmt::StateStore { array, index, expr } => {
                    self.resolve_expr(index)?;
                    self.resolve_expr(expr)?;
                    self.state_id(array);
                }
                Stmt::Push(e) => self.resolve_expr(e)?,
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    self.resolve_expr(cond)?;
                    self.resolve_body(then_body)?;
                    self.resolve_body(else_body)?;
                }
                Stmt::For {
                    var,
                    start,
                    end,
                    body,
                } => {
                    self.resolve_expr(start)?;
                    self.resolve_expr(end)?;
                    // The loop runs on a hidden counter; the user-visible
                    // variable is a copy refreshed each iteration, so body
                    // assignments to it cannot change the trip count —
                    // exactly the interpreter's `for i in lo..hi` loop.
                    let n = 2 * self.loops.len();
                    let mut hidden = |name: String| {
                        self.kinds.push(SlotKind::Local);
                        self.names.push(name);
                        (self.kinds.len() - 1) as u16
                    };
                    let counter = hidden(format!("#for{n}"));
                    let end = hidden(format!("#end{}", n + 1));
                    self.loops.push((counter, end));
                    self.write_slot(var);
                    self.resolve_body(body)?;
                }
            }
        }
        Ok(())
    }

    fn resolve_expr(&mut self, e: &Expr) -> Result<()> {
        match e {
            Expr::Float(_) | Expr::Int(_) | Expr::Pop => {}
            Expr::Var(name) => {
                self.read_slot(name)?;
            }
            Expr::Peek(e) | Expr::Unary { operand: e, .. } => self.resolve_expr(e)?,
            Expr::StateLoad { array, index } => {
                self.resolve_expr(index)?;
                self.state_id(array);
            }
            Expr::Binary { lhs, rhs, .. } => {
                self.resolve_expr(lhs)?;
                self.resolve_expr(rhs)?;
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
                    self.resolve_expr(a)?;
                }
            }
        }
        Ok(())
    }

    /// Walk the resolved body with `walk` until a walk turns no class
    /// varying, and assemble that walk's code into the program.
    fn finish(mut self, walk: impl Fn(&mut Self) -> Typed<Option<Val>>) -> Result<Program> {
        let n = self.kinds.len();
        if n >= u16::MAX as usize {
            return Err(Error::Runtime("work body exceeds the slot space".into()));
        }
        let unset = SlotAt {
            tys: 0,
            since: NO_LOOP,
        };
        self.at = vec![unset; n];
        self.holds = vec![[false; 3]; n];
        for s in 0..n {
            match self.kinds[s] {
                SlotKind::Local => {}
                SlotKind::Param => self.set(s as u16, Ty::I64),
                SlotKind::Preset(ty) => self.set(s as u16, ty),
            }
        }
        let start = self.at.clone();
        self.varying = (self.kinds.iter())
            .map(|k| [matches!(k, SlotKind::Preset(_)); 3])
            .collect();
        let fail = |e| Error::Runtime(format!("work body does not type: {e}"));
        let mut placed = false;
        loop {
            self.at.clone_from(&start);
            self.next_loop = 0;
            self.code.clear();
            self.f_consts.clear();
            self.i_consts.clear();
            let value = walk(&mut self).map_err(fail)?;
            let mut changed = false;
            for (s, ty) in self.marks.drain(..) {
                let v = &mut self.varying[s as usize][ty as usize];
                changed |= !*v;
                *v = true;
            }
            if placed && !changed {
                return Ok(self.into_program(value));
            }
            self.place().map_err(fail)?;
            placed = true;
        }
    }

    /// Give every type a slot holds a home by its class — varying number
    /// slots rows, uniform ones scalars, booleans words, each numbered
    /// densely per type — and lay the temps and literals out after them.
    fn place(&mut self) -> Typed<()> {
        let (mut rows, mut scalars, mut words) = ([0usize; 2], [0usize; 2], 0usize);
        self.homes = (self.holds.iter().zip(&self.varying))
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
        // Temps follow the homes and literals the scalar temps; every walk
        // pools the literals the last one did.
        let (n, max) = (self.max_stack, u16::MAX as usize);
        let consts = [self.f_consts.len(), self.i_consts.len()];
        let fits = (0..2).all(|t| rows[t] + n + 1 < max && scalars[t] + n + consts[t] < max);
        if !(fits && words + n + 2 < max) {
            return Err("program exceeds the frame's register space".into());
        }
        let n = self.max_stack as u16;
        self.temp_row = rows.map(|r| r as u16);
        self.temp_sc = scalars.map(|s| s as u16);
        self.temp_word = words as u16;
        self.false_word = words as u16 + n;
        self.shape = Shape {
            rows: rows.map(|r| r as u16 + n + 1),
            scalars: scalars.map(|s| s as u16 + n),
            words: words as u16 + n + 2,
        };
        Ok(())
    }

    /// The program, with an expression's value moved to the first `f32`
    /// temp row.
    fn into_program(mut self, value: Option<Val>) -> Program {
        let value_row = value.map(|v| {
            let row = self.temp_row[Ty::F32 as usize];
            if v.at != Opnd::Row(row) {
                self.code.push(Reg::MovF(v.at, Dst::Temp(row)));
            }
            row
        });
        Program {
            kinds: self.kinds,
            names: self.names,
            state_names: self.state_names,
            reg: RegForm {
                code: self.code,
                homes: self.homes,
                shape: self.shape,
                f_consts: self.f_consts.into_iter().map(f32::from_bits).collect(),
                i_consts: self.i_consts,
                value_row,
            },
        }
    }

    /// `slot` now holds a `ty`.
    fn set(&mut self, s: u16, ty: Ty) {
        self.at[s as usize] = SlotAt {
            tys: 1 << ty as u8,
            since: NO_LOOP,
        };
        self.holds[s as usize][ty as usize] = true;
    }

    /// The type a read of `s` sees here.
    fn load(&mut self, s: u16) -> Typed<Ty> {
        let SlotAt { tys, since } = self.at[s as usize];
        for reads in self.reads.iter_mut().skip(since as usize) {
            reads[s as usize] = true;
        }
        match tys {
            0 => {
                self.holds[s as usize][Ty::F32 as usize] = true;
                Ok(Ty::F32)
            }
            1 => Ok(Ty::F32),
            2 => Ok(Ty::I64),
            4 => Ok(Ty::Bool),
            _ => Err(format!("the type of slot {s} depends on the path taken")),
        }
    }

    /// A store of `v` to `s` turns its class varying unless `v` is uniform
    /// and every lane runs the store.
    fn mark(&mut self, s: u16, ty: Ty, v: Opnd) {
        if !v.uniform() || self.vary > 0 {
            self.marks.push((s, ty));
        }
    }

    /// Where slot `s` holds its `ty`. Before the first walk has placed
    /// the homes, only the class is known, which is all that walk reads.
    fn home(&self, s: u16, ty: Ty) -> Opnd {
        match self.homes.get(s as usize) {
            Some(h) => h[ty as usize].expect("typing records every type a slot holds"),
            None if self.varying[s as usize][ty as usize] => Opnd::Row(0),
            None => Opnd::Sc(0),
        }
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

    fn emit(&mut self, r: Reg) -> usize {
        self.code.push(r);
        self.code.len() - 1
    }

    /// Point the branch at `at` to the next op.
    fn patch(&mut self, at: usize) {
        let next = self.code.len() as u32;
        *self.code[at].target_mut().expect("a branch") = next;
    }

    /// Emit `r`, which computes a `ty` into `at`.
    fn value(&mut self, ty: Ty, at: Opnd, r: Reg) -> Val {
        self.emit(r);
        Val {
            ty,
            at,
            fresh: true,
        }
    }

    fn literal(&mut self, v: Value) -> Val {
        fn index<T: PartialEq + Copy>(pool: &mut Vec<T>, v: T) -> u16 {
            let i = pool.iter().position(|&c| c == v).unwrap_or_else(|| {
                pool.push(v);
                pool.len() - 1
            });
            i as u16
        }
        let [f, i] = self.shape.scalars;
        let (ty, at) = match v {
            Value::F32(x) => (Ty::F32, f + index(&mut self.f_consts, x.to_bits())),
            Value::I64(x) => (Ty::I64, i + index(&mut self.i_consts, x)),
            Value::Bool(b) => (Ty::Bool, self.false_word + u16::from(b)),
        };
        Val {
            ty,
            at: Opnd::Sc(at),
            fresh: false,
        }
    }

    /// `v`, the value of temp `i`, as a `to`: itself when it is one, else
    /// cast where the typing rule coerces.
    fn coerce(&mut self, v: Val, i: usize, to: Ty) -> Typed<Val> {
        if v.ty == to {
            return Ok(v);
        }
        let t = self.temp(to, i, v.at.uniform());
        let r = match (v.ty, to) {
            (Ty::Bool, _) => return Err(format!("cannot convert Bool to {to:?}")),
            (Ty::I64, Ty::F32) => Reg::IToF(v.at, Dst::temp(t)),
            (Ty::F32, Ty::I64) => Reg::FToI(v.at, Dst::temp(t)),
            (Ty::F32, _) => Reg::FToB(v.at, word(t)),
            _ => Reg::IToB(v.at, word(t)),
        };
        Ok(self.value(to, t, r))
    }

    fn body(&mut self, body: &[Stmt]) -> Typed<()> {
        for stmt in body {
            self.stmt(stmt)?;
        }
        Ok(())
    }

    fn stmt(&mut self, stmt: &Stmt) -> Typed<()> {
        match stmt {
            Stmt::Assign { name, expr } => {
                let s = self.slots[name.as_str()];
                let mut v = self.expr(expr, 0)?;
                if self.kinds[s as usize] == SlotKind::Preset(Ty::F32) {
                    v = self.coerce(v, 0, Ty::F32)?;
                }
                let home = self.home(s, v.ty);
                self.set(s, v.ty);
                self.mark(s, v.ty, v.at);
                match v.ty {
                    Ty::Bool => {
                        self.emit(Reg::MovB(word(v.at), word(home)));
                    }
                    _ if v.fresh => {
                        let dst = self.code.last_mut().and_then(Reg::dst_mut);
                        *dst.expect("a fresh number's op writes a Dst") = Dst::slot(home);
                    }
                    Ty::F32 => {
                        self.emit(Reg::MovF(v.at, Dst::slot(home)));
                    }
                    Ty::I64 => {
                        self.emit(Reg::MovI(v.at, Dst::slot(home)));
                    }
                }
            }
            Stmt::StateStore { array, index, expr } => {
                let at = self.expr(index, 0)?;
                let v = self.expr(expr, 1)?;
                let v = self.coerce(v, 1, Ty::F32)?;
                let at = self.coerce(at, 0, Ty::I64)?;
                let id = self.state_id(array);
                self.emit(Reg::StateStore(id, at.at, v.at));
            }
            Stmt::Push(e) => {
                let v = self.expr(e, 0)?;
                let v = self.coerce(v, 0, Ty::F32)?;
                self.emit(Reg::Push(v.at));
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = self.expr(cond, 0)?;
                let c = self.coerce(c, 0, Ty::Bool)?;
                let vary = usize::from(!c.at.uniform());
                let skip = self.emit(Reg::JumpIfFalse(word(c.at), 0));
                self.vary += vary;
                let before = self.at.clone();
                self.body(then_body)?;
                if else_body.is_empty() {
                    self.patch(skip);
                    join(&mut self.at, &before);
                } else {
                    let done = self.emit(Reg::Jump(0));
                    self.patch(skip);
                    let then_end = std::mem::replace(&mut self.at, before);
                    self.body(else_body)?;
                    self.patch(done);
                    join(&mut self.at, &then_end);
                }
                self.vary -= vary;
            }
            Stmt::For {
                var,
                start,
                end,
                body,
            } => self.for_loop(var, start, end, body)?,
        }
        Ok(())
    }

    /// A `for`: its hidden counter and end slots take the bounds, then the
    /// body runs between a test at the head and a step at the back edge.
    /// The body is typed under the slot types at entry; when the back edge
    /// carries a different type into a slot the body read as the head left
    /// it (`acc = 0` before a loop doing `acc = acc + pop()`), it is walked
    /// again under the join, where that read is an error.
    fn for_loop(&mut self, var: &str, start: &Expr, end: &Expr, body: &[Stmt]) -> Typed<()> {
        let lo = self.expr(start, 0)?;
        let hi = self.expr(end, 1)?;
        let hi = self.coerce(hi, 1, Ty::I64)?;
        let lo = self.coerce(lo, 0, Ty::I64)?;
        let (counter, end) = self.loops[self.next_loop];
        self.next_loop += 1;
        let inner = self.next_loop;
        for (s, v) in [(counter, lo), (end, hi)] {
            self.emit(Reg::MovI(v.at, Dst::slot(self.home(s, Ty::I64))));
            self.set(s, Ty::I64);
            self.mark(s, Ty::I64, v.at);
        }
        let depth = self.reads.len();
        if depth >= NO_LOOP as usize {
            return Err("loops nest too deeply".into());
        }
        for a in &mut self.at {
            a.since = a.since.min(depth as u8);
        }
        self.reads.push(vec![false; self.at.len()]);
        let var = self.slots[var];
        let (c, e, v) = (
            self.home(counter, Ty::I64),
            self.home(end, Ty::I64),
            self.home(var, Ty::I64),
        );
        let vary = usize::from(!(c.uniform() && e.uniform()));
        let rewind = (
            self.code.len(),
            self.f_consts.len(),
            self.i_consts.len(),
            self.marks.len(),
        );
        let mut head = self.at.clone();
        let mut retried = false;
        loop {
            self.vary += vary;
            let test = self.emit(Reg::ForTest {
                counter: c,
                end: e,
                var: Dst::slot(v),
                exit: 0,
            });
            self.set(var, Ty::I64);
            self.mark(var, Ty::I64, c);
            self.body(body)?;
            self.emit(Reg::ForStep {
                counter: c,
                head: test as u32,
            });
            self.mark(counter, Ty::I64, c);
            self.vary -= vary;
            // The exit sees the head's state, this back edge included.
            join(&mut self.at, &head);
            let reads = self.reads.last().expect("this loop is open");
            let stale = (self.at.iter().zip(&head).zip(reads))
                .any(|((joined, at_head), &read)| read && joined.tys != at_head.tys);
            if !stale {
                self.patch(test);
                break;
            }
            if retried {
                return Err("loop types do not converge".into());
            }
            retried = true;
            self.code.truncate(rewind.0);
            self.f_consts.truncate(rewind.1);
            self.i_consts.truncate(rewind.2);
            self.marks.truncate(rewind.3);
            self.next_loop = inner;
            head.clone_from(&self.at);
        }
        self.reads.pop();
        Ok(())
    }

    /// Lower `e`, whose value is temp `d`.
    fn expr(&mut self, e: &Expr, d: usize) -> Typed<Val> {
        self.max_stack = self.max_stack.max(d + 1);
        if let Some(v) = fold(e) {
            return Ok(self.literal(v));
        }
        Ok(match e {
            Expr::Float(_) | Expr::Int(_) => unreachable!("literals fold"),
            Expr::Var(name) => {
                let s = self.slots[name.as_str()];
                let ty = self.load(s)?;
                Val {
                    ty,
                    at: self.home(s, ty),
                    fresh: false,
                }
            }
            Expr::Pop => {
                let t = self.temp(Ty::F32, d, false);
                self.value(Ty::F32, t, Reg::Pop(Dst::temp(t)))
            }
            Expr::Peek(index) | Expr::StateLoad { index, .. } => {
                let i = self.expr(index, d)?;
                let i = self.coerce(i, d, Ty::I64)?;
                let t = self.temp(Ty::F32, d, false);
                let r = match e {
                    Expr::StateLoad { array, .. } => {
                        Reg::StateLoad(self.state_id(array), i.at, Dst::temp(t))
                    }
                    _ => Reg::Peek(i.at, Dst::temp(t)),
                };
                self.value(Ty::F32, t, r)
            }
            Expr::Binary { op, lhs, rhs } => {
                // Both sides always evaluate (`&&`/`||` do not
                // short-circuit), matching the interpreter.
                let x = self.expr(lhs, d)?;
                let y = self.expr(rhs, d + 1)?;
                let ty = if matches!(op, BinOp::And | BinOp::Or) {
                    Ty::Bool
                } else if (x.ty, y.ty) == (Ty::I64, Ty::I64) {
                    Ty::I64
                } else {
                    Ty::F32
                };
                let y = self.coerce(y, d + 1, ty)?.at;
                let x = self.coerce(x, d, ty)?.at;
                let u = x.uniform() && y.uniform();
                let w = self.temp(Ty::Bool, d, u);
                let t = self.temp(ty, d, u);
                match ty {
                    Ty::Bool => self.value(ty, w, Reg::Logic(*op, word(x), word(y), word(w))),
                    Ty::F32 if op.is_comparison() => {
                        self.value(Ty::Bool, w, Reg::CmpF(*op, x, y, word(w)))
                    }
                    Ty::I64 if op.is_comparison() => {
                        self.value(Ty::Bool, w, Reg::CmpI(*op, x, y, word(w)))
                    }
                    Ty::F32 => self.value(ty, t, Reg::BinF(*op, x, y, Dst::temp(t))),
                    Ty::I64 => self.value(ty, t, Reg::BinI(*op, x, y, Dst::temp(t))),
                }
            }
            Expr::Unary { op, operand } => {
                let x = self.expr(operand, d)?;
                let x = match op {
                    UnOp::Not => self.coerce(x, d, Ty::Bool)?,
                    UnOp::Neg => x,
                };
                let t = self.temp(x.ty, d, x.at.uniform());
                let r = match x.ty {
                    Ty::Bool if *op == UnOp::Neg => return Err("cannot negate a Bool".into()),
                    Ty::Bool => Reg::Not(word(x.at), word(t)),
                    Ty::F32 => Reg::NegF(x.at, Dst::temp(t)),
                    Ty::I64 => Reg::NegI(x.at, Dst::temp(t)),
                };
                self.value(x.ty, t, r)
            }
            Expr::Call {
                intrinsic: Intrinsic::Select,
                args,
            } => {
                let c = self.expr(&args[0], d)?;
                let a = self.expr(&args[1], d + 1)?;
                let b = self.expr(&args[2], d + 2)?;
                let c = self.coerce(c, d, Ty::Bool)?.at;
                if a.ty != b.ty {
                    return Err("the arms of `select` differ in type".into());
                }
                let (ty, a, b) = (a.ty, a.at, b.at);
                let t = self.temp(ty, d, c.uniform() && a.uniform() && b.uniform());
                let r = match ty {
                    Ty::F32 => Reg::SelF(word(c), a, b, Dst::temp(t)),
                    Ty::I64 => Reg::SelI(word(c), a, b, Dst::temp(t)),
                    Ty::Bool => Reg::SelB(word(c), word(a), word(b), word(t)),
                };
                self.value(ty, t, r)
            }
            Expr::Call { intrinsic, args } => {
                let x = self.expr(&args[0], d)?;
                if args.len() == 1 {
                    let x = self.coerce(x, d, Ty::F32)?.at;
                    let t = self.temp(Ty::F32, d, x.uniform());
                    self.value(Ty::F32, t, Reg::Call1(*intrinsic, x, Dst::temp(t)))
                } else {
                    let y = self.expr(&args[1], d + 1)?;
                    let y = self.coerce(y, d + 1, Ty::F32)?.at;
                    let x = self.coerce(x, d, Ty::F32)?.at;
                    let t = self.temp(Ty::F32, d, x.uniform() && y.uniform());
                    self.value(Ty::F32, t, Reg::Call2(*intrinsic, x, y, Dst::temp(t)))
                }
            }
        })
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
        assert_eq!(prog.reg().f_consts, [14.0]);
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
