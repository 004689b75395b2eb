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
//!   reference interpreter's Rust-side `for i in lo..hi` loop.
//!
//! Two evaluators run a [`Program`]. Kernels run it warp-wide through
//! [`crate::warp::eval`]. The scalar [`eval`] here runs the firings that
//! have no lanes to batch — opaque (stateful) actors executed sequentially
//! on the host and the once-per-output reduction `post` expression — with
//! stream and state access redirected through the [`IrIo`] trait; it is
//! also the in-crate differential reference for the warp evaluator.
//!
//! Evaluation is infallible on the hot path: lowering rejects everything
//! the reference interpreter ([`streamir::interp::Interpreter`], the
//! oracle every test compares against) would reject statically (unknown
//! variables), and data-dependent faults (integer division by zero,
//! boolean-to-number coercion) panic. Integer `+`/`-`/`*` and unary
//! negation wrap on overflow, matching [`streamir::interp::eval_binop`].

use std::collections::HashMap;

use streamir::error::{Error, Result};
use streamir::interp::{eval_binop, eval_intrinsic};
use streamir::ir::{BinOp, Expr, Intrinsic, Stmt, UnOp};
use streamir::rates::Bindings;
use streamir::value::Value;

/// Stream/state I/O hooks for one scalar execution of a work body.
pub trait IrIo {
    /// Destructive read of the next input item of this firing's window.
    fn pop(&mut self) -> f32;
    /// Non-destructive read at `offset` from the window start.
    fn peek(&mut self, offset: i64) -> f32;
    /// Append one output item.
    fn push(&mut self, v: f32);
    /// Load from a bound state array.
    fn state_load(&mut self, array: &str, idx: i64) -> f32;
    /// Store to a bound state array.
    fn state_store(&mut self, array: &str, idx: i64, v: f32);
}

/// An [`IrIo`] over plain host vectors — the host-side (opaque-actor)
/// execution path, and unit tests.
#[derive(Debug, Default)]
pub struct VecIo {
    /// Input window.
    pub input: Vec<f32>,
    /// Read cursor for pops.
    pub cursor: usize,
    /// Collected pushes.
    pub output: Vec<f32>,
    /// Named state arrays.
    pub state: HashMap<String, Vec<f32>>,
}

impl IrIo for VecIo {
    fn pop(&mut self) -> f32 {
        let v = self.input[self.cursor];
        self.cursor += 1;
        v
    }

    fn peek(&mut self, offset: i64) -> f32 {
        self.input[offset as usize]
    }

    fn push(&mut self, v: f32) {
        self.output.push(v);
    }

    fn state_load(&mut self, array: &str, idx: i64) -> f32 {
        self.state[array][idx as usize]
    }

    fn state_store(&mut self, array: &str, idx: i64, v: f32) {
        self.state.get_mut(array).expect("bound array")[idx as usize] = v;
    }
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
    /// Pop offset (as i64), `io.peek(offset)` → push.
    Peek,
    /// Pop index (as i64), `io.state_load(name(id), ..)` → push.
    StateLoad(u16),
    /// Pop value (as f32) then index (as i64), `io.state_store(name(id), ..)`.
    StateStore(u16),
    /// Pop value (as f32), `io.push(value)`.
    PushOut,
    /// Pop rhs then lhs, push `lhs op rhs`.
    Bin(BinOp),
    /// Arithmetic negation of the top of stack (integers wrap).
    Neg,
    /// Boolean negation of the top of stack.
    Not,
    /// Pop `arity` arguments, push the intrinsic's result.
    Call(Intrinsic),
    /// Unconditional branch.
    Jump(u32),
    /// Pop a condition (as bool); branch when false.
    JumpIfFalse(u32),
    /// Pop loop end then start (both as i64) into two hidden slots.
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
    /// Kernel-supplied scalar (template loop variable, reduction
    /// accumulator, opaque-actor scalar state); the kernel writes the slot
    /// directly after each frame reset.
    Preset,
}

/// A compiled work body (or expression): flat opcodes plus the slot and
/// state-id tables produced by lowering.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    ops: Vec<Op>,
    /// Per-slot init kind; parallel to `names`.
    kinds: Vec<SlotKind>,
    /// Slot names (hidden loop slots get `#for{n}`/`#end{n}` names).
    names: Vec<String>,
    /// Dense state id → array name, in first-use order.
    state_names: Vec<String>,
    /// Worst-case operand-stack depth, for up-front reservation.
    max_stack: usize,
}

impl Program {
    /// The opcode sequence (read-only; used by tests and the printer).
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of slots a frame needs.
    pub fn n_slots(&self) -> usize {
        self.kinds.len()
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

    /// Reassemble a program from its raw parts (the artifact decoder).
    /// Validates the structural invariants lowering guarantees — slot and
    /// state indices in range, jump targets within `0..=ops.len()`, and
    /// parallel slot tables — so a decoded artifact can never index out of
    /// bounds at eval time.
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
        Ok(Program {
            ops,
            kinds,
            names,
            state_names,
            max_stack,
        })
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
                SlotKind::Local | SlotKind::Preset => Ok(Value::F32(0.0)),
            })
            .collect()
    }
}

/// Compile a statement body.
///
/// `params` supplies the names readable as runtime bindings (their values
/// become [`SlotKind::Param`] slots, bound per launch); `presets` names
/// the scalars the owning kernel seeds directly (loop variables,
/// accumulators). Any other name that is read before the body could have
/// assigned it is rejected, mirroring the reference interpreter's
/// "unknown variable" runtime error.
///
/// # Errors
///
/// Returns [`Error::Runtime`] for unknown variables and for bodies
/// exceeding the `u16` slot space.
pub fn compile_body(body: &[Stmt], params: &Bindings, presets: &[&str]) -> Result<Program> {
    let mut c = Compiler::new(params, presets);
    c.lower_body(body)?;
    Ok(c.finish())
}

/// Compile a single expression; evaluation via [`eval_value`] yields its
/// value.
///
/// # Errors
///
/// See [`compile_body`].
pub fn compile_expr(expr: &Expr, params: &Bindings, presets: &[&str]) -> Result<Program> {
    let mut c = Compiler::new(params, presets);
    c.lower_expr(expr)?;
    Ok(c.finish())
}

struct Compiler<'a> {
    ops: Vec<Op>,
    kinds: Vec<SlotKind>,
    names: Vec<String>,
    state_names: Vec<String>,
    slots: HashMap<String, u16>,
    params: &'a Bindings,
    depth: usize,
    max_stack: usize,
    hidden: usize,
}

impl<'a> Compiler<'a> {
    fn new(params: &'a Bindings, presets: &[&str]) -> Compiler<'a> {
        let mut c = Compiler {
            ops: Vec::new(),
            kinds: Vec::new(),
            names: Vec::new(),
            state_names: Vec::new(),
            slots: HashMap::new(),
            params,
            depth: 0,
            max_stack: 0,
            hidden: 0,
        };
        // Presets get the first slots so kernels can seed them cheaply.
        for p in presets {
            c.alloc_slot(p, SlotKind::Preset);
        }
        c
    }

    fn finish(self) -> Program {
        Program {
            ops: self.ops,
            kinds: self.kinds,
            names: self.names,
            state_names: self.state_names,
            max_stack: self.max_stack,
        }
    }

    fn alloc_slot(&mut self, name: &str, kind: SlotKind) -> u16 {
        debug_assert!(self.kinds.len() < u16::MAX as usize, "slot space");
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

    /// Emit an opcode, tracking worst-case operand-stack depth.
    fn emit(&mut self, op: Op) -> usize {
        let (pops, pushes): (usize, usize) = match op {
            Op::ConstF(_) | Op::ConstI(_) | Op::ConstB(_) | Op::Load(_) | Op::Pop => (0, 1),
            Op::Store(_) | Op::PushOut | Op::JumpIfFalse(_) => (1, 0),
            Op::Peek | Op::StateLoad(_) | Op::Neg | Op::Not => (1, 1),
            Op::Bin(_) => (2, 1),
            Op::StateStore(_) | Op::ForInit { .. } => (2, 0),
            Op::Call(i) => (i.arity(), 1),
            Op::Jump(_) | Op::ForTest { .. } | Op::ForStep { .. } => (0, 0),
        };
        debug_assert!(self.depth >= pops, "stack underflow in lowering");
        self.depth = self.depth - pops + pushes;
        self.max_stack = self.max_stack.max(self.depth);
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

/// A reusable evaluation frame: slot vector + operand stack, reset per
/// firing by copying the launch's bound slot prototype.
#[derive(Debug, Default)]
pub struct Frame {
    slots: Vec<Value>,
    stack: Vec<Value>,
}

impl Frame {
    /// Prepare the frame for one firing: slots become a copy of `proto`,
    /// the operand stack empties. Reuses existing capacity.
    pub fn reset(&mut self, proto: &[Value]) {
        self.slots.clear();
        self.slots.extend_from_slice(proto);
        self.stack.clear();
    }

    /// Reserve capacity for a program up front so evaluation never
    /// reallocates.
    pub fn fit(&mut self, prog: &Program) {
        if self.slots.capacity() < prog.n_slots() {
            self.slots.reserve(prog.n_slots() - self.slots.len());
        }
        if self.stack.capacity() < prog.max_stack() {
            self.stack.reserve(prog.max_stack() - self.stack.len());
        }
    }

    /// Write a preset slot (loop variable, accumulator, scalar state).
    #[inline]
    pub fn set(&mut self, slot: u16, v: Value) {
        self.slots[slot as usize] = v;
    }

    /// Read a slot back (scalar-state persistence, tests).
    #[inline]
    pub fn get(&self, slot: u16) -> Value {
        self.slots[slot as usize]
    }
}

#[inline]
pub(crate) fn as_f32(v: Value) -> f32 {
    v.as_f32().expect("validated body: numeric value")
}

#[inline]
pub(crate) fn as_i64(v: Value) -> i64 {
    v.as_i64().expect("validated body: integral value")
}

/// Infallible binop mirroring [`streamir::interp::eval_binop`] (including
/// wrapping integer arithmetic); data-dependent faults panic. Shared with
/// [`crate::warp`] so
/// the scalar and warp-batched evaluators are per-lane bit-identical by
/// construction.
#[inline]
pub(crate) fn bin(op: BinOp, a: Value, b: Value) -> Value {
    use BinOp::*;
    if let (Value::I64(x), Value::I64(y)) = (a, b) {
        return match op {
            Add => Value::I64(x.wrapping_add(y)),
            Sub => Value::I64(x.wrapping_sub(y)),
            Mul => Value::I64(x.wrapping_mul(y)),
            Div => {
                assert!(y != 0, "validated body: integer division by zero");
                Value::I64(x.wrapping_div(y))
            }
            Rem => {
                assert!(y != 0, "validated body: integer remainder by zero");
                Value::I64(x.wrapping_rem(y))
            }
            Lt => Value::Bool(x < y),
            Le => Value::Bool(x <= y),
            Gt => Value::Bool(x > y),
            Ge => Value::Bool(x >= y),
            Eq => Value::Bool(x == y),
            Ne => Value::Bool(x != y),
            And => Value::Bool(x != 0 && y != 0),
            Or => Value::Bool(x != 0 || y != 0),
        };
    }
    if matches!(op, And | Or) {
        let (x, y) = (a.as_bool(), b.as_bool());
        return Value::Bool(match op {
            And => x && y,
            Or => x || y,
            _ => unreachable!(),
        });
    }
    let x = as_f32(a);
    let y = as_f32(b);
    match op {
        Add => Value::F32(x + y),
        Sub => Value::F32(x - y),
        Mul => Value::F32(x * y),
        Div => Value::F32(x / y),
        Rem => Value::F32(x % y),
        Lt => Value::Bool(x < y),
        Le => Value::Bool(x <= y),
        Gt => Value::Bool(x > y),
        Ge => Value::Bool(x >= y),
        Eq => Value::Bool(x == y),
        Ne => Value::Bool(x != y),
        And | Or => unreachable!("handled above"),
    }
}

#[inline]
pub(crate) fn call(intr: Intrinsic, args: &[Value]) -> Value {
    let f = |i: usize| as_f32(args[i]);
    match intr {
        Intrinsic::Sqrt => Value::F32(f(0).sqrt()),
        Intrinsic::Exp => Value::F32(f(0).exp()),
        Intrinsic::Log => Value::F32(f(0).ln()),
        Intrinsic::Abs => Value::F32(f(0).abs()),
        Intrinsic::Sin => Value::F32(f(0).sin()),
        Intrinsic::Cos => Value::F32(f(0).cos()),
        Intrinsic::Floor => Value::F32(f(0).floor()),
        Intrinsic::Max => Value::F32(f(0).max(f(1))),
        Intrinsic::Min => Value::F32(f(0).min(f(1))),
        Intrinsic::Pow => Value::F32(f(0).powf(f(1))),
        // `select` preserves the chosen argument's variant, like the interpreter.
        Intrinsic::Select => {
            if args[0].as_bool() {
                args[1]
            } else {
                args[2]
            }
        }
    }
}

/// Execute a compiled body against a prepared frame. The frame must have
/// been [`Frame::reset`] with the program's bound prototype (and any
/// preset slots seeded). Infallible: see the module docs.
pub fn eval(prog: &Program, frame: &mut Frame, io: &mut dyn IrIo) {
    let ops = &prog.ops;
    let slots = &mut frame.slots;
    let stack = &mut frame.stack;
    let mut pc = 0usize;
    while pc < ops.len() {
        match ops[pc] {
            Op::ConstF(x) => stack.push(Value::F32(x)),
            Op::ConstI(i) => stack.push(Value::I64(i)),
            Op::ConstB(b) => stack.push(Value::Bool(b)),
            Op::Load(s) => stack.push(slots[s as usize]),
            Op::Store(s) => slots[s as usize] = stack.pop().expect("operand"),
            Op::Pop => stack.push(Value::F32(io.pop())),
            Op::Peek => {
                let off = as_i64(stack.pop().expect("operand"));
                stack.push(Value::F32(io.peek(off)));
            }
            Op::StateLoad(id) => {
                let idx = as_i64(stack.pop().expect("operand"));
                let v = io.state_load(&prog.state_names[id as usize], idx);
                stack.push(Value::F32(v));
            }
            Op::StateStore(id) => {
                let v = as_f32(stack.pop().expect("operand"));
                let idx = as_i64(stack.pop().expect("operand"));
                io.state_store(&prog.state_names[id as usize], idx, v);
            }
            Op::PushOut => {
                let v = as_f32(stack.pop().expect("operand"));
                io.push(v);
            }
            Op::Bin(op) => {
                let b = stack.pop().expect("operand");
                let a = stack.pop().expect("operand");
                stack.push(bin(op, a, b));
            }
            Op::Neg => {
                let v = stack.pop().expect("operand");
                stack.push(match v {
                    Value::I64(i) => Value::I64(i.wrapping_neg()),
                    other => Value::F32(-as_f32(other)),
                });
            }
            Op::Not => {
                let v = stack.pop().expect("operand");
                stack.push(Value::Bool(!v.as_bool()));
            }
            Op::Call(intr) => {
                let n = intr.arity();
                let mut args = [Value::F32(0.0); 3];
                for i in (0..n).rev() {
                    args[i] = stack.pop().expect("operand");
                }
                stack.push(call(intr, &args[..n]));
            }
            Op::Jump(t) => {
                pc = t as usize;
                continue;
            }
            Op::JumpIfFalse(t) => {
                if !stack.pop().expect("operand").as_bool() {
                    pc = t as usize;
                    continue;
                }
            }
            Op::ForInit { counter, end } => {
                let hi = as_i64(stack.pop().expect("operand"));
                let lo = as_i64(stack.pop().expect("operand"));
                slots[counter as usize] = Value::I64(lo);
                slots[end as usize] = Value::I64(hi);
            }
            Op::ForTest {
                counter,
                end,
                var,
                exit,
            } => {
                let c = as_i64(slots[counter as usize]);
                if c < as_i64(slots[end as usize]) {
                    slots[var as usize] = Value::I64(c);
                } else {
                    pc = exit as usize;
                    continue;
                }
            }
            Op::ForStep { counter, head } => {
                let c = as_i64(slots[counter as usize]);
                slots[counter as usize] = Value::I64(c.wrapping_add(1));
                pc = head as usize;
                continue;
            }
        }
        pc += 1;
    }
}

/// Execute a compiled *expression* and return its value.
pub fn eval_value(prog: &Program, frame: &mut Frame, io: &mut dyn IrIo) -> Value {
    eval(prog, frame, io);
    frame.stack.pop().expect("expression leaves one value")
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamir::graph::bindings;
    use streamir::interp::Interpreter;
    use streamir::parse::parse_program;

    fn body_of(src: &str) -> Vec<Stmt> {
        parse_program(src).unwrap().actors[0].work.body.clone()
    }

    /// One firing of the one-actor program `src` under the reference
    /// interpreter and under the compiled bytecode; returns the
    /// interpreter's output and the bytecode run's I/O.
    fn run_both(src: &str, params: &[(&str, i64)], input: Vec<f32>) -> (Vec<f32>, VecIo) {
        let program = parse_program(src).unwrap();
        let mut it = Interpreter::new(&program);
        for (name, v) in params {
            it.bind_param(name, *v);
        }
        let want = it.run(&input).unwrap();

        let binds = bindings(params);
        let prog = compile_body(&program.actors[0].work.body, &binds, &[]).unwrap();
        let proto = prog.bind(&binds).unwrap();
        let mut frame = Frame::default();
        frame.fit(&prog);
        frame.reset(&proto);
        let mut io = VecIo {
            input,
            ..Default::default()
        };
        eval(&prog, &mut frame, &mut io);
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
            vec![1.0, 2.5, -3.0, 8.0],
        );
        assert_eq!(want, got.output);
        assert_eq!(got.cursor, 4);
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
            let (want, got) = run_both(src, &[], input);
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
            vec![0.0],
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
        let (want, got) = run_both(src, &[], vec![2.0]);
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
            vec![5.0, 7.0],
        );
        assert_eq!(want, vec![75.0]);
        assert_eq!(want, got.output);
        assert_eq!(got.cursor, 0);
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

        let mut io = VecIo {
            input: vec![3.0],
            ..Default::default()
        };
        io.state.insert("w".into(), vec![0.0; 4]);
        io.state.insert("v".into(), vec![7.0; 4]);
        let proto = prog.bind(&binds).unwrap();
        let mut frame = Frame::default();
        frame.reset(&proto);
        eval(&prog, &mut frame, &mut io);
        assert_eq!(io.output, vec![10.0]);
        assert_eq!(io.state["w"][1], 3.0);
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
        let mut frame = Frame::default();
        frame.reset(&proto);
        let mut io = VecIo {
            input: vec![1.0],
            ..Default::default()
        };
        eval(&prog, &mut frame, &mut io);
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
        let prog = compile_body(&body, &binds, &["i"]).unwrap();
        let slot = prog.slot_of("i").unwrap();
        let proto = prog.bind(&binds).unwrap();
        let mut frame = Frame::default();
        frame.reset(&proto);
        frame.set(slot, Value::I64(41));
        let mut io = VecIo {
            input: vec![1.0],
            ..Default::default()
        };
        eval(&prog, &mut frame, &mut io);
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
            vec![3.0],
        );
        assert_eq!(want, vec![3.0]);
        assert_eq!(want, got.output);
    }

    #[test]
    fn expression_programs_yield_values() {
        let e = Expr::bin(BinOp::Mul, Expr::var("acc"), Expr::Float(0.5));
        let binds = bindings(&[]);
        let prog = compile_expr(&e, &binds, &["acc"]).unwrap();
        let slot = prog.slot_of("acc").unwrap();
        let proto = prog.bind(&binds).unwrap();
        let mut frame = Frame::default();
        frame.reset(&proto);
        frame.set(slot, Value::F32(8.0));
        let mut io = VecIo::default();
        let v = eval_value(&prog, &mut frame, &mut io);
        assert_eq!(v.as_f32().unwrap(), 4.0);
    }
}
