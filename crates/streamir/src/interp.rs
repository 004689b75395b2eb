//! Reference interpreter — the golden model.
//!
//! Executes a program's steady-state schedule directly on the CPU, firing
//! flat nodes in topological order and moving `f32` items through explicit
//! FIFO buffers. Every compiled GPU variant produced by the Adaptic
//! compiler is differentially tested against this interpreter.

use std::collections::{HashMap, VecDeque};

use crate::actor::{ActorDef, StateVar};
use crate::error::{Error, Result};
use crate::graph::{FlatGraph, FlatNode, Joiner, Program, Splitter};
use crate::ir::{BinOp, Expr, Intrinsic, Stmt, UnOp};
use crate::rates::Bindings;
use crate::schedule::rate_match;
use crate::value::Value;

/// Interprets a streaming [`Program`] on concrete data.
///
/// # Example
///
/// ```
/// use streamir::parse::parse_program;
/// use streamir::interp::Interpreter;
///
/// let p = parse_program(
///     "pipeline Main() { actor Neg(pop 1, push 1) { push(0.0 - pop()); } }",
/// ).unwrap();
/// let mut it = Interpreter::new(&p);
/// assert_eq!(it.run(&[1.0, -2.0]).unwrap(), vec![-1.0, 2.0]);
/// ```
#[derive(Debug)]
pub struct Interpreter<'p> {
    program: &'p Program,
    binds: Bindings,
    /// Host-bound state arrays, keyed by (actor name, array name).
    arrays: HashMap<(String, String), Vec<f32>>,
    /// Persistent scalar state, keyed by (actor name, var name).
    scalars: HashMap<(String, String), f32>,
}

impl<'p> Interpreter<'p> {
    /// Create an interpreter for `program` with no parameters bound.
    pub fn new(program: &'p Program) -> Self {
        Interpreter {
            program,
            binds: Bindings::new(),
            arrays: HashMap::new(),
            scalars: HashMap::new(),
        }
    }

    /// Bind a program parameter.
    pub fn bind_param(&mut self, name: &str, value: i64) -> &mut Self {
        self.binds.insert(name.to_string(), value);
        self
    }

    /// Bind a state array of an actor to host data.
    pub fn bind_state(&mut self, actor: &str, array: &str, data: Vec<f32>) -> &mut Self {
        self.arrays
            .insert((actor.to_string(), array.to_string()), data);
        self
    }

    /// The current parameter bindings.
    pub fn bindings(&self) -> &Bindings {
        &self.binds
    }

    /// Run as many steady-state iterations as `input` allows and return the
    /// produced output stream.
    ///
    /// # Errors
    ///
    /// Propagates scheduling errors, [`Error::InsufficientInput`] when the
    /// input cannot sustain even one steady state, and [`Error::Runtime`]
    /// for work-body failures (unknown variables, state array overruns...).
    pub fn run(&mut self, input: &[f32]) -> Result<Vec<f32>> {
        let graph = self.program.flatten()?;
        let schedule = rate_match(&graph, &self.binds)?;
        if schedule.steady_input == 0 {
            return Err(Error::RateMismatch("program consumes no input".into()));
        }
        let iterations = input.len() as u64 / schedule.steady_input;
        if iterations == 0 {
            return Err(Error::InsufficientInput {
                needed: schedule.steady_input as usize,
                got: input.len(),
            });
        }

        // Initialize scalar state.
        for actor in &self.program.actors {
            for sv in &actor.state {
                if let StateVar::Scalar { name, init } = sv {
                    self.scalars
                        .entry((actor.name.clone(), name.clone()))
                        .or_insert(*init);
                }
            }
        }
        // Validate bound array lengths.
        for actor in &self.program.actors {
            for sv in &actor.state {
                if let StateVar::Array { name, len } = sv {
                    let need = len.eval(&self.binds)? as usize;
                    let got = self
                        .arrays
                        .get(&(actor.name.clone(), name.clone()))
                        .map(Vec::len)
                        .unwrap_or(0);
                    if got < need {
                        return Err(Error::Runtime(format!(
                            "state array {}::{name} needs {need} elements, has {got}",
                            actor.name
                        )));
                    }
                }
            }
        }

        let mut channels: Vec<VecDeque<f32>> =
            graph.channels.iter().map(|_| VecDeque::new()).collect();
        let mut cursor = 0usize;
        let mut output = Vec::new();

        for _ in 0..iterations {
            for entry in schedule.entries.clone() {
                for _ in 0..entry.reps {
                    self.fire(
                        &graph,
                        entry.node,
                        &mut channels,
                        input,
                        &mut cursor,
                        &mut output,
                    )?;
                }
            }
        }
        Ok(output)
    }

    fn fire(
        &mut self,
        graph: &FlatGraph,
        node: usize,
        channels: &mut [VecDeque<f32>],
        input: &[f32],
        cursor: &mut usize,
        output: &mut Vec<f32>,
    ) -> Result<()> {
        let in_chs = graph.in_channels(node);
        let out_chs = graph.out_channels(node);
        let is_entry = node == graph.entry;
        let is_exit = node == graph.exit;

        match &graph.nodes[node] {
            FlatNode::Actor { actor } => {
                let actor = &self.program.actors[*actor];
                let in_ch = in_chs.first().copied();
                let out_ch = out_chs.first().copied();
                self.fire_actor(
                    actor, in_ch, out_ch, is_entry, is_exit, channels, input, cursor, output,
                )
            }
            FlatNode::Split(splitter) => {
                let read = |channels: &mut [VecDeque<f32>], cursor: &mut usize| -> Result<f32> {
                    if is_entry {
                        let v = *input
                            .get(*cursor)
                            .ok_or_else(|| Error::Runtime("input underflow".into()))?;
                        *cursor += 1;
                        Ok(v)
                    } else {
                        channels[in_chs[0]]
                            .pop_front()
                            .ok_or_else(|| Error::Runtime("channel underflow".into()))
                    }
                };
                match splitter {
                    Splitter::Duplicate => {
                        let v = read(channels, cursor)?;
                        for &c in &out_chs {
                            channels[c].push_back(v);
                        }
                    }
                    Splitter::RoundRobin(ws) => {
                        for (b, w) in ws.iter().enumerate() {
                            let n = w.eval(&self.binds)?;
                            for _ in 0..n {
                                let v = read(channels, cursor)?;
                                channels[out_chs[b]].push_back(v);
                            }
                        }
                    }
                }
                Ok(())
            }
            FlatNode::Join(Joiner::RoundRobin(ws)) => {
                for (b, w) in ws.iter().enumerate() {
                    let n = w.eval(&self.binds)?;
                    for _ in 0..n {
                        let v = channels[in_chs[b]]
                            .pop_front()
                            .ok_or_else(|| Error::Runtime("channel underflow".into()))?;
                        if is_exit {
                            output.push(v);
                        } else {
                            channels[out_chs[0]].push_back(v);
                        }
                    }
                }
                Ok(())
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn fire_actor(
        &mut self,
        actor: &ActorDef,
        in_ch: Option<usize>,
        out_ch: Option<usize>,
        is_entry: bool,
        is_exit: bool,
        channels: &mut [VecDeque<f32>],
        input: &[f32],
        cursor: &mut usize,
        output: &mut Vec<f32>,
    ) -> Result<()> {
        let mut env = FiringEnv {
            actor,
            binds: &self.binds,
            locals: HashMap::new(),
            arrays: &mut self.arrays,
            scalars: &mut self.scalars,
            in_ch,
            out_ch,
            is_entry,
            is_exit,
            channels,
            input,
            cursor,
            output,
            popped: 0,
        };
        for stmt in &actor.work.body {
            env.exec(stmt)?;
        }
        // Consume the *declared* pop rate (StreamIt semantics: actors such
        // as Figure 4's stencil read only via peek but still consume their
        // declared window). Popping beyond the declaration is an error.
        let dynamic = env.popped;
        let declared = actor.work.pop.eval(&self.binds)?.max(0) as usize;
        if dynamic > declared {
            return Err(Error::Runtime(format!(
                "actor `{}` popped {dynamic} items but declares pop {declared}",
                actor.name
            )));
        }
        if is_entry {
            *cursor += declared;
        } else if let Some(c) = in_ch {
            for _ in 0..declared {
                channels[c].pop_front();
            }
        }
        Ok(())
    }
}

/// Mutable context for evaluating one actor firing.
struct FiringEnv<'a> {
    actor: &'a ActorDef,
    binds: &'a Bindings,
    locals: HashMap<String, Value>,
    arrays: &'a mut HashMap<(String, String), Vec<f32>>,
    scalars: &'a mut HashMap<(String, String), f32>,
    in_ch: Option<usize>,
    out_ch: Option<usize>,
    is_entry: bool,
    is_exit: bool,
    channels: &'a mut [VecDeque<f32>],
    input: &'a [f32],
    cursor: &'a mut usize,
    output: &'a mut Vec<f32>,
    /// Items consumed so far this firing (pop advances, peek does not).
    popped: usize,
}

impl FiringEnv<'_> {
    fn exec(&mut self, stmt: &Stmt) -> Result<()> {
        match stmt {
            Stmt::Assign { name, expr } => {
                let v = self.eval(expr)?;
                self.assign(name, v)
            }
            Stmt::StateStore { array, index, expr } => {
                let i = self.eval(index)?.as_i64()?;
                let v = self.eval(expr)?.as_f32()?;
                let key = (self.actor.name.clone(), array.clone());
                let arr = self
                    .arrays
                    .get_mut(&key)
                    .ok_or_else(|| Error::Runtime(format!("unbound state array `{array}`")))?;
                let slot = arr.get_mut(i as usize).ok_or_else(|| {
                    Error::Runtime(format!("state array `{array}` index {i} out of bounds"))
                })?;
                *slot = v;
                Ok(())
            }
            Stmt::Push(expr) => {
                let v = self.eval(expr)?.as_f32()?;
                if self.is_exit {
                    self.output.push(v);
                } else if let Some(c) = self.out_ch {
                    self.channels[c].push_back(v);
                } else {
                    return Err(Error::Runtime("push with no output channel".into()));
                }
                Ok(())
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = self.eval(cond)?.as_bool();
                let body = if c { then_body } else { else_body };
                for s in body {
                    self.exec(s)?;
                }
                Ok(())
            }
            Stmt::For {
                var,
                start,
                end,
                body,
            } => {
                let lo = self.eval(start)?.as_i64()?;
                let hi = self.eval(end)?.as_i64()?;
                for i in lo..hi {
                    self.locals.insert(var.clone(), Value::I64(i));
                    for s in body {
                        self.exec(s)?;
                    }
                }
                Ok(())
            }
        }
    }

    fn assign(&mut self, name: &str, v: Value) -> Result<()> {
        // State scalars shadow locals; params are read-only.
        if self
            .actor
            .state
            .iter()
            .any(|s| matches!(s, StateVar::Scalar { name: n, .. } if n == name))
        {
            self.scalars
                .insert((self.actor.name.clone(), name.to_string()), v.as_f32()?);
            return Ok(());
        }
        if self.binds.contains_key(name) {
            return Err(Error::Runtime(format!(
                "cannot assign to program parameter `{name}`"
            )));
        }
        self.locals.insert(name.to_string(), v);
        Ok(())
    }

    fn read_at(&self, offset: usize) -> Result<f32> {
        if self.is_entry {
            self.input
                .get(*self.cursor + offset)
                .copied()
                .ok_or_else(|| Error::Runtime("peek past end of input".into()))
        } else {
            let c = self
                .in_ch
                .ok_or_else(|| Error::Runtime("pop with no input channel".into()))?;
            self.channels[c]
                .get(offset)
                .copied()
                .ok_or_else(|| Error::Runtime("peek past end of channel".into()))
        }
    }

    fn eval(&mut self, expr: &Expr) -> Result<Value> {
        match expr {
            Expr::Float(x) => Ok(Value::F32(*x)),
            Expr::Int(i) => Ok(Value::I64(*i)),
            Expr::Var(name) => self.lookup(name),
            Expr::Pop => {
                let v = self.read_at(self.popped)?;
                self.popped += 1;
                Ok(Value::F32(v))
            }
            Expr::Peek(e) => {
                let i = self.eval(e)?.as_i64()?;
                if i < 0 {
                    return Err(Error::Runtime(format!("negative peek offset {i}")));
                }
                Ok(Value::F32(self.read_at(i as usize)?))
            }
            Expr::StateLoad { array, index } => {
                let i = self.eval(index)?.as_i64()?;
                let key = (self.actor.name.clone(), array.clone());
                let arr = self
                    .arrays
                    .get(&key)
                    .ok_or_else(|| Error::Runtime(format!("unbound state array `{array}`")))?;
                arr.get(i as usize).copied().map(Value::F32).ok_or_else(|| {
                    Error::Runtime(format!(
                        "state array `{array}` index {i} out of bounds (len {})",
                        arr.len()
                    ))
                })
            }
            Expr::Binary { op, lhs, rhs } => {
                let a = self.eval(lhs)?;
                let b = self.eval(rhs)?;
                eval_binop(*op, a, b)
            }
            Expr::Unary { op, operand } => {
                let v = self.eval(operand)?;
                match op {
                    UnOp::Neg => match v {
                        // Wrapping: `-i64::MIN` has no i64 representation.
                        Value::I64(i) => Ok(Value::I64(i.wrapping_neg())),
                        other => Ok(Value::F32(-other.as_f32()?)),
                    },
                    UnOp::Not => Ok(Value::Bool(!v.as_bool())),
                }
            }
            Expr::Call { intrinsic, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a)?);
                }
                eval_intrinsic(*intrinsic, &vals)
            }
        }
    }

    fn lookup(&self, name: &str) -> Result<Value> {
        if let Some(v) = self.locals.get(name) {
            return Ok(*v);
        }
        if let Some(v) = self
            .scalars
            .get(&(self.actor.name.clone(), name.to_string()))
        {
            return Ok(Value::F32(*v));
        }
        if let Some(v) = self.binds.get(name) {
            return Ok(Value::I64(*v));
        }
        Err(Error::Runtime(format!("unknown variable `{name}`")))
    }
}

impl Interpreter<'_> {
    /// Advance past the items consumed by an entry-actor firing.
    ///
    /// (Exposed for tests; `run` manages this internally.)
    #[doc(hidden)]
    pub fn _noop(&self) {}
}

/// Evaluate a binary operator on two values with numeric coercion.
///
/// Integer `+`/`-`/`*` (and `/`/`%` at the `i64::MIN / -1` edge) use
/// two's-complement *wrapping* semantics, matching the generated CUDA
/// code's machine arithmetic; only division/remainder by zero is a
/// runtime error. The bytecode evaluator (`adaptic::bytecode`) mirrors
/// these semantics exactly.
pub fn eval_binop(op: BinOp, a: Value, b: Value) -> Result<Value> {
    use BinOp::*;
    // Integer ops stay integral when both sides are integers.
    if let (Value::I64(x), Value::I64(y)) = (a, b) {
        return Ok(match op {
            Add => Value::I64(x.wrapping_add(y)),
            Sub => Value::I64(x.wrapping_sub(y)),
            Mul => Value::I64(x.wrapping_mul(y)),
            Div => {
                if y == 0 {
                    return Err(Error::Runtime("integer division by zero".into()));
                }
                Value::I64(x.wrapping_div(y))
            }
            Rem => {
                if y == 0 {
                    return Err(Error::Runtime("integer remainder by zero".into()));
                }
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
        });
    }
    if matches!(op, And | Or) {
        let (x, y) = (a.as_bool(), b.as_bool());
        return Ok(Value::Bool(match op {
            And => x && y,
            Or => x || y,
            _ => unreachable!(),
        }));
    }
    let x = a.as_f32()?;
    let y = b.as_f32()?;
    Ok(match op {
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
    })
}

/// Evaluate an intrinsic on already-evaluated arguments.
pub fn eval_intrinsic(intr: Intrinsic, args: &[Value]) -> Result<Value> {
    if args.len() != intr.arity() {
        return Err(Error::Runtime(format!(
            "{} expects {} arguments, got {}",
            intr.name(),
            intr.arity(),
            args.len()
        )));
    }
    let f = |i: usize| args[i].as_f32();
    Ok(match intr {
        Intrinsic::Sqrt => Value::F32(f(0)?.sqrt()),
        Intrinsic::Exp => Value::F32(f(0)?.exp()),
        Intrinsic::Log => Value::F32(f(0)?.ln()),
        Intrinsic::Abs => Value::F32(f(0)?.abs()),
        Intrinsic::Sin => Value::F32(f(0)?.sin()),
        Intrinsic::Cos => Value::F32(f(0)?.cos()),
        Intrinsic::Floor => Value::F32(f(0)?.floor()),
        Intrinsic::Max => Value::F32(f(0)?.max(f(1)?)),
        Intrinsic::Min => Value::F32(f(0)?.min(f(1)?)),
        Intrinsic::Pow => Value::F32(f(0)?.powf(f(1)?)),
        Intrinsic::Select => {
            if args[0].as_bool() {
                args[1]
            } else {
                args[2]
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::WorkFn;
    use crate::graph::StreamNode;
    use crate::rates::RateExpr;

    fn program_with(actors: Vec<ActorDef>, params: &[&str]) -> Program {
        let graph = StreamNode::Pipeline(
            actors
                .iter()
                .map(|a| StreamNode::Actor(a.name.clone()))
                .collect(),
        );
        Program {
            name: "P".into(),
            params: params.iter().map(|s| s.to_string()).collect(),
            actors,
            graph,
        }
    }

    fn scale_actor() -> ActorDef {
        ActorDef::new(
            "Scale",
            WorkFn {
                pop: RateExpr::constant(1),
                push: RateExpr::constant(1),
                peek: RateExpr::constant(1),
                body: vec![Stmt::Push(Expr::mul(Expr::Pop, Expr::Float(3.0)))],
            },
        )
    }

    #[test]
    fn single_actor_map() {
        let p = program_with(vec![scale_actor()], &[]);
        let mut it = Interpreter::new(&p);
        assert_eq!(it.run(&[1.0, 2.0, 3.0]).unwrap(), vec![3.0, 6.0, 9.0]);
    }

    #[test]
    fn pipeline_composes() {
        let p = program_with(
            vec![scale_actor(), {
                let mut a = scale_actor();
                a.name = "Scale2".into();
                a
            }],
            &[],
        );
        let mut it = Interpreter::new(&p);
        assert_eq!(it.run(&[1.0]).unwrap(), vec![9.0]);
    }

    #[test]
    fn symbolic_sum_reduction() {
        let sum = ActorDef::new(
            "Sum",
            WorkFn {
                pop: RateExpr::param("N"),
                push: RateExpr::constant(1),
                peek: RateExpr::param("N"),
                body: vec![
                    Stmt::Assign {
                        name: "acc".into(),
                        expr: Expr::Float(0.0),
                    },
                    Stmt::For {
                        var: "i".into(),
                        start: Expr::Int(0),
                        end: Expr::var("N"),
                        body: vec![Stmt::Assign {
                            name: "acc".into(),
                            expr: Expr::add(Expr::var("acc"), Expr::Pop),
                        }],
                    },
                    Stmt::Push(Expr::var("acc")),
                ],
            },
        );
        let p = program_with(vec![sum], &["N"]);
        let mut it = Interpreter::new(&p);
        it.bind_param("N", 4);
        assert_eq!(
            it.run(&[1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0])
                .unwrap(),
            vec![10.0, 100.0]
        );
    }

    #[test]
    fn unbound_entry_rate_is_reported() {
        let p = crate::parse::parse_program(
            "pipeline P(N) { actor A(pop N, push 1) { push(pop()); } }",
        )
        .unwrap();
        let mut it = Interpreter::new(&p);
        assert_eq!(it.run(&[1.0; 4]), Err(Error::UnboundParam("N".into())));
        it.bind_param("N", 2);
        assert_eq!(it.run(&[1.0, 2.0, 3.0, 4.0]).unwrap(), vec![1.0, 3.0]);
    }

    #[test]
    fn peeks_do_not_consume() {
        // push(peek(1)); push(pop()) -> duplicates forward-looking value
        let a = ActorDef::new(
            "PeekAhead",
            WorkFn {
                pop: RateExpr::constant(2),
                push: RateExpr::constant(2),
                peek: RateExpr::constant(2),
                body: vec![
                    Stmt::Push(Expr::Peek(Box::new(Expr::Int(1)))),
                    Stmt::Push(Expr::Pop),
                    Stmt::Assign {
                        name: "_drop".into(),
                        expr: Expr::Pop,
                    },
                ],
            },
        );
        let p = program_with(vec![a], &[]);
        let mut it = Interpreter::new(&p);
        assert_eq!(
            it.run(&[1.0, 2.0, 3.0, 4.0]).unwrap(),
            vec![2.0, 1.0, 4.0, 3.0]
        );
    }

    #[test]
    fn state_array_binding() {
        // Dot product with a bound vector: pop N matrix row, multiply by x.
        let dot = ActorDef::new(
            "Dot",
            WorkFn {
                pop: RateExpr::param("N"),
                push: RateExpr::constant(1),
                peek: RateExpr::param("N"),
                body: vec![
                    Stmt::Assign {
                        name: "acc".into(),
                        expr: Expr::Float(0.0),
                    },
                    Stmt::For {
                        var: "i".into(),
                        start: Expr::Int(0),
                        end: Expr::var("N"),
                        body: vec![Stmt::Assign {
                            name: "acc".into(),
                            expr: Expr::add(
                                Expr::var("acc"),
                                Expr::mul(
                                    Expr::Pop,
                                    Expr::StateLoad {
                                        array: "x".into(),
                                        index: Box::new(Expr::var("i")),
                                    },
                                ),
                            ),
                        }],
                    },
                    Stmt::Push(Expr::var("acc")),
                ],
            },
        )
        .with_state_array("x", RateExpr::param("N"));
        let p = program_with(vec![dot], &["N"]);
        let mut it = Interpreter::new(&p);
        it.bind_param("N", 3);
        it.bind_state("Dot", "x", vec![1.0, 10.0, 100.0]);
        assert_eq!(it.run(&[1.0, 2.0, 3.0]).unwrap(), vec![321.0]);
    }

    #[test]
    fn missing_state_array_is_error() {
        let a = ActorDef::new(
            "NeedsX",
            WorkFn {
                pop: RateExpr::constant(1),
                push: RateExpr::constant(1),
                peek: RateExpr::constant(1),
                body: vec![Stmt::Push(Expr::Pop)],
            },
        )
        .with_state_array("x", RateExpr::constant(4));
        let p = program_with(vec![a], &[]);
        let mut it = Interpreter::new(&p);
        assert!(matches!(it.run(&[1.0]), Err(Error::Runtime(_))));
    }

    #[test]
    fn insufficient_input_reported() {
        let sum = ActorDef::new(
            "Sum8",
            WorkFn {
                pop: RateExpr::constant(8),
                push: RateExpr::constant(1),
                peek: RateExpr::constant(8),
                body: vec![Stmt::Push(Expr::Pop)],
            },
        );
        let p = program_with(vec![sum], &[]);
        let mut it = Interpreter::new(&p);
        assert_eq!(
            it.run(&[1.0, 2.0]),
            Err(Error::InsufficientInput { needed: 8, got: 2 })
        );
    }

    #[test]
    fn scalar_state_persists_across_firings() {
        // Running sum: count = count + pop(); push(count)
        let a = ActorDef::new(
            "RunningSum",
            WorkFn {
                pop: RateExpr::constant(1),
                push: RateExpr::constant(1),
                peek: RateExpr::constant(1),
                body: vec![
                    Stmt::Assign {
                        name: "count".into(),
                        expr: Expr::add(Expr::var("count"), Expr::Pop),
                    },
                    Stmt::Push(Expr::var("count")),
                ],
            },
        )
        .with_state_scalar("count", 0.0);
        let p = program_with(vec![a], &[]);
        let mut it = Interpreter::new(&p);
        assert_eq!(it.run(&[1.0, 2.0, 3.0]).unwrap(), vec![1.0, 3.0, 6.0]);
    }

    #[test]
    fn assigning_to_param_is_error() {
        let a = ActorDef::new(
            "Bad",
            WorkFn {
                pop: RateExpr::constant(1),
                push: RateExpr::constant(1),
                peek: RateExpr::constant(1),
                body: vec![
                    Stmt::Assign {
                        name: "N".into(),
                        expr: Expr::Float(1.0),
                    },
                    Stmt::Push(Expr::Pop),
                ],
            },
        );
        let p = program_with(vec![a], &["N"]);
        let mut it = Interpreter::new(&p);
        it.bind_param("N", 4);
        assert!(matches!(it.run(&[1.0]), Err(Error::Runtime(_))));
    }

    #[test]
    fn intrinsics_and_binops_evaluate() {
        assert_eq!(
            eval_intrinsic(Intrinsic::Max, &[Value::F32(1.0), Value::F32(2.0)]).unwrap(),
            Value::F32(2.0)
        );
        assert_eq!(
            eval_intrinsic(
                Intrinsic::Select,
                &[Value::Bool(false), Value::F32(1.0), Value::F32(2.0)]
            )
            .unwrap(),
            Value::F32(2.0)
        );
        assert!(eval_intrinsic(Intrinsic::Sqrt, &[]).is_err());
        assert_eq!(
            eval_binop(BinOp::Div, Value::I64(7), Value::I64(2)).unwrap(),
            Value::I64(3)
        );
        assert!(eval_binop(BinOp::Div, Value::I64(1), Value::I64(0)).is_err());
        assert_eq!(
            eval_binop(BinOp::Lt, Value::F32(1.0), Value::I64(2)).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn splitjoin_duplicate_then_join_interleaves() {
        use crate::graph::{Joiner, Splitter};
        let double = ActorDef::new(
            "Double",
            WorkFn {
                pop: RateExpr::constant(1),
                push: RateExpr::constant(1),
                peek: RateExpr::constant(1),
                body: vec![Stmt::Push(Expr::mul(Expr::Pop, Expr::Float(2.0)))],
            },
        );
        let triple = ActorDef::new(
            "Triple",
            WorkFn {
                pop: RateExpr::constant(1),
                push: RateExpr::constant(1),
                peek: RateExpr::constant(1),
                body: vec![Stmt::Push(Expr::mul(Expr::Pop, Expr::Float(3.0)))],
            },
        );
        let p = Program {
            name: "P".into(),
            params: vec![],
            actors: vec![double, triple],
            graph: StreamNode::SplitJoin {
                splitter: Splitter::Duplicate,
                branches: vec![
                    StreamNode::Actor("Double".into()),
                    StreamNode::Actor("Triple".into()),
                ],
                joiner: Joiner::RoundRobin(vec![RateExpr::constant(1), RateExpr::constant(1)]),
            },
        };
        let mut it = Interpreter::new(&p);
        assert_eq!(it.run(&[1.0, 10.0]).unwrap(), vec![2.0, 3.0, 20.0, 30.0]);
    }

    #[test]
    fn roundrobin_split_distributes() {
        use crate::graph::{Joiner, Splitter};
        let id = |name: &str| {
            ActorDef::new(
                name,
                WorkFn {
                    pop: RateExpr::constant(1),
                    push: RateExpr::constant(1),
                    peek: RateExpr::constant(1),
                    body: vec![Stmt::Push(Expr::Pop)],
                },
            )
        };
        let p = Program {
            name: "P".into(),
            params: vec![],
            actors: vec![id("A"), id("B")],
            graph: StreamNode::SplitJoin {
                splitter: Splitter::RoundRobin(vec![RateExpr::constant(2), RateExpr::constant(1)]),
                branches: vec![StreamNode::Actor("A".into()), StreamNode::Actor("B".into())],
                joiner: Joiner::RoundRobin(vec![RateExpr::constant(2), RateExpr::constant(1)]),
            },
        };
        let mut it = Interpreter::new(&p);
        // Round-robin 2:1 in, 2:1 out — order preserved.
        assert_eq!(
            it.run(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap(),
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        );
    }
}
