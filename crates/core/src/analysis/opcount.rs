//! Instruction and I/O counting over work-function IR.
//!
//! The performance model needs per-firing instruction mixes *as functions
//! of the input size*. Loop trip counts in the IR are expressions over
//! program parameters, so under a concrete binding every count collapses
//! to a number. These counts feed the closed-form [`LaunchProfile`]s the
//! compiler uses to choose optimizations before anything executes.
//!
//! [`LaunchProfile`]: perfmodel::LaunchProfile

use streamir::ir::{Expr, Stmt};
use streamir::rates::Bindings;
use streamir::value::Value;

/// Per-firing operation counts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OpCounts {
    /// Arithmetic/logic instructions (adds, muls, compares, intrinsics).
    pub compute: f64,
    /// Floating-point operations (a subset of `compute`, for GFLOPS).
    pub flops: f64,
    /// Dynamic `pop()` executions.
    pub pops: f64,
    /// Dynamic `peek()` executions.
    pub peeks: f64,
    /// Dynamic `push()` executions.
    pub pushes: f64,
    /// State-array loads with unit-varying indices.
    pub state_loads: f64,
    /// State-array loads with unit-invariant (constant) indices — hoisted
    /// to one load per block by the templates, so nearly free.
    pub state_loads_uniform: f64,
    /// State-array stores.
    pub state_stores: f64,
}

impl OpCounts {
    fn scale(mut self, k: f64) -> OpCounts {
        self.compute *= k;
        self.flops *= k;
        self.pops *= k;
        self.peeks *= k;
        self.pushes *= k;
        self.state_loads *= k;
        self.state_loads_uniform *= k;
        self.state_stores *= k;
        self
    }

    fn add(&mut self, other: OpCounts) {
        self.compute += other.compute;
        self.flops += other.flops;
        self.pops += other.pops;
        self.peeks += other.peeks;
        self.pushes += other.pushes;
        self.state_loads += other.state_loads;
        self.state_loads_uniform += other.state_loads_uniform;
        self.state_stores += other.state_stores;
    }

    /// Total global-memory-facing accesses per firing (pops, peeks,
    /// pushes, state traffic).
    pub fn mem_accesses(&self) -> f64 {
        self.pops + self.peeks + self.pushes + self.state_loads + self.state_stores
    }
}

/// Try to evaluate an expression to a constant under `binds` (parameters
/// only; locals and stream reads make it dynamic).
fn const_eval(expr: &Expr, binds: &Bindings) -> Option<f64> {
    match expr {
        Expr::Float(x) => Some(*x as f64),
        Expr::Int(i) => Some(*i as f64),
        Expr::Var(name) => binds.get(name).map(|v| *v as f64),
        Expr::Binary { op, lhs, rhs } => {
            let a = const_eval(lhs, binds)?;
            let b = const_eval(rhs, binds)?;
            use streamir::ir::BinOp::*;
            Some(match op {
                Add => a + b,
                Sub => a - b,
                Mul => a * b,
                Div => {
                    if b == 0.0 {
                        return None;
                    }
                    a / b
                }
                Rem => {
                    if b == 0.0 {
                        return None;
                    }
                    a % b
                }
                _ => return None,
            })
        }
        Expr::Unary { op, operand } => {
            let v = const_eval(operand, binds)?;
            match op {
                streamir::ir::UnOp::Neg => Some(-v),
                streamir::ir::UnOp::Not => None,
            }
        }
        _ => None,
    }
}

/// Operation counts of evaluating `expr` once under `binds`.
pub(crate) fn expr_counts(expr: &Expr, binds: &Bindings) -> OpCounts {
    let mut c = OpCounts::default();
    match expr {
        Expr::Float(_) | Expr::Int(_) | Expr::Var(_) => {}
        Expr::Pop => c.pops += 1.0,
        Expr::Peek(e) => {
            c.peeks += 1.0;
            c.add(expr_counts(e, binds));
        }
        Expr::StateLoad { index, .. } => {
            if const_eval(index, binds).is_some() {
                c.state_loads_uniform += 1.0;
            } else {
                c.state_loads += 1.0;
            }
            c.add(expr_counts(index, binds));
        }
        Expr::Binary { op, lhs, rhs } => {
            c.compute += 1.0;
            if !op.is_comparison() {
                c.flops += 1.0;
            }
            c.add(expr_counts(lhs, binds));
            c.add(expr_counts(rhs, binds));
        }
        Expr::Unary { operand, .. } => {
            c.compute += 1.0;
            c.add(expr_counts(operand, binds));
        }
        Expr::Call { intrinsic, args } => {
            // Transcendental intrinsics cost several instructions.
            use streamir::ir::Intrinsic::*;
            let (insts, flops) = match intrinsic {
                Sqrt | Exp | Log | Sin | Cos | Pow => (8.0, 8.0),
                Abs | Floor | Max | Min => (1.0, 1.0),
                Select => (1.0, 0.0),
            };
            c.compute += insts;
            c.flops += flops;
            for a in args {
                c.add(expr_counts(a, binds));
            }
        }
    }
    c
}

/// Count per-firing operations of a work body under concrete parameter
/// bindings. Loop bounds that cannot be evaluated (data-dependent) fall
/// back to an assumed trip count of 1.
pub fn body_counts(body: &[Stmt], binds: &Bindings) -> OpCounts {
    let mut c = OpCounts::default();
    for s in body {
        c.add(stmt_counts(s, binds));
    }
    c
}

fn stmt_counts(stmt: &Stmt, binds: &Bindings) -> OpCounts {
    match stmt {
        Stmt::Assign { expr, .. } => expr_counts(expr, binds),
        Stmt::StateStore { index, expr, .. } => {
            let mut c = expr_counts(index, binds);
            c.add(expr_counts(expr, binds));
            c.state_stores += 1.0;
            c
        }
        Stmt::Push(e) => {
            let mut c = expr_counts(e, binds);
            c.pushes += 1.0;
            c
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => {
            // Both sides charged at half weight (branch probability 0.5)
            // plus the condition itself — a standard static estimate.
            let mut c = expr_counts(cond, binds);
            c.compute += 1.0;
            let mut t = OpCounts::default();
            for s in then_body {
                t.add(stmt_counts(s, binds));
            }
            let mut e = OpCounts::default();
            for s in else_body {
                e.add(stmt_counts(s, binds));
            }
            // I/O must be counted fully (rates are exact); arithmetic is
            // averaged. Use max of I/O counts, average of compute.
            let mut merged = OpCounts {
                compute: 0.5 * (t.compute + e.compute),
                flops: 0.5 * (t.flops + e.flops),
                pops: t.pops.max(e.pops),
                peeks: t.peeks.max(e.peeks),
                pushes: t.pushes.max(e.pushes),
                state_loads: t.state_loads.max(e.state_loads),
                state_loads_uniform: t.state_loads_uniform.max(e.state_loads_uniform),
                state_stores: t.state_stores.max(e.state_stores),
            };
            merged.add(c);
            merged
        }
        Stmt::For {
            start, end, body, ..
        } => {
            let lo = const_eval(start, binds);
            let hi = const_eval(end, binds);
            let trips = match (lo, hi) {
                (Some(a), Some(b)) => (b - a).max(0.0),
                _ => 1.0,
            };
            let mut inner = OpCounts::default();
            for s in body {
                inner.add(stmt_counts(s, binds));
            }
            // Loop overhead: one increment + one compare per trip.
            inner.compute += 2.0;
            inner.scale(trips)
        }
    }
}

/// Evaluate a loop bound to a constant if possible (shared helper used by
/// the pattern matchers).
pub fn eval_bound(expr: &Expr, binds: &Bindings) -> Option<i64> {
    const_eval(expr, binds).map(|v| v as i64)
}

/// Fold a constant expression into a [`Value`] when possible.
pub fn const_value(expr: &Expr, binds: &Bindings) -> Option<Value> {
    match expr {
        Expr::Int(i) => Some(Value::I64(*i)),
        _ => const_eval(expr, binds).map(|v| Value::F32(v as f32)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamir::graph::bindings;
    use streamir::ir::{BinOp, Intrinsic};

    #[test]
    fn straightline_counts() {
        // push(pop() * 2.0 + 1.0)
        let body = vec![Stmt::Push(Expr::add(
            Expr::mul(Expr::Pop, Expr::Float(2.0)),
            Expr::Float(1.0),
        ))];
        let c = body_counts(&body, &bindings(&[]));
        assert_eq!(c.pops, 1.0);
        assert_eq!(c.pushes, 1.0);
        assert_eq!(c.compute, 2.0);
        assert_eq!(c.flops, 2.0);
    }

    #[test]
    fn loop_scales_by_trip_count() {
        let body = vec![Stmt::For {
            var: "i".into(),
            start: Expr::Int(0),
            end: Expr::var("N"),
            body: vec![Stmt::Push(Expr::Pop)],
        }];
        let c = body_counts(&body, &bindings(&[("N", 100)]));
        assert_eq!(c.pops, 100.0);
        assert_eq!(c.pushes, 100.0);
        assert_eq!(c.compute, 200.0); // loop overhead
    }

    #[test]
    fn nested_loops_multiply() {
        let body = vec![Stmt::For {
            var: "i".into(),
            start: Expr::Int(0),
            end: Expr::var("R"),
            body: vec![Stmt::For {
                var: "j".into(),
                start: Expr::Int(0),
                end: Expr::var("C"),
                body: vec![Stmt::Push(Expr::Pop)],
            }],
        }];
        let c = body_counts(&body, &bindings(&[("R", 4), ("C", 8)]));
        assert_eq!(c.pops, 32.0);
    }

    #[test]
    fn unknown_bound_falls_back_to_one() {
        let body = vec![Stmt::For {
            var: "i".into(),
            start: Expr::Int(0),
            end: Expr::var("unbound"),
            body: vec![Stmt::Push(Expr::Pop)],
        }];
        let c = body_counts(&body, &bindings(&[]));
        assert_eq!(c.pops, 1.0);
    }

    #[test]
    fn branch_io_uses_max_compute_uses_average() {
        let body = vec![Stmt::If {
            cond: Expr::bin(BinOp::Lt, Expr::var("N"), Expr::Int(5)),
            then_body: vec![Stmt::Push(Expr::add(Expr::Pop, Expr::Float(1.0)))],
            else_body: vec![Stmt::Push(Expr::Pop)],
        }];
        let c = body_counts(&body, &bindings(&[("N", 1)]));
        assert_eq!(c.pushes, 1.0);
        assert_eq!(c.pops, 1.0);
        // cond compare (1) + branch overhead (1) + avg(1, 0) arithmetic
        assert_eq!(c.compute, 2.5);
    }

    #[test]
    fn intrinsics_have_weights() {
        let body = vec![Stmt::Push(Expr::Call {
            intrinsic: Intrinsic::Sqrt,
            args: vec![Expr::Pop],
        })];
        let c = body_counts(&body, &bindings(&[]));
        assert_eq!(c.compute, 8.0);
        let body2 = vec![Stmt::Push(Expr::Call {
            intrinsic: Intrinsic::Abs,
            args: vec![Expr::Pop],
        })];
        assert_eq!(body_counts(&body2, &bindings(&[])).compute, 1.0);
    }

    #[test]
    fn state_traffic_counted() {
        let body = vec![
            Stmt::Assign {
                name: "v".into(),
                expr: Expr::StateLoad {
                    array: "x".into(),
                    index: Box::new(Expr::Int(0)),
                },
            },
            Stmt::StateStore {
                array: "x".into(),
                index: Expr::Int(1),
                expr: Expr::var("v"),
            },
            Stmt::Push(Expr::var("v")),
        ];
        let c = body_counts(&body, &bindings(&[]));
        // Constant-index loads are classified uniform (hoistable).
        assert_eq!(c.state_loads, 0.0);
        assert_eq!(c.state_loads_uniform, 1.0);
        assert_eq!(c.state_stores, 1.0);
        assert_eq!(c.mem_accesses(), 2.0);
    }

    #[test]
    fn eval_bound_handles_arithmetic() {
        let e = Expr::bin(
            BinOp::Div,
            Expr::mul(Expr::var("N"), Expr::Int(3)),
            Expr::Int(2),
        );
        assert_eq!(eval_bound(&e, &bindings(&[("N", 10)])), Some(15));
        assert_eq!(eval_bound(&Expr::var("x"), &bindings(&[])), None);
        assert_eq!(
            eval_bound(
                &Expr::bin(BinOp::Div, Expr::Int(1), Expr::Int(0)),
                &bindings(&[])
            ),
            None
        );
    }
}
