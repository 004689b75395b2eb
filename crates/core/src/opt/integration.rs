//! Actor-integration transforms (§4.3 of the paper).
//!
//! *Vertical integration* fuses consecutive actors so their intermediate
//! stream lives in registers instead of global memory; transfer actors
//! dissolve into index translation as a by-product. *Horizontal
//! integration* fuses siblings of a duplicate splitter (implemented by the
//! [`crate::templates::FusedReduce`] template; the legality check lives
//! here).
//!
//! Fusion works at the IR level on straight-line per-unit bodies: the
//! producer's `push(e)` statements become temporaries, and the consumer's
//! `pop()`s are substituted with those temporaries in order.

use streamir::ir::{Expr, Stmt};
use streamir::rates::Bindings;

use crate::analysis::opcount::eval_bound;
use crate::analysis::recurrence::ParallelLoop;
use crate::analysis::reduction::ReductionPattern;

/// True when every statement is a top-level assign/push (no control flow)
/// — the precondition for pop/push substitution being order-safe.
fn is_straightline(body: &[Stmt]) -> bool {
    body.iter()
        .all(|s| matches!(s, Stmt::Assign { .. } | Stmt::Push(_)))
}

/// Rename every local variable in `body` with a prefix, avoiding capture
/// when two fused bodies use the same temporary names. Parameters (listed
/// in `binds`) are left untouched.
fn rename_locals(body: &[Stmt], prefix: &str, binds: &Bindings, keep: &[&str]) -> Vec<Stmt> {
    fn rename_expr(e: &Expr, prefix: &str, binds: &Bindings, keep: &[&str]) -> Expr {
        match e {
            Expr::Var(v) => {
                if binds.contains_key(v) || keep.contains(&v.as_str()) {
                    Expr::Var(v.clone())
                } else {
                    Expr::Var(format!("{prefix}{v}"))
                }
            }
            Expr::Peek(inner) => Expr::Peek(Box::new(rename_expr(inner, prefix, binds, keep))),
            Expr::StateLoad { array, index } => Expr::StateLoad {
                array: array.clone(),
                index: Box::new(rename_expr(index, prefix, binds, keep)),
            },
            Expr::Binary { op, lhs, rhs } => Expr::Binary {
                op: *op,
                lhs: Box::new(rename_expr(lhs, prefix, binds, keep)),
                rhs: Box::new(rename_expr(rhs, prefix, binds, keep)),
            },
            Expr::Unary { op, operand } => Expr::Unary {
                op: *op,
                operand: Box::new(rename_expr(operand, prefix, binds, keep)),
            },
            Expr::Call { intrinsic, args } => Expr::Call {
                intrinsic: *intrinsic,
                args: args
                    .iter()
                    .map(|a| rename_expr(a, prefix, binds, keep))
                    .collect(),
            },
            Expr::Float(_) | Expr::Int(_) | Expr::Pop => e.clone(),
        }
    }
    body.iter()
        .map(|s| match s {
            Stmt::Assign { name, expr } => Stmt::Assign {
                name: if binds.contains_key(name) || keep.contains(&name.as_str()) {
                    name.clone()
                } else {
                    format!("{prefix}{name}")
                },
                expr: rename_expr(expr, prefix, binds, keep),
            },
            Stmt::Push(e) => Stmt::Push(rename_expr(e, prefix, binds, keep)),
            Stmt::StateStore { array, index, expr } => Stmt::StateStore {
                array: array.clone(),
                index: rename_expr(index, prefix, binds, keep),
                expr: rename_expr(expr, prefix, binds, keep),
            },
            other => other.clone(),
        })
        .collect()
}

/// Substitute the `n` pops of `expr` (in evaluation order) with the given
/// replacement expressions. Returns `None` when counts mismatch.
fn substitute_pops_expr(expr: &Expr, repl: &[Expr], next: &mut usize) -> Expr {
    match expr {
        Expr::Pop => {
            let e = repl[*next].clone();
            *next += 1;
            e
        }
        Expr::Peek(inner) => Expr::Peek(Box::new(substitute_pops_expr(inner, repl, next))),
        Expr::StateLoad { array, index } => Expr::StateLoad {
            array: array.clone(),
            index: Box::new(substitute_pops_expr(index, repl, next)),
        },
        Expr::Binary { op, lhs, rhs } => Expr::Binary {
            op: *op,
            lhs: Box::new(substitute_pops_expr(lhs, repl, next)),
            rhs: Box::new(substitute_pops_expr(rhs, repl, next)),
        },
        Expr::Unary { op, operand } => Expr::Unary {
            op: *op,
            operand: Box::new(substitute_pops_expr(operand, repl, next)),
        },
        Expr::Call { intrinsic, args } => Expr::Call {
            intrinsic: *intrinsic,
            args: args
                .iter()
                .map(|a| substitute_pops_expr(a, repl, next))
                .collect(),
        },
        Expr::Float(_) | Expr::Int(_) | Expr::Var(_) => expr.clone(),
    }
}

/// Vertically integrate two parallel loops: `a` feeds `b` element-wise.
///
/// Requires matching per-iteration rates (`a` pushes what `b` pops),
/// matching trip counts under `binds`, and straight-line bodies. The
/// result consumes `a`'s input and produces `b`'s output with the
/// intermediate stream held in registers.
pub fn fuse_parallel_loops(
    a: &ParallelLoop,
    b: &ParallelLoop,
    binds: &Bindings,
) -> Option<ParallelLoop> {
    if a.pushes_per_iter != b.pops_per_iter {
        return None;
    }
    if a.window_peeks || b.window_peeks {
        return None; // window-sharing iterations don't compose element-wise
    }
    let (ba, bb) = (eval_bound(&a.bound, binds)?, eval_bound(&b.bound, binds)?);
    if ba != bb {
        return None;
    }
    if !is_straightline(&a.body) || !is_straightline(&b.body) {
        return None;
    }

    // Producer: pushes become temporaries.
    let a_body = rename_locals(&a.body, "__a_", binds, &[&a.loop_var]);
    let mut fused: Vec<Stmt> = Vec::new();
    let mut temps: Vec<Expr> = Vec::new();
    for s in a_body {
        match s {
            Stmt::Push(e) => {
                let name = format!("__t{}", temps.len());
                temps.push(Expr::var(&name));
                fused.push(Stmt::Assign { name, expr: e });
            }
            other => fused.push(other),
        }
    }

    // Consumer: pops become those temporaries, in order. The consumer's
    // loop variable is unified with the producer's.
    let keep_b: Vec<&str> = vec![&b.loop_var];
    let b_body = rename_locals(&b.body, "__b_", binds, &keep_b);
    let mut next = 0usize;
    for s in b_body {
        let s = match s {
            Stmt::Assign { name, expr } => Stmt::Assign {
                name,
                expr: substitute_pops_expr(&expr, &temps, &mut next),
            },
            Stmt::Push(e) => Stmt::Push(substitute_pops_expr(&e, &temps, &mut next)),
            Stmt::StateStore { array, index, expr } => Stmt::StateStore {
                array,
                index: substitute_pops_expr(&index, &temps, &mut next),
                expr: substitute_pops_expr(&expr, &temps, &mut next),
            },
            other => other,
        };
        fused.push(s);
    }
    if next != temps.len() {
        return None; // consumer did not pop everything the producer pushed
    }
    // Unify loop variables: b's loop var must alias a's.
    if b.loop_var != a.loop_var {
        fused.insert(
            0,
            Stmt::Assign {
                name: b.loop_var.clone(),
                expr: Expr::var(&a.loop_var),
            },
        );
    }

    Some(ParallelLoop {
        loop_var: a.loop_var.clone(),
        bound: a.bound.clone(),
        pops_per_iter: a.pops_per_iter,
        pushes_per_iter: b.pushes_per_iter,
        body: fused,
        ivs_applied: a.ivs_applied || b.ivs_applied,
        window_peeks: false,
    })
}

/// Vertically integrate a map (as a parallel loop) into a downstream
/// reduction: the reduction's element expression absorbs the producer's
/// computation, eliminating the intermediate buffer entirely.
///
/// The producer must be straight-line with exactly one push per iteration
/// matching the reduction's per-element pops of 1... more precisely, each
/// reduction element consumes `red.pops_per_elem` producer outputs; each
/// is replaced by one inlined copy of the producer's push expression.
pub fn fuse_into_reduction(
    producer: &ParallelLoop,
    red: &ReductionPattern,
    binds: &Bindings,
) -> Option<ReductionPattern> {
    if producer.pushes_per_iter != 1 || !is_straightline(&producer.body) {
        return None;
    }
    // The producer body must be a single push (pure expression) so it can
    // be inlined into the element expression verbatim.
    let push_expr = match producer.body.as_slice() {
        [Stmt::Push(e)] => e.clone(),
        _ => {
            // Inline chains of assigns by substitution would be possible;
            // keep to the single-expression case the benchmarks need.
            return None;
        }
    };
    // Check rate compatibility: total elements consumed by the reduction
    // equals total iterations produced.
    let red_elems = eval_bound(&red.bound, binds)?;
    let prod_iters = eval_bound(&producer.bound, binds)?;
    if red_elems * red.pops_per_elem as i64 != prod_iters {
        return None;
    }
    // Each of the reduction's pops becomes one instance of the producer's
    // expression; the producer's own pops then read the original stream.
    let repl: Vec<Expr> = (0..red.pops_per_elem).map(|_| push_expr.clone()).collect();
    let mut next = 0usize;
    let fused_elem = substitute_pops_expr(&red.elem, &repl, &mut next);
    if next != repl.len() {
        return None;
    }
    Some(ReductionPattern {
        acc: red.acc.clone(),
        init: red.init,
        op: red.op,
        elem: fused_elem,
        loop_var: red.loop_var.clone(),
        pops_per_elem: red.pops_per_elem * producer.pops_per_iter,
        bound: red.bound.clone(),
        post: red.post.clone(),
    })
}

/// Horizontally integrate sibling *map* actors under a duplicate splitter:
/// the window is popped once into shared temporaries and every sibling's
/// body runs on those values, pushes interleaving in branch order (which
/// is exactly a `roundrobin(q1, q2, ...)` joiner's order).
///
/// Requires straight-line bodies (pop substitution must be order-safe).
pub fn fuse_duplicate_maps(branches: &[(Vec<Stmt>, String)], pops: usize) -> Option<Vec<Stmt>> {
    if branches.iter().any(|(b, _)| !is_straightline(b)) {
        return None;
    }
    let empty = Bindings::new();
    let mut fused: Vec<Stmt> = Vec::new();
    let mut temps: Vec<Expr> = Vec::new();
    for j in 0..pops {
        let name = format!("__w{j}");
        temps.push(Expr::var(&name));
        fused.push(Stmt::Assign {
            name,
            expr: Expr::Pop,
        });
    }
    for (i, (body, _)) in branches.iter().enumerate() {
        let renamed = rename_locals(body, &format!("__h{i}_"), &empty, &[]);
        let mut next = 0usize;
        for s in renamed {
            let s = match s {
                Stmt::Assign { name, expr } => Stmt::Assign {
                    name,
                    expr: substitute_pops_expr(&expr, &temps, &mut next),
                },
                Stmt::Push(e) => Stmt::Push(substitute_pops_expr(&e, &temps, &mut next)),
                other => other,
            };
            fused.push(s);
        }
        if next != temps.len() {
            return None; // a sibling did not consume the whole window
        }
    }
    Some(fused)
}

/// Legality of horizontal integration for sibling reductions: they must
/// observe the same duplicated stream with the same element windows.
pub fn can_fuse_horizontal(patterns: &[&ReductionPattern]) -> bool {
    if patterns.len() < 2 {
        return false;
    }
    let ppe = patterns[0].pops_per_elem;
    let bound = &patterns[0].bound;
    patterns
        .iter()
        .all(|p| p.pops_per_elem == ppe && p.bound == *bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamir::graph::bindings;
    use streamir::parse::parse_program;

    use crate::analysis::recurrence::parallelize;
    use crate::analysis::reduction::detect_reduction;
    use crate::bytecode::{compile_body, Ty};
    use crate::warp::{self, HostIo, WarpFrame};

    fn loop_of(src: &str, binds: &Bindings) -> ParallelLoop {
        let p = parse_program(src).unwrap();
        parallelize(&p.actors[0], binds).expect("parallelizable")
    }

    fn run_loop(pl: &ParallelLoop, binds: &Bindings, input: &[f32]) -> Vec<f32> {
        let n = eval_bound(&pl.bound, binds).unwrap() as usize;
        let prog = compile_body(&pl.body, binds, &[(&pl.loop_var, Ty::I64)]).unwrap();
        let proto = prog.bind(binds).unwrap();
        let mut wf = WarpFrame::default();
        wf.fit(&prog, 1);
        let mut io = HostIo::default();
        for i in 0..n {
            io.window = &input[i * pl.pops_per_iter..(i + 1) * pl.pops_per_iter];
            io.popped = 0;
            wf.reset(&proto);
            if let Some(slot) = prog.slot_of(&pl.loop_var) {
                wf.i64_row_mut(slot)[0] = i as i64;
            }
            warp::eval(&prog, &mut wf, 1, &mut io);
        }
        io.output
    }

    #[test]
    fn fused_loops_compute_composition() {
        let binds = bindings(&[("N", 8)]);
        let a = loop_of(
            "pipeline P(N) { actor A(pop N, push N) { for i in 0..N { push(pop() * 2.0); } } }",
            &binds,
        );
        let b = loop_of(
            "pipeline P(N) { actor B(pop N, push N) { for j in 0..N { push(pop() + 1.0); } } }",
            &binds,
        );
        let fused = fuse_parallel_loops(&a, &b, &binds).expect("fusable");
        assert_eq!(fused.pops_per_iter, 1);
        assert_eq!(fused.pushes_per_iter, 1);
        let input: Vec<f32> = (0..8).map(|i| i as f32).collect();
        let out = run_loop(&fused, &binds, &input);
        let expected: Vec<f32> = input.iter().map(|x| x * 2.0 + 1.0).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn fusion_respects_multi_rate_windows() {
        let binds = bindings(&[("N", 4)]);
        // a: 2 pops -> 2 pushes (swap); b: 2 pops -> 1 push (sum).
        let a = loop_of(
            "pipeline P(N) { actor A(pop 2*N, push 2*N) { for i in 0..N { x = pop(); y = pop(); push(y); push(x); } } }",
            &binds,
        );
        let b = loop_of(
            "pipeline P(N) { actor B(pop 2*N, push N) { for i in 0..N { p = pop(); q = pop(); push(p - q); } } }",
            &binds,
        );
        let fused = fuse_parallel_loops(&a, &b, &binds).expect("fusable");
        assert_eq!(fused.pops_per_iter, 2);
        assert_eq!(fused.pushes_per_iter, 1);
        let input = vec![1.0, 10.0, 2.0, 20.0, 3.0, 30.0, 4.0, 40.0];
        let out = run_loop(&fused, &binds, &input);
        // swap then subtract: (y - x)
        assert_eq!(out, vec![9.0, 18.0, 27.0, 36.0]);
    }

    #[test]
    fn rate_mismatch_rejected() {
        let binds = bindings(&[("N", 4)]);
        let a = loop_of(
            "pipeline P(N) { actor A(pop N, push 2*N) { for i in 0..N { x = pop(); push(x); push(x); } } }",
            &binds,
        );
        let b = loop_of(
            "pipeline P(N) { actor B(pop N, push N) { for i in 0..N { push(pop()); } } }",
            &binds,
        );
        assert!(fuse_parallel_loops(&a, &b, &binds).is_none());
    }

    #[test]
    fn local_name_collision_is_safe() {
        let binds = bindings(&[("N", 2)]);
        // Both use a local named `t`.
        let a = loop_of(
            "pipeline P(N) { actor A(pop N, push N) { for i in 0..N { t = pop(); push(t * 3.0); } } }",
            &binds,
        );
        let b = loop_of(
            "pipeline P(N) { actor B(pop N, push N) { for i in 0..N { t = pop(); push(t + 5.0); } } }",
            &binds,
        );
        let fused = fuse_parallel_loops(&a, &b, &binds).unwrap();
        let out = run_loop(&fused, &binds, &[1.0, 2.0]);
        assert_eq!(out, vec![8.0, 11.0]);
    }

    #[test]
    fn fuse_square_into_sum_gives_snrm2_core() {
        let binds = bindings(&[("N", 8)]);
        // `pow(pop(), 2)` rather than `pop()*pop()`: the latter would
        // square two *different* stream items.
        let square = loop_of(
            "pipeline P(N) { actor Sq(pop N, push N) { for i in 0..N { push(pow(pop(), 2.0)); } } }",
            &binds,
        );
        let p = parse_program(
            r#"pipeline P(N) {
                actor Sum(pop N, push 1) {
                    acc = 0.0;
                    for i in 0..N { acc = acc + pop(); }
                    push(sqrt(acc));
                }
            }"#,
        )
        .unwrap();
        let red = detect_reduction(&p.actors[0]).unwrap();
        let fused = fuse_into_reduction(&square, &red, &binds).expect("fusable");
        assert_eq!(fused.pops_per_elem, 1);
        assert!(matches!(fused.elem, Expr::Call { .. }));
    }

    #[test]
    fn horizontal_legality() {
        let p = parse_program(
            r#"pipeline P(N) {
                actor MaxA(pop N, push 1) {
                    m = -1000000.0;
                    for i in 0..N { m = max(m, pop()); }
                    push(m);
                }
                actor SumA(pop N, push 1) {
                    s = 0.0;
                    for i in 0..N { s = s + pop(); }
                    push(s);
                }
            }"#,
        )
        .unwrap();
        let a = detect_reduction(&p.actors[0]).unwrap();
        let b = detect_reduction(&p.actors[1]).unwrap();
        assert!(can_fuse_horizontal(&[&a, &b]));
        let mut c = b.clone();
        c.pops_per_elem = 2;
        assert!(!can_fuse_horizontal(&[&a, &c]));
        assert!(!can_fuse_horizontal(&[&a]));
    }
}
