//! Steady-state scheduling (rate matching).
//!
//! To ensure correct functionality, a StreamIt program needs a *steady-state
//! schedule*: a repetition count per actor such that every channel's
//! production and consumption balance out over one schedule iteration
//! (`reps[src] * push_rate == reps[dst] * pop_rate`). The scheduler solves
//! these balance equations with exact rational arithmetic, scales the
//! solution to the smallest integer vector, and derives channel buffer
//! sizes.
//!
//! Rates may be symbolic in program parameters, so a schedule is computed
//! *for a concrete parameter binding* — this is exactly the point where
//! input size enters the compilation flow.

use std::collections::{BTreeMap, VecDeque};

use crate::error::{Error, Result};
use crate::graph::{FlatGraph, Program};
use crate::rates::{Bindings, RateInterval};

/// Repetition count for one flat node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleEntry {
    /// Flat-node index.
    pub node: usize,
    /// Firings per steady-state iteration.
    pub reps: u64,
}

/// A steady-state schedule for a flattened graph under a concrete binding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Entries in topological order.
    pub entries: Vec<ScheduleEntry>,
    /// Required capacity of each channel (indexed like
    /// [`FlatGraph::channels`]).
    pub buffer_sizes: Vec<u64>,
    /// Items consumed from the program input per steady-state iteration.
    pub steady_input: u64,
    /// Items produced on the program output per steady-state iteration.
    pub steady_output: u64,
}

impl Schedule {
    /// Repetition count of a node.
    pub fn reps(&self, node: usize) -> u64 {
        self.entries
            .iter()
            .find(|e| e.node == node)
            .map_or(0, |e| e.reps)
    }

    /// Total firings across all nodes in one steady state.
    pub fn total_firings(&self) -> u64 {
        self.entries.iter().map(|e| e.reps).sum()
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn lcm(a: u64, b: u64) -> u64 {
    if a == 0 || b == 0 {
        0
    } else {
        a / gcd(a, b) * b
    }
}

/// An exact nonnegative rational, just big enough for rate matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ratio {
    num: u64,
    den: u64,
}

impl Ratio {
    fn new(num: u64, den: u64) -> Ratio {
        debug_assert!(den != 0);
        let g = gcd(num, den).max(1);
        Ratio {
            num: num / g,
            den: den / g,
        }
    }

    fn mul(self, num: u64, den: u64) -> Ratio {
        // Cross-reduce before multiplying to avoid overflow.
        let g1 = gcd(self.num, den).max(1);
        let g2 = gcd(num, self.den).max(1);
        Ratio::new((self.num / g1) * (num / g2), (self.den / g2) * (den / g1))
    }
}

/// One event of the balance walk, a breadth-first search from the entry
/// node over the channels in index order. Which node a step reaches, and
/// whether it discovers that node or checks it against an earlier
/// discovery, depends only on the graph's structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Step {
    /// The node whose repetition count the step propagates.
    from: usize,
    /// The channel it propagates across.
    chan: usize,
    /// The other end of `chan`.
    to: usize,
    /// `from` is the channel's source (else its destination).
    forward: bool,
    /// The walk reaches `to` for the first time (else it checks it).
    discover: bool,
}

/// The balance walk and the topological order of a flat graph, recorded
/// once at flatten time. [`FlatGraph::repetitions`] replays the walk's
/// steps under each binding instead of searching the graph again.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Walk {
    steps: Vec<Step>,
    /// The walk reaches every node from the entry.
    connected: bool,
    /// Topological order; `None` when the graph has a cycle.
    pub(crate) topo: Option<Vec<usize>>,
}

impl Walk {
    /// Record the walk of `graph`, whose entry is already set.
    pub(crate) fn record(graph: &FlatGraph) -> Walk {
        let mut seen = vec![false; graph.nodes.len()];
        seen[graph.entry] = true;
        let mut steps = Vec::new();
        let mut queue = VecDeque::from([graph.entry]);
        while let Some(from) = queue.pop_front() {
            for (chan, c) in graph.channels.iter().enumerate() {
                let (to, forward) = if c.src == from {
                    (c.dst, true)
                } else if c.dst == from {
                    (c.src, false)
                } else {
                    continue;
                };
                let discover = !seen[to];
                if discover {
                    seen[to] = true;
                    queue.push_back(to);
                }
                steps.push(Step {
                    from,
                    chan,
                    to,
                    forward,
                    discover,
                });
            }
        }
        Walk {
            steps,
            connected: seen.iter().all(|&s| s),
            topo: graph.kahn_order(),
        }
    }
}

/// Buffers [`FlatGraph::repetitions`] reuses: balancing one graph under
/// another binding allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct Balance {
    /// (push, pop, peek) of each channel under the binding.
    rates: Vec<(u64, u64, u64)>,
    ratios: Vec<Ratio>,
    reps: Vec<u64>,
    steady_output: u64,
}

impl Balance {
    /// Firings per steady state of each flat node (indexed like
    /// [`FlatGraph::nodes`]) from the last [`FlatGraph::repetitions`]
    /// call, meaningful only when that call returned `Ok`.
    pub fn reps(&self) -> &[u64] {
        &self.reps
    }
}

/// Compute the steady-state schedule of `graph` under `binds`.
///
/// # Errors
///
/// * [`Error::RateMismatch`] if the balance equations have no solution
///   (inconsistent rates) or a rate evaluates to a non-positive number.
/// * [`Error::UnboundParam`] if a rate mentions an unbound parameter.
/// * [`Error::Semantic`] if the graph is cyclic or disconnected.
pub fn rate_match(graph: &FlatGraph, binds: &Bindings) -> Result<Schedule> {
    let mut bal = Balance::default();
    let steady_input = graph.repetitions(binds, &mut bal)?;
    let reps = &bal.reps;
    let buffer_sizes = (graph.channels.iter().zip(&bal.rates))
        .map(|(c, &(push, pop, peek))| reps[c.src] * push + (peek - pop))
        .collect();
    let entries = (graph.topo_order()?.into_iter())
        .map(|node| ScheduleEntry {
            node,
            reps: reps[node],
        })
        .collect();
    Ok(Schedule {
        entries,
        buffer_sizes,
        steady_input,
        steady_output: bal.steady_output,
    })
}

impl FlatGraph {
    /// The repetition vector of [`rate_match`] under `binds`, left in
    /// `buf` ([`Balance::reps`]), and the items consumed from the program
    /// input per steady state — the part of a schedule that depends on
    /// the binding, computed by replaying the walk recorded at flatten
    /// time.
    ///
    /// # Errors
    ///
    /// Exactly [`rate_match`]'s, in the same order and with the same text.
    pub fn repetitions(&self, binds: &Bindings, buf: &mut Balance) -> Result<u64> {
        buf.rates.clear();
        for c in &self.channels {
            let s = c.src_rate.eval(binds)?;
            let d = c.dst_rate.eval(binds)?;
            let p = c.dst_peek.eval(binds)?;
            if s <= 0 || d <= 0 {
                return Err(Error::RateMismatch(format!(
                    "channel n{} -> n{} has non-positive rate ({s} : {d})",
                    c.src, c.dst
                )));
            }
            buf.rates.push((s as u64, d as u64, p.max(d) as u64));
        }

        // Propagate rational repetition counts from the entry node. A
        // node the walk never reaches keeps 0/1 and fails the
        // connectivity check below.
        let ratios = &mut buf.ratios;
        ratios.clear();
        ratios.resize(self.nodes.len(), Ratio { num: 0, den: 1 });
        ratios[self.entry] = Ratio::new(1, 1);
        for step in &self.walk.steps {
            // reps[dst] = reps[src] * push / pop, or the inverse backwards.
            let (push, pop, _) = buf.rates[step.chan];
            let (num, den) = if step.forward {
                (push, pop)
            } else {
                (pop, push)
            };
            let expected = ratios[step.from].mul(num, den);
            let existing = &mut ratios[step.to];
            if step.discover {
                *existing = expected;
            } else if *existing != expected {
                return Err(Error::RateMismatch(format!(
                    "node n{} requires {}/{} and {}/{} firings",
                    step.to, existing.num, existing.den, expected.num, expected.den
                )));
            }
        }
        if !self.walk.connected {
            return Err(Error::Semantic(
                "stream graph is disconnected; every node must be reachable".into(),
            ));
        }

        // Scale to the smallest integer solution.
        let denom_lcm = ratios.iter().map(|r| r.den).fold(1u64, lcm);
        let reps = &mut buf.reps;
        reps.clear();
        reps.extend(ratios.iter().map(|r| r.num * (denom_lcm / r.den)));
        let overall_gcd = reps.iter().copied().fold(0u64, gcd).max(1);
        for r in reps.iter_mut() {
            *r /= overall_gcd;
        }

        // Verify every balance equation (defense against propagation bugs).
        for (c, &(push, pop, _)) in self.channels.iter().zip(&buf.rates) {
            let produced = reps[c.src] * push;
            let consumed = reps[c.dst] * pop;
            if produced != consumed {
                return Err(Error::RateMismatch(format!(
                    "channel n{} -> n{}: produces {produced}, consumes {consumed}",
                    c.src, c.dst
                )));
            }
        }
        if self.walk.topo.is_none() {
            return Err(crate::graph::cycle_error());
        }

        let in_pop = self.in_rates_evaled(binds)?.map_or(0, |(pop, _)| pop);
        buf.steady_output = reps[self.exit] * self.out_rate_evaled(binds)?;
        Ok(reps[self.entry] * in_pop)
    }

    /// Entry node's (pop, peek) rates evaluated under `binds`, from the
    /// rates recorded at flatten time.
    ///
    /// # Errors
    ///
    /// [`Error::UnboundParam`] if either rate mentions an unbound
    /// parameter.
    pub fn in_rates_evaled(&self, binds: &Bindings) -> Result<Option<(u64, u64)>> {
        let Some((p, k)) = &self.entry_pop_peek else {
            return Ok(None);
        };
        let pv = p.eval(binds)?.max(0) as u64;
        let kv = k.eval(binds)?.max(0) as u64;
        Ok(Some((pv, kv.max(pv))))
    }

    /// Exit node's push rate evaluated under `binds`.
    pub fn out_rate_evaled(&self, binds: &Bindings) -> Result<u64> {
        match &self.exit_push {
            Some(r) => Ok(r.eval(binds)?.max(0) as u64),
            None => Ok(0),
        }
    }
}

/// Merge every actor's dynamic-rate declarations into one program-wide
/// interval per parameter (the intersection across declaring actors).
///
/// # Errors
///
/// [`Error::RateMismatch`] when two actors declare disjoint intervals for
/// the same parameter.
pub fn merged_rate_intervals(program: &Program) -> Result<BTreeMap<String, RateInterval>> {
    let mut merged: BTreeMap<String, RateInterval> = BTreeMap::new();
    for a in &program.actors {
        for (p, iv) in &a.dyn_rates {
            match merged.get(p) {
                None => {
                    merged.insert(p.clone(), *iv);
                }
                Some(existing) => match existing.intersect(iv) {
                    Some(narrowed) => {
                        merged.insert(p.clone(), narrowed);
                    }
                    None => {
                        return Err(Error::RateMismatch(format!(
                            "actor `{}` declares `{p}` in {iv} but earlier declarations \
                             constrain it to {existing}: intervals are disjoint",
                            a.name
                        )));
                    }
                },
            }
        }
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{ActorDef, WorkFn};
    use crate::graph::{bindings, Joiner, Program, Splitter, StreamNode};
    use crate::ir::{Expr, Stmt};
    use crate::rates::RateExpr;

    fn actor(name: &str, pop: RateExpr, push: RateExpr) -> ActorDef {
        ActorDef::new(
            name,
            WorkFn {
                peek: pop.clone(),
                pop,
                push,
                body: vec![Stmt::Push(Expr::Pop)],
            },
        )
    }

    fn pipeline(actors: Vec<ActorDef>) -> Program {
        let graph = StreamNode::Pipeline(
            actors
                .iter()
                .map(|a| StreamNode::Actor(a.name.clone()))
                .collect(),
        );
        Program {
            name: "P".into(),
            params: vec![],
            actors,
            graph,
        }
    }

    #[test]
    fn two_actor_rate_match() {
        // A: pop 1 push 2, B: pop 3 push 1  =>  reps A=3, B=2
        let p = pipeline(vec![
            actor("A", RateExpr::constant(1), RateExpr::constant(2)),
            actor("B", RateExpr::constant(3), RateExpr::constant(1)),
        ]);
        let fg = p.flatten().unwrap();
        let s = rate_match(&fg, &bindings(&[])).unwrap();
        assert_eq!(s.reps(0), 3);
        assert_eq!(s.reps(1), 2);
        assert_eq!(s.buffer_sizes, vec![6]);
        assert_eq!(s.steady_input, 3);
        assert_eq!(s.steady_output, 2);
        assert_eq!(s.total_firings(), 5);
    }

    #[test]
    fn symbolic_rates_need_bindings() {
        let p = pipeline(vec![
            actor("A", RateExpr::constant(1), RateExpr::constant(1)),
            actor("B", RateExpr::param("N"), RateExpr::constant(1)),
        ]);
        let fg = p.flatten().unwrap();
        assert!(matches!(
            rate_match(&fg, &bindings(&[])),
            Err(Error::UnboundParam(_))
        ));
        let s = rate_match(&fg, &bindings(&[("N", 8)])).unwrap();
        assert_eq!(s.reps(0), 8);
        assert_eq!(s.reps(1), 1);
    }

    #[test]
    fn splitjoin_duplicate_schedule() {
        let a = actor("A", RateExpr::constant(1), RateExpr::constant(1));
        let b = actor("B", RateExpr::constant(1), RateExpr::constant(1));
        let p = Program {
            name: "P".into(),
            params: vec![],
            actors: vec![a, b],
            graph: StreamNode::SplitJoin {
                splitter: Splitter::Duplicate,
                branches: vec![StreamNode::Actor("A".into()), StreamNode::Actor("B".into())],
                joiner: Joiner::RoundRobin(vec![RateExpr::constant(1), RateExpr::constant(1)]),
            },
        };
        let fg = p.flatten().unwrap();
        let s = rate_match(&fg, &bindings(&[])).unwrap();
        // Split fires 1, each branch fires 1, join fires 1 (pops 1 from each).
        for e in &s.entries {
            assert_eq!(e.reps, 1, "node {} reps", e.node);
        }
    }

    #[test]
    fn roundrobin_weights_scale_reps() {
        let a = actor("A", RateExpr::constant(1), RateExpr::constant(1));
        let b = actor("B", RateExpr::constant(1), RateExpr::constant(1));
        let p = Program {
            name: "P".into(),
            params: vec![],
            actors: vec![a, b],
            graph: StreamNode::SplitJoin {
                splitter: Splitter::RoundRobin(vec![RateExpr::constant(3), RateExpr::constant(1)]),
                branches: vec![StreamNode::Actor("A".into()), StreamNode::Actor("B".into())],
                joiner: Joiner::RoundRobin(vec![RateExpr::constant(3), RateExpr::constant(1)]),
            },
        };
        let fg = p.flatten().unwrap();
        let s = rate_match(&fg, &bindings(&[])).unwrap();
        // Branch A fires 3x for each branch B firing.
        let a_node = fg
            .nodes
            .iter()
            .position(|n| matches!(n, crate::graph::FlatNode::Actor { actor: 0 }))
            .unwrap();
        let b_node = fg
            .nodes
            .iter()
            .position(|n| matches!(n, crate::graph::FlatNode::Actor { actor: 1 }))
            .unwrap();
        assert_eq!(s.reps(a_node), 3);
        assert_eq!(s.reps(b_node), 1);
    }

    #[test]
    fn inconsistent_rates_rejected() {
        // Duplicate splitter with branches that produce at different rates
        // but a joiner that demands equal amounts -> no steady state.
        let a = actor("A", RateExpr::constant(1), RateExpr::constant(2));
        let b = actor("B", RateExpr::constant(1), RateExpr::constant(3));
        let p = Program {
            name: "P".into(),
            params: vec![],
            actors: vec![a, b],
            graph: StreamNode::SplitJoin {
                splitter: Splitter::Duplicate,
                branches: vec![StreamNode::Actor("A".into()), StreamNode::Actor("B".into())],
                joiner: Joiner::RoundRobin(vec![RateExpr::constant(1), RateExpr::constant(1)]),
            },
        };
        let fg = p.flatten().unwrap();
        assert!(matches!(
            rate_match(&fg, &bindings(&[])),
            Err(Error::RateMismatch(_))
        ));
    }

    #[test]
    fn zero_rate_rejected() {
        let p = pipeline(vec![
            actor("A", RateExpr::constant(1), RateExpr::param("Z")),
            actor("B", RateExpr::constant(1), RateExpr::constant(1)),
        ]);
        let fg = p.flatten().unwrap();
        assert!(matches!(
            rate_match(&fg, &bindings(&[("Z", 0)])),
            Err(Error::RateMismatch(_))
        ));
    }

    #[test]
    fn peek_slack_grows_buffers() {
        let mut b = actor("B", RateExpr::constant(1), RateExpr::constant(1));
        b.work.peek = RateExpr::constant(4); // peeks 3 beyond its pop
        let p = pipeline(vec![
            actor("A", RateExpr::constant(1), RateExpr::constant(1)),
            b,
        ]);
        let fg = p.flatten().unwrap();
        let s = rate_match(&fg, &bindings(&[])).unwrap();
        assert_eq!(s.buffer_sizes, vec![1 + 3]);
    }

    #[test]
    fn unbound_entry_rate_is_an_error() {
        // A one-actor pipeline has no channel: its pop rate is seen only
        // as the program input's rate.
        let p = pipeline(vec![actor(
            "A",
            RateExpr::param("N"),
            RateExpr::constant(1),
        )]);
        let fg = p.flatten().unwrap();
        assert_eq!(
            rate_match(&fg, &bindings(&[])),
            Err(Error::UnboundParam("N".into()))
        );
        assert_eq!(
            fg.in_rates_evaled(&bindings(&[])),
            Err(Error::UnboundParam("N".into()))
        );
        let s = rate_match(&fg, &bindings(&[("N", 4)])).unwrap();
        assert_eq!(s.steady_input, 4);
        // An unbound peek beyond the pop is an error too.
        let mut a = actor("A", RateExpr::constant(1), RateExpr::constant(1));
        a.work.peek = RateExpr::param("K");
        let fg = pipeline(vec![a]).flatten().unwrap();
        assert_eq!(
            fg.in_rates_evaled(&bindings(&[])),
            Err(Error::UnboundParam("K".into()))
        );
    }

    #[test]
    fn repetitions_reuse_their_buffers() {
        let p = pipeline(vec![
            actor("A", RateExpr::constant(1), RateExpr::param("N")),
            actor("B", RateExpr::constant(3), RateExpr::constant(1)),
        ]);
        let fg = p.flatten().unwrap();
        let mut bal = Balance::default();
        assert_eq!(fg.repetitions(&bindings(&[("N", 2)]), &mut bal), Ok(3));
        assert_eq!(bal.reps(), &[3, 2]);
        let cap = (
            bal.rates.capacity(),
            bal.ratios.capacity(),
            bal.reps.capacity(),
        );
        assert_eq!(fg.repetitions(&bindings(&[("N", 3)]), &mut bal), Ok(1));
        assert_eq!(bal.reps(), &[1, 1]);
        let again = (
            bal.rates.capacity(),
            bal.ratios.capacity(),
            bal.reps.capacity(),
        );
        assert_eq!(cap, again);
    }

    /// The balance walk as [`rate_match`] ran it before the walk was
    /// recorded: a breadth-first search of every channel at every call.
    /// The oracle of the replayed walk.
    fn rate_match_walk(graph: &FlatGraph, binds: &Bindings) -> Result<Schedule> {
        let n = graph.nodes.len();
        let mut src_rates = Vec::with_capacity(graph.channels.len());
        let mut dst_rates = Vec::with_capacity(graph.channels.len());
        let mut dst_peeks = Vec::with_capacity(graph.channels.len());
        for c in &graph.channels {
            let s = c.src_rate.eval(binds)?;
            let d = c.dst_rate.eval(binds)?;
            let p = c.dst_peek.eval(binds)?;
            if s <= 0 || d <= 0 {
                return Err(Error::RateMismatch(format!(
                    "channel n{} -> n{} has non-positive rate ({s} : {d})",
                    c.src, c.dst
                )));
            }
            src_rates.push(s as u64);
            dst_rates.push(d as u64);
            dst_peeks.push(p.max(d) as u64);
        }
        let mut reps: Vec<Option<Ratio>> = vec![None; n];
        reps[graph.entry] = Some(Ratio::new(1, 1));
        let mut queue = VecDeque::from([graph.entry]);
        while let Some(u) = queue.pop_front() {
            let ru = reps[u].expect("queued nodes have reps");
            for (ci, c) in graph.channels.iter().enumerate() {
                let (other, expected) = if c.src == u {
                    (c.dst, ru.mul(src_rates[ci], dst_rates[ci]))
                } else if c.dst == u {
                    (c.src, ru.mul(dst_rates[ci], src_rates[ci]))
                } else {
                    continue;
                };
                match reps[other] {
                    None => {
                        reps[other] = Some(expected);
                        queue.push_back(other);
                    }
                    Some(existing) if existing != expected => {
                        return Err(Error::RateMismatch(format!(
                            "node n{other} requires {}/{} and {}/{} firings",
                            existing.num, existing.den, expected.num, expected.den
                        )));
                    }
                    Some(_) => {}
                }
            }
        }
        if reps.iter().any(Option::is_none) {
            return Err(Error::Semantic(
                "stream graph is disconnected; every node must be reachable".into(),
            ));
        }
        let denom_lcm = reps.iter().map(|r| r.unwrap().den).fold(1u64, lcm);
        let mut int_reps: Vec<u64> = reps
            .iter()
            .map(|r| {
                let r = r.unwrap();
                r.num * (denom_lcm / r.den)
            })
            .collect();
        let overall_gcd = int_reps.iter().copied().fold(0u64, gcd).max(1);
        for r in &mut int_reps {
            *r /= overall_gcd;
        }
        for (ci, c) in graph.channels.iter().enumerate() {
            let produced = int_reps[c.src] * src_rates[ci];
            let consumed = int_reps[c.dst] * dst_rates[ci];
            if produced != consumed {
                return Err(Error::RateMismatch(format!(
                    "channel n{} -> n{}: produces {produced}, consumes {consumed}",
                    c.src, c.dst
                )));
            }
        }
        let buffer_sizes: Vec<u64> = graph
            .channels
            .iter()
            .enumerate()
            .map(|(ci, c)| int_reps[c.src] * src_rates[ci] + (dst_peeks[ci] - dst_rates[ci]))
            .collect();
        let order = graph.kahn_order().ok_or_else(crate::graph::cycle_error)?;
        let entries = order
            .into_iter()
            .map(|node| ScheduleEntry {
                node,
                reps: int_reps[node],
            })
            .collect();
        let in_pop = graph.in_rates_evaled(binds)?.map_or(0, |(p, _)| p);
        let steady_input = int_reps[graph.entry] * in_pop;
        let steady_output = int_reps[graph.exit] * graph.out_rate_evaled(binds)?;
        Ok(Schedule {
            entries,
            buffer_sizes,
            steady_input,
            steady_output,
        })
    }

    /// A random program and binding from `seed`: nested pipelines and
    /// duplicate or round-robin split-joins of actors whose rates are
    /// constant, parametric (`N` always bound, `M` bound three times in
    /// four), sums of both, or zero. Random branch rates make many
    /// split-joins inconsistent.
    fn random_case(seed: u64) -> (Program, Bindings) {
        struct Gen(u64);
        impl Gen {
            fn below(&mut self, n: u64) -> u64 {
                // splitmix64
                self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = self.0;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) % n
            }
            fn rate(&mut self) -> RateExpr {
                match self.below(16) {
                    0..=5 => RateExpr::constant(1),
                    6..=7 => RateExpr::constant(2),
                    8 => RateExpr::constant(3),
                    9..=11 => RateExpr::param("N"),
                    12 => RateExpr::param("N") + RateExpr::constant(1),
                    13..=14 => RateExpr::param("M"),
                    _ => RateExpr::zero(),
                }
            }
            fn node(&mut self, depth: u32, actors: &mut Vec<ActorDef>) -> StreamNode {
                let kind = if depth == 0 { 0 } else { self.below(4) };
                match kind {
                    0 | 1 => {
                        let name = format!("A{}", actors.len());
                        let (pop, push) = (self.rate(), self.rate());
                        let mut a = actor(&name, pop.clone(), push);
                        if self.below(3) == 0 {
                            a.work.peek = pop + RateExpr::constant(self.below(3) as i64);
                        }
                        actors.push(a);
                        StreamNode::Actor(name)
                    }
                    2 => StreamNode::Pipeline(
                        (0..=self.below(3))
                            .map(|_| self.node(depth - 1, actors))
                            .collect(),
                    ),
                    _ => {
                        let k = 1 + self.below(3) as usize;
                        let branches = (0..k).map(|_| self.node(depth - 1, actors)).collect();
                        let splitter = if self.below(2) == 0 {
                            Splitter::Duplicate
                        } else {
                            Splitter::RoundRobin((0..k).map(|_| self.rate()).collect())
                        };
                        let joiner = Joiner::RoundRobin((0..k).map(|_| self.rate()).collect());
                        StreamNode::SplitJoin {
                            splitter,
                            branches,
                            joiner,
                        }
                    }
                }
            }
        }
        let mut g = Gen(seed);
        let mut actors = Vec::new();
        let graph = g.node(3, &mut actors);
        let mut binds = bindings(&[("N", 1 + g.below(4) as i64)]);
        if g.below(4) != 0 {
            binds.insert("M".into(), 1 + g.below(4) as i64);
        }
        let program = Program {
            name: "P".into(),
            params: vec!["N".into(), "M".into()],
            actors,
            graph,
        };
        (program, binds)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]
        /// Replaying the recorded walk gives the per-call walk's schedule,
        /// or its error variant and text, on any generated graph.
        #[test]
        fn replayed_walk_matches_the_per_call_walk(seed in proptest::prelude::any::<u64>()) {
            let (program, binds) = random_case(seed);
            let fg = program.flatten().unwrap();
            proptest::prop_assert_eq!(rate_match(&fg, &binds), rate_match_walk(&fg, &binds));
        }
    }

    #[test]
    fn random_cases_cover_schedules_and_every_error() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..512 {
            let (program, binds) = random_case(seed);
            let fg = program.flatten().unwrap();
            seen.insert(match rate_match(&fg, &binds) {
                Ok(_) => "schedule",
                Err(Error::UnboundParam(_)) => "unbound",
                Err(Error::RateMismatch(m)) if m.contains("non-positive") => "zero",
                Err(Error::RateMismatch(m)) if m.contains("requires") => "inconsistent",
                Err(e) => panic!("unexpected error {e:?}"),
            });
        }
        assert_eq!(
            seen.into_iter().collect::<Vec<_>>(),
            ["inconsistent", "schedule", "unbound", "zero"]
        );
    }

    #[test]
    fn gcd_lcm_helpers() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(7, 0), 7);
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(0, 5), 0);
    }

    #[test]
    fn overlapping_declarations_intersect() {
        let a = actor("A", RateExpr::param("N"), RateExpr::param("N"))
            .with_rate_interval("N", RateInterval::new(2, 64).unwrap());
        let b = actor("B", RateExpr::param("N"), RateExpr::param("N"))
            .with_rate_interval("N", RateInterval::new(16, 256).unwrap());
        let p = pipeline(vec![a, b]);
        let merged = merged_rate_intervals(&p).unwrap();
        assert_eq!(merged["N"], RateInterval { lo: 16, hi: 64 });
    }

    #[test]
    fn disjoint_declarations_rejected() {
        let a = actor("A", RateExpr::param("N"), RateExpr::param("N"))
            .with_rate_interval("N", RateInterval::new(2, 8).unwrap());
        let b = actor("B", RateExpr::param("N"), RateExpr::param("N"))
            .with_rate_interval("N", RateInterval::new(64, 256).unwrap());
        let p = pipeline(vec![a, b]);
        assert!(matches!(
            merged_rate_intervals(&p),
            Err(Error::RateMismatch(_))
        ));
    }

    #[test]
    fn rate_interval_validation_and_ops() {
        assert!(RateInterval::new(0, 4).is_err());
        assert!(RateInterval::new(5, 4).is_err());
        let iv = RateInterval::new(4, 16).unwrap();
        assert!(iv.contains(4) && iv.contains(16) && !iv.contains(17));
        assert_eq!(iv.clamp(1), 4);
        assert_eq!(iv.clamp(99), 16);
        assert_eq!(iv.span(), 13);
        assert_eq!(
            iv.intersect(&RateInterval::new(10, 32).unwrap()),
            Some(RateInterval { lo: 10, hi: 16 })
        );
        assert_eq!(iv.intersect(&RateInterval::new(20, 32).unwrap()), None);
        assert_eq!(iv.to_string(), "[4, 16]");
    }
}
