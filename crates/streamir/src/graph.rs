//! Hierarchical stream graphs and their flattening.
//!
//! StreamIt programs compose actors hierarchically into *pipelines*
//! (sequential composition) and *split-joins* (parallel composition with a
//! splitter distributing data to branches and a joiner merging results).
//! Scheduling and compilation operate on the flattened form ([`FlatGraph`]),
//! where splitters and joiners become explicit nodes with their own rates.

use std::collections::BTreeMap;

use crate::actor::ActorDef;
use crate::error::{Error, Result};
use crate::rates::RateExpr;
use crate::schedule::Walk;

/// How a split-join distributes input to its branches.
#[derive(Debug, Clone, PartialEq)]
pub enum Splitter {
    /// Every branch receives a copy of every item.
    Duplicate,
    /// Items are dealt round-robin: `weights[i]` consecutive items to
    /// branch `i`, repeating.
    RoundRobin(Vec<RateExpr>),
}

/// How a split-join merges branch outputs (always round-robin in StreamIt).
#[derive(Debug, Clone, PartialEq)]
pub enum Joiner {
    /// `weights[i]` consecutive items taken from branch `i`, repeating.
    RoundRobin(Vec<RateExpr>),
}

/// A node of the hierarchical stream graph.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamNode {
    /// Reference to an actor definition by name.
    Actor(String),
    /// Sequential composition.
    Pipeline(Vec<StreamNode>),
    /// Parallel composition.
    SplitJoin {
        splitter: Splitter,
        branches: Vec<StreamNode>,
        joiner: Joiner,
    },
}

/// A complete streaming program: named parameters, actor definitions, and
/// the top-level graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Program name (the top-level pipeline's name).
    pub name: String,
    /// Named integer parameters bound at runtime (input size, dimensions).
    pub params: Vec<String>,
    /// Actor definitions referenced by the graph.
    pub actors: Vec<ActorDef>,
    /// The top-level stream graph.
    pub graph: StreamNode,
}

impl Program {
    /// Look up an actor definition by name.
    pub fn actor(&self, name: &str) -> Option<&ActorDef> {
        self.actors.iter().find(|a| a.name == name)
    }

    /// Flatten the hierarchical graph into nodes and channels.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Semantic`] if the graph references an undefined
    /// actor or contains an empty pipeline or split-join.
    pub fn flatten(&self) -> Result<FlatGraph> {
        let mut fg = FlatGraph {
            nodes: Vec::new(),
            channels: Vec::new(),
            entry: 0,
            exit: 0,
            entry_pop_peek: None,
            exit_push: None,
            walk: Walk::default(),
        };
        let (entry, exit) = self.flatten_node(&self.graph, &mut fg)?;
        fg.entry = entry;
        fg.exit = exit;
        fg.entry_pop_peek = Some(fg.in_rates(self, entry)?);
        fg.exit_push = Some(fg.out_rate(self, exit)?);
        fg.walk = Walk::record(&fg);
        Ok(fg)
    }

    fn flatten_node(&self, node: &StreamNode, fg: &mut FlatGraph) -> Result<(usize, usize)> {
        match node {
            StreamNode::Actor(name) => {
                let idx = self
                    .actors
                    .iter()
                    .position(|a| &a.name == name)
                    .ok_or_else(|| Error::Semantic(format!("undefined actor `{name}`")))?;
                let id = fg.nodes.len();
                fg.nodes.push(FlatNode::Actor { actor: idx });
                Ok((id, id))
            }
            StreamNode::Pipeline(children) => {
                if children.is_empty() {
                    return Err(Error::Semantic("empty pipeline".into()));
                }
                let mut first = None;
                let mut prev_exit: Option<usize> = None;
                for child in children {
                    let (entry, exit) = self.flatten_node(child, fg)?;
                    if first.is_none() {
                        first = Some(entry);
                    }
                    if let Some(pe) = prev_exit {
                        self.connect(fg, pe, entry)?;
                    }
                    prev_exit = Some(exit);
                }
                Ok((first.unwrap(), prev_exit.unwrap()))
            }
            StreamNode::SplitJoin {
                splitter,
                branches,
                joiner,
            } => {
                if branches.is_empty() {
                    return Err(Error::Semantic("split-join with no branches".into()));
                }
                match (splitter, joiner) {
                    (Splitter::RoundRobin(w), _) if w.len() != branches.len() => {
                        return Err(Error::Semantic(format!(
                            "splitter has {} weights for {} branches",
                            w.len(),
                            branches.len()
                        )));
                    }
                    (_, Joiner::RoundRobin(w)) if w.len() != branches.len() => {
                        return Err(Error::Semantic(format!(
                            "joiner has {} weights for {} branches",
                            w.len(),
                            branches.len()
                        )));
                    }
                    _ => {}
                }
                let split_id = fg.nodes.len();
                fg.nodes.push(FlatNode::Split(splitter.clone()));
                let join_id = fg.nodes.len();
                fg.nodes.push(FlatNode::Join(joiner.clone()));
                for (b, branch) in branches.iter().enumerate() {
                    let (entry, exit) = self.flatten_node(branch, fg)?;
                    let src_rate = match splitter {
                        Splitter::Duplicate => RateExpr::constant(1),
                        Splitter::RoundRobin(w) => w[b].clone(),
                    };
                    let (dst_rate, dst_peek) = fg.in_rates(self, entry)?;
                    fg.channels.push(Channel {
                        src: split_id,
                        src_port: b,
                        dst: entry,
                        dst_port: 0,
                        src_rate,
                        dst_rate,
                        dst_peek,
                    });
                    let Joiner::RoundRobin(w) = joiner;
                    let dst_rate = w[b].clone();
                    let src_rate = fg.out_rate(self, exit)?;
                    fg.channels.push(Channel {
                        src: exit,
                        src_port: 0,
                        dst: join_id,
                        dst_port: b,
                        src_rate,
                        dst_rate: dst_rate.clone(),
                        dst_peek: dst_rate,
                    });
                }
                Ok((split_id, join_id))
            }
        }
    }

    fn connect(&self, fg: &mut FlatGraph, src: usize, dst: usize) -> Result<()> {
        let src_rate = fg.out_rate(self, src)?;
        let (dst_rate, dst_peek) = fg.in_rates(self, dst)?;
        fg.channels.push(Channel {
            src,
            src_port: 0,
            dst,
            dst_port: 0,
            src_rate,
            dst_rate,
            dst_peek,
        });
        Ok(())
    }
}

/// A flattened node: an actor, a splitter, or a joiner.
#[derive(Debug, Clone, PartialEq)]
pub enum FlatNode {
    /// Index into [`Program::actors`].
    Actor {
        actor: usize,
    },
    Split(Splitter),
    Join(Joiner),
}

/// A FIFO channel between two flat nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct Channel {
    pub src: usize,
    /// Output port on the source (only splitters have several).
    pub src_port: usize,
    pub dst: usize,
    /// Input port on the destination (only joiners have several).
    pub dst_port: usize,
    /// Items pushed onto this channel per source firing.
    pub src_rate: RateExpr,
    /// Items popped from this channel per destination firing.
    pub dst_rate: RateExpr,
    /// Furthest offset examined per destination firing.
    pub dst_peek: RateExpr,
}

/// The flattened stream graph consumed by the scheduler and the compiler.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatGraph {
    pub nodes: Vec<FlatNode>,
    pub channels: Vec<Channel>,
    /// Node receiving the program input.
    pub entry: usize,
    /// Node producing the program output.
    pub exit: usize,
    /// (pop, peek) rates of the program input, recorded at flatten time.
    pub entry_pop_peek: Option<(RateExpr, RateExpr)>,
    /// Push rate of the program output, recorded at flatten time.
    pub exit_push: Option<RateExpr>,
    /// The balance walk and the topological order, recorded at flatten
    /// time: both depend only on the structure.
    pub(crate) walk: Walk,
}

impl FlatGraph {
    /// The (pop, peek) rates of a node's external-facing input.
    ///
    /// For actors these are the declared work rates; for splitters the pop
    /// rate is 1 (duplicate) or the weight sum (round-robin); joiners are
    /// never graph entries but are handled for completeness.
    pub fn in_rates(&self, program: &Program, node: usize) -> Result<(RateExpr, RateExpr)> {
        match &self.nodes[node] {
            FlatNode::Actor { actor } => {
                let w = &program.actors[*actor].work;
                Ok((w.pop.clone(), w.peek.clone()))
            }
            FlatNode::Split(Splitter::Duplicate) => {
                Ok((RateExpr::constant(1), RateExpr::constant(1)))
            }
            FlatNode::Split(Splitter::RoundRobin(ws)) => {
                let sum = ws.iter().fold(RateExpr::zero(), |acc, w| acc + w.clone());
                Ok((sum.clone(), sum))
            }
            FlatNode::Join(_) => Err(Error::Semantic("joiner cannot be a graph entry".into())),
        }
    }

    /// Items produced per firing on a node's external-facing output.
    pub fn out_rate(&self, program: &Program, node: usize) -> Result<RateExpr> {
        match &self.nodes[node] {
            FlatNode::Actor { actor } => Ok(program.actors[*actor].work.push.clone()),
            FlatNode::Join(Joiner::RoundRobin(ws)) => {
                Ok(ws.iter().fold(RateExpr::zero(), |acc, w| acc + w.clone()))
            }
            FlatNode::Split(_) => Err(Error::Semantic("splitter cannot be a graph exit".into())),
        }
    }

    /// Indices of channels entering `node`, ordered by destination port.
    pub fn in_channels(&self, node: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..self.channels.len())
            .filter(|&c| self.channels[c].dst == node)
            .collect();
        v.sort_by_key(|&c| self.channels[c].dst_port);
        v
    }

    /// Indices of channels leaving `node`, ordered by source port.
    pub fn out_channels(&self, node: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..self.channels.len())
            .filter(|&c| self.channels[c].src == node)
            .collect();
        v.sort_by_key(|&c| self.channels[c].src_port);
        v
    }

    /// Topological order of the flat nodes, recorded at flatten time.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Semantic`] if the graph contains a cycle (feedback
    /// loops are not supported by this reproduction; none of the paper's
    /// benchmarks use them).
    pub fn topo_order(&self) -> Result<Vec<usize>> {
        self.walk.topo.clone().ok_or_else(cycle_error)
    }

    /// Kahn's topological order of the flat nodes; `None` on a cycle.
    pub(crate) fn kahn_order(&self) -> Option<Vec<usize>> {
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        for c in &self.channels {
            indeg[c.dst] += 1;
        }
        let mut stack: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        stack.sort_unstable();
        let mut order = Vec::with_capacity(n);
        while let Some(u) = stack.pop() {
            order.push(u);
            for &c in &self.out_channels(u) {
                let d = self.channels[c].dst;
                indeg[d] -= 1;
                if indeg[d] == 0 {
                    stack.push(d);
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// Pretty, deterministic description used in tests and debug output.
    pub fn describe(&self, program: &Program) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for (i, node) in self.nodes.iter().enumerate() {
            match node {
                FlatNode::Actor { actor } => {
                    let _ = writeln!(s, "n{i}: actor {}", program.actors[*actor].name);
                }
                FlatNode::Split(Splitter::Duplicate) => {
                    let _ = writeln!(s, "n{i}: split duplicate");
                }
                FlatNode::Split(Splitter::RoundRobin(_)) => {
                    let _ = writeln!(s, "n{i}: split roundrobin");
                }
                FlatNode::Join(_) => {
                    let _ = writeln!(s, "n{i}: join roundrobin");
                }
            }
        }
        for c in &self.channels {
            let _ = writeln!(
                s,
                "n{}.{} -> n{}.{} ({} : {})",
                c.src, c.src_port, c.dst, c.dst_port, c.src_rate, c.dst_rate
            );
        }
        s
    }
}

/// The error of a cyclic flat graph.
pub(crate) fn cycle_error() -> Error {
    Error::Semantic("stream graph contains a cycle".into())
}

/// Helper: collect bindings from name/value pairs (test convenience).
pub fn bindings(pairs: &[(&str, i64)]) -> BTreeMap<String, i64> {
    pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::WorkFn;
    use crate::ir::{Expr, Stmt};

    fn simple_actor(name: &str, pop: i64, push: i64) -> ActorDef {
        ActorDef::new(
            name,
            WorkFn {
                pop: RateExpr::constant(pop),
                push: RateExpr::constant(push),
                peek: RateExpr::constant(pop),
                body: vec![Stmt::Push(Expr::Pop)],
            },
        )
    }

    fn two_stage_program() -> Program {
        Program {
            name: "P".into(),
            params: vec![],
            actors: vec![simple_actor("A", 1, 2), simple_actor("B", 3, 1)],
            graph: StreamNode::Pipeline(vec![
                StreamNode::Actor("A".into()),
                StreamNode::Actor("B".into()),
            ]),
        }
    }

    #[test]
    fn flatten_pipeline() {
        let p = two_stage_program();
        let fg = p.flatten().unwrap();
        assert_eq!(fg.nodes.len(), 2);
        assert_eq!(fg.channels.len(), 1);
        assert_eq!(fg.entry, 0);
        assert_eq!(fg.exit, 1);
        let c = &fg.channels[0];
        assert_eq!(c.src_rate, RateExpr::constant(2));
        assert_eq!(c.dst_rate, RateExpr::constant(3));
    }

    #[test]
    fn flatten_splitjoin_duplicate() {
        let p = Program {
            name: "P".into(),
            params: vec![],
            actors: vec![simple_actor("A", 1, 1), simple_actor("B", 1, 1)],
            graph: StreamNode::SplitJoin {
                splitter: Splitter::Duplicate,
                branches: vec![StreamNode::Actor("A".into()), StreamNode::Actor("B".into())],
                joiner: Joiner::RoundRobin(vec![RateExpr::constant(1), RateExpr::constant(1)]),
            },
        };
        let fg = p.flatten().unwrap();
        // split, join, A, B
        assert_eq!(fg.nodes.len(), 4);
        assert_eq!(fg.channels.len(), 4);
        assert!(matches!(fg.nodes[fg.entry], FlatNode::Split(_)));
        assert!(matches!(fg.nodes[fg.exit], FlatNode::Join(_)));
        let topo = fg.topo_order().unwrap();
        assert_eq!(topo.len(), 4);
        // split first, join last
        assert_eq!(topo[0], fg.entry);
        assert_eq!(topo[3], fg.exit);
    }

    #[test]
    fn undefined_actor_is_semantic_error() {
        let p = Program {
            name: "P".into(),
            params: vec![],
            actors: vec![],
            graph: StreamNode::Actor("Ghost".into()),
        };
        assert!(matches!(p.flatten(), Err(Error::Semantic(_))));
    }

    #[test]
    fn empty_pipeline_rejected() {
        let p = Program {
            name: "P".into(),
            params: vec![],
            actors: vec![],
            graph: StreamNode::Pipeline(vec![]),
        };
        assert!(p.flatten().is_err());
    }

    #[test]
    fn weight_arity_mismatch_rejected() {
        let p = Program {
            name: "P".into(),
            params: vec![],
            actors: vec![simple_actor("A", 1, 1)],
            graph: StreamNode::SplitJoin {
                splitter: Splitter::RoundRobin(vec![RateExpr::constant(1)]),
                branches: vec![StreamNode::Actor("A".into())],
                joiner: Joiner::RoundRobin(vec![RateExpr::constant(1), RateExpr::constant(1)]),
            },
        };
        assert!(p.flatten().is_err());
    }

    #[test]
    fn in_out_channel_ordering_by_port() {
        let p = Program {
            name: "P".into(),
            params: vec![],
            actors: vec![
                simple_actor("A", 1, 1),
                simple_actor("B", 1, 1),
                simple_actor("C", 1, 1),
            ],
            graph: StreamNode::SplitJoin {
                splitter: Splitter::Duplicate,
                branches: vec![
                    StreamNode::Actor("A".into()),
                    StreamNode::Actor("B".into()),
                    StreamNode::Actor("C".into()),
                ],
                joiner: Joiner::RoundRobin(vec![
                    RateExpr::constant(1),
                    RateExpr::constant(1),
                    RateExpr::constant(1),
                ]),
            },
        };
        let fg = p.flatten().unwrap();
        let outs = fg.out_channels(fg.entry);
        assert_eq!(outs.len(), 3);
        for (port, &c) in outs.iter().enumerate() {
            assert_eq!(fg.channels[c].src_port, port);
        }
        let ins = fg.in_channels(fg.exit);
        assert_eq!(ins.len(), 3);
        for (port, &c) in ins.iter().enumerate() {
            assert_eq!(fg.channels[c].dst_port, port);
        }
    }

    #[test]
    fn describe_mentions_every_node() {
        let p = two_stage_program();
        let fg = p.flatten().unwrap();
        let d = fg.describe(&p);
        assert!(d.contains("actor A"));
        assert!(d.contains("actor B"));
        assert!(d.contains("->"));
    }
}
