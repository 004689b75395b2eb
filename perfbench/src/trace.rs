//! Span tracing, from outside the layers.
//!
//! The benchmark wraps each call into a layer's public functions in a
//! span: name, start, end, the span that caused it and the op it belongs
//! to. Spans stay in memory during the run and are written out when it
//! ends. A span's self time is its duration minus the part of that
//! interval its child spans cover. End-to-end metrics are always taken
//! with the tracer off.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;
/// The span file keeps the head of a run; the aggregates use every span.
const MAX_SPANS_WRITTEN: usize = 200_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u64,
}

/// One thread's span recorder. `Tracer::off()` records nothing and costs
/// one branch per call.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer::new(false, Instant::now())
    }

    /// A recording tracer; tracers that share an `epoch` share a time axis.
    pub fn on(epoch: Instant) -> Tracer {
        Tracer::new(true, epoch)
    }

    fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name` for op `op`; spans opened by `f`
    /// through the tracer it is handed become children.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            op,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time of every span: duration minus the union of its children's
/// intervals (clipped to the parent), indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize];
            let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if b > a {
                children[s.parent as usize].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut edge) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                if b > edge {
                    covered += b - a.max(edge);
                    edge = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Count, total and self time per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += own;
    }
    out
}

/// Write the head of each tracer's spans as tab-separated text, one
/// tracer (thread) after the other.
pub fn write_spans(path: &Path, tracers: &[Tracer]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "thread\tspan\tparent\top\tname\tstart_ns\tend_ns")?;
    let mut budget = MAX_SPANS_WRITTEN;
    for (thread, t) in tracers.iter().enumerate() {
        for (id, s) in t.spans().iter().take(budget).enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                w,
                "{thread}\t{id}\t{parent}\t{}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        budget = budget.saturating_sub(t.spans().len());
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("op", 0, 100, NO_PARENT),
            span("a", 10, 40, 0),
            // Overlaps `a` by 10 and runs 10 past the parent's end.
            span("b", 30, 110, 0),
            span("leaf", 15, 20, 1),
        ];
        // Children cover [10, 100) of the op: 10 left over.
        assert_eq!(self_times(&spans), vec![10, 25, 80, 5]);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["op"].self_ns, 10);
        assert_eq!(totals["a"].total_ns, 30);
        assert_eq!(totals["a"].count, 1);
    }

    #[test]
    fn tracer_records_nesting_and_off_records_nothing() {
        let mut t = Tracer::on(Instant::now());
        let got = t.span("op", 7, |t| t.span("inner", 7, |_| 42));
        assert_eq!(got, 42);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name, s[0].parent, s[0].op), ("op", NO_PARENT, 7));
        assert_eq!((s[1].name, s[1].parent), ("inner", 0));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);

        let mut off = Tracer::off();
        assert_eq!(off.span("op", 0, |t| t.span("inner", 0, |_| 1)), 1);
        assert!(off.spans().is_empty());
    }
}
