//! The benchmark's input programs, as DSL text.
//!
//! One program per template family the compiler lowers (reduction, map,
//! stencil, horizontally fused split-join) plus one whose rate is declared
//! dynamic. They are small on purpose: the layers under test see only
//! these texts and the data the generators make.

/// How a program's input axis value `x` relates to its element count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AxisKind {
    /// `x` is bound to the one size parameter; the stream holds `x` items.
    Total(&'static str),
    /// `x` is the side of a square grid bound to `rows` and `cols`; the
    /// stream holds `x * x` items.
    Square,
}

/// A rate parameter declared to vary at run time within `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynamicRate {
    pub actor: &'static str,
    pub param: &'static str,
    pub lo: i64,
    pub hi: i64,
}

#[derive(Debug, Clone, Copy)]
pub struct Entry {
    pub name: &'static str,
    pub src: &'static str,
    pub axis: AxisKind,
    pub dynamic: Option<DynamicRate>,
}

impl Entry {
    /// Stream length at axis value `x`.
    pub fn items(&self, x: i64) -> usize {
        match self.axis {
            AxisKind::Total(_) => x as usize,
            AxisKind::Square => (x * x) as usize,
        }
    }

    /// The axis value whose stream holds about `elements` items.
    pub fn x_for(&self, elements: i64) -> i64 {
        match self.axis {
            AxisKind::Total(_) => elements,
            AxisKind::Square => (elements as f64).sqrt().round() as i64,
        }
    }

    /// True when any axis value in a wide range is a distinct input, which
    /// the cache-scan workload needs.
    pub fn has_wide_axis(&self) -> bool {
        matches!(self.axis, AxisKind::Total(_))
    }
}

/// In order: a reduction, a map, a stencil, a horizontally fused
/// split-join of two reductions, and a reduction whose rate is dynamic.
pub const CORPUS: [Entry; 5] = [
    Entry {
        name: "asum",
        src: "pipeline Asum(N) {
    actor Asum(pop N, push 1) {
        acc = 0.0;
        for i in 0..N {
            acc = acc + abs(pop());
        }
        push(acc);
    }
}",
        axis: AxisKind::Total("N"),
        dynamic: None,
    },
    Entry {
        name: "poly",
        src: "pipeline Poly(N) {
    actor Horner(pop 1, push 1) {
        x = pop();
        acc = 0.25;
        for i in 0..4 {
            acc = acc * x + 0.5;
        }
        push(acc * 0.125);
    }
}",
        axis: AxisKind::Total("N"),
        dynamic: None,
    },
    Entry {
        name: "heat",
        src: "pipeline Heat(rows, cols) {
    actor Diffuse(pop rows*cols, push rows*cols, peek rows*cols) {
        for idx in 0..rows*cols {
            r = idx / cols;
            c = idx % cols;
            if (r > 0 && r < rows - 1 && c > 0 && c < cols - 1) {
                push(peek(idx)
                    + 0.2 * (peek(idx - 1) + peek(idx + 1)
                        + peek(idx - cols) + peek(idx + cols)
                        - 4.0 * peek(idx)));
            } else {
                push(peek(idx));
            }
        }
    }
}",
        axis: AxisKind::Square,
        dynamic: None,
    },
    Entry {
        name: "maxsum",
        src: "pipeline MaxSum(N) {
    splitjoin {
        split duplicate;
        actor MaxA(pop N, push 1) {
            m = -100000.0;
            for i in 0..N { m = max(m, pop()); }
            push(m);
        }
        actor SumA(pop N, push 1) {
            s = 0.0;
            for i in 0..N { s = s + pop(); }
            push(s);
        }
        join roundrobin(1, 1);
    }
}",
        axis: AxisKind::Total("N"),
        dynamic: None,
    },
    Entry {
        name: "nrm2",
        src: "pipeline Nrm2(N) {
    actor Nrm2(pop N, push 1) {
        acc = 0.0;
        for i in 0..N {
            acc = acc + pow(pop(), 2.0);
        }
        push(sqrt(acc));
    }
}",
        axis: AxisKind::Total("N"),
        dynamic: Some(DynamicRate {
            actor: "Nrm2",
            param: "N",
            lo: 64,
            hi: 16384,
        }),
    },
];

/// The corpus entry called `name`.
pub fn entry(name: &str) -> &'static Entry {
    CORPUS
        .iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("no corpus program `{name}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_value_and_stream_length_agree() {
        assert_eq!(entry("heat").items(entry("heat").x_for(16384)), 16384);
        assert_eq!(entry("asum").items(1000), 1000);
        assert_eq!(CORPUS.iter().filter(|e| e.dynamic.is_some()).count(), 1);
        assert_eq!(CORPUS.iter().filter(|e| !e.has_wide_axis()).count(), 1);
    }
}
