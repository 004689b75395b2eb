//! Shared harness for the cross-engine conformance suite and the chaos
//! (fault-injection) suite: the replayable seed corpus, the deterministic
//! input generator, and the template-family case table. Both suites run
//! the same programs over the same seeds, so a chaos failure replays
//! under the plain conformance suite and vice versa.

// Each integration-test binary compiles this module independently and
// uses a subset of it.
#![allow(dead_code)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use adaptic_repro::adaptic::{
    compile_with_options, ArtifactStore, CompileOptions, CompiledProgram, InputAxis, StateBinding,
};
use adaptic_repro::apps::programs;
use adaptic_repro::gpu_sim::DeviceSpec;
use adaptic_repro::streamir::graph::Program;
use adaptic_repro::streamir::interp::Interpreter;
use adaptic_repro::streamir::parse::parse_program;

/// The checked-in seed corpus (one u64 per line, `#` comments).
pub fn corpus_seeds() -> Vec<u64> {
    let text = include_str!("../corpus/conformance_seeds.txt");
    let seeds: Vec<u64> = text
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter(|l| !l.is_empty())
        .map(|l| {
            if let Some(hex) = l.strip_prefix("0x").or_else(|| l.strip_prefix("0X")) {
                u64::from_str_radix(hex, 16).expect("hex seed")
            } else {
                l.parse().expect("decimal seed")
            }
        })
        .collect();
    assert!(!seeds.is_empty(), "seed corpus must not be empty");
    seeds
}

/// Deterministic pseudo-random stream in [-1, 1) — same LCG as the bench
/// harness, so corpus seeds mean the same data everywhere.
pub fn data(n: usize, seed: u64) -> Vec<f32> {
    let mut state = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        })
        .collect()
}

/// One conformance case: a program exercising one template family.
pub struct Case {
    pub family: &'static str,
    pub program: Program,
    pub opts: CompileOptions,
    /// Axis values to run at (small enough for `ExecMode::Full`).
    pub sizes: &'static [i64],
    /// Stream length for axis value `x`.
    pub items: fn(i64) -> usize,
    /// Axis for compilation.
    pub axis: fn() -> InputAxis,
    /// State bindings, if the program needs them.
    pub state: fn() -> Vec<StateBinding>,
}

fn no_state() -> Vec<StateBinding> {
    Vec::new()
}

pub fn cases() -> Vec<Case> {
    vec![
        // Unit (map) template: elementwise records with bound state.
        Case {
            family: "unit-map",
            program: programs::black_scholes().program,
            opts: CompileOptions::default(),
            sizes: &[64, 1024],
            items: |x| 3 * x as usize,
            axis: || InputAxis::total_size("N", 16, 1 << 16),
            state: || vec![StateBinding::new("Price", "rv", vec![0.02, 0.3])],
        },
        // Reduce template: single accumulation over the stream.
        Case {
            family: "reduce",
            program: programs::sasum().program,
            opts: CompileOptions::default(),
            sizes: &[256, 8192],
            items: |x| x as usize,
            axis: || InputAxis::total_size("N", 256, 1 << 18),
            state: no_state,
        },
        // Stencil template: neighboring access over a 2-D grid.
        Case {
            family: "stencil",
            program: parse_program(
                r#"pipeline Heat(rows, cols) {
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
                }"#,
            )
            .unwrap(),
            opts: CompileOptions::default(),
            sizes: &[24, 48],
            items: |x| (x * x) as usize,
            axis: || {
                InputAxis::new("side", 16, 256, |s| {
                    adaptic_repro::streamir::graph::bindings(&[("rows", s), ("cols", s)])
                })
            },
            state: no_state,
        },
        // HFused template: duplicate splitjoin of two reductions fused
        // into one kernel.
        Case {
            family: "hfused",
            program: parse_program(
                r#"pipeline MaxSum(N) {
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
                }"#,
            )
            .unwrap(),
            opts: CompileOptions::default(),
            sizes: &[512, 4096],
            items: |x| x as usize,
            axis: || InputAxis::total_size("N", 256, 1 << 18),
            state: no_state,
        },
        // MapSiblings template: the same splitjoin shape over maps, with
        // horizontal integration disabled so the sibling-branch engine
        // (not the fused kernel) runs.
        Case {
            family: "map-siblings",
            program: parse_program(
                r#"pipeline SinCos(N) {
                    splitjoin {
                        split duplicate;
                        actor SinA(pop 1, push 1) { push(sin(pop())); }
                        actor CosA(pop 1, push 1) { push(cos(pop())); }
                        join roundrobin(1, 1);
                    }
                }"#,
            )
            .unwrap(),
            opts: CompileOptions {
                integration: false,
                ..CompileOptions::default()
            },
            sizes: &[512, 2048],
            items: |x| x as usize,
            axis: || InputAxis::total_size("N", 64, 1 << 16),
            state: no_state,
        },
    ]
}

impl Case {
    /// The oracle: this case's program at axis value `x` under the
    /// independent reference interpreter.
    pub fn interpret(&self, x: i64, input: &[f32]) -> Vec<f32> {
        let mut it = Interpreter::new(&self.program);
        for (name, v) in (self.axis)().bind(x) {
            it.bind_param(&name, v);
        }
        for sb in (self.state)() {
            it.bind_state(&sb.actor, &sb.array, sb.data);
        }
        it.run(input)
            .unwrap_or_else(|e| panic!("{}: interpreter rejects x={x}: {e}", self.family))
    }

    /// Whether compiled output equals the interpreter's bit for bit. The
    /// reduction templates combine in tree order where the interpreter
    /// folds in stream order, so their outputs agree only within float
    /// reassociation error.
    pub fn bit_exact(&self) -> bool {
        !matches!(self.family, "reduce" | "hfused")
    }
}

/// Assert `got` matches the interpreter's `want`: bit for bit when
/// `exact`, else within `1e-3 * max(|want|, 1)` per item.
pub fn assert_matches_oracle(got: &[f32], want: &[f32], exact: bool, ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: output cursor diverged");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let ok = if exact {
            g.to_bits() == w.to_bits()
        } else {
            (g - w).abs() <= 1e-3 * w.abs().max(1.0)
        };
        assert!(ok, "{ctx}: output[{i}] {g} vs interpreter {w}");
    }
}

pub fn devices() -> Vec<DeviceSpec> {
    vec![DeviceSpec::tesla_c2050(), DeviceSpec::gtx285()]
}

pub fn compiled_for(case: &Case, device: &DeviceSpec) -> CompiledProgram {
    compile_with_options(&case.program, device, &(case.axis)(), case.opts)
        .unwrap_or_else(|e| panic!("{} fails to compile for {}: {e}", case.family, device.name))
}

/// A unique empty artifact-store directory (test binaries and their
/// tests run concurrently).
pub fn temp_store(tag: &str) -> (PathBuf, ArtifactStore) {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "adaptic_store_{tag}_{}_{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ArtifactStore::new(&dir);
    (dir, store)
}
