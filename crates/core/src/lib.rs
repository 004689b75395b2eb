//! `adaptic` — an adaptive input-aware streaming compiler for (simulated)
//! graphics engines.
//!
//! Reproduction of *"Adaptive Input-aware Compilation for Graphics
//! Engines"* (Samadi et al., PLDI 2012). The compiler takes a
//! platform-independent streaming program (see the `streamir` crate), a
//! target GPU description, and a range of possible input sizes, and
//! produces **multiple specialized kernel plans**, each optimized for a
//! sub-range of the input space. A runtime kernel-management unit selects
//! the right plan for the actual input.
//!
//! The input-aware optimizations of §4 of the paper:
//!
//! | Paper §        | Optimization                   | Module |
//! |----------------|--------------------------------|--------|
//! | §4.1.1         | Memory restructuring           | [`layout`], [`opt::memory`] |
//! | §4.1.2         | Neighboring access / super tiles | [`templates::stencil`], [`opt::memory`] |
//! | §4.2.1         | Stream reduction               | [`templates::reduction`], [`opt::segmentation`] |
//! | §4.2.2         | Intra-actor parallelization    | [`analysis::recurrence`] |
//! | §4.3.1         | Vertical integration           | [`opt::integration`] |
//! | §4.3.2         | Horizontal integration         | [`templates::fused`], [`opt::integration`] |
//!
//! # Quick start
//!
//! ```
//! use adaptic::{compile, InputAxis};
//! use gpu_sim::DeviceSpec;
//! use streamir::parse::parse_program;
//!
//! let program = parse_program(
//!     r#"pipeline Sum(N) {
//!         actor Sum(pop N, push 1) {
//!             acc = 0.0;
//!             for i in 0..N { acc = acc + pop(); }
//!             push(acc);
//!         }
//!     }"#,
//! ).unwrap();
//! let device = DeviceSpec::tesla_c2050();
//! let axis = InputAxis::total_size("N", 1 << 10, 1 << 20);
//! let compiled = compile(&program, &device, &axis).unwrap();
//!
//! let input: Vec<f32> = (0..65536).map(|i| (i % 10) as f32).collect();
//! let report = compiled.run(65536, &input).unwrap();
//! let expected: f32 = input.iter().sum();
//! assert!((report.output[0] - expected).abs() < 1.0);
//! ```

pub mod analysis;
pub mod artifact;
pub mod bytecode;
pub mod codegen;
pub mod cost;
pub mod fleet;
pub mod kmu;
pub mod layout;
pub mod opt;
pub mod plan;
pub mod resched;
pub mod runtime;
pub mod telemetry;
pub mod templates;
pub mod warp;

pub use analysis::{classify, ActorClass};
pub use artifact::{ArtifactError, ArtifactKey, ArtifactStore, LearnedState};
pub use fleet::{Fleet, FleetNode, Placement, PlacementPolicy};
pub use kmu::{KernelManager, VariantHistogram};
pub use layout::{restructure, unrestructure, Layout};
pub use plan::{
    compile, compile_single, compile_with_options, compile_with_store, content_hash,
    CompileOptions, CompiledProgram, InputAxis, OptTag, SegChoice, Variant,
};
pub use resched::{DynamicRegion, ReschedPolicy};
pub use runtime::{ExecutionReport, KernelReport, RetryPolicy, RunOptions, StateBinding};
pub use telemetry::{TelemetryCounters, TelemetrySnapshot};
// Execution-engine knobs surface through the runtime API, so re-export
// them: callers pick serial/parallel, share a launch-stats cache, and
// script fault injection without depending on `gpu_sim` directly.
pub use gpu_sim::{
    ExecMode, ExecPolicy, Fault, FaultInjector, FaultKind, FaultPlan, LaunchError,
    ShardedLaunchCache, StatsCache,
};
