//! `perfmodel` — analytical GPU performance model with break-even analysis.
//!
//! Implements the performance model Adaptic relies on (§3 of the paper):
//! an enhanced Hong & Kim MWP/CWP model that classifies kernels as
//! memory-bound, computation-bound, or latency-bound and estimates
//! execution cycles from per-warp instruction and memory-transaction
//! counts — quantities that are functions of the program input size and
//! dimensions.
//!
//! The front door is [`estimate`] / [`estimate_stats`]: timing for one
//! launch, from a closed-form [`LaunchProfile`] or measured simulator
//! statistics. The planner finds each variant's sub-range at compile
//! time with its own probe-and-bisect search over these estimates.
//!
//! [`partition_range`] is a standalone break-even search over arbitrary
//! cost curves. No production path calls it; only the repository
//! benchmark's `perfmodel.partition_us` probe does.
//!
//! # Example
//!
//! ```
//! use gpu_sim::DeviceSpec;
//! use perfmodel::{estimate, KernelClass, LaunchProfile};
//!
//! let device = DeviceSpec::tesla_c2050();
//! let profile = LaunchProfile {
//!     grid_dim: 512,
//!     block_dim: 256,
//!     shared_words: 0,
//!     mem_insts_per_warp: 16.0,
//!     transactions_per_mem_inst: 1.0,
//!     compute_insts_per_warp: 8.0,
//!     shared_cycles_per_warp: 0.0,
//!     syncs_per_block: 0.0,
//!     flops: 1e6,
//! };
//! let est = estimate(&device, &profile);
//! assert_eq!(est.class, KernelClass::MemoryBound);
//! ```

pub mod crossover;
pub mod model;

pub use crossover::{partition_range, tiles_exactly, RangeAssignment};
pub use model::{estimate, estimate_stats, KernelClass, LaunchProfile, TimingEstimate};
