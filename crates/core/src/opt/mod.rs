//! Input-aware optimization decisions (§4 of the paper).
//!
//! * [`memory`] — memory restructuring and super-tile sizing (§4.1);
//! * [`segmentation`] — reduction-lowering choice and work splitting
//!   (§4.2);
//! * [`integration`] — vertical and horizontal actor integration (§4.3).
//!
//! Each module exposes *decisions* (pure functions over shapes and cost
//! profiles); the transformations themselves live with the IR
//! ([`crate::analysis`], [`integration`]) and the templates execute the
//! result.

pub mod integration;
pub mod memory;
pub mod segmentation;

pub use integration::{can_fuse_horizontal, fuse_into_reduction, fuse_parallel_loops};
pub use memory::{choose_edge_layout, choose_tile, reuse_metric};
pub use segmentation::{
    best_reduce_choice, pick_initial_blocks, two_kernel_geometry, ReduceChoice,
};
