//! Compiler analyses over work-function IR.
//!
//! * [`opcount`] — per-firing instruction/IO counting as a function of the
//!   input (feeds the performance model's closed-form profiles);
//! * [`reduction`] — stream-reduction pattern detection (§4.2.1);
//! * [`stencil`] — neighboring-access pattern detection (§4.1.2);
//! * [`recurrence`] — intra-actor parallelization with induction-variable
//!   substitution (§4.2.2);
//! * [`mod@classify`] — the dispatcher combining all of the above.

pub mod classify;
pub mod opcount;
pub mod recurrence;
pub mod reduction;
pub mod stencil;

pub use classify::{classify, ActorClass};
pub use opcount::{body_counts, OpCounts};
pub use recurrence::{parallelize, ParallelLoop};
pub use reduction::{detect_reduction, CombineOp, ReductionPattern};
pub use stencil::{detect_stencil, Offset, StencilPattern};
