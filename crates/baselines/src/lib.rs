//! `adaptic-baselines` — hand-optimized comparison kernels.
//!
//! These kernels reproduce the *published strategies* of the paper's
//! comparison targets — the CUBLAS 3.2 library and the NVIDIA CUDA SDK
//! samples — on the GPU simulator. Crucially, they are *input-unaware*:
//! launch geometry is a fixed function of the input dimensions (e.g. the
//! transposed matrix–vector product always launches one block per row),
//! which is exactly what produces the "comfort zone" behaviour of
//! Figure 1 that Adaptic's input-aware compilation removes.
//!
//! Modules:
//!
//! * [`blas1`] — CUBLAS level-1: `sdot`, `sasum`, `snrm2`, `isamax`, and
//!   the map routines `saxpy`, `sscal`, `scopy`, `sswap`, `srot`;
//! * [`tmv`] — the CUBLAS transposed matrix–vector product (`sgemv('T')`),
//!   the paper's running case study;
//! * [`sdk`] — SDK samples: scalarProd, MonteCarlo, convolutionSeparable,
//!   oceanFFT(-like), BlackScholes, vectorAdd, DCT8x8, quasirandom,
//!   histogram64;
//! * [`gpusvm`] — the GPUSVM trainer with its application-specific
//!   kernel-row cache (§5.2.3);
//! * [`mod@reference`] — CPU reference implementations used as the golden
//!   model in tests.

pub mod blas1;
pub mod gpusvm;
pub mod reference;
pub mod sdk;
pub mod tmv;
pub mod util;

pub use util::TimedRun;
