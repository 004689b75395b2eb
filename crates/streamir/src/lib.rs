//! `streamir` — a StreamIt-like streaming language front-end.
//!
//! This crate implements the substrate the Adaptic compiler consumes: a
//! synchronous-data-flow (SDF) streaming programming model in the style of
//! StreamIt (Thies et al., CC 2002). Programs are built from *actors* —
//! isolated computational units that communicate exclusively through FIFO
//! channels using `pop`, `push` and non-destructive `peek` operations — and
//! composed hierarchically into *pipelines* (sequential composition) and
//! *split-joins* (parallel composition).
//!
//! The crate provides:
//!
//! * a small textual DSL with a lexer and recursive-descent parser
//!   ([`parse`]),
//! * a typed work-function IR ([`ir`]) that the compiler can analyze
//!   (pop/push/peek sites, loops, recurrences, reduction and stencil
//!   patterns),
//! * symbolic data rates ([`rates`]) that may depend on named program
//!   parameters such as the input size,
//! * hierarchical stream graphs and their flattening ([`graph`]),
//! * steady-state scheduling / rate matching ([`schedule`]), and
//! * a reference interpreter ([`interp`]) used as the golden model in
//!   differential tests against compiled GPU kernels.
//!
//! # Example
//!
//! ```
//! use streamir::parse::parse_program;
//! use streamir::interp::Interpreter;
//!
//! let src = r#"
//!     pipeline Main(N) {
//!         actor Square(pop 1, push 1) {
//!             x = pop();
//!             push(x * x);
//!         }
//!         actor Sum(pop N, push 1) {
//!             acc = 0.0;
//!             for i in 0..N {
//!                 acc = acc + pop();
//!             }
//!             push(acc);
//!         }
//!     }
//! "#;
//! let program = parse_program(src).expect("parse");
//! let mut interp = Interpreter::new(&program);
//! interp.bind_param("N", 4);
//! let out = interp.run(&[1.0, 2.0, 3.0, 4.0]).expect("run");
//! assert_eq!(out, vec![1.0 + 4.0 + 9.0 + 16.0]);
//! ```

pub mod actor;
pub mod error;
pub mod graph;
pub mod interp;
pub mod ir;
pub mod parse;
pub mod rates;
pub mod schedule;
pub mod value;

pub use actor::{ActorDef, ActorKind, StateVar, WorkFn};
pub use error::{Error, Result};
pub use graph::{FlatGraph, Joiner, Program, Splitter, StreamNode};
pub use interp::Interpreter;
pub use rates::{RateExpr, RateInterval};
pub use schedule::{merged_rate_intervals, Schedule, ScheduleEntry};
pub use value::Value;
