//! Behavioral-description frontend for the DAC'98 speculative-scheduling
//! reproduction.
//!
//! The paper schedules "control-flow intensive behavioral descriptions":
//! imperative programs dominated by nested conditionals and data-dependent
//! `while` loops. This crate provides a small such language together with
//! everything a scheduling flow needs from a frontend:
//!
//! * a lexer and recursive-descent parser ([`Program::parse`]);
//! * an AST with a pretty-printer (`Display`) that reparses to the same
//!   program;
//! * a reference **interpreter** ([`interp::run`]) — the functional golden
//!   model against which every schedule is verified. It walks the AST
//!   after resolving every name to a slot once per program
//!   ([`interp::Resolved`]), so checking many traces pays for name
//!   lookup once;
//! * a **CDFG lowering** ([`lower::compile`]) producing the
//!   [`cdfg::Cdfg`] consumed by the schedulers, with if/else merged
//!   through select operations and loop state turned into loop-carried
//!   edges, exactly the shapes in Figs. 1, 4 and 13 of the paper.
//!
//! # Language
//!
//! ```text
//! design gcd {
//!     input x, y;
//!     output g;
//!     var a = x;
//!     var b = y;
//!     while (a != b) {
//!         if (a > b) { a = a - b; } else { b = b - a; }
//!     }
//!     g = a;
//! }
//! ```
//!
//! Statements: `var NAME = expr;`, `NAME = expr;`, `MEM[expr] = expr;`,
//! `if (expr) {…} else {…}`, `while (expr) {…}`. Expressions: integer
//! literals, variables, `MEM[expr]` loads, unary `!`/`-`, and binary
//! `|| && == != < <= > >= << >> ^ + - *` with conventional precedence.
//!
//! # Example
//!
//! ```
//! use hls_lang::Program;
//!
//! let src = "design inc { input a; output b; b = a + 1; }";
//! let p = Program::parse(src)?;
//! let outs = hls_lang::interp::run(&p, &[("a", 41)], &Default::default(), 10_000)?;
//! assert_eq!(outs.outputs["b"], 42);
//! let g = hls_lang::lower::compile(&p)?;
//! assert_eq!(g.name(), "inc");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod interp;
pub mod lower;
mod parse;
mod token;

pub use ast::{BinOp, Expr, Program, Stmt, UnOp};
pub use interp::{ExecError, ExecOutcome, MemImage, Resolved};
pub use lower::CompileError;
pub use parse::ParseError;
