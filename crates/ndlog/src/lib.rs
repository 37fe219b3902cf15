#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! NDlog language frontend.
//!
//! This crate is the compile-time half of the paper:
//!
//! * [`lexer`] / [`parser`] — a full text frontend for the Network Datalog
//!   (NDlog) dialect the paper uses, so programs like Figure 1 (packet
//!   forwarding) and Figure 19 (DNS resolution) can be written as source
//!   text. Every token and AST node carries a [`Span`] back into the
//!   source.
//! * [`ast`] — the program representation: rules, atoms, arithmetic
//!   constraints, assignments and user-defined function calls.
//! * [`delp`] — validation of the *distributed event-driven linear program*
//!   restrictions (Definition 1) and classification of relations into input
//!   events, intermediate events, slow-changing relations and output
//!   relations.
//! * [`analyze()`] / [`diag`] — the semantic analyzer: DELP validation plus
//!   advisory passes (unused variables, locality, dead rules, attribute
//!   kind inference, equivalence-key coverage), all reported as typed
//!   [`Diagnostic`]s with stable codes and rustc-style source excerpts.
//! * [`depgraph`] — the attribute-level dependency graph of Section 5.2.
//! * [`keys`] — the `GetEquiKeys` static analysis (Figure 5) computing the
//!   equivalence keys of the input event relation, plus runtime extraction
//!   of an event tuple's equivalence-key valuation.
//!
//! # Example
//!
//! ```
//! use dpc_ndlog::{parse_program, Delp, keys::equivalence_keys};
//!
//! let src = r#"
//!     r1 packet(@N, S, D, DT) :- packet(@L, S, D, DT), route(@L, D, N).
//!     r2 recv(@L, S, D, DT)   :- packet(@L, S, D, DT), D == L.
//! "#;
//! let program = parse_program(src).unwrap();
//! let delp = Delp::new(program).unwrap();
//! let keys = equivalence_keys(&delp);
//! // (packet:0, packet:2) — location and destination (Section 5.2).
//! assert_eq!(keys.indices(), &[0, 2]);
//! ```
//!
//! # Diagnostics
//!
//! ```
//! use dpc_ndlog::{analyze, parse_program, Code, Mode};
//!
//! let program = parse_program("r1 out(@X, Y) :- e(@X, Y), s(@X, Z).").unwrap();
//! let analysis = analyze(&program, Mode::Strict);
//! assert_eq!(analysis.diagnostics[0].code, Code::W0201); // `Z` never used
//! ```

mod analyze;
pub mod ast;
pub mod delp;
pub mod depgraph;
pub mod diag;
pub mod keys;
pub mod lexer;
pub mod parser;
pub mod programs;
pub mod rewrite;
pub mod span;

pub use analyze::{analyze, analyze_structure, Analysis, Mode, RelationInfo, TypeKind};
pub use ast::{Atom, BinOp, BodyItem, CmpOp, Expr, ExprKind, Program, Rule, Term, TermKind};
pub use delp::Delp;
pub use depgraph::DepGraph;
pub use diag::{render_parse_error, Code, Diagnostic, Label, Severity};
pub use keys::{equivalence_keys, equivalence_keys_with_graph, join_key_positions, EquivKeys};
pub use parser::parse_program;
pub use span::Span;
