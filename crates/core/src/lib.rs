#![warn(missing_docs)]

//! The transaction-time algebraic language.
//!
//! This crate is the paper's primary contribution: a language whose
//! *expressions* are a slightly extended relational algebra and whose
//! *commands* provide the side-effects an algebra by itself cannot
//! express. "We adopt a different strategy, leaving the basic structure of
//! the algebra intact, and instead inserting it into another structure of
//! commands that provide the needed side-effects" (§2).
//!
//! The three syntactic domains (§3.1) map to three types:
//!
//! * [`Expr`] — the domain EXPRESSION: constant states, the five
//!   snapshot-algebra operators, their historical counterparts, the
//!   valid-time operator δ, and the rollback operators ρ (snapshot) and
//!   ρ̂ (historical).
//! * [`Command`] — the domain COMMAND: `define_relation`, `modify_state`,
//!   sequencing, plus the documented extensions (`delete_relation`,
//!   scheme evolution, `display`).
//! * [`Sentence`] — the domain SENTENCE: a non-empty command sequence,
//!   always evaluated against the EMPTY database.
//!
//! The semantic domains (§3.2) are in [`semantics::domains`] and
//! [`semantics::database`]; the denotation functions **E** and **C**
//! (§3.4–3.5) are in [`semantics::expr_eval`] and
//! [`semantics::cmd_eval`], and **P** (§3.6) is [`Sentence::eval`].
//!
//! This implementation is the *reference semantics*: persistent values,
//! full state copies, no cleverness. It is deliberately "simple at the
//! expense of efficient direct implementation" (§2) so it can serve as the
//! oracle against which the efficient engines in `txtime-storage` are
//! verified — exactly the correctness methodology §5 prescribes.
//!
//! # Example
//!
//! ```
//! use txtime_core::prelude::*;
//! use txtime_snapshot::{Schema, DomainType, SnapshotState, Value, Predicate};
//!
//! let schema = Schema::new(vec![("name", DomainType::Str), ("sal", DomainType::Int)]).unwrap();
//! let v1 = SnapshotState::from_rows(schema.clone(), vec![
//!     vec![Value::str("alice"), Value::Int(100)],
//! ]).unwrap();
//! let v2 = SnapshotState::from_rows(schema, vec![
//!     vec![Value::str("alice"), Value::Int(100)],
//!     vec![Value::str("bob"), Value::Int(200)],
//! ]).unwrap();
//!
//! // A sentence: define a rollback relation and load two versions.
//! let sentence = Sentence::new(vec![
//!     Command::define_relation("emp", RelationType::Rollback),
//!     Command::modify_state("emp", Expr::snapshot_const(v1.clone())),
//!     Command::modify_state("emp", Expr::snapshot_const(v2.clone())),
//! ]).unwrap();
//! let db = sentence.eval().unwrap();
//!
//! // Roll back: the state as of transaction 2 was v1.
//! let old = Expr::rollback("emp", TxSpec::At(TransactionNumber(2))).eval(&db).unwrap();
//! assert_eq!(old.into_snapshot().unwrap(), v1);
//!
//! // ρ(emp, ∞) sees the current state.
//! let now = Expr::rollback("emp", TxSpec::Current).eval(&db).unwrap();
//! assert_eq!(now.into_snapshot().unwrap(), v2);
//! ```

pub mod error;
pub mod ext;
pub mod generate;
pub mod semantics;
pub mod syntax;

pub use error::{CoreError, EvalError};
pub use ext::asof::as_of;
pub use ext::scheme::SchemeChange;
pub use ext::update::{append, delete_where, replace_where, Assignment};
pub use semantics::database::{Database, DatabaseState};
pub use semantics::domains::{Relation, RelationType, StateValue, TransactionNumber, Version};
pub use semantics::expr_eval::{RollbackFilter, StateSource};
pub use semantics::operator::Operator;
pub use syntax::command::{Command, CommandOutcome};
pub use syntax::expr::{Expr, JoinPhysical, JoinSpec, TxSpec};
pub use syntax::sentence::Sentence;
pub use syntax::span::{CommandSpans, ExprSpans, SentenceSpans, Span};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, CoreError>;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::semantics::database::Database;
    pub use crate::semantics::domains::{RelationType, StateValue, TransactionNumber};
    pub use crate::syntax::command::{Command, CommandOutcome};
    pub use crate::syntax::expr::{Expr, TxSpec};
    pub use crate::syntax::sentence::Sentence;
}
