//! The operator table of **E**: one place that names each algebra
//! operator, checks the state kind of its operands, and maps it to its
//! kernel.
//!
//! Every evaluator applies operators through [`Operator::apply`]: the
//! expression walk ([`Expr::eval_with_pool`], which with a one-thread
//! pool *is* the reference semantics `Expr::eval`) and the view memo's
//! node-wise walk in `txtime-storage`. The walks differ only in how they
//! reach the operands and in their [`StateSource`], so showing an
//! efficient engine equivalent to the simple semantics (§5) comes down
//! to its rollback resolution.
//!
//! [`StateSource`]: crate::semantics::expr_eval::StateSource

use txtime_exec::ExecPool;
use txtime_historical::{TemporalExpr, TemporalPred};
use txtime_snapshot::{JoinSpec, Predicate};

use crate::error::EvalError;
use crate::semantics::domains::StateValue;
use crate::syntax::expr::Expr;

/// One algebra operator with its payload borrowed: an expression node
/// without its operands. The leaves — constants and ρ/ρ̂ — are not
/// operators; they produce states rather than combine them.
#[derive(Debug, Clone, Copy)]
pub enum Operator<'a> {
    /// `E₁ ∪ E₂`
    Union,
    /// `E₁ − E₂`
    Difference,
    /// `E₁ × E₂`
    Product,
    /// `π_X(E)`
    Project(&'a [String]),
    /// `σ_F(E)`
    Select(&'a Predicate),
    /// `join[spec](E₁, E₂)`
    Join(&'a JoinSpec),
    /// `E₁ ∪̂ E₂`
    HUnion,
    /// `E₁ −̂ E₂`
    HDifference,
    /// `E₁ ×̂ E₂`
    HProduct,
    /// `π̂_X(E)`
    HProject(&'a [String]),
    /// `σ̂_F(E)`
    HSelect(&'a Predicate),
    /// `δ_{G,V}(E)`
    Delta(&'a TemporalPred, &'a TemporalExpr),
    /// `hjoin[spec](E₁, E₂)`
    HJoin(&'a JoinSpec),
}

impl Operator<'_> {
    /// The operator's surface name, as diagnostics print it.
    pub fn name(self) -> &'static str {
        match self {
            Operator::Union => "union",
            Operator::Difference => "minus",
            Operator::Product => "times",
            Operator::Project(_) => "project",
            Operator::Select(_) => "select",
            Operator::Join(_) => "join",
            Operator::HUnion => "hunion",
            Operator::HDifference => "hminus",
            Operator::HProduct => "htimes",
            Operator::HProject(_) => "hproject",
            Operator::HSelect(_) => "hselect",
            Operator::Delta(..) => "delta",
            Operator::HJoin(_) => "hjoin",
        }
    }

    /// Whether the operator takes (and yields) historical states rather
    /// than snapshot states.
    pub fn historical(self) -> bool {
        matches!(
            self,
            Operator::HUnion
                | Operator::HDifference
                | Operator::HProduct
                | Operator::HProject(_)
                | Operator::HSelect(_)
                | Operator::Delta(..)
                | Operator::HJoin(_)
        )
    }

    fn mismatch(self) -> EvalError {
        EvalError::StateKindMismatch {
            operator: self.name(),
            expected_historical: self.historical(),
        }
    }

    /// Checks one evaluated operand: its error, or else its state kind.
    ///
    /// Walks check the left operand before they look at the right one,
    /// so a left operand of the wrong kind is reported ahead of anything
    /// the right operand does — the left-to-right order of **E**.
    pub fn operand(self, value: Result<StateValue, EvalError>) -> Result<StateValue, EvalError> {
        let value = value?;
        if value.is_historical() == self.historical() {
            Ok(value)
        } else {
            Err(self.mismatch())
        }
    }

    /// Applies the operator to its evaluated operands (`right` is `None`
    /// for the unary operators), running the kernel on `pool`.
    ///
    /// Each partitioned kernel is value- and error-identical to its
    /// sequential definition at every thread count, and a one-thread
    /// pool runs it inline as a single chunk. An operand of the wrong
    /// state kind is a `StateKindMismatch` named after the operator.
    pub fn apply(
        self,
        left: StateValue,
        right: Option<StateValue>,
        pool: &ExecPool,
    ) -> Result<StateValue, EvalError> {
        use StateValue::{Historical as H, Snapshot as S};
        Ok(match (self, left, right) {
            (Operator::Union, S(l), Some(S(r))) => S(l.union_par(&r, pool)?),
            (Operator::Difference, S(l), Some(S(r))) => S(l.difference_par(&r, pool)?),
            (Operator::Product, S(l), Some(S(r))) => S(l.product_par(&r, pool)?),
            (Operator::Project(attrs), S(s), None) => S(s.project_par(attrs, pool)?),
            (Operator::Select(p), S(s), None) => S(s.select_par(p, pool)?),
            (Operator::Join(spec), S(l), Some(S(r))) => S(l.equi_join_par(&r, spec, pool)?),
            (Operator::HUnion, H(l), Some(H(r))) => H(l.hunion_par(&r, pool)?),
            (Operator::HDifference, H(l), Some(H(r))) => H(l.hdifference_par(&r, pool)?),
            (Operator::HProduct, H(l), Some(H(r))) => H(l.hproduct_par(&r, pool)?),
            (Operator::HProject(attrs), H(h), None) => H(h.hproject_par(attrs, pool)?),
            (Operator::HSelect(p), H(h), None) => H(h.hselect_par(p, pool)?),
            // δ rewrites valid-time components entry by entry; it stays
            // sequential (subtree parallelism still applies).
            (Operator::Delta(g, v), H(h), None) => H(h.delta(g, v)?),
            (Operator::HJoin(spec), H(l), Some(H(r))) => H(l.hequi_join_par(&r, spec, pool)?),
            (op, ..) => return Err(op.mismatch()),
        })
    }
}

impl Expr {
    /// The node's operator with its operands (`right` only for binary
    /// operators); `None` for the leaves.
    pub fn operator(&self) -> Option<(Operator<'_>, &Expr, Option<&Expr>)> {
        Some(match self {
            Expr::SnapshotConst(_)
            | Expr::HistoricalConst(_)
            | Expr::Rollback(..)
            | Expr::HRollback(..) => return None,
            Expr::Union(a, b) => (Operator::Union, &**a, Some(&**b)),
            Expr::Difference(a, b) => (Operator::Difference, &**a, Some(&**b)),
            Expr::Product(a, b) => (Operator::Product, &**a, Some(&**b)),
            Expr::Project(attrs, e) => (Operator::Project(attrs), &**e, None),
            Expr::Select(p, e) => (Operator::Select(p), &**e, None),
            Expr::Join(spec, a, b) => (Operator::Join(spec), &**a, Some(&**b)),
            Expr::HUnion(a, b) => (Operator::HUnion, &**a, Some(&**b)),
            Expr::HDifference(a, b) => (Operator::HDifference, &**a, Some(&**b)),
            Expr::HProduct(a, b) => (Operator::HProduct, &**a, Some(&**b)),
            Expr::HProject(attrs, e) => (Operator::HProject(attrs), &**e, None),
            Expr::HSelect(p, e) => (Operator::HSelect(p), &**e, None),
            Expr::Delta(g, v, e) => (Operator::Delta(g, v), &**e, None),
            Expr::HJoin(spec, a, b) => (Operator::HJoin(spec), &**a, Some(&**b)),
        })
    }
}
