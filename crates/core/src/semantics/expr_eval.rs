//! The semantic function **E** (§3.4, §4).
//!
//! ```text
//! E : EXPRESSION → [DATABASE → [STATE]]
//! ```
//!
//! "The result of evaluating an expression on a specific database is a
//! \[snapshot or historical\] state. Note that evaluation of an expression
//! on a specific database does not change that database." Accordingly the
//! evaluator takes `&Database` and returns a fresh [`StateValue`].

use txtime_exec::{ExecPool, OpKind};
use txtime_snapshot::Predicate;

use crate::error::EvalError;
use crate::semantics::aux::find_state;
use crate::semantics::database::Database;
use crate::semantics::domains::{Relation, RelationType, StateValue};
use crate::semantics::operator::Operator;
use crate::syntax::expr::{Expr, TxSpec};

/// A selection/projection pair pushed down into rollback resolution.
///
/// When **E** meets `σ_F(ρ(I, N))`, `π_X(ρ(I, N))`, or
/// `π_X(σ_F(ρ(I, N)))` (and the ρ̂ counterparts), the operators can run
/// *during* resolution instead of on a fully materialized state — a
/// storage engine that reconstructs versions tuple-by-tuple never has to
/// build the tuples the filter would discard. The filter carries borrowed
/// pieces of the expression; [`RollbackFilter::apply`] applies them with
/// exactly the operators — and exactly the errors — the un-pushed
/// evaluation would have used.
#[derive(Debug, Clone, Copy)]
pub struct RollbackFilter<'a> {
    /// The selection predicate `F`, applied first (it is the innermost
    /// wrapper in the canonical `π_X(σ_F(·))` shape).
    pub predicate: Option<&'a Predicate>,
    /// The projection attribute list `X`, applied after selection.
    pub project: Option<&'a [String]>,
}

impl<'a> RollbackFilter<'a> {
    /// A filter that passes the state through unchanged.
    pub fn none() -> RollbackFilter<'a> {
        RollbackFilter {
            predicate: None,
            project: None,
        }
    }

    /// Applies the filter to a resolved state: σ then π, the snapshot
    /// or historical operators to match the wrapping expression
    /// (`historical` is the same flag that was passed to
    /// [`StateSource::resolve_rollback`]).
    ///
    /// Error behavior is identical to evaluating the un-pushed
    /// expression: both steps go through the same [`Operator::apply`],
    /// so a state of the wrong kind is diagnosed with the same
    /// `StateKindMismatch` (named after the innermost wrapping operator,
    /// which evaluates first), and predicate/attribute errors surface
    /// unchanged.
    pub fn apply(&self, mut value: StateValue, historical: bool) -> Result<StateValue, EvalError> {
        let pool = ExecPool::sequential();
        if let Some(p) = self.predicate {
            let select = if historical {
                Operator::HSelect(p)
            } else {
                Operator::Select(p)
            };
            value = select.apply(value, None, pool)?;
        }
        if let Some(attrs) = self.project {
            let project = if historical {
                Operator::HProject(attrs)
            } else {
                Operator::Project(attrs)
            };
            value = project.apply(value, None, pool)?;
        }
        Ok(value)
    }
}

/// Anything that can answer rollback lookups — the single point where
/// expression evaluation touches stored data.
///
/// The reference semantics implements this for [`Database`] via FINDSTATE;
/// the efficient engines in `txtime-storage` implement it over their own
/// representations. Everything else in **E** — the walk and the operator
/// table ([`Operator`]) — is shared, which is exactly what makes
/// "demonstrating the equivalence of their semantics with the simple
/// semantics presented here" (§5) a matter of testing this one method.
pub trait StateSource {
    /// Resolves `ρ(ident, spec)` (`historical = false`) or
    /// `ρ̂(ident, spec)` (`historical = true`).
    fn resolve_rollback(
        &self,
        ident: &str,
        spec: TxSpec,
        historical: bool,
    ) -> Result<StateValue, EvalError>;

    /// Resolves a rollback with a selection/projection pushed into it.
    ///
    /// The provided implementation resolves and then applies the filter,
    /// which is *definitionally* what the un-pushed expression computes —
    /// so the reference [`Database`] semantics is untouched by pushdown.
    /// Storage engines override this to filter while reconstructing.
    fn resolve_rollback_filtered(
        &self,
        ident: &str,
        spec: TxSpec,
        historical: bool,
        filter: &RollbackFilter<'_>,
    ) -> Result<StateValue, EvalError> {
        filter.apply(self.resolve_rollback(ident, spec, historical)?, historical)
    }
}

impl StateSource for Database {
    fn resolve_rollback(
        &self,
        ident: &str,
        spec: TxSpec,
        historical: bool,
    ) -> Result<StateValue, EvalError> {
        rollback(self, ident, spec, historical)
    }
}

impl Expr {
    /// Evaluates the expression against `db` (the denotation
    /// `E⟦self⟧ db`): the one walk of [`Expr::eval_with_pool`], on the
    /// one-thread pool.
    pub fn eval(&self, db: &Database) -> Result<StateValue, EvalError> {
        self.eval_with_pool(db, ExecPool::sequential())
    }

    /// Evaluates against any [`StateSource`], with the operator kernels
    /// scheduled on `pool` — the only walk over [`Expr`].
    ///
    /// Leaves resolve through the source; a selection/projection over a
    /// ρ/ρ̂ leaf is handed to
    /// [`StateSource::resolve_rollback_filtered`] so stores can filter
    /// while reconstructing; every other node applies its [`Operator`].
    /// With more than one thread, the two subtrees of a binary operator
    /// run concurrently ([`ExecPool::join`]) and the `*_par` kernels
    /// partition their input. The result — value *and* error — is the
    /// same at every thread count: chunk merges preserve the canonical
    /// state order, and the left operand (its kind included) is checked
    /// before the right, so error selection matches left-to-right
    /// evaluation. A one-thread pool runs everything inline and stops at
    /// the first error. The parallel-determinism property tests in
    /// `txtime-storage` pin this equivalence on every backend.
    pub fn eval_with_pool<S: StateSource + Sync>(
        &self,
        db: &S,
        pool: &ExecPool,
    ) -> Result<StateValue, EvalError> {
        if let Some((ident, spec, historical, filter)) = self.pushed_rollback() {
            return db.resolve_rollback_filtered(ident, spec, historical, &filter);
        }
        let (op, left, right) = match self {
            Expr::SnapshotConst(s) => return Ok(StateValue::Snapshot(s.clone())),
            Expr::HistoricalConst(h) => return Ok(StateValue::Historical(h.clone())),
            Expr::Rollback(ident, spec) => return db.resolve_rollback(ident, *spec, false),
            Expr::HRollback(ident, spec) => return db.resolve_rollback(ident, *spec, true),
            _ => self.operator().expect("every other node is an operator"),
        };
        let operand = |e: &Expr| op.operand(e.eval_with_pool(db, pool));
        let (left, right) = match right {
            None => (operand(left)?, None),
            Some(right) => {
                let (l, r) = pool.join(OpKind::Subtree, || operand(left), || operand(right))?;
                (l, Some(r))
            }
        };
        op.apply(left, right, pool)
    }

    /// The pushdown shapes `σ_F(ρ(I, N))`, `π_X(ρ(I, N))` and
    /// `π_X(σ_F(ρ(I, N)))`, and their hatted counterparts: the rollback
    /// to resolve and the filter to run during resolution. Mixed-kind
    /// shapes (`σ` over `ρ̂`) are not pushed; they evaluate — and fail —
    /// operator by operator.
    fn pushed_rollback(&self) -> Option<(&str, TxSpec, bool, RollbackFilter<'_>)> {
        let historical = self.is_historical();
        let (project, inner) = match self {
            Expr::Project(attrs, e) | Expr::HProject(attrs, e) => (Some(&attrs[..]), &**e),
            _ => (None, self),
        };
        let (predicate, leaf) = match inner {
            Expr::Select(p, e) | Expr::HSelect(p, e) if inner.is_historical() == historical => {
                (Some(p), &**e)
            }
            _ => (None, inner),
        };
        match leaf {
            Expr::Rollback(ident, spec) | Expr::HRollback(ident, spec)
                if leaf.is_historical() == historical
                    && (predicate.is_some() || project.is_some()) =>
            {
                Some((
                    ident,
                    *spec,
                    historical,
                    RollbackFilter { predicate, project },
                ))
            }
            _ => None,
        }
    }
}

/// The denotations of ρ(I, N) and ρ̂(I, N):
///
/// ```text
/// E⟦ρ(I, N)⟧ d ≜ if N = ∞ then FINDSTATE(r, n) else FINDSTATE(r, N⟦N⟧)
/// ```
///
/// where `d = (b, n)` and `r = b(I)`. Type rules (§3.1/§4):
///
/// * `ρ(I, ∞)` — `I` may be snapshot or rollback;
/// * `ρ(I, N)`, `N ≠ ∞` — `I` must be rollback ("The rollback operator
///   cannot retrieve a past state of a snapshot relation");
/// * `ρ̂` mirrors this for historical/temporal relations.
///
/// When FINDSTATE finds no element (the paper's "empty set" result) we
/// return an empty state with the relation's earliest known scheme; if the
/// relation has no states at all there is no scheme to give ∅ and we
/// diagnose `EmptyRelation`.
fn rollback(
    db: &Database,
    ident: &str,
    spec: TxSpec,
    historical: bool,
) -> Result<StateValue, EvalError> {
    let relation = db
        .state
        .lookup(ident)
        .ok_or_else(|| EvalError::UndefinedRelation(ident.to_string()))?;

    check_rollback_type(relation, ident, spec, historical)?;

    let tx = match spec {
        TxSpec::Current => db.tx,
        TxSpec::At(n) => n,
    };
    match find_state(relation, tx) {
        Some(state) => Ok(state.clone()),
        None => empty_like_first_version(relation, ident),
    }
}

fn check_rollback_type(
    relation: &Relation,
    ident: &str,
    spec: TxSpec,
    historical: bool,
) -> Result<(), EvalError> {
    let rtype = relation.rtype();
    if historical != rtype.holds_historical() {
        return Err(EvalError::RollbackTypeMismatch {
            relation: ident.to_string(),
            actual: rtype,
            historical,
        });
    }
    if matches!(spec, TxSpec::At(_)) && !rtype.keeps_history() {
        // ρ(I, N) with N ≠ ∞ on a snapshot relation (or ρ̂ on an
        // historical relation) is illegal.
        return if rtype == RelationType::Snapshot {
            Err(EvalError::RollbackOnSnapshot(ident.to_string()))
        } else {
            Err(EvalError::RollbackTypeMismatch {
                relation: ident.to_string(),
                actual: rtype,
                historical,
            })
        };
    }
    Ok(())
}

fn empty_like_first_version(relation: &Relation, ident: &str) -> Result<StateValue, EvalError> {
    match relation.versions().first() {
        Some(v) => Ok(v.state.empty_like()),
        // A defined relation with an empty sequence: even ∅ needs a
        // scheme in a typed implementation.
        None => Err(EvalError::EmptyRelation(ident.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::domains::TransactionNumber;
    use crate::syntax::command::Command;
    use crate::syntax::sentence::Sentence;
    use txtime_historical::{HistoricalState, TemporalElement};
    use txtime_snapshot::{DomainType, Predicate, Schema, SnapshotState, Tuple, Value};

    fn schema() -> Schema {
        Schema::new(vec![("name", DomainType::Str), ("sal", DomainType::Int)]).unwrap()
    }

    fn snap(rows: &[(&str, i64)]) -> SnapshotState {
        SnapshotState::from_rows(
            schema(),
            rows.iter()
                .map(|&(n, s)| vec![Value::str(n), Value::Int(s)]),
        )
        .unwrap()
    }

    fn hist(rows: &[(&str, i64, u32, u32)]) -> HistoricalState {
        HistoricalState::new(
            schema(),
            rows.iter().map(|&(n, s, f, t)| {
                (
                    Tuple::new(vec![Value::str(n), Value::Int(s)]),
                    TemporalElement::period(f, t),
                )
            }),
        )
        .unwrap()
    }

    /// A database: rollback `emp` with three versions (tx 2, 3, 4) and a
    /// snapshot `cur` with one.
    fn db() -> Database {
        Sentence::new(vec![
            Command::define_relation("emp", RelationType::Rollback),
            Command::modify_state("emp", Expr::snapshot_const(snap(&[("alice", 100)]))),
            Command::modify_state(
                "emp",
                Expr::snapshot_const(snap(&[("alice", 100), ("bob", 200)])),
            ),
            Command::modify_state("emp", Expr::snapshot_const(snap(&[("bob", 250)]))),
            Command::define_relation("cur", RelationType::Snapshot),
            Command::modify_state("cur", Expr::snapshot_const(snap(&[("zoe", 1)]))),
        ])
        .unwrap()
        .eval()
        .unwrap()
    }

    fn tdb() -> Database {
        Sentence::new(vec![
            Command::define_relation("hemp", RelationType::Temporal),
            Command::modify_state(
                "hemp",
                Expr::historical_const(hist(&[("alice", 100, 0, 10)])),
            ),
            Command::modify_state(
                "hemp",
                Expr::historical_const(hist(&[("alice", 100, 0, 10), ("bob", 200, 5, 20)])),
            ),
        ])
        .unwrap()
        .eval()
        .unwrap()
    }

    #[test]
    fn constants_evaluate_to_themselves() {
        let s = snap(&[("a", 1)]);
        assert_eq!(
            Expr::snapshot_const(s.clone())
                .eval(&Database::empty())
                .unwrap(),
            StateValue::Snapshot(s)
        );
    }

    #[test]
    fn evaluation_does_not_change_database() {
        let d = db();
        let before = d.clone();
        let _ = Expr::current("emp").eval(&d).unwrap();
        let _ = Expr::rollback("emp", TxSpec::At(TransactionNumber(2))).eval(&d);
        assert_eq!(d, before);
    }

    #[test]
    fn rollback_current_returns_latest() {
        let s = Expr::current("emp").eval(&db()).unwrap();
        assert_eq!(s.into_snapshot().unwrap(), snap(&[("bob", 250)]));
    }

    #[test]
    fn rollback_interpolates() {
        let d = db();
        let at2 = Expr::rollback("emp", TxSpec::At(TransactionNumber(2)))
            .eval(&d)
            .unwrap();
        assert_eq!(at2.into_snapshot().unwrap(), snap(&[("alice", 100)]));
        let at3 = Expr::rollback("emp", TxSpec::At(TransactionNumber(3)))
            .eval(&d)
            .unwrap();
        assert_eq!(
            at3.into_snapshot().unwrap(),
            snap(&[("alice", 100), ("bob", 200)])
        );
    }

    #[test]
    fn rollback_before_first_version_is_empty_state() {
        let d = db();
        let s = Expr::rollback("emp", TxSpec::At(TransactionNumber(1)))
            .eval(&d)
            .unwrap()
            .into_snapshot()
            .unwrap();
        assert!(s.is_empty());
        assert_eq!(s.schema(), &schema());
    }

    #[test]
    fn rollback_on_snapshot_with_past_tx_is_illegal() {
        let d = db();
        assert!(matches!(
            Expr::rollback("cur", TxSpec::At(TransactionNumber(1))).eval(&d),
            Err(EvalError::RollbackOnSnapshot(_))
        ));
        // But ∞ is fine.
        assert!(Expr::current("cur").eval(&d).is_ok());
    }

    #[test]
    fn rollback_on_undefined_relation() {
        assert!(matches!(
            Expr::current("ghost").eval(&Database::empty()),
            Err(EvalError::UndefinedRelation(_))
        ));
    }

    #[test]
    fn rho_requires_snapshot_family() {
        let d = tdb();
        assert!(matches!(
            Expr::current("hemp").eval(&d),
            Err(EvalError::RollbackTypeMismatch { .. })
        ));
    }

    #[test]
    fn hrho_requires_historical_family() {
        let d = db();
        assert!(matches!(
            Expr::hcurrent("emp").eval(&d),
            Err(EvalError::RollbackTypeMismatch { .. })
        ));
    }

    #[test]
    fn hrollback_retrieves_past_historical_state() {
        let d = tdb();
        let h1 = Expr::hrollback("hemp", TxSpec::At(TransactionNumber(2)))
            .eval(&d)
            .unwrap()
            .into_historical()
            .unwrap();
        assert_eq!(h1, hist(&[("alice", 100, 0, 10)]));
        let h2 = Expr::hcurrent("hemp")
            .eval(&d)
            .unwrap()
            .into_historical()
            .unwrap();
        assert_eq!(h2.len(), 2);
    }

    #[test]
    fn algebra_over_rollback_results() {
        let d = db();
        // π_name(σ_{sal>150}(ρ(emp, 3)))
        let e = Expr::rollback("emp", TxSpec::At(TransactionNumber(3)))
            .select(Predicate::gt_const("sal", Value::Int(150)))
            .project(vec!["name".into()]);
        let s = e.eval(&d).unwrap().into_snapshot().unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.iter().next().unwrap().get(0), &Value::str("bob"));
    }

    #[test]
    fn union_of_two_rollback_times() {
        let d = db();
        let e = Expr::rollback("emp", TxSpec::At(TransactionNumber(2))).union(Expr::current("emp"));
        let s = e.eval(&d).unwrap().into_snapshot().unwrap();
        assert_eq!(s, snap(&[("alice", 100), ("bob", 250)]));
    }

    #[test]
    fn kind_mismatch_is_diagnosed() {
        let d = tdb();
        // Snapshot union over an historical operand.
        let e = Expr::hcurrent("hemp").union(Expr::hcurrent("hemp"));
        assert!(matches!(
            e.eval(&d),
            Err(EvalError::StateKindMismatch {
                operator: "union",
                ..
            })
        ));
    }

    #[test]
    fn empty_relation_has_no_scheme_for_rollback() {
        let d = Sentence::new(vec![Command::define_relation(
            "fresh",
            RelationType::Rollback,
        )])
        .unwrap()
        .eval()
        .unwrap();
        assert!(matches!(
            Expr::current("fresh").eval(&d),
            Err(EvalError::EmptyRelation(_))
        ));
    }
}
