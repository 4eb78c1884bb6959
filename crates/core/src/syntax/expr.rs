//! The EXPRESSION syntactic domain.
//!
//! ```text
//! E ::= A | E₁ ∪ E₂ | E₁ − E₂ | E₁ × E₂ | π_X(E) | σ_F(E) | ρ(I, N)        (§3.1)
//!     | (Y, A) | E₁ ∪̂ E₂ | E₁ −̂ E₂ | E₁ ×̂ E₂ | π̂_X(E) | σ̂_F(E)
//!     | δ_{G,V}(E) | ρ̂(I, N)                                               (§4)
//! ```
//!
//! An expression "always evaluate\[s\] to a single snapshot state" — or,
//! with the §4 extension, to a single historical state. Evaluation is
//! side-effect-free; see [`crate::semantics::expr_eval`].

use std::fmt;

use txtime_historical::{HistoricalState, TemporalExpr, TemporalPred};
use txtime_snapshot::{Predicate, SnapshotState};

pub use txtime_snapshot::{JoinPhysical, JoinSpec};

use crate::semantics::domains::TransactionNumber;

/// The NUMERAL argument of a rollback operator: a transaction number or
/// the special symbol ∞.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum TxSpec {
    /// A specific transaction number `N`.
    At(TransactionNumber),
    /// The special symbol ∞: "the state of a relation at the time of the
    /// most recent transaction on the database".
    Current,
}

impl fmt::Display for TxSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxSpec::At(n) => write!(f, "{n}"),
            TxSpec::Current => write!(f, "inf"),
        }
    }
}

/// An expression of the language.
///
/// The snapshot-algebra operators (`Union` … `Select`) require snapshot
/// operands and produce snapshot states; their hatted historical
/// counterparts (`HUnion` … `HSelect`, plus `Delta`) require and produce
/// historical states. `Rollback` (ρ) retrieves snapshot states from
/// snapshot/rollback relations; `HRollback` (ρ̂) retrieves historical
/// states from historical/temporal relations.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Expr {
    /// A constant snapshot state `A`.
    SnapshotConst(SnapshotState),
    /// A constant historical state `(historical, A)`.
    HistoricalConst(HistoricalState),
    /// `E₁ ∪ E₂`
    Union(Box<Expr>, Box<Expr>),
    /// `E₁ − E₂`
    Difference(Box<Expr>, Box<Expr>),
    /// `E₁ × E₂`
    Product(Box<Expr>, Box<Expr>),
    /// `π_X(E)`
    Project(Vec<String>, Box<Expr>),
    /// `σ_F(E)`
    Select(Predicate, Box<Expr>),
    /// `ρ(I, N)` — the rollback operator.
    Rollback(String, TxSpec),
    /// `E₁ ∪̂ E₂`
    HUnion(Box<Expr>, Box<Expr>),
    /// `E₁ −̂ E₂`
    HDifference(Box<Expr>, Box<Expr>),
    /// `E₁ ×̂ E₂`
    HProduct(Box<Expr>, Box<Expr>),
    /// `π̂_X(E)`
    HProject(Vec<String>, Box<Expr>),
    /// `σ̂_F(E)`
    HSelect(Predicate, Box<Expr>),
    /// `δ_{G,V}(E)` — valid-time selection and projection.
    Delta(TemporalPred, TemporalExpr, Box<Expr>),
    /// `ρ̂(I, N)` — the historical rollback operator.
    HRollback(String, TxSpec),
    /// A physical equi-join, observationally `σ_spec(E₁ × E₂)`.
    /// Emitted only by the plan search, never by the parser.
    Join(JoinSpec, Box<Expr>, Box<Expr>),
    /// The hatted physical equi-join, observationally `σ̂_spec(E₁ ×̂ E₂)`:
    /// equi-keys match and transaction-time elements intersect.
    HJoin(JoinSpec, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// A constant snapshot state.
    pub fn snapshot_const(s: SnapshotState) -> Expr {
        Expr::SnapshotConst(s)
    }

    /// A constant historical state.
    pub fn historical_const(h: HistoricalState) -> Expr {
        Expr::HistoricalConst(h)
    }

    /// `self ∪ other`
    pub fn union(self, other: Expr) -> Expr {
        Expr::Union(Box::new(self), Box::new(other))
    }

    /// `self − other`
    pub fn difference(self, other: Expr) -> Expr {
        Expr::Difference(Box::new(self), Box::new(other))
    }

    /// `self × other`
    pub fn product(self, other: Expr) -> Expr {
        Expr::Product(Box::new(self), Box::new(other))
    }

    /// `π_attrs(self)`
    pub fn project(self, attrs: Vec<String>) -> Expr {
        Expr::Project(attrs, Box::new(self))
    }

    /// `σ_pred(self)`
    pub fn select(self, pred: Predicate) -> Expr {
        Expr::Select(pred, Box::new(self))
    }

    /// `ρ(ident, tx)`
    pub fn rollback(ident: impl Into<String>, tx: TxSpec) -> Expr {
        Expr::Rollback(ident.into(), tx)
    }

    /// `ρ(ident, ∞)` — the relation's current state.
    pub fn current(ident: impl Into<String>) -> Expr {
        Expr::Rollback(ident.into(), TxSpec::Current)
    }

    /// `self ∪̂ other`
    pub fn hunion(self, other: Expr) -> Expr {
        Expr::HUnion(Box::new(self), Box::new(other))
    }

    /// `self −̂ other`
    pub fn hdifference(self, other: Expr) -> Expr {
        Expr::HDifference(Box::new(self), Box::new(other))
    }

    /// `self ×̂ other`
    pub fn hproduct(self, other: Expr) -> Expr {
        Expr::HProduct(Box::new(self), Box::new(other))
    }

    /// `π̂_attrs(self)`
    pub fn hproject(self, attrs: Vec<String>) -> Expr {
        Expr::HProject(attrs, Box::new(self))
    }

    /// `σ̂_pred(self)`
    pub fn hselect(self, pred: Predicate) -> Expr {
        Expr::HSelect(pred, Box::new(self))
    }

    /// `δ_{g,v}(self)`
    pub fn delta(self, g: TemporalPred, v: TemporalExpr) -> Expr {
        Expr::Delta(g, v, Box::new(self))
    }

    /// `ρ̂(ident, tx)`
    pub fn hrollback(ident: impl Into<String>, tx: TxSpec) -> Expr {
        Expr::HRollback(ident.into(), tx)
    }

    /// `ρ̂(ident, ∞)` — the current historical state.
    pub fn hcurrent(ident: impl Into<String>) -> Expr {
        Expr::HRollback(ident.into(), TxSpec::Current)
    }

    /// `join[spec](self, other)`
    pub fn join(self, spec: JoinSpec, other: Expr) -> Expr {
        Expr::Join(spec, Box::new(self), Box::new(other))
    }

    /// `hjoin[spec](self, other)`
    pub fn hjoin(self, spec: JoinSpec, other: Expr) -> Expr {
        Expr::HJoin(spec, Box::new(self), Box::new(other))
    }

    /// Whether this expression produces an historical (vs snapshot)
    /// state. Purely syntactic: the outermost operator decides.
    pub fn is_historical(&self) -> bool {
        matches!(
            self,
            Expr::HistoricalConst(_)
                | Expr::HUnion(..)
                | Expr::HDifference(..)
                | Expr::HProduct(..)
                | Expr::HProject(..)
                | Expr::HSelect(..)
                | Expr::Delta(..)
                | Expr::HRollback(..)
                | Expr::HJoin(..)
        )
    }

    /// The relation identifiers this expression reads via ρ/ρ̂, in
    /// first-occurrence order (used by the transaction scheduler to
    /// compute read sets).
    pub fn read_set(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_reads(&mut out);
        out
    }

    fn collect_reads<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Expr::SnapshotConst(_) | Expr::HistoricalConst(_) => {}
            Expr::Rollback(i, _) | Expr::HRollback(i, _) => {
                if !out.contains(&i.as_str()) {
                    out.push(i);
                }
            }
            Expr::Union(a, b)
            | Expr::Difference(a, b)
            | Expr::Product(a, b)
            | Expr::HUnion(a, b)
            | Expr::HDifference(a, b)
            | Expr::HProduct(a, b)
            | Expr::Join(_, a, b)
            | Expr::HJoin(_, a, b) => {
                a.collect_reads(out);
                b.collect_reads(out);
            }
            Expr::Project(_, e)
            | Expr::Select(_, e)
            | Expr::HProject(_, e)
            | Expr::HSelect(_, e)
            | Expr::Delta(_, _, e) => e.collect_reads(out),
        }
    }

    /// Every ρ/ρ̂ leaf of the expression as an `(ident, spec)` pair, in
    /// syntactic order and *without* deduplication — unlike
    /// [`Expr::read_set`], which collapses to distinct identifiers. The
    /// view memo uses the specs to decide which leaves a new transaction
    /// can actually affect (`ρ(I, n)` with `n` below the new transaction
    /// number is immutable under strictly increasing transaction
    /// numbers).
    pub fn reads(&self) -> Vec<(&str, TxSpec)> {
        let mut out = Vec::new();
        self.collect_spec_reads(&mut out);
        out
    }

    fn collect_spec_reads<'a>(&'a self, out: &mut Vec<(&'a str, TxSpec)>) {
        match self {
            Expr::SnapshotConst(_) | Expr::HistoricalConst(_) => {}
            Expr::Rollback(i, spec) | Expr::HRollback(i, spec) => out.push((i, *spec)),
            Expr::Union(a, b)
            | Expr::Difference(a, b)
            | Expr::Product(a, b)
            | Expr::HUnion(a, b)
            | Expr::HDifference(a, b)
            | Expr::HProduct(a, b)
            | Expr::Join(_, a, b)
            | Expr::HJoin(_, a, b) => {
                a.collect_spec_reads(out);
                b.collect_spec_reads(out);
            }
            Expr::Project(_, e)
            | Expr::Select(_, e)
            | Expr::HProject(_, e)
            | Expr::HSelect(_, e)
            | Expr::Delta(_, _, e) => e.collect_spec_reads(out),
        }
    }

    /// The node's direct *expression* operands, in syntactic order
    /// (empty for constants and rollbacks). Analyses that walk the tree
    /// generically — the static checker, span tables — use this instead
    /// of matching every variant.
    pub fn operands(&self) -> Vec<&Expr> {
        match self {
            Expr::SnapshotConst(_)
            | Expr::HistoricalConst(_)
            | Expr::Rollback(..)
            | Expr::HRollback(..) => Vec::new(),
            Expr::Union(a, b)
            | Expr::Difference(a, b)
            | Expr::Product(a, b)
            | Expr::HUnion(a, b)
            | Expr::HDifference(a, b)
            | Expr::HProduct(a, b)
            | Expr::Join(_, a, b)
            | Expr::HJoin(_, a, b) => vec![a, b],
            Expr::Project(_, e)
            | Expr::Select(_, e)
            | Expr::HProject(_, e)
            | Expr::HSelect(_, e)
            | Expr::Delta(_, _, e) => vec![e],
        }
    }

    /// A short name for the node's operator, for diagnostics
    /// (`union`, `hproject`, `rho`, …).
    pub fn operator_name(&self) -> &'static str {
        match self {
            Expr::SnapshotConst(_) => "snapshot constant",
            Expr::HistoricalConst(_) => "historical constant",
            Expr::Rollback(..) => "rho",
            Expr::HRollback(..) => "hrho",
            _ => self
                .operator()
                .expect("every other node is an operator")
                .0
                .name(),
        }
    }

    /// Number of operator nodes (used by the optimizer's cost heuristics
    /// and by tests on rewrite termination).
    pub fn node_count(&self) -> usize {
        match self {
            Expr::SnapshotConst(_)
            | Expr::HistoricalConst(_)
            | Expr::Rollback(..)
            | Expr::HRollback(..) => 1,
            Expr::Union(a, b)
            | Expr::Difference(a, b)
            | Expr::Product(a, b)
            | Expr::HUnion(a, b)
            | Expr::HDifference(a, b)
            | Expr::HProduct(a, b)
            | Expr::Join(_, a, b)
            | Expr::HJoin(_, a, b) => 1 + a.node_count() + b.node_count(),
            Expr::Project(_, e)
            | Expr::Select(_, e)
            | Expr::HProject(_, e)
            | Expr::HSelect(_, e)
            | Expr::Delta(_, _, e) => 1 + e.node_count(),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::SnapshotConst(s) => write!(f, "{s}"),
            Expr::HistoricalConst(h) => write!(f, "(historical, {h})"),
            Expr::Union(a, b) => write!(f, "({a} union {b})"),
            Expr::Difference(a, b) => write!(f, "({a} minus {b})"),
            Expr::Product(a, b) => write!(f, "({a} times {b})"),
            Expr::Project(attrs, e) => write!(f, "project[{}]({e})", attrs.join(", ")),
            Expr::Select(p, e) => write!(f, "select[{p}]({e})"),
            Expr::Rollback(i, n) => write!(f, "rho({i}, {n})"),
            Expr::HUnion(a, b) => write!(f, "({a} hunion {b})"),
            Expr::HDifference(a, b) => write!(f, "({a} hminus {b})"),
            Expr::HProduct(a, b) => write!(f, "({a} htimes {b})"),
            Expr::HProject(attrs, e) => write!(f, "hproject[{}]({e})", attrs.join(", ")),
            Expr::HSelect(p, e) => write!(f, "hselect[{p}]({e})"),
            Expr::Delta(g, v, e) => write!(f, "delta[{g}; {v}]({e})"),
            Expr::HRollback(i, n) => write!(f, "hrho({i}, {n})"),
            Expr::Join(spec, a, b) => write!(f, "join[{spec}]({a}, {b})"),
            Expr::HJoin(spec, a, b) => write!(f, "hjoin[{spec}]({a}, {b})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txtime_snapshot::Value;

    #[test]
    fn builders_and_display() {
        let e = Expr::current("emp")
            .select(Predicate::gt_const("sal", Value::Int(10)))
            .project(vec!["name".into()]);
        assert_eq!(
            e.to_string(),
            "project[name](select[sal > 10](rho(emp, inf)))"
        );
    }

    #[test]
    fn historical_detection() {
        assert!(Expr::hcurrent("emp").is_historical());
        assert!(!Expr::current("emp").is_historical());
        assert!(Expr::hcurrent("a")
            .hunion(Expr::hcurrent("b"))
            .is_historical());
    }

    #[test]
    fn read_set_deduplicates() {
        let e = Expr::current("a")
            .union(Expr::current("b"))
            .union(Expr::current("a"));
        assert_eq!(e.read_set(), vec!["a", "b"]);
    }

    #[test]
    fn reads_keeps_specs_and_duplicates() {
        let e = Expr::rollback("a", TxSpec::At(TransactionNumber(3)))
            .union(Expr::current("b"))
            .union(Expr::current("a"));
        assert_eq!(
            e.reads(),
            vec![
                ("a", TxSpec::At(TransactionNumber(3))),
                ("b", TxSpec::Current),
                ("a", TxSpec::Current),
            ]
        );
    }

    #[test]
    fn node_count() {
        let e = Expr::current("a").union(Expr::current("b"));
        assert_eq!(e.node_count(), 3);
    }

    #[test]
    fn txspec_display() {
        assert_eq!(TxSpec::Current.to_string(), "inf");
        assert_eq!(TxSpec::At(TransactionNumber(7)).to_string(), "7");
    }
}
