//! Scalar expressions, predicates, aggregate expressions and the folds of
//! the running values ([`Fold`]) aggregates read.
//!
//! The expression language is intentionally small: it covers the arithmetic
//! the CH-benCHmark analytical queries need (column references, literals,
//! addition/subtraction/multiplication, comparison predicates, conjunctions).
//! These are plan-level descriptions only: the engine compiles them into
//! register programs ([`crate::program`]) at bind time, and the oracle
//! ([`crate::reference`]) walks them row at a time.

/// A scalar expression producing one `f64` per tuple.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarExpr {
    /// Value of a numeric column.
    Col(String),
    /// A constant.
    Literal(f64),
    /// Sum of two expressions.
    Add(Box<ScalarExpr>, Box<ScalarExpr>),
    /// Difference of two expressions.
    Sub(Box<ScalarExpr>, Box<ScalarExpr>),
    /// Product of two expressions.
    Mul(Box<ScalarExpr>, Box<ScalarExpr>),
}

/// A one-expression join key, for the builder methods that take a key
/// tuple ([`crate::DagBuilder::build`], [`crate::DagBuilder::probe`]).
impl From<ScalarExpr> for Vec<ScalarExpr> {
    fn from(key: ScalarExpr) -> Self {
        vec![key]
    }
}

impl ScalarExpr {
    /// Shorthand for a column reference.
    pub fn col(name: impl Into<String>) -> Self {
        ScalarExpr::Col(name.into())
    }

    /// Shorthand for a literal.
    pub fn lit(v: f64) -> Self {
        ScalarExpr::Literal(v)
    }

    /// Columns referenced by the expression.
    pub fn columns(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out.sort();
        out.dedup();
        out
    }

    /// Whether two expressions are the same computation: equal trees whose
    /// literals have equal bits (`0.0` and `-0.0` differ, as they do under
    /// MIN). Aggregates share a lane only over the same computation.
    pub(crate) fn same_as(&self, other: &ScalarExpr) -> bool {
        match (self, other) {
            (ScalarExpr::Col(a), ScalarExpr::Col(b)) => a == b,
            (ScalarExpr::Literal(a), ScalarExpr::Literal(b)) => a.to_bits() == b.to_bits(),
            (ScalarExpr::Add(a0, a1), ScalarExpr::Add(b0, b1))
            | (ScalarExpr::Sub(a0, a1), ScalarExpr::Sub(b0, b1))
            | (ScalarExpr::Mul(a0, a1), ScalarExpr::Mul(b0, b1)) => {
                a0.same_as(b0) && a1.same_as(b1)
            }
            _ => false,
        }
    }

    fn collect_columns(&self, out: &mut Vec<String>) {
        match self {
            ScalarExpr::Col(c) => out.push(c.clone()),
            ScalarExpr::Literal(_) => {}
            ScalarExpr::Add(a, b) | ScalarExpr::Sub(a, b) | ScalarExpr::Mul(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
        }
    }
}

impl std::ops::Mul for ScalarExpr {
    type Output = ScalarExpr;
    fn mul(self, rhs: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Mul(Box::new(self), Box::new(rhs))
    }
}

impl std::ops::Sub for ScalarExpr {
    type Output = ScalarExpr;
    fn sub(self, rhs: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Sub(Box::new(self), Box::new(rhs))
    }
}

impl std::ops::Add for ScalarExpr {
    type Output = ScalarExpr;
    fn add(self, rhs: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Add(Box::new(self), Box::new(rhs))
    }
}

/// Comparison operator of a predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    /// Apply the comparison to one `(lhs, rhs)` pair — what the compiled
    /// predicates and the finishers over finalised rows evaluate.
    pub(crate) fn apply(self, lhs: f64, rhs: f64) -> bool {
        match self {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
        }
    }
}

/// A filter predicate: `column op literal`. Conjunctions are expressed as a
/// list of predicates (all must hold).
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// Column the predicate applies to.
    pub column: String,
    /// Comparison operator.
    pub op: CmpOp,
    /// Literal to compare against.
    pub literal: f64,
}

impl Predicate {
    /// Construct a predicate.
    pub fn new(column: impl Into<String>, op: CmpOp, literal: f64) -> Self {
        Predicate {
            column: column.into(),
            op,
            literal,
        }
    }
}

/// An aggregate expression.
#[derive(Debug, Clone, PartialEq)]
pub enum AggExpr {
    /// `SUM(expr)`.
    Sum(ScalarExpr),
    /// `AVG(expr)`.
    Avg(ScalarExpr),
    /// `MIN(expr)`.
    Min(ScalarExpr),
    /// `MAX(expr)`.
    Max(ScalarExpr),
    /// `COUNT(*)`.
    Count,
}

impl AggExpr {
    /// Columns referenced by the aggregate.
    pub fn columns(&self) -> Vec<String> {
        match self {
            AggExpr::Sum(e) | AggExpr::Avg(e) | AggExpr::Min(e) | AggExpr::Max(e) => e.columns(),
            AggExpr::Count => Vec::new(),
        }
    }

    /// The running value this aggregate reads besides the row count: its
    /// fold and input. `COUNT(*)` reads the count alone (`None`).
    pub fn lane(&self) -> Option<(Fold, &ScalarExpr)> {
        match self {
            AggExpr::Sum(e) | AggExpr::Avg(e) => Some((Fold::Add, e)),
            AggExpr::Min(e) => Some((Fold::Min, e)),
            AggExpr::Max(e) => Some((Fold::Max, e)),
            AggExpr::Count => None,
        }
    }

    /// Finalise the aggregate from its group's row count and the lane it
    /// reads (`COUNT(*)` ignores `lane`).
    ///
    /// Aggregates over zero rows finalise to `0.0` — not to the `±INFINITY`
    /// identities MIN/MAX lanes start at, and not to a NaN for AVG. SQL
    /// would return NULL here; in this engine's all-`f64` result
    /// representation `0.0` is the defined empty value, and the reference
    /// executor mirrors it.
    pub fn finalize(&self, count: u64, lane: f64) -> f64 {
        match self {
            AggExpr::Count => count as f64,
            _ if count == 0 => 0.0,
            AggExpr::Sum(_) | AggExpr::Min(_) | AggExpr::Max(_) => lane,
            AggExpr::Avg(_) => lane / count as f64,
        }
    }
}

/// The fold of one *lane*: a running `f64` over one input expression. A
/// group (or a scalar morsel) keeps one `u64` row count plus one lane per
/// distinct `(fold, input)` pair of its aggregates: SUM and AVG fold `Add`,
/// MIN `Min`, MAX `Max`, and `COUNT(*)` reads the count alone — Q1's five
/// aggregates are one count and two lanes. A lane starts at its fold's
/// [`Fold::identity`], and folding a value and merging another partial's
/// lane are the same [`Fold::apply`].
///
/// Why sharing cannot move a bit of a result: a lane shared by SUM(x) and
/// AVG(x) folds the same rows, in the same order, with the same operation
/// as each aggregate's own running value would. The count is the sum of 1
/// (or of the weight `w` of a joined row) over those same rows, which is
/// exactly AVG's divisor and COUNT's value. A MIN/MAX lane is empty exactly
/// when the count is 0: every row of a group folds every lane and advances
/// the count by `w ≥ 1`, so [`AggExpr::finalize`] tests the count for the
/// empty value. Partials merge in morsel order — a group's first partial
/// is copied, a scalar folds its partials from the identity — so the
/// association of every floating-point fold is the scan order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fold {
    /// Running sum, from `0.0`.
    Add,
    /// Running minimum, from `+∞`.
    Min,
    /// Running maximum, from `−∞`.
    Max,
}

impl Fold {
    /// The value a lane starts at: folding any `v` into it gives `v` (for
    /// `Add`, a `-0.0` gives `0.0`).
    pub fn identity(self) -> f64 {
        match self {
            Fold::Add => 0.0,
            Fold::Min => f64::INFINITY,
            Fold::Max => f64::NEG_INFINITY,
        }
    }

    /// Fold `v` into the running value `acc`. Merging another partial's
    /// lane into this one is the same operation.
    #[inline(always)]
    pub fn apply(self, acc: f64, v: f64) -> f64 {
        match self {
            Fold::Add => acc + v,
            Fold::Min => acc.min(v),
            Fold::Max => acc.max(v),
        }
    }

    /// Fold one value standing for `w` joined tuples. `Add` scales it by
    /// the multiplicity: the multiplication stands in for `w` repeated
    /// additions (`w == 1` is bitwise exact; larger weights agree with
    /// repeated addition up to floating-point associativity, the tolerance
    /// the differential oracle grants SUM/AVG). `Min`/`Max` fold it once:
    /// repeated folds of one value cannot move an extremum.
    #[inline(always)]
    pub fn apply_weighted(self, acc: f64, v: f64, w: u64) -> f64 {
        match self {
            Fold::Add => acc + v * w as f64,
            Fold::Min | Fold::Max => self.apply(acc, v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_comparison_operators() {
        let cases = [
            (CmpOp::Eq, [false, true, false]),
            (CmpOp::Ne, [true, false, true]),
            (CmpOp::Lt, [true, false, false]),
            (CmpOp::Le, [true, true, false]),
            (CmpOp::Gt, [false, false, true]),
            (CmpOp::Ge, [false, true, true]),
        ];
        for (op, expected) in cases {
            let got = [10.0, 20.0, 30.0].map(|v| op.apply(v, 20.0));
            assert_eq!(got, expected, "{op:?}");
        }
    }

    #[test]
    fn expressions_list_their_columns_once() {
        let expr = ScalarExpr::col("price") * (ScalarExpr::lit(1.0) - ScalarExpr::col("discount"))
            + ScalarExpr::col("price");
        assert_eq!(expr.columns(), ["discount", "price"]);
        assert_eq!(AggExpr::Sum(expr.clone()).columns(), expr.columns());
        assert!(AggExpr::Count.columns().is_empty());
    }

    /// One count and the three folds over `values`, as a group keeps them.
    fn fold(values: &[f64]) -> (u64, [f64; 3]) {
        let folds = [Fold::Add, Fold::Min, Fold::Max];
        let mut lanes = folds.map(Fold::identity);
        for &v in values {
            for (lane, fold) in lanes.iter_mut().zip(folds) {
                *lane = fold.apply(*lane, v);
            }
        }
        (values.len() as u64, lanes)
    }

    /// Merge `other` into `into`: counts add, lanes fold.
    fn merge(into: &mut (u64, [f64; 3]), other: &(u64, [f64; 3])) {
        into.0 += other.0;
        for ((lane, &v), fold) in
            into.1
                .iter_mut()
                .zip(&other.1)
                .zip([Fold::Add, Fold::Min, Fold::Max])
        {
            *lane = fold.apply(*lane, v);
        }
    }

    /// Every aggregate over `x`, finalised from a count and the lanes.
    fn finalize(&(count, [add, min, max]): &(u64, [f64; 3])) -> [f64; 5] {
        let x = ScalarExpr::lit(0.0);
        [
            AggExpr::Sum(x.clone()).finalize(count, add),
            AggExpr::Avg(x.clone()).finalize(count, add),
            AggExpr::Min(x.clone()).finalize(count, min),
            AggExpr::Max(x).finalize(count, max),
            AggExpr::Count.finalize(count, 0.0),
        ]
    }

    #[test]
    fn aggregate_states_fold_and_merge() {
        let mut a = fold(&[1.0, 2.0, 3.0]);
        merge(&mut a, &fold(&[10.0, 20.0]));
        let [sum, avg, min, max, count] = finalize(&a);
        assert_eq!((sum, min, max, count), (36.0, 1.0, 20.0, 5.0));
        assert!((avg - 7.2).abs() < 1e-12);
    }

    #[test]
    fn weighted_folds_scale_sums_and_fold_extrema_once() {
        assert_eq!(Fold::Add.apply_weighted(1.0, 2.5, 4), 11.0);
        assert_eq!(Fold::Min.apply_weighted(3.0, 2.5, 4), 2.5);
        assert_eq!(Fold::Max.apply_weighted(3.0, 2.5, 4), 3.0);
    }

    #[test]
    fn empty_aggregate_finalisation_is_safe() {
        let [sum, avg, _, _, count] = finalize(&fold(&[]));
        assert_eq!((sum, avg, count), (0.0, 0.0, 0.0));
    }

    /// The differential oracle exposed these: a group or scalar that folded
    /// no row must not leak the `±INFINITY` MIN/MAX identities or a NaN AVG
    /// into results.
    #[test]
    fn empty_min_max_finalise_to_zero_not_infinity() {
        let [_, avg, min, max, _] = finalize(&fold(&[]));
        assert_eq!((min, max), (0.0, 0.0));
        assert!(avg.is_finite());
    }

    /// `COUNT(*)` reads no lane: a count-only plan folds no lane, and the
    /// lanes beside a count fold with it, so MIN/MAX stay empty until a row
    /// folds every lane.
    #[test]
    fn count_only_updates_do_not_poison_min_max() {
        assert_eq!(AggExpr::Count.lane(), None);
        assert_eq!(AggExpr::Count.finalize(2, f64::INFINITY), 2.0);
        let (count, [_, min, max]) = fold(&[]);
        assert_eq!(AggExpr::Min(ScalarExpr::lit(0.0)).finalize(count, min), 0.0);
        assert_eq!(AggExpr::Max(ScalarExpr::lit(0.0)).finalize(count, max), 0.0);
        let x = ScalarExpr::col("x");
        assert_eq!(
            AggExpr::Sum(x.clone()).lane(),
            AggExpr::Avg(x.clone()).lane()
        );
        assert_ne!(AggExpr::Min(x.clone()).lane(), AggExpr::Max(x).lane());
    }

    #[test]
    fn merging_an_empty_state_is_the_identity() {
        let mut a = fold(&[3.0, -1.0]);
        let before = a;
        merge(&mut a, &fold(&[]));
        assert_eq!(a.0, before.0);
        assert_eq!(a.1.map(f64::to_bits), before.1.map(f64::to_bits));
        // And the symmetric case: empty absorbing non-empty.
        let mut e = fold(&[]);
        merge(&mut e, &before);
        assert_eq!(finalize(&e)[..4], [2.0, 1.0, -1.0, 3.0]);
    }

    #[test]
    fn lanes_are_shared_only_by_the_same_computation() {
        let x = || ScalarExpr::col("x");
        assert!((x() * ScalarExpr::lit(2.0)).same_as(&(x() * ScalarExpr::lit(2.0))));
        assert!(!(x() * ScalarExpr::lit(0.0)).same_as(&(x() * ScalarExpr::lit(-0.0))));
        assert!(!(x() + ScalarExpr::lit(1.0)).same_as(&(x() - ScalarExpr::lit(1.0))));
        assert!(!x().same_as(&ScalarExpr::col("y")));
    }
}
