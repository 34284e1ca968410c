//! Scalar expressions, predicates, aggregate expressions and the running
//! aggregate state.
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
}

/// Running state of one aggregate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggState {
    sum: f64,
    count: u64,
    /// Values folded via [`AggState::fold_min`]/[`AggState::fold_max`] —
    /// distinct from `count`, which [`AggState::update_count`] also
    /// advances. MIN/MAX emptiness is defined by this, not by `count`.
    values: u64,
    min: f64,
    max: f64,
}

impl Default for AggState {
    fn default() -> Self {
        AggState {
            sum: 0.0,
            count: 0,
            values: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl AggState {
    /// Fold a counted-only tuple (for `COUNT(*)`).
    pub fn update_count(&mut self) {
        self.count += 1;
    }

    /// Fold `n` counted-only tuples at once — the vectorized `COUNT(*)` path
    /// folds a whole selection per call instead of one tuple at a time. The
    /// result is identical to `n` calls of [`AggState::update_count`].
    pub fn update_count_n(&mut self, n: u64) {
        self.count += n;
    }

    /// Kind-specialised folds: each touches only the fields the matching
    /// [`AggExpr`]'s [`AggState::finalize`] (and its [`AggState::merge`]
    /// contributions) read. A state is therefore *partial*: it must only
    /// ever be finalised with the aggregate kind it was folded with — which
    /// is exactly how the executor uses it (state `j` is always finalised
    /// with aggregate `j`).
    #[inline(always)]
    pub fn fold_sum(&mut self, value: f64) {
        self.sum += value;
    }

    /// `AVG` fold: running sum and divisor.
    #[inline(always)]
    pub fn fold_avg(&mut self, value: f64) {
        self.sum += value;
        self.count += 1;
    }

    /// `MIN` fold: running minimum and the emptiness counter.
    #[inline(always)]
    pub fn fold_min(&mut self, value: f64) {
        self.values += 1;
        self.min = self.min.min(value);
    }

    /// `MAX` fold: running maximum and the emptiness counter.
    #[inline(always)]
    pub fn fold_max(&mut self, value: f64) {
        self.values += 1;
        self.max = self.max.max(value);
    }

    /// Weighted `SUM` fold: one joined probe row matching `w` build rows
    /// contributes `value` `w` times. The multiplication stands in for `w`
    /// repeated additions (`w == 1` is bitwise exact; larger weights agree
    /// with repeated addition up to floating-point associativity, the same
    /// tolerance the differential oracle already grants SUM/AVG).
    #[inline(always)]
    pub fn fold_sum_weighted(&mut self, value: f64, w: u64) {
        self.sum += value * w as f64;
    }

    /// Weighted `AVG` fold: the divisor advances by the full multiplicity.
    #[inline(always)]
    pub fn fold_avg_weighted(&mut self, value: f64, w: u64) {
        self.sum += value * w as f64;
        self.count += w;
    }

    /// Merge another state into this one (partial aggregation across pipelines).
    pub fn merge(&mut self, other: &AggState) {
        self.sum += other.sum;
        self.count += other.count;
        self.values += other.values;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Finalise the state for the given aggregate kind.
    ///
    /// Aggregates over zero folded values finalise to `0.0` — not to the
    /// `±INFINITY` sentinels MIN/MAX track internally, and not to a NaN for
    /// AVG. SQL would return NULL here; in this engine's all-`f64` result
    /// representation `0.0` is the defined empty value, and the reference
    /// executor mirrors it.
    pub fn finalize(&self, agg: &AggExpr) -> f64 {
        match agg {
            AggExpr::Sum(_) => self.sum,
            AggExpr::Avg(_) => {
                if self.count == 0 {
                    0.0
                } else {
                    self.sum / self.count as f64
                }
            }
            AggExpr::Min(_) => {
                if self.values == 0 {
                    0.0
                } else {
                    self.min
                }
            }
            AggExpr::Max(_) => {
                if self.values == 0 {
                    0.0
                } else {
                    self.max
                }
            }
            AggExpr::Count => self.count as f64,
        }
    }

    /// Number of folded tuples.
    pub fn count(&self) -> u64 {
        self.count
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

    #[test]
    fn aggregate_states_fold_and_merge() {
        // One state per aggregate kind, as the executor keeps them.
        let fold = |values: &[f64]| {
            let mut s = [AggState::default(); 5];
            for &v in values {
                s[0].fold_sum(v);
                s[1].update_count();
                s[2].fold_min(v);
                s[3].fold_max(v);
                s[4].fold_avg(v);
            }
            s
        };
        let mut a = fold(&[1.0, 2.0, 3.0]);
        for (state, other) in a.iter_mut().zip(&fold(&[10.0, 20.0])) {
            state.merge(other);
        }
        assert_eq!(a[0].finalize(&AggExpr::Sum(ScalarExpr::lit(0.0))), 36.0);
        assert_eq!(a[1].finalize(&AggExpr::Count), 5.0);
        assert_eq!(a[2].finalize(&AggExpr::Min(ScalarExpr::lit(0.0))), 1.0);
        assert_eq!(a[3].finalize(&AggExpr::Max(ScalarExpr::lit(0.0))), 20.0);
        assert!((a[4].finalize(&AggExpr::Avg(ScalarExpr::lit(0.0))) - 7.2).abs() < 1e-12);
        assert_eq!(a[1].count(), 5);
    }

    #[test]
    fn empty_aggregate_finalisation_is_safe() {
        let s = AggState::default();
        assert_eq!(s.finalize(&AggExpr::Avg(ScalarExpr::lit(0.0))), 0.0);
        assert_eq!(s.finalize(&AggExpr::Count), 0.0);
    }

    /// The differential oracle exposed these: a state that never folded a
    /// value (empty group after filtering, or a COUNT-only path) must not
    /// leak the `±INFINITY` MIN/MAX sentinels or a NaN AVG into results.
    #[test]
    fn empty_min_max_finalise_to_zero_not_infinity() {
        let s = AggState::default();
        assert_eq!(s.finalize(&AggExpr::Min(ScalarExpr::lit(0.0))), 0.0);
        assert_eq!(s.finalize(&AggExpr::Max(ScalarExpr::lit(0.0))), 0.0);
        assert!(s.finalize(&AggExpr::Avg(ScalarExpr::lit(0.0))).is_finite());
    }

    #[test]
    fn count_only_updates_do_not_poison_min_max() {
        // COUNT(*) folds via update_count, which must leave MIN/MAX empty.
        let mut s = AggState::default();
        s.update_count();
        s.update_count();
        assert_eq!(s.finalize(&AggExpr::Count), 2.0);
        assert_eq!(s.finalize(&AggExpr::Min(ScalarExpr::lit(0.0))), 0.0);
        assert_eq!(s.finalize(&AggExpr::Max(ScalarExpr::lit(0.0))), 0.0);
    }

    #[test]
    fn merging_an_empty_state_is_the_identity() {
        let mut a = AggState::default();
        for v in [3.0, -1.0] {
            a.fold_sum(v);
            a.fold_min(v);
            a.fold_max(v);
        }
        let before = a;
        a.merge(&AggState::default());
        assert_eq!(a, before);
        // And the symmetric case: empty absorbing non-empty.
        let mut e = AggState::default();
        e.merge(&before);
        assert_eq!(e.finalize(&AggExpr::Min(ScalarExpr::lit(0.0))), -1.0);
        assert_eq!(e.finalize(&AggExpr::Max(ScalarExpr::lit(0.0))), 3.0);
        assert_eq!(e.finalize(&AggExpr::Sum(ScalarExpr::lit(0.0))), 2.0);
    }
}
