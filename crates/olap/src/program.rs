//! Compiled expression and predicate programs — the bind-time half of the
//! vectorized executor.
//!
//! At plan-bind time every [`ScalarExpr`] and [`Predicate`] a pipeline needs
//! is compiled into a flat register program: column names are resolved to
//! indices into the pipeline's load lists exactly once, literals are interned
//! into a constant pool, and the expression tree is flattened into a sequence
//! of three-address instructions over per-worker register buffers. The
//! steady-state morsel loop then never touches a `String`, never walks a
//! tree, and never allocates — registers live in the worker's
//! [`crate::scratch::ExecScratch`] and are reused across morsels.
//!
//! Join keys take no register program and never round through `f64`: a
//! one-expression key folds to its exact `i64` affine form over the key
//! columns ([`AffineKey`]); a tuple of key columns folds to one `i64` by
//! mixed radix over its build side's value box ([`KeyBox`]), evaluated in
//! one fused pass that reads each element once per row and range-checks it
//! on the way ([`kernels::fold_tuple`]).
//!
//! Selection vectors (`u32` row ids) replace the old `Vec<bool>` masks:
//! filters *compact* the selection in place, and every downstream operator
//! (join probe, aggregation, group-by) iterates only the surviving rows.

use crate::error::OlapError;
use crate::expr::{AggExpr, CmpOp, Fold, Predicate, ScalarExpr};
use crate::kernels::{self, FoldDim};
use crate::scratch::MorselData;

/// Where a compiled operand reads from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Src {
    /// A numeric column of the morsel (index into the pipeline's numeric
    /// load list).
    Num(u32),
    /// An evaluation register.
    Reg(u32),
    /// An interned constant.
    Const(u32),
}

/// A three-address instruction: `reg[dst] = a op b` for every selected row.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Instr {
    pub op: BinOp,
    pub dst: u32,
    pub a: Src,
    pub b: Src,
}

/// Arithmetic of the expression language.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BinOp {
    Add,
    Sub,
    Mul,
}

/// A compiled scalar expression: instructions plus the source its value ends
/// up in. A plain column reference compiles to zero instructions and reads
/// the column slice directly (zero copies).
#[derive(Debug, Clone)]
pub(crate) struct CompiledExpr {
    pub instrs: Vec<Instr>,
    pub output: Src,
}

/// Resolves column names against the pipeline's load lists during
/// compilation. Numeric and key lists are the exact lists handed to the
/// morsel reader, so a compiled index is valid for every morsel.
pub(crate) struct ColumnResolver<'a> {
    numeric: &'a [String],
    keys: &'a [String],
}

/// A resolved column reference: numeric slot or key slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ColRef {
    Num(u32),
    Key(u32),
}

impl<'a> ColumnResolver<'a> {
    pub fn new(numeric: &'a [String], keys: &'a [String]) -> Self {
        ColumnResolver { numeric, keys }
    }

    /// Numeric slot of `name` (expressions evaluate over numeric loads only,
    /// mirroring [`ScalarExpr::evaluate`]).
    fn numeric_slot(&self, name: &str) -> Result<u32, OlapError> {
        self.numeric
            .iter()
            .position(|c| c == name)
            .map(|i| i as u32)
            .ok_or_else(|| OlapError::MissingColumn {
                column: name.to_string(),
            })
    }

    /// Predicate column resolution: numeric first, then key — the same
    /// precedence [`Predicate::evaluate`] applies on blocks.
    fn col_ref(&self, name: &str) -> Result<ColRef, OlapError> {
        if let Some(i) = self.numeric.iter().position(|c| c == name) {
            return Ok(ColRef::Num(i as u32));
        }
        self.keys
            .iter()
            .position(|c| c == name)
            .map(|i| ColRef::Key(i as u32))
            .ok_or_else(|| OlapError::MissingColumn {
                column: name.to_string(),
            })
    }
}

/// A full pipeline program: shared constant pool and register budget for all
/// the compiled expressions of one pipeline.
#[derive(Debug, Clone, Default)]
pub(crate) struct ProgramPool {
    pub consts: Vec<f64>,
    pub n_regs: u32,
}

impl ProgramPool {
    fn intern(&mut self, v: f64) -> u32 {
        // Constant pools are tiny; linear scan with bitwise equality (NaN
        // literals each get their own slot, which is still correct).
        if let Some(i) = self.consts.iter().position(|c| c.to_bits() == v.to_bits()) {
            return i as u32;
        }
        self.consts.push(v);
        (self.consts.len() - 1) as u32
    }

    fn fresh_reg(&mut self) -> u32 {
        self.n_regs += 1;
        self.n_regs - 1
    }

    /// Compile `expr` against the resolver, appending to this pool.
    pub fn compile_expr(
        &mut self,
        expr: &ScalarExpr,
        resolver: &ColumnResolver<'_>,
    ) -> Result<CompiledExpr, OlapError> {
        let mut instrs = Vec::new();
        let output = self.compile_node(expr, resolver, &mut instrs)?;
        Ok(CompiledExpr { instrs, output })
    }

    fn compile_node(
        &mut self,
        expr: &ScalarExpr,
        resolver: &ColumnResolver<'_>,
        instrs: &mut Vec<Instr>,
    ) -> Result<Src, OlapError> {
        Ok(match expr {
            ScalarExpr::Col(name) => Src::Num(resolver.numeric_slot(name)?),
            ScalarExpr::Literal(v) => Src::Const(self.intern(*v)),
            ScalarExpr::Add(a, b) => self.compile_bin(BinOp::Add, a, b, resolver, instrs)?,
            ScalarExpr::Sub(a, b) => self.compile_bin(BinOp::Sub, a, b, resolver, instrs)?,
            ScalarExpr::Mul(a, b) => self.compile_bin(BinOp::Mul, a, b, resolver, instrs)?,
        })
    }

    fn compile_bin(
        &mut self,
        op: BinOp,
        a: &ScalarExpr,
        b: &ScalarExpr,
        resolver: &ColumnResolver<'_>,
        instrs: &mut Vec<Instr>,
    ) -> Result<Src, OlapError> {
        let a = self.compile_node(a, resolver, instrs)?;
        let b = self.compile_node(b, resolver, instrs)?;
        let dst = self.fresh_reg();
        instrs.push(Instr { op, dst, a, b });
        Ok(Src::Reg(dst))
    }

    /// Compile a predicate list; each predicate resolves its column once.
    pub fn compile_filters(
        &mut self,
        filters: &[Predicate],
        resolver: &ColumnResolver<'_>,
    ) -> Result<Vec<CompiledPredicate>, OlapError> {
        filters
            .iter()
            .map(|p| {
                Ok(CompiledPredicate {
                    col: resolver.col_ref(&p.column)?,
                    op: p.op,
                    literal: p.literal,
                })
            })
            .collect()
    }

    /// Bind an aggregate list to its lanes (see [`Fold`]): each distinct
    /// `(fold, input)` pair is one lane, in first-use order, and its input
    /// is compiled once; `COUNT(*)` reads the count and takes no lane.
    pub fn compile_aggregates(
        &mut self,
        aggregates: &[AggExpr],
        resolver: &ColumnResolver<'_>,
    ) -> Result<CompiledAggs, OlapError> {
        let mut inputs: Vec<(Fold, &ScalarExpr)> = Vec::new();
        let mut compiled = CompiledAggs {
            lanes: Vec::new(),
            reads: Vec::with_capacity(aggregates.len()),
        };
        for agg in aggregates {
            let Some((fold, e)) = agg.lane() else {
                compiled.reads.push(None);
                continue;
            };
            let lane = match inputs.iter().position(|&(f, x)| f == fold && x.same_as(e)) {
                Some(lane) => lane,
                None => {
                    compiled.lanes.push((fold, self.compile_expr(e, resolver)?));
                    inputs.push((fold, e));
                    inputs.len() - 1
                }
            };
            compiled.reads.push(Some(lane));
        }
        Ok(compiled)
    }
}

/// One compiled filter predicate: resolved column, operator, literal.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CompiledPredicate {
    pub col: ColRef,
    pub op: CmpOp,
    pub literal: f64,
}

/// A pipeline's aggregates bound to their lanes: what a group or a scalar
/// morsel keeps is one `u64` row count plus one `f64` per lane.
#[derive(Debug, Clone)]
pub(crate) struct CompiledAggs {
    /// Each lane's fold and compiled input, in first-use order.
    pub lanes: Vec<(Fold, CompiledExpr)>,
    /// The lane each aggregate reads; `None` for `COUNT(*)`.
    pub reads: Vec<Option<usize>>,
}

impl CompiledAggs {
    /// The lanes' starting values, in lane order.
    pub fn identities(&self) -> impl Iterator<Item = f64> + '_ {
        self.lanes.iter().map(|(fold, _)| fold.identity())
    }

    /// Merge another partial's lanes into `into`, lane by lane, with the
    /// lanes' own folds.
    pub fn merge(&self, into: &mut [f64], other: &[f64]) {
        for ((acc, &v), (fold, _)) in into.iter_mut().zip(other).zip(&self.lanes) {
            *acc = fold.apply(*acc, v);
        }
    }

    /// Finalise `aggregates` (the list these lanes were bound from) from a
    /// row count and its lanes.
    pub fn finalize(&self, aggregates: &[AggExpr], count: u64, lanes: &[f64]) -> Vec<f64> {
        aggregates
            .iter()
            .zip(&self.reads)
            .map(|(agg, read)| agg.finalize(count, read.map_or(0.0, |l| lanes[l])))
            .collect()
    }
}

/// A join key compiled to its affine form `constant + Σ coefficient·column`
/// over key-loaded integer columns, evaluated in wrapping `i64` — exact over
/// the whole `i64` range, where an `f64` detour would round above 2^53.
///
/// One rule decides what a key may be: an integer column, an integral
/// literal, or `+`/`−`/`×` of those with a column-free factor in every
/// product. [`AffineKey::compile`] folds the constants at bind time, so
/// `(w·100 + d)·10⁷ + o` becomes `10⁹·w + 10⁷·d + o`: one multiply-add
/// sweep per three columns at run time, and none at all for a plain column,
/// which is read in place. A float column cannot be key-loaded (a typed
/// error when the pipeline binds its load lists); a fractional literal, a
/// product of two columns and a constant that overflows `i64` while folding
/// are typed errors here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AffineKey {
    /// The folded constant term.
    pub constant: i64,
    /// `(coefficient, key slot)` per distinct column, in the order the
    /// expression first references them. A coefficient may fold to 0.
    pub terms: Vec<(i64, u32)>,
}

impl AffineKey {
    /// Fold `expr` into its affine form over `keys`, the key load list: a
    /// term's slot is its column's position there. Every step is checked, so
    /// a folded coefficient or constant is exact or a typed error.
    pub fn compile(expr: &ScalarExpr, keys: &[String]) -> Result<Self, OlapError> {
        let fold = |e: &ScalarExpr| Self::compile(e, keys);
        Ok(match expr {
            ScalarExpr::Col(name) => {
                let slot = keys.iter().position(|c| c == name).ok_or_else(|| {
                    OlapError::MissingColumn {
                        column: name.clone(),
                    }
                })?;
                AffineKey {
                    constant: 0,
                    terms: vec![(1, slot as u32)],
                }
            }
            ScalarExpr::Literal(v) => AffineKey {
                constant: integral(*v)?,
                terms: Vec::new(),
            },
            ScalarExpr::Add(a, b) => fold(a)?.combine(fold(b)?, i64::checked_add)?,
            ScalarExpr::Sub(a, b) => fold(a)?.combine(fold(b)?, i64::checked_sub)?,
            ScalarExpr::Mul(a, b) => {
                let (a, b) = (fold(a)?, fold(b)?);
                let (factor, rest) = match (a.terms.is_empty(), b.terms.is_empty()) {
                    (true, _) => (a.constant, b),
                    (_, true) => (b.constant, a),
                    _ => {
                        return Err(OlapError::UnsupportedKey {
                            reason: "a product of two columns",
                        })
                    }
                };
                let zero = AffineKey {
                    constant: 0,
                    terms: Vec::new(),
                };
                zero.combine(rest, |_, x| x.checked_mul(factor))?
            }
        })
    }

    /// `self op other`, term by term: `op` applies to the two constants and
    /// to the two coefficients of every column (0 where a side lacks it).
    fn combine(
        mut self,
        other: AffineKey,
        op: impl Fn(i64, i64) -> Option<i64>,
    ) -> Result<Self, OlapError> {
        self.constant = checked(op(self.constant, other.constant))?;
        for (c, slot) in other.terms {
            match self.terms.iter_mut().find(|(_, s)| *s == slot) {
                Some((own, _)) => *own = checked(op(*own, c))?,
                None => self.terms.push((checked(op(0, c))?, slot)),
            }
        }
        Ok(self)
    }

    /// The key slot a plain-column key reads in place, without evaluation.
    pub fn column(&self) -> Option<u32> {
        match self.terms[..] {
            [(1, slot)] if self.constant == 0 => Some(slot),
            _ => None,
        }
    }

    /// Evaluate the key into `out` for every selected row (`None`: the
    /// dense range `0..rows`) over the key columns `column` returns; `out`
    /// grows to `rows` lanes, and rows off the selection keep whatever they
    /// held. Terms go three to a pass: each pass multiplies and adds its
    /// columns in one sweep, the first from the constant, later ones onto
    /// what the previous pass left.
    pub fn eval<'a>(
        &self,
        column: impl Fn(u32) -> &'a [i64],
        rows: usize,
        sel: Option<&[u32]>,
        out: &mut Vec<i64>,
    ) {
        if out.len() < rows {
            out.resize(rows, 0);
        }
        let out = &mut out[..rows];
        let mut init = Some(self.constant);
        for group in self.terms.chunks(3) {
            let term = |k: usize| (group[k].0, column(group[k].1));
            match group.len() {
                1 => {
                    let (c, x) = term(0);
                    madd_lanes(out, sel, init, [x], |[a]| c.wrapping_mul(a));
                }
                2 => {
                    let ((c, x), (d, y)) = (term(0), term(1));
                    madd_lanes(out, sel, init, [x, y], |[a, b]| {
                        c.wrapping_mul(a).wrapping_add(d.wrapping_mul(b))
                    });
                }
                _ => {
                    let ((c, x), (d, y), (e, z)) = (term(0), term(1), term(2));
                    madd_lanes(out, sel, init, [x, y, z], |[a, b, f]| {
                        c.wrapping_mul(a)
                            .wrapping_add(d.wrapping_mul(b))
                            .wrapping_add(e.wrapping_mul(f))
                    });
                }
            }
            init = None;
        }
        if init.is_some() {
            // No term at all: the key is the constant.
            madd_lanes(out, sel, init, [], |[]| 0);
        }
    }
}

/// The key-list slots of a tuple key's elements, each of which must be a
/// plain column (a typed error otherwise): only a plain column has the
/// storage-kept bounds a fold needs.
pub(crate) fn tuple_slots(tuple: &[ScalarExpr], keys: &[String]) -> Result<Vec<u32>, OlapError> {
    tuple
        .iter()
        .map(|element| {
            let ScalarExpr::Col(name) = element else {
                return Err(OlapError::UnsupportedKey {
                    reason: "a tuple element that is not a plain column",
                });
            };
            keys.iter()
                .position(|c| c == name)
                .map(|slot| slot as u32)
                .ok_or_else(|| OlapError::MissingColumn {
                    column: name.clone(),
                })
        })
        .collect()
}

/// The box a tuple join key folds over: per element, the smallest and
/// largest value of the build side's column (`None`: the column holds no
/// value, an empty span), read from the storage-kept bounds
/// ([`crate::ScanSource::column_bounds`]) without a pass over the rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct KeyBox {
    dims: Vec<Option<(i64, i64)>>,
}

impl KeyBox {
    /// The box of the `columns` of a tuple build over `source`.
    pub fn of(source: &crate::ScanSource, columns: &[&str]) -> Self {
        KeyBox {
            dims: columns.iter().map(|c| source.column_bounds(c)).collect(),
        }
    }

    /// Widen element `i` to cover `lo..=hi`.
    pub fn widen(&mut self, i: usize, (lo, hi): (i64, i64)) {
        let dim = &mut self.dims[i];
        *dim = Some(dim.map_or((lo, hi), |(l, h)| (l.min(lo), h.max(hi))));
    }

    /// Widen every element to cover `other`'s range too.
    pub fn union(&mut self, other: &KeyBox) {
        for (i, dim) in other.dims.iter().enumerate() {
            if let Some(range) = *dim {
                self.widen(i, range);
            }
        }
    }

    /// Element `i`'s smallest value and span (`max − min + 1`; 0 when
    /// empty), the span in `u128` so that no `i64` range overflows it.
    fn dim(&self, i: usize) -> (i64, u128) {
        self.dims[i].map_or((0, 0), |(lo, hi)| (lo, u128::from(hi.abs_diff(lo)) + 1))
    }

    /// The number of tuples the box holds, the product of the spans (0 when
    /// an element is empty): the folded keys are `0..cells`. A product past
    /// `i64::MAX` is a typed error — no `i64` fold is exact over it.
    pub fn cells(&self) -> Result<i64, OlapError> {
        if self.dims.iter().any(Option::is_none) {
            return Ok(0);
        }
        (0..self.dims.len())
            .try_fold(1u128, |acc, i| acc.checked_mul(self.dim(i).1))
            .and_then(|cells| i64::try_from(cells).ok())
            .ok_or(OlapError::UnsupportedKey {
                reason: "a tuple whose box overflows i64",
            })
    }

    /// Fold a tuple of key columns (their key-list `slots`, element for
    /// element of the box) by mixed radix, first element most significant:
    /// `Σ (c_i − min_i)·stride_i`, each stride the product of the later
    /// elements' spans — exact for every tuple inside the box, whose fold
    /// lies in `0..cells`. A tuple outside the box on any element folds to
    /// [`OUTSIDE`](kernels::OUTSIDE) (without the range check, `(w, d −
    /// span_d, o)` would fold onto `(w − 1, d, o)`). [`JoinKey::eval`] runs
    /// the fold and the checks in one pass ([`kernels::fold_tuple`]).
    pub fn fold(&self, slots: &[u32]) -> Result<JoinKey, OlapError> {
        self.cells()?;
        let mut dims = Vec::with_capacity(slots.len());
        let mut stride: i64 = 1;
        for i in (0..slots.len()).rev() {
            let (min, span) = self.dim(i);
            // Every span and partial product divides `cells`, which fits
            // i64 — or `cells` is 0, and every tuple is outside anyway.
            let span = span as u64;
            dims.push(FoldDim { min, span, stride });
            stride = stride.wrapping_mul(span as i64);
        }
        dims.reverse();
        Ok(JoinKey::Tuple {
            slots: slots.to_vec(),
            dims,
        })
    }
}

/// A join key as one pipeline evaluates it. Each kind has one evaluator:
/// a one-expression key its exact `i64` affine form ([`AffineKey::eval`]),
/// a tuple key its fused mixed-radix fold over the build's [`KeyBox`]
/// ([`kernels::fold_tuple`]), which reads each element once per row and
/// never goes through an affine form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum JoinKey {
    /// A one-expression key.
    Single(AffineKey),
    /// A folded tuple: the key slot and fold dimension of each element.
    Tuple { slots: Vec<u32>, dims: Vec<FoldDim> },
}

impl JoinKey {
    /// A one-expression key over `keys`, the key load list.
    pub fn single(expr: &ScalarExpr, keys: &[String]) -> Result<Self, OlapError> {
        Ok(JoinKey::Single(AffineKey::compile(expr, keys)?))
    }

    /// The key slot a plain-column key reads in place, without evaluation.
    pub fn column(&self) -> Option<u32> {
        match self {
            JoinKey::Single(affine) => affine.column(),
            JoinKey::Tuple { .. } => None,
        }
    }

    /// The key slots of a folded tuple's elements (none for a
    /// one-expression key).
    pub fn elements(&self) -> &[u32] {
        match self {
            JoinKey::Single(_) => &[],
            JoinKey::Tuple { slots, .. } => slots,
        }
    }

    /// Evaluate the key into `out` for every selected row (`None`: the
    /// dense range `0..rows`) over the key columns `column` returns; `out`
    /// grows to `rows` lanes, and rows off the selection keep whatever they
    /// held. Returns whether any selected row of a folded tuple was outside
    /// its box (and so [`OUTSIDE`](kernels::OUTSIDE)).
    pub fn eval<'a>(
        &self,
        column: impl Fn(u32) -> &'a [i64],
        rows: usize,
        sel: Option<&[u32]>,
        out: &mut Vec<i64>,
    ) -> bool {
        match self {
            JoinKey::Single(affine) => {
                affine.eval(column, rows, sel, out);
                false
            }
            JoinKey::Tuple { slots, dims } => {
                kernels::fold_tuple(dims, |k| column(slots[k]), rows, sel, out)
            }
        }
    }
}

/// For every selected row `i`, write `base + sum(cols[·][i])` into `out[i]`,
/// where `base` is `init` or, when that is `None`, what `out[i]` holds.
#[inline(always)]
fn madd_lanes<const N: usize>(
    out: &mut [i64],
    sel: Option<&[u32]>,
    init: Option<i64>,
    cols: [&[i64]; N],
    sum: impl Fn([i64; N]) -> i64,
) {
    match sel {
        None => {
            // A dense pass reads exactly `out.len()` lanes of every column;
            // saying so up front drops the element loop's bounds checks.
            let cols = cols.map(|c| &c[..out.len()]);
            match init {
                Some(c0) => {
                    for (i, o) in out.iter_mut().enumerate() {
                        *o = c0.wrapping_add(sum(cols.map(|c| c[i])));
                    }
                }
                None => {
                    for (i, o) in out.iter_mut().enumerate() {
                        *o = o.wrapping_add(sum(cols.map(|c| c[i])));
                    }
                }
            }
        }
        // Behind a selection the columns stay as they are: a morsel no row
        // of which survived has loaded none of them.
        Some(ids) => {
            for &i in ids {
                let i = i as usize;
                let base = init.unwrap_or(out[i]);
                out[i] = base.wrapping_add(sum(cols.map(|c| c[i])));
            }
        }
    }
}

/// A checked step of key folding: `None` (an `i64` overflow) is a typed
/// error.
fn checked(v: Option<i64>) -> Result<i64, OlapError> {
    v.ok_or(OlapError::UnsupportedKey {
        reason: "a constant that overflows i64",
    })
}

/// A key literal as an exact `i64`: integral and inside the `i64` range.
fn integral(v: f64) -> Result<i64, OlapError> {
    // 2^63 is exact in f64; every integral f64 in [-2^63, 2^63) is an i64.
    const LIMIT: f64 = 9_223_372_036_854_775_808.0;
    if v.fract() == 0.0 && (-LIMIT..LIMIT).contains(&v) {
        Ok(v as i64)
    } else {
        Err(OlapError::UnsupportedKey {
            reason: "a literal that is not an i64 integer",
        })
    }
}

/// The value view a compiled source resolves to for one morsel: a dense
/// column/register slice or a broadcast constant.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ValView<'a> {
    Slice(&'a [f64]),
    Const(f64),
}

impl ValView<'_> {
    #[inline(always)]
    pub fn get(&self, i: usize) -> f64 {
        match self {
            ValView::Slice(s) => s[i],
            ValView::Const(c) => *c,
        }
    }
}

/// Resolve a compiled source against the current morsel's data and register
/// file.
#[inline]
pub(crate) fn resolve<'a>(
    src: Src,
    data: &'a MorselData<'_>,
    regs: &'a [Vec<f64>],
    consts: &[f64],
) -> ValView<'a> {
    match src {
        Src::Num(c) => ValView::Slice(data.numeric(c as usize)),
        Src::Reg(r) => ValView::Slice(&regs[r as usize]),
        Src::Const(c) => ValView::Const(consts[c as usize]),
    }
}

/// Evaluate a compiled expression's instructions over the selected rows,
/// leaving the result reachable through [`CompiledExpr::output`]. Registers
/// are written only at selected positions (sparse evaluation): post-filter
/// operators never touch eliminated rows.
pub(crate) fn eval_expr(
    expr: &CompiledExpr,
    data: &MorselData<'_>,
    regs: &mut [Vec<f64>],
    consts: &[f64],
    rows: usize,
    sel: Option<&[u32]>,
) {
    for instr in &expr.instrs {
        // Split the register file around `dst` so the operands can read
        // sibling registers while `dst` is written.
        let (before, rest) = regs.split_at_mut(instr.dst as usize);
        // The register allocator hands out dst indices below n_regs for every
        // compiled program, so the split always finds the dst register.
        // lint:allow(no-panic): dst < regs.len() by construction in compile()
        let (dst, after) = rest.split_first_mut().expect("register allocated");
        let read = |src: Src| -> ValView<'_> {
            let lanes = match src {
                Src::Num(c) => data.numeric(c as usize),
                Src::Reg(r) if (r as usize) < before.len() => &before[r as usize],
                Src::Reg(r) => &after[r as usize - before.len() - 1],
                Src::Const(c) => return ValView::Const(consts[c as usize]),
            };
            // A dense pass reads exactly `rows` lanes of every operand;
            // saying so up front lets the element loop drop its bounds
            // checks. (Behind a selection the slice stays as it is: a morsel
            // no row of which survived has loaded none of these columns.)
            ValView::Slice(if sel.is_none() { &lanes[..rows] } else { lanes })
        };
        // The operator and the operand shapes are fixed per instruction:
        // dispatch on them once, out here, and run one monomorphised element
        // loop instead of re-matching both per lane.
        macro_rules! lanes {
            ($op:tt) => {
                match (read(instr.a), read(instr.b)) {
                    (ValView::Slice(a), ValView::Slice(b)) => {
                        write_lanes(dst, rows, sel, |i| a[i] $op b[i])
                    }
                    (ValView::Slice(a), ValView::Const(b)) => {
                        write_lanes(dst, rows, sel, |i| a[i] $op b)
                    }
                    (ValView::Const(a), ValView::Slice(b)) => {
                        write_lanes(dst, rows, sel, |i| a $op b[i])
                    }
                    (ValView::Const(a), ValView::Const(b)) => {
                        write_lanes(dst, rows, sel, |_| a $op b)
                    }
                }
            };
        }
        match instr.op {
            BinOp::Add => lanes!(+),
            BinOp::Sub => lanes!(-),
            BinOp::Mul => lanes!(*),
        }
    }
}

/// Write `lane(i)` into `dst[i]` for every selected row `i`.
#[inline(always)]
fn write_lanes(dst: &mut [f64], rows: usize, sel: Option<&[u32]>, lane: impl Fn(usize) -> f64) {
    match sel {
        None => {
            for (i, out) in dst[..rows].iter_mut().enumerate() {
                *out = lane(i);
            }
        }
        Some(ids) => {
            for &i in ids {
                dst[i as usize] = lane(i as usize);
            }
        }
    }
}

/// Apply a compiled conjunction to one morsel, producing a selection vector.
///
/// Returns `None` — the dense selection: the caller iterates the row range
/// without materialised ids and downstream operators run their dense kernels
/// — when every row survived, which includes the pipeline without filters;
/// otherwise fills `sel` with the surviving row ids. While every row is still
/// in, a predicate runs the dense chunked filter kernel over the whole
/// morsel; once one has dropped a row, the rest refine the selection in place
/// with the gather kernel (see [`crate::kernels`] — key columns compare as
/// `f64`, the same fallback the row-at-a-time oracle applies).
pub(crate) fn apply_filters<'s>(
    filters: &[CompiledPredicate],
    data: &MorselData<'_>,
    rows: usize,
    sel: &'s mut Vec<u32>,
) -> Option<&'s [u32]> {
    let mut dense = true;
    for pred in filters {
        let (op, lit) = (pred.op, pred.literal);
        match (pred.col, dense) {
            (ColRef::Num(c), true) => {
                kernels::filter_dense_f64(&data.numeric(c as usize)[..rows], op, lit, sel)
            }
            (ColRef::Key(c), true) => {
                kernels::filter_dense_i64(&data.key(c as usize)[..rows], op, lit, sel)
            }
            (ColRef::Num(c), false) => {
                kernels::filter_refine_f64(data.numeric(c as usize), op, lit, sel)
            }
            (ColRef::Key(c), false) => {
                kernels::filter_refine_i64(data.key(c as usize), op, lit, sel)
            }
        }
        dense = dense && sel.len() == rows;
    }
    if dense {
        None
    } else {
        Some(sel.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::OUTSIDE;
    use crate::scratch::ExecScratch;

    fn resolver_lists() -> (Vec<String>, Vec<String>) {
        (
            vec!["price".to_string(), "discount".into()],
            vec!["id".to_string()],
        )
    }

    fn test_data(scratch: &mut ExecScratch) {
        scratch.data.set_test_columns(
            vec![vec![10.0, 20.0, 30.0, 40.0], vec![0.1, 0.2, 0.0, 0.5]],
            vec![vec![1, 2, 3, 4]],
        );
    }

    /// Q1's five aggregates bind one lane per distinct running value:
    /// Σ`price` and Σ`discount`, each shared by a SUM and an AVG.
    #[test]
    fn aggregates_share_a_lane_per_fold_and_input() {
        let (num, keys) = resolver_lists();
        let resolver = ColumnResolver::new(&num, &keys);
        let mut pool = ProgramPool::default();
        let (p, d) = (ScalarExpr::col("price"), ScalarExpr::col("discount"));
        let aggs = [
            AggExpr::Sum(p.clone()),
            AggExpr::Sum(d.clone()),
            AggExpr::Avg(p.clone()),
            AggExpr::Avg(d.clone()),
            AggExpr::Count,
        ];
        let compiled = pool.compile_aggregates(&aggs, &resolver).unwrap();
        assert_eq!(compiled.lanes.len(), 2);
        assert_eq!(compiled.reads, [Some(0), Some(1), Some(0), Some(1), None]);
        let finals = compiled.finalize(&aggs, 4, &[10.0, 2.0]);
        assert_eq!(finals, [10.0, 2.0, 2.5, 0.5, 4.0]);
        // MIN and MAX of one input are two lanes, and so are products by
        // literals of different bits.
        let aggs = [
            AggExpr::Min(p.clone()),
            AggExpr::Max(p.clone()),
            AggExpr::Min(p.clone() * ScalarExpr::lit(0.0)),
            AggExpr::Min(p * ScalarExpr::lit(-0.0)),
        ];
        let compiled = pool.compile_aggregates(&aggs, &resolver).unwrap();
        assert_eq!(compiled.reads, [Some(0), Some(1), Some(2), Some(3)]);
        assert_eq!(
            compiled.identities().collect::<Vec<_>>()[..2],
            [f64::INFINITY, f64::NEG_INFINITY]
        );
    }

    #[test]
    fn plain_column_compiles_to_zero_instructions() {
        let (num, keys) = resolver_lists();
        let resolver = ColumnResolver::new(&num, &keys);
        let mut pool = ProgramPool::default();
        let compiled = pool
            .compile_expr(&ScalarExpr::col("price"), &resolver)
            .unwrap();
        assert!(compiled.instrs.is_empty());
        assert_eq!(compiled.output, Src::Num(0));
        assert_eq!(pool.n_regs, 0);
    }

    #[test]
    fn compiled_expression_matches_interpreter() {
        let (num, keys) = resolver_lists();
        let resolver = ColumnResolver::new(&num, &keys);
        let mut pool = ProgramPool::default();
        let expr = ScalarExpr::col("price") * (ScalarExpr::lit(1.0) - ScalarExpr::col("discount"));
        let compiled = pool.compile_expr(&expr, &resolver).unwrap();
        let mut scratch = ExecScratch::new(pool.n_regs as usize);
        test_data(&mut scratch);
        scratch.ensure_regs(4);
        eval_expr(
            &compiled,
            &scratch.data,
            &mut scratch.regs,
            &pool.consts,
            4,
            None,
        );
        let out = resolve(compiled.output, &scratch.data, &scratch.regs, &pool.consts);
        let got: Vec<f64> = (0..4).map(|i| out.get(i)).collect();
        assert_eq!(got, vec![9.0, 16.0, 30.0, 20.0]);
    }

    #[test]
    fn sparse_evaluation_only_touches_selected_rows() {
        let (num, keys) = resolver_lists();
        let resolver = ColumnResolver::new(&num, &keys);
        let mut pool = ProgramPool::default();
        let expr = ScalarExpr::col("price") + ScalarExpr::lit(1.0);
        let compiled = pool.compile_expr(&expr, &resolver).unwrap();
        let mut scratch = ExecScratch::new(pool.n_regs as usize);
        test_data(&mut scratch);
        scratch.ensure_regs(4);
        // Poison the register, then evaluate rows {1, 3} only.
        scratch.regs[0].iter_mut().for_each(|v| *v = f64::NAN);
        eval_expr(
            &compiled,
            &scratch.data,
            &mut scratch.regs,
            &pool.consts,
            4,
            Some(&[1, 3]),
        );
        assert_eq!(scratch.regs[0][1], 21.0);
        assert_eq!(scratch.regs[0][3], 41.0);
        assert!(scratch.regs[0][0].is_nan() && scratch.regs[0][2].is_nan());
    }

    #[test]
    fn filters_compact_selection_vectors() {
        let (num, keys) = resolver_lists();
        let resolver = ColumnResolver::new(&num, &keys);
        let mut pool = ProgramPool::default();
        let filters = pool
            .compile_filters(
                &[
                    Predicate::new("price", CmpOp::Ge, 20.0),
                    Predicate::new("id", CmpOp::Le, 3.0),
                ],
                &resolver,
            )
            .unwrap();
        let mut scratch = ExecScratch::new(0);
        test_data(&mut scratch);
        let sel = apply_filters(&filters, &scratch.data, 4, &mut scratch.sel).unwrap();
        assert_eq!(sel, &[1, 2]);
        // Empty filter list means dense iteration (no selection vector).
        assert!(apply_filters(&[], &scratch.data, 4, &mut scratch.sel).is_none());
    }

    #[test]
    fn unknown_columns_fail_at_compile_time() {
        let (num, keys) = resolver_lists();
        let resolver = ColumnResolver::new(&num, &keys);
        let mut pool = ProgramPool::default();
        assert_eq!(
            pool.compile_expr(&ScalarExpr::col("ghost"), &resolver)
                .unwrap_err(),
            OlapError::MissingColumn {
                column: "ghost".into()
            }
        );
        assert!(pool
            .compile_filters(&[Predicate::new("ghost", CmpOp::Lt, 0.0)], &resolver)
            .is_err());
    }

    #[test]
    fn key_compilation_prefers_the_exact_path() {
        let keys = vec!["id".to_string(), "w".into(), "d".into()];
        let compile = |e: &ScalarExpr| AffineKey::compile(e, &keys);
        let (col, lit) = (ScalarExpr::col, ScalarExpr::lit);
        // A plain key column is read in place.
        let plain = compile(&col("id")).unwrap();
        assert_eq!(plain.column(), Some(0));
        // Constants fold at bind: (w·100 + d)·10⁷ + id = 10⁹·w + 10⁷·d + id.
        let ch = compile(&((col("w") * lit(100.0) + col("d")) * lit(1e7) + col("id"))).unwrap();
        assert_eq!(
            ch,
            AffineKey {
                constant: 0,
                terms: vec![(1_000_000_000, 1), (10_000_000, 2), (1, 0)],
            }
        );
        assert_eq!(ch.column(), None);
        // Repeated columns merge; `−` negates; constant-only keys fold whole.
        let folded = compile(&(lit(3.0) - col("w") * lit(2.0) + col("w") - lit(1.0))).unwrap();
        assert_eq!(folded.terms, vec![(-1, 1)]);
        assert_eq!(folded.constant, 2);
        assert!(compile(&(lit(6.0) * lit(7.0))).unwrap().terms.is_empty());
        // Anything else is a typed error, not a silent truncation.
        let unsupported = |reason| Err(OlapError::UnsupportedKey { reason });
        assert_eq!(
            compile(&(col("id") * lit(2.5))),
            unsupported("a literal that is not an i64 integer")
        );
        assert_eq!(
            compile(&(col("w") * col("d"))),
            unsupported("a product of two columns")
        );
        assert_eq!(
            compile(&(col("w") * lit(4e18) * lit(4.0))),
            unsupported("a constant that overflows i64")
        );
        // A column off the key list (a float column never gets on it).
        assert_eq!(
            compile(&(col("price") * lit(2.0))),
            Err(OlapError::MissingColumn {
                column: "price".into()
            })
        );
    }

    #[test]
    fn affine_keys_evaluate_dense_and_gathered() {
        let keys = vec!["w".to_string(), "o".into()];
        let (col, lit) = (ScalarExpr::col, ScalarExpr::lit);
        let key = AffineKey::compile(&(col("w") * lit(1e7) + col("o") - lit(1.0)), &keys).unwrap();
        let (w, o) = ([1i64, 2, 3, 4], [5i64, 6, 7, i64::MAX]);
        let column = |s: u32| if s == 0 { &w[..] } else { &o[..] };
        let mut out = Vec::new();
        key.eval(column, 4, None, &mut out);
        let want = |i: usize| (w[i] * 10_000_000).wrapping_add(o[i]) - 1;
        assert_eq!(out, (0..4).map(want).collect::<Vec<_>>());
        out.fill(-7);
        key.eval(column, 4, Some(&[1, 3]), &mut out);
        assert_eq!(out, vec![-7, want(1), -7, want(3)]);
    }

    /// A tuple folds by mixed radix over its box, first element most
    /// significant; a tuple outside the box on any one element — here one
    /// below `d`'s minimum, whose fold alone would land on `(w − 1, d_max,
    /// o)` — evaluates to OUTSIDE, and an empty element or a box past `i64`
    /// is no fold at all.
    #[test]
    fn tuples_fold_over_their_box_and_nothing_aliases() {
        let boxed = KeyBox {
            dims: vec![Some((-3, 2)), Some((1, 10)), Some((-5, 20))],
        };
        assert_eq!(boxed.cells(), Ok(6 * 10 * 26));
        let key = boxed.fold(&[0, 1, 2]).unwrap();
        let dim = |min, span, stride| FoldDim { min, span, stride };
        let JoinKey::Tuple { slots, dims } = &key else {
            unreachable!("a tuple folds to a tuple key");
        };
        assert_eq!(slots, &[0, 1, 2]);
        assert_eq!(dims, &[dim(-3, 6, 260), dim(1, 10, 26), dim(-5, 26, 1)]);
        assert_eq!(key.column(), None);
        let (w, d, o) = (
            [-3i64, 2, 0, -1, 3],
            [1i64, 10, 0, 10, 1],
            [-5i64, 20, 5, 5, 1],
        );
        let column = |s: u32| match s {
            0 => &w[..],
            1 => &d[..],
            _ => &o[..],
        };
        let mut out = Vec::new();
        assert!(key.eval(column, 5, None, &mut out));
        assert_eq!(out, vec![0, 1_559, OUTSIDE, 2 * 260 + 9 * 26 + 10, OUTSIDE]);
        // Behind a selection only the selected rows are written.
        out.fill(7);
        assert!(!key.eval(column, 5, Some(&[0, 3]), &mut out));
        assert_eq!(out, vec![0, 7, 7, 2 * 260 + 9 * 26 + 10, 7]);
        // An element that repeats a column reads it once per element and
        // checks it against both ranges: only `w = 2` lies in both.
        let twice = boxed.fold(&[0, 0, 2]).unwrap();
        assert_eq!(twice.elements(), &[0, 0, 2]);
        assert!(twice.eval(column, 5, None, &mut out));
        let inside = 5 * 260 + 26 + 25;
        assert_eq!(out, vec![OUTSIDE, inside, OUTSIDE, OUTSIDE, OUTSIDE]);
        // An empty element: nothing is inside.
        let empty = KeyBox {
            dims: vec![Some((0, 9)), None],
        };
        assert_eq!(empty.cells(), Ok(0));
        assert!(empty.fold(&[0, 1]).unwrap().eval(column, 1, None, &mut out));
        assert_eq!(out[0], OUTSIDE);
        // A box of 2^41 · 2^31 tuples has no exact i64 fold.
        let wide = KeyBox {
            dims: vec![Some((0, 1 << 41)), Some((-(1 << 30), 1 << 30))],
        };
        let overflow = OlapError::UnsupportedKey {
            reason: "a tuple whose box overflows i64",
        };
        assert_eq!(wide.cells().unwrap_err(), overflow);
        assert_eq!(wide.fold(&[0, 1]).unwrap_err(), overflow);
        let mut widened = boxed.clone();
        widened.widen(2, (500, 500));
        widened.union(&empty);
        assert_eq!(
            widened.dims,
            vec![Some((-3, 9)), Some((1, 10)), Some((-5, 500))]
        );
    }

    #[test]
    fn constants_are_interned_once() {
        let (num, keys) = resolver_lists();
        let resolver = ColumnResolver::new(&num, &keys);
        let mut pool = ProgramPool::default();
        let e = ScalarExpr::col("price") * ScalarExpr::lit(2.0)
            + ScalarExpr::col("discount") * ScalarExpr::lit(2.0);
        pool.compile_expr(&e, &resolver).unwrap();
        assert_eq!(pool.consts, vec![2.0]);
    }
}
