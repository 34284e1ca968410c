//! Property coverage for the chunked kernels: on adversarial inputs —
//! NaN/±INF/±0.0 in filter comparisons and folds, `i64` keys at ±2^53 and
//! `i64::MIN`/`i64::MAX`, selection vectors with ragged tails shorter than
//! one chunk — every chunked kernel must agree **bit for bit** with its
//! scalar twin. Folds are compared through the bits of the running value,
//! so any divergence (including `-0.0` vs `0.0` or a NaN's payload) fails.
//!
//! The join table rides along: its branch-free survivor compaction is held
//! to its scalar twin the same way, for both kinds, and the table itself to
//! a `BTreeMap` model over random capacity hints, direct ranges and
//! `add`/`union`/`merge` sequences.
//! So do computed join keys: their folded affine form, evaluated dense and
//! behind a selection, is held to the expression tree evaluated in `i128`;
//! and tuple keys: their fused mixed-radix fold is held to the unfused
//! scalar twin (affine pass, then one range check per element) on boxes of
//! 2–5 elements with spans of 1 and 0, mins at the edges of `i64`, values
//! one past each edge and columns repeated in the tuple.

use htap_olap::expr::{CmpOp, Fold, ScalarExpr};
use htap_olap::kernels::{self, FoldDim};
use htap_olap::{AffineKey, GroupTable, JoinTable, OlapError};
use proptest::prelude::*;
use proptest::strategy::Union;
use std::collections::BTreeMap;

/// Adversarial `f64`s: ordinary values plus the IEEE specials the
/// comparison and fold semantics are sensitive to.
fn adv_f64() -> Union<f64> {
    prop_oneof![
        8 => -100.0f64..100.0,
        1 => Just(f64::NAN),
        1 => Just(f64::INFINITY),
        1 => Just(f64::NEG_INFINITY),
        1 => Just(0.0f64),
        1 => Just(-0.0f64),
        1 => Just(1e308f64),
        1 => Just(-1e308f64),
        1 => Just((1i64 << 53) as f64),
    ]
}

/// Adversarial `i64` keys: small values plus the boundaries where the
/// `as f64` comparison cast loses exactness and where the multiplicative
/// hash sees extreme bit patterns.
fn adv_i64() -> Union<i64> {
    prop_oneof![
        6 => -1000i64..1000,
        1 => Just(1i64 << 53),
        1 => Just(-(1i64 << 53)),
        1 => Just((1i64 << 53) + 1),
        1 => Just(i64::MIN),
        1 => Just(i64::MAX),
        1 => any::<i64>(),
    ]
}

fn cmp_op() -> Union<CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ]
}

/// Selection over `n` rows from a boolean mask (ragged lengths included:
/// `n` runs 0..35, so tails shorter than one 8-lane chunk are routine).
fn selection(mask: &[bool], n: usize) -> Vec<u32> {
    (0..n.min(mask.len()))
        .filter(|&i| mask[i])
        .map(|i| i as u32)
        .collect()
}

/// Join keys for the model test: a narrow band (so sequences revisit keys
/// and `union` operands overlap), a wide spread that crosses several table
/// growths, and the values an "index + 1" or "key 0 = empty" encoding would
/// confuse with an empty slot.
fn join_key() -> Union<i64> {
    prop_oneof![
        4 => -20i64..20,
        4 => -5_000i64..5_000,
        1 => Just(0i64),
        1 => Just(i64::MIN),
        1 => Just(i64::MAX),
        1 => any::<i64>(),
    ]
}

/// Capacity hints for the model test: none, ones far below the up to 400
/// keys of a sequence (so the table still grows), and ones above them.
fn capacity_hint() -> Union<usize> {
    prop_oneof![
        1 => Just(0usize),
        2 => 1usize..40,
        2 => 0usize..1_000,
    ]
}

/// Build a table and its model from `(key, weight)` inserts into a table
/// created `with_capacity(capacity)` — a hint that may be 0, too small for
/// the keys (the table then grows) or larger than they need — or, with
/// `direct`, into a direct table over `-20..=19`, which the narrow keys
/// hit and any other key re-seats into the hashed kind.
fn table_and_model(
    capacity: usize,
    direct: bool,
    adds: &[(i64, u64)],
) -> (JoinTable, BTreeMap<i64, u64>) {
    let mut table = if direct {
        JoinTable::direct(-20, 19)
    } else {
        JoinTable::with_capacity(capacity)
    };
    let mut model = BTreeMap::new();
    for &(k, w) in adds {
        table.add(k, w);
        if w > 0 {
            *model.entry(k).or_insert(0) += w;
        }
    }
    (table, model)
}

/// `table` holds exactly `model`: weights of present and absent keys,
/// distinct-key count, uniqueness, and the pairs `iter` yields.
fn assert_table_is(table: &JoinTable, model: &BTreeMap<i64, u64>, probes: &[i64]) {
    let extremes = [0, -1, 1, i64::MIN, i64::MAX];
    for &k in model.keys().chain(probes).chain(&extremes) {
        let expected = model.get(&k).copied().unwrap_or(0);
        assert_eq!(table.weight(k), expected, "weight of {k}");
    }
    assert_eq!(table.len(), model.len(), "len = distinct keys");
    assert_eq!(table.is_empty(), model.is_empty());
    let max_weight = model.values().copied().max().unwrap_or(0);
    assert_eq!(
        table.unique(),
        max_weight <= 1,
        "unique <=> max weight <= 1"
    );
    let pairs: BTreeMap<i64, u64> = table.iter().collect();
    assert_eq!(&pairs, model, "iter yields every pair once");
}

/// One growth step of a random join-key expression; every step keeps the
/// key rule (a column-free factor in every product). `Scale(0)` and
/// `SubCol` of a column already present fold coefficients to 0; `Sub` and
/// `RevSub` fold negative ones.
#[derive(Debug, Clone)]
enum KeyStep {
    AddCol(usize),
    SubCol(usize),
    AddLit(i64),
    /// `lit − tree`.
    RevSub(i64),
    /// `tree × lit`.
    Scale(i64),
    /// `(lit − lit) × tree`: a column-free subtree as the factor.
    ScaleBy(i64, i64),
}

/// Key literals: small integers (0 and ±1 included), and large powers of
/// two that are exact in `f64` but push folding towards `i64` overflow.
fn key_lit() -> Union<i64> {
    prop_oneof![
        6 => -1_000i64..1_000,
        1 => Just(0i64),
        1 => Just(-1i64),
        1 => (20u32..63).prop_map(|e| 1i64 << e),
        1 => (20u32..63).prop_map(|e| -(1i64 << e)),
    ]
}

fn key_step() -> Union<KeyStep> {
    prop_oneof![
        2 => (0usize..3).prop_map(KeyStep::AddCol),
        2 => (0usize..3).prop_map(KeyStep::SubCol),
        1 => key_lit().prop_map(KeyStep::AddLit),
        1 => key_lit().prop_map(KeyStep::RevSub),
        2 => key_lit().prop_map(KeyStep::Scale),
        1 => (key_lit(), key_lit()).prop_map(|(a, b)| KeyStep::ScaleBy(a, b)),
    ]
}

const KEY_COLS: [&str; 3] = ["a", "b", "c"];

/// Grow a key expression from a leaf (a column, or a literal: then the key
/// may stay constant-only) through `steps`.
fn key_expr(leaf: Option<usize>, leaf_lit: i64, steps: &[KeyStep]) -> ScalarExpr {
    let col = |c: usize| ScalarExpr::col(KEY_COLS[c]);
    let lit = |v: i64| ScalarExpr::lit(v as f64);
    let mut e = leaf.map_or_else(|| lit(leaf_lit), col);
    for step in steps {
        e = match *step {
            KeyStep::AddCol(c) => e + col(c),
            KeyStep::SubCol(c) => e - col(c),
            KeyStep::AddLit(v) => e + lit(v),
            KeyStep::RevSub(v) => lit(v) - e,
            KeyStep::Scale(v) => e * lit(v),
            KeyStep::ScaleBy(a, b) => (lit(a) - lit(b)) * e,
        };
    }
    e
}

/// The expression tree at one row in `i128`, wrapping: wrapped to `i64` at
/// the end this is the key modulo 2^64, what wrapping `i64` evaluation of
/// any form of the key must produce.
fn tree_wrapping(e: &ScalarExpr, row: &[i64; 3]) -> i128 {
    match e {
        ScalarExpr::Col(name) => row[KEY_COLS.iter().position(|c| c == name).unwrap()] as i128,
        ScalarExpr::Literal(v) => *v as i64 as i128,
        ScalarExpr::Add(a, b) => tree_wrapping(a, row).wrapping_add(tree_wrapping(b, row)),
        ScalarExpr::Sub(a, b) => tree_wrapping(a, row).wrapping_sub(tree_wrapping(b, row)),
        ScalarExpr::Mul(a, b) => tree_wrapping(a, row).wrapping_mul(tree_wrapping(b, row)),
    }
}

/// The expression tree at one row in exact `i128`, `None` when a step
/// leaves `i128`.
fn tree_exact(e: &ScalarExpr, row: &[i64; 3]) -> Option<i128> {
    let pair = |a, b| Some((tree_exact(a, row)?, tree_exact(b, row)?));
    match e {
        ScalarExpr::Col(_) | ScalarExpr::Literal(_) => Some(tree_wrapping(e, row)),
        ScalarExpr::Add(a, b) => pair(a, b).and_then(|(x, y)| x.checked_add(y)),
        ScalarExpr::Sub(a, b) => pair(a, b).and_then(|(x, y)| x.checked_sub(y)),
        ScalarExpr::Mul(a, b) => pair(a, b).and_then(|(x, y)| x.checked_mul(y)),
    }
}

/// Smallest values of a tuple fold's element ranges: small ones and the
/// edges of `i64`.
fn fold_min() -> Union<i64> {
    prop_oneof![
        4 => -1_000i64..1_000,
        1 => Just(i64::MIN),
        1 => Just(i64::MAX),
        1 => any::<i64>(),
    ]
}

/// Spans of a tuple fold's element ranges: 1, 0 (an empty range: every
/// tuple is outside), small and wide ones.
fn fold_span() -> Union<u64> {
    prop_oneof![
        2 => Just(1u64),
        1 => Just(0u64),
        4 => 2u64..40,
        1 => 1u64..(1 << 40),
    ]
}

/// The fold dimensions of a box given as `(min, span)` per element, first
/// element most significant. Each span is clamped so that its range stays
/// inside `i64` and the box's cell count fits `i64` — what a fold requires
/// (a wider box is a typed error before any key is folded) — and each
/// stride is the product of the later spans.
fn fold_dims(ranges: &[(i64, u64)]) -> Vec<FoldDim> {
    let mut cells: u128 = 1;
    let spans: Vec<u64> = ranges
        .iter()
        .map(|&(min, span)| {
            let room = (i128::from(i64::MAX) - i128::from(min) + 1) as u128;
            let mut span = u128::from(span).min(room);
            if cells * span > i64::MAX as u128 {
                span = 1;
            }
            cells *= span;
            span as u64
        })
        .collect();
    let mut stride = 1i64;
    let mut dims: Vec<FoldDim> = ranges
        .iter()
        .zip(&spans)
        .rev()
        .map(|(&(min, _), &span)| {
            let dim = FoldDim { min, span, stride };
            stride = stride.wrapping_mul(span as i64);
            dim
        })
        .collect();
    dims.reverse();
    dims
}

/// A key value placed against one element's range: one below it, one past
/// it, anywhere (`r`), or inside it — its ends included.
fn near(dim: FoldDim, kind: u8, r: i64) -> i64 {
    let last = dim.min.wrapping_add(dim.span as i64).wrapping_sub(1);
    match (kind, dim.span) {
        (0, _) => dim.min.wrapping_sub(1),
        (1, _) => last.wrapping_add(1),
        (2, _) | (_, 0) => r,
        (3, _) => dim.min,
        (4, _) => last,
        _ => dim.min.wrapping_add((r as u64 % dim.span) as i64),
    }
}

proptest! {
    #[test]
    fn dense_f64_filter_matches_scalar(
        vals in prop::collection::vec(adv_f64(), 0..35),
        op in cmp_op(),
        lit in adv_f64(),
    ) {
        let mut chunked = Vec::new();
        let mut scalar = Vec::new();
        kernels::filter_dense_f64(&vals, op, lit, &mut chunked);
        kernels::filter_dense_f64_scalar(&vals, op, lit, &mut scalar);
        prop_assert_eq!(chunked, scalar);
    }

    #[test]
    fn dense_i64_filter_matches_scalar(
        keys in prop::collection::vec(adv_i64(), 0..35),
        op in cmp_op(),
        lit in adv_f64(),
    ) {
        let mut chunked = Vec::new();
        let mut scalar = Vec::new();
        kernels::filter_dense_i64(&keys, op, lit, &mut chunked);
        kernels::filter_dense_i64_scalar(&keys, op, lit, &mut scalar);
        prop_assert_eq!(chunked, scalar);
    }

    #[test]
    fn refine_filters_match_scalar(
        vals in prop::collection::vec(adv_f64(), 0..35),
        keys in prop::collection::vec(adv_i64(), 0..35),
        mask in prop::collection::vec(prop::bool::ANY, 0..35),
        op in cmp_op(),
        lit in adv_f64(),
    ) {
        let mut chunked = selection(&mask, vals.len());
        let mut scalar = chunked.clone();
        kernels::filter_refine_f64(&vals, op, lit, &mut chunked);
        kernels::filter_refine_f64_scalar(&vals, op, lit, &mut scalar);
        prop_assert_eq!(&chunked, &scalar);

        let mut chunked = selection(&mask, keys.len());
        let mut scalar = chunked.clone();
        kernels::filter_refine_i64(&keys, op, lit, &mut chunked);
        kernels::filter_refine_i64_scalar(&keys, op, lit, &mut scalar);
        prop_assert_eq!(&chunked, &scalar);
    }

    #[test]
    fn hash_kernels_match_scalar(
        pairs in prop::collection::vec((adv_i64(), adv_i64()), 0..35),
        mask in prop::collection::vec(prop::bool::ANY, 0..35),
    ) {
        let k0: Vec<i64> = pairs.iter().map(|&(a, _)| a).collect();
        let k1: Vec<i64> = pairs.iter().map(|&(_, b)| b).collect();
        let sel = selection(&mask, k0.len());

        let (mut chunked, mut scalar) = (Vec::new(), Vec::new());
        kernels::hash1_dense(&k0, &mut chunked);
        kernels::hash1_dense_scalar(&k0, &mut scalar);
        prop_assert_eq!(&chunked, &scalar);

        kernels::hash1_gather(&k0, &sel, &mut chunked);
        kernels::hash1_gather_scalar(&k0, &sel, &mut scalar);
        prop_assert_eq!(&chunked, &scalar);

        prop_assert_eq!(kernels::min_max_dense(&k0), kernels::min_max_dense_scalar(&k0));
        prop_assert_eq!(
            kernels::min_max_gather(&k0, &sel),
            kernels::min_max_gather_scalar(&k0, &sel)
        );

        kernels::hash2_dense(&k0, &k1, &mut chunked);
        kernels::hash2_dense_scalar(&k0, &k1, &mut scalar);
        prop_assert_eq!(&chunked, &scalar);

        kernels::hash2_gather(&k0, &k1, &sel, &mut chunked);
        kernels::hash2_gather_scalar(&k0, &k1, &sel, &mut scalar);
        prop_assert_eq!(&chunked, &scalar);
    }

    #[test]
    fn fold_kernels_match_scalar(
        vals in prop::collection::vec(adv_f64(), 0..35),
        mask in prop::collection::vec(prop::bool::ANY, 0..35),
    ) {
        let sel = selection(&mask, vals.len());
        let all: Vec<u32> = (0..vals.len() as u32).collect();
        for fold in [Fold::Add, Fold::Min, Fold::Max] {
            let (mut a, mut b) = (fold.identity(), fold.identity());
            kernels::fold_dense(fold, &mut a, &vals);
            kernels::fold_gather_scalar(fold, &mut b, &vals, &all);
            prop_assert_eq!(a.to_bits(), b.to_bits(), "{:?} dense", fold);
            let (mut a, mut b) = (fold.identity(), fold.identity());
            kernels::fold_gather(fold, &mut a, &vals, &sel);
            kernels::fold_gather_scalar(fold, &mut b, &vals, &sel);
            prop_assert_eq!(a.to_bits(), b.to_bits(), "{:?} gather", fold);
        }
    }

    /// The grouped sink upserts with the batch kernels' hashes, and the
    /// table requires each to be `hash_key` of its key: for any keys and
    /// selection, every one- and two-column batch hash is, and a table fed
    /// those hashes (across mid-stream growth) assigns the same groups as
    /// one fed `hash_key`.
    #[test]
    fn prehashed_group_table_matches_plain_upserts(
        pairs in prop::collection::vec((adv_i64(), adv_i64()), 0..200),
        mask in prop::collection::vec(prop::bool::ANY, 0..200),
    ) {
        let k0: Vec<i64> = pairs.iter().map(|&(a, _)| a).collect();
        let k1: Vec<i64> = pairs.iter().map(|&(_, b)| b).collect();
        let sel = selection(&mask, k0.len());
        let mut hashes = Vec::new();
        kernels::hash1_dense(&k0, &mut hashes);
        for (i, &h) in hashes.iter().enumerate() {
            prop_assert_eq!(h, kernels::hash_key(&[k0[i]]));
        }
        let mut plain = GroupTable::default();
        plain.configure(1, [0.0]);
        let mut pre = GroupTable::default();
        pre.configure(1, [0.0]);
        for (&k, &h) in k0.iter().zip(&hashes) {
            prop_assert_eq!(
                plain.upsert_prehashed(kernels::hash_key(&[k]), &[k]),
                pre.upsert_prehashed(h, &[k])
            );
        }
        prop_assert_eq!(plain.keys_flat(), pre.keys_flat());
        prop_assert_eq!(plain.hashes_flat(), pre.hashes_flat());
        kernels::hash1_gather(&k0, &sel, &mut hashes);
        for (&i, &h) in sel.iter().zip(&hashes) {
            prop_assert_eq!(h, kernels::hash_key(&[k0[i as usize]]));
        }
        kernels::hash2_dense(&k0, &k1, &mut hashes);
        for (i, &h) in hashes.iter().enumerate() {
            prop_assert_eq!(h, kernels::hash_key(&[k0[i], k1[i]]));
        }
        kernels::hash2_gather(&k0, &k1, &sel, &mut hashes);
        for (&i, &h) in sel.iter().zip(&hashes) {
            let i = i as usize;
            prop_assert_eq!(h, kernels::hash_key(&[k0[i], k1[i]]));
        }
    }

    /// The kernels size their output with a `resize` that zero-fills only
    /// growth, so the buffer arrives holding the previous morsel's values:
    /// whatever it holds, and however long it is, the result must be the
    /// scalar twin's.
    #[test]
    fn dirty_output_buffers_do_not_leak_into_results(
        pairs in prop::collection::vec((adv_i64(), adv_i64()), 0..35),
        vals in prop::collection::vec(adv_f64(), 0..35),
        mask in prop::collection::vec(prop::bool::ANY, 0..35),
        poison_len in 0usize..80,
        op in cmp_op(),
        lit in adv_f64(),
    ) {
        let k0: Vec<i64> = pairs.iter().map(|&(a, _)| a).collect();
        let k1: Vec<i64> = pairs.iter().map(|&(_, b)| b).collect();
        let sel = selection(&mask, k0.len());
        let dirty_hashes = || vec![0xDEAD_BEEF_DEAD_BEEFu64; poison_len];
        let dirty_sel = || vec![u32::MAX; poison_len];
        let mut scalar = Vec::new();

        let mut out = dirty_hashes();
        kernels::hash1_dense(&k0, &mut out);
        kernels::hash1_dense_scalar(&k0, &mut scalar);
        prop_assert_eq!(&out, &scalar);

        let mut out = dirty_hashes();
        kernels::hash1_gather(&k0, &sel, &mut out);
        kernels::hash1_gather_scalar(&k0, &sel, &mut scalar);
        prop_assert_eq!(&out, &scalar);

        let mut out = dirty_hashes();
        kernels::hash2_dense(&k0, &k1, &mut out);
        kernels::hash2_dense_scalar(&k0, &k1, &mut scalar);
        prop_assert_eq!(&out, &scalar);

        let mut out = dirty_hashes();
        kernels::hash2_gather(&k0, &k1, &sel, &mut out);
        kernels::hash2_gather_scalar(&k0, &k1, &sel, &mut scalar);
        prop_assert_eq!(&out, &scalar);

        let mut scalar = Vec::new();
        let mut out = dirty_sel();
        kernels::filter_dense_f64(&vals, op, lit, &mut out);
        kernels::filter_dense_f64_scalar(&vals, op, lit, &mut scalar);
        prop_assert_eq!(&out, &scalar);

        let mut out = dirty_sel();
        kernels::filter_dense_i64(&k0, op, lit, &mut out);
        kernels::filter_dense_i64_scalar(&k0, op, lit, &mut scalar);
        prop_assert_eq!(&out, &scalar);
    }

    /// The probe's branch-free survivor compaction against its scalar twin:
    /// dense and behind a selection, over an empty table, a sparse one and
    /// one that has grown, with absent keys in the mix and a dirty output
    /// buffer.
    #[test]
    fn join_probe_compaction_matches_scalar(
        build in prop::collection::vec(join_key(), 0..120),
        probe in prop::collection::vec(join_key(), 0..35),
        mask in prop::collection::vec(prop::bool::ANY, 0..35),
        poison_len in 0usize..80,
    ) {
        let mut hashed = JoinTable::new();
        for &k in &build {
            hashed.add(k, 1);
        }
        // The same keys in a direct table, when their span allows one.
        let range = build.iter().min().zip(build.iter().max());
        let direct = range
            .filter(|&(&lo, &hi)| JoinTable::direct_fits(lo, hi, build.len()))
            .map(|(&lo, &hi)| {
                let mut table = JoinTable::direct(lo, hi);
                table.extend(build.iter().map(|&k| (k, 1)));
                table
            });
        // Half the probe keys are drawn from the build side, so hits and
        // misses both occur whatever the key strategy produced.
        let keys: Vec<i64> = probe
            .iter()
            .enumerate()
            .map(|(i, &k)| if i % 2 == 0 || build.is_empty() { k } else { build[i % build.len()] })
            .collect();
        let sel = selection(&mask, keys.len());
        let (mut hashes, mut scalar) = (Vec::new(), Vec::new());
        for table in std::iter::once(&hashed).chain(&direct) {
            prop_assert_eq!(table.is_direct(), !std::ptr::eq(table, &hashed));
            let mut out = vec![u32::MAX; poison_len];
            table.select(&keys, None, &mut hashes, &mut out);
            table.select_scalar(&keys, None, &mut scalar);
            prop_assert_eq!(&out, &scalar);
            let expected: Vec<u32> = (0..keys.len() as u32)
                .filter(|&i| build.contains(&keys[i as usize]))
                .collect();
            prop_assert_eq!(&out, &expected);

            let mut out = vec![u32::MAX; poison_len];
            table.select(&keys, Some(&sel), &mut hashes, &mut out);
            table.select_scalar(&keys, Some(&sel), &mut scalar);
            prop_assert_eq!(&out, &scalar);
            let expected: Vec<u32> = sel
                .iter()
                .copied()
                .filter(|&i| build.contains(&keys[i as usize]))
                .collect();
            prop_assert_eq!(&out, &expected);
        }
    }

    /// The join table against a `BTreeMap<i64, u64>` model: random `add`
    /// sequences long enough to cross several growths (zero-weight adds are
    /// no-ops) into tables presized by a random hint or direct over a narrow
    /// range (re-seated by the first key outside it), then `union` in both
    /// directions and the per-worker `merge` — the resulting weights are the
    /// same whichever table receives the other, whatever the kinds.
    #[test]
    fn join_table_matches_a_btreemap_model(
        caps in (capacity_hint(), capacity_hint()),
        direct in (prop::bool::ANY, prop::bool::ANY),
        left in prop::collection::vec((join_key(), 0u64..4), 0..400),
        right in prop::collection::vec((join_key(), 0u64..4), 0..400),
        probes in prop::collection::vec(join_key(), 0..40),
    ) {
        let (a, model_a) = table_and_model(caps.0, direct.0, &left);
        let (b, model_b) = table_and_model(caps.1, direct.1, &right);
        assert_table_is(&a, &model_a, &probes);
        assert_table_is(&b, &model_b, &probes);

        let mut model_ab = model_a.clone();
        for (&k, &w) in &model_b {
            *model_ab.entry(k).or_insert(0) += w;
        }
        let mut ab = a.clone();
        ab.union(&b);
        let mut ba = b.clone();
        ba.union(&a);
        assert_table_is(&ab, &model_ab, &probes);
        assert_table_is(&ba, &model_ab, &probes);
        let merged = JoinTable::merge(vec![a.clone(), b.clone()]);
        assert_table_is(&merged, &model_ab, &probes);
        // The operands are untouched, and a union with the empty table
        // changes nothing in either direction.
        assert_table_is(&b, &model_b, &probes);
        let mut empty = JoinTable::new();
        empty.union(&a);
        assert_table_is(&empty, &model_a, &probes);
        let mut same = a.clone();
        same.union(&JoinTable::new());
        assert_table_is(&same, &model_a, &probes);
    }

    /// Per-worker partials of a direct build — direct tables over one range,
    /// every key in it — merge by an element-wise sum into a direct table
    /// that holds the summed model.
    #[test]
    fn direct_partials_merge_by_sum(
        partials in prop::collection::vec(
            prop::collection::vec((-20i64..20, 0u64..4), 0..120),
            1..5,
        ),
        probes in prop::collection::vec(join_key(), 0..40),
    ) {
        let mut model = BTreeMap::new();
        let tables: Vec<JoinTable> = partials
            .iter()
            .map(|adds| {
                let mut table = JoinTable::direct(-20, 19);
                table.extend(adds.iter().copied());
                for &(k, w) in adds.iter().filter(|&&(_, w)| w > 0) {
                    *model.entry(k).or_insert(0) += w;
                }
                table
            })
            .collect();
        let merged = JoinTable::merge(tables);
        prop_assert!(merged.is_direct());
        assert_table_is(&merged, &model, &probes);
    }

    #[test]
    fn affine_keys_match_the_i128_tree(
        leaf in prop::option::of(0usize..3),
        leaf_lit in key_lit(),
        steps in prop::collection::vec(key_step(), 0..6),
        rows in prop::collection::vec((any::<i32>(), adv_i64(), adv_i64()), 0..35),
        mask in prop::collection::vec(prop::bool::ANY, 0..35),
    ) {
        let expr = key_expr(leaf, leaf_lit, &steps);
        let names: Vec<String> = KEY_COLS.iter().map(|c| c.to_string()).collect();
        let key = match AffineKey::compile(&expr, &names) {
            Ok(key) => key,
            // Every generated key keeps the rule: folding can only fail by
            // overflowing i64.
            Err(e) => {
                prop_assert_eq!(e, OlapError::UnsupportedKey {
                    reason: "a constant that overflows i64",
                });
                continue;
            }
        };
        // Column `a` holds I32 values (converted into the key buffer at
        // load), `b` and `c` I64 values.
        let table: Vec<[i64; 3]> = rows.iter().map(|&(a, b, c)| [a as i64, b, c]).collect();
        let columns: Vec<Vec<i64>> =
            (0..3).map(|j| table.iter().map(|row| row[j]).collect()).collect();
        let n = table.len();
        for (i, row) in table.iter().enumerate() {
            // Folding is exact: the affine form is the tree's polynomial, so
            // in exact arithmetic the two agree wherever the tree does not
            // leave i128.
            if let Some(exact) = tree_exact(&expr, row) {
                let affine = key.terms.iter().fold(key.constant as i128, |acc, &(c, s)| {
                    acc + c as i128 * row[s as usize] as i128
                });
                prop_assert_eq!(affine, exact, "row {}", i);
            }
        }
        // Dense evaluation, every row.
        let mut out = Vec::new();
        key.eval(|s| &columns[s as usize], n, None, &mut out);
        for (i, row) in table.iter().enumerate() {
            prop_assert_eq!(out[i], tree_wrapping(&expr, row) as i64, "dense row {}", i);
        }
        // Gathered evaluation writes the selected rows only.
        let sel = selection(&mask, n);
        let mut out = vec![i64::MIN; n];
        key.eval(|s| &columns[s as usize], n, Some(&sel), &mut out);
        for (i, row) in table.iter().enumerate() {
            let want = if sel.contains(&(i as u32)) {
                tree_wrapping(&expr, row) as i64
            } else {
                i64::MIN
            };
            prop_assert_eq!(out[i], want, "gathered row {}", i);
        }
    }

    #[test]
    fn fused_tuple_folds_match_the_unfused_scalar_twin(
        ranges in prop::collection::vec((fold_min(), fold_span()), 2..6),
        reads in prop::collection::vec(0usize..5, 5..6),
        values in prop::collection::vec((0usize..5, 0u8..10, adv_i64()), 0..35 * 5),
        mask in prop::collection::vec(prop::bool::ANY, 0..35),
    ) {
        let dims = fold_dims(&ranges);
        let n = dims.len();
        // Element `k` reads column `reads[k] % n`: columns repeat in the
        // tuple. A column's values are placed against the range of the
        // first element that reads it.
        let read = |k: usize| reads[k] % n;
        let rows = values.len() / n;
        let columns: Vec<Vec<i64>> = (0..n)
            .map(|j| {
                let owner = (0..n).find(|&k| read(k) == j);
                (0..rows)
                    .map(|i| {
                        let (e, kind, r) = values[i * n + j];
                        near(dims[owner.unwrap_or(e % n)], kind, r)
                    })
                    .collect()
            })
            .collect();
        let column = |k: usize| &columns[read(k)][..];
        // Dense, over dirty buffers of another length.
        let (mut fused, mut scalar) = (vec![3; 2], vec![5; 40]);
        let outside = kernels::fold_tuple(&dims, column, rows, None, &mut fused);
        let outside_scalar = kernels::fold_tuple_scalar(&dims, column, rows, None, &mut scalar);
        prop_assert_eq!(outside, outside_scalar);
        prop_assert_eq!(&fused[..rows], &scalar[..rows]);
        // Behind a selection: the selected rows are written alike, the
        // others keep what they held.
        let sel = selection(&mask, rows);
        let (mut fused, mut scalar) = (vec![7; rows], vec![7; rows]);
        let outside = kernels::fold_tuple(&dims, column, rows, Some(&sel), &mut fused);
        let outside_scalar =
            kernels::fold_tuple_scalar(&dims, column, rows, Some(&sel), &mut scalar);
        prop_assert_eq!(outside, outside_scalar);
        prop_assert_eq!(&fused, &scalar);
        for (i, &key) in fused.iter().enumerate() {
            if !sel.contains(&(i as u32)) {
                prop_assert_eq!(key, 7, "unselected row {}", i);
            }
        }
    }
}
