//! Allocation accounting for the vectorized morsel loop.
//!
//! The tentpole claim of the vectorized executor is that its steady-state
//! morsel loop performs **no heap allocation**: per-worker scratch buffers
//! (column conversion buffers, registers, selection vectors, the group
//! table) grow once and are reused for every subsequent morsel, column data
//! is borrowed from storage where the dtype allows, and per-morsel partials
//! land in capacity-reserved arenas.
//!
//! The proof here is differential: execute the same plan over the same-sized
//! morsels twice, once with N morsels and once with 4N (same `block_rows`,
//! more rows). Everything that is *per-query* — bind, compile, scratch
//! growth, result assembly — allocates identically in both runs; anything
//! the *morsel loop* allocates would scale with the extra 3N morsels. The
//! allowed delta is a small constant (the morsel list itself is built up
//! front with a handful of amortised growth doublings, and the merge step
//! reserves one vector). Join builds and group keys come in both table
//! kinds: keys a stride of [`WIDE`] apart run hashed tables, keys 1 apart
//! direct join tables and seated group ids.
//!
//! Each differential runs on two teams: the inline solo worker, and two
//! pooled workers — the calling thread as worker 0 and one long-lived helper
//! thread, which a warm-up run starts, so the measured runs start no thread.
//! The differential counts the calling thread's allocations
//! ([`own_allocations`]). A helper's count depends on timing: one that wakes
//! before worker 0 has drained the cursor claims morsels and grows its own
//! scratch once (about twenty allocations), one that wakes later claims none —
//! a per-pipeline constant, but one that can land in either run of a pair.
//! The helper runs the same morsel loop as worker 0, so a per-morsel
//! allocation shows on the calling thread, and what the hand-off itself
//! allocates on every thread is pinned by
//! `pooled_hand_off_allocates_a_constant_and_starts_no_thread`.
//!
//! This file is its own integration-test binary so the counting global
//! allocator cannot interfere with other tests. The process-wide counter
//! sees the helper threads too, and the test harness runs this file's tests
//! on parallel threads — so every test does all of its work, set-up
//! included, inside one measurement window at a time ([`window`]). The
//! harness's own thread is outside the window: when a sibling test ends it
//! records the result, and that can land in a measurement — so a count is
//! the fewest of three identical runs ([`fewest_allocations`]); the code
//! under test allocates the same on each, the harness only ever adds.

use adaptive_htap::olap::{
    AggExpr, CmpOp, JoinTable, Pipeline, Predicate, QueryExecutor, QueryPlan, ScalarExpr,
    ScanSource, WorkerTeam,
};
use adaptive_htap::sim::{CoreId, SocketId};
use adaptive_htap::storage::{
    ColumnDef, ColumnarTable, DataType, TableSchema, TableSnapshot, Value,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A counting wrapper around the system allocator.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Allocations of the current thread (no lazy initialisation and no
    /// destructor, so the allocator may touch it).
    static OWN_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Count one allocation, process-wide and on the current thread.
fn count() {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    let _ = OWN_ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: pure pass-through to the system allocator — every call forwards its
// arguments unchanged, so `System`'s own GlobalAlloc contract carries over; the
// only added behaviour is a relaxed atomic counter bump, which cannot allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: `layout` is forwarded verbatim; the returned pointer is whatever
    // `System.alloc` hands back, with its validity guarantees intact.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: caller upholds GlobalAlloc's contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: `ptr`/`layout` come from a matching `alloc`/`realloc` call on
    // this same allocator, which delegated to `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: caller guarantees `ptr` was allocated by this allocator
        // with `layout`, and this allocator is a pass-through to `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: same pass-through argument as `alloc`; the counter bump does
    // not touch the allocation being resized.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: caller upholds GlobalAlloc's realloc contract for
        // `ptr`/`layout`/`new_size`; all three forward unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// The allocations `run` makes on the calling thread.
fn own_allocations(run: impl FnOnce()) -> u64 {
    let before = OWN_ALLOCATIONS.with(Cell::get);
    run();
    OWN_ALLOCATIONS.with(Cell::get) - before
}

/// The fewest allocations of three runs of `run` (see the module
/// documentation).
fn fewest_allocations(mut run: impl FnMut()) -> u64 {
    (0..3)
        .map(|_| {
            let before = allocations();
            run();
            allocations() - before
        })
        .min()
        .unwrap()
}

/// The stride between the join keys of the hashed inputs: seven keys this
/// far apart span far more than a direct table may cover.
const WIDE: i64 = 1 << 32;

/// `orderline` of `n` rows whose `ol_i_id` is `i % 7`.
fn orderline_sources(n: u64) -> Sources {
    orderline_sources_with(n, 1)
}

/// `orderline` of `n` rows whose `ol_i_id` is `stride · (i % 7)`.
fn orderline_sources_with(n: u64, stride: i64) -> Sources {
    let schema = TableSchema::new(
        "orderline",
        vec![
            ColumnDef::new("ol_i_id", DataType::I64),
            ColumnDef::new("ol_quantity", DataType::I32),
            ColumnDef::new("ol_amount", DataType::F64),
        ],
        Some(0),
    );
    let t = ColumnarTable::new(schema);
    for i in 0..n {
        t.append_row(&[
            Value::I64((i % 7) as i64 * stride),
            Value::I32((i % 10) as i32),
            Value::F64((i % 100) as f64 + 0.25),
        ])
        .unwrap();
    }
    let snap = TableSnapshot::new("orderline".into(), Arc::new(t), n);
    let mut m = BTreeMap::new();
    m.insert(
        "orderline".to_string(),
        ScanSource::contiguous_snapshot(&snap, SocketId(0)),
    );
    m
}

/// `orderline` plus an `item` build side of `item_rows` rows whose join
/// column `i_ref` cycles through the 7 values of `ol_i_id`, `stride` apart
/// on both sides; `item`'s primary key `i_id` is `stride · i`.
fn sources_with_item(n: u64, item_rows: u64, stride: i64) -> Sources {
    let mut m = orderline_sources_with(n, stride);
    let schema = TableSchema::new(
        "item",
        vec![
            ColumnDef::new("i_id", DataType::I64),
            ColumnDef::new("i_ref", DataType::I64),
        ],
        Some(0),
    );
    let t = ColumnarTable::new(schema);
    for i in 0..item_rows {
        t.append_row(&[
            Value::I64(i as i64 * stride),
            Value::I64((i % 7) as i64 * stride),
        ])
        .unwrap();
    }
    let snap = TableSnapshot::new("item".into(), Arc::new(t), item_rows);
    m.insert(
        "item".to_string(),
        ScanSource::contiguous_snapshot(&snap, SocketId(0)),
    );
    m
}

/// An `item` whose `i_ref` repeats (21 rows over 7 values, multiplicity 3):
/// probing it takes the engine's *weighted* (multiplicity-tracking) path
/// rather than the exact unique-key path. Its keys are [`WIDE`] apart: a
/// build on `i_ref` is hashed.
fn join_sources(n: u64) -> Sources {
    sources_with_item(n, 21, WIDE)
}

/// [`join_sources`] with keys 1 apart: a build on `i_ref` is direct.
fn direct_join_sources(n: u64) -> Sources {
    sources_with_item(n, 21, 1)
}

/// A duplicate-free `item` covering 5 of the 7 `ol_i_id` values: probing it
/// takes the unique-key path, and some rows of every morsel miss. Its keys
/// are [`WIDE`] apart: a build on `i_ref` is hashed.
fn unique_join_sources(n: u64) -> Sources {
    sources_with_item(n, 5, WIDE)
}

/// [`unique_join_sources`] with keys 1 apart: a build on `item`'s primary
/// key `i_id` (`0..5`) is direct.
fn direct_unique_join_sources(n: u64) -> Sources {
    sources_with_item(n, 5, 1)
}

/// One measurement window at a time: another test allocating — even just
/// building its plan or its sources — while this one measures would be
/// counted here. Every test holds the window from its first line.
static WINDOW: Mutex<()> = Mutex::new(());

fn window() -> MutexGuard<'static, ()> {
    // A failed sibling poisons the lock but leaves nothing to protect.
    WINDOW.lock().unwrap_or_else(PoisonError::into_inner)
}

type Sources = BTreeMap<String, ScanSource>;

/// The teams every morsel-loop differential runs on: the inline solo
/// worker, and two pooled workers (the caller and the helper of core 1).
fn teams() -> [(&'static str, WorkerTeam); 2] {
    [
        ("the solo worker", WorkerTeam::solo()),
        (
            "2 pooled workers",
            WorkerTeam::from_cores(vec![CoreId(0), CoreId(1)]),
        ),
    ]
}

/// The calling thread's allocations in one execution of `plan` by `team`
/// over 16 and over 64 morsels of 1024 rows (`sources(rows)` builds the
/// access paths).
fn allocs_at_16_and_64_morsels(
    plan: &QueryPlan,
    sources: fn(u64) -> Sources,
    team: &WorkerTeam,
) -> (u64, u64) {
    let executor = QueryExecutor::with_block_rows(1024);
    let measure = |morsels: u64| {
        let sources = sources(morsels * 1024);
        // One throwaway run so lazily-initialised process state (thread-local
        // formatting buffers, a helper thread and the like) cannot skew the
        // measurement.
        executor.execute_parallel(plan, &sources, team).unwrap();
        own_allocations(|| {
            executor.execute_parallel(plan, &sources, team).unwrap();
        })
    };
    (measure(16), measure(64))
}

/// scan(orderline) → filter → [probe item on `ol_i_id = <join_item>`] →
/// sink.
fn orderline_plan(
    filters: &[Predicate],
    join_item: Option<&str>,
    group_by: Option<&[&str]>,
    aggregates: Vec<AggExpr>,
) -> QueryPlan {
    let mut at = Pipeline::scan("orderline").filter(filters);
    if let Some(key) = join_item {
        let build = Pipeline::scan("item").build(ScalarExpr::col(key));
        at = at.probe(build, ScalarExpr::col("ol_i_id"));
    }
    match group_by {
        None => at.aggregate(aggregates).finish(),
        Some(g) => at
            .group_by(g.iter().map(|c| c.to_string()).collect(), aggregates)
            .finish(),
    }
    .unwrap()
}

/// The Q6 plan (scan → filter → reduce): processing 4x the morsels must
/// cost (almost) no additional allocations — the morsel loop reuses the
/// worker scratch and writes partials into capacity-reserved arenas.
#[test]
fn scalar_aggregate_morsel_loop_does_not_allocate() {
    let _window = window();
    let plan = orderline_plan(
        &[Predicate::new("ol_quantity", CmpOp::Lt, 7.0)],
        None,
        None,
        vec![
            AggExpr::Sum(ScalarExpr::col("ol_amount") * ScalarExpr::col("ol_quantity")),
            AggExpr::Avg(ScalarExpr::col("ol_amount")),
            AggExpr::Count,
        ],
    );
    for (on, team) in teams() {
        let (small, large) = allocs_at_16_and_64_morsels(&plan, orderline_sources, &team);
        let delta = large.saturating_sub(small);
        assert!(
            delta <= 16,
            "48 extra morsels must not allocate per morsel on {on}: {small} allocs at 16 \
             morsels, {large} at 64 (delta {delta})"
        );
    }
}

/// The Q1 plan (scan → filter → group-by): group partials are real output
/// data (keys and states per morsel), but the per-morsel cost must stay a
/// handful of amortised arena growths — far below one allocation per
/// morsel-group, and independent of the rows per morsel. Two-column keys
/// hash; `ol_quantity` alone spans ten keys, so every morsel seats them.
#[test]
fn group_by_morsel_loop_allocations_stay_amortised() {
    let _window = window();
    for group_by in [&["ol_quantity", "ol_i_id"][..], &["ol_quantity"]] {
        let plan = orderline_plan(
            &[Predicate::new("ol_amount", CmpOp::Ge, 10.0)],
            None,
            Some(group_by),
            vec![AggExpr::Sum(ScalarExpr::col("ol_amount")), AggExpr::Count],
        );
        for (on, team) in teams() {
            let (small, large) = allocs_at_16_and_64_morsels(&plan, orderline_sources, &team);
            let delta = large.saturating_sub(small);
            // 48 extra morsels x 70 groups each would be ~3400 allocations
            // with a map per morsel; the arena path needs a few amortised
            // doublings plus the final merge's per-group keys.
            assert!(
                delta <= 256,
                "group-by {group_by:?} arenas must amortise on {on}: {small} allocs at 16 \
                 morsels, {large} at 64 (delta {delta})"
            );
        }
    }
}

/// The weighted probe (duplicate build keys, so every surviving row carries
/// a join multiplicity): the per-hop survivor selection vectors and weight
/// buffers are taken from and restored into the worker scratch, so 4x the
/// morsels must still cost (almost) no extra allocations — for the scalar
/// weighted fold and the weighted group-and-fold alike, over a hashed and a
/// direct build, grouped by the seated `ol_quantity` and by `ol_i_id`
/// (hashed with the wide keys, seated with the dense ones).
#[test]
fn weighted_probe_morsel_loop_does_not_allocate() {
    let _window = window();
    let scalar = orderline_plan(
        &[Predicate::new("ol_quantity", CmpOp::Lt, 7.0)],
        Some("i_ref"),
        None,
        vec![
            AggExpr::Sum(ScalarExpr::col("ol_amount")),
            AggExpr::Avg(ScalarExpr::col("ol_amount")),
            AggExpr::Count,
        ],
    );
    let grouped = |column: &str| {
        orderline_plan(
            &[],
            Some("i_ref"),
            Some(&[column]),
            vec![AggExpr::Sum(ScalarExpr::col("ol_amount")), AggExpr::Count],
        )
    };
    let (by_quantity, by_item) = (grouped("ol_quantity"), grouped("ol_i_id"));
    for (sources, build) in [
        (join_sources as fn(u64) -> Sources, "hashed"),
        (direct_join_sources, "direct"),
    ] {
        for (plan, budget, what) in [
            (&scalar, 16u64, "scalar weighted join"),
            (&by_quantity, 256, "weighted join group-by ol_quantity"),
            (&by_item, 256, "weighted join group-by ol_i_id"),
        ] {
            for (on, team) in teams() {
                let (small, large) = allocs_at_16_and_64_morsels(plan, sources, &team);
                let delta = large.saturating_sub(small);
                assert!(
                    delta <= budget,
                    "{what}, {build} build, on {on}: 48 extra morsels must not allocate per \
                     morsel: {small} allocs at 16 morsels, {large} at 64 (delta {delta})"
                );
            }
        }
    }
}

/// A build keyed by its relation's primary key allocates its table once:
/// over a 1 k-row and a 100 k-row `item`, each one morsel on the solo
/// worker, the query performs the same number of allocations. With keys
/// [`WIDE`] apart the table is hashed and sized from the row count before
/// the first morsel — one grown key by key would reallocate its slot array
/// about log₂ n times, 7 more times for the larger build; with dense keys
/// it is one direct weight array.
#[test]
fn primary_key_build_allocates_its_table_once() {
    let _window = window();
    let plan = Pipeline::scan("orderline")
        .probe(
            Pipeline::scan("item").build(ScalarExpr::col("i_id")),
            ScalarExpr::col("ol_i_id"),
        )
        .aggregate(vec![AggExpr::Count])
        .finish()
        .unwrap();
    // One morsel per relation: the whole build is one worker's table.
    let executor = QueryExecutor::with_block_rows(0);
    let measure = |item_rows: u64, stride: i64| {
        let sources = sources_with_item(1024, item_rows, stride);
        let warm = executor.execute(&plan, &sources).unwrap();
        let allocs = fewest_allocations(|| {
            let out = executor.execute(&plan, &sources).unwrap();
            assert_eq!(out, warm);
        });
        assert_eq!(warm.work.hash_table_bytes, item_rows * 16);
        allocs
    };
    for (stride, table) in [(WIDE, "hashed"), (1, "direct")] {
        let (small, large) = (measure(1_000, stride), measure(100_000, stride));
        assert_eq!(
            small, large,
            "a {table} primary-key build allocates its table once: {small} allocs over \
             1 k rows, {large} over 100 k"
        );
    }
}

/// A pooled team's hand-off allocates a constant per run, counted on every
/// thread: posting a worker to a helper allocates nothing, and a warmed team
/// starts no thread (a thread start allocates its handle, its result packet
/// and its closure). Three allocations at any team size — the result
/// vector, the helpers' result slots and the list of tickets to wait for —
/// and one for a single-core team, which runs inline.
#[test]
fn pooled_hand_off_allocates_a_constant_and_starts_no_thread() {
    let _window = window();
    for (workers, budget) in [(1u16, 1u64), (2, 3), (4, 3)] {
        let team = WorkerTeam::from_cores((0..workers).map(CoreId).collect());
        // The first run starts the team's helpers.
        assert_eq!(team.run(|w| w).len(), usize::from(workers));
        let allocs = fewest_allocations(|| {
            team.run(|w| w);
        });
        assert!(
            allocs <= budget,
            "a warmed {workers}-worker team's run made {allocs} allocations, over {budget}"
        );
    }
}

/// The merge of per-worker build tables adopts the largest and reserves room
/// for the rest once, so the union never regrows: at most one allocation for
/// two disjoint partials, and for four (a union into a table grown to its
/// own keys would double twice). The merge runs on the calling thread, so
/// only its allocations count.
#[test]
fn join_table_merge_allocates_at_most_once() {
    let _window = window();
    let partials = |sizes: &[i64]| -> Vec<JoinTable> {
        let mut next = 0;
        sizes
            .iter()
            .map(|&n| {
                let mut table = JoinTable::new();
                (next..next + n).for_each(|k| table.add(k * 31, 1));
                next += n;
                table
            })
            .collect()
    };
    for sizes in [&[60_000, 40_000][..], &[30_000; 4][..]] {
        let tables = partials(sizes);
        let mut merged = JoinTable::new();
        let allocs = own_allocations(|| merged = JoinTable::merge(tables));
        let keys: i64 = sizes.iter().sum();
        assert_eq!(merged.len() as i64, keys);
        assert!((0..keys).all(|k| merged.weight(k * 31) == 1));
        assert!(allocs <= 1, "merging {sizes:?} allocated {allocs} times");
    }
    // A direct build's partials share one range: the merge sums them into
    // one of them.
    let direct: Vec<JoinTable> = (0..4i64)
        .map(|w| {
            let mut table = JoinTable::direct(0, 99_999);
            table.extend((w..100_000).step_by(4).map(|k| (k, 1)));
            table
        })
        .collect();
    let mut merged = JoinTable::new();
    let allocs = own_allocations(|| merged = JoinTable::merge(direct));
    assert!(merged.is_direct() && merged.len() == 100_000 && merged.unique());
    assert!(
        allocs <= 1,
        "merging direct partials allocated {allocs} times"
    );
}

/// The unique-key probe (a duplicate-free build, so survivors stay a plain
/// selection): the survivor buffer the probe compacts into is sized once per
/// worker and reused, so 4x the morsels must cost (almost) no extra
/// allocations — behind a filter (gathered probe) and without one (dense
/// probe), scalar and grouped by the seated `ol_quantity` and by `ol_i_id`;
/// over a hashed build on `i_ref` and a direct, `item`-keyed build on
/// `i_id`.
#[test]
fn unique_key_probe_morsel_loop_does_not_allocate() {
    let _window = window();
    let aggregates = || vec![AggExpr::Sum(ScalarExpr::col("ol_amount")), AggExpr::Count];
    for (sources, key) in [
        (unique_join_sources as fn(u64) -> Sources, "i_ref"),
        (direct_unique_join_sources, "i_id"),
    ] {
        let filtered = orderline_plan(
            &[Predicate::new("ol_quantity", CmpOp::Lt, 7.0)],
            Some(key),
            None,
            aggregates(),
        );
        let dense = orderline_plan(&[], Some(key), None, aggregates());
        let by_quantity = orderline_plan(&[], Some(key), Some(&["ol_quantity"]), aggregates());
        let by_item = orderline_plan(&[], Some(key), Some(&["ol_i_id"]), aggregates());
        for (plan, budget, what) in [
            (&filtered, 16u64, "filtered unique-key join"),
            (&dense, 16, "dense unique-key join"),
            (&by_quantity, 256, "unique-key join group-by ol_quantity"),
            (&by_item, 256, "unique-key join group-by ol_i_id"),
        ] {
            for (on, team) in teams() {
                let (small, large) = allocs_at_16_and_64_morsels(plan, sources, &team);
                let delta = large.saturating_sub(small);
                assert!(
                    delta <= budget,
                    "{what} on {key}, on {on}: 48 extra morsels must not allocate per \
                     morsel: {small} allocs at 16 morsels, {large} at 64 (delta {delta})"
                );
            }
        }
    }
}

/// A join on a key tuple: `item` builds on `(i_ref, i_ref)` and each
/// `orderline` row probes with `(ol_i_id, ol_i_id)` — a tuple folded over
/// the storage-kept bounds of `i_ref`, whose per-element range checks run
/// in the worker's key buffer. Unique and weighted builds alike, the 48
/// extra morsels must not allocate per morsel, and the bounds the fold
/// reads cost no allocation at all.
#[test]
fn tuple_key_morsel_loop_does_not_allocate() {
    let _window = window();
    let tuple = |c: &str| vec![ScalarExpr::col(c), ScalarExpr::col(c)];
    let plan = Pipeline::scan("orderline")
        .probe(
            Pipeline::scan("item").build(tuple("i_ref")),
            tuple("ol_i_id"),
        )
        .aggregate(vec![
            AggExpr::Sum(ScalarExpr::col("ol_amount")),
            AggExpr::Count,
        ])
        .finish()
        .unwrap();
    for (sources, build) in [
        (direct_join_sources as fn(u64) -> Sources, "weighted"),
        (direct_unique_join_sources, "unique"),
    ] {
        for (on, team) in teams() {
            let (small, large) = allocs_at_16_and_64_morsels(&plan, sources, &team);
            let delta = large.saturating_sub(small);
            assert!(
                delta <= 16,
                "tuple join, {build} build, on {on}: 48 extra morsels must not allocate per \
                 morsel: {small} allocs at 16 morsels, {large} at 64 (delta {delta})"
            );
        }
    }
    // Keeping the bounds allocates nothing: appends within capacity, swaps,
    // range copies and reads of the bounds.
    let column = adaptive_htap::storage::Column::with_capacity(DataType::I64, 4096);
    let source = adaptive_htap::storage::Column::from((0..1024i64).collect::<Vec<_>>());
    let values: Vec<Value> = (0..64).map(|i| Value::I64(-i)).collect();
    let mut cell = Value::I64(1 << 40);
    let allocs = fewest_allocations(|| {
        column.append(&Value::I64(7));
        column.append_each(values.iter());
        column.swap(0, &mut cell);
        column.copy_from(&source, &[], 0..1024);
        assert!(column.bounds().is_some());
    });
    assert_eq!(allocs, 0, "storage bounds allocated");
}
