//! The morsel-driven, vectorized query executor.
//!
//! Every plan is executed as a set of pipelines over [`Morsel`]s — NUMA-tagged
//! row ranges cut from the query's [`ScanSource`]s (§3.3 processes "one block
//! of tuples at a time"; here a block is the unit a worker *claims*, not just
//! the unit it processes). The [`crate::worker::WorkerTeam`] — one pipeline
//! worker per core the RDE engine has granted — pulls morsels from a shared
//! cursor, folds each one into a private partial result, and the partials are
//! merged in morsel-index order.
//!
//! The per-core execution path is vectorized end to end:
//!
//! * **Compiled programs** — every [`ScalarExpr`]/predicate is compiled at
//!   plan-bind time into a flat register program over column *indices*
//!   ([`crate::program`]); the morsel loop never resolves a name or walks a
//!   tree.
//! * **Selection vectors** — filters produce compacted `u32` row-id vectors
//!   instead of `Vec<bool>` masks; join probes and aggregations only touch
//!   surviving rows, and a filterless scan iterates the dense range without
//!   materialising ids at all.
//! * **Open-addressing tables** — the group-by operator and the join build
//!   sides use the linear-probing tables of [`crate::hashtable`] with inline
//!   flat keys; group keys are sorted exactly once, at final merge.
//! * **Zero steady-state allocation** — each worker carries one
//!   [`crate::scratch::ExecScratch`] per pipeline; column data is borrowed
//!   from storage where the dtype allows and converted into reused buffers
//!   otherwise, so after warm-up the morsel loop does not allocate
//!   (`tests/alloc_steady_state.rs` counts).
//!
//! Two properties hold for every plan and every worker count:
//!
//! * **Determinism** — partial aggregation states are per *morsel*, and the
//!   merge order is the morsel order, so the result is bit-for-bit identical
//!   for every worker count (including the solo worker), no matter how the
//!   workers interleave their claims.
//! * **Exact accounting** — every worker tracks its own [`WorkProfile`]
//!   (bytes per socket, tuples, fresh rows) from the morsels it actually
//!   processed; the per-worker profiles are summed, and the totals equal the
//!   account the row-at-a-time oracle ([`crate::reference`]) derives from the
//!   sources alone (`tests/differential_exec.rs` asserts equality). The
//!   scheduler and the cost model consume those totals.

use crate::dag::{BuildSpec, DagSpec, Finisher, ProbeSpec, QueryPlan, RowSlot};
use crate::error::OlapError;
use crate::expr::{AggExpr, AggState, ScalarExpr};
use crate::hashtable::{GroupTable, JoinTable};
use crate::kernels;
use crate::morsel::Morsel;
use crate::program::{
    apply_filters, eval_expr, resolve, AggKind, ColumnResolver, CompiledAgg, CompiledKey,
    CompiledPredicate, ProgramPool, ValView,
};
use crate::scratch::{load_morsel, ExecScratch, MorselData};
use crate::source::{BoundLayout, ScanSource};
use crate::worker::WorkerTeam;
use htap_sim::{JoinWork, ScanSegment, ScanWork, SocketId};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// One grouped result row: the group key values followed by the aggregates.
pub type GroupRow = (Vec<i64>, Vec<f64>);

/// Result rows of a query.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// One value per aggregate expression (no grouping).
    Scalars(Vec<f64>),
    /// One row per group.
    Groups(Vec<GroupRow>),
}

impl QueryResult {
    fn shape(&self) -> &'static str {
        match self {
            QueryResult::Scalars(_) => "scalar",
            QueryResult::Groups(_) => "grouped",
        }
    }

    /// The scalar results, or an error if the result is grouped.
    pub fn scalars(&self) -> Result<&[f64], OlapError> {
        match self {
            QueryResult::Scalars(v) => Ok(v),
            QueryResult::Groups(_) => Err(OlapError::WrongResultShape {
                expected: "scalar",
                found: self.shape(),
            }),
        }
    }

    /// The grouped results, or an error if the result is scalar.
    pub fn groups(&self) -> Result<&[GroupRow], OlapError> {
        match self {
            QueryResult::Groups(g) => Ok(g),
            QueryResult::Scalars(_) => Err(OlapError::WrongResultShape {
                expected: "grouped",
                found: self.shape(),
            }),
        }
    }

    /// Number of result rows.
    pub fn row_count(&self) -> usize {
        match self {
            QueryResult::Scalars(_) => 1,
            QueryResult::Groups(g) => g.len(),
        }
    }
}

/// Measured work of one query execution, used as cost-model input.
///
/// Under parallel execution each worker accumulates its own profile from the
/// morsels it processed; [`WorkProfile::merge`] sums them.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkProfile {
    /// Bytes read from each socket (columnar accounting over accessed columns).
    pub bytes_per_socket: BTreeMap<SocketId, u64>,
    /// Tuples that flowed through the scan pipelines.
    pub tuples_scanned: u64,
    /// Tuples that passed the filters.
    pub tuples_selected: u64,
    /// Rows read from OLTP snapshots (fresh data touched by the query).
    pub fresh_rows: u64,
    /// Join build side size in bytes (0 when the plan has no join). For a
    /// three-table plan this is the *mid* (first) build side.
    pub build_bytes: u64,
    /// Number of hash-join probes, across all probe pipelines (for a
    /// three-table plan: mid-build membership probes plus fact probes).
    pub probes: u64,
    /// Size of the join hash table in bytes (first build side).
    pub hash_table_bytes: u64,
    /// Bytes of the second (far) build side of a three-table plan
    /// (0 for plans with at most one join).
    pub far_build_bytes: u64,
    /// Hash-table bytes of the second build side.
    pub far_hash_table_bytes: u64,
}

impl WorkProfile {
    /// Total bytes read across sockets.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_per_socket.values().sum()
    }

    /// Sum another profile into this one (partial profiles of workers or
    /// pipeline phases).
    pub fn merge(&mut self, other: &WorkProfile) {
        for (&socket, &bytes) in &other.bytes_per_socket {
            *self.bytes_per_socket.entry(socket).or_insert(0) += bytes;
        }
        self.tuples_scanned += other.tuples_scanned;
        self.tuples_selected += other.tuples_selected;
        self.fresh_rows += other.fresh_rows;
        self.build_bytes += other.build_bytes;
        self.probes += other.probes;
        self.hash_table_bytes += other.hash_table_bytes;
        self.far_build_bytes += other.far_build_bytes;
        self.far_hash_table_bytes += other.far_hash_table_bytes;
    }

    /// Convert the profile into the cost model's scan-work descriptor.
    pub fn scan_work(&self, cpu_ns_per_tuple: f64) -> ScanWork {
        ScanWork {
            segments: self
                .bytes_per_socket
                .iter()
                .map(|(&socket, &bytes)| ScanSegment { socket, bytes })
                .collect(),
            tuples: self.tuples_scanned,
            cpu_ns_per_tuple,
        }
    }

    /// Convert the profile into the cost model's join-work descriptor, if the
    /// plan had a join phase. Both build sides of a three-table plan are
    /// broadcast and probed, so their bytes are summed into one descriptor.
    pub fn join_work(&self) -> Option<JoinWork> {
        let build_bytes = self.build_bytes + self.far_build_bytes;
        if build_bytes == 0 && self.probes == 0 {
            None
        } else {
            Some(JoinWork {
                build_bytes,
                probes: self.probes,
                hash_table_bytes: self.hash_table_bytes + self.far_hash_table_bytes,
            })
        }
    }

    /// Account one processed morsel — bytes on its socket, tuples,
    /// freshness — from a bind-time row width: one multiplication, no
    /// per-morsel schema lookups.
    #[inline]
    pub(crate) fn absorb_morsel_rows(&mut self, morsel: &Morsel, row_bytes: u64) {
        *self.bytes_per_socket.entry(morsel.socket).or_insert(0) +=
            morsel.row_count() as u64 * row_bytes;
        self.tuples_scanned += morsel.row_count() as u64;
        if morsel.is_fresh() {
            self.fresh_rows += morsel.row_count() as u64;
        }
    }
}

/// Output of a query execution: the result plus the measured work.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutput {
    /// The query result.
    pub result: QueryResult,
    /// The measured work (cost-model input), summed over all workers.
    pub work: WorkProfile,
}

// ---------------------------------------------------------------------------
// Bind-time helpers.
// ---------------------------------------------------------------------------

/// Look up the access path of `table`.
fn source_for<'a>(
    sources: &'a BTreeMap<String, ScanSource>,
    table: &str,
) -> Result<&'a ScanSource, OlapError> {
    sources.get(table).ok_or_else(|| OlapError::MissingSource {
        table: table.to_string(),
    })
}

/// Bytes of a fully materialised build side over the accessed `columns`
/// (columnar accounting) — the broadcast size the cost model charges.
fn side_build_bytes<S: AsRef<str>>(source: &ScanSource, columns: &[S]) -> u64 {
    let Some(seg) = source.segments.first() else {
        return 0;
    };
    let schema = seg.table.schema();
    let width: u64 = columns
        .iter()
        .filter_map(|c| {
            schema
                .column_index(c.as_ref())
                .map(|i| schema.column(i).dtype.width_bytes())
        })
        .sum();
    source.total_rows() * width
}

/// The deduplicated union of the numeric and key column lists a pipeline
/// materialises — a column serving both as filter/aggregate input and as
/// group key must be byte-accounted once, not twice. Computed once at
/// plan-bind time and reused for every morsel's accounting.
fn accessed_refs<'a>(numeric_refs: &[&'a str], key_refs: &[&'a str]) -> Vec<&'a str> {
    let mut accessed: Vec<&'a str> = numeric_refs.to_vec();
    accessed.extend(key_refs);
    accessed.sort_unstable();
    accessed.dedup();
    accessed
}

/// Split the columns one pipeline side reads into `(numeric, keys)` load
/// lists. Plain-column join keys and `group_by` columns go through the
/// exact `i64` key path (full `i64` range); computed key expressions and
/// aggregate inputs must load as numeric — expression evaluation has no
/// key-column fallback — and evaluate in `f64` (exact below 2^53).
/// Filter-only columns that are already key-loaded are dropped from the
/// numeric list (predicates fall back to key columns); a column needed by
/// both paths is loaded in both representations and byte-accounted once via
/// [`accessed_refs`].
fn split_read_columns(
    filters: &[crate::expr::Predicate],
    aggregates: &[AggExpr],
    key_exprs: &[&ScalarExpr],
    group_by: &[String],
) -> (Vec<String>, Vec<String>) {
    let mut keys: Vec<String> = group_by.to_vec();
    let mut computed: Vec<String> = aggregates.iter().flat_map(AggExpr::columns).collect();
    for expr in key_exprs {
        match expr {
            ScalarExpr::Col(name) => keys.push(name.clone()),
            other => computed.extend(other.columns()),
        }
    }
    keys.sort();
    keys.dedup();
    let mut numeric: Vec<String> = filters.iter().map(|p| p.column.clone()).collect();
    numeric.retain(|c| !keys.contains(c));
    numeric.extend(computed);
    numeric.sort();
    numeric.dedup();
    (numeric, keys)
}

// ---------------------------------------------------------------------------
// Vectorized pipeline machinery.
// ---------------------------------------------------------------------------

/// The bind-time product of one scan pipeline: load lists, resolved segment
/// layout, and the compiled filter/aggregate programs. Built once per query;
/// shared read-only by every worker.
struct Pipeline {
    numeric: Vec<String>,
    keys: Vec<String>,
    layout: BoundLayout,
    pool: ProgramPool,
    filters: Vec<CompiledPredicate>,
    aggs: Vec<CompiledAgg>,
}

impl Pipeline {
    fn bind(
        source: &ScanSource,
        numeric: Vec<String>,
        keys: Vec<String>,
        filters: &[crate::expr::Predicate],
        aggregates: &[AggExpr],
    ) -> Result<Pipeline, OlapError> {
        let numeric_refs: Vec<&str> = numeric.iter().map(String::as_str).collect();
        let key_refs: Vec<&str> = keys.iter().map(String::as_str).collect();
        let accessed = accessed_refs(&numeric_refs, &key_refs);
        let layout = source.bind_columns(&numeric_refs, &key_refs, &accessed)?;
        let mut pool = ProgramPool::default();
        let resolver = ColumnResolver::new(&numeric, &keys);
        let filters = pool.compile_filters(filters, &resolver)?;
        let aggs = pool.compile_aggregates(aggregates, &resolver)?;
        Ok(Pipeline {
            numeric,
            keys,
            layout,
            pool,
            filters,
            aggs,
        })
    }

    fn compile_key(&mut self, expr: &ScalarExpr) -> Result<CompiledKey, OlapError> {
        let resolver = ColumnResolver::new(&self.numeric, &self.keys);
        self.pool.compile_key(expr, &resolver)
    }

    /// Key-list slot of a column loaded through the key path. The bind
    /// phase puts every group key on the key load list, so a miss means a
    /// mis-wired plan — reported as a typed error, not a worker abort.
    fn key_slot(&self, name: &str) -> Result<usize, OlapError> {
        self.keys
            .iter()
            .position(|c| c == name)
            .ok_or_else(|| OlapError::MissingColumn {
                column: name.to_string(),
            })
    }

    /// Fresh per-worker scratch sized for this pipeline.
    fn scratch<'env>(&self) -> ExecScratch<'env> {
        ExecScratch::for_pipeline(
            self.pool.n_regs as usize,
            self.numeric.len(),
            self.keys.len(),
        )
    }

    /// Row width of the accessed columns of `morsel`'s segment.
    #[inline]
    fn row_bytes(&self, morsel: &Morsel) -> u64 {
        self.layout.segments[morsel.segment].accessed_row_bytes
    }
}

/// The resolved join-key values of one morsel: the exact `i64` slice of a
/// key column, or the `f64` lanes of a computed expression (cast per probe,
/// exact below 2^53).
enum KeyVals<'a> {
    Exact(&'a [i64]),
    Computed(ValView<'a>),
}

impl KeyVals<'_> {
    #[inline(always)]
    fn get(&self, i: usize) -> i64 {
        match self {
            KeyVals::Exact(s) => s[i],
            KeyVals::Computed(v) => v.get(i) as i64,
        }
    }
}

/// Materialise a compiled key's computed lanes (if any) and return the
/// per-row accessor. `eval_expr` must have been driven for the same rows
/// already — this only resolves.
#[inline]
fn key_vals<'a>(
    key: &CompiledKey,
    data: &'a MorselData<'_>,
    regs: &'a [Vec<f64>],
    consts: &[f64],
) -> KeyVals<'a> {
    match key {
        CompiledKey::Key(slot) => KeyVals::Exact(data.key(*slot as usize)),
        CompiledKey::Expr(e) => KeyVals::Computed(resolve(e.output, data, regs, consts)),
    }
}

/// Run `f` over every selected row index.
#[inline(always)]
fn for_each_selected(rows: usize, sel: Option<&[u32]>, mut f: impl FnMut(usize)) {
    match sel {
        None => (0..rows).for_each(&mut f),
        Some(ids) => ids.iter().for_each(|&i| f(i as usize)),
    }
}

/// Fold one aggregate input over the selection into `state` — the
/// column-at-a-time inner loop of every aggregation pipeline, dispatched to
/// the chunked fold kernels of [`crate::kernels`]. Slice inputs run the
/// dense kernel (registers may be longer than the morsel, so the view is
/// clipped to `rows`) or the gather kernel over the selection; constant
/// inputs fold the literal once per surviving row. Every kernel accumulates
/// strictly sequentially, so the result is bit-for-bit the per-row loop's.
#[inline]
fn fold_agg(kind: AggKind, state: &mut AggState, v: ValView<'_>, rows: usize, sel: Option<&[u32]>) {
    match (v, sel) {
        (ValView::Slice(s), None) => {
            let s = &s[..rows];
            match kind {
                AggKind::Sum => kernels::fold_sum_dense(state, s),
                AggKind::Avg => kernels::fold_avg_dense(state, s),
                AggKind::Min => kernels::fold_min_dense(state, s),
                AggKind::Max => kernels::fold_max_dense(state, s),
            }
        }
        (ValView::Slice(s), Some(ids)) => match kind {
            AggKind::Sum => kernels::fold_sum_gather(state, s, ids),
            AggKind::Avg => kernels::fold_avg_gather(state, s, ids),
            AggKind::Min => kernels::fold_min_gather(state, s, ids),
            AggKind::Max => kernels::fold_max_gather(state, s, ids),
        },
        (ValView::Const(c), sel) => {
            let n = sel.map_or(rows, <[u32]>::len);
            match kind {
                AggKind::Sum => (0..n).for_each(|_| state.fold_sum(c)),
                AggKind::Avg => (0..n).for_each(|_| state.fold_avg(c)),
                AggKind::Min => (0..n).for_each(|_| state.fold_min(c)),
                AggKind::Max => (0..n).for_each(|_| state.fold_max(c)),
            }
        }
    }
}

/// Per-worker output of a scalar-aggregation pipeline: per-morsel states in
/// claim order plus the worker's accumulated profile. All buffers are
/// reserved up front so the morsel loop never reallocates.
struct ScalarOut {
    /// Morsel index of each processed morsel, in claim order.
    order: Vec<u32>,
    /// Flat per-morsel states, `n_aggs` per entry of `order`.
    states: Vec<AggState>,
    probes: u64,
    profile: WorkProfile,
    n_aggs: usize,
}

impl ScalarOut {
    fn new(n_aggs: usize, morsels: usize) -> Self {
        ScalarOut {
            order: Vec::with_capacity(morsels),
            states: Vec::with_capacity(morsels * n_aggs),
            probes: 0,
            profile: WorkProfile::default(),
            n_aggs,
        }
    }

    /// Append default states for morsel `idx` and return them for folding.
    fn push_morsel(&mut self, idx: usize) -> &mut [AggState] {
        self.order.push(idx as u32);
        let at = self.states.len();
        self.states.resize(at + self.n_aggs, AggState::default());
        &mut self.states[at..]
    }
}

/// Hash-radix fan-out of the partitioned group merge. The partition of a
/// group is the *top* `RADIX_BITS` of its key hash — the linear-probing
/// tables consume the hash from the low bits up, so the high bits stay
/// well-distributed and independent of any table's slot mask.
const RADIX_BITS: u32 = 4;
/// Number of radix partitions (16).
const RADIX_PARTS: usize = 1 << RADIX_BITS;

/// Radix partition of one key hash.
#[inline(always)]
fn radix_part(h: u64) -> usize {
    (h >> (64 - RADIX_BITS)) as usize
}

/// Per-worker output of a grouping pipeline: per-morsel flat group tables in
/// claim order, with each morsel's groups scattered into hash-radix
/// partition order so the final merge can process one disjoint partition at
/// a time (see [`merge_group_outs`]).
struct GroupOut {
    order: Vec<u32>,
    /// Groups per radix partition per processed morsel: `RADIX_PARTS`
    /// entries per entry of `order`.
    part_counts: Vec<u32>,
    /// Flat keys: `n_keys` per group, morsels concatenated in claim order,
    /// groups within a morsel in partition-then-first-seen order.
    keys: Vec<i64>,
    /// Flat states: `n_aggs` per group, same order as `keys`.
    states: Vec<AggState>,
    /// Key hash per group, same order as `keys` — reused by the merge's
    /// prehashed upserts.
    hashes: Vec<u64>,
    probes: u64,
    profile: WorkProfile,
}

impl GroupOut {
    fn new(morsels: usize) -> Self {
        GroupOut {
            order: Vec::with_capacity(morsels),
            part_counts: Vec::with_capacity(morsels * RADIX_PARTS),
            keys: Vec::new(),
            states: Vec::new(),
            hashes: Vec::new(),
            probes: 0,
            profile: WorkProfile::default(),
        }
    }

    /// Append morsel `idx`'s group table, counting-sort-scattered by radix
    /// partition. The scatter is stable, so within a partition the groups
    /// keep their first-seen (row) order — the merge folds partitions morsel
    /// by morsel, which therefore preserves the scan-order fold discipline
    /// that makes results bit-for-bit identical across worker counts.
    fn emit_morsel(&mut self, idx: usize, groups: &GroupTable, n_keys: usize, n_aggs: usize) {
        let count = groups.group_count();
        let hashes = groups.hashes_flat();
        let keys = groups.keys_flat();
        let states = groups.states_flat();
        let mut counts = [0u32; RADIX_PARTS];
        for &h in hashes {
            counts[radix_part(h)] += 1;
        }
        let mut offsets = [0u32; RADIX_PARTS];
        let mut at = 0u32;
        for (off, &c) in offsets.iter_mut().zip(&counts) {
            *off = at;
            at += c;
        }
        let key_base = self.keys.len();
        let state_base = self.states.len();
        let hash_base = self.hashes.len();
        self.keys.resize(key_base + count * n_keys, 0);
        self.states
            .resize(state_base + count * n_aggs, AggState::default());
        self.hashes.resize(hash_base + count, 0);
        for (g, &h) in hashes.iter().enumerate() {
            let p = radix_part(h);
            let dst = offsets[p] as usize;
            offsets[p] += 1;
            self.hashes[hash_base + dst] = h;
            self.keys[key_base + dst * n_keys..key_base + (dst + 1) * n_keys]
                .copy_from_slice(&keys[g * n_keys..(g + 1) * n_keys]);
            self.states[state_base + dst * n_aggs..state_base + (dst + 1) * n_aggs]
                .copy_from_slice(&states[g * n_aggs..(g + 1) * n_aggs]);
        }
        self.order.push(idx as u32);
        self.part_counts.extend_from_slice(&counts);
    }
}

/// Per-worker output of a join build pipeline: the worker's open-addressing
/// multiplicity table, reused across every morsel it claims (table union
/// across workers sums weights, which is order-insensitive, so determinism
/// is preserved).
struct BuildOut {
    table: JoinTable,
    probes: u64,
    profile: WorkProfile,
}

/// Per-worker morsel rollup for one pipeline, accumulated with relaxed
/// atomics from inside the worker loop and flattened into `worker` child
/// spans when the pipeline closes. One fixed-size vector per pipeline run —
/// constant per query, so the steady-state allocation count is unchanged.
#[derive(Debug, Default)]
struct LaneRollup {
    morsels: AtomicU64,
    busy_us: AtomicU64,
    first_us: AtomicU64,
    last_us: AtomicU64,
}

/// Drive one pipeline over `morsels`: the team's workers claim morsels from
/// a shared atomic cursor (dynamic load balancing); each worker builds its
/// scratch and output once via `make` and reuses them for every morsel it
/// claims; `step` processes one claimed morsel. Per-worker outputs are
/// returned in worker order — shape-specific merges then order the
/// per-morsel partials they carry by morsel index.
///
/// When tracing is enabled (checked once per pipeline, never per morsel),
/// each claimed morsel records one [`htap_obs::EventKind::Morsel`] interval
/// into the claiming worker's event ring — timestamps are taken around the
/// whole `step`, outside the kernel loops — and the pipeline publishes an
/// `olap.pipeline` span with per-worker rollup children.
fn run_morsel_pipeline<S, O, M, F>(
    team: &WorkerTeam,
    morsels: &[Morsel],
    make: M,
    step: F,
) -> Result<Vec<O>, OlapError>
where
    O: Send,
    M: Fn() -> (S, O) + Sync,
    F: Fn(usize, &Morsel, &mut S, &mut O) -> Result<(), OlapError> + Sync,
{
    let team = team.capped(morsels.len());
    let on = htap_obs::enabled();
    let pipeline = if on { htap_obs::pipeline_seq() } else { 0 };
    let guard = htap_obs::span("olap.pipeline");
    let rollups: Vec<LaneRollup> = if on {
        (0..team.size())
            .map(|_| LaneRollup {
                first_us: AtomicU64::new(u64::MAX),
                ..LaneRollup::default()
            })
            .collect()
    } else {
        Vec::new()
    };
    let cursor = AtomicUsize::new(0);
    let results = team.run(|w| {
        let (mut scratch, mut out) = make();
        loop {
            let idx = cursor.fetch_add(1, Ordering::Relaxed);
            if idx >= morsels.len() {
                break;
            }
            if on {
                let t0 = htap_obs::now_us();
                step(idx, &morsels[idx], &mut scratch, &mut out)?;
                let t1 = htap_obs::now_us();
                htap_obs::record_olap(
                    w,
                    htap_obs::EventKind::Morsel,
                    t0,
                    htap_obs::pack_morsel(pipeline, idx as u64),
                    t1.saturating_sub(t0),
                );
                if let Some(lane) = rollups.get(w) {
                    lane.morsels.fetch_add(1, Ordering::Relaxed);
                    lane.busy_us
                        .fetch_add(t1.saturating_sub(t0), Ordering::Relaxed);
                    lane.first_us.fetch_min(t0, Ordering::Relaxed);
                    lane.last_us.fetch_max(t1, Ordering::Relaxed);
                }
            } else {
                step(idx, &morsels[idx], &mut scratch, &mut out)?;
            }
        }
        Ok(out)
    });
    if guard.is_active() {
        guard.arg("pipeline", pipeline as f64);
        guard.arg("morsels", morsels.len() as f64);
        guard.arg("workers", team.size() as f64);
        for (w, lane) in rollups.iter().enumerate() {
            let claimed = lane.morsels.load(Ordering::Relaxed);
            if claimed == 0 {
                continue;
            }
            htap_obs::child_span(
                "worker",
                lane.first_us.load(Ordering::Relaxed),
                lane.last_us.load(Ordering::Relaxed),
                &[
                    ("worker", w as f64),
                    ("morsels", claimed as f64),
                    ("busy_us", lane.busy_us.load(Ordering::Relaxed) as f64),
                ],
            );
        }
    }
    results.into_iter().collect()
}

/// Merge per-worker scalar outputs: sort the per-morsel partials by morsel
/// index and fold them in that order (bit-for-bit identical for every worker
/// count), summing profiles and probes into `work`.
fn merge_scalar_outs(
    outs: Vec<ScalarOut>,
    n_aggs: usize,
    morsel_count: usize,
    work: &mut WorkProfile,
) -> Vec<AggState> {
    let mut parts: Vec<(u32, &[AggState])> = Vec::with_capacity(morsel_count);
    for out in &outs {
        for (k, &m) in out.order.iter().enumerate() {
            parts.push((m, &out.states[k * n_aggs..(k + 1) * n_aggs]));
        }
    }
    parts.sort_unstable_by_key(|(m, _)| *m);
    let mut states = vec![AggState::default(); n_aggs];
    for (_, chunk) in parts {
        for (state, partial) in states.iter_mut().zip(chunk) {
            state.merge(partial);
        }
    }
    for out in &outs {
        work.merge(&out.profile);
        work.probes += out.probes;
    }
    states
}

/// One morsel's partition-scattered group segment, borrowed from a
/// [`GroupOut`] for the radix merge.
struct MorselGroups<'a> {
    keys: &'a [i64],
    states: &'a [AggState],
    hashes: &'a [u64],
    /// Exclusive prefix offsets of the radix partitions within this
    /// morsel's segment (`offsets[p]..offsets[p + 1]` is partition `p`).
    offsets: [u32; RADIX_PARTS + 1],
}

/// Merge per-worker group outputs into the final sorted rows via the radix
/// partitioning the workers already applied at emission: every group key
/// lives in exactly one hash-radix partition, so the merge processes one
/// partition at a time through a single reused prehashed [`GroupTable`] —
/// re-hashing nothing, probing a table 16x smaller than a global one — and
/// the partitions concatenate disjointly. Within each partition the morsels
/// are folded in morsel-index order (first occurrence *copies* the partial
/// state; `AggState::default().merge` is not a bitwise identity), which
/// keeps every group's aggregation order equal to the scan order — hence
/// bit-for-bit identical results for every worker count. Keys are sorted
/// exactly once, over the final rows.
fn merge_group_outs(
    outs: Vec<GroupOut>,
    n_keys: usize,
    n_aggs: usize,
    morsel_count: usize,
    aggregates: &[AggExpr],
    work: &mut WorkProfile,
) -> Vec<GroupRow> {
    let mut parts: Vec<(u32, MorselGroups<'_>)> = Vec::with_capacity(morsel_count);
    for out in &outs {
        let mut key_at = 0usize;
        let mut state_at = 0usize;
        let mut hash_at = 0usize;
        for (k, &m) in out.order.iter().enumerate() {
            let counts = &out.part_counts[k * RADIX_PARTS..(k + 1) * RADIX_PARTS];
            let mut offsets = [0u32; RADIX_PARTS + 1];
            for (p, &c) in counts.iter().enumerate() {
                offsets[p + 1] = offsets[p] + c;
            }
            let groups = offsets[RADIX_PARTS] as usize;
            parts.push((
                m,
                MorselGroups {
                    keys: &out.keys[key_at..key_at + groups * n_keys],
                    states: &out.states[state_at..state_at + groups * n_aggs],
                    hashes: &out.hashes[hash_at..hash_at + groups],
                    offsets,
                },
            ));
            key_at += groups * n_keys;
            state_at += groups * n_aggs;
            hash_at += groups;
        }
    }
    parts.sort_unstable_by_key(|(m, _)| *m);
    let mut table = GroupTable::default();
    table.configure(n_keys, n_aggs);
    let mut rows: Vec<GroupRow> = Vec::new();
    for p in 0..RADIX_PARTS {
        table.begin_morsel();
        for (_, part) in &parts {
            let range = part.offsets[p] as usize..part.offsets[p + 1] as usize;
            for g in range {
                let key = &part.keys[g * n_keys..(g + 1) * n_keys];
                let chunk = &part.states[g * n_aggs..(g + 1) * n_aggs];
                let before = table.group_count();
                let gi = table.upsert_prehashed(part.hashes[g], key);
                let states = table.group_states_mut(gi);
                if table_grew(before, gi) {
                    states.copy_from_slice(chunk);
                } else {
                    for (merged, state) in states.iter_mut().zip(chunk) {
                        merged.merge(state);
                    }
                }
            }
        }
        for gi in 0..table.group_count() {
            let key = &table.keys_flat()[gi * n_keys..(gi + 1) * n_keys];
            let states = &table.states_flat()[gi * n_aggs..(gi + 1) * n_aggs];
            let aggs = aggregates
                .iter()
                .zip(states)
                .map(|(agg, st)| st.finalize(agg))
                .collect();
            rows.push((key.to_vec(), aggs));
        }
    }
    // Partitions are disjoint key sets, so one final sort restores the
    // ascending-key order the BTreeMap-based merge produced.
    rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    for out in &outs {
        work.merge(&out.profile);
        work.probes += out.probes;
    }
    rows
}

/// Did the upsert that returned `gi` claim a fresh group? (New groups are
/// appended, so a fresh claim returns the previous count as its index.)
#[inline(always)]
fn table_grew(before: usize, gi: usize) -> bool {
    gi == before
}

/// The morsel-driven query executor.
#[derive(Debug, Clone)]
pub struct QueryExecutor {
    /// Tuples per morsel (the unit of work a pipeline worker claims).
    pub block_rows: usize,
}

impl Default for QueryExecutor {
    fn default() -> Self {
        QueryExecutor {
            block_rows: crate::block::DEFAULT_BLOCK_ROWS,
        }
    }
}

impl QueryExecutor {
    /// Executor with a custom morsel size (tests use small morsels).
    pub fn with_block_rows(block_rows: usize) -> Self {
        QueryExecutor { block_rows }
    }

    /// Execute `plan` sequentially (a solo worker team) over the given
    /// per-relation access paths.
    pub fn execute(
        &self,
        plan: &QueryPlan,
        sources: &BTreeMap<String, ScanSource>,
    ) -> Result<QueryOutput, OlapError> {
        self.execute_parallel(plan, sources, &WorkerTeam::solo())
    }

    /// Execute `plan` with one pipeline worker per core of `team`, through
    /// the one generic pipeline driver below. The result is identical — bit
    /// for bit — to the solo execution of the same plan over the same
    /// sources; only wall-clock time changes.
    pub fn execute_parallel(
        &self,
        plan: &QueryPlan,
        sources: &BTreeMap<String, ScanSource>,
        team: &WorkerTeam,
    ) -> Result<QueryOutput, OlapError> {
        self.execute_dag(plan.spec(), sources, team)
    }

    /// Execute one decomposed DAG: the build pipelines in dependency order,
    /// then the root (aggregating) pipeline, then the finishers over the
    /// finalised rows.
    fn execute_dag(
        &self,
        spec: &DagSpec,
        sources: &BTreeMap<String, ScanSource>,
        team: &WorkerTeam,
    ) -> Result<QueryOutput, OlapError> {
        let mut work = WorkProfile::default();
        let mut built: Vec<JoinTable> = Vec::with_capacity(spec.builds.len());
        for build in &spec.builds {
            let source = source_for(sources, &build.input.table)?;
            let table = self.run_build_pipeline(build, &built, source, team, &mut work)?;
            // Build sides are broadcast: account their bytes and hash-table
            // sizes — builds probed by the root pipeline on the near fields,
            // deeper (chained) builds on the far fields. 16 bytes per table
            // entry (key + bucket overhead); multiplicities share their
            // key's entry, so duplicate build keys do not grow the table.
            let bytes = side_build_bytes(source, &build_read_columns(build));
            let table_bytes = table.len() as u64 * 16;
            if build.feeds_root {
                work.build_bytes += bytes;
                work.hash_table_bytes += table_bytes;
            } else {
                work.far_build_bytes += bytes;
                work.far_hash_table_bytes += table_bytes;
            }
            built.push(table);
        }
        let result = match &spec.group_by {
            None => self.run_scalar_root(spec, &built, sources, team, &mut work)?,
            Some(group_by) => {
                let mut rows =
                    self.run_group_root(spec, group_by, &built, sources, team, &mut work)?;
                for finisher in &spec.finishers {
                    apply_finisher(finisher, &mut rows);
                }
                QueryResult::Groups(rows)
            }
        };
        Ok(QueryOutput { result, work })
    }

    /// Run one build pipeline (scan → filter → probes into earlier builds)
    /// into its multiplicity table: every surviving row inserts its build
    /// key with the weight accumulated along the probe chain, so chained
    /// builds carry join multiplicities all the way down. Each worker owns
    /// one [`JoinTable`] reused across all the morsels it claims; the
    /// per-worker tables are unioned by summing weights (order-insensitive).
    fn run_build_pipeline(
        &self,
        build: &BuildSpec,
        built: &[JoinTable],
        source: &ScanSource,
        team: &WorkerTeam,
        work: &mut WorkProfile,
    ) -> Result<JoinTable, OlapError> {
        let key_exprs: Vec<&ScalarExpr> = std::iter::once(&build.key)
            .chain(build.input.probes.iter().map(|p| &p.key))
            .collect();
        let (numeric, keys) = split_read_columns(&build.input.filters, &[], &key_exprs, &[]);
        let mut pipe = Pipeline::bind(source, numeric, keys, &build.input.filters, &[])?;
        let key = pipe.compile_key(&build.key)?;
        let probe_keys: Vec<CompiledKey> = build
            .input
            .probes
            .iter()
            .map(|p| pipe.compile_key(&p.key))
            .collect::<Result<_, _>>()?;
        let morsels = source.morsels(self.block_rows);
        let make = || {
            (
                pipe.scratch(),
                BuildOut {
                    table: JoinTable::new(),
                    probes: 0,
                    profile: WorkProfile::default(),
                },
            )
        };
        let on = htap_obs::enabled();
        let t_build = if on { htap_obs::now_us() } else { 0 };
        let outs = run_morsel_pipeline(team, &morsels, make, |_idx, morsel, scratch, out| {
            let rows = morsel.row_count();
            load_morsel(source, &pipe.layout, morsel, &mut scratch.data);
            scratch.ensure_regs(rows);
            let mut bufs = ProbeBufs::take(scratch);
            {
                let sel = apply_filters(&pipe.filters, &scratch.data, rows, &mut scratch.sel);
                let (probes, survivors) = probe_chain(
                    &probe_keys,
                    &build.input.probes,
                    built,
                    &pipe,
                    &scratch.data,
                    &mut scratch.regs,
                    rows,
                    sel,
                    &mut bufs,
                    &mut scratch.hashes,
                );
                if let CompiledKey::Expr(e) = &key {
                    eval_expr(
                        e,
                        &scratch.data,
                        &mut scratch.regs,
                        &pipe.pool.consts,
                        rows,
                        survivors.selection(),
                    );
                }
                let kv = key_vals(&key, &scratch.data, &scratch.regs, &pipe.pool.consts);
                match survivors {
                    Survivors::Plain(fin) => {
                        for_each_selected(rows, fin, |i| out.table.add(kv.get(i), 1));
                    }
                    Survivors::Weighted(ids, weights) => {
                        for (&i, &w) in ids.iter().zip(weights) {
                            out.table.add(kv.get(i as usize), w);
                        }
                    }
                }
                out.probes += probes;
                out.profile
                    .absorb_morsel_rows(morsel, pipe.row_bytes(morsel));
            }
            bufs.restore(scratch);
            Ok(())
        })?;
        let mut table = JoinTable::new();
        for out in outs {
            work.merge(&out.profile);
            work.probes += out.probes;
            table.union(&out.table);
        }
        if on {
            let t1 = htap_obs::now_us();
            htap_obs::record_thread(
                htap_obs::EventKind::PipelineBuild,
                t_build,
                morsels.len() as u64,
                t1.saturating_sub(t_build),
            );
        }
        Ok(table)
    }

    /// Run the root pipeline into the scalar sink.
    fn run_scalar_root(
        &self,
        spec: &DagSpec,
        built: &[JoinTable],
        sources: &BTreeMap<String, ScanSource>,
        team: &WorkerTeam,
        work: &mut WorkProfile,
    ) -> Result<QueryResult, OlapError> {
        let source = source_for(sources, &spec.root.table)?;
        let key_exprs: Vec<&ScalarExpr> = spec.root.probes.iter().map(|p| &p.key).collect();
        let (numeric, keys) =
            split_read_columns(&spec.root.filters, &spec.aggregates, &key_exprs, &[]);
        let mut pipe = Pipeline::bind(source, numeric, keys, &spec.root.filters, &spec.aggregates)?;
        let probe_keys: Vec<CompiledKey> = spec
            .root
            .probes
            .iter()
            .map(|p| pipe.compile_key(&p.key))
            .collect::<Result<_, _>>()?;
        let morsels = source.morsels(self.block_rows);
        let n_aggs = spec.aggregates.len();
        let make = || (pipe.scratch(), ScalarOut::new(n_aggs, morsels.len()));
        let on = htap_obs::enabled();
        let t_probe = if on { htap_obs::now_us() } else { 0 };
        let outs = run_morsel_pipeline(team, &morsels, make, |idx, morsel, scratch, out| {
            let rows = morsel.row_count();
            load_morsel(source, &pipe.layout, morsel, &mut scratch.data);
            scratch.ensure_regs(rows);
            let mut bufs = ProbeBufs::take(scratch);
            {
                let sel = apply_filters(&pipe.filters, &scratch.data, rows, &mut scratch.sel);
                let (probes, survivors) = probe_chain(
                    &probe_keys,
                    &spec.root.probes,
                    built,
                    &pipe,
                    &scratch.data,
                    &mut scratch.regs,
                    rows,
                    sel,
                    &mut bufs,
                    &mut scratch.hashes,
                );
                let selected = survivors.tuple_count(rows);
                let states = out.push_morsel(idx);
                for (agg, state) in pipe.aggs.iter().zip(states) {
                    match agg {
                        CompiledAgg::Count => state.update_count_n(selected),
                        CompiledAgg::Fold(kind, e) => {
                            eval_expr(
                                e,
                                &scratch.data,
                                &mut scratch.regs,
                                &pipe.pool.consts,
                                rows,
                                survivors.selection(),
                            );
                            let v =
                                resolve(e.output, &scratch.data, &scratch.regs, &pipe.pool.consts);
                            match survivors {
                                Survivors::Plain(fin) => fold_agg(*kind, state, v, rows, fin),
                                Survivors::Weighted(ids, weights) => {
                                    fold_weighted(*kind, state, v, ids, weights)
                                }
                            }
                        }
                    }
                }
                out.probes += probes;
                out.profile
                    .absorb_morsel_rows(morsel, pipe.row_bytes(morsel));
                out.profile.tuples_selected += selected;
            }
            bufs.restore(scratch);
            Ok(())
        })?;
        let t_merge = if on {
            let t1 = htap_obs::now_us();
            htap_obs::record_thread(
                htap_obs::EventKind::PipelineProbe,
                t_probe,
                morsels.len() as u64,
                t1.saturating_sub(t_probe),
            );
            t1
        } else {
            0
        };
        let states = merge_scalar_outs(outs, n_aggs, morsels.len(), work);
        if on {
            htap_obs::record_thread(
                htap_obs::EventKind::PipelineMerge,
                t_merge,
                morsels.len() as u64,
                htap_obs::now_us().saturating_sub(t_merge),
            );
        }
        Ok(QueryResult::Scalars(
            spec.aggregates
                .iter()
                .zip(&states)
                .map(|(agg, st)| st.finalize(agg))
                .collect(),
        ))
    }

    /// Run the root pipeline into the grouped sink. An empty `group_by` is
    /// the degenerate single global group — a grouped result with no key
    /// columns. Per-morsel group tables are merged in morsel order (same
    /// discipline as every other sink), so results stay identical across
    /// worker counts.
    fn run_group_root(
        &self,
        spec: &DagSpec,
        group_by: &[String],
        built: &[JoinTable],
        sources: &BTreeMap<String, ScanSource>,
        team: &WorkerTeam,
        work: &mut WorkProfile,
    ) -> Result<Vec<GroupRow>, OlapError> {
        let source = source_for(sources, &spec.root.table)?;
        let key_exprs: Vec<&ScalarExpr> = spec.root.probes.iter().map(|p| &p.key).collect();
        let (numeric, keys) =
            split_read_columns(&spec.root.filters, &spec.aggregates, &key_exprs, group_by);
        let mut pipe = Pipeline::bind(source, numeric, keys, &spec.root.filters, &spec.aggregates)?;
        let probe_keys: Vec<CompiledKey> = spec
            .root
            .probes
            .iter()
            .map(|p| pipe.compile_key(&p.key))
            .collect::<Result<_, _>>()?;
        let group_slots: Vec<usize> = group_by
            .iter()
            .map(|g| pipe.key_slot(g))
            .collect::<Result<_, _>>()?;
        let morsels = source.morsels(self.block_rows);
        let n_aggs = spec.aggregates.len();
        let n_keys = group_by.len();
        let make = || {
            let mut scratch = pipe.scratch();
            scratch.groups.configure(n_keys, n_aggs);
            (scratch, GroupOut::new(morsels.len()))
        };
        let on = htap_obs::enabled();
        let t_probe = if on { htap_obs::now_us() } else { 0 };
        let outs = run_morsel_pipeline(team, &morsels, make, |idx, morsel, scratch, out| {
            let rows = morsel.row_count();
            load_morsel(source, &pipe.layout, morsel, &mut scratch.data);
            scratch.ensure_regs(rows);
            let mut bufs = ProbeBufs::take(scratch);
            {
                let sel = apply_filters(&pipe.filters, &scratch.data, rows, &mut scratch.sel);
                let (probes, survivors) = probe_chain(
                    &probe_keys,
                    &spec.root.probes,
                    built,
                    &pipe,
                    &scratch.data,
                    &mut scratch.regs,
                    rows,
                    sel,
                    &mut bufs,
                    &mut scratch.hashes,
                );
                let selected = survivors.tuple_count(rows);
                match survivors {
                    Survivors::Plain(fin) => group_and_fold(
                        &pipe.aggs,
                        &pipe.pool.consts,
                        &group_slots,
                        &scratch.data,
                        &mut scratch.regs,
                        &mut scratch.groups,
                        &mut scratch.group_rows,
                        &mut scratch.key_tmp,
                        &mut scratch.hashes,
                        rows,
                        fin,
                    ),
                    Survivors::Weighted(ids, weights) => group_and_fold_weighted(
                        &pipe.aggs,
                        &pipe.pool.consts,
                        &group_slots,
                        &scratch.data,
                        &mut scratch.regs,
                        &mut scratch.groups,
                        &mut scratch.key_tmp,
                        rows,
                        ids,
                        weights,
                    ),
                }
                out.emit_morsel(idx, &scratch.groups, n_keys, n_aggs);
                out.probes += probes;
                out.profile
                    .absorb_morsel_rows(morsel, pipe.row_bytes(morsel));
                out.profile.tuples_selected += selected;
            }
            bufs.restore(scratch);
            Ok(())
        })?;
        let t_merge = if on {
            let t1 = htap_obs::now_us();
            htap_obs::record_thread(
                htap_obs::EventKind::PipelineProbe,
                t_probe,
                morsels.len() as u64,
                t1.saturating_sub(t_probe),
            );
            t1
        } else {
            0
        };
        let rows = merge_group_outs(outs, n_keys, n_aggs, morsels.len(), &spec.aggregates, work);
        if on {
            htap_obs::record_thread(
                htap_obs::EventKind::PipelineMerge,
                t_merge,
                morsels.len() as u64,
                htap_obs::now_us().saturating_sub(t_merge),
            );
        }
        Ok(rows)
    }
}

/// The sorted, deduplicated column list a build pipeline reads — filters,
/// probe keys, and the build key. The executor uses this same list for
/// scanning and for build-bytes accounting, so the two cannot drift.
fn build_read_columns(build: &BuildSpec) -> Vec<String> {
    let mut cols: Vec<String> = build
        .input
        .filters
        .iter()
        .map(|p| p.column.clone())
        .collect();
    for probe in &build.input.probes {
        cols.extend(probe.key.columns());
    }
    cols.extend(build.key.columns());
    cols.sort();
    cols.dedup();
    cols
}

/// The probe-chain ping-pong buffers, taken out of the worker scratch for
/// the duration of one morsel (so the chain can read the survivors of one
/// hop while writing the next) and restored afterwards — the buffers keep
/// their capacity, preserving the zero-steady-state-allocation discipline.
struct ProbeBufs {
    sel_a: Vec<u32>,
    sel_b: Vec<u32>,
    w_a: Vec<u64>,
    w_b: Vec<u64>,
}

impl ProbeBufs {
    fn take(scratch: &mut ExecScratch<'_>) -> ProbeBufs {
        ProbeBufs {
            sel_a: std::mem::take(&mut scratch.sel2),
            sel_b: std::mem::take(&mut scratch.sel3),
            w_a: std::mem::take(&mut scratch.weights),
            w_b: std::mem::take(&mut scratch.weights_b),
        }
    }

    fn restore(self, scratch: &mut ExecScratch<'_>) {
        scratch.sel2 = self.sel_a;
        scratch.sel3 = self.sel_b;
        scratch.weights = self.w_a;
        scratch.weights_b = self.w_b;
    }
}

/// Final survivors of one morsel's filter + probe chain.
#[derive(Clone, Copy)]
enum Survivors<'a> {
    /// Every weight is 1: a plain selection (`None` = all rows survive).
    Plain(Option<&'a [u32]>),
    /// At least one probed build has duplicate keys: the surviving rows and
    /// their join multiplicities, parallel slices.
    Weighted(&'a [u32], &'a [u64]),
}

impl<'a> Survivors<'a> {
    /// The surviving row ids as a plain selection (multiplicities dropped).
    fn selection(&self) -> Option<&'a [u32]> {
        match self {
            Survivors::Plain(sel) => *sel,
            Survivors::Weighted(ids, _) => Some(ids),
        }
    }

    /// Surviving *tuple* count: the sum of multiplicities — for a weighted
    /// join, one surviving probe row stands for `w` joined tuples.
    fn tuple_count(&self, rows: usize) -> u64 {
        match self {
            Survivors::Plain(sel) => sel.map_or(rows, <[u32]>::len) as u64,
            Survivors::Weighted(_, weights) => weights.iter().sum(),
        }
    }
}

/// Probe the morsel's rows through the pipeline's chain of build tables,
/// compacting survivors hop by hop (ping-ponging between the two buffer
/// pairs of `bufs`). Returns the probe count — one per input row of each
/// hop — and the final survivors.
///
/// While every probed build is unique and no weights are in flight, each
/// hop is a plain membership probe — exact `i64` key columns take the batch
/// path (the chunked hash kernels fill `hashes` for the whole selection,
/// then prehashed lookups). The first hop over a duplicate-key build
/// switches the chain to weight tracking: a surviving row's multiplicity is
/// the product of the matched build weights, and downstream sinks fold it
/// that many times.
#[allow(clippy::too_many_arguments)]
fn probe_chain<'s>(
    probe_keys: &[CompiledKey],
    probes: &[ProbeSpec],
    built: &[JoinTable],
    pipe: &Pipeline,
    data: &MorselData<'_>,
    regs: &mut [Vec<f64>],
    rows: usize,
    sel: Option<&'s [u32]>,
    bufs: &'s mut ProbeBufs,
    hashes: &mut Vec<u64>,
) -> (u64, Survivors<'s>) {
    let mut total_probes = 0u64;
    let mut weighted = false;
    let mut ran = false;
    for (key, probe) in probe_keys.iter().zip(probes) {
        let table = &built[probe.build];
        let track = weighted || !table.unique();
        // Swap so the current survivors sit in `sel_b`/`w_b` and this hop
        // writes fresh output into `sel_a`/`w_a`.
        std::mem::swap(&mut bufs.sel_a, &mut bufs.sel_b);
        std::mem::swap(&mut bufs.w_a, &mut bufs.w_b);
        let src: Option<&[u32]> = if ran { Some(&bufs.sel_b) } else { sel };
        let src_w: Option<&[u64]> = if ran && weighted {
            Some(&bufs.w_b)
        } else {
            None
        };
        total_probes += src.map_or(rows, <[u32]>::len) as u64;
        if let CompiledKey::Expr(e) = key {
            eval_expr(e, data, regs, &pipe.pool.consts, rows, src);
        }
        bufs.sel_a.clear();
        bufs.w_a.clear();
        if !track {
            if let CompiledKey::Key(slot) = key {
                let keys = &data.key(*slot as usize)[..rows];
                match src {
                    None => {
                        kernels::hash1_dense(keys, hashes);
                        for (i, &h) in hashes.iter().enumerate() {
                            if table.weight_hashed(h, keys[i]) != 0 {
                                bufs.sel_a.push(i as u32);
                            }
                        }
                    }
                    Some(ids) => {
                        kernels::hash1_gather(keys, ids, hashes);
                        for (&i, &h) in ids.iter().zip(hashes.iter()) {
                            if table.weight_hashed(h, keys[i as usize]) != 0 {
                                bufs.sel_a.push(i);
                            }
                        }
                    }
                }
            } else {
                let kv = key_vals(key, data, regs, &pipe.pool.consts);
                match src {
                    None => {
                        for i in 0..rows {
                            if table.weight(kv.get(i)) != 0 {
                                bufs.sel_a.push(i as u32);
                            }
                        }
                    }
                    Some(ids) => {
                        for &i in ids {
                            if table.weight(kv.get(i as usize)) != 0 {
                                bufs.sel_a.push(i);
                            }
                        }
                    }
                }
            }
        } else {
            let kv = key_vals(key, data, regs, &pipe.pool.consts);
            match src {
                None => {
                    for i in 0..rows {
                        let w = table.weight(kv.get(i));
                        if w != 0 {
                            bufs.sel_a.push(i as u32);
                            bufs.w_a.push(w);
                        }
                    }
                }
                Some(ids) => match src_w {
                    None => {
                        for &i in ids {
                            let w = table.weight(kv.get(i as usize));
                            if w != 0 {
                                bufs.sel_a.push(i);
                                bufs.w_a.push(w);
                            }
                        }
                    }
                    Some(ws) => {
                        for (&i, &w_in) in ids.iter().zip(ws) {
                            let w = w_in * table.weight(kv.get(i as usize));
                            if w != 0 {
                                bufs.sel_a.push(i);
                                bufs.w_a.push(w);
                            }
                        }
                    }
                },
            }
        }
        weighted = track;
        ran = true;
    }
    if !ran {
        return (0, Survivors::Plain(sel));
    }
    if weighted {
        (total_probes, Survivors::Weighted(&bufs.sel_a, &bufs.w_a))
    } else {
        (total_probes, Survivors::Plain(Some(&bufs.sel_a)))
    }
}

/// Fold one morsel's weighted survivors into a scalar aggregate state:
/// SUM/AVG scale each value by its multiplicity, MIN/MAX fold each
/// surviving row once (repeated folds of one value cannot move an
/// extremum).
fn fold_weighted(
    kind: AggKind,
    state: &mut AggState,
    v: ValView<'_>,
    ids: &[u32],
    weights: &[u64],
) {
    match kind {
        AggKind::Sum => {
            for (&i, &w) in ids.iter().zip(weights) {
                state.fold_sum_weighted(v.get(i as usize), w);
            }
        }
        AggKind::Avg => {
            for (&i, &w) in ids.iter().zip(weights) {
                state.fold_avg_weighted(v.get(i as usize), w);
            }
        }
        AggKind::Min => {
            for &i in ids {
                state.fold_min(v.get(i as usize));
            }
        }
        AggKind::Max => {
            for &i in ids {
                state.fold_max(v.get(i as usize));
            }
        }
    }
}

/// The weighted twin of [`group_and_fold`]: assign each surviving row to
/// its group and fold every aggregate with the row's join multiplicity
/// (COUNT advances by `w`, SUM/AVG scale by `w`, MIN/MAX fold once). Runs
/// row at a time — the weighted path only exists for duplicate-key joins,
/// where correctness, not peak throughput, is the point.
#[allow(clippy::too_many_arguments)]
fn group_and_fold_weighted(
    aggs: &[CompiledAgg],
    consts: &[f64],
    group_slots: &[usize],
    data: &MorselData<'_>,
    regs: &mut [Vec<f64>],
    groups: &mut GroupTable,
    key_tmp: &mut Vec<i64>,
    rows: usize,
    ids: &[u32],
    weights: &[u64],
) {
    groups.begin_morsel();
    for agg in aggs {
        if let CompiledAgg::Fold(_, e) = agg {
            eval_expr(e, data, regs, consts, rows, Some(ids));
        }
    }
    for (&i, &w) in ids.iter().zip(weights) {
        let i = i as usize;
        let g = match group_slots {
            [] => groups.upsert0(),
            [s0] => groups.upsert1(data.key(*s0)[i]),
            [s0, s1] => groups.upsert2(data.key(*s0)[i], data.key(*s1)[i]),
            slots => {
                key_tmp.resize(slots.len(), 0);
                for (part, &slot) in key_tmp.iter_mut().zip(slots) {
                    *part = data.key(slot)[i];
                }
                groups.upsert(key_tmp)
            }
        };
        for (j, agg) in aggs.iter().enumerate() {
            match agg {
                CompiledAgg::Count => groups.agg_state(g, j).update_count_n(w),
                CompiledAgg::Fold(kind, e) => {
                    let v = resolve(e.output, data, regs, consts).get(i);
                    let state = groups.agg_state(g, j);
                    match kind {
                        AggKind::Sum => state.fold_sum_weighted(v, w),
                        AggKind::Avg => state.fold_avg_weighted(v, w),
                        AggKind::Min => state.fold_min(v),
                        AggKind::Max => state.fold_max(v),
                    }
                }
            }
        }
    }
}

/// Apply one finisher to the finalised rows. Sort orders are total (ties
/// break by the ascending full group key), so the output is deterministic
/// for every worker count.
fn apply_finisher(finisher: &Finisher, rows: &mut Vec<GroupRow>) {
    match finisher {
        Finisher::Having(preds) => {
            rows.retain(|row| {
                preds
                    .iter()
                    .all(|p| p.op.apply(row_slot_value(row, p.slot), p.literal))
            });
        }
        Finisher::Sort(keys) => {
            rows.sort_by(|a, b| {
                for key in keys {
                    let (x, y) = (row_slot_value(a, key.slot), row_slot_value(b, key.slot));
                    let ord = if key.desc {
                        y.total_cmp(&x)
                    } else {
                        x.total_cmp(&y)
                    };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                a.0.cmp(&b.0)
            });
        }
        Finisher::Limit(n) => rows.truncate(*n),
    }
}

/// Read one slot of a finalised row. Group keys convert exactly — the
/// engine's integer keys stay far below 2^53.
fn row_slot_value(row: &GroupRow, slot: RowSlot) -> f64 {
    match slot {
        RowSlot::Key(i) => row.0[i] as f64,
        RowSlot::Agg(i) => row.1[i],
    }
}

/// Assign every surviving row to its group and fold all aggregate inputs in
/// a single row-wise pass: one upsert plus one state-slice fetch per row.
/// The per-state fold order is row order — exactly the order the two-phase
/// fallback below produces — so results are bit-identical; only the
/// traversal count changes. Pipelines with more aggregates than the fused
/// view array holds fall back to a column-at-a-time second phase.
///
/// One- and two-column keys (the common shapes) batch-hash the whole
/// selection with the chunked kernels of [`crate::kernels`] into `hashes`
/// before the upsert loop; wider keys and the wide-aggregate fallback keep
/// the per-row hash (the documented scalar fallback).
#[allow(clippy::too_many_arguments)]
fn group_and_fold(
    aggs: &[CompiledAgg],
    consts: &[f64],
    group_slots: &[usize],
    data: &MorselData<'_>,
    regs: &mut [Vec<f64>],
    groups: &mut GroupTable,
    group_rows: &mut Vec<u32>,
    key_tmp: &mut Vec<i64>,
    hashes: &mut Vec<u64>,
    rows: usize,
    sel: Option<&[u32]>,
) {
    groups.begin_morsel();
    // Evaluate every fold input up front (each compiled expression writes
    // its own registers, so there is no aliasing between aggregates).
    for agg in aggs {
        if let CompiledAgg::Fold(_, e) = agg {
            eval_expr(e, data, regs, consts, rows, sel);
        }
    }
    const MAX_FUSED_AGGS: usize = 8;
    if aggs.len() <= MAX_FUSED_AGGS {
        let mut views = [ValView::Const(0.0); MAX_FUSED_AGGS];
        for (view, agg) in views.iter_mut().zip(aggs) {
            if let CompiledAgg::Fold(_, e) = agg {
                *view = resolve(e.output, data, regs, consts);
            }
        }
        match group_slots {
            [] => {
                // GROUP BY over no columns: one global group.
                for_each_selected(rows, sel, |i| {
                    let g = groups.upsert0();
                    fold_fused_row(groups, aggs, &views, g, i);
                });
            }
            [s0] => {
                let k0 = data.key(*s0);
                match sel {
                    None => {
                        kernels::hash1_dense(k0, hashes);
                        for i in 0..rows {
                            let g = groups.upsert1_prehashed(hashes[i], k0[i]);
                            fold_fused_row(groups, aggs, &views, g, i);
                        }
                    }
                    Some(ids) => {
                        kernels::hash1_gather(k0, ids, hashes);
                        for (pos, &i) in ids.iter().enumerate() {
                            let i = i as usize;
                            let g = groups.upsert1_prehashed(hashes[pos], k0[i]);
                            fold_fused_row(groups, aggs, &views, g, i);
                        }
                    }
                }
            }
            [s0, s1] => {
                let k0 = data.key(*s0);
                let k1 = data.key(*s1);
                match sel {
                    None => {
                        kernels::hash2_dense(k0, k1, hashes);
                        for i in 0..rows {
                            let g = groups.upsert2_prehashed(hashes[i], k0[i], k1[i]);
                            fold_fused_row(groups, aggs, &views, g, i);
                        }
                    }
                    Some(ids) => {
                        kernels::hash2_gather(k0, k1, ids, hashes);
                        for (pos, &i) in ids.iter().enumerate() {
                            let i = i as usize;
                            let g = groups.upsert2_prehashed(hashes[pos], k0[i], k1[i]);
                            fold_fused_row(groups, aggs, &views, g, i);
                        }
                    }
                }
            }
            slots => {
                key_tmp.resize(slots.len(), 0);
                for_each_selected(rows, sel, |i| {
                    for (part, &slot) in key_tmp.iter_mut().zip(slots) {
                        *part = data.key(slot)[i];
                    }
                    let g = groups.upsert(key_tmp);
                    fold_fused_row(groups, aggs, &views, g, i);
                });
            }
        }
        return;
    }

    // Fallback for very wide aggregate lists: phase A assigns groups into
    // the reused `group_rows` buffer, phase B folds column at a time.
    group_rows.clear();
    match group_slots {
        [] => {
            for_each_selected(rows, sel, |_| {
                let g = groups.upsert0();
                group_rows.push(g as u32);
            });
        }
        [s0] => {
            let k0 = data.key(*s0);
            for_each_selected(rows, sel, |i| {
                let g = groups.upsert1(k0[i]);
                group_rows.push(g as u32);
            });
        }
        [s0, s1] => {
            let k0 = data.key(*s0);
            let k1 = data.key(*s1);
            for_each_selected(rows, sel, |i| {
                let g = groups.upsert2(k0[i], k1[i]);
                group_rows.push(g as u32);
            });
        }
        slots => {
            key_tmp.resize(slots.len(), 0);
            for_each_selected(rows, sel, |i| {
                for (part, &slot) in key_tmp.iter_mut().zip(slots) {
                    *part = data.key(slot)[i];
                }
                let g = groups.upsert(key_tmp);
                group_rows.push(g as u32);
            });
        }
    }
    for (j, agg) in aggs.iter().enumerate() {
        match agg {
            CompiledAgg::Count => {
                for &g in group_rows.iter() {
                    groups.agg_state(g as usize, j).update_count();
                }
            }
            CompiledAgg::Fold(kind, e) => {
                let v = resolve(e.output, data, regs, consts);
                // Each (position, row) pair folds v[row] into its group's
                // state `j`, with the fold specialised per aggregate kind.
                macro_rules! fold_groups {
                    ($fold:ident) => {
                        match sel {
                            None => {
                                for (i, &g) in group_rows.iter().enumerate() {
                                    groups.agg_state(g as usize, j).$fold(v.get(i));
                                }
                            }
                            Some(ids) => {
                                for (pos, &i) in ids.iter().enumerate() {
                                    let g = group_rows[pos] as usize;
                                    groups.agg_state(g, j).$fold(v.get(i as usize));
                                }
                            }
                        }
                    };
                }
                match kind {
                    AggKind::Sum => fold_groups!(fold_sum),
                    AggKind::Avg => fold_groups!(fold_avg),
                    AggKind::Min => fold_groups!(fold_min),
                    AggKind::Max => fold_groups!(fold_max),
                }
            }
        }
    }
}

/// Fold one row's value of every aggregate into group `g` — the inner body
/// of the fused group-by pass.
#[inline(always)]
fn fold_fused_row(
    groups: &mut crate::hashtable::GroupTable,
    aggs: &[CompiledAgg],
    views: &[ValView<'_>],
    g: usize,
    i: usize,
) {
    for ((state, agg), view) in groups.group_states_mut(g).iter_mut().zip(aggs).zip(views) {
        match agg {
            CompiledAgg::Count => state.update_count(),
            CompiledAgg::Fold(AggKind::Sum, _) => state.fold_sum(view.get(i)),
            CompiledAgg::Fold(AggKind::Avg, _) => state.fold_avg(view.get(i)),
            CompiledAgg::Fold(AggKind::Min, _) => state.fold_min(view.get(i)),
            CompiledAgg::Fold(AggKind::Max, _) => state.fold_max(view.get(i)),
        }
    }
}

/// A keyed group-by helper exposed for reuse by custom plans and tests:
/// folds `(key, value)` pairs and returns groups sorted by key.
pub fn hash_group_sum(pairs: impl IntoIterator<Item = (i64, f64)>) -> Vec<(i64, f64)> {
    let mut map: BTreeMap<i64, f64> = BTreeMap::new();
    for (k, v) in pairs {
        *map.entry(k).or_insert(0.0) += v;
    }
    map.into_iter().collect()
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::{DagBuilder, DagOp, SortKey};
    use crate::expr::{CmpOp, Predicate, ScalarExpr};
    use crate::source::ScanSource;
    use htap_sim::CoreId;
    use htap_storage::{ColumnDef, ColumnarTable, DataType, TableSchema, TableSnapshot, Value};
    use std::sync::Arc;

    /// orderline-like table: (ol_number i64, ol_quantity i32, ol_amount f64, ol_i_id i64)
    fn orderline(n: u64) -> Arc<ColumnarTable> {
        let schema = TableSchema::new(
            "orderline",
            vec![
                ColumnDef::new("ol_number", DataType::I64),
                ColumnDef::new("ol_quantity", DataType::I32),
                ColumnDef::new("ol_amount", DataType::F64),
                ColumnDef::new("ol_i_id", DataType::I64),
            ],
            Some(0),
        );
        let t = ColumnarTable::new(schema);
        for i in 0..n {
            t.append_row(&[
                Value::I64(i as i64),
                Value::I32((i % 10) as i32),
                Value::F64((i % 100) as f64 + 0.1),
                Value::I64((i % 5) as i64),
            ])
            .unwrap();
        }
        Arc::new(t)
    }

    /// item-like dimension table: (i_id i64, i_price f64)
    fn item(n: u64) -> Arc<ColumnarTable> {
        let schema = TableSchema::new(
            "item",
            vec![
                ColumnDef::new("i_id", DataType::I64),
                ColumnDef::new("i_price", DataType::F64),
            ],
            Some(0),
        );
        let t = ColumnarTable::new(schema);
        for i in 0..n {
            t.append_row(&[Value::I64(i as i64), Value::F64(i as f64 * 10.0)])
                .unwrap();
        }
        Arc::new(t)
    }

    fn sources_for(n: u64) -> BTreeMap<String, ScanSource> {
        let ol = orderline(n);
        let snap = TableSnapshot::new("orderline".into(), ol, n, 0);
        let mut m = BTreeMap::new();
        m.insert(
            "orderline".to_string(),
            ScanSource::contiguous_snapshot(&snap, SocketId(0)),
        );
        m
    }

    /// One build side of a test join: relation, build-key column, filters.
    type Dim<'a> = (&'a str, &'a str, Vec<Predicate>);

    /// `fact ⋈ dims[0] ⋈ dims[1] …` (no dims: a single-relation plan): the
    /// fact probes `dims[0]` on `keys[0]`, each dim probes the next on
    /// `keys[i + 1]`; then the sink, then an optional `(agg_index, k)` top-k.
    fn try_plan(
        fact: &str,
        fact_filters: Vec<Predicate>,
        keys: Vec<ScalarExpr>,
        dims: Vec<Dim<'_>>,
        group_by: Option<&[&str]>,
        aggregates: Vec<AggExpr>,
        top_k: Option<(usize, usize)>,
    ) -> Result<QueryPlan, OlapError> {
        let mut b = DagBuilder::default();
        let mut beyond: Option<usize> = None;
        for (i, (table, key, filters)) in dims.iter().enumerate().rev() {
            let scan = b.scan(*table);
            let mut at = b.filter(scan, filters);
            if let Some(build) = beyond {
                at = b.probe(at, build, keys[i + 1].clone());
            }
            beyond = Some(b.build(at, ScalarExpr::col(*key)));
        }
        let scan = b.scan(fact);
        let mut at = b.filter(scan, &fact_filters);
        if let Some(build) = beyond {
            at = b.probe(at, build, keys[0].clone());
        }
        let group_by = group_by.map(|g| g.iter().map(|c| c.to_string()).collect());
        let agg = b.aggregate(at, group_by, aggregates);
        if let Some((agg_index, k)) = top_k {
            let sorted = b.push(DagOp::Sort {
                input: agg,
                keys: vec![SortKey {
                    slot: RowSlot::Agg(agg_index),
                    desc: true,
                }],
            });
            b.push(DagOp::Limit {
                input: sorted,
                rows: k,
            });
        }
        b.finish()
    }

    /// scan(table) → filter → scalar or grouped aggregate.
    fn scan_plan(
        table: &str,
        filters: Vec<Predicate>,
        group_by: Option<&[&str]>,
        aggregates: Vec<AggExpr>,
    ) -> QueryPlan {
        try_plan(table, filters, vec![], vec![], group_by, aggregates, None).unwrap()
    }

    fn col(name: &str) -> ScalarExpr {
        ScalarExpr::col(name)
    }

    fn team_of(n: u16) -> WorkerTeam {
        WorkerTeam::from_cores((0..n).map(CoreId).collect())
    }

    /// mid dimension for the chain join: (m_id i64, m_c i64) with
    /// m_id in 0..n and m_c = m_id % 3.
    fn mid_dim(n: u64) -> Arc<ColumnarTable> {
        let schema = TableSchema::new(
            "mid",
            vec![
                ColumnDef::new("m_id", DataType::I64),
                ColumnDef::new("m_c", DataType::I64),
            ],
            Some(0),
        );
        let t = ColumnarTable::new(schema);
        for i in 0..n {
            t.append_row(&[Value::I64(i as i64), Value::I64((i % 3) as i64)])
                .unwrap();
        }
        Arc::new(t)
    }

    /// far dimension: (c_id i64, c_v f64) with c_id in 0..n, c_v = c_id * 1.5.
    fn far_dim(n: u64) -> Arc<ColumnarTable> {
        let schema = TableSchema::new(
            "far",
            vec![
                ColumnDef::new("c_id", DataType::I64),
                ColumnDef::new("c_v", DataType::F64),
            ],
            Some(0),
        );
        let t = ColumnarTable::new(schema);
        for i in 0..n {
            t.append_row(&[Value::I64(i as i64), Value::F64(i as f64 * 1.5)])
                .unwrap();
        }
        Arc::new(t)
    }

    /// orderline ⋈ mid ⋈ far sources: mid keys match ol_i_id (0..5), far keys
    /// match m_c (0..3).
    fn chain_sources(n: u64) -> BTreeMap<String, ScanSource> {
        let mut sources = sources_for(n);
        let mid = mid_dim(5);
        let snap = TableSnapshot::new("mid".into(), mid, 5, 0);
        sources.insert(
            "mid".into(),
            ScanSource::contiguous_snapshot(&snap, SocketId(1)),
        );
        let far = far_dim(3);
        let snap = TableSnapshot::new("far".into(), far, 3, 0);
        sources.insert(
            "far".into(),
            ScanSource::contiguous_snapshot(&snap, SocketId(1)),
        );
        sources
    }

    fn chain_plan() -> QueryPlan {
        try_plan(
            "orderline",
            vec![Predicate::new("ol_quantity", CmpOp::Lt, 5.0)],
            vec![col("ol_i_id"), col("m_c")],
            // far keys with c_v >= 1.5 -> c_id in {1, 2}.
            vec![
                ("mid", "m_id", vec![]),
                ("far", "c_id", vec![Predicate::new("c_v", CmpOp::Ge, 1.5)]),
            ],
            None,
            vec![AggExpr::Sum(col("ol_amount")), AggExpr::Count],
            None,
        )
        .unwrap()
    }

    #[test]
    fn multi_join_chain_filters_through_both_dims() {
        // far set = {1, 2}; mid rows with m_c in {1, 2} -> m_id in {1, 2, 4};
        // fact rows pass when ol_quantity < 5 and ol_i_id in {1, 2, 4}.
        let out = QueryExecutor::with_block_rows(64)
            .execute(&chain_plan(), &chain_sources(1000))
            .unwrap();
        let survives = |i: &u64| i % 10 < 5 && matches!(i % 5, 1 | 2 | 4);
        let expected_sum: f64 = (0..1000u64)
            .filter(survives)
            .map(|i| (i % 100) as f64 + 0.1)
            .sum();
        let expected_count = (0..1000u64).filter(survives).count() as f64;
        assert!((out.result.scalars().unwrap()[0] - expected_sum).abs() < 1e-9);
        assert_eq!(out.result.scalars().unwrap()[1], expected_count);
        // Probes: 5 mid rows checked against the far set + 500 filtered fact rows.
        assert_eq!(out.work.probes, 5 + 500);
    }

    #[test]
    fn multi_join_accounts_both_build_sides() {
        let out = QueryExecutor::with_block_rows(128)
            .execute(&chain_plan(), &chain_sources(500))
            .unwrap();
        assert!(out.work.build_bytes > 0, "mid build side accounted");
        assert!(out.work.far_build_bytes > 0, "far build side accounted");
        assert_eq!(out.work.hash_table_bytes, 3 * 16, "mid set {{1, 2, 4}}");
        assert_eq!(out.work.far_hash_table_bytes, 2 * 16, "far set {{1, 2}}");
        let jw = out.work.join_work().unwrap();
        assert_eq!(
            jw.build_bytes,
            out.work.build_bytes + out.work.far_build_bytes,
            "the cost model sees both broadcasts"
        );
        assert_eq!(
            jw.hash_table_bytes,
            out.work.hash_table_bytes + out.work.far_hash_table_bytes
        );
    }

    #[test]
    fn multi_join_is_bit_identical_across_worker_counts() {
        let sources = chain_sources(5_003);
        let executor = QueryExecutor::with_block_rows(97);
        let solo = executor.execute(&chain_plan(), &sources).unwrap();
        for workers in [2u16, 4, 7] {
            let parallel = executor
                .execute_parallel(&chain_plan(), &sources, &team_of(workers))
                .unwrap();
            assert_eq!(solo, parallel, "{workers} workers diverged from solo");
        }
    }

    fn join_group_by_plan(top_k: Option<(usize, usize)>) -> Result<QueryPlan, OlapError> {
        try_plan(
            "orderline",
            vec![Predicate::new("ol_amount", CmpOp::Ge, 10.0)],
            vec![col("ol_i_id")],
            // mid keys with m_c == 1 -> m_id in {1, 4}.
            vec![("mid", "m_id", vec![Predicate::new("m_c", CmpOp::Eq, 1.0)])],
            Some(&["ol_quantity"]),
            vec![AggExpr::Count, AggExpr::Sum(col("ol_amount"))],
            top_k,
        )
    }

    #[test]
    fn join_group_by_groups_fact_rows_matching_dim() {
        let out = QueryExecutor::with_block_rows(128)
            .execute(&join_group_by_plan(None).unwrap(), &chain_sources(1000))
            .unwrap();
        let survives = |i: &u64| (i % 100) as f64 + 0.1 >= 10.0 && matches!(i % 5, 1 | 4);
        let groups = out.result.groups().unwrap();
        // One group per surviving quantity value, keys ascending.
        let mut expected: BTreeMap<i64, (f64, f64)> = BTreeMap::new();
        for i in (0..1000u64).filter(survives) {
            let e = expected.entry((i % 10) as i64).or_insert((0.0, 0.0));
            e.0 += 1.0;
            e.1 += (i % 100) as f64 + 0.1;
        }
        assert_eq!(groups.len(), expected.len());
        for ((key, aggs), (exp_key, (exp_count, exp_sum))) in groups.iter().zip(&expected) {
            assert_eq!(key[0], *exp_key);
            assert_eq!(aggs[0], *exp_count);
            assert!((aggs[1] - exp_sum).abs() < 1e-9);
        }
        assert!(out.work.probes > 0);
        assert!(out.work.build_bytes > 0);
        assert_eq!(out.work.far_build_bytes, 0, "only one build side");
    }

    #[test]
    fn join_group_by_top_k_orders_groups_descending_with_key_tiebreak() {
        let out = QueryExecutor::with_block_rows(64)
            .execute(
                &join_group_by_plan(Some((0, 3))).unwrap(),
                &chain_sources(1000),
            )
            .unwrap();
        let groups = out.result.groups().unwrap();
        assert_eq!(groups.len(), 3);
        for pair in groups.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            assert!(
                a.1[0] > b.1[0] || (a.1[0] == b.1[0] && a.0 < b.0),
                "descending count with ascending key tie-break: {groups:?}"
            );
        }
        // The top-k rows are a prefix of the full descending ordering.
        let full = QueryExecutor::with_block_rows(64)
            .execute(&join_group_by_plan(None).unwrap(), &chain_sources(1000))
            .unwrap();
        let mut all = full.result.groups().unwrap().to_vec();
        all.sort_by(|a, b| b.1[0].total_cmp(&a.1[0]).then_with(|| a.0.cmp(&b.0)));
        assert_eq!(groups, &all[..3]);
    }

    #[test]
    fn join_group_by_is_bit_identical_across_worker_counts() {
        let sources = chain_sources(5_003);
        let plan = join_group_by_plan(Some((1, 4))).unwrap();
        let executor = QueryExecutor::with_block_rows(173);
        let solo = executor.execute(&plan, &sources).unwrap();
        for workers in [2u16, 4, 8] {
            let parallel = executor
                .execute_parallel(&plan, &sources, &team_of(workers))
                .unwrap();
            assert_eq!(solo, parallel, "{workers} workers diverged from solo");
        }
    }

    #[test]
    fn invalid_top_k_is_a_typed_error() {
        // Rejected when the plan is built — it never reaches an executor.
        let err = join_group_by_plan(Some((9, 3))).unwrap_err();
        assert_eq!(
            err,
            OlapError::InvalidTopK {
                agg_index: 9,
                aggregates: 2
            }
        );
        assert!(err.to_string().contains("top-k"));
    }

    #[test]
    fn aggregate_plan_computes_filtered_sum_and_count() {
        let plan = scan_plan(
            "orderline",
            vec![Predicate::new("ol_quantity", CmpOp::Lt, 5.0)],
            None,
            vec![AggExpr::Sum(col("ol_amount")), AggExpr::Count],
        );
        let out = QueryExecutor::with_block_rows(64)
            .execute(&plan, &sources_for(1000))
            .unwrap();
        // Rows with quantity in 0..=4: i%10 < 5, i.e. 500 rows.
        let expected_sum: f64 = (0..1000u64)
            .filter(|i| i % 10 < 5)
            .map(|i| (i % 100) as f64 + 0.1)
            .sum();
        assert!((out.result.scalars().unwrap()[0] - expected_sum).abs() < 1e-9);
        assert_eq!(out.result.scalars().unwrap()[1], 500.0);
        assert_eq!(out.work.tuples_scanned, 1000);
        assert_eq!(out.work.tuples_selected, 500);
        assert!(out.work.total_bytes() > 0);
        assert_eq!(
            out.work.fresh_rows, 1000,
            "all rows came from an OLTP snapshot"
        );
        assert!(out.work.join_work().is_none());
    }

    #[test]
    fn group_by_plan_produces_one_row_per_group() {
        let plan = scan_plan(
            "orderline",
            vec![],
            Some(&["ol_i_id"]),
            vec![AggExpr::Sum(col("ol_amount")), AggExpr::Count],
        );
        let out = QueryExecutor::with_block_rows(128)
            .execute(&plan, &sources_for(1000))
            .unwrap();
        let groups = out.result.groups().unwrap();
        assert_eq!(groups.len(), 5);
        // Every group has 200 rows.
        for (key, aggs) in groups {
            assert!(key[0] >= 0 && key[0] < 5);
            assert_eq!(aggs[1], 200.0);
        }
        let total: f64 = groups.iter().map(|(_, a)| a[0]).sum();
        let expected: f64 = (0..1000u64).map(|i| (i % 100) as f64 + 0.1).sum();
        assert!((total - expected).abs() < 1e-6);
        assert_eq!(out.result.row_count(), 5);
    }

    #[test]
    fn join_plan_filters_both_sides_and_counts_probes() {
        let mut sources = sources_for(1000);
        let it = item(5);
        let snap = TableSnapshot::new("item".into(), it, 5, 0);
        sources.insert(
            "item".into(),
            ScanSource::contiguous_snapshot(&snap, SocketId(1)),
        );

        // Items with price >= 20 -> i_id in {2, 3, 4}.
        let plan = try_plan(
            "orderline",
            vec![Predicate::new("ol_quantity", CmpOp::Lt, 5.0)],
            vec![col("ol_i_id")],
            vec![(
                "item",
                "i_id",
                vec![Predicate::new("i_price", CmpOp::Ge, 20.0)],
            )],
            None,
            vec![AggExpr::Sum(col("ol_amount")), AggExpr::Count],
            None,
        )
        .unwrap();
        let out = QueryExecutor::with_block_rows(100)
            .execute(&plan, &sources)
            .unwrap();
        let expected: f64 = (0..1000u64)
            .filter(|i| i % 10 < 5 && i % 5 >= 2)
            .map(|i| (i % 100) as f64 + 0.1)
            .sum();
        let expected_count = (0..1000u64).filter(|i| i % 10 < 5 && i % 5 >= 2).count() as f64;
        assert!((out.result.scalars().unwrap()[0] - expected).abs() < 1e-9);
        assert_eq!(out.result.scalars().unwrap()[1], expected_count);
        assert_eq!(out.work.probes, 500, "every filtered fact row probes");
        assert!(out.work.build_bytes > 0);
        assert!(out.work.hash_table_bytes > 0);
        let jw = out.work.join_work().unwrap();
        assert_eq!(jw.probes, 500);
        // Bytes are attributed to both sockets (fact on 0, dim on 1).
        assert!(out.work.bytes_per_socket.contains_key(&SocketId(0)));
        assert!(out.work.bytes_per_socket.contains_key(&SocketId(1)));
    }

    #[test]
    fn split_access_profile_reports_fresh_rows_only_for_oltp_segments() {
        let olap_part = orderline(800);
        let oltp_part = orderline(1000);
        let snap = TableSnapshot::new("orderline".into(), oltp_part, 1000, 0);
        let src = ScanSource::split(olap_part, 800, SocketId(1), &snap, SocketId(0));
        let mut sources = BTreeMap::new();
        sources.insert("orderline".to_string(), src);
        let plan = scan_plan(
            "orderline",
            vec![],
            None,
            vec![AggExpr::Count, AggExpr::Sum(col("ol_amount"))],
        );
        let out = QueryExecutor::default().execute(&plan, &sources).unwrap();
        assert_eq!(out.result.scalars().unwrap()[0], 1000.0);
        assert_eq!(out.work.fresh_rows, 200);
        assert!(out.work.bytes_per_socket[&SocketId(1)] > out.work.bytes_per_socket[&SocketId(0)]);
    }

    #[test]
    fn scan_work_conversion_preserves_bytes_and_tuples() {
        let plan = scan_plan(
            "orderline",
            vec![],
            None,
            vec![AggExpr::Sum(col("ol_amount"))],
        );
        let out = QueryExecutor::default()
            .execute(&plan, &sources_for(500))
            .unwrap();
        let sw = out.work.scan_work(1.0);
        assert_eq!(sw.tuples, 500);
        assert_eq!(sw.total_bytes(), out.work.total_bytes());
    }

    #[test]
    fn results_are_identical_across_block_sizes() {
        let plan = scan_plan(
            "orderline",
            vec![Predicate::new("ol_amount", CmpOp::Ge, 10.0)],
            Some(&["ol_quantity"]),
            vec![AggExpr::Sum(col("ol_amount")), AggExpr::Count],
        );
        let small = QueryExecutor::with_block_rows(7)
            .execute(&plan, &sources_for(997))
            .unwrap();
        let large = QueryExecutor::with_block_rows(100_000)
            .execute(&plan, &sources_for(997))
            .unwrap();
        assert_eq!(small.result.row_count(), large.result.row_count());
        for (s, l) in small
            .result
            .groups()
            .unwrap()
            .iter()
            .zip(large.result.groups().unwrap())
        {
            assert_eq!(s.0, l.0);
            for (a, b) in s.1.iter().zip(&l.1) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    /// The determinism contract of the tentpole: the same plan over the same
    /// sources produces bit-for-bit identical results and work profiles for
    /// every worker count — for a CH-Q6 shape (scan-filter-reduce)...
    #[test]
    fn q6_shape_is_bit_identical_across_worker_counts() {
        let plan = scan_plan(
            "orderline",
            vec![Predicate::new("ol_quantity", CmpOp::Lt, 7.0)],
            None,
            vec![
                AggExpr::Sum(col("ol_amount") * col("ol_quantity")),
                AggExpr::Avg(col("ol_amount")),
                AggExpr::Min(col("ol_amount")),
                AggExpr::Max(col("ol_amount")),
                AggExpr::Count,
            ],
        );
        let sources = sources_for(10_007);
        let executor = QueryExecutor::with_block_rows(251);
        let solo = executor.execute(&plan, &sources).unwrap();
        for workers in [2u16, 3, 4, 8] {
            let parallel = executor
                .execute_parallel(&plan, &sources, &team_of(workers))
                .unwrap();
            assert_eq!(solo, parallel, "{workers} workers diverged from solo");
        }
    }

    /// ...and for a CH-Q1 shape (scan-filter-group-by).
    #[test]
    fn q1_shape_is_bit_identical_across_worker_counts() {
        let plan = scan_plan(
            "orderline",
            vec![Predicate::new("ol_amount", CmpOp::Ge, 3.0)],
            Some(&["ol_quantity", "ol_i_id"]),
            vec![
                AggExpr::Sum(col("ol_amount")),
                AggExpr::Avg(col("ol_amount")),
                AggExpr::Count,
            ],
        );
        let sources = sources_for(10_007);
        let executor = QueryExecutor::with_block_rows(173);
        let solo = executor.execute(&plan, &sources).unwrap();
        for workers in [2u16, 4, 8] {
            let parallel = executor
                .execute_parallel(&plan, &sources, &team_of(workers))
                .unwrap();
            assert_eq!(solo, parallel, "{workers} workers diverged from solo");
        }
    }

    #[test]
    fn join_shape_is_bit_identical_across_worker_counts() {
        let mut sources = sources_for(5_003);
        let it = item(5);
        let snap = TableSnapshot::new("item".into(), it, 5, 0);
        sources.insert(
            "item".into(),
            ScanSource::contiguous_snapshot(&snap, SocketId(1)),
        );
        let plan = try_plan(
            "orderline",
            vec![Predicate::new("ol_quantity", CmpOp::Lt, 6.0)],
            vec![col("ol_i_id")],
            vec![(
                "item",
                "i_id",
                vec![Predicate::new("i_price", CmpOp::Ge, 10.0)],
            )],
            None,
            vec![AggExpr::Sum(col("ol_amount")), AggExpr::Count],
            None,
        )
        .unwrap();
        let executor = QueryExecutor::with_block_rows(97);
        let solo = executor.execute(&plan, &sources).unwrap();
        for workers in [2u16, 4, 7] {
            let parallel = executor
                .execute_parallel(&plan, &sources, &team_of(workers))
                .unwrap();
            assert_eq!(solo, parallel, "{workers} workers diverged from solo");
        }
    }

    #[test]
    fn parallel_work_profile_sums_to_sequential_totals() {
        let plan = scan_plan(
            "orderline",
            vec![Predicate::new("ol_quantity", CmpOp::Lt, 5.0)],
            None,
            vec![AggExpr::Count],
        );
        let sources = sources_for(4_321);
        let executor = QueryExecutor::with_block_rows(100);
        let solo = executor.execute(&plan, &sources).unwrap();
        let parallel = executor
            .execute_parallel(&plan, &sources, &team_of(6))
            .unwrap();
        assert_eq!(solo.work, parallel.work);
        assert_eq!(parallel.work.tuples_scanned, 4_321);
    }

    #[test]
    fn empty_source_executes_to_empty_result() {
        let plan = scan_plan(
            "orderline",
            vec![],
            Some(&["ol_i_id"]),
            vec![AggExpr::Count],
        );
        let out = QueryExecutor::default()
            .execute_parallel(&plan, &sources_for(0), &team_of(4))
            .unwrap();
        assert_eq!(out.result.row_count(), 0);
        assert_eq!(out.work.tuples_scanned, 0);
    }

    #[test]
    fn group_key_reused_as_filter_column_is_byte_accounted_once() {
        // ol_quantity serves as both filter input and group key: the morsel
        // byte accounting must charge its 4 bytes per row once, not twice.
        let plan = scan_plan(
            "orderline",
            vec![Predicate::new("ol_quantity", CmpOp::Lt, 5.0)],
            Some(&["ol_quantity"]),
            vec![AggExpr::Count],
        );
        let out = QueryExecutor::with_block_rows(64)
            .execute(&plan, &sources_for(100))
            .unwrap();
        assert_eq!(out.work.total_bytes(), 100 * 4);
    }

    #[test]
    fn plain_column_join_keys_stay_exact_beyond_2_pow_53() {
        // 2^53 and 2^53 + 1 are distinct i64 keys but collapse to the same
        // f64; plain-column join keys must take the exact i64 path, so the
        // probe of 2^53 + 1 against a build set holding 2^53 finds nothing.
        const BIG: i64 = 1 << 53;
        let dim = ColumnarTable::new(TableSchema::new(
            "dim64",
            vec![ColumnDef::new("d_id", DataType::I64)],
            Some(0),
        ));
        dim.append_row(&[Value::I64(BIG)]).unwrap();
        let fact = ColumnarTable::new(TableSchema::new(
            "fact64",
            vec![
                ColumnDef::new("f_key", DataType::I64),
                ColumnDef::new("f_a", DataType::F64),
            ],
            Some(0),
        ));
        fact.append_row(&[Value::I64(BIG + 1), Value::F64(1.0)])
            .unwrap();
        let mut sources = BTreeMap::new();
        let snap = TableSnapshot::new("dim64".into(), Arc::new(dim), 1, 0);
        sources.insert(
            "dim64".to_string(),
            ScanSource::contiguous_snapshot(&snap, SocketId(0)),
        );
        let snap = TableSnapshot::new("fact64".into(), Arc::new(fact), 1, 0);
        sources.insert(
            "fact64".to_string(),
            ScanSource::contiguous_snapshot(&snap, SocketId(0)),
        );
        let dim = || ("dim64", "d_id", vec![]);
        let join = |keys, dims, group_by| {
            try_plan(
                "fact64",
                vec![],
                keys,
                dims,
                group_by,
                vec![AggExpr::Count],
                None,
            )
            .unwrap()
        };
        let plan = join(vec![col("f_key")], vec![dim()], None);
        let out = QueryExecutor::default().execute(&plan, &sources).unwrap();
        assert_eq!(
            out.result.scalars().unwrap()[0],
            0.0,
            "2^53 and 2^53 + 1 must not join"
        );

        // Grouped and chained joins route plain-column keys through the
        // same exact path, on both the build and the probe side.
        let jgb = join(vec![col("f_key")], vec![dim()], Some(&["f_key"]));
        let out = QueryExecutor::default().execute(&jgb, &sources).unwrap();
        assert!(out.result.groups().unwrap().is_empty());
        let multi = join(vec![col("f_key"), col("d_id")], vec![dim(), dim()], None);
        let out = QueryExecutor::default().execute(&multi, &sources).unwrap();
        assert_eq!(out.result.scalars().unwrap()[0], 0.0);
    }

    #[test]
    fn shared_column_between_plain_key_and_computed_expression_does_not_panic() {
        // The mid build key loads m_id through the key path while mid's
        // probe key *computes* over the same column: m_id must stay
        // numeric-loaded too, because compiled expressions have no
        // key-column fallback. fk = m_id * 0 + m_c == m_c, but references
        // m_id in a computed expression.
        let plan = try_plan(
            "orderline",
            vec![],
            vec![
                col("ol_i_id"),
                col("m_id") * ScalarExpr::lit(0.0) + col("m_c"),
            ],
            vec![("mid", "m_id", vec![]), ("far", "c_id", vec![])],
            None,
            vec![AggExpr::Count],
            None,
        )
        .unwrap();
        let out = QueryExecutor::with_block_rows(64)
            .execute(&plan, &chain_sources(200))
            .unwrap();
        // far = {0, 1, 2} ⊇ m_c values, so every mid and fact row joins.
        assert_eq!(out.result.scalars().unwrap()[0], 200.0);
    }

    #[test]
    fn hash_group_sum_helper() {
        let groups = hash_group_sum(vec![(1, 1.0), (2, 2.0), (1, 3.0)]);
        assert_eq!(groups, vec![(1, 4.0), (2, 2.0)]);
    }

    #[test]
    fn missing_source_is_a_typed_error() {
        let plan = scan_plan("nope", vec![], None, vec![AggExpr::Count]);
        let err = QueryExecutor::default()
            .execute(&plan, &BTreeMap::new())
            .unwrap_err();
        assert_eq!(
            err,
            OlapError::MissingSource {
                table: "nope".into()
            }
        );
        assert!(err.to_string().contains("no access path provided"));
    }

    #[test]
    fn unknown_plan_column_is_a_typed_error() {
        let plan = scan_plan(
            "orderline",
            vec![Predicate::new("ol_ghost", CmpOp::Lt, 1.0)],
            None,
            vec![AggExpr::Count],
        );
        let err = QueryExecutor::default()
            .execute(&plan, &sources_for(10))
            .unwrap_err();
        assert_eq!(
            err,
            OlapError::UnknownColumn {
                table: "orderline".into(),
                column: "ol_ghost".into()
            }
        );
    }

    #[test]
    fn wrong_shape_accessors_are_typed_errors() {
        let scalars = QueryResult::Scalars(vec![1.0]);
        assert!(scalars.scalars().is_ok());
        assert_eq!(
            scalars.groups().unwrap_err(),
            OlapError::WrongResultShape {
                expected: "grouped",
                found: "scalar"
            }
        );
        let groups = QueryResult::Groups(vec![]);
        assert!(groups.groups().is_ok());
        assert_eq!(
            groups.scalars().unwrap_err(),
            OlapError::WrongResultShape {
                expected: "scalar",
                found: "grouped"
            }
        );
    }
}
