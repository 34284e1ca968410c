//! Pipeline bind and the one morsel driver.
//!
//! Every pipeline of a plan — each join build and the aggregating root — is
//! the same stream: scan → filters → probe chain → sink. [`Pipeline::bind`]
//! resolves that stream against its source once per query;
//! [`QueryExecutor::run_pipeline`] then drives it: the team's workers claim
//! morsels from a shared cursor, and each claimed morsel is loaded, filtered,
//! probed and accounted here — the only place that happens — before its
//! [`Survivors`] go to the pipeline's [`Sink`], which owns nothing but its
//! per-worker partial output and the merge of those partials.

use super::build::Built;
use super::probe::{probe_chain, Survivors};
use super::{QueryExecutor, WorkProfile};
use crate::dag::PipelineSpec;
use crate::error::OlapError;
use crate::expr::{AggExpr, Predicate, ScalarExpr};
use crate::hashtable::JoinTable;
use crate::morsel::Morsel;
use crate::program::{
    apply_filters, tuple_slots, ColRef, ColumnResolver, CompiledAggs, CompiledPredicate, JoinKey,
    ProgramPool,
};
use crate::scratch::{load_morsel, ExecScratch, FilterColumns, LoadPass, MorselData};
use crate::source::{BoundLayout, ScanSource};
use crate::worker::WorkerTeam;
use htap_obs::EventKind;
use htap_storage::DataType;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Split the columns one pipeline reads into `(numeric, keys)` load lists.
/// Aggregate inputs load as numeric `f64` lanes, the only type the register
/// programs evaluate. Every join-key column — plain, inside a computed key
/// or an element of a tuple — and every `group_by` column loads through the
/// exact `i64` key path, and so does an integer filter column no aggregate
/// reads: it compares in place (`v as f64` against the literal, as a
/// numeric load would), with no conversion pass. A filter column an
/// aggregate also reads, or one that is
/// not an integer column in every segment of `source`, stays numeric. A
/// column on both lists loads in both representations and is byte-accounted
/// once (the bind deduplicates the accessed set).
fn split_read_columns(
    source: &ScanSource,
    filters: &[Predicate],
    aggregates: &[AggExpr],
    key_exprs: &[&ScalarExpr],
    group_by: &[String],
) -> (Vec<String>, Vec<String>) {
    let integer = |name: &str| {
        source.segments.iter().all(|seg| {
            let schema = seg.table.schema();
            schema
                .column_index(name)
                .is_some_and(|i| matches!(schema.column(i).dtype, DataType::I64 | DataType::I32))
        })
    };
    let mut numeric: Vec<String> = aggregates.iter().flat_map(AggExpr::columns).collect();
    let mut keys: Vec<String> = group_by.to_vec();
    keys.extend(key_exprs.iter().flat_map(|e| e.columns()));
    for p in filters {
        if numeric.contains(&p.column) || !integer(&p.column) {
            numeric.push(p.column.clone());
        } else {
            keys.push(p.column.clone());
        }
    }
    for list in [&mut numeric, &mut keys] {
        list.sort();
        list.dedup();
    }
    (numeric, keys)
}

/// The bind-time product of one pipeline: its source, load lists, resolved
/// segment layout, the compiled filter/probe-key/aggregate programs and the
/// build tables its probes look into. Built once per query; shared read-only
/// by every worker.
pub(super) struct Pipeline<'q> {
    pub source: &'q ScanSource,
    numeric: Vec<String>,
    keys: Vec<String>,
    layout: BoundLayout,
    pub pool: ProgramPool,
    filters: Vec<CompiledPredicate>,
    /// The load-list slots `filters` read: a morsel loads these first and
    /// the rest only if a row survives.
    filter_columns: FilterColumns,
    /// Probe stages in execution order: compiled key (a tuple folded over
    /// its build's box), probed build table.
    pub probes: Vec<(JoinKey, &'q JoinTable)>,
    pub aggs: CompiledAggs,
}

impl<'q> Pipeline<'q> {
    /// Bind `input` over `source`. Besides the filters and probe keys of the
    /// stream itself, the load lists cover what the pipeline's sink reads:
    /// the `build_keys` of a join build, the `aggregates` and `group_by`
    /// columns of a root.
    pub fn bind(
        source: &'q ScanSource,
        input: &PipelineSpec,
        built: &'q [Built],
        build_keys: &[ScalarExpr],
        aggregates: &[AggExpr],
        group_by: &[String],
    ) -> Result<Self, OlapError> {
        let key_exprs: Vec<&ScalarExpr> = build_keys
            .iter()
            .chain(input.probes.iter().flat_map(|p| &p.keys))
            .collect();
        let (numeric, keys) =
            split_read_columns(source, &input.filters, aggregates, &key_exprs, group_by);
        let numeric_refs: Vec<&str> = numeric.iter().map(String::as_str).collect();
        let key_refs: Vec<&str> = keys.iter().map(String::as_str).collect();
        // A column serving both as filter/aggregate input and as key is
        // byte-accounted once, not twice.
        let mut accessed = [numeric_refs.as_slice(), key_refs.as_slice()].concat();
        accessed.sort_unstable();
        accessed.dedup();
        let layout = source.bind_columns(&numeric_refs, &key_refs, &accessed)?;
        let mut pool = ProgramPool::default();
        let resolver = ColumnResolver::new(&numeric, &keys);
        let filters = pool.compile_filters(&input.filters, &resolver)?;
        let mut filter_columns = FilterColumns {
            num: vec![false; numeric.len()],
            key: vec![false; keys.len()],
        };
        for pred in &filters {
            match pred.col {
                ColRef::Num(c) => filter_columns.num[c as usize] = true,
                ColRef::Key(c) => filter_columns.key[c as usize] = true,
            }
        }
        let aggs = pool.compile_aggregates(aggregates, &resolver)?;
        let probes = input
            .probes
            .iter()
            .map(|p| {
                let build = &built[p.build];
                let key = match (&build.fold, &p.keys[..]) {
                    (Some(fold), tuple) => fold.fold(&tuple_slots(tuple, &keys)?)?,
                    (None, [key]) => JoinKey::single(key, &keys)?,
                    (None, _) => {
                        return Err(OlapError::InvalidDag {
                            reason: "a tuple probe of a build without a box".into(),
                        })
                    }
                };
                Ok((key, &build.table))
            })
            .collect::<Result<_, OlapError>>()?;
        Ok(Pipeline {
            source,
            numeric,
            keys,
            layout,
            pool,
            filters,
            filter_columns,
            probes,
            aggs,
        })
    }

    /// Compile one more key expression over the bound load lists (the build
    /// sink's key; its columns were put on the lists by [`Pipeline::bind`]).
    pub fn compile_key(&self, expr: &ScalarExpr) -> Result<JoinKey, OlapError> {
        JoinKey::single(expr, &self.keys)
    }

    /// The key-list slots of a tuple key's elements (see [`tuple_slots`]).
    pub fn tuple_slots(&self, tuple: &[ScalarExpr]) -> Result<Vec<u32>, OlapError> {
        tuple_slots(tuple, &self.keys)
    }

    /// The name of the column at key-list slot `slot`.
    pub fn key_column(&self, slot: u32) -> &str {
        &self.keys[slot as usize]
    }

    /// Key-list slot of a column loaded through the key path. The bind
    /// phase puts every group key on the key load list, so a miss means a
    /// mis-wired plan — reported as a typed error, not a worker abort.
    pub fn key_slot(&self, name: &str) -> Result<usize, OlapError> {
        self.keys
            .iter()
            .position(|c| c == name)
            .ok_or_else(|| OlapError::MissingColumn {
                column: name.to_string(),
            })
    }

    /// Bytes of the fully materialised source over the accessed columns
    /// (columnar accounting) — the broadcast size the cost model charges a
    /// build side.
    pub fn source_bytes(&self) -> u64 {
        let width = self
            .layout
            .segments
            .first()
            .map_or(0, |seg| seg.accessed_row_bytes);
        self.source.total_rows() * width
    }
}

/// One claimed morsel on its way through probe chain and sink: the loaded
/// columns, the worker's register file and hash buffer, and the bound
/// pipeline whose programs run over them.
pub(super) struct MorselCtx<'a, 'env> {
    /// Index of the morsel within the pipeline (the merge order).
    pub idx: usize,
    /// Rows in the morsel.
    pub rows: usize,
    pub pipe: &'a Pipeline<'a>,
    pub data: &'a MorselData<'env>,
    pub regs: &'a mut [Vec<f64>],
    pub hashes: &'a mut Vec<u64>,
    /// Computed-key lanes (see [`super::probe::key_vals`]).
    pub keys: &'a mut Vec<i64>,
}

/// Where a pipeline's surviving rows end up: a join-build table, scalar
/// counts and lanes or per-morsel group tables. A sink owns its per-worker
/// partial output and the merge of the partials — nothing of the scan,
/// filter, probe or accounting around them.
pub(super) trait Sink: Sync {
    /// One worker's output, built once and reused for every morsel the
    /// worker claims.
    type Partial: Send;
    /// The merged product of the pipeline.
    type Output;
    /// Root pipelines count their survivors as `tuples_selected` and trace
    /// the merge as a phase of its own; a build is one `PipelineBuild`
    /// interval, table union included.
    const ROOT: bool;

    /// A fresh partial for one of the `workers` workers that claim
    /// `morsels`.
    fn partial(&self, morsels: &[Morsel], workers: usize) -> Self::Partial;

    /// Fold one morsel's survivors into the worker's partial.
    fn consume(
        &self,
        cx: &mut MorselCtx<'_, '_>,
        survivors: Survivors<'_>,
        out: &mut Self::Partial,
    );

    /// Merge the per-worker partials (worker order; per-morsel pieces carry
    /// their morsel index) into the pipeline's output.
    fn merge(&self, partials: Vec<Self::Partial>) -> Self::Output;

    /// One more arg of the pipeline's `olap.pipeline` span, if the sink has
    /// a bind-time decision to report.
    fn span_arg(&self) -> Option<(&'static str, f64)> {
        None
    }
}

impl QueryExecutor {
    /// Drive one bound pipeline into `sink`, summing the workers' measured
    /// work into `work`. The result is the same — bit for bit — for every
    /// team size: sinks keep per-morsel partials and merge them in morsel
    /// order (or, for build tables, by an order-insensitive union).
    pub(super) fn run_pipeline<S: Sink>(
        &self,
        pipe: &Pipeline<'_>,
        team: &WorkerTeam,
        sink: &S,
        work: &mut WorkProfile,
    ) -> S::Output {
        let morsels = pipe.source.morsels(self.block_rows);
        let team = team.capped(morsels.len());
        let make = || {
            let scratch = ExecScratch::for_pipeline(
                pipe.pool.n_regs as usize,
                pipe.numeric.len(),
                pipe.keys.len(),
            );
            (
                scratch,
                (sink.partial(&morsels, team.size()), WorkProfile::default()),
            )
        };
        let on = htap_obs::enabled();
        let t_start = if on { htap_obs::now_us() } else { 0 };
        let outs = claim_morsels(
            &team,
            &morsels,
            sink.span_arg(),
            make,
            |idx, morsel, scratch, (out, profile)| {
                let rows = morsel.row_count();
                scratch.ensure_regs(rows);
                let (source, layout, split) = (pipe.source, &pipe.layout, &pipe.filter_columns);
                let data = &mut scratch.data;
                load_morsel(source, layout, morsel, data, split, LoadPass::Filters);
                let sel = apply_filters(&pipe.filters, data, rows, &mut scratch.sel);
                // A morsel the filters emptied loads nothing more: probe
                // chain and sink get an empty selection and read no column.
                if sel.is_none_or(|ids| !ids.is_empty()) {
                    load_morsel(source, layout, morsel, data, split, LoadPass::Rest);
                }
                let mut cx = MorselCtx {
                    idx,
                    rows,
                    pipe,
                    data: &scratch.data,
                    regs: &mut scratch.regs,
                    hashes: &mut scratch.hashes,
                    keys: &mut scratch.keys,
                };
                let (probes, survivors) = probe_chain(&mut cx, sel, &mut scratch.probe);
                let row_bytes = pipe.layout.segments[morsel.segment].accessed_row_bytes;
                profile.absorb_morsel_rows(morsel, row_bytes);
                profile.probes += probes;
                if S::ROOT {
                    profile.tuples_selected += survivors.tuple_count(rows);
                }
                sink.consume(&mut cx, survivors, out);
            },
        );
        let t_merge = if on { htap_obs::now_us() } else { 0 };
        let partials = outs
            .into_iter()
            .map(|(out, profile)| {
                work.merge(&profile);
                out
            })
            .collect();
        let output = sink.merge(partials);
        if on {
            let t_end = htap_obs::now_us();
            let record = |kind, from: u64, to: u64| {
                htap_obs::record_thread(kind, from, morsels.len() as u64, to.saturating_sub(from));
            };
            if S::ROOT {
                record(EventKind::PipelineProbe, t_start, t_merge);
                record(EventKind::PipelineMerge, t_merge, t_end);
            } else {
                record(EventKind::PipelineBuild, t_start, t_end);
            }
        }
        output
    }
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

/// The morsel-claim loop: the team's workers (the caller caps the team at one
/// per morsel) claim morsels from a shared atomic cursor (dynamic load
/// balancing), except that worker 0 — the posting thread — starts with
/// morsel 0, which no other worker claims; each worker builds its scratch
/// and output once via `make` and reuses them for every morsel it claims;
/// `step` processes one claimed morsel. Per-worker outputs are returned in
/// worker order.
///
/// When tracing is enabled (checked once per pipeline, never per morsel),
/// each claimed morsel records one [`EventKind::Morsel`] interval into the
/// claiming worker's event ring — timestamps are taken around the whole
/// `step`, outside the kernel loops — and the loop publishes an
/// `olap.pipeline` span — carrying `span_arg`, if any — with per-worker
/// rollup children (each says whether its worker ran pinned to its core).
fn claim_morsels<S, O, M, F>(
    team: &WorkerTeam,
    morsels: &[Morsel],
    span_arg: Option<(&'static str, f64)>,
    make: M,
    step: F,
) -> Vec<O>
where
    O: Send,
    M: Fn() -> (S, O) + Sync,
    F: Fn(usize, &Morsel, &mut S, &mut O) + Sync,
{
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
    // Morsel 0 is worker 0's: the posting thread always has work, however
    // late the helpers wake.
    let cursor = AtomicUsize::new(1);
    let results = team.run(|w| {
        let (mut scratch, mut out) = make();
        let mut idx = if w == 0 {
            0
        } else {
            cursor.fetch_add(1, Ordering::Relaxed)
        };
        while idx < morsels.len() {
            if on {
                let t0 = htap_obs::now_us();
                step(idx, &morsels[idx], &mut scratch, &mut out);
                let t1 = htap_obs::now_us();
                htap_obs::record_olap(
                    w,
                    EventKind::Morsel,
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
                step(idx, &morsels[idx], &mut scratch, &mut out);
            }
            idx = cursor.fetch_add(1, Ordering::Relaxed);
        }
        out
    });
    if guard.is_active() {
        guard.arg("pipeline", pipeline as f64);
        guard.arg("morsels", morsels.len() as f64);
        guard.arg("workers", team.size() as f64);
        if let Some((key, value)) = span_arg {
            guard.arg(key, value);
        }
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
                    ("pinned", f64::from(u8::from(team.pinned(w)))),
                ],
            );
        }
    }
    results
}
