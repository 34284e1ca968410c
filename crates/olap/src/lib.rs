//! Vectorised, NUMA-aware OLAP query engine (§3.3 of the paper).
//!
//! The engine follows the Proteus design the paper builds on, with one
//! substitution: instead of JIT code generation, the operators are
//! specialised at compile time (monomorphised vectorised kernels, register
//! programs compiled at bind time) and process one block of tuples at a time
//! without materialising intermediate results (ARCHITECTURE.md, "Vectorized
//! execution pipeline").
//!
//! Components:
//!
//! * [`source`] — access-path plugins. A query reads each relation through a
//!   [`source::ScanSource`], which is either a single contiguous memory area
//!   (the OLAP instance or an OLTP snapshot) or a partitioned set of areas
//!   (the *split-access* method: OLAP-local rows plus the fresh tail from the
//!   OLTP snapshot).
//! * [`morsel`] — NUMA-tagged morsels, the claimable work units every scan is
//!   split into (the scheduling granularity of the parallel pipelines).
//! * [`block`], [`expr`] — typed tuple blocks (the oracle's row source) and
//!   the plan-level scalar/predicate/aggregate expressions plus the folds
//!   of the running values aggregates share ([`expr::Fold`]); production
//!   pipelines compile the expressions into the programs below.
//! * [`program`] (private), [`hashtable`], [`scratch`] (private) — the
//!   vectorized hot path: bind-time register programs over column indices,
//!   join keys folded into exact `i64` affine forms ([`AffineKey`]),
//!   open-addressing group/join tables with inline flat keys, and per-worker
//!   reusable execution scratch (selection vectors, registers, borrowed
//!   column slices) so the steady-state morsel loop does not allocate.
//! * [`kernels`] — the chunked, autovectorizer-friendly inner loops the hot
//!   path runs: filter comparisons producing selection vectors, batch
//!   multiplicative key hashing, and sequential-order aggregate folds, each
//!   with a scalar twin it must match bit for bit. Grouped partials are
//!   merged radix-partitioned by key hash (see ARCHITECTURE.md, "Chunked
//!   kernels & radix-partitioned aggregation").
//! * [`plan`] — the one plan IR, [`QueryPlan`]: the tree of pipelines a
//!   query runs, built by value — a [`Pipeline`] scans one relation,
//!   filters and probes, and ends in a [`Build`] that exactly one later
//!   probe owns, or in the scalar or grouped sink (plus the
//!   having/sort/limit finishers of a grouped one). `finish()` checks what
//!   the types cannot (key arity, finisher slots) once, so a plan value is
//!   executable by construction and lists the relations and columns it
//!   touches, which is exactly what the scheduler needs for per-query
//!   freshness (Algorithm 2). The hash probe is a true
//!   multiplicity-preserving inner join (duplicate build keys contribute
//!   every matching tuple). See ARCHITECTURE.md, "Pipeline-tree plan IR".
//! * [`reference`] — a naive row-at-a-time interpreter over the same plans,
//!   the oracle of the differential test suite
//!   (`tests/differential_exec.rs`) for result rows *and* work accounting;
//!   shares the plan with the engine but none of its evaluation machinery,
//!   and is never used on the production query path.
//! * [`exec`] — the morsel-driven parallel executor: one pipeline driver
//!   (bind, morsel claims, filter, probe chain, accounting, tracing) feeding
//!   a join-build, scalar-aggregate or grouped-aggregate sink, one module
//!   per operator; besides results it produces a [`exec::WorkProfile`]
//!   (bytes touched per socket, tuples processed, join probes), accumulated
//!   per worker and summed, that the cost model converts into modelled time.
//! * [`error`] — the typed [`OlapError`] every fallible query-path step
//!   reports.
//! * [`worker`], [`engine`] — the pipeline [`worker::WorkerTeam`] (sized by
//!   the core list the RDE engine granted: the posting thread runs worker 0,
//!   and long-lived helper threads, one per core id and pinned to it, run
//!   the rest) and the engine facade,
//!   which holds that grant and the engine-local OLAP storage instance that
//!   ETL fills.
//!
//! The crate layering and the execution flow are described in the repository's
//! `ARCHITECTURE.md`.

pub mod block;
pub mod engine;
pub mod error;
pub mod exec;
pub mod expr;
pub mod hashtable;
pub mod kernels;
pub mod morsel;
pub mod plan;
mod program;
pub mod reference;
mod scratch;
pub mod source;
pub mod worker;

pub use block::Block;
pub use engine::{OlapEngine, OlapStore};
pub use error::OlapError;
pub use exec::{QueryExecutor, QueryOutput, QueryResult, WorkProfile};
pub use expr::{AggExpr, CmpOp, Predicate, ScalarExpr};
pub use hashtable::{GroupTable, JoinTable};
pub use morsel::{split_morsels, Morsel};
pub use plan::{Build, GroupedPlan, HavingPred, Pipeline, QueryPlan, RowSlot, ScalarPlan, SortKey};
pub use program::AffineKey;
pub use reference::{execute_reference, execute_reference_with_work};
pub use source::{BoundLayout, ScanSegmentSource, ScanSource};
pub use worker::WorkerTeam;
