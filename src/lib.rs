//! # adaptive-htap
//!
//! Umbrella crate for the reproduction of *Adaptive HTAP through Elastic
//! Resource Scheduling* (Raza et al., SIGMOD 2020).
//!
//! It re-exports the public API of every component so the examples and
//! integration tests in this repository read like downstream user code:
//!
//! * [`core`](htap_core) — the assembled system ([`htap_core::HtapSystem`]).
//! * [`sim`](htap_sim) — the simulated NUMA machine and cost models.
//! * [`storage`](htap_storage) — twin-instance columnar storage.
//! * [`oltp`](htap_oltp) / [`olap`](htap_olap) — the two engines.
//! * [`rde`](htap_rde) — the resource and data exchange engine, and the one
//!   query call (`RdeEngine::run_query`) every query of the system, the
//!   figure binaries and the baselines runs through.
//! * [`scheduler`](htap_scheduler) — Algorithm 2 and the static schedules.
//! * [`chbench`](htap_chbench) — the CH-benCHmark workload.
//! * [`sql`](htap_sql) — the SQL frontend (parser, binder, cost-aware
//!   planner) lowering query text onto the engine's plans.
//! * [`durability`](htap_durability) — write-ahead log with group commit,
//!   column-segment checkpoints, crash recovery, fault-injectable storage.
//! * [`baselines`](htap_baselines) — the Figure-1 ETL and CoW baselines (the
//!   ETL baseline is the system's isolated state S2).
//! * [`obs`](htap_obs) — always-on tracing: per-worker event rings and span
//!   trees (each `rde.schedule` span records one scheduling decision), and a
//!   Chrome `trace_event` exporter that derives the RDE decision track from
//!   them (see the *Observability* section of ARCHITECTURE.md and
//!   `examples/trace_viewer.rs`).
//!
//! The crate layering (sim → storage → engines → rde → scheduler → core) and
//! the morsel-driven parallel execution flow are documented in
//! [`ARCHITECTURE.md`](https://github.com/paper-repo-growth/adaptive-htap/blob/main/ARCHITECTURE.md)
//! at the repository root. Its *Static analysis & concurrency checking*
//! section covers `htap-lint` (the workspace determinism linter under
//! `crates/lint`, rules L1–L5 and the `lint:allow` syntax) and the runtime
//! lock-order checker built into `shims/parking_lot`, which is live in
//! every debug-build test run. Its *Durability & crash recovery* section
//! documents the WAL record format, the group-commit protocol, how
//! checkpoints ride the switch gate's quiescence window, the
//! WAL-before-apply recovery invariant, and the failpoint catalog behind
//! `tests/crash_recovery.rs`.

pub use htap_baselines as baselines;
pub use htap_chbench as chbench;
pub use htap_core as core;
pub use htap_durability as durability;
pub use htap_obs as obs;
pub use htap_olap as olap;
pub use htap_oltp as oltp;
pub use htap_rde as rde;
pub use htap_scheduler as scheduler;
pub use htap_sim as sim;
pub use htap_sql as sql;
pub use htap_storage as storage;

pub use htap_core::{
    HtapConfig, HtapSystem, MixedWorkload, QueryId, Schedule, SqlRunError, SystemState,
};

#[cfg(test)]
mod tests {
    #[test]
    fn umbrella_reexports_compose() {
        let cfg = crate::HtapConfig::tiny();
        assert!(cfg.validate().is_ok());
        assert_eq!(crate::SystemState::S2Isolated.label(), "S2");
    }
}
