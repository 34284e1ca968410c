//! Building the system under test: the sized configuration of each workload
//! and the timed set-up (build + load + one warm round).

use crate::host;
use htap_core::{ChConfig, HtapConfig, HtapSystem, QueryId, Schedule, SchedulerPolicy, Topology};
use std::time::Instant;

/// The analytical mix, in issue order; one round (sequence) runs each once.
pub const QUERIES: [QueryId; 7] = [
    QueryId::Q1,
    QueryId::Q3,
    QueryId::Q4,
    QueryId::Q6,
    QueryId::Q12,
    QueryId::Q14,
    QueryId::Q19,
];

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS_PER_RUN: usize = 3;

/// How the simulated cores are split, so that the threads runnable at once
/// never exceed the host's CPUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sides {
    /// Only one engine works (OLAP-only or OLTP-only): it gets a full socket
    /// of `min(nproc, 4)` cores and nothing is lent.
    One,
    /// Both engines work at once: `clamp(nproc/2, 1, 4)` cores per socket,
    /// half of the OLTP socket lendable to OLAP in S3-NI (none on a 2-CPU
    /// host, where 2×2 threads on 2 CPUs made latencies swing run to run).
    Both,
}

/// The configuration of a workload at CH scale factor `sf`.
pub fn config(sf: f64, seed: u64, sides: Sides) -> HtapConfig {
    let nproc = host::nproc();
    let cores_per_socket = match sides {
        Sides::One => nproc.min(4),
        Sides::Both => (nproc / 2).clamp(1, 4),
    };
    let elastic_cores = match sides {
        Sides::One => 0,
        Sides::Both => cores_per_socket / 2,
    };
    HtapConfig {
        topology: Topology {
            sockets: 2,
            cores_per_socket: cores_per_socket as u16,
            ..Topology::two_socket()
        },
        oltp_min_cores_per_socket: 1,
        elastic_cores,
        chbench: ChConfig {
            warehouses: 4,
            customers_per_district: 300,
            items: 10_000,
            seed,
            ..ChConfig::scale_factor(sf)
        },
        schedule: Schedule::Adaptive(SchedulerPolicy::adaptive_non_isolated(0.5)),
        ..HtapConfig::small()
    }
}

/// The SQL text of every query of the mix.
pub fn query_texts() -> Vec<String> {
    QUERIES.iter().map(|q| q.sql()).collect()
}

/// One warm round: every query once, so the first query's full ETL, lazy
/// allocations and cold caches land in set-up time, not in the first samples.
pub fn warm_round(system: &HtapSystem) -> Result<(), String> {
    for sql in query_texts() {
        system.execute_sql(&sql).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Run `build` [`SETUPS_PER_RUN`] times, dropping all but the last system.
/// Returns the last system and the median set-up time in seconds.
pub fn timed_setups<T>(
    mut build: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut seconds = Vec::with_capacity(SETUPS_PER_RUN);
    let mut last = None;
    for i in 0..SETUPS_PER_RUN {
        // Drop the previous system first: two live copies would double the
        // peak memory the run reports.
        drop(last.take());
        let t = Instant::now();
        last = Some(build(i)?);
        seconds.push(t.elapsed().as_secs_f64());
    }
    let system = last.ok_or_else(|| "no set-up ran".to_string())?;
    Ok((system, crate::stats::median(&seconds)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configurations_validate_and_respect_the_cpu_count() {
        for sides in [Sides::One, Sides::Both] {
            let cfg = config(0.001, 7, sides);
            cfg.validate().unwrap();
            assert_eq!(cfg.chbench.seed, 7);
            let per_socket = cfg.topology.cores_per_socket as usize;
            assert!(cfg.elastic_cores < per_socket);
            let runnable = match sides {
                Sides::One => per_socket,
                Sides::Both => 2 * per_socket,
            };
            assert!(runnable <= host::nproc().max(2));
        }
    }

    #[test]
    fn setups_report_the_median_and_keep_the_last() {
        let mut built = Vec::new();
        let (last, secs) = timed_setups(|i| {
            built.push(i);
            Ok(i)
        })
        .unwrap();
        assert_eq!((last, built.len()), (SETUPS_PER_RUN - 1, SETUPS_PER_RUN));
        assert!(secs >= 0.0);
        assert!(timed_setups::<()>(|_| Err("boom".into())).is_err());
    }
}
