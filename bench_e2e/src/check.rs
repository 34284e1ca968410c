//! Output checks: the system's query results against the row-at-a-time
//! oracle (`htap_olap::execute_reference`) over the same access paths, and
//! against each other across schedules.

use crate::report::Report;
use crate::setup::QUERIES;
use htap_core::{HtapSystem, Schedule, SystemState};
use htap_olap::QueryResult;

/// Relative tolerance for SUM/AVG: parallel partial sums associate
/// differently from the oracle's single pass (the tolerance
/// `tests/differential_exec.rs` uses). Keys and counts must match exactly.
pub const SUM_REL_TOL: f64 = 1e-9;

fn close(a: f64, b: f64, rel_tol: f64) -> bool {
    (a - b).abs() <= rel_tol * a.abs().max(b.abs()).max(1.0)
}

fn values_agree(a: &[f64], b: &[f64], rel_tol: f64, what: &str) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{what}: {} values vs {}", a.len(), b.len()));
    }
    match a.iter().zip(b).position(|(x, y)| !close(*x, *y, rel_tol)) {
        Some(i) => Err(format!("{what} value {i}: {} vs {}", a[i], b[i])),
        None => Ok(()),
    }
}

/// Whether two results agree: same shape, same group keys in the same order,
/// aggregates within `rel_tol` (0 = bit-identical).
pub fn results_agree(a: &QueryResult, b: &QueryResult, rel_tol: f64) -> Result<(), String> {
    match (a, b) {
        (QueryResult::Scalars(x), QueryResult::Scalars(y)) => values_agree(x, y, rel_tol, "scalar"),
        (QueryResult::Groups(x), QueryResult::Groups(y)) => {
            if x.len() != y.len() {
                return Err(format!("{} groups vs {}", x.len(), y.len()));
            }
            for (i, ((xk, xa), (yk, ya))) in x.iter().zip(y).enumerate() {
                if xk != yk {
                    return Err(format!("group {i}: key {xk:?} vs {yk:?}"));
                }
                values_agree(xa, ya, rel_tol, &format!("group {i}"))?;
            }
            Ok(())
        }
        _ => Err("result shapes differ".into()),
    }
}

/// Run `sql` through the SQL-text path and return its rows.
pub fn sql_result(system: &HtapSystem, sql: &str) -> Result<QueryResult, String> {
    system
        .execute_sql_with_output(sql)
        .map(|(_, output)| output.result)
        .map_err(|e| e.to_string())
}

/// The oracle's rows for `sql` over the access paths the scheduler hands out
/// right now. Only meaningful while no ingest runs.
pub fn oracle_result(system: &HtapSystem, sql: &str) -> Result<QueryResult, String> {
    let plan = system.plan_sql(sql).map_err(|e| e.to_string())?;
    let scheduled = system.with_scheduler(|s| s.schedule_query(&plan, false));
    htap_olap::execute_reference(&plan, &scheduled.sources).map_err(|e| e.to_string())
}

/// Every query of the mix, SQL text path against the oracle, under the
/// system's current schedule. The store must be quiescent.
pub fn check_against_oracle(report: &mut Report, system: &HtapSystem) {
    for query in QUERIES {
        let sql = query.sql();
        let outcome = sql_result(system, &sql).and_then(|engine| {
            let oracle = oracle_result(system, &sql)?;
            results_agree(&engine, &oracle, SUM_REL_TOL)
        });
        report.check(&format!("{} vs oracle", query.label()), outcome);
    }
}

/// Every query of the mix must give the same rows under S2 (ETL, OLAP-local
/// scan), S3-IS (split access) and the oracle. Restores the schedule.
pub fn check_across_schedules(report: &mut Report, system: &HtapSystem) {
    let original = system.schedule();
    for query in QUERIES {
        let sql = query.sql();
        let under = |state| {
            system.set_schedule(Schedule::Static(state));
            sql_result(system, &sql)
        };
        let outcome = under(SystemState::S2Isolated).and_then(|s2| {
            let s3is = under(SystemState::S3HybridIsolated)?;
            results_agree(&s2, &s3is, SUM_REL_TOL).map_err(|e| format!("S2 vs S3-IS: {e}"))?;
            let oracle = oracle_result(system, &sql)?;
            results_agree(&s3is, &oracle, SUM_REL_TOL).map_err(|e| format!("S3-IS vs oracle: {e}"))
        });
        report.check(&format!("{} across schedules", query.label()), outcome);
    }
    system.set_schedule(original);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_agree_within_tolerance_only() {
        let a = QueryResult::Scalars(vec![1e9, 3.0]);
        let b = QueryResult::Scalars(vec![1e9 + 0.5, 3.0]);
        assert!(results_agree(&a, &b, SUM_REL_TOL).is_ok());
        assert!(results_agree(&a, &b, 0.0).is_err());
        assert!(results_agree(&a, &QueryResult::Scalars(vec![1e9]), SUM_REL_TOL).is_err());
        let g = |key: i64, v: f64| QueryResult::Groups(vec![(vec![key], vec![v])]);
        assert!(results_agree(&g(1, 2.0), &g(1, 2.0), 0.0).is_ok());
        assert!(results_agree(&g(1, 2.0), &g(2, 2.0), SUM_REL_TOL).is_err());
        assert!(results_agree(&g(1, 2.0), &g(1, 2.1), SUM_REL_TOL).is_err());
        assert!(results_agree(&g(1, 2.0), &a, SUM_REL_TOL).is_err());
    }
}
