//! What one run reports: named metrics, operation counts and output checks,
//! printed for people first and as the contract's one-line JSON last.

use crate::json::Value;
use crate::spec;
use std::collections::BTreeMap;

/// The result of one run of one workload.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<&'static str, f64>,
    /// Operations attempted: queries, transactions and output checks.
    pub attempted: u64,
    /// Operations that failed: errored queries, aborted transactions, failed
    /// output checks.
    pub failed: u64,
    /// Failed output checks, for the log.
    pub check_failures: Vec<String>,
    /// Free-form lines for the log (sample counts, host, flush policy).
    pub notes: Vec<String>,
}

impl Report {
    /// Record metric `name`. A non-finite value is a harness bug and is
    /// reported as a failed check instead of reaching the JSON.
    pub fn set(&mut self, name: &'static str, value: f64) {
        if value.is_finite() {
            // `+ 0.0` turns the -0.0 an empty float sum yields into 0.0.
            self.metrics.insert(name, value + 0.0);
        } else {
            self.check_failures
                .push(format!("metric {name} is not finite"));
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Count one output check; `Err` carries what disagreed.
    pub fn check(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            self.check_failures.push(format!("{what}: {why}"));
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }

    /// Share of attempted operations that failed.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The metrics the contract asks for in this mode, in spec order: every
    /// end-to-end metric (each must have been measured and be non-zero), or
    /// every per-layer metric (0 where the layer is idle on this workload).
    pub fn contract_metrics(
        &self,
        trace: bool,
    ) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        if trace {
            return Ok(spec::PER_LAYER
                .iter()
                .map(|m| (m.name, self.get(m.name).unwrap_or(0.0), m.unit))
                .collect());
        }
        spec::END_TO_END
            .iter()
            .map(|m| match self.get(m.name) {
                Some(v) if v > 0.0 => Ok((m.name, v, m.unit)),
                other => Err(format!(
                    "end-to-end metric {} not measured: {other:?}",
                    m.name
                )),
            })
            .collect()
    }

    /// The contract's last line.
    pub fn result_line(&self, trace: bool) -> Result<String, String> {
        let metrics = self.contract_metrics(trace)?;
        Ok(Value::obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted.max(1) as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "metrics",
                Value::obj(metrics.into_iter().map(|(name, value, unit)| {
                    (
                        name,
                        Value::obj([("value", Value::Num(value)), ("unit", Value::str(unit))]),
                    )
                })),
            ),
        ])
        .render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn full_end_to_end() -> Report {
        let mut r = Report::default();
        for m in &spec::END_TO_END {
            r.set(m.name, 1.5);
        }
        r
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = full_end_to_end();
        r.attempted = 10;
        r.check("q1 vs oracle", Ok(()));
        let line = r.result_line(false).unwrap();
        let v = json::parse(&line).unwrap();
        let keys: Vec<&str> = v.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(11.0));
        let metrics = v.get("metrics").unwrap();
        assert_eq!(metrics.members().len(), spec::END_TO_END.len());
        let setup = metrics.get("setup_s").unwrap();
        assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
        assert_eq!(setup.get("value").and_then(Value::as_f64), Some(1.5));
    }

    #[test]
    fn failures_and_missing_metrics_are_not_hidden() {
        let mut r = full_end_to_end();
        r.check("rows", Err("1 != 2".into()));
        assert!(!r.correct());
        assert_eq!((r.attempted, r.failed), (1, 1));
        assert!(r.result_line(false).unwrap().contains("\"correct\":false"));
        r.set("ops_per_s", f64::NAN);
        assert!(r.check_failures.iter().any(|f| f.contains("ops_per_s")));
        let mut missing = Report::default();
        missing.set("setup_s", 1.0);
        assert!(missing.result_line(false).is_err());
        // Trace mode fills idle layers with 0 instead of failing.
        let traced = json::parse(&missing.result_line(true).unwrap()).unwrap();
        assert_eq!(
            traced.get("metrics").unwrap().members().len(),
            spec::PER_LAYER.len()
        );
    }
}
