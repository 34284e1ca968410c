//! Running the whole benchmark and comparing two records of it.
//!
//! `--record FILE` runs every workload `--runs` times, each run in a child
//! process of its own (fresh `htap_obs` registry, its own peak memory), each
//! with another seed, and appends one JSON line per run. `--compare A B`
//! applies each end-to-end metric's bound per (metric, workload). `--smoke`
//! runs every workload once per mode at tiny sizes with every check on.

use crate::host;
use crate::json::{self, Value};
use crate::spec::{self, Better};
use crate::stats::{iqr_share, median};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::process::Command;

/// Run one workload in a child process; returns the parsed result line.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke-sizes");
    }
    // `output` waits for the child and collects its pipes.
    let out = cmd
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{workload} exited with {}:\n{stdout}{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} printed nothing"))?;
    json::parse(last).map_err(|e| format!("{workload} result line: {e}"))
}

fn result_ok(result: &Value) -> Result<(), String> {
    let failed = result
        .get("failed")
        .and_then(Value::as_f64)
        .unwrap_or(f64::NAN);
    if result.get("correct").and_then(Value::as_bool) == Some(true) && failed == 0.0 {
        Ok(())
    } else {
        Err(format!("correct/failed: {}", result.render()))
    }
}

/// `--smoke`: all workloads, both modes, tiny sizes, one second each.
pub fn smoke() -> Result<(), String> {
    for w in &spec::WORKLOADS {
        for trace in [false, true] {
            let result = run_child(w.name, 1, 1.0, trace, true)?;
            result_ok(&result).map_err(|e| format!("{} trace={trace}: {e}", w.name))?;
            let metrics = result.get("metrics").map_or(0, |m| m.members().len());
            println!(
                "smoke {:<14} trace={} ok ({metrics} metrics)",
                w.name,
                u8::from(trace)
            );
        }
    }
    println!("smoke: every workload ran and every output check passed");
    Ok(())
}

/// `--record`: `runs` end-to-end runs and one traced run per workload.
pub fn record(path: &Path, runs: usize, base_seed: u64, seconds: f64) -> Result<(), String> {
    let mut file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut emit = |line: Value| {
        writeln!(file, "{}", line.render()).map_err(|e| format!("{}: {e}", path.display()))
    };
    let probe_dir = host::ScratchDir::create("record").map_err(|e| e.to_string())?;
    emit(Value::obj([(
        "host",
        Value::obj([
            ("nproc", Value::Num(host::nproc() as f64)),
            ("cpu_model", Value::str(host::cpu_model())),
            ("memcpy_gb_per_s", Value::Num(host::memcpy_gb_per_s())),
            (
                "fsync_p50_us",
                Value::Num(host::fsync_p50_us(probe_dir.path()).map_err(|e| e.to_string())?),
            ),
        ]),
    )]))?;
    for w in &spec::WORKLOADS {
        for run in 0..=runs {
            // The last run of each workload is the traced one.
            let trace = run == runs;
            let seed = base_seed + run as u64;
            let steal = host::StealWatch::start();
            let result = run_child(w.name, seed, seconds, trace, false)?;
            let steal_pct = steal.steal_pct();
            // A run disturbed by the hypervisor stays in the record, marked.
            let noisy = steal_pct > 2.0;
            println!(
                "{:<14} seed {seed} trace {} steal {steal_pct:.2}%{}",
                w.name,
                u8::from(trace),
                if noisy { " (noisy)" } else { "" }
            );
            emit(Value::obj([
                ("workload", Value::str(w.name)),
                ("seed", Value::Num(seed as f64)),
                ("trace", Value::Num(f64::from(u8::from(trace)))),
                ("steal_pct", Value::Num(steal_pct)),
                ("noisy", Value::Bool(noisy)),
                ("result", result),
            ]))?;
        }
    }
    Ok(())
}

/// Values of every end-to-end metric per (workload, metric), plus the failed
/// share per workload, from one record file.
#[derive(Debug, Default, PartialEq)]
pub struct Record {
    pub values: BTreeMap<(String, String), Vec<f64>>,
    pub failed_share: BTreeMap<String, f64>,
}

pub fn parse_record(text: &str) -> Result<Record, String> {
    let mut record = Record::default();
    let mut counts: BTreeMap<String, (f64, f64)> = BTreeMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let v = json::parse(line)?;
        let (Some(workload), Some(result)) =
            (v.get("workload").and_then(Value::as_str), v.get("result"))
        else {
            continue;
        };
        if v.get("trace").and_then(Value::as_f64) != Some(0.0) {
            continue;
        }
        let n = |key| result.get(key).and_then(Value::as_f64).unwrap_or(0.0);
        let entry = counts.entry(workload.to_string()).or_default();
        entry.0 += n("failed");
        entry.1 += n("attempted");
        for (name, metric) in result.get("metrics").map_or(&[][..], Value::members) {
            if let Some(value) = metric.get("value").and_then(Value::as_f64) {
                record
                    .values
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    for (workload, (failed, attempted)) in counts {
        record
            .failed_share
            .insert(workload, failed / attempted.max(1.0));
    }
    Ok(record)
}

/// The verdict on one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound: neither "unchanged"
    /// nor "regressed" can be claimed.
    Unresolved,
}

/// Judge `change` against `parent` for one metric: regressed when the median
/// is worse by more than `bound` (a share of the parent's median);
/// unresolved when either side's interquartile spread exceeds the bound,
/// unless every run of the change reads better than every run of the parent.
pub fn judge(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let (pm, cm) = (median(parent), median(change));
    if pm == 0.0 {
        return Verdict::Unresolved;
    }
    let worse_by = match better {
        Better::Lower => (cm - pm) / pm,
        Better::Higher => (pm - cm) / pm,
    };
    if iqr_share(parent).max(iqr_share(change)) > bound {
        let all_better = parent.iter().all(|p| {
            change.iter().all(|c| match better {
                Better::Lower => c < p,
                Better::Higher => c > p,
            })
        });
        return if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// `--compare`: one row per (workload, metric) with both medians, both
/// spreads, the change relative to the parent's median and the verdict.
/// Returns whether anything regressed.
pub fn compare(parent: &Record, change: &Record) -> bool {
    println!(
        "{:<14} {:<16} {:>12} {:>8} {:>12} {:>8} {:>9} {:>6}  verdict",
        "workload", "metric", "parent med", "iqr/med", "change med", "iqr/med", "change", "bound"
    );
    let mut regressed = false;
    for w in &spec::WORKLOADS {
        for m in &spec::END_TO_END {
            let key = (w.name.to_string(), m.name.to_string());
            let (Some(p), Some(c)) = (parent.values.get(&key), change.values.get(&key)) else {
                println!("{:<14} {:<16} missing on one side", w.name, m.name);
                regressed = true;
                continue;
            };
            let verdict = judge(p, c, m.better, m.bound);
            regressed |= verdict == Verdict::Regressed;
            let (pm, cm) = (median(p), median(c));
            println!(
                "{:<14} {:<16} {:>12.4} {:>7.1}% {:>12.4} {:>7.1}% {:>+8.1}% {:>5.0}%  {}  (n={}/{}, {}, of parent's {:.4} {})",
                w.name,
                m.name,
                pm,
                100.0 * iqr_share(p),
                cm,
                100.0 * iqr_share(c),
                100.0 * (cm - pm) / pm,
                100.0 * m.bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                },
                p.len(),
                c.len(),
                m.better.as_str(),
                pm,
                m.unit,
            );
        }
        let share = |r: &Record| r.failed_share.get(w.name).copied().unwrap_or(0.0);
        let rose = share(change) > share(parent);
        regressed |= rose;
        println!(
            "{:<14} {:<16} {:>12.6} {:>8} {:>12.6} {:>8} {:>9} {:>6}  {}",
            w.name,
            "failed_share",
            share(parent),
            "",
            share(change),
            "",
            "",
            "0%",
            if rose { "regressed" } else { "ok" }
        );
    }
    regressed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_bound_spread_and_dominance() {
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        let slower = [11.5, 11.6, 11.4, 11.5, 11.55];
        let faster = [9.0, 9.1, 8.9, 9.0, 9.05];
        assert_eq!(judge(&steady, &steady, Better::Lower, 0.08), Verdict::Ok);
        assert_eq!(
            judge(&steady, &slower, Better::Lower, 0.08),
            Verdict::Regressed
        );
        assert_eq!(judge(&steady, &slower, Better::Higher, 0.08), Verdict::Ok);
        assert_eq!(
            judge(&steady, &faster, Better::Higher, 0.08),
            Verdict::Regressed
        );
        // Spread wider than the bound: unresolved, unless every run of the
        // change beats every run of the parent.
        let noisy = [8.0, 12.0, 9.0, 11.0, 10.0];
        assert_eq!(
            judge(&noisy, &steady, Better::Lower, 0.08),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&noisy, &[5.0, 6.0, 5.5], Better::Lower, 0.08),
            Verdict::Ok
        );
        assert_eq!(
            judge(&[0.0], &[1.0], Better::Lower, 0.08),
            Verdict::Unresolved
        );
    }

    #[test]
    fn record_lines_parse_into_per_metric_values() {
        let line = |workload: &str, trace: u8, value: f64, failed: u64| {
            format!(
                "{{\"workload\":\"{workload}\",\"seed\":1,\"trace\":{trace},\"result\":{{\"correct\":true,\
                 \"attempted\":100,\"failed\":{failed},\"metrics\":{{\"latency_p50_ms\":{{\"value\":{value},\"unit\":\"ms\"}}}}}}}}"
            )
        };
        let text = [
            "{\"host\":{\"nproc\":2}}".to_string(),
            line("olap_scan", 0, 1.5, 0),
            line("olap_scan", 0, 2.5, 1),
            line("olap_scan", 1, 99.0, 0),
            String::new(),
        ]
        .join("\n");
        let record = parse_record(&text).unwrap();
        assert_eq!(
            record.values[&("olap_scan".to_string(), "latency_p50_ms".to_string())],
            [1.5, 2.5]
        );
        assert_eq!(record.failed_share["olap_scan"], 1.0 / 200.0);
        assert!(parse_record("{not json").is_err());
    }
}
