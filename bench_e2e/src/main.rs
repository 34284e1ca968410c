//! `bench_e2e` — the repository's end-to-end, layer-attributed HTAP
//! benchmark. See `README.md` beside this package and `BENCHMARK.json` at
//! the repository root.
//!
//! ```text
//! bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out FILE]
//! bench_e2e --smoke
//! bench_e2e --record FILE [--runs N] [--seed N] [--seconds S]
//! bench_e2e --compare PARENT.jsonl CHANGE.jsonl
//! bench_e2e --print-spec
//! ```

mod check;
mod compare;
mod host;
mod ingest;
mod json;
mod layers;
mod queries;
mod report;
mod setup;
mod spec;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use workloads::RunArgs;

/// What the command line asked for.
#[derive(Debug)]
enum Mode {
    Run(RunArgs),
    Smoke,
    Record {
        path: PathBuf,
        runs: usize,
        seed: u64,
        seconds: f64,
    },
    Compare {
        parent: PathBuf,
        change: PathBuf,
    },
    PrintSpec,
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = spec::RUN_SECONDS as f64;
    let mut trace = false;
    let mut smoke_sizes = false;
    let mut trace_out = None;
    let mut runs = 10usize;
    let mut record = None;
    let mut it = args.iter();
    let value = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |text: String, flag: &str| -> Result<f64, String> {
        text.parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && *v >= 0.0)
            .ok_or_else(|| format!("{flag}: {text:?} is not a non-negative number"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => workload = Some(value(&mut it, arg)?),
            "--seed" => {
                let text = value(&mut it, arg)?;
                seed = text
                    .parse()
                    .map_err(|_| format!("--seed: {text:?} is not a whole number"))?;
            }
            "--seconds" => {
                seconds = number(value(&mut it, arg)?, arg)?;
                if !(0.05..=600.0).contains(&seconds) {
                    return Err(format!("--seconds: {seconds} is outside 0.05..=600"));
                }
            }
            "--trace" => {
                trace = match value(&mut it, arg)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value(&mut it, arg)?)),
            "--smoke-sizes" => smoke_sizes = true,
            "--runs" => {
                runs = number(value(&mut it, arg)?, arg)? as usize;
                if !(1..=100).contains(&runs) {
                    return Err(format!("--runs: {runs} is outside 1..=100"));
                }
            }
            "--record" => record = Some(PathBuf::from(value(&mut it, arg)?)),
            "--smoke" => return Ok(Mode::Smoke),
            "--print-spec" => return Ok(Mode::PrintSpec),
            "--compare" => {
                return Ok(Mode::Compare {
                    parent: PathBuf::from(value(&mut it, arg)?),
                    change: PathBuf::from(value(&mut it, arg)?),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(path) = record {
        return Ok(Mode::Record {
            path,
            runs,
            seed,
            seconds,
        });
    }
    let workload =
        workload.ok_or("pass --workload <name>, --smoke, --record, --compare or --print-spec")?;
    if !spec::WORKLOADS.iter().any(|w| w.name == workload) {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("unknown workload {workload:?}; one of {names:?}"));
    }
    Ok(Mode::Run(RunArgs {
        workload,
        seed,
        seconds,
        trace,
        smoke_sizes,
        trace_out,
    }))
}

/// Run one workload and print every metric by name with its unit, then the
/// contract's JSON line last.
fn run_and_print(args: &RunArgs) -> Result<(), String> {
    let report = workloads::run(args)?;
    println!(
        "# bench_e2e {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for note in &report.notes {
        println!("# {note}");
    }
    for failure in &report.check_failures {
        println!("# FAILED {failure}");
    }
    println!(
        "# attempted {} failed {} (failed_share {:.6}) correct {}",
        report.attempted,
        report.failed,
        report.failed_share(),
        report.correct()
    );
    let metrics = report.contract_metrics(args.trace)?;
    for (name, value, unit) in &metrics {
        println!("{name:<40} {value:>18.6} {unit}");
    }
    println!("{}", report.result_line(args.trace)?);
    Ok(())
}

fn read(path: &std::path::Path) -> Result<compare::Record, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    compare::parse_record(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&args).and_then(|mode| match mode {
        Mode::Run(run) => run_and_print(&run).map(|()| true),
        Mode::Smoke => compare::smoke().map(|()| true),
        Mode::Record {
            path,
            runs,
            seed,
            seconds,
        } => compare::record(&path, runs, seed, seconds).map(|()| true),
        Mode::Compare { parent, change } => Ok(!compare::compare(&read(&parent)?, &read(&change)?)),
        Mode::PrintSpec => {
            print!("{}", spec::benchmark_json().render_pretty());
            Ok(true)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn contract_command_line_parses() {
        let mode =
            parse_args(&args("--workload htap_mix --seed 7 --seconds 10 --trace 1")).unwrap();
        match mode {
            Mode::Run(run) => {
                assert_eq!(
                    (run.workload.as_str(), run.seed, run.seconds, run.trace),
                    ("htap_mix", 7, 10.0, true)
                );
                assert!(!run.smoke_sizes && run.trace_out.is_none());
            }
            other => panic!("expected a run, got {other:?}"),
        }
        assert!(matches!(parse_args(&args("--smoke")), Ok(Mode::Smoke)));
        assert!(matches!(
            parse_args(&args("--compare a b")),
            Ok(Mode::Compare { .. })
        ));
        assert!(matches!(
            parse_args(&args("--record out.jsonl --runs 3")),
            Ok(Mode::Record { runs: 3, .. })
        ));
    }

    #[test]
    fn bad_command_lines_are_rejected_with_a_reason() {
        for bad in [
            "",
            "--workload nope",
            "--workload olap_scan --trace 2",
            "--workload olap_scan --seed x",
            "--workload olap_scan --seconds -1",
            "--workload olap_scan --seconds 0",
            "--workload",
            "--compare onlyone",
            "--frobnicate",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?} must be rejected");
        }
    }
}
