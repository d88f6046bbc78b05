//! The repo benchmark. See `README.md` beside this crate's manifest.
//!
//! ```text
//! diffserve-benchmark --workload W --seed S --seconds N --trace 0|1 [--smoke]
//! diffserve-benchmark [--seed S] [--seconds N] [--smoke] [--check-repeat]
//! ```
//!
//! With `--workload`, runs that workload in this process and prints its
//! result as one JSON object on the last line: every end-to-end metric
//! with `--trace 0`, every per-layer metric with `--trace 1`. Without it,
//! runs every workload both ways, each in a child process of its own.

mod drive;
mod host;
mod json;
mod layers;
mod measure;
mod metrics;
mod span;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Duration;

use json::{parse_result_line, result_line, Metric, RunResult};
use metrics::{Better, MetricDef};
use workloads::Workload;

/// The repo's experiment seed (`EXPERIMENT_SEED` in `crates/bench`).
const DEFAULT_SEED: u64 = 20250509;

const USAGE: &str = "usage: diffserve-benchmark [--workload fleet_diurnal|ladder_control|\
scenario_sweep|cluster_testbed] [--seed N] [--seconds N] [--trace 0|1] [--smoke] [--check-repeat]";

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    smoke: bool,
    check_repeat: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        check_repeat: false,
    };
    let mut args = args;
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                out.workload = Some(
                    Workload::parse(&name)
                        .ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?,
                );
            }
            "--seed" => {
                out.seed = value()?
                    .parse()
                    .map_err(|e| format!("--seed: {e}\n{USAGE}"))?;
            }
            "--seconds" => {
                out.seconds = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}\n{USAGE}"))?,
                );
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}\n{USAGE}")),
                };
            }
            "--smoke" => out.smoke = true,
            "--check-repeat" => out.check_repeat = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    host::keep_freed_memory();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let seconds = args
        .seconds
        .unwrap_or(if args.smoke { 1 } else { metrics::RUN_SECONDS });
    let budget = Duration::from_secs(seconds);
    match args.workload {
        Some(workload) if args.trace => run_traced(workload, args.seed, args.smoke),
        Some(workload) => run_untraced(workload, args.seed, budget, args.smoke),
        None => run_suite(args.seed, seconds, args.smoke, args.check_repeat),
    }
}

/// Where results and traces go: `out/` beside this crate's manifest.
fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

/// Pairs every metric of `defs` with its measured value. With `positive`, a
/// value that is zero or not finite is an error (end-to-end metrics are
/// never 0); otherwise a metric nothing measured on this workload reads 0.
fn tabulate(
    defs: &[MetricDef],
    values: &[(&'static str, f64)],
    positive: bool,
    errors: &mut Vec<String>,
) -> Vec<Metric> {
    for (name, _) in values {
        assert!(
            defs.iter().any(|def| def.name == *name),
            "{name} is measured but not in the metric table"
        );
    }
    defs.iter()
        .map(|def| {
            let measured = values.iter().find(|(name, _)| *name == def.name);
            let value = match measured {
                Some(&(_, value)) => value,
                None if positive => f64::NAN,
                None => 0.0,
            };
            if !value.is_finite() || (positive && value <= 0.0) {
                errors.push(format!("{} is {value}", def.name));
            }
            Metric {
                name: def.name.to_string(),
                value,
                unit: def.unit.to_string(),
            }
        })
        .collect()
}

/// Prints the metrics by name with their units, then the result line.
/// Returns the process exit code: nonzero if any output check failed.
fn report(checked: measure::Checked, metrics: Vec<Metric>) -> ExitCode {
    let result = RunResult {
        correct: checked.errors.is_empty(),
        attempted: checked.attempted,
        failed: checked.failed,
        metrics,
    };
    for m in &result.metrics {
        println!("{:<40} {:>18.6} {}", m.name, m.value, m.unit);
    }
    for error in &checked.errors {
        eprintln!("CHECK FAILED: {error}");
    }
    println!("{}", result_line(&result));
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_untraced(workload: Workload, seed: u64, budget: Duration, smoke: bool) -> ExitCode {
    // One round of set-up before the repetitions, one after each of them;
    // `setup_s` is the fastest.
    let (inputs, first) = measure::set_up(workload, seed, smoke);
    let mut setup_secs = vec![first.secs()];
    let run = measure::run_reps(&inputs, budget, || {
        setup_secs.push(measure::set_up(workload, seed, smoke).1.secs());
    });
    let reps = &run.timed;
    let mut checked = measure::check(&inputs, &run.all());
    let values = measure::end_to_end(&inputs, reps, &setup_secs, run.peak_rss_mb);
    let metrics = tabulate(metrics::END_TO_END, &values, true, &mut checked.errors);

    println!("{}: {}", workload.name(), workload.why());
    println!(
        "seed {seed}, {} threads, {} timed repetitions{}, {} queries each, \
         report_fingerprint {:016x}",
        if workload.parallel() {
            measure::threads()
        } else {
            1
        },
        reps.len(),
        if run.warm_up.is_some() {
            " after a warm-up"
        } else {
            ""
        },
        measure::queries_per_rep(&inputs.jobs, &reps[0]),
        checked.report_fingerprint,
    );
    let walls: Vec<String> = reps.iter().map(|r| format!("{:.3}", r.wall_secs)).collect();
    println!("repetition walls (s): {}", walls.join(" "));
    report(checked, metrics)
}

/// The traced run: set-up once, an optional warm-up, one untraced and one
/// traced repetition (the sweep adds one on a single thread), then the
/// layer probes. The spans go to `out/trace-<workload>.jsonl`.
fn run_traced(workload: Workload, seed: u64, smoke: bool) -> ExitCode {
    let mut tracer = span::Tracer::new();
    let (inputs, setup) = measure::set_up(workload, seed, smoke);
    let jobs = inputs.jobs.len() as u64;
    tracer.record("setup.prepare", setup.prepare, 1);
    tracer.record("setup.trace", setup.synthesize, jobs);
    tracer.record("session.build", setup.build, jobs);

    let parallel = workload.parallel();
    let warm_up = workload
        .warm_up()
        .then(|| measure::run_rep(&inputs, parallel));
    let untraced = measure::run_rep(&inputs, parallel);
    let traced = measure::run_rep(&inputs, parallel);
    let serial = parallel.then(|| measure::run_rep(&inputs, false));
    tracer.set_rep(2);
    layers::record_rep(&mut tracer, &inputs.jobs, &traced);
    tracer.set_rep(0);

    let all: Vec<&measure::Rep> = warm_up
        .iter()
        .chain([&untraced, &traced])
        .chain(&serial)
        .collect();
    let mut checked = measure::check(&inputs, &all);
    let values = layers::per_layer(
        &inputs,
        seed,
        &setup,
        &untraced,
        &traced,
        serial.as_ref(),
        &mut tracer,
    );
    let metrics = tabulate(metrics::PER_LAYER, &values, false, &mut checked.errors);

    let path = out_dir().join(format!("trace-{}.jsonl", workload.name()));
    std::fs::write(&path, span::to_jsonl(tracer.spans(), workload.name()))
        .expect("write the trace");
    println!("{}: {}", workload.name(), workload.why());
    println!(
        "seed {seed}, traced repetition of {} queries, {} spans in {}, report_fingerprint {:016x}",
        measure::queries_per_rep(&inputs.jobs, &traced),
        tracer.spans().len(),
        path.display(),
        checked.report_fingerprint,
    );
    report(checked, metrics)
}

/// Runs this executable on one workload in a child process (so that
/// `peak_rss_mb` is per workload), echoes its output, and reads its result
/// line back. `None` if the child failed or printed no result.
fn run_child(
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
) -> Option<RunResult> {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        command.arg("--smoke");
    }
    // `output` waits for the child to end; its stderr goes straight through.
    let output = command
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("start a child process");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (body, last) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", &stdout));
    println!("{body}");
    let result = parse_result_line(last)?;
    (output.status.success() && result.correct).then_some(result)
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worse_by(def: &MetricDef, a: f64, b: f64) -> f64 {
    match def.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Every workload, untraced then traced, each run in its own child
/// process; results to `out/results.json`. With `check_repeat`, the
/// end-to-end set runs a second time and must agree with the first within
/// every metric's bound, both ways.
fn run_suite(seed: u64, seconds: u64, smoke: bool, check_repeat: bool) -> ExitCode {
    let mut ok = true;
    let mut entries = Vec::new();
    for workload in Workload::ALL {
        println!("== {} ==", workload.name());
        let untraced = run_child(workload, seed, seconds, false, smoke);
        let traced = run_child(workload, seed, seconds, true, smoke);
        let (Some(untraced), Some(traced)) = (untraced, traced) else {
            eprintln!("{}: a run failed", workload.name());
            ok = false;
            continue;
        };
        if check_repeat {
            println!("== {} again ==", workload.name());
            match run_child(workload, seed, seconds, false, smoke) {
                Some(again) => {
                    for ((def, a), b) in metrics::END_TO_END
                        .iter()
                        .zip(&untraced.metrics)
                        .zip(&again.metrics)
                    {
                        let gap =
                            worse_by(def, a.value, b.value).max(worse_by(def, b.value, a.value));
                        let verdict = if gap > def.bound { "FAIL" } else { "ok" };
                        println!(
                            "repeat {:<20} {:>16.6} {:>16.6} {:<6} gap {gap:.4} bound {} {verdict}",
                            def.name, a.value, b.value, def.unit, def.bound
                        );
                        ok &= gap <= def.bound;
                    }
                }
                None => ok = false,
            }
        }
        entries.push(format!(
            "    \"{}\": {{\n      \"end_to_end\": {},\n      \"per_layer\": {}\n    }}",
            workload.name(),
            result_line(&untraced),
            result_line(&traced)
        ));
    }
    let path = out_dir().join("results.json");
    let text = format!(
        "{{\n  \"seed\": {seed},\n  \"smoke\": {smoke},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        entries.join(",\n")
    );
    std::fs::write(&path, text).expect("write the results");
    println!("wrote {}", path.display());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn driver_command_line_parses() {
        let a = args("--workload ladder_control --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(a.workload, Some(Workload::LadderControl));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(20), true));
        assert!(!a.smoke && !a.check_repeat);
        let a = args("--smoke --check-repeat").unwrap();
        assert_eq!((a.workload, a.seed), (None, DEFAULT_SEED));
        assert!(a.smoke && a.check_repeat);
    }

    #[test]
    fn bad_command_lines_are_refused_with_usage() {
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seed",
            "--seconds x",
            "--reps 3",
        ] {
            assert!(args(bad).unwrap_err().contains("usage:"), "{bad}");
        }
    }

    #[test]
    fn worse_by_follows_the_metrics_direction() {
        let lower = &metrics::END_TO_END[0];
        assert_eq!(lower.better, Better::Lower);
        assert!((worse_by(lower, 10.0, 12.0) - 0.2).abs() < 1e-12);
        assert!(worse_by(lower, 10.0, 9.0) < 0.0);
        let higher = metrics::END_TO_END
            .iter()
            .find(|m| m.better == Better::Higher)
            .unwrap();
        assert!((worse_by(higher, 10.0, 8.0) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn tabulate_fills_the_table_in_order_and_flags_bad_values() {
        let mut errors = Vec::new();
        let table = tabulate(
            metrics::END_TO_END,
            &[("fid", 17.5), ("setup_s", 0.0)],
            true,
            &mut errors,
        );
        assert_eq!(table.len(), metrics::END_TO_END.len());
        assert_eq!(table[0].name, "setup_s");
        // Zero, and everything not measured, is an error end to end.
        assert_eq!(errors.len(), metrics::END_TO_END.len() - 1);
        let mut errors = Vec::new();
        let table = tabulate(metrics::PER_LAYER, &[("queries", 9.0)], false, &mut errors);
        assert!(errors.is_empty());
        assert_eq!(table.iter().filter(|m| m.value != 0.0).count(), 1);
    }
}
