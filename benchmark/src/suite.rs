//! The suite: every workload, each run in a child process of its own, so
//! that allocator state is clean and `peak_rss_mb` is the workload's own.
//! Runs of one workload differ in seed, as the acceptance rule's do, and
//! each metric is summarised over them.

use std::process::Command;

use crate::compare;
use crate::json::Value;
use crate::stats::Summary;
use crate::{metrics, workloads, write_file, Args, OUT_DIR};

/// Run the suite and write its result file to `out`. Returns whether every
/// run of every workload passed its correctness gates.
pub fn run(args: &Args, out: &str) -> Result<bool, String> {
    let runs = args.runs.unwrap_or(if args.smoke { 1 } else { 3 });
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let table: Vec<(String, &str)> = if args.trace {
        metrics::per_layer()
            .into_iter()
            .map(|m| (m.name, m.unit))
            .collect()
    } else {
        metrics::end_to_end()
            .into_iter()
            .map(|m| (m.metric.name, m.metric.unit))
            .collect()
    };

    let mut correct = true;
    let mut stamp: Option<(Value, Value)> = None;
    let mut sections = Vec::new();
    for workload in &workloads::ALL {
        let mut results = Vec::new();
        for run in 0..runs {
            let seed = args.seed + run as u64;
            let path = format!("{OUT_DIR}/run-{}-{seed}.json", workload.name);
            let mut command = Command::new(&exe);
            command
                .args(["--workload", workload.name])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .args(["--result", &path]);
            if args.smoke {
                command.arg("--smoke");
            }
            // `output` waits for the child to end.
            let output = command
                .output()
                .map_err(|e| format!("starting {}: {e}", exe.display()))?;
            if !output.status.success() {
                correct = false;
                println!(
                    "{} seed {seed}: run failed ({})\n{}",
                    workload.name,
                    output.status,
                    String::from_utf8_lossy(&output.stdout)
                );
            }
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
            let result = Value::parse(&text).map_err(|e| format!("{path}: {e}"))?;
            let run_stamp = (
                result.get("cores").cloned().unwrap_or(Value::Null),
                result.get("pinned").cloned().unwrap_or(Value::Null),
            );
            if *stamp.get_or_insert(run_stamp.clone()) != run_stamp {
                return Err(format!(
                    "{path}: placement changed between runs ({run_stamp:?} after {stamp:?})"
                ));
            }
            results.push(result);
        }

        if args.smoke {
            println!("{} (smoke: {runs} run, one repetition)", workload.name);
        } else {
            println!("{} ({runs} runs, {} s each)", workload.name, args.seconds);
        }
        println!(
            "  {:<42} {:>16} {:>16} {:>16} {:>3}  unit",
            "metric", "median", "q1", "q3", "n"
        );
        let mut summary = Vec::new();
        for (name, unit) in &table {
            let values: Vec<f64> = results
                .iter()
                .filter_map(|r| r.get("metrics")?.get(name)?.get("value")?.as_f64())
                .collect();
            if values.is_empty() {
                continue;
            }
            let s = Summary::of(&values);
            println!(
                "  {name:<42} {:>16.6} {:>16.6} {:>16.6} {:>3}  {unit}",
                s.median, s.q1, s.q3, s.n
            );
            let mut entry = vec![("unit".to_string(), Value::str(*unit))];
            entry.extend(s.to_json().fields().iter().cloned());
            summary.push((name.clone(), Value::Obj(entry)));
        }
        sections.push(Value::object([
            ("name", Value::str(workload.name)),
            ("summary", Value::Obj(summary)),
            ("runs", Value::Arr(results)),
        ]));
    }

    let (cores, pinned) = stamp.expect("at least one run");
    let file = Value::object([
        ("cores", cores),
        ("pinned", pinned),
        ("seconds", Value::Num(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("smoke", Value::Bool(args.smoke)),
        ("runs", Value::Num(runs as f64)),
        ("workloads", Value::Arr(sections)),
    ]);
    write_file(out, &file.render())?;
    println!("wrote {out}");
    if args.trace {
        println!("wrote {OUT_DIR}/trace.json (spans of the last traced run)");
    }
    Ok(correct)
}

/// The agreement check: the suite twice on the same build and the same
/// seeds, compared under the benchmark's own bounds. Ten runs a side unless
/// told otherwise, as the acceptance rule uses.
pub fn agreement(args: &Args) -> Result<bool, String> {
    let args = Args {
        runs: Some(args.runs.unwrap_or(10)),
        trace: false,
        ..args.clone()
    };
    let first = format!("{OUT_DIR}/aa-first.json");
    let second = format!("{OUT_DIR}/aa-second.json");
    let a = run(&args, &first)?;
    let b = run(&args, &second)?;
    Ok(compare::compare_files(&first, &second, true)? && a && b)
}
