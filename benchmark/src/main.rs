//! `sigbench`: one pinned, seeded benchmark for the runtime, the paper
//! kernels and both simulators. See `benchmark/README.md`.
//!
//! ```text
//! sigbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--result FILE]
//! sigbench [--runs R] [--seed N] [--seconds S] [--trace] [--smoke] [--out FILE]   # the suite
//! sigbench --aa [--runs R] [--seed N] [--seconds S]
//! sigbench --compare A.json B.json
//! sigbench --manifest
//! ```

mod compare;
mod host;
mod json;
mod metrics;
mod micro;
mod pin;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::process::ExitCode;

use json::Value;
use pin::Placement;
use trace::Tracer;
use workloads::{Ctx, Layers, Report, Workload};

/// Where result files and the trace go, relative to the working directory
/// (the root of the checkout; `run.sh` changes into it).
pub const OUT_DIR: &str = "benchmark/out";
/// Seconds a run measures for unless told otherwise; `BENCHMARK.json`
/// carries the same number as `run_seconds`.
pub const RUN_SECONDS: u64 = 10;

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub runs: Option<usize>,
    pub result: Option<String>,
    pub out: Option<String>,
    pub aa: bool,
    pub compare: Option<(String, String)>,
    pub manifest: bool,
}

const USAGE: &str = "usage: sigbench [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] \
                     [--smoke] [--runs R] [--result FILE] [--out FILE] [--aa] \
                     [--compare A.json B.json] [--manifest]";

pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        runs: None,
        result: None,
        out: None,
        aa: false,
        compare: None,
        manifest: false,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--workload" => {
                let name = value(&mut i, flag)?;
                if workloads::find(&name).is_none() {
                    let known: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
                    return Err(format!("unknown workload {name:?}; one of {known:?}"));
                }
                parsed.workload = Some(name);
            }
            "--seed" => {
                parsed.seed = value(&mut i, flag)?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?;
            }
            "--seconds" => {
                parsed.seconds = value(&mut i, flag)?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            "--runs" => {
                parsed.runs = Some(
                    value(&mut i, flag)?
                        .parse()
                        .ok()
                        .filter(|r| *r >= 1)
                        .ok_or("--runs needs a whole number, at least 1")?,
                );
            }
            // `--trace 0|1` for the driver, bare `--trace` for people.
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    parsed.trace = false;
                    i += 1;
                }
                Some("1") => {
                    parsed.trace = true;
                    i += 1;
                }
                _ => parsed.trace = true,
            },
            "--smoke" => parsed.smoke = true,
            "--aa" => parsed.aa = true,
            "--manifest" => parsed.manifest = true,
            "--result" => parsed.result = Some(value(&mut i, flag)?),
            "--out" => parsed.out = Some(value(&mut i, flag)?),
            "--compare" => {
                parsed.compare = Some((value(&mut i, flag)?, value(&mut i, flag)?));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("sigbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.manifest {
        println!("{}", manifest());
        Ok(true)
    } else if let Some((a, b)) = &args.compare {
        compare::compare_files(a, b, false)
    } else if args.aa {
        suite::agreement(&args)
    } else if let Some(name) = &args.workload {
        let workload = workloads::find(name).expect("checked while parsing");
        run_workload(workload, &args)
    } else {
        let default_out = format!("{OUT_DIR}/suite.json");
        suite::run(&args, args.out.as_deref().unwrap_or(&default_out))
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("sigbench: {message}");
            ExitCode::from(2)
        }
    }
}

/// One run of one workload in this process: the end-to-end run, and in a
/// traced run the per-layer ledger after it. Prints every metric by name and
/// unit, then the result object as the last line.
fn run_workload(workload: &Workload, args: &Args) -> Result<bool, String> {
    let placement = Placement::detect();
    let steal_before = host::steal_ticks();
    let tracer = Tracer::new(args.trace);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        placement: &placement,
        tracer: &tracer,
    };
    let report = (workload.run)(&ctx);
    let peak_rss_mb = host::peak_rss_mb().unwrap_or(0.0);

    let mut gate_failures = report.gate_failures.clone();
    let metrics: Vec<(String, f64, &str)> = if args.trace {
        let mut layers = Layers::default();
        for other in &workloads::ALL {
            tracer.span(&format!("ledger.{}", other.name), || {
                (other.layers)(&ctx, &mut layers)
            });
        }
        tracer.span("ledger.micro", || micro::layers(&ctx, &mut layers));
        layers.put("trace.overhead_frac", trace_overhead(&report));
        layers.put(
            "host.steal_frac",
            host::steal_frac(steal_before, host::steal_ticks()),
        );
        gate_failures.append(&mut layers.gate_failures);
        write_file(
            &format!("{OUT_DIR}/trace.json"),
            &tracer.chrome_trace().render(),
        )?;
        tabulate_layers(&layers, &mut gate_failures)
    } else {
        let values = [
            report.ops_per_s(),
            report.cpu_ns_per_op(),
            report.joules_per_op(),
            report.goodput_frac(),
            peak_rss_mb,
            stats::median(&report.setup_s),
        ];
        metrics::end_to_end()
            .into_iter()
            .zip(values)
            .map(|(m, value)| (m.metric.name, value, m.metric.unit))
            .collect()
    };
    for (name, value, _) in &metrics {
        if !value.is_finite() {
            gate_failures.push(format!("{name} is not a finite number"));
        }
    }
    // A gate that fails on every repetition says so once.
    let mut seen = std::collections::HashSet::new();
    gate_failures.retain(|failure| seen.insert(failure.clone()));
    let correct = gate_failures.is_empty();

    println!(
        "sigbench {} seed={} seconds={} trace={} cores={} pinned={}{}",
        workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        placement.cores(),
        placement.pinned,
        if args.smoke { " smoke" } else { "" },
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<42} {value:>18.6} {unit}");
    }
    for failure in &gate_failures {
        println!("  GATE FAILED: {failure}");
    }

    let contract = Value::object([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(report.attempted().max(1) as f64)),
        ("failed", Value::Num(report.failed() as f64)),
        (
            "metrics",
            Value::Obj(
                metrics
                    .iter()
                    .map(|(name, value, unit)| {
                        (
                            name.clone(),
                            Value::object([
                                ("value", Value::Num(*value)),
                                ("unit", Value::str(*unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    if let Some(path) = &args.result {
        let mut fields = vec![
            ("workload".to_string(), Value::str(workload.name)),
            ("seed".to_string(), Value::Num(args.seed as f64)),
            ("seconds".to_string(), Value::Num(args.seconds)),
            ("trace".to_string(), Value::Bool(args.trace)),
            ("smoke".to_string(), Value::Bool(args.smoke)),
            ("cores".to_string(), Value::Num(placement.cores() as f64)),
            ("pinned".to_string(), Value::Bool(placement.pinned)),
            (
                "steal_frac".to_string(),
                Value::Num(host::steal_frac(steal_before, host::steal_ticks())),
            ),
            (
                "gate_failures".to_string(),
                Value::Arr(gate_failures.iter().map(Value::str).collect()),
            ),
            ("detail".to_string(), Value::Obj(report.detail.clone())),
        ];
        fields.extend(contract.fields().iter().cloned());
        write_file(path, &Value::Obj(fields).render())?;
    }
    println!("{}", contract.render());
    Ok(correct)
}

/// Traced over untraced median repetition time, minus one.
fn trace_overhead(report: &Report) -> f64 {
    let walls = |traced: bool| -> Vec<f64> {
        report
            .rep_wall_s
            .iter()
            .filter(|(t, _)| *t == traced)
            .map(|(_, wall)| *wall)
            .collect()
    };
    let (on, off) = (walls(true), walls(false));
    if on.is_empty() || off.is_empty() {
        return 0.0;
    }
    stats::median(&on) / stats::median(&off) - 1.0
}

/// Put the gathered per-layer values in table order; a value the table does
/// not know, or a table entry nobody measured, is a failed gate.
fn tabulate_layers(
    layers: &Layers,
    failures: &mut Vec<String>,
) -> Vec<(String, f64, &'static str)> {
    let table = metrics::per_layer();
    for (name, _) in &layers.values {
        if !table.iter().any(|m| &m.name == name) {
            failures.push(format!("per-layer metric {name} is not in the table"));
        }
    }
    table
        .into_iter()
        .map(|m| {
            let value = layers
                .values
                .iter()
                .find(|(name, _)| *name == m.name)
                .map(|(_, value)| *value)
                .unwrap_or_else(|| {
                    failures.push(format!("per-layer metric {} was not measured", m.name));
                    f64::NAN
                });
            (m.name, value, m.unit)
        })
        .collect()
}

pub fn write_file(path: &str, text: &str) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, format!("{text}\n")).map_err(|e| format!("writing {path}: {e}"))
}

/// The text of `BENCHMARK.json`, from the tables in `metrics.rs`.
fn manifest() -> String {
    let row = |fields: Vec<(&str, Value)>| format!("    {}", Value::object(fields).render());
    let rows = |rows: Vec<String>| rows.join(",\n");
    let workloads = workloads::ALL
        .iter()
        .map(|w| {
            row(vec![
                ("name", Value::str(w.name)),
                ("why", Value::str(w.why)),
            ])
        })
        .collect();
    let end_to_end = metrics::end_to_end()
        .iter()
        .map(|m| {
            row(vec![
                ("name", Value::str(&m.metric.name)),
                ("unit", Value::str(m.metric.unit)),
                ("better", Value::str(m.metric.better.as_str())),
                ("bound", Value::Num(m.bound)),
            ])
        })
        .collect();
    let per_layer = metrics::per_layer()
        .iter()
        .map(|m| {
            row(vec![
                ("name", Value::str(&m.name)),
                ("unit", Value::str(m.unit)),
                ("better", Value::str(m.better.as_str())),
            ])
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}",
        rows(workloads),
        rows(end_to_end),
        rows(per_layer)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn the_driver_command_line_parses() {
        let args = parse("--workload cluster_sim --seed 17 --seconds 10 --trace 0").unwrap();
        assert_eq!(args.workload.as_deref(), Some("cluster_sim"));
        assert_eq!((args.seed, args.seconds, args.trace), (17, 10.0, false));
        assert!(parse("--workload kernels --trace 1").unwrap().trace);
        let bare = parse("--trace --smoke").unwrap();
        assert!(bare.trace && bare.smoke && bare.workload.is_none());
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for line in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--seconds -3",
            "--runs 0",
            "--compare a.json",
            "--frobnicate",
            "--seed",
        ] {
            assert!(parse(line).is_err(), "{line:?} should be refused");
        }
    }

    #[test]
    fn manifest_matches_the_committed_file() {
        assert_eq!(
            manifest().trim(),
            include_str!("../../BENCHMARK.json").trim(),
            "regenerate with: sigbench --manifest > BENCHMARK.json"
        );
        assert_eq!(
            Value::parse(&manifest()).unwrap().get("run_seconds"),
            Some(&Value::Num(RUN_SECONDS as f64))
        );
    }
}
