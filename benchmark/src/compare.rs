//! `--compare A.json B.json`: B against A under the per-metric bounds.
//!
//! For every workload and end-to-end metric: B's median may not be worse
//! than A's by more than the metric's bound. Where either side's quartile
//! range is wider than the bound the verdict is "unresolved", not "ok",
//! unless every run of B reads better than every run of A; `setup_s`, a
//! median of only three samples a run, is judged on its medians alone, as the
//! benchmark's acceptance rule judges it. Simulated
//! outcomes must be identical wherever both sides ran the same seed. Runs
//! made under different placement are not comparable and are refused.

use crate::json::Value;
use crate::metrics::{self, Better};
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Ok,
    Unresolved,
    Regression,
}

/// Judge one metric of one workload from the per-run values of both sides.
/// With `judge_spread` off, a wide quartile range does not make the verdict
/// "unresolved".
pub fn judge(
    better: Better,
    bound: f64,
    judge_spread: bool,
    a: &[f64],
    b: &[f64],
) -> (Verdict, f64) {
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    let worse_by = better.worse_by(sa.median, sb.median);
    let every_b_better = a
        .iter()
        .all(|&x| b.iter().all(|&y| better.worse_by(x, y) < 0.0));
    let verdict = if worse_by > bound {
        Verdict::Regression
    } else if judge_spread && sa.spread().max(sb.spread()) > bound && !every_b_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (verdict, worse_by)
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn sections(file: &Value) -> &[Value] {
    match file.get("workloads") {
        Some(Value::Arr(items)) => items,
        _ => &[],
    }
}

fn runs(section: &Value) -> &[Value] {
    match section.get("runs") {
        Some(Value::Arr(items)) => items,
        _ => &[],
    }
}

fn values(section: &Value, metric: &str) -> Vec<f64> {
    runs(section)
        .iter()
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Compare two suite result files; `strict` (the agreement check) also
/// fails on "unresolved". Returns whether B passed.
pub fn compare_files(a_path: &str, b_path: &str, strict: bool) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    for stamp in ["cores", "pinned", "seconds", "smoke", "trace"] {
        if a.get(stamp) != b.get(stamp) {
            return Err(format!(
                "not comparable: {stamp} is {:?} in {a_path} and {:?} in {b_path}",
                a.get(stamp),
                b.get(stamp)
            ));
        }
    }
    if a.get("trace") == Some(&Value::Bool(true)) {
        return Err("end-to-end numbers come from untraced runs; compare those".into());
    }

    let mut passed = true;
    println!(
        "{:<12} {:<14} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "bound"
    );
    for section_a in sections(&a) {
        let name = section_a.get("name").and_then(Value::as_str).unwrap_or("?");
        let Some(section_b) = sections(&b)
            .iter()
            .find(|s| s.get("name").and_then(Value::as_str) == Some(name))
        else {
            return Err(format!("{b_path} has no workload {name}"));
        };
        for m in metrics::end_to_end() {
            let (va, vb) = (
                values(section_a, &m.metric.name),
                values(section_b, &m.metric.name),
            );
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{name}: {} is missing on one side", m.metric.name));
            }
            let judge_spread = m.metric.name != "setup_s";
            let (verdict, worse_by) = judge(m.metric.better, m.bound, judge_spread, &va, &vb);
            let word = match verdict {
                Verdict::Ok => "ok",
                Verdict::Unresolved => "unresolved",
                Verdict::Regression => "REGRESSION",
            };
            passed &= verdict == Verdict::Ok || (verdict == Verdict::Unresolved && !strict);
            println!(
                "{name:<12} {:<14} {:>14.6} {:>14.6} {:>8.2}% {:>6.0}%  {word}",
                m.metric.name,
                Summary::of(&va).median,
                Summary::of(&vb).median,
                100.0 * worse_by,
                100.0 * m.bound
            );
        }
        // Simulated outcomes repeat exactly for a seed, on any build.
        for run_a in runs(section_a) {
            let print = |run: &Value| run.get("detail")?.get("sim_fingerprint").cloned();
            let Some(print_a) = print(run_a) else {
                continue;
            };
            let same_seed = runs(section_b)
                .iter()
                .find(|run_b| run_b.get("seed") == run_a.get("seed"));
            if let Some(print_b) = same_seed.and_then(print) {
                if print_a != print_b {
                    passed = false;
                    println!(
                        "{name:<12} seed {:?}: simulated outcome DIFFERS\n  A {print_a:?}\n  B {print_b:?}",
                        run_a.get("seed").and_then(Value::as_f64)
                    );
                }
            }
        }
    }
    println!(
        "{}",
        if passed {
            "comparison passed"
        } else {
            "comparison FAILED"
        }
    );
    Ok(passed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let steady = [100.0, 101.0, 99.0, 100.5];
        // Within the bound, tight on both sides.
        assert_eq!(
            judge(Better::Higher, 0.1, true, &steady, &[97.0, 96.0, 98.0]).0,
            Verdict::Ok
        );
        // Median worse by more than the bound.
        let (verdict, worse) = judge(Better::Higher, 0.1, true, &steady, &[80.0, 81.0, 79.0]);
        assert_eq!(verdict, Verdict::Regression);
        assert!((worse - 0.2).abs() < 0.01);
        // Lower-is-better flips the direction.
        assert_eq!(
            judge(Better::Lower, 0.1, true, &steady, &[80.0, 81.0, 79.0]).0,
            Verdict::Ok
        );
        assert_eq!(
            judge(Better::Lower, 0.1, true, &steady, &[120.0, 121.0, 119.0]).0,
            Verdict::Regression
        );
        // A side noisier than the bound cannot be called unchanged...
        let noisy = [100.0, 60.0, 140.0, 95.0, 105.0];
        assert_eq!(
            judge(Better::Higher, 0.1, true, &noisy, &steady).0,
            Verdict::Unresolved
        );
        // ...unless the metric is judged on its medians alone...
        assert_eq!(
            judge(Better::Higher, 0.1, false, &noisy, &steady).0,
            Verdict::Ok
        );
        // ...or every run of B beats every run of A.
        assert_eq!(
            judge(Better::Higher, 0.1, true, &noisy, &[150.0, 151.0, 149.0]).0,
            Verdict::Ok
        );
    }
}
