//! Figure 4: runtime overhead of the significance-aware policies.
//!
//! Every benchmark is executed with all tasks at the same effective accuracy
//! (ratio 100%, so approximation brings no benefit) under GTB, GTB
//! (Max Buffer) and LQH, and compared against the significance-agnostic
//! runtime. The paper reports the normalised execution time; overheads are
//! "typically negligible", peaking around 7% for DCT under Max-Buffer GTB.

use serde::{Deserialize, Serialize};

use sig_core::Policy;
use sig_kernels::{all_benchmarks, Benchmark};

use crate::experiment::{ExperimentDefaults, PolicyChoice};
use crate::report::generic_table;

/// Normalised execution time of one benchmark under the three policies.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OverheadRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Baseline (significance-agnostic) execution time in seconds.
    pub baseline_seconds: f64,
    /// Normalised execution time under GTB (user-defined buffer).
    pub gtb: f64,
    /// Normalised execution time under GTB (Max Buffer).
    pub gtb_max_buffer: f64,
    /// Normalised execution time under LQH.
    pub lqh: f64,
}

/// Measure the policy overhead of one benchmark.
pub fn run_benchmark(benchmark: &dyn Benchmark, defaults: &ExperimentDefaults) -> OverheadRow {
    let baseline = benchmark
        .run_full_accuracy(defaults.workers, Policy::SignificanceAgnostic)
        .elapsed
        .as_secs_f64();
    let normalised = |choice: PolicyChoice| {
        let t = benchmark
            .run_full_accuracy(defaults.workers, choice.to_policy(defaults.gtb_buffer))
            .elapsed
            .as_secs_f64();
        t / baseline
    };
    OverheadRow {
        benchmark: benchmark.name().to_string(),
        baseline_seconds: baseline,
        gtb: normalised(PolicyChoice::GtbUserBuffer),
        gtb_max_buffer: normalised(PolicyChoice::GtbMaxBuffer),
        lqh: normalised(PolicyChoice::Lqh),
    }
}

/// Measure the policy overhead of every benchmark (or one, by name).
pub fn run(filter: Option<&str>, defaults: &ExperimentDefaults) -> Vec<OverheadRow> {
    all_benchmarks()
        .iter()
        .filter(|b| match filter {
            Some(name) => b.name().eq_ignore_ascii_case(name),
            None => true,
        })
        .map(|b| run_benchmark(b.as_ref(), defaults))
        .collect()
}

/// Render the overhead rows as a table of normalised execution times.
pub fn render(rows: &[OverheadRow]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.benchmark.clone(),
                format!("{:.4}", r.baseline_seconds),
                format!("{:.3}", r.gtb),
                format!("{:.3}", r.gtb_max_buffer),
                format!("{:.3}", r.lqh),
            ]
        })
        .collect();
    generic_table(
        &[
            "Benchmark",
            "agnostic (s)",
            "GTB (norm.)",
            "GTB(MaxBuffer) (norm.)",
            "LQH (norm.)",
        ],
        &table_rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sig_kernels::sobel::Sobel;

    #[test]
    fn overhead_is_modest_for_sobel() {
        let sobel = Sobel {
            width: 128,
            height: 128,
        };
        let defaults = ExperimentDefaults {
            workers: 2,
            ..Default::default()
        };
        let row = run_benchmark(&sobel, &defaults);
        assert!(row.baseline_seconds > 0.0);
        // Smoke-level bound only: the paper reports <= ~7% overhead, but this
        // unit test runs a 128×128 input in milliseconds on a shared machine,
        // so the normalised time is dominated by scheduling noise. The real
        // Figure 4 numbers come from `sig-experiments fig4` on default-sized
        // inputs and sigbench's `kernels.policy_overhead` row at timing size.
        for (label, value) in [
            ("GTB", row.gtb),
            ("GTB(MB)", row.gtb_max_buffer),
            ("LQH", row.lqh),
        ] {
            assert!(
                value.is_finite() && value > 0.0 && value < 50.0,
                "{label} normalised time {value} out of range"
            );
        }
    }

    #[test]
    fn render_contains_all_columns() {
        let rows = vec![OverheadRow {
            benchmark: "Sobel".into(),
            baseline_seconds: 0.5,
            gtb: 1.01,
            gtb_max_buffer: 1.05,
            lqh: 0.99,
        }];
        let table = render(&rows);
        assert!(table.contains("Sobel"));
        assert!(table.contains("GTB(MaxBuffer)"));
        assert!(table.contains("1.050"));
    }
}
