//! Figure 2: execution time, energy and quality for every benchmark under
//! each runtime policy and approximation degree, with the fully accurate
//! execution and loop perforation as reference lines.

use sig_core::Policy;
use sig_kernels::{all_benchmarks, Approach, Benchmark, Degree};

use crate::experiment::{measure, ExperimentDefaults, ExperimentPoint, PolicyChoice};

/// Run the Figure 2 sweep for one benchmark: accurate baseline, the three
/// policies at the three degrees, and perforation at the three degrees
/// (where applicable).
///
/// As in the paper, the accurate baseline is "a fully accurate execution of
/// each application, using a significance agnostic version of the runtime
/// system" — i.e. the parallel task version with every task accurate, not a
/// serial run.
pub fn run_benchmark(
    benchmark: &dyn Benchmark,
    defaults: &ExperimentDefaults,
) -> Vec<ExperimentPoint> {
    let reference = benchmark.run_full_accuracy(defaults.workers, Policy::SignificanceAgnostic);
    let mut points = Vec::new();
    points.push(ExperimentPoint::from_run(
        benchmark, "accurate", None, defaults, &reference, &reference,
    ));
    for degree in Degree::ALL {
        for choice in PolicyChoice::ALL {
            points.push(measure(
                benchmark,
                Approach::Significance {
                    policy: choice.to_policy(defaults.gtb_buffer),
                    degree,
                },
                defaults,
                &reference,
            ));
        }
        if benchmark.info().perforation_supported {
            points.push(measure(
                benchmark,
                Approach::Perforation { degree },
                defaults,
                &reference,
            ));
        }
    }
    points
}

/// Run the Figure 2 sweep for all benchmarks (or one, by name).
pub fn run(filter: Option<&str>, defaults: &ExperimentDefaults) -> Vec<ExperimentPoint> {
    let mut points = Vec::new();
    for benchmark in all_benchmarks() {
        if let Some(name) = filter {
            if !benchmark.name().eq_ignore_ascii_case(name) {
                continue;
            }
        }
        points.extend(run_benchmark(benchmark.as_ref(), defaults));
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use sig_kernels::sobel::Sobel;

    #[test]
    fn sobel_sweep_has_expected_shape() {
        let sobel = Sobel {
            width: 64,
            height: 64,
        };
        let defaults = ExperimentDefaults {
            workers: 2,
            ..Default::default()
        };
        let points = run_benchmark(&sobel, &defaults);
        // 1 accurate + 3 degrees × (3 policies + perforation) = 13 points.
        assert_eq!(points.len(), 13);
        assert!(points.iter().any(|p| p.variant == "accurate"));
        assert!(points.iter().any(|p| p.variant == "perforation"));
        assert!(points.iter().any(|p| p.variant == "LQH"));
        // Quality degrades gracefully for the significance-driven variants;
        // blind perforation is allowed to be much worse (that is the point
        // of the comparison). Timing claims are made on realistic input
        // sizes by sigbench's `kernels` workload, not on this 64×64 unit-test
        // input where thread start-up dominates.
        assert!(
            points
                .iter()
                .filter(|p| p.variant != "perforation")
                .all(|p| p.quality < 0.2),
            "{points:#?}"
        );
        let aggressive_lqh = points
            .iter()
            .find(|p| p.variant == "LQH" && p.degree.as_deref() == Some("Aggr"))
            .unwrap();
        assert!(aggressive_lqh.energy_joules > 0.0);
    }

    #[test]
    fn filter_selects_a_single_benchmark() {
        let defaults = ExperimentDefaults {
            workers: 2,
            ..Default::default()
        };
        // Use the smallest benchmark (MC with its default size is moderate;
        // filter test only checks selection logic).
        let points = run(Some("no-such-benchmark"), &defaults);
        assert!(points.is_empty());
    }
}
