//! Cross-crate integration tests: runtime policies driving real kernels,
//! with energy accounting and quality evaluation end to end.

use significance_repro::energy::PowerModel;
use significance_repro::kernels::sobel::Sobel;
use significance_repro::kernels::{all_benchmarks, Approach, Benchmark, Degree, ExecutionConfig};
use significance_repro::prelude::*;

fn workers() -> usize {
    ExecutionConfig::default_workers().min(4)
}

#[test]
fn every_benchmark_runs_under_every_policy() {
    for benchmark in all_benchmarks() {
        // Use the bench-scale inputs via default configs but only the
        // Aggressive degree (cheapest) to keep the test fast.
        for policy in [
            Policy::Gtb { buffer_size: 16 },
            Policy::GtbMaxBuffer,
            Policy::Lqh,
        ] {
            let run = benchmark.run(&ExecutionConfig::significance(
                workers(),
                policy,
                Degree::Aggressive,
            ));
            assert!(
                !run.values.is_empty(),
                "{} produced no output under {:?}",
                benchmark.name(),
                policy
            );
            assert!(
                run.tasks.total > 0,
                "{} executed no tasks under {:?}",
                benchmark.name(),
                policy
            );
        }
    }
}

#[test]
fn quality_degrades_monotonically_with_degree_for_sobel() {
    let sobel = Sobel {
        width: 128,
        height: 128,
    };
    let reference = sobel.run(&ExecutionConfig::accurate(workers()));
    let mut previous = 0.0;
    for degree in [Degree::Mild, Degree::Medium, Degree::Aggressive] {
        let run = sobel.run(&ExecutionConfig::significance(
            workers(),
            Policy::GtbMaxBuffer,
            degree,
        ));
        let quality = sobel.quality(&reference, &run).value;
        assert!(
            quality + 1e-12 >= previous,
            "quality should not improve as approximation grows: {quality} < {previous}"
        );
        previous = quality;
    }
}

#[test]
fn approximate_execution_reduces_modelled_energy() {
    // Fewer busy core-seconds at equal wall time means less energy under
    // any affine power model.
    let sobel = Sobel {
        width: 1024,
        height: 1024,
    };
    // Busy time is wall-clock per task and the two degrees are only ~10%
    // apart, so a preemption or a slow spell of the host can invert a single
    // pair of runs. The noise is one-sided: alternate the degrees and compare
    // each one's least-busy run. Single runs spread 0.10-0.17 s on a 2-vCPU
    // guest, and seven a side let the minima tie about once in eight runs of
    // this test; sixteen did not in 25.
    let run = |degree| {
        sobel.run(&ExecutionConfig::significance(
            workers(),
            Policy::GtbMaxBuffer,
            degree,
        ))
    };
    let mut accurate = run(Degree::Mild);
    let mut aggressive = run(Degree::Aggressive);
    for _ in 0..15 {
        let next = run(Degree::Mild);
        if next.busy_core_seconds < accurate.busy_core_seconds {
            accurate = next;
        }
        let next = run(Degree::Aggressive);
        if next.busy_core_seconds < aggressive.busy_core_seconds {
            aggressive = next;
        }
    }
    assert!(
        aggressive.busy_core_seconds < accurate.busy_core_seconds,
        "aggressive approximation should do less work: {} vs {}",
        aggressive.busy_core_seconds,
        accurate.busy_core_seconds
    );
    let model = PowerModel::for_host();
    let wall = accurate
        .elapsed
        .as_secs_f64()
        .max(aggressive.elapsed.as_secs_f64());
    let e_accurate = model.energy_joules(wall, accurate.busy_core_seconds);
    let e_aggressive = model.energy_joules(wall, aggressive.busy_core_seconds);
    assert!(e_aggressive < e_accurate);
}

#[test]
fn perforation_baseline_is_available_where_the_paper_applies_it() {
    for benchmark in all_benchmarks() {
        let info = benchmark.info();
        if info.perforation_supported {
            let run = benchmark.run(&ExecutionConfig {
                workers: workers(),
                approach: Approach::Perforation {
                    degree: Degree::Aggressive,
                },
            });
            assert!(
                !run.values.is_empty(),
                "{} perforation run empty",
                info.name
            );
        } else {
            assert_eq!(
                info.name, "Fluidanimate",
                "only Fluidanimate lacks a perforation comparator"
            );
        }
    }
}
