//! Cross-crate integration tests: runtime policies driving real kernels,
//! with quality evaluation end to end. The modelled-energy comparison has a
//! test binary of its own, `sobel_energy.rs`.

use significance_repro::kernels::sobel::Sobel;
use significance_repro::kernels::{all_benchmarks, Approach, Benchmark, Degree, ExecutionConfig};
use significance_repro::prelude::*;

fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
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
