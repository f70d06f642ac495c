//! Approximate execution spends fewer modelled joules than accurate
//! execution on a real kernel.
//!
//! The test compares wall-clock busy time between runs, so it has a binary
//! of its own: next to other tests of the same binary, which run on
//! parallel threads, their work preempts its timed task bodies.

use significance_repro::energy::PowerModel;
use significance_repro::kernels::sobel::Sobel;
use significance_repro::kernels::{Benchmark, Degree, ExecutionConfig};
use significance_repro::prelude::*;

fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
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
    let e_accurate = model
        .energy_breakdown(wall, accurate.busy_core_seconds)
        .total();
    let e_aggressive = model
        .energy_breakdown(wall, aggressive.busy_core_seconds)
        .total();
    assert!(e_aggressive < e_accurate);
}
