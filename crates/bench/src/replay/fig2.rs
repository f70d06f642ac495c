//! Figure 2 and Table 2 as one sweep: a kernel under both GTB flavours
//! (bounded buffer and Max Buffer) at Mild, Medium and Aggressive, beside
//! loop perforation where the kernel has it. Table 2 (significance
//! inversions, ratio deviation) is the sweep's Medium slice.
//!
//! Every column is one that thread scheduling cannot move: with one
//! spawner, GTB decides from the significance annotations and the spawn
//! order alone. LQH decides from per-worker histories as tasks run, so it
//! is measured apart, at one worker ([`lqh`]); the figure's time and energy
//! axes are left to sigbench.

use sig_core::{GroupStatsSnapshot, Policy};
use sig_kernels::{Benchmark, Degree, ExecutionConfig, RunOutput, TaskCounts};

use super::paper::GTB_BUFFER;

/// The degrees in the order their quality must not improve.
pub const DEGREES: [Degree; 3] = [Degree::Mild, Degree::Medium, Degree::Aggressive];

/// One significance-aware run: its quality and its Table 2 figures.
#[derive(Debug, Clone)]
pub struct ExperimentPoint {
    /// Output quality against the accurate run (lower is better; PSNR⁻¹ or
    /// relative error %).
    pub quality: f64,
    /// Task execution counts.
    pub tasks: TaskCounts,
    /// Percentage of significance-inverted tasks, averaged over groups.
    pub inversion_percent: f64,
    /// Mean `|requested − achieved|` accurate-task ratio over groups.
    pub ratio_deviation: f64,
}

impl ExperimentPoint {
    fn measure(benchmark: &dyn Benchmark, reference: &RunOutput, config: &ExecutionConfig) -> Self {
        let run = benchmark.run(config);
        let groups = run.groups.len().max(1) as f64;
        let mean = |metric: fn(&GroupStatsSnapshot) -> f64| {
            run.groups.iter().map(|(_, g)| metric(g)).sum::<f64>() / groups
        };
        ExperimentPoint {
            quality: benchmark.quality(reference, &run).value,
            tasks: run.tasks,
            inversion_percent: mean(GroupStatsSnapshot::inversion_percentage),
            ratio_deviation: mean(GroupStatsSnapshot::ratio_diff),
        }
    }
}

/// One degree of the sweep.
#[derive(Debug, Clone)]
pub struct DegreeRow {
    /// The approximation degree.
    pub degree: Degree,
    /// GTB with the user-defined (bounded) buffer.
    pub gtb: ExperimentPoint,
    /// GTB with an unbounded buffer ("Max Buffer GTB").
    pub gtb_max: ExperimentPoint,
    /// Quality of the loop-perforated run, where the kernel has one.
    pub perforation: Option<f64>,
}

/// Sweep `benchmark` at `workers` worker threads, bounded GTB buffering
/// [`GTB_BUFFER`] tasks. As in the paper, quality is measured against "a fully
/// accurate execution of each application, using a significance agnostic
/// version of the runtime system".
pub fn sweep(benchmark: &dyn Benchmark, workers: usize) -> Vec<DegreeRow> {
    let reference = benchmark.run_full_accuracy(workers, Policy::SignificanceAgnostic);
    let point = |policy, degree| {
        let config = ExecutionConfig::significance(workers, policy, degree);
        ExperimentPoint::measure(benchmark, &reference, &config)
    };
    DEGREES
        .into_iter()
        .map(|degree| DegreeRow {
            degree,
            gtb: point(
                Policy::Gtb {
                    buffer_size: GTB_BUFFER,
                },
                degree,
            ),
            gtb_max: point(Policy::GtbMaxBuffer, degree),
            perforation: benchmark.info().perforation_supported.then(|| {
                let run = benchmark.run(&ExecutionConfig::perforation(workers, degree));
                benchmark.quality(&reference, &run).value
            }),
        })
        .collect()
}

/// LQH at one worker, Mild to Aggressive. LQH decides from the worker's
/// history as tasks run; with one worker the tasks run in spawn order, so
/// that history, and every column, is the same on every run.
pub fn lqh(benchmark: &dyn Benchmark) -> Vec<ExperimentPoint> {
    let reference = benchmark.run_full_accuracy(1, Policy::SignificanceAgnostic);
    DEGREES
        .into_iter()
        .map(|degree| {
            let config = ExecutionConfig::significance(1, Policy::Lqh, degree);
            ExperimentPoint::measure(benchmark, &reference, &config)
        })
        .collect()
}
