//! Shared benchmark infrastructure: the [`Benchmark`] trait, execution
//! configuration, and run outputs consumed by the experiment harness.

use std::time::Duration;

use serde::{Deserialize, Serialize};

use sig_core::{EnergyReading, GroupStatsSnapshot, Policy, Runtime};
use sig_quality::{psnr, relative_error, QualityMetric, QualityScore};

/// The three approximation degrees studied for every benchmark (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Degree {
    /// Mild approximation: most tasks run accurately.
    Mild,
    /// Medium approximation.
    Medium,
    /// Aggressive approximation: few (or no) tasks run accurately.
    Aggressive,
}

impl Degree {
    /// All degrees, in the order the paper's figures list them.
    pub const ALL: [Degree; 3] = [Degree::Aggressive, Degree::Medium, Degree::Mild];

    /// Human-readable name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Degree::Mild => "Mild",
            Degree::Medium => "Medium",
            Degree::Aggressive => "Aggr",
        }
    }
}

/// Whether a benchmark's non-accurate tasks are approximated, dropped, or
/// both (the "Approximate or Drop" column of Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ApproxTechnique {
    /// Non-accurate tasks run an `approxfun` body.
    Approximate,
    /// Non-accurate tasks are dropped entirely.
    Drop,
    /// Both: some computations are dropped, the rest approximated.
    Both,
}

impl ApproxTechnique {
    /// Short code as printed in Table 1 ("A", "D", "D, A").
    pub fn code(self) -> &'static str {
        match self {
            ApproxTechnique::Approximate => "A",
            ApproxTechnique::Drop => "D",
            ApproxTechnique::Both => "D, A",
        }
    }
}

/// Static description of a benchmark (one row of Table 1).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchmarkInfo {
    /// Benchmark name as used in the paper.
    pub name: &'static str,
    /// Approximate / drop / both.
    pub technique: ApproxTechnique,
    /// What the degree values mean (accurate-task ratio, tolerance, ...).
    pub degree_parameter: &'static str,
    /// Degree values for Mild, Medium, Aggressive (in that order).
    pub degrees: [f64; 3],
    /// Quality metric used in the evaluation.
    pub metric: QualityMetric,
    /// Whether a loop-perforated comparator exists (it does not for
    /// Fluidanimate, Section 4.2).
    pub perforation_supported: bool,
}

impl BenchmarkInfo {
    /// The degree value (ratio / tolerance) configured for `degree`.
    pub fn degree_value(&self, degree: Degree) -> f64 {
        match degree {
            Degree::Mild => self.degrees[0],
            Degree::Medium => self.degrees[1],
            Degree::Aggressive => self.degrees[2],
        }
    }
}

/// How a benchmark run should execute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Approach {
    /// Fully accurate execution on the significance-agnostic runtime.
    Accurate,
    /// Significance-aware execution under a given policy and degree.
    Significance {
        /// Runtime policy (GTB, GTB Max-Buffer, LQH).
        policy: Policy,
        /// Approximation degree (maps to the group ratio / tolerance).
        degree: Degree,
    },
    /// Loop-perforated execution matched to the degree's accurate-task count.
    Perforation {
        /// Approximation degree.
        degree: Degree,
    },
}

/// A complete execution configuration for one benchmark run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutionConfig {
    /// Number of worker threads for task-parallel runs.
    pub workers: usize,
    /// Which variant to execute.
    pub approach: Approach,
}

impl ExecutionConfig {
    /// Fully accurate run.
    pub fn accurate(workers: usize) -> Self {
        ExecutionConfig {
            workers,
            approach: Approach::Accurate,
        }
    }

    /// Significance-aware run.
    pub fn significance(workers: usize, policy: Policy, degree: Degree) -> Self {
        ExecutionConfig {
            workers,
            approach: Approach::Significance { policy, degree },
        }
    }

    /// Loop-perforation run.
    pub fn perforation(workers: usize, degree: Degree) -> Self {
        ExecutionConfig {
            workers,
            approach: Approach::Perforation { degree },
        }
    }

    /// Default worker count: the host's available parallelism.
    pub fn default_workers() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Task-level execution counts of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskCounts {
    /// Total tasks (or loop chunks) executed.
    pub total: usize,
    /// Tasks that ran their accurate body.
    pub accurate: usize,
    /// Tasks that ran their approximate body.
    pub approximate: usize,
    /// Tasks dropped by the runtime.
    pub dropped: usize,
}

/// The observable result of one benchmark run.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Flattened numeric output used for quality evaluation (pixels,
    /// centroids, solution vector, particle positions, ...).
    pub values: Vec<f64>,
    /// Wall-clock makespan of the run.
    pub elapsed: Duration,
    /// Total busy core-seconds spent in task bodies (equals `elapsed` for
    /// serial reference runs).
    pub busy_core_seconds: f64,
    /// Task execution counts.
    pub tasks: TaskCounts,
    /// Per-group statistics (Table 2 inputs); empty for serial runs.
    pub groups: Vec<(String, GroupStatsSnapshot)>,
    /// Energy reading produced by the runtime's own per-worker accounting
    /// (DVFS-aware when a governor is installed); `None` for serial runs,
    /// which have no runtime to account them.
    pub energy: Option<EnergyReading>,
    /// DVFS frequency-domain switches across all workers (each carries the
    /// runtime's configured transition cost); zero for serial runs.
    pub frequency_transitions: u64,
    /// Modelled deep-sleep residency banked by race-to-idle dispatches, in
    /// core-seconds; zero for serial runs and stretch-only governors.
    pub sleep_seconds: f64,
}

impl RunOutput {
    /// Wrap the output of a serial (non-task) execution.
    pub fn serial(values: Vec<f64>, elapsed: Duration) -> Self {
        RunOutput {
            values,
            elapsed,
            busy_core_seconds: elapsed.as_secs_f64(),
            tasks: TaskCounts::default(),
            groups: Vec::new(),
            energy: None,
            frequency_transitions: 0,
            sleep_seconds: 0.0,
        }
    }

    /// Wrap the output of a run on the significance runtime, harvesting the
    /// runtime- and group-level statistics plus the energy accounting of its
    /// execution environment.
    pub fn from_runtime(rt: &Runtime, values: Vec<f64>, elapsed: Duration) -> Self {
        let stats = rt.stats();
        // Price static/idle power over the caller-measured makespan, not
        // the runtime's whole lifetime (which would also bill result
        // harvesting after the barrier).
        let report = rt.energy_report_at(elapsed);
        RunOutput {
            values,
            elapsed,
            busy_core_seconds: stats.busy_core_seconds(),
            tasks: TaskCounts {
                total: stats.completed(),
                accurate: stats.accurate(),
                approximate: stats.approximate(),
                dropped: stats.dropped(),
            },
            groups: rt
                .all_group_stats()
                .into_iter()
                .filter(|(_, snap)| snap.total() > 0)
                .collect(),
            frequency_transitions: report.frequency_transitions(),
            sleep_seconds: report.sleep_seconds(),
            energy: Some(report.reading()),
        }
    }
}

/// Interface every benchmark implements, so the harness and sigbench can
/// drive all six uniformly.
pub trait Benchmark: Send + Sync {
    /// Static description (Table 1 row).
    fn info(&self) -> BenchmarkInfo;

    /// Execute the benchmark under the given configuration.
    fn run(&self, config: &ExecutionConfig) -> RunOutput;

    /// Execute the task-parallel version with approximation disabled (every
    /// task runs accurately) under the given policy.
    ///
    /// This is the configuration of the paper's Figure 4: "All tasks are
    /// created with the same significance and the ratio of tasks executed
    /// accurately is set to 100%, therefore eliminating any benefits of
    /// approximate execution" — comparing it against
    /// [`Policy::SignificanceAgnostic`] isolates the policies' runtime
    /// overhead.
    fn run_full_accuracy(&self, workers: usize, policy: Policy) -> RunOutput;

    /// The benchmark's name.
    fn name(&self) -> &'static str {
        self.info().name
    }

    /// Quality of `candidate` relative to `reference`, using the benchmark's
    /// metric (Section 4.1: outputs are always compared against the fully
    /// accurate execution).
    fn quality(&self, reference: &RunOutput, candidate: &RunOutput) -> QualityScore {
        score_against(self.info().metric, &reference.values, &candidate.values)
    }
}

/// Compute a [`QualityScore`] for `candidate` against `reference` under the
/// given metric.
pub fn score_against(metric: QualityMetric, reference: &[f64], candidate: &[f64]) -> QualityScore {
    match metric {
        QualityMetric::PsnrInverse => QualityScore::from_psnr(psnr(reference, candidate, 255.0)),
        QualityMetric::RelativeError => {
            QualityScore::from_relative_error(relative_error(reference, candidate))
        }
    }
}

/// Instantiate all six benchmarks with their default (laptop-scale) problem
/// sizes, in the order the paper's figures list them.
pub fn all_benchmarks() -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(crate::sobel::Sobel::default()),
        Box::new(crate::dct::Dct::default()),
        Box::new(crate::mc::MonteCarlo::default()),
        Box::new(crate::kmeans::KMeans::default()),
        Box::new(crate::jacobi::Jacobi::default()),
        Box::new(crate::fluidanimate::Fluidanimate::default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degree_metadata() {
        assert_eq!(Degree::Mild.name(), "Mild");
        assert_eq!(Degree::ALL.len(), 3);
        assert_eq!(ApproxTechnique::Both.code(), "D, A");
    }

    #[test]
    fn info_degree_lookup() {
        let info = BenchmarkInfo {
            name: "x",
            technique: ApproxTechnique::Approximate,
            degree_parameter: "ratio",
            degrees: [0.8, 0.3, 0.0],
            metric: QualityMetric::PsnrInverse,
            perforation_supported: true,
        };
        assert_eq!(info.degree_value(Degree::Mild), 0.8);
        assert_eq!(info.degree_value(Degree::Medium), 0.3);
        assert_eq!(info.degree_value(Degree::Aggressive), 0.0);
    }

    #[test]
    fn execution_config_constructors() {
        let c = ExecutionConfig::accurate(4);
        assert_eq!(c.approach, Approach::Accurate);
        let c = ExecutionConfig::significance(4, Policy::Lqh, Degree::Medium);
        assert!(matches!(c.approach, Approach::Significance { .. }));
        let c = ExecutionConfig::perforation(4, Degree::Mild);
        assert!(matches!(c.approach, Approach::Perforation { .. }));
        assert!(ExecutionConfig::default_workers() >= 1);
    }

    #[test]
    fn serial_run_output_busy_equals_elapsed() {
        let out = RunOutput::serial(vec![1.0, 2.0], Duration::from_millis(500));
        assert_eq!(out.busy_core_seconds, 0.5);
        assert_eq!(out.tasks.total, 0);
        assert!(out.groups.is_empty());
        assert!(out.energy.is_none());
    }

    #[test]
    fn runtime_run_output_carries_an_energy_reading() {
        let rt = Runtime::builder().workers(2).build();
        rt.task(|| std::thread::sleep(std::time::Duration::from_millis(2)))
            .spawn();
        rt.wait_all();
        let out = RunOutput::from_runtime(&rt, vec![0.0], Duration::from_millis(2));
        let energy = out.energy.expect("runtime runs carry a reading");
        assert!(energy.joules > 0.0);
        assert!(energy.busy_core_seconds > 0.0);
    }

    #[test]
    fn score_against_both_metrics() {
        let reference = vec![100.0, 100.0, 100.0];
        let identical = score_against(QualityMetric::PsnrInverse, &reference, &reference);
        assert_eq!(identical.value, 0.0);
        let noisy = score_against(
            QualityMetric::PsnrInverse,
            &reference,
            &[100.0, 101.0, 99.0],
        );
        assert!(noisy.value > 0.0);
        let rel = score_against(
            QualityMetric::RelativeError,
            &reference,
            &[110.0, 100.0, 100.0],
        );
        assert!((rel.value - 100.0 * 10.0 / 300.0).abs() < 1e-9);
    }

    #[test]
    fn registry_contains_all_six_benchmarks() {
        let benchmarks = all_benchmarks();
        let names: Vec<_> = benchmarks.iter().map(|b| b.name()).collect();
        assert_eq!(
            names,
            vec!["Sobel", "DCT", "MC", "Kmeans", "Jacobi", "Fluidanimate"]
        );
    }
}
