//! # sig-kernels — the paper's benchmark suite
//!
//! The six benchmarks of Table 1, each ported to the significance-aware task
//! model of `sig-core` and equipped with
//!
//! * a fully **accurate** reference execution,
//! * a **significance-annotated task version** (accurate + approximate task
//!   bodies, per-task significance, group ratio per approximation degree),
//! * a **loop-perforated** variant matched to the number of accurately
//!   executed tasks (where perforation is applicable), and
//! * a deterministic, seeded **input generator** replacing the paper's
//!   external input sets.
//!
//! | Benchmark | Approximate or drop | Degree knob (Mild/Medium/Aggr) | Quality |
//! |---|---|---|---|
//! | [`sobel`] | Approximate | ratio 0.80 / 0.30 / 0.00 | PSNR |
//! | [`dct`] | Drop | ratio 0.80 / 0.40 / 0.10 | PSNR |
//! | [`mc`] | Drop + approximate | ratio 1.00 / 0.80 / 0.50 | Rel. error |
//! | [`kmeans`] | Approximate | ratio 0.80 / 0.60 / 0.40 | Rel. error |
//! | [`jacobi`] | Drop + approximate | tolerance 1e-4 / 1e-3 / 1e-2 | Rel. error |
//! | [`fluidanimate`] | Approximate | accurate steps 1/2, 1/4, 1/8 | Rel. error |
//!
//! All benchmarks implement the [`Benchmark`] trait so the experiment harness
//! and sigbench's `kernels` workload can drive them uniformly.

#![warn(missing_docs)]

pub mod common;
pub mod dct;
pub mod fluidanimate;
pub mod jacobi;
pub mod kmeans;
pub mod mc;
pub mod sobel;

pub use common::{
    all_benchmarks, Approach, ApproxTechnique, Benchmark, BenchmarkInfo, Degree, ExecutionConfig,
    RunOutput, TaskCounts,
};
