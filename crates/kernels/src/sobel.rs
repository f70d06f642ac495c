//! Sobel edge-detection filter (the paper's running example, Listing 1).
//!
//! One task computes one output image row. Task significance cycles through
//! `(i % 9 + 1) / 10` so that approximated rows are spread uniformly over the
//! image, and the approximate body uses a lighter stencil with 2/3 of the
//! filter taps and `|sx| + |sy|` instead of `sqrt(sx² + sy²)`.
//!
//! Degrees (Table 1): ratio of accurately executed tasks 80% (Mild), 30%
//! (Medium), 0% (Aggressive); quality metric PSNR.

use std::sync::Arc;
use std::time::Instant;

use sig_core::{BatchTask, Policy, Runtime, SharedGrid};
use sig_perforation::{kept_indices, PerforationRate};
use sig_quality::{GrayImage, QualityMetric};

use crate::common::{
    Approach, ApproxTechnique, Benchmark, BenchmarkInfo, Degree, ExecutionConfig, RunOutput,
};

/// Sobel benchmark configuration.
#[derive(Debug, Clone)]
pub struct Sobel {
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
}

impl Default for Sobel {
    fn default() -> Self {
        Sobel {
            width: 512,
            height: 512,
        }
    }
}

/// The 3×3 neighbourhood of one pixel: three-pixel windows of the rows
/// above, at and below it.
type Window<'a> = [&'a [u8]; 3];

/// Accurate horizontal Sobel operator (all six taps).
#[inline]
fn sbl_x([up, mid, down]: Window) -> i32 {
    up[0] as i32 + 2 * mid[0] as i32 + down[0] as i32
        - up[2] as i32
        - 2 * mid[2] as i32
        - down[2] as i32
}

/// Accurate vertical Sobel operator (all six taps).
#[inline]
fn sbl_y([up, _, down]: Window) -> i32 {
    up[0] as i32 + 2 * up[1] as i32 + up[2] as i32
        - down[0] as i32
        - 2 * down[1] as i32
        - down[2] as i32
}

/// Approximate horizontal operator: the corner taps are omitted
/// (lines 11/13 of Listing 1).
#[inline]
fn sbl_x_approx([_, mid, down]: Window) -> i32 {
    2 * mid[0] as i32 + down[0] as i32 - 2 * mid[2] as i32 - down[2] as i32
}

/// Approximate vertical operator: the corner taps are omitted.
#[inline]
fn sbl_y_approx([up, _, down]: Window) -> i32 {
    2 * up[1] as i32 + up[2] as i32 - 2 * down[1] as i32 - down[2] as i32
}

/// Apply `pixel` to the 3×3 neighbourhood of every interior pixel of output
/// row `y`. The three input rows are sliced once, so the per-pixel work is
/// free of index arithmetic and bounds checks.
fn filter_row(
    img: &[u8],
    width: usize,
    y: usize,
    out_row: &mut [u8],
    pixel: impl Fn(Window) -> u8,
) {
    let (up, rest) = img[(y - 1) * width..(y + 2) * width].split_at(width);
    let (mid, down) = rest.split_at(width);
    let windows = up.windows(3).zip(mid.windows(3)).zip(down.windows(3));
    for (out, ((up, mid), down)) in out_row[1..width - 1].iter_mut().zip(windows) {
        *out = pixel([up, mid, down]);
    }
}

/// Accurate computation of one output row: `sqrt(sx² + sy²)`, clamped to 255.
fn row_accurate(img: &[u8], width: usize, y: usize, out_row: &mut [u8]) {
    filter_row(img, width, y, out_row, |window| {
        let gx = sbl_x(window) as f64;
        let gy = sbl_y(window) as f64;
        let p = (gx * gx + gy * gy).sqrt();
        if p > 255.0 {
            255
        } else {
            p as u8
        }
    });
}

/// Approximate computation of one output row: `|sx| + |sy|` with the reduced
/// stencils.
fn row_approximate(img: &[u8], width: usize, y: usize, out_row: &mut [u8]) {
    filter_row(img, width, y, out_row, |window| {
        let p = (sbl_x_approx(window).abs() + sbl_y_approx(window).abs()) as u32;
        if p > 255 {
            255
        } else {
            p as u8
        }
    });
}

impl Sobel {
    /// The accurate-task ratio for an approximation degree (Table 1).
    pub fn ratio_for(degree: Degree) -> f64 {
        match degree {
            Degree::Mild => 0.80,
            Degree::Medium => 0.30,
            Degree::Aggressive => 0.00,
        }
    }

    /// The deterministic synthetic input image.
    pub fn input(&self) -> GrayImage {
        GrayImage::synthetic(self.width, self.height)
    }

    /// Turn a run's flat output back into an image (used by the Figure 1 /
    /// Figure 3 generators).
    pub fn output_image(&self, values: &[f64]) -> GrayImage {
        let pixels = values.iter().map(|&v| v.clamp(0.0, 255.0) as u8).collect();
        GrayImage::from_raw(self.width, self.height, pixels)
    }

    /// Serial, fully accurate reference execution.
    #[cfg(test)]
    fn run_accurate_serial(&self) -> Vec<u8> {
        let img = self.input();
        let pixels = img.pixels();
        let mut out = vec![0u8; self.width * self.height];
        for y in 1..self.height - 1 {
            let row = &mut out[y * self.width..(y + 1) * self.width];
            row_accurate(pixels, self.width, y, row);
        }
        out
    }

    /// Significance-annotated task execution: one task per output row,
    /// injected through the batched spawn pipeline — the rows are
    /// footprint-free and fine-grained, exactly the flood `spawn_batch`
    /// amortises (one wake, one stats record and one counter bump per
    /// image instead of per row).
    pub fn run_tasks(&self, workers: usize, policy: Policy, ratio: f64) -> RunOutput {
        let img = Arc::new(self.input().into_raw());
        let width = self.width;
        let out = SharedGrid::new(self.height, self.width, 0u8);
        let start = Instant::now();
        let rt = Runtime::builder().workers(workers).policy(policy).build();
        let group = rt.create_group("sobel", ratio);
        let rows = (1..self.height - 1).map(|y| {
            let img_acc = img.clone();
            let img_apx = img.clone();
            // Exactly one of the two bodies runs, so they share the row's
            // single exclusive writer through a mutex.
            let row = Arc::new(std::sync::Mutex::new(out.row_writer(y)));
            let row_apx = row.clone();
            BatchTask::new(move || {
                let mut row = row.lock().expect("row writer lock");
                row_accurate(&img_acc, width, y, row.as_mut_slice());
            })
            .approx(move || {
                let mut row = row_apx.lock().expect("row writer lock");
                row_approximate(&img_apx, width, y, row.as_mut_slice());
            })
            .significance(((y % 9) + 1) as f64 / 10.0)
        });
        rt.batch().group(&group).spawn_tasks(rows);
        rt.wait_group(&group);
        let elapsed = start.elapsed();
        let values: Vec<f64> = out.into_vec().iter().map(|&p| p as f64).collect();
        RunOutput::from_runtime(&rt, values, elapsed)
    }

    /// Loop-perforated execution: only the kept rows are computed (all with
    /// the accurate stencil), matching the number of accurate tasks the
    /// significance runtime would execute.
    pub fn run_perforated(&self, ratio: f64) -> RunOutput {
        let img = self.input();
        let pixels = img.pixels();
        let mut out = vec![0u8; self.width * self.height];
        let start = Instant::now();
        let rows: Vec<usize> = (1..self.height - 1).collect();
        let kept = kept_indices(rows.len(), PerforationRate::keep(ratio));
        for &idx in &kept {
            let y = rows[idx];
            let row = &mut out[y * self.width..(y + 1) * self.width];
            row_accurate(pixels, self.width, y, row);
        }
        let elapsed = start.elapsed();
        RunOutput::serial(out.iter().map(|&p| p as f64).collect(), elapsed)
    }
}

impl Benchmark for Sobel {
    fn info(&self) -> BenchmarkInfo {
        BenchmarkInfo {
            name: "Sobel",
            technique: ApproxTechnique::Approximate,
            degree_parameter: "accurate-task ratio",
            degrees: [0.80, 0.30, 0.00],
            metric: QualityMetric::PsnrInverse,
            perforation_supported: true,
        }
    }

    fn run(&self, config: &ExecutionConfig) -> RunOutput {
        match config.approach {
            // The serial reference is the perforated loop with no row
            // perforated: timed, like `run_tasks`, from after the input exists
            // to before the output is converted.
            Approach::Accurate => self.run_perforated(1.0),
            Approach::Significance { policy, degree } => {
                self.run_tasks(config.workers, policy, Sobel::ratio_for(degree))
            }
            Approach::Perforation { degree } => self.run_perforated(Sobel::ratio_for(degree)),
        }
    }

    fn run_full_accuracy(&self, workers: usize, policy: Policy) -> RunOutput {
        self.run_tasks(workers, policy, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::score_against;

    fn small() -> Sobel {
        Sobel {
            width: 96,
            height: 96,
        }
    }

    #[test]
    fn ratios_match_table1() {
        assert_eq!(Sobel::ratio_for(Degree::Mild), 0.80);
        assert_eq!(Sobel::ratio_for(Degree::Medium), 0.30);
        assert_eq!(Sobel::ratio_for(Degree::Aggressive), 0.00);
    }

    #[test]
    fn accurate_serial_detects_edges() {
        let s = small();
        let out = s.run_accurate_serial();
        // The synthetic image has hard edges, so some pixels must saturate.
        assert!(out.iter().any(|&p| p > 100));
        // The border rows are untouched.
        assert!(out[..s.width].iter().all(|&p| p == 0));
    }

    #[test]
    fn task_version_with_ratio_one_matches_serial() {
        let s = small();
        let serial = s.run_accurate_serial();
        let tasks = s.run_tasks(2, Policy::GtbMaxBuffer, 1.0);
        let serial_f: Vec<f64> = serial.iter().map(|&p| p as f64).collect();
        assert_eq!(serial_f, tasks.values);
        assert_eq!(tasks.tasks.total, s.height - 2);
        assert_eq!(tasks.tasks.accurate, s.height - 2);
    }

    #[test]
    fn approximation_degrades_quality_gracefully() {
        let s = small();
        let reference = s.run(&ExecutionConfig::accurate(2));
        let mild = s.run(&ExecutionConfig::significance(
            2,
            Policy::GtbMaxBuffer,
            Degree::Mild,
        ));
        let aggressive = s.run(&ExecutionConfig::significance(
            2,
            Policy::GtbMaxBuffer,
            Degree::Aggressive,
        ));
        let q_mild = s.quality(&reference, &mild).value;
        let q_aggr = s.quality(&reference, &aggressive).value;
        assert!(
            q_mild <= q_aggr,
            "mild {q_mild} should beat aggressive {q_aggr}"
        );
        // Even aggressive approximation keeps a finite, reasonable PSNR:
        // PSNR^-1 < 0.1 means PSNR > 10 dB.
        assert!(q_aggr < 0.1, "aggressive PSNR^-1 {q_aggr} too large");
    }

    #[test]
    fn aggressive_tasks_all_run_approximately() {
        let s = small();
        let out = s.run_tasks(2, Policy::GtbMaxBuffer, 0.0);
        assert_eq!(out.tasks.accurate, 0);
        assert_eq!(out.tasks.approximate, s.height - 2);
    }

    #[test]
    fn perforation_loses_more_quality_than_significance() {
        // The paper's Figure 1 vs Figure 3 comparison: at the same accurate
        // fraction, blind perforation (black rows) is much worse than
        // approximating the dropped rows.
        let s = small();
        let reference = s.run(&ExecutionConfig::accurate(2));
        let ours = s.run(&ExecutionConfig::significance(
            2,
            Policy::GtbMaxBuffer,
            Degree::Medium,
        ));
        let perforated = s.run(&ExecutionConfig::perforation(2, Degree::Medium));
        let q_ours = s.quality(&reference, &ours).value;
        let q_perf = s.quality(&reference, &perforated).value;
        assert!(
            q_ours < q_perf,
            "significance ({q_ours}) should beat perforation ({q_perf})"
        );
    }

    #[test]
    fn lqh_policy_also_produces_valid_output() {
        let s = small();
        let reference = s.run(&ExecutionConfig::accurate(2));
        let lqh = s.run(&ExecutionConfig::significance(
            2,
            Policy::Lqh,
            Degree::Medium,
        ));
        assert_eq!(lqh.values.len(), reference.values.len());
        assert_eq!(lqh.tasks.total, s.height - 2);
        let q = score_against(QualityMetric::PsnrInverse, &reference.values, &lqh.values);
        assert!(q.value < 0.2);
    }

    #[test]
    fn output_image_roundtrip() {
        let s = small();
        let out = s.run(&ExecutionConfig::accurate(1));
        let img = s.output_image(&out.values);
        assert_eq!(img.pixels().len(), s.width * s.height);
    }
}
