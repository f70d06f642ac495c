//! Figure 1: Sobel output under different approximation degrees.
//!
//! The paper composes one image whose quadrants show the accurate output
//! (upper left), Mild (upper right), Medium (lower left) and Aggressive
//! (lower right) approximation. This module regenerates that composition
//! and the PSNR of each approximated quadrant's source.

use sig_core::Policy;
use sig_kernels::sobel::Sobel;
use sig_kernels::{Benchmark, Degree, ExecutionConfig};
use sig_quality::{psnr, GrayImage};

use super::fig2::DEGREES;
use super::paper::WORKERS;

/// Result of the Figure 1 generation.
#[derive(Debug)]
pub struct Fig1Output {
    /// The composed quadrant image.
    pub image: GrayImage,
    /// PSNR in dB against the accurate output, Mild to Aggressive.
    pub psnr_db: [(Degree, f64); 3],
}

/// Generate the Figure 1 composition for the given Sobel configuration using
/// the significance runtime (Max-Buffer GTB, which matches the requested
/// ratios exactly).
pub fn generate(sobel: &Sobel) -> Fig1Output {
    let accurate = sobel.run(&ExecutionConfig::accurate(WORKERS));
    let runs = DEGREES.map(|degree| {
        let config = ExecutionConfig::significance(WORKERS, Policy::GtbMaxBuffer, degree);
        (degree, sobel.run(&config))
    });
    let [mild, medium, aggressive] = runs
        .each_ref()
        .map(|(_, run)| sobel.output_image(&run.values));
    Fig1Output {
        image: GrayImage::quadrants(
            &sobel.output_image(&accurate.values),
            &mild,
            &medium,
            &aggressive,
        ),
        psnr_db: runs.map(|(degree, run)| (degree, psnr(&accurate.values, &run.values, 255.0))),
    }
}
