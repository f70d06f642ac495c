//! Figure 3: Sobel output under loop perforation.
//!
//! Quadrants: accurate, 20% perforation, 70% perforation, 100% perforation
//! (upper-left, upper-right, lower-left, lower-right). Contrasted with
//! Figure 1, this shows why significance-driven approximation degrades far
//! more gracefully than blindly dropping iterations.

use sig_kernels::sobel::Sobel;
use sig_quality::{psnr, GrayImage};

/// `(percent of rows dropped, fraction kept)` of the perforated quadrants:
/// Sobel's Mild, Medium and Aggressive perforation.
const LEVELS: [(u32, f64); 3] = [(20, 0.8), (70, 0.3), (100, 0.0)];

/// Result of the Figure 3 generation.
#[derive(Debug)]
pub struct Fig3Output {
    /// The composed quadrant image.
    pub image: GrayImage,
    /// `(percent of rows dropped, PSNR in dB against the accurate output)`
    /// per perforated quadrant, lightest first.
    pub levels: [(u32, f64); 3],
}

/// Generate the Figure 3 composition (perforation of 0%, 20%, 70% and 100%
/// of the row loop).
pub fn generate(sobel: &Sobel) -> Fig3Output {
    let accurate = sobel.run_perforated(1.0);
    let runs = LEVELS.map(|(dropped, kept)| (dropped, sobel.run_perforated(kept)));
    let [p20, p70, p100] = runs
        .each_ref()
        .map(|(_, run)| sobel.output_image(&run.values));
    Fig3Output {
        image: GrayImage::quadrants(&sobel.output_image(&accurate.values), &p20, &p70, &p100),
        levels: runs.map(|(dropped, run)| (dropped, psnr(&accurate.values, &run.values, 255.0))),
    }
}
