//! Scalar quality metrics: MSE, PSNR, PSNR⁻¹ and relative-error variants.
//!
//! All metrics compare an *approximate* output against a *reference*
//! (fully-accurate) output, matching the paper's methodology: "The quality of
//! the final result is evaluated by comparing it to the output produced by a
//! fully accurate execution of the respective code" (Section 4.1).

use serde::{Deserialize, Serialize};

/// Which metric a benchmark uses to report output quality (Table 1, "Quality"
/// column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QualityMetric {
    /// Peak signal-to-noise ratio, reported as `PSNR⁻¹` so lower is better
    /// (used by Sobel and DCT).
    PsnrInverse,
    /// Relative error in percent (used by MC, K-means, Jacobi, Fluidanimate).
    RelativeError,
}

impl QualityMetric {
    /// Human-readable label matching the figure axes in the paper.
    pub fn label(self) -> &'static str {
        match self {
            QualityMetric::PsnrInverse => "PSNR^-1",
            QualityMetric::RelativeError => "Rel. Error (%)",
        }
    }
}

/// A quality measurement produced by one experiment run.
///
/// The value is always "lower is better", mirroring the quality column of
/// Figure 2 in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QualityScore {
    /// Which metric `value` is expressed in.
    pub metric: QualityMetric,
    /// The metric value (PSNR⁻¹ or relative error in percent).
    pub value: f64,
}

impl QualityScore {
    /// Build a PSNR-based score from a raw PSNR value (dB).
    pub fn from_psnr(psnr_db: f64) -> Self {
        QualityScore {
            metric: QualityMetric::PsnrInverse,
            value: if psnr_db.is_infinite() {
                0.0
            } else {
                1.0 / psnr_db
            },
        }
    }

    /// Build a relative-error-based score from a fractional error
    /// (e.g. `0.004` becomes `0.4%`).
    pub fn from_relative_error(fraction: f64) -> Self {
        QualityScore {
            metric: QualityMetric::RelativeError,
            value: fraction * 100.0,
        }
    }
}

/// Mean squared error between two equally sized slices.
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
pub fn mse(reference: &[f64], approx: &[f64]) -> f64 {
    assert_eq!(
        reference.len(),
        approx.len(),
        "mse: slices must have equal length"
    );
    assert!(!reference.is_empty(), "mse: slices must be non-empty");
    let sum: f64 = reference
        .iter()
        .zip(approx)
        .map(|(r, a)| {
            let d = r - a;
            d * d
        })
        .sum();
    sum / reference.len() as f64
}

/// Peak signal-to-noise ratio in decibels for signals with the given peak
/// value (255 for 8-bit images).
///
/// Returns `f64::INFINITY` when the two signals are identical.
pub fn psnr(reference: &[f64], approx: &[f64], peak: f64) -> f64 {
    let err = mse(reference, approx);
    if err == 0.0 {
        f64::INFINITY
    } else {
        10.0 * ((peak * peak) / err).log10()
    }
}

/// `PSNR⁻¹` — the quantity actually plotted in Figure 2 of the paper
/// ("Note that PSNR is a logarithmic metric"); identical outputs map to `0`.
pub fn psnr_inverse(reference: &[f64], approx: &[f64], peak: f64) -> f64 {
    let p = psnr(reference, approx, peak);
    if p.is_infinite() {
        0.0
    } else {
        1.0 / p
    }
}

/// Relative error of `approx` w.r.t. `reference` using the L1 norm:
/// `Σ|rᵢ − aᵢ| / Σ|rᵢ|`.
///
/// Falls back to the absolute L1 error when the reference norm is zero.
pub fn relative_error(reference: &[f64], approx: &[f64]) -> f64 {
    assert_eq!(
        reference.len(),
        approx.len(),
        "relative_error: slices must have equal length"
    );
    let num: f64 = reference
        .iter()
        .zip(approx)
        .map(|(r, a)| (r - a).abs())
        .sum();
    let den: f64 = reference.iter().map(|r| r.abs()).sum();
    if den == 0.0 {
        num
    } else {
        num / den
    }
}

/// Relative error using the L2 norm: `‖r − a‖₂ / ‖r‖₂`.
///
/// Falls back to the absolute L2 error when the reference norm is zero.
pub fn relative_error_l2(reference: &[f64], approx: &[f64]) -> f64 {
    assert_eq!(
        reference.len(),
        approx.len(),
        "relative_error_l2: slices must have equal length"
    );
    let num: f64 = reference
        .iter()
        .zip(approx)
        .map(|(r, a)| (r - a) * (r - a))
        .sum::<f64>()
        .sqrt();
    let den: f64 = reference.iter().map(|r| r * r).sum::<f64>().sqrt();
    if den == 0.0 {
        num
    } else {
        num / den
    }
}

/// Mean of the element-wise relative errors, ignoring elements whose
/// reference value is exactly zero (those contribute their absolute error).
pub fn mean_relative_error(reference: &[f64], approx: &[f64]) -> f64 {
    assert_eq!(
        reference.len(),
        approx.len(),
        "mean_relative_error: slices must have equal length"
    );
    assert!(!reference.is_empty(), "mean_relative_error: empty slices");
    let sum: f64 = reference
        .iter()
        .zip(approx)
        .map(|(r, a)| {
            if *r == 0.0 {
                (r - a).abs()
            } else {
                (r - a).abs() / r.abs()
            }
        })
        .sum();
    sum / reference.len() as f64
}

/// Maximum absolute element-wise difference.
pub fn max_abs_error(reference: &[f64], approx: &[f64]) -> f64 {
    assert_eq!(
        reference.len(),
        approx.len(),
        "max_abs_error: slices must have equal length"
    );
    reference
        .iter()
        .zip(approx)
        .map(|(r, a)| (r - a).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_identical_is_zero() {
        let a = vec![1.0, 2.0, 3.0];
        assert_eq!(mse(&a, &a), 0.0);
    }

    #[test]
    fn mse_known_value() {
        let r = vec![0.0, 0.0];
        let a = vec![3.0, 4.0];
        assert!((mse(&r, &a) - 12.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mse_length_mismatch_panics() {
        mse(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn psnr_identical_is_infinite() {
        let a = vec![10.0, 20.0, 30.0];
        assert!(psnr(&a, &a, 255.0).is_infinite());
        assert_eq!(psnr_inverse(&a, &a, 255.0), 0.0);
    }

    #[test]
    fn psnr_decreases_with_more_noise() {
        let r = vec![100.0; 64];
        let small: Vec<f64> = r.iter().map(|v| v + 1.0).collect();
        let large: Vec<f64> = r.iter().map(|v| v + 10.0).collect();
        assert!(psnr(&r, &small, 255.0) > psnr(&r, &large, 255.0));
        assert!(psnr_inverse(&r, &small, 255.0) < psnr_inverse(&r, &large, 255.0));
    }

    #[test]
    fn psnr_known_value() {
        // MSE = 1, peak = 255 => PSNR = 10*log10(255^2) ≈ 48.13 dB
        let r = vec![0.0; 16];
        let a = vec![1.0; 16];
        let p = psnr(&r, &a, 255.0);
        assert!((p - 48.1308).abs() < 1e-3, "psnr = {p}");
    }

    #[test]
    fn relative_error_zero_for_identical() {
        let a = vec![5.0, -3.0, 8.0];
        assert_eq!(relative_error(&a, &a), 0.0);
        assert_eq!(relative_error_l2(&a, &a), 0.0);
        assert_eq!(mean_relative_error(&a, &a), 0.0);
        assert_eq!(max_abs_error(&a, &a), 0.0);
    }

    #[test]
    fn relative_error_known_value() {
        let r = vec![10.0, 10.0];
        let a = vec![9.0, 11.0];
        // |1| + |1| over |10| + |10| = 0.1
        assert!((relative_error(&r, &a) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn relative_error_zero_reference_falls_back_to_absolute() {
        let r = vec![0.0, 0.0];
        let a = vec![1.0, 2.0];
        assert!((relative_error(&r, &a) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn l2_relative_error_known_value() {
        let r = vec![3.0, 4.0]; // norm 5
        let a = vec![3.0, 3.0]; // diff norm 1
        assert!((relative_error_l2(&r, &a) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn mean_relative_error_mixes_zero_and_nonzero() {
        let r = vec![0.0, 2.0];
        let a = vec![1.0, 1.0];
        // element 0: abs err 1.0; element 1: 0.5 => mean 0.75
        assert!((mean_relative_error(&r, &a) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn max_abs_error_picks_largest() {
        let r = vec![1.0, 2.0, 3.0];
        let a = vec![1.5, 0.0, 3.25];
        assert!((max_abs_error(&r, &a) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quality_score_constructors() {
        let s = QualityScore::from_psnr(50.0);
        assert_eq!(s.metric, QualityMetric::PsnrInverse);
        assert!((s.value - 0.02).abs() < 1e-12);

        let s = QualityScore::from_psnr(f64::INFINITY);
        assert_eq!(s.value, 0.0);

        let s = QualityScore::from_relative_error(0.004);
        assert_eq!(s.metric, QualityMetric::RelativeError);
        assert!((s.value - 0.4).abs() < 1e-12);
    }

    #[test]
    fn metric_labels() {
        assert_eq!(QualityMetric::PsnrInverse.label(), "PSNR^-1");
        assert_eq!(QualityMetric::RelativeError.label(), "Rel. Error (%)");
    }
}
