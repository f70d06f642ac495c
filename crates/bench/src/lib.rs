//! # sig-bench — Criterion benchmark support
//!
//! Shared helpers for the Criterion benches that regenerate the paper's
//! figures. Bench-sized problem instances are smaller than the harness
//! defaults so a full `cargo bench --workspace` completes in minutes; the
//! relative ordering between policies and degrees (what the figures show) is
//! preserved.
//!
//! Also the one reader the bench binaries' `--check` gates use to pull
//! numbers out of the committed `BENCH_*.json` reports.

#![warn(missing_docs)]

use sig_kernels::dct::Dct;
use sig_kernels::fluidanimate::Fluidanimate;
use sig_kernels::jacobi::Jacobi;
use sig_kernels::kmeans::KMeans;
use sig_kernels::mc::MonteCarlo;
use sig_kernels::sobel::Sobel;
use sig_kernels::Benchmark;

/// Number of worker threads used by all benches (bounded so results stay
/// comparable across hosts).
pub fn bench_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// Sobel instance sized for benching.
pub fn sobel() -> Sobel {
    Sobel {
        width: 256,
        height: 256,
    }
}

/// DCT instance sized for benching.
pub fn dct() -> Dct {
    Dct {
        width: 128,
        height: 128,
    }
}

/// Monte-Carlo instance sized for benching.
pub fn mc() -> MonteCarlo {
    MonteCarlo {
        points: 96,
        walks_per_point: 48,
        seed: 0x5eed_0001,
    }
}

/// K-means instance sized for benching.
pub fn kmeans() -> KMeans {
    KMeans {
        points: 2048,
        dims: 16,
        clusters: 8,
        chunks: 32,
        max_iterations: 10,
        seed: 0x5eed_0002,
    }
}

/// Jacobi instance sized for benching.
pub fn jacobi() -> Jacobi {
    Jacobi {
        n: 256,
        blocks: 16,
        band: 24,
        approx_sweeps: 5,
        max_sweeps: 80,
        native_tolerance: 1e-5,
        seed: 0x5eed_0003,
    }
}

/// Fluidanimate instance sized for benching.
pub fn fluidanimate() -> Fluidanimate {
    Fluidanimate {
        particles: 512,
        steps: 12,
        chunks: 8,
        dt: 0.002,
        radius: 0.06,
        seed: 0x5eed_0004,
    }
}

/// All bench-sized benchmark instances, in the paper's order.
pub fn bench_suite() -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(sobel()),
        Box::new(dct()),
        Box::new(mc()),
        Box::new(kmeans()),
        Box::new(jacobi()),
        Box::new(fluidanimate()),
    ]
}

/// The number of the first `"key": <number>` in `json`, or `None` if the
/// key is absent or its value is not a number. A string scan: the vendored
/// serde shim has no deserializer and the committed reports are flat enough.
pub fn extract_json_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let at = json.find(&needle)? + needle.len();
    let value = json[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = value
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(value.len());
    value[..end].parse().ok()
}

/// [`extract_json_number`] scoped to the text after `"section"` first
/// appears — how a per-scenario number is told from its namesakes.
pub fn extract_json_number_after(json: &str, section: &str, key: &str) -> Option<f64> {
    let at = json.find(&format!("\"{section}\""))?;
    extract_json_number(&json[at..], key)
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPORT: &str = r#"{
  "cores": 1,
  "cores_online": 4,
  "delta": -0.25,
  "tiny": 1.5e-3,
  "big": 2E+6,
  "name": "not a number",
  "scenarios": [
    {"name": "dynamic-heavy", "quality": 0.8898},
    {"name": "static-heavy", "quality": 0.9373, "only_here": 7}
  ]
}"#;

    #[test]
    fn reads_plain_negative_and_exponent_numbers() {
        assert_eq!(extract_json_number(REPORT, "cores"), Some(1.0));
        assert_eq!(extract_json_number(REPORT, "delta"), Some(-0.25));
        assert_eq!(extract_json_number(REPORT, "tiny"), Some(1.5e-3));
        assert_eq!(extract_json_number(REPORT, "big"), Some(2e6));
    }

    #[test]
    fn missing_key_and_non_number_value_are_none() {
        assert_eq!(extract_json_number(REPORT, "absent"), None);
        assert_eq!(extract_json_number(REPORT, "name"), None);
    }

    #[test]
    fn a_key_does_not_match_a_longer_key_it_prefixes() {
        assert_eq!(extract_json_number(REPORT, "cores_online"), Some(4.0));
        assert_eq!(extract_json_number(REPORT, "cores_on"), None);
        assert_eq!(extract_json_number("{\"cores_online\": 4}", "cores"), None);
    }

    #[test]
    fn after_scopes_to_the_text_following_the_anchor() {
        assert_eq!(extract_json_number(REPORT, "quality"), Some(0.8898));
        assert_eq!(
            extract_json_number_after(REPORT, "static-heavy", "quality"),
            Some(0.9373)
        );
        assert_eq!(
            extract_json_number_after(REPORT, "dynamic-heavy", "only_here"),
            Some(7.0),
            "a key found only after the anchor is still found"
        );
        assert_eq!(extract_json_number_after(REPORT, "absent", "quality"), None);
        assert_eq!(
            extract_json_number_after(REPORT, "static-heavy", "cores"),
            None,
            "keys before the anchor are out of scope"
        );
    }

    #[test]
    fn suite_contains_all_six() {
        assert_eq!(bench_suite().len(), 6);
        assert!(bench_workers() >= 1);
    }
}
