//! # sig-bench — Criterion benchmark support and the golden replays
//!
//! Shared helpers for the Criterion benches that regenerate the paper's
//! figures. Bench-sized problem instances are smaller than the harness
//! defaults so a full `cargo bench --workspace` completes in minutes; the
//! relative ordering between policies and degrees (what the figures show) is
//! preserved.
//!
//! Also the four deterministic [`replay`]s whose reports, rendered by the
//! one [`json`] writer, are pinned byte for byte under `tests/golden/`.

#![warn(missing_docs)]

pub mod json;
pub mod replay;

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_contains_all_six() {
        assert_eq!(bench_suite().len(), 6);
        assert!(bench_workers() >= 1);
    }
}
