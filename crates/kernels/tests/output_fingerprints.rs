//! Bit-identity of every kernel's output, pinned against the commit before
//! the kernels stopped recomputing their constants (DCT basis table, Jacobi
//! coupling table, Fluidanimate cell index). The two K-means cases at eight
//! and at five clusters were recorded at the commit before K-means summed
//! several clusters' distances side by side.
//!
//! Each constant is the FNV-1a fingerprint (over the little-endian bytes of
//! `f64::to_bits`) of `RunOutput::values` for one kernel at a small fixed size
//! under one configuration, recorded at that commit. A kernel optimisation that
//! re-associates a sum, visits neighbours in another order or builds a table
//! from a different expression changes a low bit somewhere and fails here.
//!
//! Every configuration is deterministic: serial and perforated runs have no
//! scheduler; at full accuracy each task writes its own cells and reductions
//! run in task order; GTB Max-Buffer with one spawner sees every task before
//! it decides, so the accurate set is a function of the annotations alone.

use sig_core::Policy;
use sig_kernels::dct::Dct;
use sig_kernels::fluidanimate::Fluidanimate;
use sig_kernels::jacobi::Jacobi;
use sig_kernels::kmeans::KMeans;
use sig_kernels::mc::MonteCarlo;
use sig_kernels::sobel::Sobel;
use sig_kernels::{Benchmark, Degree, ExecutionConfig};

const WORKERS: usize = 2;

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn fingerprint(values: &[f64]) -> u64 {
    fnv1a(values.iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

/// The fingerprints of one kernel in a fixed order: serial, full accuracy
/// under the agnostic runtime and under LQH, Mild / Medium / Aggressive under
/// GTB Max-Buffer, then the three perforated degrees where supported.
fn fingerprints(bench: &dyn Benchmark) -> Vec<(String, u64)> {
    const DEGREES: [Degree; 3] = [Degree::Mild, Degree::Medium, Degree::Aggressive];
    let mut out = vec![
        (
            "serial".to_string(),
            bench.run(&ExecutionConfig::accurate(WORKERS)).values,
        ),
        (
            "full-accuracy agnostic".to_string(),
            bench
                .run_full_accuracy(WORKERS, Policy::SignificanceAgnostic)
                .values,
        ),
        (
            "full-accuracy LQH".to_string(),
            bench.run_full_accuracy(WORKERS, Policy::Lqh).values,
        ),
    ];
    for degree in DEGREES {
        let config = ExecutionConfig::significance(WORKERS, Policy::GtbMaxBuffer, degree);
        out.push((format!("{degree:?} GTB-Max"), bench.run(&config).values));
    }
    if bench.info().perforation_supported {
        for degree in DEGREES {
            let config = ExecutionConfig::perforation(WORKERS, degree);
            out.push((format!("{degree:?} perforated"), bench.run(&config).values));
        }
    }
    out.into_iter()
        .map(|(label, values)| (label, fingerprint(&values)))
        .collect()
}

fn assert_pinned(bench: &dyn Benchmark, pinned: &[u64]) {
    let actual = fingerprints(bench);
    let rendered: Vec<String> = actual
        .iter()
        .map(|(label, hash)| format!("0x{hash:016x}, // {label}"))
        .collect();
    let hashes: Vec<u64> = actual.iter().map(|&(_, hash)| hash).collect();
    assert_eq!(
        hashes,
        pinned,
        "{} output changed; now:\n{}",
        bench.name(),
        rendered.join("\n")
    );
    // At full accuracy the runtime reproduces the serial reference exactly.
    assert_eq!(hashes[0], hashes[1]);
    assert_eq!(hashes[0], hashes[2]);
}

#[test]
fn sobel_output_is_pinned() {
    let sobel = Sobel {
        width: 96,
        height: 64,
    };
    assert_pinned(
        &sobel,
        &[
            0x98e2ce123030ee1b, // serial
            0x98e2ce123030ee1b, // full-accuracy agnostic
            0x98e2ce123030ee1b, // full-accuracy LQH
            0x43e1ae2ff6ea6cf0, // Mild GTB-Max
            0x1e37475c69486c6e, // Medium GTB-Max
            0x2f1087c17029fe2c, // Aggressive GTB-Max
            0xec2159e7cb5de90a, // Mild perforated
            0xa7cd72e7f22a4fd4, // Medium perforated
            0x68c00ea49d512325, // Aggressive perforated
        ],
    );
}

#[test]
fn dct_output_is_pinned() {
    let dct = Dct {
        width: 64,
        height: 48,
    };
    assert_pinned(
        &dct,
        &[
            0x024ba5185a81dee0, // serial
            0x024ba5185a81dee0, // full-accuracy agnostic
            0x024ba5185a81dee0, // full-accuracy LQH
            0x942d5129eba2f0b8, // Mild GTB-Max
            0x7f08f7e2f10edd01, // Medium GTB-Max
            0x04e632d21265f5de, // Aggressive GTB-Max
            0xc1a9ae518aff8130, // Mild perforated
            0x38e61b9c613d9677, // Medium perforated
            0xcf0b882587ef4750, // Aggressive perforated
        ],
    );
}

#[test]
fn mc_output_is_pinned() {
    let mc = MonteCarlo {
        points: 24,
        walks_per_point: 16,
        seed: 5,
    };
    assert_pinned(
        &mc,
        &[
            0x93efb0d905634b7a, // serial
            0x93efb0d905634b7a, // full-accuracy agnostic
            0x93efb0d905634b7a, // full-accuracy LQH
            0x93efb0d905634b7a, // Mild GTB-Max
            0x5cdabeda8ff4013d, // Medium GTB-Max
            0x462d688fdafe885b, // Aggressive GTB-Max
            0x93efb0d905634b7a, // Mild perforated
            0xe7b3bf8a29b085a6, // Medium perforated
            0x7a6d75b0e97edd33, // Aggressive perforated
        ],
    );
}

#[test]
fn kmeans_output_is_pinned() {
    let kmeans = KMeans {
        points: 1024,
        dims: 4,
        clusters: 4,
        chunks: 8,
        max_iterations: 8,
        seed: 7,
    };
    assert_pinned(
        &kmeans,
        &[
            0x9260fc9a4ef9fe1f, // serial
            0x9260fc9a4ef9fe1f, // full-accuracy agnostic
            0x9260fc9a4ef9fe1f, // full-accuracy LQH
            0x0fbae780d745d3ff, // Mild GTB-Max
            0xe34c706ee665b9ec, // Medium GTB-Max
            0x28d21eb9b2547391, // Aggressive GTB-Max
            0xdd6bd2e751f25f5c, // Mild perforated
            0x5a1412f2ed441cbe, // Medium perforated
            0x16b381cb97e5cfa3, // Aggressive perforated
        ],
    );
}

#[test]
fn kmeans_output_at_the_benchmark_shape_is_pinned() {
    // Eight clusters of sixteen dimensions, as the benchmark runs, on fewer
    // points.
    let kmeans = KMeans {
        points: 1024,
        dims: 16,
        clusters: 8,
        chunks: 8,
        max_iterations: 8,
        seed: 7,
    };
    assert_pinned(
        &kmeans,
        &[
            0x88ead823f96cf0c3, // serial
            0x88ead823f96cf0c3, // full-accuracy agnostic
            0x88ead823f96cf0c3, // full-accuracy LQH
            0x615969205f060203, // Mild GTB-Max
            0x1dc3343c249bc36c, // Medium GTB-Max
            0xbb7d5498c8223182, // Aggressive GTB-Max
            0x6e0bb7b4524601da, // Mild perforated
            0xe67bfd234dbc8b8d, // Medium perforated
            0x4db220f183d6749e, // Aggressive perforated
        ],
    );
}

#[test]
fn kmeans_output_with_an_odd_cluster_count_is_pinned() {
    // Five clusters of three dimensions; seven chunks do not divide 1000
    // points.
    let kmeans = KMeans {
        points: 1000,
        dims: 3,
        clusters: 5,
        chunks: 7,
        max_iterations: 8,
        seed: 7,
    };
    assert_pinned(
        &kmeans,
        &[
            0x1bdbccd4cc89bf37, // serial
            0x1bdbccd4cc89bf37, // full-accuracy agnostic
            0x1bdbccd4cc89bf37, // full-accuracy LQH
            0xeaf0496466cf8595, // Mild GTB-Max
            0x16ad3fe9023d3297, // Medium GTB-Max
            0xfd12b2e956cf7f5c, // Aggressive GTB-Max
            0x8129c25a5effe776, // Mild perforated
            0x4d6e74079f513c34, // Medium perforated
            0x8c943bb9d7c4b2b3, // Aggressive perforated
        ],
    );
}

#[test]
fn jacobi_output_is_pinned() {
    // Seven blocks do not divide 200 unknowns, and a band of 12 is clipped
    // at both ends of the matrix.
    let jacobi = Jacobi {
        n: 200,
        blocks: 7,
        band: 12,
        approx_sweeps: 3,
        max_sweeps: 60,
        native_tolerance: 1e-5,
        seed: 11,
    };
    assert_pinned(
        &jacobi,
        &[
            0xdce30459b86098d9, // serial
            0xdce30459b86098d9, // full-accuracy agnostic
            0xdce30459b86098d9, // full-accuracy LQH
            0x19e54cead6e2ae6b, // Mild GTB-Max
            0x5d633ac176e94056, // Medium GTB-Max
            0x5d633ac176e94056, // Aggressive GTB-Max
            0xb953aa4287f8662b, // Mild perforated
            0xb953aa4287f8662b, // Medium perforated
            0x4e8c11ead9c646f6, // Aggressive perforated
        ],
    );
}

#[test]
fn fluidanimate_output_is_pinned() {
    // 300 particles are a multiple of neither 64 nor the seven chunks.
    let fluid = Fluidanimate {
        particles: 300,
        steps: 10,
        chunks: 7,
        dt: 0.002,
        radius: 0.08,
        seed: 13,
    };
    assert_pinned(
        &fluid,
        &[
            0xae549f84cdd20c99, // serial
            0xae549f84cdd20c99, // full-accuracy agnostic
            0xae549f84cdd20c99, // full-accuracy LQH
            0x021dd6f646237eb6, // Mild GTB-Max
            0x92b7ef3153e9f79f, // Medium GTB-Max
            0x250c0fadedfdfb97, // Aggressive GTB-Max
        ],
    );
}

#[test]
fn synthetic_inputs_at_benchmark_size_are_pinned() {
    // FNV-1a of the pixel bytes of the Sobel and DCT inputs at the
    // benchmark's timing sizes, recorded before `GrayImage::synthetic` shared
    // ring terms between mirrored rows and columns. At these power-of-two
    // sizes every mirror pair shares; the kernel pins above run far smaller
    // images.
    let sobel = Sobel {
        width: 2048,
        height: 1024,
    };
    let dct = Dct {
        width: 1024,
        height: 512,
    };
    assert_eq!(fnv1a(sobel.input().into_raw()), 0x773befce11990702);
    assert_eq!(fnv1a(dct.input().into_raw()), 0x5735c60059b1c0ef);
}
