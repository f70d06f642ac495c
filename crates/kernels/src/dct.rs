//! Discrete Cosine Transform (8×8 block DCT, the JPEG building block).
//!
//! The image is split into 8×8 blocks. The 64 coefficients of a block are
//! grouped into 15 diagonal *frequency layers* (`u + v = 0 .. 14`); a task
//! computes one frequency layer for all blocks of one stripe of block rows.
//! "We assign higher significance to tasks that compute lower frequency
//! coefficients" (Section 4.1), because the human eye is more sensitive to
//! low spatial frequencies. Non-accurate tasks are **dropped** (no
//! `approxfun`), zeroing their coefficients — exactly what JPEG quantisation
//! does to high frequencies.
//!
//! Degrees (Table 1): ratio 80% / 40% / 10%; quality metric PSNR of the
//! reconstructed (inverse-transformed) image.
//!
//! # What is tabulated, and what is not reordered
//!
//! Nothing about the transform but the pixels changes between coefficients,
//! so `Basis` holds, once per run, the 64 cosines `cos((2x + 1)·u·π / 16)`,
//! the 64 products `alpha(u)·alpha(v)` and the `(u, v)` positions of each
//! layer — a JPEG codec reads its cosines from a table too. The table is
//! built from the expression the textbook sum evaluates per term, and every
//! coefficient and every reconstructed pixel still multiplies the same
//! factors in the same association and adds its 64 terms in the same order:
//! floating-point addition does not associate, so that order is part of the
//! kernel's contract, and `tests/output_fingerprints.rs` and the reference
//! formulas in this module's tests hold the output to it bit for bit. What
//! the kernel is free to do, and does, is advance several *independent* sums
//! side by side (a separable row–column transform would be faster still,
//! and would round differently).

use std::f64::consts::PI;
use std::sync::Arc;
use std::time::Instant;

use sig_core::{Policy, Runtime, SharedGrid};
use sig_perforation::{kept_indices, PerforationRate};
use sig_quality::{GrayImage, QualityMetric};

use crate::common::{
    Approach, ApproxTechnique, Benchmark, BenchmarkInfo, Degree, ExecutionConfig, RunOutput,
};

/// Block edge length (8, as in JPEG).
const BLOCK: usize = 8;
/// Number of diagonal frequency layers in an 8×8 block (`u + v` in `0..=14`).
const LAYERS: usize = 2 * BLOCK - 1;

/// DCT benchmark configuration.
#[derive(Debug, Clone)]
pub struct Dct {
    /// Image width (multiple of 8).
    pub width: usize,
    /// Image height (multiple of 8).
    pub height: usize,
}

impl Default for Dct {
    fn default() -> Self {
        Dct {
            width: 256,
            height: 256,
        }
    }
}

/// Number of `(u, v)` coefficient positions on diagonal layer `k`.
fn layer_size(k: usize) -> usize {
    assert!(k < LAYERS);
    if k < BLOCK {
        k + 1
    } else {
        2 * BLOCK - 1 - k
    }
}

/// The `(u, v)` coefficient positions on layer `k`, in ascending `u`.
fn layer_positions(k: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..BLOCK).filter_map(move |u| {
        let v = k.checked_sub(u)?;
        (v < BLOCK).then_some((u, v))
    })
}

/// DCT-II basis scale factor.
fn alpha(u: usize) -> f64 {
    if u == 0 {
        (1.0 / BLOCK as f64).sqrt()
    } else {
        (2.0 / BLOCK as f64).sqrt()
    }
}

/// Everything about the 8×8 transform that does not depend on the pixels,
/// built once per run and shared by every task.
#[derive(Debug, Clone)]
struct Basis {
    /// `cos[x][u] = cos((2x + 1)·u·π / 16)`.
    cos: [[f64; BLOCK]; BLOCK],
    /// `scale[u][v] = alpha(u) · alpha(v)`.
    scale: [[f64; BLOCK]; BLOCK],
    /// The `(u, v)` positions of all layers back to back, layer `k` at
    /// `layer_start[k]..layer_start[k + 1]`.
    positions: [(usize, usize); BLOCK * BLOCK],
    layer_start: [usize; LAYERS + 1],
}

impl Basis {
    fn new() -> Self {
        let mut basis = Basis {
            cos: [[0.0; BLOCK]; BLOCK],
            scale: [[0.0; BLOCK]; BLOCK],
            positions: [(0, 0); BLOCK * BLOCK],
            layer_start: [0; LAYERS + 1],
        };
        for x in 0..BLOCK {
            for u in 0..BLOCK {
                // Term for term the expression the transform is defined by.
                basis.cos[x][u] =
                    ((2.0 * x as f64 + 1.0) * u as f64 * PI / (2.0 * BLOCK as f64)).cos();
                basis.scale[x][u] = alpha(x) * alpha(u);
            }
        }
        let mut next = 0;
        for k in 0..LAYERS {
            basis.layer_start[k] = next;
            for position in layer_positions(k) {
                basis.positions[next] = position;
                next += 1;
            }
        }
        basis.layer_start[LAYERS] = next;
        basis
    }

    /// The `(u, v)` positions on layer `k`, in ascending `u`.
    fn layer(&self, k: usize) -> &[(usize, usize)] {
        &self.positions[self.layer_start[k]..self.layer_start[k + 1]]
    }

    /// Inverse-transform one block from a dense 64-coefficient array. Each
    /// pixel adds the terms `scale[u][v]·c·cos_x[u]·cos_y[v]` in `(u, v)`
    /// order, and the eight pixels of a row advance together, one lane each
    /// (see `compute_stripe_layer`). The first three factors do not depend
    /// on the row, so they are multiplied once per block, in the same
    /// association, not once per row.
    ///
    /// Coefficients that are exactly `±0.0` (every coefficient of a layer
    /// the runtime dropped) are skipped. Their term is a zero, and adding a
    /// zero leaves a nonzero sum unchanged; it can only change the sign of
    /// a zero sum. So each sum with the term skipped equals the sum with it
    /// added, bit for bit unless both are zeros; every later term leaves
    /// that so, and `+ 128.0` turns either zero into the same `128.0`. No
    /// output bit moves.
    fn inverse_block(&self, coeffs: &[f64; BLOCK * BLOCK], out: &mut [f64; BLOCK * BLOCK]) {
        // terms[..n]: for each nonzero coefficient in `(u, v)` order, its
        // `v` and `scale[u][v]·c·cos_x[u]` for every `x`.
        let mut terms = [(0usize, [0.0f64; BLOCK]); BLOCK * BLOCK];
        let mut n = 0;
        for u in 0..BLOCK {
            for v in 0..BLOCK {
                let c = coeffs[v * BLOCK + u];
                if c == 0.0 {
                    continue;
                }
                let scaled = self.scale[u][v] * c;
                terms[n].0 = v;
                for (term, cos_x) in terms[n].1.iter_mut().zip(&self.cos) {
                    *term = scaled * cos_x[u];
                }
                n += 1;
            }
        }
        for (cos_y, out_row) in self.cos.iter().zip(out.chunks_exact_mut(BLOCK)) {
            let mut sums = [0.0f64; BLOCK];
            for (v, row_terms) in &terms[..n] {
                let cos_yv = cos_y[*v];
                for (sum, term) in sums.iter_mut().zip(row_terms) {
                    *sum += term * cos_yv;
                }
            }
            for (pixel, sum) in out_row.iter_mut().zip(sums) {
                *pixel = (sum + 128.0).clamp(0.0, 255.0);
            }
        }
    }
}

/// Layout of the layer-major coefficient buffer: coefficients are stored
/// first by layer, then by stripe (block row), then by block within the
/// stripe, then by position within the layer. This keeps each
/// (stripe, layer) task's output contiguous so tasks can hold disjoint
/// region writers.
#[derive(Debug, Clone)]
struct CoeffLayout {
    blocks_x: usize,
    blocks_y: usize,
    /// Starting offset of each layer's segment.
    layer_offsets: Vec<usize>,
    total: usize,
}

impl CoeffLayout {
    fn new(width: usize, height: usize) -> Self {
        let blocks_x = width / BLOCK;
        let blocks_y = height / BLOCK;
        let mut layer_offsets = Vec::with_capacity(LAYERS);
        let mut offset = 0;
        for k in 0..LAYERS {
            layer_offsets.push(offset);
            offset += layer_size(k) * blocks_x * blocks_y;
        }
        CoeffLayout {
            blocks_x,
            blocks_y,
            layer_offsets,
            total: offset,
        }
    }

    /// Region (half-open range) written by the task for (stripe `by`,
    /// layer `k`).
    fn stripe_layer_range(&self, by: usize, k: usize) -> (usize, usize) {
        let per_block = layer_size(k);
        let start = self.layer_offsets[k] + by * self.blocks_x * per_block;
        (start, start + self.blocks_x * per_block)
    }

    /// Offset of coefficient position `pos_idx` (index into
    /// `Basis::layer(k)`) of block `(bx, by)` on layer `k`.
    fn coeff_offset(&self, bx: usize, by: usize, k: usize, pos_idx: usize) -> usize {
        let per_block = layer_size(k);
        self.layer_offsets[k] + (by * self.blocks_x + bx) * per_block + pos_idx
    }
}

impl Dct {
    /// The accurate-task ratio for an approximation degree (Table 1).
    pub fn ratio_for(degree: Degree) -> f64 {
        match degree {
            Degree::Mild => 0.80,
            Degree::Medium => 0.40,
            Degree::Aggressive => 0.10,
        }
    }

    /// Significance of the task computing frequency layer `k`: lower
    /// frequencies (small `k`) are more significant. Kept inside `(0, 1)` so
    /// the special values 0.0/1.0 are reserved for unconditional decisions,
    /// as the paper's Sobel example recommends.
    pub fn significance_for_layer(k: usize) -> f64 {
        0.9 - 0.8 * k as f64 / (LAYERS - 1) as f64
    }

    /// The deterministic synthetic input image.
    pub fn input(&self) -> GrayImage {
        GrayImage::synthetic(self.width, self.height)
    }

    /// # Panics
    ///
    /// Panics unless both sides are multiples of 8: a partial block would
    /// be left out of the transform, and its pixels at `0.0`.
    fn layout(&self) -> CoeffLayout {
        assert!(
            self.width.is_multiple_of(BLOCK) && self.height.is_multiple_of(BLOCK),
            "DCT image sides must be multiples of {BLOCK}, got {}x{}",
            self.width,
            self.height
        );
        CoeffLayout::new(self.width, self.height)
    }

    /// Compute the coefficients of one (stripe, layer) chunk into `out`,
    /// which must be the region returned by `stripe_layer_range`.
    ///
    /// The coefficients of a block on one layer advance together over its
    /// pixels, one lane each: every sum still adds its 64 terms in `(y, x)`
    /// order, but the sums are independent, so their additions overlap
    /// instead of each waiting for the one before.
    fn compute_stripe_layer(
        pixels: &[u8],
        width: usize,
        basis: &Basis,
        by: usize,
        k: usize,
        out: &mut [f64],
    ) {
        let positions = basis.layer(k);
        // cos_u[x][lane] and cos_v[y][lane] for the lane's (u, v); the lanes
        // a short layer leaves over multiply by zero and are thrown away.
        let mut cos_u = [[0.0f64; BLOCK]; BLOCK];
        let mut cos_v = [[0.0f64; BLOCK]; BLOCK];
        for (lane, &(u, v)) in positions.iter().enumerate() {
            for x in 0..BLOCK {
                cos_u[x][lane] = basis.cos[x][u];
                cos_v[x][lane] = basis.cos[x][v];
            }
        }
        for (bx, block) in out.chunks_exact_mut(positions.len()).enumerate() {
            let mut sums = [0.0f64; BLOCK];
            for (y, cos_y) in cos_v.iter().enumerate() {
                let row = &pixels[(by * BLOCK + y) * width + bx * BLOCK..][..BLOCK];
                for (&pixel, cos_x) in row.iter().zip(&cos_u) {
                    let p = pixel as f64 - 128.0;
                    for lane in 0..BLOCK {
                        sums[lane] += p * cos_x[lane] * cos_y[lane];
                    }
                }
            }
            for ((coeff, sum), &(u, v)) in block.iter_mut().zip(sums).zip(positions) {
                *coeff = basis.scale[u][v] * sum;
            }
        }
    }

    /// Reconstruct the image from a (possibly partial) layer-major
    /// coefficient buffer; missing coefficients are zero, exactly like
    /// aggressively quantised JPEG.
    fn reconstruct(&self, layout: &CoeffLayout, basis: &Basis, coeffs: &[f64]) -> Vec<f64> {
        let mut image = vec![0.0f64; self.width * self.height];
        let mut block_coeffs = [0.0f64; BLOCK * BLOCK];
        let mut block_pixels = [0.0f64; BLOCK * BLOCK];
        for by in 0..layout.blocks_y {
            for bx in 0..layout.blocks_x {
                for k in 0..LAYERS {
                    for (pos_idx, &(u, v)) in basis.layer(k).iter().enumerate() {
                        block_coeffs[v * BLOCK + u] =
                            coeffs[layout.coeff_offset(bx, by, k, pos_idx)];
                    }
                }
                basis.inverse_block(&block_coeffs, &mut block_pixels);
                for (y, row) in block_pixels.chunks_exact(BLOCK).enumerate() {
                    let start = (by * BLOCK + y) * self.width + bx * BLOCK;
                    image[start..start + BLOCK].copy_from_slice(row);
                }
            }
        }
        image
    }

    /// Serial fully accurate execution (all layers computed): the perforated
    /// loop with nothing perforated.
    pub fn run_accurate_serial(&self) -> Vec<f64> {
        self.run_perforated(1.0).values
    }

    /// Significance-annotated task execution: one task per (stripe, layer).
    pub fn run_tasks(&self, workers: usize, policy: Policy, ratio: f64) -> RunOutput {
        let layout = self.layout();
        let basis = Arc::new(Basis::new());
        let img = Arc::new(self.input().into_raw());
        let width = self.width;
        let coeffs = SharedGrid::new(1, layout.total, 0.0f64);
        let start = Instant::now();
        let rt = Runtime::builder().workers(workers).policy(policy).build();
        let group = rt.create_group("dct", ratio);
        for by in 0..layout.blocks_y {
            for k in 0..LAYERS {
                let (seg_start, seg_end) = layout.stripe_layer_range(by, k);
                let mut region = coeffs.region_writer(seg_start, seg_end);
                let img = img.clone();
                let basis = basis.clone();
                rt.task(move || {
                    Dct::compute_stripe_layer(&img, width, &basis, by, k, region.as_mut_slice());
                })
                // No approxfun: tasks selected for approximation are dropped,
                // zeroing their frequency layer.
                .significance(Dct::significance_for_layer(k))
                .group(&group)
                .spawn();
            }
        }
        rt.wait_group(&group);
        let elapsed = start.elapsed();
        let values = self.reconstruct(&layout, &basis, &coeffs.into_vec());
        RunOutput::from_runtime(&rt, values, elapsed)
    }

    /// Blind loop perforation over the same (stripe, layer) iteration space:
    /// the kept fraction equals the accurate-task ratio, but the selection is
    /// significance-oblivious, so low-frequency layers get dropped too.
    pub fn run_perforated(&self, ratio: f64) -> RunOutput {
        let layout = self.layout();
        let basis = Basis::new();
        let img = self.input();
        let pixels = img.pixels();
        let mut coeffs = vec![0.0f64; layout.total];
        let start = Instant::now();
        let total_chunks = layout.blocks_y * LAYERS;
        let kept = kept_indices(total_chunks, PerforationRate::keep(ratio));
        for &chunk in &kept {
            let by = chunk / LAYERS;
            let k = chunk % LAYERS;
            let (seg_start, seg_end) = layout.stripe_layer_range(by, k);
            Dct::compute_stripe_layer(
                pixels,
                self.width,
                &basis,
                by,
                k,
                &mut coeffs[seg_start..seg_end],
            );
        }
        let elapsed = start.elapsed();
        RunOutput::serial(self.reconstruct(&layout, &basis, &coeffs), elapsed)
    }
}

impl Benchmark for Dct {
    fn info(&self) -> BenchmarkInfo {
        BenchmarkInfo {
            name: "DCT",
            technique: ApproxTechnique::Drop,
            degree_parameter: "accurate-task ratio",
            degrees: [0.80, 0.40, 0.10],
            metric: QualityMetric::PsnrInverse,
            perforation_supported: true,
        }
    }

    fn run(&self, config: &ExecutionConfig) -> RunOutput {
        match config.approach {
            Approach::Accurate => self.run_perforated(1.0),
            Approach::Significance { policy, degree } => {
                self.run_tasks(config.workers, policy, Dct::ratio_for(degree))
            }
            Approach::Perforation { degree } => self.run_perforated(Dct::ratio_for(degree)),
        }
    }

    fn run_full_accuracy(&self, workers: usize, policy: Policy) -> RunOutput {
        self.run_tasks(workers, policy, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn small() -> Dct {
        Dct {
            width: 64,
            height: 64,
        }
    }

    fn cos_term(x: usize, u: usize) -> f64 {
        ((2.0 * x as f64 + 1.0) * u as f64 * PI / (2.0 * BLOCK as f64)).cos()
    }

    /// The forward transform as first written: 128 cosines per coefficient.
    fn block_coefficient_reference(
        pixels: &[u8],
        width: usize,
        bx: usize,
        by: usize,
        u: usize,
        v: usize,
    ) -> f64 {
        let mut sum = 0.0;
        for y in 0..BLOCK {
            for x in 0..BLOCK {
                let p = pixels[(by * BLOCK + y) * width + bx * BLOCK + x] as f64 - 128.0;
                sum += p * cos_term(x, u) * cos_term(y, v);
            }
        }
        alpha(u) * alpha(v) * sum
    }

    /// The inverse transform as first written.
    fn inverse_block_reference(coeffs: &[f64; BLOCK * BLOCK], out: &mut [f64; BLOCK * BLOCK]) {
        for y in 0..BLOCK {
            for x in 0..BLOCK {
                let mut sum = 0.0;
                for u in 0..BLOCK {
                    for v in 0..BLOCK {
                        sum += alpha(u)
                            * alpha(v)
                            * coeffs[v * BLOCK + u]
                            * cos_term(x, u)
                            * cos_term(y, v);
                    }
                }
                out[y * BLOCK + x] = (sum + 128.0).clamp(0.0, 255.0);
            }
        }
    }

    #[test]
    fn tabulated_transforms_match_the_formulas_bit_for_bit() {
        let basis = Basis::new();
        let mut rng = StdRng::seed_from_u64(0xdc7);
        for _ in 0..200 {
            let (blocks_x, blocks_y) = (rng.gen_range(1..4usize), rng.gen_range(1..4usize));
            let width = blocks_x * BLOCK;
            let pixels: Vec<u8> = (0..width * blocks_y * BLOCK)
                .map(|_| rng.gen_range(0..256usize) as u8)
                .collect();
            let by = rng.gen_range(0..blocks_y);
            let bx = rng.gen_range(0..blocks_x);
            let mut coeffs = [0.0f64; BLOCK * BLOCK];
            // Drop whole layers as GTB does: every layer from a cutoff up
            // (the least significant), and now and then one below it.
            let cutoff = rng.gen_range(0..LAYERS + 1);
            for k in 0..LAYERS {
                let dropped = k >= cutoff || rng.gen_range(0..8usize) == 0;
                let positions = basis.layer(k);
                let mut stripe = vec![0.0f64; blocks_x * positions.len()];
                Dct::compute_stripe_layer(&pixels, width, &basis, by, k, &mut stripe);
                for (block, fast) in stripe.chunks_exact(positions.len()).enumerate() {
                    for (&fast, &(u, v)) in fast.iter().zip(positions) {
                        let reference =
                            block_coefficient_reference(&pixels, width, block, by, u, v);
                        assert_eq!(
                            fast.to_bits(),
                            reference.to_bits(),
                            "coefficient ({u}, {v})"
                        );
                        // Scatter +0.0 and -0.0 among the kept coefficients.
                        if block == bx && !dropped {
                            coeffs[v * BLOCK + u] = match rng.gen_range(0..8usize) {
                                0 => 0.0,
                                1 => -0.0,
                                _ => fast,
                            };
                        }
                    }
                }
            }
            let mut fast = [0.0f64; BLOCK * BLOCK];
            let mut reference = [0.0f64; BLOCK * BLOCK];
            basis.inverse_block(&coeffs, &mut fast);
            inverse_block_reference(&coeffs, &mut reference);
            assert_eq!(fast.map(f64::to_bits), reference.map(f64::to_bits));
        }
    }

    #[test]
    #[should_panic(expected = "multiples of 8")]
    fn sides_that_are_not_multiples_of_8_are_refused() {
        // A 100x50 transform would leave a 4-pixel right border and a
        // 2-pixel bottom border at 0.0.
        Dct {
            width: 100,
            height: 50,
        }
        .run_accurate_serial();
    }

    #[test]
    fn layer_sizes_sum_to_64() {
        let total: usize = (0..LAYERS).map(layer_size).sum();
        assert_eq!(total, BLOCK * BLOCK);
        assert_eq!(layer_size(0), 1);
        assert_eq!(layer_size(7), 8);
        assert_eq!(layer_size(14), 1);
    }

    #[test]
    fn layer_positions_are_on_the_diagonal() {
        let basis = Basis::new();
        for k in 0..LAYERS {
            let positions = basis.layer(k);
            assert_eq!(positions.len(), layer_size(k));
            assert!(positions
                .iter()
                .all(|&(u, v)| u + v == k && u < BLOCK && v < BLOCK));
        }
    }

    #[test]
    fn significance_decreases_with_frequency() {
        let low = Dct::significance_for_layer(0);
        let high = Dct::significance_for_layer(LAYERS - 1);
        assert!(low > high);
        assert!(low < 1.0 && high > 0.0, "special values must not be used");
    }

    #[test]
    fn ratios_match_table1() {
        assert_eq!(Dct::ratio_for(Degree::Mild), 0.80);
        assert_eq!(Dct::ratio_for(Degree::Medium), 0.40);
        assert_eq!(Dct::ratio_for(Degree::Aggressive), 0.10);
    }

    #[test]
    fn full_transform_roundtrips_the_image() {
        let d = small();
        let original: Vec<f64> = d.input().to_f64();
        let reconstructed = d.run_accurate_serial();
        // DCT followed by IDCT with all coefficients reproduces the image
        // (up to clamping / floating point noise).
        let max_err = original
            .iter()
            .zip(&reconstructed)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_err < 1.0, "roundtrip error {max_err} too large");
    }

    #[test]
    fn task_version_with_full_ratio_matches_serial() {
        let d = small();
        let serial = d.run_accurate_serial();
        let tasks = d.run_tasks(2, Policy::GtbMaxBuffer, 1.0);
        assert_eq!(serial, tasks.values);
        let layout = d.layout();
        assert_eq!(tasks.tasks.total, layout.blocks_y * LAYERS);
    }

    #[test]
    fn dropping_high_frequencies_is_graceful() {
        let d = small();
        let reference = d.run(&ExecutionConfig::accurate(2));
        let mild = d.run(&ExecutionConfig::significance(
            2,
            Policy::GtbMaxBuffer,
            Degree::Mild,
        ));
        let aggr = d.run(&ExecutionConfig::significance(
            2,
            Policy::GtbMaxBuffer,
            Degree::Aggressive,
        ));
        let q_mild = d.quality(&reference, &mild).value;
        let q_aggr = d.quality(&reference, &aggr).value;
        assert!(q_mild <= q_aggr);
        // Even at 10% accurate tasks the image survives (PSNR > 10 dB) since
        // the kept tasks are the perceptually important low frequencies.
        assert!(q_aggr < 0.1, "aggressive PSNR^-1 {q_aggr}");
        // Dropped tasks show up in the counters.
        assert!(aggr.tasks.dropped > 0);
        assert_eq!(aggr.tasks.approximate, 0);
    }

    #[test]
    fn significance_beats_blind_perforation_at_equal_work() {
        let d = small();
        let reference = d.run(&ExecutionConfig::accurate(2));
        let ours = d.run(&ExecutionConfig::significance(
            2,
            Policy::GtbMaxBuffer,
            Degree::Medium,
        ));
        let perf = d.run(&ExecutionConfig::perforation(2, Degree::Medium));
        let q_ours = d.quality(&reference, &ours).value;
        let q_perf = d.quality(&reference, &perf).value;
        assert!(
            q_ours < q_perf,
            "significance-driven drop ({q_ours}) should beat blind perforation ({q_perf})"
        );
    }

    #[test]
    fn coeff_layout_ranges_are_disjoint_and_cover_everything() {
        let layout = CoeffLayout::new(64, 64);
        let mut covered = vec![false; layout.total];
        for by in 0..layout.blocks_y {
            for k in 0..LAYERS {
                let (s, e) = layout.stripe_layer_range(by, k);
                for slot in &mut covered[s..e] {
                    assert!(!*slot, "overlapping coefficient ranges");
                    *slot = true;
                }
            }
        }
        assert!(covered.into_iter().all(|c| c));
    }
}
