//! K-means clustering.
//!
//! Each iteration spawns one task per chunk of observations; a task assigns
//! its observations to the nearest centroid and accumulates partial sums for
//! the centroid update. All tasks share one significance value — "The degree
//! of approximation is controlled by the ratio used at taskwait pragmas"
//! (Section 4.1). The approximate body computes "a simpler version of the
//! euclidean distance, while at the same time considering only a subset (1/8)
//! of the dimensions", and only observations processed by *accurate* tasks
//! participate in the convergence criterion (fewer than 1/1000 of the
//! population changing cluster).
//!
//! Degrees (Table 1): ratio 80% / 60% / 40%; quality metric relative error of
//! the final centroids.
//!
//! # What is summed side by side, and what is not reordered
//!
//! An observation's distance to one cluster is a chain of additions, each
//! waiting on the one before. A task therefore measures an observation
//! against eight clusters at once (`nearest`), reading a transposed copy of
//! the centroids (`lane_table`, built once per task) in which dimension `d`
//! of eight clusters sits side by side; a cluster count that does not fill
//! the last group of eight pads it with lanes whose sums are thrown away.
//! Each cluster's sum still starts at `-0.0`, as `Iterator::sum` does, and
//! adds its terms in dimension order, and the nearest cluster is still the
//! first one in cluster order with the smallest distance (a strict `<`):
//! floating-point addition does not associate, so these orders are part of
//! the kernel's contract, pinned bit for bit by
//! `tests/output_fingerprints.rs` and by the one-cluster-at-a-time
//! reference in this module's tests. Only the additions of different
//! clusters interleave, and those never meet.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sig_core::{Policy, Runtime, SharedGrid};
use sig_perforation::{kept_indices, PerforationRate};
use sig_quality::QualityMetric;

use crate::common::{
    Approach, ApproxTechnique, Benchmark, BenchmarkInfo, Degree, ExecutionConfig, RunOutput,
};

/// K-means benchmark configuration.
#[derive(Debug, Clone)]
pub struct KMeans {
    /// Number of observations.
    pub points: usize,
    /// Dimensionality of each observation.
    pub dims: usize,
    /// Number of clusters.
    pub clusters: usize,
    /// Number of task chunks per iteration.
    pub chunks: usize,
    /// Maximum number of iterations.
    pub max_iterations: usize,
    /// RNG seed for the synthetic observation set.
    pub seed: u64,
}

impl Default for KMeans {
    fn default() -> Self {
        KMeans {
            points: 4096,
            dims: 16,
            clusters: 8,
            chunks: 64,
            max_iterations: 20,
            seed: 0x5eed_0002,
        }
    }
}

/// Layout of one chunk's partial-result row:
/// `[cluster 0 sums (dims), cluster 0 count, cluster 1 sums, ..., moved]`.
fn partial_row_len(clusters: usize, dims: usize) -> usize {
    clusters * (dims + 1) + 1
}

/// Clusters whose distances to one observation are summed side by side.
const LANES: usize = 8;

/// The centroids transposed into groups of `LANES` clusters:
/// `table[g * dims + d][lane]` is dimension `d` of cluster `g · LANES + lane`.
/// The lanes past the last cluster hold zeros; their sums are thrown away.
fn lane_table(centroids: &[f64], dims: usize, clusters: usize) -> Vec<[f64; LANES]> {
    let mut table = vec![[0.0f64; LANES]; clusters.div_ceil(LANES) * dims];
    for (i, &value) in centroids[..clusters * dims].iter().enumerate() {
        let (c, d) = (i / dims, i % dims);
        table[c / LANES * dims + d][c % LANES] = value;
    }
    table
}

/// The cluster nearest to `obs` by the distance `Σ_d term(obs[d] − c[d])`
/// over the first `dims_used` dimensions, the first in cluster order on a
/// tie. Each cluster's sum starts at `-0.0` and adds its terms in dimension
/// order, as an `Iterator::sum` over that cluster alone would.
fn nearest(
    obs: &[f64],
    table: &[[f64; LANES]],
    dims: usize,
    dims_used: usize,
    clusters: usize,
    term: impl Fn(f64) -> f64,
) -> usize {
    let mut best = 0usize;
    let mut best_dist = f64::INFINITY;
    for g in 0..clusters.div_ceil(LANES) {
        let mut sums = [-0.0f64; LANES];
        for (x, row) in obs.iter().zip(&table[g * dims..g * dims + dims_used]) {
            for (sum, c) in sums.iter_mut().zip(row) {
                *sum += term(x - c);
            }
        }
        let real = (clusters - g * LANES).min(LANES);
        for (lane, &d) in sums[..real].iter().enumerate() {
            if d < best_dist {
                best_dist = d;
                best = g * LANES + lane;
            }
        }
    }
    best
}

/// Process one chunk of observations against the given centroids.
///
/// Writes partial sums/counts (and, for accurate tasks only, the number of
/// observations that changed cluster) into `partials`, and the new
/// assignments into `assignments`. The accurate body measures the squared
/// Euclidean distance over all dimensions, the approximate one the L1
/// distance over the first `dims / 8` (at least one).
#[allow(clippy::too_many_arguments)]
fn process_chunk(
    points: &[f64],
    dims: usize,
    clusters: usize,
    centroids: &[f64],
    prev_assignments: &[usize],
    range: std::ops::Range<usize>,
    accurate: bool,
    partials: &mut [f64],
    assignments: &mut [usize],
) {
    partials.fill(0.0);
    let table = lane_table(centroids, dims, clusters);
    let mut moved = 0usize;
    for (local, p) in range.clone().enumerate() {
        let obs = &points[p * dims..(p + 1) * dims];
        let best = if accurate {
            nearest(obs, &table, dims, dims, clusters, |diff| diff * diff)
        } else {
            let subset = (dims / 8).max(1).min(dims);
            nearest(obs, &table, dims, subset, clusters, f64::abs)
        };
        if best != prev_assignments[p] {
            moved += 1;
        }
        assignments[local] = best;
        let base = best * (dims + 1);
        for d in 0..dims {
            partials[base + d] += obs[d];
        }
        partials[base + dims] += 1.0;
    }
    // Only accurate tasks feed the convergence criterion.
    let moved_slot = partials.len() - 1;
    partials[moved_slot] = if accurate { moved as f64 } else { 0.0 };
}

impl KMeans {
    /// The accurate-task ratio for an approximation degree (Table 1).
    pub fn ratio_for(degree: Degree) -> f64 {
        match degree {
            Degree::Mild => 0.80,
            Degree::Medium => 0.60,
            Degree::Aggressive => 0.40,
        }
    }

    /// Deterministic synthetic observations: `clusters` Gaussian-ish blobs.
    fn observations(&self) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let centres: Vec<f64> = (0..self.clusters * self.dims)
            .map(|_| rng.gen_range(0.0..100.0))
            .collect();
        let mut points = Vec::with_capacity(self.points * self.dims);
        for p in 0..self.points {
            let c = p % self.clusters;
            for d in 0..self.dims {
                let noise: f64 = rng.gen_range(-4.0..4.0);
                points.push(centres[c * self.dims + d] + noise);
            }
        }
        points
    }

    /// Initial centroids: the first `clusters` observations (deterministic).
    fn initial_centroids(&self, points: &[f64]) -> Vec<f64> {
        points[..self.clusters * self.dims].to_vec()
    }

    fn chunk_range(&self, chunk: usize) -> std::ops::Range<usize> {
        let per_chunk = self.points.div_ceil(self.chunks);
        let end = ((chunk + 1) * per_chunk).min(self.points);
        // Trailing chunks are empty when the points run out early.
        (chunk * per_chunk).min(end)..end
    }

    /// Reduce per-chunk partials into new centroids; clusters that received
    /// no observations keep their previous centroid. Returns the total moved
    /// count reported by accurate chunks.
    fn reduce(&self, partials: &[f64], previous: &[f64], centroids: &mut [f64]) -> usize {
        let row = partial_row_len(self.clusters, self.dims);
        let mut sums = vec![0.0f64; self.clusters * self.dims];
        let mut counts = vec![0.0f64; self.clusters];
        let mut moved = 0.0f64;
        for chunk in 0..self.chunks {
            let part = &partials[chunk * row..(chunk + 1) * row];
            for c in 0..self.clusters {
                let base = c * (self.dims + 1);
                for d in 0..self.dims {
                    sums[c * self.dims + d] += part[base + d];
                }
                counts[c] += part[base + self.dims];
            }
            moved += part[row - 1];
        }
        for c in 0..self.clusters {
            for d in 0..self.dims {
                centroids[c * self.dims + d] = if counts[c] > 0.0 {
                    sums[c * self.dims + d] / counts[c]
                } else {
                    previous[c * self.dims + d]
                };
            }
        }
        moved as usize
    }

    /// Convergence threshold: fewer than 1/1000 of the population moving.
    fn moved_threshold(&self) -> usize {
        (self.points / 1000).max(1)
    }

    /// Serial fully accurate execution; returns the final centroids. It is
    /// the perforated loop with no chunk perforated.
    #[cfg(test)]
    fn run_accurate_serial(&self) -> Vec<f64> {
        self.run_perforated(1.0).values
    }

    /// Significance-annotated task execution.
    pub fn run_tasks(&self, workers: usize, policy: Policy, ratio: f64) -> RunOutput {
        let points = Arc::new(self.observations());
        let mut centroids = self.initial_centroids(&points);
        let mut assignments: Arc<Vec<usize>> = Arc::new(vec![usize::MAX; self.points]);
        let row = partial_row_len(self.clusters, self.dims);
        let dims = self.dims;
        let clusters = self.clusters;

        let start = Instant::now();
        let rt = Runtime::builder().workers(workers).policy(policy).build();
        let group = rt.create_group("kmeans", ratio);
        for _ in 0..self.max_iterations {
            let partials = SharedGrid::new(self.chunks, row, 0.0f64);
            let per_chunk = self.points.div_ceil(self.chunks);
            let new_assignments = SharedGrid::new(self.chunks, per_chunk, usize::MAX);
            let shared_centroids = Arc::new(centroids.clone());
            for chunk in 0..self.chunks {
                let range = self.chunk_range(chunk);
                let part = Arc::new(std::sync::Mutex::new((
                    partials.row_writer(chunk),
                    new_assignments.row_writer(chunk),
                )));
                let part_apx = part.clone();
                let points_acc = points.clone();
                let points_apx = points.clone();
                let centroids_acc = shared_centroids.clone();
                let centroids_apx = shared_centroids.clone();
                let prev_acc = assignments.clone();
                let prev_apx = assignments.clone();
                let range_apx = range.clone();
                rt.task(move || {
                    let mut guards = part.lock().expect("partials lock");
                    let (partials, assignments) = &mut *guards;
                    process_chunk(
                        &points_acc,
                        dims,
                        clusters,
                        &centroids_acc,
                        &prev_acc,
                        range.clone(),
                        true,
                        partials.as_mut_slice(),
                        assignments.as_mut_slice(),
                    );
                })
                .approx(move || {
                    let mut guards = part_apx.lock().expect("partials lock");
                    let (partials, assignments) = &mut *guards;
                    process_chunk(
                        &points_apx,
                        dims,
                        clusters,
                        &centroids_apx,
                        &prev_apx,
                        range_apx.clone(),
                        false,
                        partials.as_mut_slice(),
                        assignments.as_mut_slice(),
                    );
                })
                .significance(0.5)
                .group(&group)
                .spawn();
            }
            rt.wait_group(&group);

            // Reduce partial sums into the next centroids.
            let partials = partials.into_vec();
            let previous = centroids.clone();
            let moved = self.reduce(&partials, &previous, &mut centroids);

            // Chunk `c`'s row starts at `c · per_chunk`, where its range
            // starts in the flat vector, and every chunk assigns all of its
            // points, so the grid is the new assignment vector once the
            // padding past `points` is cut off.
            let mut merged = new_assignments.into_vec();
            merged.truncate(self.points);
            assignments = Arc::new(merged);

            if moved < self.moved_threshold() {
                break;
            }
        }
        let elapsed = start.elapsed();
        RunOutput::from_runtime(&rt, centroids, elapsed)
    }

    /// Loop perforation: each iteration processes only the kept chunks
    /// (accurately); skipped chunks contribute nothing.
    pub fn run_perforated(&self, ratio: f64) -> RunOutput {
        let points = self.observations();
        let mut centroids = self.initial_centroids(&points);
        let mut assignments = vec![usize::MAX; self.points];
        let row = partial_row_len(self.clusters, self.dims);
        let start = Instant::now();
        let kept = kept_indices(self.chunks, PerforationRate::keep(ratio));
        for _ in 0..self.max_iterations {
            let mut partials = vec![0.0f64; self.chunks * row];
            let mut new_assignments = assignments.clone();
            for &chunk in &kept {
                let range = self.chunk_range(chunk);
                let local = range.clone();
                process_chunk(
                    &points,
                    self.dims,
                    self.clusters,
                    &centroids,
                    &assignments,
                    range,
                    true,
                    &mut partials[chunk * row..(chunk + 1) * row],
                    &mut new_assignments[local],
                );
            }
            let previous = centroids.clone();
            let moved = self.reduce(&partials, &previous, &mut centroids);
            assignments = new_assignments;
            if moved < self.moved_threshold() {
                break;
            }
        }
        let elapsed = start.elapsed();
        RunOutput::serial(centroids, elapsed)
    }
}

impl Benchmark for KMeans {
    fn info(&self) -> BenchmarkInfo {
        BenchmarkInfo {
            name: "Kmeans",
            technique: ApproxTechnique::Approximate,
            degree_parameter: "accurate-task ratio",
            degrees: [0.80, 0.60, 0.40],
            metric: QualityMetric::RelativeError,
            perforation_supported: true,
        }
    }

    fn run(&self, config: &ExecutionConfig) -> RunOutput {
        match config.approach {
            Approach::Accurate => self.run_perforated(1.0),
            Approach::Significance { policy, degree } => {
                self.run_tasks(config.workers, policy, KMeans::ratio_for(degree))
            }
            Approach::Perforation { degree } => self.run_perforated(KMeans::ratio_for(degree)),
        }
    }

    fn run_full_accuracy(&self, workers: usize, policy: Policy) -> RunOutput {
        self.run_tasks(workers, policy, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sig_quality::relative_error;

    /// Full Euclidean distance (squared) over all dimensions — the accurate
    /// distance, one cluster at a time.
    fn distance_accurate(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }

    /// Approximate distance: L1 over the first `dims / 8` dimensions.
    fn distance_approximate(a: &[f64], b: &[f64], dims: usize) -> f64 {
        let subset = (dims / 8).max(1);
        a.iter()
            .zip(b)
            .take(subset)
            .map(|(x, y)| (x - y).abs())
            .sum()
    }

    fn small() -> KMeans {
        KMeans {
            points: 512,
            dims: 16,
            clusters: 4,
            chunks: 16,
            max_iterations: 12,
            seed: 11,
        }
    }

    #[test]
    fn ratios_match_table1() {
        assert_eq!(KMeans::ratio_for(Degree::Mild), 0.80);
        assert_eq!(KMeans::ratio_for(Degree::Medium), 0.60);
        assert_eq!(KMeans::ratio_for(Degree::Aggressive), 0.40);
    }

    #[test]
    fn observations_are_deterministic() {
        let km = small();
        assert_eq!(km.observations(), km.observations());
        assert_eq!(km.observations().len(), km.points * km.dims);
    }

    #[test]
    fn chunk_ranges_cover_all_points_without_overlap() {
        // 1000 points in 7 chunks leave the last one short; 10 points in 8
        // chunks of 2 leave the last three empty.
        for (points, chunks) in [(1000, 7), (10, 8), (5, 4), (1, 3)] {
            let km = KMeans {
                points,
                chunks,
                ..small()
            };
            let mut covered = vec![false; km.points];
            for chunk in 0..km.chunks {
                let range = km.chunk_range(chunk);
                assert!(range.start <= range.end && range.end <= points);
                for p in range {
                    assert!(!covered[p]);
                    covered[p] = true;
                }
            }
            assert!(covered.into_iter().all(|c| c));
        }
    }

    #[test]
    fn empty_trailing_chunks_match_the_serial_run() {
        // 10 points in chunks of 2: chunks 5, 6 and 7 get no points.
        let km = KMeans {
            points: 10,
            chunks: 8,
            ..small()
        };
        let serial = km.run_accurate_serial();
        let tasks = km.run_tasks(2, Policy::GtbMaxBuffer, 1.0);
        assert_eq!(serial, tasks.values);
    }

    /// The chunk update as first written: one `Iterator::sum` per cluster,
    /// the nearest cluster chosen by a strict `<` in cluster order.
    #[allow(clippy::too_many_arguments)]
    fn process_chunk_reference(
        points: &[f64],
        dims: usize,
        clusters: usize,
        centroids: &[f64],
        prev_assignments: &[usize],
        range: std::ops::Range<usize>,
        accurate: bool,
        partials: &mut [f64],
        assignments: &mut [usize],
    ) {
        partials.fill(0.0);
        let mut moved = 0usize;
        for (local, p) in range.clone().enumerate() {
            let obs = &points[p * dims..(p + 1) * dims];
            let mut best = 0usize;
            let mut best_dist = f64::INFINITY;
            for c in 0..clusters {
                let centroid = &centroids[c * dims..(c + 1) * dims];
                let d = if accurate {
                    distance_accurate(obs, centroid)
                } else {
                    distance_approximate(obs, centroid, dims)
                };
                if d < best_dist {
                    best_dist = d;
                    best = c;
                }
            }
            if best != prev_assignments[p] {
                moved += 1;
            }
            assignments[local] = best;
            let base = best * (dims + 1);
            for d in 0..dims {
                partials[base + d] += obs[d];
            }
            partials[base + dims] += 1.0;
        }
        let moved_slot = partials.len() - 1;
        partials[moved_slot] = if accurate { moved as f64 } else { 0.0 };
    }

    #[test]
    fn chunk_update_matches_the_per_cluster_sums_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x6b6d);
        for case in 0..200 {
            let dims = rng.gen_range(1..21usize);
            let clusters = rng.gen_range(1..13usize);
            let n = rng.gen_range(1..80usize);
            // Coarse coordinates make exact ties between clusters common, so
            // the strict `<` in cluster order is exercised too.
            let coord = |rng: &mut StdRng| rng.gen_range(0..9usize) as f64 * 0.5 - 2.0;
            let points: Vec<f64> = (0..n * dims).map(|_| coord(&mut rng)).collect();
            let centroids: Vec<f64> = (0..clusters * dims).map(|_| coord(&mut rng)).collect();
            let prev: Vec<usize> = (0..n).map(|_| rng.gen_range(0..clusters)).collect();
            let start = rng.gen_range(0..n);
            let range = start..rng.gen_range(start..n) + 1;
            let accurate = case % 2 == 0;
            let row = partial_row_len(clusters, dims);
            let (mut fast, mut reference) = (vec![1.0f64; row], vec![2.0f64; row]);
            let (mut fast_assign, mut reference_assign) =
                (vec![usize::MAX; range.len()], vec![0; range.len()]);
            process_chunk(
                &points,
                dims,
                clusters,
                &centroids,
                &prev,
                range.clone(),
                accurate,
                &mut fast,
                &mut fast_assign,
            );
            process_chunk_reference(
                &points,
                dims,
                clusters,
                &centroids,
                &prev,
                range.clone(),
                accurate,
                &mut reference,
                &mut reference_assign,
            );
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let context = format!("case {case}: {clusters} clusters x {dims} dims, {range:?}");
            assert_eq!(fast_assign, reference_assign, "{context}");
            assert_eq!(bits(&fast), bits(&reference), "{context}");
        }
    }

    #[test]
    fn distances_behave() {
        let a = vec![0.0; 16];
        let b = vec![1.0; 16];
        assert_eq!(distance_accurate(&a, &b), 16.0);
        // Approximate distance uses 16/8 = 2 dimensions.
        assert_eq!(distance_approximate(&a, &b, 16), 2.0);
    }

    #[test]
    fn serial_clustering_recovers_blob_structure() {
        let km = small();
        let centroids = km.run_accurate_serial();
        assert_eq!(centroids.len(), km.clusters * km.dims);
        // The synthetic blobs have a spread of ±4 around their centres, so
        // every centroid must be close to one of the true generator centres.
        let mut rng = StdRng::seed_from_u64(km.seed);
        let truth: Vec<f64> = (0..km.clusters * km.dims)
            .map(|_| rng.gen_range(0.0..100.0))
            .collect();
        for c in 0..km.clusters {
            let centroid = &centroids[c * km.dims..(c + 1) * km.dims];
            let best = (0..km.clusters)
                .map(|t| distance_accurate(centroid, &truth[t * km.dims..(t + 1) * km.dims]))
                .fold(f64::INFINITY, f64::min);
            assert!(
                best < 100.0,
                "centroid {c} far from every true centre: {best}"
            );
        }
    }

    #[test]
    fn task_version_full_ratio_matches_serial() {
        let km = small();
        let serial = km.run_accurate_serial();
        let tasks = km.run_tasks(2, Policy::GtbMaxBuffer, 1.0);
        let err = relative_error(&serial, &tasks.values);
        assert!(err < 1e-12, "relative error {err}");
        assert_eq!(tasks.tasks.approximate, 0);
    }

    #[test]
    fn approximation_error_is_small_and_graceful() {
        let km = small();
        let reference = km.run(&ExecutionConfig::accurate(2));
        let mild = km.run(&ExecutionConfig::significance(
            2,
            Policy::GtbMaxBuffer,
            Degree::Mild,
        ));
        let aggr = km.run(&ExecutionConfig::significance(
            2,
            Policy::GtbMaxBuffer,
            Degree::Aggressive,
        ));
        let q_mild = km.quality(&reference, &mild).value;
        let q_aggr = km.quality(&reference, &aggr).value;
        // The paper reports sub-percent errors on its (much larger) input;
        // on this small synthetic instance the error stays below 10% — the
        // point is graceful degradation, not a specific magnitude.
        assert!(q_aggr < 10.0, "aggressive error {q_aggr}% too large");
        assert!(q_mild <= q_aggr + 1e-9);
    }

    #[test]
    fn perforated_version_runs_and_converges() {
        let km = small();
        let reference = km.run(&ExecutionConfig::accurate(2));
        let perf = km.run(&ExecutionConfig::perforation(2, Degree::Medium));
        assert_eq!(perf.values.len(), reference.values.len());
        let q = km.quality(&reference, &perf).value;
        assert!(q.is_finite());
    }

    #[test]
    fn lqh_with_uniform_significance_stays_essentially_accurate() {
        // All K-means tasks share one significance level; under LQH the
        // history rule keeps every task after a worker's first one accurate
        // (paper Section 4.2: LQH matches the fully accurate output).
        let workers = 2;
        let km = small();
        let out = km.run_tasks(workers, Policy::Lqh, 0.6);
        assert!(out.tasks.approximate <= workers);
        assert!(out.tasks.accurate > out.tasks.approximate);
    }
}
