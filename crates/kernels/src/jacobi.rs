//! Jacobi iterative solver for diagonally dominant linear systems.
//!
//! One task updates one block of unknowns per sweep. The paper executes "the
//! first 5 iterations approximately, by dropping the tasks (and computations)
//! corresponding to the upper right and lower left areas of the matrix" —
//! legitimate because a diagonally dominant matrix concentrates its
//! information in a band around the diagonal — and then iterates accurately
//! to a *relaxed* convergence tolerance (the degree knob): `10⁻⁴ / 10⁻³ /
//! 10⁻²` against the native `10⁻⁵`.
//!
//! Here the "drop the off-band areas" effect is expressed exactly as the
//! paper advertises: the approximate task body sums only the in-band columns,
//! and the first five sweeps run with `ratio = 0`, so every task takes the
//! approximate (band-only) path. Later sweeps run with `ratio = 1`.
//!
//! Quality metric: relative error of the solution vector against the fully
//! accurate solve.
//!
//! # What is tabulated, and what is not reordered
//!
//! The synthetic matrix is Toeplitz — `A[i][j]` depends on `|i − j|` only —
//! so its `n²` entries are `n` distinct values, kept in one coupling table
//! per solve (`coupling_table`) instead of one division per entry per
//! sweep. A task updates its rows eight at a time (`update_rows`), each row
//! with its own sum: one row's additions wait on each other, eight rows'
//! do not, so the eight sums advance side by side instead of one after
//! another. Each row's sum still starts at `0.0` and visits its columns in
//! ascending `j` with the diagonal left out, exactly as a loop over that
//! row alone: floating-point addition does not associate, so the order of
//! a row's additions is part of the kernel's contract, pinned bit for bit
//! by `tests/output_fingerprints.rs` and by the entry-by-entry reference in
//! this module's tests. Only the additions of different rows interleave,
//! and those never meet.

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

/// Jacobi benchmark configuration.
#[derive(Debug, Clone)]
pub struct Jacobi {
    /// Number of unknowns (matrix is `n × n`).
    pub n: usize,
    /// Number of row blocks (= tasks per sweep).
    pub blocks: usize,
    /// Half-width of the diagonal band used by the approximate task body.
    pub band: usize,
    /// Number of initial approximate sweeps.
    pub approx_sweeps: usize,
    /// Maximum number of sweeps.
    pub max_sweeps: usize,
    /// Convergence tolerance of the fully accurate reference execution.
    pub native_tolerance: f64,
    /// RNG seed for the right-hand side.
    pub seed: u64,
}

impl Default for Jacobi {
    fn default() -> Self {
        Jacobi {
            n: 512,
            blocks: 32,
            band: 32,
            approx_sweeps: 5,
            max_sweeps: 200,
            native_tolerance: 1e-5,
            seed: 0x5eed_0003,
        }
    }
}

/// The off-diagonal entries of the synthetic diagonally dominant system by
/// distance from the diagonal: `A[i][j] = coupling[|i − j|]` for `i ≠ j`, a
/// slowly decaying coupling under the strong diagonal `A[i][i] = n`.
/// Computed once per solve and shared by every task of every sweep.
fn coupling_table(n: usize) -> Arc<[f64]> {
    (0..n).map(|d| 1.0 / (1.0 + d as f64)).collect()
}

/// Rows of a block updated side by side, each into its own sum.
const LANES: usize = 8;

/// Update one block of unknowns: `x_new[i] = (b[i] − Σ_{j≠i} A[i][j]·x[j]) / A[i][i]`.
///
/// `band` limits the columns visited: `None` sums every column (accurate),
/// `Some(w)` sums only `|i − j| ≤ w` (the approximate, band-only body). The
/// rows go `LANES` at a time through `update_rows`, the rest one by one.
fn update_block(
    coupling: &[f64],
    b: &[f64],
    x: &[f64],
    rows: std::ops::Range<usize>,
    band: Option<usize>,
    out: &mut [f64],
) {
    debug_assert_eq!(out.len(), rows.len());
    for (first, group) in rows.step_by(LANES).zip(out.chunks_mut(LANES)) {
        if let Ok(group) = <&mut [f64; LANES]>::try_from(&mut *group) {
            update_rows(coupling, b, x, first, band, group);
        } else {
            for (i, slot) in (first..).zip(group) {
                update_rows(coupling, b, x, i, band, std::array::from_mut(slot));
            }
        }
    }
}

/// Update the `R` rows from `first` on. Each row has its own sum, starts it
/// at `0.0`, adds its columns in ascending `j` and skips its own diagonal,
/// exactly as a loop over that row alone would: the order of a row's
/// additions decides the low bits of its sum. Only the rows' additions are
/// interleaved, so that they no longer wait on one another.
///
/// A row's columns fall in three runs: its own columns left of those every
/// row of the group has (in band mode the rows' windows are shifted), the
/// shared columns, and its own columns right of them. The shared run is
/// added to all `R` sums per column, with the coefficients of the `R` rows
/// read as one window of `coupling`.
fn update_rows<const R: usize>(
    coupling: &[f64],
    b: &[f64],
    x: &[f64],
    first: usize,
    band: Option<usize>,
    out: &mut [f64; R],
) {
    let n = x.len();
    let columns = |i: usize| match band {
        Some(w) => (i.saturating_sub(w), (i + w + 1).min(n)),
        None => (0, n),
    };
    let last = first + R - 1;
    // The shared columns, [shared_lo, shared_hi): from the last row's first
    // column to the first row's end, or none.
    let shared_lo = columns(last).0;
    let shared_hi = columns(first).1.max(shared_lo);
    let add_own = |i: usize, from: usize, to: usize, sum: &mut f64| {
        for (j, xj) in x.iter().enumerate().take(to).skip(from) {
            if j != i {
                *sum += coupling[i.abs_diff(j)] * xj;
            }
        }
    };

    let mut sums = [0.0f64; R];
    for (i, sum) in (first..).zip(&mut sums) {
        let (lo, hi) = columns(i);
        add_own(i, lo, hi.min(shared_lo), sum);
    }
    // Shared columns left of every diagonal: row `first + r` reads
    // `coupling[first + r − j]`, a window ascending in `r`.
    let left_end = shared_hi.min(first);
    if shared_lo < left_end {
        let windows = coupling[first + 1 - left_end..first - shared_lo + R].windows(R);
        for (xj, c) in x[shared_lo..left_end].iter().zip(windows.rev()) {
            for (sum, c) in sums.iter_mut().zip(c) {
                *sum += c * xj;
            }
        }
    }
    // Shared columns among the diagonals: each row skips its own.
    for j in shared_lo.max(first)..shared_hi.min(last + 1) {
        for (i, sum) in (first..).zip(&mut sums) {
            if j != i {
                *sum += coupling[i.abs_diff(j)] * x[j];
            }
        }
    }
    // Shared columns right of every diagonal: row `first + r` reads
    // `coupling[j − first − r]`, a window descending in `r`.
    let right_start = shared_lo.max(last + 1);
    if right_start < shared_hi {
        let windows = coupling[right_start - last..shared_hi - first].windows(R);
        for (xj, c) in x[right_start..shared_hi].iter().zip(windows) {
            for (sum, c) in sums.iter_mut().zip(c.iter().rev()) {
                *sum += c * xj;
            }
        }
    }
    for ((i, mut sum), slot) in (first..).zip(sums).zip(out) {
        add_own(i, shared_hi, columns(i).1, &mut sum);
        *slot = (b[i] - sum) / n as f64;
    }
}

impl Jacobi {
    /// The convergence tolerance for an approximation degree (Table 1).
    fn tolerance_for(degree: Degree) -> f64 {
        match degree {
            Degree::Mild => 1e-4,
            Degree::Medium => 1e-3,
            Degree::Aggressive => 1e-2,
        }
    }

    /// Deterministic right-hand side.
    fn rhs(&self) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..self.n).map(|_| rng.gen_range(-100.0..100.0)).collect()
    }

    fn block_range(&self, block: usize) -> std::ops::Range<usize> {
        let per_block = self.n.div_ceil(self.blocks);
        let end = ((block + 1) * per_block).min(self.n);
        // Trailing blocks are empty when the unknowns run out early.
        (block * per_block).min(end)..end
    }

    fn max_delta(old: &[f64], new: &[f64]) -> f64 {
        old.iter()
            .zip(new)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Serial solve with every sweep accurate, iterating to `tolerance`: the
    /// perforated loop with no block perforated.
    #[cfg(test)]
    fn solve_accurate_serial(&self, tolerance: f64) -> Vec<f64> {
        self.run_perforated(tolerance, 1.0).values
    }

    /// Significance-annotated task execution: `approx_sweeps` band-only
    /// sweeps (ratio 0), then accurate sweeps (ratio 1) until the relaxed
    /// tolerance is reached. Each sweep is a group of its own, created with
    /// its ratio before its tasks spawn, so a policy that decides as tasks
    /// run (LQH) sees the sweep's ratio too.
    pub fn run_tasks(&self, workers: usize, policy: Policy, tolerance: f64) -> RunOutput {
        let b = Arc::new(self.rhs());
        let coupling = coupling_table(self.n);
        let band = self.band;
        let mut x = Arc::new(vec![0.0f64; self.n]);
        let per_block = self.n.div_ceil(self.blocks);

        let start = Instant::now();
        let rt = Runtime::builder().workers(workers).policy(policy).build();
        let mut sweeps = 0usize;
        for sweep in 0..self.max_sweeps {
            sweeps += 1;
            let accurate_sweep = sweep >= self.approx_sweeps;
            let group = rt.create_group("jacobi", if accurate_sweep { 1.0 } else { 0.0 });
            let x_new = SharedGrid::new(self.blocks, per_block, 0.0f64);
            for block in 0..self.blocks {
                let range = self.block_range(block);
                let writer = Arc::new(std::sync::Mutex::new(x_new.row_writer(block)));
                let writer_apx = writer.clone();
                let coupling_acc = coupling.clone();
                let coupling_apx = coupling.clone();
                let b_acc = b.clone();
                let b_apx = b.clone();
                let x_acc = x.clone();
                let x_apx = x.clone();
                let range_apx = range.clone();
                let len = range.len();
                rt.task(move || {
                    let mut out = writer.lock().expect("block writer");
                    update_block(
                        &coupling_acc,
                        &b_acc,
                        &x_acc,
                        range.clone(),
                        None,
                        &mut out.as_mut_slice()[..len],
                    );
                })
                .approx(move || {
                    let mut out = writer_apx.lock().expect("block writer");
                    update_block(
                        &coupling_apx,
                        &b_apx,
                        &x_apx,
                        range_apx.clone(),
                        Some(band),
                        &mut out.as_mut_slice()[..len],
                    );
                })
                .significance(0.5)
                .group(&group)
                .spawn();
            }
            rt.wait_group(&group);

            // Block `b`'s row starts at `b · per_block`, where its range starts
            // in the flat vector, so the grid is the new iterate once the
            // padding past `n` is cut off.
            let mut merged = x_new.into_vec();
            merged.truncate(self.n);
            let delta = Jacobi::max_delta(&x, &merged);
            x = Arc::new(merged);
            // Only accurate sweeps can declare convergence.
            if accurate_sweep && delta < tolerance {
                break;
            }
        }
        let elapsed = start.elapsed();
        let mut output = RunOutput::from_runtime(&rt, (*x).clone(), elapsed);
        // Record the sweep count in the task totals for analysis.
        output.tasks.total = output.tasks.total.max(sweeps * self.blocks);
        output
    }

    /// Loop perforation: every sweep updates only a kept subset of the row
    /// blocks (accurately); the remaining unknowns keep their previous value.
    /// Iterates to the same relaxed tolerance.
    pub fn run_perforated(&self, tolerance: f64, keep: f64) -> RunOutput {
        let b = self.rhs();
        let coupling = coupling_table(self.n);
        let mut x = vec![0.0f64; self.n];
        let start = Instant::now();
        let kept = kept_indices(self.blocks, PerforationRate::keep(keep));
        for _ in 0..self.max_sweeps {
            let mut x_new = x.clone();
            for &block in &kept {
                let range = self.block_range(block);
                let local = range.clone();
                update_block(
                    &coupling,
                    &b,
                    &x,
                    range,
                    None,
                    &mut x_new[local.start..local.end],
                );
            }
            let delta = Jacobi::max_delta(&x, &x_new);
            x = x_new;
            if delta < tolerance {
                break;
            }
        }
        let elapsed = start.elapsed();
        RunOutput::serial(x, elapsed)
    }
}

impl Benchmark for Jacobi {
    fn info(&self) -> BenchmarkInfo {
        BenchmarkInfo {
            name: "Jacobi",
            technique: ApproxTechnique::Both,
            degree_parameter: "convergence tolerance",
            degrees: [1e-4, 1e-3, 1e-2],
            metric: QualityMetric::RelativeError,
            perforation_supported: true,
        }
    }

    fn run(&self, config: &ExecutionConfig) -> RunOutput {
        match config.approach {
            Approach::Accurate => self.run_perforated(self.native_tolerance, 1.0),
            Approach::Significance { policy, degree } => {
                self.run_tasks(config.workers, policy, Jacobi::tolerance_for(degree))
            }
            Approach::Perforation { degree } => {
                // Match the paper: perforation keeps 80% of the row blocks
                // and converges to the same relaxed tolerance.
                self.run_perforated(Jacobi::tolerance_for(degree), 0.8)
            }
        }
    }

    fn run_full_accuracy(&self, workers: usize, policy: Policy) -> RunOutput {
        // Disable the initial approximate sweeps so every task runs its
        // accurate body; iterate to the native tolerance.
        let fully_accurate = Jacobi {
            approx_sweeps: 0,
            ..self.clone()
        };
        fully_accurate.run_tasks(workers, policy, self.native_tolerance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sig_quality::relative_error;

    fn small() -> Jacobi {
        Jacobi {
            n: 128,
            blocks: 8,
            band: 16,
            approx_sweeps: 5,
            max_sweeps: 100,
            native_tolerance: 1e-5,
            seed: 3,
        }
    }

    /// Matrix entry `A[i][j]`, straight from its definition.
    fn matrix_entry(n: usize, i: usize, j: usize) -> f64 {
        if i == j {
            n as f64
        } else {
            1.0 / (1.0 + i.abs_diff(j) as f64)
        }
    }

    /// The update as first written: one `matrix_entry` per column, the
    /// diagonal skipped inside the loop.
    fn update_block_reference(
        n: usize,
        b: &[f64],
        x: &[f64],
        rows: std::ops::Range<usize>,
        band: Option<usize>,
        out: &mut [f64],
    ) {
        for (local, i) in rows.enumerate() {
            let (lo, hi) = match band {
                Some(w) => (i.saturating_sub(w), (i + w + 1).min(n)),
                None => (0, n),
            };
            let mut sum = 0.0;
            for (j, xj) in x.iter().enumerate().take(hi).skip(lo) {
                if j != i {
                    sum += matrix_entry(n, i, j) * xj;
                }
            }
            out[local] = (b[i] - sum) / matrix_entry(n, i, i);
        }
    }

    #[test]
    fn tabulated_update_matches_the_formula_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0xa11ce);
        for case in 0..200 {
            let n = rng.gen_range(1..97usize);
            let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-100.0..100.0)).collect();
            let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-10.0..10.0)).collect();
            let start = rng.gen_range(0..n);
            let rows = start..rng.gen_range(start..n) + 1;
            // Bands from "diagonal only" to wider than the matrix, so they are
            // clipped at neither, either and both ends.
            let band = match case % 4 {
                0 => None,
                1 => Some(0),
                2 => Some(rng.gen_range(1..n + 1)),
                _ => Some(2 * n),
            };
            let coupling = coupling_table(n);
            let mut fast = vec![0.0f64; rows.len()];
            let mut reference = vec![0.0f64; rows.len()];
            update_block(&coupling, &b, &x, rows.clone(), band, &mut fast);
            update_block_reference(n, &b, &x, rows.clone(), band, &mut reference);
            for (f, r) in fast.iter().zip(&reference) {
                assert_eq!(
                    f.to_bits(),
                    r.to_bits(),
                    "n={n} rows={rows:?} band={band:?}"
                );
            }
        }
    }

    #[test]
    fn tolerances_match_table1() {
        assert_eq!(Jacobi::tolerance_for(Degree::Mild), 1e-4);
        assert_eq!(Jacobi::tolerance_for(Degree::Medium), 1e-3);
        assert_eq!(Jacobi::tolerance_for(Degree::Aggressive), 1e-2);
    }

    #[test]
    fn matrix_is_diagonally_dominant() {
        let n = 64;
        for i in 0..n {
            let off_diag: f64 = (0..n)
                .filter(|&j| j != i)
                .map(|j| matrix_entry(n, i, j).abs())
                .sum();
            assert!(matrix_entry(n, i, i) > off_diag, "row {i} not dominant");
        }
    }

    #[test]
    fn accurate_solve_satisfies_the_system() {
        let j = small();
        let x = j.solve_accurate_serial(1e-8);
        let b = j.rhs();
        // Residual check: ||Ax − b||_∞ must be tiny.
        let mut max_residual = 0.0f64;
        for (i, bi) in b.iter().enumerate() {
            let mut row = 0.0;
            for (jj, xv) in x.iter().enumerate() {
                row += matrix_entry(j.n, i, jj) * xv;
            }
            max_residual = max_residual.max((row - bi).abs());
        }
        assert!(max_residual < 1e-3, "residual {max_residual}");
    }

    #[test]
    fn block_ranges_partition_unknowns() {
        // 100 unknowns in 7 blocks leave the last one short; 10 unknowns in
        // 8 blocks of 2 leave the last three empty.
        for (n, blocks) in [(100, 7), (10, 8), (5, 4), (1, 3)] {
            let j = Jacobi {
                n,
                blocks,
                ..small()
            };
            let mut covered = vec![false; j.n];
            for block in 0..j.blocks {
                let range = j.block_range(block);
                assert!(range.start <= range.end && range.end <= n);
                for i in range {
                    assert!(!covered[i]);
                    covered[i] = true;
                }
            }
            assert!(covered.into_iter().all(|c| c));
        }
    }

    #[test]
    fn empty_trailing_blocks_match_the_serial_solve() {
        // 10 unknowns in blocks of 2: blocks 5, 6 and 7 get no rows.
        let j = Jacobi {
            n: 10,
            blocks: 8,
            band: 2,
            ..small()
        };
        let serial = j.solve_accurate_serial(j.native_tolerance);
        let tasks = j.run_full_accuracy(2, Policy::SignificanceAgnostic);
        assert_eq!(serial, tasks.values);
    }

    #[test]
    fn band_only_update_is_an_approximation() {
        let j = small();
        let b = j.rhs();
        let x = vec![1.0f64; j.n];
        let mut full = vec![0.0f64; 16];
        let mut banded = vec![0.0f64; 16];
        let coupling = coupling_table(j.n);
        update_block(&coupling, &b, &x, 0..16, None, &mut full);
        update_block(&coupling, &b, &x, 0..16, Some(j.band), &mut banded);
        assert_ne!(full, banded);
        let err = relative_error(&full, &banded);
        assert!(err < 0.2, "band approximation error {err} too large");
    }

    #[test]
    fn task_solver_converges_close_to_reference() {
        let j = small();
        let reference = j.run(&ExecutionConfig::accurate(2));
        for degree in [Degree::Mild, Degree::Medium, Degree::Aggressive] {
            let approx = j.run(&ExecutionConfig::significance(
                2,
                Policy::GtbMaxBuffer,
                degree,
            ));
            let q = j.quality(&reference, &approx).value;
            assert!(q < 5.0, "{:?}: relative error {q}% too large", degree);
        }
    }

    #[test]
    fn relaxed_tolerance_degrades_monotonically() {
        let j = small();
        let reference = j.run(&ExecutionConfig::accurate(2));
        let mild = j.run(&ExecutionConfig::significance(
            2,
            Policy::GtbMaxBuffer,
            Degree::Mild,
        ));
        let aggr = j.run(&ExecutionConfig::significance(
            2,
            Policy::GtbMaxBuffer,
            Degree::Aggressive,
        ));
        let q_mild = j.quality(&reference, &mild).value;
        let q_aggr = j.quality(&reference, &aggr).value;
        assert!(
            q_mild <= q_aggr + 1e-9,
            "mild {q_mild} vs aggressive {q_aggr}"
        );
    }

    #[test]
    fn perforated_solver_still_converges() {
        let j = small();
        let reference = j.run(&ExecutionConfig::accurate(2));
        let perf = j.run(&ExecutionConfig::perforation(2, Degree::Medium));
        let q = j.quality(&reference, &perf).value;
        assert!(q.is_finite());
        assert_eq!(perf.values.len(), j.n);
    }

    #[test]
    fn early_sweeps_run_approximately_later_ones_accurately() {
        let j = small();
        let out = j.run_tasks(2, Policy::GtbMaxBuffer, 1e-3);
        // The first 5 sweeps (8 blocks each) are approximate; the rest are
        // accurate.
        assert_eq!(out.tasks.approximate, j.approx_sweeps * j.blocks);
        assert!(out.tasks.accurate >= j.blocks);
    }
}
