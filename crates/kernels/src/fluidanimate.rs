//! Fluidanimate: smoothed-particle-hydrodynamics (SPH) fluid simulation
//! (modelled on the PARSEC workload the paper uses).
//!
//! The fluid is a set of particles in a unit box. Each time step either runs
//! **fully accurately** (densities and forces are evaluated from the particle
//! neighbourhood and integrated) or **fully approximately** ("the new
//! position of each particle is estimated assuming it will move linearly, in
//! the same direction and with the same velocity as it did in the previous
//! time steps"). The choice is made per time step by setting the `ratio`
//! clause of the step's `taskwait` to `1.0` or `0.0` — exactly the trick the
//! paper highlights as trivially expressible in the programming model, and
//! accurate and approximate steps must alternate to keep the physics stable.
//!
//! Degrees (Table 1): fraction of accurate time steps 50% / 25% / 12.5%;
//! quality metric relative error of the final particle positions.
//! Loop perforation is **not applicable**: dropping part of the particles in
//! a step violates the physics (Section 4.2).
//!
//! # What is indexed, and what is not reordered
//!
//! An accurate step needs, per particle, the particles within the
//! interaction radius — about one in twenty. Like the PARSEC original, the
//! step sorts the particles into a uniform cell grid (`Cells`, rebuilt per
//! accurate time step since every particle moves) and looks only at the
//! cells the radius reaches, about half the radius wide (`Cells::new`). The
//! cell width decides which candidates are tested, never which neighbours
//! are found or in what order. The forces of the neighbours found are then
//! added in ascending particle index, the order in which a loop over all
//! particles would meet them: floating-point addition does not associate, so
//! that order is part of the kernel's contract, pinned bit for bit by
//! `tests/output_fingerprints.rs` and by the all-pairs reference in this
//! module's tests. (Evaluating each pair once and applying it to both
//! particles would halve the work and change the order, so it is not done.)

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sig_core::{Policy, Runtime, SharedGrid};
use sig_quality::QualityMetric;

use crate::common::{
    Approach, ApproxTechnique, Benchmark, BenchmarkInfo, Degree, ExecutionConfig, RunOutput,
};

/// Number of scalar values stored per particle: position (x, y), velocity
/// (x, y).
const STRIDE: usize = 4;

/// Fluidanimate benchmark configuration.
#[derive(Debug, Clone)]
pub struct Fluidanimate {
    /// Number of particles.
    pub particles: usize,
    /// Number of simulated time steps.
    pub steps: usize,
    /// Number of task chunks per time step.
    pub chunks: usize,
    /// Integration time step.
    pub dt: f64,
    /// SPH interaction radius.
    pub radius: f64,
    /// RNG seed for the initial particle distribution.
    pub seed: u64,
}

impl Default for Fluidanimate {
    fn default() -> Self {
        Fluidanimate {
            particles: 1024,
            steps: 24,
            chunks: 16,
            dt: 0.002,
            radius: 0.06,
            seed: 0x5eed_0004,
        }
    }
}

/// A uniform grid of `side × side` cells over the unit box that lists, per
/// cell, the particles inside it in ascending index (a counting sort). Built
/// once per time step, it narrows a particle's neighbour search from all `n`
/// particles to the few cells its interaction radius reaches.
#[derive(Debug)]
struct Cells {
    side: usize,
    /// Cell `c` (row-major, `cy * side + cx`) lists `order[start[c]..start[c + 1]]`.
    start: Vec<usize>,
    order: Vec<usize>,
}

impl Cells {
    /// Cells about half the radius wide (`side = floor(2 / radius)`): a
    /// search scans a square of about five cells, 2.5 radii, per side and
    /// tests about two candidates per neighbour inside the radius, where
    /// radius-wide cells (three per side, 3 radii) tested about three. And
    /// no more cells than about one per particle. Neither bound is needed
    /// for correctness: `mark_near` scans whatever range the radius covers,
    /// and the candidates are visited in ascending index whatever the cell
    /// width.
    fn new(state: &[f64], radius: f64) -> Self {
        let n = state.len() / STRIDE;
        let side = ((2.0 / radius) as usize).clamp(1, ((n as f64).sqrt().ceil() as usize).max(1));
        let mut cells = Cells {
            side,
            start: vec![0; side * side + 1],
            order: vec![0; n],
        };
        let cell_of = |p: &[f64]| cells.cell(p[1]) * side + cells.cell(p[0]);
        let homes: Vec<usize> = state.chunks_exact(STRIDE).map(cell_of).collect();
        for &home in &homes {
            cells.start[home + 1] += 1;
        }
        for c in 0..side * side {
            cells.start[c + 1] += cells.start[c];
        }
        let mut next = cells.start.clone();
        for (p, &home) in homes.iter().enumerate() {
            cells.order[next[home]] = p;
            next[home] += 1;
        }
        cells
    }

    /// The cell coordinate of a position coordinate: monotone in `coord`,
    /// with everything left of the box in cell 0 and everything from its far
    /// wall (`coord == 1.0`, where the wall clamp puts particles) on in the
    /// last cell.
    fn cell(&self, coord: f64) -> usize {
        ((coord * self.side as f64) as usize).min(self.side - 1)
    }

    /// Set the bit of every particle in a cell that the square of half-width
    /// `radius` around `(x, y)` touches. A particle `j` that passes the
    /// distance test has `|x − xj| < radius`, so `x − radius ≤ xj ≤ x + radius`
    /// survives rounding (rounding is monotone and `xj` is a float), and
    /// `cell` is monotone: `j`'s cell lies in the scanned range whatever the
    /// cell width.
    fn mark_near(&self, x: f64, y: f64, radius: f64, near: &mut [u64]) {
        let (first, last) = (self.cell(x - radius), self.cell(x + radius));
        for cy in self.cell(y - radius)..=self.cell(y + radius) {
            let row = cy * self.side;
            // The cells of one row are adjacent in `order`.
            for &j in &self.order[self.start[row + first]..self.start[row + last + 1]] {
                near[j / 64] |= 1 << (j % 64);
            }
        }
    }
}

/// Accurate update of one chunk of particles: SPH-style density/pressure
/// forces from all neighbours within the interaction radius, plus gravity and
/// box collisions, then symplectic Euler integration.
fn step_accurate(
    state: &[f64],
    cells: &Cells,
    range: std::ops::Range<usize>,
    dt: f64,
    radius: f64,
    out: &mut [f64],
) {
    let r2 = radius * radius;
    // One bit per particle: the candidates of the particle being updated.
    // Walking the set bits visits them in ascending index, which is the order
    // the all-pairs loop `for j in 0..n` adds the force terms in.
    let mut near = vec![0u64; (state.len() / STRIDE).div_ceil(64)];
    for (local, i) in range.enumerate() {
        let xi = state[i * STRIDE];
        let yi = state[i * STRIDE + 1];
        let mut vx = state[i * STRIDE + 2];
        let mut vy = state[i * STRIDE + 3];

        // Pairwise repulsion within the smoothing radius (a simplified SPH
        // pressure force) — this is the expensive part of the step.
        let mut fx = 0.0;
        let mut fy = 0.0;
        cells.mark_near(xi, yi, radius, &mut near);
        for (w, word) in near.iter_mut().enumerate() {
            // Taking the word leaves the set empty for the next particle.
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let j = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if j == i {
                    continue;
                }
                let dx = xi - state[j * STRIDE];
                let dy = yi - state[j * STRIDE + 1];
                let d2 = dx * dx + dy * dy;
                if d2 < r2 && d2 > 1e-12 {
                    let d = d2.sqrt();
                    let overlap = (radius - d) / radius;
                    fx += overlap * overlap * dx / d * 40.0;
                    fy += overlap * overlap * dy / d * 40.0;
                }
            }
        }
        // Gravity.
        fy -= 9.8;

        vx += fx * dt;
        vy += fy * dt;
        let mut x = xi + vx * dt;
        let mut y = yi + vy * dt;
        // Box collisions with damping.
        if x < 0.0 {
            x = 0.0;
            vx = -vx * 0.5;
        }
        if x > 1.0 {
            x = 1.0;
            vx = -vx * 0.5;
        }
        if y < 0.0 {
            y = 0.0;
            vy = -vy * 0.5;
        }
        if y > 1.0 {
            y = 1.0;
            vy = -vy * 0.5;
        }
        out[local * STRIDE] = x;
        out[local * STRIDE + 1] = y;
        out[local * STRIDE + 2] = vx;
        out[local * STRIDE + 3] = vy;
    }
}

/// Approximate update: pure linear extrapolation with the previous velocity
/// (no force evaluation), with the same box clamping.
fn step_approximate(state: &[f64], range: std::ops::Range<usize>, dt: f64, out: &mut [f64]) {
    for (local, i) in range.enumerate() {
        let mut vx = state[i * STRIDE + 2];
        let mut vy = state[i * STRIDE + 3];
        let mut x = state[i * STRIDE] + vx * dt;
        let mut y = state[i * STRIDE + 1] + vy * dt;
        if x < 0.0 {
            x = 0.0;
            vx = -vx * 0.5;
        }
        if x > 1.0 {
            x = 1.0;
            vx = -vx * 0.5;
        }
        if y < 0.0 {
            y = 0.0;
            vy = -vy * 0.5;
        }
        if y > 1.0 {
            y = 1.0;
            vy = -vy * 0.5;
        }
        out[local * STRIDE] = x;
        out[local * STRIDE + 1] = y;
        out[local * STRIDE + 2] = vx;
        out[local * STRIDE + 3] = vy;
    }
}

impl Fluidanimate {
    /// Period of accurate time steps for an approximation degree: every 2nd,
    /// 4th or 8th step is accurate (= 50% / 25% / 12.5% accurate steps,
    /// Table 1).
    pub fn accurate_period_for(degree: Degree) -> usize {
        match degree {
            Degree::Mild => 2,
            Degree::Medium => 4,
            Degree::Aggressive => 8,
        }
    }

    /// Deterministic initial particle state: a block of fluid in the upper
    /// half of the box with a small random jitter and zero velocity.
    pub fn initial_state(&self) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut state = Vec::with_capacity(self.particles * STRIDE);
        let cols = (self.particles as f64).sqrt().ceil() as usize;
        for p in 0..self.particles {
            let gx = (p % cols) as f64 / cols as f64;
            let gy = (p / cols) as f64 / cols as f64;
            state.push(0.25 + 0.5 * gx + rng.gen_range(-0.005..0.005));
            state.push(0.5 + 0.45 * gy + rng.gen_range(-0.005..0.005));
            state.push(0.0);
            state.push(0.0);
        }
        state
    }

    fn chunk_range(&self, chunk: usize) -> std::ops::Range<usize> {
        let per_chunk = self.particles.div_ceil(self.chunks);
        let end = ((chunk + 1) * per_chunk).min(self.particles);
        // Trailing chunks are empty when the particles run out early.
        (chunk * per_chunk).min(end)..end
    }

    /// Serial fully accurate simulation; returns the final particle
    /// positions (x, y interleaved).
    pub fn run_accurate_serial(&self) -> Vec<f64> {
        self.run_serial().values
    }

    /// The serial simulation, timed like `run_tasks`: the clock starts once
    /// the initial state exists and stops before the positions are extracted.
    fn run_serial(&self) -> RunOutput {
        let mut state = self.initial_state();
        let start = Instant::now();
        for _ in 0..self.steps {
            let cells = Cells::new(&state, self.radius);
            let mut next = vec![0.0f64; state.len()];
            for chunk in 0..self.chunks {
                let range = self.chunk_range(chunk);
                let out = &mut next[range.start * STRIDE..range.end * STRIDE];
                step_accurate(&state, &cells, range, self.dt, self.radius, out);
            }
            state = next;
        }
        let elapsed = start.elapsed();
        RunOutput::serial(positions_of(&state), elapsed)
    }

    /// Significance-annotated task execution: each time step's barrier
    /// carries `ratio(1.0)` or `ratio(0.0)` depending on whether the step is
    /// an accurate or an extrapolation step.
    pub fn run_tasks(&self, workers: usize, policy: Policy, accurate_period: usize) -> RunOutput {
        let dt = self.dt;
        let radius = self.radius;
        let per_chunk = self.particles.div_ceil(self.chunks);
        let mut state = Arc::new(self.initial_state());

        let start = Instant::now();
        let rt = Runtime::builder().workers(workers).policy(policy).build();
        let group = rt.create_group("fluidanimate", 1.0);
        for step in 0..self.steps {
            // Accurate steps occur once every `accurate_period` steps; the
            // remaining steps are linear extrapolation.
            let accurate_step = step % accurate_period == 0;
            let next = SharedGrid::new(self.chunks, per_chunk * STRIDE, 0.0f64);
            // Built by the first accurate body of the step to run, if any
            // does: an extrapolation step never pays for the index.
            let cells = Arc::new(OnceLock::new());
            for chunk in 0..self.chunks {
                let range = self.chunk_range(chunk);
                let writer = Arc::new(std::sync::Mutex::new(next.row_writer(chunk)));
                let writer_apx = writer.clone();
                let cells = cells.clone();
                let state_acc = state.clone();
                let state_apx = state.clone();
                let range_apx = range.clone();
                let len = range.len();
                rt.task(move || {
                    let mut out = writer.lock().expect("chunk writer");
                    step_accurate(
                        &state_acc,
                        cells.get_or_init(|| Cells::new(&state_acc, radius)),
                        range.clone(),
                        dt,
                        radius,
                        &mut out.as_mut_slice()[..len * STRIDE],
                    );
                })
                .approx(move || {
                    let mut out = writer_apx.lock().expect("chunk writer");
                    step_approximate(
                        &state_apx,
                        range_apx.clone(),
                        dt,
                        &mut out.as_mut_slice()[..len * STRIDE],
                    );
                })
                .significance(0.5)
                .group(&group)
                .spawn();
            }
            rt.wait_group_with_ratio(&group, if accurate_step { 1.0 } else { 0.0 });

            // Chunk `c`'s row starts at `c · per_chunk · STRIDE`, where its
            // particles start in the flat state, so the grid is the next state
            // once the padding past the last particle is cut off.
            let mut merged = next.into_vec();
            merged.truncate(self.particles * STRIDE);
            state = Arc::new(merged);
        }
        let elapsed = start.elapsed();
        RunOutput::from_runtime(&rt, positions_of(&state), elapsed)
    }
}

/// Extract the interleaved (x, y) positions from the particle state.
fn positions_of(state: &[f64]) -> Vec<f64> {
    state
        .chunks_exact(STRIDE)
        .flat_map(|p| [p[0], p[1]])
        .collect()
}

impl Benchmark for Fluidanimate {
    fn info(&self) -> BenchmarkInfo {
        BenchmarkInfo {
            name: "Fluidanimate",
            technique: ApproxTechnique::Approximate,
            degree_parameter: "fraction of accurate time steps",
            degrees: [0.50, 0.25, 0.125],
            metric: QualityMetric::RelativeError,
            perforation_supported: false,
        }
    }

    fn run(&self, config: &ExecutionConfig) -> RunOutput {
        match config.approach {
            Approach::Accurate => self.run_serial(),
            Approach::Significance { policy, degree } => self.run_tasks(
                config.workers,
                policy,
                Fluidanimate::accurate_period_for(degree),
            ),
            Approach::Perforation { .. } => {
                panic!("loop perforation is not applicable to Fluidanimate (paper, Section 4.2)")
            }
        }
    }

    fn run_full_accuracy(&self, workers: usize, policy: Policy) -> RunOutput {
        // Accurate period 1: every time step runs its accurate body.
        self.run_tasks(workers, policy, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Fluidanimate {
        Fluidanimate {
            particles: 256,
            steps: 12,
            chunks: 8,
            dt: 0.002,
            radius: 0.08,
            seed: 9,
        }
    }

    /// The accurate update as first written: every particle tested against
    /// every other.
    fn step_accurate_reference(
        state: &[f64],
        range: std::ops::Range<usize>,
        dt: f64,
        radius: f64,
        out: &mut [f64],
    ) {
        let n = state.len() / STRIDE;
        let r2 = radius * radius;
        for (local, i) in range.enumerate() {
            let xi = state[i * STRIDE];
            let yi = state[i * STRIDE + 1];
            let mut vx = state[i * STRIDE + 2];
            let mut vy = state[i * STRIDE + 3];
            let mut fx = 0.0;
            let mut fy = 0.0;
            for j in 0..n {
                if j == i {
                    continue;
                }
                let dx = xi - state[j * STRIDE];
                let dy = yi - state[j * STRIDE + 1];
                let d2 = dx * dx + dy * dy;
                if d2 < r2 && d2 > 1e-12 {
                    let d = d2.sqrt();
                    let overlap = (radius - d) / radius;
                    fx += overlap * overlap * dx / d * 40.0;
                    fy += overlap * overlap * dy / d * 40.0;
                }
            }
            fy -= 9.8;
            vx += fx * dt;
            vy += fy * dt;
            let mut x = xi + vx * dt;
            let mut y = yi + vy * dt;
            if x < 0.0 {
                x = 0.0;
                vx = -vx * 0.5;
            }
            if x > 1.0 {
                x = 1.0;
                vx = -vx * 0.5;
            }
            if y < 0.0 {
                y = 0.0;
                vy = -vy * 0.5;
            }
            if y > 1.0 {
                y = 1.0;
                vy = -vy * 0.5;
            }
            out[local * STRIDE..(local + 1) * STRIDE].copy_from_slice(&[x, y, vx, vy]);
        }
    }

    /// A seeded particle state exercising the index's edge cases: particles
    /// on the walls (`0.0` and `1.0` exactly) and coincident pairs.
    fn random_state(rng: &mut StdRng, n: usize) -> Vec<f64> {
        let mut state = Vec::with_capacity(n * STRIDE);
        for p in 0..n {
            let coord = |rng: &mut StdRng| match rng.gen_range(0..10usize) {
                0 => 0.0,
                1 => 1.0,
                _ => rng.gen_range(0.0..1.0),
            };
            let (x, y) = (coord(rng), coord(rng));
            if p > 0 && rng.gen_range(0..8usize) == 0 {
                // Coincident with an earlier particle: skipped by `d2 > 1e-12`.
                let twin = rng.gen_range(0..p) * STRIDE;
                state.extend_from_within(twin..twin + 2);
            } else {
                state.extend([x, y]);
            }
            state.extend([rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)]);
        }
        state
    }

    /// Radii from "wider than the box" (one cell, all pairs) down to far
    /// below the particle spacing (cell count clamped by `sqrt(n)`).
    fn random_radius(rng: &mut StdRng, case: usize) -> f64 {
        match case % 5 {
            0 => rng.gen_range(1.0..3.0),
            1 => rng.gen_range(1e-9..1e-3),
            2 => 0.1, // 2/radius rounds to exactly 20: cells a hair narrower than half the radius
            _ => rng.gen_range(0.01..0.5),
        }
    }

    #[test]
    fn indexed_step_matches_the_all_pairs_step_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0xf1u64);
        for case in 0..200 {
            // Counts that are multiples of neither 64 nor the chunk count, and
            // more chunks than particles.
            let f = Fluidanimate {
                particles: rng.gen_range(1..200),
                chunks: rng.gen_range(1..9),
                radius: random_radius(&mut rng, case),
                ..small()
            };
            let state = random_state(&mut rng, f.particles);
            let cells = Cells::new(&state, f.radius);
            for chunk in 0..f.chunks {
                // Includes empty trailing chunks (e.g. 5 particles in 4 chunks).
                let range = f.chunk_range(chunk);
                let mut fast = vec![0.0f64; range.len() * STRIDE];
                let mut reference = fast.clone();
                step_accurate(&state, &cells, range.clone(), f.dt, f.radius, &mut fast);
                step_accurate_reference(&state, range.clone(), f.dt, f.radius, &mut reference);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&fast),
                    bits(&reference),
                    "case {case}: n={} radius={} chunk {range:?}",
                    f.particles,
                    f.radius
                );
            }
        }
    }

    #[test]
    fn cells_list_every_particle_once_in_ascending_order() {
        let mut rng = StdRng::seed_from_u64(0xce11);
        for case in 0..50 {
            let n = rng.gen_range(1..300);
            let state = random_state(&mut rng, n);
            let cells = Cells::new(&state, random_radius(&mut rng, case));
            assert_eq!(cells.start.len(), cells.side * cells.side + 1);
            assert_eq!(
                (cells.start[0], cells.start[cells.side * cells.side]),
                (0, n)
            );
            let mut seen = vec![false; n];
            for cell in cells.start.windows(2) {
                let members = &cells.order[cell[0]..cell[1]];
                assert!(members.windows(2).all(|w| w[0] < w[1]), "not ascending");
                for &p in members {
                    assert!(!std::mem::replace(&mut seen[p], true), "particle {p} twice");
                }
            }
            assert!(seen.into_iter().all(|s| s));
        }
    }

    #[test]
    fn cells_find_every_pair_within_the_radius_from_either_side() {
        let mut rng = StdRng::seed_from_u64(0x9a125);
        for case in 0..50 {
            let n = rng.gen_range(2..150);
            let state = random_state(&mut rng, n);
            let radius = random_radius(&mut rng, case);
            let cells = Cells::new(&state, radius);
            let near_of = |i: usize| {
                let mut near = vec![0u64; n.div_ceil(64)];
                cells.mark_near(state[i * STRIDE], state[i * STRIDE + 1], radius, &mut near);
                near
            };
            let near: Vec<Vec<u64>> = (0..n).map(near_of).collect();
            for i in 0..n {
                for j in 0..n {
                    let dx = state[i * STRIDE] - state[j * STRIDE];
                    let dy = state[i * STRIDE + 1] - state[j * STRIDE + 1];
                    if dx * dx + dy * dy < radius * radius {
                        assert!(
                            near[i][j / 64] >> (j % 64) & 1 == 1,
                            "case {case}: {j} within {radius} of {i} but not listed"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn periods_match_table1() {
        assert_eq!(Fluidanimate::accurate_period_for(Degree::Mild), 2);
        assert_eq!(Fluidanimate::accurate_period_for(Degree::Medium), 4);
        assert_eq!(Fluidanimate::accurate_period_for(Degree::Aggressive), 8);
    }

    #[test]
    fn initial_state_is_deterministic_and_inside_the_box() {
        let f = small();
        let a = f.initial_state();
        assert_eq!(a, f.initial_state());
        assert_eq!(a.len(), f.particles * STRIDE);
        for p in a.chunks_exact(STRIDE) {
            assert!((0.0..=1.0).contains(&p[0]));
            assert!((0.0..=1.0).contains(&p[1]));
        }
    }

    #[test]
    fn particles_stay_inside_the_box() {
        let f = small();
        let positions = f.run_accurate_serial();
        for xy in positions.chunks_exact(2) {
            assert!((0.0..=1.0).contains(&xy[0]), "x = {}", xy[0]);
            assert!((0.0..=1.0).contains(&xy[1]), "y = {}", xy[1]);
        }
    }

    #[test]
    fn gravity_pulls_the_fluid_down() {
        let f = small();
        let initial = positions_of(&f.initial_state());
        let after = f.run_accurate_serial();
        let mean_y_initial: f64 =
            initial.chunks_exact(2).map(|p| p[1]).sum::<f64>() / f.particles as f64;
        let mean_y_after: f64 =
            after.chunks_exact(2).map(|p| p[1]).sum::<f64>() / f.particles as f64;
        assert!(
            mean_y_after < mean_y_initial,
            "fluid should fall: {mean_y_initial} -> {mean_y_after}"
        );
    }

    #[test]
    fn task_version_with_every_step_accurate_matches_serial() {
        let f = small();
        let serial = f.run_accurate_serial();
        let tasks = f.run_tasks(2, Policy::GtbMaxBuffer, 1);
        // Each chunk's forces are summed in particle order whichever worker
        // runs it, so the task version reproduces the serial bits.
        assert_eq!(serial, tasks.values);
        assert_eq!(tasks.tasks.approximate, 0);
    }

    #[test]
    fn mild_approximation_is_stable_and_close() {
        let f = small();
        let reference = f.run(&ExecutionConfig::accurate(2));
        let mild = f.run(&ExecutionConfig::significance(
            2,
            Policy::GtbMaxBuffer,
            Degree::Mild,
        ));
        let q = f.quality(&reference, &mild).value;
        // Paper: only the mild degree gives acceptable results; it should be
        // within a few percent relative error here.
        assert!(q < 20.0, "mild relative error {q}% too large");
        // Both accurate and extrapolation steps must have run.
        assert!(mild.tasks.accurate > 0);
        assert!(mild.tasks.approximate > 0);
    }

    #[test]
    fn aggressive_approximation_degrades_more_than_mild() {
        let f = small();
        let reference = f.run(&ExecutionConfig::accurate(2));
        let mild = f.run(&ExecutionConfig::significance(
            2,
            Policy::GtbMaxBuffer,
            Degree::Mild,
        ));
        let aggr = f.run(&ExecutionConfig::significance(
            2,
            Policy::GtbMaxBuffer,
            Degree::Aggressive,
        ));
        let q_mild = f.quality(&reference, &mild).value;
        let q_aggr = f.quality(&reference, &aggr).value;
        assert!(
            q_mild <= q_aggr + 1e-9,
            "mild {q_mild} vs aggressive {q_aggr}"
        );
    }

    #[test]
    #[should_panic(expected = "not applicable")]
    fn perforation_is_rejected() {
        let f = small();
        f.run(&ExecutionConfig::perforation(2, Degree::Mild));
    }

    #[test]
    fn accurate_step_fraction_matches_degree() {
        let f = small();
        let out = f.run_tasks(2, Policy::GtbMaxBuffer, 4);
        // steps = 12, period 4 => 3 accurate steps of 8 chunks each.
        assert_eq!(out.tasks.accurate, 3 * f.chunks);
        assert_eq!(out.tasks.approximate, 9 * f.chunks);
    }
}
