//! Monte-Carlo estimation of a PDE subdomain boundary (the "MC" benchmark).
//!
//! Following Vavalis & Sarailidis' hybrid elliptic solvers, the value of a
//! harmonic function on the boundary of an interior subdomain is estimated by
//! random walks: from each subdomain boundary point, walks (walk-on-spheres)
//! proceed until they hit the outer domain boundary, where the known boundary
//! condition is sampled; the estimate is the mean over walks.
//!
//! One task estimates one subdomain boundary point. The approximate body
//! "drops a percentage of the random walks" and uses "a modified, more
//! lightweight methodology ... to decide how far from the current location
//! the next step of a random walk should be" (Section 4.1): here, half the
//! walks and a looser termination band.
//!
//! Degrees (Table 1): ratio 100% / 80% / 50%; quality metric relative error.

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

/// Monte-Carlo benchmark configuration.
#[derive(Debug, Clone)]
pub struct MonteCarlo {
    /// Number of subdomain boundary points (= number of tasks).
    pub points: usize,
    /// Random walks per point in the accurate task body.
    pub walks_per_point: usize,
    /// Base RNG seed (walks are deterministic given the seed and the point
    /// index).
    pub seed: u64,
}

impl Default for MonteCarlo {
    fn default() -> Self {
        MonteCarlo {
            points: 192,
            walks_per_point: 96,
            seed: 0x5eed_0001,
        }
    }
}

/// Boundary condition on the outer unit-square boundary: a harmonic function
/// (`x² − y²`) so the Monte-Carlo estimate converges to its interior value.
fn boundary_value(x: f64, y: f64) -> f64 {
    x * x - y * y
}

/// Distance from `(x, y)` to the outer unit-square boundary.
fn distance_to_boundary(x: f64, y: f64) -> f64 {
    x.min(1.0 - x).min(y).min(1.0 - y)
}

/// One walk-on-spheres random walk starting at `(x, y)`.
///
/// `eps` is the termination band: the walk stops when it is within `eps` of
/// the boundary and samples the boundary condition at the nearest boundary
/// point. A larger `eps` terminates sooner (cheaper) but is less accurate —
/// that is the "lightweight methodology" of the approximate task body.
fn random_walk(mut x: f64, mut y: f64, eps: f64, rng: &mut StdRng) -> f64 {
    const MAX_STEPS: usize = 10_000;
    for _ in 0..MAX_STEPS {
        let d = distance_to_boundary(x, y);
        if d <= eps {
            break;
        }
        let angle = rng.gen_range(0.0..std::f64::consts::TAU);
        x += d * angle.cos();
        y += d * angle.sin();
        x = x.clamp(0.0, 1.0);
        y = y.clamp(0.0, 1.0);
    }
    // Project to the nearest boundary point and sample the condition there.
    let dx0 = x;
    let dx1 = 1.0 - x;
    let dy0 = y;
    let dy1 = 1.0 - y;
    let min = dx0.min(dx1).min(dy0).min(dy1);
    if min == dx0 {
        boundary_value(0.0, y)
    } else if min == dx1 {
        boundary_value(1.0, y)
    } else if min == dy0 {
        boundary_value(x, 0.0)
    } else {
        boundary_value(x, 1.0)
    }
}

/// Estimate the harmonic function at `(x, y)` with `walks` random walks.
fn estimate_point(x: f64, y: f64, walks: usize, eps: f64, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sum = 0.0;
    for _ in 0..walks {
        sum += random_walk(x, y, eps, &mut rng);
    }
    sum / walks as f64
}

impl MonteCarlo {
    /// Accurate termination band.
    const EPS_ACCURATE: f64 = 1e-3;
    /// Approximate (lightweight) termination band.
    const EPS_APPROX: f64 = 2e-2;

    /// The accurate-task ratio for an approximation degree (Table 1).
    pub fn ratio_for(degree: Degree) -> f64 {
        match degree {
            Degree::Mild => 1.00,
            Degree::Medium => 0.80,
            Degree::Aggressive => 0.50,
        }
    }

    /// The subdomain boundary points: the perimeter of the centred square
    /// `[0.25, 0.75]²`, sampled uniformly.
    pub fn boundary_points(&self) -> Vec<(f64, f64)> {
        let n = self.points;
        (0..n)
            .map(|i| {
                let t = i as f64 / n as f64 * 4.0;
                let side = t.floor() as usize % 4;
                let frac = t.fract();
                match side {
                    0 => (0.25 + 0.5 * frac, 0.25),
                    1 => (0.75, 0.25 + 0.5 * frac),
                    2 => (0.75 - 0.5 * frac, 0.75),
                    _ => (0.25, 0.75 - 0.5 * frac),
                }
            })
            .collect()
    }

    /// Per-point accurate estimate (used by the serial reference and the
    /// accurate task body).
    fn accurate_estimate(&self, index: usize, x: f64, y: f64) -> f64 {
        estimate_point(
            x,
            y,
            self.walks_per_point,
            MonteCarlo::EPS_ACCURATE,
            self.seed.wrapping_add(index as u64),
        )
    }

    /// Per-point approximate estimate: half the walks, looser termination.
    fn approximate_estimate(&self, index: usize, x: f64, y: f64) -> f64 {
        estimate_point(
            x,
            y,
            (self.walks_per_point / 2).max(1),
            MonteCarlo::EPS_APPROX,
            self.seed.wrapping_add(index as u64),
        )
    }

    /// Serial fully accurate execution: the perforated loop with no point
    /// perforated.
    pub fn run_accurate_serial(&self) -> Vec<f64> {
        self.run_perforated(1.0).values
    }

    /// Significance-annotated task execution: one task per boundary point.
    pub fn run_tasks(&self, workers: usize, policy: Policy, ratio: f64) -> RunOutput {
        let points = self.boundary_points();
        let estimates = SharedGrid::new(1, points.len(), 0.0f64);
        let this = Arc::new(self.clone());
        let start = Instant::now();
        let rt = Runtime::builder().workers(workers).policy(policy).build();
        let group = rt.create_group("mc", ratio);
        for (i, &(x, y)) in points.iter().enumerate() {
            let cell = Arc::new(std::sync::Mutex::new(estimates.region_writer(i, i + 1)));
            let cell_apx = cell.clone();
            let cfg_acc = this.clone();
            let cfg_apx = this.clone();
            rt.task(move || {
                let value = cfg_acc.accurate_estimate(i, x, y);
                cell.lock().expect("estimate cell").set(0, value);
            })
            .approx(move || {
                let value = cfg_apx.approximate_estimate(i, x, y);
                cell_apx.lock().expect("estimate cell").set(0, value);
            })
            // All points contribute equally; keep the value inside (0, 1).
            .significance(0.5)
            .group(&group)
            .spawn();
        }
        rt.wait_group(&group);
        let elapsed = start.elapsed();
        let values = estimates.into_vec();
        RunOutput::from_runtime(&rt, values, elapsed)
    }

    /// Blind perforation: only the kept points are estimated (accurately),
    /// the rest keep the default value 0 — "drop the random walks and the
    /// corresponding computations".
    pub fn run_perforated(&self, ratio: f64) -> RunOutput {
        let points = self.boundary_points();
        let start = Instant::now();
        let mut estimates = vec![0.0f64; points.len()];
        let kept = kept_indices(points.len(), PerforationRate::keep(ratio));
        for &i in &kept {
            let (x, y) = points[i];
            estimates[i] = self.accurate_estimate(i, x, y);
        }
        let elapsed = start.elapsed();
        RunOutput::serial(estimates, elapsed)
    }
}

impl Benchmark for MonteCarlo {
    fn info(&self) -> BenchmarkInfo {
        BenchmarkInfo {
            name: "MC",
            technique: ApproxTechnique::Both,
            degree_parameter: "accurate-task ratio",
            degrees: [1.00, 0.80, 0.50],
            metric: QualityMetric::RelativeError,
            perforation_supported: true,
        }
    }

    fn run(&self, config: &ExecutionConfig) -> RunOutput {
        match config.approach {
            Approach::Accurate => self.run_perforated(1.0),
            Approach::Significance { policy, degree } => {
                self.run_tasks(config.workers, policy, MonteCarlo::ratio_for(degree))
            }
            Approach::Perforation { degree } => self.run_perforated(MonteCarlo::ratio_for(degree)),
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

    fn small() -> MonteCarlo {
        MonteCarlo {
            points: 48,
            walks_per_point: 32,
            seed: 42,
        }
    }

    #[test]
    fn ratios_match_table1() {
        assert_eq!(MonteCarlo::ratio_for(Degree::Mild), 1.00);
        assert_eq!(MonteCarlo::ratio_for(Degree::Medium), 0.80);
        assert_eq!(MonteCarlo::ratio_for(Degree::Aggressive), 0.50);
    }

    #[test]
    fn boundary_points_lie_on_the_subdomain_square() {
        let mc = small();
        let points = mc.boundary_points();
        assert_eq!(points.len(), mc.points);
        for &(x, y) in &points {
            let on_vertical =
                ((x - 0.25).abs() < 1e-9 || (x - 0.75).abs() < 1e-9) && (0.25..=0.75).contains(&y);
            let on_horizontal =
                ((y - 0.25).abs() < 1e-9 || (y - 0.75).abs() < 1e-9) && (0.25..=0.75).contains(&x);
            assert!(on_vertical || on_horizontal, "({x}, {y}) not on the square");
        }
    }

    #[test]
    fn estimates_are_deterministic() {
        let mc = small();
        assert_eq!(mc.run_accurate_serial(), mc.run_accurate_serial());
    }

    #[test]
    fn estimates_track_the_harmonic_solution() {
        // For a harmonic boundary condition the interior value equals the
        // function itself; the MC estimate should be in that neighbourhood.
        let mc = MonteCarlo {
            points: 8,
            walks_per_point: 400,
            seed: 7,
        };
        let estimates = mc.run_accurate_serial();
        let points = mc.boundary_points();
        for (&(x, y), &est) in points.iter().zip(&estimates) {
            let exact = x * x - y * y;
            assert!(
                (est - exact).abs() < 0.15,
                "estimate {est} too far from exact {exact} at ({x}, {y})"
            );
        }
    }

    #[test]
    fn task_version_full_ratio_matches_serial() {
        let mc = small();
        let serial = mc.run_accurate_serial();
        let tasks = mc.run_tasks(2, Policy::GtbMaxBuffer, 1.0);
        assert_eq!(serial, tasks.values);
        assert_eq!(tasks.tasks.accurate, mc.points);
    }

    #[test]
    fn approximation_keeps_relative_error_small() {
        let mc = small();
        let reference = mc.run(&ExecutionConfig::accurate(2));
        let aggr = mc.run(&ExecutionConfig::significance(
            2,
            Policy::GtbMaxBuffer,
            Degree::Aggressive,
        ));
        let err = relative_error(&reference.values, &aggr.values);
        assert!(err < 0.25, "relative error {err} too large");
        assert!(aggr.tasks.approximate > 0);
    }

    #[test]
    fn perforation_zeroes_points_and_hurts_more() {
        let mc = small();
        let reference = mc.run(&ExecutionConfig::accurate(2));
        let ours = mc.run(&ExecutionConfig::significance(
            2,
            Policy::GtbMaxBuffer,
            Degree::Aggressive,
        ));
        let perf = mc.run(&ExecutionConfig::perforation(2, Degree::Aggressive));
        let q_ours = mc.quality(&reference, &ours).value;
        let q_perf = mc.quality(&reference, &perf).value;
        assert!(q_ours <= q_perf, "ours {q_ours} vs perforation {q_perf}");
        assert!(perf.values.iter().filter(|&&v| v == 0.0).count() > 0);
    }

    #[test]
    fn lighter_walks_are_cheaper() {
        // The approximate estimate uses half the walks: check that it indeed
        // differs (it is an approximation) but stays in the same ballpark.
        let mc = small();
        let (x, y) = (0.4, 0.3);
        let accurate = mc.accurate_estimate(3, x, y);
        let approximate = mc.approximate_estimate(3, x, y);
        assert_ne!(accurate, approximate);
        assert!((accurate - approximate).abs() < 0.3);
    }
}
