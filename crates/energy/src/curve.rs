//! Node-level utilization→power curves for the cluster simulation.
//!
//! [`UtilizationPowerCurve::Linear`] is the affine per-core [`PowerModel`]
//! (static + active·busy + idle·idle), with busy cores weighted by their
//! DVFS power factor: a core running at half frequency draws
//! `active · 0.5^exponent`, exactly what the `ExecutionEnv` charges it.
//!
//! The curve is **monotone in the busy-core count** (enforced by
//! construction: `active ≥ idle`), which is what makes the cluster cap
//! controller's slot budget a sound bound: capping how many workers may be
//! busy caps the modelled node power.

use crate::power::PowerModel;

/// A node's utilization→watts curve (see module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UtilizationPowerCurve {
    /// Affine per-core pricing from a [`PowerModel`], DVFS-weighted.
    Linear {
        /// The per-core power model.
        model: PowerModel,
    },
}

impl UtilizationPowerCurve {
    /// A linear curve over `model`.
    pub fn linear(model: PowerModel) -> Self {
        assert!(
            model.active_watts_per_core >= model.idle_watts_per_core,
            "active watts must be at least idle watts for the curve to be \
             monotone in busy cores"
        );
        UtilizationPowerCurve::Linear { model }
    }

    /// Modelled node draw with `busy_count` of `workers` cores busy.
    /// `busy_effective` is the power-factor-weighted busy count
    /// (`Σ ratio^exponent` over busy cores; equals `busy_count` when
    /// everything runs at nominal frequency).
    pub fn watts(&self, busy_effective: f64, busy_count: usize, workers: usize) -> f64 {
        debug_assert!(busy_count <= workers);
        debug_assert!(busy_effective <= busy_count as f64 + 1e-9);
        match self {
            UtilizationPowerCurve::Linear { model } => {
                model.static_watts_per_socket * model.sockets as f64
                    + busy_effective * model.active_watts_per_core
                    + (workers - busy_count) as f64 * model.idle_watts_per_core
            }
        }
    }

    /// Upper bound on [`UtilizationPowerCurve::watts`] with at most
    /// `busy_workers` busy (every busy core at nominal power factor). The
    /// cap controller budgets against this — monotone in `busy_workers`, so
    /// any instant with fewer busy cores draws no more.
    pub fn max_watts(&self, busy_workers: usize, workers: usize) -> f64 {
        self.watts(busy_workers as f64, busy_workers.min(workers), workers)
    }

    /// Node draw with nothing running — the floor no cap can get under
    /// while the node is up.
    pub fn idle_floor(&self, workers: usize) -> f64 {
        self.watts(0.0, 0, workers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> PowerModel {
        PowerModel {
            sockets: 1,
            cores_per_socket: 2,
            static_watts_per_socket: 2.0,
            active_watts_per_core: 6.0,
            idle_watts_per_core: 0.5,
        }
    }

    #[test]
    fn linear_curve_prices_like_the_power_model() {
        let curve = UtilizationPowerCurve::linear(model());
        // 2 static + 1·6 active + 1·0.5 idle.
        assert!((curve.watts(1.0, 1, 2) - 8.5).abs() < 1e-12);
        // A busy core at half frequency (exponent 1): half the active draw.
        assert!((curve.watts(0.5, 1, 2) - 5.5).abs() < 1e-12);
        assert!((curve.idle_floor(2) - 3.0).abs() < 1e-12);
        assert!((curve.max_watts(2, 2) - 14.0).abs() < 1e-12);
    }
}
