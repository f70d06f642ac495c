//! The one energy reading type of the workspace.
//!
//! Every joule reported anywhere in the workspace — the runtime's
//! `energy_report()`, the serving and cluster simulators, the budget
//! controller's observations — is priced by the runtime's `ExecutionEnv`
//! ledger (or, for a fleet, by one per node) and handed around as an
//! [`EnergyReading`]. It plays the role of the RAPL package counter the paper
//! reads around each benchmark run.

use serde::{Deserialize, Serialize};

use crate::power::EnergyBreakdown;

/// A single energy measurement window: what the paper reads from the RAPL
/// package counters around a run, here produced by the modelled ledger.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyReading {
    /// Wall-clock (or virtual-time) duration of the window in seconds.
    pub wall_seconds: f64,
    /// Total busy core-seconds reported during the window.
    pub busy_core_seconds: f64,
    /// Modelled energy in joules (sum of the breakdown components).
    pub joules: f64,
    /// Average package power over the window in watts.
    pub average_watts: f64,
    /// Static / dynamic / idle / transition decomposition of `joules`.
    pub breakdown: EnergyBreakdown,
}

impl EnergyReading {
    /// Assemble a reading from its component terms. `joules` and
    /// `average_watts` are derived.
    pub fn from_breakdown(
        wall_seconds: f64,
        busy_core_seconds: f64,
        breakdown: EnergyBreakdown,
    ) -> Self {
        let joules = breakdown.total();
        EnergyReading {
            wall_seconds,
            busy_core_seconds,
            joules,
            average_watts: if wall_seconds > 0.0 {
                joules / wall_seconds
            } else {
                0.0
            },
            breakdown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn joules_and_average_power_derive_from_the_breakdown() {
        let breakdown = EnergyBreakdown {
            static_joules: 10.0,
            dynamic_joules: 10.0,
            idle_joules: 2.0,
            transition_joules: 0.5,
        };
        let r = EnergyReading::from_breakdown(2.0, 2.0, breakdown);
        assert_eq!(r.joules, 22.5);
        assert_eq!(r.average_watts, 11.25);
        assert_eq!(r.breakdown, breakdown);
        let empty = EnergyReading::from_breakdown(0.0, 0.0, EnergyBreakdown::default());
        assert_eq!((empty.joules, empty.average_watts), (0.0, 0.0));
    }
}
