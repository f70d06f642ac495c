//! Affine CPU power model.

use serde::{Deserialize, Serialize};

/// An affine power model for a multi-socket, multi-core CPU.
///
/// The default parameters are calibrated so that a fully loaded 2 × 8-core
/// machine draws roughly the 2 × 95 W TDP of the paper's dual Xeon E5-2650
/// testbed:
///
/// * 21 W static (uncore, caches, memory controller) per socket,
/// * 6.6 W per fully busy core,
/// * 1.4 W per idle core.
///
/// `21 + 8·6.6 + 0·1.4 ≈ 74 W` per busy socket plus DRAM/interconnect margin,
/// which is comfortably inside the RAPL package range the paper reports.
/// Absolute joules are *not* the point — the model exists so that shorter
/// makespans and fewer busy core-seconds translate into proportionally lower
/// energy, the mechanism the paper's evaluation exercises.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    /// Number of CPU sockets (packages).
    pub sockets: usize,
    /// Number of physical cores per socket.
    pub cores_per_socket: usize,
    /// Static (leakage + uncore) power per socket in watts, drawn for the
    /// whole wall-clock duration of a measurement.
    pub static_watts_per_socket: f64,
    /// Additional power drawn by a core while executing work, in watts.
    pub active_watts_per_core: f64,
    /// Power drawn by an idle (halted) core, in watts.
    pub idle_watts_per_core: f64,
}

impl PowerModel {
    /// Model of the paper's testbed: two 8-core Intel Xeon E5-2650 packages.
    pub fn xeon_e5_2650_dual_socket() -> Self {
        PowerModel {
            sockets: 2,
            cores_per_socket: 8,
            static_watts_per_socket: 21.0,
            active_watts_per_core: 6.6,
            idle_watts_per_core: 1.4,
        }
    }

    /// A model sized to the host this process is running on: a single
    /// "socket" containing all available cores, with the same per-core
    /// coefficients as the paper's testbed.
    pub fn for_host() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        PowerModel {
            sockets: 1,
            cores_per_socket: cores,
            static_watts_per_socket: 21.0,
            active_watts_per_core: 6.6,
            idle_watts_per_core: 1.4,
        }
    }

    /// Total number of cores across all sockets.
    pub fn total_cores(&self) -> usize {
        self.sockets * self.cores_per_socket
    }

    /// One core's share of its socket's static power, in watts — the amount
    /// a sleep state's `static_fraction_saved` gates off per sleeping core.
    /// Zero for a degenerate model with no cores.
    pub fn static_watts_per_core(&self) -> f64 {
        if self.cores_per_socket > 0 {
            self.static_watts_per_socket / self.cores_per_socket as f64
        } else {
            0.0
        }
    }

    /// Package power in watts when `busy_cores` cores are executing work and
    /// the remainder are idle.
    ///
    /// `busy_cores` is clamped to the total core count.
    pub fn power_watts(&self, busy_cores: usize) -> f64 {
        let busy = busy_cores.min(self.total_cores()) as f64;
        let idle = self.total_cores() as f64 - busy;
        self.sockets as f64 * self.static_watts_per_socket
            + busy * self.active_watts_per_core
            + idle * self.idle_watts_per_core
    }

    /// Energy in joules consumed over a measurement window.
    ///
    /// * `wall_seconds` — elapsed wall-clock time of the window,
    /// * `busy_core_seconds` — total core-seconds spent executing work
    ///   (summed over all cores; at most `total_cores · wall_seconds`).
    ///
    /// Busy core-seconds beyond physical capacity are clamped, so oversubscribed
    /// thread pools cannot yield more-than-physical energy.
    pub fn energy_joules(&self, wall_seconds: f64, busy_core_seconds: f64) -> f64 {
        self.energy_breakdown(wall_seconds, busy_core_seconds)
            .total()
    }

    /// The same integration as [`PowerModel::energy_joules`], split into its
    /// static, active (dynamic) and idle components. The components are what
    /// DVFS-aware accounting manipulates individually: frequency scaling
    /// changes only the active term, race-to-idle changes the wall time the
    /// static term integrates over.
    pub fn energy_breakdown(&self, wall_seconds: f64, busy_core_seconds: f64) -> EnergyBreakdown {
        assert!(wall_seconds >= 0.0, "wall time must be non-negative");
        assert!(busy_core_seconds >= 0.0, "busy time must be non-negative");
        let capacity = self.total_cores() as f64 * wall_seconds;
        let busy = busy_core_seconds.min(capacity);
        let idle = capacity - busy;
        EnergyBreakdown {
            static_joules: self.sockets as f64 * self.static_watts_per_socket * wall_seconds,
            dynamic_joules: self.active_watts_per_core * busy,
            idle_joules: self.idle_watts_per_core * idle,
            transition_joules: 0.0,
        }
    }
}

/// Additive decomposition of a modelled energy window into the terms of the
/// affine model (plus transition costs): the runtime's per-worker DVFS
/// accounting fills it, and every [`crate::EnergyReading`] carries one.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// Leakage + uncore energy drawn for the whole window.
    pub static_joules: f64,
    /// Energy drawn by cores while executing work (the only term DVFS
    /// frequency scaling changes).
    pub dynamic_joules: f64,
    /// Energy drawn by idle (halted or sleeping) cores.
    pub idle_joules: f64,
    /// Energy burned by state transitions: DVFS frequency switches and
    /// sleep-state wakeups. Zero for accounting sources that predate (or do
    /// not model) transition costs.
    pub transition_joules: f64,
}

impl EnergyBreakdown {
    /// Total joules across all components.
    pub fn total(&self) -> f64 {
        self.static_joules + self.dynamic_joules + self.idle_joules + self.transition_joules
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel::xeon_e5_2650_dual_socket()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_testbed() {
        let m = PowerModel::default();
        assert_eq!(m.sockets, 2);
        assert_eq!(m.cores_per_socket, 8);
        assert_eq!(m.total_cores(), 16);
    }

    #[test]
    fn idle_power_is_static_plus_idle_cores() {
        let m = PowerModel::xeon_e5_2650_dual_socket();
        let expected = 2.0 * 21.0 + 16.0 * 1.4;
        assert!((m.power_watts(0) - expected).abs() < 1e-9);
    }

    #[test]
    fn full_load_power_is_higher_than_idle() {
        let m = PowerModel::xeon_e5_2650_dual_socket();
        assert!(m.power_watts(16) > m.power_watts(0));
        // Busy cores beyond capacity clamp.
        assert_eq!(m.power_watts(16), m.power_watts(100));
    }

    #[test]
    fn energy_scales_linearly_with_time_at_fixed_load() {
        let m = PowerModel::xeon_e5_2650_dual_socket();
        let e1 = m.energy_joules(1.0, 8.0);
        let e2 = m.energy_joules(2.0, 16.0);
        assert!((e2 - 2.0 * e1).abs() < 1e-9);
    }

    #[test]
    fn energy_matches_power_times_time_for_constant_load() {
        let m = PowerModel::xeon_e5_2650_dual_socket();
        // 4 cores busy for the entire 2-second window.
        let e = m.energy_joules(2.0, 8.0);
        assert!((e - m.power_watts(4) * 2.0).abs() < 1e-9);
    }

    #[test]
    fn busy_time_clamped_to_capacity() {
        let m = PowerModel::xeon_e5_2650_dual_socket();
        let at_capacity = m.energy_joules(1.0, 16.0);
        let over_capacity = m.energy_joules(1.0, 1000.0);
        assert!((at_capacity - over_capacity).abs() < 1e-9);
    }

    #[test]
    fn shorter_makespan_uses_less_energy_for_same_work() {
        // Same busy core-seconds, shorter wall time => less energy.
        // This is the race-to-idle effect that makes approximation pay off.
        let m = PowerModel::xeon_e5_2650_dual_socket();
        let slow = m.energy_joules(10.0, 40.0);
        let fast = m.energy_joules(5.0, 40.0);
        assert!(fast < slow);
    }

    #[test]
    fn for_host_uses_at_least_one_core() {
        let m = PowerModel::for_host();
        assert!(m.total_cores() >= 1);
        assert_eq!(m.sockets, 1);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_wall_time_panics() {
        PowerModel::default().energy_joules(-1.0, 0.0);
    }

    #[test]
    fn breakdown_components_sum_to_total() {
        let m = PowerModel::xeon_e5_2650_dual_socket();
        let b = m.energy_breakdown(2.0, 8.0);
        assert!((b.total() - m.energy_joules(2.0, 8.0)).abs() < 1e-9);
        assert!((b.static_joules - 2.0 * 21.0 * 2.0).abs() < 1e-9);
        assert!((b.dynamic_joules - 6.6 * 8.0).abs() < 1e-9);
        assert!((b.idle_joules - 1.4 * (32.0 - 8.0)).abs() < 1e-9);
    }
}
