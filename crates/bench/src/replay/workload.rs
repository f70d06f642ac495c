//! Inputs more than one replay shares, written once: the two modelled
//! packages with their DVFS ladder, the synthetic task durations, and the
//! critical / standard / background request mix.

use std::time::Duration;

use sig_energy::{EnergyReading, FrequencyScale, PowerModel, SleepState, TransitionCost};
use sig_serving::{QualityTier, RequestClass, RetryPolicy, SplitMix64};

use crate::json::{fixed, Json};

/// Workers of the single-node replays (energy, budget, serving).
pub const WORKERS: usize = 4;
/// DVFS ladder depth.
pub const LADDER_STEPS: usize = 4;
/// DVFS ladder floor.
pub const LADDER_FLOOR: f64 = 0.4;
/// Adaptive-governor hysteresis (consecutive dissenting dispatches before a
/// domain re-targets).
pub const HYSTERESIS: u32 = 4;
/// Synthetic nominal busy time of one accurate task.
pub const ACCURATE_TASK_SECONDS: f64 = 40e-6;
/// Synthetic nominal busy time of one approximate task (a third of the
/// accurate work, the ballpark of the paper's Sobel/DCT approxfuns).
pub const APPROX_TASK_SECONDS: f64 = ACCURATE_TASK_SECONDS / 3.0;
/// DVFS transition cost charged by the task-level replays (10 µs stall,
/// 20 µJ).
pub const REPLAY_TRANSITION: TransitionCost = TransitionCost {
    latency_seconds: 10e-6,
    energy_joules: 20e-6,
};

/// One modelled package: power model, sleep state and the exponent its
/// ladder steps price dynamic power with.
pub struct Package {
    /// Report key.
    pub name: &'static str,
    /// Affine power model, [`WORKERS`] cores on one socket.
    pub model: PowerModel,
    /// Sleep state idle slack is priced at.
    pub sleep: SleepState,
    /// Power exponent of every ladder step (`≈2.4`: dynamic power falls
    /// fast with frequency; `≈1.2`: leakage-dominated, stretching saves
    /// little).
    pub power_exponent: f64,
}

impl Package {
    /// Small static share, cubic-ish `P ∝ f·V²` exponent, only a shallow
    /// sleep state: slow-and-steady wins everywhere.
    pub fn dynamic_heavy() -> Package {
        Package {
            name: "dynamic_heavy",
            model: PowerModel {
                sockets: 1,
                cores_per_socket: WORKERS,
                static_watts_per_socket: 1.0 * WORKERS as f64,
                active_watts_per_core: 6.6,
                idle_watts_per_core: 0.5,
            },
            sleep: SleepState::shallow(),
            power_exponent: 2.4,
        }
    }

    /// Large static share, near-linear exponent, deep power-gating sleep:
    /// race-to-idle wins on the deep rungs, the crossover sits mid-ladder.
    pub fn static_heavy() -> Package {
        Package {
            name: "static_heavy",
            model: PowerModel {
                sockets: 1,
                cores_per_socket: WORKERS,
                static_watts_per_socket: 4.0 * WORKERS as f64,
                active_watts_per_core: 6.6,
                idle_watts_per_core: 2.0,
            },
            sleep: SleepState::new(0.1, 0.75, 5e-6),
            power_exponent: 1.2,
        }
    }

    /// The [`LADDER_STEPS`]-step ladder down to [`LADDER_FLOOR`], priced
    /// with this package's exponent.
    pub fn ladder(&self) -> Vec<FrequencyScale> {
        FrequencyScale::ladder(LADDER_STEPS, LADDER_FLOOR)
            .into_iter()
            .map(|s| FrequencyScale::with_exponent(s.ratio(), self.power_exponent))
            .collect()
    }
}

/// The joule breakdown both task-level replays lead their run objects with.
pub fn joule_members(reading: &EnergyReading) -> Vec<(&'static str, Json)> {
    vec![
        ("joules", fixed(reading.joules, 6)),
        ("dynamic_joules", fixed(reading.breakdown.dynamic_joules, 6)),
        ("static_joules", fixed(reading.breakdown.static_joules, 6)),
        ("idle_joules", fixed(reading.breakdown.idle_joules, 6)),
    ]
}

/// The request-class population: a critical class that never degrades and
/// never sheds, a standard class, and a background class. With `ladder`,
/// the sub-critical classes carry three-rung quality ladders; without it
/// every class is full-quality-or-nothing (the exact-only contract).
pub fn classes(ladder: bool, service_nanos: u64) -> Vec<RequestClass> {
    let deadline = Duration::from_nanos(service_nanos * 20);
    let retry = RetryPolicy {
        max_retries: 2,
        base_backoff: Duration::from_nanos(service_nanos / 4),
        jitter: 0.3,
    };
    let class = |name: &str, significance: f64, ladder: bool| {
        let rungs: &[(f64, f64)] = if ladder {
            &[(1.0, 1.0), (0.6, 0.5), (0.3, 0.25)]
        } else {
            &[(1.0, 1.0)]
        };
        RequestClass {
            name: name.to_string(),
            tiers: rungs
                .iter()
                .map(|&(quality, work_factor)| QualityTier {
                    significance: significance * quality,
                    work_factor,
                })
                .collect(),
            deadline,
            retry,
        }
    };
    vec![
        class("critical", 1.0, false),
        class("standard", 0.7, ladder),
        class("background", 0.3, ladder),
    ]
}

/// Deterministic class mix: ~20% critical, ~50% standard, ~30% background.
fn pick_class(rng: &mut SplitMix64) -> usize {
    match rng.next_u64() % 10 {
        0 | 1 => 0,
        2..=6 => 1,
        _ => 2,
    }
}

/// Pair each arrival offset with a class drawn from the stream `class_seed`
/// starts.
pub fn with_classes(offsets: Vec<u64>, class_seed: u64) -> Vec<(u64, usize)> {
    let mut rng = SplitMix64::new(class_seed);
    offsets
        .into_iter()
        .map(|at| (at, pick_class(&mut rng)))
        .collect()
}
