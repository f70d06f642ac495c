//! # sig-energy
//!
//! Energy-accounting substrate for the significance-aware runtime
//! reproduction.
//!
//! The PPoPP 2015 paper measures package energy with Intel RAPL counters
//! (via likwid) on a dual-socket Xeon E5-2650. Neither RAPL access nor that
//! machine is available here, so this crate implements the closest behavioural
//! equivalent: an **affine power model integrated over per-core busy and idle
//! time**. The paper's energy savings come from two mechanisms —
//!
//! 1. shorter makespans (less wall-clock time at package static power), and
//! 2. fewer/cheaper instructions retired on the active cores (less dynamic
//!    energy)
//!
//! — and both are captured by `E = Σ_sockets P_static·T_wall +
//! Σ_cores (P_active·T_busy + P_idle·T_idle)`. Relative comparisons between
//! runtime policies and approximation degrees (what Figure 2 reports) are
//! therefore preserved, even though absolute joules differ from the paper's
//! testbed.
//!
//! Two measurement modes are provided:
//!
//! * [`EnergyMeter`] — wall-clock based, used by the experiment harness.
//! * [`WorkUnitMeter`] — a deterministic model that charges abstract work
//!   units, used by tests that must be reproducible across machines.
//!
//! A DVFS hook ([`FrequencyScale`]) models the paper's future-work scenario
//! of running approximate tasks on slower, less power-hungry cores. Two
//! companion models complete the energy-strategy picture: [`SleepState`]
//! (per-step sleep power, static gating and wake latency, for race-to-idle
//! accounting) and [`TransitionCost`] (per-switch DVFS latency/energy, so
//! frequency thrashing is no longer free).

#![warn(missing_docs)]

pub mod budget;
pub mod curve;
pub mod dvfs;
pub mod idle;
pub mod meter;
pub mod power;
#[cfg(feature = "rapl")]
pub mod rapl;
pub mod work;

pub use budget::{
    BudgetConfig, BudgetController, BudgetObservation, BudgetSetpoint, BudgetTarget, SplitEstimator,
};
pub use curve::UtilizationPowerCurve;
pub use dvfs::{FrequencyScale, TransitionCost};
pub use idle::SleepState;
pub use meter::{BusyGuard, EnergyMeter, EnergyReading};
pub use power::{EnergyBreakdown, PowerModel};
pub use work::{WorkClass, WorkUnitMeter, WorkUnitModel};
