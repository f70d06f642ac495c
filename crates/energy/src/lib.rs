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
//! There is one ledger: the runtime's `ExecutionEnv` (in `sig-core`) charges
//! every task's busy time to these models and reports an [`EnergyReading`];
//! the serving simulator keeps one, the cluster simulator one per node. This
//! crate holds the models that ledger prices with and the
//! [`BudgetController`] that closes the loop over its readings.
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

pub use budget::{
    BudgetConfig, BudgetController, BudgetObservation, BudgetSetpoint, BudgetTarget, SplitEstimator,
};
pub use curve::UtilizationPowerCurve;
pub use dvfs::{FrequencyScale, TransitionCost};
pub use idle::SleepState;
pub use meter::EnergyReading;
pub use power::{EnergyBreakdown, PowerModel};
