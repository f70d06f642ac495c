//! # sig-core — a significance-aware task-parallel runtime
//!
//! Rust reproduction of the programming model and runtime system of
//! *"A Programming Model and Runtime System for Significance-Aware
//! Energy-Efficient Computing"* (Vassiliadis et al., PPoPP 2015).
//!
//! ## The programming model
//!
//! Programs are decomposed into **tasks**. Each task carries a
//! [`Significance`] in `[0.0, 1.0]` describing how much it contributes to the
//! quality of the final output, may provide an **approximate body**
//! (`approxfun`) of lower complexity, belongs to a named **task group**
//! (`label`), and declares its data footprint (`in`/`out`) from which the
//! runtime derives dependences. A group-level **ratio** tells the runtime
//! which fraction of the group's tasks must execute accurately; everything
//! else may run the approximate body or be dropped.
//!
//! ```
//! use sig_core::{Runtime, Policy};
//!
//! let rt = Runtime::builder().workers(4).policy(Policy::GtbMaxBuffer).build();
//! let group = rt.create_group("rows", 1.0);
//!
//! for row in 0..32u32 {
//!     rt.task(move || { /* accurate computation of `row` */ })
//!         .approx(move || { /* cheaper approximation of `row` */ })
//!         .significance(((row % 9) + 1) as f64 / 10.0)
//!         .group(&group)
//!         .spawn();
//! }
//! // Execute at least the 35% most significant tasks accurately.
//! rt.wait_group_with_ratio(&group, 0.35);
//! assert_eq!(rt.group_stats(&group).total(), 32);
//! ```
//!
//! The [`task!`] and [`taskwait!`] macros offer a pragma-like spelling of the
//! same API.
//!
//! ## The runtime
//!
//! The runtime is a master/slave work-sharing scheduler: the spawning thread
//! distributes tasks round-robin over per-worker lock-free queues (a
//! Chase–Lev-style stealable deque plus an allocation-free mailbox each, a
//! list linked through the task records, see the `deque` module); idle
//! workers steal, and park on targeted event-driven wakeups
//! when there is nothing to steal. Executing a ready task takes zero mutex
//! acquisitions on the worker fast path. Three significance-aware policies
//! decide accurate vs. approximate execution (see [`Policy`]): **GTB**
//! (global task buffering, with bounded or unbounded buffer) and **LQH**
//! (local queue history), plus the significance-agnostic baseline. Execution
//! statistics needed to reproduce the paper's Table 2 (ratio deviation,
//! significance inversions) are collected per group in per-worker shards.

#![warn(missing_docs)]

pub mod deps;
mod deque;
pub mod env;
pub mod faults;
pub mod governor;
pub mod group;
pub mod handle;
mod macros;
pub mod policy;
pub mod runtime;
pub mod shared;
pub mod significance;
pub mod stats;
mod sync;
pub mod task;

pub use deps::DepKey;
pub use env::{EnergyReport, EnvTotals, ExecutionEnv, WorkerEnergy};
pub use faults::{FaultAction, FaultPlan};
pub use governor::{
    AdaptiveGovernor, DispatchContext, DispatchDecision, Governor, NominalGovernor,
    SignificanceLadderGovernor,
};
pub use group::TaskGroup;
pub use handle::{SpawnHandle, TaskOutcome};
pub use policy::Policy;
pub use runtime::{
    BatchBuilder, BatchTask, HandledTaskBuilder, Runtime, RuntimeBuilder, TaskBuilder, TaskIdRange,
};
pub use shared::{RegionWriter, SharedGrid};
pub use significance::{Significance, SignificanceLevel, NUM_LEVELS};
pub use stats::{GroupStatsSnapshot, OutcomeSummary, RuntimeStats, ShedHistogram};
pub use task::{CancelToken, ExecutionMode, TaskId};

// Re-exported so downstream crates that only depend on `sig-core` can name
// the energy types the execution environment is built from.
pub use sig_energy::{
    BudgetConfig, BudgetController, BudgetSetpoint, BudgetTarget, EnergyBreakdown, EnergyReading,
    FrequencyScale, PowerModel, SleepState, SplitEstimator, TransitionCost,
};

/// Commonly used items, re-exported for glob import.
pub mod prelude {
    pub use crate::deps::DepKey;
    pub use crate::faults::{FaultAction, FaultPlan};
    pub use crate::governor::{AdaptiveGovernor, Governor, SignificanceLadderGovernor};
    pub use crate::group::TaskGroup;
    pub use crate::handle::{SpawnHandle, TaskOutcome};
    pub use crate::policy::Policy;
    pub use crate::runtime::{BatchTask, Runtime, RuntimeBuilder, TaskIdRange};
    pub use crate::shared::SharedGrid;
    pub use crate::significance::Significance;
    pub use crate::stats::OutcomeSummary;
    pub use crate::task::CancelToken;
    pub use crate::task::ExecutionMode;
    pub use crate::{spawn_batch, task, taskwait};
    pub use sig_energy::{FrequencyScale, SleepState, TransitionCost};
}
