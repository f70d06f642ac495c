//! # sig-cluster
//!
//! Cluster-scale simulation for the significance-aware runtime: many
//! runtimes, one energy budget.
//!
//! The single-node serving layer already answers "what gives under
//! overload?" — degrade first, shed lowest-significance first, never lose
//! silently. This crate asks the fleet-scale question: when N nodes share
//! **one watt budget**, who slows down, who degrades, and who sheds? The
//! answer keeps the same significance contract, now enforced by three
//! cooperating pieces inside a bit-deterministic discrete-event kernel:
//!
//! 1. **[`Node`]** — each simulated node owns a *real* `ExecutionEnv`
//!    (whose re-targetable dispatch cap is the node's frequency-cap
//!    actuator), governor, and admission controller, plus a
//!    utilization→watts curve pricing its modelled draw. Crashes bump an epoch, stop the power meter, and ledger
//!    in-flight work as lost — never silently.
//! 2. **[`ClusterDispatcher`]** — routes each request by significance, per-
//!    node load, and power state: critical work steers away from frequency-
//!    capped nodes, degraded work toward them ([`DispatchPolicy`]).
//! 3. **[`PowerCapController`]** — waterfills per-node busy-slot budgets so
//!    the fleet's worst-case modelled draw never exceeds the global cap,
//!    layers frequency caps on the power-restricted nodes, and responds to
//!    backlog with fleet-monotone degradation and a shed cutoff strictly
//!    below significance 1.0.
//!
//! [`ClusterSim::run`] drives one phase and returns a
//! [`ClusterPhaseReport`] whose books obey the fleet identity
//! `offered == completed + violations + shed + lost_to_crash` and whose
//! [`fingerprint`](ClusterPhaseReport::fingerprint) is byte-identical across
//! replays of the same seed.

#![warn(missing_docs)]

pub mod cap;
pub mod dispatch;
pub mod faults;
pub mod node;
pub mod report;
pub mod sim;

pub use cap::{CapConfig, ClusterAdmission, PowerCapController};
pub use dispatch::{ClusterDispatcher, DispatchPolicy, RouteCandidate};
pub use faults::{crash_storm, NodeFault, NodeFaultKind};
pub use node::Node;
pub use report::ClusterPhaseReport;
pub use sim::{default_node_model, ClusterConfig, ClusterSim};
