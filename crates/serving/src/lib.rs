//! # sig-serving
//!
//! Open-loop serving under overload for the significance-aware runtime.
//!
//! The PPoPP 2015 programming model prices computation by *significance*:
//! every task says how much its result matters, and the runtime trades
//! accuracy for time/energy accordingly. This crate carries that contract to
//! the serving boundary, where the load is **open-loop** — arrivals do not
//! wait for completions, so offered load can exceed capacity and something
//! must give. What gives, and in which order, is the point:
//!
//! 1. **Degrade first** — the [`AdmissionController`] re-admits requests at
//!    lower rungs of their own quality ladder (lower significance, less
//!    work) as pressure builds;
//! 2. **Shed last, lowest-significance first** — outright rejection starts
//!    only above the shed threshold, along a single rising significance
//!    cutoff, and never touches critical requests;
//! 3. **Never lose silently** — every offered request terminates in exactly
//!    one accounted bucket (`offered == completed + violated + shed`, the
//!    serving identity of [`ServingStats`]), with transient failures retried
//!    under jittered exponential backoff only while the deadline budget
//!    allows.
//!
//! Two drivers share those semantics: the live [`Server`] over a real
//! [`Runtime`](sig_core::Runtime) (per-request observation through
//! [`SpawnHandle`](sig_core::SpawnHandle)s, no barriers), and the
//! virtual-time [`Simulator`] whose seeded runs reproduce latency
//! percentiles and modelled joules bit-identically for CI gating. The rules
//! themselves — admit, attempt, finish or retry — are written once, in
//! [`lifecycle`], and `sig-cluster`'s fleet simulator runs the same ones.

#![warn(missing_docs)]

pub mod admission;
pub mod arrival;
pub mod lifecycle;
pub mod report;
pub mod request;
pub mod rng;
pub mod server;
pub mod sim;
pub mod sketch;

pub use admission::{AdmissionConfig, AdmissionController, AdmissionDecision};
pub use arrival::ArrivalPattern;
pub use lifecycle::{
    Attempt, EventQueue, Lifecycle, Request, RequestSlot, RequestTable, RetryVerdict,
};
pub use report::ServingStats;
pub use request::{QualityTier, RequestClass, RequestOutcome, RetryPolicy, ViolationKind};
pub use rng::SplitMix64;
pub use server::{RequestId, Server, ServerConfig};
pub use sim::{PhaseReport, SimConfig, Simulator};
pub use sketch::LatencySketch;
