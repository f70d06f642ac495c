//! One simulated node: a real `ExecutionEnv` + governor + admission
//! controller plus the discrete-event bookkeeping the cluster kernel drives.
//!
//! Nothing here is a mock. The node's governor makes real
//! [`DispatchDecision`](sig_core::DispatchDecision)s under the environment's
//! dispatch cap ([`ExecutionEnv::set_dispatch_cap`]), which the cluster's
//! power-cap controller re-targets, its [`AdmissionController`]
//! degrades-then-sheds with the same hysteresis as the single-node serving
//! layer, and its [`ExecutionEnv`] prices energy with the same seqlock shards
//! the live runtime uses — just fed synthetic virtual-time durations (the
//! governor-conformance-kit trick, fleet-wide).
//!
//! Crash semantics: a crash bumps the node's **epoch** (stale `Finish`
//! events are ignored), loses everything queued or running on the node to
//! the cluster's `lost_to_crash` ledger, and stops the up-time clock — the
//! energy report prices static/idle power only over up-time, so a dead node
//! draws nothing. A restart resets queue, workers, and admission state but
//! keeps the environment: its energy ledger is cumulative over the node's
//! lifetime, like a machine whose meter survives reboots.

use std::collections::VecDeque;
use std::sync::Arc;

use sig_core::{EnergyReport, EnvTotals, ExecutionEnv, Governor};
use sig_energy::{PowerModel, SleepState, TransitionCost, UtilizationPowerCurve};
use sig_serving::{AdmissionConfig, AdmissionController, RequestSlot, ServingStats};

use crate::dispatch::RouteCandidate;

/// One attempt currently executing on a node worker.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RunningAttempt {
    /// The request (phase-local) the attempt serves.
    pub request: RequestSlot,
    /// DVFS power factor of the attempt's dispatch decision — its weight in
    /// the node's effective busy-core count.
    pub power_factor: f64,
}

/// A simulated node (see module docs). Fields the event kernel mutates are
/// crate-private; tests and benches observe through the accessors.
pub struct Node {
    index: usize,
    workers: usize,
    env: ExecutionEnv,
    admission_config: AdmissionConfig,
    pub(crate) admission: AdmissionController,
    /// Node-local outcome book for the current phase. Outcomes are recorded
    /// on the node where the request *terminates*; `offered` is counted once
    /// at cluster ingress, so the fleet identity holds on the merged book.
    pub(crate) book: ServingStats,
    curve: UtilizationPowerCurve,
    pub(crate) up: bool,
    pub(crate) epoch: u64,
    pub(crate) ready: VecDeque<RequestSlot>,
    running: Vec<Option<RunningAttempt>>,
    pub(crate) free_workers: Vec<usize>,
    busy: usize,
    busy_effective: f64,
    allowed: usize,
    pub(crate) load_ewma: f64,
    up_nanos: u64,
    last_up_at: u64,
    /// Modelled watts at the last busy-set change (cached so the kernel can
    /// maintain the fleet total incrementally).
    pub(crate) cached_watts: f64,
    /// Cumulative busy nanoseconds handed to `env.record` — cross-checked
    /// against the environment's own ledger by the conformance harness.
    pub(crate) recorded_busy_nanos: u64,
}

impl Node {
    /// Build a node dispatching through `governor`, uncapped.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        index: usize,
        workers: usize,
        admission: AdmissionConfig,
        curve: UtilizationPowerCurve,
        model: PowerModel,
        governor: Arc<dyn Governor>,
        sleep: Option<SleepState>,
        transition_cost: TransitionCost,
    ) -> Self {
        assert!(workers > 0, "a node needs at least one worker");
        let env = ExecutionEnv::new(model, governor, sleep, transition_cost, workers);
        let idle_watts = curve.idle_floor(workers);
        Node {
            index,
            workers,
            env,
            admission_config: admission,
            admission: AdmissionController::new(admission),
            book: ServingStats::default(),
            curve,
            up: true,
            epoch: 0,
            ready: VecDeque::new(),
            running: vec![None; workers],
            free_workers: (0..workers).rev().collect(),
            busy: 0,
            busy_effective: 0.0,
            allowed: workers,
            load_ewma: 0.0,
            up_nanos: 0,
            last_up_at: 0,
            cached_watts: idle_watts,
            recorded_busy_nanos: 0,
        }
    }

    /// The node's index in the fleet.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Worker (core) count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Whether the node is up.
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Queued plus running requests — the load signal routing and admission
    /// key on.
    pub fn depth(&self) -> usize {
        self.ready.len() + self.busy
    }

    /// Workers currently executing an attempt.
    pub fn busy_count(&self) -> usize {
        self.busy
    }

    /// Busy-worker budget granted by the power-cap controller.
    pub fn allowed(&self) -> usize {
        self.allowed
    }

    /// Frequency-cap ratio the controller currently imposes (1.0 = none).
    pub fn freq_cap(&self) -> f64 {
        self.env.dispatch_cap()
    }

    /// The node's row of the kernel's route table, from scratch.
    pub(crate) fn route_candidate(&self) -> RouteCandidate {
        RouteCandidate {
            index: self.index,
            up: self.up,
            depth: self.depth(),
            load_ewma: self.load_ewma,
            allowed: self.allowed,
            freq_cap: self.freq_cap(),
        }
    }

    /// The node's utilization→power curve.
    pub fn curve(&self) -> &UtilizationPowerCurve {
        &self.curve
    }

    /// The node's admission controller (live state).
    pub fn admission(&self) -> &AdmissionController {
        &self.admission
    }

    /// The node's outcome book for the current phase.
    pub fn book(&self) -> &ServingStats {
        &self.book
    }

    /// Consistent fold of the node environment's cumulative counters.
    pub fn env_totals(&self) -> EnvTotals {
        self.env.totals()
    }

    /// Nominal active watts per core of the node's pricing model.
    pub fn nominal_active_watts(&self) -> f64 {
        self.env.model().active_watts_per_core
    }

    /// Cumulative busy nanoseconds the kernel recorded into the environment.
    pub fn recorded_busy_nanos(&self) -> u64 {
        self.recorded_busy_nanos
    }

    /// Seconds the node has been up, as of virtual time `now`.
    pub fn up_seconds(&self, now: u64) -> f64 {
        let nanos = self.up_nanos
            + if self.up {
                now.saturating_sub(self.last_up_at)
            } else {
                0
            };
        nanos as f64 * 1e-9
    }

    /// The node's cumulative energy report as of virtual time `now`: the
    /// real environment accounting integrated over the node's **up-time**
    /// (a crashed node burns nothing while down).
    pub fn energy_report(&self, now: u64) -> EnergyReport {
        self.env.report(self.up_seconds(now), self.workers)
    }

    /// Re-target the controller's verdict for this node: how many workers
    /// may be busy, and the frequency cap for non-critical dispatches.
    pub(crate) fn set_targets(&mut self, allowed: usize, freq_cap: f64) {
        self.allowed = allowed.min(self.workers);
        self.env.set_dispatch_cap(freq_cap);
    }

    /// Modelled node draw right now: zero while down, the power curve at the
    /// current (DVFS-weighted) busy set while up.
    pub(crate) fn watts(&self) -> f64 {
        if !self.up {
            return 0.0;
        }
        self.curve
            .watts(self.busy_effective.max(0.0), self.busy, self.workers)
    }

    /// The environment, for dispatch/record calls from the kernel.
    pub(crate) fn env(&self) -> &ExecutionEnv {
        &self.env
    }

    /// Mark `worker` busy with `attempt`.
    pub(crate) fn start_worker(&mut self, worker: usize, attempt: RunningAttempt) {
        debug_assert!(self.running[worker].is_none());
        self.busy += 1;
        self.busy_effective += attempt.power_factor;
        self.running[worker] = Some(attempt);
    }

    /// Mark `worker` free again, returning the attempt it ran.
    pub(crate) fn finish_worker(&mut self, worker: usize) -> RunningAttempt {
        let attempt = self.running[worker].take().expect("worker was not busy");
        self.busy -= 1;
        self.busy_effective -= attempt.power_factor;
        self.free_workers.push(worker);
        attempt
    }

    /// Crash the node at `now`: bump the epoch (in-flight `Finish` events
    /// become stale), stop the up-time clock, and return every request that
    /// was queued or running here — the caller ledgers them as
    /// lost-to-crash.
    pub(crate) fn crash(&mut self, now: u64) -> Vec<RequestSlot> {
        debug_assert!(self.up);
        self.up = false;
        self.epoch += 1;
        self.up_nanos += now.saturating_sub(self.last_up_at);
        let mut lost: Vec<RequestSlot> = self.ready.drain(..).collect();
        for slot in self.running.iter_mut() {
            if let Some(attempt) = slot.take() {
                lost.push(attempt.request);
            }
        }
        self.busy = 0;
        self.busy_effective = 0.0;
        self.free_workers.clear();
        self.free_workers.extend((0..self.workers).rev());
        self.load_ewma = 0.0;
        lost
    }

    /// Restart the node at `now`: fresh queue, workers, and admission state;
    /// the environment (cumulative energy ledger) and epoch survive.
    pub(crate) fn restart(&mut self, now: u64) {
        debug_assert!(!self.up);
        self.up = true;
        self.last_up_at = now;
        self.admission = AdmissionController::new(self.admission_config);
    }
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("index", &self.index)
            .field("up", &self.up)
            .field("depth", &self.depth())
            .field("allowed", &self.allowed)
            .field("freq_cap", &self.freq_cap())
            .finish()
    }
}
