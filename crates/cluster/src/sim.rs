//! The bit-deterministic multi-node discrete-event kernel.
//!
//! The event queue and the request lifecycle — admit, price an attempt,
//! finish late-or-completed, retry or give up on a fault — are
//! `sig_serving::lifecycle`'s, the single statement of those rules that the
//! serving simulator and the live server also run. This file adds what only
//! a fleet has — routing, the cap waterfill, crash epochs, the tick-driven
//! deadline sweep: every [`Node`] owns a real `ExecutionEnv` + governor +
//! admission controller, a route table routes each arrival, and a
//! [`PowerCapController`] re-targets per-node busy-slot budgets and
//! frequency caps on a control tick so the fleet's modelled draw never
//! exceeds the global cap.
//!
//! Everything is a pure function of `(config, classes, schedule, faults,
//! seed)`: no wall clock, no hash-map iteration, one `SplitMix64` for every
//! draw. Two runs with the same inputs produce byte-identical
//! [`ClusterPhaseReport::fingerprint`]s — at 4 nodes or 400.
//!
//! Arrivals are routed over a **route table**, one `RouteCandidate` row per
//! node, kept current instead of rebuilt per arrival: between ticks and
//! faults only the `depth` of the node an event touches moves (admission and
//! the `Finish` handler set it); `up`, `allowed`, `freq_cap` and `load_ewma`
//! move only in a `Tick`, a `Fault` and the phase-start re-waterfill, which
//! rewrite every row. Each write caches the row's load, the cost's one
//! division, so a route divides nothing. `ClusterDispatcher::route` over the
//! rows is the specification: debug builds check the table against a fresh
//! snapshot, and its route against that scan's, before every route.
//!
//! Power is integrated **exactly**: the fleet's modelled draw is piecewise
//! constant between events, so the kernel advances
//! `∫P dt` and `∫max(0, P − cap) dt` at every event boundary and refreshes
//! the cached per-node watts whenever a busy set changes. The cap guarantee
//! is therefore checked against the same ledger the controller budgets.

use std::sync::Arc;

use sig_core::{Governor, NominalGovernor, SignificanceCutoff};
use sig_energy::{
    BudgetConfig, BudgetController, EnergyBreakdown, EnergyReading, PowerModel, SleepState,
    TransitionCost, UtilizationPowerCurve,
};
use sig_serving::{
    AdmissionConfig, AdmissionDecision, EventQueue, Lifecycle, RequestClass, RequestOutcome,
    RequestSlot, RequestTable, RetryVerdict, ServingStats, ViolationKind,
};

use crate::cap::{CapConfig, PowerCapController};
use crate::dispatch::{DispatchPolicy, RouteTable};
use crate::faults::{NodeFault, NodeFaultKind};
use crate::node::{Node, RunningAttempt};
use crate::report::ClusterPhaseReport;

/// Smoothing factor for each node's routed-load EWMA (updated per control
/// tick).
const LOAD_EWMA_ALPHA: f64 = 0.3;

/// Tuning for a [`ClusterSim`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Fleet size.
    pub nodes: usize,
    /// Simulated workers (cores) per node.
    pub workers_per_node: usize,
    /// Tier-0 service time of an attempt, virtual nanoseconds.
    pub base_service_nanos: u64,
    /// Per-attempt transient-fault probability, per mille (a faulted
    /// attempt burns half its service time, then panics).
    pub panic_per_mille: u16,
    /// Seed for fault and backoff draws.
    pub seed: u64,
    /// Per-node admission tuning. The default raises the node-local shed
    /// knees well above the cluster controller's, so fleet-level shedding —
    /// monotone by construction — owns the shed decision and nodes mostly
    /// degrade.
    pub admission: AdmissionConfig,
    /// Global power-cap controller tuning.
    pub cap: CapConfig,
    /// Routing policy.
    pub policy: DispatchPolicy,
    /// Per-node power model (prices each node's `ExecutionEnv`).
    pub node_model: PowerModel,
    /// Per-node utilization→watts curve (prices the cap ledger).
    pub curve: UtilizationPowerCurve,
    /// Sleep state race-to-idle residency is priced at.
    pub sleep: Option<SleepState>,
    /// Cost per frequency-domain switch.
    pub transition_cost: TransitionCost,
    /// Optional fleet-wide energy budget. When set, a [`BudgetController`]
    /// samples the summed per-node energy ledgers at every control tick and
    /// drives [`PowerCapController::set_cap_watts`] with its planned
    /// sustainable rate — the global watt cap becomes the budget loop's
    /// actuator instead of a fixed input. The configured `cap.cap_watts`
    /// stays in force as a ceiling the budget can only tighten.
    pub budget: Option<BudgetConfig>,
}

/// The default per-node power model: a small 2-core node.
fn default_node_model(workers: usize) -> PowerModel {
    PowerModel {
        sockets: 1,
        cores_per_socket: workers,
        static_watts_per_socket: 2.0,
        active_watts_per_core: 6.6,
        idle_watts_per_core: 0.5,
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        let workers = 2;
        let node_model = default_node_model(workers);
        ClusterConfig {
            nodes: 4,
            workers_per_node: workers,
            base_service_nanos: 1_000_000, // 1 ms
            panic_per_mille: 0,
            seed: 42,
            admission: AdmissionConfig {
                queue_watermark: 8 * workers,
                cutoff: SignificanceCutoff {
                    shed_start: 3.0,
                    shed_full: 6.0,
                    ..AdmissionConfig::default().cutoff
                },
                ..AdmissionConfig::default()
            },
            cap: CapConfig::default(),
            policy: DispatchPolicy::SignificanceAware,
            node_model,
            curve: UtilizationPowerCurve::linear(node_model),
            sleep: None,
            transition_cost: TransitionCost::free(),
            budget: None,
        }
    }
}

enum EventKind {
    Arrival {
        class: usize,
    },
    Finish {
        node: usize,
        worker: usize,
        epoch: u64,
        request: RequestSlot,
        busy_nanos: u64,
        panicked: bool,
    },
    Retry {
        request: RequestSlot,
    },
    Tick,
    Fault {
        node: usize,
        kind: NodeFaultKind,
    },
}

/// Per-phase mutable state, kept off `ClusterSim` so the borrow checker
/// lets event handlers touch nodes and phase books independently.
struct Phase<'t> {
    /// Slots are released where a request is ledgered ([`RequestTable`] has
    /// why that is safe). A `Retry` never outlives its request: while backing
    /// off it sits at the client, out of reach of crashes and the sweep.
    requests: RequestTable,
    events: EventQueue<'t, EventKind>,
    /// The cluster's own book: all `offered`, plus ingress sheds.
    cluster_book: ServingStats,
    lost_to_crash: u64,
    lost_by_class: Vec<u64>,
    outstanding: usize,
    arrivals_remaining: usize,
    max_shed_significance: f64,
    accurate_scaled: u64,
}

/// The multi-node discrete-event simulator (see module docs). Successive
/// [`ClusterSim::run`] calls share node, controller, and energy state: a
/// pre-storm / storm / post-storm sequence is three calls on one simulator.
pub struct ClusterSim {
    config: ClusterConfig,
    lifecycle: Lifecycle,
    nodes: Vec<Node>,
    cap: PowerCapController,
    now: u64,
    /// The route table (see module docs): row `n` is node `n`'s
    /// [`Node::route_candidate`], at every routing decision.
    routes: RouteTable,
    /// Scratch of the deadline sweep.
    expired: Vec<RequestSlot>,
    // Exact piecewise-constant power integration (cumulative).
    fleet_watts: f64,
    last_power_at: u64,
    power_integral_joules: f64,
    violation_joules: f64,
    // Phase watermarks for the cumulative ledgers.
    consumed_env_joules: f64,
    consumed_power_integral: f64,
    consumed_violation: f64,
    // Fleet-wide energy-budget loop (see `ClusterConfig::budget`).
    budget: Option<BudgetController>,
    /// The build-time watt cap: a ceiling the budget loop never exceeds.
    configured_cap_watts: f64,
}

impl ClusterSim {
    /// A simulator whose nodes all run a [`NominalGovernor`] (all energy
    /// differentiation comes from routing and the cap controller).
    pub fn new(config: ClusterConfig, classes: Vec<RequestClass>) -> Self {
        Self::with_governors(config, classes, |_| Arc::new(NominalGovernor))
    }

    /// A simulator with a per-node governor chosen by `factory`
    /// (called with each node index) — how the cluster conformance harness
    /// puts every existing governor inside a node.
    pub fn with_governors(
        config: ClusterConfig,
        classes: Vec<RequestClass>,
        factory: impl Fn(usize) -> Arc<dyn Governor>,
    ) -> Self {
        assert!(config.nodes > 0, "a cluster needs at least one node");
        assert!(config.workers_per_node > 0);
        assert!(config.base_service_nanos > 0);
        let nodes: Vec<Node> = (0..config.nodes)
            .map(|index| {
                Node::new(
                    index,
                    config.workers_per_node,
                    config.admission,
                    config.curve,
                    config.node_model,
                    factory(index),
                    config.sleep,
                    config.transition_cost,
                )
            })
            .collect();
        let fleet_watts = nodes.iter().map(|n| n.watts()).sum();
        let budget = config.budget.map(BudgetController::new);
        let configured_cap_watts = config.cap.cap_watts;
        let routes = RouteTable::new(
            config.policy,
            classes.iter().map(RequestClass::significance),
        );
        let mut sim = ClusterSim {
            routes,
            cap: PowerCapController::new(config.cap),
            lifecycle: Lifecycle::new(
                classes,
                config.base_service_nanos,
                config.seed ^ 0xc105_7e2d_15b4_7c11,
            ),
            nodes,
            config,
            now: 0,
            expired: Vec::new(),
            fleet_watts,
            last_power_at: 0,
            power_integral_joules: 0.0,
            violation_joules: 0.0,
            consumed_env_joules: 0.0,
            consumed_power_integral: 0.0,
            consumed_violation: 0.0,
            budget,
            configured_cap_watts,
        };
        sim.cap.retarget(&mut sim.nodes);
        sim
    }

    /// The fleet (read-only; for tests and benches).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The power-cap controller's live state.
    pub fn cap_controller(&self) -> &PowerCapController {
        &self.cap
    }

    /// Virtual now, nanoseconds since simulator construction.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The summed per-node cumulative energy reading at virtual time `at`.
    /// This is the exact ledger the budget loop observes — crash/restart
    /// safe, because each node's `ExecutionEnv` ledger survives restarts.
    /// `joules` is the sum of the node joules, which the budget loop
    /// observes bit for bit, and the breakdown the component-wise sum of the
    /// node breakdowns, so the two agree up to rounding.
    pub fn fleet_reading(&self, at: u64) -> EnergyReading {
        let wall = at as f64 * 1e-9;
        let mut joules = 0.0;
        let mut busy = 0.0;
        let mut breakdown = EnergyBreakdown::default();
        for node in &self.nodes {
            let reading = node.energy_report(at).reading();
            joules += reading.joules;
            busy += reading.busy_core_seconds;
            breakdown.static_joules += reading.breakdown.static_joules;
            breakdown.dynamic_joules += reading.breakdown.dynamic_joules;
            breakdown.idle_joules += reading.breakdown.idle_joules;
            breakdown.transition_joules += reading.breakdown.transition_joules;
        }
        EnergyReading {
            wall_seconds: wall,
            busy_core_seconds: busy,
            joules,
            average_watts: if wall > 0.0 { joules / wall } else { 0.0 },
            breakdown,
        }
    }

    /// The fleet-wide budget controller, if a budget is configured. Its
    /// spend always equals the summed per-node reading at its last
    /// observation — the cross-tier accounting identity: re-reading
    /// [`ClusterSim::fleet_reading`] at that instant reproduces the
    /// observed joules bit for bit, crashes included.
    pub fn budget(&self) -> Option<&BudgetController> {
        self.budget.as_ref()
    }

    /// Feed the budget loop one observation at virtual time `at` and drive
    /// the watt-cap actuator. No-op without a configured budget.
    fn budget_tick(&mut self, at: u64) {
        if self.budget.is_none() {
            return;
        }
        let reading = self.fleet_reading(at);
        let controller = self.budget.as_mut().expect("checked above");
        let setpoint = controller.observe(at as f64 * 1e-9, &reading);
        // The budget only ever tightens the configured cap; a generous
        // plan never uncaps a fleet built with a hard watt limit.
        let cap = setpoint.watt_cap.min(self.configured_cap_watts);
        if cap.is_finite() || self.configured_cap_watts.is_finite() {
            self.cap.set_cap_watts(cap.max(1e-9));
        }
    }

    /// Advance the exact power integrals to virtual time `at`.
    fn advance_power(&mut self, at: u64) {
        let now = self.now.max(at);
        if now > self.last_power_at {
            let dt = (now - self.last_power_at) as f64 * 1e-9;
            self.power_integral_joules += self.fleet_watts * dt;
            let over = self.fleet_watts - self.cap.config().cap_watts;
            if over > 0.0 {
                self.violation_joules += over * dt;
            }
            self.last_power_at = now;
        }
        self.now = now;
    }

    /// Refresh node `n`'s cached watts and the fleet total after its busy
    /// set (or up state) changed. Call **after** `advance_power`.
    fn refresh_watts(&mut self, n: usize) {
        let watts = self.nodes[n].watts();
        self.fleet_watts += watts - self.nodes[n].cached_watts;
        self.nodes[n].cached_watts = watts;
    }

    /// Rewrite every row of the route table from the fleet.
    fn refresh_routes(&mut self) {
        self.routes
            .refresh(self.nodes.iter().map(Node::route_candidate));
    }

    /// Re-waterfill the cap over the fleet as it stands, then the route
    /// table over the new targets.
    fn retarget(&mut self) {
        self.cap.retarget(&mut self.nodes);
        self.refresh_routes();
    }

    /// Run one phase: `schedule` pairs `(arrival offset from phase start,
    /// class index)`, replayed in ascending offset order straight from the
    /// slice (the event queue walks it; nothing is copied unless it arrives
    /// out of order), `faults` node up/down events at phase offsets. Returns
    /// when every offered request of the phase is terminal. Node,
    /// controller, and energy state carry over to the next phase.
    pub fn run(&mut self, schedule: &[(u64, usize)], faults: &[NodeFault]) -> ClusterPhaseReport {
        let phase_start = self.now;
        for node in &mut self.nodes {
            node.book = ServingStats::default();
        }
        let mut phase = Phase {
            requests: RequestTable::default(),
            // Pushed events: a finish per busy worker, the faults, the tick,
            // and the retries backing off.
            events: EventQueue::over(
                schedule,
                phase_start,
                |class| EventKind::Arrival { class },
                self.nodes.len() * self.config.workers_per_node + faults.len() + 16,
            ),
            cluster_book: ServingStats::default(),
            lost_to_crash: 0,
            lost_by_class: vec![0; self.lifecycle.classes().len()],
            outstanding: 0,
            arrivals_remaining: schedule.len(),
            max_shed_significance: -1.0,
            accurate_scaled: 0,
        };
        for fault in faults {
            phase.events.push(
                phase_start.saturating_add(fault.at_offset),
                EventKind::Fault {
                    node: fault.node,
                    kind: fault.kind,
                },
            );
        }
        let tick = self.cap.config().tick_nanos;
        phase
            .events
            .push(phase_start.saturating_add(tick), EventKind::Tick);
        self.retarget();

        while let Some((event_at, kind)) = phase.events.pop() {
            self.advance_power(event_at);
            let at = self.now;
            match kind {
                EventKind::Arrival { class } => {
                    phase.arrivals_remaining -= 1;
                    phase.cluster_book.offered += 1;
                    phase.cluster_book.note_offered_class(class);
                    self.admit_and_route(&mut phase, None, class, at);
                }
                EventKind::Finish {
                    node,
                    worker,
                    epoch,
                    request,
                    busy_nanos,
                    panicked,
                } => {
                    if self.nodes[node].epoch != epoch {
                        // Stale: the node crashed under this attempt and the
                        // crash handler already ledgered the request, freed
                        // its slot and reset the workers.
                        continue;
                    }
                    self.nodes[node].finish_worker(worker);
                    self.refresh_watts(node);
                    let life = &phase.requests[request];
                    let admission = &mut self.nodes[node].admission;
                    let outcome = if panicked {
                        match self.lifecycle.resolve_fault(life, at, admission) {
                            // The retry re-enters *cluster* dispatch at
                            // resume time: it may be re-routed to a healthier
                            // node (the request is "at the client" while
                            // backing off — a node crash does not lose it).
                            RetryVerdict::Retry { resume } => {
                                phase.events.push(resume, EventKind::Retry { request });
                                None
                            }
                            RetryVerdict::Exhausted(kind) => Some(RequestOutcome::Violated(kind)),
                        }
                    } else {
                        Some(life.finish(at, busy_nanos, admission))
                    };
                    if let Some(outcome) = outcome {
                        Self::finalize_on_node(&mut self.nodes[node], &mut phase, request, outcome);
                    }
                    self.start_attempts(&mut phase, node);
                    self.routes.set_depth(node, self.nodes[node].depth());
                }
                EventKind::Retry { request } => {
                    let class = phase.requests[request].class;
                    self.admit_and_route(&mut phase, Some(request), class, at);
                }
                EventKind::Tick => {
                    self.budget_tick(at);
                    self.cap.observe(&self.nodes);
                    self.cap.retarget(&mut self.nodes);
                    self.expire_queued(&mut phase, at);
                    for n in 0..self.nodes.len() {
                        let depth = self.nodes[n].depth() as f64;
                        let node = &mut self.nodes[n];
                        node.load_ewma += LOAD_EWMA_ALPHA * (depth - node.load_ewma);
                        if node.is_up() {
                            self.start_attempts(&mut phase, n);
                        }
                    }
                    if phase.outstanding > 0 || phase.arrivals_remaining > 0 {
                        phase.events.push(at.saturating_add(tick), EventKind::Tick);
                    }
                    self.refresh_routes();
                }
                EventKind::Fault { node, kind } => match kind {
                    NodeFaultKind::Down => {
                        if self.nodes[node].is_up() {
                            let lost = self.nodes[node].crash(at);
                            self.refresh_watts(node);
                            for request in lost {
                                phase.lost_to_crash += 1;
                                phase.lost_by_class[phase.requests[request].class] += 1;
                                phase.requests.release(request);
                                phase.outstanding -= 1;
                            }
                            self.retarget();
                        }
                    }
                    NodeFaultKind::Up => {
                        if !self.nodes[node].is_up() {
                            self.nodes[node].restart(at);
                            self.refresh_watts(node);
                            self.retarget();
                        }
                    }
                },
            }
        }

        let wall_nanos = self.now - phase_start;
        let total_env_joules: f64 = self
            .nodes
            .iter()
            .map(|node| node.energy_report(self.now).reading().joules)
            .sum();
        let joules = total_env_joules - self.consumed_env_joules;
        self.consumed_env_joules = total_env_joules;
        let power_integral_joules = self.power_integral_joules - self.consumed_power_integral;
        self.consumed_power_integral = self.power_integral_joules;
        let violation_joules = self.violation_joules - self.consumed_violation;
        self.consumed_violation = self.violation_joules;

        let mut stats = phase.cluster_book;
        for node in &self.nodes {
            stats.merge(&node.book);
        }
        ClusterPhaseReport {
            stats,
            lost_to_crash: phase.lost_to_crash,
            lost_by_class: phase.lost_by_class,
            joules,
            power_integral_joules,
            violation_joules,
            wall_nanos,
            max_shed_significance: phase.max_shed_significance,
            accurate_scaled: phase.accurate_scaled,
        }
    }

    /// Cluster-admit and route one request — a fresh arrival
    /// (`existing == None`) or a retrying one.
    fn admit_and_route(
        &mut self,
        phase: &mut Phase,
        existing: Option<RequestSlot>,
        class: usize,
        at: u64,
    ) {
        let spec = &self.lifecycle.classes()[class];
        let significance = spec.significance();
        let ladder = spec.tiers.len();
        let min_tier = match self.cap.admit(significance, ladder) {
            AdmissionDecision::Shed => {
                phase.cluster_book.record(&RequestOutcome::Shed);
                phase.cluster_book.note_shed_class(class);
                phase.max_shed_significance = phase.max_shed_significance.max(significance);
                if let Some(request) = existing {
                    if phase.requests[request].downgraded {
                        phase.cluster_book.downgraded += 1;
                    }
                    phase.requests.release(request);
                    phase.outstanding -= 1;
                }
                return;
            }
            AdmissionDecision::Admit { tier } => tier,
        };
        debug_assert!(
            self.nodes
                .iter()
                .map(Node::route_candidate)
                .eq(self.routes.rows().iter().copied()),
            "the maintained route table drifted from the fleet"
        );
        let Some(n) = self.routes.route(class) else {
            // No node is up: the request is lost to the outage, not shed —
            // shedding is a *decision*, this is an accounted loss.
            if let Some(request) = existing {
                phase.requests.release(request);
                phase.outstanding -= 1;
            }
            phase.lost_to_crash += 1;
            phase.lost_by_class[class] += 1;
            return;
        };
        debug_assert!(self.nodes[n].is_up(), "routed to a down node");
        let depth = self.nodes[n].depth();
        match self.nodes[n].admission.decide(spec, depth) {
            AdmissionDecision::Shed => {
                self.nodes[n].book.record(&RequestOutcome::Shed);
                self.nodes[n].book.note_shed_class(class);
                phase.max_shed_significance = phase.max_shed_significance.max(significance);
                if let Some(request) = existing {
                    if phase.requests[request].downgraded {
                        self.nodes[n].book.downgraded += 1;
                    }
                    phase.requests.release(request);
                    phase.outstanding -= 1;
                }
            }
            AdmissionDecision::Admit { tier } => {
                // The fleet-forced ladder floor applies on top of the
                // node's own verdict.
                let tier = tier.max(min_tier);
                let request = match existing {
                    Some(request) => {
                        self.lifecycle.readmit(&mut phase.requests[request], tier);
                        request
                    }
                    None => {
                        phase.outstanding += 1;
                        phase.requests.insert(self.lifecycle.admit(class, at, tier))
                    }
                };
                self.nodes[n].ready.push_back(request);
                self.start_attempts(phase, n);
                self.routes.set_depth(n, self.nodes[n].depth());
            }
        }
    }

    /// Start attempts on node `n` while it has ready work, free workers,
    /// and busy-slot budget.
    fn start_attempts(&mut self, phase: &mut Phase, n: usize) {
        let at = self.now;
        let mut busy_set_changed = false;
        while self.nodes[n].is_up()
            && self.nodes[n].busy_count() < self.nodes[n].allowed()
            && !self.nodes[n].ready.is_empty()
        {
            let request = self.nodes[n].ready.pop_front().unwrap();
            let worker = self.nodes[n].free_workers.pop().unwrap();
            let life = &mut phase.requests[request];
            let attempt = self.lifecycle.start_attempt(
                life,
                self.nodes[n].env(),
                worker,
                at,
                self.config.panic_per_mille,
            );
            if life.tier == 0 && !attempt.decision.scale().is_nominal() {
                phase.accurate_scaled += 1;
            }
            self.nodes[n].recorded_busy_nanos += attempt.busy_nanos;
            self.nodes[n].start_worker(
                worker,
                RunningAttempt {
                    request,
                    power_factor: attempt.decision.scale().power_factor(),
                },
            );
            busy_set_changed = true;
            phase.events.push(
                at.saturating_add(attempt.wall_nanos),
                EventKind::Finish {
                    node: n,
                    worker,
                    epoch: self.nodes[n].epoch,
                    request,
                    busy_nanos: attempt.busy_nanos,
                    panicked: attempt.panicked,
                },
            );
        }
        if busy_set_changed {
            self.refresh_watts(n);
        }
    }

    /// Expire queued requests whose deadline has already passed (finalised
    /// as `Late` on the holding node's book). Runs on every control tick:
    /// this is the liveness backstop that keeps a phase terminating even
    /// when an infeasible cap pins a node's busy-slot budget at zero — the
    /// queue drains through the deadline sweep instead of never.
    fn expire_queued(&mut self, phase: &mut Phase, at: u64) {
        for node in &mut self.nodes {
            let requests = &phase.requests;
            node.ready.retain(|&request| {
                let live = requests[request].deadline > at;
                if !live {
                    self.expired.push(request);
                }
                live
            });
            for request in self.expired.drain(..) {
                let late = RequestOutcome::Violated(ViolationKind::Late);
                Self::finalize_on_node(node, phase, request, late);
            }
        }
    }

    /// Record a terminal outcome on `node`'s book and close the request.
    fn finalize_on_node(
        node: &mut Node,
        phase: &mut Phase,
        request: RequestSlot,
        outcome: RequestOutcome,
    ) {
        node.book.record(&outcome);
        if phase.requests[request].downgraded {
            node.book.downgraded += 1;
        }
        phase.requests.release(request);
        phase.outstanding -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::crash_storm;
    use sig_serving::{QualityTier, RetryPolicy};
    use std::time::Duration;

    fn ladder_class(name: &str, significance: f64) -> RequestClass {
        RequestClass {
            name: name.into(),
            tiers: vec![
                QualityTier {
                    significance,
                    work_factor: 1.0,
                },
                QualityTier {
                    significance: significance * 0.6,
                    work_factor: 0.5,
                },
                QualityTier {
                    significance: significance * 0.3,
                    work_factor: 0.25,
                },
            ],
            deadline: Duration::from_millis(20),
            retry: RetryPolicy {
                max_retries: 2,
                base_backoff: Duration::from_micros(100),
                jitter: 0.5,
            },
        }
    }

    fn classes() -> Vec<RequestClass> {
        vec![
            RequestClass::exact(
                "critical",
                1.0,
                Duration::from_millis(20),
                RetryPolicy {
                    max_retries: 2,
                    base_backoff: Duration::from_micros(100),
                    jitter: 0.5,
                },
            ),
            ladder_class("standard", 0.7),
            ladder_class("background", 0.3),
        ]
    }

    /// `count` arrivals at a fixed spacing, round-robined over the classes.
    fn schedule(count: usize, spacing: u64, classes: usize) -> Vec<(u64, usize)> {
        (0..count)
            .map(|i| (i as u64 * spacing, i % classes))
            .collect()
    }

    #[test]
    fn light_load_completes_everything() {
        let config = ClusterConfig::default();
        let mut sim = ClusterSim::new(config, classes());
        // 4 nodes × 2 workers at 1 ms service: 8 req/ms capacity; offer
        // one request every 250 µs — far below capacity.
        let report = sim.run(&schedule(200, 250_000, 3), &[]);
        assert!(report.balanced(), "fleet identity must hold");
        assert_eq!(report.stats.offered, 200);
        assert_eq!(report.stats.completed, 200);
        assert_eq!(report.stats.shed, 0);
        assert_eq!(report.lost_to_crash, 0);
        assert_eq!(report.violation_joules, 0.0, "uncapped: no violation");
        assert!(report.joules > 0.0, "real environments price real energy");
        assert!(report.power_integral_joules > 0.0);
        assert_eq!(report.accurate_scaled, 0);
    }

    #[test]
    fn tight_cap_holds_and_sheds_monotonically() {
        let mut config = ClusterConfig::default();
        // Fleet idle floor 4 × 3.0 W = 12 W; full draw 4 × 15.2 W = 60.8 W.
        // 25 W affords the floor plus two busy slots (6.1 W marginal each).
        config.cap.cap_watts = 25.0;
        let mut sim = ClusterSim::new(config, classes());
        // Overload: 2 granted slots serve ~2 req/ms; offer 5/ms.
        let report = sim.run(&schedule(2_000, 200_000, 3), &[]);
        assert!(report.balanced());
        assert_eq!(
            report.violation_joules, 0.0,
            "a feasible cap must hold at every instant"
        );
        assert!(
            report.average_watts() <= 25.0,
            "mean draw {} exceeds the cap",
            report.average_watts()
        );
        assert!(
            report.max_shed_significance < 1.0,
            "critical work is never shed"
        );
        // Overload at 2.5× granted capacity must shed or violate something.
        assert!(report.stats.completed < report.stats.offered);
        // Shedding is a significance-axis prefix: background sheds at least
        // as hard as standard, standard at least as hard as critical.
        let shed = |class: usize| report.stats.shed_fraction(class);
        assert!(shed(2) >= shed(1));
        assert!(shed(1) >= shed(0));
        assert_eq!(
            report.stats.shed_by_class[0], 0,
            "significance-1.0 requests are never shed"
        );
    }

    #[test]
    fn crash_storm_loses_work_but_books_balance() {
        let config = ClusterConfig {
            nodes: 6,
            panic_per_mille: 50,
            ..ClusterConfig::default()
        };
        let mut sim = ClusterSim::new(config, classes());
        let faults = crash_storm(9, 6, 0.3, 5_000_000, 30_000_000);
        let report = sim.run(&schedule(1_000, 100_000, 3), &faults);
        assert!(report.balanced(), "losses must be ledgered, not leaked");
        assert!(report.lost_to_crash > 0, "a storm at 2× load loses work");
        assert_eq!(
            report.lost_by_class.iter().sum::<u64>(),
            report.lost_to_crash
        );
    }

    #[test]
    fn same_seed_replays_bit_identically() {
        let run = || {
            let mut config = ClusterConfig {
                panic_per_mille: 20,
                ..ClusterConfig::default()
            };
            config.cap.cap_watts = 25.0;
            let mut sim = ClusterSim::new(config, classes());
            let faults = crash_storm(3, 4, 0.3, 2_000_000, 10_000_000);
            sim.run(&schedule(500, 150_000, 3), &faults).fingerprint()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn phases_carry_energy_and_clock_forward() {
        let mut sim = ClusterSim::new(ClusterConfig::default(), classes());
        let first = sim.run(&schedule(50, 250_000, 3), &[]);
        let clock = sim.now();
        let second = sim.run(&schedule(50, 250_000, 3), &[]);
        assert!(sim.now() > clock, "virtual time is monotone across phases");
        assert!(first.joules > 0.0 && second.joules > 0.0);
        assert!(first.balanced() && second.balanced());
        assert_eq!(second.stats.completed, 50, "phase books reset");
    }
}
