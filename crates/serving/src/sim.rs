//! Deterministic virtual-time serving simulator.
//!
//! The live [`Server`](crate::server::Server) measures real wall-clock
//! latency, which no CI gate can pin down. The simulator replays the *same*
//! serving semantics — open-loop arrivals, admission control with
//! downgrade-before-shed, retry budgets, per-attempt faults; the rules are
//! [`crate::lifecycle`]'s, shared with the server, not restated here — as a
//! discrete-event model over **virtual nanoseconds**: `W` simulated workers,
//! a FIFO ready queue, deterministic service times (`base_service ×
//! work_factor`, dilated by the governor's frequency decision), and seeded
//! fault/backoff draws. Same seed, same config ⇒ bit-identical scoreboard,
//! tail percentiles, and joules, on any machine.
//!
//! Energy flows through the real [`ExecutionEnv`] — the governor under test
//! makes its actual dispatch decisions and the affine power model prices
//! them — so the simulator compares energy strategies with the same
//! accounting the runtime uses, just driven by synthetic durations (the same
//! trick as the governor conformance kit).
//!
//! Successive [`Simulator::run`] calls share controller, governor, and
//! energy state: a pre-storm / storm / post-storm sequence is three calls on
//! one simulator, each returning its own [`PhaseReport`].

use std::collections::VecDeque;

use sig_core::{BudgetConfig, BudgetController, BudgetTarget, ExecutionEnv};

use crate::admission::{AdmissionConfig, AdmissionController, AdmissionDecision};
use crate::lifecycle::{EventQueue, Lifecycle, RequestSlot, RequestTable, RetryVerdict};
use crate::report::ServingStats;
use crate::request::{RequestClass, RequestOutcome};

/// Tuning for a [`Simulator`].
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Simulated worker count (must match the [`ExecutionEnv`] shard count).
    pub workers: usize,
    /// Tier-0 service time of an attempt, virtual nanoseconds.
    pub base_service_nanos: u64,
    /// Per-attempt transient-fault probability, per mille (the simulated
    /// fault plan: a faulted attempt consumes half its service time, then
    /// panics).
    pub panic_per_mille: u16,
    /// Seed for fault and backoff-jitter draws.
    pub seed: u64,
    /// Admission-control tuning.
    pub admission: AdmissionConfig,
    /// Online energy budget (default: none). The controller samples the
    /// environment's cumulative reading on a virtual-time cadence; its
    /// austerity composes with admission pressure
    /// ([`AdmissionController::set_budget_pressure`]) and its frequency cap
    /// throttles approximate attempts via the environment's dispatch-cap
    /// hook. Purely virtual-time driven, so replays stay bit-deterministic.
    pub budget: Option<BudgetConfig>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            workers: 4,
            base_service_nanos: 1_000_000, // 1 ms
            panic_per_mille: 0,
            seed: 42,
            admission: AdmissionConfig::default(),
            budget: None,
        }
    }
}

/// The scoreboard and energy bill of one [`Simulator::run`] phase.
#[derive(Debug)]
pub struct PhaseReport {
    /// Request accounting for the phase (its identity must hold).
    pub stats: ServingStats,
    /// Modelled joules consumed during the phase (static + dynamic, priced
    /// by the environment's power model over the phase's virtual span).
    pub joules: f64,
    /// Virtual span of the phase, nanoseconds.
    pub wall_nanos: u64,
}

impl PhaseReport {
    /// Modelled joules per completed request (`inf` if energy was spent and
    /// nothing completed).
    pub fn joules_per_completed(&self) -> f64 {
        if self.stats.completed == 0 {
            if self.joules == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.joules / self.stats.completed as f64
        }
    }
}

enum EventKind {
    Arrival {
        class: usize,
    },
    Finish {
        worker: usize,
        request: RequestSlot,
        busy_nanos: u64,
        panicked: bool,
    },
    Retry {
        request: RequestSlot,
    },
}

/// Per-phase state of one [`Simulator::run`].
struct Phase<'t> {
    stats: ServingStats,
    requests: RequestTable,
    events: EventQueue<'t, EventKind>,
    ready: VecDeque<RequestSlot>,
    free_workers: Vec<usize>,
    in_flight: usize,
}

impl Phase<'_> {
    /// Book the terminal `outcome` of an admitted request and free its slot.
    /// Only reached from the `Finish` or `Retry` event that held the last
    /// reference to `request` (see [`RequestTable`]).
    fn close(&mut self, request: RequestSlot, outcome: RequestOutcome) {
        self.stats.record(&outcome);
        if self.requests[request].downgraded {
            self.stats.downgraded += 1;
        }
        self.requests.release(request);
        self.in_flight -= 1;
    }
}

/// Discrete-event serving model (see module docs).
pub struct Simulator {
    config: SimConfig,
    lifecycle: Lifecycle,
    env: ExecutionEnv,
    admission: AdmissionController,
    /// Virtual now, carried across phases.
    now: u64,
    /// Joules watermark at the end of the previous phase.
    consumed_joules: f64,
    /// Energy-budget loop, if configured: controller plus its virtual-time
    /// sampling cadence (carried across phases, like the controller state).
    budget: Option<BudgetController>,
    budget_interval_nanos: u64,
    next_budget_nanos: u64,
}

impl Simulator {
    /// A simulator over `classes`, pricing energy through `env` (which must
    /// have been built with `config.workers` shards and the governor under
    /// test).
    pub fn new(config: SimConfig, classes: Vec<RequestClass>, env: ExecutionEnv) -> Self {
        assert!(config.workers > 0);
        assert!(config.base_service_nanos > 0);
        let budget = config.budget.map(BudgetController::new);
        // Budget sampling cadence in virtual time: ~1/200th of a joule
        // budget's horizon, 1 ms for open-ended watt envelopes.
        let budget_interval_nanos = match config.budget.map(|b| b.target) {
            Some(BudgetTarget::TotalJoules {
                horizon_seconds, ..
            }) => ((horizon_seconds / 200.0).clamp(10e-6, 50e-3) * 1e9) as u64,
            Some(BudgetTarget::WattEnvelope { .. }) => 1_000_000,
            None => u64::MAX,
        };
        Simulator {
            admission: AdmissionController::new(config.admission),
            lifecycle: Lifecycle::new(
                classes,
                config.base_service_nanos,
                config.seed ^ 0x51e7_ab1e_0dd5_ca1e,
            ),
            config,
            env,
            now: 0,
            consumed_joules: 0.0,
            budget,
            budget_interval_nanos,
            next_budget_nanos: 0,
        }
    }

    /// Sample the budget controller if its virtual-time cadence is due, and
    /// push the setpoint into both actuators (admission pressure and the
    /// environment's approximate-dispatch frequency cap).
    fn budget_tick(&mut self, at: u64) {
        let Some(controller) = self.budget.as_mut() else {
            return;
        };
        if at < self.next_budget_nanos {
            return;
        }
        self.next_budget_nanos = at.saturating_add(self.budget_interval_nanos);
        let wall = at as f64 * 1e-9;
        let reading = self.env.report(wall, self.config.workers).reading();
        let setpoint = controller.observe(wall, &reading);
        self.admission.set_budget_pressure(setpoint.austerity);
        self.env.set_dispatch_cap(setpoint.frequency_cap);
    }

    /// Run one phase: `schedule` pairs `(arrival offset from phase start,
    /// class index)`, replayed in ascending offset order straight from the
    /// slice — the event queue walks it, nothing is copied unless it arrives
    /// out of order. Returns when every offered request of the phase is
    /// terminal. Controller, governor, and energy state carry over to the
    /// next phase.
    pub fn run(&mut self, schedule: &[(u64, usize)]) -> PhaseReport {
        let phase_start = self.now;
        let mut phase = Phase {
            stats: ServingStats::default(),
            requests: RequestTable::default(),
            // Pushed events are finishes (one a busy worker) and retries.
            events: EventQueue::over(
                schedule,
                phase_start,
                |class| EventKind::Arrival { class },
                2 * self.config.workers,
            ),
            ready: VecDeque::new(),
            free_workers: (0..self.config.workers).rev().collect(),
            in_flight: 0,
        };

        while let Some((at, kind)) = phase.events.pop() {
            self.now = self.now.max(at);
            self.budget_tick(at);
            match kind {
                EventKind::Arrival { class } => {
                    phase.stats.offered += 1;
                    phase.stats.note_offered_class(class);
                    self.admit(&mut phase, None, class, at);
                }
                EventKind::Finish {
                    worker,
                    request,
                    busy_nanos,
                    panicked,
                } => {
                    phase.free_workers.push(worker);
                    let req = &phase.requests[request];
                    if panicked {
                        match self.lifecycle.resolve_fault(req, at, &mut self.admission) {
                            RetryVerdict::Retry { resume } => {
                                phase.events.push(resume, EventKind::Retry { request });
                            }
                            RetryVerdict::Exhausted(kind) => {
                                phase.close(request, RequestOutcome::Violated(kind));
                            }
                        }
                    } else {
                        let outcome = req.finish(at, busy_nanos, &mut self.admission);
                        phase.close(request, outcome);
                    }
                }
                EventKind::Retry { request } => {
                    let class = phase.requests[request].class;
                    self.admit(&mut phase, Some(request), class, at);
                }
            }
            self.dispatch(&mut phase, at);
        }

        let wall_nanos = self.now - phase_start;
        let total_joules = self
            .env
            .report(self.now as f64 * 1e-9, self.config.workers)
            .reading()
            .joules;
        let joules = total_joules - self.consumed_joules;
        self.consumed_joules = total_joules;
        PhaseReport {
            stats: phase.stats,
            joules,
            wall_nanos,
        }
    }

    /// Put one request through admission — a fresh arrival
    /// (`existing == None`) or a retry. Retries re-enter admission: under
    /// pressure they come back at a lower tier, or are shed outright.
    fn admit(&mut self, phase: &mut Phase, existing: Option<RequestSlot>, class: usize, at: u64) {
        let spec = &self.lifecycle.classes()[class];
        match self.admission.decide(spec, phase.in_flight) {
            AdmissionDecision::Shed => {
                phase.stats.note_shed_class(class);
                match existing {
                    Some(request) => phase.close(request, RequestOutcome::Shed),
                    None => phase.stats.record(&RequestOutcome::Shed),
                }
            }
            AdmissionDecision::Admit { tier } => {
                let request = match existing {
                    Some(request) => {
                        self.lifecycle.readmit(&mut phase.requests[request], tier);
                        request
                    }
                    None => {
                        phase.in_flight += 1;
                        phase.requests.insert(self.lifecycle.admit(class, at, tier))
                    }
                };
                phase.ready.push_back(request);
            }
        }
    }

    /// Start attempts on every free worker while the ready queue is
    /// non-empty.
    fn dispatch(&mut self, phase: &mut Phase, at: u64) {
        while !phase.free_workers.is_empty() {
            let Some(request) = phase.ready.pop_front() else {
                return;
            };
            let worker = phase.free_workers.pop().unwrap();
            let attempt = self.lifecycle.start_attempt(
                &mut phase.requests[request],
                &self.env,
                worker,
                at,
                self.config.panic_per_mille,
            );
            phase.events.push(
                at.saturating_add(attempt.wall_nanos),
                EventKind::Finish {
                    worker,
                    request,
                    busy_nanos: attempt.busy_nanos,
                    panicked: attempt.panicked,
                },
            );
        }
    }

    /// The admission controller's live state.
    pub fn admission(&self) -> &AdmissionController {
        &self.admission
    }

    /// Virtual now, nanoseconds since simulator construction.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The energy-budget controller (setpoint, spend, last observation), if
    /// one is configured.
    pub fn budget(&self) -> Option<&BudgetController> {
        self.budget.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::ArrivalPattern;
    use crate::request::{QualityTier, RetryPolicy};
    use sig_core::{ExecutionEnv, NominalGovernor, PowerModel, TransitionCost};
    use std::sync::Arc;
    use std::time::Duration;

    fn env(workers: usize) -> ExecutionEnv {
        ExecutionEnv::new(
            PowerModel::for_host(),
            Arc::new(NominalGovernor),
            None,
            TransitionCost::free(),
            workers,
        )
    }

    fn ladder_class(significance: f64) -> RequestClass {
        RequestClass {
            name: "ladder".into(),
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
                base_backoff: Duration::from_micros(200),
                jitter: 0.3,
            },
        }
    }

    fn schedule(rate: f64, count: usize, seed: u64) -> Vec<(u64, usize)> {
        ArrivalPattern::Poisson { rate_per_sec: rate }
            .schedule(seed, count)
            .into_iter()
            .map(|at| (at, 0))
            .collect()
    }

    #[test]
    fn underload_completes_everything_at_full_quality() {
        // 4 workers × 1 ms service = 4000 rps capacity; offer 1000 rps.
        let mut sim = Simulator::new(SimConfig::default(), vec![ladder_class(0.8)], env(4));
        let report = sim.run(&schedule(1000.0, 2000, 7));
        assert!(report.stats.balanced(), "{:?}", report.stats);
        assert_eq!(report.stats.completed, 2000);
        assert_eq!(report.stats.shed, 0);
        assert_eq!(report.stats.completed_by_tier[0], 2000);
        assert!(report.joules > 0.0);
    }

    #[test]
    fn overload_downgrades_then_sheds_and_books_balance() {
        let mut sim = Simulator::new(
            SimConfig {
                panic_per_mille: 150,
                ..Default::default()
            },
            vec![ladder_class(0.8)],
            env(4),
        );
        // 6× tier-0 capacity with 15% attempt faults — beyond what the
        // ladder (4× at its lowest rung) can absorb, so shedding must
        // engage after degradation does.
        let report = sim.run(&schedule(24_000.0, 8000, 9));
        let stats = &report.stats;
        assert!(stats.balanced(), "{stats:?}");
        assert_eq!(stats.offered, 8000);
        assert!(stats.downgraded > 0, "pressure must downgrade: {stats:?}");
        assert!(stats.shed > 0, "2× load must shed: {stats:?}");
        assert!(stats.completed > 0, "degradation keeps goodput: {stats:?}");
        assert!(
            stats.downgraded > stats.shed / 8,
            "downgrade engages, not just shedding: {stats:?}"
        );
    }

    #[test]
    fn identical_seeds_replay_identically() {
        let run = || {
            let mut sim = Simulator::new(
                SimConfig {
                    panic_per_mille: 100,
                    ..Default::default()
                },
                vec![ladder_class(0.7)],
                env(4),
            );
            let report = sim.run(&schedule(6000.0, 4000, 3));
            (
                report.stats.completed,
                report.stats.shed,
                report.stats.violations(),
                report.stats.latency.quantile(0.99),
                report.joules.to_bits(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn phases_share_state_and_report_separately() {
        let mut sim = Simulator::new(SimConfig::default(), vec![ladder_class(0.8)], env(4));
        let calm = sim.run(&schedule(1000.0, 1000, 1));
        let storm = sim.run(&schedule(30_000.0, 4000, 2));
        let after = sim.run(&schedule(1000.0, 1000, 4));
        for phase in [&calm, &storm, &after] {
            assert!(phase.stats.balanced());
        }
        assert!(storm.stats.shed > 0);
        assert!(
            after.stats.latency.quantile(0.99) < storm.stats.latency.quantile(0.99),
            "post-storm p99 recovers"
        );
        assert!(calm.joules > 0.0 && storm.joules > 0.0 && after.joules > 0.0);
    }
}
