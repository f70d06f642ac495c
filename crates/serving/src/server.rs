//! The live serving layer: open-loop request admission over a real
//! [`Runtime`].
//!
//! A [`Server`] wraps a running [`Runtime`] and turns *requests* (class +
//! arrival time) into *tasks* (significance + deadline + body), threading
//! every request through the [`AdmissionController`] and observing each
//! attempt through its [`SpawnHandle`] — no barriers anywhere on the serving
//! path.
//!
//! One request may spawn several task **generations**: the initial attempt
//! plus a retry per transient failure ([`TaskOutcome::is_transient_failure`]),
//! each with jittered exponential backoff and each budgeted against the
//! request's remaining deadline. Those rules — and the late-or-completed
//! verdict on a finished attempt — are [`crate::lifecycle`]'s, the same ones
//! the simulators run; this file only adds what is live (task handles,
//! cancellation, the poll loop). The server maintains a request-id →
//! task-id index covering *every* generation, so
//! [`Server::cancel_request`] cancels a request whose retry clone is already
//! queued — both generations, not just the first (the PR-6 cancellation API
//! only knows task-id ranges, which a retry silently escapes).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use sig_core::{Runtime, SpawnHandle, TaskId, TaskIdRange, TaskOutcome};

use crate::admission::{AdmissionConfig, AdmissionController, AdmissionDecision};
use crate::lifecycle::{Lifecycle, Request, RetryVerdict};
use crate::report::ServingStats;
use crate::request::{RequestClass, RequestOutcome, ViolationKind};

/// Identifier of one offered request (dense, in offer order).
pub type RequestId = u64;

/// Tuning for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Admission-control tuning.
    pub admission: AdmissionConfig,
    /// Seed for retry jitter.
    pub seed: u64,
    /// Tier-0 service time of a request: each attempt busy-spins
    /// `base_work × work_factor` of its tier.
    pub base_work: Duration,
    /// Granularity of the [`Server::run`] poll loop.
    pub poll_interval: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            admission: AdmissionConfig::default(),
            seed: 0x5eed,
            base_work: Duration::from_micros(200),
            poll_interval: Duration::from_micros(50),
        }
    }
}

/// One in-flight request: its lifecycle record plus the live task state.
struct ActiveRequest {
    id: RequestId,
    /// Class, arrival and deadline (nanosecond offsets from run start),
    /// current tier, attempts so far.
    life: Request,
    /// Handle of the in-flight attempt (`None` while backing off).
    handle: Option<SpawnHandle<u64>>,
    /// Offset at which the pending retry may spawn.
    retry_at: Option<u64>,
    cancelled: bool,
}

/// Open-loop serving front end over a [`Runtime`] (see module docs).
pub struct Server<'rt> {
    runtime: &'rt Runtime,
    lifecycle: Lifecycle,
    config: ServerConfig,
    admission: AdmissionController,
    start: Instant,
    next_id: RequestId,
    active: Vec<ActiveRequest>,
    /// Request-id → task-id range of **every** generation spawned for it.
    generations: HashMap<RequestId, Vec<TaskIdRange>>,
    stats: ServingStats,
}

impl<'rt> Server<'rt> {
    /// A server submitting into `runtime`, offering requests of `classes`.
    pub fn new(runtime: &'rt Runtime, classes: Vec<RequestClass>, config: ServerConfig) -> Self {
        assert!(!classes.is_empty(), "a server needs at least one class");
        Server {
            runtime,
            lifecycle: Lifecycle::new(
                classes,
                config.base_work.as_nanos().min(u64::MAX as u128) as u64,
                config.seed ^ 0x5e21_9e0f_ca11_ab1e,
            ),
            admission: AdmissionController::new(config.admission),
            config,
            start: Instant::now(),
            next_id: 0,
            active: Vec::new(),
            generations: HashMap::new(),
            stats: ServingStats::default(),
        }
    }

    /// Nanoseconds since the server started (the request time base).
    pub fn now_nanos(&self) -> u64 {
        self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Offer one request of class index `class` arriving now. The admission
    /// decision happens synchronously; a shed request never spawns a task.
    pub fn offer(&mut self, class: usize) -> RequestId {
        let arrival = self.now_nanos();
        self.offer_at(class, arrival)
    }

    fn offer_at(&mut self, class: usize, arrival_nanos: u64) -> RequestId {
        let classes = self.lifecycle.classes();
        assert!(class < classes.len(), "unknown request class {class}");
        let id = self.next_id;
        self.next_id += 1;
        self.stats.offered += 1;
        self.stats.note_offered_class(class);

        match self.admission.decide(&classes[class], self.active.len()) {
            AdmissionDecision::Shed => {
                self.stats.record(&RequestOutcome::Shed);
                self.stats.note_shed_class(class);
            }
            AdmissionDecision::Admit { tier } => {
                self.active.push(ActiveRequest {
                    id,
                    life: self.lifecycle.admit(class, arrival_nanos, tier),
                    handle: None,
                    retry_at: None,
                    cancelled: false,
                });
                self.spawn_attempt(self.active.len() - 1);
            }
        }
        id
    }

    /// Spawn one attempt of the request at `index` at its current tier,
    /// recording the new task generation in the request index.
    fn spawn_attempt(&mut self, index: usize) {
        let now = self.now_nanos();
        let request = &mut self.active[index];
        let life = &mut request.life;
        let significance = self.lifecycle.classes()[life.class].tiers[life.tier].significance;
        let work = Duration::from_nanos(self.lifecycle.service_nanos(life.class, life.tier));
        let remaining = life.deadline.saturating_sub(now).max(1);
        let handle = self
            .runtime
            .submit(move || busy_spin(work))
            .significance(significance)
            .deadline(Duration::from_nanos(remaining))
            .spawn();
        self.generations
            .entry(request.id)
            .or_default()
            .push(handle.ids());
        life.attempts += 1;
        request.retry_at = None;
        request.handle = Some(handle);
    }

    /// Cancel a request mid-flight: cancels **every** task generation
    /// recorded for it (initial attempt *and* queued retry clones) and stops
    /// further retries. The request terminates as
    /// [`ViolationKind::Cancelled`] unless an attempt already completed.
    pub fn cancel_request(&mut self, id: RequestId) {
        for range in self.generations.get(&id).into_iter().flatten() {
            self.runtime.cancel_tasks(range);
        }
        if let Some(request) = self.active.iter_mut().find(|r| r.id == id) {
            request.cancelled = true;
            request.retry_at = None;
        }
    }

    /// The task id of every generation spawned for `id`, in spawn order
    /// (empty if the request was shed at admission).
    pub fn task_generations(&self, id: RequestId) -> Vec<TaskId> {
        self.generations
            .get(&id)
            .into_iter()
            .flatten()
            .flat_map(TaskIdRange::clone)
            .collect()
    }

    /// Sweep in-flight requests once: resolve finished attempts, issue due
    /// retries, finalise terminal requests. Non-blocking.
    pub fn poll(&mut self) {
        // If the runtime runs under an energy budget
        // (`RuntimeBuilder::energy_budget`), compose the controller's
        // austerity with admission pressure: a tight budget degrades and
        // sheds through the same ladder queue pressure does.
        if let Some(setpoint) = self.runtime.energy_budget_setpoint() {
            self.admission.set_budget_pressure(setpoint.austerity);
        }
        let now = self.now_nanos();
        let mut index = 0;
        while index < self.active.len() {
            let finished = self.step_request(index, now);
            if finished {
                let request = self.active.swap_remove(index);
                if request.life.downgraded {
                    self.stats.downgraded += 1;
                }
            } else {
                index += 1;
            }
        }
    }

    /// Advance one request; returns `true` when it reached a terminal
    /// outcome (already recorded in the stats).
    fn step_request(&mut self, index: usize, now: u64) -> bool {
        // A cancelled request waiting out a backoff has no task left to
        // observe: finalise it here.
        if self.active[index].cancelled && self.active[index].handle.is_none() {
            self.stats
                .record(&RequestOutcome::Violated(ViolationKind::Cancelled));
            return true;
        }

        if let Some(retry_at) = self.active[index].retry_at {
            if now >= retry_at {
                // Re-admit the retry: under pressure it may come back at a
                // lower tier (downgrade-before-shed applies to retries too),
                // or be shed outright.
                let class = self.active[index].life.class;
                let spec = &self.lifecycle.classes()[class];
                match self.admission.decide(spec, self.active.len()) {
                    AdmissionDecision::Shed => {
                        self.stats.record(&RequestOutcome::Shed);
                        self.stats.note_shed_class(class);
                        return true;
                    }
                    AdmissionDecision::Admit { tier } => {
                        self.lifecycle.readmit(&mut self.active[index].life, tier);
                        self.spawn_attempt(index);
                    }
                }
            }
            return false;
        }

        let request = &mut self.active[index];
        let Some(handle) = request.handle.as_mut() else {
            return false;
        };
        let Some(outcome) = handle.try_outcome() else {
            return false;
        };

        match outcome {
            TaskOutcome::Completed(_) => {
                let finished = handle.finished_at().map_or(now, |at| {
                    at.saturating_duration_since(self.start)
                        .as_nanos()
                        .min(u64::MAX as u128) as u64
                });
                let service = handle.take_value().unwrap_or(0);
                let outcome = request.life.finish(finished, service, &mut self.admission);
                self.stats.record(&outcome);
                true
            }
            TaskOutcome::Shed => {
                // Runtime brownout shed the attempt: a deliberate load-control
                // decision — never retried, reported as shed.
                self.stats.record(&RequestOutcome::Shed);
                self.stats.note_shed_class(request.life.class);
                true
            }
            TaskOutcome::Panicked | TaskOutcome::Cancelled => {
                if request.cancelled {
                    self.stats
                        .record(&RequestOutcome::Violated(ViolationKind::Cancelled));
                    return true;
                }
                // A transient failure: back off and retry if the retry
                // budget and the remaining deadline allow, else finalise as
                // an accounted violation.
                match self
                    .lifecycle
                    .resolve_fault(&request.life, now, &mut self.admission)
                {
                    RetryVerdict::Retry { resume } => {
                        request.handle = None;
                        request.retry_at = Some(resume);
                        false
                    }
                    RetryVerdict::Exhausted(kind) => {
                        self.stats.record(&RequestOutcome::Violated(kind));
                        true
                    }
                }
            }
        }
    }

    /// Block until every in-flight request reaches a terminal outcome.
    pub fn drain(&mut self) {
        while !self.active.is_empty() {
            self.poll();
            if !self.active.is_empty() {
                std::thread::sleep(self.config.poll_interval);
            }
        }
    }

    /// Run an open-loop schedule: `schedule` pairs `(arrival offset nanos,
    /// class index)`, ascending. Arrivals are submitted on time regardless of
    /// completions — at 2× capacity the server keeps receiving 2× capacity —
    /// then the run drains. Returns the final scoreboard.
    pub fn run(&mut self, schedule: &[(u64, usize)]) -> &ServingStats {
        let mut next = 0;
        while next < schedule.len() {
            let now = self.now_nanos();
            while next < schedule.len() && schedule[next].0 <= now {
                let (arrival, class) = schedule[next];
                self.offer_at(class, arrival);
                next += 1;
            }
            self.poll();
            if next < schedule.len() {
                let wait = schedule[next].0.saturating_sub(self.now_nanos());
                let wait = Duration::from_nanos(wait).min(self.config.poll_interval);
                if !wait.is_zero() {
                    std::thread::sleep(wait);
                }
            }
        }
        self.drain();
        &self.stats
    }

    /// The scoreboard so far.
    pub fn stats(&self) -> &ServingStats {
        &self.stats
    }

    /// The admission controller (pressure, overload flag, counters).
    pub fn admission(&self) -> &AdmissionController {
        &self.admission
    }

    /// Requests currently in flight (admitted, not yet terminal).
    pub fn in_flight(&self) -> usize {
        self.active.len()
    }
}

/// Busy-spin for `duration`, returning the measured nanoseconds — the
/// synthetic request body (CPU-bound, interruption-free, fault-injectable).
fn busy_spin(duration: Duration) -> u64 {
    let start = Instant::now();
    while start.elapsed() < duration {
        std::hint::spin_loop();
    }
    start.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{QualityTier, RetryPolicy};
    use sig_core::{FaultPlan, Runtime};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    fn quick_class(deadline: Duration, retry: RetryPolicy) -> RequestClass {
        RequestClass {
            name: "test".into(),
            tiers: vec![
                QualityTier {
                    significance: 0.9,
                    work_factor: 1.0,
                },
                QualityTier {
                    significance: 0.5,
                    work_factor: 0.5,
                },
            ],
            deadline,
            retry,
        }
    }

    #[test]
    fn uncontended_requests_complete_within_deadline() {
        let rt = Runtime::builder().workers(2).build();
        let class = quick_class(Duration::from_secs(5), RetryPolicy::none());
        let mut server = Server::new(
            &rt,
            vec![class],
            ServerConfig {
                base_work: Duration::from_micros(50),
                ..Default::default()
            },
        );
        for _ in 0..50 {
            server.offer(0);
        }
        server.drain();
        let stats = server.stats();
        assert!(stats.balanced(), "identity: {stats:?}");
        assert_eq!(stats.offered, 50);
        assert_eq!(stats.completed, 50);
        assert_eq!(stats.latency.count(), 50);
    }

    #[test]
    fn transient_faults_retry_and_books_balance() {
        let rt = Runtime::builder()
            .workers(2)
            .fault_plan(FaultPlan::new(7).panics(300))
            .build();
        let retry = RetryPolicy {
            max_retries: 6,
            base_backoff: Duration::from_micros(100),
            jitter: 0.5,
        };
        let class = quick_class(Duration::from_secs(10), retry);
        let mut server = Server::new(
            &rt,
            vec![class],
            ServerConfig {
                base_work: Duration::from_micros(50),
                ..Default::default()
            },
        );
        for _ in 0..100 {
            server.offer(0);
        }
        server.drain();
        let stats = server.stats();
        assert!(stats.balanced(), "identity: {stats:?}");
        assert_eq!(stats.offered, 100);
        assert!(stats.retries > 0, "30% panics must force retries");
        assert!(
            stats.completed >= 95,
            "generous budget should complete nearly all: {stats:?}"
        );
        // Nothing is silently lost: the runtime's own books also balance.
        let outcomes = rt.wait_all();
        assert_eq!(outcomes.completed + outcomes.failed(), outcomes.spawned);
    }

    /// The live server and the simulators share one miss-rate signal: a
    /// request that exhausts its retries counts as a deadline miss in the
    /// admission controller, exactly as it does in virtual time.
    #[test]
    fn exhausted_retries_feed_the_admission_miss_rate() {
        let rt = Runtime::builder()
            .workers(2)
            .fault_plan(FaultPlan::new(3).panics(1000))
            .build();
        let retry = RetryPolicy {
            max_retries: 1,
            base_backoff: Duration::from_micros(50),
            jitter: 0.0,
        };
        let class = quick_class(Duration::from_secs(10), retry);
        let mut server = Server::new(
            &rt,
            vec![class],
            ServerConfig {
                base_work: Duration::from_micros(20),
                ..Default::default()
            },
        );
        for _ in 0..20 {
            server.offer(0);
        }
        server.drain();
        let stats = server.stats();
        assert!(stats.balanced(), "identity: {stats:?}");
        assert_eq!(stats.completed, 0, "every attempt panics: {stats:?}");
        assert_eq!(stats.violations(), stats.offered - stats.shed);
        assert!(
            server.admission().miss_rate() > 0.0,
            "terminal faults must register as misses"
        );
    }

    /// Regression (satellite): cancelling a request whose retry clone is
    /// already queued must cancel **both** generations via the request-id →
    /// task-id index — a plain task-range cancel of the first spawn would
    /// miss the retry and let the request complete anyway.
    #[test]
    fn cancel_request_covers_queued_retry_generations() {
        let rt = Runtime::builder().workers(1).build();
        let retry = RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_millis(30),
            jitter: 0.0,
        };
        let class = quick_class(Duration::from_secs(30), retry);
        let mut server = Server::new(&rt, vec![class], ServerConfig::default());

        // Gate 1 pins the single worker so the first attempt stays queued.
        let gate1 = Arc::new(AtomicBool::new(false));
        let hold = gate1.clone();
        rt.task(move || while !hold.load(Ordering::Acquire) {})
            .spawn();

        let id = server.offer(0);
        let first_generation = server.task_generations(id);
        assert_eq!(first_generation.len(), 1);

        // Cancel generation 1 directly (simulating a transient failure),
        // then release the worker: the attempt resolves Cancelled and the
        // server schedules a backoff retry.
        rt.cancel_tasks(&server.generations[&id][0]);
        gate1.store(true, Ordering::Release);
        while server.in_flight() == 1 && server.task_generations(id).len() == 1 {
            server.poll();
            if server.active.first().is_some_and(|r| r.retry_at.is_some()) {
                break;
            }
            std::thread::sleep(Duration::from_micros(50));
        }
        assert_eq!(server.in_flight(), 1, "retry must be pending, not lost");

        // Gate 2 pins the worker again so the retry generation spawns but
        // stays queued.
        let gate2 = Arc::new(AtomicBool::new(false));
        let hold = gate2.clone();
        rt.task(move || while !hold.load(Ordering::Acquire) {})
            .spawn();
        while server.task_generations(id).len() < 2 {
            server.poll();
            std::thread::sleep(Duration::from_micros(50));
        }
        assert_eq!(server.task_generations(id).len(), 2);

        // The regression: cancel through the index — it must reach the
        // queued generation-2 clone, not just the long-terminal first spawn.
        server.cancel_request(id);
        gate2.store(true, Ordering::Release);
        server.drain();

        let stats = server.stats();
        assert!(stats.balanced(), "identity: {stats:?}");
        assert_eq!(stats.cancelled, 1, "request ends Cancelled: {stats:?}");
        assert_eq!(stats.completed, 0, "the retry must not complete");
        let outcomes = rt.wait_all();
        assert_eq!(outcomes.completed + outcomes.failed(), outcomes.spawned);
        assert_eq!(outcomes.cancelled, 2, "both generations cancelled");
    }
}
