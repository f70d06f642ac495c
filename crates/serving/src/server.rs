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
//! plus a retry per transient failure (a [`TaskOutcome::Panicked`] or
//! [`TaskOutcome::Cancelled`] attempt; a shed one is not retried),
//! each with jittered exponential backoff and each budgeted against the
//! request's remaining deadline. Those rules — and the late-or-completed
//! verdict on a finished attempt — are [`crate::lifecycle`]'s, the same ones
//! the simulators run; this file only adds what is live (task handles,
//! cancellation, the poll loop). Every generation of a request carries the
//! request's one [`CancelToken`], so [`Server::cancel_request`] reaches a
//! retry clone that is already queued as surely as the first attempt.

use std::time::{Duration, Instant};

use sig_core::{CancelToken, Runtime, SpawnHandle, TaskOutcome};

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
    /// Attached to every attempt; cancelled by [`Server::cancel_request`].
    cancel: CancelToken,
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
                    cancel: CancelToken::new(),
                });
                self.spawn_attempt(self.active.len() - 1);
            }
        }
        id
    }

    /// Spawn one attempt of the request at `index` at its current tier,
    /// carrying the request's cancellation token.
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
            .cancel_token(&request.cancel)
            .spawn();
        life.attempts += 1;
        request.retry_at = None;
        request.handle = Some(handle);
    }

    /// Cancel a request mid-flight: cancels the token every attempt carries
    /// (the in-flight one, a queued retry clone, any later one) and stops
    /// further retries. The request terminates as
    /// [`ViolationKind::Cancelled`] unless an attempt already completed. A
    /// request that is no longer in flight (finished, shed or unknown) is
    /// left alone.
    pub fn cancel_request(&mut self, id: RequestId) {
        if let Some(request) = self.active.iter_mut().find(|r| r.id == id) {
            request.cancel.cancel();
            request.retry_at = None;
        }
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
        let request = &self.active[index];
        if request.handle.is_none() && request.cancel.is_cancelled() {
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
                if request.cancel.is_cancelled() {
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

    /// The admission controller (pressure, overload flag).
    pub fn admission(&self) -> &AdmissionController {
        &self.admission
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
    use sig_core::{FaultAction, FaultPlan, Runtime, SignificanceCutoff};
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

    /// Cancelling a request whose retry clone is already queued must reach
    /// that clone: every generation carries the request's token, so the
    /// retry is skipped and the request ends cancelled, not completed.
    #[test]
    fn cancel_request_covers_queued_retry_generations() {
        // Task 0 (the first attempt) draws an injected panic; task 1 (the
        // gate) and task 2 (the retry) draw nothing.
        let plan = FaultPlan::new(15).panics(500);
        assert_eq!(
            (0..3).map(|id| plan.decide(id)).collect::<Vec<_>>(),
            [Some(FaultAction::Panic), None, None]
        );
        let rt = Runtime::builder().workers(1).fault_plan(plan).build();
        let retry = RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_millis(30),
            jitter: 0.0,
        };
        let class = quick_class(Duration::from_secs(30), retry);
        let mut server = Server::new(&rt, vec![class], ServerConfig::default());

        // The first attempt panics, and the server backs off to retry.
        let id = server.offer(0);
        while server.active[0].retry_at.is_none() {
            server.poll();
            std::thread::sleep(Duration::from_micros(50));
        }

        // The gate pins the single worker so the retry spawns but stays
        // queued.
        let gate = Arc::new(AtomicBool::new(false));
        let hold = gate.clone();
        rt.task(move || while !hold.load(Ordering::Acquire) {})
            .spawn();
        while rt.outcomes().spawned < 3 {
            server.poll();
            std::thread::sleep(Duration::from_micros(50));
        }

        server.cancel_request(id);
        gate.store(true, Ordering::Release);
        server.drain();

        let stats = server.stats();
        assert!(stats.balanced(), "identity: {stats:?}");
        assert_eq!(stats.cancelled, 1, "request ends Cancelled: {stats:?}");
        assert_eq!(stats.completed, 0, "the retry must not complete");
        let outcomes = rt.wait_all();
        assert_eq!(outcomes.completed + outcomes.failed(), outcomes.spawned);
        assert_eq!(outcomes.panicked, 1, "the first attempt");
        assert_eq!(outcomes.cancelled, 1, "the queued retry");
    }

    /// Once a request is no longer in flight, cancelling it is a no-op:
    /// nothing in the runtime or the scoreboard moves, whether the request
    /// finished, was shed at admission, or never existed.
    #[test]
    fn cancel_request_after_drain_changes_nothing() {
        let rt = Runtime::builder().workers(1).build();
        let class = quick_class(Duration::from_secs(30), RetryPolicy::none());
        // One request in flight is full pressure: the third offer, made
        // while two are queued behind the gate, is shed.
        let defaults = AdmissionConfig::default();
        let admission = AdmissionConfig {
            queue_watermark: 1,
            cutoff: SignificanceCutoff {
                shed_full: 2.0,
                ..defaults.cutoff
            },
            pressure_alpha: 1.0,
            ..defaults
        };
        let mut server = Server::new(
            &rt,
            vec![class],
            ServerConfig {
                admission,
                base_work: Duration::from_micros(20),
                ..Default::default()
            },
        );
        let gate = Arc::new(AtomicBool::new(false));
        let hold = gate.clone();
        rt.task(move || while !hold.load(Ordering::Acquire) {})
            .spawn();
        let ids: Vec<RequestId> = (0..3).map(|_| server.offer(0)).collect();
        gate.store(true, Ordering::Release);
        server.drain();
        rt.wait_all();
        assert_eq!(server.stats().shed, 1, "{:?}", server.stats());
        assert_eq!(server.stats().completed, 2, "{:?}", server.stats());

        let outcomes = rt.outcomes();
        let stats = format!("{:?}", server.stats());
        for id in ids.into_iter().chain([1_000]) {
            server.cancel_request(id);
        }
        server.poll();
        rt.wait_all();
        assert_eq!(rt.outcomes(), outcomes);
        assert_eq!(format!("{:?}", server.stats()), stats);
    }
}
