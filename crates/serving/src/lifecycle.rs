//! The request lifecycle and the event queue, each stated once.
//!
//! Three drivers execute the same serving contract — the live
//! [`Server`](crate::server::Server), the single-node
//! [`Simulator`](crate::sim::Simulator) and `sig_cluster::ClusterSim` — and
//! all three take the rules from here instead of restating them:
//!
//! 1. **Admit** at a tier of the class's ladder ([`Lifecycle::admit`]); a
//!    retry re-enters admission and comes back no higher than it left
//!    ([`Lifecycle::readmit`]).
//! 2. **Attempt**: price one attempt through the [`ExecutionEnv`]
//!    ([`Lifecycle::start_attempt`]) — `base_service × work_factor`, the
//!    governor's dispatch decision, the seeded fault draw (a faulted attempt
//!    burns half its service, then panics), frequency dilation.
//! 3. **Finish** late or completed ([`Request::finish`]), or on a transient
//!    fault **retry** after a jittered backoff while both the retry budget
//!    and the deadline allow, else terminate as an accounted violation
//!    ([`Lifecycle::resolve_fault`]). Every terminal path feeds the
//!    admission controller's miss-rate signal.
//!
//! What differs between the drivers stays with them: where an admitted
//! request queues, who owns the environment, how time advances. Nothing here
//! branches on its caller.
//!
//! Seeded replays depend on the draw order, which is part of the contract:
//! the fault draw comes after `env.dispatch` and only when faults are armed;
//! the backoff jitter is drawn only after the `max_retries` check passed.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Duration;

use sig_core::{DispatchContext, DispatchDecision, ExecutionEnv, ExecutionMode, Policy};

use crate::admission::AdmissionController;
use crate::request::{RequestClass, RequestOutcome, ViolationKind};
use crate::rng::SplitMix64;

struct Event<K> {
    at: u64,
    seq: u64,
    kind: K,
}

impl<K> PartialEq for Event<K> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<K> Eq for Event<K> {}
impl<K> PartialOrd for Event<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<K> Ord for Event<K> {
    // Reversed: BinaryHeap is a max-heap, we want the earliest event first.
    // Ties break by push order (seq), keeping replay deterministic.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Virtual-time event queue: pops in `(time, push order)`, so two events at
/// the same instant come out in the order they went in and a seeded replay
/// never depends on heap internals.
pub struct EventQueue<K> {
    heap: BinaryHeap<Event<K>>,
    pushed: u64,
}

impl<K> EventQueue<K> {
    /// An empty queue with room for `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            pushed: 0,
        }
    }

    /// Schedule `kind` at virtual time `at`.
    pub fn push(&mut self, at: u64, kind: K) {
        self.heap.push(Event {
            at,
            seq: self.pushed,
            kind,
        });
        self.pushed += 1;
    }

    /// The earliest event and its time, or `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(u64, K)> {
        self.heap.pop().map(|event| (event.at, event.kind))
    }
}

/// One admitted request, from admission to its terminal outcome. Times are
/// nanoseconds on the driver's clock (virtual or since server start).
#[derive(Debug, Clone)]
pub struct Request {
    /// Index of the request's class.
    pub class: usize,
    /// Arrival time.
    pub arrival: u64,
    /// Absolute deadline: arrival plus the class SLO.
    pub deadline: u64,
    /// Tier of the current (or next) attempt; always an index into the
    /// class's ladder.
    pub tier: usize,
    /// Whether any attempt was admitted below tier 0.
    pub downgraded: bool,
    /// Attempts started so far (retries = attempts − 1).
    pub attempts: u32,
}

impl Request {
    /// The current attempt finished cleanly at `at` after `service_nanos` of
    /// work: the request is `Late` past its deadline, `Completed` otherwise.
    /// Feeds `admission` the observation.
    pub fn finish(
        &self,
        at: u64,
        service_nanos: u64,
        admission: &mut AdmissionController,
    ) -> RequestOutcome {
        let missed = at > self.deadline;
        admission.observe(service_nanos, missed);
        if missed {
            RequestOutcome::Violated(ViolationKind::Late)
        } else {
            RequestOutcome::Completed {
                tier: self.tier,
                latency_nanos: at.saturating_sub(self.arrival),
                retries: self.attempts.saturating_sub(1),
            }
        }
    }
}

/// One priced attempt (see [`Lifecycle::start_attempt`]).
#[derive(Debug, Clone, Copy)]
pub struct Attempt {
    /// The governor's decision the attempt ran under.
    pub decision: DispatchDecision,
    /// Busy time recorded into the environment (half service on a fault).
    pub busy_nanos: u64,
    /// Busy time dilated by the decision's frequency, at least 1: the
    /// attempt's finish event is due this long after its start.
    pub wall_nanos: u64,
    /// Whether the seeded fault plan killed the attempt.
    pub panicked: bool,
}

/// What becomes of a request whose attempt failed transiently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryVerdict {
    /// Back off and re-enter admission at `resume`.
    Retry {
        /// Time the retry may be admitted.
        resume: u64,
    },
    /// Terminal: the request is an accounted violation of this kind.
    Exhausted(ViolationKind),
}

/// The rules of the module docs over a set of request classes, a tier-0
/// service time, and the one seeded generator behind fault and jitter draws.
pub struct Lifecycle {
    classes: Vec<RequestClass>,
    base_service_nanos: u64,
    rng: SplitMix64,
}

impl Lifecycle {
    /// Lifecycle rules over `classes` (each validated), with tier-0 attempts
    /// costing `base_service_nanos` and draws seeded by `seed`.
    pub fn new(classes: Vec<RequestClass>, base_service_nanos: u64, seed: u64) -> Self {
        for class in &classes {
            class.validate();
        }
        Lifecycle {
            classes,
            base_service_nanos,
            rng: SplitMix64::new(seed),
        }
    }

    /// The request classes, by index.
    pub fn classes(&self) -> &[RequestClass] {
        &self.classes
    }

    /// Service time of one attempt of `class` at `tier`, nanoseconds (before
    /// frequency dilation), never 0.
    pub fn service_nanos(&self, class: usize, tier: usize) -> u64 {
        let spec = &self.classes[class];
        let work_factor = spec.tiers[spec.clamp_tier(tier)].work_factor;
        ((self.base_service_nanos as f64 * work_factor) as u64).max(1)
    }

    /// A request of `class` arriving at `at`, admitted at `tier`.
    pub fn admit(&self, class: usize, at: u64, tier: usize) -> Request {
        let spec = &self.classes[class];
        let tier = spec.clamp_tier(tier);
        Request {
            class,
            arrival: at,
            deadline: at.saturating_add(spec.deadline.as_nanos() as u64),
            tier,
            downgraded: tier > 0,
            attempts: 0,
        }
    }

    /// Re-admit a retrying request at `tier`, or at the tier it already ran
    /// at if that is lower on the ladder: retries never regain quality.
    pub fn readmit(&self, request: &mut Request, tier: usize) {
        request.tier = self.classes[request.class].clamp_tier(tier.max(request.tier));
        request.downgraded |= request.tier > 0;
    }

    /// Start one attempt of `request` on `worker` at `at` and price it
    /// through `env`: the governor decides the frequency, the fault plan
    /// (`panic_per_mille`, no draw when 0) may kill it at half service, and
    /// the busy time is recorded into the environment's ledger.
    pub fn start_attempt(
        &mut self,
        request: &mut Request,
        env: &ExecutionEnv,
        worker: usize,
        at: u64,
        panic_per_mille: u16,
    ) -> Attempt {
        request.attempts += 1;
        let service = self.service_nanos(request.class, request.tier);
        let spec = &self.classes[request.class];
        // Full-quality (tier 0) attempts are the "accurate body"; lower
        // tiers are the approximate variant the governor may scale.
        let accurate = request.tier == 0;
        let ctx = DispatchContext {
            worker,
            significance: spec.tiers[request.tier].significance.into(),
            accurate,
            policy: Policy::SignificanceAgnostic,
            group_ratio: 1.0,
            deadline_pressure: at.saturating_add(service) > request.deadline,
        };
        let decision = env.dispatch(worker, &ctx);
        let panicked =
            panic_per_mille > 0 && self.rng.next_u64() % 1000 < u64::from(panic_per_mille);
        // A faulted attempt burns half its service time before dying.
        let busy_nanos = if panicked {
            (service / 2).max(1)
        } else {
            service
        };
        let wall_nanos = ((busy_nanos as f64 * decision.scale().time_dilation()) as u64).max(1);
        let mode = if accurate {
            ExecutionMode::Accurate
        } else {
            ExecutionMode::Approximate
        };
        env.record(worker, mode, Duration::from_nanos(busy_nanos), decision);
        Attempt {
            decision,
            busy_nanos,
            wall_nanos,
            panicked,
        }
    }

    /// An attempt of `request` failed transiently at `at`: retry after a
    /// jittered backoff if the retry budget allows one *and* backoff plus
    /// the expected service still fits the deadline, else the request is
    /// terminal. A terminal verdict counts as a miss in `admission`.
    pub fn resolve_fault(
        &mut self,
        request: &Request,
        at: u64,
        admission: &mut AdmissionController,
    ) -> RetryVerdict {
        let retry = self.classes[request.class].retry;
        let service = self.service_nanos(request.class, request.tier);
        if request.attempts > retry.max_retries {
            admission.observe(service, true);
            return RetryVerdict::Exhausted(ViolationKind::RetriesExhausted);
        }
        let backoff = retry.backoff_nanos(request.attempts, &mut self.rng);
        let expected = admission.expected_service_nanos().max(service);
        let resume = at.saturating_add(backoff);
        if resume.saturating_add(expected) > request.deadline {
            admission.observe(expected, true);
            return RetryVerdict::Exhausted(ViolationKind::BudgetExhausted);
        }
        RetryVerdict::Retry { resume }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionConfig;
    use crate::request::{QualityTier, RetryPolicy};
    use sig_core::{NominalGovernor, PowerModel, TransitionCost};
    use std::sync::Arc;

    fn class(retry: RetryPolicy, deadline: Duration) -> RequestClass {
        RequestClass {
            name: "test".into(),
            tiers: vec![
                QualityTier {
                    significance: 0.8,
                    work_factor: 1.0,
                },
                QualityTier {
                    significance: 0.4,
                    work_factor: 0.5,
                },
            ],
            deadline,
            retry,
        }
    }

    fn env() -> ExecutionEnv {
        ExecutionEnv::new(
            PowerModel::for_host(),
            Arc::new(NominalGovernor),
            None,
            TransitionCost::free(),
            1,
        )
    }

    #[test]
    fn event_queue_pops_by_time_then_push_order() {
        let mut queue = EventQueue::with_capacity(0);
        for (at, kind) in [
            (30, 'a'),
            (10, 'b'),
            (20, 'c'),
            (10, 'd'),
            (30, 'e'),
            (10, 'f'),
        ] {
            queue.push(at, kind);
        }
        assert_eq!(queue.pop(), Some((10, 'b')));
        // An event pushed mid-drain at an already-populated instant queues
        // behind the ones pushed before it.
        queue.push(10, 'g');
        let rest: Vec<_> = std::iter::from_fn(|| queue.pop()).collect();
        assert_eq!(
            rest,
            [
                (10, 'd'),
                (10, 'f'),
                (10, 'g'),
                (20, 'c'),
                (30, 'a'),
                (30, 'e')
            ]
        );
    }

    #[test]
    fn finish_is_late_strictly_after_the_deadline() {
        let lifecycle = Lifecycle::new(
            vec![class(RetryPolicy::none(), Duration::from_micros(10))],
            1_000,
            1,
        );
        let mut admission = AdmissionController::new(AdmissionConfig::default());
        let mut request = lifecycle.admit(0, 500, 1);
        request.attempts = 3;
        assert_eq!(
            request.finish(10_500, 400, &mut admission),
            RequestOutcome::Completed {
                tier: 1,
                latency_nanos: 10_000,
                retries: 2
            }
        );
        assert_eq!(admission.miss_rate(), 0.0);
        assert_eq!(
            request.finish(10_501, 400, &mut admission),
            RequestOutcome::Violated(ViolationKind::Late)
        );
        assert!(admission.miss_rate() > 0.0);
    }

    #[test]
    fn readmission_never_regains_quality() {
        let lifecycle = Lifecycle::new(
            vec![class(RetryPolicy::none(), Duration::from_millis(1))],
            1_000,
            1,
        );
        let mut request = lifecycle.admit(0, 0, 0);
        assert!(!request.downgraded);
        lifecycle.readmit(&mut request, 7);
        assert_eq!(request.tier, 1, "clamped to the ladder");
        lifecycle.readmit(&mut request, 0);
        assert_eq!(request.tier, 1);
        assert!(request.downgraded);
    }

    /// Fault-free replays stay identical because a disarmed fault plan
    /// consumes no randomness: the generator is untouched by pricing.
    #[test]
    fn fault_free_pricing_draws_nothing() {
        let retry = RetryPolicy::none();
        let mut lifecycle = Lifecycle::new(vec![class(retry, Duration::from_millis(1))], 1_000, 9);
        let env = env();
        let mut request = lifecycle.admit(0, 0, 1);
        let attempt = lifecycle.start_attempt(&mut request, &env, 0, 0, 0);
        assert!(!attempt.panicked);
        assert_eq!((attempt.busy_nanos, attempt.wall_nanos), (500, 500));
        assert_eq!(request.attempts, 1);
        assert_eq!(lifecycle.rng.next_u64(), SplitMix64::new(9).next_u64());

        // Armed, every attempt draws once — and a certain fault burns half
        // the service time.
        let attempt = lifecycle.start_attempt(&mut request, &env, 0, 500, 1000);
        assert!(attempt.panicked);
        assert_eq!(attempt.busy_nanos, 250);
        let mut reference = SplitMix64::new(9);
        reference.next_u64();
        reference.next_u64();
        assert_eq!(lifecycle.rng.next_u64(), reference.next_u64());
        assert_eq!(env.totals().busy_nanos, 750, "both attempts ledgered");
    }

    /// Over seeded retry policies, deadlines and service estimates: a retry
    /// always fits the deadline with its expected service, running out of
    /// retries always reads `RetriesExhausted` (without touching the
    /// generator), and every terminal verdict registers as a miss.
    #[test]
    fn retry_verdicts_respect_the_budget_and_the_deadline() {
        let mut seeds = SplitMix64::new(0x5eed);
        let (mut retried, mut out_of_retries, mut out_of_budget) = (0, 0, 0);
        for case in 0..2_000u64 {
            let retry = RetryPolicy {
                max_retries: (seeds.next_u64() % 4) as u32,
                base_backoff: Duration::from_nanos(seeds.next_u64() % 50_000),
                jitter: seeds.next_f64(),
            };
            let deadline = 1 + seeds.next_u64() % 400_000;
            let mut lifecycle = Lifecycle::new(
                vec![class(retry, Duration::from_nanos(deadline))],
                1 + seeds.next_u64() % 20_000,
                case,
            );
            let mut admission = AdmissionController::new(AdmissionConfig::default());
            admission.observe(seeds.next_u64() % 200_000, false);
            let mut request = lifecycle.admit(0, 1_000, (seeds.next_u64() % 2) as usize);
            request.attempts = 1 + (seeds.next_u64() % 5) as u32;
            let at = 1_000 + seeds.next_u64() % deadline;

            let expected = admission
                .expected_service_nanos()
                .max(lifecycle.service_nanos(0, request.tier));
            let before = lifecycle.rng.clone().next_u64();
            let verdict = lifecycle.resolve_fault(&request, at, &mut admission);
            if request.attempts > retry.max_retries {
                assert_eq!(
                    verdict,
                    RetryVerdict::Exhausted(ViolationKind::RetriesExhausted)
                );
                assert_eq!(lifecycle.rng.next_u64(), before, "no jitter drawn");
                out_of_retries += 1;
            }
            match verdict {
                RetryVerdict::Retry { resume } => {
                    assert!(resume >= at);
                    assert!(resume + expected <= request.deadline, "case {case}");
                    assert_eq!(admission.miss_rate(), 0.0);
                    retried += 1;
                }
                RetryVerdict::Exhausted(kind) => {
                    assert!(admission.miss_rate() > 0.0, "case {case}: {kind:?}");
                    out_of_budget += usize::from(kind == ViolationKind::BudgetExhausted);
                }
            }
        }
        assert!(
            retried > 100 && out_of_retries > 100 && out_of_budget > 100,
            "every verdict exercised: {retried} / {out_of_retries} / {out_of_budget}"
        );
    }
}
