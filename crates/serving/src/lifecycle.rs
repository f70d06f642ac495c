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
//!
//! The two simulators also share their containers: the [`EventQueue`] (two
//! lanes — a sorted arrival timeline walked in place, a heap of what is in
//! flight — popped in one `(time, push order)`) and the [`RequestTable`]
//! (in-flight requests in recycled slots).

use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::{Index, IndexMut};
use std::time::Duration;

use sig_core::{DispatchContext, DispatchDecision, ExecutionEnv, ExecutionMode, Policy};

use crate::admission::AdmissionController;
use crate::request::{RequestClass, RequestOutcome, ViolationKind};
use crate::rng::SplitMix64;

/// Virtual-time event queue: pops in `(time, push order)`, so two events at
/// the same instant come out in the order they went in and a seeded replay
/// never depends on heap internals.
///
/// Two lanes, one order. The phase's arrival schedule is already sorted, so
/// it never enters the heap: the **timeline** lane walks the borrowed slice
/// with a cursor, and the **heap** lane holds only what is pushed while the
/// phase runs (finishes, retries, ticks, faults — a few events per busy
/// worker, however long the schedule). The timeline counts as pushed first,
/// so it wins ties: a phase's arrivals precede whatever they cause.
///
/// The heap orders 16-byte [`event_key`]s, earliest first: time, push
/// sequence and slot in one `u128`. Sequences are unique, so the slot never
/// decides and the order is exactly `(time, push sequence)`. The events stay
/// put in `slots`, whose entries are reused once popped, so sifting moves
/// keys and never an event.
pub struct EventQueue<'t, K> {
    timeline: Cow<'t, [(u64, usize)]>,
    cursor: usize,
    origin: u64,
    arrival: fn(usize) -> K,
    heap: BinaryHeap<Reverse<u128>>,
    slots: Vec<Option<K>>,
    free: Vec<u32>,
    pushed: u64,
}

/// Bits of an [`event_key`] below the time: push sequence, then slot.
const SEQUENCE_BITS: u32 = 40;
const SLOT_BITS: u32 = 24;

/// The key of the event in `slot`, pushed `sequence`-th, for time `at`: time
/// in the high 64 bits, sequence in the next 40, slot in the low 24, so keys
/// compare as `(at, sequence, slot)` do. Release builds check the widths too.
fn event_key(at: u64, sequence: u64, slot: u32) -> u128 {
    assert!(sequence < 1 << SEQUENCE_BITS, "under 2^40 pushes per phase");
    assert!(slot < 1 << SLOT_BITS, "under 2^24 events in flight");
    u128::from(at) << 64 | u128::from(sequence << SLOT_BITS | u64::from(slot))
}

/// `(at, sequence, slot)` back out of an [`event_key`].
fn event_key_parts(key: u128) -> (u64, u64, u32) {
    let (at, low) = ((key >> 64) as u64, key as u64);
    (at, low >> SLOT_BITS, low as u32 & ((1 << SLOT_BITS) - 1))
}

impl<'t, K> EventQueue<'t, K> {
    /// A queue whose timeline is `schedule` — `(offset from origin, class)`
    /// pairs, each popped as `arrival(class)` — with heap room for
    /// `in_flight` pushed events. An out-of-order schedule is first
    /// stable-sorted into a copy: the order the heap used to give it.
    pub fn over(
        schedule: &'t [(u64, usize)],
        origin: u64,
        arrival: fn(usize) -> K,
        in_flight: usize,
    ) -> Self {
        let mut timeline = Cow::Borrowed(schedule);
        if !schedule.is_sorted_by_key(|&(offset, _)| offset) {
            timeline.to_mut().sort_by_key(|&(offset, _)| offset);
        }
        EventQueue {
            timeline,
            cursor: 0,
            origin,
            arrival,
            heap: BinaryHeap::with_capacity(in_flight),
            slots: Vec::with_capacity(in_flight),
            free: Vec::with_capacity(in_flight),
            pushed: 0,
        }
    }

    /// Schedule `kind` at virtual time `at`.
    pub fn push(&mut self, at: u64, kind: K) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(kind);
                slot
            }
            None => {
                self.slots.push(Some(kind));
                u32::try_from(self.slots.len() - 1).expect("under 2^32 events in flight")
            }
        };
        self.heap.push(Reverse(event_key(at, self.pushed, slot)));
        self.pushed += 1;
    }

    /// The earliest event and its time, or `None` when both lanes are empty.
    pub fn pop(&mut self) -> Option<(u64, K)> {
        if let Some(&(offset, class)) = self.timeline.get(self.cursor) {
            let at = self.origin.saturating_add(offset);
            if self
                .heap
                .peek()
                .is_none_or(|&Reverse(next)| at <= event_key_parts(next).0)
            {
                self.cursor += 1;
                return Some((at, (self.arrival)(class)));
            }
        }
        let (at, _, slot) = event_key_parts(self.heap.pop()?.0);
        self.free.push(slot);
        let kind = self.slots[slot as usize].take();
        Some((at, kind.expect("a queued slot holds its event")))
    }
}

/// Handle to one live entry of a [`RequestTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestSlot {
    index: u32,
    generation: u32,
}

/// The requests in flight, sized by their peak and not by everything a phase
/// admits: a terminal request's slot goes to the next admission. Safe
/// because a request is referenced from one place at a time — a ready queue,
/// a running worker, or one queued `Finish` or `Retry` event — and a driver
/// releases it only while handling that reference; the one event that can
/// outlive its request, the `Finish` of an attempt whose node crashed, is
/// rejected by the node's epoch before the table is read. Debug builds check
/// the argument: releasing advances the slot's generation, and a handle of
/// an earlier generation panics instead of reading the next tenant.
#[derive(Default)]
pub struct RequestTable {
    slots: Vec<(u32, Request)>,
    free: Vec<u32>,
}

impl RequestTable {
    /// Store `request` in a free slot, growing the table only if none is.
    pub fn insert(&mut self, request: Request) -> RequestSlot {
        let index = self.free.pop().unwrap_or_else(|| {
            u32::try_from(self.slots.len()).expect("under 2^32 requests in flight")
        });
        match self.slots.get_mut(index as usize) {
            Some(slot) => slot.1 = request,
            None => self.slots.push((0, request)),
        }
        let generation = self.slots[index as usize].0;
        RequestSlot { index, generation }
    }

    /// The request is terminal: free its slot for the next admission.
    pub fn release(&mut self, request: RequestSlot) {
        let (generation, _) = &mut self.slots[request.index as usize];
        debug_assert_eq!(*generation, request.generation, "stale request handle");
        *generation = generation.wrapping_add(1);
        self.free.push(request.index);
    }
}

impl Index<RequestSlot> for RequestTable {
    type Output = Request;
    fn index(&self, request: RequestSlot) -> &Request {
        let (generation, slot) = &self.slots[request.index as usize];
        debug_assert_eq!(*generation, request.generation, "stale request handle");
        slot
    }
}

impl IndexMut<RequestSlot> for RequestTable {
    fn index_mut(&mut self, request: RequestSlot) -> &mut Request {
        let (generation, slot) = &mut self.slots[request.index as usize];
        debug_assert_eq!(*generation, request.generation, "stale request handle");
        slot
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
    /// [`Lifecycle::service_nanos`] of every tier of every class, by class.
    service_nanos: Vec<Box<[u64]>>,
    rng: SplitMix64,
}

impl Lifecycle {
    /// Lifecycle rules over `classes` (each validated), with tier-0 attempts
    /// costing `base_service_nanos` and draws seeded by `seed`.
    pub fn new(classes: Vec<RequestClass>, base_service_nanos: u64, seed: u64) -> Self {
        for class in &classes {
            class.validate();
        }
        let service_nanos = classes
            .iter()
            .map(|class| {
                let nanos = |work_factor| ((base_service_nanos as f64 * work_factor) as u64).max(1);
                class
                    .tiers
                    .iter()
                    .map(|tier| nanos(tier.work_factor))
                    .collect()
            })
            .collect();
        Lifecycle {
            classes,
            service_nanos,
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
        let ladder = &self.service_nanos[class];
        ladder[tier.min(ladder.len() - 1)]
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
        let mut queue = EventQueue::over(&[], 0, |_| unreachable!("no timeline"), 0);
        for (at, kind) in [
            (30, 'a'),
            (u64::MAX, 'h'),
            (10, 'b'),
            (20, 'c'),
            (10, 'd'),
            (u64::MAX, 'i'),
            (30, 'e'),
            (10, 'f'),
        ] {
            queue.push(at, kind);
        }
        assert_eq!(queue.pop(), Some((10, 'b')));
        // An event pushed mid-drain at an already-populated instant queues
        // behind the ones pushed before it, at the last instant too (finish
        // times saturate there).
        queue.push(10, 'g');
        queue.push(u64::MAX, 'j');
        let rest: Vec<_> = std::iter::from_fn(|| queue.pop()).collect();
        assert_eq!(
            rest,
            [
                (10, 'd'),
                (10, 'f'),
                (10, 'g'),
                (20, 'c'),
                (30, 'a'),
                (30, 'e'),
                (u64::MAX, 'h'),
                (u64::MAX, 'i'),
                (u64::MAX, 'j')
            ]
        );
    }

    /// Keys round-trip, and compare as `(time, sequence)` whenever the
    /// sequences differ (as a queue's always do), over random triples that
    /// reach both ends of every field.
    #[test]
    fn event_keys_round_trip_and_order_as_time_then_sequence() {
        let mut rng = SplitMix64::new(0x4e75);
        let (seq_max, slot_max) = ((1 << SEQUENCE_BITS) - 1, (1 << SLOT_BITS) - 1);
        let mut triple = || {
            let mut pick = |edges: [u64; 4], bound: u64| match rng.next_u64() % 6 {
                draw @ 0..4 => edges[draw as usize],
                _ => rng.next_u64() % bound,
            };
            let at = pick([0, 1, u64::MAX - 1, u64::MAX], u64::MAX);
            let sequence = pick([0, 1, seq_max - 1, seq_max], seq_max);
            (
                at,
                sequence,
                pick([0, 1, slot_max - 1, slot_max], slot_max) as u32,
            )
        };
        let mut decided_by_sequence = 0;
        for _ in 0..20_000 {
            let (a, b) = (triple(), triple());
            let (key_a, key_b) = (event_key(a.0, a.1, a.2), event_key(b.0, b.1, b.2));
            assert_eq!((event_key_parts(key_a), event_key_parts(key_b)), (a, b));
            assert_eq!(key_a.cmp(&key_b), a.cmp(&b), "{a:?} vs {b:?}");
            if a.1 != b.1 {
                assert_eq!(key_a.cmp(&key_b), (a.0, a.1).cmp(&(b.0, b.1)));
                decided_by_sequence += usize::from(a.0 == b.0);
            }
        }
        assert!(decided_by_sequence > 1_000, "{decided_by_sequence}");
    }

    #[test]
    #[should_panic(expected = "pushes per phase")]
    fn event_key_rejects_a_sequence_past_40_bits() {
        event_key(0, 1 << SEQUENCE_BITS, 0);
    }

    #[test]
    #[should_panic(expected = "events in flight")]
    fn event_key_rejects_a_slot_past_24_bits() {
        event_key(0, 0, 1 << SLOT_BITS);
    }

    /// Seeded model test of the two lanes: random timelines (sorted or not,
    /// with repeated offsets) and random pushes — before the timeline head,
    /// level with it, after its end, and mid-drain at or after the instant
    /// just popped — always pop in the order of the reference: every event
    /// keyed `(time, sequence)`, the timeline taking sequences `0..n` in
    /// offset order and pushes numbered from `n` as they happen.
    #[test]
    fn event_queue_lanes_merge_in_reference_order() {
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Kind {
            Arrival(usize),
            Pushed(u64),
        }
        let mut rng = SplitMix64::new(0x1a9e5);
        let (mut timeline_dry_first, mut heap_dry_first, mut ties, mut unsorted) = (0, 0, 0, 0);
        for case in 0..500u64 {
            let origin = rng.next_u64() % 1_000;
            let span = 1 + rng.next_u64() % 60;
            let mut schedule: Vec<(u64, usize)> = (0..rng.next_u64() % 40)
                .map(|i| (rng.next_u64() % span, i as usize))
                .collect();
            if case % 4 != 0 {
                schedule.sort_by_key(|&(offset, _)| offset);
            }
            unsorted += u32::from(!schedule.is_sorted_by_key(|&(offset, _)| offset));
            let mut sorted = schedule.clone();
            sorted.sort_by_key(|&(offset, _)| offset);
            let mut reference: Vec<(u64, u64, Kind)> = sorted
                .iter()
                .enumerate()
                .map(|(seq, &(offset, class))| (origin + offset, seq as u64, Kind::Arrival(class)))
                .collect();
            let mut seq = reference.len() as u64;

            let mut queue = EventQueue::over(&schedule, origin, Kind::Arrival, 4);
            let mut push = |queue: &mut EventQueue<Kind>, at: u64| {
                queue.push(at, Kind::Pushed(seq));
                reference.push((at, seq, Kind::Pushed(seq)));
                seq += 1;
            };
            for _ in 0..rng.next_u64() % 20 {
                // From before the origin to past the timeline's end.
                let at = (origin + rng.next_u64() % (2 * span)).saturating_sub(span / 2);
                push(&mut queue, at);
            }
            let mut popped = Vec::new();
            let mut mid_drain = rng.next_u64() % 10;
            while let Some((at, kind)) = queue.pop() {
                popped.push((at, kind));
                if mid_drain > 0 && rng.next_u64().is_multiple_of(3) {
                    mid_drain -= 1;
                    push(&mut queue, at + rng.next_u64() % 4);
                }
            }

            reference.sort_by_key(|&(at, seq, _)| (at, seq));
            let expected: Vec<_> = reference.iter().map(|&(at, _, kind)| (at, kind)).collect();
            assert_eq!(popped, expected, "case {case}");
            match popped.last() {
                Some((_, Kind::Arrival(_))) => heap_dry_first += 1,
                Some((_, Kind::Pushed(_))) => timeline_dry_first += 1,
                None => {}
            }
            ties += popped
                .windows(2)
                .filter(|w| {
                    w[0].0 == w[1].0
                        && matches!(w[0].1, Kind::Arrival(_)) != matches!(w[1].1, Kind::Arrival(_))
                })
                .count();
        }
        assert!(
            timeline_dry_first > 50 && heap_dry_first > 50 && ties > 500 && unsorted > 50,
            "every shape exercised: {timeline_dry_first} / {heap_dry_first} / {ties} / {unsorted}"
        );
    }

    /// The heap the keyed one replaced: whole events sifted through a
    /// `BinaryHeap`, earliest `(at, seq)` first.
    struct Event<K> {
        at: u64,
        seq: u64,
        kind: K,
    }

    impl<K> PartialEq for Event<K> {
        fn eq(&self, other: &Self) -> bool {
            (self.at, self.seq) == (other.at, other.seq)
        }
    }
    impl<K> Eq for Event<K> {}
    impl<K> PartialOrd for Event<K> {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<K> Ord for Event<K> {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            (other.at, other.seq).cmp(&(self.at, self.seq))
        }
    }

    /// Long seeded push/pop interleavings against the event heap, with the
    /// whole schedule pushed into it first (in stable offset order, as the
    /// queue once did): arrivals tying with each other and with pushes, most
    /// pushes landing on an instant already queued, every fourth schedule
    /// unsorted, and slots reused thousands of times. Both pop the same
    /// `(at, kind)` sequence.
    #[test]
    fn keyed_heap_pops_what_the_event_heap_popped() {
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Kind {
            Arrival(usize),
            Pushed(u64),
        }
        const IN_FLIGHT: usize = 48;
        let mut rng = SplitMix64::new(0xe7e47);
        let (mut ties, mut reused) = (0, 0);
        for case in 0..40u64 {
            let origin = rng.next_u64() % 100;
            let mut schedule: Vec<(u64, usize)> =
                (0..300).map(|i| (rng.next_u64() % 2_000, i)).collect();
            if case % 4 != 0 {
                schedule.sort_by_key(|&(offset, _)| offset);
            }
            let mut sorted = schedule.clone();
            sorted.sort_by_key(|&(offset, _)| offset);
            let mut reference: BinaryHeap<Event<Kind>> = sorted
                .iter()
                .zip(0..)
                .map(|(&(offset, class), seq)| Event {
                    at: origin + offset,
                    seq,
                    kind: Kind::Arrival(class),
                })
                .collect();
            let mut seq = sorted.len() as u64;
            let mut queue = EventQueue::over(&schedule, origin, Kind::Arrival, 4);
            let (mut now, mut in_flight) = (origin, 0);
            for step in 0.. {
                let draining = step >= 5_000;
                if !draining && in_flight < IN_FLIGHT && rng.next_u64().is_multiple_of(2) {
                    let at = now + rng.next_u64() % 3;
                    queue.push(at, Kind::Pushed(seq));
                    reference.push(Event {
                        at,
                        seq,
                        kind: Kind::Pushed(seq),
                    });
                    seq += 1;
                    in_flight += 1;
                    continue;
                }
                let popped = queue.pop();
                assert_eq!(
                    popped,
                    reference.pop().map(|event| (event.at, event.kind)),
                    "case {case} step {step}"
                );
                match popped {
                    Some((at, kind)) => {
                        ties += usize::from(at == now);
                        now = at;
                        in_flight -= usize::from(matches!(kind, Kind::Pushed(_)));
                    }
                    None if draining => break,
                    None => {}
                }
            }
            assert!(queue.slots.len() <= IN_FLIGHT, "slots are reused");
            reused += seq as usize - sorted.len() - queue.slots.len();
        }
        assert!(
            ties > 10_000 && reused > 50_000,
            "every shape exercised: {ties} / {reused}"
        );
    }

    /// A released slot is reused, and its old handle is dead: in debug
    /// builds, reading through it panics rather than aliasing the new tenant.
    #[test]
    fn request_table_recycles_slots_and_retires_handles() {
        let lifecycle = Lifecycle::new(
            vec![class(RetryPolicy::none(), Duration::from_millis(1))],
            1_000,
            1,
        );
        let mut table = RequestTable::default();
        let first = table.insert(lifecycle.admit(0, 10, 0));
        let second = table.insert(lifecycle.admit(0, 20, 0));
        table.release(first);
        let third = table.insert(lifecycle.admit(0, 30, 1));
        assert_eq!(table.slots.len(), 2, "the freed slot was reused");
        assert_eq!((table[second].arrival, table[third].arrival), (20, 30));
        table[third].attempts = 2;
        assert_eq!(table[third].attempts, 2);
        if cfg!(debug_assertions) {
            let stale = std::panic::catch_unwind(|| table[first].arrival);
            assert!(
                stale.is_err(),
                "a stale handle must not read the new tenant"
            );
        }
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
