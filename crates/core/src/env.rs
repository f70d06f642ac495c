//! Execution environment: per-worker DVFS frequency domains, idle-state
//! (race-to-idle) modelling and energy accounting.
//!
//! The strategy — which frequency a task executes at, and whether its slack
//! is raced into sleep — is chosen by the pluggable [`Governor`] (see
//! [`crate::governor`]). This module is everything around that choice: every
//! worker owns a **frequency domain** and an energy-accounting shard;
//! [`ExecutionEnv::dispatch`] asks the governor, applies the overrides no
//! governor may veto (deadline pressure, the re-targetable frequency cap) and
//! keeps the domain's transition count; [`ExecutionEnv::record`] prices the
//! executed task; [`EnergyReport`] folds the shards.
//!
//! # The frequency cap
//!
//! [`ExecutionEnv::set_dispatch_cap`] is the one hook an outside controller
//! (the energy-budget loop, the cluster's power-cap controller) throttles a
//! worker set through, under **any** governor. Two properties are
//! load-bearing for the conformance invariants: **accurate dispatches are
//! never clamped** — the cap only restricts approximate work, so "critical
//! is never scaled" survives arbitrary cap pressure — and the clamp lands
//! **before** the domain bookkeeping, so transition counts and domain ratios
//! stay coherent with what actually executes.
//!
//! # Hot-path discipline
//!
//! Executing a ready task must stay **mutex-free**, so all accounting here is
//! per-worker atomics on worker-private cache lines (`CachePadded`), folded
//! only when [`EnergyReport`] is built. The governor itself is an immutable
//! `Arc<dyn Governor>`; the default [`crate::NominalGovernor`] short-circuits
//! before the virtual call. Each shard remembers the active watts of the
//! last few distinct `(frequency ratio, power exponent)` pairs it priced, so
//! the `powf` of the power model runs once per distinct scale, not once per
//! task.
//!
//! A shard has exactly **one writer**, its owning worker (`shard()` asserts
//! the index; see [`ExecutionEnv::new`]), so its counters advance by a
//! `Relaxed` load and store — no locked read-modify-write, which would be a
//! full barrier per counter on every task for a race that cannot occur.
//! Other threads only ever *read* a shard, through its sequence counter
//! (seqlock): [`ExecutionEnv::report`] retries a shard whose owner is
//! mid-record, so a report sampled during execution can never pair this
//! task's dilated busy time with the previous task's dynamic energy (or vice
//! versa). A second writer on one shard is a bug, not a race to tolerate: it
//! would lose increments as well as tear snapshots.
//!
//! In a runtime the shard is its worker's one **task ledger**: the same
//! seqlock section that books a task's busy, modelled and joule counters
//! books its count by mode, or as panicked, so a snapshot never holds a
//! task's time without its count. A record is booked alone; the plain
//! entries a worker runs from a share are booked by *runs* — consecutive
//! entries with one mode and one dispatch decision, timed as one window —
//! each run in one section with its count (`ExecutionEnv::record_task`).
//! An entry's busy time is thus its share of its run's window, which also
//! covers the runtime's per-entry work inside the run (tens of nanoseconds
//! against bodies of microseconds; a record's window covers its body
//! alone, and its runtime work counts as idle). The counts stay exact:
//! a run of `n` moves each count as `n` bookings of one would. The worker also counts, one bump each,
//! the tasks it skips as cancelled, the tasks that finish past their
//! deadline and its steals (`Event`). [`crate::RuntimeStats`] folds the
//! ledger; nothing else counts a task.
//!
//! # Accounting model
//!
//! Per executed task the environment records the measured busy time, the
//! *modelled* busy time (measured × time dilation of the chosen frequency)
//! and the modelled dynamic energy (modelled busy × frequency-scaled active
//! watts). A race-to-idle dispatch instead executes at nominal and banks the
//! slack against its reference step as **sleep residency**. [`EnergyReport::reading`]
//! combines these with the static and idle terms of the [`PowerModel`],
//! prices sleep residency at the configured [`SleepState`] (gating part of
//! the sleeping core's share of socket static power), charges wakeups and
//! DVFS switches through the [`TransitionCost`], and integrates over a
//! modelled makespan that assumes dilation, residency and transition stalls
//! are load-balanced across workers.

use std::time::Duration;

use sig_energy::{
    EnergyBreakdown, EnergyReading, FrequencyScale, PowerModel, SleepState, TransitionCost,
};

use crate::governor::{DispatchContext, DispatchDecision, Governor};
use crate::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use crate::sync::{spin_loop, Arc, CachePadded};
use crate::task::{ExecutionMode, MODES};

/// Consistent fold of every shard's counters — the cheap snapshot a polling
/// controller (the cluster power-cap loop) reads every tick without building
/// a full [`EnergyReport`] (no allocation, no `String`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnvTotals {
    /// Measured busy nanoseconds across workers.
    pub busy_nanos: u64,
    /// Modelled (dilated) busy nanoseconds across workers.
    pub modelled_busy_nanos: u64,
    /// Modelled busy nanoseconds spent in accurate bodies.
    pub accurate_busy_nanos: u64,
    /// Modelled dynamic energy in nanojoules.
    pub dynamic_nanojoules: u64,
    /// Tasks dispatched below nominal frequency.
    pub scaled_tasks: u64,
    /// Frequency-domain switches.
    pub frequency_transitions: u64,
}

/// What a runtime worker counts on its ledger beside the tasks it prices.
#[derive(Clone, Copy)]
pub(crate) enum Event {
    /// A task skipped because its cancel token fired.
    Cancelled,
    /// A task that finished past its deadline.
    DeadlineMiss,
    /// A successful steal.
    Steal,
}

const EVENTS: usize = 3;

/// One worker's frequency domain and energy counters.
struct EnvShard {
    /// Seqlock: odd while the owning worker is mid-record. Readers retry, so
    /// a report never pairs this task's busy time with the previous task's
    /// joules.
    seq: AtomicU64,
    /// Measured busy nanoseconds (wall-clock spent in task bodies).
    real_busy_nanos: AtomicU64,
    /// Tasks that finished a body, per mode.
    finished: [AtomicU64; MODES],
    /// Tasks whose body panicked: busy time, but no mode count.
    panicked: AtomicU64,
    /// Modelled busy nanoseconds (measured × time dilation), per mode.
    modelled_busy_nanos: [AtomicU64; MODES],
    /// Modelled dynamic energy in nanojoules.
    dynamic_nanojoules: AtomicU64,
    /// Modelled deep-sleep residency earned by race-to-idle dispatches, in
    /// nanoseconds.
    sleep_nanos: AtomicU64,
    /// Sleep entries (each charges one wake transition).
    sleep_entries: AtomicU64,
    /// Tasks dispatched below nominal frequency.
    scaled_tasks: AtomicU64,
    /// Frequency-domain switches (each charges the configured
    /// [`TransitionCost`]).
    transitions: AtomicU64,
    /// Current frequency ratio of this worker's domain, as `f64` bits.
    domain_bits: AtomicU64,
    /// Active watts of the distinct scales priced so far, as `[ratio,
    /// power exponent, watts]` bits; a zero ratio marks an empty entry
    /// (every ratio is positive). Replaced round-robin via `next_watts`.
    watts: [[AtomicU64; 3]; WATTS_ENTRIES],
    next_watts: AtomicUsize,
    /// Counts by [`Event`], each bumped alone, outside the seqlock section.
    events: [AtomicU64; EVENTS],
}

/// Distinct frequency scales a shard keeps priced: a four-rung ladder's
/// three below nominal, plus a dispatch cap. A shard cycling through more
/// re-runs the `powf` on a miss and still prices exactly.
const WATTS_ENTRIES: usize = 4;

/// Add `delta` to a counter of a shard the caller owns: its single writer
/// needs no read-modify-write (module docs, "Hot-path discipline").
fn bump(counter: &AtomicU64, delta: u64) {
    counter.store(
        counter.load(Ordering::Relaxed).wrapping_add(delta),
        Ordering::Relaxed,
    );
}

/// `shards[worker]`, where `worker` must be a worker index: clamping one out
/// of range would give the last shard a second writer.
pub(crate) fn worker_shard<T>(shards: &[T], worker: usize) -> &T {
    assert!(
        worker < shards.len(),
        "worker index {worker} out of range for {} shards (each has one writer, its worker: \
         a second would lose counts and tear snapshots)",
        shards.len()
    );
    &shards[worker]
}

fn load_all<const N: usize>(counters: &[AtomicU64; N]) -> [u64; N] {
    std::array::from_fn(|i| counters[i].load(Ordering::Relaxed))
}

impl EnvShard {
    fn new() -> Self {
        EnvShard {
            seq: AtomicU64::new(0),
            real_busy_nanos: AtomicU64::new(0),
            finished: Default::default(),
            panicked: AtomicU64::new(0),
            modelled_busy_nanos: Default::default(),
            dynamic_nanojoules: AtomicU64::new(0),
            sleep_nanos: AtomicU64::new(0),
            sleep_entries: AtomicU64::new(0),
            scaled_tasks: AtomicU64::new(0),
            transitions: AtomicU64::new(0),
            domain_bits: AtomicU64::new(1.0f64.to_bits()),
            watts: Default::default(),
            next_watts: AtomicUsize::new(0),
            events: Default::default(),
        }
    }
}

/// Consistent field snapshot of one shard (see [`EnvShard::seq`]).
pub(crate) struct ShardSnapshot {
    pub(crate) real_busy_nanos: u64,
    pub(crate) finished: [u64; MODES],
    pub(crate) panicked: u64,
    pub(crate) events: [u64; EVENTS],
    modelled_busy_nanos: [u64; MODES],
    dynamic_nanojoules: u64,
    sleep_nanos: u64,
    sleep_entries: u64,
    scaled_tasks: u64,
    transitions: u64,
    domain_bits: u64,
}

/// The runtime's execution environment: power model, governor, transition
/// and sleep models, and the per-worker frequency/energy shards.
///
/// Public so governor implementations can be driven **standalone** — the
/// governor conformance kit (`tests/governor_conformance.rs`) scripts
/// dispatch/record sequences with synthetic durations against an
/// `ExecutionEnv` and checks the shared invariants deterministically,
/// without a live scheduler underneath.
pub struct ExecutionEnv {
    model: PowerModel,
    governor: Arc<dyn Governor>,
    /// `true` iff the governor always answers nominal — lets dispatch skip
    /// the virtual call.
    passthrough: bool,
    nominal_watts: f64,
    sleep: Option<SleepState>,
    transition_cost: TransitionCost,
    /// Re-targetable frequency cap for approximate dispatches (ratio as
    /// `f64` bits; 1.0 = disengaged). See the module docs.
    cap_bits: AtomicU64,
    shards: Box<[CachePadded<EnvShard>]>,
}

impl ExecutionEnv {
    /// `shards` should be the worker count: dispatch/record only ever run on
    /// worker threads (the spawn path never executes bodies), and each
    /// shard's counters assume a **single writer** — its owning worker.
    /// Out-of-range worker indices panic: silently clamping would let two
    /// writers share the last shard, and a second writer breaks the
    /// single-writer seqlock (two entries leave the sequence even while
    /// both are mid-record, so a concurrent report could accept a torn
    /// snapshot) and the counters, which advance by plain load and store.
    ///
    /// `sleep` is the state race-to-idle residency is priced at (`None`
    /// prices residency like ordinary shallow idle, with no static gating
    /// and free wakeups); `transition_cost` is charged per frequency-domain
    /// switch.
    pub fn new(
        model: PowerModel,
        governor: Arc<dyn Governor>,
        sleep: Option<SleepState>,
        transition_cost: TransitionCost,
        shards: usize,
    ) -> Self {
        ExecutionEnv {
            nominal_watts: model.active_watts_per_core,
            passthrough: governor.is_passthrough(),
            model,
            governor,
            sleep,
            transition_cost,
            cap_bits: AtomicU64::new(1.0f64.to_bits()),
            shards: (0..shards.max(1))
                .map(|_| CachePadded::new(EnvShard::new()))
                .collect(),
        }
    }

    fn shard(&self, worker: usize) -> &CachePadded<EnvShard> {
        worker_shard(&self.shards, worker)
    }

    /// Re-target the frequency cap for approximate dispatches, in `(0, 1]`
    /// (1.0 disengages the cap and restores the exact uncapped dispatch
    /// path). Lock-free: a single atomic store, so a budget or power-cap
    /// controller re-targets from outside the dispatch path.
    pub fn set_dispatch_cap(&self, cap: f64) {
        assert!(
            cap > 0.0 && cap <= 1.0,
            "dispatch cap ratio must be in (0, 1], got {cap}"
        );
        self.cap_bits.store(cap.to_bits(), Ordering::Relaxed);
    }

    /// The current frequency cap (1.0 when disengaged).
    pub fn dispatch_cap(&self) -> f64 {
        f64::from_bits(self.cap_bits.load(Ordering::Relaxed))
    }

    /// Choose the energy strategy for a task about to execute on `worker`
    /// and update the worker's frequency domain. Lock-free; one relaxed
    /// load/store pair when the frequency is unchanged.
    pub fn dispatch(&self, worker: usize, ctx: &DispatchContext) -> DispatchDecision {
        let decision = if ctx.deadline_pressure {
            // Deadline-endangered tasks race to nominal regardless of the
            // governor and the cap: meeting the deadline dominates the
            // energy policy.
            DispatchDecision::nominal()
        } else {
            let decision = if self.passthrough {
                DispatchDecision::nominal()
            } else {
                self.governor.decide(ctx)
            };
            let cap = self.dispatch_cap();
            if cap < 1.0 && !ctx.accurate {
                // Clamp on the same exponent family the governor priced
                // with, so clamped dispatches stay on one dynamic-energy
                // curve.
                decision.clamp_to(FrequencyScale::with_exponent(
                    cap,
                    decision.scale().power_exponent(),
                ))
            } else {
                decision
            }
        };
        // Domain bookkeeping runs under every governor, the passthrough one
        // included: a cap that engaged and then disengaged leaves the domain
        // below nominal, and the dispatch that returns it is a transition.
        let shard = self.shard(worker);
        let bits = decision.scale().ratio().to_bits();
        if shard.domain_bits.load(Ordering::Relaxed) != bits {
            shard.domain_bits.store(bits, Ordering::Relaxed);
            bump(&shard.transitions, 1);
        }
        decision
    }

    /// Active watts at `scale`, computed once per distinct `(ratio, power
    /// exponent)` and then served from the shard (single writer: the owning
    /// worker).
    fn scaled_watts(&self, shard: &EnvShard, scale: FrequencyScale) -> f64 {
        let (ratio_bits, exponent_bits) =
            (scale.ratio().to_bits(), scale.power_exponent().to_bits());
        for [ratio, exponent, watts] in &shard.watts {
            if ratio.load(Ordering::Relaxed) == ratio_bits
                && exponent.load(Ordering::Relaxed) == exponent_bits
            {
                return f64::from_bits(watts.load(Ordering::Relaxed));
            }
        }
        let watts = scale.scaled_active_watts(&self.model);
        let next = shard.next_watts.load(Ordering::Relaxed);
        shard
            .next_watts
            .store((next + 1) % WATTS_ENTRIES, Ordering::Relaxed);
        let [ratio, exponent, cached] = &shard.watts[next];
        ratio.store(ratio_bits, Ordering::Relaxed);
        exponent.store(exponent_bits, Ordering::Relaxed);
        cached.store(watts.to_bits(), Ordering::Relaxed);
        watts
    }

    /// Account one executed task: `busy` measured wall-time in the body,
    /// dilated and priced at the strategy chosen at dispatch. Must be called
    /// from the shard's owning worker (single-writer seqlock).
    pub fn record(
        &self,
        worker: usize,
        mode: ExecutionMode,
        busy: Duration,
        decision: DispatchDecision,
    ) {
        self.record_task(worker, mode, busy, decision, 1, 0);
    }

    /// [`ExecutionEnv::record`] for a run of tasks executed back to back
    /// under one `mode` and one `decision`, timed as one window: `busy` is
    /// the whole run's, `finished` of its tasks are counted under `mode` and
    /// `panicked` as panicked, all in one seqlock section. A record books a
    /// run of one.
    pub(crate) fn record_task(
        &self,
        worker: usize,
        mode: ExecutionMode,
        busy: Duration,
        decision: DispatchDecision,
        finished: u64,
        panicked: u64,
    ) {
        let shard = self.shard(worker);
        let real_nanos = busy.as_nanos().min(u64::MAX as u128) as u64;
        let scale = decision.scale();
        let (modelled_nanos, joules) = if scale.is_nominal() {
            (real_nanos, real_nanos as f64 * 1e-9 * self.nominal_watts)
        } else {
            let modelled = (real_nanos as f64 * scale.time_dilation()) as u64;
            let watts = self.scaled_watts(shard, scale);
            (modelled, modelled as f64 * 1e-9 * watts)
        };
        let sleep_nanos = (real_nanos as f64 * decision.slack_factor()) as u64;

        // Seqlock write section: readers observing an odd sequence (or a
        // sequence that moved) retry, so all counters below land atomically
        // from a report's point of view.
        let seq = shard.seq.load(Ordering::Relaxed);
        shard.seq.store(seq.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);

        let tasks = finished + panicked;
        bump(&shard.real_busy_nanos, real_nanos);
        bump(&shard.finished[mode.index()], finished);
        bump(&shard.panicked, panicked);
        bump(&shard.modelled_busy_nanos[mode.index()], modelled_nanos);
        bump(&shard.dynamic_nanojoules, (joules * 1e9) as u64);
        if !scale.is_nominal() {
            bump(&shard.scaled_tasks, tasks);
        }
        if sleep_nanos > 0 {
            bump(&shard.sleep_nanos, sleep_nanos);
            bump(&shard.sleep_entries, tasks);
        }

        shard.seq.store(seq.wrapping_add(2), Ordering::Release);
    }

    /// Count one `event` on `worker`'s ledger (its owning worker only).
    pub(crate) fn count(&self, worker: usize, event: Event) {
        bump(&self.shard(worker).events[event as usize], 1);
    }

    /// Every shard's snapshot, in worker order.
    pub(crate) fn ledger(&self) -> impl Iterator<Item = ShardSnapshot> + '_ {
        self.shards.iter().map(|shard| Self::snapshot(shard))
    }

    /// Read one shard's counters consistently: retry while the owning
    /// worker is inside a record.
    fn snapshot(shard: &EnvShard) -> ShardSnapshot {
        loop {
            let before = shard.seq.load(Ordering::Acquire);
            if before & 1 == 1 {
                spin_loop();
                continue;
            }
            let snapshot = ShardSnapshot {
                real_busy_nanos: shard.real_busy_nanos.load(Ordering::Relaxed),
                finished: load_all(&shard.finished),
                panicked: shard.panicked.load(Ordering::Relaxed),
                events: load_all(&shard.events),
                modelled_busy_nanos: load_all(&shard.modelled_busy_nanos),
                dynamic_nanojoules: shard.dynamic_nanojoules.load(Ordering::Relaxed),
                sleep_nanos: shard.sleep_nanos.load(Ordering::Relaxed),
                sleep_entries: shard.sleep_entries.load(Ordering::Relaxed),
                scaled_tasks: shard.scaled_tasks.load(Ordering::Relaxed),
                transitions: shard.transitions.load(Ordering::Relaxed),
                domain_bits: shard.domain_bits.load(Ordering::Relaxed),
            };
            fence(Ordering::Acquire);
            if shard.seq.load(Ordering::Relaxed) == before {
                return snapshot;
            }
        }
    }

    /// Fold the shards into an [`EnvTotals`] snapshot (each shard read
    /// consistently through its seqlock).
    pub fn totals(&self) -> EnvTotals {
        let mut totals = EnvTotals::default();
        for shard in self.shards.iter() {
            let snap = Self::snapshot(shard);
            totals.busy_nanos += snap.real_busy_nanos;
            totals.modelled_busy_nanos += snap.modelled_busy_nanos.iter().sum::<u64>();
            totals.accurate_busy_nanos += snap.modelled_busy_nanos[0];
            totals.dynamic_nanojoules += snap.dynamic_nanojoules;
            totals.scaled_tasks += snap.scaled_tasks;
            totals.frequency_transitions += snap.transitions;
        }
        totals
    }

    /// Fold the shards into an immutable report. `wall_seconds` is the
    /// measured makespan; `workers` the worker-thread count the dilation is
    /// spread over.
    pub fn report(&self, wall_seconds: f64, workers: usize) -> EnergyReport {
        let per_worker: Vec<WorkerEnergy> = self
            .shards
            .iter()
            .enumerate()
            .map(|(index, shard)| {
                let snap = Self::snapshot(shard);
                let modelled: [f64; MODES] =
                    std::array::from_fn(|m| snap.modelled_busy_nanos[m] as f64 * 1e-9);
                WorkerEnergy {
                    worker: index,
                    busy_seconds: snap.real_busy_nanos as f64 * 1e-9,
                    modelled_busy_seconds: modelled.iter().sum(),
                    accurate_busy_seconds: modelled[0],
                    approximate_busy_seconds: modelled[1],
                    dynamic_joules: snap.dynamic_nanojoules as f64 * 1e-9,
                    sleep_seconds: snap.sleep_nanos as f64 * 1e-9,
                    sleep_entries: snap.sleep_entries,
                    scaled_tasks: snap.scaled_tasks,
                    frequency_transitions: snap.transitions,
                    frequency_ratio: f64::from_bits(snap.domain_bits),
                }
            })
            .collect();
        EnergyReport {
            model: self.model,
            governor: self.governor.name().to_string(),
            sleep_state: self.sleep,
            transition_cost: self.transition_cost,
            wall_seconds,
            worker_count: workers.max(1),
            workers: per_worker,
        }
    }
}

impl std::fmt::Debug for ExecutionEnv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutionEnv")
            .field("governor", &self.governor.name())
            .field("shards", &self.shards.len())
            .field("sleep", &self.sleep)
            .field("transition_cost", &self.transition_cost)
            .finish()
    }
}

/// One worker's contribution to an [`EnergyReport`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerEnergy {
    /// Worker index.
    pub worker: usize,
    /// Measured wall-clock seconds spent executing task bodies.
    pub busy_seconds: f64,
    /// Busy seconds after DVFS time dilation (equals `busy_seconds` for
    /// tasks dispatched at nominal frequency).
    pub modelled_busy_seconds: f64,
    /// Modelled busy seconds spent in accurate bodies.
    pub accurate_busy_seconds: f64,
    /// Modelled busy seconds spent in approximate bodies.
    pub approximate_busy_seconds: f64,
    /// Modelled dynamic (active-core) energy in joules.
    pub dynamic_joules: f64,
    /// Modelled deep-sleep residency earned by race-to-idle dispatches.
    pub sleep_seconds: f64,
    /// Number of sleep entries (wake transitions charged).
    pub sleep_entries: u64,
    /// Tasks dispatched below nominal frequency.
    pub scaled_tasks: u64,
    /// Number of frequency-domain switches.
    pub frequency_transitions: u64,
    /// Current frequency ratio of the worker's domain.
    pub frequency_ratio: f64,
}

/// Immutable snapshot of the runtime's energy accounting, built from the
/// per-worker shards by [`crate::Runtime::energy_report`].
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyReport {
    /// The power model the dynamic joules were priced with.
    pub model: PowerModel,
    /// Name of the governor that made the frequency decisions.
    pub governor: String,
    /// Sleep state race-to-idle residency is priced at (`None`: residency
    /// is priced like ordinary idle).
    pub sleep_state: Option<SleepState>,
    /// Cost charged per frequency-domain switch.
    pub transition_cost: TransitionCost,
    /// Measured wall-clock seconds since the runtime started.
    pub wall_seconds: f64,
    /// Worker threads the dilation is assumed to spread over.
    pub worker_count: usize,
    /// Per-worker accounting shards, one per worker thread.
    pub workers: Vec<WorkerEnergy>,
}

impl EnergyReport {
    /// Total measured busy core-seconds across workers.
    pub fn busy_seconds(&self) -> f64 {
        self.workers.iter().map(|w| w.busy_seconds).sum()
    }

    /// Total modelled (dilated) busy core-seconds across workers.
    pub fn modelled_busy_seconds(&self) -> f64 {
        self.workers.iter().map(|w| w.modelled_busy_seconds).sum()
    }

    /// Total modelled dynamic energy in joules.
    pub fn dynamic_joules(&self) -> f64 {
        self.workers.iter().map(|w| w.dynamic_joules).sum()
    }

    /// Total tasks dispatched below nominal frequency.
    pub fn scaled_tasks(&self) -> u64 {
        self.workers.iter().map(|w| w.scaled_tasks).sum()
    }

    /// Total modelled deep-sleep residency across workers, in core-seconds.
    pub fn sleep_seconds(&self) -> f64 {
        self.workers.iter().map(|w| w.sleep_seconds).sum()
    }

    /// Total sleep entries (wake transitions charged) across workers.
    pub fn sleep_entries(&self) -> u64 {
        self.workers.iter().map(|w| w.sleep_entries).sum()
    }

    /// Total frequency-domain switches across workers.
    pub fn frequency_transitions(&self) -> u64 {
        self.workers.iter().map(|w| w.frequency_transitions).sum()
    }

    /// Wall-clock stall charged for frequency switches:
    /// `switches × transition latency` (in core-seconds, spread over the
    /// workers by [`EnergyReport::modelled_wall_seconds`]).
    fn transition_stall_seconds(&self) -> f64 {
        self.frequency_transitions() as f64 * self.transition_cost.latency_seconds
    }

    /// Energy charged for state transitions: DVFS switches at the configured
    /// [`TransitionCost`] plus sleep wakeups priced at nominal active power.
    fn transition_joules(&self) -> f64 {
        let switches = self.frequency_transitions() as f64 * self.transition_cost.energy_joules;
        let wakes = match &self.sleep_state {
            Some(sleep) => self.sleep_entries() as f64 * sleep.wake_joules(&self.model),
            None => 0.0,
        };
        switches + wakes
    }

    /// The makespan the model integrates static power over: the measured
    /// wall time plus the DVFS dilation, the banked sleep residency and the
    /// transition stalls, assumed load-balanced across the workers. Never
    /// smaller than the measured wall time.
    ///
    /// Stretch and race thereby price static power over the **same**
    /// deadline for the same work — the classic framing of the
    /// race-to-idle trade-off.
    pub fn modelled_wall_seconds(&self) -> f64 {
        let dilation = (self.modelled_busy_seconds() - self.busy_seconds()).max(0.0);
        let extra = dilation + self.sleep_seconds() + self.transition_stall_seconds();
        self.wall_seconds + extra / self.worker_count as f64
    }

    /// Collapse the report into the workspace-wide [`EnergyReading`] type:
    /// dynamic joules from the per-task accounting; static and idle joules
    /// from the power model integrated over the modelled makespan, with
    /// sleep residency priced at the configured [`SleepState`] (gating its
    /// share of socket static power); transition joules from DVFS switches
    /// and wakeups.
    pub fn reading(&self) -> EnergyReading {
        let wall = self.modelled_wall_seconds();
        let busy = self.modelled_busy_seconds();
        let capacity = self.model.total_cores() as f64 * wall;
        let clamped_busy = busy.min(capacity);
        let sleep = self.sleep_seconds().min(capacity - clamped_busy);
        let base = self.model.energy_breakdown(wall, clamped_busy);
        let (sleep_watts, static_saved_watts) = match &self.sleep_state {
            Some(state) => (
                state.watts_per_core,
                state.static_fraction_saved * self.model.static_watts_per_core(),
            ),
            // Without a sleep state, residency is ordinary idle.
            None => (self.model.idle_watts_per_core, 0.0),
        };
        let breakdown = EnergyBreakdown {
            static_joules: (base.static_joules - sleep * static_saved_watts).max(0.0),
            dynamic_joules: self.dynamic_joules(),
            // The base idle term priced ALL non-busy capacity at idle watts;
            // re-price the sleeping share at the sleep state's power.
            idle_joules: (base.idle_joules
                - sleep * (self.model.idle_watts_per_core - sleep_watts))
                .max(0.0),
            transition_joules: self.transition_joules(),
        };
        EnergyReading::from_breakdown(wall, clamped_busy, breakdown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::{AdaptiveGovernor, NominalGovernor, SignificanceLadderGovernor};
    use crate::policy::Policy;
    use crate::significance::Significance;

    fn ctx(significance: f64, accurate: bool) -> DispatchContext {
        DispatchContext {
            worker: 0,
            significance: Significance::new(significance),
            accurate,
            policy: Policy::GtbMaxBuffer,
            group_ratio: 0.5,
            deadline_pressure: false,
        }
    }

    fn env(governor: Arc<dyn Governor>) -> ExecutionEnv {
        ExecutionEnv::new(
            PowerModel::for_host(),
            governor,
            None,
            TransitionCost::free(),
            3,
        )
    }

    #[test]
    fn deadline_pressure_overrides_scaling_governor() {
        let e = env(Arc::new(SignificanceLadderGovernor::single_step(0.5)));
        let mut pressured = ctx(0.2, false);
        pressured.deadline_pressure = true;
        let decision = e.dispatch(0, &pressured);
        assert!(decision.scale().is_nominal());
        assert!(!decision.is_race());
        // The same context without pressure is scaled.
        assert!(!e.dispatch(0, &ctx(0.2, false)).scale().is_nominal());
    }

    #[test]
    fn nominal_governor_is_passthrough() {
        let e = env(Arc::new(NominalGovernor));
        let decision = e.dispatch(0, &ctx(0.2, false));
        assert!(decision.scale().is_nominal());
        assert!(!decision.is_race());
        let report = e.report(1.0, 2);
        assert_eq!(report.scaled_tasks(), 0);
        assert_eq!(report.governor, "nominal");
    }

    #[test]
    fn record_accumulates_and_dilates() {
        let e = env(Arc::new(SignificanceLadderGovernor::single_step(0.5)));
        let decision = e.dispatch(0, &ctx(0.2, false));
        e.record(
            0,
            ExecutionMode::Approximate,
            Duration::from_secs(1),
            decision,
        );
        let nominal = e.dispatch(1, &ctx(0.9, true));
        e.record(1, ExecutionMode::Accurate, Duration::from_secs(1), nominal);
        let report = e.report(2.0, 2);
        assert!((report.busy_seconds() - 2.0).abs() < 1e-9);
        // Worker 0 ran at half frequency: its busy second dilates to two.
        assert!((report.modelled_busy_seconds() - 3.0).abs() < 1e-6);
        assert!((report.workers[0].modelled_busy_seconds - 2.0).abs() < 1e-6);
        assert!((report.workers[0].approximate_busy_seconds - 2.0).abs() < 1e-6);
        assert_eq!(report.workers[0].scaled_tasks, 1);
        assert_eq!(report.workers[1].scaled_tasks, 0);
        // Dilation spreads over 2 workers: modelled wall grows by half the
        // extra second.
        assert!((report.modelled_wall_seconds() - 2.5).abs() < 1e-6);
    }

    #[test]
    fn race_dispatch_banks_sleep_residency_instead_of_dilating() {
        let sleep = SleepState::deep();
        let e = ExecutionEnv::new(
            PowerModel::for_host(),
            Arc::new(AdaptiveGovernor::race_to_idle(vec![FrequencyScale::new(
                0.5,
            )])),
            Some(sleep),
            TransitionCost::free(),
            2,
        );
        let decision = e.dispatch(0, &ctx(0.2, false));
        assert!(decision.is_race());
        e.record(
            0,
            ExecutionMode::Approximate,
            Duration::from_secs(1),
            decision,
        );
        let report = e.report(1.0, 2);
        // Executed at nominal: no dilation, no scaled task, no transition.
        assert!((report.modelled_busy_seconds() - 1.0).abs() < 1e-9);
        assert_eq!(report.scaled_tasks(), 0);
        assert_eq!(report.frequency_transitions(), 0);
        // Slack vs the 0.5 reference: one extra second of sleep residency,
        // spread over the 2 workers in the modelled wall.
        assert!((report.sleep_seconds() - 1.0).abs() < 1e-6);
        assert_eq!(report.sleep_entries(), 1);
        assert!((report.modelled_wall_seconds() - 1.5).abs() < 1e-6);
        // One wake is charged in the transition column.
        let wake = sleep.wake_joules(&PowerModel::for_host());
        assert!((report.transition_joules() - wake).abs() < 1e-12);
        let reading = report.reading();
        assert!((reading.breakdown.transition_joules - wake).abs() < 1e-12);
    }

    #[test]
    fn racing_into_deep_sleep_beats_plain_idle_residency() {
        let model = PowerModel {
            sockets: 1,
            cores_per_socket: 2,
            static_watts_per_socket: 20.0,
            active_watts_per_core: 4.0,
            idle_watts_per_core: 1.5,
        };
        let governor = || {
            Arc::new(AdaptiveGovernor::race_to_idle(vec![FrequencyScale::new(
                0.5,
            )]))
        };
        let run = |sleep: Option<SleepState>| {
            let e = ExecutionEnv::new(model, governor(), sleep, TransitionCost::free(), 1);
            let d = e.dispatch(0, &ctx(0.2, false));
            e.record(0, ExecutionMode::Approximate, Duration::from_secs(1), d);
            e.report(1.0, 1).reading()
        };
        let deep = run(Some(SleepState::deep()));
        let shallow = run(None);
        // Same work, same modelled wall; the deep state gates static power
        // and sleeps below idle watts, so total energy is lower despite the
        // wake charge.
        assert!((deep.wall_seconds - shallow.wall_seconds).abs() < 1e-9);
        assert!(
            deep.joules < shallow.joules,
            "deep {} J vs shallow-idle {} J",
            deep.joules,
            shallow.joules
        );
        assert!(deep.breakdown.static_joules < shallow.breakdown.static_joules);
        assert!(deep.breakdown.idle_joules < shallow.breakdown.idle_joules);
    }

    #[test]
    fn transition_costs_extend_wall_and_charge_energy() {
        let cost = TransitionCost::new(0.25, 0.125);
        let e = ExecutionEnv::new(
            PowerModel::for_host(),
            Arc::new(SignificanceLadderGovernor::single_step(0.5)),
            None,
            cost,
            1,
        );
        // nominal→0.5, 0.5→nominal, nominal→0.5: three switches.
        for accurate in [false, true, false] {
            let d = e.dispatch(0, &ctx(0.2, accurate));
            e.record(0, ExecutionMode::Accurate, Duration::from_millis(10), d);
        }
        let report = e.report(1.0, 1);
        assert_eq!(report.frequency_transitions(), 3);
        assert!((report.transition_stall_seconds() - 0.75).abs() < 1e-12);
        assert!((report.transition_joules() - 0.375).abs() < 1e-12);
        // The stall extends the modelled wall.
        assert!(report.modelled_wall_seconds() > 1.74);
        let reading = report.reading();
        assert!((reading.breakdown.transition_joules - 0.375).abs() < 1e-12);
    }

    #[test]
    fn dispatch_cap_clamps_only_approximate_work() {
        let e = env(Arc::new(SignificanceLadderGovernor::with_ladder(4, 0.4)));
        // Uncapped: transparent.
        let free = e.dispatch(0, &ctx(0.1, false));
        assert!((free.scale().ratio() - 0.4).abs() < 1e-12);
        e.set_dispatch_cap(0.25);
        assert_eq!(e.dispatch_cap(), 0.25);
        // Approximate work is clamped to the cap...
        assert!((e.dispatch(0, &ctx(0.1, false)).scale().ratio() - 0.25).abs() < 1e-12);
        // ...accurate work is never clamped, no matter the cap.
        let accurate = e.dispatch(0, &ctx(1.0, true));
        assert!(accurate.scale().is_nominal());
        assert!(!accurate.is_race());
        // Re-targeting back to 1.0 disengages the cap.
        e.set_dispatch_cap(1.0);
        assert!((e.dispatch(0, &ctx(0.1, false)).scale().ratio() - 0.4).abs() < 1e-12);
        // The cap is not a governor: reports still name the configured one.
        assert_eq!(e.report(1.0, 1).governor, "significance-ladder");
    }

    #[test]
    #[should_panic(expected = "dispatch cap ratio")]
    fn dispatch_cap_rejects_zero() {
        env(Arc::new(NominalGovernor)).set_dispatch_cap(0.0);
    }

    #[test]
    fn capped_race_dispatch_falls_back_to_stretching() {
        let e = env(Arc::new(AdaptiveGovernor::race_to_idle(vec![
            FrequencyScale::new(0.5),
        ])));
        e.set_dispatch_cap(0.8);
        let d = e.dispatch(0, &ctx(0.2, false));
        assert!(!d.is_race(), "nominal execution is forbidden under the cap");
        assert!((d.scale().ratio() - 0.5).abs() < 1e-12, "{d:?}");
    }

    /// A cap that engages and then disengages must hand the domain back to
    /// nominal on the next dispatch, and count that switch, under every
    /// governor — the passthrough one, which never makes the virtual call,
    /// included.
    #[test]
    fn disengaged_cap_returns_the_domain_to_nominal_under_every_governor() {
        let governors: [Arc<dyn Governor>; 2] = [
            Arc::new(NominalGovernor),
            Arc::new(SignificanceLadderGovernor::single_step(1.0)),
        ];
        for governor in governors {
            let name = governor.name();
            let e = env(governor);
            e.set_dispatch_cap(0.5);
            assert_eq!(e.dispatch(0, &ctx(0.2, false)).scale().ratio(), 0.5);
            e.set_dispatch_cap(1.0);
            assert!(e.dispatch(0, &ctx(0.2, false)).scale().is_nominal());
            let report = e.report(1.0, 1);
            // nominal→0.5 under the cap, 0.5→nominal once it disengages.
            assert_eq!(report.frequency_transitions(), 2, "{name}");
            assert_eq!(report.workers[0].frequency_ratio, 1.0, "{name}");
        }
    }

    #[test]
    fn totals_fold_matches_report() {
        let e = env(Arc::new(SignificanceLadderGovernor::single_step(0.5)));
        let d = e.dispatch(0, &ctx(0.2, false));
        e.record(0, ExecutionMode::Approximate, Duration::from_millis(4), d);
        let nominal = e.dispatch(1, &ctx(0.9, true));
        e.record(
            1,
            ExecutionMode::Accurate,
            Duration::from_millis(2),
            nominal,
        );
        let totals = e.totals();
        let report = e.report(1.0, 3);
        assert_eq!(totals.busy_nanos, 6_000_000);
        assert_eq!(totals.modelled_busy_nanos, 10_000_000);
        assert_eq!(totals.accurate_busy_nanos, 2_000_000);
        assert_eq!(totals.scaled_tasks, report.scaled_tasks());
        assert_eq!(totals.frequency_transitions, report.frequency_transitions());
        assert!((totals.dynamic_nanojoules as f64 * 1e-9 - report.dynamic_joules()).abs() < 1e-9);
    }

    /// A worker books a share's entries by runs: a run of `n` tasks booked
    /// in one section moves every count as `n` bookings of one would, and
    /// the busy folds — the runtime's, the report's and the totals' — stay
    /// equal bit for bit.
    #[test]
    fn a_run_booked_at_once_moves_each_count_by_its_length() {
        const RUN: u64 = 8;
        let task = Duration::from_nanos(1_250);
        let decisions = [
            DispatchDecision::stretch(FrequencyScale::new(0.5)),
            DispatchDecision::race(FrequencyScale::new(0.5)),
        ];
        let envs = [(); 2].map(|()| {
            crate::stats::RuntimeStats::new(ExecutionEnv::new(
                PowerModel::for_host(),
                Arc::new(NominalGovernor),
                Some(SleepState::deep()),
                TransitionCost::free(),
                2,
            ))
        });
        let [by_run, by_task] = &envs;
        for (worker, decision) in decisions.into_iter().enumerate() {
            // The run's last body panicked.
            by_run.env.record_task(
                worker,
                ExecutionMode::Approximate,
                task * RUN as u32,
                decision,
                RUN - 1,
                1,
            );
            for i in 0..RUN {
                let panicked = u64::from(i == RUN - 1);
                by_task.env.record_task(
                    worker,
                    ExecutionMode::Approximate,
                    task,
                    decision,
                    1 - panicked,
                    panicked,
                );
            }
        }
        let [run, single] = envs.each_ref().map(|stats| {
            let report = stats.env.report(1.0, 2);
            let ledger: Vec<_> = stats
                .env
                .ledger()
                .map(|shard| (shard.finished, shard.panicked))
                .collect();
            let totals = stats.env.totals();
            // The three busy folds of one ledger agree bit for bit.
            assert_eq!(
                stats.busy_core_seconds().to_bits(),
                report.busy_seconds().to_bits()
            );
            assert_eq!(
                report.busy_seconds().to_bits(),
                (totals.busy_nanos as f64 * 1e-9).to_bits()
            );
            for worker in &report.workers {
                assert_eq!(
                    worker.modelled_busy_seconds.to_bits(),
                    (worker.accurate_busy_seconds + worker.approximate_busy_seconds).to_bits()
                );
            }
            let counts: Vec<_> = report
                .workers
                .iter()
                .map(|w| (w.scaled_tasks, w.sleep_entries))
                .collect();
            (
                ledger,
                counts,
                totals.busy_nanos,
                totals.modelled_busy_nanos,
            )
        });
        assert_eq!(run, single);
        assert_eq!(
            run.0,
            vec![([0, RUN - 1, 0], 1), ([0, RUN - 1, 0], 1)],
            "each worker counts the run's tasks by mode and panicked"
        );
        assert_eq!(run.1, vec![(RUN, 0), (0, RUN)], "scaled, then raced");
        assert_eq!(run.2, 2 * RUN * task.as_nanos() as u64);
    }

    #[test]
    fn scaled_dynamic_energy_is_cheaper_per_work_unit() {
        let slow = env(Arc::new(SignificanceLadderGovernor::single_step(0.5)));
        let decision = slow.dispatch(0, &ctx(0.2, false));
        slow.record(
            0,
            ExecutionMode::Approximate,
            Duration::from_secs(1),
            decision,
        );
        let fast = env(Arc::new(NominalGovernor));
        fast.record(
            0,
            ExecutionMode::Accurate,
            Duration::from_secs(1),
            DispatchDecision::nominal(),
        );
        // Same measured work: the scaled run's dynamic energy must be lower
        // (dynamic_energy_factor < 1 for the default exponent).
        let e_slow = slow.report(1.0, 1).dynamic_joules();
        let e_fast = fast.report(1.0, 1).dynamic_joules();
        assert!(e_slow < e_fast, "scaled {e_slow} J vs nominal {e_fast} J");
    }

    #[test]
    fn domain_transitions_are_counted_per_change() {
        let e = env(Arc::new(SignificanceLadderGovernor::single_step(0.6)));
        for _ in 0..3 {
            e.dispatch(0, &ctx(0.2, false));
        }
        e.dispatch(0, &ctx(0.9, true));
        e.dispatch(0, &ctx(0.2, false));
        let report = e.report(1.0, 1);
        // nominal→0.6, 0.6→nominal, nominal→0.6: three switches.
        assert_eq!(report.workers[0].frequency_transitions, 3);
        assert_eq!(report.workers[0].frequency_ratio, 0.6);
    }

    #[test]
    fn reading_combines_static_idle_and_scaled_dynamic() {
        let model = PowerModel {
            sockets: 1,
            cores_per_socket: 2,
            static_watts_per_socket: 10.0,
            active_watts_per_core: 4.0,
            idle_watts_per_core: 1.0,
        };
        let e = ExecutionEnv::new(
            model,
            Arc::new(NominalGovernor),
            None,
            TransitionCost::free(),
            2,
        );
        e.record(
            0,
            ExecutionMode::Accurate,
            Duration::from_secs(1),
            DispatchDecision::nominal(),
        );
        let report = e.report(1.0, 2);
        let reading = report.reading();
        // static 10 + dynamic 1*4 + idle (2-1)*1 = 15 J over 1 s.
        assert!((reading.joules - 15.0).abs() < 1e-6, "{reading:?}");
        assert!((reading.breakdown.dynamic_joules - 4.0).abs() < 1e-6);
        assert!((reading.average_watts - 15.0).abs() < 1e-6);
        assert_eq!(reading.breakdown.transition_joules, 0.0);
    }

    /// Six scales in rotation — more than a shard keeps priced, two of them
    /// at one ratio with different exponents: every lookup returns exactly
    /// the power model's watts for the scale asked about.
    #[test]
    fn scaled_watts_prices_every_scale_exactly() {
        let e = env(Arc::new(NominalGovernor));
        let scales = [
            FrequencyScale::new(0.8),
            FrequencyScale::new(0.6),
            FrequencyScale::with_exponent(0.6, 1.0),
            FrequencyScale::new(0.4),
            FrequencyScale::with_exponent(0.5, 3.0),
            FrequencyScale::new(1.2),
        ];
        for round in 0..4 {
            // Cycling through all six thrashes the entries; revisiting one
            // scale at a time, in a varying order, hits them.
            for (i, scale) in scales.iter().enumerate() {
                let again = scales[(i * 5 + round) % scales.len()];
                for scale in [*scale, again, again] {
                    assert_eq!(
                        e.scaled_watts(e.shard(1), scale).to_bits(),
                        scale.scaled_active_watts(&e.model).to_bits(),
                        "round {round}: {scale:?}"
                    );
                }
            }
        }
    }

    /// Writers on their own shards while a reader folds them: every counter
    /// only grows from one snapshot to the next, and the final totals are
    /// exactly what the writers recorded — the plain load-and-store of a
    /// single-writer shard loses nothing. The writers book completions in
    /// every mode and panics too, and each booking's busy nanoseconds are 1
    /// modulo `TAG`, so in every snapshot a shard's busy total modulo `TAG`
    /// must equal its task count: a count booked outside the seqlock
    /// section would let a reader see one without the other.
    #[test]
    fn single_writer_shards_stay_exact_under_a_concurrent_reader() {
        use std::sync::atomic::AtomicBool;

        const WRITERS: usize = 3;
        const RECORDS: u64 = 30_000;
        const TAG: u64 = 1 << 16;
        let model = PowerModel::for_host();
        let e = Arc::new(ExecutionEnv::new(
            model,
            Arc::new(SignificanceLadderGovernor::with_ladder(4, 0.4)),
            Some(SleepState::deep()),
            TransitionCost::free(),
            WRITERS,
        ));
        let decisions = [
            DispatchDecision::nominal(),
            DispatchDecision::stretch(FrequencyScale::new(0.6)),
            DispatchDecision::race(FrequencyScale::new(0.5)),
            DispatchDecision::stretch(FrequencyScale::with_exponent(0.6, 1.0)),
            DispatchDecision::stretch(FrequencyScale::new(0.8)),
        ];
        let done = Arc::new(AtomicBool::new(false));
        // The writers start only once the reader has sampled: a reader
        // thread scheduled late would otherwise find them finished.
        let start = Arc::new(std::sync::Barrier::new(WRITERS + 1));
        let reader = {
            let (e, done, start) = (e.clone(), done.clone(), start.clone());
            std::thread::spawn(move || {
                let (mut last, mut last_workers, mut reads) = (e.totals(), Vec::new(), 0u64);
                let mut sample = || {
                    let totals = e.totals();
                    let fields = |t: &EnvTotals| {
                        [
                            t.busy_nanos,
                            t.modelled_busy_nanos,
                            t.accurate_busy_nanos,
                            t.dynamic_nanojoules,
                            t.scaled_tasks,
                            t.frequency_transitions,
                        ]
                    };
                    for (now, before) in fields(&totals).into_iter().zip(fields(&last)) {
                        assert!(now >= before, "{totals:?} after {last:?}");
                    }
                    last = totals;
                    for shard in e.ledger() {
                        let tasks = shard.finished.iter().sum::<u64>() + shard.panicked;
                        assert_eq!(
                            shard.real_busy_nanos % TAG,
                            tasks,
                            "a count without its time"
                        );
                    }
                    let workers: Vec<_> = e
                        .report(1.0, WRITERS)
                        .workers
                        .iter()
                        .map(|w| {
                            [
                                w.sleep_entries,
                                w.scaled_tasks,
                                w.frequency_transitions,
                                (w.busy_seconds * 1e9).round() as u64,
                                (w.sleep_seconds * 1e9).round() as u64,
                            ]
                        })
                        .collect();
                    for (now, before) in workers.iter().zip(&last_workers) {
                        assert!(now.iter().zip(before).all(|(n, b)| n >= b), "{now:?}");
                    }
                    last_workers = workers;
                    reads += 1;
                };
                sample();
                start.wait();
                while !done.load(Ordering::Relaxed) {
                    sample();
                }
                reads
            })
        };
        let writers: Vec<_> = (0..WRITERS)
            .map(|worker| {
                let (e, start) = (e.clone(), start.clone());
                std::thread::spawn(move || {
                    start.wait();
                    // [busy, modelled, accurate, nJ, scaled, sleep, entries,
                    // switches, the three modes' task counts, panicked]
                    let mut expected = [0u64; 12];
                    let mut ratio = 1.0;
                    for i in 0..RECORDS {
                        let mode = [
                            ExecutionMode::Accurate,
                            ExecutionMode::Approximate,
                            ExecutionMode::Dropped,
                        ][i as usize % MODES];
                        let accurate = mode == ExecutionMode::Accurate;
                        let dispatched =
                            e.dispatch(worker, &ctx(0.1 + (i % 7) as f64 / 10.0, accurate));
                        if dispatched.scale().ratio() != ratio {
                            ratio = dispatched.scale().ratio();
                            expected[7] += 1;
                        }
                        let decision = decisions[(i as usize + worker) % decisions.len()];
                        let real = 1 + TAG * (1 + (i * 7_919 + worker as u64) % 5_000);
                        let scale = decision.scale();
                        let (modelled, watts) = if scale.is_nominal() {
                            (real, model.active_watts_per_core)
                        } else {
                            let modelled = (real as f64 * scale.time_dilation()) as u64;
                            (modelled, scale.scaled_active_watts(&model))
                        };
                        let sleep = (real as f64 * decision.slack_factor()) as u64;
                        if accurate {
                            expected[2] += modelled;
                        }
                        let panicked = i % 11 == 5;
                        let busy = Duration::from_nanos(real);
                        let (finished, failed) = (u64::from(!panicked), u64::from(panicked));
                        e.record_task(worker, mode, busy, decision, finished, failed);
                        expected[if panicked { 11 } else { 8 + mode.index() }] += 1;
                        expected[0] += real;
                        expected[1] += modelled;
                        expected[3] += (modelled as f64 * 1e-9 * watts * 1e9) as u64;
                        expected[4] += u64::from(!scale.is_nominal());
                        expected[5] += sleep;
                        expected[6] += u64::from(sleep > 0);
                    }
                    expected
                })
            })
            .collect();
        let expected = writers
            .into_iter()
            .map(|writer| writer.join().unwrap())
            .fold([0u64; 12], |sum, one| {
                std::array::from_fn(|i| sum[i] + one[i])
            });
        done.store(true, Ordering::Relaxed);
        assert!(reader.join().unwrap() > 0, "the reader sampled");

        let totals = e.totals();
        let report = e.report(1.0, WRITERS);
        let sleep_nanos: u64 = report
            .workers
            .iter()
            .map(|w| (w.sleep_seconds * 1e9).round() as u64)
            .sum();
        // The three modes' task counts, then panicked.
        let mut tasks = [0u64; MODES + 1];
        for shard in e.ledger() {
            let counts = shard.finished.into_iter().chain([shard.panicked]);
            tasks.iter_mut().zip(counts).for_each(|(sum, n)| *sum += n);
        }
        assert_eq!(
            [
                totals.busy_nanos,
                totals.modelled_busy_nanos,
                totals.accurate_busy_nanos,
                totals.dynamic_nanojoules,
                totals.scaled_tasks,
                sleep_nanos,
                report.sleep_entries(),
                totals.frequency_transitions,
            ]
            .into_iter()
            .chain(tasks)
            .collect::<Vec<_>>(),
            expected
        );
        assert!(
            expected.iter().all(|&n| n > 0),
            "every counter moved: {expected:?}"
        );
    }

    /// Satellite regression: a report sampled while a worker is mid-record
    /// must never observe a half-applied record — dilated busy time and
    /// dynamic nanojoules always move together (same seqlock epoch).
    #[test]
    fn report_sampled_during_execution_is_consistent() {
        use std::sync::atomic::AtomicBool;

        let model = PowerModel {
            sockets: 1,
            cores_per_socket: 2,
            static_watts_per_socket: 10.0,
            active_watts_per_core: 4.0,
            idle_watts_per_core: 1.0,
        };
        // Linear power exponent: scaled watts are exactly 4.0 · 0.5 = 2.0,
        // so every record adds bit-exact integer nanojoules and the
        // assertions below tolerate no rounding slack a torn read could
        // hide in.
        let step = FrequencyScale::with_exponent(0.5, 1.0);
        let e = Arc::new(ExecutionEnv::new(
            model,
            Arc::new(SignificanceLadderGovernor::new(vec![step])),
            None,
            TransitionCost::free(),
            1,
        ));
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let e = e.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let decision = e.dispatch(0, &ctx(0.2, false));
                assert_eq!(decision.scale().ratio(), 0.5);
                while !stop.load(Ordering::Relaxed) {
                    // Every record adds exactly 1 µs real, 2 µs modelled and
                    // 2 µs × scaled watts of dynamic energy.
                    e.record(
                        0,
                        ExecutionMode::Approximate,
                        Duration::from_micros(1),
                        decision,
                    );
                }
            })
        };
        let watts = step.scaled_active_watts(&model);
        for _ in 0..20_000 {
            let w = &e.report(1.0, 1).workers[0];
            // Consistent snapshot: the modelled time is exactly twice the
            // real time, and the dynamic energy prices exactly the modelled
            // time — in every sample, including mid-execution ones.
            assert!(
                (w.modelled_busy_seconds - 2.0 * w.busy_seconds).abs() < 1e-12,
                "torn busy snapshot: real {} vs modelled {}",
                w.busy_seconds,
                w.modelled_busy_seconds
            );
            assert!(
                (w.dynamic_joules - w.modelled_busy_seconds * watts).abs() < 1e-9,
                "torn energy snapshot: {} J for {} modelled seconds",
                w.dynamic_joules,
                w.modelled_busy_seconds
            );
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }
}
