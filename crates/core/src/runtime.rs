//! The significance-aware task runtime.
//!
//! This module ties the pieces together into the system described in
//! Section 3 of the paper:
//!
//! * a **master/slave work-sharing scheduler** — the spawning thread is the
//!   master, worker threads execute tasks from per-worker lock-free queues
//!   filled round-robin, stealing from each other when empty;
//! * **dependence tracking** over the `in()`/`out()` footprints declared at
//!   spawn time;
//! * the **execution policies** (significance-agnostic, GTB, GTB Max-Buffer,
//!   LQH) that pick the accurate or approximate body of each task while
//!   honouring the per-group accurate-task ratio;
//! * **barriers**: a global `taskwait`, a per-group `taskwait label(...)`, and
//!   `taskwait on(<data>)`, each optionally carrying a `ratio(...)` clause.
//!
//! # Scheduling hot path
//!
//! Executing a ready task takes **zero mutex acquisitions** on the worker
//! fast path: queue pops are single-CAS (`deque.rs`), the
//! accurate/approximate decision and the body handoff are a single atomic
//! byte plus take-once cells ([`crate::task`](mod@crate::task)), statistics
//! are per-worker shards ([`crate::stats`]), and completion signalling is a
//! worker-local count: a worker subtracts its completions from the
//! outstanding counters once per run of same-group tasks (at most
//! `RETIRE_BATCH` = 64, and whenever it runs out of work; see `Retired`),
//! and touches a condvar only when a barrier is actually waiting
//! (`sync::EventCount`). Idle workers park on a per-worker `sync::Parker`
//! and are woken *targeted* — the seed design's 1 ms idle polling loop and
//! per-completion `notify_all` broadcast are gone, and the queue-empty/wakeup
//! race they papered over is closed by the SeqCst sleep-flag protocol
//! documented in `sync.rs`.
//!
//! A spawn by [`TaskGroup`] handle takes no lock either: the handle carries
//! the group's state, so a record is bound to it without the group
//! registry. (A spawn by label, [`TaskBuilder::label`], still looks the
//! name up under the registry's lock every time.)
//!
//! **One writer per cache line.** No line the spawner writes once per spawn
//! holds a field a worker reads or writes once per task, and the reverse.
//! A line both sides write moves between their cores twice per task, and
//! so does a line one writes and the other only reads. Four lines on the
//! path are padded for it (`CachePadded`), each checked by a layout test
//! beside it:
//!
//! 1. the runtime's `next_task_id` and `outstanding` counters, off the
//!    configuration every worker reads per task (`id`, `policy`, `budget`,
//!    the queue array);
//! 2. the queue set's round-robin cursor, which every external push bumps;
//! 3. a group's `outstanding` count and GTB buffer, off its ratio, budget
//!    scale, cancellation flag and statistics shards, which also makes the
//!    group state line-aligned, so an `Arc<GroupState>`'s reference counts,
//!    which every fresh record bumps, sit on a line of their own;
//! 4. each worker's mailbox inbox, which a push CASes and counts, off the
//!    owner's deque and `ready` slot, which it writes on every pop.
//!
//! # Where a task record comes from and goes back to
//!
//! A spawn does not allocate in steady state. The worker that retires a task
//! and holds the only reference to its record blanks it in place and keeps
//! the `Arc<Task>` — a *husk* — in a thread-local stash; every 64 go to a
//! shared pool under one lock. A spawn pops a husk from the calling thread's
//! stash (a worker's nested spawns never leave it; a spawner thread takes 64
//! from the pool when it runs out) and refills it through `Arc::get_mut`;
//! `Arc::new` is the cold start of the same path, not a second one. A record
//! is reused only while *uniquely held* — `Arc::get_mut` fails as long as a
//! queue slot, a successor list, the dependence tracker or a GTB buffer still
//! points at it — so no stale `TaskId`, [`SpawnHandle`], cancel range or
//! deque slot can ever observe the reuse, and there are no generation tags
//! to check and no `unsafe` to justify. The pool is bounded by
//! `HUSK_POOL_CAP` and emptied at quiescence: a barrier that returns with
//! nothing outstanding frees it, and a worker gives up its stash as soon as
//! it runs out of work. See `HuskPool`.
//!
//! Whoever lets go of a record reference hands it to `RuntimeInner::recycle`
//! instead of dropping it, so the last one to let go — whoever that is —
//! makes the husk, on its own thread:
//!
//! * the **worker** that retired the task, for a footprint-free task
//!   always the last holder — under GTB too: the spawner lets go of a
//!   buffered record before the flush it triggers, and the flush hands each
//!   record it holds alone straight to a queue, primed through `&mut`,
//!   keeping no reference of its own (records something else still holds go
//!   the atomic way; see `RuntimeInner::flush_tasks`);
//! * the **spawner registering a later footprint**, for a task that declared
//!   `in`/`out` keys. The tracker outlives the worker's reference (it names
//!   the task as its key's last writer, or lists it as a reader), so the
//!   worker's `recycle` finds the record shared and walks away; the
//!   reference comes back when a later registration seals the epoch that
//!   lists the reader, or frees the retired epoch that names the writer
//!   (`deps.rs`, "What the tracker retains, and when it lets go"), and
//!   `RuntimeInner::wire_dependences` recycles it — together with the
//!   predecessors it held while wiring — into the *registering* thread's
//!   stash, which is the thread about to need one;
//! * a [`TaskBuilder`] **dropped unspawned**, which took a record when it
//!   was given keys (they are written straight into the record's own
//!   buffers, whose capacity `Task::reset` keeps).
//!
//! # Example
//!
//! ```
//! use sig_core::{Runtime, Policy, Significance};
//! use std::sync::Arc;
//! use std::sync::atomic::{AtomicUsize, Ordering};
//!
//! let rt = Runtime::builder()
//!     .workers(4)
//!     .policy(Policy::Gtb { buffer_size: 16 })
//!     .build();
//! let group = rt.create_group("demo", 0.5);
//! let accurate_runs = Arc::new(AtomicUsize::new(0));
//! let approx_runs = Arc::new(AtomicUsize::new(0));
//!
//! for i in 0..100u32 {
//!     let acc = accurate_runs.clone();
//!     let apx = approx_runs.clone();
//!     rt.task(move || { acc.fetch_add(1, Ordering::Relaxed); })
//!         .approx(move || { apx.fetch_add(1, Ordering::Relaxed); })
//!         .significance(((i % 9) + 1) as f64 / 10.0)
//!         .group(&group)
//!         .spawn();
//! }
//! rt.wait_group(&group);
//! let stats = rt.group_stats(&group);
//! assert_eq!(stats.total(), 100);
//! assert!(stats.accurate >= 50);
//! ```

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sig_energy::{
    BudgetConfig, BudgetSetpoint, BudgetTarget, PowerModel, SleepState, TransitionCost,
};

use crate::deps::{DepKey, DependenceTracker, Registration};
use crate::deque::QueueSet;
use crate::env::{EnergyReport, ExecutionEnv};
use crate::faults::{FaultAction, FaultPlan};
use crate::governor::{DispatchContext, Governor, NominalGovernor};
use crate::group::{GroupId, GroupRegistry, GroupState, TaskGroup};
use crate::handle::{HandleCore, HandleNotify, SpawnHandle, TaskOutcome};
use crate::policy::{GtbQuota, LqhState, Policy};
use crate::significance::Significance;
use crate::stats::{GroupStatsSnapshot, OutcomeSummary, RuntimeStats};
use crate::sync::{CachePadded, EventCount, Parker};
use crate::task::{CancelToken, ExecutionMode, Task, TaskBody, TaskId};

/// Issues a unique id per runtime so the worker thread-local below can tell
/// which runtime (if any) the current thread belongs to.
static NEXT_RUNTIME_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// `(runtime id, worker index)` of the current thread, if it is a worker.
    /// Id `0` is never issued, so the default means "not a worker".
    static CURRENT_WORKER: Cell<(u64, usize)> = const { Cell::new((0, 0)) };

    /// `(runtime id, blank task records)` this thread holds for that runtime
    /// (see [`HuskPool`]). A worker fills it from the tasks it retires and
    /// spawns nested tasks out of it; a spawner thread refills it from the
    /// shared pool a batch at a time. Neither takes a lock to touch it.
    static HUSK_STASH: RefCell<(u64, Vec<Arc<Task>>)> = const { RefCell::new((0, Vec::new())) };

    /// The predecessor and hand-back lists of this thread's footprint spawns
    /// (see [`Registration`]): empty between spawns, kept for their capacity
    /// so that registering a footprint allocates neither.
    static REGISTRATION: RefCell<Registration> = const { RefCell::new(Registration::new()) };
}

/// Builder for [`Runtime`] instances.
#[derive(Clone, Default)]
pub struct RuntimeBuilder {
    workers: Option<usize>,
    policy: Policy,
    energy_model: Option<PowerModel>,
    governor: Option<Arc<dyn Governor>>,
    sleep_state: Option<SleepState>,
    transition_cost: Option<TransitionCost>,
    queue_watermark: Option<usize>,
    miss_watermark: Option<f64>,
    fault_plan: Option<FaultPlan>,
    energy_budget: Option<BudgetConfig>,
}

impl std::fmt::Debug for RuntimeBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuntimeBuilder")
            .field("workers", &self.workers)
            .field("policy", &self.policy)
            .field("energy_model", &self.energy_model)
            .field("governor", &self.governor.as_ref().map(|g| g.name()))
            .field("sleep_state", &self.sleep_state)
            .field("transition_cost", &self.transition_cost)
            .field("queue_watermark", &self.queue_watermark)
            .field("miss_watermark", &self.miss_watermark)
            .field("fault_plan", &self.fault_plan)
            .field("energy_budget", &self.energy_budget)
            .finish()
    }
}

impl RuntimeBuilder {
    /// Number of worker threads. Defaults to the host's available
    /// parallelism.
    pub fn workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "a runtime needs at least one worker");
        self.workers = Some(workers);
        self
    }

    /// The execution policy (default: [`Policy::SignificanceAgnostic`]).
    pub fn policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Power model used by the runtime's energy accounting (default:
    /// [`PowerModel::for_host`]).
    pub fn energy_model(mut self, model: PowerModel) -> Self {
        self.energy_model = Some(model);
        self
    }

    /// Frequency governor mapping each task's significance/policy decision
    /// to a DVFS step at dispatch time (default: [`NominalGovernor`], i.e.
    /// no frequency scaling).
    pub fn governor(mut self, governor: impl Governor + 'static) -> Self {
        self.governor = Some(Arc::new(governor));
        self
    }

    /// [`RuntimeBuilder::governor`] for an already-shared governor.
    pub fn governor_arc(mut self, governor: Arc<dyn Governor>) -> Self {
        self.governor = Some(governor);
        self
    }

    /// Sleep state race-to-idle residency is priced at (default: none —
    /// residency is priced like ordinary shallow idle, with no static
    /// gating and free wakeups). Pair a deep state with an
    /// [`crate::AdaptiveGovernor`] (or its always-race form,
    /// [`crate::AdaptiveGovernor::race_to_idle`]) to model "finish fast,
    /// sleep deep" execution.
    pub fn sleep_state(mut self, state: SleepState) -> Self {
        self.sleep_state = Some(state);
        self
    }

    /// Cost charged per DVFS frequency-domain switch (default:
    /// [`TransitionCost::free`], the idealised pre-transition-model
    /// accounting). Set [`TransitionCost::typical`] to make governor
    /// thrashing visible in the energy report.
    pub fn transition_cost(mut self, cost: TransitionCost) -> Self {
        self.transition_cost = Some(cost);
        self
    }

    /// Queue depth (issued but not yet started tasks) at which the brownout
    /// overload controller begins shedding approximate-tier work (default:
    /// disabled). The shed threshold grows linearly with the overshoot: at
    /// twice the watermark every sub-critical task the policy decided to run
    /// approximately is shed. Accurate-decided and critical tasks are never
    /// shed.
    pub fn queue_watermark(mut self, depth: usize) -> Self {
        assert!(depth > 0, "queue watermark must be positive");
        self.queue_watermark = Some(depth);
        self
    }

    /// Deadline-miss rate (fraction of completed tasks that finished past
    /// their deadline, in `[0, 1]`) above which the overload controller
    /// sheds every sub-critical approximate-tier task (default: disabled).
    pub fn deadline_miss_watermark(mut self, rate: f64) -> Self {
        assert!(
            rate.is_finite() && (0.0..=1.0).contains(&rate),
            "deadline-miss watermark must be a finite rate in [0, 1], got {rate}"
        );
        self.miss_watermark = Some(rate);
        self
    }

    /// Deterministic fault-injection plan applied to every non-system task
    /// (default: none). Chaos-testing hook; see [`FaultPlan`].
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Enforce an online energy budget (default: none). A
    /// [`sig_energy::BudgetController`] samples the runtime's own
    /// [`Runtime::energy_report_at`] deltas from the execute path (amortised,
    /// like the brownout controller) and re-targets two knobs from what it
    /// *observes* rather than what the power model predicts: a
    /// multiplicative throttle on every group's accurate-task ratio (groups
    /// pinned at ratio 1.0 are exempt — critical work is never degraded) and
    /// a frequency cap on approximate dispatches via
    /// [`ExecutionEnv::set_dispatch_cap`]. With no budget configured the
    /// dispatch path is bit-for-bit identical to previous releases.
    pub fn energy_budget(mut self, config: BudgetConfig) -> Self {
        self.energy_budget = Some(config);
        self
    }

    /// Construct the runtime and start its worker threads.
    pub fn build(self) -> Runtime {
        Runtime::start(self)
    }
}

/// Brownout overload controller: build-time watermarks plus the current shed
/// threshold, recomputed amortised (every [`OverloadState::TICK_MASK`]` + 1`
/// executes per worker) from queue depth and the deadline-miss rate.
struct OverloadState {
    /// Queue depth at which shedding starts (`usize::MAX` = disabled).
    queue_watermark: usize,
    /// Deadline-miss fraction above which every sub-critical approximate
    /// tier is shed (`INFINITY` = disabled).
    miss_watermark: f64,
    /// Current shed threshold in `[0, 1]`, stored as `f64` bits so the
    /// execution hot path reads it with one relaxed load. Tasks the policy
    /// decided to run non-accurately shed iff their significance is strictly
    /// below the threshold; `0.0` therefore disables shedding outright. On
    /// its own cache line: read by every worker, written only on recompute.
    shed_bits: CachePadded<AtomicU64>,
    /// Precomputed "any watermark configured" flag: the disabled-runtime
    /// cost of the controller is this one byte load per execute.
    enabled: bool,
}

impl OverloadState {
    /// Recompute the shed threshold once per this many + 1 executes *per
    /// worker* (the tick counters live in worker-local memory).
    const TICK_MASK: usize = 31;

    fn new(queue_watermark: Option<usize>, miss_watermark: Option<f64>) -> Self {
        let queue_watermark = queue_watermark.unwrap_or(usize::MAX);
        let miss_watermark = miss_watermark.unwrap_or(f64::INFINITY);
        OverloadState {
            queue_watermark,
            miss_watermark,
            shed_bits: CachePadded::new(AtomicU64::new(0.0f64.to_bits())),
            enabled: queue_watermark != usize::MAX || miss_watermark.is_finite(),
        }
    }

    /// Whether any watermark was configured.
    fn enabled(&self) -> bool {
        self.enabled
    }

    /// Current shed threshold; one relaxed load.
    fn threshold(&self) -> f64 {
        f64::from_bits(self.shed_bits.load(Ordering::Relaxed))
    }

    /// Whether the controller currently sheds anything at all.
    fn is_overloaded(&self) -> bool {
        self.threshold() > 0.0
    }
}

/// Online energy-budget loop state: the controller plus its sampling pacing.
/// Amortised like [`OverloadState`]: every `TICK_MASK + 1` executes per
/// worker one worker *tries* to take the turn (`try_lock`, never blocking
/// the execute path), and takes a sample only once the minimum interval has
/// elapsed — so tiny tasks don't oversample and idle periods are simply
/// sampled at the next execute.
struct BudgetState {
    inner: Mutex<BudgetInner>,
}

struct BudgetInner {
    controller: sig_energy::BudgetController,
    /// Next sample time, nanoseconds since runtime start.
    next_sample_nanos: u64,
    interval_nanos: u64,
    setpoint: BudgetSetpoint,
}

impl BudgetState {
    /// Attempt a budget sample once per this many + 1 executes per worker.
    const TICK_MASK: usize = 31;

    fn new(config: BudgetConfig) -> Self {
        // Sample pacing: ~1/200th of the horizon for joule budgets (enough
        // observations to converge well inside the tolerance band), 1 ms for
        // open-ended watt envelopes; clamped to [50 µs, 50 ms].
        let interval_seconds = match config.target {
            BudgetTarget::TotalJoules {
                horizon_seconds, ..
            } => (horizon_seconds / 200.0).clamp(50e-6, 50e-3),
            BudgetTarget::WattEnvelope { .. } => 1e-3,
        };
        BudgetState {
            inner: Mutex::new(BudgetInner {
                controller: sig_energy::BudgetController::new(config),
                next_sample_nanos: 0,
                interval_nanos: (interval_seconds * 1e9) as u64,
                setpoint: BudgetSetpoint::unconstrained(config.target.planned_watts(0.0, 0.0)),
            }),
        }
    }
}

/// Records moved between a thread's stash and the shared pool at a time: one
/// pool lock per this many spawns or retirements.
const HUSK_BATCH: usize = 64;

/// Records the shared pool holds before retiring workers free instead: 1024,
/// about 200 KB. Sized from need, not speed — sigbench `sched_fine`
/// throughput was flat from 64 to 65 536, because what the pool buys is the
/// pass-through, not the stock. The stock only has to absorb one swing from
/// "spawner ahead" to "worker caught up": peak in-flight depth over 14
/// agnostic/LQH passes of 100k tasks read 180-1411 records in nine and
/// 2.7k-18k in five, when the worker lost its CPU (median about 1200);
/// the deep ones fall back to the allocator. So does GTB Max-Buffer, by
/// construction rather than by a swing: it holds a whole group's records
/// live until the barrier flushes them, so a 100k-task group needs 100k
/// records at once whatever the pool holds, and the workers free all but
/// this many as they retire them. Bounded GTB recycles like the agnostic
/// path: a window of `B` records is back in the pool before long.
const HUSK_POOL_CAP: usize = 1024;

/// Blank task records ("husks") on their way from the workers that retired
/// them back to spawners — the shared half of the recycling described in the
/// module docs ("Where a task record comes from and goes back to"); the other
/// half is each thread's `HUSK_STASH`. What it buys: the steady-state spawn
/// path allocates nothing, so spawner and worker stop meeting on the
/// allocator's arena lock once per task each.
///
/// Nothing pooled outlives the burst that needed it: a barrier that returns
/// with nothing outstanding frees the pool and the caller's stash, a worker
/// gives up its stash the moment it runs out of work, and a hand-back that
/// finds the runtime idle frees instead of pooling. (A spawner thread that
/// is not the one waiting keeps at most one batch until it next spawns,
/// waits or exits.)
struct HuskPool {
    husks: Mutex<Vec<Arc<Task>>>,
    /// `husks.len()`, so a dry pool costs a spawner a load, not a lock.
    available: AtomicUsize,
}

impl HuskPool {
    /// Never poisoned in a way that matters: every update under the lock
    /// moves whole `Arc`s between two `Vec`s.
    fn lock(&self) -> MutexGuard<'_, Vec<Arc<Task>>> {
        self.husks.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Completions a worker publishes at once: its batch goes out when it holds
/// this many, so `Runtime::outstanding_tasks` reads at most this many per
/// busy worker above the true count.
const RETIRE_BATCH: usize = 64;

/// A worker's retired tasks not yet subtracted from the outstanding counts,
/// all of one group. The spawner adds to `outstanding` and to the group's
/// count per task; the worker takes them off once per run of same-group
/// tasks instead, in [`RuntimeInner::publish`], so the two lines stop
/// bouncing between the threads twice per task.
///
/// Invariant: a non-empty batch holds only completions of the group of the
/// task its worker is running or about to run. `execute` publishes before a
/// task of another group (a system task belongs to the global group), the
/// batch publishes itself at [`RETIRE_BATCH`], and the worker publishes
/// whenever it finds no work. Hence:
///
/// * a group barrier the batch delays is one the running task delays
///   anyway, and `wait_all` always waits for the running task;
/// * a body blocked in a nested barrier on another group holds back
///   nothing that barrier needs;
/// * no barrier returns early, since the counts are only ever overstated.
#[derive(Default)]
struct Retired {
    /// The batch's group; `Some` exactly while `count` is not zero, so an
    /// idle worker keeps no group alive.
    group: Option<Arc<GroupState>>,
    count: usize,
}

impl Retired {
    /// Whether a task of `group` may retire into this batch unpublished.
    fn admits(&self, group: &Arc<GroupState>) -> bool {
        self.group
            .as_ref()
            .is_none_or(|held| Arc::ptr_eq(held, group))
    }
}

/// Shared state between the master, the workers and the public handle.
struct RuntimeInner {
    id: u64,
    policy: Policy,
    queues: QueueSet,
    groups: GroupRegistry,
    /// The implicit global group, cached so unlabeled spawns skip the
    /// registry lock.
    global_group: Arc<GroupState>,
    tracker: DependenceTracker,
    stats: RuntimeStats,
    /// Per-worker DVFS frequency domains and energy accounting shards.
    env: ExecutionEnv,
    /// Runtime creation time, the start of the energy-accounting window.
    started: Instant,
    /// Bumped by every spawn: padded off the configuration above and below
    /// it, which every worker reads per task.
    next_task_id: CachePadded<AtomicU64>,
    /// Blank task records awaiting reuse.
    husks: HuskPool,
    /// Tasks spawned and not yet completed, across all groups. A single
    /// counter (not a sum over groups): `wait_all` must observe spawn and
    /// completion atomically even when a task body spawns children into
    /// other groups mid-barrier. Workers subtract in batches ([`Retired`]),
    /// so it may read above the true count, never below. Bumped by every
    /// spawn, so on a line of its own like `next_task_id`.
    outstanding: CachePadded<AtomicUsize>,
    /// Brownout overload controller (watermarks + current shed threshold).
    overload: OverloadState,
    /// Online energy-budget loop, if `RuntimeBuilder::energy_budget` was set.
    budget: Option<BudgetState>,
    /// Deterministic fault-injection plan, if chaos testing is enabled.
    faults: Option<FaultPlan>,
    /// Cancelled task-id ranges (`cancel_tasks`). Cold master-side state; the
    /// execution hot path checks `cancel_active` (one load) before touching
    /// the lock.
    cancel_ranges: Mutex<Vec<(u64, u64)>>,
    /// Whether any id-range cancellation was ever requested.
    cancel_active: AtomicBool,
    shutdown: AtomicBool,
    /// One parker per worker for targeted wakeups.
    parkers: Box<[Parker]>,
    /// Number of workers currently in (or entering) a park.
    sleepers: AtomicUsize,
    /// Barrier for `wait_all`: notified when `outstanding` hits zero.
    idle_barrier: EventCount,
    /// Barrier for `wait_on`: notified whenever a writing task completes.
    writes_barrier: EventCount,
}

impl RuntimeInner {
    /// Worker index of the calling thread, if it belongs to this runtime.
    fn local_worker(&self) -> Option<usize> {
        let (id, index) = CURRENT_WORKER.get();
        (id == self.id).then_some(index)
    }

    /// Run `f` on the calling thread's husk stash. Husks left there by
    /// another runtime are freed first, so everything `f` sees is this
    /// runtime's. `None` only while the thread's locals are being torn down.
    fn with_stash<R>(&self, f: impl FnOnce(&mut Vec<Arc<Task>>) -> R) -> Option<R> {
        HUSK_STASH
            .try_with(|stash| {
                let mut stash = stash.borrow_mut();
                let (runtime, husks) = &mut *stash;
                if *runtime != self.id {
                    *runtime = self.id;
                    // Husks are blank: dropping them runs no user code that
                    // could re-enter the borrowed stash.
                    husks.clear();
                }
                f(husks)
            })
            .ok()
    }

    /// A husk from the calling thread's stash (refilled from the pool, one
    /// lock per batch), bound to whatever group used it last; `None` if both
    /// are dry.
    fn pop_husk(&self) -> Option<Arc<Task>> {
        self.with_stash(|stash| {
            if stash.is_empty() && self.husks.available.load(Ordering::Relaxed) > 0 {
                let mut pool = self.husks.lock();
                let rest = pool.len().saturating_sub(HUSK_BATCH);
                stash.extend(pool.drain(rest..));
                self.husks.available.store(rest, Ordering::Relaxed);
            }
            stash.pop()
        })
        .flatten()
    }

    /// `husk` bound to `group`, or a fresh allocation if there is none. A
    /// husk last used by the same group keeps its `Arc<GroupState>`, so
    /// steady-state spawns do not touch the group's refcount; the others
    /// clone the caller's `Arc` (the spawn's [`TaskGroup`] handle, or the
    /// cached global group), so no spawn takes the group registry's lock.
    fn bind_husk(&self, husk: Option<Arc<Task>>, group: &Arc<GroupState>) -> Arc<Task> {
        match husk {
            Some(mut husk) => {
                if !Arc::ptr_eq(&husk.group_state, group) {
                    Arc::get_mut(&mut husk)
                        .expect("a husk is uniquely held")
                        .group_state = group.clone();
                }
                husk
            }
            None => Arc::new(Task::blank(group.clone())),
        }
    }

    /// A blank, uniquely held record bound to `group`.
    fn husk_in(&self, group: &Arc<GroupState>) -> Arc<Task> {
        self.bind_husk(self.pop_husk(), group)
    }

    /// Register `task`'s footprint with the dependence tracker and put the
    /// task on the successor list of every predecessor still running; returns
    /// how many took it. Every record reference this lets go of — the
    /// predecessors it held while wiring, and whatever the tracker released
    /// (readers of epochs it sealed, writers of retired epochs it freed) —
    /// goes through [`RuntimeInner::recycle`], here on the spawning thread:
    /// that is how a footprint task's record, which its worker could not
    /// recycle because the tracker still pointed at it, becomes a husk.
    fn wire_dependences(&self, task: &Arc<Task>) -> usize {
        // Taken out rather than borrowed, so nothing below runs under a
        // thread-local borrow; a thread being torn down starts from empty.
        let mut scratch = REGISTRATION
            .try_with(|scratch| std::mem::take(&mut *scratch.borrow_mut()))
            .unwrap_or_default();
        self.tracker
            .register(task, &task.in_keys, &task.out_keys, &mut scratch);
        let mut wired = 0;
        for predecessor in scratch.preds.drain(..) {
            // `try_push` fails iff the predecessor completed since the
            // tracker looked (its successor list is sealed): no dependence
            // to count.
            if predecessor.successors.try_push(task) {
                wired += 1;
            }
            self.recycle(predecessor);
        }
        for record in scratch.released.drain(..) {
            self.recycle(record);
        }
        // One huge seal must not pin its buffer to the thread for ever.
        scratch.preds.shrink_to(HUSK_BATCH);
        scratch.released.shrink_to(HUSK_BATCH);
        let _ = REGISTRATION.try_with(|slot| *slot.borrow_mut() = scratch);
        wired
    }

    /// Where every record reference goes when its holder is done with it —
    /// a worker after [`RuntimeInner::complete`], a spawner after wiring
    /// (see [`RuntimeInner::wire_dependences`]), a builder dropped unspawned:
    /// if this was the only reference, blank the record and keep it for the
    /// calling thread's next spawn; otherwise whoever lets go last gets it.
    fn recycle(&self, mut task: Arc<Task>) {
        let Some(record) = Arc::get_mut(&mut task) else {
            return;
        };
        // Outside the stash borrow: dropping a handle or a leftover body may
        // run user code, which may spawn.
        record.reset();
        self.with_stash(|stash| {
            stash.push(task);
            if stash.len() >= 2 * HUSK_BATCH {
                self.hand_back(stash, HUSK_BATCH);
            }
        });
    }

    /// Move all but `keep` of `stash` to the shared pool — or free them, for
    /// what the pool has no room for and for everything once the runtime has
    /// gone idle. The idle check sits under the lock that
    /// [`RuntimeInner::free_husks_if_idle`] takes *after* it saw zero
    /// outstanding: either that barrier finds these husks, or this finds its
    /// zero, so a retirement racing the barrier's return cannot strand husks
    /// in the pool.
    fn hand_back(&self, stash: &mut Vec<Arc<Task>>, keep: usize) {
        if stash.len() <= keep {
            return;
        }
        let mut pool = self.husks.lock();
        if self.outstanding.load(Ordering::SeqCst) != 0 {
            let room = HUSK_POOL_CAP.saturating_sub(pool.len());
            let give = (stash.len() - keep).min(room);
            pool.extend(stash.drain(stash.len() - give..));
            self.husks.available.store(pool.len(), Ordering::Relaxed);
        }
        drop(pool);
        stash.truncate(keep);
    }

    /// Quiescence: a barrier returned. If nothing is outstanding, free every
    /// pooled husk and the calling thread's stash, so neither the records
    /// nor the `Arc<GroupState>` each carries outlive the burst.
    fn free_husks_if_idle(&self) {
        if self.outstanding.load(Ordering::SeqCst) != 0 {
            return;
        }
        let stash = self.with_stash(std::mem::take);
        let pooled = {
            let mut pool = self.husks.lock();
            self.husks.available.store(0, Ordering::Relaxed);
            std::mem::take(&mut *pool)
        };
        // Freed outside the lock.
        drop((stash, pooled));
    }

    /// Amortised overload recomputation, called from the execute path (the
    /// only place the shed threshold is consumed, so spawn-side ticks would
    /// buy nothing: a stale threshold while nothing executes is harmless).
    /// `tick` is the calling worker's private counter, threaded down from
    /// its run loop — most calls are one increment of worker-local memory
    /// with no shared-line traffic at all; every `TICK_MASK + 1`-th call
    /// per worker recomputes the shed threshold from the current queue
    /// depth and deadline-miss rate.
    fn overload_tick(&self, t: usize) {
        let overload = &self.overload;
        if !overload.enabled() {
            return;
        }
        if t & OverloadState::TICK_MASK != 0 {
            return;
        }
        let mut pressure = 0.0f64;
        if overload.queue_watermark != usize::MAX {
            let depth = self.queues.total_queued();
            if depth > overload.queue_watermark {
                let watermark = overload.queue_watermark.max(1) as f64;
                pressure = ((depth - overload.queue_watermark) as f64 / watermark).clamp(0.0, 1.0);
            }
        }
        if overload.miss_watermark.is_finite() {
            let completed = self.stats.completed();
            if completed > 0 {
                let rate = self.stats.deadline_misses() as f64 / completed as f64;
                if rate > overload.miss_watermark {
                    pressure = 1.0;
                }
            }
        }
        overload
            .shed_bits
            .store(pressure.to_bits(), Ordering::Relaxed);
    }

    /// Amortised energy-budget sample, called from the execute path next to
    /// [`RuntimeInner::overload_tick`]. `try_lock` keeps it wait-free for
    /// every worker but the one taking the sample; the minimum-interval
    /// check inside makes the sampling rate task-size independent.
    fn budget_tick(&self, t: usize) {
        let Some(budget) = &self.budget else { return };
        if t & BudgetState::TICK_MASK != 0 {
            return;
        }
        let Ok(mut inner) = budget.inner.try_lock() else {
            return;
        };
        let elapsed = self.started.elapsed();
        let now_nanos = elapsed.as_nanos().min(u64::MAX as u128) as u64;
        if now_nanos < inner.next_sample_nanos {
            return;
        }
        inner.next_sample_nanos = now_nanos + inner.interval_nanos;
        let wall = elapsed.as_secs_f64();
        let reading = self.env.report(wall, self.parkers.len()).reading();
        let setpoint = inner.controller.observe(wall, &reading);
        inner.setpoint = setpoint;
        drop(inner);
        self.apply_budget_setpoint(&setpoint);
    }

    /// Push a controller setpoint into the two actuators: the environment's
    /// approximate-dispatch frequency cap and every group's budget throttle
    /// (groups at ratio 1.0 are exempt inside `effective_ratio`).
    fn apply_budget_setpoint(&self, setpoint: &BudgetSetpoint) {
        self.env.set_dispatch_cap(setpoint.frequency_cap);
        for group in self.groups.all() {
            group.set_budget_scale(setpoint.ratio_scale);
        }
    }

    /// Whether `id` falls in a range cancelled via `Runtime::cancel_tasks`.
    fn id_cancelled(&self, id: TaskId) -> bool {
        if !self.cancel_active.load(Ordering::Acquire) {
            return false;
        }
        self.cancel_ranges
            .lock()
            .unwrap()
            .iter()
            .any(|&(start, end)| (start..end).contains(&id.0))
    }

    /// Abandon a task without running either body: drop the bodies, poison
    /// its written keys so dependents observe the failure, account it as
    /// shed (brownout) or cancelled, and run the full completion protocol —
    /// abandoned tasks still release successors and barriers, keeping the
    /// exactly-once accounting `spawned == completed + cancelled + shed +
    /// panicked` intact.
    fn abandon(&self, task: &Arc<Task>, worker: usize, shed: bool, retired: &mut Retired) {
        // SAFETY: this worker dequeued the task and is its unique executor.
        unsafe {
            drop(task.take_accurate());
            drop(task.take_approximate());
        }
        if !task.out_keys.is_empty() {
            self.tracker.poison_writes(&task.out_keys);
        }
        if shed {
            self.stats.record_shed(worker, task.significance.level());
            task.notify_handle(TaskOutcome::Shed);
        } else {
            task.request_cancel();
            self.stats.record_cancelled(worker);
            task.notify_handle(TaskOutcome::Cancelled);
        }
        self.complete(task, retired);
    }

    /// Try to move a task into a worker queue. A task is enqueued exactly
    /// once, as soon as it is both *released* (by the master / a GTB flush)
    /// and *ready* (all predecessors completed).
    fn try_enqueue(&self, task: &Arc<Task>) {
        if task.is_released() && task.is_ready() && task.claim_enqueue() {
            let target = self.queues.push(task.clone(), self.local_worker());
            self.wake_for_push(target);
        }
    }

    /// Wake the worker whose queue just received work; if it is already
    /// running, wake one sleeper instead so the task is stealable without
    /// delay. Both checks are single atomic loads when everyone is busy —
    /// no broadcast, no mutex.
    fn wake_for_push(&self, target: usize) {
        if self.parkers[target].unpark_if_sleeping() {
            return;
        }
        self.wake_one_sleeper(usize::MAX);
    }

    /// Wake one sleeping worker other than `except` (pass `usize::MAX` for
    /// no exclusion). A single atomic load when nobody sleeps.
    fn wake_one_sleeper(&self, except: usize) {
        if self.sleepers.load(Ordering::SeqCst) == 0 {
            return;
        }
        for (index, parker) in self.parkers.iter().enumerate() {
            if index != except && parker.unpark_if_sleeping() {
                return;
            }
        }
    }

    /// One coalesced wake for a whole injected batch: scan the `touched`
    /// consecutive workers whose queues just received a chunk (a cheap flag
    /// load each when they are already running) and unpark **the first
    /// sleeping one only**; if none of them sleeps, wake one other sleeper
    /// so the batch is stealable without delay. A single unpark replaces
    /// one `wake_for_push` per task — the dominant syscall cost of
    /// fine-grained floods. The rest of the pool is woken by *propagation*:
    /// every steal that deposits surplus work (and every take of mail that
    /// leaves a backlog) wakes one further sleeper, spreading a large batch
    /// geometrically without the master paying one syscall per worker.
    fn wake_for_batch(&self, push: &crate::deque::BatchPush) {
        let count = self.parkers.len();
        for offset in 0..push.touched.min(count) {
            if self.parkers[(push.first + offset) % count].unpark_if_sleeping() {
                return;
            }
        }
        self.wake_one_sleeper(usize::MAX);
    }

    /// Flushes that leave at least this many records to push fan the push
    /// out to the workers instead of running it on the flushing thread.
    /// Deciding is a plain store per record; what a large Max-Buffer flush
    /// still pays per record is its enqueue. From a thread that is not a
    /// worker that means linking the record into a mailbox, which its taker
    /// walks once more to reverse; a worker pushing onto its own deque
    /// touches the ring only. Without the fan-out, `sched_fine` spent about
    /// 9 % more CPU per task.
    const PARALLEL_FLUSH_MIN: usize = 4096;
    /// Records pushed per worker chunk in a parallel flush.
    const FLUSH_CHUNK: usize = 1024;

    /// GTB flush of one group's `window` (its buffered records, in spawn
    /// order): decide every record against the window's [`GtbQuota`], then
    /// hand them to the workers. The drained window becomes the calling
    /// thread's spare buffer ([`crate::group::return_window`]).
    ///
    /// A record only the window holds, with no pending dependence — every
    /// footprint-free task, since its spawner lets go before it can trigger
    /// a flush — is decided, released and marked enqueued through `&mut`
    /// ([`Task::prime_flush_enqueued`]), and the lot goes out in one
    /// `push_batch` with one coalesced wake. A shared record — one the
    /// dependence tracker or a predecessor's successor list also holds —
    /// takes the atomic `decide` → `release` → `try_enqueue` path, whose
    /// SeqCst pairing with the last predecessor's completion is documented
    /// on `Task::release`.
    fn flush_tasks(self: &Arc<Self>, mut window: Vec<Arc<Task>>) {
        if let Some(first) = window.first() {
            self.stats.record_flush();
            let ratio = first.group_state.effective_ratio();
            let mut quota = GtbQuota::new(window.iter().map(|task| task.significance), ratio);
            // Spawn order: that is the order the quota breaks ties in.
            window.retain_mut(|task| {
                let accurate = quota.admit(task.significance);
                if let Some(record) = Arc::get_mut(task) {
                    if *record.pending_deps.get_mut() == 0 {
                        record.prime_flush_enqueued(accurate);
                        return true;
                    }
                }
                task.decide(accurate);
                task.release();
                self.try_enqueue(task);
                false
            });
            // Large-group flush: the workers push the records, a chunk at
            // a time, from internal system tasks; the window's buffer goes
            // with them (a thread keeps only a small spare window anyway,
            // see `group::return_window`). The group barrier stays correct
            // without waiting on them: every buffered task already counts
            // in the group's `outstanding`, and can only complete after a
            // system task pushes it.
            if window.len() >= Self::PARALLEL_FLUSH_MIN {
                let records = std::mem::take(&mut window);
                let inner = self.clone();
                self.spawn_system(move || inner.push_flush_chunks(records));
            } else if !window.is_empty() {
                self.push_flushed(window.drain(..));
            }
        }
        crate::group::return_window(window);
    }

    /// Push the newest chunk of a large flush's `records` from the worker
    /// running this, then queue the rest as a new system task behind that
    /// chunk. A worker's deque thus holds about one chunk of a flush at a
    /// time. Spawning every chunk's task up front would not: a worker's
    /// take of mail moves dozens of them onto its deque ahead of the
    /// records they push, runs them all first and grows its ring to hold
    /// every chunk at once. A thief that steals the rest carries the push
    /// to its own worker.
    fn push_flush_chunks(self: &Arc<Self>, mut records: Vec<Arc<Task>>) {
        let cut = records.len().saturating_sub(Self::FLUSH_CHUNK);
        self.push_flushed(records.drain(cut..));
        if !records.is_empty() {
            let inner = self.clone();
            self.spawn_system(move || inner.push_flush_chunks(records));
        }
    }

    /// Queue records a flush primed as enqueued, with one coalesced wake.
    fn push_flushed<I>(&self, records: I)
    where
        I: IntoIterator<Item = Arc<Task>>,
        I::IntoIter: ExactSizeIterator,
    {
        let push = self.queues.push_batch(records, self.local_worker());
        self.wake_for_batch(&push);
    }

    /// Enqueue a runtime-internal helper task. It participates in the
    /// outstanding counters (so `wait_all` and shutdown see it) but not in
    /// user-facing statistics or energy accounting.
    fn spawn_system(self: &Arc<Self>, body: impl FnOnce() + Send + 'static) {
        let id = TaskId(self.next_task_id.fetch_add(1, Ordering::Relaxed));
        let mut task = self.husk_in(&self.global_group);
        let t = Arc::get_mut(&mut task).expect("task not yet shared");
        t.fill(id, Significance::CRITICAL, Box::new(body), None);
        t.system = true;
        t.prime_spawn_enqueued(true);
        // Relaxed: see the invariant note on the `outstanding` bumps in
        // `TaskBuilder::spawn`.
        self.outstanding.fetch_add(1, Ordering::Relaxed);
        self.global_group
            .outstanding
            .fetch_add(1, Ordering::Relaxed);
        let target = self.queues.push(task, self.local_worker());
        self.wake_for_push(target);
    }

    /// Batched submission: prime, count and enqueue a whole slice of
    /// footprint-free tasks with per-*batch* instead of per-task overhead —
    /// one task-id reservation, one bump of each outstanding counter, one
    /// statistics record, one (chunked round-robin) queue pass and one
    /// coalesced wake. Under a buffering (GTB) policy the batch lands in
    /// the group buffer with a single lock acquisition instead.
    fn spawn_batch_into(
        self: &Arc<Self>,
        group_state: &Arc<GroupState>,
        items: Vec<BatchTask>,
        deadline_nanos: u64,
        cancel: Option<CancelToken>,
    ) -> TaskIdRange {
        let n = items.len();
        if n == 0 {
            let id = self.next_task_id.load(Ordering::Relaxed);
            return TaskIdRange { next: id, end: id };
        }
        let first = self.next_task_id.fetch_add(n as u64, Ordering::Relaxed);
        // Relaxed: see the invariant note in `TaskBuilder::spawn`.
        self.outstanding.fetch_add(n, Ordering::Relaxed);
        group_state.outstanding.fetch_add(n, Ordering::Relaxed);
        self.stats.record_spawns(n);

        let buffering = self.policy.is_buffering();
        let accurate = matches!(self.policy, Policy::SignificanceAgnostic);
        let mut tasks = Vec::with_capacity(n);
        for (offset, item) in items.into_iter().enumerate() {
            let mut task = self.husk_in(group_state);
            // Filled and primed through `&mut` before sharing: released +
            // enqueued (+ decided, for the agnostic policy) cost zero
            // atomics, and the batch-wide robustness clauses land for free.
            let t = Arc::get_mut(&mut task).expect("task not yet shared");
            t.fill(
                TaskId(first + offset as u64),
                item.significance,
                item.accurate,
                item.approximate,
            );
            if !buffering {
                t.prime_spawn_enqueued(accurate);
            }
            // A per-task deadline offset overrides the batch-wide deadline.
            t.deadline_nanos = if item.deadline_nanos != 0 {
                item.deadline_nanos
            } else {
                deadline_nanos
            };
            t.cancel = cancel.clone();
            tasks.push(task);
        }

        if buffering {
            let capacity = self
                .policy
                .buffer_capacity()
                .expect("buffering policy has a capacity");
            if let Some(window) = group_state.append_buffered(tasks, capacity) {
                self.flush_tasks(window);
            } else {
                self.notify_buffered(group_state);
            }
        } else {
            let push = self.queues.push_batch(tasks, self.local_worker());
            self.wake_for_batch(&push);
        }
        TaskIdRange {
            next: first,
            end: first + n as u64,
        }
    }

    /// Flush the pending GTB buffer of one group.
    fn flush_group(self: &Arc<Self>, group: &GroupState) {
        if let Some(window) = group.take_buffered() {
            self.flush_tasks(window);
        }
    }

    /// Buffer a footprint-free record under GTB, flushing the window if this
    /// fills it. The record waits on nothing, so it takes no phantom
    /// dependence and no `try_enqueue`: whichever flush takes it releases
    /// it. The buffer gets a clone, since `group` is borrowed from the
    /// record, and the caller's own reference is dropped before the flush,
    /// which then finds the window the record's only holder.
    fn buffer_task(self: &Arc<Self>, task: Arc<Task>, capacity: usize) {
        let group = &task.group_state;
        match group.buffer_one(task.clone(), capacity) {
            Some(window) => {
                drop(task);
                self.flush_tasks(window);
            }
            None => self.notify_buffered(group),
        }
    }

    /// Entering a barrier hands the caller's "awakeness" to the pool: if
    /// the calling thread is about to block while queued work exists, one
    /// sleeping worker is invited to keep draining. Without this, the
    /// batched injector's single coalesced wake could strand work: the one
    /// woken worker blocks in a *nested* barrier inside a task body, every
    /// other chunk recipient is still parked, and nobody is left awake to
    /// steal the tasks the barrier is waiting for. Each nested wait wakes
    /// one further sleeper, so at least one worker stays awake while any
    /// thread is blocked and work remains. One atomic load when nobody
    /// sleeps.
    fn wake_for_wait(&self) {
        self.wake_one_sleeper(usize::MAX);
    }

    /// Re-flush GTB buffers from inside a barrier predicate. A no-op (no
    /// locks) for non-buffering policies, whose buffers are always empty.
    fn flush_all_groups_if_buffering(self: &Arc<Self>) {
        if self.policy.is_buffering() {
            self.flush_all_groups();
        }
    }

    /// A spawn left tasks sitting in a GTB buffer: nudge every barrier that
    /// could be blocked on them so its predicate — which re-flushes the
    /// buffers — runs. Without this, a spawn issued *during* a barrier
    /// (e.g. from an executing task body) could stay buffered forever: the
    /// buffered tasks are already counted outstanding, so no completion
    /// will ever bring the counter to zero and fire the notify itself.
    /// Three atomic loads when no barrier waits.
    fn notify_buffered(&self, group: &GroupState) {
        group.barrier.notify();
        self.idle_barrier.notify();
        self.writes_barrier.notify();
    }

    /// Flush the GTB buffers of every group (used by global barriers).
    fn flush_all_groups(self: &Arc<Self>) {
        for group in self.groups.all() {
            self.flush_group(&group);
        }
    }

    /// Execute a task on worker `worker`, then recycle its record if this
    /// worker is the last holder. A batch of another group's completions is
    /// published first (the invariant on [`Retired`]).
    fn execute(
        &self,
        task: Arc<Task>,
        worker: usize,
        lqh: &mut LqhState,
        tick: &mut usize,
        retired: &mut Retired,
    ) {
        if !retired.admits(&task.group_state) {
            self.publish(retired);
        }
        self.run_task(&task, worker, lqh, tick, retired);
        self.recycle(task);
    }

    /// Make the accuracy decision if it is still open, run the chosen body,
    /// record statistics, then resolve dependences and barriers. Lock-free
    /// on every step.
    fn run_task(
        &self,
        task: &Arc<Task>,
        worker: usize,
        lqh: &mut LqhState,
        tick: &mut usize,
        retired: &mut Retired,
    ) {
        if task.system {
            // Internal helper tasks (e.g. parallel GTB flush chunks) skip
            // policy, DVFS, statistics, cancellation and fault injection
            // entirely.
            // SAFETY: as below — this worker is the task's unique executor.
            if let Some(body) = unsafe { task.take_accurate() } {
                self.run_body(body);
            }
            self.complete(task, retired);
            return;
        }
        // Cooperative cancellation: a task cancelled before it starts (via
        // its token, its group or an id-range cancel) is skipped entirely.
        if task.cancel_requested() || self.id_cancelled(task.id) {
            self.abandon(task, worker, false, retired);
            return;
        }
        // Read once: LQH decides against it and the governor is handed it.
        let group_ratio = task.group_state.effective_ratio();
        let accurate = match task.decision() {
            Some(decision) => decision,
            None => match self.policy {
                Policy::Lqh => lqh.decide(task.group_id(), task.significance, group_ratio),
                // The significance-agnostic runtime and any GTB task that
                // somehow reaches a worker undecided run accurately: the
                // conservative choice never degrades output quality.
                _ => true,
            },
        };

        // Brownout shedding: under overload, drop work strictly in
        // significance order — only tasks the policy already decided to run
        // non-accurately, never critical ones, lowest significance first
        // (the threshold rises with queue pressure).
        let t = *tick;
        *tick = t.wrapping_add(1);
        self.overload_tick(t);
        self.budget_tick(t);
        let shed_threshold = self.overload.threshold();
        if shed_threshold > 0.0
            && !accurate
            && !task.significance.is_critical()
            && task.significance.value() < shed_threshold
        {
            self.abandon(task, worker, true, retired);
            return;
        }

        // Deterministic fault injection (chaos testing only; `faults` is
        // `None` in production configurations).
        let fault = self.faults.as_ref().and_then(|plan| plan.decide(task.id.0));
        if let Some(FaultAction::Stall(pause)) = fault {
            // A stalled worker: the pause happens before the timed window so
            // it distorts schedules, not per-task busy accounting.
            std::thread::sleep(pause);
        }
        let inject_panic = matches!(fault, Some(FaultAction::Panic));

        // One clock read serves the whole dispatch: the timed window opens
        // here, and the deadline checks below are pure arithmetic on it.
        let start = Instant::now();

        // A task whose deadline is endangered (already past, or any deadline
        // while the runtime is overloaded) races to nominal frequency: the
        // governor's scaling decision is overridden at dispatch.
        let deadline = task.deadline_nanos;
        let started_nanos = (start - self.started).as_nanos() as u64;
        let deadline_pressure =
            deadline != 0 && (self.overload.is_overloaded() || started_nanos >= deadline);

        // Pick the energy strategy for this dispatch: approximate tasks may
        // run under a lower modelled frequency, or race at nominal and bank
        // the slack as sleep residency (two relaxed loads and no virtual call
        // for the default nominal governor, lock-free always).
        let decision = self.env.dispatch(
            worker,
            &DispatchContext {
                worker,
                significance: task.significance,
                accurate,
                policy: self.policy,
                group_ratio,
                deadline_pressure,
            },
        );
        // SAFETY (all `take_*` calls below): this worker won `claim_enqueue`
        // and dequeued the task, making it the unique executor; nothing else
        // touches the body cells after spawn.
        let (mode, ok) = if accurate {
            let body = unsafe { task.take_accurate() };
            (
                ExecutionMode::Accurate,
                self.run_or_inject(body, inject_panic),
            )
        } else {
            match unsafe { task.take_approximate() } {
                Some(body) => (
                    ExecutionMode::Approximate,
                    self.run_or_inject(Some(body), inject_panic),
                ),
                None => (ExecutionMode::Dropped, !inject_panic),
            }
        };
        if let Some(FaultAction::Dilate(extra)) = fault {
            // Dilated execution: the task "runs long", inside the timed
            // window, endangering deadlines downstream.
            std::thread::sleep(extra);
        }
        let busy = start.elapsed();

        // Drop whichever body was not executed *before* completion is
        // signalled, so resources captured by it (for example
        // `SharedGrid` region writers shared between the accurate and the
        // approximate closure) are released by the time a barrier returns.
        unsafe {
            drop(task.take_accurate());
            drop(task.take_approximate());
        }

        if deadline != 0 && started_nanos + busy.as_nanos() as u64 > deadline {
            self.stats.record_deadline_miss(worker);
        }

        if ok {
            // Transitive poison: a task that read a poisoned key produced
            // output derived from failed data — its own writes are suspect.
            if !task.out_keys.is_empty()
                && task.in_keys.iter().any(|&k| self.tracker.is_poisoned(k))
            {
                self.tracker.poison_writes(&task.out_keys);
            }
            self.stats.record_execution(worker, mode, busy);
            self.env.record(worker, mode, busy, decision);
            task.group_state
                .stats
                .record(worker, task.significance.level(), mode);
            task.notify_handle(TaskOutcome::Completed(mode));
        } else {
            // The body panicked: mark the task, poison its written keys
            // *before* completion releases any dependent, and account it
            // under `panicked` (not `completed`).
            task.mark_panicked();
            if !task.out_keys.is_empty() {
                self.tracker.poison_writes(&task.out_keys);
            }
            self.stats.record_panicked(worker, busy);
            self.env.record(worker, mode, busy, decision);
            task.group_state.stats.record_panicked(worker);
            task.notify_handle(TaskOutcome::Panicked);
        }
        self.complete(task, retired);
    }

    /// Run a body (catching panics so one failing task cannot take a worker
    /// thread down), or simulate an injected panic by dropping it. Returns
    /// whether the task succeeded.
    fn run_or_inject(&self, body: Option<TaskBody>, inject_panic: bool) -> bool {
        match body {
            Some(body) if inject_panic => {
                drop(body);
                false
            }
            Some(body) => self.run_body(body),
            None => true,
        }
    }

    /// Run a task body, catching panics. Returns `true` on success.
    fn run_body(&self, body: TaskBody) -> bool {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)).is_ok()
    }

    /// Post-execution bookkeeping: wake successors and `taskwait on(...)`
    /// waiters, then add the task to the worker's batch of completions,
    /// publishing it once it is full. The outstanding counts, and the
    /// barriers that watch them, hear of it in [`RuntimeInner::publish`].
    fn complete(&self, task: &Arc<Task>, retired: &mut Retired) {
        // Footprint-free tasks can never have successors (only tasks that
        // declared keys enter the dependence tracker), so the seal and the
        // tracker are skipped entirely.
        if task.footprint {
            let successors = task.successors.seal();
            task.mark_completed();
            for successor in successors {
                // SeqCst: pairs with `Task::release` + `is_ready` on the
                // GTB-flush side (see Task::release).
                if successor.pending_deps.fetch_sub(1, Ordering::SeqCst) == 1 {
                    self.try_enqueue(&successor);
                }
            }
            if !task.out_keys.is_empty() {
                // The seal above is what `wait_on` polls.
                self.writes_barrier.notify();
            }
        } else {
            task.mark_completed();
        }
        if retired.count == 0 {
            retired.group = Some(task.group_state.clone());
        }
        retired.count += 1;
        if retired.count == RETIRE_BATCH {
            self.publish(retired);
        }
    }

    /// Take a worker's batch of completions off the outstanding counts and
    /// signal the barriers that reach zero. The barrier notifications cost
    /// one atomic load each unless a `taskwait` is actually blocked.
    fn publish(&self, retired: &mut Retired) {
        let Some(group) = retired.group.take() else {
            return;
        };
        let count = std::mem::take(&mut retired.count);
        // The runtime-wide count goes first: a group barrier that sees its
        // group drained then also sees these tasks gone from `outstanding`,
        // so its `free_husks_if_idle` cannot find a finished runtime busy
        // and leave the caller's stash alive.
        let idle = self.outstanding.fetch_sub(count, Ordering::SeqCst) == count;
        if group.outstanding.fetch_sub(count, Ordering::SeqCst) == count {
            group.barrier.notify();
        }
        if idle {
            self.idle_barrier.notify();
        }
    }

    fn worker_loop(self: &Arc<Self>, index: usize) {
        /// Idle rounds spent spinning (multicore: let an in-flight push land)
        /// before yielding.
        const SPIN_ROUNDS: u32 = 4;
        /// Further idle rounds spent yielding (giving producers the core)
        /// before actually parking. Keeping the worker officially awake
        /// through short work gaps means producers skip the futex wake —
        /// without this, fine-grained streams degenerate into one
        /// park/unpark round trip per task.
        const YIELD_ROUNDS: u32 = 20;

        self.parkers[index].register();
        CURRENT_WORKER.set((self.id, index));
        let mut lqh = LqhState::new();
        // Worker-private overload tick counter (see `overload_tick`).
        let mut overload_tick = 0usize;
        let mut retired = Retired::default();
        let mut idle_rounds = 0u32;
        loop {
            let popped = self.queues.pop_local(index);
            if popped.refilled {
                // A take of mail just left stealable work on this worker's
                // deque or ready chain: invite one sleeper to share it.
                self.wake_one_sleeper(index);
            }
            if let Some(task) = popped.task {
                idle_rounds = 0;
                self.execute(task, index, &mut lqh, &mut overload_tick, &mut retired);
                continue;
            }
            // Steal-half: the oldest victim task is returned, the rest of
            // the claimed half now sits on this worker's own deque.
            if let Some(task) = self.queues.steal(index) {
                idle_rounds = 0;
                self.stats.record_steal(index);
                if self.queues.has_local_backlog(index) {
                    // The steal deposited surplus stealable work: propagate
                    // the wake so a large batch fans out geometrically
                    // (the batched injector only unparks one worker).
                    self.wake_one_sleeper(index);
                }
                self.execute(task, index, &mut lqh, &mut overload_tick, &mut retired);
                continue;
            }
            // Out of work: no barrier may wait on this worker's batch.
            self.publish(&mut retired);
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            if idle_rounds == 0 {
                // Out of work: give up the stash now, while this thread
                // still has its CPU — a spawner can use the husks, and if
                // the burst is over nobody will. Waiting until the park
                // would leave them live across the yields below, where a
                // barrier caller may run for long and allocate around them.
                self.with_stash(|stash| self.hand_back(stash, 0));
            }
            if idle_rounds < SPIN_ROUNDS {
                idle_rounds += 1;
                for _ in 0..1 << (4 + idle_rounds) {
                    std::hint::spin_loop();
                }
                continue;
            }
            if idle_rounds < SPIN_ROUNDS + YIELD_ROUNDS {
                idle_rounds += 1;
                std::thread::yield_now();
                continue;
            }
            // Sleep protocol (no timed polling): announce intent, re-check
            // every queue, then park. A producer pushes before it loads the
            // sleep flag, so either the re-check sees the task or the
            // producer sees the flag and unparks — never neither.
            let parker = &self.parkers[index];
            parker.prepare_park();
            self.sleepers.fetch_add(1, Ordering::SeqCst);
            if self.queues.any_work() || self.shutdown.load(Ordering::SeqCst) {
                self.sleepers.fetch_sub(1, Ordering::SeqCst);
                parker.cancel();
                continue;
            }
            std::thread::park();
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
            parker.cancel();
            idle_rounds = 0;
        }
    }
}

/// The significance-aware task runtime (public handle).
///
/// Dropping the runtime waits for all outstanding tasks (flushing any GTB
/// buffers first) and then joins the worker threads.
pub struct Runtime {
    inner: Arc<RuntimeInner>,
    workers: Vec<JoinHandle<()>>,
}

impl Runtime {
    /// Start building a runtime.
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder::default()
    }

    /// Convenience constructor: default worker count with the given policy.
    pub fn with_policy(policy: Policy) -> Runtime {
        Runtime::builder().policy(policy).build()
    }

    fn start(builder: RuntimeBuilder) -> Runtime {
        let workers = builder.workers.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        let policy = builder.policy;
        let model = builder.energy_model.unwrap_or_else(PowerModel::for_host);
        let governor = builder
            .governor
            .unwrap_or_else(|| Arc::new(NominalGovernor));
        let id = NEXT_RUNTIME_ID.fetch_add(1, Ordering::Relaxed);
        let groups = GroupRegistry::new(id, workers + 1);
        let global_group = groups.get(GroupId::GLOBAL);
        let inner = Arc::new(RuntimeInner {
            id,
            policy,
            queues: QueueSet::new(workers),
            groups,
            global_group,
            tracker: DependenceTracker::new(),
            stats: RuntimeStats::new(workers),
            env: ExecutionEnv::new(
                model,
                governor,
                builder.sleep_state,
                builder.transition_cost.unwrap_or_default(),
                workers,
            ),
            started: Instant::now(),
            next_task_id: CachePadded::new(AtomicU64::new(0)),
            husks: HuskPool {
                husks: Mutex::new(Vec::new()),
                available: AtomicUsize::new(0),
            },
            outstanding: CachePadded::new(AtomicUsize::new(0)),
            overload: OverloadState::new(builder.queue_watermark, builder.miss_watermark),
            budget: builder.energy_budget.map(BudgetState::new),
            faults: builder.fault_plan,
            cancel_ranges: Mutex::new(Vec::new()),
            cancel_active: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            parkers: (0..workers).map(|_| Parker::default()).collect(),
            sleepers: AtomicUsize::new(0),
            idle_barrier: EventCount::default(),
            writes_barrier: EventCount::default(),
        });
        let handles = (0..workers)
            .map(|index| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("sig-worker-{index}"))
                    .spawn(move || inner.worker_loop(index))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        Runtime {
            inner,
            workers: handles,
        }
    }

    /// The policy this runtime applies.
    pub fn policy(&self) -> Policy {
        self.inner.policy
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.inner.queues.len()
    }

    /// Whole-runtime execution statistics.
    pub fn stats(&self) -> &RuntimeStats {
        &self.inner.stats
    }

    /// Tasks spawned but not yet terminal (queued, buffered or executing).
    /// A worker publishes its completions in batches, so while workers are
    /// busy this may read up to 64 per busy worker above the true count, all
    /// of it from the groups those workers are running; it is exact once
    /// the workers run out of work.
    pub fn outstanding_tasks(&self) -> usize {
        self.inner.outstanding.load(Ordering::Relaxed)
    }

    /// Energy accounting snapshot built from the per-worker execution
    /// environment shards: measured and DVFS-dilated busy time, dynamic
    /// joules priced at the dispatched frequency, and per-worker frequency
    /// domain state. The wall-clock window runs from runtime creation to
    /// now; callers that measured a makespan themselves (e.g. around a
    /// barrier) should prefer [`Runtime::energy_report_at`], which prices
    /// static and idle power over exactly that window.
    pub fn energy_report(&self) -> EnergyReport {
        self.energy_report_at(self.inner.started.elapsed())
    }

    /// [`Runtime::energy_report`] over an explicitly measured wall-clock
    /// window.
    pub fn energy_report_at(&self, wall: std::time::Duration) -> EnergyReport {
        self.inner.env.report(wall.as_secs_f64(), self.workers())
    }

    /// The power model the runtime's energy accounting prices work with.
    pub fn energy_model(&self) -> &PowerModel {
        self.inner.env.model()
    }

    /// Latest setpoint of the online energy-budget controller, or `None`
    /// when no budget was configured ([`RuntimeBuilder::energy_budget`]).
    pub fn energy_budget_setpoint(&self) -> Option<BudgetSetpoint> {
        let budget = self.inner.budget.as_ref()?;
        Some(budget.inner.lock().unwrap().setpoint)
    }

    /// Force one budget-controller observation right now, bypassing the
    /// amortised execute-path pacing, and return the resulting setpoint
    /// (`None` without a configured budget). Useful around barriers: the
    /// sample prices the full window, so `energy_budget_setpoint` reflects
    /// the final spend.
    pub fn energy_budget_sample(&self) -> Option<BudgetSetpoint> {
        let budget = self.inner.budget.as_ref()?;
        let mut inner = budget.inner.lock().unwrap();
        let elapsed = self.inner.started.elapsed();
        let wall = elapsed.as_secs_f64();
        let reading = self.inner.env.report(wall, self.workers()).reading();
        let setpoint = inner.controller.observe(wall, &reading);
        inner.setpoint = setpoint;
        drop(inner);
        self.inner.apply_budget_setpoint(&setpoint);
        Some(setpoint)
    }

    /// Number of task bodies that panicked. The panics are caught, the tasks
    /// accounted under [`OutcomeSummary::panicked`] (not `completed`), and
    /// any keys they write poisoned — see [`Runtime::is_poisoned`].
    pub fn panicked_tasks(&self) -> usize {
        self.inner.stats.panicked()
    }

    /// Terminal-outcome summary across the whole runtime: every spawned task
    /// ends in exactly one of completed / cancelled / panicked / shed, and
    /// after a barrier the books balance ([`OutcomeSummary::failed`] +
    /// `completed == spawned`).
    pub fn outcomes(&self) -> OutcomeSummary {
        self.inner.stats.outcomes()
    }

    /// Whether `key` was written by a failed (panicked, cancelled or shed)
    /// task, directly or transitively. Poison is sticky: once set, readers
    /// of the key never observe it clean again.
    pub fn is_poisoned(&self, key: DepKey) -> bool {
        self.inner.tracker.is_poisoned(key)
    }

    /// Cooperatively cancel every not-yet-started task in `range` (ids from
    /// a batched spawn). Tasks already executing run to completion; tasks
    /// still queued are abandoned at dequeue time and accounted under
    /// [`OutcomeSummary::cancelled`].
    pub fn cancel_tasks(&self, range: &TaskIdRange) {
        if range.is_empty() {
            return;
        }
        self.inner
            .cancel_ranges
            .lock()
            .unwrap()
            .push((range.next, range.end));
        self.inner.cancel_active.store(true, Ordering::Release);
    }

    /// Cooperatively cancel every not-yet-started task of `group` (current
    /// and future spawns into it). See [`Runtime::cancel_tasks`].
    ///
    /// # Panics
    ///
    /// Panics if another runtime created `group`.
    pub fn cancel_group(&self, group: &TaskGroup) {
        group.state_in(self.inner.id).request_cancel();
    }

    /// Observability counter: single-key read-only footprint registrations
    /// that the dependence tracker resolved on its lock-free fast path
    /// (multi-key and writing footprints always take the ordered locked
    /// path — see `deps.rs` module docs for the cycle hazard that forces
    /// this). Used by regression tests to pin the fast/slow-path split.
    pub fn tracker_fast_path_reads(&self) -> usize {
        self.inner.tracker.fast_path_reads()
    }

    /// Create (or look up) a task group with the given label and target
    /// accurate-task ratio — the runtime-API equivalent of
    /// `tpc_init_group()`.
    pub fn create_group(&self, label: &str, ratio: f64) -> TaskGroup {
        TaskGroup {
            state: self.inner.groups.get_or_create(label, Some(ratio)),
        }
    }

    /// Look up a group previously created with [`Runtime::create_group`]
    /// (or implicitly via [`TaskBuilder::label`]).
    pub fn find_group(&self, label: &str) -> Option<TaskGroup> {
        let state = self.inner.groups.find(label)?;
        Some(TaskGroup { state })
    }

    /// Begin describing a task whose accurate body is `body` — the equivalent
    /// of `#pragma omp task`.
    pub fn task<F>(&self, body: F) -> TaskBuilder<'_>
    where
        F: FnOnce() + Send + 'static,
    {
        TaskBuilder::new(self, Box::new(body))
    }

    /// Begin describing a task whose body returns a value, observed through
    /// a [`SpawnHandle`] — the serving-oriented entry point. The handle
    /// resolves exactly once to the task's terminal [`TaskOutcome`]
    /// (completed / panicked / cancelled / shed) with no barrier involved,
    /// and carries the executed body's return value on success.
    ///
    /// ```
    /// use sig_core::{Runtime, TaskOutcome, ExecutionMode};
    ///
    /// let rt = Runtime::builder().workers(2).build();
    /// let handle = rt.submit(|| 6 * 7).spawn();
    /// assert_eq!(
    ///     handle.wait(),
    ///     TaskOutcome::Completed(ExecutionMode::Accurate)
    /// );
    /// assert_eq!(handle.take_value(), Some(42));
    /// ```
    pub fn submit<T, F>(&self, body: F) -> HandledTaskBuilder<'_, T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        HandledTaskBuilder {
            runtime: self,
            accurate: Box::new(body),
            approximate: None,
            significance: Significance::default(),
            group: None,
            deadline_nanos: 0,
            cancel: None,
        }
    }

    /// Start describing a **batch** of tasks submitted through the amortised
    /// injection pipeline: per-batch (not per-task) counter updates,
    /// statistics, sticky round-robin chunked distribution and one coalesced
    /// wake. See [`BatchBuilder`].
    pub fn batch(&self) -> BatchBuilder<'_> {
        BatchBuilder {
            runtime: self,
            group: None,
            significance: Significance::default(),
            tasks: Vec::new(),
            deadline_nanos: 0,
            deadline_offsets: Vec::new(),
            cancel: None,
        }
    }

    /// Submit a pre-built collection of [`BatchTask`]s to the implicit
    /// global group in one batched injection — shorthand for
    /// `self.batch().spawn_tasks(items)`.
    pub fn spawn_batch(&self, items: impl IntoIterator<Item = BatchTask>) -> TaskIdRange {
        self.batch().spawn_tasks(items)
    }

    /// Global barrier (`#pragma omp taskwait`): flush all GTB buffers and
    /// wait until every spawned task has completed.
    ///
    /// Under a buffering policy the flush is repeated before every
    /// predicate re-check: tasks spawned into a buffering group *during*
    /// the barrier (e.g. from an executing task body) would otherwise sit
    /// in the GTB buffer with no master left to flush them, deadlocking
    /// the barrier. (Non-buffering policies skip the re-flush — their
    /// buffers are always empty.)
    pub fn wait_all(&self) -> OutcomeSummary {
        self.inner.flush_all_groups();
        let inner = &self.inner;
        inner.wake_for_wait();
        inner.idle_barrier.wait(|| {
            inner.flush_all_groups_if_buffering();
            inner.outstanding.load(Ordering::SeqCst) == 0
        });
        inner.free_husks_if_idle();
        self.outcomes()
    }

    /// Global barrier with a `ratio(...)` clause: the ratio is applied to the
    /// implicit global group before flushing.
    pub fn wait_all_with_ratio(&self, ratio: f64) -> OutcomeSummary {
        self.inner.global_group.set_ratio(ratio);
        self.wait_all()
    }

    /// Group barrier (`#pragma omp taskwait label(...)`): flush the group's
    /// GTB buffer and wait for its tasks. Re-flushes before every predicate
    /// re-check (see [`Runtime::wait_all`]) so spawns issued from inside
    /// the group's own tasks drain instead of deadlocking the barrier.
    ///
    /// # Panics
    ///
    /// Panics if another runtime created `group`.
    pub fn wait_group(&self, group: &TaskGroup) -> OutcomeSummary {
        let state = group.state_in(self.inner.id);
        self.inner.flush_group(state);
        let inner = &self.inner;
        inner.wake_for_wait();
        state.barrier.wait(|| {
            if inner.policy.is_buffering() {
                inner.flush_group(state);
            }
            state.outstanding.load(Ordering::SeqCst) == 0
        });
        inner.free_husks_if_idle();
        self.outcomes()
    }

    /// Group barrier with a `ratio(...)` clause
    /// (`#pragma omp taskwait label(...) ratio(...)`).
    ///
    /// The ratio is installed before the flush so a Max-Buffer GTB flush and
    /// all still-undecided LQH decisions observe it.
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is outside `[0, 1]` or another runtime created
    /// `group`.
    pub fn wait_group_with_ratio(&self, group: &TaskGroup, ratio: f64) -> OutcomeSummary {
        let state = group.state_in(self.inner.id);
        state.set_ratio(ratio);
        self.inner.flush_group(state);
        let inner = &self.inner;
        inner.wake_for_wait();
        state.barrier.wait(|| {
            if inner.policy.is_buffering() {
                inner.flush_group(state);
            }
            state.outstanding.load(Ordering::SeqCst) == 0
        });
        inner.free_husks_if_idle();
        self.outcomes()
    }

    /// Data barrier (`#pragma omp taskwait on(...)`): wait until every task
    /// that writes `key` has completed. All GTB buffers are flushed first, as
    /// buffered tasks could be writers of `key`.
    pub fn wait_on(&self, key: DepKey) {
        self.inner.flush_all_groups();
        let inner = &self.inner;
        inner.wake_for_wait();
        inner.writes_barrier.wait(|| {
            inner.flush_all_groups_if_buffering();
            !inner.tracker.has_unfinished_writer(key)
        });
    }

    /// Execution statistics of one group (Table 2 inputs).
    ///
    /// # Panics
    ///
    /// Panics if another runtime created `group`.
    pub fn group_stats(&self, group: &TaskGroup) -> GroupStatsSnapshot {
        let state = group.state_in(self.inner.id);
        state.stats.snapshot(state.ratio())
    }

    /// Execution statistics of every group, labelled by group name.
    pub fn all_group_stats(&self) -> Vec<(String, GroupStatsSnapshot)> {
        self.inner
            .groups
            .all()
            .iter()
            .map(|state| (state.name.to_string(), state.stats.snapshot(state.ratio())))
            .collect()
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        // Make sure nothing is lost in GTB buffers, then stop the workers.
        self.wait_all();
        self.inner.shutdown.store(true, Ordering::SeqCst);
        for parker in self.inner.parkers.iter() {
            parker.unpark_always();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("policy", &self.inner.policy)
            .field("workers", &self.workers.len())
            .field(
                "outstanding",
                &self.inner.outstanding.load(Ordering::Relaxed),
            )
            .finish()
    }
}

/// The record a [`TaskBuilder`] is filling, taken from the stash the first
/// time a clause needs somewhere to live (a footprint: `in`/`out` keys go
/// straight into the record's own buffers, which recycling keeps). Returns
/// the record through [`RuntimeInner::recycle`] if the builder is dropped
/// unspawned.
struct HeldHusk<'rt> {
    runtime: &'rt Runtime,
    record: Option<Arc<Task>>,
}

impl HeldHusk<'_> {
    /// The held record, taking one first if need be. Bound to whatever group
    /// used it last; `spawn` rebinds it.
    fn record(&mut self) -> &mut Task {
        let inner = &self.runtime.inner;
        let record = self.record.get_or_insert_with(|| {
            inner
                .pop_husk()
                .unwrap_or_else(|| Arc::new(Task::blank(inner.global_group.clone())))
        });
        Arc::get_mut(record).expect("a husk is uniquely held")
    }
}

impl Drop for HeldHusk<'_> {
    fn drop(&mut self) {
        if let Some(record) = self.record.take() {
            self.runtime.inner.recycle(record);
        }
    }
}

/// Fluent description of a task before it is spawned — the programming-model
/// clauses of `#pragma omp task` map to the methods of this builder.
#[must_use = "a task builder does nothing until .spawn() is called"]
pub struct TaskBuilder<'rt> {
    husk: HeldHusk<'rt>,
    accurate: TaskBody,
    approximate: Option<TaskBody>,
    significance: Significance,
    /// Borrowed from the [`TaskGroup`] handle, so binding the record to it
    /// takes no registry lock; owned after a lookup by label.
    group: Option<Cow<'rt, Arc<GroupState>>>,
    deadline_nanos: u64,
    cancel: Option<CancelToken>,
    handle: Option<Arc<dyn HandleNotify>>,
}

impl<'rt> TaskBuilder<'rt> {
    fn new(runtime: &'rt Runtime, accurate: TaskBody) -> Self {
        TaskBuilder {
            husk: HeldHusk {
                runtime,
                record: None,
            },
            accurate,
            approximate: None,
            significance: Significance::default(),
            group: None,
            deadline_nanos: 0,
            cancel: None,
            handle: None,
        }
    }

    /// `significant(expr)` — the task's significance in `[0.0, 1.0]`.
    pub fn significance(mut self, significance: impl Into<Significance>) -> Self {
        self.significance = significance.into();
        self
    }

    /// `approxfun(function)` — the approximate task body executed when the
    /// runtime opts for a non-accurate computation of the task.
    pub fn approx<F>(mut self, body: F) -> Self
    where
        F: FnOnce() + Send + 'static,
    {
        self.approximate = Some(Box::new(body));
        self
    }

    /// `label(...)` by group handle. The builder borrows the handle until
    /// it spawns.
    ///
    /// # Panics
    ///
    /// Panics if another runtime created `group`.
    pub fn group(mut self, group: &'rt TaskGroup) -> Self {
        let state = group.state_in(self.husk.runtime.inner.id);
        self.group = Some(Cow::Borrowed(state));
        self
    }

    /// `label(...)` by name; the group is created with a default ratio of 1.0
    /// if it does not exist yet. Every call looks the label up under the
    /// registry's lock; a spawn loop should create the group once and pass
    /// its handle to [`TaskBuilder::group`].
    pub fn label(mut self, label: &str) -> Self {
        let state = self.husk.runtime.inner.groups.get_or_create(label, None);
        self.group = Some(Cow::Owned(state));
        self
    }

    /// `in(...)` — dependence keys this task reads.
    pub fn reads(mut self, keys: impl IntoIterator<Item = DepKey>) -> Self {
        self.husk.record().in_keys.extend(keys);
        self
    }

    /// `out(...)` — dependence keys this task writes.
    pub fn writes(mut self, keys: impl IntoIterator<Item = DepKey>) -> Self {
        self.husk.record().out_keys.extend(keys);
        self
    }

    /// `deadline(...)` — relative deadline from now. A task finishing past
    /// its deadline counts a deadline miss; while the runtime is overloaded
    /// (or the deadline already passed at dispatch), the task races to
    /// nominal frequency regardless of the governor's scaling decision.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        let absolute = self.husk.runtime.inner.started.elapsed() + deadline;
        // 0 means "no deadline": clamp real deadlines away from it.
        self.deadline_nanos = (absolute.as_nanos().min(u64::MAX as u128) as u64).max(1);
        self
    }

    /// Attach a cooperative [`CancelToken`]: cancelling the token skips
    /// every not-yet-started task carrying it.
    pub fn cancel_token(mut self, token: &CancelToken) -> Self {
        self.cancel = Some(token.clone());
        self
    }

    /// Submit the task to the runtime. Returns the task's id (spawn order).
    pub fn spawn(mut self) -> TaskId {
        let inner = &self.husk.runtime.inner;
        let id = TaskId(inner.next_task_id.fetch_add(1, Ordering::Relaxed));
        // The record a footprint clause took, else one from the stash now.
        let husk = self.husk.record.take().or_else(|| inner.pop_husk());
        let group = self.group.as_deref().unwrap_or(&inner.global_group);
        let mut task = inner.bind_husk(husk, group);
        let footprint = {
            // Not yet shared: every clause lands through `&mut`, free.
            let t = Arc::get_mut(&mut task).expect("task not yet shared");
            t.fill(id, self.significance, self.accurate, self.approximate);
            t.footprint = !(t.in_keys.is_empty() && t.out_keys.is_empty());
            t.deadline_nanos = self.deadline_nanos;
            t.cancel = self.cancel;
            t.handle = self.handle;
            t.footprint
        };

        // Relaxed is sufficient for both `outstanding` bumps. Invariant: an
        // increment must be observable (a) by the matching `fetch_sub` in
        // `publish`, which RMW coherence orders after it (the sub can only
        // run once the task reached a worker, and the queue handoff's
        // release/acquire edge — behind the GTB buffer's lock, for a
        // buffered task — orders the add before the pop), and (b) by any
        // barrier predicate load *on the spawning thread*, which same-thread
        // coherence guarantees. A barrier on another thread racing this
        // spawn is unordered by construction — it may legitimately return
        // before the spawn lands — so no cross-thread SC fence is
        // load-bearing here. The decrement side stays SeqCst: it pairs with
        // the EventCount register/re-check protocol.
        inner.outstanding.fetch_add(1, Ordering::Relaxed);
        task.group_state.outstanding.fetch_add(1, Ordering::Relaxed);
        inner.stats.record_spawn();

        // Fast paths for a footprint-free task, which waits on nothing.
        // Under GTB it goes to the group buffer, whose flush decides it.
        // Otherwise it goes straight to a queue, its released/enqueued (and,
        // for the agnostic policy, decided) state primed through `&mut`
        // before the task is ever shared — zero atomic ops, no claim race to
        // arbitrate because `spawn` is the only possible enqueue site.
        if !footprint {
            match inner.policy.buffer_capacity() {
                Some(capacity) => inner.buffer_task(task, capacity),
                None => {
                    let accurate = matches!(inner.policy, Policy::SignificanceAgnostic);
                    Arc::get_mut(&mut task)
                        .expect("task not yet shared")
                        .prime_spawn_enqueued(accurate);
                    let target = inner.queues.push(task, inner.local_worker());
                    inner.wake_for_push(target);
                }
            }
            return id;
        }
        let group_state = &task.group_state;

        // Hold one phantom dependence while wiring real ones, so the task
        // cannot be enqueued halfway through registration.
        task.pending_deps.store(1, Ordering::Release);
        let wired = inner.wire_dependences(&task);
        if wired > 0 {
            task.pending_deps.fetch_add(wired, Ordering::AcqRel);
        }

        match inner.policy {
            Policy::SignificanceAgnostic => {
                task.release_accurate();
            }
            Policy::Lqh => {
                task.release();
            }
            Policy::Gtb { .. } | Policy::GtbMaxBuffer => {
                let capacity = inner
                    .policy
                    .buffer_capacity()
                    .expect("buffering policy has a capacity");
                // This spawner still holds the record, so whichever flush
                // takes it — this one or a barrier's — goes the atomic way.
                match group_state.buffer_one(task.clone(), capacity) {
                    Some(window) => inner.flush_tasks(window),
                    None => inner.notify_buffered(group_state),
                }
            }
        }

        // Drop the phantom dependence; enqueue if everything is already in
        // place (released + no outstanding predecessors).
        task.pending_deps.fetch_sub(1, Ordering::AcqRel);
        inner.try_enqueue(&task);
        id
    }
}

/// Fluent description of a *handled* task: like [`TaskBuilder`], but the
/// bodies return a value and [`HandledTaskBuilder::spawn`] yields a
/// [`SpawnHandle`] resolving to the task's terminal [`TaskOutcome`]. Created
/// with [`Runtime::submit`].
///
/// Handled tasks are footprint-free by design: they exist for serving-style
/// workloads where completion is observed per request through the handle,
/// not through dependence chains.
#[must_use = "a handled task builder does nothing until .spawn() is called"]
pub struct HandledTaskBuilder<'rt, T> {
    runtime: &'rt Runtime,
    accurate: Box<dyn FnOnce() -> T + Send + 'static>,
    approximate: Option<Box<dyn FnOnce() -> T + Send + 'static>>,
    significance: Significance,
    group: Option<Cow<'rt, Arc<GroupState>>>,
    deadline_nanos: u64,
    cancel: Option<CancelToken>,
}

impl<'rt, T: Send + 'static> HandledTaskBuilder<'rt, T> {
    /// `significant(expr)` — the task's significance in `[0.0, 1.0]`.
    pub fn significance(mut self, significance: impl Into<Significance>) -> Self {
        self.significance = significance.into();
        self
    }

    /// `approxfun(function)` — the approximate body. Its return value lands
    /// in the handle exactly like the accurate one's.
    pub fn approx<F>(mut self, body: F) -> Self
    where
        F: FnOnce() -> T + Send + 'static,
    {
        self.approximate = Some(Box::new(body));
        self
    }

    /// `label(...)` by group handle. See [`TaskBuilder::group`].
    ///
    /// # Panics
    ///
    /// Panics if another runtime created `group`.
    pub fn group(mut self, group: &'rt TaskGroup) -> Self {
        let state = group.state_in(self.runtime.inner.id);
        self.group = Some(Cow::Borrowed(state));
        self
    }

    /// `deadline(...)` — relative deadline from now. See
    /// [`TaskBuilder::deadline`].
    pub fn deadline(mut self, deadline: Duration) -> Self {
        let absolute = self.runtime.inner.started.elapsed() + deadline;
        self.deadline_nanos = (absolute.as_nanos().min(u64::MAX as u128) as u64).max(1);
        self
    }

    /// Attach a cooperative [`CancelToken`]. See
    /// [`TaskBuilder::cancel_token`].
    pub fn cancel_token(mut self, token: &CancelToken) -> Self {
        self.cancel = Some(token.clone());
        self
    }

    /// Submit the task and return its [`SpawnHandle`].
    pub fn spawn(self) -> SpawnHandle<T> {
        let core = Arc::new(HandleCore::new());
        let accurate_core = core.clone();
        let accurate_body = self.accurate;
        let accurate: TaskBody = Box::new(move || accurate_core.put_value(accurate_body()));
        let approximate: Option<TaskBody> = self.approximate.map(|body| {
            let approx_core = core.clone();
            Box::new(move || approx_core.put_value(body())) as TaskBody
        });
        let id = TaskBuilder {
            approximate,
            significance: self.significance,
            group: self.group,
            deadline_nanos: self.deadline_nanos,
            cancel: self.cancel,
            handle: Some(core.clone() as Arc<dyn HandleNotify>),
            ..TaskBuilder::new(self.runtime, accurate)
        }
        .spawn();
        SpawnHandle::new(core, id)
    }
}

/// One task of a batched spawn: the accurate body plus the optional
/// per-task clauses of the programming model (`approxfun`, `significant`).
///
/// Batched tasks are footprint-free by design: a task declaring `in`/`out`
/// keys needs an individual dependence-tracker registration, which is
/// exactly the per-task cost batching exists to amortise — spawn those
/// through [`Runtime::task`] instead.
#[must_use = "a batch task does nothing until handed to a batch spawn"]
pub struct BatchTask {
    accurate: TaskBody,
    approximate: Option<TaskBody>,
    significance: Significance,
    /// Absolute per-task deadline (nanos since runtime start); `0` means
    /// "inherit the batch-wide deadline". Set through
    /// [`BatchBuilder::deadline_offset`].
    deadline_nanos: u64,
}

impl BatchTask {
    /// A batch task whose accurate body is `body`, at the default (critical)
    /// significance.
    pub fn new<F>(body: F) -> Self
    where
        F: FnOnce() + Send + 'static,
    {
        BatchTask {
            accurate: Box::new(body),
            approximate: None,
            significance: Significance::default(),
            deadline_nanos: 0,
        }
    }

    /// `approxfun(function)` — the approximate body.
    pub fn approx<F>(mut self, body: F) -> Self
    where
        F: FnOnce() + Send + 'static,
    {
        self.approximate = Some(Box::new(body));
        self
    }

    /// `significant(expr)` — the task's significance in `[0.0, 1.0]`.
    pub fn significance(mut self, significance: impl Into<Significance>) -> Self {
        self.significance = significance.into();
        self
    }
}

impl std::fmt::Debug for BatchTask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchTask")
            .field("significance", &self.significance)
            .field("has_approx", &self.approximate.is_some())
            .finish()
    }
}

/// The contiguous range of [`TaskId`]s issued to one batched spawn.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskIdRange {
    next: u64,
    end: u64,
}

impl TaskIdRange {
    /// The one-element range covering a single spawned task — lets
    /// [`Runtime::cancel_tasks`] address individually spawned tasks (e.g. a
    /// serving layer cancelling every retry generation of one request).
    pub fn single(id: TaskId) -> Self {
        TaskIdRange {
            next: id.0,
            end: id.0 + 1,
        }
    }

    /// Number of tasks the batch spawned.
    #[allow(clippy::len_without_is_empty)] // is_empty is provided below
    pub fn len(&self) -> usize {
        (self.end - self.next) as usize
    }

    /// Whether the batch was empty.
    pub fn is_empty(&self) -> bool {
        self.next == self.end
    }
}

impl Iterator for TaskIdRange {
    type Item = TaskId;

    fn next(&mut self) -> Option<TaskId> {
        if self.next == self.end {
            return None;
        }
        let id = TaskId(self.next);
        self.next += 1;
        Some(id)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = self.len();
        (len, Some(len))
    }
}

impl ExactSizeIterator for TaskIdRange {}

/// Fluent description of a batched spawn — the amortised counterpart of
/// [`TaskBuilder`]. All tasks of a batch share a group; bodies added through
/// [`BatchBuilder::spawn_all`] share the builder's default significance,
/// while [`BatchTask`] items carry their own clauses.
///
/// The whole batch is injected with **per-batch** master-side overhead: one
/// task-id reservation, one bump of each outstanding counter, one
/// statistics record, one pass of sticky round-robin chunked queue pushes
/// (lock-free end to end) and one coalesced wake. Under a GTB policy the
/// batch enters the group buffer with a single lock acquisition.
///
/// ```
/// use sig_core::{BatchTask, Policy, Runtime};
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use std::sync::Arc;
///
/// let rt = Runtime::builder().workers(2).policy(Policy::GtbMaxBuffer).build();
/// let group = rt.create_group("rows", 0.5);
/// let ran = Arc::new(AtomicUsize::new(0));
/// let ids = rt.batch().group(&group).spawn_tasks((0..100u32).map(|i| {
///     let acc = ran.clone();
///     let apx = ran.clone();
///     BatchTask::new(move || { acc.fetch_add(1, Ordering::Relaxed); })
///         .approx(move || { apx.fetch_add(1, Ordering::Relaxed); })
///         .significance(((i % 9) + 1) as f64 / 10.0)
/// }));
/// assert_eq!(ids.len(), 100);
/// rt.wait_group(&group);
/// assert_eq!(ran.load(Ordering::Relaxed), 100);
/// ```
#[must_use = "a batch builder does nothing until a spawn method is called"]
pub struct BatchBuilder<'rt> {
    runtime: &'rt Runtime,
    group: Option<Cow<'rt, Arc<GroupState>>>,
    significance: Significance,
    tasks: Vec<BatchTask>,
    deadline_nanos: u64,
    deadline_offsets: Vec<(usize, u64)>,
    cancel: Option<CancelToken>,
}

impl<'rt> BatchBuilder<'rt> {
    /// `label(...)` by group handle, for every task of the batch. See
    /// [`TaskBuilder::group`].
    ///
    /// # Panics
    ///
    /// Panics if another runtime created `group`.
    pub fn group(mut self, group: &'rt TaskGroup) -> Self {
        let state = group.state_in(self.runtime.inner.id);
        self.group = Some(Cow::Borrowed(state));
        self
    }

    /// `label(...)` by name; the group is created with a default ratio of
    /// 1.0 if it does not exist yet.
    pub fn label(mut self, label: &str) -> Self {
        let state = self.runtime.inner.groups.get_or_create(label, None);
        self.group = Some(Cow::Owned(state));
        self
    }

    /// Default significance for bodies added through
    /// [`BatchBuilder::spawn_all`] (individual [`BatchTask`]s override it).
    pub fn significance(mut self, significance: impl Into<Significance>) -> Self {
        self.significance = significance.into();
        self
    }

    /// `deadline(...)` — relative deadline from now, applied to every task
    /// of the batch. See [`TaskBuilder::deadline`].
    pub fn deadline(mut self, deadline: Duration) -> Self {
        let absolute = self.runtime.inner.started.elapsed() + deadline;
        self.deadline_nanos = (absolute.as_nanos().min(u64::MAX as u128) as u64).max(1);
        self
    }

    /// Give the `index`-th task of the batch its own deadline, `offset_nanos`
    /// from now. Batched requests arriving together often carry *distinct*
    /// arrival-relative deadlines (per request class); a batch-wide
    /// [`BatchBuilder::deadline`] cannot express that. Offsets are resolved
    /// to absolute deadlines at spawn time and override the batch-wide
    /// deadline for their task; indexes refer to the final task order (tasks
    /// added before `spawn`, in insertion order) and out-of-range indexes
    /// are ignored.
    pub fn deadline_offset(mut self, index: usize, offset_nanos: u64) -> Self {
        self.deadline_offsets.push((index, offset_nanos));
        self
    }

    /// Attach a cooperative [`CancelToken`] to every task of the batch. See
    /// [`TaskBuilder::cancel_token`].
    pub fn cancel_token(mut self, token: &CancelToken) -> Self {
        self.cancel = Some(token.clone());
        self
    }

    /// Add one pre-described task to the batch (loop-friendly form).
    pub fn push(&mut self, task: BatchTask) {
        self.tasks.push(task);
    }

    /// Add one pre-described task to the batch (fluent form).
    pub fn task(mut self, task: BatchTask) -> Self {
        self.tasks.push(task);
        self
    }

    /// Append `items` to the batch and submit everything.
    pub fn spawn_tasks(mut self, items: impl IntoIterator<Item = BatchTask>) -> TaskIdRange {
        self.tasks.extend(items);
        self.spawn()
    }

    /// Append one plain accurate `body` per iterator item — each at the
    /// builder's default significance — and submit everything. The
    /// `TaskBuilder`-compatible spelling for uniform fine-grained floods.
    pub fn spawn_all<I, F>(mut self, bodies: I) -> TaskIdRange
    where
        I: IntoIterator<Item = F>,
        F: FnOnce() + Send + 'static,
    {
        let significance = self.significance;
        self.tasks.extend(
            bodies
                .into_iter()
                .map(|body| BatchTask::new(body).significance(significance)),
        );
        self.spawn()
    }

    /// Submit the batch. Returns the contiguous range of issued task ids.
    pub fn spawn(self) -> TaskIdRange {
        let mut tasks = self.tasks;
        if !self.deadline_offsets.is_empty() {
            let now = self.runtime.inner.started.elapsed().as_nanos() as u64;
            for (index, offset_nanos) in self.deadline_offsets {
                if let Some(task) = tasks.get_mut(index) {
                    // 0 means "no deadline": clamp real deadlines away.
                    task.deadline_nanos = now.saturating_add(offset_nanos).max(1);
                }
            }
        }
        let inner = &self.runtime.inner;
        let group = self.group.as_deref().unwrap_or(&inner.global_group);
        inner.spawn_batch_into(group, tasks, self.deadline_nanos, self.cancel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deps::READER_ROTATION;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Mutex;
    use std::time::Duration;

    fn count_runtime(policy: Policy) -> Runtime {
        Runtime::builder().workers(4).policy(policy).build()
    }

    #[test]
    fn builder_defaults() {
        let rt = Runtime::builder().workers(2).build();
        assert_eq!(rt.workers(), 2);
        assert_eq!(rt.policy(), Policy::SignificanceAgnostic);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = Runtime::builder().workers(0);
    }

    #[test]
    fn agnostic_runtime_runs_everything_accurately() {
        let rt = count_runtime(Policy::SignificanceAgnostic);
        let accurate = Arc::new(AtomicUsize::new(0));
        let approx = Arc::new(AtomicUsize::new(0));
        for i in 0..64u32 {
            let a = accurate.clone();
            let b = approx.clone();
            rt.task(move || {
                a.fetch_add(1, Ordering::Relaxed);
            })
            .approx(move || {
                b.fetch_add(1, Ordering::Relaxed);
            })
            .significance((i % 10) as f64 / 10.0)
            .spawn();
        }
        rt.wait_all();
        assert_eq!(accurate.load(Ordering::Relaxed), 64);
        assert_eq!(approx.load(Ordering::Relaxed), 0);
        assert_eq!(rt.stats().accurate(), 64);
        assert_eq!(rt.stats().completed(), 64);
    }

    #[test]
    fn gtb_respects_ratio_and_significance() {
        let rt = count_runtime(Policy::GtbMaxBuffer);
        let group = rt.create_group("g", 0.5);
        let accurate = Arc::new(AtomicUsize::new(0));
        let approx = Arc::new(AtomicUsize::new(0));
        for i in 0..100u32 {
            let a = accurate.clone();
            let b = approx.clone();
            rt.task(move || {
                a.fetch_add(1, Ordering::Relaxed);
            })
            .approx(move || {
                b.fetch_add(1, Ordering::Relaxed);
            })
            .significance(((i % 9) + 1) as f64 / 10.0)
            .group(&group)
            .spawn();
        }
        rt.wait_group(&group);
        let stats = rt.group_stats(&group);
        assert_eq!(stats.total(), 100);
        // Max-buffer GTB has perfect information: the requested ratio is met
        // exactly (within the ceil rounding) and no inversion happens.
        assert!(stats.accurate >= 50 && stats.accurate <= 51, "{stats:?}");
        assert_eq!(stats.inverted, 0);
        assert!(stats.ratio_diff() < 0.02);
    }

    #[test]
    fn gtb_small_buffer_still_tracks_ratio() {
        let rt = count_runtime(Policy::Gtb { buffer_size: 10 });
        let group = rt.create_group("g", 0.3);
        for i in 0..200u32 {
            rt.task(|| {})
                .approx(|| {})
                .significance(((i % 9) + 1) as f64 / 10.0)
                .group(&group)
                .spawn();
        }
        rt.wait_group(&group);
        let stats = rt.group_stats(&group);
        assert_eq!(stats.total(), 200);
        // Each 10-task window is classified independently; the overall ratio
        // still lands on target because windows see the same distribution.
        assert!(
            (stats.achieved_ratio() - 0.3).abs() < 0.1,
            "achieved {}",
            stats.achieved_ratio()
        );
    }

    #[test]
    fn dropped_tasks_have_no_approx_body() {
        let rt = count_runtime(Policy::GtbMaxBuffer);
        let group = rt.create_group("drop", 0.0);
        let ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let r = ran.clone();
            rt.task(move || {
                r.fetch_add(1, Ordering::Relaxed);
            })
            .significance(0.5)
            .group(&group)
            .spawn();
        }
        rt.wait_group(&group);
        let stats = rt.group_stats(&group);
        assert_eq!(stats.dropped, 10);
        assert_eq!(
            ran.load(Ordering::Relaxed),
            0,
            "dropped bodies must not run"
        );
    }

    #[test]
    fn lqh_runs_critical_tasks_accurately() {
        let rt = count_runtime(Policy::Lqh);
        let group = rt.create_group("lqh", 0.2);
        let accurate = Arc::new(AtomicUsize::new(0));
        for i in 0..50u32 {
            let a = accurate.clone();
            let sig = if i % 2 == 0 { 1.0 } else { 0.0 };
            rt.task(move || {
                a.fetch_add(1, Ordering::Relaxed);
            })
            .approx(|| {})
            .significance(sig)
            .group(&group)
            .spawn();
        }
        rt.wait_group(&group);
        // Exactly the 25 critical tasks must have run accurately.
        assert_eq!(accurate.load(Ordering::Relaxed), 25);
        let stats = rt.group_stats(&group);
        assert_eq!(stats.accurate, 25);
        assert_eq!(stats.approximate, 25);
    }

    #[test]
    fn dependencies_order_writer_before_reader() {
        let rt = count_runtime(Policy::SignificanceAgnostic);
        let key = DepKey::named("value");
        let cell = Arc::new(AtomicUsize::new(0));
        let observed = Arc::new(AtomicUsize::new(0));
        {
            let cell = cell.clone();
            rt.task(move || {
                std::thread::sleep(Duration::from_millis(20));
                cell.store(42, Ordering::SeqCst);
            })
            .writes([key])
            .spawn();
        }
        {
            let cell = cell.clone();
            let observed = observed.clone();
            rt.task(move || {
                observed.store(cell.load(Ordering::SeqCst), Ordering::SeqCst);
            })
            .reads([key])
            .spawn();
        }
        rt.wait_all();
        assert_eq!(observed.load(Ordering::SeqCst), 42);
    }

    #[test]
    fn dependency_chain_executes_in_order() {
        let rt = count_runtime(Policy::SignificanceAgnostic);
        let key = DepKey::named("chain");
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..16usize {
            let log = log.clone();
            rt.task(move || {
                log.lock().unwrap().push(i);
            })
            .reads([key])
            .writes([key])
            .spawn();
        }
        rt.wait_all();
        let log = log.lock().unwrap().clone();
        assert_eq!(log, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn one_worker_runs_external_spawns_in_spawn_order() {
        // The paper's workers run their oldest task first. At one worker
        // that is spawn order, across mailbox takes, deque runs and parked
        // ready chains alike (LQH's decisions at one worker rely on it).
        const TASKS: usize = 20_000;
        let rt = Runtime::builder()
            .workers(1)
            .policy(Policy::SignificanceAgnostic)
            .build();
        let log = Arc::new(Mutex::new(Vec::with_capacity(TASKS)));
        for i in 0..TASKS {
            let log = log.clone();
            rt.task(move || log.lock().unwrap().push(i)).spawn();
        }
        rt.wait_all();
        let log = log.lock().unwrap();
        assert_eq!(log.len(), TASKS);
        assert!(
            log.iter().copied().eq(0..TASKS),
            "tasks ran out of spawn order"
        );
    }

    #[test]
    fn a_large_flush_holds_about_one_chunk_on_a_worker_ring() {
        // A GTB-Max flush of 20 000 records at one worker: the tail is
        // pushed a chunk at a time behind its own continuation, so the ring
        // never holds the whole flush.
        let rt = Runtime::builder()
            .workers(1)
            .policy(Policy::GtbMaxBuffer)
            .build();
        let group = rt.create_group("large", 0.5);
        for _ in 0..20_000 {
            rt.task(|| {}).significance(0.5).group(&group).spawn();
        }
        rt.wait_group(&group);
        let capacity = rt.inner.queues.deque_capacity(0);
        assert!(
            capacity <= 2 * RuntimeInner::FLUSH_CHUNK as u64,
            "the ring grew to {capacity} slots"
        );
    }

    #[test]
    fn wait_on_blocks_until_writers_finish() {
        let rt = count_runtime(Policy::SignificanceAgnostic);
        let key = DepKey::named("result");
        let flag = Arc::new(AtomicBool::new(false));
        {
            let flag = flag.clone();
            rt.task(move || {
                std::thread::sleep(Duration::from_millis(30));
                flag.store(true, Ordering::SeqCst);
            })
            .writes([key])
            .spawn();
        }
        rt.wait_on(key);
        assert!(flag.load(Ordering::SeqCst));
    }

    #[test]
    fn wait_group_only_waits_for_that_group() {
        let rt = count_runtime(Policy::SignificanceAgnostic);
        let fast = rt.create_group("fast", 1.0);
        let slow = rt.create_group("slow", 1.0);
        let slow_done = Arc::new(AtomicBool::new(false));
        {
            let slow_done = slow_done.clone();
            rt.task(move || {
                std::thread::sleep(Duration::from_millis(80));
                slow_done.store(true, Ordering::SeqCst);
            })
            .group(&slow)
            .spawn();
        }
        rt.task(|| {}).group(&fast).spawn();
        rt.wait_group(&fast);
        // The slow group may still be running when the fast barrier returns.
        let fast_stats = rt.group_stats(&fast);
        assert_eq!(fast_stats.total(), 1);
        rt.wait_group(&slow);
        assert!(slow_done.load(Ordering::SeqCst));
    }

    #[test]
    fn ratio_at_barrier_controls_max_buffer_flush() {
        let rt = count_runtime(Policy::GtbMaxBuffer);
        let group = rt.create_group("late-ratio", 1.0);
        for i in 0..40u32 {
            rt.task(|| {})
                .approx(|| {})
                .significance(((i % 9) + 1) as f64 / 10.0)
                .group(&group)
                .spawn();
        }
        // The ratio arrives only at the barrier, like
        // `#pragma omp taskwait label(...) ratio(0.25)`.
        rt.wait_group_with_ratio(&group, 0.25);
        let stats = rt.group_stats(&group);
        assert_eq!(stats.total(), 40);
        assert_eq!(stats.accurate, 10);
    }

    #[test]
    fn panicking_task_is_contained() {
        let rt = count_runtime(Policy::SignificanceAgnostic);
        rt.task(|| panic!("boom")).spawn();
        rt.task(|| {}).spawn();
        let summary = rt.wait_all();
        assert_eq!(rt.panicked_tasks(), 1);
        // A panicked task is a terminal outcome of its own, not `completed`.
        assert_eq!(rt.stats().completed(), 1);
        assert_eq!(summary.spawned, 2);
        assert_eq!(summary.panicked, 1);
        assert_eq!(summary.completed + summary.failed(), summary.spawned);
        assert!(!summary.is_clean());
    }

    #[test]
    fn drop_flushes_and_completes_everything() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let rt = count_runtime(Policy::GtbMaxBuffer);
            let group = rt.create_group("g", 1.0);
            for _ in 0..32 {
                let c = counter.clone();
                rt.task(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                })
                .group(&group)
                .spawn();
            }
            // No explicit barrier: dropping the runtime must flush the GTB
            // buffer and run every task.
        }
        assert_eq!(counter.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn stats_expose_steals_and_flushes() {
        let rt = Runtime::builder()
            .workers(4)
            .policy(Policy::Gtb { buffer_size: 4 })
            .build();
        let group = rt.create_group("s", 1.0);
        for _ in 0..64 {
            rt.task(|| std::thread::sleep(Duration::from_micros(200)))
                .group(&group)
                .spawn();
        }
        rt.wait_group(&group);
        assert!(rt.stats().buffer_flushes() >= 16);
        assert!(rt.stats().busy_core_seconds() > 0.0);
    }

    #[test]
    fn large_max_buffer_flush_parallelises_without_stat_pollution() {
        // Above PARALLEL_FLUSH_MIN the release sweep runs as system chunk
        // tasks on the workers; results must be indistinguishable from the
        // inline path and invisible in user-facing statistics.
        let rt = count_runtime(Policy::GtbMaxBuffer);
        let group = rt.create_group("big", 0.5);
        const N: usize = 10_000;
        for i in 0..N {
            rt.task(|| {})
                .approx(|| {})
                .significance(((i % 9) + 1) as f64 / 10.0)
                .group(&group)
                .spawn();
        }
        rt.wait_group(&group);
        let stats = rt.group_stats(&group);
        assert_eq!(stats.total(), N);
        assert_eq!(stats.accurate, N / 2);
        assert_eq!(stats.inverted, 0);
        rt.wait_all();
        assert_eq!(rt.stats().completed(), N, "system chunks must not count");
        assert_eq!(rt.stats().spawned(), N);
    }

    #[test]
    fn energy_report_reflects_executed_work() {
        let rt = Runtime::builder()
            .workers(2)
            .policy(Policy::GtbMaxBuffer)
            .governor(crate::governor::SignificanceLadderGovernor::single_step(
                0.5,
            ))
            .build();
        let group = rt.create_group("energy", 0.5);
        for i in 0..64u32 {
            rt.task(|| std::thread::sleep(Duration::from_micros(300)))
                .approx(|| std::thread::sleep(Duration::from_micros(100)))
                .significance(((i % 9) + 1) as f64 / 10.0)
                .group(&group)
                .spawn();
        }
        rt.wait_group(&group);
        let report = rt.energy_report();
        assert_eq!(report.governor, "significance-ladder");
        // 32 approximate tasks were dispatched below nominal frequency.
        assert_eq!(report.scaled_tasks(), 32);
        assert!(report.busy_seconds() > 0.0);
        // Dilation: modelled busy exceeds measured busy.
        assert!(report.modelled_busy_seconds() > report.busy_seconds());
        let reading = report.reading();
        assert!(reading.joules > 0.0);
        assert!(reading.breakdown.dynamic_joules > 0.0);
        // Busy time is conserved between scheduler stats and energy shards.
        assert!((report.busy_seconds() - rt.stats().busy_core_seconds()).abs() < 1e-9);
    }

    #[test]
    fn find_group_after_label_spawn() {
        let rt = count_runtime(Policy::SignificanceAgnostic);
        rt.task(|| {}).label("implicit").spawn();
        rt.wait_all();
        let group = rt.find_group("implicit").expect("group should exist");
        assert_eq!(rt.group_stats(&group).total(), 1);
        assert!(rt.find_group("missing").is_none());
    }

    #[test]
    fn wait_all_with_ratio_applies_to_unlabelled_tasks() {
        let rt = count_runtime(Policy::GtbMaxBuffer);
        for i in 0..20u32 {
            rt.task(|| {})
                .approx(|| {})
                .significance(((i % 9) + 1) as f64 / 10.0)
                .spawn();
        }
        rt.wait_all_with_ratio(0.5);
        assert_eq!(rt.stats().accurate(), 10);
        assert_eq!(rt.stats().approximate(), 10);
    }

    #[test]
    fn many_small_tasks_complete() {
        let rt = Runtime::builder().workers(8).policy(Policy::Lqh).build();
        let group = rt.create_group("many", 0.5);
        let counter = Arc::new(AtomicUsize::new(0));
        for i in 0..2000u32 {
            let c = counter.clone();
            rt.task(move || {
                c.fetch_add(1, Ordering::Relaxed);
            })
            .approx({
                let c = counter.clone();
                move || {
                    c.fetch_add(1, Ordering::Relaxed);
                }
            })
            .significance(((i % 9) + 1) as f64 / 10.0)
            .group(&group)
            .spawn();
        }
        rt.wait_group(&group);
        assert_eq!(counter.load(Ordering::Relaxed), 2000);
        assert_eq!(rt.group_stats(&group).total(), 2000);
    }

    #[test]
    fn spawn_batch_runs_everything_under_every_policy() {
        for policy in [
            Policy::SignificanceAgnostic,
            Policy::Gtb { buffer_size: 16 },
            Policy::GtbMaxBuffer,
            Policy::Lqh,
        ] {
            let rt = count_runtime(policy);
            let group = rt.create_group("batch", 0.5);
            let ran = Arc::new(AtomicUsize::new(0));
            let ids = rt.batch().group(&group).spawn_tasks((0..500u32).map(|i| {
                let acc = ran.clone();
                let apx = ran.clone();
                BatchTask::new(move || {
                    acc.fetch_add(1, Ordering::Relaxed);
                })
                .approx(move || {
                    apx.fetch_add(1, Ordering::Relaxed);
                })
                .significance(((i % 9) + 1) as f64 / 10.0)
            }));
            assert_eq!(ids.len(), 500);
            assert!(!ids.is_empty());
            rt.wait_group(&group);
            assert_eq!(ran.load(Ordering::Relaxed), 500, "{policy:?}");
            let stats = rt.group_stats(&group);
            assert_eq!(stats.total(), 500, "{policy:?}");
            assert_eq!(rt.stats().spawned(), 500);
            if policy == Policy::GtbMaxBuffer {
                // Batched spawns reach the Max-Buffer classifier intact:
                // perfect-information ratio, zero inversions.
                assert_eq!(stats.accurate, 250);
                assert_eq!(stats.inverted, 0);
            }
        }
    }

    #[test]
    fn spawn_batch_ids_are_contiguous_and_interleave_with_spawn() {
        let rt = count_runtime(Policy::SignificanceAgnostic);
        let single = rt.task(|| {}).spawn();
        let batch: Vec<TaskId> = rt
            .spawn_batch((0..10).map(|_| BatchTask::new(|| {})))
            .collect();
        assert_eq!(batch.len(), 10);
        for pair in batch.windows(2) {
            assert_eq!(pair[1].index(), pair[0].index() + 1, "contiguous ids");
        }
        assert!(batch[0] > single);
        let after = rt.task(|| {}).spawn();
        assert!(after > batch[9]);
        rt.wait_all();
        assert_eq!(rt.stats().completed(), 12);
    }

    #[test]
    fn spawn_all_applies_builder_defaults() {
        let rt = count_runtime(Policy::GtbMaxBuffer);
        let group = rt.create_group("all", 1.0);
        let ran = Arc::new(AtomicUsize::new(0));
        let ids = rt
            .batch()
            .group(&group)
            .significance(0.5)
            .spawn_all((0..32).map(|_| {
                let ran = ran.clone();
                move || {
                    ran.fetch_add(1, Ordering::Relaxed);
                }
            }));
        assert_eq!(ids.len(), 32);
        // Ratio 1.0: everything runs accurately regardless of significance.
        rt.wait_group(&group);
        assert_eq!(ran.load(Ordering::Relaxed), 32);
        assert_eq!(rt.group_stats(&group).accurate, 32);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let rt = count_runtime(Policy::SignificanceAgnostic);
        let ids = rt.spawn_batch(std::iter::empty());
        assert!(ids.is_empty());
        assert_eq!(ids.len(), 0);
        rt.wait_all();
        assert_eq!(rt.stats().spawned(), 0);
    }

    #[test]
    fn batch_builder_push_and_task_forms_compose() {
        let rt = count_runtime(Policy::SignificanceAgnostic);
        let ran = Arc::new(AtomicUsize::new(0));
        let mut batch = rt.batch().task({
            let ran = ran.clone();
            BatchTask::new(move || {
                ran.fetch_add(1, Ordering::Relaxed);
            })
        });
        for _ in 0..3 {
            let ran = ran.clone();
            batch.push(BatchTask::new(move || {
                ran.fetch_add(1, Ordering::Relaxed);
            }));
        }
        assert_eq!(batch.spawn().len(), 4);
        rt.wait_all();
        assert_eq!(ran.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn mid_barrier_spawn_into_buffering_group_does_not_deadlock() {
        // A task body spawning into its own (buffering) group while the
        // barrier is already waiting: the buffered children have no master
        // left to flush them, so the barrier predicate must re-flush and
        // the buffering spawn must nudge the blocked waiter.
        for policy in [Policy::Gtb { buffer_size: 64 }, Policy::GtbMaxBuffer] {
            let rt = Arc::new(count_runtime(policy));
            let group = rt.create_group("nested", 1.0);
            let ran = Arc::new(AtomicUsize::new(0));
            {
                let rt2 = rt.clone();
                let group2 = group.clone();
                let ran2 = ran.clone();
                rt.task(move || {
                    // One per-task spawn and one batch, both from inside a
                    // worker, both under the open barrier.
                    let r = ran2.clone();
                    rt2.task(move || {
                        r.fetch_add(1, Ordering::Relaxed);
                    })
                    .significance(1.0)
                    .group(&group2)
                    .spawn();
                    let ran3 = &ran2;
                    rt2.batch().group(&group2).spawn_tasks((0..5).map(|_| {
                        let r = ran3.clone();
                        BatchTask::new(move || {
                            r.fetch_add(1, Ordering::Relaxed);
                        })
                        .significance(1.0)
                    }));
                })
                .significance(1.0)
                .group(&group)
                .spawn();
            }
            rt.wait_group(&group);
            assert_eq!(ran.load(Ordering::Relaxed), 6, "{policy:?}");
            assert_eq!(rt.group_stats(&group).total(), 7, "{policy:?}");
        }
    }

    #[test]
    fn two_runtimes_do_not_cross_wire_worker_locals() {
        // A task body of one runtime spawning into another runtime must go
        // through the external (mailbox) path, not the first runtime's deques.
        let a = Arc::new(count_runtime(Policy::SignificanceAgnostic));
        let b = Arc::new(count_runtime(Policy::SignificanceAgnostic));
        let ran = Arc::new(AtomicUsize::new(0));
        {
            let b = b.clone();
            let ran = ran.clone();
            a.task(move || {
                let r = ran.clone();
                b.task(move || {
                    r.fetch_add(1, Ordering::Relaxed);
                })
                .spawn();
            })
            .spawn();
        }
        a.wait_all();
        b.wait_all();
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    /// Occupy the single worker of `rt` until the returned sender fires.
    /// The task is guaranteed to be *running* (not just queued) on return,
    /// so everything spawned afterwards sits in the queue behind it.
    fn block_single_worker(rt: &Runtime) -> std::sync::mpsc::Sender<()> {
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        rt.task(move || {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        })
        .spawn();
        started_rx.recv().unwrap();
        release_tx
    }

    #[test]
    fn cancel_token_skips_queued_tasks() {
        let rt = Runtime::builder()
            .workers(1)
            .policy(Policy::SignificanceAgnostic)
            .build();
        let release = block_single_worker(&rt);
        let token = CancelToken::new();
        let ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let r = ran.clone();
            rt.task(move || {
                r.fetch_add(1, Ordering::Relaxed);
            })
            .cancel_token(&token)
            .spawn();
        }
        token.cancel();
        release.send(()).unwrap();
        let summary = rt.wait_all();
        assert_eq!(
            ran.load(Ordering::Relaxed),
            0,
            "cancelled bodies must not run"
        );
        assert_eq!(summary.cancelled, 50);
        assert_eq!(summary.completed, 1, "only the blocker completed");
        assert_eq!(summary.spawned, 51);
        assert_eq!(summary.completed + summary.failed(), summary.spawned);
    }

    #[test]
    fn cancel_tasks_by_id_range() {
        let rt = Runtime::builder()
            .workers(1)
            .policy(Policy::SignificanceAgnostic)
            .build();
        let release = block_single_worker(&rt);
        let ran = Arc::new(AtomicUsize::new(0));
        let ids = rt.batch().spawn_tasks((0..40).map(|_| {
            let r = ran.clone();
            BatchTask::new(move || {
                r.fetch_add(1, Ordering::Relaxed);
            })
        }));
        rt.cancel_tasks(&ids);
        release.send(()).unwrap();
        let summary = rt.wait_all();
        assert_eq!(ran.load(Ordering::Relaxed), 0);
        assert_eq!(summary.cancelled, 40);
        assert_eq!(summary.completed, 1);
    }

    #[test]
    fn cancel_group_skips_only_that_group() {
        let rt = Runtime::builder()
            .workers(1)
            .policy(Policy::SignificanceAgnostic)
            .build();
        let doomed = rt.create_group("doomed", 1.0);
        let alive = rt.create_group("alive", 1.0);
        let release = block_single_worker(&rt);
        let doomed_ran = Arc::new(AtomicUsize::new(0));
        let alive_ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..20 {
            let d = doomed_ran.clone();
            rt.task(move || {
                d.fetch_add(1, Ordering::Relaxed);
            })
            .group(&doomed)
            .spawn();
            let a = alive_ran.clone();
            rt.task(move || {
                a.fetch_add(1, Ordering::Relaxed);
            })
            .group(&alive)
            .spawn();
        }
        rt.cancel_group(&doomed);
        release.send(()).unwrap();
        let summary = rt.wait_all();
        assert_eq!(doomed_ran.load(Ordering::Relaxed), 0);
        assert_eq!(alive_ran.load(Ordering::Relaxed), 20);
        assert_eq!(summary.cancelled, 20);
        assert_eq!(summary.completed, 21);
    }

    #[test]
    fn poisoned_read_is_never_observed_clean() {
        let rt = Arc::new(count_runtime(Policy::SignificanceAgnostic));
        let key = DepKey::named("poisoned-input");
        let derived = DepKey::named("derived-output");
        rt.task(|| panic!("writer dies")).writes([key]).spawn();
        let observed_clean = Arc::new(AtomicBool::new(false));
        {
            let rt2 = rt.clone();
            let observed_clean = observed_clean.clone();
            rt.task(move || {
                if !rt2.is_poisoned(key) {
                    observed_clean.store(true, Ordering::SeqCst);
                }
            })
            .reads([key])
            .writes([derived])
            .spawn();
        }
        let summary = rt.wait_all();
        assert!(
            !observed_clean.load(Ordering::SeqCst),
            "a dependent of a panicked writer observed the key clean"
        );
        assert!(rt.is_poisoned(key));
        // The reader itself succeeded, but its output derives from poisoned
        // data: poison propagates transitively.
        assert!(rt.is_poisoned(derived));
        assert_eq!(summary.panicked, 1);
        assert_eq!(summary.completed, 1);
    }

    #[test]
    fn overload_sheds_approximate_tiers_only() {
        let rt = Runtime::builder()
            .workers(1)
            .policy(Policy::Lqh)
            .queue_watermark(1)
            .build();
        let crit = rt.create_group("critical", 1.0);
        let soft = rt.create_group("soft", 0.0);
        let release = block_single_worker(&rt);
        let ran_critical = Arc::new(AtomicUsize::new(0));
        let ran_soft = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let c = ran_critical.clone();
            rt.task(move || {
                c.fetch_add(1, Ordering::Relaxed);
            })
            .significance(1.0)
            .group(&crit)
            .spawn();
            let s = ran_soft.clone();
            rt.task(|| unreachable!("accurate tier must not run at ratio 0"))
                .approx(move || {
                    s.fetch_add(1, Ordering::Relaxed);
                })
                .significance(0.1)
                .group(&soft)
                .spawn();
        }
        release.send(()).unwrap();
        let summary = rt.wait_all();
        // Brownout: sheds strictly from the approximate tiers upward —
        // every critical task ran, nothing was cancelled, and the books
        // balance exactly.
        assert_eq!(ran_critical.load(Ordering::Relaxed), 50);
        assert_eq!(summary.cancelled, 0);
        assert!(summary.shed >= 1, "2x overload must shed: {summary:?}");
        assert_eq!(ran_soft.load(Ordering::Relaxed) + summary.shed, 50);
        assert_eq!(summary.spawned, 101);
        assert_eq!(summary.completed + summary.failed(), summary.spawned);
    }

    #[test]
    fn deadline_pressure_races_to_nominal() {
        let run = |deadline: Option<Duration>| {
            let rt = Runtime::builder()
                .workers(1)
                .policy(Policy::Lqh)
                .governor(crate::governor::SignificanceLadderGovernor::single_step(
                    0.5,
                ))
                .build();
            let group = rt.create_group("soft", 0.0);
            let mut builder = rt
                .task(|| {})
                .approx(|| std::thread::sleep(Duration::from_micros(100)))
                .significance(0.0)
                .group(&group);
            if let Some(d) = deadline {
                builder = builder.deadline(d);
            }
            builder.spawn();
            rt.wait_group(&group);
            (
                rt.energy_report().scaled_tasks(),
                rt.stats().deadline_misses(),
            )
        };
        // No deadline: the approximate task is dispatched below nominal.
        let (scaled, misses) = run(None);
        assert_eq!(scaled, 1);
        assert_eq!(misses, 0);
        // An already-expired deadline: the dispatch races to nominal and
        // the miss is recorded.
        let (scaled, misses) = run(Some(Duration::ZERO));
        assert_eq!(scaled, 0, "deadline pressure must override scaling");
        assert!(misses >= 1);
    }

    #[test]
    fn panic_during_barrier_releases_waiter_with_failure_visible() {
        let rt = count_runtime(Policy::SignificanceAgnostic);
        let group = rt.create_group("mixed", 1.0);
        for i in 0..8 {
            rt.task(move || {
                if i % 2 == 0 {
                    panic!("task {i} dies");
                }
            })
            .group(&group)
            .spawn();
        }
        let summary = rt.wait_group(&group);
        assert_eq!(summary.panicked, 4);
        assert_eq!(summary.completed, 4);
        let stats = rt.group_stats(&group);
        assert_eq!(stats.panicked, 4);
        assert_eq!(stats.total(), 4, "only successful executions count");
    }

    #[test]
    fn panic_inside_gtb_buffered_task_is_contained() {
        for policy in [Policy::Gtb { buffer_size: 4 }, Policy::GtbMaxBuffer] {
            let rt = count_runtime(policy);
            let group = rt.create_group("explosive", 1.0);
            for _ in 0..10 {
                rt.task(|| panic!("buffered boom")).group(&group).spawn();
            }
            let summary = rt.wait_group(&group);
            assert_eq!(summary.panicked, 10, "{policy:?}");
            assert_eq!(summary.completed, 0, "{policy:?}");
            assert_eq!(rt.group_stats(&group).panicked, 10, "{policy:?}");
        }
    }

    #[test]
    #[should_panic(expected = "ratio must be in")]
    fn wait_all_with_nan_ratio_panics() {
        let rt = count_runtime(Policy::SignificanceAgnostic);
        rt.wait_all_with_ratio(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "ratio must be in")]
    fn wait_group_with_out_of_range_ratio_panics() {
        let rt = count_runtime(Policy::SignificanceAgnostic);
        let group = rt.create_group("g", 1.0);
        rt.wait_group_with_ratio(&group, 1.5);
    }

    #[test]
    #[should_panic(expected = "ratio must be in")]
    fn create_group_with_negative_ratio_panics() {
        let rt = count_runtime(Policy::SignificanceAgnostic);
        let _ = rt.create_group("negative", -0.1);
    }

    #[test]
    #[should_panic(expected = "watermark must be positive")]
    fn zero_queue_watermark_rejected() {
        let _ = Runtime::builder().queue_watermark(0);
    }

    #[test]
    #[should_panic(expected = "watermark must be a finite rate")]
    fn nan_miss_watermark_rejected() {
        let _ = Runtime::builder().deadline_miss_watermark(f64::NAN);
    }

    #[test]
    fn inert_robustness_features_do_not_change_outcomes() {
        // Watermarks never crossed, deadlines far away, a token never
        // cancelled: the robustness plumbing must be invisible.
        let rt = Runtime::builder()
            .workers(4)
            .policy(Policy::GtbMaxBuffer)
            .queue_watermark(1_000_000)
            .deadline_miss_watermark(1.0)
            .build();
        let group = rt.create_group("inert", 0.5);
        let token = CancelToken::new();
        for i in 0..100u32 {
            rt.task(|| {})
                .approx(|| {})
                .significance(((i % 9) + 1) as f64 / 10.0)
                .group(&group)
                .deadline(Duration::from_secs(3600))
                .cancel_token(&token)
                .spawn();
        }
        let summary = rt.wait_group(&group);
        assert!(summary.is_clean(), "{summary:?}");
        assert_eq!(summary.completed, 100);
        assert_eq!(summary.deadline_misses, 0);
        let stats = rt.group_stats(&group);
        assert_eq!(stats.total(), 100);
        assert_eq!(stats.accurate, 50);
    }

    // ---- task-record recycling (`HuskPool`) ----

    /// Queue `f` for `rt`'s worker and return what it computed. Resolved
    /// through a handle, not a barrier: a barrier would free the stashes
    /// these tests look into.
    fn queue_probe<T: Send + 'static>(
        rt: &Runtime,
        f: impl FnOnce(&RuntimeInner) -> T + Send + 'static,
    ) -> SpawnHandle<T> {
        let inner = rt.inner.clone();
        rt.submit(move || f(&inner)).spawn()
    }

    /// Empty the calling thread's stash: `(address, blank?)` of every husk.
    fn drain_stash(inner: &RuntimeInner) -> Vec<(usize, bool)> {
        let husks = inner.with_stash(std::mem::take).expect("thread is alive");
        husks
            .into_iter()
            .map(|mut husk| {
                let address = Arc::as_ptr(&husk) as usize;
                let blank = Arc::get_mut(&mut husk).is_some_and(|record| record.is_blank());
                (address, blank)
            })
            .collect()
    }

    #[test]
    fn recycled_records_start_blank_after_every_outcome() {
        // One worker, held while the queue fills, then run without a gap:
        // a completed, a panicked, a cancelled and (from the second overload
        // tick on) shed tasks, every clause a record can carry among them —
        // and a writer of its own key failing in each of the three ways.
        let rt = Runtime::builder()
            .workers(1)
            .policy(Policy::Lqh)
            .queue_watermark(1)
            .build();
        let soft = rt.create_group("soft", 0.0);
        let release = block_single_worker(&rt);
        let token = CancelToken::new();
        let cancelled = CancelToken::new();
        cancelled.cancel();
        let keys = ["panicked", "cancelled", "shed"].map(DepKey::named);
        let panicked = rt
            .submit(|| -> u32 { panic!("recycling test: contained panic") })
            .deadline(Duration::from_secs(3600))
            .cancel_token(&token)
            .spawn();
        let skipped = rt.submit(|| 1u32).cancel_token(&cancelled).spawn();
        rt.task(|| panic!("recycling test: contained panic"))
            .writes([keys[0]])
            .spawn();
        rt.task(|| {})
            .writes([keys[1]])
            .cancel_token(&cancelled)
            .spawn();
        let shed_candidate = |rt: &Runtime| {
            rt.submit(|| unreachable!("accurate tier must not run at ratio 0"))
                .approx(|| ())
                .significance(0.1)
                .group(&soft)
                .cancel_token(&token)
                .spawn()
        };
        let mut shed: Vec<_> = (0..45).map(|_| shed_candidate(&rt)).collect();
        // Behind the second overload tick (the 33rd execute), in front of
        // the backlog that keeps the queue over its watermark.
        rt.task(|| unreachable!("accurate tier must not run at ratio 0"))
            .approx(|| ())
            .significance(0.1)
            .group(&soft)
            .writes([keys[2]])
            .spawn();
        shed.extend((0..45).map(|_| shed_candidate(&rt)));
        let probe = queue_probe(&rt, drain_stash);
        release.send(()).unwrap();

        assert!(probe.wait().is_success());
        let husks = probe.take_value().expect("probe ran");
        assert_eq!(panicked.wait(), TaskOutcome::Panicked);
        assert_eq!(skipped.wait(), TaskOutcome::Cancelled);
        let shed = shed
            .iter()
            .filter(|handle| handle.wait() == TaskOutcome::Shed)
            .count();
        assert!(shed >= 1, "a 90-deep backlog over watermark 1 must shed");
        // Blocker + 92 footprint-free tasks ran before the probe; each was
        // uniquely held when it retired, so each is in the stash — and blank.
        // The three writers are not: the tracker still points at them.
        assert_eq!(husks.len(), 93);
        assert!(husks.iter().all(|&(_, blank)| blank), "{husks:?}");
        assert_eq!(keys.map(|key| rt.is_poisoned(key)), [true; 3]);

        // Each key's next writer retires the failed writer's epoch and gets
        // its record back, here on the registering thread: the second spawn
        // refills the first's record, the third the second's, and the last
        // one is left in the stash. Blank every time; the poison, which
        // lives with the key, is still there after the reuse.
        for key in keys {
            rt.task(|| {}).writes([key]).spawn();
        }
        let husks = drain_stash(&rt.inner);
        assert_eq!(husks.len(), 1, "{husks:?}");
        assert!(husks[0].1, "a failed writer's record comes back blank");
        rt.wait_all();
        assert_eq!(keys.map(|key| rt.is_poisoned(key)), [true; 3]);
        let outcomes = rt.outcomes();
        assert_eq!(outcomes.panicked, 2);
        assert_eq!(outcomes.cancelled, 2);
        assert_eq!(outcomes.shed, shed + 1);
    }

    /// The key's live epoch, as the tracker holds it.
    fn live_epoch(rt: &Runtime, key: DepKey) -> crate::deps::LiveEpoch {
        rt.inner.tracker.live_epoch(key).expect("key is registered")
    }

    /// One worker, a finished writer of `key`, and the worker done with it:
    /// the probe queued behind the writer has run, so `execute` returned.
    fn runtime_with_finished_writer(key: DepKey) -> (Runtime, TaskId, Vec<(usize, bool)>) {
        let rt = Runtime::builder()
            .workers(1)
            .policy(Policy::SignificanceAgnostic)
            .build();
        let release = block_single_worker(&rt);
        let writer = rt.task(|| {}).writes([key]).spawn();
        let probe = queue_probe(&rt, drain_stash);
        release.send(()).unwrap();
        assert!(probe.wait().is_success());
        let husks = probe.take_value().expect("probe ran");
        (rt, writer, husks)
    }

    #[test]
    fn last_writer_of_a_live_epoch_is_not_a_husk() {
        let key = DepKey::named("recycle/live");
        let (rt, writer, husks) = runtime_with_finished_writer(key);
        let (held, readers) = live_epoch(&rt, key);
        let held = held.expect("the epoch names its writer");
        assert_eq!(held.id, writer);
        assert!(held.is_completed(), "record left as it retired");
        assert!(readers.is_empty());
        // Blocker and writer ran before the probe: only the blocker's record
        // was uniquely held, and no husk is the writer's allocation.
        assert_eq!(husks.len(), 1, "{husks:?}");
        assert_ne!(husks[0].0, Arc::as_ptr(&held) as usize);
        rt.wait_all();
    }

    #[test]
    fn retired_writer_is_a_husk_once_its_epoch_is_reclaimed() {
        let key = DepKey::named("recycle/retired");
        let (rt, _, _) = runtime_with_finished_writer(key);
        let writer_address = {
            let (held, _) = live_epoch(&rt, key);
            Arc::as_ptr(&held.expect("the epoch names its writer")) as usize
        };
        // The key's next writer retires that epoch; nobody is pinned, so
        // `reclaim` frees it within the same registration and the tracker's
        // reference — the last one — comes back to this thread's stash.
        let next = rt.task(|| {}).writes([key]).spawn();
        let mut husk = rt.inner.husk_in(&rt.inner.global_group);
        assert_eq!(Arc::as_ptr(&husk) as usize, writer_address);
        assert!(Arc::get_mut(&mut husk).expect("uniquely held").is_blank());
        let (held, _) = live_epoch(&rt, key);
        assert_eq!(held.expect("the epoch names its writer").id, next);
        rt.wait_all();
    }

    #[test]
    fn finished_predecessor_is_neither_cloned_nor_wired() {
        let key = DepKey::named("recycle/finished");
        let (rt, _, _) = runtime_with_finished_writer(key);
        let (writer, _) = live_epoch(&rt, key);
        let writer = writer.expect("the epoch names its writer");
        let holders = Arc::strong_count(&writer);

        // Held in the queue, so the reader can be looked at before it runs.
        let release = block_single_worker(&rt);
        rt.task(|| {}).reads([key]).spawn();
        assert_eq!(rt.tracker_fast_path_reads(), 1);
        assert_eq!(
            Arc::strong_count(&writer),
            holders,
            "registration left the finished writer's reference count alone"
        );
        let (_, readers) = live_epoch(&rt, key);
        let [reader] = readers.as_slice() else {
            panic!("one reader registered: {readers:?}");
        };
        assert!(reader.is_ready(), "no dependence was counted");
        // The epoch's reader list, the queue and `readers`: no successor
        // list holds the reader.
        assert_eq!(Arc::strong_count(reader), 3);
        release.send(()).unwrap();
        rt.wait_all();
    }

    #[test]
    fn builder_dropped_unspawned_returns_its_husk() {
        let rt = count_runtime(Policy::SignificanceAgnostic);
        let key = DepKey::named("recycle/unspawned");
        drop(rt.task(|| {}).reads([key]).writes([key]));
        assert_eq!(rt.outstanding_tasks(), 0);
        assert_eq!(rt.outcomes().spawned, 0);
        let husks = drain_stash(&rt.inner);
        assert_eq!(husks.len(), 1, "{husks:?}");
        assert!(husks[0].1, "the keys it was given are gone");
        // A builder that never named a key never took a record.
        drop(rt.task(|| {}).significance(0.5));
        assert!(drain_stash(&rt.inner).is_empty());
    }

    #[test]
    fn key_read_for_ever_retains_a_bounded_number_of_readers() {
        // Windows shorter than the rotation period, so what a rotation has
        // to carry over stays below it too.
        const WINDOW: usize = 50;
        const READERS: usize = 100_000;
        let rt = count_runtime(Policy::SignificanceAgnostic);
        let group = rt.create_group("config-readers", 1.0);
        let state = group.state.clone();
        // Registry, handle and `state`; every live record of the group adds one.
        let idle_count = Arc::strong_count(&state);
        let key = DepKey::named("config");
        for _ in 0..READERS / WINDOW {
            for _ in 0..WINDOW {
                rt.task(|| {}).reads([key]).group(&group).spawn();
            }
            rt.wait_group(&group);
        }
        // What the tracker still lists: the readers since the last rotation
        // plus the few that rotation found unfinished — not all of them.
        let (_, readers) = live_epoch(&rt, key);
        assert!(
            readers.len() < WINDOW + READER_ROTATION,
            "{} reader records outlive {READERS} finished readers",
            readers.len()
        );
        // And nothing else holds a record: workers give up their stashes as
        // they run out of work, the last barrier freed this thread's.
        let deadline = Instant::now() + Duration::from_secs(30);
        while Arc::strong_count(&state) - idle_count != readers.len() {
            assert!(Instant::now() < deadline, "husks survived an idle runtime");
            std::thread::sleep(Duration::from_millis(1));
        }
        // One registration per rotation took the gate; the rest stayed on
        // the lock-free path (the first creates the key, locked as well).
        let fast = rt.tracker_fast_path_reads();
        assert!((READERS - READERS / 32..READERS).contains(&fast), "{fast}");
    }

    /// A group barrier that drains the whole runtime frees its caller's
    /// stash before it returns. The worker is held, deterministically,
    /// right after the group's decrement: a second waiter sits inside the
    /// group barrier's locked predicate check, so the worker's notify blocks
    /// on that lock. The barrier returns on its first, lock-free look — and
    /// the runtime-wide count must already be zero by then.
    #[test]
    fn group_barrier_frees_the_callers_stash() {
        let rt = Runtime::builder()
            .workers(1)
            .policy(Policy::SignificanceAgnostic)
            .build();
        let group = rt.create_group("stash-probe", 1.0);
        let state = group.state.clone();
        let (holding_tx, holding_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let waiter = {
            let state = state.clone();
            std::thread::spawn(move || {
                let looks = std::cell::Cell::new(0);
                state.barrier.wait(|| {
                    looks.set(looks.get() + 1);
                    if looks.get() == 2 {
                        // Registered and under the barrier's lock.
                        holding_tx.send(()).unwrap();
                        release_rx.recv().unwrap();
                    }
                    looks.get() > 1
                });
            })
        };
        holding_rx.recv().unwrap();
        rt.task(|| {}).group(&group).spawn();
        // A record this thread let go of, the way registration hands back
        // what the dependence tracker released.
        rt.inner
            .recycle(Arc::new(Task::blank(rt.inner.global_group.clone())));
        while state.outstanding.load(Ordering::SeqCst) != 0 {
            std::hint::spin_loop();
        }
        rt.wait_group(&group);
        let stashed = rt.inner.with_stash(|stash| stash.len());
        release_tx.send(()).unwrap();
        waiter.join().unwrap();
        assert_eq!(stashed, Some(0), "a husk survived the barrier");
        rt.wait_all();
    }

    #[test]
    fn recycle_leaves_a_record_someone_else_holds_alone() {
        let rt = count_runtime(Policy::SignificanceAgnostic);
        let inner = &rt.inner;
        let mut task = Task::blank(inner.global_group.clone());
        task.fill(TaskId(77), Significance::new(0.3), Box::new(|| {}), None);
        task.deadline_nanos = 5;
        task.mark_completed();
        let task = Arc::new(task);
        // Stands for any other holder: a predecessor's successor list, the
        // vector of a GTB flush still in progress, a tracker epoch.
        let holder = task.clone();
        inner.recycle(task);
        assert_eq!(inner.with_stash(|stash| stash.len()), Some(0));
        assert_eq!(holder.id, TaskId(77));
        assert_eq!(holder.deadline_nanos, 5);
        assert!(holder.is_completed(), "not blanked under the holder");

        // The last holder recycles it.
        inner.recycle(holder);
        let husks = drain_stash(inner);
        assert_eq!(husks.len(), 1);
        assert!(husks[0].1, "blank once uniquely held");
    }

    #[test]
    fn stale_handle_and_token_never_observe_the_task_reusing_their_record() {
        let rt = Arc::new(
            Runtime::builder()
                .workers(1)
                .policy(Policy::SignificanceAgnostic)
                .build(),
        );
        let release = block_single_worker(&rt);
        let token = CancelToken::new();
        let first = rt.submit(|| 7u32).cancel_token(&token).spawn();
        // Runs on the worker right after `first` retired: the top husk of
        // its stash is `first`'s record, and the nested spawn pops it.
        let driver = {
            let rt2 = rt.clone();
            let token = token.clone();
            rt.submit(move || {
                let stashed = |rt: &Runtime| rt.inner.with_stash(|stash| stash.len()).unwrap();
                let before = stashed(&rt2);
                let reuser = rt2.submit(|| 9u32).spawn();
                let after = stashed(&rt2);
                // Cancelling the old task's token must not reach the reuser.
                token.cancel();
                (before, after, reuser)
            })
            .spawn()
        };
        release.send(()).unwrap();
        assert!(driver.wait().is_success());
        let (before, after, reuser) = driver.take_value().expect("driver ran");
        assert_eq!(before, 2, "blocker's and first's records");
        assert_eq!(after, 1, "the nested spawn reused first's record");
        assert_eq!(
            reuser.wait(),
            TaskOutcome::Completed(ExecutionMode::Accurate)
        );
        assert_eq!(reuser.take_value(), Some(9));
        assert_ne!(reuser.id(), first.id());
        assert_eq!(
            first.wait(),
            TaskOutcome::Completed(ExecutionMode::Accurate)
        );
        assert_eq!(first.take_value(), Some(7));
        let summary = rt.wait_all();
        assert_eq!(summary.cancelled, 0);
    }

    #[test]
    fn nothing_pooled_outlives_the_burst() {
        let rt = count_runtime(Policy::Lqh);
        let group = rt.create_group("burst", 0.5);
        let state = group.state.clone();
        // Registry, handle and `state`; every live record of the group adds one.
        let idle_count = Arc::strong_count(&state);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    for _ in 0..5_000 {
                        rt.task(|| {}).approx(|| {}).group(&group).spawn();
                    }
                });
            }
        });
        rt.wait_all();
        // The barrier freed the pool and this thread's stash, and a worker
        // retiring a task after it finds the runtime idle and frees too.
        assert!(rt.inner.husks.lock().is_empty());
        assert_eq!(rt.inner.husks.available.load(Ordering::Relaxed), 0);
        // Workers give up their own stashes as they run out of work.
        let deadline = Instant::now() + Duration::from_secs(30);
        while Arc::strong_count(&state) != idle_count {
            assert!(Instant::now() < deadline, "husks survived an idle runtime");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(rt.inner.husks.lock().is_empty());
    }

    fn one_worker() -> Runtime {
        Runtime::builder()
            .workers(1)
            .policy(Policy::SignificanceAgnostic)
            .build()
    }

    /// A worker publishes its batch of one group's completions before it
    /// runs a task of another group, so a barrier on the first group does
    /// not wait for the second group's running task.
    #[test]
    fn a_group_barrier_does_not_wait_for_another_groups_running_task() {
        let rt = Arc::new(one_worker());
        let group = rt.create_group("retire/group", 1.0);
        for _ in 0..20 {
            rt.task(|| {}).group(&group).spawn();
        }
        // A global-group task, run after the 20 (one worker runs external
        // spawns in order), blocks the worker.
        let release = block_single_worker(&rt);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let waiter = {
            let rt = rt.clone();
            std::thread::spawn(move || {
                rt.wait_group(&group);
                done_tx.send(()).unwrap();
            })
        };
        let returned = done_rx.recv_timeout(Duration::from_secs(30)).is_ok();
        release.send(()).unwrap();
        // On failure the waiter is left blocked (it holds the runtime), so
        // the test fails instead of hanging in a join or the runtime's drop.
        assert!(returned, "the group barrier waited for a global task");
        waiter.join().unwrap();
        rt.wait_all();
    }

    /// A worker that runs dry publishes what it retired: the count reaches
    /// zero without anyone calling a barrier.
    #[test]
    fn outstanding_tasks_drains_to_zero_without_a_barrier() {
        let rt = one_worker();
        // Not a multiple of the batch, so a full batch alone cannot do it.
        for _ in 0..100 {
            rt.task(|| {}).spawn();
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        while rt.outstanding_tasks() != 0 {
            if Instant::now() >= deadline {
                let left = rt.outstanding_tasks();
                // Its drop would wait for the same count for ever.
                std::mem::forget(rt);
                panic!("{left} completions never published by an idle worker");
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A batch goes out once it holds `RETIRE_BATCH` completions, so a long
    /// run of one group overstates the count by less than one batch.
    #[test]
    fn a_long_run_of_one_group_overstates_the_count_by_less_than_a_batch() {
        let rt = one_worker();
        for _ in 0..199 {
            rt.task(|| {}).spawn();
        }
        // The 200th task of the global group, blocking once the rest ran.
        let release = block_single_worker(&rt);
        let seen = rt.outstanding_tasks();
        release.send(()).unwrap();
        rt.wait_all();
        // The blocked task plus 199 mod 64 unpublished completions.
        assert!(
            (1..=RETIRE_BATCH + 1).contains(&seen),
            "{seen} outstanding behind one running task"
        );
    }

    /// The one-writer-per-line rule for the runtime's shared state: the two
    /// counters every spawn bumps share no line with the configuration and
    /// the structures a worker reads per task. (The queue set's own cursor
    /// and each worker's mailbox are checked in `deque.rs`, a group's
    /// fields in `group.rs`.)
    #[test]
    fn spawn_counters_share_no_line_with_what_workers_read() {
        use crate::sync::{assert_apart, field_span};
        assert_apart::<RuntimeInner>(
            &[
                field_span!(RuntimeInner, next_task_id),
                field_span!(RuntimeInner, outstanding),
            ],
            &[
                field_span!(RuntimeInner, id),
                field_span!(RuntimeInner, policy),
                field_span!(RuntimeInner, queues),
                field_span!(RuntimeInner, global_group),
                field_span!(RuntimeInner, tracker),
                field_span!(RuntimeInner, stats),
                field_span!(RuntimeInner, env),
                field_span!(RuntimeInner, started),
                field_span!(RuntimeInner, overload),
                field_span!(RuntimeInner, budget),
                field_span!(RuntimeInner, faults),
                field_span!(RuntimeInner, cancel_active),
                field_span!(RuntimeInner, parkers),
            ],
        );
    }

    /// A spawn by group handle, per task, batched or handled, binds its
    /// records from the handle: with both registry locks held elsewhere it
    /// still completes. Each spawn here takes a fresh record (a new
    /// runtime, nothing pooled yet), the case that used to look the group up.
    #[test]
    fn a_spawn_by_handle_takes_no_registry_lock() {
        let rt = Runtime::builder().workers(1).build();
        let group = rt.create_group("handle", 0.5);
        let (done, spawned) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let registry = rt.inner.groups.lock_for_test();
            scope.spawn(|| {
                for _ in 0..100 {
                    rt.task(|| {}).group(&group).spawn();
                }
                rt.batch().group(&group).spawn_all((0..100).map(|_| || {}));
                let handle = rt.submit(|| 7).group(&group).spawn();
                done.send(handle).unwrap();
            });
            let handle = spawned.recv_timeout(Duration::from_secs(30));
            drop(registry);
            let handle = handle.expect("a spawn by handle waited for the group registry");
            assert_eq!(
                handle.wait(),
                TaskOutcome::Completed(ExecutionMode::Accurate)
            );
        });
        assert_eq!(rt.wait_group(&group).completed, 201);
    }

    /// Two runtimes whose groups share an index: `a` belongs to the first,
    /// `b` to the second, and both are `GroupId(1)`.
    fn groups_with_one_index() -> (Runtime, Runtime, TaskGroup, TaskGroup) {
        let first = one_worker();
        let second = one_worker();
        let a = first.create_group("a", 0.5);
        let b = second.create_group("b", 1.0);
        assert_eq!(a.id(), b.id());
        (first, second, a, b)
    }

    #[test]
    #[should_panic(expected = "task group `a` belongs to another runtime")]
    fn task_builder_rejects_another_runtimes_group() {
        let (_first, second, a, _b) = groups_with_one_index();
        let _ = second.task(|| {}).group(&a);
    }

    #[test]
    #[should_panic(expected = "task group `a` belongs to another runtime")]
    fn handled_builder_rejects_another_runtimes_group() {
        let (_first, second, a, _b) = groups_with_one_index();
        let _ = second.submit(|| 1).group(&a);
    }

    #[test]
    #[should_panic(expected = "task group `a` belongs to another runtime")]
    fn batch_builder_rejects_another_runtimes_group() {
        let (_first, second, a, _b) = groups_with_one_index();
        let _ = second.batch().group(&a);
    }

    #[test]
    #[should_panic(expected = "task group `a` belongs to another runtime")]
    fn cancel_group_rejects_another_runtimes_group() {
        let (_first, second, a, _b) = groups_with_one_index();
        second.cancel_group(&a);
    }

    #[test]
    #[should_panic(expected = "task group `a` belongs to another runtime")]
    fn wait_group_rejects_another_runtimes_group() {
        let (_first, second, a, _b) = groups_with_one_index();
        second.wait_group(&a);
    }

    #[test]
    #[should_panic(expected = "task group `a` belongs to another runtime")]
    fn wait_group_with_ratio_rejects_another_runtimes_group() {
        let (_first, second, a, _b) = groups_with_one_index();
        second.wait_group_with_ratio(&a, 0.5);
    }

    #[test]
    #[should_panic(expected = "task group `a` belongs to another runtime")]
    fn group_stats_rejects_another_runtimes_group() {
        let (_first, second, a, _b) = groups_with_one_index();
        let _ = second.group_stats(&a);
    }
}
