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
//! byte plus take-once cells ([`crate::task`](mod@crate::task)), a task is
//! counted once, by plain stores on its worker's own ledger, the env shard
//! that also prices it ([`crate::stats`]), and completion signalling is a
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
//! No spawn takes the group registry's lock: a [`TaskGroup`] handle carries
//! its group's state, and an unlabelled spawn binds the global group the
//! runtime keeps beside the registry. A spawn can still take four other
//! locks:
//!
//! * the husk pool's `Mutex`, once per 64 fresh records (`HuskPool`, in
//!   `runtime/recycle.rs`);
//! * a group's GTB buffer `Mutex`, on every spawn under GTB and GTB
//!   Max-Buffer (`GroupState::append_buffered`);
//! * the staging `Mutex`, on every plain spawn from a thread that is not a
//!   worker under the agnostic policy and LQH, and once per 1 024 entries
//!   of a GTB window, for a chunk (`Staging`, in `runtime/staging.rs`). A
//!   worker takes it once per share; every holder keeps it for a short
//!   copy, so a thread that finds it held spins before it sleeps;
//! * the dependence tracker's shard gates, for a writing or multi-key
//!   footprint and for a read the lock-free fast path hands back
//!   (`deps.rs`).
//!
//! **One writer per cache line.** No line the spawner writes once per spawn
//! holds a field a worker reads or writes once per task, and the reverse.
//! A line both sides write moves between their cores twice per task, and
//! so does a line one writes and the other only reads. Five lines on the
//! path are padded for it (`CachePadded`), each checked by a layout test
//! beside it:
//!
//! 1. the runtime's spawn counters (the task-id counter,
//!    `RuntimeStats::issue_ids`, which is also the spawn count, and the GTB
//!    flush count, which any thread may bump) and `outstanding` counter,
//!    off the configuration every worker reads per task (`id`, `policy`,
//!    `budget`, the queue array, the workers' ledgers);
//! 2. the queue set's round-robin cursor, which every external push bumps;
//! 3. a group's `outstanding` count and GTB buffer, off its ratio, budget
//!    scale and statistics shards, which also makes the
//!    group state line-aligned, so an `Arc<GroupState>`'s reference counts,
//!    which every fresh record bumps, sit on a line of their own;
//! 4. each worker's mailbox inbox, which a push CASes and counts, off the
//!    owner's deque and `ready` slot, which it writes on every pop;
//! 5. the runtime's staging lock and entry count, which every staged spawn
//!    writes and a worker reads only when it runs out of work (a worker
//!    looks up its own count of held share entries once, not per task).
//!
//! # Where a task record comes from and goes back to
//!
//! A spawn does not allocate in steady state. The worker that retires a task
//! and holds the only reference to its record blanks it in place and keeps
//! the `Arc<Task>` — a *husk* — in a thread-local stash; every 64 go to a
//! shared pool under one lock. A record is filled from a husk of the
//! calling thread's stash (a worker's never leaves it; another thread takes
//! 64 from the pool when it runs out) through `Arc::get_mut`; `Arc::new` is
//! the cold start of the same path, not a second one.
//!
//! A plain task — no keys, deadline, token or handle — that a thread other
//! than a worker spawns has no record at all, under any policy. It is a
//! 56-byte entry (id, significance, bodies; `group::PlainTask`) in a chunk
//! of up to 1 024: under GTB in its group's buffer, whose flush moves the
//! chunks to the runtime's ready list, each with the quota the chunks
//! before it leave; under the agnostic policy and LQH in the runtime's
//! staging chunk, one group per chunk. A worker that runs out of work takes
//! a *share* of the oldest chunk, decides it if it is a GTB window's, and
//! runs its entries itself, straight from the share: one execute path
//! (`RuntimeInner::run_task`) serves a record and an entry alike, from what
//! both carry, and only a record adds its clauses and successors
//! (`runtime/staging.rs`). A cold pass of 10 000 such tasks makes about one
//! allocation per chunk of its backlog on all threads, under every policy.
//! Records are for the rest: a worker's own plain spawn fills a husk from
//! its stash at once, and a task with a clause takes its record at spawn;
//! under GTB such a record waits in the buffer in spawn order among the
//! entries, and goes onto the deque of the worker whose share holds it.

//! A record is reused only while *uniquely held* — `Arc::get_mut` fails as
//! long as a queue slot, a successor list, the dependence tracker or a GTB
//! buffer still points at it — so no stale `TaskId`,
//! [`SpawnHandle`](crate::handle::SpawnHandle) or deque slot can ever
//! observe the reuse, and there are no generation tags
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
//!   buffered record before the flush it triggers, and the worker whose
//!   share holds the record pushes it straight to its deque, primed
//!   through `&mut`, keeping no reference of its own (records something
//!   else still holds go the atomic way; see
//!   `RuntimeInner::queue_records`);
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
//! # Where the code lives
//!
//! This file keeps `RuntimeInner`, [`Runtime`] and the GTB flush; each
//! other mechanism is a child module, which sees `RuntimeInner`'s private
//! fields and whose public items are re-exported here:
//!
//! * `recycle` — the husk stashes and pool described above;
//! * `staging` — the chunks of plain entries on their way to workers, and
//!   the shares workers take of them;
//! * `builders` — [`RuntimeBuilder`], [`TaskBuilder`],
//!   [`HandledTaskBuilder`], [`BatchBuilder`] and the spawn paths behind
//!   them;
//! * `worker` — the run loop, execute, completion, `Retired` and the
//!   targeted wakes;
//! * `barrier` — `taskwait` in its three forms, over one skeleton;
//! * `overload` — the brownout controller, and the retirement of a task
//!   cancelled through its token or shed, without running it;
//! * `budget` — the online energy-budget loop.
//!
//! # Checklist for the model checker
//!
//! Each child module's docs end in the list of what it owns. This file's:
//!
//! * Unsafe blocks: none.
//! * Orderings weaker than SeqCst: the `Relaxed` read of
//!   [`Runtime::outstanding_tasks`], a statistic.
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

use std::cell::Cell;
use std::time::Instant;

use sig_energy::PowerModel;

use crate::deps::{DepKey, DependenceTracker};
use crate::deque::QueueSet;
use crate::env::{EnergyReport, ExecutionEnv};
use crate::faults::FaultPlan;
use crate::governor::NominalGovernor;
use crate::group::{GroupRegistry, GroupState, TaskGroup, Window};
use crate::policy::Policy;
use crate::stats::{GroupStatsSnapshot, OutcomeSummary, RuntimeStats};
use crate::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use crate::sync::thread::{self, JoinHandle};
use crate::sync::{Arc, CachePadded, EventCount, Mutex, Parker};

mod barrier;
mod budget;
mod builders;
mod overload;
mod recycle;
mod staging;
mod worker;

use budget::BudgetState;
pub use builders::{
    BatchBuilder, BatchTask, HandledTaskBuilder, RuntimeBuilder, TaskBuilder, TaskIdRange,
};
use overload::OverloadState;
use recycle::HuskPool;
use staging::{ReadyChunk, Staging};

/// Issues a unique id per runtime so the worker thread-local below can tell
/// which runtime (if any) the current thread belongs to.
static NEXT_RUNTIME_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// `(runtime id, worker index)` of the current thread, if it is a worker.
    /// Id `0` is never issued, so the default means "not a worker".
    static CURRENT_WORKER: Cell<(u64, usize)> = const { Cell::new((0, 0)) };
}

/// Shared state between the master, the workers and the public handle.
struct RuntimeInner {
    id: u64,
    policy: Policy,
    queues: QueueSet,
    groups: GroupRegistry,
    /// The implicit global group, which unlabelled spawns bind without
    /// the registry.
    global_group: Arc<GroupState>,
    tracker: DependenceTracker,
    /// Counters over the workers' task ledgers, which are the env's
    /// per-worker DVFS frequency domains and energy accounting shards.
    stats: RuntimeStats,
    /// Runtime creation time, the start of the energy-accounting window.
    started: Instant,
    /// Blank task records awaiting reuse.
    husks: HuskPool,
    /// Plain tasks staged by threads that are not workers, and flushed GTB
    /// windows, on their way to idle workers. Written by every such spawn,
    /// so on a line of its own like `next_task_id`.
    staging: CachePadded<Staging>,
    /// Tasks spawned and not yet completed, across all groups. A single
    /// counter (not a sum over groups): `wait_all` must observe spawn and
    /// completion atomically even when a task body spawns children into
    /// other groups mid-barrier. Workers subtract in batches
    /// ([`Retired`](worker::Retired)), so it may read above the true count,
    /// never below. Bumped by every spawn, so on a line of its own like
    /// `next_task_id`.
    outstanding: CachePadded<AtomicUsize>,
    /// Brownout overload controller (watermarks + current shed threshold).
    overload: OverloadState,
    /// Online energy-budget loop, if `RuntimeBuilder::energy_budget` was set.
    budget: Option<Mutex<BudgetState>>,
    /// Deterministic fault-injection plan, if chaos testing is enabled.
    faults: Option<FaultPlan>,
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

    /// GTB flush of `group`'s `window` (its buffered tasks, in spawn order):
    /// queue its chunks on the ready list for idle workers to take in
    /// shares, deciding each as they take it ([`RuntimeInner::pull_share`]).
    /// The emptied window becomes
    /// the calling thread's spare ([`crate::group::return_window`]).
    ///
    /// The window's quota comes from the chunks' tallies, without reading an
    /// entry, and each chunk carries the quota that admitting every chunk
    /// before it leaves (`GtbQuota::pass`): the pulling
    /// workers make exactly the decisions of one pass over the window in
    /// spawn order, in whatever order they pull. The group barrier needs no
    /// more: every buffered task already counts in the group's
    /// `outstanding`, and can only complete after a worker pulls it.
    fn flush_tasks(&self, group: &Arc<GroupState>, mut window: Window) {
        if !window.is_empty() {
            self.stats.record_flush();
            let mut quota = window.tally().quota(group.effective_ratio());
            self.push_ready(window.drain_chunks().map(|chunk| {
                let start = quota.clone();
                quota.pass(&chunk.tally);
                ReadyChunk::window(group, chunk.entries, start)
            }));
        }
        crate::group::return_window(window);
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

    fn start(builder: RuntimeBuilder) -> Runtime {
        let workers = builder.workers.unwrap_or_else(|| {
            thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        let policy = builder.policy;
        let model = builder.energy_model.unwrap_or_else(PowerModel::for_host);
        let governor = builder
            .governor
            .unwrap_or_else(|| Arc::new(NominalGovernor));
        let id = NEXT_RUNTIME_ID.fetch_add(1, Ordering::Relaxed);
        let (groups, global_group) = GroupRegistry::new(id, workers);
        let inner = Arc::new(RuntimeInner {
            id,
            policy,
            queues: QueueSet::new(workers),
            groups,
            global_group,
            tracker: DependenceTracker::new(),
            stats: RuntimeStats::new(ExecutionEnv::new(
                model,
                governor,
                builder.sleep_state,
                builder.transition_cost.unwrap_or_default(),
                workers,
            )),
            started: Instant::now(),
            husks: HuskPool::default(),
            staging: CachePadded::new(Staging::new(policy, workers)),
            outstanding: CachePadded::new(AtomicUsize::new(0)),
            overload: OverloadState::new(builder.queue_watermark, builder.miss_watermark),
            budget: builder
                .energy_budget
                .map(|config| Mutex::new(BudgetState::new(config))),
            faults: builder.fault_plan,
            shutdown: AtomicBool::new(false),
            parkers: (0..workers).map(|_| Parker::default()).collect(),
            sleepers: AtomicUsize::new(0),
            idle_barrier: EventCount::default(),
            writes_barrier: EventCount::default(),
        });
        let handles = (0..workers)
            .map(|index| {
                let inner = inner.clone();
                thread::Builder::new()
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
        self.stats().env.report(wall.as_secs_f64(), self.workers())
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

    /// Observability counter: single-key read-only footprint registrations
    /// that the dependence tracker resolved on its lock-free fast path
    /// (multi-key and writing footprints always take the ordered locked
    /// path — see `deps.rs` module docs for the cycle hazard that forces
    /// this). Used by regression tests to pin the fast/slow-path split.
    pub fn tracker_fast_path_reads(&self) -> usize {
        self.inner.tracker.fast_path_reads()
    }

    /// Create a new task group with target accurate-task ratio `ratio` —
    /// the runtime-API equivalent of `tpc_init_group()`. The returned handle
    /// is the only way to name the group; `label` is for display only, and
    /// a second call with the same label creates a second group.
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is outside `[0, 1]`.
    pub fn create_group(&self, label: &str, ratio: f64) -> TaskGroup {
        TaskGroup {
            state: self.inner.groups.create(label, ratio),
        }
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

    /// Execution statistics of every group in creation order, the global
    /// group first, each labelled by its display name. Labels may repeat:
    /// [`Runtime::create_group`] never merges two groups by name.
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    pub(super) fn count_runtime(policy: Policy) -> Runtime {
        Runtime::builder().workers(4).policy(policy).build()
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
    fn a_large_flush_holds_about_one_chunk_on_a_worker_ring() {
        // A GTB-Max flush of 20 000 entries at one worker: the worker runs
        // them from its shares of the chunks, so the ring never holds the
        // flush.
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
            capacity <= 2 * crate::group::WINDOW_CHUNK as u64,
            "the ring grew to {capacity} slots"
        );
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
        // Ten chunks, each decided and built by whichever worker pulls it:
        // the decisions must be those of one pass over the window, and only
        // the group's own tasks count.
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
        assert_eq!(rt.stats().completed(), N);
        assert_eq!(rt.outcomes().spawned, N);
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
        // Scheduler stats and the energy report fold one ledger the same way.
        assert_eq!(
            report.busy_seconds().to_bits(),
            rt.stats().busy_core_seconds().to_bits()
        );
    }

    /// A label names nothing: a second group under the same label is a
    /// group of its own, with its own ratio, tasks and barrier.
    #[test]
    fn a_second_group_with_the_same_label_is_a_new_group() {
        let rt = count_runtime(Policy::GtbMaxBuffer);
        let first = rt.create_group("g", 0.0);
        let second = rt.create_group("g", 1.0);
        for _ in 0..20 {
            rt.task(|| {})
                .approx(|| {})
                .significance(0.5)
                .group(&first)
                .spawn();
        }
        for _ in 0..30 {
            rt.task(|| {})
                .approx(|| {})
                .significance(0.5)
                .group(&second)
                .spawn();
        }
        rt.wait_group(&first);
        rt.wait_group(&second);
        let (first, second) = (rt.group_stats(&first), rt.group_stats(&second));
        assert_eq!((first.total(), first.accurate), (20, 0));
        assert_eq!((second.total(), second.accurate), (30, 30));
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

    /// Occupy the single worker of `rt` until the returned sender fires.
    /// The task is guaranteed to be *running* (not just queued) on return,
    /// so everything spawned afterwards sits in the queue behind it.
    pub(super) fn block_single_worker(rt: &Runtime) -> std::sync::mpsc::Sender<()> {
        blocker(rt, None)
    }

    /// [`block_single_worker`] with a blocker that has a record: it carries
    /// a cancel token that is never cancelled, so it takes its record at
    /// spawn, and the worker keeps the record as a husk once it retires
    /// it. (A plain task from this thread has no record at all.)
    pub(super) fn block_single_worker_with_a_record(rt: &Runtime) -> std::sync::mpsc::Sender<()> {
        blocker(rt, Some(&crate::task::CancelToken::new()))
    }

    fn blocker(
        rt: &Runtime,
        token: Option<&crate::task::CancelToken>,
    ) -> std::sync::mpsc::Sender<()> {
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let mut task = rt.task(move || {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        });
        if let Some(token) = token {
            task = task.cancel_token(token);
        }
        task.spawn();
        started_rx.recv().unwrap();
        release_tx
    }

    #[test]
    #[should_panic(expected = "ratio must be in")]
    fn create_group_with_negative_ratio_panics() {
        let rt = count_runtime(Policy::SignificanceAgnostic);
        let _ = rt.create_group("negative", -0.1);
    }

    pub(super) fn one_worker() -> Runtime {
        Runtime::builder()
            .workers(1)
            .policy(Policy::SignificanceAgnostic)
            .build()
    }

    /// The one-writer-per-line rule for the runtime's shared state: the
    /// counters every spawn bumps share no line with the configuration and
    /// the structures a worker reads per task. (The queue set's own cursor
    /// and each worker's mailbox are checked in `deque.rs`, a group's
    /// fields in `group.rs`.)
    #[test]
    fn spawn_counters_share_no_line_with_what_workers_read() {
        use crate::sync::{assert_apart, field_span};
        assert_apart::<RuntimeInner>(
            &[
                field_span!(RuntimeInner, stats.spawns),
                field_span!(RuntimeInner, outstanding),
                field_span!(RuntimeInner, staging),
            ],
            &[
                field_span!(RuntimeInner, id),
                field_span!(RuntimeInner, policy),
                field_span!(RuntimeInner, queues),
                field_span!(RuntimeInner, global_group),
                field_span!(RuntimeInner, tracker),
                field_span!(RuntimeInner, stats.env),
                field_span!(RuntimeInner, started),
                field_span!(RuntimeInner, overload),
                field_span!(RuntimeInner, budget),
                field_span!(RuntimeInner, faults),
                field_span!(RuntimeInner, parkers),
            ],
        );
    }

    /// Two runtimes whose groups share an index: `a` belongs to the first,
    /// `b` to the second, and both are `GroupId(1)`.
    pub(super) fn groups_with_one_index() -> (Runtime, Runtime, TaskGroup, TaskGroup) {
        let first = one_worker();
        let second = one_worker();
        let a = first.create_group("a", 0.5);
        let b = second.create_group("b", 1.0);
        assert_eq!(a.state.id, b.state.id);
        (first, second, a, b)
    }

    #[test]
    #[should_panic(expected = "task group `a` belongs to another runtime")]
    fn group_stats_rejects_another_runtimes_group() {
        let (_first, second, a, _b) = groups_with_one_index();
        let _ = second.group_stats(&a);
    }
}
