//! The builders: [`RuntimeBuilder`], and the spawn side of the programming
//! model — [`TaskBuilder`] (`#pragma omp task`), [`HandledTaskBuilder`] (a
//! task observed through a [`SpawnHandle`]) and [`BatchBuilder`] (many
//! footprint-free tasks at per-batch cost) — with the spawn paths behind
//! them: dependence wiring, GTB buffering and batched injection.
//!
//! # Checklist for the model checker
//!
//! Unsafe blocks: none. A record is filled and primed through
//! `Arc::get_mut` before it is shared, so those stores need no atomics.
//!
//! Orderings weaker than SeqCst:
//!
//! * `next_task_id`, `Relaxed` `fetch_add` and load: ids need only be
//!   unique, and increasing per spawning thread.
//! * `outstanding` and the group's `outstanding`, `Relaxed` increments in
//!   `TaskBuilder::spawn` and [`RuntimeInner::spawn_batch_into`]: the
//!   invariant note in `TaskBuilder::spawn` says why no cross-thread fence
//!   is load-bearing; the SeqCst decrements are `publish`'s.
//! * a footprint task's `pending_deps`: a `Release` store of the phantom
//!   dependence, an `AcqRel` add of the wired ones and an `AcqRel` removal
//!   of the phantom, against the SeqCst decrement a completing predecessor
//!   makes in `RuntimeInner::complete`. Whichever side brings it to zero
//!   enqueues, through `claim_enqueue`.

use std::cell::RefCell;
use std::ops::Range;
use std::time::Duration;

use sig_energy::{BudgetConfig, PowerModel, SleepState, TransitionCost};

use super::recycle::HUSK_BATCH;
use super::{Runtime, RuntimeInner};
use crate::deps::{DepKey, Registration};
use crate::faults::FaultPlan;
use crate::governor::Governor;
use crate::group::{GroupState, TaskGroup};
use crate::handle::{HandleCore, HandleNotify, SpawnHandle};
use crate::policy::Policy;
use crate::significance::Significance;
use crate::sync::atomic::Ordering;
use crate::sync::Arc;
use crate::task::{CancelToken, Task, TaskBody, TaskId};

thread_local! {
    /// The predecessor and hand-back lists of this thread's footprint spawns
    /// (see [`Registration`]): empty between spawns, kept for their capacity
    /// so that registering a footprint allocates neither.
    static REGISTRATION: RefCell<Registration> = const { RefCell::new(Registration::new()) };
}

/// Builder for [`Runtime`] instances.
#[derive(Clone, Default)]
pub struct RuntimeBuilder {
    pub(super) workers: Option<usize>,
    pub(super) policy: Policy,
    pub(super) energy_model: Option<PowerModel>,
    pub(super) governor: Option<Arc<dyn Governor>>,
    pub(super) sleep_state: Option<SleepState>,
    pub(super) transition_cost: Option<TransitionCost>,
    pub(super) queue_watermark: Option<usize>,
    pub(super) miss_watermark: Option<f64>,
    pub(super) fault_plan: Option<FaultPlan>,
    pub(super) energy_budget: Option<BudgetConfig>,
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
    /// to a DVFS step at dispatch time (default:
    /// [`NominalGovernor`](crate::governor::NominalGovernor), i.e.
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
    /// [`ExecutionEnv::set_dispatch_cap`](crate::env::ExecutionEnv::set_dispatch_cap).
    /// With no budget configured the
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

impl RuntimeInner {
    /// A relative deadline as the absolute one a record stores: nanoseconds
    /// since runtime start, saturating at `u64::MAX`, and never `0`, which
    /// means "no deadline".
    fn absolute_deadline(&self, deadline: Duration) -> u64 {
        let absolute = self.started.elapsed().saturating_add(deadline);
        (absolute.as_nanos().min(u64::MAX as u128) as u64).max(1)
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
            return TaskIdRange::new(id..id);
        }
        let first = self.next_task_id.fetch_add(n as u64, Ordering::Relaxed);
        // Relaxed: see the invariant note in `TaskBuilder::spawn`.
        self.outstanding.fetch_add(n, Ordering::Relaxed);
        group_state.outstanding.fetch_add(n, Ordering::Relaxed);
        self.stats.record_spawns(n);

        let capacity = self.policy.buffer_capacity();
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
            if capacity.is_none() {
                t.prime_spawn_enqueued(accurate);
            }
            t.deadline_nanos = deadline_nanos;
            t.cancel = cancel.clone();
            tasks.push(task);
        }

        match capacity {
            Some(capacity) => match group_state.append_buffered(tasks, capacity) {
                Some(window) => self.flush_tasks(window),
                None => self.notify_buffered(group_state),
            },
            None => {
                let push = self.queues.push_batch(tasks, self.local_worker());
                self.wake_for_batch(&push);
            }
        }
        TaskIdRange::new(first..first + n as u64)
    }

    /// Buffer a record under GTB, flushing the window if this fills it. The
    /// buffer gets a clone, since `group` is borrowed from the record, and
    /// `task` is dropped before the flush. A footprint-free spawn passes its
    /// only reference: the record waits on nothing, so it takes no phantom
    /// dependence and no `try_enqueue`, and the flush finds the window its
    /// only holder. A footprint spawn passes a clone and keeps its own.
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
}

impl Runtime {
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
    /// resolves exactly once to the task's terminal [`TaskOutcome`](crate::handle::TaskOutcome)
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
        let core = Arc::new(HandleCore::new());
        let accurate_core = core.clone();
        let mut task = TaskBuilder::new(self, Box::new(move || accurate_core.put_value(body())));
        task.handle = Some(core.clone() as Arc<dyn HandleNotify>);
        HandledTaskBuilder { task, core }
    }

    /// Start describing a **batch** of tasks submitted through the amortised
    /// injection pipeline: per-batch (not per-task) counter updates,
    /// statistics, sticky round-robin chunked distribution and one coalesced
    /// wake. See [`BatchBuilder`].
    pub fn batch(&self) -> BatchBuilder<'_> {
        BatchBuilder {
            runtime: self,
            group: None,
            deadline_nanos: 0,
            cancel: None,
        }
    }

    /// Submit a pre-built collection of [`BatchTask`]s to the implicit
    /// global group in one batched injection — shorthand for
    /// `self.batch().spawn_tasks(items)`.
    pub fn spawn_batch(&self, items: impl IntoIterator<Item = BatchTask>) -> TaskIdRange {
        self.batch().spawn_tasks(items)
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
    /// takes no registry lock.
    group: Option<&'rt Arc<GroupState>>,
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
        self.group = Some(group.state_in(self.husk.runtime.inner.id));
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
        self.deadline_nanos = self.husk.runtime.inner.absolute_deadline(deadline);
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
        let group = self.group.unwrap_or(&inner.global_group);
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
        // Hold one phantom dependence while wiring real ones, so the task
        // cannot be enqueued halfway through registration.
        task.pending_deps.store(1, Ordering::Release);
        let wired = inner.wire_dependences(&task);
        if wired > 0 {
            task.pending_deps.fetch_add(wired, Ordering::AcqRel);
        }

        match inner.policy.buffer_capacity() {
            // This spawner still holds the record, so whichever flush takes
            // it — this one or a barrier's — goes the atomic way.
            Some(capacity) => inner.buffer_task(task.clone(), capacity),
            None if inner.policy == Policy::Lqh => {
                task.release();
            }
            None => {
                task.release_accurate();
            }
        }

        // Drop the phantom dependence; enqueue if everything is already in
        // place (released + no outstanding predecessors).
        task.pending_deps.fetch_sub(1, Ordering::AcqRel);
        inner.try_enqueue(&task);
        id
    }
}

/// Fluent description of a *handled* task: a [`TaskBuilder`] whose bodies
/// return a value, and whose [`HandledTaskBuilder::spawn`] yields a
/// [`SpawnHandle`] resolving to the task's terminal [`TaskOutcome`](crate::handle::TaskOutcome). Created
/// with [`Runtime::submit`].
///
/// Handled tasks are footprint-free by design: they exist for serving-style
/// workloads where completion is observed per request through the handle,
/// not through dependence chains.
#[must_use = "a handled task builder does nothing until .spawn() is called"]
pub struct HandledTaskBuilder<'rt, T> {
    /// The task, its bodies already wrapped to store their value in `core`.
    task: TaskBuilder<'rt>,
    core: Arc<HandleCore<T>>,
}

impl<'rt, T: Send + 'static> HandledTaskBuilder<'rt, T> {
    /// `significant(expr)` — the task's significance in `[0.0, 1.0]`.
    pub fn significance(mut self, significance: impl Into<Significance>) -> Self {
        self.task = self.task.significance(significance);
        self
    }

    /// `approxfun(function)` — the approximate body. Its return value lands
    /// in the handle exactly like the accurate one's.
    pub fn approx<F>(mut self, body: F) -> Self
    where
        F: FnOnce() -> T + Send + 'static,
    {
        let core = self.core.clone();
        self.task = self.task.approx(move || core.put_value(body()));
        self
    }

    /// `label(...)` by group handle. See [`TaskBuilder::group`].
    ///
    /// # Panics
    ///
    /// Panics if another runtime created `group`.
    pub fn group(mut self, group: &'rt TaskGroup) -> Self {
        self.task = self.task.group(group);
        self
    }

    /// `deadline(...)` — relative deadline from now. See
    /// [`TaskBuilder::deadline`].
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.task = self.task.deadline(deadline);
        self
    }

    /// Attach a cooperative [`CancelToken`]. See
    /// [`TaskBuilder::cancel_token`].
    pub fn cancel_token(mut self, token: &CancelToken) -> Self {
        self.task = self.task.cancel_token(token);
        self
    }

    /// Submit the task and return its [`SpawnHandle`].
    pub fn spawn(self) -> SpawnHandle<T> {
        SpawnHandle::new(self.core, self.task.spawn())
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
    fn new(ids: Range<u64>) -> Self {
        TaskIdRange {
            next: ids.start,
            end: ids.end,
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
/// [`TaskBuilder`]. All tasks of a batch share a group, a deadline and a
/// cancellation token; each [`BatchTask`] carries its own bodies and
/// significance.
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
#[must_use = "a batch builder does nothing until spawn_tasks is called"]
pub struct BatchBuilder<'rt> {
    runtime: &'rt Runtime,
    group: Option<&'rt Arc<GroupState>>,
    deadline_nanos: u64,
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
        self.group = Some(group.state_in(self.runtime.inner.id));
        self
    }

    /// `deadline(...)` — relative deadline from now, applied to every task
    /// of the batch. See [`TaskBuilder::deadline`].
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline_nanos = self.runtime.inner.absolute_deadline(deadline);
        self
    }

    /// Attach a cooperative [`CancelToken`] to every task of the batch. See
    /// [`TaskBuilder::cancel_token`].
    pub fn cancel_token(mut self, token: &CancelToken) -> Self {
        self.cancel = Some(token.clone());
        self
    }

    /// Submit `items` as one batch. Returns the contiguous range of issued
    /// task ids.
    pub fn spawn_tasks(self, items: impl IntoIterator<Item = BatchTask>) -> TaskIdRange {
        let inner = &self.runtime.inner;
        let group = self.group.unwrap_or(&inner.global_group);
        inner.spawn_batch_into(
            group,
            items.into_iter().collect(),
            self.deadline_nanos,
            self.cancel,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::TaskOutcome;
    use crate::runtime::tests::{count_runtime, groups_with_one_index};
    use crate::sync::atomic::AtomicUsize;
    use crate::task::ExecutionMode;

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
            assert_eq!(rt.outcomes().spawned, 500);
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
    fn empty_batch_is_a_noop() {
        let rt = count_runtime(Policy::SignificanceAgnostic);
        let ids = rt.spawn_batch(std::iter::empty());
        assert!(ids.is_empty());
        assert_eq!(ids.len(), 0);
        rt.wait_all();
        assert_eq!(rt.outcomes().spawned, 0);
    }

    /// No spawn, per task, batched or handled, by group handle or into the
    /// global group, takes the registry's lock: with it held elsewhere, every
    /// one completes. Each spawn here takes a fresh record (a new runtime,
    /// nothing pooled yet), so each binds its group afresh.
    #[test]
    fn no_spawn_takes_the_registry_lock() {
        let rt = Runtime::builder().workers(1).build();
        let group = rt.create_group("handle", 0.5);
        let (done, spawned) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let registry = rt.inner.groups.lock_for_test();
            scope.spawn(|| {
                for _ in 0..100 {
                    rt.task(|| {}).group(&group).spawn();
                    rt.task(|| {}).spawn();
                }
                rt.batch()
                    .group(&group)
                    .spawn_tasks((0..100).map(|_| BatchTask::new(|| {})));
                rt.batch()
                    .spawn_tasks((0..100).map(|_| BatchTask::new(|| {})));
                let handles = [
                    rt.submit(|| 7).group(&group).spawn(),
                    rt.submit(|| 7).spawn(),
                ];
                done.send(handles).unwrap();
            });
            let handles = spawned.recv_timeout(Duration::from_secs(30));
            drop(registry);
            let handles = handles.expect("a spawn waited for the group registry");
            for handle in handles {
                assert_eq!(
                    handle.wait(),
                    TaskOutcome::Completed(ExecutionMode::Accurate)
                );
            }
        });
        assert_eq!(rt.wait_all().completed, 402);
        assert_eq!(rt.group_stats(&group).total(), 201);
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

    /// `Duration::MAX` saturates to "the end of time" on every builder: each
    /// task runs, and none misses its deadline.
    #[test]
    fn an_unbounded_deadline_saturates_on_every_builder() {
        let rt = count_runtime(Policy::SignificanceAgnostic);
        rt.task(|| {}).deadline(Duration::MAX).spawn();
        let handle = rt.submit(|| 1).deadline(Duration::MAX).spawn();
        rt.batch()
            .deadline(Duration::MAX)
            .spawn_tasks((0..3).map(|_| BatchTask::new(|| {})));
        let summary = rt.wait_all();
        assert_eq!(
            handle.wait(),
            TaskOutcome::Completed(ExecutionMode::Accurate)
        );
        assert_eq!((summary.completed, summary.spawned), (5, 5));
        assert_eq!(summary.deadline_misses, 0);
    }
}
