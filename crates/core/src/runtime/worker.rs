//! The worker side of the scheduler: each worker's run loop (pop, steal,
//! spin, yield, park), the execute path that applies the policy decision,
//! brownout, fault injection and the governor to one task, completion, and
//! [`Retired`], the batch in which a worker takes its completions off the
//! outstanding counts. Also the producer side of the sleep protocol:
//! [`RuntimeInner::try_enqueue`] and the targeted wakes.
//!
//! # Checklist for the model checker
//!
//! Unsafe blocks: four, all in [`RuntimeInner::run_task`], each a
//! `take_accurate` / `take_approximate` on the task's body cells — the
//! system task's body, the accurate body, the approximate body, and the
//! drop of whichever body did not run. Each relies on the calling worker
//! being the task's unique executor, which it became by dequeuing a record
//! whose `claim_enqueue` was won once.
//!
//! Orderings weaker than SeqCst: none. Every atomic this file touches
//! directly is one side of a Dekker-style pair and stays SeqCst:
//!
//! * `sleepers` and `shutdown` in the run loop, against the producers'
//!   [`RuntimeInner::wake_one_sleeper`] and the runtime's drop (the sleep
//!   flag itself is [`Parker`](crate::sync::Parker)'s);
//! * the two `outstanding` decrements in [`RuntimeInner::publish`], against
//!   the barriers' `EventCount` register / re-check, the runtime-wide count
//!   first (see `publish`);
//! * a successor's `pending_deps` decrement in [`RuntimeInner::complete`],
//!   against `Task::release` on the GTB-flush side.
//!
//! The three points at which a worker publishes a [`Retired`] batch (a
//! task of another group, a full batch, running out of work) are what keep
//! a barrier from returning early or waiting on another group's task.

use std::time::Instant;

use super::{RuntimeInner, CURRENT_WORKER};
use crate::faults::FaultAction;
use crate::governor::DispatchContext;
use crate::group::GroupState;
use crate::handle::TaskOutcome;
use crate::policy::{LqhState, Policy};
use crate::sync::atomic::Ordering;
use crate::sync::{spin_loop, thread, Arc};
use crate::task::{ExecutionMode, Task, TaskBody};

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
pub(super) struct Retired {
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

impl RuntimeInner {
    /// Try to move a task into a worker queue. A task is enqueued exactly
    /// once, as soon as it is both *released* (by the master / a GTB flush)
    /// and *ready* (all predecessors completed).
    pub(super) fn try_enqueue(&self, task: &Arc<Task>) {
        if task.is_released() && task.is_ready() && task.claim_enqueue() {
            let target = self.queues.push(task.clone(), self.local_worker());
            self.wake_for_push(target);
        }
    }

    /// Wake the worker whose queue just received work; if it is already
    /// running, wake one sleeper instead so the task is stealable without
    /// delay. Both checks are single atomic loads when everyone is busy —
    /// no broadcast, no mutex. Inlined into `TaskBuilder::spawn`, which
    /// lives in another module: out of line it cost `sched_fine` about 5 %
    /// more CPU per task.
    #[inline]
    pub(super) fn wake_for_push(&self, target: usize) {
        if self.parkers[target].unpark_if_sleeping() {
            return;
        }
        self.wake_one_sleeper(usize::MAX);
    }

    /// Wake one sleeping worker other than `except` (pass `usize::MAX` for
    /// no exclusion). A single atomic load when nobody sleeps.
    pub(super) fn wake_one_sleeper(&self, except: usize) {
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
    pub(super) fn wake_for_batch(&self, push: &crate::deque::BatchPush) {
        let count = self.parkers.len();
        for offset in 0..push.touched.min(count) {
            if self.parkers[(push.first + offset) % count].unpark_if_sleeping() {
                return;
            }
        }
        self.wake_one_sleeper(usize::MAX);
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
        // Cooperative cancellation: a task whose token was cancelled before
        // it starts is skipped entirely.
        if task.cancel_requested() {
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
            thread::sleep(pause);
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
            thread::sleep(extra);
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
            // The body panicked: poison its written keys *before*
            // completion releases any dependent, and account it under
            // `panicked` (not `completed`).
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
    pub(super) fn complete(&self, task: &Arc<Task>, retired: &mut Retired) {
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

    pub(super) fn worker_loop(self: &Arc<Self>, index: usize) {
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
                    spin_loop();
                }
                continue;
            }
            if idle_rounds < SPIN_ROUNDS + YIELD_ROUNDS {
                idle_rounds += 1;
                thread::yield_now();
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
            parker.park();
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
            parker.cancel();
            idle_rounds = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deps::DepKey;
    use crate::runtime::tests::{block_single_worker, count_runtime, one_worker};
    use crate::runtime::Runtime;
    use crate::sync::atomic::{AtomicBool, AtomicUsize};
    use crate::sync::Mutex;
    use std::time::Duration;

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
    fn panicking_task_is_contained() {
        let rt = count_runtime(Policy::SignificanceAgnostic);
        rt.task(|| panic!("boom")).spawn();
        rt.task(|| {}).spawn();
        let summary = rt.wait_all();
        assert_eq!(rt.outcomes().panicked, 1);
        // A panicked task is a terminal outcome of its own, not `completed`.
        assert_eq!(rt.stats().completed(), 1);
        assert_eq!(summary.spawned, 2);
        assert_eq!(summary.panicked, 1);
        assert_eq!(summary.completed + summary.failed(), summary.spawned);
        assert_ne!(summary.failed(), 0);
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
}
