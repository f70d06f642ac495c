//! Task-record recycling: each thread's husk stash and the shared
//! [`HuskPool`] behind them, as the runtime's module docs describe them
//! ("Where a task record comes from and goes back to").
//!
//! # Checklist for the model checker
//!
//! Unsafe blocks: none. A record is refilled or blanked only through
//! `Arc::get_mut`, in [`RuntimeInner::bind_husk`] and
//! [`RuntimeInner::recycle`]: what a model has to explore is another
//! holder's clone or drop racing that uniqueness check.
//!
//! Orderings weaker than SeqCst:
//!
//! * `HuskPool::available`, `Relaxed` loads and stores: a hint that spares
//!   a spawner the pool lock while the pool is dry. Every store is made
//!   under the lock, and a stale read costs a lock or a fresh allocation,
//!   never a lost husk.
//!
//! The loads of `outstanding` in [`RuntimeInner::hand_back`] and
//! [`RuntimeInner::free_husks_if_idle`] are SeqCst, and the pool lock
//! orders the two: a retirement racing a barrier's return cannot strand
//! husks in the pool.

use std::cell::RefCell;

use super::RuntimeInner;
use crate::group::GroupState;
use crate::sync::atomic::{AtomicUsize, Ordering};
use crate::sync::{Arc, Mutex, MutexGuard, PoisonError};
use crate::task::Task;

thread_local! {
    /// `(runtime id, blank task records)` this thread holds for that runtime
    /// (see [`HuskPool`]). A worker fills it from the tasks it retires and
    /// spawns nested tasks out of it; a spawner thread refills it from the
    /// shared pool a batch at a time. Neither takes a lock to touch it.
    static HUSK_STASH: RefCell<(u64, Vec<Arc<Task>>)> = const { RefCell::new((0, Vec::new())) };
}

/// Records moved between a thread's stash and the shared pool at a time: one
/// pool lock per this many spawns or retirements.
pub(super) const HUSK_BATCH: usize = 64;

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
#[derive(Default)]
pub(super) struct HuskPool {
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

impl RuntimeInner {
    /// Run `f` on the calling thread's husk stash. Husks left there by
    /// another runtime are freed first, so everything `f` sees is this
    /// runtime's. `None` only while the thread's locals are being torn down.
    pub(super) fn with_stash<R>(&self, f: impl FnOnce(&mut Vec<Arc<Task>>) -> R) -> Option<R> {
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
    pub(super) fn pop_husk(&self) -> Option<Arc<Task>> {
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
    /// clone the caller's `Arc` (the spawn's [`TaskGroup`](crate::group::TaskGroup) handle, or the
    /// cached global group), so no spawn takes the group registry's lock.
    pub(super) fn bind_husk(&self, husk: Option<Arc<Task>>, group: &Arc<GroupState>) -> Arc<Task> {
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
    pub(super) fn husk_in(&self, group: &Arc<GroupState>) -> Arc<Task> {
        self.bind_husk(self.pop_husk(), group)
    }

    /// Where every record reference goes when its holder is done with it —
    /// a worker after [`RuntimeInner::complete`], a spawner after wiring
    /// (see [`RuntimeInner::wire_dependences`]), a builder dropped unspawned:
    /// if this was the only reference, blank the record and keep it for the
    /// calling thread's next spawn; otherwise whoever lets go last gets it.
    pub(super) fn recycle(&self, mut task: Arc<Task>) {
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
    pub(super) fn hand_back(&self, stash: &mut Vec<Arc<Task>>, keep: usize) {
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
    pub(super) fn free_husks_if_idle(&self) {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deps::{DepKey, READER_ROTATION};
    use crate::handle::{SpawnHandle, TaskOutcome};
    use crate::policy::Policy;
    use crate::runtime::tests::{block_single_worker, count_runtime};
    use crate::runtime::Runtime;
    use crate::significance::Significance;
    use crate::task::{CancelToken, ExecutionMode, TaskId};
    use std::time::{Duration, Instant};

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

        assert!(matches!(probe.wait(), TaskOutcome::Completed(_)));
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
        assert!(matches!(probe.wait(), TaskOutcome::Completed(_)));
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
        assert!(matches!(driver.wait(), TaskOutcome::Completed(_)));
        let (before, after, reuser) = driver.take_value().expect("driver ran");
        assert_eq!(before, 2, "blocker's and first's records");
        assert_eq!(after, 1, "the nested spawn reused first's record");
        assert_eq!(
            reuser.wait(),
            TaskOutcome::Completed(ExecutionMode::Accurate)
        );
        assert_eq!(reuser.take_value(), Some(9));
        assert_ne!(reuser.id, first.id);
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
}
