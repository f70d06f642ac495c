//! Barriers: `taskwait`, `taskwait label(...)` and `taskwait on(...)`,
//! each with its optional `ratio(...)` clause, over one skeleton
//! ([`RuntimeInner::wait_until`]); the GTB buffer flushes a barrier
//! triggers; and the nudge a buffered spawn gives a waiting barrier
//! ([`RuntimeInner::notify_buffered`]).
//!
//! # Checklist for the model checker
//!
//! Unsafe blocks: none.
//!
//! Orderings weaker than SeqCst: none. Each barrier predicate loads its
//! count (`outstanding`, a group's `outstanding`) SeqCst, pairing with the
//! SeqCst decrements in `RuntimeInner::publish` through the
//! [`EventCount`] register / re-check protocol (`sync.rs`); `wait_on`'s
//! predicate reads the tracker, whose completions `publish` does not
//! count but `complete` signals on the writes barrier.

use super::{Runtime, RuntimeInner};
use crate::deps::DepKey;
use crate::group::{GroupState, TaskGroup};
use crate::stats::OutcomeSummary;
use crate::sync::atomic::Ordering;
use crate::sync::{Arc, EventCount};

impl RuntimeInner {
    /// The one barrier skeleton: `flush` the GTB buffers the barrier covers,
    /// hand the caller's "awakeness" to the pool, then block on `barrier`
    /// until `done`, re-flushing before every re-check under a buffering
    /// policy.
    ///
    /// The hand-off: if the calling thread is about to block while queued
    /// work exists, one sleeping worker is invited to keep draining.
    /// Without it, the batched injector's single coalesced wake could
    /// strand work: the one woken worker blocks in a *nested* barrier
    /// inside a task body, every other chunk recipient is still parked, and
    /// nobody is left awake to steal the tasks the barrier is waiting for.
    /// Each nested wait wakes one further sleeper, so at least one worker
    /// stays awake while any thread is blocked and work remains. One atomic
    /// load when nobody sleeps.
    ///
    /// The re-flush: tasks spawned into a buffering group *during* the
    /// barrier (e.g. from an executing task body) would otherwise sit in
    /// the GTB buffer with no master left to flush them, deadlocking the
    /// barrier. Non-buffering policies skip it: their buffers are always
    /// empty.
    fn wait_until(&self, barrier: &EventCount, flush: impl Fn(), done: impl Fn() -> bool) {
        flush();
        self.wake_one_sleeper(usize::MAX);
        let buffering = self.policy.is_buffering();
        barrier.wait(|| {
            if buffering {
                flush();
            }
            done()
        });
    }

    /// Flush the pending GTB buffer of one group.
    fn flush_group(self: &Arc<Self>, group: &GroupState) {
        if let Some(window) = group.take_buffered() {
            self.flush_tasks(window);
        }
    }

    /// A spawn left tasks sitting in a GTB buffer: nudge every barrier that
    /// could be blocked on them so its predicate — which re-flushes the
    /// buffers — runs. Without this, a spawn issued *during* a barrier
    /// (e.g. from an executing task body) could stay buffered forever: the
    /// buffered tasks are already counted outstanding, so no completion
    /// will ever bring the counter to zero and fire the notify itself.
    /// Three atomic loads when no barrier waits.
    pub(super) fn notify_buffered(&self, group: &GroupState) {
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
}

impl Runtime {
    /// Global barrier (`#pragma omp taskwait`): flush all GTB buffers and
    /// wait until every spawned task has completed. Under a buffering
    /// policy the flush is repeated before every predicate re-check, so
    /// spawns issued from inside running tasks drain instead of
    /// deadlocking the barrier.
    pub fn wait_all(&self) -> OutcomeSummary {
        let inner = &self.inner;
        inner.wait_until(
            &inner.idle_barrier,
            || inner.flush_all_groups(),
            || inner.outstanding.load(Ordering::SeqCst) == 0,
        );
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
        let inner = &self.inner;
        let state = group.state_in(inner.id);
        inner.wait_until(
            &state.barrier,
            || inner.flush_group(state),
            || state.outstanding.load(Ordering::SeqCst) == 0,
        );
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
        group.state_in(self.inner.id).set_ratio(ratio);
        self.wait_group(group)
    }

    /// Data barrier (`#pragma omp taskwait on(...)`): wait until every task
    /// that writes `key` has completed. All GTB buffers are flushed first, as
    /// buffered tasks could be writers of `key`.
    pub fn wait_on(&self, key: DepKey) {
        let inner = &self.inner;
        inner.wait_until(
            &inner.writes_barrier,
            || inner.flush_all_groups(),
            || !inner.tracker.has_unfinished_writer(key),
        );
    }
}

#[cfg(test)]
mod tests {
    use crate::deps::DepKey;
    use crate::policy::Policy;
    use crate::runtime::tests::{count_runtime, groups_with_one_index};
    use crate::runtime::BatchTask;
    use crate::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use crate::sync::Arc;
    use std::time::Duration;

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
}
