//! Brownout and abandonment: [`OverloadState`] and its amortised
//! shed-threshold recomputation, and [`RuntimeInner::abandon`], which
//! retires a task without running it, shed or cancelled through the
//! [`CancelToken`](crate::task::CancelToken) attached at spawn (the one
//! cancellation channel).
//!
//! # Checklist for the model checker
//!
//! Unsafe blocks: one, in [`RuntimeInner::abandon`], which drops both body
//! cells as the task's unique executor (the worker that dequeued it).
//!
//! Orderings weaker than SeqCst:
//!
//! * `OverloadState::shed_bits`, a `Relaxed` store and load: the threshold
//!   is advisory, recomputed from counters that are themselves sampled
//!   racily; a worker reading a stale one sheds or runs one task more.

use super::worker::Retired;
use super::RuntimeInner;
use crate::handle::TaskOutcome;
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{Arc, CachePadded};
use crate::task::Task;

/// Brownout overload controller: build-time watermarks plus the current shed
/// threshold, recomputed amortised (every [`OverloadState::TICK_MASK`]` + 1`
/// executes per worker) from queue depth and the deadline-miss rate.
pub(super) struct OverloadState {
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

    pub(super) fn new(queue_watermark: Option<usize>, miss_watermark: Option<f64>) -> Self {
        let queue_watermark = queue_watermark.unwrap_or(usize::MAX);
        let miss_watermark = miss_watermark.unwrap_or(f64::INFINITY);
        OverloadState {
            queue_watermark,
            miss_watermark,
            shed_bits: CachePadded::new(AtomicU64::new(0.0f64.to_bits())),
            enabled: queue_watermark != usize::MAX || miss_watermark.is_finite(),
        }
    }

    /// Current shed threshold; one relaxed load.
    pub(super) fn threshold(&self) -> f64 {
        f64::from_bits(self.shed_bits.load(Ordering::Relaxed))
    }

    /// Whether the controller currently sheds anything at all.
    pub(super) fn is_overloaded(&self) -> bool {
        self.threshold() > 0.0
    }
}

impl RuntimeInner {
    /// Amortised overload recomputation, called from the execute path (the
    /// only place the shed threshold is consumed, so spawn-side ticks would
    /// buy nothing: a stale threshold while nothing executes is harmless).
    /// `tick` is the calling worker's private counter, threaded down from
    /// its run loop — most calls are one increment of worker-local memory
    /// with no shared-line traffic at all; every `TICK_MASK + 1`-th call
    /// per worker recomputes the shed threshold from the current queue
    /// depth and deadline-miss rate.
    pub(super) fn overload_tick(&self, t: usize) {
        let overload = &self.overload;
        if !overload.enabled || t & OverloadState::TICK_MASK != 0 {
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

    /// Abandon a task without running either body: drop the bodies, poison
    /// its written keys so dependents observe the failure, account it as
    /// shed (brownout) or cancelled, and run the full completion protocol —
    /// abandoned tasks still release successors and barriers, keeping the
    /// exactly-once accounting `spawned == completed + cancelled + shed +
    /// panicked` intact.
    pub(super) fn abandon(
        &self,
        task: &Arc<Task>,
        worker: usize,
        shed: bool,
        retired: &mut Retired,
    ) {
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
            self.stats.record_cancelled(worker);
            task.notify_handle(TaskOutcome::Cancelled);
        }
        self.complete(task, retired);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;
    use crate::runtime::tests::block_single_worker;
    use crate::runtime::BatchTask;
    use crate::runtime::Runtime;
    use crate::sync::atomic::AtomicUsize;
    use crate::task::CancelToken;
    use std::time::Duration;

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
    fn cancel_token_skips_a_queued_batch() {
        let rt = Runtime::builder()
            .workers(1)
            .policy(Policy::SignificanceAgnostic)
            .build();
        let release = block_single_worker(&rt);
        let token = CancelToken::new();
        let ran = Arc::new(AtomicUsize::new(0));
        rt.batch()
            .cancel_token(&token)
            .spawn_tasks((0..40).map(|_| {
                let r = ran.clone();
                BatchTask::new(move || {
                    r.fetch_add(1, Ordering::Relaxed);
                })
            }));
        token.cancel();
        release.send(()).unwrap();
        let summary = rt.wait_all();
        assert_eq!(ran.load(Ordering::Relaxed), 0);
        assert_eq!(summary.cancelled, 40);
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
        assert_eq!(summary.failed(), 0, "{summary:?}");
        assert_eq!(summary.completed, 100);
        assert_eq!(summary.deadline_misses, 0);
        let stats = rt.group_stats(&group);
        assert_eq!(stats.total(), 100);
        assert_eq!(stats.accurate, 50);
    }
}
