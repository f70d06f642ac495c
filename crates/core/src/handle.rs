//! Future-based spawn handles: per-task completion observation without
//! barriers.
//!
//! A serving layer cannot afford a [`Runtime::wait_all`] barrier per
//! request — it needs to learn, request by request, *how* a task ended:
//! completed (in which mode), panicked, cancelled, or shed by the brownout
//! controller. [`SpawnHandle`] is that observation channel, resolved exactly
//! once by the worker that retires the task:
//!
//! * **polling** — [`SpawnHandle::try_outcome`] is one mutex-protected load,
//!   suited to a driver loop sweeping thousands of in-flight requests;
//! * **blocking** — [`SpawnHandle::wait`] parks on a condvar until the task
//!   retires;
//! * **async** — `SpawnHandle` implements [`Future`], registering the
//!   caller's [`Waker`] so any executor can await the terminal
//!   [`TaskOutcome`].
//!
//! Handles are attached at spawn through
//! [`Runtime::submit`](crate::runtime::Runtime::submit), whose builder
//! wraps value-returning bodies so the result of the executed body (accurate
//! *or* approximate) is retrievable with [`SpawnHandle::take_value`] after a
//! successful resolution.
//!
//! [`Runtime::wait_all`]: crate::runtime::Runtime::wait_all

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

use crate::runtime::TaskIdRange;
use crate::sync::{Arc, Condvar, Mutex};
use crate::task::{ExecutionMode, TaskId};

/// How a handled task terminated. Every spawned task resolves to exactly one
/// of these, mirroring the exactly-once accounting of
/// [`OutcomeSummary`](crate::stats::OutcomeSummary).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskOutcome {
    /// A body ran to completion in the given mode (accurate, approximate,
    /// or dropped-by-policy).
    Completed(ExecutionMode),
    /// The executed body panicked; outputs were poisoned.
    Panicked,
    /// The task was skipped by cooperative cancellation before it ran.
    Cancelled,
    /// The task was shed by the brownout overload controller.
    Shed,
}

impl TaskOutcome {
    /// Whether the task produced a result (ran some body to completion).
    pub fn is_success(&self) -> bool {
        matches!(self, TaskOutcome::Completed(_))
    }

    /// Whether a serving layer may treat the failure as *transient* and
    /// retry the request: panics (e.g. injected faults) and cancellations
    /// are per-attempt accidents, while [`TaskOutcome::Shed`] is a
    /// deliberate load-control decision that a retry would only amplify.
    pub fn is_transient_failure(&self) -> bool {
        matches!(self, TaskOutcome::Panicked | TaskOutcome::Cancelled)
    }
}

/// Type-erased notification target a [`Task`](crate::task::Task) carries to
/// its terminal transition. Implemented by [`HandleCore<T>`]; the runtime
/// only ever calls [`HandleNotify::notify`] once, from the single worker
/// retiring the task.
pub(crate) trait HandleNotify: Send + Sync {
    fn notify(&self, outcome: TaskOutcome);
}

struct HandleState<T> {
    outcome: Option<TaskOutcome>,
    finished_at: Option<Instant>,
    value: Option<T>,
    wakers: Vec<Waker>,
}

/// Shared core between a [`SpawnHandle`] and the task that resolves it.
pub(crate) struct HandleCore<T> {
    state: Mutex<HandleState<T>>,
    cond: Condvar,
}

impl<T> HandleCore<T> {
    pub(crate) fn new() -> Self {
        HandleCore {
            state: Mutex::new(HandleState {
                outcome: None,
                finished_at: None,
                value: None,
                wakers: Vec::new(),
            }),
            cond: Condvar::new(),
        }
    }

    /// Store the value produced by the executed body. Called from inside the
    /// body wrapper, strictly before the runtime's terminal notification.
    pub(crate) fn put_value(&self, value: T) {
        self.state.lock().unwrap().value = Some(value);
    }
}

impl<T: Send> HandleNotify for HandleCore<T> {
    fn notify(&self, outcome: TaskOutcome) {
        let mut state = self.state.lock().unwrap();
        if state.outcome.is_some() {
            return;
        }
        state.outcome = Some(outcome);
        state.finished_at = Some(Instant::now());
        let wakers = std::mem::take(&mut state.wakers);
        drop(state);
        self.cond.notify_all();
        for waker in wakers {
            waker.wake();
        }
    }
}

/// An owned observation handle for one spawned task, created by
/// [`Runtime::submit`](crate::runtime::Runtime::submit).
///
/// Resolves exactly once to the task's terminal [`TaskOutcome`]; the value
/// returned by the executed body is retrievable afterwards with
/// [`SpawnHandle::take_value`]. Dropping the handle never blocks and never
/// affects the task.
pub struct SpawnHandle<T> {
    core: Arc<HandleCore<T>>,
    id: TaskId,
    /// The id of the runtime that spawned the task.
    runtime: u64,
}

impl<T> SpawnHandle<T> {
    pub(crate) fn new(core: Arc<HandleCore<T>>, id: TaskId, runtime: u64) -> Self {
        SpawnHandle { core, id, runtime }
    }

    /// The spawned task's id (spawn order).
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// The one-task range holding [`SpawnHandle::id`], tagged with the
    /// runtime that spawned it — what
    /// [`Runtime::cancel_tasks`](crate::runtime::Runtime::cancel_tasks)
    /// takes to cancel this task (e.g. a serving layer cancelling every
    /// retry generation of one request).
    pub fn ids(&self) -> TaskIdRange {
        TaskIdRange::new(self.runtime, self.id.0..self.id.0 + 1)
    }

    /// Whether the task has reached a terminal outcome.
    pub fn is_finished(&self) -> bool {
        self.core.state.lock().unwrap().outcome.is_some()
    }

    /// The terminal outcome, if the task already resolved. Non-blocking.
    pub fn try_outcome(&self) -> Option<TaskOutcome> {
        self.core.state.lock().unwrap().outcome
    }

    /// The instant the worker retired the task, if it already resolved —
    /// precise completion timestamps independent of the observer's polling
    /// cadence.
    pub fn finished_at(&self) -> Option<Instant> {
        self.core.state.lock().unwrap().finished_at
    }

    /// Block until the task resolves and return its outcome.
    pub fn wait(&self) -> TaskOutcome {
        let mut state = self.core.state.lock().unwrap();
        while state.outcome.is_none() {
            state = self.core.cond.wait(state).unwrap();
        }
        state.outcome.expect("loop exits only once resolved")
    }

    /// Block until the task resolves or `timeout` elapses.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<TaskOutcome> {
        let deadline = Instant::now() + timeout;
        let mut state = self.core.state.lock().unwrap();
        loop {
            if let Some(outcome) = state.outcome {
                return Some(outcome);
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return None;
            }
            let (next, result) = self.core.cond.wait_timeout(state, remaining).unwrap();
            state = next;
            if result.timed_out() && state.outcome.is_none() {
                return None;
            }
        }
    }

    /// Take the value produced by the executed body. `Some` at most once,
    /// and only after the task resolved with
    /// [`TaskOutcome::Completed`] in a mode that actually ran a body.
    pub fn take_value(&self) -> Option<T> {
        let mut state = self.core.state.lock().unwrap();
        if state.outcome.is_some() {
            state.value.take()
        } else {
            None
        }
    }
}

impl<T> Future for SpawnHandle<T> {
    type Output = TaskOutcome;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<TaskOutcome> {
        let mut state = self.core.state.lock().unwrap();
        if let Some(outcome) = state.outcome {
            return Poll::Ready(outcome);
        }
        if !state.wakers.iter().any(|w| w.will_wake(cx.waker())) {
            state.wakers.push(cx.waker().clone());
        }
        Poll::Pending
    }
}

impl<T> std::fmt::Debug for SpawnHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpawnHandle")
            .field("id", &self.id)
            .field("outcome", &self.try_outcome())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::task::Wake;

    fn resolved<T>(outcome: TaskOutcome) -> SpawnHandle<T>
    where
        T: Send,
    {
        let core = Arc::new(HandleCore::new());
        (core.as_ref() as &dyn HandleNotify).notify(outcome);
        SpawnHandle::new(core, TaskId(0), 0)
    }

    #[test]
    fn try_outcome_before_and_after_resolution() {
        let core: Arc<HandleCore<u32>> = Arc::new(HandleCore::new());
        let handle = SpawnHandle::new(core.clone(), TaskId(7), 0);
        assert_eq!(handle.try_outcome(), None);
        assert!(!handle.is_finished());
        assert_eq!(handle.id(), TaskId(7));
        core.put_value(42);
        assert_eq!(
            handle.take_value(),
            None,
            "value is withheld until resolution"
        );
        (core.as_ref() as &dyn HandleNotify)
            .notify(TaskOutcome::Completed(ExecutionMode::Accurate));
        assert!(handle.is_finished());
        assert!(handle.try_outcome().unwrap().is_success());
        assert!(handle.finished_at().is_some());
        assert_eq!(handle.take_value(), Some(42));
        assert_eq!(handle.take_value(), None, "value is take-once");
    }

    #[test]
    fn first_notification_wins() {
        let core: Arc<HandleCore<()>> = Arc::new(HandleCore::new());
        let handle = SpawnHandle::new(core.clone(), TaskId(0), 0);
        (core.as_ref() as &dyn HandleNotify).notify(TaskOutcome::Panicked);
        (core.as_ref() as &dyn HandleNotify)
            .notify(TaskOutcome::Completed(ExecutionMode::Accurate));
        assert_eq!(handle.try_outcome(), Some(TaskOutcome::Panicked));
    }

    #[test]
    fn wait_blocks_until_cross_thread_resolution() {
        let core: Arc<HandleCore<()>> = Arc::new(HandleCore::new());
        let handle = SpawnHandle::new(core.clone(), TaskId(0), 0);
        let notifier = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            (core.as_ref() as &dyn HandleNotify).notify(TaskOutcome::Shed);
        });
        assert_eq!(handle.wait(), TaskOutcome::Shed);
        notifier.join().unwrap();
    }

    #[test]
    fn wait_timeout_expires_on_unresolved_handle() {
        let core: Arc<HandleCore<()>> = Arc::new(HandleCore::new());
        let handle = SpawnHandle::new(core, TaskId(0), 0);
        assert_eq!(handle.wait_timeout(Duration::from_millis(5)), None);
        assert_eq!(
            resolved::<()>(TaskOutcome::Cancelled).wait_timeout(Duration::ZERO),
            Some(TaskOutcome::Cancelled)
        );
    }

    #[test]
    fn outcome_classification() {
        assert!(TaskOutcome::Completed(ExecutionMode::Dropped).is_success());
        assert!(!TaskOutcome::Panicked.is_success());
        assert!(TaskOutcome::Panicked.is_transient_failure());
        assert!(TaskOutcome::Cancelled.is_transient_failure());
        assert!(!TaskOutcome::Shed.is_transient_failure());
        assert!(!TaskOutcome::Completed(ExecutionMode::Accurate).is_transient_failure());
    }

    struct CountingWaker(AtomicUsize);

    impl Wake for CountingWaker {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn future_registers_waker_and_resolves() {
        let core: Arc<HandleCore<()>> = Arc::new(HandleCore::new());
        let mut handle = SpawnHandle::new(core.clone(), TaskId(0), 0);
        let counter = Arc::new(CountingWaker(AtomicUsize::new(0)));
        let waker = Waker::from(counter.clone());
        let mut cx = Context::from_waker(&waker);
        assert!(Pin::new(&mut handle).poll(&mut cx).is_pending());
        // Re-polling with the same waker must not register it twice.
        assert!(Pin::new(&mut handle).poll(&mut cx).is_pending());
        (core.as_ref() as &dyn HandleNotify).notify(TaskOutcome::Panicked);
        assert_eq!(counter.0.load(Ordering::SeqCst), 1, "woken exactly once");
        assert_eq!(
            Pin::new(&mut handle).poll(&mut cx),
            Poll::Ready(TaskOutcome::Panicked)
        );
    }
}
