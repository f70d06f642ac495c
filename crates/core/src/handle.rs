//! Spawn handles: per-task completion observation without barriers.
//!
//! A serving layer cannot afford a [`Runtime::wait_all`] barrier per
//! request — it needs to learn, request by request, *how* a task ended:
//! completed (in which mode), panicked, cancelled, or shed by the brownout
//! controller. [`SpawnHandle`] is that observation channel, resolved exactly
//! once by the worker that retires the task, and observed in one of two
//! ways:
//!
//! * **polling** — [`SpawnHandle::try_outcome`] is one mutex-protected load,
//!   suited to a driver loop sweeping thousands of in-flight requests;
//! * **blocking** — [`SpawnHandle::wait`] parks on a condvar until the task
//!   retires.
//!
//! Handles are attached at spawn through
//! [`Runtime::submit`](crate::runtime::Runtime::submit), whose builder
//! wraps value-returning bodies so the result of the executed body (accurate
//! *or* approximate) is retrievable with [`SpawnHandle::take_value`] after a
//! successful resolution.
//!
//! [`Runtime::wait_all`]: crate::runtime::Runtime::wait_all

use std::time::Instant;

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
        drop(state);
        self.cond.notify_all();
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
    /// The spawned task's id (spawn order).
    pub(crate) id: TaskId,
}

impl<T> SpawnHandle<T> {
    pub(crate) fn new(core: Arc<HandleCore<T>>, id: TaskId) -> Self {
        SpawnHandle { core, id }
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
    use std::time::Duration;

    #[test]
    fn try_outcome_before_and_after_resolution() {
        let core: Arc<HandleCore<u32>> = Arc::new(HandleCore::new());
        let handle = SpawnHandle::new(core.clone(), TaskId(7));
        assert_eq!(handle.try_outcome(), None);
        assert_eq!(handle.finished_at(), None);
        core.put_value(42);
        assert_eq!(
            handle.take_value(),
            None,
            "value is withheld until resolution"
        );
        (core.as_ref() as &dyn HandleNotify)
            .notify(TaskOutcome::Completed(ExecutionMode::Accurate));
        assert_eq!(
            handle.try_outcome(),
            Some(TaskOutcome::Completed(ExecutionMode::Accurate))
        );
        assert!(handle.finished_at().is_some());
        assert_eq!(handle.take_value(), Some(42));
        assert_eq!(handle.take_value(), None, "value is take-once");
    }

    #[test]
    fn first_notification_wins() {
        let core: Arc<HandleCore<()>> = Arc::new(HandleCore::new());
        let handle = SpawnHandle::new(core.clone(), TaskId(0));
        (core.as_ref() as &dyn HandleNotify).notify(TaskOutcome::Panicked);
        (core.as_ref() as &dyn HandleNotify)
            .notify(TaskOutcome::Completed(ExecutionMode::Accurate));
        assert_eq!(handle.try_outcome(), Some(TaskOutcome::Panicked));
    }

    #[test]
    fn wait_blocks_until_cross_thread_resolution() {
        let core: Arc<HandleCore<()>> = Arc::new(HandleCore::new());
        let handle = SpawnHandle::new(core.clone(), TaskId(0));
        let notifier = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            (core.as_ref() as &dyn HandleNotify).notify(TaskOutcome::Shed);
        });
        assert_eq!(handle.wait(), TaskOutcome::Shed);
        notifier.join().unwrap();
    }
}
