//! Declarative macros mirroring the paper's pragma syntax.
//!
//! The paper expresses the programming model as `#pragma omp task` /
//! `#pragma omp taskwait` directives that a source-to-source compiler lowers
//! to runtime calls (Section 3.1). Rust has no pragmas; the closest
//! non-invasive spelling is a declarative macro whose clauses match the
//! pragma clauses one-to-one and expand to exactly those runtime calls:
//!
//! ```
//! use sig_core::{task, taskwait, Runtime, Policy};
//!
//! let rt = Runtime::builder().workers(2).policy(Policy::GtbMaxBuffer).build();
//! let sobel = rt.create_group("sobel", 1.0);
//!
//! for i in 0..8u32 {
//!     task!(rt,
//!         significant((f64::from(i % 9) + 1.0) / 10.0),
//!         approxfun(move || { /* cheaper stencil */ }),
//!         label(&sobel),
//!         body(move || { /* accurate stencil for row i */ })
//!     );
//! }
//! taskwait!(rt, label(&sobel), ratio(0.35));
//! ```

/// Spawn a task: the macro equivalent of
/// `#pragma omp task significant(...) approxfun(...) label(...) in(...) out(...)`.
///
/// Clauses (any order, `body` required):
///
/// * `body(closure)` — the accurate task body,
/// * `significant(expr)` — significance in `[0.0, 1.0]`,
/// * `approxfun(closure)` — approximate body,
/// * `label(&group)` — a [`TaskGroup`](crate::TaskGroup) handle,
/// * `in(iter)` / `out(iter)` — dependence keys,
/// * `deadline(duration)` — relative deadline from now,
/// * `cancel(&token)` — a cooperative [`CancelToken`](crate::CancelToken).
///
/// Expands to a [`TaskBuilder`](crate::runtime::TaskBuilder) chain and
/// returns the spawned [`TaskId`](crate::TaskId).
#[macro_export]
macro_rules! task {
    ($rt:expr, $($clause:ident ( $($arg:tt)* )),+ $(,)?) => {{
        let builder = $crate::task!(@find_body $rt, $($clause ( $($arg)* )),+);
        $( let builder = $crate::task!(@clause builder, $clause ( $($arg)* )); )+
        builder.spawn()
    }};

    // Locate the mandatory body(...) clause and start the builder from it.
    (@find_body $rt:expr, body($body:expr) $(, $($rest:tt)*)?) => {
        $rt.task($body)
    };
    (@find_body $rt:expr, $other:ident ( $($arg:tt)* ) $(, $($rest:tt)*)?) => {
        $crate::task!(@find_body $rt, $($($rest)*)?)
    };
    (@find_body $rt:expr $(,)?) => {
        compile_error!("task! requires a body(...) clause")
    };

    // Per-clause builder transformations. body() was already consumed above.
    (@clause $builder:expr, body($body:expr)) => { $builder };
    (@clause $builder:expr, significant($sig:expr)) => { $builder.significance($sig) };
    (@clause $builder:expr, approxfun($body:expr)) => { $builder.approx($body) };
    (@clause $builder:expr, label($group:expr)) => { $builder.group($group) };
    (@clause $builder:expr, in($keys:expr)) => { $builder.reads($keys) };
    (@clause $builder:expr, out($keys:expr)) => { $builder.writes($keys) };
    (@clause $builder:expr, deadline($deadline:expr)) => { $builder.deadline($deadline) };
    (@clause $builder:expr, cancel($token:expr)) => { $builder.cancel_token($token) };
}

/// Spawn a whole batch of tasks through the amortised injection pipeline —
/// the batched counterpart of [`task!`](macro@crate::task).
///
/// Forms (clauses in any order; `tasks(...)` takes any
/// `IntoIterator<Item = BatchTask>`):
///
/// * `spawn_batch!(rt, tasks(items))` — batch into the implicit global
///   group,
/// * `spawn_batch!(rt, label(&group), tasks(items))` — batch into a group.
///
/// Expands to a [`BatchBuilder`](crate::runtime::BatchBuilder) submission
/// and returns the issued [`TaskIdRange`](crate::runtime::TaskIdRange).
///
/// ```
/// use sig_core::{spawn_batch, taskwait, BatchTask, Runtime};
///
/// let rt = Runtime::builder().workers(2).build();
/// let rows = rt.create_group("rows", 1.0);
/// let ids = spawn_batch!(rt, label(&rows), tasks((0..8u32).map(|i| {
///     BatchTask::new(move || { let _ = i; }).significance(0.5)
/// })));
/// assert_eq!(ids.len(), 8);
/// taskwait!(rt, label(&rows));
/// ```
#[macro_export]
macro_rules! spawn_batch {
    ($rt:expr, tasks($items:expr) $(,)?) => {
        $rt.spawn_batch($items)
    };
    ($rt:expr, label($group:expr), tasks($items:expr) $(,)?) => {
        $rt.batch().group($group).spawn_tasks($items)
    };
    ($rt:expr, tasks($items:expr), label($group:expr) $(,)?) => {
        $rt.batch().group($group).spawn_tasks($items)
    };
}

/// Barrier: the macro equivalent of
/// `#pragma omp taskwait [label(...)] [ratio(...)] [on(...)]`.
///
/// Forms:
///
/// * `taskwait!(rt)` — global barrier,
/// * `taskwait!(rt, ratio(0.5))` — global barrier applying a ratio to the
///   implicit global group,
/// * `taskwait!(rt, label(&group))` — group barrier,
/// * `taskwait!(rt, label(&group), ratio(0.35))` — group barrier with ratio,
/// * `taskwait!(rt, on(key))` — wait for all writers of a dependence key.
#[macro_export]
macro_rules! taskwait {
    ($rt:expr) => {
        $rt.wait_all()
    };
    ($rt:expr, ratio($ratio:expr) $(,)?) => {
        $rt.wait_all_with_ratio($ratio)
    };
    ($rt:expr, label($group:expr) $(,)?) => {
        $rt.wait_group($group)
    };
    ($rt:expr, label($group:expr), ratio($ratio:expr) $(,)?) => {
        $rt.wait_group_with_ratio($group, $ratio)
    };
    ($rt:expr, ratio($ratio:expr), label($group:expr) $(,)?) => {
        $rt.wait_group_with_ratio($group, $ratio)
    };
    ($rt:expr, on($key:expr) $(,)?) => {
        $rt.wait_on($key)
    };
}

#[cfg(test)]
mod tests {
    use crate::{DepKey, Policy, Runtime};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn task_macro_minimal_form() {
        let rt = Runtime::builder().workers(2).build();
        let counter = Arc::new(AtomicUsize::new(0));
        let c = counter.clone();
        task!(
            rt,
            body(move || {
                c.fetch_add(1, Ordering::Relaxed);
            })
        );
        taskwait!(rt);
        assert_eq!(counter.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn task_macro_full_clause_set() {
        let rt = Runtime::builder()
            .workers(2)
            .policy(Policy::GtbMaxBuffer)
            .build();
        let group = rt.create_group("macro", 0.0);
        let accurate = Arc::new(AtomicUsize::new(0));
        let approx = Arc::new(AtomicUsize::new(0));
        let key = DepKey::named("buffer");
        for _ in 0..10 {
            let a = accurate.clone();
            let x = approx.clone();
            task!(
                rt,
                significant(0.5),
                approxfun(move || {
                    x.fetch_add(1, Ordering::Relaxed);
                }),
                label(&group),
                out([key]),
                body(move || {
                    a.fetch_add(1, Ordering::Relaxed);
                })
            );
        }
        taskwait!(rt, label(&group), ratio(0.0));
        assert_eq!(accurate.load(Ordering::Relaxed), 0);
        assert_eq!(approx.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn taskwait_macro_on_key() {
        let rt = Runtime::builder().workers(2).build();
        let key = DepKey::named("x");
        let done = Arc::new(AtomicUsize::new(0));
        let d = done.clone();
        task!(
            rt,
            out([key]),
            body(move || {
                std::thread::sleep(std::time::Duration::from_millis(10));
                d.store(1, Ordering::SeqCst);
            })
        );
        taskwait!(rt, on(key));
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn task_macro_deadline_and_cancel_clauses() {
        let rt = Runtime::builder().workers(2).build();
        let token = crate::CancelToken::new();
        let ran = Arc::new(AtomicUsize::new(0));
        let r = ran.clone();
        task!(
            rt,
            deadline(std::time::Duration::from_secs(3600)),
            cancel(&token),
            body(move || {
                r.fetch_add(1, Ordering::Relaxed);
            })
        );
        let summary = taskwait!(rt);
        assert_eq!(ran.load(Ordering::Relaxed), 1);
        assert_eq!(summary.failed(), 0);
        assert_eq!(summary.deadline_misses, 0);
    }

    #[test]
    fn taskwait_macro_global_ratio() {
        let rt = Runtime::builder()
            .workers(2)
            .policy(Policy::GtbMaxBuffer)
            .build();
        for i in 0..10u32 {
            task!(
                rt,
                significant(f64::from(i % 9 + 1) / 10.0),
                approxfun(|| {}),
                body(|| {})
            );
        }
        taskwait!(rt, ratio(0.5));
        assert_eq!(rt.stats().accurate(), 5);
    }
}
