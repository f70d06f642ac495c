//! Task descriptors: the runtime's internal representation of a spawned task.
//!
//! A task carries (Section 2 / 3.1 of the paper):
//!
//! * its **significance**,
//! * an **accurate body** and an optional **approximate body** (`approxfun`),
//! * the **task group** it belongs to (`label`),
//! * its **data footprint** (`in`/`out` dependence keys),
//! * scheduling state: how many predecessors are still outstanding, whether
//!   the master has released it to the workers (GTB buffering), and the
//!   execution-mode decision once it has been made.
//!
//! All scheduling state lives in **one atomic byte** (`Task::decide`,
//! `Task::release`, `Task::claim_enqueue`), the two bodies live in
//! take-once `BodyCell`s, and the successor list is a lock-free Treiber
//! stack sealed at completion — so executing a ready task performs **zero
//! mutex acquisitions**. The seed design spent two mutex locks per executed
//! task on the body slots alone plus one on the successor list.

use std::cell::UnsafeCell;

use crate::deps::DepKey;
use crate::group::{GroupId, GroupState};
use crate::handle::{HandleNotify, TaskOutcome};
use crate::significance::Significance;
use crate::sync::atomic::{AtomicBool, AtomicPtr, AtomicU8, AtomicUsize, Ordering};
use crate::sync::Arc;

/// Unique identifier of a spawned task, in program (spawn) order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub(crate) u64);

impl TaskId {
    /// The raw spawn-order index.
    pub fn index(self) -> u64 {
        self.0
    }
}

/// A task body: an arbitrary `FnOnce` closure executed on a worker thread.
pub type TaskBody = Box<dyn FnOnce() + Send + 'static>;

/// How a task was (or will be) executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecutionMode {
    /// The accurate body ran.
    Accurate,
    /// The approximate (`approxfun`) body ran.
    Approximate,
    /// The task was selected for approximation but had no approximate body,
    /// so it was dropped entirely (Section 2: "it is simply dropped by the
    /// runtime").
    Dropped,
}

// Layout of the task state byte.
const MODE_MASK: u8 = 0b11; // 0 = undecided
const MODE_ACCURATE: u8 = 1;
const MODE_APPROXIMATE: u8 = 2;
const RELEASED: u8 = 1 << 2;
const ENQUEUED: u8 = 1 << 3;
const COMPLETED: u8 = 1 << 4;
const CANCELLED: u8 = 1 << 5;
const PANICKED: u8 = 1 << 6;

/// A cooperative cancellation flag shared between spawners and task bodies.
///
/// A token attached to a task (via
/// [`TaskBuilder::cancel_token`](crate::runtime::TaskBuilder::cancel_token))
/// is checked once when the task is dequeued for execution: if the token has
/// been cancelled, the task's bodies are dropped unrun, its outputs are
/// poisoned, and it completes with the `Cancelled` outcome. Task bodies may
/// also poll their own clone of the token to bail out of long loops early.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Request cancellation of every task the token is attached to.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// A task body slot consumed exactly once, without a lock.
///
/// The cell is written only at construction. It is taken by the single
/// worker that won [`Task::claim_enqueue`] and popped the task from a queue;
/// the queue handoff (release store / CAS acquire) orders the construction
/// write before the take.
struct BodyCell(UnsafeCell<Option<TaskBody>>);

// SAFETY: see the take-once discipline documented on the type; the cell is
// never accessed from two threads without an intervening synchronisation
// edge (queue push/pop or `&mut` creation).
unsafe impl Send for BodyCell {}
unsafe impl Sync for BodyCell {}

impl BodyCell {
    fn new(body: Option<TaskBody>) -> Self {
        BodyCell(UnsafeCell::new(body))
    }

    /// Take the body out of the cell.
    ///
    /// # Safety
    ///
    /// Only the task's unique executor (the [`Task::claim_enqueue`] winner
    /// after dequeuing the task) may call this, and nothing may read the
    /// cell concurrently.
    unsafe fn take(&self) -> Option<TaskBody> {
        (*self.0.get()).take()
    }
}

/// Sentinel marking a sealed successor list. Never dereferenced (and never
/// equal to a real allocation: `dangling_mut` is the type's alignment).
fn sealed() -> *mut SuccessorNode {
    std::ptr::dangling_mut()
}

struct SuccessorNode {
    task: Arc<Task>,
    next: *mut SuccessorNode,
}

/// Lock-free list of tasks waiting on this task's completion.
///
/// Registrars push with a CAS; the completing worker swaps in a `sealed`
/// sentinel and drains. A push that observes the sentinel knows the
/// predecessor already completed and reports so — replacing the seed's
/// `Mutex<Vec<Arc<Task>>>` plus separate `completed` flag read under that
/// lock.
pub(crate) struct SuccessorList {
    head: AtomicPtr<SuccessorNode>,
}

impl SuccessorList {
    fn new() -> Self {
        SuccessorList {
            head: AtomicPtr::new(std::ptr::null_mut()),
        }
    }

    /// Whether the list is sealed, i.e. the owning task finished and released
    /// its successors. Acquire would do for a registrant — it pairs with the
    /// release half of the swap in [`SuccessorList::seal`], so whoever skips
    /// the dependence on a finished task sees everything that task wrote
    /// before publishing the new task to a worker. SeqCst because this is
    /// also the `taskwait on(...)` predicate (`has_unfinished_writer` in
    /// `deps.rs`), which must form a Dekker pair with the seal against
    /// `EventCount`'s waiter count; as a load it costs no more.
    pub(crate) fn is_sealed(&self) -> bool {
        self.head.load(Ordering::SeqCst) == sealed()
    }

    /// Register `successor`; returns `false` if this task already completed
    /// (the caller must then not count the dependence). Looks at the seal
    /// before it allocates or clones: with the workers keeping up, a finished
    /// predecessor is the common case, and it costs one load.
    pub(crate) fn try_push(&self, successor: &Arc<Task>) -> bool {
        // Acquire: pairs with the release half of the sealing swap, as
        // `is_sealed` explains for a registrant.
        let mut head = self.head.load(Ordering::Acquire);
        if head == sealed() {
            return false;
        }
        let node = Box::into_raw(Box::new(SuccessorNode {
            task: successor.clone(),
            next: head,
        }));
        loop {
            match self
                .head
                .compare_exchange_weak(head, node, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return true,
                Err(observed) if observed == sealed() => {
                    // Lost the race against completion.
                    // SAFETY: the node was allocated above and never shared.
                    drop(unsafe { Box::from_raw(node) });
                    return false;
                }
                Err(observed) => {
                    head = observed;
                    // SAFETY: the node is exclusively ours until the CAS wins.
                    unsafe { (*node).next = head };
                }
            }
        }
    }

    /// Seal the list (no further pushes succeed) and drain the registered
    /// successors in registration order. SeqCst: a `taskwait on(...)` waiter
    /// registers with the `EventCount` and then polls the seal, the worker
    /// seals and then looks for waiters — one of the two must see the other
    /// (see [`SuccessorList::is_sealed`]).
    pub(crate) fn seal(&self) -> Vec<Arc<Task>> {
        Self::drain(self.head.swap(sealed(), Ordering::SeqCst))
    }

    /// The successors on the chain `head` starts, in registration order,
    /// freeing its nodes. `head` must be a chain no other thread can reach
    /// any more: one a sealing swap took out of the list, or one read
    /// through `&mut self`.
    fn drain(mut head: *mut SuccessorNode) -> Vec<Arc<Task>> {
        let mut successors = Vec::new();
        while !head.is_null() && head != sealed() {
            // SAFETY: no other thread can reach the chain (see above); each
            // node came from `Box::into_raw` and is freed exactly once.
            let node = unsafe { Box::from_raw(head) };
            successors.push(node.task);
            head = node.next;
        }
        successors.reverse();
        successors
    }
}

impl Drop for SuccessorList {
    fn drop(&mut self) {
        // Frees any nodes never drained (e.g. a task dropped unexecuted).
        // `&mut self` excludes every other thread, so the head is read
        // plainly: freeing a record, or a reset replacing a sealed list,
        // costs no atomic operation.
        drop(Self::drain(*self.head.get_mut()));
    }
}

/// Internal state of a spawned task, shared between the master thread, the
/// dependence tracker and the workers.
pub(crate) struct Task {
    pub(crate) id: TaskId,
    /// The group resolved at spawn time, so the execution hot path never
    /// touches the group registry lock.
    pub(crate) group_state: Arc<GroupState>,
    pub(crate) significance: Significance,
    /// Accurate body; taken (at most once) when the task executes.
    accurate: BodyCell,
    /// Optional approximate body; taken when the task executes approximately.
    approximate: BodyCell,
    /// Combined decision + released + enqueued + completed state.
    state: AtomicU8,
    /// Number of yet-uncompleted predecessor tasks.
    pub(crate) pending_deps: AtomicUsize,
    /// Tasks that must be notified when this task completes.
    pub(crate) successors: SuccessorList,
    /// Output keys (needed to release `taskwait on(...)` waiters).
    pub(crate) out_keys: Vec<DepKey>,
    /// Whether the task declared any `in`/`out` keys. A footprint-free task
    /// can never be a predecessor, so its completion path skips the
    /// successor-list seal and the dependence tracker entirely.
    pub(crate) footprint: bool,
    /// Runtime-internal helper task (e.g. a parallel GTB-flush chunk):
    /// executed like any other task but invisible to user-facing statistics
    /// and energy accounting.
    pub(crate) system: bool,
    /// Input keys, kept for transitive poison propagation: a task whose
    /// inputs were written by a failed predecessor poisons its own outputs.
    pub(crate) in_keys: Vec<DepKey>,
    /// Completion deadline in nanoseconds since runtime start; `0` = none.
    pub(crate) deadline_nanos: u64,
    /// Cooperative cancellation token attached at spawn, if any.
    pub(crate) cancel: Option<CancelToken>,
    /// Spawn-handle notification target, resolved exactly once with the
    /// task's terminal outcome (see [`crate::handle::SpawnHandle`]).
    pub(crate) handle: Option<Arc<dyn HandleNotify>>,
    /// Link to the next record while this one waits in a worker's mailbox
    /// (see `deque::Mailbox`); meaningless anywhere else. A record is
    /// enqueued once per life, so it sits on at most one mailbox chain.
    pub(crate) mail_next: AtomicPtr<Task>,
}

/// Key-buffer capacity a blanked record keeps. A footprint is rarely wider;
/// one that is gives its buffer back, so no husk pins a large allocation.
const KEPT_KEY_CAPACITY: usize = 16;

fn blank_keys(keys: &mut Vec<DepKey>) {
    if keys.capacity() > KEPT_KEY_CAPACITY {
        *keys = Vec::new();
    } else {
        keys.clear();
    }
}

impl Task {
    /// A blank record ("husk") bound to `group_state`: no bodies, no keys, no
    /// clauses, state byte 0. Every spawn starts from one — freshly allocated
    /// or recycled (see [`Task::reset`]) — and fills it through `&mut`.
    pub(crate) fn blank(group_state: Arc<GroupState>) -> Self {
        Task {
            id: TaskId(0),
            group_state,
            significance: Significance::default(),
            accurate: BodyCell::new(None),
            approximate: BodyCell::new(None),
            state: AtomicU8::new(0),
            pending_deps: AtomicUsize::new(0),
            successors: SuccessorList::new(),
            out_keys: Vec::new(),
            footprint: false,
            system: false,
            in_keys: Vec::new(),
            deadline_nanos: 0,
            cancel: None,
            handle: None,
            mail_next: AtomicPtr::new(std::ptr::null_mut()),
        }
    }

    /// Blank a retired record in place for reuse, keeping only its group
    /// binding (the next spawn into the same group then skips the group
    /// lookup and refcount) and its key buffers (the next footprint fills
    /// them without allocating). `&mut` is the whole safety argument: the
    /// runtime gets here through `Arc::get_mut`, so nobody else holds the
    /// record.
    pub(crate) fn reset(&mut self) {
        // Exhaustive on purpose: a new field must say how it is blanked.
        let Task {
            id: _,
            group_state: _,
            significance: _,
            accurate,
            approximate,
            state,
            pending_deps,
            successors,
            out_keys,
            footprint,
            system,
            in_keys,
            deadline_nanos,
            cancel,
            handle,
            // Every mailbox push writes the link before publishing it.
            mail_next: _,
        } = self;
        *accurate = BodyCell::new(None);
        *approximate = BodyCell::new(None);
        *state.get_mut() = 0;
        *pending_deps.get_mut() = 0;
        // A footprint task sealed its list at completion; unseal it. A
        // footprint-free one never had it pushed to (only the tracker's
        // records become predecessors) nor sealed (`complete` skips the
        // seal), so its list is already blank.
        if *footprint {
            *successors = SuccessorList::new();
        } else {
            debug_assert!(
                successors.head.get_mut().is_null(),
                "a footprint-free record's successor list was used"
            );
        }
        blank_keys(out_keys);
        *footprint = false;
        *system = false;
        blank_keys(in_keys);
        *deadline_nanos = 0;
        *cancel = None;
        *handle = None;
    }

    /// Whether the record is as [`Task::blank`] leaves it. `&mut` so the body
    /// cells can be read without `unsafe`.
    #[cfg(test)]
    pub(crate) fn is_blank(&mut self) -> bool {
        self.accurate.0.get_mut().is_none()
            && self.approximate.0.get_mut().is_none()
            && *self.state.get_mut() == 0
            && *self.pending_deps.get_mut() == 0
            && self.successors.head.get_mut().is_null()
            && self.out_keys.is_empty()
            && self.in_keys.is_empty()
            && !self.footprint
            && !self.system
            && self.deadline_nanos == 0
            && self.cancel.is_none()
            && self.handle.is_none()
    }

    /// Give a blank record its identity and bodies. The remaining clauses
    /// (keys, deadline, cancel token, handle) are plain field stores by the
    /// spawn path.
    pub(crate) fn fill(
        &mut self,
        id: TaskId,
        significance: Significance,
        accurate: TaskBody,
        approximate: Option<TaskBody>,
    ) {
        self.id = id;
        self.significance = significance;
        self.accurate = BodyCell::new(Some(accurate));
        self.approximate = BodyCell::new(approximate);
    }

    /// A filled record in one call, for unit tests.
    #[cfg(test)]
    pub(crate) fn new(
        id: TaskId,
        group_state: Arc<GroupState>,
        significance: Significance,
        accurate: TaskBody,
        approximate: Option<TaskBody>,
        out_keys: Vec<DepKey>,
        footprint: bool,
    ) -> Self {
        let mut task = Task::blank(group_state);
        task.fill(id, significance, accurate, approximate);
        task.out_keys = out_keys;
        task.footprint = footprint;
        task
    }

    /// Spawn fast path: mark the task released and enqueued (and decided
    /// accurate, for the agnostic policy) before it is ever shared — a plain
    /// store through `&mut`, not an atomic op. Valid only for tasks that go
    /// straight to a queue from `spawn` (no GTB buffering, no predecessors).
    pub(crate) fn prime_spawn_enqueued(&mut self, accurate: bool) {
        let bits = if accurate {
            MODE_ACCURATE | RELEASED | ENQUEUED
        } else {
            RELEASED | ENQUEUED
        };
        *self.state.get_mut() |= bits;
    }

    /// GTB flush fast path: decide, release and mark enqueued in one plain
    /// store, for a buffered record the flush holds the only reference to
    /// and that waits on no predecessor — nobody else can decide, release,
    /// enqueue or even observe it, so there is no race for the atomic
    /// [`Task::decide`] / [`Task::release`] / [`Task::claim_enqueue`] to
    /// arbitrate.
    pub(crate) fn prime_flush_enqueued(&mut self, accurate: bool) {
        let mode = if accurate {
            MODE_ACCURATE
        } else {
            MODE_APPROXIMATE
        };
        let state = self.state.get_mut();
        debug_assert_eq!(*state & (MODE_MASK | RELEASED | ENQUEUED), 0);
        *state |= mode | RELEASED | ENQUEUED;
    }

    /// Take the accurate body.
    ///
    /// # Safety
    ///
    /// Caller must be the task's unique executor (see [`BodyCell::take`]).
    pub(crate) unsafe fn take_accurate(&self) -> Option<TaskBody> {
        self.accurate.take()
    }

    /// Take the approximate body.
    ///
    /// # Safety
    ///
    /// Caller must be the task's unique executor (see [`BodyCell::take`]).
    pub(crate) unsafe fn take_approximate(&self) -> Option<TaskBody> {
        self.approximate.take()
    }

    /// Whether an approximate body was supplied at spawn time. Must not race
    /// with the executor; used by spawn-side code and tests only.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn has_approx_body(&self) -> bool {
        // SAFETY: callers hold the task before it is ever enqueued.
        unsafe { (*self.approximate.0.get()).is_some() }
    }

    /// Record the accurate/approximate decision. The first decision wins;
    /// later attempts are ignored (they can arise when a GTB flush races with
    /// a barrier flush of the same group).
    pub(crate) fn decide(&self, accurate: bool) {
        let mode = if accurate {
            MODE_ACCURATE
        } else {
            MODE_APPROXIMATE
        };
        let _ = self
            .state
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |state| {
                (state & MODE_MASK == 0).then_some(state | mode)
            });
    }

    /// The decision made so far, if any. `Some(true)` means accurate.
    pub(crate) fn decision(&self) -> Option<bool> {
        match self.state.load(Ordering::Acquire) & MODE_MASK {
            MODE_ACCURATE => Some(true),
            MODE_APPROXIMATE => Some(false),
            _ => None,
        }
    }

    /// Mark the task as released by the master (GTB flush or immediate
    /// release). Returns `true` the first time.
    ///
    /// SeqCst: `release` + `is_ready` on one thread races `pending_deps`
    /// decrement + `is_released` on another (the GTB-flush vs
    /// last-predecessor-completion pair). With anything weaker than SeqCst
    /// this is a store-buffering pattern where both sides could read stale
    /// and neither enqueues the task.
    pub(crate) fn release(&self) -> bool {
        self.state.fetch_or(RELEASED, Ordering::SeqCst) & RELEASED == 0
    }

    /// Spawn-path fast combination of `decide(true)` + `release()` in one
    /// atomic op, valid only while no other thread can have decided yet
    /// (the significance-agnostic policy decides at spawn, before the task
    /// is shared with any flush path).
    pub(crate) fn release_accurate(&self) {
        self.state
            .fetch_or(MODE_ACCURATE | RELEASED, Ordering::SeqCst);
    }

    /// Whether the task has been released towards the worker queues.
    /// SeqCst: see [`Task::release`].
    pub(crate) fn is_released(&self) -> bool {
        self.state.load(Ordering::SeqCst) & RELEASED != 0
    }

    /// Whether all predecessors have completed.
    /// SeqCst: see [`Task::release`].
    pub(crate) fn is_ready(&self) -> bool {
        self.pending_deps.load(Ordering::SeqCst) == 0
    }

    /// Atomically claim the right to enqueue this task. Returns `true` for
    /// exactly one caller.
    pub(crate) fn claim_enqueue(&self) -> bool {
        self.state.fetch_or(ENQUEUED, Ordering::AcqRel) & ENQUEUED == 0
    }

    /// The group the task was spawned into.
    pub(crate) fn group_id(&self) -> GroupId {
        self.group_state.id
    }

    /// Record that the task finished executing (in any mode).
    pub(crate) fn mark_completed(&self) {
        self.state.fetch_or(COMPLETED, Ordering::AcqRel);
    }

    /// Whether the task finished executing.
    pub(crate) fn is_completed(&self) -> bool {
        self.state.load(Ordering::Acquire) & COMPLETED != 0
    }

    /// Request cancellation of this specific task. Honoured cooperatively:
    /// the task is skipped if the request lands before a worker dequeues it.
    /// Returns `true` the first time.
    pub(crate) fn request_cancel(&self) -> bool {
        self.state.fetch_or(CANCELLED, Ordering::AcqRel) & CANCELLED == 0
    }

    /// Whether cancellation was requested through any channel (the per-task
    /// bit, an attached token, or the whole group).
    pub(crate) fn cancel_requested(&self) -> bool {
        if self.state.load(Ordering::Acquire) & CANCELLED != 0 {
            return true;
        }
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return true;
            }
        }
        self.group_state.is_cancelled()
    }

    /// Resolve the attached spawn handle, if any, with the task's terminal
    /// outcome. Called exactly once, by the single worker retiring the task,
    /// strictly before the completion protocol releases barriers.
    pub(crate) fn notify_handle(&self, outcome: TaskOutcome) {
        if let Some(handle) = &self.handle {
            handle.notify(outcome);
        }
    }

    /// Record that the task's body panicked.
    pub(crate) fn mark_panicked(&self) {
        self.state.fetch_or(PANICKED, Ordering::AcqRel);
    }

    /// Whether the task's body panicked.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn is_panicked(&self) -> bool {
        self.state.load(Ordering::Acquire) & PANICKED != 0
    }
}

impl std::fmt::Debug for Task {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Task")
            .field("id", &self.id)
            .field("group", &self.group_id())
            .field("significance", &self.significance)
            .field("decision", &self.decision())
            .field("pending_deps", &self.pending_deps.load(Ordering::Relaxed))
            .field("released", &self.is_released())
            .field("completed", &self.is_completed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_group() -> Arc<GroupState> {
        Arc::new(GroupState::new(
            0,
            GroupId::GLOBAL,
            Arc::from("<test>"),
            1.0,
            1,
        ))
    }

    fn dummy_task(significance: f64) -> Task {
        Task::new(
            TaskId(0),
            test_group(),
            Significance::new(significance),
            Box::new(|| {}),
            None,
            Vec::new(),
            false,
        )
    }

    #[test]
    fn new_task_is_undecided_unreleased_ready() {
        let t = dummy_task(0.5);
        assert_eq!(t.decision(), None);
        assert!(!t.is_released());
        assert!(t.is_ready());
        assert!(!t.has_approx_body());
        assert!(!t.is_completed());
    }

    #[test]
    fn first_decision_wins() {
        let t = dummy_task(0.5);
        t.decide(true);
        assert_eq!(t.decision(), Some(true));
        t.decide(false);
        assert_eq!(
            t.decision(),
            Some(true),
            "later decisions must not override"
        );
    }

    #[test]
    fn release_returns_true_once() {
        let t = dummy_task(0.2);
        assert!(t.release());
        assert!(!t.release());
        assert!(t.is_released());
    }

    #[test]
    fn claim_enqueue_is_exclusive() {
        let t = dummy_task(0.2);
        assert!(t.claim_enqueue());
        assert!(!t.claim_enqueue());
    }

    #[test]
    fn state_flags_are_independent() {
        let t = dummy_task(0.9);
        t.decide(false);
        t.release();
        t.claim_enqueue();
        t.mark_completed();
        assert_eq!(t.decision(), Some(false));
        assert!(t.is_released());
        assert!(t.is_completed());
        assert!(!t.claim_enqueue());
    }

    #[test]
    fn bodies_are_take_once() {
        let ran = std::sync::Arc::new(AtomicUsize::new(0));
        let r = ran.clone();
        let t = Task::new(
            TaskId(1),
            test_group(),
            Significance::new(0.3),
            Box::new(move || {
                r.fetch_add(1, Ordering::Relaxed);
            }),
            Some(Box::new(|| {})),
            Vec::new(),
            false,
        );
        assert!(t.has_approx_body());
        // SAFETY: single-threaded test, no concurrent executor.
        let body = unsafe { t.take_accurate() }.expect("first take yields the body");
        body();
        assert_eq!(ran.load(Ordering::Relaxed), 1);
        assert!(
            unsafe { t.take_accurate() }.is_none(),
            "second take is empty"
        );
        assert!(unsafe { t.take_approximate() }.is_some());
        assert!(unsafe { t.take_approximate() }.is_none());
    }

    #[test]
    fn successor_list_rejects_after_seal() {
        let t = dummy_task(0.4);
        let a = Arc::new(dummy_task(0.1));
        let b = Arc::new(dummy_task(0.2));
        assert!(t.successors.try_push(&a));
        assert!(t.successors.try_push(&b));
        let drained = t.successors.seal();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].id, a.id);
        assert!(t.successors.is_sealed());
        let holders = Arc::strong_count(&a);
        assert!(
            !t.successors.try_push(&a),
            "push after seal must report completion"
        );
        assert_eq!(
            Arc::strong_count(&a),
            holders,
            "a push that finds the seal must not clone"
        );
        assert!(t.successors.seal().is_empty(), "second seal drains nothing");
    }

    #[test]
    fn dropping_an_unsealed_list_gives_back_every_successor() {
        let successors: Vec<Arc<Task>> = (0..3)
            .map(|i| Arc::new(dummy_task(0.1 * i as f64)))
            .collect();
        let list = SuccessorList::new();
        for successor in &successors {
            assert!(list.try_push(successor));
            assert!(list.try_push(successor), "a successor may be listed twice");
        }
        assert!(successors.iter().all(|s| Arc::strong_count(s) == 3));
        drop(list);
        for successor in &successors {
            assert_eq!(
                Arc::strong_count(successor),
                1,
                "the dropped list kept a reference"
            );
        }
    }

    #[test]
    fn successor_list_concurrent_push_and_seal_loses_no_task() {
        for _ in 0..50 {
            let t = Arc::new(dummy_task(0.5));
            let registrar = {
                let t = t.clone();
                std::thread::spawn(move || {
                    let mut wired = 0usize;
                    for _ in 0..64 {
                        if t.successors.try_push(&Arc::new(dummy_task(0.1))) {
                            wired += 1;
                        }
                    }
                    wired
                })
            };
            let sealer = {
                let t = t.clone();
                std::thread::spawn(move || t.successors.seal().len())
            };
            let wired = registrar.join().unwrap();
            let drained = sealer.join().unwrap();
            assert!(drained <= wired);
            // Tasks pushed after the seal were rejected; every accepted one
            // must be drained by exactly one of the two seals.
            let late = t.successors.seal().len();
            assert_eq!(drained + late, wired, "no accepted successor may leak");
        }
    }

    #[test]
    fn pending_deps_tracking() {
        let t = dummy_task(0.7);
        t.pending_deps.store(2, Ordering::Release);
        assert!(!t.is_ready());
        t.pending_deps.fetch_sub(1, Ordering::AcqRel);
        assert!(!t.is_ready());
        t.pending_deps.fetch_sub(1, Ordering::AcqRel);
        assert!(t.is_ready());
    }

    #[test]
    fn debug_format_is_nonempty() {
        let t = dummy_task(0.4);
        assert!(!format!("{t:?}").is_empty());
    }

    #[test]
    fn task_id_ordering_matches_spawn_order() {
        assert!(TaskId(1) < TaskId(2));
        assert_eq!(TaskId(7).index(), 7);
    }

    #[test]
    fn cancel_and_panic_bits_are_independent() {
        let t = dummy_task(0.5);
        assert!(!t.cancel_requested());
        assert!(t.request_cancel());
        assert!(
            !t.request_cancel(),
            "second request reports already-cancelled"
        );
        assert!(t.cancel_requested());
        assert!(!t.is_panicked());
        t.mark_panicked();
        assert!(t.is_panicked());
        assert!(!t.is_completed());
        assert!(
            t.claim_enqueue(),
            "cancel must not consume the enqueue claim"
        );
    }

    #[test]
    fn cancel_token_reaches_attached_task() {
        let token = CancelToken::new();
        let mut t = dummy_task(0.5);
        t.cancel = Some(token.clone());
        assert!(!t.cancel_requested());
        token.cancel();
        assert!(token.is_cancelled());
        assert!(t.cancel_requested());
    }

    #[test]
    fn reset_blanks_every_field_and_unseals_the_successor_list() {
        let mut t = Task::new(
            TaskId(9),
            test_group(),
            Significance::new(0.3),
            Box::new(|| {}),
            Some(Box::new(|| {})),
            vec![DepKey::from_raw(1)],
            true,
        );
        assert!(!t.is_blank());
        t.in_keys = vec![DepKey::from_raw(2)];
        t.system = true;
        t.deadline_nanos = 17;
        t.cancel = Some(CancelToken::new());
        t.pending_deps.store(3, Ordering::Relaxed);
        // Retire it the way a footprint task retires: sealed list, every
        // state bit set, one body left untaken.
        assert!(t.successors.try_push(&Arc::new(dummy_task(0.1))));
        t.decide(false);
        t.release();
        t.claim_enqueue();
        t.request_cancel();
        t.mark_panicked();
        assert_eq!(t.successors.seal().len(), 1);
        t.mark_completed();
        assert!(!t.successors.try_push(&Arc::new(dummy_task(0.1))));

        t.reset();
        assert!(t.is_blank());
        assert!(
            t.out_keys.capacity() >= 1 && t.in_keys.capacity() >= 1,
            "the key buffers are kept for the next footprint"
        );
        assert_eq!(t.decision(), None);
        assert!(!t.is_released() && !t.is_completed() && !t.is_panicked());
        assert!(!t.cancel_requested());
        assert!(t.claim_enqueue(), "the enqueue claim is free again");
        assert!(
            t.successors.try_push(&Arc::new(dummy_task(0.1))),
            "a reused record must accept successors again"
        );

        // A footprint wider than the kept capacity gives its buffer back.
        // (Keys make it a footprint record, which is also what lets the
        // successor pushed above be there.)
        t.in_keys = (0..4 * KEPT_KEY_CAPACITY as u64)
            .map(DepKey::from_raw)
            .collect();
        t.footprint = true;
        t.reset();
        assert_eq!(t.in_keys.capacity(), 0);
    }

    #[test]
    fn footprint_free_retirement_leaves_the_list_usable_by_the_next_footprint() {
        let mut t = dummy_task(0.5);
        // Retire it the way a footprint-free task retires: every state bit,
        // no seal (`complete` skips it), so `reset` leaves the list alone.
        t.decide(true);
        t.release();
        t.claim_enqueue();
        t.mark_completed();
        t.reset();
        assert!(t.is_blank());

        // Reused with keys: the list takes successors and seals as usual.
        t.fill(TaskId(3), Significance::new(0.2), Box::new(|| {}), None);
        t.out_keys.push(DepKey::from_raw(5));
        t.footprint = true;
        let successor = Arc::new(dummy_task(0.1));
        assert!(t.successors.try_push(&successor));
        let drained = t.successors.seal();
        assert_eq!(drained.len(), 1);
        assert!(Arc::ptr_eq(&drained[0], &successor));
        assert!(!t.successors.try_push(&successor), "sealed at completion");

        // And the next reset unseals it again.
        t.mark_completed();
        t.reset();
        assert!(t.is_blank());
        assert!(t.successors.try_push(&successor));
    }
}
