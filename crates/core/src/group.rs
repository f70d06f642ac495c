//! Task groups.
//!
//! The `label(...)` clause of the paper's `#pragma omp task` groups tasks
//! under a common identifier. Groups are the unit at which
//!
//! * the accurate-execution **ratio** `R_g` is specified (via
//!   `tpc_init_group()` or the `ratio(...)` clause of `taskwait`),
//! * **barrier synchronisation** happens (`tpc_wait_group()`), and
//! * the GTB policy keeps its **task buffer** and the statistics of Table 2
//!   are collected.
//!
//! A [`TaskGroup`] handle is the one way to name a group: the handle carries
//! the group's state, so binding a task record to it never goes through the
//! registry. Execution-hot state (the ratio, the outstanding counter, the
//! statistics) is atomic or sharded; locks remain only on master-side cold
//! paths (group creation, the GTB spawn buffer).

use std::cell::RefCell;

use crate::stats::GroupStats;
use crate::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use crate::sync::{Arc, CachePadded, EventCount, Mutex, RwLock};
use crate::task::Task;

/// Identifier of a task group: its index in the runtime's registry, dense
/// per runtime.
///
/// Group `0` is the implicit *global* group that unlabeled tasks belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct GroupId(pub(crate) u32);

impl GroupId {
    /// The implicit group of tasks spawned without a `label(...)` clause.
    pub(crate) const GLOBAL: GroupId = GroupId(0);

    /// Raw index of this group.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// Panics unless `ratio` is a valid accurate-task ratio, in `[0, 1]`.
fn assert_ratio(ratio: f64) {
    assert!(
        (0.0..=1.0).contains(&ratio),
        "accurate-task ratio must be in [0, 1], got {ratio}"
    );
}

/// A cheaply clonable handle to a task group, returned by
/// [`Runtime::create_group`](crate::runtime::Runtime::create_group).
///
/// A handle belongs to the runtime that issued it: passing it to another
/// runtime panics, since group ids are only unique within one runtime.
#[derive(Clone)]
pub struct TaskGroup {
    pub(crate) state: Arc<GroupState>,
}

impl TaskGroup {
    /// The group label supplied by the programmer, for display only: two
    /// groups may share one.
    pub fn name(&self) -> &str {
        &self.state.name
    }

    /// The group's state, for the runtime whose id is `runtime`.
    ///
    /// # Panics
    ///
    /// Panics, naming the group, if another runtime issued this handle.
    pub(crate) fn state_in(&self, runtime: u64) -> &Arc<GroupState> {
        assert!(
            self.state.runtime == runtime,
            "task group `{}` belongs to another runtime",
            self.state.name
        );
        &self.state
    }
}

impl std::fmt::Debug for TaskGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskGroup")
            .field("id", &self.state.id)
            .field("name", &self.state.name)
            .finish()
    }
}

/// Internal per-group state shared by the master and the workers.
///
/// Laid out by the one-writer-per-line rule ([`CachePadded`]): the two
/// fields the spawner writes per spawn, `outstanding` and the GTB `buffer`,
/// sit on lines of their own, away from what a worker reads per task (the
/// ratio, the budget scale, the statistics shards, the ids).
/// Their padding also makes the state 64-byte aligned, so in an
/// `Arc<GroupState>` the reference counts, which a spawn bumps for every
/// fresh record, are on a line of their own too.
pub(crate) struct GroupState {
    /// Id of the runtime this group belongs to (see [`TaskGroup::state_in`]).
    pub(crate) runtime: u64,
    pub(crate) id: GroupId,
    pub(crate) name: Arc<str>,
    /// Target ratio of accurately executed tasks, `R_g ∈ [0, 1]`, stored as
    /// `f64` bits so the execution hot path reads it without a lock.
    ratio_bits: AtomicU64,
    /// Multiplicative throttle in `[0, 1]` applied by the energy-budget
    /// controller on top of the programmer's ratio (1.0 = no budget
    /// engaged). Stored separately so releasing the budget restores the
    /// programmer's exact ratio bits.
    budget_scale_bits: AtomicU64,
    /// Tasks spawned into this group and not yet completed, give or take
    /// the completions workers have not yet published (see the runtime's
    /// `Retired`): never below the true count.
    pub(crate) outstanding: CachePadded<AtomicUsize>,
    /// Barrier waiters for `taskwait label(...)`; notified only when
    /// `outstanding` drops to zero, so per-publish cost is one atomic load
    /// when nobody waits.
    pub(crate) barrier: EventCount,
    /// GTB: tasks buffered by the master, awaiting a flush. Master-side only;
    /// keeps its capacity across flushes (see [`return_window`]).
    buffer: CachePadded<Mutex<Vec<Arc<Task>>>>,
    /// Execution statistics (Table 2 inputs), sharded per worker.
    pub(crate) stats: GroupStats,
}

impl GroupState {
    pub(crate) fn new(
        runtime: u64,
        id: GroupId,
        name: Arc<str>,
        ratio: f64,
        stat_shards: usize,
    ) -> Self {
        assert_ratio(ratio);
        GroupState {
            runtime,
            id,
            name,
            ratio_bits: AtomicU64::new(ratio.to_bits()),
            budget_scale_bits: AtomicU64::new(1.0f64.to_bits()),
            outstanding: CachePadded::new(AtomicUsize::new(0)),
            barrier: EventCount::default(),
            buffer: CachePadded::new(Mutex::new(Vec::new())),
            stats: GroupStats::new(stat_shards),
        }
    }

    /// Current target accurate-task ratio.
    pub(crate) fn ratio(&self) -> f64 {
        f64::from_bits(self.ratio_bits.load(Ordering::Acquire))
    }

    /// Update the target ratio (the `ratio(...)` clause of `taskwait`).
    pub(crate) fn set_ratio(&self, ratio: f64) {
        assert_ratio(ratio);
        self.ratio_bits.store(ratio.to_bits(), Ordering::Release);
    }

    /// Current budget throttle (1.0 when no budget is engaged).
    pub(crate) fn budget_scale(&self) -> f64 {
        f64::from_bits(self.budget_scale_bits.load(Ordering::Acquire))
    }

    /// Re-target the budget throttle (clamped to `[0, 1]`). Called by the
    /// energy-budget controller, never by application code.
    pub(crate) fn set_budget_scale(&self, scale: f64) {
        let scale = scale.clamp(0.0, 1.0);
        self.budget_scale_bits
            .store(scale.to_bits(), Ordering::Release);
    }

    /// The ratio classification actually uses: the programmer's ratio scaled
    /// by the budget throttle. Groups pinned at ratio 1.0 are **exempt** —
    /// the budget never degrades work the programmer declared critical — and
    /// with no budget engaged this returns the exact bits of [`Self::ratio`]
    /// (the unbudgeted trace reproduces bit-for-bit).
    pub(crate) fn effective_ratio(&self) -> f64 {
        let base = self.ratio();
        if base >= 1.0 {
            return base;
        }
        let scale = self.budget_scale();
        if scale >= 1.0 {
            base
        } else {
            base * scale
        }
    }

    /// Append one record to the GTB buffer. When that fills it to
    /// `capacity`, the window is taken out and returned for the caller to
    /// flush.
    pub(crate) fn buffer_one(&self, task: Arc<Task>, capacity: usize) -> Option<Vec<Arc<Task>>> {
        let mut buffer = self.buffer.lock().unwrap();
        buffer.push(task);
        (buffer.len() >= capacity).then(|| take_window(&mut buffer))
    }

    /// Append a whole batch to the GTB buffer with **one** lock
    /// acquisition. When the append reaches `capacity`, the buffered tasks
    /// are taken out and returned for the caller to flush — a batched spawn
    /// therefore classifies in windows at least as informed as the
    /// per-task path's.
    pub(crate) fn append_buffered(
        &self,
        tasks: Vec<Arc<Task>>,
        capacity: usize,
    ) -> Option<Vec<Arc<Task>>> {
        let mut buffer = self.buffer.lock().unwrap();
        if buffer.is_empty() && tasks.len() >= capacity {
            return Some(tasks);
        }
        buffer.extend(tasks);
        (buffer.len() >= capacity).then(|| take_window(&mut buffer))
    }

    /// Take everything buffered (a barrier's flush); `None` if empty.
    pub(crate) fn take_buffered(&self) -> Option<Vec<Arc<Task>>> {
        let mut buffer = self.buffer.lock().unwrap();
        (!buffer.is_empty()).then(|| take_window(&mut buffer))
    }
}

/// Capacity a thread keeps in its spare window after a flush: a bounded
/// GTB buffer's worth (4 096 records, 32 KB, covers any sensible `B`), not
/// the whole group a Max-Buffer barrier flushed.
const KEPT_WINDOW_CAPACITY: usize = 4096;

thread_local! {
    /// An empty window vector, swapped into a group buffer whenever this
    /// thread takes the buffer's records out for a flush, and refilled with
    /// the drained window when the flush is done (see [`return_window`]).
    /// With it a buffer keeps its capacity across flushes and a steady GTB
    /// stream allocates no buffer at all: one spawner's two vectors trade
    /// places at every flush.
    static SPARE_WINDOW: RefCell<Vec<Arc<Task>>> = const { RefCell::new(Vec::new()) };
}

/// The buffered window, leaving the calling thread's spare in its place.
fn take_window(buffer: &mut Vec<Arc<Task>>) -> Vec<Arc<Task>> {
    let spare = SPARE_WINDOW
        .try_with(|spare| std::mem::take(&mut *spare.borrow_mut()))
        .unwrap_or_default();
    std::mem::replace(buffer, spare)
}

/// Keep a flushed, drained window as the calling thread's spare.
pub(crate) fn return_window(mut window: Vec<Arc<Task>>) {
    debug_assert!(window.is_empty(), "a window is returned drained");
    window.shrink_to(KEPT_WINDOW_CAPACITY);
    let _ = SPARE_WINDOW.try_with(|spare| *spare.borrow_mut() = window);
}

/// The runtime's groups in creation order. Append-only, so a group's
/// [`GroupId`] is its index. No spawn reads it: a spawn binds its record
/// from a [`TaskGroup`]'s state or the runtime's cached global group. Only
/// whole-runtime walks do (barriers, budget setpoints, `Drop`, statistics).
pub(crate) struct GroupRegistry {
    groups: RwLock<Vec<Arc<GroupState>>>,
    /// Id of the runtime the groups belong to.
    runtime: u64,
    /// Shard count handed to each new group's statistics (workers + 1).
    stat_shards: usize,
}

impl GroupRegistry {
    /// Create runtime `runtime`'s registry and the one group it starts
    /// with, the global group, returned beside it (full accuracy:
    /// unannotated programs behave exactly like the original code).
    pub(crate) fn new(runtime: u64, stat_shards: usize) -> (Self, Arc<GroupState>) {
        let global = Arc::new(GroupState::new(
            runtime,
            GroupId::GLOBAL,
            Arc::from("<global>"),
            1.0,
            stat_shards,
        ));
        let registry = GroupRegistry {
            groups: RwLock::new(vec![global.clone()]),
            runtime,
            stat_shards,
        };
        (registry, global)
    }

    /// Append a new group labelled `name` with accurate-task ratio `ratio`.
    /// The label is for display only: a second call with the same label
    /// creates a second group.
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is outside `[0, 1]`, before the lock is taken: a
    /// panic under it would poison the registry, which the runtime's `Drop`
    /// still walks to flush GTB buffers while unwinding.
    pub(crate) fn create(&self, name: &str, ratio: f64) -> Arc<GroupState> {
        assert_ratio(ratio);
        let mut groups = self.groups.write().unwrap();
        let id = GroupId(groups.len() as u32);
        let state = Arc::new(GroupState::new(
            self.runtime,
            id,
            Arc::from(name),
            ratio,
            self.stat_shards,
        ));
        groups.push(state.clone());
        state
    }

    /// Snapshot of all groups (used by whole-runtime barriers and flushes).
    pub(crate) fn all(&self) -> Vec<Arc<GroupState>> {
        self.groups.read().unwrap().clone()
    }

    /// The registry's lock, held until the guard drops: a test that a path
    /// does not take it.
    #[cfg(test)]
    pub(crate) fn lock_for_test(&self) -> impl Sized + '_ {
        self.groups.write().unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> GroupRegistry {
        GroupRegistry::new(1, 2).0
    }

    #[test]
    fn registry_starts_with_global_group() {
        let (reg, global) = GroupRegistry::new(1, 2);
        let all = reg.all();
        assert_eq!(all.len(), 1);
        assert!(Arc::ptr_eq(&all[0], &global));
        assert_eq!(global.id, GroupId::GLOBAL);
        assert_eq!(global.ratio(), 1.0);
    }

    /// LQH indexes its per-group histories by id, so ids stay dense: every
    /// `create` appends, a repeated label included.
    #[test]
    fn create_appends_under_the_next_id() {
        let reg = registry();
        let a = reg.create("g", 0.5);
        let b = reg.create("g", 0.8);
        assert_eq!((a.id, b.id), (GroupId(1), GroupId(2)));
        assert_eq!((a.ratio(), b.ratio()), (0.5, 0.8));
        assert_eq!(reg.all().len(), 3);
    }

    #[test]
    #[should_panic(expected = "ratio must be in")]
    fn invalid_ratio_panics() {
        let reg = registry();
        reg.create("bad", 1.5);
    }

    #[test]
    fn set_ratio_roundtrip() {
        let reg = registry();
        let g = reg.create("g", 1.0);
        g.set_ratio(0.25);
        assert_eq!(g.ratio(), 0.25);
    }

    #[test]
    fn global_id_index() {
        assert_eq!(GroupId::GLOBAL.index(), 0);
    }

    /// The one-writer-per-line rule for a group: what the spawner writes per
    /// spawn (the count of outstanding tasks, the GTB buffer's lock and
    /// vector) shares no line with what a worker reads per task, and the
    /// state is line-aligned, so an `Arc`'s reference counts in front of it
    /// share none either.
    #[test]
    fn spawner_fields_share_no_line_with_worker_fields() {
        use crate::sync::{assert_apart, field_span};
        assert!(std::mem::align_of::<GroupState>() >= 64);
        assert_apart::<GroupState>(
            &[
                field_span!(GroupState, outstanding),
                field_span!(GroupState, buffer),
            ],
            &[
                field_span!(GroupState, ratio_bits),
                field_span!(GroupState, budget_scale_bits),
                field_span!(GroupState, stats),
                field_span!(GroupState, id),
                field_span!(GroupState, runtime),
            ],
        );
    }
}
