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
//! Execution-hot state (the ratio, the outstanding counter, the statistics)
//! is atomic or sharded; locks remain only on master-side cold paths (group
//! creation, the GTB spawn buffer).

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use crate::stats::GroupStats;
use crate::sync::EventCount;
use crate::task::Task;

/// Identifier of a task group.
///
/// Group `0` is the implicit *global* group that unlabeled tasks belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub(crate) u32);

impl GroupId {
    /// The implicit group of tasks spawned without a `label(...)` clause.
    pub const GLOBAL: GroupId = GroupId(0);

    /// Raw index of this group.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A cheaply clonable handle to a task group, returned by
/// [`Runtime::create_group`](crate::runtime::Runtime::create_group).
#[derive(Debug, Clone)]
pub struct TaskGroup {
    pub(crate) id: GroupId,
    pub(crate) name: Arc<str>,
}

impl TaskGroup {
    /// The group identifier.
    pub fn id(&self) -> GroupId {
        self.id
    }

    /// The group label supplied by the programmer.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// Internal per-group state shared by the master and the workers.
pub(crate) struct GroupState {
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
    pub(crate) outstanding: AtomicUsize,
    /// Barrier waiters for `taskwait label(...)`; notified only when
    /// `outstanding` drops to zero, so per-publish cost is one atomic load
    /// when nobody waits.
    pub(crate) barrier: EventCount,
    /// GTB: tasks buffered by the master, awaiting a flush. Master-side only;
    /// keeps its capacity across flushes (see [`return_window`]).
    buffer: Mutex<Vec<Arc<Task>>>,
    /// Execution statistics (Table 2 inputs), sharded per worker.
    pub(crate) stats: GroupStats,
    /// Cooperative group-wide cancellation: once set, every not-yet-executed
    /// task of the group is skipped at dequeue time.
    cancelled: AtomicBool,
}

impl GroupState {
    pub(crate) fn new(id: GroupId, name: Arc<str>, ratio: f64, stat_shards: usize) -> Self {
        assert!(
            (0.0..=1.0).contains(&ratio),
            "accurate-task ratio must be in [0, 1], got {ratio}"
        );
        GroupState {
            id,
            name,
            ratio_bits: AtomicU64::new(ratio.to_bits()),
            budget_scale_bits: AtomicU64::new(1.0f64.to_bits()),
            outstanding: AtomicUsize::new(0),
            barrier: EventCount::default(),
            buffer: Mutex::new(Vec::new()),
            stats: GroupStats::new(stat_shards),
            cancelled: AtomicBool::new(false),
        }
    }

    /// Request cooperative cancellation of every outstanding task.
    pub(crate) fn request_cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// Whether group-wide cancellation has been requested.
    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }

    /// Current target accurate-task ratio.
    pub(crate) fn ratio(&self) -> f64 {
        f64::from_bits(self.ratio_bits.load(Ordering::Acquire))
    }

    /// Update the target ratio (the `ratio(...)` clause of `taskwait`).
    pub(crate) fn set_ratio(&self, ratio: f64) {
        assert!(
            (0.0..=1.0).contains(&ratio),
            "accurate-task ratio must be in [0, 1], got {ratio}"
        );
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

/// Registry mapping group labels to group state.
pub(crate) struct GroupRegistry {
    groups: RwLock<Vec<Arc<GroupState>>>,
    by_name: Mutex<HashMap<Arc<str>, GroupId>>,
    /// Shard count handed to each new group's statistics (workers + 1).
    stat_shards: usize,
}

impl GroupRegistry {
    /// Create a registry containing only the global group (full accuracy by
    /// default: unannotated programs behave exactly like the original code).
    pub(crate) fn new(stat_shards: usize) -> Self {
        let registry = GroupRegistry {
            groups: RwLock::new(Vec::new()),
            by_name: Mutex::new(HashMap::new()),
            stat_shards,
        };
        let name: Arc<str> = Arc::from("<global>");
        registry
            .groups
            .write()
            .unwrap()
            .push(Arc::new(GroupState::new(
                GroupId::GLOBAL,
                name.clone(),
                1.0,
                stat_shards,
            )));
        registry
            .by_name
            .lock()
            .unwrap()
            .insert(name, GroupId::GLOBAL);
        registry
    }

    /// Get or create the group with the given label. The ratio is applied to
    /// newly created groups; for existing groups it is left untouched unless
    /// `ratio` is `Some`.
    pub(crate) fn get_or_create(&self, name: &str, ratio: Option<f64>) -> Arc<GroupState> {
        if let Some(r) = ratio {
            // Validated before any lock is taken: an invalid ratio must
            // panic without poisoning the registry (the runtime's Drop
            // still walks it to flush GTB buffers during unwinding).
            assert!(
                (0.0..=1.0).contains(&r),
                "accurate-task ratio must be in [0, 1], got {r}"
            );
        }
        if let Some(&id) = self.by_name.lock().unwrap().get(name) {
            let group = self.get(id);
            if let Some(r) = ratio {
                group.set_ratio(r);
            }
            return group;
        }
        let mut groups = self.groups.write().unwrap();
        // Re-check under the write lock to avoid duplicate creation races.
        if let Some(&id) = self.by_name.lock().unwrap().get(name) {
            return groups[id.index()].clone();
        }
        let id = GroupId(groups.len() as u32);
        let name: Arc<str> = Arc::from(name);
        let state = Arc::new(GroupState::new(
            id,
            name.clone(),
            ratio.unwrap_or(1.0),
            self.stat_shards,
        ));
        groups.push(state.clone());
        self.by_name.lock().unwrap().insert(name, id);
        state
    }

    /// Look up a group by id.
    ///
    /// # Panics
    ///
    /// Panics if the id was not issued by this registry.
    pub(crate) fn get(&self, id: GroupId) -> Arc<GroupState> {
        self.groups.read().unwrap()[id.index()].clone()
    }

    /// Look up a group by label.
    pub(crate) fn find(&self, name: &str) -> Option<Arc<GroupState>> {
        let id = *self.by_name.lock().unwrap().get(name)?;
        Some(self.get(id))
    }

    /// Snapshot of all groups (used by whole-runtime barriers and flushes).
    pub(crate) fn all(&self) -> Vec<Arc<GroupState>> {
        self.groups.read().unwrap().clone()
    }

    /// Number of groups, including the global one.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn len(&self) -> usize {
        self.groups.read().unwrap().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> GroupRegistry {
        GroupRegistry::new(2)
    }

    #[test]
    fn registry_starts_with_global_group() {
        let reg = registry();
        assert_eq!(reg.len(), 1);
        let global = reg.get(GroupId::GLOBAL);
        assert_eq!(global.id, GroupId::GLOBAL);
        assert_eq!(global.ratio(), 1.0);
    }

    #[test]
    fn get_or_create_is_idempotent() {
        let reg = registry();
        let a = reg.get_or_create("sobel", Some(0.35));
        let b = reg.get_or_create("sobel", None);
        assert_eq!(a.id, b.id);
        assert_eq!(reg.len(), 2);
        assert_eq!(b.ratio(), 0.35);
    }

    #[test]
    fn get_or_create_updates_ratio_when_given() {
        let reg = registry();
        let a = reg.get_or_create("g", Some(0.5));
        assert_eq!(a.ratio(), 0.5);
        reg.get_or_create("g", Some(0.8));
        assert_eq!(a.ratio(), 0.8);
    }

    #[test]
    fn distinct_names_get_distinct_ids() {
        let reg = registry();
        let a = reg.get_or_create("a", None);
        let b = reg.get_or_create("b", None);
        assert_ne!(a.id, b.id);
        assert_eq!(reg.len(), 3);
    }

    #[test]
    fn find_by_name() {
        let reg = registry();
        reg.get_or_create("dct", Some(0.4));
        assert!(reg.find("dct").is_some());
        assert!(reg.find("missing").is_none());
    }

    #[test]
    fn new_group_defaults_to_fully_accurate() {
        let reg = registry();
        let g = reg.get_or_create("plain", None);
        assert_eq!(g.ratio(), 1.0);
    }

    #[test]
    #[should_panic(expected = "ratio must be in")]
    fn invalid_ratio_panics() {
        let reg = registry();
        reg.get_or_create("bad", Some(1.5));
    }

    #[test]
    fn set_ratio_roundtrip() {
        let reg = registry();
        let g = reg.get_or_create("g", None);
        g.set_ratio(0.25);
        assert_eq!(g.ratio(), 0.25);
    }

    #[test]
    fn global_id_index() {
        assert_eq!(GroupId::GLOBAL.index(), 0);
    }
}
