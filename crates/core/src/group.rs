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
//!
//! # The GTB buffer
//!
//! A group's buffer holds its spawned, undecided tasks in spawn order, as
//! `Buffered` entries of two kinds. A task that took a record at spawn —
//! for keys, a deadline, a cancel token or a spawn handle, which only a
//! record carries — waits as that record. Every other task waits as a
//! `PlainTask`: its id, significance and two bodies, 56 bytes against a
//! record's 128-byte allocation. The flush's quota counts and admits both
//! kinds alike, in spawn order, and a worker that pulls a share of a
//! flushed chunk decides it and runs its plain entries itself, with no
//! record at all (`runtime/staging.rs`).
//!
//! The entries live in a `Window` of `WINDOW_CHUNK`-entry chunks, each
//! with a `GtbTally` of its entries' significances, counted as they
//! arrive. The buffer takes a chunk, from the runtime's pool of drained
//! ones, when the last one is full and never moves an entry, so GTB
//! Max-Buffer's window, which is a whole group, costs its entries and
//! nothing more. The tallies give the flush the window's quota without
//! reading an entry, and the quota each chunk starts from, so each chunk
//! can be decided on its own by the worker that pulls it. A flush leaves
//! the buffer empty, holding no chunk; the flushing thread keeps the
//! emptied chunk list for the next buffer it fills.
//!
//! The same 56-byte entries carry every plain spawn from a thread that is
//! not a worker under the other policies, through the runtime's staging
//! chunks (`runtime/staging.rs`).

use std::cell::RefCell;

use crate::policy::GtbTally;
use crate::significance::Significance;
use crate::stats::GroupStats;
use crate::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use crate::sync::{Arc, CachePadded, EventCount, Mutex, RwLock};
use crate::task::{Task, TaskBody, TaskId};

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
    /// empty, and holding no chunk, once a flush took its entries (see
    /// [`return_window`]).
    buffer: CachePadded<Mutex<Window>>,
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
            buffer: CachePadded::new(Mutex::new(Window::new())),
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

    /// Append one spawn's entry, or a whole batch's with **one** lock
    /// acquisition, to the GTB buffer, taking each new chunk from `fresh`.
    /// When the append reaches `capacity`, the window is taken out and
    /// returned for the caller to flush — a batched spawn therefore
    /// classifies in windows at least as informed as the per-task path's.
    pub(crate) fn append_buffered(
        &self,
        entries: impl IntoIterator<Item = Buffered>,
        capacity: usize,
        mut fresh: impl FnMut() -> Vec<Buffered>,
    ) -> Option<Window> {
        let mut buffer = self.buffer.lock().unwrap();
        for entry in entries {
            buffer.push(entry, &mut fresh);
        }
        (buffer.len() >= capacity).then(|| take_window(&mut buffer))
    }

    /// Take everything buffered (a barrier's flush); `None` if empty.
    pub(crate) fn take_buffered(&self) -> Option<Window> {
        let mut buffer = self.buffer.lock().unwrap();
        (!buffer.is_empty()).then(|| take_window(&mut buffer))
    }
}

/// Entries per chunk of a GTB window or of the runtime's staging, 56 KB:
/// the unit the pool keeps and a window grows by. Workers pull a chunk in
/// shares (`runtime/staging.rs`).
pub(crate) const WINDOW_CHUNK: usize = 1024;

/// A task waiting in a GTB buffer for the flush that decides it, or in a
/// staging chunk for a worker (always `Plain` there).
pub(crate) enum Buffered {
    /// A task that took its record at spawn, for a clause only a record
    /// carries: `in`/`out` keys, a deadline, a cancel token or a spawn
    /// handle. The spawn filled it; the flush decides and queues it.
    Record(Arc<Task>),
    /// Any other task, kept as what the flush needs to decide it and a
    /// worker needs to run it: 56 bytes instead of a 128-byte record.
    Plain(PlainTask),
}

impl Buffered {
    /// The significance the flush's quota counts and admits.
    pub(crate) fn significance(&self) -> Significance {
        match self {
            Buffered::Record(task) => task.significance,
            Buffered::Plain(plain) => plain.significance,
        }
    }
}

/// A plain task as it waits and runs, with no record: its id,
/// significance and bodies, and under GTB the flush's decision, written
/// when the worker that pulls the entry from its chunk decides it.
pub(crate) struct PlainTask {
    pub(crate) id: TaskId,
    pub(crate) significance: Significance,
    pub(crate) accurate: TaskBody,
    pub(crate) approximate: Option<TaskBody>,
    /// The flush's decision, `Some(true)` for accurate; `None` until a
    /// GTB window's entry is pulled, and for every other entry.
    pub(crate) decision: Option<bool>,
}

impl PlainTask {
    /// An undecided entry.
    pub(crate) fn new(
        id: TaskId,
        significance: Significance,
        accurate: TaskBody,
        approximate: Option<TaskBody>,
    ) -> Self {
        PlainTask {
            id,
            significance,
            accurate,
            approximate,
            decision: None,
        }
    }
}

/// A GTB buffer's tasks in spawn order, in chunks of [`WINDOW_CHUNK`]
/// entries. A growing window allocates one chunk at a time and never moves
/// what it holds: a vector that doubled would copy the whole window on
/// every doubling, and GTB Max-Buffer's window is a whole group.
pub(crate) struct Window {
    /// Every chunk full but the last, until a flush drains them.
    chunks: Vec<Chunk>,
    len: usize,
}

/// Up to [`WINDOW_CHUNK`] consecutive entries of a window, and their
/// significances counted for the flush's quota.
pub(crate) struct Chunk {
    pub(crate) entries: Vec<Buffered>,
    pub(crate) tally: GtbTally,
}

impl Window {
    const fn new() -> Self {
        Window {
            chunks: Vec::new(),
            len: 0,
        }
    }

    /// Entries held.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append `entry`, taking a new chunk from `fresh` (an empty vector
    /// with room for the chunk) when the last one is full.
    fn push(&mut self, entry: Buffered, fresh: impl FnOnce() -> Vec<Buffered>) {
        if self.chunks.capacity() == 0 {
            // An empty buffer starts from the calling thread's spare list.
            *self = SPARE_WINDOW
                .try_with(|spare| std::mem::replace(&mut *spare.borrow_mut(), Window::new()))
                .unwrap_or(Window::new());
        }
        let chunk = match self.chunks.last_mut() {
            Some(chunk) if chunk.entries.len() < WINDOW_CHUNK => chunk,
            _ => {
                self.chunks.push(Chunk {
                    entries: fresh(),
                    tally: GtbTally::new(),
                });
                self.chunks.last_mut().expect("just pushed")
            }
        };
        chunk.tally.add(entry.significance());
        chunk.entries.push(entry);
        self.len += 1;
    }

    /// The whole window's significances, counted.
    pub(crate) fn tally(&self) -> GtbTally {
        let mut tally = GtbTally::new();
        for chunk in &self.chunks {
            tally.merge(&chunk.tally);
        }
        tally
    }

    /// The chunks, oldest first, taken out for a flush to hand to the
    /// workers; the window keeps its emptied list.
    pub(crate) fn drain_chunks(&mut self) -> std::vec::Drain<'_, Chunk> {
        self.len = 0;
        self.chunks.drain(..)
    }
}

/// Chunk-list capacity a flushed window keeps as its thread's spare: a
/// bounded GTB buffer's list, not a whole Max-Buffer group's.
const SPARE_CHUNKS: usize = 4;

thread_local! {
    /// A flushed window's emptied chunk list, kept by the thread that
    /// flushed it (see [`return_window`]) for the next empty buffer it
    /// pushes into: with it and the runtime's chunk pool, a steady GTB
    /// stream allocates no buffer at all. A buffer a flush took the entries
    /// of is left holding no memory, so a group that is done with keeps no
    /// chunk.
    static SPARE_WINDOW: RefCell<Window> = const { RefCell::new(Window::new()) };
}

/// The buffered window, leaving an empty one in its place.
fn take_window(buffer: &mut Window) -> Window {
    std::mem::replace(buffer, Window::new())
}

/// Keep a flushed window's emptied chunk list as the calling thread's
/// spare, unless it has one.
pub(crate) fn return_window(mut window: Window) {
    debug_assert!(window.chunks.is_empty(), "a window is returned drained");
    if window.chunks.capacity() == 0 {
        return;
    }
    window.chunks.shrink_to(SPARE_CHUNKS);
    let _ = SPARE_WINDOW.try_with(|spare| {
        let mut spare = spare.borrow_mut();
        if spare.chunks.capacity() == 0 {
            *spare = window;
        }
    });
}

/// The runtime's groups in creation order. Append-only, so a group's
/// [`GroupId`] is its index. No spawn reads it: a spawn binds its record
/// from a [`TaskGroup`]'s state or the runtime's cached global group. Only
/// whole-runtime walks do (barriers, budget setpoints, `Drop`, statistics).
pub(crate) struct GroupRegistry {
    groups: RwLock<Vec<Arc<GroupState>>>,
    /// Id of the runtime the groups belong to.
    runtime: u64,
    /// Shard count handed to each new group's statistics: the worker
    /// count, as only workers book.
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

    /// A plain task waits for its flush as an entry, not a record: GTB
    /// Max-Buffer holds a whole group of them until its barrier, so the
    /// entry's size is that group's memory per task.
    #[test]
    fn a_buffered_entry_is_at_most_56_bytes() {
        let size = std::mem::size_of::<Buffered>();
        assert!(
            size <= 56,
            "a GTB buffer entry grew to {size} bytes, past 56: GTB Max-Buffer \
             holds one per task of a group until its barrier, and a plain task \
             needs only its id, significance, bodies and decision there"
        );
    }

    fn entry(i: u64, significance: f64) -> Buffered {
        Buffered::Plain(PlainTask::new(
            TaskId(i),
            Significance::new(significance),
            Box::new(|| {}),
            None,
        ))
    }

    /// Entries keep spawn order across chunks of `WINDOW_CHUNK`, each chunk
    /// counts its own, and a flushed window kept as a spare keeps its
    /// emptied chunk list and no chunk.
    #[test]
    fn a_window_grows_a_chunk_at_a_time_in_spawn_order() {
        let mut window = Window::new();
        let n = 2 * WINDOW_CHUNK + 3;
        for i in 0..n {
            window.push(entry(i as u64, (i % 11) as f64 / 10.0), || {
                Vec::with_capacity(WINDOW_CHUNK)
            });
        }
        assert_eq!(window.len(), n);
        let ids: Vec<u64> = window
            .chunks
            .iter()
            .flat_map(|chunk| &chunk.entries)
            .map(|entry| match entry {
                Buffered::Plain(plain) => plain.id.0,
                Buffered::Record(task) => task.id.0,
            })
            .collect();
        assert!(ids.into_iter().eq(0..n as u64));
        let lengths: Vec<usize> = window.chunks.iter().map(|c| c.entries.len()).collect();
        assert_eq!(lengths, [WINDOW_CHUNK, WINDOW_CHUNK, 3]);
        assert!(window
            .chunks
            .iter()
            .all(|c| c.entries.capacity() == WINDOW_CHUNK));
        // The tally decides like the window itself would at any ratio.
        let sigs: Vec<Significance> = (0..n)
            .map(|i| Significance::new((i % 11) as f64 / 10.0))
            .collect();
        let mut quota = window.tally().quota(0.37);
        let decisions: Vec<bool> = sigs.iter().map(|&s| quota.admit(s)).collect();
        assert_eq!(decisions, crate::policy::gtb_classify(&sigs, 0.37));

        assert_eq!(window.drain_chunks().count(), 3);
        assert!(window.is_empty());
        return_window(window);
        let spare =
            SPARE_WINDOW.with(|spare| std::mem::replace(&mut *spare.borrow_mut(), Window::new()));
        assert!(spare.chunks.is_empty(), "a spare holds no chunk");
        assert!(spare.chunks.capacity() > 0, "a spare keeps its list");
        assert!(spare.is_empty());
        let mut quota = spare.tally().quota(1.0);
        assert!(
            !quota.admit(Significance::new(0.5)),
            "a spare counts nothing"
        );
    }

    /// A buffer takes each new chunk from the caller's source, and a flush
    /// leaves its group's buffer holding no chunk.
    #[test]
    fn a_new_chunk_comes_from_the_callers_source_and_a_flush_leaves_none() {
        let reg = registry();
        let a = reg.create("a", 0.5);
        let pooled: Vec<Buffered> = Vec::with_capacity(WINDOW_CHUNK);
        let address: *const Buffered = pooled.as_ptr();
        let mut pool = vec![pooled];
        let mut window = a
            .append_buffered([entry(0, 0.5), entry(1, 0.5)], 2, || {
                pool.pop().unwrap_or_default()
            })
            .expect("a window of two is full at two");
        assert!(a.buffer.lock().unwrap().chunks.is_empty());
        let chunks: Vec<Chunk> = window.drain_chunks().collect();
        assert!(std::ptr::eq(chunks[0].entries.as_ptr(), address));
        assert_eq!(chunks[0].entries.len(), 2);
    }

    /// The one-writer-per-line rule for a group: what the spawner writes per
    /// spawn (the count of outstanding tasks, the GTB buffer's lock and
    /// window) shares no line with what a worker reads per task, and the
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
