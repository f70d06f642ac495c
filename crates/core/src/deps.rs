//! Dependence tracking over declared task footprints.
//!
//! The programming model's `in(...)` / `out(...)` clauses declare the data a
//! task reads and writes; the runtime derives inter-task dependences from
//! them (Section 2: "This information is exploited by the runtime to
//! automatically determine the dependencies among tasks"). The paper reuses
//! the BDDT dependence machinery and notes that dependence tracking "is not
//! affected by our approximate computing programming model"; the
//! implementation here is the standard last-writer/reader-set scheme:
//!
//! * a task that **reads** a key depends on the key's last writer (RAW),
//! * a task that **writes** a key depends on the last writer (WAW) and on
//!   every reader since that writer (WAR), and becomes the new last writer.
//!
//! Keys are opaque [`DepKey`] values; convenience constructors derive them
//! from names or from the address of the data they stand for.
//!
//! # A read-mostly last-writer table
//!
//! The tracker is split into `SHARDS` shards selected by a multiplicative
//! hash of the key. Each shard publishes its state twice over:
//!
//! * a **snapshot map** (`DepKey → Arc<KeyCell>`) behind an atomic pointer,
//!   republished copy-on-write when a key is first seen, and
//! * per key, a generation-stamped **`ReadEpoch`** behind another atomic
//!   pointer: the last writer at the moment the epoch opened plus a
//!   lock-free list of the readers registered since.
//!
//! The common, read-dominated operations never take a lock:
//!
//! * a **single-key read-only registration** pins the shard (one counter
//!   increment), resolves its RAW predecessor from the published epoch and
//!   pushes itself onto the epoch's reader list with one CAS;
//! * **write completion** costs the tracker nothing: a finished writer is
//!   recognised by its sealed successor list, which is also all the
//!   `taskwait on(...)` predicate (`has_unfinished_writer`) looks at.
//!
//! Only **writer registration** — and any registration touching more than
//! one key — takes the shard locks, in ascending shard order over the whole
//! footprint. The ordering matters: taking shards one key at a time would
//! let two concurrent multi-key registrants order differently per key and
//! wire a dependence *cycle* (task A waits on B via one key, B on A via
//! another), deadlocking both. That same hazard is exactly why the lock-free
//! fast path is restricted to single-key footprints: a one-key registration
//! linearises at its reader-list CAS and cannot participate in a cycle.
//!
//! A writer advances a key by swapping in a fresh epoch and *sealing* the
//! old epoch's reader list (collecting its WAR predecessors); a lock-free
//! reader that loses the race — its push hits the sealed list — simply
//! reloads the epoch pointer and registers against the new generation,
//! picking up the new writer as its RAW predecessor. Replaced epochs and
//! snapshots are retired into a per-shard limbo list and freed once the
//! shard's read-side **pin count** is observed at zero (publication happens
//! before the check, so late readers can only ever see live pointers).
//!
//! # Finished tasks cost a load
//!
//! A task that has released its successors (its successor list is sealed)
//! can no longer be waited for, so registration does not treat it as a
//! predecessor at all: every candidate — the epoch's writer, each reader a
//! writer seals — is checked with one load *before* it is cloned,
//! listed or wired (`is_new_pred`). With the workers keeping up that is
//! nearly every candidate, and the alternative is a reference-count
//! increment on a line the candidate's worker wrote last, a list node
//! allocated, a push that fails, and both undone again.
//!
//! # What the tracker retains, and when it lets go
//!
//! The tracker holds `Arc<Task>` references, and a task record is recycled
//! only by whoever lets go of its last one (the runtime's module docs,
//! "Where a task record comes from and goes back to", and
//! `runtime/recycle.rs`). What it holds at any time:
//!
//! * per key, the **live epoch**: its writer (until the key's next epoch is
//!   reclaimed) and the readers registered since it opened. A reader list is
//!   **bounded**: the reader that brings it to `READER_ROTATION` entries
//!   takes the gate and rotates the key the way a writer would
//!   (`TrackerShard::rotate`), carrying over only the readers — and the
//!   writer — that have not finished. A key written once and read for ever
//!   therefore retains at most twice its unfinished readers plus
//!   `READER_ROTATION` records, not every reader it ever had;
//! * **retired epochs**, each with its writer reference and an empty
//!   (sealed, drained) reader list, until a registration on the shard
//!   observes the pin count at zero — at most `RECLAIM_PRESSURE` of them.
//!
//! Every reference it lets go of — finished readers of an epoch being
//! sealed, the writer of a retired epoch being freed — is handed to the
//! registering caller in `Registration::released` rather than dropped, on
//! the registering thread, after the gates are released. Unfinished readers
//! of a sealed epoch are not let go of but *moved* into the predecessor
//! list. Keys themselves are never forgotten: a `KeyCell` lives as long as
//! the tracker.
//!
//! # Why memory comes back three ways
//!
//! The core reclaims memory by shard **pin counts** here, by **`Arc`
//! uniqueness** for task records, and by the **`HuskPool` hand-back**
//! (`runtime/recycle.rs`); the worker queues add no fourth scheme, since a
//! mailbox links records that already carry a counted reference. They
//! answer different questions and cannot merge. A pin makes a pointer *loaded
//! from an `AtomicPtr`* safe to dereference: a reference count cannot,
//! because the count could drop to zero between the load and the increment,
//! and the read fast path would pay a contended increment per registration.
//! Task records need counts instead of pins: successor lists, epochs,
//! queues and `SpawnHandle`s hold them for as long as a task lives, and a
//! pin held that long would stall every shard's reclamation; recycling also
//! needs to *know* the record is unshared, which `Arc::get_mut` proves and
//! a grace period does not. The hand-back is not a safety argument at all:
//! once a record is provably unshared it decides whether the record is kept
//! for the next spawn or freed, and frees every husk when a barrier finds
//! the runtime idle, so retention stays bounded. Folding it into either of
//! the other two would free records late (at a shard's next registration)
//! or never recycle them.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use crate::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};
use crate::sync::{spin_loop, thread, Arc, CachePadded, Mutex, MutexGuard};
use crate::task::Task;

/// An opaque dependence key identifying a piece of data (an array, a matrix
/// block, a scalar...) named in a task's `in()`/`out()` footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DepKey(u64);

impl DepKey {
    /// Key from an explicit integer identifier.
    pub fn from_raw(id: u64) -> Self {
        DepKey(id)
    }

    /// Key derived from a string name (stable across calls with equal names).
    pub fn named(name: &str) -> Self {
        let mut hasher = DefaultHasher::new();
        // Distinguish named keys from raw/address keys.
        0xA5u8.hash(&mut hasher);
        name.hash(&mut hasher);
        DepKey(hasher.finish())
    }

    /// Key derived from the address of a value — handy for buffers: two tasks
    /// naming the same buffer get the same key.
    pub fn of<T: ?Sized>(value: &T) -> Self {
        DepKey(value as *const T as *const u8 as usize as u64)
    }

    /// Key for the `i`-th element/row/block of the object identified by
    /// `base` (e.g. one output row of an image).
    pub fn element(base: DepKey, index: usize) -> Self {
        let mut hasher = DefaultHasher::new();
        base.0.hash(&mut hasher);
        index.hash(&mut hasher);
        DepKey(hasher.finish())
    }

    /// The raw 64-bit value.
    fn raw(self) -> u64 {
        self.0
    }
}

/// Number of independently published tracker shards (must be a power of two:
/// `shard_of` selects by the top `log2(SHARDS)` bits of the mixed key).
const SHARDS: usize = 16;
const _: () = assert!(SHARDS.is_power_of_two());

/// The shard a key lives in. Fibonacci-multiplicative mix of the raw key:
/// address-derived keys share alignment in their low bits, so the top bits
/// of the product distribute far better than `raw % SHARDS` would.
fn shard_of(key: DepKey) -> usize {
    let shift = u64::BITS - SHARDS.trailing_zeros();
    (key.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize
}

/// Sentinel marking a sealed reader list. Never dereferenced (and never
/// equal to a real allocation: `dangling_mut` is the type's alignment).
fn sealed() -> *mut ReaderNode {
    std::ptr::dangling_mut()
}

struct ReaderNode {
    task: Arc<Task>,
    next: *mut ReaderNode,
}

/// Lock-free list of the readers registered in one epoch (same Treiber +
/// seal discipline as the task successor list): readers push with a CAS,
/// whoever replaces the epoch swaps in a sealed sentinel and drains. A push
/// that observes the sentinel knows the epoch is closed and must retry
/// against the key's new epoch.
struct ReaderList {
    head: AtomicPtr<ReaderNode>,
}

impl ReaderList {
    fn new() -> Self {
        ReaderList {
            head: AtomicPtr::new(std::ptr::null_mut()),
        }
    }

    /// Register `reader`; returns `false` if the epoch was already sealed.
    /// Looks at the seal before it allocates or clones.
    fn try_push(&self, reader: &Arc<Task>) -> bool {
        // Acquire: a reader that finds the seal goes on to load the key's
        // next epoch, which the sealer published before it sealed.
        if self.head.load(Ordering::Acquire) == sealed() {
            return false;
        }
        let node = Box::new(ReaderNode {
            task: reader.clone(),
            next: std::ptr::null_mut(),
        });
        self.push_node(node).is_ok()
    }

    /// Link an already allocated node in; gives it back if the list is
    /// sealed.
    fn push_node(&self, node: Box<ReaderNode>) -> Result<(), Box<ReaderNode>> {
        let node = Box::into_raw(node);
        let mut head = self.head.load(Ordering::Acquire);
        loop {
            if head == sealed() {
                // SAFETY: the node came from `Box::into_raw` above and was
                // never shared.
                return Err(unsafe { Box::from_raw(node) });
            }
            // SAFETY: the node is still exclusively ours until the CAS wins.
            unsafe { (*node).next = head };
            match self
                .head
                .compare_exchange_weak(head, node, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return Ok(()),
                Err(observed) => head = observed,
            }
        }
    }

    /// Seal the list (no further pushes succeed) and hand over the chain of
    /// registered readers, drained in place: no collection is built.
    fn seal(&self) -> SealedReaders {
        let head = self.head.swap(sealed(), Ordering::AcqRel);
        SealedReaders(if head == sealed() {
            std::ptr::null_mut()
        } else {
            head
        })
    }
}

impl Drop for ReaderList {
    fn drop(&mut self) {
        // Frees any nodes never drained (e.g. readers of a final epoch).
        drop(self.seal());
    }
}

/// The readers of a sealed epoch, newest first. Owns the chain: each node is
/// yielded (and thereby freed or relinked) exactly once, and whatever is not
/// iterated is freed on drop.
struct SealedReaders(*mut ReaderNode);

impl Iterator for SealedReaders {
    type Item = Box<ReaderNode>;

    fn next(&mut self) -> Option<Box<ReaderNode>> {
        if self.0.is_null() {
            return None;
        }
        // SAFETY: the sealing swap made the chain unreachable to pushers;
        // every node came from `Box::into_raw` and is taken exactly once.
        let node = unsafe { Box::from_raw(self.0) };
        self.0 = node.next;
        Some(node)
    }
}

impl Drop for SealedReaders {
    fn drop(&mut self) {
        self.for_each(drop);
    }
}

/// One writer generation of a key: the last writer when the epoch opened
/// plus every reader registered since. Immutable except for the lock-free
/// reader list; replaced wholesale (never mutated) by the next writer — or,
/// once it has taken [`READER_ROTATION`] readers, by the reader that filled
/// it (see [`TrackerShard::rotate`]).
struct ReadEpoch {
    /// Shard generation stamp at publication. Strictly increasing along any
    /// one key's epoch chain — diagnostics and test hook for the RCU path.
    generation: u64,
    writer: Option<Arc<Task>>,
    readers: ReaderList,
}

/// Per-key cell. Shared (via `Arc`) between all published snapshot
/// generations of its shard, so snapshot republication never invalidates a
/// reader's cell reference.
struct KeyCell {
    epoch: AtomicPtr<ReadEpoch>,
    /// Sticky poison flag: set when a task writing the key panicked or was
    /// cancelled/shed, so dependents can detect they may have read garbage.
    poisoned: AtomicBool,
    /// Reader registrations the current epoch still takes before the
    /// registrant rotates it. Counted down by every reader push, re-armed by
    /// whoever opens an epoch. Relaxed throughout: it only decides *when*
    /// the maintenance step runs and publishes nothing; being one variable,
    /// exactly one push after each re-arm reads 1.
    reads_until_rotation: AtomicUsize,
}

/// Readers an epoch takes before the registrant that filled it rotates the
/// key — so a key written once and read for ever retains a bounded number of
/// finished readers, not all of them. A constant, not a tuning knob: it only
/// has to be large enough that the one locked registration it costs
/// disappears among the lock-free ones.
pub(crate) const READER_ROTATION: usize = 64;

impl KeyCell {
    fn new(generation: u64) -> KeyCell {
        KeyCell {
            epoch: AtomicPtr::new(Box::into_raw(Box::new(ReadEpoch {
                generation,
                writer: None,
                readers: ReaderList::new(),
            }))),
            poisoned: AtomicBool::new(false),
            reads_until_rotation: AtomicUsize::new(READER_ROTATION),
        }
    }

    /// Count one reader push; `true` for the push that fills the epoch.
    fn reader_fills_epoch(&self) -> bool {
        self.reads_until_rotation.fetch_sub(1, Ordering::Relaxed) == 1
    }
}

impl Drop for KeyCell {
    fn drop(&mut self) {
        // SAFETY: exclusive access in drop; the current epoch pointer came
        // from `Box::into_raw` and replaced epochs live in the shard limbo.
        unsafe { drop(Box::from_raw(*self.epoch.get_mut())) };
    }
}

type Snapshot = HashMap<DepKey, Arc<KeyCell>>;

/// Writer-side state of one shard, guarded by the gate mutex.
struct ShardGate {
    /// Monotonic stamp bumped on every publication (new key, new epoch).
    generation: u64,
    /// Epochs replaced by writers; lock-free readers may still hold them.
    retired_epochs: Vec<*mut ReadEpoch>,
    /// Snapshot maps replaced by key inserts; ditto.
    retired_snapshots: Vec<*mut Snapshot>,
}

/// One tracker shard: a locked writer side (the gate) plus the published
/// read-mostly state (snapshot map, key epochs) and its read-side pin count.
struct TrackerShard {
    gate: Mutex<ShardGate>,
    snapshot: AtomicPtr<Snapshot>,
    /// Lock-free readers currently dereferencing published pointers. The
    /// reclamation protocol (publish, then check pins == 0) makes a zero
    /// observation proof that no reader can still hold a retired pointer.
    pins: AtomicUsize,
    /// Reclamation-pressure valve: while set, new fast-path readers fall
    /// back to the locked path instead of pinning, so the pin count drains
    /// to zero deterministically (see [`TrackerShard::reclaim`]).
    draining: AtomicBool,
}

// SAFETY: the raw pointers in the gate are only touched while holding the
// gate mutex or in `Drop` (exclusive access); `snapshot` and the epoch
// pointers follow the pin-count reclamation protocol documented above.
unsafe impl Send for TrackerShard {}
unsafe impl Sync for TrackerShard {}

impl TrackerShard {
    fn new() -> TrackerShard {
        TrackerShard {
            gate: Mutex::new(ShardGate {
                generation: 0,
                retired_epochs: Vec::new(),
                retired_snapshots: Vec::new(),
            }),
            snapshot: AtomicPtr::new(Box::into_raw(Box::new(Snapshot::new()))),
            pins: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
        }
    }

    /// Enter the read side. Pairs with [`TrackerShard::unpin`]; the SeqCst
    /// increment forms a Dekker pair with the publish-then-check sequence on
    /// the reclamation side.
    fn pin(&self) {
        self.pins.fetch_add(1, Ordering::SeqCst);
    }

    fn unpin(&self) {
        self.pins.fetch_sub(1, Ordering::SeqCst);
    }

    /// Look up (or create and publish) the cell for `key`. Gate must be
    /// held; inserts republish the snapshot copy-on-write.
    fn cell(&self, gate: &mut ShardGate, key: DepKey) -> Arc<KeyCell> {
        // SAFETY: the gate is held, so the snapshot pointer is stable and
        // live (only gate holders replace it, retirees outlive the gate).
        let snapshot = unsafe { &*self.snapshot.load(Ordering::Relaxed) };
        if let Some(cell) = snapshot.get(&key) {
            return cell.clone();
        }
        gate.generation += 1;
        let cell = Arc::new(KeyCell::new(gate.generation));
        let mut next = snapshot.clone();
        next.insert(key, cell.clone());
        let old = self
            .snapshot
            .swap(Box::into_raw(Box::new(next)), Ordering::SeqCst);
        gate.retired_snapshots.push(old);
        cell
    }

    /// Locked read registration (multi-key footprints): join the current
    /// epoch's reader list and collect the RAW predecessor.
    fn register_read_locked(
        &self,
        gate: &mut ShardGate,
        task: &Arc<Task>,
        key: DepKey,
        out: &mut Registration,
    ) {
        let cell = self.cell(gate, key);
        // SAFETY: epochs are only replaced under the gate, which we hold.
        let epoch = unsafe { &*cell.epoch.load(Ordering::Acquire) };
        if let Some(writer) = &epoch.writer {
            push_pred(task, &mut out.preds, writer);
        }
        let pushed = epoch.readers.try_push(task);
        debug_assert!(pushed, "an epoch cannot be sealed while the gate is held");
        if cell.reader_fills_epoch() {
            self.rotate(gate, &cell, &mut out.released);
        }
    }

    /// Locked write registration: open a fresh epoch, seal the old one and
    /// collect its writer (WAW) and readers (WAR) as predecessors. A sealed
    /// reader's reference moves into the predecessor list or, if the reader
    /// already finished, into `out.released`.
    fn register_write_locked(
        &self,
        gate: &mut ShardGate,
        task: &Arc<Task>,
        key: DepKey,
        out: &mut Registration,
    ) {
        let cell = self.cell(gate, key);
        gate.generation += 1;
        let fresh = Box::into_raw(Box::new(ReadEpoch {
            generation: gate.generation,
            writer: Some(task.clone()),
            readers: ReaderList::new(),
        }));
        // SeqCst swap: the publication must precede the pin check in
        // `reclaim` in the SC order (see the module docs).
        let old = cell.epoch.swap(fresh, Ordering::SeqCst);
        cell.reads_until_rotation
            .store(READER_ROTATION, Ordering::Relaxed);
        // SAFETY: retired-but-not-freed allocation (freed only by `reclaim`
        // under this gate once the pin count is observed at zero).
        let old_ref = unsafe { &*old };
        debug_assert!(old_ref.generation < gate.generation);
        if let Some(writer) = &old_ref.writer {
            push_pred(task, &mut out.preds, writer);
        }
        for node in old_ref.readers.seal() {
            let reader = node.task;
            if is_new_pred(task, &out.preds, &reader) {
                out.preds.push(reader);
            } else {
                out.released.push(reader);
            }
        }
        gate.retired_epochs.push(old);
    }

    /// Reader-side rotation of a key whose epoch has taken its share of
    /// readers: exactly what a writer does to it, minus the writer. Publish
    /// a fresh epoch (a concurrent fast-path push that then hits the seal
    /// reloads and lands in it), seal the old one, and carry over what the
    /// key's next writer still has to wait for — the readers that have not
    /// finished, and the old writer if *it* has not. References to finished
    /// readers go to `released`; the old epoch, with its writer reference,
    /// is retired like any other. Gate must be held.
    ///
    /// Re-armed for at least as many readers as were carried over, so the
    /// walk is amortised O(1) per registration however long a backlog of
    /// unfinished readers grows, and a list never holds more than twice the
    /// key's unfinished readers plus [`READER_ROTATION`].
    fn rotate(&self, gate: &mut ShardGate, cell: &KeyCell, released: &mut Vec<Arc<Task>>) {
        // SAFETY: epochs are only replaced under the gate, which we hold.
        let old = unsafe { &*cell.epoch.load(Ordering::Acquire) };
        gate.generation += 1;
        let fresh = Box::into_raw(Box::new(ReadEpoch {
            generation: gate.generation,
            writer: old
                .writer
                .as_ref()
                .filter(|writer| !writer.successors.is_sealed())
                .cloned(),
            readers: ReaderList::new(),
        }));
        // SeqCst swap: as in `register_write_locked`.
        let old = cell.epoch.swap(fresh, Ordering::SeqCst);
        // SAFETY: `fresh` is the live epoch and `old` is retired below; both
        // stay allocated while the gate is held (see `reclaim`).
        let (fresh, old_ref) = unsafe { (&*fresh, &*old) };
        let mut carried = 0;
        for node in old_ref.readers.seal() {
            if node.task.successors.is_sealed() {
                released.push(node.task);
            } else {
                let linked = fresh.readers.push_node(node);
                debug_assert!(linked.is_ok(), "only a gate holder seals an epoch");
                carried += 1;
            }
        }
        cell.reads_until_rotation
            .store(READER_ROTATION.max(carried), Ordering::Relaxed);
        gate.retired_epochs.push(old);
    }

    /// Retired pointers above which `reclaim` stops deferring and forces a
    /// drain of the read side instead.
    const RECLAIM_PRESSURE: usize = 64;

    /// Free retired epochs/snapshots if no reader is pinned, handing the
    /// record reference each freed epoch held to `released`. Must run after
    /// every new pointer of the current registration is published.
    ///
    /// A non-zero pin count normally defers reclamation to a later
    /// registration. Under pressure (a long limbo list) the `draining`
    /// valve is raised so **new** fast-path readers fall back to the locked
    /// path (they block on the gate we hold) instead of pinning, and we
    /// wait for the already-pinned readers to finish. That wait terminates
    /// deterministically: a pinned reader never takes the gate and never
    /// blocks — its only loop retries a reader-list push after a seal, and
    /// seals on this shard require the gate we are holding — so every
    /// in-flight reader completes in a bounded number of steps and the
    /// limbo cannot grow without bound however saturated the read side is.
    fn reclaim(&self, gate: &mut ShardGate, released: &mut Vec<Arc<Task>>) {
        let retired = gate.retired_epochs.len() + gate.retired_snapshots.len();
        if retired == 0 {
            return;
        }
        if self.pins.load(Ordering::SeqCst) != 0 {
            if retired < Self::RECLAIM_PRESSURE {
                return; // a reader may still hold a retired pointer: defer
            }
            self.draining.store(true, Ordering::SeqCst);
            // Bounded by the readers already past the valve (at most one
            // per thread), each finishing in a few instructions.
            let mut rounds = 0u32;
            while self.pins.load(Ordering::SeqCst) != 0 {
                rounds += 1;
                if rounds.is_multiple_of(64) {
                    thread::yield_now(); // 1-core: let the reader run
                } else {
                    spin_loop();
                }
            }
            self.draining.store(false, Ordering::SeqCst);
        }
        for epoch in gate.retired_epochs.drain(..) {
            // SAFETY: unpublished before the pin check read zero; no reader
            // can reach these anymore, and the gate serialises freeing.
            let epoch = unsafe { Box::from_raw(epoch) };
            // Its reader list was drained when it was sealed; the writer is
            // the one record reference a retired epoch still holds.
            released.extend(epoch.writer);
        }
        for snapshot in gate.retired_snapshots.drain(..) {
            // SAFETY: as above.
            unsafe { drop(Box::from_raw(snapshot)) };
        }
    }
}

impl Drop for TrackerShard {
    fn drop(&mut self) {
        let gate = self.gate.get_mut().unwrap();
        for epoch in gate.retired_epochs.drain(..) {
            // SAFETY: exclusive access in drop; freed exactly once.
            unsafe { drop(Box::from_raw(epoch)) };
        }
        for snapshot in gate.retired_snapshots.drain(..) {
            // SAFETY: as above.
            unsafe { drop(Box::from_raw(snapshot)) };
        }
        // SAFETY: the live snapshot; dropping it releases the key cells,
        // whose `Drop` frees their current epochs.
        unsafe { drop(Box::from_raw(*self.snapshot.get_mut())) };
    }
}

/// Whether `task` has to wait for `candidate` and is not waiting for it yet.
/// The pointer comparisons touch nothing but the arguments; only then is the
/// candidate's own record read — one load, instead of a reference-count
/// increment on a line its worker wrote last (ordering: see
/// [`crate::task::SuccessorList::is_sealed`]).
fn is_new_pred(task: &Arc<Task>, preds: &[Arc<Task>], candidate: &Arc<Task>) -> bool {
    !Arc::ptr_eq(candidate, task)
        && !preds.iter().any(|pred| Arc::ptr_eq(pred, candidate))
        && !candidate.successors.is_sealed()
}

/// List `candidate` among `task`'s predecessors if [`is_new_pred`].
fn push_pred(task: &Arc<Task>, preds: &mut Vec<Arc<Task>>, candidate: &Arc<Task>) {
    if is_new_pred(task, preds, candidate) {
        preds.push(candidate.clone());
    }
}

/// `(writer, readers)` of a key's live epoch.
#[cfg(test)]
pub(crate) type LiveEpoch = (Option<Arc<Task>>, Vec<Arc<Task>>);

/// What one [`DependenceTracker::register`] call hands its caller, in
/// caller-owned buffers so a registration allocates neither.
#[derive(Default)]
pub(crate) struct Registration {
    /// The tasks the registered task must wait for: unfinished when looked
    /// at, deduplicated, never the task itself.
    pub(crate) preds: Vec<Arc<Task>>,
    /// Record references the tracker let go of while registering: finished
    /// readers of epochs it sealed, writers of retired epochs it freed. The
    /// caller decides what becomes of them (the runtime recycles them).
    pub(crate) released: Vec<Arc<Task>>,
}

impl Registration {
    pub(crate) const fn new() -> Self {
        Registration {
            preds: Vec::new(),
            released: Vec::new(),
        }
    }
}

/// Tracks dependences and, per key, the last writer (which also answers
/// `taskwait on(...)`), sharded by key hash and published read-mostly:
/// single-key reads and `wait_on` polling never take a lock, and a write
/// completing does not come here at all.
pub(crate) struct DependenceTracker {
    shards: Box<[CachePadded<TrackerShard>]>,
    /// Single-key read-only registrations resolved on the lock-free fast
    /// path. Observability counter (tests assert the fast path stays taken
    /// under writer churn); not on any decision path.
    fast_reads: AtomicUsize,
    /// Whether any key was ever poisoned. Set before the first key's own
    /// flag, never cleared, and asked first by [`DependenceTracker::is_poisoned`],
    /// which every worker calls for every input of every writing task: while
    /// nothing has failed the answer is one load of a line that nobody ever
    /// writes (hence the padding — next to `fast_reads` it would be
    /// invalidated by every registration), instead of a pinned lookup whose
    /// pin dirties a line that registration reads and whose hit shares the
    /// key cell's line, which registration writes.
    any_poisoned: CachePadded<AtomicBool>,
}

impl DependenceTracker {
    pub(crate) fn new() -> Self {
        DependenceTracker {
            shards: (0..SHARDS)
                .map(|_| CachePadded::new(TrackerShard::new()))
                .collect(),
            fast_reads: AtomicUsize::new(0),
            any_poisoned: CachePadded::new(AtomicBool::new(false)),
        }
    }

    /// Number of single-key read-only registrations that resolved without
    /// taking a shard lock.
    pub(crate) fn fast_path_reads(&self) -> usize {
        self.fast_reads.load(Ordering::Relaxed)
    }

    /// Register a task's footprint: its predecessors (unfinished,
    /// deduplicated) land in `out.preds`, the record references the tracker
    /// let go of on the way in `out.released`. Both are appended to, so the
    /// caller can keep one `Registration` and drain it after every call.
    ///
    /// Single-key read-only footprints resolve lock-free against the
    /// published epoch. Everything else locks **all** shards its footprint
    /// touches, in ascending shard order, before any key is registered —
    /// atomic whole-footprint registration, exactly like a global lock,
    /// which is what keeps concurrent multi-key registrants from wiring
    /// dependence cycles (see the module docs).
    pub(crate) fn register(
        &self,
        task: &Arc<Task>,
        in_keys: &[DepKey],
        out_keys: &[DepKey],
        out: &mut Registration,
    ) {
        if out_keys.is_empty() {
            if let [key] = in_keys {
                if self.register_read_fast(task, *key, out) {
                    return;
                }
                // First touch of the key: fall through to the locked path,
                // which inserts the cell and registers the read.
            }
        }

        let mut needed = [false; SHARDS];
        for key in in_keys.iter().chain(out_keys.iter()) {
            needed[shard_of(*key)] = true;
        }
        let mut guards: [Option<MutexGuard<'_, ShardGate>>; SHARDS] = std::array::from_fn(|_| None);
        for (index, guard) in guards.iter_mut().enumerate() {
            if needed[index] {
                *guard = Some(self.shards[index].gate.lock().unwrap());
            }
        }

        for key in in_keys {
            let shard = shard_of(*key);
            let gate = guards[shard].as_mut().expect("shard locked");
            self.shards[shard].register_read_locked(gate, task, *key, out);
        }
        for key in out_keys {
            let shard = shard_of(*key);
            let gate = guards[shard].as_mut().expect("shard locked");
            self.shards[shard].register_write_locked(gate, task, *key, out);
        }
        // Everything new is published: try to fold the limbo lists.
        for (index, guard) in guards.iter_mut().enumerate() {
            if let Some(gate) = guard.as_mut() {
                self.shards[index].reclaim(gate, &mut out.released);
            }
        }
    }

    /// Lock-free registration of a single-key read: pin the shard, resolve
    /// the RAW predecessor from the published epoch, CAS onto its reader
    /// list. Returns `false` when the key has never been registered (the
    /// caller then takes the locked insert path). The one registration in
    /// [`READER_ROTATION`] that fills its epoch goes on to take the gate and
    /// rotate the key; it does not count as a fast-path read.
    fn register_read_fast(&self, task: &Arc<Task>, key: DepKey, out: &mut Registration) -> bool {
        let shard = &self.shards[shard_of(key)];
        if shard.draining.load(Ordering::SeqCst) {
            // Reclamation is waiting for the pin count to drain: take the
            // locked path instead of keeping the read side pinned.
            return false;
        }
        shard.pin();
        let filled_epoch = (|| {
            // SAFETY: pinned — the snapshot (and any epoch reached from it)
            // cannot be freed until the pin is released.
            let snapshot = unsafe { &*shard.snapshot.load(Ordering::SeqCst) };
            let cell = snapshot.get(&key)?;
            loop {
                // SAFETY: pinned, as above.
                let epoch = unsafe { &*cell.epoch.load(Ordering::SeqCst) };
                if epoch.readers.try_push(task) {
                    // Linearised: we are a reader of exactly this epoch.
                    // Whoever seals it will find us (WAR); our RAW
                    // predecessor is this epoch's writer, unless it is done.
                    if let Some(writer) = &epoch.writer {
                        push_pred(task, &mut out.preds, writer);
                    }
                    return Some(cell.reader_fills_epoch());
                }
                // Sealed: the key advanced; retry against the new epoch
                // (and depend on its writer instead).
            }
        })();
        shard.unpin();
        match filled_epoch {
            None => return false,
            Some(false) => {
                self.fast_reads.fetch_add(1, Ordering::Relaxed);
            }
            Some(true) => {
                // Unpinned first: `reclaim` may wait for the pins to drain
                // while it holds the gate taken here.
                let mut gate = shard.gate.lock().unwrap();
                let cell = shard.cell(&mut gate, key);
                shard.rotate(&mut gate, &cell, &mut out.released);
                shard.reclaim(&mut gate, &mut out.released);
            }
        }
        true
    }

    /// Mark the given output keys poisoned: the task that was to write them
    /// panicked, was cancelled, or was shed, so any value under the key must
    /// be treated as garbage. Sticky for the lifetime of the tracker; must be
    /// called **before** the failed task's successors are released so a
    /// dependent can never observe its inputs clean.
    ///
    /// Poisoning does not replace completion: the failed task still
    /// releases its successors, which is what `taskwait on(...)` waits for
    /// ([`DependenceTracker::has_unfinished_writer`]), so waiters cannot
    /// deadlock on a failed writer.
    pub(crate) fn poison_writes(&self, out_keys: &[DepKey]) {
        if !out_keys.is_empty() {
            // SeqCst like the key flags; what makes a dependent see it is
            // the failed task's completion, which releases the dependent.
            self.any_poisoned.store(true, Ordering::SeqCst);
        }
        for key in out_keys {
            self.with_cell(*key, |cell| {
                if let Some(cell) = cell {
                    cell.poisoned.store(true, Ordering::SeqCst);
                }
            });
        }
    }

    /// Whether any key was ever poisoned: one load that spares a caller
    /// the walk over its keys while nothing has failed.
    pub(crate) fn any_poisoned(&self) -> bool {
        self.any_poisoned.load(Ordering::SeqCst)
    }

    /// Whether the key was written (or should have been written) by a task
    /// that failed. A key never registered is clean.
    pub(crate) fn is_poisoned(&self, key: DepKey) -> bool {
        if !self.any_poisoned() {
            return false;
        }
        self.with_cell(key, |cell| {
            cell.map(|cell| cell.poisoned.load(Ordering::SeqCst))
                .unwrap_or(false)
        })
    }

    /// Whether a task that writes `key` has yet to finish — the `taskwait
    /// on(...)` predicate. Lock-free: pins the shard and looks at the live
    /// epoch's writer. That one task answers for all of them: writers of a
    /// key run in registration order (each waits for the one before it
    /// unless that had already released its successors), the epoch names
    /// the last one registered, and a reader-side rotation drops the name
    /// only once the task has finished.
    pub(crate) fn has_unfinished_writer(&self, key: DepKey) -> bool {
        self.with_cell(key, |cell| {
            cell.is_some_and(|cell| {
                // SAFETY: the shard is pinned (or its gate held) for the
                // duration of this closure — see `with_cell`.
                let epoch = unsafe { &*cell.epoch.load(Ordering::SeqCst) };
                epoch
                    .writer
                    .as_ref()
                    .is_some_and(|writer| !writer.successors.is_sealed())
            })
        })
    }

    /// Current generation stamp of the key's published epoch (test hook for
    /// the read-mostly path; `None` if the key was never registered).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn epoch_generation(&self, key: DepKey) -> Option<u64> {
        self.with_cell(key, |cell| {
            cell.map(|cell| {
                // SAFETY: the shard is pinned (or its gate held) for the
                // duration of this closure — see `with_cell`.
                unsafe { &*cell.epoch.load(Ordering::SeqCst) }.generation
            })
        })
    }

    /// The writer and the readers the key's live epoch holds right now (test
    /// hook for what the tracker retains; `None` if the key was never
    /// registered).
    #[cfg(test)]
    pub(crate) fn live_epoch(&self, key: DepKey) -> Option<LiveEpoch> {
        let shard = &self.shards[shard_of(key)];
        let _gate = shard.gate.lock().unwrap();
        // SAFETY: the gate is held, so the snapshot and the epoch are stable
        // and no reader node is freed (only a gate holder seals a list).
        let snapshot = unsafe { &*shard.snapshot.load(Ordering::Relaxed) };
        let epoch = unsafe { &*snapshot.get(&key)?.epoch.load(Ordering::Acquire) };
        let mut readers = Vec::new();
        let mut node = epoch.readers.head.load(Ordering::Acquire);
        while !node.is_null() {
            // SAFETY: as above; a live epoch's list is never sealed.
            let reader = unsafe { &*node };
            readers.push(reader.task.clone());
            node = reader.next;
        }
        Some((epoch.writer.clone(), readers))
    }

    /// Run `body` on the published cell of `key` (or `None` if the key was
    /// never registered) with the cell's shard protected for the duration:
    /// normally by pinning the read side, or — while a reclaim drain is in
    /// progress — by taking the gate, so pinned readers provably drain.
    fn with_cell<R>(&self, key: DepKey, body: impl FnOnce(Option<&KeyCell>) -> R) -> R {
        let shard = &self.shards[shard_of(key)];
        if shard.draining.load(Ordering::SeqCst) {
            let _gate = shard.gate.lock().unwrap();
            // SAFETY: the gate is held, so the snapshot pointer is stable.
            let snapshot = unsafe { &*shard.snapshot.load(Ordering::Relaxed) };
            return body(snapshot.get(&key).map(Arc::as_ref));
        }
        shard.pin();
        // SAFETY: pinned (see `register_read_fast`).
        let snapshot = unsafe { &*shard.snapshot.load(Ordering::SeqCst) };
        let result = body(snapshot.get(&key).map(Arc::as_ref));
        shard.unpin();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::{GroupId, GroupState};
    use crate::significance::Significance;
    use crate::task::TaskId;

    fn task(id: u64, outs: Vec<DepKey>) -> Arc<Task> {
        let group = Arc::new(GroupState::new(
            0,
            GroupId::GLOBAL,
            Arc::from("<t>"),
            1.0,
            1,
        ));
        Arc::new(Task::new(
            TaskId(id),
            group,
            Significance::CRITICAL,
            Box::new(|| {}),
            None,
            outs.clone(),
            !outs.is_empty(),
        ))
    }

    /// Register and return the predecessors alone.
    fn preds_of(
        tracker: &DependenceTracker,
        task: &Arc<Task>,
        in_keys: &[DepKey],
        out_keys: &[DepKey],
    ) -> Vec<Arc<Task>> {
        let mut out = Registration::new();
        tracker.register(task, in_keys, out_keys, &mut out);
        out.preds
    }

    /// Retire `task` the way its worker does: release the successors.
    fn finish(task: &Task) {
        task.successors.seal();
        task.mark_completed();
    }

    #[test]
    fn key_constructors_are_stable() {
        assert_eq!(DepKey::named("res"), DepKey::named("res"));
        assert_ne!(DepKey::named("res"), DepKey::named("img"));
        assert_eq!(DepKey::from_raw(7).raw(), 7);
        let buf = vec![0u8; 4];
        assert_eq!(DepKey::of(&buf), DepKey::of(&buf));
        assert_eq!(
            DepKey::element(DepKey::named("res"), 3),
            DepKey::element(DepKey::named("res"), 3)
        );
        assert_ne!(
            DepKey::element(DepKey::named("res"), 3),
            DepKey::element(DepKey::named("res"), 4)
        );
    }

    #[test]
    fn raw_dependency_reader_after_writer() {
        let tracker = DependenceTracker::new();
        let key = DepKey::named("x");
        let writer = task(0, vec![key]);
        let reader = task(1, vec![]);
        assert!(preds_of(&tracker, &writer, &[], &[key]).is_empty());
        let preds = preds_of(&tracker, &reader, &[key], &[]);
        assert_eq!(preds.len(), 1);
        assert_eq!(preds[0].id, writer.id);
    }

    #[test]
    fn independent_readers_have_no_mutual_dependency() {
        let tracker = DependenceTracker::new();
        let key = DepKey::named("x");
        let writer = task(0, vec![key]);
        preds_of(&tracker, &writer, &[], &[key]);
        let r1 = task(1, vec![]);
        let r2 = task(2, vec![]);
        assert_eq!(preds_of(&tracker, &r1, &[key], &[]).len(), 1);
        let preds = preds_of(&tracker, &r2, &[key], &[]);
        assert_eq!(preds.len(), 1, "readers depend only on the writer");
        assert_eq!(preds[0].id, writer.id);
    }

    #[test]
    fn writer_after_readers_gets_war_dependencies() {
        let tracker = DependenceTracker::new();
        let key = DepKey::named("x");
        let w0 = task(0, vec![key]);
        preds_of(&tracker, &w0, &[], &[key]);
        let r1 = task(1, vec![]);
        let r2 = task(2, vec![]);
        preds_of(&tracker, &r1, &[key], &[]);
        preds_of(&tracker, &r2, &[key], &[]);
        let w1 = task(3, vec![key]);
        let preds = preds_of(&tracker, &w1, &[], &[key]);
        let ids: Vec<u64> = preds.iter().map(|p| p.id.index()).collect();
        assert_eq!(preds.len(), 3, "WAW on w0 plus WAR on r1, r2: {ids:?}");
    }

    #[test]
    fn writer_after_writer_waw() {
        let tracker = DependenceTracker::new();
        let key = DepKey::named("x");
        let w0 = task(0, vec![key]);
        let w1 = task(1, vec![key]);
        preds_of(&tracker, &w0, &[], &[key]);
        let preds = preds_of(&tracker, &w1, &[], &[key]);
        assert_eq!(preds.len(), 1);
        assert_eq!(preds[0].id, w0.id);
    }

    #[test]
    fn inout_task_self_dependency_is_ignored() {
        let tracker = DependenceTracker::new();
        let key = DepKey::named("x");
        let t = task(0, vec![key]);
        // Task both reads and writes the same key: it must not depend on
        // itself.
        let preds = preds_of(&tracker, &t, &[key], &[key]);
        assert!(preds.is_empty());
    }

    #[test]
    fn predecessors_are_deduplicated() {
        let tracker = DependenceTracker::new();
        let k1 = DepKey::named("a");
        let k2 = DepKey::named("b");
        let w = task(0, vec![k1, k2]);
        preds_of(&tracker, &w, &[], &[k1, k2]);
        let r = task(1, vec![]);
        let preds = preds_of(&tracker, &r, &[k1, k2], &[]);
        assert_eq!(preds.len(), 1);
    }

    #[test]
    fn disjoint_keys_are_independent() {
        let tracker = DependenceTracker::new();
        let w0 = task(0, vec![DepKey::named("a")]);
        let w1 = task(1, vec![DepKey::named("b")]);
        preds_of(&tracker, &w0, &[], &[DepKey::named("a")]);
        let preds = preds_of(&tracker, &w1, &[], &[DepKey::named("b")]);
        assert!(preds.is_empty());
    }

    #[test]
    fn last_registered_writer_answers_for_the_key() {
        let tracker = DependenceTracker::new();
        let key = DepKey::named("res");
        assert!(!tracker.has_unfinished_writer(key), "never registered");
        let w0 = task(0, vec![key]);
        let w1 = task(1, vec![key]);
        preds_of(&tracker, &w0, &[], &[key]);
        assert_eq!(preds_of(&tracker, &w1, &[], &[key]).len(), 1, "WAW");
        assert!(tracker.has_unfinished_writer(key));
        // `w1` runs after `w0`, so `w0` finishing is not the answer yet...
        finish(&w0);
        assert!(tracker.has_unfinished_writer(key));
        // ...and readers, finished or not, are not writers.
        let reader = task(2, vec![]);
        preds_of(&tracker, &reader, &[key], &[]);
        finish(&w1);
        assert!(!tracker.has_unfinished_writer(key));
        assert!(!tracker.has_unfinished_writer(DepKey::named("other")));
    }

    #[test]
    fn rotation_keeps_an_unfinished_writer_answering_and_forgets_a_finished_one() {
        let tracker = DependenceTracker::new();
        let key = DepKey::named("res");
        let writer = task(1_000, vec![key]);
        preds_of(&tracker, &writer, &[], &[key]);
        let opened = tracker.epoch_generation(key).unwrap();
        for i in 0..READER_ROTATION as u64 {
            preds_of(&tracker, &task(i, vec![]), &[key], &[]);
        }
        assert!(tracker.epoch_generation(key).unwrap() > opened);
        assert!(tracker.has_unfinished_writer(key));
        finish(&writer);
        assert!(!tracker.has_unfinished_writer(key));
        for i in 0..READER_ROTATION as u64 {
            preds_of(&tracker, &task(i, vec![]), &[key], &[]);
        }
        assert!(tracker.live_epoch(key).unwrap().0.is_none());
        assert!(!tracker.has_unfinished_writer(key));
    }

    #[test]
    fn poison_is_sticky_and_per_key() {
        let tracker = DependenceTracker::new();
        let key = DepKey::named("p");
        let other = DepKey::named("q");
        let w = task(0, vec![key]);
        preds_of(&tracker, &w, &[], &[key]);
        preds_of(&tracker, &task(1, vec![other]), &[], &[other]);
        assert!(!tracker.is_poisoned(key));
        tracker.poison_writes(&[key]);
        assert!(tracker.is_poisoned(key));
        assert!(
            !tracker.is_poisoned(other),
            "poison must not leak across keys"
        );
        // The failed writer still finishes, so `wait_on` cannot hang.
        finish(&w);
        assert!(!tracker.has_unfinished_writer(key));
        assert!(tracker.is_poisoned(key), "poison survives completion");
        // Unregistered keys are clean.
        assert!(!tracker.is_poisoned(DepKey::named("never")));
    }

    #[test]
    fn shard_selection_is_stable_and_in_range() {
        for i in 0..1000u64 {
            let key = DepKey::from_raw(i.wrapping_mul(64)); // address-like alignment
            let s = shard_of(key);
            assert!(s < SHARDS);
            assert_eq!(s, shard_of(key));
        }
        // Aligned (address-style) keys must not all collapse into one shard.
        let mut used = [false; SHARDS];
        for i in 0..256u64 {
            used[shard_of(DepKey::from_raw(0x7f00_0000_0000 + i * 64))] = true;
        }
        assert!(used.iter().filter(|&&u| u).count() > SHARDS / 2);
    }

    #[test]
    fn cross_shard_footprint_is_registered_atomically() {
        // A footprint spanning many shards must produce exactly the same
        // dependences as the old single-lock tracker.
        let tracker = DependenceTracker::new();
        let keys: Vec<DepKey> = (0..64).map(|i| DepKey::from_raw(i * 997)).collect();
        let writer = task(0, keys.clone());
        assert!(preds_of(&tracker, &writer, &[], &keys).is_empty());
        let reader = task(1, vec![]);
        let preds = preds_of(&tracker, &reader, &keys, &[]);
        assert_eq!(preds.len(), 1, "one deduplicated predecessor across shards");
        assert_eq!(preds[0].id, writer.id);
        assert!(keys.iter().all(|key| tracker.has_unfinished_writer(*key)));
        finish(&writer);
        assert!(!keys.iter().any(|key| tracker.has_unfinished_writer(*key)));
    }

    #[test]
    fn concurrent_disjoint_registrations_do_not_interfere() {
        let tracker = Arc::new(DependenceTracker::new());
        let handles: Vec<_> = (0..4u64)
            .map(|thread| {
                let tracker = tracker.clone();
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        let key = DepKey::from_raw(thread * 100_000 + i);
                        let t = task(thread * 1_000_000 + i, vec![key]);
                        let preds = preds_of(&tracker, &t, &[], &[key]);
                        assert!(preds.is_empty(), "disjoint keys have no predecessors");
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        for thread in 0..4u64 {
            for i in 0..200u64 {
                assert!(tracker.has_unfinished_writer(DepKey::from_raw(thread * 100_000 + i)));
            }
        }
    }

    #[test]
    fn chain_of_writers_orders_linearly() {
        let tracker = DependenceTracker::new();
        let key = DepKey::named("x");
        let tasks: Vec<_> = (0..5).map(|i| task(i, vec![key])).collect();
        let mut pred_counts = Vec::new();
        for t in &tasks {
            pred_counts.push(preds_of(&tracker, t, &[], &[key]).len());
        }
        assert_eq!(pred_counts, vec![0, 1, 1, 1, 1]);
    }

    #[test]
    fn epoch_generation_advances_per_writer() {
        let tracker = DependenceTracker::new();
        let key = DepKey::named("gen");
        assert_eq!(tracker.epoch_generation(key), None);
        preds_of(&tracker, &task(0, vec![key]), &[], &[key]);
        let g1 = tracker.epoch_generation(key).unwrap();
        // Readers do not advance the epoch.
        preds_of(&tracker, &task(1, vec![]), &[key], &[]);
        assert_eq!(tracker.epoch_generation(key), Some(g1));
        preds_of(&tracker, &task(2, vec![key]), &[], &[key]);
        let g2 = tracker.epoch_generation(key).unwrap();
        assert!(g2 > g1, "a writer must publish a fresh epoch");
    }

    #[test]
    fn fast_path_reader_sees_writer_and_is_sealed_by_next_writer() {
        let tracker = DependenceTracker::new();
        let key = DepKey::named("fast");
        let w0 = task(0, vec![key]);
        preds_of(&tracker, &w0, &[], &[key]);
        // Single-key read-only: takes the lock-free path.
        let r = task(1, vec![]);
        let preds = preds_of(&tracker, &r, &[key], &[]);
        assert_eq!(preds.len(), 1);
        assert_eq!(preds[0].id, w0.id);
        // The next writer must observe the fast-path reader as a WAR
        // predecessor.
        let w1 = task(2, vec![key]);
        let preds = preds_of(&tracker, &w1, &[], &[key]);
        let ids: Vec<u64> = preds.iter().map(|p| p.id.index()).collect();
        assert_eq!(preds.len(), 2, "WAW on w0 plus WAR on r: {ids:?}");
        assert!(ids.contains(&0) && ids.contains(&1));
    }

    #[test]
    fn concurrent_fast_readers_race_writers_without_losing_war_edges() {
        // Readers hammer the lock-free path while writers advance the key's
        // epoch. Invariant: every reader obtains a predecessor chain that is
        // consistent (its RAW writer registered before it), and every reader
        // is seen by some writer's seal or remains in the final epoch —
        // i.e. reader registrations are never silently dropped.
        for _ in 0..20 {
            let tracker = Arc::new(DependenceTracker::new());
            let key = DepKey::named("race");
            let w0 = task(1_000_000, vec![key]);
            preds_of(&tracker, &w0, &[], &[key]);
            let readers = 4usize;
            let per_reader = 200u64;
            let reader_handles: Vec<_> = (0..readers as u64)
                .map(|r| {
                    let tracker = tracker.clone();
                    std::thread::spawn(move || {
                        for i in 0..per_reader {
                            let t = task(r * 10_000 + i, vec![]);
                            let preds = preds_of(&tracker, &t, &[key], &[]);
                            // Always exactly one RAW predecessor: some writer.
                            assert_eq!(preds.len(), 1);
                            assert!(preds[0].id.index() >= 1_000_000);
                        }
                    })
                })
                .collect();
            let writer_handle = {
                let tracker = tracker.clone();
                std::thread::spawn(move || {
                    let mut sealed_readers = 0usize;
                    for i in 1..50u64 {
                        let w = task(1_000_000 + i, vec![key]);
                        let preds = preds_of(&tracker, &w, &[], &[key]);
                        sealed_readers += preds.iter().filter(|p| p.id.index() < 1_000_000).count();
                    }
                    sealed_readers
                })
            };
            for h in reader_handles {
                h.join().unwrap();
            }
            let sealed_readers = writer_handle.join().unwrap();
            // A final writer seals whatever epoch is current, collecting the
            // remaining readers.
            let w_final = task(2_000_000, vec![key]);
            let final_preds = preds_of(&tracker, &w_final, &[], &[key]);
            let remaining = final_preds
                .iter()
                .filter(|p| p.id.index() < 1_000_000)
                .count();
            assert_eq!(
                sealed_readers + remaining,
                readers * per_reader as usize,
                "every fast-path reader must be visible to exactly one seal"
            );
        }
    }

    #[test]
    fn finished_candidates_are_neither_cloned_nor_listed() {
        let tracker = DependenceTracker::new();
        let (a, b) = (DepKey::named("a"), DepKey::named("b"));
        let done = task(0, vec![a]);
        let running = task(1, vec![b]);
        preds_of(&tracker, &done, &[], &[a]);
        preds_of(&tracker, &running, &[], &[b]);
        finish(&done);
        let holders = Arc::strong_count(&done);
        // Lock-free read path, locked read path, WAW.
        assert!(preds_of(&tracker, &task(2, vec![]), &[a], &[]).is_empty());
        let preds = preds_of(&tracker, &task(3, vec![]), &[a, b], &[]);
        assert_eq!(preds.len(), 1);
        assert_eq!(preds[0].id, running.id);
        let mut out = Registration::new();
        tracker.register(&task(4, vec![a]), &[], &[a], &mut out);
        let mut ids: Vec<u64> = out.preds.iter().map(|p| p.id.index()).collect();
        ids.sort_unstable();
        assert_eq!(ids, [2, 3], "WAR on the two readers, no WAW on `done`");
        assert_eq!(Arc::strong_count(&done), holders);
        // `done` stayed with the epoch it opened until the new writer
        // retired that and `reclaim` — nobody is pinned — freed it.
        assert_eq!(out.released.len(), 1);
        assert!(Arc::ptr_eq(&out.released[0], &done));
    }

    #[test]
    fn sealing_moves_each_reader_reference_to_exactly_one_list() {
        let tracker = DependenceTracker::new();
        let key = DepKey::named("x");
        let readers: Vec<_> = (0..6).map(|i| task(i, vec![])).collect();
        for reader in &readers {
            preds_of(&tracker, reader, &[key], &[]);
        }
        readers[..4].iter().for_each(|reader| finish(reader));
        let holders: Vec<usize> = readers.iter().map(Arc::strong_count).collect();
        let mut out = Registration::new();
        tracker.register(&task(9, vec![key]), &[], &[key], &mut out);
        let ids = |tasks: &[Arc<Task>]| {
            let mut ids: Vec<u64> = tasks.iter().map(|t| t.id.index()).collect();
            ids.sort_unstable();
            ids
        };
        assert_eq!(ids(&out.preds), [4, 5], "WAR on the unfinished readers");
        assert_eq!(ids(&out.released), [0, 1, 2, 3]);
        // Moved out of the sealed list, not cloned.
        assert_eq!(
            readers.iter().map(Arc::strong_count).collect::<Vec<_>>(),
            holders
        );
    }

    #[test]
    fn reader_list_push_after_seal_neither_clones_nor_links() {
        let list = ReaderList::new();
        let reader = task(0, vec![]);
        assert!(list.try_push(&reader));
        assert_eq!(list.seal().count(), 1);
        let holders = Arc::strong_count(&reader);
        assert!(!list.try_push(&reader));
        assert_eq!(Arc::strong_count(&reader), holders);
        assert_eq!(list.seal().count(), 0, "second seal drains nothing");
    }

    #[test]
    fn full_epoch_is_rotated_by_the_reader_that_filled_it() {
        let tracker = DependenceTracker::new();
        let key = DepKey::named("config");
        let writer = task(1_000, vec![key]);
        preds_of(&tracker, &writer, &[], &[key]);
        let opened = tracker.epoch_generation(key).unwrap();
        let readers: Vec<_> = (0..2 * READER_ROTATION as u64)
            .map(|i| task(i, vec![]))
            .collect();
        let (first, second) = readers.split_at(READER_ROTATION);

        for reader in &first[..READER_ROTATION - 1] {
            assert_eq!(preds_of(&tracker, reader, &[key], &[]).len(), 1);
        }
        assert_eq!(tracker.epoch_generation(key), Some(opened));
        assert_eq!(tracker.fast_path_reads(), READER_ROTATION - 1);
        // The reader that fills the epoch rotates it. Nobody has finished:
        // everything is carried over, and all that is let go of is the
        // reference of the epoch the writer opened, retired and freed.
        let mut out = Registration::new();
        tracker.register(&first[READER_ROTATION - 1], &[key], &[], &mut out);
        let rotated = tracker.epoch_generation(key).unwrap();
        assert!(rotated > opened);
        assert_eq!(
            tracker.fast_path_reads(),
            READER_ROTATION - 1,
            "took the gate"
        );
        assert_eq!(out.preds.len(), 1, "RAW on the writer");
        assert_eq!(out.released.len(), 1);
        assert!(Arc::ptr_eq(&out.released[0], &writer));
        drop(out);
        let (held, listed) = tracker.live_epoch(key).unwrap();
        assert!(Arc::ptr_eq(&held.unwrap(), &writer));
        assert_eq!(listed.len(), READER_ROTATION);
        drop(listed);

        // Everything so far finishes; the next rotation lets go of all of it.
        finish(&writer);
        first.iter().for_each(|reader| finish(reader));
        let mut out = Registration::new();
        for reader in second {
            tracker.register(reader, &[key], &[], &mut out);
        }
        assert!(tracker.epoch_generation(key).unwrap() > rotated);
        assert!(out.preds.is_empty(), "no RAW on a finished writer");
        // The first half's readers, and the writer's reference from the
        // epoch that had carried it over.
        assert_eq!(out.released.len(), READER_ROTATION + 1);
        let (held, listed) = tracker.live_epoch(key).unwrap();
        assert!(held.is_none(), "a finished writer is not carried over");
        assert_eq!(listed.len(), READER_ROTATION);
        drop((out, listed));
        assert_eq!(Arc::strong_count(&writer), 1);
        assert!(first.iter().all(|reader| Arc::strong_count(reader) == 1));
        assert!(second.iter().all(|reader| Arc::strong_count(reader) == 2));

        // The key's next writer still waits for every unfinished reader.
        let preds = preds_of(&tracker, &task(2_000, vec![key]), &[], &[key]);
        assert_eq!(preds.len(), READER_ROTATION);
    }

    #[test]
    fn rotation_racing_fast_path_pushes_loses_no_reader() {
        // Four threads register readers of one key as fast as they can, so
        // rotations (one registration in `READER_ROTATION`, under the gate)
        // run while the others push lock-free — onto the epoch being sealed,
        // or onto the fresh one while its carried-over readers are still
        // being linked in. Nobody finishes, so every reader must end up in
        // the live epoch, exactly once.
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 2_000;
        for _ in 0..10 {
            let tracker = DependenceTracker::new();
            let key = DepKey::named("race");
            let writer = task(u64::MAX, vec![key]);
            preds_of(&tracker, &writer, &[], &[key]);
            std::thread::scope(|scope| {
                for thread in 0..THREADS {
                    let (tracker, writer) = (&tracker, &writer);
                    scope.spawn(move || {
                        let mut out = Registration::new();
                        for i in 0..PER_THREAD {
                            let reader = task(thread * PER_THREAD + i, vec![]);
                            tracker.register(&reader, &[key], &[], &mut out);
                            assert_eq!(out.preds.len(), 1, "RAW on the writer");
                            assert!(Arc::ptr_eq(&out.preds[0], writer));
                            out.preds.clear();
                        }
                        // Nobody finished: all a rotation lets go of is the
                        // retired epoch's reference to the writer.
                        assert!(out.released.iter().all(|t| Arc::ptr_eq(t, writer)));
                    });
                }
            });
            let (held, listed) = tracker.live_epoch(key).unwrap();
            assert!(Arc::ptr_eq(&held.unwrap(), &writer));
            let mut ids: Vec<u64> = listed.iter().map(|t| t.id.index()).collect();
            ids.sort_unstable();
            assert!(ids.iter().copied().eq(0..THREADS * PER_THREAD));
        }
    }
}
