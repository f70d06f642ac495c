//! Lock-free per-worker scheduling queues.
//!
//! The paper's runtime "is organized as a master/slave work-sharing
//! scheduler. ... For every task call encountered, the task is enqueued in a
//! per-worker task queue. Tasks are distributed across workers in round-robin
//! fashion. Workers select the oldest tasks from their queues for execution.
//! When a worker's queue runs empty, the worker may steal tasks from other
//! worker's queues." (Section 3)
//!
//! The seed implementation used a `Mutex<VecDeque>` per worker; the paper's
//! whole pitch, however, is *low per-task overhead* (Figure 4 measures it
//! against OpenMP), and fine-grained tasks hammer these queues. Each worker
//! therefore now owns three lock-free structures:
//!
//! * a [`StealQueue`] — a Chase–Lev-style growable ring buffer. Only the
//!   owning worker pushes (single producer, plain store + release publish,
//!   with a **batched** variant that publishes a whole slice with one
//!   `bottom` store); the owner *and* thieves consume from the opposite end
//!   with one CAS, which preserves the paper's oldest-first execution order.
//!   Thieves prefer [`StealQueue::steal_half_into`]: one CAS claims up to
//!   half the victim's run, the thief keeps the oldest task and appends the
//!   rest to its **own** deque — a flood injected on one worker spreads in
//!   O(log n) steal operations instead of one steal per task.
//! * an [`Inbox`] — a bounded Vyukov-style MPMC ring used by threads that do
//!   not own the queue: the master distributing spawned tasks round-robin,
//!   and workers releasing dependence successors to siblings. Thieves may
//!   also pop a victim's inbox (again in steal-half batches) so
//!   distributed-but-unstarted work is always stealable.
//! * a [`SpillQueue`] — an **unbounded lock-free MPSC list** (Vyukov's
//!   intrusive queue) behind the inbox. The seed grew a `Mutex<VecDeque>`
//!   here, which made inbox overflow the one remaining lock on the external
//!   enqueue path; the MPSC list keeps even worst-case floods mutex-free.
//!   A non-blocking consumer token picks its (single) consumer: normally
//!   the owning worker, refilling its stealable deque in chunks — but a
//!   thief may claim the token too, so spilled work is never stranded
//!   behind a blocked owner.
//!
//! Memory reclamation needs no epoch machinery: steal-queue buffers retired
//! by growth are kept until the queue drops (growth doubles, so retired
//! buffers total less than the live one), inbox slots hand ownership over
//! with a per-slot sequence number, and spill nodes are freed by their
//! single consumer.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::task::Task;

const INITIAL_DEQUE_CAPACITY: usize = 64;
const INBOX_CAPACITY: usize = 1024;
/// Consecutive tasks a batched external push places on one worker before
/// moving to the next (sticky round-robin: locality within the chunk,
/// spread across the batch).
const BATCH_CHUNK: usize = 32;
/// Upper bound on tasks claimed by one steal-half operation.
const STEAL_BATCH_MAX: usize = 32;
/// Spilled tasks the owner moves into its stealable deque per refill.
const SPILL_REFILL: usize = 64;

/// Growable power-of-two ring of task pointers.
struct Buffer {
    slots: Box<[AtomicPtr<Task>]>,
}

impl Buffer {
    fn new(capacity: usize) -> Buffer {
        debug_assert!(capacity.is_power_of_two());
        Buffer {
            slots: (0..capacity)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect(),
        }
    }

    fn capacity(&self) -> u64 {
        self.slots.len() as u64
    }

    fn at(&self, index: u64) -> &AtomicPtr<Task> {
        &self.slots[(index & (self.capacity() - 1)) as usize]
    }
}

/// A single worker's stealable queue (Chase–Lev layout: owner end + steal
/// end over a growable ring).
///
/// Indices increase monotonically and never wrap (a `u64` outlives any run),
/// so there is no ABA hazard on the `top` CAS. A consumed slot value is only
/// *used* when the CAS on `top` succeeds; success proves the owner cannot
/// have recycled that slot, because recycling requires `top` to have moved
/// past it first. The same argument covers multi-slot claims: a CAS from
/// `top` to `top + k` proves no slot in `[top, top + k)` was consumed or
/// recycled between the reads and the claim.
pub(crate) struct StealQueue {
    /// Next index to consume — the **oldest** queued task.
    top: AtomicU64,
    /// Next index to fill. Written only by the owner.
    bottom: AtomicU64,
    buffer: AtomicPtr<Buffer>,
    /// Buffers replaced by growth; freed on drop. Owner-only.
    retired: UnsafeCell<Vec<*mut Buffer>>,
}

// SAFETY: `retired` is touched only by the owning worker (push/grow) and by
// `Drop` (exclusive access); every other field is atomic.
unsafe impl Send for StealQueue {}
unsafe impl Sync for StealQueue {}

impl StealQueue {
    pub(crate) fn new() -> StealQueue {
        StealQueue {
            top: AtomicU64::new(0),
            bottom: AtomicU64::new(0),
            buffer: AtomicPtr::new(Box::into_raw(Box::new(Buffer::new(INITIAL_DEQUE_CAPACITY)))),
            retired: UnsafeCell::new(Vec::new()),
        }
    }

    /// Owner-only: append a task at the bottom (newest) end. Never blocks;
    /// grows the ring when full.
    pub(crate) fn push(&self, task: Arc<Task>) {
        let bottom = self.bottom.load(Ordering::Relaxed);
        let top = self.top.load(Ordering::Acquire);
        let mut buffer = self.buffer.load(Ordering::Relaxed);
        // SAFETY: `buffer` is a live allocation: only the owner (this thread)
        // replaces it, and replaced buffers stay allocated until drop.
        if bottom - top >= unsafe { (*buffer).capacity() } {
            buffer = self.grow(top, bottom);
        }
        let raw = Arc::into_raw(task) as *mut Task;
        unsafe { (*buffer).at(bottom).store(raw, Ordering::Relaxed) };
        // Publish the slot before the new bottom; SeqCst pairs with the
        // sleep-flag protocol in the scheduler (push must be visible to a
        // worker that subsequently observes an empty queue and parks).
        self.bottom.store(bottom + 1, Ordering::SeqCst);
    }

    /// Owner-only: append a whole batch with **one** `bottom` publish. The
    /// per-task cost is a plain pointer store; thieves see the entire batch
    /// at once, so a flood becomes stealable in steal-half chunks instead
    /// of rippling out one publish at a time.
    ///
    /// The iterator's `len()` may be an upper bound (the pop-adapters below
    /// shrink under racing consumers): capacity is sized for the bound, but
    /// only the slots actually written are published.
    pub(crate) fn push_batch(&self, tasks: impl ExactSizeIterator<Item = Arc<Task>>) {
        let n = tasks.len() as u64;
        if n == 0 {
            return;
        }
        let bottom = self.bottom.load(Ordering::Relaxed);
        let top = self.top.load(Ordering::Acquire);
        let mut buffer = self.buffer.load(Ordering::Relaxed);
        // SAFETY: live allocation, owner thread (see `push`).
        while bottom - top + n > unsafe { (*buffer).capacity() } {
            buffer = self.grow(top, bottom);
        }
        let mut written = 0u64;
        for task in tasks {
            let raw = Arc::into_raw(task) as *mut Task;
            unsafe { (*buffer).at(bottom + written).store(raw, Ordering::Relaxed) };
            written += 1;
        }
        self.bottom.store(bottom + written, Ordering::SeqCst);
    }

    /// Consume the **oldest** task. Used by the owner (paper order) and by
    /// thieves; any number of threads may race here, one CAS each.
    pub(crate) fn take(&self) -> Option<Arc<Task>> {
        loop {
            let top = self.top.load(Ordering::SeqCst);
            let bottom = self.bottom.load(Ordering::SeqCst);
            if top >= bottom {
                return None;
            }
            let buffer = self.buffer.load(Ordering::Acquire);
            // SAFETY: live or retired-but-not-freed allocation (see above).
            let raw = unsafe { (*buffer).at(top).load(Ordering::Relaxed) };
            if self
                .top
                .compare_exchange(top, top + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
            {
                // SAFETY: the CAS on `top` transfers ownership of exactly
                // this slot's reference to us; the slot cannot have been
                // overwritten while `top` still equalled `top` (the owner
                // reuses a slot only after `top` passes it).
                return Some(unsafe { Arc::from_raw(raw) });
            }
        }
    }

    /// Steal-half: claim up to half of this queue's run (capped at
    /// [`STEAL_BATCH_MAX`]) with **one** CAS, return the oldest claimed task
    /// and append the rest — in order — to `dest`, the thief's own deque.
    ///
    /// The thief keeps one task to execute and makes the remainder stealable
    /// from its own queue, so a burst concentrated on one victim fans out
    /// geometrically.
    pub(crate) fn steal_half_into(&self, dest: &StealQueue, max: usize) -> Option<Arc<Task>> {
        debug_assert!(!std::ptr::eq(self, dest), "cannot steal into the victim");
        // Stack scratch for the claimed slots: no allocation on the steal
        // path, and none repeated when the CAS races and retries.
        let mut raws = [std::ptr::null_mut::<Task>(); STEAL_BATCH_MAX];
        loop {
            let top = self.top.load(Ordering::SeqCst);
            let bottom = self.bottom.load(Ordering::SeqCst);
            if top >= bottom {
                return None;
            }
            let available = bottom - top;
            let claim = available
                .div_ceil(2)
                .min(max.min(STEAL_BATCH_MAX) as u64)
                .max(1);
            let buffer = self.buffer.load(Ordering::Acquire);
            // Read every claimed slot *before* the CAS: on success the CAS
            // transfers ownership of exactly these references (see the type
            // docs for why the values cannot be stale), on failure they are
            // simply forgotten.
            for (offset, raw) in raws.iter_mut().enumerate().take(claim as usize) {
                // SAFETY: live or retired-but-not-freed allocation; the
                // values are only *used* if the CAS below succeeds.
                *raw = unsafe { (*buffer).at(top + offset as u64).load(Ordering::Relaxed) };
            }
            if self
                .top
                .compare_exchange(top, top + claim, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
            {
                // SAFETY: the CAS claimed slots [top, top + claim); each raw
                // pointer is a live reference handed over exactly once.
                let mut tasks = raws[..claim as usize]
                    .iter()
                    .map(|&raw| unsafe { Arc::from_raw(raw) });
                let first = tasks.next();
                dest.push_batch(tasks);
                return first;
            }
        }
    }

    /// Racy emptiness check for the sleep path (precise enough under the
    /// Dekker pairing with the producer's post-push wakeup).
    pub(crate) fn is_empty(&self) -> bool {
        self.top.load(Ordering::SeqCst) >= self.bottom.load(Ordering::SeqCst)
    }

    /// Number of queued tasks (racy; for stats and tests).
    pub(crate) fn len(&self) -> usize {
        let bottom = self.bottom.load(Ordering::SeqCst);
        let top = self.top.load(Ordering::SeqCst);
        bottom.saturating_sub(top) as usize
    }

    /// Owner-only: replace the ring with one of twice the capacity.
    fn grow(&self, top: u64, bottom: u64) -> *mut Buffer {
        let old = self.buffer.load(Ordering::Relaxed);
        // SAFETY: live allocation, owner thread.
        let new = Box::new(Buffer::new((unsafe { (*old).capacity() } * 2) as usize));
        for index in top..bottom {
            let value = unsafe { (*old).at(index).load(Ordering::Relaxed) };
            new.at(index).store(value, Ordering::Relaxed);
        }
        let new = Box::into_raw(new);
        self.buffer.store(new, Ordering::Release);
        // Thieves may still be reading the old buffer: retire, free on drop.
        // SAFETY: `retired` is owner-only.
        unsafe { (*self.retired.get()).push(old) };
        new
    }
}

impl Drop for StealQueue {
    fn drop(&mut self) {
        while self.take().is_some() {}
        // SAFETY: exclusive access in drop; these pointers came from
        // `Box::into_raw` and are freed exactly once.
        unsafe {
            for retired in (*self.retired.get()).drain(..) {
                drop(Box::from_raw(retired));
            }
            drop(Box::from_raw(self.buffer.load(Ordering::Relaxed)));
        }
    }
}

/// One slot of the [`Inbox`]: a sequence number plus the task pointer.
struct InboxSlot {
    sequence: AtomicU64,
    value: UnsafeCell<MaybeUninit<*const Task>>,
}

/// Bounded MPMC ring (Vyukov's algorithm): lock-free pushes from any thread,
/// lock-free pops from any thread, per-slot sequence numbers carrying
/// ownership. A full inbox rejects the push — the caller falls back (owner
/// deque or the spill list), so producers never block the hot path.
pub(crate) struct Inbox {
    slots: Box<[InboxSlot]>,
    mask: u64,
    /// Next position to claim for a push.
    enqueue: AtomicU64,
    /// Next position to claim for a pop.
    dequeue: AtomicU64,
}

// SAFETY: slot values are only accessed by the thread that claimed the slot
// via the corresponding CAS, with the sequence number store/load pair
// ordering the handover.
unsafe impl Send for Inbox {}
unsafe impl Sync for Inbox {}

impl Inbox {
    pub(crate) fn new() -> Inbox {
        Inbox::with_capacity(INBOX_CAPACITY)
    }

    fn with_capacity(capacity: usize) -> Inbox {
        debug_assert!(capacity.is_power_of_two());
        Inbox {
            slots: (0..capacity)
                .map(|index| InboxSlot {
                    sequence: AtomicU64::new(index as u64),
                    value: UnsafeCell::new(MaybeUninit::uninit()),
                })
                .collect(),
            mask: capacity as u64 - 1,
            enqueue: AtomicU64::new(0),
            dequeue: AtomicU64::new(0),
        }
    }

    /// Push from any thread. Returns the task back if the inbox is full.
    pub(crate) fn push(&self, task: Arc<Task>) -> Result<(), Arc<Task>> {
        loop {
            let position = self.enqueue.load(Ordering::Relaxed);
            let slot = &self.slots[(position & self.mask) as usize];
            let sequence = slot.sequence.load(Ordering::Acquire);
            if sequence == position {
                // SeqCst success ordering: `is_empty` (the pre-park
                // work re-check) reads this cursor, so the advance must be
                // in the SC order with the sleep-flag protocol.
                if self
                    .enqueue
                    .compare_exchange_weak(
                        position,
                        position + 1,
                        Ordering::SeqCst,
                        Ordering::Relaxed,
                    )
                    .is_ok()
                {
                    // SAFETY: the CAS gave this thread exclusive write access
                    // to the slot until the sequence store below.
                    unsafe { (*slot.value.get()).write(Arc::into_raw(task)) };
                    slot.sequence.store(position + 1, Ordering::SeqCst);
                    return Ok(());
                }
            } else if sequence < position {
                return Err(task); // full: a lap behind
            }
            // Another producer claimed this slot first; retry at the new tail.
        }
    }

    /// Pop from any thread (the owning worker or a thief).
    pub(crate) fn pop(&self) -> Option<Arc<Task>> {
        loop {
            let position = self.dequeue.load(Ordering::Relaxed);
            let slot = &self.slots[(position & self.mask) as usize];
            let sequence = slot.sequence.load(Ordering::Acquire);
            if sequence == position + 1 {
                if self
                    .dequeue
                    .compare_exchange_weak(
                        position,
                        position + 1,
                        Ordering::SeqCst,
                        Ordering::Relaxed,
                    )
                    .is_ok()
                {
                    // SAFETY: the CAS gave this thread exclusive read access;
                    // the producer's sequence store published the write.
                    let raw = unsafe { (*slot.value.get()).assume_init() };
                    slot.sequence
                        .store(position + self.mask + 1, Ordering::Release);
                    // SAFETY: ownership of the reference moves to the caller.
                    return Some(unsafe { Arc::from_raw(raw) });
                }
            } else if sequence <= position {
                return None; // empty (or a producer is mid-publish)
            }
            // Another consumer claimed this slot first; retry at the new head.
        }
    }

    /// Steal-half over the inbox: pop the oldest task for the thief and move
    /// up to half of the remaining entries (capped at `max - 1`) into the
    /// thief's own deque. Each transfer is one MPMC pop — the batch here
    /// amortises the *victim scan*, not the pop CAS.
    pub(crate) fn steal_half_into(&self, dest: &StealQueue, max: usize) -> Option<Arc<Task>> {
        let first = self.pop()?;
        let extra = (self.len() / 2).min(max.saturating_sub(1));
        dest.push_batch(ExtraPops {
            inbox: self,
            remaining: extra,
        });
        Some(first)
    }

    /// Racy emptiness check for the sleep path. May briefly report non-empty
    /// for a push still being published — the worker then simply re-loops.
    pub(crate) fn is_empty(&self) -> bool {
        self.dequeue.load(Ordering::SeqCst) >= self.enqueue.load(Ordering::SeqCst)
    }

    /// Number of queued tasks (racy; for stats and tests).
    pub(crate) fn len(&self) -> usize {
        let enqueue = self.enqueue.load(Ordering::SeqCst);
        let dequeue = self.dequeue.load(Ordering::SeqCst);
        enqueue.saturating_sub(dequeue) as usize
    }
}

/// Adapter streaming up to `remaining` pops of an inbox into
/// [`StealQueue::push_batch`] without an intermediate allocation.
struct ExtraPops<'a> {
    inbox: &'a Inbox,
    remaining: usize,
}

impl Iterator for ExtraPops<'_> {
    type Item = Arc<Task>;

    fn next(&mut self) -> Option<Arc<Task>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        match self.inbox.pop() {
            Some(task) => Some(task),
            None => {
                self.remaining = 0;
                None
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.remaining))
    }
}

impl ExactSizeIterator for ExtraPops<'_> {
    fn len(&self) -> usize {
        // An upper bound: `push_batch` only uses it for capacity sizing and
        // publishes exactly the yielded count.
        self.remaining
    }
}

impl Drop for Inbox {
    fn drop(&mut self) {
        while self.pop().is_some() {}
    }
}

/// One node of the [`SpillQueue`] (intrusive singly-linked list).
struct SpillNode {
    /// `None` only in the stub node.
    task: Option<Arc<Task>>,
    next: AtomicPtr<SpillNode>,
}

/// Unbounded lock-free MPSC overflow list (Vyukov's intrusive queue):
/// producers exchange the head pointer and link; a **single consumer at a
/// time** follows `next` links from the tail stub. Replaces the seed's
/// `Mutex<VecDeque>` spill — the last mutex on the external enqueue path —
/// so even a flood that laps the bounded inbox keeps producers lock-free.
///
/// The consumer side is guarded by a non-blocking **consumer token** (one
/// CAS): normally the owning worker holds it, but a *thief* may claim it
/// too when the owner is busy — without this, tasks spilled to a worker
/// that then blocks (e.g. in a nested `taskwait` inside a task body) would
/// be unreachable by the rest of the pool, stalling or deadlocking the
/// runtime. A contended claim simply fails and the caller moves on; nobody
/// ever blocks on the token.
///
/// A push is visible in two steps (head exchange, then the link store); a
/// pop that runs between them observes an empty `next` and returns `None`
/// even though `len` is already positive. Callers treat that as "try again
/// shortly" — the producer is wait-free between the two steps, so the gap
/// closes without blocking anyone.
pub(crate) struct SpillQueue {
    /// Most recently pushed node; producers XCHG here.
    head: AtomicPtr<SpillNode>,
    /// Oldest node (a consumed stub); advanced only by the token holder.
    tail: UnsafeCell<*mut SpillNode>,
    /// Racy occupancy count, maintained SeqCst for the sleep-flag Dekker
    /// pairing (incremented *before* the node is linked, so a worker that
    /// announced sleep either sees the count or the producer sees the flag).
    len: AtomicUsize,
    /// Consumer token: `true` while some thread is popping.
    consuming: AtomicBool,
}

// SAFETY: `tail` is touched only while holding the consumer token (or in
// `Drop`, with exclusive access); `head`/`len` are atomic, and node handover
// follows the XCHG/link protocol documented on the type.
unsafe impl Send for SpillQueue {}
unsafe impl Sync for SpillQueue {}

impl SpillQueue {
    fn new() -> SpillQueue {
        let stub = Box::into_raw(Box::new(SpillNode {
            task: None,
            next: AtomicPtr::new(std::ptr::null_mut()),
        }));
        SpillQueue {
            head: AtomicPtr::new(stub),
            tail: UnsafeCell::new(stub),
            len: AtomicUsize::new(0),
            consuming: AtomicBool::new(false),
        }
    }

    /// Push from any thread. Lock-free (one XCHG + one store), never fails.
    pub(crate) fn push(&self, task: Arc<Task>) {
        let node = Box::into_raw(Box::new(SpillNode {
            task: Some(task),
            next: AtomicPtr::new(std::ptr::null_mut()),
        }));
        self.splice(node, node, 1);
    }

    /// Push a whole batch with **one** XCHG on the contended head pointer:
    /// the nodes are chained privately first, then the chain is spliced in.
    /// This is the overflow half of amortised batch injection — a spilled
    /// chunk costs one contended atomic instead of one per task.
    pub(crate) fn push_batch(&self, tasks: impl Iterator<Item = Arc<Task>>) {
        let mut first: *mut SpillNode = std::ptr::null_mut();
        let mut last: *mut SpillNode = std::ptr::null_mut();
        let mut count = 0usize;
        for task in tasks {
            let node = Box::into_raw(Box::new(SpillNode {
                task: Some(task),
                next: AtomicPtr::new(std::ptr::null_mut()),
            }));
            if first.is_null() {
                first = node;
            } else {
                // SAFETY: `last` is part of the still-private chain.
                // Relaxed: the chain is published as a whole by the release
                // link store in `splice`.
                unsafe { (*last).next.store(node, Ordering::Relaxed) };
            }
            last = node;
            count += 1;
        }
        if count > 0 {
            self.splice(first, last, count);
        }
    }

    /// Link a privately built FIFO chain `first..=last` of `count` nodes
    /// into the queue.
    fn splice(&self, first: *mut SpillNode, last: *mut SpillNode, count: usize) {
        // Count first: the sleep-path re-check must not miss a task whose
        // producer already committed to pushing (see the `len` docs).
        self.len.fetch_add(count, Ordering::SeqCst);
        let prev = self.head.swap(last, Ordering::AcqRel);
        // SAFETY: `prev` is either the stub or a pushed node; nodes are only
        // freed by the consumer *after* following this `next` link.
        unsafe { (*prev).next.store(first, Ordering::Release) };
    }

    /// Claim the consumer token and pop the oldest task. `None` means the
    /// queue is empty, a producer is between its XCHG and its link store,
    /// *or* another thread currently holds the token (see the type docs).
    /// The scheduler drains spills via [`SpillQueue::steal_half_into`];
    /// kept (and tested) as the single-pop form of the same protocol.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn pop(&self) -> Option<Arc<Task>> {
        if self.consuming.swap(true, Ordering::Acquire) {
            return None;
        }
        // SAFETY: the token was claimed above.
        let task = unsafe { self.pop_as_consumer() };
        self.consuming.store(false, Ordering::Release);
        task
    }

    /// Claim the consumer token once and drain up to `max` tasks into
    /// `dest` (the caller's own deque), returning the oldest. Used by the
    /// owner's refill and by thieves rescuing a stalled worker's spill.
    pub(crate) fn steal_half_into(&self, dest: &StealQueue, max: usize) -> Option<Arc<Task>> {
        if self.len() == 0 || self.consuming.swap(true, Ordering::Acquire) {
            return None;
        }
        // SAFETY (both calls): the token was claimed above and is held for
        // the whole drain.
        let first = unsafe { self.pop_as_consumer() };
        if first.is_some() {
            let extra = (self.len() / 2).min(max.saturating_sub(1));
            dest.push_batch(ExtraConsumerPops {
                spill: self,
                remaining: extra,
            });
        }
        self.consuming.store(false, Ordering::Release);
        first
    }

    /// Pop the oldest task.
    ///
    /// # Safety
    ///
    /// The caller must hold the consumer token (or otherwise have exclusive
    /// consumer access, as in `Drop`).
    unsafe fn pop_as_consumer(&self) -> Option<Arc<Task>> {
        let tail = *self.tail.get();
        let next = (*tail).next.load(Ordering::Acquire);
        if next.is_null() {
            return None;
        }
        let task = (*next).task.take();
        *self.tail.get() = next;
        drop(Box::from_raw(tail));
        self.len.fetch_sub(1, Ordering::SeqCst);
        debug_assert!(task.is_some(), "non-stub spill node carries a task");
        task
    }

    /// Racy occupancy count (SeqCst, for the sleep protocol and stats).
    pub(crate) fn len(&self) -> usize {
        self.len.load(Ordering::SeqCst)
    }
}

/// Adapter streaming up to `remaining` spill pops into
/// [`StealQueue::push_batch`]. Constructed only while the spill's consumer
/// token is held, for the adapter's whole lifetime.
struct ExtraConsumerPops<'a> {
    spill: &'a SpillQueue,
    remaining: usize,
}

impl Iterator for ExtraConsumerPops<'_> {
    type Item = Arc<Task>;

    fn next(&mut self) -> Option<Arc<Task>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        // SAFETY: the constructor's caller holds the consumer token.
        match unsafe { self.spill.pop_as_consumer() } {
            Some(task) => Some(task),
            None => {
                self.remaining = 0;
                None
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.remaining))
    }
}

impl ExactSizeIterator for ExtraConsumerPops<'_> {
    fn len(&self) -> usize {
        self.remaining
    }
}

impl Drop for SpillQueue {
    fn drop(&mut self) {
        // Exclusive access: pop everything (no producer can be mid-link and
        // no consumer can hold the token once the queue is being dropped),
        // then free the final stub.
        // SAFETY: exclusive access in drop.
        while unsafe { self.pop_as_consumer() }.is_some() {}
        // SAFETY: `tail` now points at the last remaining node (the current
        // stub), freed exactly once.
        unsafe { drop(Box::from_raw(*self.tail.get())) };
    }
}

/// One worker's queues.
pub(crate) struct WorkerQueue {
    /// Owner-pushed work (dependence successors released by this worker,
    /// spilled work refilled by the owner, halves deposited by steals).
    pub(crate) deque: StealQueue,
    /// Work delivered by other threads (master round-robin distribution,
    /// successors released by sibling workers).
    pub(crate) inbox: Inbox,
    /// Unbounded lock-free overflow behind the inbox. Only filled when a
    /// producer outruns the consumers by a full inbox (e.g. a master
    /// spawning a burst far faster than workers drain). FIFO order is
    /// preserved: once anything spills, later external pushes spill too
    /// until the spill drains, so inbox entries are always older than spill
    /// entries. Normally consumed by the owner, which refills its stealable
    /// deque from it in chunks; thieves may claim the consumer token when
    /// the owner is busy or blocked.
    spill: SpillQueue,
}

impl WorkerQueue {
    fn new() -> WorkerQueue {
        WorkerQueue {
            deque: StealQueue::new(),
            inbox: Inbox::new(),
            spill: SpillQueue::new(),
        }
    }

    /// External (non-owner) push: lock-free inbox first, lock-free spill on
    /// overflow. No path through here takes a mutex.
    fn push_external(&self, task: Arc<Task>) {
        let task = if self.spill.len() == 0 {
            match self.inbox.push(task) {
                Ok(()) => return,
                Err(rejected) => rejected,
            }
        } else {
            task
        };
        self.spill.push(task);
    }

    /// External batched push of one chunk. Tasks enter the inbox while it
    /// has room; the moment it overflows, the rest of the chunk is chained
    /// privately and spliced into the spill with a single XCHG. Returns
    /// whether anything spilled — the caller then wakes *this* worker
    /// directly: thieves can rescue a spill through its consumer token, but
    /// the owner drains it with the best locality and without waiting for
    /// an idle thief to scan past it.
    fn push_external_batch(&self, chunk: impl Iterator<Item = Arc<Task>>) -> bool {
        let mut chunk = chunk;
        if self.spill.len() == 0 {
            loop {
                match chunk.next() {
                    None => return false,
                    Some(task) => {
                        if let Err(rejected) = self.inbox.push(task) {
                            self.spill
                                .push_batch(std::iter::once(rejected).chain(chunk));
                            return true;
                        }
                    }
                }
            }
        }
        self.spill.push_batch(chunk);
        true
    }

    /// Owner refill: move a chunk of spilled tasks into the stealable deque
    /// (so thieves can see them) and return the oldest. Called only when
    /// the deque and inbox are empty, which keeps FIFO order intact.
    fn refill_from_spill(&self) -> Option<Arc<Task>> {
        self.spill.steal_half_into(&self.deque, SPILL_REFILL)
    }

    /// Owner pop: oldest own-deque task first, then the inbox, then a
    /// spill refill. Returns the task plus whether new stealable work was
    /// published (so the caller can wake a stealer).
    fn pop(&self) -> (Option<Arc<Task>>, bool) {
        if let Some(task) = self.deque.take() {
            return (Some(task), false);
        }
        if let Some(task) = self.inbox.pop() {
            return (Some(task), false);
        }
        match self.refill_from_spill() {
            Some(task) => {
                let stealable = !self.deque.is_empty();
                (Some(task), stealable)
            }
            None => (None, false),
        }
    }

    fn has_work(&self) -> bool {
        !self.deque.is_empty() || !self.inbox.is_empty() || self.spill.len() > 0
    }
}

/// The set of all worker queues plus the round-robin cursor used to
/// distribute tasks, mirroring the paper's master/slave layout.
pub(crate) struct QueueSet {
    workers: Box<[WorkerQueue]>,
    next: AtomicUsize,
}

/// Result of a local pop: the task (if any) plus whether the pop published
/// new stealable work (a spill refill) that may warrant waking a stealer.
pub(crate) struct LocalPop {
    pub(crate) task: Option<Arc<Task>>,
    pub(crate) refilled: bool,
}

/// Result of a batched enqueue: the consecutive worker range that received
/// chunks, plus the workers whose chunks overflowed into their spill (each
/// of those gets a directed wake — the owner is the preferred consumer).
pub(crate) struct BatchPush {
    pub(crate) first: usize,
    pub(crate) touched: usize,
    pub(crate) spilled: Vec<usize>,
}

impl QueueSet {
    pub(crate) fn new(workers: usize) -> QueueSet {
        assert!(workers > 0, "at least one worker queue is required");
        QueueSet {
            workers: (0..workers).map(|_| WorkerQueue::new()).collect(),
            next: AtomicUsize::new(0),
        }
    }

    /// Number of worker queues.
    pub(crate) fn len(&self) -> usize {
        self.workers.len()
    }

    /// Enqueue a task and return the index of the worker that should be
    /// woken.
    ///
    /// `local` identifies the calling thread when it is one of this
    /// runtime's workers: that worker pushes straight onto its own stealable
    /// deque — the zero-contention single-producer fast path. Every other
    /// thread (the master above all) distributes round-robin across worker
    /// inboxes, the paper's distribution scheme, overflowing into the
    /// target's unbounded lock-free spill when the inbox is full so
    /// producers never stall.
    pub(crate) fn push(&self, task: Arc<Task>, local: Option<usize>) -> usize {
        if let Some(worker) = local {
            debug_assert!(worker < self.workers.len());
            self.workers[worker].deque.push(task);
            return worker;
        }
        let target = self.next.fetch_add(1, Ordering::Relaxed) % self.workers.len();
        self.workers[target].push_external(task);
        target
    }

    /// Batched enqueue: place `tasks` in sticky round-robin chunks of
    /// [`BATCH_CHUNK`] consecutive tasks per worker (cache locality inside
    /// the chunk, spread across the batch). The returned [`BatchPush`]
    /// tells the caller which consecutive workers received chunks — for one
    /// coalesced wake instead of one per task — and which workers took
    /// overflow into their spill (each gets a directed wake: its owner is
    /// the cheapest, lowest-latency consumer, though thieves can rescue a
    /// spill too).
    ///
    /// A local worker keeps the entire batch on its own deque (a single
    /// lock-free publish); steal-half spreads it from there.
    ///
    /// `tasks` may be a draining iterator, so a caller that keeps its batch
    /// vector for the next batch (a GTB flush does) allocates nothing here.
    pub(crate) fn push_batch<I>(&self, tasks: I, local: Option<usize>) -> BatchPush
    where
        I: IntoIterator<Item = Arc<Task>>,
        I::IntoIter: ExactSizeIterator,
    {
        let mut tasks = tasks.into_iter();
        if tasks.len() == 0 {
            return BatchPush {
                first: 0,
                touched: 0,
                spilled: Vec::new(),
            };
        }
        if let Some(worker) = local {
            debug_assert!(worker < self.workers.len());
            self.workers[worker].deque.push_batch(tasks);
            return BatchPush {
                first: worker,
                touched: 1,
                spilled: Vec::new(),
            };
        }
        let count = self.workers.len();
        let chunks = tasks.len().div_ceil(BATCH_CHUNK);
        let first = self.next.fetch_add(chunks, Ordering::Relaxed) % count;
        let mut spilled = Vec::new();
        for chunk in 0..chunks {
            let target = (first + chunk) % count;
            if self.workers[target].push_external_batch(tasks.by_ref().take(BATCH_CHUNK))
                && spilled.last() != Some(&target)
            {
                spilled.push(target);
            }
        }
        BatchPush {
            first,
            touched: chunks.min(count),
            spilled,
        }
    }

    /// Worker-local pop: oldest own-deque task first, then the inbox, then
    /// the spill (refilled into the deque in stealable chunks).
    pub(crate) fn pop_local(&self, worker: usize) -> LocalPop {
        let (task, refilled) = self.workers[worker].pop();
        LocalPop { task, refilled }
    }

    /// Attempt a steal-half on behalf of `thief`: scan the other workers'
    /// deques, inboxes and spills, claim up to half of the first non-empty
    /// victim's run, keep the oldest task and deposit the rest on the
    /// thief's own deque (making it stealable in turn). Spills are fair
    /// game — the consumer token serialises the thief against the owner —
    /// so work spilled to a worker that then blocked (e.g. in a nested
    /// barrier inside a task body) is rescued by the rest of the pool.
    pub(crate) fn steal(&self, thief: usize) -> Option<Arc<Task>> {
        let count = self.workers.len();
        let dest = &self.workers[thief].deque;
        for offset in 1..count {
            let victim = &self.workers[(thief + offset) % count];
            if let Some(task) = victim.deque.steal_half_into(dest, STEAL_BATCH_MAX) {
                return Some(task);
            }
            if let Some(task) = victim.inbox.steal_half_into(dest, STEAL_BATCH_MAX) {
                return Some(task);
            }
            if let Some(task) = victim.spill.steal_half_into(dest, STEAL_BATCH_MAX) {
                return Some(task);
            }
        }
        None
    }

    /// Whether `worker`'s own stealable deque holds work — after a
    /// successful steal this means the steal-half deposited surplus tasks,
    /// and the caller should invite another sleeper (wake propagation).
    pub(crate) fn has_local_backlog(&self, worker: usize) -> bool {
        !self.workers[worker].deque.is_empty()
    }

    /// Whether any queue holds work (racy; used by the sleep protocol under
    /// the Dekker pairing described in [`crate::sync::Parker`], and by
    /// shutdown). Every structure counted here — deque, inbox, spill — is
    /// reachable by any awake worker.
    pub(crate) fn any_work(&self) -> bool {
        self.workers.iter().any(WorkerQueue::has_work)
    }

    /// Total queued (issued but not yet started) tasks, racy. Drives the
    /// brownout overload controller's queue-depth watermark (amortised:
    /// sampled once per recompute tick, not per task) and tests.
    pub(crate) fn total_queued(&self) -> usize {
        self.workers
            .iter()
            .map(|w| w.deque.len() + w.inbox.len() + w.spill.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::{GroupId, GroupState};
    use crate::significance::Significance;
    use crate::task::TaskId;
    use std::sync::atomic::AtomicUsize;

    fn group() -> Arc<GroupState> {
        Arc::new(GroupState::new(
            GroupId::GLOBAL,
            Arc::from("<test>"),
            1.0,
            1,
        ))
    }

    fn task(id: u64) -> Arc<Task> {
        Arc::new(Task::new(
            TaskId(id),
            group(),
            Significance::CRITICAL,
            Box::new(|| {}),
            None,
            Vec::new(),
            false,
        ))
    }

    fn pop_owner(queue: &WorkerQueue) -> Option<Arc<Task>> {
        queue.pop().0
    }

    #[test]
    fn steal_queue_is_fifo() {
        let q = StealQueue::new();
        q.push(task(1));
        q.push(task(2));
        q.push(task(3));
        assert_eq!(q.len(), 3);
        assert_eq!(q.take().unwrap().id, TaskId(1));
        assert_eq!(q.take().unwrap().id, TaskId(2));
        assert_eq!(q.take().unwrap().id, TaskId(3));
        assert!(q.take().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn steal_queue_grows_past_initial_capacity() {
        let q = StealQueue::new();
        let n = (INITIAL_DEQUE_CAPACITY * 4 + 3) as u64;
        for i in 0..n {
            q.push(task(i));
        }
        assert_eq!(q.len(), n as usize);
        for i in 0..n {
            assert_eq!(q.take().unwrap().id, TaskId(i));
        }
        assert!(q.take().is_none());
    }

    #[test]
    fn steal_queue_push_batch_is_fifo_and_grows() {
        let q = StealQueue::new();
        let n = (INITIAL_DEQUE_CAPACITY * 3 + 7) as u64;
        q.push(task(0));
        q.push_batch((1..n as usize).map(|i| task(i as u64)));
        assert_eq!(q.len(), n as usize);
        for i in 0..n {
            assert_eq!(q.take().unwrap().id, TaskId(i), "order broken at {i}");
        }
        assert!(q.take().is_none());
        // Empty batches are a no-op.
        q.push_batch(std::iter::empty());
        assert!(q.is_empty());
    }

    #[test]
    fn steal_half_takes_half_and_preserves_order() {
        let victim = StealQueue::new();
        let thief = StealQueue::new();
        for i in 0..10 {
            victim.push(task(i));
        }
        // 10 available: the thief claims 5, keeps the oldest, deposits 4.
        let first = victim.steal_half_into(&thief, STEAL_BATCH_MAX).unwrap();
        assert_eq!(first.id, TaskId(0));
        assert_eq!(thief.len(), 4);
        assert_eq!(victim.len(), 5);
        for i in 1..5 {
            assert_eq!(thief.take().unwrap().id, TaskId(i));
        }
        for i in 5..10 {
            assert_eq!(victim.take().unwrap().id, TaskId(i));
        }
    }

    #[test]
    fn steal_half_respects_cap_and_single_element() {
        let victim = StealQueue::new();
        let thief = StealQueue::new();
        victim.push(task(7));
        // One available: claim exactly one, deposit nothing.
        assert_eq!(
            victim.steal_half_into(&thief, STEAL_BATCH_MAX).unwrap().id,
            TaskId(7)
        );
        assert!(thief.is_empty());
        assert!(victim.steal_half_into(&thief, STEAL_BATCH_MAX).is_none());
        // A large run is capped at `max` per operation.
        for i in 0..200 {
            victim.push(task(i));
        }
        let _ = victim.steal_half_into(&thief, 8).unwrap();
        assert_eq!(thief.len(), 7);
        assert_eq!(victim.len(), 192);
    }

    #[test]
    fn steal_queue_drop_releases_queued_tasks() {
        let q = StealQueue::new();
        let probe = task(9);
        q.push(probe.clone());
        drop(q);
        assert_eq!(Arc::strong_count(&probe), 1, "queue must release its ref");
    }

    #[test]
    fn concurrent_consumers_take_each_task_once() {
        let q = Arc::new(StealQueue::new());
        let n = 10_000u64;
        for i in 0..n {
            q.push(task(i));
        }
        let taken = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let q = q.clone();
                let taken = taken.clone();
                std::thread::spawn(move || {
                    while q.take().is_some() {
                        taken.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(taken.load(Ordering::Relaxed), n as usize);
    }

    #[test]
    fn concurrent_batch_thieves_take_each_task_once() {
        // Several thieves racing steal_half_into (plus the owner taking)
        // must neither lose nor duplicate a task.
        for _ in 0..10 {
            let victim = Arc::new(StealQueue::new());
            let n = 5_000u64;
            for i in 0..n {
                victim.push(task(i));
            }
            let taken = Arc::new(AtomicUsize::new(0));
            let thieves: Vec<_> = (0..3)
                .map(|_| {
                    let victim = victim.clone();
                    let taken = taken.clone();
                    std::thread::spawn(move || {
                        let own = StealQueue::new();
                        while victim.steal_half_into(&own, STEAL_BATCH_MAX).is_some() {
                            taken.fetch_add(1, Ordering::Relaxed);
                            while own.take().is_some() {
                                taken.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    })
                })
                .collect();
            let owner = {
                let victim = victim.clone();
                let taken = taken.clone();
                std::thread::spawn(move || {
                    while victim.take().is_some() {
                        taken.fetch_add(1, Ordering::Relaxed);
                    }
                })
            };
            for h in thieves {
                h.join().unwrap();
            }
            owner.join().unwrap();
            assert_eq!(taken.load(Ordering::Relaxed), n as usize);
        }
    }

    #[test]
    fn inbox_round_trips_in_order() {
        let inbox = Inbox::with_capacity(8);
        assert!(inbox.is_empty());
        for i in 0..5 {
            inbox.push(task(i)).unwrap();
        }
        assert_eq!(inbox.len(), 5);
        for i in 0..5 {
            assert_eq!(inbox.pop().unwrap().id, TaskId(i));
        }
        assert!(inbox.pop().is_none());
    }

    #[test]
    fn inbox_rejects_when_full_then_recovers() {
        let inbox = Inbox::with_capacity(4);
        for i in 0..4 {
            inbox.push(task(i)).unwrap();
        }
        let rejected = inbox.push(task(99)).unwrap_err();
        assert_eq!(rejected.id, TaskId(99));
        assert_eq!(inbox.pop().unwrap().id, TaskId(0));
        inbox.push(rejected).unwrap();
        assert_eq!(inbox.len(), 4);
    }

    #[test]
    fn inbox_steal_half_moves_batch_to_dest() {
        let inbox = Inbox::with_capacity(16);
        for i in 0..9 {
            inbox.push(task(i)).unwrap();
        }
        let dest = StealQueue::new();
        let first = inbox.steal_half_into(&dest, STEAL_BATCH_MAX).unwrap();
        assert_eq!(first.id, TaskId(0));
        // 8 remained after the first pop; half (4) moved to the thief.
        assert_eq!(dest.len(), 4);
        assert_eq!(inbox.len(), 4);
        for i in 1..5 {
            assert_eq!(dest.take().unwrap().id, TaskId(i));
        }
        for i in 5..9 {
            assert_eq!(inbox.pop().unwrap().id, TaskId(i));
        }
    }

    #[test]
    fn inbox_concurrent_producers_and_consumers() {
        let inbox = Arc::new(Inbox::with_capacity(64));
        let produced = 4 * 2_500usize;
        let consumed = Arc::new(AtomicUsize::new(0));
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let inbox = inbox.clone();
                std::thread::spawn(move || {
                    for i in 0..2_500u64 {
                        let mut item = task(p * 10_000 + i);
                        loop {
                            match inbox.push(item) {
                                Ok(()) => break,
                                Err(back) => {
                                    item = back;
                                    std::thread::yield_now();
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let inbox = inbox.clone();
                let consumed = consumed.clone();
                std::thread::spawn(move || loop {
                    if inbox.pop().is_some() {
                        consumed.fetch_add(1, Ordering::Relaxed);
                    } else if consumed.load(Ordering::Relaxed) >= 10_000 {
                        break;
                    } else {
                        std::thread::yield_now();
                    }
                })
            })
            .collect();
        for h in producers {
            h.join().unwrap();
        }
        for h in consumers {
            h.join().unwrap();
        }
        assert_eq!(consumed.load(Ordering::Relaxed), produced);
        assert!(inbox.is_empty());
    }

    #[test]
    fn spill_queue_is_fifo_and_counts() {
        let spill = SpillQueue::new();
        assert_eq!(spill.len(), 0);
        assert!(spill.pop().is_none());
        for i in 0..5 {
            spill.push(task(i));
        }
        assert_eq!(spill.len(), 5);
        for i in 0..5 {
            assert_eq!(spill.pop().unwrap().id, TaskId(i));
        }
        assert!(spill.pop().is_none());
        assert_eq!(spill.len(), 0);
    }

    #[test]
    fn spill_queue_concurrent_producers_single_consumer() {
        let spill = Arc::new(SpillQueue::new());
        let produced = 4 * 5_000usize;
        let producers: Vec<_> = (0..4u64)
            .map(|p| {
                let spill = spill.clone();
                std::thread::spawn(move || {
                    for i in 0..5_000u64 {
                        spill.push(task(p * 100_000 + i));
                    }
                })
            })
            .collect();
        let mut consumed = 0usize;
        while consumed < produced {
            if spill.pop().is_some() {
                consumed += 1;
            } else {
                std::thread::yield_now();
            }
        }
        for h in producers {
            h.join().unwrap();
        }
        assert!(spill.pop().is_none());
        assert_eq!(spill.len(), 0);
    }

    #[test]
    fn spill_queue_drop_releases_tasks() {
        let spill = SpillQueue::new();
        let probe = task(3);
        spill.push(probe.clone());
        drop(spill);
        assert_eq!(Arc::strong_count(&probe), 1, "spill must release its ref");
    }

    #[test]
    fn queue_set_external_push_is_round_robin() {
        let set = QueueSet::new(4);
        for i in 0..8 {
            set.push(task(i), None);
        }
        for w in 0..4 {
            assert_eq!(
                set.workers[w].inbox.len(),
                2,
                "worker {w} should hold 2 tasks"
            );
        }
        assert_eq!(set.total_queued(), 8);
    }

    #[test]
    fn queue_set_push_batch_chunks_round_robin() {
        let set = QueueSet::new(4);
        let n = BATCH_CHUNK * 3 + 5; // four chunks
        let push = set.push_batch((0..n as u64).map(task).collect::<Vec<_>>(), None);
        assert_eq!(push.first, 0);
        assert_eq!(push.touched, 4);
        assert!(push.spilled.is_empty());
        assert_eq!(set.workers[0].inbox.len(), BATCH_CHUNK);
        assert_eq!(set.workers[1].inbox.len(), BATCH_CHUNK);
        assert_eq!(set.workers[2].inbox.len(), BATCH_CHUNK);
        assert_eq!(set.workers[3].inbox.len(), 5);
        // Chunks are sticky: consecutive tasks land on the same worker.
        assert_eq!(set.workers[0].inbox.pop().unwrap().id, TaskId(0));
        assert_eq!(set.workers[0].inbox.pop().unwrap().id, TaskId(1));
        assert_eq!(
            set.workers[1].inbox.pop().unwrap().id,
            TaskId(BATCH_CHUNK as u64)
        );
    }

    #[test]
    fn queue_set_push_batch_local_stays_on_own_deque() {
        let set = QueueSet::new(3);
        let push = set.push_batch((0..10).map(task).collect::<Vec<_>>(), Some(2));
        assert_eq!((push.first, push.touched), (2, 1));
        assert_eq!(set.workers[2].deque.len(), 10);
        let empty = set.push_batch(Vec::new(), None);
        assert_eq!((empty.first, empty.touched), (0, 0));
    }

    #[test]
    fn queue_set_push_batch_reports_spilled_targets() {
        let set = QueueSet::new(2);
        // Pre-fill worker 1's inbox so its chunk overflows mid-batch.
        for i in 0..INBOX_CAPACITY as u64 {
            set.workers[1].inbox.push(task(10_000 + i)).unwrap();
        }
        let n = BATCH_CHUNK * 2;
        let push = set.push_batch((0..n as u64).map(task).collect::<Vec<_>>(), None);
        assert_eq!(push.touched, 2);
        assert_eq!(push.spilled, vec![1], "worker 1 must be flagged for a wake");
        assert_eq!(set.workers[1].spill.len(), BATCH_CHUNK);
        assert_eq!(set.workers[0].inbox.len(), BATCH_CHUNK);
    }

    #[test]
    fn spill_batch_splices_in_fifo_order() {
        let spill = SpillQueue::new();
        spill.push(task(0));
        spill.push_batch((1..40).map(task));
        spill.push(task(40));
        spill.push_batch(std::iter::empty());
        assert_eq!(spill.len(), 41);
        for i in 0..41 {
            assert_eq!(spill.pop().unwrap().id, TaskId(i), "order broken at {i}");
        }
        assert!(spill.pop().is_none());
    }

    #[test]
    fn worker_queue_spills_past_a_full_inbox_and_preserves_order() {
        let queue = WorkerQueue::new();
        let n = INBOX_CAPACITY as u64 + 100;
        for i in 0..n {
            queue.push_external(task(i));
        }
        assert_eq!(queue.spill.len(), 100);
        for i in 0..n {
            assert_eq!(
                pop_owner(&queue).unwrap().id,
                TaskId(i),
                "order broken at {i}"
            );
        }
        assert!(!queue.has_work());
    }

    #[test]
    fn spill_refill_publishes_stealable_work() {
        let queue = WorkerQueue::new();
        let n = INBOX_CAPACITY as u64 + 2 * SPILL_REFILL as u64;
        for i in 0..n {
            queue.push_external(task(i));
        }
        // Drain the inbox; the next pop must refill from the spill and
        // report that it published stealable work.
        for i in 0..INBOX_CAPACITY as u64 {
            let (t, refilled) = queue.pop();
            assert_eq!(t.unwrap().id, TaskId(i));
            assert!(!refilled);
        }
        let (t, refilled) = queue.pop();
        assert_eq!(t.unwrap().id, TaskId(INBOX_CAPACITY as u64));
        assert!(refilled, "spill refill must report new stealable work");
        // Half of the remaining spill (capped at SPILL_REFILL - 1) moved
        // onto the stealable deque alongside the returned task.
        assert_eq!(queue.deque.len(), SPILL_REFILL - 1);
    }

    #[test]
    fn queue_set_local_push_goes_to_own_deque() {
        let set = QueueSet::new(2);
        let woken = set.push(task(1), Some(1));
        assert_eq!(woken, 1);
        assert_eq!(set.workers[1].deque.len(), 1);
        assert_eq!(set.workers[1].inbox.len(), 0);
        assert_eq!(set.pop_local(1).task.unwrap().id, TaskId(1));
    }

    #[test]
    fn steal_scans_other_queues_and_inboxes() {
        let set = QueueSet::new(3);
        set.push(task(7), Some(2));
        let stolen = set.steal(0).expect("worker 0 should steal from worker 2");
        assert_eq!(stolen.id, TaskId(7));
        assert!(set.steal(0).is_none());
        // Inbox work is stealable too.
        set.workers[1].inbox.push(task(8)).unwrap();
        assert_eq!(set.steal(0).unwrap().id, TaskId(8));
    }

    #[test]
    fn steal_deposits_extra_tasks_on_thief_deque() {
        let set = QueueSet::new(2);
        for i in 0..10 {
            set.push(task(i), Some(1));
        }
        let first = set.steal(0).unwrap();
        assert_eq!(first.id, TaskId(0));
        assert_eq!(set.workers[0].deque.len(), 4, "thief keeps half minus one");
        assert_eq!(set.workers[1].deque.len(), 5);
    }

    #[test]
    fn steal_never_takes_from_own_queue() {
        let set = QueueSet::new(2);
        set.push(task(9), Some(1));
        assert!(
            set.steal(1).is_none(),
            "a worker must not steal from itself"
        );
        assert_eq!(set.workers[1].deque.len(), 1);
    }

    #[test]
    fn thief_rescues_a_foreign_spill() {
        // Work spilled to worker 0 must be reachable by worker 1 even if
        // worker 0 never pops again (e.g. blocked in a nested barrier).
        let set = QueueSet::new(2);
        for i in 0..INBOX_CAPACITY as u64 {
            set.workers[0].inbox.push(task(i)).unwrap();
        }
        for i in 0..10u64 {
            set.workers[0].push_external(task(10_000 + i));
        }
        assert_eq!(set.workers[0].spill.len(), 10);
        assert!(set.any_work());
        // Drain the inbox the easy way, then steal: the spill is fair game.
        while set.workers[0].inbox.pop().is_some() {}
        let stolen = set.steal(1).expect("thief must reach the spill");
        assert_eq!(stolen.id, TaskId(10_000));
        // Half of the remaining 9 came along onto the thief's deque.
        assert_eq!(set.workers[1].deque.len(), 4);
        assert_eq!(set.workers[0].spill.len(), 5);
    }

    #[test]
    fn spill_consumer_token_serialises_consumers() {
        let spill = SpillQueue::new();
        for i in 0..8 {
            spill.push(task(i));
        }
        // While the token is held, other consumers get None instead of
        // racing the tail pointer.
        assert!(!spill.consuming.swap(true, Ordering::Acquire));
        assert!(spill.pop().is_none(), "token holder excludes other poppers");
        let dest = StealQueue::new();
        assert!(spill.steal_half_into(&dest, 8).is_none());
        spill.consuming.store(false, Ordering::Release);
        assert_eq!(spill.pop().unwrap().id, TaskId(0));
        // 6 remain after taking the first: half (3) ride along.
        assert_eq!(spill.steal_half_into(&dest, 8).unwrap().id, TaskId(1));
        assert_eq!(dest.len(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        QueueSet::new(0);
    }

    #[test]
    fn single_worker_set() {
        let set = QueueSet::new(1);
        set.push(task(1), None);
        set.push(task(2), Some(0));
        assert!(set.any_work());
        assert_eq!(set.total_queued(), 2);
        assert!(set.steal(0).is_none());
        assert!(set.pop_local(0).task.is_some());
        assert!(set.pop_local(0).task.is_some());
        assert!(!set.any_work());
    }
}
