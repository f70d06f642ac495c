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
//! therefore owns two lock-free structures:
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
//! * a [`Mailbox`] — an intrusive lock-free list in the style of Linux's
//!   `llist`, through which every thread that does not own the queue
//!   delivers work: the master distributing spawned tasks round-robin, and
//!   workers releasing dependence successors to siblings. The task record
//!   carries the link (`Task::mail_next`), so a delivery is one CAS and
//!   never allocates, however far a spawner outruns its worker. A taker —
//!   the owner, or a thief rescuing a busy or blocked worker's mail — swaps
//!   the whole list out at once and reverses it, oldest first. Since no
//!   consumer ever unlinks a single record, the pushers' CAS has no ABA
//!   hazard: a record that was taken, run, recycled and delivered again is
//!   simply the list's new head once more. The taker moves a bounded run
//!   onto its stealable deque and parks the rest on its own `ready` chain,
//!   which any thief may swap out whole.
//!
//! Memory reclamation needs no epoch machinery: steal-queue buffers retired
//! by growth are kept until the queue drops (growth at least doubles, so
//! retired buffers total less than the live one), and a mailbox owns
//! nothing but the references it links — the records themselves.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicIsize, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::task::Task;

const INITIAL_DEQUE_CAPACITY: usize = 64;
/// Consecutive tasks a batched external push places on one worker before
/// moving to the next (sticky round-robin: locality within the chunk,
/// spread across the batch).
const BATCH_CHUNK: usize = 32;
/// Upper bound on tasks claimed by one steal-half operation.
const STEAL_BATCH_MAX: usize = 32;
/// Records a mailbox take moves onto the taker's stealable deque besides
/// the one it returns; the rest wait on the taker's `ready` chain, so a
/// long backlog does not grow the deque's ring.
const MAIL_REFILL: usize = 64;

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
            buffer = self.grow(top, bottom, 1);
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
    /// The iterator's `len()` may be an upper bound (a mailbox chain does
    /// not know its length): capacity is sized for the bound, but only the
    /// slots actually written are published.
    pub(crate) fn push_batch(&self, tasks: impl ExactSizeIterator<Item = Arc<Task>>) {
        let n = tasks.len() as u64;
        if n == 0 {
            return;
        }
        let bottom = self.bottom.load(Ordering::Relaxed);
        let top = self.top.load(Ordering::Acquire);
        let mut buffer = self.buffer.load(Ordering::Relaxed);
        // SAFETY: live allocation, owner thread (see `push`).
        if bottom - top + n > unsafe { (*buffer).capacity() } {
            buffer = self.grow(top, bottom, n);
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

    /// Ring capacity and the number of retired buffers.
    #[cfg(test)]
    fn capacity_and_retired(&self) -> (u64, usize) {
        // SAFETY: test thread as owner; the buffer is live.
        unsafe {
            (
                (*self.buffer.load(Ordering::Relaxed)).capacity(),
                (*self.retired.get()).len(),
            )
        }
    }

    /// Owner-only: replace the ring with one that holds the `bottom - top`
    /// queued tasks plus `extra` more — at least twice the old capacity, so
    /// the retired buffers stay smaller than the live one, and never more
    /// than one replacement per push, so a large batch retires one buffer,
    /// not one per doubling.
    fn grow(&self, top: u64, bottom: u64, extra: u64) -> *mut Buffer {
        let old = self.buffer.load(Ordering::Relaxed);
        // SAFETY: live allocation, owner thread.
        let old_capacity = unsafe { (*old).capacity() };
        let capacity = (bottom - top + extra)
            .next_power_of_two()
            .max(old_capacity * 2);
        let new = Box::new(Buffer::new(capacity as usize));
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

/// A privately held chain of records linked oldest first through
/// `Task::mail_next`, one reference per record. Iterating hands over at
/// most `left` references; `head` is then the untouched rest.
struct Chain {
    head: *mut Task,
    left: usize,
}

impl Chain {
    /// A chain from `head` on, yielding at most `left` records.
    ///
    /// # Safety
    ///
    /// `head` is null or starts a `mail_next` chain that ends in null, and
    /// the caller hands the chain one reference to each of its records,
    /// whose links nobody else touches while the chain holds them.
    unsafe fn new(head: *mut Task, left: usize) -> Chain {
        Chain { head, left }
    }
}

impl Iterator for Chain {
    type Item = Arc<Task>;

    fn next(&mut self) -> Option<Arc<Task>> {
        if self.left == 0 || self.head.is_null() {
            return None;
        }
        let raw = self.head;
        self.left -= 1;
        // SAFETY: the chain holds a reference to every record on it (see
        // `Chain::new`), so `raw` is live. Its link is read before that
        // reference is handed over, after which the record may run and be
        // delivered again.
        unsafe {
            self.head = (*raw).mail_next.load(Ordering::Relaxed);
            Some(Arc::from_raw(raw))
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.left))
    }
}

impl ExactSizeIterator for Chain {
    fn len(&self) -> usize {
        // An upper bound: `push_batch` only uses it for capacity sizing and
        // publishes exactly the yielded count.
        self.left
    }
}

/// Reverse a list swapped out of a mailbox (newest first) in place and
/// return its oldest record.
///
/// # Safety
///
/// `node` is null or heads a list the caller swapped out of a mailbox with
/// an acquiring swap, so it holds one reference to every record on it and
/// sees every pusher's link.
unsafe fn reverse(mut node: *mut Task) -> *mut Task {
    let mut reversed = std::ptr::null_mut();
    while !node.is_null() {
        // SAFETY: `node` is on the caller's list (see `# Safety`), so the
        // record is live and its link ours to rewrite.
        let link = unsafe { &(*node).mail_next };
        let next = link.load(Ordering::Relaxed);
        link.store(reversed, Ordering::Relaxed);
        reversed = node;
        node = next;
    }
    reversed
}

/// A worker's mail: an intrusive lock-free list in the style of Linux's
/// `llist` that any thread pushes onto, plus the `ready` chain on which the
/// worker parks the remainder of a long take.
///
/// **Push.** A pusher links its record — or a batch it chained privately —
/// to the head it read, and CASes the head to its newest record. Nothing is
/// allocated: the record carries the link.
///
/// **Take.** A taker swaps the whole list out and reverses it in place,
/// oldest first. No thread ever unlinks a single record, so the push CAS
/// has no ABA hazard: if the head a pusher read was taken, run, recycled
/// and pushed again in the meantime, it is the head again, and linking to
/// it is still right.
///
/// **Ready.** A take keeps the oldest record, moves up to [`MAIL_REFILL`]
/// more onto the taker's stealable deque and parks the rest on the taker's
/// own `ready` slot, which a later take empties first, so one worker runs
/// its mail in delivery order. Only the owning worker stores a non-null
/// chain there, and only into an empty slot: it takes mail (its own or a
/// victim's) only after finding its deque and `ready` empty. Any thread may
/// swap the whole chain out, so work parked by a worker that then blocks
/// (in a nested barrier inside a task body) is never stranded.
struct Mailbox {
    /// Newest delivered record; each record links to the one delivered
    /// before it.
    incoming: AtomicPtr<Task>,
    /// Records delivered here minus records this worker took off a
    /// mailbox, its own or a victim's. Only the sum over a [`QueueSet`]
    /// counts anything: a thief uncounts what it takes in its own mailbox,
    /// so one mailbox's figure may run negative. Counted before the push
    /// CAS, uncounted after the take.
    queued: AtomicIsize,
    /// Oldest-first remainder of a take (see the type docs).
    ready: AtomicPtr<Task>,
}

impl Mailbox {
    fn new() -> Mailbox {
        Mailbox {
            incoming: AtomicPtr::new(std::ptr::null_mut()),
            queued: AtomicIsize::new(0),
            ready: AtomicPtr::new(std::ptr::null_mut()),
        }
    }

    /// Deliver one record: one CAS, no allocation.
    fn push(&self, task: Arc<Task>) {
        let raw = Arc::into_raw(task) as *mut Task;
        // SAFETY: a one-record chain carrying the reference just given up.
        unsafe { self.publish(raw, raw, 1) };
    }

    /// Deliver a batch in order with **one** CAS: the records are chained
    /// privately first, then spliced in as a whole.
    fn push_batch(&self, tasks: impl Iterator<Item = Arc<Task>>) {
        let mut oldest: *mut Task = std::ptr::null_mut();
        let mut newest: *mut Task = std::ptr::null_mut();
        let mut count = 0;
        for task in tasks {
            if newest.is_null() {
                oldest = Arc::as_ptr(&task) as *mut Task;
            } else {
                // Relaxed: the chain is published as a whole by the release
                // CAS in `publish`.
                task.mail_next.store(newest, Ordering::Relaxed);
            }
            newest = Arc::into_raw(task) as *mut Task;
            count += 1;
        }
        if count > 0 {
            // SAFETY: the loop above chained `newest` back to `oldest`, each
            // record carrying the reference given up by `into_raw`.
            unsafe { self.publish(newest, oldest, count) };
        }
    }

    /// Link the private chain `newest ..= oldest` of `count` records on top
    /// of the list.
    ///
    /// # Safety
    ///
    /// `newest` links through `mail_next` to `oldest` over `count` records,
    /// each carrying one reference that the list takes over, and no other
    /// thread can reach any of them.
    unsafe fn publish(&self, newest: *mut Task, oldest: *mut Task, count: usize) {
        self.queued.fetch_add(count as isize, Ordering::Relaxed);
        // SAFETY: the chain holds a reference to `oldest`, and nobody else
        // sees it before the CAS below succeeds.
        let link = unsafe { &(*oldest).mail_next };
        let mut head = self.incoming.load(Ordering::Relaxed);
        loop {
            link.store(head, Ordering::Relaxed);
            // SeqCst: the pre-park re-check (`has_mail`) reads `incoming`,
            // so the push must be in the SC order with the sleep-flag
            // protocol; its release half publishes the chain's links.
            match self.incoming.compare_exchange_weak(
                head,
                newest,
                Ordering::SeqCst,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(current) => head = current,
            }
        }
    }

    /// Take the oldest mail on behalf of the worker owning `deque` and
    /// `home`: this mailbox's `ready` chain if it holds one, else all that
    /// was delivered. Returns the oldest record, moves up to
    /// [`MAIL_REFILL`] more onto `deque` and parks the rest on `home`'s
    /// `ready` slot, which must be empty (see the type docs). The owner
    /// passes its own mailbox as `self` and `home`; a thief passes a
    /// victim's as `self`.
    fn take_into(&self, deque: &StealQueue, home: &Mailbox) -> Option<Arc<Task>> {
        // Each slot is loaded before it is swapped, so an idle worker
        // polling empty slots does not pull the line away from a pusher.
        let mut oldest = std::ptr::null_mut();
        if !self.ready.load(Ordering::Relaxed).is_null() {
            oldest = self.ready.swap(std::ptr::null_mut(), Ordering::SeqCst);
        }
        if oldest.is_null() {
            if self.incoming.load(Ordering::Relaxed).is_null() {
                return None;
            }
            let newest = self.incoming.swap(std::ptr::null_mut(), Ordering::SeqCst);
            // SAFETY: the swap took the whole list, and its acquire pairs
            // with the pushers' release CAS.
            oldest = unsafe { reverse(newest) };
        }
        // SAFETY: `oldest` heads a chain this thread swapped out whole, of
        // `ready` or of the reversed delivered list.
        let mut chain = unsafe { Chain::new(oldest, 1 + MAIL_REFILL) };
        let first = chain.next()?;
        deque.push_batch(&mut chain);
        home.queued
            .fetch_sub((1 + MAIL_REFILL - chain.left) as isize, Ordering::Relaxed);
        if !chain.head.is_null() {
            debug_assert!(
                home.ready.load(Ordering::Relaxed).is_null(),
                "a take parks its remainder only in an empty ready slot"
            );
            // SeqCst: the pre-park re-check reads `ready` too; the release
            // half publishes the reversed links to whoever swaps it out.
            home.ready.store(chain.head, Ordering::SeqCst);
        }
        Some(first)
    }

    /// Whether anything waits here, delivered or parked (racy; for the
    /// sleep path under the Dekker pairing with the pusher's wakeup).
    fn has_mail(&self) -> bool {
        !self.incoming.load(Ordering::SeqCst).is_null() || self.has_ready()
    }

    fn has_ready(&self) -> bool {
        !self.ready.load(Ordering::SeqCst).is_null()
    }
}

impl Drop for Mailbox {
    fn drop(&mut self) {
        // SAFETY: exclusive access, so both lists and the references they
        // carry are ours; the order they are released in does not matter.
        unsafe {
            Chain::new(*self.incoming.get_mut(), usize::MAX).for_each(drop);
            Chain::new(*self.ready.get_mut(), usize::MAX).for_each(drop);
        }
    }
}

/// One worker's queues.
pub(crate) struct WorkerQueue {
    /// Owner-pushed work: dependence successors released by this worker,
    /// halves deposited by its steals, and runs moved here from mail.
    pub(crate) deque: StealQueue,
    /// Work delivered by other threads (master round-robin distribution,
    /// successors released by sibling workers).
    mailbox: Mailbox,
}

impl WorkerQueue {
    fn new() -> WorkerQueue {
        WorkerQueue {
            deque: StealQueue::new(),
            mailbox: Mailbox::new(),
        }
    }

    /// Owner pop: oldest own-deque task first, then the `ready` chain, then
    /// the delivered mail. Returns the task plus whether the pop left new
    /// stealable work behind (so the caller can wake a stealer).
    fn pop(&self) -> (Option<Arc<Task>>, bool) {
        if let Some(task) = self.deque.take() {
            return (Some(task), false);
        }
        match self.mailbox.take_into(&self.deque, &self.mailbox) {
            Some(task) => (Some(task), self.has_backlog()),
            None => (None, false),
        }
    }

    /// Work besides the mail that the owner's thieves can take: the deque
    /// and the `ready` chain.
    fn has_backlog(&self) -> bool {
        !self.deque.is_empty() || self.mailbox.has_ready()
    }

    fn has_work(&self) -> bool {
        !self.deque.is_empty() || self.mailbox.has_mail()
    }
}

/// The set of all worker queues plus the round-robin cursor used to
/// distribute tasks, mirroring the paper's master/slave layout.
pub(crate) struct QueueSet {
    workers: Box<[WorkerQueue]>,
    next: AtomicUsize,
}

/// Result of a local pop: the task (if any) plus whether the pop published
/// new stealable work (a take from mail) that may warrant waking a stealer.
pub(crate) struct LocalPop {
    pub(crate) task: Option<Arc<Task>>,
    pub(crate) refilled: bool,
}

/// Result of a batched enqueue: the consecutive worker range that received
/// chunks.
pub(crate) struct BatchPush {
    pub(crate) first: usize,
    pub(crate) touched: usize,
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
    /// mailboxes, the paper's distribution scheme; a mailbox is unbounded,
    /// so producers never stall.
    pub(crate) fn push(&self, task: Arc<Task>, local: Option<usize>) -> usize {
        if let Some(worker) = local {
            debug_assert!(worker < self.workers.len());
            self.workers[worker].deque.push(task);
            return worker;
        }
        let target = self.next.fetch_add(1, Ordering::Relaxed) % self.workers.len();
        self.workers[target].mailbox.push(task);
        target
    }

    /// Batched enqueue: place `tasks` in sticky round-robin chunks of
    /// [`BATCH_CHUNK`] consecutive tasks per worker (cache locality inside
    /// the chunk, spread across the batch), one mailbox CAS per chunk. The
    /// returned [`BatchPush`] tells the caller which consecutive workers
    /// received chunks, for one coalesced wake instead of one per task.
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
            };
        }
        if let Some(worker) = local {
            debug_assert!(worker < self.workers.len());
            self.workers[worker].deque.push_batch(tasks);
            return BatchPush {
                first: worker,
                touched: 1,
            };
        }
        let count = self.workers.len();
        let chunks = tasks.len().div_ceil(BATCH_CHUNK);
        let first = self.next.fetch_add(chunks, Ordering::Relaxed) % count;
        for chunk in 0..chunks {
            let target = (first + chunk) % count;
            self.workers[target]
                .mailbox
                .push_batch(tasks.by_ref().take(BATCH_CHUNK));
        }
        BatchPush {
            first,
            touched: chunks.min(count),
        }
    }

    /// Worker-local pop: oldest own-deque task first, then the worker's
    /// mail (a run of which moves onto the deque, stealable).
    pub(crate) fn pop_local(&self, worker: usize) -> LocalPop {
        let (task, refilled) = self.workers[worker].pop();
        LocalPop { task, refilled }
    }

    /// Attempt a steal on behalf of `thief`, whose own queues must be
    /// empty (it found nothing to pop): scan the other workers' deques and
    /// mailboxes. A deque gives up half its run, a mailbox its `ready`
    /// chain or all its delivered mail; either way the thief keeps the
    /// oldest task and its own deque and `ready` slot take the rest,
    /// stealable in turn. Mail is fair game, so work delivered to a worker
    /// that then blocked (e.g. in a nested barrier inside a task body) is
    /// rescued by the rest of the pool.
    pub(crate) fn steal(&self, thief: usize) -> Option<Arc<Task>> {
        let count = self.workers.len();
        let own = &self.workers[thief];
        for offset in 1..count {
            let victim = &self.workers[(thief + offset) % count];
            if let Some(task) = victim.deque.steal_half_into(&own.deque, STEAL_BATCH_MAX) {
                return Some(task);
            }
            if let Some(task) = victim.mailbox.take_into(&own.deque, &own.mailbox) {
                return Some(task);
            }
        }
        None
    }

    /// Capacity of `worker`'s deque ring.
    #[cfg(test)]
    pub(crate) fn deque_capacity(&self, worker: usize) -> u64 {
        self.workers[worker].deque.capacity_and_retired().0
    }

    /// Whether `worker`'s own deque or `ready` chain holds work — after a
    /// successful steal this means the steal deposited surplus tasks, and
    /// the caller should invite another sleeper (wake propagation).
    pub(crate) fn has_local_backlog(&self, worker: usize) -> bool {
        self.workers[worker].has_backlog()
    }

    /// Whether any queue holds work (racy; used by the sleep protocol under
    /// the Dekker pairing described in [`crate::sync::Parker`], and by
    /// shutdown). Every structure counted here — deque, delivered mail,
    /// `ready` chain — is reachable by any awake worker.
    pub(crate) fn any_work(&self) -> bool {
        self.workers.iter().any(WorkerQueue::has_work)
    }

    /// Total queued (issued but not yet started) tasks, racy. Drives the
    /// brownout overload controller's queue-depth watermark (amortised:
    /// sampled once per recompute tick, not per task) and tests.
    pub(crate) fn total_queued(&self) -> usize {
        let deques: usize = self.workers.iter().map(|w| w.deque.len()).sum();
        let mail: isize = self
            .workers
            .iter()
            .map(|w| w.mailbox.queued.load(Ordering::Relaxed))
            .sum();
        deques + mail.max(0) as usize
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

    /// Ids of everything `worker` pops, in order, until it runs dry.
    fn drain(set: &QueueSet, worker: usize) -> Vec<u64> {
        std::iter::from_fn(|| set.pop_local(worker).task)
            .map(|task| task.id.0)
            .collect()
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
    fn steal_queue_push_batch_grows_once() {
        let q = StealQueue::new();
        q.push(task(0));
        q.push_batch((1..1000u32).map(|i| task(u64::from(i))));
        let (capacity, retired) = q.capacity_and_retired();
        assert_eq!(
            (capacity, retired),
            (1024, 1),
            "one buffer retired per batch"
        );
        for i in 0..1000 {
            assert_eq!(q.take().unwrap().id, TaskId(i));
        }
        // A batch that fits in twice the ring still doubles it.
        let q = StealQueue::new();
        q.push_batch((0..65u32).map(|i| task(u64::from(i))));
        assert_eq!(q.capacity_and_retired(), (128, 1));
    }

    #[test]
    fn mailbox_runs_single_pushes_and_batches_in_delivery_order() {
        let set = QueueSet::new(1);
        let mailbox = &set.workers[0].mailbox;
        mailbox.push(task(0));
        mailbox.push_batch((1..40).map(task));
        mailbox.push(task(40));
        mailbox.push_batch(std::iter::empty());
        assert_eq!(set.total_queued(), 41);
        // A take moves a run onto the deque and parks the rest on `ready`;
        // pushes after it queue behind both.
        let first = set.pop_local(0);
        assert_eq!(first.task.unwrap().id, TaskId(0));
        assert!(first.refilled, "the take left stealable work behind");
        mailbox.push_batch((41..300).map(task));
        mailbox.push(task(300));
        let order = drain(&set, 0);
        assert_eq!(order, (1..=300).collect::<Vec<_>>());
        assert_eq!(set.workers[0].deque.len(), 0);
        assert!(!set.any_work());
        assert_eq!(set.total_queued(), 0);
    }

    #[test]
    fn mailbox_take_bounds_the_run_moved_onto_the_deque() {
        let set = QueueSet::new(1);
        set.workers[0].mailbox.push_batch((0..1000).map(task));
        assert_eq!(set.pop_local(0).task.unwrap().id, TaskId(0));
        assert_eq!(set.workers[0].deque.len(), MAIL_REFILL);
        assert!(set.workers[0].mailbox.has_ready());
        assert_eq!(set.total_queued(), 999);
        // The ring never grew past its initial size for a 1000-task backlog.
        assert_eq!(set.workers[0].deque.capacity_and_retired(), (64, 0));
    }

    #[test]
    fn mailbox_delivers_exactly_once_while_taken_records_are_pushed_again() {
        // Four producers push into one mailbox while two takers swap it out;
        // each taker pushes every record it sees for the first time straight
        // back, so recycled addresses keep re-entering the head while other
        // pushers' CASes are in flight.
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 5_000;
        const TOTAL: usize = (PRODUCERS * PER_PRODUCER) as usize;
        for _ in 0..5 {
            let shared = Arc::new(Mailbox::new());
            let seen: Arc<Vec<AtomicUsize>> =
                Arc::new((0..TOTAL).map(|_| AtomicUsize::new(0)).collect());
            let delivered = Arc::new(AtomicUsize::new(0));
            let producers: Vec<_> = (0..PRODUCERS)
                .map(|p| {
                    let shared = shared.clone();
                    std::thread::spawn(move || {
                        for chunk in 0..PER_PRODUCER / 8 {
                            let ids =
                                p * PER_PRODUCER + chunk * 8..p * PER_PRODUCER + chunk * 8 + 8;
                            if chunk % 2 == 0 {
                                shared.push_batch(ids.map(task));
                            } else {
                                ids.for_each(|id| shared.push(task(id)));
                            }
                        }
                    })
                })
                .collect();
            let takers: Vec<_> = (0..2)
                .map(|_| {
                    let shared = shared.clone();
                    let seen = seen.clone();
                    let delivered = delivered.clone();
                    std::thread::spawn(move || {
                        let deque = StealQueue::new();
                        let home = Mailbox::new();
                        while delivered.load(Ordering::Relaxed) < 2 * TOTAL {
                            let next = deque
                                .take()
                                .or_else(|| home.take_into(&deque, &home))
                                .or_else(|| shared.take_into(&deque, &home));
                            let Some(record) = next else {
                                std::thread::yield_now();
                                continue;
                            };
                            delivered.fetch_add(1, Ordering::Relaxed);
                            if seen[record.id.0 as usize].fetch_add(1, Ordering::Relaxed) == 0 {
                                shared.push(record);
                            }
                        }
                        home.queued.load(Ordering::Relaxed)
                    })
                })
                .collect();
            for handle in producers {
                handle.join().unwrap();
            }
            let taker_counts: isize = takers.into_iter().map(|h| h.join().unwrap()).sum();
            assert!(seen.iter().all(|n| n.load(Ordering::Relaxed) == 2));
            assert!(!shared.has_mail());
            assert_eq!(
                shared.queued.load(Ordering::Relaxed) + taker_counts,
                0,
                "pushes and takes balance over all mailboxes"
            );
        }
    }

    #[test]
    fn thief_takes_the_ready_chain_of_a_blocked_owner() {
        let set = QueueSet::new(2);
        set.workers[0].mailbox.push_batch((0..200).map(task));
        // The owner takes its mail, then runs the deque's run dry...
        for i in 0..=MAIL_REFILL as u64 {
            assert_eq!(set.pop_local(0).task.unwrap().id, TaskId(i));
        }
        assert!(set.workers[0].deque.is_empty());
        assert!(
            set.has_local_backlog(0),
            "the rest waits on worker 0's ready chain"
        );
        // ...and blocks. A thief swaps the whole chain out.
        let first = MAIL_REFILL as u64 + 1;
        assert_eq!(set.steal(1).unwrap().id, TaskId(first));
        assert!(!set.workers[0].has_work());
        assert_eq!(set.workers[1].deque.len(), MAIL_REFILL);
        assert!(set.workers[1].mailbox.has_ready());
        assert_eq!(set.total_queued(), 200 - first as usize - 1);
        assert_eq!(drain(&set, 1), (first + 1..200).collect::<Vec<_>>());
        assert_eq!(set.total_queued(), 0);
    }

    #[test]
    fn mailbox_drop_releases_both_chains() {
        let probes: Vec<_> = (0..110).map(task).collect();
        let deque = StealQueue::new();
        let mailbox = Mailbox::new();
        mailbox.push_batch(probes[..100].iter().cloned());
        drop(mailbox.take_into(&deque, &mailbox));
        assert!(mailbox.has_ready());
        mailbox.push(probes[100].clone());
        mailbox.push_batch(probes[101..].iter().cloned());
        drop(mailbox);
        drop(deque);
        for probe in &probes {
            assert_eq!(Arc::strong_count(probe), 1, "every reference released");
        }
    }

    #[test]
    fn total_queued_follows_pushes_takes_and_a_thiefs_transfer() {
        let set = QueueSet::new(2);
        for i in 0..10 {
            set.push(task(i), None);
        }
        // Thirteen chunks: seven (208 tasks) to worker 0, six to worker 1.
        set.push_batch((10..410).map(task).collect::<Vec<_>>(), None);
        set.push(task(410), Some(1));
        assert_eq!(set.total_queued(), 411);
        // Worker 0 takes its 213 letters: one to run, 64 onto its deque,
        // 148 parked on its ready chain.
        assert!(set.pop_local(0).task.is_some());
        assert_eq!(set.total_queued(), 410);
        // Worker 1 runs its own work dry, then steals half of worker 0's
        // deque run.
        assert_eq!(drain(&set, 1).len(), 198);
        assert_eq!(set.total_queued(), 212);
        assert!(set.steal(1).is_some());
        assert_eq!(set.total_queued(), 211);
        assert_eq!(drain(&set, 1).len(), STEAL_BATCH_MAX - 1);
        while set.workers[0].deque.take().is_some() {}
        assert_eq!(set.total_queued(), 148);
        // Worker 1 then takes worker 0's ready chain and parks what its
        // deque run leaves on its own: the count moves along, never lost or
        // doubled.
        assert!(set.steal(1).is_some());
        assert_eq!(set.total_queued(), 147);
        assert!(set.workers[1].mailbox.has_ready());
        assert_eq!(drain(&set, 1).len(), 147);
        assert_eq!(set.total_queued(), 0);
        assert!(!set.any_work());
    }

    #[test]
    fn queue_set_external_push_is_round_robin() {
        let set = QueueSet::new(4);
        for i in 0..8 {
            set.push(task(i), None);
        }
        assert_eq!(set.total_queued(), 8);
        for w in 0..4 {
            assert_eq!(drain(&set, w), vec![w as u64, w as u64 + 4]);
        }
    }

    #[test]
    fn queue_set_push_batch_chunks_round_robin() {
        let set = QueueSet::new(4);
        let n = BATCH_CHUNK * 3 + 5; // four chunks
        let push = set.push_batch((0..n as u64).map(task).collect::<Vec<_>>(), None);
        assert_eq!(push.first, 0);
        assert_eq!(push.touched, 4);
        // Chunks are sticky: consecutive tasks land on the same worker.
        let chunk = BATCH_CHUNK as u64;
        for w in 0..3u64 {
            assert_eq!(
                drain(&set, w as usize),
                (w * chunk..(w + 1) * chunk).collect::<Vec<_>>()
            );
        }
        assert_eq!(drain(&set, 3), (3 * chunk..n as u64).collect::<Vec<_>>());
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
    fn queue_set_local_push_goes_to_own_deque() {
        let set = QueueSet::new(2);
        let woken = set.push(task(1), Some(1));
        assert_eq!(woken, 1);
        assert_eq!(set.workers[1].deque.len(), 1);
        assert!(!set.workers[1].mailbox.has_mail());
        assert_eq!(set.pop_local(1).task.unwrap().id, TaskId(1));
    }

    #[test]
    fn steal_scans_other_deques_and_mailboxes() {
        let set = QueueSet::new(3);
        set.push(task(7), Some(2));
        let stolen = set.steal(0).expect("worker 0 should steal from worker 2");
        assert_eq!(stolen.id, TaskId(7));
        assert!(set.steal(0).is_none());
        // Delivered mail is stealable too, and comes whole.
        set.workers[1].mailbox.push_batch((8..12).map(task));
        assert_eq!(set.steal(0).unwrap().id, TaskId(8));
        assert_eq!(set.workers[0].deque.len(), 3);
        assert!(!set.workers[1].has_work());
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
        set.workers[1].mailbox.push(task(10));
        assert!(
            set.steal(1).is_none(),
            "a worker must not steal from itself"
        );
        assert_eq!(set.workers[1].deque.len(), 1);
        assert!(set.workers[1].mailbox.has_mail());
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
