//! Staging: how a plain task that a thread other than a worker spawns, or
//! that a GTB flush decides, reaches a worker — as a 56-byte entry in a
//! chunk, which idle workers pull in *shares* and run with no record at
//! all.
//!
//! A plain spawn (no keys, deadline, token or handle) from a thread that is
//! not one of the runtime's workers takes no record under any policy. Under
//! the agnostic policy and LQH it appends a [`PlainTask`] to the runtime's
//! one *partial* staging chunk, which holds the tasks of one group in spawn
//! order: a spawn into another group, or into a full chunk of
//! [`WINDOW_CHUNK`] entries, moves the partial chunk to the *ready* list and
//! starts a new one. Under GTB the entry waits in its group's window (see
//! `group.rs`, "The GTB buffer"), and the flush moves the window's chunks to
//! the ready list, each with the quota the chunks before it leave.
//!
//! A worker that finds its deque and mail empty and nothing to steal pulls
//! a **share** of the oldest ready chunk, else of the partial one, under
//! the staging lock, and runs the share's plain entries itself, oldest
//! first, before it pops again: no record, no deque, no husk. A share
//! takes `min(ceil(remaining / workers), max(1, SHARE_BUDGET / mean))`
//! plain entries from the front of the chunk, where `mean` is the mean time
//! of an entry of the worker's previous share (below); a worker's first
//! share is one entry. The guided half splits a chunk among the workers; the time
//! half keeps what one worker holds to about one [`SHARE_BUDGET`] of bodies,
//! since nothing can steal an entry from a share. A GTB window's chunk is
//! decided share by share, in window order, from the quota the chunk
//! carries, as each share is taken; its `Buffered::Record` entries (tasks
//! with a clause) come with the share, without counting against it, and go
//! onto the pulling worker's deque as records, where an idle worker can
//! steal them.
//!
//! A share is taken from the front of the chunk's ring, so the rest does
//! not move, and a drained partial chunk stays where the spawner appends,
//! so a worker that keeps up with its spawner takes entries out of the same
//! 56-KB ring the spawner writes into. One spawner's plain tasks reach one
//! worker in spawn order, across groups.
//!
//! **The partial-chunk rule.** A worker takes nothing from the partial
//! chunk while it holds fewer entries than the worker's next share would
//! take (`SHARE_BUDGET / mean`, [`timed_len`]), until the worker has spun
//! through its idle spin rounds since it last found work. A worker that
//! keeps up with its spawner would otherwise take the few entries the
//! chunk holds, one pull after another, each taking the staging lock and
//! rewriting `queued`: the lines the spawner writes on every spawn. With
//! the rule it takes a spin's worth of entries at a time. A ready chunk is
//! pulled at once, whatever it holds. A barrier publishes the partial chunk
//! (moves it behind the ready ones) before it blocks, and so does the
//! runtime's drop, which waits like `wait_all`, so no barrier sits out a
//! worker's spin. A share holds one group's entries, and every barrier that
//! counts them counts the task of that group its worker is running, so a
//! barrier waits on a share at most one budget longer than on that task.
//!
//! A worker runs its share by *runs* of entries with one mode and one
//! dispatch decision, and reads the clock when a run opens and when it
//! closes (`worker.rs`). The mean that sizes its next share is the runs'
//! time over the share's entries, so it covers the runtime's per-entry
//! work inside a run (the decision, the dispatch, the statistics, tens of
//! nanoseconds) as well as the bodies: with empty bodies a share is bounded
//! by that work, no longer by the guided half alone.
//!
//! A worker's own plain spawn keeps the record path (a husk from its stash,
//! onto its own deque), and so does every task with a clause, which took
//! its record at spawn.
//!
//! Drained ready chunks go back to a pool of [`CHUNK_POOL_CAP`], which the
//! next staging chunk or GTB window takes from; a barrier that finds the
//! runtime idle frees it and a drained partial chunk, as it frees the husk
//! pool.
//!
//! # Checklist for the model checker
//!
//! Unsafe blocks: none. A window's record is primed through `Arc::get_mut`
//! before it is shared.
//!
//! Orderings weaker than SeqCst:
//!
//! * `Staging::queued`, a `Relaxed` store under the lock for every change
//!   but the one that takes it from zero, which is SeqCst, and the
//!   `Relaxed` read of the brownout's depth, a statistic. The SeqCst store
//!   and the stager's SeqCst load of `sleepers` after it pair with a
//!   parking worker's SeqCst increment of `sleepers` and SeqCst load of
//!   `queued` (the sleep flag's Dekker pair, `sync::Parker`): either the
//!   worker sees the entry or the stager sees the sleeper. A `Relaxed`
//!   store only follows a SeqCst one that no emptying pull has undone
//!   since, so a parking worker that misses it still reads a count that is
//!   not zero.
//! * `Staging::held`, each worker's count of the share entries it has not
//!   started, `Relaxed` stores by that worker and `Relaxed` loads by the
//!   brownout: a statistic.

use std::collections::VecDeque;
use std::time::Duration;

use super::RuntimeInner;
use crate::group::{Buffered, GroupState, PlainTask, WINDOW_CHUNK};
use crate::policy::{GtbQuota, Policy};
use crate::sync::atomic::{AtomicUsize, Ordering};
use crate::sync::{spin_loop, Arc, CachePadded, Mutex, MutexGuard, PoisonError, TryLockError};
use crate::task::Task;

/// Drained chunks the pool keeps, 56 KB each at most. Without a pool a
/// worker frees each chunk it drains and the spawner allocates the next
/// one; eight cover what a spawner and its workers hand around between
/// pulls.
const CHUNK_POOL_CAP: usize = 8;

/// Tries for the staging lock before a thread sleeps in the mutex: far
/// longer than any holder keeps it, unless the holder was preempted, and
/// then a sleep is what the waiter wants.
const LOCK_TRIES: u32 = 1 << 12;

/// The body time a worker's share of a chunk holds, about: it bounds the
/// work one worker holds that nothing can steal, and so how long a barrier
/// waits on one worker while the others have run dry, and how long a
/// record that reaches the worker's deque waits behind a share.
const SHARE_BUDGET: Duration = Duration::from_micros(20);

/// Plain entries that hold about one [`SHARE_BUDGET`] of work when an entry
/// of the worker's previous share took `mean_nanos` on average (`None`: no
/// share yet, so one): the most a worker's next share takes.
fn timed_len(mean_nanos: Option<u64>) -> usize {
    mean_nanos.map_or(1, |mean| {
        (SHARE_BUDGET.as_nanos() as u64 / mean.max(1)).max(1) as usize
    })
}

/// Plain entries a worker's share takes from a chunk holding `remaining`
/// entries, at `workers` workers, when an entry of the worker's previous
/// share took `mean_nanos` on average.
fn share_len(remaining: usize, workers: usize, mean_nanos: Option<u64>) -> usize {
    remaining.div_ceil(workers).min(timed_len(mean_nanos))
}

/// Entries of one group in spawn order, on their way to the workers.
pub(super) struct ReadyChunk {
    group: Arc<GroupState>,
    /// A ring, so a share is taken from the front without moving the rest.
    entries: VecDeque<Buffered>,
    /// A GTB window's chunk: the quota the window's entries before the
    /// chunk's first one leave, from which each share is decided as it is
    /// taken. `None` for a staging chunk, whose entries the policy decides.
    quota: Option<GtbQuota>,
}

impl ReadyChunk {
    /// A flushed GTB window's chunk of `group`, decided from `quota`.
    pub(super) fn window(group: &Arc<GroupState>, entries: Vec<Buffered>, quota: GtbQuota) -> Self {
        ReadyChunk {
            group: group.clone(),
            entries: entries.into(),
            quota: Some(quota),
        }
    }
}

/// What a worker took from a chunk: the plain entries it runs before it
/// pops again, and the mean time of an entry of the last share it ran,
/// which sizes its next one.
#[derive(Default)]
pub(super) struct Share {
    /// The group of the chunk the share came from; kept across shares of
    /// one group, and let go when the worker runs out of work.
    pub(super) group: Option<Arc<GroupState>>,
    /// Oldest first, each decided if it came from a GTB window.
    pub(super) entries: Vec<PlainTask>,
    /// A GTB window's records taken with the entries, with their decisions.
    records: Vec<(Arc<Task>, bool)>,
    /// The last share's time over its entries: the windows of its runs,
    /// which cover the bodies and the runtime's work between them, over
    /// every entry it held, abandoned ones included.
    pub(super) mean_nanos: Option<u64>,
}

/// The runtime's staged and ready chunks and its pool of drained ones.
pub(super) struct Staging {
    /// Entries staged or ready: `Chunks::queued`, stored under the lock (see
    /// the module's checklist), so a worker can look without the lock
    /// whether there is anything to pull.
    queued: AtomicUsize,
    /// Per worker, the entries of its share it has not started: queued as
    /// much as a staged entry, for the brownout's depth.
    held: Box<[CachePadded<AtomicUsize>]>,
    chunks: Mutex<Chunks>,
}

struct Chunks {
    /// Chunks ready to pull, oldest first, none empty: full staging chunks
    /// and flushed GTB windows' chunks.
    ready: VecDeque<ReadyChunk>,
    /// The staging chunk that plain spawns append to, which may be empty.
    partial: Option<ReadyChunk>,
    /// Drained chunks, empty, each of `capacity` entries' capacity.
    pool: Vec<VecDeque<Buffered>>,
    /// Entries in `ready` and `partial`.
    queued: usize,
    /// Entries a chunk holds: [`WINDOW_CHUNK`], or a smaller GTB buffer's
    /// size, whose windows would leave the rest of a chunk unused.
    capacity: usize,
}

impl Chunks {
    /// An empty chunk: a drained one from the pool, else a new one. Either
    /// way it holds a whole chunk, so no chunk grows by copying, and every
    /// drained one is worth pooling.
    fn fresh(&mut self) -> VecDeque<Buffered> {
        self.pool
            .pop()
            .unwrap_or_else(|| VecDeque::with_capacity(self.capacity))
    }

    /// Keep a drained chunk in the pool if it has room; else hand it back
    /// to be freed outside the lock. Called only while entries are
    /// outstanding (see [`RuntimeInner::free_chunks_if_idle`]).
    fn give_back(&mut self, entries: VecDeque<Buffered>) -> Option<VecDeque<Buffered>> {
        debug_assert!(entries.is_empty(), "a chunk is given back drained");
        if self.pool.len() < CHUNK_POOL_CAP {
            self.pool.push(entries);
            return None;
        }
        Some(entries)
    }

    /// Move the partial chunk, if any, behind the ready ones, or into the
    /// pool if workers drained it.
    fn publish(&mut self) -> Option<VecDeque<Buffered>> {
        let chunk = self.partial.take()?;
        if chunk.entries.is_empty() {
            return self.give_back(chunk.entries);
        }
        self.ready.push_back(chunk);
        None
    }

    /// The chunk a worker takes its next share from: the oldest ready one,
    /// else the partial one if it holds a whole share's worth of entries for
    /// a worker whose last share ran entries of `mean_nanos`, or anything
    /// for a worker that `spun_out` (see the module docs).
    fn pullable(&mut self, mean_nanos: Option<u64>, spun_out: bool) -> Option<&mut ReadyChunk> {
        if let Some(chunk) = self.ready.front_mut() {
            return Some(chunk);
        }
        self.partial.as_mut().filter(|chunk| {
            let staged = chunk.entries.len();
            staged != 0 && (spun_out || staged >= timed_len(mean_nanos))
        })
    }
}

impl Staging {
    /// Nothing staged, for a runtime of `workers` workers under `policy`.
    pub(super) fn new(policy: Policy, workers: usize) -> Self {
        let capacity = policy
            .buffer_capacity()
            .map_or(WINDOW_CHUNK, |size| size.min(WINDOW_CHUNK));
        Staging {
            queued: AtomicUsize::new(0),
            held: (0..workers)
                .map(|_| CachePadded::new(AtomicUsize::new(0)))
                .collect(),
            chunks: Mutex::new(Chunks {
                ready: VecDeque::new(),
                partial: None,
                pool: Vec::new(),
                queued: 0,
                capacity,
            }),
        }
    }

    /// The lock, spun for before it is slept on. Every holder keeps it for
    /// a short copy: a spawner appending an entry, a worker taking a share
    /// of at most about one [`SHARE_BUDGET`] of entries, a flush queueing
    /// its chunks. A thread asleep in the mutex makes the holder's unlock a
    /// futex wake, a system call, and a worker that keeps up with its
    /// spawner meets it there every share: `sched_fine` read about one
    /// voluntary context switch per thousand tasks when spawner and worker
    /// slept in the mutex, against 0.02 when both spin. Never poisoned in a
    /// way that matters: nothing under the lock runs user code or panics
    /// between two updates of `queued`.
    fn lock(&self) -> MutexGuard<'_, Chunks> {
        for _ in 0..LOCK_TRIES {
            match self.chunks.try_lock() {
                Ok(guard) => return guard,
                Err(TryLockError::Poisoned(poisoned)) => return poisoned.into_inner(),
                Err(TryLockError::WouldBlock) => spin_loop(),
            }
        }
        self.chunks.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Publish `chunks.queued`, which was `was` when the lock was taken.
    fn store_queued(&self, chunks: &Chunks, was: usize) {
        let order = if was == 0 {
            Ordering::SeqCst
        } else {
            Ordering::Relaxed
        };
        self.queued.store(chunks.queued, order);
    }

    /// Entries staged, ready or held in a share and not started, for the
    /// brownout's queue depth.
    pub(super) fn queued(&self) -> usize {
        let held: usize = self
            .held
            .iter()
            .map(|held| held.load(Ordering::Relaxed))
            .sum();
        self.queued.load(Ordering::Relaxed) + held
    }

    /// Worker `worker`'s count of the entries of its share it has not
    /// started, which it stores as it starts each. The worker looks it up
    /// once: `held`'s pointer shares the line the spawner writes on every
    /// staged spawn, and a worker reading that line once per task would
    /// cost the spawner a miss per task.
    pub(super) fn held(&self, worker: usize) -> &AtomicUsize {
        &self.held[worker]
    }

    /// Whether anything is staged or ready: a worker's pre-park re-check,
    /// and its look before it takes the lock to pull.
    pub(super) fn any(&self) -> bool {
        self.queued.load(Ordering::SeqCst) != 0
    }
}

impl RuntimeInner {
    /// Stage plain tasks of `group`, spawned in this order by a thread that
    /// is not a worker, and wake a sleeping worker to pull them.
    pub(super) fn stage(
        &self,
        group: &Arc<GroupState>,
        entries: impl IntoIterator<Item = PlainTask>,
    ) {
        let mut guard = self.staging.lock();
        let chunks = &mut *guard;
        let was = chunks.queued;
        let mut freed = None;
        for entry in entries {
            let fits = chunks.partial.as_ref().is_some_and(|partial| {
                Arc::ptr_eq(&partial.group, group) && partial.entries.len() < WINDOW_CHUNK
            });
            if !fits {
                freed = freed.or(chunks.publish());
                chunks.partial = Some(ReadyChunk {
                    group: group.clone(),
                    entries: chunks.fresh(),
                    quota: None,
                });
            }
            let partial = chunks.partial.as_mut().expect("a partial chunk");
            partial.entries.push_back(Buffered::Plain(entry));
            chunks.queued += 1;
        }
        self.staging.store_queued(chunks, was);
        drop(guard);
        drop(freed);
        self.wake_one_sleeper(usize::MAX);
    }

    /// Queue a flushed GTB window's chunks, oldest first, and wake a
    /// sleeping worker to pull them.
    pub(super) fn push_ready(&self, ready: impl IntoIterator<Item = ReadyChunk>) {
        let mut guard = self.staging.lock();
        let chunks = &mut *guard;
        let was = chunks.queued;
        for chunk in ready {
            chunks.queued += chunk.entries.len();
            chunks.ready.push_back(chunk);
        }
        self.staging.store_queued(chunks, was);
        drop(guard);
        self.wake_one_sleeper(usize::MAX);
    }

    /// An empty chunk for a GTB window, from the pool if it has one.
    pub(super) fn fresh_chunk(&self) -> Vec<Buffered> {
        self.staging.lock().fresh().into()
    }

    /// A barrier is about to wait: move the partial chunk behind the ready
    /// ones, where a worker takes it at once instead of after its idle spin.
    pub(super) fn publish_staged(&self) {
        let freed = self.staging.lock().publish();
        // Freed outside the lock.
        drop(freed);
    }

    /// Worker `worker` found nothing to pop or steal: take a share of the
    /// oldest ready chunk, else of the partial one if it may (`spun_out`:
    /// the worker spun through its idle rounds since its last work), into
    /// `share`, deciding it if it is a GTB window's, and push the window's
    /// records it holds onto the worker's own deque. Returns whether there
    /// was one.
    pub(super) fn pull_share(&self, worker: usize, share: &mut Share, spun_out: bool) -> bool {
        if !self.staging.any() {
            return false;
        }
        let mut guard = self.staging.lock();
        let chunks = &mut *guard;
        if share.entries.capacity() < chunks.capacity {
            // The worker's first share: room for a whole chunk, which no
            // share outgrows, kept for the worker's life, so that no later
            // share allocates.
            share.entries.reserve_exact(chunks.capacity);
        }
        let from_ready = !chunks.ready.is_empty();
        let Some(chunk) = chunks.pullable(share.mean_nanos, spun_out) else {
            return false;
        };
        let want = share_len(chunk.entries.len(), self.parkers.len(), share.mean_nanos);
        if !share
            .group
            .as_ref()
            .is_some_and(|group| Arc::ptr_eq(group, &chunk.group))
        {
            share.group = Some(chunk.group.clone());
        }
        // `want` plain entries, and every record among them or before the
        // next plain one: a record goes onto the deque, where an idle worker
        // can steal it, so it does not count against the budget.
        let mut taken = 0;
        while share.entries.len() < want {
            let Some(entry) = chunk.entries.pop_front() else {
                break;
            };
            taken += 1;
            let decision = chunk
                .quota
                .as_mut()
                .map(|quota| quota.admit(entry.significance()));
            match entry {
                Buffered::Plain(mut plain) => {
                    plain.decision = decision;
                    share.entries.push(plain);
                }
                Buffered::Record(task) => share
                    .records
                    .push((task, decision.expect("a record waits only in a GTB window"))),
            }
        }
        let drained = from_ready && chunk.entries.is_empty();
        let was = chunks.queued;
        chunks.queued -= taken;
        self.staging.store_queued(chunks, was);
        self.staging.held[worker].store(share.entries.len(), Ordering::Relaxed);
        let freed = if drained {
            let chunk = chunks.ready.pop_front().expect("the chunk just drained");
            chunks.give_back(chunk.entries)
        } else {
            None
        };
        let more = chunks.queued != 0;
        drop(guard);
        drop(freed);
        let stealable = share.records.len() > 1;
        self.queue_records(worker, &mut share.records);
        if more || stealable {
            self.wake_one_sleeper(worker);
        }
        true
    }

    /// Queue a share's GTB records, decided in window order as the share
    /// was taken, onto worker `worker`'s own deque in one batch.
    ///
    /// A record only the share holds, with no pending dependence — every
    /// footprint-free record, since its spawner lets go before it can
    /// trigger a flush — is decided, released and marked enqueued through
    /// `&mut` (`Task::prime_flush_enqueued`) and goes out in the batch. A
    /// shared record — one the dependence tracker or a predecessor's
    /// successor list also holds — takes the atomic `decide` → `release` →
    /// `try_enqueue` path, whose SeqCst pairing with the last predecessor's
    /// completion is documented on `Task::release`.
    fn queue_records(&self, worker: usize, records: &mut Vec<(Arc<Task>, bool)>) {
        if records.is_empty() {
            return;
        }
        records.retain_mut(|(task, accurate)| {
            if let Some(record) = Arc::get_mut(task) {
                if *record.pending_deps.get_mut() == 0 {
                    record.prime_flush_enqueued(*accurate);
                    return true;
                }
            }
            task.decide(*accurate);
            task.release();
            self.try_enqueue(task);
            false
        });
        self.queues
            .push_batch(records.drain(..).map(|(task, _)| task), Some(worker));
    }

    /// Quiescence: free the pooled chunks and a drained partial one, as
    /// [`RuntimeInner::free_husks_if_idle`] frees the husks. Called once it
    /// found nothing outstanding, so no chunk holds an entry; a chunk given
    /// back to the pool after this is given back while entries are
    /// outstanding again.
    pub(super) fn free_chunks_if_idle(&self) {
        let (pooled, partial) = {
            let mut chunks = self.staging.lock();
            let partial = chunks.partial.take_if(|partial| partial.entries.is_empty());
            (std::mem::take(&mut chunks.pool), partial)
        };
        // Freed outside the lock.
        drop((pooled, partial));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::GroupId;
    use crate::significance::Significance;
    use crate::task::TaskId;

    /// Chunks with `staged` plain entries of one group in the partial chunk
    /// and nothing ready.
    fn partial_of(staged: u64) -> Chunks {
        let group = Arc::new(GroupState::new(0, GroupId(1), Arc::from("staged"), 1.0, 1));
        let entries = (0..staged)
            .map(|i| {
                Buffered::Plain(PlainTask::new(
                    TaskId(i),
                    Significance::new(0.5),
                    Box::new(|| {}),
                    None,
                ))
            })
            .collect();
        Chunks {
            ready: VecDeque::new(),
            partial: Some(ReadyChunk {
                group,
                entries,
                quota: None,
            }),
            pool: Vec::new(),
            queued: staged as usize,
            capacity: WINDOW_CHUNK,
        }
    }

    /// The handoff rule, with no thread and no clock: a worker whose last
    /// share ran entries of a tenth of the budget each (a share of ten)
    /// leaves a partial chunk of three to the spawner until it has spun
    /// out, takes one of ten at once, and, once a barrier has published
    /// the three, takes them at once. A worker with no share yet (a share
    /// of one) takes from any partial chunk at once.
    #[test]
    fn a_partial_chunk_below_a_share_waits_for_a_spun_out_worker_or_a_barrier() {
        let mean = Some(SHARE_BUDGET.as_nanos() as u64 / 10);
        let pulled = |chunks: &mut Chunks, mean, spun_out| {
            chunks
                .pullable(mean, spun_out)
                .map(|chunk| chunk.entries.len())
        };

        let mut chunks = partial_of(3);
        assert_eq!(pulled(&mut chunks, mean, false), None, "below a share");
        assert_eq!(pulled(&mut chunks, mean, true), Some(3), "spun out");
        assert_eq!(pulled(&mut chunks, None, false), Some(3), "a first share");
        assert_eq!(
            pulled(&mut partial_of(10), mean, false),
            Some(10),
            "a share's worth"
        );
        assert_eq!(
            pulled(&mut partial_of(0), None, true),
            None,
            "nothing staged"
        );

        // A barrier publishes the partial chunk: it is ready, and pulled at
        // once.
        assert!(chunks.publish().is_none());
        assert!(chunks.partial.is_none() && chunks.ready.len() == 1);
        assert_eq!(pulled(&mut chunks, mean, false), Some(3), "published");
    }

    #[test]
    fn a_first_share_is_one_entry_and_later_ones_hold_about_one_budget() {
        let budget = SHARE_BUDGET.as_nanos() as u64;
        assert_eq!(share_len(1_000, 1, None), 1);
        assert_eq!(share_len(1_000, 2, Some(budget / 10)), 10);
        // A body longer than the budget still moves one entry at a time.
        assert_eq!(share_len(1_000, 2, Some(10 * budget)), 1);
        // Bodies too short to time: the guided half alone.
        assert_eq!(share_len(1_000, 2, Some(0)), 500);
        assert_eq!(share_len(7, 2, Some(1)), 4);
        assert_eq!(share_len(1, 4, Some(1)), 1);
    }
}
