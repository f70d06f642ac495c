//! Staging: how a plain task that a thread other than a worker spawns, or
//! that a GTB flush decides, reaches a worker — as a 56-byte entry in a
//! chunk that an idle worker pulls and builds the records of from its own
//! husks.
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
//! **one** chunk — the oldest ready one, else the partial one — decides it
//! if it is a GTB window's, fills a husk from its own stash for each plain
//! entry, primes it (agnostic: accurate; LQH: undecided; GTB: the flush's
//! decision) and pushes the records onto its own deque, oldest first. A
//! plain task's record is thus built, run and blanked on one thread, and
//! one spawner's plain tasks reach one worker in spawn order, across
//! groups. Only an idle worker builds: a chunk handed to a worker as a task
//! would reach its deque ahead of the records it builds, and a take of mail
//! moves dozens of such tasks at once, which grows the ring to hold every
//! chunk's records together.
//!
//! A worker's own plain spawn keeps the direct path (a husk from its stash,
//! onto its own deque), and so does every task with a clause, which took
//! its record at spawn.
//!
//! A barrier publishes nothing: the partial chunk is already as pullable
//! as a ready one, and a barrier wakes a sleeping worker before it blocks.
//!
//! Drained chunks go back to a pool of [`CHUNK_POOL_CAP`], which the next
//! staging chunk or GTB window takes from; a barrier that finds the
//! runtime idle frees it, as it frees the husk pool.
//!
//! # Checklist for the model checker
//!
//! Unsafe blocks: none. A husk is filled and primed through `Arc::get_mut`
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

use std::collections::VecDeque;

use super::RuntimeInner;
use crate::group::{Buffered, GroupState, PlainTask, WINDOW_CHUNK};
use crate::policy::{GtbQuota, Policy};
use crate::sync::atomic::{AtomicUsize, Ordering};
use crate::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Drained chunks the pool keeps, 56 KB each at most. Without a pool a
/// worker frees each chunk it drains and the spawner allocates the next
/// one; eight cover what a spawner and its workers hand around between
/// pulls.
const CHUNK_POOL_CAP: usize = 8;

/// Entries of one group in spawn order, on their way to the worker that
/// builds their records.
pub(super) struct ReadyChunk {
    group: Arc<GroupState>,
    entries: Vec<Buffered>,
    /// A GTB window's chunk: the quota the window's chunks before this one
    /// leave, from which the pulling worker decides it. `None` for a
    /// staging chunk, whose entries are primed by the policy.
    quota: Option<GtbQuota>,
}

impl ReadyChunk {
    /// A flushed GTB window's chunk of `group`, decided from `quota`.
    pub(super) fn window(group: &Arc<GroupState>, entries: Vec<Buffered>, quota: GtbQuota) -> Self {
        ReadyChunk {
            group: group.clone(),
            entries,
            quota: Some(quota),
        }
    }
}

/// The runtime's staged and ready chunks and its pool of drained ones.
pub(super) struct Staging {
    /// Entries staged or ready: `Chunks::queued`, stored under the lock (see
    /// the module's checklist), so a worker can look without the lock
    /// whether there is anything to pull, and the brownout can count them.
    queued: AtomicUsize,
    chunks: Mutex<Chunks>,
}

struct Chunks {
    /// Chunks ready to pull, oldest first: full staging chunks and flushed
    /// GTB windows' chunks.
    ready: VecDeque<ReadyChunk>,
    /// The staging chunk that plain spawns append to.
    partial: Option<ReadyChunk>,
    /// Drained chunks, empty, each of `capacity` entries' capacity.
    pool: Vec<Vec<Buffered>>,
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
    fn fresh(&mut self) -> Vec<Buffered> {
        self.pool
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(self.capacity))
    }

    /// Move the partial chunk, if any, behind the ready ones.
    fn publish(&mut self) {
        if let Some(chunk) = self.partial.take() {
            self.ready.push_back(chunk);
        }
    }
}

impl Staging {
    /// Nothing staged, for a runtime under `policy`.
    pub(super) fn new(policy: Policy) -> Self {
        let capacity = policy
            .buffer_capacity()
            .map_or(WINDOW_CHUNK, |size| size.min(WINDOW_CHUNK));
        Staging {
            queued: AtomicUsize::new(0),
            chunks: Mutex::new(Chunks {
                ready: VecDeque::new(),
                partial: None,
                pool: Vec::new(),
                queued: 0,
                capacity,
            }),
        }
    }

    /// Never poisoned in a way that matters: nothing under the lock runs
    /// user code or panics between two updates of `queued`.
    fn lock(&self) -> MutexGuard<'_, Chunks> {
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

    /// Entries staged or ready, for the brownout's queue depth.
    pub(super) fn queued(&self) -> usize {
        self.queued.load(Ordering::Relaxed)
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
        for entry in entries {
            let fits = chunks.partial.as_ref().is_some_and(|partial| {
                Arc::ptr_eq(&partial.group, group) && partial.entries.len() < WINDOW_CHUNK
            });
            if !fits {
                chunks.publish();
                chunks.partial = Some(ReadyChunk {
                    group: group.clone(),
                    entries: chunks.fresh(),
                    quota: None,
                });
            }
            let partial = chunks.partial.as_mut().expect("a partial chunk");
            partial.entries.push(Buffered::Plain(entry));
            chunks.queued += 1;
        }
        self.staging.store_queued(chunks, was);
        drop(guard);
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
        self.staging.lock().fresh()
    }

    /// Worker `worker` found nothing to pop or steal: pull the oldest ready
    /// chunk, else the partial one, and push its records onto the worker's
    /// own deque. Returns whether there was one.
    pub(super) fn pull_staged(&self, worker: usize) -> bool {
        if !self.staging.any() {
            return false;
        }
        let (chunk, more) = {
            let mut guard = self.staging.lock();
            let chunks = &mut *guard;
            let Some(chunk) = chunks.ready.pop_front().or_else(|| chunks.partial.take()) else {
                return false;
            };
            let was = chunks.queued;
            chunks.queued -= chunk.entries.len();
            self.staging.store_queued(chunks, was);
            (chunk, chunks.queued != 0)
        };
        let ReadyChunk {
            group,
            mut entries,
            quota,
        } = chunk;
        let count = entries.len();
        self.build_records(worker, &group, &mut entries, quota);
        if count > 1 || more {
            // Stealable records, or another chunk: invite one sleeper.
            self.wake_one_sleeper(worker);
        }
        self.return_chunk(entries);
        true
    }

    /// Decide a GTB window's chunk from `quota`, in spawn order, build the
    /// records its plain entries lack from the calling worker's stash, and
    /// push them onto its own deque in one batch.
    ///
    /// A record only the chunk holds, with no pending dependence — every
    /// footprint-free record, since its spawner lets go before it can
    /// trigger a flush — is decided, released and marked enqueued through
    /// `&mut` (`Task::prime_flush_enqueued`) and goes out in the batch. A
    /// shared record — one the dependence tracker or a predecessor's
    /// successor list also holds — takes the atomic `decide` → `release` →
    /// `try_enqueue` path, whose SeqCst pairing with the last predecessor's
    /// completion is documented on `Task::release`.
    fn build_records(
        &self,
        worker: usize,
        group: &Arc<GroupState>,
        entries: &mut Vec<Buffered>,
        quota: Option<GtbQuota>,
    ) {
        let gtb = quota.is_some();
        if let Some(mut quota) = quota {
            entries.retain_mut(|entry| {
                let accurate = quota.admit(entry.significance());
                let task = match entry {
                    Buffered::Plain(plain) => {
                        plain.decision = accurate;
                        return true;
                    }
                    Buffered::Record(task) => task,
                };
                if let Some(record) = Arc::get_mut(task) {
                    if *record.pending_deps.get_mut() == 0 {
                        record.prime_flush_enqueued(accurate);
                        return true;
                    }
                }
                task.decide(accurate);
                task.release();
                self.try_enqueue(task);
                false
            });
        }
        let accurate = self.policy == Policy::SignificanceAgnostic;
        let records = entries.drain(..).map(|entry| match entry {
            Buffered::Record(task) => task,
            Buffered::Plain(plain) => {
                let mut task = self.husk_in(group);
                let t = Arc::get_mut(&mut task).expect("a husk is uniquely held");
                t.fill(
                    plain.id,
                    plain.significance,
                    plain.accurate,
                    plain.approximate,
                );
                if gtb {
                    t.prime_flush_enqueued(plain.decision);
                } else {
                    t.prime_spawn_enqueued(accurate);
                }
                task
            }
        });
        self.queues.push_batch(records, Some(worker));
    }

    /// Keep a drained chunk in the pool while the runtime is busy and the
    /// pool has room, else free it. The idle check sits under the lock that
    /// [`RuntimeInner::free_chunks_if_idle`] takes after it saw zero
    /// outstanding, as for the husk pool.
    fn return_chunk(&self, entries: Vec<Buffered>) {
        debug_assert!(entries.is_empty(), "a chunk is returned drained");
        let mut chunks = self.staging.lock();
        if chunks.pool.len() < CHUNK_POOL_CAP && self.outstanding.load(Ordering::SeqCst) != 0 {
            chunks.pool.push(entries);
            return;
        }
        drop(chunks);
        drop(entries);
    }

    /// Quiescence: free the pooled chunks, as [`RuntimeInner::free_husks_if_idle`]
    /// frees the husks. Called once it found nothing outstanding.
    pub(super) fn free_chunks_if_idle(&self) {
        let pooled = std::mem::take(&mut self.staging.lock().pool);
        // Freed outside the lock.
        drop(pooled);
    }
}
