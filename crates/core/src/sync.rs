//! Low-level synchronisation primitives for the lock-free scheduler.
//!
//! Three small building blocks keep the runtime's hot path free of mutexes:
//!
//! * [`CachePadded`] — aligns per-worker state to its own cache line so
//!   sharded counters and parkers do not false-share, and keeps what the
//!   spawner writes per spawn off the lines a worker touches per task.
//! * [`Parker`] — a per-worker sleep/wake slot built on
//!   `std::thread::park`/`unpark`. The park-token semantics of the standard
//!   library (an `unpark` delivered before `park` makes the next `park`
//!   return immediately) combined with a SeqCst sleep flag give a
//!   wakeup protocol with no timed polling and no lost wakeups.
//! * [`EventCount`] — a barrier waiter used by `taskwait`. Completions only
//!   touch one atomic when nobody waits; a waiter registers itself before
//!   re-checking its predicate, so the notify side can skip the mutex
//!   entirely in the common no-waiter case without races.
//!
//! # The one seam to the standard library's concurrency
//!
//! This is the only file in `sig-core` that names `std::sync`,
//! `std::thread` or `std::hint` outside a test module (a test in this file
//! walks the sources to keep it so). Every other file takes its atomics,
//! locks, `Arc`, thread calls and spin hint from the re-exports below, laid
//! out as loom lays out its `cfg(loom)` replacements
//! (<https://github.com/tokio-rs/loom>): `crate::sync::atomic` for the
//! atomics, `crate::sync::thread` for spawning, sleeping and yielding,
//! `crate::sync::spin_loop`. A worker parks only through [`Parker::park`].
//! A deterministic model checker can therefore swap what the runtime runs
//! on by changing this file alone.

pub(crate) use std::hint::spin_loop;
pub(crate) use std::sync::{
    atomic, Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, RwLock,
};

/// Thread creation, sleeping and yielding (`std::thread`); parking goes
/// through [`Parker`].
pub(crate) mod thread {
    pub(crate) use std::thread::{available_parallelism, sleep, yield_now, Builder, JoinHandle};
}

use atomic::{AtomicU8, AtomicUsize, Ordering};
use std::thread::Thread;

/// Pads and aligns its contents to one 64-byte cache line, preventing false
/// sharing between per-worker shards.
///
/// It also carries the runtime's **one-writer-per-line rule** for the spawn →
/// execute path: no line the spawner writes once per spawn holds a field a
/// worker reads or writes once per task, and the reverse. Four lines on that
/// path are padded for it (see the runtime's "Scheduling hot path" docs):
/// the round-robin cursor and each worker's mailbox inbox in `deque.rs`, a
/// group's outstanding count and GTB buffer in `group.rs` (whose padding
/// also gives `GroupState` the 64-byte alignment that puts an
/// `Arc<GroupState>`'s reference counts on a line of their own), and the
/// runtime's task-id and outstanding counters in `runtime.rs`. Padding one
/// field shifts every field after it, so the layout tests next to each
/// (`assert_apart`) check the lines that result, not the attribute.
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    pub(crate) fn new(value: T) -> Self {
        CachePadded { value }
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

/// A field's name, byte offset and size in its struct, as [`field_span!`]
/// reads them.
#[cfg(test)]
pub(crate) type FieldSpan = (&'static str, usize, usize);

/// The size of the field `field` selects, without a value of `T`.
#[cfg(test)]
pub(crate) fn size_of_field<T, F>(_field: fn(&T) -> &F) -> usize {
    std::mem::size_of::<F>()
}

/// The [`FieldSpan`] of `$ty`'s field `$field`, which may be a nested path
/// (`mailbox.inbox`).
#[cfg(test)]
macro_rules! field_span {
    ($ty:ty, $($field:ident).+) => {
        (
            stringify!($($field).+),
            std::mem::offset_of!($ty, $($field).+),
            $crate::sync::size_of_field(|value: &$ty| &value.$($field).+),
        )
    };
}
#[cfg(test)]
pub(crate) use field_span;

/// The one-writer-per-line rule as a test: no field of `spawner` (written
/// once per spawn) may share a 64-byte line of a `T` with any field of
/// `worker` (touched once per task). Offsets map to lines only if every `T`
/// starts on a line, so `T` must be at least line-aligned. Prints the spans
/// it compared, for `--nocapture`.
#[cfg(test)]
pub(crate) fn assert_apart<T>(spawner: &[FieldSpan], worker: &[FieldSpan]) {
    let ty = std::any::type_name::<T>();
    assert!(
        std::mem::align_of::<T>() >= 64,
        "{ty} is {}-byte aligned, so its offsets do not name cache lines",
        std::mem::align_of::<T>()
    );
    let lines = |&(_, offset, size): &FieldSpan| offset / 64..=(offset + size.max(1) - 1) / 64;
    for span in spawner.iter().chain(worker) {
        println!(
            "{ty}::{}: bytes {}..{}, lines {:?}",
            span.0,
            span.1,
            span.1 + span.2,
            lines(span)
        );
    }
    for written in spawner {
        for touched in worker {
            let (a, b) = (lines(written), lines(touched));
            assert!(
                a.end() < b.start() || b.end() < a.start(),
                "{ty}: spawner-written `{}` (lines {a:?}) shares a cache line with worker-side `{}` (lines {b:?})",
                written.0,
                touched.0
            );
        }
    }
}

const AWAKE: u8 = 0;
const SLEEPING: u8 = 1;

/// One worker's sleep state plus its thread handle.
///
/// Protocol (all SeqCst so the flag and the queue state form a Dekker pair):
///
/// * the **worker** stores `SLEEPING`, then re-checks every queue; only if
///   all are empty does it call [`Parker::park`];
/// * a **producer** pushes to a queue first, then loads the flag; if it reads
///   `SLEEPING` it unparks the worker.
///
/// Either the producer's push is visible to the worker's re-check, or the
/// worker's `SLEEPING` store is visible to the producer's load — so the
/// worker can never sleep through a push. An `unpark` that arrives between
/// the flag store and the `park()` is banked as the park token.
#[derive(Debug, Default)]
pub(crate) struct Parker {
    state: AtomicU8,
    thread: OnceLock<Thread>,
}

impl Parker {
    /// Bind the parker to the calling thread. Must run before the worker's
    /// first sleep attempt; producers never unpark an unregistered parker
    /// because the worker registers before it can ever store `SLEEPING`.
    pub(crate) fn register(&self) {
        let _ = self.thread.set(std::thread::current());
    }

    /// Announce intent to sleep. Follow with a full queue re-check, then
    /// either [`Parker::cancel`] or [`Parker::park`].
    pub(crate) fn prepare_park(&self) {
        self.state.store(SLEEPING, Ordering::SeqCst);
    }

    /// Sleep until unparked, or return at once on a banked token. Called by
    /// the registered thread between [`Parker::prepare_park`] and
    /// [`Parker::cancel`]; may return spuriously.
    pub(crate) fn park(&self) {
        std::thread::park();
    }

    /// Abandon or finish a sleep attempt.
    pub(crate) fn cancel(&self) {
        self.state.store(AWAKE, Ordering::SeqCst);
    }

    /// Unpark the worker if (and only if) it announced sleep. Returns whether
    /// a wakeup was delivered.
    ///
    /// The CAS coalesces wakeups: exactly one producer per sleep episode pays
    /// the `unpark` syscall; everyone else sees `AWAKE` and skips it. Without
    /// this, a burst of pushes to a sleeping worker becomes a futex storm.
    pub(crate) fn unpark_if_sleeping(&self) -> bool {
        // Cheap load first: the scan over parkers runs on every push, and a
        // CAS (even a failing one) would bounce the line around.
        if self.state.load(Ordering::SeqCst) != SLEEPING {
            return false;
        }
        if self
            .state
            .compare_exchange(SLEEPING, AWAKE, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            if let Some(thread) = self.thread.get() {
                thread.unpark();
                return true;
            }
        }
        false
    }

    /// Unconditional unpark, used for shutdown.
    pub(crate) fn unpark_always(&self) {
        if let Some(thread) = self.thread.get() {
            thread.unpark();
        }
    }
}

/// Blocking predicate waiter for `taskwait`-style barriers.
///
/// The notify side is a single SeqCst load when no thread waits, replacing
/// the seed design's mutex acquisition plus condvar broadcast on **every**
/// task completion. Waiters register in `waiters` *before* re-checking their
/// predicate; notifiers make the predicate true *before* loading `waiters`.
/// In the SeqCst total order one of the two always observes the other, so a
/// waiter can never sleep through the notification that would have released
/// it — without any timed re-check.
#[derive(Debug, Default)]
pub(crate) struct EventCount {
    waiters: AtomicUsize,
    lock: Mutex<()>,
    condvar: Condvar,
}

impl EventCount {
    /// Block until `predicate()` returns true. The predicate is re-evaluated
    /// after every notification (and on spurious wakeups).
    pub(crate) fn wait(&self, predicate: impl Fn() -> bool) {
        if predicate() {
            return;
        }
        loop {
            let guard = self.lock.lock().unwrap();
            self.waiters.fetch_add(1, Ordering::SeqCst);
            if predicate() {
                self.waiters.fetch_sub(1, Ordering::SeqCst);
                return;
            }
            let guard = self.condvar.wait(guard).unwrap();
            self.waiters.fetch_sub(1, Ordering::SeqCst);
            drop(guard);
            if predicate() {
                return;
            }
        }
    }

    /// Wake all waiters so they re-check their predicates. Cheap (one atomic
    /// load) when nobody waits.
    pub(crate) fn notify(&self) {
        if self.waiters.load(Ordering::SeqCst) > 0 {
            let _guard = self.lock.lock().unwrap();
            self.condvar.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::{Path, PathBuf};
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    /// Whether `code` names `std::sync`, `std::thread` or `std::hint` (or
    /// their `core` and `alloc` twins), as a path or as an item of a grouped
    /// `std::{...}` import.
    fn names_std_concurrency(code: &str) -> bool {
        let is_ident = |c: char| c.is_alphanumeric() || c == '_';
        for root in ["std", "core", "alloc"] {
            let prefix = format!("{root}::");
            for (at, _) in code.match_indices(&prefix) {
                if code[..at].chars().next_back().is_some_and(is_ident) {
                    continue; // `sig_core::`, not `core::`
                }
                let rest = &code[at + prefix.len()..];
                let items = match rest.strip_prefix('{') {
                    Some(group) => group_items(group),
                    None => vec![rest],
                };
                for item in items {
                    let head: String = item
                        .trim_start()
                        .chars()
                        .take_while(|&c| is_ident(c))
                        .collect();
                    if ["sync", "thread", "hint"].contains(&head.as_str()) {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// The top-level items of a `{...}` group, `group` starting after its
    /// opening brace.
    fn group_items(group: &str) -> Vec<&str> {
        let (mut items, mut depth, mut start) = (Vec::new(), 0usize, 0);
        for (at, c) in group.char_indices() {
            match c {
                '{' => depth += 1,
                '}' if depth == 0 => {
                    items.push(&group[start..at]);
                    break;
                }
                '}' => depth -= 1,
                ',' if depth == 0 => {
                    items.push(&group[start..at]);
                    start = at + 1;
                }
                _ => {}
            }
        }
        items
    }

    /// Every `.rs` file under `dir`, recursively.
    fn sources(dir: &Path) -> Vec<PathBuf> {
        let mut files = Vec::new();
        for entry in std::fs::read_dir(dir).expect("source directory") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                files.extend(sources(&path));
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                files.push(path);
            }
        }
        files
    }

    #[test]
    fn the_seam_guard_sees_paths_and_grouped_imports() {
        assert!(names_std_concurrency("use std::sync::Arc;"));
        assert!(names_std_concurrency("    std::hint::spin_loop();"));
        assert!(names_std_concurrency(
            "use std::{\n    cell::Cell,\n    thread::{self, JoinHandle},\n};"
        ));
        assert!(names_std_concurrency("use core::sync::atomic::AtomicU8;"));
        assert!(!names_std_concurrency("use crate::sync::{thread, Arc};"));
        assert!(!names_std_concurrency(
            "use std::{cell::Cell, time::Duration};"
        ));
        assert!(!names_std_concurrency("sig_core::sync; std::thread_local!"));
    }

    /// The seam: no `sig-core` source but this one names the standard
    /// library's concurrency before its test module, so a model checker
    /// can swap what the runtime runs on here alone. Comment lines are
    /// skipped: a doc example compiles as a crate of its own, outside the
    /// seam.
    #[test]
    fn only_the_sync_module_names_std_concurrency() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let mut offenders = Vec::new();
        for path in sources(&root) {
            if path == root.join("sync.rs") {
                continue;
            }
            let source = std::fs::read_to_string(&path).expect("readable source");
            let code: Vec<&str> = source
                .lines()
                .take_while(|line| !line.starts_with("mod tests"))
                .filter(|line| !line.trim_start().starts_with("//"))
                .collect();
            if names_std_concurrency(&code.join("\n")) {
                offenders.push(path);
            }
        }
        assert!(
            offenders.is_empty(),
            "import atomics, locks, `Arc`, thread calls and `spin_loop` from `crate::sync`: {offenders:?}"
        );
    }

    #[test]
    fn cache_padded_is_line_aligned() {
        assert_eq!(std::mem::align_of::<CachePadded<u8>>(), 64);
        let padded = CachePadded::new(7u32);
        assert_eq!(*padded, 7);
    }

    #[test]
    fn event_count_immediate_predicate() {
        let ec = EventCount::default();
        ec.wait(|| true);
    }

    #[test]
    fn event_count_wakes_waiter() {
        let ec = Arc::new(EventCount::default());
        let flag = Arc::new(AtomicBool::new(false));
        let handle = {
            let ec = ec.clone();
            let flag = flag.clone();
            std::thread::spawn(move || {
                ec.wait(|| flag.load(Ordering::SeqCst));
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        flag.store(true, Ordering::SeqCst);
        ec.notify();
        handle.join().unwrap();
    }

    #[test]
    fn event_count_many_waiters() {
        let ec = Arc::new(EventCount::default());
        let flag = Arc::new(AtomicBool::new(false));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let ec = ec.clone();
                let flag = flag.clone();
                std::thread::spawn(move || ec.wait(|| flag.load(Ordering::SeqCst)))
            })
            .collect();
        std::thread::sleep(Duration::from_millis(10));
        flag.store(true, Ordering::SeqCst);
        ec.notify();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn parker_unpark_before_park_is_banked() {
        let parker = Arc::new(Parker::default());
        parker.register();
        parker.prepare_park();
        assert!(parker.unpark_if_sleeping());
        // The unpark above was banked as the park token: this returns at
        // once instead of hanging.
        parker.park();
        parker.cancel();
        assert!(!parker.unpark_if_sleeping(), "awake parker must not unpark");
    }
}
