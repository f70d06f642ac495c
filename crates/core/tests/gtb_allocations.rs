//! Task records stay on the recycled path: once warm, a spawner feeding a
//! GTB group allocates (almost) nothing per task. Each flush must leave the
//! window the only holder of its records, so the worker that retires one can
//! blank it into a husk it reuses, and the drained chunks must come back for
//! the next windows.
//!
//! A cold GTB Max-Buffer group, which holds every task until its barrier,
//! costs at most 64 requested bytes per task on the spawner: a plain task
//! waits as a 56-byte entry in 1024-entry chunks, not as a 128-byte record.
//! Under every policy a plain task from a thread that is not a worker is
//! such an entry, which a worker runs straight from its share of the chunk
//! with no record at all, so a cold pass of any policy at one or two
//! workers, from the first spawn to the barrier's return, makes about one
//! allocation per chunk of its backlog on all threads together (see
//! `cold_pass_budget`). And a second pass while the runtime is still busy
//! takes every chunk from the pool the first one filled.
//!
//! Its own test binary: the counting global allocator below counts each
//! thread's allocations and requested bytes (thread-local counters), so
//! worker threads and the test harness do not disturb a spawner's reading,
//! and every thread's allocations together (one process-wide counter),
//! which is why each test here holds `SERIAL` while it runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use sig_core::{DepKey, Policy, Runtime, TaskGroup};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Allocations and reallocations on every thread.
static ALL_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Allocations and reallocations of at least [`CHUNK_SIZED`] bytes on every
/// thread: chunks of entries, not records.
static ALL_CHUNK_SIZED: AtomicU64 = AtomicU64::new(0);

/// Sixteen 56-byte entries: no record, boxed body or key list is this large.
const CHUNK_SIZED: usize = 16 * 56;

/// The system allocator, counting every allocation and reallocation made on
/// the calling thread, and the bytes each asked for: an allocation's size, a
/// reallocation's growth; and every thread's allocations together.
struct CountingAllocator;

fn count(bytes: usize) {
    // A const-initialised `Cell` has no destructor to register, so this
    // never allocates itself; `try_with` only fails during thread teardown.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
    ALL_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    if bytes >= CHUNK_SIZED {
        ALL_CHUNK_SIZED.fetch_add(1, Ordering::Relaxed);
    }
}

/// Held by every test of this binary: the process-wide count sees another
/// test's runtime otherwise.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

// SAFETY: every call is forwarded unchanged to `System`; counting touches
// only thread-local `Cell`s.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const BUFFER: usize = 32;
const WARM_WINDOWS: usize = 200;
const MEASURED_WINDOWS: usize = 2_000;

// Statics, so the bodies capture nothing and boxing them allocates nothing.
static ACCURATE: AtomicU64 = AtomicU64::new(0);
static APPROXIMATE: AtomicU64 = AtomicU64::new(0);

#[test]
fn warm_gtb_windows_allocate_almost_nothing_on_the_spawner() {
    let _serial = serial();
    let rt = Runtime::builder()
        .workers(2)
        .policy(Policy::Gtb {
            buffer_size: BUFFER,
        })
        .build();
    let group = rt.create_group("windows", 0.5);
    // One task parked in another group's buffer keeps the runtime from
    // going idle between windows: a worker that runs out of work while
    // nothing is outstanding frees its husks instead of pooling them, and so
    // does a barrier, which is why the windows below are polled, not waited.
    let parked = rt.create_group("parked", 1.0);
    rt.task(|| {}).group(&parked).spawn();

    let mut spawned = 0u64;
    let mut window = |rt: &Runtime| {
        // Exactly one buffer: the last spawn flushes it.
        for i in 0..BUFFER {
            rt.task(|| {
                ACCURATE.fetch_add(1, Ordering::Relaxed);
            })
            .approx(|| {
                APPROXIMATE.fetch_add(1, Ordering::Relaxed);
            })
            .significance(((i % 9) + 1) as f64 / 10.0)
            .group(&group)
            .spawn();
        }
        spawned += BUFFER as u64;
        while rt.outstanding_tasks() > 1 {
            std::thread::yield_now();
        }
    };
    for _ in 0..WARM_WINDOWS {
        window(&rt);
    }
    let before = ALLOCATIONS.with(Cell::get);
    for _ in 0..MEASURED_WINDOWS {
        window(&rt);
    }
    let allocations = ALLOCATIONS.with(Cell::get) - before;

    rt.wait_all();
    let ran = ACCURATE.load(Ordering::Relaxed) + APPROXIMATE.load(Ordering::Relaxed);
    assert_eq!(ran, spawned, "every windowed task ran exactly one body");
    let tasks = (MEASURED_WINDOWS * BUFFER) as f64;
    let per_task = allocations as f64 / tasks;
    assert!(
        per_task <= 0.05,
        "{allocations} spawner allocations over {tasks} warm GTB tasks ({per_task:.3} per task)"
    );
}

const MAX_BUFFERED: usize = 10_000;

/// A plain task with bodies that capture nothing, at significance
/// 0.1..=0.9, into `group`.
fn spawn_plain(rt: &Runtime, group: &TaskGroup, i: usize) {
    rt.task(|| {})
        .approx(|| {})
        .significance(((i % 9) + 1) as f64 / 10.0)
        .group(group)
        .spawn();
}

/// A runtime with no husks yet: every record it needs is a fresh one.
fn cold_gtb_max() -> (Runtime, TaskGroup) {
    let rt = Runtime::builder()
        .workers(1)
        .policy(Policy::GtbMaxBuffer)
        .build();
    let group = rt.create_group("max", 0.5);
    (rt, group)
}

#[test]
fn a_buffered_gtb_max_task_requests_at_most_64_bytes() {
    let _serial = serial();
    let (rt, group) = cold_gtb_max();
    let before = BYTES.with(Cell::get);
    for i in 0..MAX_BUFFERED {
        spawn_plain(&rt, &group, i);
    }
    let bytes = BYTES.with(Cell::get) - before;
    assert_eq!(rt.outstanding_tasks(), MAX_BUFFERED, "all buffered");
    rt.wait_group(&group);

    let per_task = bytes as f64 / MAX_BUFFERED as f64;
    assert!(
        per_task <= 64.0,
        "{bytes} bytes requested for {MAX_BUFFERED} buffered GTB Max-Buffer tasks \
         ({per_task:.1} per task): a plain task waits for its flush as a 56-byte \
         entry in a chunk, not as a record of 128 bytes or as an entry of a \
         window that doubles, and GTB Max-Buffer holds a whole group of them"
    );
}

const POLICIES: [Policy; 4] = [
    Policy::SignificanceAgnostic,
    Policy::Gtb { buffer_size: 32 },
    Policy::GtbMaxBuffer,
    Policy::Lqh,
];

/// Allocations on all threads a cold 10 000-task pass may make per task:
/// one chunk per window of its backlog — a GTB(32) window takes a chunk of
/// its own, and a spawner that runs ahead of its workers holds every
/// window's — plus 0.01 per task for everything else (the first chunks,
/// the workers' share buffers, the runtime's lists). Measured at one and
/// two workers: agnostic and LQH 22-37 allocations a pass (0.002-0.004 a
/// task), GTB-Max 27-36, GTB(32) 327-332 (0.033; its window's chunks).
fn cold_pass_budget(policy: Policy) -> f64 {
    let window = policy.buffer_capacity().unwrap_or(1024).min(1024);
    0.01 + 1.0 / window as f64
}

#[test]
fn a_cold_pass_of_any_policy_allocates_about_its_chunks() {
    let _serial = serial();
    for workers in [1, 2] {
        for policy in POLICIES {
            // No husks and no chunks yet.
            let rt = Runtime::builder().workers(workers).policy(policy).build();
            let group = rt.create_group("cold", 0.5);
            let before = ALL_ALLOCATIONS.load(Ordering::Relaxed);
            for i in 0..MAX_BUFFERED {
                spawn_plain(&rt, &group, i);
            }
            rt.wait_group(&group);
            let allocations = ALL_ALLOCATIONS.load(Ordering::Relaxed) - before;

            let per_task = allocations as f64 / MAX_BUFFERED as f64;
            let budget = cold_pass_budget(policy);
            assert!(
                per_task <= budget,
                "{policy:?}, {workers} workers: {allocations} allocations on all \
                 threads for a cold {MAX_BUFFERED}-task pass ({per_task:.4} per task, \
                 budget {budget:.4}): a plain task is an entry in a chunk, which a \
                 worker runs with no record at all"
            );
        }
    }
}

/// Two passes of four chunks each, without letting the runtime go idle in
/// front of a barrier (which would free the pool): the second takes every
/// chunk from the pool the first filled — staging chunks under the agnostic
/// policy, window chunks under GTB Max-Buffer.
#[test]
fn a_second_warm_pass_allocates_no_chunk() {
    let _serial = serial();
    const PASS: usize = 4 * 1024;
    let patience = std::time::Duration::from_secs(30);

    // Agnostic: the worker is held while a pass is staged, so the pass
    // fills four chunks, and the pass is polled, not waited for.
    let rt = Runtime::builder()
        .workers(1)
        .policy(Policy::SignificanceAgnostic)
        .build();
    let group = rt.create_group("staged", 0.5);
    let staged_pass = |rt: &Runtime| {
        let flags = Arc::new((AtomicBool::new(false), AtomicBool::new(false)));
        let held = flags.clone();
        rt.task(move || {
            held.0.store(true, Ordering::SeqCst);
            while !held.1.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        })
        .spawn();
        while !flags.0.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        for i in 0..PASS {
            spawn_plain(rt, &group, i);
        }
        flags.1.store(true, Ordering::SeqCst);
        let deadline = Instant::now() + patience;
        while rt.outstanding_tasks() != 0 {
            assert!(Instant::now() < deadline, "a staged pass never drained");
            std::thread::yield_now();
        }
    };
    staged_pass(&rt);
    let before = ALL_CHUNK_SIZED.load(Ordering::Relaxed);
    staged_pass(&rt);
    let staged = ALL_CHUNK_SIZED.load(Ordering::Relaxed) - before;
    drop(rt);

    // GTB Max-Buffer: a task parked in another group's buffer keeps the
    // runtime busy across the group barrier.
    let rt = Runtime::builder()
        .workers(1)
        .policy(Policy::GtbMaxBuffer)
        .build();
    let group = rt.create_group("window", 0.5);
    let parked = rt.create_group("parked", 1.0);
    rt.task(|| {}).group(&parked).spawn();
    let window_pass = |rt: &Runtime| {
        for i in 0..PASS {
            spawn_plain(rt, &group, i);
        }
        rt.wait_group(&group);
    };
    window_pass(&rt);
    let before = ALL_CHUNK_SIZED.load(Ordering::Relaxed);
    window_pass(&rt);
    let windows = ALL_CHUNK_SIZED.load(Ordering::Relaxed) - before;
    rt.wait_all();

    assert_eq!(
        (staged, windows),
        (0, 0),
        "chunk-sized allocations in a warm pass of {PASS} tasks, staged and windowed"
    );
}

/// Tasks of a read-only footprint pass, each reading one key of a ring, and
/// the tasks the spawner issues before it lets the worker catch up.
const READ_PASS: usize = 20_000;
const RING: usize = 64;
const READ_WINDOW: usize = 4 * RING;

/// A warm read-only footprint pass at one worker, after one writer sweep
/// of the ring, recycles its records. The tracker hands a key's finished
/// readers back to the spawner when the key's list fills, and a sweep over
/// the ring fills every key's list in the same 64 spawns, some 4 000
/// records at once; the spawner keeps them for the spawns that follow
/// instead of freeing all but a stash and a pool's worth and allocating
/// afresh. What is left is each reader's node in its key's list, about one
/// allocation a task on all threads together. The spawner lets the worker
/// catch up every few hundred tasks (polled: a barrier would free the
/// stash), so the records in flight stay few and each allocation counted
/// is one the recycling failed to save.
#[test]
fn a_warm_read_only_footprint_pass_allocates_about_its_reader_nodes() {
    let _serial = serial();
    let rt = Runtime::builder()
        .workers(1)
        .policy(Policy::SignificanceAgnostic)
        .build();
    let base = DepKey::named("read-only ring");
    let keys: Vec<DepKey> = (0..RING).map(|i| DepKey::element(base, i)).collect();
    for &key in &keys {
        rt.task(|| {}).writes([key]).spawn();
    }
    let patience = std::time::Duration::from_secs(30);
    let sweep = || {
        for window in (0..READ_PASS).step_by(READ_WINDOW) {
            for i in window..window + READ_WINDOW {
                rt.task(|| {}).reads([keys[i % RING]]).spawn();
            }
            let deadline = Instant::now() + patience;
            while rt.outstanding_tasks() != 0 {
                assert!(Instant::now() < deadline, "a window never drained");
                std::thread::yield_now();
            }
        }
    };
    // Warm: the husks the pass recycles are in circulation.
    sweep();
    let before = ALL_ALLOCATIONS.load(Ordering::Relaxed);
    sweep();
    let allocations = ALL_ALLOCATIONS.load(Ordering::Relaxed) - before;
    let tasks = READ_PASS.div_ceil(READ_WINDOW) * READ_WINDOW;
    let summary = rt.wait_all();
    assert_eq!(summary.completed, RING + 2 * tasks);

    let per_task = allocations as f64 / tasks as f64;
    assert!(
        per_task <= 1.2,
        "{allocations} allocations on all threads over {tasks} warm read-only \
         footprint tasks ({per_task:.2} per task): each needs its reader node, but \
         its record should be a recycled husk"
    );
}
