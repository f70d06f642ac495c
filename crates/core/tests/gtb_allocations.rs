//! GTB task records stay on the recycled path: once warm, a spawner feeding a
//! GTB group allocates (almost) nothing per task. Each flush must leave the
//! window the only holder of its records, so the worker that retires one can
//! blank it into a husk the spawner reuses, and the group buffer must keep
//! its capacity across flushes.
//!
//! And a cold GTB Max-Buffer group, which holds every record until its
//! barrier, costs at most 128 requested bytes per task: the record in its
//! 112-byte `Arc` plus the window's amortised growth.
//!
//! Its own test binary: the counting global allocator below counts the
//! spawning thread's allocations and requested bytes only (thread-local
//! counters), so worker threads and the test harness do not disturb the
//! reading.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use sig_core::{Policy, Runtime};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation and reallocation made on
/// the calling thread, and the bytes each asked for: an allocation's size, a
/// reallocation's growth.
struct CountingAllocator;

fn count(bytes: usize) {
    // A const-initialised `Cell` has no destructor to register, so this
    // never allocates itself; `try_with` only fails during thread teardown.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
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

#[test]
fn a_buffered_gtb_max_task_requests_at_most_128_bytes() {
    // A fresh runtime has no husks, so every spawn below allocates its
    // record; GTB Max-Buffer holds all of them until the barrier.
    let rt = Runtime::builder()
        .workers(1)
        .policy(Policy::GtbMaxBuffer)
        .build();
    let group = rt.create_group("max", 0.5);
    let before = BYTES.with(Cell::get);
    for i in 0..MAX_BUFFERED {
        rt.task(|| {})
            .approx(|| {})
            .significance(((i % 9) + 1) as f64 / 10.0)
            .group(&group)
            .spawn();
    }
    let bytes = BYTES.with(Cell::get) - before;
    assert_eq!(rt.outstanding_tasks(), MAX_BUFFERED, "all buffered");
    rt.wait_group(&group);

    let per_task = bytes as f64 / MAX_BUFFERED as f64;
    assert!(
        per_task <= 128.0,
        "{bytes} bytes requested for {MAX_BUFFERED} buffered GTB Max-Buffer tasks \
         ({per_task:.1} per task): a task record past 96 bytes leaves glibc's \
         128-byte class, and GTB Max-Buffer holds a whole group of them"
    );
}
