//! Scheduler hot-path overhead benchmark.
//!
//! Measures spawn + execute + taskwait throughput for empty-body tasks —
//! pure scheduler overhead, the quantity the paper's Figure 4 compares
//! against OpenMP — for two scheduler designs:
//!
//! * **mutex baseline**: a faithful, self-contained re-implementation of the
//!   seed scheduler's hot path — `Mutex<VecDeque>` per-worker queues, a
//!   condvar broadcast to *all* workers on every enqueue, a second condvar
//!   broadcast on every completion, a 1 ms idle polling loop, and a
//!   mutex-guarded per-task statistics log;
//! * **lock-free runtime**: the actual `sig-core` runtime (Chase–Lev-style
//!   stealable deques + MPMC inboxes, targeted park/unpark wakeups,
//!   event-count barriers, sharded statistics).
//!
//! Results are written as JSON (default `BENCH_sched.json`) so the speedup
//! is committed alongside the code that produced it.
//!
//! ```text
//! sched-overhead [--workers N] [--tasks N] [--reps N] [--smoke] [--out PATH]
//! ```

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use sig_bench::extract_json_number;
use sig_core::{BatchTask, Policy, Runtime};

/// Faithful reduction of the seed scheduler's hot path (see module docs).
///
/// Every per-task cost of the seed design is reproduced, operation for
/// operation: the two mutex-guarded body slots (both locked again at cleanup),
/// the unconditional dependence-tracker lock at spawn, the registry RwLock
/// lookup per execution, the mutex-guarded successor list, the per-execution
/// statistics-log mutex, the enqueue broadcast, the completion broadcast, and
/// the 1 ms / 5 ms polling waits.
mod baseline {
    use super::*;
    use std::collections::HashMap;
    use std::sync::atomic::AtomicU8;
    use std::sync::RwLock;

    type Body = Box<dyn FnOnce() + Send + 'static>;

    /// Mirrors the seed's `Task`: mutex body slots + atomic flags.
    struct Job {
        accurate: Mutex<Option<Body>>,
        approximate: Mutex<Option<Body>>,
        mode: AtomicU8,
        pending_deps: AtomicUsize,
        released: AtomicBool,
        enqueued: AtomicBool,
        completed: AtomicBool,
        successors: Mutex<Vec<Arc<Job>>>,
    }

    /// Mirrors the seed's per-group state the execute path touched.
    struct Group {
        outstanding: AtomicUsize,
        log: Mutex<Vec<(u8, u8)>>,
    }

    struct Inner {
        queues: Vec<Mutex<VecDeque<Arc<Job>>>>,
        groups: RwLock<Vec<Arc<Group>>>,
        tracker: Mutex<HashMap<u64, u64>>,
        next: AtomicUsize,
        outstanding: AtomicUsize,
        completed: AtomicUsize,
        accurate: AtomicUsize,
        busy_nanos: AtomicUsize,
        shutdown: AtomicBool,
        work_mutex: Mutex<()>,
        work_available: Condvar,
        completion_mutex: Mutex<()>,
        completion: Condvar,
    }

    pub struct MutexScheduler {
        inner: Arc<Inner>,
        workers: Vec<std::thread::JoinHandle<()>>,
    }

    impl MutexScheduler {
        pub fn new(workers: usize) -> Self {
            let group = Arc::new(Group {
                outstanding: AtomicUsize::new(0),
                log: Mutex::new(Vec::new()),
            });
            let inner = Arc::new(Inner {
                queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
                groups: RwLock::new(vec![group]),
                tracker: Mutex::new(HashMap::new()),
                next: AtomicUsize::new(0),
                outstanding: AtomicUsize::new(0),
                completed: AtomicUsize::new(0),
                accurate: AtomicUsize::new(0),
                busy_nanos: AtomicUsize::new(0),
                shutdown: AtomicBool::new(false),
                work_mutex: Mutex::new(()),
                work_available: Condvar::new(),
                completion_mutex: Mutex::new(()),
                completion: Condvar::new(),
            });
            let handles = (0..workers)
                .map(|index| {
                    let inner = inner.clone();
                    std::thread::spawn(move || worker_loop(&inner, index))
                })
                .collect();
            MutexScheduler {
                inner,
                workers: handles,
            }
        }

        pub fn spawn(&self, body: Body) {
            let inner = &self.inner;
            let job = Arc::new(Job {
                accurate: Mutex::new(Some(body)),
                approximate: Mutex::new(None),
                mode: AtomicU8::new(0),
                pending_deps: AtomicUsize::new(0),
                released: AtomicBool::new(false),
                enqueued: AtomicBool::new(false),
                completed: AtomicBool::new(false),
                successors: Mutex::new(Vec::new()),
            });
            inner.outstanding.fetch_add(1, Ordering::AcqRel);
            inner.groups.read().unwrap()[0]
                .outstanding
                .fetch_add(1, Ordering::AcqRel);
            // Seed behaviour: the dependence tracker is locked on every
            // spawn, footprint or not.
            job.pending_deps.store(1, Ordering::Release);
            drop(inner.tracker.lock().unwrap());
            // Agnostic policy: decide accurate, release, enqueue.
            let _ = job
                .mode
                .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire);
            job.released.swap(true, Ordering::AcqRel);
            job.pending_deps.fetch_sub(1, Ordering::AcqRel);
            if !job.enqueued.swap(true, Ordering::AcqRel) {
                let slot = inner.next.fetch_add(1, Ordering::Relaxed) % inner.queues.len();
                inner.queues[slot].lock().unwrap().push_back(job);
                // Seed behaviour: broadcast to every sleeper on every enqueue.
                let _guard = inner.work_mutex.lock().unwrap();
                inner.work_available.notify_all();
            }
        }

        pub fn wait_all(&self) {
            // Seed behaviour: 5 ms polling re-check on the completion condvar.
            let inner = &self.inner;
            let mut guard = inner.completion_mutex.lock().unwrap();
            while inner.outstanding.load(Ordering::Acquire) != 0 {
                let (g, _) = inner
                    .completion
                    .wait_timeout(guard, Duration::from_millis(5))
                    .unwrap();
                guard = g;
            }
        }
    }

    impl Drop for MutexScheduler {
        fn drop(&mut self) {
            self.wait_all();
            self.inner.shutdown.store(true, Ordering::Release);
            {
                let _guard = self.inner.work_mutex.lock().unwrap();
                self.inner.work_available.notify_all();
            }
            for handle in self.workers.drain(..) {
                let _ = handle.join();
            }
        }
    }

    fn pop_any(inner: &Inner, index: usize) -> Option<Arc<Job>> {
        let n = inner.queues.len();
        if let Some(job) = inner.queues[index].lock().unwrap().pop_front() {
            return Some(job);
        }
        for offset in 1..n {
            let victim = (index + offset) % n;
            if let Some(job) = inner.queues[victim].lock().unwrap().pop_back() {
                return Some(job);
            }
        }
        None
    }

    fn execute(inner: &Inner, job: Arc<Job>) {
        // Seed behaviour: group state is fetched from the registry (RwLock)
        // for every executed task.
        let group = inner.groups.read().unwrap()[0].clone();
        let accurate = job.mode.load(Ordering::Acquire) == 1;
        let start = Instant::now();
        if accurate {
            if let Some(body) = job.accurate.lock().unwrap().take() {
                body();
            }
        }
        let busy = start.elapsed();
        // Seed behaviour: both body slots locked again to drop the loser.
        drop(job.accurate.lock().unwrap().take());
        drop(job.approximate.lock().unwrap().take());
        inner.completed.fetch_add(1, Ordering::Relaxed);
        inner.accurate.fetch_add(1, Ordering::Relaxed);
        inner
            .busy_nanos
            .fetch_add(busy.as_nanos() as usize, Ordering::Relaxed);
        // Seed behaviour: one (level, mode) entry per task into the
        // mutex-guarded group log.
        group.log.lock().unwrap().push((100, 0));
        // Completion: successor list is mutex-guarded.
        let successors = {
            let mut successors = job.successors.lock().unwrap();
            job.completed.store(true, Ordering::Release);
            std::mem::take(&mut *successors)
        };
        drop(successors);
        group.outstanding.fetch_sub(1, Ordering::AcqRel);
        inner.outstanding.fetch_sub(1, Ordering::AcqRel);
        // Seed behaviour: broadcast on every completion.
        let _guard = inner.completion_mutex.lock().unwrap();
        inner.completion.notify_all();
    }

    fn worker_loop(inner: &Arc<Inner>, index: usize) {
        loop {
            if let Some(job) = pop_any(inner, index) {
                execute(inner, job);
                continue;
            }
            if inner.shutdown.load(Ordering::Acquire) {
                break;
            }
            // Seed behaviour: 1 ms idle polling loop, preceded by an
            // O(workers) queue-length scan under the queue locks.
            let total: usize = inner.queues.iter().map(|q| q.lock().unwrap().len()).sum();
            let guard = inner.work_mutex.lock().unwrap();
            if total == 0 && !inner.shutdown.load(Ordering::Acquire) {
                let _ = inner
                    .work_available
                    .wait_timeout(guard, Duration::from_millis(1));
            }
        }
    }
}

struct Config {
    workers: usize,
    tasks: usize,
    reps: usize,
    out: String,
    write_out: bool,
    only: Option<String>,
    /// Regression-gate mode: path of a committed BENCH_sched.json whose
    /// `per_task_spawn_tasks_per_sec` the current batched throughput must
    /// not regress below (loose 0.8× threshold for container noise).
    check: Option<String>,
}

fn parse_args() -> Config {
    let mut config = Config {
        workers: 8,
        tasks: 100_000,
        reps: 3,
        out: "BENCH_sched.json".to_string(),
        write_out: true,
        only: None,
        check: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workers" => {
                config.workers = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--workers needs a number")
            }
            "--tasks" => {
                config.tasks = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--tasks needs a number")
            }
            "--reps" => {
                config.reps = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--reps needs a number")
            }
            "--out" => config.out = args.next().expect("--out needs a path"),
            "--only" => {
                config.only = Some(args.next().expect("--only needs baseline|lockfree"));
                config.write_out = false;
            }
            "--check" => {
                config.check = Some(args.next().expect("--check needs a committed JSON path"));
                config.write_out = false;
            }
            "--smoke" => {
                config.tasks = 5_000;
                config.reps = 1;
                config.write_out = false;
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: sched-overhead [--workers N] [--tasks N] [--reps N] [--smoke] \
                     [--out PATH] [--check COMMITTED.json]"
                );
                std::process::exit(2);
            }
        }
    }
    config
}

/// Best (highest) throughput over `reps` runs of `run`, in tasks/second.
fn best_throughput(tasks: usize, reps: usize, mut run: impl FnMut() -> Duration) -> f64 {
    let mut best = f64::MIN;
    for _ in 0..reps {
        let elapsed = run().as_secs_f64().max(1e-9);
        best = best.max(tasks as f64 / elapsed);
    }
    best
}

fn bench_baseline(workers: usize, tasks: usize) -> Duration {
    let scheduler = baseline::MutexScheduler::new(workers);
    let start = Instant::now();
    for _ in 0..tasks {
        scheduler.spawn(Box::new(|| {}));
    }
    scheduler.wait_all();
    start.elapsed()
}

/// Master-side **injection** time for per-task spawns: how long the spawn
/// loop itself takes while the workers drain concurrently. This is the
/// quantity the batched pipeline attacks — per-task wake checks, counter
/// bumps and statistics records — so the per-task and batched series are
/// both measured this way (the post-loop barrier is excluded).
fn bench_injection_per_task(workers: usize, tasks: usize) -> Duration {
    let rt = Runtime::builder()
        .workers(workers)
        .policy(Policy::SignificanceAgnostic)
        .build();
    let start = Instant::now();
    for _ in 0..tasks {
        rt.task(|| {}).spawn();
    }
    let injected = start.elapsed();
    rt.wait_all();
    injected
}

/// Master-side injection time for `spawn_batch` at the given batch size.
/// The batched enqueue path is lock-free end to end: bounded MPMC inboxes
/// with an unbounded lock-free MPSC spill behind them — zero mutex
/// acquisitions even when the flood outruns the workers.
fn bench_injection_batched(workers: usize, tasks: usize, batch: usize) -> Duration {
    let rt = Runtime::builder()
        .workers(workers)
        .policy(Policy::SignificanceAgnostic)
        .build();
    let start = Instant::now();
    let mut remaining = tasks;
    while remaining > 0 {
        let n = remaining.min(batch);
        rt.spawn_batch((0..n).map(|_| BatchTask::new(|| {})));
        remaining -= n;
    }
    let injected = start.elapsed();
    rt.wait_all();
    injected
}

/// Regression gate for CI: the batched pipeline must not fall below the
/// *per-task* spawn throughput (loose 0.8× threshold). The floor is the
/// **minimum** of the committed per-task number and a per-task measurement
/// taken in the same process: on a host slower than the one that produced
/// the committed file the same-run number keeps the gate honest (absolute
/// cross-host comparisons are noise — see the report's `noise_note`), while
/// on a faster host the committed number remains an absolute floor a real
/// regression cannot hide behind. Exits non-zero on regression.
fn run_check(config: &Config, committed_path: &str) -> ! {
    let committed = std::fs::read_to_string(committed_path)
        .unwrap_or_else(|e| panic!("cannot read {committed_path}: {e}"));
    let per_task_committed = extract_json_number(&committed, "per_task_spawn_tasks_per_sec")
        .expect("committed report lacks per_task_spawn_tasks_per_sec");
    // The committed report must carry the core count it was produced on: a
    // many-core regeneration must not silently compare against 1-core
    // baselines (or vice versa). On a mismatch the committed absolute floor
    // is meaningless, so the gate falls back to the same-run floor alone.
    let committed_cores = extract_json_number(&committed, "cores")
        .expect("committed report lacks the cores field -- regenerate BENCH_sched.json")
        as usize;
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Best-of-3 floor even under `--smoke` (reps = 1): a single measurement
    // is one preemption spike away from a false FAIL on a shared runner.
    let check_reps = config.reps.max(3);
    let per_task_now = best_throughput(config.tasks, check_reps, || {
        bench_injection_per_task(config.workers, config.tasks)
    });
    let batched_now = best_throughput(config.tasks, check_reps, || {
        bench_injection_batched(config.workers, config.tasks, 256)
    });
    let floor = if committed_cores == host_cores {
        per_task_committed.min(per_task_now)
    } else {
        eprintln!(
            "sched-overhead check: committed report is from a {committed_cores}-core host, \
             this is a {host_cores}-core host -- absolute committed numbers are not \
             comparable, gating on the same-run per-task floor only"
        );
        per_task_now
    };
    let threshold = 0.8 * floor;
    eprintln!(
        "sched-overhead check: batched(256) now {batched_now:.0} tasks/s vs per-task \
         {per_task_now:.0} now / {per_task_committed:.0} committed (threshold {threshold:.0})"
    );
    let mut failed = false;
    if batched_now < threshold {
        eprintln!("FAIL: batched spawn regressed below 0.8x the per-task spawn throughput");
        failed = true;
    } else {
        eprintln!("OK: batched spawn holds the per-task floor");
    }

    // Robustness-inert guard: a runtime with the overload controller armed
    // (watermarks out of reach) must stay within 5% of the plain runtime's
    // throughput — the always-on bookkeeping (overload ticks, cancellation
    // checks, outcome accounting) is near-free when no robustness feature
    // fires. Per-task clauses are priced separately by design: `deadline(..)`
    // costs one clock read and `cancel_token(..)` one refcount at spawn,
    // paid only by tasks that opt in. The two sides are measured in strict
    // alternation (plain, robust, plain, robust, ...) and each keeps its
    // best rep, so slow drift of the host (frequency, co-tenants) hits both
    // sides equally instead of landing in the ratio. The gate statistic is
    // the *median of per-pair ratios*: the two runs of a pair share the
    // same load window, so their ratio is far tighter than any comparison
    // across the whole session, and the median discards pairs a preemption
    // spike landed in. A ~5% gate also needs loops long enough that
    // scheduler jitter stays sub-percent, regardless of any `--smoke`
    // shrink, so the gate sets its own floor on both knobs.
    let gate_tasks = config.tasks.max(20_000);
    let mut plain_best = 0.0f64;
    let mut robust_best = 0.0f64;
    let mut ratios = Vec::new();
    for pair in 0..config.reps.max(10) {
        // Alternate who goes first so any systematic first/second-slot bias
        // (allocator warmth, branch predictors, teardown echo) cancels.
        let (p, r) = if pair.is_multiple_of(2) {
            let p = bench_runtime(config.workers, gate_tasks, Policy::SignificanceAgnostic);
            let r = bench_runtime_robust_inert(config.workers, gate_tasks);
            (p, r)
        } else {
            let r = bench_runtime_robust_inert(config.workers, gate_tasks);
            let p = bench_runtime(config.workers, gate_tasks, Policy::SignificanceAgnostic);
            (p, r)
        };
        let p = gate_tasks as f64 / p.as_secs_f64();
        let r = gate_tasks as f64 / r.as_secs_f64();
        plain_best = plain_best.max(p);
        robust_best = robust_best.max(r);
        ratios.push(r / p);
    }
    ratios.sort_by(|a, b| a.total_cmp(b));
    let ratio = ratios[ratios.len() / 2];
    let (plain, robust) = (plain_best, robust_best);
    eprintln!(
        "sched-overhead check: robust-inert best {robust:.0} tasks/s vs plain best {plain:.0} \
         tasks/s (median pairwise {ratio:.3}x, threshold 0.95x)"
    );
    if ratio < 0.95 {
        eprintln!("FAIL: inert robustness bookkeeping costs more than 5%");
        failed = true;
    } else {
        eprintln!("OK: inert robustness bookkeeping within 5%");
    }
    std::process::exit(if failed { 1 } else { 0 });
}

/// Full spawn+execute+taskwait throughput with the robustness layer armed
/// but inert: queue and deadline-miss watermarks configured far out of
/// reach, so every task pays the always-on bookkeeping (amortised overload
/// ticks on spawn and execute, the cancellation and shed checks, the
/// deadline branch, outcome accounting) without any feature firing.
/// Compared against the plain agnostic runtime from the same run, this
/// bounds the cost of that bookkeeping for tasks that use no robustness
/// clause.
fn bench_runtime_robust_inert(workers: usize, tasks: usize) -> Duration {
    let rt = Runtime::builder()
        .workers(workers)
        .policy(Policy::SignificanceAgnostic)
        .queue_watermark(1 << 40)
        .deadline_miss_watermark(1.0)
        .build();
    let start = Instant::now();
    for _ in 0..tasks {
        rt.task(|| {}).spawn();
    }
    rt.wait_all();
    start.elapsed()
}

fn bench_runtime(workers: usize, tasks: usize, policy: Policy) -> Duration {
    let rt = Runtime::builder().workers(workers).policy(policy).build();
    let group = rt.create_group("bench", 0.5);
    let start = Instant::now();
    match policy {
        Policy::SignificanceAgnostic => {
            for _ in 0..tasks {
                rt.task(|| {}).spawn();
            }
            rt.wait_all();
        }
        _ => {
            for i in 0..tasks {
                rt.task(|| {})
                    .approx(|| {})
                    .significance(((i % 9) + 1) as f64 / 10.0)
                    .group(&group)
                    .spawn();
            }
            rt.wait_group(&group);
        }
    }
    start.elapsed()
}

fn main() {
    let config = parse_args();
    let Config {
        workers,
        tasks,
        reps,
        ..
    } = config;
    eprintln!(
        "sched-overhead: {tasks} empty tasks, {workers} workers, best of {reps} \
         (host has {} cores)",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    // CI regression gate: batched spawn vs the committed per-task number.
    if let Some(committed) = config.check.clone() {
        run_check(&config, &committed);
    }

    // Isolation mode for profiling one scheduler at a time.
    if let Some(only) = &config.only {
        let throughput = match only.as_str() {
            "baseline" => best_throughput(tasks, reps, || bench_baseline(workers, tasks)),
            "lockfree" => best_throughput(tasks, reps, || {
                bench_runtime(workers, tasks, Policy::SignificanceAgnostic)
            }),
            "per-task" => best_throughput(tasks, reps, || bench_injection_per_task(workers, tasks)),
            batched if batched.starts_with("batched") => {
                let batch: usize = batched["batched".len()..]
                    .parse()
                    .expect("--only batchedN needs a numeric batch size");
                best_throughput(tasks, reps, || {
                    bench_injection_batched(workers, tasks, batch)
                })
            }
            other => {
                eprintln!("--only expects baseline|lockfree|per-task|batchedN, got {other}");
                std::process::exit(2);
            }
        };
        println!("{only}: {throughput:.0} tasks/s");
        return;
    }

    let baseline = best_throughput(tasks, reps, || bench_baseline(workers, tasks));
    eprintln!("  mutex baseline      : {baseline:>12.0} tasks/s");
    let agnostic = best_throughput(tasks, reps, || {
        bench_runtime(workers, tasks, Policy::SignificanceAgnostic)
    });
    eprintln!("  lock-free agnostic  : {agnostic:>12.0} tasks/s");
    let gtb = best_throughput(tasks, reps, || {
        bench_runtime(workers, tasks, Policy::Gtb { buffer_size: 32 })
    });
    eprintln!("  lock-free GTB(32)   : {gtb:>12.0} tasks/s");
    let lqh = best_throughput(tasks, reps, || bench_runtime(workers, tasks, Policy::Lqh));
    eprintln!("  lock-free LQH       : {lqh:>12.0} tasks/s");

    let speedup = agnostic / baseline;
    eprintln!("  speedup (agnostic vs mutex baseline): {speedup:.2}x");

    // Injection (master-side spawn loop) throughput: per-task vs batched.
    // Short loops, more reps: a multi-tens-of-ms loop on the 1-core
    // container gets preempted by the concurrently draining workers and
    // measures scheduling luck instead of master-side cost; ~20k-task loops
    // mostly fit a scheduler quantum and best-of picks clean windows.
    let inject_tasks = tasks.min(20_000);
    let inject_reps = (reps * 2).max(4);
    let per_task_spawn = best_throughput(inject_tasks, inject_reps, || {
        bench_injection_per_task(workers, inject_tasks)
    });
    eprintln!("  per-task spawn      : {per_task_spawn:>12.0} tasks/s (injection only)");
    let batched_spawn: Vec<(usize, f64)> = [16usize, 64, 256]
        .iter()
        .map(|&batch| {
            let throughput = best_throughput(inject_tasks, inject_reps, || {
                bench_injection_batched(workers, inject_tasks, batch)
            });
            eprintln!("  batched spawn @ {batch:>3} : {throughput:>12.0} tasks/s (injection only)");
            (batch, throughput)
        })
        .collect();
    let batched_256 = batched_spawn
        .iter()
        .find(|(batch, _)| *batch == 256)
        .map(|(_, t)| *t)
        .unwrap_or(0.0);
    let batched_speedup = batched_256 / per_task_spawn;
    eprintln!("  batched(256) vs per-task spawn: {batched_speedup:.2}x");
    let batched_json = batched_spawn
        .iter()
        .map(|(batch, t)| format!("    {{ \"batch\": {batch}, \"tasks_per_sec\": {t:.0} }}"))
        .collect::<Vec<_>>()
        .join(",\n");

    // Worker-count scaling curve for the lock-free agnostic configuration.
    let scaling: Vec<(usize, f64)> = [1usize, 2, 4, 8]
        .iter()
        .map(|&w| {
            let throughput = best_throughput(tasks, reps, || {
                bench_runtime(w, tasks, Policy::SignificanceAgnostic)
            });
            eprintln!("  lock-free @ {w} workers: {throughput:>12.0} tasks/s");
            (w, throughput)
        })
        .collect();
    let scaling_json = scaling
        .iter()
        .map(|(w, t)| {
            format!("    {{ \"workers\": {w}, \"lockfree_agnostic_tasks_per_sec\": {t:.0} }}")
        })
        .collect::<Vec<_>>()
        .join(",\n");

    let json = format!(
        "{{\n  \"benchmark\": \"sched_overhead\",\n  \"description\": \"spawn+execute+taskwait \
         throughput for empty-body tasks (pure scheduler overhead)\",\n  \"workers\": {workers},\n  \
         \"tasks\": {tasks},\n  \"reps\": {reps},\n  \"cores\": {cores},\n  \
         \"baseline_mutex_tasks_per_sec\": {baseline:.0},\n  \
         \"lockfree_agnostic_tasks_per_sec\": {agnostic:.0},\n  \
         \"lockfree_gtb32_tasks_per_sec\": {gtb:.0},\n  \
         \"lockfree_lqh_tasks_per_sec\": {lqh:.0},\n  \
         \"speedup_agnostic_vs_baseline\": {speedup:.2},\n  \
         \"per_task_spawn_tasks_per_sec\": {per_task_spawn:.0},\n  \
         \"batched_spawn\": [\n{batched_json}\n  ],\n  \
         \"batched_256_speedup_vs_per_task_spawn\": {batched_speedup:.2},\n  \
         \"scaling\": [\n{scaling_json}\n  ],\n  \
         \"metadata\": {{\n    \"note\": \"produced inside a {cores}-core container: worker \
         counts beyond the physical core count measure scheduler overhead under \
         oversubscription, not parallel speedup; regenerate on a many-core host for a true \
         scaling curve\",\n    \"injection_note\": \"per_task_spawn and batched_spawn measure \
         the master-side spawn loop only (workers drain concurrently), over \
         {inject_tasks}-task loops best-of-{inject_reps} — short enough that the 1-core \
         scheduler rarely preempts the master mid-loop; the batched enqueue path is \
         lock-free end to end (bounded MPMC inbox + unbounded MPSC spill with one-XCHG \
         chain splicing), zero mutex acquisitions\",\n    \"noise_note\": \"absolute \
         numbers move with container load between runs; compare against \
         baseline_mutex_tasks_per_sec (unchanged seed-design code) from the same run, not \
         across committed revisions\"\n  }}\n}}\n",
        cores = std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    if config.write_out {
        std::fs::write(&config.out, &json).expect("failed to write results");
        eprintln!("  wrote {}", config.out);
    }
    println!("{json}");
}
