//! `sched_deps`: tiny tasks with data footprints on a 64-cell ring, through
//! `sig-core`'s dependence tracker and successor release.
//!
//! Closed loop, one client, agnostic policy, same placement as
//! `sched_fine`. Sweeps over the ring alternate between two task shapes:
//!
//! * even sweeps: task *i* writes cell *i* and reads cells *i−1* and *i+1*
//!   (a multi-key footprint with a write: the ordered-shard-lock path), and
//!   replaces its cell by a wrapping multiply-add of the three;
//! * odd sweeps: task *i* only reads cell *i* (a single-key read-only
//!   footprint: the tracker's lock-free path) and folds the value it saw
//!   into a commutative checksum.
//!
//! The tracker only takes its lock-free path for footprints without writes,
//! so the read-only shape is what reaches it. Both the final ring and the
//! checksum must equal a serial replay: the first proves RAW/WAW order, the
//! second that every reader ran between the right pair of writers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use sig_core::{DepKey, OutcomeSummary, Policy, Runtime};
use sig_serving::SplitMix64;

use super::{timed_reps, timed_setups, CpuClock, Ctx, Layers, Report, Sample};
use crate::json::Value;
use crate::stats::{median, Summary};

pub const CELLS: usize = 64;
/// Tasks between two barriers: twenty-five sweeps. The client never has
/// more than a window outstanding, so peak memory is the window's, not
/// however far the spawner happened to run ahead of the worker.
pub const WINDOW: usize = 25 * CELLS;
/// Tasks per pass at timing size: sixty-four windows.
pub const TASKS: usize = 64 * WINDOW;

static RING: [AtomicU64; CELLS] = [const { AtomicU64::new(0) }; CELLS];
static CHECKSUM: AtomicU64 = AtomicU64::new(0);
static MULTIPLIER: AtomicU64 = AtomicU64::new(0);

/// Seeded inputs of a pass: the initial ring and an odd multiplier.
pub struct Inputs {
    ring: [u64; CELLS],
    multiplier: u64,
    keys: [DepKey; CELLS],
}

pub fn inputs(seed: u64) -> Inputs {
    let mut rng = SplitMix64::new(seed ^ 0xde95_0f1a_6000_0002);
    let base = DepKey::named("sigbench.ring");
    Inputs {
        ring: std::array::from_fn(|_| rng.next_u64()),
        multiplier: rng.next_u64() | 1,
        keys: std::array::from_fn(|i| DepKey::element(base, i)),
    }
}

/// Which sweeps a pass is made of.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mix {
    /// Writer and reader sweeps in turn: the workload proper.
    Alternating,
    /// One writer sweep to create the keys, then readers only.
    Readers,
    Writers,
}

impl Mix {
    fn is_writer_sweep(self, sweep: usize) -> bool {
        match self {
            Mix::Alternating => sweep.is_multiple_of(2),
            Mix::Readers => sweep == 0,
            Mix::Writers => true,
        }
    }
}

fn write_cell(ring: &[AtomicU64; CELLS], multiplier: u64, i: usize) {
    let left = ring[(i + CELLS - 1) % CELLS].load(Ordering::Relaxed);
    let right = ring[(i + 1) % CELLS].load(Ordering::Relaxed);
    let own = ring[i].load(Ordering::Relaxed);
    ring[i].store(
        own.wrapping_mul(multiplier)
            .wrapping_add(left)
            .wrapping_add(right),
        Ordering::Relaxed,
    );
}

fn read_cell(ring: &[AtomicU64; CELLS], checksum: &AtomicU64, i: usize) {
    let seen = ring[i].load(Ordering::Relaxed);
    checksum.fetch_add(seen.wrapping_mul(i as u64 + 1), Ordering::Relaxed);
}

/// The ring and checksum a pass must end with, computed in spawn order.
fn serial(inputs: &Inputs, mix: Mix, tasks: usize) -> ([u64; CELLS], u64) {
    let ring: [AtomicU64; CELLS] = std::array::from_fn(|i| AtomicU64::new(inputs.ring[i]));
    let checksum = AtomicU64::new(0);
    for task in 0..tasks {
        let (sweep, i) = (task / CELLS, task % CELLS);
        if mix.is_writer_sweep(sweep) {
            write_cell(&ring, inputs.multiplier, i);
        } else {
            read_cell(&ring, &checksum, i);
        }
    }
    (
        std::array::from_fn(|i| ring[i].load(Ordering::Relaxed)),
        checksum.load(Ordering::Relaxed),
    )
}

pub struct Pass {
    pub wall_s: f64,
    pub joules: f64,
    pub outcome: OutcomeSummary,
    pub fast_path_reads: usize,
    pub read_registrations: usize,
    pub matches_serial: bool,
}

pub fn pass(ctx: &Ctx, inputs: &Inputs, mix: Mix, tasks: usize) -> Pass {
    let tracer = ctx.tracer;
    for (cell, &value) in RING.iter().zip(&inputs.ring) {
        cell.store(value, Ordering::Relaxed);
    }
    CHECKSUM.store(0, Ordering::Relaxed);
    MULTIPLIER.store(inputs.multiplier, Ordering::Relaxed);
    let workers = ctx.placement.sched_workers();
    let rt = tracer.span("core.build", || {
        ctx.placement.build_on_worker_cpus(|| {
            Runtime::builder()
                .workers(workers)
                .policy(Policy::SignificanceAgnostic)
                .build()
        })
    });

    let keys = &inputs.keys;
    let mut read_registrations = 0;
    let mut outcome = OutcomeSummary::default();
    let start = Instant::now();
    for window in (0..tasks).step_by(WINDOW) {
        tracer.span("core.spawn_loop", || {
            for task in window..tasks.min(window + WINDOW) {
                let (sweep, i) = (task / CELLS, task % CELLS);
                if mix.is_writer_sweep(sweep) {
                    read_registrations += 2;
                    rt.task(move || write_cell(&RING, MULTIPLIER.load(Ordering::Relaxed), i))
                        .reads([keys[(i + CELLS - 1) % CELLS], keys[(i + 1) % CELLS]])
                        .writes([keys[i]])
                        .spawn();
                } else {
                    read_registrations += 1;
                    rt.task(move || read_cell(&RING, &CHECKSUM, i))
                        .reads([keys[i]])
                        .spawn();
                }
            }
        });
        // The summary is cumulative over the runtime's life.
        outcome = tracer.span("core.wait", || rt.wait_all());
    }
    let wall = start.elapsed();

    let (joules, fast_path_reads, matches_serial) = tracer.span("bench.harvest", || {
        let (ring, checksum) = serial(inputs, mix, tasks);
        let same = RING
            .iter()
            .zip(&ring)
            .all(|(cell, &want)| cell.load(Ordering::Relaxed) == want)
            && CHECKSUM.load(Ordering::Relaxed) == checksum;
        (
            rt.energy_report_at(wall).reading().joules,
            rt.tracker_fast_path_reads(),
            same,
        )
    });
    tracer.span("core.drop", || drop(rt));
    Pass {
        wall_s: wall.as_secs_f64(),
        joules,
        outcome,
        fast_path_reads,
        read_registrations,
        matches_serial,
    }
}

/// Operations of `pass` that failed: tasks that did not complete, or every
/// task when the ring or the checksum differs from the serial replay.
fn failed_ops(pass: &Pass, tasks: usize) -> u64 {
    if !pass.matches_serial || pass.outcome.spawned != tasks {
        tasks as u64
    } else {
        (pass.outcome.spawned - pass.outcome.completed) as u64
    }
}

fn check_pass(pass: &Pass, mix: Mix, tasks: usize, fail: &mut dyn FnMut(String)) {
    if failed_ops(pass, tasks) != 0 {
        fail(format!(
            "sched_deps {mix:?}: ring/checksum match serial = {}, {} of {} tasks completed, \
             expected {tasks}",
            pass.matches_serial, pass.outcome.completed, pass.outcome.spawned
        ));
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let tasks = ctx.scaled(TASKS).next_multiple_of(CELLS);
    let inputs = timed_setups(ctx, &mut report, || {
        let inputs = inputs(ctx.seed);
        pass(ctx, &inputs, Mix::Alternating, tasks);
        inputs
    });

    let mut passes = Vec::new();
    timed_reps(ctx, &mut report, || {
        let mut cpu = CpuClock::default();
        let pass = cpu.time(|| pass(ctx, &inputs, Mix::Alternating, tasks));
        let sample = Sample {
            ops: tasks as u64,
            failed: failed_ops(&pass, tasks),
            wall_s: pass.wall_s,
            cpu_s: cpu.seconds(),
            joules: pass.joules,
        };
        passes.push(pass);
        sample
    });

    for run in &passes {
        check_pass(run, Mix::Alternating, tasks, &mut |f| {
            report.gate_failures.push(f)
        });
    }
    let walls = Summary::of(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    report.detail = vec![
        ("tasks_per_pass".into(), Value::Num(tasks as f64)),
        ("ring_cells".into(), Value::Num(CELLS as f64)),
        (
            "workers".into(),
            Value::Num(ctx.placement.sched_workers() as f64),
        ),
        ("pass_wall_s".into(), walls.to_json()),
    ];
    report
}

pub fn layers(ctx: &Ctx, out: &mut Layers) {
    let tasks = ctx.scaled(TASKS).next_multiple_of(CELLS);
    let reps = if ctx.smoke { 1 } else { 3 };
    let inputs = inputs(ctx.seed);
    let mut measure = |mix: Mix| -> Vec<Pass> {
        pass(ctx, &inputs, mix, tasks); // warm-up
        let runs: Vec<Pass> = (0..reps).map(|_| pass(ctx, &inputs, mix, tasks)).collect();
        for run in &runs {
            check_pass(run, mix, tasks, &mut |f| out.gate_failures.push(f));
        }
        runs
    };
    let ns_per_task = |runs: &[Pass]| {
        median(&runs.iter().map(|p| p.wall_s).collect::<Vec<_>>()) * 1e9 / tasks as f64
    };
    let readers = measure(Mix::Readers);
    let writers = measure(Mix::Writers);
    let mixed = measure(Mix::Alternating);
    out.put("core.deps.read1.ns_per_task", ns_per_task(&readers));
    out.put("core.deps.multi.ns_per_task", ns_per_task(&writers));
    let fast: usize = mixed.iter().map(|p| p.fast_path_reads).sum();
    let registered: usize = mixed.iter().map(|p| p.read_registrations).sum();
    out.put("core.deps.fast_path_frac", fast as f64 / registered as f64);
}
