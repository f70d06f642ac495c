//! The five workloads and what they share: the run context, the report a
//! run hands back, and the repetition loop that fills the time budget.

use std::time::Instant;

use crate::json::Value;
use crate::pin::Placement;
use crate::stats::Summary;
use crate::trace::Tracer;

pub mod cluster_sim;
pub mod kernels;
pub mod sched_deps;
pub mod sched_fine;
pub mod serving_sim;

/// One workload: its name, why it exists, and its two entry points.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// The end-to-end run: set up, repeat for the time budget, check.
    pub run: fn(&Ctx) -> Report,
    /// This workload's share of the per-layer ledger (traced run only).
    pub layers: fn(&Ctx, &mut Layers),
}

pub const ALL: [Workload; 5] = [
    Workload {
        name: "sched_fine",
        why: "empty-body tasks under all four policies: every nanosecond is scheduler time",
        run: sched_fine::run,
        layers: sched_fine::layers,
    },
    Workload {
        name: "sched_deps",
        why: "tiny tasks with footprints on a ring: time goes to the dependence tracker and \
              successor release, which footprint-free sched_fine tasks skip",
        run: sched_deps::run,
        layers: sched_deps::layers,
    },
    Workload {
        name: "kernels",
        why: "the six paper kernels at timing size: task bodies dominate, so a scheduler change \
              should not move it but a kernel or SharedGrid change should",
        run: kernels::run,
        layers: kernels::layers,
    },
    Workload {
        name: "serving_sim",
        why: "single-node serving simulator at 1.5x overload: admission, retries, event heap and \
              latency sketch hot, no routing and no cap",
        run: serving_sim::run,
        layers: serving_sim::layers,
    },
    Workload {
        name: "cluster_sim",
        why: "96-node fleet under a tight cap with a crash storm: global heap, candidate scan, \
              cap waterfill and crash ledgers, which serving_sim bypasses",
        run: cluster_sim::run,
        layers: cluster_sim::layers,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// Everything a workload is given. The program under test only ever sees
/// inputs generated from `seed`.
pub struct Ctx<'a> {
    pub seed: u64,
    /// Time budget of the measured repetitions.
    pub seconds: f64,
    /// About 1/20 of the size and a single repetition, gates still on.
    pub smoke: bool,
    pub placement: &'a Placement,
    pub tracer: &'a Tracer,
}

impl Ctx<'_> {
    /// `full` at timing size, about a twentieth of it in a smoke run.
    pub fn scaled(&self, full: usize) -> usize {
        if self.smoke {
            (full / 20).max(1)
        } else {
            full
        }
    }
}

/// What one measured repetition did and cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    /// Operations attempted (see the README for each workload's meaning).
    pub ops: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Seconds of the timed windows (not of the whole repetition).
    pub wall_s: f64,
    /// Process CPU seconds spent in the measured calls.
    pub cpu_s: f64,
    /// Modelled joules the runtime reported (0 where a simulator reports
    /// simulated joules instead).
    pub joules: f64,
}

/// How the repetitions of a run are summarised into one figure.
///
/// Interference on a shared host only ever adds time to a single-threaded
/// program, and much of it comes in bursts shorter than a run, so for the
/// simulators the lower quartile of the repetitions repeats from run to run
/// about twice as closely as their median. The threaded workloads also have
/// a *fast* mode: when the host parks one of the two vCPUs for a moment,
/// producer and consumer stop contending for the same cache lines and a pass
/// takes a third of its usual time. A lower quartile would land in that mode
/// whenever a quarter of the repetitions did, so they keep the median. (Both
/// measured over two sets of ten runs: see the README.)
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum Estimator {
    #[default]
    Median,
    LowerQuartile,
}

/// What one end-to-end run of a workload hands back.
#[derive(Debug, Default)]
pub struct Report {
    pub estimator: Estimator,
    /// One sample per measured repetition.
    pub samples: Vec<Sample>,
    /// Whether span recording was on during each repetition, and the wall
    /// seconds the whole repetition took.
    pub rep_wall_s: Vec<(bool, f64)>,
    /// Correctness gates that did not hold; empty means correct.
    pub gate_failures: Vec<String>,
    /// Duration of each set-up (inputs, references, one warm-up repetition).
    pub setup_s: Vec<f64>,
    /// `(joules per operation, goodput)` where the workload simulates them:
    /// exact for a seed, so taken from the warm-up run and not summarised.
    pub simulated: Option<(f64, f64)>,
    /// Sizes and per-pass summaries, stamped into the result file.
    pub detail: Vec<(String, Value)>,
}

impl Report {
    pub fn attempted(&self) -> u64 {
        self.samples.iter().map(|s| s.ops).sum()
    }

    pub fn failed(&self) -> u64 {
        self.samples.iter().map(|s| s.failed).sum()
    }

    /// Cost per operation, summarised over the repetitions.
    fn per_op(&self, cost: fn(&Sample) -> f64) -> f64 {
        let costs: Vec<f64> = self
            .samples
            .iter()
            .map(|s| cost(s) / s.ops.max(1) as f64)
            .collect();
        let summary = Summary::of(&costs);
        match self.estimator {
            Estimator::Median => summary.median,
            Estimator::LowerQuartile => summary.q1,
        }
    }

    pub fn ops_per_s(&self) -> f64 {
        1.0 / self.per_op(|s| s.wall_s)
    }

    pub fn cpu_ns_per_op(&self) -> f64 {
        1e9 * self.per_op(|s| s.cpu_s)
    }

    pub fn joules_per_op(&self) -> f64 {
        match self.simulated {
            Some((joules, _)) => joules,
            None => self.per_op(|s| s.joules),
        }
    }

    pub fn goodput_frac(&self) -> f64 {
        match self.simulated {
            Some((_, goodput)) => goodput,
            None => 1.0 - self.failed() as f64 / self.attempted().max(1) as f64,
        }
    }
}

/// Per-layer metrics gathered by the traced run, in emission order.
#[derive(Debug, Default)]
pub struct Layers {
    pub values: Vec<(String, f64)>,
    pub gate_failures: Vec<String>,
}

impl Layers {
    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        self.values.push((name.into(), value));
    }
}

/// How many times a run sets up, so `setup_s` can be reported as a median.
pub const SETUPS: usize = 3;

/// Set up [`SETUPS`] times (once in a smoke run), recording each duration,
/// and keep the last product for the measurement.
pub fn timed_setups<T>(ctx: &Ctx, report: &mut Report, mut setup: impl FnMut() -> T) -> T {
    let mut product = None;
    for _ in 0..if ctx.smoke { 1 } else { SETUPS } {
        // Drop the previous product first, so peak memory stays that of one
        // set-up.
        drop(product.take());
        let start = Instant::now();
        product = Some(ctx.tracer.span("bench.setup", &mut setup));
        report.setup_s.push(start.elapsed().as_secs_f64());
    }
    product.expect("at least one set-up")
}

/// Repeat `rep` until the time budget is spent: at least three repetitions
/// (quartiles need them), then as many as fit. A smoke run repeats once. In a
/// traced run, span recording alternates off and on between repetitions, so
/// the same process yields the traced and the untraced median.
pub fn timed_reps(ctx: &Ctx, report: &mut Report, mut rep: impl FnMut() -> Sample) {
    let min_reps = if ctx.smoke { 1 } else { 3 };
    let tracing = ctx.tracer.is_enabled();
    let start = Instant::now();
    let mut done = 0;
    loop {
        let traced = tracing && done % 2 == 1;
        ctx.tracer.set_enabled(traced);
        ctx.tracer.next_run();
        let rep_start = Instant::now();
        let sample = ctx.tracer.span("bench.rep", &mut rep);
        report.samples.push(sample);
        report
            .rep_wall_s
            .push((traced, rep_start.elapsed().as_secs_f64()));
        done += 1;
        let elapsed = start.elapsed().as_secs_f64();
        // Stop when the next repetition would overshoot by more than half.
        if done >= min_reps && (ctx.smoke || elapsed + 0.5 * elapsed / done as f64 > ctx.seconds) {
            break;
        }
    }
    ctx.tracer.set_enabled(tracing);
}

/// Accumulates the CPU seconds (user plus system, all threads) the process
/// spends inside the calls it wraps, so that a workload can leave its own
/// checking out of a repetition's `cpu_s`. This is the energy-relevant cost: a
/// change that buys wall time by spinning harder shows here.
#[derive(Debug, Default)]
pub struct CpuClock {
    seconds: f64,
}

impl CpuClock {
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let before = crate::host::process_cpu_seconds();
        let out = f();
        if let (Some(before), Some(after)) = (before, crate::host::process_cpu_seconds()) {
            self.seconds += after - before;
        }
        out
    }

    pub fn seconds(&self) -> f64 {
        self.seconds
    }
}
