//! `sched_fine`: empty-body tasks through the scheduler path of `sig-core`.
//!
//! Closed loop, one client: the spawner thread issues every task of a pass
//! with `TaskBuilder::spawn`, then blocks in `wait_group`. Each task has an
//! accurate and an approximate body, both a single relaxed counter bump, a
//! seeded significance in 0.1..=0.9, and belongs to one group at ratio 0.5.
//! A repetition is four passes, one per policy, each on a fresh runtime.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use sig_core::{
    BatchTask, BudgetConfig, BudgetTarget, GroupStatsSnapshot, OutcomeSummary, Policy, Runtime,
    RuntimeBuilder, SignificanceLadderGovernor,
};
use sig_serving::SplitMix64;

use super::{timed_reps, timed_setups, CpuClock, Ctx, Layers, Report, Sample};
use crate::host;
use crate::json::Value;
use crate::stats::{median, Summary};

/// Tasks per pass at timing size. Long enough that a pass (about 0.1 s) is
/// all steady state, short enough that a run holds some twenty repetitions:
/// on a shared host the median of many short passes rejects a burst of
/// interference that a few long passes would each absorb a part of.
pub const TASKS: usize = 100_000;
pub const GROUP_RATIO: f64 = 0.5;
pub const POLICIES: [(&str, Policy); 4] = [
    ("agnostic", Policy::SignificanceAgnostic),
    ("gtb", Policy::Gtb { buffer_size: 32 }),
    ("gtb_max", Policy::GtbMaxBuffer),
    ("lqh", Policy::Lqh),
];

// Statics, not `Arc`s: a per-task `Arc` clone on the spawner and drop on the
// worker would bounce a refcount line between cores inside the timed window.
static ACCURATE_BODIES: AtomicU64 = AtomicU64::new(0);
static APPROX_BODIES: AtomicU64 = AtomicU64::new(0);

/// Seeded significance of every task of a pass, in tenths (1..=9).
pub fn significances(seed: u64, tasks: usize) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed ^ 0x5c4e_d0f1_0e00_0001);
    (0..tasks).map(|_| (rng.next_u64() % 9) as u8 + 1).collect()
}

/// How a pass configures its runtime and injects its tasks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Variant {
    /// Default builder under the given policy.
    Plain(Policy),
    /// Host energy model plus a four-rung ladder governor.
    Governed,
    /// An energy budget set, generous enough never to bind.
    BudgetOn,
    /// Overload watermarks armed, out of reach.
    RobustInert,
    /// `spawn_batch` in batches of 256 instead of per-task spawns.
    Batched,
}

impl Variant {
    fn policy(self) -> Policy {
        match self {
            Variant::Plain(policy) => policy,
            // GTB so that approximate dispatches exist for the governor and
            // the budget's ratio scaling to act on.
            Variant::Governed | Variant::BudgetOn => Policy::Gtb { buffer_size: 32 },
            Variant::RobustInert | Variant::Batched => Policy::SignificanceAgnostic,
        }
    }

    fn configure(self, builder: RuntimeBuilder) -> RuntimeBuilder {
        match self {
            Variant::Plain(_) | Variant::Batched => builder,
            Variant::Governed => builder.governor(SignificanceLadderGovernor::with_ladder(4, 0.4)),
            Variant::BudgetOn => {
                builder.energy_budget(BudgetConfig::new(BudgetTarget::WattEnvelope { watts: 1e9 }))
            }
            Variant::RobustInert => builder
                .queue_watermark(1 << 40)
                .deadline_miss_watermark(1.0),
        }
    }
}

/// Everything one pass measured.
pub struct Pass {
    pub build_s: f64,
    pub spawn_s: f64,
    pub wait_s: f64,
    pub drop_s: f64,
    pub joules: f64,
    pub outcome: OutcomeSummary,
    pub group: GroupStatsSnapshot,
    pub bodies_run: u64,
    pub steals: usize,
    pub buffer_flushes: usize,
    pub voluntary_switches: u64,
}

impl Pass {
    /// Spawn loop plus barrier: the window a client of the runtime waits.
    pub fn wall_s(&self) -> f64 {
        self.spawn_s + self.wait_s
    }
}

/// One pass: fresh runtime, spawn every task, barrier, harvest, drop.
pub fn pass(ctx: &Ctx, variant: Variant, sigs: &[u8]) -> Pass {
    let tracer = ctx.tracer;
    ACCURATE_BODIES.store(0, Ordering::Relaxed);
    APPROX_BODIES.store(0, Ordering::Relaxed);
    let workers = ctx.placement.sched_workers();

    let build_start = Instant::now();
    let rt = tracer.span("core.build", || {
        ctx.placement.build_on_worker_cpus(|| {
            variant
                .configure(Runtime::builder().workers(workers).policy(variant.policy()))
                .build()
        })
    });
    let group = rt.create_group("fine", GROUP_RATIO);
    let build_s = build_start.elapsed().as_secs_f64();
    let switches_before = host::voluntary_context_switches();

    let accurate = || {
        ACCURATE_BODIES.fetch_add(1, Ordering::Relaxed);
    };
    let approximate = || {
        APPROX_BODIES.fetch_add(1, Ordering::Relaxed);
    };
    let spawn_start = Instant::now();
    tracer.span("core.spawn_loop", || {
        if variant == Variant::Batched {
            for chunk in sigs.chunks(256) {
                rt.batch().group(&group).spawn_tasks(chunk.iter().map(|&s| {
                    BatchTask::new(accurate)
                        .approx(approximate)
                        .significance(f64::from(s) / 10.0)
                }));
            }
        } else {
            for &s in sigs {
                rt.task(accurate)
                    .approx(approximate)
                    .significance(f64::from(s) / 10.0)
                    .group(&group)
                    .spawn();
            }
        }
    });
    let spawn_s = spawn_start.elapsed().as_secs_f64();
    let outcome = tracer.span("core.wait", || rt.wait_group(&group));
    let wall = spawn_start.elapsed();
    let wait_s = wall.as_secs_f64() - spawn_s;

    let harvested = tracer.span("bench.harvest", || {
        let switches = match (switches_before, host::voluntary_context_switches()) {
            (Some(before), Some(after)) => after.saturating_sub(before),
            _ => 0,
        };
        (
            rt.energy_report_at(wall).reading().joules,
            rt.group_stats(&group),
            rt.stats().steals(),
            rt.stats().buffer_flushes(),
            switches,
        )
    });
    let drop_start = Instant::now();
    tracer.span("core.drop", || drop(rt));
    let (joules, group, steals, buffer_flushes, voluntary_switches) = harvested;
    Pass {
        build_s,
        spawn_s,
        wait_s,
        drop_s: drop_start.elapsed().as_secs_f64(),
        joules,
        outcome,
        group,
        bodies_run: ACCURATE_BODIES.load(Ordering::Relaxed) + APPROX_BODIES.load(Ordering::Relaxed),
        steals,
        buffer_flushes,
        voluntary_switches,
    }
}

/// Operations of `pass` that failed: tasks that did not complete, or every
/// task when the bodies that ran do not add up to the tasks spawned.
fn failed_ops(pass: &Pass, tasks: usize) -> u64 {
    if pass.bodies_run != tasks as u64 || pass.outcome.spawned != tasks {
        tasks as u64
    } else {
        (pass.outcome.spawned - pass.outcome.completed) as u64
    }
}

fn check_pass(name: &str, policy: Policy, pass: &Pass, tasks: usize, fail: &mut dyn FnMut(String)) {
    if failed_ops(pass, tasks) != 0 {
        fail(format!(
            "sched_fine {name}: {} bodies ran and {} of {} tasks completed, expected {tasks}",
            pass.bodies_run, pass.outcome.completed, pass.outcome.spawned
        ));
    }
    let want = match policy {
        Policy::SignificanceAgnostic => 1.0,
        // LQH admits a significance level whole, so with nine equally likely
        // levels it honours 0.5 as the next whole level up.
        Policy::Lqh => (GROUP_RATIO * 9.0).ceil() / 9.0,
        _ => GROUP_RATIO,
    };
    let got = pass.group.achieved_ratio();
    if (got - want).abs() > 0.05 {
        fail(format!(
            "sched_fine {name}: accurate ratio {got:.4}, expected {want} within 0.05"
        ));
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let tasks = ctx.scaled(TASKS);
    let sigs = timed_setups(ctx, &mut report, || {
        let sigs = significances(ctx.seed, tasks);
        for (_, policy) in POLICIES {
            pass(ctx, Variant::Plain(policy), &sigs);
        }
        sigs
    });

    let mut passes: [Vec<Pass>; 4] = Default::default();
    timed_reps(ctx, &mut report, || {
        let mut cpu = CpuClock::default();
        let mut sample = Sample::default();
        for (slot, (_, policy)) in passes.iter_mut().zip(POLICIES) {
            let pass = cpu.time(|| pass(ctx, Variant::Plain(policy), &sigs));
            sample.ops += tasks as u64;
            sample.failed += failed_ops(&pass, tasks);
            sample.wall_s += pass.wall_s();
            sample.joules += pass.joules;
            slot.push(pass);
        }
        sample.cpu_s = cpu.seconds();
        sample
    });

    let mut per_policy = Vec::new();
    for ((name, policy), runs) in POLICIES.into_iter().zip(&passes) {
        for run in runs {
            check_pass(name, policy, run, tasks, &mut |f| {
                report.gate_failures.push(f)
            });
        }
        let walls: Vec<f64> = runs.iter().map(Pass::wall_s).collect();
        per_policy.push((format!("{name}_pass_wall_s"), Summary::of(&walls).to_json()));
    }
    report.detail = vec![
        ("tasks_per_pass".into(), Value::Num(tasks as f64)),
        (
            "workers".into(),
            Value::Num(ctx.placement.sched_workers() as f64),
        ),
    ];
    report.detail.extend(per_policy);
    report
}

/// Idle `wait_all` round trips timed for `core.barrier.ns`.
const BARRIER_CALLS: usize = 200_000;

pub fn layers(ctx: &Ctx, out: &mut Layers) {
    let tasks = ctx.scaled(TASKS);
    let reps = if ctx.smoke { 1 } else { 3 };
    let sigs = significances(ctx.seed, tasks);
    let per_task = |seconds: f64| seconds * 1e9 / tasks as f64;
    let median_of =
        |runs: &[Pass], f: fn(&Pass) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let measure = |variant: Variant| -> Vec<Pass> {
        pass(ctx, variant, &sigs); // warm-up
        (0..reps).map(|_| pass(ctx, variant, &sigs)).collect()
    };

    let mut spawn_ns = Vec::new();
    let mut drain_ns = Vec::new();
    let mut build_drop_us = Vec::new();
    let (mut steals, mut flushes, mut switches) = (0usize, 0usize, 0u64);
    let (mut ratio_error, mut inversion_pct) = (Vec::new(), Vec::new());
    let mut policy_ns = Vec::new();
    for (name, policy) in POLICIES {
        let runs = measure(Variant::Plain(policy));
        for run in &runs {
            check_pass(name, policy, run, tasks, &mut |f| out.gate_failures.push(f));
            build_drop_us.push((run.build_s + run.drop_s) * 1e6);
            steals += run.steals;
            flushes += run.buffer_flushes;
            switches += run.voluntary_switches;
            if policy != Policy::SignificanceAgnostic {
                ratio_error.push(run.group.ratio_diff());
                inversion_pct.push(run.group.inversion_percentage());
            }
        }
        spawn_ns.push(per_task(median_of(&runs, |p| p.spawn_s)));
        drain_ns.push(per_task(median_of(&runs, |p| p.wait_s)));
        policy_ns.push((name, per_task(median_of(&runs, Pass::wall_s))));
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let ktasks = (POLICIES.len() * reps * tasks) as f64 / 1e3;
    // The mean over the four policies of each window; their sum is the
    // end-to-end wall per task by construction.
    out.put("core.spawn.ns_per_task", mean(&spawn_ns));
    out.put("core.drain.ns_per_task", mean(&drain_ns));
    let batched = measure(Variant::Batched);
    out.put(
        "core.spawn_batch.ns_per_task",
        per_task(median_of(&batched, Pass::wall_s)),
    );
    out.put("core.barrier.ns", idle_barrier_ns(ctx));
    out.put("core.build_drop.us", median(&build_drop_us));
    for (name, ns) in policy_ns {
        out.put(format!("core.policy.{name}.ns_per_task"), ns);
    }
    for (name, variant) in [
        ("governed", Variant::Governed),
        ("budget_on", Variant::BudgetOn),
        ("robust_inert", Variant::RobustInert),
    ] {
        let runs = measure(variant);
        out.put(
            format!("core.{name}.ns_per_task"),
            per_task(median_of(&runs, Pass::wall_s)),
        );
    }
    out.put("core.steals_per_ktask", steals as f64 / ktasks);
    out.put(
        "core.buffer_flushes",
        flushes as f64 / (POLICIES.len() * reps) as f64,
    );
    out.put("core.vol_ctx_per_ktask", switches as f64 / ktasks);
    out.put("core.ratio_error", mean(&ratio_error));
    out.put("core.inversion_pct", mean(&inversion_pct));
}

fn idle_barrier_ns(ctx: &Ctx) -> f64 {
    let calls = ctx.scaled(BARRIER_CALLS);
    let workers = ctx.placement.sched_workers();
    let rt = ctx
        .placement
        .build_on_worker_cpus(|| Runtime::builder().workers(workers).build());
    rt.wait_all();
    let start = Instant::now();
    for _ in 0..calls {
        std::hint::black_box(rt.wait_all());
    }
    start.elapsed().as_secs_f64() * 1e9 / calls as f64
}
