//! `serving_sim`: the single-node virtual-time serving simulator under
//! overload.
//!
//! A batch job over a seeded open-loop schedule in virtual time: Poisson
//! arrivals at 1.5x the tier-0 capacity of 4 simulated workers with 1 ms
//! service, the serving-bench class mix (20/50/30 critical / standard /
//! background, three-rung ladders), 150 per mille transient panics with
//! retries, a significance-ladder governor, shallow sleep and the typical
//! transition cost. Single-threaded, so free of scheduler noise. What is
//! timed is host seconds inside `Simulator::run`; everything the simulator
//! reports is simulated and must repeat exactly for a seed.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sig_core::{
    ExecutionEnv, FrequencyScale, PowerModel, SignificanceLadderGovernor, SleepState,
    TransitionCost,
};
use sig_serving::{
    AdmissionConfig, ArrivalPattern, PhaseReport, QualityTier, RequestClass, RetryPolicy,
    SimConfig, Simulator, SplitMix64,
};

use super::{timed_reps, timed_setups, CpuClock, Ctx, Estimator, Layers, Report, Sample};
use crate::json::Value;
use crate::stats::{median, Summary};

pub const WORKERS: usize = 4;
pub const SERVICE_NANOS: u64 = 1_000_000;
pub const PANIC_PER_MILLE: u16 = 150;
pub const LOAD: f64 = 1.5;
/// Arrivals per simulator run at timing size: about 0.2 s of host time, so
/// that a run holds some forty repetitions (see `sched_fine::TASKS`).
pub const ARRIVALS: usize = 250_000;

/// The class population of the serving and cluster benches: a critical
/// class that never degrades, and two sub-critical classes with three-rung
/// quality ladders.
pub fn classes() -> Vec<RequestClass> {
    let deadline = Duration::from_nanos(SERVICE_NANOS * 20);
    let retry = RetryPolicy {
        max_retries: 2,
        base_backoff: Duration::from_nanos(SERVICE_NANOS / 4),
        jitter: 0.3,
    };
    let ladder = |significance: f64| {
        [(1.0, 1.0), (0.6, 0.5), (0.3, 0.25)]
            .map(|(keep, work_factor)| QualityTier {
                significance: significance * keep,
                work_factor,
            })
            .to_vec()
    };
    vec![
        RequestClass::exact("critical", 1.0, deadline, retry),
        RequestClass {
            name: "standard".into(),
            tiers: ladder(0.7),
            deadline,
            retry,
        },
        RequestClass {
            name: "background".into(),
            tiers: ladder(0.3),
            deadline,
            retry,
        },
    ]
}

/// Seeded open-loop schedule: Poisson offsets at `rate_per_sec`, each with
/// a class pick of about 20% critical, 50% standard, 30% background.
pub fn schedule(rate_per_sec: f64, count: usize, seed: u64) -> Vec<(u64, usize)> {
    let offsets = ArrivalPattern::Poisson { rate_per_sec }.schedule(seed, count);
    let mut rng = SplitMix64::new(seed ^ 0xc1a5_5e5e_ed00_0001);
    offsets
        .into_iter()
        .map(|at| {
            let class = match rng.next_u64() % 10 {
                0 | 1 => 0,
                2..=6 => 1,
                _ => 2,
            };
            (at, class)
        })
        .collect()
}

pub fn capacity_rps() -> f64 {
    WORKERS as f64 * 1e9 / SERVICE_NANOS as f64
}

/// The dynamic-heavy package the serving bench prices energy with.
pub fn power_model() -> PowerModel {
    PowerModel {
        sockets: 1,
        cores_per_socket: WORKERS,
        static_watts_per_socket: WORKERS as f64,
        active_watts_per_core: 6.6,
        idle_watts_per_core: 0.5,
    }
}

pub fn ladder_steps() -> Vec<FrequencyScale> {
    FrequencyScale::ladder(4, 0.4)
        .into_iter()
        .map(|s| FrequencyScale::with_exponent(s.ratio(), 2.4))
        .collect()
}

fn ladder_env() -> ExecutionEnv {
    ExecutionEnv::new(
        power_model(),
        Arc::new(SignificanceLadderGovernor::new(ladder_steps())),
        Some(SleepState::shallow()),
        TransitionCost::typical(),
        WORKERS,
    )
}

/// One simulator run over `schedule`, with the host seconds spent inside
/// `Simulator::run`.
pub fn simulate(ctx: &Ctx, seed: u64, schedule: &[(u64, usize)]) -> (PhaseReport, f64) {
    let mut sim = ctx.tracer.span("serving.sim.new", || {
        Simulator::new(
            SimConfig {
                workers: WORKERS,
                base_service_nanos: SERVICE_NANOS,
                panic_per_mille: PANIC_PER_MILLE,
                seed,
                admission: AdmissionConfig::default(),
                budget: None,
            },
            classes(),
            ladder_env(),
        )
    });
    let start = Instant::now();
    let report = ctx.tracer.span("serving.sim.run", || sim.run(schedule));
    let host_s = start.elapsed().as_secs_f64();
    ctx.tracer.span("serving.sim.drop", || drop(sim));
    (report, host_s)
}

/// Every simulated figure of a run, floats by bit pattern: two runs agree
/// on this iff their simulated outcome is identical.
pub fn fingerprint(report: &PhaseReport) -> String {
    let s = &report.stats;
    format!(
        "offered={} completed={} shed={} violations={} retries={} downgraded={} p50={} p99={} \
         wall={} joules={:016x}",
        s.offered,
        s.completed,
        s.shed,
        s.violations(),
        s.retries,
        s.downgraded,
        s.latency.quantile(0.50),
        s.latency.quantile(0.99),
        report.wall_nanos,
        report.joules.to_bits(),
    )
}

/// Highest best-tier significance among the classes that had a request shed
/// (negative when nothing was shed).
fn max_shed_significance(report: &PhaseReport, classes: &[RequestClass]) -> f64 {
    classes
        .iter()
        .enumerate()
        .filter(|(class, _)| {
            report
                .stats
                .shed_by_class
                .get(*class)
                .is_some_and(|&n| n > 0)
        })
        .map(|(_, spec)| spec.significance())
        .fold(-1.0, f64::max)
}

/// Requests of `report` that ended in no bucket of the accounting identity.
fn failed_ops(report: &PhaseReport) -> u64 {
    let s = &report.stats;
    s.offered.abs_diff(s.completed + s.violations() + s.shed)
}

fn check(report: &PhaseReport, offered: usize, first: &str, fail: &mut dyn FnMut(String)) {
    if !report.stats.balanced() || report.stats.offered != offered as u64 {
        fail(format!(
            "serving_sim: books do not balance ({} offered of {offered}, {} unaccounted)",
            report.stats.offered,
            failed_ops(report)
        ));
    }
    if max_shed_significance(report, &classes()) >= 1.0 {
        fail("serving_sim: a significance-1.0 request was shed".into());
    }
    let print = fingerprint(report);
    if print != first {
        fail(format!(
            "serving_sim: simulated outcome differs between repetitions:\n  {first}\n  {print}"
        ));
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report {
        estimator: Estimator::LowerQuartile,
        ..Report::default()
    };
    let arrivals = ctx.scaled(ARRIVALS);
    let (schedule, first) = timed_setups(ctx, &mut report, || {
        let schedule = ctx.tracer.span("serving.schedule", || {
            schedule(capacity_rps() * LOAD, arrivals, ctx.seed)
        });
        let (warm_up, _) = simulate(ctx, ctx.seed, &schedule);
        (schedule, warm_up)
    });
    let first_print = fingerprint(&first);

    let mut phases = Vec::new();
    timed_reps(ctx, &mut report, || {
        let mut cpu = CpuClock::default();
        let (phase, host_s) = cpu.time(|| simulate(ctx, ctx.seed, &schedule));
        let sample = Sample {
            ops: arrivals as u64,
            failed: failed_ops(&phase),
            wall_s: host_s,
            cpu_s: cpu.seconds(),
            joules: 0.0,
        };
        phases.push(phase);
        sample
    });
    for phase in &phases {
        check(phase, arrivals, &first_print, &mut |f| {
            report.gate_failures.push(f)
        });
    }
    report.simulated = Some((first.joules_per_completed(), first.stats.goodput()));
    let host = Summary::of(&report.samples.iter().map(|s| s.wall_s).collect::<Vec<_>>());
    report.detail = vec![
        ("arrivals".into(), Value::Num(arrivals as f64)),
        ("load".into(), Value::Num(LOAD)),
        ("sim_run_host_s".into(), host.to_json()),
        (
            "sim_p99_ms".into(),
            Value::Num(first.stats.latency.quantile(0.99) as f64 / 1e6),
        ),
        ("sim_fingerprint".into(), Value::str(first_print)),
    ];
    report
}

pub fn layers(ctx: &Ctx, out: &mut Layers) {
    let arrivals = ctx.scaled(ARRIVALS);
    let reps = if ctx.smoke { 1 } else { 3 };

    let start = Instant::now();
    let overloaded = schedule(capacity_rps() * LOAD, arrivals, ctx.seed);
    out.put(
        "serving.schedule.ns_per_arrival",
        start.elapsed().as_secs_f64() * 1e9 / arrivals as f64,
    );
    let underloaded = schedule(capacity_rps() * 0.7, arrivals, ctx.seed);

    let mut measure = |schedule: &[(u64, usize)]| -> (PhaseReport, f64) {
        let (first, _) = simulate(ctx, ctx.seed, schedule); // warm-up
        let print = fingerprint(&first);
        let host: Vec<f64> = (0..reps)
            .map(|_| {
                let (phase, seconds) = simulate(ctx, ctx.seed, schedule);
                check(&phase, arrivals, &print, &mut |f| out.gate_failures.push(f));
                seconds
            })
            .collect();
        (first, median(&host))
    };
    let (idle, idle_s) = measure(&underloaded);
    let (busy, busy_s) = measure(&overloaded);
    out.put(
        "serving.sim.ns_per_request.load0_7",
        idle_s * 1e9 / arrivals as f64,
    );
    out.put(
        "serving.sim.ns_per_request.load1_5",
        busy_s * 1e9 / arrivals as f64,
    );
    // An attempt is one admitted execution: first tries plus retries.
    let attempts = busy.stats.offered - busy.stats.shed + busy.stats.retries;
    out.put("serving.sim.ns_per_attempt", busy_s * 1e9 / attempts as f64);
    drop(idle);

    out.put("serving.retries", busy.stats.retries as f64);
    out.put("serving.shed", busy.stats.shed as f64);
    out.put("serving.downgraded", busy.stats.downgraded as f64);
    out.put("serving.violations", busy.stats.violations() as f64);
    out.put("serving.goodput", busy.stats.goodput());
    out.put("serving.joules_per_completed", busy.joules_per_completed());
    out.put(
        "serving.p99_ms",
        busy.stats.latency.quantile(0.99) as f64 / 1e6,
    );
}
