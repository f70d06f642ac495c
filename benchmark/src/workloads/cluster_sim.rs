//! `cluster_sim`: the fleet simulator under a tight cap and a crash storm.
//!
//! A batch job over a seeded open-loop schedule in virtual time: 96 nodes
//! of 2 workers, Poisson arrivals at 1.1x the uncapped fleet capacity, a
//! global cap of 0.8x the fleet's full draw, significance-aware dispatch,
//! 30 per mille transient panics, and a seeded storm that takes 30% of the
//! nodes down between one third and one half of the arrival span.
//! Single-threaded. What is timed is host seconds inside `ClusterSim::run`;
//! everything the simulator reports is simulated and must repeat exactly
//! for a seed.

use std::time::Instant;

use sig_cluster::{
    crash_storm, ClusterConfig, ClusterPhaseReport, ClusterSim, DispatchPolicy, NodeFault,
    NodeFaultKind,
};
use sig_core::{BudgetConfig, BudgetTarget};

use super::serving_sim::{classes, schedule, SERVICE_NANOS};
use super::{timed_reps, timed_setups, CpuClock, Ctx, Estimator, Layers, Report, Sample};
use crate::json::Value;
use crate::stats::{median, Summary};

pub const NODES: usize = 96;
pub const WORKERS_PER_NODE: usize = 2;
pub const PANIC_PER_MILLE: u16 = 30;
pub const LOAD: f64 = 1.1;
/// Cap as a share of the fleet's full draw.
pub const CAP_FRACTION: f64 = 0.8;
pub const CRASH_FRACTION: f64 = 0.3;
/// Full draw of one default node (2 W static + 2 x 6.6 W active).
const NODE_FULL_WATTS: f64 = 15.2;
/// Arrivals per node per simulator run at timing size: 192k for the 96-node
/// fleet, about 0.3 s of host time (see `sched_fine::TASKS`).
pub const ARRIVALS_PER_NODE: usize = 2_000;

/// One cell of the comparison the per-layer metrics make.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub nodes: usize,
    pub policy: DispatchPolicy,
    pub storm: bool,
    pub budget: bool,
}

/// The workload proper.
pub const WORKLOAD: Cell = Cell {
    nodes: NODES,
    policy: DispatchPolicy::SignificanceAware,
    storm: true,
    budget: false,
};

/// Seeded inputs of a cell: its arrival schedule and its fault schedule.
pub struct Inputs {
    schedule: Vec<(u64, usize)>,
    faults: Vec<NodeFault>,
}

pub fn inputs(ctx: &Ctx, cell: Cell, arrivals: usize) -> Inputs {
    let capacity_rps = (cell.nodes * WORKERS_PER_NODE) as f64 * 1e9 / SERVICE_NANOS as f64;
    let schedule = ctx.tracer.span("serving.schedule", || {
        schedule(capacity_rps * LOAD, arrivals, ctx.seed ^ cell.nodes as u64)
    });
    let span = schedule.last().map_or(0, |&(at, _)| at);
    let faults = if cell.storm {
        crash_storm(ctx.seed, cell.nodes, CRASH_FRACTION, span / 3, span / 2)
    } else {
        Vec::new()
    };
    Inputs { schedule, faults }
}

/// One simulator run of `cell`, with the host seconds spent inside
/// `ClusterSim::run`.
pub fn simulate(ctx: &Ctx, cell: Cell, inputs: &Inputs) -> (ClusterPhaseReport, f64) {
    let mut config = ClusterConfig {
        nodes: cell.nodes,
        workers_per_node: WORKERS_PER_NODE,
        base_service_nanos: SERVICE_NANOS,
        panic_per_mille: PANIC_PER_MILLE,
        seed: ctx.seed,
        policy: cell.policy,
        // An envelope at the configured cap: the loop samples every ledger
        // at every control tick and finds nothing to tighten.
        budget: cell.budget.then(|| {
            BudgetConfig::new(BudgetTarget::WattEnvelope {
                watts: cap_watts(cell),
            })
        }),
        ..ClusterConfig::default()
    };
    config.cap.cap_watts = cap_watts(cell);
    let mut sim = ctx
        .tracer
        .span("cluster.sim.new", || ClusterSim::new(config, classes()));
    let start = Instant::now();
    let report = ctx.tracer.span("cluster.sim.run", || {
        sim.run(&inputs.schedule, &inputs.faults)
    });
    let host_s = start.elapsed().as_secs_f64();
    ctx.tracer.span("cluster.sim.drop", || drop(sim));
    (report, host_s)
}

/// Requests of `report` that ended in no bucket of the fleet identity.
fn failed_ops(report: &ClusterPhaseReport) -> u64 {
    let s = &report.stats;
    s.offered
        .abs_diff(s.completed + s.violations() + s.shed + report.lost_to_crash)
}

/// Joules by which the fleet's draw may stand above the cap over a phase.
/// Without faults the simulator holds the cap exactly. When crashed nodes
/// restart under load, their idle draw returns up to one control tick
/// before the cap controller re-targets, so each restart may overshoot by at
/// most its node's idle floor for one tick (0.087 J for the 29 restarts
/// here; 0.005 to 0.015 J is what is seen). The repository's own cap tests
/// run without faults and do not see it. The exact value is reported as
/// `cluster.violation_joules` and is part of the fingerprint.
fn allowed_overshoot_joules(restarts: usize) -> f64 {
    let config = ClusterConfig::default();
    let model = config.node_model;
    let idle_watts =
        model.static_watts_per_socket + model.cores_per_socket as f64 * model.idle_watts_per_core;
    restarts as f64 * idle_watts * config.cap.tick_nanos as f64 * 1e-9
}

fn cap_watts(cell: Cell) -> f64 {
    cell.nodes as f64 * NODE_FULL_WATTS * CAP_FRACTION
}

fn check(report: &ClusterPhaseReport, inputs: &Inputs, first: &str, fail: &mut dyn FnMut(String)) {
    let offered = inputs.schedule.len();
    if !report.balanced() || report.stats.offered != offered as u64 {
        fail(format!(
            "cluster_sim: books do not balance ({} offered of {offered}, {} unaccounted)",
            report.stats.offered,
            failed_ops(report)
        ));
    }
    let restarts = inputs
        .faults
        .iter()
        .filter(|f| f.kind == NodeFaultKind::Up)
        .count();
    let allowed = allowed_overshoot_joules(restarts);
    if report.violation_joules > allowed {
        fail(format!(
            "cluster_sim: the cap was violated by {} J, more than the {allowed} J allowed",
            report.violation_joules
        ));
    }
    if report.max_shed_significance >= 1.0 {
        fail("cluster_sim: a significance-1.0 request was shed".into());
    }
    let print = report.fingerprint();
    if print != first {
        fail(format!(
            "cluster_sim: simulated outcome differs between repetitions:\n  {first}\n  {print}"
        ));
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report {
        estimator: Estimator::LowerQuartile,
        ..Report::default()
    };
    let arrivals = ctx.scaled(NODES * ARRIVALS_PER_NODE);
    let (inputs, first) = timed_setups(ctx, &mut report, || {
        let inputs = inputs(ctx, WORKLOAD, arrivals);
        let (warm_up, _) = simulate(ctx, WORKLOAD, &inputs);
        (inputs, warm_up)
    });
    let first_print = first.fingerprint();

    let mut phases = Vec::new();
    timed_reps(ctx, &mut report, || {
        let mut cpu = CpuClock::default();
        let (phase, host_s) = cpu.time(|| simulate(ctx, WORKLOAD, &inputs));
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
        check(phase, &inputs, &first_print, &mut |f| {
            report.gate_failures.push(f)
        });
    }
    report.simulated = Some((first.joules_per_completed(), first.goodput()));
    let host = Summary::of(&report.samples.iter().map(|s| s.wall_s).collect::<Vec<_>>());
    report.detail = vec![
        ("arrivals".into(), Value::Num(arrivals as f64)),
        ("nodes".into(), Value::Num(NODES as f64)),
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
    let reps = if ctx.smoke { 1 } else { 3 };
    let per_node = ctx.scaled(ARRIVALS_PER_NODE);
    let mut measure = |cell: Cell| -> (ClusterPhaseReport, f64) {
        let arrivals = cell.nodes * per_node;
        let inputs = inputs(ctx, cell, arrivals);
        let (first, _) = simulate(ctx, cell, &inputs); // warm-up
        let print = first.fingerprint();
        let host: Vec<f64> = (0..reps)
            .map(|_| {
                let (phase, seconds) = simulate(ctx, cell, &inputs);
                check(&phase, &inputs, &print, &mut |f| out.gate_failures.push(f));
                seconds
            })
            .collect();
        (first, median(&host) * 1e9 / arrivals as f64)
    };

    let fleet = |nodes: usize| Cell { nodes, ..WORKLOAD };
    let (_, n6) = measure(fleet(6));
    let (_, n24) = measure(fleet(24));
    let (full, n96) = measure(fleet(NODES));
    let (_, round_robin) = measure(Cell {
        policy: DispatchPolicy::RoundRobin,
        ..WORKLOAD
    });
    let (_, no_faults) = measure(Cell {
        storm: false,
        ..WORKLOAD
    });
    let (_, budget) = measure(Cell {
        budget: true,
        ..WORKLOAD
    });
    out.put("cluster.sim.ns_per_request.n6", n6);
    out.put("cluster.sim.ns_per_request.n24", n24);
    out.put("cluster.sim.ns_per_request.n96", n96);
    out.put("cluster.sim.ns_per_request.round_robin", round_robin);
    out.put("cluster.sim.ns_per_request.no_faults", no_faults);
    out.put("cluster.sim.ns_per_request.budget", budget);
    out.put("cluster.lost_to_crash", full.lost_to_crash as f64);
    out.put("cluster.retries", full.stats.retries as f64);
    out.put("cluster.shed", full.stats.shed as f64);
    out.put("cluster.downgraded", full.stats.downgraded as f64);
    out.put("cluster.violation_joules", full.violation_joules);
    out.put("cluster.goodput", full.goodput());
    out.put("cluster.joules_per_completed", full.joules_per_completed());
    out.put(
        "cluster.p99_ms",
        full.stats.latency.quantile(0.99) as f64 / 1e6,
    );
}
