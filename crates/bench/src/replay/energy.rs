//! Energy-strategy comparison: exact-only vs slow-and-steady
//! ([`SignificanceLadderGovernor`]) vs [`AdaptiveGovernor::race_to_idle`] vs
//! the [`AdaptiveGovernor`] proper, on both [`Package`]s.
//!
//! One fixed workload script (task significances, Max-Buffer-GTB accuracy
//! decisions, per-task busy durations) is driven through the runtime's real
//! [`ExecutionEnv`] accounting under each governor, so `adaptive ≤
//! min(ladder, race-to-idle)` is checkable without noise margins. Frequency
//! transitions carry a cost: the ladder governor thrashes (one switch per
//! significance change) while the adaptive governor's hysteresis bounds
//! switches to `dispatches / hysteresis` per worker.

use std::sync::Arc;
use std::time::Duration;

use sig_core::{
    AdaptiveGovernor, DispatchContext, EnergyReading, ExecutionEnv, ExecutionMode, Governor,
    NominalGovernor, Policy, Significance, SignificanceLadderGovernor,
};

use super::workload::{
    joule_members, Package, ACCURATE_TASK_SECONDS, APPROX_TASK_SECONDS, HYSTERESIS, LADDER_FLOOR,
    LADDER_STEPS, REPLAY_TRANSITION, WORKERS,
};
use crate::json::{fixed, Json};

/// Tasks in the workload script.
const TASKS: usize = 4_000;
/// Requested accurate ratio.
const RATIO: f64 = 0.5;

/// One task of the workload script.
struct SimTask {
    significance: f64,
    accurate: bool,
}

/// Significances cycle 0.1..0.9; the top [`RATIO`] fraction (by
/// significance) is accurate — with nine equiprobable levels the threshold
/// is the `1 - RATIO` quantile.
fn workload() -> Vec<SimTask> {
    let threshold = 0.1 + (1.0 - RATIO) * 0.8;
    (0..TASKS)
        .map(|i| {
            let significance = ((i % 9) + 1) as f64 / 10.0;
            SimTask {
                significance,
                accurate: significance > threshold,
            }
        })
        .collect()
}

/// The workload replayed under one governor.
pub struct StrategyRun {
    /// Modelled energy of the run.
    pub reading: EnergyReading,
    /// Wall window after dilation.
    pub modelled_wall_seconds: f64,
    /// Core-seconds slept.
    pub sleep_seconds: f64,
    /// DVFS domain switches.
    pub transitions: u64,
    /// Dispatches below nominal frequency.
    pub scaled_tasks: u64,
}

/// Same dispatch/record path the workers take, with synthetic busy
/// durations. Tasks are dealt round-robin across the workers; each worker
/// then drains its backlog accuracy-class first (accurate, then approximate,
/// arrival order within a class) — a significance-aware dispatch order that
/// keeps the unavoidable nominal↔step domain crossings at one per class
/// boundary. The wall window is the perfectly balanced `total busy /
/// workers`.
fn run_strategy(
    package: &Package,
    governor: Arc<dyn Governor>,
    workload: &[SimTask],
) -> StrategyRun {
    let env = ExecutionEnv::new(
        package.model,
        governor,
        Some(package.sleep),
        REPLAY_TRANSITION,
        WORKERS,
    );
    let mut backlog: Vec<Vec<&SimTask>> = vec![Vec::new(); WORKERS];
    for (i, task) in workload.iter().enumerate() {
        backlog[i % WORKERS].push(task);
    }
    let mut total_busy = 0.0f64;
    for (worker, tasks) in backlog.iter().enumerate() {
        let ordered = tasks
            .iter()
            .filter(|t| t.accurate)
            .chain(tasks.iter().filter(|t| !t.accurate));
        for task in ordered {
            let decision = env.dispatch(
                worker,
                &DispatchContext {
                    worker,
                    significance: Significance::new(task.significance),
                    accurate: task.accurate,
                    policy: Policy::GtbMaxBuffer,
                    group_ratio: RATIO,
                    deadline_pressure: false,
                },
            );
            let (mode, busy) = if task.accurate {
                (ExecutionMode::Accurate, ACCURATE_TASK_SECONDS)
            } else {
                (ExecutionMode::Approximate, APPROX_TASK_SECONDS)
            };
            total_busy += busy;
            env.record(worker, mode, Duration::from_secs_f64(busy), decision);
        }
    }
    let report = env.report(total_busy / WORKERS as f64, WORKERS);
    StrategyRun {
        reading: report.reading(),
        modelled_wall_seconds: report.modelled_wall_seconds(),
        sleep_seconds: report.sleep_seconds(),
        transitions: report.frequency_transitions(),
        scaled_tasks: report.scaled_tasks(),
    }
}

/// The four strategies on one package.
pub struct Scenario {
    /// The package priced.
    pub package: Package,
    /// Every task accurate at nominal frequency.
    pub exact: StrategyRun,
    /// Slow-and-steady.
    pub ladder: StrategyRun,
    /// Race-to-idle.
    pub race: StrategyRun,
    /// Per-rung stretch vs race with hysteresis.
    pub adaptive: StrategyRun,
}

impl Scenario {
    /// Modelled energy reduction (%) of adaptive over exact-only.
    pub fn adaptive_reduction_percent(&self) -> f64 {
        100.0 * (1.0 - self.adaptive.reading.joules / self.exact.reading.joules)
    }
}

fn run_scenario(package: Package) -> Scenario {
    let workload = workload();
    let exact_workload: Vec<SimTask> = workload
        .iter()
        .map(|t| SimTask {
            significance: t.significance,
            accurate: true,
        })
        .collect();
    let steps = package.ladder();
    let exact = run_strategy(&package, Arc::new(NominalGovernor), &exact_workload);
    let ladder = run_strategy(
        &package,
        Arc::new(SignificanceLadderGovernor::new(steps.clone())),
        &workload,
    );
    let race = run_strategy(
        &package,
        Arc::new(AdaptiveGovernor::race_to_idle(steps.clone())),
        &workload,
    );
    let adaptive = run_strategy(
        &package,
        Arc::new(AdaptiveGovernor::new(
            &package.model,
            package.sleep,
            steps,
            HYSTERESIS,
            APPROX_TASK_SECONDS,
        )),
        &workload,
    );
    Scenario {
        package,
        exact,
        ladder,
        race,
        adaptive,
    }
}

/// Both packages, dynamic-heavy first.
pub struct Report {
    /// One entry per package.
    pub scenarios: Vec<Scenario>,
}

/// Replay the strategy comparison.
pub fn run() -> Report {
    Report {
        scenarios: [Package::dynamic_heavy(), Package::static_heavy()]
            .into_iter()
            .map(run_scenario)
            .collect(),
    }
}

/// What must hold on every package (exact: the replay has no noise).
pub fn invariant_errors(report: &Report) -> Vec<String> {
    let mut errors = Vec::new();
    for scenario in &report.scenarios {
        let name = scenario.package.name;
        let adaptive = scenario.adaptive.reading.joules;
        let floor = scenario
            .ladder
            .reading
            .joules
            .min(scenario.race.reading.joules);
        if adaptive > floor * (1.0 + 1e-9) {
            errors.push(format!(
                "{name}: adaptive {adaptive} J exceeds min(ladder, race) = {floor} J"
            ));
        }
        if adaptive >= scenario.exact.reading.joules {
            errors.push(format!(
                "{name}: adaptive does not reduce energy vs exact-only"
            ));
        }
        // Each worker's domain re-targets at most once per HYSTERESIS
        // dispatches (plus one initial transition).
        let bound = (TASKS as u64 / HYSTERESIS as u64) + WORKERS as u64;
        if scenario.adaptive.transitions > bound {
            errors.push(format!(
                "{name}: adaptive transitions {} exceed hysteresis bound {bound}",
                scenario.adaptive.transitions
            ));
        }
        if scenario.race.transitions != 0 {
            errors.push(format!(
                "{name}: race-to-idle paid {} DVFS transitions",
                scenario.race.transitions
            ));
        }
    }
    errors
}

fn strategy_json(run: &StrategyRun) -> Json {
    let mut members = joule_members(&run.reading);
    members.extend([
        (
            "transition_joules",
            fixed(run.reading.breakdown.transition_joules, 6),
        ),
        ("modelled_wall_seconds", fixed(run.modelled_wall_seconds, 6)),
        ("sleep_seconds", fixed(run.sleep_seconds, 6)),
        ("frequency_transitions", run.transitions.into()),
        ("scaled_tasks", run.scaled_tasks.into()),
    ]);
    Json::object(members)
}

fn scenario_json(scenario: &Scenario) -> Json {
    let Package {
        model,
        sleep,
        power_exponent,
        ..
    } = &scenario.package;
    Json::object([
        (
            "model",
            Json::object([
                ("sockets", model.sockets.into()),
                ("cores_per_socket", model.cores_per_socket.into()),
                (
                    "static_watts_per_socket",
                    model.static_watts_per_socket.into(),
                ),
                ("active_watts_per_core", model.active_watts_per_core.into()),
                ("idle_watts_per_core", model.idle_watts_per_core.into()),
            ]),
        ),
        ("power_exponent", (*power_exponent).into()),
        (
            "sleep_state",
            Json::object([
                ("watts_per_core", sleep.watts_per_core.into()),
                ("static_fraction_saved", sleep.static_fraction_saved.into()),
                ("wake_latency_seconds", sleep.wake_latency_seconds.into()),
            ]),
        ),
        ("exact_only", strategy_json(&scenario.exact)),
        ("ladder", strategy_json(&scenario.ladder)),
        ("race_to_idle", strategy_json(&scenario.race)),
        ("adaptive", strategy_json(&scenario.adaptive)),
        (
            "adaptive_reduction_percent",
            fixed(scenario.adaptive_reduction_percent(), 4),
        ),
    ])
}

/// The report as `tests/golden/energy.json` spells it.
pub fn to_json(report: &Report) -> Json {
    let mut comparison: Vec<(&str, Json)> = vec![
        (
            "description",
            "deterministic replay of one workload script (GTB Max-Buffer accuracy decisions, \
             fixed per-task busy times) through the runtime's ExecutionEnv under four governors"
                .into(),
        ),
        (
            "ladder",
            Json::object([
                ("steps", LADDER_STEPS.into()),
                ("floor", LADDER_FLOOR.into()),
            ]),
        ),
        ("hysteresis", HYSTERESIS.into()),
        ("accurate_task_seconds", ACCURATE_TASK_SECONDS.into()),
        ("approx_task_seconds", fixed(APPROX_TASK_SECONDS, 9)),
        (
            "transition_cost",
            Json::object([
                ("latency_seconds", REPLAY_TRANSITION.latency_seconds.into()),
                ("energy_joules", REPLAY_TRANSITION.energy_joules.into()),
            ]),
        ),
    ];
    for scenario in &report.scenarios {
        comparison.push((scenario.package.name, scenario_json(scenario)));
    }
    Json::object([
        ("strategy_comparison", Json::object(comparison)),
        (
            "metadata",
            Json::object([(
                "note",
                "energy is modelled (affine power model + P∝f·V² DVFS scaling + sleep-state \
                 residency + transition costs), not measured; the replay is deterministic and \
                 reproducible bit-for-bit on any host"
                    .into(),
            )]),
        ),
    ])
}
