//! Closed-loop energy budget: does the online [`BudgetController`] land on
//! its target, and at what quality?
//!
//! A fixed arrival schedule of tasks with low-discrepancy significances is
//! dealt round-robin across simulated workers and driven through the
//! runtime's real [`ExecutionEnv`] dispatch/record/report accounting.
//! Virtual time advances on a fixed control-interval grid; every interval
//! the replay decides each task's accuracy GTB-style (the most significant
//! tasks run accurately until the effective ratio is met), executes the
//! interval's tasks, and — in the budgeted configuration — feeds the
//! cumulative reading to the controller, whose setpoint re-targets the next
//! interval: `ratio_scale` scales the accuracy threshold, `frequency_cap`
//! clamps approximate dispatches via the env's dispatch cap.
//!
//! For each [`Package`] the **open-loop ladder** runs the schedule at a
//! fixed accurate ratio and yields `J_open` joules at quality `Q_open`. The
//! **budgeted** run starts from ratio 1.0 with a `TotalJoules` budget of
//! `budget_fraction × J_open` over the same horizon and must converge:
//! cumulative spend within `CONVERGENCE_BAND` of the budget, at quality no
//! worse than the open-loop ladder bought with at least as many joules.
//! Quality is significance-weighted (accurate task = 1.0, approximate =
//! `APPROX_QUALITY`).

use std::sync::Arc;
use std::time::Duration;

use sig_core::{
    AdaptiveGovernor, BudgetConfig, BudgetController, BudgetTarget, DispatchContext, EnergyReading,
    ExecutionEnv, ExecutionMode, Governor, Policy, Significance, SignificanceLadderGovernor,
};

use super::workload::{
    joule_members, Package, ACCURATE_TASK_SECONDS, APPROX_TASK_SECONDS, LADDER_FLOOR,
    REPLAY_TRANSITION, WORKERS,
};
use crate::json::{fixed, Json};

/// Control intervals replayed.
const INTERVALS: usize = 200;
/// Tasks arriving per control interval.
const INTERVAL_TASKS: usize = 200;
/// Virtual length of one control interval. Sized so even a fully-dilated
/// all-accurate interval fits inside `workers × interval` capacity.
const INTERVAL_SECONDS: f64 = 6e-3;
/// Delivered quality of an approximate result, relative to accurate.
const APPROX_QUALITY: f64 = 0.5;
/// Fractional convergence band the budgeted spend must land in.
const CONVERGENCE_BAND: f64 = 0.10;
/// Proportional gain handed to the budget loop (the library default). The
/// replay's plant responds within one control interval, so the gain trades
/// ramp length against limit-cycling around the equilibrium ratio — both
/// slower and hotter settings lose quality (the long transient is repaid at
/// a bad exchange rate; oscillation pays a Jensen penalty on the concave
/// quality curve).
const BUDGET_GAIN: f64 = 0.25;

/// One package with the budget loop shaped for it — the closed-loop
/// counterpart of the adaptive-governor insight:
///
/// * dynamic-heavy: keep the ladder, engage the frequency cap, and shape the
///   knobs (`min_ratio_scale`) so austerity exhausts the quality-free
///   frequency knob before it cuts deep into the accurate ratio;
/// * static-heavy: race to idle with ratio-only actuation (`cap_floor =
///   1.0`) — on a leakage-dominated package stretching trades cheap sleep
///   for expensive dilated busy time, so the open-loop ladder's stretching
///   is exactly the waste the closed loop harvests back as quality.
pub struct Scenario {
    /// The package priced.
    pub package: Package,
    /// Frequency-cap floor handed to the budget loop.
    pub cap_floor: f64,
    /// Ratio-scale floor handed to the budget loop (knob shaping).
    pub min_ratio_scale: f64,
    /// Whether the budgeted run races to idle instead of riding the ladder.
    pub races: bool,
    /// Accurate ratio of the open-loop baseline that prices the budget. It
    /// must price a budget the closed loop has to work against: on
    /// static-heavy a ratio-0.5 ladder budget would not even bind.
    pub open_ratio: f64,
    /// Budget as a fraction of the open-loop spend. static-heavy needs
    /// `< 1.0` to bind at all: racing is so much cheaper than the ladder
    /// there that the full open-loop budget buys all-accurate execution.
    pub budget_fraction: f64,
}

fn scenarios() -> [Scenario; 2] {
    [
        Scenario {
            package: Package::dynamic_heavy(),
            cap_floor: LADDER_FLOOR,
            min_ratio_scale: 0.5,
            races: false,
            open_ratio: 0.5,
            budget_fraction: 1.0,
        },
        Scenario {
            package: Package::static_heavy(),
            cap_floor: 1.0,
            min_ratio_scale: 0.0,
            races: true,
            open_ratio: 0.35,
            budget_fraction: 0.95,
        },
    ]
}

/// Low-discrepancy significance of task `i`: the golden-ratio sequence fills
/// `(0, 1)` uniformly without the quantisation steps of a small level set, so
/// the controller's continuous ratio knob maps to a smooth quality curve.
fn significance_of(i: usize) -> f64 {
    const INV_PHI: f64 = 0.618_033_988_749_894_9;
    (((i + 1) as f64 * INV_PHI).fract()).clamp(0.02, 0.98)
}

/// One full pass over the schedule (open-loop or budgeted).
pub struct Run {
    /// Modelled energy over the whole horizon.
    pub reading: EnergyReading,
    /// Significance-weighted delivered quality.
    pub quality: f64,
    /// Tasks that ran accurately.
    pub accurate_tasks: usize,
    /// Tasks in the schedule.
    pub total_tasks: usize,
    /// Cumulative joules at each quarter of the horizon.
    pub spend_trace: Vec<f64>,
    /// Final austerity (0.0 for the open-loop run).
    pub final_austerity: f64,
}

/// `budget == None` replays the open-loop configuration at `base_ratio`;
/// with a budget the controller re-targets ratio and dispatch cap every
/// interval from the cumulative reading.
fn run_schedule(
    package: &Package,
    governor: Arc<dyn Governor>,
    base_ratio: f64,
    budget: Option<BudgetConfig>,
) -> Run {
    let env = ExecutionEnv::new(
        package.model,
        governor,
        Some(package.sleep),
        REPLAY_TRANSITION,
        WORKERS,
    );
    let mut controller = budget.map(BudgetController::new);
    let mut ratio_scale = 1.0f64;
    let mut quality_num = 0.0f64;
    let mut quality_den = 0.0f64;
    let mut accurate_tasks = 0usize;
    let mut task_index = 0usize;
    let mut spend_trace = Vec::with_capacity(4);
    let quarter = INTERVALS / 4;
    for interval in 0..INTERVALS {
        let ratio = (base_ratio * ratio_scale).clamp(0.0, 1.0);
        // Uniform significances: the top `ratio` fraction runs accurately.
        let threshold = 1.0 - ratio;
        for slot in 0..INTERVAL_TASKS {
            let significance = significance_of(task_index);
            let accurate = significance >= threshold;
            let worker = slot % WORKERS;
            let decision = env.dispatch(
                worker,
                &DispatchContext {
                    worker,
                    significance: Significance::new(significance),
                    accurate,
                    policy: Policy::GtbMaxBuffer,
                    group_ratio: ratio,
                    deadline_pressure: false,
                },
            );
            let (mode, busy, delivered) = if accurate {
                (ExecutionMode::Accurate, ACCURATE_TASK_SECONDS, 1.0)
            } else {
                (
                    ExecutionMode::Approximate,
                    APPROX_TASK_SECONDS,
                    APPROX_QUALITY,
                )
            };
            env.record(worker, mode, Duration::from_secs_f64(busy), decision);
            quality_num += significance * delivered;
            quality_den += significance;
            accurate_tasks += usize::from(accurate);
            task_index += 1;
        }
        let wall = (interval + 1) as f64 * INTERVAL_SECONDS;
        let reading = env.report(wall, WORKERS).reading();
        if let Some(controller) = controller.as_mut() {
            let setpoint = controller.observe(wall, &reading);
            ratio_scale = setpoint.ratio_scale;
            env.set_dispatch_cap(setpoint.frequency_cap);
        }
        if (interval + 1) % quarter == 0 {
            spend_trace.push(reading.joules);
        }
    }
    let wall = INTERVALS as f64 * INTERVAL_SECONDS;
    Run {
        reading: env.report(wall, WORKERS).reading(),
        quality: quality_num / quality_den,
        accurate_tasks,
        total_tasks: task_index,
        spend_trace,
        final_austerity: controller.map_or(0.0, |c| c.setpoint().austerity),
    }
}

/// Open-loop baseline + budgeted closed loop on one scenario.
pub struct ScenarioResult {
    /// The scenario replayed.
    pub scenario: Scenario,
    /// The open-loop ladder at `open_ratio`.
    pub open: Run,
    /// The budgeted closed loop.
    pub budgeted: Run,
    /// The budget handed to the controller.
    pub budget_joules: f64,
}

impl ScenarioResult {
    /// Signed fractional error of the budgeted spend against the budget.
    pub fn spend_error(&self) -> f64 {
        (self.budgeted.reading.joules - self.budget_joules) / self.budget_joules
    }
}

fn run_scenario(scenario: Scenario) -> ScenarioResult {
    let package = &scenario.package;
    let open = run_schedule(
        package,
        Arc::new(SignificanceLadderGovernor::new(package.ladder())),
        scenario.open_ratio,
        None,
    );
    let budget_joules = scenario.budget_fraction * open.reading.joules;
    let budget = BudgetConfig::new(BudgetTarget::TotalJoules {
        joules: budget_joules,
        horizon_seconds: INTERVALS as f64 * INTERVAL_SECONDS,
    })
    .tolerance(CONVERGENCE_BAND)
    .gain(BUDGET_GAIN)
    .min_ratio_scale(scenario.min_ratio_scale)
    .cap_floor(scenario.cap_floor);
    let governor: Arc<dyn Governor> = if scenario.races {
        Arc::new(AdaptiveGovernor::race_to_idle(package.ladder()))
    } else {
        Arc::new(SignificanceLadderGovernor::new(package.ladder()))
    };
    let budgeted = run_schedule(package, governor, 1.0, Some(budget));
    ScenarioResult {
        scenario,
        open,
        budgeted,
        budget_joules,
    }
}

/// Both scenarios, dynamic-heavy first.
pub struct Report {
    /// One entry per scenario.
    pub scenarios: Vec<ScenarioResult>,
}

/// Replay both scenarios.
pub fn run() -> Report {
    Report {
        scenarios: scenarios().into_iter().map(run_scenario).collect(),
    }
}

/// What must hold on every scenario (exact: the replay has no noise).
pub fn invariant_errors(report: &Report) -> Vec<String> {
    let mut errors = Vec::new();
    for result in &report.scenarios {
        let name = result.scenario.package.name;
        let error = result.spend_error();
        if error.abs() > CONVERGENCE_BAND {
            errors.push(format!(
                "{name}: budgeted spend {:.4} J missed the budget {:.4} J by {:.1}% (band ±{:.0}%)",
                result.budgeted.reading.joules,
                result.budget_joules,
                100.0 * error,
                100.0 * CONVERGENCE_BAND,
            ));
        }
        if result.budgeted.quality < result.open.quality - 1e-9 {
            errors.push(format!(
                "{name}: budgeted quality {:.4} fell below the open-loop ladder's {:.4}",
                result.budgeted.quality, result.open.quality,
            ));
        }
    }
    errors
}

fn run_json(run: &Run) -> Json {
    let mut members = joule_members(&run.reading);
    members.extend([
        ("quality", fixed(run.quality, 6)),
        ("accurate_tasks", run.accurate_tasks.into()),
        ("total_tasks", run.total_tasks.into()),
        ("final_austerity", fixed(run.final_austerity, 6)),
        (
            "spend_trace_joules",
            Json::array(run.spend_trace.iter().map(|&j| fixed(j, 4))),
        ),
    ]);
    Json::object(members)
}

fn scenario_json(result: &ScenarioResult) -> Json {
    let scenario = &result.scenario;
    Json::object([
        ("power_exponent", scenario.package.power_exponent.into()),
        ("open_ratio", scenario.open_ratio.into()),
        ("budget_fraction", scenario.budget_fraction.into()),
        ("budget_races", scenario.races.into()),
        ("budget_min_ratio_scale", scenario.min_ratio_scale.into()),
        ("budget_cap_floor", scenario.cap_floor.into()),
        ("budget_joules", fixed(result.budget_joules, 6)),
        ("spend_error_fraction", fixed(result.spend_error(), 6)),
        ("open_loop_quality", fixed(result.open.quality, 6)),
        ("budgeted_quality", fixed(result.budgeted.quality, 6)),
        ("open_loop", run_json(&result.open)),
        ("budgeted", run_json(&result.budgeted)),
    ])
}

/// The report as `tests/golden/budget.json` spells it.
pub fn to_json(report: &Report) -> Json {
    let mut members: Vec<(&str, Json)> = vec![
        ("benchmark", "budget_bench".into()),
        (
            "description",
            "closed-loop energy-budget controller vs the open-loop ladder at equal joules: a \
             deterministic virtual-time replay through the runtime's ExecutionEnv on two power \
             models"
                .into(),
        ),
        ("workers", WORKERS.into()),
        ("intervals", INTERVALS.into()),
        ("interval_tasks", INTERVAL_TASKS.into()),
        ("interval_seconds", INTERVAL_SECONDS.into()),
        ("convergence_band", CONVERGENCE_BAND.into()),
        ("approx_quality", APPROX_QUALITY.into()),
    ];
    for result in &report.scenarios {
        members.push((result.scenario.package.name, scenario_json(result)));
    }
    members.push((
        "metadata",
        Json::object([(
            "note",
            "energy is modelled, not measured; the replay is deterministic and reproduces \
             bit-for-bit on any host at fixed interval count. The budgeted run starts at ratio \
             1.0 and must land within the convergence band of the open-loop ladder's joules at \
             no worse quality. The budgeted configuration pairs the controller with the right \
             strategy per package: ladder + frequency cap on dynamic_heavy, race-to-idle with \
             ratio-only actuation (cap_floor 1.0) on static_heavy, where stretching \
             approximate work is counterproductive"
                .into(),
        )]),
    ));
    Json::object(members)
}
