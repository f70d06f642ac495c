//! Closed-loop energy-budget benchmark: does the online [`BudgetController`]
//! actually land on its target, and at what quality?
//!
//! # What runs
//!
//! A deterministic **virtual-time replay** (no wall clock, no threads — the
//! numbers reproduce bit-for-bit on any host): a fixed arrival schedule of
//! tasks with low-discrepancy significances is dealt round-robin across
//! simulated workers and driven through the runtime's real [`ExecutionEnv`]
//! dispatch/record/report accounting under a [`SignificanceLadderGovernor`].
//! Virtual time advances on a fixed control-interval grid; every interval the
//! replay decides each task's accuracy GTB-style (the most significant tasks
//! run accurately until the effective ratio is met), executes the interval's
//! tasks, and — in the budgeted configuration — feeds the cumulative
//! [`EnergyReading`] to a [`BudgetController`] whose setpoint re-targets the
//! next interval: `ratio_scale` scales the accuracy threshold,
//! `frequency_cap` clamps approximate dispatches via the env's re-targetable
//! dispatch cap.
//!
//! Two power models, mirroring the strategy series in `energy-bench`. The
//! budgeted configuration pairs the controller with the right execution
//! strategy per package (see [`Scenario`]):
//!
//! * **dynamic-heavy** — cubic-ish `P ∝ f·V²` exponent, small static share.
//!   Stretching pays, so the budget loop keeps the ladder and engages *both*
//!   knobs, shaped (`min_ratio_scale`) to exhaust the quality-free frequency
//!   cap before cutting deep into the accurate ratio.
//! * **static-heavy** — near-linear exponent, leakage-dominated. Stretching
//!   approximate work trades cheap sleep for expensive dilated busy time, so
//!   the budgeted run **races to idle** with ratio-only actuation
//!   (`cap_floor = 1.0`) — the closed-loop counterpart of the paper's
//!   race-to-idle insight.
//!
//! # The comparison
//!
//! For each model the **open-loop ladder** baseline runs the same schedule at
//! a fixed accurate ratio (no controller) and yields `J_open` joules at
//! quality `Q_open`. The **budgeted** run starts from ratio 1.0 (maximum
//! quality) with a `TotalJoules` budget of `budget_fraction × J_open` over
//! the same horizon (the fraction is 1.0 on dynamic-heavy; 0.95 on
//! static-heavy, where the full open-loop budget would buy all-accurate
//! racing outright and never bind), and must *converge*: cumulative spend
//! within the tolerance band of the budget, at quality no worse than the
//! open-loop ladder bought with at least as many joules. Quality is the
//! significance-weighted delivered quality (accurate task = 1.0, approximate
//! = `APPROX_QUALITY`).
//!
//! Results are written as JSON (default `BENCH_budget.json`), including a
//! spend-trajectory trace at quarter points so convergence is visible in the
//! committed artifact.
//!
//! ```text
//! budget-bench [--workers N] [--intervals N] [--smoke] [--out PATH]
//!              [--check COMMITTED.json]
//! ```
//!
//! `--check` mode re-runs the replay and fails (non-zero exit) if the
//! budgeted spend leaves the convergence band on either model, or if the
//! budgeted quality drops more than 20% below the committed quality — the
//! budget counterpart of the other benches' regression gates.

use sig_bench::extract_json_number_after;
use std::sync::Arc;

use sig_core::{
    AdaptiveGovernor, BudgetConfig, BudgetController, BudgetTarget, DispatchContext, EnergyReading,
    ExecutionEnv, ExecutionMode, Governor, Policy, Significance, SignificanceLadderGovernor,
};
use sig_energy::{FrequencyScale, PowerModel, SleepState, TransitionCost};
use std::time::Duration;

/// Ladder depth shared with the energy-bench strategy series.
const LADDER_STEPS: usize = 4;
/// Ladder floor shared with the energy-bench strategy series.
const LADDER_FLOOR: f64 = 0.4;
/// Nominal busy time of one accurate task.
const ACCURATE_TASK_SECONDS: f64 = 40e-6;
/// Nominal busy time of one approximate task (a third of the work).
const APPROX_TASK_SECONDS: f64 = ACCURATE_TASK_SECONDS / 3.0;
/// Delivered quality of an approximate result, relative to accurate.
const APPROX_QUALITY: f64 = 0.5;
/// Tasks arriving per control interval.
const INTERVAL_TASKS: usize = 200;
/// Virtual length of one control interval. Sized so even a fully-dilated
/// all-accurate interval fits inside `workers × interval` capacity.
const INTERVAL_SECONDS: f64 = 6e-3;
// The open-loop baseline accurate ratio is per scenario (`Scenario::
// open_ratio`): it must price a budget the closed loop actually has to work
// against. On static-heavy, racing to idle is so much cheaper than the
// ladder that a ratio-0.5 ladder budget would not even bind.
/// Fractional convergence band asserted on the budgeted spend.
const CONVERGENCE_BAND: f64 = 0.10;
/// Proportional gain handed to the budget loop (the library default). The
/// replay's plant responds within one control interval, so the gain trades
/// ramp length against limit-cycling around the equilibrium ratio — both
/// slower and hotter settings lose quality (the long transient is repaid at
/// a bad exchange rate; oscillation pays a Jensen penalty on the concave
/// quality curve).
const BUDGET_GAIN: f64 = 0.25;
/// DVFS transition cost charged in the replay (10 µs stall, 20 µJ).
const REPLAY_TRANSITION: TransitionCost = TransitionCost {
    latency_seconds: 10e-6,
    energy_joules: 20e-6,
};

struct Config {
    workers: usize,
    intervals: usize,
    out: String,
    write_out: bool,
    check: Option<String>,
}

fn parse_args() -> Config {
    let mut config = Config {
        workers: 4,
        intervals: 200,
        out: "BENCH_budget.json".to_string(),
        write_out: true,
        check: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut num = |name: &str| -> f64 {
            args.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{name} needs a number"))
        };
        match arg.as_str() {
            "--workers" => config.workers = num("--workers") as usize,
            "--intervals" => config.intervals = num("--intervals") as usize,
            "--out" => config.out = args.next().expect("--out needs a path"),
            "--check" => {
                config.check = Some(args.next().expect("--check needs a committed JSON path"));
            }
            "--smoke" => {
                config.intervals = 50;
                config.write_out = false;
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: budget-bench [--workers N] [--intervals N] [--smoke] [--out PATH] \
                     [--check COMMITTED.json]"
                );
                std::process::exit(2);
            }
        }
    }
    config
}

/// One power-model scenario (mirrors the energy-bench strategy series).
///
/// The budgeted configuration composes the controller with the *right*
/// execution strategy for the package — the closed-loop counterpart of the
/// adaptive-governor insight:
///
/// * dynamic-heavy: keep the ladder, engage the frequency cap, and shape the
///   knobs (`min_ratio_scale`) so austerity exhausts the quality-free
///   frequency knob before it cuts deep into the accurate ratio;
/// * static-heavy: race to idle (approximate work at nominal, slack slept at
///   the deep state) with ratio-only actuation (`cap_floor = 1.0`) — on a
///   leakage-dominated package stretching trades cheap sleep for expensive
///   dilated busy time, so the open-loop ladder's stretching is exactly the
///   waste the closed loop harvests back as quality.
struct Scenario {
    name: &'static str,
    model: PowerModel,
    sleep: SleepState,
    power_exponent: f64,
    /// Frequency-cap floor handed to the budget loop.
    budget_cap_floor: f64,
    /// Ratio-scale floor handed to the budget loop (knob shaping).
    budget_min_ratio_scale: f64,
    /// Whether the budgeted run races to idle instead of riding the ladder.
    budget_races: bool,
    /// Accurate ratio of the open-loop ladder baseline that prices the
    /// budget.
    open_ratio: f64,
    /// Budget as a fraction of the open-loop spend. `1.0` demands the exact
    /// open-loop joules; below `1.0` the closed loop must deliver no-worse
    /// quality with *fewer* joules. static-heavy needs `< 1.0` to bind at
    /// all: the race strategy is so much cheaper than the ladder there that
    /// the full open-loop budget buys all-accurate execution outright.
    budget_fraction: f64,
}

impl Scenario {
    fn dynamic_heavy(workers: usize) -> Scenario {
        Scenario {
            name: "dynamic_heavy",
            model: PowerModel {
                sockets: 1,
                cores_per_socket: workers,
                static_watts_per_socket: 1.0 * workers as f64,
                active_watts_per_core: 6.6,
                idle_watts_per_core: 0.5,
            },
            sleep: SleepState::shallow(),
            power_exponent: 2.4,
            budget_cap_floor: LADDER_FLOOR,
            budget_min_ratio_scale: 0.5,
            budget_races: false,
            open_ratio: 0.5,
            budget_fraction: 1.0,
        }
    }

    fn static_heavy(workers: usize) -> Scenario {
        Scenario {
            name: "static_heavy",
            model: PowerModel {
                sockets: 1,
                cores_per_socket: workers,
                static_watts_per_socket: 4.0 * workers as f64,
                active_watts_per_core: 6.6,
                idle_watts_per_core: 2.0,
            },
            sleep: SleepState::new(0.1, 0.75, 5e-6),
            power_exponent: 1.2,
            budget_cap_floor: 1.0,
            budget_min_ratio_scale: 0.0,
            budget_races: true,
            open_ratio: 0.35,
            budget_fraction: 0.95,
        }
    }

    fn ladder(&self) -> Vec<FrequencyScale> {
        FrequencyScale::ladder(LADDER_STEPS, LADDER_FLOOR)
            .into_iter()
            .map(|s| FrequencyScale::with_exponent(s.ratio(), self.power_exponent))
            .collect()
    }

    /// The governor the budgeted run executes under.
    fn budgeted_governor(&self) -> Arc<dyn Governor> {
        if self.budget_races {
            Arc::new(AdaptiveGovernor::race_to_idle(self.ladder()))
        } else {
            Arc::new(SignificanceLadderGovernor::new(self.ladder()))
        }
    }
}

/// Low-discrepancy significance of task `i`: the golden-ratio sequence fills
/// `(0, 1)` uniformly without the quantisation steps of a small level set, so
/// the controller's continuous ratio knob maps to a smooth quality curve.
fn significance_of(i: usize) -> f64 {
    const INV_PHI: f64 = 0.618_033_988_749_894_9;
    (((i + 1) as f64 * INV_PHI).fract()).clamp(0.02, 0.98)
}

/// Result of one full replay (open-loop or budgeted).
struct ReplayRun {
    reading: EnergyReading,
    quality: f64,
    accurate_tasks: usize,
    total_tasks: usize,
    /// Cumulative joules at each quarter of the horizon (spend trajectory).
    spend_trace: Vec<f64>,
    /// Final austerity (0.0 for the open-loop run).
    final_austerity: f64,
}

/// Drive the fixed arrival schedule through a real `ExecutionEnv` on the
/// virtual interval grid. `budget == None` replays the open-loop ladder at
/// `base_ratio`; with a budget the controller re-targets ratio and dispatch
/// cap every interval from the cumulative reading.
fn run_replay(
    scenario: &Scenario,
    config: &Config,
    governor: Arc<dyn Governor>,
    base_ratio: f64,
    budget: Option<BudgetConfig>,
) -> ReplayRun {
    let env = ExecutionEnv::new(
        scenario.model,
        governor,
        Some(scenario.sleep),
        REPLAY_TRANSITION,
        config.workers,
    );
    let mut controller = budget.map(BudgetController::new);
    let mut ratio_scale = 1.0f64;
    let mut quality_num = 0.0f64;
    let mut quality_den = 0.0f64;
    let mut accurate_tasks = 0usize;
    let mut task_index = 0usize;
    let mut spend_trace = Vec::with_capacity(4);
    let quarter = (config.intervals / 4).max(1);
    for interval in 0..config.intervals {
        let ratio = (base_ratio * ratio_scale).clamp(0.0, 1.0);
        // Uniform significances: the top `ratio` fraction runs accurately.
        let threshold = 1.0 - ratio;
        for slot in 0..INTERVAL_TASKS {
            let significance = significance_of(task_index);
            let accurate = significance >= threshold;
            let worker = slot % config.workers;
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
        let reading = env.report(wall, config.workers).reading();
        if let Some(controller) = controller.as_mut() {
            let setpoint = controller.observe(wall, &reading);
            ratio_scale = setpoint.ratio_scale;
            env.set_dispatch_cap(setpoint.frequency_cap);
        }
        if (interval + 1) % quarter == 0 && spend_trace.len() < 4 {
            spend_trace.push(reading.joules);
        }
    }
    let wall = config.intervals as f64 * INTERVAL_SECONDS;
    let reading = env.report(wall, config.workers).reading();
    ReplayRun {
        reading,
        quality: quality_num / quality_den.max(1e-12),
        accurate_tasks,
        total_tasks: task_index,
        spend_trace,
        final_austerity: controller.map_or(0.0, |c| c.setpoint().austerity),
    }
}

/// Open-loop baseline + budgeted closed loop on one scenario.
struct ScenarioResult {
    open: ReplayRun,
    budgeted: ReplayRun,
    budget_joules: f64,
}

impl ScenarioResult {
    /// Signed fractional error of the budgeted spend against the budget.
    fn spend_error(&self) -> f64 {
        (self.budgeted.reading.joules - self.budget_joules) / self.budget_joules
    }
}

fn run_scenario(scenario: &Scenario, config: &Config) -> ScenarioResult {
    let open = run_replay(
        scenario,
        config,
        Arc::new(SignificanceLadderGovernor::new(scenario.ladder())),
        scenario.open_ratio,
        None,
    );
    let budget_joules = scenario.budget_fraction * open.reading.joules;
    let horizon = config.intervals as f64 * INTERVAL_SECONDS;
    let budget = BudgetConfig::new(BudgetTarget::TotalJoules {
        joules: budget_joules,
        horizon_seconds: horizon,
    })
    .tolerance(CONVERGENCE_BAND)
    .gain(BUDGET_GAIN)
    .min_ratio_scale(scenario.budget_min_ratio_scale)
    .cap_floor(scenario.budget_cap_floor);
    let budgeted = run_replay(
        scenario,
        config,
        scenario.budgeted_governor(),
        1.0,
        Some(budget),
    );
    ScenarioResult {
        open,
        budgeted,
        budget_joules,
    }
}

/// The committed invariants of one scenario (deterministic replay: exact).
fn assert_scenario_invariants(name: &str, result: &ScenarioResult) {
    let error = result.spend_error();
    assert!(
        error.abs() <= CONVERGENCE_BAND,
        "{name}: budgeted spend {:.4} J missed the budget {:.4} J by {:.1}% \
         (band ±{:.0}%)",
        result.budgeted.reading.joules,
        result.budget_joules,
        100.0 * error,
        100.0 * CONVERGENCE_BAND,
    );
    assert!(
        result.budgeted.quality >= result.open.quality - 1e-9,
        "{name}: budgeted quality {:.4} fell below the open-loop ladder's {:.4} at equal joules",
        result.budgeted.quality,
        result.open.quality,
    );
}

/// Bit-for-bit determinism: replaying the budgeted configuration twice must
/// reproduce identical joules, quality and austerity.
fn assert_replay_deterministic(scenario: &Scenario, config: &Config) {
    let a = run_scenario(scenario, config);
    let b = run_scenario(scenario, config);
    assert!(
        a.budgeted.reading.joules.to_bits() == b.budgeted.reading.joules.to_bits()
            && a.budgeted.quality.to_bits() == b.budgeted.quality.to_bits()
            && a.budgeted.final_austerity.to_bits() == b.budgeted.final_austerity.to_bits(),
        "{}: budgeted replay is not bit-deterministic",
        scenario.name
    );
}

/// CI regression gate: re-run the deterministic replay and fail if the
/// budgeted spend leaves the convergence band on either model, or the
/// budgeted quality regresses more than 20% below the committed number.
fn run_check(config: &Config, committed_path: &str) -> ! {
    let committed = std::fs::read_to_string(committed_path)
        .unwrap_or_else(|e| panic!("cannot read {committed_path}: {e}"));
    let mut failed = false;
    for scenario in [
        Scenario::dynamic_heavy(config.workers),
        Scenario::static_heavy(config.workers),
    ] {
        let result = run_scenario(&scenario, config);
        assert_scenario_invariants(scenario.name, &result);
        let committed_quality =
            extract_json_number_after(&committed, scenario.name, "budgeted_quality")
                .unwrap_or_else(|| {
                    panic!("committed report lacks {}.budgeted_quality", scenario.name)
                });
        let threshold = 0.8 * committed_quality;
        eprintln!(
            "budget-bench check [{}]: spend error {:+.2}% (band ±{:.0}%), quality now \
             {:.4} vs committed {:.4} (threshold {:.4})",
            scenario.name,
            100.0 * result.spend_error(),
            100.0 * CONVERGENCE_BAND,
            result.budgeted.quality,
            committed_quality,
            threshold,
        );
        if result.budgeted.quality < threshold {
            eprintln!(
                "FAIL [{}]: budgeted quality regressed more than 20% below the committed \
                 number",
                scenario.name
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    eprintln!("OK: budget controller holds the convergence band and the committed quality floor");
    std::process::exit(0);
}

fn replay_json(label: &str, run: &ReplayRun, indent: &str) -> String {
    let trace = run
        .spend_trace
        .iter()
        .map(|j| format!("{j:.4}"))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{indent}\"{label}\": {{\n{indent}  \"joules\": {:.6},\n{indent}  \"dynamic_joules\": \
         {:.6},\n{indent}  \"static_joules\": {:.6},\n{indent}  \"idle_joules\": {:.6},\n\
         {indent}  \"quality\": {:.6},\n{indent}  \"accurate_tasks\": {},\n{indent}  \
         \"total_tasks\": {},\n{indent}  \"final_austerity\": {:.6},\n{indent}  \
         \"spend_trace_joules\": [{trace}]\n{indent}}}",
        run.reading.joules,
        run.reading.breakdown.dynamic_joules,
        run.reading.breakdown.static_joules,
        run.reading.breakdown.idle_joules,
        run.quality,
        run.accurate_tasks,
        run.total_tasks,
        run.final_austerity,
    )
}

fn scenario_json(scenario: &Scenario, result: &ScenarioResult) -> String {
    format!(
        "  \"{}\": {{\n    \"power_exponent\": {},\n    \"open_ratio\": {},\n    \
         \"budget_fraction\": {},\n    \
         \"budget_races\": {},\n    \"budget_min_ratio_scale\": {},\n    \
         \"budget_cap_floor\": {},\n    \
         \"budget_joules\": {:.6},\n    \"spend_error_fraction\": {:.6},\n    \
         \"open_loop_quality\": {:.6},\n    \"budgeted_quality\": {:.6},\n{},\n{}\n  }}",
        scenario.name,
        scenario.power_exponent,
        scenario.open_ratio,
        scenario.budget_fraction,
        scenario.budget_races,
        scenario.budget_min_ratio_scale,
        scenario.budget_cap_floor,
        result.budget_joules,
        result.spend_error(),
        result.open.quality,
        result.budgeted.quality,
        replay_json("open_loop", &result.open, "    "),
        replay_json("budgeted", &result.budgeted, "    "),
    )
}

fn main() {
    let config = parse_args();

    if let Some(committed) = config.check.clone() {
        run_check(&config, &committed);
    }

    eprintln!(
        "budget-bench: {} intervals x {} tasks, {} workers, band ±{:.0}%",
        config.intervals,
        INTERVAL_TASKS,
        config.workers,
        100.0 * CONVERGENCE_BAND,
    );

    let scenarios = [
        Scenario::dynamic_heavy(config.workers),
        Scenario::static_heavy(config.workers),
    ];
    let mut sections = Vec::with_capacity(scenarios.len());
    for scenario in &scenarios {
        let result = run_scenario(scenario, &config);
        eprintln!(
            "  [{:>13}] open-loop {:.3} J @ quality {:.4} | budgeted {:.3} J \
             ({:+.2}% of budget) @ quality {:.4}, austerity {:.3}",
            scenario.name,
            result.open.reading.joules,
            result.open.quality,
            result.budgeted.reading.joules,
            100.0 * result.spend_error(),
            result.budgeted.quality,
            result.budgeted.final_austerity,
        );
        eprintln!(
            "                  spend trace {:?} vs budget {:.3}",
            result
                .budgeted
                .spend_trace
                .iter()
                .map(|j| (j * 1000.0).round() / 1000.0)
                .collect::<Vec<_>>(),
            result.budget_joules,
        );
        assert_scenario_invariants(scenario.name, &result);
        assert_replay_deterministic(scenario, &config);
        sections.push(scenario_json(scenario, &result));
    }

    let json = format!(
        "{{\n  \"benchmark\": \"budget_bench\",\n  \"description\": \"closed-loop \
         energy-budget controller vs the open-loop ladder at equal joules: a deterministic \
         virtual-time replay through the runtime's ExecutionEnv on two power models\",\n  \
         \"workers\": {},\n  \"intervals\": {},\n  \"interval_tasks\": {},\n  \
         \"interval_seconds\": {},\n  \"convergence_band\": \
         {},\n  \"approx_quality\": {},\n{},\n{},\n  \"metadata\": {{\n    \"note\": \
         \"energy is modelled, not measured; the replay is deterministic and reproduces \
         bit-for-bit on any host at fixed interval count. The budgeted run starts at ratio \
         1.0 and must land within the convergence band of the open-loop ladder's joules at \
         no worse quality. The budgeted configuration pairs the controller with the right \
         strategy per package: ladder + frequency cap on dynamic_heavy, race-to-idle with \
         ratio-only actuation (cap_floor 1.0) on static_heavy, where stretching \
         approximate work is counterproductive\"\n  \
         }}\n}}\n",
        config.workers,
        config.intervals,
        INTERVAL_TASKS,
        INTERVAL_SECONDS,
        CONVERGENCE_BAND,
        APPROX_QUALITY,
        sections[0],
        sections[1],
    );
    if config.write_out {
        std::fs::write(&config.out, &json).expect("failed to write results");
        eprintln!("  wrote {}", config.out);
    }
    println!("{json}");
}
