//! Modelled-energy benchmark: exact-only execution vs significance-aware
//! execution with DVFS, plus an energy-**strategy** comparison series
//! (slow-and-steady vs race-to-idle vs adaptive).
//!
//! # Live section
//!
//! Every task computes the same fixed-work kernel; its approximate body does
//! a third of the work (the ballpark of the paper's Sobel/DCT approxfuns).
//! Two configurations run the identical task population:
//!
//! * **exact-only** — the significance-agnostic runtime, every task accurate,
//!   all dispatches at nominal frequency;
//! * **significance+DVFS** — GTB (Max-Buffer) at a configurable accurate
//!   ratio with a single-step [`SignificanceLadderGovernor`]: approximate
//!   tasks execute under a lower modelled frequency, their runtime dilated and their dynamic energy
//!   priced through the `P ∝ f·V²` model.
//!
//! Both report the runtime's own per-worker energy accounting
//! ([`Runtime::energy_report`]) plus an output-quality figure (mean relative
//! error of the per-task results against the exact values), so the energy
//! comparison is made at a known, fixed quality level.
//!
//! # Strategy-comparison section
//!
//! Four strategies — exact-only, [`SignificanceLadderGovernor`]
//! (slow-and-steady), [`AdaptiveGovernor::race_to_idle`] and the
//! [`AdaptiveGovernor`] proper — are compared on two power models: **dynamic-heavy** (cubic-ish power
//! exponent, small static share: stretching wins) and **static-heavy**
//! (near-linear exponent, large static share, deep sleep: racing wins, with
//! the crossover mid-ladder so the adaptive governor mixes sides). The
//! series is a **deterministic replay**: one fixed workload script (task
//! significances, GTB accuracy decisions, per-task busy durations) is driven
//! through the runtime's real [`ExecutionEnv`] accounting under each
//! governor, so the numbers are reproducible on any host and the invariant
//! `adaptive ≤ min(ladder, race-to-idle)` is checkable in CI without noise
//! margins. Frequency transitions carry a [`TransitionCost`]; the ladder
//! governor thrashes (one switch per significance change) while the
//! adaptive governor's hysteresis bounds switches to `dispatches /
//! hysteresis` per worker.
//!
//! Results are written as JSON (default `BENCH_energy.json`).
//!
//! ```text
//! energy-bench [--workers N] [--tasks N] [--work N] [--ratio R] [--freq F]
//!              [--reps N] [--smoke] [--out PATH] [--check COMMITTED.json]
//! ```
//!
//! `--check` mode re-runs the deterministic strategy replay and fails
//! (non-zero exit) if the adaptive strategy's modelled energy reduction over
//! the same-run exact-only baseline drops below 0.8× the committed
//! reduction on either power model, or if `adaptive ≤ min(ladder, race)` is
//! violated — the energy counterpart of the sched-overhead regression gate.

use sig_bench::extract_json_number_after;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sig_core::{
    AdaptiveGovernor, DispatchContext, EnergyReading, ExecutionEnv, ExecutionMode, Governor,
    NominalGovernor, Policy, Runtime, Significance, SignificanceLadderGovernor,
};
use sig_energy::{FrequencyScale, PowerModel, SleepState, TransitionCost};

/// Deterministic fixed-work kernel: partial sum of a convergent series
/// (`Σ 1/(k² + ε_seed)` → π²/6). Evaluating a prefix of the series is a
/// genuine approximation — the dropped tail is `O(1/units)` — so the
/// approximate body is both cheaper and close in value.
fn spin_work(seed: u64, units: u64) -> f64 {
    let offset = (seed % 97) as f64 * 1e-7;
    let mut acc = 0.0;
    for k in 1..=units.max(1) {
        acc += 1.0 / ((k * k) as f64 + offset);
        std::hint::black_box(acc);
    }
    acc
}

struct Config {
    workers: usize,
    tasks: usize,
    work_units: u64,
    ratio: f64,
    freq: f64,
    reps: usize,
    out: String,
    write_out: bool,
    check: Option<String>,
}

fn parse_args() -> Config {
    let mut config = Config {
        workers: 4,
        tasks: 4_000,
        work_units: 2_000,
        ratio: 0.5,
        freq: 0.6,
        reps: 3,
        out: "BENCH_energy.json".to_string(),
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
            "--tasks" => config.tasks = num("--tasks") as usize,
            "--work" => config.work_units = num("--work") as u64,
            "--ratio" => config.ratio = num("--ratio"),
            "--freq" => config.freq = num("--freq"),
            "--reps" => config.reps = num("--reps") as usize,
            "--out" => config.out = args.next().expect("--out needs a path"),
            "--check" => {
                config.check = Some(args.next().expect("--check needs a committed JSON path"));
            }
            "--smoke" => {
                config.tasks = 400;
                config.reps = 1;
                config.write_out = false;
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: energy-bench [--workers N] [--tasks N] [--work N] [--ratio R] \
                     [--freq F] [--reps N] [--smoke] [--out PATH] [--check COMMITTED.json]"
                );
                std::process::exit(2);
            }
        }
    }
    config
}

/// One measured configuration: the runtime's energy reading, DVFS counters
/// and the per-task outputs for quality scoring.
struct VariantRun {
    reading: EnergyReading,
    modelled_wall_seconds: f64,
    scaled_tasks: u64,
    accurate_fraction: f64,
    outputs: Vec<f64>,
}

fn run_variant(config: &Config, significance_dvfs: bool) -> VariantRun {
    let builder = Runtime::builder()
        .workers(config.workers)
        .energy_model(PowerModel::for_host());
    let rt = if significance_dvfs {
        builder
            .policy(Policy::GtbMaxBuffer)
            .governor(SignificanceLadderGovernor::single_step(config.freq))
            .build()
    } else {
        builder.policy(Policy::SignificanceAgnostic).build()
    };
    let group = rt.create_group("energy-bench", config.ratio);
    let slots: Arc<Vec<AtomicU64>> = Arc::new(
        (0..config.tasks)
            .map(|_| AtomicU64::new(0))
            .collect::<Vec<_>>(),
    );
    let work = config.work_units;
    for i in 0..config.tasks {
        let exact_slots = slots.clone();
        let approx_slots = slots.clone();
        rt.task(move || {
            let value = spin_work(i as u64, work);
            exact_slots[i].store(value.to_bits(), Ordering::Relaxed);
        })
        .approx(move || {
            // A third of the series terms — cheaper, slightly less accurate.
            let value = spin_work(i as u64, work / 3);
            approx_slots[i].store(value.to_bits(), Ordering::Relaxed);
        })
        .significance(((i % 9) + 1) as f64 / 10.0)
        .group(&group)
        .spawn();
    }
    rt.wait_group(&group);
    let report = rt.energy_report();
    let stats = rt.group_stats(&group);
    VariantRun {
        reading: report.reading(),
        modelled_wall_seconds: report.modelled_wall_seconds(),
        scaled_tasks: report.scaled_tasks(),
        accurate_fraction: stats.achieved_ratio(),
        outputs: slots
            .iter()
            .map(|slot| f64::from_bits(slot.load(Ordering::Relaxed)))
            .collect(),
    }
}

/// Mean relative error (%) of `candidate` against `reference`.
fn relative_error_percent(reference: &[f64], candidate: &[f64]) -> f64 {
    let total: f64 = reference.iter().map(|v| v.abs()).sum();
    if total == 0.0 {
        return 0.0;
    }
    let diff: f64 = reference
        .iter()
        .zip(candidate)
        .map(|(r, c)| (r - c).abs())
        .sum();
    100.0 * diff / total
}

// ---------------------------------------------------------------------------
// Strategy-comparison replay
// ---------------------------------------------------------------------------

/// Ladder depth shared by all strategy governors.
const LADDER_STEPS: usize = 4;
/// Ladder floor shared by all strategy governors.
const LADDER_FLOOR: f64 = 0.4;
/// Adaptive-governor hysteresis (consecutive dissenting dispatches before a
/// domain re-targets).
const HYSTERESIS: u32 = 4;
/// Synthetic nominal busy time of one accurate task in the replay.
const ACCURATE_TASK_SECONDS: f64 = 40e-6;
/// Synthetic nominal busy time of one approximate task (a third of the
/// accurate work, like the live kernel).
const APPROX_TASK_SECONDS: f64 = ACCURATE_TASK_SECONDS / 3.0;
/// DVFS transition cost charged in the replay (10 µs stall, 20 µJ).
const REPLAY_TRANSITION: TransitionCost = TransitionCost {
    latency_seconds: 10e-6,
    energy_joules: 20e-6,
};

/// One energy-model scenario for the strategy comparison.
struct Scenario {
    name: &'static str,
    model: PowerModel,
    sleep: SleepState,
    /// Power exponent applied to every ladder step (`≈2.4`: dynamic power
    /// falls fast with frequency; `≈1.2`: leakage-dominated, stretching
    /// saves little).
    power_exponent: f64,
}

impl Scenario {
    /// Dynamic-heavy package: small static share, cubic-ish `P ∝ f·V²`
    /// exponent, only a shallow sleep state. Slow-and-steady wins everywhere.
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
        }
    }

    /// Static-heavy package: large static share, near-linear exponent
    /// (frequency scaling barely cuts power), deep power-gating sleep.
    /// Race-to-idle wins on the deep rungs; the crossover sits mid-ladder.
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
        }
    }

    fn ladder(&self) -> Vec<FrequencyScale> {
        FrequencyScale::ladder(LADDER_STEPS, LADDER_FLOOR)
            .into_iter()
            .map(|s| FrequencyScale::with_exponent(s.ratio(), self.power_exponent))
            .collect()
    }
}

/// One task of the deterministic replay script.
struct SimTask {
    significance: f64,
    accurate: bool,
}

/// The fixed workload every strategy replays: the live bench's significance
/// distribution with Max-Buffer-GTB-style accuracy decisions (the most
/// significant tasks run accurately until the requested ratio is met).
fn strategy_workload(tasks: usize, ratio: f64) -> Vec<SimTask> {
    // Significances cycle 0.1..0.9; the top `ratio` fraction (by
    // significance) is accurate — with nine equiprobable levels the
    // threshold is the (1-ratio) quantile.
    let threshold = 0.1 + (1.0 - ratio) * 0.8;
    (0..tasks)
        .map(|i| {
            let significance = ((i % 9) + 1) as f64 / 10.0;
            SimTask {
                significance,
                accurate: significance > threshold,
            }
        })
        .collect()
}

/// Result of replaying the workload under one governor.
struct StrategyRun {
    reading: EnergyReading,
    modelled_wall_seconds: f64,
    sleep_seconds: f64,
    transitions: u64,
    scaled_tasks: u64,
}

/// Replay the workload script through the runtime's real [`ExecutionEnv`]
/// accounting under `governor`: same dispatch/record path the workers take,
/// with synthetic (deterministic) busy durations. Tasks are dealt
/// round-robin across `workers` shards; each worker then drains its backlog
/// accuracy-class first (accurate, then approximate, arrival order within a
/// class) — modelling a significance-aware dispatch order, and keeping the
/// unavoidable nominal↔step domain crossings at one per class boundary
/// instead of one per accurate/approximate alternation. The wall window is
/// the perfectly balanced `total busy / workers`.
fn run_strategy(
    scenario: &Scenario,
    governor: Arc<dyn Governor>,
    workload: &[SimTask],
    workers: usize,
) -> StrategyRun {
    let env = ExecutionEnv::new(
        scenario.model,
        governor,
        Some(scenario.sleep),
        REPLAY_TRANSITION,
        workers,
    );
    let mut backlog: Vec<Vec<&SimTask>> = vec![Vec::new(); workers];
    for (i, task) in workload.iter().enumerate() {
        backlog[i % workers].push(task);
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
                    group_ratio: 0.5,
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
    let report = env.report(total_busy / workers as f64, workers);
    StrategyRun {
        reading: report.reading(),
        modelled_wall_seconds: report.modelled_wall_seconds(),
        sleep_seconds: report.sleep_seconds(),
        transitions: report.frequency_transitions(),
        scaled_tasks: report.scaled_tasks(),
    }
}

/// The four strategies of one scenario, replayed over the same workload.
struct ScenarioResult {
    exact: StrategyRun,
    ladder: StrategyRun,
    race: StrategyRun,
    adaptive: StrategyRun,
}

impl ScenarioResult {
    /// Modelled energy reduction (%) of the adaptive strategy over the
    /// same-run exact-only baseline.
    fn adaptive_reduction_percent(&self) -> f64 {
        100.0 * (1.0 - self.adaptive.reading.joules / self.exact.reading.joules)
    }
}

fn run_scenario(scenario: &Scenario, tasks: usize, ratio: f64, workers: usize) -> ScenarioResult {
    let workload = strategy_workload(tasks, ratio);
    // The exact-only baseline runs the same task population with every task
    // accurate at nominal frequency (no approximation, no strategy) — the
    // significance-agnostic runtime of the live section.
    let exact_workload: Vec<SimTask> = workload
        .iter()
        .map(|t| SimTask {
            significance: t.significance,
            accurate: true,
        })
        .collect();
    let steps = scenario.ladder();
    let exact = run_strategy(
        scenario,
        Arc::new(NominalGovernor),
        &exact_workload,
        workers,
    );
    let ladder = run_strategy(
        scenario,
        Arc::new(SignificanceLadderGovernor::new(steps.clone())),
        &workload,
        workers,
    );
    let race = run_strategy(
        scenario,
        Arc::new(AdaptiveGovernor::race_to_idle(steps.clone())),
        &workload,
        workers,
    );
    let adaptive = run_strategy(
        scenario,
        Arc::new(AdaptiveGovernor::new(
            &scenario.model,
            scenario.sleep,
            steps,
            HYSTERESIS,
            APPROX_TASK_SECONDS,
        )),
        &workload,
        workers,
    );
    ScenarioResult {
        exact,
        ladder,
        race,
        adaptive,
    }
}

/// Assert the committed invariants of one scenario (deterministic replay:
/// no noise tolerance needed beyond float epsilon).
fn assert_scenario_invariants(name: &str, result: &ScenarioResult, tasks: usize, workers: usize) {
    let adaptive = result.adaptive.reading.joules;
    let floor = result.ladder.reading.joules.min(result.race.reading.joules);
    assert!(
        adaptive <= floor * (1.0 + 1e-9),
        "{name}: adaptive {adaptive} J must not exceed min(ladder, race) = {floor} J"
    );
    assert!(
        adaptive < result.exact.reading.joules,
        "{name}: adaptive must reduce energy vs exact-only"
    );
    // Hysteresis bound: each worker's domain re-targets at most once per
    // HYSTERESIS dispatches (plus one initial transition).
    let bound = (tasks as u64 / HYSTERESIS as u64) + workers as u64;
    assert!(
        result.adaptive.transitions <= bound,
        "{name}: adaptive transitions {} exceed hysteresis bound {bound}",
        result.adaptive.transitions
    );
    // Race-to-idle never changes the frequency domain at all.
    assert_eq!(
        result.race.transitions, 0,
        "{name}: race-to-idle must pay zero DVFS transitions"
    );
}

/// Regression gate for CI: replay the deterministic strategy comparison and
/// fail if the adaptive strategy's modelled energy reduction over the
/// same-run exact-only baseline falls below 0.8× the committed reduction on
/// either power model, or if `adaptive ≤ min(ladder, race)` breaks. Exits
/// non-zero on regression.
fn run_check(config: &Config, committed_path: &str) -> ! {
    let committed = std::fs::read_to_string(committed_path)
        .unwrap_or_else(|e| panic!("cannot read {committed_path}: {e}"));
    let mut failed = false;
    for scenario in [
        Scenario::dynamic_heavy(config.workers),
        Scenario::static_heavy(config.workers),
    ] {
        let result = run_scenario(&scenario, config.tasks, config.ratio, config.workers);
        assert_scenario_invariants(scenario.name, &result, config.tasks, config.workers);
        let now = result.adaptive_reduction_percent();
        let committed_reduction =
            extract_json_number_after(&committed, scenario.name, "adaptive_reduction_percent")
                .unwrap_or_else(|| {
                    panic!(
                        "committed report lacks {}.adaptive_reduction_percent",
                        scenario.name
                    )
                });
        let threshold = 0.8 * committed_reduction;
        eprintln!(
            "energy-bench check [{}]: adaptive reduction now {now:.2}% vs committed \
             {committed_reduction:.2}% (threshold {threshold:.2}%)",
            scenario.name
        );
        if now < threshold {
            eprintln!(
                "FAIL [{}]: adaptive energy reduction regressed below 0.8x the committed \
                 number",
                scenario.name
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    eprintln!("OK: adaptive strategy holds the committed energy-reduction floor");
    std::process::exit(0);
}

fn strategy_json(label: &str, run: &StrategyRun, indent: &str) -> String {
    format!(
        "{indent}\"{label}\": {{\n{indent}  \"joules\": {:.6},\n{indent}  \"dynamic_joules\": \
         {:.6},\n{indent}  \"static_joules\": {:.6},\n{indent}  \"idle_joules\": {:.6},\n\
         {indent}  \"transition_joules\": {:.6},\n{indent}  \"modelled_wall_seconds\": {:.6},\n\
         {indent}  \"sleep_seconds\": {:.6},\n{indent}  \"frequency_transitions\": {},\n\
         {indent}  \"scaled_tasks\": {}\n{indent}}}",
        run.reading.joules,
        run.reading.breakdown.dynamic_joules,
        run.reading.breakdown.static_joules,
        run.reading.breakdown.idle_joules,
        run.reading.breakdown.transition_joules,
        run.modelled_wall_seconds,
        run.sleep_seconds,
        run.transitions,
        run.scaled_tasks,
    )
}

fn scenario_json(scenario: &Scenario, result: &ScenarioResult) -> String {
    format!(
        "    \"{}\": {{\n      \"model\": {{\"sockets\": {}, \"cores_per_socket\": {}, \
         \"static_watts_per_socket\": {}, \"active_watts_per_core\": {}, \
         \"idle_watts_per_core\": {}}},\n      \"power_exponent\": {},\n      \
         \"sleep_state\": {{\"watts_per_core\": {}, \"static_fraction_saved\": {}, \
         \"wake_latency_seconds\": {}}},\n{},\n{},\n{},\n{},\n      \
         \"adaptive_reduction_percent\": {:.4}\n    }}",
        scenario.name,
        scenario.model.sockets,
        scenario.model.cores_per_socket,
        scenario.model.static_watts_per_socket,
        scenario.model.active_watts_per_core,
        scenario.model.idle_watts_per_core,
        scenario.power_exponent,
        scenario.sleep.watts_per_core,
        scenario.sleep.static_fraction_saved,
        scenario.sleep.wake_latency_seconds,
        strategy_json("exact_only", &result.exact, "      "),
        strategy_json("ladder", &result.ladder, "      "),
        strategy_json("race_to_idle", &result.race, "      "),
        strategy_json("adaptive", &result.adaptive, "      "),
        result.adaptive_reduction_percent(),
    )
}

fn main() {
    let config = parse_args();

    // CI regression gate: deterministic strategy replay vs committed floor.
    if let Some(committed) = config.check.clone() {
        run_check(&config, &committed);
    }

    eprintln!(
        "energy-bench: {} tasks x {} work units, {} workers, ratio {}, approx freq {}, \
         best of {} (host has {} cores)",
        config.tasks,
        config.work_units,
        config.workers,
        config.ratio,
        config.freq,
        config.reps,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    let mut exact: Option<VariantRun> = None;
    let mut dvfs: Option<VariantRun> = None;
    for _ in 0..config.reps {
        let e = run_variant(&config, false);
        if exact
            .as_ref()
            .is_none_or(|best| e.reading.joules < best.reading.joules)
        {
            exact = Some(e);
        }
        let d = run_variant(&config, true);
        if dvfs
            .as_ref()
            .is_none_or(|best| d.reading.joules < best.reading.joules)
        {
            dvfs = Some(d);
        }
    }
    let exact = exact.expect("at least one rep");
    let dvfs = dvfs.expect("at least one rep");

    let quality = relative_error_percent(&exact.outputs, &dvfs.outputs);
    let reduction = 100.0 * (1.0 - dvfs.reading.joules / exact.reading.joules);
    eprintln!(
        "  exact-only        : {:.3} J ({:.4} s wall)",
        exact.reading.joules, exact.reading.wall_seconds
    );
    eprintln!(
        "  significance+DVFS : {:.3} J ({:.4} s modelled wall, {} scaled tasks)",
        dvfs.reading.joules, dvfs.modelled_wall_seconds, dvfs.scaled_tasks
    );
    eprintln!("  energy reduction  : {reduction:.1}% at {quality:.3}% relative error");

    // Strategy comparison: deterministic replay over both power models.
    let dynamic_heavy = Scenario::dynamic_heavy(config.workers);
    let static_heavy = Scenario::static_heavy(config.workers);
    let dynamic_result = run_scenario(&dynamic_heavy, config.tasks, config.ratio, config.workers);
    let static_result = run_scenario(&static_heavy, config.tasks, config.ratio, config.workers);
    for (scenario, result) in [
        (&dynamic_heavy, &dynamic_result),
        (&static_heavy, &static_result),
    ] {
        eprintln!(
            "  strategy [{:>13}]: exact {:.4} J | ladder {:.4} J ({} trans) | race {:.4} J \
             ({:.4} s sleep) | adaptive {:.4} J ({} trans) => {:.1}% reduction",
            scenario.name,
            result.exact.reading.joules,
            result.ladder.reading.joules,
            result.ladder.transitions,
            result.race.reading.joules,
            result.race.sleep_seconds,
            result.adaptive.reading.joules,
            result.adaptive.transitions,
            result.adaptive_reduction_percent(),
        );
        assert_scenario_invariants(scenario.name, result, config.tasks, config.workers);
    }

    let variant_json = |label: &str, run: &VariantRun| -> String {
        format!(
            "  \"{label}\": {{\n    \"joules\": {:.4},\n    \"dynamic_joules\": {:.4},\n    \
             \"static_joules\": {:.4},\n    \"idle_joules\": {:.4},\n    \
             \"transition_joules\": {:.6},\n    \
             \"wall_seconds\": {:.6},\n    \"modelled_wall_seconds\": {:.6},\n    \
             \"busy_core_seconds\": {:.6},\n    \"average_watts\": {:.3},\n    \
             \"scaled_tasks\": {},\n    \"accurate_fraction\": {:.4}\n  }}",
            run.reading.joules,
            run.reading.breakdown.dynamic_joules,
            run.reading.breakdown.static_joules,
            run.reading.breakdown.idle_joules,
            run.reading.breakdown.transition_joules,
            run.reading.wall_seconds,
            run.modelled_wall_seconds,
            run.reading.busy_core_seconds,
            run.reading.average_watts,
            run.scaled_tasks,
            run.accurate_fraction,
        )
    };
    let json = format!(
        "{{\n  \"benchmark\": \"energy_bench\",\n  \"description\": \"modelled energy of \
         exact-only vs significance+DVFS execution at equal task count, plus an \
         energy-strategy comparison (slow-and-steady vs race-to-idle vs adaptive)\",\n  \
         \"workers\": {},\n  \"tasks\": {},\n  \"work_units\": {},\n  \"ratio\": {},\n  \
         \"approx_frequency_ratio\": {},\n  \"reps\": {},\n  \"host_cores\": {},\n\
         {},\n{},\n  \"quality_relative_error_percent\": {:.4},\n  \
         \"energy_reduction_percent\": {:.2},\n  \"strategy_comparison\": {{\n    \
         \"description\": \"deterministic replay of one workload script (GTB Max-Buffer \
         accuracy decisions, fixed per-task busy times) through the runtime's ExecutionEnv \
         under four governors\",\n    \"ladder\": {{\"steps\": {}, \"floor\": {}}},\n    \
         \"hysteresis\": {},\n    \"accurate_task_seconds\": {},\n    \
         \"approx_task_seconds\": {:.9},\n    \"transition_cost\": {{\"latency_seconds\": \
         {}, \"energy_joules\": {}}},\n{},\n{}\n  }},\n  \"metadata\": {{\n    \"note\": \
         \"energy is modelled (affine power model + P∝f·V² DVFS scaling + sleep-state \
         residency + transition costs), not measured; the live section depends on host \
         timing, the strategy_comparison section is a deterministic replay and is \
         reproducible bit-for-bit on any host at fixed task count\"\n  }}\n}}\n",
        config.workers,
        config.tasks,
        config.work_units,
        config.ratio,
        config.freq,
        config.reps,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        variant_json("exact_only", &exact),
        variant_json("significance_dvfs", &dvfs),
        quality,
        reduction,
        LADDER_STEPS,
        LADDER_FLOOR,
        HYSTERESIS,
        ACCURATE_TASK_SECONDS,
        APPROX_TASK_SECONDS,
        REPLAY_TRANSITION.latency_seconds,
        REPLAY_TRANSITION.energy_joules,
        scenario_json(&dynamic_heavy, &dynamic_result),
        scenario_json(&static_heavy, &static_result),
    );
    if config.write_out {
        std::fs::write(&config.out, &json).expect("failed to write results");
        eprintln!("  wrote {}", config.out);
    }
    println!("{json}");

    assert!(
        dvfs.reading.joules < exact.reading.joules,
        "significance+DVFS must reduce modelled energy ({} J vs {} J)",
        dvfs.reading.joules,
        exact.reading.joules
    );
}
