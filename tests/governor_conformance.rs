//! Governor conformance test kit.
//!
//! **This file is the template for every future [`Governor`]**: add a row to
//! [`all_governors`] and the new governor is automatically run through the
//! shared invariant set every CI run — once with the environment's dispatch
//! cap disengaged and once with it engaged ([`CAPS`]), because a budget or
//! power-cap controller may clamp approximate work under any governor. The
//! invariants are checked at three levels:
//!
//! 1. **decision level** — a grid of dispatch contexts through
//!    [`ExecutionEnv::dispatch`] (which is [`Governor::decide`] verbatim
//!    while the cap is disengaged): critical/accurate tasks are never scaled
//!    and never raced, no decision overclocks or executes above the cap, and
//!    no executed frequency step increases dynamic energy at fixed work;
//! 2. **environment level** — a deterministic dispatch/record script through
//!    the runtime's real [`ExecutionEnv`] accounting (synthetic durations,
//!    no scheduler noise): busy-seconds conservation across shards, dilation
//!    monotonicity, dynamic energy bounded by the nominal baseline, and the
//!    reported transition count matching an independently replayed
//!    frequency-change count;
//! 3. **runtime level** — a live workload on the full scheduler: the energy
//!    shards must conserve the busy seconds the scheduler statistics
//!    account, and an all-critical group must execute entirely at nominal.
//!
//! The runtime-level bodies sleep only to give the shards busy time. No
//! assertion depends on how long they take: the busy-time fold equals the
//! scheduler's to the bit (both fold one ledger), the critical-task checks
//! are counts, and a 1 nJ budget is exhausted by any positive wall time at
//! the test model's static power.
//!
//! Property tests additionally pin the [`AdaptiveGovernor`]'s hysteresis
//! contract: under *any* oscillating significance input, executed-frequency
//! changes are bounded by `dispatches / hysteresis + 1` per worker domain.

// The vendored proptest shim expands token-by-token; two property blocks
// with doc comments exceed the default recursion limit.
#![recursion_limit = "512"]

use std::sync::Arc;

use proptest::prelude::*;

use significance_repro::core::{
    AdaptiveGovernor, DispatchContext, DispatchDecision, ExecutionEnv, Governor, NominalGovernor,
    SignificanceLadderGovernor,
};
use significance_repro::energy::{
    BudgetConfig, BudgetController, BudgetTarget, EnergyReading, PowerModel, SleepState,
    TransitionCost,
};
use significance_repro::prelude::*;

/// Workers used by the deterministic environment scripts.
const WORKERS: usize = 2;
/// Hysteresis configured on the adaptive governor under test.
const HYSTERESIS: u32 = 4;

fn test_model() -> PowerModel {
    PowerModel {
        sockets: 1,
        cores_per_socket: WORKERS,
        static_watts_per_socket: 10.0,
        active_watts_per_core: 6.6,
        idle_watts_per_core: 1.0,
    }
}

/// A named governor factory row of the conformance kit.
type GovernorCase = (&'static str, Box<dyn Fn() -> Arc<dyn Governor>>);

/// Dispatch-cap settings every invariant is checked under: disengaged, and
/// engaged between the ladder's top two rungs (so it clamps some rungs and
/// leaves others alone).
const CAPS: [f64; 2] = [1.0, 0.7];

/// The three shipped governor types in their five shipped configurations,
/// by factory (stateful governors — the adaptive's hysteresis domains —
/// need a fresh instance per test).
///
/// **Add new governors here** to run them through the whole kit.
fn all_governors() -> Vec<GovernorCase> {
    vec![
        ("nominal", Box::new(|| Arc::new(NominalGovernor))),
        (
            "single-step",
            Box::new(|| Arc::new(SignificanceLadderGovernor::single_step(0.6))),
        ),
        (
            "significance-ladder",
            Box::new(|| Arc::new(SignificanceLadderGovernor::with_ladder(4, 0.4))),
        ),
        (
            "race-to-idle",
            Box::new(|| {
                Arc::new(AdaptiveGovernor::race_to_idle(FrequencyScale::ladder(
                    4, 0.4,
                )))
            }),
        ),
        (
            "adaptive",
            Box::new(|| {
                Arc::new(AdaptiveGovernor::new(
                    &test_model(),
                    SleepState::deep(),
                    FrequencyScale::ladder(4, 0.4),
                    HYSTERESIS,
                    1e-3,
                ))
            }),
        ),
    ]
}

/// Every row of [`all_governors`] (a fresh instance each) under every cap of
/// [`CAPS`], labelled for assertion messages.
fn all_governors_at_every_cap() -> Vec<(String, f64, Arc<dyn Governor>)> {
    all_governors()
        .iter()
        .flat_map(|(name, make)| CAPS.map(|cap| (format!("{name} (cap {cap})"), cap, make())))
        .collect()
}

/// The environment every deterministic script dispatches through, with the
/// dispatch cap set to `cap` (1.0 = disengaged).
fn capped_env(governor: Arc<dyn Governor>, cap: f64) -> ExecutionEnv {
    let env = ExecutionEnv::new(
        test_model(),
        governor,
        Some(SleepState::deep()),
        TransitionCost::typical(),
        WORKERS,
    );
    env.set_dispatch_cap(cap);
    env
}

fn ctx(worker: usize, significance: f64, accurate: bool) -> DispatchContext {
    DispatchContext {
        worker,
        significance: Significance::new(significance),
        accurate,
        policy: Policy::GtbMaxBuffer,
        group_ratio: 0.5,
        deadline_pressure: false,
    }
}

/// Decision-level invariants, shared by every governor, cap engaged or not:
/// * accurate (and in particular critical) tasks execute at nominal and are
///   never raced;
/// * no decision overclocks (ratio ≤ 1), and no non-accurate decision
///   executes above the dispatch cap;
/// * no executed step increases dynamic energy at fixed work
///   (`dynamic_energy_factor ≤ 1`);
/// * race decisions have non-negative slack against a reference at or below
///   nominal.
#[test]
fn decisions_respect_shared_invariants_for_all_governors() {
    for (name, cap, governor) in all_governors_at_every_cap() {
        let env = capped_env(governor, cap);
        for step in 0..=20 {
            let significance = step as f64 / 20.0;
            for worker in [0usize, 1] {
                for accurate in [true, false] {
                    let decision = env.dispatch(worker, &ctx(worker, significance, accurate));
                    let scale = decision.scale();
                    let at = format!("{name} at significance {significance}");
                    assert!(scale.ratio() <= 1.0 + 1e-12, "{at}: overclocked");
                    assert!(
                        scale.dynamic_energy_factor() <= 1.0 + 1e-12,
                        "{at}: executed step increases dynamic energy per work unit"
                    );
                    if accurate {
                        assert!(scale.is_nominal(), "{at}: accurate task scaled");
                        assert!(!decision.is_race(), "{at}: accurate task raced");
                    } else {
                        assert!(scale.ratio() <= cap, "{at}: executed above the cap");
                    }
                    if let Some(reference) = decision.race_reference() {
                        assert!(
                            reference.ratio() <= 1.0 + 1e-12,
                            "{at}: race reference above nominal"
                        );
                        assert!(decision.slack_factor() >= 0.0, "{at}: negative race slack");
                    }
                }
            }
        }
    }
}

/// Every non-accurate context of the decision grid, with the ladder rung a
/// four-step ladder puts it on written out: `round((1 − s) · 3)`.
fn approximate_grid() -> impl Iterator<Item = (DispatchContext, usize)> {
    const RUNG: [usize; 21] = [
        3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0,
    ];
    (0..=20).flat_map(|step| {
        [0usize, 1].map(|worker| (ctx(worker, step as f64 / 20.0, false), RUNG[step]))
    })
}

/// A one-rung ladder is the two-rail "approximate work on one lower step"
/// scheme: accurate work at nominal, everything else stretched over the
/// step, whatever the significance.
#[test]
fn single_step_ladder_decides_like_the_two_rail_governor() {
    let governor = SignificanceLadderGovernor::single_step(0.6);
    for (approximate, _) in approximate_grid() {
        let accurate = DispatchContext {
            accurate: true,
            ..approximate
        };
        assert_eq!(governor.decide(&accurate), DispatchDecision::nominal());
        assert_eq!(
            governor.decide(&approximate),
            DispatchDecision::stretch(FrequencyScale::new(0.6))
        );
    }
}

/// An adaptive governor pinned to "always race" is the stateless
/// race-to-idle strategy: accurate work and top-rung work at nominal with no
/// race, everything else raced at nominal against its ladder rung — on every
/// call, the hysteresis filter inert.
#[test]
fn all_race_adaptive_decides_like_the_race_to_idle_governor() {
    const LADDER: [f64; 4] = [1.0, 0.8, 0.6, 0.4];
    let governor = AdaptiveGovernor::race_to_idle(FrequencyScale::ladder(4, 0.4));
    // Two sweeps: the second one meets whatever state the first one left.
    for _ in 0..2 {
        for (approximate, rung) in approximate_grid() {
            let accurate = DispatchContext {
                accurate: true,
                ..approximate
            };
            assert_eq!(governor.decide(&accurate), DispatchDecision::nominal());
            let decision = governor.decide(&approximate);
            assert!(decision.scale().is_nominal());
            match decision.race_reference() {
                None => assert_eq!(rung, 0, "only the top rung has no slack to race for"),
                Some(reference) => {
                    assert_ne!(rung, 0);
                    assert!((reference.ratio() - LADDER[rung]).abs() < 1e-12);
                    assert_eq!(reference.power_exponent(), 2.4);
                }
            }
        }
    }
}

/// The deterministic script every governor's environment run replays: a
/// cycle of significances with Max-Buffer-style accuracy decisions.
fn script() -> Vec<(f64, bool)> {
    (0..200)
        .map(|i| {
            let significance = ((i % 9) + 1) as f64 / 10.0;
            (significance, significance > 0.5)
        })
        .collect()
}

/// Drive one governor through a scripted [`ExecutionEnv`] run under the
/// dispatch cap `cap`. Returns the environment plus the frequency-change
/// count replayed independently from the decisions dispatch actually
/// returned.
fn run_script(governor: Arc<dyn Governor>, cap: f64) -> (ExecutionEnv, u64, f64) {
    let env = capped_env(governor, cap);
    let mut last_ratio = [1.0f64; WORKERS];
    let mut replayed_changes = 0u64;
    let mut total_busy = 0.0f64;
    for (i, (significance, accurate)) in script().into_iter().enumerate() {
        let worker = i % WORKERS;
        let decision = env.dispatch(worker, &ctx(worker, significance, accurate));
        if decision.scale().ratio() != last_ratio[worker] {
            replayed_changes += 1;
            last_ratio[worker] = decision.scale().ratio();
        }
        let busy_micros = if accurate { 100 } else { 40 };
        total_busy += busy_micros as f64 * 1e-6;
        let mode = if accurate {
            ExecutionMode::Accurate
        } else {
            ExecutionMode::Approximate
        };
        env.record(
            worker,
            mode,
            std::time::Duration::from_micros(busy_micros),
            decision,
        );
    }
    (env, replayed_changes, total_busy)
}

/// Environment-level invariants: busy conservation, dilation monotonicity,
/// transition-count agreement and the dynamic-energy bound, for every
/// governor, capped and uncapped, deterministically.
#[test]
fn environment_accounting_conserves_and_bounds_for_all_governors() {
    let nominal_watts = test_model().active_watts_per_core;
    for (name, cap, governor) in all_governors_at_every_cap() {
        let (env, replayed_changes, total_busy) = run_script(governor, cap);
        let report = env.report(total_busy / WORKERS as f64, WORKERS);

        // Busy-seconds conservation: the shards fold to exactly what was
        // recorded.
        assert!(
            (report.busy_seconds() - total_busy).abs() < 1e-9,
            "{name}: shards account {} busy seconds, script recorded {total_busy}",
            report.busy_seconds()
        );
        // Dilation only ever extends modelled time.
        for worker in &report.workers {
            assert!(
                worker.modelled_busy_seconds >= worker.busy_seconds - 1e-12,
                "{name}: modelled busy below measured on worker {}",
                worker.worker
            );
        }
        // Transition count matches the frequency-change count replayed from
        // the governor's own decisions.
        assert_eq!(
            report.frequency_transitions(),
            replayed_changes,
            "{name}: reported transitions disagree with replayed frequency changes"
        );
        // Downscaling at fixed work never increases dynamic energy over the
        // nominal baseline.
        let nominal_dynamic = total_busy * nominal_watts;
        assert!(
            report.dynamic_joules() <= nominal_dynamic * (1.0 + 1e-9),
            "{name}: dynamic {} J above the nominal baseline {nominal_dynamic} J",
            report.dynamic_joules()
        );
        // The reading is internally consistent.
        let reading = report.reading();
        assert!(
            (reading.breakdown.total() - reading.joules).abs() < 1e-9,
            "{name}: breakdown does not sum to total"
        );
        assert!(reading.joules > 0.0, "{name}: empty reading");
    }
}

/// Runtime-level invariants on the live scheduler: the energy shards
/// conserve the busy seconds the scheduler statistics account, and an
/// all-critical group executes entirely at nominal frequency with no race.
///
/// The runtime's one handle on the dispatch cap is its energy budget, so the
/// capped rows engage it that way: an already-exhausted budget whose cap
/// floor is the cap under test and whose ratio floor of 1.0 leaves the
/// accuracy mix alone, sampled once before the first task.
#[test]
fn runtime_conserves_busy_seconds_and_protects_critical_tasks() {
    for (name, cap, governor) in all_governors_at_every_cap() {
        let mut builder = Runtime::builder()
            .workers(WORKERS)
            .policy(Policy::GtbMaxBuffer)
            .energy_model(test_model())
            .governor_arc(governor)
            .sleep_state(SleepState::deep())
            .transition_cost(TransitionCost::typical());
        if cap < 1.0 {
            let exhausted = BudgetTarget::TotalJoules {
                joules: 1e-9,
                horizon_seconds: 1e-6,
            };
            builder = builder.energy_budget(
                BudgetConfig::new(exhausted)
                    .cap_floor(cap)
                    .min_ratio_scale(1.0),
            );
        }
        let rt = builder.build();
        if let Some(setpoint) = rt.energy_budget_sample() {
            assert!(
                setpoint.exhausted,
                "{name}: a 1 nJ budget must be exhausted"
            );
            assert!((setpoint.frequency_cap - cap).abs() < 1e-12);
            assert_eq!(setpoint.ratio_scale, 1.0);
        }
        let mixed = rt.create_group("mixed", 0.4);
        for i in 0..200u32 {
            rt.task(|| std::thread::sleep(std::time::Duration::from_micros(50)))
                .approx(|| std::thread::sleep(std::time::Duration::from_micros(20)))
                .significance(((i % 9) + 1) as f64 / 10.0)
                .group(&mixed)
                .spawn();
        }
        rt.wait_group(&mixed);
        let report = rt.energy_report();
        assert_eq!(
            report.busy_seconds().to_bits(),
            rt.stats().busy_core_seconds().to_bits(),
            "{name}: energy shards and scheduler stats disagree: {} vs {}",
            report.busy_seconds(),
            rt.stats().busy_core_seconds()
        );

        // Critical tasks: a ratio-0 group of significance-1.0 tasks must not
        // add a single scaled dispatch (race dispatches execute at nominal
        // and are likewise excluded by the conformance contract).
        let scaled_before = report.scaled_tasks();
        let critical = rt.create_group("critical", 0.0);
        for _ in 0..50 {
            rt.task(|| {})
                .approx(|| {})
                .significance(1.0)
                .group(&critical)
                .spawn();
        }
        rt.wait_group(&critical);
        let after = rt.energy_report();
        assert_eq!(
            after.scaled_tasks(),
            scaled_before,
            "{name}: critical tasks were dispatched below nominal"
        );
        assert_eq!(rt.group_stats(&critical).accurate, 50);
    }
}

/// The race-to-idle configuration's structural guarantee: it never changes
/// the frequency domain, so a full script costs zero DVFS transitions while
/// banking sleep residency for every raced task.
#[test]
fn race_to_idle_pays_zero_transitions_and_banks_residency() {
    let governor = AdaptiveGovernor::race_to_idle(FrequencyScale::ladder(4, 0.4));
    let (env, replayed, total_busy) = run_script(Arc::new(governor), 1.0);
    let report = env.report(total_busy / WORKERS as f64, WORKERS);
    assert_eq!(replayed, 0);
    assert_eq!(report.frequency_transitions(), 0);
    assert!(report.sleep_seconds() > 0.0);
    assert!(report.sleep_entries() > 0);
    assert_eq!(report.scaled_tasks(), 0);
}

// ---------------------------------------------------------------------------
// Budget-controller conformance row
//
// The online energy-budget loop is not a `Governor`, but it rides the same
// dispatch path (a group ratio throttle plus the environment's re-targetable
// frequency cap), so it gets the same deterministic-script treatment: spend
// conformance for feasible budgets, critical-work protection under maximum
// austerity, and an exact-bits no-op guarantee when the budget never binds.
// ---------------------------------------------------------------------------

/// Tasks per control interval of the budgeted script.
const BUDGET_INTERVAL_TASKS: usize = 20;
/// Wall seconds per control interval. The grid is arrival-driven: at ~0.7 ms
/// of nominal busy work per 2 ms interval across 2 workers, utilization stays
/// below 1 even fully dilated, so every run completes the whole script and
/// readings are directly comparable.
const BUDGET_INTERVAL_SECONDS: f64 = 2e-3;
/// Base significance ratio of the script's single (non-critical) group.
const BUDGET_BASE_RATIO: f64 = 0.5;
/// Tasks in the budgeted script. Longer than [`script`]: the integral
/// controller needs a few dozen observations to ramp austerity and settle,
/// so the budgeted runs get 50 control intervals instead of 10.
const BUDGET_SCRIPT_TASKS: usize = 1000;

/// Significance sequence of the budgeted script (same cycle as [`script`];
/// accuracy is decided online from the budget-scaled ratio instead of being
/// scripted).
fn budget_script() -> Vec<f64> {
    (0..BUDGET_SCRIPT_TASKS)
        .map(|i| ((i % 9) + 1) as f64 / 10.0)
        .collect()
}

/// Drive the deterministic script through a ladder environment with an
/// optional online budget loop in control. The loop applies the setpoint
/// exactly as the runtime does: `ratio_scale` multiplies the group ratio
/// (shifting the accuracy threshold) and `frequency_cap` re-targets the
/// environment's approximate-dispatch cap. Returns the final cumulative
/// reading plus the interval-end cumulative-joule trace.
fn run_budget_script(budget: Option<BudgetConfig>) -> (EnergyReading, Vec<f64>) {
    let env = capped_env(
        Arc::new(SignificanceLadderGovernor::with_ladder(4, 0.4)),
        1.0,
    );
    let mut controller = budget.map(BudgetController::new);
    let mut ratio_scale = 1.0f64;
    let mut trace = Vec::new();
    let script = budget_script();
    let intervals = script.len() / BUDGET_INTERVAL_TASKS;
    for (interval, chunk) in script.chunks(BUDGET_INTERVAL_TASKS).enumerate() {
        for (offset, significance) in chunk.iter().enumerate() {
            let i = interval * BUDGET_INTERVAL_TASKS + offset;
            let worker = i % WORKERS;
            let ratio = (BUDGET_BASE_RATIO * ratio_scale).clamp(0.0, 1.0);
            let accurate = *significance >= 1.0 - ratio;
            let decision = env.dispatch(worker, &ctx(worker, *significance, accurate));
            let busy_micros = if accurate { 100 } else { 40 };
            let mode = if accurate {
                ExecutionMode::Accurate
            } else {
                ExecutionMode::Approximate
            };
            env.record(
                worker,
                mode,
                std::time::Duration::from_micros(busy_micros),
                decision,
            );
        }
        let wall = (interval + 1) as f64 * BUDGET_INTERVAL_SECONDS;
        let reading = env.report(wall, WORKERS).reading();
        trace.push(reading.joules);
        if let Some(controller) = controller.as_mut() {
            let setpoint = controller.observe(wall, &reading);
            ratio_scale = setpoint.ratio_scale;
            env.set_dispatch_cap(setpoint.frequency_cap);
        }
    }
    let wall = intervals as f64 * BUDGET_INTERVAL_SECONDS;
    (env.report(wall, WORKERS).reading(), trace)
}

/// A joule budget for the deterministic script at `fraction` of the
/// open-loop spend, with the library-default ±10% tolerance band.
fn script_budget(open_joules: f64, fraction: f64) -> BudgetConfig {
    let intervals = BUDGET_SCRIPT_TASKS / BUDGET_INTERVAL_TASKS;
    BudgetConfig::new(BudgetTarget::TotalJoules {
        joules: fraction * open_joules,
        horizon_seconds: intervals as f64 * BUDGET_INTERVAL_SECONDS,
    })
}

/// Spend conformance: for every *feasible* budget (one above the all-approx
/// floor the austerity knobs can actually reach), cumulative joules never
/// exceed `budget × (1 + tolerance)` — and the budget genuinely binds, so
/// the test is not vacuous.
#[test]
fn budget_spend_never_exceeds_tolerance_band_for_feasible_budgets() {
    let (open, _) = run_budget_script(None);
    for fraction in [0.85, 0.92] {
        let config = script_budget(open.joules, fraction);
        let cap = fraction * open.joules * (1.0 + config.tolerance);
        let (reading, trace) = run_budget_script(Some(config));
        assert!(
            reading.joules <= cap,
            "budget {fraction}×open: spent {} J above the {cap} J conformance cap",
            reading.joules
        );
        assert!(
            reading.joules < open.joules,
            "budget {fraction}×open never bound: spent {} J vs open {} J",
            reading.joules,
            open.joules
        );
        // Cumulative spend is monotone, so the final check covers every
        // interval — assert the trace agrees.
        for pair in trace.windows(2) {
            assert!(pair[1] >= pair[0] - 1e-12, "cumulative joules regressed");
        }
        assert!((trace.last().copied().unwrap() - reading.joules).abs() < 1e-9);
    }
}

/// Critical-work protection under maximum austerity, end to end on the live
/// runtime: with an already-exhausted budget (austerity saturated at 1.0), a
/// critical group (ratio 0.0, significance 1.0) still executes every task
/// accurately at nominal frequency — the budget's ratio throttle exempts
/// ratio-0 groups and the dispatch cap exempts accurate work.
#[test]
fn exhausted_budget_never_scales_critical_or_accurate_tasks() {
    let rt = Runtime::builder()
        .workers(WORKERS)
        .policy(Policy::GtbMaxBuffer)
        .energy_model(test_model())
        .governor(SignificanceLadderGovernor::with_ladder(4, 0.4))
        .sleep_state(SleepState::deep())
        .transition_cost(TransitionCost::typical())
        .energy_budget(BudgetConfig::new(BudgetTarget::TotalJoules {
            joules: 1e-9,
            horizon_seconds: 1e-6,
        }))
        .build();
    // Burn enough work for the controller to observe the overspend, then
    // force a sample so the setpoint reflects it.
    let warmup = rt.create_group("warmup", 0.5);
    for i in 0..64u32 {
        rt.task(|| std::thread::sleep(std::time::Duration::from_micros(30)))
            .approx(|| std::thread::sleep(std::time::Duration::from_micros(10)))
            .significance(((i % 9) + 1) as f64 / 10.0)
            .group(&warmup)
            .spawn();
    }
    rt.wait_group(&warmup);
    let setpoint = rt
        .energy_budget_sample()
        .expect("a budget was configured on the builder");
    assert!(setpoint.exhausted, "a 1 nJ budget must read as exhausted");
    assert!(
        setpoint.austerity >= 1.0 - 1e-12,
        "exhaustion must saturate austerity"
    );

    let scaled_before = rt.energy_report().scaled_tasks();
    let critical = rt.create_group("critical", 0.0);
    for _ in 0..50 {
        rt.task(|| {})
            .approx(|| {})
            .significance(1.0)
            .group(&critical)
            .spawn();
    }
    rt.wait_group(&critical);
    assert_eq!(
        rt.energy_report().scaled_tasks(),
        scaled_before,
        "critical tasks were dispatched below nominal under an exhausted budget"
    );
    assert_eq!(
        rt.group_stats(&critical).accurate,
        50,
        "an exhausted budget degraded a critical (ratio-0.0) group"
    );
}

/// Removing the budget reproduces the unbudgeted trace **bit for bit**: a
/// budget so large it never binds emits exact-neutral setpoints
/// (`ratio_scale == 1.0`, `frequency_cap == 1.0`), and both knob paths — the
/// group-ratio multiply and the dispatch-cap clamp — are exact-bits no-ops
/// at 1.0 by design. Every joule field and the whole interval trace must
/// match to the last bit, not within a tolerance.
#[test]
fn never_binding_budget_reproduces_the_unbudgeted_trace_bit_for_bit() {
    let (open, open_trace) = run_budget_script(None);
    let (budgeted, budgeted_trace) = run_budget_script(Some(script_budget(open.joules, 1e6)));
    assert_eq!(
        budgeted.joules.to_bits(),
        open.joules.to_bits(),
        "a never-binding budget perturbed total joules: {} vs {}",
        budgeted.joules,
        open.joules
    );
    assert_eq!(
        budgeted.busy_core_seconds.to_bits(),
        open.busy_core_seconds.to_bits()
    );
    assert_eq!(
        budgeted.average_watts.to_bits(),
        open.average_watts.to_bits()
    );
    assert_eq!(
        budgeted.breakdown.total().to_bits(),
        open.breakdown.total().to_bits()
    );
    let open_bits: Vec<u64> = open_trace.iter().map(|j| j.to_bits()).collect();
    let budgeted_bits: Vec<u64> = budgeted_trace.iter().map(|j| j.to_bits()).collect();
    assert_eq!(
        budgeted_bits, open_bits,
        "interval traces diverge under a never-binding budget"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hysteresis contract: under ANY significance sequence (oscillating
    /// adversarially or not), the adaptive governor changes a worker
    /// domain's executed frequency at most `dispatches / hysteresis + 1`
    /// times.
    #[test]
    fn adaptive_hysteresis_bounds_transitions_under_oscillating_significance(
        significances in proptest::collection::vec(0.0f64..=1.0, 16..200),
        hysteresis_raw in 1u64..12,
    ) {
        let hysteresis = hysteresis_raw as u32;
        let governor = AdaptiveGovernor::new(
            &test_model(),
            SleepState::deep(),
            FrequencyScale::ladder(4, 0.4),
            hysteresis,
            1e-3,
        );
        let mut last = 1.0f64;
        let mut changes = 0u64;
        for significance in &significances {
            let decision = governor.decide(&ctx(0, *significance, false));
            let ratio = decision.scale().ratio();
            if ratio != last {
                changes += 1;
                last = ratio;
            }
        }
        let bound = significances.len() as u64 / hysteresis as u64 + 1;
        prop_assert!(
            changes <= bound,
            "hysteresis {hysteresis}: {changes} changes exceed bound {bound} over {} dispatches",
            significances.len()
        );
    }

    /// Every governor, fuzzed: no decision ever scales an accurate task or
    /// increases dynamic energy per unit of work.
    #[test]
    fn fuzzed_decisions_never_scale_accurate_or_raise_dynamic_energy(
        significance in 0.0f64..=1.0,
        worker in 0usize..8,
        accurate_bit in 0u64..2,
    ) {
        let accurate = accurate_bit == 1;
        for (name, make) in all_governors() {
            let decision = make().decide(&ctx(worker, significance, accurate));
            prop_assert!(
                decision.scale().dynamic_energy_factor() <= 1.0 + 1e-12,
                "{name}: dynamic energy factor above 1"
            );
            if accurate {
                prop_assert!(decision.scale().is_nominal(), "{name}: accurate task scaled");
                prop_assert!(!decision.is_race(), "{name}: accurate task raced");
            }
        }
    }
}
