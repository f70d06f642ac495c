//! Integration tests for the execution-environment layer: per-worker DVFS
//! frequency domains, governor behaviour under every policy, and the energy
//! report built from the per-worker shards.
//!
//! Task bodies here sleep only to give the shards busy time to account.
//! Every assertion but one is an identity or a bound that holds whatever
//! the sleeps measure: counts of scaled dispatches against counts of
//! non-accurate executions, the busy-time fold against the scheduler's (to
//! the bit: both fold one ledger), modelled against measured time under the
//! nominal governor. The exception compares measured time across runs:
//! `significance_with_dvfs_spends_fewer_modelled_joules_than_exact_only`
//! prices two variants' busy time, so preemption can narrow its margin; it
//! compares each variant's cheapest of seven alternating runs, and the
//! approximate bodies do a third of the work.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use significance_repro::energy::{FrequencyScale, PowerModel};
use significance_repro::prelude::*;

const ALL_POLICIES: [Policy; 4] = [
    Policy::SignificanceAgnostic,
    Policy::Gtb { buffer_size: 16 },
    Policy::GtbMaxBuffer,
    Policy::Lqh,
];

fn runtime(policy: Policy) -> Runtime {
    Runtime::builder()
        .workers(2)
        .policy(policy)
        .governor(SignificanceLadderGovernor::single_step(0.5))
        .build()
}

/// Under every policy, exactly the tasks that execute non-accurately are
/// dispatched below nominal frequency. In particular a task that *has* an
/// approximate body but is promoted to exact execution (high significance,
/// ratio pressure, agnostic policy) must run at nominal.
#[test]
fn governor_scales_exactly_the_non_accurate_tasks_under_all_policies() {
    for policy in ALL_POLICIES {
        let rt = runtime(policy);
        let group = rt.create_group("gov", 0.4);
        for i in 0..200u32 {
            rt.task(|| {})
                .approx(|| {})
                .significance(((i % 9) + 1) as f64 / 10.0)
                .group(&group)
                .spawn();
        }
        rt.wait_group(&group);
        rt.wait_all();
        let report = rt.energy_report();
        let stats = rt.stats();
        assert_eq!(
            report.scaled_tasks() as usize,
            stats.approximate() + stats.dropped(),
            "policy {policy:?}: scaled dispatches must equal non-accurate executions"
        );
        if policy == Policy::SignificanceAgnostic {
            assert_eq!(report.scaled_tasks(), 0, "agnostic runs everything exact");
        } else {
            assert!(
                report.scaled_tasks() > 0,
                "policy {policy:?} at ratio 0.4 must approximate some tasks"
            );
        }
    }
}

/// Critical tasks (significance 1.0) are never scaled, under any policy,
/// even when the ratio requests full approximation.
#[test]
fn critical_tasks_always_run_at_nominal_frequency() {
    for policy in ALL_POLICIES {
        let rt = runtime(policy);
        let group = rt.create_group("critical", 0.0);
        for _ in 0..50 {
            rt.task(|| {})
                .approx(|| {})
                .significance(1.0)
                .group(&group)
                .spawn();
        }
        rt.wait_group(&group);
        let report = rt.energy_report();
        assert_eq!(
            report.scaled_tasks(),
            0,
            "policy {policy:?}: critical tasks must stay at nominal frequency"
        );
        assert_eq!(rt.stats().accurate(), 50);
    }
}

/// The energy report conserves busy time: the per-worker shards fold to
/// the busy core-seconds the scheduler statistics account, bit for bit, and
/// the per-worker modelled time never falls below the measured time.
#[test]
fn energy_report_conserves_busy_seconds_across_workers() {
    let rt = Runtime::builder()
        .workers(4)
        .policy(Policy::GtbMaxBuffer)
        .governor(SignificanceLadderGovernor::with_ladder(4, 0.5))
        .build();
    let group = rt.create_group("conserve", 0.5);
    for i in 0..300u32 {
        rt.task(|| std::thread::sleep(std::time::Duration::from_micros(120)))
            .approx(|| std::thread::sleep(std::time::Duration::from_micros(40)))
            .significance(((i % 9) + 1) as f64 / 10.0)
            .group(&group)
            .spawn();
    }
    rt.wait_group(&group);
    let report = rt.energy_report();
    // One accounting shard per worker thread.
    assert_eq!(report.workers.len(), rt.workers());
    let folded: f64 = report.workers.iter().map(|w| w.busy_seconds).sum();
    assert!((folded - report.busy_seconds()).abs() < 1e-12);
    assert_eq!(
        report.busy_seconds().to_bits(),
        rt.stats().busy_core_seconds().to_bits(),
        "energy shards and scheduler stats disagree: {} vs {}",
        report.busy_seconds(),
        rt.stats().busy_core_seconds()
    );
    for worker in &report.workers {
        assert!(
            worker.modelled_busy_seconds >= worker.busy_seconds - 1e-12,
            "dilation can only extend modelled time"
        );
        assert!(
            (worker.accurate_busy_seconds + worker.approximate_busy_seconds)
                <= worker.modelled_busy_seconds + 1e-9
        );
    }
    assert!(report.modelled_wall_seconds() >= report.wall_seconds);
    let reading = report.reading();
    assert!(reading.joules > 0.0);
    assert!((reading.breakdown.total() - reading.joules).abs() < 1e-9);
}

/// The default (nominal) governor leaves the accounting identical to the
/// plain busy-time integration: no scaled tasks, no dilation, and the
/// reading's dynamic term equals busy × nominal active watts.
#[test]
fn nominal_governor_accounting_matches_plain_integration() {
    let model = PowerModel::for_host();
    let rt = Runtime::builder().workers(2).energy_model(model).build();
    for _ in 0..100 {
        rt.task(|| std::thread::sleep(std::time::Duration::from_micros(50)))
            .spawn();
    }
    rt.wait_all();
    let report = rt.energy_report();
    assert_eq!(report.scaled_tasks(), 0);
    assert!((report.modelled_busy_seconds() - report.busy_seconds()).abs() < 1e-9);
    let reading = report.reading();
    let expected_dynamic = report.busy_seconds() * model.active_watts_per_core;
    assert!(
        (reading.breakdown.dynamic_joules - expected_dynamic).abs()
            < 1e-6 * expected_dynamic.max(1.0),
        "dynamic {} vs expected {}",
        reading.breakdown.dynamic_joules,
        expected_dynamic
    );
}

/// On the real runtime, significance-aware execution under DVFS spends fewer
/// modelled joules than exact-only execution of the same task population,
/// at a small, reported output error.
#[test]
fn significance_with_dvfs_spends_fewer_modelled_joules_than_exact_only() {
    const TASKS: usize = 400;
    const TERMS: u64 = 2_000;
    // Partial sum of Σ 1/(k² + ε): a prefix is a genuine approximation (the
    // dropped tail is O(1/terms)), so the approximate body — a third of the
    // terms — is both cheaper and close in value.
    fn series(seed: usize, terms: u64) -> f64 {
        let offset = (seed % 97) as f64 * 1e-7;
        (1..=terms).fold(0.0, |acc, k| {
            std::hint::black_box(acc + 1.0 / ((k * k) as f64 + offset))
        })
    }
    let run = |significance_dvfs: bool| {
        let builder = Runtime::builder()
            .workers(2)
            .energy_model(PowerModel::for_host());
        let rt = if significance_dvfs {
            builder
                .policy(Policy::GtbMaxBuffer)
                .governor(SignificanceLadderGovernor::single_step(0.6))
                .build()
        } else {
            builder.policy(Policy::SignificanceAgnostic).build()
        };
        let group = rt.create_group("series", 0.5);
        let outputs: Arc<Vec<AtomicU64>> =
            Arc::new((0..TASKS).map(|_| AtomicU64::new(0)).collect());
        for i in 0..TASKS {
            let (exact, approx) = (outputs.clone(), outputs.clone());
            rt.task(move || exact[i].store(series(i, TERMS).to_bits(), Ordering::Relaxed))
                .approx(move || approx[i].store(series(i, TERMS / 3).to_bits(), Ordering::Relaxed))
                .significance(((i % 9) + 1) as f64 / 10.0)
                .group(&group)
                .spawn();
        }
        rt.wait_group(&group);
        let values: Vec<f64> = outputs
            .iter()
            .map(|slot| f64::from_bits(slot.load(Ordering::Relaxed)))
            .collect();
        (rt.energy_report().reading().joules, values)
    };
    // Joules follow measured busy time, and a preemption only ever inflates
    // it: alternate the variants and compare each one's cheapest run.
    let (mut exact, mut dvfs) = (run(false), run(true));
    for _ in 0..6 {
        let next = run(false);
        if next.0 < exact.0 {
            exact = next;
        }
        let next = run(true);
        if next.0 < dvfs.0 {
            dvfs = next;
        }
    }
    let error = relative_error(&exact.1, &dvfs.1);
    assert!(
        dvfs.0 < exact.0,
        "significance+DVFS modelled {} J, exact-only {} J (relative error {error})",
        dvfs.0,
        exact.0
    );
    assert!(
        error > 0.0 && error < 0.01,
        "half the tasks ran a third of the series: relative error {error}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Dilating a fixed amount of work by running it at a lower frequency
    /// never decreases the total modelled energy once static power is
    /// accounted over the dilated runtime: with the testbed coefficients the
    /// static term (21 W/socket) dominates the dynamic savings
    /// (≤ 1.4 · 6.6 W per core) at every ratio.
    #[test]
    fn dilated_runtimes_never_decrease_modelled_energy_at_fixed_work(
        ratio in 0.05f64..=1.0,
        work_seconds in 0.001f64..100.0,
    ) {
        let model = PowerModel {
            sockets: 1,
            cores_per_socket: 1,
            static_watts_per_socket: 21.0,
            active_watts_per_core: 6.6,
            idle_watts_per_core: 1.4,
        };
        let scale = FrequencyScale::new(ratio);
        let dilated = work_seconds * scale.time_dilation();
        // The work runs alone on the core: wall time equals (dilated) busy
        // time, priced by the frequency-scaled model.
        let scaled_energy = PowerModel {
            active_watts_per_core: scale.scaled_active_watts(&model),
            ..model
        }
        .energy_breakdown(dilated, dilated)
        .total();
        let nominal_energy = model.energy_breakdown(work_seconds, work_seconds).total();
        prop_assert!(
            scaled_energy >= nominal_energy - 1e-9,
            "ratio {ratio}: dilated run modelled {scaled_energy} J < nominal {nominal_energy} J"
        );
    }

    /// The dynamic-only term, by contrast, never increases when frequency
    /// drops (for any power exponent ≥ 1): that asymmetry — dynamic savings
    /// vs static cost — is exactly the race-to-idle trade-off the report
    /// models.
    #[test]
    fn frequency_scaling_never_increases_dynamic_energy_per_work(
        ratio in 0.05f64..=1.0,
        exponent in 1.0f64..3.0,
    ) {
        let scale = FrequencyScale::with_exponent(ratio, exponent);
        prop_assert!(scale.dynamic_energy_factor() <= 1.0 + 1e-12);
    }
}
