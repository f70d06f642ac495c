//! Cluster extension of the governor conformance kit: every shipped
//! governor configuration runs **inside a node** — under the environment
//! dispatch cap the power-cap controller re-targets, fleet overload and a
//! tight global watt budget — and must preserve its per-node invariants:
//!
//! * critical (accurate) work is never scaled below nominal, cap or no cap;
//! * dynamic energy never exceeds the nominal baseline at fixed work
//!   (downscaling can only save);
//! * the node environment's busy ledger equals exactly what the kernel
//!   recorded (no time lost in the seqlock shards);
//! * the global cap holds and the phase books balance.
//!
//! Add new governors to `all_governors` in `tests/governor_conformance.rs`
//! at the workspace root AND here: a governor that passes the single-node
//! kit but misbehaves under a live frequency-cap re-target shows up here.

mod common;

use std::sync::Arc;

use sig_cluster::{ClusterConfig, ClusterSim};
use sig_core::{
    AdaptiveGovernor, FrequencyScale, Governor, NominalGovernor, SignificanceLadderGovernor,
};
use sig_energy::SleepState;

type GovernorCase = (&'static str, fn() -> Arc<dyn Governor>);

/// The three shipped governor types in their five shipped configurations
/// (the power-cap controller re-targets each node environment's dispatch
/// cap, so the one clamp rule is exercised under every row for free).
fn all_governors() -> Vec<GovernorCase> {
    vec![
        ("nominal", || Arc::new(NominalGovernor)),
        ("single-step", || {
            Arc::new(SignificanceLadderGovernor::single_step(0.6))
        }),
        ("significance-ladder", || {
            Arc::new(SignificanceLadderGovernor::with_ladder(4, 0.4))
        }),
        ("race-to-idle", || {
            Arc::new(AdaptiveGovernor::race_to_idle(FrequencyScale::ladder(
                4, 0.4,
            )))
        }),
        ("adaptive", || {
            Arc::new(AdaptiveGovernor::new(
                &ClusterConfig::default().node_model,
                SleepState::deep(),
                FrequencyScale::ladder(4, 0.4),
                4,
                1e-3,
            ))
        }),
    ]
}

#[test]
fn every_governor_preserves_node_invariants_under_cap_pressure() {
    for (name, make) in all_governors() {
        let mut config = ClusterConfig {
            seed: 7,
            panic_per_mille: 30,
            ..ClusterConfig::default()
        };
        // 4-node fleet: idle floor 12 W; 25 W affords two busy slots — the
        // fleet is power-starved while ~3× overloaded.
        config.cap.cap_watts = 25.0;
        let nominal_watts = config.node_model.active_watts_per_core;
        let mut sim = ClusterSim::with_governors(config, common::classes(), |_| make());
        let report = sim.run(&common::uniform_schedule(1_500, 150_000), &[]);

        assert!(report.balanced(), "{name}: phase books must balance");
        assert_eq!(
            report.accurate_scaled, 0,
            "{name}: cap pressure scaled a critical (accurate) dispatch"
        );
        assert!(
            report.violation_joules <= 1e-9,
            "{name}: feasible cap violated by {} J",
            report.violation_joules
        );
        assert!(report.max_shed_significance < 1.0, "{name}: shed critical");

        for node in sim.nodes() {
            let totals = node.env_totals();
            assert_eq!(
                totals.busy_nanos,
                node.recorded_busy_nanos(),
                "{name}: node {} environment lost busy time",
                node.index()
            );
            // Dynamic energy bound: every executed step has
            // dynamic_energy_factor ≤ 1, so modelled dynamic energy never
            // exceeds busy time priced at nominal active watts (small slack
            // for per-task nanojoule rounding).
            let nominal_bound = totals.busy_nanos as f64 * nominal_watts * (1.0 + 1e-9) + 10_000.0;
            assert!(
                (totals.dynamic_nanojoules as f64) <= nominal_bound,
                "{name}: node {} dynamic energy {} nJ above nominal bound {} nJ",
                node.index(),
                totals.dynamic_nanojoules,
                nominal_bound
            );
            // Dilation only ever extends modelled time.
            assert!(
                totals.modelled_busy_nanos >= totals.busy_nanos,
                "{name}: node {} modelled busy below measured",
                node.index()
            );
        }
    }
}

#[test]
fn capped_nodes_spend_less_dynamic_energy_than_uncapped() {
    // The point of the frequency cap as an energy optimisation: the same
    // ladder governor, the same offered load, with and without a tight cap
    // — capped nodes must not spend *more* dynamic energy per busy
    // nanosecond.
    let run = |cap_watts: f64| {
        let mut config = ClusterConfig {
            seed: 13,
            ..ClusterConfig::default()
        };
        config.cap.cap_watts = cap_watts;
        let mut sim = ClusterSim::with_governors(config, common::classes(), |_| {
            Arc::new(SignificanceLadderGovernor::with_ladder(4, 0.4))
        });
        sim.run(&common::uniform_schedule(1_200, 200_000), &[]);
        let (mut dynamic, mut busy) = (0u64, 0u64);
        for node in sim.nodes() {
            let totals = node.env_totals();
            dynamic += totals.dynamic_nanojoules;
            busy += totals.busy_nanos;
        }
        dynamic as f64 / busy.max(1) as f64
    };
    let capped = run(25.0);
    let uncapped = run(f64::INFINITY);
    assert!(
        capped <= uncapped * (1.0 + 1e-9),
        "capped fleet spends {capped} W dynamic vs uncapped {uncapped} W"
    );
}
