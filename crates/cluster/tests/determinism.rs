//! Determinism replay battery: a cluster run is a pure function of
//! `(config, classes, schedule, faults, seed)`.
//!
//! Every assertion here compares [`ClusterPhaseReport::fingerprint`]s —
//! one-line summaries that render each float as its exact IEEE-754 bit
//! pattern, so two runs agree **iff** they are bit-identical: same event
//! order, same retry jitter, same power integrals, same quantiles.

mod common;

use sig_cluster::{crash_storm, ClusterConfig, ClusterPhaseReport, ClusterSim, DispatchPolicy};

/// One full three-phase run (warm, storm with crashes + panics under a tight
/// cap, recovery), fingerprinted phase-by-phase.
fn full_run(seed: u64, nodes: usize, policy: DispatchPolicy) -> String {
    let mut config = ClusterConfig {
        nodes,
        seed,
        policy,
        panic_per_mille: 30,
        ..ClusterConfig::default()
    };
    // Idle floor is 3 W per node; leave room for roughly half the fleet's
    // busy slots so the cap controller actually bites.
    config.cap.cap_watts = nodes as f64 * 3.0 + (nodes as f64) * 6.1;
    let mut sim = ClusterSim::new(config, common::classes());
    let storm = crash_storm(seed, nodes, 0.3, 2_000_000, 20_000_000);
    let phases: Vec<ClusterPhaseReport> = vec![
        sim.run(&common::uniform_schedule(300, 100_000), &[]),
        sim.run(&common::uniform_schedule(600, 50_000), &storm),
        sim.run(&common::uniform_schedule(300, 100_000), &[]),
    ];
    for (i, phase) in phases.iter().enumerate() {
        assert!(phase.balanced(), "phase {i} books must balance");
    }
    phases
        .iter()
        .map(ClusterPhaseReport::fingerprint)
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn same_seed_is_byte_identical_small_fleet() {
    let a = full_run(11, 6, DispatchPolicy::SignificanceAware);
    let b = full_run(11, 6, DispatchPolicy::SignificanceAware);
    assert_eq!(a, b, "two runs of the same seed must be byte-identical");
}

#[test]
fn same_seed_is_byte_identical_large_fleet() {
    let a = full_run(23, 24, DispatchPolicy::SignificanceAware);
    let b = full_run(23, 24, DispatchPolicy::SignificanceAware);
    assert_eq!(a, b, "determinism must not degrade with fleet size");
}

#[test]
fn same_seed_is_byte_identical_round_robin() {
    let a = full_run(7, 8, DispatchPolicy::RoundRobin);
    let b = full_run(7, 8, DispatchPolicy::RoundRobin);
    assert_eq!(a, b);
}

#[test]
fn different_seeds_diverge() {
    // Panics and storm membership are seeded; two seeds must not collide on
    // a fingerprint that includes exact joule bit patterns.
    let a = full_run(1, 6, DispatchPolicy::SignificanceAware);
    let b = full_run(2, 6, DispatchPolicy::SignificanceAware);
    assert_ne!(a, b, "distinct seeds should produce distinct histories");
}

#[test]
fn smoke_scale_replays_identically() {
    // The CI smoke configuration: tiny fleets, short schedules — the gate
    // that runs on every push must itself be replay-stable.
    for nodes in [4, 12] {
        let a = full_run(42, nodes, DispatchPolicy::SignificanceAware);
        let b = full_run(42, nodes, DispatchPolicy::SignificanceAware);
        assert_eq!(a, b, "smoke fleet of {nodes} nodes must replay");
    }
}

/// A 24-node fleet under a cap that affords one busy slot a node plus a
/// second on a third of them, offered 1.7× what those slots serve, 50‰
/// panics, 30% of the nodes down from 4 ms to 14 ms — then a calm phase on
/// the scarred fleet. Every ledger moves: sheds, downgrades, retries, late
/// and lost requests.
fn pinned_storm(policy: DispatchPolicy) -> String {
    let nodes = 24;
    let mut config = ClusterConfig {
        nodes,
        seed: 23,
        policy,
        panic_per_mille: 50,
        ..ClusterConfig::default()
    };
    config.cap.cap_watts = nodes as f64 * (3.0 + 6.1) + 50.0;
    let mut sim = ClusterSim::new(config, common::classes());
    let storm = crash_storm(23, nodes, 0.3, 4_000_000, 14_000_000);
    let phases = [
        sim.run(&common::uniform_schedule(3_000, 12_500), &storm),
        sim.run(&common::uniform_schedule(600, 100_000), &[]),
    ];
    assert!(phases.iter().all(ClusterPhaseReport::balanced));
    phases.map(|phase| phase.fingerprint()).join("\n")
}

/// [`pinned_storm`]'s fingerprints under both dispatch policies, as captured
/// at the commit before the event queue grew its arrival lane, the route
/// table became incremental and request slots were recycled: any reordering
/// of events, draws or float sums shows up here as an ordinary tier-1
/// failure, not only in CI's `cmp` of the bench reports.
#[test]
fn seeded_storm_replays_the_pinned_fingerprints() {
    assert_eq!(
        pinned_storm(DispatchPolicy::SignificanceAware),
        PINNED_SIG_AWARE
    );
    assert_eq!(pinned_storm(DispatchPolicy::RoundRobin), PINNED_ROUND_ROBIN);
}

const PINNED_SIG_AWARE: &str = "\
offered=3000 completed=1982 shed=475 late=449 retries_exhausted=0 budget_exhausted=17 lost=77 \
downgraded=1310 retries=24 p50=10223615 p99=19922943 wall=59000000 joules=402a2f88e538cbc5 \
power=40296a7ae5eaa1ab violation=3f21b68a795dd326 max_shed_sig=3fd3333333333333 \
accurate_scaled=0\n\
offered=600 completed=600 shed=0 late=0 retries_exhausted=0 budget_exhausted=0 lost=0 \
downgraded=288 retries=32 p50=1015807 p99=1638399 wall=61000000 joules=401ba19526c3384e \
power=401b04248539a3b6 violation=0000000000000000 max_shed_sig=bff0000000000000 \
accurate_scaled=0";
const PINNED_ROUND_ROBIN: &str = "\
offered=3000 completed=1404 shed=556 late=947 retries_exhausted=0 budget_exhausted=31 lost=62 \
downgraded=1249 retries=29 p50=5636095 p99=19922943 wall=59000000 joules=4028ca59e1eb0e78 \
power=40286aa2a1f00bc7 violation=0000000000000000 max_shed_sig=3fe6666666666666 \
accurate_scaled=0\n\
offered=600 completed=600 shed=0 late=0 retries_exhausted=0 budget_exhausted=0 lost=0 \
downgraded=261 retries=32 p50=1015807 p99=1638399 wall=61000000 joules=401bb751c4b290d0 \
power=401b160a190b1a5e violation=0000000000000000 max_shed_sig=bff0000000000000 \
accurate_scaled=0";

/// `run` documents an ascending schedule but accepts any: an out-of-order
/// one replays exactly as its stable-sorted form — in the first phase and,
/// with a non-zero phase start, under a crash storm in the second.
#[test]
fn shuffled_schedule_replays_as_its_sorted_form() {
    let sim = || {
        let mut config = ClusterConfig {
            nodes: 8,
            seed: 5,
            panic_per_mille: 30,
            ..ClusterConfig::default()
        };
        config.cap.cap_watts = 8.0 * 9.1;
        ClusterSim::new(config, common::classes())
    };
    let (mut sorted_sim, mut shuffled_sim) = (sim(), sim());
    let storm = crash_storm(5, 8, 0.3, 2_000_000, 12_000_000);
    let phases = [
        (common::uniform_schedule(400, 90_000), &[][..]),
        (common::uniform_schedule(800, 40_000), &storm[..]),
    ];
    for (seed, (schedule, faults)) in phases.iter().enumerate() {
        assert_eq!(shuffled_sim.now() > 0, seed > 0, "phase start");
        // Seeded Fisher–Yates.
        let mut mixed = schedule.clone();
        let mut rng = sig_serving::SplitMix64::new(seed as u64 + 1);
        for i in (1..mixed.len()).rev() {
            mixed.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        assert_ne!(&mixed, schedule);
        let expected = sorted_sim.run(schedule, faults);
        let got = shuffled_sim.run(&mixed, faults);
        assert!(got.balanced());
        assert_eq!(got.fingerprint(), expected.fingerprint());
    }
}

/// A default 4-node fleet under a fleet cap of `cap_watts`, offered 900
/// arrivals `spacing` nanoseconds apart with no fault: the cap holds the
/// fleet's draw below its busy slots, so the fleet's own admission
/// (`PowerCapController::admit`) sheds, the branch that neither the golden
/// cluster matrix nor the benchmark reaches (every cell there sheds 0 at
/// fleet scope).
fn overloaded_fleet(seed: u64, cap_watts: f64, spacing: u64) -> String {
    let mut config = ClusterConfig {
        seed,
        ..ClusterConfig::default()
    };
    assert_eq!(config.nodes, 4);
    config.cap.cap_watts = cap_watts;
    let mut sim = ClusterSim::new(config, common::classes());
    let phase = sim.run(&common::uniform_schedule(900, spacing), &[]);
    assert!(phase.balanced());
    assert!(
        phase.stats.shed > 0,
        "seed {seed}, {cap_watts} W: the fleet must shed"
    );
    phase.fingerprint()
}

/// [`overloaded_fleet`]'s fingerprints, captured at the commit before the
/// simulator cached each scale's power factor. Every shed in them is the
/// fleet's: a scratch counter in the fleet's shed branch read 517, 505 and
/// 413, equal to each fingerprint's `shed`.
#[test]
fn overloaded_fleets_replay_their_pinned_shed_fingerprints() {
    let pinned = [
        (
            2,
            26.0,
            40_000,
            "offered=900 completed=42 shed=517 late=341 retries_exhausted=0 budget_exhausted=0 \
             lost=0 downgraded=70 retries=0 p50=10223615 p99=19400000 wall=57000000 \
             joules=3ff4c55af78c2ce4 power=3ff494340ecb5e84 violation=0000000000000000 \
             max_shed_sig=3fe6666666666666 accurate_scaled=0",
        ),
        (
            3,
            34.0,
            60_000,
            "offered=900 completed=73 shed=505 late=322 retries_exhausted=0 budget_exhausted=0 \
             lost=0 downgraded=73 retries=0 p50=11010047 p99=19980000 wall=75000000 \
             joules=400119ee9870f1fe power=4000f1fefb544a9a violation=0000000000000000 \
             max_shed_sig=3fe6666666666666 accurate_scaled=0",
        ),
        (
            4,
            42.0,
            80_000,
            "offered=900 completed=160 shed=413 late=327 retries_exhausted=0 budget_exhausted=0 \
             lost=0 downgraded=155 retries=0 p50=14155775 p99=20000000 wall=93000000 \
             joules=4008ff485742ee22 power=4008addfe5c3987b violation=0000000000000000 \
             max_shed_sig=3fe6666666666666 accurate_scaled=0",
        ),
    ];
    for (seed, cap_watts, spacing, fingerprint) in pinned {
        assert_eq!(
            overloaded_fleet(seed, cap_watts, spacing),
            fingerprint,
            "seed {seed}, {cap_watts} W, {spacing} ns apart"
        );
    }
}
