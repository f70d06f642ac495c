//! Chaos battery: kill and restart 30% of the fleet mid-storm, at 2×
//! capacity, with 15% transient panics — and prove nothing is lost
//! silently.
//!
//! Three phases on **one** simulator (state carries over, like a real
//! fleet):
//!
//! * **pre** — comfortable load, near-everything completes, baseline p99;
//! * **storm** — 2× offered load, 30% of nodes crash and later restart.
//!   The books must still balance with the crash losses in their own
//!   ledger (`offered == completed + violations + shed + lost_to_crash`),
//!   and significance-1.0 work must never be shed;
//! * **post** — load returns to comfortable; tail latency must recover.
//!
//! The 15% panic rate applies to every phase, so the pre and post baselines
//! include the same retry tail and the p99 comparison is apples-to-apples.

mod common;

use sig_cluster::{crash_storm, ClusterConfig, ClusterSim, NodeFaultKind};
use sig_serving::ServingStats;

const NODES: usize = 10;

fn chaos_sim() -> ClusterSim {
    let config = ClusterConfig {
        nodes: NODES,
        seed: 1337,
        panic_per_mille: 150,
        ..ClusterConfig::default()
    };
    ClusterSim::new(config, common::classes())
}

fn shed_of(stats: &ServingStats, class: usize) -> u64 {
    stats.shed_by_class.get(class).copied().unwrap_or(0)
}

#[test]
fn storm_books_balance_and_tail_recovers() {
    let mut sim = chaos_sim();

    // Pre: 10 nodes × 2 workers at 1 ms ⇒ 20 req/ms capacity; offer 4/ms.
    // With 15% transient panics and 2 retries, ~0.3% of requests exhaust
    // their retries — calm, but not perfect.
    let pre = sim.run(&common::uniform_schedule(2_000, 250_000), &[]);
    assert!(pre.balanced());
    assert!(pre.goodput() > 0.98, "pre-storm goodput {}", pre.goodput());
    assert_eq!(pre.lost_to_crash, 0);
    assert_eq!(pre.stats.shed, 0, "calm load sheds nothing");
    let pre_p99 = pre.stats.latency.quantile(0.99);

    // Storm: 2× capacity (one arrival each 25 µs); 30% of the fleet down at
    // 5 ms, back at 40 ms.
    let faults = crash_storm(99, NODES, 0.3, 5_000_000, 40_000_000);
    assert_eq!(
        faults
            .iter()
            .filter(|f| f.kind == NodeFaultKind::Down)
            .count(),
        3,
        "30% of a 10-node fleet is 3 victims"
    );
    let storm = sim.run(&common::uniform_schedule(4_000, 25_000), &faults);

    assert!(
        storm.balanced(),
        "storm books must balance: offered {} vs completed {} + violations {} + shed {} + lost {}",
        storm.stats.offered,
        storm.stats.completed,
        storm.stats.violations(),
        storm.stats.shed,
        storm.lost_to_crash
    );
    assert!(storm.lost_to_crash > 0, "crashes at 2× load lose work");
    assert_eq!(
        storm.lost_by_class.iter().sum::<u64>(),
        storm.lost_to_crash,
        "per-class loss ledger sums to the total"
    );
    assert_eq!(
        shed_of(&storm.stats, common::CRITICAL),
        0,
        "significance 1.0 is never shed, even mid-storm"
    );
    assert!(storm.max_shed_significance < 1.0);
    assert!(
        storm.stats.retries > 0,
        "15% panics must drive visible retries"
    );
    assert!(
        storm.stats.completed > storm.stats.offered / 4,
        "the fleet keeps serving through the storm"
    );

    // Post: calm load on the storm-scarred simulator; the tail recovers.
    let post = sim.run(&common::uniform_schedule(2_000, 250_000), &[]);
    assert!(post.balanced());
    assert_eq!(post.lost_to_crash, 0, "no crashes after the storm");
    let post_p99 = post.stats.latency.quantile(0.99);
    let storm_p99 = storm.stats.latency.quantile(0.99);
    assert!(
        post_p99 <= storm_p99,
        "post-storm p99 {post_p99} should not exceed storm p99 {storm_p99}"
    );
    assert!(
        post_p99 <= pre_p99.saturating_mul(2),
        "post-storm p99 {post_p99} must recover to within 2× of pre-storm {pre_p99}"
    );
    assert!(
        post.goodput() > 0.98,
        "calm load after the storm completes (goodput {})",
        post.goodput()
    );
}

#[test]
fn fleet_survives_total_blackout_of_one_wave() {
    // Harsher variant: the wave goes down *before* the load arrives and the
    // fleet must reroute around it; when it returns, capacity recovers.
    let mut sim = chaos_sim();
    let faults = crash_storm(5, NODES, 0.3, 0, 10_000_000);
    let report = sim.run(&common::uniform_schedule(1_500, 50_000), &faults);
    assert!(report.balanced());
    // Down-at-zero nodes hold nothing yet: the dispatcher routes around
    // them, so nothing is lost to the crash itself.
    assert_eq!(
        report.lost_to_crash, 0,
        "crashing an idle node loses nothing"
    );
    assert_eq!(shed_of(&report.stats, common::CRITICAL), 0);
    assert!(report.goodput() > 0.5);
}

/// Crash → restart → retry-reroute under a cap that bites: the three ways a
/// node's routing row moves other than by its own queue — down, up again
/// with a fresh waterfill, and a retry landing on a different node from the
/// one it panicked on. Debug builds compare the kernel's maintained route
/// table against a from-scratch snapshot of the fleet before every routing
/// decision, so this run is that oracle's directed case.
#[test]
fn crash_restart_and_retry_reroute_under_a_tight_cap() {
    let mut config = ClusterConfig {
        nodes: NODES,
        seed: 77,
        panic_per_mille: 150,
        ..ClusterConfig::default()
    };
    // Idle floors (3 W a node), one 6.1 W busy slot each, and a second slot
    // for three of the ten: a full-power tier and a frequency-capped one.
    config.cap.cap_watts = NODES as f64 * (3.0 + 6.1) + 20.0;
    let mut sim = ClusterSim::new(config, common::classes());
    let capped = sim.nodes().iter().filter(|n| n.freq_cap() < 1.0).count();
    assert!(capped > 0 && capped < NODES, "the cap splits the fleet");

    let pre = sim.run(&common::uniform_schedule(1_000, 100_000), &[]);
    assert!(pre.balanced());
    assert_eq!(pre.lost_to_crash, 0);

    // The victims go down at 5 ms and come back at 30 ms of a 100 ms storm,
    // so both transitions happen under load and retries straddle them.
    let faults = crash_storm(4, NODES, 0.3, 5_000_000, 30_000_000);
    let victims: Vec<usize> = faults
        .iter()
        .filter(|f| f.kind == NodeFaultKind::Down)
        .map(|f| f.node)
        .collect();
    let storm = sim.run(&common::uniform_schedule(4_000, 25_000), &faults);
    assert!(storm.balanced());
    assert!(storm.lost_to_crash > 0 && storm.stats.retries > 0);
    assert_eq!(shed_of(&storm.stats, common::CRITICAL), 0);
    assert!(sim.nodes().iter().all(|n| n.is_up()), "victims restarted");
    for &victim in &victims {
        assert!(
            sim.nodes()[victim].book().completed > 0,
            "restarted node {victim} is routed to again"
        );
    }

    let post = sim.run(&common::uniform_schedule(1_000, 100_000), &[]);
    assert!(post.balanced());
    assert_eq!(post.lost_to_crash, 0);
    assert!(post.goodput() > 0.9, "goodput {}", post.goodput());
}
