//! Cross-tier accounting under an energy budget, through a crash storm.
//!
//! Two tiers, one identity discipline:
//!
//! * **cluster** — a budgeted fleet takes a 2× overload storm with 30% of
//!   its nodes crashing and restarting mid-phase. Every phase's request
//!   books must balance (`offered == completed + violations + shed +
//!   lost_to_crash`), and the budget controller's accounted spend must equal
//!   the summed per-node energy ledgers re-read at its last observation
//!   instant **bit for bit** — crashes included, because each node's ledger
//!   survives restarts — and the fleet reading's breakdown must sum to its
//!   joules;
//! * **serving** — a budgeted single-node simulator under the same style of
//!   overload with transient panics: books balance every phase, and the
//!   controller's spend never exceeds the environment's cumulative bill
//!   (its observations lag the bill by at most one sampling interval, never
//!   lead it).

mod common;

use sig_cluster::{crash_storm, ClusterConfig, ClusterSim};
use sig_core::{ExecutionEnv, NominalGovernor, PowerModel, TransitionCost};
use sig_energy::{BudgetConfig, BudgetTarget};
use sig_serving::{SimConfig, Simulator};
use std::sync::Arc;

const NODES: usize = 10;

/// A 30 W fleet envelope: above the 10-node idle floor (30 × 1 W static +
/// idle), comfortably below the fleet's ~120 W all-out draw, so the budget
/// genuinely actuates the watt cap without starving liveness.
fn budgeted_sim() -> ClusterSim {
    let config = ClusterConfig {
        nodes: NODES,
        seed: 1337,
        panic_per_mille: 100,
        budget: Some(BudgetConfig::new(BudgetTarget::WattEnvelope {
            watts: 30.0,
        })),
        ..ClusterConfig::default()
    };
    ClusterSim::new(config, common::classes())
}

/// The cluster-side identity, asserted bit-for-bit: the controller's spend
/// is exactly the summed per-node reading at its last observation.
fn assert_ledger_identity(sim: &ClusterSim) {
    let budget = sim.budget().expect("budget configured");
    let observed = budget
        .last_observation()
        .expect("the budget loop has observed by now");
    let spent = observed.joules;
    // Observation times are virtual-tick instants: recover the integer
    // nanosecond the controller sampled at (exact for any sim shorter than
    // 2^53 ns) and re-read the ledgers there.
    let at = (observed.elapsed_seconds * 1e9).round() as u64;
    let reread = sim.fleet_reading(at);
    assert_eq!(
        spent.to_bits(),
        reread.joules.to_bits(),
        "budget spend {spent} J diverges from the summed per-node ledgers \
         {} J re-read at its observation instant",
        reread.joules
    );
    assert_eq!(
        observed.busy_core_seconds.to_bits(),
        reread.busy_core_seconds.to_bits(),
        "observed busy-core-seconds diverge from the summed ledgers"
    );
    assert_eq!(budget.spent_joules().to_bits(), spent.to_bits());
    let total = reread.breakdown.total();
    assert!(
        (total - reread.joules).abs() <= 1e-9 * reread.joules.abs(),
        "fleet breakdown sums to {total} J, its joules read {} J",
        reread.joules
    );
    assert!(reread.breakdown.dynamic_joules > 0.0);
}

#[test]
fn cluster_budget_books_balance_through_a_crash_storm() {
    let mut sim = budgeted_sim();

    // Pre: comfortable load. Books balance, the loop is live, identity holds.
    let pre = sim.run(&common::uniform_schedule(2_000, 250_000), &[]);
    assert!(pre.balanced(), "pre-storm books must balance");
    assert_eq!(pre.lost_to_crash, 0);
    assert_ledger_identity(&sim);
    let spent_pre = sim.budget().unwrap().spent_joules();
    assert!(spent_pre > 0.0, "the budget loop observed no energy");

    // Storm: 2× capacity while 30% of the fleet crashes at 5 ms and
    // restarts at 40 ms. Crash losses get their own ledger line; the energy
    // ledgers (and so the budget's accounting) survive the restarts.
    let faults = crash_storm(99, NODES, 0.3, 5_000_000, 40_000_000);
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
    assert!(
        storm.lost_to_crash > 0,
        "a 2× storm with crashes loses work"
    );
    assert_ledger_identity(&sim);
    let spent_storm = sim.budget().unwrap().spent_joules();
    assert!(
        spent_storm > spent_pre,
        "cumulative spend must grow through the storm"
    );

    // The budget only ever tightens the configured cap, and with a finite
    // envelope the actuated cap must be at (or below) the planned rate.
    let setpoint = sim.budget().expect("budget configured").setpoint();
    let cap_now = sim.cap_controller().config().cap_watts;
    assert!(
        cap_now <= setpoint.watt_cap + 1e-9,
        "actuated cap {cap_now} W above the planned rate {} W",
        setpoint.watt_cap
    );
    assert!((0.0..=1.0).contains(&setpoint.austerity));

    // Post: calm load; the books and the identity still hold on the
    // storm-scarred fleet.
    let post = sim.run(&common::uniform_schedule(2_000, 250_000), &[]);
    assert!(post.balanced());
    assert_eq!(post.lost_to_crash, 0);
    assert_ledger_identity(&sim);
    assert!(sim.budget().unwrap().spent_joules() > spent_storm);
}

#[test]
fn serving_budget_books_balance_and_spend_never_leads_the_bill() {
    let config = SimConfig {
        panic_per_mille: 150,
        seed: 0xacc7,
        budget: Some(BudgetConfig::new(BudgetTarget::TotalJoules {
            joules: 40.0,
            horizon_seconds: 4.0,
        })),
        ..SimConfig::default()
    };
    let workers = config.workers;
    let env = ExecutionEnv::new(
        PowerModel::for_host(),
        Arc::new(NominalGovernor),
        None,
        TransitionCost::free(),
        workers,
    );
    let mut sim = Simulator::new(config, common::classes(), env);

    // Pre / storm / post on one simulator: 4 workers × 1 ms ⇒ 4000 rps
    // capacity; the storm offers 2×.
    let mut billed = 0.0f64;
    for (name, count, spacing) in [
        ("pre", 2_000usize, 400_000u64),
        ("storm", 6_000, 125_000),
        ("post", 2_000, 400_000),
    ] {
        let report = sim.run(&common::uniform_schedule(count, spacing));
        assert!(
            report.stats.balanced(),
            "{name}: offered {} != completed {} + violations {} + shed {}",
            report.stats.offered,
            report.stats.completed,
            report.stats.violations(),
            report.stats.shed
        );
        billed += report.joules;
        let spent = sim.budget().expect("budget configured").spent_joules();
        assert!(spent > 0.0, "{name}: the budget loop observed no energy");
        assert!(
            spent <= billed + 1e-9,
            "{name}: budget accounted {spent} J, environment billed only {billed} J \
             -- the controller's view must lag the bill, never lead it"
        );
    }
    let setpoint = sim.budget().expect("budget configured").setpoint();
    assert!((0.0..=1.0).contains(&setpoint.austerity));
}
