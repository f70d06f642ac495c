//! Cluster matrix: many runtimes, one energy budget.
//!
//! The bit-deterministic [`ClusterSim`] over fleet sizes × global watt caps
//! × dispatch policies, on the **identical seeded arrival schedule** per
//! fleet, reporting goodput, tail latency, joules per completed request and
//! the cap-violation integral.
//!
//! The headline is dispatch policy under a *tight* cap: there the
//! controller carves the fleet into full-power and frequency-capped nodes;
//! the significance-aware router sends critical work to the fast half and
//! degraded work to the cheap half, while round-robin queues critical
//! requests behind dilated background work.

use sig_cluster::{ClusterConfig, ClusterPhaseReport, ClusterSim, DispatchPolicy};
use sig_serving::ArrivalPattern;

use super::workload::{classes, with_classes};
use crate::json::{fixed, Json};

const FLEETS: [usize; 3] = [6, 24, 96];
const WORKERS_PER_NODE: usize = 2;
/// Tier-0 service time.
const SERVICE_NANOS: u64 = 1_000_000;
/// Offered load relative to the *uncapped* fleet's tier-0 capacity.
const LOAD_FACTOR: f64 = 1.1;
const REQUESTS_PER_NODE: usize = 300;
/// Transient-fault rate, per mille.
const PANIC_PER_MILLE: u16 = 30;
const SEED: u64 = 0xc1a5;
/// Full draw of one default node (2 W static + 2 × 6.6 W active).
const NODE_FULL_WATTS: f64 = 15.2;
/// Cap levels as fractions of the fleet's full draw: generous leaves every
/// worker powered; tight affords ~75% of the busy slots, forcing the
/// controller to carve the fleet into full and frequency-capped halves.
const CAP_LEVELS: [(&str, f64); 2] = [("generous", 1.3), ("tight", 0.8)];
const POLICIES: [DispatchPolicy; 2] = [
    DispatchPolicy::SignificanceAware,
    DispatchPolicy::RoundRobin,
];

/// One fleet × cap × policy run.
pub struct Cell {
    /// Fleet size.
    pub nodes: usize,
    /// `"generous"` or `"tight"`.
    pub cap_name: &'static str,
    /// The global cap.
    pub cap_watts: f64,
    /// The router.
    pub policy: DispatchPolicy,
    /// What the simulator reported.
    pub report: ClusterPhaseReport,
}

impl Cell {
    fn label(&self) -> String {
        format!("n{}_{}_{}", self.nodes, self.cap_name, self.policy.name())
    }
}

/// Every cell, fleets outermost, then caps, then policies.
pub struct Report {
    /// The matrix, row-major.
    pub cells: Vec<Cell>,
}

/// Replay the matrix.
pub fn run() -> Report {
    let mut cells = Vec::new();
    for nodes in FLEETS {
        // Poisson arrivals with per-arrival class picks, identical across
        // caps and policies for this fleet.
        let schedule_seed = SEED ^ (nodes as u64);
        let capacity_rps = (nodes * WORKERS_PER_NODE) as f64 * 1e9 / SERVICE_NANOS as f64;
        let offsets = ArrivalPattern::Poisson {
            rate_per_sec: capacity_rps * LOAD_FACTOR,
        }
        .schedule(schedule_seed, nodes * REQUESTS_PER_NODE);
        let schedule = with_classes(offsets, schedule_seed ^ 0xc1a5_5e5e_ed00_0002);
        for (cap_name, cap_fraction) in CAP_LEVELS {
            for policy in POLICIES {
                let mut config = ClusterConfig {
                    nodes,
                    workers_per_node: WORKERS_PER_NODE,
                    base_service_nanos: SERVICE_NANOS,
                    panic_per_mille: PANIC_PER_MILLE,
                    seed: SEED,
                    policy,
                    ..ClusterConfig::default()
                };
                let cap_watts = nodes as f64 * NODE_FULL_WATTS * cap_fraction;
                config.cap.cap_watts = cap_watts;
                let mut sim = ClusterSim::new(config, classes(true, SERVICE_NANOS));
                cells.push(Cell {
                    nodes,
                    cap_name,
                    cap_watts,
                    policy,
                    report: sim.run(&schedule, &[]),
                });
            }
        }
    }
    Report { cells }
}

/// Books balance, the cap holds and critical work is never shed in every
/// cell; under every tight cap significance-aware routing beats round-robin
/// on joules/completed at equal-or-better goodput.
pub fn invariant_errors(report: &Report) -> Vec<String> {
    let mut errors = Vec::new();
    for cell in &report.cells {
        let label = cell.label();
        if !cell.report.balanced() {
            errors.push(format!("{label}: fleet accounting identity broken"));
        }
        if cell.report.violation_joules > 1e-9 {
            errors.push(format!(
                "{label}: cap violated by {} J",
                cell.report.violation_joules
            ));
        }
        if cell.report.max_shed_significance >= 1.0 {
            errors.push(format!("{label}: a significance-1.0 request was shed"));
        }
    }
    // Policies are the innermost axis: each pair is one fleet under one cap.
    for pair in report.cells.chunks(POLICIES.len()) {
        let (aware, rr) = (&pair[0], &pair[1]);
        if aware.cap_name != "tight" {
            continue;
        }
        let (aware_jpc, rr_jpc) = (
            aware.report.joules_per_completed(),
            rr.report.joules_per_completed(),
        );
        if aware_jpc >= rr_jpc {
            errors.push(format!(
                "n{} tight: sig-aware joules/completed {aware_jpc:.6} not below round-robin \
                 {rr_jpc:.6}",
                aware.nodes
            ));
        }
        if aware.report.goodput() + 0.005 < rr.report.goodput() {
            errors.push(format!(
                "n{} tight: sig-aware goodput {:.4} below round-robin {:.4}",
                aware.nodes,
                aware.report.goodput(),
                rr.report.goodput()
            ));
        }
    }
    errors
}

fn cell_json(cell: &Cell) -> Json {
    let stats = &cell.report.stats;
    Json::object([
        ("nodes", cell.nodes.into()),
        ("cap", cell.cap_name.into()),
        ("cap_watts", fixed(cell.cap_watts, 3)),
        ("policy", cell.policy.name().into()),
        ("offered", stats.offered.into()),
        ("completed", stats.completed.into()),
        ("shed", stats.shed.into()),
        ("violations", stats.violations().into()),
        ("lost_to_crash", cell.report.lost_to_crash.into()),
        ("downgraded", stats.downgraded.into()),
        ("retries", stats.retries.into()),
        ("goodput", fixed(cell.report.goodput(), 4)),
        ("p50_nanos", stats.latency.quantile(0.5).into()),
        ("p99_nanos", stats.latency.quantile(0.99).into()),
        ("joules", fixed(cell.report.joules, 6)),
        (
            "joules_per_completed",
            fixed(cell.report.joules_per_completed(), 9),
        ),
        ("average_watts", fixed(cell.report.average_watts(), 3)),
        ("violation_joules", fixed(cell.report.violation_joules, 9)),
        ("wall_nanos", cell.report.wall_nanos.into()),
    ])
}

/// The report as `tests/golden/cluster.json` spells it.
pub fn to_json(report: &Report) -> Json {
    // One flat goodput / joules-per-completed pair per cell, so a golden
    // diff shows the headline numbers without reading the cell list.
    let gates = report.cells.iter().flat_map(|cell| {
        let label = cell.label();
        [
            (format!("{label}_goodput"), fixed(cell.report.goodput(), 4)),
            (
                format!("{label}_joules_per_completed"),
                fixed(cell.report.joules_per_completed(), 9),
            ),
        ]
    });
    Json::object([
        ("benchmark", "cluster_bench".into()),
        (
            "description",
            "cluster-scale simulation: fleets of real-environment nodes under one global watt \
             cap, comparing significance-aware dispatch against round-robin on the identical \
             seeded schedule. The cap controller waterfills per-node busy slots (never \
             exceeding the cap) and frequency-caps the power-restricted nodes; the aware router \
             sends critical work to full-power nodes and degraded work to cheap ones"
                .into(),
        ),
        ("workers_per_node", WORKERS_PER_NODE.into()),
        ("base_service_nanos", SERVICE_NANOS.into()),
        ("load_factor", LOAD_FACTOR.into()),
        ("panic_per_mille", PANIC_PER_MILLE.into()),
        ("seed", SEED.into()),
        ("requests_per_node", REQUESTS_PER_NODE.into()),
        ("cells", Json::array(report.cells.iter().map(cell_json))),
        ("gates", Json::object(gates)),
        // Always null: kept so the golden has every member of the report it
        // was extracted from.
        ("trace", Json::Null),
        (
            "metadata",
            Json::object([(
                "note",
                "every cell is a bit-deterministic virtual-time run (seeded arrivals, faults, \
                 backoff; energy priced per node through the runtime's ExecutionEnv plus an \
                 exact piecewise-constant fleet power integral). violation_joules integrates \
                 modelled draw above the cap and must be 0; offered == completed + violations + \
                 shed + lost_to_crash in every cell."
                    .into(),
            )]),
        ),
    ])
}
