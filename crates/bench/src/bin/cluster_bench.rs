//! Cluster benchmark: many runtimes, one energy budget.
//!
//! Runs the bit-deterministic cluster simulator over a matrix of fleet
//! sizes × global watt caps × dispatch policies, on the **identical seeded
//! arrival schedule** per cell pair, and reports goodput, tail latency,
//! joules per completed request, and the cap-violation integral.
//!
//! The headline comparison is dispatch policy under a *tight* cap: the
//! significance-aware router must beat round-robin on joules/completed at
//! equal-or-better goodput. Under a tight cap the controller carves the
//! fleet into full-power and frequency-capped nodes; the aware router sends
//! critical work to the fast half and degraded work to the cheap half,
//! while round-robin queues critical requests behind dilated background
//! work.
//!
//! Results are written as JSON (default `BENCH_cluster.json`).
//!
//! ```text
//! cluster-bench [--seed N] [--smoke] [--out PATH] [--check COMMITTED.json]
//!               [--trace FILE]
//! ```
//!
//! `--check` replays the deterministic matrix and fails (non-zero exit) on
//! any unbalanced book, any cap violation, any tight-cap cell where the
//! significance-aware policy does not beat round-robin, or a >20% goodput
//! regression vs the committed numbers.
//!
//! `--trace FILE` replays a recorded arrival trace (one nanosecond offset
//! per line, `#` comments) through the smallest fleet under the tight cap —
//! reported alongside the matrix, not gated.

use sig_bench::extract_json_number;
use sig_cluster::{ClusterConfig, ClusterPhaseReport, ClusterSim, DispatchPolicy};
use sig_serving::{ArrivalPattern, QualityTier, RequestClass, RetryPolicy, SplitMix64};
use std::time::Duration;

/// Fleet sizes of the full matrix (smoke trims to the first two, scaled
/// down).
const FLEETS: [usize; 3] = [6, 24, 96];
const SMOKE_FLEETS: [usize; 2] = [4, 12];
/// Workers per node.
const WORKERS: usize = 2;
/// Tier-0 service time.
const SERVICE_NANOS: u64 = 1_000_000;
/// Offered load relative to the *uncapped* fleet's tier-0 capacity.
const LOAD_FACTOR: f64 = 1.1;
/// Transient-fault rate, per mille.
const PANIC_PER_MILLE: u16 = 30;
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

struct Config {
    seed: u64,
    requests_per_node: usize,
    fleets: Vec<usize>,
    out: String,
    write_out: bool,
    check: Option<String>,
    trace: Option<String>,
}

fn parse_args() -> Config {
    let mut config = Config {
        seed: 0xc1a5,
        requests_per_node: 300,
        fleets: FLEETS.to_vec(),
        out: "BENCH_cluster.json".to_string(),
        write_out: true,
        check: None,
        trace: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                config.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed needs a number");
            }
            "--out" => config.out = args.next().expect("--out needs a path"),
            "--check" => {
                config.check = Some(args.next().expect("--check needs a committed JSON path"));
            }
            "--trace" => config.trace = Some(args.next().expect("--trace needs a file path")),
            "--smoke" => {
                config.fleets = SMOKE_FLEETS.to_vec();
                config.requests_per_node = 100;
                config.write_out = false;
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: cluster-bench [--seed N] [--smoke] [--out PATH] \
                     [--check COMMITTED.json] [--trace FILE]"
                );
                std::process::exit(2);
            }
        }
    }
    config
}

/// The serving-bench class mix: critical 1.0 (single tier), standard 0.7
/// and background 0.3 with three-rung quality ladders.
fn classes() -> Vec<RequestClass> {
    let deadline = Duration::from_nanos(SERVICE_NANOS * 20);
    let retry = RetryPolicy {
        max_retries: 2,
        base_backoff: Duration::from_nanos(SERVICE_NANOS / 4),
        jitter: 0.3,
    };
    let ladder = |significance: f64| {
        vec![
            QualityTier {
                significance,
                work_factor: 1.0,
            },
            QualityTier {
                significance: significance * 0.6,
                work_factor: 0.5,
            },
            QualityTier {
                significance: significance * 0.3,
                work_factor: 0.25,
            },
        ]
    };
    vec![
        RequestClass::exact("critical", 1.0, deadline, retry),
        RequestClass {
            name: "standard".into(),
            tiers: ladder(0.7),
            deadline,
            retry,
        },
        RequestClass {
            name: "background".into(),
            tiers: ladder(0.3),
            deadline,
            retry,
        },
    ]
}

/// Deterministic class mix: ~20% critical, ~50% standard, ~30% background.
fn pick_class(rng: &mut SplitMix64) -> usize {
    match rng.next_u64() % 10 {
        0 | 1 => 0,
        2..=6 => 1,
        _ => 2,
    }
}

/// The seeded schedule of one fleet size: Poisson arrivals at `LOAD_FACTOR`
/// of the uncapped fleet capacity, with per-arrival class picks. Identical
/// across caps and policies for that fleet.
fn build_schedule(nodes: usize, requests: usize, seed: u64) -> Vec<(u64, usize)> {
    let capacity_rps = (nodes * WORKERS) as f64 * 1e9 / SERVICE_NANOS as f64;
    let offsets = ArrivalPattern::Poisson {
        rate_per_sec: capacity_rps * LOAD_FACTOR,
    }
    .schedule(seed, requests);
    attach_classes(offsets, seed)
}

fn attach_classes(offsets: Vec<u64>, seed: u64) -> Vec<(u64, usize)> {
    let mut rng = SplitMix64::new(seed ^ 0xc1a5_5e5e_ed00_0002);
    offsets
        .into_iter()
        .map(|at| (at, pick_class(&mut rng)))
        .collect()
}

fn cell_config(
    nodes: usize,
    cap_fraction: f64,
    policy: DispatchPolicy,
    seed: u64,
) -> ClusterConfig {
    let mut config = ClusterConfig {
        nodes,
        workers_per_node: WORKERS,
        base_service_nanos: SERVICE_NANOS,
        panic_per_mille: PANIC_PER_MILLE,
        seed,
        policy,
        ..ClusterConfig::default()
    };
    config.cap.cap_watts = nodes as f64 * NODE_FULL_WATTS * cap_fraction;
    config
}

struct Cell {
    nodes: usize,
    cap_name: &'static str,
    cap_watts: f64,
    policy: DispatchPolicy,
    report: ClusterPhaseReport,
}

fn run_matrix(config: &Config) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &nodes in &config.fleets {
        let schedule = build_schedule(
            nodes,
            nodes * config.requests_per_node,
            config.seed ^ (nodes as u64),
        );
        for &(cap_name, cap_fraction) in &CAP_LEVELS {
            for &policy in &POLICIES {
                let cluster = cell_config(nodes, cap_fraction, policy, config.seed);
                let cap_watts = cluster.cap.cap_watts;
                let mut sim = ClusterSim::new(cluster, classes());
                let report = sim.run(&schedule, &[]);
                cells.push(Cell {
                    nodes,
                    cap_name,
                    cap_watts,
                    policy,
                    report,
                });
            }
        }
    }
    cells
}

/// Invariant errors across the whole matrix (collected, not panicked, so
/// `--check` reports everything at once).
fn matrix_invariant_errors(cells: &[Cell]) -> Vec<String> {
    let mut errors = Vec::new();
    for cell in cells {
        let label = format!("n{} {} {}", cell.nodes, cell.cap_name, cell.policy.name());
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
    // The headline: under the tight cap, significance-aware routing beats
    // round-robin on joules/completed at equal-or-better goodput.
    for cell in cells {
        if cell.cap_name != "tight" || cell.policy != DispatchPolicy::SignificanceAware {
            continue;
        }
        let Some(rr) = cells.iter().find(|c| {
            c.nodes == cell.nodes && c.cap_name == "tight" && c.policy == DispatchPolicy::RoundRobin
        }) else {
            continue;
        };
        let (sig_jpc, rr_jpc) = (
            cell.report.joules_per_completed(),
            rr.report.joules_per_completed(),
        );
        if sig_jpc >= rr_jpc {
            errors.push(format!(
                "n{} tight: sig-aware joules/completed {sig_jpc:.6} not below round-robin \
                 {rr_jpc:.6}",
                cell.nodes
            ));
        }
        if cell.report.goodput() + 0.005 < rr.report.goodput() {
            errors.push(format!(
                "n{} tight: sig-aware goodput {:.4} below round-robin {:.4}",
                cell.nodes,
                cell.report.goodput(),
                rr.report.goodput()
            ));
        }
    }
    errors
}

/// CI regression gate: deterministic replay of the matrix vs the committed
/// report. Fails on any invariant error or a >20% goodput regression in any
/// cell present in the committed JSON.
fn run_check(config: &Config, committed_path: &str) -> ! {
    let committed = std::fs::read_to_string(committed_path)
        .unwrap_or_else(|e| panic!("cannot read {committed_path}: {e}"));
    let cells = run_matrix(config);
    let mut errors = matrix_invariant_errors(&cells);
    for cell in &cells {
        let key = format!(
            "n{}_{}_{}_goodput",
            cell.nodes,
            cell.cap_name,
            cell.policy.name()
        );
        match extract_json_number(&committed, &key) {
            None => errors.push(format!("committed report lacks {key}")),
            Some(committed_goodput) => {
                let threshold = committed_goodput * 0.8;
                let goodput = cell.report.goodput();
                eprintln!(
                    "cluster-bench check [{key}]: goodput now {goodput:.4} vs committed \
                     {committed_goodput:.4} (threshold {threshold:.4})"
                );
                if goodput < threshold {
                    errors.push(format!(
                        "{key}: goodput regressed >20% ({goodput:.4} vs committed \
                         {committed_goodput:.4})"
                    ));
                }
            }
        }
    }
    if !errors.is_empty() {
        for error in &errors {
            eprintln!("FAIL: {error}");
        }
        std::process::exit(1);
    }
    eprintln!(
        "OK: books balance, caps hold, sig-aware beats round-robin under every tight cap, \
         no cell regressed >20% goodput"
    );
    std::process::exit(0);
}

fn cell_json(cell: &Cell, indent: &str) -> String {
    let stats = &cell.report.stats;
    format!(
        "{indent}{{\n{indent}  \"nodes\": {},\n{indent}  \"cap\": \"{}\",\n{indent}  \
         \"cap_watts\": {:.3},\n{indent}  \"policy\": \"{}\",\n{indent}  \"offered\": {},\n\
         {indent}  \"completed\": {},\n{indent}  \"shed\": {},\n{indent}  \"violations\": {},\n\
         {indent}  \"lost_to_crash\": {},\n{indent}  \"downgraded\": {},\n{indent}  \
         \"retries\": {},\n{indent}  \"goodput\": {:.4},\n{indent}  \"p50_nanos\": {},\n\
         {indent}  \"p99_nanos\": {},\n{indent}  \"joules\": {:.6},\n{indent}  \
         \"joules_per_completed\": {:.9},\n{indent}  \"average_watts\": {:.3},\n{indent}  \
         \"violation_joules\": {:.9},\n{indent}  \"wall_nanos\": {}\n{indent}}}",
        cell.nodes,
        cell.cap_name,
        cell.cap_watts,
        cell.policy.name(),
        stats.offered,
        stats.completed,
        stats.shed,
        stats.violations(),
        cell.report.lost_to_crash,
        stats.downgraded,
        stats.retries,
        cell.report.goodput(),
        stats.latency.quantile(0.5),
        stats.latency.quantile(0.99),
        cell.report.joules,
        cell.report.joules_per_completed(),
        cell.report.average_watts(),
        cell.report.violation_joules,
        cell.report.wall_nanos,
    )
}

/// Replay a recorded arrival trace through the smallest fleet under the
/// tight cap (reported, not gated).
fn run_trace(config: &Config, path: &str) -> String {
    let pattern = ArrivalPattern::from_trace_file(path)
        .unwrap_or_else(|e| panic!("cannot load trace {path}: {e}"));
    let ArrivalPattern::Trace(offsets) = pattern else {
        unreachable!("from_trace_file always returns Trace");
    };
    let count = offsets.len();
    let schedule = attach_classes(offsets, config.seed);
    let nodes = config.fleets[0];
    let cluster = cell_config(nodes, 0.8, DispatchPolicy::SignificanceAware, config.seed);
    let mut sim = ClusterSim::new(cluster, classes());
    let report = sim.run(&schedule, &[]);
    assert!(report.balanced(), "trace replay books must balance");
    eprintln!(
        "  trace {path}: {count} arrivals on {nodes} nodes (tight cap): goodput {:.3} | \
         p99 {:.3} ms | {:.6} J/completed",
        report.goodput(),
        report.stats.latency.quantile(0.99) as f64 / 1e6,
        report.joules_per_completed(),
    );
    format!(
        "  \"trace\": {{\n    \"path\": \"{path}\",\n    \"arrivals\": {count},\n    \
         \"nodes\": {nodes},\n    \"goodput\": {:.4},\n    \"p99_nanos\": {},\n    \
         \"joules_per_completed\": {:.9},\n    \"violation_joules\": {:.9}\n  }}",
        report.goodput(),
        report.stats.latency.quantile(0.99),
        report.joules_per_completed(),
        report.violation_joules,
    )
}

fn main() {
    let config = parse_args();

    if let Some(committed) = config.check.clone() {
        run_check(&config, &committed);
    }

    eprintln!(
        "cluster-bench: fleets {:?} × caps {:?} × policies [sig_aware, round_robin], \
         {} req/node at {LOAD_FACTOR}x capacity, faults {PANIC_PER_MILLE}‰, seed {:#x}",
        config.fleets,
        CAP_LEVELS.map(|(name, f)| format!("{name}={f}x")),
        config.requests_per_node,
        config.seed,
    );

    let cells = run_matrix(&config);
    let errors = matrix_invariant_errors(&cells);
    for cell in &cells {
        eprintln!(
            "  n{:<3} {:>8} {:>11}: goodput {:.3} | p99 {:6.3} ms | {:.6} J/completed | \
             avg {:6.2} W (cap {:.1}) | shed {} | violation {:.3} J",
            cell.nodes,
            cell.cap_name,
            cell.policy.name(),
            cell.report.goodput(),
            cell.report.stats.latency.quantile(0.99) as f64 / 1e6,
            cell.report.joules_per_completed(),
            cell.report.average_watts(),
            cell.cap_watts,
            cell.report.stats.shed,
            cell.report.violation_joules,
        );
    }
    assert!(errors.is_empty(), "matrix invariants violated: {errors:#?}");

    let trace_json = match &config.trace {
        Some(path) => run_trace(&config, path),
        None => "  \"trace\": null".to_string(),
    };

    // Flat gate keys (goodput and joules/completed per cell) ride next to
    // the nested cell list so `--check`'s extractor finds them directly.
    let mut gate_keys = Vec::new();
    for cell in &cells {
        let prefix = format!("n{}_{}_{}", cell.nodes, cell.cap_name, cell.policy.name());
        gate_keys.push(format!(
            "    \"{prefix}_goodput\": {:.4},\n    \"{prefix}_joules_per_completed\": {:.9}",
            cell.report.goodput(),
            cell.report.joules_per_completed()
        ));
    }
    let cell_jsons: Vec<String> = cells.iter().map(|cell| cell_json(cell, "    ")).collect();

    let json = format!(
        "{{\n  \"benchmark\": \"cluster_bench\",\n  \"description\": \"cluster-scale \
         simulation: fleets of real-environment nodes under one global watt cap, comparing \
         significance-aware dispatch against round-robin on the identical seeded schedule. \
         The cap controller waterfills per-node busy slots (never exceeding the cap) and \
         frequency-caps the power-restricted nodes; the aware router sends critical work to \
         full-power nodes and degraded work to cheap ones\",\n  \"workers_per_node\": \
         {WORKERS},\n  \"base_service_nanos\": {SERVICE_NANOS},\n  \"load_factor\": \
         {LOAD_FACTOR},\n  \"panic_per_mille\": {PANIC_PER_MILLE},\n  \"seed\": {},\n  \
         \"requests_per_node\": {},\n  \"cells\": [\n{}\n  ],\n  \"gates\": {{\n{}\n  }},\n\
         {},\n  \"metadata\": {{\n    \"note\": \"every cell is a bit-deterministic \
         virtual-time run (seeded arrivals, faults, backoff; energy priced per node through \
         the runtime's ExecutionEnv plus an exact piecewise-constant fleet power integral). \
         violation_joules integrates modelled draw above the cap and must be 0; offered == \
         completed + violations + shed + lost_to_crash in every cell.\"\n  }}\n}}\n",
        config.seed,
        config.requests_per_node,
        cell_jsons.join(",\n"),
        gate_keys.join(",\n"),
        trace_json,
    );
    if config.write_out {
        std::fs::write(&config.out, &json).expect("failed to write results");
        eprintln!("  wrote {}", config.out);
    }
    println!("{json}");
}
