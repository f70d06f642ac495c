//! Open-loop serving benchmark: SLO-vs-joules under overload.
//!
//! Sweeps offered load from 0.5× to 2× of tier-0 capacity through the
//! deterministic virtual-time serving simulator, comparing three variants
//! over the **identical seeded arrival schedule**:
//!
//! * **exact-only** — single-tier request classes (full quality or nothing)
//!   under a [`NominalGovernor`]: the significance-blind baseline. Under
//!   overload its only tools are queueing and shedding.
//! * **ladder** — three-tier quality ladders per class with a
//!   [`SignificanceLadderGovernor`]: admission control degrades requests to
//!   cheaper, lower-significance tiers before shedding, and degraded tiers
//!   execute at scaled frequency.
//! * **adaptive** — the same ladders under an [`AdaptiveGovernor`]
//!   (per-rung stretch vs race-to-idle with hysteresis).
//!
//! Every load point reports p50/p99 latency, goodput by tier, shed / retry /
//! violation counts, modelled joules per completed request, and the **lost**
//! count — offered minus (completed + violated + shed) — which must be zero:
//! overload degrades answers, it never loses requests.
//!
//! A small live section runs the same serving stack over a real [`Runtime`]
//! (measured wall-clock latency; reported, not gated).
//!
//! Results are written as JSON (default `BENCH_serving.json`).
//!
//! ```text
//! serving-bench [--workers N] [--requests N] [--service NANOS] [--seed N]
//!               [--smoke] [--out PATH] [--check COMMITTED.json]
//! ```
//!
//! `--check` replays the deterministic sweep and fails (non-zero exit) if
//! any request is lost, if tier downgrade does not engage at or before the
//! load level where shedding starts, if the adaptive variant's p99 at 1.5×
//! exceeds the exact-only baseline's, or if any variant's p99 at 1.5× load
//! regressed more than 20% over the committed number.

use sig_bench::extract_json_number;
use std::sync::Arc;
use std::time::Duration;

use sig_core::{
    AdaptiveGovernor, ExecutionEnv, FaultPlan, Governor, NominalGovernor, Runtime,
    SignificanceLadderGovernor,
};
use sig_energy::{FrequencyScale, PowerModel, SleepState, TransitionCost};
use sig_serving::{
    AdmissionConfig, ArrivalPattern, PhaseReport, QualityTier, RequestClass, RetryPolicy, Server,
    ServerConfig, SimConfig, Simulator, SplitMix64,
};

/// Load multipliers swept over tier-0 capacity.
const LOAD_POINTS: [f64; 6] = [0.5, 0.75, 1.0, 1.25, 1.5, 2.0];
/// Index of the 1.5× point in [`LOAD_POINTS`] (the gated one).
const GATE_POINT: usize = 4;
/// Per-attempt transient-fault probability, per mille (faults are armed for
/// the whole sweep).
const PANIC_PER_MILLE: u16 = 150;
/// DVFS ladder depth / floor shared by the ladder and adaptive variants.
const LADDER_STEPS: usize = 4;
const LADDER_FLOOR: f64 = 0.4;
/// Power-model exponent: dynamic-heavy package where frequency scaling pays.
const POWER_EXPONENT: f64 = 2.4;
/// Adaptive-governor hysteresis (dispatches before a domain re-targets).
const HYSTERESIS: u32 = 4;

struct Config {
    workers: usize,
    requests: usize,
    service_nanos: u64,
    seed: u64,
    out: String,
    write_out: bool,
    live: bool,
    check: Option<String>,
}

fn parse_args() -> Config {
    let mut config = Config {
        workers: 4,
        requests: 20_000,
        service_nanos: 1_000_000, // 1 ms
        seed: 0x5e2e,
        out: "BENCH_serving.json".to_string(),
        write_out: true,
        live: true,
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
            "--requests" => config.requests = num("--requests") as usize,
            "--service" => config.service_nanos = num("--service") as u64,
            "--seed" => config.seed = num("--seed") as u64,
            "--out" => config.out = args.next().expect("--out needs a path"),
            "--check" => {
                config.check = Some(args.next().expect("--check needs a committed JSON path"));
            }
            "--smoke" => {
                config.requests = 2_000;
                config.write_out = false;
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: serving-bench [--workers N] [--requests N] [--service NANOS] \
                     [--seed N] [--smoke] [--out PATH] [--check COMMITTED.json]"
                );
                std::process::exit(2);
            }
        }
    }
    config
}

/// The request-class population: a critical class that never degrades and
/// never sheds, a standard class, and a background class. With `ladder`,
/// the sub-critical classes carry three-rung quality ladders; without it
/// every class is full-quality-or-nothing (the exact-only contract).
fn classes(ladder: bool, service_nanos: u64) -> Vec<RequestClass> {
    let deadline = Duration::from_nanos(service_nanos * 20);
    let retry = RetryPolicy {
        max_retries: 2,
        base_backoff: Duration::from_nanos(service_nanos / 4),
        jitter: 0.3,
    };
    let tiers = |significance: f64| -> Vec<QualityTier> {
        if ladder {
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
        } else {
            vec![QualityTier {
                significance,
                work_factor: 1.0,
            }]
        }
    };
    vec![
        RequestClass {
            name: "critical".into(),
            tiers: vec![QualityTier {
                significance: 1.0,
                work_factor: 1.0,
            }],
            deadline,
            retry,
        },
        RequestClass {
            name: "standard".into(),
            tiers: tiers(0.7),
            deadline,
            retry,
        },
        RequestClass {
            name: "background".into(),
            tiers: tiers(0.3),
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

/// The seeded open-loop schedule of one load point: Poisson arrivals at
/// `rate` with per-arrival class picks. Identical across variants.
fn build_schedule(rate: f64, count: usize, seed: u64) -> Vec<(u64, usize)> {
    let offsets = ArrivalPattern::Poisson { rate_per_sec: rate }.schedule(seed, count);
    let mut rng = SplitMix64::new(seed ^ 0xc1a5_5e5e_ed00_0001);
    offsets
        .into_iter()
        .map(|at| (at, pick_class(&mut rng)))
        .collect()
}

/// The dynamic-heavy power model the sweep prices energy with.
fn power_model(workers: usize) -> PowerModel {
    PowerModel {
        sockets: 1,
        cores_per_socket: workers,
        static_watts_per_socket: 1.0 * workers as f64,
        active_watts_per_core: 6.6,
        idle_watts_per_core: 0.5,
    }
}

fn dvfs_ladder() -> Vec<FrequencyScale> {
    FrequencyScale::ladder(LADDER_STEPS, LADDER_FLOOR)
        .into_iter()
        .map(|s| FrequencyScale::with_exponent(s.ratio(), POWER_EXPONENT))
        .collect()
}

/// One serving variant: its class shape and governor.
struct Variant {
    name: &'static str,
    ladder: bool,
    governor: fn(&Config) -> Arc<dyn Governor>,
}

fn nominal_governor(_config: &Config) -> Arc<dyn Governor> {
    Arc::new(NominalGovernor)
}

fn ladder_governor(_config: &Config) -> Arc<dyn Governor> {
    Arc::new(SignificanceLadderGovernor::new(dvfs_ladder()))
}

fn adaptive_governor(config: &Config) -> Arc<dyn Governor> {
    Arc::new(AdaptiveGovernor::new(
        &power_model(config.workers),
        SleepState::shallow(),
        dvfs_ladder(),
        HYSTERESIS,
        config.service_nanos as f64 * 1e-9,
    ))
}

const VARIANTS: [Variant; 3] = [
    Variant {
        name: "exact_only",
        ladder: false,
        governor: nominal_governor,
    },
    Variant {
        name: "ladder",
        ladder: true,
        governor: ladder_governor,
    },
    Variant {
        name: "adaptive",
        ladder: true,
        governor: adaptive_governor,
    },
];

/// One measured load point of one variant.
struct LoadResult {
    multiplier: f64,
    report: PhaseReport,
    lost: i64,
}

fn run_variant(config: &Config, variant: &Variant) -> Vec<LoadResult> {
    let capacity_rps = config.workers as f64 * 1e9 / config.service_nanos as f64;
    LOAD_POINTS
        .iter()
        .enumerate()
        .map(|(point, &multiplier)| {
            let env = ExecutionEnv::new(
                power_model(config.workers),
                (variant.governor)(config),
                Some(SleepState::shallow()),
                TransitionCost::typical(),
                config.workers,
            );
            let mut sim = Simulator::new(
                SimConfig {
                    workers: config.workers,
                    base_service_nanos: config.service_nanos,
                    panic_per_mille: PANIC_PER_MILLE,
                    seed: config.seed ^ ((point as u64) << 8),
                    admission: AdmissionConfig::default(),
                    budget: None,
                },
                classes(variant.ladder, config.service_nanos),
                env,
            );
            let schedule = build_schedule(
                capacity_rps * multiplier,
                config.requests,
                config.seed.wrapping_add(point as u64),
            );
            let report = sim.run(&schedule);
            let stats = &report.stats;
            let lost =
                stats.offered as i64 - (stats.completed + stats.violations() + stats.shed) as i64;
            LoadResult {
                multiplier,
                report,
                lost,
            }
        })
        .collect()
}

/// The lowest load multiplier at which `pick` first returns a non-zero
/// count, or `None` if it never does.
fn first_engagement(results: &[LoadResult], pick: fn(&LoadResult) -> u64) -> Option<f64> {
    results
        .iter()
        .find(|point| pick(point) > 0)
        .map(|point| point.multiplier)
}

/// Check the sweep-level invariants of one variant's results; returns error
/// strings instead of panicking so `--check` can report all failures.
fn sweep_invariant_errors(name: &str, results: &[LoadResult], ladder: bool) -> Vec<String> {
    let mut errors = Vec::new();
    for point in results {
        if point.lost != 0 {
            errors.push(format!(
                "{name} at {}x: {} requests lost (accounting identity broken)",
                point.multiplier, point.lost
            ));
        }
    }
    if ladder {
        let downgrade_at = first_engagement(results, |p| p.report.stats.downgraded);
        let shed_at = first_engagement(results, |p| p.report.stats.shed);
        match (downgrade_at, shed_at) {
            (None, Some(shed)) => errors.push(format!(
                "{name}: sheds at {shed}x without ever downgrading — degrade-first violated"
            )),
            (Some(down), Some(shed)) if down > shed => errors.push(format!(
                "{name}: first shed at {shed}x precedes first downgrade at {down}x"
            )),
            _ => {}
        }
        if results[GATE_POINT].report.stats.downgraded == 0 {
            errors.push(format!(
                "{name}: no tier downgrade at 1.5x load — graceful degradation not engaging"
            ));
        }
    }
    errors
}

/// CI regression gate: deterministic replay of the sweep vs the committed
/// report. Exits non-zero on any lost request, degrade-first violation,
/// adaptive-worse-than-exact inversion at 1.5×, or >20% p99 regression at
/// 1.5× on any variant.
fn run_check(config: &Config, committed_path: &str) -> ! {
    let committed = std::fs::read_to_string(committed_path)
        .unwrap_or_else(|e| panic!("cannot read {committed_path}: {e}"));
    let mut errors: Vec<String> = Vec::new();
    let mut p99_at_gate = Vec::new();
    let mut jpc_at_gate = Vec::new();
    for variant in &VARIANTS {
        let results = run_variant(config, variant);
        errors.extend(sweep_invariant_errors(
            variant.name,
            &results,
            variant.ladder,
        ));
        let gate = &results[GATE_POINT];
        let p99 = gate.report.stats.latency.quantile(0.99);
        p99_at_gate.push(p99);
        jpc_at_gate.push(gate.report.joules_per_completed());
        let key = format!("{}_p99_nanos_at_1_5x", variant.name);
        match extract_json_number(&committed, &key) {
            None => errors.push(format!("committed report lacks {key}")),
            Some(committed_p99) => {
                let threshold = committed_p99 * 1.2;
                eprintln!(
                    "serving-bench check [{}]: p99@1.5x now {p99} ns vs committed \
                     {committed_p99:.0} ns (threshold {threshold:.0})",
                    variant.name
                );
                if (p99 as f64) > threshold {
                    errors.push(format!(
                        "{}: p99 at 1.5x load regressed >20% ({p99} ns vs committed \
                         {committed_p99:.0} ns)",
                        variant.name
                    ));
                }
            }
        }
    }
    // Cross-variant acceptance at the gated load point: graceful degradation
    // must beat the significance-blind baseline on latency AND energy.
    let (exact_p99, adaptive_p99) = (p99_at_gate[0], p99_at_gate[2]);
    if adaptive_p99 > exact_p99 {
        errors.push(format!(
            "adaptive p99 at 1.5x ({adaptive_p99} ns) exceeds exact-only ({exact_p99} ns)"
        ));
    }
    let (exact_jpc, adaptive_jpc) = (jpc_at_gate[0], jpc_at_gate[2]);
    if adaptive_jpc >= exact_jpc {
        errors.push(format!(
            "adaptive joules/completed at 1.5x ({adaptive_jpc:.6}) not below exact-only \
             ({exact_jpc:.6})"
        ));
    }
    if !errors.is_empty() {
        for error in &errors {
            eprintln!("FAIL: {error}");
        }
        std::process::exit(1);
    }
    eprintln!(
        "OK: no lost requests, degrade-first holds, adaptive p99 {adaptive_p99} ns <= exact-only \
         {exact_p99} ns and joules/completed {adaptive_jpc:.6} < {exact_jpc:.6} at 1.5x load"
    );
    std::process::exit(0);
}

fn tier_array(counts: &[u64]) -> String {
    let items: Vec<String> = counts.iter().map(|c| c.to_string()).collect();
    format!("[{}]", items.join(", "))
}

fn load_json(point: &LoadResult, indent: &str) -> String {
    let stats = &point.report.stats;
    format!(
        "{indent}{{\n{indent}  \"multiplier\": {},\n{indent}  \"offered\": {},\n{indent}  \
         \"completed\": {},\n{indent}  \"shed\": {},\n{indent}  \"violations\": {},\n\
         {indent}  \"late\": {},\n{indent}  \"retries_exhausted\": {},\n{indent}  \
         \"budget_exhausted\": {},\n{indent}  \"retries\": {},\n{indent}  \"downgraded\": {},\n\
         {indent}  \"lost\": {},\n{indent}  \"goodput\": {:.4},\n{indent}  \
         \"completed_by_tier\": {},\n{indent}  \"p50_nanos\": {},\n{indent}  \"p99_nanos\": {},\n\
         {indent}  \"mean_nanos\": {:.0},\n{indent}  \"joules\": {:.6},\n{indent}  \
         \"joules_per_completed\": {:.9},\n{indent}  \"wall_nanos\": {}\n{indent}}}",
        point.multiplier,
        stats.offered,
        stats.completed,
        stats.shed,
        stats.violations(),
        stats.late,
        stats.retries_exhausted,
        stats.budget_exhausted,
        stats.retries,
        stats.downgraded,
        point.lost,
        stats.goodput(),
        tier_array(&stats.completed_by_tier),
        stats.latency.quantile(0.5),
        stats.latency.quantile(0.99),
        stats.latency.mean(),
        point.report.joules,
        point.report.joules_per_completed(),
        point.report.wall_nanos,
    )
}

/// Short live-runtime section: the same serving stack over real workers and
/// wall-clock time (reported for flavour; the deterministic sweep is what CI
/// gates).
fn run_live(config: &Config) -> String {
    let live_workers = config.workers.min(4);
    let base_work = Duration::from_micros(200);
    let capacity_rps = live_workers as f64 / base_work.as_secs_f64();
    let rt = Runtime::builder()
        .workers(live_workers)
        .energy_model(power_model(live_workers))
        .governor(SignificanceLadderGovernor::new(dvfs_ladder()))
        .fault_plan(FaultPlan::new(config.seed).panics(PANIC_PER_MILLE))
        .build();
    let mut server = Server::new(
        &rt,
        classes(true, base_work.as_nanos() as u64),
        ServerConfig {
            base_work,
            seed: config.seed,
            ..Default::default()
        },
    );
    let count = (config.requests / 20).clamp(200, 2_000);
    let schedule = build_schedule(capacity_rps * 1.5, count, config.seed ^ 0x11fe);
    let stats = server.run(&schedule).clone();
    let wall = rt.energy_report();
    let lost = stats.offered as i64 - (stats.completed + stats.violations() + stats.shed) as i64;
    eprintln!(
        "  live 1.5x ({} workers, {} req): completed {} | shed {} | violations {} | \
         downgraded {} | p99 {:.3} ms | lost {}",
        live_workers,
        stats.offered,
        stats.completed,
        stats.shed,
        stats.violations(),
        stats.downgraded,
        stats.latency.quantile(0.99) as f64 / 1e6,
        lost,
    );
    assert_eq!(lost, 0, "live serving lost requests");
    format!(
        "  \"live\": {{\n    \"workers\": {},\n    \"base_work_nanos\": {},\n    \
         \"load_multiplier\": 1.5,\n    \"offered\": {},\n    \"completed\": {},\n    \
         \"shed\": {},\n    \"violations\": {},\n    \"retries\": {},\n    \
         \"downgraded\": {},\n    \"lost\": {},\n    \"p50_nanos\": {},\n    \
         \"p99_nanos\": {},\n    \"runtime_joules\": {:.4}\n  }}",
        live_workers,
        base_work.as_nanos(),
        stats.offered,
        stats.completed,
        stats.shed,
        stats.violations(),
        stats.retries,
        stats.downgraded,
        lost,
        stats.latency.quantile(0.5),
        stats.latency.quantile(0.99),
        wall.reading().joules,
    )
}

fn main() {
    let config = parse_args();

    if let Some(committed) = config.check.clone() {
        run_check(&config, &committed);
    }

    let capacity_rps = config.workers as f64 * 1e9 / config.service_nanos as f64;
    eprintln!(
        "serving-bench: {} requests per load point, {} sim workers, {} ns tier-0 service \
         (capacity {:.0} rps), faults {}‰, seed {:#x}",
        config.requests,
        config.workers,
        config.service_nanos,
        capacity_rps,
        PANIC_PER_MILLE,
        config.seed,
    );

    let mut variant_jsons = Vec::new();
    let mut gate_p99 = Vec::new();
    let mut gate_jpc = Vec::new();
    for variant in &VARIANTS {
        let results = run_variant(&config, variant);
        let errors = sweep_invariant_errors(variant.name, &results, variant.ladder);
        assert!(errors.is_empty(), "sweep invariants violated: {errors:?}");
        let gate = &results[GATE_POINT];
        eprintln!(
            "  {:>10} @1.5x: goodput {:.3} | p99 {:.3} ms | shed {} | downgraded {} | \
             {:.6} J/completed",
            variant.name,
            gate.report.stats.goodput(),
            gate.report.stats.latency.quantile(0.99) as f64 / 1e6,
            gate.report.stats.shed,
            gate.report.stats.downgraded,
            gate.report.joules_per_completed(),
        );
        gate_p99.push(gate.report.stats.latency.quantile(0.99));
        gate_jpc.push(gate.report.joules_per_completed());
        let loads: Vec<String> = results
            .iter()
            .map(|point| load_json(point, "      "))
            .collect();
        variant_jsons.push(format!(
            "    \"{}\": {{\n      \"quality_ladder\": {},\n      \"loads\": [\n{}\n      ],\n\
             \"{}_p99_nanos_at_1_5x\": {},\n      \"{}_joules_per_completed_at_1_5x\": {:.9}\n    }}",
            variant.name,
            variant.ladder,
            loads.join(",\n"),
            variant.name,
            results[GATE_POINT].report.stats.latency.quantile(0.99),
            variant.name,
            results[GATE_POINT].report.joules_per_completed(),
        ));
    }

    assert!(
        gate_p99[2] <= gate_p99[0],
        "adaptive p99 at 1.5x ({}) must not exceed exact-only ({})",
        gate_p99[2],
        gate_p99[0]
    );
    assert!(
        gate_jpc[2] < gate_jpc[0],
        "adaptive joules/completed at 1.5x ({}) must be below exact-only ({})",
        gate_jpc[2],
        gate_jpc[0]
    );

    let live_json = if config.live {
        run_live(&config)
    } else {
        "  \"live\": null".to_string()
    };

    let json = format!(
        "{{\n  \"benchmark\": \"serving_bench\",\n  \"description\": \"open-loop serving sweep \
         (0.5x-2x capacity, faults armed): admission control with tier-downgrade-before-shed, \
         retry/timeout budgets, and SLO-vs-joules comparison of exact-only vs ladder vs adaptive \
         serving\",\n  \"workers\": {},\n  \"requests_per_load_point\": {},\n  \
         \"base_service_nanos\": {},\n  \"capacity_rps\": {:.0},\n  \"panic_per_mille\": {},\n  \
         \"seed\": {},\n  \"load_points\": [0.5, 0.75, 1.0, 1.25, 1.5, 2.0],\n  \
         \"admission\": {{\"queue_watermark\": {}, \"downgrade_start\": {}, \"shed_start\": {}, \
         \"shed_full\": {}, \"max_shed_significance\": {}}},\n  \"variants\": {{\n{}\n  }},\n\
         {},\n  \"metadata\": {{\n    \"note\": \"the variant sweep is a deterministic \
         virtual-time simulation (seeded arrivals, faults, and backoff; energy priced through \
         the runtime's ExecutionEnv) and reproduces bit-identically on any host; the live \
         section uses real workers and wall-clock time and is reported, not gated. lost = \
         offered - (completed + violations + shed) and must always be 0.\"\n  }}\n}}\n",
        config.workers,
        config.requests,
        config.service_nanos,
        capacity_rps,
        PANIC_PER_MILLE,
        config.seed,
        AdmissionConfig::default().queue_watermark,
        AdmissionConfig::default().downgrade_start,
        AdmissionConfig::default().shed_start,
        AdmissionConfig::default().shed_full,
        AdmissionConfig::default().max_shed_significance,
        variant_jsons.join(",\n"),
        live_json,
    );
    if config.write_out {
        std::fs::write(&config.out, &json).expect("failed to write results");
        eprintln!("  wrote {}", config.out);
    }
    println!("{json}");
}
