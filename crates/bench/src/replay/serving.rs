//! Open-loop serving sweep: SLO vs joules under overload.
//!
//! Offered load sweeps 0.5×–2× of tier-0 capacity through the virtual-time
//! serving [`Simulator`], comparing three variants over the **identical
//! seeded arrival schedule**, transient faults armed throughout:
//!
//! * **exact-only** — single-tier request classes (full quality or nothing)
//!   under a [`NominalGovernor`]: the significance-blind baseline. Under
//!   overload its only tools are queueing and shedding.
//! * **ladder** — three-tier quality ladders per class with a
//!   [`SignificanceLadderGovernor`]: admission control degrades requests to
//!   cheaper, lower-significance tiers before shedding, and degraded tiers
//!   execute at scaled frequency.
//! * **adaptive** — the same ladders under an [`AdaptiveGovernor`].
//!
//! Every load point reports p50/p99 latency, goodput by tier, shed / retry /
//! violation counts, modelled joules per completed request, and the **lost**
//! count — offered minus (completed + violated + shed) — which must be zero:
//! overload degrades answers, it never loses requests.

use std::sync::Arc;

use sig_core::{
    AdaptiveGovernor, ExecutionEnv, Governor, NominalGovernor, SignificanceLadderGovernor,
};
use sig_energy::TransitionCost;
use sig_serving::{AdmissionConfig, ArrivalPattern, PhaseReport, SimConfig, Simulator};

use super::workload::{classes, with_classes, Package, HYSTERESIS, WORKERS};
use crate::json::{fixed, Json};

/// Load multipliers swept over tier-0 capacity.
const LOAD_POINTS: [f64; 6] = [0.5, 0.75, 1.0, 1.25, 1.5, 2.0];
/// Index of the 1.5× point in [`LOAD_POINTS`], where the variants are
/// compared against each other.
const GATE_POINT: usize = 4;
/// Requests offered per load point.
const REQUESTS: usize = 20_000;
/// Tier-0 service time.
const SERVICE_NANOS: u64 = 1_000_000;
/// Tier-0 capacity, requests per second.
const CAPACITY_RPS: f64 = WORKERS as f64 * 1e9 / SERVICE_NANOS as f64;
/// Per-attempt transient-fault probability, per mille.
const PANIC_PER_MILLE: u16 = 150;
const SEED: u64 = 0x5e2e;

/// One serving variant: its class shape and governor.
struct Variant {
    name: &'static str,
    ladder: bool,
    governor: fn(&Package) -> Arc<dyn Governor>,
}

const VARIANTS: [Variant; 3] = [
    Variant {
        name: "exact_only",
        ladder: false,
        governor: |_| Arc::new(NominalGovernor),
    },
    Variant {
        name: "ladder",
        ladder: true,
        governor: |package| Arc::new(SignificanceLadderGovernor::new(package.ladder())),
    },
    Variant {
        name: "adaptive",
        ladder: true,
        governor: |package| {
            Arc::new(AdaptiveGovernor::new(
                &package.model,
                package.sleep,
                package.ladder(),
                HYSTERESIS,
                SERVICE_NANOS as f64 * 1e-9,
            ))
        },
    },
];

/// One load point of one variant.
pub struct LoadResult {
    /// Offered load over tier-0 capacity.
    pub multiplier: f64,
    /// What the simulator reported.
    pub report: PhaseReport,
    /// Offered minus (completed + violated + shed).
    pub lost: i64,
}

/// One variant across the sweep.
pub struct VariantResult {
    /// Report key.
    pub name: &'static str,
    /// Whether its classes carry quality ladders.
    pub ladder: bool,
    /// One entry per [`LOAD_POINTS`] element.
    pub loads: Vec<LoadResult>,
}

impl VariantResult {
    fn gate(&self) -> &PhaseReport {
        &self.loads[GATE_POINT].report
    }
}

fn run_variant(variant: &Variant) -> VariantResult {
    // The dynamic-heavy package: frequency scaling pays.
    let package = Package::dynamic_heavy();
    let loads = LOAD_POINTS
        .iter()
        .enumerate()
        .map(|(point, &multiplier)| {
            let env = ExecutionEnv::new(
                package.model,
                (variant.governor)(&package),
                Some(package.sleep),
                TransitionCost::typical(),
                WORKERS,
            );
            let mut sim = Simulator::new(
                SimConfig {
                    workers: WORKERS,
                    base_service_nanos: SERVICE_NANOS,
                    panic_per_mille: PANIC_PER_MILLE,
                    seed: SEED ^ ((point as u64) << 8),
                    admission: AdmissionConfig::default(),
                    budget: None,
                },
                classes(variant.ladder, SERVICE_NANOS),
                env,
            );
            // Poisson arrivals with per-arrival class picks, identical
            // across variants.
            let schedule_seed = SEED.wrapping_add(point as u64);
            let offsets = ArrivalPattern::Poisson {
                rate_per_sec: CAPACITY_RPS * multiplier,
            }
            .schedule(schedule_seed, REQUESTS);
            let schedule = with_classes(offsets, schedule_seed ^ 0xc1a5_5e5e_ed00_0001);
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
        .collect();
    VariantResult {
        name: variant.name,
        ladder: variant.ladder,
        loads,
    }
}

/// The three variants, exact-only / ladder / adaptive.
pub struct Report {
    /// One entry per variant.
    pub variants: Vec<VariantResult>,
}

/// Replay the sweep.
pub fn run() -> Report {
    Report {
        variants: VARIANTS.iter().map(run_variant).collect(),
    }
}

/// The lowest load multiplier at which `pick` first returns a non-zero
/// count, or `None` if it never does.
fn first_engagement(loads: &[LoadResult], pick: fn(&LoadResult) -> u64) -> Option<f64> {
    loads
        .iter()
        .find(|point| pick(point) > 0)
        .map(|point| point.multiplier)
}

/// No request lost anywhere; ladders degrade before they shed and do
/// degrade at 1.5×; there adaptive beats exact-only on p99 and on joules per
/// completed request.
pub fn invariant_errors(report: &Report) -> Vec<String> {
    let mut errors = Vec::new();
    for variant in &report.variants {
        let name = variant.name;
        for point in &variant.loads {
            if point.lost != 0 {
                errors.push(format!(
                    "{name} at {}x: {} requests lost (accounting identity broken)",
                    point.multiplier, point.lost
                ));
            }
        }
        if !variant.ladder {
            continue;
        }
        let downgrade_at = first_engagement(&variant.loads, |p| p.report.stats.downgraded);
        let shed_at = first_engagement(&variant.loads, |p| p.report.stats.shed);
        match (downgrade_at, shed_at) {
            (None, Some(shed)) => errors.push(format!(
                "{name}: sheds at {shed}x without ever downgrading — degrade-first violated"
            )),
            (Some(down), Some(shed)) if down > shed => errors.push(format!(
                "{name}: first shed at {shed}x precedes first downgrade at {down}x"
            )),
            _ => {}
        }
        if variant.gate().stats.downgraded == 0 {
            errors.push(format!(
                "{name}: no tier downgrade at 1.5x load — graceful degradation not engaging"
            ));
        }
    }
    let (exact, adaptive) = (report.variants[0].gate(), report.variants[2].gate());
    let (exact_p99, adaptive_p99) = (
        exact.stats.latency.quantile(0.99),
        adaptive.stats.latency.quantile(0.99),
    );
    if adaptive_p99 > exact_p99 {
        errors.push(format!(
            "adaptive p99 at 1.5x ({adaptive_p99} ns) exceeds exact-only ({exact_p99} ns)"
        ));
    }
    let (exact_jpc, adaptive_jpc) = (
        exact.joules_per_completed(),
        adaptive.joules_per_completed(),
    );
    if adaptive_jpc >= exact_jpc {
        errors.push(format!(
            "adaptive joules/completed at 1.5x ({adaptive_jpc:.6}) not below exact-only \
             ({exact_jpc:.6})"
        ));
    }
    errors
}

fn load_json(point: &LoadResult) -> Json {
    let stats = &point.report.stats;
    Json::object([
        ("multiplier", point.multiplier.into()),
        ("offered", stats.offered.into()),
        ("completed", stats.completed.into()),
        ("shed", stats.shed.into()),
        ("violations", stats.violations().into()),
        ("late", stats.late.into()),
        ("retries_exhausted", stats.retries_exhausted.into()),
        ("budget_exhausted", stats.budget_exhausted.into()),
        ("retries", stats.retries.into()),
        ("downgraded", stats.downgraded.into()),
        ("lost", point.lost.into()),
        ("goodput", fixed(stats.goodput(), 4)),
        (
            "completed_by_tier",
            Json::array(stats.completed_by_tier.iter().map(|&count| count.into())),
        ),
        ("p50_nanos", stats.latency.quantile(0.5).into()),
        ("p99_nanos", stats.latency.quantile(0.99).into()),
        ("mean_nanos", fixed(stats.latency.mean(), 0)),
        ("joules", fixed(point.report.joules, 6)),
        (
            "joules_per_completed",
            fixed(point.report.joules_per_completed(), 9),
        ),
        ("wall_nanos", point.report.wall_nanos.into()),
    ])
}

fn variant_json(variant: &VariantResult) -> Json {
    let name = variant.name;
    Json::object([
        ("quality_ladder".to_string(), variant.ladder.into()),
        (
            "loads".to_string(),
            Json::array(variant.loads.iter().map(load_json)),
        ),
        (
            format!("{name}_p99_nanos_at_1_5x"),
            variant.gate().stats.latency.quantile(0.99).into(),
        ),
        (
            format!("{name}_joules_per_completed_at_1_5x"),
            fixed(variant.gate().joules_per_completed(), 9),
        ),
    ])
}

/// The report as `tests/golden/serving.json` spells it.
pub fn to_json(report: &Report) -> Json {
    let admission = AdmissionConfig::default();
    Json::object([
        ("benchmark", "serving_bench".into()),
        (
            "description",
            "open-loop serving sweep (0.5x-2x capacity, faults armed): admission control with \
             tier-downgrade-before-shed, retry/timeout budgets, and SLO-vs-joules comparison of \
             exact-only vs ladder vs adaptive serving"
                .into(),
        ),
        ("workers", WORKERS.into()),
        ("requests_per_load_point", REQUESTS.into()),
        ("base_service_nanos", SERVICE_NANOS.into()),
        ("capacity_rps", fixed(CAPACITY_RPS, 0)),
        ("panic_per_mille", PANIC_PER_MILLE.into()),
        ("seed", SEED.into()),
        (
            "load_points",
            // The golden spells whole multipliers `1.0`, not `1`.
            Json::array(LOAD_POINTS.map(|m| Json::Number(format!("{m:?}")))),
        ),
        (
            "admission",
            Json::object([
                ("queue_watermark", admission.queue_watermark.into()),
                ("downgrade_start", admission.downgrade_start.into()),
                ("shed_start", admission.shed_start.into()),
                ("shed_full", admission.shed_full.into()),
                (
                    "max_shed_significance",
                    admission.max_shed_significance.into(),
                ),
            ]),
        ),
        (
            "variants",
            Json::object(report.variants.iter().map(|v| (v.name, variant_json(v)))),
        ),
        (
            "metadata",
            Json::object([(
                "note",
                "the variant sweep is a deterministic virtual-time simulation (seeded arrivals, \
                 faults, and backoff; energy priced through the runtime's ExecutionEnv) and \
                 reproduces bit-identically on any host. lost = offered - (completed + \
                 violations + shed) and must always be 0."
                    .into(),
            )]),
        ),
    ])
}
