//! Standalone micro-loops of the traced run: a million calls each over the
//! same public functions the workloads reach through the simulators and the
//! runtime, with seeded inputs. They price one call of a layer in isolation,
//! so a change to that layer can be predicted before it is looked for in an
//! end-to-end number.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sig_cluster::{ClusterDispatcher, DispatchPolicy, RouteCandidate};
use sig_core::{
    AdaptiveGovernor, BudgetConfig, BudgetController, BudgetTarget, DispatchContext,
    EnergyBreakdown, EnergyReading, ExecutionEnv, ExecutionMode, Governor, NominalGovernor, Policy,
    Significance, SignificanceLadderGovernor, SleepState, SplitEstimator, TransitionCost,
};
use sig_kernels::common::score_against;
use sig_quality::QualityMetric;
use sig_serving::{AdmissionConfig, AdmissionController, LatencySketch, SplitMix64};

use crate::workloads::serving_sim::{classes, ladder_steps, power_model, SERVICE_NANOS, WORKERS};
use crate::workloads::{Ctx, Layers};

/// Calls per micro-loop at timing size.
const CALLS: usize = 1_000_000;
/// Seeded inputs are drawn once into a table this long and cycled through,
/// so input generation stays outside the timed loop.
const TABLE: usize = 4096;

fn ns_per_call(calls: usize, start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e9 / calls as f64
}

pub fn layers(ctx: &Ctx, out: &mut Layers) {
    let calls = ctx.scaled(CALLS);
    for (name, ns) in env_ns(ctx.seed, calls) {
        out.put(format!("core.env.{name}.ns"), ns);
    }
    out.put("energy.budget_observe.ns", budget_observe_ns(calls));
    out.put("energy.split_push.ns", split_push_ns(ctx.seed, calls));
    let (psnr, relerr) = quality_ns_per_elem(ctx.seed, calls);
    out.put("quality.psnr.ns_per_elem", psnr);
    out.put("quality.relerr.ns_per_elem", relerr);
    out.put("serving.admission.ns", admission_ns(ctx.seed, calls));
    let (record, quantile) = sketch_ns(ctx.seed, calls);
    out.put("serving.sketch_record.ns", record);
    out.put("serving.sketch_quantile.ns", quantile);
    out.put(
        "cluster.route.aware.ns",
        route_ns(ctx.seed, calls, DispatchPolicy::SignificanceAware),
    );
    out.put(
        "cluster.route.round_robin.ns",
        route_ns(ctx.seed, calls, DispatchPolicy::RoundRobin),
    );
}

/// `ExecutionEnv::dispatch` plus `record` per pair under three governors,
/// and `report` per call, over a seeded significance/mode sequence.
fn env_ns(seed: u64, calls: usize) -> Vec<(&'static str, f64)> {
    let mut rng = SplitMix64::new(seed ^ 0xe4f0_0000_0000_0005);
    let inputs: Vec<(f64, bool)> = (0..TABLE)
        .map(|_| {
            let r = rng.next_u64();
            ((r % 101) as f64 / 100.0, r >> 32 & 1 == 0)
        })
        .collect();
    let governors: [(&str, Arc<dyn Governor>); 3] = [
        ("nominal", Arc::new(NominalGovernor)),
        (
            "ladder",
            Arc::new(SignificanceLadderGovernor::new(ladder_steps())),
        ),
        (
            "adaptive",
            Arc::new(AdaptiveGovernor::new(
                &power_model(),
                SleepState::shallow(),
                ladder_steps(),
                4,
                SERVICE_NANOS as f64 * 1e-9,
            )),
        ),
    ];
    let busy = Duration::from_nanos(SERVICE_NANOS);
    let mut results = Vec::new();
    let mut filled = None;
    for (name, governor) in governors {
        let env = ExecutionEnv::new(
            power_model(),
            governor,
            Some(SleepState::shallow()),
            TransitionCost::typical(),
            WORKERS,
        );
        let start = Instant::now();
        for i in 0..calls {
            let (significance, accurate) = inputs[i % TABLE];
            let worker = i % WORKERS;
            let decision = env.dispatch(
                worker,
                &DispatchContext {
                    worker,
                    significance: Significance::new(significance),
                    accurate,
                    policy: Policy::Lqh,
                    group_ratio: 0.5,
                    deadline_pressure: false,
                },
            );
            let mode = if accurate {
                ExecutionMode::Accurate
            } else {
                ExecutionMode::Approximate
            };
            env.record(worker, mode, busy, decision);
        }
        results.push((name, ns_per_call(calls, start)));
        filled = Some(env);
    }
    // `report` folds the shards the same way under any governor: time it on
    // the last environment, whose shards the loop above has filled.
    let env = filled.expect("three governors ran");
    let reports = (calls / 10).max(1);
    let start = Instant::now();
    for i in 0..reports {
        black_box(env.report(1.0 + i as f64, WORKERS).reading());
    }
    results.push(("report", ns_per_call(reports, start)));
    results
}

/// `BudgetController::observe` per call, fed a steadily growing reading
/// that overspends a joule budget, so the feedback path does real work.
fn budget_observe_ns(calls: usize) -> f64 {
    let horizon = calls as f64 * 1e-3;
    let mut controller = BudgetController::new(BudgetConfig::new(BudgetTarget::TotalJoules {
        joules: horizon * 10.0,
        horizon_seconds: horizon,
    }));
    let start = Instant::now();
    for i in 1..=calls {
        let t = i as f64 * 1e-3;
        let reading = EnergyReading::from_breakdown(
            t,
            t * 2.0,
            EnergyBreakdown {
                static_joules: t * 4.0,
                dynamic_joules: t * 8.0,
                ..Default::default()
            },
        );
        black_box(controller.observe(t, black_box(&reading)));
    }
    ns_per_call(calls, start)
}

/// `SplitEstimator::push` per call over seeded deltas.
fn split_push_ns(seed: u64, calls: usize) -> f64 {
    let mut rng = SplitMix64::new(seed ^ 0x5b11_7000_0000_0006);
    let deltas: Vec<(f64, f64, f64)> = (0..TABLE)
        .map(|_| {
            let wall = 1e-3 * (1.0 + rng.next_f64());
            let busy = wall * 4.0 * rng.next_f64();
            (wall, busy, wall * 4.0 + busy * 6.6)
        })
        .collect();
    let mut estimator = SplitEstimator::new(0.97);
    let start = Instant::now();
    for i in 0..calls {
        let (wall, busy, joules) = deltas[i % TABLE];
        estimator.push(black_box(wall), busy, joules);
    }
    black_box(estimator.split());
    ns_per_call(calls, start)
}

/// `score_against` per element under both quality metrics, on seeded
/// vectors of `calls` elements.
fn quality_ns_per_elem(seed: u64, calls: usize) -> (f64, f64) {
    let mut rng = SplitMix64::new(seed ^ 0x9a11_7000_0000_0007);
    let reference: Vec<f64> = (0..calls).map(|_| 255.0 * rng.next_f64()).collect();
    let candidate: Vec<f64> = reference.iter().map(|r| r + rng.next_f64() - 0.5).collect();
    let time = |metric: QualityMetric| {
        let start = Instant::now();
        black_box(score_against(metric, black_box(&reference), &candidate));
        ns_per_call(calls, start)
    };
    (
        time(QualityMetric::PsnrInverse),
        time(QualityMetric::RelativeError),
    )
}

/// `AdmissionController::decide` plus `observe`, per pair, over a seeded
/// walk of queue depths that crosses the downgrade and shed bands.
fn admission_ns(seed: u64, calls: usize) -> f64 {
    let classes = classes();
    let mut rng = SplitMix64::new(seed ^ 0xad31_5510_0000_0003);
    let inputs: Vec<(usize, usize, u64, bool)> = (0..TABLE)
        .map(|_| {
            let r = rng.next_u64();
            (
                (r % 3) as usize,
                (r >> 8) as usize % 128,
                SERVICE_NANOS / 4 + (r >> 20) % SERVICE_NANOS,
                (r >> 60) == 0,
            )
        })
        .collect();
    let mut controller = AdmissionController::new(AdmissionConfig::default());
    let start = Instant::now();
    for i in 0..calls {
        let (class, depth, service, missed) = inputs[i % TABLE];
        black_box(controller.decide(&classes[class], depth));
        controller.observe(service, missed);
    }
    black_box(controller.pressure());
    ns_per_call(calls, start)
}

/// `LatencySketch::record` per call, and `quantile` per call on the filled
/// sketch.
fn sketch_ns(seed: u64, calls: usize) -> (f64, f64) {
    let mut rng = SplitMix64::new(seed ^ 0x5ce7_c400_0000_0004);
    let latencies: Vec<u64> = (0..TABLE)
        .map(|_| (rng.next_exp(1.0 / 2e6) as u64).max(1))
        .collect();
    let mut sketch = LatencySketch::new();
    let start = Instant::now();
    for i in 0..calls {
        sketch.record(black_box(latencies[i % TABLE]));
    }
    let record = ns_per_call(calls, start);
    let queries = (calls / 100).max(1);
    let start = Instant::now();
    for i in 0..queries {
        let q = 0.5 + 0.499 * (i % 100) as f64 / 100.0;
        black_box(sketch.quantile(black_box(q)));
    }
    (record, ns_per_call(queries, start))
}

/// `ClusterDispatcher::route` per call over 96 seeded candidates, a tenth
/// of them down and a third frequency-capped.
fn route_ns(seed: u64, calls: usize, policy: DispatchPolicy) -> f64 {
    let mut rng = SplitMix64::new(seed ^ 0x4075_e000_0000_0008);
    let candidates: Vec<RouteCandidate> = (0..96)
        .map(|index| {
            let r = rng.next_u64();
            RouteCandidate {
                index,
                up: !r.is_multiple_of(10),
                depth: (r >> 8) as usize % 8,
                load_ewma: (r >> 16) as usize as f64 % 8.0,
                allowed: (r >> 24) as usize % 3,
                freq_cap: if (r >> 32).is_multiple_of(3) {
                    0.6
                } else {
                    1.0
                },
            }
        })
        .collect();
    let significances: Vec<f64> = (0..TABLE).map(|_| rng.next_f64()).collect();
    let mut dispatcher = ClusterDispatcher::new(policy);
    let calls = calls / 10; // a route scans the fleet: ~100x a scalar call
    let start = Instant::now();
    for i in 0..calls {
        black_box(dispatcher.route(black_box(&candidates), significances[i % TABLE]));
    }
    ns_per_call(calls.max(1), start)
}
