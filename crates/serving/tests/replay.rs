//! Replay identity of the virtual-time [`Simulator`]: a run is a pure
//! function of `(config, classes, schedule)`, and the order it replays a
//! schedule in is the schedule's `(offset, position)` order however the
//! caller happened to lay it out.

use std::sync::Arc;
use std::time::Duration;

use sig_core::{
    ExecutionEnv, FrequencyScale, PowerModel, SignificanceLadderGovernor, SleepState,
    TransitionCost,
};
use sig_serving::{
    ArrivalPattern, PhaseReport, QualityTier, RequestClass, RetryPolicy, SimConfig, Simulator,
    SplitMix64,
};

const WORKERS: usize = 4;

/// Critical (never degrades), standard and background (three-rung ladders).
fn classes() -> Vec<RequestClass> {
    let deadline = Duration::from_millis(20);
    let retry = RetryPolicy {
        max_retries: 2,
        base_backoff: Duration::from_micros(250),
        jitter: 0.3,
    };
    let ladder = |name: &str, significance: f64| RequestClass {
        name: name.into(),
        tiers: [(1.0, 1.0), (0.6, 0.5), (0.3, 0.25)]
            .map(|(keep, work_factor)| QualityTier {
                significance: significance * keep,
                work_factor,
            })
            .to_vec(),
        deadline,
        retry,
    };
    vec![
        RequestClass::exact("critical", 1.0, deadline, retry),
        ladder("standard", 0.7),
        ladder("background", 0.3),
    ]
}

/// Seeded Poisson arrivals with seeded class picks (20/50/30).
fn schedule(rate: f64, count: usize, seed: u64) -> Vec<(u64, usize)> {
    let offsets = ArrivalPattern::Poisson { rate_per_sec: rate }.schedule(seed, count);
    let mut rng = SplitMix64::new(seed ^ 0x7e91_a7ed_5eed_0001);
    offsets
        .into_iter()
        .map(|at| {
            let class = match rng.next_u64() % 10 {
                0 | 1 => 0,
                2..=6 => 1,
                _ => 2,
            };
            (at, class)
        })
        .collect()
}

/// 4 workers × 1 ms service (4000 rps), 150‰ transient panics, a
/// significance-ladder governor over a DVFS ladder with sleep and transition
/// costs priced: every code path of the simulator moves the fingerprint.
fn storm_sim() -> Simulator {
    let steps = FrequencyScale::ladder(4, 0.4)
        .into_iter()
        .map(|s| FrequencyScale::with_exponent(s.ratio(), 2.4))
        .collect();
    let env = ExecutionEnv::new(
        PowerModel::for_host(),
        Arc::new(SignificanceLadderGovernor::new(steps)),
        Some(SleepState::shallow()),
        TransitionCost::typical(),
        WORKERS,
    );
    let config = SimConfig {
        workers: WORKERS,
        panic_per_mille: 150,
        seed: 0x5e1f_5a3e,
        ..SimConfig::default()
    };
    Simulator::new(config, classes(), env)
}

/// Every simulated figure of a phase, floats by bit pattern.
fn fingerprint(report: &PhaseReport) -> String {
    let s = &report.stats;
    format!(
        "offered={} completed={} shed={} late={} retries_exhausted={} budget_exhausted={} \
         retries={} downgraded={} p50={} p99={} wall={} joules={:016x}",
        s.offered,
        s.completed,
        s.shed,
        s.late,
        s.retries_exhausted,
        s.budget_exhausted,
        s.retries,
        s.downgraded,
        s.latency.quantile(0.50),
        s.latency.quantile(0.99),
        report.wall_nanos,
        report.joules.to_bits(),
    )
}

/// Seeded Fisher–Yates.
fn shuffled(schedule: &[(u64, usize)], seed: u64) -> Vec<(u64, usize)> {
    let mut out = schedule.to_vec();
    let mut rng = SplitMix64::new(seed);
    for i in (1..out.len()).rev() {
        out.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    out
}

/// The storm's fingerprints as captured at the commit before the event
/// queue grew its arrival lane and the request table its free list: any
/// reordering of events, draws or float sums shows up here, in tier-1.
#[test]
fn seeded_storm_replays_the_pinned_fingerprints() {
    let mut sim = storm_sim();
    let calm = sim.run(&schedule(2_400.0, 2_000, 31));
    let storm = sim.run(&schedule(6_000.0, 12_000, 32));
    assert!(calm.stats.balanced() && storm.stats.balanced());
    assert!(storm.stats.retries > 0 && storm.stats.downgraded > 0);
    assert_eq!(fingerprint(&calm), PINNED_CALM);
    assert_eq!(fingerprint(&storm), PINNED_STORM);
}

const PINNED_CALM: &str = "offered=2000 completed=1993 shed=0 late=0 retries_exhausted=7 \
    budget_exhausted=0 retries=350 downgraded=1 p50=1015807 p99=3145727 wall=828313953 \
    joules=403fc531350ae881";
const PINNED_STORM: &str = "offered=12000 completed=11829 shed=114 late=18 retries_exhausted=39 \
    budget_exhausted=0 retries=1964 downgraded=9505 p50=4849663 p99=14155775 wall=1991310804 \
    joules=4054eff32b646dfa";

/// `run` documents an ascending schedule but accepts any: an out-of-order
/// one replays exactly as its stable-sorted form — in the first phase and,
/// with a non-zero phase start, in the second.
#[test]
fn shuffled_schedule_replays_as_its_sorted_form() {
    let first = schedule(6_000.0, 3_000, 41);
    let second = schedule(5_000.0, 3_000, 42);
    let mut sorted_sim = storm_sim();
    let mut shuffled_sim = storm_sim();
    for (index, phase) in [&first, &second].into_iter().enumerate() {
        assert_eq!(shuffled_sim.now() > 0, index > 0, "phase start");
        let mixed = shuffled(phase, 7 + index as u64);
        assert_ne!(&mixed, phase);
        let expected = sorted_sim.run(phase);
        let got = shuffled_sim.run(&mixed);
        assert_eq!(fingerprint(&got), fingerprint(&expected));
    }
}
