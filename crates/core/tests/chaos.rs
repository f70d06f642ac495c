//! Deterministic chaos suite: drive every policy through a mixed workload
//! under seeded fault injection (body panics, worker stalls, dilated
//! execution) combined with overload shedding, deadlines and mid-stream
//! cancellation, then audit the runtime's robustness invariants:
//!
//! * **no deadlock / no lost wakeups** — every barrier returns;
//! * **exactly-once accounting** — after a barrier,
//!   `spawned == completed + cancelled + panicked + shed`;
//! * **liveness** — the runtime still executes fresh work after the storm.
//!
//! Determinism is the point: each round is a pure function of
//! `(policy, seed)` via [`FaultPlan`], so a failure reproduces exactly.
//!
//! The non-`#[ignore]` tests are a small tier-1 smoke subset. The full
//! matrix (4 policies x 8 seeds) runs in CI as a dedicated chaos step:
//! `cargo test -p sig-core --release --test chaos -- --ignored`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sig_core::{BatchTask, CancelToken, DepKey, FaultPlan, Policy, Runtime};

const POLICIES: [Policy; 4] = [
    Policy::SignificanceAgnostic,
    Policy::Gtb { buffer_size: 16 },
    Policy::GtbMaxBuffer,
    Policy::Lqh,
];

/// One chaos round: four waves of mixed work (plain significance spread,
/// dependence chains, a cancelled batch plus a cancelled token stream,
/// nested spawns) under a seeded fault plan, followed by the accounting
/// audit and a liveness probe.
fn chaos_round(policy: Policy, seed: u64, wave: usize) {
    let rt = Arc::new(
        Runtime::builder()
            .workers(4)
            .policy(policy)
            // Half the seeds run genuinely overloaded (tiny watermark), the
            // other half keep the controller armed but out of reach.
            .queue_watermark(if seed.is_multiple_of(2) {
                32
            } else {
                1_000_000
            })
            .deadline_miss_watermark(0.9)
            .fault_plan(
                FaultPlan::new(seed)
                    .panics(150)
                    .stalls(50, Duration::from_micros(200))
                    .dilation(100, Duration::from_micros(100)),
            )
            .build(),
    );
    let group = rt.create_group("chaos", 0.5);

    // Wave 1: plain tasks across the significance spectrum, a third of them
    // with deadlines tight enough to miss under stalls and dilation.
    for i in 0..wave {
        rt.task(|| {})
            .approx(|| {})
            .significance((i % 10) as f64 / 10.0)
            .group(&group)
            .deadline(Duration::from_millis(if i % 3 == 0 { 1 } else { 10_000 }))
            .spawn();
    }

    // Wave 2: dependence chains over a handful of keys. Injected panics
    // poison keys mid-chain; downstream tasks must still run (poison is
    // data-flow metadata, not a scheduling block).
    let keys: Vec<DepKey> = (0..4)
        .map(|k| DepKey::named(&format!("chaos-{seed}-{k}")))
        .collect();
    for i in 0..wave / 2 {
        rt.task(|| {})
            .reads([keys[i % keys.len()]])
            .writes([keys[(i + 1) % keys.len()]])
            .significance(1.0)
            .spawn();
    }

    // Wave 3a: a whole batch cancelled through its token right after
    // injection.
    let doomed = CancelToken::new();
    rt.batch()
        .group(&group)
        .cancel_token(&doomed)
        .spawn_tasks((0..wave).map(|i| BatchTask::new(|| {}).significance((i % 10) as f64 / 10.0)));
    doomed.cancel();

    // Wave 3b: a token-carrying stream cancelled mid-flight.
    let token = CancelToken::new();
    for _ in 0..wave / 2 {
        rt.task(|| {})
            .cancel_token(&token)
            .significance(0.2)
            .spawn();
    }
    token.cancel();

    // Wave 4: nested spawns from inside executing bodies (the parents may
    // themselves draw injected panics, in which case the children never
    // exist — the books must balance either way).
    for _ in 0..8 {
        let rt2 = rt.clone();
        rt.task(move || {
            rt2.task(|| {}).significance(0.9).spawn();
        })
        .significance(1.0)
        .spawn();
    }

    // No deadlock, no lost wakeups: the barrier returns. Exactly-once
    // accounting: every spawned task reached exactly one terminal outcome.
    let summary = rt.wait_all();
    assert_eq!(
        summary.completed + summary.cancelled + summary.panicked + summary.shed,
        summary.spawned,
        "{policy:?} seed {seed}: books must balance: {summary:?}"
    );
    assert!(
        summary.spawned >= wave,
        "{policy:?} seed {seed}: {summary:?}"
    );

    // Liveness: the runtime still runs fresh work after the storm. The
    // probes themselves are subject to fault injection, so several are
    // spawned and at least one must actually execute; the books must still
    // balance afterwards.
    let after = Arc::new(AtomicUsize::new(0));
    for _ in 0..16 {
        let a = after.clone();
        rt.task(move || {
            a.fetch_add(1, Ordering::Relaxed);
        })
        .significance(1.0)
        .spawn();
    }
    let summary = rt.wait_all();
    assert!(
        after.load(Ordering::Relaxed) >= 1,
        "{policy:?} seed {seed}: no probe survived"
    );
    assert_eq!(
        summary.completed + summary.cancelled + summary.panicked + summary.shed,
        summary.spawned,
        "{policy:?} seed {seed}: books must balance after probes: {summary:?}"
    );
}

// ---- Tier-1 smoke subset (fast, always on) -------------------------------

#[test]
fn chaos_smoke_agnostic() {
    for seed in [1, 2] {
        chaos_round(Policy::SignificanceAgnostic, seed, 150);
    }
}

#[test]
fn chaos_smoke_gtb_max_buffer() {
    for seed in [1, 2] {
        chaos_round(Policy::GtbMaxBuffer, seed, 150);
    }
}

// ---- Full matrix (CI chaos step: `--ignored`) ----------------------------

#[test]
#[ignore = "full chaos matrix; run via the CI chaos step or --ignored"]
fn chaos_matrix_all_policies_eight_seeds() {
    for policy in POLICIES {
        for seed in 0..8 {
            chaos_round(policy, seed, 400);
        }
    }
}

#[test]
#[ignore = "full chaos matrix; run via the CI chaos step or --ignored"]
fn chaos_matrix_panic_storm() {
    // A harsher plan: nearly half of all tasks die. The runtime must keep
    // its books and its liveness regardless.
    for policy in POLICIES {
        let rt = Runtime::builder()
            .workers(4)
            .policy(policy)
            .fault_plan(FaultPlan::new(7).panics(450))
            .build();
        let group = rt.create_group("storm", 0.5);
        for i in 0..2000 {
            rt.task(|| {})
                .approx(|| {})
                .significance((i % 10) as f64 / 10.0)
                .group(&group)
                .spawn();
        }
        let summary = rt.wait_all();
        assert_eq!(
            summary.completed + summary.cancelled + summary.panicked + summary.shed,
            summary.spawned,
            "{policy:?}: {summary:?}"
        );
        assert!(summary.panicked > 0, "{policy:?}: {summary:?}");
    }
}
