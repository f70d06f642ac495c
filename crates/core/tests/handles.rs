//! Integration tests for the serving-facing core primitives: spawn handles
//! resolving to terminal outcomes, cancellation through a token, and the
//! per-level shed histogram.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use sig_core::{CancelToken, ExecutionMode, FaultPlan, Policy, Runtime, TaskOutcome};

/// Spin until `gate` is released — keeps a worker busy without sleeping so
/// queued tasks stay queued deterministically.
fn hold(gate: &Arc<AtomicBool>) {
    while !gate.load(Ordering::Acquire) {
        std::hint::spin_loop();
    }
}

#[test]
fn handle_resolves_with_value_on_completion() {
    let rt = Runtime::builder().workers(2).build();
    let handle = rt.submit(|| 21 * 2).significance(0.5).spawn();
    assert_eq!(
        handle.wait(),
        TaskOutcome::Completed(ExecutionMode::Accurate)
    );
    assert_eq!(handle.take_value(), Some(42));
    assert!(handle.finished_at().is_some());
}

#[test]
fn handle_resolves_panicked_under_fault_injection() {
    // per-mille 1000: every task draws an injected panic.
    let rt = Runtime::builder()
        .workers(2)
        .fault_plan(FaultPlan::new(7).panics(1000))
        .build();
    let handle = rt.submit(|| 1u32).spawn();
    assert_eq!(handle.wait(), TaskOutcome::Panicked);
    assert_eq!(handle.take_value(), None, "panicked task yields no value");
    let outcomes = rt.wait_all();
    assert_eq!(outcomes.panicked, 1);
}

#[test]
fn handle_resolves_cancelled_via_token() {
    let rt = Runtime::builder().workers(1).build();
    let gate = Arc::new(AtomicBool::new(false));
    let g = gate.clone();
    rt.task(move || hold(&g)).spawn();

    // Queued behind the gate: the cancel lands before dequeue, and reaches
    // only the task that carries the token.
    let token = CancelToken::new();
    let cancelled = rt.submit(|| 1u32).cancel_token(&token).spawn();
    let kept = rt.submit(|| 2u32).spawn();
    token.cancel();
    gate.store(true, Ordering::Release);

    assert_eq!(cancelled.wait(), TaskOutcome::Cancelled);
    assert_eq!(
        cancelled.take_value(),
        None,
        "cancelled task yields no value"
    );
    assert_eq!(kept.wait(), TaskOutcome::Completed(ExecutionMode::Accurate));
    assert_eq!(kept.take_value(), Some(2));
    let outcomes = rt.wait_all();
    assert_eq!(outcomes.cancelled, 1);
    assert_eq!(outcomes.spawned, outcomes.completed + outcomes.cancelled);
}

#[test]
fn brownout_shed_resolves_handles_and_fills_level_histogram() {
    let rt = Runtime::builder()
        .workers(1)
        .policy(Policy::Lqh)
        .queue_watermark(4)
        .build();
    let group = rt.create_group("shed", 0.0);
    let gate = Arc::new(AtomicBool::new(false));
    let g = gate.clone();
    rt.task(move || hold(&g)).spawn();

    // A deep backlog of sub-critical, approximate-tier (ratio 0.0) tasks:
    // once the overload tick recomputes the threshold, the controller sheds
    // strictly lowest-significance-first.
    let mut handles = Vec::new();
    for i in 0..400u32 {
        let significance = 0.1 + 0.2 * ((i % 3) as f64) / 10.0;
        handles.push(
            rt.submit(|| ())
                .group(&group)
                .significance(significance)
                .spawn(),
        );
    }
    gate.store(true, Ordering::Release);
    let outcomes = rt.wait_all();

    assert!(outcomes.shed > 0, "deep backlog over watermark must shed");
    assert_eq!(
        outcomes.shed_by_level.total(),
        outcomes.shed as u64,
        "histogram mass equals the aggregate shed count"
    );
    let shed_handles = handles
        .iter()
        .filter(|h| h.try_outcome() == Some(TaskOutcome::Shed))
        .count();
    assert_eq!(shed_handles, outcomes.shed, "every shed task resolved Shed");
    let highest = outcomes.shed_by_level.highest_level().unwrap();
    assert!(
        highest.to_significance().value() < 1.0,
        "critical tasks are never shed"
    );
    assert_eq!(
        outcomes.spawned,
        outcomes.completed + outcomes.cancelled + outcomes.panicked + outcomes.shed
    );
}
