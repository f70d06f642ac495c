//! Scheduler concurrency stress tests.
//!
//! Guards the lock-free hot path: the `claim_enqueue` exactly-once invariant
//! (no task executed twice or lost), dependence ordering under load (through
//! both the locked and the read-mostly tracker paths), the per-group
//! accurate-ratio invariants of all four policies, the park/unpark wakeup
//! protocol under multi-threaded spawning, and the batched spawn pipeline
//! (mixed `spawn`/`spawn_batch` callers, steal-half redistribution).
//!
//! No assertion reads a clock. The one sleep (2 ms before a flood, so the
//! workers park first) only makes a lost wake likelier to show, as a hang.
//! The assertions are identities on counts (exactly-once execution, the
//! outcome books, GTB-Max's exact ratio) or bounds that spawn order alone
//! decides (GTB's ratio band), with two exceptions that are bounds on
//! counts the interleaving decides: LQH's achieved ratio, which follows
//! each worker's history, and the share of single-key reads the tracker
//! resolves on its lock-free path under writer churn.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use significance_repro::prelude::*;

const STRESS_TASKS: usize = 100_000;

fn policies() -> [Policy; 4] {
    [
        Policy::SignificanceAgnostic,
        Policy::Gtb { buffer_size: 16 },
        Policy::GtbMaxBuffer,
        Policy::Lqh,
    ]
}

#[test]
fn stress_tasks_execute_exactly_once_under_every_policy() {
    for policy in policies() {
        let rt = Runtime::builder().workers(8).policy(policy).build();
        let group = rt.create_group("stress", 0.5);
        let executions = Arc::new(AtomicUsize::new(0));
        for i in 0..STRESS_TASKS {
            let acc = executions.clone();
            let apx = executions.clone();
            rt.task(move || {
                acc.fetch_add(1, Ordering::Relaxed);
            })
            .approx(move || {
                apx.fetch_add(1, Ordering::Relaxed);
            })
            .significance(((i % 9) + 1) as f64 / 10.0)
            .group(&group)
            .spawn();
        }
        rt.wait_group(&group);
        let stats = rt.group_stats(&group);

        // Exactly-once execution: every task ran exactly one of its bodies.
        assert_eq!(
            executions.load(Ordering::Relaxed),
            STRESS_TASKS,
            "{policy:?}: lost or duplicated executions"
        );
        assert_eq!(stats.total(), STRESS_TASKS, "{policy:?}: stats disagree");
        assert_eq!(stats.dropped, 0, "{policy:?}: nothing should be dropped");
        assert_eq!(rt.outcomes().spawned, STRESS_TASKS);
        assert_eq!(rt.stats().completed(), STRESS_TASKS);

        // Per-policy accurate-ratio invariants at ratio 0.5 over significances
        // uniformly drawn from {0.1, ..., 0.9}.
        let achieved = stats.achieved_ratio();
        match policy {
            Policy::SignificanceAgnostic => {
                assert_eq!(stats.accurate, STRESS_TASKS, "agnostic runs all accurately");
            }
            Policy::GtbMaxBuffer => {
                // Perfect information: exact up to ceil rounding, no inversions.
                assert_eq!(stats.accurate, STRESS_TASKS / 2);
                assert_eq!(stats.inverted, 0);
            }
            Policy::Gtb { .. } => {
                assert!(
                    (achieved - 0.5).abs() < 0.1,
                    "GTB achieved ratio {achieved} too far from 0.5"
                );
            }
            Policy::Lqh => {
                assert!(
                    (0.2..=0.8).contains(&achieved),
                    "LQH achieved ratio {achieved} implausible for request 0.5"
                );
            }
        }
    }
}

#[test]
fn stress_mixed_spawn_and_spawn_batch_execute_exactly_once() {
    // 100k tasks per policy, spawned through a mix of callers: per-task
    // `spawn`, `spawn_batch` floods of varying batch sizes, and batches
    // spawned from *inside* a task body (the worker-local deque batch
    // publish). Exactly-once must hold across all of them.
    for policy in policies() {
        let rt = Arc::new(Runtime::builder().workers(8).policy(policy).build());
        let group = rt.create_group("mixed", 0.5);
        let executions = Arc::new(AtomicUsize::new(0));
        let mut spawned = 0usize;
        let mut batch_toggle = 0usize;
        while spawned < STRESS_TASKS - 1_000 {
            // Alternate a per-task burst with a batched flood.
            if batch_toggle.is_multiple_of(2) {
                for i in 0..100 {
                    let acc = executions.clone();
                    let apx = executions.clone();
                    rt.task(move || {
                        acc.fetch_add(1, Ordering::Relaxed);
                    })
                    .approx(move || {
                        apx.fetch_add(1, Ordering::Relaxed);
                    })
                    .significance(((i % 9) + 1) as f64 / 10.0)
                    .group(&group)
                    .spawn();
                }
                spawned += 100;
            } else {
                let batch = [16usize, 64, 256, 900][batch_toggle % 4];
                let executions = &executions;
                let ids = rt.batch().group(&group).spawn_tasks((0..batch).map(|i| {
                    let acc = executions.clone();
                    let apx = executions.clone();
                    BatchTask::new(move || {
                        acc.fetch_add(1, Ordering::Relaxed);
                    })
                    .approx(move || {
                        apx.fetch_add(1, Ordering::Relaxed);
                    })
                    .significance(((i % 9) + 1) as f64 / 10.0)
                }));
                assert_eq!(ids.len(), batch);
                spawned += batch;
            }
            batch_toggle += 1;
        }
        // Top up to exactly STRESS_TASKS with a batch spawned from inside a
        // worker (exercises the local-deque batch publish + steal-half).
        let remainder = STRESS_TASKS - spawned;
        {
            let rt2 = rt.clone();
            let group2 = group.clone();
            let executions2 = executions.clone();
            rt.task(move || {
                rt2.batch()
                    .group(&group2)
                    .spawn_tasks((0..remainder - 1).map(|i| {
                        let acc = executions2.clone();
                        let apx = executions2.clone();
                        BatchTask::new(move || {
                            acc.fetch_add(1, Ordering::Relaxed);
                        })
                        .approx(move || {
                            apx.fetch_add(1, Ordering::Relaxed);
                        })
                        .significance(((i % 9) + 1) as f64 / 10.0)
                    }));
            })
            .approx({
                let executions = executions.clone();
                move || {
                    let _ = executions;
                }
            })
            .significance(1.0)
            .group(&group)
            .spawn();
        }
        rt.wait_group(&group);
        let stats = rt.group_stats(&group);
        // The seeder task itself runs one body but does not bump
        // `executions`; every other task bumps exactly once.
        assert_eq!(
            executions.load(Ordering::Relaxed),
            STRESS_TASKS - 1,
            "{policy:?}: lost or duplicated executions across mixed callers"
        );
        assert_eq!(stats.total(), STRESS_TASKS, "{policy:?}: stats disagree");
        assert_eq!(rt.outcomes().spawned, STRESS_TASKS);
        assert_eq!(rt.stats().completed(), STRESS_TASKS);
        assert_eq!(rt.outcomes().panicked, 0);
    }
}

#[test]
fn stress_dependence_chains_preserve_order_under_load() {
    const CHAINS: usize = 200;
    const LENGTH: usize = 250;
    for policy in [
        Policy::SignificanceAgnostic,
        Policy::Gtb { buffer_size: 64 },
        Policy::Lqh,
    ] {
        let rt = Runtime::builder().workers(8).policy(policy).build();
        let group = rt.create_group("chains", 1.0);
        let base = DepKey::named("chain-stress");
        let positions: Arc<Vec<AtomicUsize>> =
            Arc::new((0..CHAINS).map(|_| AtomicUsize::new(0)).collect());
        let violations = Arc::new(AtomicUsize::new(0));
        for link in 0..LENGTH {
            for chain in 0..CHAINS {
                let key = DepKey::element(base, chain);
                let positions = positions.clone();
                let violations = violations.clone();
                rt.task(move || {
                    let seen = positions[chain].fetch_add(1, Ordering::SeqCst);
                    if seen != link {
                        violations.fetch_add(1, Ordering::SeqCst);
                    }
                })
                .significance(1.0)
                .group(&group)
                .reads([key])
                .writes([key])
                .spawn();
            }
        }
        rt.wait_group(&group);
        assert_eq!(
            violations.load(Ordering::SeqCst),
            0,
            "{policy:?}: dependence order violated"
        );
        for chain in 0..CHAINS {
            assert_eq!(
                positions[chain].load(Ordering::SeqCst),
                LENGTH,
                "{policy:?}: chain {chain} lost tasks"
            );
        }
        assert_eq!(rt.outcomes().panicked, 0);
    }
}

#[test]
fn stress_critical_and_negligible_invariants_hold() {
    for policy in [
        Policy::Gtb { buffer_size: 32 },
        Policy::GtbMaxBuffer,
        Policy::Lqh,
    ] {
        let rt = Runtime::builder().workers(8).policy(policy).build();
        let group = rt.create_group("classes", 0.4);
        let critical_accurate = Arc::new(AtomicUsize::new(0));
        let negligible_accurate = Arc::new(AtomicUsize::new(0));
        let mut critical_total = 0usize;
        for i in 0..30_000usize {
            let (sig, counter) = match i % 3 {
                0 => {
                    critical_total += 1;
                    (1.0, critical_accurate.clone())
                }
                1 => (0.0, negligible_accurate.clone()),
                _ => (0.5, Arc::new(AtomicUsize::new(0))),
            };
            rt.task(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            })
            .approx(|| {})
            .significance(sig)
            .group(&group)
            .spawn();
        }
        rt.wait_group(&group);
        assert_eq!(
            critical_accurate.load(Ordering::Relaxed),
            critical_total,
            "{policy:?}: every significance-1.0 task must run its accurate body"
        );
        assert_eq!(
            negligible_accurate.load(Ordering::Relaxed),
            0,
            "{policy:?}: no significance-0.0 task may run its accurate body"
        );
    }
}

#[test]
fn stress_concurrent_spawners_lose_no_wakeups() {
    // Four spawner threads hammer the runtime at once: exercises the
    // mailbox push CAS from many producers and the sleep/wake Dekker
    // protocol (a lost wakeup hangs this test; the seed's check-then-wait
    // race was exactly that bug).
    const SPAWNERS: usize = 4;
    const PER_SPAWNER: usize = 25_000;
    let rt = Runtime::builder()
        .workers(8)
        .policy(Policy::SignificanceAgnostic)
        .build();
    let executions = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|scope| {
        for _ in 0..SPAWNERS {
            let rt = &rt;
            let executions = executions.clone();
            scope.spawn(move || {
                for _ in 0..PER_SPAWNER {
                    let counter = executions.clone();
                    rt.task(move || {
                        counter.fetch_add(1, Ordering::Relaxed);
                    })
                    .spawn();
                }
            });
        }
    });
    rt.wait_all();
    assert_eq!(executions.load(Ordering::Relaxed), SPAWNERS * PER_SPAWNER);
    assert_eq!(rt.stats().completed(), SPAWNERS * PER_SPAWNER);
}

#[test]
fn stress_read_mostly_tracker_orders_readers_and_writers() {
    // Drives the read-mostly last-writer table end to end: writer tasks
    // advance a key's epoch through the locked path while swarms of
    // single-key read-only tasks register through the lock-free fast path.
    // RAW: every reader must observe the value of the writer generation it
    // was spawned after. WAR: a writer must not run before every reader of
    // the previous generation finished.
    const GENERATIONS: usize = 40;
    const READERS_PER_GEN: usize = 25;
    for policy in [Policy::SignificanceAgnostic, Policy::Lqh] {
        let rt = Runtime::builder().workers(8).policy(policy).build();
        let key = DepKey::named("read-mostly");
        let value = Arc::new(AtomicUsize::new(0));
        let readers_done = Arc::new(AtomicUsize::new(0));
        let war_violations = Arc::new(AtomicUsize::new(0));
        let raw_violations = Arc::new(AtomicUsize::new(0));
        for generation in 0..GENERATIONS {
            {
                let value = value.clone();
                let readers_done = readers_done.clone();
                let war_violations = war_violations.clone();
                rt.task(move || {
                    // WAR: all readers of earlier generations completed.
                    if readers_done.load(Ordering::SeqCst) != generation * READERS_PER_GEN {
                        war_violations.fetch_add(1, Ordering::SeqCst);
                    }
                    value.store(generation + 1, Ordering::SeqCst);
                })
                .significance(1.0)
                .writes([key])
                .spawn();
            }
            for _ in 0..READERS_PER_GEN {
                let value = value.clone();
                let readers_done = readers_done.clone();
                let raw_violations = raw_violations.clone();
                // Single in-key, no out-keys: the lock-free fast path.
                rt.task(move || {
                    // RAW: the writer of this generation already ran. (Later
                    // writers may have run too, so >= not ==.)
                    if value.load(Ordering::SeqCst) < generation + 1 {
                        raw_violations.fetch_add(1, Ordering::SeqCst);
                    }
                    readers_done.fetch_add(1, Ordering::SeqCst);
                })
                .significance(1.0)
                .reads([key])
                .spawn();
            }
        }
        rt.wait_all();
        assert_eq!(
            raw_violations.load(Ordering::SeqCst),
            0,
            "{policy:?}: a fast-path reader ran before its writer"
        );
        assert_eq!(
            war_violations.load(Ordering::SeqCst),
            0,
            "{policy:?}: a writer ran before the previous readers finished"
        );
        assert_eq!(
            readers_done.load(Ordering::SeqCst),
            GENERATIONS * READERS_PER_GEN
        );
        assert_eq!(rt.outcomes().panicked, 0);
    }
}

#[test]
fn stress_multi_key_read_only_footprints_keep_ordered_locks_and_single_key_stays_fast() {
    // Regression test for the PR 3 read-mostly tracker restriction:
    // multi-key read-only footprints must fall back to ordered
    // whole-footprint locking (non-atomic per-key registration could wire
    // dependence cycles — this test is the deadlock bait: concurrent
    // spawner threads register overlapping multi-key read footprints with
    // their keys declared in *opposing* orders while writers churn the same
    // keys), and single-key read-only footprints must keep resolving on the
    // lock-free fast path throughout that churn.
    const SPAWNERS: usize = 4;
    const GENERATIONS: usize = 40;
    const SINGLES_PER_GEN: usize = 5;
    let rt = Runtime::builder()
        .workers(8)
        .policy(Policy::SignificanceAgnostic)
        .build();
    let keys = [
        DepKey::named("ordered-a"),
        DepKey::named("ordered-b"),
        DepKey::named("ordered-c"),
    ];
    let values: Arc<Vec<AtomicUsize>> =
        Arc::new((0..keys.len()).map(|_| AtomicUsize::new(0)).collect());
    let stamp_source = Arc::new(AtomicUsize::new(0));
    let raw_violations = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|scope| {
        for spawner in 0..SPAWNERS {
            let rt = &rt;
            let values = values.clone();
            let stamp_source = stamp_source.clone();
            let raw_violations = raw_violations.clone();
            scope.spawn(move || {
                for generation in 0..GENERATIONS {
                    // Writer: advances every key to a fresh global stamp
                    // through the locked multi-key path.
                    let stamp = stamp_source.fetch_add(1, Ordering::SeqCst) + 1;
                    {
                        let values = values.clone();
                        rt.task(move || {
                            for value in values.iter() {
                                value.fetch_max(stamp, Ordering::SeqCst);
                            }
                        })
                        .writes(keys)
                        .spawn();
                    }
                    // Multi-key read-only footprint, key order rotated per
                    // spawner and generation so concurrent registrants
                    // declare overlapping keys in opposing orders — the
                    // dependence-cycle bait the ordered locking defuses.
                    // RAW: registration happened after this thread's writer
                    // registration, so every key must already carry `stamp`.
                    {
                        let values = values.clone();
                        let raw_violations = raw_violations.clone();
                        let rotation = (spawner + generation) % keys.len();
                        let mut footprint = keys.to_vec();
                        footprint.rotate_left(rotation);
                        rt.task(move || {
                            for value in values.iter() {
                                if value.load(Ordering::SeqCst) < stamp {
                                    raw_violations.fetch_add(1, Ordering::SeqCst);
                                }
                            }
                        })
                        .reads(footprint)
                        .spawn();
                    }
                    // Single-key read-only footprints: the lock-free fast
                    // path, racing the writer churn above.
                    for single in 0..SINGLES_PER_GEN {
                        let values = values.clone();
                        let raw_violations = raw_violations.clone();
                        let index = single % keys.len();
                        rt.task(move || {
                            if values[index].load(Ordering::SeqCst) < stamp {
                                raw_violations.fetch_add(1, Ordering::SeqCst);
                            }
                        })
                        .reads([keys[index]])
                        .spawn();
                    }
                }
            });
        }
    });
    rt.wait_all();
    assert_eq!(
        raw_violations.load(Ordering::SeqCst),
        0,
        "a read-only footprint ran before the writer it was registered after"
    );
    assert_eq!(rt.outcomes().panicked, 0);
    // The fast-path counter proves the split: every fast resolution was a
    // single-key read (multi-key footprints must never count), and the
    // overwhelming majority of single-key reads stayed lock-free despite
    // the concurrent writer churn (first-touch and reclamation-drain
    // fallbacks account for the slack).
    let singles = SPAWNERS * GENERATIONS * SINGLES_PER_GEN;
    let fast = rt.tracker_fast_path_reads();
    assert!(
        fast <= singles,
        "fast-path count {fast} exceeds the {singles} single-key reads — a multi-key \
         footprint took the lock-free path"
    );
    assert!(
        fast >= singles / 2,
        "only {fast} of {singles} single-key reads resolved lock-free under writer churn"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Steal-half batch stealing neither duplicates nor drops tasks: a
    /// flood is seeded onto one worker's deque (spawned from inside a task
    /// body, so every task lands local), thieves redistribute it in
    /// steal-half chunks, and every task must still execute exactly once.
    #[test]
    fn batch_stealing_never_duplicates_or_drops(
        workers in 2usize..8,
        flood in 1usize..3_000,
        batch in 1usize..512,
    ) {
        let rt = Arc::new(
            Runtime::builder()
                .workers(workers)
                .policy(Policy::SignificanceAgnostic)
                .build(),
        );
        let executions = Arc::new(AtomicUsize::new(0));
        {
            let rt2 = rt.clone();
            let executions = executions.clone();
            rt.task(move || {
                // Runs on a worker: every batch goes to that worker's own
                // deque in one publish; the other workers can only get work
                // by batch stealing.
                let mut remaining = flood;
                while remaining > 0 {
                    let n = remaining.min(batch);
                    let executions = &executions;
                    rt2.spawn_batch((0..n).map(|_| {
                        let counter = executions.clone();
                        BatchTask::new(move || {
                            counter.fetch_add(1, Ordering::Relaxed);
                        })
                    }));
                    remaining -= n;
                }
            })
            .spawn();
        }
        rt.wait_all();
        prop_assert_eq!(executions.load(Ordering::Relaxed), flood);
        prop_assert_eq!(rt.stats().completed(), flood + 1);
        prop_assert_eq!(rt.outcomes().spawned, flood + 1);
        prop_assert_eq!(rt.outcomes().panicked, 0);
    }
}

#[test]
fn stress_nested_wait_inside_batched_flood_does_not_hang() {
    // Regression guard for the coalesced batch wake: a batch lands chunks
    // on several *parked* workers but wakes only one; a task then blocks in
    // a nested group barrier whose satisfying tasks sit on the still-parked
    // workers. Barrier entry must hand off a wake so the pool keeps
    // draining (a lost wake here hangs this test).
    for _ in 0..50 {
        let rt = Arc::new(
            Runtime::builder()
                .workers(4)
                .policy(Policy::SignificanceAgnostic)
                .build(),
        );
        let group = rt.create_group("inner", 1.0);
        // Give the workers time to park before the flood arrives.
        std::thread::sleep(Duration::from_millis(2));
        let done = Arc::new(AtomicUsize::new(0));
        {
            let counter = done.clone();
            rt.batch().group(&group).spawn_tasks((0..64).map(move |_| {
                let c = counter.clone();
                BatchTask::new(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                })
            }));
        }
        {
            let rt2 = rt.clone();
            let group2 = group.clone();
            rt.task(move || {
                rt2.wait_group(&group2);
            })
            .spawn();
        }
        rt.wait_all();
        assert_eq!(done.load(Ordering::Relaxed), 64);
    }
}

#[test]
fn stress_repeated_barrier_cycles_do_not_hang() {
    // Many tiny spawn/wait cycles stress the event-count barrier's
    // register-then-recheck protocol (each cycle parks and wakes workers).
    let rt = Runtime::builder().workers(8).policy(Policy::Lqh).build();
    let group = rt.create_group("cycles", 1.0);
    let executions = Arc::new(AtomicUsize::new(0));
    for cycle in 0..500usize {
        for _ in 0..16 {
            let counter = executions.clone();
            rt.task(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            })
            .significance(1.0)
            .group(&group)
            .spawn();
        }
        rt.wait_group(&group);
        assert_eq!(executions.load(Ordering::Relaxed), (cycle + 1) * 16);
    }
}
