//! Task-record recycling under load: records retired by workers are blanked
//! and refilled by later spawns (see `runtime/recycle.rs`, `HuskPool`).
//! Whatever a record held before, every task must still run exactly one of
//! its bodies exactly once — from two spawner threads, from inside task
//! bodies, under every policy — and footprint tasks, whose records come
//! back through the dependence tracker on whichever thread registers next,
//! must still run in dependence order.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use sig_core::{DepKey, Policy, Runtime, TaskGroup};

const TASKS: usize = 200_000;
/// A parent task spawns this many children from inside its body.
const CHILDREN: usize = 3;

/// Spawn task `index`, which marks its slot whichever body runs.
fn spawn_leaf(rt: &Runtime, group: &TaskGroup, slots: &Arc<Vec<AtomicU8>>, index: usize) {
    let (accurate, approximate) = (slots.clone(), slots.clone());
    rt.task(move || {
        accurate[index].fetch_add(1, Ordering::Relaxed);
    })
    .approx(move || {
        approximate[index].fetch_add(1, Ordering::Relaxed);
    })
    .significance(((index % 9) + 1) as f64 / 10.0)
    .group(group)
    .spawn();
}

#[test]
fn recycled_records_run_every_task_exactly_once_under_every_policy() {
    for policy in [
        Policy::SignificanceAgnostic,
        Policy::Gtb { buffer_size: 16 },
        Policy::GtbMaxBuffer,
        Policy::Lqh,
    ] {
        let rt = Arc::new(Runtime::builder().workers(4).policy(policy).build());
        let group = rt.create_group("recycle", 0.5);
        let slots: Arc<Vec<AtomicU8>> = Arc::new((0..TASKS).map(|_| AtomicU8::new(0)).collect());

        std::thread::scope(|scope| {
            for half in 0..2 {
                let (rt, group, slots) = (&rt, &group, &slots);
                scope.spawn(move || {
                    let range = half * TASKS / 2..(half + 1) * TASKS / 2;
                    for parent in range.step_by(1 + CHILDREN) {
                        // The parent marks its own slot and spawns its
                        // children from the worker that runs it, out of that
                        // worker's own stash of retired records.
                        let nested = {
                            let (rt, group, slots) = (rt.clone(), group.clone(), slots.clone());
                            move || {
                                slots[parent].fetch_add(1, Ordering::Relaxed);
                                for child in parent + 1..=parent + CHILDREN {
                                    spawn_leaf(&rt, &group, &slots, child);
                                }
                            }
                        };
                        rt.task(nested.clone())
                            .approx(nested)
                            .significance(((parent % 9) + 1) as f64 / 10.0)
                            .group(group)
                            .spawn();
                    }
                });
            }
        });
        let outcomes = rt.wait_all();

        let wrong: Vec<usize> = (0..TASKS)
            .filter(|&index| slots[index].load(Ordering::Relaxed) != 1)
            .take(8)
            .collect();
        assert!(
            wrong.is_empty(),
            "{policy:?}: slots not run exactly once: {wrong:?}"
        );
        assert_eq!(outcomes.spawned, TASKS, "{policy:?}");
        assert_eq!(outcomes.completed, TASKS, "{policy:?}");
        assert_eq!(outcomes.failed(), 0, "{policy:?}: {outcomes:?}");
        assert_eq!(rt.group_stats(&group).total(), TASKS, "{policy:?}");
    }
}

const CELLS: usize = 64;
/// Tasks between two barriers, so husks are freed and warmed up again.
const WINDOW: usize = 50 * CELLS;
/// Every fourth ring task spawns one child: four fifths of the slots are
/// ring tasks, the rest their children.
const RING_TASKS: usize = TASKS / 5 * 4;
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// Even sweeps write (cell `i` from itself and both neighbours), odd sweeps
/// read (cell `i` into a commutative checksum): the sigbench `sched_deps`
/// shape.
fn is_writer_sweep(task: usize) -> bool {
    (task / CELLS).is_multiple_of(2)
}

fn ring_step(ring: &[AtomicU64], checksum: &AtomicU64, task: usize) {
    let i = task % CELLS;
    let cell = |i: usize| ring[i % CELLS].load(Ordering::Relaxed);
    if is_writer_sweep(task) {
        let next = cell(i)
            .wrapping_mul(MULTIPLIER)
            .wrapping_add(cell(i + CELLS - 1))
            .wrapping_add(cell(i + 1));
        ring[i].store(next, Ordering::Relaxed);
    } else {
        checksum.fetch_add(cell(i).wrapping_mul(task as u64 + 1), Ordering::Relaxed);
    }
}

#[test]
fn recycled_footprint_records_keep_dependence_order_under_every_policy() {
    let new_ring = || -> Vec<AtomicU64> { (1..=CELLS as u64).map(AtomicU64::new).collect() };
    let (want_ring, want_checksum) = (new_ring(), AtomicU64::new(0));
    for task in 0..RING_TASKS {
        ring_step(&want_ring, &want_checksum, task);
    }

    for policy in [
        Policy::SignificanceAgnostic,
        Policy::Gtb { buffer_size: 16 },
        Policy::GtbMaxBuffer,
        Policy::Lqh,
    ] {
        let rt = Arc::new(Runtime::builder().workers(4).policy(policy).build());
        let group = rt.create_group("ring", 0.5);
        let keys: [DepKey; CELLS] =
            std::array::from_fn(|i| DepKey::element(DepKey::named("ring"), i));
        let child_keys: [DepKey; CELLS] =
            std::array::from_fn(|i| DepKey::element(DepKey::named("ring-children"), i));
        let ring = Arc::new(new_ring());
        let checksum = Arc::new(AtomicU64::new(0));
        // Children of one cell all write that cell's child key, so they run
        // one after another in whatever order their parents registered
        // them: the plain load-then-store below loses no increment.
        let child_cells: Arc<Vec<AtomicU64>> =
            Arc::new((0..CELLS).map(|_| AtomicU64::new(0)).collect());
        let slots: Arc<Vec<AtomicU8>> = Arc::new((0..TASKS).map(|_| AtomicU8::new(0)).collect());

        for task in 0..RING_TASKS {
            let i = task % CELLS;
            let body = {
                let (rt, group) = (rt.clone(), group.clone());
                let (ring, checksum) = (ring.clone(), checksum.clone());
                let (child_cells, slots) = (child_cells.clone(), slots.clone());
                move || {
                    slots[task].fetch_add(1, Ordering::Relaxed);
                    ring_step(&ring, &checksum, task);
                    if task.is_multiple_of(4) {
                        // Registered from the worker, out of its own stash.
                        let child = {
                            let (child_cells, slots) = (child_cells.clone(), slots.clone());
                            move || {
                                slots[RING_TASKS + task / 4].fetch_add(1, Ordering::Relaxed);
                                let seen = child_cells[i].load(Ordering::Relaxed);
                                child_cells[i].store(seen + 1, Ordering::Relaxed);
                            }
                        };
                        rt.task(child.clone())
                            .approx(child)
                            .significance(((task % 9) + 1) as f64 / 10.0)
                            .group(&group)
                            .writes([child_keys[i]])
                            .spawn();
                    }
                }
            };
            let builder = rt
                .task(body.clone())
                .approx(body)
                .significance(((task % 9) + 1) as f64 / 10.0)
                .group(&group);
            if is_writer_sweep(task) {
                builder
                    .reads([keys[(i + CELLS - 1) % CELLS], keys[(i + 1) % CELLS]])
                    .writes([keys[i]])
                    .spawn();
            } else {
                builder.reads([keys[i]]).spawn();
            }
            if (task + 1).is_multiple_of(WINDOW) {
                rt.wait_all();
            }
        }
        let outcomes = rt.wait_all();

        let wrong: Vec<usize> = (0..TASKS)
            .filter(|&index| slots[index].load(Ordering::Relaxed) != 1)
            .take(8)
            .collect();
        assert!(
            wrong.is_empty(),
            "{policy:?}: slots not run exactly once: {wrong:?}"
        );
        let same_ring = ring
            .iter()
            .zip(&want_ring)
            .all(|(got, want)| got.load(Ordering::Relaxed) == want.load(Ordering::Relaxed));
        assert!(same_ring, "{policy:?}: ring differs from the serial replay");
        assert_eq!(
            checksum.load(Ordering::Relaxed),
            want_checksum.load(Ordering::Relaxed),
            "{policy:?}: a reader ran between the wrong pair of writers"
        );
        for (i, cell) in child_cells.iter().enumerate() {
            let want = (i..RING_TASKS)
                .step_by(CELLS)
                .filter(|task| task.is_multiple_of(4))
                .count();
            assert_eq!(cell.load(Ordering::Relaxed), want as u64, "{policy:?}");
        }
        assert_eq!(outcomes.spawned, TASKS, "{policy:?}");
        assert_eq!(outcomes.completed, TASKS, "{policy:?}");
        assert_eq!(outcomes.failed(), 0, "{policy:?}: {outcomes:?}");
    }
}

#[test]
fn builders_dropped_unspawned_count_nothing_and_leak_nothing() {
    let rt = Runtime::builder().workers(2).build();
    let key = DepKey::named("unspawned");
    let witness = Arc::new(());
    for i in 0..20_000 {
        let (accurate, approximate) = (witness.clone(), witness.clone());
        let builder = rt
            .task(move || drop(accurate))
            .approx(move || drop(approximate))
            .reads([key])
            .writes([DepKey::element(key, i)]);
        drop(builder);
        // The next spawn on this thread refills the record the dropped
        // builder held; the keys it was given must not come along.
        if i % 2 == 0 {
            rt.task(|| {}).reads([key]).spawn();
        }
    }
    // Nobody registered a write: this returns at once.
    rt.wait_on(DepKey::element(key, 7));
    let outcomes = rt.wait_all();
    assert_eq!(outcomes.spawned, 10_000);
    assert_eq!(outcomes.completed, 10_000);
    assert_eq!(rt.outstanding_tasks(), 0);
    assert_eq!(Arc::strong_count(&witness), 1, "bodies of dropped builders");
}
