//! Task-record recycling under load: records retired by workers are blanked
//! and refilled by later spawns (see `runtime.rs`, `HuskPool`). Whatever a
//! record held before, every task must still run exactly one of its bodies
//! exactly once — from two spawner threads, from inside task bodies, under
//! every policy.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use sig_core::{Policy, Runtime, TaskGroup};

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
        assert!(outcomes.is_clean(), "{policy:?}: {outcomes:?}");
        assert_eq!(rt.group_stats(&group).total(), TASKS, "{policy:?}");
    }
}
