//! Integration tests of the programming model itself: pragma-style macros,
//! dependences, group barriers and ratio semantics, exercised through the
//! workspace façade crate exactly as a downstream user would.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use significance_repro::core::{task, taskwait, DepKey, SharedGrid};
use significance_repro::prelude::*;

#[test]
fn pragma_style_pipeline_with_dependencies() {
    let rt = Runtime::builder().workers(4).policy(Policy::Lqh).build();
    let stage_a = DepKey::named("stage-a");
    let stage_b = DepKey::named("stage-b");
    let log = Arc::new(std::sync::Mutex::new(Vec::new()));

    // Producer -> transformer -> consumer, wired purely through in/out keys.
    {
        let log = log.clone();
        task!(
            rt,
            out([stage_a]),
            body(move || log.lock().unwrap().push("produce"))
        );
    }
    {
        let log = log.clone();
        task!(rt, in([stage_a]), out([stage_b]), body(move || {
            log.lock().unwrap().push("transform")
        }));
    }
    {
        let log = log.clone();
        task!(rt, in([stage_b]), body(move || log.lock().unwrap().push("consume")));
    }
    taskwait!(rt);

    assert_eq!(
        *log.lock().unwrap(),
        vec!["produce", "transform", "consume"]
    );
}

#[test]
fn ratio_at_group_barrier_controls_accuracy_mix() {
    let rt = Runtime::builder()
        .workers(4)
        .policy(Policy::GtbMaxBuffer)
        .build();
    let group = rt.create_group("mix", 1.0);
    let accurate = Arc::new(AtomicUsize::new(0));
    let approximate = Arc::new(AtomicUsize::new(0));
    for i in 0..60u32 {
        let acc = accurate.clone();
        let apx = approximate.clone();
        task!(
            rt,
            significant(((i % 9) + 1) as f64 / 10.0),
            approxfun(move || {
                apx.fetch_add(1, Ordering::Relaxed);
            }),
            label(&group),
            body(move || {
                acc.fetch_add(1, Ordering::Relaxed);
            })
        );
    }
    taskwait!(rt, label(&group), ratio(0.25));
    assert_eq!(accurate.load(Ordering::Relaxed), 15);
    assert_eq!(approximate.load(Ordering::Relaxed), 45);
    let stats = rt.group_stats(&group);
    assert_eq!(
        stats.inverted, 0,
        "GTB Max-Buffer never inverts significance"
    );
}

#[test]
fn shared_grid_rows_written_by_parallel_tasks() {
    let rt = Runtime::builder().workers(4).build();
    let grid: SharedGrid<u32> = SharedGrid::new(32, 64, 0);
    let group = rt.create_group("grid", 1.0);
    for row in 0..32 {
        let mut writer = grid.row_writer(row);
        rt.task(move || {
            for (i, cell) in writer.as_mut_slice().iter_mut().enumerate() {
                *cell = (row * 1000 + i) as u32;
            }
        })
        .group(&group)
        .spawn();
    }
    rt.wait_group(&group);
    let data = grid.snapshot();
    assert_eq!(data[0], 0);
    assert_eq!(data[5 * 64 + 3], 5003);
    assert_eq!(data[31 * 64 + 63], 31063);
}

#[test]
fn special_significance_values_are_unconditional() {
    let rt = Runtime::builder()
        .workers(2)
        .policy(Policy::GtbMaxBuffer)
        .build();
    let group = rt.create_group("special", 0.5);
    let critical_ran = Arc::new(AtomicUsize::new(0));
    let negligible_ran = Arc::new(AtomicUsize::new(0));
    for _ in 0..10 {
        let c = critical_ran.clone();
        rt.task(move || {
            c.fetch_add(1, Ordering::Relaxed);
        })
        .approx(|| {})
        .significance(1.0)
        .group(&group)
        .spawn();
        let n = negligible_ran.clone();
        rt.task(move || {
            n.fetch_add(1, Ordering::Relaxed);
        })
        .approx(|| {})
        .significance(0.0)
        .group(&group)
        .spawn();
    }
    rt.wait_group(&group);
    assert_eq!(critical_ran.load(Ordering::Relaxed), 10);
    assert_eq!(negligible_ran.load(Ordering::Relaxed), 0);
}

#[test]
fn unannotated_tasks_behave_like_a_plain_task_runtime() {
    // Without significance annotations and without ratios, the runtime is an
    // ordinary task-parallel runtime: everything runs accurately.
    let rt = Runtime::builder().policy(Policy::Lqh).build();
    let counter = Arc::new(AtomicUsize::new(0));
    for _ in 0..200 {
        let c = counter.clone();
        rt.task(move || {
            c.fetch_add(1, Ordering::Relaxed);
        })
        .spawn();
    }
    rt.wait_all();
    assert_eq!(counter.load(Ordering::Relaxed), 200);
    assert_eq!(rt.stats().accurate(), 200);
    assert_eq!(rt.stats().approximate() + rt.stats().dropped(), 0);
}
