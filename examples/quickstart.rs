//! Quickstart: the significance programming model in ~40 lines.
//!
//! Run with `cargo run --example quickstart`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use significance_repro::prelude::*;

fn main() {
    // A runtime with the Global Task Buffering policy and a bounded buffer.
    // The governor runs approximate tasks at 60% modelled frequency, so the
    // energy report below prices them as slower but cheaper (DVFS).
    let rt = Runtime::builder()
        .policy(Policy::Gtb { buffer_size: 16 })
        .governor(SignificanceLadderGovernor::single_step(0.6))
        .build();

    // A task group whose barrier will require at least 40% of the tasks to
    // run their accurate body.
    let group = rt.create_group("quickstart", 0.4);

    let accurate_runs = Arc::new(AtomicUsize::new(0));
    let approx_runs = Arc::new(AtomicUsize::new(0));

    for i in 0..100u32 {
        let acc = accurate_runs.clone();
        let apx = approx_runs.clone();
        rt.task(move || {
            // The accurate body: the full computation.
            acc.fetch_add(1, Ordering::Relaxed);
        })
        .approx(move || {
            // The approximate body: a cheaper substitute.
            apx.fetch_add(1, Ordering::Relaxed);
        })
        // Higher significance = more important for output quality.
        .significance(((i % 9) + 1) as f64 / 10.0)
        .group(&group)
        .spawn();
    }

    // The barrier enforces the group's accurate-task ratio.
    rt.wait_group(&group);

    let stats = rt.group_stats(&group);
    println!("tasks executed      : {}", stats.total());
    println!("accurate            : {}", stats.accurate);
    println!("approximate         : {}", stats.approximate);
    println!("dropped             : {}", stats.dropped);
    println!("achieved ratio      : {:.2}", stats.achieved_ratio());
    println!("significance inversions: {}", stats.inverted);

    // The execution environment accounted every dispatch: how many tasks ran
    // below nominal frequency, and what the run cost under the power model.
    let report = rt.energy_report();
    let reading = report.reading();
    println!("DVFS-scaled tasks   : {}", report.scaled_tasks());
    println!("modelled energy     : {:.3} J", reading.joules);
    println!(
        "  dynamic           : {:.3} J",
        reading.breakdown.dynamic_joules
    );
    println!(
        "  static + idle     : {:.3} J",
        reading.breakdown.static_joules + reading.breakdown.idle_joules
    );

    assert_eq!(stats.total(), 100);
    assert!(stats.achieved_ratio() >= 0.4);
    assert_eq!(
        report.scaled_tasks() as usize,
        stats.approximate + stats.dropped
    );
    assert!(reading.joules > 0.0);
}
