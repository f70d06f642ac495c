//! The metric tables: every name this benchmark reports, with its unit and
//! direction, and for end-to-end metrics the bound by which the median may
//! worsen before a change counts as a regression. `BENCHMARK.json` at the
//! root of the repository repeats these tables: it is the output of
//! `sigbench --manifest`, and a unit test in `main.rs` keeps the two in step.

use crate::workloads::kernels;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// By what share of `base` is `value` worse (negative when better).
    pub fn worse_by(self, base: f64, value: f64) -> f64 {
        match self {
            Better::Higher => (base - value) / base.abs(),
            Better::Lower => (value - base) / base.abs(),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

#[derive(Debug, Clone, PartialEq)]
pub struct EndToEnd {
    pub metric: Metric,
    /// Share of the baseline median the metric may worsen by.
    pub bound: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, better: Better) -> Metric {
    Metric {
        name: name.into(),
        unit,
        better,
    }
}

/// What a user of the system sees, measured with tracing off. Every
/// workload reports all of them; the README says what an operation is on
/// each.
pub fn end_to_end() -> Vec<EndToEnd> {
    use Better::*;
    [
        ("ops_per_s", "1/s", Higher, 0.25),
        ("cpu_ns_per_op", "ns", Lower, 0.25),
        ("joules_per_op", "J", Lower, 0.25),
        ("goodput_frac", "frac", Higher, 0.02),
        ("peak_rss_mb", "MB", Lower, 0.10),
        ("setup_s", "s", Lower, 0.25),
    ]
    .into_iter()
    .map(|(name, unit, better, bound)| EndToEnd {
        metric: metric(name, unit, better),
        bound,
    })
    .collect()
}

/// Single-layer metrics of the traced run, named by crate.
pub fn per_layer() -> Vec<Metric> {
    use Better::*;
    let mut table = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: Better| {
        table.push(metric(name, unit, better));
    };
    // sig-core, from sched_fine-shaped passes.
    add("core.spawn.ns_per_task", "ns", Lower);
    add("core.drain.ns_per_task", "ns", Lower);
    add("core.spawn_batch.ns_per_task", "ns", Lower);
    add("core.barrier.ns", "ns", Lower);
    add("core.build_drop.us", "us", Lower);
    add("core.policy.agnostic.ns_per_task", "ns", Lower);
    add("core.policy.gtb.ns_per_task", "ns", Lower);
    add("core.policy.gtb_max.ns_per_task", "ns", Lower);
    add("core.policy.lqh.ns_per_task", "ns", Lower);
    add("core.governed.ns_per_task", "ns", Lower);
    add("core.budget_on.ns_per_task", "ns", Lower);
    add("core.robust_inert.ns_per_task", "ns", Lower);
    add("core.steals_per_ktask", "count", Lower);
    add("core.buffer_flushes", "count", Lower);
    add("core.vol_ctx_per_ktask", "count", Lower);
    add("core.ratio_error", "frac", Lower);
    add("core.inversion_pct", "%", Lower);
    // sig-core, from sched_deps-shaped passes.
    add("core.deps.read1.ns_per_task", "ns", Lower);
    add("core.deps.multi.ns_per_task", "ns", Lower);
    add("core.deps.fast_path_frac", "frac", Higher);
    // sig-kernels.
    for key in kernels::KEYS {
        add(&format!("kernels.{key}.serial_s"), "s", Lower);
        add(&format!("kernels.{key}.accurate_s"), "s", Lower);
        add(&format!("kernels.{key}.sig_s"), "s", Lower);
        add(&format!("kernels.{key}.outside_s"), "s", Lower);
        add(&format!("kernels.{key}.busy_frac"), "frac", Higher);
        add(&format!("kernels.{key}.quality"), "score", Lower);
        add(&format!("kernels.{key}.tasks"), "count", Lower);
    }
    add("kernels.sig_wall_s", "s", Lower);
    add("kernels.accurate_wall_s", "s", Lower);
    add("kernels.energy_saving_frac", "frac", Higher);
    add("kernels.policy_overhead", "ratio", Lower);
    add("kernels.quality_ok_frac", "frac", Higher);
    // sig-serving.
    add("serving.schedule.ns_per_arrival", "ns", Lower);
    add("serving.sim.ns_per_request.load0_7", "ns", Lower);
    add("serving.sim.ns_per_request.load1_5", "ns", Lower);
    add("serving.sim.ns_per_attempt", "ns", Lower);
    add("serving.retries", "count", Lower);
    add("serving.shed", "count", Lower);
    add("serving.downgraded", "count", Lower);
    add("serving.violations", "count", Lower);
    add("serving.goodput", "frac", Higher);
    add("serving.joules_per_completed", "J", Lower);
    add("serving.p99_ms", "ms", Lower);
    // sig-cluster.
    add("cluster.sim.ns_per_request.n6", "ns", Lower);
    add("cluster.sim.ns_per_request.n24", "ns", Lower);
    add("cluster.sim.ns_per_request.n96", "ns", Lower);
    add("cluster.sim.ns_per_request.round_robin", "ns", Lower);
    add("cluster.sim.ns_per_request.no_faults", "ns", Lower);
    add("cluster.sim.ns_per_request.budget", "ns", Lower);
    add("cluster.lost_to_crash", "count", Lower);
    add("cluster.retries", "count", Lower);
    add("cluster.shed", "count", Lower);
    add("cluster.downgraded", "count", Lower);
    add("cluster.violation_joules", "J", Lower);
    add("cluster.goodput", "frac", Higher);
    add("cluster.joules_per_completed", "J", Lower);
    add("cluster.p99_ms", "ms", Lower);
    // Standalone micro-loops.
    add("core.env.nominal.ns", "ns", Lower);
    add("core.env.ladder.ns", "ns", Lower);
    add("core.env.adaptive.ns", "ns", Lower);
    add("core.env.report.ns", "ns", Lower);
    add("energy.budget_observe.ns", "ns", Lower);
    add("energy.split_push.ns", "ns", Lower);
    add("quality.psnr.ns_per_elem", "ns", Lower);
    add("quality.relerr.ns_per_elem", "ns", Lower);
    add("serving.admission.ns", "ns", Lower);
    add("serving.sketch_record.ns", "ns", Lower);
    add("serving.sketch_quantile.ns", "ns", Lower);
    add("cluster.route.aware.ns", "ns", Lower);
    add("cluster.route.round_robin.ns", "ns", Lower);
    // The bench itself and the host.
    add("trace.overhead_frac", "frac", Lower);
    add("host.steal_frac", "frac", Lower);
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    fn legal_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn legal_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_naming_contract() {
        let e2e = end_to_end();
        let layers = per_layer();
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&layers.len()), "{} layers", layers.len());
        let mut names: Vec<&str> = e2e
            .iter()
            .map(|m| m.metric.name.as_str())
            .chain(layers.iter().map(|m| m.name.as_str()))
            .chain(workloads::ALL.iter().map(|w| w.name))
            .collect();
        assert!(names.iter().all(|n| legal_name(n)));
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "a name is used twice");
        assert!(e2e.iter().all(|m| legal_unit(m.metric.unit)));
        assert!(layers.iter().all(|m| legal_unit(m.unit)));
        assert!(e2e.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = e2e.iter().find(|m| m.metric.name == "setup_s").unwrap();
        assert_eq!(
            (setup.metric.unit, setup.metric.better),
            ("s", Better::Lower)
        );
        assert!(e2e.iter().all(|m| m.bound <= setup.bound));
        assert!(workloads::ALL.iter().all(|w| w.why.len() <= 200));
    }

    #[test]
    fn worse_by_follows_the_direction() {
        assert_eq!(Better::Higher.worse_by(100.0, 90.0), 0.1);
        assert_eq!(Better::Lower.worse_by(100.0, 90.0), -0.1);
    }
}
