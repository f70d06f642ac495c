//! Property-based tests (proptest) on the runtime's core invariants.

use proptest::prelude::*;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use significance_repro::core::SignificanceCutoff;
use significance_repro::prelude::*;
use significance_repro::quality::{psnr, relative_error};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every spawned task completes exactly once, whatever the mix of
    /// significances and whatever the ratio, under every policy.
    #[test]
    fn all_tasks_complete_exactly_once(
        task_count in 1usize..200,
        ratio in 0.0f64..=1.0,
        policy_index in 0usize..3,
        significances in proptest::collection::vec(0.0f64..=1.0, 1..200),
    ) {
        let policy = match policy_index {
            0 => Policy::Gtb { buffer_size: 16 },
            1 => Policy::GtbMaxBuffer,
            _ => Policy::Lqh,
        };
        let rt = Runtime::builder().workers(4).policy(policy).build();
        let group = rt.create_group("prop", ratio);
        let executions = Arc::new(AtomicUsize::new(0));
        for i in 0..task_count {
            let sig = significances[i % significances.len()];
            let acc = executions.clone();
            let apx = executions.clone();
            rt.task(move || { acc.fetch_add(1, Ordering::Relaxed); })
                .approx(move || { apx.fetch_add(1, Ordering::Relaxed); })
                .significance(sig)
                .group(&group)
                .spawn();
        }
        rt.wait_group(&group);
        let stats = rt.group_stats(&group);
        prop_assert_eq!(stats.total(), task_count);
        // Every task ran exactly one body (none dropped: approx bodies exist).
        prop_assert_eq!(executions.load(Ordering::Relaxed), task_count);
        prop_assert_eq!(stats.dropped, 0);
    }

    /// GTB with an unbounded buffer meets the requested ratio (up to ceil
    /// rounding) and never inverts significance, for any task population.
    #[test]
    fn gtb_max_buffer_is_exact(
        task_count in 1usize..150,
        ratio in 0.0f64..=1.0,
    ) {
        let rt = Runtime::builder().workers(4).policy(Policy::GtbMaxBuffer).build();
        let group = rt.create_group("exact", ratio);
        for i in 0..task_count {
            // Significance in (0, 1) so the ratio fully decides the split.
            let sig = ((i % 9) + 1) as f64 / 10.0;
            rt.task(|| {}).approx(|| {}).significance(sig).group(&group).spawn();
        }
        rt.wait_group(&group);
        let stats = rt.group_stats(&group);
        let expected_accurate = (ratio * task_count as f64).ceil() as usize;
        prop_assert_eq!(stats.accurate, expected_accurate.min(task_count));
        prop_assert_eq!(stats.inverted, 0);
    }

    /// The relative-error metric is a metric-like score: zero iff identical,
    /// symmetric in the error magnitude, and monotone in uniform scaling of
    /// the perturbation.
    #[test]
    fn relative_error_is_sound(
        reference in proptest::collection::vec(1.0f64..1e3, 1..64),
        scale in 0.0f64..0.5,
    ) {
        let perturbed: Vec<f64> = reference.iter().map(|v| v * (1.0 + scale)).collect();
        let err = relative_error(&reference, &perturbed);
        prop_assert!((err - scale).abs() < 1e-9);
        prop_assert_eq!(relative_error(&reference, &reference), 0.0);
        let larger: Vec<f64> = reference.iter().map(|v| v * (1.0 + scale * 2.0)).collect();
        prop_assert!(relative_error(&reference, &larger) >= err);
    }

    /// PSNR decreases (PSNR^-1 increases) as uniform noise grows.
    #[test]
    fn psnr_monotone_in_noise(
        pixels in proptest::collection::vec(0.0f64..=255.0, 8..128),
        noise in 1.0f64..40.0,
    ) {
        let small: Vec<f64> = pixels.iter().map(|p| (p + noise * 0.5).min(255.0)).collect();
        let large: Vec<f64> = pixels.iter().map(|p| (p + noise).min(255.0)).collect();
        let p_small = psnr(&pixels, &small, 255.0);
        let p_large = psnr(&pixels, &large, 255.0);
        prop_assert!(p_small >= p_large);
    }
}

/// A ramp whose knees sit `gap_degrade` and `gap_shed` apart from
/// `degrade_start`, with the given cutoff bound, checked like a config.
fn ramp(degrade_start: f64, gap_degrade: f64, gap_shed: f64, max: f64) -> SignificanceCutoff {
    let shed_start = degrade_start + gap_degrade;
    let cutoff = SignificanceCutoff {
        degrade_start,
        shed_start,
        shed_full: shed_start + gap_shed,
        max_shed_significance: max,
    };
    cutoff.validate();
    cutoff
}

/// The pressures every ramp property is also checked at: both infinities,
/// NaN, and the ramp's own knees.
fn edge_pressures(cutoff: &SignificanceCutoff) -> [f64; 6] {
    [
        f64::NEG_INFINITY,
        cutoff.degrade_start,
        cutoff.shed_start,
        cutoff.shed_full,
        f64::INFINITY,
        f64::NAN,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Neither the shed cutoff nor the degrade depth ever falls as
    /// pressure rises.
    #[test]
    fn the_cutoff_never_falls_as_pressure_rises(
        start in -2.0f64..2.0,
        gap_degrade in 1e-3f64..4.0,
        gap_shed in 1e-3f64..4.0,
        max in 0.0f64..1.0,
        pressures in proptest::collection::vec(-10.0f64..20.0, 2..64),
    ) {
        let cutoff = ramp(start, gap_degrade, gap_shed, max);
        let mut pressures = pressures;
        pressures.extend(&edge_pressures(&cutoff)[..5]);
        pressures.sort_by(f64::total_cmp);
        for pair in pressures.windows(2) {
            prop_assert!(cutoff.shed_cutoff(pair[0]) <= cutoff.shed_cutoff(pair[1]));
            prop_assert!(cutoff.degrade_depth(pair[0]) <= cutoff.degrade_depth(pair[1]));
        }
    }

    /// At any pressure the shed set is a prefix of the significance axis:
    /// once one significance is kept, every higher one is kept too.
    #[test]
    fn the_shed_set_is_a_significance_prefix(
        start in -2.0f64..2.0,
        gap_degrade in 1e-3f64..4.0,
        gap_shed in 1e-3f64..4.0,
        max in 0.0f64..1.0,
        pressure in -10.0f64..20.0,
        significances in proptest::collection::vec(0.0f64..=1.0, 1..64),
    ) {
        let cutoff = ramp(start, gap_degrade, gap_shed, max);
        let mut significances = significances;
        significances.sort_by(f64::total_cmp);
        let threshold = cutoff.shed_cutoff(pressure);
        let shed = |s: f64| s < threshold;
        let kept = significances.iter().position(|&s| !shed(s));
        if let Some(first_kept) = kept {
            prop_assert!(significances[first_kept..].iter().all(|&s| !shed(s)));
        }
    }

    /// Significance 1.0 is never shed, at any pressure, for every cutoff
    /// bound up to 1.0 (the brownout's, which no config may use) and for
    /// a validated one.
    #[test]
    fn critical_work_is_never_shed(
        start in -2.0f64..2.0,
        gap_degrade in 1e-3f64..4.0,
        gap_shed in 1e-3f64..4.0,
        max in 0.0f64..=1.0,
        pressure in -10.0f64..20.0,
    ) {
        let validated = ramp(start, gap_degrade, gap_shed, max.min(0.999));
        for bound in [max, 1.0, validated.max_shed_significance] {
            let cutoff = SignificanceCutoff { max_shed_significance: bound, ..validated };
            for p in edge_pressures(&cutoff).into_iter().chain([pressure]) {
                let threshold = cutoff.shed_cutoff(p);
                let shed = 1.0 < threshold;
                prop_assert!(!shed, "bound {} pressure {} cutoff {}", bound, p, threshold);
            }
        }
    }

    /// Degradation is fully engaged where shedding starts, so work is
    /// degraded strictly before any is shed.
    #[test]
    fn degrading_is_full_before_shedding_starts(
        start in -2.0f64..2.0,
        gap_degrade in 1e-3f64..4.0,
        gap_shed in 1e-3f64..4.0,
        max in 0.0f64..1.0,
        pressure in -10.0f64..20.0,
    ) {
        let cutoff = ramp(start, gap_degrade, gap_shed, max);
        prop_assert_eq!(cutoff.degrade_depth(cutoff.degrade_start), 0.0);
        prop_assert_eq!(cutoff.degrade_depth(cutoff.shed_start), 1.0);
        prop_assert_eq!(cutoff.shed_cutoff(cutoff.shed_start), 0.0);
        if cutoff.shed_cutoff(pressure) > 0.0 {
            prop_assert_eq!(cutoff.degrade_depth(pressure), 1.0);
        }
    }
}

/// Non-proptest sanity check kept alongside: the achieved ratio reported by
/// group statistics is always consistent with the mode counts.
#[test]
fn achieved_ratio_is_consistent_with_counts() {
    let rt = Runtime::builder()
        .workers(2)
        .policy(Policy::GtbMaxBuffer)
        .build();
    let group = rt.create_group("consistency", 0.3);
    for i in 0..40u32 {
        rt.task(|| {})
            .approx(|| {})
            .significance(((i % 9) + 1) as f64 / 10.0)
            .group(&group)
            .spawn();
    }
    rt.wait_group(&group);
    let stats = rt.group_stats(&group);
    let expected = stats.accurate as f64 / stats.total() as f64;
    assert!((stats.achieved_ratio() - expected).abs() < 1e-12);
}
