//! Significance-aware execution policies.
//!
//! The runtime must choose, for every task with significance below `1.0`,
//! whether to run its accurate body, its approximate body, or drop it — while
//! honouring (a) the per-group accurate-task ratio `R_g` and (b) the
//! preference for approximating the *least* significant tasks first
//! (Section 3.2). The paper defines two policies plus the baseline:
//!
//! * [`Policy::SignificanceAgnostic`] — the unmodified runtime used as the
//!   overhead baseline (Figure 4): every task runs accurately.
//! * [`Policy::Gtb`] — **Global Task Buffering** (Section 3.3, Listing 4):
//!   the master buffers tasks, sorts each full buffer by significance and
//!   issues the top `R_g · B` accurately.
//!   [`Policy::GtbMaxBuffer`] buffers an entire group until its barrier.
//! * [`Policy::Lqh`] — **Local Queue History** (Section 3.4): workers decide
//!   per task from a local, per-group histogram over the 101 discrete
//!   significance levels: run accurately iff `t_g(s) > (1 − R_g) · t_g(1.0)`.

use crate::group::GroupId;
use crate::significance::{Significance, NUM_LEVELS};

/// Which task-classification policy the runtime applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Policy {
    /// Execute every task accurately; no significance bookkeeping at all.
    /// This is the baseline the paper uses to measure runtime overhead.
    #[default]
    SignificanceAgnostic,
    /// Global Task Buffering with the given buffer capacity (tasks).
    Gtb {
        /// Number of tasks the master buffers before analysing and issuing
        /// them. The paper passes this at compile time; here it is a runtime
        /// parameter.
        buffer_size: usize,
    },
    /// Global Task Buffering with an unbounded buffer: all tasks of a group
    /// are buffered until the group's synchronisation barrier, giving the
    /// policy perfect information ("Max Buffer GTB" in Section 4).
    GtbMaxBuffer,
    /// Local Queue History: per-worker, per-group significance histograms.
    Lqh,
}

impl Policy {
    /// Short name used in reports and benchmark IDs (matches the paper's
    /// labels).
    pub fn name(&self) -> &'static str {
        match self {
            Policy::SignificanceAgnostic => "accurate-agnostic",
            Policy::Gtb { .. } => "GTB",
            Policy::GtbMaxBuffer => "GTB(MaxBuffer)",
            Policy::Lqh => "LQH",
        }
    }

    /// The GTB buffer capacity, if this is a buffering policy.
    /// `GtbMaxBuffer` reports `usize::MAX`.
    pub fn buffer_capacity(&self) -> Option<usize> {
        match self {
            Policy::Gtb { buffer_size } => Some(*buffer_size),
            Policy::GtbMaxBuffer => Some(usize::MAX),
            _ => None,
        }
    }

    /// Whether the master-side task buffering path is active.
    pub fn is_buffering(&self) -> bool {
        self.buffer_capacity().is_some()
    }
}

/// The accurate slots of one GTB buffer flush, per significance level.
///
/// The `R_g · B` most significant tasks of a window run accurately (Listing 4
/// of the paper), with the paper's special values honoured on top:
/// significance `1.0` is always accurate and `0.0` never is, and only the
/// criticals consume accurate slots.
///
/// Selection is a **histogram scan over the runtime's 101 discrete
/// significance levels** — O(n + levels) instead of Listing 4's O(n log n)
/// sort, which matters for Max-Buffer flushes of whole groups. Built in one
/// pass over the window ([`GtbQuota::new`]), then [`GtbQuota::admit`] is asked
/// once per task *in spawn order*: ties resolve in spawn order at level
/// granularity (the quantisation the paper's runtime itself works at, Section
/// 3.4), so the result is deterministic and needs no per-flush vector.
pub(crate) struct GtbQuota {
    /// Accurate slots left per level; only the boundary level is partial.
    slots: [usize; NUM_LEVELS],
}

impl GtbQuota {
    /// The quota of a window holding `significances` (in any order) at
    /// accurate-task ratio `ratio`.
    pub(crate) fn new(significances: impl Iterator<Item = Significance>, ratio: f64) -> Self {
        assert!((0.0..=1.0).contains(&ratio), "ratio must be in [0, 1]");
        // Per-level histogram of the ordinary tasks, turned into slots below.
        let mut slots = [0usize; NUM_LEVELS];
        let (mut n, mut criticals) = (0usize, 0usize);
        for sig in significances {
            n += 1;
            if sig.is_critical() {
                criticals += 1;
            } else if !sig.is_negligible() {
                slots[sig.level().index()] += 1;
            }
        }
        // Distribute the accurate slots the criticals left over the levels,
        // most significant first.
        let mut remaining = ((ratio * n as f64).ceil() as usize).saturating_sub(criticals);
        for level in slots.iter_mut().rev() {
            let take = (*level).min(remaining);
            *level = take;
            remaining -= take;
        }
        GtbQuota { slots }
    }

    /// Whether the next task of the window, in spawn order, runs accurately.
    pub(crate) fn admit(&mut self, significance: Significance) -> bool {
        if significance.is_critical() {
            return true;
        }
        if significance.is_negligible() {
            return false;
        }
        let slots = &mut self.slots[significance.level().index()];
        let accurate = *slots > 0;
        *slots -= usize::from(accurate);
        accurate
    }
}

/// The decisions of one GTB window as a vector, for tests.
#[cfg(test)]
pub(crate) fn gtb_classify(tasks: &[Significance], ratio: f64) -> Vec<bool> {
    let mut quota = GtbQuota::new(tasks.iter().copied(), ratio);
    tasks.iter().map(|&sig| quota.admit(sig)).collect()
}

/// One worker's history of one group: how many tasks it executed at each
/// significance level, as a Fenwick tree over the 101 levels, plus the total.
#[derive(Debug)]
struct LqhHistory {
    /// `tree[i]` counts the levels `i - (i & -i) .. i`; `tree[0]` is unused.
    tree: [u64; NUM_LEVELS + 1],
    total: u64,
}

impl LqhHistory {
    /// Tasks observed at or below `level` (`t_g(s)`): at most seven adds.
    fn at_or_below(&self, level: usize) -> u64 {
        let (mut i, mut sum) = (level + 1, 0);
        while i > 0 {
            sum += self.tree[i];
            i &= i - 1;
        }
        sum
    }

    fn observe(&mut self, level: usize) {
        let mut i = level + 1;
        while i <= NUM_LEVELS {
            self.tree[i] += 1;
            i += i & i.wrapping_neg();
        }
        self.total += 1;
    }
}

/// Per-worker LQH state: one significance history per task group, indexed
/// by [`GroupId::index`] (group ids are dense per runtime).
///
/// The paper prices the bookkeeping at "accessing an array of size equal to
/// the number of distinct significance levels (101 in the runtime), which is
/// negligible compared to the granularity of the task" (Section 3.4). Here a
/// decision costs less than that: an indexed load of the group's history, a
/// Fenwick prefix query of at most seven counters for `t_g(s)`, a running
/// total for `t_g(1.0)`, and a seven-counter update — no sum over the
/// levels. Counts are integers, so every decision is exact.
#[derive(Debug, Default)]
pub(crate) struct LqhState {
    histories: Vec<Option<Box<LqhHistory>>>,
}

impl LqhState {
    pub(crate) fn new() -> Self {
        LqhState::default()
    }

    /// `group`'s history on this worker, created empty on first use.
    fn history(&mut self, group: GroupId) -> &mut LqhHistory {
        let index = group.index();
        if index >= self.histories.len() {
            self.histories.resize_with(index + 1, || None);
        }
        self.histories[index].get_or_insert_with(|| {
            Box::new(LqhHistory {
                tree: [0; NUM_LEVELS + 1],
                total: 0,
            })
        })
    }

    /// Decide whether a task with the given significance should run
    /// accurately — "based on the distribution of significance levels of the
    /// tasks executed so far" (Section 3.4) — then account for the task in
    /// the worker-local history.
    ///
    /// Because the decision looks only at *prior* history, a worker's very
    /// first tasks in a group tend to be approximated until the histogram
    /// fills in; this is the source of LQH's slight undershoot of the
    /// requested ratio that the paper observes for MC.
    pub(crate) fn decide(
        &mut self,
        group: GroupId,
        significance: Significance,
        ratio: f64,
    ) -> bool {
        let level = significance.level().index();
        let history = self.history(group);
        // Special values bypass the history entirely (Section 2), and so do
        // the extreme ratios; every task is still counted in it.
        let decision = if significance.is_critical() {
            true
        } else if significance.is_negligible() || ratio <= 0.0 {
            false
        } else {
            ratio >= 1.0
                || (history.at_or_below(level) as f64) > (1.0 - ratio) * history.total as f64
        };
        history.observe(level);
        decision
    }

    /// Total tasks observed for a group (`t_g(1.0)` in the paper's notation).
    #[cfg(test)]
    pub(crate) fn total_observed(&self, group: GroupId) -> u64 {
        self.histories
            .get(group.index())
            .and_then(Option::as_deref)
            .map_or(0, |history| history.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::GroupState;
    use std::sync::Arc;

    fn sig(v: f64) -> Significance {
        Significance::new(v)
    }

    #[test]
    fn policy_metadata() {
        assert_eq!(Policy::Lqh.name(), "LQH");
        assert_eq!(Policy::Gtb { buffer_size: 8 }.buffer_capacity(), Some(8));
        assert_eq!(Policy::GtbMaxBuffer.buffer_capacity(), Some(usize::MAX));
        assert_eq!(Policy::SignificanceAgnostic.buffer_capacity(), None);
        assert!(Policy::GtbMaxBuffer.is_buffering());
        assert!(!Policy::Lqh.is_buffering());
        assert_eq!(Policy::default(), Policy::SignificanceAgnostic);
    }

    #[test]
    fn gtb_marks_most_significant_accurate() {
        let sigs = vec![sig(0.1), sig(0.9), sig(0.5), sig(0.7)];
        let decisions = gtb_classify(&sigs, 0.5);
        // Two accurate slots: 0.9 and 0.7.
        assert_eq!(decisions, vec![false, true, false, true]);
    }

    #[test]
    fn gtb_ratio_one_marks_everything_accurate() {
        let sigs = vec![sig(0.1), sig(0.2), sig(0.3)];
        assert_eq!(gtb_classify(&sigs, 1.0), vec![true; 3]);
    }

    #[test]
    fn gtb_ratio_zero_marks_everything_approximate() {
        let sigs = vec![sig(0.1), sig(0.2), sig(0.3)];
        assert_eq!(gtb_classify(&sigs, 0.0), vec![false; 3]);
    }

    #[test]
    fn gtb_special_values_override_ratio() {
        let sigs = vec![sig(1.0), sig(0.0), sig(0.5)];
        // Ratio 0: even then, the critical task stays accurate.
        assert_eq!(gtb_classify(&sigs, 0.0), vec![true, false, false]);
        // Ratio 1: the negligible task still runs approximately.
        assert_eq!(gtb_classify(&sigs, 1.0), vec![true, false, true]);
    }

    #[test]
    fn gtb_rounds_accurate_count_up() {
        // 3 tasks, ratio 0.5 => ceil(1.5) = 2 accurate.
        let sigs = vec![sig(0.2), sig(0.4), sig(0.6)];
        let decisions = gtb_classify(&sigs, 0.5);
        assert_eq!(decisions.iter().filter(|&&a| a).count(), 2);
    }

    #[test]
    fn gtb_ties_resolve_in_spawn_order() {
        let sigs = vec![sig(0.5), sig(0.5), sig(0.5), sig(0.5)];
        let decisions = gtb_classify(&sigs, 0.5);
        assert_eq!(decisions, vec![true, true, false, false]);
    }

    #[test]
    fn gtb_empty_buffer() {
        assert!(gtb_classify(&[], 0.5).is_empty());
    }

    #[test]
    fn gtb_never_inverts_significance() {
        // Property: if a task runs accurately, every strictly more
        // significant non-negligible task also runs accurately.
        let sigs: Vec<Significance> = (1..=20).map(|i| sig((i % 9 + 1) as f64 / 10.0)).collect();
        for ratio in [0.1, 0.35, 0.5, 0.8] {
            let decisions = gtb_classify(&sigs, ratio);
            let min_accurate = sigs
                .iter()
                .zip(&decisions)
                .filter(|(_, &acc)| acc)
                .map(|(s, _)| *s)
                .min();
            if let Some(min_acc) = min_accurate {
                for (s, acc) in sigs.iter().zip(&decisions) {
                    if *s > min_acc {
                        assert!(acc, "task with significance {s} inverted at ratio {ratio}");
                    }
                }
            }
        }
    }

    #[test]
    fn lqh_critical_and_negligible_bypass_history() {
        let mut state = LqhState::new();
        assert!(state.decide(GroupId::GLOBAL, sig(1.0), 0.0));
        assert!(!state.decide(GroupId::GLOBAL, sig(0.0), 1.0));
    }

    #[test]
    fn lqh_ratio_extremes() {
        let mut state = LqhState::new();
        assert!(state.decide(GroupId::GLOBAL, sig(0.5), 1.0));
        assert!(!state.decide(GroupId::GLOBAL, sig(0.5), 0.0));
    }

    #[test]
    fn lqh_uniform_significance_converges_to_fully_accurate() {
        // All tasks share one level: t_g(s) == t_g(1.0), so once any history
        // exists every further task runs accurately (paper: K-means under
        // LQH matches the fully accurate output). Only the history-less very
        // first task may be approximated.
        let mut state = LqhState::new();
        let group = GroupId(3);
        let decisions: Vec<bool> = (0..100)
            .map(|_| state.decide(group, sig(0.5), 0.6))
            .collect();
        assert!(
            !decisions[0],
            "first task has no history to justify accuracy"
        );
        assert!(decisions[1..].iter().all(|&d| d));
        assert_eq!(state.total_observed(group), 100);
    }

    #[test]
    fn lqh_low_significance_tasks_are_approximated() {
        let mut state = LqhState::new();
        let group = GroupId(1);
        // Seed the history with a spread of significances (round-robin 0.1..0.9
        // like the Sobel example), then check the decision boundary.
        let mut accurate = 0;
        let mut total = 0;
        for i in 0..900usize {
            let s = sig(((i % 9) + 1) as f64 / 10.0);
            if state.decide(group, s, 0.35) {
                accurate += 1;
            }
            total += 1;
        }
        let achieved = accurate as f64 / total as f64;
        // The history-based rule should land in the vicinity of the request,
        // approximating predominantly the low-significance tasks.
        assert!(
            achieved > 0.2 && achieved < 0.7,
            "achieved accurate ratio {achieved} too far from requested 0.35"
        );
    }

    #[test]
    fn lqh_higher_significance_is_never_worse_off() {
        // After identical warm-up, a higher-significance task must be at
        // least as likely to run accurately as a lower-significance one.
        let warmup = |state: &mut LqhState, group: GroupId| {
            for i in 0..90 {
                let s = sig(((i % 9) + 1) as f64 / 10.0);
                state.decide(group, s, 0.5);
            }
        };
        let mut a = LqhState::new();
        let mut b = LqhState::new();
        warmup(&mut a, GroupId(1));
        warmup(&mut b, GroupId(1));
        let low = a.decide(GroupId(1), sig(0.2), 0.5);
        let high = b.decide(GroupId(1), sig(0.8), 0.5);
        assert!(high >= low);
    }

    #[test]
    fn lqh_groups_are_independent() {
        let mut state = LqhState::new();
        let g1 = GroupId(1);
        let g2 = GroupId(2);
        for _ in 0..50 {
            state.decide(g1, sig(0.9), 0.5);
        }
        // Group 2 history is empty; its first medium-significance task at a
        // moderate ratio is judged only against itself.
        assert_eq!(state.total_observed(g2), 0);
        state.decide(g2, sig(0.5), 0.5);
        assert_eq!(state.total_observed(g2), 1);
        assert_eq!(state.total_observed(g1), 50);
    }

    #[test]
    #[should_panic(expected = "ratio must be in")]
    fn gtb_invalid_ratio_panics() {
        gtb_classify(&[sig(0.5)], 1.5);
    }

    /// splitmix64, for seeded test inputs.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }

        /// A significance on one of the 101 levels (0.0 and 1.0 included) or,
        /// one time in four, anywhere in [0, 1] — which puts non-special
        /// values on levels 0 and 100 too.
        fn significance(&mut self) -> Significance {
            if self.below(4) == 0 {
                sig(self.unit())
            } else {
                sig(self.below(NUM_LEVELS) as f64 / 100.0)
            }
        }
    }

    /// Listing 4 of the paper at level granularity: stable-sort the window
    /// by significance level, most significant first, and run the top
    /// `ceil(R · n)` accurately. Significance 1.0 always runs accurately (and
    /// sorts first, so it takes its slot before anything else); 0.0 never
    /// does and takes no slot.
    fn listing4_reference(window: &[Significance], ratio: f64) -> Vec<bool> {
        let mut order: Vec<usize> = (0..window.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse((window[i].is_critical(), window[i].level())));
        let mut slots = (ratio * window.len() as f64).ceil() as usize;
        let mut accurate = vec![false; window.len()];
        for i in order {
            let sig = window[i];
            if sig.is_critical() || (!sig.is_negligible() && slots > 0) {
                accurate[i] = true;
                slots = slots.saturating_sub(1);
            }
        }
        accurate
    }

    #[test]
    fn gtb_quota_matches_the_listing4_sort_on_seeded_windows() {
        let mut rng = Rng(0x67B_0AC1E);
        let budgeted = GroupState::new(0, GroupId(1), Arc::from("budgeted"), 1.0, 1);
        let mut lengths = vec![0, 1, 2, 3, 7, 31, 32, 33, 100, 101, 1000, 4096, 5000];
        lengths.extend((0..40).map(|_| rng.below(5001)));
        for (case, &n) in lengths.iter().enumerate() {
            let window: Vec<Significance> = match case % 4 {
                // All equal: every decision is a spawn-order tie.
                0 => vec![rng.significance(); n],
                1 => (0..n)
                    .map(|_| sig(rng.below(NUM_LEVELS) as f64 / 100.0))
                    .collect(),
                _ => (0..n).map(|_| rng.significance()).collect(),
            };
            // Budget-scaled: the product `GroupState::effective_ratio` hands
            // a flush when the energy budget throttles the group.
            budgeted.set_ratio(rng.unit());
            budgeted.set_budget_scale(rng.unit());
            for ratio in [0.0, 1.0, 0.5, rng.unit(), budgeted.effective_ratio()] {
                assert_eq!(
                    gtb_classify(&window, ratio),
                    listing4_reference(&window, ratio),
                    "window {case} ({n} tasks) at ratio {ratio}"
                );
            }
        }
    }

    /// The LQH state as it was before the Fenwick histories: a SipHash map
    /// from group to a 101-counter histogram, two slice sums per decision.
    #[derive(Default)]
    struct LqhReference {
        histograms: std::collections::HashMap<GroupId, [u64; NUM_LEVELS]>,
    }

    impl LqhReference {
        fn decide(&mut self, group: GroupId, significance: Significance, ratio: f64) -> bool {
            if significance.is_critical() {
                self.observe(group, significance);
                return true;
            }
            if significance.is_negligible() {
                self.observe(group, significance);
                return false;
            }
            let decision = if ratio >= 1.0 {
                true
            } else if ratio <= 0.0 {
                false
            } else {
                let hist = self.histograms.entry(group).or_insert([0; NUM_LEVELS]);
                let level = significance.level().index();
                let tasks_at_or_below: u64 = hist[..=level].iter().sum();
                let total: u64 = hist.iter().sum();
                (tasks_at_or_below as f64) > (1.0 - ratio) * total as f64
            };
            self.observe(group, significance);
            decision
        }

        fn observe(&mut self, group: GroupId, significance: Significance) {
            let hist = self.histograms.entry(group).or_insert([0; NUM_LEVELS]);
            hist[significance.level().index()] += 1;
        }

        fn total_observed(&self, group: GroupId) -> u64 {
            self.histograms
                .get(&group)
                .map(|h| h.iter().sum())
                .unwrap_or(0)
        }
    }

    #[test]
    fn lqh_histories_decide_exactly_as_the_hashed_histograms() {
        let groups = [GroupId(0), GroupId(1), GroupId(37)];
        for seed in 1..=6u64 {
            let mut rng = Rng(seed);
            let (mut state, mut reference) = (LqhState::new(), LqhReference::default());
            // One ratio per group for a stretch, as a group's ratio is held
            // between barriers; 0 and 1 included.
            let mut ratios = [0.5; 3];
            for step in 0..20_000 {
                if step % 500 == 0 {
                    for ratio in &mut ratios {
                        *ratio = match rng.below(4) {
                            0 => 0.0,
                            1 => 1.0,
                            _ => rng.unit(),
                        };
                    }
                }
                let which = rng.below(groups.len());
                let (group, significance) = (groups[which], rng.significance());
                assert_eq!(
                    state.decide(group, significance, ratios[which]),
                    reference.decide(group, significance, ratios[which]),
                    "seed {seed} step {step}: {group:?} at {significance} ratio {}",
                    ratios[which]
                );
                for group in groups {
                    assert_eq!(state.total_observed(group), reference.total_observed(group));
                }
            }
        }
    }
}
