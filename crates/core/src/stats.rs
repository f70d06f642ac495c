//! Execution statistics.
//!
//! Two consumers drive what is collected here:
//!
//! * **Figure 2 / Figure 4** need makespans and busy core-time (fed into the
//!   `sig-energy` power model) plus counts of accurately / approximately
//!   executed and dropped tasks.
//! * **Table 2** needs, per task group, the percentage of
//!   *significance-inverted* tasks (a task executed approximately although a
//!   strictly less significant task of the same group ran accurately) and the
//!   absolute deviation of the achieved accurate-task ratio from the
//!   requested `R_g`.
//!
//! Both sets of counters sit on the execution hot path, and a task is
//! booked once in each. The whole-runtime counts live in the worker's
//! **task ledger**, its single-writer env shard ([`crate::env`], "Hot-path
//! discipline"), which books a task's count in the same seqlock section as
//! its busy time and joules; [`RuntimeStats`] folds the ledgers and keeps
//! only what no worker owns: the spawn and flush counts and the brownout's
//! shed histogram. The per-group counters are **sharded per worker** (one cache line each,
//! folded on snapshot). The seed pushed every execution onto a
//! `Mutex<Vec<(level, mode)>>` log; the per-(level × mode) counter matrix
//! kept here carries exactly the same information for the inversion
//! analysis without any lock or allocation.

use sig_energy::{PowerModel, TransitionCost};

use crate::env::{worker_shard, Event, ExecutionEnv, ShardSnapshot};
use crate::governor::NominalGovernor;
use crate::significance::{SignificanceLevel, NUM_LEVELS};
use crate::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use crate::sync::{Arc, CachePadded};
use crate::task::{ExecutionMode, MODES};

/// One worker's (level × mode) execution counters for a group.
struct GroupShard {
    counts: Box<[AtomicU64]>,
    /// Tasks of this group whose body panicked on this worker.
    panicked: AtomicU64,
}

impl GroupShard {
    fn new() -> Self {
        GroupShard {
            counts: (0..NUM_LEVELS * MODES).map(|_| AtomicU64::new(0)).collect(),
            panicked: AtomicU64::new(0),
        }
    }
}

/// Per-group execution counters, sharded per worker.
pub(crate) struct GroupStats {
    shards: Box<[CachePadded<GroupShard>]>,
}

impl std::fmt::Debug for GroupStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupStats")
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl GroupStats {
    /// `shards` should be the runtime's worker count: only workers book.
    pub(crate) fn new(shards: usize) -> Self {
        GroupStats {
            shards: (0..shards.max(1))
                .map(|_| CachePadded::new(GroupShard::new()))
                .collect(),
        }
    }

    /// Record the completion of one task on worker `worker`.
    pub(crate) fn record(&self, worker: usize, level: SignificanceLevel, mode: ExecutionMode) {
        let shard = worker_shard(&self.shards, worker);
        shard.counts[level.index() * MODES + mode.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Record a panicked task body on worker `worker`.
    pub(crate) fn record_panicked(&self, worker: usize) {
        worker_shard(&self.shards, worker)
            .panicked
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Produce an immutable snapshot for reporting. O(levels), independent
    /// of the number of executed tasks: everything the snapshot reports is
    /// computed from the folded counter matrix.
    pub(crate) fn snapshot(&self, requested_ratio: f64) -> GroupStatsSnapshot {
        let mut folded = vec![0u64; NUM_LEVELS * MODES];
        let mut panicked = 0usize;
        for shard in self.shards.iter() {
            for (total, count) in folded.iter_mut().zip(shard.counts.iter()) {
                *total += count.load(Ordering::Relaxed);
            }
            panicked += shard.panicked.load(Ordering::Relaxed) as usize;
        }
        let mut snapshot = GroupStatsSnapshot::from_histogram(requested_ratio, folded);
        snapshot.panicked = panicked;
        snapshot
    }
}

/// Immutable summary of one task group's execution, as used for Table 2.
#[derive(Debug, Clone)]
pub struct GroupStatsSnapshot {
    /// The accurate-task ratio requested by the programmer (`R_g`).
    pub requested_ratio: f64,
    /// Number of tasks that executed their accurate body.
    pub accurate: usize,
    /// Number of tasks that executed their approximate body.
    pub approximate: usize,
    /// Number of tasks dropped (approximated without an `approxfun`).
    pub dropped: usize,
    /// Number of tasks counted as *significance inversions*: the minimum
    /// number of decisions that would have to change so that no task ran
    /// non-accurately while a strictly less significant task of the same
    /// group ran accurately.
    pub inverted: usize,
    /// Number of tasks of this group whose body panicked. Panicked tasks are
    /// **not** included in [`GroupStatsSnapshot::total`]: they produced no
    /// usable result in any mode.
    pub panicked: usize,
    /// (level × mode) counts; `NUM_LEVELS * MODES` entries.
    hist: Vec<u64>,
}

impl PartialEq for GroupStatsSnapshot {
    fn eq(&self, other: &Self) -> bool {
        // The mode and inversion counts are folds of `hist`.
        self.requested_ratio == other.requested_ratio && self.hist == other.hist
    }
}

impl GroupStatsSnapshot {
    /// Snapshot from a per-task log (test constructor).
    #[cfg(test)]
    pub(crate) fn from_log(
        requested_ratio: f64,
        log: Vec<(SignificanceLevel, ExecutionMode)>,
    ) -> Self {
        let mut hist = vec![0u64; NUM_LEVELS * MODES];
        for (level, mode) in &log {
            hist[level.index() * MODES + mode.index()] += 1;
        }
        GroupStatsSnapshot::from_histogram(requested_ratio, hist)
    }

    /// Snapshot from a folded (level × mode) counter matrix — O(levels).
    pub(crate) fn from_histogram(requested_ratio: f64, hist: Vec<u64>) -> Self {
        debug_assert_eq!(hist.len(), NUM_LEVELS * MODES);
        let count_mode = |mode: usize| -> usize {
            (0..NUM_LEVELS)
                .map(|l| hist[l * MODES + mode] as usize)
                .sum()
        };
        let accurate = count_mode(ExecutionMode::Accurate.index());
        let approximate = count_mode(ExecutionMode::Approximate.index());
        let dropped = count_mode(ExecutionMode::Dropped.index());
        // "Inverted" tasks: the minimum number of decisions that would have
        // to flip so that no task executed approximately while a *strictly*
        // less significant task of the same group executed accurately
        // (the constraint of Section 3.2). Computed by scanning all possible
        // significance thresholds: for threshold τ the violations are the
        // accurate tasks strictly below τ plus the non-accurate tasks
        // strictly above τ; the reported count is the minimum over τ.
        let total_other = approximate + dropped;
        let mut inverted = usize::MAX;
        let mut accurate_below = 0usize;
        let mut other_at_or_below = 0usize;
        for level in 0..NUM_LEVELS {
            other_at_or_below +=
                hist[level * MODES + 1] as usize + hist[level * MODES + 2] as usize;
            let cost = accurate_below + (total_other - other_at_or_below);
            inverted = inverted.min(cost);
            accurate_below += hist[level * MODES] as usize;
        }
        let inverted = if accurate + total_other == 0 {
            0
        } else {
            inverted
        };
        GroupStatsSnapshot {
            requested_ratio,
            accurate,
            approximate,
            dropped,
            inverted,
            panicked: 0,
            hist,
        }
    }

    /// Total number of tasks executed in the group.
    pub fn total(&self) -> usize {
        self.accurate + self.approximate + self.dropped
    }

    /// Fraction of tasks that executed accurately, in `[0, 1]`. Returns the
    /// requested ratio when the group is empty (an empty group trivially
    /// satisfies its constraint).
    pub fn achieved_ratio(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            self.requested_ratio
        } else {
            self.accurate as f64 / total as f64
        }
    }

    /// `|requested − achieved|`, the per-group contribution to Table 2's
    /// "Average Ratio Diff" column.
    pub fn ratio_diff(&self) -> f64 {
        (self.requested_ratio - self.achieved_ratio()).abs()
    }

    /// Percentage (0–100) of tasks counted as significance inversions,
    /// Table 2's "Inversed Significance Tasks" column.
    pub fn inversion_percentage(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            100.0 * self.inverted as f64 / total as f64
        }
    }
}

/// Per-significance-level counts of tasks shed by the brownout overload
/// controller, part of [`OutcomeSummary`].
///
/// The brownout controller promises to shed **strictly lowest-significance
/// first**; an aggregate count cannot distinguish that from shedding at
/// random. The histogram makes the order cheaply checkable: under a single
/// rising threshold, the shed mass must sit in a prefix of the significance
/// axis (see [`ShedHistogram::highest_level`]).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct ShedHistogram {
    counts: [u64; NUM_LEVELS],
}

impl Default for ShedHistogram {
    fn default() -> Self {
        ShedHistogram {
            counts: [0; NUM_LEVELS],
        }
    }
}

impl ShedHistogram {
    /// Total shed count across all levels ([`OutcomeSummary::shed`]).
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The most significant level that lost a task, if any — the watermark
    /// the brownout threshold reached.
    pub fn highest_level(&self) -> Option<SignificanceLevel> {
        self.counts
            .iter()
            .rposition(|&count| count > 0)
            .map(|index| SignificanceLevel::new(index as u8))
    }

    /// `(level, count)` for every level with a nonzero shed count, in
    /// ascending significance order.
    fn nonzero(&self) -> impl Iterator<Item = (SignificanceLevel, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &count)| count > 0)
            .map(|(index, &count)| (SignificanceLevel::new(index as u8), count))
    }
}

impl std::fmt::Debug for ShedHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.nonzero()).finish()
    }
}

/// Terminal-outcome summary of everything the runtime has executed (or
/// refused to execute) so far — returned by
/// [`Runtime::wait_all`](crate::runtime::Runtime::wait_all) and
/// [`Runtime::outcomes`](crate::runtime::Runtime::outcomes) so failure is
/// observable instead of silently counted.
///
/// The scheduler maintains exactly-once accounting: every spawned task ends
/// in precisely one of the four terminal outcomes, i.e.
/// `spawned == completed + cancelled + panicked + shed` once a barrier has
/// drained the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OutcomeSummary {
    /// Tasks spawned so far.
    pub spawned: usize,
    /// Tasks that finished a body (accurate, approximate, or dropped-by-policy).
    pub completed: usize,
    /// Tasks skipped because cancellation was requested before they ran.
    pub cancelled: usize,
    /// Tasks whose body panicked.
    pub panicked: usize,
    /// Tasks shed by the brownout overload controller.
    pub shed: usize,
    /// Tasks that completed after their deadline had already passed.
    pub deadline_misses: usize,
    /// Shed counts broken down by significance level, for verifying strict
    /// lowest-first shed order.
    pub shed_by_level: ShedHistogram,
}

impl OutcomeSummary {
    /// Number of tasks that terminated without producing a result.
    pub fn failed(&self) -> usize {
        self.cancelled + self.panicked + self.shed
    }
}

/// Whole-runtime counters: totals across all groups plus scheduler-internal
/// event counts used to evaluate policy overhead (Figure 4 discussion).
/// A fold over the workers' task ledgers (module docs), plus the counters
/// no worker owns.
pub struct RuntimeStats {
    /// Per-worker DVFS frequency domains and task ledgers.
    pub(crate) env: ExecutionEnv,
    /// Written by any thread, so padded off `env`, which every worker
    /// writes per task.
    pub(crate) spawns: CachePadded<SpawnCounters>,
    /// Tasks shed by the brownout, by significance level. Runtime-wide:
    /// sheds are rare, and a copy per ledger would grow every env shard.
    shed_by_level: [AtomicU64; NUM_LEVELS],
}

/// The runtime's counters that any thread writes, on one line.
#[derive(Default)]
pub(crate) struct SpawnCounters {
    /// Task ids issued, which is the spawn count: every spawn reserves its
    /// ids here, one for a task, `n` for a batch of `n`, and nothing else
    /// does.
    issued: AtomicU64,
    /// GTB buffer flushes, made by whichever thread fills or waits on a
    /// window.
    flushes: AtomicUsize,
}

impl std::fmt::Debug for RuntimeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuntimeStats")
            .field("spawned", &self.spawned())
            .field("completed", &self.completed())
            .field("steals", &self.steals())
            .finish()
    }
}

impl Default for RuntimeStats {
    fn default() -> Self {
        RuntimeStats::new(ExecutionEnv::new(
            PowerModel::default(),
            Arc::new(NominalGovernor),
            None,
            TransitionCost::free(),
            1,
        ))
    }
}

impl RuntimeStats {
    /// Counters over `env`'s ledgers, one per worker.
    pub(crate) fn new(env: ExecutionEnv) -> Self {
        RuntimeStats {
            env,
            spawns: CachePadded::default(),
            shed_by_level: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Reserve `count` consecutive task ids for a spawn of `count` tasks,
    /// and so count them spawned; returns the first. Relaxed: ids need
    /// only be unique, and increasing per spawning thread.
    pub(crate) fn issue_ids(&self, count: u64) -> u64 {
        self.spawns.issued.fetch_add(count, Ordering::Relaxed)
    }

    /// The id the next spawn will get.
    pub(crate) fn next_id(&self) -> u64 {
        self.spawns.issued.load(Ordering::Relaxed)
    }

    /// Count a task shed by the brownout overload controller, at its
    /// significance level.
    pub(crate) fn record_shed(&self, level: SignificanceLevel) {
        self.shed_by_level[level.index()].fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_flush(&self) {
        self.spawns.flushes.fetch_add(1, Ordering::Relaxed);
    }

    /// Sum `field` over the ledgers.
    fn fold(&self, field: impl Fn(&ShardSnapshot) -> u64) -> usize {
        self.env.ledger().map(|shard| field(&shard)).sum::<u64>() as usize
    }

    fn finished(&self, mode: ExecutionMode) -> usize {
        self.fold(|s| s.finished[mode.index()])
    }

    fn events(&self, event: Event) -> usize {
        self.fold(|s| s.events[event as usize])
    }

    /// Number of tasks spawned so far: the ids issued.
    fn spawned(&self) -> usize {
        self.next_id() as usize
    }

    /// Number of tasks that have finished (in any mode).
    pub fn completed(&self) -> usize {
        self.fold(|s| s.finished.iter().sum())
    }

    /// Number of tasks that executed their accurate body.
    pub fn accurate(&self) -> usize {
        self.finished(ExecutionMode::Accurate)
    }

    /// Number of tasks that executed their approximate body.
    pub fn approximate(&self) -> usize {
        self.finished(ExecutionMode::Approximate)
    }

    /// Number of dropped tasks.
    pub fn dropped(&self) -> usize {
        self.finished(ExecutionMode::Dropped)
    }

    /// Per-significance-level breakdown of the shed count.
    fn shed_histogram(&self) -> ShedHistogram {
        ShedHistogram {
            counts: std::array::from_fn(|l| self.shed_by_level[l].load(Ordering::Relaxed)),
        }
    }

    /// Number of tasks that completed after their deadline.
    pub fn deadline_misses(&self) -> usize {
        self.events(Event::DeadlineMiss)
    }

    /// Terminal-outcome summary (see [`OutcomeSummary`]).
    pub fn outcomes(&self) -> OutcomeSummary {
        let shed_by_level = self.shed_histogram();
        OutcomeSummary {
            spawned: self.spawned(),
            completed: self.completed(),
            cancelled: self.events(Event::Cancelled),
            panicked: self.fold(|s| s.panicked),
            shed: shed_by_level.total() as usize,
            deadline_misses: self.deadline_misses(),
            shed_by_level,
        }
    }

    /// Number of successful work-steal operations.
    pub fn steals(&self) -> usize {
        self.events(Event::Steal)
    }

    /// Number of GTB buffer flushes performed.
    pub fn buffer_flushes(&self) -> usize {
        self.spawns.flushes.load(Ordering::Relaxed)
    }

    /// Total time spent executing task bodies, summed over all workers:
    /// the fold [`EnergyReport::busy_seconds`](crate::EnergyReport::busy_seconds)
    /// makes, value for value and in worker order, so the two agree to the
    /// bit.
    pub fn busy_core_seconds(&self) -> f64 {
        self.env
            .ledger()
            .map(|s| s.real_busy_nanos as f64 * 1e-9)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::DispatchDecision;
    use std::time::Duration;

    fn level(l: u8) -> SignificanceLevel {
        SignificanceLevel::new(l)
    }

    /// Runtime counters over a ledger of `workers` shards.
    fn ledger(workers: usize) -> RuntimeStats {
        RuntimeStats::new(ExecutionEnv::new(
            PowerModel::default(),
            Arc::new(NominalGovernor),
            None,
            TransitionCost::free(),
            workers,
        ))
    }

    /// Book one finished (or panicked) task on `worker`'s ledger, as
    /// `run_task` does.
    fn book(
        stats: &RuntimeStats,
        worker: usize,
        mode: ExecutionMode,
        busy: Duration,
        panicked: bool,
    ) {
        let nominal = DispatchDecision::nominal();
        let panicked = u64::from(panicked);
        stats
            .env
            .record_task(worker, mode, busy, nominal, 1 - panicked, panicked);
    }

    #[test]
    fn empty_snapshot_is_trivially_satisfied() {
        let snap = GroupStatsSnapshot::from_log(0.5, Vec::new());
        assert_eq!(snap.total(), 0);
        assert_eq!(snap.achieved_ratio(), 0.5);
        assert_eq!(snap.ratio_diff(), 0.0);
        assert_eq!(snap.inversion_percentage(), 0.0);
    }

    #[test]
    fn counts_by_mode() {
        let stats = GroupStats::new(4);
        stats.record(0, level(90), ExecutionMode::Accurate);
        stats.record(1, level(50), ExecutionMode::Approximate);
        stats.record(2, level(10), ExecutionMode::Dropped);
        let snap = stats.snapshot(0.33);
        assert_eq!(snap.accurate, 1);
        assert_eq!(snap.approximate, 1);
        assert_eq!(snap.dropped, 1);
        assert_eq!(snap.total(), 3);
    }

    #[test]
    fn shards_fold_into_one_snapshot() {
        let stats = GroupStats::new(3);
        for worker in 0..5 {
            stats.record(worker % 3, level(40), ExecutionMode::Accurate);
        }
        let snap = stats.snapshot(1.0);
        assert_eq!(snap.accurate, 5);
    }

    /// Only workers book, so a group keeps no shard for another thread.
    #[test]
    #[should_panic(expected = "worker index 3 out of range for 3 shards")]
    fn a_group_has_no_shard_past_the_workers() {
        GroupStats::new(3).record(3, level(40), ExecutionMode::Accurate);
    }

    #[test]
    fn achieved_ratio_and_diff() {
        let stats = GroupStats::new(2);
        for _ in 0..7 {
            stats.record(0, level(80), ExecutionMode::Accurate);
        }
        for _ in 0..3 {
            stats.record(1, level(20), ExecutionMode::Approximate);
        }
        let snap = stats.snapshot(0.5);
        assert!((snap.achieved_ratio() - 0.7).abs() < 1e-12);
        assert!((snap.ratio_diff() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn no_inversions_when_order_respected() {
        // Accurate tasks are all at least as significant as approximated ones.
        let log = vec![
            (level(90), ExecutionMode::Accurate),
            (level(70), ExecutionMode::Accurate),
            (level(70), ExecutionMode::Approximate),
            (level(10), ExecutionMode::Dropped),
        ];
        let snap = GroupStatsSnapshot::from_log(0.5, log);
        assert_eq!(snap.inverted, 0);
        assert_eq!(snap.inversion_percentage(), 0.0);
    }

    #[test]
    fn inversions_detected() {
        // A level-80 task was approximated while a level-20 task ran
        // accurately: that is one inversion.
        let log = vec![
            (level(20), ExecutionMode::Accurate),
            (level(80), ExecutionMode::Approximate),
            (level(10), ExecutionMode::Approximate),
        ];
        let snap = GroupStatsSnapshot::from_log(0.33, log);
        assert_eq!(snap.inverted, 1);
        assert!((snap.inversion_percentage() - 100.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn all_approximate_has_no_inversions() {
        let log = vec![
            (level(80), ExecutionMode::Approximate),
            (level(10), ExecutionMode::Dropped),
        ];
        let snap = GroupStatsSnapshot::from_log(0.0, log);
        assert_eq!(snap.inverted, 0);
        assert_eq!(snap.achieved_ratio(), 0.0);
        assert_eq!(snap.ratio_diff(), 0.0);
    }

    #[test]
    fn runtime_stats_accumulate() {
        let stats = ledger(2);
        assert_eq!(stats.issue_ids(1), 0);
        assert_eq!(stats.issue_ids(1), 1);
        book(
            &stats,
            0,
            ExecutionMode::Accurate,
            Duration::from_millis(10),
            false,
        );
        book(&stats, 1, ExecutionMode::Dropped, Duration::ZERO, false);
        stats.env.count(1, Event::Steal);
        stats.record_flush();
        assert_eq!(stats.spawned(), 2);
        assert_eq!(stats.completed(), 2);
        assert_eq!(stats.accurate(), 1);
        assert_eq!(stats.dropped(), 1);
        assert_eq!(stats.approximate(), 0);
        assert_eq!(stats.steals(), 1);
        assert_eq!(stats.buffer_flushes(), 1);
        assert!(stats.busy_core_seconds() >= 0.01);
        assert_eq!(
            stats.busy_core_seconds().to_bits(),
            stats.env.report(1.0, 2).busy_seconds().to_bits()
        );
    }

    #[test]
    fn outcome_summary_accounting() {
        let stats = ledger(2);
        assert_eq!(stats.issue_ids(2), 0);
        assert_eq!(stats.issue_ids(3), 2);
        book(&stats, 0, ExecutionMode::Accurate, Duration::ZERO, false);
        book(&stats, 0, ExecutionMode::Approximate, Duration::ZERO, false);
        book(
            &stats,
            1,
            ExecutionMode::Accurate,
            Duration::from_millis(1),
            true,
        );
        stats.env.count(1, Event::Cancelled);
        stats.record_shed(level(30));
        stats.env.count(0, Event::DeadlineMiss);
        let o = stats.outcomes();
        assert_eq!(o.spawned, 5);
        assert_eq!(o.completed, 2);
        assert_eq!(stats.accurate(), 1, "a panicked task books no mode");
        assert_eq!(
            o.completed + o.cancelled + o.panicked + o.shed,
            o.spawned,
            "terminal outcomes partition the spawn count"
        );
        assert_eq!(o.failed(), 3);
        assert_eq!(o.deadline_misses, 1);
        assert!(
            stats.busy_core_seconds() > 0.0,
            "panicked time is busy time"
        );
        assert_eq!(OutcomeSummary::default().failed(), 0);
    }

    /// The histogram is runtime-wide: workers shedding at once lose no
    /// count.
    #[test]
    fn shed_histogram_tracks_levels_across_shards() {
        let stats = ledger(2);
        std::thread::scope(|scope| {
            for levels in [&[5][..], &[5, 20]] {
                let stats = &stats;
                scope.spawn(move || levels.iter().for_each(|&l| stats.record_shed(level(l))));
            }
        });
        let histogram = stats.shed_histogram();
        assert_eq!(histogram.total(), stats.outcomes().shed as u64);
        assert_eq!(histogram.highest_level(), Some(level(20)));
        assert_eq!(
            histogram.nonzero().collect::<Vec<_>>(),
            vec![(level(5), 2), (level(20), 1)]
        );
        assert_eq!(stats.outcomes().shed_by_level, histogram);
        assert_eq!(ShedHistogram::default().highest_level(), None);
        assert!(!format!("{histogram:?}").is_empty());
    }

    #[test]
    fn group_panic_counts_land_in_snapshot() {
        let stats = GroupStats::new(2);
        stats.record(0, level(50), ExecutionMode::Accurate);
        stats.record_panicked(0);
        stats.record_panicked(1);
        let snap = stats.snapshot(1.0);
        assert_eq!(snap.panicked, 2);
        assert_eq!(snap.total(), 1, "panicked tasks are not completions");
    }
}
