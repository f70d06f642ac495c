//! Differential test of a plain task's two ways to a worker: a plain task
//! spawned by a thread that is not a worker is an entry whose record the
//! worker that pulls it builds, a task with a clause (here a cancel token
//! that is never cancelled) is the record its spawn filled. The runtime must
//! run both alike.
//!
//! One seeded program runs three ways — every task plain; every task, a
//! batched slice included, carrying the token; every third task carrying it
//! and the slice spawned as a plain batch.
//!
//! Wherever two runs are compared, what they booked must be equal too: the
//! group's level × mode statistics, which a worker books per task, and the
//! worker ledgers' counts by mode and outcome summary, which a worker books
//! per run of entries (a share's consecutive entries of one mode and one
//! dispatch decision, in one section) and per record. Within each run the
//! ledger must count by mode what the group's statistics count.
//!
//! * Under GTB(1), GTB(7), GTB(32) and GTB Max-Buffer, at one and two
//!   workers, each task must run in the same mode (accurate, approximate or
//!   dropped) in all three runs, that mode must be what GTB's definition
//!   gives for the task's window, and the group's statistics must be equal.
//!   The buffer keeps its entries in chunks of 1 024, each decided from the
//!   quota the chunks before it leave by the worker that pulls it: a GTB
//!   Max-Buffer group of 3 000 tasks is three chunks, one of 10 000 ten.
//! * Under the agnostic policy, at one and two workers, every task must run
//!   accurately all three ways.
//! * Under LQH at one worker, where tasks run in spawn order and its
//!   decisions repeat, each task must run in the same mode plain as with
//!   the token. (The mixed run orders records and entries by their own
//!   paths, so LQH's histories differ there.)
//! * Under LQH and GTB(32) at one worker, with a fault plan injecting panics
//!   and stalls and a queue watermark the backlog crosses, the program runs
//!   plain (entries, which the worker runs straight from its share) and
//!   with the token (records), its whole backlog queued behind a held
//!   worker so that both runs see the same queue depths: each task must
//!   run in the same mode, or not run, both ways, and the runs must count
//!   the same completions, panics and sheds by level. A share's unstarted
//!   entries are queued work for the brownout as much as queued records.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use sig_core::{
    BatchTask, CancelToken, FaultPlan, GroupStatsSnapshot, OutcomeSummary, Policy, Runtime,
    ShedHistogram,
};

const RATIO: f64 = 0.37;

const NOT_RUN: u8 = 0;
const ACCURATE: u8 = 1;
const APPROXIMATE: u8 = 2;

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// What a run booked: the group's level × mode statistics, which a worker
/// books per task, the worker ledgers' counts by mode (accurate,
/// approximate, dropped), which a worker books per run of entries and per
/// record, and the outcome summary the barrier folds from the ledgers.
#[derive(Debug, PartialEq)]
struct Booked {
    group: GroupStatsSnapshot,
    by_mode: [usize; 3],
    outcomes: OutcomeSummary,
}

impl Booked {
    /// What `rt` booked for `group` once it drained, which must be the
    /// runtime's only group with tasks: its ledger and the group's
    /// statistics must count the same tasks in each mode.
    fn of(rt: &Runtime, group: &sig_core::TaskGroup, outcomes: OutcomeSummary) -> Self {
        let group = rt.group_stats(group);
        let stats = rt.stats();
        let by_mode = [stats.accurate(), stats.approximate(), stats.dropped()];
        assert_eq!(
            by_mode,
            [group.accurate, group.approximate, group.dropped],
            "the ledger and the group's statistics count different tasks by mode"
        );
        assert_eq!(outcomes.completed, group.total());
        Booked {
            group,
            by_mode,
            outcomes,
        }
    }
}

/// How a run spawns the program's tasks.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Way {
    /// Every task plain, each spawned alone.
    Plain,
    /// Every task with the token, the batched slice too.
    Records,
    /// Every third task with the token; the slice a plain batch.
    Mixed,
}

/// The program: each task's significance (in tenths, 0.0 to 1.0) and
/// whether it has an approximate body, and the slice spawned as one batch.
struct Program {
    tenths: Vec<u8>,
    batch: std::ops::Range<usize>,
}

impl Program {
    fn new(policy: Policy, tasks: usize, seed: u64) -> Self {
        // Outside GTB the slice straddles two staging chunks.
        let batch = match policy.buffer_capacity() {
            // A batch appended to an empty buffer is one window, so the
            // slice is one aligned window: the same window as spawned alone.
            Some(b) if b < usize::MAX => 5 * b..6 * b,
            _ => 1_000..2_500,
        };
        let mut rng = SplitMix64(seed);
        let tenths = (0..tasks).map(|_| (rng.next() % 11) as u8).collect();
        Program { tenths, batch }
    }

    fn significance(&self, i: usize) -> f64 {
        f64::from(self.tenths[i]) / 10.0
    }

    /// Every fourth task is dropped when it is not run accurately.
    fn has_approx(i: usize) -> bool {
        i % 4 != 3
    }

    /// Each task's mode by GTB's definition: within each window, every
    /// critical task and the `ceil(ratio * n)` minus criticals most
    /// significant others run accurately, ties going to the earlier spawn;
    /// a task of significance 0.0 never does.
    fn expected(&self, policy: Policy) -> Vec<u8> {
        let window = match policy.buffer_capacity() {
            Some(b) if b < usize::MAX => b,
            _ => self.tenths.len(),
        };
        let mut modes = vec![NOT_RUN; self.tenths.len()];
        for (w, tenths) in self.tenths.chunks(window).enumerate() {
            let criticals = tenths.iter().filter(|&&t| t == 10).count();
            let mut slots =
                ((RATIO * tenths.len() as f64).ceil() as usize).saturating_sub(criticals);
            let mut ordinary: Vec<usize> = (0..tenths.len())
                .filter(|&k| tenths[k] != 0 && tenths[k] != 10)
                .collect();
            ordinary.sort_by_key(|&k| std::cmp::Reverse(tenths[k]));
            let mut accurate: Vec<bool> = tenths.iter().map(|&t| t == 10).collect();
            for k in ordinary {
                if slots == 0 {
                    break;
                }
                accurate[k] = true;
                slots -= 1;
            }
            for (k, accurate) in accurate.into_iter().enumerate() {
                let i = w * window + k;
                modes[i] = if accurate {
                    ACCURATE
                } else if Self::has_approx(i) {
                    APPROXIMATE
                } else {
                    NOT_RUN
                };
            }
        }
        modes
    }

    /// Run the program one way; every task's mode and what the run booked.
    fn run(&self, policy: Policy, workers: usize, way: Way) -> (Vec<u8>, Booked) {
        let rt = Runtime::builder().workers(workers).policy(policy).build();
        let group = rt.create_group("differential", RATIO);
        let token = CancelToken::new();
        let modes: Arc<Vec<AtomicU8>> = Arc::new(
            (0..self.tenths.len())
                .map(|_| AtomicU8::new(NOT_RUN))
                .collect(),
        );
        let body = |i: usize, mode: u8| {
            let modes = modes.clone();
            move || {
                let before = modes[i].swap(mode, Ordering::Relaxed);
                assert_eq!(before, NOT_RUN, "task {i} ran twice");
            }
        };
        let mut i = 0;
        while i < self.tenths.len() {
            if i == self.batch.start && way != Way::Plain {
                let mut batch = rt.batch().group(&group);
                if way == Way::Records {
                    batch = batch.cancel_token(&token);
                }
                batch.spawn_tasks(self.batch.clone().map(|i| {
                    let task = BatchTask::new(body(i, ACCURATE)).significance(self.significance(i));
                    if Self::has_approx(i) {
                        task.approx(body(i, APPROXIMATE))
                    } else {
                        task
                    }
                }));
                i = self.batch.end;
                continue;
            }
            let mut task = rt
                .task(body(i, ACCURATE))
                .significance(self.significance(i))
                .group(&group);
            if Self::has_approx(i) {
                task = task.approx(body(i, APPROXIMATE));
            }
            if way == Way::Records || (way == Way::Mixed && i % 3 == 0) {
                task = task.cancel_token(&token);
            }
            task.spawn();
            i += 1;
        }
        let summary = rt.wait_group(&group);
        assert_eq!(summary.cancelled, 0, "the token is never cancelled");
        let booked = Booked::of(&rt, &group, summary);
        assert_eq!(booked.group.total(), self.tenths.len());
        let modes = modes.iter().map(|m| m.load(Ordering::Relaxed)).collect();
        (modes, booked)
    }
}

/// What a run under faults and a watermark observed.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Every task's mode: the body that ran, or `NOT_RUN`.
    modes: Vec<u8>,
    completed: usize,
    panicked: usize,
    shed: usize,
    shed_by_level: ShedHistogram,
    /// The ledgers' counts by mode.
    by_mode: [usize; 3],
}

/// Injected faults: 5 % panics and 2 % stalls of 20 µs, drawn from the
/// task id, so a plain run and a record run hit the same tasks.
fn fault_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .panics(50)
        .stalls(20, Duration::from_micros(20))
}

impl Program {
    /// Run the program at one worker under `plan` and a queue watermark,
    /// plain or with the token, its whole backlog queued behind a blocker
    /// before the worker starts on it.
    fn run_faulted(&self, policy: Policy, plan: FaultPlan, way: Way) -> Observed {
        let rt = Runtime::builder()
            .workers(1)
            .policy(policy)
            .fault_plan(plan)
            .queue_watermark(self.tenths.len() / 4)
            .build();
        let group = rt.create_group("faulted", RATIO);
        let token = CancelToken::new();
        // Task 0, which the plan leaves alone, holds the worker; under GTB
        // it fills its window in the global group with accurate no-ops, so
        // the flush hands it to the worker.
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        rt.task(move || {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        })
        .spawn();
        if let Some(window) = policy.buffer_capacity() {
            for _ in 1..window {
                rt.task(|| {}).spawn();
            }
        }
        started_rx.recv().unwrap();
        let modes: Arc<Vec<AtomicU8>> = Arc::new(
            (0..self.tenths.len())
                .map(|_| AtomicU8::new(NOT_RUN))
                .collect(),
        );
        for i in 0..self.tenths.len() {
            let body = |mode: u8| {
                let modes = modes.clone();
                move || modes[i].store(mode, Ordering::Relaxed)
            };
            let mut task = rt
                .task(body(ACCURATE))
                .significance(self.significance(i))
                .group(&group);
            if Self::has_approx(i) {
                task = task.approx(body(APPROXIMATE));
            }
            if way == Way::Records {
                task = task.cancel_token(&token);
            }
            task.spawn();
        }
        release_tx.send(()).unwrap();
        let summary = rt.wait_all();
        assert_eq!(summary.cancelled, 0, "the token is never cancelled");
        assert_eq!(summary.completed + summary.failed(), summary.spawned);
        let stats = rt.stats();
        Observed {
            modes: modes.iter().map(|m| m.load(Ordering::Relaxed)).collect(),
            completed: summary.completed,
            panicked: summary.panicked,
            shed: summary.shed,
            shed_by_level: summary.shed_by_level,
            by_mode: [stats.accurate(), stats.approximate(), stats.dropped()],
        }
    }
}

#[test]
fn entries_and_records_fail_and_shed_alike_under_faults_and_a_watermark() {
    for (seed, policy) in [Policy::Lqh, Policy::Gtb { buffer_size: 32 }]
        .into_iter()
        .enumerate()
    {
        let program = Program::new(policy, 1_024, 0x5EED + 20 + seed as u64);
        let plan_seed = (0..)
            .find(|&s| fault_plan(s).decide(0).is_none())
            .expect("a seed that spares the blocker");
        let plain = program.run_faulted(policy, fault_plan(plan_seed), Way::Plain);
        assert!(
            plain.panicked > 0 && plain.shed > 0 && plain.completed > 0,
            "{policy:?}: the run panics, sheds and completes: {plain:?}"
        );
        let records = program.run_faulted(policy, fault_plan(plan_seed), Way::Records);
        if let Some(i) = (0..plain.modes.len()).find(|&i| records.modes[i] != plain.modes[i]) {
            panic!(
                "{policy:?}: task {i} ran in mode {} with the token and in mode {} plain",
                records.modes[i], plain.modes[i]
            );
        }
        assert_eq!(records, plain, "{policy:?}");
    }
}

#[test]
fn entries_and_records_decide_alike() {
    let runs = [
        (Policy::Gtb { buffer_size: 1 }, 500),
        (Policy::Gtb { buffer_size: 7 }, 500),
        (Policy::Gtb { buffer_size: 32 }, 500),
        (Policy::GtbMaxBuffer, 3_000),
        (Policy::GtbMaxBuffer, 10_000),
    ];
    for (seed, (policy, tasks)) in runs.into_iter().enumerate() {
        let program = Program::new(policy, tasks, 0x5EED + seed as u64);
        let expected = program.expected(policy);
        for workers in [1, 2] {
            let (plain, plain_booked) = program.run(policy, workers, Way::Plain);
            for (i, (&got, &want)) in plain.iter().zip(&expected).enumerate() {
                assert_eq!(
                    got,
                    want,
                    "{policy:?}, {tasks} tasks, {workers} workers: plain task {i} (significance {}) \
                     ran in mode {got}, GTB gives {want}",
                    program.significance(i)
                );
            }
            for way in [Way::Records, Way::Mixed] {
                let (modes, booked) = program.run(policy, workers, way);
                if let Some(i) = (0..modes.len()).find(|&i| modes[i] != plain[i]) {
                    panic!(
                        "{policy:?}, {tasks} tasks, {workers} workers, {way:?}: task {i} ran in mode {} \
                         where the plain run ran it in mode {}",
                        modes[i], plain[i]
                    );
                }
                assert_eq!(
                    booked, plain_booked,
                    "{policy:?}, {tasks} tasks, {workers} workers, {way:?}"
                );
            }
        }
    }
}

#[test]
fn agnostic_runs_entries_and_records_accurately() {
    let policy = Policy::SignificanceAgnostic;
    let program = Program::new(policy, 3_000, 0x5EED + 10);
    for workers in [1, 2] {
        let mut first_booked = None;
        for way in [Way::Plain, Way::Records, Way::Mixed] {
            let (modes, booked) = program.run(policy, workers, way);
            if let Some(i) = modes.iter().position(|&mode| mode != ACCURATE) {
                panic!(
                    "{workers} workers, {way:?}: task {i} ran in mode {}, not accurately",
                    modes[i]
                );
            }
            match &first_booked {
                Some(first) => assert_eq!(&booked, first, "{workers} workers, {way:?}"),
                None => first_booked = Some(booked),
            }
        }
    }
}

#[test]
fn lqh_at_one_worker_decides_entries_as_records() {
    let policy = Policy::Lqh;
    let program = Program::new(policy, 3_000, 0x5EED + 11);
    let (plain, plain_booked) = program.run(policy, 1, Way::Plain);
    assert!(
        plain.contains(&ACCURATE) && plain.contains(&APPROXIMATE),
        "LQH at ratio {RATIO} runs some tasks each way"
    );
    let (records, booked) = program.run(policy, 1, Way::Records);
    if let Some(i) = (0..plain.len()).find(|&i| records[i] != plain[i]) {
        panic!(
            "task {i} ran in mode {} with the token and in mode {} plain",
            records[i], plain[i]
        );
    }
    assert_eq!(booked, plain_booked);
}
