//! The paper's evaluation (arXiv 1412.5150, Section 4) at small fixed sizes:
//! Table 1, Figure 1, Figure 2 with Table 2 as its Medium slice, and
//! Figure 3. Each section states the paper's claim beside our numbers; the
//! golden pins the numbers and [`invariant_errors`] the claim's orderings.
//!
//! Unlike the other replays this one runs the kernels on the runtime's
//! worker threads, so it keeps only columns that scheduling cannot move.
//! With one spawner, GTB decides from the significance annotations and the
//! spawn order alone: quality, task counts, inversions and ratio deviation
//! come out bit-identical at any worker count, which
//! `tests/golden_replays.rs` checks at 1 and 4 workers. LQH decides as tasks
//! run, so its rows are their own section at one worker, where the tasks
//! run in spawn order. Time and energy are left to sigbench, and the report
//! says so where they would stand.

use sig_kernels::dct::Dct;
use sig_kernels::fluidanimate::Fluidanimate;
use sig_kernels::jacobi::Jacobi;
use sig_kernels::kmeans::KMeans;
use sig_kernels::mc::MonteCarlo;
use sig_kernels::sobel::Sobel;
use sig_kernels::{Benchmark, BenchmarkInfo, Degree};

use super::fig1::{self, Fig1Output};
use super::fig2::{self, DegreeRow, ExperimentPoint};
use super::fig3::{self, Fig3Output};
use crate::json::Json;

/// Worker threads of every task-parallel run: more than one, so tasks really
/// run concurrently. GTB decides the same at any count.
pub const WORKERS: usize = 2;
/// Buffer size of the bounded GTB flavour (the paper sets one per benchmark
/// at compile time; one moderate value is used here).
pub const GTB_BUFFER: usize = 32;

/// Kernels whose perforated output beats GTB Max-Buffer's: the paper's
/// "perforation is worse than significance" does not hold for them, and
/// their rows say `"perforation_worse": false` instead of failing.
const PERFORATION_WINS: [&str; 1] = ["Kmeans"];

/// Cells where a GTB flavour misses the requested ratio by more than LQH at
/// one worker does: the paper's "GTB tracks the ratio at least as closely
/// as LQH" does not hold there, and [`invariant_errors`] requires that it
/// still does not, so the list cannot go stale.
const LQH_CLOSER: [(&str, Degree, &str); 1] = [("DCT", Degree::Aggressive, "GTB")];

/// The LQH section's claim, which [`invariant_errors`] checks.
const LQH_ORDER: &str = "ratio_deviation: GTB(MaxBuffer) <= LQH and GTB <= LQH for every kernel \
                         and degree, except GTB at DCT Aggressive, whose 32-task buffer misses \
                         the ratio where one-worker LQH meets it (a finding, checked to persist)";

fn sobel() -> Sobel {
    Sobel {
        width: 96,
        height: 64,
    }
}

/// The six kernels at the sizes `crates/kernels/tests/output_fingerprints.rs`
/// pins, each with its size as the report spells it.
fn kernels() -> [(Box<dyn Benchmark>, &'static str); 6] {
    [
        (Box::new(sobel()), "96x64 pixels"),
        (
            Box::new(Dct {
                width: 64,
                height: 48,
            }),
            "64x48 pixels",
        ),
        (
            Box::new(MonteCarlo {
                points: 24,
                walks_per_point: 16,
                seed: 5,
            }),
            "24 points x 16 walks",
        ),
        (
            Box::new(KMeans {
                points: 1024,
                dims: 4,
                clusters: 4,
                chunks: 8,
                max_iterations: 8,
                seed: 7,
            }),
            "1024 points x 4 dims, 4 clusters, 8 chunks",
        ),
        (
            Box::new(Jacobi {
                n: 200,
                blocks: 7,
                band: 12,
                approx_sweeps: 3,
                max_sweeps: 60,
                native_tolerance: 1e-5,
                seed: 11,
            }),
            "n = 200 in 7 blocks, band 12",
        ),
        (
            Box::new(Fluidanimate {
                particles: 300,
                steps: 10,
                chunks: 7,
                dt: 0.002,
                radius: 0.08,
                seed: 13,
            }),
            "300 particles x 10 steps in 7 chunks",
        ),
    ]
}

/// One kernel's Figure 2 / Table 2 sweep.
pub struct KernelSweep {
    /// The kernel's Table 1 row.
    pub info: BenchmarkInfo,
    /// Problem size.
    pub size: &'static str,
    /// Mild, Medium, Aggressive.
    pub rows: Vec<DegreeRow>,
}

/// The Figure 2 / Table 2 sweep of every kernel at `workers` workers.
pub fn sweep(workers: usize) -> Vec<KernelSweep> {
    kernels()
        .into_iter()
        .map(|(kernel, size)| KernelSweep {
            info: kernel.info(),
            size,
            rows: fig2::sweep(kernel.as_ref(), workers),
        })
        .collect()
}

/// Every artefact of the replay.
pub struct Report {
    /// Figure 2 / Table 2, one entry per kernel (Table 1 is their `info`).
    pub kernels: Vec<KernelSweep>,
    /// LQH at one worker, Mild to Aggressive, in the order of `kernels`.
    pub lqh: Vec<Vec<ExperimentPoint>>,
    /// Figure 1 on the sweep's Sobel input.
    pub fig1: Fig1Output,
    /// Figure 3 on the same input.
    pub fig3: Fig3Output,
}

/// Replay the paper's evaluation.
pub fn run() -> Report {
    Report {
        kernels: sweep(WORKERS),
        lqh: kernels()
            .iter()
            .map(|(kernel, _)| fig2::lqh(kernel.as_ref()))
            .collect(),
        fig1: fig1::generate(&sobel()),
        fig3: fig3::generate(&sobel()),
    }
}

/// Whether perforation's output is strictly worse than GTB Max-Buffer's at
/// this degree; `None` where the kernel has no perforated variant.
fn perforation_worse(row: &DegreeRow) -> Option<bool> {
    row.perforation.map(|quality| quality > row.gtb_max.quality)
}

/// The paper's ordering claims (exact: every column is deterministic).
pub fn invariant_errors(report: &Report) -> Vec<String> {
    let mut errors = Vec::new();
    for kernel in &report.kernels {
        let name = kernel.info.name;
        for pair in kernel.rows.windows(2) {
            let (milder, harsher) = (&pair[0], &pair[1]);
            for (policy, a, b) in [
                ("GTB", &milder.gtb, &harsher.gtb),
                ("GTB(MaxBuffer)", &milder.gtb_max, &harsher.gtb_max),
            ] {
                if b.quality < a.quality {
                    errors.push(format!(
                        "{name} {policy}: quality improves from {:?} ({}) to {:?} ({})",
                        milder.degree, a.quality, harsher.degree, b.quality
                    ));
                }
            }
        }
        for row in &kernel.rows {
            let degree = row.degree;
            if row.gtb_max.inversion_percent != 0.0 {
                errors.push(format!(
                    "{name} {degree:?}: GTB(MaxBuffer) inverts {} % of tasks",
                    row.gtb_max.inversion_percent
                ));
            }
            if row.gtb_max.ratio_deviation > row.gtb.ratio_deviation {
                errors.push(format!(
                    "{name} {degree:?}: GTB(MaxBuffer) ratio deviation {} exceeds GTB's {}",
                    row.gtb_max.ratio_deviation, row.gtb.ratio_deviation
                ));
            }
            let approximates = row.gtb_max.tasks.accurate < row.gtb_max.tasks.total;
            if approximates
                && perforation_worse(row) == Some(false)
                && !PERFORATION_WINS.contains(&name)
            {
                errors.push(format!(
                    "{name} {degree:?}: perforation ({:?}) is no worse than GTB(MaxBuffer) ({})",
                    row.perforation, row.gtb_max.quality
                ));
            }
        }
    }
    for (kernel, lqh) in report.kernels.iter().zip(&report.lqh) {
        let name = kernel.info.name;
        for (row, lqh) in kernel.rows.iter().zip(lqh) {
            let degree = row.degree;
            for (policy, point) in [("GTB", &row.gtb), ("GTB(MaxBuffer)", &row.gtb_max)] {
                let closer = point.ratio_deviation <= lqh.ratio_deviation;
                if closer == LQH_CLOSER.contains(&(name, degree, policy)) {
                    let verdict = if closer {
                        "LQH_CLOSER lists it"
                    } else {
                        "LQH is closer"
                    };
                    errors.push(format!(
                        "{name} {degree:?}: {policy} ratio deviation {}, LQH's {}: {verdict}",
                        point.ratio_deviation, lqh.ratio_deviation
                    ));
                }
            }
        }
    }
    let medium = report.fig1.psnr_db[1].1;
    let dropped_70 = report.fig3.levels[1].1;
    if medium <= dropped_70 {
        errors.push(format!(
            "Sobel: Figure 1 Medium ({medium} dB) does not beat Figure 3's 70 % perforation \
             ({dropped_70} dB)"
        ));
    }
    for pair in report.fig1.psnr_db.windows(2) {
        if pair[1].1 > pair[0].1 {
            errors.push(format!(
                "Sobel: Figure 1 {:?} reads better than {:?}",
                pair[1].0, pair[0].0
            ));
        }
    }
    for pair in report.fig3.levels.windows(2) {
        if pair[1].1 > pair[0].1 {
            errors.push(format!(
                "Sobel: dropping {} % of rows reads better than dropping {} %",
                pair[1].0, pair[0].0
            ));
        }
    }
    errors
}

/// FNV-1a over the bytes, as the kernel output fingerprints use it.
fn fingerprint(bytes: &[u8]) -> Json {
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    });
    Json::Str(format!("{hash:016x}"))
}

fn point_json(point: &ExperimentPoint) -> Json {
    Json::object([
        ("quality", point.quality.into()),
        ("tasks", point.tasks.total.into()),
        ("accurate_tasks", point.tasks.accurate.into()),
        ("inversion_percent", point.inversion_percent.into()),
        ("ratio_deviation", point.ratio_deviation.into()),
    ])
}

fn row_json(row: &DegreeRow) -> Json {
    let mut members = vec![
        ("GTB", point_json(&row.gtb)),
        ("GTB(MaxBuffer)", point_json(&row.gtb_max)),
    ];
    if let (Some(quality), Some(worse)) = (row.perforation, perforation_worse(row)) {
        members.push(("perforation", quality.into()));
        members.push(("perforation_worse", worse.into()));
    }
    Json::object(members)
}

/// The Figure 2 / Table 2 section's data: per kernel, per degree, each GTB
/// flavour's columns and perforation's quality.
pub fn sweep_json(kernels: &[KernelSweep]) -> Json {
    Json::object(kernels.iter().map(|kernel| {
        let mut members = vec![
            ("size".to_string(), kernel.size.into()),
            ("metric".to_string(), kernel.info.metric.label().into()),
        ];
        members.extend(
            kernel
                .rows
                .iter()
                .map(|row| (format!("{:?}", row.degree), row_json(row))),
        );
        (kernel.info.name, Json::object(members))
    }))
}

/// LQH's Table 2 section: per kernel, per degree, the same columns as the
/// sweep's.
fn lqh_json(report: &Report) -> Json {
    Json::object(
        report
            .kernels
            .iter()
            .zip(&report.lqh)
            .map(|(kernel, points)| {
                let rows = kernel.rows.iter().zip(points);
                let rows =
                    rows.map(|(row, point)| (format!("{:?}", row.degree), point_json(point)));
                (kernel.info.name, Json::object(rows))
            }),
    )
}

fn table1_json(kernels: &[KernelSweep]) -> Json {
    Json::object(kernels.iter().map(|kernel| {
        let info = &kernel.info;
        (
            info.name,
            Json::object([
                ("approximate_or_drop", info.technique.code().into()),
                ("degree_parameter", info.degree_parameter.into()),
                ("degrees", Json::array(info.degrees.map(Json::from))),
                ("metric", info.metric.label().into()),
                ("perforation", info.perforation_supported.into()),
            ]),
        )
    }))
}

/// The report as `tests/golden/paper.json` spells it.
pub fn to_json(report: &Report) -> Json {
    let fig1 = Json::object(
        report
            .fig1
            .psnr_db
            .map(|(degree, psnr)| (format!("{degree:?}"), psnr.into())),
    );
    let fig3 = Json::object(
        report
            .fig3
            .levels
            .map(|(dropped, psnr)| (format!("{dropped}%"), psnr.into())),
    );
    Json::object([
        (
            "description",
            "the paper's evaluation (arXiv 1412.5150, Section 4) replayed on the real kernels \
             at small fixed sizes; each section states the paper's claim, and only columns that \
             thread scheduling cannot move are kept"
                .into(),
        ),
        (
            "settings",
            Json::object([
                ("workers", WORKERS.into()),
                ("gtb_buffer", GTB_BUFFER.into()),
            ]),
        ),
        (
            "table1",
            Json::object([
                (
                    "paper",
                    "per benchmark: approximate (A) or drop (D) non-accurate tasks, the \
                     Mild / Medium / Aggressive values of its degree knob, its quality metric"
                        .into(),
                ),
                ("benchmarks", table1_json(&report.kernels)),
            ]),
        ),
        (
            "figure1",
            Json::object([
                (
                    "paper",
                    "Sobel with accurate, Mild, Medium and Aggressive quadrants: quality \
                     degrades gracefully with the degree"
                        .into(),
                ),
                (
                    "asserted",
                    "PSNR never rises from Mild to Aggressive; Medium beats figure3's 70 %".into(),
                ),
                ("size", "96x64 pixels".into()),
                ("policy", "GTB(MaxBuffer)".into()),
                ("psnr_db", fig1),
                ("image_fnv1a", fingerprint(report.fig1.image.pixels())),
            ]),
        ),
        (
            "figure2_table2",
            Json::object([
                (
                    "paper",
                    "Figure 2: quality degrades gracefully with the degree under every policy, \
                     and loop perforation at the same accurate fraction is worse. Table 2 (the \
                     Medium rows here): Max-Buffer GTB respects significance and the requested \
                     ratio exactly; a bounded buffer and LQH decide on partial information and \
                     may deviate"
                        .into(),
                ),
                (
                    "asserted",
                    "quality never improves from Mild to Aggressive under either GTB flavour; \
                     GTB(MaxBuffer) inverts nothing and deviates from the ratio no more than GTB; \
                     perforation_worse wherever GTB(MaxBuffer) approximates a task, except for \
                     Kmeans"
                        .into(),
                ),
                (
                    "columns",
                    "quality: lower is better (PSNR^-1, or relative error %); \
                     inversion_percent and ratio_deviation: means over the kernel's groups \
                     (Jacobi and Fluidanimate make one group per step, with the step's ratio, 0 \
                     or 1); perforation_worse: perforated quality strictly worse than \
                     GTB(MaxBuffer)'s"
                        .into(),
                ),
                (
                    "not_here",
                    "LQH decides from per-worker histories as tasks run, so its accurate set \
                     moves with the worker count and the schedule: table2_lqh pins it at one \
                     worker. Time and energy are wall clock. sigbench measures them: kernels.* \
                     (time, joules, GTB(MaxBuffer) Medium quality at timing size) and \
                     core.ratio_error / core.inversion_pct (Table 2 over all three policies)"
                        .into(),
                ),
                ("kernels", sweep_json(&report.kernels)),
            ]),
        ),
        (
            "table2_lqh",
            Json::object([
                (
                    "paper",
                    "Table 2: LQH decides each task as it runs, from its worker's local history \
                     of the group, so it may invert significance and miss the requested ratio \
                     where Max-Buffer GTB does not"
                        .into(),
                ),
                ("asserted", LQH_ORDER.into()),
                ("workers", 1usize.into()),
                ("rows", lqh_json(report)),
            ]),
        ),
        (
            "figure3",
            Json::object([
                (
                    "paper",
                    "Sobel with 20 %, 70 % and 100 % of its rows perforated: far worse than \
                     Figure 1 at comparable work"
                        .into(),
                ),
                (
                    "asserted",
                    "PSNR never rises as more rows are dropped".into(),
                ),
                ("size", "96x64 pixels".into()),
                ("psnr_db", fig3),
                ("image_fnv1a", fingerprint(report.fig3.image.pixels())),
            ]),
        ),
        (
            "figure4",
            Json::object([
                (
                    "paper",
                    "every task accurate (ratio 100 %): the policies' overhead over the \
                     significance-agnostic runtime is typically negligible, peaking around 7 % \
                     for DCT under Max-Buffer GTB"
                        .into(),
                ),
                (
                    "not_here",
                    "time only: sigbench's kernels.policy_overhead (geometric mean over kernels \
                     x {GTB, GTB(MaxBuffer), LQH}) and core.policy.*.ns_per_task"
                        .into(),
                ),
            ]),
        ),
    ])
}
