//! Differential test of dependence registration: seeded random footprints,
//! every body a non-commutative update of the cells it writes, and the final
//! cells must equal a serial replay in spawn order — under every policy, with
//! two threads registering at once.
//!
//! Each spawner thread owns eight keys (so its tasks' order is its own spawn
//! order, whatever the other thread does) and both read one shared key that
//! nobody writes. Footprints cover every shape registration distinguishes:
//! read-only (one key: the lock-free path; several: the locked one),
//! write-only, read and write of the same key, a key named twice, more than
//! four keys, and none at all.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sig_core::{DepKey, Policy, Runtime};

const THREADS: usize = 2;
const OWN_KEYS: usize = 8;
/// Index of the shared read-only cell, after every thread's own.
const SHARED: usize = THREADS * OWN_KEYS;
const TASKS_PER_THREAD: usize = 4_000;
const MULTIPLIER: u64 = 0xD130_2B6B_5E4B_2F4D;

struct SplitMix64(u64);

impl SplitMix64 {
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
}

/// Cell indexes a task reads and writes, as declared (duplicates included).
#[derive(Clone)]
struct Footprint {
    reads: Vec<usize>,
    writes: Vec<usize>,
}

fn random_footprint(rng: &mut SplitMix64, thread: usize) -> Footprint {
    let own = |rng: &mut SplitMix64| thread * OWN_KEYS + rng.below(OWN_KEYS);
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    match rng.below(8) {
        0 => {} // no footprint
        1 => reads.push(own(rng)),
        2 => reads.extend([own(rng), SHARED, own(rng)]),
        3 => writes.push(own(rng)),
        4 => {
            // Read and write of one key, and a second key read.
            let key = own(rng);
            reads.extend([key, own(rng)]);
            writes.push(key);
        }
        5 => {
            // The same key named twice on each side.
            let key = own(rng);
            reads.extend([key, key, SHARED]);
            writes.extend([own(rng), key, key]);
        }
        6 => {
            // Wider than four keys.
            reads.extend((0..5).map(|_| own(rng)));
            writes.extend((0..2).map(|_| own(rng)));
        }
        _ => reads.push(SHARED),
    }
    Footprint { reads, writes }
}

/// What a task does to the cells: every written cell becomes a multiply-add
/// of itself, everything read and the task's tag (so two writers of a cell
/// do not commute); a task that writes nothing folds what it read into its
/// thread's checksum (so it must run between the right pair of writers).
fn apply(cells: &[AtomicU64], checksum: &AtomicU64, footprint: &Footprint, tag: u64) {
    let seen = footprint.reads.iter().fold(tag, |sum, &cell| {
        sum.wrapping_add(cells[cell].load(Ordering::Relaxed))
    });
    for &cell in &footprint.writes {
        let own = cells[cell].load(Ordering::Relaxed);
        cells[cell].store(
            own.wrapping_mul(MULTIPLIER).wrapping_add(seen),
            Ordering::Relaxed,
        );
    }
    if footprint.writes.is_empty() {
        checksum.fetch_add(seen.wrapping_mul(tag | 1), Ordering::Relaxed);
    }
}

fn fresh_cells(seed: u64) -> Vec<AtomicU64> {
    let mut rng = SplitMix64(seed ^ 0xCE11_5EED);
    (0..=SHARED).map(|_| AtomicU64::new(rng.next())).collect()
}

fn thread_rng(seed: u64, thread: usize) -> SplitMix64 {
    SplitMix64(seed.wrapping_mul(THREADS as u64 + 1) + thread as u64)
}

#[test]
fn random_footprints_match_the_serial_replay_under_every_policy() {
    for seed in 1..=3u64 {
        // Serial replay: each thread's tasks in its spawn order. The threads
        // share no written cell, so their relative order does not matter.
        let want_cells = fresh_cells(seed);
        let want_checksums: Vec<AtomicU64> = (0..THREADS).map(|_| AtomicU64::new(0)).collect();
        for (thread, want_checksum) in want_checksums.iter().enumerate() {
            let mut rng = thread_rng(seed, thread);
            for task in 0..TASKS_PER_THREAD {
                let footprint = random_footprint(&mut rng, thread);
                apply(&want_cells, want_checksum, &footprint, task as u64);
            }
        }

        for policy in [
            Policy::SignificanceAgnostic,
            Policy::Gtb { buffer_size: 16 },
            Policy::GtbMaxBuffer,
            Policy::Lqh,
        ] {
            let rt = Runtime::builder().workers(4).policy(policy).build();
            let group = rt.create_group("differential", 0.5);
            let keys: Vec<DepKey> = (0..=SHARED)
                .map(|cell| DepKey::element(DepKey::named("differential"), cell))
                .collect();
            let cells = Arc::new(fresh_cells(seed));
            let checksums: Arc<Vec<AtomicU64>> =
                Arc::new((0..THREADS).map(|_| AtomicU64::new(0)).collect());

            std::thread::scope(|scope| {
                for thread in 0..THREADS {
                    let (rt, group, keys) = (&rt, &group, &keys);
                    let (cells, checksums) = (&cells, &checksums);
                    scope.spawn(move || {
                        let mut rng = thread_rng(seed, thread);
                        for task in 0..TASKS_PER_THREAD {
                            let footprint = random_footprint(&mut rng, thread);
                            let body = {
                                let (cells, checksums) = (cells.clone(), checksums.clone());
                                let footprint = footprint.clone();
                                move || apply(&cells, &checksums[thread], &footprint, task as u64)
                            };
                            rt.task(body.clone())
                                .approx(body)
                                .significance(((task % 9) + 1) as f64 / 10.0)
                                .group(group)
                                .reads(footprint.reads.iter().map(|&cell| keys[cell]))
                                .writes(footprint.writes.iter().map(|&cell| keys[cell]))
                                .spawn();
                        }
                    });
                }
            });
            let outcomes = rt.wait_all();

            assert_eq!(outcomes.completed, THREADS * TASKS_PER_THREAD);
            assert_eq!(outcomes.failed(), 0, "{policy:?} seed {seed}: {outcomes:?}");
            let differing: Vec<usize> = (0..=SHARED)
                .filter(|&cell| {
                    cells[cell].load(Ordering::Relaxed) != want_cells[cell].load(Ordering::Relaxed)
                })
                .collect();
            assert!(
                differing.is_empty(),
                "{policy:?} seed {seed}: cells {differing:?} differ from the serial replay"
            );
            for (thread, (got, want)) in checksums.iter().zip(&want_checksums).enumerate() {
                assert_eq!(
                    got.load(Ordering::Relaxed),
                    want.load(Ordering::Relaxed),
                    "{policy:?} seed {seed}: a reader of thread {thread} ran out of order"
                );
            }
        }
    }
}
