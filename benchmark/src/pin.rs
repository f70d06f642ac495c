//! Thread placement.
//!
//! Unpinned, the scheduler workloads are bimodal on a small host: the OS
//! decides whether the spawner and a worker share a core (0.67M–2.63M
//! tasks/s over ten identical runs on 2 vCPUs). The runtime builds its own
//! threads and offers no placement hook, so placement is done from outside:
//! a new thread inherits its creator's affinity mask, so the mask is set to
//! the worker CPUs before the runtime is built and the calling thread is
//! re-pinned afterwards.

use std::io;

/// `cpu_set_t` of glibc: 1024 bits.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
}

fn allowed_cpus() -> io::Result<Vec<usize>> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((0..MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect())
}

fn set_affinity(cpus: &[usize]) -> io::Result<()> {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Where the benchmark's threads run, decided once per process.
#[derive(Debug, Clone)]
pub struct Placement {
    /// CPUs this process may use, ascending. The first is the spawner's.
    cpus: Vec<usize>,
    /// Whether affinity masks are being applied.
    pub pinned: bool,
}

impl Placement {
    /// Pin the calling (spawner) thread to the first allowed CPU. With one
    /// CPU, or when the kernel refuses the mask, run unpinned.
    pub fn detect() -> Self {
        let cpus = allowed_cpus().unwrap_or_default();
        let pinned = cpus.len() >= 2 && set_affinity(&cpus[..1]).is_ok();
        Placement { cpus, pinned }
    }

    /// CPUs available to the process (1 when the mask could not be read).
    pub fn cores(&self) -> usize {
        self.cpus.len().max(1)
    }

    /// Workers of a scheduler workload: every CPU but the spawner's, which
    /// is busy for the whole pass. One when unpinned.
    pub fn sched_workers(&self) -> usize {
        if self.pinned {
            self.cpus.len() - 1
        } else {
            1
        }
    }

    /// Workers of the kernel workload: every CPU, since the master blocks
    /// in the barrier while the bodies run.
    pub fn kernel_workers(&self) -> usize {
        self.cores()
    }

    /// Run `build` (which creates the runtime's threads) with the mask set
    /// to the worker CPUs, then put the caller back on the spawner CPU.
    pub fn build_on_worker_cpus<T>(&self, build: impl FnOnce() -> T) -> T {
        self.with_mask(1, build)
    }

    /// Run `call` with the mask opened to every allowed CPU, for code that
    /// builds its runtime internally and blocks the caller meanwhile.
    pub fn on_all_cpus<T>(&self, call: impl FnOnce() -> T) -> T {
        self.with_mask(0, call)
    }

    fn with_mask<T>(&self, first: usize, f: impl FnOnce() -> T) -> T {
        if !self.pinned {
            return f();
        }
        // The masks are subsets of the one `detect` already applied from, so
        // a failure here is a broken invariant, not an environment quirk.
        set_affinity(&self.cpus[first..]).expect("narrowing to allowed CPUs");
        let out = f();
        set_affinity(&self.cpus[..1]).expect("re-pinning the spawner");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_never_asks_for_more_threads_than_cpus() {
        let p = Placement::detect();
        assert!(p.sched_workers() >= 1);
        assert!(p.kernel_workers() <= p.cores());
        if p.pinned {
            assert_eq!(p.sched_workers(), p.cores() - 1);
            assert_eq!(allowed_cpus().unwrap(), p.cpus[..1]);
            let inherited = p.build_on_worker_cpus(|| {
                std::thread::spawn(|| allowed_cpus().unwrap())
                    .join()
                    .unwrap()
            });
            assert_eq!(inherited, p.cpus[1..]);
            assert_eq!(allowed_cpus().unwrap(), p.cpus[..1], "spawner re-pinned");
        } else {
            assert_eq!(p.sched_workers(), 1);
        }
    }
}
