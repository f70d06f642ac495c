//! Deterministic fault injection for chaos testing.
//!
//! A [`FaultPlan`] maps every task id to at most one [`FaultAction`] — a
//! body panic, a worker stall before the task starts, or a dilated
//! execution — using a seeded integer hash of the id. Determinism is the
//! point: the same `(seed, task id)` pair always yields the same action, so
//! a failing chaos run reproduces exactly from its seed, with no wall-clock
//! or RNG state involved.
//!
//! The plan is installed at build time
//! ([`RuntimeBuilder::fault_plan`](crate::runtime::RuntimeBuilder::fault_plan))
//! and consulted once per task at dispatch. Production
//! configurations carry no plan and pay one `Option` check.

use std::time::Duration;

/// The fault injected into one task, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The task body panics instead of running.
    Panic,
    /// The executing worker stalls for the given pause before the task
    /// starts (outside the task's timed window): a slow or descheduled
    /// worker.
    Stall(Duration),
    /// The task's execution is dilated by the given extra time (inside the
    /// timed window): a task that runs long and endangers deadlines.
    Dilate(Duration),
}

/// A seeded, deterministic fault-injection plan.
///
/// Rates are expressed per mille (0..=1000) of tasks; the three rates must
/// sum to at most 1000. Which tasks are hit is a pure function of the seed
/// and the task id.
///
/// ```
/// use sig_core::FaultPlan;
/// use std::time::Duration;
///
/// let plan = FaultPlan::new(42)
///     .panics(100)
///     .stalls(50, Duration::from_micros(200))
///     .dilation(50, Duration::from_micros(100));
/// // Deterministic: the same id always draws the same action.
/// assert_eq!(plan.decide(7), plan.decide(7));
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    panic_per_mille: u16,
    stall_per_mille: u16,
    stall: Duration,
    dilate_per_mille: u16,
    dilation: Duration,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Inject a body panic into `per_mille` out of every 1000 tasks.
    pub fn panics(mut self, per_mille: u16) -> Self {
        self.panic_per_mille = per_mille;
        self.check_rates();
        self
    }

    /// Stall the executing worker for `pause` on `per_mille` out of every
    /// 1000 tasks.
    pub fn stalls(mut self, per_mille: u16, pause: Duration) -> Self {
        self.stall_per_mille = per_mille;
        self.stall = pause;
        self.check_rates();
        self
    }

    /// Dilate the execution of `per_mille` out of every 1000 tasks by
    /// `extra`.
    pub fn dilation(mut self, per_mille: u16, extra: Duration) -> Self {
        self.dilate_per_mille = per_mille;
        self.dilation = extra;
        self.check_rates();
        self
    }

    fn check_rates(&self) {
        let total = self.panic_per_mille as u32
            + self.stall_per_mille as u32
            + self.dilate_per_mille as u32;
        assert!(
            total <= 1000,
            "fault rates must sum to at most 1000 per mille, got {total}"
        );
    }

    /// The fault injected into task `id`, if any. Pure function of
    /// `(seed, id)`.
    pub fn decide(&self, id: u64) -> Option<FaultAction> {
        // splitmix64-style finaliser over the seeded id: cheap, stateless,
        // and well-mixed enough that per-mille rates hold across any id
        // stride a workload produces.
        let mut x = self.seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        let roll = (x % 1000) as u16;
        if roll < self.panic_per_mille {
            return Some(FaultAction::Panic);
        }
        if roll < self.panic_per_mille + self.stall_per_mille {
            return Some(FaultAction::Stall(self.stall));
        }
        if roll < self.panic_per_mille + self.stall_per_mille + self.dilate_per_mille {
            return Some(FaultAction::Dilate(self.dilation));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_faults() {
        let plan = FaultPlan::new(7);
        assert!((0..10_000).all(|id| plan.decide(id).is_none()));
    }

    #[test]
    fn decisions_are_deterministic_per_seed_and_id() {
        let plan = FaultPlan::new(1234)
            .panics(100)
            .stalls(100, Duration::from_micros(50))
            .dilation(100, Duration::from_micros(50));
        for id in 0..5_000 {
            assert_eq!(plan.decide(id), plan.decide(id));
        }
        let replay = plan.clone();
        let a: Vec<_> = (0..5_000).map(|id| plan.decide(id)).collect();
        let b: Vec<_> = (0..5_000).map(|id| replay.decide(id)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_hit_different_tasks() {
        let a = FaultPlan::new(1).panics(100);
        let b = FaultPlan::new(2).panics(100);
        let differs = (0..10_000u64).any(|id| a.decide(id) != b.decide(id));
        assert!(differs, "seeds must produce distinct fault sets");
    }

    #[test]
    fn rates_are_roughly_respected() {
        let plan = FaultPlan::new(99)
            .panics(150)
            .stalls(50, Duration::from_micros(1))
            .dilation(100, Duration::from_micros(1));
        const N: u64 = 100_000;
        let mut panics = 0u64;
        let mut stalls = 0u64;
        let mut dilations = 0u64;
        for id in 0..N {
            match plan.decide(id) {
                Some(FaultAction::Panic) => panics += 1,
                Some(FaultAction::Stall(_)) => stalls += 1,
                Some(FaultAction::Dilate(_)) => dilations += 1,
                None => {}
            }
        }
        let tolerance =
            |expected: u64, got: u64| (got as i64 - expected as i64).unsigned_abs() < expected / 5;
        assert!(tolerance(N * 150 / 1000, panics), "panics: {panics}");
        assert!(tolerance(N * 50 / 1000, stalls), "stalls: {stalls}");
        assert!(
            tolerance(N * 100 / 1000, dilations),
            "dilations: {dilations}"
        );
    }

    #[test]
    #[should_panic(expected = "sum to at most 1000")]
    fn overfull_rates_rejected() {
        let _ = FaultPlan::new(0).panics(600).stalls(500, Duration::ZERO);
    }
}
