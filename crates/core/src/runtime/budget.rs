//! The online energy-budget loop: [`BudgetState`] (a
//! [`BudgetController`] and its sampling pacing), the amortised tick on the
//! execute path, and [`RuntimeInner::sample_budget`], the one
//! report → observe → store → apply sequence that both the tick and
//! [`Runtime::energy_budget_sample`] run.
//!
//! # Checklist for the model checker
//!
//! Unsafe blocks: none. Atomics: none of its own. The state sits behind
//! one `Mutex`, which the execute path only ever `try_lock`s, so no worker
//! blocks on it; the setpoint reaches the workers through
//! `ExecutionEnv::set_dispatch_cap` and `GroupState::set_budget_scale`,
//! whose orderings `env.rs` and `group.rs` own.

use std::time::Duration;

use sig_energy::{BudgetConfig, BudgetController, BudgetSetpoint};

use super::{Runtime, RuntimeInner};
use crate::sync::MutexGuard;

/// Online energy-budget loop state: the controller plus its sampling
/// pacing, behind the runtime's one budget `Mutex`. Amortised like the
/// overload controller: every `TICK_MASK + 1` executes per worker one
/// worker *tries* to take the turn (`try_lock`, never blocking the execute
/// path), and takes a sample only once the minimum interval has elapsed —
/// so tiny tasks don't oversample and idle periods are simply sampled at
/// the next execute.
pub(super) struct BudgetState {
    controller: BudgetController,
    /// Next sample time, nanoseconds since runtime start.
    next_sample_nanos: u64,
    interval_nanos: u64,
    setpoint: BudgetSetpoint,
}

impl BudgetState {
    /// Attempt a budget sample once per this many + 1 executes per worker.
    const TICK_MASK: usize = 31;

    pub(super) fn new(config: BudgetConfig) -> Self {
        BudgetState {
            controller: BudgetController::new(config),
            next_sample_nanos: 0,
            interval_nanos: config.target.sample_interval_nanos(),
            setpoint: BudgetSetpoint::unconstrained(config.target.planned_watts(0.0, 0.0)),
        }
    }
}

impl RuntimeInner {
    /// Amortised energy-budget sample, called from the execute path next to
    /// [`RuntimeInner::overload_tick`]. `try_lock` keeps it wait-free for
    /// every worker but the one taking the sample; the minimum-interval
    /// check inside makes the sampling rate task-size independent.
    pub(super) fn budget_tick(&self, t: usize) {
        let Some(budget) = &self.budget else { return };
        if t & BudgetState::TICK_MASK != 0 {
            return;
        }
        let Ok(mut state) = budget.try_lock() else {
            return;
        };
        let elapsed = self.started.elapsed();
        let now_nanos = elapsed.as_nanos().min(u64::MAX as u128) as u64;
        if now_nanos < state.next_sample_nanos {
            return;
        }
        state.next_sample_nanos = now_nanos + state.interval_nanos;
        self.sample_budget(state, elapsed);
    }

    /// Price the window up to `elapsed`, let the controller observe it,
    /// store the setpoint, release the lock, then push the setpoint into
    /// the two actuators: the environment's approximate-dispatch frequency
    /// cap and every group's budget throttle (groups at ratio 1.0 are
    /// exempt inside `effective_ratio`).
    fn sample_budget(
        &self,
        mut state: MutexGuard<'_, BudgetState>,
        elapsed: Duration,
    ) -> BudgetSetpoint {
        let wall = elapsed.as_secs_f64();
        let reading = self.stats.env.report(wall, self.parkers.len()).reading();
        let setpoint = state.controller.observe(wall, &reading);
        state.setpoint = setpoint;
        drop(state);
        self.stats.env.set_dispatch_cap(setpoint.frequency_cap);
        for group in self.groups.all() {
            group.set_budget_scale(setpoint.ratio_scale);
        }
        setpoint
    }
}

impl Runtime {
    /// Latest setpoint of the online energy-budget controller, or `None`
    /// when no budget was configured ([`RuntimeBuilder::energy_budget`](super::RuntimeBuilder::energy_budget)).
    pub fn energy_budget_setpoint(&self) -> Option<BudgetSetpoint> {
        let budget = self.inner.budget.as_ref()?;
        Some(budget.lock().unwrap().setpoint)
    }

    /// Force one budget-controller observation right now, bypassing the
    /// amortised execute-path pacing, and return the resulting setpoint
    /// (`None` without a configured budget). Useful around barriers: the
    /// sample prices the full window, so `energy_budget_setpoint` reflects
    /// the final spend.
    pub fn energy_budget_sample(&self) -> Option<BudgetSetpoint> {
        let budget = self.inner.budget.as_ref()?;
        let state = budget.lock().unwrap();
        Some(
            self.inner
                .sample_budget(state, self.inner.started.elapsed()),
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::policy::Policy;
    use crate::runtime::Runtime;
    use sig_energy::{BudgetConfig, BudgetTarget};

    /// A NaN budget knob would reach the dispatch cap, panic every worker
    /// and leave `wait_group` hanging, so `build` refuses it.
    #[test]
    #[should_panic(expected = "BudgetConfig::cap_floor is NaN")]
    fn nan_budget_knob_rejected_at_build() {
        let budget = BudgetConfig::new(BudgetTarget::TotalJoules {
            joules: 1e-9,
            horizon_seconds: 1.0,
        })
        .cap_floor(f64::NAN);
        let _ = Runtime::builder()
            .workers(2)
            .policy(Policy::GtbMaxBuffer)
            .energy_budget(budget)
            .build();
    }
}
