//! Governors: the energy strategy chosen per dispatched task.
//!
//! Section 6 of the paper names "DVFS in conjunction with suitable runtime
//! policies for executing approximate (and more light-weight) task versions
//! on the slower but also less power-hungry CPUs" as the natural next step
//! for significance-aware execution. A [`Governor`] is that policy, in
//! modelled form: it maps each task's significance/policy decision to a
//! [`DispatchDecision`] at dispatch time, choosing between **both** classic
//! energy strategies:
//!
//! * **slow-and-steady** — stretch approximate work over a lower frequency
//!   step; dynamic energy drops by `dynamic_energy_factor`, the makespan
//!   dilates;
//! * **race-to-idle** — run at nominal frequency and drop the core into a
//!   deep [`SleepState`] for the slack the stretched schedule would have
//!   burned executing slowly; static and idle power drop instead.
//!
//! Three governor types cover the strategy space:
//!
//! * [`NominalGovernor`] — everything at nominal frequency (the pre-DVFS
//!   runtime, and the environment's passthrough fast path);
//! * [`SignificanceLadderGovernor`] — slow-and-steady over a frequency
//!   ladder indexed by significance; a one-rung ladder
//!   ([`SignificanceLadderGovernor::single_step`]) is the two-rail
//!   "approximate work on one lower step" scheme;
//! * [`AdaptiveGovernor`] — per rung, whichever strategy the power model
//!   prices cheaper, with hysteresis so frequency domains do not thrash
//!   (every switch carries a modelled `TransitionCost`); pinned to "always
//!   race" ([`AdaptiveGovernor::race_to_idle`]) it is the pure race-to-idle
//!   strategy.
//!
//! Which strategy wins is a property of the power model's static/dynamic
//! split and the depth of the available sleep state. An externally imposed
//! frequency cap (energy budget, cluster power cap) is not a governor: it is
//! applied by [`crate::ExecutionEnv::dispatch`] on top of whatever governor
//! is configured.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use sig_energy::{FrequencyScale, PowerModel, SleepState};

use crate::policy::Policy;
use crate::significance::Significance;
use crate::sync::CachePadded;

/// Everything a [`Governor`] may consult when choosing the frequency step
/// for a task that is about to execute.
#[derive(Debug, Clone, Copy)]
pub struct DispatchContext {
    /// Index of the worker the task is about to execute on. Lets stateful
    /// governors (hysteresis) keep per-domain state without sharing a cache
    /// line across workers.
    pub worker: usize,
    /// The task's significance.
    pub significance: Significance,
    /// The accuracy decision the policy made for this task: `true` means the
    /// accurate body will run, `false` means the approximate body (or a drop,
    /// if the task has no `approxfun`).
    pub accurate: bool,
    /// The runtime's execution policy.
    pub policy: Policy,
    /// The current accurate-task ratio of the task's group.
    pub group_ratio: f64,
    /// Whether the task's deadline is endangered (already missed, or the
    /// runtime is overloaded while the task carries a deadline). The
    /// environment overrides any scaling decision with a race to nominal —
    /// "finish fast" beats the governor's energy preference.
    pub deadline_pressure: bool,
}

/// A governor's verdict for one dispatch: which frequency the task executes
/// at, and whether the slack against a reference step is raced into sleep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DispatchDecision {
    scale: FrequencyScale,
    race_reference: Option<FrequencyScale>,
}

impl DispatchDecision {
    /// Slow-and-steady: execute at `scale`, stretching the work.
    pub fn stretch(scale: FrequencyScale) -> Self {
        DispatchDecision {
            scale,
            race_reference: None,
        }
    }

    /// Execute at nominal frequency with no race: the null decision.
    pub fn nominal() -> Self {
        DispatchDecision::stretch(FrequencyScale::nominal())
    }

    /// Race-to-idle: execute at nominal frequency, then bank the slack
    /// against `reference` — the step a slow-and-steady schedule would have
    /// stretched this task over — as sleep residency.
    ///
    /// # Panics
    ///
    /// Panics if `reference` is above nominal (there is no slack to race
    /// for).
    pub fn race(reference: FrequencyScale) -> Self {
        assert!(
            reference.ratio() <= 1.0,
            "race reference must be at or below nominal, got {}",
            reference.ratio()
        );
        DispatchDecision {
            scale: FrequencyScale::nominal(),
            race_reference: Some(reference),
        }
    }

    /// The frequency the task actually executes at.
    pub fn scale(&self) -> FrequencyScale {
        self.scale
    }

    /// The reference step a race-to-idle dispatch banks slack against.
    pub fn race_reference(&self) -> Option<FrequencyScale> {
        self.race_reference
    }

    /// Whether this dispatch races to idle.
    pub fn is_race(&self) -> bool {
        self.race_reference.is_some()
    }

    /// Sleep residency earned per second of measured busy time:
    /// `reference dilation − executed dilation` (zero for stretch
    /// decisions).
    pub fn slack_factor(&self) -> f64 {
        match self.race_reference {
            Some(reference) => (reference.time_dilation() - self.scale.time_dilation()).max(0.0),
            None => 0.0,
        }
    }

    /// Clamp the decision so it never *executes* above `cap`.
    ///
    /// A stretch at or below the cap is unchanged. A stretch above it is
    /// pulled down to the cap. A race-to-idle decision executes at nominal
    /// by construction, which a cap below nominal forbids — it falls back to
    /// slow-and-steady at its reference rung (itself clamped), the schedule
    /// the race was banking slack against.
    pub fn clamp_to(&self, cap: FrequencyScale) -> DispatchDecision {
        if self.scale.ratio() <= cap.ratio() {
            return *self;
        }
        match self.race_reference {
            Some(reference) if reference.ratio() <= cap.ratio() => {
                DispatchDecision::stretch(reference)
            }
            _ => DispatchDecision::stretch(cap),
        }
    }
}

/// Maps a task's significance/policy decision to an energy strategy at
/// dispatch time.
///
/// Implementations must be cheap and `Sync`: [`Governor::decide`] is called
/// on the worker hot path, once per executed task.
pub trait Governor: Send + Sync {
    /// The energy strategy for the dispatched task: the frequency it
    /// (modelled-)executes at, and whether its slack is raced into sleep.
    fn decide(&self, ctx: &DispatchContext) -> DispatchDecision;

    /// Short name used in reports.
    fn name(&self) -> &'static str {
        "custom"
    }

    /// Whether this governor always answers nominal frequency. The
    /// environment uses this to skip the virtual call.
    fn is_passthrough(&self) -> bool {
        false
    }
}

/// The default governor: every task runs at nominal frequency. Equivalent to
/// the pre-DVFS runtime.
#[derive(Debug, Clone, Copy, Default)]
pub struct NominalGovernor;

impl Governor for NominalGovernor {
    fn decide(&self, _ctx: &DispatchContext) -> DispatchDecision {
        DispatchDecision::nominal()
    }

    fn name(&self) -> &'static str {
        "nominal"
    }

    fn is_passthrough(&self) -> bool {
        true
    }
}

/// Rung of `steps` (highest frequency first) selected for a significance:
/// the least significant work lands on the lowest step.
fn ladder_rung(steps: &[FrequencyScale], significance: Significance) -> usize {
    let last = steps.len() - 1;
    let rung = ((1.0 - significance.value()) * last as f64).round() as usize;
    rung.min(last)
}

/// Ladder governor: accurate tasks at nominal frequency; approximate tasks
/// descend a P-state-style frequency ladder with falling significance, so
/// the least significant work runs at the lowest modelled frequency.
#[derive(Debug, Clone)]
pub struct SignificanceLadderGovernor {
    steps: Vec<FrequencyScale>,
}

impl SignificanceLadderGovernor {
    /// Build from an explicit ladder, highest frequency first.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is empty.
    pub fn new(steps: Vec<FrequencyScale>) -> Self {
        assert!(
            !steps.is_empty(),
            "a ladder governor needs at least one step"
        );
        SignificanceLadderGovernor { steps }
    }

    /// Build from an evenly spaced ladder of `steps` settings down to
    /// `floor` (see [`FrequencyScale::ladder`]).
    pub fn with_ladder(steps: usize, floor: f64) -> Self {
        SignificanceLadderGovernor::new(FrequencyScale::ladder(steps, floor))
    }

    /// The two-rail scheme — the paper's future-work scenario in its
    /// simplest form: accurate tasks at nominal frequency, every approximate
    /// (and dropped) task at the one lower step `ratio`.
    ///
    /// # Panics
    ///
    /// Panics (via [`FrequencyScale::new`]) if `ratio` is outside `(0, 1.5]`.
    pub fn single_step(ratio: f64) -> Self {
        SignificanceLadderGovernor::new(vec![FrequencyScale::new(ratio)])
    }
}

impl Governor for SignificanceLadderGovernor {
    fn decide(&self, ctx: &DispatchContext) -> DispatchDecision {
        if ctx.accurate {
            return DispatchDecision::nominal();
        }
        DispatchDecision::stretch(self.steps[ladder_rung(&self.steps, ctx.significance)])
    }

    fn name(&self) -> &'static str {
        "significance-ladder"
    }
}

/// Per-worker hysteresis state of the [`AdaptiveGovernor`]: the frequency
/// ratio the domain currently holds and how many dispatches it has served
/// since it last re-targeted. Single-writer (the owning worker).
struct DomainState {
    ratio_bits: AtomicU64,
    exponent_bits: AtomicU64,
    since_switch: AtomicU32,
}

impl DomainState {
    fn new(hysteresis: u32) -> Self {
        DomainState {
            ratio_bits: AtomicU64::new(1.0f64.to_bits()),
            exponent_bits: AtomicU64::new(2.4f64.to_bits()),
            // A fresh domain may re-target immediately (no cold-start hold).
            since_switch: AtomicU32::new(hysteresis),
        }
    }
}

/// Number of per-worker hysteresis slots. Workers beyond this share slots
/// (hysteresis quality degrades gracefully; correctness is unaffected).
const ADAPTIVE_DOMAIN_SLOTS: usize = 64;

/// Adaptive energy-strategy governor: per frequency rung, compares the
/// modelled cost of **slow-and-steady** (stretch at the rung) against
/// **race-to-idle** (run at nominal, deep-sleep the slack) and picks the
/// cheaper side. The crossover is decided by the power model's
/// static/dynamic split:
///
/// * dynamic-dominated packages (high power exponent, low static share) —
///   stretching wins: dynamic energy scales superlinearly down with
///   frequency while sleeping saves only the small idle/static share;
/// * static-heavy packages (large `static_watts_per_socket`, shallow power
///   exponent, deep sleep states) — racing wins: the stretched schedule
///   keeps the package awake, the race gates leakage off.
///
/// Frequency changes carry a `TransitionCost`, so the governor applies
/// **hysteresis** as a minimum residency: once a worker's domain re-targets,
/// it holds that step for at least `hysteresis` dispatches before it may
/// re-target again. Under any input sequence (of non-accurate tasks) the
/// governor's step changes are bounded by `dispatches / hysteresis + 1` per
/// domain — oscillating significance cannot thrash the frequency domain —
/// while a stable demand is followed immediately. (Accurate tasks always
/// execute at nominal, bypassing the filter without touching it:
/// correctness outranks thrash avoidance.)
pub struct AdaptiveGovernor {
    steps: Vec<FrequencyScale>,
    /// Per rung: `true` if race-to-idle is modelled cheaper than stretching.
    race_rung: Vec<bool>,
    hysteresis: u32,
    domains: Box<[CachePadded<DomainState>]>,
}

impl AdaptiveGovernor {
    /// Build an adaptive governor.
    ///
    /// * `model`, `sleep` — the power model and sleep state the runtime
    ///   accounts with (the governor's cost comparison must price the same
    ///   physics the report does);
    /// * `steps` — the frequency ladder (highest first) used both as
    ///   stretch targets and race references;
    /// * `hysteresis` — minimum dispatches a worker's frequency domain
    ///   holds a step before it may re-target (`1` disables hysteresis);
    /// * `typical_task_seconds` — expected nominal busy time per task, used
    ///   to amortise the per-wakeup cost into the race side of the
    ///   comparison.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is empty or contains a step above nominal,
    /// `hysteresis` is zero, or `typical_task_seconds` is not positive.
    pub fn new(
        model: &PowerModel,
        sleep: SleepState,
        steps: Vec<FrequencyScale>,
        hysteresis: u32,
        typical_task_seconds: f64,
    ) -> Self {
        assert!(hysteresis >= 1, "hysteresis must be at least 1");
        assert!(
            typical_task_seconds > 0.0,
            "typical task time must be positive"
        );
        let race_rung = steps
            .iter()
            .map(|step| {
                Self::race_watts(step, model, &sleep, typical_task_seconds)
                    < Self::stretch_watts(step, model)
            })
            .collect();
        Self::with_race_rungs(steps, race_rung, hysteresis)
    }

    /// [`AdaptiveGovernor::new`] over an evenly spaced ladder, with a
    /// hysteresis of 4 dispatches and 1 ms typical tasks.
    pub fn with_ladder(model: &PowerModel, sleep: SleepState, steps: usize, floor: f64) -> Self {
        AdaptiveGovernor::new(model, sleep, FrequencyScale::ladder(steps, floor), 4, 1e-3)
    }

    /// The crossover pinned to "always race" — the pure "finish fast, sleep
    /// deep" end of the strategy spectrum: every task executes at nominal
    /// frequency; approximate tasks bank the slack a
    /// [`SignificanceLadderGovernor`] over `steps` would have stretched them
    /// over as deep-sleep residency instead. The frequency domain never
    /// leaves nominal, so the strategy pays zero DVFS transition costs by
    /// construction (and the hysteresis filter never engages).
    ///
    /// # Panics
    ///
    /// Panics if `steps` is empty or contains a step above nominal.
    pub fn race_to_idle(steps: Vec<FrequencyScale>) -> Self {
        let race_rung = vec![true; steps.len()];
        Self::with_race_rungs(steps, race_rung, 1)
    }

    fn with_race_rungs(steps: Vec<FrequencyScale>, race_rung: Vec<bool>, hysteresis: u32) -> Self {
        assert!(!steps.is_empty(), "an adaptive governor needs steps");
        assert!(
            steps.iter().all(|s| s.ratio() <= 1.0),
            "adaptive governor steps must be at or below nominal"
        );
        AdaptiveGovernor {
            steps,
            race_rung,
            hysteresis,
            domains: (0..ADAPTIVE_DOMAIN_SLOTS)
                .map(|_| CachePadded::new(DomainState::new(hysteresis)))
                .collect(),
        }
    }

    /// Modelled watts per second of *nominal* busy time when the work is
    /// stretched over `step`: `dynamic_energy_factor · active watts` (the
    /// core is busy for the whole stretched window, so it contributes no
    /// idle term).
    fn stretch_watts(step: &FrequencyScale, model: &PowerModel) -> f64 {
        step.dynamic_energy_factor() * model.active_watts_per_core
    }

    /// Modelled watts per second of nominal busy time when the work races
    /// and sleeps the slack against `step`: nominal active watts, plus the
    /// slack priced at sleep power net of the gated static share, plus the
    /// wake cost amortised over a typical task.
    fn race_watts(
        step: &FrequencyScale,
        model: &PowerModel,
        sleep: &SleepState,
        typical_task_seconds: f64,
    ) -> f64 {
        let slack = step.time_dilation() - 1.0;
        // Net draw per slack second: sleep power minus the static power the
        // state gates off. Negative when gating outweighs residency draw —
        // the static-heavy regime where racing deeper rungs saves *more*.
        // Same terms [`crate::EnergyReport::reading`] prices residency with.
        let slack_watts =
            sleep.watts_per_core - sleep.static_fraction_saved * model.static_watts_per_core();
        model.active_watts_per_core
            + slack * slack_watts
            + sleep.wake_joules(model) / typical_task_seconds
    }

    /// Whether the governor would race (rather than stretch) work landing on
    /// rung `index` of its ladder. Exposed for conformance tests and
    /// benchmarks.
    pub fn prefers_race(&self, index: usize) -> bool {
        self.race_rung.get(index).copied().unwrap_or(false)
    }

    fn domain(&self, worker: usize) -> &DomainState {
        &self.domains[worker % ADAPTIVE_DOMAIN_SLOTS]
    }

    /// Run `desired` through the worker's hysteresis filter: once the
    /// domain re-targets it must serve at least `hysteresis` dispatches at
    /// that step before it may re-target again (a minimum residency — the
    /// rate limit that bounds transitions under oscillating inputs).
    fn filtered(&self, worker: usize, desired: DispatchDecision) -> DispatchDecision {
        let domain = self.domain(worker);
        let current_bits = domain.ratio_bits.load(Ordering::Relaxed);
        let desired_bits = desired.scale().ratio().to_bits();
        let since = domain
            .since_switch
            .load(Ordering::Relaxed)
            .saturating_add(1);
        if desired_bits == current_bits {
            domain.since_switch.store(since, Ordering::Relaxed);
            return desired;
        }
        if since >= self.hysteresis {
            domain.ratio_bits.store(desired_bits, Ordering::Relaxed);
            domain.exponent_bits.store(
                desired.scale().power_exponent().to_bits(),
                Ordering::Relaxed,
            );
            domain.since_switch.store(0, Ordering::Relaxed);
            return desired;
        }
        domain.since_switch.store(since, Ordering::Relaxed);
        // Hold the domain at its current step (same ratio *and* exponent, so
        // held dispatches price dynamic energy exactly like the step they
        // hold).
        DispatchDecision::stretch(FrequencyScale::with_exponent(
            f64::from_bits(current_bits),
            f64::from_bits(domain.exponent_bits.load(Ordering::Relaxed)),
        ))
    }
}

impl std::fmt::Debug for AdaptiveGovernor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptiveGovernor")
            .field("steps", &self.steps.len())
            .field("race_rung", &self.race_rung)
            .field("hysteresis", &self.hysteresis)
            .finish()
    }
}

impl Governor for AdaptiveGovernor {
    fn decide(&self, ctx: &DispatchContext) -> DispatchDecision {
        if ctx.accurate {
            // Critical/accurate work always executes at nominal, bypassing
            // hysteresis (a held lower step would scale a critical task).
            return DispatchDecision::nominal();
        }
        let rung = ladder_rung(&self.steps, ctx.significance);
        let reference = self.steps[rung];
        // No slack at the top rung: a race there would only charge a wakeup.
        let desired = if self.race_rung[rung] && !reference.is_nominal() {
            // Racing executes at nominal: that is a domain change like any
            // other, so it goes through the same hysteresis filter.
            DispatchDecision::race(reference)
        } else {
            DispatchDecision::stretch(reference)
        };
        self.filtered(ctx.worker, desired)
    }

    fn name(&self) -> &'static str {
        "adaptive"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(significance: f64, accurate: bool) -> DispatchContext {
        DispatchContext {
            worker: 0,
            significance: Significance::new(significance),
            accurate,
            policy: Policy::GtbMaxBuffer,
            group_ratio: 0.5,
            deadline_pressure: false,
        }
    }

    #[test]
    fn single_step_ladder_scales_only_approximate_tasks() {
        let g = SignificanceLadderGovernor::single_step(0.5);
        assert!(g.decide(&ctx(0.9, true)).scale().is_nominal());
        assert_eq!(g.decide(&ctx(0.9, false)).scale().ratio(), 0.5);
        assert_eq!(g.decide(&ctx(0.0, false)).scale().ratio(), 0.5);
    }

    #[test]
    fn ladder_governor_descends_with_significance() {
        let g = SignificanceLadderGovernor::with_ladder(5, 0.5);
        assert!(g.decide(&ctx(0.3, true)).scale().is_nominal());
        let high = g.decide(&ctx(0.9, false)).scale().ratio();
        let low = g.decide(&ctx(0.1, false)).scale().ratio();
        assert!(high > low, "high-significance {high} vs low {low}");
        assert_eq!(g.decide(&ctx(0.0, false)).scale().ratio(), 0.5);
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn empty_ladder_rejected() {
        SignificanceLadderGovernor::new(Vec::new());
    }

    #[test]
    fn race_to_idle_always_executes_at_nominal() {
        let g = AdaptiveGovernor::race_to_idle(FrequencyScale::ladder(4, 0.4));
        let accurate = g.decide(&ctx(0.9, true));
        assert!(accurate.scale().is_nominal());
        assert!(!accurate.is_race());
        let approx = g.decide(&ctx(0.1, false));
        assert!(approx.scale().is_nominal());
        assert!(approx.is_race());
        // Low significance races against a deep reference rung: lots of
        // slack.
        assert!(approx.slack_factor() > 1.0);
        // Top-rung approximate work has no slack: no race, no wake charge.
        let top = g.decide(&ctx(1.0, false));
        assert!(!top.is_race());
    }

    #[test]
    #[should_panic(expected = "at or below nominal")]
    fn race_above_nominal_rejected() {
        let _ = DispatchDecision::race(FrequencyScale::new(1.2));
    }

    #[test]
    fn adaptive_governor_races_on_static_heavy_models() {
        // Static-heavy: huge socket static share, shallow (near-linear)
        // power exponent, deep sleep. Stretching saves almost no dynamic
        // energy; racing gates static power off.
        let static_heavy = PowerModel {
            sockets: 1,
            cores_per_socket: 4,
            static_watts_per_socket: 40.0,
            active_watts_per_core: 6.6,
            idle_watts_per_core: 2.0,
        };
        let steps: Vec<FrequencyScale> = FrequencyScale::ladder(4, 0.4)
            .into_iter()
            .map(|s| FrequencyScale::with_exponent(s.ratio(), 1.2))
            .collect();
        let g = AdaptiveGovernor::new(&static_heavy, SleepState::deep(), steps, 1, 1e-3);
        // Deep rungs must prefer racing on this model.
        assert!(g.prefers_race(3), "{g:?}");
        let d = g.decide(&ctx(0.0, false));
        assert!(d.is_race());
        assert!(d.scale().is_nominal());
    }

    #[test]
    fn adaptive_governor_stretches_on_dynamic_heavy_models() {
        // Dynamic-heavy: the default cubic-ish exponent and modest static
        // share; stretching wins on every rung.
        let dynamic_heavy = PowerModel {
            sockets: 1,
            cores_per_socket: 4,
            static_watts_per_socket: 4.0,
            active_watts_per_core: 6.6,
            idle_watts_per_core: 0.5,
        };
        let g = AdaptiveGovernor::with_ladder(&dynamic_heavy, SleepState::shallow(), 4, 0.4);
        for rung in 0..4 {
            assert!(!g.prefers_race(rung), "rung {rung} should stretch: {g:?}");
        }
        // The default hysteresis (4) holds the domain at nominal for the
        // first dissenting dispatches; a steady stream settles on the rung.
        let d = (0..4).fold(DispatchDecision::nominal(), |_, _| {
            g.decide(&ctx(0.0, false))
        });
        assert!(!d.is_race());
        assert!((d.scale().ratio() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn adaptive_governor_never_scales_critical_tasks() {
        let g = AdaptiveGovernor::with_ladder(&PowerModel::for_host(), SleepState::deep(), 4, 0.4);
        // Prime the worker's domain onto a low step.
        for _ in 0..8 {
            let _ = g.decide(&ctx(0.0, false));
        }
        let d = g.decide(&ctx(1.0, true));
        assert!(d.scale().is_nominal());
        assert!(!d.is_race());
    }

    #[test]
    fn adaptive_hysteresis_bounds_transitions_under_oscillation() {
        let model = PowerModel {
            sockets: 1,
            cores_per_socket: 4,
            static_watts_per_socket: 4.0,
            active_watts_per_core: 6.6,
            idle_watts_per_core: 0.5,
        };
        let count_changes = |hysteresis: u32| {
            let g = AdaptiveGovernor::new(
                &model,
                SleepState::shallow(),
                FrequencyScale::ladder(4, 0.4),
                hysteresis,
                1e-3,
            );
            let mut last = f64::NAN;
            let mut changes = 0usize;
            for i in 0..120 {
                // Oscillating significance: alternate extreme rungs.
                let sig = if i % 2 == 0 { 0.95 } else { 0.05 };
                let ratio = g.decide(&ctx(sig, false)).scale().ratio();
                if ratio != last {
                    changes += 1;
                    last = ratio;
                }
            }
            changes
        };
        let thrash = count_changes(1);
        let damped = count_changes(8);
        assert!(
            thrash > 100,
            "without hysteresis the oscillation thrashes ({thrash} changes)"
        );
        assert!(
            damped <= 120 / 8 + 1,
            "hysteresis 8 must bound changes to n/8 + 1, got {damped}"
        );
    }

    #[test]
    fn clamp_to_caps_stretch_and_downgrades_race() {
        let cap = FrequencyScale::new(0.5);
        // At or below the cap: unchanged.
        let low = DispatchDecision::stretch(FrequencyScale::new(0.4));
        assert_eq!(low.clamp_to(cap), low);
        // Above the cap: pulled down to it.
        let high = DispatchDecision::stretch(FrequencyScale::new(0.8));
        assert_eq!(high.clamp_to(cap).scale().ratio(), 0.5);
        // A race executes at nominal — forbidden under the cap — and falls
        // back to slow-and-steady at its reference rung.
        let race = DispatchDecision::race(FrequencyScale::new(0.4));
        let clamped = race.clamp_to(cap);
        assert!(!clamped.is_race());
        assert_eq!(clamped.scale().ratio(), 0.4);
        // A reference above the cap is clamped too.
        let race_high = DispatchDecision::race(FrequencyScale::new(0.8));
        assert_eq!(race_high.clamp_to(cap).scale().ratio(), 0.5);
    }
}
