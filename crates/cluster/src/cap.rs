//! The global power-cap controller: one watt budget, many nodes.
//!
//! Frequency caps alone cannot guarantee a watt cap — critical work always
//! runs at nominal frequency, and enough concurrent critical work can out-
//! draw any ladder. The controller therefore budgets **concurrency**: it
//! waterfills per-node *busy-worker slots* so that the fleet's worst-case
//! modelled draw (every granted slot busy at nominal power, by the monotone
//! [`UtilizationPowerCurve::max_watts`] bound) stays at or below the cap at
//! every instant. Frequency caps then ride on top as a pure energy
//! optimisation: a node granted fewer slots than workers also gets its
//! non-critical dispatches clamped to `capped_freq`, making it the fleet's
//! designated cheap-but-slow tier.
//!
//! Slot filling is deliberately **asymmetric** when `focus` is set (the
//! default): after every up node gets one affordable slot (liveness), the
//! remaining budget concentrates on the lowest-indexed nodes. That carves
//! the fleet into full-power and power-restricted halves — exactly the
//! diversity the significance-aware dispatcher exploits (critical work to
//! the fast half, degraded work to the cheap half). `focus = false`
//! round-robins the slots instead, for a homogeneous fleet.
//!
//! Load response is fleet-monotone in significance, mirroring the per-node
//! admission guarantee at cluster scope: one smoothed backlog pressure maps
//! to (a) a forced minimum ladder depth that grows as significance falls —
//! significance 1.0 is never force-degraded — and (b) a single rising shed
//! cutoff bounded strictly below 1.0, so the fleet shed set is always a
//! prefix of the significance axis and critical classes are never shed.

use sig_energy::UtilizationPowerCurve;

use crate::node::Node;

/// Tuning for [`PowerCapController`].
#[derive(Debug, Clone, Copy)]
pub struct CapConfig {
    /// Fleet-wide modelled watt budget ([`f64::INFINITY`] = uncapped).
    pub cap_watts: f64,
    /// Control period of the kernel's re-targeting tick, nanoseconds.
    pub tick_nanos: u64,
    /// EWMA smoothing factor for the backlog pressure, in `(0, 1]`.
    pub alpha: f64,
    /// Backlogged requests per granted busy slot at which pressure reads
    /// 1.0.
    pub slot_watermark: f64,
    /// Pressure at which fleet-forced degradation begins.
    pub degrade_knee: f64,
    /// Pressure at which fleet-level shedding begins (degradation is fully
    /// engaged by then).
    pub shed_knee: f64,
    /// Pressure at which the shed cutoff reaches `max_shed_significance`.
    pub shed_full: f64,
    /// Upper bound on the shed significance cutoff, strictly below 1.0:
    /// critical classes are never shed, no matter the pressure.
    pub max_shed_significance: f64,
    /// Frequency-cap ratio imposed on power-restricted nodes' non-critical
    /// work.
    pub capped_freq: f64,
    /// Concentrate surplus slots on low-indexed nodes (see module docs).
    pub focus: bool,
}

impl Default for CapConfig {
    fn default() -> Self {
        CapConfig {
            cap_watts: f64::INFINITY,
            tick_nanos: 1_000_000, // 1 ms
            alpha: 0.2,
            slot_watermark: 8.0,
            degrade_knee: 0.5,
            shed_knee: 1.5,
            shed_full: 4.0,
            max_shed_significance: 0.95,
            capped_freq: 0.5,
            focus: true,
        }
    }
}

impl CapConfig {
    fn validate(&self) {
        assert!(self.cap_watts > 0.0, "the watt cap must be positive");
        assert!(self.tick_nanos > 0);
        assert!(self.alpha > 0.0 && self.alpha <= 1.0);
        assert!(self.slot_watermark > 0.0);
        assert!(self.degrade_knee < self.shed_knee);
        assert!(self.shed_knee < self.shed_full);
        assert!((0.0..1.0).contains(&self.max_shed_significance));
        assert!(self.capped_freq > 0.0 && self.capped_freq <= 1.0);
    }
}

/// The controller's verdict for one arriving (or retrying) request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterAdmission {
    /// Admit, forcing the request at least `min_tier` rungs down its own
    /// ladder (0 = no fleet-forced degradation).
    Admit {
        /// Minimum ladder index the request may run at.
        min_tier: usize,
    },
    /// Shed fleet-wide: the request's significance is below the rising
    /// cutoff.
    Shed,
}

/// Enforces one global watt budget over a fleet of [`Node`]s (see module
/// docs).
#[derive(Debug)]
pub struct PowerCapController {
    config: CapConfig,
    pressure: f64,
    /// Scratch of [`PowerCapController::retarget`], kept across its calls
    /// (every control tick): the up nodes, and the slots granted to each.
    up: Vec<usize>,
    allowed: Vec<usize>,
}

impl PowerCapController {
    /// A controller with the given tuning.
    pub fn new(config: CapConfig) -> Self {
        config.validate();
        PowerCapController {
            config,
            pressure: 0.0,
            up: Vec::new(),
            allowed: Vec::new(),
        }
    }

    /// The configured tuning.
    pub fn config(&self) -> &CapConfig {
        &self.config
    }

    /// Re-target the fleet-wide watt cap. This is the actuator an online
    /// energy-budget controller drives: instead of a fixed build-time cap,
    /// the budget loop feeds its planned sustainable rate here each control
    /// tick and the next [`PowerCapController::retarget`] waterfills under
    /// the new value. The cap must be positive ([`f64::INFINITY`] uncaps).
    pub fn set_cap_watts(&mut self, cap_watts: f64) {
        assert!(cap_watts > 0.0, "the watt cap must be positive");
        self.config.cap_watts = cap_watts;
    }

    /// Smoothed fleet backlog pressure (1.0 = `slot_watermark` backlogged
    /// requests per granted slot).
    pub fn pressure(&self) -> f64 {
        self.pressure
    }

    /// The current fleet shed cutoff over significance (0.0 = shed
    /// nothing). Always strictly below 1.0.
    pub fn shed_cutoff(&self) -> f64 {
        let config = &self.config;
        let span = config.shed_full - config.shed_knee;
        let depth = ((self.pressure - config.shed_knee) / span).clamp(0.0, 1.0);
        config.max_shed_significance * depth
    }

    /// Fleet-forced degradation depth in `[0, 1]` (1 = force every ladder
    /// to its deepest rung, scaled by `1 − significance`).
    pub fn degrade_depth(&self) -> f64 {
        let config = &self.config;
        let span = config.shed_knee - config.degrade_knee;
        ((self.pressure - config.degrade_knee) / span).clamp(0.0, 1.0)
    }

    /// Update the smoothed pressure from the fleet's backlog (called once
    /// per control tick).
    pub fn observe(&mut self, nodes: &[Node]) {
        let mut backlog = 0usize;
        let mut slots = 0usize;
        for node in nodes.iter().filter(|n| n.is_up()) {
            backlog += node.depth();
            slots += node.allowed();
        }
        let raw = backlog as f64 / (slots.max(1) as f64 * self.config.slot_watermark);
        self.pressure += self.config.alpha * (raw - self.pressure);
    }

    /// Admission verdict for a request whose class has the given best-tier
    /// `significance` and `ladder` rungs.
    ///
    /// Monotone in significance by construction: the shed test is a single
    /// rising cutoff (`< cutoff ⇒ shed`, cutoff `< 1.0`), and the forced
    /// tier `⌈depth · (1 − s) · (ladder − 1)⌉` never increases with `s` —
    /// significance 1.0 is neither shed nor force-degraded.
    pub fn admit(&self, significance: f64, ladder: usize) -> ClusterAdmission {
        if significance < self.shed_cutoff() {
            return ClusterAdmission::Shed;
        }
        let rungs = ladder.saturating_sub(1) as f64;
        let min_tier = (self.degrade_depth() * (1.0 - significance) * rungs).ceil() as usize;
        ClusterAdmission::Admit { min_tier }
    }

    /// Waterfill per-node busy-slot budgets under the cap and re-target
    /// every node (slots + frequency cap). Called on every control tick and
    /// on node up/down transitions.
    ///
    /// Guarantee: when the cap covers the fleet's idle floor, the sum of
    /// per-node worst-case draws `max_watts(allowed)` never exceeds the cap
    /// — and since each curve is monotone in its busy count and every busy
    /// core draws at most nominal power, the fleet's modelled instantaneous
    /// draw never exceeds the cap either. A cap below the idle floor is
    /// infeasible: slots go to zero and the violation integral reports the
    /// (unavoidable) floor overshoot.
    pub fn retarget(&mut self, nodes: &mut [Node]) {
        self.up.clear();
        self.up
            .extend((0..nodes.len()).filter(|&i| nodes[i].is_up()));
        self.allowed.clear();
        self.allowed.resize(nodes.len(), 0);
        let (up, allowed) = (&self.up, &mut self.allowed);
        // The idle floors of up nodes are spent regardless of slots.
        let mut budget = self.config.cap_watts;
        for &i in up {
            budget -= nodes[i].curve().idle_floor(nodes[i].workers());
        }
        let marginal = |node: &Node, slots: usize| {
            let curve: &UtilizationPowerCurve = node.curve();
            curve.max_watts(slots + 1, node.workers()) - curve.max_watts(slots, node.workers())
        };
        // Liveness pass: one slot per up node, while affordable.
        for &i in up {
            let cost = marginal(&nodes[i], 0);
            if cost <= budget {
                allowed[i] = 1;
                budget -= cost;
            }
        }
        // Surplus: focus fills node-by-node (power-state diversity);
        // otherwise round-robin one slot per pass (homogeneous fleet).
        if self.config.focus {
            for &i in up {
                while allowed[i] < nodes[i].workers() {
                    let cost = marginal(&nodes[i], allowed[i]);
                    if cost > budget {
                        break;
                    }
                    allowed[i] += 1;
                    budget -= cost;
                }
            }
        } else {
            let mut granted = true;
            while granted {
                granted = false;
                for &i in up {
                    if allowed[i] >= nodes[i].workers() {
                        continue;
                    }
                    let cost = marginal(&nodes[i], allowed[i]);
                    if cost <= budget {
                        allowed[i] += 1;
                        budget -= cost;
                        granted = true;
                    }
                }
            }
        }
        for &i in up {
            let full = allowed[i] >= nodes[i].workers();
            let freq_cap = if full { 1.0 } else { self.config.capped_freq };
            nodes[i].set_targets(allowed[i], freq_cap);
        }
    }
}
