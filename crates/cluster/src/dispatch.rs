//! Cluster-level request routing.
//!
//! The dispatcher sees the fleet as a slice of [`RouteCandidate`]s — the
//! kernel's per-node load/power snapshot — and picks a destination for one
//! request. Two policies share the interface:
//!
//! * [`DispatchPolicy::RoundRobin`] — significance-blind rotation over up
//!   nodes, the baseline every cluster paper routes against;
//! * [`DispatchPolicy::SignificanceAware`] — joint cost over normalised
//!   queue load and the node's **power state**: frequency-capped nodes are
//!   cheap-but-slow, so low-significance work is steered toward them (it
//!   will be degraded and clamped there anyway) and critical work away from
//!   them. The sign of the power term flips at significance 0.5, so the two
//!   halves of the significance axis sort themselves onto the two halves of
//!   the power-state spectrum.
//!
//! Both policies **never route to a down node** — the property test in
//! `tests/cluster_props.rs` drives arbitrary candidate fleets through both
//! to pin that down.

/// Relative weight of the power-state term against one queue-slot of load in
/// the significance-aware cost.
const ROUTE_POWER_WEIGHT: f64 = 4.0;

/// How one request is routed across the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// Significance/load/power-state joint cost (see module docs).
    SignificanceAware,
    /// Significance-blind rotation over up nodes.
    RoundRobin,
}

impl DispatchPolicy {
    /// Short name used in reports and bench JSON keys.
    pub fn name(&self) -> &'static str {
        match self {
            DispatchPolicy::SignificanceAware => "sig_aware",
            DispatchPolicy::RoundRobin => "round_robin",
        }
    }
}

/// One node's routing-relevant state, as the kernel snapshots it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteCandidate {
    /// Node index.
    pub index: usize,
    /// Whether the node is up (down nodes are never chosen).
    pub up: bool,
    /// Queued plus running requests on the node.
    pub depth: usize,
    /// Smoothed queue depth (EWMA), blended with the instantaneous depth.
    pub load_ewma: f64,
    /// Busy-worker budget the cap controller granted the node.
    pub allowed: usize,
    /// Frequency cap imposed on the node's non-critical work (1.0 = none).
    pub freq_cap: f64,
}

/// Routes requests across the fleet under one [`DispatchPolicy`].
#[derive(Debug)]
pub struct ClusterDispatcher {
    policy: DispatchPolicy,
    cursor: usize,
}

impl ClusterDispatcher {
    /// A dispatcher with the given policy.
    pub fn new(policy: DispatchPolicy) -> Self {
        ClusterDispatcher { policy, cursor: 0 }
    }

    /// The configured policy.
    pub fn policy(&self) -> DispatchPolicy {
        self.policy
    }

    /// Choose a destination node for a request of the given (best-tier)
    /// significance, or `None` when no node is up. Never returns a down
    /// node.
    pub fn route(&mut self, candidates: &[RouteCandidate], significance: f64) -> Option<usize> {
        match self.policy {
            DispatchPolicy::RoundRobin => self.route_round_robin(candidates),
            DispatchPolicy::SignificanceAware => {
                Self::route_significance_aware(candidates, significance)
            }
        }
    }

    fn route_round_robin(&mut self, candidates: &[RouteCandidate]) -> Option<usize> {
        if candidates.is_empty() {
            return None;
        }
        let len = candidates.len();
        // Pass 0 considers only nodes with busy-slot budget; pass 1 accepts
        // any up node (an infeasible cap zeroes every budget — work still
        // lands somewhere and the kernel's deadline sweep accounts for it).
        for pass in 0..2 {
            for step in 0..len {
                let slot = (self.cursor + step) % len;
                let candidate = &candidates[slot];
                if candidate.up && (pass == 1 || candidate.allowed > 0) {
                    self.cursor = slot + 1;
                    return Some(candidate.index);
                }
            }
        }
        None
    }

    fn route_significance_aware(candidates: &[RouteCandidate], significance: f64) -> Option<usize> {
        Self::cheapest(candidates, significance, true)
            .or_else(|| Self::cheapest(candidates, significance, false))
    }

    fn cheapest(
        candidates: &[RouteCandidate],
        significance: f64,
        require_slots: bool,
    ) -> Option<usize> {
        let mut best: Option<(f64, usize)> = None;
        for candidate in candidates {
            if !candidate.up || (require_slots && candidate.allowed == 0) {
                continue;
            }
            // Normalised load: instantaneous depth blended with the EWMA,
            // per granted busy slot (a throttled node absorbs load slower,
            // so the same queue weighs heavier there).
            let slots = candidate.allowed.max(1) as f64;
            let load = (candidate.depth as f64 + candidate.load_ewma) / slots;
            // Power-state term: positive cost on capped ("cheap") nodes for
            // high-significance work, negative (an attraction) for
            // low-significance work.
            let cheap = 1.0 - candidate.freq_cap;
            let cost = load + ROUTE_POWER_WEIGHT * (2.0 * significance - 1.0) * cheap;
            // Strict `<` keeps ties on the lowest index: deterministic.
            if best.is_none_or(|(best_cost, _)| cost < best_cost) {
                best = Some((cost, candidate.index));
            }
        }
        best.map(|(_, index)| index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn candidate(index: usize, up: bool, depth: usize, freq_cap: f64) -> RouteCandidate {
        RouteCandidate {
            index,
            up,
            depth,
            load_ewma: depth as f64,
            allowed: 2,
            freq_cap,
        }
    }

    #[test]
    fn round_robin_rotates_over_up_nodes_only() {
        let mut dispatcher = ClusterDispatcher::new(DispatchPolicy::RoundRobin);
        let fleet = vec![
            candidate(0, true, 0, 1.0),
            candidate(1, false, 0, 1.0),
            candidate(2, true, 0, 1.0),
        ];
        let picks: Vec<usize> = (0..4)
            .map(|_| dispatcher.route(&fleet, 0.5).unwrap())
            .collect();
        assert_eq!(picks, vec![0, 2, 0, 2]);
        let all_down = vec![candidate(0, false, 0, 1.0)];
        assert_eq!(dispatcher.route(&all_down, 0.5), None);
        assert_eq!(dispatcher.route(&[], 0.5), None);
    }

    #[test]
    fn significance_steers_between_capped_and_full_nodes() {
        let mut dispatcher = ClusterDispatcher::new(DispatchPolicy::SignificanceAware);
        // Equal load; node 1 is frequency-capped (cheap-but-slow).
        let fleet = vec![candidate(0, true, 2, 1.0), candidate(1, true, 2, 0.5)];
        assert_eq!(
            dispatcher.route(&fleet, 1.0),
            Some(0),
            "critical work avoids the capped node"
        );
        assert_eq!(
            dispatcher.route(&fleet, 0.1),
            Some(1),
            "low-significance work prefers the capped node"
        );
    }

    #[test]
    fn load_dominates_when_power_states_match() {
        let mut dispatcher = ClusterDispatcher::new(DispatchPolicy::SignificanceAware);
        let fleet = vec![candidate(0, true, 9, 1.0), candidate(1, true, 1, 1.0)];
        for sig in [0.0, 0.5, 1.0] {
            assert_eq!(dispatcher.route(&fleet, sig), Some(1));
        }
        // Ties break to the lowest index, deterministically.
        let tied = vec![candidate(0, true, 3, 1.0), candidate(1, true, 3, 1.0)];
        assert_eq!(dispatcher.route(&tied, 0.7), Some(0));
    }
}
