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
//!
//! [`ClusterDispatcher::route`] is the specification. The simulator's
//! `RouteTable` caches each row's load as it is written and scans the cached
//! rows in four independent min-chains, so it routes without dividing and
//! its compares overlap, bit-identically: same cost, same tie rule.

/// Relative weight of the power-state term against one queue-slot of load in
/// the significance-aware cost.
const ROUTE_POWER_WEIGHT: f64 = 4.0;

/// A node's `(load, cheap)`: depth blended with the EWMA per granted busy
/// slot (a throttled node absorbs load slower, so the same queue weighs
/// heavier), and how far its frequency is capped (0 when it is not).
fn route_terms(c: &RouteCandidate) -> (f64, f64) {
    let load = (c.depth as f64 + c.load_ewma) / c.allowed.max(1) as f64;
    (load, 1.0 - c.freq_cap)
}

/// Weight of `cheap`: a cost on capped nodes for high-significance work, an
/// attraction for low-significance work.
fn route_coef(significance: f64) -> f64 {
    ROUTE_POWER_WEIGHT * (2.0 * significance - 1.0)
}

/// The cheapest of `(route_terms, index)` rows, and its cost. Strict `<`
/// keeps ties on the earliest (lowest) index: deterministic. The one-chain
/// specification of [`cheapest_chained`].
fn cheapest(coef: f64, rows: impl Iterator<Item = ((f64, f64), usize)>) -> Option<(f64, usize)> {
    let costs = rows.map(|((load, cheap), index)| (load + coef * cheap, index));
    costs.reduce(|best, next| if next.0 < best.0 { next } else { best })
}

/// Independent min-chains in [`cheapest_chained`].
const CHAINS: usize = 4;

/// [`cheapest`] over `terms` indexed by position, in [`CHAINS`] chains whose
/// compares overlap: row `n` is in chain `n % CHAINS`, each chain keeps its
/// first row of least cost under the same strict `<`, and the chains merge on
/// least cost, then lowest index. Costs are the same f64 expression, so the
/// result is the single chain's bit for bit unless a cost is NaN (heading a
/// chain, it would stall it). None is: loads are finite or `+∞`, the rest
/// finite.
fn cheapest_chained(coef: f64, terms: &[(f64, f64)]) -> Option<(f64, usize)> {
    let cost = |(load, cheap): (f64, f64)| load + coef * cheap;
    debug_assert!(terms.iter().all(|&row| !cost(row).is_nan()));
    let (quads, rest) = terms.as_chunks::<CHAINS>();
    let Some((head, quads)) = quads.split_first() else {
        return cheapest(coef, terms.iter().copied().zip(0..));
    };
    let mut best: [(f64, usize); CHAINS] = std::array::from_fn(|k| (cost(head[k]), k));
    let mut chain = |base: usize, rows: &[(f64, f64)]| {
        for (k, &row) in rows.iter().enumerate() {
            let row_cost = cost(row);
            if row_cost < best[k].0 {
                best[k] = (row_cost, base + k);
            }
        }
    };
    for (quad, base) in quads.iter().zip((CHAINS..).step_by(CHAINS)) {
        chain(base, quad);
    }
    chain(terms.len() - rest.len(), rest);
    best.into_iter()
        .reduce(|best, next| if next < best { next } else { best })
}

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
        let coef = route_coef(significance);
        Self::cheapest_up(candidates, coef, true)
            .or_else(|| Self::cheapest_up(candidates, coef, false))
    }

    /// The cheapest up node (with busy-slot budget, if `require_slots`).
    fn cheapest_up(candidates: &[RouteCandidate], coef: f64, require_slots: bool) -> Option<usize> {
        let rows = candidates
            .iter()
            .filter(|c| c.up && (!require_slots || c.allowed > 0))
            .map(|c| (route_terms(c), c.index));
        cheapest(coef, rows).map(|(_, index)| index)
    }
}

/// The simulator's route table: row `n` is node `n`'s [`RouteCandidate`],
/// beside its cached `route_terms`; the load is infinite while the node has
/// no slot to offer. Only `set_depth` and `refresh` write the table.
#[derive(Debug)]
pub(crate) struct RouteTable {
    dispatcher: ClusterDispatcher,
    rows: Vec<RouteCandidate>,
    terms: Vec<(f64, f64)>,
    /// `(significance, route_coef)` per request class.
    classes: Vec<(f64, f64)>,
}

impl RouteTable {
    pub(crate) fn new(policy: DispatchPolicy, significances: impl Iterator<Item = f64>) -> Self {
        RouteTable {
            dispatcher: ClusterDispatcher::new(policy),
            rows: Vec::new(),
            terms: Vec::new(),
            classes: significances.map(|s| (s, route_coef(s))).collect(),
        }
    }

    pub(crate) fn rows(&self) -> &[RouteCandidate] {
        &self.rows
    }

    fn terms(row: &RouteCandidate) -> (f64, f64) {
        let (load, cheap) = route_terms(row);
        let slot = row.up && row.allowed > 0;
        (if slot { load } else { f64::INFINITY }, cheap)
    }

    /// Rewrite every row and its terms.
    pub(crate) fn refresh(&mut self, rows: impl Iterator<Item = RouteCandidate>) {
        self.rows.clear();
        self.rows.extend(rows);
        self.terms.clear();
        self.terms.extend(self.rows.iter().map(Self::terms));
    }

    /// Set node `n`'s depth, and its load: one division.
    pub(crate) fn set_depth(&mut self, n: usize, depth: usize) {
        self.rows[n].depth = depth;
        self.terms[n] = Self::terms(&self.rows[n]);
    }

    /// [`ClusterDispatcher::route`] over the rows for a request of `class`.
    pub(crate) fn route(&mut self, class: usize) -> Option<usize> {
        let (significance, coef) = self.classes[class];
        if self.dispatcher.policy == DispatchPolicy::RoundRobin {
            return self.dispatcher.route(&self.rows, significance);
        }
        // An infinite load never beats a finite one; if every load is
        // infinite, no up node has a slot and the public second pass decides.
        let routed = match cheapest_chained(coef, &self.terms) {
            Some((cost, n)) if cost < f64::INFINITY => Some(n),
            _ => ClusterDispatcher::cheapest_up(&self.rows, coef, false),
        };
        let bits = |(load, cheap): (f64, f64)| (load.to_bits(), cheap.to_bits());
        debug_assert!(
            (self.rows.iter().zip(&self.terms)).all(|(row, &t)| bits(Self::terms(row)) == bits(t))
                && routed == ClusterDispatcher::route_significance_aware(&self.rows, significance),
            "the route table's cached terms or its route drifted from the public scan's"
        );
        routed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sig_serving::SplitMix64;

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

    const SIGNIFICANCES: [f64; 6] = [0.0, 0.2, 0.5, 0.7, 0.93, 1.0];

    /// A table whose classes are [`SIGNIFICANCES`], holding `rows`.
    fn table_of(rows: &[RouteCandidate]) -> RouteTable {
        let mut table =
            RouteTable::new(DispatchPolicy::SignificanceAware, SIGNIFICANCES.into_iter());
        table.refresh(rows.iter().copied());
        table
    }

    /// Route every class through the table and through the public scan over
    /// its rows; they must agree. Returns the table's routes.
    fn routes(table: &mut RouteTable) -> Vec<Option<usize>> {
        let mut spec = ClusterDispatcher::new(DispatchPolicy::SignificanceAware);
        (0..SIGNIFICANCES.len())
            .map(|class| {
                let routed = table.route(class);
                let expected = spec.route(table.rows(), SIGNIFICANCES[class]);
                assert_eq!(routed, expected, "class {class} over {:?}", table.rows());
                routed
            })
            .collect()
    }

    /// A seeded row; loads, EWMAs and caps come from small sets, so ties
    /// between rows are common.
    fn random_row(rng: &mut SplitMix64, index: usize) -> RouteCandidate {
        let mut draw = |n: u64| (rng.next_u64() % n) as usize;
        RouteCandidate {
            index,
            up: draw(8) != 0,
            depth: draw(6),
            load_ewma: draw(5) as f64 * 0.75,
            allowed: draw(3),
            freq_cap: [1.0, 0.8, 0.6][draw(3)],
        }
    }

    /// The chained scan against the single chain over every remainder of
    /// [`CHAINS`]: loads, `cheap` terms and coefficients come from small
    /// sets, so rows of equal cost in different chains are common, and so
    /// are `-0.0` beside `+0.0` costs, `+∞` rows and slices of nothing else.
    #[test]
    fn chained_scan_picks_what_the_single_chain_picks() {
        const LOADS: [f64; 6] = [-0.0, 0.0, 0.5, 1.0, 1.5, f64::INFINITY];
        const CHEAP: [f64; 3] = [0.0, 0.2, 0.4];
        const COEFS: [f64; 6] = [-4.0, -1.6, -0.0, 0.0, 0.8, 4.0];
        let mut rng = SplitMix64::new(0xc4a1);
        let (mut cross_chain_ties, mut signed_zeros, mut unroutable) = (0, 0, 0);
        for len in (0..=9).chain(15..=17).chain(95..=97) {
            for case in 0..300 {
                let coef = COEFS[case % COEFS.len()];
                let mut draw = |n: usize| (rng.next_u64() % n as u64) as usize;
                let terms: Vec<(f64, f64)> = (0..len)
                    .map(|_| {
                        let load = match case % 10 {
                            0 => f64::INFINITY,
                            _ => LOADS[draw(LOADS.len())],
                        };
                        (load, CHEAP[draw(CHEAP.len())])
                    })
                    .collect();
                let verdict = |routed: Option<(f64, usize)>| {
                    routed.map(|(cost, n)| (n, cost < f64::INFINITY))
                };
                let single = cheapest(coef, terms.iter().copied().zip(0..));
                assert_eq!(
                    verdict(cheapest_chained(coef, &terms)),
                    verdict(single),
                    "coef {coef} over {terms:?}"
                );
                let Some((least, first)) = single else {
                    continue;
                };
                let cost = |&(load, cheap): &(f64, f64)| load + coef * cheap;
                let mut ties = (first + 1..len).filter(|&n| cost(&terms[n]) == least);
                cross_chain_ties += usize::from(ties.any(|n| n % CHAINS != first % CHAINS));
                let zero_signs = terms.iter().map(cost).filter(|&c| c == 0.0);
                let mut negative = zero_signs.map(f64::is_sign_negative);
                let both_signs = negative.clone().any(|n| n) && negative.any(|n| !n);
                signed_zeros += usize::from(least == 0.0 && both_signs);
                unroutable += usize::from(least == f64::INFINITY);
            }
        }
        assert!(
            cross_chain_ties > 2_000 && signed_zeros > 300 && unroutable > 400,
            "every shape exercised: {cross_chain_ties} / {signed_zeros} / {unroutable}"
        );
    }

    #[test]
    fn route_table_routes_as_the_public_scan_under_random_writes() {
        for (seed, nodes) in [1, 2, 5, 6, 24, 96, 97].into_iter().enumerate() {
            let mut rng = SplitMix64::new(seed as u64 + 1);
            let fleet: Vec<_> = (0..nodes).map(|n| random_row(&mut rng, n)).collect();
            let mut table = table_of(&fleet);
            for _ in 0..400 {
                if rng.next_u64().is_multiple_of(16) {
                    table.refresh((0..nodes).map(|n| random_row(&mut rng, n)));
                } else {
                    let n = (rng.next_u64() % nodes as u64) as usize;
                    table.set_depth(n, (rng.next_u64() % 6) as usize);
                }
                routes(&mut table);
            }
        }
    }

    #[test]
    fn route_table_breaks_ties_to_the_lowest_index() {
        let row = |index, depth| RouteCandidate {
            index,
            up: true,
            depth,
            load_ewma: 1.5,
            allowed: 2,
            freq_cap: 0.8,
        };
        for nodes in [1, 2, 5, 6, 24, 96, 97] {
            let tied: Vec<_> = (0..nodes).map(|n| row(n, 3)).collect();
            let mut table = table_of(&tied);
            assert!(routes(&mut table).iter().all(|&r| r == Some(0)));
            // Lower every row from the middle on to one shared depth: the
            // first of them wins.
            let first = nodes / 2;
            for n in first..nodes {
                table.set_depth(n, 1);
            }
            assert!(routes(&mut table).iter().all(|&r| r == Some(first)));
        }
    }

    #[test]
    fn route_table_at_zero_cost_and_without_slots() {
        for nodes in [1, 2, 5, 6, 24, 96, 97] {
            // Significance 0.5 zeroes the power term; empty queues zero the
            // load, so every cost is 0 and the first node with a slot wins.
            let mut idle: Vec<_> = (0..nodes).map(|n| candidate(n, true, 0, 0.6)).collect();
            idle[0].allowed = 0;
            let mut table = table_of(&idle);
            assert_eq!(table.route(2), Some(usize::from(nodes > 1)));
            routes(&mut table);

            let down: Vec<_> = (0..nodes).map(|n| candidate(n, false, 1, 1.0)).collect();
            assert!(routes(&mut table_of(&down)).iter().all(Option::is_none));

            // Up but no slot anywhere: the second pass routes to an up node.
            let mut full: Vec<_> = (0..nodes)
                .map(|n| candidate(n, n % 3 != 1, n % 4, 1.0))
                .collect();
            full.iter_mut().for_each(|row| row.allowed = 0);
            let routed = routes(&mut table_of(&full));
            assert!(routed.iter().all(|r| r.is_some_and(|n| full[n].up)));
        }
    }
}
