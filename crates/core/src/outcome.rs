//! The mechanism's output: routes and prices for every pair.

use bgpvcg_lcp::Route;
use bgpvcg_netgraph::{AsId, Cost};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The mechanism's output for one source–destination pair: the selected
/// lowest-cost route and the per-packet price `p^k_ij` for every transit
/// node `k` on it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PairOutcome {
    route: Route,
    /// `(k, p^k_ij)` for each transit node, in path order.
    prices: Vec<(AsId, Cost)>,
}

impl PairOutcome {
    /// Bundles a route with its transit prices.
    ///
    /// # Panics
    ///
    /// Panics if the price list does not match the route's transit nodes in
    /// order.
    pub fn new(route: Route, prices: Vec<(AsId, Cost)>) -> Self {
        assert!(
            prices
                .iter()
                .map(|&(k, _)| k)
                .eq(route.transit_nodes().iter().copied()),
            "prices must cover exactly the transit nodes, in path order"
        );
        PairOutcome { route, prices }
    }

    /// The selected route.
    pub fn route(&self) -> &Route {
        &self.route
    }

    /// `(k, p^k_ij)` pairs in path order.
    pub fn prices(&self) -> &[(AsId, Cost)] {
        &self.prices
    }

    /// The price of one transit node, if it is on the route.
    pub fn price_of(&self, k: AsId) -> Option<Cost> {
        self.prices.iter().find(|(n, _)| *n == k).map(|(_, p)| *p)
    }
}

/// The complete mechanism output: a [`PairOutcome`] for every ordered pair
/// of distinct ASs.
///
/// Both the centralized Theorem-1 computation ([`crate::vcg::compute`]) and
/// the distributed protocol ([`crate::protocol::run_sync`]) produce this
/// type, and the reproduction's headline test is that they are **equal** —
/// the distributed algorithm computes exactly the VCG prices (Theorem 2).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoutingOutcome {
    n: usize,
    /// Row-major `[i][j]`; `None` on the diagonal.
    pairs: Vec<Option<PairOutcome>>,
}

impl RoutingOutcome {
    /// Assembles an outcome from a pair table (row-major `[i][j]`, `None`
    /// on the diagonal).
    ///
    /// # Panics
    ///
    /// Panics if the table is not `n × n` or has a non-`None` diagonal.
    pub fn from_pairs(n: usize, pairs: Vec<Option<PairOutcome>>) -> Self {
        assert_eq!(pairs.len(), n * n, "pair table must be n × n");
        for i in 0..n {
            // lint:allow(bounds: pairs len is asserted to be n * n on the line above)
            assert!(pairs[i * n + i].is_none(), "diagonal must be empty");
        }
        RoutingOutcome { n, pairs }
    }

    /// Number of ASs covered.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// The outcome for the pair `(i, j)`, `None` when `i == j` or the pair
    /// is unreachable.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn pair(&self, i: AsId, j: AsId) -> Option<&PairOutcome> {
        assert!(
            i.index() < self.n && j.index() < self.n,
            "index out of range"
        );
        self.pairs[i.index() * self.n + j.index()].as_ref()
    }

    /// The selected route from `i` to `j`.
    pub fn route(&self, i: AsId, j: AsId) -> Option<&Route> {
        self.pair(i, j).map(PairOutcome::route)
    }

    /// The price `p^k_ij`: `Some` iff `k` is a transit node on the selected
    /// route from `i` to `j`. Nodes off the route have price zero in the
    /// mechanism; this accessor distinguishes "zero because off-route" as
    /// `None`.
    pub fn price(&self, i: AsId, j: AsId, k: AsId) -> Option<Cost> {
        self.pair(i, j).and_then(|p| p.price_of(k))
    }

    /// Iterates over all ordered pairs with an outcome.
    pub fn pairs(&self) -> impl Iterator<Item = (AsId, AsId, &PairOutcome)> {
        (0..self.n).flat_map(move |i| {
            (0..self.n).filter_map(move |j| {
                self.pairs[i * self.n + j]
                    .as_ref()
                    .map(|p| (AsId::new(i as u32), AsId::new(j as u32), p))
            })
        })
    }
}

impl fmt::Display for RoutingOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "RoutingOutcome over {} ASs:", self.n)?;
        for (i, j, pair) in self.pairs() {
            write!(f, "  {i} -> {j}: {}", pair.route())?;
            let prices: Vec<String> = pair
                .prices()
                .iter()
                .map(|(k, p)| format!("{k}={p}"))
                .collect();
            writeln!(f, " prices [{}]", prices.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpvcg_netgraph::generators::structured::{fig1, Fig1};

    fn xz_pair() -> PairOutcome {
        let g = fig1();
        let route = Route::from_nodes(&g, vec![Fig1::X, Fig1::B, Fig1::D, Fig1::Z]);
        PairOutcome::new(
            route,
            vec![(Fig1::B, Cost::new(4)), (Fig1::D, Cost::new(3))],
        )
    }

    #[test]
    fn pair_accessors() {
        let pair = xz_pair();
        assert_eq!(pair.price_of(Fig1::B), Some(Cost::new(4)));
        assert_eq!(pair.price_of(Fig1::D), Some(Cost::new(3)));
        assert_eq!(pair.price_of(Fig1::A), None);
    }

    #[test]
    #[should_panic(expected = "transit nodes")]
    fn pair_rejects_mismatched_prices() {
        let g = fig1();
        let route = Route::from_nodes(&g, vec![Fig1::X, Fig1::B, Fig1::D, Fig1::Z]);
        let _ = PairOutcome::new(route, vec![(Fig1::D, Cost::new(3))]);
    }

    #[test]
    fn outcome_round_trip() {
        let n = 6;
        let mut pairs: Vec<Option<PairOutcome>> = vec![None; n * n];
        pairs[Fig1::X.index() * n + Fig1::Z.index()] = Some(xz_pair());
        let outcome = RoutingOutcome::from_pairs(n, pairs);
        assert_eq!(outcome.node_count(), 6);
        assert_eq!(outcome.price(Fig1::X, Fig1::Z, Fig1::D), Some(Cost::new(3)));
        assert_eq!(outcome.price(Fig1::X, Fig1::Z, Fig1::A), None);
        assert_eq!(
            outcome.price(Fig1::Z, Fig1::X, Fig1::D),
            None,
            "unpopulated"
        );
        assert_eq!(outcome.pairs().count(), 1);
        assert!(outcome.route(Fig1::X, Fig1::Z).is_some());
    }

    #[test]
    #[should_panic(expected = "diagonal")]
    fn outcome_rejects_diagonal_entries() {
        let n = 6;
        let mut pairs: Vec<Option<PairOutcome>> = vec![None; n * n];
        pairs[0] = Some(PairOutcome::new(Route::trivial(Fig1::X), vec![]));
        let _ = RoutingOutcome::from_pairs(n, pairs);
    }

    #[test]
    fn display_lists_prices() {
        let n = 6;
        let mut pairs: Vec<Option<PairOutcome>> = vec![None; n * n];
        pairs[Fig1::X.index() * n + Fig1::Z.index()] = Some(xz_pair());
        let outcome = RoutingOutcome::from_pairs(n, pairs);
        let text = outcome.to_string();
        assert!(text.contains("AS4=4"), "B's price shown: {text}");
    }
}
