//! The mechanism's output: routes and prices for every pair.
//!
//! The table is flat: one route and at most `d` prices per pair, the
//! `O(nd)` state of Theorem 2, held in four arrays shared by all `n²`
//! pairs instead of two heap vectors per pair. Building it costs no
//! allocation per pair ([`OutcomeBuilder::push`] appends), and reading it
//! hands out [`PairOutcome`] views into those arrays.

use bgpvcg_lcp::Route;
use bgpvcg_netgraph::{AsId, Cost};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The mechanism's output for one source–destination pair, viewed in the
/// table: the selected lowest-cost route and the per-packet price
/// `p^k_ij` for every transit node `k` on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairOutcome<'a> {
    /// The route's nodes, both endpoints included (at least two).
    nodes: &'a [AsId],
    transit_cost: Cost,
    /// One price per transit node, in path order.
    prices: &'a [Cost],
}

impl<'a> PairOutcome<'a> {
    /// The selected route's full node sequence, source first.
    pub fn nodes(&self) -> &'a [AsId] {
        self.nodes
    }

    /// The selected route's transit (intermediate) nodes, in path order.
    pub fn transit_nodes(&self) -> &'a [AsId] {
        &self.nodes[1..self.nodes.len() - 1]
    }

    /// The transit cost `c(i, j)` of the selected route.
    pub fn transit_cost(&self) -> Cost {
        self.transit_cost
    }

    /// `(k, p^k_ij)` for each transit node, in path order.
    pub fn prices(&self) -> impl ExactSizeIterator<Item = (AsId, Cost)> + 'a {
        let transit = self.transit_nodes();
        transit.iter().copied().zip(self.prices.iter().copied())
    }

    /// The price of one transit node, if it is on the route.
    pub fn price_of(&self, k: AsId) -> Option<Cost> {
        self.prices().find(|&(n, _)| n == k).map(|(_, p)| p)
    }

    /// The selected route as an owned [`Route`] (allocates; the table
    /// itself holds no `Route`).
    pub fn route(&self) -> Route {
        Route::from_parts(self.nodes.to_vec(), self.transit_cost)
    }
}

/// Where one pair's cells start in the shared arrays; the next pair's
/// start is where they end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct Start {
    node: u32,
    price: u32,
}

/// The complete mechanism output: a route and its prices for every
/// ordered pair of distinct ASs, viewed one pair at a time through
/// [`PairOutcome`].
///
/// Both the centralized Theorem-1 computation ([`crate::vcg::compute`]) and
/// the distributed protocol ([`crate::protocol::run_sync`]) produce this
/// type, and the reproduction's headline test is that they are **equal** —
/// the distributed algorithm computes exactly the VCG prices (Theorem 2).
///
/// Layout: pair `(i, j)` is cell `i·n + j`. Its nodes are
/// `nodes[starts[p].node..starts[p + 1].node]` and its prices
/// `prices[starts[p].price..starts[p + 1].price]`, one per transit node. A
/// pair is absent (the diagonal, an unreachable pair) when its node range
/// is empty; an absent pair's transit cost is [`Cost::ZERO`], so the
/// derived `==` compares exactly `n` and every pair's nodes, transit cost
/// and prices.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoutingOutcome {
    n: usize,
    /// `n² + 1` entries: one per cell, then the end of the last.
    starts: Vec<Start>,
    /// One per cell.
    transit_costs: Vec<Cost>,
    nodes: Vec<AsId>,
    prices: Vec<Cost>,
}

/// A table offset as stored: cells are counted in `u32`.
///
/// # Panics
///
/// Panics if the table has outgrown `u32` cells (a 4096-ring would need
/// about 2³⁵ node cells) rather than wrapping silently.
fn offset(len: usize) -> u32 {
    assert!(
        len <= u32::MAX as usize,
        "routing outcome exceeds u32::MAX ({}) node or price cells",
        u32::MAX
    );
    len as u32
}

impl RoutingOutcome {
    /// Starts an empty table over `n` ASs, filled pair by pair through
    /// [`OutcomeBuilder::push`].
    pub fn builder(n: usize) -> OutcomeBuilder {
        let cells = n * n;
        let mut starts = Vec::with_capacity(cells + 1);
        starts.push(Start { node: 0, price: 0 });
        OutcomeBuilder {
            table: RoutingOutcome {
                n,
                starts,
                transit_costs: Vec::with_capacity(cells),
                nodes: Vec::new(),
                prices: Vec::new(),
            },
        }
    }

    /// Number of ASs covered.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// The view of cell `p`, `None` for an absent pair.
    fn cell(&self, p: usize) -> Option<PairOutcome<'_>> {
        let (from, to) = (self.starts.get(p)?, self.starts.get(p + 1)?);
        let nodes = self.nodes.get(from.node as usize..to.node as usize)?;
        if nodes.is_empty() {
            return None;
        }
        Some(PairOutcome {
            nodes,
            transit_cost: *self.transit_costs.get(p)?,
            prices: self.prices.get(from.price as usize..to.price as usize)?,
        })
    }

    /// The outcome for the pair `(i, j)`, `None` when `i == j` or the pair
    /// is unreachable.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn pair(&self, i: AsId, j: AsId) -> Option<PairOutcome<'_>> {
        assert!(
            i.index() < self.n && j.index() < self.n,
            "index out of range"
        );
        self.cell(i.index() * self.n + j.index())
    }

    /// The price `p^k_ij`: `Some` iff `k` is a transit node on the selected
    /// route from `i` to `j`. Nodes off the route have price zero in the
    /// mechanism; this accessor distinguishes "zero because off-route" as
    /// `None`.
    pub fn price(&self, i: AsId, j: AsId, k: AsId) -> Option<Cost> {
        self.pair(i, j).and_then(|p| p.price_of(k))
    }

    /// The pair `(i, j)`'s route nodes and its writable price cells (both
    /// empty for an absent pair): [`crate::vcg::compute`] lays the table
    /// out with placeholder prices, then writes each into its cell.
    pub(crate) fn price_row_mut(&mut self, i: AsId, j: AsId) -> (&[AsId], &mut [Cost]) {
        let p = i.index() * self.n + j.index();
        let (from, to) = (self.starts[p], self.starts[p + 1]);
        (
            &self.nodes[from.node as usize..to.node as usize],
            &mut self.prices[from.price as usize..to.price as usize],
        )
    }

    /// Iterates over all ordered pairs with an outcome, row-major.
    pub fn pairs(&self) -> impl Iterator<Item = (AsId, AsId, PairOutcome<'_>)> {
        (0..self.transit_costs.len()).filter_map(move |p| {
            let pair = self.cell(p)?;
            let (i, j) = (p / self.n, p % self.n);
            Some((AsId::new(i as u32), AsId::new(j as u32), pair))
        })
    }
}

/// Fills a [`RoutingOutcome`] pair by pair, in row-major order; made by
/// [`RoutingOutcome::builder`], closed by [`OutcomeBuilder::finish`].
#[derive(Debug)]
pub struct OutcomeBuilder {
    /// The table so far: `starts` holds one more entry than
    /// `transit_costs`, the start of the next cell.
    table: RoutingOutcome,
}

impl OutcomeBuilder {
    /// Marks every cell before `p` that was not pushed as absent.
    fn skip_to(&mut self, p: usize) {
        let t = &mut self.table;
        let open = Start {
            node: offset(t.nodes.len()),
            price: offset(t.prices.len()),
        };
        while t.transit_costs.len() < p {
            t.transit_costs.push(Cost::ZERO);
            t.starts.push(open);
        }
    }

    /// Reserves room for routes of `nodes` nodes in all, `prices` of them
    /// transit nodes, so that the pushes that follow never grow the
    /// table's arrays. Optional: without it they grow by doubling.
    pub fn reserve(&mut self, nodes: usize, prices: usize) {
        self.table.nodes.reserve_exact(nodes);
        self.table.prices.reserve_exact(prices);
    }

    /// Records the selected route from `i` to `j` — its `nodes`, both
    /// endpoints included, and `transit_cost` — with one price per transit
    /// node, in path order.
    ///
    /// # Panics
    ///
    /// Panics if `(i, j)` is out of range, on the diagonal, or not after
    /// the previously pushed pair in row-major order, or if the number of
    /// prices is not the number of nodes minus two.
    pub fn push(
        &mut self,
        i: AsId,
        j: AsId,
        transit_cost: Cost,
        nodes: impl IntoIterator<Item = AsId>,
        prices: impl IntoIterator<Item = Cost>,
    ) {
        let n = self.table.n;
        assert!(i.index() < n && j.index() < n, "pair index out of range");
        assert!(i != j, "the diagonal holds no route");
        let p = i.index() * n + j.index();
        assert!(
            p >= self.table.transit_costs.len(),
            "pairs must be pushed once each, in row-major order"
        );
        self.skip_to(p);
        let t = &mut self.table;
        let (node_from, price_from) = (t.nodes.len(), t.prices.len());
        t.nodes.extend(nodes);
        t.prices.extend(prices);
        let node_count = t.nodes.len() - node_from;
        assert!(
            node_count >= 2 && t.prices.len() - price_from == node_count - 2,
            "a route needs both endpoints and one price per transit node"
        );
        t.transit_costs.push(transit_cost);
        t.starts.push(Start {
            node: offset(t.nodes.len()),
            price: offset(t.prices.len()),
        });
    }

    /// Closes the table: every pair not pushed is absent.
    pub fn finish(mut self) -> RoutingOutcome {
        self.skip_to(self.table.n * self.table.n);
        self.table
    }
}

impl fmt::Display for RoutingOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "RoutingOutcome over {} ASs:", self.n)?;
        for (i, j, pair) in self.pairs() {
            write!(f, "  {i} -> {j}: {}", pair.route())?;
            let prices: Vec<String> = pair.prices().map(|(k, p)| format!("{k}={p}")).collect();
            writeln!(f, " prices [{}]", prices.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpvcg_netgraph::generators::structured::{fig1, Fig1};

    /// Fig. 1's X → Z route `X B D Z` (cost 3) with its worked-example
    /// prices, alone in a 6-AS table.
    fn xz_outcome() -> RoutingOutcome {
        let g = fig1();
        let route = Route::from_nodes(&g, vec![Fig1::X, Fig1::B, Fig1::D, Fig1::Z]);
        let mut table = RoutingOutcome::builder(6);
        table.push(
            Fig1::X,
            Fig1::Z,
            route.transit_cost(),
            route.nodes().iter().copied(),
            [Cost::new(4), Cost::new(3)],
        );
        table.finish()
    }

    #[test]
    fn pair_accessors() {
        let outcome = xz_outcome();
        let pair = outcome.pair(Fig1::X, Fig1::Z).unwrap();
        assert_eq!(pair.price_of(Fig1::B), Some(Cost::new(4)));
        assert_eq!(pair.price_of(Fig1::D), Some(Cost::new(3)));
        assert_eq!(pair.price_of(Fig1::A), None);
    }

    #[test]
    #[should_panic(expected = "transit node")]
    fn pair_rejects_mismatched_prices() {
        let mut table = RoutingOutcome::builder(6);
        table.push(
            Fig1::X,
            Fig1::Z,
            Cost::new(3),
            [Fig1::X, Fig1::B, Fig1::D, Fig1::Z],
            [Cost::new(3)],
        );
    }

    #[test]
    fn outcome_round_trip() {
        let outcome = xz_outcome();
        assert_eq!(outcome.node_count(), 6);
        assert_eq!(outcome.price(Fig1::X, Fig1::Z, Fig1::D), Some(Cost::new(3)));
        assert_eq!(outcome.price(Fig1::X, Fig1::Z, Fig1::A), None);
        assert_eq!(
            outcome.price(Fig1::Z, Fig1::X, Fig1::D),
            None,
            "unpopulated"
        );
        assert_eq!(outcome.pairs().count(), 1);
        assert!(outcome.pair(Fig1::X, Fig1::Z).is_some());
    }

    #[test]
    #[should_panic(expected = "diagonal")]
    fn outcome_rejects_diagonal_entries() {
        let mut table = RoutingOutcome::builder(6);
        table.push(Fig1::X, Fig1::X, Cost::ZERO, [Fig1::X], []);
    }

    #[test]
    fn display_lists_prices() {
        let text = xz_outcome().to_string();
        assert!(text.contains("AS4=4"), "B's price shown: {text}");
    }
}
