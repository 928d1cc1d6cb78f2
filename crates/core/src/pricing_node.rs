//! The distributed price computation as a BGP extension (paper, Sect. 6).
//!
//! A [`PricingBgpNode`] is a BGP speaker whose UPDATE messages additionally
//! carry, for every advertised route, the sender's current price entries for
//! the route's transit nodes. Price entries start at `∞` and relax downward
//! via the paper's four neighbor-case rules (Fig. 3) — implemented here as
//! one unified bound; Lemma 1 shows the component-wise minimum over
//! neighbors is exactly the VCG price, and Lemma 2 bounds convergence at
//! `max(d, d′)` stages.
//!
//! No new message types are introduced and all communication stays between
//! physical neighbors — the paper's design constraint that makes the
//! mechanism deployable as "a straightforward extension to BGP".

use bgpvcg_bgp::{
    uncaused, AdjRibOut, LocalEvent, PathEntry, ProtocolNode, RouteInfo, RouteSelector,
    StateSnapshot, Update,
};
use bgpvcg_netgraph::{AsGraph, AsId, Cost};
use std::sync::Arc;

/// A BGP speaker extended with the paper's distributed VCG price
/// computation.
///
/// Route selection is byte-identical to [`bgpvcg_bgp::PlainBgpNode`] (both
/// drive the shared [`RouteSelector`]); the extension adds a per-destination price
/// array aligned with the selected route's transit nodes, relaxed from
/// neighbors' advertised arrays.
///
/// # Example
///
/// ```
/// use bgpvcg_core::PricingBgpNode;
/// use bgpvcg_netgraph::generators::structured::fig1;
///
/// let g = fig1();
/// let nodes = PricingBgpNode::from_graph(&g);
/// assert_eq!(nodes.len(), g.node_count());
/// ```
#[derive(Debug, Clone)]
pub struct PricingBgpNode {
    selector: RouteSelector,
    /// Per destination (index `dest.index()`): price entries `p^k_ij`,
    /// aligned with the selected route's transit nodes; empty where the
    /// route has none. Recomputed from scratch (all `∞`, then one
    /// relaxation pass over the current Rib-In) on every refresh — the
    /// realization of the paper's "price computation must start over
    /// whenever there is a route change"; see [`Self::refresh_prices`].
    prices: Vec<Vec<Cost>>,
    /// Change suppression and delta compression of what goes out.
    out: AdjRibOut,
    /// The array `refresh_prices` relaxes into, reused across calls.
    scratch: Vec<Cost>,
}

impl PricingBgpNode {
    /// Creates the pricing node for AS `id` of the graph.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in the graph.
    pub fn new(graph: &AsGraph, id: AsId) -> Self {
        let n = graph.node_count();
        PricingBgpNode {
            selector: RouteSelector::with_node_count(
                id,
                graph.cost(id),
                graph.neighbors(id).iter().copied(),
                n,
            ),
            prices: vec![Vec::new(); n],
            out: AdjRibOut::new(n),
            scratch: Vec::new(),
        }
    }

    /// Enables or disables [`RouteInfo::PriceDelta`] compression of change
    /// advertisements (on by default). The delta-stream equivalence
    /// proptests run both settings and assert identical fixpoints.
    pub fn set_delta_encoding(&mut self, on: bool) {
        self.out.set_delta_encoding(on);
    }

    /// Creates one pricing node per AS, in AS order.
    pub fn from_graph(graph: &AsGraph) -> Vec<Self> {
        graph
            .nodes()
            .map(|id| PricingBgpNode::new(graph, id))
            .collect()
    }

    /// Read access to the routing decision process.
    pub fn selector(&self) -> &RouteSelector {
        &self.selector
    }

    /// The current price array for `dest`, aligned with the selected
    /// route's transit nodes.
    pub fn prices(&self, dest: AsId) -> Option<&[Cost]> {
        let array = self.prices.get(dest.index())?;
        (!array.is_empty()).then_some(array.as_slice())
    }

    /// The current price `p^k_{i,dest}` for transit node `k` of the
    /// selected route to `dest` (`None` if `k` is not transit on it).
    pub fn price(&self, dest: AsId, k: AsId) -> Option<Cost> {
        let route = self.selector.selected(dest)?;
        let transit = &route.path[1..route.path.len().saturating_sub(1)];
        let pos = transit.iter().position(|e| e.node == k)?;
        self.prices.get(dest.index())?.get(pos).copied()
    }

    /// One relaxation pass for `dest`: recomputes the price array *from
    /// scratch* — reset every entry to `∞`, then apply every neighbor bound
    /// available in the current Rib-In. Returns `true` if the stored array
    /// changed.
    ///
    /// Recomputing from scratch (rather than taking a running minimum
    /// across passes, as the paper's static-network presentation does) is
    /// the realization of the paper's rule that "price computation must
    /// start over whenever there is a route change": the array is a pure
    /// function of the current Rib-In, so bounds grounded in routes that no
    /// longer exist are flushed as soon as the corrected advertisements
    /// arrive. In a static network every available bound is valid (never
    /// below the true price — see the case analysis below), so the result
    /// and the `max(d, d′)` convergence bound are unchanged; within one
    /// pass the entries still only relax downward from `∞`, exactly as in
    /// Fig. 3.
    fn refresh_prices(&mut self, dest: AsId) -> bool {
        let Some(stored) = self.prices.get_mut(dest.index()) else {
            return false;
        };
        let transit: &[PathEntry] = match self.selector.selected(dest) {
            Some(route) if dest != self.selector.id() => &route.path[1..route.path.len() - 1],
            _ => &[],
        };
        if transit.is_empty() {
            // Own destination, no route, or a route without transit nodes.
            let had_prices = !stored.is_empty();
            stored.clear();
            return had_prices;
        }
        let my_route_cost = self.selector.route_cost(dest);
        let arr = &mut self.scratch;
        arr.clear();
        arr.resize(transit.len(), Cost::INFINITE);

        // The paper states its relaxation as four cases by the neighbor's
        // position in the tree T(j) — parent (i), child (ii), unrelated
        // with k on the neighbor's LCP (iii), unrelated without (iv). All
        // of (i)–(iii) are instances of a single bound,
        //
        //   p^k_ij ≤ p^k_aj + c_a + c(a,j) − c(i,j),
        //
        // evaluated on the advertisement's own (prices, path cost) pair:
        // for a parent, c(i,j) = c_a + c(a,j) collapses it to case (i); for
        // a child, c(a,j) = c_i + c(i,j) collapses it to case (ii). Using
        // the unified form is not just shorter — it is *required* for
        // asynchronous correctness: classifying parent/child from the
        // Rib-In can be stale (the neighbor's advertised path may pass
        // through an old route of ours), and applying case (ii) with our
        // current c(i,j) against a stale advertisement can produce an
        // invalid, too-low bound that monotone relaxation never recovers
        // from. The unified bound only combines values from one internally
        // consistent advertisement plus our current route cost, and is
        // valid for every neighbor and every interleaving (the advertised
        // prices-plus-path-cost sum is grounded in real k-avoiding paths).
        // Neighbors are the outer loop so the per-advertisement values
        // (declared cost, shift) are hoisted out of the transit scan and
        // the Rib-In row is walked once. The component-wise minimum is
        // order-independent, so the array is identical either way.
        for (a, info) in self.selector.rib_for(dest) {
            let RouteInfo::Reachable {
                path: a_path,
                path_cost: a_route_cost,
                prices: a_prices,
            } = info
            else {
                continue;
            };
            let a_declared = a_path[0].cost;
            // Shift shared by all cases; a transiently inconsistent
            // Rib-In can make it negative, in which case the bound is
            // skipped (it would have been invalid anyway).
            let Some(shift) = (a_declared + *a_route_cost).checked_sub(my_route_cost) else {
                continue;
            };
            for (k_entry, cell) in transit.iter().zip(arr.iter_mut()) {
                let k = k_entry.node;
                // Excluded case: the link i–a is never on a k-avoiding path
                // when a IS k, so that neighbor offers no bound for k.
                if a == k {
                    continue;
                }
                // One scan of a's path places k on it.
                let bound = match a_path.iter().position(|e| e.node == k) {
                    // Case (iv): k is not on a's path at all, so that path
                    // extended by the link i–a is itself k-avoiding.
                    None => k_entry.cost + shift,
                    // Cases (i)/(ii)/(iii): k is a transit node of a's
                    // advertised path, whose price array bounds the cost of
                    // a's best k-avoiding path.
                    Some(at) if at + 1 < a_path.len() => match a_prices.get(at - 1) {
                        Some(&p) => p + shift,
                        None => continue, // a price array shorter than its path
                    },
                    // k is the far endpoint of a's path (k == a was
                    // excluded above and k == dest cannot be transit on our
                    // route, so this is only reachable on transiently
                    // inconsistent state); no bound.
                    Some(_) => continue,
                };
                if bound < *cell {
                    *cell = bound;
                }
            }
        }

        crate::invariants::relaxation_step(transit, arr.as_slice());
        let changed = stored != arr;
        if changed {
            stored.clone_from(arr);
        }
        changed
    }

    /// Advertises whichever of `dests` changed since last advertised,
    /// mirroring [`bgpvcg_bgp::PlainBgpNode`]'s change-suppression rule.
    fn emit(&mut self, dests: impl IntoIterator<Item = (AsId, u64)>) -> Option<Update> {
        self.out
            .emit(&self.selector, dests, |dest| &self.prices[dest.index()])
    }
}

impl ProtocolNode for PricingBgpNode {
    fn id(&self) -> AsId {
        self.selector.id()
    }

    fn configure_delta_encoding(&mut self, on: bool) {
        self.set_delta_encoding(on);
    }

    fn start(&mut self) -> Option<Update> {
        self.emit(uncaused([self.selector.id()]))
    }

    fn handle(&mut self, updates: &[Arc<Update>]) -> Option<Update> {
        let mut dirty = self.out.ingest(&mut self.selector, updates);
        dirty.retain(|&(dest, _)| {
            let route_changed = self.selector.decide(dest);
            self.refresh_prices(dest) || route_changed
        });
        let update = self.emit(dirty.iter().copied());
        self.out.recycle(dirty);
        update
    }

    fn apply_event(&mut self, event: LocalEvent) -> Option<Update> {
        match event {
            LocalEvent::LinkDown(neighbor) => {
                if !self.selector.has_neighbor(neighbor) {
                    return None;
                }
                // Only the destinations the vanished Rib-In covered can
                // change: both route selection and the relaxation draw
                // their candidates/bounds for `dest` exclusively from rib
                // entries *for `dest`*, and a refresh recomputes from
                // scratch as a pure function of the current Rib-In — so
                // every other destination's route and price array are
                // provably unchanged and need no recompute (and the dead
                // link's bounds are flushed exactly where they could
                // exist).
                let affected = self.selector.rib_destinations(neighbor);
                self.selector.link_down(neighbor); // re-decides `affected`
                for &dest in &affected {
                    self.refresh_prices(dest);
                }
                self.emit(uncaused(affected))
            }
            LocalEvent::LinkUp(neighbor) => {
                self.selector.link_up(neighbor);
                None // the engine sends `full_table` to the new neighbor
            }
            LocalEvent::CostChange(cost) => {
                // The declared cost never enters this node's *own*
                // relaxation — the unified bound combines neighbor-
                // advertised values with our route's transit cost only —
                // so the price arrays are untouched. Re-advertise exactly
                // the table entries whose first path entry restamped.
                let changed = self.selector.set_declared_cost(cost);
                self.emit(uncaused(changed))
            }
        }
    }

    fn full_table(&self) -> Option<Update> {
        AdjRibOut::full_table(&self.selector, |dest| &self.prices[dest.index()])
    }

    fn reset(&mut self) {
        self.selector.reset();
        self.prices.iter_mut().for_each(Vec::clear);
        self.out.reset();
    }

    fn state(&self) -> StateSnapshot {
        // The shared structures, plus the extension's price state (own
        // arrays and the arrays remembered in the Rib-In are both part of
        // the node's footprint; the former is the paper's "added state").
        // The arrays are stored here aligned with the selected route's
        // transit slice, but a deployable encoding labels each price with
        // the transit node it prices — one AS cell per entry, counted as
        // `price_path_nodes`.
        let mut snapshot = self.selector.state();
        snapshot.price_entries = self.prices.iter().map(Vec::len).sum();
        snapshot.price_path_nodes = snapshot.price_entries;
        snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpvcg_bgp::RouteAdvertisement;
    use bgpvcg_netgraph::generators::structured::{fig1, Fig1};

    #[test]
    fn start_advertises_origin_with_no_prices() {
        let g = fig1();
        let mut node = PricingBgpNode::new(&g, Fig1::D);
        let update = node.start().unwrap();
        assert_eq!(update.entry_count(), 1);
        let RouteInfo::Reachable { prices, .. } = &update.advertisements[0].info else {
            panic!("origin must be reachable");
        };
        assert!(prices.is_empty());
    }

    #[test]
    fn two_hop_route_has_empty_price_array() {
        let g = fig1();
        let mut d = PricingBgpNode::new(&g, Fig1::D);
        let mut z = PricingBgpNode::new(&g, Fig1::Z);
        d.handle(&[Arc::new(z.start().unwrap())]);
        assert_eq!(d.prices(Fig1::Z), None, "no transit nodes, no prices");
        assert_eq!(d.price(Fig1::Z, Fig1::B), None);
    }

    #[test]
    fn case_iv_bound_applies_from_unrelated_neighbor() {
        // Hand-drive a tiny interaction: node X learns route X,B,D,Z and an
        // unrelated route via A; the case-(iv) bound for both B and D is
        // c_k + c_A + c(A,Z) − c(X,Z) = c_k + 5 + 0 − 3 = c_k + 2.
        let g = fig1();
        let mut x = PricingBgpNode::new(&g, Fig1::X);
        let b_ad = Update {
            from: Fig1::B,
            sender_costs: Vec::new(),
            advertisements: vec![RouteAdvertisement {
                destination: Fig1::Z,
                info: RouteInfo::Reachable {
                    path: vec![
                        PathEntry {
                            node: Fig1::B,
                            cost: Cost::new(2),
                        },
                        PathEntry {
                            node: Fig1::D,
                            cost: Cost::new(1),
                        },
                        PathEntry {
                            node: Fig1::Z,
                            cost: Cost::new(4),
                        },
                    ]
                    .into(),
                    path_cost: Cost::new(1),
                    prices: vec![Cost::INFINITE],
                },
            }],
            id: 0,
            causes: Vec::new(),
        };
        let a_ad = Update {
            from: Fig1::A,
            sender_costs: Vec::new(),
            advertisements: vec![RouteAdvertisement {
                destination: Fig1::Z,
                info: RouteInfo::Reachable {
                    path: vec![
                        PathEntry {
                            node: Fig1::A,
                            cost: Cost::new(5),
                        },
                        PathEntry {
                            node: Fig1::Z,
                            cost: Cost::new(4),
                        },
                    ]
                    .into(),
                    path_cost: Cost::ZERO,
                    prices: vec![],
                },
            }],
            id: 0,
            causes: Vec::new(),
        };
        x.handle(&[Arc::new(b_ad), Arc::new(a_ad)]);
        // Selected route must be X,B,D,Z at cost 3.
        assert_eq!(x.selector().route_cost(Fig1::Z), Cost::new(3));
        assert_eq!(x.price(Fig1::Z, Fig1::B), Some(Cost::new(4)));
        assert_eq!(x.price(Fig1::Z, Fig1::D), Some(Cost::new(3)));
    }

    #[test]
    fn route_change_resets_prices() {
        let g = fig1();
        let mut x = PricingBgpNode::new(&g, Fig1::X);
        // First: only the expensive route via A is known.
        let a_ad = Update {
            from: Fig1::A,
            sender_costs: Vec::new(),
            advertisements: vec![RouteAdvertisement {
                destination: Fig1::Z,
                info: RouteInfo::Reachable {
                    path: vec![
                        PathEntry {
                            node: Fig1::A,
                            cost: Cost::new(5),
                        },
                        PathEntry {
                            node: Fig1::Z,
                            cost: Cost::new(4),
                        },
                    ]
                    .into(),
                    path_cost: Cost::ZERO,
                    prices: vec![],
                },
            }],
            id: 0,
            causes: Vec::new(),
        };
        x.handle(&[Arc::new(a_ad)]);
        assert_eq!(x.selector().route_cost(Fig1::Z), Cost::new(5));
        assert_eq!(x.prices(Fig1::Z).unwrap(), &[Cost::INFINITE]);
        // Then the better route via B arrives: the array must track the new
        // route's transit nodes (B, D), not A.
        let b_ad = Update {
            from: Fig1::B,
            sender_costs: Vec::new(),
            advertisements: vec![RouteAdvertisement {
                destination: Fig1::Z,
                info: RouteInfo::Reachable {
                    path: vec![
                        PathEntry {
                            node: Fig1::B,
                            cost: Cost::new(2),
                        },
                        PathEntry {
                            node: Fig1::D,
                            cost: Cost::new(1),
                        },
                        PathEntry {
                            node: Fig1::Z,
                            cost: Cost::new(4),
                        },
                    ]
                    .into(),
                    path_cost: Cost::new(1),
                    prices: vec![Cost::INFINITE],
                },
            }],
            id: 0,
            causes: Vec::new(),
        };
        x.handle(&[Arc::new(b_ad)]);
        assert_eq!(x.selector().route_cost(Fig1::Z), Cost::new(3));
        let arr = x.prices(Fig1::Z).unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(x.price(Fig1::Z, Fig1::B), Some(Cost::new(4)));
        assert_eq!(x.price(Fig1::Z, Fig1::A), None);
    }

    #[test]
    fn price_state_counted_in_snapshot() {
        let g = fig1();
        let mut x = PricingBgpNode::new(&g, Fig1::X);
        let b_ad = Update {
            from: Fig1::B,
            sender_costs: Vec::new(),
            advertisements: vec![RouteAdvertisement {
                destination: Fig1::Z,
                info: RouteInfo::Reachable {
                    path: vec![
                        PathEntry {
                            node: Fig1::B,
                            cost: Cost::new(2),
                        },
                        PathEntry {
                            node: Fig1::D,
                            cost: Cost::new(1),
                        },
                        PathEntry {
                            node: Fig1::Z,
                            cost: Cost::new(4),
                        },
                    ]
                    .into(),
                    path_cost: Cost::new(1),
                    prices: vec![Cost::INFINITE],
                },
            }],
            id: 0,
            causes: Vec::new(),
        };
        x.handle(&[Arc::new(b_ad)]);
        assert_eq!(x.state().price_entries, 2);
        // Each price entry carries one transit-node AS label cell.
        assert_eq!(x.state().price_path_nodes, 2);
    }

    #[test]
    fn out_of_range_ids_are_dropped_before_any_table_is_indexed() {
        // `prices` and the Adj-RIB-Out are indexed by destination: an id
        // outside the graph must never get that far.
        let g = fig1();
        let mut x = PricingBgpNode::new(&g, Fig1::X);
        let huge = AsId::new(u32::MAX);
        let hop = |node, cost| PathEntry {
            node,
            cost: Cost::new(cost),
        };
        let reach = |destination, path: Vec<PathEntry>, prices| RouteAdvertisement {
            destination,
            info: RouteInfo::Reachable {
                path: path.into(),
                path_cost: Cost::new(1),
                prices,
            },
        };
        let hostile = Update {
            from: Fig1::A,
            sender_costs: Vec::new(),
            advertisements: vec![
                reach(huge, vec![hop(Fig1::A, 5), hop(huge, 1)], vec![]),
                reach(
                    Fig1::Z,
                    vec![hop(Fig1::A, 5), hop(huge, 1), hop(Fig1::Z, 4)],
                    vec![Cost::new(2)],
                ),
            ],
            id: 7,
            causes: Vec::new(),
        };
        let before = x.state();
        assert!(x.handle(&[Arc::new(hostile)]).is_none());
        assert_eq!(x.state(), before);
        assert_eq!(x.prices(huge), None);
        assert_eq!(x.selector().route_cost(Fig1::Z), Cost::INFINITE);
    }
}
