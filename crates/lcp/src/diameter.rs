//! The convergence-governing diameters `d` and `d′`.
//!
//! The paper's Theorem 2 bounds the pricing protocol's convergence at
//! `max(d, d′)` synchronous stages, where
//!
//! * `d` is the maximum number of hops of any selected LCP (the "lowest-cost
//!   diameter"), which also bounds plain BGP's convergence (Sect. 5), and
//! * `d′` is the maximum number of hops of any lowest-cost k-avoiding path
//!   `P_{-k}(c; i, j)` for `k` a transit node of the LCP from `i` to `j`
//!   (Sect. 6.3, Lemma 2).
//!
//! Sect. 6.2 remarks that `d′` *can* be much larger than `d` in adversarial
//! graphs but is not for "the current AS graph" — experiment E7 measures
//! `d′/d` on Internet-like synthetic families to reproduce that remark.

use crate::all_pairs::AllPairsLcp;
use crate::avoiding::AvoidanceTable;

/// The LCP hop diameter `d`: the maximum hop count over all selected
/// lowest-cost routes. Returns 0 when no pair is connected.
///
/// # Example
///
/// ```
/// use bgpvcg_netgraph::generators::structured::fig1;
/// use bgpvcg_lcp::{diameter, AllPairsLcp};
///
/// let lcp = AllPairsLcp::compute(&fig1());
/// assert_eq!(diameter::lcp_hop_diameter(&lcp), 3); // X B D Z
/// ```
pub fn lcp_hop_diameter(lcp: &AllPairsLcp) -> usize {
    lcp.trees().map(|tree| tree.depth()).max().unwrap_or(0)
}

/// The k-avoiding hop diameter `d′`: the maximum hop count over all
/// recorded lowest-cost k-avoiding paths.
pub fn avoiding_hop_diameter(table: &AvoidanceTable) -> usize {
    table.max_hops()
}

/// The paper's convergence bound `max(d, d′)` (Corollary 1).
pub fn convergence_bound(lcp: &AllPairsLcp, table: &AvoidanceTable) -> usize {
    lcp_hop_diameter(lcp).max(avoiding_hop_diameter(table))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpvcg_netgraph::generators::structured::{complete, fig1, ring};
    use bgpvcg_netgraph::Cost;

    fn tables(g: &bgpvcg_netgraph::AsGraph) -> (AllPairsLcp, AvoidanceTable) {
        let lcp = AllPairsLcp::compute(g);
        let table = AvoidanceTable::compute_fast(g, &lcp);
        (lcp, table)
    }

    #[test]
    fn fig1_diameters() {
        let (lcp, table) = tables(&fig1());
        assert_eq!(lcp_hop_diameter(&lcp), 3);
        // The D-avoiding path Y B X A Z has 4 hops.
        assert_eq!(avoiding_hop_diameter(&table), 4);
        assert_eq!(convergence_bound(&lcp, &table), 4);
    }

    #[test]
    fn complete_graph_diameter_is_small() {
        let (lcp, table) = tables(&complete(6, Cost::new(3)));
        assert_eq!(lcp_hop_diameter(&lcp), 1);
        // No LCP has a transit node (direct links always win at equal cost),
        // so d' has nothing to measure.
        assert_eq!(avoiding_hop_diameter(&table), 0);
    }

    #[test]
    fn ring_diameters_grow_linearly() {
        let (lcp, table) = tables(&ring(10, Cost::new(1)));
        assert_eq!(lcp_hop_diameter(&lcp), 5); // antipodal pairs
                                               // Avoiding the middle of a 2-hop LCP forces the n-2 hop detour.
        assert_eq!(avoiding_hop_diameter(&table), 8);
        assert_eq!(convergence_bound(&lcp, &table), 8);
    }
}
