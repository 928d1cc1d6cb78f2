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
use crate::avoiding;
use crate::dijkstra::CostModel;

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
/// lowest-cost k-avoiding paths the prices need, taken as a running max
/// over [`avoiding::for_each_destination`]. Returns 0 for graphs with no
/// transit traffic.
pub fn avoiding_hop_diameter<C: CostModel + ?Sized>(graph: &C, lcp: &AllPairsLcp) -> usize {
    let mut dprime = 0;
    avoiding::for_each_destination(graph, lcp, |_, _, _, entry| {
        dprime = dprime.max(entry.hops);
    });
    dprime
}

/// The paper's convergence bound `max(d, d′)` (Corollary 1).
pub fn convergence_bound<C: CostModel + ?Sized>(graph: &C, lcp: &AllPairsLcp) -> usize {
    lcp_hop_diameter(lcp).max(avoiding_hop_diameter(graph, lcp))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpvcg_netgraph::generators::structured::{complete, fig1, ring};
    use bgpvcg_netgraph::Cost;

    #[test]
    fn fig1_diameters() {
        let g = fig1();
        let lcp = AllPairsLcp::compute(&g);
        assert_eq!(lcp_hop_diameter(&lcp), 3);
        // The D-avoiding path Y B X A Z has 4 hops.
        assert_eq!(avoiding_hop_diameter(&g, &lcp), 4);
        assert_eq!(convergence_bound(&g, &lcp), 4);
    }

    #[test]
    fn complete_graph_diameter_is_small() {
        let g = complete(6, Cost::new(3));
        let lcp = AllPairsLcp::compute(&g);
        assert_eq!(lcp_hop_diameter(&lcp), 1);
        // No LCP has a transit node (direct links always win at equal cost),
        // so d' has nothing to measure.
        assert_eq!(avoiding_hop_diameter(&g, &lcp), 0);
    }

    #[test]
    fn ring_diameters_grow_linearly() {
        // Avoiding the middle of a 2-hop LCP forces the n − 2 hop detour.
        for (n, d, dprime) in [(8, 4, 6), (10, 5, 8)] {
            let g = ring(n, Cost::new(1));
            let lcp = AllPairsLcp::compute(&g);
            assert_eq!(lcp_hop_diameter(&lcp), d); // antipodal pairs
            assert_eq!(avoiding_hop_diameter(&g, &lcp), dprime);
            assert_eq!(convergence_bound(&g, &lcp), dprime);
        }
    }
}
