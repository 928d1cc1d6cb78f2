//! Lowest-cost k-avoiding paths.
//!
//! The VCG price paid to a transit node `k` on the LCP from `i` to `j` is
//! determined by the lowest-cost path from `i` to `j` that does **not** pass
//! through `k` — the *k-avoiding path* `P_{-k}(c; i, j)` (paper, Sect. 4).
//! In a biconnected graph such a path always exists, which is exactly why
//! the paper assumes biconnectivity.
//!
//! The price formula only needs the avoiding path's **cost**, which is
//! tie-independent; the avoiding path's **hop count** additionally feeds the
//! convergence bound `max(d, d′)` of Lemma 2, so this module reports both.
//! [`for_each_destination`] is the one solver: it hands each fact to its
//! caller one destination at a time, and keeps none of them.

use crate::all_pairs::AllPairsLcp;
use crate::dijkstra::{dijkstra, CostModel};
use crate::tree::DestinationTree;
use bgpvcg_netgraph::{AsId, Cost};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Computes the tree of lowest-cost `avoid`-avoiding routes to
/// `destination`: Dijkstra on the graph with node `avoid` removed, under the
/// same deterministic route order as [`crate::shortest_tree`].
///
/// `avoid` itself (and any node separated from `destination` by removing
/// `avoid`) ends up unreachable in the returned tree; in a biconnected graph
/// only `avoid` does.
///
/// # Panics
///
/// Panics if `destination` or `avoid` is not in the graph, or if
/// `destination == avoid`.
///
/// # Example
///
/// ```
/// use bgpvcg_netgraph::generators::structured::{fig1, Fig1};
/// use bgpvcg_lcp::avoiding::avoiding_tree;
/// use bgpvcg_netgraph::Cost;
///
/// let g = fig1();
/// let t = avoiding_tree(&g, Fig1::Z, Fig1::D);
/// // The paper: the lowest-cost D-avoiding path from X to Z is X A Z, cost 5.
/// assert_eq!(t.cost(Fig1::X), Cost::new(5));
/// ```
pub fn avoiding_tree<C: CostModel + ?Sized>(
    graph: &C,
    destination: AsId,
    avoid: AsId,
) -> DestinationTree {
    let topology = graph.topology();
    assert!(
        topology.contains_node(destination) && topology.contains_node(avoid),
        "nodes must be in the graph"
    );
    assert!(destination != avoid, "cannot avoid the destination itself");
    dijkstra(graph, destination, Some(avoid))
}

/// One avoiding-path fact: for a transit node `k` on the LCP from some `i`
/// to some `j`, the cost and hop count of the lowest-cost k-avoiding path
/// from `i` to `j`. Which `k` it is follows from where it is delivered:
/// its slot among the route's transit nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AvoidingEntry {
    /// `Cost(P_{-k}(c; i, j))`; infinite only if the graph is not
    /// biconnected.
    pub cost: Cost,
    /// Hop count of the selected lowest-cost k-avoiding path (`0` when the
    /// cost is infinite).
    pub hops: usize,
}

/// Every k-avoiding fact at once: for every pair `(i, j)` and every
/// transit node `k` on the selected LCP from `i` to `j`, the cost and hop
/// count of `P_{-k}(c; i, j)`.
///
/// The mechanism never builds this table: it takes each fact from
/// [`for_each_destination`] as it is found. The table is what tests and
/// benches compare — [`AvoidanceTable::compute_fast`] collects the pass,
/// [`AvoidanceTable::compute`] is its oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AvoidanceTable {
    n: usize,
    /// The `(i, j)` list is `entries[starts[j·n + i]..starts[j·n + i + 1]]`:
    /// one entry per transit node of the selected route from `i` to `j`, in
    /// LCP path order. Empty when the route has no transit nodes (or does
    /// not exist).
    starts: Vec<usize>,
    entries: Vec<AvoidingEntry>,
}

/// `T(j)` numbered in DFS preorder, with the graph's adjacency renumbered
/// to match: position `p` holds node `order[p]`, and its proper subtree is
/// the contiguous range `p + 1..=last[p]` — membership is one range test.
#[derive(Debug, Default)]
struct Preorder {
    order: Vec<AsId>,
    /// Node → position; `usize::MAX` for nodes unreachable from `j`.
    tin: Vec<usize>,
    /// The last position of `order[p]`'s subtree.
    last: Vec<usize>,
    /// The parent's position (`0`, the root's own, for the root).
    parent: Vec<usize>,
    /// The hop count of `order[p]`'s route to `j`.
    depth: Vec<usize>,
    /// Position `p`'s links are `links[starts[p]..starts[p + 1]]`.
    starts: Vec<usize>,
    links: Vec<Link>,
    /// Scratch, by node: the smallest child, and the next larger sibling.
    first_child: Vec<Option<AsId>>,
    next_sibling: Vec<Option<AsId>>,
    stack: Vec<AsId>,
}

/// A link from position `p` to the neighbour at position `to`, with the
/// two values the avoidance pass reads off it.
#[derive(Debug, Clone, Copy)]
struct Link {
    to: usize,
    /// What `order[p]` charges the neighbour to carry its packet: the
    /// relaxation step `neighbour → order[p] → …`.
    relax: Cost,
    /// `(cost, hops)` of leaving through the neighbour onto its LCP:
    /// `order[p] → neighbour → … → j`.
    exit: (Cost, usize),
}

/// The `(cost, hops)` of an entry with no k-avoiding path: the graph is not
/// biconnected.
const UNREACHED: (Cost, usize) = (Cost::INFINITE, 0);

impl Preorder {
    fn number<C: CostModel + ?Sized>(&mut self, graph: &C, tree: &DestinationTree) {
        let j = tree.destination();
        let n = tree.node_count();
        // Child lists from the parent array: prepending in descending id
        // order leaves every list ascending.
        self.first_child.clear();
        self.first_child.resize(n, None);
        self.next_sibling.clear();
        self.next_sibling.resize(n, None);
        for v in (0..n as u32).rev().map(AsId::new) {
            if let Some(up) = tree.parent(v) {
                self.next_sibling[v.index()] = self.first_child[up.index()].replace(v);
            }
        }
        // Preorder: a popped node pushes its next sibling, then its first
        // child on top, so its whole subtree is numbered before the sibling.
        self.order.clear();
        self.tin.clear();
        self.tin.resize(n, usize::MAX);
        self.stack.push(j);
        while let Some(v) = self.stack.pop() {
            self.tin[v.index()] = self.order.len();
            self.order.push(v);
            self.stack.extend(self.next_sibling[v.index()]);
            self.stack.extend(self.first_child[v.index()]);
        }
        self.parent.clear();
        self.parent.extend(
            self.order
                .iter()
                .map(|&v| tree.parent(v).map_or(0, |up| self.tin[up.index()])),
        );
        self.depth.clear();
        self.depth
            .extend(self.order.iter().map(|&v| tree.hops(v).unwrap_or(0)));
        // Children follow their parent in preorder, so a reverse sweep
        // closes every subtree before its parent's.
        self.last.clear();
        self.last.extend(0..self.order.len());
        for p in (1..self.order.len()).rev() {
            let up = self.parent[p];
            self.last[up] = self.last[up].max(self.last[p]);
        }
        self.starts.clear();
        self.links.clear();
        for &u in &self.order {
            self.starts.push(self.links.len());
            for &a in graph.topology().neighbors(u) {
                let hops = tree
                    .hops(a)
                    .expect("neighbours of reachable nodes are reachable");
                let exit = if a == j {
                    (Cost::ZERO, 1)
                } else {
                    (graph.transit_cost(a, u) + tree.cost(a), hops + 1)
                };
                self.links.push(Link {
                    to: self.tin[a.index()],
                    relax: graph.transit_cost(u, a),
                    exit,
                });
            }
        }
        self.starts.push(self.links.len());
    }

    fn links(&self, p: usize) -> &[Link] {
        &self.links[self.starts[p]..self.starts[p + 1]]
    }
}

/// The Theorem-1 pass: every k-avoiding fact the mechanism needs, one
/// destination at a time, each handed to `visit(j, i, slot, entry)` as
/// soon as it is known.
///
/// `entry` is the lowest-cost k-avoiding path from `i` to `j` for the
/// transit node `k` at `slot` of `i`'s route — `k` is
/// `route.transit_nodes()[slot]`, and `slot = hops_j(i) − hops_j(k) − 1`.
/// Every such `(i, j, k)` is visited exactly once; a missing avoiding
/// path (the graph is not biconnected) has infinite cost and zero hops.
///
/// The pass relaxes **within the avoided node's subtree only** — the
/// centralized reading of the paper's Lemma 1 (Sect. 6.2's suffix
/// structure), and the node-avoiding cousin of Hershberger and Suri's
/// replacement paths. `i` needs a k-avoiding cost only if it lies in
/// `k`'s subtree `S_k` of `T(j)`. An optimal k-avoiding path leaves `S_k`
/// exactly once, and every node outside keeps its LCP: the path either
/// exits at once (first hop to a neighbour `a ∉ S_k ∪ {k}`, cost
/// `c_a + c(a, j)`), or moves to another subtree node `a` and continues
/// along *its* best k-avoiding path (cost `c_a + A(a)`). A Dijkstra over
/// `S_k` alone solves that recurrence, with the punctured Dijkstra's
/// ([`avoiding_tree`]) costs and hop counts exactly.
///
/// # Complexity
///
/// Per destination, one DFS numbering of `T(j)` and its links
/// (`O(n + m)`), after which `S_k` is a contiguous preorder range;
/// relaxation walks `S_k` only, `O(edges(S_k) log |S_k|)` per `(j, k)`.
/// The `O(n + m)` scratch is made once and reused for every destination.
///
/// # Example
///
/// ```
/// use bgpvcg_netgraph::generators::structured::{fig1, Fig1};
/// use bgpvcg_lcp::{avoiding, AllPairsLcp};
///
/// let (g, mut facts) = (fig1(), Vec::new());
/// avoiding::for_each_destination(&g, &AllPairsLcp::compute(&g), |j, i, slot, e| {
///     facts.push(((i, j, slot), e.cost.finite(), e.hops));
/// });
/// // Y D Z: avoiding D (slot 0) takes Y B X A Z, cost 9 over 4 hops.
/// assert!(facts.contains(&((Fig1::Y, Fig1::Z, 0), Some(9), 4)));
/// ```
pub fn for_each_destination<C, F>(graph: &C, lcp: &AllPairsLcp, visit: F)
where
    C: CostModel + ?Sized,
    F: FnMut(AsId, AsId, usize, AvoidingEntry),
{
    solve(graph, lcp, visit);
}

/// [`for_each_destination`], also returning each destination's work: the
/// nodes its pass numbered plus the nodes it settled — a count the clock
/// cannot blur.
fn solve<C, F>(graph: &C, lcp: &AllPairsLcp, mut visit: F) -> Vec<usize>
where
    C: CostModel + ?Sized,
    F: FnMut(AsId, AsId, usize, AvoidingEntry),
{
    let n = lcp.node_count();
    let mut work = vec![0; n];
    let mut dfs = Preorder::default();
    // Best-known (cost, hops) per preorder position; only `S_k`'s range
    // is ever written or read.
    let mut best = vec![UNREACHED; n];
    let mut heap = BinaryHeap::new();
    for tree in lcp.trees() {
        let j = tree.destination();
        dfs.number(graph, tree);
        work[j.index()] = n;
        for (at_k, &last) in dfs.last.iter().enumerate().skip(1) {
            let first = at_k + 1;
            let inside = |q: usize| first <= q && q <= last;
            // Seed: every subtree node's best exit onto an already k-free
            // LCP, heapified at once.
            let mut seeds = std::mem::take(&mut heap).into_vec();
            seeds.clear();
            for (p, exit) in best.iter_mut().enumerate().take(last + 1).skip(first) {
                *exit = dfs
                    .links(p)
                    .iter()
                    .filter(|link| link.to != at_k && !inside(link.to))
                    .map(|link| link.exit)
                    .min()
                    .unwrap_or(UNREACHED);
                if *exit != UNREACHED {
                    seeds.push(Reverse((*exit, p)));
                }
            }
            heap = BinaryHeap::from(seeds);
            // Relax within the subtree: v → u → (u's best k-avoiding
            // path), u turning transit. Nodes never reached stay
            // `UNREACHED`.
            while let Some(Reverse(((cost, hops), p))) = heap.pop() {
                if best[p] != (cost, hops) {
                    continue; // stale entry
                }
                work[j.index()] += 1;
                for link in dfs.links(p) {
                    let candidate = (cost + link.relax, hops + 1);
                    if inside(link.to) && candidate < best[link.to] {
                        best[link.to] = candidate;
                        heap.push(Reverse((candidate, link.to)));
                    }
                }
            }
            // Hand out S_k: k sits `depth − depth(k)` hops up each route.
            let k_depth = dfs.depth[at_k];
            for (p, &(cost, hops)) in best.iter().enumerate().take(last + 1).skip(first) {
                let slot = dfs.depth[p] - k_depth - 1;
                visit(j, dfs.order[p], slot, AvoidingEntry { cost, hops });
            }
        }
    }
    work
}

impl AvoidanceTable {
    /// The test oracle: one punctured Dijkstra ([`avoiding_tree`]) per
    /// `(j, k)` with `k` transit in `T(j)`, read off along each route. It
    /// has the standing of [`bellman::fixpoint`](crate::bellman::fixpoint)
    /// and [`enumerate::brute_force_avoiding`](crate::enumerate::brute_force_avoiding):
    /// slow (`O(n²)` full Dijkstras worst case) and obviously right, kept for
    /// tests to check [`for_each_destination`] against.
    ///
    /// For graphs that are not biconnected, entries whose avoiding path does
    /// not exist carry [`Cost::INFINITE`].
    pub fn compute<C: CostModel + ?Sized>(graph: &C, lcp: &AllPairsLcp) -> Self {
        let n = lcp.node_count();
        let mut table = AvoidanceTable {
            n,
            starts: vec![0],
            entries: Vec::new(),
        };
        for tree in lcp.trees() {
            let j = tree.destination();
            // One punctured tree per transit node of T(j), made on first use.
            let mut avoiding: Vec<Option<DestinationTree>> = vec![None; n];
            for i in graph.topology().nodes() {
                for k in tree.path(i).skip(1).filter(|&k| k != j) {
                    let avoid =
                        avoiding[k.index()].get_or_insert_with(|| avoiding_tree(graph, j, k));
                    table.entries.push(AvoidingEntry {
                        cost: avoid.cost(i),
                        hops: avoid.hops(i).unwrap_or(0),
                    });
                }
                table.starts.push(table.entries.len());
            }
        }
        table
    }

    /// [`for_each_destination`] collected into a table: the lists are laid
    /// out from the LCP hop counts, and each visited entry is written into
    /// its slot. Produces **exactly** the table of
    /// [`AvoidanceTable::compute`] (asserted by tests).
    pub fn compute_fast<C: CostModel + ?Sized>(graph: &C, lcp: &AllPairsLcp) -> Self {
        let n = lcp.node_count();
        let mut starts = Vec::with_capacity(n * n + 1);
        starts.push(0);
        for tree in lcp.trees() {
            for i in graph.topology().nodes() {
                let transit = tree.hops(i).map_or(0, |hops| hops.saturating_sub(1));
                starts.push(starts[starts.len() - 1] + transit);
            }
        }
        let unset = AvoidingEntry {
            cost: Cost::INFINITE,
            hops: 0,
        };
        let mut entries = vec![unset; starts[n * n]];
        for_each_destination(graph, lcp, |j, i, slot, entry| {
            entries[starts[j.index() * n + i.index()] + slot] = entry;
        });
        AvoidanceTable { n, starts, entries }
    }

    /// The avoiding-path facts for the pair `(i, j)`, one per transit node
    /// of the route, in LCP path order.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn entries(&self, i: AsId, j: AsId) -> &[AvoidingEntry] {
        let pair = j.index() * self.n + i.index();
        &self.entries[self.starts[pair]..self.starts[pair + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::shortest_tree;
    use bgpvcg_netgraph::generators::structured::{fig1, ring, Fig1};
    use bgpvcg_netgraph::generators::{
        barabasi_albert, erdos_renyi, from_edges, hierarchy, random_costs, HierarchyConfig,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fig1_d_avoiding_path_from_x() {
        let g = fig1();
        let t = avoiding_tree(&g, Fig1::Z, Fig1::D);
        let route = t.route(Fig1::X).unwrap();
        assert_eq!(route.nodes(), &[Fig1::X, Fig1::A, Fig1::Z]);
        assert_eq!(route.transit_cost(), Cost::new(5));
    }

    #[test]
    fn fig1_b_avoiding_path_from_x() {
        let g = fig1();
        let t = avoiding_tree(&g, Fig1::Z, Fig1::B);
        assert_eq!(t.cost(Fig1::X), Cost::new(5)); // X A Z again
    }

    #[test]
    fn fig1_d_avoiding_path_from_y_is_the_long_way() {
        // The paper's overcharging example: the best D-avoiding path from Y
        // to Z is Y B X A Z with cost 9.
        let g = fig1();
        let t = avoiding_tree(&g, Fig1::Z, Fig1::D);
        let route = t.route(Fig1::Y).unwrap();
        assert_eq!(
            route.nodes(),
            &[Fig1::Y, Fig1::B, Fig1::X, Fig1::A, Fig1::Z]
        );
        assert_eq!(route.transit_cost(), Cost::new(9));
    }

    #[test]
    fn avoided_node_is_unreachable_in_tree() {
        let g = fig1();
        let t = avoiding_tree(&g, Fig1::Z, Fig1::D);
        assert!(t.route(Fig1::D).is_none());
        assert_eq!(t.cost(Fig1::D), Cost::INFINITE);
    }

    #[test]
    fn avoiding_routes_never_contain_avoided_node() {
        let mut rng = StdRng::seed_from_u64(3);
        let costs = random_costs(20, 0, 8, &mut rng);
        let g = erdos_renyi(costs, 0.2, &mut rng);
        for j in g.nodes() {
            for k in g.nodes() {
                if k == j {
                    continue;
                }
                let t = avoiding_tree(&g, j, k);
                for i in g.nodes() {
                    if let Some(route) = t.route(i) {
                        assert!(!route.contains(k), "route {route} contains avoided {k}");
                    }
                }
            }
        }
    }

    #[test]
    fn avoiding_cost_at_least_lcp_cost() {
        let mut rng = StdRng::seed_from_u64(4);
        let costs = random_costs(18, 1, 9, &mut rng);
        let g = erdos_renyi(costs, 0.25, &mut rng);
        for j in g.nodes() {
            let plain = shortest_tree(&g, j);
            for k in g.nodes() {
                if k == j {
                    continue;
                }
                let avoid = avoiding_tree(&g, j, k);
                for i in g.nodes() {
                    if i == j || i == k {
                        continue;
                    }
                    assert!(
                        avoid.cost(i) >= plain.cost(i),
                        "restricting paths cannot reduce cost"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "avoid the destination")]
    fn rejects_avoiding_destination() {
        let g = fig1();
        let _ = avoiding_tree(&g, Fig1::Z, Fig1::Z);
    }

    #[test]
    fn non_biconnected_graph_yields_unreachable() {
        // Path 0-1-2: avoiding node 1 disconnects 0 from 2.
        let g = from_edges(vec![Cost::new(1); 3], &[(0, 1), (1, 2)]);
        let t = avoiding_tree(&g, AsId::new(2), AsId::new(1));
        assert!(t.route(AsId::new(0)).is_none());
    }

    #[test]
    fn table_matches_per_tree_computation_on_fig1() {
        let g = fig1();
        let lcp = AllPairsLcp::compute(&g);
        let table = AvoidanceTable::compute(&g, &lcp);
        // X -> Z has transit nodes B, D in that order; avoiding either
        // costs 5 (X A Z).
        let entries = table.entries(Fig1::X, Fig1::Z);
        assert_eq!(entries.len(), 2);
        assert_eq!(
            entries[0].cost,
            avoiding_tree(&g, Fig1::Z, Fig1::B).cost(Fig1::X)
        );
        assert_eq!(entries[0].cost, Cost::new(5));
        assert_eq!(
            entries[1].cost,
            avoiding_tree(&g, Fig1::Z, Fig1::D).cost(Fig1::X)
        );
        assert_eq!(entries[1].cost, Cost::new(5));
        // Y -> Z has one transit node D with avoiding cost 9 over 4 hops.
        assert_eq!(
            table.entries(Fig1::Y, Fig1::Z),
            [AvoidingEntry {
                cost: Cost::new(9),
                hops: 4
            }]
        );
        // A route without transit nodes has no entries.
        assert!(table.entries(Fig1::A, Fig1::Z).is_empty());
    }

    #[test]
    fn table_agrees_with_direct_avoiding_trees() {
        let mut rng = StdRng::seed_from_u64(9);
        let costs = random_costs(16, 0, 7, &mut rng);
        let g = erdos_renyi(costs, 0.3, &mut rng);
        let lcp = AllPairsLcp::compute(&g);
        let table = AvoidanceTable::compute(&g, &lcp);
        for j in g.nodes() {
            for i in g.nodes() {
                if i == j {
                    continue;
                }
                let route = lcp.route(i, j).unwrap();
                let entries = table.entries(i, j);
                assert_eq!(entries.len(), route.transit_nodes().len());
                for (slot, &k) in route.transit_nodes().iter().enumerate() {
                    let direct = avoiding_tree(&g, j, k);
                    assert_eq!(entries[slot].cost, direct.cost(i));
                    assert_eq!(entries[slot].hops, direct.hops(i).unwrap());
                }
            }
        }
    }

    #[test]
    fn compute_fast_equals_compute_on_fig1() {
        let g = fig1();
        let lcp = AllPairsLcp::compute(&g);
        assert_eq!(
            AvoidanceTable::compute_fast(&g, &lcp),
            AvoidanceTable::compute(&g, &lcp)
        );
    }

    #[test]
    fn compute_fast_equals_compute_without_biconnectivity() {
        // Path 0-1-2-3: every avoiding path is missing, so every entry is
        // infinite with zero hops, in both.
        let g = from_edges(vec![Cost::new(1); 4], &[(0, 1), (1, 2), (2, 3)]);
        let lcp = AllPairsLcp::compute(&g);
        let fast = AvoidanceTable::compute_fast(&g, &lcp);
        assert_eq!(fast, AvoidanceTable::compute(&g, &lcp));
        let entries = fast.entries(AsId::new(0), AsId::new(3));
        assert_eq!(entries.len(), 2);
        assert!(entries
            .iter()
            .all(|e| e.cost == Cost::INFINITE && e.hops == 0));
    }

    #[test]
    fn work_is_subtree_local() {
        // Per destination the pass numbers n nodes and settles only nodes
        // of the avoided node's subtree: at most Σ_k |S_k| + n, where
        // |S_k| counts the sources whose LCP has k as a transit node.
        let mut rng = StdRng::seed_from_u64(32);
        let ba = barabasi_albert(random_costs(60, 1, 10, &mut rng), 2, &mut rng);
        let hier = hierarchy(HierarchyConfig::default(), &mut rng);
        for g in [ring(40, Cost::new(2)), ba, hier] {
            let n = g.node_count();
            let lcp = AllPairsLcp::compute(&g);
            let work = solve(&g, &lcp, |_, _, _, _| {});
            for j in g.nodes() {
                let tree = lcp.tree(j);
                let subtrees: usize = g
                    .nodes()
                    .map(|i| tree.path(i).count().saturating_sub(2))
                    .sum();
                assert!(
                    work[j.index()] <= subtrees + n,
                    "n={n} dest {j}: work {} > Σ|S_k| {subtrees} + n",
                    work[j.index()]
                );
            }
        }
    }
}
