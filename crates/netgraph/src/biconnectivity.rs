//! Connectivity and biconnectivity testing (Hopcroft–Tarjan).
//!
//! The mechanism requires the AS graph to be biconnected (paper, Sect. 3):
//! otherwise some transit node is a monopoly and the lowest-cost k-avoiding
//! path — hence the VCG price — is undefined. This module provides an
//! iterative articulation-point algorithm (no recursion, so deep graphs
//! cannot overflow the stack).

use crate::graph::AsGraph;
use crate::id::AsId;

/// Returns `true` if the graph is connected. The empty graph and the
/// single-node graph are considered connected.
pub(crate) fn is_connected(graph: &AsGraph) -> bool {
    let n = graph.node_count();
    if n <= 1 {
        return true;
    }
    let mut seen = vec![false; n];
    let mut stack = vec![AsId::new(0)];
    seen[0] = true;
    let mut count = 1;
    while let Some(u) = stack.pop() {
        for &v in graph.neighbors(u) {
            if !seen[v.index()] {
                seen[v.index()] = true;
                count += 1;
                stack.push(v);
            }
        }
    }
    count == n
}

/// Returns the articulation points (cut vertices) of the graph, in ascending
/// order. Nodes in different connected components never appear (a
/// disconnected graph is reported through [`is_connected`], not here).
pub(crate) fn articulation_points(graph: &AsGraph) -> Vec<AsId> {
    let n = graph.node_count();
    let mut disc = vec![usize::MAX; n]; // discovery time; MAX = unvisited
    let mut low = vec![usize::MAX; n];
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut is_cut = vec![false; n];
    let mut timer = 0usize;

    // Iterative DFS: each frame is (node, index into its adjacency list).
    for root in 0..n {
        // lint:allow(bounds: the DFS tables are sized n and every index is a node id of this graph, below n)
        if disc[root] != usize::MAX {
            continue;
        }
        let mut root_children = 0usize;
        let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
        // lint:allow(bounds: the DFS tables are sized n and every index is a node id of this graph, below n)
        disc[root] = timer;
        // lint:allow(bounds: the DFS tables are sized n and every index is a node id of this graph, below n)
        low[root] = timer;
        timer += 1;
        while let Some(&mut (u, ref mut next)) = stack.last_mut() {
            let neighbors = graph.neighbors(AsId::new(u as u32));
            if *next < neighbors.len() {
                // lint:allow(bounds: `*next < neighbors.len()` was checked on the line above)
                let v = neighbors[*next].index();
                *next += 1;
                // lint:allow(bounds: the DFS tables are sized n and every index is a node id of this graph, below n)
                if disc[v] == usize::MAX {
                    // lint:allow(bounds: the DFS tables are sized n and every index is a node id of this graph, below n)
                    parent[v] = Some(u);
                    if u == root {
                        root_children += 1;
                    }
                    // lint:allow(bounds: the DFS tables are sized n and every index is a node id of this graph, below n)
                    disc[v] = timer;
                    // lint:allow(bounds: the DFS tables are sized n and every index is a node id of this graph, below n)
                    low[v] = timer;
                    timer += 1;
                    stack.push((v, 0));
                // lint:allow(bounds: the DFS tables are sized n and every index is a node id of this graph, below n)
                } else if parent[u] != Some(v) {
                    // Back edge (or forward edge in undirected DFS): update low.
                    // lint:allow(bounds: the DFS tables are sized n and every index is a node id of this graph, below n)
                    low[u] = low[u].min(disc[v]);
                }
            } else {
                stack.pop();
                // lint:allow(bounds: the DFS tables are sized n and every index is a node id of this graph, below n)
                if let Some(p) = parent[u] {
                    // lint:allow(bounds: the DFS tables are sized n and every index is a node id of this graph, below n)
                    low[p] = low[p].min(low[u]);
                    // lint:allow(bounds: the DFS tables are sized n and every index is a node id of this graph, below n)
                    if p != root && low[u] >= disc[p] {
                        // lint:allow(bounds: the DFS tables are sized n and every index is a node id of this graph, below n)
                        is_cut[p] = true;
                    }
                }
            }
        }
        if root_children >= 2 {
            // lint:allow(bounds: the DFS tables are sized n and every index is a node id of this graph, below n)
            is_cut[root] = true;
        }
    }

    (0..n)
        // lint:allow(bounds: the DFS tables are sized n and every index is a node id of this graph, below n)
        .filter(|&k| is_cut[k])
        .map(|k| AsId::new(k as u32))
        .collect()
}

/// Returns `true` if the graph is biconnected: at least three nodes,
/// connected, and free of articulation points.
pub(crate) fn is_biconnected(graph: &AsGraph) -> bool {
    graph.node_count() >= 3 && is_connected(graph) && articulation_points(graph).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Cost;
    use crate::graph::AsGraphBuilder;

    fn graph_from_edges(n: usize, edges: &[(u32, u32)]) -> AsGraph {
        let mut b = AsGraphBuilder::new();
        b.add_nodes(vec![Cost::ZERO; n]);
        for &(a, bb) in edges {
            b.add_link(AsId::new(a), AsId::new(bb)).unwrap();
        }
        b.build()
    }

    #[test]
    fn empty_and_singleton_are_connected() {
        assert!(graph_from_edges(0, &[]).is_connected());
        assert!(graph_from_edges(1, &[]).is_connected());
    }

    #[test]
    fn two_isolated_nodes_are_disconnected() {
        assert!(!graph_from_edges(2, &[]).is_connected());
    }

    #[test]
    fn path_is_connected_but_not_biconnected() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert!(g.is_connected());
        assert!(!g.is_biconnected());
        assert_eq!(g.articulation_points(), vec![AsId::new(1), AsId::new(2)]);
    }

    #[test]
    fn cycle_is_biconnected() {
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        assert!(g.is_biconnected());
        assert!(g.articulation_points().is_empty());
    }

    #[test]
    fn triangle_is_biconnected_but_edge_is_not() {
        assert!(graph_from_edges(3, &[(0, 1), (1, 2), (2, 0)]).is_biconnected());
        // Two nodes joined by an edge: too small to be biconnected here.
        assert!(!graph_from_edges(2, &[(0, 1)]).is_biconnected());
    }

    #[test]
    fn bowtie_has_central_articulation_point() {
        // Two triangles sharing node 2.
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]);
        assert!(g.is_connected());
        assert!(!g.is_biconnected());
        assert_eq!(g.articulation_points(), vec![AsId::new(2)]);
    }

    #[test]
    fn bridge_endpoints_are_articulation_points() {
        // Two triangles joined by the bridge 2-3.
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]);
        assert!(!g.is_biconnected());
        assert_eq!(g.articulation_points(), vec![AsId::new(2), AsId::new(3)]);
    }

    #[test]
    fn complete_graph_is_biconnected() {
        let mut edges = Vec::new();
        for a in 0..6u32 {
            for b in (a + 1)..6 {
                edges.push((a, b));
            }
        }
        assert!(graph_from_edges(6, &edges).is_biconnected());
    }

    #[test]
    fn paper_fig1_graph_is_biconnected() {
        // X=0, A=1, Z=2, D=3, B=4, Y=5 with the links drawn in Fig. 1.
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (0, 4), (4, 3), (3, 2), (3, 5), (4, 5)]);
        // Fig. 1 as drawn: X-A, A-Z, X-B, B-D, D-Z, D-Y, B-Y.
        assert!(g.is_biconnected());
    }

    #[test]
    fn star_center_is_articulation_point() {
        let g = graph_from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert_eq!(g.articulation_points(), vec![AsId::new(0)]);
    }

    #[test]
    fn disconnected_graph_articulation_points_per_component() {
        // Component 1: path 0-1-2 (1 is a cut vertex). Component 2: triangle.
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)]);
        assert!(!g.is_connected());
        assert_eq!(g.articulation_points(), vec![AsId::new(1)]);
    }

    #[test]
    fn deep_path_does_not_overflow_stack() {
        // 50k-node path exercises the iterative DFS.
        let n = 50_000;
        let edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let g = graph_from_edges(n as usize, &edges);
        assert!(g.is_connected());
        assert_eq!(g.articulation_points().len(), n as usize - 2);
    }
}
