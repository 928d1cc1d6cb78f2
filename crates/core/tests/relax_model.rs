//! Differential model test for the price relaxation of [`Node`].
//!
//! The node's relaxation places each of its transit nodes on a neighbor's
//! path through an AS-indexed position table, walking every path once. The
//! relaxation it replaced searched each neighbor's path once per transit
//! node — quadratic in path length, and for exactly that reason easy to
//! believe. It lives on here, test-only, as the oracle, written against the
//! node's public Rib-In and selection: random inboxes and local events
//! drive a node of each priced cost model, and after every step every
//! transit price must equal the oracle's. The node also skips route
//! selection for destinations only price deltas touched, so after every
//! step its selection must equal a fresh `decide` of the same Rib-In.
//!
//! The inboxes carry the transiently inconsistent rows the protocol must
//! survive: a neighbor that is itself transit on our route (`k == a`),
//! price arrays shorter than their paths, bounds with a negative shift
//! (paths through this node), our transit nodes in another order on a
//! neighbor's path, price deltas against stale or missing bases, and
//! withdrawals, and paths that share their tail with this node's route —
//! through it, through its next hop, through a node further along —
//! interleaved with link events and restarts. A path that
//! ends anywhere but its destination — the only way one of our transit
//! nodes could be a neighbor's far endpoint — is malformed, and the
//! selector drops it before either relaxation sees it.

use bgpvcg_bgp::{
    LocalEvent, Node, PathEntry, PricePolicy, ProtocolNode, RouteAdvertisement, RouteInfo,
    RouteView, SharedPath, Update,
};
use bgpvcg_core::neighbor_costs::{Margins, NeighborCostGraph};
use bgpvcg_core::Fpss;
use bgpvcg_netgraph::generators::from_edges;
use bgpvcg_netgraph::{AsGraph, AsId, Cost};
use proptest::prelude::*;
use std::sync::Arc;

/// The position-scan relaxation, as it was before the position table: the
/// array for `dest` as a pure function of the node's Rib-In and selected
/// route.
fn relaxed<P: PricePolicy>(node: &Node<P>, dest: AsId) -> Vec<Cost> {
    let selector = node.selector();
    let transit: Vec<PathEntry> = match selector.selected(dest) {
        Some(route) if dest != selector.id() => route.path.transit().collect(),
        _ => Vec::new(),
    };
    let my_route_cost = selector.route_cost(dest);
    let mut arr = vec![Cost::INFINITE; transit.len()];
    for (a, info) in selector.rib_for(dest) {
        let RouteView {
            path: a_path,
            path_cost: a_route_cost,
            prices: a_prices,
        } = info;
        let Some(a_charges) = P::charged_by(selector, a, a_path) else {
            continue;
        };
        let Some(shift) = (a_charges + a_route_cost).checked_sub(my_route_cost) else {
            continue;
        };
        for (k_entry, cell) in transit.iter().zip(arr.iter_mut()) {
            let k = k_entry.node;
            if a == k {
                continue;
            }
            let bound = match a_path.iter().position(|e| e.node == k) {
                None => P::detour_base(k_entry) + shift,
                Some(at) if at + 1 < a_path.len() => match a_prices.get(at - 1) {
                    Some(&p) => p + shift,
                    None => continue,
                },
                Some(_) => continue,
            };
            if bound < *cell {
                *cell = bound;
            }
        }
    }
    arr
}

/// AS numbers the generated inboxes draw from: the node itself (0), three
/// initial neighbors, and strangers that may become neighbors.
const UNIVERSE: u32 = 8;
/// An AS number outside the graph.
const OUTSIDER: u32 = u32::MAX;
const ME: AsId = AsId::new(0);

/// The graph both nodes are built from: node 0 adjacent to 1, 3 and 5,
/// the rest a chain so every node exists.
fn graph() -> AsGraph {
    let costs = [2, 1, 3, 1, 2, 4, 1, 2].map(Cost::new).to_vec();
    from_edges(
        costs,
        &[
            (0, 1),
            (0, 3),
            (0, 5),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 6),
            (5, 6),
            (6, 7),
        ],
    )
}

/// How a generated reachable advertisement departs from a valid one.
#[derive(Debug, Clone, Copy)]
enum Flaw {
    None,
    /// The path ends at the given node instead of the destination.
    WrongLast(u32),
    RepeatedNode,
}

#[derive(Debug, Clone)]
enum AdSpec {
    /// `from, middle.., dest` with per-node costs and a price array, which
    /// is cut to the path's transit length and may be shorter.
    Reach {
        dest: u32,
        middle: Vec<u32>,
        costs: Vec<u64>,
        path_cost: u64,
        prices: Vec<u64>,
        flaw: Flaw,
    },
    /// A price patch; `fresh` picks the retained path's hash, otherwise a
    /// stale one.
    Delta {
        dest: u32,
        entries: Vec<(u16, u64)>,
        fresh: bool,
    },
    Withdraw {
        dest: u32,
    },
    /// The sender in front of a suffix of this node's own route to `dest`,
    /// sharing its nodes as routes to one destination do: `depth` 0 is the
    /// whole route (the sender routes through this node), 1 the next hop's
    /// path, 2 and on a sibling through a node further along.
    Shared {
        dest: u32,
        depth: usize,
        cost: u64,
        path_cost: u64,
        prices: Vec<u64>,
    },
}

/// One UPDATE of an inbox.
#[derive(Debug, Clone)]
struct UpdateSpec {
    from: u32,
    ads: Vec<AdSpec>,
    sender_costs: Vec<(u32, u64)>,
}

#[derive(Debug, Clone)]
enum Op {
    Handle(Vec<UpdateSpec>),
    LinkDown(u32),
    LinkUp(u32),
    CostChange(u64),
    Reset,
}

/// Mostly ids in the universe, now and then one far outside it.
fn id() -> impl Strategy<Value = u32> {
    prop_oneof![24 => 0..UNIVERSE, 1 => Just(OUTSIDER)]
}

fn flaw() -> impl Strategy<Value = Flaw> {
    prop_oneof![
        14 => Just(Flaw::None),
        1 => (0..UNIVERSE).prop_map(Flaw::WrongLast),
        1 => Just(Flaw::RepeatedNode),
    ]
}

fn ad_spec() -> impl Strategy<Value = AdSpec> {
    let reach = (
        id(),
        proptest::collection::vec(id(), 0..5),
        proptest::collection::vec(0u64..6, 6..7),
        0u64..12,
        proptest::collection::vec(0u64..20, 0..5),
        flaw(),
    )
        .prop_map(
            |(dest, middle, costs, path_cost, prices, flaw)| AdSpec::Reach {
                dest,
                middle,
                costs,
                path_cost,
                prices,
                flaw,
            },
        );
    let delta = (
        id(),
        proptest::collection::vec((0u16..4, 0u64..20), 1..3),
        prop_oneof![4 => Just(true), 1 => Just(false)],
    )
        .prop_map(|(dest, entries, fresh)| AdSpec::Delta {
            dest,
            entries,
            fresh,
        });
    let withdraw = id().prop_map(|dest| AdSpec::Withdraw { dest });
    let shared = (
        id(),
        0usize..4,
        0u64..6,
        0u64..12,
        proptest::collection::vec(0u64..20, 0..5),
    )
        .prop_map(|(dest, depth, cost, path_cost, prices)| AdSpec::Shared {
            dest,
            depth,
            cost,
            path_cost,
            prices,
        });
    prop_oneof![6 => reach, 4 => delta, 1 => withdraw, 3 => shared]
}

fn update_spec() -> impl Strategy<Value = UpdateSpec> {
    let sender_costs = prop_oneof![
        2 => Just(Vec::new()),
        2 => (0u64..6).prop_map(|c| vec![(0, c)]),
        1 => proptest::collection::vec((0..UNIVERSE, 0u64..6), 1..4),
    ];
    (
        1..UNIVERSE,
        proptest::collection::vec(ad_spec(), 1..6),
        sender_costs,
    )
        .prop_map(|(from, ads, sender_costs)| UpdateSpec {
            from,
            ads,
            sender_costs,
        })
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        16 => proptest::collection::vec(update_spec(), 1..4).prop_map(Op::Handle),
        2 => (1..UNIVERSE).prop_map(Op::LinkDown),
        2 => (1..UNIVERSE).prop_map(Op::LinkUp),
        1 => (0u64..6).prop_map(Op::CostChange),
        1 => Just(Op::Reset),
    ]
}

/// Turns an [`AdSpec`] into a wire advertisement from `from`, reading the
/// node's Rib-In for the path hash a fresh delta must carry.
fn advertisement<P: PricePolicy>(spec: &AdSpec, from: AsId, node: &Node<P>) -> RouteAdvertisement {
    let (destination, info) = match spec {
        AdSpec::Withdraw { dest } => (AsId::new(*dest), RouteInfo::Withdrawn),
        AdSpec::Shared {
            dest,
            depth,
            cost,
            path_cost,
            prices,
        } => {
            let dest = AsId::new(*dest);
            let route = node.selector().selected(dest);
            let tail = route.and_then(|route| route.path.suffixes().nth(*depth));
            let info = match tail {
                Some(tail) => {
                    let head = PathEntry {
                        node: from,
                        cost: Cost::new(*cost),
                    };
                    let path = SharedPath::cons(head, Some(tail.clone()));
                    let mut prices: Vec<Cost> = prices.iter().map(|&p| Cost::new(p)).collect();
                    prices.truncate(path.len().saturating_sub(2));
                    RouteInfo::Reachable {
                        path,
                        path_cost: Cost::new(*path_cost),
                        prices,
                    }
                }
                None => RouteInfo::Withdrawn,
            };
            (dest, info)
        }
        AdSpec::Delta {
            dest,
            entries,
            fresh,
        } => {
            let dest = AsId::new(*dest);
            let hash = match node.selector().rib(from, dest) {
                Some(view) if *fresh => view.path.hash64(),
                _ => 0xdead_beef,
            };
            let entries = entries
                .iter()
                .map(|&(idx, value)| (idx, Cost::new(value)))
                .collect();
            (
                dest,
                RouteInfo::PriceDelta {
                    base_path_hash: hash,
                    entries,
                },
            )
        }
        AdSpec::Reach {
            dest,
            middle,
            costs,
            path_cost,
            prices,
            flaw,
        } => {
            let dest = AsId::new(*dest);
            let mut nodes = vec![from];
            for &m in middle {
                let m = AsId::new(m);
                if m != dest && !nodes.contains(&m) {
                    nodes.push(m);
                }
            }
            if dest != from {
                nodes.push(dest);
            }
            let mut prices: Vec<Cost> = prices.iter().map(|&p| Cost::new(p)).collect();
            prices.truncate(nodes.len().saturating_sub(2));
            match *flaw {
                Flaw::None => {}
                Flaw::WrongLast(last) => {
                    nodes.retain(|&node| node.raw() != last);
                    nodes.push(AsId::new(last));
                }
                Flaw::RepeatedNode => nodes.push(from),
            }
            // A destination is never transit: its entry carries no cost.
            let last = nodes.len().saturating_sub(1);
            let path: SharedPath = nodes
                .iter()
                .zip(costs.iter().cycle())
                .enumerate()
                .map(|(at, (&node, &cost))| PathEntry {
                    node,
                    cost: Cost::new(if at == last { 0 } else { cost }),
                })
                .collect();
            (
                dest,
                RouteInfo::Reachable {
                    path,
                    path_cost: Cost::new(*path_cost),
                    prices,
                },
            )
        }
    };
    RouteAdvertisement { destination, info }
}

/// Every destination an observer might ask about.
fn probes() -> impl Iterator<Item = AsId> {
    (0..=UNIVERSE).chain([OUTSIDER]).map(AsId::new)
}

/// Asserts that `node`'s selection is what a fresh decision process would
/// select from its Rib-In, and that every price equals the oracle's.
fn assert_consistent<P: PricePolicy>(node: &Node<P>) -> Result<(), TestCaseError> {
    let mut fresh = node.selector().clone();
    prop_assert_eq!(fresh.decide_all(), Vec::<AsId>::new(), "stale selection");
    for dest in probes() {
        let expected = relaxed(node, dest);
        let transit: Vec<PathEntry> = match node.selector().selected(dest) {
            Some(route) if dest != ME => route.path.transit().collect(),
            _ => Vec::new(),
        };
        for (k_entry, &stored) in transit.iter().zip(&expected) {
            prop_assert_eq!(
                node.price(dest, k_entry.node),
                Some(P::price(k_entry, stored)),
                "price of {} for {}",
                k_entry.node,
                dest
            );
        }
        prop_assert_eq!(node.price(dest, ME), None, "this node is never transit");
    }
    Ok(())
}

/// Drives one node of model `P` through `ops`, checking it after each.
fn drive<P: PricePolicy>(graph: &P::Graph, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut node = Node::<P>::new(graph, ME);
    node.start();
    for op in ops {
        match op {
            Op::Handle(inbox) => {
                let updates: Vec<Arc<Update>> = inbox
                    .iter()
                    .map(|spec| {
                        let from = AsId::new(spec.from);
                        let ads = spec
                            .ads
                            .iter()
                            .map(|ad| advertisement(ad, from, &node))
                            .collect();
                        let sender_costs = spec
                            .sender_costs
                            .iter()
                            .map(|&(u, c)| (AsId::new(u), Cost::new(c)))
                            .collect();
                        Arc::new(Update {
                            from,
                            sender_costs,
                            advertisements: ads,
                            id: 0,
                        })
                    })
                    .collect();
                node.handle(&updates);
            }
            Op::LinkDown(a) => {
                node.apply_event(LocalEvent::LinkDown(AsId::new(*a)));
            }
            Op::LinkUp(a) => {
                node.apply_event(LocalEvent::LinkUp(AsId::new(*a)));
            }
            Op::CostChange(c) => {
                node.apply_event(LocalEvent::CostChange(Cost::new(*c)));
            }
            Op::Reset => node.reset(),
        }
        assert_consistent(&node).map_err(|e| TestCaseError::fail(format!("{op:?}: {e:?}")))?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Both priced models agree with the position-scan oracle, and keep a
    /// fresh selection, after every inbox and local event.
    fn relaxation_matches_position_scan_oracle(ops in proptest::collection::vec(op(), 1..40)) {
        let graph = graph();
        drive::<Fpss>(&graph, &ops)?;
        drive::<Margins>(&NeighborCostGraph::uniform(&graph), &ops)?;
    }
}

#[test]
fn transit_nodes_in_reverse_order_on_a_detour() {
    // Node 0 reaches 2 as 0 1 7 2; neighbor 3 advertises 3 7 1 2, our
    // transit reversed. Each of 1 and 7 takes its case-(iii) bound from
    // 3's array at its own position.
    let graph = graph();
    let mut node = Node::<Fpss>::new(&graph, ME);
    // Every transit node declares 1; the destination's entry carries none.
    let path = |nodes: &[u32]| -> SharedPath {
        nodes
            .iter()
            .map(|&n| PathEntry {
                node: AsId::new(n),
                cost: Cost::new(u64::from(n != 2)),
            })
            .collect()
    };
    let reach = |from: u32, nodes: &[u32], path_cost: u64, prices: &[u64]| {
        Arc::new(
            Update::if_nonempty(
                AsId::new(from),
                vec![RouteAdvertisement {
                    destination: AsId::new(2),
                    info: RouteInfo::Reachable {
                        path: path(nodes),
                        path_cost: Cost::new(path_cost),
                        prices: prices.iter().map(|&p| Cost::new(p)).collect(),
                    },
                }],
            )
            .unwrap(),
        )
    };
    node.handle(&[
        reach(1, &[1, 7, 2], 1, &[9]),
        reach(3, &[3, 7, 1, 2], 2, &[4, 6]),
    ]);
    // Our route 0 1 7 2 costs 2; 3's shift is c_3 + 2 − 2 = 1.
    assert_eq!(node.selector().route_cost(AsId::new(2)), Cost::new(2));
    assert_eq!(node.price(AsId::new(2), AsId::new(7)), Some(Cost::new(5)));
    assert_eq!(node.price(AsId::new(2), AsId::new(1)), Some(Cost::new(7)));
    assert_eq!(relaxed(&node, AsId::new(2)), [Cost::new(7), Cost::new(5)]);
}
