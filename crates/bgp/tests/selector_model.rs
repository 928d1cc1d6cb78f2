//! Differential model test for [`RouteSelector`].
//!
//! The production selector keeps its Rib-In and table in dense,
//! destination-major vectors. The selector it replaced kept them in ordered
//! maps keyed by AS number — slower, and for exactly that reason easy to
//! believe. It lives on here, test-only, as the oracle: random operation
//! sequences are applied to both and every observable answer must agree
//! after every step.

use bgpvcg_bgp::{
    PathEntry, RouteAdvertisement, RouteInfo, RouteSelector, SelectedRoute, SharedPath, Update,
};
use bgpvcg_netgraph::{AsId, Cost};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// The map-of-maps selector, as it was before the dense layout.
#[derive(Debug, Clone)]
struct MapSelector {
    id: AsId,
    declared_cost: Cost,
    rib_in: BTreeMap<AsId, BTreeMap<AsId, RouteInfo>>,
    neighbor_vectors: BTreeMap<AsId, BTreeMap<AsId, Cost>>,
    table: BTreeMap<AsId, SelectedRoute>,
}

fn well_formed(from: AsId, destination: AsId, info: &RouteInfo) -> bool {
    let RouteInfo::Reachable { path, prices, .. } = info else {
        return true;
    };
    let (Some(first), Some(last)) = (path.first(), path.last()) else {
        return false;
    };
    if first.node != from || last.node != destination {
        return false;
    }
    let mut seen = BTreeSet::new();
    if !path.iter().all(|e| seen.insert(e.node)) {
        return false;
    }
    prices.len() <= path.len().saturating_sub(2)
}

fn candidate_cmp(
    a_path: &[PathEntry],
    a_cost: Cost,
    b_path: &[PathEntry],
    b_cost: Cost,
) -> std::cmp::Ordering {
    a_cost
        .cmp(&b_cost)
        .then_with(|| a_path.len().cmp(&b_path.len()))
        .then_with(|| {
            a_path
                .iter()
                .map(|e| e.node)
                .cmp(b_path.iter().map(|e| e.node))
        })
}

impl MapSelector {
    fn new(id: AsId, declared_cost: Cost, neighbors: &[AsId]) -> Self {
        let trivial = SelectedRoute {
            path: vec![PathEntry {
                node: id,
                cost: Cost::ZERO,
            }]
            .into(),
            cost: Cost::ZERO,
        };
        MapSelector {
            id,
            declared_cost,
            rib_in: neighbors.iter().map(|&a| (a, BTreeMap::new())).collect(),
            neighbor_vectors: BTreeMap::new(),
            table: BTreeMap::from([(id, trivial)]),
        }
    }

    fn set_declared_cost(&mut self, cost: Cost) -> BTreeSet<AsId> {
        if cost == self.declared_cost {
            return BTreeSet::new();
        }
        self.declared_cost = cost;
        // The trivial route's only entry is the destination's, which
        // carries no cost and never changes.
        let id = self.id;
        let mut changed = BTreeSet::new();
        for (&dest, route) in self.table.iter_mut().filter(|(&dest, _)| dest != id) {
            let mut entries = route.path.to_vec();
            entries[0].cost = cost;
            route.path = entries.into();
            changed.insert(dest);
        }
        changed
    }

    fn rib_destinations(&self, a: AsId) -> BTreeSet<AsId> {
        self.rib_in
            .get(&a)
            .map(|routes| routes.keys().copied().collect())
            .unwrap_or_default()
    }

    fn rib_for(&self, dest: AsId) -> Vec<(AsId, RouteInfo)> {
        self.rib_in
            .iter()
            .filter_map(|(&a, routes)| routes.get(&dest).map(|info| (a, info.clone())))
            .collect()
    }

    fn ingest(&mut self, update: &Update) -> BTreeSet<AsId> {
        let mut affected = BTreeSet::new();
        if !self.rib_in.contains_key(&update.from) {
            return affected;
        }
        if !update.sender_costs.is_empty() {
            let vector: BTreeMap<AsId, Cost> = update.sender_costs.iter().copied().collect();
            let previous = self.neighbor_vectors.insert(update.from, vector);
            if previous.as_ref() != self.neighbor_vectors.get(&update.from) {
                affected.extend(self.rib_in[&update.from].keys().copied());
            }
        }
        let from = update.from;
        let routes = self.rib_in.get_mut(&from).unwrap();
        for ad in &update.advertisements {
            match &ad.info {
                RouteInfo::Withdrawn => {
                    if routes.remove(&ad.destination).is_some() {
                        affected.insert(ad.destination);
                    }
                }
                RouteInfo::PriceDelta {
                    base_path_hash,
                    entries,
                } => {
                    let Some(RouteInfo::Reachable { path, prices, .. }) =
                        routes.get_mut(&ad.destination)
                    else {
                        continue;
                    };
                    if path.hash64() != *base_path_hash
                        || entries
                            .iter()
                            .any(|&(idx, _)| usize::from(idx) >= prices.len())
                    {
                        continue;
                    }
                    let mut touched = false;
                    for &(idx, value) in entries {
                        let cell = &mut prices[usize::from(idx)];
                        if *cell != value {
                            *cell = value;
                            touched = true;
                        }
                    }
                    if touched {
                        affected.insert(ad.destination);
                    }
                }
                reachable => {
                    if !well_formed(from, ad.destination, reachable) {
                        continue;
                    }
                    let prev = routes.insert(ad.destination, reachable.clone());
                    if prev.as_ref() != Some(reachable) {
                        affected.insert(ad.destination);
                    }
                }
            }
        }
        affected
    }

    fn decide(&mut self, dest: AsId) -> bool {
        if dest == self.id {
            return false;
        }
        let mut best: Option<(Vec<PathEntry>, Cost)> = None;
        for (a, routes) in &self.rib_in {
            let Some(info) = routes.get(&dest) else {
                continue;
            };
            let RouteInfo::Reachable {
                path, path_cost, ..
            } = info
            else {
                continue;
            };
            if info.contains(self.id) {
                continue;
            }
            let vector_cost = self
                .neighbor_vectors
                .get(a)
                .and_then(|v| v.get(&self.id))
                .copied();
            let added = if *a == dest {
                Cost::ZERO
            } else {
                vector_cost.unwrap_or(path[0].cost)
            };
            let mut full_path = Vec::with_capacity(path.len() + 1);
            full_path.push(PathEntry {
                node: self.id,
                cost: self.declared_cost,
            });
            full_path.extend_from_slice(path);
            if vector_cost.is_some() {
                full_path[1].cost = added;
            }
            let candidate_cost = *path_cost + added;
            let better = match &best {
                None => true,
                Some((best_path, best_cost)) => {
                    candidate_cmp(&full_path, candidate_cost, best_path, *best_cost)
                        == std::cmp::Ordering::Less
                }
            };
            if better {
                best = Some((full_path, candidate_cost));
            }
        }
        let changed = match (&best, self.table.get(&dest)) {
            (Some((path, cost)), Some(old)) => *cost != old.cost || path[..] != old.path[..],
            (None, None) => false,
            _ => true,
        };
        if changed {
            match best {
                Some((path, cost)) => {
                    let path = path.into();
                    self.table.insert(dest, SelectedRoute { path, cost });
                }
                None => {
                    self.table.remove(&dest);
                }
            }
        }
        changed
    }

    fn decide_all(&mut self) -> BTreeSet<AsId> {
        let mut dests: BTreeSet<AsId> = self.table.keys().copied().collect();
        for routes in self.rib_in.values() {
            dests.extend(routes.keys().copied());
        }
        dests
            .into_iter()
            .filter(|&dest| self.decide(dest))
            .collect()
    }

    fn link_up(&mut self, a: AsId) {
        self.rib_in.entry(a).or_default();
    }

    fn reset(&mut self) {
        for routes in self.rib_in.values_mut() {
            routes.clear();
        }
        self.neighbor_vectors.clear();
        self.table.retain(|dest, _| *dest == self.id);
    }

    fn link_down(&mut self, a: AsId) -> BTreeSet<AsId> {
        let Some(dropped) = self.rib_in.remove(&a) else {
            return BTreeSet::new();
        };
        self.neighbor_vectors.remove(&a);
        dropped
            .into_keys()
            .filter(|&dest| self.decide(dest))
            .collect()
    }
}

/// AS numbers the generated operations draw from: the node itself (0),
/// three initial neighbors, and strangers that may become neighbors.
const UNIVERSE: u32 = 8;
/// An AS number outside a selector sized for [`UNIVERSE`] nodes.
const OUTSIDER: u32 = 40;
const ME: AsId = AsId::new(0);
const INITIAL_NEIGHBORS: [AsId; 3] = [AsId::new(1), AsId::new(3), AsId::new(5)];

/// How a generated reachable advertisement departs from a valid one.
#[derive(Debug, Clone, Copy)]
enum Flaw {
    None,
    RepeatedNode,
    WrongFirst,
    WrongLast,
    TooManyPrices,
    EmptyPath,
}

#[derive(Debug, Clone)]
enum AdSpec {
    /// `from, middle.., dest` with per-node costs and a price array.
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
        idx: u16,
        value: u64,
        fresh: bool,
    },
    Withdraw {
        dest: u32,
    },
}

#[derive(Debug, Clone)]
enum Op {
    Ingest {
        from: u32,
        ads: Vec<AdSpec>,
        sender_costs: Vec<(u32, u64)>,
    },
    LinkUp(u32),
    LinkDown(u32),
    Reset,
    SetDeclaredCost(u64),
    Decide(u32),
    DecideAll,
}

/// Mostly ids in the universe, now and then one far outside it.
fn id() -> impl Strategy<Value = u32> {
    prop_oneof![15 => 0..UNIVERSE, 1 => Just(OUTSIDER)]
}

fn flaw() -> impl Strategy<Value = Flaw> {
    prop_oneof![
        12 => Just(Flaw::None),
        1 => Just(Flaw::RepeatedNode),
        1 => Just(Flaw::WrongFirst),
        1 => Just(Flaw::WrongLast),
        1 => Just(Flaw::TooManyPrices),
        1 => Just(Flaw::EmptyPath),
    ]
}

fn ad_spec() -> impl Strategy<Value = AdSpec> {
    let reach = (
        id(),
        proptest::collection::vec(id(), 0..4),
        proptest::collection::vec(0u64..6, 6..7),
        0u64..12,
        proptest::collection::vec(0u64..20, 0..4),
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
    let delta = (id(), 0u16..4, 0u64..20, any::<bool>()).prop_map(|(dest, idx, value, fresh)| {
        AdSpec::Delta {
            dest,
            idx,
            value,
            fresh,
        }
    });
    let withdraw = id().prop_map(|dest| AdSpec::Withdraw { dest });
    prop_oneof![6 => reach, 3 => delta, 1 => withdraw]
}

fn op() -> impl Strategy<Value = Op> {
    let ingest = (
        id(),
        proptest::collection::vec(ad_spec(), 0..5),
        prop_oneof![
            3 => Just(Vec::new()),
            1 => proptest::collection::vec((0..UNIVERSE, 0u64..6), 1..4),
        ],
    )
        .prop_map(|(from, ads, sender_costs)| Op::Ingest {
            from,
            ads,
            sender_costs,
        });
    prop_oneof![
        16 => ingest,
        2 => id().prop_map(Op::LinkUp),
        2 => id().prop_map(Op::LinkDown),
        1 => Just(Op::Reset),
        1 => (0u64..6).prop_map(Op::SetDeclaredCost),
        4 => id().prop_map(Op::Decide),
        2 => Just(Op::DecideAll),
    ]
}

/// Turns an [`AdSpec`] into a wire advertisement, reading the oracle for
/// the path hash a fresh delta must carry.
fn advertisement(spec: &AdSpec, from: AsId, oracle: &MapSelector) -> RouteAdvertisement {
    let (destination, info) = match spec {
        AdSpec::Withdraw { dest } => (AsId::new(*dest), RouteInfo::Withdrawn),
        AdSpec::Delta {
            dest,
            idx,
            value,
            fresh,
        } => {
            let dest = AsId::new(*dest);
            let retained = oracle.rib_in.get(&from).and_then(|r| r.get(&dest));
            let hash = match retained {
                Some(RouteInfo::Reachable { path, .. }) if *fresh => path.hash64(),
                _ => 0xdead_beef,
            };
            let entries = vec![(*idx, Cost::new(*value))];
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
            match flaw {
                Flaw::None => {}
                Flaw::RepeatedNode => nodes.insert(1, from),
                Flaw::WrongFirst => nodes[0] = AsId::new(from.raw() + 1),
                Flaw::WrongLast => nodes.push(AsId::new(dest.raw() + 1)),
                Flaw::TooManyPrices => prices.resize(nodes.len(), Cost::new(1)),
                Flaw::EmptyPath => nodes.clear(),
            }
            let path: SharedPath = nodes
                .iter()
                .zip(costs.iter().cycle())
                .map(|(&node, &cost)| PathEntry {
                    node,
                    cost: Cost::new(cost),
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

/// Every id an observer might ask about.
fn probes() -> impl Iterator<Item = AsId> {
    (0..=UNIVERSE + 1)
        .chain([OUTSIDER, OUTSIDER + 1])
        .map(AsId::new)
}

/// Asserts that every public answer of `dense` equals the oracle's.
fn assert_same_state(dense: &RouteSelector, oracle: &MapSelector) -> Result<(), TestCaseError> {
    prop_assert_eq!(dense.declared_cost(), oracle.declared_cost);
    prop_assert_eq!(
        dense.neighbors().collect::<Vec<_>>(),
        oracle.rib_in.keys().copied().collect::<Vec<_>>()
    );
    prop_assert_eq!(
        dense.destinations().collect::<Vec<_>>(),
        oracle.table.keys().copied().collect::<Vec<_>>()
    );
    for x in probes() {
        prop_assert_eq!(dense.selected(x), oracle.table.get(&x), "selected {}", x);
        prop_assert_eq!(
            dense.route_cost(x),
            oracle.table.get(&x).map_or(Cost::INFINITE, |r| r.cost)
        );
        let row: Vec<_> = dense.rib_for(x).map(|(a, i)| (a, i.clone())).collect();
        prop_assert_eq!(row, oracle.rib_for(x), "rib_for {}", x);
        prop_assert_eq!(dense.has_neighbor(x), oracle.rib_in.contains_key(&x));
        prop_assert_eq!(
            dense.rib_destinations(x),
            oracle.rib_destinations(x).into_iter().collect::<Vec<_>>(),
            "rib_destinations {}",
            x
        );
        let vector = oracle.neighbor_vectors.get(&x);
        prop_assert_eq!(
            dense.neighbor_vector(x).map(<[_]>::to_vec),
            vector.map(|v| v.iter().map(|(&u, &c)| (u, c)).collect::<Vec<_>>()),
            "neighbor_vector {}",
            x
        );
        for y in probes() {
            let known = oracle.rib_in.get(&x).and_then(|r| r.get(&y));
            prop_assert_eq!(dense.rib(x, y), known, "rib {} {}", x, y);
        }
    }
    Ok(())
}

/// `true` if a selector sized for `n` nodes must drop this advertisement.
fn out_of_range(ad: &RouteAdvertisement, n: usize) -> bool {
    ad.info
        .path()
        .is_some_and(|path| path.iter().any(|e| e.node.index() >= n))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The dense selector and the map selector agree on every answer after
    /// every operation, for a selector that grows on demand and for one
    /// sized to the universe (whose oracle never sees the advertisements
    /// the size bound rejects).
    fn dense_selector_matches_map_oracle(
        ops in proptest::collection::vec(op(), 1..60),
        declared in 0u64..6,
    ) {
        let declared = Cost::new(declared);
        let n = UNIVERSE as usize + 1;
        let mut open = RouteSelector::new(ME, declared, INITIAL_NEIGHBORS);
        let mut open_oracle = MapSelector::new(ME, declared, &INITIAL_NEIGHBORS);
        let mut sized = RouteSelector::with_node_count(ME, declared, INITIAL_NEIGHBORS, n);
        let mut sized_oracle = open_oracle.clone();
        for op in &ops {
            match op {
                Op::Ingest { from, ads, sender_costs } => {
                    let from = AsId::new(*from);
                    let mut update = Update {
                        from,
                        sender_costs: sender_costs
                            .iter()
                            .map(|&(a, c)| (AsId::new(a), Cost::new(c)))
                            .collect(),
                        advertisements: ads
                            .iter()
                            .map(|spec| advertisement(spec, from, &open_oracle))
                            .collect(),
                        id: 0,
                        causes: Vec::new(),
                    };
                    let got: BTreeSet<AsId> = open.ingest(&update).iter().copied().collect();
                    prop_assert_eq!(got, open_oracle.ingest(&update), "{:?}", op);
                    // The sized pair has its own retained paths, so fresh
                    // deltas are rebuilt against them.
                    update.advertisements = ads
                        .iter()
                        .map(|spec| advertisement(spec, from, &sized_oracle))
                        .collect();
                    let got: BTreeSet<AsId> = sized.ingest(&update).iter().copied().collect();
                    update.advertisements.retain(|ad| !out_of_range(ad, n));
                    prop_assert_eq!(got, sized_oracle.ingest(&update), "sized {:?}", op);
                }
                Op::LinkUp(a) => {
                    open.link_up(AsId::new(*a));
                    open_oracle.link_up(AsId::new(*a));
                    sized.link_up(AsId::new(*a));
                    sized_oracle.link_up(AsId::new(*a));
                }
                Op::LinkDown(a) => {
                    let a = AsId::new(*a);
                    let expected: Vec<_> = open_oracle.link_down(a).into_iter().collect();
                    prop_assert_eq!(open.link_down(a), expected, "{:?}", op);
                    let expected: Vec<_> = sized_oracle.link_down(a).into_iter().collect();
                    prop_assert_eq!(sized.link_down(a), expected, "sized {:?}", op);
                }
                Op::Reset => {
                    open.reset();
                    open_oracle.reset();
                    sized.reset();
                    sized_oracle.reset();
                }
                Op::SetDeclaredCost(c) => {
                    let c = Cost::new(*c);
                    let expected: Vec<_> = open_oracle.set_declared_cost(c).into_iter().collect();
                    prop_assert_eq!(open.set_declared_cost(c), expected, "{:?}", op);
                    let expected: Vec<_> = sized_oracle.set_declared_cost(c).into_iter().collect();
                    prop_assert_eq!(sized.set_declared_cost(c), expected, "sized {:?}", op);
                }
                Op::Decide(d) => {
                    let d = AsId::new(*d);
                    prop_assert_eq!(open.decide(d), open_oracle.decide(d), "{:?}", op);
                    prop_assert_eq!(sized.decide(d), sized_oracle.decide(d), "sized {:?}", op);
                }
                Op::DecideAll => {
                    let expected: Vec<_> = open_oracle.decide_all().into_iter().collect();
                    prop_assert_eq!(open.decide_all(), expected, "{:?}", op);
                    let expected: Vec<_> = sized_oracle.decide_all().into_iter().collect();
                    prop_assert_eq!(sized.decide_all(), expected, "sized {:?}", op);
                }
            }
            assert_same_state(&open, &open_oracle)?;
            assert_same_state(&sized, &sized_oracle)?;
        }
    }
}

// Slot-shift cases the dense layout introduced: a neighbor's slot is its
// rank among the neighbors, so a link event in the middle of the order
// moves every later column.

fn entry(raw: u32, cost: u64) -> PathEntry {
    PathEntry {
        node: AsId::new(raw),
        cost: Cost::new(cost),
    }
}

fn ad(dest: u32, path: Vec<PathEntry>, cost: u64) -> RouteAdvertisement {
    RouteAdvertisement {
        destination: AsId::new(dest),
        info: RouteInfo::Reachable {
            path: path.into(),
            path_cost: Cost::new(cost),
            prices: vec![],
        },
    }
}

fn update(from: u32, ads: Vec<RouteAdvertisement>) -> Update {
    Update {
        from: AsId::new(from),
        sender_costs: Vec::new(),
        advertisements: ads,
        id: 0,
        causes: Vec::new(),
    }
}

#[test]
fn link_up_in_the_middle_keeps_other_columns_intact() {
    // Neighbors 1 and 5; 3 sorts between them, so its column lands in
    // the middle of every row and both old columns shift around it.
    let mut s = RouteSelector::new(AsId::new(0), Cost::new(5), [AsId::new(1), AsId::new(5)]);
    s.ingest(&update(1, vec![ad(9, vec![entry(1, 3), entry(9, 2)], 0)]));
    s.ingest(&update(
        5,
        vec![
            ad(9, vec![entry(5, 1), entry(9, 2)], 0),
            ad(5, vec![entry(5, 1)], 0),
        ],
    ));
    let before: Vec<_> = [AsId::new(5), AsId::new(9)]
        .iter()
        .map(|&d| {
            s.rib_for(d)
                .map(|(a, i)| (a, i.clone()))
                .collect::<Vec<_>>()
        })
        .collect();
    s.link_up(AsId::new(3));
    assert_eq!(
        s.neighbors().collect::<Vec<_>>(),
        vec![AsId::new(1), AsId::new(3), AsId::new(5)]
    );
    let after: Vec<_> = [AsId::new(5), AsId::new(9)]
        .iter()
        .map(|&d| {
            s.rib_for(d)
                .map(|(a, i)| (a, i.clone()))
                .collect::<Vec<_>>()
        })
        .collect();
    assert_eq!(before, after, "old neighbors keep their Rib-In");
    assert!(s.rib_destinations(AsId::new(3)).is_empty());
    // The new column is live: 3 offers the cheapest route to 9.
    s.ingest(&update(3, vec![ad(9, vec![entry(3, 0), entry(9, 2)], 0)]));
    s.decide(AsId::new(9));
    assert_eq!(
        s.selected(AsId::new(9)).unwrap().next_hop(),
        Some(AsId::new(3))
    );
}

#[test]
fn link_down_of_a_middle_slot_then_up_again() {
    let all = [AsId::new(1), AsId::new(3), AsId::new(5)];
    let mut s = RouteSelector::new(AsId::new(0), Cost::new(5), all);
    for (from, cost) in [(1, 4), (3, 0), (5, 2)] {
        s.ingest(&update(
            from,
            vec![
                ad(9, vec![entry(from, cost), entry(9, 2)], 0),
                ad(from, vec![entry(from, cost)], 0),
            ],
        ));
    }
    s.decide_all();
    assert_eq!(
        s.selected(AsId::new(9)).unwrap().next_hop(),
        Some(AsId::new(3))
    );
    let changed = s.link_down(AsId::new(3));
    assert_eq!(changed, [AsId::new(3), AsId::new(9)]);
    assert_eq!(
        s.selected(AsId::new(9)).unwrap().next_hop(),
        Some(AsId::new(5)),
        "the next-cheapest neighbor takes over"
    );
    assert!(s.selected(AsId::new(3)).is_none());
    // The outer columns closed ranks without losing anything.
    assert_eq!(
        s.rib_destinations(AsId::new(1)),
        [AsId::new(1), AsId::new(9)]
    );
    assert_eq!(
        s.rib_destinations(AsId::new(5)),
        [AsId::new(5), AsId::new(9)]
    );
    assert!(s.rib(AsId::new(3), AsId::new(9)).is_none());
    // Back up: an empty column in the middle again, others untouched.
    s.link_up(AsId::new(3));
    assert_eq!(s.neighbors().collect::<Vec<_>>(), all);
    assert!(s.rib_destinations(AsId::new(3)).is_empty());
    assert_eq!(
        s.rib(AsId::new(5), AsId::new(9))
            .and_then(RouteInfo::path_cost),
        Some(Cost::ZERO)
    );
    assert!(s.decide_all().is_empty(), "nothing new to select from");
}
