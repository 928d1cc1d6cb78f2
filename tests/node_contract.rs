//! The node contract, stated once and held for every cost model: plain
//! BGP ([`NoPrices`]), the paper's transit prices ([`Fpss`]) and the
//! per-neighbour margins ([`Margins`]) are one `Node<P>`, so whatever an
//! engine may rely on — origin-only `start`, advertise-on-change and
//! nothing else, withdrawals, `reset` ≡ freshly built, state counts,
//! hostile ids neither panicking nor growing state, a duplicated delivery
//! changing nothing — is one generic body instantiated three times.
//! Price-specific behaviour is tested next to each policy.

use bgp_vcg::bgp::engine::SyncEngine;
use bgp_vcg::bgp::{
    Accusation, LocalEvent, NoPrices, Node, PathEntry, PricePolicy, ProtocolNode,
    RouteAdvertisement, RouteInfo, TopologyEvent, Update, WireAuditor,
};
use bgp_vcg::core::neighbor_costs::{Margins, NeighborCostGraph};
use bgp_vcg::core::Fpss;
use bgp_vcg::netgraph::generators::structured::{fig1, Fig1};
use bgp_vcg::netgraph::generators::{barabasi_albert, random_costs};
use bgp_vcg::{AsGraph, AsId, Cost};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// One reachable advertisement from the path's first node for its last.
fn advertises(path: &[(AsId, u64)], path_cost: u64, prices: &[Cost]) -> RouteAdvertisement {
    let entries: Vec<PathEntry> = path
        .iter()
        .map(|&(node, cost)| PathEntry {
            node,
            cost: Cost::new(cost),
        })
        .collect();
    RouteAdvertisement {
        destination: path[path.len() - 1].0,
        info: RouteInfo::Reachable {
            path: entries.into(),
            path_cost: Cost::new(path_cost),
            prices: prices.to_vec(),
        },
    }
}

/// D and Z of Fig. 1 (neighbours), with D having learned Z's origin
/// route; also returns that origin update.
fn d_knows_z<P: PricePolicy>(graph: &P::Graph) -> (Node<P>, Arc<Update>) {
    let mut d = Node::<P>::new(graph, Fig1::D);
    let mut z = Node::<P>::new(graph, Fig1::Z);
    let z_origin = Arc::new(z.start().expect("origin must be advertised"));
    let out = d
        .handle(std::slice::from_ref(&z_origin))
        .expect("new route must be advertised");
    // D now advertises its route to Z (D, Z: no transit) besides having
    // learned it: D's head carries its declared cost, the destination's
    // entry none.
    let to_z = out
        .advertisements
        .iter()
        .find(|ad| ad.destination == Fig1::Z)
        .expect("D advertises its route to Z");
    let declared = P::declared_cost(graph, Fig1::D);
    let path = to_z.info.path().expect("a reachable route");
    assert_eq!(path.len(), 2);
    let entries: Vec<(AsId, Cost)> = path.iter().map(|e| (e.node, e.cost)).collect();
    assert_eq!(entries, [(Fig1::D, declared), (Fig1::Z, Cost::ZERO)]);
    assert_eq!(d.selector().route_cost(Fig1::Z), Cost::ZERO);
    (d, z_origin)
}

/// The whole contract, on Fig. 1 as `graph` presents it to model `P`.
fn contract<P: PricePolicy>(graph: &P::Graph) {
    // `start` advertises the origin route and nothing else, unpriced.
    let mut fresh = Node::<P>::new(graph, Fig1::D);
    let update = fresh.start().expect("origin must be advertised");
    assert_eq!(update.entry_count(), 1);
    let origin = &update.advertisements[0];
    assert_eq!(origin.destination, Fig1::D);
    let RouteInfo::Reachable { path, prices, .. } = &origin.info else {
        panic!("origin must be reachable");
    };
    assert_eq!(path.len(), 1);
    // The origin's only entry is the destination's: it carries no cost,
    // whatever D declares.
    assert_eq!(path.first().unwrap().cost, Cost::ZERO);
    assert!(prices.is_empty());
    // Nothing is priced on the trivial route (this slice used to panic),
    // an unknown destination, or a route without transit nodes.
    assert_eq!(fresh.price(Fig1::D, Fig1::B), None);
    assert_eq!(fresh.price(Fig1::Z, Fig1::B), None);

    let (mut d, z_origin) = d_knows_z::<P>(graph);
    assert_eq!(d.price(Fig1::Z, Fig1::B), None, "no transit, no prices");
    assert_eq!(d.price(Fig1::Z, Fig1::Z), None, "endpoints are not transit");

    // State counts: D itself and Z in the table, one Rib-In entry.
    let snap = d.state();
    assert_eq!(snap.table_entries, 2);
    assert_eq!(snap.table_path_nodes, 1 + 2);
    assert_eq!(snap.rib_entries, 1);
    assert_eq!((snap.price_entries, snap.price_path_nodes), (0, 0));
    assert_eq!(d.full_table().unwrap().entry_count(), 2);

    // Re-delivery of identical state must not re-advertise.
    assert!(d.handle(std::slice::from_ref(&z_origin)).is_none());

    // A scalar re-declaration restamps the table where the model has a
    // scalar cost, and is silence where it has none.
    match d.apply_event(LocalEvent::CostChange(Cost::new(42))) {
        Some(out) if P::SCALAR_COST => {
            // Only the route to Z moves: the origin route carries no cost.
            assert_eq!(out.entry_count(), 1);
            assert_eq!(out.advertisements[0].destination, Fig1::Z);
            let path = out.advertisements[0].info.path().unwrap();
            let costs: Vec<Cost> = path.iter().map(|e| e.cost).collect();
            assert_eq!(costs, [Cost::new(42), Cost::ZERO]);
        }
        None if !P::SCALAR_COST => {}
        other => panic!("cost change answered {other:?}"),
    }

    // Losing the only route produces a withdrawal; a second loss of the
    // same link, nothing.
    let out = d
        .apply_event(LocalEvent::LinkDown(Fig1::Z))
        .expect("losing the only route must produce a withdrawal");
    let ad = out
        .advertisements
        .iter()
        .find(|ad| ad.destination == Fig1::Z)
        .expect("withdrawal for Z");
    assert_eq!(ad.info, RouteInfo::Withdrawn);
    assert!(d.apply_event(LocalEvent::LinkDown(Fig1::Z)).is_none());

    // `reset` ≡ fresh: the learned route is gone, `start` re-advertises
    // the origin, and re-delivery of Z's origin is a change again (the
    // suppression memory was wiped).
    let (mut d, z_origin) = d_knows_z::<P>(graph);
    d.start();
    d.reset();
    assert_eq!(d.selector().route_cost(Fig1::Z), Cost::INFINITE);
    assert_eq!(d.state(), Node::<P>::new(graph, Fig1::D).state());
    assert!(d.start().is_some(), "restart re-advertises the origin");
    assert!(d.handle(&[z_origin]).is_some());

    // A three-hop route carries one stored entry per transit node where
    // the model prices at all, each with its AS label cell.
    let mut x = Node::<P>::new(graph, Fig1::X);
    let via_b = advertises(
        &[(Fig1::B, 2), (Fig1::D, 1), (Fig1::Z, 0)],
        1,
        &[Cost::INFINITE],
    );
    x.handle(&[Arc::new(Update::if_nonempty(Fig1::B, vec![via_b]).unwrap())]);
    let entries = if P::PRICED { 2 } else { 0 };
    let snap = x.state();
    assert_eq!(
        (snap.price_entries, snap.price_path_nodes),
        (entries, entries)
    );
    assert_eq!(x.price(Fig1::Z, Fig1::D).is_some(), P::PRICED);
    assert_eq!(x.price(Fig1::Z, Fig1::A), None, "A is not on the route");

    // A destination is never transit, so a route whose destination entry
    // carries a cost is malformed — a long one or an origin route — and
    // is dropped without touching any table.
    let mut x = Node::<P>::new(graph, Fig1::X);
    let before = x.state();
    let costed = Update::if_nonempty(
        Fig1::B,
        vec![
            advertises(&[(Fig1::B, 2), (Fig1::D, 1), (Fig1::Z, 4)], 1, &[]),
            advertises(&[(Fig1::B, 2)], 0, &[]),
        ],
    )
    .unwrap();
    assert!(x.handle(&[Arc::new(costed)]).is_none());
    assert_eq!(x.state(), before);
    assert_eq!(x.selector().route_cost(Fig1::Z), Cost::INFINITE);
    assert_eq!(x.selector().route_cost(Fig1::B), Cost::INFINITE);

    // Ids outside the graph — as a destination, or as a transit node on a
    // path to a destination inside it — neither panic nor grow state.
    let mut x = Node::<P>::new(graph, Fig1::X);
    let huge = AsId::new(u32::MAX);
    let before = x.state();
    let hostile = Update::if_nonempty(
        Fig1::A,
        vec![
            advertises(&[(Fig1::A, 5), (huge, 0)], 0, &[]),
            advertises(&[(Fig1::A, 5), (huge, 1), (Fig1::Z, 0)], 1, &[]),
        ],
    )
    .unwrap();
    assert!(x.handle(&[Arc::new(hostile)]).is_none());
    assert_eq!(x.state(), before);
    assert_eq!(x.selector().route_cost(huge), Cost::INFINITE);
    assert_eq!(x.selector().route_cost(Fig1::Z), Cost::INFINITE);
    assert_eq!(x.selector().destinations().count(), 1);
    assert_eq!(x.price(huge, Fig1::A), None);
}

/// Every batch a lock-step run hands each receiver, in order, as the
/// engine hands it over.
type Batches = Vec<Vec<Vec<Arc<Update>>>>;

struct Recorder(Arc<Mutex<Batches>>);

impl WireAuditor for Recorder {
    fn on_wire(&mut self, _from: AsId, _to: AsId, _update: &Arc<Update>) {}
    fn on_delivery(&mut self, to: AsId, batch: &[Arc<Update>]) {
        let mut per_node = self.0.lock().expect("no holder of the batches panics");
        per_node[to.index()].push(batch.to_vec());
    }
    fn on_topology(&mut self, _event: &TopologyEvent) {}
    fn on_local_event(&mut self, _node: AsId, _event: &LocalEvent) {}
    fn end_stage(&mut self, _stage: u64) -> Vec<Accusation> {
        Vec::new()
    }
}

/// `handle(x)` twice ≡ `handle(x)` once, on every batch a real cold run
/// delivers: the second delivery emits nothing and leaves table, prices,
/// Rib-In and suppression memory as the first left them. This is what an
/// at-least-once transport would rely on; the session layer dedupes by
/// sequence number, so no engine run can exercise it.
fn duplicates_are_absorbed<P: PricePolicy>(graph: &P::Graph) {
    let topology: &AsGraph = graph.as_ref();
    let batches = Arc::new(Mutex::new(vec![Vec::new(); topology.node_count()]));
    let mut engine = SyncEngine::new(topology, Node::<P>::from_graph(graph));
    engine.attach_auditor(Box::new(Recorder(Arc::clone(&batches))));
    assert!(engine.run_to_convergence().converged);
    let batches = batches.lock().expect("no holder of the batches panics");
    let mut delivered = 0;
    for (i, stream) in topology.nodes().zip(batches.iter()) {
        let mut once = Node::<P>::new(graph, i);
        let mut twice = Node::<P>::new(graph, i);
        assert_eq!(once.start(), twice.start());
        for (at, batch) in stream.iter().enumerate() {
            delivered += batch.len();
            assert_eq!(once.handle(batch), twice.handle(batch), "{i}, batch {at}");
            assert_eq!(twice.handle(batch), None, "{i}, batch {at} again");
            assert_eq!(twice.full_table(), once.full_table(), "{i}, batch {at}");
            assert_eq!(twice.state(), once.state(), "{i}, batch {at}");
            for j in topology.nodes() {
                let selected = |node: &Node<P>| node.selector().selected(j).cloned();
                assert_eq!(selected(&twice), selected(&once), "{i} -> {j}");
            }
        }
        // Suppression memory: the next change is advertised alike.
        assert_eq!(twice.start(), once.start(), "{i}");
    }
    assert!(delivered > topology.link_count(), "{delivered} deliveries");
}

fn ba14() -> AsGraph {
    let mut rng = StdRng::seed_from_u64(7);
    barabasi_albert(random_costs(14, 1, 9, &mut rng), 2, &mut rng)
}

#[test]
fn plain_nodes_keep_the_contract() {
    contract::<NoPrices>(&fig1());
}

#[test]
fn fpss_nodes_keep_the_contract() {
    contract::<Fpss>(&fig1());
}

#[test]
fn neighbor_cost_nodes_keep_the_contract() {
    contract::<Margins>(&NeighborCostGraph::uniform(&fig1()));
}

#[test]
fn duplicated_deliveries_are_absorbed() {
    for g in [fig1(), ba14()] {
        duplicates_are_absorbed::<NoPrices>(&g);
        duplicates_are_absorbed::<Fpss>(&g);
        let mut rng = StdRng::seed_from_u64(9);
        let mut nc = NeighborCostGraph::uniform(&g);
        for k in g.nodes() {
            for &a in g.neighbors(k) {
                let cost = Cost::new(rng.gen_range(0..12));
                nc = nc.with_recv_cost(k, a, cost).unwrap();
            }
        }
        duplicates_are_absorbed::<Margins>(&nc);
    }
}

/// What a neighbour holds of a node after hearing `update` on top of
/// `held`: a full advertisement replaces, a delta patches, a withdrawal
/// removes. A delta that would not apply, or a withdrawal of nothing, is a
/// message the neighbour could not have understood.
fn fold(held: &mut BTreeMap<AsId, RouteInfo>, update: &Update) {
    for ad in &update.advertisements {
        let dest = ad.destination;
        match &ad.info {
            RouteInfo::Withdrawn => {
                assert!(held.remove(&dest).is_some(), "withdraws unsent {dest}");
            }
            RouteInfo::PriceDelta {
                base_path_hash,
                entries,
            } => {
                let Some(RouteInfo::Reachable { path, prices, .. }) = held.get_mut(&dest) else {
                    panic!("a delta for unsent {dest}");
                };
                assert_eq!(path.hash64(), *base_path_hash, "a delta off {dest}'s path");
                for &(at, value) in entries {
                    let cell = prices.get_mut(usize::from(at));
                    *cell.expect("a delta inside the sent row") = value;
                }
            }
            full => {
                held.insert(dest, full.clone());
            }
        }
    }
}

/// The node's full table, by destination.
fn table<P: PricePolicy>(node: &Node<P>) -> BTreeMap<AsId, RouteInfo> {
    let table = node.full_table().expect("the origin at least");
    let entries = table.advertisements.into_iter();
    entries.map(|ad| (ad.destination, ad.info)).collect()
}

/// A random inbound stream for one node: its neighbours' advertisements
/// (well-formed, looping, malformed), withdrawals and price deltas (most
/// against what the neighbour sent, some off it), with link and cost
/// events between them.
struct Inbound {
    rng: StdRng,
    me: AsId,
    n: u32,
    neighbours: Vec<AsId>,
    /// Links taken down and not yet back.
    down: Vec<AsId>,
    /// Each neighbour's last full advertisement per destination.
    sent: BTreeMap<(AsId, AsId), RouteInfo>,
}

impl Inbound {
    fn cost(&mut self) -> Cost {
        match self.rng.gen_range(0..8) {
            0 => Cost::INFINITE,
            c => Cost::new(c),
        }
    }

    /// A reachable advertisement from `from`, well-formed unless
    /// `malformed`; it may pass through the receiver.
    fn reachable(&mut self, from: AsId, malformed: bool) -> RouteAdvertisement {
        let mut nodes = vec![from];
        for _ in 0..self.rng.gen_range(1..5) {
            let next = AsId::new(self.rng.gen_range(0..self.n));
            if !nodes.contains(&next) {
                nodes.push(next);
            }
        }
        let mut costed = false;
        if malformed {
            match self.rng.gen_range(0..5) {
                0 => nodes[0] = self.me,
                1 => nodes.push(from),
                2 => nodes.push(AsId::new(self.n + 3)),
                3 => costed = true,
                _ => {}
            }
        }
        let transit = nodes.len().saturating_sub(2);
        let extra = usize::from(malformed);
        let mut path: Vec<(AsId, u64)> = (0..nodes.len())
            .map(|at| (nodes[at], self.rng.gen_range(0..6)))
            .collect();
        // A destination is never transit: its entry carries no cost.
        if let Some(last) = path.last_mut() {
            last.1 = u64::from(costed);
        }
        let prices: Vec<Cost> = (0..transit + extra).map(|_| self.cost()).collect();
        advertises(&path, self.rng.gen_range(0..30), &prices)
    }

    /// A delta for something `from` sent — off its path or row now and then.
    fn delta(&mut self, from: AsId) -> Option<RouteAdvertisement> {
        let range = (from, AsId::new(0))..=(from, AsId::new(u32::MAX));
        let count = self.sent.range(range.clone()).count();
        let at = self.rng.gen_range(0..count.max(1));
        let (&(_, dest), info) = self.sent.range(range).nth(at)?;
        let RouteInfo::Reachable { path, prices, .. } = info.clone() else {
            return None;
        };
        let mut entries = Vec::new();
        for at in 0..prices.len() {
            if self.rng.gen_bool(0.5) {
                entries.push((at as u16, self.cost()));
            }
        }
        let mut base_path_hash = path.hash64();
        match self.rng.gen_range(0..10) {
            0 => base_path_hash ^= 1,
            1 => entries.push((prices.len() as u16, Cost::new(1))),
            _ => {}
        }
        let ad = RouteAdvertisement {
            destination: dest,
            info: RouteInfo::PriceDelta {
                base_path_hash,
                entries,
            },
        };
        Some(ad)
    }

    /// One update from a neighbour (a stranger now and then).
    fn update(&mut self) -> Arc<Update> {
        let from = match self.rng.gen_range(0..10) {
            0 => AsId::new(self.rng.gen_range(0..self.n)),
            _ => self.neighbours[self.rng.gen_range(0..self.neighbours.len())],
        };
        let mut advertisements = Vec::new();
        for _ in 0..self.rng.gen_range(1..5) {
            let roll = self.rng.gen_range(0..20);
            let ad = match roll {
                0..=8 => self.reachable(from, false),
                9..=11 => RouteAdvertisement {
                    destination: AsId::new(self.rng.gen_range(0..self.n)),
                    info: RouteInfo::Withdrawn,
                },
                12..=17 => match self.delta(from) {
                    Some(ad) => ad,
                    None => continue,
                },
                _ => self.reachable(from, true),
            };
            match &ad.info {
                RouteInfo::Reachable { .. } if roll <= 8 => {
                    self.sent.insert((from, ad.destination), ad.info.clone());
                }
                RouteInfo::Withdrawn => {
                    self.sent.remove(&(from, ad.destination));
                }
                _ => {}
            }
            advertisements.push(ad);
        }
        let mut sender_costs = Vec::new();
        if self.rng.gen_bool(0.4) {
            for u in 0..self.n {
                if AsId::new(u) == self.me || self.rng.gen_bool(0.2) {
                    sender_costs.push((AsId::new(u), Cost::new(self.rng.gen_range(0..6))));
                }
            }
        }
        Arc::new(Update {
            from,
            sender_costs,
            advertisements,
            id: 0,
        })
    }

    /// Everything `from` sent that it still stands by: what it re-sends
    /// when a session with it is established.
    fn resend(&mut self, from: AsId) -> Option<Arc<Update>> {
        let range = (from, AsId::new(0))..=(from, AsId::new(u32::MAX));
        let ads = self
            .sent
            .range(range)
            .map(|(&(_, dest), info)| RouteAdvertisement {
                destination: dest,
                info: info.clone(),
            });
        Update::if_nonempty(from, ads.collect()).map(Arc::new)
    }
}

/// Folding what a node sent — its `start`, then every `handle` and
/// `apply_event` answer — gives its full table after every step of a
/// random inbound stream, with delta encoding on or off and across a
/// `reset`: what a neighbour holds of a node is the node's table.
fn sent_folds_to_the_table<P: PricePolicy>(graph: &P::Graph, seed: u64, deltas: bool) {
    let topology: &AsGraph = graph.as_ref();
    let me = topology
        .nodes()
        .max_by_key(|&x| topology.neighbors(x).len())
        .expect("nodes");
    let mut node = Node::<P>::new(graph, me);
    node.configure_delta_encoding(deltas);
    let mut inbound = Inbound {
        rng: StdRng::seed_from_u64(seed),
        me,
        n: topology.node_count() as u32,
        neighbours: topology.neighbors(me).to_vec(),
        down: Vec::new(),
        sent: BTreeMap::new(),
    };
    let mut held = BTreeMap::new();
    // Full advertisements, deltas and withdrawals the node answered with.
    let mut kinds = [0usize; 3];
    fold(&mut held, &node.start().expect("the origin"));
    assert_eq!(held, table(&node), "start");
    for step in 0..400 {
        let what = format!("seed {seed}, deltas {deltas}, step {step}");
        let out = match inbound.rng.gen_range(0..40) {
            0..=2 if inbound.down.len() + 1 < inbound.neighbours.len() => {
                let live: Vec<AsId> = (inbound.neighbours.iter())
                    .filter(|a| !inbound.down.contains(a))
                    .copied()
                    .collect();
                let a = live[inbound.rng.gen_range(0..live.len())];
                inbound.down.push(a);
                node.apply_event(LocalEvent::LinkDown(a))
            }
            3..=4 if !inbound.down.is_empty() => {
                let a = inbound.down.swap_remove(0);
                assert_eq!(node.apply_event(LocalEvent::LinkUp(a)), None, "{what}");
                let resent = inbound.resend(a);
                resent.and_then(|update| node.handle(&[update]))
            }
            5..=6 => {
                let cost = Cost::new(inbound.rng.gen_range(0..10));
                node.apply_event(LocalEvent::CostChange(cost))
            }
            7 => {
                // A restart: the neighbours hear the table afresh, and
                // every live neighbour re-sends its own.
                node.reset();
                held.clear();
                fold(&mut held, &node.full_table().expect("the origin"));
                let live: Vec<AsId> = (inbound.neighbours.iter())
                    .filter(|a| !inbound.down.contains(a))
                    .copied()
                    .collect();
                let batch: Vec<Arc<Update>> =
                    live.into_iter().filter_map(|a| inbound.resend(a)).collect();
                node.handle(&batch)
            }
            _ => {
                let batch: Vec<Arc<Update>> = (0..inbound.rng.gen_range(1..4))
                    .map(|_| inbound.update())
                    .collect();
                node.handle(&batch)
            }
        };
        for ad in out.iter().flat_map(|update| &update.advertisements) {
            let kind = match ad.info {
                RouteInfo::Reachable { .. } => 0,
                RouteInfo::PriceDelta { .. } => 1,
                RouteInfo::Withdrawn => 2,
            };
            kinds[kind] += 1;
        }
        if let Some(update) = out {
            fold(&mut held, &update);
        }
        assert_eq!(held, table(&node), "{what}");
    }
    // The stream reached every kind of answer the node can give.
    let priced_deltas = deltas && P::PRICED;
    assert!(kinds[0] > 0 && kinds[2] > 0, "seed {seed}: {kinds:?}");
    assert_eq!(kinds[1] > 0, priced_deltas, "seed {seed}: {kinds:?}");
}

#[test]
fn what_a_node_sent_folds_to_its_table() {
    let g = ba14();
    let mut rng = StdRng::seed_from_u64(11);
    let mut nc = NeighborCostGraph::uniform(&g);
    for k in g.nodes() {
        for &a in g.neighbors(k) {
            let cost = Cost::new(rng.gen_range(0..6));
            nc = nc.with_recv_cost(k, a, cost).unwrap();
        }
    }
    for seed in 0..6 {
        for deltas in [true, false] {
            sent_folds_to_the_table::<NoPrices>(&g, seed, deltas);
            sent_folds_to_the_table::<Fpss>(&g, seed, deltas);
            sent_folds_to_the_table::<Margins>(&nc, seed, deltas);
        }
    }
}
