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
    assert_eq!((path[0].node, path[0].cost), (Fig1::D, declared));
    assert_eq!((path[1].node, path[1].cost), (Fig1::Z, Cost::ZERO));
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
    assert_eq!(path[0].cost, Cost::ZERO);
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
            assert_eq!(path[0].cost, Cost::new(42));
            assert_eq!(path[1].cost, Cost::ZERO);
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
        &[(Fig1::B, 2), (Fig1::D, 1), (Fig1::Z, 4)],
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

    // Ids outside the graph — as a destination, or as a transit node on a
    // path to a destination inside it — neither panic nor grow state.
    let mut x = Node::<P>::new(graph, Fig1::X);
    let huge = AsId::new(u32::MAX);
    let before = x.state();
    let hostile = Update::if_nonempty(
        Fig1::A,
        vec![
            advertises(&[(Fig1::A, 5), (huge, 1)], 0, &[]),
            advertises(&[(Fig1::A, 5), (huge, 1), (Fig1::Z, 4)], 1, &[]),
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

/// Every batch a lock-step run hands each receiver, in order: what the wire
/// carries is staged, and handed out at the start of the stage that
/// ingests it.
#[derive(Default)]
struct Batches {
    staged: Vec<(AsId, Arc<Update>)>,
    per_node: Vec<Vec<Vec<Arc<Update>>>>,
}

struct Recorder(Arc<Mutex<Batches>>);

impl WireAuditor for Recorder {
    fn on_wire(&mut self, _from: AsId, to: AsId, update: &Arc<Update>) {
        let mut batches = self.0.lock().expect("no holder of the batches panics");
        batches.staged.push((to, Arc::clone(update)));
    }
    fn begin_stage(&mut self, _stage: u64) {
        let mut batches = self.0.lock().expect("no holder of the batches panics");
        let staged = std::mem::take(&mut batches.staged);
        let mut opened = Vec::new();
        for (to, update) in staged {
            if !opened.contains(&to) {
                opened.push(to);
                batches.per_node[to.index()].push(Vec::new());
            }
            let batch = batches.per_node[to.index()].last_mut();
            batch.expect("opened above").push(update);
        }
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
    let batches = Arc::new(Mutex::new(Batches {
        per_node: vec![Vec::new(); topology.node_count()],
        ..Batches::default()
    }));
    let mut engine = SyncEngine::new(topology, Node::<P>::from_graph(graph));
    engine.attach_auditor(Box::new(Recorder(Arc::clone(&batches))));
    assert!(engine.run_to_convergence().converged);
    let batches = batches.lock().expect("no holder of the batches panics");
    let mut delivered = 0;
    for (i, stream) in topology.nodes().zip(&batches.per_node) {
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
