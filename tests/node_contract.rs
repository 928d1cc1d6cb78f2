//! The node contract, stated once and held for every cost model: plain
//! BGP ([`NoPrices`]), the paper's transit prices ([`Fpss`]) and the
//! per-neighbour margins ([`Margins`]) are one `Node<P>`, so whatever an
//! engine may rely on — origin-only `start`, advertise-on-change and
//! nothing else, withdrawals, `reset` ≡ freshly built, state counts,
//! hostile ids neither panicking nor growing state — is one generic body
//! instantiated three times. Price-specific behaviour is tested next to
//! each policy.

use bgp_vcg::bgp::{
    LocalEvent, NoPrices, Node, PathEntry, PricePolicy, ProtocolNode, RouteAdvertisement,
    RouteInfo, Update,
};
use bgp_vcg::core::neighbor_costs::{Margins, NeighborCostGraph};
use bgp_vcg::core::Fpss;
use bgp_vcg::netgraph::generators::structured::{fig1, Fig1};
use bgp_vcg::{AsId, Cost};
use std::sync::Arc;

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
    // learned it.
    assert!(out
        .advertisements
        .iter()
        .any(|ad| ad.destination == Fig1::Z));
    assert_eq!(d.selector().route_cost(Fig1::Z), Cost::ZERO);
    (d, z_origin)
}

/// The whole contract, on Fig. 1 as `graph` presents it to model `P`.
fn contract<P: PricePolicy>(graph: &P::Graph) {
    let declared = P::declared_cost(graph, Fig1::D);

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
    assert_eq!(path[0].cost, declared);
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
            let head = out.advertisements[0].info.path().unwrap()[0];
            assert_eq!(head.cost, Cost::new(42));
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
