//! The protocol-node abstraction and the plain (price-free) BGP node.

use crate::dynamics::LocalEvent;
use crate::message::{RouteAdvertisement, RouteInfo, Update};
use crate::selector::{RouteSelector, SelectedRoute};
use crate::stats::StateSnapshot;
use bgpvcg_netgraph::{AsGraph, AsId, Cost};
use std::sync::Arc;

/// The behaviour an AS must implement to be driven by either engine.
///
/// A node is a pure state machine: the engine feeds it messages and local
/// events; the node answers with the UPDATE it wants broadcast to its
/// neighbors (or `None` when its advertised state did not change — the
/// paper's "routing-table exchanges only occur when a change is detected").
pub trait ProtocolNode: Send {
    /// This node's AS number.
    fn id(&self) -> AsId;

    /// Called once before the first stage: the node's initial advertisement
    /// (at minimum, its origin route to itself).
    fn start(&mut self) -> Option<Update>;

    /// Ingests a batch of UPDATEs delivered this stage and returns the
    /// resulting broadcast, if anything changed. Updates arrive as shared
    /// [`Arc`]s so the engines can fan one broadcast out to many inboxes
    /// without copying the payload per link.
    fn handle(&mut self, updates: &[Arc<Update>]) -> Option<Update>;

    /// Applies a local topology event and returns the resulting broadcast,
    /// if anything changed. For [`LocalEvent::LinkUp`] the engine delivers
    /// the returned update (the full table) to the *new neighbor only*, not
    /// as a broadcast.
    fn apply_event(&mut self, event: LocalEvent) -> Option<Update>;

    /// The node's full table as an update — what a real BGP speaker sends
    /// when a new session is established.
    fn full_table(&self) -> Option<Update>;

    /// Forgets all learned state, returning the node to its
    /// just-constructed condition — same id, declared cost, and current
    /// link set, but empty RIBs and change-suppression memory. The chaos
    /// harness calls this to model a crash followed by a restart; the node
    /// relearns everything through session re-establishment afterwards.
    fn reset(&mut self);

    /// Sizes of the node's protocol state, for the E5 experiment.
    fn state(&self) -> StateSnapshot;

    /// Enables or disables price-delta advertisement emission (wire v2's
    /// compression hook). Default: no-op, for node types without the
    /// optimization; implementors with an adj-RIB-out forward this to
    /// their `set_delta_encoding` inherent method.
    fn configure_delta_encoding(&mut self, _on: bool) {}
}

/// `mark` value of a destination no inbound update has touched yet.
const NOT_DIRTY: u32 = u32::MAX;

/// Pairs destinations with cause 0, the environment: what `start` and
/// local events hand to [`AdjRibOut::emit`].
pub fn uncaused(dests: impl IntoIterator<Item = AsId>) -> impl Iterator<Item = (AsId, u64)> {
    dests.into_iter().map(|dest| (dest, 0))
}

/// Adj-RIB-Out: what a node last advertised per destination, and with it
/// the advertise-on-change step every node type shares — folding a stage's
/// inbox into a dirty list with provenance, suppressing unchanged
/// advertisements, and compressing price-only changes to
/// [`RouteInfo::PriceDelta`]. Tables are indexed by destination and the
/// scratch is reused, so a `handle` call allocates only what it emits.
#[derive(Debug, Clone)]
pub struct AdjRibOut {
    /// What was last advertised per destination (`None`: nothing yet), so
    /// only changes are sent. Always holds the *full* route state — when a
    /// compressed [`RouteInfo::PriceDelta`] goes out on the wire, this
    /// still records the reassembled `Reachable` it stands for.
    advertised: Vec<Option<RouteInfo>>,
    /// Whether change advertisements may be compressed to
    /// [`RouteInfo::PriceDelta`] when only price entries moved on an
    /// unchanged selected path (the monotone-relaxation common case of
    /// Sect. 6). On by default.
    delta_encoding: bool,
    /// The destinations the `handle` call in progress touched, each with
    /// the id of the last inbound update (in inbox order) that touched it.
    /// Lent to the caller by `ingest`, returned through `recycle`.
    dirty: Vec<(AsId, u64)>,
    /// Per destination: its position in `dirty`, or [`NOT_DIRTY`].
    mark: Vec<u32>,
}

impl AdjRibOut {
    /// An empty Adj-RIB-Out for a node of an `n`-node network.
    pub fn new(n: usize) -> Self {
        AdjRibOut {
            advertised: vec![None; n],
            delta_encoding: true,
            dirty: Vec::new(),
            mark: vec![NOT_DIRTY; n],
        }
    }

    /// Enables or disables [`RouteInfo::PriceDelta`] compression of change
    /// advertisements (on by default).
    pub fn set_delta_encoding(&mut self, on: bool) {
        self.delta_encoding = on;
    }

    /// Forgets everything advertised (a restart).
    pub fn reset(&mut self) {
        self.advertised.fill(None);
    }

    /// Ingests one stage's inbox into `selector` and returns the affected
    /// destinations, ascending, each attributed to the last inbound update
    /// whose ingestion touched it. The list is this value's own buffer:
    /// hand it back with [`recycle`](Self::recycle) once emitted.
    pub fn ingest(
        &mut self,
        selector: &mut RouteSelector,
        updates: &[Arc<Update>],
    ) -> Vec<(AsId, u64)> {
        let mut dirty = std::mem::take(&mut self.dirty);
        for update in updates {
            for &dest in selector.ingest(update) {
                let Some(mark) = self.mark.get_mut(dest.index()) else {
                    continue;
                };
                match dirty.get_mut(*mark as usize) {
                    Some(touched) => touched.1 = update.id,
                    None => {
                        *mark = dirty.len() as u32;
                        dirty.push((dest, update.id));
                    }
                }
            }
        }
        for &(dest, _) in &dirty {
            self.mark[dest.index()] = NOT_DIRTY;
        }
        dirty.sort_unstable_by_key(|&(dest, _)| dest);
        dirty
    }

    /// Takes back the list [`ingest`](Self::ingest) lent out.
    pub fn recycle(&mut self, mut dirty: Vec<(AsId, u64)>) {
        dirty.clear();
        self.dirty = dirty;
    }

    /// Builds the outgoing update for the given `(destination, cause)`
    /// pairs: each destination's current state — `selector`'s route plus
    /// the caller's price array for it — is compared with what was last
    /// advertised, and what differs is sent and recorded. The update's
    /// `causes` vector is built in lockstep with its advertisements.
    pub fn emit<'p>(
        &mut self,
        selector: &RouteSelector,
        dests: impl IntoIterator<Item = (AsId, u64)>,
        prices: impl Fn(AsId) -> &'p [Cost],
    ) -> Option<Update> {
        // Nearly every destination that reaches this point has changed, so
        // both output lists are sized once instead of grown by doubling.
        let dests = dests.into_iter();
        // lint:allow(output: the emitted update's advertisement list)
        let mut ads = Vec::with_capacity(dests.size_hint().0);
        // lint:allow(output: the emitted update's provenance list)
        let mut causes = Vec::with_capacity(dests.size_hint().0);
        for (dest, cause) in dests {
            if let Some(info) = self.diff(dest, selector.selected(dest), prices(dest)) {
                ads.push(RouteAdvertisement {
                    destination: dest,
                    info,
                });
                causes.push(cause);
            }
        }
        let mut update = Update::if_nonempty(selector.id(), ads)?;
        update.causes = causes;
        Some(update)
    }

    /// The wire form of `dest`'s current state if it differs from what was
    /// last advertised, recording it; `None` when there is nothing to say.
    /// State is compared with the recorded advertisement in place, so an
    /// unchanged destination costs no allocation and a changed one only
    /// its wire form.
    fn diff(
        &mut self,
        dest: AsId,
        route: Option<&SelectedRoute>,
        prices: &[Cost],
    ) -> Option<RouteInfo> {
        let sent = self.advertised.get_mut(dest.index())?;
        let Some(route) = route else {
            // Never advertise an initial withdrawal: silence means the
            // same thing and costs nothing.
            if matches!(sent, None | Some(RouteInfo::Withdrawn)) {
                return None;
            }
            *sent = Some(RouteInfo::Withdrawn);
            return Some(RouteInfo::Withdrawn);
        };
        if let Some(RouteInfo::Reachable {
            path,
            path_cost,
            prices: sent_prices,
        }) = sent
        {
            if *path == route.path && *path_cost == route.cost {
                if sent_prices == prices {
                    return None;
                }
                // Only price entries moved on an unchanged path (the
                // monotone-relaxation common case): send a compressed delta
                // against the previously advertised route; the receiver
                // patches its retained copy.
                let delta = self
                    .delta_encoding
                    .then(|| RouteInfo::price_delta(path, sent_prices, prices));
                if let Some(delta) = delta.flatten() {
                    sent_prices.copy_from_slice(prices);
                    return Some(delta);
                }
            }
        }
        let info = RouteInfo::Reachable {
            path: route.path.clone(),
            path_cost: route.cost,
            // lint:allow(output: a full advertisement's own price array)
            prices: prices.to_vec(),
        };
        info.store_into(sent);
        Some(info)
    }

    /// `selector`'s whole table as an update, with the caller's price
    /// arrays — what a real BGP speaker sends when a session is
    /// established. Reads the table, not what was last advertised.
    pub fn full_table<'p>(
        selector: &RouteSelector,
        prices: impl Fn(AsId) -> &'p [Cost],
    ) -> Option<Update> {
        let ads = selector
            .destinations()
            .filter_map(|dest| {
                let route = selector.selected(dest)?;
                Some(RouteAdvertisement {
                    destination: dest,
                    info: RouteInfo::Reachable {
                        path: route.path.clone(),
                        path_cost: route.cost,
                        prices: prices(dest).to_vec(),
                    },
                })
            })
            .collect();
        Update::if_nonempty(selector.id(), ads)
    }
}

/// A plain lowest-cost-path BGP speaker: route selection and advertisement,
/// no prices. This is the baseline protocol the paper extends; experiments
/// E5/E6 compare its state and traffic against the pricing extension.
///
/// # Example
///
/// ```
/// use bgpvcg_netgraph::generators::structured::fig1;
/// use bgpvcg_bgp::PlainBgpNode;
///
/// let g = fig1();
/// let nodes = PlainBgpNode::from_graph(&g);
/// assert_eq!(nodes.len(), g.node_count());
/// ```
#[derive(Debug, Clone)]
pub struct PlainBgpNode {
    selector: RouteSelector,
    /// Change suppression. Plain BGP carries no prices, so delta encoding
    /// is inert here and exists for API symmetry with the pricing node.
    out: AdjRibOut,
}

impl PlainBgpNode {
    /// Creates a node for AS `id` of the given graph.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in the graph.
    pub fn new(graph: &AsGraph, id: AsId) -> Self {
        let n = graph.node_count();
        PlainBgpNode {
            selector: RouteSelector::with_node_count(
                id,
                graph.cost(id),
                graph.neighbors(id).iter().copied(),
                n,
            ),
            out: AdjRibOut::new(n),
        }
    }

    /// Enables or disables [`RouteInfo::PriceDelta`] compression of change
    /// advertisements (on by default). The delta-stream equivalence
    /// proptests run both settings and assert identical fixpoints.
    pub fn set_delta_encoding(&mut self, on: bool) {
        self.out.set_delta_encoding(on);
    }

    /// Creates one node per AS of the graph, in AS order — ready to hand to
    /// an engine.
    pub fn from_graph(graph: &AsGraph) -> Vec<Self> {
        graph
            .nodes()
            .map(|id| PlainBgpNode::new(graph, id))
            .collect()
    }

    /// Read access to the decision process (selected routes, Rib-In).
    pub fn selector(&self) -> &RouteSelector {
        &self.selector
    }

    /// Advertises whichever of `dests` changed since last advertised.
    fn emit(&mut self, dests: impl IntoIterator<Item = (AsId, u64)>) -> Option<Update> {
        self.out.emit(&self.selector, dests, |_| &[])
    }
}

impl ProtocolNode for PlainBgpNode {
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
        dirty.retain(|&(dest, _)| self.selector.decide(dest));
        let update = self.emit(dirty.iter().copied());
        self.out.recycle(dirty);
        update
    }

    fn apply_event(&mut self, event: LocalEvent) -> Option<Update> {
        match event {
            LocalEvent::LinkDown(neighbor) => {
                let changed = self.selector.link_down(neighbor);
                self.emit(uncaused(changed))
            }
            LocalEvent::LinkUp(neighbor) => {
                self.selector.link_up(neighbor);
                None // the engine sends `full_table` to the new neighbor
            }
            LocalEvent::CostChange(cost) => {
                // Only the destinations whose table entry actually restamped
                // are re-advertised — `set_declared_cost` reports them, and a
                // no-op change (same cost) reports none.
                let changed = self.selector.set_declared_cost(cost);
                self.emit(uncaused(changed))
            }
        }
    }

    fn full_table(&self) -> Option<Update> {
        AdjRibOut::full_table(&self.selector, |_| &[])
    }

    fn reset(&mut self) {
        self.selector.reset();
        self.out.reset();
    }

    fn state(&self) -> StateSnapshot {
        self.selector.state()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpvcg_netgraph::generators::structured::{fig1, Fig1};
    use bgpvcg_netgraph::Cost;

    #[test]
    fn start_advertises_origin_only() {
        let g = fig1();
        let mut node = PlainBgpNode::new(&g, Fig1::D);
        let update = node.start().expect("origin must be advertised");
        assert_eq!(update.entry_count(), 1);
        assert_eq!(update.advertisements[0].destination, Fig1::D);
        let info = &update.advertisements[0].info;
        assert_eq!(info.path().unwrap().len(), 1);
        assert_eq!(info.path().unwrap()[0].cost, Cost::new(1));
    }

    #[test]
    fn handle_learns_and_forwards() {
        let g = fig1();
        let mut d = PlainBgpNode::new(&g, Fig1::D);
        let mut z = PlainBgpNode::new(&g, Fig1::Z);
        let z_origin = Arc::new(z.start().unwrap());
        let out = d.handle(&[z_origin]).expect("new route must be advertised");
        // D now advertises its route to Z (D, Z with cost 0) besides having
        // learned it.
        assert!(out
            .advertisements
            .iter()
            .any(|ad| ad.destination == Fig1::Z));
        assert_eq!(
            d.selector().route_cost(Fig1::Z),
            Cost::ZERO,
            "one-hop route has no transit"
        );
    }

    #[test]
    fn duplicate_updates_produce_silence() {
        let g = fig1();
        let mut d = PlainBgpNode::new(&g, Fig1::D);
        let mut z = PlainBgpNode::new(&g, Fig1::Z);
        let z_origin = Arc::new(z.start().unwrap());
        assert!(d.handle(std::slice::from_ref(&z_origin)).is_some());
        assert!(
            d.handle(&[z_origin]).is_none(),
            "re-delivery of identical state must not re-advertise"
        );
    }

    #[test]
    fn full_table_covers_all_destinations() {
        let g = fig1();
        let mut d = PlainBgpNode::new(&g, Fig1::D);
        let mut z = PlainBgpNode::new(&g, Fig1::Z);
        d.handle(&[Arc::new(z.start().unwrap())]);
        let table = d.full_table().unwrap();
        assert_eq!(table.entry_count(), 2); // D itself and Z
    }

    #[test]
    fn link_down_withdraws_lost_routes() {
        let g = fig1();
        let mut d = PlainBgpNode::new(&g, Fig1::D);
        let mut z = PlainBgpNode::new(&g, Fig1::Z);
        d.handle(&[Arc::new(z.start().unwrap())]);
        let out = d
            .apply_event(LocalEvent::LinkDown(Fig1::Z))
            .expect("losing the only route must produce a withdrawal");
        let ad = out
            .advertisements
            .iter()
            .find(|ad| ad.destination == Fig1::Z)
            .expect("withdrawal for Z");
        assert_eq!(ad.info, RouteInfo::Withdrawn);
    }

    #[test]
    fn cost_change_readvertises_table() {
        let g = fig1();
        let mut d = PlainBgpNode::new(&g, Fig1::D);
        d.start();
        let out = d
            .apply_event(LocalEvent::CostChange(Cost::new(42)))
            .expect("cost change must re-advertise");
        let info = &out.advertisements[0].info;
        assert_eq!(info.path().unwrap()[0].cost, Cost::new(42));
    }

    #[test]
    fn reset_restores_just_constructed_behaviour() {
        let g = fig1();
        let mut d = PlainBgpNode::new(&g, Fig1::D);
        let mut z = PlainBgpNode::new(&g, Fig1::Z);
        d.start();
        let z_origin = Arc::new(z.start().unwrap());
        d.handle(std::slice::from_ref(&z_origin));
        d.reset();
        // Learned route is gone; the node behaves exactly like a fresh one:
        // start() re-advertises the origin, and re-delivery of Z's origin is
        // a change again (the suppression memory was wiped).
        assert_eq!(d.selector().route_cost(Fig1::Z), Cost::INFINITE);
        assert!(d.start().is_some(), "restart re-advertises the origin");
        assert!(d.handle(&[z_origin]).is_some());
    }

    #[test]
    fn state_snapshot_counts_entries() {
        let g = fig1();
        let mut d = PlainBgpNode::new(&g, Fig1::D);
        let mut z = PlainBgpNode::new(&g, Fig1::Z);
        d.handle(&[Arc::new(z.start().unwrap())]);
        let snap = d.state();
        assert_eq!(snap.table_entries, 2);
        assert_eq!(snap.table_path_nodes, 1 + 2);
        assert_eq!(snap.rib_entries, 1);
        assert_eq!(snap.price_entries, 0);
    }

    #[test]
    fn out_of_range_ids_neither_panic_nor_grow_a_graph_built_node() {
        use crate::message::PathEntry;
        let g = fig1();
        let mut d = PlainBgpNode::new(&g, Fig1::D);
        let huge = AsId::new(u32::MAX);
        let hop = |node, cost| PathEntry {
            node,
            cost: Cost::new(cost),
        };
        let reach = |destination, path: Vec<PathEntry>| RouteAdvertisement {
            destination,
            info: RouteInfo::Reachable {
                path: path.into(),
                path_cost: Cost::ZERO,
                prices: Vec::new(),
            },
        };
        let before = d.state();
        let hostile = Update::if_nonempty(
            Fig1::Z,
            vec![
                reach(huge, vec![hop(Fig1::Z, 4), hop(huge, 1)]),
                reach(
                    Fig1::X,
                    vec![hop(Fig1::Z, 4), hop(huge, 1), hop(Fig1::X, 1)],
                ),
            ],
        )
        .unwrap();
        assert!(d.selector.ingest(&hostile).is_empty(), "nothing affected");
        assert!(d.handle(&[Arc::new(hostile)]).is_none());
        assert_eq!(d.state(), before);
        assert_eq!(d.selector().route_cost(huge), Cost::INFINITE);
        assert_eq!(d.selector().destinations().count(), 1);
    }
}
