//! The protocol-node abstraction and the one node that implements it.
//!
//! The paper states the whole protocol as one step (Sect. 5–6): ingest the
//! neighbors' tables, select the lowest-cost path, relax the price array,
//! advertise on change. [`Node`] is that step; a [`PricePolicy`] names what
//! a cost model changes in it — nothing ([`NoPrices`], plain BGP), or terms
//! of the relaxation bound (the pricing models of `bgpvcg-core`).

use crate::dynamics::LocalEvent;
use crate::message::{PathEntry, RouteAdvertisement, RouteInfo, Update};
use crate::selector::{RouteSelector, SelectedRoute};
use crate::stats::StateSnapshot;
use bgpvcg_netgraph::{AsGraph, AsId, Cost};
use std::fmt;
use std::marker::PhantomData;
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
    /// optimization; implementors with an adj-RIB-out forward this to it.
    fn configure_delta_encoding(&mut self, _on: bool) {}
}

/// `mark` value of an AS the call in progress has not placed: a
/// destination no inbound update has touched yet, or a node that is not
/// transit on the route being relaxed.
const NOT_DIRTY: u32 = u32::MAX;

/// One destination a `handle` call touched: the id of the last inbound
/// update that touched it, and whether anything but a price delta did
/// (only then can its selection change).
type Dirty = (AsId, u64, bool);

/// The stamp of a transit node no neighbor's path has held yet.
const UNSTAMPED: u32 = u32::MAX;

/// Lowers `bound` to `to` if that is smaller. Most bounds offered do not
/// improve on the one held, so the store is skipped for them: one slot is
/// lowered by every neighbor in turn, and an unconditional store would
/// chain each neighbor's read of it to the previous neighbor's write.
fn lower(bound: &mut Cost, to: Cost) {
    if to < *bound {
        *bound = to;
    }
}

/// Pairs destinations with cause 0, the environment: what `start` and
/// local events hand to [`AdjRibOut::emit`].
fn uncaused(dests: impl IntoIterator<Item = AsId>) -> impl Iterator<Item = (AsId, u64)> {
    dests.into_iter().map(|dest| (dest, 0))
}

/// Adj-RIB-Out: what a node last advertised per destination, and with it
/// the advertise-on-change step — folding a stage's
/// inbox into a dirty list with provenance, suppressing unchanged
/// advertisements, and compressing price-only changes to
/// [`RouteInfo::PriceDelta`]. Tables are indexed by destination and the
/// scratch is reused, so a `handle` call allocates only what it emits.
#[derive(Debug, Clone)]
struct AdjRibOut {
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
    /// the id of the last inbound update (in inbox order) that touched it
    /// and whether any touch could re-route it. Lent to the caller by
    /// `ingest`, returned through `recycle`.
    dirty: Vec<Dirty>,
    /// An AS-indexed position table, all [`NOT_DIRTY`] between uses. Inside
    /// `ingest` it holds each destination's position in `dirty`; inside
    /// `Node::relax`, each transit node's position on the route relaxed.
    mark: Vec<u32>,
}

impl AdjRibOut {
    /// An empty Adj-RIB-Out for a node of an `n`-node network.
    fn new(n: usize) -> Self {
        AdjRibOut {
            advertised: vec![None; n],
            delta_encoding: true,
            dirty: Vec::new(),
            mark: vec![NOT_DIRTY; n],
        }
    }

    /// Ingests one stage's inbox into `selector` and returns the affected
    /// destinations, ascending, each attributed to the last inbound update
    /// whose ingestion touched it and flagged if any touch was more than a
    /// price delta. The list is this value's own buffer: hand it back with
    /// [`recycle`](Self::recycle) once emitted.
    fn ingest(&mut self, selector: &mut RouteSelector, updates: &[Arc<Update>]) -> Vec<Dirty> {
        let mut dirty = std::mem::take(&mut self.dirty);
        for update in updates {
            for (dest, reroute) in selector.ingest_flagged(update) {
                let Some(mark) = self.mark.get_mut(dest.index()) else {
                    continue;
                };
                match dirty.get_mut(*mark as usize) {
                    Some(touched) => {
                        touched.1 = update.id;
                        touched.2 |= reroute;
                    }
                    None => {
                        *mark = dirty.len() as u32;
                        dirty.push((dest, update.id, reroute));
                    }
                }
            }
        }
        for &(dest, ..) in &dirty {
            self.mark[dest.index()] = NOT_DIRTY;
        }
        dirty.sort_unstable_by_key(|&(dest, ..)| dest);
        dirty
    }

    /// Takes back the list [`ingest`](Self::ingest) lent out.
    fn recycle(&mut self, mut dirty: Vec<Dirty>) {
        dirty.clear();
        self.dirty = dirty;
    }

    /// Builds the outgoing update for the given `(destination, cause)`
    /// pairs: each destination's current state — `selector`'s route plus
    /// its row of `prices` — is compared with what was last advertised, and
    /// what differs is sent and recorded. The update's `causes` vector is
    /// built in lockstep with its advertisements.
    fn emit(
        &mut self,
        selector: &RouteSelector,
        dests: impl IntoIterator<Item = (AsId, u64)>,
        prices: &[Vec<Cost>],
    ) -> Option<Update> {
        // Nearly every destination that reaches this point has changed, so
        // both output lists are sized once instead of grown by doubling.
        let dests = dests.into_iter();
        // lint:allow(output: the emitted update's advertisement list)
        let mut ads = Vec::with_capacity(dests.size_hint().0);
        // lint:allow(output: the emitted update's provenance list)
        let mut causes = Vec::with_capacity(dests.size_hint().0);
        for (dest, cause) in dests {
            if let Some(info) = self.diff(dest, selector.selected(dest), row(prices, dest)) {
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
}

/// What a cost model changes in the node step. The relaxation bound
/// (stated once, in `Node::relax`) has one shape for every model; a policy
/// supplies the terms that differ, and where a node's configuration comes
/// from. The defaults are the paper's base model — one scalar cost per
/// node — so a generalization states only what it changes.
pub trait PricePolicy: fmt::Debug + Clone + Send + 'static {
    /// The graph a node of this model is built from, around its topology.
    type Graph: AsRef<AsGraph>;

    /// Whether the model carries prices at all; `false` makes the
    /// relaxation a compile-time no-op.
    const PRICED: bool = true;

    /// Whether a scalar [`LocalEvent::CostChange`] means anything to the
    /// model.
    const SCALAR_COST: bool = true;

    /// The scalar transit cost node `id` stamps into the head entry of
    /// every route it extends. Its origin route `[id]` carries
    /// [`Cost::ZERO`] whatever this returns: a destination is never
    /// transit.
    fn declared_cost(graph: &Self::Graph, id: AsId) -> Cost {
        graph.as_ref().cost(id)
    }

    /// The receive-cost vector node `id` attaches to every UPDATE it sends
    /// (empty where the model has none).
    fn sender_costs(_graph: &Self::Graph, _id: AsId) -> Vec<(AsId, Cost)> {
        Vec::new()
    }

    /// `c_a`: what neighbor `a` charges for a transit packet this node
    /// hands it, given the path `a` advertised. `None` when that is not
    /// known yet, and `a` then offers no bound.
    fn charged_by(_selector: &RouteSelector, _a: AsId, a_path: &[PathEntry]) -> Option<Cost> {
        a_path.first().map(|entry| entry.cost)
    }

    /// What the case-(iv) bound for transit node `k` starts from, before
    /// the shift: the part of `k`'s price that no detour removes.
    fn detour_base(k: &PathEntry) -> Cost {
        k.cost
    }

    /// How the stored entry for transit node `k` of the selected route
    /// reads back as the price `p^k`.
    fn price(_k: &PathEntry, stored: Cost) -> Cost {
        stored
    }
}

/// Plain lowest-cost-path BGP: route selection and advertisement, no
/// prices.
#[derive(Debug, Clone, Copy)]
pub struct NoPrices;

impl PricePolicy for NoPrices {
    type Graph = AsGraph;
    const PRICED: bool = false;
}

/// A plain lowest-cost-path BGP speaker. This is the baseline protocol the
/// paper extends; experiments E5/E6 compare its state and traffic against
/// the pricing extension.
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
pub type PlainBgpNode = Node<NoPrices>;

/// `dest`'s price array: empty for a destination without one — in an
/// unpriced model, every destination.
fn row(prices: &[Vec<Cost>], dest: AsId) -> &[Cost] {
    prices.get(dest.index()).map_or(&[], Vec::as_slice)
}

/// A BGP speaker: the shared decision process ([`RouteSelector`]), a
/// per-destination price array relaxed from the neighbors' advertised
/// arrays as `P` directs, and the advertise-on-change step (an
/// Adj-RIB-Out). Route selection is the same code for every `P` — the
/// paper's price computation is an *extension* of BGP, not a new protocol.
#[derive(Debug, Clone)]
pub struct Node<P: PricePolicy> {
    selector: RouteSelector,
    /// Per destination (index `dest.index()`): the entries `P` relaxes —
    /// prices `p^k_ij`, or margins — aligned with the selected route's
    /// transit nodes; empty where the route has none, and no rows at all
    /// in an unpriced model. Recomputed from scratch on every refresh; see
    /// `relax`.
    prices: Vec<Vec<Cost>>,
    /// Change suppression and delta compression of what goes out.
    out: AdjRibOut,
    /// What `relax` relaxes into, reused across calls: per transit node of
    /// the route, its bound so far and the ordinal of the last neighbor
    /// whose path holds it.
    scratch: Vec<(Cost, u32)>,
    /// This node's declared receive-cost vector over its live links,
    /// attached to every UPDATE (empty in the paper's base model).
    sender_costs: Vec<(AsId, Cost)>,
    /// The configured vector, over every link of the graph the node was
    /// built from: what a link coming (back) up declares again.
    configured_costs: Vec<(AsId, Cost)>,
    policy: PhantomData<P>,
}

impl<P: PricePolicy> Node<P> {
    /// Creates the node for AS `id` of the graph.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in the graph.
    pub fn new(graph: &P::Graph, id: AsId) -> Self {
        let topology = graph.as_ref();
        let n = topology.node_count();
        Node {
            selector: RouteSelector::with_node_count(
                id,
                P::declared_cost(graph, id),
                topology.neighbors(id).iter().copied(),
                n,
            ),
            prices: vec![Vec::new(); if P::PRICED { n } else { 0 }],
            out: AdjRibOut::new(n),
            scratch: Vec::new(),
            sender_costs: P::sender_costs(graph, id),
            configured_costs: P::sender_costs(graph, id),
            policy: PhantomData,
        }
    }

    /// Creates one node per AS of the graph, in AS order — ready to hand to
    /// an engine.
    pub fn from_graph(graph: &P::Graph) -> Vec<Self> {
        let ids = graph.as_ref().nodes();
        ids.map(|id| Node::new(graph, id)).collect()
    }

    /// Read access to the decision process (selected routes, Rib-In).
    pub fn selector(&self) -> &RouteSelector {
        &self.selector
    }

    /// The current price `p^k_{i,dest}` for transit node `k` of the
    /// selected route to `dest`; `None` if `k` is not transit on it — in
    /// particular for this node's own destination, an unknown one, and a
    /// route without transit nodes.
    pub fn price(&self, dest: AsId, k: AsId) -> Option<Cost> {
        let path = &self.selector.selected(dest)?.path;
        let transit = path.get(1..path.len().checked_sub(1)?)?;
        let mut entries = transit.iter().zip(self.price_row(dest));
        let (entry, &stored) = entries.find(|(entry, _)| entry.node == k)?;
        Some(P::price(entry, stored))
    }

    /// The stored entries for `dest`, aligned with the selected route's
    /// transit nodes: entry `m` belongs to `path[m + 1]` and reads back as
    /// its price through [`PricePolicy::price`]. Empty for a destination
    /// without transit nodes, and in an unpriced model. Reading a whole
    /// route's prices this way is one pass, where [`Node::price`] per
    /// transit node searches the path each time.
    pub fn price_row(&self, dest: AsId) -> &[Cost] {
        row(&self.prices, dest)
    }

    /// One relaxation pass for `dest`: recomputes the array *from scratch*
    /// — reset every entry to `∞`, then apply every neighbor bound
    /// available in the current Rib-In. Returns `true` if the stored array
    /// changed.
    ///
    /// Recomputing from scratch (rather than taking a running minimum
    /// across passes, as the paper's static-network presentation does) is
    /// the realization of the paper's rule that "price computation must
    /// start over whenever there is a route change": the array is a pure
    /// function of the current Rib-In, so bounds grounded in routes that no
    /// longer exist are flushed as soon as the corrected advertisements
    /// arrive. In a static network every available bound is valid (never
    /// below the true price — see the case analysis below), so the result
    /// and the `max(d, d′)` convergence bound are unchanged; within one
    /// pass the entries still only relax downward from `∞`, exactly as in
    /// Fig. 3.
    ///
    /// A pass costs O(deg · L) for paths of length L, not O(deg · L²): it
    /// never searches a neighbor's path for a transit node. Once per call,
    /// each of our transit nodes' positions goes into an AS-indexed table
    /// (the Adj-RIB-Out's `mark`, idle outside its `ingest`), and is
    /// cleared again at the end. Each neighbor's path is then walked once,
    /// interior only — its first entry is the neighbor itself, which offers
    /// no bound for itself, and its last is `dest`, never transit on our
    /// route — and every transit node met there takes the case (i)–(iii)
    /// bound and a stamp with the neighbor's ordinal. One pass over our
    /// transit gives every node left unstamped, other than the neighbor,
    /// the case-(iv) bound. Stamps are ordinals, so they are reset once per
    /// call, not once per neighbor: on short paths through high-degree
    /// nodes, per-neighbor setup would cost more than the walk saves.
    fn relax(&mut self, dest: AsId) -> bool {
        if !P::PRICED {
            return false;
        }
        let Some(stored) = self.prices.get_mut(dest.index()) else {
            return false;
        };
        let transit: &[PathEntry] = match self.selector.selected(dest) {
            Some(route) if dest != self.selector.id() => &route.path[1..route.path.len() - 1],
            _ => &[],
        };
        if transit.is_empty() {
            // Own destination, no route, or a route without transit nodes.
            let had_prices = !stored.is_empty();
            stored.clear();
            return had_prices;
        }
        let my_route_cost = self.selector.route_cost(dest);
        self.scratch.clear();
        self.scratch
            .resize(transit.len(), (Cost::INFINITE, UNSTAMPED));
        let slots = self.scratch.as_mut_slice();
        let position = self.out.mark.as_mut_slice();
        for (slot, k_entry) in (0u32..).zip(transit) {
            if let Some(cell) = position.get_mut(k_entry.node.index()) {
                *cell = slot;
            }
        }

        // The paper states its relaxation as four cases by the neighbor's
        // position in the tree T(j) — parent (i), child (ii), unrelated
        // with k on the neighbor's LCP (iii), unrelated without (iv). All
        // of (i)–(iii) are instances of a single bound,
        //
        //   p^k_ij ≤ p^k_aj + c_a + c(a,j) − c(i,j),
        //
        // evaluated on the advertisement's own (prices, path cost) pair:
        // for a parent, c(i,j) = c_a + c(a,j) collapses it to case (i); for
        // a child, c(a,j) = c_i + c(i,j) collapses it to case (ii). Using
        // the unified form is not just shorter — it is *required* for
        // asynchronous correctness: classifying parent/child from the
        // Rib-In can be stale (the neighbor's advertised path may pass
        // through an old route of ours), and applying case (ii) with our
        // current c(i,j) against a stale advertisement can produce an
        // invalid, too-low bound that monotone relaxation never recovers
        // from. The unified bound only combines values from one internally
        // consistent advertisement plus our current route cost, and is
        // valid for every neighbor and every interleaving (the advertised
        // prices-plus-path-cost sum is grounded in real k-avoiding paths).
        // Case (iv) is the same bound with `P::detour_base(k)` standing in
        // for the advertised entry. A cost model only chooses `c_a`
        // (`P::charged_by`) and that base; the shape is shared.
        // Neighbors are the outer loop so the per-advertisement values
        // (`c_a`, shift) are hoisted out of both inner passes and the
        // Rib-In row is walked once. The component-wise minimum is
        // order-independent, so the array is identical either way.
        for (ordinal, (a, info)) in (0u32..).zip(self.selector.rib_for(dest)) {
            let RouteInfo::Reachable {
                path: a_path,
                path_cost: a_route_cost,
                prices: a_prices,
            } = info
            else {
                continue;
            };
            let Some(a_charges) = P::charged_by(&self.selector, a, a_path) else {
                continue;
            };
            // Shift shared by all cases; a transiently inconsistent
            // Rib-In can make it negative, in which case the bound is
            // skipped (it would have been invalid anyway).
            let Some(shift) = (a_charges + *a_route_cost).checked_sub(my_route_cost) else {
                continue;
            };
            // Cases (i)/(ii)/(iii): k is a transit node of a's advertised
            // path, whose array bounds the cost of a's best k-avoiding
            // path. Well-formed paths are simple, so each k is met at most
            // once, and never at position 0 (k == a).
            let interior = a_path.get(1..a_path.len().saturating_sub(1));
            for (at, entry) in (1..).zip(interior.unwrap_or_default()) {
                let placed = position.get(entry.node.index());
                // A node that is not transit on our route reads NOT_DIRTY,
                // which is no slot.
                let Some((bound, stamp)) = placed.and_then(|&slot| slots.get_mut(slot as usize))
                else {
                    continue;
                };
                *stamp = ordinal;
                // An array shorter than its path bounds nothing here.
                if let Some(&p) = a_prices.get(at - 1) {
                    lower(bound, p + shift);
                }
            }
            // Case (iv): k is not on a's path at all, so that path
            // extended by the link i–a is itself k-avoiding. Excluded: the
            // link i–a is never on a k-avoiding path when a IS k, so that
            // neighbor offers no bound for k.
            for (k_entry, (bound, stamp)) in transit.iter().zip(slots.iter_mut()) {
                if *stamp != ordinal && k_entry.node != a {
                    lower(bound, P::detour_base(k_entry) + shift);
                }
            }
        }
        for k_entry in transit {
            if let Some(cell) = position.get_mut(k_entry.node.index()) {
                *cell = NOT_DIRTY;
            }
        }

        crate::engine::invariants::relaxation_step(transit, slots);
        let relaxed = slots.iter().map(|&(bound, _)| bound);
        let changed = !stored.iter().copied().eq(relaxed.clone());
        if changed {
            stored.clear();
            stored.extend(relaxed);
        }
        changed
    }

    /// Advertises whichever of `dests` changed since last advertised, with
    /// this node's receive-cost vector attached.
    fn emit(&mut self, dests: impl IntoIterator<Item = (AsId, u64)>) -> Option<Update> {
        let mut update = self.out.emit(&self.selector, dests, &self.prices)?;
        update.sender_costs.clone_from(&self.sender_costs);
        Some(update)
    }
}

impl<P: PricePolicy> ProtocolNode for Node<P> {
    fn id(&self) -> AsId {
        self.selector.id()
    }

    fn configure_delta_encoding(&mut self, on: bool) {
        self.out.delta_encoding = on;
    }

    fn start(&mut self) -> Option<Update> {
        self.emit(uncaused([self.selector.id()]))
    }

    fn handle(&mut self, updates: &[Arc<Update>]) -> Option<Update> {
        let mut dirty = self.out.ingest(&mut self.selector, updates);
        // Only a route change re-opens selection: a destination only price
        // deltas touched keeps its route and goes straight to relaxation.
        dirty.retain(|&(dest, _, reroute)| {
            let route_changed = reroute && self.selector.decide(dest);
            self.relax(dest) || route_changed
        });
        let update = self.emit(dirty.iter().map(|&(dest, cause, _)| (dest, cause)));
        self.out.recycle(dirty);
        update
    }

    fn apply_event(&mut self, event: LocalEvent) -> Option<Update> {
        match event {
            LocalEvent::LinkDown(neighbor) => {
                // Only the destinations the vanished Rib-In covered can
                // change: both route selection and the relaxation draw
                // their candidates/bounds for `dest` exclusively from rib
                // entries *for `dest`*, and a refresh recomputes from
                // scratch as a pure function of the current Rib-In — so
                // every other destination's route and price array are
                // provably unchanged and need no recompute (and the dead
                // link's bounds are flushed exactly where they could
                // exist).
                let affected = self.selector.rib_destinations(neighbor);
                // Re-decides `affected`. The dead link's entry also leaves
                // the declared vector, which is attached to whatever this
                // emit (and later ones) sends.
                self.selector.link_down(neighbor);
                self.sender_costs.retain(|&(a, _)| a != neighbor);
                for &dest in &affected {
                    self.relax(dest);
                }
                self.emit(uncaused(affected))
            }
            LocalEvent::LinkUp(neighbor) => {
                self.selector.link_up(neighbor);
                // The link's configured receive cost is declared again, in
                // configuration order.
                let live = |&&(a, _): &&(AsId, Cost)| self.selector.has_neighbor(a);
                self.sender_costs = self.configured_costs.iter().filter(live).copied().collect();
                None // the engine sends `full_table` to the new neighbor
            }
            // Where the model has no scalar cost, re-declarations are a
            // static-model concern: rebuild the node set for a new graph.
            LocalEvent::CostChange(_) if !P::SCALAR_COST => None,
            LocalEvent::CostChange(cost) => {
                // The declared cost never enters this node's *own*
                // relaxation — the bound combines neighbor-advertised
                // values with our route's transit cost only — so the price
                // arrays are untouched. Re-advertise exactly the table
                // entries whose first path entry restamped
                // (`set_declared_cost` reports them; none for a no-op, and
                // never the origin route, whose entry carries no cost).
                let changed = self.selector.set_declared_cost(cost);
                self.emit(uncaused(changed))
            }
        }
    }

    fn full_table(&self) -> Option<Update> {
        // Reads the table, not what was last advertised.
        let reachable = |dest| {
            let route = self.selector.selected(dest)?;
            Some(RouteAdvertisement {
                destination: dest,
                info: RouteInfo::Reachable {
                    path: route.path.clone(),
                    path_cost: route.cost,
                    prices: row(&self.prices, dest).to_vec(),
                },
            })
        };
        let ads = self.selector.destinations().filter_map(reachable).collect();
        let table = Update::if_nonempty(self.selector.id(), ads)?;
        Some(table.with_sender_costs(self.sender_costs.clone()))
    }

    fn reset(&mut self) {
        // The declared vector is configuration, not learned state: a
        // restarted node still charges the same per-neighbor receive costs.
        self.selector.reset();
        self.prices.iter_mut().for_each(Vec::clear);
        self.out.advertised.fill(None);
    }

    fn state(&self) -> StateSnapshot {
        // The shared structures, plus the extension's price state (own
        // arrays and the arrays remembered in the Rib-In are both part of
        // the node's footprint; the former is the paper's "added state").
        // The arrays are stored here aligned with the selected route's
        // transit slice, but a deployable encoding labels each entry with
        // the transit node it prices — one AS cell per entry, counted as
        // `price_path_nodes`.
        let mut snapshot = self.selector.state();
        snapshot.price_entries = self.prices.iter().map(Vec::len).sum();
        snapshot.price_path_nodes = snapshot.price_entries;
        snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpvcg_netgraph::generators::from_edges;

    /// The paper's base cost model: every policy term at its default.
    #[derive(Debug, Clone, Copy)]
    struct Priced;

    impl PricePolicy for Priced {
        type Graph = AsGraph;
    }

    /// One reachable advertisement from the path's first node for its
    /// last, every node declaring cost 1.
    fn advertises(path: &[u32], path_cost: u64, prices: &[u64]) -> RouteAdvertisement {
        let entries: Vec<PathEntry> = path
            .iter()
            .map(|&raw| PathEntry {
                node: AsId::new(raw),
                cost: Cost::new(1),
            })
            .collect();
        RouteAdvertisement {
            destination: entries[entries.len() - 1].node,
            info: RouteInfo::Reachable {
                path: entries.into(),
                path_cost: Cost::new(path_cost),
                prices: prices.iter().map(|&p| Cost::new(p)).collect(),
            },
        }
    }

    fn update(from: u32, ads: Vec<RouteAdvertisement>) -> Arc<Update> {
        Arc::new(Update::if_nonempty(AsId::new(from), ads).unwrap())
    }

    #[test]
    fn sized_node_never_sizes_or_prices_by_id_value() {
        // Node 0 of a unit-cost 5-cycle reaches 2 via 1; 4's detour around
        // 1 prices it by case (iv) at c_1 + c_4 + c(4,2) − c(0,2) = 2.
        let ring = from_edges(
            vec![Cost::new(1); 5],
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)],
        );
        let (dest, transit) = (AsId::new(2), AsId::new(1));
        let mut node = Node::<Priced>::new(&ring, AsId::new(0));
        node.handle(&[
            update(1, vec![advertises(&[1, 2], 0, &[])]),
            update(4, vec![advertises(&[4, 3, 2], 1, &[5])]),
        ]);
        assert_eq!(node.price(dest, transit), Some(Cost::new(2)));
        let before = node.state();

        // The id as a transit node on a path to a destination in range, and
        // as a destination: both are dropped before any table is indexed.
        let huge = u32::MAX;
        let hostile = update(
            4,
            vec![
                advertises(&[4, huge, 2], 1, &[0]),
                advertises(&[4, huge], 0, &[]),
            ],
        );
        assert!(node.handle(&[hostile]).is_none());
        assert_eq!(node.price(dest, transit), Some(Cost::new(2)));
        assert_eq!(node.price(AsId::new(huge), transit), None);
        assert_eq!(node.state(), before);
        // The position table keeps its size and is idle again; the
        // relaxation scratch never outgrows the longest route.
        assert_eq!(node.out.mark, [NOT_DIRTY; 5]);
        assert_eq!(node.prices.len(), 5);
        assert!(node.scratch.len() <= 1);
    }
}
