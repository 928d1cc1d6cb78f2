//! The protocol-node abstraction and the one node that implements it.
//!
//! The paper states the whole protocol as one step (Sect. 5–6): ingest the
//! neighbors' tables, select the lowest-cost path, relax the price array,
//! advertise on change. [`Node`] is that step; a [`PricePolicy`] names what
//! a cost model changes in it — nothing ([`NoPrices`], plain BGP), or terms
//! of the relaxation bound (the pricing models of `bgpvcg-core`).

use crate::dynamics::LocalEvent;
use crate::message::{PathEntry, RouteAdvertisement, RouteInfo, SharedPath, Update};
use crate::rib::{PriceSlab, RouteView, Span};
use crate::selector::RouteSelector;
use crate::stats::StateSnapshot;
use bgpvcg_netgraph::{AsGraph, AsId, Cost};
use std::cell::RefCell;
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
    /// link set, but empty RIBs and prices. The chaos harness calls this to
    /// model a crash followed by a restart; the node relearns everything
    /// through session re-establishment afterwards.
    fn reset(&mut self);

    /// Sizes of the node's protocol state, for the E5 experiment.
    fn state(&self) -> StateSnapshot;

    /// Enables or disables price-delta advertisement emission (wire v2's
    /// compression hook). Default: no-op, for node types without the
    /// optimization; a node that relaxes prices builds each delta from the
    /// row it is about to overwrite, and sends that row whole instead while
    /// this is off.
    fn configure_delta_encoding(&mut self, _on: bool) {}
}

/// `mark` value of an AS the call in progress has not placed: a
/// destination no inbound update has touched yet, or a node that is not
/// transit on the route being relaxed.
const NOT_DIRTY: u32 = u32::MAX;

/// One destination a step touched, and whether any touch can change its
/// selection (see [`RouteSelector::ingest_flagged`]) until selection has
/// run, and whether it did after.
type Dirty = (AsId, bool);

thread_local! {
    /// What `Node::announce` gathers before it sizes the update's
    /// advertisement list; empty between calls. One buffer per thread, not
    /// per node: a node would hold the capacity of its busiest step for the
    /// whole run, while this one is reused by every node the thread steps.
    static SAID: RefCell<Vec<RouteAdvertisement>> = const { RefCell::new(Vec::new()) };
}

/// The stamp of a transit node no neighbor's path has held yet.
const UNSTAMPED: u32 = u32::MAX;

/// One transit node of the route [`Node::relax`] relaxes.
#[derive(Clone, Copy)]
struct Slot {
    /// The node's entry on the route.
    entry: PathEntry,
    /// [`SharedPath::node_key`] of the route's suffix that starts there.
    suffix: usize,
    /// The bound so far.
    bound: Cost,
    /// The ordinal of the last neighbor whose path holds the node.
    stamp: u32,
}

/// Lowers `bound` to `to` if that is smaller. Most bounds offered do not
/// improve on the one held, so the store is skipped for them: one slot is
/// lowered by every neighbor in turn, and an unconditional store would
/// chain each neighbor's read of it to the previous neighbor's write.
fn lower(bound: &mut Cost, to: Cost) {
    if to < *bound {
        *bound = to;
    }
}

impl fmt::Debug for Slot {
    /// Everything but the suffix key: an address, which differs from run
    /// to run and means nothing outside the pass that took it.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Slot")
            .field("entry", &self.entry)
            .field("bound", &self.bound)
            .field("stamp", &self.stamp)
            .finish_non_exhaustive()
    }
}

/// What one relaxation pass did to a destination's price row.
enum Relaxed {
    /// The row is as it was.
    Same,
    /// The row moved, and no delta was asked for or one could not say it.
    Moved,
    /// The row moved, and this delta from the old row says how.
    Delta(RouteInfo),
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
    fn charged_by(_selector: &RouteSelector, _a: AsId, a_path: &SharedPath) -> Option<Cost> {
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

/// A BGP speaker: the shared decision process ([`RouteSelector`]), a
/// per-destination price array relaxed from the neighbors' advertised
/// arrays as `P` directs, and the advertise-on-change step, which sends
/// each change in the step that makes it. Route selection is the same code
/// for every `P` — the paper's price computation is an *extension* of BGP,
/// not a new protocol.
#[derive(Debug, Clone)]
pub struct Node<P: PricePolicy> {
    selector: RouteSelector,
    /// Per destination (index `dest.index()`): where in `prices` its row
    /// lies — the entries `P` relaxes, prices `p^k_ij` or margins, aligned
    /// with the selected route's transit nodes; empty where the route has
    /// none, and no spans at all in an unpriced model. Recomputed from
    /// scratch on every refresh; see `relax`.
    spans: Vec<Span>,
    /// Every destination's price row, back to back.
    prices: PriceSlab,
    /// Whether a destination whose prices alone moved on an unchanged
    /// selected path may go out as a [`RouteInfo::PriceDelta`] (the
    /// monotone-relaxation common case of Sect. 6). On by default.
    delta_encoding: bool,
    /// The destinations the `handle` call in progress touched, each with
    /// whether any touch can change its selection. Lent out by `ingest`,
    /// handed back once announced.
    dirty: Vec<Dirty>,
    /// An AS-indexed position table, all [`NOT_DIRTY`] between uses. Inside
    /// `ingest` it holds each destination's position in `dirty`; inside
    /// `relax`, each transit node's position on the route relaxed.
    mark: Vec<u32>,
    /// What `relax` relaxes into, reused across calls: one slot per
    /// transit node of the route.
    scratch: Vec<Slot>,
    /// The `(index, value)` pairs one `relax` call moved, reused across
    /// calls: a delta's entry list is copied out of it at its exact size.
    moved_entries: Vec<(u16, Cost)>,
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
            spans: vec![Span::default(); if P::PRICED { n } else { 0 }],
            prices: PriceSlab::default(),
            delta_encoding: true,
            dirty: Vec::new(),
            mark: vec![NOT_DIRTY; n],
            scratch: Vec::new(),
            moved_entries: Vec::new(),
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

    /// Ingests one stage's inbox into the selector and returns the affected
    /// destinations, ascending, each flagged if any touch can change the
    /// selection. The list is `dirty`, lent out: hand it back once
    /// announced.
    fn ingest(&mut self, updates: &[Arc<Update>]) -> Vec<Dirty> {
        let mut dirty = std::mem::take(&mut self.dirty);
        for update in updates {
            for (dest, reroute) in self.selector.ingest_flagged(update) {
                let Some(mark) = self.mark.get_mut(dest.index()) else {
                    continue;
                };
                match dirty.get_mut(*mark as usize) {
                    Some(touched) => touched.1 |= reroute,
                    None => {
                        *mark = dirty.len() as u32;
                        dirty.push((dest, reroute));
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
        let mut entries = path.transit().zip(self.price_row(dest));
        let (entry, &stored) = entries.find(|(entry, _)| entry.node == k)?;
        Some(P::price(&entry, stored))
    }

    /// The stored entries for `dest`, aligned with the selected route's
    /// transit nodes: entry `m` belongs to `path[m + 1]` and reads back as
    /// its price through [`PricePolicy::price`]. Empty for a destination
    /// without transit nodes, and in an unpriced model. Reading a whole
    /// route's prices this way is one pass, where [`Node::price`] per
    /// transit node searches the path each time.
    pub fn price_row(&self, dest: AsId) -> &[Cost] {
        self.spans
            .get(dest.index())
            .map_or(&[], |&span| self.prices.get(span))
    }

    /// One relaxation pass for `dest`: recomputes the array *from scratch*
    /// — reset every entry to `∞`, then apply every neighbor bound
    /// available in the current Rib-In — and reports whether the stored
    /// array moved. With `delta` set, a move is reported as the
    /// [`RouteInfo::PriceDelta`] from the stored array to the new one,
    /// where a delta can say it, built in the pass that overwrites it.
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
    /// (`mark`, idle outside `ingest`), and is cleared again at the end.
    /// Each neighbor's path is then walked once, interior only — its first
    /// entry is the neighbor itself, which offers no bound for itself, and
    /// its last is `dest`, never transit on our route — and every transit
    /// node met there takes the case (i)–(iii) bound and a stamp with the
    /// neighbor's ordinal. One pass over our
    /// transit gives every node left unstamped, other than the neighbor,
    /// the case-(iv) bound. Stamps are ordinals, so they are reset once per
    /// call, not once per neighbor: on short paths through high-degree
    /// nodes, per-neighbor setup would cost more than the walk saves.
    fn relax(&mut self, dest: AsId, delta: bool) -> Relaxed {
        if !P::PRICED {
            return Relaxed::Same;
        }
        let Some(span) = self.spans.get_mut(dest.index()) else {
            return Relaxed::Same;
        };
        let own = self.selector.id();
        let route = self.selector.selected(dest).filter(|_| dest != own);
        let Some(path) = route.map(|route| &route.path).filter(|path| path.len() > 2) else {
            // Own destination, no route, or a route without transit nodes.
            if span.len() == 0 {
                return Relaxed::Same;
            }
            self.prices.release(std::mem::take(span));
            return Relaxed::Moved;
        };
        let transit_len = path.len() - 2;
        let my_route_cost = self.selector.route_cost(dest);
        let unbounded = Slot {
            entry: PathEntry {
                node: own,
                cost: Cost::ZERO,
            },
            suffix: 0,
            bound: Cost::INFINITE,
            stamp: UNSTAMPED,
        };
        self.scratch.clear();
        self.scratch.resize(transit_len, unbounded);
        let slots = self.scratch.as_mut_slice();
        let position = self.mark.as_mut_slice();
        // Whether `slots` hold our transit yet, and `position` places it.
        let mut walked = false;

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
            let RouteView {
                path: a_path,
                path_cost: a_route_cost,
                prices: a_prices,
            } = info;
            let Some(a_charges) = P::charged_by(&self.selector, a, a_path) else {
                continue;
            };
            // Shift shared by all cases; a transiently inconsistent
            // Rib-In can make it negative, in which case the bound is
            // skipped (it would have been invalid anyway).
            let Some(shift) = (a_charges + a_route_cost).checked_sub(my_route_cost) else {
                continue;
            };
            // Routes to one destination share their tails (`T(j)` is a
            // tree), and two neighbors are placed by their tails alone, with
            // no path walked. One whose path continues as our next hop's
            // does — the next hop itself, or a sibling through the same
            // node — holds our slot `m + 1` at its price index `m`, and of
            // our slot 0, the next hop, only when it is that neighbor. One
            // whose path continues as our whole route — it routes through
            // us — holds our slot `m` at its index `m + 1`, and every slot.
            let hop = path.rest();
            let a_tail = a_path.rest();
            let continues = |ours: Option<&SharedPath>| {
                a_tail
                    .zip(ours)
                    .is_some_and(|(a_tail, ours)| a_tail.same_node(ours))
            };
            if continues(hop.and_then(SharedPath::rest)) {
                for (slot, &p) in slots.iter_mut().skip(1).zip(a_prices) {
                    lower(&mut slot.bound, p + shift);
                }
                let next_hop = hop.and_then(SharedPath::first);
                if let (Some(slot), Some(k_entry)) = (slots.first_mut(), next_hop) {
                    if k_entry.node != a {
                        lower(&mut slot.bound, P::detour_base(&k_entry) + shift);
                    }
                }
                continue;
            }
            if continues(Some(path)) {
                for (slot, &p) in slots.iter_mut().zip(a_prices.iter().skip(1)) {
                    lower(&mut slot.bound, p + shift);
                }
                continue;
            }
            // Any other neighbor is matched by AS: our transit, copied out
            // of the path once for all of them.
            if !walked {
                walked = true;
                for (slot, suffix) in slots.iter_mut().zip(path.suffixes().skip(1)) {
                    slot.entry = suffix.first().unwrap_or(slot.entry);
                    slot.suffix = suffix.node_key();
                }
                for (at, slot) in (0u32..).zip(slots.iter()) {
                    if let Some(cell) = position.get_mut(slot.entry.node.index()) {
                        *cell = at;
                    }
                }
            }
            // Cases (i)/(ii)/(iii): k is a transit node of a's advertised
            // path, whose array bounds the cost of a's best k-avoiding
            // path. Well-formed paths are simple, so each k is met at most
            // once, and never at position 0 (k == a).
            let interior = a_path.suffixes().skip(1);
            for (at, suffix) in (1..).zip(interior.take(a_path.len().saturating_sub(2))) {
                let Some(entry) = suffix.first() else {
                    break;
                };
                // A node that is not transit on our route reads NOT_DIRTY,
                // which is no slot.
                let Some(&placed) = position.get(entry.node.index()) else {
                    continue;
                };
                let Some(shared) = slots.get_mut(placed as usize..) else {
                    continue;
                };
                // Where a's path reaches a node of ours, the rest is ours
                // too (`T(j)` is a tree): its entries are our slots from
                // here on, in order, and need no walk.
                let tail = match shared.first() {
                    Some(slot) if slot.suffix == suffix.node_key() => shared.len(),
                    _ => 1,
                };
                for (step, slot) in shared.iter_mut().take(tail).enumerate() {
                    slot.stamp = ordinal;
                    // An array shorter than its path bounds nothing here.
                    if let Some(&p) = a_prices.get(at - 1 + step) {
                        lower(&mut slot.bound, p + shift);
                    }
                }
                if tail > 1 {
                    break;
                }
            }
            // Case (iv): k is not on a's path at all, so that path
            // extended by the link i–a is itself k-avoiding. Excluded: the
            // link i–a is never on a k-avoiding path when a IS k, so that
            // neighbor offers no bound for k.
            for slot in slots.iter_mut() {
                if slot.stamp != ordinal && slot.entry.node != a {
                    lower(&mut slot.bound, P::detour_base(&slot.entry) + shift);
                }
            }
        }
        for slot in slots.iter().filter(|_| walked) {
            if let Some(cell) = position.get_mut(slot.entry.node.index()) {
                *cell = NOT_DIRTY;
            }
        }

        crate::engine::invariants::relaxation_step(transit_len, slots);
        let relaxed = slots.iter().map(|slot| slot.bound);
        if span.len() != slots.len() {
            // A re-route changed the transit count: the neighbors get the
            // whole row.
            self.prices.put(span, relaxed);
            self.prices.tidy_spans(self.spans.iter_mut());
            return Relaxed::Moved;
        }
        // Same length: overwrite in place, listing what moved for the delta
        // (a `u16` index reaches every entry of a row this short).
        let listed = delta && slots.len() <= usize::from(u16::MAX);
        self.moved_entries.clear();
        let mut moved = false;
        for (idx, (held, new)) in self
            .prices
            .get_mut(*span)
            .iter_mut()
            .zip(relaxed)
            .enumerate()
        {
            if *held != new {
                *held = new;
                moved = true;
                if listed {
                    self.moved_entries.push((idx as u16, new));
                }
            }
        }
        match (moved, route) {
            (false, _) => Relaxed::Same,
            (true, Some(route)) if listed => Relaxed::Delta(RouteInfo::PriceDelta {
                base_path_hash: route.path.hash64(),
                entries: self.moved_entries.to_vec(),
            }),
            (true, _) => Relaxed::Moved,
        }
    }

    /// `dest`'s state as a full advertisement: the selected route with its
    /// price row, or a withdrawal where there is no route.
    fn current(&self, dest: AsId) -> RouteInfo {
        let Some(route) = self.selector.selected(dest) else {
            return RouteInfo::Withdrawn;
        };
        RouteInfo::Reachable {
            path: route.path.clone(),
            path_cost: route.cost,
            prices: self.price_row(dest).to_vec(),
        }
    }

    /// What `dest` advertises once its selection has run: its prices are
    /// relaxed, then a re-routed destination sends its whole state (a
    /// withdrawal if it lost its route), one whose prices alone moved sends
    /// a delta (its whole state when delta encoding is off or a delta
    /// cannot say the move), and an unchanged one sends nothing. The
    /// neighbors heard every earlier change the same way, so the stored
    /// row is what they hold, and the delta is built against it.
    fn advertise(&mut self, dest: AsId, rerouted: bool) -> Option<RouteInfo> {
        match self.relax(dest, !rerouted && self.delta_encoding) {
            Relaxed::Delta(delta) => Some(delta),
            Relaxed::Same if !rerouted => None,
            _ => Some(self.current(dest)),
        }
    }

    /// The update for one step's touched destinations, in order: what each
    /// of them advertises, with this node's receive-cost vector attached;
    /// `None` when none of them changed. Its advertisement list is sized by
    /// what is advertised, not by what was touched.
    fn announce(&mut self, touched: &[Dirty]) -> Option<Update> {
        let ads = SAID.with_borrow_mut(|said| {
            for &(destination, rerouted) in touched {
                if let Some(info) = self.advertise(destination, rerouted) {
                    said.push(RouteAdvertisement { destination, info });
                }
            }
            let mut ads = Vec::with_capacity(said.len());
            ads.append(said);
            ads
        });
        let mut update = Update::if_nonempty(self.selector.id(), ads)?;
        update.sender_costs.clone_from(&self.sender_costs);
        Some(update)
    }
}

impl<P: PricePolicy> ProtocolNode for Node<P> {
    fn id(&self) -> AsId {
        self.selector.id()
    }

    fn configure_delta_encoding(&mut self, on: bool) {
        self.delta_encoding = on;
    }

    fn start(&mut self) -> Option<Update> {
        self.announce(&[(self.selector.id(), true)])
    }

    fn handle(&mut self, updates: &[Arc<Update>]) -> Option<Update> {
        let mut dirty = self.ingest(updates);
        // Selection re-runs only where a touch can change it: any other
        // destination keeps its route and goes straight to relaxation.
        for (dest, reroute) in &mut dirty {
            *reroute = *reroute && self.selector.decide(*dest);
        }
        let kept = dirty.iter().filter(|&&(_, rerouted)| !rerouted);
        crate::engine::invariants::selection_kept(&self.selector, kept.map(|&(dest, _)| dest));
        let update = self.announce(&dirty);
        dirty.clear();
        self.dirty = dirty;
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
                // Re-decides `affected`, naming those it re-routed. The dead
                // link's entry also leaves the declared vector, which is
                // attached to whatever this step (and later ones) sends.
                let rerouted = self.selector.link_down(neighbor);
                self.sender_costs.retain(|&(a, _)| a != neighbor);
                let touched: Vec<Dirty> = affected
                    .into_iter()
                    .map(|dest| (dest, rerouted.binary_search(&dest).is_ok()))
                    .collect();
                self.announce(&touched)
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
                // Re-advertise exactly the table entries whose first path
                // entry restamped (`set_declared_cost` reports them; none
                // for a no-op, and never the origin route, whose entry
                // carries no cost). The declared cost never enters this
                // node's *own* relaxation — the bound combines
                // neighbor-advertised values with our route's transit cost
                // only — so their price arrays relax to what they were.
                let restamped = self.selector.set_declared_cost(cost);
                let touched: Vec<Dirty> = restamped.into_iter().map(|dest| (dest, true)).collect();
                self.announce(&touched)
            }
        }
    }

    fn full_table(&self) -> Option<Update> {
        let ads = self
            .selector
            .destinations()
            .map(|dest| RouteAdvertisement {
                destination: dest,
                info: self.current(dest),
            })
            .collect();
        let table = Update::if_nonempty(self.selector.id(), ads)?;
        Some(table.with_sender_costs(self.sender_costs.clone()))
    }

    fn reset(&mut self) {
        // The declared vector is configuration, not learned state: a
        // restarted node still charges the same per-neighbor receive costs.
        self.selector.reset();
        self.spans.fill(Span::default());
        self.prices.clear();
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
        snapshot.price_entries = self.spans.iter().map(|span| span.len()).sum();
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
    /// last, every transit node declaring cost 1 (the destination's entry
    /// carries none).
    fn advertises(path: &[u32], path_cost: u64, prices: &[u64]) -> RouteAdvertisement {
        let last = path.len() - 1;
        let entries: Vec<PathEntry> = path
            .iter()
            .enumerate()
            .map(|(at, &raw)| PathEntry {
                node: AsId::new(raw),
                cost: Cost::new(u64::from(at < last)),
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
        assert_eq!(node.mark, [NOT_DIRTY; 5]);
        assert_eq!(node.spans.len(), 5);
        assert!(node.scratch.len() <= 1);
    }
}
