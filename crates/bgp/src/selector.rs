//! Route selection: the per-node path-vector decision process.

use crate::message::{PathEntry, RouteInfo, SharedPath, Update};
use crate::rib::{PriceSlab, RibCell, RouteView};
use crate::stats::StateSnapshot;
use bgpvcg_lcp::Route;
use bgpvcg_netgraph::{AsId, Cost};
use std::fmt;

/// A selected routing-table entry: the chosen path (cost-annotated) and its
/// transit cost.
///
/// The path is a [`SharedPath`]: one node on the path the next hop
/// advertised, and the same handle flows into every advertisement built
/// from this entry, so neither selecting nor re-advertising a route copies
/// path bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectedRoute {
    /// The path from this node (first entry) to the destination (last
    /// entry): this node's entry carries its declared cost, every interior
    /// entry the cost learned from advertisements, and the destination's
    /// entry [`Cost::ZERO`].
    pub path: SharedPath,
    /// Transit cost of the path.
    pub cost: Cost,
}

impl SelectedRoute {
    /// Converts to an [`Route`] for inspection and comparison.
    pub fn as_route(&self) -> Route {
        Route::from_parts(self.path.iter().map(|e| e.node).collect(), self.cost)
    }

    /// The next hop (second node), or `None` for the trivial route.
    pub fn next_hop(&self) -> Option<AsId> {
        self.path.rest()?.first().map(|e| e.node)
    }

    /// Number of hops.
    pub fn hops(&self) -> usize {
        self.path.len() - 1
    }
}

/// The winner of selection where it lies in the Rib-In: the advertised
/// path, the advertiser's entry as the route carries it, and the route's
/// transit cost.
#[derive(Debug, Clone, Copy)]
struct Winner<'a> {
    path: &'a SharedPath,
    advertiser: PathEntry,
    cost: Cost,
}

impl Winner<'_> {
    /// The selected route: `head` prepended to the advertised path — or,
    /// where the per-neighbor model restamped the advertiser's entry, to
    /// that entry on the advertised rest. Either way the ids are the
    /// advertised path's, which `well_formed` found simple and loop
    /// suppression found free of this node, so neither node needs a walk
    /// to know it is simple.
    fn extend(self, head: PathEntry) -> SelectedRoute {
        let simple = self.path.is_simple();
        let hop = if self.path.first() == Some(self.advertiser) {
            self.path.clone()
        } else {
            SharedPath::link(self.advertiser, self.path.rest().cloned(), simple)
        };
        SelectedRoute {
            path: SharedPath::link(head, Some(hop), simple),
            cost: self.cost,
        }
    }
}

/// Structural validity of an incoming reachable advertisement: the path is
/// non-empty, starts at the advertiser, ends at the destination — whose
/// entry carries no cost, as a destination is never transit — repeats no
/// node, names no node at or beyond `bound` (the receiver's tables are
/// indexed by AS number, so an id must never decide an allocation), and
/// carries at most one price slot per transit node. Everything a receiver
/// later indexes into is covered, so a malformed message can be dropped
/// here once instead of defended against everywhere. A path node records
/// all of this about its path when it is made, so the check reads the
/// first node and walks nothing.
fn well_formed(from: AsId, destination: AsId, info: &RouteInfo, bound: usize) -> bool {
    let RouteInfo::Reachable { path, prices, .. } = info else {
        // Withdrawals carry no structure; price deltas are validated
        // against the retained route when folded (see `RouteInfo::fold`).
        return true;
    };
    path.first().map(|entry| entry.node) == Some(from)
        && path.last_node() == Some(destination)
        && path.has_costless_end()
        && path.is_simple()
        && path.max_node().is_some_and(|max| max.index() < bound)
        && prices.len() <= path.len().saturating_sub(2)
}

/// Consecutive destinations whose Rib-In price arrays share one
/// [`PriceSlab`]. One slab per selector grows to tens of kilobytes on long
/// paths, and reallocating blocks that size fragments the heap (on the
/// 128-cycle, peak RSS rose 4.7 %); one slab per destination spends a
/// vector header and a heap block on every row (on the hierarchy, peak RSS
/// was 6 % above this grouping's). See `docs/PERFORMANCE.md` § "Price
/// arrays in per-node storage".
const SLAB_ROWS: usize = 4;

/// The cost a receive-cost vector (ascending by AS) names for packets
/// handed over by `from`.
fn recv_cost(vector: &[(AsId, Cost)], from: AsId) -> Option<Cost> {
    let at = vector.binary_search_by_key(&from, |&(u, _)| u).ok()?;
    vector.get(at).map(|&(_, cost)| cost)
}

/// Replaces `known` by `sent` read as a map — ascending by AS, the last
/// entry for an AS winning — and returns `true` if that changed it.
fn replace_vector(known: &mut Vec<(AsId, Cost)>, sent: &[(AsId, Cost)]) -> bool {
    // Every honest speaker sends its vector ascending, which is the stored
    // form already: compare in place and copy only on change.
    if sent.windows(2).all(|pair| pair[0].0 < pair[1].0) {
        let changed = known != sent;
        if changed {
            known.clear();
            known.extend_from_slice(sent);
        }
        return changed;
    }
    // Anything else is brought into that form first. The sort is stable,
    // so reversed each AS's last-sent entry leads its run and survives.
    let mut ordered = sent.to_vec();
    ordered.sort_by_key(|&(u, _)| u);
    ordered.reverse();
    ordered.dedup_by_key(|&mut (u, _)| u);
    ordered.reverse();
    replace_vector(known, &ordered)
}

/// The AS numbers along a path, for the lexicographic tie-break.
fn nodes(path: &SharedPath) -> impl Iterator<Item = AsId> + '_ {
    path.iter().map(|e| e.node)
}

/// What extending `a`'s advertised route to `dest` adds to its cost: `a`
/// turns transit, unless it is the destination, which stays an endpoint.
/// In the base model `a`'s cost is its first path entry, `first`; in the
/// per-neighbor model it is `a`'s receive cost *from us*, `vector_cost`,
/// taken from its advertised vector.
fn added_cost(a: AsId, dest: AsId, first: PathEntry, vector_cost: Option<Cost>) -> Cost {
    match vector_cost {
        _ if a == dest => Cost::ZERO,
        Some(cost) => cost,
        None => first.cost,
    }
}

/// Whether the extension of advertised path `path` at `cost` precedes the
/// one of `other` at `other_cost` in the route order `(transit cost, hop
/// count, lexicographic AS path)`. Every extension starts with this node,
/// so ordering the advertised paths orders the extensions.
fn precedes(cost: Cost, path: &SharedPath, other_cost: Cost, other: &SharedPath) -> bool {
    cost.cmp(&other_cost)
        .then_with(|| path.len().cmp(&other.len()))
        .then_with(|| nodes(path).cmp(nodes(other)))
        .is_lt()
}

/// Whether `info`, just folded into the Rib-In cell `from` holds for
/// `dest`, can change `held`, the selection the table holds for `dest` —
/// the one selection would make from the Rib-In before the fold. Prices
/// never enter selection, so a price delta cannot. Anything from the
/// selected route's own next hop can, and anything at all where there is
/// no route. From any other neighbor, the old cell was not the winner, so
/// removing it leaves the winner standing: a withdrawal cannot, and a full
/// advertisement can only if its extension precedes the winner.
/// `vector_cost` is `from`'s current receive cost from us, if it sent one.
fn can_change(
    held: Option<&SelectedRoute>,
    from: AsId,
    dest: AsId,
    info: &RouteInfo,
    vector_cost: Option<Cost>,
) -> bool {
    let Some(held) = held else {
        return !matches!(info, RouteInfo::PriceDelta { .. });
    };
    // The trivial route has no hop, and nothing precedes it.
    let Some(hop) = held.path.rest() else {
        return false;
    };
    match info {
        RouteInfo::PriceDelta { .. } => false,
        _ if held.next_hop() == Some(from) => true,
        RouteInfo::Withdrawn => false,
        RouteInfo::Reachable {
            path, path_cost, ..
        } => path.first().is_some_and(|first| {
            let cost = *path_cost + added_cost(from, dest, first, vector_cost);
            precedes(cost, path, held.cost, hop)
        }),
    }
}

/// The path-vector decision process of one AS: Rib-In (the last routes each
/// neighbor advertised), route selection under the deterministic order, and
/// the selected routing table.
///
/// `RouteSelector` is deliberately protocol-logic only — no I/O — so both
/// transports of the stage engine (lock-step and session), and the pricing
/// extension in `bgpvcg-core`, all drive the same code (the paper's
/// mechanism is an extension of BGP, so the BGP decision process must be
/// shared, not duplicated).
///
/// Selection is re-run only where it can change. Between calls the table
/// is *decided* — each destination's entry is what [`decide`](Self::decide)
/// would select from the Rib-In — once every destination the crate's
/// flagging ingest marked as able to change has been decided, as
/// [`Node`](crate::Node) does in every step; [`link_down`](Self::link_down)
/// relies on it, and debug builds check it there. (A caller of plain
/// [`ingest`](Self::ingest) decides what it returns.)
///
/// State is dense and destination-major (AS numbers are `0..n`): the
/// sorted neighbor list assigns each neighbor a *slot*, and the Rib-In
/// cells of one destination — one per slot — are contiguous, so selection
/// and the price relaxation walk one short row instead of probing a map
/// per neighbor. See `docs/PERFORMANCE.md` § "Per-node state layout".
#[derive(Debug, Clone)]
pub struct RouteSelector {
    id: AsId,
    /// This node's own declared transit cost: what it stamps into the head
    /// entry of every route it extends. Its own trivial route carries
    /// [`Cost::ZERO`] instead, since a destination is never transit.
    declared_cost: Cost,
    /// Physical neighbors, ascending; a neighbor's position is its slot.
    neighbors: Vec<AsId>,
    /// Per slot: the receive-cost vector that neighbor last advertised
    /// (per-neighbor cost model only; empty in the paper's base model),
    /// ascending by AS: the entry for `u` is the cost the neighbor incurs
    /// receiving a transit packet from `u`.
    vectors: Vec<Vec<(AsId, Cost)>>,
    /// Rib-In: `rib[dest.index() * neighbors.len() + slot]` is the route
    /// that neighbor last advertised for `dest`.
    rib: Vec<Option<RibCell>>,
    /// `prices[dest.index() / SLAB_ROWS]`: the price arrays of the Rib-In
    /// cells of `SLAB_ROWS` consecutive destinations.
    prices: Vec<PriceSlab>,
    /// The selected routing table, indexed by destination. Own destination
    /// always holds the trivial route.
    table: Vec<Option<SelectedRoute>>,
    /// Advertisements naming an AS at or beyond this index are malformed:
    /// the node count for a selector built from a graph, unbounded for one
    /// that grows its tables on demand.
    bound: usize,
    /// `ingest`'s result buffer, reused across calls.
    affected: Vec<AsId>,
    /// Aligned with `affected`: whether that change can change the
    /// selection (see `can_change`), reused across calls.
    reroutes: Vec<bool>,
}

impl RouteSelector {
    /// Creates a selector for node `id` with the given declared cost and
    /// physical neighbors. Its tables grow to the largest destination it
    /// is told about; a selector for a known network should be built
    /// [`with_node_count`](Self::with_node_count) instead.
    pub fn new<I: IntoIterator<Item = AsId>>(id: AsId, declared_cost: Cost, neighbors: I) -> Self {
        Self::build(id, declared_cost, neighbors, id.index() + 1, usize::MAX)
    }

    /// Creates a selector for node `id` of an `n`-node network: tables are
    /// sized once, and [`ingest`](Self::ingest) drops any advertisement
    /// naming an AS outside `0..n`, so no message can make the node
    /// allocate by the value of an id it carries.
    pub fn with_node_count<I: IntoIterator<Item = AsId>>(
        id: AsId,
        declared_cost: Cost,
        neighbors: I,
        n: usize,
    ) -> Self {
        let rows = n.max(id.index() + 1);
        Self::build(id, declared_cost, neighbors, rows, rows)
    }

    fn build<I: IntoIterator<Item = AsId>>(
        id: AsId,
        declared_cost: Cost,
        neighbors: I,
        rows: usize,
        bound: usize,
    ) -> Self {
        let mut neighbors: Vec<AsId> = neighbors.into_iter().collect();
        neighbors.sort_unstable();
        neighbors.dedup();
        let mut table = vec![None; rows];
        // A destination is never transit on a route to itself, so its entry
        // carries no cost: a re-declaration then leaves every route to this
        // node as it was.
        table[id.index()] = Some(SelectedRoute {
            path: vec![PathEntry {
                node: id,
                cost: Cost::ZERO,
            }]
            .into(),
            cost: Cost::ZERO,
        });
        RouteSelector {
            id,
            declared_cost,
            vectors: vec![Vec::new(); neighbors.len()],
            rib: vec![None; rows * neighbors.len()],
            prices: vec![PriceSlab::default(); rows.div_ceil(SLAB_ROWS)],
            neighbors,
            table,
            bound,
            affected: Vec::new(),
            reroutes: Vec::new(),
        }
    }

    /// This node's AS number.
    pub fn id(&self) -> AsId {
        self.id
    }

    /// This node's declared cost.
    pub fn declared_cost(&self) -> Cost {
        self.declared_cost
    }

    /// Changes this node's declared cost (a strategic deviation or dynamic
    /// re-declaration). Every selected route but the trivial one carries
    /// the declared cost in its first path entry, so those are restamped;
    /// the trivial route's entry is a destination's and stays
    /// [`Cost::ZERO`]. The returned list names exactly the destinations
    /// whose table entry changed, ascending and never this node's own
    /// (empty for a no-op re-declaration of the same cost), so the caller
    /// re-advertises only those instead of rescanning the table.
    pub fn set_declared_cost(&mut self, cost: Cost) -> Vec<AsId> {
        if cost == self.declared_cost {
            return Vec::new();
        }
        self.declared_cost = cost;
        let head = PathEntry {
            node: self.id,
            cost,
        };
        // The trivial route is the only one without a hop, so every other
        // route has a rest: the next hop's path, which the restamped head
        // extends as the old one did.
        let mut count = 0;
        for route in self.table.iter_mut().flatten() {
            if let Some(rest) = route.path.rest() {
                // The same ids: simple exactly when the old head was.
                let simple = route.path.is_simple();
                route.path = SharedPath::link(head, Some(rest.clone()), simple);
                count += 1;
            }
        }
        let own = self.id;
        let mut restamped = Vec::with_capacity(count);
        restamped.extend(self.destinations().filter(|&dest| dest != own));
        restamped
    }

    /// Current physical neighbors, ascending.
    pub fn neighbors(&self) -> impl Iterator<Item = AsId> + '_ {
        self.neighbors.iter().copied()
    }

    /// Returns `true` if `a` is currently a neighbor.
    pub fn has_neighbor(&self, a: AsId) -> bool {
        self.slot(a).is_some()
    }

    /// The Rib-In slot of neighbor `a`.
    fn slot(&self, a: AsId) -> Option<usize> {
        self.neighbors.binary_search(&a).ok()
    }

    /// The Rib-In cells for `dest`, one per slot (empty for a destination
    /// beyond the tables).
    fn row(&self, dest: AsId) -> &[Option<RibCell>] {
        let deg = self.neighbors.len();
        let start = dest.index() * deg;
        self.rib.get(start..start + deg).unwrap_or(&[])
    }

    /// The slab holding the price arrays of `dest`'s Rib-In cells.
    fn slab(&self, dest: AsId) -> Option<&PriceSlab> {
        self.prices.get(dest.index() / SLAB_ROWS)
    }

    /// The route `a` last advertised for `dest`, if any.
    pub fn rib(&self, a: AsId, dest: AsId) -> Option<RouteView<'_>> {
        let cell = self.row(dest).get(self.slot(a)?)?.as_ref()?;
        Some(cell.view(self.slab(dest)?))
    }

    /// The destinations neighbor `a` currently advertises, ascending. Empty
    /// for non-neighbors. Used to scope recomputation after a link event to
    /// the destinations the vanished Rib-In actually covered.
    pub fn rib_destinations(&self, a: AsId) -> Vec<AsId> {
        let Some(slot) = self.slot(a) else {
            return Vec::new();
        };
        // The slot's column: every `deg`-th cell, one per destination.
        let column = self.rib.iter().skip(slot).step_by(self.neighbors.len());
        (0u32..)
            .zip(column)
            .filter(|(_, cell)| cell.is_some())
            .map(|(dest, _)| AsId::new(dest))
            .collect()
    }

    /// The Rib-In entries for `dest` across all current neighbors, ascending
    /// by neighbor. This is the candidate set both route selection and the
    /// pricing relaxation pass iterate: one contiguous row.
    pub fn rib_for(&self, dest: AsId) -> impl Iterator<Item = (AsId, RouteView<'_>)> + '_ {
        let slab = self.slab(dest);
        self.neighbors
            .iter()
            .zip(self.row(dest))
            .filter_map(move |(&a, cell)| Some((a, cell.as_ref()?.view(slab?))))
    }

    /// The receive-cost vector neighbor `a` last advertised (per-neighbor
    /// cost model), ascending by AS, if any.
    pub fn neighbor_vector(&self, a: AsId) -> Option<&[(AsId, Cost)]> {
        let vector = self.vectors.get(self.slot(a)?)?;
        (!vector.is_empty()).then_some(vector.as_slice())
    }

    /// The cost neighbor `a` incurs receiving a transit packet *from this
    /// node*, per `a`'s advertised vector (per-neighbor model only).
    pub fn recv_cost_from(&self, a: AsId) -> Option<Cost> {
        recv_cost(self.vectors.get(self.slot(a)?)?, self.id)
    }

    /// The selected route to `dest` (trivial for `dest == id`).
    pub fn selected(&self, dest: AsId) -> Option<&SelectedRoute> {
        self.table.get(dest.index())?.as_ref()
    }

    /// The selected route to `dest` as an [`Route`].
    pub fn route(&self, dest: AsId) -> Option<Route> {
        self.selected(dest).map(SelectedRoute::as_route)
    }

    /// The selected route's transit cost `c(self, dest)`, or
    /// [`Cost::INFINITE`] if no route is known.
    pub fn route_cost(&self, dest: AsId) -> Cost {
        self.selected(dest).map_or(Cost::INFINITE, |r| r.cost)
    }

    /// All destinations with a selected route, ascending.
    pub fn destinations(&self) -> impl Iterator<Item = AsId> + '_ {
        (0u32..)
            .map(AsId::new)
            .zip(&self.table)
            .filter_map(|(dest, route)| route.as_ref().map(|_| dest))
    }

    /// Table and Rib-In sizes in one pass over the dense rows (the price
    /// fields stay zero: prices belong to the node built on top).
    /// Rib-In cells are counted for destinations that have a selected
    /// route, which at a fixpoint is every destination anyone advertises.
    pub fn state(&self) -> StateSnapshot {
        let mut snapshot = StateSnapshot::default();
        for (dest, route) in (0u32..).zip(&self.table) {
            let Some(route) = route else {
                continue;
            };
            snapshot.table_entries += 1;
            snapshot.table_path_nodes += route.path.len();
            for cell in self.row(AsId::new(dest)).iter().flatten() {
                snapshot.rib_entries += 1;
                snapshot.rib_path_nodes += cell.path.len();
            }
        }
        snapshot
    }

    /// Ingests an UPDATE from a neighbor into the Rib-In, returning the
    /// destinations whose advertised state changed, in message order (a
    /// destination the update names twice can appear twice). Messages from
    /// non-neighbors (possible transiently around link failures, while a
    /// session's frames are still in flight) are ignored. The returned
    /// slice is the selector's own buffer, valid until the next call.
    pub fn ingest(&mut self, update: &Update) -> &[AsId] {
        self.update_rib(update);
        &self.affected
    }

    /// [`ingest`](Self::ingest), with each affected destination paired
    /// with whether the change can change the selection: it came from the
    /// selected route's next hop, the destination has no route, the
    /// sender's cost vector changed, or a full advertisement's extension
    /// precedes the selected route in the route order. Anything else — a
    /// price delta, which moves no candidate's path or cost, and a
    /// withdrawal or a losing route from a neighbor that was not the
    /// winner — leaves the winner standing, so [`decide`](Self::decide) on
    /// it would be wasted.
    ///
    /// The flags read the table, so they are exact while the table is
    /// decided: decide every flagged destination before the next
    /// [`link_down`](Self::link_down). Within one batch of updates they
    /// may be ORed per destination, as [`Node`](crate::Node) does, since a
    /// destination no earlier update flagged still has its decided entry.
    pub(crate) fn ingest_flagged(
        &mut self,
        update: &Update,
    ) -> impl Iterator<Item = (AsId, bool)> + '_ {
        self.update_rib(update);
        let reroutes = self.reroutes.iter().copied();
        self.affected.iter().copied().zip(reroutes)
    }

    /// The one body of both ingests: applies `update` to the Rib-In and
    /// fills `affected` and `reroutes`.
    fn update_rib(&mut self, update: &Update) {
        self.affected.clear();
        self.reroutes.clear();
        let Some(slot) = self.slot(update.from) else {
            return;
        };
        let deg = self.neighbors.len();
        if !update.sender_costs.is_empty() {
            let known = self.vectors.get_mut(slot);
            if known.is_some_and(|known| replace_vector(known, &update.sender_costs)) {
                // A changed cost vector re-prices every candidate through
                // this neighbor: the destinations of the slot's column.
                let column = self.rib.iter().skip(slot).step_by(deg);
                let filled = (0u32..).zip(column).filter(|(_, cell)| cell.is_some());
                self.affected
                    .extend(filled.map(|(dest, _)| AsId::new(dest)));
                self.reroutes.resize(self.affected.len(), true);
            }
        }
        let vector_cost = self
            .vectors
            .get(slot)
            .and_then(|vector| recv_cost(vector, self.id));
        for ad in &update.advertisements {
            let dest = ad.destination;
            if let RouteInfo::Reachable { .. } = ad.info {
                // Drop structurally malformed advertisements instead of
                // trusting them: a misbehaving or buggy neighbor must not be
                // able to crash this node (the paper's Sect. 7 notes the
                // agents themselves run the algorithm).
                if !well_formed(update.from, dest, &ad.info, self.bound) {
                    continue;
                }
                if dest.index() >= self.table.len() {
                    // Only a selector built without a node count gets here:
                    // `well_formed` bounds every other one.
                    self.table.resize(dest.index() + 1, None);
                    let slabs = (dest.index() + 1).div_ceil(SLAB_ROWS);
                    self.prices.resize(slabs, PriceSlab::default());
                    self.rib.resize((dest.index() + 1) * deg, None);
                }
            }
            // The cells sharing the destination's slab, and the cell.
            let group = dest.index() / SLAB_ROWS;
            let start = group * SLAB_ROWS * deg;
            let end = self.rib.len().min(start + SLAB_ROWS * deg);
            let at = dest.index() % SLAB_ROWS * deg + slot;
            let (Some(slab), Some(cells)) =
                (self.prices.get_mut(group), self.rib.get_mut(start..end))
            else {
                continue;
            };
            if cells
                .get_mut(at)
                .is_some_and(|cell| ad.info.fold(cell, slab))
            {
                let held = self.table.get(dest.index()).and_then(Option::as_ref);
                self.affected.push(dest);
                self.reroutes
                    .push(can_change(held, update.from, dest, &ad.info, vector_cost));
                slab.tidy(cells.iter_mut().flatten());
            }
        }
    }

    /// The winner of selection for `dest` from the Rib-In, where it lies:
    /// over all neighbors `a` whose Rib-In holds a route for `dest` not
    /// containing this node (loop suppression), the extension of that
    /// route by this node that comes first in the deterministic route order
    /// `(transit cost, hop count, lexicographic AS path)`. Nothing is
    /// materialised, so losing candidates cost no allocation.
    fn best(&self, dest: AsId) -> Option<Winner<'_>> {
        let mut best: Option<Winner<'_>> = None;
        let cells = self.neighbors.iter().zip(&self.vectors).zip(self.row(dest));
        for ((&a, vector), cell) in cells {
            let Some(RibCell {
                path, path_cost, ..
            }) = cell
            else {
                continue;
            };
            let Some(first) = path.first() else {
                continue;
            };
            // In the per-neighbor model the advertiser's entry is
            // restamped with its receive cost from us: each path entry
            // carries the node's cost *given its predecessor on this path*.
            let vector_cost = recv_cost(vector, self.id);
            let added = added_cost(a, dest, first, vector_cost);
            let cost = *path_cost + added;
            let better = best.is_none_or(|best| precedes(cost, path, best.cost, best.path));
            // Loop suppression last: only a would-be winner needs it.
            if better && !path.contains(self.id) {
                let advertiser = PathEntry {
                    node: a,
                    cost: vector_cost.map_or(first.cost, |_| added),
                };
                best = Some(Winner {
                    path,
                    advertiser,
                    cost,
                });
            }
        }
        best
    }

    /// This node's head entry on every route it extends.
    fn head(&self) -> PathEntry {
        PathEntry {
            node: self.id,
            cost: self.declared_cost,
        }
    }

    /// Whether the table already holds `best` for `dest`: the same cost,
    /// this node's head, the winner's advertiser entry, and the rest of the
    /// winner's path.
    fn holds(&self, dest: AsId, best: Option<&Winner<'_>>) -> bool {
        match (best, self.selected(dest)) {
            (None, None) => true,
            (Some(best), Some(old)) => {
                best.cost == old.cost
                    && old.path.first() == Some(self.head())
                    && old.path.rest().is_some_and(|hop| {
                        hop.first() == Some(best.advertiser) && hop.rest() == best.path.rest()
                    })
            }
            _ => false,
        }
    }

    /// Whether `dest`'s table entry is what [`decide`](Self::decide) would
    /// select now. The debug hooks that check each skipped decision and
    /// `link_down`'s precondition ask this.
    pub(crate) fn is_decided(&self, dest: AsId) -> bool {
        dest == self.id || self.holds(dest, self.best(dest).as_ref())
    }

    /// Re-runs route selection for one destination; returns `true` if the
    /// selected route changed (including becoming unreachable). Only a
    /// winner that differs from the table entry is materialised, as one
    /// hop on the advertised path.
    pub fn decide(&mut self, dest: AsId) -> bool {
        if dest == self.id {
            return false; // the trivial route is permanent
        }
        let best = self.best(dest);
        if self.holds(dest, best.as_ref()) {
            return false;
        }
        let head = self.head();
        let route = best.map(|best| best.extend(head));
        if let Some(entry) = self.table.get_mut(dest.index()) {
            *entry = route;
        }
        true
    }

    /// Re-runs selection for every destination; returns those whose
    /// selection changed, ascending.
    pub fn decide_all(&mut self) -> Vec<AsId> {
        (0..self.table.len() as u32)
            .map(AsId::new)
            .filter(|&dest| self.decide(dest))
            .collect()
    }

    /// Handles a link to `a` coming up: adds the neighbor with an empty
    /// Rib-In column at its sorted slot. Idempotent.
    pub fn link_up(&mut self, a: AsId) {
        let Err(slot) = self.neighbors.binary_search(&a) else {
            return;
        };
        let deg = self.neighbors.len();
        self.neighbors.insert(slot, a);
        self.vectors.insert(slot, Vec::new());
        // Re-stride every row around the new column.
        let mut cells = std::mem::take(&mut self.rib).into_iter();
        self.rib.reserve(self.table.len() * (deg + 1));
        for _ in 0..self.table.len() {
            self.rib.extend(cells.by_ref().take(slot));
            self.rib.push(None);
            self.rib.extend(cells.by_ref().take(deg - slot));
        }
    }

    /// Forgets everything learned from the network — Rib-In contents,
    /// neighbor cost vectors, and every non-trivial table entry — returning
    /// the selector to its just-constructed condition with the same id,
    /// declared cost, and current neighbor set. This models a crash followed
    /// by a restart: the process loses its RIBs but keeps its configuration
    /// (who it is, what it charges, which links are physically attached).
    pub fn reset(&mut self) {
        self.rib.fill(None);
        self.prices.iter_mut().for_each(PriceSlab::clear);
        self.vectors.iter_mut().for_each(Vec::clear);
        let own = self.id.index();
        for (dest, route) in self.table.iter_mut().enumerate() {
            if dest != own {
                *route = None;
            }
        }
    }

    /// Handles the link to `a` going down: drops its Rib-In column and
    /// re-decides the destinations routed through `a`; returns those whose
    /// selection changed, ascending.
    ///
    /// Removing neighbor `a` only removes candidates, and only for the
    /// destinations `a` had advertised. Where `a`'s candidate was not the
    /// winner, the winner is still there and still first, so re-deciding
    /// the destinations whose next hop was `a` equals a full `decide_all`
    /// rescan — provided every destination `a` advertised is decided when
    /// the link goes down. Call [`decide`](Self::decide) (or
    /// [`decide_all`](Self::decide_all)) after [`ingest`](Self::ingest)
    /// first; debug builds check it.
    pub fn link_down(&mut self, a: AsId) -> Vec<AsId> {
        let Some(slot) = self.slot(a) else {
            return Vec::new();
        };
        let mut routed = self.rib_destinations(a);
        crate::engine::invariants::column_decided(self, a, routed.iter().copied());
        routed.retain(|&dest| {
            let held = self.selected(dest);
            held.and_then(SelectedRoute::next_hop) == Some(a)
        });
        let deg = self.neighbors.len();
        let groups = self.rib.chunks(SLAB_ROWS * deg).zip(&mut self.prices);
        for (cells, slab) in groups {
            let column = cells.iter().skip(slot).step_by(deg);
            column.flatten().for_each(|cell| slab.release(cell.prices));
        }
        let mut at = 0;
        self.rib.retain(|_| {
            at += 1;
            (at - 1) % deg != slot
        });
        if deg > 1 {
            let groups = self.rib.chunks_mut(SLAB_ROWS * (deg - 1));
            for (cells, slab) in groups.zip(&mut self.prices) {
                slab.tidy(cells.iter_mut().flatten());
            }
        }
        self.neighbors.remove(slot);
        self.vectors.remove(slot);
        routed.retain(|&dest| self.decide(dest));
        routed
    }
}

impl fmt::Display for RouteSelector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "RouteSelector for {}:", self.id)?;
        for (dest, route) in self.destinations().zip(self.table.iter().flatten()) {
            writeln!(f, "  {dest}: {}", route.as_route())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::RouteAdvertisement;

    fn entry(raw: u32, cost: u64) -> PathEntry {
        PathEntry {
            node: AsId::new(raw),
            cost: Cost::new(cost),
        }
    }

    fn entries(path: &SharedPath) -> Vec<PathEntry> {
        path.iter().collect()
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
        }
    }

    /// A selector for node 0 with neighbors 1 and 2.
    fn selector() -> RouteSelector {
        RouteSelector::new(AsId::new(0), Cost::new(5), [AsId::new(1), AsId::new(2)])
    }

    #[test]
    fn starts_with_trivial_route_only() {
        let s = selector();
        assert_eq!(s.route_cost(AsId::new(0)), Cost::ZERO);
        assert_eq!(s.route_cost(AsId::new(9)), Cost::INFINITE);
        assert_eq!(s.destinations().count(), 1);
        assert_eq!(
            s.neighbors().collect::<Vec<_>>(),
            vec![AsId::new(1), AsId::new(2)]
        );
    }

    #[test]
    fn ingest_and_decide_selects_direct_route() {
        let mut s = selector();
        // Neighbor 1 (cost 3) advertises itself.
        let affected = s.ingest(&update(1, vec![ad(1, vec![entry(1, 0)], 0)]));
        assert_eq!(affected, [AsId::new(1)]);
        assert!(s.decide(AsId::new(1)));
        let route = s.selected(AsId::new(1)).unwrap();
        assert_eq!(route.cost, Cost::ZERO, "destination is an endpoint");
        assert_eq!(route.hops(), 1);
        assert_eq!(route.next_hop(), Some(AsId::new(1)));
    }

    #[test]
    fn decide_prefers_cheaper_transit() {
        let mut s = selector();
        // Route to 9 via neighbor 1 (1 declares cost 3): transit = 3 + 4.
        s.ingest(&update(
            1,
            vec![ad(9, vec![entry(1, 3), entry(7, 4), entry(9, 0)], 4)],
        ));
        // Route to 9 via neighbor 2 (2 declares cost 1): transit = 1 + 0.
        s.ingest(&update(2, vec![ad(9, vec![entry(2, 1), entry(9, 0)], 0)]));
        s.decide(AsId::new(9));
        let route = s.selected(AsId::new(9)).unwrap();
        assert_eq!(route.cost, Cost::new(1));
        assert_eq!(route.next_hop(), Some(AsId::new(2)));
    }

    #[test]
    fn loop_suppression_skips_paths_containing_self() {
        let mut s = selector();
        s.ingest(&update(
            1,
            vec![ad(9, vec![entry(1, 3), entry(0, 5), entry(9, 0)], 5)],
        ));
        s.decide(AsId::new(9));
        assert!(s.selected(AsId::new(9)).is_none(), "only candidate loops");
    }

    #[test]
    fn withdrawal_removes_route() {
        let mut s = selector();
        s.ingest(&update(1, vec![ad(1, vec![entry(1, 0)], 0)]));
        s.decide(AsId::new(1));
        assert!(s.selected(AsId::new(1)).is_some());
        let affected = s.ingest(&update(
            1,
            vec![RouteAdvertisement {
                destination: AsId::new(1),
                info: RouteInfo::Withdrawn,
            }],
        ));
        assert_eq!(affected, [AsId::new(1)]);
        assert!(s.decide(AsId::new(1)));
        assert!(s.selected(AsId::new(1)).is_none());
    }

    #[test]
    fn ingest_from_stranger_is_ignored() {
        let mut s = selector();
        let affected = s.ingest(&update(77, vec![ad(1, vec![entry(77, 0)], 0)]));
        assert!(affected.is_empty());
    }

    #[test]
    fn reingest_of_same_route_reports_no_change() {
        let mut s = selector();
        let u = update(1, vec![ad(1, vec![entry(1, 0)], 0)]);
        assert!(!s.ingest(&u).is_empty());
        assert!(s.ingest(&u).is_empty(), "identical re-advertisement");
    }

    #[test]
    fn link_down_drops_routes_via_neighbor() {
        let mut s = selector();
        s.ingest(&update(1, vec![ad(1, vec![entry(1, 0)], 0)]));
        s.ingest(&update(2, vec![ad(2, vec![entry(2, 0)], 0)]));
        s.decide_all();
        let changed = s.link_down(AsId::new(1));
        assert!(changed.contains(&AsId::new(1)));
        assert!(s.selected(AsId::new(1)).is_none());
        assert!(s.selected(AsId::new(2)).is_some());
        assert!(!s.has_neighbor(AsId::new(1)));
        // Idempotent on a second call.
        assert!(s.link_down(AsId::new(1)).is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "decide before link_down")]
    fn link_down_on_an_undecided_destination_trips_the_hook() {
        let mut s = selector();
        s.ingest(&update(1, vec![ad(1, vec![entry(1, 0)], 0)]));
        s.link_down(AsId::new(1));
    }

    #[test]
    fn link_up_registers_neighbor() {
        let mut s = selector();
        s.link_up(AsId::new(7));
        assert!(s.has_neighbor(AsId::new(7)));
        let affected = s.ingest(&update(7, vec![ad(7, vec![entry(7, 0)], 0)]));
        assert!(!affected.is_empty());
    }

    #[test]
    fn set_declared_cost_updates_own_entry() {
        let mut s = selector();
        assert_eq!(
            s.selected(AsId::new(0)).unwrap().path.first().unwrap().cost,
            Cost::ZERO
        );
        s.ingest(&update(1, vec![ad(1, vec![entry(1, 0)], 0)]));
        s.ingest(&update(
            2,
            vec![ad(9, vec![entry(2, 1), entry(4, 2), entry(9, 0)], 2)],
        ));
        assert_eq!(s.decide_all(), [AsId::new(1), AsId::new(9)]);
        assert_eq!(
            s.set_declared_cost(Cost::new(11)),
            [AsId::new(1), AsId::new(9)]
        );
        assert_eq!(s.declared_cost(), Cost::new(11));
        // The trivial route's entry is a destination's: it carries nothing.
        let own = s.selected(AsId::new(0)).unwrap();
        assert_eq!(entries(&own.path), [entry(0, 0)]);
        // Every other route's head is restamped; the rest is as learned.
        let direct = s.selected(AsId::new(1)).unwrap();
        assert_eq!(entries(&direct.path), [entry(0, 11), entry(1, 0)]);
        let far = s.selected(AsId::new(9)).unwrap();
        assert_eq!(
            entries(&far.path),
            [entry(0, 11), entry(2, 1), entry(4, 2), entry(9, 0)]
        );
        assert_eq!(far.cost, Cost::new(3), "the own head is never transit");
        // Re-declaring the same cost changes nothing.
        assert!(s.set_declared_cost(Cost::new(11)).is_empty());
    }

    #[test]
    fn tie_break_on_equal_cost_prefers_fewer_hops_then_lex() {
        let mut s = selector();
        // Two candidates to dest 9, both transit cost 2.
        s.ingest(&update(1, vec![ad(9, vec![entry(1, 2), entry(9, 0)], 0)])); // 0,1,9: cost 2, 2 hops
        s.ingest(&update(
            2,
            vec![ad(9, vec![entry(2, 0), entry(3, 2), entry(9, 0)], 2)],
        )); // 0,2,3,9: cost 2, 3 hops
        s.decide(AsId::new(9));
        assert_eq!(
            s.selected(AsId::new(9)).unwrap().next_hop(),
            Some(AsId::new(1))
        );
    }

    #[test]
    fn sender_vector_overrides_first_entry_cost() {
        // Per-neighbor model: neighbor 1 declares "receiving from node 0
        // costs 7" via its vector; the base path entry says 3. The
        // candidate must be priced (and restamped) with 7.
        let mut s = selector();
        let u = update(1, vec![ad(9, vec![entry(1, 3), entry(9, 0)], 0)]).with_sender_costs(vec![
            (AsId::new(0), Cost::new(7)),
            (AsId::new(9), Cost::new(1)),
        ]);
        s.ingest(&u);
        s.decide(AsId::new(9));
        let route = s.selected(AsId::new(9)).unwrap();
        assert_eq!(route.cost, Cost::new(7));
        assert_eq!(
            route.path.iter().nth(1).unwrap().cost,
            Cost::new(7),
            "entry restamped for its predecessor"
        );
        assert_eq!(s.recv_cost_from(AsId::new(1)), Some(Cost::new(7)));
        assert!(s.neighbor_vector(AsId::new(1)).is_some());
    }

    #[test]
    fn changed_vector_marks_all_neighbor_dests_affected() {
        let mut s = selector();
        let u1 = update(1, vec![ad(9, vec![entry(1, 3), entry(9, 0)], 0)])
            .with_sender_costs(vec![(AsId::new(0), Cost::new(7))]);
        s.ingest(&u1);
        s.decide(AsId::new(9));
        // Same routes, different vector: destination 9 must be re-decided.
        let u2 = update(1, vec![]).with_sender_costs(vec![(AsId::new(0), Cost::new(2))]);
        // if_nonempty refuses empty ad lists; build directly.
        let u2 = Update {
            from: AsId::new(1),
            sender_costs: u2.sender_costs,
            advertisements: vec![],
            id: 0,
        };
        let affected = s.ingest(&u2);
        assert!(affected.contains(&AsId::new(9)), "{affected:?}");
        s.decide(AsId::new(9));
        assert_eq!(s.selected(AsId::new(9)).unwrap().cost, Cost::new(2));
    }

    #[test]
    fn link_down_drops_neighbor_vector() {
        let mut s = selector();
        let u = update(1, vec![ad(1, vec![entry(1, 0)], 0)])
            .with_sender_costs(vec![(AsId::new(0), Cost::new(7))]);
        s.ingest(&u);
        s.decide_all();
        assert!(s.neighbor_vector(AsId::new(1)).is_some());
        s.link_down(AsId::new(1));
        assert!(s.neighbor_vector(AsId::new(1)).is_none());
        assert_eq!(s.recv_cost_from(AsId::new(1)), None);
    }

    #[test]
    fn malformed_advertisements_are_dropped() {
        let mut s = selector();
        // Wrong first node (claims to be node 7 but sent by 1).
        let bad_first = update(1, vec![ad(9, vec![entry(7, 1), entry(9, 0)], 0)]);
        assert!(s.ingest(&bad_first).is_empty());
        // Path does not end at the destination.
        let bad_last = update(1, vec![ad(9, vec![entry(1, 1), entry(8, 0)], 0)]);
        assert!(s.ingest(&bad_last).is_empty());
        // The destination's entry carries a cost, on a long route and on
        // an origin route.
        let costed = update(1, vec![ad(9, vec![entry(1, 1), entry(9, 2)], 0)]);
        assert!(s.ingest(&costed).is_empty());
        let costed_origin = update(1, vec![ad(1, vec![entry(1, 3)], 0)]);
        assert!(s.ingest(&costed_origin).is_empty());
        // Repeated node.
        let looped = update(
            1,
            vec![ad(
                9,
                vec![entry(1, 1), entry(4, 2), entry(1, 1), entry(9, 0)],
                0,
            )],
        );
        assert!(s.ingest(&looped).is_empty());
        // Too many prices.
        let overpriced = Update {
            from: AsId::new(1),
            sender_costs: vec![],
            advertisements: vec![crate::message::RouteAdvertisement {
                destination: AsId::new(9),
                info: RouteInfo::Reachable {
                    path: vec![entry(1, 1), entry(9, 0)].into(),
                    path_cost: Cost::ZERO,
                    prices: vec![Cost::new(1)],
                },
            }],
            id: 0,
        };
        assert!(s.ingest(&overpriced).is_empty());
        // Empty path.
        let empty = Update {
            from: AsId::new(1),
            sender_costs: vec![],
            advertisements: vec![crate::message::RouteAdvertisement {
                destination: AsId::new(9),
                info: RouteInfo::Reachable {
                    path: Vec::new().into(),
                    path_cost: Cost::ZERO,
                    prices: vec![],
                },
            }],
            id: 0,
        };
        assert!(s.ingest(&empty).is_empty());
    }

    #[test]
    fn a_repeat_deep_in_a_long_path_is_dropped() {
        // Neighbor 1 advertises paths to destination 99 through 2, 3, ….
        let long = |hops: u32, repeat: Option<(usize, usize)>| {
            let mut nodes: Vec<u32> = (1..=hops).chain([99]).collect();
            if let Some((copy, at)) = repeat {
                nodes[at] = nodes[copy];
            }
            let last = nodes.len() - 1;
            let path = nodes
                .iter()
                .enumerate()
                .map(|(at, &raw)| entry(raw, u64::from(at < last)))
                .collect();
            update(1, vec![ad(99, path, u64::from(hops - 1))])
        };
        let mut s = RouteSelector::with_node_count(
            AsId::new(0),
            Cost::new(5),
            [AsId::new(1), AsId::new(2)],
            100,
        );
        // 40 hops, the 3rd node again at hop 37.
        assert!(s.ingest(&long(40, Some((2, 37)))).is_empty());
        assert!(s.rib(AsId::new(1), AsId::new(99)).is_none());
        let simple = long(64, None);
        assert_eq!(s.ingest(&simple), [AsId::new(99)]);
        assert_eq!(
            s.rib(AsId::new(1), AsId::new(99))
                .map(|view| view.path.len()),
            Some(65),
            "a simple 64-hop path is kept"
        );
    }

    #[test]
    fn reset_forgets_learned_state_but_keeps_identity() {
        let mut s = selector();
        let u = update(1, vec![ad(9, vec![entry(1, 3), entry(9, 0)], 0)])
            .with_sender_costs(vec![(AsId::new(0), Cost::new(7))]);
        s.ingest(&u);
        s.decide_all();
        assert!(s.selected(AsId::new(9)).is_some());
        s.reset();
        assert_eq!(s.id(), AsId::new(0));
        assert_eq!(s.declared_cost(), Cost::new(5));
        assert_eq!(
            s.neighbors().collect::<Vec<_>>(),
            vec![AsId::new(1), AsId::new(2)],
            "physical links survive a restart"
        );
        assert!(s.selected(AsId::new(9)).is_none());
        assert!(s.rib(AsId::new(1), AsId::new(9)).is_none());
        assert!(s.neighbor_vector(AsId::new(1)).is_none());
        assert_eq!(s.destinations().count(), 1, "only the trivial route");
        assert_eq!(s.route_cost(AsId::new(0)), Cost::ZERO);
    }

    #[test]
    fn decide_all_reports_only_changes() {
        let mut s = selector();
        s.ingest(&update(1, vec![ad(1, vec![entry(1, 0)], 0)]));
        let first = s.decide_all();
        assert_eq!(first, [AsId::new(1)]);
        let second = s.decide_all();
        assert!(second.is_empty());
    }

    /// A priced full advertisement from neighbor 1 for destination 9
    /// (transit node 4), retained so deltas have a base to patch.
    fn priced_base(s: &mut RouteSelector) -> crate::message::SharedPath {
        let path: crate::message::SharedPath = vec![entry(1, 1), entry(4, 2), entry(9, 0)].into();
        let full = Update {
            from: AsId::new(1),
            sender_costs: vec![],
            advertisements: vec![RouteAdvertisement {
                destination: AsId::new(9),
                info: RouteInfo::Reachable {
                    path: path.clone(),
                    path_cost: Cost::new(2),
                    prices: vec![Cost::new(7)],
                },
            }],
            id: 0,
        };
        assert!(!s.ingest(&full).is_empty());
        path
    }

    fn delta_update(hash: u64, entries: Vec<(u16, Cost)>) -> Update {
        Update {
            from: AsId::new(1),
            sender_costs: vec![],
            advertisements: vec![RouteAdvertisement {
                destination: AsId::new(9),
                info: RouteInfo::PriceDelta {
                    base_path_hash: hash,
                    entries,
                },
            }],
            id: 0,
        }
    }

    #[test]
    fn price_delta_patches_retained_route() {
        let mut s = selector();
        let path = priced_base(&mut s);
        let affected = s.ingest(&delta_update(path.hash64(), vec![(0, Cost::new(4))]));
        assert_eq!(affected, [AsId::new(9)]);
        let patched = s.rib(AsId::new(1), AsId::new(9)).unwrap();
        assert_eq!(patched.prices, [Cost::new(4)]);
        assert_eq!(
            (patched.path, patched.path_cost),
            (&path, Cost::new(2)),
            "path and cost survive the patch"
        );
        // A delta repeating the current value changes nothing.
        let again = s.ingest(&delta_update(path.hash64(), vec![(0, Cost::new(4))]));
        assert!(again.is_empty());
    }

    #[test]
    fn price_delta_mismatches_are_dropped() {
        let mut s = selector();
        let path = priced_base(&mut s);
        // Wrong base hash: the retained route must stay untouched.
        assert!(s
            .ingest(&delta_update(path.hash64() ^ 1, vec![(0, Cost::new(4))]))
            .is_empty());
        // Out-of-range price index.
        assert!(s
            .ingest(&delta_update(path.hash64(), vec![(5, Cost::new(4))]))
            .is_empty());
        let retained = s.rib(AsId::new(1), AsId::new(9)).unwrap();
        assert_eq!(retained.prices, [Cost::new(7)]);
        // No retained route at all (fresh selector).
        let mut fresh = selector();
        assert!(fresh
            .ingest(&delta_update(path.hash64(), vec![(0, Cost::new(4))]))
            .is_empty());
    }

    #[test]
    fn sized_selector_drops_out_of_range_ids_without_growing() {
        let huge = u32::MAX;
        let mut s = RouteSelector::with_node_count(
            AsId::new(0),
            Cost::new(5),
            [AsId::new(1), AsId::new(2)],
            10,
        );
        let cells = s.rib.len();
        // As destination (the path must end there to be otherwise valid).
        let as_dest = update(1, vec![ad(huge, vec![entry(1, 3), entry(huge, 0)], 0)]);
        assert!(s.ingest(&as_dest).is_empty());
        // As a transit node on a path to a destination that is in range.
        let as_transit = update(
            1,
            vec![ad(9, vec![entry(1, 3), entry(huge, 1), entry(9, 0)], 1)],
        );
        assert!(s.ingest(&as_transit).is_empty());
        // Withdrawals and deltas for it find no cell.
        let withdraw = update(
            1,
            vec![RouteAdvertisement {
                destination: AsId::new(huge),
                info: RouteInfo::Withdrawn,
            }],
        );
        assert!(s.ingest(&withdraw).is_empty());
        assert!(!s.decide(AsId::new(huge)));
        assert_eq!((s.rib.len(), s.table.len()), (cells, 10), "no growth");
        assert!(s.rib(AsId::new(1), AsId::new(9)).is_none());
        // The unsized constructor is the one that grows, and only by what
        // a well-formed advertisement's destination asks for.
        let mut open = selector();
        assert!(!open
            .ingest(&update(1, vec![ad(9, vec![entry(1, 3), entry(9, 0)], 0)]))
            .is_empty());
        assert_eq!(open.table.len(), 10);
    }
}

#[cfg(test)]
mod selection_model {
    //! Model test for the rule that decides which destinations selection
    //! re-runs for.
    //!
    //! [`RouteSelector::ingest_flagged`] flags a destination only where the
    //! update can change its selection, and [`RouteSelector::link_down`]
    //! re-decides only the destinations routed through the lost neighbor. The
    //! reference here decides everything instead: every destination an
    //! update touched, and every destination the lost neighbor covered. Random
    //! batches of updates go through both selectors — full advertisements
    //! (some looping through the selector's own AS), price deltas against the
    //! retained path or a stale one, and withdrawals, a destination repeated
    //! within one update, receive-cost vectors out of order and with repeats,
    //! senders that are not neighbors — with links going down and up between
    //! batches. After every batch and every link event the two tables must be
    //! identical, and a link going down must report the same changed
    //! destinations.

    use super::RouteSelector;
    use crate::message::{PathEntry, RouteAdvertisement, RouteInfo, SharedPath, Update};
    use bgpvcg_netgraph::{AsId, Cost};
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// AS numbers the generated operations draw from: the selector's own AS
    /// (0), its initial neighbors, and strangers that may become neighbors.
    const UNIVERSE: u32 = 7;
    const ME: AsId = AsId::new(0);
    const INITIAL_NEIGHBORS: [AsId; 3] = [AsId::new(1), AsId::new(2), AsId::new(4)];

    #[derive(Debug, Clone)]
    enum AdSpec {
        /// The path `from, middle.., dest`, its entries costed in turn from
        /// `costs` (the destination's entry costless). `middle` may name the
        /// selector's own AS, which makes the route loop.
        Reach {
            dest: u32,
            middle: Vec<u32>,
            costs: Vec<u64>,
            path_cost: u64,
        },
        /// A price patch against the retained path, or (`fresh` off) a stale
        /// hash.
        Delta {
            dest: u32,
            value: u64,
            fresh: bool,
        },
        Withdraw {
            dest: u32,
        },
    }

    #[derive(Debug, Clone)]
    struct UpdateSpec {
        from: u32,
        ads: Vec<AdSpec>,
        /// Sent as drawn: unordered, and an AS may repeat.
        sender_costs: Vec<(u32, u64)>,
    }

    #[derive(Debug, Clone)]
    enum Step {
        Batch(Vec<UpdateSpec>),
        LinkDown(u32),
        LinkUp(u32),
    }

    fn ad_spec() -> impl Strategy<Value = AdSpec> {
        // Few destinations, so an update often names one twice.
        let dest = 0..UNIVERSE;
        let reach = (
            dest.clone(),
            proptest::collection::vec(0..UNIVERSE, 0..4),
            proptest::collection::vec(0u64..4, 4..5),
            0u64..8,
        )
            .prop_map(|(dest, middle, costs, path_cost)| AdSpec::Reach {
                dest,
                middle,
                costs,
                path_cost,
            });
        let delta = (dest.clone(), 0u64..9, any::<bool>())
            .prop_map(|(dest, value, fresh)| AdSpec::Delta { dest, value, fresh });
        let withdraw = dest.prop_map(|dest| AdSpec::Withdraw { dest });
        prop_oneof![6 => reach, 2 => delta, 2 => withdraw]
    }

    fn update_spec() -> impl Strategy<Value = UpdateSpec> {
        (
            0..UNIVERSE,
            proptest::collection::vec(ad_spec(), 0..6),
            prop_oneof![
                3 => Just(Vec::new()),
                2 => proptest::collection::vec((0..UNIVERSE, 0u64..5), 1..5),
            ],
        )
            .prop_map(|(from, ads, sender_costs)| UpdateSpec {
                from,
                ads,
                sender_costs,
            })
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            8 => proptest::collection::vec(update_spec(), 1..4).prop_map(Step::Batch),
            1 => (1..UNIVERSE).prop_map(Step::LinkDown),
            1 => (1..UNIVERSE).prop_map(Step::LinkUp),
        ]
    }

    /// The update `spec` describes, with fresh deltas built against what
    /// `retained` holds from the sender.
    fn update(spec: &UpdateSpec, retained: &RouteSelector) -> Update {
        let from = AsId::new(spec.from);
        let advertisements = spec
            .ads
            .iter()
            .map(|ad| {
                let (destination, info) = match ad {
                    AdSpec::Withdraw { dest } => (AsId::new(*dest), RouteInfo::Withdrawn),
                    AdSpec::Delta { dest, value, fresh } => {
                        let dest = AsId::new(*dest);
                        let held = retained.rib(from, dest).filter(|_| *fresh);
                        let info = RouteInfo::PriceDelta {
                            base_path_hash: held.map_or(0xdead_beef, |view| view.path.hash64()),
                            entries: vec![(0, Cost::new(*value))],
                        };
                        (dest, info)
                    }
                    AdSpec::Reach {
                        dest,
                        middle,
                        costs,
                        path_cost,
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
                        let last = nodes.len() - 1;
                        let entries: Vec<PathEntry> = (nodes.iter().enumerate())
                            .zip(costs.iter().cycle())
                            .map(|((at, &node), &cost)| PathEntry {
                                node,
                                cost: Cost::new(if at == last { 0 } else { cost }),
                            })
                            .collect();
                        let transit = nodes.len().saturating_sub(2);
                        let info = RouteInfo::Reachable {
                            path: SharedPath::from(entries),
                            path_cost: Cost::new(*path_cost),
                            prices: vec![Cost::new(9); transit],
                        };
                        (dest, info)
                    }
                };
                RouteAdvertisement { destination, info }
            })
            .collect();
        Update {
            from,
            sender_costs: (spec.sender_costs.iter())
                .map(|&(u, cost)| (AsId::new(u), Cost::new(cost)))
                .collect(),
            advertisements,
            id: 0,
        }
    }

    /// Both tables, destination by destination, and the destinations each
    /// selects for.
    fn same_tables(
        reference: &RouteSelector,
        flagged: &RouteSelector,
    ) -> Result<(), TestCaseError> {
        prop_assert_eq!(
            reference.destinations().collect::<Vec<_>>(),
            flagged.destinations().collect::<Vec<_>>()
        );
        for dest in (0..UNIVERSE).map(AsId::new) {
            prop_assert_eq!(reference.selected(dest), flagged.selected(dest), "{}", dest);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Following the flags, and re-deciding only the routes through a lost
        /// link, selects exactly what deciding everything touched selects.
        fn the_flags_skip_only_what_cannot_change(
            steps in proptest::collection::vec(step(), 1..24),
            declared in 0u64..4,
        ) {
            let declared = Cost::new(declared);
            let mut reference = RouteSelector::new(ME, declared, INITIAL_NEIGHBORS);
            let mut flagged = reference.clone();
            for step in &steps {
                match step {
                    Step::Batch(specs) => {
                        // One stage's inbox: the flags of its updates are ORed
                        // per destination, and selection runs once, after all
                        // of them, as in a node step.
                        let mut touched = BTreeSet::new();
                        let mut flags: BTreeMap<AsId, bool> = BTreeMap::new();
                        for spec in specs {
                            let update = update(spec, &reference);
                            touched.extend(reference.ingest(&update).iter().copied());
                            for (dest, flag) in flagged.ingest_flagged(&update) {
                                *flags.entry(dest).or_default() |= flag;
                            }
                        }
                        prop_assert_eq!(&touched, &flags.keys().copied().collect());
                        for &dest in &touched {
                            reference.decide(dest);
                        }
                        for (&dest, _) in flags.iter().filter(|(_, &flag)| flag) {
                            flagged.decide(dest);
                        }
                    }
                    Step::LinkDown(a) => {
                        let a = AsId::new(*a);
                        let covered = reference.rib_destinations(a);
                        let mut changed: BTreeSet<AsId> =
                            reference.link_down(a).into_iter().collect();
                        changed.extend(covered.into_iter().filter(|&dest| reference.decide(dest)));
                        let reported: BTreeSet<AsId> = flagged.link_down(a).into_iter().collect();
                        prop_assert_eq!(reported, changed, "{:?}", step);
                    }
                    Step::LinkUp(a) => {
                        reference.link_up(AsId::new(*a));
                        flagged.link_up(AsId::new(*a));
                    }
                }
                same_tables(&reference, &flagged)?;
                prop_assert_eq!(reference.decide_all(), Vec::<AsId>::new(), "decided");
            }
        }
    }
}
