//! Route selection: the per-node path-vector decision process.

use crate::message::{PathEntry, RouteInfo, SharedPath, Update};
use crate::stats::StateSnapshot;
use bgpvcg_lcp::Route;
use bgpvcg_netgraph::{AsId, Cost};
use std::fmt;

/// A selected routing-table entry: the chosen path (cost-annotated) and its
/// transit cost.
///
/// The path is a [`SharedPath`]: the same interned handle flows into every
/// advertisement built from this entry, so re-advertising an unchanged
/// route never copies path bytes.
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
        self.path.get(1).map(|e| e.node)
    }

    /// Number of hops.
    pub fn hops(&self) -> usize {
        self.path.len() - 1
    }
}

/// Structural validity of an incoming reachable advertisement: the path is
/// non-empty, starts at the advertiser, ends at the destination, repeats no
/// node, names no node at or beyond `bound` (the receiver's tables are
/// indexed by AS number, so an id must never decide an allocation), and
/// carries at most one price slot per transit node. Everything a receiver
/// later indexes into is covered, so a malformed message can be dropped
/// here once instead of defended against everywhere.
fn well_formed(from: AsId, destination: AsId, info: &RouteInfo, bound: usize) -> bool {
    let RouteInfo::Reachable { path, prices, .. } = info else {
        // Withdrawals carry no structure; price deltas are validated
        // against the retained route at application time (see `ingest`).
        return true;
    };
    let (Some(first), Some(last)) = (path.first(), path.last()) else {
        return false;
    };
    if first.node != from || last.node != destination {
        return false;
    }
    // Each node against its predecessors, in place: no set to build, and
    // on the few-hop paths of real tables fewer comparisons than one
    // ordered-set insertion.
    let simple = path.iter().enumerate().all(|(at, entry)| {
        entry.node.index() < bound && path[..at].iter().all(|seen| seen.node != entry.node)
    });
    simple && prices.len() <= path.len().saturating_sub(2)
}

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
fn nodes(path: &[PathEntry]) -> impl Iterator<Item = AsId> + '_ {
    path.iter().map(|e| e.node)
}

/// The path-vector decision process of one AS: Rib-In (the last routes each
/// neighbor advertised), route selection under the deterministic order, and
/// the selected routing table.
///
/// `RouteSelector` is deliberately protocol-logic only — no I/O — so the
/// synchronous and asynchronous engines, and the pricing extension in
/// `bgpvcg-core`, all drive the same code (the paper's mechanism is an
/// extension of BGP, so the BGP decision process must be shared, not
/// duplicated).
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
    rib: Vec<Option<RouteInfo>>,
    /// The selected routing table, indexed by destination. Own destination
    /// always holds the trivial route.
    table: Vec<Option<SelectedRoute>>,
    /// Advertisements naming an AS at or beyond this index are malformed:
    /// the node count for a selector built from a graph, unbounded for one
    /// that grows its tables on demand.
    bound: usize,
    /// `ingest`'s result buffer, reused across calls.
    affected: Vec<AsId>,
    /// Aligned with `affected`: whether that change can re-open selection
    /// (anything but a price delta), reused across calls.
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
        // The trivial route is the only one without a hop.
        for route in self.table.iter_mut().flatten().filter(|r| r.hops() > 0) {
            // Interned paths are immutable: restamping the declared cost
            // mints a fresh handle (re-declaration is rare; sharing wins on
            // the per-stage re-advertisement path).
            route.path = std::iter::once(head)
                .chain(route.path[1..].iter().copied())
                .collect();
        }
        let own = self.id;
        self.destinations().filter(|&dest| dest != own).collect()
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
    fn row(&self, dest: AsId) -> &[Option<RouteInfo>] {
        let deg = self.neighbors.len();
        let start = dest.index() * deg;
        self.rib.get(start..start + deg).unwrap_or(&[])
    }

    /// The route `a` last advertised for `dest`, if any.
    pub fn rib(&self, a: AsId, dest: AsId) -> Option<&RouteInfo> {
        self.row(dest).get(self.slot(a)?)?.as_ref()
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
    pub fn rib_for(&self, dest: AsId) -> impl Iterator<Item = (AsId, &RouteInfo)> + '_ {
        self.neighbors
            .iter()
            .zip(self.row(dest))
            .filter_map(|(&a, cell)| cell.as_ref().map(|info| (a, info)))
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
            for info in self.row(AsId::new(dest)).iter().flatten() {
                snapshot.rib_entries += 1;
                snapshot.rib_path_nodes += info.path().map_or(0, <[_]>::len);
            }
        }
        snapshot
    }

    /// Ingests an UPDATE from a neighbor into the Rib-In, returning the
    /// destinations whose advertised state changed, in message order (a
    /// destination the update names twice can appear twice). Messages from
    /// non-neighbors (possible transiently around link failures in the
    /// asynchronous engine) are ignored. The returned slice is the
    /// selector's own buffer, valid until the next call.
    pub fn ingest(&mut self, update: &Update) -> &[AsId] {
        self.update_rib(update);
        &self.affected
    }

    /// [`ingest`](Self::ingest), with each affected destination paired
    /// with whether anything other than a [`RouteInfo::PriceDelta`] touched
    /// it: a full advertisement, a withdrawal, or a changed cost vector. A
    /// delta only patches prices on a retained path — no candidate's path,
    /// cost or loop status moves — so a destination that only deltas
    /// touched keeps its selection, and [`decide`](Self::decide) on it
    /// would be wasted.
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
                // this neighbor.
                let column = self.rib_destinations(update.from);
                self.affected.extend(column);
                self.reroutes.resize(self.affected.len(), true);
            }
        }
        for ad in &update.advertisements {
            let dest = ad.destination;
            let changed = match &ad.info {
                RouteInfo::Withdrawn => self
                    .rib
                    .get_mut(dest.index() * deg + slot)
                    .is_some_and(|cell| cell.take().is_some()),
                RouteInfo::PriceDelta {
                    base_path_hash,
                    entries,
                } => {
                    // Patch the retained full advertisement in place. Any
                    // mismatch — no retained route, a path other than the
                    // one the delta was computed against, or an out-of-range
                    // price index — drops the delta silently: the sender's
                    // next full advertisement (session resynchronization
                    // always sends one) restores the state.
                    let Some(Some(RouteInfo::Reachable { path, prices, .. })) =
                        self.rib.get_mut(dest.index() * deg + slot)
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
                        // lint:allow(bounds: every idx range-checked above)
                        let cell = &mut prices[usize::from(idx)];
                        touched |= *cell != value;
                        *cell = value;
                    }
                    touched
                }
                reachable => {
                    // Drop structurally malformed advertisements instead of
                    // trusting them: a misbehaving or buggy neighbor must
                    // not be able to crash this node (the paper's Sect. 7
                    // notes the agents themselves run the algorithm).
                    if !well_formed(update.from, dest, reachable, self.bound) {
                        continue;
                    }
                    if dest.index() >= self.table.len() {
                        // Only a selector built without a node count gets
                        // here: `well_formed` bounds every other one.
                        self.table.resize(dest.index() + 1, None);
                        self.rib.resize((dest.index() + 1) * deg, None);
                    }
                    match self.rib.get_mut(dest.index() * deg + slot) {
                        Some(cell) if cell.as_ref() != Some(reachable) => {
                            reachable.store_into(cell);
                            true
                        }
                        _ => false,
                    }
                }
            };
            if changed {
                self.affected.push(dest);
                self.reroutes
                    .push(!matches!(ad.info, RouteInfo::PriceDelta { .. }));
            }
        }
    }

    /// Re-runs route selection for one destination; returns `true` if the
    /// selected route changed (including becoming unreachable).
    ///
    /// Selection: over all neighbors `a` whose Rib-In holds a route for
    /// `dest` not containing this node (loop suppression), extend that route
    /// by this node and keep the minimum under the deterministic route
    /// order `(transit cost, hop count, lexicographic AS path)`.
    pub fn decide(&mut self, dest: AsId) -> bool {
        if dest == self.id {
            return false; // the trivial route is permanent
        }
        // Candidates are compared where they lie in the row. Every
        // extension starts with this node, so ordering the advertised
        // paths orders the extensions; only a winner that differs from the
        // table entry is materialised and interned, so losing candidates
        // cost neither an allocation nor a content hash.
        let mut best: Option<(&[PathEntry], PathEntry, Cost)> = None;
        let cells = self.neighbors.iter().zip(&self.vectors).zip(self.row(dest));
        for ((&a, vector), cell) in cells {
            let Some(RouteInfo::Reachable {
                path, path_cost, ..
            }) = cell
            else {
                continue;
            };
            // Extending by ourselves turns the advertiser into a transit
            // node (unless it is the destination, which stays an endpoint).
            // In the base model the advertiser's cost is the first path
            // entry; in the per-neighbor model it is the advertiser's
            // receive cost *from us*, taken from its advertised vector, and
            // the advertiser's entry is restamped with it: each path entry
            // carries the node's cost *given its predecessor on this path*.
            let vector_cost = recv_cost(vector, self.id);
            let added = match vector_cost {
                _ if a == dest => Cost::ZERO,
                Some(cost) => cost,
                None => path[0].cost,
            };
            let advertiser = PathEntry {
                node: a,
                cost: vector_cost.map_or(path[0].cost, |_| added),
            };
            let cost = *path_cost + added;
            let better = best.is_none_or(|(best_path, _, best_cost)| {
                cost.cmp(&best_cost)
                    .then_with(|| path.len().cmp(&best_path.len()))
                    .then_with(|| nodes(path).cmp(nodes(best_path)))
                    .is_lt()
            });
            // Loop suppression last: it scans the path, and only a
            // would-be winner needs it.
            if better && !path.iter().any(|e| e.node == self.id) {
                best = Some((path, advertiser, cost));
            }
        }
        let head = PathEntry {
            node: self.id,
            cost: self.declared_cost,
        };
        let unchanged = match (best, self.selected(dest)) {
            (None, None) => true,
            (Some((path, advertiser, cost)), Some(old)) => {
                cost == old.cost
                    && old.path.len() == path.len() + 1
                    && old.path[0] == head
                    && old.path[1] == advertiser
                    && old.path[2..] == path[1..]
            }
            _ => false,
        };
        if unchanged {
            return false;
        }
        let route = best.map(|(path, advertiser, cost)| {
            let extended = [head, advertiser]
                .into_iter()
                .chain(path[1..].iter().copied());
            SelectedRoute {
                // lint:allow(output: the interned winning path, one allocation per route change)
                path: extended.collect(),
                cost,
            }
        });
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
        self.vectors.iter_mut().for_each(Vec::clear);
        let own = self.id.index();
        for (dest, route) in self.table.iter_mut().enumerate() {
            if dest != own {
                *route = None;
            }
        }
    }

    /// Handles the link to `a` going down: drops its Rib-In column and
    /// re-decides the destinations it covered; returns those whose
    /// selection changed, ascending.
    ///
    /// Removing neighbor `a` only removes candidates, and only for the
    /// destinations `a` had advertised — every other destination's candidate
    /// set (and therefore its selection) is untouched, so re-deciding the
    /// dropped column's destinations is equivalent to a full `decide_all`
    /// rescan.
    pub fn link_down(&mut self, a: AsId) -> Vec<AsId> {
        let Some(slot) = self.slot(a) else {
            return Vec::new();
        };
        let mut dropped = self.rib_destinations(a);
        let deg = self.neighbors.len();
        let mut at = 0;
        self.rib.retain(|_| {
            at += 1;
            (at - 1) % deg != slot
        });
        self.neighbors.remove(slot);
        self.vectors.remove(slot);
        dropped.retain(|&dest| self.decide(dest));
        dropped
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
        let affected = s.ingest(&update(1, vec![ad(1, vec![entry(1, 3)], 0)]));
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
            vec![ad(9, vec![entry(1, 3), entry(7, 4), entry(9, 2)], 4)],
        ));
        // Route to 9 via neighbor 2 (2 declares cost 1): transit = 1 + 0.
        s.ingest(&update(2, vec![ad(9, vec![entry(2, 1), entry(9, 2)], 0)]));
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
            vec![ad(9, vec![entry(1, 3), entry(0, 5), entry(9, 2)], 5)],
        ));
        s.decide(AsId::new(9));
        assert!(s.selected(AsId::new(9)).is_none(), "only candidate loops");
    }

    #[test]
    fn withdrawal_removes_route() {
        let mut s = selector();
        s.ingest(&update(1, vec![ad(1, vec![entry(1, 3)], 0)]));
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
        let affected = s.ingest(&update(77, vec![ad(1, vec![entry(77, 1)], 0)]));
        assert!(affected.is_empty());
    }

    #[test]
    fn reingest_of_same_route_reports_no_change() {
        let mut s = selector();
        let u = update(1, vec![ad(1, vec![entry(1, 3)], 0)]);
        assert!(!s.ingest(&u).is_empty());
        assert!(s.ingest(&u).is_empty(), "identical re-advertisement");
    }

    #[test]
    fn link_down_drops_routes_via_neighbor() {
        let mut s = selector();
        s.ingest(&update(1, vec![ad(1, vec![entry(1, 3)], 0)]));
        s.ingest(&update(2, vec![ad(2, vec![entry(2, 1)], 0)]));
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
    fn link_up_registers_neighbor() {
        let mut s = selector();
        s.link_up(AsId::new(7));
        assert!(s.has_neighbor(AsId::new(7)));
        let affected = s.ingest(&update(7, vec![ad(7, vec![entry(7, 2)], 0)]));
        assert!(!affected.is_empty());
    }

    #[test]
    fn set_declared_cost_updates_own_entry() {
        let mut s = selector();
        assert_eq!(s.selected(AsId::new(0)).unwrap().path[0].cost, Cost::ZERO);
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
        assert_eq!(own.path[..], [entry(0, 0)]);
        // Every other route's head is restamped; the rest is as learned.
        let direct = s.selected(AsId::new(1)).unwrap();
        assert_eq!(direct.path[..], [entry(0, 11), entry(1, 0)]);
        let far = s.selected(AsId::new(9)).unwrap();
        assert_eq!(
            far.path[..],
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
        let u = update(1, vec![ad(9, vec![entry(1, 3), entry(9, 2)], 0)]).with_sender_costs(vec![
            (AsId::new(0), Cost::new(7)),
            (AsId::new(9), Cost::new(1)),
        ]);
        s.ingest(&u);
        s.decide(AsId::new(9));
        let route = s.selected(AsId::new(9)).unwrap();
        assert_eq!(route.cost, Cost::new(7));
        assert_eq!(
            route.path[1].cost,
            Cost::new(7),
            "entry restamped for its predecessor"
        );
        assert_eq!(s.recv_cost_from(AsId::new(1)), Some(Cost::new(7)));
        assert!(s.neighbor_vector(AsId::new(1)).is_some());
    }

    #[test]
    fn changed_vector_marks_all_neighbor_dests_affected() {
        let mut s = selector();
        let u1 = update(1, vec![ad(9, vec![entry(1, 3), entry(9, 2)], 0)])
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
            causes: Vec::new(),
        };
        let affected = s.ingest(&u2);
        assert!(affected.contains(&AsId::new(9)), "{affected:?}");
        s.decide(AsId::new(9));
        assert_eq!(s.selected(AsId::new(9)).unwrap().cost, Cost::new(2));
    }

    #[test]
    fn link_down_drops_neighbor_vector() {
        let mut s = selector();
        let u = update(1, vec![ad(1, vec![entry(1, 3)], 0)])
            .with_sender_costs(vec![(AsId::new(0), Cost::new(7))]);
        s.ingest(&u);
        assert!(s.neighbor_vector(AsId::new(1)).is_some());
        s.link_down(AsId::new(1));
        assert!(s.neighbor_vector(AsId::new(1)).is_none());
        assert_eq!(s.recv_cost_from(AsId::new(1)), None);
    }

    #[test]
    fn malformed_advertisements_are_dropped() {
        let mut s = selector();
        // Wrong first node (claims to be node 7 but sent by 1).
        let bad_first = update(1, vec![ad(9, vec![entry(7, 1), entry(9, 2)], 0)]);
        assert!(s.ingest(&bad_first).is_empty());
        // Path does not end at the destination.
        let bad_last = update(1, vec![ad(9, vec![entry(1, 1), entry(8, 2)], 0)]);
        assert!(s.ingest(&bad_last).is_empty());
        // Repeated node.
        let looped = update(
            1,
            vec![ad(
                9,
                vec![entry(1, 1), entry(4, 2), entry(1, 1), entry(9, 2)],
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
                    path: vec![entry(1, 1), entry(9, 2)].into(),
                    path_cost: Cost::ZERO,
                    prices: vec![Cost::new(1)],
                },
            }],
            id: 0,
            causes: Vec::new(),
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
            causes: Vec::new(),
        };
        assert!(s.ingest(&empty).is_empty());
    }

    #[test]
    fn reset_forgets_learned_state_but_keeps_identity() {
        let mut s = selector();
        let u = update(1, vec![ad(9, vec![entry(1, 3), entry(9, 2)], 0)])
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
        s.ingest(&update(1, vec![ad(1, vec![entry(1, 3)], 0)]));
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
            causes: Vec::new(),
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
            causes: Vec::new(),
        }
    }

    #[test]
    fn price_delta_patches_retained_route() {
        let mut s = selector();
        let path = priced_base(&mut s);
        let affected = s.ingest(&delta_update(path.hash64(), vec![(0, Cost::new(4))]));
        assert_eq!(affected, [AsId::new(9)]);
        let patched = s.rib(AsId::new(1), AsId::new(9)).unwrap();
        assert_eq!(patched.price_of(AsId::new(4)), Some(Cost::new(4)));
        assert_eq!(
            patched.path_cost(),
            Some(Cost::new(2)),
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
        assert_eq!(retained.price_of(AsId::new(4)), Some(Cost::new(7)));
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
        let as_dest = update(1, vec![ad(huge, vec![entry(1, 3), entry(huge, 2)], 0)]);
        assert!(s.ingest(&as_dest).is_empty());
        // As a transit node on a path to a destination that is in range.
        let as_transit = update(
            1,
            vec![ad(9, vec![entry(1, 3), entry(huge, 1), entry(9, 2)], 1)],
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
            .ingest(&update(1, vec![ad(9, vec![entry(1, 3), entry(9, 2)], 0)]))
            .is_empty());
        assert_eq!(open.table.len(), 10);
    }
}
