//! Protocol messages.

use crate::rib::{PriceSlab, RibCell, Span};
use bgpvcg_netgraph::{AsId, Cost};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// One node of an advertised AS path, annotated with the cost that node
/// declared — or [`Cost::ZERO`] for the path's last node, the destination,
/// which is never transit on a route to itself.
///
/// Carrying declared costs inside path attributes is the "declared cost …
/// included in the routing message exchanges" of the paper's Sect. 5/6: a
/// receiver learns the cost of every node that can be transit on a path it
/// hears about — the advertiser and the interior — which the case-(iv)
/// price relaxation needs (`p^k_ij ≤ c_k + …`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PathEntry {
    /// The AS.
    pub node: AsId,
    /// That AS's declared per-packet transit cost; zero when the AS is the
    /// path's destination.
    pub cost: Cost,
}

/// An immutable, reference-counted AS path: a persistent list whose every
/// node is itself a path, the one it extends by its first entry.
///
/// A node's route to a destination is one hop on the path its next hop
/// advertised, so a selection prepends one entry to the advertised handle
/// instead of copying it: the routes to one destination form the tree of
/// the paper's `T(j)`, and a path costs one node per hop it adds. The
/// selector's table, every retained Rib-In copy and every outgoing
/// advertisement hold handles to the same nodes, so re-advertising a route
/// clones a pointer.
///
/// Each node also records what a receiver checks of an advertised path —
/// its length, destination, largest AS number, whether an AS repeats and
/// whether the destination's entry is costless — so that check reads one
/// node instead of walking the path, and the path's hash, made with the
/// node from its rest's hash in one step (see [`hash64`](Self::hash64)).
/// The hash identifies the path on the wire (see
/// [`RouteInfo::PriceDelta::base_path_hash`]) and makes equality checks
/// cheap: pointer equality first, then length and hash, then contents,
/// which stop at the first suffix the two share.
#[derive(Clone)]
pub struct SharedPath(Arc<PathNode>);

/// One node of a [`SharedPath`]: 40 bytes, so with the reference counts one
/// 64-byte heap chunk per path node.
struct PathNode {
    /// The first entry's AS (meaningless on the empty path).
    node: AsId,
    /// The entry count, with [`SIMPLE`] and [`COSTLESS_END`] in its top bits.
    meta: u32,
    /// The first entry's cost.
    cost: Cost,
    /// The last entry's AS.
    last_node: AsId,
    /// The largest AS number on the path.
    max_id: u32,
    /// The path's hash: [`fnv1a_entry`] of the first entry over the rest's.
    hash: u64,
    /// The path this one extends, `None` past the last entry.
    rest: Option<SharedPath>,
}

/// `meta` bit: no AS appears twice on the path.
const SIMPLE: u32 = 1 << 31;
/// `meta` bit: the last entry's cost is [`Cost::ZERO`].
const COSTLESS_END: u32 = 1 << 30;
/// `meta` bits holding the entry count. A longer path would take 64 GiB.
const LEN: u32 = COSTLESS_END - 1;

const _: () = assert!(
    std::mem::size_of::<PathNode>() == 40,
    "a path node and its reference counts fill one 64-byte heap chunk"
);

/// The FNV-1a-64 offset basis: the hash of the path with no entry.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The FNV-1a-64 prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One FNV-1a-64 step from `hash` over `entry`'s 12 bytes: its AS number
/// as 4 little-endian bytes, then its raw cost as 8 little-endian bytes
/// (`∞` as `u64::MAX`).
fn fnv1a_entry(hash: u64, entry: PathEntry) -> u64 {
    let node = entry.node.raw().to_le_bytes();
    let cost = entry.cost.finite().unwrap_or(u64::MAX).to_le_bytes();
    node.into_iter().chain(cost).fold(hash, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME)
    })
}

impl Drop for PathNode {
    /// Unlinks the suffix node by node: the default drop would recurse once
    /// per entry, and a long enough path would overflow the stack.
    fn drop(&mut self) {
        let mut rest = self.rest.take();
        while let Some(path) = rest {
            rest = Arc::into_inner(path.0).and_then(|mut node| node.rest.take());
        }
    }
}

impl SharedPath {
    /// The path `head` followed by `rest`: one node, which shares `rest`
    /// instead of copying it. Whether `head` repeats an AS of `rest` is
    /// found by walking `rest`, unless `rest` already repeats one.
    pub fn cons(head: PathEntry, rest: Option<SharedPath>) -> SharedPath {
        let simple = rest
            .as_ref()
            .is_none_or(|rest| rest.is_simple() && !rest.contains(head.node));
        SharedPath::link(head, rest, simple)
    }

    /// [`cons`](Self::cons) without the walk: the caller vouches for
    /// `simple`, whether `head` followed by `rest` repeats no AS. An empty
    /// `rest` is no rest: the result is the one-entry path.
    pub(crate) fn link(head: PathEntry, rest: Option<SharedPath>, simple: bool) -> SharedPath {
        let rest = rest.filter(|rest| !rest.is_empty());
        let (len, last_node, max_id, costless_end, rest_hash) = match &rest {
            Some(rest) => (
                rest.len() as u32 + 1,
                rest.0.last_node,
                rest.0.max_id.max(head.node.raw()),
                rest.0.meta & COSTLESS_END != 0,
                rest.0.hash,
            ),
            None => (
                1,
                head.node,
                head.node.raw(),
                head.cost == Cost::ZERO,
                FNV_OFFSET,
            ),
        };
        let flags = if simple { SIMPLE } else { 0 } | if costless_end { COSTLESS_END } else { 0 };
        SharedPath::alloc(PathNode {
            node: head.node,
            meta: (len & LEN) | flags,
            cost: head.cost,
            last_node,
            max_id,
            hash: fnv1a_entry(rest_hash, head),
            rest,
        })
    }

    /// The path with no entry; only a malformed advertisement has one.
    fn empty() -> SharedPath {
        SharedPath::alloc(PathNode {
            node: AsId::new(0),
            meta: SIMPLE,
            cost: Cost::ZERO,
            last_node: AsId::new(0),
            max_id: 0,
            hash: FNV_OFFSET,
            rest: None,
        })
    }

    fn alloc(node: PathNode) -> SharedPath {
        SharedPath(Arc::new(node))
    }

    /// The FNV-1a-64 hash of the path contents: the entries from *last to
    /// first*, each as its AS number (4 bytes, little-endian) followed by
    /// its raw cost (8 bytes, little-endian, `∞` as `u64::MAX`). Read
    /// backwards, a path is its rest followed by its first entry, so a node
    /// hashes its own entry over its rest's hash when it is made — one
    /// 12-byte step, whatever the length — and a one-entry path hashes its
    /// entry from the offset basis.
    ///
    /// Two equal paths always hash equal; collisions between different
    /// paths are possible in principle, which is why the
    /// delta-advertisement protocol treats a hash match as *necessary*,
    /// never as proof (the session layer already guarantees the receiver's
    /// retained path is byte-identical to the sender's).
    pub fn hash64(&self) -> u64 {
        self.0.hash
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        (self.0.meta & LEN) as usize
    }

    /// `true` for the path with no entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` if no AS appears on the path twice.
    pub fn is_simple(&self) -> bool {
        self.0.meta & SIMPLE != 0
    }

    /// `true` if the last entry carries no cost, as a destination's entry
    /// must.
    pub fn has_costless_end(&self) -> bool {
        !self.is_empty() && self.0.meta & COSTLESS_END != 0
    }

    /// The largest AS number on the path.
    pub fn max_node(&self) -> Option<AsId> {
        (!self.is_empty()).then_some(AsId::new(self.0.max_id))
    }

    /// The entries, first to last.
    pub fn iter(&self) -> PathIter<'_> {
        PathIter {
            next: Some(self),
            left: self.len(),
        }
    }

    /// The first entry: the advertiser on an advertised path, the node
    /// itself on a selected one.
    pub fn first(&self) -> Option<PathEntry> {
        (!self.is_empty()).then_some(PathEntry {
            node: self.0.node,
            cost: self.0.cost,
        })
    }

    /// The last entry, found by walking the path.
    pub fn last(&self) -> Option<PathEntry> {
        self.iter().last()
    }

    /// The last entry's AS — the destination, on a well-formed path —
    /// without walking the path.
    pub fn last_node(&self) -> Option<AsId> {
        (!self.is_empty()).then_some(self.0.last_node)
    }

    /// The path after the first entry — the one this path extends — or
    /// `None` for a path of at most one entry.
    pub fn rest(&self) -> Option<&SharedPath> {
        self.0.rest.as_ref()
    }

    /// The path and each of its suffixes in turn: the path itself, its
    /// rest, the rest's rest, and so on down to the last entry.
    pub fn suffixes(&self) -> impl Iterator<Item = &SharedPath> {
        std::iter::successors(Some(self), |path| path.rest()).take(self.len())
    }

    /// Whether `self` and `other` are one path by handle, not just by
    /// contents.
    pub(crate) fn same_node(&self, other: &SharedPath) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// The address of the path's first node: two live handles with one
    /// key are one path, and two paths that share a node share everything
    /// after it. Meaningful only while a handle to the node is held.
    pub(crate) fn node_key(&self) -> usize {
        Arc::as_ptr(&self.0).addr()
    }

    /// Whether `node` is on the path. The walk stops at the first suffix
    /// whose largest AS number is below `node`, since nothing after it can
    /// be `node`.
    pub fn contains(&self, node: AsId) -> bool {
        self.suffixes()
            .take_while(|suffix| suffix.0.max_id >= node.raw())
            .any(|suffix| suffix.0.node == node)
    }

    /// The transit entries: every one but the first and the last, in path
    /// order.
    pub fn transit(&self) -> std::iter::Take<std::iter::Skip<PathIter<'_>>> {
        self.iter().skip(1).take(self.len().saturating_sub(2))
    }
}

/// The entries of a [`SharedPath`], first to last.
#[derive(Debug, Clone)]
pub struct PathIter<'a> {
    next: Option<&'a SharedPath>,
    left: usize,
}

impl Iterator for PathIter<'_> {
    type Item = PathEntry;

    fn next(&mut self) -> Option<PathEntry> {
        if self.left == 0 {
            return None;
        }
        let path = self.next?;
        self.left -= 1;
        self.next = path.rest();
        Some(PathEntry {
            node: path.0.node,
            cost: path.0.cost,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for PathIter<'_> {}

impl From<Vec<PathEntry>> for SharedPath {
    /// Builds a path from its entries, first to last: one node each, made
    /// from the last entry back. The suffixes that repeat an AS are those
    /// that start at or before the last entry whose AS appears again
    /// later, which one sort of the ids finds, not a walk per node.
    fn from(entries: Vec<PathEntry>) -> SharedPath {
        let mut ids: Vec<(AsId, usize)> =
            (entries.iter().map(|entry| entry.node)).zip(0..).collect();
        ids.sort_unstable();
        let repeats = ids.windows(2).filter(|pair| pair[0].0 == pair[1].0);
        let last_repeat = repeats.map(|pair| pair[0].1).max();
        let mut path = None;
        for (at, head) in entries.into_iter().enumerate().rev() {
            let simple = last_repeat.is_none_or(|repeat| at > repeat);
            path = Some(SharedPath::link(head, path, simple));
        }
        path.unwrap_or_else(SharedPath::empty)
    }
}

impl FromIterator<PathEntry> for SharedPath {
    /// Builds a path from its entries, first to last, as
    /// [`From<Vec<PathEntry>>`](#impl-From<Vec<PathEntry>>-for-SharedPath)
    /// does.
    fn from_iter<I: IntoIterator<Item = PathEntry>>(entries: I) -> SharedPath {
        entries.into_iter().collect::<Vec<_>>().into()
    }
}

impl fmt::Debug for SharedPath {
    /// The entries as one list and the hash: the same text as for a path
    /// stored as an array beside its hash.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Entries<'a>(&'a SharedPath);
        impl fmt::Debug for Entries<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0.iter()).finish()
            }
        }
        f.debug_struct("SharedPath")
            .field("entries", &Entries(self))
            .field("hash", &self.hash64())
            .finish()
    }
}

impl PartialEq for SharedPath {
    fn eq(&self, other: &SharedPath) -> bool {
        if Arc::ptr_eq(&self.0, &other.0) {
            return true;
        }
        if self.len() != other.len() || self.hash64() != other.hash64() {
            return false;
        }
        // Walk both until they differ, or reach a suffix they share.
        for (ours, theirs) in self.suffixes().zip(other.suffixes()) {
            if Arc::ptr_eq(&ours.0, &theirs.0) {
                return true;
            }
            if ours.first() != theirs.first() {
                return false;
            }
        }
        true
    }
}

impl Eq for SharedPath {}

/// The routing payload for one destination: a usable path, a compressed
/// price-only delta against the previously advertised path, or an explicit
/// withdrawal.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RouteInfo {
    /// The advertiser has a route; fields describe it.
    Reachable {
        /// AS path from the advertiser (first entry) to the destination
        /// (last entry). The advertiser's entry and every interior entry
        /// carry that node's declared cost; the destination's entry
        /// carries [`Cost::ZERO`], so a re-declaration by the destination
        /// leaves every route to it unchanged.
        path: SharedPath,
        /// Transit cost `c(advertiser, destination)` of the path (sum of
        /// intermediate nodes' declared costs).
        path_cost: Cost,
        /// The advertiser's current price entries `p^k` for each transit
        /// node `k` of `path`, in path order (`path[1..len-1]`). Empty for
        /// plain BGP and for routes without transit nodes. `∞` entries are
        /// prices not yet relaxed to a finite bound.
        prices: Vec<Cost>,
    },
    /// A compressed re-advertisement: the selected path (and its cost) are
    /// unchanged since this advertiser's previous advertisement for the
    /// destination — only the listed price entries relaxed. The receiver
    /// patches its retained adj-RIB-in copy in place; on any mismatch
    /// (no retained route, or a retained path whose [`SharedPath::hash64`]
    /// differs from `base_path_hash`) the delta is dropped and the next
    /// full advertisement — which session resynchronization always sends —
    /// restores the state. This is the paper's Sect. 6 monotone-relaxation
    /// common case: after routes settle, every subsequent update changes
    /// only price cells.
    PriceDelta {
        /// [`SharedPath::hash64`] of the unchanged base path the entries
        /// apply to.
        base_path_hash: u64,
        /// `(index, new_value)` patches into the retained `prices` array,
        /// in ascending index order.
        entries: Vec<(u16, Cost)>,
    },
    /// The advertiser no longer has any route to the destination.
    Withdrawn,
}

impl RouteInfo {
    /// The advertised path, if reachable.
    pub fn path(&self) -> Option<&SharedPath> {
        match self {
            RouteInfo::Reachable { path, .. } => Some(path),
            RouteInfo::PriceDelta { .. } | RouteInfo::Withdrawn => None,
        }
    }

    /// The advertised path cost, if reachable.
    pub fn path_cost(&self) -> Option<Cost> {
        match self {
            RouteInfo::Reachable { path_cost, .. } => Some(*path_cost),
            RouteInfo::PriceDelta { .. } | RouteInfo::Withdrawn => None,
        }
    }

    /// Returns `true` if `node` appears anywhere on the advertised path.
    pub fn contains(&self, node: AsId) -> bool {
        self.path().is_some_and(|path| path.contains(node))
    }

    /// The advertised price for transit node `k`, if the route is reachable
    /// and `k` is one of its transit nodes.
    pub fn price_of(&self, k: AsId) -> Option<Cost> {
        let RouteInfo::Reachable { path, prices, .. } = self else {
            return None;
        };
        let pos = path.transit().position(|e| e.node == k)?;
        prices.get(pos).copied()
    }

    /// Folds this advertisement into `cell`, a receiver's one retained copy
    /// of what one neighbor advertised for one destination, whose price
    /// array `slab` holds, and returns whether the retained route changed. A
    /// withdrawal clears the cell. A price delta patches the retained
    /// prices in place, and is dropped whole when no route is retained, the
    /// retained path is not the one the delta was computed against, or an
    /// index is out of range: the sender's next full advertisement (session
    /// resynchronization always sends one) restores the state. A full
    /// advertisement replaces the cell, its prices overwriting the old array
    /// where they fit and appended to the slab where they do not; the
    /// caller then [`tidy`](PriceSlab::tidy)s the slab over all its cells.
    ///
    /// This is the one rule for what a receiver keeps. Its two callers are
    /// the Rib-In ([`RouteSelector::ingest`](crate::RouteSelector::ingest),
    /// once a full advertisement has passed its well-formedness check) and
    /// the online auditor's per-link views of what each neighbor heard
    /// (`bgpvcg_core::audit::OnlineAuditor`).
    pub fn fold(&self, cell: &mut Option<RibCell>, slab: &mut PriceSlab) -> bool {
        match self {
            RouteInfo::Withdrawn => match cell.take() {
                Some(held) => {
                    slab.release(held.prices);
                    true
                }
                None => false,
            },
            RouteInfo::PriceDelta {
                base_path_hash,
                entries,
            } => {
                let Some(held) = cell else {
                    return false;
                };
                let prices = slab.get_mut(held.prices);
                if held.path.hash64() != *base_path_hash
                    || entries
                        .iter()
                        .any(|&(idx, _)| usize::from(idx) >= prices.len())
                {
                    return false;
                }
                let mut changed = false;
                for &(idx, value) in entries {
                    // lint:allow(bounds: every idx range-checked above)
                    let price = &mut prices[usize::from(idx)];
                    changed |= *price != value;
                    *price = value;
                }
                changed
            }
            RouteInfo::Reachable {
                path,
                path_cost,
                prices,
            } => match cell {
                Some(held)
                    if held.path == *path
                        && held.path_cost == *path_cost
                        && slab.get(held.prices) == &prices[..] =>
                {
                    false
                }
                Some(held) => {
                    held.path.clone_from(path);
                    held.path_cost = *path_cost;
                    slab.put(&mut held.prices, prices.iter().copied());
                    true
                }
                None => {
                    let mut span = Span::default();
                    slab.put(&mut span, prices.iter().copied());
                    *cell = Some(RibCell {
                        path: path.clone(),
                        path_cost: *path_cost,
                        prices: span,
                    });
                    true
                }
            },
        }
    }
}

/// One routing-table entry being advertised: a destination plus its
/// [`RouteInfo`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouteAdvertisement {
    /// The destination AS this entry routes toward.
    pub destination: AsId,
    /// The route (or withdrawal).
    pub info: RouteInfo,
}

/// An UPDATE message: the changed portion of one node's routing table,
/// broadcast to all of its neighbors.
///
/// The paper's model sends the full table on change and measures worst-case
/// complexity that way; like real BGP, this implementation sends only the
/// entries that changed (the engines' byte accounting records actual sizes,
/// and experiment E5 reports full-table sizes separately).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Update {
    /// The advertising AS.
    pub from: AsId,
    /// The advertiser's *per-neighbor* receive-cost vector — empty in the
    /// paper's base (node-uniform) cost model, populated under the Sect. 3
    /// per-neighbor extension, where a receiver `u` needs the advertiser's
    /// cost of receiving from `u` specifically to evaluate candidates.
    /// `O(degree)` extra data, still broadcast to all neighbors.
    pub sender_costs: Vec<(AsId, Cost)>,
    /// Changed table entries.
    pub advertisements: Vec<RouteAdvertisement>,
    /// Engine-assigned sequence number, monotone per engine run (0 = not
    /// yet stamped). Observability metadata only: never wire-encoded, so
    /// byte accounting and the wire golden corpus are unaffected.
    pub id: u64,
}

impl Update {
    /// Creates an update; returns `None` when there is nothing to send
    /// (protocol rule: only advertise on change).
    pub fn if_nonempty(from: AsId, advertisements: Vec<RouteAdvertisement>) -> Option<Update> {
        if advertisements.is_empty() {
            None
        } else {
            Some(Update {
                from,
                sender_costs: Vec::new(),
                advertisements,
                id: 0,
            })
        }
    }

    /// Attaches the advertiser's receive-cost vector (per-neighbor cost
    /// model only).
    #[must_use]
    pub fn with_sender_costs(mut self, sender_costs: Vec<(AsId, Cost)>) -> Update {
        self.sender_costs = sender_costs;
        self
    }

    /// Number of table entries carried.
    pub fn entry_count(&self) -> usize {
        self.advertisements.len()
    }
}

impl fmt::Display for Update {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Update from {} ({} entries)",
            self.from,
            self.advertisements.len()
        )
    }
}

/// A sequenced session frame: the unit the lossy-channel recovery layer
/// (see the `chaos` module and `docs/ROBUSTNESS.md`) exchanges between
/// neighbors instead of bare [`Update`]s.
///
/// Each direction of each link carries an independent stream identified by
/// an `epoch` (bumped on every session (re)establishment, so state lost to
/// a crash or hold-timer teardown can never be confused with the live
/// stream) and a per-epoch `seq`. Every frame also piggybacks the sender's
/// cumulative receive state for the reverse stream (`ack_epoch`/`ack`),
/// which drives retransmission and regression detection.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Frame {
    /// Epoch of the sender's stream toward the receiver.
    pub epoch: u64,
    /// Sequence number within `epoch`. [`FrameKind::Open`] always carries
    /// seq 0; keepalives repeat the next unassigned seq without consuming
    /// it.
    pub seq: u64,
    /// The epoch the sender currently accepts on the *reverse* stream
    /// (0 = none accepted yet).
    pub ack_epoch: u64,
    /// Cumulative ack for the reverse stream: all seqs `< ack` of
    /// `ack_epoch` were received in order.
    pub ack: u64,
    /// The payload.
    pub kind: FrameKind,
}

/// Payload of a session [`Frame`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FrameKind {
    /// Establishes (or re-establishes) the sender's stream: the receiver
    /// resets its per-neighbor receive state to this frame's epoch.
    Open,
    /// A sequenced routing UPDATE, shared: the frames of one broadcast,
    /// their retransmit-buffer copies and any duplicates all point at one
    /// payload.
    Data(Arc<Update>),
    /// Liveness probe carrying only ack state; sent when the stream has
    /// been idle long enough that the peer's hold timer could fire.
    Keepalive,
}

impl Frame {
    /// `true` for frames that consume a sequence number (and therefore are
    /// retransmitted until acknowledged).
    pub fn is_sequenced(&self) -> bool {
        !matches!(self.kind, FrameKind::Keepalive)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(raw: u32, cost: u64) -> PathEntry {
        PathEntry {
            node: AsId::new(raw),
            cost: Cost::new(cost),
        }
    }

    fn reachable() -> RouteInfo {
        // Path 0 -> 4 -> 3 -> 2 with transit nodes 4 (cost 2) and 3 (cost 1).
        RouteInfo::Reachable {
            path: vec![entry(0, 2), entry(4, 2), entry(3, 1), entry(2, 4)].into(),
            path_cost: Cost::new(3),
            prices: vec![Cost::new(4), Cost::new(3)],
        }
    }

    #[test]
    fn path_accessors() {
        let info = reachable();
        assert_eq!(info.path().unwrap().len(), 4);
        assert_eq!(info.path_cost(), Some(Cost::new(3)));
        assert!(info.contains(AsId::new(3)));
        assert!(!info.contains(AsId::new(9)));
    }

    #[test]
    fn withdrawn_has_nothing() {
        let info = RouteInfo::Withdrawn;
        assert_eq!(info.path(), None);
        assert_eq!(info.path_cost(), None);
        assert!(!info.contains(AsId::new(0)));
        assert_eq!(info.price_of(AsId::new(0)), None);
    }

    #[test]
    fn price_delta_has_no_path() {
        let info = RouteInfo::PriceDelta {
            base_path_hash: 7,
            entries: vec![(0, Cost::new(5))],
        };
        assert_eq!(info.path(), None);
        assert_eq!(info.path_cost(), None);
        assert!(!info.contains(AsId::new(0)));
        assert_eq!(info.price_of(AsId::new(0)), None);
    }

    #[test]
    fn price_of_transit_nodes() {
        let info = reachable();
        assert_eq!(info.price_of(AsId::new(4)), Some(Cost::new(4)));
        assert_eq!(info.price_of(AsId::new(3)), Some(Cost::new(3)));
        assert_eq!(info.price_of(AsId::new(0)), None, "source is not transit");
        assert_eq!(
            info.price_of(AsId::new(2)),
            None,
            "destination is not transit"
        );
    }

    #[test]
    fn price_of_on_short_paths() {
        let info = RouteInfo::Reachable {
            path: vec![entry(1, 5), entry(2, 4)].into(),
            path_cost: Cost::ZERO,
            prices: vec![],
        };
        assert_eq!(info.price_of(AsId::new(1)), None);
        assert_eq!(info.price_of(AsId::new(2)), None);
    }

    #[test]
    fn shared_paths_compare_by_content() {
        let a: SharedPath = vec![entry(0, 2), entry(4, 2)].into();
        let b: SharedPath = vec![entry(0, 2), entry(4, 2)].into();
        let c: SharedPath = vec![entry(0, 2), entry(4, 3)].into();
        assert_eq!(a, a.clone(), "shared handles are equal");
        assert_eq!(a, b, "separate builds of the same path are equal");
        assert_eq!(a.hash64(), b.hash64());
        assert_ne!(a, c);
        assert_ne!(a.hash64(), c.hash64(), "FNV separates these contents");
    }

    #[test]
    fn fold_keeps_what_a_receiver_keeps() {
        let mut slab = PriceSlab::default();
        let mut cell = None;
        let held = |cell: &Option<RibCell>, slab: &PriceSlab| {
            cell.as_ref().map(|held| held.view(slab).to_info())
        };
        assert!(reachable().fold(&mut cell, &mut slab));
        assert_eq!(held(&cell, &slab), Some(reachable()));
        assert!(
            !reachable().fold(&mut cell, &mut slab),
            "a repeat changes nothing"
        );
        assert_eq!(slab.len(), 2, "the route's two prices and no room besides");
        let path: SharedPath = vec![
            entry(0, 2),
            entry(5, 1),
            entry(4, 2),
            entry(3, 1),
            entry(2, 4),
        ]
        .into();
        let longer = RouteInfo::Reachable {
            path: path.clone(),
            path_cost: Cost::new(4),
            prices: vec![Cost::new(9), Cost::new(4), Cost::new(3)],
        };
        assert!(longer.fold(&mut cell, &mut slab));
        assert_eq!(held(&cell, &slab), Some(longer.clone()));
        assert_eq!(slab.len(), 5, "a longer array is appended");
        assert!(reachable().fold(&mut cell, &mut slab));
        assert_eq!(held(&cell, &slab), Some(reachable()));
        assert_eq!(slab.len(), 5, "a shorter one is written in place");
        assert!(longer.fold(&mut cell, &mut slab));
        // A delta patches the retained route only on its own path and
        // inside its price array; otherwise it is dropped whole.
        let delta = |hash: u64, entries: &[(u16, u64)]| RouteInfo::PriceDelta {
            base_path_hash: hash,
            entries: entries.iter().map(|&(i, p)| (i, Cost::new(p))).collect(),
        };
        assert!(!delta(path.hash64() ^ 1, &[(0, 7)]).fold(&mut cell, &mut slab));
        assert!(!delta(path.hash64(), &[(0, 7), (3, 7)]).fold(&mut cell, &mut slab));
        assert!(!delta(path.hash64(), &[(1, 4)]).fold(&mut cell, &mut slab));
        assert_eq!(held(&cell, &slab), Some(longer.clone()));
        assert!(delta(path.hash64(), &[(0, 7)]).fold(&mut cell, &mut slab));
        let patched = cell.as_ref().map(|held| held.view(&slab).prices);
        assert_eq!(
            patched,
            Some(&[Cost::new(7), Cost::new(4), Cost::new(3)][..])
        );
        assert!(RouteInfo::Withdrawn.fold(&mut cell, &mut slab));
        assert!(cell.is_none());
        assert!(!RouteInfo::Withdrawn.fold(&mut cell, &mut slab));
        assert!(!delta(path.hash64(), &[(0, 7)]).fold(&mut cell, &mut slab));
        assert!(cell.is_none());
    }

    #[test]
    fn update_if_nonempty() {
        assert!(Update::if_nonempty(AsId::new(1), vec![]).is_none());
        let ad = RouteAdvertisement {
            destination: AsId::new(2),
            info: RouteInfo::Withdrawn,
        };
        let u = Update::if_nonempty(AsId::new(1), vec![ad]).unwrap();
        assert_eq!(u.entry_count(), 1);
        assert_eq!(u.from, AsId::new(1));
    }

    #[test]
    fn only_keepalives_are_unsequenced() {
        let base = Frame {
            epoch: 1,
            seq: 0,
            ack_epoch: 0,
            ack: 0,
            kind: FrameKind::Open,
        };
        assert!(base.is_sequenced());
        let data = Frame {
            kind: FrameKind::Data(
                Update {
                    from: AsId::new(0),
                    sender_costs: Vec::new(),
                    advertisements: vec![],
                    id: 0,
                }
                .into(),
            ),
            ..base.clone()
        };
        assert!(data.is_sequenced());
        let keepalive = Frame {
            kind: FrameKind::Keepalive,
            ..base
        };
        assert!(!keepalive.is_sequenced());
    }

    #[test]
    fn display_is_compact() {
        let u = Update {
            from: AsId::new(7),
            sender_costs: Vec::new(),
            advertisements: vec![],
            id: 0,
        };
        assert!(u.to_string().contains("AS7"));
    }
}
