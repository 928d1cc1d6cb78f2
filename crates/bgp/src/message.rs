//! Protocol messages.

use bgpvcg_netgraph::{AsId, Cost};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Deref;
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

/// An immutable, reference-counted AS path with a cached content hash.
///
/// Paths are built once per route *selection* and then shared by handle:
/// the selector's table, every retained adj-RIB-in copy, and every outgoing
/// advertisement hold the same `Arc<[PathEntry]>`, so re-advertising a
/// route clones a pointer instead of a `Vec`. The cached FNV-1a-64 hash
/// identifies the path on the wire (see
/// [`RouteInfo::PriceDelta::base_path_hash`]) and makes repeated equality
/// checks cheap: pointer equality first, then hash, then contents.
#[derive(Debug, Clone)]
pub struct SharedPath {
    entries: Arc<[PathEntry]>,
    hash: u64,
}

impl SharedPath {
    /// The cached FNV-1a-64 hash of the path contents (node ids and
    /// declared costs). Two equal paths always hash equal; collisions
    /// between different paths are possible in principle, which is why the
    /// delta-advertisement protocol treats a hash match as *necessary*,
    /// never as proof (the session layer already guarantees the receiver's
    /// retained path is byte-identical to the sender's).
    pub fn hash64(&self) -> u64 {
        self.hash
    }
}

/// FNV-1a-64 over the path's wire-relevant content: each entry's AS number
/// as 4 little-endian bytes followed by its raw cost as 8 little-endian
/// bytes (`∞` as `u64::MAX`).
fn fnv1a_path(entries: &[PathEntry]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    let mut eat = |byte: u8| {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(PRIME);
    };
    for entry in entries {
        for byte in (entry.node.index() as u32).to_le_bytes() {
            eat(byte);
        }
        for byte in entry.cost.finite().unwrap_or(u64::MAX).to_le_bytes() {
            eat(byte);
        }
    }
    hash
}

impl From<Vec<PathEntry>> for SharedPath {
    fn from(entries: Vec<PathEntry>) -> SharedPath {
        entries.into_iter().collect()
    }
}

impl FromIterator<PathEntry> for SharedPath {
    /// Interns a path straight from an iterator: with an exact-size source
    /// this is one allocation, where going through a `Vec` is two.
    fn from_iter<I: IntoIterator<Item = PathEntry>>(entries: I) -> SharedPath {
        let entries: Arc<[PathEntry]> = entries.into_iter().collect();
        let hash = fnv1a_path(&entries);
        SharedPath { entries, hash }
    }
}

impl Deref for SharedPath {
    type Target = [PathEntry];

    fn deref(&self) -> &[PathEntry] {
        &self.entries
    }
}

impl PartialEq for SharedPath {
    fn eq(&self, other: &SharedPath) -> bool {
        // Shared handles are the common case; the cached hash rejects most
        // genuine differences before the content walk.
        Arc::ptr_eq(&self.entries, &other.entries)
            || (self.hash == other.hash && self.entries == other.entries)
    }
}

impl Eq for SharedPath {}

/// Price slots a retained route's array starts with: the transit count of
/// a six-node path, which few lowest-cost routes on AS-like graphs exceed.
const PRICE_ROOM: usize = 4;

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
    pub fn path(&self) -> Option<&[PathEntry]> {
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
        self.path()
            .is_some_and(|p| p.iter().any(|e| e.node == node))
    }

    /// The advertised price for transit node `k`, if the route is reachable
    /// and `k` is one of its transit nodes.
    pub fn price_of(&self, k: AsId) -> Option<Cost> {
        let RouteInfo::Reachable { path, prices, .. } = self else {
            return None;
        };
        if path.len() < 3 {
            return None;
        }
        let transit = &path[1..path.len() - 1];
        let pos = transit.iter().position(|e| e.node == k)?;
        prices.get(pos).copied()
    }

    /// The [`RouteInfo::PriceDelta`] that turns the price array `sent`
    /// into `now` on the unchanged `path` — for a sender whose selected
    /// path and path cost equal what it last advertised and whose prices
    /// alone moved. `None` whenever a full advertisement is required: the
    /// arrays differ in length, are too long for a `u16` index, or are
    /// equal.
    pub fn price_delta(path: &SharedPath, sent: &[Cost], now: &[Cost]) -> Option<RouteInfo> {
        if sent.len() != now.len() || now.len() > usize::from(u16::MAX) {
            return None;
        }
        let entries: Vec<(u16, Cost)> = sent
            .iter()
            .zip(now)
            .enumerate()
            .filter(|(_, (old, new))| old != new)
            .map(|(idx, (_, new))| (idx as u16, *new))
            .collect();
        if entries.is_empty() {
            return None;
        }
        Some(RouteInfo::PriceDelta {
            base_path_hash: path.hash64(),
            entries,
        })
    }

    /// Writes this route into a retained-state cell (Rib-In, Adj-RIB-Out).
    /// A cell that already holds a route keeps its price vector's
    /// allocation, and one taking its first priced route gets room for
    /// `PRICE_ROOM` entries, so cells that are overwritten stage after
    /// stage — while paths, and with them price arrays, still lengthen —
    /// settle into not allocating at all.
    pub fn store_into(&self, cell: &mut Option<RouteInfo>) {
        let RouteInfo::Reachable {
            path,
            path_cost,
            prices,
        } = self
        else {
            *cell = Some(self.clone());
            return;
        };
        if let Some(RouteInfo::Reachable {
            path: held_path,
            path_cost: held_cost,
            prices: held_prices,
        }) = cell
        {
            held_path.clone_from(path);
            *held_cost = *path_cost;
            held_prices.clone_from(prices);
            return;
        }
        let room = match prices.len() {
            0 => 0, // plain BGP and transit-free routes carry no prices
            len => len.max(PRICE_ROOM),
        };
        let mut held_prices = Vec::with_capacity(room);
        held_prices.extend_from_slice(prices);
        *cell = Some(RouteInfo::Reachable {
            path: path.clone(),
            path_cost: *path_cost,
            prices: held_prices,
        });
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
    /// Engine-assigned provenance id, monotone per engine run (0 = not yet
    /// stamped). Observability metadata only: never wire-encoded, so byte
    /// accounting and the wire golden corpus are unaffected.
    pub id: u64,
    /// Per-advertisement cause ids, parallel to `advertisements`: entry `i`
    /// names the [`Update::id`] of the inbound update whose ingestion
    /// triggered advertisement `i`. Cause 0 is the environment (origin
    /// advertisement, topology event, session full-table sync). An empty
    /// vector means every entry is environment-caused. Never wire-encoded.
    pub causes: Vec<u64>,
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
                causes: Vec::new(),
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

    /// Provenance cause of advertisement `i` (0 = environment; see
    /// [`Update::causes`]).
    pub fn cause_of(&self, i: usize) -> u64 {
        self.causes.get(i).copied().unwrap_or(0)
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
    fn price_delta_lists_only_the_cells_that_moved() {
        let RouteInfo::Reachable { path, prices, .. } = reachable() else {
            unreachable!()
        };
        let now = [Cost::new(4), Cost::new(2)];
        let delta = RouteInfo::price_delta(&path, &prices, &now).expect("one price cell relaxed");
        assert_eq!(
            delta,
            RouteInfo::PriceDelta {
                base_path_hash: path.hash64(),
                entries: vec![(1, Cost::new(2))],
            }
        );
    }

    #[test]
    fn price_delta_requires_same_length_and_a_change() {
        let RouteInfo::Reachable { path, prices, .. } = reachable() else {
            unreachable!()
        };
        // Unchanged prices: nothing to send as a delta.
        assert_eq!(RouteInfo::price_delta(&path, &prices, &prices), None);
        // A different transit count means a different path: full advertisement.
        assert_eq!(
            RouteInfo::price_delta(&path, &prices, &[Cost::new(3)]),
            None
        );
    }

    #[test]
    fn store_into_reuses_the_held_price_vector() {
        let mut cell = None;
        reachable().store_into(&mut cell);
        assert_eq!(cell, Some(reachable()));
        let held = |cell: &Option<RouteInfo>| match cell {
            Some(RouteInfo::Reachable { prices, .. }) => (prices.as_ptr(), prices.capacity()),
            _ => unreachable!(),
        };
        let before = held(&cell);
        assert!(
            before.1 >= PRICE_ROOM,
            "room to lengthen without reallocating"
        );
        let longer = RouteInfo::Reachable {
            path: vec![
                entry(0, 2),
                entry(5, 1),
                entry(4, 2),
                entry(3, 1),
                entry(2, 4),
            ]
            .into(),
            path_cost: Cost::new(4),
            prices: vec![Cost::new(9), Cost::new(4), Cost::new(3)],
        };
        longer.store_into(&mut cell);
        assert_eq!(cell.as_ref(), Some(&longer));
        assert_eq!(held(&cell), before, "overwritten in place");
        RouteInfo::Withdrawn.store_into(&mut cell);
        assert_eq!(cell, Some(RouteInfo::Withdrawn));
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
                    causes: Vec::new(),
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
            causes: Vec::new(),
        };
        assert!(u.to_string().contains("AS7"));
    }
}
