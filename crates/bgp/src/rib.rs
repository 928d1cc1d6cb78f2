//! What a receiver keeps of its neighbors' advertisements.
//!
//! Per neighbor and destination one [`RibCell`]: the retained path, its
//! cost, and where the route's price array lies. The arrays themselves sit
//! back to back in a [`PriceSlab`] that the cells' owner holds — one per
//! four destinations of a [`RouteSelector`](crate::RouteSelector), one per
//! node for its own prices, one per link view of the online auditor. A cell
//! is 24 bytes — a thin path handle, the path cost and a span — and owns no
//! heap block of its own, so a priced route costs its price entries and
//! nothing else: no vector header in the cell, no allocation per route.

use crate::message::{RouteInfo, SharedPath};
use bgpvcg_netgraph::Cost;
use std::ops::Range;

/// Entries below which a slab's buffer grows by doubling; from there on it
/// grows by an eighth. Doubling keeps small slabs from reallocating on
/// every append; past this size, doubling's slack is what the heap pays
/// (on the 128-cycle, whose slabs reach hundreds of entries, it raised
/// peak RSS 10 %).
const DOUBLING_BELOW: usize = 64;

/// Dead entries a slab tolerates before [`PriceSlab::tidy`] compacts it,
/// whatever their share: below this, a compaction would cost more than it
/// returns.
const MIN_DEAD: usize = 16;

/// Where one price array lies in its [`PriceSlab`]: `len` entries from
/// `offset`. A route without prices has an empty span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Span {
    offset: u32,
    len: u32,
}

impl Span {
    /// Number of entries.
    pub(crate) fn len(self) -> usize {
        self.len as usize
    }

    fn range(self) -> Range<usize> {
        let start = self.offset as usize;
        start..start + self.len as usize
    }
}

/// The price arrays of a set of retained routes, back to back in one
/// buffer, each named by its route's span.
///
/// An array that is rewritten no longer than it was stays where it is; a
/// longer one is appended, and its old place goes dead. The owner, which
/// alone knows every span the slab holds, calls [`tidy`](Self::tidy) after
/// each write, and once a quarter of the slab is dead that copies the live
/// arrays into a fresh buffer. The buffer grows by doubling while small and
/// by an eighth once large. Growth and compaction are both proportional to
/// what was appended since the last one, so a write costs `O(1)` amortized
/// per entry, and the buffer stays within a small factor of the live
/// entries.
#[derive(Debug, Clone, Default)]
pub struct PriceSlab {
    prices: Vec<Cost>,
    /// Entries no span covers any more.
    dead: usize,
}

impl PriceSlab {
    /// The array `span` names.
    pub(crate) fn get(&self, span: Span) -> &[Cost] {
        self.prices.get(span.range()).unwrap_or_default()
    }

    /// The array `span` names, writable.
    pub(crate) fn get_mut(&mut self, span: Span) -> &mut [Cost] {
        self.prices.get_mut(span.range()).unwrap_or_default()
    }

    /// Stores `values` as the array `span` names and points `span` at it:
    /// in place when they fit where the old array was, appended otherwise.
    pub(crate) fn put<I>(&mut self, span: &mut Span, values: I)
    where
        I: IntoIterator<Item = Cost>,
        I::IntoIter: ExactSizeIterator,
    {
        let values = values.into_iter();
        let len = values.len();
        if len <= span.len() {
            self.dead += span.len() - len;
            span.len = len as u32;
            for (held, value) in self.get_mut(*span).iter_mut().zip(values) {
                *held = value;
            }
            return;
        }
        self.dead += span.len();
        let end = self.prices.len();
        if end >= DOUBLING_BELOW && self.prices.capacity() - end < len {
            self.prices.reserve_exact(len.max(end / 8));
        }
        // Offsets are `u32` to keep the cell at 24 bytes; 2^32 prices would
        // be 32 GiB in one slab.
        assert!(
            end + len <= u32::MAX as usize,
            "a price slab outgrew u32 offsets"
        );
        *span = Span {
            offset: end as u32,
            len: len as u32,
        };
        self.prices.extend(values);
    }

    /// Gives up the array `span` names.
    pub(crate) fn release(&mut self, span: Span) {
        self.dead += span.len();
    }

    /// Compacts the slab once at least a quarter of it is dead: the live
    /// arrays are copied, in `cells` order, into a buffer sized for them
    /// and an eighth more. `cells` must be every cell whose prices this slab
    /// holds; a cell left out loses its array.
    pub fn tidy<'a, I>(&mut self, cells: I)
    where
        I: IntoIterator<Item = &'a mut RibCell>,
    {
        self.tidy_spans(cells.into_iter().map(|cell| &mut cell.prices));
    }

    /// [`tidy`](Self::tidy) over bare spans: `spans` must be every span
    /// this slab holds.
    pub(crate) fn tidy_spans<'a, I>(&mut self, spans: I)
    where
        I: IntoIterator<Item = &'a mut Span>,
    {
        if self.dead < MIN_DEAD || self.dead * 4 < self.prices.len() {
            return;
        }
        let live = self.prices.len() - self.dead;
        let mut kept = Vec::with_capacity(live + live / 8);
        for span in spans {
            let offset = kept.len() as u32;
            kept.extend_from_slice(self.get(*span));
            span.offset = offset;
        }
        self.prices = kept;
        self.dead = 0;
    }

    /// Forgets every array, and the buffer with them.
    pub(crate) fn clear(&mut self) {
        *self = PriceSlab::default();
    }

    /// Entries held, dead ones included.
    pub fn len(&self) -> usize {
        self.prices.len()
    }

    /// `true` if the slab holds no entry.
    pub fn is_empty(&self) -> bool {
        self.prices.is_empty()
    }
}

/// One retained route — what one neighbor last advertised for one
/// destination — with its price array in the owner's [`PriceSlab`]. Read it
/// through [`view`](Self::view); write it only through
/// [`RouteInfo::fold`].
#[derive(Debug, Clone)]
pub struct RibCell {
    pub(crate) path: SharedPath,
    pub(crate) path_cost: Cost,
    pub(crate) prices: Span,
}

// The Rib-In holds `deg · n` of these per node: keep the cell at three
// words, the thin `SharedPath` providing the `Option` niche. A node's table
// holds `n` selected routes, each a path handle and its cost.
const _: () = assert!(std::mem::size_of::<Option<RibCell>>() <= 24);
const _: () = assert!(std::mem::size_of::<Option<crate::SelectedRoute>>() <= 16);

impl RibCell {
    /// The retained route, its prices read from `slab`, the slab this
    /// cell's owner keeps them in.
    pub fn view<'a>(&'a self, slab: &'a PriceSlab) -> RouteView<'a> {
        RouteView {
            path: &self.path,
            path_cost: self.path_cost,
            prices: slab.get(self.prices),
        }
    }
}

/// A retained route as a receiver holds it, borrowed from its
/// [`RibCell`] and price storage: the advertised path, its cost and the
/// advertiser's prices, as the [`RouteInfo::Reachable`] that last set or
/// patched them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteView<'a> {
    /// AS path from the advertiser (first entry) to the destination (last
    /// entry).
    pub path: &'a SharedPath,
    /// Transit cost of the path.
    pub path_cost: Cost,
    /// The advertiser's price entries for the path's transit nodes, in
    /// path order.
    pub prices: &'a [Cost],
}

impl RouteView<'_> {
    /// The full advertisement that states this route.
    pub fn to_info(&self) -> RouteInfo {
        RouteInfo::Reachable {
            path: self.path.clone(),
            path_cost: self.path_cost,
            prices: self.prices.to_vec(),
        }
    }
}
