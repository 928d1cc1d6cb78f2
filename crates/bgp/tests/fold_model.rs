//! Differential model test for [`RouteInfo::fold`], the one rule for what a
//! receiver keeps.
//!
//! The fold writes a retained route into a 40-byte [`RibCell`] whose price
//! array lives in a [`PriceSlab`] shared with other cells: arrays that grow
//! are appended, their old places go dead, and the owner compacts the slab
//! once enough of it has. The fold it replaced kept each route as an
//! `Option<RouteInfo>` owning its own price vector — more memory, and for
//! exactly that reason easy to believe. It lives on here, test-only, as the
//! oracle. Random streams go through a [`RouteSelector`]'s Rib-In and
//! through a bare link view (cells keyed by destination and one slab, as the
//! online auditor keeps them), and through the oracle beside each; after
//! every advertisement the changed-flags, and after every step every
//! retained route, must agree.

use bgpvcg_bgp::{
    PathEntry, PriceSlab, RibCell, RouteAdvertisement, RouteInfo, RouteSelector, SharedPath, Update,
};
use bgpvcg_netgraph::{AsId, Cost};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The fold as it was before the price storage: one owned route per cell.
fn oracle_fold(info: &RouteInfo, cell: &mut Option<RouteInfo>) -> bool {
    match info {
        RouteInfo::Withdrawn => cell.take().is_some(),
        RouteInfo::PriceDelta {
            base_path_hash,
            entries,
        } => {
            let Some(RouteInfo::Reachable { path, prices, .. }) = cell else {
                return false;
            };
            if path.hash64() != *base_path_hash
                || entries
                    .iter()
                    .any(|&(idx, _)| usize::from(idx) >= prices.len())
            {
                return false;
            }
            let mut changed = false;
            for &(idx, value) in entries {
                let held = &mut prices[usize::from(idx)];
                changed |= *held != value;
                *held = value;
            }
            changed
        }
        reachable => {
            if cell.as_ref() == Some(reachable) {
                return false;
            }
            *cell = Some(reachable.clone());
            true
        }
    }
}

/// AS numbers the streams draw from; the selector is sized for them.
const UNIVERSE: u32 = 16;
const ME: AsId = AsId::new(0);
const NEIGHBORS: [u32; 4] = [1, 2, 5, 9];
/// The neighbor whose advertisements the bare link view also hears.
const VIEWED: u32 = 1;

#[derive(Debug, Clone)]
enum AdSpec {
    /// A well-formed full advertisement: `transits` transit nodes, drawn
    /// from the universe starting at `shift`, and up to as many prices.
    Full {
        dest: u32,
        transits: usize,
        shift: u32,
        prices: Vec<u64>,
    },
    /// A price patch on the retained path (`fresh`) or a stale one; an
    /// index beyond the retained array is dropped.
    Delta {
        dest: u32,
        entries: Vec<(u16, u64)>,
        fresh: bool,
    },
    Withdraw {
        dest: u32,
    },
}

#[derive(Debug, Clone)]
enum Op {
    Ingest { from: u32, ads: Vec<AdSpec> },
    LinkDown(u32),
    LinkUp(u32),
    Reset,
}

fn ad_spec() -> impl Strategy<Value = AdSpec> {
    let full = (
        0..UNIVERSE,
        0usize..12,
        0..UNIVERSE,
        proptest::collection::vec(0u64..50, 0..12),
    )
        .prop_map(|(dest, transits, shift, prices)| AdSpec::Full {
            dest,
            transits,
            shift,
            prices,
        });
    let delta = (
        0..UNIVERSE,
        proptest::collection::vec((0u16..14, 0u64..50), 1..4),
        prop_oneof![3 => Just(true), 1 => Just(false)],
    )
        .prop_map(|(dest, mut entries, fresh)| {
            entries.sort_unstable_by_key(|&(idx, _)| idx);
            entries.dedup_by_key(|&mut (idx, _)| idx);
            AdSpec::Delta {
                dest,
                entries,
                fresh,
            }
        });
    let withdraw = (0..UNIVERSE).prop_map(|dest| AdSpec::Withdraw { dest });
    prop_oneof![6 => full, 3 => delta, 1 => withdraw]
}

fn op() -> impl Strategy<Value = Op> {
    let neighbor = (0..NEIGHBORS.len()).prop_map(|at| NEIGHBORS[at]);
    let ingest = (neighbor.clone(), proptest::collection::vec(ad_spec(), 1..6))
        .prop_map(|(from, ads)| Op::Ingest { from, ads });
    prop_oneof![
        24 => ingest,
        1 => neighbor.clone().prop_map(Op::LinkDown),
        1 => neighbor.prop_map(Op::LinkUp),
        1 => Just(Op::Reset),
    ]
}

/// The retained routes of the Rib-In, as the oracle keeps them.
type Oracle = BTreeMap<(u32, u32), Option<RouteInfo>>;

/// Turns a spec into an advertisement from `from`, reading `retained` for
/// the path hash a fresh delta carries.
fn advertisement(spec: &AdSpec, from: u32, retained: Option<&RouteInfo>) -> RouteAdvertisement {
    let (dest, info) = match spec {
        AdSpec::Withdraw { dest } => (*dest, RouteInfo::Withdrawn),
        AdSpec::Delta {
            dest,
            entries,
            fresh,
        } => {
            let hash = match retained {
                Some(RouteInfo::Reachable { path, .. }) if *fresh => path.hash64(),
                _ => 0xdead_beef,
            };
            let entries = entries
                .iter()
                .map(|&(idx, value)| (idx, Cost::new(value)))
                .collect();
            let info = RouteInfo::PriceDelta {
                base_path_hash: hash,
                entries,
            };
            (*dest, info)
        }
        AdSpec::Full {
            dest,
            transits,
            shift,
            prices,
        } => {
            // An origin route (the neighbor itself as destination) has no
            // transit nodes.
            let transits = if *dest == from { 0 } else { *transits };
            let middle = (0..UNIVERSE)
                .map(|at| (at + shift) % UNIVERSE)
                .filter(|&node| node != from && node != *dest)
                .take(transits);
            let mut nodes: Vec<u32> = std::iter::once(from).chain(middle).collect();
            if *dest != from {
                nodes.push(*dest);
            }
            let last = nodes.len() - 1;
            let path: SharedPath = nodes
                .iter()
                .enumerate()
                .map(|(at, &node)| PathEntry {
                    node: AsId::new(node),
                    cost: Cost::new(if at == last {
                        0
                    } else {
                        1 + u64::from(node % 3)
                    }),
                })
                .collect();
            let priced = prices.len().min(nodes.len().saturating_sub(2));
            let info = RouteInfo::Reachable {
                path,
                path_cost: Cost::new(last.saturating_sub(1) as u64),
                prices: prices[..priced].iter().map(|&p| Cost::new(p)).collect(),
            };
            (*dest, info)
        }
    };
    RouteAdvertisement {
        destination: AsId::new(dest),
        info,
    }
}

/// A bare link view, kept as the online auditor keeps one.
#[derive(Debug, Default)]
struct LinkView {
    cells: BTreeMap<u32, Option<RibCell>>,
    prices: PriceSlab,
    /// Whether a tidy ever shrank the slab.
    compacted: bool,
}

impl LinkView {
    fn fold(&mut self, ad: &RouteAdvertisement) -> bool {
        let cell = self.cells.entry(ad.destination.raw()).or_default();
        let changed = ad.info.fold(cell, &mut self.prices);
        if changed {
            let before = self.prices.len();
            self.prices.tidy(self.cells.values_mut().flatten());
            self.compacted |= self.prices.len() < before;
        }
        changed
    }

    fn get(&self, dest: u32) -> Option<RouteInfo> {
        let cell = self.cells.get(&dest)?.as_ref()?;
        Some(cell.view(&self.prices).to_info())
    }
}

/// Runs `ops` through the selector, the link view and their oracles,
/// comparing changed-flags per advertisement and retained routes per step.
/// Returns whether the link view's slab was ever compacted.
fn run(ops: &[Op]) -> Result<bool, TestCaseError> {
    let mut selector = RouteSelector::with_node_count(
        ME,
        Cost::new(3),
        NEIGHBORS.map(AsId::new),
        UNIVERSE as usize,
    );
    let mut oracle: Oracle = BTreeMap::new();
    let mut neighbors: Vec<u32> = NEIGHBORS.to_vec();
    let mut view = LinkView::default();
    let mut view_oracle: BTreeMap<u32, Option<RouteInfo>> = BTreeMap::new();
    for op in ops {
        match op {
            Op::Ingest { from, ads } => {
                let advertisements: Vec<RouteAdvertisement> = ads
                    .iter()
                    .map(|spec| {
                        let dest = match spec {
                            AdSpec::Full { dest, .. }
                            | AdSpec::Delta { dest, .. }
                            | AdSpec::Withdraw { dest } => *dest,
                        };
                        let retained = oracle.get(&(*from, dest)).and_then(Option::as_ref);
                        advertisement(spec, *from, retained)
                    })
                    .collect();
                let update = Update {
                    from: AsId::new(*from),
                    sender_costs: Vec::new(),
                    advertisements,
                    id: 0,
                };
                let mut expected = Vec::new();
                if neighbors.contains(from) {
                    for ad in &update.advertisements {
                        let cell = oracle.entry((*from, ad.destination.raw())).or_default();
                        if oracle_fold(&ad.info, cell) {
                            expected.push(ad.destination);
                        }
                    }
                }
                prop_assert_eq!(selector.ingest(&update), &expected[..], "{:?}", op);
                if *from == VIEWED {
                    for ad in &update.advertisements {
                        let cell = view_oracle.entry(ad.destination.raw()).or_default();
                        let expected = oracle_fold(&ad.info, cell);
                        prop_assert_eq!(view.fold(ad), expected, "view {:?}", ad);
                    }
                }
            }
            Op::LinkDown(a) => {
                // `link_down` wants a decided table; deciding touches no
                // Rib-In cell.
                selector.decide_all();
                selector.link_down(AsId::new(*a));
                oracle.retain(|&(from, _), _| from != *a);
                neighbors.retain(|n| n != a);
                if *a == VIEWED {
                    // The sender stops sending on the link: its view goes.
                    view = LinkView {
                        compacted: view.compacted,
                        ..LinkView::default()
                    };
                    view_oracle.clear();
                }
            }
            Op::LinkUp(a) => {
                selector.link_up(AsId::new(*a));
                if !neighbors.contains(a) {
                    neighbors.push(*a);
                }
            }
            Op::Reset => {
                selector.reset();
                oracle.clear();
            }
        }
        for a in 0..UNIVERSE {
            for d in 0..UNIVERSE {
                let got = selector
                    .rib(AsId::new(a), AsId::new(d))
                    .map(|v| v.to_info());
                let want = oracle.get(&(a, d)).cloned().flatten();
                prop_assert_eq!(got, want, "rib {} {} after {:?}", a, d, op);
            }
        }
        for d in 0..UNIVERSE {
            let want = view_oracle.get(&d).cloned().flatten();
            prop_assert_eq!(view.get(d), want, "view {} after {:?}", d, op);
        }
    }
    Ok(view.compacted)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The (cell, slab) fold and the owned-route fold agree on every
    /// changed-flag and every retained route, through length changes,
    /// deltas that match, miss or overrun, withdrawals, link events,
    /// resets and compactions.
    fn cell_and_slab_fold_matches_the_owned_route_fold(
        ops in proptest::collection::vec(op(), 1..120),
    ) {
        run(&ops)?;
    }
}

#[test]
fn long_churn_compacts_the_slab_and_keeps_every_route() {
    // Full advertisements from the viewed neighbor whose arrays lengthen
    // and shorten in turn leave dead entries behind; a stream this long
    // must make the owner compact, and every route must survive it.
    let ops: Vec<Op> = (0..400u32)
        .map(|step| Op::Ingest {
            from: VIEWED,
            ads: vec![AdSpec::Full {
                dest: 2 + step % 13,
                transits: (step as usize * 7) % 12,
                shift: step % UNIVERSE,
                prices: (0..12).map(|p| u64::from(step + p)).collect(),
            }],
        })
        .collect();
    match run(&ops) {
        Ok(compacted) => assert!(compacted, "the slab was compacted at least once"),
        Err(failure) => panic!("{failure:?}"),
    }
}
