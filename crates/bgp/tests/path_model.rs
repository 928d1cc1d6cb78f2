//! Differential model test for [`SharedPath`], the persistent list a path
//! is: one node per entry, each node the path it heads.
//!
//! A path used to be one array of entries beside its FNV-1a hash, and the
//! wire, the price deltas and every stream golden depend on that hash and
//! on the array's derived `Debug` text. Both live on here, test-only, as
//! the oracle: a path built by prepending one entry at a time, the same
//! path collected from its entries, and the routes a selector makes from
//! advertised paths — selected, and restamped with a new declared cost —
//! must read back as the array in every accessor, hash as the reference
//! hash and print as the array printed.
//!
//! The reference hash is FNV-1a-64 over the entries from last to first,
//! computed here over the whole array. A path node hashes its own entry
//! over its rest's hash when it is made; the array's hash used to run
//! first to last, and moved to this order so that making a route costs one
//! step instead of a walk of its path.

use bgpvcg_bgp::{PathEntry, RouteAdvertisement, RouteInfo, RouteSelector, SharedPath, Update};
use bgpvcg_netgraph::{AsId, Cost};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// The path as it was: the entries in one array, the hash beside them. The
/// derived `Debug` of this struct is the text every golden digest hashed.
mod array {
    #[derive(Debug)]
    pub struct SharedPath {
        pub entries: std::sync::Arc<[bgpvcg_bgp::PathEntry]>,
        pub hash: u64,
    }
}

/// FNV-1a-64 over each entry's AS number (4 bytes LE) and raw cost (8
/// bytes LE, `∞` as `u64::MAX`), the entries taken from last to first.
fn fnv1a_path(entries: &[PathEntry]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for entry in entries.iter().rev() {
        let node = (entry.node.index() as u32).to_le_bytes();
        let cost = entry.cost.finite().unwrap_or(u64::MAX).to_le_bytes();
        for byte in node.into_iter().chain(cost) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn entry(node: u32, cost: u64) -> PathEntry {
    PathEntry {
        node: AsId::new(node),
        // The top of the range stands for an unbounded cost.
        cost: if cost == 9 {
            Cost::INFINITE
        } else {
            Cost::new(cost)
        },
    }
}

/// Entries with ids from a small range, so repeats are common, and costs
/// that include zero and `∞`.
fn entries() -> impl Strategy<Value = Vec<PathEntry>> {
    proptest::collection::vec((0u32..48, 0u64..10), 1..72).prop_map(|raw| {
        raw.into_iter()
            .map(|(node, cost)| entry(node, cost))
            .collect()
    })
}

/// The path `entries` spell, built by prepending one entry at a time onto
/// the path of the entries after it.
fn prepended(entries: &[PathEntry]) -> SharedPath {
    let (last, before) = entries.split_last().expect("a non-empty path");
    let mut path = SharedPath::cons(*last, None);
    for &head in before.iter().rev() {
        path = SharedPath::cons(head, Some(path));
    }
    path
}

fn read(path: &SharedPath) -> Vec<PathEntry> {
    path.iter().collect()
}

/// Every accessor of `path` against the array `entries`.
fn agrees(path: &SharedPath, entries: &[PathEntry]) -> Result<(), TestCaseError> {
    let array = array::SharedPath {
        entries: entries.into(),
        hash: fnv1a_path(entries),
    };
    prop_assert_eq!(read(path), array.entries.to_vec());
    prop_assert_eq!(path.len(), entries.len());
    prop_assert_eq!(path.iter().len(), entries.len());
    prop_assert_eq!(path.first(), entries.first().copied());
    prop_assert_eq!(path.last(), entries.last().copied());
    prop_assert_eq!(path.last_node(), entries.last().map(|e| e.node));
    prop_assert_eq!(
        path.rest().map(read),
        entries
            .get(1..)
            .filter(|r| !r.is_empty())
            .map(<[_]>::to_vec)
    );
    let transit = entries
        .get(1..entries.len().saturating_sub(1))
        .unwrap_or_default();
    prop_assert_eq!(path.transit().collect::<Vec<_>>(), transit.to_vec());
    for (at, suffix) in path.suffixes().enumerate() {
        prop_assert_eq!(read(suffix), entries[at..].to_vec());
    }
    prop_assert_eq!(path.suffixes().count(), entries.len());
    // What a receiver checks, recorded in the first node.
    let ids: BTreeSet<AsId> = entries.iter().map(|e| e.node).collect();
    prop_assert_eq!(path.is_simple(), ids.len() == entries.len());
    prop_assert_eq!(path.max_node(), ids.last().copied());
    for node in (0..50).map(AsId::new) {
        prop_assert_eq!(path.contains(node), ids.contains(&node), "{}", node);
    }
    prop_assert_eq!(
        path.has_costless_end(),
        entries.last().is_some_and(|e| e.cost == Cost::ZERO)
    );
    // The hash and the text the array had.
    prop_assert_eq!(path.hash64(), array.hash);
    prop_assert_eq!(format!("{path:?}"), format!("{array:?}"));
    prop_assert_eq!(format!("{path:#?}"), format!("{array:#?}"));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A path prepended entry by entry and one collected from its entries
    /// read back, hash and print as the array, and equal each other.
    fn the_list_equals_the_array_it_replaced(raw in entries()) {
        // Once as drawn, repeats and all, and once made simple.
        let mut seen = BTreeSet::new();
        let simple: Vec<PathEntry> = raw.iter().copied().filter(|e| seen.insert(e.node)).collect();
        for entries in [raw, simple] {
            let by_prepends = prepended(&entries);
            let collected: SharedPath = entries.iter().copied().collect();
            agrees(&by_prepends, &entries)?;
            agrees(&collected, &entries)?;
            prop_assert_eq!(&by_prepends, &collected);
            prop_assert_eq!(by_prepends.hash64(), collected.hash64());
            // A path differing in one entry is another path.
            let mut changed = entries.clone();
            changed[entries.len() / 2].cost = Cost::new(11);
            let other: SharedPath = changed.into();
            prop_assert_ne!(&other, &collected);
            // Prepending shares: the rest is the path it extended.
            if let Some(rest) = by_prepends.rest() {
                prop_assert_eq!(rest, &prepended(&entries[1..]));
            }
        }
    }
}

/// A route to `dest` for node 0, whose only neighbor `from` advertises
/// `advertised`, selected and then restamped with declared cost 7; with
/// `vector`, `from` sends a receive cost from node 0, which restamps its
/// entry too. Each route is checked against its entries.
fn selected_routes(advertised: &[PathEntry], vector: bool) -> Result<(), TestCaseError> {
    let (from, dest) = (advertised[0].node, advertised[advertised.len() - 1].node);
    let me = AsId::new(0);
    let mut selector = RouteSelector::new(me, Cost::new(3), [from]);
    let sender_costs = if vector {
        vec![(me, Cost::new(4))]
    } else {
        Vec::new()
    };
    selector.ingest(&Update {
        from,
        sender_costs,
        advertisements: vec![RouteAdvertisement {
            destination: dest,
            info: RouteInfo::Reachable {
                path: advertised.to_vec().into(),
                path_cost: Cost::ZERO,
                prices: Vec::new(),
            },
        }],
        id: 0,
    });
    prop_assert!(selector.decide(dest));
    let mut expected = vec![entry(0, 3)];
    expected.extend_from_slice(advertised);
    if vector && from != dest {
        expected[1].cost = Cost::new(4);
    }
    let route = selector.selected(dest).expect("selected");
    agrees(&route.path, &expected)?;
    prop_assert_eq!(selector.set_declared_cost(Cost::new(7)), [dest]);
    expected[0].cost = Cost::new(7);
    agrees(&selector.selected(dest).expect("restamped").path, &expected)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A route a selector makes — one node prepended to the advertised
    /// path, or two where the advertiser's entry is restamped — and the
    /// same route restamped with a new declared cost hash as the array.
    fn selected_and_restamped_routes_hash_as_the_array(raw in entries(), vector in any::<bool>()) {
        // A well-formed advertisement: simple, free of node 0, ending on a
        // costless destination entry.
        let mut seen = BTreeSet::from([AsId::new(0)]);
        let mut advertised: Vec<PathEntry> =
            raw.into_iter().filter(|e| seen.insert(e.node)).collect();
        if let Some(last) = advertised.last_mut() {
            last.cost = Cost::ZERO;
            selected_routes(&advertised, vector)?;
        }
    }
}

#[test]
fn a_prepend_onto_the_empty_path_is_the_one_entry_path() {
    // An empty path comes from an empty entry list, or off the wire.
    let empty: SharedPath = Vec::new().into();
    for head in [entry(3, 2), entry(5, 0)] {
        let path = SharedPath::cons(head, Some(empty.clone()));
        agrees(&path, &[head]).unwrap();
        assert_eq!(path, SharedPath::cons(head, None));
    }
}

#[test]
fn a_path_of_two_hundred_thousand_hops_drops_on_a_small_stack() {
    // The drop unlinks node by node; one frame per node would overflow a
    // 2 MiB stack long before the last of these.
    const HOPS: u32 = 200_000;
    let built = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            // The tail repeats an AS, so no prepend walks the path to look
            // for one.
            let tail = SharedPath::cons(entry(0, 0), None);
            let mut path = SharedPath::cons(entry(0, 1), Some(tail));
            let mut middle = None;
            for node in 1..=HOPS {
                path = SharedPath::cons(entry(node, 1), Some(path));
                if node == HOPS / 2 {
                    middle = Some(path.clone());
                }
            }
            assert_eq!(path.len(), HOPS as usize + 2);
            assert!(!path.is_simple());
            // Dropping the whole path stops at the half still held; that
            // half then goes on its own.
            drop(path);
            let middle = middle.expect("kept");
            assert_eq!(middle.len(), HOPS as usize / 2 + 2);
            drop(middle);
        })
        .expect("a thread")
        .join();
    // An overflow aborts the process; a failed assertion comes back here.
    if let Err(panic) = built {
        std::panic::resume_unwind(panic);
    }
}
