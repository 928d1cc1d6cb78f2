//! Property tests for the BGP substrate: the synchronous engine always
//! converges to the centralized routes within the `d` bound, the forwarding
//! plane composes, topology events reconverge correctly, and the chaos
//! engine under a delay-only plan (`FaultPlan::asynchronous`) reaches the
//! same fixpoint.

use bgpvcg_bgp::chaos::{ChaosEngine, FaultPlan};
use bgpvcg_bgp::engine::SyncEngine;
use bgpvcg_bgp::{
    forwarding, wire, Frame, FrameKind, PathEntry, PlainBgpNode, ProtocolNode, RouteAdvertisement,
    RouteInfo, RouteSelector, TopologyEvent, Update,
};
use bgpvcg_lcp::{diameter, AllPairsLcp};
use bgpvcg_netgraph::generators::{erdos_renyi, random_costs};
use bgpvcg_netgraph::{AsGraph, AsId, Cost};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn graph_from(n: usize, density: f64, seed: u64) -> AsGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let costs = random_costs(n, 0, 9, &mut rng);
    erdos_renyi(costs, density, &mut rng)
}

fn assert_routes_match(
    engine: &SyncEngine<PlainBgpNode>,
    g: &AsGraph,
) -> Result<(), TestCaseError> {
    let lcp = AllPairsLcp::compute(g);
    for i in g.nodes() {
        for j in g.nodes() {
            let actual = engine.node(i).selector().route(j);
            prop_assert_eq!(actual, lcp.route(i, j), "{} -> {}", i, j);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Convergence to centralized routes within d stages, every time.
    #[test]
    fn sync_converges_to_centralized_within_d(
        n in 5usize..18,
        density in 0.15f64..0.7,
        seed in 0u64..u64::MAX,
    ) {
        let g = graph_from(n, density, seed);
        let mut engine = SyncEngine::new(&g, PlainBgpNode::from_graph(&g));
        let report = engine.run_to_convergence();
        prop_assert!(report.converged);
        let lcp = AllPairsLcp::compute(&g);
        prop_assert!(report.stages <= diameter::lcp_hop_diameter(&lcp));
        assert_routes_match(&engine, &g)?;
    }

    /// Data plane consistency after convergence: hop-by-hop forwarding
    /// reconstructs every advertised route.
    #[test]
    fn forwarding_composes(
        n in 5usize..18,
        density in 0.15f64..0.7,
        seed in 0u64..u64::MAX,
    ) {
        let g = graph_from(n, density, seed);
        let mut engine = SyncEngine::new(&g, PlainBgpNode::from_graph(&g));
        engine.run_to_convergence();
        let nodes = engine.into_nodes();
        let selectors: Vec<&RouteSelector> = nodes.iter().map(|x| x.selector()).collect();
        prop_assert!(forwarding::verify_consistency(&selectors).is_ok());
    }

    /// A random link failure (that keeps the graph connected) reconverges
    /// to the centralized routes of the new topology.
    #[test]
    fn link_failure_reconverges(
        n in 6usize..16,
        density in 0.2f64..0.7,
        pick in 0usize..1000,
        seed in 0u64..u64::MAX,
    ) {
        let g = graph_from(n, density, seed);
        let link = g.links()[pick % g.link_count()];
        let g2 = g.without_link(link.a(), link.b()).unwrap();
        prop_assume!(g2.is_connected());
        let mut engine = SyncEngine::new(&g, PlainBgpNode::from_graph(&g));
        engine.run_to_convergence();
        let report = engine.apply_event(TopologyEvent::LinkDown(link.a(), link.b()));
        prop_assert!(report.converged);
        assert_routes_match(&engine, &g2)?;
    }

    /// A random cost re-declaration reconverges to the centralized routes
    /// of the re-priced graph.
    #[test]
    fn cost_change_reconverges(
        n in 6usize..16,
        density in 0.2f64..0.7,
        pick in 0u32..1000,
        new_cost in 0u64..30,
        seed in 0u64..u64::MAX,
    ) {
        let g = graph_from(n, density, seed);
        let k = AsId::new(pick % n as u32);
        let g2 = g.with_cost(k, Cost::new(new_cost));
        let mut engine = SyncEngine::new(&g, PlainBgpNode::from_graph(&g));
        engine.run_to_convergence();
        let report = engine.apply_event(TopologyEvent::CostChange(k, Cost::new(new_cost)));
        prop_assert!(report.converged);
        assert_routes_match(&engine, &g2)?;
    }

    /// A random link addition reconverges likewise.
    #[test]
    fn link_addition_reconverges(
        n in 6usize..16,
        density in 0.2f64..0.5,
        a in 0u32..1000,
        b in 0u32..1000,
        seed in 0u64..u64::MAX,
    ) {
        let g = graph_from(n, density, seed);
        let a = AsId::new(a % n as u32);
        let b = AsId::new(b % n as u32);
        prop_assume!(a != b && !g.has_link(a, b));
        let g2 = g.with_link(a, b).unwrap();
        let mut engine = SyncEngine::new(&g, PlainBgpNode::from_graph(&g));
        engine.run_to_convergence();
        let report = engine.apply_event(TopologyEvent::LinkUp(a, b));
        prop_assert!(report.converged);
        assert_routes_match(&engine, &g2)?;
    }
}

/// A strategy over arbitrary (possibly nonsensical) updates — the codec
/// must round-trip anything the types can express.
fn update_strategy() -> impl Strategy<Value = Update> {
    let cost = prop_oneof![
        4 => (0u64..u64::MAX - 1).prop_map(Cost::new),
        1 => Just(Cost::INFINITE),
    ];
    let path_entry = (0u32..10_000, cost.clone()).prop_map(|(raw, cost)| PathEntry {
        node: AsId::new(raw),
        cost,
    });
    let info = prop_oneof![
        1 => Just(RouteInfo::Withdrawn),
        4 => (
            proptest::collection::vec(path_entry, 1..8),
            cost.clone(),
            proptest::collection::vec(cost.clone(), 0..6),
        )
            .prop_map(|(path, path_cost, prices)| RouteInfo::Reachable {
                path: path.into(),
                path_cost,
                prices,
            }),
        1 => (
            any::<u64>(),
            proptest::collection::vec((any::<u16>(), cost.clone()), 0..6),
        )
            .prop_map(|(base_path_hash, entries)| RouteInfo::PriceDelta {
                base_path_hash,
                entries,
            }),
    ];
    let advertisement = (0u32..10_000, info).prop_map(|(dest, info)| RouteAdvertisement {
        destination: AsId::new(dest),
        info,
    });
    let sender_cost = (0u32..10_000, cost.clone()).prop_map(|(raw, c)| (AsId::new(raw), c));
    (
        0u32..10_000,
        proptest::collection::vec(sender_cost, 0..6),
        proptest::collection::vec(advertisement, 0..10),
    )
        .prop_map(|(from, sender_costs, advertisements)| Update {
            from: AsId::new(from),
            sender_costs,
            advertisements,
            id: 0,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The v2 varint/delta codec round-trips every representable update,
    /// and the scratch-buffer size measurement is the encoded length.
    #[test]
    fn wire_codec_v2_round_trips(update in update_strategy()) {
        let mut scratch = Vec::new();
        let bytes = wire::encode_update_v2(&update);
        prop_assert_eq!(wire::update_size_v2_with(&mut scratch, &update), bytes.len());
        prop_assert_eq!(wire::decode_update(&bytes).unwrap(), update);
    }

    /// Decoding never panics on arbitrary bytes (it may error). The one
    /// decoder dispatches on the version byte, so this fuzzes v1 headers,
    /// v2 headers, and garbage alike.
    #[test]
    fn wire_decoder_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = wire::decode_update(&bytes);
    }

    /// Bit-flipped v2 messages decode to a typed error or a self-consistent
    /// update — never a panic (varint overlong/overflow paths included).
    #[test]
    fn wire_v2_survives_bit_flips(
        update in update_strategy(),
        flips in proptest::collection::vec((0usize..4096, 0u32..8), 1..8),
    ) {
        let mut bytes = wire::encode_update_v2(&update);
        for (pos, bit) in flips {
            let idx = pos % bytes.len();
            bytes[idx] ^= 1 << bit;
        }
        if let Ok(decoded) = wire::decode_update(&bytes) {
            prop_assert_eq!(
                wire::decode_update(&wire::encode_update_v2(&decoded)).unwrap(),
                decoded
            );
        }
    }
}

/// A strategy over arbitrary session frames (recovery layer).
fn frame_strategy() -> impl Strategy<Value = Frame> {
    let kind = prop_oneof![
        1 => Just(FrameKind::Open),
        1 => Just(FrameKind::Keepalive),
        3 => update_strategy().prop_map(|update| FrameKind::Data(update.into())),
    ];
    (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), kind).prop_map(
        |(epoch, seq, ack_epoch, ack, kind)| Frame {
            epoch,
            seq,
            ack_epoch,
            ack,
            kind,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The v2 frame codec (varint counters, v2 payload) round-trips every
    /// representable session frame through the shared decoder.
    #[test]
    fn frame_codec_v2_round_trips(frame in frame_strategy()) {
        let mut scratch = Vec::new();
        let bytes = wire::encode_frame_v2(&frame);
        prop_assert_eq!(wire::frame_size_v2_with(&mut scratch, &frame), bytes.len());
        prop_assert_eq!(wire::decode_frame(&bytes).unwrap(), frame);
    }

    /// Frame decoding never panics on arbitrary bytes — a chaos-corrupted
    /// channel yields typed errors, not crashes.
    #[test]
    fn frame_decoder_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = wire::decode_frame(&bytes);
    }

    /// Bit-flipped valid frames decode to a typed error or to some valid
    /// frame — never a panic, never a misparse that round-trip-fails. (The
    /// v1 corpus gets the same treatment, bit by bit, in `wire_golden.rs`;
    /// a flipped version byte sends these through the v1 decoder too.)
    #[test]
    fn frame_decoder_survives_bit_flips(
        frame in frame_strategy(),
        flips in proptest::collection::vec((0usize..4096, 0u32..8), 1..8),
    ) {
        let mut bytes = wire::encode_frame_v2(&frame);
        for (pos, bit) in flips {
            let idx = pos % bytes.len();
            bytes[idx] ^= 1 << bit;
        }
        if let Ok(decoded) = wire::decode_frame(&bytes) {
            // Whatever decoded must itself be a self-consistent frame.
            prop_assert_eq!(
                wire::decode_frame(&wire::encode_frame_v2(&decoded)).unwrap(),
                decoded
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Byzantine robustness: a node fed arbitrary (possibly malformed)
    /// updates from its neighbors never panics — garbage advertisements are
    /// dropped by `ingest`'s structural validation. (The paper's Sect. 7
    /// notes the strategic agents themselves run the algorithm; at minimum
    /// a malformed message must not crash a correct node.)
    #[test]
    fn malformed_updates_never_panic(
        updates in proptest::collection::vec(update_strategy(), 1..6),
        seed in 0u64..u64::MAX,
    ) {
        let g = graph_from(8, 0.4, seed);
        let mut node = PlainBgpNode::new(&g, AsId::new(0));
        let _ = node.start();
        // Stamp each fuzzed update with a legitimate neighbor as sender so
        // it passes the neighbor check and exercises the validation paths.
        let neighbors: Vec<AsId> = g.neighbors(AsId::new(0)).to_vec();
        for (idx, mut update) in updates.into_iter().enumerate() {
            update.from = neighbors[idx % neighbors.len()];
            let _ = node.handle(&[std::sync::Arc::new(update)]);
        }
        // The node remains functional afterwards: a legitimate origin
        // advertisement still works.
        let origin = neighbors[0];
        let legit = Update {
            from: origin,
            sender_costs: Vec::new(),
            advertisements: vec![RouteAdvertisement {
                destination: origin,
                info: RouteInfo::Reachable {
                    path: vec![PathEntry { node: origin, cost: Cost::ZERO }].into(),
                    path_cost: Cost::ZERO,
                    prices: vec![],
                },
            }],
            id: 0,
        };
        let _ = node.handle(&[std::sync::Arc::new(legit)]);
        prop_assert!(node.selector().selected(origin).is_some());
    }
}

/// Asynchronous runs reach the synchronous fixpoint, whatever link
/// interleaving the seed draws.
#[test]
fn async_reaches_sync_fixpoint() {
    for seed in 0..8 {
        let g = graph_from(12, 0.3, seed * 1_234_567);
        let mut sync_engine = SyncEngine::new(&g, PlainBgpNode::from_graph(&g));
        sync_engine.run_to_convergence();
        let plan = FaultPlan::asynchronous(seed);
        let mut async_engine = ChaosEngine::new(&g, PlainBgpNode::from_graph(&g), plan);
        let report = async_engine.run_to_stable(1_000);
        assert!(report.converged, "seed {seed}: {report}");
        assert_eq!(report.holds_fired, 0, "seed {seed}: {report}");
        assert_eq!(report.session_resets, 2 * g.link_count() as u64);
        for node in async_engine.nodes() {
            let id = node.selector().id();
            for j in g.nodes() {
                assert_eq!(
                    node.selector().route(j),
                    sync_engine.node(id).selector().route(j),
                    "seed {seed}: {id} -> {j}"
                );
            }
        }
    }
}
