//! Golden-bytes tests for the wire format.
//!
//! The round-trip property tests prove encode/decode are inverses of each
//! other; these tests additionally pin the *byte layout itself*, so an
//! accidental format change (which would silently break interoperability
//! between differently-built nodes) fails a test instead of passing two
//! mutually-consistent-but-new codecs. The retired version 1 is pinned
//! too, as a header error.

use bgpvcg_bgp::{
    wire, Frame, FrameKind, LocalEvent, PathEntry, RouteAdvertisement, RouteInfo, TopologyEvent,
    Update,
};
use bgpvcg_netgraph::{AsId, Cost};

fn sample() -> Update {
    Update {
        from: AsId::new(7),
        sender_costs: vec![(AsId::new(3), Cost::new(5))],
        advertisements: vec![
            RouteAdvertisement {
                destination: AsId::new(2),
                info: RouteInfo::Reachable {
                    path: vec![
                        PathEntry {
                            node: AsId::new(7),
                            cost: Cost::new(1),
                        },
                        PathEntry {
                            node: AsId::new(2),
                            cost: Cost::new(4),
                        },
                    ]
                    .into(),
                    path_cost: Cost::ZERO,
                    prices: vec![Cost::INFINITE],
                },
            },
            RouteAdvertisement {
                destination: AsId::new(9),
                info: RouteInfo::Withdrawn,
            },
        ],
        id: 0,
        causes: Vec::new(),
    }
}

/// A v2 sample exercising every advertisement kind: a full (reachable)
/// route, a withdrawal, and a price delta.
fn sample_v2() -> Update {
    let mut update = sample();
    update.advertisements.push(RouteAdvertisement {
        destination: AsId::new(4),
        info: RouteInfo::PriceDelta {
            base_path_hash: 0x0102_0304_0506_0708,
            entries: vec![(1, Cost::new(6)), (3, Cost::INFINITE)],
        },
    });
    update
}

/// Pins the v2 byte layout: varint header fields, delta-coded path AS ids,
/// `vcost` (∞ → 0, finite c → c+1), and the fixed 8-byte delta base hash.
#[test]
fn golden_byte_layout_v2() {
    let bytes = wire::encode_update_v2(&sample_v2());
    let expected: Vec<u8> = vec![
        // magic "BV", version 2
        0x42, 0x56, 0x02, //
        // from = 7 (uvarint)
        0x07, //
        // sender_costs: len = 1, (node 3, vcost(5) = 6)
        0x01, 0x03, 0x06, //
        // advertisement count = 3
        0x03, //
        // ad 1: dest = 2, kind = reachable(1), path len = 2
        0x02, 0x01, 0x02, //
        // entry (7, 1): absolute node 7, vcost(1) = 2
        0x07, 0x02, //
        // entry (2, 4): zigzag(2 - 7) = 9, vcost(4) = 5
        0x09, 0x05, //
        // path_cost: vcost(0) = 1
        0x01, //
        // prices: len = 1, vcost(∞) = 0
        0x01, 0x00, //
        // ad 2: dest = 9, kind = withdrawn(0)
        0x09, 0x00, //
        // ad 3: dest = 4, kind = delta(2)
        0x04, 0x02, //
        // base_path_hash = 0x0102030405060708 (fixed u64 LE)
        0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, //
        // entries: len = 2, (index 1, vcost(6) = 7), (index 3, vcost(∞) = 0)
        0x02, 0x01, 0x07, 0x03, 0x00,
    ];
    assert_eq!(
        bytes, expected,
        "v2 wire layout changed — version-bump the format"
    );
}

#[test]
fn golden_v2_bytes_decode_back() {
    let update = sample_v2();
    let bytes = wire::encode_update_v2(&update);
    assert_eq!(wire::decode_update(&bytes).unwrap(), update);
    let mut scratch = Vec::new();
    assert_eq!(
        wire::update_size_v2_with(&mut scratch, &update),
        bytes.len()
    );
}

/// Corrupted v2 messages decode to typed errors, never panics or
/// misparses — including varint-specific failure modes v1 cannot have.
#[test]
fn v2_messages_reject_corruption() {
    let bytes = wire::encode_update_v2(&sample_v2());

    for cut in 0..bytes.len() {
        assert!(wire::decode_update(&bytes[..cut]).is_err(), "cut {cut}");
    }

    let mut trailing = bytes.clone();
    trailing.push(0);
    assert!(wire::decode_update(&trailing).is_err());

    let mut bad_magic = bytes.clone();
    bad_magic[0] = b'X';
    assert_eq!(
        wire::decode_update(&bad_magic),
        Err(wire::DecodeError::BadHeader)
    );

    // The first advertisement's kind byte (index 9, after its destination).
    let mut bad_kind = bytes.clone();
    assert_eq!(bad_kind[9], 0x01);
    bad_kind[9] = 7;
    assert_eq!(
        wire::decode_update(&bad_kind),
        Err(wire::DecodeError::BadKind(7))
    );

    // Rewrite the second path entry's zigzag delta (index 13, currently
    // zigzag(-5) = 9) to zigzag(-8) = 15: node₀ = 7, so the reconstructed
    // AS id would be -1 — out of range, a typed varint error.
    let mut bad_delta = bytes.clone();
    assert_eq!(bad_delta[13], 0x09);
    bad_delta[13] = 0x0F;
    assert_eq!(
        wire::decode_update(&bad_delta),
        Err(wire::DecodeError::BadVarint)
    );

    // An unknown future version is a header error, not a misparse.
    let mut bad_version = bytes;
    bad_version[2] = 3;
    assert_eq!(
        wire::decode_update(&bad_version),
        Err(wire::DecodeError::BadHeader)
    );
}

/// One golden vector per topology-event variant: the exact control-frame
/// bytes, plus the round trip back through `decode_topology_event`.
#[test]
fn golden_topology_event_frames() {
    let cases: Vec<(TopologyEvent, Vec<u8>)> = vec![
        (
            TopologyEvent::LinkDown(AsId::new(1), AsId::new(2)),
            vec![
                // magic "BE", version 1, tag 0
                0x42, 0x45, 0x01, 0x00, //
                // a = 1, b = 2 (u32 LE each)
                0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
            ],
        ),
        (
            TopologyEvent::LinkUp(AsId::new(3), AsId::new(4)),
            vec![
                0x42, 0x45, 0x01, 0x01, //
                0x03, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00,
            ],
        ),
        (
            TopologyEvent::CostChange(AsId::new(5), Cost::new(9)),
            vec![
                0x42, 0x45, 0x01, 0x02, //
                0x05, 0x00, 0x00, 0x00, //
                0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            ],
        ),
    ];
    for (event, expected) in cases {
        let bytes = wire::encode_topology_event(&event);
        assert_eq!(bytes, expected, "layout changed for {event:?}");
        assert_eq!(wire::decode_topology_event(&bytes).unwrap(), event);
    }
}

/// One golden vector per local-event variant, with round trips.
#[test]
fn golden_local_event_frames() {
    let cases: Vec<(LocalEvent, Vec<u8>)> = vec![
        (
            LocalEvent::LinkDown(AsId::new(6)),
            vec![0x42, 0x45, 0x01, 0x03, 0x06, 0x00, 0x00, 0x00],
        ),
        (
            LocalEvent::LinkUp(AsId::new(7)),
            vec![0x42, 0x45, 0x01, 0x04, 0x07, 0x00, 0x00, 0x00],
        ),
        (
            LocalEvent::CostChange(Cost::INFINITE),
            vec![
                0x42, 0x45, 0x01, 0x05, //
                0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
            ],
        ),
    ];
    for (event, expected) in cases {
        let bytes = wire::encode_local_event(&event);
        assert_eq!(bytes, expected, "layout changed for {event:?}");
        assert_eq!(wire::decode_local_event(&bytes).unwrap(), event);
    }
}

/// Malformed control frames are rejected, never misparsed.
#[test]
fn event_frames_reject_corruption() {
    let bytes = wire::encode_topology_event(&TopologyEvent::LinkDown(AsId::new(1), AsId::new(2)));

    let mut bad_magic = bytes.clone();
    bad_magic[0] = b'X';
    assert!(wire::decode_topology_event(&bad_magic).is_err());

    let mut bad_tag = bytes.clone();
    bad_tag[3] = 9;
    assert!(wire::decode_topology_event(&bad_tag).is_err());

    for cut in 0..bytes.len() {
        assert!(
            wire::decode_topology_event(&bytes[..cut]).is_err(),
            "cut {cut}"
        );
    }

    let mut trailing = bytes.clone();
    trailing.push(0);
    assert!(wire::decode_topology_event(&trailing).is_err());

    // A local-event tag inside a topology decode (and vice versa) is a tag
    // error, not a misparse.
    let local = wire::encode_local_event(&LocalEvent::LinkUp(AsId::new(1)));
    assert!(wire::decode_topology_event(&local).is_err());
    assert!(wire::decode_local_event(&bytes).is_err());
}

/// One golden vector per node-liveness topology-event variant.
#[test]
fn golden_node_event_frames() {
    let cases: Vec<(TopologyEvent, Vec<u8>)> = vec![
        (
            TopologyEvent::NodeDown(AsId::new(8)),
            vec![
                // magic "BE", version 1, tag 6
                0x42, 0x45, 0x01, 0x06, //
                // node = 8 (u32 LE)
                0x08, 0x00, 0x00, 0x00,
            ],
        ),
        (
            TopologyEvent::NodeUp(AsId::new(9)),
            vec![0x42, 0x45, 0x01, 0x07, 0x09, 0x00, 0x00, 0x00],
        ),
    ];
    for (event, expected) in cases {
        let bytes = wire::encode_topology_event(&event);
        assert_eq!(bytes, expected, "layout changed for {event:?}");
        assert_eq!(wire::decode_topology_event(&bytes).unwrap(), event);
    }
}

/// Every single-bit corruption of the v2 golden corpus — bare and framed —
/// decodes to a typed error or to a message that re-encodes to exactly the
/// corrupted bytes (the encoding is canonical), never to a panic. The
/// proptests sample random flips; this sweep is exhaustive.
#[test]
fn v2_corpus_survives_every_bit_flip() {
    let bare = wire::encode_update_v2(&sample_v2());
    for bit in 0..bare.len() * 8 {
        let mut bytes = bare.clone();
        bytes[bit / 8] ^= 1 << (bit % 8);
        if let Ok(decoded) = wire::decode_update(&bytes) {
            assert_eq!(wire::encode_update_v2(&decoded), bytes, "bit {bit}");
        }
    }
    let framed = wire::encode_frame_v2(&Frame {
        epoch: 1,
        seq: 1,
        ack_epoch: 1,
        ack: 1,
        kind: FrameKind::Data(sample_v2().into()),
    });
    for bit in 0..framed.len() * 8 {
        let mut bytes = framed.clone();
        bytes[bit / 8] ^= 1 << (bit % 8);
        if let Ok(decoded) = wire::decode_frame(&bytes) {
            assert_eq!(wire::encode_frame_v2(&decoded), bytes, "bit {bit}");
        }
    }
}

/// Version 1 is retired: a well-formed v1 UPDATE or session frame is a
/// header error like any unknown version. The `"BE"` event frames never had
/// a second version; they keep version byte 1 and round-trip.
#[test]
fn version_1_is_rejected_but_event_frames_keep_it() {
    // An empty v1 UPDATE: magic "BV", version 1, from = 0 (u32 LE), no
    // sender costs and no entries (u16 counts).
    let update = [0x42, 0x56, 0x01, 0, 0, 0, 0, 0, 0, 0, 0];
    assert_eq!(
        wire::decode_update(&update),
        Err(wire::DecodeError::BadHeader)
    );
    // A v1 Open: magic "BF", version 1, kind 0, four zero u64 counters.
    let mut open = vec![0x42, 0x46, 0x01, 0x00];
    open.resize(36, 0);
    assert_eq!(wire::decode_frame(&open), Err(wire::DecodeError::BadHeader));

    let topology = [
        TopologyEvent::LinkDown(AsId::new(1), AsId::new(2)),
        TopologyEvent::LinkUp(AsId::new(3), AsId::new(4)),
        TopologyEvent::CostChange(AsId::new(5), Cost::INFINITE),
        TopologyEvent::NodeDown(AsId::new(6)),
        TopologyEvent::NodeUp(AsId::new(7)),
    ];
    for event in topology {
        let bytes = wire::encode_topology_event(&event);
        assert_eq!(&bytes[..3], b"BE\x01", "{event:?}");
        assert_eq!(wire::decode_topology_event(&bytes), Ok(event));
    }
    let local = [
        LocalEvent::LinkDown(AsId::new(8)),
        LocalEvent::LinkUp(AsId::new(9)),
        LocalEvent::CostChange(Cost::new(10)),
    ];
    for event in local {
        let bytes = wire::encode_local_event(&event);
        assert_eq!(&bytes[..3], b"BE\x01", "{event:?}");
        assert_eq!(wire::decode_local_event(&bytes), Ok(event));
    }
}

/// Golden vectors for the v2 session-frame header: varint counters and a
/// v2-encoded payload after the kind byte.
#[test]
fn golden_v2_session_frame_layout() {
    let open = Frame {
        epoch: 3,
        seq: 0,
        ack_epoch: 300,
        ack: 5,
        kind: FrameKind::Open,
    };
    let expected: Vec<u8> = vec![
        // magic "BF", version 2, kind 0 (Open)
        0x42, 0x46, 0x02, 0x00, //
        // epoch = 3, seq = 0 (uvarint)
        0x03, 0x00, //
        // ack_epoch = 300 (uvarint: 0xAC 0x02)
        0xAC, 0x02, //
        // ack = 5
        0x05,
    ];
    let bytes = wire::encode_frame_v2(&open);
    assert_eq!(bytes, expected, "v2 frame layout changed — version-bump");
    assert_eq!(wire::decode_frame(&bytes).unwrap(), open);
    let mut scratch = Vec::new();
    assert_eq!(wire::frame_size_v2_with(&mut scratch, &open), bytes.len());

    // Data: the v2-encoded UPDATE rides directly after the header.
    let data = Frame {
        kind: FrameKind::Data(sample_v2().into()),
        ..open
    };
    let data_bytes = wire::encode_frame_v2(&data);
    assert_eq!(data_bytes[3], 0x01);
    assert_eq!(&data_bytes[9..], wire::encode_update_v2(&sample_v2()));
    assert_eq!(wire::decode_frame(&data_bytes).unwrap(), data);
}

/// Corrupted session frames decode to typed errors, never panics or
/// misparses — the property the chaos harness's loss model relies on.
#[test]
fn v2_session_frames_reject_corruption() {
    let frame = Frame {
        epoch: 1,
        seq: 1,
        ack_epoch: 1,
        ack: 1,
        kind: FrameKind::Data(sample_v2().into()),
    };
    let bytes = wire::encode_frame_v2(&frame);

    let mut bad_magic = bytes.clone();
    bad_magic[0] = b'X';
    assert!(wire::decode_frame(&bad_magic).is_err());

    let mut bad_version = bytes.clone();
    bad_version[2] = 3;
    assert_eq!(
        wire::decode_frame(&bad_version),
        Err(wire::DecodeError::BadHeader)
    );

    let mut bad_kind = bytes.clone();
    bad_kind[3] = 9;
    assert!(matches!(
        wire::decode_frame(&bad_kind),
        Err(wire::DecodeError::BadFrameKind(9))
    ));

    for cut in 0..bytes.len() {
        assert!(wire::decode_frame(&bytes[..cut]).is_err(), "cut {cut}");
    }

    let mut trailing = wire::encode_frame_v2(&Frame {
        kind: FrameKind::Keepalive,
        ..frame
    });
    assert!(wire::decode_frame(&trailing).is_ok());
    trailing.push(0);
    assert_eq!(
        wire::decode_frame(&trailing),
        Err(wire::DecodeError::TrailingBytes(1))
    );

    // An overlong (non-canonical) varint counter is a typed varint error.
    let overlong: Vec<u8> = vec![
        0x42, 0x46, 0x02, 0x00, // header, Open
        0x80, 0x00, // epoch = 0 encoded in two bytes: overlong
        0x00, 0x00, 0x00, // seq, ack_epoch, ack
    ];
    assert_eq!(
        wire::decode_frame(&overlong),
        Err(wire::DecodeError::BadVarint)
    );

    // A corrupted embedded v2 UPDATE surfaces the inner decode error.
    let mut bad_payload = bytes;
    bad_payload[9] = b'X'; // breaks the embedded "BV" magic
    assert!(wire::decode_frame(&bad_payload).is_err());
}
