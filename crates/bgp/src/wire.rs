//! Wire format: a real binary codec for UPDATE messages.
//!
//! The paper measures communication in "number of routing tables exchanged
//! and the size of those tables". Rather than estimating sizes from a
//! model, this module actually serializes messages to a compact
//! length-prefixed binary format and the engines account the encoded
//! length. Encoding and decoding round-trip exactly — tested here and by
//! property tests — so the byte counts in experiments E5/E6/E11 are real.
//!
//! There is one UPDATE format, version 2. A message or session frame that
//! carries any other version byte — the retired fixed-width version 1
//! included — is a [`DecodeError::BadHeader`]. The one v1 remnant is
//! [`update_size`], an arithmetic size model kept for a single outside
//! reader (see its doc); nothing on a run path calls it.
//!
//! The format is variable-width: unsigned LEB128 varints (`uvarint`, at
//! most 10 bytes, canonical — overlong encodings are rejected), AS ids
//! inside a path delta-coded against their predecessor as zigzag varints,
//! and costs as `vcost` — `uvarint(0)` is the explicit `∞` sentinel, a
//! finite cost `c` encodes as `uvarint(c + 1)`:
//!
//! ```text
//! message   := magic "BV" | version 2 | from uvarint
//!            | sender_cost_len uvarint | (node uvarint, vcost)*
//!            | count uvarint | advert*
//! advert    := dest uvarint | kind u8  (0 = withdrawn, 1 = reachable, 2 = delta)
//! reachable += path_len uvarint
//!            | node₀ uvarint, vcost    (first entry: absolute AS id)
//!            | (zigzag(nodeᵢ − nodeᵢ₋₁) uvarint, vcost)*
//!            | path_cost vcost | prices_len uvarint | vcost*
//! delta     += base_path_hash u64 (fixed 8 LE) | entries_len uvarint
//!            | (index uvarint, vcost)*
//! ```
//!
//! `base_path_hash` is [`SharedPath::hash64`](crate::SharedPath::hash64)
//! of the path the delta patches: FNV-1a-64 over its entries from last to
//! first, each entry its AS number (4 bytes LE) then its raw cost (8 bytes
//! LE, `∞` as `u64::MAX`).
//!
//! The lossy-channel recovery layer (see `chaos` and `docs/ROBUSTNESS.md`)
//! wraps UPDATEs in sequenced session frames with their own magic:
//!
//! ```text
//! frame     := magic "BF" | version 2 | kind u8
//!            | epoch uvarint | seq uvarint | ack_epoch uvarint | ack uvarint
//!            | payload
//! kind 0    := (no payload)              (FrameKind::Open)
//! kind 1    := message                   (FrameKind::Data, embedded UPDATE)
//! kind 2    := (no payload)              (FrameKind::Keepalive)
//! ```

use crate::message::{Frame, FrameKind, PathEntry, RouteAdvertisement, RouteInfo, Update};
use bgpvcg_netgraph::{AsId, Cost};
use std::error::Error;
use std::fmt;

/// Bytes per AS number in the v1 size model (BGP-4's 4-byte AS numbers).
const AS_NUMBER_BYTES: usize = 4;
/// Bytes per declared cost or price in the v1 size model.
const COST_BYTES: usize = 8;
/// Fixed per-message header of the v1 size model: magic (2) + version (1)
/// + sender (4) + sender-cost count (2) + entry count (2).
const MESSAGE_HEADER_BYTES: usize = 11;

const MAGIC: [u8; 2] = *b"BV";
const FRAME_MAGIC: [u8; 2] = *b"BF";
const VERSION: u8 = 2;
const KIND_WITHDRAWN: u8 = 0;
const KIND_REACHABLE: u8 = 1;
const KIND_PRICE_DELTA: u8 = 2;
const FRAME_KIND_OPEN: u8 = 0;
const FRAME_KIND_DATA: u8 = 1;
const FRAME_KIND_KEEPALIVE: u8 = 2;

/// Errors decoding a wire message.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecodeError {
    /// The buffer ended before the structure was complete.
    Truncated,
    /// The magic bytes or version byte did not match.
    BadHeader,
    /// An advertisement kind byte named no known kind.
    BadKind(u8),
    /// A session-frame kind byte named no known frame kind.
    BadFrameKind(u8),
    /// A v2 varint was overlong, overflowed 64 bits, or reconstructed a
    /// value outside its field's range (e.g. a delta-coded AS id beyond
    /// `u32`).
    BadVarint,
    /// Trailing bytes followed a structurally complete message.
    TrailingBytes(usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "message truncated"),
            DecodeError::BadHeader => write!(f, "bad magic or version"),
            DecodeError::BadKind(k) => write!(f, "unknown advertisement kind {k}"),
            DecodeError::BadFrameKind(k) => write!(f, "unknown frame kind {k}"),
            DecodeError::BadVarint => write!(f, "malformed varint"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing byte(s)"),
        }
    }
}

impl Error for DecodeError {}

/// Appends an unsigned LEB128 varint (canonical: no trailing zero groups).
fn put_uvarint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends a v2 cost: `0` is the `∞` sentinel, a finite cost `c` encodes
/// as `c + 1` (finite raw costs top out at `u64::MAX − 1`, so the shift
/// never overflows and the two ranges never collide).
fn put_vcost(out: &mut Vec<u8>, cost: Cost) {
    put_uvarint(out, cost.finite().map_or(0, |c| c + 1));
}

/// Zigzag-maps a signed delta into the unsigned varint domain.
fn zigzag64(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Inverse of [`zigzag64`].
fn unzigzag64(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

/// Appends one v2 table entry to `out` without allocating.
fn encode_advertisement_v2(out: &mut Vec<u8>, ad: &RouteAdvertisement) {
    put_uvarint(out, u64::from(ad.destination.raw()));
    match &ad.info {
        RouteInfo::Withdrawn => out.push(KIND_WITHDRAWN),
        RouteInfo::Reachable {
            path,
            path_cost,
            prices,
        } => {
            out.push(KIND_REACHABLE);
            put_uvarint(out, path.len() as u64);
            let mut prev: Option<u32> = None;
            for entry in path.iter() {
                let raw = entry.node.raw();
                match prev {
                    // The first node travels absolute; neighbors in a path
                    // tend to be numerically close, so subsequent ids
                    // zigzag-delta down to one or two bytes.
                    None => put_uvarint(out, u64::from(raw)),
                    Some(p) => put_uvarint(out, zigzag64(i64::from(raw) - i64::from(p))),
                }
                prev = Some(raw);
                put_vcost(out, entry.cost);
            }
            put_vcost(out, *path_cost);
            put_uvarint(out, prices.len() as u64);
            for &p in prices {
                put_vcost(out, p);
            }
        }
        RouteInfo::PriceDelta {
            base_path_hash,
            entries,
        } => {
            out.push(KIND_PRICE_DELTA);
            // The hash is uniformly distributed: varint-coding it would
            // cost 10 bytes, fixed-width costs 8.
            out.extend_from_slice(&base_path_hash.to_le_bytes());
            put_uvarint(out, entries.len() as u64);
            for &(index, price) in entries {
                put_uvarint(out, u64::from(index));
                put_vcost(out, price);
            }
        }
    }
}

/// Appends an UPDATE's v2 wire form to `out` — the zero-allocation encode
/// entry point the engines' byte accounting drives with a reused scratch
/// buffer.
pub fn encode_update_v2_into(out: &mut Vec<u8>, update: &Update) {
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    put_uvarint(out, u64::from(update.from.raw()));
    put_uvarint(out, update.sender_costs.len() as u64);
    for &(node, cost) in &update.sender_costs {
        put_uvarint(out, u64::from(node.raw()));
        put_vcost(out, cost);
    }
    put_uvarint(out, update.advertisements.len() as u64);
    for ad in &update.advertisements {
        encode_advertisement_v2(out, ad);
    }
}

/// Serializes an UPDATE to its v2 wire form (allocating convenience
/// wrapper over [`encode_update_v2_into`]).
pub fn encode_update_v2(update: &Update) -> Vec<u8> {
    let mut out = Vec::with_capacity(MESSAGE_HEADER_BYTES + update.advertisements.len() * 8);
    encode_update_v2_into(&mut out, update);
    out
}

/// v2 wire size of an UPDATE, measured by encoding into the caller's
/// scratch buffer (cleared first, capacity retained across calls).
pub fn update_size_v2_with(scratch: &mut Vec<u8>, update: &Update) -> usize {
    scratch.clear();
    encode_update_v2_into(scratch, update);
    scratch.len()
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::Truncated)?;
        if end > self.buf.len() {
            return Err(DecodeError::Truncated);
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        let bytes = self
            .take(8)?
            .try_into()
            .map_err(|_| DecodeError::Truncated)?;
        Ok(u64::from_le_bytes(bytes))
    }

    /// Reads a canonical unsigned LEB128 varint: at most 10 bytes, no
    /// trailing zero continuation groups, final group within 64 bits.
    fn uvarint(&mut self) -> Result<u64, DecodeError> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            if shift > 0 && byte == 0 {
                // A zero group means a shorter canonical encoding existed.
                return Err(DecodeError::BadVarint);
            }
            if shift == 63 && byte > 1 {
                // The 10th group holds only the top bit of a u64.
                return Err(DecodeError::BadVarint);
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(DecodeError::BadVarint)
    }

    /// A varint constrained to `u32` (AS numbers).
    fn uvarint_u32(&mut self) -> Result<u32, DecodeError> {
        u32::try_from(self.uvarint()?).map_err(|_| DecodeError::BadVarint)
    }

    /// A varint used as an element count; conversion to `usize` cannot
    /// fail on supported targets, but the bound is checked anyway.
    fn uvarint_len(&mut self) -> Result<usize, DecodeError> {
        usize::try_from(self.uvarint()?).map_err(|_| DecodeError::BadVarint)
    }

    /// A v2 cost: `0` is `∞`, otherwise the finite cost shifted by one.
    fn vcost(&mut self) -> Result<Cost, DecodeError> {
        let raw = self.uvarint()?;
        Ok(if raw == 0 {
            Cost::INFINITE
        } else {
            Cost::new(raw - 1)
        })
    }
}

fn decode_update_body(r: &mut Reader<'_>) -> Result<Update, DecodeError> {
    let from = AsId::new(r.uvarint_u32()?);
    let sender_cost_len = r.uvarint_len()?;
    // Length claims come off the wire: cap pre-allocation by the bytes
    // actually present so a corrupt count cannot balloon memory.
    let mut sender_costs = Vec::with_capacity(sender_cost_len.min(r.remaining()));
    for _ in 0..sender_cost_len {
        let node = AsId::new(r.uvarint_u32()?);
        let cost = r.vcost()?;
        sender_costs.push((node, cost));
    }
    let count = r.uvarint_len()?;
    let mut advertisements = Vec::with_capacity(count.min(r.remaining()));
    for _ in 0..count {
        let destination = AsId::new(r.uvarint_u32()?);
        let info = match r.u8()? {
            KIND_WITHDRAWN => RouteInfo::Withdrawn,
            KIND_REACHABLE => {
                let path_len = r.uvarint_len()?;
                let mut path = Vec::with_capacity(path_len.min(r.remaining()));
                let mut prev: Option<u32> = None;
                for _ in 0..path_len {
                    let raw = match prev {
                        None => r.uvarint_u32()?,
                        Some(p) => {
                            let delta = unzigzag64(r.uvarint()?);
                            i64::from(p)
                                .checked_add(delta)
                                .and_then(|v| u32::try_from(v).ok())
                                .ok_or(DecodeError::BadVarint)?
                        }
                    };
                    prev = Some(raw);
                    let cost = r.vcost()?;
                    path.push(PathEntry {
                        node: AsId::new(raw),
                        cost,
                    });
                }
                let path_cost = r.vcost()?;
                let prices_len = r.uvarint_len()?;
                let mut prices = Vec::with_capacity(prices_len.min(r.remaining()));
                for _ in 0..prices_len {
                    prices.push(r.vcost()?);
                }
                RouteInfo::Reachable {
                    path: path.into(),
                    path_cost,
                    prices,
                }
            }
            KIND_PRICE_DELTA => {
                let base_path_hash = r.u64()?;
                let entries_len = r.uvarint_len()?;
                let mut entries = Vec::with_capacity(entries_len.min(r.remaining()));
                for _ in 0..entries_len {
                    let index = u16::try_from(r.uvarint()?).map_err(|_| DecodeError::BadVarint)?;
                    let price = r.vcost()?;
                    entries.push((index, price));
                }
                RouteInfo::PriceDelta {
                    base_path_hash,
                    entries,
                }
            }
            other => return Err(DecodeError::BadKind(other)),
        };
        advertisements.push(RouteAdvertisement { destination, info });
    }
    Ok(Update {
        from,
        sender_costs,
        advertisements,
        // The update id is observability-only: it never crosses the wire,
        // so decoded updates come back unstamped.
        id: 0,
    })
}

/// Parses a wire message back into an [`Update`].
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncation, bad magic or a version other
/// than 2, unknown advertisement kinds, malformed varints, or trailing
/// bytes.
pub fn decode_update(buf: &[u8]) -> Result<Update, DecodeError> {
    let mut r = Reader { buf, pos: 0 };
    if r.take(2)? != MAGIC || r.u8()? != VERSION {
        return Err(DecodeError::BadHeader);
    }
    let update = decode_update_body(&mut r)?;
    if r.pos != buf.len() {
        return Err(DecodeError::TrailingBytes(buf.len() - r.pos));
    }
    Ok(update)
}

fn finish_frame(r: &Reader<'_>) -> Result<(), DecodeError> {
    if r.pos != r.buf.len() {
        return Err(DecodeError::TrailingBytes(r.buf.len() - r.pos));
    }
    Ok(())
}

fn frame_kind_byte(kind: &FrameKind) -> u8 {
    match kind {
        FrameKind::Open => FRAME_KIND_OPEN,
        FrameKind::Data(_) => FRAME_KIND_DATA,
        FrameKind::Keepalive => FRAME_KIND_KEEPALIVE,
    }
}

/// Appends a session frame's v2 wire form (varint counters, v2 payload)
/// to `out` without allocating.
pub fn encode_frame_v2_into(out: &mut Vec<u8>, frame: &Frame) {
    out.extend_from_slice(&FRAME_MAGIC);
    out.push(VERSION);
    out.push(frame_kind_byte(&frame.kind));
    put_uvarint(out, frame.epoch);
    put_uvarint(out, frame.seq);
    put_uvarint(out, frame.ack_epoch);
    put_uvarint(out, frame.ack);
    if let FrameKind::Data(update) = &frame.kind {
        encode_update_v2_into(out, update);
    }
}

/// Serializes a session frame to its v2 wire form (allocating convenience
/// wrapper over [`encode_frame_v2_into`]).
pub fn encode_frame_v2(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    encode_frame_v2_into(&mut out, frame);
    out
}

/// v2 wire size of a session frame, measured by encoding into the
/// caller's scratch buffer (cleared first, capacity retained).
pub fn frame_size_v2_with(scratch: &mut Vec<u8>, frame: &Frame) -> usize {
    scratch.clear();
    encode_frame_v2_into(scratch, frame);
    scratch.len()
}

/// Parses a wire session frame back into a [`Frame`].
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncation, bad magic or a version other
/// than 2, an unknown frame kind, a malformed embedded UPDATE, or trailing
/// bytes.
pub fn decode_frame(buf: &[u8]) -> Result<Frame, DecodeError> {
    let mut r = Reader { buf, pos: 0 };
    if r.take(2)? != FRAME_MAGIC || r.u8()? != VERSION {
        return Err(DecodeError::BadHeader);
    }
    let kind_tag = r.u8()?;
    let (epoch, seq, ack_epoch, ack) = (r.uvarint()?, r.uvarint()?, r.uvarint()?, r.uvarint()?);
    let kind = match kind_tag {
        FRAME_KIND_OPEN => {
            finish_frame(&r)?;
            FrameKind::Open
        }
        FRAME_KIND_DATA => {
            let payload = r.take(buf.len() - r.pos)?;
            FrameKind::Data(decode_update(payload)?.into())
        }
        FRAME_KIND_KEEPALIVE => {
            finish_frame(&r)?;
            FrameKind::Keepalive
        }
        other => return Err(DecodeError::BadFrameKind(other)),
    };
    Ok(Frame {
        epoch,
        seq,
        ack_epoch,
        ack,
        kind,
    })
}

/// v1 wire size of one table entry — every v1 field is fixed-width.
fn advertisement_size(ad: &RouteAdvertisement) -> usize {
    AS_NUMBER_BYTES
        + 1
        + match &ad.info {
            RouteInfo::Withdrawn => 0,
            RouteInfo::Reachable { path, prices, .. } => {
                2 + path.len() * (AS_NUMBER_BYTES + COST_BYTES)
                    + COST_BYTES
                    + 2
                    + prices.len() * COST_BYTES
            }
            RouteInfo::PriceDelta { entries, .. } => 8 + 2 + entries.len() * (2 + COST_BYTES),
        }
}

/// Size of an UPDATE under the retired fixed-width v1 format, computed
/// arithmetically: 4-byte AS numbers, 8-byte costs and `u16` counts. No
/// v1 codec is left, and no engine or report counts these bytes. The model
/// is kept only as the denominator of the repo benchmark's
/// `bgp.wire.v2_over_v1` ratio (`perf/src/layers.rs`) until that harness
/// retires the ratio.
pub fn update_size(update: &Update) -> usize {
    MESSAGE_HEADER_BYTES
        + update.sender_costs.len() * (AS_NUMBER_BYTES + COST_BYTES)
        + update
            .advertisements
            .iter()
            .map(advertisement_size)
            .sum::<usize>()
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

    fn reachable_ad(path_len: usize, price_len: usize) -> RouteAdvertisement {
        let path: Vec<PathEntry> = (0..path_len)
            .map(|i| entry(i as u32, i as u64 + 1))
            .collect();
        RouteAdvertisement {
            destination: AsId::new(99),
            info: RouteInfo::Reachable {
                path: path.into(),
                path_cost: Cost::new(17),
                prices: vec![Cost::new(5); price_len],
            },
        }
    }

    fn delta_ad() -> RouteAdvertisement {
        RouteAdvertisement {
            destination: AsId::new(42),
            info: RouteInfo::PriceDelta {
                base_path_hash: 0xDEAD_BEEF_0BAD_F00D,
                entries: vec![(0, Cost::new(3)), (2, Cost::INFINITE)],
            },
        }
    }

    fn sample_update() -> Update {
        Update {
            from: AsId::new(7),
            sender_costs: Vec::new(),
            advertisements: vec![
                reachable_ad(4, 2),
                RouteAdvertisement {
                    destination: AsId::new(3),
                    info: RouteInfo::Withdrawn,
                },
                RouteAdvertisement {
                    destination: AsId::new(11),
                    info: RouteInfo::Reachable {
                        path: vec![entry(11, 0)].into(),
                        path_cost: Cost::ZERO,
                        prices: vec![Cost::INFINITE],
                    },
                },
            ],
            id: 0,
        }
    }

    /// The sample plus a price-delta entry and a descending path (negative
    /// zigzag deltas) — every v2 construct in one message.
    fn sample_update_v2() -> Update {
        let mut update = sample_update();
        update.advertisements.push(delta_ad());
        update.advertisements.push(RouteAdvertisement {
            destination: AsId::new(1),
            info: RouteInfo::Reachable {
                path: vec![entry(9, 2), entry(4, 1), entry(1, 0)].into(),
                path_cost: Cost::new(1),
                prices: vec![Cost::new(2)],
            },
        });
        update.sender_costs = vec![(AsId::new(2), Cost::new(5)), (AsId::new(8), Cost::INFINITE)];
        update
    }

    #[test]
    fn v2_round_trip_is_exact() {
        let update = sample_update_v2();
        let bytes = encode_update_v2(&update);
        assert_eq!(decode_update(&bytes).unwrap(), update);
    }

    /// The retired v1 size model, pinned to the length the v1 encoder
    /// produced for the sample (11-byte header, entries of 68, 5 and 50
    /// bytes).
    #[test]
    fn update_size_is_the_v1_length() {
        assert_eq!(update_size(&sample_update()), 134);
    }

    #[test]
    fn v2_size_equals_encoded_length_and_scratch_is_reused() {
        let mut scratch = Vec::new();
        let update = sample_update_v2();
        assert_eq!(
            update_size_v2_with(&mut scratch, &update),
            encode_update_v2(&update).len()
        );
        let capacity = scratch.capacity();
        // A second measurement reuses the grown buffer.
        assert_eq!(
            update_size_v2_with(&mut scratch, &update),
            encode_update_v2(&update).len()
        );
        assert_eq!(scratch.capacity(), capacity);
    }

    #[test]
    fn infinite_prices_survive_the_wire() {
        let decoded = decode_update(&encode_update_v2(&sample_update())).unwrap();
        let RouteInfo::Reachable { prices, .. } = &decoded.advertisements[2].info else {
            panic!("third entry is reachable");
        };
        assert_eq!(prices, &[Cost::INFINITE]);
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let bytes = encode_update_v2(&sample_update_v2());
        for cut in 0..bytes.len() {
            let err = decode_update(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, DecodeError::Truncated | DecodeError::BadHeader),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_update_v2(&sample_update_v2());
        bytes.push(0xAB);
        assert_eq!(
            decode_update(&bytes).unwrap_err(),
            DecodeError::TrailingBytes(1)
        );
    }

    #[test]
    fn bad_magic_version_and_kind_are_rejected() {
        let sample = encode_update_v2(&sample_update_v2());
        let mut bytes = sample.clone();
        bytes[0] = b'X';
        assert_eq!(decode_update(&bytes).unwrap_err(), DecodeError::BadHeader);

        for version in [0, 1, 3] {
            let mut bytes = sample.clone();
            bytes[2] = version;
            assert_eq!(decode_update(&bytes).unwrap_err(), DecodeError::BadHeader);
        }

        // The first advertisement's kind byte follows the 3-byte header,
        // `from`, the two sender costs with their count, the entry count
        // and the one-byte destination.
        let mut bytes = sample;
        let kind_pos = 3 + 1 + 1 + 2 * 2 + 1 + 1;
        assert_eq!(bytes[kind_pos], KIND_REACHABLE);
        bytes[kind_pos] = 9;
        assert_eq!(decode_update(&bytes).unwrap_err(), DecodeError::BadKind(9));
    }

    #[test]
    fn varint_edge_values_round_trip() {
        for value in [
            0u64,
            1,
            127,
            128,
            16383,
            16384,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, value);
            assert!(buf.len() <= 10);
            let mut r = Reader { buf: &buf, pos: 0 };
            assert_eq!(r.uvarint().unwrap(), value, "value {value}");
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn overlong_and_overflowing_varints_are_rejected() {
        // 0x80 0x00 is a two-byte encoding of 0: overlong.
        let mut r = Reader {
            buf: &[0x80, 0x00],
            pos: 0,
        };
        assert_eq!(r.uvarint().unwrap_err(), DecodeError::BadVarint);
        // Ten continuation groups followed by anything: more than 64 bits.
        let mut r = Reader {
            buf: &[0xFF; 11],
            pos: 0,
        };
        assert_eq!(r.uvarint().unwrap_err(), DecodeError::BadVarint);
        // 10th group with a payload beyond the top bit of a u64.
        let mut buf = vec![0xFF; 9];
        buf.push(0x02);
        let mut r = Reader { buf: &buf, pos: 0 };
        assert_eq!(r.uvarint().unwrap_err(), DecodeError::BadVarint);
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag64(zigzag64(v)), v);
        }
    }

    #[test]
    fn out_of_range_path_delta_is_rejected() {
        // Path of two nodes where the second's delta walks below zero.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        put_uvarint(&mut bytes, 7); // from
        put_uvarint(&mut bytes, 0); // sender costs
        put_uvarint(&mut bytes, 1); // one advertisement
        put_uvarint(&mut bytes, 9); // dest
        bytes.push(KIND_REACHABLE);
        put_uvarint(&mut bytes, 2); // path_len
        put_uvarint(&mut bytes, 5); // first node = 5
        put_vcost(&mut bytes, Cost::new(1));
        put_uvarint(&mut bytes, zigzag64(-6)); // 5 - 6 = -1: out of range
        put_vcost(&mut bytes, Cost::new(1));
        put_vcost(&mut bytes, Cost::ZERO); // path_cost
        put_uvarint(&mut bytes, 0); // prices
        assert_eq!(decode_update(&bytes).unwrap_err(), DecodeError::BadVarint);
    }

    fn sample_frames() -> [Frame; 3] {
        [
            Frame {
                epoch: 3,
                seq: 0,
                ack_epoch: 2,
                ack: 7,
                kind: FrameKind::Open,
            },
            Frame {
                epoch: 3,
                seq: 1,
                ack_epoch: 2,
                ack: 7,
                kind: FrameKind::Data(sample_update().into()),
            },
            Frame {
                epoch: 3,
                seq: 0,
                ack_epoch: 2,
                ack: 9,
                kind: FrameKind::Keepalive,
            },
        ]
    }

    #[test]
    fn v2_frames_round_trip_and_report_their_size() {
        let mut scratch = Vec::new();
        for frame in sample_frames() {
            let bytes = encode_frame_v2(&frame);
            assert_eq!(frame_size_v2_with(&mut scratch, &frame), bytes.len());
            assert_eq!(decode_frame(&bytes).unwrap(), frame);
        }
    }

    #[test]
    fn frame_truncation_is_detected_at_every_length() {
        for frame in sample_frames() {
            let bytes = encode_frame_v2(&frame);
            for cut in 0..bytes.len() {
                let err = decode_frame(&bytes[..cut]).unwrap_err();
                assert!(
                    matches!(err, DecodeError::Truncated | DecodeError::BadHeader),
                    "cut at {cut}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn frame_corruption_is_rejected_with_typed_errors() {
        let [open, data, keepalive] = sample_frames().map(|frame| encode_frame_v2(&frame));
        let mut bytes = open.clone();
        bytes[0] = b'X';
        assert_eq!(decode_frame(&bytes).unwrap_err(), DecodeError::BadHeader);

        for version in [1, 3] {
            let mut bytes = data.clone();
            bytes[2] = version;
            assert_eq!(decode_frame(&bytes).unwrap_err(), DecodeError::BadHeader);
        }

        let mut bytes = open;
        bytes[3] = 9; // kind byte
        assert_eq!(
            decode_frame(&bytes).unwrap_err(),
            DecodeError::BadFrameKind(9)
        );

        let mut bytes = keepalive;
        bytes.push(0xAB);
        assert_eq!(
            decode_frame(&bytes).unwrap_err(),
            DecodeError::TrailingBytes(1)
        );

        // A Data frame whose embedded UPDATE is corrupted surfaces the
        // inner decoder's typed error. The four counters are one byte each.
        let mut bytes = data;
        bytes[4 + 4] = b'X'; // embedded UPDATE magic
        assert_eq!(decode_frame(&bytes).unwrap_err(), DecodeError::BadHeader);
    }
}
