//! Fixture: the wire codec's zero-allocation encode path, clean.

/// Encodes `update` into the caller's scratch buffer and returns the
/// encoded length; the buffer is cleared, never reallocated from scratch.
pub fn update_size_v2_with(scratch: &mut Vec<u8>, update: &[u32]) -> usize {
    scratch.clear();
    for value in update {
        scratch.push((*value & 0x7F) as u8);
    }
    scratch.len()
}

/// Pure-arithmetic size model for one advertisement.
pub fn advertisement_size(entries: usize) -> usize {
    5 + entries * 10
}

/// Pure-arithmetic size model for one update.
pub fn update_size(advertisements: &[usize]) -> usize {
    7 + advertisements.iter().map(|&n| advertisement_size(n)).sum::<usize>()
}

/// Appends one advertisement's entries to the caller's buffer.
fn encode_advertisement_v2(out: &mut Vec<u8>, entries: &[u32]) {
    for value in entries {
        out.push((*value & 0x7F) as u8);
    }
}

/// Encodes `update` into the caller's buffer.
pub fn encode_update_v2_into(out: &mut Vec<u8>, update: &[u32]) {
    out.clear();
    encode_advertisement_v2(out, update);
}

/// Encodes a frame — a sequence number ahead of its update — into the
/// caller's buffer.
pub fn encode_frame_v2_into(out: &mut Vec<u8>, seq: u8, update: &[u32]) {
    out.clear();
    out.push(seq);
    encode_advertisement_v2(out, update);
}

/// Sizes a frame through the caller's scratch buffer.
pub fn frame_size_v2_with(scratch: &mut Vec<u8>, seq: u8, update: &[u32]) -> usize {
    encode_frame_v2_into(scratch, seq, update);
    scratch.len()
}
