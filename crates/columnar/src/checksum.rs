//! The 64-bit checksum persisted images store per block and per head.
//!
//! Four independent lanes take the input's little-endian 8-byte words
//! round-robin (word `k` goes to lane `k % 4`), so the four multiply
//! chains run side by side instead of one byte at a time; the bytes after
//! the last whole word are mixed in one at a time, then the length, then a
//! final avalanche. Every step is a bijection of the state for a fixed
//! input, and of the input word (or byte) for a fixed state, so any change
//! confined to one word — every single-bit flip — changes the sum.
//! [`crate::block::Block`] takes it where a block's bytes are produced,
//! and [`crate::image`] checks it where they are read back.

const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;
const P4: u64 = 0x27d4_eb2f_1656_67c5;
/// Each lane's start state.
const SEEDS: [u64; 4] = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];

/// Fold one word into a lane.
fn round(lane: u64, word: u64) -> u64 {
    lane.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

fn word(bytes: &[u8]) -> u64 {
    let mut w = [0; 8];
    w.copy_from_slice(bytes);
    u64::from_le_bytes(w)
}

/// The checksum of `bytes`.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut lanes = SEEDS;
    let mut stripes = bytes.chunks_exact(32);
    for stripe in &mut stripes {
        for (lane, w) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
            *lane = round(*lane, word(w));
        }
    }
    let mut words = stripes.remainder().chunks_exact(8);
    for (lane, w) in lanes.iter_mut().zip(&mut words) {
        *lane = round(*lane, word(w));
    }
    finish(lanes, words.remainder(), bytes.len())
}

/// Join the lanes, mix in the byte tail and the length, and avalanche.
fn finish(lanes: [u64; 4], tail: &[u8], len: usize) -> u64 {
    let mut h = lanes[0]
        .rotate_left(1)
        .wrapping_add(lanes[1].rotate_left(7))
        .wrapping_add(lanes[2].rotate_left(12))
        .wrapping_add(lanes[3].rotate_left(18));
    for &b in tail {
        h = (h ^ (b as u64).wrapping_mul(P4))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    h ^= len as u64;
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// The same sum a byte at a time — kept as the oracle [`checksum`]'s
/// word reads and lane assignment are held equal to.
#[cfg(test)]
fn oracle(bytes: &[u8]) -> u64 {
    let mut lanes = SEEDS;
    let whole = bytes.len() / 8 * 8;
    let mut w = 0u64;
    for (i, &b) in bytes[..whole].iter().enumerate() {
        w |= (b as u64) << (8 * (i % 8));
        if i % 8 == 7 {
            let lane = (i / 8) % 4;
            lanes[lane] = round(lanes[lane], w);
            w = 0;
        }
    }
    finish(lanes, &bytes[whole..], bytes.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_equals_the_byte_at_a_time_oracle() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let buf: Vec<u8> = (0..8 + 257)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=257 {
                let s = &buf[start..start + len];
                assert_eq!(checksum(s), oracle(s), "start {start}, len {len}");
            }
        }
    }

    /// Every single-bit flip of a buffer moves the sum, as does a length
    /// change that only appends zeros.
    #[test]
    fn every_single_bit_flip_changes_the_sum() {
        let buf: Vec<u8> = (0..77u8).map(|i| i.wrapping_mul(37)).collect();
        let sum = checksum(&buf);
        for bit in 0..buf.len() * 8 {
            let mut bad = buf.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(checksum(&bad), sum, "bit {bit}");
        }
        let mut longer = buf.clone();
        longer.push(0);
        assert_ne!(checksum(&longer), sum);
        assert_ne!(checksum(&[]), checksum(&[0]));
    }
}
