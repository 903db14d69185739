//! CRC-32 (IEEE 802.3) for checkpoint record integrity.
//!
//! The disk store guards every record with the same polynomial the
//! Ethernet frame check sequence uses (0x04C11DB7, reflected 0xEDB88320) —
//! fitting, given Eden's network (§3). Implemented locally to keep the
//! dependency set minimal; verified against published test vectors and a
//! table-free bitwise reference.
//!
//! The kernel is slicing-by-16: sixteen 256-entry tables let one step fold
//! 16 input bytes (four little-endian words) into the running remainder
//! with 16 independent lookups, instead of one dependent lookup per byte.
//! The CRC runs inside every checkpoint (§4.4) and every verified read,
//! so its speed is on the invoking operation's critical path.

use std::sync::OnceLock;

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Bytes folded per step of the sliced loop.
const SLICE: usize = 16;

type Tables = [[u32; 256]; SLICE];

/// The slicing tables, built at first use. `t[0]` is the classic
/// byte-at-a-time table; `t[k][i]` is the remainder of byte `i` followed
/// by `k` zero bytes, so byte `j` of a 16-byte block indexes `t[15 - j]`.
fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; SLICE];
        for (i, entry) in t[0].iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
            *entry = crc;
        }
        for k in 1..SLICE {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            }
        }
        t
    })
}

/// Advances the (pre-inverted) remainder `crc` over `data`. The one CRC
/// loop behind both [`crc32`] and [`Crc32::update`].
fn advance(mut crc: u32, data: &[u8]) -> u32 {
    let t = tables();
    let mut blocks = data.chunks_exact(SLICE);
    for b in &mut blocks {
        let word = |i: usize| u32::from_le_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]]);
        let (w0, w1, w2, w3) = (word(0) ^ crc, word(4), word(8), word(12));
        let fold = |w: u32, k: usize| {
            t[k + 3][(w & 0xff) as usize]
                ^ t[k + 2][((w >> 8) & 0xff) as usize]
                ^ t[k + 1][((w >> 16) & 0xff) as usize]
                ^ t[k][(w >> 24) as usize]
        };
        crc = fold(w0, 12) ^ fold(w1, 8) ^ fold(w2, 4) ^ fold(w3, 0);
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xff) as usize];
    }
    crc
}

/// Computes the CRC-32 of `data`.
///
/// # Examples
///
/// ```
/// assert_eq!(eden_store::crc::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    !advance(u32::MAX, data)
}

/// An incremental CRC-32 hasher for multi-part records.
#[derive(Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Starts a fresh computation.
    pub fn new() -> Self {
        Crc32 { state: u32::MAX }
    }

    /// Feeds `data` into the computation.
    pub fn update(&mut self, data: &[u8]) {
        self.state = advance(self.state, data);
    }

    /// Finishes and returns the checksum.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Table-free, bit-at-a-time CRC-32: the definition the sliced kernel
    /// must agree with.
    fn reference(data: &[u8]) -> u32 {
        let mut crc = u32::MAX;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    /// Deterministic non-repeating filler, so every table index is used.
    fn filler(len: usize) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect()
    }

    #[test]
    fn known_vectors() {
        // Standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        // Longer than one 16-byte block, so the sliced loop and the tail
        // both run.
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xffu8; 32]), 0xFF6C_AB0B);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"some checkpoint record payload";
        let mut h = Crc32::new();
        h.update(&data[..7]);
        h.update(&data[7..]);
        assert_eq!(h.finish(), crc32(data));
    }

    #[test]
    fn every_short_length_at_every_alignment_matches_the_reference() {
        let buf = filler(64 + SLICE);
        for start in 0..SLICE {
            for len in 0..=64 {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), reference(data), "start {start} len {len}");
            }
        }
    }

    proptest! {
        #[test]
        fn sliced_matches_the_bitwise_reference(
            data in proptest::collection::vec(0u8.., 0..4096),
            start in 0usize..SLICE,
            cuts in proptest::collection::vec(0usize..4096, 0..4),
        ) {
            let data = &data[start.min(data.len())..];
            let expected = reference(data);
            prop_assert_eq!(crc32(data), expected);
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.sort_unstable();
            let mut h = Crc32::new();
            let mut from = 0;
            for cut in cuts {
                h.update(&data[from..cut]);
                from = cut;
            }
            h.update(&data[from..]);
            prop_assert_eq!(h.finish(), expected);
        }

        #[test]
        fn single_bit_flips_change_the_crc(data in proptest::collection::vec(0u8.., 1..256), bit in 0usize..2048) {
            let mut flipped = data.clone();
            let bit = bit % (data.len() * 8);
            flipped[bit / 8] ^= 1 << (bit % 8);
            prop_assert_ne!(crc32(&flipped), crc32(&data));
        }
    }
}
