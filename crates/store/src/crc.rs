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
//! Each step still waits for the previous one's remainder, so an input of
//! 4 KiB or more is folded a *superblock* at a time: its four 1 KiB lanes
//! run the same step side by side, lane 0 from the running remainder and
//! lanes 1–3 from zero, giving the processor four independent chains of
//! lookups instead of one. The CRC is linear, so the lanes join exactly:
//! advancing a remainder over 1 KiB of zeros is itself a table lookup
//! (one 4×256 *join table*), and the superblock's remainder is lane 0
//! advanced past lane 1 and XORed with it, and so on for lanes 2 and 3.
//! The tail, and every input under 4 KiB, goes through the serial loop.
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

/// Bytes in one lane of a superblock.
const LANE: usize = 1024;

/// Bytes in one superblock: four lanes folded side by side.
const SUPERBLOCK: usize = 4 * LANE;

/// The join table: `j[k][i]` is the remainder `i << 8k` advanced over
/// [`LANE`] zero bytes, so advancing any remainder past a lane of zeros
/// takes one lookup per byte of it. Advancing over zeros is linear, so
/// only the 32 single-bit remainders are advanced; every other entry is
/// the XOR of two entries before it.
fn join_table() -> &'static [[u32; 256]; 4] {
    static JOIN: OnceLock<[[u32; 256]; 4]> = OnceLock::new();
    JOIN.get_or_init(|| {
        let mut j = [[0u32; 256]; 4];
        for (k, row) in j.iter_mut().enumerate() {
            for bit in 0..8 {
                row[1 << bit] = serial(1 << (8 * k + bit), &[0; LANE]);
            }
            for i in 1..256usize {
                let low = i & i.wrapping_neg();
                row[i] = row[i ^ low] ^ row[low];
            }
        }
        j
    })
}

/// Advances the remainder `crc` over [`LANE`] zero bytes.
fn past_lane(crc: u32) -> u32 {
    let j = join_table();
    j[0][(crc & 0xff) as usize]
        ^ j[1][((crc >> 8) & 0xff) as usize]
        ^ j[2][((crc >> 16) & 0xff) as usize]
        ^ j[3][(crc >> 24) as usize]
}

/// Folds one 16-byte block into the remainder `crc`.
#[inline(always)]
fn step(t: &Tables, crc: u32, b: &[u8]) -> u32 {
    let word = |i: usize| u32::from_le_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]]);
    let (w0, w1, w2, w3) = (word(0) ^ crc, word(4), word(8), word(12));
    let fold = |w: u32, k: usize| {
        t[k + 3][(w & 0xff) as usize]
            ^ t[k + 2][((w >> 8) & 0xff) as usize]
            ^ t[k + 1][((w >> 16) & 0xff) as usize]
            ^ t[k][(w >> 24) as usize]
    };
    fold(w0, 12) ^ fold(w1, 8) ^ fold(w2, 4) ^ fold(w3, 0)
}

/// Advances the remainder `crc` over `data` one 16-byte step at a time,
/// then byte by byte.
fn serial(mut crc: u32, data: &[u8]) -> u32 {
    let t = tables();
    let mut blocks = data.chunks_exact(SLICE);
    for b in &mut blocks {
        crc = step(t, crc, b);
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xff) as usize];
    }
    crc
}

/// Advances the (pre-inverted) remainder `crc` over `data`: whole
/// superblocks in four lanes, the rest serially. The one CRC loop behind
/// both [`crc32`] and [`Crc32::update`].
fn advance(mut crc: u32, data: &[u8]) -> u32 {
    let t = tables();
    let mut superblocks = data.chunks_exact(SUPERBLOCK);
    for sb in &mut superblocks {
        let (l0, rest) = sb.split_at(LANE);
        let (l1, rest) = rest.split_at(LANE);
        let (l2, l3) = rest.split_at(LANE);
        let (mut c0, mut c1, mut c2, mut c3) = (crc, 0, 0, 0);
        let lanes = l0
            .chunks_exact(SLICE)
            .zip(l1.chunks_exact(SLICE))
            .zip(l2.chunks_exact(SLICE).zip(l3.chunks_exact(SLICE)));
        for ((b0, b1), (b2, b3)) in lanes {
            c0 = step(t, c0, b0);
            c1 = step(t, c1, b1);
            c2 = step(t, c2, b2);
            c3 = step(t, c3, b3);
        }
        crc = past_lane(past_lane(past_lane(c0) ^ c1) ^ c2) ^ c3;
    }
    serial(crc, superblocks.remainder())
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

    #[test]
    fn lengths_around_superblock_boundaries_match_the_reference() {
        let buf = filler(64 * 1024 + 64 + SLICE);
        let sizes = (4080..=4112)
            .chain(8176..=8208)
            .chain(12272..=12304)
            .chain(65520..=65552);
        for len in sizes {
            for start in [0, 1, 3, 8, SLICE - 1] {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), reference(data), "start {start} len {len}");
            }
        }
    }

    proptest! {
        #[test]
        fn split_updates_over_superblocks_match_one_shot(
            data in proptest::collection::vec(0u8.., 0..70 * 1024),
            cuts in proptest::collection::vec(0usize..70 * 1024, 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.sort_unstable();
            let mut h = Crc32::new();
            let mut from = 0;
            for cut in cuts {
                h.update(&data[from..cut]);
                from = cut;
            }
            h.update(&data[from..]);
            prop_assert_eq!(h.finish(), crc32(&data));
        }

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
