//! In-tree shim for the `rand` crate (0.9-style API).
//!
//! Provides the subset the workspace uses: the [`Rng`] / [`SeedableRng`]
//! traits with `random`, `random_range` and `random_bool`, the
//! [`rngs::SmallRng`] generator (xoshiro256++), and [`rng()`] for an
//! entropy-seeded generator. Statistical quality is adequate for
//! simulation and tests; this is not a cryptographic generator.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

use std::ops::{Range, RangeInclusive};

/// Low-level generator interface: a source of random 64-bit words.
pub trait RngCore {
    /// Returns the next random `u64`.
    fn next_u64(&mut self) -> u64;

    /// Returns the next random `u32`.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Types that can be sampled uniformly from a generator ("standard"
/// distribution: full range for integers, `[0, 1)` for floats).
pub trait StandardUniform: Sized {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($ty:ty),*) => {
        $(impl StandardUniform for $ty {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $ty
            }
        })*
    };
}

impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl StandardUniform for u128 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
    }
}

impl StandardUniform for i128 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        u128::sample(rng) as i128
    }
}

impl StandardUniform for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl StandardUniform for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardUniform for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Ranges that [`Rng::random_range`] can sample from.
pub trait SampleRange<T> {
    /// Draws one value from the range. Panics if the range is empty.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range_uint {
    ($($ty:ty),*) => {
        $(
            impl SampleRange<$ty> for Range<$ty> {
                fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                    assert!(self.start < self.end, "empty range");
                    let span = (self.end - self.start) as u128;
                    self.start + (u128::sample(rng) % span) as $ty
                }
            }
            impl SampleRange<$ty> for RangeInclusive<$ty> {
                fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range");
                    let span = (hi - lo) as u128 + 1;
                    lo + (u128::sample(rng) % span) as $ty
                }
            }
        )*
    };
}

impl_sample_range_uint!(u8, u16, u32, u64, u128, usize);

macro_rules! impl_sample_range_int {
    ($($ty:ty),*) => {
        $(
            impl SampleRange<$ty> for Range<$ty> {
                fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                    assert!(self.start < self.end, "empty range");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    (self.start as i128 + (u128::sample(rng) % span) as i128) as $ty
                }
            }
            impl SampleRange<$ty> for RangeInclusive<$ty> {
                fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range");
                    let span = (hi as i128 - lo as i128) as u128 + 1;
                    (lo as i128 + (u128::sample(rng) % span) as i128) as $ty
                }
            }
        )*
    };
}

impl_sample_range_int!(i8, i16, i32, i64, isize);

macro_rules! impl_sample_range_float {
    ($($ty:ty),*) => {
        $(
            impl SampleRange<$ty> for Range<$ty> {
                fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                    assert!(self.start < self.end, "empty range");
                    self.start + <$ty>::sample(rng) * (self.end - self.start)
                }
            }
            impl SampleRange<$ty> for RangeInclusive<$ty> {
                fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range");
                    lo + <$ty>::sample(rng) * (hi - lo)
                }
            }
        )*
    };
}

impl_sample_range_float!(f32, f64);

/// High-level sampling methods, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a value of type `T` from the standard distribution.
    fn random<T: StandardUniform>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Draws a value uniformly from `range`.
    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Returns true with probability `p`.
    fn random_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        f64::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Generators that can be constructed from seeds.
pub trait SeedableRng: Sized {
    /// Builds a generator deterministically from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// A small, fast, non-cryptographic generator (xoshiro256++).
    #[derive(Debug, Clone)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut state = seed;
            let s = [
                splitmix64(&mut state),
                splitmix64(&mut state),
                splitmix64(&mut state),
                splitmix64(&mut state),
            ];
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

/// Returns a fresh entropy-seeded generator (the 0.9 `rand::rng()`).
pub fn rng() -> rngs::SmallRng {
    use std::collections::hash_map::RandomState;
    use std::hash::{BuildHasher, Hasher};
    use std::time::{SystemTime, UNIX_EPOCH};

    // RandomState carries per-process OS entropy; fold in time and a
    // per-call counter so successive calls diverge.
    static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let mut h = RandomState::new().build_hasher();
    h.write_u64(
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0),
    );
    h.write_u64(COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed));
    SeedableRng::seed_from_u64(h.finish())
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn seeded_rngs_are_deterministic() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = SmallRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = r.random_range(10u32..20);
            assert!((10..20).contains(&v));
            let w = r.random_range(-5i64..=5);
            assert!((-5..=5).contains(&w));
            let f = r.random::<f64>();
            assert!((0.0..1.0).contains(&f));
            let g = r.random_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&g));
        }
    }

    #[test]
    fn entropy_rngs_differ() {
        let mut a = super::rng();
        let mut b = super::rng();
        let va: Vec<u64> = (0..8).map(|_| a.random()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.random()).collect();
        assert_ne!(va, vb);
    }
}
