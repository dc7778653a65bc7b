//! Offline stand-in for the subset of the `rand` crate API this workspace
//! uses (the build environment cannot reach crates.io). Deterministic,
//! seedable, and API-compatible for: `StdRng`, `SeedableRng::seed_from_u64`,
//! `Rng::gen`, and `Rng::gen_range` over integer/float ranges.
//!
//! The generator is xorshift64* seeded through splitmix64 — statistically
//! fine for simulation jitter/loss sampling, not cryptographic.

use std::ops::{Range, RangeInclusive};

/// Core pseudo-random source: 64 random bits per call.
pub trait RngCore {
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Construction from seeds.
pub trait SeedableRng: Sized {
    /// Build a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types samplable uniformly from an [`RngCore`] (the `Standard`
/// distribution in real rand).
pub trait Standard: Sized {
    /// Draw one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits → uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Ranges usable with [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draw a value uniformly from the range. Panics on empty ranges.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as u128).wrapping_sub(self.start as u128);
                self.start.wrapping_add((rng.next_u64() as u128 % span) as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as u128).wrapping_sub(lo as u128).wrapping_add(1);
                lo.wrapping_add((rng.next_u64() as u128 % span) as $t)
            }
        }
    )*};
}
impl_sample_range_int!(u8, u16, u32, u64, usize, i32, i64);

impl SampleRange<f64> for Range<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        self.start + f64::sample(rng) * (self.end - self.start)
    }
}

/// The user-facing sampling interface.
pub trait Rng: RngCore {
    /// Draw a value of an inferred type.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Draw uniformly from a range.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Bernoulli draw with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        f64::sample(self) < p
    }
}

impl<T: RngCore> Rng for T {}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic xorshift64* generator (stand-in for rand's `StdRng`).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // splitmix64 to spread low-entropy seeds across the state.
            let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            StdRng {
                state: (z ^ (z >> 31)) | 1,
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let mut x = self.state;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.state = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn distinct_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let v: f64 = r.gen();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut r = StdRng::seed_from_u64(4);
        for _ in 0..1000 {
            let v = r.gen_range(10u64..=20);
            assert!((10..=20).contains(&v));
            let w = r.gen_range(5usize..9);
            assert!((5..9).contains(&w));
        }
    }

    #[test]
    fn gen_range_covers_span() {
        let mut r = StdRng::seed_from_u64(5);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[r.gen_range(0usize..10)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit");
    }
}
