//! Offline stand-in for the `rand` crate (the 0.8 API subset this
//! workspace uses), in the same spirit as the `rand_distr_normal` shim in
//! `roomsense-radio`: the build environment has no crate registry, so the
//! workspace vendors the small surface it needs.
//!
//! The generator behind [`rngs::StdRng`] is xoshiro256++ seeded through
//! SplitMix64 — not the upstream ChaCha stream, but a high-quality,
//! deterministic PRNG with the same construction API. Everything in this
//! repository treats the RNG as an opaque seeded stream, so only stream
//! *stability within this workspace* matters, and that is guaranteed by
//! these implementations being pinned here.

#![forbid(unsafe_code)]

/// The core of every generator: a source of uniform raw bits.
pub trait RngCore {
    /// The next 32 uniform bits.
    fn next_u32(&mut self) -> u32;
    /// The next 64 uniform bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with uniform bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    // 53 uniform mantissa bits in [0, 1).
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// User-facing convenience methods, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// A uniform value of `T` (see [`distributions::Standard`]).
    fn gen<T>(&mut self) -> T
    where
        distributions::Standard: distributions::Distribution<T>,
    {
        distributions::Distribution::sample(&distributions::Standard, self)
    }

    /// A uniform value in the given range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        unit_f64(self) < p
    }

    /// Samples a value from `distr`.
    fn sample<T, D: distributions::Distribution<T>>(&mut self, distr: D) -> T {
        distr.sample(self)
    }

    /// An iterator of samples from `distr`, consuming the generator.
    fn sample_iter<T, D: distributions::Distribution<T>>(
        self,
        distr: D,
    ) -> distributions::DistIter<D, Self, T>
    where
        Self: Sized,
    {
        distributions::DistIter {
            distr,
            rng: self,
            _marker: core::marker::PhantomData,
        }
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// A range that [`Rng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draws one uniform value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Types with a uniform-in-range sampler.
pub trait SampleUniform: Sized + PartialOrd {
    /// Uniform draw from `[low, high)` (or `[low, high]` when `inclusive`).
    fn sample_in<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self, inclusive: bool) -> Self;
}

macro_rules! uniform_int {
    ($($t:ty),* $(,)?) => {$(
        impl SampleUniform for $t {
            fn sample_in<R: RngCore + ?Sized>(
                rng: &mut R,
                low: Self,
                high: Self,
                inclusive: bool,
            ) -> Self {
                let lo = low as i128;
                let hi = high as i128 + i128::from(inclusive);
                assert!(hi > lo, "cannot sample from empty range {low}..{high}");
                let span = (hi - lo) as u128;
                (lo + ((rng.next_u64() as u128) % span) as i128) as $t
            }
        }
    )*};
}

uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! uniform_float {
    ($($t:ty),* $(,)?) => {$(
        impl SampleUniform for $t {
            fn sample_in<R: RngCore + ?Sized>(
                rng: &mut R,
                low: Self,
                high: Self,
                _inclusive: bool,
            ) -> Self {
                assert!(low < high || (_inclusive && low <= high),
                        "cannot sample from empty range {low}..{high}");
                low + (unit_f64(rng) as $t) * (high - low)
            }
        }
    )*};
}

uniform_float!(f32, f64);

impl<T: SampleUniform> SampleRange<T> for core::ops::Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_in(rng, self.start, self.end, false)
    }
}

impl<T: SampleUniform> SampleRange<T> for core::ops::RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (start, end) = self.into_inner();
        T::sample_in(rng, start, end, true)
    }
}

/// Seedable construction.
pub trait SeedableRng: Sized {
    /// The seed type (raw state bytes).
    type Seed;

    /// Constructs the generator from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Constructs the generator from a 64-bit seed (via SplitMix64).
    fn seed_from_u64(state: u64) -> Self;
}

pub(crate) fn split_mix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Concrete generators.
pub mod rngs {
    use super::{split_mix64, RngCore, SeedableRng};

    /// The workspace's standard generator: xoshiro256++.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl StdRng {
        fn step(&mut self) -> u64 {
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

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            (self.step() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            self.step()
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(8) {
                let bytes = self.step().to_le_bytes();
                chunk.copy_from_slice(&bytes[..chunk.len()]);
            }
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (word, chunk) in s.iter_mut().zip(seed.chunks(8)) {
                let mut bytes = [0u8; 8];
                bytes.copy_from_slice(chunk);
                *word = u64::from_le_bytes(bytes);
            }
            if s == [0, 0, 0, 0] {
                // The all-zero state is a fixed point; derive a non-zero one.
                return StdRng::seed_from_u64(0);
            }
            StdRng { s }
        }

        fn seed_from_u64(state: u64) -> Self {
            let mut sm = state;
            StdRng {
                s: [
                    split_mix64(&mut sm),
                    split_mix64(&mut sm),
                    split_mix64(&mut sm),
                    split_mix64(&mut sm),
                ],
            }
        }
    }
}

/// Distributions and the [`Standard`](distributions::Standard) uniform distribution.
pub mod distributions {
    use super::{unit_f64, RngCore};

    /// A sampling distribution over `T`.
    pub trait Distribution<T> {
        /// Draws one value.
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
    }

    /// The "natural" uniform distribution: full range for integers,
    /// `[0, 1)` for floats.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Standard;

    macro_rules! standard_int {
        ($($t:ty),* $(,)?) => {$(
            impl Distribution<$t> for Standard {
                fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Distribution<f64> for Standard {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
            unit_f64(rng)
        }
    }

    impl Distribution<f32> for Standard {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f32 {
            unit_f64(rng) as f32
        }
    }

    impl Distribution<bool> for Standard {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// Iterator returned by [`Rng::sample_iter`](super::Rng::sample_iter).
    #[derive(Debug)]
    pub struct DistIter<D, R, T> {
        pub(crate) distr: D,
        pub(crate) rng: R,
        pub(crate) _marker: core::marker::PhantomData<fn() -> T>,
    }

    impl<D: Distribution<T>, R: RngCore, T> Iterator for DistIter<D, R, T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            Some(self.distr.sample(&mut self.rng))
        }
    }
}

/// Sequence helpers.
pub mod seq {
    use super::{Rng, RngCore};

    /// Random operations on slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Fisher–Yates shuffle in place.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

        /// A uniformly random element, or `None` if empty.
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..64 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(a.gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn unit_floats_stay_in_range_and_vary() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut distinct = std::collections::BTreeSet::new();
        for _ in 0..1000 {
            let x = rng.gen::<f64>();
            assert!((0.0..1.0).contains(&x));
            distinct.insert((x * 1e6) as u64);
        }
        assert!(distinct.len() > 900, "poor dispersion: {}", distinct.len());
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..1000 {
            let v = rng.gen_range(3..9);
            assert!((3..9).contains(&v));
            let f = rng.gen_range(-2.0f64..2.0);
            assert!((-2.0..2.0).contains(&f));
            let i = rng.gen_range(0..=4u16);
            assert!(i <= 4);
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2700..3300).contains(&hits), "got {hits}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        use super::seq::SliceRandom;
        let mut rng = StdRng::seed_from_u64(2);
        let mut v: Vec<usize> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle left the identity order");
    }
}
