//! Offline stand-in for `proptest`: the strategy/macro subset this
//! workspace uses, with a deterministic per-test case generator and **no
//! shrinking** — a failing case panics with the assertion message directly.
//!
//! Each `proptest!`-generated test derives its RNG seed from the test's
//! name, so runs are reproducible without a registry or persistence files.

#![forbid(unsafe_code)]

/// The deterministic case generator behind every strategy.
pub mod test_runner {
    /// Number of cases each property runs.
    pub const CASES: u64 = 64;

    /// A small deterministic PRNG (SplitMix64).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// A generator seeded from the test's name (FNV-1a), so each
        /// property gets a stable, distinct stream.
        pub fn for_test(name: &str) -> Self {
            let mut hash = 0xcbf2_9ce4_8422_2325u64;
            for byte in name.bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng { state: hash }
        }

        /// The next 64 uniform bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// Uniform in `[0, bound)`.
        pub fn below(&mut self, bound: u64) -> u64 {
            assert!(bound > 0, "empty sampling bound");
            self.next_u64() % bound
        }
    }
}

/// The [`Strategy`](strategy::Strategy) trait and combinators.
pub mod strategy {
    use super::test_runner::TestRng;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { source: self, f }
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        source: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;

        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.source.generate(rng))
        }
    }

    trait SampleRange: Sized {
        fn sample(rng: &mut TestRng, low: Self, high: Self, inclusive: bool) -> Self;
    }

    macro_rules! sample_int {
        ($($t:ty),* $(,)?) => {$(
            impl SampleRange for $t {
                fn sample(rng: &mut TestRng, low: Self, high: Self, inclusive: bool) -> Self {
                    let lo = low as i128;
                    let hi = high as i128 + i128::from(inclusive);
                    assert!(hi > lo, "empty range {low}..{high}");
                    let span = (hi - lo) as u128;
                    (lo + (u128::from(rng.next_u64()) % span) as i128) as $t
                }
            }
        )*};
    }

    sample_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! sample_float {
        ($($t:ty),* $(,)?) => {$(
            impl SampleRange for $t {
                fn sample(rng: &mut TestRng, low: Self, high: Self, _inclusive: bool) -> Self {
                    assert!(low < high, "empty range {low}..{high}");
                    low + (rng.unit_f64() as $t) * (high - low)
                }
            }
        )*};
    }

    sample_float!(f32, f64);

    impl<T: SampleRange + Copy> Strategy for core::ops::Range<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            T::sample(rng, self.start, self.end, false)
        }
    }

    impl<T: SampleRange + Copy> Strategy for core::ops::RangeInclusive<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            T::sample(rng, *self.start(), *self.end(), true)
        }
    }

    macro_rules! tuple_strategy {
        ($($s:ident/$idx:tt),+) => {
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);

                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        };
    }

    tuple_strategy!(A / 0);
    tuple_strategy!(A / 0, B / 1);
    tuple_strategy!(A / 0, B / 1, C / 2);
    tuple_strategy!(A / 0, B / 1, C / 2, D / 3);
    tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4);
    tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4, F / 5);

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;

        fn generate(&self, rng: &mut TestRng) -> S::Value {
            (**self).generate(rng)
        }
    }
}

/// `any::<T>()` — the canonical whole-domain strategy for `T`.
pub mod arbitrary {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    /// Types with a canonical whole-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draws one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arbitrary_int {
        ($($t:ty),* $(,)?) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            // Finite, sign-symmetric, spanning several magnitudes.
            (rng.unit_f64() - 0.5) * 2e6
        }
    }

    /// Strategy returned by [`any`].
    #[derive(Debug)]
    pub struct Any<T>(core::marker::PhantomData<fn() -> T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(core::marker::PhantomData)
    }
}

/// Collection strategies.
pub mod collection {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    /// Strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        min: usize,
        span: usize,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.min + rng.below(self.span.max(1) as u64) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A `Vec` of `element` values with length drawn from `lengths`.
    pub fn vec<S: Strategy>(element: S, lengths: core::ops::Range<usize>) -> VecStrategy<S> {
        assert!(lengths.end > lengths.start, "empty length range");
        VecStrategy {
            element,
            min: lengths.start,
            span: lengths.end - lengths.start,
        }
    }
}

/// `Option` strategies.
pub mod option {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    /// Strategy yielding `Some` with a fixed probability.
    #[derive(Debug, Clone)]
    pub struct OptionStrategy<S> {
        some_probability: f64,
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.unit_f64() < self.some_probability {
                Some(self.inner.generate(rng))
            } else {
                None
            }
        }
    }

    /// `Some` half the time.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        weighted(0.5, inner)
    }

    /// `Some` with probability `some_probability`.
    pub fn weighted<S: Strategy>(some_probability: f64, inner: S) -> OptionStrategy<S> {
        assert!(
            (0.0..=1.0).contains(&some_probability),
            "probability {some_probability} outside [0, 1]"
        );
        OptionStrategy {
            some_probability,
            inner,
        }
    }
}

/// Fixed-size array strategies.
pub mod array {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    /// Strategy for `[S::Value; N]`.
    #[derive(Debug, Clone)]
    pub struct UniformArray<S, const N: usize>(S);

    impl<S: Strategy, const N: usize> Strategy for UniformArray<S, N> {
        type Value = [S::Value; N];

        fn generate(&self, rng: &mut TestRng) -> [S::Value; N] {
            core::array::from_fn(|_| self.0.generate(rng))
        }
    }

    /// A 16-element array of `element` values.
    pub fn uniform16<S: Strategy>(element: S) -> UniformArray<S, 16> {
        UniformArray(element)
    }

    /// A 32-element array of `element` values.
    pub fn uniform32<S: Strategy>(element: S) -> UniformArray<S, 32> {
        UniformArray(element)
    }
}

/// The usual star-import: macros, [`any`](arbitrary::any),
/// [`Strategy`](crate::strategy::Strategy),
/// and the `prop::` namespace.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};

    /// Namespaced strategies, `prop::collection::vec(..)` style.
    pub mod prop {
        pub use crate::array;
        pub use crate::collection;
        pub use crate::option;
    }
}

/// Declares property tests: each `fn` becomes a `#[test]` that draws
/// [`CASES`](test_runner::CASES) inputs from its strategies and runs the
/// body against each.
#[macro_export]
macro_rules! proptest {
    ($(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let mut proptest_rng =
                $crate::test_runner::TestRng::for_test(stringify!($name));
            for _case in 0..$crate::test_runner::CASES {
                $(
                    let $arg = $crate::strategy::Strategy::generate(
                        &($strategy),
                        &mut proptest_rng,
                    );
                )+
                $body
            }
        }
    )*};
}

/// Like `assert!`, inside a property body.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)+) => { assert!($($args)+) };
}

/// Like `assert_eq!`, inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)+) => { assert_eq!($($args)+) };
}

/// Like `assert_ne!`, inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)+) => { assert_ne!($($args)+) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        /// Range strategies respect their bounds for every drawn case.
        #[test]
        fn ranges_stay_in_bounds(
            i in 3u64..9,
            f in -2.0f64..2.0,
            signed in -90i8..-30,
        ) {
            prop_assert!((3..9).contains(&i));
            prop_assert!((-2.0..2.0).contains(&f));
            prop_assert!((-90..-30).contains(&(signed as i64)));
        }

        /// Collections honour their length range; tuples and maps compose.
        #[test]
        fn collections_and_maps_compose(
            v in prop::collection::vec((0u16..4, 0.5f64..40.0), 1..30),
            arr in prop::array::uniform16(any::<u8>()),
            opt in prop::option::weighted(0.7, 0u32..10),
            doubled in (0u32..50).prop_map(|x| x * 2),
        ) {
            prop_assert!(!v.is_empty() && v.len() < 30);
            for (minor, d) in &v {
                prop_assert!(*minor < 4);
                prop_assert!((0.5..40.0).contains(d));
            }
            prop_assert_eq!(arr.len(), 16);
            if let Some(x) = opt {
                prop_assert!(x < 10);
            }
            prop_assert!(doubled % 2 == 0 && doubled < 100);
        }
    }

    #[test]
    fn same_test_name_means_same_stream() {
        use crate::test_runner::TestRng;
        let mut a = TestRng::for_test("alpha");
        let mut b = TestRng::for_test("alpha");
        let mut c = TestRng::for_test("beta");
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(a.next_u64(), c.next_u64());
    }
}
