//! Offline stand-in for the `proptest` crate.
//!
//! This workspace builds in a hermetic container with no access to the
//! crates.io registry, so the real `proptest` cannot be fetched. This
//! crate provides an API-compatible subset sufficient for the property
//! tests in this repository:
//!
//! * the [`proptest!`] macro (with optional `#![proptest_config(..)]`),
//! * the [`strategy::Strategy`] trait with `prop_map`,
//! * range strategies over the primitive integer types,
//! * tuple strategies up to arity 6,
//! * [`collection::vec`],
//! * [`prop_assert!`] / [`prop_assert_eq!`].
//!
//! Generation is a deterministic splitmix64 stream seeded from the test
//! name, so failures are reproducible run-to-run. There is no shrinking:
//! a failing case panics with the ordinary assertion message.

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use crate::test_runner::Rng;

    /// A generator of random values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value from the strategy.
        fn generate(&self, rng: &mut Rng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }
    }

    /// The result of [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;

        fn generate(&self, rng: &mut Rng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;

        fn generate(&self, rng: &mut Rng) -> S::Value {
            (**self).generate(rng)
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut Rng) -> T {
            self.0.clone()
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut Rng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    // Widen to i128 so `0u64..u64::MAX`-style spans cannot
                    // overflow.
                    let lo = self.start as i128;
                    let span = (self.end as i128) - lo;
                    (lo + (rng.next_u64() as i128).rem_euclid(span)) as $t
                }
            }

            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut Rng) -> $t {
                    let lo = *self.start() as i128;
                    let span = (*self.end() as i128) - lo + 1;
                    (lo + (rng.next_u64() as i128).rem_euclid(span)) as $t
                }
            }
        )*};
    }

    int_range_strategy!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

    macro_rules! tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);

                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut Rng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }

    tuple_strategy!(A);
    tuple_strategy!(A, B);
    tuple_strategy!(A, B, C);
    tuple_strategy!(A, B, C, D);
    tuple_strategy!(A, B, C, D, E);
    tuple_strategy!(A, B, C, D, E, F);
}

pub mod collection {
    //! Collection strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::Rng;

    /// Strategy for `Vec`s with lengths drawn from `len` and elements
    /// from `element`.
    pub fn vec<S: Strategy>(element: S, len: core::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    /// The result of [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        len: core::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut Rng) -> Vec<S::Value> {
            let n = self.len.generate(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod test_runner {
    //! Deterministic random stream and per-test configuration.

    /// splitmix64: tiny, fast, and plenty for test-case generation.
    #[derive(Debug, Clone)]
    pub struct Rng {
        state: u64,
    }

    impl Rng {
        /// Seeds the stream from a test name (deterministic per test).
        pub fn from_name(name: &str) -> Rng {
            let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            Rng { state: h }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    /// Per-`proptest!` block configuration.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases to run per test.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            ProptestConfig { cases: 128 }
        }
    }
}

pub mod prelude {
    //! One-stop import mirroring `proptest::prelude`.
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, proptest};
}

/// Asserts a condition inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Declares property tests: each `fn name(pat in strategy, ...)` runs its
/// body over `cases` random draws.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            ($crate::test_runner::ProptestConfig::default()); $($rest)*
        }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr); $(
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),* $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $cfg;
            let mut __rng = $crate::test_runner::Rng::from_name(stringify!($name));
            #[allow(unused_parens)]
            let (__strat) = ($($strat),*);
            for __case in 0..__config.cases {
                let ($($pat),*) =
                    $crate::strategy::Strategy::generate(&__strat, &mut __rng);
                $body
            }
        }
    )*};
}
