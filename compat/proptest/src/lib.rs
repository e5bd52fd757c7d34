//! Hermetic stand-in for the `proptest` crate.
//!
//! The build environment has no crate registry, so this crate reimplements
//! the subset of proptest the workspace's property tests use: the
//! [`Strategy`] trait with `prop_map`/`prop_flat_map`, range and tuple
//! strategies, [`collection::vec`], [`Just`], weighted [`prop_oneof!`],
//! [`ProptestConfig::with_cases`], and the [`proptest!`] /
//! [`prop_assert!`] / [`prop_assert_eq!`] macros.
//!
//! Semantics: each test runs `cases` iterations against a deterministic
//! per-test RNG (seeded from the test name, overridable with
//! `PROPTEST_SEED`). There is **no shrinking** — a failure reports the case
//! number and message only. That trades minimal counterexamples for zero
//! dependencies; the seed makes failures reproducible.

/// Runner internals: the deterministic RNG handed to strategies.
pub mod test_runner {
    /// xoshiro256++ seeded via SplitMix64 from a test-name hash.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl TestRng {
        pub fn from_seed(seed: u64) -> Self {
            let mut sm = seed;
            TestRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }

        /// Deterministic per-test seed: FNV-1a of the test name, XORed with
        /// `PROPTEST_SEED` when set (for reproducing CI failures locally).
        pub fn for_test(name: &str) -> Self {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            if let Ok(s) = std::env::var("PROPTEST_SEED") {
                if let Ok(extra) = s.trim().parse::<u64>() {
                    h ^= extra;
                }
            }
            Self::from_seed(h)
        }

        pub fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }

        /// Uniform in `[0, 1)`, 53-bit precision.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// Uniform in `[0, bound)`.
        pub fn below(&mut self, bound: u64) -> u64 {
            assert!(bound > 0, "cannot sample below zero bound");
            self.next_u64() % bound
        }
    }
}

use test_runner::TestRng;

/// Failure raised by `prop_assert!` family; carried as `Err` to the runner.
#[derive(Debug)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

/// Mirror of `proptest::prelude::ProptestConfig` (cases only).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A generator of random values. Object-safe: combinators are `Self: Sized`.
pub trait Strategy {
    type Value;

    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }

    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> S::Value {
        (**self).sample(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> S::Value {
        (**self).sample(rng)
    }
}

/// `prop_map` adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// `prop_flat_map` adapter.
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
    type Value = T::Value;
    fn sample(&self, rng: &mut TestRng) -> T::Value {
        (self.f)(self.inner.sample(rng)).sample(rng)
    }
}

/// Constant strategy, mirror of `proptest::strategy::Just`.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! float_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let x = self.start + rng.unit_f64() as $t * (self.end - self.start);
                if x >= self.end {
                    <$t>::from_bits(self.end.to_bits() - 1)
                } else {
                    x
                }
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty strategy range");
                lo + rng.unit_f64() as $t * (hi - lo)
            }
        }
    )*};
}
float_strategies!(f32, f64);

macro_rules! int_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty strategy range");
                let span = (hi as i128 - lo as i128) as u64;
                (lo as i128 + (rng.next_u64() % (span + 1)) as i128) as $t
            }
        }
    )*};
}
int_strategies!(usize, isize, u64, i64, u32, i32, u16, i16, u8, i8);

macro_rules! tuple_strategies {
    ($(($($name:ident),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    )*};
}
tuple_strategies! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
}

/// Weighted union used by `prop_oneof!`.
pub struct Union<T> {
    arms: Vec<(u32, BoxedStrategy<T>)>,
}

impl<T> Union<T> {
    pub fn new_weighted(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        assert!(arms.iter().any(|(w, _)| *w > 0), "all weights are zero");
        Union { arms }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        let total: u64 = self.arms.iter().map(|(w, _)| *w as u64).sum();
        let mut pick = rng.below(total);
        for (w, s) in &self.arms {
            if pick < *w as u64 {
                return s.sample(rng);
            }
            pick -= *w as u64;
        }
        unreachable!("weighted pick out of range")
    }
}

pub mod collection {
    use super::{Strategy, TestRng};

    /// Size spec for [`vec()`]: an exact length or a half-open range.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end() + 1,
            }
        }
    }

    /// Mirror of `proptest::collection::vec`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = if self.size.hi - self.size.lo <= 1 {
                self.size.lo
            } else {
                self.size.lo + rng.below((self.size.hi - self.size.lo) as u64) as usize
            };
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Everything a property-test file needs, mirror of `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_oneof, proptest, BoxedStrategy, Just, ProptestConfig,
        Strategy, TestCaseError,
    };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::Union::new_weighted(vec![
            $(($weight as u32, $crate::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new_weighted(vec![
            $((1u32, $crate::Strategy::boxed($strat))),+
        ])
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{:?}` == `{:?}`",
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, $($fmt)+);
    }};
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { config = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { config = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (config = ($cfg:expr);) => {};
    (config = ($cfg:expr);
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::test_runner::TestRng::for_test(stringify!($name));
            for case in 0..config.cases {
                $(let $pat = $crate::Strategy::sample(&($strat), &mut rng);)+
                let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                    (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                if let ::std::result::Result::Err(e) = outcome {
                    panic!(
                        "proptest case {}/{} failed: {} (set PROPTEST_SEED to vary sampling)",
                        case + 1,
                        config.cases,
                        e
                    );
                }
            }
        }
        $crate::__proptest_items! { config = ($cfg); $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn union_respects_weights_roughly() {
        let s = prop_oneof![3 => Just(1u32), 1 => Just(0u32)];
        let mut rng = crate::test_runner::TestRng::from_seed(11);
        let ones: u32 = (0..10_000).map(|_| s.sample(&mut rng)).sum();
        let rate = ones as f64 / 10_000.0;
        assert!((rate - 0.75).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn vec_strategy_honours_exact_and_ranged_sizes() {
        let mut rng = crate::test_runner::TestRng::from_seed(2);
        let exact = crate::collection::vec(0.0f32..1.0, 7usize);
        assert_eq!(exact.sample(&mut rng).len(), 7);
        let ranged = crate::collection::vec(0.0f32..1.0, 1..30);
        for _ in 0..100 {
            let v = ranged.sample(&mut rng);
            assert!((1..30).contains(&v.len()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_binds_patterns_and_ranges((a, b) in ((0usize..10), (0usize..10)), x in 0.0f64..1.0) {
            prop_assert!(a < 10 && b < 10);
            prop_assert!((0.0..1.0).contains(&x));
        }

        #[test]
        fn flat_map_links_sizes(v in (1usize..5).prop_flat_map(|n| crate::collection::vec(Just(n), n))) {
            prop_assert!(!v.is_empty());
            prop_assert_eq!(v.len(), v[0]);
        }
    }
}
