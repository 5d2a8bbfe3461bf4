//! Offline stand-in for `proptest`.
//!
//! The container this workspace builds in has no crates.io access, so
//! the property tests run against this API-compatible subset instead of
//! the real crate. Differences from upstream, deliberately accepted:
//!
//! * sampling is a deterministic splitmix64 stream seeded from the test
//!   name — every run replays the same cases (reproducible by design);
//! * there is **no shrinking**: a failing case reports the assertion
//!   message and case number, not a minimal counterexample;
//! * `ProptestConfig` has a single field (`cases`); the in-tree tests
//!   build it with `ProptestConfig::with_cases(n)`, as upstream does;
//! * string strategies accept only the `[charset]{min,max}` pattern
//!   shape the in-tree tests use.
//!
//! The strategy algebra that IS supported: integer ranges, `any::<T>()`
//! for ints/bool, tuples of strategies, `Just`, `prop_map`,
//! `prop_oneof!` (weighted and unweighted), `collection::vec`,
//! `collection::hash_set`, and `[..]{m,n}` string patterns.

pub mod test_runner {
    /// Deterministic splitmix64 RNG; the whole stub samples from this.
    pub struct TestRng(u64);

    impl TestRng {
        /// Seed from a test name (FNV-1a) so each test gets a distinct,
        /// stable stream.
        pub fn deterministic(name: &str) -> Self {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in name.bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
            TestRng(h | 1)
        }

        pub fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, n)`; returns 0 when `n == 0`.
        pub fn below(&mut self, n: u64) -> u64 {
            if n == 0 {
                0
            } else {
                self.next_u64() % n
            }
        }
    }

    /// Runner configuration. Upstream has many more knobs; the offline
    /// stub keeps only the one the tests set.
    pub struct ProptestConfig {
        /// Number of cases each `#[test]` inside `proptest!` runs.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// The default configuration with `cases` overridden.
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self { cases: 64 }
        }
    }

    /// A failed `prop_assert!` — carried out of the case body as `Err`.
    #[derive(Debug)]
    pub struct TestCaseError(String);

    impl TestCaseError {
        pub fn fail(msg: impl Into<String>) -> Self {
            Self(msg.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }

    pub type TestCaseResult = Result<(), TestCaseError>;
}

pub mod strategy {
    use crate::test_runner::TestRng;

    /// A value generator. Object-safe core (`sample`) plus sized
    /// combinators, mirroring the subset of upstream's `Strategy` the
    /// workspace uses.
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

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(self))
        }
    }

    pub struct BoxedStrategy<T>(Box<dyn Strategy<Value = T>>);

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            self.0.sample(rng)
        }
    }

    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn sample(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// Always yields a clone of the given value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Weighted union over same-valued strategies (`prop_oneof!`).
    pub struct Union<T> {
        arms: Vec<(u32, BoxedStrategy<T>)>,
    }

    impl<T> Union<T> {
        pub fn new_weighted(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Self { arms }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            let total: u64 = self.arms.iter().map(|(w, _)| *w as u64).sum();
            let mut pick = rng.below(total.max(1));
            for (w, s) in &self.arms {
                if pick < *w as u64 {
                    return s.sample(rng);
                }
                pick -= *w as u64;
            }
            self.arms[self.arms.len() - 1].1.sample(rng)
        }
    }

    macro_rules! int_strategy {
        ($($t:ty),* $(,)?) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let off = (rng.next_u64() as u128) % span;
                    (self.start as i128 + off as i128) as $t
                }
            }

            impl crate::arbitrary::Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl crate::arbitrary::Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! tuple_strategy {
        ($($name:ident : $idx:tt),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        };
    }

    tuple_strategy!(A: 0, B: 1);
    tuple_strategy!(A: 0, B: 1, C: 2);
    tuple_strategy!(A: 0, B: 1, C: 2, D: 3);
    tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4);
    tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

    /// `"[a-z0-9_.-]{0,32}"`-style string pattern strategy.
    impl Strategy for &'static str {
        type Value = String;
        fn sample(&self, rng: &mut TestRng) -> String {
            crate::string::sample_pattern(self, rng)
        }
    }
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical full-range strategy (`any::<T>()`).
    pub trait Arbitrary {
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    pub struct Any<T>(PhantomData<T>);

    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::collections::HashSet;
    use std::hash::Hash;
    use std::ops::Range;

    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// `Vec` of `size.start..size.end` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + rng.below(span.max(1)) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    pub struct HashSetStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// `HashSet` of *distinct* elements; gives up on a size target when
    /// the element domain is too small to reach it (like upstream, the
    /// set may come out smaller than requested in that case).
    pub fn hash_set<S>(element: S, size: Range<usize>) -> HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: Eq + Hash,
    {
        HashSetStrategy { element, size }
    }

    impl<S> Strategy for HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: Eq + Hash,
    {
        type Value = HashSet<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> HashSet<S::Value> {
            let span = (self.size.end - self.size.start) as u64;
            let target = self.size.start + rng.below(span.max(1)) as usize;
            let mut out = HashSet::new();
            let mut attempts = 0usize;
            while out.len() < target && attempts < 64 * (target + 1) {
                out.insert(self.element.sample(rng));
                attempts += 1;
            }
            out
        }
    }
}

pub mod string {
    use crate::test_runner::TestRng;

    /// Generate a string for a `[charset]{min,max}` pattern. Supports
    /// literal chars and `a-z` ranges inside the class (a trailing `-`
    /// is literal). Any other pattern shape falls back to stripping the
    /// regex metacharacters and returning the remainder verbatim.
    pub fn sample_pattern(pattern: &str, rng: &mut TestRng) -> String {
        match parse(pattern) {
            Some((chars, min, max)) if !chars.is_empty() => {
                let len = min + rng.below((max - min + 1) as u64) as usize;
                (0..len)
                    .map(|_| chars[rng.below(chars.len() as u64) as usize])
                    .collect()
            }
            _ => pattern
                .chars()
                .filter(|c| c.is_alphanumeric() || matches!(c, '_' | '.' | '-' | ' '))
                .collect(),
        }
    }

    fn parse(pattern: &str) -> Option<(Vec<char>, usize, usize)> {
        let rest = pattern.strip_prefix('[')?;
        let (class, rest) = rest.split_once(']')?;
        let counts = rest.strip_prefix('{')?.strip_suffix('}')?;
        let (min, max) = counts.split_once(',')?;
        let (min, max) = (min.trim().parse().ok()?, max.trim().parse().ok()?);
        if min > max {
            return None;
        }
        let mut chars = Vec::new();
        let cs: Vec<char> = class.chars().collect();
        let mut i = 0;
        while i < cs.len() {
            if i + 2 < cs.len() && cs[i + 1] == '-' {
                for c in cs[i]..=cs[i + 2] {
                    chars.push(c);
                }
                i += 3;
            } else {
                chars.push(cs[i]);
                i += 1;
            }
        }
        Some((chars, min, max))
    }
}

pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestCaseResult};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Declare property tests. Each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` that samples its strategies `config.cases` times
/// and runs the body; `prop_assert*!` failures abort the case with the
/// case number (no shrinking in the offline stub).
#[macro_export]
macro_rules! proptest {
    (@run ($cfg:expr)) => {};
    (@run ($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let mut rng = $crate::test_runner::TestRng::deterministic(concat!(
                module_path!(), "::", stringify!($name)
            ));
            for case in 0..config.cases {
                $(let $arg = $crate::strategy::Strategy::sample(&($strat), &mut rng);)+
                let result: $crate::test_runner::TestCaseResult = (|| {
                    $body
                    Ok(())
                })();
                if let Err(e) = result {
                    panic!("proptest case {case} failed: {e}");
                }
            }
        }
        $crate::proptest!(@run ($cfg) $($rest)*);
    };
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@run ($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@run ($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

/// Assert inside a `proptest!` body; failure aborts the current case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Equality assert inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: `{:?}` == `{:?}`",
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "{}: `{:?}` != `{:?}`",
            format!($($fmt)+),
            l,
            r
        );
    }};
}

/// Inequality assert inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l != r,
            "assertion failed: `{:?}` != `{:?}`",
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l != r,
            "{}: `{:?}` == `{:?}`",
            format!($($fmt)+),
            l,
            r
        );
    }};
}

/// Choose between strategies, optionally weighted (`w => strat`).
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new_weighted(vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new_weighted(vec![
            $((1u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::deterministic("ranges");
        for _ in 0..1000 {
            let v = (10u64..20).sample(&mut rng);
            assert!((10..20).contains(&v));
            let s = (0usize..3).sample(&mut rng);
            assert!(s < 3);
            let i = (-5i64..5).sample(&mut rng);
            assert!((-5..5).contains(&i));
        }
    }

    #[test]
    fn string_pattern_matches_class() {
        let mut rng = TestRng::deterministic("strings");
        for _ in 0..200 {
            let s = "[a-z0-9_.-]{0,32}".sample(&mut rng);
            assert!(s.len() <= 32);
            assert!(s
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "_.-".contains(c)));
        }
    }

    #[test]
    fn oneof_weights_and_collections() {
        let mut rng = TestRng::deterministic("oneof");
        let strat = prop_oneof![2 => Just(1u8), 1 => Just(2u8)];
        let mut seen = [0u32; 3];
        for _ in 0..300 {
            seen[strat.sample(&mut rng) as usize] += 1;
        }
        assert!(seen[1] > 0 && seen[2] > 0);
        let v = crate::collection::vec(0u64..5, 1..4).sample(&mut rng);
        assert!((1..4).contains(&v.len()));
        let hs = crate::collection::hash_set(any::<u8>(), 0..4).sample(&mut rng);
        assert!(hs.len() < 4);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The macro itself: multiple args, tuples, map, doc comment.
        #[test]
        fn macro_smoke(
            a in 0u64..100,
            pair in (0usize..4, any::<bool>()).prop_map(|(i, b)| (i, b)),
        ) {
            prop_assert!(a < 100);
            prop_assert!(pair.0 < 4, "index {} out of range", pair.0);
            prop_assert_eq!(pair.0, pair.0);
            prop_assert_ne!(a, 100);
        }
    }
}
