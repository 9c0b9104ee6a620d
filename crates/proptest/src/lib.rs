//! Offline stand-in for `proptest`.
//!
//! Reimplements the slice of the proptest API this workspace uses:
//! [`strategy::Strategy`] with `prop_map`, range/tuple/`Just`/string-regex
//! strategies, `prop::collection::{vec, btree_map}`, `prop::option::of`,
//! [`arbitrary::any`], the [`proptest!`]/[`prop_oneof!`]/`prop_assert*`
//! macros and [`test_runner::ProptestConfig`].
//!
//! Differences from the real crate, deliberately accepted for an
//! offline build:
//!
//! * **No shrinking.** A failing case reports its index and seed (and
//!   panics with the body's assertion message); it is not minimized.
//! * **Derived seeds.** Each test function derives a fixed seed from its
//!   own name, so runs are deterministic and reproducible without a
//!   persistence file (`*.proptest-regressions` files are ignored).
//! * **Regex strategies** support the character-class subset actually
//!   used here (`[a-c]{1,3}`-style atoms), not full regex syntax.

pub mod test_runner {
    //! Case runner: config and deterministic RNG.

    /// Configuration accepted by `#![proptest_config(..)]`.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases to run per test.
        pub cases: u32,
        /// Accepted for compatibility; shrinking is not implemented.
        pub max_shrink_iters: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig {
                cases: 256,
                max_shrink_iters: 0,
            }
        }
    }

    impl ProptestConfig {
        /// Config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig {
                cases,
                ..ProptestConfig::default()
            }
        }
    }

    /// Deterministic per-case generator (SplitMix64).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// RNG for case `case` of the test whose name hashes to `seed`.
        pub fn for_case(seed: u64, case: u64) -> Self {
            TestRng {
                state: seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform draw from `[0, n)`; `n == 0` returns 0.
        pub fn below(&mut self, n: u64) -> u64 {
            if n == 0 {
                0
            } else {
                self.next_u64() % n
            }
        }

        /// Uniform draw from `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    /// FNV-1a hash of a test name, used as its fixed base seed.
    pub fn seed_for(name: &str) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// Prints the failing case's coordinates when a test body panics, so
    /// failures are reproducible despite the absence of shrinking.
    pub struct CaseGuard {
        /// Case index within the run.
        pub case: u64,
        /// Base seed of the test.
        pub seed: u64,
        /// Test name.
        pub name: &'static str,
    }

    impl Drop for CaseGuard {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!(
                    "proptest stub: test `{}` failed at case {} (seed {:#x})",
                    self.name, self.case, self.seed
                );
            }
        }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use crate::test_runner::TestRng;

    /// A generator of random values (no shrinking in this stub).
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }
    }

    /// Strategy always yielding a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn sample(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// Type-erased sampler used by [`Union`] (what `prop_oneof!` builds).
    pub type Sampler<T> = Box<dyn Fn(&mut TestRng) -> T>;

    /// Weighted choice between same-valued strategies.
    pub struct Union<T> {
        arms: Vec<(u32, Sampler<T>)>,
        total: u64,
    }

    impl<T> Union<T> {
        /// Builds a union from `(weight, sampler)` arms.
        ///
        /// # Panics
        ///
        /// Panics if `arms` is empty or all weights are zero.
        pub fn new(arms: Vec<(u32, Sampler<T>)>) -> Self {
            let total: u64 = arms.iter().map(|&(w, _)| w as u64).sum();
            assert!(total > 0, "prop_oneof! needs at least one weighted arm");
            Union { arms, total }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            let mut pick = rng.below(self.total);
            for (w, sampler) in &self.arms {
                if pick < *w as u64 {
                    return sampler(rng);
                }
                pick -= *w as u64;
            }
            unreachable!("weights sum checked in Union::new")
        }
    }

    macro_rules! impl_int_range {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i128 - lo as i128 + 1) as u64;
                    (lo as i128 + rng.below(span) as i128) as $t
                }
            }
        )*};
    }
    impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for core::ops::Range<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    macro_rules! impl_tuple {
        ($($name:ident : $idx:tt),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        };
    }
    impl_tuple!(A: 0);
    impl_tuple!(A: 0, B: 1);
    impl_tuple!(A: 0, B: 1, C: 2);
    impl_tuple!(A: 0, B: 1, C: 2, D: 3);
    impl_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
    impl_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);
    impl_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6);
    impl_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7);

    // ---- string "regex" strategies ----

    /// One atom of the pattern subset: a set of char ranges repeated
    /// between `min` and `max` times.
    struct Atom {
        ranges: Vec<(char, char)>,
        min: u32,
        max: u32,
    }

    fn parse_pattern(pat: &str) -> Vec<Atom> {
        let mut chars = pat.chars().peekable();
        let mut atoms = Vec::new();
        while let Some(c) = chars.next() {
            let ranges = if c == '[' {
                let mut ranges = Vec::new();
                let mut prev: Option<char> = None;
                loop {
                    let c = chars
                        .next()
                        .unwrap_or_else(|| panic!("unterminated class in pattern {pat:?}"));
                    if c == ']' {
                        if let Some(p) = prev {
                            ranges.push((p, p));
                        }
                        break;
                    }
                    if c == '-' && prev.is_some() && chars.peek() != Some(&']') {
                        let hi = chars.next().expect("range end");
                        ranges.push((prev.take().expect("range start"), hi));
                    } else {
                        if let Some(p) = prev.replace(c) {
                            ranges.push((p, p));
                        }
                    }
                }
                ranges
            } else {
                let lit = if c == '\\' {
                    chars
                        .next()
                        .unwrap_or_else(|| panic!("dangling escape in pattern {pat:?}"))
                } else {
                    c
                };
                vec![(lit, lit)]
            };
            let (min, max) = if chars.peek() == Some(&'{') {
                chars.next();
                let mut spec = String::new();
                for c in chars.by_ref() {
                    if c == '}' {
                        break;
                    }
                    spec.push(c);
                }
                match spec.split_once(',') {
                    Some((lo, hi)) => (
                        lo.parse().expect("repeat lower bound"),
                        hi.parse().expect("repeat upper bound"),
                    ),
                    None => {
                        let n = spec.parse().expect("repeat count");
                        (n, n)
                    }
                }
            } else {
                (1, 1)
            };
            atoms.push(Atom { ranges, min, max });
        }
        atoms
    }

    impl Strategy for &'static str {
        type Value = String;
        fn sample(&self, rng: &mut TestRng) -> String {
            let mut out = String::new();
            for atom in parse_pattern(self) {
                let reps = atom.min + rng.below((atom.max - atom.min + 1) as u64) as u32;
                let total: u64 = atom
                    .ranges
                    .iter()
                    .map(|&(lo, hi)| hi as u64 - lo as u64 + 1)
                    .sum();
                for _ in 0..reps {
                    let mut pick = rng.below(total);
                    for &(lo, hi) in &atom.ranges {
                        let span = hi as u64 - lo as u64 + 1;
                        if pick < span {
                            out.push(
                                char::from_u32(lo as u32 + pick as u32)
                                    .expect("range within valid chars"),
                            );
                            break;
                        }
                        pick -= span;
                    }
                }
            }
            out
        }
    }
}

pub mod arbitrary {
    //! `any::<T>()` for primitive types.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Marker strategy for "any value of `T`"; see [`any`].
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Any<T>(std::marker::PhantomData<T>);

    /// Uniform strategy over `T`'s whole domain.
    pub fn any<T>() -> Any<T>
    where
        Any<T>: Strategy,
    {
        Any(std::marker::PhantomData)
    }

    macro_rules! impl_any_int {
        ($($t:ty),*) => {$(
            impl Strategy for Any<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    impl_any_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Any<bool> {
        type Value = bool;
        fn sample(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Strategy for Any<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            // Finite values spread over a wide range; avoids NaN/inf so
            // model-based tests don't trip on exotic bit patterns.
            (rng.unit_f64() - 0.5) * 2e12
        }
    }
}

pub mod collection {
    //! Collection strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::collections::BTreeMap;

    /// Size specification for collection strategies.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        min: usize,
        /// Exclusive upper bound.
        max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n + 1 }
        }
    }
    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max: r.end,
            }
        }
    }
    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                min: *r.start(),
                max: *r.end() + 1,
            }
        }
    }

    impl SizeRange {
        fn sample(&self, rng: &mut TestRng) -> usize {
            self.min + rng.below((self.max - self.min) as u64) as usize
        }
    }

    /// Strategy for `Vec<S::Value>`; see [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates vectors whose length falls in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.size.sample(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// Strategy for `BTreeMap<K::Value, V::Value>`; see [`btree_map`].
    pub struct BTreeMapStrategy<K, V> {
        key: K,
        value: V,
        size: SizeRange,
    }

    /// Generates maps with *up to* the sampled number of entries
    /// (duplicate keys collapse, as in real proptest's minimum-size
    /// caveat).
    pub fn btree_map<K, V>(key: K, value: V, size: impl Into<SizeRange>) -> BTreeMapStrategy<K, V>
    where
        K: Strategy,
        V: Strategy,
        K::Value: Ord,
    {
        BTreeMapStrategy {
            key,
            value,
            size: size.into(),
        }
    }

    impl<K, V> Strategy for BTreeMapStrategy<K, V>
    where
        K: Strategy,
        V: Strategy,
        K::Value: Ord,
    {
        type Value = BTreeMap<K::Value, V::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.size.sample(rng);
            let mut out = BTreeMap::new();
            for _ in 0..n {
                out.insert(self.key.sample(rng), self.value.sample(rng));
            }
            out
        }
    }
}

pub mod option {
    //! `Option` strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy for `Option<S::Value>`; see [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    /// `None` one time in four, `Some(inner)` otherwise (mirroring real
    /// proptest's default 75% `Some` weighting).
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.inner.sample(rng))
            }
        }
    }
}

pub mod prelude {
    //! The glob-import surface: `use proptest::prelude::*;`.

    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// The `prop::` namespace (`prop::collection::vec`, …).
    pub mod prop {
        pub use crate::{collection, option};
    }
}

/// Weighted (`w => strategy`) or uniform choice among strategies with a
/// common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {{
        $crate::strategy::Union::new(vec![
            $({
                let strat = $strat;
                (
                    $weight as u32,
                    Box::new(move |rng: &mut $crate::test_runner::TestRng| {
                        $crate::strategy::Strategy::sample(&strat, rng)
                    }) as $crate::strategy::Sampler<_>,
                )
            }),+
        ])
    }};
    ($($strat:expr),+ $(,)?) => {
        $crate::prop_oneof!($(1 => $strat),+)
    };
}

/// `assert!` under a name the proptest API exposes.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// `assert_eq!` under a name the proptest API exposes.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// `assert_ne!` under a name the proptest API exposes.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Declares property tests: each `fn name(arg in strategy, ..) { body }`
/// becomes a test running `config.cases` sampled cases.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_fns! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

/// Internal muncher for [`proptest!`]; expands one test fn at a time.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ( ($config:expr) ) => {};
    (
        ($config:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config = $config;
            let seed = $crate::test_runner::seed_for(concat!(
                module_path!(), "::", stringify!($name)
            ));
            for case in 0..config.cases as u64 {
                let _guard = $crate::test_runner::CaseGuard {
                    case,
                    seed,
                    name: stringify!($name),
                };
                let mut rng = $crate::test_runner::TestRng::for_case(seed, case);
                $(
                    let $arg = $crate::strategy::Strategy::sample(&$strat, &mut rng);
                )+
                $body
            }
        }
        $crate::__proptest_fns! { ($config) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_unions_sample_in_bounds() {
        let mut rng = crate::test_runner::TestRng::for_case(1, 0);
        let s = prop_oneof![3 => 0u64..10, 1 => 90u64..100];
        let mut low = 0;
        for _ in 0..1_000 {
            let v = s.sample(&mut rng);
            assert!(v < 10 || (90u64..100).contains(&v));
            if v < 10 {
                low += 1;
            }
        }
        assert!(low > 600, "weighting skews toward the first arm: {low}");
    }

    #[test]
    fn string_pattern_subset() {
        let mut rng = crate::test_runner::TestRng::for_case(2, 0);
        for _ in 0..200 {
            let s = "k[0-9]{1,2}".sample(&mut rng);
            assert!(s.starts_with('k') && (2..=3).contains(&s.len()), "{s:?}");
            assert!(s[1..].bytes().all(|b| b.is_ascii_digit()));
            let t = "[a-c]{1,3}".sample(&mut rng);
            assert!((1..=3).contains(&t.len()));
            assert!(t.bytes().all(|b| (b'a'..=b'c').contains(&b)));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_runs_cases(v in prop::collection::vec(any::<u8>(), 0..5), flag in any::<bool>()) {
            prop_assert!(v.len() < 5);
            let _ = flag;
        }

        #[test]
        fn tuples_and_maps(pair in (0i64..4, prop::option::of(1u64..9))) {
            prop_assert!((0..4).contains(&pair.0));
            if let Some(x) = pair.1 {
                prop_assert!((1..9).contains(&x));
            }
        }
    }
}
