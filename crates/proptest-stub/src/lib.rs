//! Offline drop-in subset of the `proptest` crate.
//!
//! The workspace must build and test with **no registry access**, so this
//! crate reimplements exactly the slice of the proptest API our property
//! tests use: `Strategy` with `prop_map`/`prop_filter`/`prop_recursive`,
//! `BoxedStrategy`, integer/float range strategies, tuples, `Just`,
//! `any::<T>()`, `collection::{vec, btree_map}`, `array::uniform3`,
//! `option::of`, and the `proptest!`/`prop_oneof!`/`prop_compose!`/
//! `prop_assert*!` macros.
//!
//! Generation is *deterministic*: each test case derives its RNG seed from
//! the test name and case index, so failures reproduce across runs. There
//! is no shrinking — the failing case is printed instead.

#![forbid(unsafe_code)]

use std::rc::Rc;

/// Deterministic splitmix64 generator; the only entropy source.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed the generator for one named test case.
    pub fn for_case(test: &str, case: u32) -> Self {
        // FNV-1a over the test name, mixed with the case index.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        TestRng {
            state: h ^ ((case as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Error carried out of a failing test case body (`prop_assert*!`).
#[derive(Debug, Clone)]
pub struct TestCaseError {
    msg: String,
}

impl TestCaseError {
    /// Build a failure with the given message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError { msg: msg.into() }
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for TestCaseError {}

/// Per-block configuration; only `cases` is honoured.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each test runs.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// Config running `cases` random cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Drive one property: generate-and-check `config.cases` times.
/// Called by the expansion of [`proptest!`]; panics on the first failure.
pub fn run_cases(
    config: &ProptestConfig,
    name: &str,
    mut case: impl FnMut(&mut TestRng) -> Result<(), TestCaseError>,
) {
    for i in 0..config.cases {
        let mut rng = TestRng::for_case(name, i);
        if let Err(e) = case(&mut rng) {
            panic!("proptest `{name}` failed at case {i}/{}: {e}", config.cases);
        }
    }
}

/// A generator of random values of type `Self::Value`.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Produce one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<T, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> T,
    {
        Map { inner: self, f }
    }

    /// Keep only values satisfying `pred` (regenerating otherwise).
    fn prop_filter<F>(self, reason: &'static str, pred: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            inner: self,
            reason,
            pred,
        }
    }

    /// Build a recursive strategy: `f` receives a strategy for the inner
    /// levels and returns the composite one. Recursion is bounded by
    /// `depth`; `_desired_size` and `_expected_branch` are accepted for
    /// API compatibility and ignored.
    fn prop_recursive<S, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch: u32,
        f: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        S: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> S,
    {
        let base = self.boxed();
        let mut cur = base.clone();
        for _ in 0..depth {
            let rec = f(cur).boxed();
            let b = base.clone();
            // Lean toward recursion but keep leaves reachable at every level.
            cur = BoxedStrategy::new(move |rng| {
                if rng.below(4) == 0 {
                    b.sample(rng)
                } else {
                    rec.sample(rng)
                }
            });
        }
        cur
    }

    /// Type-erase into a cloneable [`BoxedStrategy`].
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy::new(move |rng| self.sample(rng))
    }
}

/// Cloneable type-erased strategy.
pub struct BoxedStrategy<T> {
    sample: Rc<dyn Fn(&mut TestRng) -> T>,
}

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy {
            sample: Rc::clone(&self.sample),
        }
    }
}

impl<T> BoxedStrategy<T> {
    /// Wrap a sampling function.
    pub fn new(f: impl Fn(&mut TestRng) -> T + 'static) -> Self {
        BoxedStrategy { sample: Rc::new(f) }
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        (self.sample)(rng)
    }
}

/// Strategy produced by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        (self.f)(self.inner.sample(rng))
    }
}

/// Strategy produced by [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    reason: &'static str,
    pred: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..10_000 {
            let v = self.inner.sample(rng);
            if (self.pred)(&v) {
                return v;
            }
        }
        panic!(
            "prop_filter `{}` rejected 10000 consecutive values",
            self.reason
        );
    }
}

/// Always produces a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Weighted union over same-typed strategies (backs [`prop_oneof!`]).
pub struct Union<T> {
    arms: Vec<(u32, BoxedStrategy<T>)>,
    total: u64,
}

impl<T> Union<T> {
    /// Build from `(weight, strategy)` arms; weights must sum > 0.
    pub fn new(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
        let total = arms.iter().map(|(w, _)| *w as u64).sum();
        assert!(
            total > 0,
            "prop_oneof! needs at least one positively-weighted arm"
        );
        Union { arms, total }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        let mut pick = rng.below(self.total);
        for (w, s) in &self.arms {
            if pick < *w as u64 {
                return s.sample(rng);
            }
            pick -= *w as u64;
        }
        unreachable!()
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128 as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (a, b) = (*self.start(), *self.end());
                assert!(a <= b, "empty range strategy");
                let span = (b as i128 - a as i128 + 1) as u128 as u64;
                if span == 0 {
                    // Full-width inclusive range.
                    return rng.next_u64() as $t;
                }
                (a as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

impl Strategy for std::ops::Range<f32> {
    type Value = f32;
    fn sample(&self, rng: &mut TestRng) -> f32 {
        self.start + rng.unit_f64() as f32 * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
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
tuple_strategy!(A, B, C, D, E, F, G);
tuple_strategy!(A, B, C, D, E, F, G, H);

/// Types with a canonical "any value" strategy (see [`any`]).
pub trait Arbitrary: Sized {
    /// Produce one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! int_arbitrary {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // Mostly finite "reasonable" values; occasionally raw bit patterns.
        match rng.below(8) {
            0 => f64::from_bits(rng.next_u64()),
            _ => (rng.unit_f64() - 0.5) * 2.0e6,
        }
    }
}

/// Strategy over every value of `T` (the `any::<T>()` entry point).
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// `any::<T>()`: the canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// Sizes accepted by [`vec()`]/[`btree_map`]: an exact count or a range.
    pub trait IntoSizeRange {
        /// Pick a concrete length.
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl IntoSizeRange for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl IntoSizeRange for std::ops::Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            assert!(self.start < self.end, "empty size range");
            self.start + rng.below((self.end - self.start) as u64) as usize
        }
    }

    impl IntoSizeRange for std::ops::RangeInclusive<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            self.start() + rng.below((self.end() - self.start() + 1) as u64) as usize
        }
    }

    /// Strategy for `Vec<T>` with the given element strategy and size.
    pub struct VecStrategy<S, R> {
        elem: S,
        size: R,
    }

    impl<S: Strategy, R: IntoSizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.elem.sample(rng)).collect()
        }
    }

    /// `proptest::collection::vec(element, size)`.
    pub fn vec<S: Strategy, R: IntoSizeRange>(elem: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { elem, size }
    }

    /// Strategy for `BTreeMap<K, V>`.
    pub struct BTreeMapStrategy<K, V, R> {
        key: K,
        val: V,
        size: R,
    }

    impl<K, V, R> Strategy for BTreeMapStrategy<K, V, R>
    where
        K: Strategy,
        K::Value: Ord,
        V: Strategy,
        R: IntoSizeRange,
    {
        type Value = std::collections::BTreeMap<K::Value, V::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.size.pick(rng);
            // Duplicate keys collapse; acceptable for a size *range*, and
            // exact sizes in our tests use key spaces far larger than n.
            (0..n)
                .map(|_| (self.key.sample(rng), self.val.sample(rng)))
                .collect()
        }
    }

    /// `proptest::collection::btree_map(key, value, size)`.
    pub fn btree_map<K: Strategy, V: Strategy, R: IntoSizeRange>(
        key: K,
        val: V,
        size: R,
    ) -> BTreeMapStrategy<K, V, R> {
        BTreeMapStrategy { key, val, size }
    }
}

/// Fixed-size array strategies (`proptest::array`).
pub mod array {
    use super::{Strategy, TestRng};

    /// Strategy for `[T; N]` from one element strategy.
    pub struct UniformArray<S, const N: usize>(S);

    impl<S: Strategy, const N: usize> Strategy for UniformArray<S, N> {
        type Value = [S::Value; N];
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            std::array::from_fn(|_| self.0.sample(rng))
        }
    }

    /// Strategy for `[T; 3]` from one element strategy.
    pub type Uniform3<S> = UniformArray<S, 3>;

    /// `proptest::array::uniform2(element)`.
    pub fn uniform2<S: Strategy>(elem: S) -> UniformArray<S, 2> {
        UniformArray(elem)
    }

    /// `proptest::array::uniform3(element)`.
    pub fn uniform3<S: Strategy>(elem: S) -> Uniform3<S> {
        UniformArray(elem)
    }

    /// `proptest::array::uniform8(element)`.
    pub fn uniform8<S: Strategy>(elem: S) -> UniformArray<S, 8> {
        UniformArray(elem)
    }

    /// `proptest::array::uniform16(element)`.
    pub fn uniform16<S: Strategy>(elem: S) -> UniformArray<S, 16> {
        UniformArray(elem)
    }
}

/// Choose-from-a-slice strategies (`proptest::sample`).
pub mod sample {
    use super::{Strategy, TestRng};

    /// Strategy yielding uniformly-chosen elements of a fixed slice.
    pub struct Select<T: 'static>(&'static [T]);

    impl<T: Clone + std::fmt::Debug + 'static> Strategy for Select<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            assert!(!self.0.is_empty(), "select from empty slice");
            self.0[rng.below(self.0.len() as u64) as usize].clone()
        }
    }

    /// `proptest::sample::select(&slice)` — the stub supports `'static`
    /// slices only (the common case: a `const` table of variants).
    pub fn select<T: Clone + std::fmt::Debug + 'static>(options: &'static [T]) -> Select<T> {
        Select(options)
    }
}

/// `Option` strategies (`proptest::option`).
pub mod option {
    use super::{Strategy, TestRng};

    /// Strategy for `Option<T>`; `None` about a quarter of the time.
    pub struct OptionStrategy<S>(S);

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.0.sample(rng))
            }
        }
    }

    /// `proptest::option::of(element)`.
    pub fn of<S: Strategy>(elem: S) -> OptionStrategy<S> {
        OptionStrategy(elem)
    }
}

/// The common imports: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_compose, prop_oneof, proptest,
        Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError,
    };
}

/// Define property tests. Supports the standard block form with an
/// optional leading `#![proptest_config(...)]` attribute; each test's body
/// runs as `Result<(), TestCaseError>` so `return Ok(())` and the
/// `prop_assert*!` macros work as in real proptest.
#[macro_export]
macro_rules! proptest {
    (@blocks $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),* $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            $crate::run_cases(&config, stringify!($name), |rng| {
                $(let $arg = $crate::Strategy::sample(&($strat), rng);)*
                #[allow(unused_mut)]
                let mut case = move || -> ::std::result::Result<(), $crate::TestCaseError> {
                    $body
                    #[allow(unreachable_code)]
                    Ok(())
                };
                case()
            });
        }
    )*};
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::proptest!(@blocks $cfg; $($rest)*);
    };
    (
        $($rest:tt)*
    ) => {
        $crate::proptest!(@blocks $crate::ProptestConfig::default(); $($rest)*);
    };
}

/// Weighted/unweighted union of strategies producing the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $(($weight as u32, $crate::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $((1u32, $crate::Strategy::boxed($strat))),+
        ])
    };
}

/// Compose a named strategy function from sub-strategies.
#[macro_export]
macro_rules! prop_compose {
    (
        $(#[$meta:meta])*
        $vis:vis fn $name:ident($($pn:ident: $pt:ty),* $(,)?)
            ($($arg:pat in $strat:expr),* $(,)?)
            -> $out:ty $body:block
    ) => {
        $(#[$meta])*
        $vis fn $name($($pn: $pt),*) -> impl $crate::Strategy<Value = $out> {
            $crate::Strategy::prop_map(
                ($($strat,)*),
                move |($($arg,)*)| -> $out { $body },
            )
        }
    };
}

/// Assert a condition inside a proptest body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Assert equality inside a proptest body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            *a == *b,
            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`",
            a,
            b
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            *a == *b,
            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`: {}",
            a,
            b,
            format!($($fmt)*)
        );
    }};
}

/// Assert inequality inside a proptest body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            *a != *b,
            "assertion failed: `(left != right)`\n  both: `{:?}`",
            a
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            *a != *b,
            "assertion failed: `(left != right)`\n  both: `{:?}`: {}",
            a,
            format!($($fmt)*)
        );
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn deterministic_per_case() {
        let mut a = crate::TestRng::for_case("t", 3);
        let mut b = crate::TestRng::for_case("t", 3);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = crate::TestRng::for_case("t", 4);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::TestRng::for_case("bounds", 0);
        for _ in 0..1000 {
            let v = (10u64..20).sample(&mut rng);
            assert!((10..20).contains(&v));
            let w = (-5i64..5).sample(&mut rng);
            assert!((-5..5).contains(&w));
            let f = (-2.0f64..3.0).sample(&mut rng);
            assert!((-2.0..3.0).contains(&f));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn macro_roundtrip(v in proptest::collection::vec(any::<u8>(), 1..9), b in any::<bool>()) {
            prop_assert!(!v.is_empty() && v.len() < 9);
            if b {
                return Ok(());
            }
            prop_assert_eq!(v.len(), v.len());
        }
    }

    // Inside this crate `proptest` paths must resolve; mimic downstream use.
    use crate as proptest;

    prop_compose! {
        fn arb_pair()(a in 0u8..10, b in 0u8..10) -> (u8, u8) { (a, b) }
    }

    proptest! {
        #[test]
        fn compose_and_oneof(p in arb_pair(), pick in prop_oneof![1 => Just(1u8), 2 => Just(2u8)]) {
            prop_assert!(p.0 < 10 && p.1 < 10);
            prop_assert!(pick == 1 || pick == 2);
        }
    }
}
