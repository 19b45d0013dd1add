//! Offline stand-in for the subset of the `proptest` API this workspace uses.
//!
//! The build environment has no crates.io access, so this crate implements
//! the property-testing surface the workspace's tests call:
//!
//! * [`Strategy`] with [`Strategy::prop_map`] / [`Strategy::prop_flat_map`];
//! * strategies: integer ranges, tuples, [`Just`], [`collection::vec`],
//!   [`any`] (for [`sample::Index`] and primitives);
//! * the [`proptest!`] macro with optional `#![proptest_config(..)]`,
//!   [`prop_assert!`], [`prop_assert_eq!`], [`prop_assume!`];
//! * [`ProptestConfig::with_cases`].
//!
//! Differences from upstream: value generation uses the workspace's
//! deterministic `rand` stand-in, and shrinking is *minimal* rather than
//! integrated: integer strategies shrink toward their lower bound,
//! collection strategies shrink to prefixes, and tuples shrink one component
//! at a time ([`Strategy::shrink`]). `prop_map` / `prop_flat_map` outputs do
//! not shrink (there is no inverse mapping), but a failing case still panics
//! with its case number and the fixed per-test seed, which reproduces it
//! exactly.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::fmt::Debug;

/// The generator handed to strategies while running a property.
pub struct TestRunner {
    rng: StdRng,
}

impl TestRunner {
    fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Next raw word (strategies build everything from this).
    pub fn next_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Uniform draw below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        self.rng.gen_range(0..n)
    }
}

/// A recipe for generating values of `Value`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, runner: &mut TestRunner) -> Self::Value;

    /// Candidate simplifications of a failing `value`, simplest first. An
    /// empty vector (the default) means this strategy cannot shrink. The
    /// runner re-tests candidates and descends into the first one that
    /// still fails, so failures are reported at (a local) minimum.
    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        let _ = value;
        Vec::new()
    }

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Generates a value, then generates from the strategy `f` returns for it.
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, runner: &mut TestRunner) -> Self::Value {
        (**self).generate(runner)
    }
    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        (**self).shrink(value)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, runner: &mut TestRunner) -> O {
        (self.f)(self.inner.generate(runner))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
    type Value = T::Value;
    fn generate(&self, runner: &mut TestRunner) -> Self::Value {
        (self.f)(self.inner.generate(runner)).generate(runner)
    }
}

/// Strategy that always yields a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _runner: &mut TestRunner) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, runner: &mut TestRunner) -> $t {
                runner.rng.gen_range(self.clone())
            }
            fn shrink(&self, value: &$t) -> Vec<$t> {
                let (v, lo) = (*value, self.start);
                let mut out = Vec::new();
                if v > lo {
                    out.push(lo);
                    let mid = lo + (v - lo) / 2;
                    if mid != lo && mid != v {
                        out.push(mid);
                    }
                    if v - 1 != lo {
                        out.push(v - 1);
                    }
                }
                out
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, runner: &mut TestRunner) -> $t {
                runner.rng.gen_range(self.clone())
            }
            fn shrink(&self, value: &$t) -> Vec<$t> {
                let (v, lo) = (*value, *self.start());
                let mut out = Vec::new();
                if v > lo {
                    out.push(lo);
                    let mid = lo + (v - lo) / 2;
                    if mid != lo && mid != v {
                        out.push(mid);
                    }
                    if v - 1 != lo {
                        out.push(v - 1);
                    }
                }
                out
            }
        }
    )*};
}

impl_range_strategy!(usize, u64, u32, u16, u8);

macro_rules! impl_tuple_strategy {
    ($(($name:ident, $idx:tt)),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+)
        where
            $($name::Value: Clone,)+
        {
            type Value = ($($name::Value,)+);
            fn generate(&self, runner: &mut TestRunner) -> Self::Value {
                ($(self.$idx.generate(runner),)+)
            }
            /// One component shrinks at a time, the others held fixed.
            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for candidate in self.$idx.shrink(&value.$idx) {
                        let mut v = value.clone();
                        v.$idx = candidate;
                        out.push(v);
                    }
                )+
                out
            }
        }
    };
}

impl_tuple_strategy!((A, 0));
impl_tuple_strategy!((A, 0), (B, 1));
impl_tuple_strategy!((A, 0), (B, 1), (C, 2));
impl_tuple_strategy!((A, 0), (B, 1), (C, 2), (D, 3));
impl_tuple_strategy!((A, 0), (B, 1), (C, 2), (D, 3), (E, 4));
impl_tuple_strategy!((A, 0), (B, 1), (C, 2), (D, 3), (E, 4), (F, 5));
impl_tuple_strategy!((A, 0), (B, 1), (C, 2), (D, 3), (E, 4), (F, 5), (G, 6));
impl_tuple_strategy!(
    (A, 0),
    (B, 1),
    (C, 2),
    (D, 3),
    (E, 4),
    (F, 5),
    (G, 6),
    (H, 7)
);
impl_tuple_strategy!(
    (A, 0),
    (B, 1),
    (C, 2),
    (D, 3),
    (E, 4),
    (F, 5),
    (G, 6),
    (H, 7),
    (I, 8)
);
impl_tuple_strategy!(
    (A, 0),
    (B, 1),
    (C, 2),
    (D, 3),
    (E, 4),
    (F, 5),
    (G, 6),
    (H, 7),
    (I, 8),
    (J, 9)
);

/// Types with a canonical strategy, for [`any`].
pub trait Arbitrary: Sized {
    /// The canonical strategy of the type.
    type Strategy: Strategy<Value = Self>;

    /// Builds the canonical strategy.
    fn arbitrary() -> Self::Strategy;
}

/// A strategy generating via a plain function.
pub struct FnStrategy<T>(fn(&mut TestRunner) -> T);

impl<T> Strategy for FnStrategy<T> {
    type Value = T;
    fn generate(&self, runner: &mut TestRunner) -> T {
        (self.0)(runner)
    }
}

macro_rules! impl_arbitrary_word {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            type Strategy = FnStrategy<$t>;
            fn arbitrary() -> Self::Strategy {
                FnStrategy(|r| r.next_u64() as $t)
            }
        }
    )*};
}

impl_arbitrary_word!(u8, u16, u32, u64, usize);

impl Arbitrary for bool {
    type Strategy = FnStrategy<bool>;
    fn arbitrary() -> Self::Strategy {
        FnStrategy(|r| r.next_u64() & 1 == 1)
    }
}

/// The canonical strategy of `T`.
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

pub mod sample {
    //! Sampling helpers usable inside generated values.

    use super::{Arbitrary, FnStrategy};

    /// An index into a collection whose length is only known inside the test
    /// body (`any::<Index>()` + [`Index::index`]).
    #[derive(Clone, Copy, Debug)]
    pub struct Index(u64);

    impl Index {
        /// Projects onto `0..len`.
        ///
        /// # Panics
        /// Panics when `len == 0`.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "cannot index an empty collection");
            // Multiply-shift projection of the stored word onto 0..len.
            ((self.0 as u128 * len as u128) >> 64) as usize
        }
    }

    impl Arbitrary for Index {
        type Strategy = FnStrategy<Index>;
        fn arbitrary() -> Self::Strategy {
            FnStrategy(|r| Index(r.next_u64()))
        }
    }
}

/// Upstream-compatible alias module: `prop::sample::Index`.
pub mod prop {
    pub use crate::sample;
}

pub mod collection {
    //! Collection strategies.

    use super::{Strategy, TestRunner};

    /// Acceptable size arguments for [`vec`](fn@vec).
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            Self {
                lo: *r.start(),
                hi_inclusive: *r.end(),
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates vectors of `element` values with length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: Clone,
    {
        type Value = Vec<S::Value>;
        fn generate(&self, runner: &mut TestRunner) -> Self::Value {
            let span = self.size.hi_inclusive - self.size.lo + 1;
            let len = self.size.lo + runner.below(span.max(1));
            (0..len).map(|_| self.element.generate(runner)).collect()
        }
        /// Prefix shrinking: the shortest admissible prefix, the half-length
        /// prefix, and the drop-last prefix — simplest first, strictly
        /// shorter, never below the size range's lower bound.
        fn shrink(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
            let len = value.len();
            let lo = self.size.lo;
            let mut lens = Vec::new();
            for cand in [lo, (lo + len) / 2, len.saturating_sub(1)] {
                if cand < len && cand >= lo && !lens.contains(&cand) {
                    lens.push(cand);
                }
            }
            lens.into_iter().map(|l| value[..l].to_vec()).collect()
        }
    }
}

/// Per-test configuration.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of successful cases required.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

/// Why a case did not pass.
#[derive(Debug)]
pub enum TestError {
    /// A `prop_assert!` failed.
    Fail(String),
    /// A `prop_assume!` rejected the inputs.
    Reject,
}

/// Shrink-step budget per failure; whatever minimum was reached by then is
/// reported.
const MAX_SHRINK_STEPS: usize = 512;

/// Drives `case` for `config.cases` successful runs (rejections retried,
/// with a cap), generating inputs from `strategy`. On failure, greedily
/// shrinks the failing input through [`Strategy::shrink`] before panicking
/// with the smallest input that still fails. Called by the [`proptest!`]
/// macro expansion — not public API.
pub fn run_cases<S: Strategy>(
    config: ProptestConfig,
    test_name: &str,
    strategy: S,
    mut case: impl FnMut(S::Value) -> Result<(), TestError>,
) where
    S::Value: Clone + Debug,
{
    // Per-test deterministic base seed, so failures reproduce exactly.
    let base = test_name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
    });
    let mut passed = 0u32;
    let mut attempts = 0u64;
    let max_attempts = config.cases as u64 * 20 + 100;
    while passed < config.cases {
        attempts += 1;
        assert!(
            attempts <= max_attempts,
            "proptest '{test_name}': too many prop_assume! rejections \
             ({passed}/{} cases after {attempts} attempts)",
            config.cases
        );
        let mut runner = TestRunner::new(base.wrapping_add(attempts));
        let value = strategy.generate(&mut runner);
        match case(value) {
            Ok(()) => passed += 1,
            Err(TestError::Reject) => continue,
            Err(TestError::Fail(msg)) => {
                // Regenerate the failing input from its (deterministic)
                // seed instead of cloning every successful case's input
                // just in case it fails.
                let mut runner = TestRunner::new(base.wrapping_add(attempts));
                let value = strategy.generate(&mut runner);
                let (value, msg, steps) = shrink_failure(&strategy, value, msg, &mut case);
                panic!(
                    "proptest '{test_name}' failed at attempt {attempts} \
                     (seed base {base:#x}): {msg}\n\
                     minimal failing input (after {steps} shrink steps): {value:?}"
                );
            }
        }
    }
}

/// Greedy descent: re-test each shrink candidate of the failing value and
/// move to the first that still fails, until none do (or the step budget
/// runs out). Candidates that pass or reject are discarded.
fn shrink_failure<S: Strategy>(
    strategy: &S,
    mut value: S::Value,
    mut msg: String,
    case: &mut impl FnMut(S::Value) -> Result<(), TestError>,
) -> (S::Value, String, usize)
where
    S::Value: Clone,
{
    let mut steps = 0usize;
    'descend: while steps < MAX_SHRINK_STEPS {
        for candidate in strategy.shrink(&value) {
            if let Err(TestError::Fail(m)) = case(candidate.clone()) {
                value = candidate;
                msg = m;
                steps += 1;
                continue 'descend;
            }
        }
        break;
    }
    (value, msg, steps)
}

/// Everything the tests import.
pub mod prelude {
    pub use crate::collection;
    pub use crate::prop;
    pub use crate::sample;
    pub use crate::{any, Arbitrary, Just, ProptestConfig, Strategy, TestError, TestRunner};
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, proptest};
}

/// Asserts inside a property; failure reports the generated inputs' case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestError::Fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestError::Fail(format!($($fmt)*)));
        }
    };
}

/// Equality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{:?}` != `{:?}`",
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{:?}` != `{:?}`: {}",
            l,
            r,
            format!($($fmt)*)
        );
    }};
}

/// Rejects the current inputs (does not count as a failure).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestError::Reject);
        }
    };
}

/// Declares property tests. Supports the upstream surface this workspace
/// uses: an optional `#![proptest_config(..)]` header and `#[test]` functions
/// whose parameters are `pattern in strategy` pairs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr) $($(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::ProptestConfig = $cfg;
                // All inputs become one tuple strategy so a failure can
                // shrink each component while holding the others fixed.
                let __strategy = ($($strat,)+);
                $crate::run_cases(__config, stringify!($name), __strategy, |__vals| {
                    let ($($pat,)+) = __vals;
                    let __outcome: ::core::result::Result<(), $crate::TestError> =
                        (|| { $body ::core::result::Result::Ok(()) })();
                    __outcome
                });
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    fn arb_pair() -> impl Strategy<Value = (usize, usize)> {
        (1usize..50).prop_flat_map(|n| (Just(n), 0..n))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3usize..17, y in 0u64..=5) {
            prop_assert!((3..17).contains(&x));
            prop_assert!(y <= 5);
        }

        #[test]
        fn flat_map_threads_dependent_values((n, k) in arb_pair()) {
            prop_assert!(k < n, "k={} must be below n={}", k, n);
        }

        #[test]
        fn vec_strategy_honors_size(v in collection::vec(0u32..10, 2..6)) {
            prop_assert!((2..6).contains(&v.len()));
            prop_assert!(v.iter().all(|&x| x < 10));
        }

        #[test]
        fn index_projects_in_bounds(i in any::<prop::sample::Index>(), len in 1usize..100) {
            prop_assert!(i.index(len) < len);
        }

        #[test]
        fn assume_rejects_without_failing(n in 0usize..10) {
            prop_assume!(n % 2 == 0);
            prop_assert!(n % 2 == 0);
        }
    }

    #[test]
    #[should_panic(expected = "proptest 'always_fails' failed")]
    fn failing_property_panics_with_context() {
        // No #[test] on the inner item: it is driven manually below.
        proptest! {
            fn always_fails(_x in 0usize..4) {
                prop_assert!(false, "intentional");
            }
        }
        always_fails();
    }

    #[test]
    fn integer_strategies_shrink_toward_the_lower_bound() {
        let s = 3usize..100;
        // Candidates are simplest-first, strictly smaller, within range.
        assert_eq!(s.shrink(&3), Vec::<usize>::new());
        assert_eq!(s.shrink(&4), vec![3]);
        assert_eq!(s.shrink(&90), vec![3, 46, 89]);
        let si = 2u32..=9;
        assert_eq!(si.shrink(&9), vec![2, 5, 8]);
    }

    #[test]
    fn vec_strategies_shrink_to_prefixes() {
        let s = collection::vec(0u32..10, 2..=8);
        let v = vec![9, 8, 7, 6, 5];
        let shrunk = s.shrink(&v);
        assert_eq!(shrunk, vec![vec![9, 8], vec![9, 8, 7], vec![9, 8, 7, 6]]);
        assert!(s.shrink(&vec![1, 2]).is_empty(), "at the lower bound");
    }

    #[test]
    fn tuples_shrink_one_component_at_a_time() {
        let s = (1usize..10, 0u32..5);
        let shrunk = s.shrink(&(6, 3));
        assert!(shrunk.contains(&(1, 3)));
        assert!(shrunk.contains(&(6, 0)));
        assert!(shrunk.iter().all(|&(a, b)| (a, b) != (6, 3)));
    }

    /// End to end: a property failing for all `x ≥ 10` must be reported at
    /// exactly the minimal counterexample `x = 10`.
    #[test]
    #[should_panic(expected = "minimal failing input (after")]
    fn failures_are_reported_at_the_minimal_counterexample() {
        proptest! {
            fn fails_at_ten_and_up(x in 0usize..1000) {
                prop_assert!(x < 10, "x = {} too big", x);
            }
        }
        fails_at_ten_and_up();
    }

    #[test]
    fn shrink_descends_to_the_boundary() {
        // Drive the shrink loop directly to check the minimum it reaches.
        let strategy = (0usize..1000,);
        let mut case = |v: (usize,)| {
            if v.0 >= 10 {
                Err(TestError::Fail(format!("{} too big", v.0)))
            } else {
                Ok(())
            }
        };
        let (min, _msg, steps) = super::shrink_failure(&strategy, (997,), "seed".into(), &mut case);
        assert_eq!(min, (10,), "greedy descent must reach the boundary");
        assert!(steps > 0);
    }
}
