//! Offline stand-in for the subset of the `proptest` crate API this
//! workspace uses (the build environment cannot reach crates.io).
//!
//! Semantics: each `proptest!` test runs `ProptestConfig::cases` cases with
//! inputs drawn from the given strategies, deterministically seeded from
//! the test name (override with `PROPTEST_SEED`, case count with
//! `PROPTEST_CASES`). There is no shrinking — on failure the case index and
//! seed are reported so the exact inputs are reproducible.

use std::ops::{Range, RangeInclusive};

// ---------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------

/// Deterministic test-input generator (xorshift64*).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeded generator.
    pub fn new(seed: u64) -> TestRng {
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        TestRng { state: (z ^ (z >> 31)) | 1 }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

// ---------------------------------------------------------------------
// Config and errors
// ---------------------------------------------------------------------

/// Test-runner configuration (only `cases` is honoured).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(256);
        ProptestConfig { cases }
    }
}

/// A failed property (returned by `prop_assert!` and friends).
#[derive(Debug, Clone)]
pub struct TestCaseError {
    /// Human-readable failure description.
    pub message: String,
}

impl TestCaseError {
    /// Construct a failure.
    pub fn fail(message: impl Into<String>) -> TestCaseError {
        TestCaseError { message: message.into() }
    }
}

/// Drive one property through `cfg.cases` random cases. Used by the
/// `proptest!` macro expansion; not part of the public proptest API.
pub fn run_cases<F>(name: &str, cfg: &ProptestConfig, mut case: F)
where
    F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
{
    let seed = std::env::var("PROPTEST_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            // Stable per-test seed: an FNV-1a-shaped fold over the test
            // name (FNV's offset basis, xor then multiply), but with
            // 0x1000_0000_01b3 where FNV's prime is 0x100_0000_01b3. The
            // multiplier stays: changing it would reseed every property
            // test.
            name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
            })
        });
    let mut rng = TestRng::new(seed);
    for i in 0..cfg.cases {
        if let Err(e) = case(&mut rng) {
            panic!(
                "proptest {name}: case {i}/{} failed (seed {seed}): {}",
                cfg.cases, e.message
            );
        }
    }
}

// ---------------------------------------------------------------------
// Strategy
// ---------------------------------------------------------------------

/// A generator of random values of one type.
///
/// Unlike real proptest there is no value tree / shrinking: `generate`
/// produces the final value directly.
pub trait Strategy {
    /// Generated type.
    type Value;

    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Type-erase for heterogeneous composition (`prop_oneof!`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        (**self).generate(rng)
    }
}

/// Always produces a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// `prop_map` adapter.
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Uniform choice among boxed strategies (`prop_oneof!`).
pub struct Union<V> {
    arms: Vec<BoxedStrategy<V>>,
}

impl<V> Union<V> {
    /// Build from the arms; must be non-empty.
    pub fn new(arms: Vec<BoxedStrategy<V>>) -> Union<V> {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let i = rng.below(self.arms.len() as u64) as usize;
        self.arms[i].generate(rng)
    }
}

// Integer / float ranges as strategies.
macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128 + 1) as u128;
                (lo as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

/// `any::<T>()`: the full-range strategy for `T`.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

/// Strategy returned by [`any`].
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Types with a canonical full-range generator.
pub trait Arbitrary {
    /// Draw an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        rng.unit_f64()
    }
}

impl<const N: usize> Arbitrary for [u8; N] {
    fn arbitrary(rng: &mut TestRng) -> [u8; N] {
        let mut out = [0u8; N];
        for b in out.iter_mut() {
            *b = rng.next_u64() as u8;
        }
        out
    }
}

// Tuples of strategies.
macro_rules! impl_tuple_strategy {
    ($($s:ident . $idx:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}
impl_tuple_strategy!(A.0);
impl_tuple_strategy!(A.0, B.1);
impl_tuple_strategy!(A.0, B.1, C.2);
impl_tuple_strategy!(A.0, B.1, C.2, D.3);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7);

// ---------------------------------------------------------------------
// Pattern (mini-regex) string strategies
// ---------------------------------------------------------------------

/// `&str` as a strategy: a tiny regex dialect supporting exactly the
/// patterns this repo's tests use — `.{lo,hi}` (arbitrary printable
/// chars) and `[class]{lo,hi}` (chars from a class with `a-z` ranges).
impl Strategy for &'static str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let (class, lo, hi) = parse_pattern(self)
            .unwrap_or_else(|| panic!("unsupported test string pattern: {self:?}"));
        let len = lo + rng.below((hi - lo + 1) as u64) as usize;
        let mut out = String::with_capacity(len);
        for _ in 0..len {
            out.push(match &class {
                CharClass::Any => {
                    // Printable ASCII with a sprinkling of non-ASCII.
                    if rng.below(16) == 0 {
                        char::from_u32(0xa1 + rng.below(0x200) as u32).unwrap_or('¿')
                    } else {
                        (32 + rng.below(95) as u8) as char
                    }
                }
                CharClass::Set(chars) => chars[rng.below(chars.len() as u64) as usize],
            });
        }
        out
    }
}

enum CharClass {
    Any,
    Set(Vec<char>),
}

fn parse_pattern(pat: &str) -> Option<(CharClass, usize, usize)> {
    let (class_part, rest) = if let Some(rest) = pat.strip_prefix('.') {
        (CharClass::Any, rest)
    } else if let Some(inner) = pat.strip_prefix('[') {
        let close = inner.find(']')?;
        let mut chars = Vec::new();
        let class: Vec<char> = inner[..close].chars().collect();
        let mut i = 0;
        while i < class.len() {
            if i + 2 < class.len() && class[i + 1] == '-' {
                let (a, b) = (class[i] as u32, class[i + 2] as u32);
                for c in a..=b {
                    chars.push(char::from_u32(c)?);
                }
                i += 3;
            } else {
                chars.push(class[i]);
                i += 1;
            }
        }
        (CharClass::Set(chars), &inner[close + 1..])
    } else {
        return None;
    };
    let counts = rest.strip_prefix('{')?.strip_suffix('}')?;
    let (lo, hi) = counts.split_once(',')?;
    Some((class_part, lo.trim().parse().ok()?, hi.trim().parse().ok()?))
}

// ---------------------------------------------------------------------
// Collections and option
// ---------------------------------------------------------------------

/// `prop::collection` equivalents.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// A size specification for [`vec`].
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange { lo: r.start, hi: r.end - 1 }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> SizeRange {
            SizeRange { lo: *r.start(), hi: *r.end() }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n }
        }
    }

    /// Vectors of `size` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    /// Strategy returned by [`vec`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64 + 1;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// `proptest::option` equivalents.
pub mod option {
    use super::{Strategy, TestRng};

    /// `None` half the time, `Some(inner)` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// Strategy returned by [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.next_u64() & 1 == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}

// ---------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------

/// Define property tests. Each function runs `cases` times with fresh
/// random inputs bound from its `name in strategy` parameters.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!{ cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!{ cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Internal: expands each test function in a `proptest!` block.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (cfg = $cfg:expr;) => {};
    (cfg = $cfg:expr;
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            $crate::run_cases(stringify!($name), &$cfg, |__rng| {
                $(let $arg = $crate::Strategy::generate(&($strat), __rng);)+
                (move || -> ::std::result::Result<(), $crate::TestCaseError> {
                    $body
                    ::std::result::Result::Ok(())
                })()
            });
        }
        $crate::__proptest_fns!{ cfg = $cfg; $($rest)* }
    };
}

/// Assert a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Assert equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), __l, __r,
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)+), __l, __r,
            )));
        }
    }};
}

/// Uniform choice among strategies producing the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strat)),+])
    };
}

/// The glob-import surface, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_oneof, proptest, Just, ProptestConfig, Strategy,
        TestCaseError,
    };

    /// Mirrors `proptest::prelude::prop`.
    pub mod prop {
        pub use crate::collection;
        pub use crate::option;
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::TestRng::new(1);
        for _ in 0..500 {
            let v = crate::Strategy::generate(&(3u32..17), &mut rng);
            assert!((3..17).contains(&v));
            let w = crate::Strategy::generate(&(1u8..=255), &mut rng);
            assert!(w >= 1);
        }
    }

    #[test]
    fn vec_strategy_respects_size() {
        let mut rng = crate::TestRng::new(2);
        let s = prop::collection::vec(any::<u8>(), 2..5);
        for _ in 0..100 {
            let v = crate::Strategy::generate(&s, &mut rng);
            assert!((2..5).contains(&v.len()));
        }
    }

    #[test]
    fn pattern_strategies_parse() {
        let mut rng = crate::TestRng::new(3);
        let s = crate::Strategy::generate(&".{0,40}", &mut rng);
        assert!(s.chars().count() <= 40);
        let t = crate::Strategy::generate(&"[0-9.:]{0,20}", &mut rng);
        assert!(t.chars().all(|c| c.is_ascii_digit() || c == '.' || c == ':'));
    }

    #[test]
    fn oneof_hits_every_arm() {
        let mut rng = crate::TestRng::new(4);
        let s = prop_oneof![Just(1u8), Just(2u8), Just(3u8)];
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[crate::Strategy::generate(&s, &mut rng) as usize] = true;
        }
        assert!(seen[1] && seen[2] && seen[3]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_smoke(x in 0u32..100, v in prop::collection::vec(any::<u8>(), 0..8)) {
            prop_assert!(x < 100);
            prop_assert_eq!(v.len(), v.len());
        }
    }
}
