//! A minimal, dependency-free stand-in for the [`proptest`] crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! renames this crate to `proptest` (see the root `[workspace.dependencies]`)
//! and the property tests compile unchanged. The shim implements exactly
//! the API surface the workspace uses:
//!
//! - [`Strategy`] with [`Strategy::prop_map`] over numeric [ranges], tuples
//!   (arity 2–6), and [`collection::vec`];
//! - the [`proptest!`] macro, running each property over a deterministic,
//!   per-test-seeded stream of cases;
//! - `prop_assert!` / `prop_assert_eq!` / `prop_assert_ne!`.
//!
//! Unlike real proptest there is **no shrinking**: a failing case panics
//! with the case index so it can be replayed (cases are deterministic per
//! test name). The case count defaults to 48, is raised to 256 by the
//! consuming crate's `slow-tests` feature, is set per block by the real
//! crate's `#![proptest_config(ProptestConfig::with_cases(n))]`, and can be
//! overridden at run time with `PROPTEST_CASES=n`.
//!
//! [`proptest`]: https://docs.rs/proptest
//! [ranges]: std::ops::Range

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::Range;

/// The deterministic PRNG driving case generation (splitmix64 stream).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator whose stream depends only on `name` — each
    /// property gets its own reproducible case sequence.
    pub fn deterministic(name: &str) -> Self {
        // FNV-1a over the test name.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng { state: h }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A generator of values for one property-test argument.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// The strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
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

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{Range, Strategy, TestRng};

    /// A strategy producing `Vec`s with lengths drawn from `len` and
    /// elements drawn from `element`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// Generates vectors of `element` values with a length in `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.sample(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// The per-property case count: `PROPTEST_CASES` wins, then the given
/// feature-dependent default (see the [`proptest!`] expansion).
pub fn cases(default: u32) -> u32 {
    // detlint::allow(entropy, reason = "test-harness knob read once at suite start to scale case counts; property seeds stay fixed, so default runs are unaffected")
    match std::env::var("PROPTEST_CASES") {
        Ok(v) => v.parse().unwrap_or(default),
        Err(_) => default,
    }
}

/// Names the failing case when a property body panics, since the plain
/// assertion message carries no replay information.
#[derive(Debug)]
pub struct CaseGuard {
    property: &'static str,
    case: u32,
    armed: bool,
}

impl CaseGuard {
    /// Arms a guard for one case of `property`.
    pub fn new(property: &'static str, case: u32) -> Self {
        CaseGuard {
            property,
            case,
            armed: true,
        }
    }

    /// Disarms the guard: the case completed without panicking.
    pub fn disarm(mut self) {
        self.armed = false;
    }
}

impl Drop for CaseGuard {
    fn drop(&mut self) {
        if self.armed && std::thread::panicking() {
            eprintln!(
                "proptest shim: property `{}` failed on case {} (cases are \
                 deterministic per test name; re-run reaches the same case)",
                self.property, self.case
            );
        }
    }
}

/// Everything a property test needs in scope.
pub mod prelude {
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest, Strategy};
}

/// Declares deterministic property tests (shim for `proptest::proptest!`).
///
/// Each function body runs once per generated case; failures panic with
/// the case index (cases are reproducible per test name). A block may open
/// with the real crate's `#![proptest_config(ProptestConfig::with_cases(n))]`
/// (the one configuration the shim reads): its properties then run `n`
/// cases in every build instead of the feature-dependent default, and
/// `PROPTEST_CASES` still wins over both.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config(ProptestConfig::with_cases($cases:expr))] $($rest:tt)*) => {
        $crate::proptest!(@cases ($cases) $($rest)*);
    };
    (@cases ($cases:expr) $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {$(
        $(#[$meta])*
        fn $name() {
            let cases = $crate::cases($cases);
            let mut rng = $crate::TestRng::deterministic(stringify!($name));
            for case in 0..cases {
                let guard = $crate::CaseGuard::new(stringify!($name), case);
                $(let $arg = $crate::Strategy::sample(&($strat), &mut rng);)+
                $body
                guard.disarm();
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@cases (if cfg!(feature = "slow-tests") { 256 } else { 48 }) $($rest)*);
    };
}

/// Shim for `prop_assert!` (no shrinking: plain assertion).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Shim for `prop_assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Shim for `prop_assert_ne!`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

#[cfg(test)]
mod tests {
    use super::collection;
    use super::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = TestRng::deterministic("ranges_respect_bounds");
        for _ in 0..1000 {
            let v = (3u32..17).sample(&mut rng);
            assert!((3..17).contains(&v));
            let f = (0.25f64..0.75).sample(&mut rng);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn streams_are_deterministic_per_name() {
        let mut a = TestRng::deterministic("x");
        let mut b = TestRng::deterministic("x");
        let mut c = TestRng::deterministic("y");
        let (va, vb, vc) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn vec_and_map_compose() {
        let mut rng = TestRng::deterministic("vec_and_map_compose");
        let strat = collection::vec((0u8..4, 1u64..9).prop_map(|(a, b)| u64::from(a) + b), 2..6);
        for _ in 0..100 {
            let v = strat.sample(&mut rng);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|&x| x <= 11));
        }
    }

    proptest! {
        #[test]
        fn the_macro_itself_works(x in 1u64..100, v in collection::vec(0u32..5, 0..10)) {
            prop_assert!(x >= 1);
            prop_assert_ne!(x, 0);
            prop_assert_eq!(v.iter().filter(|&&e| e < 5).count(), v.len());
        }

        #[test]
        #[should_panic]
        fn failing_properties_panic(x in 0u64..10) {
            // Also exercises the CaseGuard drop path, which names the
            // failing case on stderr.
            prop_assert!(x > 100);
        }
    }

    static CONFIGURED_CASES: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]
        fn configured_property(x in 0u64..10) {
            prop_assert!(x < 10);
            CONFIGURED_CASES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    #[test]
    fn a_configured_block_runs_its_own_case_count() {
        configured_property();
        let expected = cases(300);
        assert_eq!(
            CONFIGURED_CASES.load(std::sync::atomic::Ordering::Relaxed),
            expected
        );
    }
}
