//! A minimal property-testing harness — the in-repo replacement for the
//! `proptest` crate, covering exactly what the workspace's suites use.
//!
//! Write suites with [`mlv_proptest!`](crate::mlv_proptest):
//!
//! ```
//! use mlv_core::{mlv_proptest, prop, prop_assert, prop_assert_eq, prop_assume};
//!
//! mlv_proptest! {
//!     cases = 64; // optional; defaults to [`DEFAULT_CASES`]
//!
//!     // in a real suite, mark each property with `#[test]`
//!     fn addition_commutes(a in 0u64..1000, b in 0u64..1000) {
//!         prop_assume!(a != b);
//!         prop_assert_eq!(a + b, b + a);
//!         prop_assert!(a + b >= a, "overflowed: {} {}", a, b);
//!     }
//! }
//!
//! addition_commutes();
//! ```
//!
//! Generators are [`Gen`] values: integer ranges (`0u64..1000`), tuples
//! of generators, and [`fn@vec`]`(gen, len_range)`. Each test runs a fixed
//! number of generated cases (override globally with
//! `MLV_PROPTEST_CASES`); the case stream is derived deterministically
//! from the test's name, so runs are reproducible without any
//! bookkeeping, and `MLV_PROPTEST_SEED` re-seeds the whole stream when
//! exploring. There is **no shrinking**: a falsified property reports
//! the generated inputs and the per-case seed verbatim.

use crate::fnv::{fnv1a, FNV_BASIS};
use crate::rng::{Rng, SplitMix64};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Default number of generated cases per property.
pub const DEFAULT_CASES: usize = 256;

/// Why a single generated case did not pass.
#[derive(Debug)]
pub enum CaseError {
    /// `prop_assume!` rejected the inputs; the case does not count.
    Reject,
    /// A `prop_assert!`-family macro falsified the property.
    Fail(String),
}

/// A value generator: draws one `Value` from the case RNG.
pub trait Gen {
    /// The generated type.
    type Value: std::fmt::Debug;
    /// Draw one value.
    fn generate(&self, rng: &mut Rng) -> Self::Value;
}

macro_rules! impl_gen_for_int_range {
    ($($t:ty),+ $(,)?) => {$(
        impl Gen for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "empty generator range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.bounded_u64(span) as i128) as $t
            }
        }
    )+};
}

impl_gen_for_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<A: Gen, B: Gen> Gen for (A, B) {
    type Value = (A::Value, B::Value);
    fn generate(&self, rng: &mut Rng) -> Self::Value {
        (self.0.generate(rng), self.1.generate(rng))
    }
}

impl<A: Gen, B: Gen, C: Gen> Gen for (A, B, C) {
    type Value = (A::Value, B::Value, C::Value);
    fn generate(&self, rng: &mut Rng) -> Self::Value {
        (
            self.0.generate(rng),
            self.1.generate(rng),
            self.2.generate(rng),
        )
    }
}

impl<A: Gen, B: Gen, C: Gen, D: Gen> Gen for (A, B, C, D) {
    type Value = (A::Value, B::Value, C::Value, D::Value);
    fn generate(&self, rng: &mut Rng) -> Self::Value {
        (
            self.0.generate(rng),
            self.1.generate(rng),
            self.2.generate(rng),
            self.3.generate(rng),
        )
    }
}

/// Generator of `Vec`s: a length drawn from `len`, then that many
/// elements from `element`.
pub struct VecGen<G> {
    element: G,
    len: std::ops::Range<usize>,
}

/// `Vec` generator with a length range — the counterpart of
/// `proptest::collection::vec`.
pub fn vec<G: Gen>(element: G, len: std::ops::Range<usize>) -> VecGen<G> {
    VecGen { element, len }
}

impl<G: Gen> Gen for VecGen<G> {
    type Value = Vec<G::Value>;
    fn generate(&self, rng: &mut Rng) -> Self::Value {
        let n = if self.len.start < self.len.end {
            rng.gen_range_usize(self.len.clone())
        } else {
            self.len.start
        };
        (0..n).map(|_| self.element.generate(rng)).collect()
    }
}

fn env_usize(var: &str) -> Option<usize> {
    std::env::var(var).ok()?.trim().parse().ok()
}

fn env_u64(var: &str) -> Option<u64> {
    std::env::var(var).ok()?.trim().parse().ok()
}

/// Drive one property: generate and run up to `default_cases` accepted
/// cases (env `MLV_PROPTEST_CASES` overrides). The driver panics — with
/// the test name, per-case seed, and the generated inputs — on the
/// first falsified case or body panic. Called by the
/// [`mlv_proptest!`](crate::mlv_proptest) expansion; not usually by hand.
pub fn run<F>(name: &str, default_cases: usize, mut case: F)
where
    F: FnMut(&mut Rng, &mut String) -> Result<(), CaseError>,
{
    let cases = env_usize("MLV_PROPTEST_CASES")
        .unwrap_or(default_cases)
        .max(1);
    let base = env_u64("MLV_PROPTEST_SEED").unwrap_or_else(|| fnv1a(FNV_BASIS, name.as_bytes()));
    let max_attempts = (cases as u64).saturating_mul(20);
    let mut executed = 0usize;
    let mut attempt = 0u64;
    while executed < cases {
        assert!(
            attempt < max_attempts,
            "property '{name}': only {executed}/{cases} cases accepted after \
             {attempt} attempts — prop_assume! rejects too much"
        );
        let seed = SplitMix64(base.wrapping_add(attempt)).next_u64();
        attempt += 1;
        let mut rng = Rng::seed_from_u64(seed);
        let mut inputs = String::new();
        let outcome = catch_unwind(AssertUnwindSafe(|| case(&mut rng, &mut inputs)));
        match outcome {
            Ok(Ok(())) => executed += 1,
            Ok(Err(CaseError::Reject)) => {}
            Ok(Err(CaseError::Fail(msg))) => panic!(
                "property '{name}' falsified on case {executed} (seed {seed:#018x}):\n\
                 {inputs}  {msg}"
            ),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("<non-string panic payload>");
                panic!(
                    "property '{name}' panicked on case {executed} (seed {seed:#018x}):\n\
                     {inputs}  panic: {msg}"
                )
            }
        }
    }
}

/// Define property tests: a block of `#[test] fn name(pat in gen, ...)`
/// items, optionally preceded by `cases = N;`. See the [module
/// docs](crate::prop) for the full shape.
#[macro_export]
macro_rules! mlv_proptest {
    (@items $cases:expr; ) => {};
    (@items $cases:expr;
        $(#[$meta:meta])*
        fn $name:ident( $($arg:pat in $gen:expr),+ $(,)? ) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            $crate::prop::run(::core::stringify!($name), $cases, |__mlv_rng, __mlv_inputs| {
                $(
                    let __mlv_v = $crate::prop::Gen::generate(&($gen), __mlv_rng);
                    __mlv_inputs.push_str(&::std::format!(
                        "  {} = {:?}\n",
                        ::core::stringify!($arg),
                        __mlv_v
                    ));
                    let $arg = __mlv_v;
                )+
                $body
                ::core::result::Result::Ok(())
            });
        }
        $crate::mlv_proptest!(@items $cases; $($rest)*);
    };
    (cases = $cases:expr; $($rest:tt)*) => {
        $crate::mlv_proptest!(@items $cases; $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::mlv_proptest!(@items $crate::prop::DEFAULT_CASES; $($rest)*);
    };
}

/// Property assertion: falsifies the enclosing
/// [`mlv_proptest!`](crate::mlv_proptest) case when the condition is
/// false. An optional format string adds detail.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", ::core::stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::prop::CaseError::Fail(
                ::std::format!(
                    "{}:{}: {}",
                    ::core::file!(),
                    ::core::line!(),
                    ::std::format!($($fmt)+)
                ),
            ));
        }
    };
}

/// Property equality assertion (Debug-printing both sides on failure).
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__mlv_l, __mlv_r) = (&$left, &$right);
        $crate::prop_assert!(
            *__mlv_l == *__mlv_r,
            "{} == {}\n    left: {:?}\n   right: {:?}",
            ::core::stringify!($left),
            ::core::stringify!($right),
            __mlv_l,
            __mlv_r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__mlv_l, __mlv_r) = (&$left, &$right);
        $crate::prop_assert!(
            *__mlv_l == *__mlv_r,
            "{} == {} ({})\n    left: {:?}\n   right: {:?}",
            ::core::stringify!($left),
            ::core::stringify!($right),
            ::std::format!($($fmt)+),
            __mlv_l,
            __mlv_r
        );
    }};
}

/// Property inequality assertion (Debug-printing both sides on failure).
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__mlv_l, __mlv_r) = (&$left, &$right);
        $crate::prop_assert!(
            *__mlv_l != *__mlv_r,
            "{} != {}\n    both: {:?}",
            ::core::stringify!($left),
            ::core::stringify!($right),
            __mlv_l
        );
    }};
}

/// Reject the current generated case without failing the property
/// (rejections do not count toward the case budget).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::prop::CaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate as mlv_core;
    use mlv_core::prop;

    mlv_proptest! {
        cases = 64;

        /// The harness itself: ranges respect bounds, vec lengths land
        /// in range, assume-rejection works.
        #[test]
        fn generators_respect_bounds(
            x in -50i64..50,
            v in prop::vec(0u32..10, 1..8),
            (a, b) in (0usize..5, 3u8..9),
        ) {
            prop_assume!(x != 49); // exercise rejection
            prop_assert!((-50..50).contains(&x));
            prop_assert!(!v.is_empty() && v.len() < 8, "len {}", v.len());
            prop_assert!(v.iter().all(|&e| e < 10));
            prop_assert!(a < 5);
            prop_assert!((3..9).contains(&b));
            prop_assert_eq!(a + 1, 1 + a);
            prop_assert_ne!(b, 0);
        }
    }

    #[test]
    fn failing_property_reports_inputs() {
        let result = std::panic::catch_unwind(|| {
            crate::prop::run("always_fails", 8, |rng, inputs| {
                let v = crate::prop::Gen::generate(&(0u32..100), rng);
                inputs.push_str(&format!("  v = {v:?}\n"));
                Err(crate::prop::CaseError::Fail("forced".into()))
            });
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("always_fails"), "{msg}");
        assert!(msg.contains("v = "), "{msg}");
        assert!(msg.contains("forced"), "{msg}");
    }

    #[test]
    fn case_stream_is_deterministic() {
        let collect = || {
            let mut seen = Vec::new();
            crate::prop::run("det_stream", 16, |rng, _| {
                seen.push(crate::prop::Gen::generate(&(0u64..1_000_000), rng));
                Ok(())
            });
            seen
        };
        assert_eq!(collect(), collect());
    }
}
