//! Offline stand-in for `proptest`.
//!
//! The build environment has no registry access, so the workspace vendors a
//! minimal property-testing core with the same spelling as the real crate:
//! the [`strategy::Strategy`] trait with `prop_map`/`prop_flat_map`, range
//! and tuple strategies, [`collection::vec`], [`option::of`], `any::<T>()`,
//! regex-flavoured `&str` strategies (approximated), and the `proptest!`,
//! `prop_assert*!`, and `prop_oneof!` macros.
//!
//! Differences from upstream, deliberately accepted:
//! * **No shrinking.** A failing case reports its deterministic seed
//!   (test name + case index) and its input as generated, not a minimized
//!   one. A case whose body panics is reported the same way, and its panic
//!   then resumes with that report appended to its message.
//! * **Deterministic by construction.** Case `i` of test `t` always sees
//!   the same inputs, so failures reproduce without a persistence file.

// Boxed-closure strategy types mirror the upstream crate's API shape.
#![allow(clippy::type_complexity)]

pub mod test_runner;

pub mod strategy;

pub mod arbitrary;

pub mod collection;

pub mod option;

pub mod prelude {
    //! Glob-import surface mirroring `proptest::prelude`.
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Define property tests. Supports an optional leading
/// `#![proptest_config(expr)]` and any number of `#[test]` functions whose
/// arguments are `pattern in strategy` pairs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = ($crate::test_runner::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = ($cfg:expr); ) => {};
    (cfg = ($cfg:expr);
        $(#[$meta:meta])*
        fn $name:ident ( $($pat:pat in $strat:expr),+ $(,)? ) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg = $cfg;
            let __test_name = concat!(module_path!(), "::", stringify!($name));
            for __case in 0..__cfg.cases {
                let mut __rng =
                    $crate::test_runner::TestRng::for_case(__test_name, __case as u64);
                // Each input as `pattern = value`, formatted before the
                // pattern binds (and perhaps moves) it.
                let mut __input = ::std::string::String::new();
                $(
                    let __value = $crate::strategy::Strategy::generate(&($strat), &mut __rng);
                    __input += &::std::format!("\n  {} = {:?}", stringify!($pat), __value);
                    let $pat = __value;
                )+
                let __out = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(
                    move || -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                        $body
                        ::std::result::Result::Ok(())
                    },
                ));
                let __at = |how: &str| {
                    ::std::format!(
                        "proptest {} {} at case {}/{} on input:{}",
                        __test_name, how, __case, __cfg.cases, __input
                    )
                };
                match __out {
                    ::std::result::Result::Ok(::std::result::Result::Ok(())) => {}
                    ::std::result::Result::Ok(::std::result::Result::Err(e)) => {
                        panic!("{}\n{}", __at("failed"), e)
                    }
                    // Print the report, then resume the panic; a message
                    // resumes with the report appended, so whoever catches
                    // it sees the report too.
                    ::std::result::Result::Err(panic) => {
                        let report = __at("panicked");
                        ::std::eprintln!("{}", report);
                        let message = match panic.downcast_ref::<&str>() {
                            ::std::option::Option::Some(m) => ::std::option::Option::Some(m.to_string()),
                            ::std::option::Option::None => {
                                panic.downcast_ref::<::std::string::String>().cloned()
                            }
                        };
                        match message {
                            ::std::option::Option::Some(m) => ::std::panic::resume_unwind(
                                ::std::boxed::Box::new(::std::format!("{}\n{}", m, report)),
                            ),
                            ::std::option::Option::None => ::std::panic::resume_unwind(panic),
                        }
                    }
                }
            }
        }
        $crate::__proptest_impl! { cfg = ($cfg); $($rest)* }
    };
}

/// Soft assertion: fails the current case (with its deterministic seed)
/// instead of panicking outright.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Soft equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: `left == right`\n  left: {:?}\n right: {:?}", l, r),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!(
                    "assertion failed: `left == right`\n  left: {:?}\n right: {:?}\n{}",
                    l, r, format!($($fmt)+),
                ),
            ));
        }
    }};
}

/// Soft inequality assertion.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `left != right`\n  both: {:?}",
                l
            )));
        }
    }};
}

/// Uniform choice among several strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {{
        let mut u = $crate::strategy::Union::empty();
        $( u.push($strat); )+
        u
    }};
}
