//! In-tree shim for the `proptest` crate.
//!
//! Implements the subset of proptest the workspace's property tests use:
//! the [`Strategy`](strategy::Strategy) trait with `prop_map`,
//! `prop_recursive` and `boxed`; range / tuple / string-pattern
//! strategies; `collection::{vec, btree_map}`; `prop_oneof!` (plain and
//! weighted); `Just`; `any::<T>()`; and the `proptest!` /
//! `prop_assert*!` macros. Cases are generated from a deterministic
//! per-test seed so failures reproduce; there is **no shrinking** — the
//! failing inputs are printed instead.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod arbitrary;
pub mod bool;
pub mod collection;
pub mod prelude;
pub mod strategy;
pub mod string;
pub mod test_runner;

/// Runs `cases` generated test cases. Used by the [`proptest!`] macro.
pub fn run_proptest<F>(config: &test_runner::ProptestConfig, name: &str, mut case: F)
where
    F: FnMut(&mut test_runner::TestRng, &mut Vec<String>) -> Result<(), test_runner::TestCaseError>,
{
    for i in 0..config.cases {
        let seed = test_runner::seed_for(name, i);
        let mut rng = test_runner::TestRng::from_seed(seed);
        let mut inputs = Vec::new();
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| case(&mut rng, &mut inputs)));
        match outcome {
            Ok(Ok(())) => {}
            Ok(Err(e)) => panic!(
                "proptest {name}: case {i}/{} failed: {e}\n  inputs:\n{}",
                config.cases,
                render_inputs(&inputs)
            ),
            Err(payload) => {
                eprintln!(
                    "proptest {name}: case {i}/{} panicked\n  inputs:\n{}",
                    config.cases,
                    render_inputs(&inputs)
                );
                std::panic::resume_unwind(payload);
            }
        }
    }
}

fn render_inputs(inputs: &[String]) -> String {
    inputs
        .iter()
        .map(|s| format!("    {s}"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Defines property-test functions: `proptest! { #[test] fn f(x in strat) { .. } }`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            cfg = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
    )*) => { $(
        $(#[$meta])*
        fn $name() {
            $crate::run_proptest(
                &($cfg),
                concat!(module_path!(), "::", stringify!($name)),
                |__rng, __inputs| {
                    $(
                        let __value = $crate::strategy::Strategy::generate(&($strat), __rng);
                        __inputs.push(format!(
                            "{} = {:?}",
                            stringify!($pat),
                            &__value
                        ));
                        let $pat = __value;
                    )+
                    $body
                    ::std::result::Result::Ok(())
                },
            );
        }
    )* };
}

/// Chooses between strategies, optionally weighted: `prop_oneof![a, b]`
/// or `prop_oneof![3 => a, 1 => b]`.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $((1u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
}

/// Asserts a condition inside `proptest!`, failing the case (not the
/// whole process) so the inputs get reported.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

/// Asserts equality inside `proptest!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: `{:?}` == `{:?}`",
            __l,
            __r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: `{:?}` == `{:?}`: {}",
            __l,
            __r,
            format!($($fmt)+)
        );
    }};
}

/// Asserts inequality inside `proptest!`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l != *__r,
            "assertion failed: `{:?}` != `{:?}`",
            __l,
            __r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l != *__r,
            "assertion failed: `{:?}` != `{:?}`: {}",
            __l,
            __r,
            format!($($fmt)+)
        );
    }};
}
