//! The [`Strategy`] trait and the core combinators.

use std::fmt::Debug;
use std::ops::{Range, RangeFrom, RangeInclusive};
use std::sync::Arc;

use crate::test_runner::TestRng;

/// A generator of values for property tests.
///
/// Unlike real proptest there is no value tree / shrinking: `generate`
/// draws one value directly from the RNG.
pub trait Strategy {
    /// The type of generated values.
    type Value: Debug;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        O: Debug,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Erases the concrete strategy type behind a cheaply clonable handle.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Arc::new(self))
    }

    /// Builds a recursive strategy: `self` generates leaves, and
    /// `recurse` wraps an inner strategy into one level of nesting.
    /// `depth` bounds the nesting; the size/branch hints are accepted for
    /// compatibility but unused.
    fn prop_recursive<R, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        recurse: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        R: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> R,
    {
        let leaf = self.boxed();
        let mut strat = leaf.clone();
        for _ in 0..depth {
            let deeper = recurse(strat).boxed();
            strat = Union::new(vec![(2, leaf.clone()), (1, deeper)]).boxed();
        }
        strat
    }
}

/// Always generates a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone + Debug>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
#[derive(Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    O: Debug,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

trait DynStrategy<V> {
    fn generate_dyn(&self, rng: &mut TestRng) -> V;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn generate_dyn(&self, rng: &mut TestRng) -> S::Value {
        self.generate(rng)
    }
}

/// A type-erased, cheaply clonable strategy handle.
pub struct BoxedStrategy<V>(Arc<dyn DynStrategy<V>>);

impl<V> Clone for BoxedStrategy<V> {
    fn clone(&self) -> Self {
        BoxedStrategy(Arc::clone(&self.0))
    }
}

impl<V: Debug> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        self.0.generate_dyn(rng)
    }
}

impl<V> std::fmt::Debug for BoxedStrategy<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("BoxedStrategy")
    }
}

/// Weighted choice between strategies; built by `prop_oneof!`.
#[derive(Clone)]
pub struct Union<V> {
    options: Vec<(u32, BoxedStrategy<V>)>,
    total: u64,
}

impl<V> Union<V> {
    /// Builds a union; weights must not all be zero.
    pub fn new(options: Vec<(u32, BoxedStrategy<V>)>) -> Self {
        let total = options.iter().map(|(w, _)| *w as u64).sum();
        assert!(total > 0, "prop_oneof! needs at least one weighted option");
        Union { options, total }
    }
}

impl<V: Debug> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let mut pick = rng.below(self.total);
        for (w, strat) in &self.options {
            if pick < *w as u64 {
                return strat.generate(rng);
            }
            pick -= *w as u64;
        }
        unreachable!("weights sum mismatch")
    }
}

macro_rules! uint_range_strategies {
    ($($ty:ty),*) => { $(
        impl Strategy for Range<$ty> {
            type Value = $ty;
            fn generate(&self, rng: &mut TestRng) -> $ty {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u128;
                self.start + rng.below_u128(span) as $ty
            }
        }
        impl Strategy for RangeInclusive<$ty> {
            type Value = $ty;
            fn generate(&self, rng: &mut TestRng) -> $ty {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi - lo) as u128 + 1;
                lo + rng.below_u128(span) as $ty
            }
        }
        impl Strategy for RangeFrom<$ty> {
            type Value = $ty;
            fn generate(&self, rng: &mut TestRng) -> $ty {
                (self.start..=<$ty>::MAX).generate(rng)
            }
        }
    )* };
}

uint_range_strategies!(u8, u16, u32, u64, usize);

impl Strategy for Range<u128> {
    type Value = u128;
    fn generate(&self, rng: &mut TestRng) -> u128 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.below_u128(self.end - self.start)
    }
}

macro_rules! int_range_strategies {
    ($($ty:ty),*) => { $(
        impl Strategy for Range<$ty> {
            type Value = $ty;
            fn generate(&self, rng: &mut TestRng) -> $ty {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + rng.below_u128(span) as i128) as $ty
            }
        }
        impl Strategy for RangeInclusive<$ty> {
            type Value = $ty;
            fn generate(&self, rng: &mut TestRng) -> $ty {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                (lo as i128 + rng.below_u128(span) as i128) as $ty
            }
        }
        impl Strategy for RangeFrom<$ty> {
            type Value = $ty;
            fn generate(&self, rng: &mut TestRng) -> $ty {
                (self.start..=<$ty>::MAX).generate(rng)
            }
        }
    )* };
}

int_range_strategies!(i8, i16, i32, i64, isize);

macro_rules! float_range_strategies {
    ($($ty:ty),*) => { $(
        impl Strategy for Range<$ty> {
            type Value = $ty;
            fn generate(&self, rng: &mut TestRng) -> $ty {
                assert!(self.start < self.end, "empty range strategy");
                self.start + rng.unit_f64() as $ty * (self.end - self.start)
            }
        }
        impl Strategy for RangeInclusive<$ty> {
            type Value = $ty;
            fn generate(&self, rng: &mut TestRng) -> $ty {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                lo + rng.unit_f64() as $ty * (hi - lo)
            }
        }
    )* };
}

float_range_strategies!(f32, f64);

macro_rules! tuple_strategies {
    ($(($($name:ident),+);)*) => { $(
        #[allow(non_snake_case)]
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )* };
}

tuple_strategies! {
    (A, B);
    (A, B, C);
    (A, B, C, D);
    (A, B, C, D, E);
    (A, B, C, D, E, F);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_runner::TestRng;

    #[test]
    fn ranges_and_unions_stay_in_bounds() {
        let mut rng = TestRng::from_seed(1);
        let u = crate::prop_oneof![2 => 0u32..10, 1 => 90u32..100];
        for _ in 0..200 {
            let v = u.generate(&mut rng);
            assert!(v < 10 || (90..100).contains(&v));
            let w = (-5i64..=5).generate(&mut rng);
            assert!((-5..=5).contains(&w));
        }
    }

    #[test]
    fn recursive_strategies_terminate() {
        #[derive(Debug, Clone)]
        enum Tree {
            Leaf(u8),
            Node(Vec<Tree>),
        }
        let strat = (0u8..16)
            .prop_map(Tree::Leaf)
            .prop_recursive(3, 16, 4, |inner| {
                crate::collection::vec(inner, 0..4).prop_map(Tree::Node)
            });
        // Levels of `Node` above the deepest leaf; every leaf is in range.
        fn depth(t: &Tree) -> u32 {
            match t {
                Tree::Leaf(v) => {
                    assert!(*v < 16, "leaf {v} out of range");
                    0
                }
                Tree::Node(children) => 1 + children.iter().map(depth).max().unwrap_or(0),
            }
        }
        let mut rng = TestRng::from_seed(9);
        for _ in 0..100 {
            assert!(depth(&strat.generate(&mut rng)) <= 3);
        }
    }
}
