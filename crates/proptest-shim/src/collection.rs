//! Collection strategies (`prop::collection::vec`).

use std::ops::{Range, RangeInclusive};

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// Length specifications accepted by [`vec()`]: a fixed length or an
/// (inclusive / exclusive) range of lengths.
pub trait SizeRange {
    /// The inclusive `(min, max)` length bounds.
    fn bounds(&self) -> (usize, usize);
}

impl SizeRange for usize {
    fn bounds(&self) -> (usize, usize) {
        (*self, *self)
    }
}

impl SizeRange for Range<usize> {
    fn bounds(&self) -> (usize, usize) {
        assert!(self.end > self.start, "empty vec length range");
        (self.start, self.end - 1)
    }
}

impl SizeRange for RangeInclusive<usize> {
    fn bounds(&self) -> (usize, usize) {
        assert!(self.end() >= self.start(), "empty vec length range");
        (*self.start(), *self.end())
    }
}

/// Strategy returned by [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    min: usize,
    max: usize,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = self.min + rng.below((self.max - self.min + 1) as u64) as usize;
        (0..len).map(|_| self.element.sample(rng)).collect()
    }
}

/// A strategy for `Vec`s whose length is drawn from `size` and whose
/// elements are drawn from `element`.
pub fn vec<S: Strategy>(element: S, size: impl SizeRange) -> VecStrategy<S> {
    let (min, max) = size.bounds();
    VecStrategy { element, min, max }
}
