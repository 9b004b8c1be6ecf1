//! Collection strategies (`proptest::collection::vec`).

use std::ops::{Range, RangeInclusive};

use crate::rng::TestRng;
use crate::strategy::Strategy;

/// Length specification accepted by [`vec()`].
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    hi: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty length range");
        SizeRange { lo: r.start, hi: r.end - 1 }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty length range");
        SizeRange { lo: *r.start(), hi: *r.end() }
    }
}

/// Strategy for vectors of values drawn from `element`.
#[must_use]
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy { element, size: size.into() }
}

/// See [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.size.hi - self.size.lo + 1) as u64;
        let len = self.size.lo + rng.bounded_u64(span) as usize;
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths_stay_in_range() {
        let mut rng = TestRng::seed_from_u64(5);
        let s = vec(0usize..10, 2..6);
        for _ in 0..200 {
            let v = s.generate(&mut rng);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 10));
        }
    }

    #[test]
    fn fixed_length() {
        let mut rng = TestRng::seed_from_u64(5);
        assert_eq!(vec(0u32..5, 3).generate(&mut rng).len(), 3);
    }
}
