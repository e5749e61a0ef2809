//! Generic bounded top-k selection.
//!
//! Algorithm 1 of the paper (`subList(k, sort(similarity))`) is a "sort then
//! take a prefix" operation over streamed scores. [`TopK`] implements it with
//! a bounded min-heap so a client widget never materialises or sorts the full
//! candidate score array — `O(n log k)` instead of `O(n log n)`, which
//! matters on the smartphone-class devices of Section 5.6. The offline
//! back-end's KNN sweep uses it too.
//!
//! Algorithm 2 (`subList(r, sort(popularity))`) no longer goes through here:
//! `recommend` ranks its already-materialised popularity table in place,
//! by score and then by item id.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An entry in a [`TopK`] collector: a value with its score.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Scored<T> {
    score: f64,
    value: T,
}

// Min-heap ordering on score (ties broken by nothing: equal scores compare
// equal, so eviction among equals is arbitrary but bounded).
impl<T: PartialEq> Eq for Scored<T> {}

impl<T: PartialEq> PartialOrd for Scored<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T: PartialEq> Ord for Scored<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the *worst* on top.
        other
            .score
            .partial_cmp(&self.score)
            .unwrap_or(Ordering::Equal)
    }
}

/// Bounded top-k collector over `(value, score)` pairs.
///
/// Keeps the `k` highest-scoring values seen so far. NaN scores are rejected
/// by [`TopK::push`] returning `false`.
///
/// ```
/// use hyrec_core::topk::TopK;
/// let mut top = TopK::new(2);
/// top.push("a", 0.1);
/// top.push("b", 0.9);
/// top.push("c", 0.5);
/// let ranked = top.into_sorted_vec();
/// assert_eq!(ranked.iter().map(|(v, _)| *v).collect::<Vec<_>>(), vec!["b", "c"]);
/// ```
#[derive(Debug, Clone)]
pub struct TopK<T> {
    k: usize,
    heap: BinaryHeap<Scored<T>>,
}

impl<T: PartialEq> TopK<T> {
    /// Creates a collector that retains at most `k` values.
    #[must_use]
    pub fn new(k: usize) -> Self {
        Self {
            k,
            // Capacity is a hint only: callers may pass k = usize::MAX to
            // mean "keep everything", which must not pre-allocate.
            heap: BinaryHeap::with_capacity(k.saturating_add(1).min(4096)),
        }
    }

    /// Offers a value; returns `false` if it was rejected (not in the top-k,
    /// `k == 0`, or a NaN score).
    pub fn push(&mut self, value: T, score: f64) -> bool {
        if self.k == 0 || score.is_nan() {
            return false;
        }
        if self.heap.len() < self.k {
            self.heap.push(Scored { score, value });
            return true;
        }
        // Heap top is the current minimum.
        if let Some(min) = self.heap.peek() {
            if score > min.score {
                self.heap.pop();
                self.heap.push(Scored { score, value });
                return true;
            }
        }
        false
    }

    /// Number of values currently retained (`<= k`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no value has been retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The current k-th best (lowest retained) score, if any.
    #[must_use]
    pub fn threshold(&self) -> Option<f64> {
        if self.heap.len() < self.k {
            None
        } else {
            self.heap.peek().map(|s| s.score)
        }
    }

    /// Consumes the collector, returning `(value, score)` pairs sorted by
    /// descending score.
    #[must_use]
    pub fn into_sorted_vec(self) -> Vec<(T, f64)> {
        let mut items: Vec<(T, f64)> = self.heap.into_iter().map(|s| (s.value, s.score)).collect();
        items.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(Ordering::Equal));
        items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_best_k() {
        let mut top = TopK::new(3);
        for (i, s) in [0.2, 0.9, 0.4, 0.7, 0.1].iter().enumerate() {
            top.push(i, *s);
        }
        let got: Vec<usize> = top.into_sorted_vec().into_iter().map(|(v, _)| v).collect();
        assert_eq!(got, vec![1, 3, 2]);
    }

    #[test]
    fn zero_k_rejects_everything() {
        let mut top = TopK::new(0);
        assert!(!top.push(1, 1.0));
        assert!(top.is_empty());
    }

    #[test]
    fn nan_scores_are_rejected() {
        let mut top = TopK::new(2);
        assert!(!top.push(1, f64::NAN));
        assert!(top.push(2, 0.5));
        assert_eq!(top.len(), 1);
    }

    #[test]
    fn threshold_tracks_kth_best() {
        let mut top = TopK::new(2);
        assert_eq!(top.threshold(), None);
        top.push(1, 0.3);
        assert_eq!(top.threshold(), None);
        top.push(2, 0.8);
        assert_eq!(top.threshold(), Some(0.3));
        top.push(3, 0.5);
        assert_eq!(top.threshold(), Some(0.5));
    }

    #[test]
    fn fewer_items_than_k() {
        let mut top = TopK::new(10);
        top.push("only", 0.4);
        let v = top.into_sorted_vec();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].0, "only");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn matches_naive_sort(
                scores in proptest::collection::vec(0.0f64..1.0, 0..200),
                k in 1usize..20,
            ) {
                let mut top = TopK::new(k);
                for (i, s) in scores.iter().enumerate() {
                    top.push(i, *s);
                }
                let got: Vec<f64> = top.into_sorted_vec().into_iter().map(|(_, s)| s).collect();

                let mut naive = scores.clone();
                naive.sort_by(|a, b| b.partial_cmp(a).unwrap());
                naive.truncate(k);

                prop_assert_eq!(got.len(), naive.len());
                for (g, n) in got.iter().zip(naive.iter()) {
                    prop_assert!((g - n).abs() < 1e-12);
                }
            }

            #[test]
            fn never_exceeds_k(
                scores in proptest::collection::vec(0.0f64..1.0, 0..100),
                k in 0usize..10,
            ) {
                let mut top = TopK::new(k);
                for (i, s) in scores.iter().enumerate() {
                    top.push(i, *s);
                }
                prop_assert!(top.len() <= k);
            }
        }
    }
}
