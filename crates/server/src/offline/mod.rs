//! Offline KNN back-ends — the centralized alternatives of Figure 7.
//!
//! All three back-ends consume a profile snapshot and produce a complete
//! KNN table; they differ in algorithm and cost:
//!
//! * [`ExhaustiveBackend`] (*Offline-Ideal*): all-pairs similarity, exact.
//! * [`CRecBackend`] (*Offline-CRec*): HyRec's sampling iterations run as
//!   synchronous map-reduce rounds until convergence — approximate but far
//!   cheaper, and the baseline the paper selects for the cost analysis.
//! * [`MahoutLikeBackend`] (*MahoutSingle*/*ClusMahout*): exact KNN through
//!   an item-inverted index with the materialized shuffle stages (and
//!   posting caps) characteristic of Mahout's Hadoop implementation.

mod crec_backend;
mod exhaustive;
mod mahout_like;

pub use crec_backend::CRecBackend;
pub use exhaustive::ExhaustiveBackend;
pub use mahout_like::MahoutLikeBackend;

use hyrec_core::{Neighborhood, SharedProfile, UserId};

/// A periodic KNN-selection back-end (the paper's "back-end server").
pub trait OfflineBackend: Send + Sync {
    /// Computes the k-nearest-neighbour table for every user in `profiles`.
    ///
    /// Takes shared profile handles — a `UserTable::snapshot()` or a
    /// trace's `final_profiles()` feeds in without copying any item vector.
    /// Result order matches the input order.
    fn compute(
        &self,
        profiles: &[(UserId, SharedProfile)],
        k: usize,
    ) -> Vec<(UserId, Neighborhood)>;

    /// Short stable name for experiment output.
    fn name(&self) -> &'static str;
}

/// Splits `items` into `workers` contiguous chunks and maps them in
/// parallel with std scoped threads, preserving order.
pub(crate) fn parallel_chunks<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Send + Sync,
{
    let workers = workers.max(1).min(items.len().max(1));
    if workers <= 1 || items.len() < 2 {
        return items.iter().map(&f).collect();
    }
    let chunk_size = items.len().div_ceil(workers);
    let mut results: Vec<Vec<R>> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_size)
            .map(|chunk| scope.spawn(|| chunk.iter().map(&f).collect::<Vec<R>>()))
            .collect();
        for handle in handles {
            results.push(handle.join().expect("worker panicked"));
        }
    });
    results.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_chunks_preserves_order() {
        let items: Vec<u32> = (0..1000).collect();
        for workers in [1, 2, 3, 8] {
            let doubled = parallel_chunks(&items, workers, |&x| x * 2);
            assert_eq!(doubled.len(), 1000);
            assert!(doubled.iter().enumerate().all(|(i, &v)| v == i as u32 * 2));
        }
    }

    #[test]
    fn parallel_chunks_handles_empty_and_tiny() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_chunks(&empty, 4, |&x| x).is_empty());
        assert_eq!(parallel_chunks(&[7u32], 4, |&x| x + 1), vec![8]);
    }
}
