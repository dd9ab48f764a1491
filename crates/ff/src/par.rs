//! The one fork-join behind every parallel kernel: FFT, MSM, fixed-base
//! keygen, verifying-key decode and the Groth16 reduction split their work
//! through [`workers`] / [`chunk_len`] (how many pieces a job is worth),
//! [`map`] (one closure per piece) and [`join`] (two closures at once).
//!
//! Under `std` a fan-out runs on scoped threads (no thread-pool
//! dependency) and the caller runs one item itself; without `std` — the
//! wasm verifier — every fan-out runs inline. Results come back in item
//! order either way. The core count is read per call, not cached, so a
//! change of CPU affinity applies at the next fan-out.

use alloc::vec::Vec;

/// How many workers `n` units of work are worth when each should own at
/// least `min_per_worker` of them: 1 without `std` or below
/// `2·min_per_worker`, otherwise `min(cores, n / min_per_worker)`.
pub fn workers(n: usize, min_per_worker: usize) -> usize {
    let min = min_per_worker.max(1);
    #[cfg(feature = "std")]
    let cores = std::thread::available_parallelism().map_or(1, |v| v.get());
    #[cfg(not(feature = "std"))]
    let cores = 1;
    if n < 2 * min {
        1
    } else {
        cores.min(n / min)
    }
}

/// The slice length that splits `n` units into [`workers`]`(n, min)`
/// contiguous chunks (at least 1, so it is a valid `chunks` argument even
/// for `n = 0`).
pub fn chunk_len(n: usize, min_per_worker: usize) -> usize {
    n.div_ceil(workers(n, min_per_worker)).max(1)
}

/// Applies `f` to every item and returns the results in item order.
///
/// Under `std` each item except the first gets a scoped thread and the
/// caller runs the first; a panic in any item resurfaces on the caller
/// with its own payload. Without `std` this is
/// `items.into_iter().map(f).collect()`.
pub fn map<I, R, F>(items: I, f: F) -> Vec<R>
where
    I: IntoIterator,
    I::Item: Send,
    R: Send,
    F: Fn(I::Item) -> R + Sync,
{
    #[cfg(feature = "std")]
    {
        let mut items = items.into_iter();
        let first = items.next();
        let f = &f;
        std::thread::scope(|scope| {
            let rest: Vec<_> = items
                .map(|item| scope.spawn(move || call(f, item)))
                .collect();
            let first = first.map(|item| call(f, item));
            first
                .into_iter()
                .chain(rest.into_iter().map(joined))
                .collect()
        })
    }
    #[cfg(not(feature = "std"))]
    {
        items.into_iter().map(f).collect()
    }
}

/// Runs `a` and `b` and returns both results: under `std` concurrently,
/// `b` on a scoped thread (its panic resurfaces with its own payload) and
/// `a` on the caller; without `std`, `a` then `b`.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB + Send,
    RB: Send,
{
    #[cfg(feature = "std")]
    {
        std::thread::scope(|scope| {
            let b = scope.spawn(b);
            (a(), joined(b))
        })
    }
    #[cfg(not(feature = "std"))]
    {
        (a(), b())
    }
}

/// `f(item)`, kept out of line so the caller and the workers share one
/// copy of the kernel's code.
#[cfg(feature = "std")]
#[inline(never)]
fn call<T, R>(f: &impl Fn(T) -> R, item: T) -> R {
    f(item)
}

/// A finished worker's result, or its panic re-raised with its own payload.
#[cfg(feature = "std")]
fn joined<T>(handle: std::thread::ScopedJoinHandle<'_, T>) -> T {
    handle
        .join()
        .unwrap_or_else(|e| std::panic::resume_unwind(e))
}

#[cfg(test)]
mod tests {
    // the test harness links std in both lanes; the crate itself may not
    extern crate std;

    use super::*;
    use alloc::vec;
    use core::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_runs_every_item_once_in_order() {
        for n in [0usize, 1, 1000] {
            let calls: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let out = map(0..n, |i| {
                calls[i].fetch_add(1, Ordering::Relaxed);
                2 * i
            });
            assert_eq!(out, (0..n).map(|i| 2 * i).collect::<Vec<_>>(), "n = {n}");
            assert!(
                calls.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                "n = {n}"
            );
        }
    }

    #[test]
    fn a_single_item_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        assert_eq!(map([()], |()| std::thread::current().id()), [caller]);
        let (a, _) = join(|| std::thread::current().id(), || ());
        assert_eq!(a, caller);
    }

    #[test]
    #[should_panic(expected = "item 3 failed")]
    fn a_worker_panic_keeps_its_message() {
        map(0..5, |i| {
            if i == 3 {
                panic!("item {i} failed");
            }
            i
        });
    }

    #[test]
    #[should_panic(expected = "right side failed")]
    fn a_join_panic_keeps_its_message() {
        join(|| 1, || -> u32 { panic!("right side failed") });
    }

    #[test]
    fn join_returns_both_results() {
        let (a, (b, c)) = join(|| 1u32, || join(|| "two", || vec![3u8]));
        assert_eq!((a, b, c), (1, "two", vec![3]));
    }

    #[test]
    fn worker_counts_keep_their_bounds() {
        assert_eq!(chunk_len(0, 16), 1);
        assert_eq!(chunk_len(0, 1), 1);
        for min in [1usize, 2, 16, 512, 1 << 12] {
            for n in [0, 1, min, 2 * min - 1, 2 * min, 3 * min + 1, 1 << 20] {
                let w = workers(n, min);
                let c = chunk_len(n, min);
                assert!(w >= 1, "n = {n}, min = {min}");
                if n < 2 * min {
                    assert_eq!(w, 1, "n = {n}, min = {min}");
                } else {
                    assert!(w <= n / min, "n = {n}, min = {min}");
                }
                assert!(c * w >= n, "n = {n}, min = {min}");
                if cfg!(not(feature = "std")) {
                    assert_eq!(w, 1);
                }
            }
        }
    }
}
