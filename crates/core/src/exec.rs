//! Chunked data-parallel executor over [`std::thread::scope`].
//!
//! Work is split into one contiguous chunk per worker thread; each
//! worker produces its chunk's results, and chunks are recombined **in
//! input order**, so every function here returns byte-identical output
//! to its sequential equivalent. Thread count comes from
//! [`thread_count`]: a per-thread override (for tests), the
//! `MLV_THREADS` environment variable, or
//! [`std::thread::available_parallelism`], in that priority order.
//!
//! Inputs smaller than [`MIN_CHUNK`] items run inline on the calling
//! thread — spawning is not worth it below that.
//!
//! Every fan-out entry point snapshots the calling thread's installed
//! [`crate::trace`] stack and attaches it in each worker, so spans,
//! counters, and histograms recorded inside parallel work land in the
//! same trace aggregates as sequential execution.

use crate::trace;
use std::cell::Cell;
use std::num::NonZeroUsize;
use std::thread;

/// Inputs with at most this many items are processed sequentially.
pub const MIN_CHUNK: usize = 64;

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Run `f` with [`thread_count`] forced to `n` on the current thread.
///
/// This is the test hook for exercising the parallel paths on machines
/// with few cores (and the sequential path on machines with many): the
/// override applies to every executor call made while `f` runs.
pub fn with_thread_count<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let prev = THREAD_OVERRIDE.with(|c| c.replace(Some(n.max(1))));
    let result = f();
    THREAD_OVERRIDE.with(|c| c.set(prev));
    result
}

/// Worker threads used by the executor on this thread.
///
/// Priority: [`with_thread_count`] override, then `MLV_THREADS`, then
/// [`std::thread::available_parallelism`] (1 if unknown). The
/// environment and parallelism probe are read **once per process** and
/// cached: `available_parallelism` re-reads cgroup limits on Linux
/// (tens of microseconds in containers), far too slow for the pipeline
/// hot paths that gate on the thread count per realization. Tests
/// vary the count via [`with_thread_count`], which bypasses the cache.
pub fn thread_count() -> usize {
    if let Some(n) = THREAD_OVERRIDE.with(Cell::get) {
        return n;
    }
    static DEFAULT: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *DEFAULT.get_or_init(|| {
        if let Ok(v) = std::env::var("MLV_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
        thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

fn chunk_len(len: usize, threads: usize) -> usize {
    len.div_ceil(threads).max(1)
}

/// Parallel indexed map: equivalent to
/// `items.iter().enumerate().map(|(i, t)| f(i, t)).collect()`, with the
/// closure applied across [`thread_count`] scoped threads. Results are
/// returned in input order.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = thread_count();
    if threads <= 1 || items.len() <= MIN_CHUNK {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let chunk = chunk_len(items.len(), threads);
    let tstack = trace::snapshot();
    let per_chunk: Vec<Vec<R>> = thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .enumerate()
            .map(|(ci, c)| {
                let f = &f;
                let tstack = &tstack;
                s.spawn(move || {
                    trace::attach(tstack, || {
                        c.iter()
                            .enumerate()
                            .map(|(i, t)| f(ci * chunk + i, t))
                            .collect::<Vec<R>>()
                    })
                })
            })
            .collect();
        handles.into_iter().map(join_worker).collect()
    });
    let mut out = Vec::with_capacity(items.len());
    for mut v in per_chunk {
        out.append(&mut v);
    }
    out
}

/// Parallel indexed **chunk** fan-out: `f` is called once per
/// contiguous chunk with the chunk's starting index into `items`, and
/// its output `Vec`s are concatenated **in chunk order**. The
/// sequential fallback is a single call `f(0, items)`, so `f` must
/// produce, for any chunking, the concatenation of its per-item
/// outputs — i.e. chunk boundaries must not influence what any single
/// item contributes. Compared to [`par_map`] this lets the worker keep
/// per-chunk state (scratch buffers, batched allocation) across the
/// items of its chunk.
///
/// `min_items` overrides the executor's [`MIN_CHUNK`] inline threshold
/// for this call (callers tune it to the per-item cost).
pub fn par_chunk_map<T, R, F>(items: &[T], min_items: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> Vec<R> + Sync,
{
    let threads = thread_count();
    if threads <= 1 || items.len() <= min_items.max(1) {
        return f(0, items);
    }
    let chunk = chunk_len(items.len(), threads);
    let tstack = trace::snapshot();
    let per_chunk: Vec<Vec<R>> = thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .enumerate()
            .map(|(ci, c)| {
                let f = &f;
                let tstack = &tstack;
                s.spawn(move || trace::attach(tstack, || f(ci * chunk, c)))
            })
            .collect();
        handles.into_iter().map(join_worker).collect()
    });
    let mut out = Vec::with_capacity(per_chunk.iter().map(Vec::len).sum());
    for mut v in per_chunk {
        out.append(&mut v);
    }
    out
}

/// Parallel chunked fold-then-combine: each worker folds its contiguous
/// chunk with `fold` starting from a clone of `identity`, and the
/// per-chunk accumulators are combined **left to right in chunk order**
/// with `combine`. For `combine` associative with `identity` as a left
/// identity (sums, maxes, and tuples thereof), the result equals the
/// sequential fold exactly.
pub fn par_chunk_reduce<T, A, F, G>(items: &[T], identity: A, fold: F, combine: G) -> A
where
    T: Sync,
    A: Send + Clone,
    F: Fn(A, &T) -> A + Sync,
    G: Fn(A, A) -> A,
{
    let threads = thread_count();
    if threads <= 1 || items.len() <= MIN_CHUNK {
        return items.iter().fold(identity, fold);
    }
    let chunk = chunk_len(items.len(), threads);
    let tstack = trace::snapshot();
    let per_chunk: Vec<A> = thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|c| {
                let f = &fold;
                let id = identity.clone();
                let tstack = &tstack;
                s.spawn(move || trace::attach(tstack, || c.iter().fold(id, f)))
            })
            .collect();
        handles.into_iter().map(join_worker).collect()
    });
    let mut acc = identity;
    for a in per_chunk {
        acc = combine(acc, a);
    }
    acc
}

/// Parallel unstable sort: chunks are sorted on scoped threads, then
/// merged bottom-up through a double buffer. Total order on `T` makes
/// the result identical to `data.sort_unstable()`.
pub fn par_sort_unstable<T: Ord + Send + Copy>(data: &mut Vec<T>) {
    let threads = thread_count();
    if threads <= 1 || data.len() <= 2 * MIN_CHUNK {
        data.sort_unstable();
        return;
    }
    let run = chunk_len(data.len(), threads);
    thread::scope(|s| {
        for piece in data.chunks_mut(run) {
            s.spawn(move || piece.sort_unstable());
        }
    });
    // bottom-up merge of the sorted runs
    let mut src = std::mem::take(data);
    let mut dst: Vec<T> = Vec::with_capacity(src.len());
    let mut width = run;
    while width < src.len() {
        dst.clear();
        let mut i = 0;
        while i < src.len() {
            let mid = (i + width).min(src.len());
            let end = (i + 2 * width).min(src.len());
            merge_into(&src[i..mid], &src[mid..end], &mut dst);
            i = end;
        }
        std::mem::swap(&mut src, &mut dst);
        width *= 2;
    }
    *data = src;
}

fn merge_into<T: Ord + Copy>(a: &[T], b: &[T], out: &mut Vec<T>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

fn join_worker<R>(h: thread::ScopedJoinHandle<'_, R>) -> R {
    h.join()
        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_sequential() {
        let items: Vec<u64> = (0..10_000).collect();
        let seq: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, x)| x * 3 + i as u64)
            .collect();
        for threads in [1, 2, 4, 7] {
            let par = with_thread_count(threads, || par_map(&items, |i, x| x * 3 + i as u64));
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn par_chunk_map_matches_sequential() {
        let items: Vec<u64> = (0..9_999).collect();
        let seq: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, x)| x * 7 + i as u64)
            .collect();
        for threads in [1, 2, 4, 7] {
            let par = with_thread_count(threads, || {
                par_chunk_map(&items, 64, |start, chunk| {
                    chunk
                        .iter()
                        .enumerate()
                        .map(|(j, x)| x * 7 + (start + j) as u64)
                        .collect()
                })
            });
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn par_chunk_map_inline_below_threshold() {
        // below min_items the closure runs exactly once, inline
        let items: Vec<u32> = (0..100).collect();
        let calls = std::sync::atomic::AtomicUsize::new(0);
        let out = with_thread_count(4, || {
            par_chunk_map(&items, 1000, |start, chunk| {
                calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                assert_eq!(start, 0);
                chunk.to_vec()
            })
        });
        assert_eq!(out, items);
        assert_eq!(calls.load(std::sync::atomic::Ordering::SeqCst), 1);
    }

    #[test]
    fn par_chunk_reduce_matches_sequential() {
        let items: Vec<u64> = (1..=20_000).collect();
        let seq: (u64, u64) = items.iter().fold((0, 0), |a, &x| (a.0 + x, a.1.max(x)));
        let par = with_thread_count(5, || {
            par_chunk_reduce(
                &items,
                (0u64, 0u64),
                |a, &x| (a.0 + x, a.1.max(x)),
                |a, b| (a.0 + b.0, a.1.max(b.1)),
            )
        });
        assert_eq!(par, seq);
    }

    #[test]
    fn par_sort_matches_sequential() {
        let mut v: Vec<(u64, u32)> = Vec::new();
        let mut s = 0x1234_5678_9abc_def0u64;
        for i in 0..30_000u32 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            v.push((s % 997, i));
        }
        let mut seq = v.clone();
        seq.sort_unstable();
        with_thread_count(6, || par_sort_unstable(&mut v));
        assert_eq!(v, seq);
    }

    #[test]
    fn work_spreads_across_threads() {
        // even on a single-core machine the executor must actually use
        // >1 worker threads when asked to (acceptance: parallelism is
        // observable, not vestigial)
        let items: Vec<u32> = (0..10_000).collect();
        let ids = with_thread_count(4, || par_map(&items, |_, _| thread::current().id()));
        let distinct: std::collections::HashSet<_> = ids.iter().copied().collect();
        assert!(
            distinct.len() > 1,
            "expected >1 worker threads, saw {}",
            distinct.len()
        );
        // and the caller's thread does none of the chunk work
        assert!(!ids.contains(&thread::current().id()));
    }

    #[test]
    fn override_nests_and_restores() {
        with_thread_count(3, || {
            assert_eq!(thread_count(), 3);
            with_thread_count(1, || assert_eq!(thread_count(), 1));
            assert_eq!(thread_count(), 3);
        });
    }
}
