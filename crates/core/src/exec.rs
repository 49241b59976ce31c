//! Data-parallel map over [`std::thread::scope`].
//!
//! [`par_map`] is the executor's one parallel entry point. Workers
//! claim small blocks of items from a shared counter, so a slow item
//! holds up only its own block, and the blocks are reassembled **in
//! input order**: the result is byte-identical to the sequential map.
//! Thread count comes from [`thread_count`]: a per-thread override
//! (for tests), the `MLV_THREADS` environment variable, or
//! [`std::thread::available_parallelism`], in that priority order.
//!
//! Inputs of at most [`MIN_CHUNK`] items run inline on the calling
//! thread — spawning is not worth it below that.
//!
//! **Fan out once.** Call [`par_map`] only at the outermost level of a
//! workload — over the jobs of a batch, never inside one job. Each call
//! spawns its own scoped workers, so a call made from inside a worker
//! would spawn threads per item, and at the sizes one job works on
//! (hundreds to thousands of wires) that costs more than it saves. No
//! flag enforces the rule; the executor is simply not called from
//! within a job.
//!
//! Every call snapshots the calling thread's installed
//! [`crate::trace`] stack and attaches it in each worker, so spans,
//! counters, and histograms recorded inside parallel work land in the
//! same trace aggregates as sequential execution.

use crate::trace;
use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Inputs with at most this many items are processed sequentially.
pub const MIN_CHUNK: usize = 64;

/// Blocks handed out per worker thread: enough that one worker can
/// pick up the slack of another, few enough that claiming is cheap.
const BLOCKS_PER_THREAD: usize = 8;

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Run `f` with [`thread_count`] forced to `n` on the current thread.
///
/// This is the test hook for exercising the parallel paths on machines
/// with few cores (and the sequential path on machines with many): the
/// override applies to every executor call made while `f` runs, and is
/// restored even if `f` unwinds.
pub fn with_thread_count<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(THREAD_OVERRIDE.with(|c| c.replace(Some(n.max(1)))));
    f()
}

/// Worker threads used by the executor on this thread.
///
/// Priority: [`with_thread_count`] override, then `MLV_THREADS`, then
/// [`std::thread::available_parallelism`] (1 if unknown). The
/// environment and parallelism probe are read **once per process** and
/// cached: `available_parallelism` re-reads cgroup limits on Linux
/// (tens of microseconds in containers), too slow to pay per batch.
/// Tests vary the count via [`with_thread_count`], which bypasses the
/// cache.
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
    let block = items
        .len()
        .div_ceil(threads.saturating_mul(BLOCKS_PER_THREAD));
    let blocks = items.len().div_ceil(block);
    let next = AtomicUsize::new(0);
    let tstack = trace::snapshot();
    let worker = || {
        trace::attach(&tstack, || {
            let mut done: Vec<(usize, Vec<R>)> = Vec::new();
            loop {
                // Relaxed: the counter publishes no data. Items are
                // shared read-only, and results come back through the
                // join, which synchronizes.
                let b = next.fetch_add(1, Ordering::Relaxed);
                if b >= blocks {
                    return done;
                }
                let start = b * block;
                let end = (start + block).min(items.len());
                let out = items[start..end]
                    .iter()
                    .enumerate()
                    .map(|(i, t)| f(start + i, t))
                    .collect();
                done.push((b, out));
            }
        })
    };
    let mut done: Vec<(usize, Vec<R>)> = thread::scope(|s| {
        let handles: Vec<_> = (0..threads.min(blocks)).map(|_| s.spawn(worker)).collect();
        handles.into_iter().flat_map(join_worker).collect()
    });
    done.sort_unstable_by_key(|&(b, _)| b);
    let mut out = Vec::with_capacity(items.len());
    for (_, block_out) in done {
        out.extend(block_out);
    }
    out
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
    fn work_spreads_across_threads() {
        // even on a single-core machine the executor must actually use
        // every worker it was asked for (acceptance: parallelism is
        // observable, not vestigial). Each worker waits at the barrier
        // on its first item, so no worker can drain the blocks before
        // all of them have claimed one.
        const THREADS: usize = 4;
        thread_local! {
            static ARRIVED: Cell<bool> = const { Cell::new(false) };
        }
        let barrier = std::sync::Barrier::new(THREADS);
        let items: Vec<u32> = (0..10_000).collect();
        let ids = with_thread_count(THREADS, || {
            par_map(&items, |_, _| {
                if !ARRIVED.with(|a| a.replace(true)) {
                    barrier.wait();
                }
                thread::current().id()
            })
        });
        let distinct: std::collections::HashSet<_> = ids.iter().copied().collect();
        assert_eq!(distinct.len(), THREADS, "every worker must take items");
        // and the caller's thread does none of the block work
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

    #[test]
    fn override_is_restored_when_f_unwinds() {
        with_thread_count(3, || {
            let unwound = std::panic::catch_unwind(|| with_thread_count(5, || panic!("boom")));
            assert!(unwound.is_err());
            assert_eq!(thread_count(), 3);
        });
    }
}
