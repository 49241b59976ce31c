//! # mlv-core
//!
//! The zero-dependency runtime kernel of the workspace. Everything the
//! reproduction previously pulled from crates.io lives here, implemented
//! on `std` alone so the whole workspace builds and tests fully offline:
//!
//! * [`exec`] — a chunked data-parallel executor over
//!   [`std::thread::scope`] (`par_map`, `par_chunk_map`,
//!   `par_chunk_reduce`, `par_sort_unstable`), the replacement for rayon
//!   in the legality checker and metrics hot paths;
//! * [`rng`] — a seedable SplitMix64/xoshiro256++ PRNG with the same
//!   deterministic-seed contract the topology generators relied on from
//!   `StdRng::seed_from_u64`;
//! * [`prop`] — a minimal property-testing harness behind the
//!   [`mlv_proptest!`](crate::mlv_proptest) macro: generator values from
//!   ranges/tuples/`vec`, configurable case counts, shrink-free failure
//!   reports that print the generated inputs and the case seed;
//! * [`mod@bench`] — a wall-clock micro-bench harness (warmup + calibration
//!   + median-of-N, one JSON line per benchmark) replacing criterion;
//! * [`queue`] — a bounded FIFO with reject-don't-buffer backpressure
//!   (non-blocking producers, blocking consumers), the admission
//!   control primitive behind `mlv serve`'s per-connection queues;
//! * [`trace`] — zero-dependency structured tracing + metrics (span
//!   guards via [`span!`], counters via [`counter!`], log2 histograms
//!   via [`histogram!`]), aggregated deterministically across threads
//!   and propagated through the executor.
//!
//! Determinism is a design rule throughout: parallel results are
//! combined in input order, so every parallel entry point returns
//! byte-identical output to its sequential equivalent — and the trace
//! subsystem's deterministic rendering is byte-identical for any
//! thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod exec;
pub mod prop;
pub mod queue;
pub mod rng;
pub mod trace;
