//! # mlv-core
//!
//! The zero-dependency runtime kernel of the workspace. Everything the
//! reproduction previously pulled from crates.io lives here, implemented
//! on `std` alone so the whole workspace builds and tests fully offline:
//!
//! * [`fnv`] — FNV-1a, the stable content digest behind memo keys,
//!   layout and trace digests, and property-test seeds;
//! * [`exec`] — a data-parallel map over [`std::thread::scope`]
//!   ([`exec::par_map`]), the replacement for rayon. It fans out once,
//!   over the jobs of an engine batch or the cases of a conformance
//!   stage; everything inside one job runs on its worker's thread;
//! * [`rng`] — a seedable SplitMix64/xoshiro256++ PRNG with the same
//!   deterministic-seed contract the topology generators relied on from
//!   `StdRng::seed_from_u64`;
//! * [`prop`] — a minimal property-testing harness behind the
//!   [`mlv_proptest!`](crate::mlv_proptest) macro: generator values from
//!   ranges/tuples/`vec`, configurable case counts, shrink-free failure
//!   reports that print the generated inputs and the case seed;
//! * [`queue`] — a bounded FIFO with reject-don't-buffer backpressure
//!   (non-blocking producers, blocking consumers), the admission
//!   control primitive behind `mlv serve`'s per-connection queues;
//! * [`trace`] — zero-dependency structured tracing + metrics (span
//!   guards via [`span!`], counters via [`counter!`], log2 histograms
//!   via [`histogram!`]), aggregated deterministically across threads
//!   and propagated through the executor.
//!
//! Determinism is a design rule throughout: parallel results are
//! combined in input order, so the parallel map returns byte-identical
//! output to its sequential equivalent — and the trace
//! subsystem's deterministic rendering is byte-identical for any
//! thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod fnv;
pub mod prop;
pub mod queue;
pub mod rng;
pub mod trace;
