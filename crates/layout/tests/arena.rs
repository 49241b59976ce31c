//! Scratch-reuse equivalence and panic-safety tests.
//!
//! Every realization runs on its thread's reusable pass scratch, and an
//! engine job realizes on its worker's scratch too. That reuse is pure
//! mechanism: it must never change a single byte of any result. The
//! reference is a *cold* run — one on a newly spawned thread, which
//! starts with an empty thread-local scratch — and the runs under test
//! go on this thread, pinned to one executor thread so every job lands
//! on the scratch that earlier work dirtied. The panic tests prove that
//! a realization or an engine job that dies mid-pipeline leaves no
//! state behind that a later result could pick up.

use mlv_core::exec::with_thread_count;
use mlv_core::{mlv_proptest, prop_assert, prop_assert_eq};
use mlv_layout::engine::{lattice_jobs, BatchReport, Engine, EngineOptions, Job, JobResult};
use mlv_layout::spec::{OrthogonalSpec, RowWire};
use mlv_layout::{families, realize, registry, RealizeOptions};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Run `f` on a newly spawned thread: a cold thread-local scratch.
fn cold<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| s.spawn(f).join().expect("cold run panicked"))
}

/// Run one seeded lattice batch on a fresh engine and return everything
/// observable about it: per-job report lines, cache counters, and the
/// deterministic trace view (span counts, engine counters, value
/// histograms).
fn observe(seed: u64, cases: usize) -> (Vec<String>, String, Vec<String>) {
    with_thread_count(1, || {
        let jobs = lattice_jobs(seed, cases);
        let mut engine = Engine::new(EngineOptions::default());
        let trace = mlv_core::trace::Trace::new();
        let report = trace.collect(|| engine.run(&jobs));
        let lines = report.results.iter().map(JobResult::json_line).collect();
        let cache = format!("{:?}", report.cache);
        (lines, cache, trace.aggregate().deterministic_lines())
    })
}

/// A corrupt spec whose row index runs past the grid: placement panics
/// on it mid-pipeline.
fn corrupt_spec() -> OrthogonalSpec {
    let mut bad = OrthogonalSpec::new("corrupt", 2, 2);
    bad.row_wires.push(RowWire {
        row: 9,
        lo: 0,
        hi: 1,
        track: 0,
    });
    bad
}

mlv_proptest! {
    cases = 8;

    /// Engine batches on a scratch that a different batch dirtied are
    /// byte-identical to the same batch on a cold thread — results,
    /// cache counters, and the aggregate trace (counter values,
    /// span/histogram counts).
    #[test]
    fn engine_pooling_never_changes_results(seed in 0u64..1_000_000, cases in 1usize..3) {
        let (reference, reference_cache, reference_trace) = cold(|| observe(seed, cases));
        observe(seed ^ 1, cases);
        let (warm, warm_cache, warm_trace) = observe(seed, cases);
        prop_assert_eq!(&warm, &reference);
        prop_assert_eq!(&warm_cache, &reference_cache);
        prop_assert_eq!(&warm_trace, &reference_trace);
        prop_assert!(!warm.is_empty());
    }

    /// `realize` on a scratch that a different draw dirtied emits the
    /// same bytes as a cold realize, across families, draws, and layer
    /// budgets.
    #[test]
    fn warm_realize_matches_cold(seed in 0u64..1_000_000, fi in 0usize..13, li in 0usize..4) {
        let lattices: Vec<_> = registry::REGISTRY
            .iter()
            .filter_map(|e| e.lattice.as_ref())
            .collect();
        let draw = |fi: usize, seed: u64| {
            (lattices[fi % lattices.len()].draw)(&mut mlv_core::rng::Rng::seed_from_u64(seed))
        };
        let target = draw(fi, seed);
        let opts = RealizeOptions::with_layers(registry::LAYER_POOL[li % registry::LAYER_POOL.len()]);
        let reference = cold(|| mlv_grid::io::write_layout(&realize(&target.family.spec, &opts)));
        // dirty this thread's scratch with another family at another budget
        let other = draw(fi + 1, seed ^ 1);
        let other_opts = RealizeOptions::with_layers(registry::LAYER_POOL[(li + 1) % registry::LAYER_POOL.len()]);
        realize(&other.family.spec, &other_opts);
        // then three warm iterations: scratch dirty from *this* spec too
        for _ in 0..3 {
            let text = mlv_grid::io::write_layout(&realize(&target.family.spec, &opts));
            prop_assert_eq!(&text, &reference);
        }
    }
}

#[test]
fn engine_pooling_never_changes_results_prop() {
    engine_pooling_never_changes_results();
}

#[test]
fn warm_realize_matches_cold_prop() {
    warm_realize_matches_cold();
}

/// A job whose spec indexes out of bounds panics mid-pipeline on this
/// thread's warmed scratch. The same engine must keep producing results
/// byte-identical to those before the panic, and to a never-panicked
/// engine on a cold thread.
#[test]
fn pool_survives_a_panicked_job() {
    let bad_job = Job::new(
        "corrupt",
        families::Family {
            graph: mlv_topology::hypercube::hypercube(2),
            spec: corrupt_spec(),
        },
        4,
    );
    let good_jobs = lattice_jobs(2000, 1);
    // the `cached` flag legitimately flips once the memo cache is warm,
    // so compare outcome content, not report lines
    let lines = |r: &BatchReport| {
        r.results
            .iter()
            .map(|res| {
                let o = &res.outcome;
                format!(
                    "{}|{:016x}|{:?}|{:?}",
                    res.label, o.digest, o.metrics, o.check
                )
            })
            .collect::<Vec<_>>()
    };

    let (warm, after) = with_thread_count(1, || {
        let mut engine = Engine::new(EngineOptions::default());
        // warm the scratch, then panic a job on it
        let warm = engine.run(&good_jobs);
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            engine.run(std::slice::from_ref(&bad_job))
        }));
        assert!(panicked.is_err(), "corrupt spec must panic the batch");
        (lines(&warm), lines(&engine.run(&good_jobs)))
    });
    assert_eq!(warm, after);
    let control = cold(|| lines(&Engine::new(EngineOptions::default()).run(&good_jobs)));
    assert_eq!(control, after);
}

/// Same edge for `realize`: a panicked realize leaves the thread-local
/// scratch in whatever state the unwind found, and the next realize on
/// this thread must still be byte-correct.
#[test]
fn thread_local_scratch_survives_a_panicked_realize() {
    let fam = families::hypercube(3);
    let opts = RealizeOptions::with_layers(4);
    let reference = cold(|| mlv_grid::io::write_layout(&realize(&fam.spec, &opts)));
    let bad = corrupt_spec();
    for _ in 0..2 {
        let r = catch_unwind(AssertUnwindSafe(|| realize(&bad, &opts)));
        assert!(r.is_err(), "corrupt spec must panic");
        let layout = realize(&fam.spec, &opts);
        assert_eq!(mlv_grid::io::write_layout(&layout), reference);
    }
}
