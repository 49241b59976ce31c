//! Tiled-vs-flat byte-identity across the registry's lattice
//! vocabulary: for every lattice-bearing family and every layer budget
//! in the pool, materializing the tiled IR must serialize to exactly
//! the bytes the flat realizer emits — pinned via the engine's FNV
//! layout digest, under both the sequential and the parallel emit
//! paths (`MLV_THREADS` 1 vs 8). Under a non-uniform PDK the checker
//! gives the same report on the tiled IR as on its materialization.
//!
//! The fresh-allocation variant of the same sweep lives in
//! `tests/tiled_fresh_alloc.rs` (its own binary: `MLV_FRESH_ALLOC` is
//! process-global).

use mlv_core::rng::Rng;
use mlv_grid::checker::check_with_pdk;
use mlv_layout::engine::layout_digest;
use mlv_layout::registry::{self, LAYER_POOL};
use mlv_layout::RealizeOptions;

const SEED: u64 = 2000;

/// Realize every (lattice family, L) pair both ways and compare
/// digests; returns the number of pairs checked.
fn sweep_identity() -> usize {
    let mut checked = 0;
    for entry in registry::REGISTRY {
        let Some(lattice) = &entry.lattice else {
            continue;
        };
        let mut rng = Rng::seed_from_u64(SEED);
        let draw = (lattice.draw)(&mut rng);
        for &layers in &LAYER_POOL {
            let opts = RealizeOptions::with_layers(layers);
            let flat = draw.family.realize_with(&opts);
            let tiled = mlv_layout::realize_tiled(&draw.family.spec, &opts);
            assert_eq!(
                layout_digest(&tiled.materialize()),
                layout_digest(&flat),
                "{} @ L={layers}: tiled materialization diverged from flat",
                draw.label
            );
            checked += 1;
        }
    }
    checked
}

#[test]
fn lattice_materialize_matches_flat_sequential() {
    let checked = mlv_core::exec::with_thread_count(1, sweep_identity);
    assert!(checked >= LAYER_POOL.len(), "lattice sweep was empty");
}

#[test]
fn lattice_materialize_matches_flat_parallel() {
    // MLV_PAR_WIRES=1 in CI forces the parallel emit path even for the
    // small lattice shapes; locally this still exercises the pooled
    // sequential path plus thread-count independence of the pipeline
    let checked = mlv_core::exec::with_thread_count(8, sweep_identity);
    assert!(checked >= LAYER_POOL.len(), "lattice sweep was empty");
}

/// A non-uniform stack threads through tiled realization, and the
/// direction/pitch checker gives the same report on the tile instances
/// as on the materialized layout.
#[test]
fn pdk_check_of_tiled_ir_matches_materialized_layout() {
    let fam = mlv_layout::families::hypercube(4);
    let hv6 = mlv_grid::Pdk::hv6();
    let mut opts = RealizeOptions::with_layers(6);
    opts.pdk = Some(hv6.clone());
    let tiled = mlv_layout::realize_tiled(&fam.spec, &opts);
    let report = check_with_pdk(&tiled, Some(&fam.graph), &hv6);
    assert!(report.is_legal(), "{:?}", report.errors);
    assert_eq!(
        report,
        check_with_pdk(&tiled.materialize(), Some(&fam.graph), &hv6)
    );
}
