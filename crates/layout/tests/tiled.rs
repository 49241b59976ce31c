//! The tiled IR against its own materialization, across the registry's
//! lattice vocabulary. Every realization is tiles first and a flat
//! layout only by `materialize`, so these tests compare two
//! `StreamSource` walks of the same geometry:
//!
//! * the text serialization streamed from the tiles — raw corner
//!   sequences, a degenerate segment repeating a corner — must be the
//!   exact bytes `write_layout` produces from the materialized layout,
//!   whose wire paths store each run of repeated corners once;
//! * the direction/pitch checker must give the same report on both.
//!
//! Absolute geometry is pinned separately, by `geometry_digests.rs`.

use mlv_core::rng::Rng;
use mlv_grid::checker::check_with_pdk;
use mlv_grid::io::write_layout;
use mlv_grid::pdk::Pdk;
use mlv_grid::streaming::StreamSource;
use mlv_layout::realize3d::Realize3dOptions;
use mlv_layout::registry::{self, LAYER_POOL};
use mlv_layout::{RealizeOptions, TiledLayout};

/// Compare one tiled realization with its materialization; returns the
/// number of its wires whose raw corner sequence repeats a corner.
fn differential(what: &str, tiled: &TiledLayout, graph: &mlv_topology::Graph, pdk: &Pdk) -> usize {
    let flat = tiled.materialize();
    assert_eq!(
        write_layout(tiled),
        write_layout(&flat),
        "{what}: streamed serialization diverged from the materialized layout"
    );
    assert_eq!(
        check_with_pdk(tiled, Some(graph), pdk),
        check_with_pdk(&flat, Some(graph), pdk),
        "{what}: checker reports diverge"
    );
    let mut repeating = 0;
    tiled.visit_wires(&mut |_, _, corners| {
        repeating += corners.windows(2).any(|w| w[0] == w[1]) as usize;
    });
    repeating
}

#[test]
fn lattice_serialization_and_pdk_check_match_materialized() {
    let (mut pairs, mut repeating) = (0, 0);
    for seed in [2000, 2001, 2002] {
        for entry in registry::REGISTRY {
            let Some(lattice) = &entry.lattice else {
                continue;
            };
            let draw = (lattice.draw)(&mut Rng::seed_from_u64(seed));
            for &layers in &LAYER_POOL {
                for pdk in [Pdk::uniform(layers), Pdk::hv6()] {
                    let opts = RealizeOptions::with_pdk(layers, pdk.clone());
                    let tiled = mlv_layout::realize_tiled(&draw.family.spec, &opts);
                    let what = format!("{} @ L={layers} pdk={}", draw.label, pdk.name);
                    repeating += differential(&what, &tiled, &draw.family.graph, &pdk);
                    pairs += 1;
                }
            }
        }
    }
    assert_eq!(
        pairs,
        3 * registry::lattice_names().len() * LAYER_POOL.len() * 2
    );
    // the serializer's repeated-corner branch must actually run
    assert!(
        repeating > 0,
        "no raw tile corner repeats in {pairs} layouts"
    );
}

#[test]
fn registry_examples_in_3d_serialize_like_their_materialization() {
    for e in registry::REGISTRY {
        let fam = registry::parse(e.example).expect("registry examples parse");
        let opts = Realize3dOptions {
            layers: 8,
            active_layers: 2,
            node_side: None,
            pdk: None,
        };
        let tiled = mlv_layout::realize_tiled_3d(&fam.spec, &opts);
        let what = format!("{} @ L=8 LA=2", e.example);
        differential(&what, &tiled, &fam.graph, &Pdk::uniform(8));
    }
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
