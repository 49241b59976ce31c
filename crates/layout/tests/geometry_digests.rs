//! Pinned geometry: the `layout_digest` of every registry example at
//! four layer budgets, in the 3-D model, and under the `hv6` stack —
//! 126 layouts in all — and the `TiledLayout::digest` of the same 126
//! tiled IRs.
//!
//! The conformance `lattice_digests` fixture pins lattice *labels*
//! only. This one pins absolute geometry, every node rectangle and
//! wire corner, so a change to any pass, to the tiled IR, or to the
//! serializer that moves a single coordinate fails here. The IR digest
//! hashes the tiles and their instances rather than the serialized
//! text, so it also pins the digest function itself.
//!
//! If a change is meant to move geometry, the failure message prints
//! the whole regenerated table: replace the fixture with it and say why
//! in the commit message.

use mlv_grid::pdk::Pdk;
use mlv_layout::engine::layout_digest;
use mlv_layout::realize3d::Realize3dOptions;
use mlv_layout::{realize_tiled, realize_tiled_3d, registry, RealizeOptions, TiledLayout};

const GEOMETRY: &str = include_str!("fixtures/geometry_digests.txt");
const TILED: &str = include_str!("fixtures/tiled_digests.txt");

/// Every pinned layout as `(<example> <budget>, tiled IR)`, in registry
/// order.
fn cases() -> Vec<(String, TiledLayout)> {
    let mut cases = Vec::new();
    for e in registry::REGISTRY {
        let fam = registry::parse(e.example).unwrap_or_else(|err| panic!("{}: {err}", e.example));
        for layers in [2, 3, 4, 8] {
            let ir = realize_tiled(&fam.spec, &RealizeOptions::with_layers(layers));
            cases.push((format!("{} L={layers}", e.example), ir));
        }
        let opts = Realize3dOptions {
            layers: 8,
            active_layers: 2,
            node_side: None,
            pdk: None,
        };
        let ir = realize_tiled_3d(&fam.spec, &opts);
        cases.push((format!("{} L=8 LA=2", e.example), ir));
        let ir = realize_tiled(&fam.spec, &RealizeOptions::with_pdk(6, Pdk::hv6()));
        cases.push((format!("{} L=6 pdk=hv6", e.example), ir));
    }
    cases
}

/// Compare one `<case> <digest>` line per layout with a fixture.
fn assert_pinned(what: &str, got: Vec<String>, fixture: &str) {
    assert_eq!(got.len(), 6 * registry::REGISTRY.len());
    let want: Vec<&str> = fixture.lines().filter(|l| !l.is_empty()).collect();
    let drift: Vec<String> = got
        .iter()
        .zip(want.iter().copied().chain(std::iter::repeat("<missing>")))
        .filter(|(g, w)| g.as_str() != *w)
        .map(|(g, w)| format!("  got {g}, pinned {w}"))
        .collect();
    assert!(
        drift.is_empty() && got.len() == want.len(),
        "{what} moved in {} of {} layouts ({} pinned):\n{}\n\nregenerated fixture:\n{}",
        drift.len(),
        got.len(),
        want.len(),
        drift.join("\n"),
        got.join("\n")
    );
}

#[test]
fn registry_examples_keep_their_geometry() {
    let got = cases()
        .into_iter()
        .map(|(case, ir)| format!("{case} {:016x}", layout_digest(&ir.materialize())))
        .collect();
    assert_pinned("geometry", got, GEOMETRY);
}

#[test]
fn registry_examples_keep_their_tiled_ir() {
    let got = cases()
        .into_iter()
        .map(|(case, ir)| format!("{case} {:016x}", ir.digest()))
        .collect();
    assert_pinned("tiled IR", got, TILED);
}
