//! Pinned geometry: the `layout_digest` of every registry example at
//! four layer budgets, in the 3-D model, and under the `hv6` stack —
//! 126 layouts in all.
//!
//! The conformance `lattice_digests` fixture pins lattice *labels*
//! only. This one pins absolute geometry, every node rectangle and
//! wire corner, so a change to any pass, to the tiled IR, or to the
//! serializer that moves a single coordinate fails here.
//!
//! If a change is meant to move geometry, the failure message prints
//! the whole regenerated table: replace `fixtures/geometry_digests.txt`
//! with it and say why in the commit message.

use mlv_grid::pdk::Pdk;
use mlv_layout::engine::layout_digest;
use mlv_layout::realize3d::{realize_3d, Realize3dOptions};
use mlv_layout::{registry, RealizeOptions};

const FIXTURE: &str = include_str!("fixtures/geometry_digests.txt");

/// One `<example> <budget> <digest>` line per pinned layout, in
/// registry order.
fn current() -> Vec<String> {
    let mut lines = Vec::new();
    for e in registry::REGISTRY {
        let fam = registry::parse(e.example).unwrap_or_else(|err| panic!("{}: {err}", e.example));
        for layers in [2, 3, 4, 8] {
            let d = layout_digest(&fam.realize(layers));
            lines.push(format!("{} L={layers} {d:016x}", e.example));
        }
        let opts = Realize3dOptions {
            layers: 8,
            active_layers: 2,
            node_side: None,
            pdk: None,
        };
        let d = layout_digest(&realize_3d(&fam.spec, &opts));
        lines.push(format!("{} L=8 LA=2 {d:016x}", e.example));
        let d = layout_digest(&fam.realize_with(&RealizeOptions::with_pdk(6, Pdk::hv6())));
        lines.push(format!("{} L=6 pdk=hv6 {d:016x}", e.example));
    }
    lines
}

#[test]
fn registry_examples_keep_their_geometry() {
    let got = current();
    assert_eq!(got.len(), 6 * registry::REGISTRY.len());
    let want: Vec<&str> = FIXTURE.lines().filter(|l| !l.is_empty()).collect();
    let drift: Vec<String> = got
        .iter()
        .zip(want.iter().copied().chain(std::iter::repeat("<missing>")))
        .filter(|(g, w)| g.as_str() != *w)
        .map(|(g, w)| format!("  got {g}, pinned {w}"))
        .collect();
    assert!(
        drift.is_empty() && got.len() == want.len(),
        "geometry moved in {} of {} layouts ({} pinned):\n{}\n\nregenerated fixture:\n{}",
        drift.len(),
        got.len(),
        want.len(),
        drift.join("\n"),
        got.join("\n")
    );
}
