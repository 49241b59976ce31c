//! Failure injection: start from known-legal layouts and corrupt them
//! in every way the model forbids; the checker must catch each one.
//! This is the guarantee that "checker-verified" means something.
//!
//! The injection strategies live in `mlv_conformance::inject` (a
//! dev-dependency; cargo allows the cycle because it only exists for
//! tests) so this suite and the cross-family conformance harness stress
//! the same defect models. On top of the shared strategies this file
//! keeps the defect shapes the strategies don't model — mid-path layer
//! escapes, detours below the die, reroutes through foreign nodes —
//! and the random-perturbation properties.

use mlv_conformance::inject::{inject, inject_with_pdk, Strategy};
use mlv_core::rng::Rng;
use mlv_core::{mlv_proptest, prop_assert, prop_assume};
use mlv_grid::checker::{check, CheckError};
use mlv_grid::geom::Point3;
use mlv_grid::layout::Layout;
use mlv_grid::path::WirePath;
use mlv_layout::families;
use mlv_topology::Graph;

fn legal_layout() -> (Layout, Graph) {
    let fam = families::hypercube(4);
    let layout = fam.realize(4);
    assert!(check(&layout, Some(&fam.graph)).is_legal());
    (layout, fam.graph)
}

/// Every shared injection strategy at several seeded locations: the
/// defect must apply, and the checker must report the strategy's
/// guaranteed error kind.
#[test]
fn every_strategy_caught_at_seeded_locations() {
    for strategy in Strategy::ALL {
        for seed in 0..5u64 {
            let (mut layout, graph) = legal_layout();
            let mut rng = Rng::seed_from_u64(seed);
            let done = inject(&mut layout, strategy, &mut rng)
                .unwrap_or_else(|| panic!("{} not applicable to hypercube(4)", strategy.name()));
            let r = check(&layout, Some(&graph));
            assert!(
                r.errors
                    .iter()
                    .any(|e| e.kind() == strategy.expected_kind()),
                "{} ({}) escaped: expected {}, got {:?}",
                strategy.name(),
                done.detail,
                strategy.expected_kind(),
                r.errors.iter().map(|e| e.kind()).collect::<Vec<_>>()
            );
        }
    }
}

/// Completeness: the strategy set guarantees every `CheckError` variant
/// — this test fails naming any variant no strategy can trigger.
#[test]
fn strategies_cover_every_check_error_variant() {
    let uncovered = mlv_conformance::inject::uncovered_kinds();
    assert!(
        uncovered.is_empty(),
        "CheckError variants without an injection strategy: {uncovered:?}"
    );
    // and the guarantee is dynamic, not just declared: collect the kinds
    // actually reported across one injection of each strategy (the two
    // PDK strategies need a non-uniform stack and the PDK-aware checker)
    let mut seen = std::collections::BTreeSet::new();
    for strategy in Strategy::ALL_WITH_PDK {
        let hv6 = strategy.needs_pdk().then(mlv_grid::pdk::Pdk::hv6);
        let fam = families::hypercube(4);
        let mut layout = match &hv6 {
            Some(pdk) => mlv_layout::realize(
                &fam.spec,
                &mlv_layout::RealizeOptions::with_pdk(4, pdk.clone()),
            ),
            None => fam.realize(4),
        };
        let mut rng = Rng::seed_from_u64(1);
        if inject_with_pdk(&mut layout, strategy, &mut rng, hv6.as_ref()).is_some() {
            let report = match &hv6 {
                Some(pdk) => mlv_grid::checker::check_with_pdk(&layout, Some(&fam.graph), pdk),
                None => check(&layout, Some(&fam.graph)),
            };
            seen.extend(report.errors.iter().map(|e| e.kind()));
        }
    }
    let missing: Vec<&str> = CheckError::KINDS
        .iter()
        .copied()
        .filter(|k| !seen.contains(k))
        .collect();
    assert!(
        missing.is_empty(),
        "CheckError variants never reported for any injection: {missing:?}"
    );
}

#[test]
fn catches_mid_path_layer_escape() {
    let (mut layout, graph) = legal_layout();
    // push one wire's middle corners above the budget (terminals stay
    // put — the defect the uniform z-shift strategy cannot produce)
    let path = &layout.wires[0].path;
    let corners: Vec<Point3> = path
        .corners()
        .iter()
        .map(|c| {
            if c.z > 0 {
                Point3::new(c.x, c.y, c.z + 10)
            } else {
                *c
            }
        })
        .collect();
    layout.wires[0].path = WirePath::new(corners);
    let r = check(&layout, Some(&graph));
    assert!(r
        .errors
        .iter()
        .any(|e| matches!(e, CheckError::LayerOutOfRange { .. })));
}

#[test]
fn catches_detour_below_the_die() {
    let (mut layout, graph) = legal_layout();
    // legal terminals, but the route dips to z = -1 in between
    let start = layout.wires[0].path.start();
    let end = layout.wires[0].path.end();
    layout.wires[0].path = WirePath::new(vec![
        start,
        Point3::new(start.x, start.y, -1),
        Point3::new(end.x, start.y, -1),
        Point3::new(end.x, end.y, -1),
        end,
    ]);
    let r = check(&layout, Some(&graph));
    assert!(r
        .errors
        .iter()
        .any(|e| matches!(e, CheckError::LayerOutOfRange { .. })));
}

#[test]
fn catches_wire_dragged_through_node() {
    let (mut layout, graph) = legal_layout();
    // reroute one wire straight through the middle of the die at z=0
    let w = layout.wires[0].clone();
    let start = w.path.start();
    let end = w.path.end();
    layout.wires[0].path = WirePath::new(vec![start, Point3::new(end.x, start.y, 0), end]);
    let r = check(&layout, Some(&graph));
    assert!(!r.is_legal(), "reroute through the die undetected");
}

mlv_proptest! {
    cases = 48;

    /// Randomly perturbing one corner of one wire never makes the
    /// checker panic, and if the perturbed layout differs at all in its
    /// occupied points it is (almost always) caught; we only assert
    /// no-panic + classification stability here.
    #[test]
    fn random_corner_perturbation_never_panics(
        wire_idx in 0usize..32,
        corner_idx in 0usize..8,
        dx in -3i64..4,
        dy in -3i64..4,
    ) {
        let (mut layout, graph) = legal_layout();
        let wi = wire_idx % layout.wires.len();
        let corners = layout.wires[wi].path.corners().to_vec();
        let ci = corner_idx % corners.len();
        let mut new_corners = corners.clone();
        new_corners[ci] = Point3::new(
            corners[ci].x + dx,
            corners[ci].y + dy,
            corners[ci].z,
        );
        layout.wires[wi].path = WirePath::new(new_corners);
        let _ = check(&layout, Some(&graph)); // must not panic
    }

    /// Swapping two wires' paths (keeping endpoint claims) is always
    /// caught unless the wires join the same node pair.
    #[test]
    fn swapped_paths_detected(a in 0usize..32, b in 0usize..32) {
        let (mut layout, graph) = legal_layout();
        let (a, b) = (a % layout.wires.len(), b % layout.wires.len());
        prop_assume!(a != b);
        let same_pair = {
            let (wa, wb) = (&layout.wires[a], &layout.wires[b]);
            (wa.u.min(wa.v), wa.u.max(wa.v)) == (wb.u.min(wb.v), wb.u.max(wb.v))
        };
        prop_assume!(!same_pair);
        let pa = layout.wires[a].path.clone();
        let pb = layout.wires[b].path.clone();
        layout.wires[a].path = pb;
        layout.wires[b].path = pa;
        let r = check(&layout, Some(&graph));
        prop_assert!(!r.is_legal());
    }

    /// Shared strategies applied at fully random seeds keep being
    /// caught (the seeded-location test pins 5 seeds; this sweeps).
    #[test]
    fn strategies_caught_at_random_seeds(which in 0usize..10, seed in 0u64..10_000) {
        let strategy = Strategy::ALL[which % Strategy::ALL.len()];
        let (mut layout, graph) = legal_layout();
        let mut rng = Rng::seed_from_u64(seed);
        prop_assume!(inject(&mut layout, strategy, &mut rng).is_some());
        let r = check(&layout, Some(&graph));
        prop_assert!(
            r.errors.iter().any(|e| e.kind() == strategy.expected_kind()),
            "{} escaped at seed {}", strategy.name(), seed
        );
    }
}
