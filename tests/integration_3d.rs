//! Integration: the multilayer 3-D grid model realizer against the 2-D
//! scheme, across families, plus save/load round trips of full layouts.

use mlv_grid::checker;
use mlv_grid::io::{read_layout, write_layout};
use mlv_grid::metrics::LayoutMetrics;
use mlv_layout::engine::{CheckStatus, Engine, EngineOptions, Job};
use mlv_layout::families;
use mlv_layout::realize3d::{realize_3d, Realize3dOptions};

fn metrics_3d(
    fam: &families::Family,
    layers: usize,
    la: usize,
    side: Option<usize>,
) -> LayoutMetrics {
    let layout = realize_3d(
        &fam.spec,
        &Realize3dOptions {
            layers,
            active_layers: la,
            node_side: side,
            pdk: None,
        },
    );
    checker::assert_legal(&layout, Some(&fam.graph));
    LayoutMetrics::of(&layout)
}

/// Every family class stacks legally.
#[test]
fn families_stack_legally() {
    for (fam, la) in [
        (families::karyn_cube(4, 2, false), 2usize),
        (families::karyn_mesh(4, 2), 2),
        (families::hypercube(4), 2),
        (families::genhyper(&[4, 4]), 2),
        (families::ccc(3), 2),
        (families::hsn(2, 4), 2),
        (families::butterfly(3), 2),
        (families::folded_hypercube(4), 2),
        (families::karyn_cube(8, 2, false), 4),
    ] {
        let _ = metrics_3d(&fam, 4 * la.max(2), la, None);
    }
}

/// The 3-D gain with processor-scale nodes grows with L_A on tori, and
/// the torus beats the hypercube at equal budgets (riser counts).
#[test]
fn stacking_gains_ordering() {
    let torus = families::karyn_cube(8, 2, false);
    let cube = families::hypercube(6);
    let t1 = metrics_3d(&torus, 8, 1, Some(16)).area as f64;
    let t4 = metrics_3d(&torus, 8, 4, Some(16)).area as f64;
    let c1 = metrics_3d(&cube, 8, 1, Some(16)).area as f64;
    let c4 = metrics_3d(&cube, 8, 4, Some(16)).area as f64;
    let torus_gain = t1 / t4;
    let cube_gain = c1 / c4;
    assert!(torus_gain > 2.5, "torus gain {torus_gain}");
    assert!(
        torus_gain > cube_gain,
        "torus {torus_gain} <= cube {cube_gain}"
    );
}

/// Volume never improves from stacking alone at minimal node sizes
/// (wiring is conserved; the paper's volume claim is about the 2-D
/// scheme's track split, not about active layers).
#[test]
fn stacking_conserves_wiring() {
    let fam = families::karyn_cube(6, 2, false);
    let m1 = metrics_3d(&fam, 8, 1, None);
    let m2 = metrics_3d(&fam, 8, 2, None);
    // total wire length should be in the same ballpark (risers add a
    // little)
    let ratio = m2.total_wire as f64 / m1.total_wire as f64;
    assert!(ratio < 1.6, "wire blew up: {ratio}");
}

/// A realized 3-D layout survives the save/load round trip and
/// re-checks clean, including the stacked node layers.
#[test]
fn three_d_layout_round_trips() {
    let fam = families::karyn_cube(4, 2, false);
    let layout = realize_3d(
        &fam.spec,
        &Realize3dOptions {
            layers: 8,
            active_layers: 2,
            node_side: None,
            pdk: None,
        },
    );
    checker::assert_legal(&layout, Some(&fam.graph));
    let text = write_layout(&layout);
    let back = read_layout(&text).expect("parse back");
    checker::assert_legal(&back, Some(&fam.graph));
    assert_eq!(write_layout(&back), text);
    // stacked placements survived
    assert!(back.nodes.iter().any(|n| n.layer > 0));
}

/// 2-D layouts saved by the harness also round trip (the io path is
/// model-agnostic).
#[test]
fn two_d_layout_round_trips() {
    let fam = families::hypercube(5);
    let r = Engine::new(EngineOptions::default()).run_one(&Job::new("hypercube:5", fam.clone(), 4));
    assert_eq!(r.outcome.check, CheckStatus::Legal);
    assert!(r.outcome.metrics.area > 0);
    let layout = fam.realize(4);
    let back = read_layout(&write_layout(&layout)).unwrap();
    checker::assert_legal(&back, Some(&fam.graph));
    assert_eq!(
        LayoutMetrics::of(&back).area,
        LayoutMetrics::of(&layout).area
    );
}
