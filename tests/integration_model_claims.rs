//! Integration: the paper's headline quantitative claims (§1 claims
//! 1–4, §2.2), asserted as shape properties of measured layouts.

use mlv_formulas::predictions;
use mlv_grid::checker;
use mlv_grid::metrics::LayoutMetrics;
use mlv_layout::baseline::compare_models;
use mlv_layout::engine::{CheckStatus, Engine, EngineOptions, Job};
use mlv_layout::families::{self, Family};
use mlv_layout::realize::align_wires;

/// Metrics of `family` at `layers` from an engine job whose check
/// passed.
fn metrics(family: &Family, layers: usize) -> LayoutMetrics {
    let job = Job::new(&family.spec.name, family.clone(), layers);
    let r = Engine::new(EngineOptions::default()).run_one(&job);
    assert_eq!(r.outcome.check, CheckStatus::Legal, "{}", r.label);
    r.outcome.metrics.clone()
}

/// Claim 1: redesigning for L layers beats folding a Thompson layout —
/// on track-dominated instances the direct area gain exceeds the folded
/// gain for every L > 2.
#[test]
fn direct_redesign_beats_folding() {
    let spec = families::genhyper(&[16, 16]).spec;
    for layers in [4usize, 8, 16] {
        let cmp = compare_models(&spec, layers);
        assert!(
            cmp.direct_area_gain() > cmp.folded_area_gain(),
            "L={layers}: direct {} <= folded {}",
            cmp.direct_area_gain(),
            cmp.folded_area_gain()
        );
    }
}

/// Claim 2: the direct redesign reduces volume; folding does not.
#[test]
fn volume_gains() {
    let spec = families::genhyper(&[16, 16]).spec;
    let cmp = compare_models(&spec, 8);
    assert!(cmp.direct_volume_gain() > 1.3);
    assert!(cmp.folded_volume_gain() <= 1.0 + 1e-9);
}

/// Claim 3: the direct redesign shortens the longest wire by a growing
/// factor; folding leaves it unchanged.
#[test]
fn wire_gains() {
    let spec = families::genhyper(&[16, 16]).spec;
    let cmp4 = compare_models(&spec, 4);
    let cmp8 = compare_models(&spec, 8);
    assert!(cmp4.direct_wire_gain() > 1.2);
    assert!(cmp8.direct_wire_gain() > cmp4.direct_wire_gain());
    assert!(cmp8.folded_wire_gain() <= 1.0 + 1e-9);
}

/// Claim 4: the routed-path metric improves with L like the wire
/// lengths do (GHC: paper predicts rN/L).
#[test]
fn routed_path_scales_with_layers() {
    let fam = families::genhyper(&[10, 10]);
    let routed = |layers| {
        let mut layout = fam.realize(layers);
        checker::assert_legal(&layout, Some(&fam.graph));
        align_wires(&mut layout, &fam.graph);
        LayoutMetrics::max_routed_path(&layout, &fam.graph).unwrap()
    };
    let (r2, r8) = (routed(2), routed(8));
    assert!(
        r2 as f64 / r8 as f64 > 2.0,
        "routed path gain only {}",
        r2 as f64 / r8 as f64
    );
}

/// The measured/predicted area ratio improves (falls toward 1) with N
/// for the product families — the o(1) terms die out.
#[test]
fn prediction_ratios_improve_with_n() {
    let mut prev = f64::MAX;
    for n in [6usize, 8, 10] {
        let fam = families::hypercube(n);
        let m = metrics(&fam, 2);
        let p = predictions::hypercube(1 << n, 2);
        let ratio = m.area as f64 / p.area;
        assert!(ratio < prev, "hypercube ratio not improving at n={n}");
        assert!(ratio >= 1.0, "measured beat the leading term at n={n}?");
        prev = ratio;
    }
    let mut prev = f64::MAX;
    for r in [8usize, 12, 16, 24] {
        let fam = families::genhyper(&[r, r]);
        let m = metrics(&fam, 2);
        let p = predictions::genhyper(r, 2, 2);
        let ratio = m.area as f64 / p.area;
        assert!(ratio < prev, "GHC ratio not improving at r={r}");
        prev = ratio;
    }
}

/// GHC at large r: measured area within 2x of the paper's leading term
/// at the 2-layer (Thompson) point, and max wire within 25%.
#[test]
fn ghc_close_to_paper_constants() {
    let fam = families::genhyper(&[24, 24]);
    let m = metrics(&fam, 2);
    let p = predictions::genhyper(24, 2, 2);
    let a_ratio = m.area as f64 / p.area;
    assert!(a_ratio < 2.0, "area ratio {a_ratio}");
    let w_ratio = m.max_wire_planar as f64 / p.max_wire.unwrap();
    assert!(w_ratio < 1.25, "wire ratio {w_ratio}");
}

/// Odd layer counts behave exactly like the next-lower even count
/// (⌊L/2⌋ groups; the paper's L²−1 denominators).
#[test]
fn odd_layers_match_next_even() {
    for (fam, name) in [
        (families::hypercube(6), "6-cube"),
        (families::karyn_cube(4, 3, false), "4-ary 3-cube"),
    ] {
        for odd in [3usize, 5, 7] {
            let mo = metrics(&fam, odd);
            let me = metrics(&fam, odd - 1);
            assert_eq!(
                mo.area,
                me.area,
                "{name}: area at L={odd} differs from L={}",
                odd - 1
            );
        }
    }
}

/// Area scales like 1/L² once wiring dominates: on K24xK24 the L=2 to
/// L=8 gain matches the exact pitch model ((s+T)/(s+⌈T/4⌉))² — tracks
/// shrink by the full factor ⌊L/2⌋, footprints account for the rest.
#[test]
fn quadratic_area_scaling_on_dense_network() {
    let fam = families::genhyper(&[24, 24]);
    let a2 = metrics(&fam, 2).area as f64;
    let a8 = metrics(&fam, 8).area as f64;
    let gain = a2 / a8;
    let (s, t) = (25.0f64, 144.0f64); // side 24+1, tracks 24²/4
    let model = ((s + t) / (s + (t / 4.0).ceil())).powi(2);
    assert!(
        (gain - model).abs() / model < 0.05,
        "gain {gain} vs model {model}"
    );
    assert!(gain > 7.0, "gain only {gain}");
}

/// The paper's model-gain formulas themselves.
#[test]
fn model_gain_formulas() {
    assert_eq!(predictions::model_area_gain_direct(8), 16.0);
    assert_eq!(predictions::model_area_gain_folded(8), 4.0);
    assert_eq!(predictions::model_area_gain_direct(7), 12.0);
}
