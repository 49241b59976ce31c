//! Integration: scaling behaviours — node-size scalability (§3.2),
//! folded wire shortening (§3.1), cluster-c overhead (§3.2), and
//! family-vs-family shape relations.

use mlv_grid::checker;
use mlv_grid::metrics::LayoutMetrics;
use mlv_layout::engine::{CheckStatus, Engine, EngineOptions, Job};
use mlv_layout::families::{self, Family};
use mlv_layout::realize::RealizeOptions;
use mlv_topology::cluster::ClusterKind;

/// Metrics of `family` at `layers` from an engine job whose check
/// passed.
fn metrics(family: &Family, layers: usize) -> LayoutMetrics {
    let job = Job::new(&family.spec.name, family.clone(), layers);
    let r = Engine::new(EngineOptions::default()).run_one(&job);
    assert_eq!(r.outcome.check, CheckStatus::Legal, "{}", r.label);
    r.outcome.metrics.clone()
}

/// §3.2 node-size scalability: growing node footprints well below the
/// per-gap track budget moves the area only marginally; the growth is
/// exactly pitch-quadratic.
#[test]
fn node_size_scalability() {
    let fam = families::genhyper(&[16, 16]);
    let base = metrics(&fam, 2);
    // base pitch: side 16 + 64 tracks (K16 collinear = 64)
    let layout = fam.realize_with(&RealizeOptions {
        node_side: Some(24),
        ..RealizeOptions::with_layers(2)
    });
    checker::assert_legal(&layout, Some(&fam.graph));
    let m = LayoutMetrics::of(&layout);
    let measured_ratio = m.area as f64 / base.area as f64;
    let expected = (88.0f64 / 80.0).powi(2);
    assert!(
        (measured_ratio - expected).abs() < 1e-6,
        "ratio {measured_ratio} vs pitch model {expected}"
    );
    // and it stays under 1.25 while side << tracks
    assert!(measured_ratio < 1.25);
}

/// §3.1 folding: on a large-radix torus the folded order cuts the
/// longest wire by roughly k/2 while costing few extra tracks.
#[test]
fn folding_shortens_wires() {
    let plain = metrics(&families::karyn_cube(8, 2, false), 2);
    let folded = metrics(&families::karyn_cube(8, 2, true), 2);
    let gain = plain.max_wire_planar as f64 / folded.max_wire_planar as f64;
    assert!(gain > 2.0, "fold gain {gain}");
    // area overhead bounded
    let overhead = folded.area as f64 / plain.area as f64;
    assert!(overhead < 2.0, "fold area overhead {overhead}");
}

/// §3.2 cluster-c: the overhead over the flat quotient torus shrinks as
/// the radix k grows at fixed c (the paper's c = o(k^{n/2-1}) regime).
#[test]
fn cluster_overhead_shrinks_with_radix() {
    let overhead = |k: usize| {
        let fam = families::kary_cluster(k, 4, 2, ClusterKind::Ring);
        let flat = families::karyn_cube(k, 4, false);
        let a = metrics(&fam, 2).area as f64;
        let b = metrics(&flat, 2).area as f64;
        a / b
    };
    let o4 = overhead(4);
    let o8 = overhead(8);
    assert!(o8 < o4, "overhead did not shrink: k=4 {o4}, k=8 {o8}");
    assert!(o8 < 2.5, "overhead too large at k=8: {o8}");
}

/// §5.2: CCC area stays within a small constant of its quotient
/// hypercube — the constant-degree network rides almost free.
#[test]
fn ccc_overhead_over_quotient_cube() {
    for n in [4usize, 5, 6] {
        let c = metrics(&families::ccc(n), 2).area as f64;
        let h = metrics(&families::hypercube(n), 2).area as f64;
        let overhead = c / h;
        assert!(
            overhead < 8.0,
            "CCC({n}) overhead {overhead} over its quotient cube"
        );
    }
}

/// §5.3: plain < folded < enhanced in area at every layer count, and
/// the ratios stay below the paper's worst-case constants (49/16 and
/// 100/16).
#[test]
fn variant_area_ordering() {
    for layers in [2usize, 4] {
        let plain = metrics(&families::hypercube(7), layers).area as f64;
        let folded = metrics(&families::folded_hypercube(7), layers).area as f64;
        let enhanced = metrics(&families::enhanced_cube(7, 5), layers).area as f64;
        assert!(plain < folded && folded < enhanced);
        assert!(folded / plain <= 49.0 / 16.0 + 0.5, "{}", folded / plain);
        assert!(
            enhanced / plain <= 100.0 / 16.0 + 0.5,
            "{}",
            enhanced / plain
        );
    }
}

/// Lower-bound sanity: every measured layout sits above the trivial
/// (B/L)² bound.
#[test]
fn measured_areas_respect_lower_bounds() {
    use mlv_formulas::{bisection, bounds};
    for layers in [2usize, 4, 8] {
        let m = metrics(&families::hypercube(8), layers);
        let bound = bounds::area_lower_bound(bisection::hypercube(8), layers);
        assert!(m.area as f64 >= bound);
        let m = metrics(&families::genhyper(&[12, 12]), layers);
        let bound = bounds::area_lower_bound(bisection::genhyper(12, 2), layers);
        assert!(m.area as f64 >= bound);
    }
}

/// Butterfly measured/paper area ratio falls monotonically with m —
/// the N²/lg²N scaling is visible even where constants are diluted.
#[test]
fn butterfly_ratio_improves_with_m() {
    use mlv_formulas::predictions::butterfly as predict;
    let mut prev = f64::MAX;
    for m in [4usize, 6, 8, 10] {
        let fam = families::butterfly(m);
        let ratio = metrics(&fam, 2).area as f64 / predict(m << m, 2).area;
        assert!(ratio < prev, "ratio not improving at m={m}: {ratio}");
        prev = ratio;
    }
}
