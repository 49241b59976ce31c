//! The conformance oracles, each returning human-readable violation
//! strings (empty = pass).
//!
//! 1. [`checker_oracle`] — the grid legality checker with the source
//!    graph as reference, on both the direct L-layer layout and the
//!    2-layer Thompson layout.
//! 2. [`differential_oracle`] — shared invariants between the direct
//!    L-layer scheme, the 2-layer Thompson layout, and the analytic
//!    folded-Thompson baseline: identical node and edge multisets,
//!    monotone area/max-wire in L, the `volume = L·area` identity, and
//!    the paper's model-ordering claims that are theorems of the
//!    constructions (folding gains ≤ L/2 area and never improves
//!    volume or max wire).
//! 3. [`prediction_oracle`] — measured area/volume/max-wire stay inside
//!    the leading-constant envelopes derived from `mlv-formulas`.
//! 4. [`tiled_oracle`] — the tiled IR differential: the engine's
//!    digest, streamed from tiles, matches the materialized layout's,
//!    and the checker and metrics walking the tile instances agree with
//!    their results on the materialized layout.
//! 5. [`pdk_oracle`] (run only with the PDK axis on) — the technology
//!    differential: the uniform PDK is the identity, the built-in
//!    `hv6` stack realizes legally under direction/pitch checks, and
//!    physical metrics obey the pitch-scaling laws.

use crate::cases::Case;
use mlv_grid::checker;
use mlv_grid::fold::FoldedEstimate;
use mlv_grid::layout::Layout;
use mlv_grid::metrics::{LayoutMetrics, PhysicalMetrics};
use mlv_grid::pdk::Pdk;
use mlv_topology::NodeId;
use std::collections::BTreeMap;

/// Oracle 1: full legality of both realizations against the graph.
pub fn checker_oracle(case: &Case, direct: &Layout, thompson: &Layout) -> Vec<String> {
    let mut v = Vec::new();
    for (which, layout) in [("direct", direct), ("thompson", thompson)] {
        let r = checker::check(layout, Some(&case.family.graph));
        if !r.is_legal() {
            v.push(format!(
                "[{}] {which} layout illegal: {:?}",
                case.label,
                &r.errors[..r.errors.len().min(2)]
            ));
        }
    }
    v
}

fn node_multiset(layout: &Layout) -> BTreeMap<NodeId, usize> {
    let mut m = BTreeMap::new();
    for n in &layout.nodes {
        *m.entry(n.node).or_insert(0) += 1;
    }
    m
}

/// Oracle 2: differential invariants between the direct scheme, the
/// Thompson layout, and the folded-Thompson baseline.
pub fn differential_oracle(
    case: &Case,
    direct: &Layout,
    dm: &LayoutMetrics,
    thompson: &Layout,
    tm: &LayoutMetrics,
) -> Vec<String> {
    let mut v = Vec::new();
    let graph = &case.family.graph;
    let l = case.label.as_str();

    // same node multiset: every graph node placed exactly once, in both
    let expected: BTreeMap<NodeId, usize> =
        (0..graph.node_count() as NodeId).map(|u| (u, 1)).collect();
    for (which, layout) in [("direct", direct), ("thompson", thompson)] {
        if node_multiset(layout) != expected {
            v.push(format!("[{l}] {which} node multiset != graph nodes"));
        }
    }

    // same edge multiset across direct, thompson, and the graph
    let edges = graph.edge_multiset();
    if direct.wire_multiset() != edges {
        v.push(format!("[{l}] direct edge multiset != graph"));
    }
    if thompson.wire_multiset() != edges {
        v.push(format!("[{l}] thompson edge multiset != graph"));
    }

    // the volume identity both sides of every comparison relies on
    if dm.volume != case.layers as u64 * dm.area {
        v.push(format!("[{l}] direct volume != L*area"));
    }
    if tm.volume != 2 * tm.area {
        v.push(format!("[{l}] thompson volume != 2*area"));
    }

    // monotone in L: more layers never cost area or max wire
    if dm.area > tm.area {
        v.push(format!(
            "[{l}] area not monotone: L={} area {} > 2-layer {}",
            case.layers, dm.area, tm.area
        ));
    }
    if dm.max_wire_planar > tm.max_wire_planar {
        v.push(format!(
            "[{l}] max wire not monotone: L={} wire {} > 2-layer {}",
            case.layers, dm.max_wire_planar, tm.max_wire_planar
        ));
    }

    // the folded-Thompson baseline (defined for even L >= 2): folding
    // gains at most t = L/2 area and never improves volume or max wire
    let even = case.layers & !1;
    if even >= 2 {
        let folded = FoldedEstimate::from_two_layer(tm, even);
        let t = (even / 2) as u64;
        if folded.area * t < tm.area {
            v.push(format!(
                "[{l}] folded baseline gained more than L/2 area: {} * {t} < {}",
                folded.area, tm.area
            ));
        }
        if folded.volume < tm.volume {
            v.push(format!(
                "[{l}] folded baseline reduced volume: {} < {}",
                folded.volume, tm.volume
            ));
        }
        if folded.max_wire < tm.max_wire_full {
            v.push(format!(
                "[{l}] folded baseline shortened max wire: {} < {}",
                folded.max_wire, tm.max_wire_full
            ));
        }
    }
    v
}

/// Oracle 3: leading-constant envelopes. The tight bounds apply at the
/// Thompson point (where the paper's constants are calibrated); at the
/// case's L the caps relax by exactly the model's saturation allowance
/// — `l2_eff(L)/4` for area (node footprints may absorb the entire
/// L²/4 gain at small N) and `L/2` for max wire — while the lower
/// envelope (measured never beats the leading term by more than the
/// family slack) stays in force.
pub fn prediction_oracle(case: &Case, dm: &LayoutMetrics, tm: &LayoutMetrics) -> Vec<String> {
    let Some(pred) = &case.predicted else {
        return Vec::new();
    };
    let mut v = Vec::new();
    let l = case.label.as_str();
    let env = pred.envelope;

    let check_ratio =
        |v: &mut Vec<String>, what: &str, measured: f64, predicted: f64, lo: f64, hi: f64| {
            if predicted <= 0.0 {
                return;
            }
            let r = measured / predicted;
            if r < lo || r > hi {
                v.push(format!(
                    "[{l}] {what} ratio {r:.4} outside envelope [{lo}, {hi}] \
                 (measured {measured}, leading term {predicted:.2})"
                ));
            }
        };

    // Thompson point: tight, calibrated bounds
    let (alo, ahi) = env.area;
    check_ratio(
        &mut v,
        "thompson area",
        tm.area as f64,
        pred.at_thompson.area,
        alo,
        ahi,
    );
    check_ratio(
        &mut v,
        "thompson volume",
        tm.volume as f64,
        pred.at_thompson.volume,
        alo,
        ahi,
    );
    if let (Some((wlo, whi)), Some(pw)) = (env.wire, pred.at_thompson.max_wire) {
        check_ratio(
            &mut v,
            "thompson max wire",
            tm.max_wire_planar as f64,
            pw,
            wlo,
            whi,
        );
    }

    // case's L: lower envelope unchanged, caps relaxed by saturation
    let saturation = pred.at_thompson.area / pred.at_layers.area; // = l2_eff(L)/4
    check_ratio(
        &mut v,
        "area",
        dm.area as f64,
        pred.at_layers.area,
        alo,
        ahi * saturation,
    );
    check_ratio(
        &mut v,
        "volume",
        dm.volume as f64,
        pred.at_layers.volume,
        alo,
        ahi * saturation,
    );
    if let (Some((wlo, whi)), Some(pw)) = (env.wire, pred.at_layers.max_wire) {
        let wire_saturation = case.layers as f64 / 2.0;
        check_ratio(
            &mut v,
            "max wire",
            dm.max_wire_planar as f64,
            pw,
            wlo,
            whi * wire_saturation,
        );
    }
    v
}

/// Oracle 4: tiled-vs-flat differential. The engine realized the case
/// into the tiled IR and took its digest, metrics and check from the
/// tiles; its flat layout is `materialize(tiled)`. This oracle
/// realizes the spec into tiles again and pins three equivalences
/// between the two `StreamSource` implementations:
///
/// 1. the engine's digest, streamed from its tiles, equals the digest
///    of the materialized layout's text serialization;
/// 2. streaming metrics over the tile instances equal
///    [`LayoutMetrics::of`] on the materialized layout;
/// 3. the checker's report (errors, order, point totals) on the tile
///    instances equals its report on the materialized layout.
///
/// Absolute geometry is pinned elsewhere: by the lattice digests and
/// the registry examples' digest fixture in `mlv-layout`.
pub fn tiled_oracle(case: &Case, direct: &mlv_layout::engine::JobOutcome) -> Vec<String> {
    let mut v = Vec::new();
    let l = case.label.as_str();
    let Some(dl) = &direct.layout else {
        return v;
    };
    let tiled = mlv_layout::realize_tiled(
        &case.family.spec,
        &mlv_layout::RealizeOptions::with_layers(case.layers),
    );
    let flat_digest = mlv_layout::engine::layout_digest(&tiled.materialize());
    if flat_digest != direct.digest {
        v.push(format!(
            "[{l}] materialized digest {flat_digest:#018x} != streamed {:#018x}",
            direct.digest
        ));
    }
    let sm = mlv_grid::streaming::metrics_stream(&tiled);
    let fm = LayoutMetrics::of(dl);
    if sm != fm {
        v.push(format!(
            "[{l}] streaming metrics diverge: tiled {sm:?} vs flat {fm:?}"
        ));
    }
    let on_flat = checker::check(dl, Some(&case.family.graph));
    let on_tiles = checker::check(&tiled, Some(&case.family.graph));
    if on_tiles != on_flat {
        v.push(format!(
            "[{l}] checker reports diverge: tiled {on_tiles:?} vs flat {on_flat:?}"
        ));
    }
    v
}

/// Oracle 5: technology differential, pinning four laws of the PDK
/// threading against the engine's (PDK-free) direct realization:
///
/// 1. **uniform identity** — a *fresh* realization under an explicit
///    [`Pdk::uniform`] stack (no memo cache involved) is byte-identical
///    to the PDK-free layout;
/// 2. [`PhysicalMetrics`] under the uniform stack reduce exactly to the
///    grid [`LayoutMetrics`];
/// 3. the built-in `hv6` stack realizes legally under the
///    direction/pitch checker ([`checker::check_with_pdk`]);
/// 4. pitch scaling is exactly linear: tripling every pitch/via cost
///    triples wirelength and via cost and multiplies area by 9.
pub fn pdk_oracle(case: &Case, direct: &mlv_layout::engine::JobOutcome) -> Vec<String> {
    let mut v = Vec::new();
    let l = case.label.as_str();
    let Some(dl) = &direct.layout else {
        return v;
    };

    // 1. uniform identity, realized fresh so a memo-cache hit cannot
    // make the comparison vacuous
    let uniform = Pdk::uniform(case.layers);
    let ul = mlv_layout::realize(
        &case.family.spec,
        &mlv_layout::RealizeOptions::with_pdk(case.layers, uniform.clone()),
    );
    let udigest = mlv_layout::engine::layout_digest(&ul);
    if udigest != direct.digest {
        v.push(format!(
            "[{l}] uniform-PDK realization digest {udigest:#018x} != PDK-free {:#018x}",
            direct.digest
        ));
    }

    // 2. physical metrics reduce to grid metrics on the uniform stack
    match PhysicalMetrics::of(dl, &uniform) {
        Err(e) => v.push(format!("[{l}] uniform physical metrics failed: {e}")),
        Ok(ph) => {
            let m = &direct.metrics;
            if ph.wirelength != m.total_wire
                || ph.max_wire != m.max_wire_full
                || ph.via_cost != m.via_count
                || ph.area != m.area
            {
                v.push(format!(
                    "[{l}] uniform physical metrics not the identity: {ph:?} vs {m:?}"
                ));
            }
        }
    }

    // 3. hv6 realizes legally under direction/pitch checks
    let hv6 = Pdk::hv6();
    let hl = mlv_layout::realize(
        &case.family.spec,
        &mlv_layout::RealizeOptions::with_pdk(case.layers, hv6.clone()),
    );
    let report = checker::check_with_pdk(&hl, Some(&case.family.graph), &hv6);
    if !report.is_legal() {
        v.push(format!(
            "[{l}] hv6 realization illegal: {:?}",
            &report.errors[..report.errors.len().min(2)]
        ));
    }

    // 4. exact linearity under pitch scaling
    let scaled = hv6.scaled(3).expect("hv6 x3 cannot overflow");
    match (
        PhysicalMetrics::of(&hl, &hv6),
        PhysicalMetrics::of(&hl, &scaled),
    ) {
        (Ok(p1), Ok(p3)) => {
            if p3.wirelength != 3 * p1.wirelength
                || p3.via_cost != 3 * p1.via_cost
                || p3.area != 9 * p1.area
            {
                v.push(format!(
                    "[{l}] pitch scaling not linear: x3 gave {p3:?} from {p1:?}"
                ));
            }
        }
        (r1, r3) => v.push(format!(
            "[{l}] hv6 physical metrics failed: {r1:?} / {r3:?}"
        )),
    }
    v
}
