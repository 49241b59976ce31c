//! Layout metrics: the paper's four figures of merit.
//!
//! * **area** — grid points of the smallest upright bounding rectangle
//!   (paper §2.1/§2.2);
//! * **volume** — `L × area` (paper §2.2 defines volume exactly this
//!   way);
//! * **maximum wire length** — longest single wire; we report both the
//!   planar length (x/y segments, the quantity the paper's closed forms
//!   track) and the full length including vias;
//! * **maximum routed-path length** — the maximum over all
//!   source–destination pairs of the total wire length along a shortest
//!   routing path (paper §1 claim 4), computed by plugging realized wire
//!   lengths into BFS shortest paths of the reference graph.

use crate::geom::{Point3, Rect};
use crate::layout::Layout;
use crate::pdk::{DbUnits, Pdk};
use crate::streaming::StreamSource;
use mlv_topology::routing::max_route_cost;
use mlv_topology::Graph;

/// Aggregated metrics of one layout.
///
/// Every `u64` field saturates at `u64::MAX`: a layout whose
/// coordinates span the whole `i64` range is 2⁶⁴ columns wide.
#[derive(Clone, Debug, PartialEq)]
pub struct LayoutMetrics {
    /// Bounding-box width (grid columns), saturating.
    pub width: u64,
    /// Bounding-box height (grid rows), saturating.
    pub height: u64,
    /// `width × height`, saturating.
    pub area: u64,
    /// `layers × area`, saturating.
    pub volume: u64,
    /// Layer budget of the layout.
    pub layers: usize,
    /// Highest layer index actually used (0-based).
    pub max_used_layer: i32,
    /// Longest wire, planar (x/y) length, saturating.
    pub max_wire_planar: u64,
    /// Longest wire, full length including vias, saturating.
    pub max_wire_full: u64,
    /// Sum of all wire lengths (full), saturating.
    pub total_wire: u64,
    /// Number of wires.
    pub wire_count: usize,
    /// Number of vias (unit z-steps) across all wires, saturating.
    pub via_count: u64,
}

impl LayoutMetrics {
    /// Compute metrics for a layout. Empty layouts get all-zero metrics.
    pub fn of(layout: &Layout) -> Self {
        let (bb, max_used_layer) = layout.extents();
        let (width, height) = match bb {
            Some(bb) => (bb.width(), bb.height()),
            None => (0, 0),
        };
        let area = width.saturating_mul(height);
        let (max_wire_planar, max_wire_full, total_wire, via_count) =
            layout.wires.iter().fold((0, 0, 0u64, 0u64), |a, w| {
                let (planar, full, vias) = w.path.stats();
                let (total, via_total) = (a.2.saturating_add(full), a.3.saturating_add(vias));
                (a.0.max(planar), a.1.max(full), total, via_total)
            });
        LayoutMetrics {
            width,
            height,
            area,
            volume: (layout.layers as u64).saturating_mul(area),
            layers: layout.layers,
            max_used_layer,
            max_wire_planar,
            max_wire_full,
            total_wire,
            wire_count: layout.wires.len(),
            via_count,
        }
    }

    /// Maximum total wire length along a shortest routing path between
    /// any source–destination pair (paper §1 claim 4). Requires the
    /// reference graph whose edge order matches `layout.wires` — i.e.
    /// wire `i` realizes edge `i`. `None` if the graph is disconnected
    /// or trivial (metric taken as undefined), or if the layout's wire
    /// count does not match the graph's edge count — untrusted
    /// (e.g. loaded-from-disk) layouts must not crash the caller, and a
    /// mismatched pairing has no meaningful routed-path metric anyway.
    pub fn max_routed_path(layout: &Layout, graph: &Graph) -> Option<u64> {
        if layout.wires.len() != graph.edge_count() {
            return None;
        }
        let lens: Vec<u64> = layout.wires.iter().map(|w| w.path.length()).collect();
        max_route_cost(graph, |e| lens[e as usize])
    }
}

/// Pitch-weighted physical metrics of a layout under a [`Pdk`] — the
/// units in which the exact-wirelength embedding literature states its
/// results.
///
/// This is a **pure cost model** over the layout's grid geometry: a
/// planar unit step on layer `z` costs `pitch(z)` [`DbUnits`], and a
/// via crossing from layer `z` to `z + 1` costs `via_cost(z)`. The
/// bounding box is scaled by the stack's track-spacing scales. Two
/// exact laws follow by construction (and are pinned by the
/// conformance PDK oracle):
///
/// * **identity** — under [`Pdk::uniform`] the physical wirelength
///   equals [`LayoutMetrics::total_wire`] exactly and the physical
///   area equals the grid area;
/// * **linearity** — under [`Pdk::scaled`]`(k)` the physical
///   wirelength of the same layout is exactly `k` times larger.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhysicalMetrics {
    /// Stack the metrics were computed under.
    pub pdk: String,
    /// Bounding-box width × horizontal track-spacing scale.
    pub width: DbUnits,
    /// Bounding-box height × vertical track-spacing scale.
    pub height: DbUnits,
    /// `width × height`.
    pub area: DbUnits,
    /// Sum over wires of pitch-weighted planar steps plus via costs.
    pub wirelength: DbUnits,
    /// Longest single wire under the same weighting.
    pub max_wire: DbUnits,
    /// The via-cost portion of `wirelength`.
    pub via_cost: DbUnits,
}

impl PhysicalMetrics {
    /// Compute the pitch-weighted metrics of a layout — a flat
    /// [`Layout`] or any other [`StreamSource`] — under `pdk`, in one
    /// walk. Corners below layer 0 (only possible in deliberately
    /// illegal layouts) are priced as layer 0.
    ///
    /// All pitch multiplications and cost sums are checked: a stack
    /// with adversarially large pitches or via costs (e.g. a hostile
    /// `@file.pdk` handed to the server) surfaces as an `Err`, never a
    /// debug-panic or a silently wrapped release number.
    pub fn of<S: StreamSource + ?Sized>(src: &S, pdk: &Pdk) -> Result<Self, String> {
        let overflow = || format!("pdk `{}`: physical metrics overflow", pdk.name);
        let mut bb: Option<Rect> = None;
        src.visit_nodes(&mut |n| {
            bb = Some(bb.map_or(n.rect, |r| r.union(&n.rect)));
        });
        let wire_cost = |corners: &[Point3]| -> Option<(DbUnits, DbUnits)> {
            let mut planar = 0u64;
            let mut vias = 0u64;
            for pair in corners.windows(2) {
                let (a, b) = (pair[0], pair[1]);
                if a.z != b.z {
                    let (lo, hi) = (a.z.min(b.z).max(0), a.z.max(b.z).max(0));
                    for z in lo..hi {
                        vias = vias.checked_add(pdk.layer_at(z as usize).via_cost)?;
                    }
                } else {
                    let steps = a.x.abs_diff(b.x).checked_add(a.y.abs_diff(b.y))?;
                    let cost = steps.checked_mul(pdk.layer_at(a.z.max(0) as usize).pitch)?;
                    planar = planar.checked_add(cost)?;
                }
            }
            Some((planar, vias))
        };
        // (total, longest, via total); the first overflowing wire turns
        // it to None, which fails the whole layout
        let mut sums = Some((0u64, 0u64, 0u64));
        src.visit_wires(&mut |_, _, corners| {
            for c in corners {
                match &mut bb {
                    Some(r) => r.expand_to(c.x, c.y),
                    None => bb = Some(Rect::new(c.x, c.y, c.x, c.y)),
                }
            }
            sums = sums.and_then(|(total, longest, via_total)| {
                let (planar, vias) = wire_cost(corners)?;
                let full = planar.checked_add(vias)?;
                Some((
                    total.checked_add(full)?,
                    longest.max(full),
                    via_total.checked_add(vias)?,
                ))
            });
        });
        // unlike `Rect::width`, a span of 2⁶⁴ grid points is an overflow
        let (gw, gh) = match bb {
            Some(bb) => (
                bb.x1.abs_diff(bb.x0).checked_add(1).ok_or_else(overflow)?,
                bb.y1.abs_diff(bb.y0).checked_add(1).ok_or_else(overflow)?,
            ),
            None => (0, 0),
        };
        let width = gw
            .checked_mul(pdk.xscale(src.layers()) as DbUnits)
            .ok_or_else(overflow)?;
        let height = gh
            .checked_mul(pdk.yscale(src.layers()) as DbUnits)
            .ok_or_else(overflow)?;
        let area = width.checked_mul(height).ok_or_else(overflow)?;
        let (wirelength, max_wire, via_cost) = sums.ok_or_else(overflow)?;
        Ok(PhysicalMetrics {
            pdk: pdk.name.clone(),
            width,
            height,
            area,
            wirelength,
            max_wire,
            via_cost,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::{Point3, Rect};
    use crate::path::WirePath;
    use mlv_topology::GraphBuilder;

    fn p(x: i64, y: i64, z: i32) -> Point3 {
        Point3::new(x, y, z)
    }

    #[test]
    fn metrics_of_simple_layout() {
        let mut l = Layout::new("t", 4);
        l.place_node(0, Rect::new(0, 0, 1, 1));
        l.place_node(1, Rect::new(8, 0, 9, 1));
        l.add_wire(
            0,
            1,
            WirePath::new(vec![p(1, 1, 0), p(1, 1, 1), p(8, 1, 1), p(8, 1, 0)]),
        );
        let m = LayoutMetrics::of(&l);
        assert_eq!(m.width, 10);
        assert_eq!(m.height, 2);
        assert_eq!(m.area, 20);
        assert_eq!(m.volume, 80);
        assert_eq!(m.max_wire_planar, 7);
        assert_eq!(m.max_wire_full, 9);
        assert_eq!(m.via_count, 2);
        assert_eq!(m.max_used_layer, 1);
    }

    #[test]
    fn empty_layout_metrics() {
        let m = LayoutMetrics::of(&Layout::new("e", 2));
        assert_eq!(m.area, 0);
        assert_eq!(m.max_wire_full, 0);
        assert_eq!(m.wire_count, 0);
    }

    #[test]
    fn routed_path_metric() {
        // path graph 0-1-2, wire lengths 5 and 7 -> max routed path 12
        let mut b = GraphBuilder::new("p3", 3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let g = b.build();
        let mut l = Layout::new("t", 2);
        l.place_node(0, Rect::new(0, 0, 0, 0));
        l.place_node(1, Rect::new(5, 0, 5, 0));
        l.place_node(2, Rect::new(12, 0, 12, 0));
        l.add_wire(0, 1, WirePath::new(vec![p(0, 0, 0), p(5, 0, 0)]));
        l.add_wire(1, 2, WirePath::new(vec![p(5, 0, 0), p(12, 0, 0)]));
        assert_eq!(LayoutMetrics::max_routed_path(&l, &g), Some(12));
    }

    #[test]
    fn routed_path_none_on_wire_edge_mismatch() {
        // a layout whose wires do not pair 1:1 with the graph's edges
        // (e.g. loaded from disk) must yield None, not a panic
        let mut b = GraphBuilder::new("p3", 3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let g = b.build();
        let mut l = Layout::new("t", 2);
        l.place_node(0, Rect::new(0, 0, 0, 0));
        l.add_wire(0, 1, WirePath::new(vec![p(0, 0, 0), p(5, 0, 0)]));
        assert_eq!(LayoutMetrics::max_routed_path(&l, &g), None);
    }

    #[test]
    fn physical_uniform_is_the_identity() {
        let mut l = Layout::new("t", 4);
        l.place_node(0, Rect::new(0, 0, 1, 1));
        l.place_node(1, Rect::new(8, 0, 9, 1));
        l.add_wire(
            0,
            1,
            WirePath::new(vec![p(1, 1, 0), p(1, 1, 1), p(8, 1, 1), p(8, 1, 0)]),
        );
        let m = LayoutMetrics::of(&l);
        let ph = PhysicalMetrics::of(&l, &Pdk::uniform(4)).unwrap();
        assert_eq!(ph.wirelength, m.total_wire);
        assert_eq!(ph.max_wire, m.max_wire_full);
        assert_eq!(ph.via_cost, m.via_count);
        assert_eq!(ph.area, m.area);
        assert_eq!((ph.width, ph.height), (m.width, m.height));
    }

    #[test]
    fn physical_weights_by_pitch_and_via_cost() {
        // one x-run of 7 on layer 1 (hv6 M2: V, pitch 2), two via
        // crossings of the M1->M2 boundary (via_cost 2 each)
        let mut l = Layout::new("t", 2);
        l.place_node(0, Rect::new(0, 0, 1, 1));
        l.place_node(1, Rect::new(8, 0, 9, 1));
        l.add_wire(
            0,
            1,
            WirePath::new(vec![p(1, 1, 0), p(1, 1, 1), p(8, 1, 1), p(8, 1, 0)]),
        );
        let hv6 = Pdk::hv6();
        let ph = PhysicalMetrics::of(&l, &hv6).unwrap();
        assert_eq!(ph.via_cost, 2 * hv6.layers[0].via_cost);
        assert_eq!(ph.wirelength, 7 * hv6.layers[1].pitch + ph.via_cost);
        // exact linearity under pitch scaling
        let ph3 = PhysicalMetrics::of(&l, &hv6.scaled(3).unwrap()).unwrap();
        assert_eq!(ph3.wirelength, 3 * ph.wirelength);
        assert_eq!(ph3.via_cost, 3 * ph.via_cost);
    }

    #[test]
    fn total_wire_sums() {
        let mut l = Layout::new("t", 2);
        l.place_node(0, Rect::new(0, 0, 0, 0));
        l.place_node(1, Rect::new(3, 0, 3, 0));
        l.add_wire(0, 1, WirePath::new(vec![p(0, 0, 0), p(3, 0, 0)]));
        l.add_wire(
            0,
            1,
            WirePath::new(vec![p(0, 0, 0), p(0, 1, 0), p(3, 1, 0), p(3, 0, 0)]),
        );
        let m = LayoutMetrics::of(&l);
        assert_eq!(m.total_wire, 3 + 5);
        assert_eq!(m.wire_count, 2);
    }
}
