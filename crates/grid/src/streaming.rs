//! Walking a layout without materializing it.
//!
//! A [`StreamSource`] is any producer that can enumerate node
//! placements and wire corner sequences on demand: the flat [`Layout`],
//! or a tiled IR that expands each tile instance into a ~10-corner
//! buffer as it goes. The legality checker ([`crate::checker`]) and
//! [`metrics_stream`] take any source, and the primitives here keep
//! their memory at O(nodes + one occupancy stripe), never O(grid
//! cells):
//!
//! * `FpIndex` answers "which node's footprint holds this grid point?"
//!   from the node rectangles alone — footprint area costs nothing, so
//!   a single 100001×100001 node is as cheap as a 1×1 one;
//! * `emit_stripe_points` enumerates the grid points of one wire that
//!   fall inside an x-window, so cross-wire occupancy can be sorted one
//!   bounded x-stripe at a time.

use crate::geom::{Point3, Rect};
use crate::hasher::FxBuildHasher;
use crate::layout::{Layout, NodePlacement};
use crate::metrics::LayoutMetrics;
use mlv_topology::NodeId;
use std::collections::HashMap;

/// An abstract layout that can be walked without materializing it.
///
/// Implementors enumerate node placements and wire geometry through
/// callbacks, in the same order a materialized [`Layout`] would store
/// them — the checker's report indexes wires by visiting order, so two
/// sources of the same geometry give the same report only when their
/// orders match. Wire corner slices may be backed by a buffer reused
/// between callback invocations; callers must not retain them.
pub trait StreamSource {
    /// Layout name (diagnostics only).
    fn name(&self) -> &str;
    /// Layer budget `L`.
    fn layers(&self) -> usize;
    /// Number of node placements [`StreamSource::visit_nodes`] yields.
    fn node_count(&self) -> usize;
    /// Number of wires [`StreamSource::visit_wires`] yields.
    fn wire_count(&self) -> usize;
    /// Enumerate every node placement, in layout order.
    fn visit_nodes(&self, f: &mut dyn FnMut(NodePlacement));
    /// Enumerate every wire — endpoints plus the raw corner sequence —
    /// in layout order.
    fn visit_wires(&self, f: &mut dyn FnMut(NodeId, NodeId, &[Point3]));
}

impl StreamSource for Layout {
    fn name(&self) -> &str {
        &self.name
    }

    fn layers(&self) -> usize {
        self.layers
    }

    fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn wire_count(&self) -> usize {
        self.wires.len()
    }

    fn visit_nodes(&self, f: &mut dyn FnMut(NodePlacement)) {
        for n in &self.nodes {
            f(n.clone());
        }
    }

    fn visit_wires(&self, f: &mut dyn FnMut(NodeId, NodeId, &[Point3])) {
        for w in &self.wires {
            f(w.u, w.v, w.path.corners());
        }
    }
}

/// Per-layer footprint index over node rectangles, O(nodes) memory.
///
/// Rectangles sharing one x-span form a *column* (a node column of a
/// grid layout). Columns are sorted by `x0` with a running prefix
/// maximum of `x1`, and each column's rectangles by `y0` with a running
/// prefix maximum of `y1`, so a point query binary-searches both axes
/// and scans back only over entries that can still reach the point —
/// O(log nodes) on a grid of disjoint nodes. Where rectangles overlap
/// (itself a reported violation) the **latest** placement wins, as if
/// every footprint point had been written into a map in placement
/// order.
pub(crate) struct FpIndex {
    by_layer: HashMap<i32, LayerIndex, FxBuildHasher>,
}

#[derive(Default)]
struct LayerIndex {
    /// Sorted by `(x0, x1)`.
    columns: Vec<Column>,
    /// Every rectangle of the layer, column by column, each column's
    /// run sorted by `y0`.
    rows: Vec<Row>,
}

struct Column {
    x0: i64,
    x1: i64,
    /// `max(x1)` over this column and every column before it.
    max_x1: i64,
    /// Start of the column's run in [`LayerIndex::rows`]; the run ends
    /// where the next column's starts.
    start: usize,
}

struct Row {
    y0: i64,
    y1: i64,
    /// `max(y1)` over the column's run up to and including this row.
    max_y1: i64,
    /// Placement order, for the latest-placement-wins rule.
    index: u32,
    node: NodeId,
}

impl FpIndex {
    pub(crate) fn build(placements: &[NodePlacement]) -> FpIndex {
        let mut order: Vec<usize> = (0..placements.len()).collect();
        order.sort_unstable_by_key(|&i| {
            let (r, layer) = (placements[i].rect, placements[i].layer);
            (layer, r.x0, r.x1, r.y0, i)
        });
        let mut by_layer: HashMap<i32, LayerIndex, FxBuildHasher> = HashMap::default();
        for i in order {
            let (r, n) = (placements[i].rect, &placements[i]);
            let li = by_layer.entry(n.layer).or_default();
            let last = li.columns.last();
            let max_y1 = match last {
                Some(c) if (c.x0, c.x1) == (r.x0, r.x1) => {
                    li.rows[li.rows.len() - 1].max_y1.max(r.y1)
                }
                _ => {
                    let max_x1 = last.map_or(r.x1, |c| c.max_x1.max(r.x1));
                    let start = li.rows.len();
                    li.columns.push(Column {
                        x0: r.x0,
                        x1: r.x1,
                        max_x1,
                        start,
                    });
                    r.y1
                }
            };
            li.rows.push(Row {
                y0: r.y0,
                y1: r.y1,
                max_y1,
                index: i as u32,
                node: n.node,
            });
        }
        FpIndex { by_layer }
    }

    /// The node owning grid point `(x, y)` on `layer`, if any — the
    /// latest-placed among all containing footprints.
    pub(crate) fn query(&self, x: i64, y: i64, layer: i32) -> Option<NodeId> {
        let li = self.by_layer.get(&layer)?;
        let mut best: Option<&Row> = None;
        let mut c = li.columns.partition_point(|col| col.x0 <= x);
        while c > 0 && li.columns[c - 1].max_x1 >= x {
            c -= 1;
            let col = &li.columns[c];
            if col.x1 < x {
                continue;
            }
            let end = li
                .columns
                .get(c + 1)
                .map_or(li.rows.len(), |next| next.start);
            let rows = &li.rows[col.start..end];
            let mut r = rows.partition_point(|row| row.y0 <= y);
            while r > 0 && rows[r - 1].max_y1 >= y {
                r -= 1;
                let row = &rows[r];
                if row.y1 >= y && best.is_none_or(|b| row.index > b.index) {
                    best = Some(row);
                }
            }
        }
        best.map(|row| row.node)
    }
}

/// Emit the wire's occupied grid points whose `x` falls in `[lo, hi)`,
/// tagged with the wire index — the same point sequence
/// [`crate::path::WirePath::points`] enumerates, sub-ranged per segment
/// so the cost is O(corners + emitted points) rather than O(all
/// points).
pub(crate) fn emit_stripe_points(
    corners: &[Point3],
    wire: u32,
    lo: i64,
    hi: i64,
    out: &mut Vec<(Point3, u32)>,
) {
    let Some(&p0) = corners.first() else { return };
    if p0.x >= lo && p0.x < hi {
        out.push((p0, wire));
    }
    for w in corners.windows(2) {
        let (a, b) = (w[0], w[1]);
        let steps = a.manhattan(&b) as i64;
        if steps == 0 {
            continue;
        }
        let dx = (b.x - a.x).signum();
        let dy = (b.y - a.y).signum();
        let dz = (b.z - a.z).signum();
        let (t0, t1) = if dx == 0 {
            if a.x >= lo && a.x < hi {
                (1, steps)
            } else {
                continue;
            }
        } else if dx > 0 {
            ((lo - a.x).max(1), (hi - 1 - a.x).min(steps))
        } else {
            ((a.x - (hi - 1)).max(1), (a.x - lo).min(steps))
        };
        for t in t0..=t1 {
            out.push((
                Point3 {
                    x: a.x + dx * t,
                    y: a.y + dy * t,
                    z: a.z + dz * t as i32,
                },
                wire,
            ));
        }
    }
}

/// Streaming metrics: [`LayoutMetrics::of`] computed from one walk of
/// the source's nodes and wires, never holding more than one wire's
/// corners.
pub fn metrics_stream<S: StreamSource + ?Sized>(src: &S) -> LayoutMetrics {
    let mut bb: Option<Rect> = None;
    let mut max_used_layer = 0i32;
    src.visit_nodes(&mut |n| {
        bb = Some(match bb {
            Some(r) => r.union(&n.rect),
            None => n.rect,
        });
    });
    let (mut max_wire_planar, mut max_wire_full) = (0u64, 0u64);
    let (mut total_wire, mut via_count) = (0u64, 0u64);
    src.visit_wires(&mut |_, _, corners| {
        let (mut planar, mut vias) = (0u64, 0u64);
        for c in corners {
            match &mut bb {
                Some(r) => r.expand_to(c.x, c.y),
                None => bb = Some(Rect::new(c.x, c.y, c.x, c.y)),
            }
            max_used_layer = max_used_layer.max(c.z);
        }
        for w in corners.windows(2) {
            planar += w[0].x.abs_diff(w[1].x) + w[0].y.abs_diff(w[1].y);
            vias += w[0].z.abs_diff(w[1].z) as u64;
        }
        let full = planar + vias;
        max_wire_planar = max_wire_planar.max(planar);
        max_wire_full = max_wire_full.max(full);
        total_wire += full;
        via_count += vias;
    });
    let (width, height) = match bb {
        Some(bb) => (bb.width(), bb.height()),
        None => (0, 0),
    };
    let area = width * height;
    LayoutMetrics {
        width,
        height,
        area,
        volume: src.layers() as u64 * area,
        layers: src.layers(),
        max_used_layer,
        max_wire_planar,
        max_wire_full,
        total_wire,
        wire_count: src.wire_count(),
        via_count,
    }
}

#[cfg(test)]
#[path = "../tests/support/naive_checker.rs"]
mod naive_checker;

#[cfg(test)]
mod tests {
    use super::naive_checker::naive_check;
    use super::*;
    use crate::checker::{check, CheckReport};
    use crate::path::WirePath;
    use mlv_topology::{Graph, GraphBuilder};

    fn p(x: i64, y: i64, z: i32) -> Point3 {
        Point3::new(x, y, z)
    }

    fn two_nodes() -> Layout {
        let mut l = Layout::new("pair", 2);
        l.place_node(0, Rect::new(0, 0, 1, 1));
        l.place_node(1, Rect::new(5, 0, 6, 1));
        l
    }

    fn assert_reports_equal(l: &Layout, reference: Option<&Graph>) {
        assert_eq!(check(l, reference), naive_check(l, reference));
    }

    #[test]
    fn legal_layout_agrees_with_full_checker() {
        let mut l = two_nodes();
        l.add_wire(0, 1, WirePath::new(vec![p(1, 0, 0), p(5, 0, 0)]));
        assert_reports_equal(&l, None);
        assert!(check(&l, None).is_legal());
    }

    #[test]
    fn every_defect_class_agrees_with_full_checker() {
        // one layout per defect class, checker vs naive reference
        let mut overlap = two_nodes();
        overlap.place_node(2, Rect::new(1, 1, 2, 2));
        assert_reports_equal(&overlap, None);

        let mut escape = two_nodes();
        escape.add_wire(
            0,
            1,
            WirePath::new(vec![p(1, 0, 0), p(1, 0, 5), p(5, 0, 5), p(5, 0, 0)]),
        );
        assert_reports_equal(&escape, None);

        let mut bad_term = two_nodes();
        bad_term.add_wire(0, 1, WirePath::new(vec![p(2, 0, 0), p(5, 0, 0)]));
        assert_reports_equal(&bad_term, None);

        let mut conflict = two_nodes();
        conflict.add_wire(0, 1, WirePath::new(vec![p(1, 0, 0), p(5, 0, 0)]));
        conflict.add_wire(
            0,
            1,
            WirePath::new(vec![p(1, 1, 0), p(3, 1, 0), p(3, 0, 0), p(5, 0, 0)]),
        );
        assert_reports_equal(&conflict, None);

        let mut through = two_nodes();
        through.place_node(2, Rect::new(3, 0, 3, 3));
        through.add_wire(0, 1, WirePath::new(vec![p(1, 0, 0), p(5, 0, 0)]));
        assert_reports_equal(&through, None);

        let mut missing = two_nodes();
        missing.add_wire(0, 9, WirePath::new(vec![p(1, 0, 0), p(5, 0, 0)]));
        assert_reports_equal(&missing, None);

        // a diagonal segment's enumerated points overshoot its corners'
        // x-range: both wires reach (6, 5) though no corner has x = 6
        let mut diagonal = two_nodes();
        diagonal.add_wire(0, 1, WirePath::new(vec![p(1, 0, 0), p(5, 1, 0)]));
        diagonal.add_wire(0, 1, WirePath::new(vec![p(2, 1, 0), p(5, 4, 0)]));
        assert_reports_equal(&diagonal, None);
    }

    #[test]
    fn topology_mismatch_agrees_with_full_checker() {
        let mut b = GraphBuilder::new("edge", 2);
        b.add_edge(0, 1);
        let g = b.build();
        let mut l = two_nodes();
        l.add_wire(0, 1, WirePath::new(vec![p(1, 0, 0), p(5, 0, 0)]));
        assert_reports_equal(&l, Some(&g));
        l.add_wire(
            0,
            1,
            WirePath::new(vec![p(0, 1, 0), p(0, 3, 0), p(6, 3, 0), p(6, 1, 0)]),
        );
        assert_reports_equal(&l, Some(&g));
    }

    #[test]
    fn error_cap_truncation_matches() {
        // dozens of pairwise-overlapping nodes overflow the cap in the
        // overlap phase; the checker must truncate at the same boundary
        let mut l = Layout::new("cap", 2);
        for i in 0..20 {
            l.place_node(i, Rect::new(0, 0, 3, 3));
        }
        let r = check(&l, None);
        assert_eq!(r.errors.len(), CheckReport::ERROR_CAP);
        assert_eq!(r, naive_check(&l, None));
    }

    #[test]
    fn stripe_emission_covers_all_points() {
        // a path with x-runs in both directions plus y/z runs; stripes
        // of width 1 must reproduce the full point enumeration
        let path = WirePath::new(vec![
            p(0, 0, 0),
            p(4, 0, 0),
            p(4, 3, 0),
            p(4, 3, 1),
            p(1, 3, 1),
        ]);
        let all: Vec<(Point3, u32)> = path.points().map(|q| (q, 7)).collect();
        let mut striped = Vec::new();
        for lo in 0..=4 {
            emit_stripe_points(path.corners(), 7, lo, lo + 1, &mut striped);
        }
        let mut all_sorted = all.clone();
        all_sorted.sort_unstable();
        striped.sort_unstable();
        assert_eq!(striped, all_sorted);
        assert_eq!(striped.len(), path.length() as usize + 1);
    }

    #[test]
    fn fp_index_later_placement_wins() {
        let placements = vec![
            NodePlacement {
                node: 3,
                rect: Rect::new(0, 0, 4, 4),
                layer: 0,
            },
            NodePlacement {
                node: 9,
                rect: Rect::new(2, 2, 6, 6),
                layer: 0,
            },
            // same column as node 3, placed later, overlapping it
            NodePlacement {
                node: 5,
                rect: Rect::new(0, 4, 4, 8),
                layer: 0,
            },
        ];
        let fp = FpIndex::build(&placements);
        assert_eq!(fp.query(1, 1, 0), Some(3));
        assert_eq!(fp.query(3, 3, 0), Some(9)); // overlap: later wins
        assert_eq!(fp.query(5, 5, 0), Some(9));
        assert_eq!(fp.query(1, 4, 0), Some(5));
        assert_eq!(fp.query(4, 4, 0), Some(5));
        assert_eq!(fp.query(3, 3, 1), None);
        assert_eq!(fp.query(7, 3, 0), None);
    }

    #[test]
    fn fp_index_agrees_with_point_map_on_a_grid() {
        // a 6x5 grid of 3x3 nodes with one stray overlapping rect: every
        // point of the bounding box resolves like a placement-order map
        let mut placements = Vec::new();
        for c in 0..6 {
            for r in 0..5 {
                placements.push(NodePlacement {
                    node: (c * 5 + r) as NodeId,
                    rect: Rect::new(c * 5, r * 4, c * 5 + 2, r * 4 + 2),
                    layer: (c % 2) as i32,
                });
            }
        }
        placements.push(NodePlacement {
            node: 99,
            rect: Rect::new(4, 1, 11, 6),
            layer: 0,
        });
        let mut owner = std::collections::HashMap::new();
        for n in &placements {
            for x in n.rect.x0..=n.rect.x1 {
                for y in n.rect.y0..=n.rect.y1 {
                    owner.insert((x, y, n.layer), n.node);
                }
            }
        }
        let fp = FpIndex::build(&placements);
        for z in 0..3 {
            for x in -1..32 {
                for y in -1..22 {
                    assert_eq!(fp.query(x, y, z), owner.get(&(x, y, z)).copied());
                }
            }
        }
    }

    #[test]
    fn metrics_stream_matches_full_metrics() {
        let mut l = Layout::new("m", 4);
        l.place_node(0, Rect::new(0, 0, 1, 1));
        l.place_node(1, Rect::new(8, 0, 9, 1));
        l.add_wire(
            0,
            1,
            WirePath::new(vec![p(1, 1, 0), p(1, 1, 1), p(8, 1, 1), p(8, 1, 0)]),
        );
        assert_eq!(metrics_stream(&l), LayoutMetrics::of(&l));
        let empty = Layout::new("e", 2);
        assert_eq!(metrics_stream(&empty), LayoutMetrics::of(&empty));
    }
}
