//! Walking a layout without materializing it.
//!
//! A [`StreamSource`] is any producer that can enumerate node
//! placements and wire corner sequences on demand: the flat [`Layout`],
//! or a tiled IR that expands each tile instance into a ~10-corner
//! buffer as it goes. The legality checker ([`crate::checker`]) and
//! [`metrics_stream`] take any source and hold O(nodes + wire runs),
//! never O(grid cells) or O(wire points).
//!
//! `FpIndex` answers "which node's footprint holds this grid point?"
//! and "which footprints does this straight run pass through?" from the
//! node rectangles alone. Footprint area costs nothing, so a single
//! 100001×100001 node is as cheap as a 1×1 one, and run length costs
//! nothing either.

use crate::geom::{Point3, Rect};
use crate::hasher::FxBuildHasher;
use crate::layout::{Layout, NodePlacement};
use crate::metrics::LayoutMetrics;
use crate::path::stats_of;
use crate::runs::{self, Run};
use mlv_topology::NodeId;
use std::collections::{BinaryHeap, HashMap};

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
/// Each layer groups its rectangles twice: by x-span, for point queries
/// and runs along y, and by y-span, for runs along x. Rectangles sharing
/// one span form a *group* (a node column of a grid layout, or a node
/// row). Groups are sorted by span start with a running prefix maximum
/// of the span end, and each group's rectangles likewise on the other
/// axis, so a query binary-searches both axes and scans back only over
/// entries that can still reach it — O(log nodes) on a grid of disjoint
/// nodes. Where rectangles overlap (itself a reported violation) the
/// **latest** placement owns a point, as if every footprint point had
/// been written into a map in placement order.
pub(crate) struct FpIndex {
    by_layer: HashMap<i32, LayerIndex, FxBuildHasher>,
    /// Every layer holding a footprint, ascending.
    layers: Vec<i32>,
}

struct LayerIndex {
    by_x: Spans,
    by_y: Spans,
}

/// Rectangles grouped by their span `u0..=u1` on one axis, each group
/// sorted by its span `v0..=v1` on the other.
#[derive(Default)]
struct Spans {
    /// Sorted by `(u0, u1)`.
    groups: Vec<Group>,
    /// Every rectangle, group by group, each group sorted by `v0`.
    entries: Vec<Entry>,
}

struct Group {
    u0: i64,
    u1: i64,
    /// `max(u1)` over this group and every group before it.
    max_u1: i64,
    /// Start of the group's entries; they end where the next group's
    /// start.
    start: usize,
}

#[derive(Clone, Copy)]
struct Entry {
    v0: i64,
    v1: i64,
    /// `max(v1)` over the group's entries up to and including this one.
    max_v1: i64,
    /// Placement order, for the latest-placement-wins rule.
    index: u32,
    node: NodeId,
}

impl Spans {
    /// Index rectangles given as `(u0, u1, v0, v1, index, node)`.
    fn build(mut rects: Vec<(i64, i64, i64, i64, u32, NodeId)>) -> Spans {
        rects.sort_unstable();
        let mut s = Spans::default();
        for (u0, u1, v0, v1, index, node) in rects {
            let last = s.groups.last();
            let max_v1 = match last {
                Some(g) if (g.u0, g.u1) == (u0, u1) => {
                    s.entries[s.entries.len() - 1].max_v1.max(v1)
                }
                _ => {
                    let max_u1 = last.map_or(u1, |g| g.max_u1.max(u1));
                    let start = s.entries.len();
                    s.groups.push(Group {
                        u0,
                        u1,
                        max_u1,
                        start,
                    });
                    v1
                }
            };
            s.entries.push(Entry {
                v0,
                v1,
                max_v1,
                index,
                node,
            });
        }
        s
    }

    /// Visit every rectangle whose u-span holds `u` and whose v-span
    /// meets `vlo..=vhi`.
    fn stab(&self, u: i64, vlo: i64, vhi: i64, f: &mut impl FnMut(&Entry)) {
        let mut g = self.groups.partition_point(|g| g.u0 <= u);
        while g > 0 && self.groups[g - 1].max_u1 >= u {
            g -= 1;
            let group = &self.groups[g];
            if group.u1 < u {
                continue;
            }
            let end = self
                .groups
                .get(g + 1)
                .map_or(self.entries.len(), |next| next.start);
            let entries = &self.entries[group.start..end];
            let mut e = entries.partition_point(|e| e.v0 <= vhi);
            while e > 0 && entries[e - 1].max_v1 >= vlo {
                e -= 1;
                if entries[e].v1 >= vlo {
                    f(&entries[e]);
                }
            }
        }
    }

    /// The stretches of `vlo..=vhi` at `u` whose owner — the latest
    /// placed rectangle holding them — is neither of `own`, ascending,
    /// as `(start, end, owner)`.
    fn owners(&self, u: i64, vlo: i64, vhi: i64, own: [NodeId; 2]) -> Vec<(i64, i64, NodeId)> {
        let mut foreign_met = false;
        self.stab(u, vlo, vhi, &mut |e| foreign_met |= !own.contains(&e.node));
        if !foreign_met {
            return Vec::new(); // every owner is one of `own`
        }
        let mut hits: Vec<(i64, i64, u32, NodeId)> = Vec::new();
        self.stab(u, vlo, vhi, &mut |e| {
            hits.push((e.v0.max(vlo), e.v1.min(vhi), e.index, e.node));
        });
        hits.sort_unstable();
        // cut at every rectangle edge; between cuts the owner is the
        // latest-placed rectangle still open
        let mut cuts: Vec<i128> = hits
            .iter()
            .flat_map(|h| [h.0 as i128, h.1 as i128 + 1])
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        let mut open = BinaryHeap::new();
        let (mut next, mut owned) = (0, Vec::new());
        for w in cuts.windows(2) {
            let (a, b) = (w[0] as i64, (w[1] - 1) as i64);
            while let Some(&(start, end, index, node)) = hits.get(next) {
                if start > a {
                    break;
                }
                open.push((index, end, node));
                next += 1;
            }
            while open.peek().is_some_and(|&(_, end, _)| end < a) {
                open.pop();
            }
            match open.peek() {
                Some(&(_, _, o)) if !own.contains(&o) => owned.push((a, b, o)),
                _ => {}
            }
        }
        owned
    }
}

impl FpIndex {
    pub(crate) fn build(placements: &[NodePlacement]) -> FpIndex {
        type Rects = Vec<(i64, i64, i64, i64, u32, NodeId)>;
        let mut rects: HashMap<i32, (Rects, Rects), FxBuildHasher> = HashMap::default();
        for (i, n) in placements.iter().enumerate() {
            let (r, i) = (n.rect, i as u32);
            let (by_x, by_y) = rects.entry(n.layer).or_default();
            by_x.push((r.x0, r.x1, r.y0, r.y1, i, n.node));
            by_y.push((r.y0, r.y1, r.x0, r.x1, i, n.node));
        }
        let mut layers: Vec<i32> = rects.keys().copied().collect();
        layers.sort_unstable();
        let by_layer = rects
            .into_iter()
            .map(|(z, (by_x, by_y))| {
                let (by_x, by_y) = (Spans::build(by_x), Spans::build(by_y));
                (z, LayerIndex { by_x, by_y })
            })
            .collect();
        FpIndex { by_layer, layers }
    }

    /// The node owning grid point `(x, y)` on `layer`, if any — the
    /// latest-placed among all containing footprints.
    pub(crate) fn query(&self, x: i64, y: i64, layer: i32) -> Option<NodeId> {
        let li = self.by_layer.get(&layer)?;
        let mut best: Option<Entry> = None;
        li.by_x.stab(x, y, y, &mut |e| {
            if best.is_none_or(|b| e.index > b.index) {
                best = Some(*e);
            }
        });
        best.map(|e| e.node)
    }

    /// Emit, in path order, the points of `run` owned by a node other
    /// than `u` and `v`, at most `budget` of them. `up` says whether path
    /// order climbs the run's axis. A planar run makes one range query,
    /// a via one point query per footprint layer it passes; an owner
    /// only changes at footprint edges, so points are visited only when
    /// emitted.
    pub(crate) fn foreign(
        &self,
        run: &Run,
        up: bool,
        [u, v]: [NodeId; 2],
        budget: usize,
        emit: &mut impl FnMut(NodeId, Point3),
    ) {
        let (zlo, zhi) = match run.axis {
            2 => (run.lo, run.hi),
            _ => (run.line[1], run.line[1]),
        };
        let first = self.layers.partition_point(|&z| (z as i64) < zlo);
        let last = self.layers.partition_point(|&z| z as i64 <= zhi);
        // stretches `a..=b` along the run's axis owned by a foreign node
        let mut owned: Vec<(i64, i64, NodeId)> = Vec::new();
        if run.axis == 2 {
            let [x, y] = run.line;
            for &z in &self.layers[first..last] {
                match self.query(x, y, z) {
                    Some(o) if o != u && o != v => owned.push((z as i64, z as i64, o)),
                    _ => {}
                }
            }
        } else if first < last {
            let li = &self.by_layer[&self.layers[first]];
            let spans = if run.axis == 0 { &li.by_y } else { &li.by_x };
            owned = spans.owners(run.line[0], run.lo, run.hi, [u, v]);
        }
        let mut put = |(o, t)| emit(o, runs::point(run.at(t)));
        if up {
            let points = owned
                .iter()
                .flat_map(|&(a, b, o)| (a..=b).map(move |t| (o, t)));
            points.take(budget).for_each(&mut put);
        } else {
            let points = owned
                .iter()
                .rev()
                .flat_map(|&(a, b, o)| (a..=b).rev().map(move |t| (o, t)));
            points.take(budget).for_each(&mut put);
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
        for c in corners {
            match &mut bb {
                Some(r) => r.expand_to(c.x, c.y),
                None => bb = Some(Rect::new(c.x, c.y, c.x, c.y)),
            }
            max_used_layer = max_used_layer.max(c.z);
        }
        let (planar, full, vias) = stats_of(corners);
        max_wire_planar = max_wire_planar.max(planar);
        max_wire_full = max_wire_full.max(full);
        total_wire = total_wire.saturating_add(full);
        via_count = via_count.saturating_add(vias);
    });
    let (width, height) = match bb {
        Some(bb) => (bb.width(), bb.height()),
        None => (0, 0),
    };
    let area = width.saturating_mul(height);
    LayoutMetrics {
        width,
        height,
        area,
        volume: (src.layers() as u64).saturating_mul(area),
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
mod tests {
    use super::*;
    use crate::checker::{check, CheckReport};
    use crate::naive_checker::naive_check;
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
