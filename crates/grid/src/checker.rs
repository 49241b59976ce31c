//! Legality checking for multilayer grid layouts.
//!
//! A layout is **legal** (paper §2.2) when:
//!
//! 1. every wire stays within the layer budget `0 ≤ z < L` and uses only
//!    axis-aligned segments;
//! 2. node footprints are pairwise disjoint rectangles on their active
//!    layers (nodes on *different* active layers may share planar
//!    coordinates — the multilayer 3-D grid model);
//! 3. wire paths are **node-disjoint**: no grid point is used by two
//!    wires (this subsumes edge-disjointness), and no wire revisits a
//!    point;
//! 4. each wire starts at a grid point of its `u` endpoint's footprint
//!    and ends at one of its `v` endpoint's footprint, on those nodes'
//!    active layers;
//! 5. a wire's points never pass through the footprint (at its active
//!    layer) of a node other than its two endpoints (wires may run
//!    *above or below* nodes on other layers);
//! 6. optionally, the multiset of wire endpoint pairs equals the edge
//!    multiset of a reference graph — the layout realizes exactly that
//!    network.
//!
//! [`check_with_pdk`] adds the direction and pitch rules of a
//! non-uniform technology stack.
//!
//! There is one checker, and it reads any [`StreamSource`]: a flat
//! [`crate::Layout`], or a tiled IR expanded one wire at a time. Its
//! memory is O(nodes + one occupancy stripe), never O(grid cells):
//! footprints are looked up in a rectangle index rather than
//! enumerated, and cross-wire occupancy is sorted in bounded x-stripes
//! (see [`crate::streaming`]). The per-wire rules run in parallel
//! batches on the `mlv-core` executor, which recombines results in wire
//! order, so the report is byte-identical for any thread count.

use crate::geom::Point3;
use crate::hasher::FxBuildHasher;
use crate::layout::NodePlacement;
use crate::path::WirePath;
use crate::pdk::Pdk;
use crate::streaming::{emit_stripe_points, FpIndex, StreamSource};
use mlv_core::exec;
use mlv_topology::{Graph, NodeId};
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;

/// A single legality violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckError {
    /// Wire `wire` leaves the layer budget at the given point.
    LayerOutOfRange {
        /// Index into `layout.wires`.
        wire: usize,
        /// The offending point.
        point: Point3,
    },
    /// Wire `wire` has a non-rectilinear or self-intersecting path.
    BadPath {
        /// Index into `layout.wires`.
        wire: usize,
        /// Human-readable reason.
        reason: String,
    },
    /// Two node footprints overlap.
    NodeOverlap {
        /// First node.
        a: NodeId,
        /// Second node.
        b: NodeId,
    },
    /// Wire endpoint does not touch the declared node's footprint.
    BadTerminal {
        /// Index into `layout.wires`.
        wire: usize,
        /// The network node the terminal should touch.
        node: NodeId,
        /// Where the wire actually starts/ends.
        point: Point3,
    },
    /// Two wires share a grid point.
    WireConflict {
        /// First wire index.
        a: usize,
        /// Second wire index.
        b: usize,
        /// The shared point.
        point: Point3,
    },
    /// A wire's active-layer point lies inside a foreign node footprint.
    WireThroughNode {
        /// Index into `layout.wires`.
        wire: usize,
        /// The node whose footprint is violated.
        node: NodeId,
        /// The offending point.
        point: Point3,
    },
    /// A node referenced by a wire has no placement.
    MissingNode {
        /// The unplaced node.
        node: NodeId,
    },
    /// The wire multiset does not match the reference graph.
    TopologyMismatch {
        /// Description of the first difference found.
        detail: String,
    },
    /// A planar run travels across its layer's preferred direction
    /// (PDK check: only reported by [`check_with_pdk`] under a
    /// non-uniform stack).
    DirectionViolation {
        /// Index into `layout.wires`.
        wire: usize,
        /// The offending layer.
        layer: i32,
        /// Start of the offending run.
        point: Point3,
    },
    /// Two same-layer parallel runs sit closer than the layer's track
    /// pitch (PDK check: only reported by [`check_with_pdk`] under a
    /// non-uniform stack).
    PitchViolation {
        /// First wire index.
        a: usize,
        /// Second wire index.
        b: usize,
        /// The shared layer.
        layer: i32,
        /// Center-to-center spacing observed (positive, below pitch).
        gap: i64,
    },
}

impl CheckError {
    /// Every variant name [`CheckError::kind`] can return, in
    /// declaration order — the coverage universe for fault-injection
    /// completeness accounting (the conformance harness asserts every
    /// one of these is triggered by at least one injected defect).
    pub const KINDS: [&'static str; 10] = [
        "LayerOutOfRange",
        "BadPath",
        "NodeOverlap",
        "BadTerminal",
        "WireConflict",
        "WireThroughNode",
        "MissingNode",
        "TopologyMismatch",
        "DirectionViolation",
        "PitchViolation",
    ];

    /// The subset of [`CheckError::KINDS`] only reachable through
    /// [`check_with_pdk`] with a non-uniform stack — excluded from
    /// injection-coverage accounting when the PDK axis is off.
    pub const PDK_KINDS: [&'static str; 2] = ["DirectionViolation", "PitchViolation"];

    /// Stable, machine-readable variant name (one of
    /// [`CheckError::KINDS`]).
    pub fn kind(&self) -> &'static str {
        match self {
            CheckError::LayerOutOfRange { .. } => "LayerOutOfRange",
            CheckError::BadPath { .. } => "BadPath",
            CheckError::NodeOverlap { .. } => "NodeOverlap",
            CheckError::BadTerminal { .. } => "BadTerminal",
            CheckError::WireConflict { .. } => "WireConflict",
            CheckError::WireThroughNode { .. } => "WireThroughNode",
            CheckError::MissingNode { .. } => "MissingNode",
            CheckError::TopologyMismatch { .. } => "TopologyMismatch",
            CheckError::DirectionViolation { .. } => "DirectionViolation",
            CheckError::PitchViolation { .. } => "PitchViolation",
        }
    }
}

/// Result of a legality check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckReport {
    /// All violations found (capped at [`CheckReport::ERROR_CAP`]).
    pub errors: Vec<CheckError>,
    /// Total grid points occupied by wires.
    pub wire_points: u64,
    /// Total grid points occupied by node footprints.
    pub node_points: u64,
}

impl CheckReport {
    /// Maximum number of errors retained.
    pub const ERROR_CAP: usize = 64;

    /// `true` when the layout is legal.
    pub fn is_legal(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Points collected per occupancy stripe before the stripe count grows
/// (~4M points ≈ 128 MB of `(Point3, u32)` records).
const STRIPE_POINTS: u64 = 1 << 22;

/// Upper bound on occupancy stripes (each stripe is one pass over the
/// source's wires).
const MAX_STRIPES: i64 = 4096;

/// Wires per batch of the parallel per-wire scan. A batch holds a copy
/// of its wires' corners, so its memory is bounded whatever the size of
/// the source.
const SCAN_BATCH: usize = 1 << 12;

/// Check a layout; if `reference` is given, additionally verify the
/// layout realizes exactly that graph.
///
/// The report is the same for any source of the same geometry in the
/// same order — a flat [`crate::Layout`] and its tiled realization give
/// equal reports.
///
/// ```
/// use mlv_grid::{checker, Layout, Rect, WirePath, Point3};
/// let mut l = Layout::new("pair", 2);
/// l.place_node(0, Rect::new(0, 0, 0, 0));
/// l.place_node(1, Rect::new(4, 0, 4, 0));
/// l.add_wire(0, 1, WirePath::new(vec![Point3::new(0, 0, 0), Point3::new(4, 0, 0)]));
/// assert!(checker::check(&l, None).is_legal());
/// ```
pub fn check<S: StreamSource + ?Sized>(src: &S, reference: Option<&Graph>) -> CheckReport {
    let _span = mlv_core::span!("checker.check");
    let cap = CheckReport::ERROR_CAP;
    let mut placements: Vec<NodePlacement> = Vec::with_capacity(src.node_count());
    src.visit_nodes(&mut |n| placements.push(n));
    let fp = FpIndex::build(&placements);
    let placed: HashMap<NodeId, i32, FxBuildHasher> =
        placements.iter().map(|n| (n.node, n.layer)).collect();

    let mut scan = WireScan {
        rules: WireRules {
            layers: src.layers() as i32,
            fp: &fp,
            placed: &placed,
        },
        errors: node_overlaps(&placements),
        visited: 0,
        wire_points: 0,
        x_range: None,
        multiset: reference.map(|_| BTreeMap::new()),
        batch: Vec::new(),
        corners: Vec::new(),
    };
    src.visit_wires(&mut |u, v, corners| scan.visit(u, v, corners));
    scan.flush();
    let mut errors = scan.errors;

    if let Some(x_range) = scan.x_range {
        if errors.len() < cap {
            wire_conflicts(src, x_range, scan.wire_points, &mut errors);
        }
    }
    if let (Some(g), Some(wires)) = (reference, &scan.multiset) {
        if errors.len() < cap {
            topology_errors(g, placements.len(), wires, &mut errors);
        }
    }

    mlv_core::counter!("checker.checks", 1);
    mlv_core::counter!("checker.errors", errors.len() as u64);
    CheckReport {
        errors,
        wire_points: scan.wire_points,
        node_points: placements.iter().map(|n| n.rect.point_count()).sum(),
    }
}

/// Pairwise footprint overlaps on a shared layer, in `(layer, x0)`
/// order, capped at [`CheckReport::ERROR_CAP`].
fn node_overlaps(placements: &[NodePlacement]) -> Vec<CheckError> {
    let mut errors = Vec::new();
    let mut rects: Vec<&NodePlacement> = placements.iter().collect();
    rects.sort_by_key(|n| (n.layer, n.rect.x0));
    for (i, a) in rects.iter().enumerate() {
        for b in &rects[i + 1..] {
            if b.layer != a.layer || b.rect.x0 > a.rect.x1 {
                break;
            }
            if a.rect.intersects(&b.rect) {
                errors.push(CheckError::NodeOverlap {
                    a: a.node,
                    b: b.node,
                });
                if errors.len() >= CheckReport::ERROR_CAP {
                    return errors;
                }
            }
        }
    }
    errors
}

/// What the per-wire rules look up: the layer budget and the nodes.
struct WireRules<'a> {
    layers: i32,
    fp: &'a FpIndex,
    placed: &'a HashMap<NodeId, i32, FxBuildHasher>,
}

impl WireRules<'_> {
    /// The per-wire rules — path shape, layer budget, terminals, foreign
    /// footprints — for wire `i`, appending its errors in order.
    fn scan(&self, i: usize, u: NodeId, v: NodeId, path: &WirePath, errors: &mut Vec<CheckError>) {
        if let Err(e) = path.validate() {
            errors.push(CheckError::BadPath {
                wire: i,
                reason: format!("{e:?}"),
            });
            return; // point iteration unsafe on broken paths
        }
        for c in path.corners() {
            if c.z < 0 || c.z >= self.layers {
                errors.push(CheckError::LayerOutOfRange { wire: i, point: *c });
            }
        }
        for (node, pt) in [(u, path.start()), (v, path.end())] {
            match self.placed.get(&node) {
                None => errors.push(CheckError::MissingNode { node }),
                Some(&layer) => {
                    if pt.z != layer || self.fp.query(pt.x, pt.y, layer) != Some(node) {
                        errors.push(CheckError::BadTerminal {
                            wire: i,
                            node,
                            point: pt,
                        });
                    }
                }
            }
        }
        for p in path.points() {
            if let Some(owner) = self.fp.query(p.x, p.y, p.z) {
                if owner != u && owner != v {
                    errors.push(CheckError::WireThroughNode {
                        wire: i,
                        node: owner,
                        point: p,
                    });
                }
            }
        }
    }
}

/// The one walk over the source's wires. It totals the wire points,
/// the x-extent and the endpoint multiset the later phases need, and
/// runs the per-wire rules on batches of [`SCAN_BATCH`] wires fanned
/// out over the executor.
struct WireScan<'a> {
    rules: WireRules<'a>,
    errors: Vec<CheckError>,
    /// Wires visited so far.
    visited: usize,
    wire_points: u64,
    /// `(min, max)` x over every occupied wire point.
    x_range: Option<(i64, i64)>,
    /// Wire endpoint pairs (canonical order), kept only when checking
    /// topology.
    multiset: Option<BTreeMap<(NodeId, NodeId), usize>>,
    /// The pending batch: endpoints and corner range per wire.
    batch: Vec<(NodeId, NodeId, Range<usize>)>,
    corners: Vec<Point3>,
}

impl WireScan<'_> {
    fn visit(&mut self, u: NodeId, v: NodeId, corners: &[Point3]) {
        self.visited += 1;
        if let Some(m) = &mut self.multiset {
            *m.entry(if u <= v { (u, v) } else { (v, u) }).or_insert(0) += 1;
        }
        if let Some(&p0) = corners.first() {
            let (mut lo, mut hi) = self.x_range.unwrap_or((p0.x, p0.x));
            lo = lo.min(p0.x);
            hi = hi.max(p0.x);
            let mut points = 1;
            for w in corners.windows(2) {
                let steps = w[0].manhattan(&w[1]);
                if steps > 0 {
                    // the segment's points, as enumerated, run from one
                    // step past `w[0]` to `steps` steps past it
                    let dx = (w[1].x - w[0].x).signum();
                    for x in [w[0].x + dx, w[0].x + dx * steps as i64] {
                        lo = lo.min(x);
                        hi = hi.max(x);
                    }
                }
                points += steps;
            }
            self.x_range = Some((lo, hi));
            self.wire_points += points;
        }
        if self.errors.len() < CheckReport::ERROR_CAP {
            let start = self.corners.len();
            self.corners.extend_from_slice(corners);
            self.batch.push((u, v, start..self.corners.len()));
            if self.batch.len() == SCAN_BATCH {
                self.flush();
            }
        }
    }

    /// Scan the pending batch in parallel, appending its errors in wire
    /// order up to the cap.
    fn flush(&mut self) {
        let first = self.visited - self.batch.len();
        let (rules, corners) = (&self.rules, &self.corners);
        let mut found = exec::par_chunk_map(&self.batch, exec::MIN_CHUNK, |start, chunk| {
            let mut errors = Vec::new();
            let mut buf = Vec::new();
            for (k, (u, v, range)) in chunk.iter().enumerate() {
                buf.clear();
                buf.extend_from_slice(&corners[range.clone()]);
                let path = WirePath::new(buf);
                rules.scan(first + start + k, *u, *v, &path, &mut errors);
                buf = path.into_corners();
            }
            errors
        });
        self.errors.append(&mut found);
        self.errors.truncate(CheckReport::ERROR_CAP);
        self.batch.clear();
        self.corners.clear();
    }
}

/// Cross-wire point disjointness. The x-range is cut into stripes that
/// each hold a bounded number of points; each stripe is collected,
/// sorted and scanned for equal neighbours. Points sort on `x` first,
/// so the stripes, in order, concatenate to one globally sorted
/// occupancy sequence and conflicts surface in that order.
fn wire_conflicts<S: StreamSource + ?Sized>(
    src: &S,
    (min_x, max_x): (i64, i64),
    points: u64,
    errors: &mut Vec<CheckError>,
) {
    let stripes = (points.div_ceil(STRIPE_POINTS) as i64).clamp(1, MAX_STRIPES);
    let span = max_x - min_x + 1;
    let width = ((span + stripes - 1) / stripes).max(1);
    let mut occ: Vec<(Point3, u32)> = Vec::new();
    let mut lo = min_x;
    while lo <= max_x {
        let hi = lo.saturating_add(width).min(max_x + 1);
        occ.clear();
        let mut wire = 0u32;
        src.visit_wires(&mut |_, _, corners| {
            emit_stripe_points(corners, wire, lo, hi, &mut occ);
            wire += 1;
        });
        exec::par_sort_unstable(&mut occ);
        for pair in occ.windows(2) {
            if pair[0].0 == pair[1].0 {
                errors.push(CheckError::WireConflict {
                    a: pair[0].1 as usize,
                    b: pair[1].1 as usize,
                    point: pair[0].0,
                });
                if errors.len() >= CheckReport::ERROR_CAP {
                    return;
                }
            }
        }
        lo = hi;
    }
}

/// The placed nodes and the wire multiset against the reference graph.
fn topology_errors(
    g: &Graph,
    nodes: usize,
    wires: &BTreeMap<(NodeId, NodeId), usize>,
    errors: &mut Vec<CheckError>,
) {
    if nodes != g.node_count() {
        errors.push(CheckError::TopologyMismatch {
            detail: format!("{nodes} nodes placed, graph has {}", g.node_count()),
        });
    }
    let edges = g.edge_multiset();
    if *wires != edges {
        let detail = wires
            .iter()
            .find(|(k, v)| edges.get(k) != Some(v))
            .map(|(k, v)| {
                format!(
                    "pair {k:?}: {v} wire(s) vs {} edge(s)",
                    edges.get(k).copied().unwrap_or(0)
                )
            })
            .or_else(|| {
                edges
                    .iter()
                    .find(|(k, _)| !wires.contains_key(k))
                    .map(|(k, v)| format!("pair {k:?}: 0 wires vs {v} edge(s)"))
            })
            .unwrap_or_else(|| "multiset mismatch".to_string());
        errors.push(CheckError::TopologyMismatch { detail });
    }
}

/// One maximal planar run of a wire, for the PDK pitch sweep.
struct PlanarRun {
    /// 0 = x-run (y fixed), 1 = y-run (x fixed).
    axis: u8,
    layer: i32,
    /// The fixed perpendicular coordinate.
    fixed: i64,
    lo: i64,
    hi: i64,
    wire: usize,
}

/// [`check`] plus the PDK legality rules of a non-uniform stack:
///
/// * **direction** — a run with `Δx ≠ 0` may not ride a [`crate::pdk::Dir::V`]
///   layer, a run with `Δy ≠ 0` may not ride a [`crate::pdk::Dir::H`] layer;
/// * **pitch** — two parallel same-layer runs from different contexts
///   must sit at least `pitch(z)` apart. Terminal stubs (runs covering
///   a wire's own endpoint position) are exempt: terminals are packed
///   1 apart along node edges by the grid model itself.
///
/// Under a stack where [`Pdk::is_uniform`] holds this is exactly
/// [`check`] — the identity of the PDK axis.
pub fn check_with_pdk<S: StreamSource + ?Sized>(
    src: &S,
    reference: Option<&Graph>,
    pdk: &Pdk,
) -> CheckReport {
    let mut report = check(src, reference);
    if pdk.is_uniform() {
        return report;
    }
    let _span = mlv_core::span!("checker.pdk");
    let cap = CheckReport::ERROR_CAP;
    if report.errors.len() < cap {
        let mut runs: Vec<PlanarRun> = Vec::new();
        let mut wire = 0usize;
        src.visit_wires(&mut |_, _, corners| {
            if report.errors.len() < cap {
                direction_errors(wire, corners, pdk, &mut report.errors);
            }
            pitch_runs(wire, corners, pdk, &mut runs);
            wire += 1;
        });
        if report.errors.len() < cap {
            pitch_errors(runs, pdk, &mut report.errors);
        }
    }
    report.errors.truncate(cap);
    mlv_core::counter!("checker.pdk_errors", report.errors.len() as u64);
    report
}

/// Direction rule: every planar run must ride a layer whose preferred
/// direction allows its axis.
fn direction_errors(wire: usize, corners: &[Point3], pdk: &Pdk, errors: &mut Vec<CheckError>) {
    for pair in corners.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        if a.z != b.z || a.z < 0 {
            continue; // vias are direction-free; negative layers
                      // are already LayerOutOfRange
        }
        let dir = pdk.layer_at(a.z as usize).dir;
        if (a.x != b.x && !dir.allows_x()) || (a.y != b.y && !dir.allows_y()) {
            errors.push(CheckError::DirectionViolation {
                wire,
                layer: a.z,
                point: a,
            });
        }
    }
}

/// The wire's planar runs the pitch rule governs: runs on layers of
/// pitch > 1 that do not cover the wire's own terminal positions.
fn pitch_runs(wire: usize, corners: &[Point3], pdk: &Pdk, runs: &mut Vec<PlanarRun>) {
    let (Some(&start), Some(&end)) = (corners.first(), corners.last()) else {
        return;
    };
    for pair in corners.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        if a.z != b.z || a.z < 0 || (a.x == b.x && a.y == b.y) {
            continue;
        }
        if pdk.layer_at(a.z as usize).pitch <= 1 {
            continue; // a unit-pitch layer cannot be violated
        }
        let (axis, fixed, lo, hi) = if a.y == b.y {
            (0u8, a.y, a.x.min(b.x), a.x.max(b.x))
        } else {
            (1u8, a.x, a.y.min(b.y), a.y.max(b.y))
        };
        let covers = |p: Point3| {
            let (pf, pl) = if axis == 0 { (p.y, p.x) } else { (p.x, p.y) };
            pf == fixed && (lo..=hi).contains(&pl)
        };
        if !covers(start) && !covers(end) {
            runs.push(PlanarRun {
                axis,
                layer: a.z,
                fixed,
                lo,
                hi,
                wire,
            });
        }
    }
}

/// Pitch rule: parallel same-layer runs must be at least the layer's
/// pitch apart, measured center to center.
fn pitch_errors(mut runs: Vec<PlanarRun>, pdk: &Pdk, errors: &mut Vec<CheckError>) {
    runs.sort_unstable_by_key(|r| (r.layer, r.axis, r.fixed, r.lo));
    for i in 0..runs.len() {
        let a = &runs[i];
        let pitch = pdk.layer_at(a.layer as usize).pitch as i64;
        for b in runs[(i + 1)..].iter() {
            if b.layer != a.layer || b.axis != a.axis || b.fixed - a.fixed >= pitch {
                break;
            }
            let gap = b.fixed - a.fixed;
            // gap 0 with overlap is a WireConflict (or a legal via-split
            // run of one wire); the pitch rule governs 0 < gap < pitch
            if gap > 0 && b.lo <= a.hi && a.lo <= b.hi {
                errors.push(CheckError::PitchViolation {
                    a: a.wire,
                    b: b.wire,
                    layer: a.layer,
                    gap,
                });
                if errors.len() >= CheckReport::ERROR_CAP {
                    return;
                }
            }
        }
    }
}

/// Panic with a readable message if the layout is illegal — the standard
/// assertion used across the test suites.
pub fn assert_legal<S: StreamSource + ?Sized>(layout: &S, reference: Option<&Graph>) {
    let report = check(layout, reference);
    assert!(
        report.is_legal(),
        "layout '{}' illegal; first errors: {:#?}",
        layout.name(),
        &report.errors[..report.errors.len().min(5)]
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Rect;
    use crate::layout::Layout;
    use mlv_topology::GraphBuilder;

    fn two_nodes() -> Layout {
        let mut l = Layout::new("pair", 2);
        l.place_node(0, Rect::new(0, 0, 1, 1));
        l.place_node(1, Rect::new(5, 0, 6, 1));
        l
    }

    fn p(x: i64, y: i64, z: i32) -> Point3 {
        Point3::new(x, y, z)
    }

    #[test]
    fn legal_simple_wire() {
        let mut l = two_nodes();
        l.add_wire(0, 1, WirePath::new(vec![p(1, 0, 0), p(5, 0, 0)]));
        let r = check(&l, None);
        assert!(r.is_legal(), "{:?}", r.errors);
        assert_eq!(r.wire_points, 5);
        assert_eq!(r.node_points, 8);
    }

    #[test]
    fn detects_layer_overflow() {
        let mut l = two_nodes();
        l.add_wire(
            0,
            1,
            WirePath::new(vec![p(1, 0, 0), p(1, 0, 2), p(5, 0, 2), p(5, 0, 0)]),
        );
        let r = check(&l, None);
        assert!(r
            .errors
            .iter()
            .any(|e| matches!(e, CheckError::LayerOutOfRange { .. })));
    }

    #[test]
    fn detects_node_overlap() {
        let mut l = two_nodes();
        l.place_node(2, Rect::new(1, 1, 2, 2));
        let r = check(&l, None);
        assert!(r
            .errors
            .iter()
            .any(|e| matches!(e, CheckError::NodeOverlap { .. })));
    }

    #[test]
    fn detects_bad_terminal() {
        let mut l = two_nodes();
        // starts outside node 0's footprint
        l.add_wire(0, 1, WirePath::new(vec![p(2, 0, 0), p(5, 0, 0)]));
        let r = check(&l, None);
        assert!(r
            .errors
            .iter()
            .any(|e| matches!(e, CheckError::BadTerminal { node: 0, .. })));
    }

    #[test]
    fn detects_terminal_off_active_layer() {
        let mut l = two_nodes();
        l.add_wire(
            0,
            1,
            WirePath::new(vec![p(1, 0, 1), p(5, 0, 1), p(5, 0, 0)]),
        );
        let r = check(&l, None);
        assert!(r
            .errors
            .iter()
            .any(|e| matches!(e, CheckError::BadTerminal { node: 0, .. })));
    }

    #[test]
    fn detects_wire_conflict() {
        let mut l = two_nodes();
        l.add_wire(0, 1, WirePath::new(vec![p(1, 0, 0), p(5, 0, 0)]));
        l.add_wire(
            0,
            1,
            WirePath::new(vec![p(1, 1, 0), p(3, 1, 0), p(3, 0, 0), p(5, 0, 0)]),
        );
        let r = check(&l, None);
        assert!(r
            .errors
            .iter()
            .any(|e| matches!(e, CheckError::WireConflict { .. })));
    }

    #[test]
    fn crossing_on_different_layers_is_legal() {
        let mut l = Layout::new("cross", 2);
        l.place_node(0, Rect::new(0, 5, 0, 5));
        l.place_node(1, Rect::new(10, 5, 10, 5));
        l.place_node(2, Rect::new(5, 0, 5, 0));
        l.place_node(3, Rect::new(5, 10, 5, 10));
        // horizontal wire on layer 0
        l.add_wire(0, 1, WirePath::new(vec![p(0, 5, 0), p(10, 5, 0)]));
        // vertical wire hops to layer 1 to cross
        l.add_wire(
            2,
            3,
            WirePath::new(vec![p(5, 0, 0), p(5, 0, 1), p(5, 10, 1), p(5, 10, 0)]),
        );
        let r = check(&l, None);
        assert!(r.is_legal(), "{:?}", r.errors);
    }

    #[test]
    fn detects_wire_through_foreign_node() {
        let mut l = two_nodes();
        l.place_node(2, Rect::new(3, 0, 3, 3));
        l.add_wire(0, 1, WirePath::new(vec![p(1, 0, 0), p(5, 0, 0)]));
        let r = check(&l, None);
        assert!(r
            .errors
            .iter()
            .any(|e| matches!(e, CheckError::WireThroughNode { node: 2, .. })));
    }

    #[test]
    fn wire_over_foreign_node_on_upper_layer_is_legal() {
        let mut l = two_nodes();
        l.place_node(2, Rect::new(3, 0, 3, 3));
        l.add_wire(
            0,
            1,
            WirePath::new(vec![p(1, 0, 0), p(1, 0, 1), p(5, 0, 1), p(5, 0, 0)]),
        );
        let r = check(&l, None);
        assert!(r.is_legal(), "{:?}", r.errors);
    }

    #[test]
    fn detects_missing_node() {
        let mut l = two_nodes();
        l.add_wire(0, 9, WirePath::new(vec![p(1, 0, 0), p(5, 0, 0)]));
        let r = check(&l, None);
        assert!(r
            .errors
            .iter()
            .any(|e| matches!(e, CheckError::MissingNode { node: 9 })));
    }

    #[test]
    fn topology_verification() {
        let mut b = GraphBuilder::new("edge", 2);
        b.add_edge(0, 1);
        let g = b.build();
        let mut l = two_nodes();
        l.add_wire(0, 1, WirePath::new(vec![p(1, 0, 0), p(5, 0, 0)]));
        assert!(check(&l, Some(&g)).is_legal());
        // extra wire -> mismatch
        l.add_wire(
            0,
            1,
            WirePath::new(vec![p(0, 1, 0), p(0, 3, 0), p(6, 3, 0), p(6, 1, 0)]),
        );
        let r = check(&l, Some(&g));
        assert!(r
            .errors
            .iter()
            .any(|e| matches!(e, CheckError::TopologyMismatch { .. })));
    }

    #[test]
    fn kinds_cover_every_variant() {
        let pt = p(0, 0, 0);
        let samples = [
            CheckError::LayerOutOfRange { wire: 0, point: pt },
            CheckError::BadPath {
                wire: 0,
                reason: String::new(),
            },
            CheckError::NodeOverlap { a: 0, b: 1 },
            CheckError::BadTerminal {
                wire: 0,
                node: 0,
                point: pt,
            },
            CheckError::WireConflict {
                a: 0,
                b: 1,
                point: pt,
            },
            CheckError::WireThroughNode {
                wire: 0,
                node: 0,
                point: pt,
            },
            CheckError::MissingNode { node: 0 },
            CheckError::TopologyMismatch {
                detail: String::new(),
            },
            CheckError::DirectionViolation {
                wire: 0,
                layer: 0,
                point: pt,
            },
            CheckError::PitchViolation {
                a: 0,
                b: 1,
                layer: 0,
                gap: 1,
            },
        ];
        // one sample per variant, each kind distinct, KINDS in sync
        assert_eq!(samples.len(), CheckError::KINDS.len());
        let kinds: Vec<&str> = samples.iter().map(CheckError::kind).collect();
        assert_eq!(kinds, CheckError::KINDS);
        let distinct: std::collections::HashSet<_> = kinds.iter().collect();
        assert_eq!(distinct.len(), CheckError::KINDS.len());
    }

    #[test]
    fn pdk_check_is_identity_under_uniform() {
        use crate::pdk::Pdk;
        let mut l = two_nodes();
        l.add_wire(0, 1, WirePath::new(vec![p(1, 0, 0), p(5, 0, 0)]));
        let pdk = check_with_pdk(&l, None, &Pdk::uniform(2));
        assert_eq!(check(&l, None), pdk);
        assert!(pdk.is_legal());
    }

    #[test]
    fn detects_direction_violation() {
        use crate::pdk::Pdk;
        // hv6 layer 1 (M2) is vertical; an x-run on it is illegal
        let mut l = two_nodes();
        l.add_wire(
            0,
            1,
            WirePath::new(vec![p(1, 0, 0), p(1, 0, 1), p(5, 0, 1), p(5, 0, 0)]),
        );
        assert!(check(&l, None).is_legal());
        let r = check_with_pdk(&l, None, &Pdk::hv6());
        assert!(r.errors.iter().any(|e| matches!(
            e,
            CheckError::DirectionViolation {
                wire: 0,
                layer: 1,
                ..
            }
        )));
        // the same x-run on layer 0 (M1, horizontal) is fine
        let mut l = two_nodes();
        l.add_wire(0, 1, WirePath::new(vec![p(1, 0, 0), p(5, 0, 0)]));
        assert!(check_with_pdk(&l, None, &Pdk::hv6()).is_legal());
    }

    #[test]
    fn detects_pitch_violation_and_exempts_terminal_stubs() {
        use crate::pdk::Pdk;
        // two parallel interior x-runs 1 apart on a pitch-2 layer
        let mut l = Layout::new("squeeze", 2);
        l.place_node(0, Rect::new(0, 0, 0, 0));
        l.place_node(1, Rect::new(9, 0, 9, 0));
        l.place_node(2, Rect::new(0, 4, 0, 4));
        l.place_node(3, Rect::new(9, 4, 9, 4));
        // both wires jog into interior tracks y=2 and y=3: the long
        // x-runs cover neither wire's own terminals, so no exemption
        l.add_wire(
            0,
            1,
            WirePath::new(vec![p(0, 0, 0), p(0, 2, 0), p(9, 2, 0), p(9, 0, 0)]),
        );
        l.add_wire(
            2,
            3,
            WirePath::new(vec![p(0, 4, 0), p(0, 3, 0), p(9, 3, 0), p(9, 4, 0)]),
        );
        assert!(check(&l, None).is_legal());
        let r = check_with_pdk(&l, None, &Pdk::hv6());
        assert!(
            r.errors.iter().any(|e| matches!(
                e,
                CheckError::PitchViolation {
                    layer: 0,
                    gap: 1,
                    ..
                }
            )),
            "{:?}",
            r.errors
        );
        // the vertical stubs (x=0 and x=9 pairs) cover their wires'
        // terminals and are 9 apart anyway; shrink the grid so stubs
        // sit 1 apart: still legal, because stubs are exempt
        let mut l = Layout::new("stubs", 2);
        l.place_node(0, Rect::new(0, 0, 0, 0));
        l.place_node(1, Rect::new(1, 0, 1, 0));
        l.place_node(2, Rect::new(0, 5, 0, 5));
        l.place_node(3, Rect::new(1, 5, 1, 5));
        l.add_wire(
            0,
            2,
            WirePath::new(vec![p(0, 0, 0), p(0, 0, 1), p(0, 5, 1), p(0, 5, 0)]),
        );
        l.add_wire(
            1,
            3,
            WirePath::new(vec![p(1, 0, 0), p(1, 0, 1), p(1, 5, 1), p(1, 5, 0)]),
        );
        assert!(check(&l, None).is_legal());
        assert!(
            check_with_pdk(&l, None, &Pdk::hv6()).is_legal(),
            "terminal-covering runs must be pitch-exempt"
        );
    }

    #[test]
    fn topology_detects_missing_wire() {
        let mut b = GraphBuilder::new("edge", 2);
        b.add_edge(0, 1);
        let g = b.build();
        let l = two_nodes();
        let r = check(&l, Some(&g));
        assert!(r
            .errors
            .iter()
            .any(|e| matches!(e, CheckError::TopologyMismatch { .. })));
    }
}
