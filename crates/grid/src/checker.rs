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
//! [`crate::Layout`], or a tiled IR expanded one wire at a time. It
//! splits each wire once into its maximal straight runs and decides
//! every rule on runs, never on grid points, so a legal layout of R runs
//! costs O(R log R) however long its wires are, and its memory is
//! O(nodes + R), never O(grid cells):
//!
//! * footprints are looked up in a rectangle index (see
//!   [`crate::streaming`]): one query per terminal, one range query per
//!   run;
//! * a wire revisits a point where two of its own runs meet, and two
//!   wires conflict where runs of both meet. Runs meet where collinear
//!   runs overlap or where runs of two axes cross; one orthogonal
//!   segment-intersection sweep per plane family finds both;
//! * the points of an illegal diagonal segment form a diagonal stretch,
//!   which meets runs and other diagonals in the same sweep, run in
//!   coordinates whose axes are the two directions.
//!
//! So a legal layout takes one walk, which applies the per-wire rules
//! and collects the runs, and one sweep over all of them, which finds
//! no meeting. Only a layout whose runs meet is walked again, to name
//! each wire's first revisit in path order and the shared points.
//!
//! A wire has at most one run per segment along one axis. So a first
//! walk over the source sums that bound per axis and finds the wires'
//! extent, and the three run arrays, one per axis, are allocated once,
//! never regrown. Where the extent is below 2³² on every axis a run is
//! held as `u32` offsets from the minimum corner, 20 bytes, and in
//! `i64`s otherwise; the report is the same at either width. An illegal
//! layout visits only the points it reports. The check runs on the
//! calling thread, so the report cannot depend on thread count. Its
//! phases are traced as `checker.nodes`, `checker.walk`, `checker.sweep`
//! and `checker.topology` inside `checker.check`.

use crate::geom::Point3;
use crate::hasher::FxBuildHasher;
use crate::layout::NodePlacement;
use crate::path::PathError;
use crate::pdk::Pdk;
use crate::runs::{self, AnyMeeting, Coord, Run, Runs, Sink, Stretch, Width};
use crate::streaming::{FpIndex, StreamSource};
use mlv_core::trace::SpanGuard;
use mlv_topology::{EdgeId, Graph, NodeId};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap};
use std::ops::ControlFlow;

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
    /// Total grid points occupied by wires, saturating at `u64::MAX`.
    pub wire_points: u64,
    /// Total grid points occupied by node footprints, saturating at
    /// `u64::MAX`.
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
    let nodes = mlv_core::span!("checker.nodes");
    let mut placements: Vec<NodePlacement> = Vec::with_capacity(src.node_count());
    src.visit_nodes(&mut |n| placements.push(n));
    let fp = FpIndex::build(&placements);
    let placed: HashMap<NodeId, i32, FxBuildHasher> =
        placements.iter().map(|n| (n.node, n.layer)).collect();
    let overlaps = node_overlaps(&placements);
    drop(nodes);

    let walk = mlv_core::span!("checker.walk");
    // the first walk bounds the runs and their coordinates; it also
    // totals the wire points and the endpoint multiset, one pair a wire
    let mut bound = Bound::new();
    let mut multiset = reference.map(|_| Vec::with_capacity(src.wire_count()));
    src.visit_wires(&mut |u, v, corners| {
        bound.add(corners);
        if let Some(m) = &mut multiset {
            m.push(if u <= v { (u, v) } else { (v, u) });
        }
    });
    let rules = WireRules {
        layers: src.layers() as i32,
        fp: &fp,
        placed: &placed,
    };
    let mut errors = if bound.narrow() {
        wire_errors::<u32, S>(src, rules, &bound, overlaps, walk)
    } else {
        wire_errors::<i64, S>(src, rules, &bound, overlaps, walk)
    };
    if let (Some(g), Some(pairs)) = (reference, multiset) {
        if errors.len() < CheckReport::ERROR_CAP {
            let _topology = mlv_core::span!("checker.topology");
            topology_errors(g, placements.len(), pairs, &mut errors);
        }
    }

    mlv_core::counter!("checker.checks", 1);
    mlv_core::counter!("checker.errors", errors.len() as u64);
    CheckReport {
        errors,
        wire_points: bound.wire_points,
        node_points: placements
            .iter()
            .fold(0u64, |sum, n| sum.saturating_add(n.rect.point_count())),
    }
}

/// What the first walk learns of the wires: their extent, how many runs
/// they can split into, and their points.
struct Bound {
    /// The least and the greatest coordinate of a corner, per axis.
    min: Coord,
    max: Coord,
    /// Per axis, the most runs the wires can split into along it.
    runs: [usize; 3],
    /// Total grid points of the wires, saturating.
    wire_points: u64,
}

impl Bound {
    fn new() -> Bound {
        Bound {
            min: [i64::MAX; 3],
            max: [i64::MIN; 3],
            runs: [0; 3],
            wire_points: 0,
        }
    }

    /// Take in one wire. It splits into at most one run per segment
    /// along one axis, or one x-run if it never moves.
    fn add(&mut self, corners: &[Point3]) {
        let Some(&first) = corners.first() else {
            return;
        };
        let (mut prev, mut steps) = (runs::coord(first), 0u64);
        for &p in corners {
            let c = runs::coord(p);
            for k in 0..3 {
                self.min[k] = self.min[k].min(c[k]);
                self.max[k] = self.max[k].max(c[k]);
                steps = steps.saturating_add(c[k].abs_diff(prev[k]));
            }
            match [0, 1, 2].map(|k| c[k] != prev[k]) {
                [true, false, false] => self.runs[0] += 1,
                [false, true, false] => self.runs[1] += 1,
                [false, false, true] => self.runs[2] += 1,
                _ => {}
            }
            prev = c;
        }
        if steps == 0 {
            self.runs[0] += 1;
        }
        self.wire_points = self.wire_points.saturating_add(steps).saturating_add(1);
    }

    /// Whether the wires span less than 2³² on every axis, so that their
    /// runs fit `u32` offsets from the minimum corner.
    fn narrow(&self) -> bool {
        (0..3).all(|k| self.max[k].saturating_sub(self.min[k]) <= i64::from(u32::MAX))
    }
}

/// The wire rules, in coordinates of width `W`, where `walk` times the
/// walk so far and `errors` holds the node errors. One walk applies the
/// per-wire rules and collects the runs, and one sweep looks for runs
/// that meet.
fn wire_errors<W: Width, S: StreamSource + ?Sized>(
    src: &S,
    rules: WireRules<'_>,
    bound: &Bound,
    errors: Vec<CheckError>,
    walk: SpanGuard,
) -> Vec<CheckError> {
    let node_errors = errors.len();
    let mut scan = WireScan {
        rules,
        revisits: false,
        errors,
        wires: 0,
        runs: Runs::<W>::with_capacity([bound.min, bound.max], bound.runs),
        diagonals: Vec::new(),
        path: Vec::new(),
        scratch: Runs::default(),
    };
    src.visit_wires(&mut |u, v, corners| scan.visit(u, v, corners));
    drop(walk);
    // A wire revisits a point only where two of its own runs meet. So if
    // no runs meet, no wire revisits a point and no two wires share one,
    // and the walk, which skipped the revisit test, made the report.
    // Otherwise walk again in the same run arrays, testing each wire for
    // its first revisit in path order, and name the shared points.
    let met = {
        let _sweep = mlv_core::span!("checker.sweep");
        runs::meetings(&mut scan.runs, &scan.diagonals, &mut AnyMeeting).is_break()
    };
    if met {
        let walk = mlv_core::span!("checker.walk");
        scan.restart(node_errors);
        src.visit_wires(&mut |u, v, corners| scan.visit(u, v, corners));
        drop(walk);
        if scan.errors.len() < CheckReport::ERROR_CAP {
            let _sweep = mlv_core::span!("checker.sweep");
            shared_points(&mut scan.runs, &scan.diagonals, &mut scan.errors);
        }
    }
    scan.errors
}

/// Pairwise footprint overlaps on a shared layer, in `(layer, x0)`
/// order, capped at [`CheckReport::ERROR_CAP`].
fn node_overlaps(placements: &[NodePlacement]) -> Vec<CheckError> {
    let mut errors = Vec::new();
    let mut rects: Vec<&NodePlacement> = placements.iter().collect();
    rects.sort_by_key(|n| (n.layer, n.rect.x0));
    if disjoint(&rects) {
        return errors;
    }
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

/// Whether footprints sorted by `(layer, x0)` are pairwise disjoint
/// within each layer, in O(n log n). An x-sweep keeps the footprints
/// spanning the sweep line in y order. Until the first overlap those
/// are pairwise disjoint, so a new footprint need only be tested
/// against its two y-neighbours.
fn disjoint(rects: &[&NodePlacement]) -> bool {
    let mut active: BTreeMap<i64, i64> = BTreeMap::new(); // y0 → y1
    let mut ends: BinaryHeap<Reverse<(i64, i64)>> = BinaryHeap::new(); // (x1, y0)
    let mut layer = None;
    for n in rects {
        let r = n.rect;
        if layer != Some(n.layer) {
            active.clear();
            ends.clear();
            layer = Some(n.layer);
        }
        while let Some(&Reverse((x1, y0))) = ends.peek() {
            if x1 >= r.x0 {
                break;
            }
            ends.pop();
            active.remove(&y0);
        }
        let below = active.range(..=r.y0).next_back();
        let above = active.range(r.y0..).next();
        if below.is_some_and(|(_, &y1)| y1 >= r.y0) || above.is_some_and(|(&y0, _)| y0 <= r.y1) {
            return false;
        }
        active.insert(r.y0, r.y1);
        ends.push(Reverse((r.x1, r.y0)));
    }
    true
}

/// What the per-wire rules look up: the layer budget and the nodes.
struct WireRules<'a> {
    layers: i32,
    fp: &'a FpIndex,
    placed: &'a HashMap<NodeId, i32, FxBuildHasher>,
}

impl WireRules<'_> {
    /// The per-wire rules of a well-formed path — layer budget,
    /// terminals, foreign footprints — for wire `i`, appending its errors
    /// in order up to the cap. `path` holds the wire's runs in path
    /// order.
    fn scan(
        &self,
        i: usize,
        (u, v): (NodeId, NodeId),
        corners: &[Point3],
        path: &[(Run, bool)],
        errors: &mut Vec<CheckError>,
    ) {
        let mut prev = None;
        for &c in corners {
            if prev != Some(c) && (c.z < 0 || c.z >= self.layers) {
                errors.push(CheckError::LayerOutOfRange { wire: i, point: c });
            }
            prev = Some(c);
        }
        for (node, pt) in [(u, corners[0]), (v, corners[corners.len() - 1])] {
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
        for (run, up) in path {
            let budget = CheckReport::ERROR_CAP.saturating_sub(errors.len());
            if budget == 0 {
                break;
            }
            self.fp
                .foreign(run, *up, [u, v], budget, &mut |node, point| {
                    errors.push(CheckError::WireThroughNode {
                        wire: i,
                        node,
                        point,
                    })
                });
        }
    }
}

/// A walk over the source's wires. It runs the per-wire rules while
/// errors are under the cap and collects every wire's runs and
/// diagonals for the cross-wire phase.
struct WireScan<'a, W> {
    rules: WireRules<'a>,
    /// Whether to test each wire for its first revisit. Only a layout
    /// whose runs meet needs it.
    revisits: bool,
    errors: Vec<CheckError>,
    /// Wires visited so far.
    wires: usize,
    runs: Runs<W>,
    diagonals: Vec<(Stretch, u32)>,
    /// The current wire's runs in path order, and working space.
    path: Vec<(Run, bool)>,
    scratch: Runs<i64>,
}

impl<W: Width> WireScan<'_, W> {
    fn visit(&mut self, u: NodeId, v: NodeId, corners: &[Point3]) {
        let i = self.wires;
        self.wires += 1;
        if self.errors.len() >= CheckReport::ERROR_CAP {
            return; // no later phase runs
        }
        self.path.clear();
        let bad = runs::split(corners, i as u32, &mut self.path, &mut self.diagonals);
        let path_error = if corners.is_empty() {
            Some(PathError::Empty)
        } else if let Some(k) = bad {
            Some(PathError::NotAxisAligned(k))
        } else if self.revisits {
            runs::first_revisit(&self.path, &mut self.scratch)
                .map(|c| PathError::SelfIntersection(runs::point(c)))
        } else {
            None
        };
        match path_error {
            Some(e) => self.errors.push(CheckError::BadPath {
                wire: i,
                reason: format!("{e:?}"),
            }),
            None => self
                .rules
                .scan(i, (u, v), corners, &self.path, &mut self.errors),
        }
        self.errors.truncate(CheckReport::ERROR_CAP);
        for (run, _) in &self.path {
            self.runs.push(run);
        }
    }

    /// Start a second walk that tests revisits: keep the first `kept`
    /// errors, which come before any wire's, and empty the run arrays in
    /// place, so that two sets are never held.
    fn restart(&mut self, kept: usize) {
        self.revisits = true;
        self.errors.truncate(kept);
        self.wires = 0;
        self.runs.clear();
        self.diagonals.clear();
    }
}

/// The first points, in `(x, y, z)` order, that stretches share.
struct FirstShared {
    budget: usize,
    points: BTreeSet<Coord>,
}

impl FirstShared {
    fn full(&self) -> bool {
        self.points.len() >= self.budget
    }
}

impl Sink for FirstShared {
    fn meet(&mut self, shared: Stretch) -> ControlFlow<()> {
        // the stretch's points ascend, so stop at the first one past
        // the kept points
        for t in 0..shared.len {
            let c = shared.at(t);
            if self.full() && self.points.last().is_some_and(|&last| c >= last) {
                break;
            }
            self.points.insert(c);
            if self.points.len() > self.budget {
                self.points.pop_last();
            }
        }
        ControlFlow::Continue(())
    }

    fn bound(&self) -> Option<Coord> {
        self.points.last().copied().filter(|_| self.full())
    }
}

/// Cross-wire point disjointness. A point held by wires `w₁ ≤ … ≤ wₘ`
/// (counted with multiplicity) yields the conflicts `(w₁, w₂)`, …,
/// `(wₘ₋₁, wₘ)`, and points come in `(x, y, z)` order, up to the cap.
/// The first shared points are kept from where runs meet, each meeting
/// offering at most a cap's worth of points, and the wires holding each
/// kept point are looked up; no other point is visited.
fn shared_points<W: Width>(
    runs: &mut Runs<W>,
    diagonals: &[(Stretch, u32)],
    errors: &mut Vec<CheckError>,
) {
    let budget = CheckReport::ERROR_CAP - errors.len();
    let mut first = FirstShared {
        budget,
        points: BTreeSet::new(),
    };
    let _ = runs::meetings(runs, diagonals, &mut first);
    if first.points.is_empty() {
        return;
    }
    runs.sort_by_line();
    let mut wires = Vec::new();
    for c in first.points {
        wires.clear();
        runs.holders(c, &mut wires);
        wires.extend(diagonals.iter().filter(|d| d.0.contains(c)).map(|d| d.1));
        wires.sort_unstable();
        for pair in wires.windows(2) {
            errors.push(CheckError::WireConflict {
                a: pair[0] as usize,
                b: pair[1] as usize,
                point: runs::point(c),
            });
            if errors.len() >= CheckReport::ERROR_CAP {
                return;
            }
        }
    }
}

/// The placed nodes and the wire endpoint pairs against the reference
/// graph.
fn topology_errors(
    g: &Graph,
    nodes: usize,
    mut pairs: Vec<(NodeId, NodeId)>,
    errors: &mut Vec<CheckError>,
) {
    if nodes != g.node_count() {
        errors.push(CheckError::TopologyMismatch {
            detail: format!("{nodes} nodes placed, graph has {}", g.node_count()),
        });
    }
    let mut edges: Vec<(NodeId, NodeId)> = (0..g.edge_count())
        .map(|e| g.endpoints_sorted(e as EdgeId))
        .collect();
    pairs.sort_unstable();
    edges.sort_unstable();
    // one walk over both sorted lists, a pair at a time: the first pair
    // with wires whose count differs, else the first edge with no wire
    let (mut w, mut e) = (&pairs[..], &edges[..]);
    let mut detail = None;
    while let Some(&k) = [w.first(), e.first()].into_iter().flatten().min() {
        let count = |v: &[(NodeId, NodeId)]| v.iter().take_while(|&&p| p == k).count();
        let (nw, ne) = (count(w), count(e));
        (w, e) = (&w[nw..], &e[ne..]);
        if nw == 0 {
            detail.get_or_insert_with(|| format!("pair {k:?}: 0 wires vs {ne} edge(s)"));
        } else if nw != ne {
            detail = Some(format!("pair {k:?}: {nw} wire(s) vs {ne} edge(s)"));
            break;
        }
    }
    if let Some(detail) = detail {
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
    use crate::naive_checker::naive_check;
    use crate::path::WirePath;
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
        assert_eq!(
            r.errors,
            vec![CheckError::TopologyMismatch {
                detail: "pair (0, 1): 2 wire(s) vs 1 edge(s)".into()
            }]
        );
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

    /// The checker's report, which must equal the naive reference's.
    fn judged(l: &Layout) -> CheckReport {
        let r = check(l, None);
        assert_eq!(r, naive_check(l, None));
        r
    }

    fn kinds(r: &CheckReport) -> Vec<&'static str> {
        r.errors.iter().map(CheckError::kind).collect()
    }

    /// Nodes 0 at (0, 0), 1 at (20, 0), 2 at (0, -5) and 3 at (20, -5),
    /// and node 9, a block across x = 10..12, y = 8..12.
    fn corridor() -> Layout {
        let mut l = Layout::new("corridor", 2);
        l.place_node(0, Rect::new(0, 0, 0, 0));
        l.place_node(1, Rect::new(20, 0, 20, 0));
        l.place_node(2, Rect::new(0, -5, 0, -5));
        l.place_node(3, Rect::new(20, -5, 20, -5));
        l.place_node(9, Rect::new(10, 8, 12, 12));
        l
    }

    /// From node 0 out along y = 0 to x = 15, back over it on layer 1,
    /// down onto (5, 0, 0), which it visited, and on to node 1 along
    /// y = 10, through node 9.
    fn revisiting() -> WirePath {
        WirePath::new(vec![
            p(0, 0, 0),
            p(15, 0, 0),
            p(15, 0, 1),
            p(5, 0, 1),
            p(5, 0, 0),
            p(5, 10, 0),
            p(20, 10, 0),
            p(20, 0, 0),
        ])
    }

    fn straight(a: Point3, b: Point3) -> WirePath {
        WirePath::new(vec![a, b])
    }

    /// A bar of foreign footprint at x = `x`, y = -20..20, with a node
    /// below and above it and a wire between them along the bar: 41
    /// foreign points.
    fn through_bar(l: &mut Layout, x: i64, ids: [NodeId; 3]) {
        l.place_node(ids[0], Rect::new(x, -20, x, 20));
        l.place_node(ids[1], Rect::new(x, -30, x, -30));
        l.place_node(ids[2], Rect::new(x, 30, x, 30));
        l.add_wire(ids[1], ids[2], straight(p(x, -30, 0), p(x, 30, 0)));
    }

    #[test]
    fn a_lone_self_revisit_is_the_bad_path_it_was() {
        let mut l = corridor();
        l.add_wire(0, 1, revisiting());
        l.add_wire(2, 3, straight(p(0, -5, 0), p(20, -5, 0)));
        let r = judged(&l);
        // the revisit suppresses the wire's pass through node 9
        assert_eq!(
            r.errors,
            vec![
                CheckError::BadPath {
                    wire: 0,
                    reason: "SelfIntersection(Point3 { x: 5, y: 0, z: 0 })".into(),
                },
                CheckError::WireConflict {
                    a: 0,
                    b: 0,
                    point: p(5, 0, 0),
                },
            ]
        );
    }

    #[test]
    fn a_self_revisit_then_foreign_points_to_the_cap() {
        let mut l = corridor();
        l.add_wire(0, 1, revisiting());
        through_bar(&mut l, 30, [20, 21, 22]);
        through_bar(&mut l, 31, [23, 24, 25]);
        let r = judged(&l);
        assert_eq!(r.errors.len(), CheckReport::ERROR_CAP);
        assert_eq!(kinds(&r)[..2], ["BadPath", "WireThroughNode"]);
        let last = CheckError::WireThroughNode {
            wire: 2,
            node: 23,
            point: p(31, -20 + 21, 0),
        };
        assert_eq!(r.errors.last(), Some(&last));
    }

    #[test]
    fn a_revisiting_run_that_meets_another_wire() {
        let mut l = corridor();
        l.add_wire(0, 1, revisiting());
        // crosses the revisited run at (8, 0, 0)
        l.place_node(4, Rect::new(8, -3, 8, -3));
        l.place_node(5, Rect::new(8, 3, 8, 3));
        l.add_wire(4, 5, straight(p(8, -3, 0), p(8, 3, 0)));
        let r = judged(&l);
        assert_eq!(kinds(&r), ["BadPath", "WireConflict", "WireConflict"]);
        let conflict = CheckError::WireConflict {
            a: 0,
            b: 1,
            point: p(8, 0, 0),
        };
        assert_eq!(r.errors[2], conflict);
    }

    #[test]
    fn per_wire_errors_fill_the_cap_before_a_later_revisit() {
        let mut l = corridor();
        through_bar(&mut l, 30, [20, 21, 22]);
        through_bar(&mut l, 31, [23, 24, 25]);
        l.add_wire(0, 1, revisiting());
        let r = judged(&l);
        assert_eq!(r.errors.len(), CheckReport::ERROR_CAP);
        assert!(kinds(&r).iter().all(|&k| k == "WireThroughNode"));
    }

    #[test]
    fn topology_detects_missing_wire() {
        let mut b = GraphBuilder::new("edge", 2);
        b.add_edge(0, 1);
        let g = b.build();
        let l = two_nodes();
        let r = check(&l, Some(&g));
        assert_eq!(
            r.errors,
            vec![CheckError::TopologyMismatch {
                detail: "pair (0, 1): 0 wires vs 1 edge(s)".into()
            }]
        );
    }
}
