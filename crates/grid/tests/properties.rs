//! Property-based tests (proptest) for the grid substrate: wire paths,
//! the legality checker, and the folding estimates.

#[path = "support/naive_checker.rs"]
mod naive_checker;

use mlv_core::prop;
use mlv_core::{mlv_proptest, prop_assert, prop_assert_eq};
use mlv_grid::analytics;
use mlv_grid::checker::{check, CheckError, CheckReport};
use mlv_grid::fold::FoldedEstimate;
use mlv_grid::geom::{Point3, Rect};
use mlv_grid::io::{read_layout, write_layout};
use mlv_grid::layout::Layout;
use mlv_grid::metrics::{LayoutMetrics, PhysicalMetrics};
use mlv_grid::path::WirePath;
use mlv_grid::pdk::Pdk;
use mlv_topology::GraphBuilder;
use naive_checker::naive_check;

/// Build a rectilinear path from a list of axis-aligned steps.
fn path_from_steps(start: (i64, i64, i32), steps: &[(u8, i64)]) -> WirePath {
    let mut corners = vec![Point3::new(start.0, start.1, start.2)];
    let mut cur = *corners.last().unwrap();
    for &(axis, amount) in steps {
        let mut next = cur;
        match axis % 3 {
            0 => next.x += amount,
            1 => next.y += amount,
            _ => next.z = (next.z + (amount.clamp(-2, 2)) as i32).max(0),
        }
        corners.push(next);
        cur = next;
    }
    WirePath::new(corners)
}

/// One generated node: corner, extent and layer.
type NodeRecipe = ((i64, i64), (i64, i64), i32);

/// One generated wire: endpoints, a recipe, a start point and the steps
/// of a walk.
type WireRecipe = ((u32, u32), u8, (i64, i64, i32), Vec<(u8, i64)>);

/// Build a small layout biased towards every case the checker decides
/// on runs: collinear overlaps both ways, crossings in all three planes,
/// T-junctions, U-turns and loops, single-point wires, repeated corners,
/// 2- and 3-axis diagonals, out-of-range layers, missing nodes, and runs
/// through foreign (possibly overlapping) footprints.
fn hostile_small_layout(
    layers: usize,
    nodes: &[NodeRecipe],
    wires: &[WireRecipe],
) -> mlv_grid::Layout {
    let mut l = Layout::new("differential", layers);
    for (i, &((x, y), (w, h), z)) in nodes.iter().enumerate() {
        l.place_node_at(i as u32, Rect::new(x, y, x + w, y + h), z % layers as i32);
    }
    let footprint = |n: u32| {
        let &((x, y), _, z) = nodes.get(n as usize)?;
        Some(Point3::new(x, y, z % layers as i32))
    };
    let mut previous: Option<Vec<Point3>> = None;
    for &((u, v), kind, (sx, sy, sz), ref steps) in wires {
        let mut corners = match (kind, &previous) {
            // the previous wire again, reversed, or shifted one step
            (4, Some(prev)) => prev.clone(),
            (5, Some(prev)) => prev.iter().rev().copied().collect(),
            (6, Some(prev)) => prev
                .iter()
                .map(|c| Point3::new(c.x + 1, c.y, c.z))
                .collect(),
            // a single point, repeated
            (7, _) => vec![Point3::new(sx, sy, sz); 2],
            _ => {
                // a walk, from u's footprint when the recipe says so
                let start = match kind {
                    1 | 3 => footprint(u),
                    _ => None,
                };
                let mut c = start.unwrap_or(Point3::new(sx, sy, sz));
                let mut walk = vec![c];
                // recipe 2 walks its steps four times, along axes only:
                // a long path of axis-parallel runs
                let laps = if kind == 2 { 4 } else { 1 };
                for &(code, d) in steps.iter().cycle().take(laps * steps.len()) {
                    let code = if kind == 2 { code % 3 } else { code };
                    match code {
                        0 | 6 => c.x += d,
                        1 | 7 => c.y += d,
                        2 => c.z += d as i32,
                        3 => (c.x, c.y) = (c.x + d, c.y - d.signum()),
                        4 => (c.x, c.y, c.z) = (c.x + d, c.y + d, c.z - d.signum() as i32),
                        // a 2-axis diagonal crossing those of code 3
                        8 => (c.x, c.y) = (c.x + d, c.y + d),
                        _ => {} // a repeated corner
                    }
                    walk.push(c);
                }
                // and on to v's footprint
                if let (3, Some(end)) = (kind, footprint(v)) {
                    walk.push(Point3::new(end.x, c.y, c.z));
                    walk.push(Point3::new(end.x, end.y, c.z));
                    walk.push(end);
                }
                walk
            }
        };
        if corners.is_empty() {
            corners.push(Point3::new(sx, sy, sz));
        }
        previous = Some(corners.clone());
        l.add_wire(u, v, WirePath::new(corners));
    }
    l
}

/// The point walk [`analytics::layer_usage`] replaced: every point of
/// every wire, counted on its layer.
fn layer_usage_by_points(l: &Layout) -> Vec<u64> {
    let mut usage = vec![0u64; l.layers];
    for p in l.wires.iter().flat_map(|w| w.path.points()) {
        if let Some(u) = usage.get_mut(p.z as usize) {
            *u += 1;
        }
    }
    usage
}

mlv_proptest! {
    /// Counting layer usage per segment gives the point walk's counts
    /// on random axis-aligned paths, layers out of range included.
    #[test]
    fn layer_usage_equals_point_walk(
        layers in 1usize..6,
        paths in prop::vec(((-3i64..4, -3i64..4, -1i32..7), prop::vec((0u8..3, -6i64..7), 0..8)), 0..6),
    ) {
        let mut l = Layout::new("usage", layers);
        for (start, steps) in &paths {
            l.add_wire(0, 1, path_from_steps(*start, steps));
        }
        prop_assert_eq!(analytics::layer_usage(&l), layer_usage_by_points(&l));
    }

    /// The run-based checker reports exactly what the naive point-set
    /// reference reports — errors, their order, the cap and the point
    /// totals — on random small hostile layouts, with and without a
    /// reference graph.
    #[test]
    fn checker_equals_naive_reference(
        layers in 1usize..4,
        nodes in prop::vec(((0i64..8, 0i64..8), (0i64..3, 0i64..3), 0i32..3), 1..7),
        wires in prop::vec(
            ((0u32..7, 0u32..7), 0u8..8, (0i64..8, 0i64..8, -1i32..4), prop::vec((0u8..9, -3i64..4), 0..6)),
            1..9,
        ),
        extra in 0u32..4,
    ) {
        let l = hostile_small_layout(layers, &nodes, &wires);
        prop_assert_eq!(check(&l, None), naive_check(&l, None));
        // a graph with the wires' own endpoint pairs, plus sometimes one
        // stray edge so topology can mismatch
        let n = nodes.len() as u32;
        let mut g = GraphBuilder::new("reference", n as usize);
        for w in &l.wires {
            if w.u < n && w.v < n && w.u != w.v {
                g.add_edge(w.u, w.v);
            }
        }
        if extra == 0 && n > 1 {
            g.add_edge(0, n - 1);
        }
        let g = g.build();
        prop_assert_eq!(check(&l, Some(&g)), naive_check(&l, Some(&g)));
    }

    /// Past the cap: coincident wires crossed by a comb overflow
    /// [`CheckReport::ERROR_CAP`] in the conflict phase, and the checker
    /// truncates at the same conflict as the reference.
    #[test]
    fn checker_equals_naive_reference_past_the_cap(
        copies in 3usize..6,
        len in 32i64..64,
        first in 0i64..3,
    ) {
        let mut l = Layout::new("crowd", 2);
        l.place_node(0, Rect::new(0, 0, 0, 0));
        l.place_node(1, Rect::new(len, 0, len, 0));
        for _ in 0..copies {
            l.add_wire(0, 1, WirePath::new(vec![Point3::new(0, 0, 0), Point3::new(len, 0, 0)]));
        }
        // y-runs between nodes of their own, crossing every copy
        for (i, x) in (first + 1..len).step_by(3).enumerate() {
            let (a, b) = (2 + 2 * i as u32, 3 + 2 * i as u32);
            l.place_node(a, Rect::new(x, -2, x, -2));
            l.place_node(b, Rect::new(x, 2, x, 2));
            l.add_wire(a, b, WirePath::new(vec![Point3::new(x, -2, 0), Point3::new(x, 2, 0)]));
        }
        let r = check(&l, None);
        prop_assert_eq!(r.errors.len(), CheckReport::ERROR_CAP);
        prop_assert!(r.errors.iter().all(|e| matches!(e, CheckError::WireConflict { .. })));
        prop_assert_eq!(r, naive_check(&l, None));
    }

    /// For any valid path: point count = length + 1, endpoints'
    /// Manhattan distance ≤ length, and planar + via lengths partition
    /// the total.
    #[test]
    fn path_length_point_consistency(
        sx in -20i64..20, sy in -20i64..20,
        steps in prop::vec((0u8..3, -6i64..7), 0..12)
    ) {
        let p = path_from_steps((sx, sy, 2), &steps);
        prop_assert_eq!(p.planar_length() + p.via_count(), p.length());
        if p.validate().is_ok() {
            prop_assert_eq!(p.points().count() as u64, p.length() + 1);
            prop_assert!(p.start().manhattan(&p.end()) <= p.length());
        }
    }

    /// A path that validates never visits a point twice (cross-checked
    /// with a set).
    #[test]
    fn valid_paths_are_self_disjoint(
        steps in prop::vec((0u8..3, -5i64..6), 1..10)
    ) {
        let p = path_from_steps((0, 0, 1), &steps);
        if p.validate().is_ok() {
            let pts: Vec<_> = p.points().collect();
            let set: std::collections::HashSet<_> = pts.iter().copied().collect();
            prop_assert_eq!(set.len(), pts.len());
        }
    }

    /// Parallel horizontal wires on distinct tracks always check clean;
    /// duplicating any wire makes the checker reject.
    #[test]
    fn checker_accepts_disjoint_rejects_duplicates(
        n_wires in 1usize..8, dup in 0usize..8
    ) {
        let mut l = Layout::new("lanes", 2);
        l.place_node(0, Rect::new(0, 0, 0, (n_wires as i64).max(1) - 1));
        l.place_node(1, Rect::new(10, 0, 10, (n_wires as i64).max(1) - 1));
        for t in 0..n_wires {
            l.add_wire(
                0,
                1,
                WirePath::new(vec![
                    Point3::new(0, t as i64, 0),
                    Point3::new(10, t as i64, 0),
                ]),
            );
        }
        prop_assert!(check(&l, None).is_legal());
        // duplicate one wire -> conflict
        let t = dup % n_wires;
        l.add_wire(
            0,
            1,
            WirePath::new(vec![
                Point3::new(0, t as i64, 0),
                Point3::new(10, t as i64, 0),
            ]),
        );
        let r = check(&l, None);
        let has_conflict = r
            .errors
            .iter()
            .any(|e| matches!(e, CheckError::WireConflict { .. }));
        prop_assert!(has_conflict);
    }

    /// Folding any 2-layer metrics: area falls by ≈ t, volume never
    /// falls, max wire never falls.
    #[test]
    fn folding_estimate_monotonicity(
        width in 10u64..5000, height in 10u64..5000, wire in 1u64..5000,
        t in 1usize..9
    ) {
        let layers = 2 * t;
        let m = LayoutMetrics {
            width,
            height,
            area: width * height,
            volume: 2 * width * height,
            layers: 2,
            max_used_layer: 1,
            max_wire_planar: wire,
            max_wire_full: wire,
            total_wire: 0,
            wire_count: 0,
            via_count: 0,
        };
        let f = FoldedEstimate::from_two_layer(&m, layers);
        // area shrinks by at most t, and at least t modulo crease rows
        prop_assert!(f.area >= m.area / t as u64);
        prop_assert!(f.area <= m.area / t as u64 + (t as u64 + 1) * width);
        prop_assert!(f.volume >= m.volume);
        prop_assert!(f.max_wire >= m.max_wire_full);
    }

    /// The text format round-trips arbitrary layouts byte-stably.
    #[test]
    fn io_round_trip(
        nodes in prop::vec((0i64..40, 0i64..40, 0u8..4), 1..6),
        steps in prop::vec((0u8..3, -5i64..6), 1..8),
    ) {
        let mut l = Layout::new("prop trip", 4);
        for (i, &(x, y, z)) in nodes.iter().enumerate() {
            l.place_node_at(i as u32, Rect::new(x, y, x + 1, y + 1), z as i32);
        }
        let path = path_from_steps((nodes[0].0, nodes[0].1, nodes[0].2 as i32), &steps);
        l.add_wire(0, 0, path);
        let text = write_layout(&l);
        let back = read_layout(&text).unwrap();
        prop_assert_eq!(write_layout(&back), text);
        prop_assert_eq!(back.nodes.len(), l.nodes.len());
        prop_assert_eq!(back.wires[0].path.corners(), l.wires[0].path.corners());
    }

    /// The checker's report does not depend on the executor's thread
    /// count: same errors in the same order, same point counts — on
    /// legal layouts and on corrupted ones.
    #[test]
    fn checker_parallel_equals_sequential(
        n_wires in 1usize..120, corrupt in 0usize..4
    ) {
        let mut l = Layout::new("par-vs-seq", 2);
        l.place_node(0, Rect::new(0, 0, 0, (n_wires as i64).max(1) - 1));
        l.place_node(1, Rect::new(10, 0, 10, (n_wires as i64).max(1) - 1));
        for t in 0..n_wires {
            l.add_wire(
                0,
                1,
                WirePath::new(vec![
                    Point3::new(0, t as i64, 0),
                    Point3::new(10, t as i64, 0),
                ]),
            );
        }
        if corrupt > 0 {
            // duplicated wire, foreign footprint, and layer escape
            let t = (corrupt * 7) % n_wires;
            l.add_wire(
                0,
                1,
                WirePath::new(vec![
                    Point3::new(0, t as i64, 0),
                    Point3::new(10, t as i64, 0),
                ]),
            );
            if corrupt > 1 {
                l.place_node(2, Rect::new(5, 0, 5, 0));
            }
            if corrupt > 2 {
                l.wires[0].path = WirePath::new(vec![
                    Point3::new(0, 0, 0),
                    Point3::new(0, 0, 5),
                    Point3::new(10, 0, 5),
                    Point3::new(10, 0, 0),
                ]);
            }
        }
        let seq = mlv_core::exec::with_thread_count(1, || check(&l, None));
        for threads in [2usize, 4, 8] {
            let par = mlv_core::exec::with_thread_count(threads, || check(&l, None));
            prop_assert_eq!(&par, &seq, "threads = {}", threads);
        }
    }

    /// Bounding boxes contain every wire corner and every node.
    #[test]
    fn bounding_box_covers_everything(
        nodes in prop::vec((0i64..50, 0i64..50), 1..6),
    ) {
        let mut l = Layout::new("bb", 2);
        for (i, &(x, y)) in nodes.iter().enumerate() {
            // footprints may overlap here; we only test the bbox
            l.place_node(i as u32, Rect::new(x, y, x + 1, y + 1));
        }
        let bb = l.bounding_box().unwrap();
        for &(x, y) in &nodes {
            prop_assert!(bb.contains_xy(x, y));
            prop_assert!(bb.contains_xy(x + 1, y + 1));
        }
    }

    /// PDK metric laws over arbitrary rectilinear wires: the uniform
    /// stack is the exact identity onto the grid metrics, and scaling
    /// every pitch/via cost by a constant k scales wirelength and via
    /// cost by k and area by k².
    #[test]
    fn physical_metrics_identity_and_linearity(
        steps in prop::vec((0u8..3, -6i64..7), 1..12),
        k in 1u64..5
    ) {
        let p = path_from_steps((0, 0, 1), &steps);
        if p.validate().is_ok() {
            let mut l = Layout::new("prop", 4);
            l.add_wire(0, 1, p);
            let m = LayoutMetrics::of(&l);
            let ph = PhysicalMetrics::of(&l, &Pdk::uniform(4)).unwrap();
            prop_assert_eq!(ph.wirelength, m.total_wire);
            prop_assert_eq!(ph.max_wire, m.max_wire_full);
            prop_assert_eq!(ph.via_cost, m.via_count);
            prop_assert_eq!(ph.area, m.area);
            let hv6 = Pdk::hv6();
            let p1 = PhysicalMetrics::of(&l, &hv6).unwrap();
            let pk = PhysicalMetrics::of(&l, &hv6.scaled(k).unwrap()).unwrap();
            prop_assert_eq!(pk.wirelength, k * p1.wirelength);
            prop_assert_eq!(pk.via_cost, k * p1.via_cost);
            prop_assert_eq!(pk.max_wire, k * p1.max_wire);
            prop_assert_eq!(pk.area, k * k * p1.area);
        }
    }

    /// Adversarial scale factors and hostile huge-pitch stacks never
    /// panic: `Pdk::scaled` and `PhysicalMetrics::of` run checked
    /// arithmetic end to end and surface overflow as `Err`. (Pinned
    /// because the serve path feeds user-supplied `@file.pdk` stacks
    /// through both — before this, extreme `k` debug-panicked /
    /// release-wrapped.)
    #[test]
    fn extreme_scale_factors_error_instead_of_panicking(
        k_exp in 32u32..64,
        steps in prop::vec((0u8..3, -6i64..7), 1..8)
    ) {
        let k = if k_exp == 63 { u64::MAX } else { 1u64 << k_exp };
        // k = 0 is an error, not a panic
        prop_assert!(Pdk::hv6().scaled(0).is_err());
        // hv6's max pitch is 4, so k past 2^62 must overflow — and
        // smaller k must round-trip the linearity law's precondition
        match Pdk::hv6().scaled(k) {
            Ok(scaled) => {
                prop_assert!(k <= u64::MAX / 4);
                // a realizable stack still prices small layouts, or
                // errors cleanly when the weighted sums overflow
                let p = path_from_steps((0, 0, 1), &steps);
                if p.validate().is_ok() {
                    let mut l = Layout::new("prop", 4);
                    l.add_wire(0, 1, p);
                    let _ = PhysicalMetrics::of(&l, &scaled); // must not panic
                }
            }
            Err(e) => {
                prop_assert!(k > u64::MAX / 4, "k={k} errored early: {e}");
                prop_assert!(e.contains("overflow"), "unexpected error: {e}");
            }
        }
    }
}
