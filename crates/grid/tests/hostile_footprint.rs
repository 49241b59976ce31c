//! Hostile geometry must cost the checker nothing. Footprints are
//! looked up as rectangles and wires split into straight runs, never
//! enumerated point by point. One 100001×100001 node holds ~10¹⁰ grid
//! points and one 2⁴⁰-long wire ~10¹², so a checker that enumerated
//! them would exhaust memory long before these tests finished. Many
//! short pieces must cost no more than their count times its logarithm:
//! 10⁵ diagonal segments compared pairwise would take minutes.

#[path = "support/naive_checker.rs"]
mod naive_checker;

use mlv_grid::checker::{check, CheckError, CheckReport};
use mlv_grid::{Layout, Point3, Rect, WirePath};
use naive_checker::naive_check;

const SIDE: i64 = 100_001;

fn p(x: i64, y: i64) -> Point3 {
    Point3::new(x, y, 0)
}

/// One huge node 0 plus a loop wire that leaves it and comes back.
fn huge_node() -> Layout {
    let mut l = Layout::new("hostile", 2);
    l.place_node(0, Rect::new(0, 0, SIDE - 1, SIDE - 1));
    l.add_wire(
        0,
        0,
        WirePath::new(vec![p(SIDE - 1, 5), p(SIDE, 5), p(SIDE, 7), p(SIDE - 1, 7)]),
    );
    l
}

#[test]
fn huge_footprint_checks_legal_without_enumerating_it() {
    let report = check(&huge_node(), None);
    assert_eq!(
        report,
        CheckReport {
            errors: vec![],
            wire_points: 5,
            node_points: (SIDE * SIDE) as u64,
        }
    );
}

#[test]
fn huge_footprint_catches_a_wire_through_its_corner() {
    let mut l = huge_node();
    l.place_node(1, Rect::new(SIDE - 1, -1, SIDE - 1, -1));
    l.place_node(2, Rect::new(SIDE + 2, 1, SIDE + 2, 1));
    // from node 1 up into the big node's corner, then out to node 2
    l.add_wire(
        1,
        2,
        WirePath::new(vec![
            p(SIDE - 1, -1),
            p(SIDE - 1, 0),
            p(SIDE + 2, 0),
            p(SIDE + 2, 1),
        ]),
    );
    let report = check(&l, None);
    assert_eq!(
        report.errors,
        vec![CheckError::WireThroughNode {
            wire: 1,
            node: 0,
            point: p(SIDE - 1, 0),
        }]
    );
    assert_eq!(report.node_points, (SIDE * SIDE) as u64 + 2);
}

/// 2⁴⁰: a wire this long holds ~10¹² grid points, so enumerating them
/// would run for hours or exhaust memory. Straight runs, diagonals and
/// coincident wires must all be decided from their corners.
const FAR: i64 = 1 << 40;

/// Nodes 0 and 1, one unit footprint each, at `(0, 0)` and `(FAR, 0)`.
fn far_pair() -> Layout {
    let mut l = Layout::new("far", 2);
    l.place_node(0, Rect::new(0, 0, 0, 0));
    l.place_node(1, Rect::new(FAR, 0, FAR, 0));
    l
}

fn straight() -> WirePath {
    WirePath::new(vec![p(0, 0), p(FAR, 0)])
}

#[test]
fn far_straight_wire_checks_legal_without_walking_it() {
    assert_eq!(straight().validate(), Ok(()));
    let mut l = far_pair();
    l.add_wire(0, 1, straight());
    assert_eq!(
        check(&l, None),
        CheckReport {
            errors: vec![],
            wire_points: FAR as u64 + 1,
            node_points: 2,
        }
    );
}

#[test]
fn far_diagonal_wire_is_a_bad_path_without_walking_it() {
    // a 2-axis diagonal of Manhattan length 2⁴⁰; its walk overshoots to
    // (2⁴⁰, 2⁴⁰) but meets nothing
    let mut l = far_pair();
    l.add_wire(0, 1, WirePath::new(vec![p(0, 0), p(FAR - 1, 1)]));
    assert_eq!(
        check(&l, None),
        CheckReport {
            errors: vec![CheckError::BadPath {
                wire: 0,
                reason: "NotAxisAligned(0)".into(),
            }],
            wire_points: FAR as u64 + 1,
            node_points: 2,
        }
    );
}

#[test]
fn coincident_far_wires_report_the_first_cap_conflicts() {
    let mut l = far_pair();
    l.add_wire(0, 1, straight());
    l.add_wire(0, 1, straight());
    let conflicts: Vec<CheckError> = (0..CheckReport::ERROR_CAP as i64)
        .map(|x| CheckError::WireConflict {
            a: 0,
            b: 1,
            point: p(x, 0),
        })
        .collect();
    assert_eq!(
        check(&l, None),
        CheckReport {
            errors: conflicts,
            wire_points: 2 * (FAR as u64 + 1),
            node_points: 2,
        }
    );
}

/// 10⁵ unit nodes stacked in one column: they share one x-span, so a
/// pairwise scan over the column would be quadratic. The overlap test
/// sweeps them in y order instead.
#[test]
fn tall_legal_column_checks_in_linear_log_time() {
    const NODES: i64 = 100_000;
    let mut l = Layout::new("column", 2);
    for y in 0..NODES {
        l.place_node(y as u32, Rect::new(0, y, 0, y));
    }
    assert_eq!(
        check(&l, None),
        CheckReport {
            errors: vec![],
            wire_points: 0,
            node_points: NODES as u64,
        }
    );
}

/// A wire spanning more than `i64::MAX` grid steps still splits into
/// one run and meets a crossing wire at the right point.
#[test]
fn wire_longer_than_i64_max_steps_crosses_exactly() {
    let half = 1i64 << 62;
    let mut l = Layout::new("full range", 2);
    l.add_wire(0, 1, WirePath::new(vec![p(-half, 0), p(half, 0)]));
    l.add_wire(2, 3, WirePath::new(vec![p(0, -5), p(0, 5)]));
    let missing = (0..4).map(|node| CheckError::MissingNode { node });
    let cross = CheckError::WireConflict {
        a: 0,
        b: 1,
        point: p(0, 0),
    };
    assert_eq!(
        check(&l, None),
        CheckReport {
            errors: missing.chain([cross]).collect(),
            wire_points: (1u64 << 63) + 1 + 11,
            node_points: 0,
        }
    );
}

/// Corners of a zig-zag of `n` diagonal segments: `(i, i mod 2)` for
/// `i = 0..=n`. Each segment walks two steps, overshooting its end
/// corner, so the wire holds `(i + 1, 1)` and `(i + 2, 2)` after an even
/// corner `i` and `(i + 1, 0)` and `(i + 2, -1)` after an odd one, and
/// never the same point twice.
fn zigzag(n: i64) -> WirePath {
    WirePath::new((0..=n).map(|i| p(i, i % 2)).collect())
}

const ZIGS: i64 = 100_000;

/// Nodes 0 and 1 at the ends of the zig-zag, and the zig-zag.
fn zigzag_layout() -> Layout {
    let mut l = Layout::new("zigzag", 2);
    l.place_node(0, Rect::new(0, 0, 0, 0));
    l.place_node(1, Rect::new(ZIGS, 0, ZIGS, 0));
    l.add_wire(0, 1, zigzag(ZIGS));
    l
}

#[test]
fn zigzag_of_many_diagonals_is_one_bad_path() {
    let l = zigzag_layout();
    let report = check(&l, None);
    assert_eq!(
        report,
        CheckReport {
            errors: vec![CheckError::BadPath {
                wire: 0,
                reason: "NotAxisAligned(0)".into(),
            }],
            wire_points: 2 * ZIGS as u64 + 1,
            node_points: 2,
        }
    );
    assert_eq!(report, naive_check(&l, None));
}

#[test]
fn zigzag_crossed_by_a_run_reports_the_first_cap_conflicts() {
    // an x-run along y = 1 through every odd x the zig-zag reaches
    let mut l = zigzag_layout();
    l.place_node(2, Rect::new(-1, 1, -1, 1));
    l.place_node(3, Rect::new(ZIGS + 1, 1, ZIGS + 1, 1));
    l.add_wire(2, 3, WirePath::new(vec![p(-1, 1), p(ZIGS + 1, 1)]));
    let bad = CheckError::BadPath {
        wire: 0,
        reason: "NotAxisAligned(0)".into(),
    };
    let conflicts = (0..CheckReport::ERROR_CAP as i64 - 1).map(|k| CheckError::WireConflict {
        a: 0,
        b: 1,
        point: p(2 * k + 1, 1),
    });
    let report = check(&l, None);
    assert_eq!(
        report,
        CheckReport {
            errors: [bad].into_iter().chain(conflicts).collect(),
            wire_points: 2 * ZIGS as u64 + 1 + ZIGS as u64 + 3,
            node_points: 4,
        }
    );
    assert_eq!(report, naive_check(&l, None));
}
