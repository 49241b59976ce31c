//! A node footprint far larger than the wiring must cost the checker
//! nothing: footprints are looked up as rectangles, never enumerated
//! point by point. One 100001×100001 node holds ~10¹⁰ grid points, so a
//! checker that enumerated them would exhaust memory long before this
//! test finished.

use mlv_grid::checker::{check, CheckError, CheckReport};
use mlv_grid::{Layout, Point3, Rect, WirePath};

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
