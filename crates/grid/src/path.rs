//! Rectilinear wire paths.
//!
//! A wire is a polyline through the 3-D grid whose segments run along
//! grid lines. We store only the **corner points** (including both
//! endpoints); the checks split a path into its maximal straight runs
//! and never enumerate its grid points. Layer changes (z-segments) are
//! the model's inter-layer *vias*.

use crate::geom::Point3;
use crate::runs::{self, Runs};

/// A rectilinear path stored as its corner sequence.
///
/// Invariants (validated by [`WirePath::validate`] and enforced by the
/// layout checker):
/// * at least one point;
/// * consecutive corners differ in exactly one coordinate;
/// * the path never revisits a grid point (node-disjointness with itself).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WirePath {
    corners: Vec<Point3>,
}

/// Why a path failed validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PathError {
    /// The corner list was empty.
    Empty,
    /// Corners `i` and `i+1` do not lie on a common grid line.
    NotAxisAligned(usize),
    /// The path visits a grid point twice (the offending point).
    SelfIntersection(Point3),
}

impl WirePath {
    /// Build a path from its corners. Zero-length "segments" (repeated
    /// corners) are collapsed in place. Panics if empty.
    pub fn new(mut corners: Vec<Point3>) -> Self {
        assert!(!corners.is_empty(), "path needs at least one point");
        corners.dedup();
        WirePath { corners }
    }

    /// The corner sequence (endpoints included).
    pub fn corners(&self) -> &[Point3] {
        &self.corners
    }

    /// First point (source terminal).
    pub fn start(&self) -> Point3 {
        self.corners[0]
    }

    /// Last point (destination terminal).
    pub fn end(&self) -> Point3 {
        *self.corners.last().unwrap()
    }

    /// Wire length in grid edges (sum of segment lengths, z included),
    /// saturating at `u64::MAX`.
    pub fn length(&self) -> u64 {
        self.corners
            .windows(2)
            .fold(0u64, |sum, w| sum.saturating_add(w[0].manhattan(&w[1])))
    }

    /// Planar wire length (x/y segments only, vias excluded) — the
    /// quantity the paper's "maximum wire length" results refer to
    /// (layer counts are O(L) and vias contribute lower-order terms; we
    /// report both).
    pub fn planar_length(&self) -> u64 {
        self.corners
            .windows(2)
            .map(|w| w[0].x.abs_diff(w[1].x) + w[0].y.abs_diff(w[1].y))
            .sum()
    }

    /// Number of vias (unit steps along z).
    pub fn via_count(&self) -> u64 {
        self.corners
            .windows(2)
            .map(|w| w[0].z.abs_diff(w[1].z) as u64)
            .sum()
    }

    /// Single-pass `(planar_length, length, via_count)` — one walk of
    /// the corner windows instead of three, for metric hot paths. Each
    /// saturates at `u64::MAX`.
    pub fn stats(&self) -> (u64, u64, u64) {
        stats_of(&self.corners)
    }

    /// Number of bends (corner points where direction changes).
    pub fn bend_count(&self) -> usize {
        self.corners.len().saturating_sub(2)
    }

    /// Iterate over every grid point the wire occupies, in path order.
    /// Endpoints included; corner points are not repeated.
    pub fn points(&self) -> impl Iterator<Item = Point3> + '_ {
        let first = std::iter::once(self.corners[0]);
        let rest = self.corners.windows(2).flat_map(|w| {
            let (a, b) = (w[0], w[1]);
            let steps = a.manhattan(&b);
            let dx = (b.x - a.x).signum();
            let dy = (b.y - a.y).signum();
            let dz = (b.z - a.z).signum();
            (1..=steps as i64).map(move |t| Point3 {
                x: a.x + dx * t,
                y: a.y + dy * t,
                z: a.z + dz * t as i32,
            })
        });
        first.chain(rest)
    }

    /// Validate the structural invariants. The self-intersection test
    /// compares the path's straight runs, so it costs O(c log c) for `c`
    /// corners however long the segments are, and names the first point
    /// that [`WirePath::points`] yields twice.
    pub fn validate(&self) -> Result<(), PathError> {
        if self.corners.is_empty() {
            return Err(PathError::Empty);
        }
        let mut path = Vec::new();
        if let Some(i) = runs::split(&self.corners, 0, &mut path, &mut Vec::new()) {
            return Err(PathError::NotAxisAligned(i));
        }
        match runs::first_revisit(&path, &mut Runs::default()) {
            Some(c) => Err(PathError::SelfIntersection(runs::point(c))),
            None => Ok(()),
        }
    }
}

/// `(planar_length, length, via_count)` of a corner sequence, each
/// saturating at `u64::MAX`.
pub(crate) fn stats_of(corners: &[Point3]) -> (u64, u64, u64) {
    let (mut planar, mut vias) = (0u64, 0u64);
    for w in corners.windows(2) {
        let step = w[0]
            .x
            .abs_diff(w[1].x)
            .saturating_add(w[0].y.abs_diff(w[1].y));
        planar = planar.saturating_add(step);
        vias = vias.saturating_add(w[0].z.abs_diff(w[1].z) as u64);
    }
    (planar, planar.saturating_add(vias), vias)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: i64, y: i64, z: i32) -> Point3 {
        Point3::new(x, y, z)
    }

    #[test]
    fn length_and_vias() {
        let w = WirePath::new(vec![
            p(0, 0, 0),
            p(0, 0, 1),
            p(3, 0, 1),
            p(3, 2, 1),
            p(3, 2, 0),
        ]);
        assert_eq!(w.length(), 1 + 3 + 2 + 1);
        assert_eq!(w.planar_length(), 5);
        assert_eq!(w.via_count(), 2);
        assert_eq!(w.bend_count(), 3);
        assert!(w.validate().is_ok());
    }

    #[test]
    fn points_enumeration() {
        let w = WirePath::new(vec![p(0, 0, 0), p(2, 0, 0), p(2, 1, 0)]);
        let pts: Vec<Point3> = w.points().collect();
        assert_eq!(pts, vec![p(0, 0, 0), p(1, 0, 0), p(2, 0, 0), p(2, 1, 0)]);
    }

    #[test]
    fn single_point_path() {
        let w = WirePath::new(vec![p(5, 5, 0)]);
        assert_eq!(w.length(), 0);
        assert_eq!(w.points().count(), 1);
        assert!(w.validate().is_ok());
    }

    #[test]
    fn repeated_corners_collapsed() {
        let w = WirePath::new(vec![p(0, 0, 0), p(0, 0, 0), p(1, 0, 0)]);
        assert_eq!(w.corners().len(), 2);
    }

    #[test]
    fn stats_agree_with_individual_metrics() {
        let w = WirePath::new(vec![
            p(0, 0, 0),
            p(0, 0, 1),
            p(3, 0, 1),
            p(3, 2, 1),
            p(3, 2, 0),
        ]);
        assert_eq!(w.stats(), (w.planar_length(), w.length(), w.via_count()));
    }

    #[test]
    fn diagonal_rejected() {
        let w = WirePath::new(vec![p(0, 0, 0), p(1, 1, 0)]);
        assert_eq!(w.validate(), Err(PathError::NotAxisAligned(0)));
    }

    #[test]
    fn self_intersection_detected() {
        // a loop: right, up, left, down through start column again
        let w = WirePath::new(vec![
            p(0, 0, 0),
            p(2, 0, 0),
            p(2, 2, 0),
            p(0, 2, 0),
            p(0, 0, 0),
        ]);
        assert_eq!(w.validate(), Err(PathError::SelfIntersection(p(0, 0, 0))));
    }

    #[test]
    fn u_turn_within_segment_detected() {
        // go right 3 then back left 2 along the same track
        let w = WirePath::new(vec![p(0, 0, 0), p(3, 0, 0), p(1, 0, 0)]);
        assert_eq!(w.validate(), Err(PathError::SelfIntersection(p(2, 0, 0))));
    }
}
