//! Grid geometry: 3-D grid points and upright rectangles.

/// A point of the 3-D layout grid. `x` and `y` index the planar grid,
/// `z` the wiring layer (`z = 0` is the active layer carrying the
/// network nodes).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Point3 {
    /// Column (grows rightward).
    pub x: i64,
    /// Row (grows upward).
    pub y: i64,
    /// Layer (0-based; `z = 0` is the active layer).
    pub z: i32,
}

impl Point3 {
    /// Construct a point.
    pub const fn new(x: i64, y: i64, z: i32) -> Self {
        Point3 { x, y, z }
    }

    /// Manhattan distance to `other` (including the layer axis),
    /// saturating at `u64::MAX`.
    pub fn manhattan(&self, other: &Point3) -> u64 {
        self.x
            .abs_diff(other.x)
            .saturating_add(self.y.abs_diff(other.y))
            .saturating_add(self.z.abs_diff(other.z) as u64)
    }

    /// `true` if the two points differ in exactly one coordinate
    /// (i.e. an axis-aligned segment joins them).
    pub fn is_axis_aligned_with(&self, other: &Point3) -> bool {
        let dx = (self.x != other.x) as u8;
        let dy = (self.y != other.y) as u8;
        let dz = (self.z != other.z) as u8;
        dx + dy + dz == 1
    }
}

/// An upright (axis-aligned) rectangle of grid points on a single layer:
/// all `(x, y)` with `x0 ≤ x ≤ x1`, `y0 ≤ y ≤ y1`. Inclusive on all
/// sides; a single grid point is the rectangle with `x0 == x1`,
/// `y0 == y1`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Rect {
    /// Left edge (inclusive).
    pub x0: i64,
    /// Bottom edge (inclusive).
    pub y0: i64,
    /// Right edge (inclusive).
    pub x1: i64,
    /// Top edge (inclusive).
    pub y1: i64,
}

impl Rect {
    /// Construct a rectangle; panics if degenerate (x1 < x0 or y1 < y0).
    pub fn new(x0: i64, y0: i64, x1: i64, y1: i64) -> Self {
        assert!(x1 >= x0 && y1 >= y0, "degenerate rectangle");
        Rect { x0, y0, x1, y1 }
    }

    /// Number of grid columns spanned, saturating at `u64::MAX` (a span
    /// of the whole `i64` range has 2⁶⁴ columns).
    pub fn width(&self) -> u64 {
        self.x1.abs_diff(self.x0).saturating_add(1)
    }

    /// Number of grid rows spanned, saturating at `u64::MAX`.
    pub fn height(&self) -> u64 {
        self.y1.abs_diff(self.y0).saturating_add(1)
    }

    /// Number of grid points contained, saturating at `u64::MAX`.
    pub fn point_count(&self) -> u64 {
        self.width().saturating_mul(self.height())
    }

    /// `true` if the planar coordinates of `p` fall inside.
    pub fn contains_xy(&self, x: i64, y: i64) -> bool {
        self.x0 <= x && x <= self.x1 && self.y0 <= y && y <= self.y1
    }

    /// `true` if the rectangles share at least one grid point.
    pub fn intersects(&self, other: &Rect) -> bool {
        self.x0 <= other.x1 && other.x0 <= self.x1 && self.y0 <= other.y1 && other.y0 <= self.y1
    }

    /// The smallest rectangle containing both.
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            x0: self.x0.min(other.x0),
            y0: self.y0.min(other.y0),
            x1: self.x1.max(other.x1),
            y1: self.y1.max(other.y1),
        }
    }

    /// Grow to contain the planar coordinates of a point.
    pub fn expand_to(&mut self, x: i64, y: i64) {
        self.x0 = self.x0.min(x);
        self.y0 = self.y0.min(y);
        self.x1 = self.x1.max(x);
        self.y1 = self.y1.max(y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manhattan_distance() {
        let a = Point3::new(0, 0, 0);
        let b = Point3::new(3, -2, 1);
        assert_eq!(a.manhattan(&b), 6);
        assert_eq!(b.manhattan(&a), 6);
        assert_eq!(a.manhattan(&a), 0);
    }

    #[test]
    fn axis_alignment() {
        let a = Point3::new(0, 0, 0);
        assert!(a.is_axis_aligned_with(&Point3::new(5, 0, 0)));
        assert!(a.is_axis_aligned_with(&Point3::new(0, -1, 0)));
        assert!(a.is_axis_aligned_with(&Point3::new(0, 0, 2)));
        assert!(!a.is_axis_aligned_with(&Point3::new(1, 1, 0)));
        assert!(!a.is_axis_aligned_with(&a));
    }

    #[test]
    fn rect_measures() {
        let r = Rect::new(2, 3, 4, 3);
        assert_eq!(r.width(), 3);
        assert_eq!(r.height(), 1);
        assert_eq!(r.point_count(), 3);
    }

    #[test]
    fn measures_of_the_full_i64_range_saturate() {
        let full = Rect::new(i64::MIN, 0, i64::MAX, 0);
        assert_eq!(full.width(), u64::MAX);
        assert_eq!(full.height(), 1);
        assert_eq!(full.point_count(), u64::MAX);
        let half = Rect::new(-1, i64::MIN, i64::MAX - 1, -1);
        assert_eq!(half.width(), 1 << 63);
        assert_eq!(half.height(), 1 << 63);
        assert_eq!(half.point_count(), u64::MAX);
        let (a, b) = (
            Point3::new(i64::MIN, i64::MIN, 0),
            Point3::new(i64::MAX, 0, 3),
        );
        assert_eq!(a.manhattan(&b), u64::MAX);
        assert_eq!(a.manhattan(&Point3::new(i64::MAX, i64::MIN, 0)), u64::MAX);
    }

    #[test]
    fn rect_contains_and_intersects() {
        let r = Rect::new(0, 0, 2, 2);
        assert!(r.contains_xy(0, 0));
        assert!(r.contains_xy(2, 2));
        assert!(!r.contains_xy(3, 0));
        assert!(r.intersects(&Rect::new(2, 2, 5, 5)));
        assert!(!r.intersects(&Rect::new(3, 0, 5, 5)));
    }

    #[test]
    fn rect_union_and_expand() {
        let a = Rect::new(0, 0, 1, 1);
        let b = Rect::new(3, -1, 4, 0);
        let u = a.union(&b);
        assert_eq!(u, Rect::new(0, -1, 4, 1));
        let mut c = a;
        c.expand_to(10, 10);
        assert_eq!(c, Rect::new(0, 0, 10, 10));
    }

    #[test]
    #[should_panic]
    fn degenerate_rect_rejected() {
        let _ = Rect::new(1, 0, 0, 0);
    }
}
