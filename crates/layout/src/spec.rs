//! Abstract orthogonal layouts: the intermediate representation between
//! the collinear constructions and the concrete grid realization.

use mlv_topology::NodeId;
use std::collections::BTreeMap;

/// A link between two nodes of the same grid row, routed in that row's
/// horizontal track bundle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RowWire {
    /// Grid row of both endpoints.
    pub row: usize,
    /// Left endpoint's column (`lo < hi`).
    pub lo: usize,
    /// Right endpoint's column.
    pub hi: usize,
    /// Track within the row bundle (0-based, construction-assigned).
    pub track: usize,
}

/// A link between two nodes of the same grid column, routed in that
/// column's vertical track bundle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ColWire {
    /// Grid column of both endpoints.
    pub col: usize,
    /// Bottom endpoint's row (`lo < hi`).
    pub lo: usize,
    /// Top endpoint's row.
    pub hi: usize,
    /// Track within the column bundle (0-based, construction-assigned).
    pub track: usize,
}

/// A link whose endpoints share neither row nor column (or whose track
/// management is easier left to the realizer): routed as one vertical
/// run in the column gap right of endpoint `a` plus one horizontal run
/// in endpoint `b`'s row bundle. Tracks are assigned by the realizer
/// (greedy, in a reserved range above the construction tracks).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JogWire {
    /// First endpoint (row, col) — the vertical run starts here.
    pub a: (usize, usize),
    /// Second endpoint (row, col) — the horizontal run lands here.
    /// Must satisfy `a.0 != b.0` (same-row links are row wires).
    pub b: (usize, usize),
}

/// An abstract 2-D orthogonal layout.
#[derive(Clone, Debug)]
pub struct OrthogonalSpec {
    /// Human-readable name.
    pub name: String,
    /// Number of node rows.
    pub rows: usize,
    /// Number of node columns.
    pub cols: usize,
    /// Node id at grid position `(r, c)`, indexed `r * cols + c`.
    pub node_at: Vec<NodeId>,
    /// Same-row links.
    pub row_wires: Vec<RowWire>,
    /// Same-column links.
    pub col_wires: Vec<ColWire>,
    /// Cross links (realizer-routed).
    pub jog_wires: Vec<JogWire>,
}

/// Validity violations of a spec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecError {
    /// `node_at` is not a permutation of `0..rows*cols`.
    NotAPermutation,
    /// A wire references an out-of-range row/column or has `lo >= hi`.
    BadWire(String),
    /// Two same-track wires overlap in more than a touching endpoint.
    TrackOverlap(String),
}

impl OrthogonalSpec {
    /// Create an empty spec for a rows×cols node grid with the identity
    /// node assignment.
    pub fn new(name: impl Into<String>, rows: usize, cols: usize) -> Self {
        OrthogonalSpec {
            name: name.into(),
            rows,
            cols,
            node_at: (0..(rows * cols) as NodeId).collect(),
            row_wires: Vec::new(),
            col_wires: Vec::new(),
            jog_wires: Vec::new(),
        }
    }

    /// Node id at `(row, col)`.
    pub fn node(&self, row: usize, col: usize) -> NodeId {
        self.node_at[row * self.cols + col]
    }

    /// Total number of wires of all kinds.
    pub fn wire_count(&self) -> usize {
        self.row_wires.len() + self.col_wires.len() + self.jog_wires.len()
    }

    /// Endpoint node pairs of every wire, row wires first, then column
    /// wires, then jogs — the order the realizer emits them in.
    pub fn wire_endpoints(&self) -> Vec<(NodeId, NodeId)> {
        let mut v = Vec::with_capacity(self.wire_count());
        for w in &self.row_wires {
            v.push((self.node(w.row, w.lo), self.node(w.row, w.hi)));
        }
        for w in &self.col_wires {
            v.push((self.node(w.lo, w.col), self.node(w.hi, w.col)));
        }
        for w in &self.jog_wires {
            v.push((self.node(w.a.0, w.a.1), self.node(w.b.0, w.b.1)));
        }
        v
    }

    /// The multiset of wire endpoint pairs (canonical order) for
    /// verification against `Graph::edge_multiset`.
    pub fn edge_multiset(&self) -> BTreeMap<(NodeId, NodeId), usize> {
        let mut m = BTreeMap::new();
        for (a, b) in self.wire_endpoints() {
            let key = if a <= b { (a, b) } else { (b, a) };
            *m.entry(key).or_insert(0) += 1;
        }
        m
    }

    /// Highest construction track index + 1 used in row `r`'s bundle.
    pub fn row_tracks(&self, r: usize) -> usize {
        self.row_wires
            .iter()
            .filter(|w| w.row == r)
            .map(|w| w.track + 1)
            .max()
            .unwrap_or(0)
    }

    /// Highest construction track index + 1 used in column `c`'s bundle.
    pub fn col_tracks(&self, c: usize) -> usize {
        self.col_wires
            .iter()
            .filter(|w| w.col == c)
            .map(|w| w.track + 1)
            .max()
            .unwrap_or(0)
    }

    /// Validate structural rules (ranges, permutation, per-track
    /// open-interval disjointness).
    pub fn validate(&self) -> Result<(), SpecError> {
        let n = self.rows * self.cols;
        let mut seen = vec![false; n];
        if self.node_at.len() != n {
            return Err(SpecError::NotAPermutation);
        }
        for &x in &self.node_at {
            if (x as usize) >= n || seen[x as usize] {
                return Err(SpecError::NotAPermutation);
            }
            seen[x as usize] = true;
        }
        for w in &self.row_wires {
            if w.row >= self.rows || w.lo >= w.hi || w.hi >= self.cols {
                return Err(SpecError::BadWire(format!("{w:?}")));
            }
        }
        for w in &self.col_wires {
            if w.col >= self.cols || w.lo >= w.hi || w.hi >= self.rows {
                return Err(SpecError::BadWire(format!("{w:?}")));
            }
        }
        for w in &self.jog_wires {
            if w.a.0 >= self.rows
                || w.b.0 >= self.rows
                || w.a.1 >= self.cols
                || w.b.1 >= self.cols
                || w.a.0 == w.b.0
            {
                return Err(SpecError::BadWire(format!("{w:?}")));
            }
        }
        // per-(line, track) disjointness: one sort per direction puts
        // each (line, track)'s spans side by side, in (lo, hi) order
        let mut spans: Vec<(usize, usize, usize, usize)> = self
            .row_wires
            .iter()
            .map(|w| (w.row, w.track, w.lo, w.hi))
            .collect();
        first_overlap(&mut spans, "row")?;
        spans.clear();
        spans.extend(self.col_wires.iter().map(|w| (w.col, w.track, w.lo, w.hi)));
        first_overlap(&mut spans, "col")?;
        Ok(())
    }

    /// Panic with context if invalid.
    pub fn assert_valid(&self) {
        if let Err(e) = self.validate() {
            panic!("orthogonal spec '{}' invalid: {e:?}", self.name);
        }
    }
}

/// The first overlap among `(line, track, lo, hi)` spans, in
/// `(line, track)` order and then `(lo, hi)` order within it: two spans
/// of one track overlap when the later one starts before the earlier
/// one ends (touching endpoints are legal).
fn first_overlap(spans: &mut [(usize, usize, usize, usize)], kind: &str) -> Result<(), SpecError> {
    spans.sort_unstable();
    for pair in spans.windows(2) {
        let ((line, track, lo, hi), (line2, track2, lo2, hi2)) = (pair[0], pair[1]);
        if (line, track) == (line2, track2) && lo2 < hi {
            return Err(SpecError::TrackOverlap(format!(
                "{kind} {line} track {track}: {:?} vs {:?}",
                (lo, hi),
                (lo2, hi2)
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_2x3() -> OrthogonalSpec {
        OrthogonalSpec::new("t", 2, 3)
    }

    #[test]
    fn empty_spec_valid() {
        let s = grid_2x3();
        s.assert_valid();
        assert_eq!(s.wire_count(), 0);
        assert_eq!(s.node(1, 2), 5);
    }

    #[test]
    fn row_wire_endpoints() {
        let mut s = grid_2x3();
        s.row_wires.push(RowWire {
            row: 1,
            lo: 0,
            hi: 2,
            track: 0,
        });
        assert_eq!(s.wire_endpoints(), vec![(3, 5)]);
        s.assert_valid();
    }

    #[test]
    fn track_overlap_detected() {
        let mut s = grid_2x3();
        s.row_wires.push(RowWire {
            row: 0,
            lo: 0,
            hi: 2,
            track: 0,
        });
        s.row_wires.push(RowWire {
            row: 0,
            lo: 1,
            hi: 2,
            track: 0,
        });
        assert!(matches!(s.validate(), Err(SpecError::TrackOverlap(_))));
    }

    #[test]
    fn touching_same_track_ok() {
        let mut s = grid_2x3();
        s.row_wires.push(RowWire {
            row: 0,
            lo: 0,
            hi: 1,
            track: 0,
        });
        s.row_wires.push(RowWire {
            row: 0,
            lo: 1,
            hi: 2,
            track: 0,
        });
        s.assert_valid();
    }

    fn row(row: usize, lo: usize, hi: usize, track: usize) -> RowWire {
        RowWire { row, lo, hi, track }
    }

    fn col(col: usize, lo: usize, hi: usize, track: usize) -> ColWire {
        ColWire { col, lo, hi, track }
    }

    #[test]
    fn first_overlap_in_line_and_track_order_is_reported() {
        let mut s = OrthogonalSpec::new("t", 4, 6);
        // overlaps on (row 2, track 0) and (row 1, track 1), inserted
        // out of order; (row 1, track 1) holds two, (0, 4) first
        s.row_wires = vec![
            row(2, 0, 3, 0),
            row(2, 1, 2, 0),
            row(1, 3, 5, 1),
            row(1, 0, 4, 1),
            row(1, 1, 2, 1),
            row(1, 0, 5, 0),
        ];
        s.col_wires = vec![col(0, 0, 3, 0), col(0, 1, 2, 0)];
        assert_eq!(
            s.validate(),
            Err(SpecError::TrackOverlap(
                "row 1 track 1: (0, 4) vs (1, 2)".into()
            ))
        );
        // rows are checked before columns
        s.row_wires.retain(|w| w.row == 0);
        s.col_wires.push(col(3, 2, 3, 1));
        s.col_wires.push(col(3, 0, 3, 1));
        assert_eq!(
            s.validate(),
            Err(SpecError::TrackOverlap(
                "col 0 track 0: (0, 3) vs (1, 2)".into()
            ))
        );
        s.col_wires.drain(..2);
        assert_eq!(
            s.validate(),
            Err(SpecError::TrackOverlap(
                "col 3 track 1: (0, 3) vs (2, 3)".into()
            ))
        );
        // an identical span is an overlap too
        s.col_wires = vec![col(1, 0, 2, 0), col(1, 0, 2, 0)];
        assert_eq!(
            s.validate(),
            Err(SpecError::TrackOverlap(
                "col 1 track 0: (0, 2) vs (0, 2)".into()
            ))
        );
    }

    #[test]
    fn touching_spans_are_legal_in_both_directions() {
        let mut s = OrthogonalSpec::new("t", 4, 4);
        s.row_wires = vec![row(1, 2, 3, 0), row(1, 0, 1, 0), row(1, 1, 2, 0)];
        s.col_wires = vec![col(2, 1, 3, 1), col(2, 0, 1, 1)];
        s.assert_valid();
    }

    #[test]
    fn equal_spans_on_another_track_or_line_are_legal() {
        let mut s = OrthogonalSpec::new("t", 3, 3);
        s.row_wires = vec![row(0, 0, 2, 0), row(0, 0, 2, 1), row(1, 0, 2, 0)];
        s.col_wires = vec![col(0, 0, 2, 0), col(0, 0, 2, 1), col(2, 0, 2, 0)];
        s.assert_valid();
    }

    #[test]
    fn jog_same_row_rejected() {
        let mut s = grid_2x3();
        s.jog_wires.push(JogWire {
            a: (0, 0),
            b: (0, 2),
        });
        assert!(matches!(s.validate(), Err(SpecError::BadWire(_))));
    }

    #[test]
    fn bad_permutation_detected() {
        let mut s = grid_2x3();
        s.node_at[0] = 5;
        assert_eq!(s.validate(), Err(SpecError::NotAPermutation));
    }

    #[test]
    fn track_counts() {
        let mut s = grid_2x3();
        s.row_wires.push(RowWire {
            row: 0,
            lo: 0,
            hi: 1,
            track: 3,
        });
        s.col_wires.push(ColWire {
            col: 2,
            lo: 0,
            hi: 1,
            track: 1,
        });
        assert_eq!(s.row_tracks(0), 4);
        assert_eq!(s.row_tracks(1), 0);
        assert_eq!(s.col_tracks(2), 2);
    }
}
