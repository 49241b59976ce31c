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
        self.validate_with(&mut Vec::new())
    }

    /// [`OrthogonalSpec::validate`] with its one per-wire buffer — a
    /// `u32` wire index per wire — lent by the caller. The realizers
    /// lend a pass-scratch vector that placement overwrites, so once
    /// the scratch has grown, validation allocates nothing per wire.
    pub(crate) fn validate_with(&self, order: &mut Vec<u32>) -> Result<(), SpecError> {
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
        // per-(line, track) disjointness, one line at a time: rows
        // first, then columns
        let mut lines = LineSpans {
            start: Vec::new(),
            order,
            cur: Vec::new(),
            prev: Vec::new(),
            sorted: Vec::new(),
        };
        lines.first_overlap("row", self.rows, &self.row_wires, |w| {
            (w.row, (w.track, w.lo, w.hi))
        })?;
        lines.first_overlap("col", self.cols, &self.col_wires, |w| {
            (w.col, (w.track, w.lo, w.hi))
        })?;
        Ok(())
    }

    /// Panic with context if invalid.
    pub fn assert_valid(&self) {
        self.assert_valid_with(&mut Vec::new());
    }

    /// [`OrthogonalSpec::assert_valid`] on a lent index buffer (see
    /// [`OrthogonalSpec::validate_with`]).
    pub(crate) fn assert_valid_with(&self, order: &mut Vec<u32>) {
        if let Err(e) = self.validate_with(order) {
            panic!("orthogonal spec '{}' invalid: {e:?}", self.name);
        }
    }
}

/// One line's `(track, lo, hi)` spans.
type Spans = Vec<(usize, usize, usize)>;

/// Buffers of the by-line overlap check: one lent `u32` wire index per
/// wire plus a few line-sized span lists, so no per-wire span copy is
/// ever held.
struct LineSpans<'a> {
    /// `start[l]..start[l + 1]` indexes line `l`'s wires in `order`.
    start: Vec<u32>,
    /// Wire indices bucketed by line, in index order within a line.
    order: &'a mut Vec<u32>,
    /// The line being checked, as gathered.
    cur: Spans,
    /// The last checked non-empty line, as gathered — known clean, so
    /// equal spans on any later line, in either direction, are too.
    prev: Spans,
    /// `cur`, sorted for the scan.
    sorted: Spans,
}

impl LineSpans<'_> {
    /// The first overlap among one direction's wires, in `(line,
    /// track)` order and then `(lo, hi)` order within it: two spans of
    /// one track overlap when the later one starts before the earlier
    /// one ends (touching endpoints are legal). `key` gives a wire's
    /// line (`< lines`, already range-checked) and `(track, lo, hi)`.
    ///
    /// Wires are bucketed by line with a counting sort, then each line
    /// is sorted and scanned on its own. A line whose gathered spans
    /// equal the previous non-empty line's is skipped: that line was
    /// clean, or the check would have stopped there. Product specs lay
    /// every row out as a copy of one collinear layout, so most lines
    /// are skipped.
    fn first_overlap<W>(
        &mut self,
        kind: &str,
        lines: usize,
        wires: &[W],
        key: impl Fn(&W) -> (usize, (usize, usize, usize)),
    ) -> Result<(), SpecError> {
        u32::try_from(wires.len()).expect("fewer than 2^32 wires per direction");
        // counting sort, shifted by one: count into start[l + 2], so
        // that after the prefix sum start[l + 1] is line l's first
        // slot, and after placement start[l]..start[l + 1] is line l
        self.start.clear();
        self.start.resize(lines + 2, 0);
        for w in wires {
            self.start[key(w).0 + 2] += 1;
        }
        for l in 2..self.start.len() {
            self.start[l] += self.start[l - 1];
        }
        self.order.clear();
        self.order.resize(wires.len(), 0);
        for (i, w) in wires.iter().enumerate() {
            let slot = &mut self.start[key(w).0 + 1];
            self.order[*slot as usize] = i as u32;
            *slot += 1;
        }
        for line in 0..lines {
            let idx = &self.order[self.start[line] as usize..self.start[line + 1] as usize];
            if idx.is_empty() {
                continue;
            }
            self.cur.clear();
            self.cur
                .extend(idx.iter().map(|&i| key(&wires[i as usize]).1));
            if self.cur == self.prev {
                continue;
            }
            self.sorted.clear();
            self.sorted.extend_from_slice(&self.cur);
            self.sorted.sort_unstable();
            for pair in self.sorted.windows(2) {
                let ((track, lo, hi), (track2, lo2, hi2)) = (pair[0], pair[1]);
                if track == track2 && lo2 < hi {
                    return Err(SpecError::TrackOverlap(format!(
                        "{kind} {line} track {track}: {:?} vs {:?}",
                        (lo, hi),
                        (lo2, hi2)
                    )));
                }
            }
            std::mem::swap(&mut self.cur, &mut self.prev);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlv_core::rng::Rng;
    use mlv_core::{mlv_proptest, prop_assert_eq};

    /// Reference validator of the differential test: the same range
    /// checks, then one global sort of `(line, track, lo, hi)` per
    /// direction, compared neighbour to neighbour.
    fn reference_validate(spec: &OrthogonalSpec) -> Result<(), SpecError> {
        let n = spec.rows * spec.cols;
        let mut seen = vec![false; n];
        if spec.node_at.len() != n {
            return Err(SpecError::NotAPermutation);
        }
        for &x in &spec.node_at {
            if (x as usize) >= n || seen[x as usize] {
                return Err(SpecError::NotAPermutation);
            }
            seen[x as usize] = true;
        }
        for w in &spec.row_wires {
            if w.row >= spec.rows || w.lo >= w.hi || w.hi >= spec.cols {
                return Err(SpecError::BadWire(format!("{w:?}")));
            }
        }
        for w in &spec.col_wires {
            if w.col >= spec.cols || w.lo >= w.hi || w.hi >= spec.rows {
                return Err(SpecError::BadWire(format!("{w:?}")));
            }
        }
        for w in &spec.jog_wires {
            if w.a.0 >= spec.rows
                || w.b.0 >= spec.rows
                || w.a.1 >= spec.cols
                || w.b.1 >= spec.cols
                || w.a.0 == w.b.0
            {
                return Err(SpecError::BadWire(format!("{w:?}")));
            }
        }
        let mut spans: Vec<(usize, usize, usize, usize)> = spec
            .row_wires
            .iter()
            .map(|w| (w.row, w.track, w.lo, w.hi))
            .collect();
        reference_first_overlap(&mut spans, "row")?;
        spans.clear();
        spans.extend(spec.col_wires.iter().map(|w| (w.col, w.track, w.lo, w.hi)));
        reference_first_overlap(&mut spans, "col")
    }

    fn reference_first_overlap(
        spans: &mut [(usize, usize, usize, usize)],
        kind: &str,
    ) -> Result<(), SpecError> {
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

    /// A clean line of `(track, lo, hi)` spans over `len` positions:
    /// each track is a chain of touching or disjoint spans.
    fn clean_line(rng: &mut Rng, len: usize) -> Vec<(usize, usize, usize)> {
        let mut spans = Vec::new();
        for track in 0..rng.gen_range_usize(0..4) {
            let mut at = rng.gen_range_usize(0..len);
            while at + 1 < len && rng.gen_bool(0.7) {
                let hi = rng.gen_range_usize(at + 1..len);
                spans.push((track, at, hi));
                at = hi + rng.gen_range_usize(0..2);
            }
        }
        spans
    }

    /// Lines of one direction: runs of equal lines, empty lines, lines
    /// one span away from their predecessor (moved, retracked or added;
    /// often an overlap), and fresh lines; some lines' spans are
    /// shuffled.
    fn random_lines(rng: &mut Rng, lines: usize, len: usize) -> Vec<Vec<(usize, usize, usize)>> {
        let mut out: Vec<Vec<(usize, usize, usize)>> = Vec::with_capacity(lines);
        let template = clean_line(rng, len);
        for _ in 0..lines {
            let prev = out.last().cloned().unwrap_or_else(|| template.clone());
            let mut line = match rng.gen_range_usize(0..9) {
                0 => Vec::new(),
                1 => clean_line(rng, len),
                2 | 3 if !prev.is_empty() => {
                    // one span moved: often an overlap on its track
                    let mut l = prev.clone();
                    let i = rng.gen_range_usize(0..l.len());
                    let lo = rng.gen_range_usize(0..len - 1);
                    l[i] = (l[i].0, lo, rng.gen_range_usize(lo + 1..len));
                    l
                }
                5 if !prev.is_empty() => {
                    // one span moved to another track, same place: the
                    // (lo, hi) sequence repeats but the tracks differ
                    let mut l = prev.clone();
                    let i = rng.gen_range_usize(0..l.len());
                    l[i].0 = (l[i].0 + rng.gen_range_usize(1..3)) % 3;
                    l
                }
                4 => {
                    // one extra span, on a used track when there is one
                    let mut l = prev.clone();
                    let lo = rng.gen_range_usize(0..len - 1);
                    let track = l.first().map_or(0, |s| s.0);
                    l.push((track, lo, rng.gen_range_usize(lo + 1..len)));
                    l
                }
                _ => prev.clone(),
            };
            if rng.gen_bool(0.2) {
                for i in (1..line.len()).rev() {
                    line.swap(i, rng.gen_range_usize(0..i + 1));
                }
            }
            out.push(line);
        }
        out
    }

    /// Flatten lines into `(line, track, lo, hi)` wires: in line order,
    /// reversed, or shuffled across lines.
    fn flatten(rng: &mut Rng, lines: &[Vec<(usize, usize, usize)>]) -> Vec<[usize; 4]> {
        let mut wires: Vec<[usize; 4]> = lines
            .iter()
            .enumerate()
            .flat_map(|(l, spans)| spans.iter().map(move |&(t, lo, hi)| [l, t, lo, hi]))
            .collect();
        match rng.gen_range_usize(0..4) {
            0 => wires.reverse(),
            1 => {
                for i in (1..wires.len()).rev() {
                    wires.swap(i, rng.gen_range_usize(0..i + 1));
                }
            }
            _ => {}
        }
        wires
    }

    fn random_spec(seed: u64) -> OrthogonalSpec {
        let mut rng = Rng::seed_from_u64(seed);
        let rows = rng.gen_range_usize(1..7);
        let cols = rng.gen_range_usize(2..8);
        let mut s = OrthogonalSpec::new("random", rows, cols);
        let row_lines = random_lines(&mut rng, rows, cols);
        s.row_wires = flatten(&mut rng, &row_lines)
            .into_iter()
            .map(|[row, track, lo, hi]| RowWire { row, lo, hi, track })
            .collect();
        if rows >= 2 {
            let col_lines = random_lines(&mut rng, cols, rows);
            s.col_wires = flatten(&mut rng, &col_lines)
                .into_iter()
                .map(|[col, track, lo, hi]| ColWire { col, lo, hi, track })
                .collect();
            for _ in 0..rng.gen_range_usize(0..3) {
                let a = (rng.gen_range_usize(0..rows), rng.gen_range_usize(0..cols));
                let b = (
                    (a.0 + rng.gen_range_usize(1..rows)) % rows,
                    rng.gen_range_usize(0..cols),
                );
                s.jog_wires.push(JogWire { a, b });
            }
        }
        // rarely, a bad wire or a broken permutation, which must win
        // over any overlap
        match rng.gen_range_usize(0..24) {
            0 if !s.row_wires.is_empty() => {
                let i = rng.gen_range_usize(0..s.row_wires.len());
                s.row_wires[i].hi = s.row_wires[i].lo;
            }
            1 if !s.col_wires.is_empty() => {
                let i = rng.gen_range_usize(0..s.col_wires.len());
                s.col_wires[i].hi = rows;
            }
            2 => s.jog_wires.push(JogWire {
                a: (0, 0),
                b: (0, cols - 1),
            }),
            3 => s.node_at[rng.gen_range_usize(0..rows * cols)] = (rows * cols) as NodeId,
            4 if rows * cols > 1 => s.node_at[0] = s.node_at[1],
            _ => {}
        }
        s
    }

    mlv_proptest! {
        cases = 2048;

        /// The by-line validator returns exactly the reference's
        /// verdict: the same error kind, the same first overlap, the
        /// same message.
        #[test]
        fn by_line_validator_matches_sort_reference(seed in 0u64..u64::MAX) {
            let spec = random_spec(seed);
            prop_assert_eq!(spec.validate(), reference_validate(&spec));
        }
    }

    #[test]
    fn random_specs_cover_every_verdict() {
        let mut verdicts = [0usize; 4];
        for seed in 0..2048 {
            let i = match random_spec(seed).validate() {
                Ok(()) => 0,
                Err(SpecError::NotAPermutation) => 1,
                Err(SpecError::BadWire(_)) => 2,
                Err(SpecError::TrackOverlap(_)) => 3,
            };
            verdicts[i] += 1;
        }
        assert!(verdicts.iter().all(|&n| n >= 20), "{verdicts:?}");
    }

    #[test]
    fn a_repeated_line_with_one_moved_span_is_checked() {
        // rows 0, 1 and 3 repeat the clean line; row 2 moves one span
        // onto its track neighbour, and the wires arrive out of order
        let mut s = OrthogonalSpec::new("t", 4, 6);
        let line = [(0, 0, 2), (0, 2, 5), (1, 1, 4)];
        for r in [3, 0, 1] {
            s.row_wires
                .extend(line.iter().map(|&(track, lo, hi)| row(r, lo, hi, track)));
        }
        s.assert_valid();
        s.row_wires
            .extend([row(2, 0, 2, 0), row(2, 1, 5, 0), row(2, 1, 4, 1)]);
        assert_eq!(
            s.validate(),
            Err(SpecError::TrackOverlap(
                "row 2 track 0: (0, 2) vs (1, 5)".into()
            ))
        );
        assert_eq!(s.validate(), reference_validate(&s));
    }

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
