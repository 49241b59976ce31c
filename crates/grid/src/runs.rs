//! Wires as runs: the maximal straight stretches of a wire's grid
//! points, and the routine that finds where stretches meet.
//!
//! A wire occupies its first corner and, for each segment, the steps
//! after the segment's start, so a wire of `c` corners is at most `c`
//! stretches however long its segments are. An axis-parallel stretch is
//! a [`Run`]. A segment that changes more than one coordinate is
//! illegal, but its points still occupy the grid: they form a diagonal
//! [`Stretch`], which overshoots the segment's end corner.
//!
//! [`meetings`] finds the points that stretches share in O(S log S + k)
//! for S stretches and k reported meetings, never visiting a point
//! otherwise. Stretches of two different directions can only meet in
//! the plane they span, so one orthogonal segment-intersection sweep
//! (Bentley and Ottmann, 1979) per pair of directions finds every
//! crossing: x/y runs at each z, x/z runs at each y, y/z runs at each x.
//! The x/z and y/z sweeps are where vias meet the planar runs they pass
//! through. A pair with a diagonal direction is swept in a [`Frame`]
//! whose axes are the two directions. The stretches of one line enter a
//! sweep in order of their start, so collinear stretches overlap where
//! one starts before the furthest end of those entered before it.
//!
//! The sweeps take their runs from [`Runs`]: one array per axis, so a
//! run does not carry its axis, in coordinates of a [`Width`]. Where the
//! wires span less than 2³² on every axis a coordinate is a `u32` offset
//! from the wires' minimum corner, and a run is 20 bytes; elsewhere it is
//! an absolute `i64`. Each sweep sorts its two arrays by one packed key
//! ([`sort_by_packed_key`]) and keeps the runs it has entered in a
//! bitmap where offsets take at most 16 bits ([`Small`]), in a tree
//! otherwise. Meeting points are translated back, so a sink sees the
//! same points at either width.

use crate::geom::Point3;
use std::collections::btree_map::{BTreeMap, Entry};
use std::ops::ControlFlow;

/// A grid point as `[x, y, z]`, so that axes can be indexed.
pub(crate) type Coord = [i64; 3];

pub(crate) fn coord(p: Point3) -> Coord {
    [p.x, p.y, p.z as i64]
}

pub(crate) fn point(c: Coord) -> Point3 {
    Point3::new(c[0], c[1], c[2] as i32)
}

/// The two axes other than `axis`, ascending.
const fn others(axis: u8) -> [usize; 2] {
    match axis {
        0 => [1, 2],
        1 => [0, 2],
        _ => [0, 1],
    }
}

/// The unit step along `axis`.
fn unit(axis: usize) -> Coord {
    let mut step = [0; 3];
    step[axis] = 1;
    step
}

/// An axis-parallel run of a wire's path: the grid points `lo..=hi`
/// along `axis` on the line that `line` fixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Run {
    /// 0, 1 or 2 for a run along x, y or z.
    pub axis: u8,
    /// The two other coordinates, in `(x, y, z)` order.
    pub line: [i64; 2],
    pub lo: i64,
    pub hi: i64,
    /// Index of the wire the run belongs to.
    pub wire: u32,
}

impl Run {
    /// The run's point at coordinate `t` along its axis.
    pub fn at(&self, t: i64) -> Coord {
        let [a, b] = others(self.axis);
        let mut c = [0; 3];
        c[self.axis as usize] = t;
        c[a] = self.line[0];
        c[b] = self.line[1];
        c
    }

    /// The run's extent on each axis. Two runs share a grid point
    /// exactly when their extents overlap on every axis.
    fn bounds(&self) -> [(i64, i64); 3] {
        let [lo, hi] = [self.at(self.lo), self.at(self.hi)];
        [0, 1, 2].map(|k| (lo[k], hi[k]))
    }

    /// The part of this run that `other` covers too, as a range along
    /// this run's axis.
    pub fn shared(&self, other: &Run) -> Option<(i64, i64)> {
        let (a, b) = (self.bounds(), other.bounds());
        let both = [0, 1, 2].map(|k| (a[k].0.max(b[k].0), a[k].1.min(b[k].1)));
        both.iter()
            .all(|(lo, hi)| lo <= hi)
            .then_some(both[self.axis as usize])
    }
}

/// The coordinates of the runs in a [`Runs`]: `u32` offsets from an
/// origin, or absolute `i64`s, which ignore the origin.
pub(crate) trait Width: Copy + Ord {
    /// Two coordinates packed into one key that orders as the pair.
    type Key: Radix;

    /// What a sweep keeps its long runs in.
    type Active: Active<Self>;

    /// The absolute coordinate `c` past `origin`, if it fits.
    fn from_abs(c: i64, origin: i64) -> Option<Self>;

    /// The absolute coordinate.
    fn to_abs(self, origin: i64) -> i64;

    /// `a` and `b` packed into a key that orders as the pair, where `b`
    /// is less than `2^shift`.
    fn pack(a: Self, b: Self, shift: u32) -> Self::Key;

    /// An empty active set for offsets of `bits` bits.
    fn active(bits: u32) -> Self::Active;
}

impl Width for u32 {
    type Key = u64;
    type Active = Small;

    fn from_abs(c: i64, origin: i64) -> Option<u32> {
        c.checked_sub(origin).and_then(|d| u32::try_from(d).ok())
    }

    fn to_abs(self, origin: i64) -> i64 {
        origin + i64::from(self)
    }

    fn pack(a: u32, b: u32, shift: u32) -> u64 {
        u64::from(a) << shift | u64::from(b)
    }

    fn active(bits: u32) -> Small {
        Small::new(bits)
    }
}

impl Width for i64 {
    type Key = u128;
    type Active = Tree<i64>;

    fn from_abs(c: i64, _: i64) -> Option<i64> {
        Some(c)
    }

    fn to_abs(self, _: i64) -> i64 {
        self
    }

    fn pack(a: i64, b: i64, _: u32) -> u128 {
        // flipping the sign bit orders `i64`s as `u64`s
        let flip = |v: i64| u128::from(v as u64 ^ 1 << 63);
        flip(a) << 64 | flip(b)
    }

    fn active(_: u32) -> Tree<i64> {
        Tree::default()
    }
}

/// A run in its axis's array of a [`Runs`]: the points `lo..=hi` along
/// the axis on the line that `line` fixes, in coordinates of width `W`.
#[derive(Clone, Copy)]
pub(crate) struct AxisRun<W> {
    /// The two other coordinates, in `(x, y, z)` order.
    pub line: [W; 2],
    pub lo: W,
    pub hi: W,
    /// Index of the wire the run belongs to.
    pub wire: u32,
}

/// The runs of many wires, one array per axis.
pub(crate) struct Runs<W> {
    /// The runs along x, y and z.
    axes: [Vec<AxisRun<W>>; 3],
    /// The point that `u32` coordinates are offsets from.
    origin: Coord,
    /// Per axis, the bits an offset takes.
    bits: [u32; 3],
    /// Working space of the sorts.
    aux: Vec<AxisRun<W>>,
}

/// No runs, at the origin `[0, 0, 0]`.
impl<W> Default for Runs<W> {
    fn default() -> Self {
        Runs {
            axes: Default::default(),
            origin: [0; 3],
            bits: [32; 3],
            aux: Vec::new(),
        }
    }
}

impl<W: Width> Runs<W> {
    /// Room for `capacity[k]` runs along axis `k`, whose coordinates lie
    /// between the corners `min` and `max`.
    pub fn with_capacity([min, max]: [Coord; 2], capacity: [usize; 3]) -> Runs<W> {
        let bits = |k: usize| u64::BITS - max[k].abs_diff(min[k]).leading_zeros();
        Runs {
            axes: capacity.map(Vec::with_capacity),
            origin: min,
            bits: [0, 1, 2].map(|k| bits(k).min(32)),
            aux: Vec::new(),
        }
    }

    /// Add `run`, which must lie where width `W` reaches from the origin.
    pub fn push(&mut self, run: &Run) {
        let axis = run.axis as usize;
        let at = |c: i64, k: usize| W::from_abs(c, self.origin[k]).expect("a run within reach");
        let [a, b] = others(run.axis);
        let run = AxisRun {
            line: [at(run.line[0], a), at(run.line[1], b)],
            lo: at(run.lo, axis),
            hi: at(run.hi, axis),
            wire: run.wire,
        };
        self.axes[axis].push(run);
    }

    pub fn clear(&mut self) {
        self.axes.iter_mut().for_each(Vec::clear);
    }

    /// The runs along `axis` as stretches.
    fn stretches(&self, axis: usize) -> impl Iterator<Item = Stretch> + '_ {
        let [a, b] = others(axis as u8);
        let o = self.origin;
        self.axes[axis].iter().map(move |r| {
            let mut start = [0; 3];
            start[axis] = r.lo.to_abs(o[axis]);
            start[a] = r.line[0].to_abs(o[a]);
            start[b] = r.line[1].to_abs(o[b]);
            Stretch {
                start,
                step: unit(axis),
                len: r.hi.to_abs(o[axis]).abs_diff(start[axis]).saturating_add(1),
            }
        })
    }
}

/// The grid points `start + t·step` for `0 ≤ t < len`. `step` is a
/// lexicographically positive unit step (components −1, 0 or 1, the
/// first nonzero one +1), so the points come in increasing `(x, y, z)`
/// order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Stretch {
    pub start: Coord,
    pub step: Coord,
    pub len: u64,
}

impl Stretch {
    fn single(c: Coord) -> Stretch {
        Stretch {
            start: c,
            step: [1, 0, 0],
            len: 1,
        }
    }

    /// The stretch from `start` to `end`, which lie on one line along
    /// the unit step `step`.
    fn ends([start, end]: [Coord; 2], step: Coord) -> Stretch {
        let steps = (0..3).map(|k| start[k].abs_diff(end[k])).max();
        Stretch {
            start,
            step,
            len: steps.unwrap_or(0).saturating_add(1),
        }
    }

    /// The points `a + t·s` for `t = first..=n`, where `s` is the unit
    /// step from `a` towards `b` and `n = |b − a|₁`: a segment as the
    /// grid model walks it, which overshoots `b` unless the segment is
    /// axis-aligned. Points past the `i64` range wrap rather than panic.
    fn walk(a: Coord, b: Coord, first: u64) -> Stretch {
        let s = [0, 1, 2].map(|k| b[k].cmp(&a[k]) as i64);
        let n = (0..3).fold(0u64, |n, k| n.wrapping_add(a[k].abs_diff(b[k])));
        let len = n.wrapping_sub(first).wrapping_add(1);
        if s.iter().find(|&&v| v != 0) == Some(&1) {
            Stretch {
                start: advance(a, s, first),
                step: s,
                len,
            }
        } else {
            Stretch {
                start: advance(a, s, n),
                step: s.map(|v| -v),
                len,
            }
        }
    }

    pub fn at(&self, t: u64) -> Coord {
        advance(self.start, self.step, t)
    }

    /// The `k` with `d = k·step`, if there is one.
    fn multiple(d: [i128; 3], step: Coord) -> Option<i128> {
        let mut k = None;
        for (dc, sc) in d.into_iter().zip(step) {
            if sc == 0 {
                if dc != 0 {
                    return None;
                }
            } else if *k.get_or_insert(dc * sc as i128) != dc * sc as i128 {
                return None;
            }
        }
        k
    }

    pub fn contains(&self, c: Coord) -> bool {
        let d = [0, 1, 2].map(|k| c[k] as i128 - self.start[k] as i128);
        Self::multiple(d, self.step).is_some_and(|t| (0..self.len as i128).contains(&t))
    }
}

/// `a + t·step`, wrapping past the `i64` range.
fn advance(a: Coord, step: Coord, t: u64) -> Coord {
    [0, 1, 2].map(|k| a[k].wrapping_add((t as i64).wrapping_mul(step[k])))
}

/// Split a wire's corners into its stretches in path order, for wire
/// index `wire`. Runs go to `runs`, each with whether path order climbs
/// its axis; consecutive segments in one direction make one run.
/// Diagonal stretches go to `diagonals`. Repeated corners are skipped,
/// as [`crate::WirePath::new`] collapses them. Returns the index, in the
/// collapsed corner list, of the first segment that is not
/// axis-aligned.
pub(crate) fn split(
    corners: &[Point3],
    wire: u32,
    runs: &mut Vec<(Run, bool)>,
    diagonals: &mut Vec<(Stretch, u32)>,
) -> Option<usize> {
    let (&first, rest) = corners.split_first()?;
    let mut prev = coord(first);
    let (mut bad, mut segments) = (None, 0);
    // the direction of the run last pushed, while it can still grow
    let mut open: Option<(u8, bool)> = None;
    for &c in rest {
        let next = coord(c);
        if next == prev {
            continue;
        }
        // the first t of the walk: the first corner is occupied too
        let from = if segments == 0 { 0 } else { 1 };
        let axis = match [0, 1, 2].map(|k| next[k] != prev[k]) {
            [true, false, false] => Some(0u8),
            [false, true, false] => Some(1),
            [false, false, true] => Some(2),
            _ => None,
        };
        if let Some(axis) = axis {
            let k = axis as usize;
            let up = next[k] > prev[k];
            let (lo, hi) = if up {
                (prev[k] + from as i64, next[k])
            } else {
                (next[k], prev[k] - from as i64)
            };
            match runs.last_mut() {
                Some((run, _)) if open == Some((axis, up)) => {
                    run.lo = run.lo.min(lo);
                    run.hi = run.hi.max(hi);
                }
                _ => {
                    let line = others(axis).map(|o| prev[o]);
                    let run = Run {
                        axis,
                        line,
                        lo,
                        hi,
                        wire,
                    };
                    runs.push((run, up));
                }
            }
            open = Some((axis, up));
        } else {
            bad.get_or_insert(segments);
            diagonals.push((Stretch::walk(prev, next, from), wire));
            open = None;
        }
        segments += 1;
        prev = next;
    }
    if segments == 0 {
        runs.push((
            Run {
                axis: 0,
                line: [prev[1], prev[2]],
                lo: prev[0],
                hi: prev[0],
                wire,
            },
            true,
        ));
    }
    bad
}

/// Receives the places where stretches meet, from [`meetings`].
pub(crate) trait Sink {
    /// Take one stretch that two stretches share (often a single
    /// point); `Break` ends the search.
    fn meet(&mut self, shared: Stretch) -> ControlFlow<()>;

    /// Meetings lexicographically past this point are of no interest.
    fn bound(&self) -> Option<Coord> {
        None
    }
}

/// Report to `sink` every stretch of a line that two stretches share
/// and every point where stretches of two different directions cross.
/// A place where stretches meet may be reported more than once.
/// Reorders the runs.
pub(crate) fn meetings<W: Width>(
    runs: &mut Runs<W>,
    diagonals: &[(Stretch, u32)],
    sink: &mut impl Sink,
) -> ControlFlow<()> {
    let Runs {
        axes: [xs, ys, zs],
        aux,
        ..
    } = runs;
    let at = (runs.origin, runs.bits);
    sweep_runs(xs, ys, [0, 1], at, aux, sink)?;
    sweep_runs(xs, zs, [0, 2], at, aux, sink)?;
    sweep_runs(ys, zs, [1, 2], at, aux, sink)?;
    if diagonals.is_empty() {
        return ControlFlow::Continue(());
    }
    diagonal_meetings(runs, diagonals, sink)
}

/// A sort key of bytes, the least significant first.
pub(crate) trait Radix: Copy + Ord {
    const BYTES: usize;

    fn byte(self, i: usize) -> u8;
}

impl Radix for u64 {
    const BYTES: usize = 8;

    fn byte(self, i: usize) -> u8 {
        (self >> (8 * i)) as u8
    }
}

impl Radix for u128 {
    const BYTES: usize = 16;

    fn byte(self, i: usize) -> u8 {
        (self >> (8 * i)) as u8
    }
}

/// Below this length [`sort_by_packed_key`] sorts by comparison. On
/// 20-byte runs the two sorts cost the same at about 64 runs with
/// two-byte keys and 128 with three-byte keys; at 512 the radix sort
/// takes two thirds of the time, and at 16k a third.
const SMALL_SORT: usize = 128;

/// Sort `v` by `key`, unstably; `aux` is working space. A long slice is
/// sorted by a least-significant-digit radix sort over the key's bytes,
/// which skips a byte that every key shares: offsets from a layout's
/// minimum corner leave most bytes of a packed key zero.
pub(crate) fn sort_by_packed_key<T: Copy, K: Radix>(
    v: &mut [T],
    key: impl Fn(&T) -> K,
    aux: &mut Vec<T>,
) {
    let n = v.len();
    if n < SMALL_SORT {
        v.sort_unstable_by_key(key);
        return;
    }
    // one histogram per byte, counted in one pass
    let mut counts = vec![[0usize; 256]; K::BYTES];
    for t in v.iter() {
        let k = key(t);
        for (d, c) in counts.iter_mut().enumerate() {
            c[usize::from(k.byte(d))] += 1;
        }
    }
    if aux.len() < n {
        aux.resize(n, v[0]);
    }
    let aux = &mut aux[..n];
    let first = key(&v[0]);
    let mut in_aux = false;
    for (d, c) in counts.iter().enumerate() {
        if c[usize::from(first.byte(d))] == n {
            continue; // every key has this byte
        }
        let mut at = [0usize; 256];
        let mut sum = 0;
        for (a, &count) in at.iter_mut().zip(c) {
            *a = sum;
            sum += count;
        }
        let (from, to) = if in_aux {
            (&*aux, &mut *v)
        } else {
            (&*v, &mut *aux)
        };
        for t in from {
            let b = usize::from(key(t).byte(d));
            to[at[b]] = *t;
            at[b] += 1;
        }
        in_aux = !in_aux;
    }
    if in_aux {
        v.copy_from_slice(aux);
    }
}

/// Sweep the runs along two axes: `long` runs along axis `la`, `cross`
/// runs along `ca`, in each plane of the third axis. Their coordinates
/// are offsets from `origin` of `bits` bits per axis.
fn sweep_runs<W: Width>(
    long: &mut [AxisRun<W>],
    cross: &mut [AxisRun<W>],
    [la, ca]: [usize; 2],
    (origin, bits): (Coord, [u32; 3]),
    aux: &mut Vec<AxisRun<W>>,
    sink: &mut impl Sink,
) -> ControlFlow<()> {
    let p = 3 - la - ca;
    // where a run's `line` holds the plane, and its other coordinate
    let place = |axis: usize| {
        let lp = usize::from(others(axis as u8)[1] == p);
        (lp, 1 - lp)
    };
    let ((lp, lk), (cp, ck)) = (place(la), place(ca));
    // a long run starts, and a cross run lies, at a place along `la`
    let shift = bits[la];
    sort_by_packed_key(long, |r| W::pack(r.line[lp], r.lo, shift), aux);
    sort_by_packed_key(cross, |r| W::pack(r.line[cp], r.line[ck], shift), aux);
    // runs of one cross line are rare and few: order them by start
    for line in cross.chunk_by_mut(|a, b| a.line == b.line) {
        if line.len() > 1 {
            line.sort_unstable_by_key(|r| r.lo);
        }
    }
    let seg = |plane: usize, key: usize| {
        move |r: &AxisRun<W>| Seg {
            plane: r.line[plane],
            key: r.line[key],
            lo: r.lo,
            hi: r.hi,
        }
    };
    let point = |plane: W, along: W, across: W| {
        let mut c = [0; 3];
        c[p] = plane.to_abs(origin[p]);
        c[la] = along.to_abs(origin[la]);
        c[ca] = across.to_abs(origin[ca]);
        c
    };
    let steps = [unit(la), unit(ca)];
    let mut active = W::active(bits[ca]);
    let segs = (seg(lp, lk), seg(cp, ck));
    sweep(long, cross, segs, point, steps, &mut active, sink)
}

/// One stretch as a sweep over a family of planes sees it: its plane,
/// its key, and its extent `lo..=hi` along its own direction. A long
/// stretch runs along the sweep and its key is its place across it; a
/// cross stretch runs across the sweep and its key is its place along
/// it.
#[derive(Clone, Copy)]
struct Seg<T> {
    plane: T,
    key: T,
    lo: T,
    hi: T,
}

/// The orthogonal segment-intersection sweep over one family of planes.
/// `seg` views the `long` and `cross` stretches; `long` must be sorted
/// by plane and start, `cross` by plane, key and start. Each plane is
/// swept in order, keeping the long stretches entered so far in
/// `active`, keyed by their place across the sweep, and each cross
/// stretch meets the keys it spans. `point(plane, along, across)` is the grid point at those
/// coordinates, and `steps` are the unit steps of long and cross
/// stretches.
///
/// Stretches of one line enter the sweep in order of their start: long
/// ones share a key, cross ones a place along the sweep. So a stretch
/// overlaps its line where it starts before the furthest end of those
/// entered before it, and collinear overlaps are found on the way.
fn sweep<T: Copy + Ord, L, C>(
    long: &[L],
    cross: &[C],
    seg: (impl Fn(&L) -> Seg<T>, impl Fn(&C) -> Seg<T>),
    point: impl Fn(T, T, T) -> Coord,
    steps: [Coord; 2],
    active: &mut impl Active<T>,
    sink: &mut impl Sink,
) -> ControlFlow<()> {
    // the cross stretch reaching furthest on the current cross line
    let mut reach: Option<Seg<T>> = None;
    let (mut l, mut c, mut plane) = (0, 0, None);
    loop {
        // the next event: a long stretch's start, or a cross stretch,
        // which comes after the long ones starting at its place
        let (s, is_long) = match (long.get(l).map(&seg.0), cross.get(c).map(&seg.1)) {
            (None, None) => return ControlFlow::Continue(()),
            (Some(r), Some(q)) if (q.plane, q.key) < (r.plane, r.lo) => (q, false),
            (Some(r), _) => (r, true),
            (None, Some(q)) => (q, false),
        };
        if plane != Some(s.plane) {
            active.clear();
            plane = Some(s.plane);
        }
        if is_long {
            l += 1;
            match active.enter(s.key, s.hi) {
                Some(end) if end >= s.lo => {
                    let shared = [s.lo, s.hi.min(end)].map(|t| point(s.plane, t, s.key));
                    sink.meet(Stretch::ends(shared, steps[0]))?;
                }
                _ => {}
            }
            continue;
        }
        c += 1;
        match reach {
            Some(p) if (p.plane, p.key) == (s.plane, s.key) => {
                if p.hi >= s.lo {
                    let shared = [s.lo, s.hi.min(p.hi)].map(|t| point(s.plane, s.key, t));
                    sink.meet(Stretch::ends(shared, steps[1]))?;
                }
                if s.hi > p.hi {
                    reach = Some(s);
                }
            }
            _ => reach = Some(s),
        }
        let mut flow = ControlFlow::Continue(());
        active.reaching(s.lo, s.hi, s.key, |across| {
            // crossings ascend with `across`, as steps are positive
            let hit = point(s.plane, s.key, across);
            if sink.bound().is_some_and(|b| hit > b) {
                return ControlFlow::Break(());
            }
            flow = sink.meet(Stretch::single(hit));
            flow
        });
        flow?;
    }
}

/// The long stretches a sweep has entered in its current plane: per key
/// across the sweep, the furthest end along it of those at that key.
pub(crate) trait Active<T> {
    fn clear(&mut self);

    /// Enter a stretch ending at `end` at `key`. Returns the furthest end
    /// entered at `key` before it, if any.
    fn enter(&mut self, key: T, end: T) -> Option<T>;

    /// Call `f` on each key in `lo..=hi` whose end is at `at` or past it,
    /// ascending, until `f` breaks. A key passed whose end is before `at`
    /// is dropped: the cross stretches come in order of `at`.
    fn reaching(&mut self, lo: T, hi: T, at: T, f: impl FnMut(T) -> ControlFlow<()>);
}

/// An active set of any keys, in a tree.
pub(crate) struct Tree<T> {
    ends: BTreeMap<T, T>,
    dropped: Vec<T>,
}

impl<T> Default for Tree<T> {
    fn default() -> Self {
        Tree {
            ends: BTreeMap::new(),
            dropped: Vec::new(),
        }
    }
}

impl<T: Copy + Ord> Active<T> for Tree<T> {
    fn clear(&mut self) {
        self.ends.clear();
    }

    fn enter(&mut self, key: T, end: T) -> Option<T> {
        match self.ends.entry(key) {
            Entry::Vacant(e) => {
                e.insert(end);
                None
            }
            Entry::Occupied(mut e) => {
                let before = *e.get();
                *e.get_mut() = before.max(end);
                Some(before)
            }
        }
    }

    fn reaching(&mut self, lo: T, hi: T, at: T, mut f: impl FnMut(T) -> ControlFlow<()>) {
        for (&key, &end) in self.ends.range(lo..=hi) {
            if end < at {
                self.dropped.push(key);
            } else if f(key).is_break() {
                break;
            }
        }
        for key in self.dropped.drain(..) {
            self.ends.remove(&key);
        }
    }
}

/// An active set of `u32` keys below 2¹⁶ in a bitmap, with their ends in
/// an array: no search, and nothing to allocate per plane. Wider keys go
/// to a tree, as the array takes 4 bytes per place across the sweep (at
/// 2¹⁸ nodes a bitmap of 20-bit keys checked no faster).
pub(crate) enum Small {
    Bitmap {
        /// Bit `k` is set while key `k` is active.
        words: Vec<u64>,
        ends: Vec<u32>,
        /// The keys entered in this plane, to clear.
        entered: Vec<u32>,
    },
    Tree(Tree<u32>),
}

impl Small {
    /// An empty set for keys of `bits` bits.
    fn new(bits: u32) -> Small {
        if bits > 16 {
            return Small::Tree(Tree::default());
        }
        Small::Bitmap {
            words: vec![0; (1usize << bits).div_ceil(64)],
            ends: vec![0; 1 << bits],
            entered: Vec::new(),
        }
    }
}

impl Active<u32> for Small {
    fn clear(&mut self) {
        match self {
            Small::Bitmap { words, entered, .. } => {
                for k in entered.drain(..) {
                    words[k as usize / 64] = 0;
                }
            }
            Small::Tree(t) => t.clear(),
        }
    }

    fn enter(&mut self, key: u32, end: u32) -> Option<u32> {
        match self {
            Small::Bitmap {
                words,
                ends,
                entered,
            } => {
                let (k, bit) = (key as usize, 1u64 << (key % 64));
                if words[k / 64] & bit == 0 {
                    words[k / 64] |= bit;
                    ends[k] = end;
                    entered.push(key);
                    return None;
                }
                let before = ends[k];
                ends[k] = before.max(end);
                Some(before)
            }
            Small::Tree(t) => t.enter(key, end),
        }
    }

    fn reaching(&mut self, lo: u32, hi: u32, at: u32, mut f: impl FnMut(u32) -> ControlFlow<()>) {
        let (words, ends) = match self {
            Small::Bitmap { words, ends, .. } => (words, ends),
            Small::Tree(t) => return t.reaching(lo, hi, at, f),
        };
        let (first, last) = (lo as usize / 64, hi as usize / 64);
        for (word, w) in words[first..=last].iter_mut().zip(first..) {
            // the bits `from..=to` of word `w` are those of `lo..=hi`
            let from = (lo as usize).max(64 * w) - 64 * w;
            let to = (hi as usize).min(64 * w + 63) - 64 * w;
            let mut bits = *word & (u64::MAX >> (63 - (to - from))) << from;
            while bits != 0 {
                let k = 64 * w + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if ends[k] < at {
                    *word &= !(1u64 << (k % 64));
                } else if f(k as u32).is_break() {
                    return;
                }
            }
        }
    }
}

/// Where diagonals meet runs and each other. Each diagonal direction
/// `b` present is swept against each axis, even one without runs, so
/// that the overlaps of `b`'s own diagonals are found too, and against
/// every diagonal direction before it.
fn diagonal_meetings<W: Width>(
    runs: &Runs<W>,
    diagonals: &[(Stretch, u32)],
    sink: &mut impl Sink,
) -> ControlFlow<()> {
    let mut steps: Vec<Coord> = diagonals.iter().map(|d| d.0.step).collect();
    steps.sort_unstable();
    steps.dedup();
    let along = |step: Coord| {
        diagonals
            .iter()
            .map(|d| d.0)
            .filter(move |d| d.step == step)
    };
    for (k, &b) in steps.iter().enumerate() {
        for axis in 0..3 {
            Frame::new(unit(axis), b).sweep(runs.stretches(axis), along(b), sink)?;
        }
        for &a in &steps[..k] {
            Frame::new(a, b).sweep(along(a), along(b), sink)?;
        }
    }
    ControlFlow::Continue(())
}

/// Coordinates in which stretches of two directions `a` and `b` are the
/// long and cross stretches of one sweep. With `n = a × b` and
/// `m = n·n`, a point `p` has `α = (b × n)·p`, `β = (n × a)·p` and
/// `γ = n·p`:
///
/// * a step along `a` adds `m` to α alone, and a step along `b` adds `m`
///   to β alone;
/// * so the two directions can meet only at one γ and one residue of α
///   and of β modulo `m`, which make one plane of the sweep;
/// * there `i = α div m` counts steps along `a` and `j = β div m` steps
///   along `b`;
/// * the rows `b × n`, `n × a` and `n` times the columns `a`, `b` and `n`
///   are `m` times the identity, so `p = (α·a + β·b + γ·n) / m`.
///
/// For two axes `m` is 1 and this is the frame of [`sweep_runs`], up to
/// the sign of γ. Runs are swept in place in their own `i64`
/// coordinates all the same: copying them into this frame made a check
/// take twice as long.
struct Frame {
    a: [i128; 3],
    b: [i128; 3],
    n: [i128; 3],
    /// The rows `b × n` and `n × a`, giving α and β.
    rows: [[i128; 3]; 2],
    m: i128,
}

fn cross_product(a: [i128; 3], b: [i128; 3]) -> [i128; 3] {
    [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ]
}

fn dot(a: [i128; 3], b: [i128; 3]) -> i128 {
    (0..3).map(|k| a[k] * b[k]).sum()
}

impl Frame {
    /// The frame of two distinct lexicographically positive unit steps,
    /// which are never parallel.
    fn new(a: Coord, b: Coord) -> Frame {
        let (a, b) = (a.map(i128::from), b.map(i128::from));
        let n = cross_product(a, b);
        Frame {
            a,
            b,
            n,
            rows: [cross_product(b, n), cross_product(n, a)],
            // at most 8 for unit steps, so residues fit in 4 bits
            m: dot(n, n),
        }
    }

    /// A stretch along `a` (`long`) or along `b` as the sweep sees it.
    /// The plane packs γ with the residues of α and β.
    fn seg(&self, s: &Stretch, long: bool) -> Seg<i128> {
        let p = s.start.map(i128::from);
        let [alpha, beta] = self.rows.map(|row| dot(row, p));
        let m = self.m;
        let plane = (dot(self.n, p) * 16 + alpha.rem_euclid(m)) * 16 + beta.rem_euclid(m);
        let (i, j) = (alpha.div_euclid(m), beta.div_euclid(m));
        let (key, lo) = if long { (j, i) } else { (i, j) };
        Seg {
            plane,
            key,
            lo,
            hi: lo + i128::from(s.len) - 1,
        }
    }

    /// The grid point at `i` steps along `a` and `j` along `b` in
    /// `plane`. Past the `i64` range it wraps, as [`Stretch::walk`] does.
    fn point(&self, plane: i128, i: i128, j: i128) -> Coord {
        let m = self.m;
        let gamma = plane.div_euclid(256);
        let alpha = i * m + plane.div_euclid(16).rem_euclid(16);
        let beta = j * m + plane.rem_euclid(16);
        [0, 1, 2].map(|k| ((alpha * self.a[k] + beta * self.b[k] + gamma * self.n[k]) / m) as i64)
    }

    /// Sweep `long` stretches along `a` against `cross` ones along `b`.
    fn sweep(
        &self,
        long: impl Iterator<Item = Stretch>,
        cross: impl Iterator<Item = Stretch>,
        sink: &mut impl Sink,
    ) -> ControlFlow<()> {
        // a diagonal whose walk wraps past the `u64` range can be empty
        let mut long: Vec<Seg<i128>> = long
            .filter(|s| s.len > 0)
            .map(|s| self.seg(&s, true))
            .collect();
        let mut cross: Vec<Seg<i128>> = cross
            .filter(|s| s.len > 0)
            .map(|s| self.seg(&s, false))
            .collect();
        long.sort_unstable_by_key(|s| (s.plane, s.lo));
        cross.sort_unstable_by_key(|s| (s.plane, s.key, s.lo));
        let steps = [self.a, self.b].map(|s| s.map(|v| v as i64));
        let point = |plane, i, j| self.point(plane, i, j);
        sweep(
            &long,
            &cross,
            (|s: &Seg<i128>| *s, |s: &Seg<i128>| *s),
            point,
            steps,
            &mut Tree::default(),
            sink,
        )
    }
}

impl<W: Width> Runs<W> {
    /// Sort each axis's runs by line, then start, as [`Runs::holders`]
    /// needs them.
    pub fn sort_by_line(&mut self) {
        for runs in &mut self.axes {
            runs.sort_unstable_by_key(|r| (r.line, r.lo));
        }
    }

    /// Append to `out` the wire of every run holding `c`. The runs must
    /// be sorted by [`Runs::sort_by_line`].
    pub fn holders(&self, c: Coord, out: &mut Vec<u32>) {
        for (axis, runs) in self.axes.iter().enumerate() {
            let at = |k: usize| W::from_abs(c[k], self.origin[k]);
            let [a, b] = others(axis as u8);
            // a point out of reach is on no run
            let (Some(la), Some(lb), Some(t)) = (at(a), at(b), at(axis)) else {
                continue;
            };
            let line = [la, lb];
            let from = runs.partition_point(|r| r.line < line);
            let on_line = runs[from..]
                .iter()
                .take_while(|r| r.line == line && r.lo <= t);
            out.extend(on_line.filter(|r| r.hi >= t).map(|r| r.wire));
        }
    }
}

/// Stops at the first meeting.
pub(crate) struct AnyMeeting;

impl Sink for AnyMeeting {
    fn meet(&mut self, _: Stretch) -> ControlFlow<()> {
        ControlFlow::Break(())
    }
}

/// The first point, in path order, that a wire visits twice. `path`
/// holds the wire's runs in path order, as [`split`] returns them;
/// `scratch` is working space. [`crate::WirePath::validate`] calls it,
/// and so does the checker, on a layout whose runs meet.
pub(crate) fn first_revisit(path: &[(Run, bool)], scratch: &mut Runs<i64>) -> Option<Coord> {
    // whether any two of the first `n` runs share a point
    let mut meet = |n: usize| {
        scratch.clear();
        path[..n].iter().for_each(|(r, _)| scratch.push(r));
        meetings(scratch, &[], &mut AnyMeeting).is_break()
    };
    if !meet(path.len()) {
        return None;
    }
    // the shortest prefix of runs that meet ends in the run holding the
    // first revisit: every run before it visits new points only
    let (mut lo, mut hi) = (1, path.len());
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if meet(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    let (last, up) = path[hi - 1];
    let revisits = path[..hi - 1].iter().filter_map(|(r, _)| last.shared(r));
    let t = if up {
        revisits.map(|(lo, _)| lo).min()
    } else {
        revisits.map(|(_, hi)| hi).max()
    };
    t.map(|t| last.at(t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Debug;

    fn p(x: i64, y: i64, z: i32) -> Point3 {
        Point3::new(x, y, z)
    }

    type Split = (Vec<(Run, bool)>, Vec<(Stretch, u32)>, Option<usize>);

    fn split_all(corners: &[Point3]) -> Split {
        let (mut runs, mut diagonals) = (Vec::new(), Vec::new());
        let bad = split(corners, 7, &mut runs, &mut diagonals);
        (runs, diagonals, bad)
    }

    fn stretch(r: &Run) -> Stretch {
        Stretch::ends([r.at(r.lo), r.at(r.hi)], unit(r.axis as usize))
    }

    /// Every point the stretches hold, with multiplicity, sorted.
    fn points_of(runs: &[(Run, bool)], diagonals: &[(Stretch, u32)]) -> Vec<Coord> {
        let mut all: Vec<Coord> = Vec::new();
        for s in runs
            .iter()
            .map(|(r, _)| stretch(r))
            .chain(diagonals.iter().map(|d| d.0))
        {
            all.extend((0..s.len).map(|t| s.at(t)));
        }
        all.sort_unstable();
        all
    }

    #[test]
    fn split_partitions_the_point_walk() {
        let corners = [
            p(0, 0, 0),
            p(4, 0, 0),
            p(4, 0, 0),
            p(6, 0, 0),
            p(6, 3, 0),
            p(6, 3, 2),
            p(2, 3, 2),
            p(4, 5, 1),
        ];
        let (runs, diagonals, bad) = split_all(&corners);
        // the two +x segments merge; the repeated corner is skipped
        assert_eq!(runs.len(), 4);
        assert_eq!(
            runs[0],
            (
                Run {
                    axis: 0,
                    line: [0, 0],
                    lo: 0,
                    hi: 6,
                    wire: 7
                },
                true
            )
        );
        assert!(!runs[3].1, "the -x run walks down its axis");
        assert_eq!(bad, Some(5));
        assert_eq!(diagonals.len(), 1);
        let mut walk: Vec<Coord> = crate::WirePath::new(corners.to_vec())
            .points()
            .map(coord)
            .collect();
        walk.sort_unstable();
        assert_eq!(points_of(&runs, &diagonals), walk);
    }

    #[test]
    fn single_corner_is_one_point_run() {
        let (runs, diagonals, bad) = split_all(&[p(3, 4, 1), p(3, 4, 1)]);
        assert_eq!(bad, None);
        assert!(diagonals.is_empty());
        assert_eq!(runs.len(), 1);
        assert_eq!(stretch(&runs[0].0), Stretch::single([3, 4, 1]));
    }

    #[test]
    fn diagonal_walk_overshoots_and_is_lex_ordered() {
        // from (5, 0, 0) towards (3, 2, 0): steps (-1, +1, 0) for t = 1..=4
        let s = Stretch::walk([5, 0, 0], [3, 2, 0], 1);
        assert_eq!(s.step, [1, -1, 0]);
        assert_eq!(s.start, [1, 4, 0]);
        assert_eq!(s.len, 4);
        assert!(s.contains([4, 1, 0]) && s.contains([1, 4, 0]));
        assert!(!s.contains([5, 0, 0]) && !s.contains([0, 5, 0]));
    }

    /// Collects every reported point.
    #[derive(Default)]
    struct All(Vec<Coord>);

    impl Sink for All {
        fn meet(&mut self, s: Stretch) -> ControlFlow<()> {
            self.0.extend((0..s.len).map(|t| s.at(t)));
            ControlFlow::Continue(())
        }
    }

    fn run(axis: u8, line: [i64; 2], lo: i64, hi: i64) -> Run {
        Run {
            axis,
            line,
            lo,
            hi,
            wire: 0,
        }
    }

    /// Every point where the stretches meet, found at `u32` offsets from
    /// the runs' minimum corner, with active runs in a bitmap and in a
    /// tree, and at `i64`, which must all agree.
    fn met_at_both_widths(runs: &[Run], diagonals: &[(Stretch, u32)]) -> Vec<Coord> {
        fn met<W: Width>(
            runs: &[Run],
            diagonals: &[(Stretch, u32)],
            span: [Coord; 2],
        ) -> Vec<Coord> {
            let mut at = Runs::<W>::with_capacity(span, [0; 3]);
            runs.iter().for_each(|r| at.push(r));
            let mut all = All::default();
            assert!(meetings(&mut at, diagonals, &mut all).is_continue());
            all.0.sort_unstable();
            all.0.dedup();
            all.0
        }
        let min = |k: usize| runs.iter().map(|r| r.at(r.lo)[k]).min().unwrap_or(0);
        let max = |k: usize| runs.iter().map(|r| r.at(r.hi)[k]).max().unwrap_or(0);
        let span = [[0, 1, 2].map(min), [0, 1, 2].map(max)];
        let wide = met::<i64>(runs, diagonals, span);
        assert_eq!(met::<u32>(runs, diagonals, span), wide);
        // offsets of more than 16 bits keep a sweep's runs in a tree
        let far = [span[0], span[1].map(|c| c + (1 << 20))];
        assert_eq!(met::<u32>(runs, diagonals, far), wide);
        wide
    }

    #[test]
    fn meetings_cover_every_shared_point() {
        let runs = [
            run(0, [0, 0], 0, 10), // x-run at y = 0, z = 0
            run(0, [0, 0], 8, 12), // overlaps it at x = 8..10
            run(1, [5, 0], -3, 3), // crosses it at (5, 0, 0)
            run(2, [11, 0], 0, 4), // a via through (11, 0, 0)
            run(1, [7, 2], 0, 0),  // the point (7, 0, 2) …
            run(2, [7, 0], 2, 2),  // … twice, as a y-run and a z-run
            run(1, [20, 0], 0, 9), // far away
        ];
        assert_eq!(
            met_at_both_widths(&runs, &[]),
            vec![
                [5, 0, 0],
                [7, 0, 2],
                [8, 0, 0],
                [9, 0, 0],
                [10, 0, 0],
                [11, 0, 0]
            ]
        );
    }

    /// Every point held twice by the stretches of `corners`, found by
    /// [`meetings`] and by counting points.
    fn shared_both_ways(wires: &[Vec<Point3>]) -> (Vec<Coord>, Vec<Coord>) {
        let (mut runs, mut diagonals) = (Vec::new(), Vec::new());
        for (w, corners) in wires.iter().enumerate() {
            split(corners, w as u32, &mut runs, &mut diagonals);
        }
        let all = points_of(&runs, &diagonals);
        let mut counted: Vec<Coord> = all
            .windows(2)
            .filter(|w| w[0] == w[1])
            .map(|w| w[0])
            .collect();
        counted.dedup();
        let runs: Vec<Run> = runs.into_iter().map(|(r, _)| r).collect();
        (met_at_both_widths(&runs, &diagonals), counted)
    }

    #[test]
    fn diagonals_meet_in_closed_form() {
        let wires = [
            // a 2-axis diagonal overshooting to (4, 4, 0), crossed by an
            // x-run at y = 2 and overlapped by a diagonal from (2, 2, 0)
            vec![p(0, 0, 0), p(2, 2, 0)],
            vec![p(-10, 2, 0), p(10, 2, 0)],
            vec![p(2, 2, 0), p(8, 8, 0)],
            // parallel to the first, and an anti-diagonal crossing it
            // between grid points
            vec![p(0, 1, 0), p(4, 5, 0)],
            vec![p(0, 1, 1), p(1, 0, 1)],
            // a 3-axis diagonal through a z-run, and an anti-diagonal
            // through both
            vec![p(0, 0, 0), p(3, 3, 3)],
            vec![p(2, 2, -1), p(2, 2, 5)],
            vec![p(0, 4, 4), p(4, 0, 0)],
        ];
        let (met, counted) = shared_both_ways(&wires);
        assert!(met.contains(&[2, 2, 0]) && met.contains(&[2, 2, 2]));
        assert!(!met.contains(&[2, 1, 0]), "parallel lines never meet");
        assert_eq!(met, counted);
    }

    #[test]
    fn meetings_match_a_point_count_in_every_direction() {
        // xorshift, so the wires are the same on every run
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n) as i64
        };
        for _ in 0..300 {
            let wires: Vec<Vec<Point3>> = (0..6)
                .map(|_| {
                    let mut at = [next(7), next(7), next(4)];
                    let mut corners = vec![p(at[0], at[1], at[2] as i32)];
                    for _ in 0..next(4) {
                        // change each coordinate with even odds: runs
                        // and 2- and 3-axis diagonals of any direction
                        for c in &mut at {
                            if next(2) == 0 {
                                *c += next(9) - 4;
                            }
                        }
                        corners.push(p(at[0], at[1], at[2] as i32));
                    }
                    corners
                })
                .collect();
            let (met, counted) = shared_both_ways(&wires);
            assert_eq!(met, counted, "{wires:?}");
        }
    }

    /// Sort `items` both ways; the keys must come out in the same order
    /// and the items as the same multiset, as the sorts are unstable.
    fn sorts_alike<T: Copy + Ord + Debug, K: Radix + Debug>(
        items: &[T],
        key: impl Fn(&T) -> K + Copy,
        aux: &mut Vec<T>,
    ) {
        let mut want = items.to_vec();
        want.sort_unstable_by_key(key);
        let mut got = items.to_vec();
        sort_by_packed_key(&mut got, key, aux);
        let keys = |v: &[T]| v.iter().map(key).collect::<Vec<K>>();
        assert_eq!(keys(&got), keys(&want), "{} items", items.len());
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn packed_sort_orders_as_a_comparison_sort() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let extremes = [
            i64::MIN,
            i64::MIN + 1,
            -256,
            -1,
            0,
            255,
            i64::MAX - 1,
            i64::MAX,
        ];
        let (mut aux, mut wide_aux) = (Vec::new(), Vec::new());
        for n in [
            0,
            1,
            2,
            SMALL_SORT - 1,
            SMALL_SORT,
            SMALL_SORT + 1,
            5 * SMALL_SORT + 3,
        ] {
            // bytes 2 and 3 of `a` and 0 and 1 of `b` vary, the others
            // are constant, and keys repeat; the index tells items apart
            let narrow: Vec<(u32, u32, usize)> = (0..n)
                .map(|i| ((next(5) as u32) << 16 | 0x0100_0000, next(300) as u32, i))
                .collect();
            sorts_alike(&narrow, |&(a, b, _)| u32::pack(a, b, 32), &mut aux);
            // one key throughout: every byte is constant
            let same: Vec<(u32, u32, usize)> = (0..n).map(|i| (7, 9, i)).collect();
            sorts_alike(&same, |&(a, b, _)| u32::pack(a, b, 9), &mut aux);
            let wide: Vec<(i64, i64, usize)> = (0..n)
                .map(|i| (extremes[next(8) as usize], extremes[next(8) as usize], i))
                .collect();
            sorts_alike(&wide, |&(a, b, _)| i64::pack(a, b, 64), &mut wide_aux);
        }
    }

    #[test]
    fn first_revisit_in_path_order() {
        let revisit = |corners: &[Point3]| {
            let (runs, _, bad) = split_all(corners);
            assert_eq!(bad, None);
            first_revisit(&runs, &mut Runs::default()).map(point)
        };
        // a U-turn: back over (2, 0) first
        assert_eq!(
            revisit(&[p(0, 0, 0), p(3, 0, 0), p(1, 0, 0)]),
            Some(p(2, 0, 0))
        );
        // a loop closing on the start corner
        let square = [p(0, 0, 0), p(2, 0, 0), p(2, 2, 0), p(0, 2, 0), p(0, 0, 0)];
        assert_eq!(revisit(&square), Some(p(0, 0, 0)));
        // a spiral of 40 legal runs, then a run back across all of them
        let mut spiral = vec![p(0, 0, 0)];
        for i in 1..=40i64 {
            let last = *spiral.last().unwrap();
            let (dx, dy) = [(1, 0), (0, 1), (-1, 0), (0, -1)][(i % 4) as usize];
            spiral.push(p(last.x + dx * i, last.y + dy * i, 0));
        }
        assert_eq!(revisit(&spiral), None);
        let end = *spiral.last().unwrap();
        spiral.push(p(end.x, end.y + 1, 0));
        spiral.push(p(end.x - 1000, end.y + 1, 0));
        let hit = revisit(&spiral).expect("the last run crosses the spiral");
        let walk: Vec<Point3> = crate::WirePath::new(spiral).points().collect();
        let first = walk
            .iter()
            .enumerate()
            .find(|(i, q)| walk[..*i].contains(q))
            .map(|(_, q)| *q);
        assert_eq!(Some(hit), first);
    }
}
