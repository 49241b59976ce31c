//! Pass 2 — tracks: shared track grouping and per-gap widths.
//!
//! Construction tracks are split round-robin into `G = ⌊(L/L_A)/2⌋`
//! groups (round-robin keeps per-group counts balanced within one,
//! matching the paper's `⌈h_i/⌊L/2⌋⌉` bundles). Jog wires take appended
//! tracks coloured greedily with *closed*-interval semantics — verticals
//! per (gap column, group, slab), horizontals per (row bundle, group) —
//! so they never touch anything on their tracks at all. Slab-crossing
//! wires pool their horizontal-run colours with the destination row's
//! jogs and additionally own a private riser column appended to the
//! source column's gap.
//!
//! The colouring keys are **flat sorted arrays**, not maps: every
//! interval becomes a packed [`crate::arena::IVal`] record
//! `(key, lo, hi, tag)`, one global sort groups each
//! colouring key into a contiguous run, and [`color_runs`] first-fits
//! within each run. Tags encode insertion order (jog indices before
//! `jog_len + inter_seq`), so ties colour exactly as the per-key
//! stable sorts did. Per-bundle construction-track counts (`base_h` /
//! `base_w`) are likewise built in one pass over the spec's wires
//! instead of one scan *per* row and column.
//!
//! The pass keeps no per-wire column: a construction wire's group and
//! offset are closed forms of its spec track, and a jog's or
//! slab-crossing wire's follow from its colouring record (`jassign`,
//! `iassign`) and the bundle counts, so [`assign`] resolves any wire's
//! [`TrackAssign`] when emit asks for it.

use super::{wire_kinds, PassConfig, PassContext, WireKind};
use crate::arena::Scratch;
use crate::realize::JogStrategy;
use crate::spec::OrthogonalSpec;

/// Closed-interval greedy colouring: intervals may share a track only
/// if strictly disjoint. Returns per-interval colours and the number of
/// colours used. (Reference implementation; the pass itself runs the
/// same algorithm over sorted runs via [`color_runs`].)
#[cfg(test)]
pub(crate) fn color_closed(intervals: &[(usize, usize)]) -> (Vec<usize>, usize) {
    let mut ivals: Vec<crate::arena::IVal> = intervals
        .iter()
        .enumerate()
        .map(|(i, &(lo, hi))| (0u64, lo as u32, hi as u32, i as u32))
        .collect();
    ivals.sort_unstable();
    let mut colors = vec![0usize; intervals.len()];
    let mut used = 0usize;
    let mut track_end = Vec::new();
    color_runs(
        &ivals,
        &mut track_end,
        |tag, color| colors[tag as usize] = color as usize,
        |_, n| used = n as usize,
    );
    (colors, used)
}

/// First-fit colour the sorted interval records run by run (records
/// sharing a `key` form one run). `assign(tag, colour)` fires per
/// interval; `finish(key, used)` fires once per run with the number of
/// colours used. `track_end` is caller-owned scratch.
fn color_runs(
    ivals: &[crate::arena::IVal],
    track_end: &mut Vec<u32>,
    mut assign: impl FnMut(u32, u32),
    mut finish: impl FnMut(u64, u32),
) {
    let mut i = 0;
    while i < ivals.len() {
        let key = ivals[i].0;
        track_end.clear();
        let mut j = i;
        while j < ivals.len() && ivals[j].0 == key {
            let (_, lo, hi, tag) = ivals[j];
            let mut color = None;
            for (t, end) in track_end.iter_mut().enumerate() {
                if *end < lo {
                    *end = hi;
                    color = Some(t as u32);
                    break;
                }
            }
            let c = color.unwrap_or_else(|| {
                track_end.push(hi);
                (track_end.len() - 1) as u32
            });
            assign(tag, c);
            j += 1;
        }
        finish(key, track_end.len() as u32);
        i = j;
    }
}

/// Number of construction tracks `t < base` with `t % groups == g`.
pub(crate) fn count_in_group(base: usize, g: usize, groups: usize) -> usize {
    if base > g {
        (base - g).div_ceil(groups)
    } else {
        0
    }
}

/// Track assignment for one wire: its group(s) and gap-local track
/// offsets. The emit pass adds the gap origins.
#[derive(Clone, Copy, Debug)]
pub(crate) enum TrackAssign {
    /// Row/column construction wire: spec-assigned track `t` lands in
    /// group `t % G` at in-gap offset `t / G`.
    Construction { group: usize, track: i64 },
    /// Intra-slab jog: coloured offsets in the source column gap (`tx`)
    /// and destination row gap (`ty`), past the construction bundle.
    Jog { group: usize, tx: i64, ty: i64 },
    /// Slab-crossing wire: source-slab group `group_a`, destination-slab
    /// group `group_b`, private riser index in the source column gap,
    /// and destination row-gap offset `ty`.
    Inter {
        group_a: usize,
        group_b: usize,
        riser: i64,
        ty: i64,
    },
}

impl TrackAssign {
    /// The group used in the wire's home slab (source slab for
    /// slab-crossing wires).
    pub fn home_group(&self) -> usize {
        match *self {
            TrackAssign::Construction { group, .. } | TrackAssign::Jog { group, .. } => group,
            TrackAssign::Inter { group_a, .. } => group_a,
        }
    }
}

/// Intra-jog working assignment, indexed by jog-wire index.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct JAssign {
    /// Layer group.
    pub group: usize,
    /// Colour in the source column gap.
    pub vcolor: usize,
    /// Colour in the destination row gap.
    pub hcolor: usize,
}

/// Slab-crossing working assignment, indexed by inter sequence number
/// (the wires' [`wire_kinds`] order).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct IAssign {
    /// Source-slab group.
    pub ga: usize,
    /// Destination-slab group.
    pub gb: usize,
    /// Colour in the destination row gap (pooled with its jogs).
    pub hcolor: usize,
    /// Private riser index in the source column's gap.
    pub riser: usize,
}

/// Run the tracks pass, filling the scratch's track columns
/// (`jassign`, `iassign`, `base_h`, `base_w`, `hpl_slot`, `wpl`,
/// `track_width`).
pub(crate) fn run(spec: &OrthogonalSpec, cfg: &PassConfig, ctx: &PassContext, s: &mut Scratch) {
    let groups = ctx.groups;
    let slabs = s.slabs;
    let (rows, cols) = (spec.rows, spec.cols);
    let nslabs = cfg.active_layers;

    // --- intra-jog groups + vertical colouring ---------------------------
    // verticals are keyed (col, group, slab) to stay slab-local; the
    // horizontal keys are slab-local already because rows are unique
    s.jassign.clear();
    s.jassign.resize(spec.jog_wires.len(), JAssign::default());
    s.ivals.clear();
    let mut intra_jog_counter = 0usize;
    for (i, w) in spec.jog_wires.iter().enumerate() {
        if slabs.slab_of(w.a.0) != slabs.slab_of(w.b.0) {
            continue;
        }
        let g = match cfg.jog_strategy {
            JogStrategy::RoundRobin => intra_jog_counter % groups,
            JogStrategy::SingleGroup => 0,
        };
        intra_jog_counter += 1;
        s.jassign[i].group = g;
        let key = ((w.a.1 * groups + g) * nslabs + slabs.slab_of(w.a.0)) as u64;
        let rlo = slabs.slot_of(w.a.0).min(slabs.slot_of(w.b.0));
        let rhi = slabs.slot_of(w.a.0).max(slabs.slot_of(w.b.0));
        s.ivals.push((key, rlo as u32, rhi as u32, i as u32));
    }
    s.ivals.sort_unstable();
    s.jog_vtracks.clear();
    s.jog_vtracks.resize(cols * groups * nslabs, 0);
    {
        let (ivals, track_end) = (&s.ivals, &mut s.track_end);
        let (jassign, jog_vtracks) = (&mut s.jassign, &mut s.jog_vtracks);
        color_runs(
            ivals,
            track_end,
            |tag, c| jassign[tag as usize].vcolor = c as usize,
            |key, used| jog_vtracks[key as usize] = used,
        );
    }

    // --- slab-crossing wires: groups, risers, pooled h-colouring ---------
    // horizontal intervals: intra jogs first (jog-index order), then
    // slab-crossing wires (wire order) — the tag preserves that order
    // for colour tie-breaking
    s.ivals.clear();
    for (i, w) in spec.jog_wires.iter().enumerate() {
        if slabs.slab_of(w.a.0) != slabs.slab_of(w.b.0) {
            continue;
        }
        let g = s.jassign[i].group;
        let key = (w.b.0 * groups + g) as u64;
        let clo = w.a.1.min(w.b.1);
        let chi = w.a.1.max(w.b.1);
        s.ivals.push((key, clo as u32, chi as u32, i as u32));
    }
    let jlen = spec.jog_wires.len() as u32;
    s.iassign.clear();
    s.riser_count.clear();
    s.riser_count.resize(cols, 0);
    for (_, ca, rb, cb) in wire_kinds(spec, slabs).filter_map(|k| k.inter_ends(spec)) {
        let n = s.iassign.len();
        let riser = s.riser_count[ca] as usize;
        s.riser_count[ca] += 1;
        s.iassign.push(IAssign {
            ga: n % groups,
            gb: (n / groups) % groups,
            hcolor: 0,
            riser,
        });
        let gb = s.iassign[n].gb;
        let key = (rb * groups + gb) as u64;
        let clo = ca.min(cb);
        let chi = ca.max(cb);
        s.ivals.push((key, clo as u32, chi as u32, jlen + n as u32));
    }
    s.ivals.sort_unstable();
    s.jog_htracks.clear();
    s.jog_htracks.resize(rows * groups, 0);
    {
        let (ivals, track_end) = (&s.ivals, &mut s.track_end);
        let (jassign, iassign) = (&mut s.jassign, &mut s.iassign);
        let jog_htracks = &mut s.jog_htracks;
        color_runs(
            ivals,
            track_end,
            |tag, c| {
                if tag < jlen {
                    jassign[tag as usize].hcolor = c as usize;
                } else {
                    iassign[(tag - jlen) as usize].hcolor = c as usize;
                }
            },
            |key, used| jog_htracks[key as usize] = used,
        );
    }

    // --- per-gap widths ----------------------------------------------------
    // construction-track counts per bundle, one pass over each wire list
    s.base_h.clear();
    s.base_h.resize(rows, 0);
    for w in &spec.row_wires {
        let e = &mut s.base_h[w.row];
        *e = (*e).max(w.track as u32 + 1);
    }
    s.base_w.clear();
    s.base_w.resize(cols, 0);
    for w in &spec.col_wires {
        let e = &mut s.base_w[w.col];
        *e = (*e).max(w.track as u32 + 1);
    }
    // per-row bundle height (within its slab), then per-slot max
    s.hpl_row.clear();
    for r in 0..rows {
        let h = (0..groups)
            .map(|g| {
                count_in_group(s.base_h[r] as usize, g, groups)
                    + s.jog_htracks[r * groups + g] as usize
            })
            .max()
            .unwrap_or(0) as i64;
        s.hpl_row.push(h);
    }
    s.hpl_slot.clear();
    for sl in 0..slabs.slots {
        let h = (0..cfg.active_layers)
            .filter_map(|a| {
                let r = a * slabs.slots + sl;
                (r < rows).then(|| s.hpl_row[r])
            })
            .max()
            .unwrap_or(0);
        s.hpl_slot.push(h);
    }
    s.wpl.clear();
    s.track_width.clear();
    for c in 0..cols {
        let tracks = (0..groups)
            .map(|g| {
                let jmax = (0..nslabs)
                    .map(|a| s.jog_vtracks[(c * groups + g) * nslabs + a])
                    .max()
                    .unwrap_or(0) as usize;
                count_in_group(s.base_w[c] as usize, g, groups) + jmax
            })
            .max()
            .unwrap_or(0) as i64;
        s.track_width.push(tracks);
        s.wpl.push(tracks + s.riser_count[c] as i64);
    }
}

/// Wire `k`'s track assignment, from the products of [`run`] in `s`;
/// `inter` is its sequence number among the slab-crossing wires (read
/// only for those).
pub(crate) fn assign(
    spec: &OrthogonalSpec,
    s: &Scratch,
    groups: usize,
    k: WireKind,
    inter: usize,
) -> TrackAssign {
    let construction = |track: usize| TrackAssign::Construction {
        group: track % groups,
        track: (track / groups) as i64,
    };
    match k {
        WireKind::Row { idx } => construction(spec.row_wires[idx].track),
        WireKind::Col { idx } => construction(spec.col_wires[idx].track),
        WireKind::Jog { idx } => {
            let w = &spec.jog_wires[idx];
            let a = s.jassign[idx];
            TrackAssign::Jog {
                group: a.group,
                tx: (count_in_group(s.base_w[w.a.1] as usize, a.group, groups) + a.vcolor) as i64,
                ty: (count_in_group(s.base_h[w.b.0] as usize, a.group, groups) + a.hcolor) as i64,
            }
        }
        WireKind::InterCol { .. } | WireKind::InterJog { .. } => {
            let (_, _, rb, _) = k
                .inter_ends(spec)
                .expect("slab-crossing kinds have two ends");
            let ia = s.iassign[inter];
            TrackAssign::Inter {
                group_a: ia.ga,
                group_b: ia.gb,
                riser: ia.riser as i64,
                ty: (count_in_group(s.base_h[rb] as usize, ia.gb, groups) + ia.hcolor) as i64,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{color_closed, count_in_group};

    /// Closed intervals sharing an endpoint must not share a track.
    #[test]
    fn closed_semantics_split_touching_intervals() {
        let (colors, used) = color_closed(&[(0, 3), (3, 5), (6, 8)]);
        assert_eq!(used, 2);
        assert_eq!(colors, vec![0, 1, 0]);
    }

    #[test]
    fn disjoint_intervals_share_one_track() {
        let (colors, used) = color_closed(&[(0, 1), (3, 4), (6, 9)]);
        assert_eq!(used, 1);
        assert_eq!(colors, vec![0, 0, 0]);
    }

    #[test]
    fn nested_intervals_each_take_a_track() {
        // every interval contains the next: a clique under closed overlap
        let (colors, used) = color_closed(&[(0, 9), (1, 8), (2, 7), (3, 6)]);
        assert_eq!(used, 4);
        assert_eq!(colors, vec![0, 1, 2, 3]);
    }

    /// First-fit over the *sorted* order: colouring is a function of the
    /// interval set, with input order only breaking exact-duplicate ties.
    #[test]
    fn coloring_is_input_order_invariant_for_distinct_intervals() {
        let a = color_closed(&[(0, 2), (4, 6), (1, 5), (7, 9)]);
        let b = color_closed(&[(7, 9), (1, 5), (0, 2), (4, 6)]);
        // same number of tracks; per-interval colours permuted with input
        assert_eq!(a.1, b.1);
        assert_eq!(a.1, 2);
        assert_eq!(a.0, vec![0, 0, 1, 0]);
        assert_eq!(b.0, vec![0, 1, 0, 0]);
    }

    #[test]
    fn empty_input_uses_no_tracks() {
        let (colors, used) = color_closed(&[]);
        assert!(colors.is_empty());
        assert_eq!(used, 0);
    }

    #[test]
    fn count_in_group_partitions_the_base() {
        for base in 0..12usize {
            for groups in 1..5usize {
                let total: usize = (0..groups).map(|g| count_in_group(base, g, groups)).sum();
                assert_eq!(total, base, "base={base} groups={groups}");
                // round-robin keeps group sizes balanced within one
                let sizes: Vec<_> = (0..groups)
                    .map(|g| count_in_group(base, g, groups))
                    .collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "unbalanced: {sizes:?}");
            }
        }
    }
}
