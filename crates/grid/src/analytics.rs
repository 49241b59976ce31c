//! Layout analytics beyond the headline metrics: where the area
//! actually goes (layer usage, lane utilization), how congested the
//! cuts are, and the wire-length distribution. Used by the ablation
//! tables and handy when tuning a construction.

use crate::geom::Rect;
use crate::hasher::FxBuildHasher;
use crate::layout::Layout;
use std::cmp::Ordering;
use std::collections::HashMap;

/// Wire points per layer, indexed by `z` (length = layers): the points
/// [`WirePath::points`](crate::path::WirePath::points) yields, counted
/// per segment rather than walked. A planar segment adds its length to
/// its own layer; a via adds one point to each layer it steps onto. So
/// the cost is at most `L` per segment, however long the wires are.
pub fn layer_usage(layout: &Layout) -> Vec<u64> {
    let top = layout.layers as i64 - 1;
    let mut usage = vec![0u64; layout.layers];
    let mut add = |lo: i64, hi: i64, n: u64| {
        for z in lo.max(0)..=hi.min(top) {
            usage[z as usize] = usage[z as usize].saturating_add(n);
        }
    };
    for w in &layout.wires {
        let corners = w.path.corners();
        add(corners[0].z.into(), corners[0].z.into(), 1);
        for s in corners.windows(2) {
            let (a, b, z) = (s[0], s[1], i64::from(s[0].z));
            let steps = a.manhattan(&b);
            let reach = i64::try_from(steps).unwrap_or(i64::MAX);
            match b.z.cmp(&a.z) {
                Ordering::Equal => add(z, z, steps),
                Ordering::Greater => add(z + 1, z.saturating_add(reach), 1),
                Ordering::Less => add(z.saturating_sub(reach), z - 1, 1),
            }
        }
    }
    usage
}

/// Utilization of the horizontal routing lanes: for each `(y, z)` pair
/// that carries at least one x-run, the fraction of the bounding width
/// actually covered by wire. Returns `(lanes, mean, max)`.
pub fn lane_utilization(layout: &Layout) -> (usize, f64, f64) {
    let Some(bb) = layout.bounding_box() else {
        return (0, 0.0, 0.0);
    };
    let width = bb.width() as f64;
    let mut lanes: HashMap<(i64, i32), u64, FxBuildHasher> = HashMap::default();
    for w in &layout.wires {
        for seg in w.path.corners().windows(2) {
            let (a, b) = (seg[0], seg[1]);
            if a.y == b.y && a.z == b.z && a.x != b.x {
                *lanes.entry((a.y, a.z)).or_insert(0) += a.x.abs_diff(b.x);
            }
        }
    }
    if lanes.is_empty() {
        return (0, 0.0, 0.0);
    }
    let utils: Vec<f64> = lanes.values().map(|&c| c as f64 / width).collect();
    let mean = utils.iter().sum::<f64>() / utils.len() as f64;
    let max = utils.iter().fold(0.0f64, |m, &u| m.max(u));
    (lanes.len(), mean, max)
}

/// Number of wires whose planar extent crosses the vertical line
/// between `x` and `x+1` — the congestion profile a bisection-style cut
/// sees. A wire is counted once however many times it weaves across.
pub fn cut_flux(layout: &Layout, x: i64) -> usize {
    layout
        .wires
        .iter()
        .filter(|w| {
            let (mut lo, mut hi) = (i64::MAX, i64::MIN);
            for c in w.path.corners() {
                lo = lo.min(c.x);
                hi = hi.max(c.x);
            }
            lo <= x && x < hi
        })
        .count()
}

/// The maximum [`cut_flux`] over all vertical cut positions.
pub fn max_cut_flux(layout: &Layout) -> usize {
    let Some(bb) = layout.bounding_box() else {
        return 0;
    };
    // sweep via interval endpoints rather than every x
    let mut delta: HashMap<i64, i64, FxBuildHasher> = HashMap::default();
    for w in &layout.wires {
        let (mut lo, mut hi) = (i64::MAX, i64::MIN);
        for c in w.path.corners() {
            lo = lo.min(c.x);
            hi = hi.max(c.x);
        }
        if lo < hi {
            *delta.entry(lo).or_insert(0) += 1;
            *delta.entry(hi).or_insert(0) -= 1;
        }
    }
    let mut xs: Vec<i64> = delta.keys().copied().collect();
    xs.sort_unstable();
    let mut acc = 0i64;
    let mut best = 0i64;
    for x in xs {
        acc += delta[&x];
        best = best.max(acc);
    }
    let _ = bb;
    best as usize
}

/// Wire-length distribution summary: `(mean, p50, p95, max)` over full
/// lengths (vias included). Zero-wire layouts give all zeros.
pub fn wire_length_stats(layout: &Layout) -> (f64, u64, u64, u64) {
    if layout.wires.is_empty() {
        return (0.0, 0, 0, 0);
    }
    let mut lens: Vec<u64> = layout.wires.iter().map(|w| w.path.length()).collect();
    lens.sort_unstable();
    let n = lens.len();
    let mean = lens.iter().sum::<u64>() as f64 / n as f64;
    (mean, lens[n / 2], lens[(n * 95) / 100], lens[n - 1])
}

/// Fraction of the bounding area covered by node footprints — the
/// "footprint floor" that dilutes the paper's constants at small N.
/// Exceeds 1.0 in multilayer 3-D layouts where nodes stack over the
/// same planar positions. Areas are taken in `f64`, so footprints too
/// large for a `u64` area still give their fraction.
pub fn footprint_fraction(layout: &Layout) -> f64 {
    let Some(bb) = layout.bounding_box() else {
        return 0.0;
    };
    let area = |r: &Rect| r.width() as f64 * r.height() as f64;
    let nodes: f64 = layout.nodes.iter().map(|n| area(&n.rect)).sum();
    nodes / area(&bb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::{Point3, Rect};
    use crate::path::WirePath;

    fn p(x: i64, y: i64, z: i32) -> Point3 {
        Point3::new(x, y, z)
    }

    fn two_lane_layout() -> Layout {
        let mut l = Layout::new("lanes", 2);
        l.place_node(0, Rect::new(0, 0, 0, 1));
        l.place_node(1, Rect::new(9, 0, 9, 1));
        l.add_wire(0, 1, WirePath::new(vec![p(0, 0, 0), p(9, 0, 0)]));
        l.add_wire(
            0,
            1,
            WirePath::new(vec![p(0, 1, 0), p(0, 1, 1), p(9, 1, 1), p(9, 1, 0)]),
        );
        l
    }

    #[test]
    fn footprint_fraction_of_nodes_past_a_u64_area() {
        // each node covers 10^24 points, past u64::MAX (~1.8 * 10^19)
        let side = 1_000_000_000_000i64;
        let mut l = Layout::new("huge", 2);
        l.place_node(0, Rect::new(0, 0, side - 1, side - 1));
        l.place_node(1, Rect::new(side, 0, 2 * side - 1, side - 1));
        assert_eq!(footprint_fraction(&l), 1.0);
    }

    #[test]
    fn layer_usage_counts() {
        let u = layer_usage(&two_lane_layout());
        assert_eq!(u.len(), 2);
        // wire 1: 10 points at z=0; wire 2: 2 terminal points at z=0 +
        // 10 points at z=1
        assert_eq!(u[0], 12);
        assert_eq!(u[1], 10);
    }

    #[test]
    fn lane_utilization_full_lanes() {
        let (lanes, mean, max) = lane_utilization(&two_lane_layout());
        assert_eq!(lanes, 2);
        assert!((mean - 0.9).abs() < 1e-9); // 9 covered of width 10
        assert!((max - 0.9).abs() < 1e-9);
    }

    #[test]
    fn cut_flux_counts_spanning_wires() {
        let l = two_lane_layout();
        assert_eq!(cut_flux(&l, 4), 2);
        assert_eq!(cut_flux(&l, 9), 0); // nothing extends past x=9
        assert_eq!(max_cut_flux(&l), 2);
    }

    #[test]
    fn wire_stats() {
        let (mean, p50, p95, max) = wire_length_stats(&two_lane_layout());
        assert_eq!(max, 11);
        assert_eq!(p50.max(p95), 11);
        assert!(mean > 9.0 && mean < 11.0);
    }

    #[test]
    fn footprint_fraction_reasonable() {
        let f = footprint_fraction(&two_lane_layout());
        // 4 node points in a 10x2 box
        assert!((f - 0.2).abs() < 1e-9);
    }

    #[test]
    fn empty_layout_analytics() {
        let l = Layout::new("e", 2);
        assert_eq!(layer_usage(&l), vec![0, 0]);
        assert_eq!(lane_utilization(&l), (0, 0.0, 0.0));
        assert_eq!(max_cut_flux(&l), 0);
        assert_eq!(wire_length_stats(&l), (0.0, 0, 0, 0));
        assert_eq!(footprint_fraction(&l), 0.0);
    }
}
