//! Pass 1 — placement: size the node footprint from terminal demand,
//! and fix every terminal's offset along its node edge.
//!
//! Row-wire ends drop onto the node's **top edge** (excluding the
//! corner), column-wire ends onto its **right edge** (excluding the
//! corner). At each node edge, wires arriving from the left/below
//! (class 0) get smaller offsets than jogs (class 1), which get smaller
//! offsets than wires departing right/up (class 2) — so two same-track
//! wires that touch at a node never share a grid point.
//!
//! Slab-crossing source terminals need planar y positions that are
//! unique across a whole *stack* of nodes (same slot, same column,
//! different slabs): the riser climbs through every slab at the
//! terminal's y, so a stacked neighbour's gap-crossing x-segment at the
//! same offset would hit it. They are therefore allocated from a
//! per-(slot, col) counter that starts above every stack member's
//! intra-wire demand.
//!
//! Terminals are placed by **counting**, not sorting. [`terminal`] is
//! the one statement of which node edge, and which class, each wire end
//! takes. One walk over the wires ([`super::wire_kinds`], which also
//! tells slab-crossing wires apart) counts the terminals of every
//! (node cell, edge, class); the sums per edge are the top- and
//! right-edge demand, and prefix sums over the classes turn the counts
//! into cursors. A second walk, in wire order, hands each terminal its
//! edge class's next offset. Along an edge, offsets therefore run by
//! class, then by wire — the order of a sort by (class, wire, end), as
//! no wire puts both ends in one class of one edge. The scratch keeps
//! only the offsets: the emit pass asks [`terminal`] again for the node
//! and edge.

use super::{wire_kinds, PassConfig, SlabMap, WireKind};
use crate::arena::{with_scratch, Scratch};
use crate::spec::OrthogonalSpec;

/// Which node edge a terminal sits on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Edge {
    /// Top edge: offset is in x from the node's left side.
    Top = 0,
    /// Right edge: offset is in y from the node's bottom side.
    Right = 1,
}

/// Where one wire end lands.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Terminal {
    /// Grid row of the owning node.
    pub row: usize,
    /// Grid column of the owning node.
    pub col: usize,
    /// Node edge the terminal occupies.
    pub edge: Edge,
    /// Class on the edge: 0 arrives (from the left or below), 1 jogs,
    /// 2 departs. `None` for a slab-crossing wire's a-end, which its
    /// (slot, col) stack allocates.
    pub class: Option<u8>,
}

/// End `end` (0 = a, 1 = b) of wire kind `k`: its node, edge and class.
pub(crate) fn terminal(spec: &OrthogonalSpec, k: WireKind, end: usize) -> Terminal {
    let at = |(row, col): (usize, usize), edge, class| Terminal {
        row,
        col,
        edge,
        class,
    };
    match k {
        // the lo end departs rightward or upward, the hi end arrives
        WireKind::Row { idx } => {
            let w = &spec.row_wires[idx];
            match end {
                0 => at((w.row, w.lo), Edge::Top, Some(2)),
                _ => at((w.row, w.hi), Edge::Top, Some(0)),
            }
        }
        WireKind::Col { idx } => {
            let w = &spec.col_wires[idx];
            match end {
                0 => at((w.lo, w.col), Edge::Right, Some(2)),
                _ => at((w.hi, w.col), Edge::Right, Some(0)),
            }
        }
        WireKind::Jog { idx } => {
            let w = &spec.jog_wires[idx];
            match end {
                0 => at(w.a, Edge::Right, Some(1)),
                _ => at(w.b, Edge::Top, Some(1)),
            }
        }
        WireKind::InterCol { .. } | WireKind::InterJog { .. } => {
            let (ra, ca, rb, cb) = k
                .inter_ends(spec)
                .expect("slab-crossing kinds have two ends");
            match end {
                0 => at((ra, ca), Edge::Right, None),
                _ => at((rb, cb), Edge::Top, Some(1)),
            }
        }
    }
}

/// Index of a terminal's (cell, edge, class) counter.
fn edge_slot(t: &Terminal, cols: usize, class: u8) -> usize {
    (t.row * cols + t.col) * 6 + t.edge as usize * 3 + class as usize
}

/// The smallest node side that holds every terminal of `spec` realized
/// with `active_layers` slabs (1 for the 2-D model): one more than the
/// most terminals a node edge holds, where a right edge also holds a
/// place for each slab-crossing terminal of its (slot, col) stack. A
/// `node_side` override below it cannot be realized.
///
/// # Panics
/// If `active_layers` is 0 or the spec is invalid.
pub fn min_node_side(spec: &OrthogonalSpec, active_layers: usize) -> usize {
    // the slabs' layer bases play no part in the demand
    let slabs = SlabMap::new(spec.rows, active_layers, 0);
    with_scratch(|s| count(spec, slabs, s))
}

/// Count the wires' terminals into the scratch (`slabs`, `edge_slots`,
/// `inter_per_stack`, `stack_next`); returns the minimum node side.
fn count(spec: &OrthogonalSpec, slabs: SlabMap, s: &mut Scratch) -> usize {
    let (rows, cols) = (spec.rows, spec.cols);
    s.slabs = slabs;
    let stacks = slabs.slots * cols;
    s.edge_slots.clear();
    s.edge_slots.resize(rows * cols * 6, 0);
    s.inter_per_stack.clear();
    s.inter_per_stack.resize(stacks, 0);
    for k in wire_kinds(spec, slabs) {
        for end in 0..2 {
            let t = terminal(spec, k, end);
            match t.class {
                Some(class) => s.edge_slots[edge_slot(&t, cols, class)] += 1,
                None => s.inter_per_stack[slabs.slot_of(t.row) * cols + t.col] += 1,
            }
        }
    }

    // --- terminal demand --------------------------------------------------
    // top demand is the longest top edge; intra right-edge demand is
    // maxed over each (slot, col) stack
    s.stack_next.clear();
    s.stack_next.resize(stacks, 0);
    let mut top_max = 0u32;
    for (cell, c) in s.edge_slots.chunks_exact(6).enumerate() {
        top_max = top_max.max(c[0] + c[1] + c[2]);
        let stack = slabs.slot_of(cell / cols) * cols + cell % cols;
        s.stack_next[stack] = s.stack_next[stack].max(c[3] + c[4] + c[5]);
    }
    let right_demand = s
        .stack_next
        .iter()
        .zip(&s.inter_per_stack)
        .map(|(&intra, &inter)| intra + inter)
        .max()
        .unwrap_or(0);
    1 + top_max.max(right_demand) as usize
}

/// Run the placement pass, filling the scratch's placement columns
/// (`slabs`, `side`, `term_off`).
///
/// # Panics
/// If `cfg.node_side` is below [`min_node_side`].
pub(crate) fn run(spec: &OrthogonalSpec, cfg: &PassConfig, s: &mut Scratch) {
    let slabs = SlabMap::new(spec.rows, cfg.active_layers, cfg.slab_layers());
    let min_side = count(spec, slabs, s);
    s.side = match cfg.node_side {
        Some(side) => {
            assert!(
                side >= min_side,
                "node_side {side} below terminal demand {min_side}"
            );
            i64::try_from(side).expect("node_side within i64")
        }
        None => min_side as i64,
    };

    // --- terminal offsets -------------------------------------------------
    // counts become cursors: each class of an edge starts past the
    // classes below it; a stack's cursor already starts past its intra
    // demand
    for c in s.edge_slots.chunks_exact_mut(3) {
        let (arrive, jog) = (c[0], c[1]);
        c[0] = 0;
        c[1] = arrive;
        c[2] = arrive + jog;
    }
    let cols = spec.cols;
    s.term_off.clear();
    s.term_off.reserve(2 * spec.wire_count());
    for k in wire_kinds(spec, slabs) {
        for end in 0..2 {
            let t = terminal(spec, k, end);
            let cursor = match t.class {
                Some(class) => &mut s.edge_slots[edge_slot(&t, cols, class)],
                None => &mut s.stack_next[slabs.slot_of(t.row) * cols + t.col],
            };
            s.term_off.push(*cursor);
            *cursor += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::run_pipeline;
    use crate::realize::JogStrategy;
    use crate::registry::{self, LAYER_POOL};
    use mlv_core::rng::Rng;
    use mlv_grid::pdk::Pdk;
    use std::collections::BTreeMap;

    /// Offsets (indexed `2·wire + end`) and node side by the discipline
    /// as the module docs state it, computed naively: the terminals of
    /// each node edge sorted by (class, wire, end), and slab-crossing
    /// a-ends handed out per (slot, col) stack past its intra demand.
    fn reference(spec: &OrthogonalSpec, active_layers: usize) -> (Vec<u32>, usize) {
        let slots = spec.rows.div_ceil(active_layers);
        let crosses = |r1: usize, r2: usize| r1 / slots != r2 / slots;
        // (cell, edge) → (class, wire, end); edge 0 top, 1 right
        let mut edges: BTreeMap<_, Vec<_>> = BTreeMap::new();
        let mut stacked: Vec<(usize, usize)> = Vec::new(); // (wire, stack)
        let mut put = |(r, c): (usize, usize), edge: u8, class: u8, wire: usize, end: usize| {
            edges
                .entry((r * spec.cols + c, edge))
                .or_default()
                .push((class, wire, end))
        };
        let mut wire = 0;
        for w in &spec.row_wires {
            put((w.row, w.lo), 0, 2, wire, 0);
            put((w.row, w.hi), 0, 0, wire, 1);
            wire += 1;
        }
        for w in &spec.col_wires {
            if crosses(w.lo, w.hi) {
                stacked.push((wire, (w.lo % slots) * spec.cols + w.col));
                put((w.hi, w.col), 0, 1, wire, 1);
            } else {
                put((w.lo, w.col), 1, 2, wire, 0);
                put((w.hi, w.col), 1, 0, wire, 1);
            }
            wire += 1;
        }
        for w in &spec.jog_wires {
            if crosses(w.a.0, w.b.0) {
                stacked.push((wire, (w.a.0 % slots) * spec.cols + w.a.1));
            } else {
                put(w.a, 1, 1, wire, 0);
            }
            put(w.b, 0, 1, wire, 1);
            wire += 1;
        }
        let mut off = vec![u32::MAX; 2 * wire];
        let mut next = vec![0u32; slots * spec.cols];
        let mut demand = 0;
        for (&(cell, edge), terms) in &mut edges {
            terms.sort();
            for (i, &(_, w, end)) in terms.iter().enumerate() {
                off[2 * w + end] = i as u32;
            }
            if edge == 1 {
                let stack = (cell / spec.cols % slots) * spec.cols + cell % spec.cols;
                next[stack] = next[stack].max(terms.len() as u32);
            } else {
                demand = demand.max(terms.len());
            }
        }
        for (w, stack) in stacked {
            off[2 * w] = next[stack];
            next[stack] += 1;
        }
        (
            off,
            1 + demand.max(next.into_iter().max().unwrap_or(0) as usize),
        )
    }

    /// Realize and compare with the reference; returns the number of
    /// slab-crossing wires.
    fn assert_placed(spec: &OrthogonalSpec, cfg: &PassConfig) -> usize {
        let mut s = Scratch::default();
        run_pipeline(spec, cfg, &mut s);
        let (off, side) = reference(spec, cfg.active_layers);
        assert_eq!(s.term_off, off, "{}", cfg.layout_name);
        assert_eq!(s.side, side as i64, "{}", cfg.layout_name);
        assert_eq!(min_node_side(spec, cfg.active_layers), side);
        wire_kinds(spec, s.slabs)
            .filter(|k| k.inter_ends(spec).is_some())
            .count()
    }

    #[test]
    fn offsets_match_a_sort_of_each_node_edge() {
        let (mut checked, mut crossing) = (0, 0);
        for seed in [2000, 2001, 2002] {
            for entry in registry::REGISTRY {
                let Some(lattice) = &entry.lattice else {
                    continue;
                };
                let draw = (lattice.draw)(&mut Rng::seed_from_u64(seed));
                let spec = &draw.family.spec;
                let cfg = |layers, active_layers, pdk| PassConfig {
                    layers,
                    active_layers,
                    node_side: None,
                    jog_strategy: JogStrategy::RoundRobin,
                    layout_name: format!("{} L={layers} L_A={active_layers}", draw.label),
                    pdk,
                };
                for &layers in &LAYER_POOL {
                    assert_eq!(assert_placed(spec, &cfg(layers, 1, None)), 0);
                    assert_placed(spec, &cfg(layers, 1, Some(Pdk::hv6())));
                }
                crossing += assert_placed(spec, &cfg(8, 2, None));
                checked += 1;
            }
        }
        assert_eq!(checked, 3 * registry::lattice_names().len());
        assert!(crossing > 0, "no draw has a slab-crossing wire");
    }
}
