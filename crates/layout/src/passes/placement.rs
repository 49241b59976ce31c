//! Pass 1 — placement: classify wires against the slab map, size the
//! node footprint from terminal demand, and fix every terminal's
//! node-local slot.
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
//! The terminal discipline is implemented as **one flat sorted array**
//! instead of per-cell vectors: every terminal becomes a packed
//! [`crate::arena::TermItem`] keyed `(cell, edge, class, ki, hi_end)`,
//! one global sort groups each node edge into a contiguous
//! run, and a terminal's offset is its position within its run — the
//! exact offsets the per-cell stable sorts produced, at a fraction of
//! the allocation and branching.

use super::{PassConfig, SlabMap, WireKind};
use crate::arena::{Scratch, TermItem};
use crate::spec::OrthogonalSpec;

/// Which node edge a terminal sits on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) enum Edge {
    /// Top edge: offset is in x from the node's left side.
    #[default]
    Top,
    /// Right edge: offset is in y from the node's bottom side.
    Right,
}

/// A terminal's node-local slot; the emit pass turns it into absolute
/// coordinates once gap widths are known.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct TermSlot {
    /// Grid row of the owning node.
    pub row: usize,
    /// Grid column of the owning node.
    pub col: usize,
    /// Node edge the terminal occupies.
    pub edge: Edge,
    /// Offset along the edge (x for top, y for right).
    pub off: i64,
}

// TermItem packing: (cell·8 | edge·4 | class, ki·2 | hi_end)
const EDGE_TOP: u64 = 0;
const EDGE_RIGHT: u64 = 1;

fn pack(cell: usize, edge: u64, class: u64, ki: usize, hi_end: bool) -> TermItem {
    (
        ((cell as u64) << 3) | (edge << 2) | class,
        ((ki as u64) << 1) | hi_end as u64,
    )
}

/// Run the placement pass, filling the scratch's placement columns
/// (`slabs`, `kinds`, `side`, `term`).
///
/// # Panics
/// If `cfg.node_side` is below the computed terminal demand.
pub(crate) fn run(spec: &OrthogonalSpec, cfg: &PassConfig, s: &mut Scratch) {
    let (rows, cols) = (spec.rows, spec.cols);
    let slabs = SlabMap {
        slots: rows.div_ceil(cfg.active_layers),
        slab_layers: cfg.slab_layers(),
    };
    s.slabs = slabs;

    // --- classify wires ------------------------------------------------
    s.kinds.clear();
    s.kinds.reserve(spec.wire_count());
    for (i, _) in spec.row_wires.iter().enumerate() {
        s.kinds.push(WireKind::Row { idx: i });
    }
    for (i, w) in spec.col_wires.iter().enumerate() {
        if slabs.slab_of(w.lo) == slabs.slab_of(w.hi) {
            s.kinds.push(WireKind::Col { idx: i });
        } else {
            s.kinds.push(WireKind::InterCol { idx: i });
        }
    }
    for (i, w) in spec.jog_wires.iter().enumerate() {
        if slabs.slab_of(w.a.0) == slabs.slab_of(w.b.0) {
            s.kinds.push(WireKind::Jog { idx: i });
        } else {
            s.kinds.push(WireKind::InterJog { idx: i });
        }
    }

    // --- flat terminal items --------------------------------------------
    // class 0: arrives (from left / from below), 1: jogs, 2: departs
    s.items.clear();
    s.items.reserve(2 * s.kinds.len());
    for (ki, k) in s.kinds.iter().enumerate() {
        match *k {
            WireKind::Row { idx } => {
                let w = &spec.row_wires[idx];
                // at the hi end the wire arrives from the left (class 0);
                // at the lo end it departs rightward (class 2)
                s.items
                    .push(pack(w.row * cols + w.hi, EDGE_TOP, 0, ki, true));
                s.items
                    .push(pack(w.row * cols + w.lo, EDGE_TOP, 2, ki, false));
            }
            WireKind::Col { idx } => {
                let w = &spec.col_wires[idx];
                s.items
                    .push(pack(w.hi * cols + w.col, EDGE_RIGHT, 0, ki, true));
                s.items
                    .push(pack(w.lo * cols + w.col, EDGE_RIGHT, 2, ki, false));
            }
            WireKind::Jog { idx } => {
                let w = &spec.jog_wires[idx];
                s.items
                    .push(pack(w.a.0 * cols + w.a.1, EDGE_RIGHT, 1, ki, false));
                s.items
                    .push(pack(w.b.0 * cols + w.b.1, EDGE_TOP, 1, ki, true));
            }
            _ => {
                let (_, _, rb, cb) = k.inter_ends(spec).unwrap();
                // the a-side terminal is stack-allocated below
                s.items.push(pack(rb * cols + cb, EDGE_TOP, 1, ki, true));
            }
        }
    }
    s.items.sort_unstable();

    // --- terminal demand --------------------------------------------------
    // top demand is the longest top-edge run; intra right-edge demand is
    // per-cell run length, maxed over each (slot, col) stack
    let stacks = slabs.slots * cols;
    s.stack_intra_max.clear();
    s.stack_intra_max.resize(stacks, 0);
    s.inter_per_stack.clear();
    s.inter_per_stack.resize(stacks, 0);
    let mut top_max = 0usize;
    let mut i = 0;
    while i < s.items.len() {
        let gkey = s.items[i].0 >> 2; // (cell, edge)
        let mut j = i + 1;
        while j < s.items.len() && s.items[j].0 >> 2 == gkey {
            j += 1;
        }
        let run = j - i;
        if gkey & 1 == EDGE_TOP {
            top_max = top_max.max(run);
        } else {
            let cell = (gkey >> 1) as usize;
            let idx = slabs.slot_of(cell / cols) * cols + cell % cols;
            s.stack_intra_max[idx] = s.stack_intra_max[idx].max(run as u32);
        }
        i = j;
    }
    for k in &s.kinds {
        if let Some((ra, ca, _, _)) = k.inter_ends(spec) {
            s.inter_per_stack[slabs.slot_of(ra) * cols + ca] += 1;
        }
    }
    let right_demand = s
        .stack_intra_max
        .iter()
        .zip(&s.inter_per_stack)
        .map(|(&intra, &inter)| (intra + inter) as usize)
        .max()
        .unwrap_or(0);
    let min_side = 1 + top_max.max(right_demand) as i64;
    s.side = match cfg.node_side {
        Some(side) => {
            assert!(
                side as i64 >= min_side,
                "node_side {side} below terminal demand {min_side}"
            );
            side as i64
        }
        None => min_side,
    };

    // --- terminal slots ---------------------------------------------------
    s.term.clear();
    s.term.resize(2 * s.kinds.len(), TermSlot::default());
    // slab-crossing a-side terminals: stack-allocated past the stack's
    // intra demand, in kinds order
    s.stack_counter.clear();
    s.stack_counter.resize(stacks, 0);
    for (ki, k) in s.kinds.iter().enumerate() {
        if let Some((ra, ca, _, _)) = k.inter_ends(spec) {
            let idx = slabs.slot_of(ra) * cols + ca;
            let off = (s.stack_intra_max[idx] + s.stack_counter[idx]) as i64;
            s.stack_counter[idx] += 1;
            s.term[2 * ki] = TermSlot {
                row: ra,
                col: ca,
                edge: Edge::Right,
                off,
            };
        }
    }
    // everything else: offset = position within the sorted (cell, edge)
    // run, which equals the per-cell (class, ki, hi_end) sort position
    let mut i = 0;
    while i < s.items.len() {
        let gkey = s.items[i].0 >> 2;
        let cell = (gkey >> 1) as usize;
        let (row, col) = (cell / cols, cell % cols);
        let edge = if gkey & 1 == EDGE_TOP {
            Edge::Top
        } else {
            Edge::Right
        };
        let mut j = i;
        while j < s.items.len() && s.items[j].0 >> 2 == gkey {
            let tail = s.items[j].1;
            let (ki, hi_end) = ((tail >> 1) as usize, (tail & 1) as usize);
            s.term[2 * ki + hi_end] = TermSlot {
                row,
                col,
                edge,
                off: (j - i) as i64,
            };
            j += 1;
        }
        i = j;
    }
}
