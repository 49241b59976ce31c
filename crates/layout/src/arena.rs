//! Reusable pass scratch: the struct-of-arrays layout IR plus every
//! buffer the placement → tracks → layers → emit pipeline allocates.
//!
//! One [`Scratch`] holds the flat index vectors the passes fill
//! (products *and* intermediates), and a column keeps only what a later
//! pass reads. The one per-wire column is placement's 4-byte offset per
//! terminal; everything else is sized by node edges, gaps, jogs or
//! slab-crossing wires. The emit pass recomputes each wire's kind, its
//! terminals' node and edge, and its track and layer assignments from
//! the spec and these columns.
//! Each thread keeps one and reuses it across realizations
//! ([`with_scratch`]), so the steady-state pipeline allocates little
//! beyond the tiles it returns. This is the only allocation-reuse path:
//! an engine job realizes on its worker's thread-local scratch too.
//! Reuse pays where scratches are large:
//! without it `tiled-large` ran at 0.92× throughput and 1.11× median
//! latency (EXPERIMENTS.md, "Performance — the hot-path rework").
//!
//! Reuse is **panic-safe by construction**: every pass unconditionally
//! `clear()`s the vectors it writes, so a scratch left half-filled by a
//! panicking realization cannot leak stale state into a later layout.

use crate::passes::tracks::{IAssign, JAssign};
use crate::passes::SlabMap;
use std::cell::RefCell;

thread_local! {
    /// Per-thread pass scratch reused across realizations.
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Run `f` with this thread's reusable scratch — or a fresh one when
/// the thread-local is already borrowed (re-entrant realization from
/// inside a pass would be a bug, but must not abort).
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut s) => f(&mut s),
        Err(_) => f(&mut Scratch::default()),
    })
}

/// One closed interval awaiting greedy colouring:
/// `(key, lo, hi, tag)`. Sorting reproduces the AoS pipeline's
/// per-key *stable* sort by `(lo, hi)`: `tag` encodes insertion order
/// (jog indices first, then `jog_len + inter_seq`), so ties break
/// exactly as the BTreeMap-of-Vecs did.
pub(crate) type IVal = (u64, u32, u32, u32);

/// Reusable pass scratch: SoA products + intermediates. `Default` is
/// an empty scratch; every field is sized and overwritten by the pass
/// that owns it.
#[derive(Debug)]
pub(crate) struct Scratch {
    // --- placement products ---------------------------------------
    /// Row-block-to-slab mapping.
    pub slabs: SlabMap,
    /// Node footprint side.
    pub side: i64,
    /// Terminal offsets along their node edges, indexed `2·ki + end`
    /// (a-end at `2·ki`) for wire `ki` of `passes::wire_kinds`;
    /// `passes::placement::terminal` names the node and edge.
    pub term_off: Vec<u32>,
    // --- tracks products ------------------------------------------
    /// Jog assignment by jog-wire index (intra jogs only).
    pub jassign: Vec<JAssign>,
    /// Slab-crossing assignment by inter sequence number (wire order).
    pub iassign: Vec<IAssign>,
    /// Construction track count per row bundle.
    pub base_h: Vec<u32>,
    /// Construction track count per column bundle.
    pub base_w: Vec<u32>,
    /// Horizontal gap height above each planar row slot.
    pub hpl_slot: Vec<i64>,
    /// Vertical gap width right of each column (risers included).
    pub wpl: Vec<i64>,
    /// Construction + jog width of each column gap.
    pub track_width: Vec<i64>,
    // --- placement intermediates ----------------------------------
    /// Terminal count per `(cell, edge, class)`, indexed
    /// `cell·6 + edge·3 + class`; then each one's next offset.
    pub edge_slots: Vec<u32>,
    /// Slab-crossing a-side terminals per `(slot, col)` stack.
    pub inter_per_stack: Vec<u32>,
    /// Max intra right-edge demand per `(slot, col)` stack; then the
    /// stack's next offset for slab-crossing a-side terminals.
    pub stack_next: Vec<u32>,
    // --- tracks intermediates -------------------------------------
    /// Interval records for one colouring round (verticals, then
    /// horizontals — the buffer is reused).
    pub ivals: Vec<IVal>,
    /// First-fit end-of-track state, cleared per colouring run.
    pub track_end: Vec<u32>,
    /// Per-row bundle height before the per-slot max.
    pub hpl_row: Vec<i64>,
    /// Jog vertical tracks used per `(col, group, slab)`.
    pub jog_vtracks: Vec<u32>,
    /// Jog + inter horizontal tracks used per `(row, group)`.
    pub jog_htracks: Vec<u32>,
    /// Risers appended to each column's gap.
    pub riser_count: Vec<u32>,
    // --- emit intermediates ---------------------------------------
    /// Prefix-summed x origin per column (len `cols + 1`).
    pub col_x0: Vec<i64>,
    /// Prefix-summed y origin per planar row slot (len `slots + 1`).
    pub slot_y0: Vec<i64>,
}

impl Default for Scratch {
    fn default() -> Self {
        Scratch {
            slabs: SlabMap {
                slots: 1,
                slab_layers: 2,
            },
            side: 0,
            term_off: Vec::new(),
            jassign: Vec::new(),
            iassign: Vec::new(),
            base_h: Vec::new(),
            base_w: Vec::new(),
            hpl_slot: Vec::new(),
            wpl: Vec::new(),
            track_width: Vec::new(),
            edge_slots: Vec::new(),
            inter_per_stack: Vec::new(),
            stack_next: Vec::new(),
            ivals: Vec::new(),
            track_end: Vec::new(),
            hpl_row: Vec::new(),
            jog_vtracks: Vec::new(),
            jog_htracks: Vec::new(),
            riser_count: Vec::new(),
            col_x0: Vec::new(),
            slot_y0: Vec::new(),
        }
    }
}
