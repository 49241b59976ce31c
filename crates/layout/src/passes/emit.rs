//! Pass 4 — emit: concrete geometry, as tiles.
//!
//! Prefix sums over the per-gap widths turn the IR's gap-local offsets
//! into absolute coordinates: column `c` occupies x in
//! `[col_x0[c], col_x0[c] + s - 1]`, its gap the `wpl[c]` columns after
//! it; planar row slot `sl` likewise in y. Nodes are `s × s` rectangles
//! on their slab's bottom layer, left implicit in the grid metadata;
//! every wire becomes one [`TileInstance`] of a shape from a small
//! [`crate::tiled::TileShape`] table, resolved by [`super::geometry`]
//! from its kind, terminal offsets, track offsets and layers. The loop
//! walks [`super::wire_kinds`] and counts the slab-crossing wires as it
//! goes, the sequence number their tracks records are indexed by.
//!
//! The wire loop runs on the calling thread. A realization is one
//! engine job, and the engine already runs one job per worker, so the
//! loop does not fan out: a second thread bought nothing even at
//! `hypercube:14` (114,688 wires).

use super::geometry::Resolver;
use super::{wire_kinds, PassConfig, PassContext, WireKind};
use crate::arena::Scratch;
use crate::spec::OrthogonalSpec;
use crate::tiled::{TileInstance, TiledLayout};

/// Fill the scratch's prefix-summed gap origins (`col_x0`, `slot_y0`)
/// from the per-gap widths. Gap widths stretch by the stack's track
/// pitches (1 under the uniform stack); node footprints stay
/// `side × side`.
fn fill_origins(s: &mut Scratch, ctx: &PassContext) {
    origins(&mut s.col_x0, s.side, &s.wpl, ctx.xscale);
    origins(&mut s.slot_y0, s.side, &s.hpl_slot, ctx.yscale);
}

/// Prefix sums of `side + gap·pitch` over `gaps`, from 0, into `out`:
/// the origin of each column (or planar row slot), then the extent.
///
/// # Panics
/// If a sum passes `i64`: a node side above [`super::max_node_side`],
/// or a pitch that large.
fn origins(out: &mut Vec<i64>, side: i64, gaps: &[i64], pitch: i64) {
    out.clear();
    out.push(0);
    let mut acc = 0i64;
    for &gap in gaps {
        acc = gap
            .checked_mul(pitch)
            .and_then(|t| t.checked_add(side))
            .and_then(|t| t.checked_add(acc))
            .expect("layout extent passes i64");
        out.push(acc);
    }
}

/// Run the emit pass: resolve every wire's geometry through the
/// [`Resolver`] arithmetic, interning distinct shapes into the tile
/// table (first-use order) instead of expanding corners. Nodes stay
/// implicit — the grid metadata is copied, not the placements.
pub(crate) fn run(
    spec: &OrthogonalSpec,
    cfg: &PassConfig,
    ctx: &PassContext,
    s: &mut Scratch,
) -> TiledLayout {
    fill_origins(s, ctx);
    let s = &*s;
    let resolver = Resolver { spec, s, ctx };
    let mut tiles: Vec<crate::tiled::TileShape> = Vec::new();
    let mut instances: Vec<TileInstance> = Vec::with_capacity(spec.wire_count());
    let mut inter = 0;
    for (ki, k) in wire_kinds(spec, s.slabs).enumerate() {
        let g = resolver.resolve(ki, k, inter);
        if matches!(k, WireKind::InterCol { .. } | WireKind::InterJog { .. }) {
            inter += 1;
        }
        // the table stays tiny (one entry per kind × layer-assignment
        // combination), so a linear probe beats hashing
        let tile = match tiles.iter().position(|&t| t == g.shape) {
            Some(i) => i as u32,
            None => {
                tiles.push(g.shape);
                (tiles.len() - 1) as u32
            }
        };
        instances.push(TileInstance {
            tile,
            u: g.u,
            v: g.v,
            ax: g.ax,
            ay: g.ay,
            bx: g.bx,
            by: g.by,
            t1: g.t1,
            t2: g.t2,
        });
    }
    TiledLayout {
        name: cfg.layout_name.clone(),
        layers: cfg.layers,
        rows: spec.rows,
        cols: spec.cols,
        side: s.side,
        slots: s.slabs.slots,
        slab_layers: s.slabs.slab_layers,
        node_at: spec.node_at.clone(),
        col_x0: s.col_x0.clone(),
        slot_y0: s.slot_y0.clone(),
        tiles,
        instances,
    }
}
