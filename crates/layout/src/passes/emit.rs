//! Pass 4 — emit: concrete geometry, as tiles.
//!
//! Prefix sums over the per-gap widths turn the IR's gap-local offsets
//! into absolute coordinates: column `c` occupies x in
//! `[col_x0[c], col_x0[c] + s - 1]`, its gap the `wpl[c]` columns after
//! it; planar row slot `sl` likewise in y. Nodes are `s × s` rectangles
//! on their slab's bottom layer, left implicit in the grid metadata;
//! every wire becomes one [`TileInstance`] of a shape from a small
//! [`crate::tiled::TileShape`] table, resolved from its terminal slots,
//! track offsets, and layer assignment by [`super::geometry`].
//!
//! The wire loop runs on the calling thread. A realization is one
//! engine job, and the engine already runs one job per worker, so the
//! loop does not fan out: a second thread bought nothing even at
//! `hypercube:14` (114,688 wires).

use super::geometry::Resolver;
use super::{PassConfig, PassContext};
use crate::arena::Scratch;
use crate::spec::OrthogonalSpec;
use crate::tiled::{TileInstance, TiledLayout};

/// Fill the scratch's prefix-summed gap origins (`col_x0`, `slot_y0`)
/// from the per-gap widths. Gap widths stretch by the stack's track
/// pitches (1 under the uniform stack); node footprints stay
/// `side × side`.
fn fill_origins(s: &mut Scratch, ctx: &PassContext) {
    let side = s.side;
    s.col_x0.clear();
    s.col_x0.push(0);
    let mut acc = 0i64;
    for &w in &s.wpl {
        acc += side + w * ctx.xscale;
        s.col_x0.push(acc);
    }
    s.slot_y0.clear();
    s.slot_y0.push(0);
    let mut acc = 0i64;
    for &h in &s.hpl_slot {
        acc += side + h * ctx.yscale;
        s.slot_y0.push(acc);
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
    let slabs = s.slabs;
    let side = s.side;
    let resolver = Resolver {
        spec,
        side,
        slabs,
        kinds: &s.kinds,
        term: &s.term,
        assign: &s.assign,
        layer: &s.layer,
        track_width: &s.track_width,
        col_x0: &s.col_x0,
        slot_y0: &s.slot_y0,
        xscale: ctx.xscale,
        yscale: ctx.yscale,
    };
    let mut tiles: Vec<crate::tiled::TileShape> = Vec::new();
    let mut instances: Vec<TileInstance> = Vec::with_capacity(s.kinds.len());
    for ki in 0..s.kinds.len() {
        let g = resolver.resolve(ki);
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
        side,
        slots: slabs.slots,
        slab_layers: slabs.slab_layers,
        node_at: spec.node_at.clone(),
        col_x0: s.col_x0.clone(),
        slot_y0: s.slot_y0.clone(),
        tiles,
        instances,
    }
}
