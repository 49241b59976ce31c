//! Pass 4 — emit: concrete geometry.
//!
//! Prefix sums over the per-gap widths turn the IR's gap-local offsets
//! into absolute coordinates: column `c` occupies x in
//! `[col_x0[c], col_x0[c] + s - 1]`, its gap the `wpl[c]` columns after
//! it; planar row slot `sl` likewise in y. Nodes are `s × s` rectangles
//! on their slab's bottom layer; every wire is one [`WirePath`] built
//! from its terminal slots, track offsets, and layer assignment.
//!
//! The per-wire corner arithmetic lives in [`super::geometry`] — shared
//! with the tiled-IR producer ([`run_tiled`]), so the flat and tiled
//! backends are byte-identical by construction.
//!
//! The wire loop runs on the calling thread and recycles pooled corner
//! buffers from the scratch. A realization is one engine job, and the
//! engine already runs one job per worker, so the loop does not fan
//! out: a second thread bought nothing even at `hypercube:14`
//! (114,688 wires).

use super::geometry::Resolver;
use super::{PassConfig, PassContext};
use crate::arena::Scratch;
use crate::spec::OrthogonalSpec;
use crate::tiled::{TileInstance, TiledLayout};
use mlv_grid::geom::Rect;
use mlv_grid::layout::{Layout, Wire};
use mlv_grid::path::WirePath;

/// Fill the scratch's prefix-summed gap origins (`col_x0`, `slot_y0`)
/// from the per-gap widths — shared by the flat and tiled emitters.
/// Gap widths stretch by the stack's track pitches (1 under the
/// uniform stack); node footprints stay `side × side`.
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

/// Run the emit pass, consuming the scratch's columns into a
/// [`Layout`] (built on the scratch's recycled node/wire storage).
pub(crate) fn run(
    spec: &OrthogonalSpec,
    cfg: &PassConfig,
    ctx: &PassContext,
    s: &mut Scratch,
) -> Layout {
    let (rows, cols) = (spec.rows, spec.cols);
    let side = s.side;
    fill_origins(s, ctx);

    let (nodes, wires) = s.take_layout_bufs();
    // field-literal construction reuses the recycled vectors;
    // cfg.layers ≥ 2 is asserted by both realizer drivers
    let mut layout = Layout {
        name: cfg.layout_name.clone(),
        layers: cfg.layers,
        nodes,
        wires,
    };
    layout.nodes.reserve(rows * cols);
    layout.wires.reserve(s.kinds.len());

    let slabs = s.slabs;
    for r in 0..rows {
        let y0 = s.slot_y0[slabs.slot_of(r)];
        for c in 0..cols {
            let x0 = s.col_x0[c];
            layout.place_node_at(
                spec.node(r, c),
                Rect::new(x0, y0, x0 + side - 1, y0 + side - 1),
                slabs.zbase(slabs.slab_of(r)),
            );
        }
    }

    // split the scratch so the shared-ref wire resolver and the mutable
    // corner-buffer pool can coexist
    let Scratch {
        kinds,
        term,
        assign,
        layer,
        track_width,
        col_x0,
        slot_y0,
        path_pool,
        ..
    } = s;
    let resolver = Resolver {
        spec,
        side,
        slabs,
        kinds,
        term,
        assign,
        layer,
        track_width,
        col_x0,
        slot_y0,
        xscale: ctx.xscale,
        yscale: ctx.yscale,
    };
    for ki in 0..kinds.len() {
        let mut corners = match path_pool.pop() {
            Some(mut v) => {
                v.clear();
                v
            }
            None => Vec::with_capacity(10),
        };
        let g = resolver.resolve(ki);
        g.shape
            .extend_corners(g.ax, g.ay, g.bx, g.by, g.t1, g.t2, &mut corners);
        layout.wires.push(Wire {
            u: g.u,
            v: g.v,
            path: WirePath::new(corners),
        });
    }
    layout
}

/// Run the emit pass into the tiled IR: resolve every wire's geometry
/// through the same [`Resolver`] arithmetic as [`run`], interning
/// distinct shapes into the tile table (first-use order) instead of
/// expanding corners. Nodes stay implicit — the grid metadata is
/// copied, not the placements.
pub(crate) fn run_tiled(
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
