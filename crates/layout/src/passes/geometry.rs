//! Wire-geometry resolution for the emit pass: the single source of
//! the concrete corner arithmetic.
//!
//! [`Resolver::resolve`] maps one wire to a [`WireGeom`]: a
//! [`TileShape`] (the corner-sequence shape plus its layer indices) and
//! the six anchor coordinates that place it (terminals `a`/`b` and the
//! absolute track coordinates `t1`/`t2`). Expanding the shape at those
//! coordinates ([`TileShape::extend_corners`]) yields the wire's corner
//! sequence, for the streaming walk and for `materialize` alike.
//!
//! A terminal's node and edge come from `placement::terminal`, the
//! function the placement pass counted with; the scratch holds only
//! its offset along that edge. The wire's track and layer assignments
//! come from `tracks::assign` and `layers::assign`, which read the
//! tracks pass's per-gap and per-jog products.

use super::layers::{self, LayerAssign};
use super::placement::{terminal, Edge};
use super::tracks::{self, TrackAssign};
use super::{PassContext, WireKind};
use crate::arena::Scratch;
use crate::spec::OrthogonalSpec;
use crate::tiled::TileShape;
use mlv_topology::NodeId;

/// Resolved geometry of one wire: its shape and anchor coordinates.
pub(crate) struct WireGeom {
    /// Corner-sequence shape (carries the layer indices).
    pub shape: TileShape,
    /// First network endpoint.
    pub u: NodeId,
    /// Second network endpoint.
    pub v: NodeId,
    /// a-terminal x.
    pub ax: i64,
    /// a-terminal y.
    pub ay: i64,
    /// b-terminal x.
    pub bx: i64,
    /// b-terminal y.
    pub by: i64,
    /// First absolute track coordinate (row-gap `ty` for rows, column
    /// -gap `tx` for columns, jog `tx`, riser x for slab-crossers).
    pub t1: i64,
    /// Second absolute track coordinate (jog / riser `ty`; 0 unused).
    pub t2: i64,
}

/// Borrowed view over the spec, the filled pass scratch (gap origins
/// included) and the technology context.
pub(crate) struct Resolver<'a> {
    pub spec: &'a OrthogonalSpec,
    pub s: &'a Scratch,
    pub ctx: &'a PassContext,
}

impl Resolver<'_> {
    /// First x coordinate of column `c`'s vertical gap.
    fn gap_x0(&self, c: usize) -> i64 {
        self.s.col_x0[c] + self.s.side
    }

    /// First y coordinate of planar slot `sl`'s horizontal gap.
    fn gap_y0(&self, sl: usize) -> i64 {
        self.s.slot_y0[sl] + self.s.side
    }

    /// Absolute planar coordinates of terminal `end` of wire `ki`, of
    /// kind `k`.
    fn abs(&self, ki: usize, k: WireKind, end: usize) -> (i64, i64) {
        let s = self.s;
        let t = terminal(self.spec, k, end);
        let off = s.term_off[2 * ki + end] as i64;
        let (x0, y0) = (s.col_x0[t.col], s.slot_y0[s.slabs.slot_of(t.row)]);
        match t.edge {
            Edge::Top => (x0 + off, y0 + s.side - 1),
            Edge::Right => (x0 + s.side - 1, y0 + off),
        }
    }

    /// Resolve the concrete geometry of wire `ki`, of kind `k`; `inter`
    /// is its sequence number among the slab-crossing wires (read only
    /// for those).
    pub fn resolve(&self, ki: usize, k: WireKind, inter: usize) -> WireGeom {
        let (ax, ay) = self.abs(ki, k, 0);
        let (bx, by) = self.abs(ki, k, 1);
        let spec = self.spec;
        let slabs = self.s.slabs;
        let (xscale, yscale) = (self.ctx.xscale, self.ctx.yscale);
        let track = tracks::assign(spec, self.s, self.ctx.groups, k, inter);
        let layer = layers::assign(spec, slabs, self.ctx, k, &track);
        let (shape, u, v, t1, t2) = match (k, track, layer) {
            (
                WireKind::Row { idx },
                TrackAssign::Construction { track: tidx, .. },
                LayerAssign::Intra { zb, zh, zv },
            ) => {
                let w = &spec.row_wires[idx];
                let ty = self.gap_y0(slabs.slot_of(w.row)) + tidx * yscale;
                (
                    TileShape::Row { zb, zh, zv },
                    spec.node(w.row, w.lo),
                    spec.node(w.row, w.hi),
                    ty,
                    0,
                )
            }
            (
                WireKind::Col { idx },
                TrackAssign::Construction { track: tidx, .. },
                LayerAssign::Intra { zb, zh, zv },
            ) => {
                let w = &spec.col_wires[idx];
                let tx = self.gap_x0(w.col) + tidx * xscale;
                (
                    TileShape::Col { zb, zh, zv },
                    spec.node(w.lo, w.col),
                    spec.node(w.hi, w.col),
                    tx,
                    0,
                )
            }
            (
                WireKind::Jog { idx },
                TrackAssign::Jog { tx, ty, .. },
                LayerAssign::Intra { zb, zh, zv },
            ) => {
                let w = &spec.jog_wires[idx];
                let tx = self.gap_x0(w.a.1) + tx * xscale;
                let ty = self.gap_y0(slabs.slot_of(w.b.0)) + ty * yscale;
                (
                    TileShape::Jog { zb, zh, zv },
                    spec.node(w.a.0, w.a.1),
                    spec.node(w.b.0, w.b.1),
                    tx,
                    ty,
                )
            }
            (
                _,
                TrackAssign::Inter { riser, ty, .. },
                LayerAssign::Inter {
                    za,
                    zha,
                    zb,
                    zhb,
                    zvb,
                },
            ) => {
                let (ra, ca, rb, cb) = k.inter_ends(spec).unwrap();
                let riser_x = self.gap_x0(ca) + (self.s.track_width[ca] + riser) * xscale;
                let ty = self.gap_y0(slabs.slot_of(rb)) + ty * yscale;
                (
                    TileShape::Riser {
                        za,
                        zha,
                        zb,
                        zhb,
                        zvb,
                    },
                    spec.node(ra, ca),
                    spec.node(rb, cb),
                    riser_x,
                    ty,
                )
            }
            _ => unreachable!("wire kind / track / layer assignment mismatch"),
        };
        WireGeom {
            shape,
            u,
            v,
            ax,
            ay,
            bx,
            by,
            t1,
            t2,
        }
    }
}
