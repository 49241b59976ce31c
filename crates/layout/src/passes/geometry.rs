//! Wire-geometry resolution for the emit pass: the single source of
//! the concrete corner arithmetic.
//!
//! [`Resolver::resolve`] maps one wire index to a [`WireGeom`]: a
//! [`TileShape`] (the corner-sequence shape plus its layer indices) and
//! the six anchor coordinates that place it (terminals `a`/`b` and the
//! absolute track coordinates `t1`/`t2`). Expanding the shape at those
//! coordinates ([`TileShape::extend_corners`]) yields the wire's corner
//! sequence, for the streaming walk and for `materialize` alike.

use super::{SlabMap, WireKind};
use crate::passes::layers::LayerAssign;
use crate::passes::placement::{Edge, TermSlot};
use crate::passes::tracks::TrackAssign;
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

/// Borrowed view over the scratch columns the geometry depends on.
pub(crate) struct Resolver<'a> {
    pub spec: &'a OrthogonalSpec,
    pub side: i64,
    pub slabs: SlabMap,
    pub kinds: &'a [WireKind],
    pub term: &'a [TermSlot],
    pub assign: &'a [TrackAssign],
    pub layer: &'a [LayerAssign],
    pub track_width: &'a [i64],
    pub col_x0: &'a [i64],
    pub slot_y0: &'a [i64],
    /// Horizontal track pitch (1 under the uniform stack).
    pub xscale: i64,
    /// Vertical track pitch (1 under the uniform stack).
    pub yscale: i64,
}

impl Resolver<'_> {
    /// First x coordinate of column `c`'s vertical gap.
    fn gap_x0(&self, c: usize) -> i64 {
        self.col_x0[c] + self.side
    }

    /// First y coordinate of planar slot `sl`'s horizontal gap.
    fn gap_y0(&self, sl: usize) -> i64 {
        self.slot_y0[sl] + self.side
    }

    /// Absolute planar coordinates of a terminal slot.
    fn abs(&self, ki: usize, hi_end: usize) -> (i64, i64) {
        let t = &self.term[2 * ki + hi_end];
        let (x0, y0) = (self.col_x0[t.col], self.slot_y0[self.slabs.slot_of(t.row)]);
        match t.edge {
            Edge::Top => (x0 + t.off, y0 + self.side - 1),
            Edge::Right => (x0 + self.side - 1, y0 + t.off),
        }
    }

    /// Resolve wire `ki`'s concrete geometry.
    pub fn resolve(&self, ki: usize) -> WireGeom {
        let k = &self.kinds[ki];
        let (ax, ay) = self.abs(ki, 0);
        let (bx, by) = self.abs(ki, 1);
        let spec = self.spec;
        let (shape, u, v, t1, t2) = match (*k, self.assign[ki], self.layer[ki]) {
            (
                WireKind::Row { idx },
                TrackAssign::Construction { track: tidx, .. },
                LayerAssign::Intra { zb, zh, zv },
            ) => {
                let w = &spec.row_wires[idx];
                let ty = self.gap_y0(self.slabs.slot_of(w.row)) + tidx * self.yscale;
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
                let tx = self.gap_x0(w.col) + tidx * self.xscale;
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
                let tx = self.gap_x0(w.a.1) + tx * self.xscale;
                let ty = self.gap_y0(self.slabs.slot_of(w.b.0)) + ty * self.yscale;
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
                let riser_x = self.gap_x0(ca) + (self.track_width[ca] + riser) * self.xscale;
                let ty = self.gap_y0(self.slabs.slot_of(rb)) + ty * self.yscale;
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
