//! Pass 3 — layers: the group-to-layer assignment.
//!
//! Group `g` of a slab runs its x-segments on the slab's `g`-th
//! x-carrying layer and its y-segments on the `g`-th y-carrying layer,
//! as partitioned by the technology context
//! ([`crate::passes::PassContext`]). For the uniform stack the
//! partition is the legacy odd/even split — x-runs on `zb + 2g`,
//! y-runs on `zb + 2g + 1` — the paper's assignment of horizontal
//! groups to layers 1,3,5,… and vertical groups to 2,4,6,…
//! (0-indexed here, with the active layer doubling as group 0's
//! x-layer, exactly as the multilayer grid model allows). For odd
//! per-slab budgets the top layer is left unused, which is where the
//! paper's `L² − 1` odd-L denominators come from. Non-uniform stacks
//! instead respect each layer's preferred direction.
//!
//! Slab-crossing wires get layers on both sides: the x-run layer of
//! their source-slab group, and the x/y pair of their destination-slab
//! group; the riser climbs between the two in `z`.
//!
//! A wire's layers follow from its slab and its track groups alone, so
//! the pass stores nothing: [`assign`] resolves them when emit asks.

use super::{PassContext, SlabMap, WireKind};
use crate::passes::tracks::TrackAssign;
use crate::spec::OrthogonalSpec;

/// Layer assignment for one wire.
#[derive(Clone, Copy, Debug)]
pub(crate) enum LayerAssign {
    /// Intra-slab wire: terminal layer `zb`, x-run layer `zh`, y-run
    /// layer `zv`.
    Intra {
        /// Terminal (slab base) layer.
        zb: i32,
        /// x-run layer.
        zh: i32,
        /// y-run layer.
        zv: i32,
    },
    /// Slab-crossing wire: source terminal/x-run layers (`za`, `zha`)
    /// and destination terminal/x-run/y-run layers (`zb`, `zhb`, `zvb`).
    Inter {
        /// Source terminal layer.
        za: i32,
        /// Source-slab x-run layer.
        zha: i32,
        /// Destination terminal layer.
        zb: i32,
        /// Destination-slab x-run layer.
        zhb: i32,
        /// Destination-slab y-run layer.
        zvb: i32,
    },
}

/// Wire `k`'s layer assignment under track assignment `t`.
pub(crate) fn assign(
    spec: &OrthogonalSpec,
    slabs: SlabMap,
    ctx: &PassContext,
    k: WireKind,
    t: &TrackAssign,
) -> LayerAssign {
    let home_row = match k {
        WireKind::Row { idx } => spec.row_wires[idx].row,
        WireKind::Col { idx } => spec.col_wires[idx].lo,
        WireKind::Jog { idx } => spec.jog_wires[idx].a.0,
        WireKind::InterCol { .. } | WireKind::InterJog { .. } => {
            let (ra, _, rb, _) = k
                .inter_ends(spec)
                .expect("slab-crossing kinds have two ends");
            let TrackAssign::Inter {
                group_a, group_b, ..
            } = *t
            else {
                unreachable!("inter wire without inter track assignment")
            };
            let (sa, sb) = (slabs.slab_of(ra), slabs.slab_of(rb));
            return LayerAssign::Inter {
                za: slabs.zbase(sa),
                zha: ctx.h[sa][group_a],
                zb: slabs.zbase(sb),
                zhb: ctx.h[sb][group_b],
                zvb: ctx.v[sb][group_b],
            };
        }
    };
    let slab = slabs.slab_of(home_row);
    let g = t.home_group();
    LayerAssign::Intra {
        zb: slabs.zbase(slab),
        zh: ctx.h[slab][g],
        zv: ctx.v[slab][g],
    }
}
