//! The hierarchical **tiled layout IR**: a small table of distinct tile
//! shapes plus an instantiation map, produced directly by the pass
//! pipeline. It is the one product of the emit pass; the flat
//! [`Layout`] is derived from it on demand ([`TiledLayout::materialize`])
//! for import, export and the analyses that need stored geometry.
//!
//! The paper's constructions are intensely repetitive: every wire the
//! emit pass generates is one of four corner-sequence *shapes* (row
//! bundle, column bundle, jog, inter-slab riser), parameterized only by
//! its terminal/track coordinates and a handful of layer indices. A
//! [`TiledLayout`] therefore stores
//!
//! * a **tile table** ([`TileShape`]) — the distinct shapes actually
//!   used, typically a few dozen entries regardless of N (one per
//!   (kind, layer-assignment) combination);
//! * an **instantiation map** ([`TileInstance`]) — per wire, a tile id
//!   plus the six anchor coordinates that place it;
//! * an **implicit node grid** — nodes are `side × side` blocks of one
//!   shared shape, instantiated by the `(row, col)` grid metadata
//!   (`col_x0` / `slot_y0` prefix sums, node-id permutation, slab
//!   stacking), so node placements cost no per-node storage at all.
//!
//! The IR implements [`mlv_grid::streaming::StreamSource`]: the
//! checker, the streaming metrics, the physical metrics and the text
//! serializer (hence the engine's layout digest) walk tile instances,
//! expanding one ~10-corner buffer at a time. The walk yields each
//! shape's raw corners; `materialize` stores them through
//! [`WirePath::new`], which collapses repeated corners, and the
//! serializer writes a repeated corner once, so both give the same
//! bytes.

use crate::arena::with_scratch;
use crate::passes::run_pipeline;
use crate::realize::RealizeOptions;
use crate::realize3d::Realize3dOptions;
use crate::spec::OrthogonalSpec;
use mlv_grid::geom::{Point3, Rect};
use mlv_grid::hasher::{fnv1a, fnv1a_u64, FNV_BASIS};
use mlv_grid::layout::{Layout, NodePlacement, Wire};
use mlv_grid::path::WirePath;
use mlv_grid::streaming::StreamSource;
use mlv_topology::NodeId;

/// A distinct wire-tile shape: the corner sequence of one wire up to
/// translation of its anchor coordinates. The layer indices are part of
/// the shape (two wires on different track groups are different tiles);
/// everything positional lives in the [`TileInstance`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TileShape {
    /// Row-bundle wire: both terminals on top edges, horizontal run on
    /// track `t1` of the row gap.
    Row {
        /// Terminal (slab base) layer.
        zb: i32,
        /// x-run layer.
        zh: i32,
        /// y-run layer.
        zv: i32,
    },
    /// Column-bundle wire: both terminals on right edges, vertical run
    /// on track `t1` of the column gap.
    Col {
        /// Terminal (slab base) layer.
        zb: i32,
        /// x-run layer.
        zh: i32,
        /// y-run layer.
        zv: i32,
    },
    /// Jog wire: vertical run at `t1`, horizontal run at `t2`.
    Jog {
        /// Terminal (slab base) layer.
        zb: i32,
        /// x-run layer.
        zh: i32,
        /// y-run layer.
        zv: i32,
    },
    /// Slab-crossing wire riding a private riser column at `t1` and a
    /// destination row track at `t2`.
    Riser {
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

impl TileShape {
    /// Corners this shape expands to (before degenerate-segment
    /// collapsing).
    pub fn corner_count(&self) -> usize {
        match self {
            TileShape::Row { .. } | TileShape::Col { .. } => 8,
            TileShape::Jog { .. } | TileShape::Riser { .. } => 10,
        }
    }

    /// Expand the shape at instance coordinates into `out` — the wire's
    /// raw corner sequence (a degenerate segment repeats a corner).
    /// `(ax, ay)` / `(bx, by)` are the a/b terminals; `t1` / `t2` are
    /// the shape's absolute track coordinates (see variant docs).
    #[allow(clippy::too_many_arguments)]
    pub fn extend_corners(
        &self,
        ax: i64,
        ay: i64,
        bx: i64,
        by: i64,
        t1: i64,
        t2: i64,
        out: &mut Vec<Point3>,
    ) {
        let p = Point3::new;
        match *self {
            TileShape::Row { zb, zh, zv } => {
                let ty = t1;
                out.extend([
                    p(ax, ay, zb),
                    p(ax, ay, zv),
                    p(ax, ty, zv),
                    p(ax, ty, zh),
                    p(bx, ty, zh),
                    p(bx, ty, zv),
                    p(bx, by, zv),
                    p(bx, by, zb),
                ]);
            }
            TileShape::Col { zb, zh, zv } => {
                let tx = t1;
                out.extend([
                    p(ax, ay, zb),
                    p(ax, ay, zh),
                    p(tx, ay, zh),
                    p(tx, ay, zv),
                    p(tx, by, zv),
                    p(tx, by, zh),
                    p(bx, by, zh),
                    p(bx, by, zb),
                ]);
            }
            TileShape::Jog { zb, zh, zv } => {
                let (tx, ty) = (t1, t2);
                out.extend([
                    p(ax, ay, zb),
                    p(ax, ay, zh),
                    p(tx, ay, zh),
                    p(tx, ay, zv),
                    p(tx, ty, zv),
                    p(tx, ty, zh),
                    p(bx, ty, zh),
                    p(bx, ty, zv),
                    p(bx, by, zv),
                    p(bx, by, zb),
                ]);
            }
            TileShape::Riser {
                za,
                zha,
                zb,
                zhb,
                zvb,
            } => {
                let (riser_x, ty) = (t1, t2);
                out.extend([
                    p(ax, ay, za),
                    p(ax, ay, zha),
                    p(riser_x, ay, zha),
                    p(riser_x, ay, zvb),
                    p(riser_x, ty, zvb),
                    p(riser_x, ty, zhb),
                    p(bx, ty, zhb),
                    p(bx, ty, zvb),
                    p(bx, by, zvb),
                    p(bx, by, zb),
                ]);
            }
        }
    }

    fn digest_into(&self, h: u64) -> u64 {
        match *self {
            TileShape::Row { zb, zh, zv } => [0, zb as u64, zh as u64, zv as u64, 0, 0],
            TileShape::Col { zb, zh, zv } => [1, zb as u64, zh as u64, zv as u64, 0, 0],
            TileShape::Jog { zb, zh, zv } => [2, zb as u64, zh as u64, zv as u64, 0, 0],
            TileShape::Riser {
                za,
                zha,
                zb,
                zhb,
                zvb,
            } => [3, za as u64, zha as u64, zb as u64, zhb as u64, zvb as u64],
        }
        .into_iter()
        .fold(h, fnv1a_u64)
    }
}

/// One wire of the instantiation map: a tile id plus the coordinates
/// that place it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TileInstance {
    /// Index into [`TiledLayout::tiles`].
    pub tile: u32,
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
    /// First absolute track coordinate (see the shape's docs).
    pub t1: i64,
    /// Second absolute track coordinate (0 when unused).
    pub t2: i64,
}

/// A hierarchical layout: tile table + instantiation map + implicit
/// node grid. See the module docs.
#[derive(Clone, Debug)]
pub struct TiledLayout {
    /// Layout name (same as the materialized layout's).
    pub name: String,
    /// Layer budget `L`.
    pub layers: usize,
    /// Node grid rows.
    pub rows: usize,
    /// Node grid columns.
    pub cols: usize,
    /// Node block side (every node is one `side × side` tile).
    pub side: i64,
    /// Planar row slots shared by stacked slabs (`rows` for the 2-D
    /// model).
    pub slots: usize,
    /// Wiring layers per slab (`L` for the 2-D model).
    pub slab_layers: usize,
    /// Node id at grid position `(r, c)`, indexed `r * cols + c`.
    pub node_at: Vec<NodeId>,
    /// Prefix-summed x origin per column (len `cols + 1`).
    pub col_x0: Vec<i64>,
    /// Prefix-summed y origin per planar row slot (len `slots + 1`).
    pub slot_y0: Vec<i64>,
    /// The tile table: distinct wire shapes, in first-use order.
    pub tiles: Vec<TileShape>,
    /// The instantiation map, in emission (wire) order.
    pub instances: Vec<TileInstance>,
}

impl TiledLayout {
    /// Planar row slot of grid row `r`.
    fn slot_of(&self, r: usize) -> usize {
        r % self.slots
    }

    /// Active layer of grid row `r`'s slab.
    fn zbase_of(&self, r: usize) -> i32 {
        ((r / self.slots) * self.slab_layers) as i32
    }

    /// Node placement of grid position `(r, c)` — the implicit node
    /// tile instantiated from the grid metadata.
    fn node_placement(&self, r: usize, c: usize) -> NodePlacement {
        let x0 = self.col_x0[c];
        let y0 = self.slot_y0[self.slot_of(r)];
        NodePlacement {
            node: self.node_at[r * self.cols + c],
            rect: Rect::new(x0, y0, x0 + self.side - 1, y0 + self.side - 1),
            layer: self.zbase_of(r),
        }
    }

    /// Materialize the flat [`Layout`]: its canonical serialization
    /// (and so its FNV digest) is byte-identical to the tiles' own.
    pub fn materialize(&self) -> Layout {
        let mut layout = Layout {
            name: self.name.clone(),
            layers: self.layers,
            nodes: Vec::with_capacity(self.rows * self.cols),
            wires: Vec::with_capacity(self.instances.len()),
        };
        for r in 0..self.rows {
            for c in 0..self.cols {
                let n = self.node_placement(r, c);
                layout.place_node_at(n.node, n.rect, n.layer);
            }
        }
        for inst in &self.instances {
            let shape = self.tiles[inst.tile as usize];
            let mut corners = Vec::with_capacity(shape.corner_count());
            shape.extend_corners(
                inst.ax,
                inst.ay,
                inst.bx,
                inst.by,
                inst.t1,
                inst.t2,
                &mut corners,
            );
            layout.wires.push(Wire {
                u: inst.u,
                v: inst.v,
                path: WirePath::new(corners),
            });
        }
        layout
    }

    /// FNV-1a digest over the IR's canonical content — every field that
    /// determines the materialized geometry, in a fixed order. Used by
    /// the thread-identity CI leg: realizations under different
    /// `MLV_THREADS` must produce bit-identical tiled IRs.
    pub fn digest(&self) -> u64 {
        let mut h = fnv1a(FNV_BASIS, self.name.as_bytes());
        for v in [
            self.layers as u64,
            self.rows as u64,
            self.cols as u64,
            self.side as u64,
            self.slots as u64,
            self.slab_layers as u64,
        ] {
            h = fnv1a_u64(h, v);
        }
        for &n in &self.node_at {
            h = fnv1a_u64(h, n as u64);
        }
        for &x in &self.col_x0 {
            h = fnv1a_u64(h, x as u64);
        }
        for &y in &self.slot_y0 {
            h = fnv1a_u64(h, y as u64);
        }
        h = fnv1a_u64(h, self.tiles.len() as u64);
        for t in &self.tiles {
            h = t.digest_into(h);
        }
        h = fnv1a_u64(h, self.instances.len() as u64);
        for i in &self.instances {
            for v in [
                i.tile as u64,
                i.u as u64,
                i.v as u64,
                i.ax as u64,
                i.ay as u64,
                i.bx as u64,
                i.by as u64,
                i.t1 as u64,
                i.t2 as u64,
            ] {
                h = fnv1a_u64(h, v);
            }
        }
        h
    }
}

impl StreamSource for TiledLayout {
    fn name(&self) -> &str {
        &self.name
    }

    fn layers(&self) -> usize {
        self.layers
    }

    fn node_count(&self) -> usize {
        self.rows * self.cols
    }

    fn wire_count(&self) -> usize {
        self.instances.len()
    }

    fn visit_nodes(&self, f: &mut dyn FnMut(NodePlacement)) {
        for r in 0..self.rows {
            for c in 0..self.cols {
                f(self.node_placement(r, c));
            }
        }
    }

    fn visit_wires(&self, f: &mut dyn FnMut(NodeId, NodeId, &[Point3])) {
        let mut buf: Vec<Point3> = Vec::with_capacity(10);
        for inst in &self.instances {
            buf.clear();
            self.tiles[inst.tile as usize].extend_corners(
                inst.ax, inst.ay, inst.bx, inst.by, inst.t1, inst.t2, &mut buf,
            );
            f(inst.u, inst.v, &buf);
        }
    }
}

/// Realize a spec into the tiled IR (2-D multilayer grid model) on
/// this thread's reusable pass scratch. [`crate::realize::realize`] is
/// this, materialized.
///
/// # Panics
/// If the spec is invalid or `opts.layers < 2`.
pub fn realize_tiled(spec: &OrthogonalSpec, opts: &RealizeOptions) -> TiledLayout {
    with_scratch(|s| {
        // validation lends placement's terminal-offset buffer, which
        // placement clears before use
        spec.assert_valid_with(&mut s.term_off);
        let cfg = crate::realize::pass_config(spec, opts);
        run_pipeline(spec, &cfg, s)
    })
}

/// Realize a spec into the tiled IR in the multilayer 3-D grid model
/// (slab-crossing wires become [`TileShape::Riser`] tiles).
/// [`crate::realize3d::realize_3d`] is this, materialized.
///
/// # Panics
/// If the spec is invalid or [`Realize3dOptions::validate`] fails.
pub fn realize_tiled_3d(spec: &OrthogonalSpec, opts: &Realize3dOptions) -> TiledLayout {
    with_scratch(|s| {
        spec.assert_valid_with(&mut s.term_off);
        if let Err(e) = opts.validate() {
            panic!("need L_A | L, L/L_A >= 2: {e}");
        }
        let cfg = crate::passes::PassConfig {
            layers: opts.layers,
            active_layers: opts.active_layers,
            node_side: opts.node_side,
            jog_strategy: crate::realize::JogStrategy::RoundRobin,
            layout_name: format!(
                "{} @ L={} LA={} (3-D)",
                spec.name, opts.layers, opts.active_layers
            ),
            pdk: opts.pdk.clone(),
        };
        run_pipeline(spec, &cfg, s)
    })
}

#[cfg(test)]
#[path = "../../grid/tests/support/naive_checker.rs"]
mod naive_checker;

#[cfg(test)]
mod tests {
    use super::naive_checker::naive_check;
    use super::*;
    use crate::engine::layout_digest;
    use crate::families;
    use mlv_grid::checker::check;
    use mlv_grid::streaming::metrics_stream;
    use mlv_grid::LayoutMetrics;

    #[test]
    fn tile_table_is_small() {
        let fam = families::hypercube(6);
        let tiled = realize_tiled(&fam.spec, &RealizeOptions::with_layers(4));
        assert_eq!(tiled.instances.len(), fam.spec.wire_count());
        assert!(
            tiled.tiles.len() <= 8,
            "expected a handful of shapes, got {}",
            tiled.tiles.len()
        );
        // every tile id in range, every shape distinct
        for i in &tiled.instances {
            assert!((i.tile as usize) < tiled.tiles.len());
        }
        for (a, sa) in tiled.tiles.iter().enumerate() {
            for sb in &tiled.tiles[a + 1..] {
                assert_ne!(sa, sb);
            }
        }
    }

    /// At L = 4, the tile walk's metrics and report equal the materialized
    /// layout's, and the report equals the naive point-set checker's.
    fn assert_walk_matches_materialized(fam: &families::Family) {
        let tiled = realize_tiled(&fam.spec, &RealizeOptions::with_layers(4));
        let flat = tiled.materialize();
        assert_eq!(metrics_stream(&tiled), LayoutMetrics::of(&flat));
        let report = check(&tiled, Some(&fam.graph));
        assert!(report.is_legal(), "{}: {:?}", fam.spec.name, report.errors);
        assert_eq!(report, naive_check(&flat, Some(&fam.graph)));
    }

    #[test]
    fn streaming_walk_matches_materialized_layout() {
        for fam in [
            families::hsn(2, 4),
            families::hypercube(10),
            families::karyn_cube(4, 5, false),
        ] {
            assert_walk_matches_materialized(&fam);
        }
    }

    /// The same differential at 2¹² nodes: ~30 s each in a debug build,
    /// so CI runs it by name in release with `--ignored`.
    #[test]
    #[ignore]
    fn streaming_walk_matches_materialized_layout_at_4096_nodes() {
        for fam in [families::hypercube(12), families::karyn_cube(4, 6, false)] {
            assert_walk_matches_materialized(&fam);
        }
    }

    #[test]
    fn tiled_3d_matches_flat_3d_and_uses_risers() {
        let fam = families::karyn_cube(4, 2, false);
        let opts = Realize3dOptions {
            layers: 8,
            active_layers: 2,
            node_side: None,
            pdk: None,
        };
        let flat = crate::realize3d::realize_3d(&fam.spec, &opts);
        let tiled = realize_tiled_3d(&fam.spec, &opts);
        // the streamed serialization of the tiles, against the stored
        // (materialized) flat layout
        assert_eq!(layout_digest(&tiled), layout_digest(&flat));
        assert!(tiled
            .tiles
            .iter()
            .any(|t| matches!(t, TileShape::Riser { .. })));
        let report = check(&tiled, Some(&fam.graph));
        assert!(report.is_legal(), "{:?}", report.errors);
    }

    #[test]
    fn digest_is_content_keyed() {
        let fam = families::hypercube(4);
        let a = realize_tiled(&fam.spec, &RealizeOptions::with_layers(4));
        let b = realize_tiled(&fam.spec, &RealizeOptions::with_layers(4));
        assert_eq!(a.digest(), b.digest());
        let c = realize_tiled(&fam.spec, &RealizeOptions::with_layers(6));
        assert_ne!(a.digest(), c.digest());
    }
}
