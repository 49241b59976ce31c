//! Realization: turning an [`OrthogonalSpec`] plus a layer budget `L`
//! into a concrete, checker-verifiable [`mlv_grid::Layout`].
//!
//! [`realize`] materializes [`crate::tiled::realize_tiled`]: the staged
//! [`crate::passes`] pipeline (placement → tracks → layers → emit), run
//! with a single slab (`L_A = 1`), emits tiles, and the flat layout is
//! expanded from them. See the pass modules for the scheme's mechanics:
//!
//! - `passes::placement` — node footprints and the terminal
//!   ordering discipline (arriving < jogging < departing wires).
//! - `passes::tracks` — round-robin track bundling over
//!   `⌊L/2⌋` groups and closed-interval jog colouring. Because the
//!   groups stack in `z`, the planar footprint of a bundle shrinks by
//!   the full factor `⌊L/2⌋` in each direction — the paper's `(L/2)²`
//!   area gain (§2.4).
//! - `passes::layers` — group `g`'s x-segments on layer `2g`,
//!   y-segments on `2g+1`; odd `L` leaves the top layer unused.
//! - `passes::emit` — prefix-sum geometry and one tile instance per
//!   wire.

use crate::passes::PassConfig;
use crate::spec::OrthogonalSpec;
use mlv_grid::layout::Layout;
use mlv_topology::{Graph, NodeId};
use std::collections::BTreeMap;

/// How jog wires are distributed over the `⌊L/2⌋` layer groups.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum JogStrategy {
    /// Round-robin over groups (default): jog track demand per gap
    /// shrinks by ≈ ⌊L/2⌋ like the construction tracks do.
    #[default]
    RoundRobin,
    /// All jogs in group 0 — an ablation baseline showing that *not*
    /// spreading the irregular wires forfeits their share of the
    /// multilayer gain.
    SingleGroup,
}

/// Options controlling realization.
#[derive(Clone, Debug)]
pub struct RealizeOptions {
    /// Number of wiring layers `L ≥ 2`.
    pub layers: usize,
    /// Override the node footprint side (must be at least the computed
    /// minimum). Used for the paper's node-size scalability experiments
    /// (§3.2: nodes may grow to `o(Area/N)` without changing leading
    /// constants).
    pub node_side: Option<usize>,
    /// Jog distribution strategy (ablation knob).
    pub jog_strategy: JogStrategy,
    /// Technology stack to realize onto. `None` (the default) and any
    /// stack with [`mlv_grid::Pdk::is_uniform`] are the paper's unit
    /// grid — byte-identical output to the PDK-free pipeline.
    pub pdk: Option<mlv_grid::Pdk>,
}

impl RealizeOptions {
    /// Default options for a given layer count.
    pub fn with_layers(layers: usize) -> Self {
        RealizeOptions {
            layers,
            node_side: None,
            jog_strategy: JogStrategy::RoundRobin,
            pdk: None,
        }
    }

    /// [`RealizeOptions::with_layers`] targeting a technology stack.
    pub fn with_pdk(layers: usize, pdk: mlv_grid::Pdk) -> Self {
        RealizeOptions {
            pdk: Some(pdk),
            ..RealizeOptions::with_layers(layers)
        }
    }
}

/// Realize a spec into a concrete multilayer grid layout: the tiled
/// realization, materialized.
///
/// # Panics
/// If the spec is invalid, `opts.layers < 2`, or `opts.node_side` is
/// below the minimum terminal demand.
pub fn realize(spec: &OrthogonalSpec, opts: &RealizeOptions) -> Layout {
    crate::tiled::realize_tiled(spec, opts).materialize()
}

pub(crate) fn pass_config(spec: &OrthogonalSpec, opts: &RealizeOptions) -> PassConfig {
    assert!(opts.layers >= 2, "need at least two layers");
    PassConfig {
        layers: opts.layers,
        active_layers: 1,
        node_side: opts.node_side,
        jog_strategy: opts.jog_strategy,
        layout_name: format!("{} @ L={}", spec.name, opts.layers),
        pdk: opts.pdk.clone(),
    }
}

/// Reorder a layout's wires so that wire `i` realizes edge `i` of the
/// reference graph (needed by the routed-path metric). Panics if the
/// multisets mismatch — run the checker first.
pub fn align_wires(layout: &mut Layout, graph: &Graph) {
    let mut pool: BTreeMap<(NodeId, NodeId), Vec<usize>> = BTreeMap::new();
    for (i, w) in layout.wires.iter().enumerate() {
        let key = if w.u <= w.v { (w.u, w.v) } else { (w.v, w.u) };
        pool.entry(key).or_default().push(i);
    }
    let mut order = Vec::with_capacity(layout.wires.len());
    for e in graph.edge_ids() {
        let key = graph.endpoints_sorted(e);
        let slot = pool
            .get_mut(&key)
            .and_then(|v| v.pop())
            .unwrap_or_else(|| panic!("no wire for edge {key:?}"));
        order.push(slot);
    }
    assert_eq!(order.len(), layout.wires.len(), "extra wires present");
    let mut new_wires = Vec::with_capacity(order.len());
    for &i in &order {
        new_wires.push(layout.wires[i].clone());
    }
    layout.wires = new_wires;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ColWire, JogWire, RowWire};
    use mlv_grid::checker;
    use mlv_grid::metrics::LayoutMetrics;

    /// 2x2 grid, one row wire + one col wire + one jog diagonal.
    fn small_spec() -> OrthogonalSpec {
        let mut s = OrthogonalSpec::new("small", 2, 2);
        s.row_wires.push(RowWire {
            row: 0,
            lo: 0,
            hi: 1,
            track: 0,
        });
        s.col_wires.push(ColWire {
            col: 0,
            lo: 0,
            hi: 1,
            track: 0,
        });
        s.jog_wires.push(JogWire {
            a: (0, 1),
            b: (1, 0),
        });
        s
    }

    #[test]
    fn small_spec_realizes_legally() {
        for layers in [2usize, 3, 4, 6] {
            let l = realize(&small_spec(), &RealizeOptions::with_layers(layers));
            checker::assert_legal(&l, None);
            assert!(l.max_used_layer() < layers as i32);
        }
    }

    #[test]
    fn ring_row_spec_exact() {
        // 1 row of 4 nodes as a ring: 3 adjacent (track 0) + wrap (track 1)
        let mut s = OrthogonalSpec::new("ring-row", 1, 4);
        for c in 0..3 {
            s.row_wires.push(RowWire {
                row: 0,
                lo: c,
                hi: c + 1,
                track: 0,
            });
        }
        s.row_wires.push(RowWire {
            row: 0,
            lo: 0,
            hi: 3,
            track: 1,
        });
        let l = realize(&s, &RealizeOptions::with_layers(2));
        checker::assert_legal(&l, None);
        let m = LayoutMetrics::of(&l);
        // node side = 3 (max 2 terminals + 1); height = side + 2 tracks
        assert_eq!(m.height, 5);
        assert_eq!(m.width, 12);
    }

    #[test]
    fn more_layers_shrink_bundles() {
        let mut s = OrthogonalSpec::new("tracks", 1, 2);
        for t in 0..8 {
            s.row_wires.push(RowWire {
                row: 0,
                lo: 0,
                hi: 1,
                track: t,
            });
        }
        let l2 = realize(&s, &RealizeOptions::with_layers(2));
        let l8 = realize(&s, &RealizeOptions::with_layers(8));
        checker::assert_legal(&l2, None);
        checker::assert_legal(&l8, None);
        let m2 = LayoutMetrics::of(&l2);
        let m8 = LayoutMetrics::of(&l8);
        // bundle shrinks from 8 rows to 2 rows
        assert_eq!(m2.height - m8.height, 6);
    }

    #[test]
    fn odd_layer_budget_uses_floor_groups() {
        let mut s = OrthogonalSpec::new("odd", 1, 2);
        for t in 0..6 {
            s.row_wires.push(RowWire {
                row: 0,
                lo: 0,
                hi: 1,
                track: t,
            });
        }
        let l5 = realize(&s, &RealizeOptions::with_layers(5));
        checker::assert_legal(&l5, None);
        // floor(5/2)=2 groups -> max layer index 3 (< 5, top layer idle)
        assert!(l5.max_used_layer() <= 3);
        let l4 = realize(&s, &RealizeOptions::with_layers(4));
        assert_eq!(LayoutMetrics::of(&l5).area, LayoutMetrics::of(&l4).area);
    }

    #[test]
    fn odd_layer_top_layer_unused_across_families() {
        // the paper's odd-L discipline: with G = floor(L/2) groups the
        // highest touchable layer is 2G-1 = L-2, so the top layer stays
        // idle for every family, and the planar result equals L-1 layers
        use crate::families;
        for fam in [
            families::hypercube(4),
            families::karyn_cube(3, 2, false),
            families::ccc(3),
        ] {
            for layers in [3usize, 5, 7] {
                let l = fam.realize(layers);
                assert!(
                    l.max_used_layer() <= layers as i32 - 2,
                    "{}: L={layers} uses top layer",
                    fam.spec.name
                );
                let even = fam.realize(layers - 1);
                assert_eq!(
                    LayoutMetrics::of(&l).area,
                    LayoutMetrics::of(&even).area,
                    "{}: odd L={layers} area differs from L-1",
                    fam.spec.name
                );
            }
        }
    }

    #[test]
    fn node_side_override() {
        let s = small_spec();
        let l = realize(
            &s,
            &RealizeOptions {
                layers: 2,
                node_side: Some(7),
                jog_strategy: Default::default(),
                pdk: None,
            },
        );
        checker::assert_legal(&l, None);
        let m = LayoutMetrics::of(&l);
        assert!(m.width >= 14);
    }

    #[test]
    #[should_panic]
    fn node_side_below_minimum_rejected() {
        let mut s = OrthogonalSpec::new("busy", 1, 2);
        for t in 0..5 {
            s.row_wires.push(RowWire {
                row: 0,
                lo: 0,
                hi: 1,
                track: t,
            });
        }
        let _ = realize(
            &s,
            &RealizeOptions {
                layers: 2,
                node_side: Some(2),
                jog_strategy: Default::default(),
                pdk: None,
            },
        );
    }

    #[test]
    fn touching_same_track_wires_realize_disjointly() {
        let mut s = OrthogonalSpec::new("touch", 1, 3);
        s.row_wires.push(RowWire {
            row: 0,
            lo: 0,
            hi: 1,
            track: 0,
        });
        s.row_wires.push(RowWire {
            row: 0,
            lo: 1,
            hi: 2,
            track: 0,
        });
        let l = realize(&s, &RealizeOptions::with_layers(2));
        checker::assert_legal(&l, None);
    }

    #[test]
    fn touching_same_track_col_wires() {
        let mut s = OrthogonalSpec::new("touch-col", 3, 1);
        s.col_wires.push(ColWire {
            col: 0,
            lo: 0,
            hi: 1,
            track: 0,
        });
        s.col_wires.push(ColWire {
            col: 0,
            lo: 1,
            hi: 2,
            track: 0,
        });
        let l = realize(&s, &RealizeOptions::with_layers(2));
        checker::assert_legal(&l, None);
    }

    #[test]
    fn many_jogs_share_gaps_legally() {
        let mut s = OrthogonalSpec::new("jogs", 4, 4);
        for r in 0..4 {
            for c in 0..4 {
                let r2 = (r + 1) % 4;
                let c2 = (c + 2) % 4;
                if r2 != r {
                    s.jog_wires.push(JogWire {
                        a: (r, c),
                        b: (r2, c2),
                    });
                }
            }
        }
        for layers in [2usize, 4, 8] {
            let l = realize(&s, &RealizeOptions::with_layers(layers));
            checker::assert_legal(&l, None);
        }
    }

    #[test]
    fn align_wires_orders_by_graph() {
        use mlv_topology::GraphBuilder;
        let mut b = GraphBuilder::new("z", 4);
        b.add_edge(2, 3); // edge 0
        b.add_edge(0, 1); // edge 1
        let g = b.build();
        let mut sp = OrthogonalSpec::new("z", 2, 2);
        sp.node_at = vec![0, 1, 2, 3];
        sp.row_wires.push(RowWire {
            row: 0,
            lo: 0,
            hi: 1,
            track: 0,
        });
        sp.row_wires.push(RowWire {
            row: 1,
            lo: 0,
            hi: 1,
            track: 0,
        });
        let mut l = realize(&sp, &RealizeOptions::with_layers(2));
        align_wires(&mut l, &g);
        let key = |i: usize| {
            let w = &l.wires[i];
            (w.u.min(w.v), w.u.max(w.v))
        };
        assert_eq!(key(0), (2, 3));
        assert_eq!(key(1), (0, 1));
    }
}
