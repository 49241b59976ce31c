//! A concrete realizer for the **multilayer 3-D grid model**
//! (paper §2.2) — the model with `L_A` active layers whose constructions
//! the paper defers ("will be reported in the near future").
//!
//! ## Construction
//!
//! The grid rows are cut into `L_A` contiguous blocks; block `a` becomes
//! a *slab* occupying wiring layers `[a·L/L_A, (a+1)·L/L_A)` with its
//! nodes on the slab's bottom layer. Blocks share the same planar row
//! slots, so `L_A` nodes stack over each planar position and the layout
//! height shrinks by ≈ `L_A`. Within a slab, wires route exactly as in
//! the 2-D realizer (track groups, odd/even layer split) — slabs are
//! mutually invisible because their `z` ranges are disjoint.
//!
//! **Inter-slab wires** (column wires or jogs whose endpoints land in
//! different blocks) ride *risers*: each such wire owns a private
//! `(x, y)` grid column appended to its source column's vertical gap.
//! The wire runs from its right-edge terminal to the riser inside its
//! own slab, climbs the riser through the intervening layers (no other
//! wire ever touches a riser's planar position), and finishes like a
//! jog inside the destination slab (riser-column y-run, destination row
//! bundle x-run, top-edge terminal).
//!
//! [`realize_3d`] materializes [`crate::tiled::realize_tiled_3d`]: the
//! staged [`crate::passes`] pipeline — the same four passes as
//! [`mod@crate::realize`], run with `L_A ≥ 1` slabs; the 2-D realizer is
//! exactly the `L_A = 1` special case.
//!
//! ## When it pays
//!
//! Stacking does **not** shrink wiring: a slab has `L/L_A` layers, so
//! its bundles are `L_A×` thicker in-plane and the per-slot wiring is a
//! wash. What stacking removes is the **node-footprint floor** — one
//! `s×s` footprint per slot instead of `L_A` of them — plus it costs
//! one riser column per block-crossing wire. The 3-D model therefore
//! pays off exactly where the 2-D multilayer scheme saturates: layouts
//! whose nodes (processors, not wires) dominate the area, and networks
//! with few block-crossing wires (meshes/tori: one or two ring links
//! per column per boundary; hypercubes cross everywhere). `table_3d`
//! measures this boundary; the paper's deferred general construction
//! would need a shared z-track discipline instead of private risers.

use crate::spec::OrthogonalSpec;
use mlv_grid::layout::Layout;

/// Options for 3-D realization.
#[derive(Clone, Debug)]
pub struct Realize3dOptions {
    /// Total wiring layers `L`.
    pub layers: usize,
    /// Active layers `L_A ≥ 1`; must divide `L` with `L/L_A ≥ 2`.
    pub active_layers: usize,
    /// Override the node footprint side (≥ the terminal demand). The
    /// 3-D model's payoff is proportional to the node size — see the
    /// module docs.
    pub node_side: Option<usize>,
    /// Technology stack to realize onto. `None` (and any uniform
    /// stack) is the paper's unit grid — byte-identical output to the
    /// PDK-free pipeline. Layer directions are taken per slab window,
    /// so every slab must retain at least one H/V pair.
    pub pdk: Option<mlv_grid::Pdk>,
}

impl Realize3dOptions {
    /// Check the layer budget: `L ≥ 2` total layers, `L_A ≥ 1` active
    /// layers dividing `L`, and at least two wiring layers per slab
    /// (`L/L_A ≥ 2`).
    pub fn validate(&self) -> Result<(), String> {
        let (l, la) = (self.layers, self.active_layers);
        if l < 2 {
            return Err(format!("need at least two layers, got L={l}"));
        }
        if la < 1 {
            return Err("need at least one active layer".into());
        }
        if !l.is_multiple_of(la) {
            return Err(format!("active layers L_A={la} must divide L={l}"));
        }
        if l / la < 2 {
            return Err(format!(
                "need at least two layers per slab, got L/L_A = {l}/{la}"
            ));
        }
        Ok(())
    }
}

/// Realize a spec in the multilayer 3-D grid model. With
/// `active_layers == 1` this reduces exactly to [`mod@crate::realize`]'s
/// geometry.
///
/// # Panics
/// If the spec is invalid or [`Realize3dOptions::validate`] fails.
pub fn realize_3d(spec: &OrthogonalSpec, opts: &Realize3dOptions) -> Layout {
    crate::tiled::realize_tiled_3d(spec, opts).materialize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families;
    use mlv_grid::checker;
    use mlv_grid::metrics::LayoutMetrics;

    fn check_3d(
        fam: &families::Family,
        l: usize,
        la: usize,
        node_side: Option<usize>,
    ) -> LayoutMetrics {
        let layout = realize_3d(
            &fam.spec,
            &Realize3dOptions {
                layers: l,
                active_layers: la,
                node_side,
                pdk: None,
            },
        );
        checker::assert_legal(&layout, Some(&fam.graph));
        LayoutMetrics::of(&layout)
    }

    #[test]
    fn single_slab_matches_2d() {
        let fam = families::karyn_cube(4, 2, false);
        let m3 = check_3d(&fam, 4, 1, None);
        let m2 = LayoutMetrics::of(&fam.realize(4));
        assert_eq!(m3.area, m2.area);
        assert_eq!(m3.max_wire_planar, m2.max_wire_planar);
    }

    #[test]
    fn torus_stacks_legally() {
        // minimal node sizes: stacking saves little or even loses to
        // riser/terminal overhead — the wash the module docs describe
        let fam = families::karyn_cube(6, 2, false);
        let m1 = check_3d(&fam, 8, 1, None);
        let m2 = check_3d(&fam, 8, 2, None);
        assert!(m2.height < m1.height);
        assert!((m2.area as f64) < 1.5 * m1.area as f64);
    }

    #[test]
    fn stacking_pays_with_real_node_sizes() {
        // processors of side 16 dominate the wiring: the 3-D model
        // recovers a large part of the L_A factor
        let fam = families::karyn_cube(6, 2, false);
        let m1 = check_3d(&fam, 8, 1, Some(16));
        let m2 = check_3d(&fam, 8, 2, Some(16));
        let m4 = check_3d(&fam, 8, 4, Some(16));
        let g2 = m1.area as f64 / m2.area as f64;
        let g4 = m1.area as f64 / m4.area as f64;
        assert!(g2 > 1.4, "LA=2 gain {g2}");
        assert!(g4 > g2, "LA=4 gain {g4} <= LA=2 gain {g2}");
    }

    #[test]
    fn mesh_with_node_sizes() {
        let fam = families::karyn_mesh(6, 2);
        let m1 = check_3d(&fam, 12, 1, Some(16));
        let m3 = check_3d(&fam, 12, 3, Some(16));
        assert!(
            (m3.area as f64) < 0.6 * m1.area as f64,
            "3-D area {} vs 2-D {}",
            m3.area,
            m1.area
        );
    }

    #[test]
    fn hypercube_pays_for_risers_but_stays_legal() {
        let fam = families::hypercube(5);
        let _ = check_3d(&fam, 8, 2, None);
    }

    #[test]
    fn cluster_family_with_jogs_stacks_legally() {
        let fam = families::ccc(4);
        let _ = check_3d(&fam, 8, 2, None);
        let fam = families::hsn(2, 5);
        let _ = check_3d(&fam, 8, 2, None);
    }

    #[test]
    fn four_slabs() {
        let fam = families::karyn_cube(8, 2, false);
        let m1 = check_3d(&fam, 16, 1, None);
        let m4 = check_3d(&fam, 16, 4, None);
        assert!(m4.height < m1.height / 2);
    }

    #[test]
    fn validate_accepts_legal_budgets() {
        for (l, la) in [(2usize, 1usize), (4, 1), (4, 2), (8, 2), (8, 4), (12, 3)] {
            let opts = Realize3dOptions {
                layers: l,
                active_layers: la,
                node_side: None,
                pdk: None,
            };
            assert!(opts.validate().is_ok(), "L={l} LA={la} should be legal");
        }
    }

    #[test]
    fn validate_rejects_non_dividing_active_layers() {
        let opts = Realize3dOptions {
            layers: 8,
            active_layers: 3,
            node_side: None,
            pdk: None,
        };
        assert!(opts.validate().unwrap_err().contains("must divide"));
    }

    #[test]
    fn validate_rejects_thin_slabs() {
        // L/L_A = 1 < 2: no room for even one x/y layer pair per slab
        let opts = Realize3dOptions {
            layers: 4,
            active_layers: 4,
            node_side: None,
            pdk: None,
        };
        assert!(opts.validate().unwrap_err().contains("per slab"));
    }

    #[test]
    fn validate_rejects_too_few_layers() {
        for (l, la) in [(1usize, 1usize), (0, 1)] {
            let opts = Realize3dOptions {
                layers: l,
                active_layers: la,
                node_side: None,
                pdk: None,
            };
            assert!(opts.validate().is_err(), "L={l} LA={la} should be rejected");
        }
        let opts = Realize3dOptions {
            layers: 8,
            active_layers: 0,
            node_side: None,
            pdk: None,
        };
        assert!(opts.validate().is_err(), "LA=0 should be rejected");
    }

    #[test]
    #[should_panic]
    fn rejects_non_dividing_active_layers() {
        let fam = families::hypercube(3);
        let _ = realize_3d(
            &fam.spec,
            &Realize3dOptions {
                layers: 8,
                active_layers: 3,
                node_side: None,
                pdk: None,
            },
        );
    }
}
