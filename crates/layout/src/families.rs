//! Per-family layout constructors — one for every network the paper
//! lays out. Each returns a [`Family`]: the reference graph and the
//! orthogonal spec, ready to realize at any layer count.
//!
//! | constructor | paper | construction |
//! |---|---|---|
//! | [`karyn_cube`] | §3.1 | product of two collinear k-ary half-cubes |
//! | [`hypercube`] | §5.1 | product of two `⌊2N/3⌋`-track half-cubes |
//! | [`genhyper`] | §4.1 | product of two collinear GHC halves |
//! | [`folded_hypercube`] | §5.3 | hypercube + diameter links |
//! | [`enhanced_cube`] | §5.3 | hypercube + random links |
//! | [`ccc`] / [`reduced_hypercube`] | §5.2 | hypercube PN cluster |
//! | [`butterfly`] | §4.2 | row-cluster quotient (GHC/hypercube) |
//! | [`hsn`] / [`hhn`] / [`isn`] | §4.3 | GHC quotient PN cluster |
//! | [`kary_cluster`] | §3.2 | k-ary n-cube PN cluster |
//! | [`generic`] + Cayley wrappers | §1/§4.3 | recursive grid fallback |

use crate::pncluster::{digit_split_arrangement, pn_cluster_spec};
use crate::product::{product_spec, standard_product_id};
use crate::realize::{realize, RealizeOptions};
use crate::scheme::{append_extra_links, grid_spec, near_square};
use crate::spec::OrthogonalSpec;
use mlv_collinear::folded::fold_outer_groups;
use mlv_collinear::genhyper::genhyper_collinear;
use mlv_collinear::hypercube::hypercube_collinear;
use mlv_collinear::karyn::kary_collinear;
use mlv_collinear::CollinearLayout;
use mlv_grid::layout::Layout;
use mlv_topology::labels::MixedRadix;
use mlv_topology::{Graph, NodeId};

/// A network family instance: ground-truth graph + orthogonal spec.
///
/// ```
/// use mlv_layout::families;
/// use mlv_grid::{checker, metrics::LayoutMetrics};
///
/// let fam = families::hypercube(5);
/// let layout = fam.realize(4); // 4 wiring layers
/// checker::assert_legal(&layout, Some(&fam.graph));
/// let m = LayoutMetrics::of(&layout);
/// assert!(m.area > 0 && m.volume == 4 * m.area);
/// ```
#[derive(Clone, Debug)]
pub struct Family {
    /// The reference network graph.
    pub graph: Graph,
    /// The orthogonal layout spec realizing exactly that graph.
    pub spec: OrthogonalSpec,
}

impl Family {
    /// Realize at `layers` wiring layers with default options.
    pub fn realize(&self, layers: usize) -> Layout {
        realize(&self.spec, &RealizeOptions::with_layers(layers))
    }

    /// Realize with explicit options (node-size scalability etc.).
    pub fn realize_with(&self, opts: &RealizeOptions) -> Layout {
        realize(&self.spec, opts)
    }
}

/// Split `n` digits into the paper's column half `⌊n/2⌋` (low digits)
/// and row half `⌈n/2⌉` (high digits).
fn halves(n: usize) -> (usize, usize) {
    (n / 2, n - n / 2)
}

/// §3.1 — k-ary n-cube. `fold` applies the paper's row/column folding
/// (shorter wires, slightly more tracks). `k = 2` delegates to the
/// hypercube construction (identical topology, better tracks).
pub fn karyn_cube(k: usize, n: usize, fold: bool) -> Family {
    assert!(k >= 2 && n >= 1);
    if k == 2 {
        return hypercube(n);
    }
    let (lo, hi) = halves(n);
    let make = |dims: usize| -> CollinearLayout {
        let base = kary_collinear(k, dims.max(1));
        if fold && dims >= 1 {
            fold_outer_groups(&base, k)
        } else {
            base
        }
    };
    let graph = mlv_topology::karyn::KaryNCube::torus(k, n).graph;
    let name = format!("{k}-ary {n}-cube{}", if fold { " (folded)" } else { "" });
    if lo == 0 {
        // single row: realize the 1-D collinear layout directly
        let row = make(hi);
        let spec = one_row_spec(name, &row);
        return Family { graph, spec };
    }
    let row = make(lo);
    let col = make(hi);
    let spec = product_spec(name, &row, &col, standard_product_id(k.pow(lo as u32)));
    Family { graph, spec }
}

/// §3.2 — k-ary n-mesh (the torus without wraparound links): the same
/// product construction over the 1-track-per-dimension mesh collinear
/// layouts.
pub fn karyn_mesh(k: usize, n: usize) -> Family {
    assert!(k >= 2 && n >= 1);
    use mlv_collinear::mesh::mesh_collinear;
    let (lo, hi) = halves(n);
    let graph = mlv_topology::karyn::KaryNCube::mesh(k, n).graph;
    let name = format!("{k}-ary {n}-mesh");
    if lo == 0 {
        let row = mesh_collinear(k, hi);
        let spec = one_row_spec(name, &row);
        return Family { graph, spec };
    }
    let row = mesh_collinear(k, lo);
    let col = mesh_collinear(k, hi);
    let spec = product_spec(name, &row, &col, standard_product_id(k.pow(lo as u32)));
    Family { graph, spec }
}

/// §5.1 with an explicit split point: the hypercube as the product of a
/// `lo`-cube (columns) and an `(n−lo)`-cube (rows). The paper's
/// `⌈n/2⌉/⌊n/2⌋` split is the area-optimal choice; other splits trade
/// aspect ratio for area (measured in the split ablation of
/// `mlv tables hypercube`).
pub fn hypercube_with_split(n: usize, lo: usize) -> Family {
    assert!(n >= 1 && lo <= n);
    let graph = mlv_topology::hypercube::hypercube(n);
    let name = format!("{n}-cube split {lo}+{}", n - lo);
    if lo == 0 || lo == n {
        let row = hypercube_collinear(n);
        let spec = one_row_spec(name, &row);
        return Family { graph, spec };
    }
    let row = hypercube_collinear(lo);
    let col = hypercube_collinear(n - lo);
    let spec = product_spec(name, &row, &col, standard_product_id(1 << lo));
    Family { graph, spec }
}

/// §5.1 — binary hypercube via the `⌊2N/3⌋`-track halves.
pub fn hypercube(n: usize) -> Family {
    assert!(n >= 1);
    let (lo, hi) = halves(n);
    let graph = mlv_topology::hypercube::hypercube(n);
    let name = format!("{n}-cube");
    if lo == 0 {
        let row = hypercube_collinear(hi);
        let spec = one_row_spec(name, &row);
        return Family { graph, spec };
    }
    let row = hypercube_collinear(lo);
    let col = hypercube_collinear(hi);
    let spec = product_spec(name, &row, &col, standard_product_id(1 << lo));
    Family { graph, spec }
}

/// §4.1 — generalized hypercube with mixed radices (least significant
/// first); low digit half becomes the columns.
pub fn genhyper(radices: &[usize]) -> Family {
    assert!(!radices.is_empty());
    let half = radices.len() / 2;
    let graph = mlv_topology::genhyper::GeneralizedHypercube::new(radices.to_vec()).graph;
    let name = graph.name().to_string();
    if half == 0 {
        let row = genhyper_collinear(radices);
        let spec = one_row_spec(name, &row);
        return Family { graph, spec };
    }
    let row = genhyper_collinear(&radices[..half]);
    let col = genhyper_collinear(&radices[half..]);
    let a_count: usize = radices[..half].iter().product();
    let spec = product_spec(name, &row, &col, standard_product_id(a_count));
    Family { graph, spec }
}

/// §5.3 — folded hypercube: the hypercube layout plus `N/2` diameter
/// links (complement pairs), appended as extra tracks/jogs.
pub fn folded_hypercube(n: usize) -> Family {
    let base = hypercube(n);
    let graph = mlv_topology::variants::folded_hypercube(n);
    let mut spec = base.spec;
    spec.name = format!("folded {n}-cube");
    let nn = 1usize << n;
    let mask = (nn - 1) as NodeId;
    let links: Vec<(NodeId, NodeId)> = (0..nn as NodeId)
        .filter(|&u| u < (u ^ mask))
        .map(|u| (u, u ^ mask))
        .collect();
    append_extra_links(&mut spec, &links);
    Family { graph, spec }
}

/// §5.3 — enhanced cube: the hypercube layout plus `N` pseudo-random
/// extra links (same seed as the topology constructor).
pub fn enhanced_cube(n: usize, seed: u64) -> Family {
    let base = hypercube(n);
    let graph = mlv_topology::variants::enhanced_cube(n, seed);
    let mut spec = base.spec;
    spec.name = format!("enhanced {n}-cube");
    // the topology constructor emits all cube links first, then the N
    // random extras — recover them from the edge list
    let cube_edges = (n << n) >> 1;
    let links: Vec<(NodeId, NodeId)> = graph
        .edge_ids()
        .skip(cube_edges)
        .map(|e| graph.endpoints(e))
        .collect();
    assert_eq!(links.len(), 1 << n);
    append_extra_links(&mut spec, &links);
    Family { graph, spec }
}

/// §5.2 — cube-connected cycles as a hypercube PN cluster: clusters are
/// the n-node cycles, arranged by the cube address's digit split.
pub fn ccc(n: usize) -> Family {
    let c = mlv_topology::ccc::Ccc::new(n);
    let addr = MixedRadix::fixed(2, n);
    let (qr, qc, pos) = digit_split_arrangement(&addr);
    let spec = pn_cluster_spec(format!("CCC({n})"), &c.graph, qr, qc, n, pos, |u| {
        ((u as usize) / n, (u as usize) % n)
    });
    Family {
        graph: c.graph,
        spec,
    }
}

/// §5.2 — reduced hypercube (hypercube clusters instead of cycles).
pub fn reduced_hypercube(n: usize) -> Family {
    let r = mlv_topology::variants::ReducedHypercube::new(n);
    let addr = MixedRadix::fixed(2, n);
    let (qr, qc, pos) = digit_split_arrangement(&addr);
    let s = n.trailing_zeros();
    let spec = pn_cluster_spec(format!("RH({s},{s})"), &r.graph, qr, qc, n, pos, |u| {
        ((u as usize) / n, (u as usize) % n)
    });
    Family {
        graph: r.graph,
        spec,
    }
}

/// §4.2 — wrapped butterfly as a PN cluster: each of the `R = 2^m` rows
/// is a cluster of its `m` levels; the quotient over rows is the m-cube
/// (radix-2 generalized hypercube) with two links per adjacent pair.
pub fn butterfly(m: usize) -> Family {
    butterfly_clustered(m, 0)
}

/// §4.2, parametric — wrapped butterfly with clusters of `r = 2^b` rows
/// (the rows sharing all but the low `b` address bits) × all `m`
/// levels, i.e. the paper's `r·(log₂R + …)`-node clusters. Adjacent
/// clusters of the quotient (m−b)-cube carry `2r` parallel links
/// (`b = 1` gives the paper's "4 links per neighbouring pair"). Larger
/// `b` trades cluster-internal width for fewer, fatter inter-cluster
/// bundles.
pub fn butterfly_clustered(m: usize, b: usize) -> Family {
    assert!(b < m, "need at least one quotient bit");
    let bf = mlv_topology::butterfly::Butterfly::wrapped(m);
    let rows = bf.rows();
    let levels = bf.levels;
    let r = 1usize << b;
    let addr = MixedRadix::fixed(2, m - b);
    let (qr, qc, pos) = digit_split_arrangement(&addr);
    let spec = pn_cluster_spec(
        format!("wrapped BF({m}) r={r}"),
        &bf.graph,
        qr,
        qc,
        r * levels,
        pos,
        move |u| {
            let (l, w) = ((u as usize) / rows, (u as usize) % rows);
            (w >> b, (w & (r - 1)) * levels + l)
        },
    );
    Family {
        graph: bf.graph,
        spec,
    }
}

/// §4.3 — hierarchical swap network over a complete-graph nucleus of
/// size `r`, `levels ≥ 2`: clusters are the nuclei, the quotient is the
/// (levels−1)-dimensional radix-r generalized hypercube with one link
/// per adjacent pair.
pub fn hsn(levels: usize, r: usize) -> Family {
    assert!(levels >= 2);
    let nucleus = mlv_topology::complete::complete(r);
    let h = mlv_topology::hsn::Hsn::new(levels, &nucleus);
    let addr = MixedRadix::fixed(r, levels - 1);
    let (qr, qc, pos) = digit_split_arrangement(&addr);
    let spec = pn_cluster_spec(
        format!("HSN({levels},K{r})"),
        &h.graph,
        qr,
        qc,
        r,
        pos,
        move |u| ((u as usize) / r, (u as usize) % r),
    );
    Family {
        graph: h.graph,
        spec,
    }
}

/// §4.3 — hierarchical hypercube network: an HSN whose nucleus is the
/// s-cube.
pub fn hhn(levels: usize, s: usize) -> Family {
    assert!(levels >= 2);
    let h = mlv_topology::hhn::Hhn::new(levels, s);
    let r = 1usize << s;
    let addr = MixedRadix::fixed(r, levels - 1);
    let (qr, qc, pos) = digit_split_arrangement(&addr);
    let spec = pn_cluster_spec(
        format!("HHN({levels},{s})"),
        &h.hsn.graph,
        qr,
        qc,
        r,
        pos,
        move |u| ((u as usize) / r, (u as usize) % r),
    );
    Family {
        graph: h.hsn.graph,
        spec,
    }
}

/// §4.3 — indirect swap network: clusters are the `l·r`-node label
/// columns, quotient the radix-r GHC with two links per adjacent pair.
pub fn isn(levels: usize, r: usize) -> Family {
    let i = mlv_topology::isn::Isn::new(levels, r);
    let labels = r.pow(levels as u32);
    let members = levels * r;
    let addr = MixedRadix::fixed(r, levels - 1);
    let (qr, qc, pos) = digit_split_arrangement(&addr);
    let spec = pn_cluster_spec(
        format!("ISN({levels},{r})"),
        &i.graph,
        qr,
        qc,
        members,
        pos,
        move |u| {
            let (stage, label) = ((u as usize) / labels, (u as usize) % labels);
            (label / r, stage * r + label % r)
        },
    );
    Family {
        graph: i.graph,
        spec,
    }
}

/// §3.2 — k-ary n-cube cluster-c.
pub fn kary_cluster(
    k: usize,
    n: usize,
    c: usize,
    kind: mlv_topology::cluster::ClusterKind,
) -> Family {
    let pc = mlv_topology::cluster::kary_cluster_c(k, n, c, kind);
    let addr = MixedRadix::fixed(k, n);
    let (qr, qc, pos) = digit_split_arrangement(&addr);
    let spec = pn_cluster_spec(
        format!("{k}-ary {n}-cube cluster-{c}"),
        &pc.graph,
        qr,
        qc,
        c,
        pos,
        |u| (pc.cluster_of(u), pc.member_of(u)),
    );
    Family {
        graph: pc.graph.clone(),
        spec,
    }
}

/// Generic recursive-grid layout of an arbitrary graph (near-square
/// node grid in id order) — the fallback the paper's techniques reduce
/// to for unstructured networks.
pub fn generic(graph: Graph) -> Family {
    let (rows, cols) = near_square(graph.node_count());
    let spec = grid_spec(graph.name().to_string(), &graph, rows, cols, move |u| {
        ((u as usize) / cols, (u as usize) % cols)
    });
    Family { graph, spec }
}

/// §1/§4.3 — star graph via the generic scheme.
pub fn star(n: usize) -> Family {
    generic(mlv_topology::cayley::star(n))
}

/// Pancake graph via the generic scheme.
pub fn pancake(n: usize) -> Family {
    generic(mlv_topology::cayley::pancake(n))
}

/// Bubble-sort graph via the generic scheme.
pub fn bubble_sort(n: usize) -> Family {
    generic(mlv_topology::cayley::bubble_sort(n))
}

/// Transposition network via the generic scheme.
pub fn transposition(n: usize) -> Family {
    generic(mlv_topology::cayley::transposition(n))
}

/// Star-connected cycles via the generic scheme.
pub fn scc(n: usize) -> Family {
    generic(mlv_topology::cayley::scc(n))
}

/// Macro-star network via the generic scheme.
pub fn macro_star(l: usize, n: usize) -> Family {
    generic(mlv_topology::cayley::macro_star(l, n))
}

/// One-row spec for degenerate (1-D) instances: the collinear layout
/// realized directly.
fn one_row_spec(name: String, row: &CollinearLayout) -> OrthogonalSpec {
    let mut spec = OrthogonalSpec::new(name, 1, row.slot_count());
    spec.node_at = row.node_at_slot.clone();
    for w in &row.wires {
        spec.row_wires.push(crate::spec::RowWire {
            row: 0,
            lo: w.lo,
            hi: w.hi,
            track: w.track,
        });
    }
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlv_grid::checker;

    fn check_family(f: &Family, layers: &[usize]) {
        assert_eq!(
            f.spec.edge_multiset(),
            f.graph.edge_multiset(),
            "{}: spec does not realize the graph",
            f.spec.name
        );
        for &l in layers {
            let layout = f.realize(l);
            checker::assert_legal(&layout, Some(&f.graph));
        }
    }

    #[test]
    fn karyn_families() {
        check_family(&karyn_cube(4, 2, false), &[2, 4]);
        check_family(&karyn_cube(3, 3, false), &[2, 6]);
        check_family(&karyn_cube(4, 2, true), &[2, 4]);
        check_family(&karyn_cube(5, 1, false), &[2]);
    }

    #[test]
    fn mesh_families() {
        check_family(&karyn_mesh(4, 2), &[2, 4]);
        check_family(&karyn_mesh(3, 3), &[2, 4]);
        check_family(&karyn_mesh(6, 1), &[2]);
        // mesh needs fewer tracks than the torus
        use mlv_grid::metrics::LayoutMetrics;
        let mt = LayoutMetrics::of(&karyn_mesh(5, 2).realize(2));
        let tt = LayoutMetrics::of(&karyn_cube(5, 2, false).realize(2));
        assert!(mt.area < tt.area);
    }

    #[test]
    fn binary_karyn_delegates_to_hypercube() {
        let f = karyn_cube(2, 4, false);
        check_family(&f, &[2]);
        assert_eq!(f.spec.name, "4-cube");
    }

    #[test]
    fn hypercube_families() {
        check_family(&hypercube(1), &[2]);
        check_family(&hypercube(4), &[2, 4]);
        check_family(&hypercube(6), &[2, 8]);
    }

    #[test]
    fn hypercube_splits() {
        use mlv_grid::metrics::LayoutMetrics;
        for lo in [0usize, 1, 2, 3, 5, 6] {
            check_family(&hypercube_with_split(6, lo), &[2]);
        }
        // the balanced split is never worse than the extremes
        let balanced = LayoutMetrics::of(&hypercube_with_split(6, 3).realize(2)).area;
        let skewed = LayoutMetrics::of(&hypercube_with_split(6, 1).realize(2)).area;
        assert!(balanced <= skewed);
    }

    #[test]
    fn genhyper_families() {
        check_family(&genhyper(&[3, 3]), &[2, 4]);
        check_family(&genhyper(&[4, 3, 2]), &[2, 4]);
        check_family(&genhyper(&[5]), &[2]);
    }

    #[test]
    fn folded_and_enhanced() {
        check_family(&folded_hypercube(4), &[2, 4]);
        check_family(&enhanced_cube(4, 42), &[2, 4]);
    }

    #[test]
    fn cluster_families() {
        check_family(&ccc(3), &[2, 4]);
        check_family(&reduced_hypercube(4), &[2, 4]);
        check_family(&butterfly(3), &[2, 4]);
        check_family(&butterfly_clustered(4, 1), &[2, 4]);
        check_family(&butterfly_clustered(4, 2), &[2]);
    }

    #[test]
    fn swap_families() {
        check_family(&hsn(2, 4), &[2, 4]);
        check_family(&hsn(3, 3), &[2, 4]);
        check_family(&hhn(2, 2), &[2, 4]);
        check_family(&isn(2, 3), &[2, 4]);
    }

    #[test]
    fn kary_cluster_family() {
        use mlv_topology::cluster::ClusterKind;
        check_family(&kary_cluster(3, 2, 4, ClusterKind::Hypercube), &[2, 4]);
        check_family(&kary_cluster(4, 2, 3, ClusterKind::Ring), &[2]);
    }

    #[test]
    fn cayley_families() {
        check_family(&star(4), &[2, 4]);
        check_family(&pancake(4), &[2]);
        check_family(&bubble_sort(4), &[2]);
        check_family(&transposition(4), &[2]);
        check_family(&scc(4), &[2]);
    }
}
