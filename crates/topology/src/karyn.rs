//! k-ary n-cubes (tori) and k-ary n-meshes.
//!
//! The paper's running example (§3.1): node `(i_{n−1}, …, i_0)` with each
//! digit in `0..k`; dimension-`j` links join nodes whose digit `j` differs
//! by ±1 (mod k for the torus). For `k == 2` the "+1" and "−1" neighbours
//! coincide, so each dimension contributes a single link per node pair
//! (the 2-ary n-cube *is* the hypercube).

use crate::builder::GraphBuilder;
use crate::graph::Graph;
use crate::labels::MixedRadix;

/// A k-ary n-cube together with its addressing, retaining the parameters
/// the layout generators need (which digit an edge lives in, etc.).
#[derive(Clone, Debug)]
pub struct KaryNCube {
    /// Radix (nodes per dimension).
    pub k: usize,
    /// Number of dimensions.
    pub n: usize,
    /// Whether wraparound links are present (torus) or not (mesh).
    pub wraparound: bool,
    /// The addressing system (digit 0 least significant).
    pub addr: MixedRadix,
    /// The underlying graph.
    pub graph: Graph,
}

impl KaryNCube {
    /// Build the k-ary n-cube (torus).
    pub fn torus(k: usize, n: usize) -> Self {
        Self::build(k, n, true)
    }

    /// Build the k-ary n-mesh (no wraparound links).
    pub fn mesh(k: usize, n: usize) -> Self {
        Self::build(k, n, false)
    }

    fn build(k: usize, n: usize, wraparound: bool) -> Self {
        assert!(k >= 1, "radix must be positive");
        let addr = MixedRadix::fixed(k, n);
        let nn = addr.cardinality();
        let kind = if wraparound { "cube" } else { "mesh" };
        let mut b = GraphBuilder::new(format!("{k}-ary {n}-{kind}"), nn);
        // the place value k^j of digit j: raising the digit by one adds it
        let places: Vec<usize> = std::iter::successors(Some(1usize), |p| p.checked_mul(k))
            .take(n)
            .collect();
        for i in 0..nn {
            for &place in &places {
                let d = i / place % k;
                // Generate each link once, from its lower-digit endpoint.
                if d + 1 < k {
                    b.add_edge(i as u32, (i + place) as u32);
                }
                if wraparound && d == k - 1 && k >= 3 {
                    // wrap link (k-1) -> 0
                    b.add_edge(i as u32, (i - (k - 1) * place) as u32);
                }
            }
        }
        KaryNCube {
            k,
            n,
            wraparound,
            addr,
            graph: b.build(),
        }
    }

    /// Number of nodes, `kⁿ`.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// The dimension (digit index) in which the endpoints of an edge
    /// differ. Panics if the nodes are not adjacent along exactly one
    /// dimension.
    pub fn edge_dimension(&self, u: u32, v: u32) -> usize {
        let du = self.addr.digits_of(u as usize);
        let dv = self.addr.digits_of(v as usize);
        let mut dims = (0..self.n).filter(|&j| du[j] != dv[j]);
        let j = dims.next().expect("endpoints identical");
        assert!(dims.next().is_none(), "endpoints differ in >1 dimension");
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypercube::hypercube;
    use crate::properties::GraphProperties;

    #[test]
    fn torus_edge_count() {
        // k >= 3: n*k^n links.
        let t = KaryNCube::torus(3, 2);
        assert_eq!(t.node_count(), 9);
        assert_eq!(t.graph.edge_count(), 2 * 9);
        let t = KaryNCube::torus(4, 3);
        assert_eq!(t.graph.edge_count(), 3 * 64);
    }

    /// The links of `KaryNCube::build` from digit vectors: each node's
    /// dimension-`j` neighbours by raising digit `j`, or wrapping it to 0.
    fn links_by_digits(k: usize, n: usize, wraparound: bool) -> Vec<(u32, u32)> {
        let addr = MixedRadix::fixed(k, n);
        let mut links = Vec::new();
        for i in addr.indices() {
            let digits = addr.digits_of(i);
            for j in 0..n {
                let mut to = digits.clone();
                if digits[j] + 1 < k {
                    to[j] = digits[j] + 1;
                    links.push((i as u32, addr.index_of(&to) as u32));
                }
                if wraparound && digits[j] == k - 1 && k >= 3 {
                    to[j] = 0;
                    links.push((i as u32, addr.index_of(&to) as u32));
                }
            }
        }
        links
    }

    #[test]
    fn links_in_the_order_and_ids_of_digit_vectors() {
        for k in 3..=6 {
            for n in 1..=4 {
                for (g, wrap) in [
                    (KaryNCube::torus(k, n).graph, true),
                    (KaryNCube::mesh(k, n).graph, false),
                ] {
                    let links: Vec<(u32, u32)> = g.edge_ids().map(|e| g.endpoints(e)).collect();
                    assert_eq!(links, links_by_digits(k, n, wrap), "k = {k}, n = {n}");
                }
            }
        }
    }

    #[test]
    fn binary_torus_is_hypercube() {
        let t = KaryNCube::torus(2, 4);
        let h = hypercube(4);
        assert_eq!(t.graph.edge_multiset(), h.edge_multiset());
    }

    #[test]
    fn mesh_edge_count() {
        let m = KaryNCube::mesh(4, 2);
        // per dimension: (k-1)*k^(n-1) links
        assert_eq!(m.graph.edge_count(), 2 * 3 * 4);
    }

    #[test]
    fn torus_regular() {
        let t = KaryNCube::torus(5, 2);
        assert_eq!(t.graph.regular_degree(), Some(4));
        assert!(t.graph.is_connected());
    }

    #[test]
    fn torus_diameter() {
        let t = KaryNCube::torus(4, 2);
        assert_eq!(t.graph.diameter(), Some(4)); // n * floor(k/2)
        let m = KaryNCube::mesh(4, 2);
        assert_eq!(m.graph.diameter(), Some(6)); // n * (k-1)
    }

    #[test]
    fn edge_dimension_classification() {
        let t = KaryNCube::torus(3, 3);
        for e in t.graph.edge_ids() {
            let (u, v) = t.graph.endpoints(e);
            let j = t.edge_dimension(u, v);
            assert!(j < 3);
            let du = t.addr.digit(u as usize, j) as i64;
            let dv = t.addr.digit(v as usize, j) as i64;
            let diff = (du - dv).rem_euclid(3);
            assert!(diff == 1 || diff == 2);
        }
    }

    #[test]
    fn degenerate_radix_one() {
        let t = KaryNCube::torus(1, 3);
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.graph.edge_count(), 0);
    }
}
