//! # mlv-bench
//!
//! The evaluation harness: everything needed to regenerate the paper's
//! tables from *measured*, checker-verified layouts.
//!
//! Each `src/bin/table_*.rs` binary reproduces one experiment of the
//! index in `DESIGN.md` (and `EXPERIMENTS.md` records the outcomes);
//! `tests/tables.rs` pins their output. `src/bin/benchmark/` is the
//! repository benchmark. This library holds the tables' shared plumbing:
//! measuring a family at a layer count, formatting comparison tables,
//! and the measured-vs-predicted ratio helpers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mlv_grid::checker;
use mlv_grid::metrics::LayoutMetrics;
use mlv_layout::families::Family;
use mlv_layout::realize::{align_wires, RealizeOptions};
use mlv_topology::properties::GraphProperties;

/// One measured configuration of a family.
#[derive(Clone, Debug)]
pub struct Measured {
    /// Layer count measured at.
    pub layers: usize,
    /// Full layout metrics.
    pub metrics: LayoutMetrics,
    /// Maximum total wire length along a shortest routing path
    /// (paper §1 claim 4); `None` for disconnected graphs or when
    /// skipped for size.
    pub routed: Option<u64>,
}

/// Realize a family at `layers`, assert full legality against the
/// reference graph, and collect metrics. `with_routed` additionally
/// computes the all-pairs routed-path metric (quadratic in N — keep to
/// small instances).
pub fn measure(family: &Family, layers: usize, with_routed: bool) -> Measured {
    let mut layout = family.realize(layers);
    checker::assert_legal(&layout, Some(&family.graph));
    let metrics = LayoutMetrics::of(&layout);
    let routed = if with_routed && family.graph.is_connected() {
        align_wires(&mut layout, &family.graph);
        LayoutMetrics::max_routed_path(&layout, &family.graph)
    } else {
        None
    };
    Measured {
        layers,
        metrics,
        routed,
    }
}

/// Like [`measure`] but skipping the (quadratic-ish) grid legality
/// check: the spec is still validated structurally and the wire
/// multiset is still verified against the graph, but point-disjointness
/// is not re-proved. Use for large-N rows whose constructions are
/// exercised by the checker at smaller sizes.
pub fn measure_unchecked(family: &Family, layers: usize) -> Measured {
    let layout = family.realize(layers);
    assert_eq!(
        layout.wire_multiset(),
        family.graph.edge_multiset(),
        "layout does not realize the graph"
    );
    Measured {
        layers,
        metrics: LayoutMetrics::of(&layout),
        routed: None,
    }
}

/// Like [`measure`] but with explicit realize options (node-size
/// scalability sweeps).
pub fn measure_with(family: &Family, opts: &RealizeOptions, with_routed: bool) -> Measured {
    let mut layout = family.realize_with(opts);
    checker::assert_legal(&layout, Some(&family.graph));
    let metrics = LayoutMetrics::of(&layout);
    let routed = if with_routed && family.graph.is_connected() {
        align_wires(&mut layout, &family.graph);
        LayoutMetrics::max_routed_path(&layout, &family.graph)
    } else {
        None
    };
    Measured {
        layers: opts.layers,
        metrics,
        routed,
    }
}

/// A plain-text table printer (fixed-width columns, Markdown-ish).
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("| ");
            for (i, c) in cells.iter().enumerate() {
                line.push_str(&format!("{:>width$} | ", c, width = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&fmt_row(&sep, &widths));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Format a measured/predicted ratio.
pub fn ratio(measured: f64, predicted: f64) -> String {
    if predicted == 0.0 {
        "-".to_string()
    } else {
        format!("{:.3}", measured / predicted)
    }
}

/// Format a float compactly.
pub fn f(x: f64) -> String {
    if x >= 1000.0 {
        format!("{:.3e}", x)
    } else {
        format!("{:.1}", x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlv_layout::families;

    #[test]
    fn measure_runs_and_checks() {
        let fam = families::hypercube(4);
        let m = measure(&fam, 4, true);
        assert!(m.metrics.area > 0);
        assert!(m.routed.unwrap() > 0);
    }

    #[test]
    fn table_renders() {
        let mut t = Table::new("demo", &["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("| 1 |"));
    }

    #[test]
    #[should_panic]
    fn table_rejects_bad_row() {
        let mut t = Table::new("demo", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn ratio_formatting() {
        assert_eq!(ratio(3.0, 2.0), "1.500");
        assert_eq!(ratio(1.0, 0.0), "-");
    }
}
