//! Report generation: human-readable and JSON summaries of a layout.

use mlv_grid::analytics;
use mlv_grid::layout::Layout;
use mlv_grid::metrics::{LayoutMetrics, PhysicalMetrics};

/// Everything `mlv layout` reports about one realized layout.
#[derive(Clone, Debug)]
pub struct Report {
    /// Layout name.
    pub name: String,
    /// Node count.
    pub nodes: usize,
    /// Wire count.
    pub wires: usize,
    /// Headline metrics.
    pub metrics: LayoutMetrics,
    /// Maximum routed-path wire length, when computed.
    pub routed: Option<u64>,
    /// Whether the full legality check ran and passed.
    pub checked: Option<bool>,
    /// Wire points per layer.
    pub layer_usage: Vec<u64>,
    /// Horizontal-lane utilization: (lanes, mean, max).
    pub lanes: (usize, f64, f64),
    /// Wire-length stats: (mean, p50, p95, max).
    pub wire_stats: (f64, u64, u64, u64),
    /// Fraction of bounding area covered by node footprints.
    pub footprint_fraction: f64,
    /// Peak vertical-cut congestion.
    pub max_cut_flux: usize,
    /// Pitch-weighted metrics under a non-uniform stack (`--pdk`).
    pub physical: Option<PhysicalMetrics>,
}

impl Report {
    /// Collect a report from a layout and its headline metrics (the
    /// analytics read the stored geometry; checking, routing and
    /// physical metrics are recorded by the caller).
    pub fn collect(layout: &Layout, metrics: LayoutMetrics) -> Report {
        Report {
            name: layout.name.clone(),
            nodes: layout.nodes.len(),
            wires: layout.wires.len(),
            metrics,
            routed: None,
            checked: None,
            layer_usage: analytics::layer_usage(layout),
            lanes: analytics::lane_utilization(layout),
            wire_stats: analytics::wire_length_stats(layout),
            footprint_fraction: analytics::footprint_fraction(layout),
            max_cut_flux: analytics::max_cut_flux(layout),
            physical: None,
        }
    }

    /// Human-readable rendering.
    pub fn text(&self) -> String {
        let m = &self.metrics;
        let mut s = String::new();
        s.push_str(&format!("layout   : {}\n", self.name));
        s.push_str(&format!(
            "size     : {} nodes, {} wires\n",
            self.nodes, self.wires
        ));
        if let Some(ok) = self.checked {
            s.push_str(&format!(
                "legality : {}\n",
                if ok { "VERIFIED" } else { "FAILED" }
            ));
        }
        s.push_str(&format!(
            "area     : {} ({} x {}), volume {} ({} layers, {} used)\n",
            m.area,
            m.width,
            m.height,
            m.volume,
            m.layers,
            m.max_used_layer + 1
        ));
        s.push_str(&format!(
            "wires    : max {} planar / {} full, total {}, vias {}\n",
            m.max_wire_planar, m.max_wire_full, m.total_wire, m.via_count
        ));
        let (mean, p50, p95, max) = self.wire_stats;
        s.push_str(&format!(
            "lengths  : mean {mean:.1}, p50 {p50}, p95 {p95}, max {max}\n"
        ));
        if let Some(r) = self.routed {
            s.push_str(&format!("routed   : worst-pair total wire {r}\n"));
        }
        let (lanes, lmean, lmax) = self.lanes;
        s.push_str(&format!(
            "lanes    : {lanes} horizontal lanes, utilization mean {:.0}% max {:.0}%\n",
            lmean * 100.0,
            lmax * 100.0
        ));
        s.push_str(&format!(
            "density  : footprint fraction {:.1}%, peak cut flux {}\n",
            self.footprint_fraction * 100.0,
            self.max_cut_flux
        ));
        s.push_str(&format!("layers   : usage {:?}\n", self.layer_usage));
        if let Some(ph) = &self.physical {
            s.push_str(&format!(
                "physical : [{}] area {} ({} x {}), wirelength {} (vias {}), max wire {}\n",
                ph.pdk, ph.area, ph.width, ph.height, ph.wirelength, ph.via_cost, ph.max_wire
            ));
        }
        s
    }

    /// JSON rendering (hand-rolled; flat structure, no external deps).
    /// Byte-identical to the PDK-free report unless a non-uniform
    /// stack added [`Report::physical`] fields.
    pub fn json(&self) -> String {
        let m = &self.metrics;
        let (mean, p50, p95, max) = self.wire_stats;
        let (lanes, lmean, lmax) = self.lanes;
        let mut out = format!(
            concat!(
                "{{\n",
                "  \"name\": \"{}\",\n",
                "  \"nodes\": {},\n",
                "  \"wires\": {},\n",
                "  \"checked\": {},\n",
                "  \"area\": {},\n",
                "  \"width\": {},\n",
                "  \"height\": {},\n",
                "  \"volume\": {},\n",
                "  \"layers\": {},\n",
                "  \"used_layers\": {},\n",
                "  \"max_wire_planar\": {},\n",
                "  \"max_wire_full\": {},\n",
                "  \"total_wire\": {},\n",
                "  \"via_count\": {},\n",
                "  \"routed_worst_pair\": {},\n",
                "  \"wire_len_mean\": {:.3},\n",
                "  \"wire_len_p50\": {},\n",
                "  \"wire_len_p95\": {},\n",
                "  \"wire_len_max\": {},\n",
                "  \"lanes\": {},\n",
                "  \"lane_util_mean\": {:.4},\n",
                "  \"lane_util_max\": {:.4},\n",
                "  \"footprint_fraction\": {:.4},\n",
                "  \"max_cut_flux\": {},\n",
                "  \"layer_usage\": {:?}\n",
                "}}\n",
            ),
            self.name.replace('"', "'"),
            self.nodes,
            self.wires,
            self.checked.map(|b| b.to_string()).unwrap_or("null".into()),
            m.area,
            m.width,
            m.height,
            m.volume,
            m.layers,
            m.max_used_layer + 1,
            m.max_wire_planar,
            m.max_wire_full,
            m.total_wire,
            m.via_count,
            self.routed.map(|r| r.to_string()).unwrap_or("null".into()),
            mean,
            p50,
            p95,
            max,
            lanes,
            lmean,
            lmax,
            self.footprint_fraction,
            self.max_cut_flux,
            self.layer_usage,
        );
        if let Some(ph) = &self.physical {
            out.truncate(out.len() - "\n}\n".len());
            out.push_str(&format!(
                concat!(
                    ",\n",
                    "  \"pdk\": \"{}\",\n",
                    "  \"phys_width\": {},\n",
                    "  \"phys_height\": {},\n",
                    "  \"phys_area\": {},\n",
                    "  \"phys_wirelength\": {},\n",
                    "  \"phys_max_wire\": {},\n",
                    "  \"phys_via_cost\": {}\n",
                    "}}\n",
                ),
                ph.pdk.replace('"', "'"),
                ph.width,
                ph.height,
                ph.area,
                ph.wirelength,
                ph.max_wire,
                ph.via_cost,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlv_layout::families;

    #[test]
    fn report_text_and_json() {
        let layout = families::hypercube(4).realize(4);
        let mut r = Report::collect(&layout, LayoutMetrics::of(&layout));
        r.checked = Some(true);
        r.routed = Some(123);
        let t = r.text();
        assert!(t.contains("VERIFIED"));
        assert!(t.contains("area"));
        assert!(t.contains("routed"));
        let j = r.json();
        assert!(j.contains("\"checked\": true"));
        assert!(j.contains("\"routed_worst_pair\": 123"));
        // rudimentary JSON sanity: balanced braces, no trailing comma
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(!j.contains(",\n}"));
    }

    #[test]
    fn unchecked_report_serializes_null() {
        let layout = families::hypercube(3).realize(2);
        let r = Report::collect(&layout, LayoutMetrics::of(&layout));
        assert!(r.json().contains("\"checked\": null"));
    }
}
