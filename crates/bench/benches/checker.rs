//! Bench: legality-checker throughput (the per-wire footprint lookups
//! and the point-disjointness sweep are the reproduction's hot loop) and
//! metrics aggregation.

use mlv_core::bench::{black_box, BenchGroup};
use mlv_grid::checker::check;
use mlv_grid::metrics::LayoutMetrics;
use mlv_layout::families;

fn bench_checker() {
    let mut g = BenchGroup::new("checker");
    g.sample_size(10);
    let cases = [
        ("hypercube n=8 L=2", families::hypercube(8), 2usize),
        ("hypercube n=10 L=4", families::hypercube(10), 4),
        ("GHC 16x16 L=2", families::genhyper(&[16, 16]), 2),
        ("6-ary 4-cube L=4", families::karyn_cube(6, 4, false), 4),
    ];
    for (name, fam, layers) in &cases {
        let layout = fam.realize(*layers);
        g.bench(&format!("check {name}"), || {
            let r = check(black_box(&layout), Some(&fam.graph));
            assert!(r.is_legal());
            black_box(r.wire_points)
        });
    }
    g.finish();
}

fn bench_metrics() {
    let mut g = BenchGroup::new("metrics");
    g.sample_size(20);
    let fam = families::hypercube(10);
    let layout = fam.realize(4);
    g.bench("metrics hypercube n=10", || {
        black_box(LayoutMetrics::of(&layout).area)
    });
    g.finish();
}

fn main() {
    bench_checker();
    bench_metrics();
}
