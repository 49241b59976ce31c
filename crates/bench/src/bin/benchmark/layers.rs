//! Per-layer metrics of a traced run, and their reconciliation with the
//! traced end-to-end time.
//!
//! The benchmark wraps each call into the program in a `bench.<layer>`
//! span; the program's own spans (`engine.*`, `pipeline`, `pass.*`,
//! `checker.check`, `serve.request`) are read, not extended. With every
//! span on one thread (see [`crate::harness::traced_run`]) a layer's
//! self time is the time of its spans minus the part its children
//! cover:
//!
//! | layer    | spans                                         | minus                       |
//! |----------|-----------------------------------------------|-----------------------------|
//! | registry | `bench.registry`                              |                             |
//! | serve    | `bench.serve`                                 | `engine.batch`, registry    |
//! | engine   | `bench.engine`, or `engine.batch` under serve | `pipeline`, `checker.check` |
//! | passes   | `pipeline` (the four `pass.*` inside)         |                             |
//! | checker  | `checker.check`                               |                             |
//! | tiled    | `bench.tiled`, `bench.streaming`, `bench.digest` | `pipeline`               |
//!
//! The serve handler parses the family spec inside `serve.request`,
//! where no span separates it; the replay parses the same spec just
//! before each request under `bench.registry` and subtracts that time
//! from the handler's (`serve.rs`).

use crate::harness::{Tally, TracedRun};
use crate::stats;
use mlv_layout::passes::PASS_SPANS;

/// Largest tolerated share of the traced end-to-end time that the layer
/// self times may miss (or exceed) it by.
const RECONCILE: f64 = 0.15;

/// Per-layer metrics of one traced run; a run whose self times do not
/// reconcile with its wall time counts as a failure, naming the gap.
pub fn per_layer(run: &TracedRun, tally: &mut Tally) -> Vec<(&'static str, f64)> {
    let agg = &run.agg;
    let ns = |key: &str| agg.span(key).map_or(0, |s| s.total_ns) as f64;
    let registry = ns("bench.registry");
    let (serve_outer, engine_outer, tiled_outer) =
        (ns("bench.serve"), ns("bench.engine"), ns("bench.tiled"));
    let (batch, classify, job) = (ns("engine.batch"), ns("engine.classify"), ns("engine.job"));
    let (pipeline, check) = (ns("pipeline"), ns("checker.check"));
    let (metrics, digest) = (ns("bench.streaming"), ns("bench.digest"));

    let served = serve_outer > 0.0;
    let serve = if served {
        serve_outer - batch - registry
    } else {
        0.0
    };
    let engine_total = if served { batch } else { engine_outer };
    // a workload realizes either through the engine or through the
    // tiled path, so every pipeline span sits under one of them
    let engine_pipeline = if tiled_outer > 0.0 { 0.0 } else { pipeline };
    let engine = engine_total - engine_pipeline - check;
    let tiled = tiled_outer - (pipeline - engine_pipeline);

    let layers = [
        ("registry", registry),
        ("serve", serve),
        ("engine", engine),
        ("passes", pipeline),
        ("checker", check),
        ("tiled", tiled),
        ("streaming", metrics),
        ("digest", digest),
    ];
    let total = run.traced.iter().sum::<f64>() * 1e9;
    let sum: f64 = layers.iter().map(|l| l.1).sum();
    let gap = (total - sum) / total;
    let negative: Vec<&str> = layers
        .iter()
        .filter(|l| l.1 < -0.01 * total)
        .map(|l| l.0)
        .collect();
    tally.check(gap.abs() <= RECONCILE && negative.is_empty(), || {
        format!(
            "layer self times sum to {:.1} ms against {:.1} ms traced ({:+.1}% gap); \
             negative self time in {negative:?}",
            sum / 1e6,
            total / 1e6,
            gap * 100.0
        )
    });

    let n = run.traced.len() as f64;
    let per_op_ms = |v: f64| v / n / 1e6;
    let pct = |v: f64| 100.0 * v / total;
    let (hits, misses) = (
        agg.counter("engine.cache.hit") as f64,
        agg.counter("engine.cache.miss") as f64,
    );
    let wires = agg
        .histograms
        .get("engine.job.wires")
        .map_or(0, |h| h.sum)
        .saturating_add(agg.counter("bench.tiled.wires")) as f64;
    let ratios: Vec<f64> = run
        .traced
        .iter()
        .zip(&run.untraced)
        .map(|(t, u)| t / u)
        .collect();
    let overhead = stats::median(&ratios) - 1.0;
    eprintln!(
        "traced {} ops: layers reconcile to {:+.2}%, tracing overhead {:+.2}%",
        run.traced.len(),
        gap * 100.0,
        overhead * 100.0
    );
    let mut out = vec![("registry.construct_ms", per_op_ms(registry))];
    out.extend(
        [
            "passes.placement_ms",
            "passes.tracks_ms",
            "passes.layers_ms",
            "passes.emit_ms",
        ]
        .into_iter()
        .zip(PASS_SPANS)
        .map(|(name, key)| (name, per_op_ms(ns(key)))),
    );
    out.extend([
        ("registry.share_pct", pct(registry)),
        ("serve.share_pct", pct(serve)),
        ("engine.share_pct", pct(engine)),
        ("engine.classify_pct", pct(classify)),
        ("engine.residual_pct", pct(job - engine_pipeline - check)),
        ("passes.share_pct", pct(pipeline)),
        ("checker.share_pct", pct(check)),
        ("tiled.realize_pct", pct(tiled)),
        ("tiled.metrics_pct", pct(metrics)),
        ("tiled.digest_pct", pct(digest)),
        ("engine.jobs", (hits + misses) / n),
        (
            "engine.hit_pct",
            if hits + misses > 0.0 {
                100.0 * hits / (hits + misses)
            } else {
                0.0
            },
        ),
        ("checker.checks", agg.counter("checker.checks") as f64 / n),
        ("passes.wires", wires / n),
        ("trace.overhead_pct", overhead * 100.0),
        ("trace.gap_pct", gap * 100.0),
    ]);
    out
}
