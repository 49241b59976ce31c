//! `tiled-large`: the 2¹⁸-node rungs of the tiled ladder, the binary
//! 18-cube and the 4-ary 9-cube (2.36 M wires each). Each operation
//! builds each of them, realizes it into the tiled IR, streams its
//! metrics and digests it. Nothing is checked for legality,
//! so a checker change should not move this workload. The sizes are the
//! point, so the seed is not used.

use crate::expected;
use crate::harness::{ClosedLoop, RunConfig, Scale, Tally};
use mlv_layout::{registry, RealizeOptions};
use std::time::Instant;

const FULL: [&str; 2] = ["hypercube:18", "karyn:4,9"];
const SMOKE: [&str; 2] = ["hypercube:6", "karyn:4,3"];
const LAYERS: usize = 4;

pub struct Tiled {
    specs: [&'static str; 2],
}

impl Tiled {
    pub fn new(cfg: &RunConfig) -> Tiled {
        Tiled {
            specs: match cfg.scale {
                Scale::Full => FULL,
                Scale::Smoke => SMOKE,
            },
        }
    }

    /// `expected/` lines: the tiled digest of every rung, smoke sizes
    /// included.
    pub fn expected() -> Vec<String> {
        FULL.iter()
            .chain(&SMOKE)
            .map(|s| {
                let family = registry::parse(s).expect("benchmark family specs parse");
                let tiled =
                    mlv_layout::realize_tiled(&family.spec, &RealizeOptions::with_layers(LAYERS));
                format!("{s} {:016x}", tiled.digest())
            })
            .collect()
    }
}

impl ClosedLoop for Tiled {
    type State = ();
    const TAIL: Option<f64> = None;

    /// Builds both networks (the inputs).
    fn setup(&self) {
        for s in self.specs {
            registry::parse(s).expect("benchmark family specs parse");
        }
    }

    /// Both rungs, one after the other: a single rung per operation
    /// would make the median flip between the two rungs' times.
    fn op(&self, _: &mut (), i: usize, tally: &mut Tally) -> (f64, f64) {
        let (mut secs, mut nodes) = (0.0, 0.0);
        for spec in self.specs {
            let (s, n) = rung(spec, i, tally);
            secs += s;
            nodes += n;
        }
        (secs, nodes)
    }
}

/// One rung: build, realize tiled, stream metrics, digest. Returns the
/// seconds spent and the nodes realized.
fn rung(spec: &str, i: usize, tally: &mut Tally) -> (f64, f64) {
    let t = Instant::now();
    let Ok(family) = ({
        let _s = mlv_core::span!("bench.registry");
        registry::parse(spec)
    }) else {
        tally.fail(format!("rep {i}: {spec} does not parse"));
        return (t.elapsed().as_secs_f64(), 0.0);
    };
    let tiled = {
        let _s = mlv_core::span!("bench.tiled");
        mlv_layout::realize_tiled(&family.spec, &RealizeOptions::with_layers(LAYERS))
    };
    let metrics = {
        let _s = mlv_core::span!("bench.streaming");
        mlv_grid::metrics_stream(&tiled)
    };
    let digest = {
        let _s = mlv_core::span!("bench.digest");
        tiled.digest()
    };
    let secs = t.elapsed().as_secs_f64();

    let wires = tiled.instances.len();
    mlv_core::counter!("bench.tiled.wires", wires as u64);
    let pin = expected::lookup(expected::TILED, spec);
    tally.check(pin == Some(digest), || {
        format!("rep {i}: {spec} digest {digest:016x}, pinned {pin:x?}")
    });
    tally.check(metrics.wire_count == wires && metrics.area > 0, || {
        format!(
            "rep {i}: {spec} streams {} wires of {wires}",
            metrics.wire_count
        )
    });
    (secs, family.graph.node_count() as f64)
}
