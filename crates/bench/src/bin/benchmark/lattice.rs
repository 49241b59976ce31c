//! `lattice-sweep`: the `mlv sweep --lattice` path. Each operation builds
//! one seeded lattice batch — `lattice_jobs(seed_i, 64)`, 1664 jobs over
//! the 13 lattice families — and runs it through a fresh engine with the
//! legality check on. The layouts are small (up to ~100 nodes) and most
//! jobs hit the memo cache, so this workload shows per-job overhead:
//! job construction, engine keying and classification, placement, and
//! the checker on small inputs.

use crate::expected;
use crate::harness::{sub_seed, ClosedLoop, RunConfig, Scale, Tally, DEFAULT_SEED};
use mlv_grid::hasher::{fnv1a, FNV_BASIS};
use mlv_layout::engine::{lattice_jobs, CheckStatus, Engine, EngineOptions, Job};
use std::time::Instant;

/// Seed stream of the measured batches.
const BATCHES: u64 = 1;
/// Seed stream of the warm-up batch.
const WARM_UP: u64 = 2;

pub struct Lattice {
    seed: u64,
    cases: usize,
    pins: Option<Vec<u64>>,
}

impl Lattice {
    pub fn new(cfg: &RunConfig) -> Lattice {
        Lattice {
            seed: cfg.seed,
            cases: match cfg.scale {
                Scale::Full => 64,
                Scale::Smoke => 1,
            },
            // the batch digests are pinned for the default seed only
            pins: (cfg.seed == DEFAULT_SEED && cfg.scale == Scale::Full).then(|| {
                expected::values(expected::LATTICE)
                    .into_iter()
                    .map(|(_, v)| v)
                    .collect()
            }),
        }
    }

    /// The jobs of measured batch `i`.
    pub fn batch(&self, i: usize) -> Vec<Job> {
        lattice_jobs(sub_seed(self.seed, BATCHES, i as u64), self.cases)
    }

    /// `expected/` lines: the FNV digest of the first batches' sweep
    /// report lines.
    pub fn expected(&self) -> Vec<String> {
        (0..16)
            .map(|i| {
                let report = Engine::new(EngineOptions::default()).run(&self.batch(i));
                format!("batch-{i} {:016x}", report_digest(&report.results))
            })
            .collect()
    }
}

/// FNV-1a over a batch's `mlv sweep` report lines.
fn report_digest(results: &[mlv_layout::engine::JobResult]) -> u64 {
    results.iter().fold(FNV_BASIS, |h, r| {
        fnv1a(fnv1a(h, r.json_line().as_bytes()), b"\n")
    })
}

impl ClosedLoop for Lattice {
    type State = ();
    const TAIL: Option<f64> = Some(0.9);

    fn setup(&self) {
        let jobs = lattice_jobs(sub_seed(self.seed, WARM_UP, 0), self.cases);
        Engine::new(EngineOptions::default()).run(&jobs);
    }

    fn op(&self, _: &mut (), i: usize, tally: &mut Tally) -> (f64, f64) {
        let t = Instant::now();
        let jobs = {
            let _s = mlv_core::span!("bench.registry");
            self.batch(i)
        };
        let report = {
            let _s = mlv_core::span!("bench.engine");
            Engine::new(EngineOptions::default()).run(&jobs)
        };
        let secs = t.elapsed().as_secs_f64();

        for r in &report.results {
            tally.check(r.outcome.check == CheckStatus::Legal, || {
                format!("batch {i}: {} is {:?}", r.label, r.outcome.check)
            });
        }
        let c = report.cache;
        tally.check(c.hits + c.misses == jobs.len() as u64, || {
            format!(
                "batch {i}: {} hits + {} misses != {} jobs",
                c.hits,
                c.misses,
                jobs.len()
            )
        });
        if let Some(&pin) = self.pins.as_ref().and_then(|p| p.get(i)) {
            let got = report_digest(&report.results);
            tally.check(got == pin, || {
                format!("batch {i}: report digest {got:016x}, expected {pin:016x}")
            });
        }
        (secs, jobs.len() as f64)
    }
}
