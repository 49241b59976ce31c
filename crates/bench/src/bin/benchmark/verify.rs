//! `verify-medium`: realize-and-check jobs on families of 10³–4·10³
//! nodes, where the legality checker is ~95% of job time. Each operation
//! is one pass — every family at three layer budgets, built from its
//! spec and run through a fresh engine, so every job is a cache miss.

use crate::expected;
use crate::harness::{sub_seed, ClosedLoop, RunConfig, Scale, Tally};
use mlv_core::rng::Rng;
use mlv_layout::engine::{layout_digest, CheckStatus, Engine, EngineOptions, Job};
use mlv_layout::registry;
use std::time::Instant;

const FAMILIES: [&str; 8] = [
    "hypercube:10",
    "hypercube:11",
    "butterfly:8",
    "ccc:8",
    "star:6",
    "karyn:8,4",
    "ghc:8,8,8",
    "hsn:3,8",
];
const SMOKE_FAMILIES: [&str; 3] = ["hypercube:4", "ccc:3", "star:4"];

/// Layer budgets in pairs of near-equal cost: `L` = 2/3 and 4/5 realize
/// the same geometry, 6/8 differ by ~10%. A pass takes one budget from
/// each pair, so the seed changes the inputs but hardly the work.
const PAIRS: [[usize; 2]; 3] = [[2, 3], [4, 5], [6, 8]];

/// Seed stream of the passes.
const PASSES: u64 = 3;

pub struct Verify {
    seed: u64,
    families: &'static [&'static str],
}

impl Verify {
    pub fn new(cfg: &RunConfig) -> Verify {
        Verify {
            seed: cfg.seed,
            families: match cfg.scale {
                Scale::Full => &FAMILIES,
                Scale::Smoke => &SMOKE_FAMILIES,
            },
        }
    }

    /// The `(family, L)` jobs of pass `i`.
    pub fn plan(&self, i: usize) -> Vec<(&'static str, usize)> {
        let mut rng = Rng::seed_from_u64(sub_seed(self.seed, PASSES, i as u64));
        self.families
            .iter()
            .flat_map(|&f| PAIRS.map(|p| p[rng.gen_range_usize(0..2)]).map(|l| (f, l)))
            .collect()
    }

    /// `expected/` lines: the layout digest of every family at every
    /// budget a pass can draw, smoke sizes included.
    pub fn expected() -> Vec<String> {
        let mut lines = Vec::new();
        for f in FAMILIES.iter().chain(&SMOKE_FAMILIES) {
            let family = registry::parse(f).expect("benchmark family specs parse");
            for l in PAIRS.into_iter().flatten() {
                lines.push(format!(
                    "{} {:016x}",
                    key(f, l),
                    layout_digest(&family.realize(l))
                ));
            }
        }
        lines
    }
}

fn key(family: &str, layers: usize) -> String {
    format!("{family}@{layers}")
}

impl ClosedLoop for Verify {
    type State = ();
    const TAIL: Option<f64> = None;

    /// Parses every spec, then warms up on one job of the last, a small
    /// family.
    fn setup(&self) {
        let mut warm = None;
        for f in self.families {
            warm = Some(registry::parse(f).expect("benchmark family specs parse"));
        }
        let warm = warm.expect("a family");
        Engine::new(EngineOptions::default()).run_one(&Job::new("warm-up", warm, 4));
    }

    fn op(&self, _: &mut (), i: usize, tally: &mut Tally) -> (f64, f64) {
        let plan = self.plan(i);
        let t = Instant::now();
        let jobs: Vec<Job> = {
            let _s = mlv_core::span!("bench.registry");
            plan.iter()
                .filter_map(|&(f, l)| registry::parse(f).ok().map(|fam| Job::new(f, fam, l)))
                .collect()
        };
        let report = {
            let _s = mlv_core::span!("bench.engine");
            Engine::new(EngineOptions::default()).run(&jobs)
        };
        let secs = t.elapsed().as_secs_f64();

        if jobs.len() != plan.len() {
            tally.fail(format!(
                "pass {i}: only {} of {} specs parsed",
                jobs.len(),
                plan.len()
            ));
        } else {
            for (r, &(f, l)) in report.results.iter().zip(&plan) {
                let o = &r.outcome;
                let pin = expected::lookup(expected::VERIFY, &key(f, l));
                tally.check(
                    o.check == CheckStatus::Legal && !r.cached && pin == Some(o.digest),
                    || {
                        format!(
                            "pass {i}: {} is {:?}, digest {:016x}, pinned {pin:x?}",
                            r.label, o.check, o.digest
                        )
                    },
                );
            }
        }
        (secs, jobs.len() as f64)
    }
}
