//! Cross-family conformance harness: deterministic fuzzing of the full
//! layout pipeline over a seeded parameter lattice, four oracles per
//! case, plus fault injection that must be caught by the checker.
//!
//! A run draws `cases_per_family` seeded configurations for each of the
//! [`cases::family_names`] families, realizes every one both at its
//! drawn layer budget and at the 2-layer Thompson point, and applies:
//!
//! 1. [`oracles::checker_oracle`] — grid legality against the graph;
//! 2. [`oracles::differential_oracle`] — direct vs folded-Thompson
//!    shared invariants;
//! 3. [`oracles::prediction_oracle`] — `mlv-formulas` leading-constant
//!    envelopes;
//! 4. [`oracles::tiled_oracle`] — tiled-vs-flat differential: the
//!    engine's digest, streamed from tiles, matches the materialized
//!    layout's, and the checker and metrics give the same results on
//!    both;
//! 5. [`oracles::pdk_oracle`] (PDK axis only, [`Config::pdk_axis`]) —
//!    the uniform PDK is the identity (fresh realization digest +
//!    physical metrics match the PDK-free run), the `hv6` stack
//!    realizes legally under direction/pitch checks, and physical
//!    metrics obey the pitch-scaling laws;
//!
//! and then one [`inject::Strategy`] per case (cycling so every
//! strategy — and hence every `CheckError` kind — is exercised) to a
//! clone of the layout, asserting the checker reports the strategy's
//! guaranteed error kind. With the PDK axis on, the cycle extends to
//! [`inject::Strategy::ALL_WITH_PDK`]: the PDK-only strategies mutate
//! a fresh `hv6` realization and must be caught by
//! `checker::check_with_pdk`.
//!
//! Everything is driven by the `mlv-core` RNG and executor:
//! reproduce any failure with `MLV_SEED=<printed seed>`; results are
//! byte-identical for any `MLV_THREADS` because each case re-seeds from
//! a pre-drawn sub-seed and the executor preserves item order.

pub mod cases;
pub mod inject;
pub mod oracles;

use mlv_core::exec;
use mlv_core::rng::Rng;
use mlv_grid::checker::{self, CheckError};
use mlv_grid::io::json_escape;
use mlv_layout::engine::{CheckStatus, Engine, EngineOptions, Job, JobOutcome};
use std::collections::BTreeSet;

/// Run configuration (all knobs have env fallbacks, see
/// [`Config::from_env`]).
#[derive(Clone, Debug)]
pub struct Config {
    /// Master seed; every family and case derives its own sub-seed.
    pub seed: u64,
    /// Seeded configurations drawn per family.
    pub cases_per_family: usize,
    /// Families to run (subset of [`cases::family_names`]).
    pub families: Vec<String>,
    /// Apply fault injection (on by default).
    pub inject: bool,
    /// Exercise the technology axis: run [`oracles::pdk_oracle`] per
    /// case and extend the injection cycle to the PDK-only strategies
    /// (off by default; env `MLV_PDK_AXIS=1`).
    pub pdk_axis: bool,
}

/// Default master seed (the paper's year).
pub const DEFAULT_SEED: u64 = 2000;
/// Default cases per family — at least one full cycle through the
/// injection strategies ([`inject::Strategy::ALL`]).
pub const DEFAULT_CASES: usize = 12;

impl Default for Config {
    fn default() -> Self {
        Config {
            seed: DEFAULT_SEED,
            cases_per_family: DEFAULT_CASES,
            families: cases::family_names()
                .into_iter()
                .map(String::from)
                .collect(),
            inject: true,
            pdk_axis: false,
        }
    }
}

impl Config {
    /// Default config with `MLV_SEED` / `MLV_CONFORMANCE_CASES`
    /// overrides applied (`MLV_THREADS` is honored by the `mlv-core`
    /// executor itself).
    pub fn from_env() -> Self {
        let mut c = Config::default();
        if let Some(s) = env_u64("MLV_SEED") {
            c.seed = s;
        }
        if let Some(n) = env_u64("MLV_CONFORMANCE_CASES") {
            c.cases_per_family = n as usize;
        }
        if let Some(n) = env_u64("MLV_PDK_AXIS") {
            c.pdk_axis = n != 0;
        }
        c
    }
}

fn env_u64(key: &str) -> Option<u64> {
    std::env::var(key).ok()?.trim().parse().ok()
}

/// Per-family outcome — one JSON line each in reports.
#[derive(Clone, Debug)]
pub struct FamilyResult {
    /// Family name (from [`cases::family_names`]).
    pub family: String,
    /// Cases evaluated.
    pub cases: usize,
    /// Cases carrying closed-form predictions.
    pub predicted: usize,
    /// Fault injections applied.
    pub injections: usize,
    /// FNV-1a digest of every case label in order — a fingerprint of
    /// the exact lattice the seed produced (two runs that print the
    /// same digest evaluated the same configurations).
    pub lattice: u64,
    /// `CheckError` kinds observed (and caught) across the injections.
    pub kinds: BTreeSet<&'static str>,
    /// All oracle violations and surviving injections.
    pub violations: Vec<String>,
}

impl FamilyResult {
    /// `true` when no oracle was violated and no injection survived.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// One-line JSON report, stable for a fixed seed.
    pub fn json_line(&self) -> String {
        let kinds: Vec<String> = self.kinds.iter().map(|k| format!("\"{k}\"")).collect();
        let violations: Vec<String> = self
            .violations
            .iter()
            .map(|v| format!("\"{}\"", json_escape(v)))
            .collect();
        format!(
            "{{\"family\":\"{}\",\"status\":\"{}\",\"cases\":{},\"predicted\":{},\
             \"injections\":{},\"lattice\":\"{:016x}\",\"kinds\":[{}],\"violations\":[{}]}}",
            json_escape(&self.family),
            if self.passed() { "ok" } else { "fail" },
            self.cases,
            self.predicted,
            self.injections,
            self.lattice,
            kinds.join(","),
            violations.join(",")
        )
    }
}

/// Whole-run outcome.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Master seed the run used (echo for reproduction).
    pub seed: u64,
    /// Whether the technology axis was on ([`Config::pdk_axis`]).
    pub pdk_axis: bool,
    /// One result per requested family, in request order.
    pub results: Vec<FamilyResult>,
}

impl RunReport {
    /// `CheckError` kinds *not* observed by any injection this run —
    /// must be empty for a full-lattice run with injection enabled.
    /// Without the PDK axis the direction/pitch kinds
    /// ([`CheckError::PDK_KINDS`]) are unreachable and excluded from
    /// the accounting.
    pub fn uncovered_kinds(&self) -> Vec<&'static str> {
        let covered: BTreeSet<&str> = self
            .results
            .iter()
            .flat_map(|r| r.kinds.iter().copied())
            .collect();
        CheckError::KINDS
            .iter()
            .copied()
            .filter(|k| self.pdk_axis || !CheckError::PDK_KINDS.contains(k))
            .filter(|k| !covered.contains(k))
            .collect()
    }

    /// `true` when every family passed and (with injection) every
    /// error kind was exercised.
    pub fn passed(&self, require_full_coverage: bool) -> bool {
        self.results.iter().all(|r| r.passed())
            && (!require_full_coverage || self.uncovered_kinds().is_empty())
    }
}

use mlv_grid::hasher::{fnv1a, FNV_BASIS};

/// FNV-1a digest over case labels in order — the per-family lattice
/// fingerprint [`FamilyResult::lattice`] reports. Exposed so fixture
/// tests can pin the digests a seed must produce without running the
/// oracles.
pub fn lattice_digest<'a>(labels: impl IntoIterator<Item = &'a str>) -> u64 {
    labels
        .into_iter()
        .fold(FNV_BASIS, |h, l| fnv1a(h, l.as_bytes()))
}

/// Stable per-family sub-seed (re-exported from the batch engine so
/// the harness and `mlv sweep --lattice` derive identical per-family
/// RNG streams from one formula).
pub use mlv_layout::engine::family_seed;

/// Execute the conformance run described by `config`.
///
/// Realizations go through one [`mlv_layout::engine::Engine`] shared
/// across every family: each case's direct and Thompson layouts are
/// one engine batch, so duplicate specs — every `L = 2` draw's
/// Thompson twin, and re-drawn parameters from small pools — are
/// realized once and served from the memo cache thereafter.
pub fn run(config: &Config) -> RunReport {
    let mut engine = Engine::new(EngineOptions {
        check: true,
        keep_layouts: true,
        cache_capacity: 4096,
    });
    let results = config
        .families
        .iter()
        .map(|name| run_family(name, config, &mut engine))
        .collect();
    RunReport {
        seed: config.seed,
        pdk_axis: config.pdk_axis,
        results,
    }
}

fn run_family(name: &str, config: &Config, engine: &mut Engine) -> FamilyResult {
    let _span = mlv_core::span!("conformance.family", name = name);
    assert!(
        cases::family_names().contains(&name),
        "unknown family '{name}' (choose from {:?})",
        cases::family_names()
    );
    // pre-draw one sub-seed per case; each case is a pure function of
    // (family, sub-seed, case index), so the report is identical for
    // every thread count
    let mut rng = Rng::seed_from_u64(family_seed(config.seed, name));
    let seeds: Vec<u64> = (0..config.cases_per_family)
        .map(|_| rng.next_u64())
        .collect();
    // stage 1 — construct the cases (parallel: pure per-seed); keep
    // each case's post-draw RNG for the injection stage so the drawn
    // sequence matches the pre-engine harness exactly
    let built: Vec<(cases::Case, Rng)> = exec::par_map(&seeds, |_, &seed| {
        let mut rng = Rng::seed_from_u64(seed);
        let case = cases::build_case(name, &mut rng);
        (case, rng)
    });
    // stage 2 — one engine batch realizes (and checks) every direct +
    // Thompson layout; results come back in job order
    let jobs: Vec<Job> = built
        .iter()
        .flat_map(|(case, _)| {
            let at = |layers| Job {
                label: case.label.clone(),
                family: case.family.clone(),
                layers,
                pdk: None,
            };
            [at(case.layers), at(2)]
        })
        .collect();
    let batch = engine.run(&jobs);
    // stage 3 — remaining oracles + fault injection per case
    let outcomes = exec::par_map(&built, |i, (case, rng)| {
        run_case(
            case,
            rng.clone(),
            i,
            config,
            &batch.results[2 * i].outcome,
            &batch.results[2 * i + 1].outcome,
        )
    });

    let mut result = FamilyResult {
        family: name.to_string(),
        cases: outcomes.len(),
        predicted: 0,
        injections: 0,
        lattice: FNV_BASIS,
        kinds: BTreeSet::new(),
        violations: Vec::new(),
    };
    for mut o in outcomes {
        result.predicted += o.predicted as usize;
        result.injections += o.injected as usize;
        result.lattice = fnv1a(result.lattice, o.label.as_bytes());
        result.kinds.extend(o.kinds);
        result.violations.append(&mut o.violations);
    }
    result
}

struct CaseOutcome {
    label: String,
    predicted: bool,
    injected: bool,
    kinds: BTreeSet<&'static str>,
    violations: Vec<String>,
}

fn run_case(
    case: &cases::Case,
    mut rng: Rng,
    index: usize,
    config: &Config,
    direct: &JobOutcome,
    thompson: &JobOutcome,
) -> CaseOutcome {
    let _span = mlv_core::span!("conformance.case");
    // oracle 1 ran inside the engine (CheckStatus carries the same
    // truncated error summary checker_oracle printed)
    let mut violations = Vec::new();
    for (which, outcome) in [("direct", direct), ("thompson", thompson)] {
        if let CheckStatus::Illegal(summary) = &outcome.check {
            violations.push(format!(
                "[{}] {which} layout illegal: {summary}",
                case.label
            ));
        }
    }
    let dl = direct.layout.as_ref().expect("engine run keeps layouts");
    let tl = thompson.layout.as_ref().expect("engine run keeps layouts");
    violations.extend(oracles::differential_oracle(
        case,
        dl,
        &direct.metrics,
        tl,
        &thompson.metrics,
    ));
    violations.extend(oracles::prediction_oracle(
        case,
        &direct.metrics,
        &thompson.metrics,
    ));
    violations.extend(oracles::tiled_oracle(case, direct));
    if config.pdk_axis {
        violations.extend(oracles::pdk_oracle(case, direct));
    }

    let mut kinds = BTreeSet::new();
    let mut injected = false;
    if config.inject {
        // cycle so every strategy appears within one trip through the
        // axis-dependent strategy list
        let cycle: &[inject::Strategy] = if config.pdk_axis {
            &inject::Strategy::ALL_WITH_PDK
        } else {
            &inject::Strategy::ALL
        };
        let strategy = cycle[index % cycle.len()];
        // PDK-only strategies need direction/pitch structure to
        // violate: mutate a fresh hv6 realization instead of the
        // engine's uniform layout, and check against that stack
        let hv6 = strategy.needs_pdk().then(mlv_grid::pdk::Pdk::hv6);
        let mut mutated = match &hv6 {
            Some(pdk) => mlv_layout::realize(
                &case.family.spec,
                &mlv_layout::RealizeOptions::with_pdk(case.layers, pdk.clone()),
            ),
            None => dl.clone(),
        };
        if let Some(done) = inject::inject_with_pdk(&mut mutated, strategy, &mut rng, hv6.as_ref())
        {
            injected = true;
            let report = match &hv6 {
                Some(pdk) => checker::check_with_pdk(&mutated, Some(&case.family.graph), pdk),
                None => checker::check(&mutated, Some(&case.family.graph)),
            };
            let seen: BTreeSet<&'static str> = report.errors.iter().map(|e| e.kind()).collect();
            if !seen.contains(strategy.expected_kind()) {
                violations.push(format!(
                    "[{}] injection {} survived ({}): expected {}, checker saw {:?}",
                    case.label,
                    strategy.name(),
                    done.detail,
                    strategy.expected_kind(),
                    seen
                ));
            }
            kinds.extend(seen);
        }
    }
    mlv_core::counter!("conformance.injections", injected as u64);
    mlv_core::counter!("conformance.violations", violations.len() as u64);
    CaseOutcome {
        label: case.label.clone(),
        predicted: case.predicted.is_some(),
        injected,
        kinds,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlv_grid::metrics::LayoutMetrics;

    #[test]
    fn family_seeds_are_stable_and_distinct() {
        let a = family_seed(7, "hypercube");
        assert_eq!(a, family_seed(7, "hypercube"));
        assert_ne!(a, family_seed(8, "hypercube"));
        let distinct: BTreeSet<u64> = cases::family_names()
            .iter()
            .map(|f| family_seed(7, f))
            .collect();
        assert_eq!(distinct.len(), cases::family_names().len());
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        // the shared escaper: named escapes for tab and CR, and DEL
        // escaped like the C0 controls
        assert_eq!(json_escape("a\tb\rc\x7fd\x01"), "a\\tb\\rc\\u007fd\\u0001");
    }

    /// Envelope recalibration sweep: prints observed Thompson-point
    /// ratio extremes per family over a dense seeded sample of the
    /// lattice. Run after layout-engine changes with
    /// `cargo test -p mlv-conformance tune_envelopes -- --ignored --nocapture`
    /// and update the `*_ENV` constants in the mlv-layout registry
    /// (keep ≥ 25% slack beyond the printed extremes).
    #[test]
    #[ignore]
    fn tune_envelopes() {
        for name in cases::family_names() {
            let mut rng = Rng::seed_from_u64(family_seed(DEFAULT_SEED, name));
            let (mut alo, mut ahi) = (f64::INFINITY, 0.0f64);
            let (mut wlo, mut whi) = (f64::INFINITY, 0.0f64);
            let mut any = false;
            for _ in 0..64 {
                let mut case_rng = Rng::seed_from_u64(rng.next_u64());
                let case = cases::build_case(name, &mut case_rng);
                let Some(pred) = &case.predicted else {
                    continue;
                };
                any = true;
                let tm = LayoutMetrics::of(&case.family.realize(2));
                let ar = tm.area as f64 / pred.at_thompson.area;
                alo = alo.min(ar);
                ahi = ahi.max(ar);
                if let Some(pw) = pred.at_thompson.max_wire {
                    let wr = tm.max_wire_planar as f64 / pw;
                    wlo = wlo.min(wr);
                    whi = whi.max(wr);
                }
            }
            if any {
                println!("{name:10} area [{alo:.3}, {ahi:.3}]  wire [{wlo:.3}, {whi:.3}]");
            } else {
                println!("{name:10} (no closed-form prediction)");
            }
        }
    }

    #[test]
    fn run_is_observable_under_a_trace() {
        let config = Config {
            seed: 1,
            cases_per_family: 3,
            families: vec!["hypercube".into(), "mesh".into()],
            inject: true,
            pdk_axis: false,
        };
        let trace = mlv_core::trace::Trace::new();
        let report = trace.collect(|| run(&config));
        let agg = trace.aggregate();
        // one family span per family (keyed by name), one case span
        // per evaluated case
        for f in &config.families {
            let key = format!("conformance.family{{name={f}}}");
            let s = agg.span(&key).unwrap_or_else(|| panic!("missing {key}"));
            assert_eq!(s.count, 1);
        }
        let cases = agg.span("conformance.case").expect("case span");
        assert_eq!(cases.count as usize, config.families.len() * 3);
        // counters reconcile with the report
        let injected: u64 = report.results.iter().map(|r| r.injections as u64).sum();
        assert!(injected > 0);
        assert_eq!(agg.counter("conformance.injections"), injected);
        let violations: u64 = report
            .results
            .iter()
            .map(|r| r.violations.len() as u64)
            .sum();
        assert_eq!(agg.counter("conformance.violations"), violations);
        // the harness realizes through the engine, so pipeline pass
        // spans surface in the same aggregate
        assert!(agg.span("pipeline").is_some());
        // an identical untraced run is unaffected by observation
        let replay = run(&config);
        assert_eq!(report.results[0].json_line(), replay.results[0].json_line());
    }

    #[test]
    fn single_family_smoke() {
        let config = Config {
            seed: 1,
            cases_per_family: 3,
            families: vec!["hypercube".into()],
            inject: true,
            pdk_axis: false,
        };
        let report = run(&config);
        assert_eq!(report.results.len(), 1);
        let r = &report.results[0];
        assert!(r.passed(), "violations: {:?}", r.violations);
        assert_eq!(r.cases, 3);
        assert!(r.injections > 0);
        // partial run: full kind coverage is NOT required
        assert!(report.passed(false));
        let line = r.json_line();
        assert!(line.starts_with("{\"family\":\"hypercube\""));
        assert_eq!(line, run(&config).results[0].json_line());
    }
}
