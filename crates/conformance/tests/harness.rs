//! End-to-end conformance harness tests: the full seeded lattice is
//! clean, every `CheckError` kind is exercised by injection, and the
//! report is deterministic per seed and per thread count.

use mlv_conformance::{cases, inject, run, Config};
use mlv_core::exec;
use mlv_core::rng::Rng;
use mlv_grid::checker::{self, CheckError};
use mlv_layout::families;
use std::collections::BTreeSet;

fn json_lines(config: &Config) -> Vec<String> {
    run(config).results.iter().map(|r| r.json_line()).collect()
}

#[test]
fn full_lattice_is_clean_and_covers_every_kind() {
    let config = Config::default();
    let report = run(&config);
    assert_eq!(report.results.len(), cases::family_names().len());
    for r in &report.results {
        assert_eq!(r.cases, config.cases_per_family, "{}", r.family);
        assert!(r.injections > 0, "{}: no injection applied", r.family);
        assert!(
            r.passed(),
            "{} violations:\n{}",
            r.family,
            r.violations.join("\n")
        );
    }
    assert!(
        report.uncovered_kinds().is_empty(),
        "CheckError kinds never triggered by injection: {:?}",
        report.uncovered_kinds()
    );
    assert!(report.passed(true));
}

#[test]
fn report_is_deterministic_per_seed() {
    let config = Config {
        seed: 0xC0FFEE,
        cases_per_family: 4,
        families: vec!["hypercube".into(), "ccc".into(), "clusterc".into()],
        inject: true,
        pdk_axis: false,
    };
    assert_eq!(json_lines(&config), json_lines(&config));

    let mut other = config.clone();
    other.seed = 0xC0FFEE + 1;
    assert_ne!(
        json_lines(&config),
        json_lines(&other),
        "seed change must reach the lattice"
    );
}

#[test]
fn report_is_identical_across_thread_counts() {
    let config = Config {
        seed: 7,
        cases_per_family: 3,
        families: vec!["hypercube".into(), "genhyper".into(), "star".into()],
        inject: true,
        pdk_axis: false,
    };
    let sequential = exec::with_thread_count(1, || json_lines(&config));
    let parallel = exec::with_thread_count(8, || json_lines(&config));
    assert_eq!(sequential, parallel);
}

/// The technology axis: a full strategy cycle with `pdk_axis` on runs
/// the PDK oracle clean on every case and exercises the direction and
/// pitch error kinds that are unreachable without a stack.
#[test]
fn pdk_axis_lattice_is_clean_and_covers_pdk_kinds() {
    let config = Config {
        seed: 0xD1E,
        cases_per_family: inject::Strategy::ALL_WITH_PDK.len(),
        families: vec!["hypercube".into(), "mesh".into()],
        inject: true,
        pdk_axis: true,
    };
    let report = run(&config);
    for r in &report.results {
        assert!(
            r.passed(),
            "{} violations:\n{}",
            r.family,
            r.violations.join("\n")
        );
    }
    for kind in CheckError::PDK_KINDS {
        assert!(
            report.results.iter().any(|r| r.kinds.contains(kind)),
            "PDK axis never triggered {kind}"
        );
    }
    assert!(report.uncovered_kinds().is_empty());
    // the axis is observable in the report object, and deterministic
    let replay = run(&config);
    assert_eq!(
        report
            .results
            .iter()
            .map(|r| r.json_line())
            .collect::<Vec<_>>(),
        replay
            .results
            .iter()
            .map(|r| r.json_line())
            .collect::<Vec<_>>()
    );
}

/// Satellite guarantee: every [`CheckError`] variant — including the
/// PDK-only direction/pitch kinds — is triggered by at least one
/// injection strategy on a real layout, and no injection survives the
/// checker. Fails naming the uncovered variants.
#[test]
fn every_check_error_kind_triggered_by_injection() {
    let fam = families::hypercube(4);
    let base = fam.realize(4);
    checker::assert_legal(&base, Some(&fam.graph));
    let hv6 = mlv_grid::pdk::Pdk::hv6();
    let hv6_base = mlv_layout::realize(
        &fam.spec,
        &mlv_layout::RealizeOptions::with_pdk(4, hv6.clone()),
    );
    assert!(checker::check_with_pdk(&hv6_base, Some(&fam.graph), &hv6).is_legal());

    let mut seen: BTreeSet<&'static str> = BTreeSet::new();
    let mut survived: Vec<String> = Vec::new();
    for (i, &strategy) in inject::Strategy::ALL_WITH_PDK.iter().enumerate() {
        let mut rng = Rng::seed_from_u64(i as u64);
        let mut mutated = if strategy.needs_pdk() {
            hv6_base.clone()
        } else {
            base.clone()
        };
        let done = inject::inject_with_pdk(&mut mutated, strategy, &mut rng, Some(&hv6))
            .unwrap_or_else(|| panic!("{} not applicable to hypercube(4)", strategy.name()));
        let report = if strategy.needs_pdk() {
            checker::check_with_pdk(&mutated, Some(&fam.graph), &hv6)
        } else {
            checker::check(&mutated, Some(&fam.graph))
        };
        let kinds: BTreeSet<&'static str> = report.errors.iter().map(|e| e.kind()).collect();
        if !kinds.contains(strategy.expected_kind()) {
            survived.push(format!(
                "{} ({}): expected {}, saw {kinds:?}",
                strategy.name(),
                done.detail,
                strategy.expected_kind()
            ));
        }
        seen.extend(kinds);
    }
    assert!(
        survived.is_empty(),
        "surviving injections:\n{}",
        survived.join("\n")
    );

    let uncovered: Vec<&str> = CheckError::KINDS
        .iter()
        .copied()
        .filter(|k| !seen.contains(k))
        .collect();
    assert!(
        uncovered.is_empty(),
        "CheckError variants not covered by any injection: {uncovered:?}"
    );
}

/// The lattice reaches every advertised family and an unknown family
/// name is rejected loudly.
#[test]
fn family_vocabulary() {
    let mut rng = Rng::seed_from_u64(3);
    for name in cases::family_names() {
        let case = cases::build_case(name, &mut rng);
        assert!(case.layers >= 2, "{}", case.label);
        assert!(case.family.graph.node_count() > 0, "{}", case.label);
    }
    let bad = std::panic::catch_unwind(move || {
        let mut rng = Rng::seed_from_u64(0);
        cases::build_case("no-such-family", &mut rng)
    });
    assert!(bad.is_err());
}
