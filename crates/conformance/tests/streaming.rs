//! Checker-vs-reference differential over the reference corpus.
//!
//! The reference corpus is every registry example spec realized at the
//! layer budgets {2, 3, 4, 8}. On each layout, legal or not, the
//! checker must produce *exactly* the report of the naive point-set
//! reference checker: same error list (values and order), same point
//! totals — and the streaming metrics must equal the flat metrics. On
//! top of the clean corpus, every [`inject::Strategy`] fault is applied
//! to a known-legal layout and must be caught with the expected
//! `CheckError` kind — and, stronger, with the reference's report.

#[path = "../../grid/tests/support/naive_checker.rs"]
mod naive_checker;

use mlv_conformance::inject;
use mlv_core::rng::Rng;
use mlv_grid::checker;
use mlv_grid::layout::Layout;
use mlv_grid::metrics::LayoutMetrics;
use mlv_layout::{families, registry};
use mlv_topology::Graph;
use naive_checker::naive_check;

/// Assert the checker's report equals the naive reference's on
/// `layout`, and the streaming metrics equal the flat ones.
fn assert_reports_agree(tag: &str, layout: &Layout, graph: Option<&Graph>) {
    assert_eq!(
        checker::check(layout, graph),
        naive_check(layout, graph),
        "{tag}: checker report diverged from the naive reference"
    );
    assert_eq!(
        mlv_grid::metrics_stream(layout),
        LayoutMetrics::of(layout),
        "{tag}: streaming metrics diverged"
    );
}

#[test]
fn streaming_checker_matches_full_on_reference_corpus() {
    let mut corpus = 0;
    for entry in registry::REGISTRY {
        let family = registry::parse(entry.example)
            .unwrap_or_else(|e| panic!("{}: bad example: {e}", entry.name));
        for layers in [2usize, 3, 4, 8] {
            let layout = family.realize(layers);
            assert_reports_agree(
                &format!("{} @ L={layers}", entry.example),
                &layout,
                Some(&family.graph),
            );
            corpus += 1;
        }
    }
    assert!(corpus >= 80, "reference corpus shrank: {corpus} layouts");
}

#[test]
fn every_injected_fault_caught_identically_through_streaming() {
    let fam = families::hypercube(4);
    let base = fam.realize(4);
    checker::assert_legal(&base, Some(&fam.graph));

    let mut rng = Rng::seed_from_u64(0x7157_11ED);
    for strategy in inject::Strategy::ALL {
        let mut mutated = base.clone();
        let Some(done) = inject::inject(&mut mutated, strategy, &mut rng) else {
            panic!(
                "{}: strategy not applicable to hypercube(4)",
                strategy.name()
            );
        };
        let report = checker::check(&mutated, Some(&fam.graph));
        let kinds: Vec<&'static str> = report.errors.iter().map(|e| e.kind()).collect();
        assert!(
            kinds.contains(&strategy.expected_kind()),
            "{} ({}): checker missed {}, saw {kinds:?}",
            strategy.name(),
            done.detail,
            strategy.expected_kind()
        );
        assert_reports_agree(
            &format!("inject {} ({})", strategy.name(), done.detail),
            &mutated,
            Some(&fam.graph),
        );
    }
}
