//! Property tests for [`mlv_core::trace`]: arbitrary nested span
//! trees aggregate the same whether recorded sequentially, recorded
//! across `exec` worker threads, or collected chunk-wise and merged —
//! and an enclosing span's total always covers its children.

use mlv_core::trace::{self, Aggregate, Trace};
use mlv_core::{exec, mlv_proptest, prop, prop_assert, prop_assert_eq};
use std::hint::black_box;

const NAMES: [&str; 4] = ["tree.a", "tree.b", "tree.c", "tree.d"];

/// Record a deterministic nested span tree derived from `v`: a chain
/// of `v % 4 + 1` nested spans, each bumping a counter and a value
/// histogram, plus one wall-clock histogram that the deterministic
/// digest must ignore.
fn run_item(v: u64) {
    fn nest(depth: usize, x: u64) {
        let _g = trace::span(NAMES[x as usize % NAMES.len()]);
        mlv_core::counter!("items.visited", 1);
        mlv_core::histogram!("items.value", x);
        if depth > 0 {
            nest(depth - 1, x / 3 + 1);
        }
    }
    let clock = std::time::Instant::now();
    nest(v as usize % 4, v);
    mlv_core::histogram!("items.spin_ns", clock.elapsed().as_nanos() as u64);
}

/// Run every item through `exec::par_map` under `threads` workers and
/// return the collected aggregate.
fn aggregate_of(threads: usize, items: &[u64]) -> Aggregate {
    let t = Trace::new();
    t.collect(|| {
        exec::with_thread_count(threads, || {
            exec::par_map(items, |_, &v| run_item(v));
        })
    });
    t.aggregate()
}

mlv_proptest! {
    cases = 24;

    /// Recording across 8 worker threads aggregates to the same
    /// deterministic lines (and digest) as a single-threaded run —
    /// the `MLV_THREADS` independence the CI byte-identity job pins.
    /// Lengths stay above `exec`'s inline threshold (64) so the
    /// 8-thread run really fans out.
    #[test]
    fn threaded_aggregate_matches_sequential(
        items in prop::vec(0u64..1000, 65..140),
    ) {
        let seq = aggregate_of(1, &items);
        let par = aggregate_of(8, &items);
        prop_assert_eq!(seq.deterministic_lines(), par.deterministic_lines());
        prop_assert_eq!(seq.digest(), par.digest());
        let visits: u64 = items.iter().map(|v| v % 4 + 1).sum();
        prop_assert_eq!(seq.counter("items.visited"), visits);
    }

    /// Chunk-wise collection plus [`Aggregate::merge`] equals one
    /// sequential trace on the deterministic view, and merge order
    /// does not matter even for the wall-clock fields.
    #[test]
    fn merged_chunks_match_sequential(
        items in prop::vec(0u64..1000, 1..80),
        chunk in 1usize..9,
    ) {
        let seq = {
            let t = Trace::new();
            t.collect(|| items.iter().for_each(|&v| run_item(v)));
            t.aggregate()
        };
        let parts: Vec<Aggregate> = items
            .chunks(chunk)
            .map(|c| {
                let t = Trace::new();
                t.collect(|| c.iter().for_each(|&v| run_item(v)));
                t.aggregate()
            })
            .collect();
        let mut forward = Aggregate::default();
        parts.iter().for_each(|p| forward.merge(p));
        let mut reverse = Aggregate::default();
        parts.iter().rev().for_each(|p| reverse.merge(p));
        prop_assert_eq!(&forward, &reverse);
        prop_assert_eq!(seq.deterministic_lines(), forward.deterministic_lines());
        prop_assert_eq!(seq.digest(), forward.digest());
    }

    /// An enclosing span's total time covers the sum of its children —
    /// the pipeline invariant (`pipeline >= placement + tracks +
    /// layers + emit`) in miniature, for arbitrary child sets.
    #[test]
    fn outer_span_covers_children(
        children in prop::vec((0usize..4, 1u64..200), 1..8),
    ) {
        let t = Trace::new();
        t.collect(|| {
            let _outer = trace::span("outer");
            for &(name, spin) in &children {
                let _c = trace::span(NAMES[name]);
                let mut acc = 0u64;
                for i in 0..spin * 50 {
                    acc = acc.wrapping_add(black_box(i));
                }
                black_box(acc);
            }
        });
        let agg = t.aggregate();
        let outer = agg.span("outer").expect("outer span recorded");
        let inner_ns: u64 = NAMES
            .iter()
            .filter_map(|n| agg.span(n))
            .map(|s| s.total_ns)
            .sum();
        prop_assert!(
            outer.total_ns >= inner_ns,
            "outer {} ns < sum of children {} ns",
            outer.total_ns,
            inner_ns
        );
        let inner_count: u64 = NAMES
            .iter()
            .filter_map(|n| agg.span(n))
            .map(|s| s.count)
            .sum();
        prop_assert_eq!(inner_count, children.len() as u64);
    }
}
