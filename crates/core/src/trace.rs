//! Zero-dependency structured tracing + metrics: span guards with
//! nesting and monotonic timing, counters, and fixed-bucket log2
//! histograms, aggregated deterministically across threads.
//!
//! # Model
//!
//! A [`Trace`] is a collector. Installing one with [`Trace::collect`]
//! pushes its sink onto a **thread-local stack**; every event recorded
//! while the stack is non-empty updates *all* installed sinks, so a
//! nested trace (e.g. one test's trace inside a whole-run trace)
//! observes its own events while the enclosing run trace accumulates
//! them too — no explicit re-merge step. The
//! `mlv_core::exec` executor snapshots the caller's stack and installs
//! it in each scoped worker, so events from fanned-out work land in
//! the same sinks as sequential execution.
//!
//! Events come in three shapes, written with the exported macros:
//!
//! * [`span!`](crate::span) — an RAII guard; on drop it adds one
//!   occurrence and the elapsed monotonic nanoseconds under its key.
//!   Optional `key = value` fields are folded into the key as
//!   `name{key=value}`.
//! * [`counter!`](crate::counter) — adds a delta to a named `u64`
//!   total.
//! * [`histogram!`](crate::histogram) — records a `u64` value into a
//!   fixed-bucket log2 histogram ([`HIST_BUCKETS`] buckets: bucket 0
//!   holds 0, bucket *k* holds values with bit length *k*).
//!
//! # Determinism
//!
//! Aggregation is per-sink under a mutex with commutative updates
//! (sums over [`BTreeMap`] keys), and emission walks keys in sorted
//! order — so for a workload whose *event multiset* is thread-count
//! independent (everything the engine and pipeline record), the
//! aggregate is identical for any `MLV_THREADS`. Wall-clock data is
//! the one exception, and it is segregated by convention: span
//! durations and any histogram whose name ends in `_ns` are **timing**
//! data, excluded from [`Aggregate::deterministic_lines`] and hence
//! from [`Aggregate::digest`]. The digest is therefore byte-identical
//! across thread counts and is what CI pins.
//!
//! # Disabled path
//!
//! With no trace installed, every macro is a thread-local-read no-op:
//! `span!` skips even the monotonic-clock read. Instrumented hot paths
//! cost a few nanoseconds per event when tracing is off.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Number of histogram buckets: bucket 0 holds the value 0, bucket
/// `k ≥ 1` holds values `v` with `2^(k-1) <= v < 2^k` (i.e. bit
/// length `k`), up to bucket 64 for values with the top bit set.
pub const HIST_BUCKETS: usize = 65;

/// A fixed-bucket log2 histogram of `u64` values.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    /// Occurrences per log2 bucket (see [`HIST_BUCKETS`]).
    pub buckets: [u64; HIST_BUCKETS],
    /// Total values recorded.
    pub count: u64,
    /// Sum of recorded values (saturating).
    pub sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// Bucket index of a value: 0 for 0, otherwise the bit length.
    pub fn bucket_of(v: u64) -> usize {
        (u64::BITS - v.leading_zeros()) as usize
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Merge another histogram into this one (bucketwise sums).
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }
}

/// Aggregated occurrences + total duration of one span key.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Completed span guards under this key.
    pub count: u64,
    /// Total monotonic nanoseconds across those guards.
    pub total_ns: u64,
}

/// The aggregate a [`Trace`] collects: spans, counters, and histograms
/// keyed by name in sorted order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Aggregate {
    /// Span statistics by key.
    pub spans: BTreeMap<String, SpanStat>,
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
}

impl Aggregate {
    /// Merge another aggregate into this one. Merging is commutative
    /// and associative, so any merge order yields the same result.
    pub fn merge(&mut self, other: &Aggregate) {
        for (k, s) in &other.spans {
            let e = entry_mut(&mut self.spans, k);
            e.count += s.count;
            e.total_ns += s.total_ns;
        }
        for (k, v) in &other.counters {
            *entry_mut(&mut self.counters, k) += v;
        }
        for (k, h) in &other.histograms {
            entry_mut(&mut self.histograms, k).merge(h);
        }
    }

    /// Statistics of one span key, if it was recorded.
    pub fn span(&self, key: &str) -> Option<SpanStat> {
        self.spans.get(key).copied()
    }

    /// Total of one counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Full rendering: one JSON object per span/counter/histogram, in
    /// stable (type-then-name-sorted) order, including wall-clock
    /// fields. Names are escaped with the same `\xNN` rules as
    /// `mlv_grid::io` and then JSON-encoded.
    pub fn json_lines(&self) -> Vec<String> {
        self.render(true)
    }

    /// Deterministic rendering: like [`Aggregate::json_lines`] but
    /// with every wall-clock field dropped — span lines carry only
    /// their count, and histograms whose name ends in `_ns` (the
    /// timing-histogram convention) are omitted entirely. For a
    /// thread-count-independent workload these lines are
    /// byte-identical for any `MLV_THREADS`.
    pub fn deterministic_lines(&self) -> Vec<String> {
        self.render(false)
    }

    /// FNV-1a digest over [`Aggregate::deterministic_lines`] — the
    /// thread-count-independent fingerprint of a trace.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for line in self.deterministic_lines() {
            for b in line.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            h ^= b'\n' as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    fn render(&self, with_time: bool) -> Vec<String> {
        let mut out = Vec::new();
        for (k, s) in &self.spans {
            let mut line = format!(
                "{{\"type\":\"span\",\"name\":\"{}\",\"count\":{}",
                json_name(k),
                s.count
            );
            if with_time {
                let _ = write!(line, ",\"total_ns\":{}", s.total_ns);
            }
            line.push('}');
            out.push(line);
        }
        for (k, v) in &self.counters {
            out.push(format!(
                "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{}}}",
                json_name(k),
                v
            ));
        }
        for (k, h) in &self.histograms {
            if !with_time && k.ends_with("_ns") {
                continue;
            }
            let mut line = format!(
                "{{\"type\":\"histogram\",\"name\":\"{}\",\"count\":{},\"sum\":{},\"buckets\":{{",
                json_name(k),
                h.count,
                h.sum
            );
            let mut first = true;
            for (i, &b) in h.buckets.iter().enumerate() {
                if b > 0 {
                    if !first {
                        line.push(',');
                    }
                    first = false;
                    let _ = write!(line, "\"{i}\":{b}");
                }
            }
            line.push_str("}}");
            out.push(line);
        }
        out
    }
}

fn entry_mut<'a, V: Default>(map: &'a mut BTreeMap<String, V>, key: &str) -> &'a mut V {
    if !map.contains_key(key) {
        map.insert(key.to_string(), V::default());
    }
    map.get_mut(key).expect("just inserted")
}

/// Escape a metric/span name with the same rules as the layout text
/// format (`mlv_grid::io`): the backslash, ASCII whitespace, every
/// control character, and DEL become `\xNN` (two hex digits), so any
/// name renders as printable single-line ASCII-safe text.
pub fn escape_key(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        if c == '\\' || c == ' ' || (c as u32) < 0x20 || c == '\x7f' {
            let _ = write!(out, "\\x{:02x}", c as u32);
        } else {
            out.push(c);
        }
    }
    out
}

/// [`escape_key`] followed by standard JSON string escaping of the
/// result (`\` and `"`), so trace lines stay valid JSON while the
/// decoded string round-trips through `mlv_grid::io`'s unescape.
fn json_name(s: &str) -> String {
    let mut out = String::new();
    for c in escape_key(s).chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            c => out.push(c),
        }
    }
    out
}

type Sink = Arc<Mutex<Aggregate>>;

thread_local! {
    static STACK: RefCell<Vec<Sink>> = const { RefCell::new(Vec::new()) };
}

/// A trace collector. Cheap to clone (shared sink).
#[derive(Clone, Default)]
pub struct Trace {
    sink: Sink,
}

impl Trace {
    /// A fresh, empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Install this trace on the current thread for the duration of
    /// `f`. Nests: events inside `f` record into this trace *and*
    /// every enclosing one. The installation is panic-safe (the sink
    /// is popped even if `f` unwinds).
    pub fn collect<R>(&self, f: impl FnOnce() -> R) -> R {
        let _g = push(Arc::clone(&self.sink));
        f()
    }

    /// Snapshot of everything collected so far.
    pub fn aggregate(&self) -> Aggregate {
        self.sink.lock().expect("trace sink poisoned").clone()
    }

    /// [`Aggregate::digest`] of the current snapshot.
    pub fn digest(&self) -> u64 {
        self.aggregate().digest()
    }
}

/// A snapshot of the calling thread's installed traces, for handing
/// to worker threads (see [`attach`]). Created by [`snapshot`].
#[derive(Clone, Default)]
pub struct StackSnapshot(Vec<Sink>);

impl StackSnapshot {
    /// `true` when no trace was installed at snapshot time (workers
    /// can skip attaching).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Capture the current thread's trace stack. `mlv_core::exec` calls
/// this before fanning out and [`attach`]es the snapshot in each
/// worker, so traces follow work across the executor boundary.
pub fn snapshot() -> StackSnapshot {
    STACK.with(|s| StackSnapshot(s.borrow().clone()))
}

/// Run `f` with the given snapshot installed as this thread's trace
/// stack (restoring the previous stack afterwards, panic-safely).
pub fn attach<R>(snap: &StackSnapshot, f: impl FnOnce() -> R) -> R {
    struct Restore(Vec<Sink>);
    impl Drop for Restore {
        fn drop(&mut self) {
            STACK.with(|s| std::mem::swap(&mut *s.borrow_mut(), &mut self.0));
        }
    }
    let mut prev = snap.0.clone();
    STACK.with(|s| std::mem::swap(&mut *s.borrow_mut(), &mut prev));
    let _restore = Restore(prev);
    f()
}

/// `true` when at least one trace is installed on this thread —
/// events will be recorded. The macros check this first, so the
/// disabled path costs one thread-local read.
pub fn active() -> bool {
    STACK.with(|s| !s.borrow().is_empty())
}

struct PopGuard;

impl Drop for PopGuard {
    fn drop(&mut self) {
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

fn push(sink: Sink) -> PopGuard {
    STACK.with(|s| s.borrow_mut().push(sink));
    PopGuard
}

/// Apply `f` to every installed sink's aggregate.
fn record(f: impl Fn(&mut Aggregate)) {
    STACK.with(|s| {
        for sink in s.borrow().iter() {
            f(&mut sink.lock().expect("trace sink poisoned"));
        }
    });
}

/// RAII span: created by [`span!`](crate::span); on drop it records
/// one occurrence and the elapsed nanoseconds under its key. Inert
/// (no clock read, no recording) when no trace was installed at
/// creation time.
pub struct SpanGuard(Option<(Cow<'static, str>, Instant)>);

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((key, start)) = self.0.take() {
            let ns = start.elapsed().as_nanos() as u64;
            record(|agg| {
                let s = entry_mut(&mut agg.spans, &key);
                s.count += 1;
                s.total_ns += ns;
            });
        }
    }
}

/// Open a span under a fixed key (prefer the [`span!`](crate::span)
/// macro).
pub fn span(key: &'static str) -> SpanGuard {
    if !active() {
        return SpanGuard(None);
    }
    SpanGuard(Some((Cow::Borrowed(key), Instant::now())))
}

/// Open a span whose key folds in `field = value` pairs as
/// `name{a=x,b=y}` (prefer the [`span!`](crate::span) macro). Field
/// formatting is skipped entirely when tracing is off.
pub fn span_with(name: &str, fields: &[(&str, &dyn std::fmt::Display)]) -> SpanGuard {
    if !active() {
        return SpanGuard(None);
    }
    let mut key = String::with_capacity(name.len() + 16);
    key.push_str(name);
    key.push('{');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        let _ = write!(key, "{k}={v}");
    }
    key.push('}');
    SpanGuard(Some((Cow::Owned(key), Instant::now())))
}

/// Add `delta` to a named counter (prefer the
/// [`counter!`](crate::counter) macro).
pub fn add_counter(name: &str, delta: u64) {
    if delta == 0 || !active() {
        return;
    }
    record(|agg| *entry_mut(&mut agg.counters, name) += delta);
}

/// Record one value into a named log2 histogram (prefer the
/// [`histogram!`](crate::histogram) macro). By convention, name
/// histograms of wall-clock values with an `_ns` suffix so they are
/// excluded from deterministic output.
pub fn record_value(name: &str, value: u64) {
    if !active() {
        return;
    }
    record(|agg| entry_mut(&mut agg.histograms, name).record(value));
}

/// Open a [`SpanGuard`]: `span!("pass.tracks")`, or with key fields
/// `span!("conformance.family", name = family)` (fields are folded
/// into the aggregate key as `name{field=value}`). Bind the result —
/// `let _span = span!(...)` — so the guard lives to the end of the
/// scope it measures.
#[macro_export]
macro_rules! span {
    ($name:expr $(,)?) => {
        $crate::trace::span($name)
    };
    ($name:expr, $($k:ident = $v:expr),+ $(,)?) => {
        $crate::trace::span_with(
            $name,
            &[$((::core::stringify!($k), &$v as &dyn ::std::fmt::Display)),+],
        )
    };
}

/// Add to a named counter: `counter!("engine.cache.hit", 1)`.
#[macro_export]
macro_rules! counter {
    ($name:expr, $delta:expr $(,)?) => {
        $crate::trace::add_counter($name, $delta)
    };
}

/// Record a value into a named log2 histogram:
/// `histogram!("engine.job.wires", n)`. Use an `_ns` name suffix for
/// wall-clock values (excluded from deterministic output).
#[macro_export]
macro_rules! histogram {
    ($name:expr, $value:expr $(,)?) => {
        $crate::trace::record_value($name, $value)
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate as mlv_core;

    #[test]
    fn bucket_edges() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count, 6);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[2], 2);
        assert_eq!(h.buckets[64], 1);
        assert_eq!(h.sum, u64::MAX); // saturated
    }

    #[test]
    fn disabled_path_records_nothing() {
        assert!(!active());
        let _g = mlv_core::span!("never");
        mlv_core::counter!("never", 3);
        mlv_core::histogram!("never", 7);
        drop(_g);
        let t = Trace::new();
        assert_eq!(t.aggregate(), Aggregate::default());
    }

    #[test]
    fn spans_counters_histograms_aggregate() {
        let t = Trace::new();
        t.collect(|| {
            assert!(active());
            for i in 0..3u64 {
                let _s = mlv_core::span!("work");
                mlv_core::counter!("items", 2);
                mlv_core::histogram!("size", i);
            }
            let _f = mlv_core::span!("labelled", family = "hypercube", l = 4);
        });
        let a = t.aggregate();
        assert_eq!(a.span("work").unwrap().count, 3);
        assert!(a.span("work").unwrap().total_ns > 0);
        assert_eq!(a.span("labelled{family=hypercube,l=4}").unwrap().count, 1);
        assert_eq!(a.counter("items"), 6);
        let h = &a.histograms["size"];
        assert_eq!((h.count, h.sum), (3, 3));
        assert_eq!((h.buckets[0], h.buckets[1], h.buckets[2]), (1, 1, 1));
        // after collect() ends, recording is off again
        mlv_core::counter!("items", 99);
        assert_eq!(t.aggregate().counter("items"), 6);
    }

    #[test]
    fn nested_traces_both_observe() {
        let outer = Trace::new();
        let inner = Trace::new();
        outer.collect(|| {
            mlv_core::counter!("outer.only", 1);
            inner.collect(|| {
                let _s = mlv_core::span!("shared");
                mlv_core::counter!("both", 5);
            });
        });
        assert_eq!(inner.aggregate().counter("both"), 5);
        assert_eq!(inner.aggregate().counter("outer.only"), 0);
        assert_eq!(outer.aggregate().counter("both"), 5);
        assert_eq!(outer.aggregate().counter("outer.only"), 1);
        assert_eq!(outer.aggregate().span("shared").unwrap().count, 1);
    }

    #[test]
    fn attach_carries_traces_across_threads() {
        let t = Trace::new();
        t.collect(|| {
            let snap = snapshot();
            assert!(!snap.is_empty());
            std::thread::scope(|s| {
                s.spawn(|| {
                    assert!(!active());
                    attach(&snap, || mlv_core::counter!("from.worker", 7));
                    assert!(!active());
                });
            });
        });
        assert_eq!(t.aggregate().counter("from.worker"), 7);
    }

    #[test]
    fn merge_is_order_independent() {
        let mk = |n: u64| {
            let t = Trace::new();
            t.collect(|| {
                mlv_core::counter!("c", n);
                mlv_core::histogram!("h", n);
                let _s = mlv_core::span!("s");
            });
            t.aggregate()
        };
        let (a, b, c) = (mk(1), mk(2), mk(3));
        let mut ab = a.clone();
        ab.merge(&b);
        ab.merge(&c);
        let mut cb = c.clone();
        cb.merge(&b);
        cb.merge(&a);
        assert_eq!(ab.deterministic_lines(), cb.deterministic_lines());
        assert_eq!(ab.counter("c"), 6);
        assert_eq!(ab.spans["s"].count, 3);
    }

    #[test]
    fn deterministic_lines_drop_wall_clock() {
        let t = Trace::new();
        t.collect(|| {
            let _s = mlv_core::span!("p");
            mlv_core::histogram!("latency_ns", 123);
            mlv_core::histogram!("wires", 9);
            mlv_core::counter!("jobs", 1);
        });
        let full = t.aggregate().json_lines().join("\n");
        let det = t.aggregate().deterministic_lines().join("\n");
        assert!(full.contains("total_ns"));
        assert!(full.contains("latency_ns"));
        assert!(!det.contains("total_ns"), "{det}");
        assert!(!det.contains("latency_ns"), "{det}");
        assert!(det.contains("\"wires\""));
        assert!(det.contains("\"jobs\""));
        // digest covers only the deterministic part
        let again = Trace::new();
        again.collect(|| {
            let _s = mlv_core::span!("p");
            mlv_core::histogram!("latency_ns", 456789);
            mlv_core::histogram!("wires", 9);
            mlv_core::counter!("jobs", 1);
        });
        assert_eq!(t.digest(), again.digest());
    }

    #[test]
    fn json_lines_have_stable_order_and_escaping() {
        let t = Trace::new();
        t.collect(|| {
            mlv_core::counter!("b", 1);
            mlv_core::counter!("a", 1);
            let _s = mlv_core::span!("weird name\twith\\stuff");
        });
        let lines = t.aggregate().json_lines();
        // spans first, then counters sorted by name
        assert!(lines[0].starts_with("{\"type\":\"span\""));
        assert!(lines[1].contains("\"name\":\"a\""));
        assert!(lines[2].contains("\"name\":\"b\""));
        // io.rs-style \xNN escaping, JSON-encoded (backslash doubled)
        assert!(
            lines[0].contains("weird\\\\x20name\\\\x09with\\\\x5cstuff"),
            "{}",
            lines[0]
        );
        for l in &lines {
            assert_eq!(l.matches('{').count(), l.matches('}').count());
        }
    }

    #[test]
    fn escape_key_matches_io_rules() {
        assert_eq!(escape_key("plain.name"), "plain.name");
        assert_eq!(escape_key("a b"), "a\\x20b");
        assert_eq!(escape_key("a\\b"), "a\\x5cb");
        assert_eq!(escape_key("\n\x7f"), "\\x0a\\x7f");
    }

    #[test]
    fn collect_is_panic_safe() {
        let t = Trace::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.collect(|| panic!("boom"));
        }));
        assert!(result.is_err());
        assert!(!active(), "stack must be popped after a panic");
    }
}
