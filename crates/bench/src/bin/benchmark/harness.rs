//! What the workloads share: the tally of checked outputs, repeated
//! set-up timing, the time-budgeted operation loop, peak memory, seed
//! derivation, and the two sections of a traced run.

use crate::layers;
use crate::stats;
use mlv_core::rng::SplitMix64;
use mlv_core::trace::{Aggregate, Trace};
use std::time::Instant;

/// The seed whose outputs `expected/` pins.
pub const DEFAULT_SEED: u64 = 2000;

/// Set-up runs this many times per run; `setup_s` is the median.
const SETUP_REPS: usize = 3;

/// Every run measures at least this many operations, however short its
/// budget.
const MIN_OPS: usize = 3;

/// Input sizes: the measured ones, or the tiny ones the smoke test runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Smoke,
}

/// One invocation's settings.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// Checked outputs: how many were attempted, how many failed, and the
/// first few failures in words.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    /// Count one checked output; `what` describes it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.attempted += 1;
        } else {
            self.fail(what());
        }
    }

    /// Count one failed output.
    pub fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(what);
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for n in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(n);
            }
        }
    }
}

/// A workload's result: its checked outputs and the metrics it measured.
pub struct Report {
    pub tally: Tally,
    pub metrics: Vec<(&'static str, f64)>,
}

/// A workload measured as back-to-back operations (every workload but
/// `serve-open`).
pub trait ClosedLoop {
    type State;
    /// Which percentile of operation time `latency_tail_ms` reports;
    /// `None` reports the slowest operation.
    const TAIL: Option<f64>;
    /// Generates the inputs and warms up; timed as `setup_s`.
    fn setup(&self) -> Self::State;
    /// Operation `i`: returns the seconds spent in calls into the program
    /// and the work units done, and tallies its checked outputs.
    fn op(&self, state: &mut Self::State, i: usize, tally: &mut Tally) -> (f64, f64);
}

/// Run a closed-loop workload: end-to-end metrics untraced, per-layer
/// metrics traced.
pub fn drive<W: ClosedLoop>(w: &W, cfg: &RunConfig) -> Report {
    let mut tally = Tally::default();
    if cfg.trace {
        let run = traced_run(cfg.seconds, || w.setup(), |s, i| w.op(s, i, &mut tally).0);
        let metrics = layers::per_layer(&run, &mut tally);
        return Report { tally, metrics };
    }
    let (setup_s, mut state) = timed_setup(|| w.setup());
    let mut units = 0.0;
    let secs = run_for(cfg.seconds, |i| {
        let (s, u) = w.op(&mut state, i, &mut tally);
        units += u;
        s
    });
    let tail = match W::TAIL {
        Some(q) => {
            warn_unsupported(secs.len(), q);
            stats::percentile(&stats::sorted(&secs), q)
        }
        None => stats::sorted(&secs)[secs.len() - 1],
    };
    let [q1, q2, q3] = stats::quartiles(&secs);
    eprintln!(
        "ops: {} (quartiles {:.3} / {:.3} / {:.3} ms)",
        secs.len(),
        q1 * 1e3,
        q2 * 1e3,
        q3 * 1e3
    );
    let metrics = vec![
        ("setup_s", setup_s),
        ("peak_rss_mb", peak_rss_mb()),
        ("throughput_per_s", units / secs.iter().sum::<f64>()),
        ("latency_p50_ms", q2 * 1e3),
        ("latency_tail_ms", tail * 1e3),
    ];
    Report { tally, metrics }
}

/// Say so on stderr when fewer than ten samples lie beyond a reported
/// percentile.
pub fn warn_unsupported(n: usize, q: f64) {
    if !stats::supported(n, q) {
        eprintln!(
            "warning: p{} of {n} samples has fewer than 10 beyond it",
            q * 100.0
        );
    }
}

/// Run `setup` [`SETUP_REPS`] times, tearing each result down before the
/// next; returns the median seconds and the last result.
pub fn timed_setup<S>(mut setup: impl FnMut() -> S) -> (f64, S) {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup());
        secs.push(t.elapsed().as_secs_f64());
    }
    (stats::median(&secs), state.expect("SETUP_REPS > 0"))
}

/// Run `op(0)`, `op(1)`, … until the next one would overrun `seconds`
/// of wall time (judged by the last one's), and at least [`MIN_OPS`]
/// times; returns what they returned.
pub fn run_for<T>(seconds: f64, mut op: impl FnMut(usize) -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut last = 0.0;
    while out.len() < MIN_OPS || start.elapsed().as_secs_f64() + last <= seconds {
        let t = Instant::now();
        out.push(op(out.len()));
        last = t.elapsed().as_secs_f64();
    }
    out
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let kb = s.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Independent seed for item `i` of input stream `stream` under the run
/// seed: the same arguments always give the same seed.
pub fn sub_seed(seed: u64, stream: u64, i: u64) -> u64 {
    let mut s = SplitMix64(seed);
    let a = s.next_u64();
    SplitMix64(a ^ stream.rotate_left(40) ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// A traced run: every operation run twice, untraced and traced.
pub struct TracedRun {
    /// Seconds per operation, untraced.
    pub untraced: Vec<f64>,
    /// Seconds per operation, traced.
    pub traced: Vec<f64>,
    /// Everything the traced operations' spans and counters recorded.
    pub agg: Aggregate,
}

/// Prepare two states, then run each operation on the first untraced
/// and on the second under a trace, alternating until `seconds` are
/// spent. Alternating gives both sides the same warm-up and the same
/// machine conditions, so their ratio is the tracing overhead.
///
/// Both sides run the executor on one thread. Spans then nest on a
/// single thread, so layer self times add up to the operations' wall
/// time; on several threads, fanned-out spans overlap and their sum
/// exceeds it. The end-to-end metrics come from untraced runs that use
/// every core.
pub fn traced_run<S>(
    seconds: f64,
    mut prepare: impl FnMut() -> S,
    mut op: impl FnMut(&mut S, usize) -> f64,
) -> TracedRun {
    mlv_core::exec::with_thread_count(1, || {
        let (mut plain, mut traced) = (prepare(), prepare());
        let trace = Trace::new();
        let pairs = run_for(seconds, |i| {
            let u = op(&mut plain, i);
            (u, trace.collect(|| op(&mut traced, i)))
        });
        let (untraced, traced) = pairs.into_iter().unzip();
        TracedRun {
            untraced,
            traced,
            agg: trace.aggregate(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_seeds_are_stable_and_distinct() {
        assert_eq!(sub_seed(7, 1, 3), sub_seed(7, 1, 3));
        assert_ne!(sub_seed(7, 1, 3), sub_seed(8, 1, 3));
        assert_ne!(sub_seed(7, 1, 3), sub_seed(7, 2, 3));
        assert_ne!(sub_seed(7, 1, 3), sub_seed(7, 1, 4));
    }

    #[test]
    fn run_for_honours_the_minimum_and_the_budget() {
        let n = run_for(0.0, |_| 0.0).len();
        assert_eq!(n, MIN_OPS);
        let mut calls = 0;
        let secs = run_for(0.05, |_| {
            calls += 1;
            std::thread::sleep(std::time::Duration::from_millis(10));
            0.01
        });
        assert_eq!(secs.len(), calls);
        assert!((3..=5).contains(&calls), "{calls} ops of 10 ms in 50 ms");
    }

    #[test]
    fn tally_keeps_the_first_failures() {
        let mut t = Tally::default();
        for i in 0..20 {
            t.check(i % 2 == 0, || format!("odd {i}"));
        }
        assert_eq!((t.attempted, t.failed), (20, 10));
        assert_eq!(t.notes.len(), 8);
        assert_eq!(t.notes[0], "odd 1");
    }
}
