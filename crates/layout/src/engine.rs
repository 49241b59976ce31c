//! The parallel batch-realization engine: many `(family, params, L)`
//! jobs in, per-job results out, with a content-keyed memo cache in
//! the middle.
//!
//! The paper's multilayer scheme makes a single realization cheap
//! (tens of microseconds for the small lattice layouts), so
//! sweep-shaped workloads — the `(family, params, L)` grids the paper's
//! evaluation implies — are dominated by orchestration. The engine is
//! that orchestration layer, spelled once:
//!
//! * **Fan-out** — jobs are realized on `mlv_core::exec`'s
//!   scoped-thread executor (`MLV_THREADS`-aware), one leader per
//!   distinct spec; results come back **in job order** regardless of
//!   thread count. This is the only level that fans out: each job's
//!   passes, metrics and check run on its worker's thread.
//! * **Memoization** — each job is keyed by an FNV-1a digest of its
//!   canonical spec content plus the layer budget
//!   ([`mlv_grid::hasher::fnv1a`]). Repeated specs — common in sweeps,
//!   because folded/direct baselines and re-drawn lattice cases share
//!   sub-specs — are realized once; hit/miss/eviction counters are
//!   surfaced in every [`BatchReport`]. Classification happens
//!   *sequentially in job order before* the parallel fan-out, so the
//!   counters (and the `cached` flag on every result) are identical
//!   for every thread count.
//! * **Jobs run on tiles** — a job realizes into the tiled IR
//!   ([`crate::tiled::TiledLayout`]) and takes everything it reports
//!   from the tiles: full [`LayoutMetrics`], physical metrics, the
//!   legality-check status, and the layout's FNV content digest,
//!   streamed over the canonical `mlv_grid::io` serialization (the
//!   digest a materialized layout gets from [`layout_digest`]). A flat
//!   [`Layout`] is built only when [`EngineOptions::keep_layouts`] asks
//!   for one.
//!
//! `mlv sweep` and `mlv serve` expose the engine; the conformance case
//! runner drives its realizations through it too, so the workspace has
//! one concurrency path for batch realization.

use crate::families::Family;
use crate::realize::RealizeOptions;
use crate::registry;
use crate::tiled::realize_tiled;
use mlv_core::exec;
use mlv_core::rng::{Rng, SplitMix64};
use mlv_grid::checker;
use mlv_grid::hasher::{fnv1a, fnv1a_u64, FNV_BASIS};
use mlv_grid::io::json_escape;
use mlv_grid::layout::Layout;
use mlv_grid::metrics::{LayoutMetrics, PhysicalMetrics};
use mlv_grid::pdk::Pdk;
use mlv_grid::streaming::{metrics_stream, StreamSource};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// One realization request: a family instance at a layer budget.
#[derive(Clone, Debug)]
pub struct Job {
    /// Human-readable `family:params L=<layers>` label for reports.
    pub label: String,
    /// The graph + orthogonal spec to realize.
    pub family: Family,
    /// Layer budget `L ≥ 2`.
    pub layers: usize,
    /// Technology stack to realize onto. `None` — and any stack with
    /// [`Pdk::is_uniform`] — is the paper's unit grid: the memo key,
    /// report lines, and realized geometry are all byte-identical to a
    /// PDK-free job.
    pub pdk: Option<Pdk>,
}

impl Job {
    /// Build a job, deriving the conventional `<label> L=<layers>`
    /// report label from a bare family label.
    pub fn new(label: impl AsRef<str>, family: Family, layers: usize) -> Self {
        Job {
            label: format!("{} L={layers}", label.as_ref()),
            family,
            layers,
            pdk: None,
        }
    }

    /// [`Job::new`] targeting a technology stack.
    pub fn with_pdk(label: impl AsRef<str>, family: Family, layers: usize, pdk: Pdk) -> Self {
        Job {
            pdk: Some(pdk),
            ..Job::new(label, family, layers)
        }
    }

    /// The job's stack when it actually deviates from the uniform
    /// grid; `None` for both `pdk: None` and explicit uniform stacks.
    fn effective_pdk(&self) -> Option<&Pdk> {
        self.pdk.as_ref().filter(|p| !p.is_uniform())
    }
}

/// Legality-check outcome of one job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckStatus {
    /// Checking was not requested ([`EngineOptions::check`] = false).
    Skipped,
    /// The checker passed against the job's reference graph.
    Legal,
    /// The checker found errors; the summary holds the first few,
    /// `Debug`-formatted.
    Illegal(String),
}

impl CheckStatus {
    /// `Some(true)`/`Some(false)` when the check ran, `None` otherwise
    /// (maps onto the reports' `"checked"` JSON field).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            CheckStatus::Skipped => None,
            CheckStatus::Legal => Some(true),
            CheckStatus::Illegal(_) => Some(false),
        }
    }
}

/// What one realization produced — shared (via `Arc`) by every job
/// that hit the same memo key.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// FNV-1a digest of the canonical text serialization of the
    /// layout — two jobs printing the same digest realized
    /// byte-identical layouts.
    pub digest: u64,
    /// Full metrics of the realized layout.
    pub metrics: LayoutMetrics,
    /// Legality-check status.
    pub check: CheckStatus,
    /// Physical (pitch/via-weighted) metrics — present only for jobs
    /// realized onto a non-uniform stack.
    pub physical: Option<PhysicalMetrics>,
    /// Why physical metrics are absent on a non-uniform stack job:
    /// the checked pitch arithmetic overflowed (adversarial stack).
    /// The job itself still succeeds — geometry and grid metrics are
    /// PDK-independent.
    pub phys_error: Option<String>,
    /// The layout itself, materialized from the job's tiles only when
    /// [`EngineOptions::keep_layouts`] is set.
    pub layout: Option<Layout>,
}

/// One entry of a [`BatchReport`], in job order.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// The job's label, echoed.
    pub label: String,
    /// The job's layer budget, echoed.
    pub layers: usize,
    /// `true` when this job reused a memoized realization (an earlier
    /// job in the batch, or a previous batch on the same engine).
    /// Deterministic: classification walks jobs in order before the
    /// parallel fan-out.
    pub cached: bool,
    /// The (possibly shared) realization outcome.
    pub outcome: Arc<JobOutcome>,
}

impl JobResult {
    /// One deterministic JSON line for this result — the `mlv sweep`
    /// report format. Contains only thread-count-independent fields
    /// (no wall-clock timing), so sweep output is byte-identical for
    /// any `MLV_THREADS`. PDK fields appear only for non-uniform
    /// stacks, keeping uniform sweep output byte-identical to the
    /// PDK-free format.
    pub fn json_line(&self) -> String {
        let o = &self.outcome;
        let m = &o.metrics;
        let mut line = format!(
            "{{\"label\":\"{}\",\"layers\":{},\"digest\":\"{:016x}\",\"cached\":{},\
             \"area\":{},\"volume\":{},\"max_wire_planar\":{},\"max_wire_full\":{},\
             \"total_wire\":{},\"wires\":{},\"vias\":{},\"checked\":{}",
            json_escape(&self.label),
            self.layers,
            o.digest,
            self.cached,
            m.area,
            m.volume,
            m.max_wire_planar,
            m.max_wire_full,
            m.total_wire,
            m.wire_count,
            m.via_count,
            match o.check.as_bool() {
                Some(b) => b.to_string(),
                None => "null".into(),
            },
        );
        if let Some(p) = &o.physical {
            line.push_str(&format!(
                ",\"pdk\":\"{}\",\"phys_area\":{},\"phys_wirelength\":{},\
                 \"phys_max_wire\":{},\"phys_via_cost\":{}",
                json_escape(&p.pdk),
                p.area,
                p.wirelength,
                p.max_wire,
                p.via_cost,
            ));
        }
        if let Some(e) = &o.phys_error {
            line.push_str(&format!(",\"phys_error\":\"{}\"", json_escape(e)));
        }
        line.push('}');
        line
    }
}

/// Memo-cache counters (cumulative over an [`Engine`]'s lifetime).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Jobs served from the cache (including duplicates within one
    /// batch, which are realized once).
    pub hits: u64,
    /// Jobs that required a fresh realization.
    pub misses: u64,
    /// Entries dropped to respect [`EngineOptions::cache_capacity`].
    pub evictions: u64,
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct EngineOptions {
    /// Run the full legality checker (with the job's reference graph)
    /// on every fresh realization.
    pub check: bool,
    /// Materialize each job's tiles into a flat [`Layout`] and keep it
    /// in the outcome (costs time and memory; needed by callers that
    /// post-process layouts, e.g. the conformance harness's injection
    /// stage).
    pub keep_layouts: bool,
    /// Maximum memoized realizations; the oldest entry is evicted
    /// first (insertion order).
    pub cache_capacity: usize,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            check: true,
            keep_layouts: false,
            cache_capacity: 1024,
        }
    }
}

/// Outcome of one [`Engine::run`] call.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Per-job results, in job order.
    pub results: Vec<JobResult>,
    /// Cache counters for this batch alone.
    pub cache: CacheStats,
}

/// The batch-realization engine: a memo cache plus the fan-out logic.
/// Reuse one engine across batches to share the cache; drop it to
/// forget everything.
pub struct Engine {
    opts: EngineOptions,
    map: HashMap<u64, Arc<JobOutcome>>,
    order: VecDeque<u64>,
    stats: CacheStats,
}

impl Engine {
    /// A fresh engine with the given options.
    pub fn new(opts: EngineOptions) -> Self {
        Engine {
            opts,
            map: HashMap::new(),
            order: VecDeque::new(),
            stats: CacheStats::default(),
        }
    }

    /// Cumulative cache counters across every batch run so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Entries currently memoized (bounded by
    /// [`EngineOptions::cache_capacity`] — `mlv serve`'s soak test pins
    /// that this never exceeds the configured capacity).
    pub fn cache_len(&self) -> usize {
        self.map.len()
    }

    /// Realize a single job — the request/response entry point `mlv
    /// serve` dispatches through. Identical semantics to a one-job
    /// [`Engine::run`] batch (same memo key, same cache counters, same
    /// trace spans), returned unwrapped.
    pub fn run_one(&mut self, job: &Job) -> JobResult {
        self.run(std::slice::from_ref(job))
            .results
            .pop()
            .expect("one job in, one result out")
    }

    /// Realize a batch of jobs. Results come back in job order and are
    /// byte-identical for every thread count: duplicate detection and
    /// the cache counters are computed sequentially in job order, and
    /// only the per-leader realizations fan out over
    /// [`mlv_core::exec`].
    pub fn run(&mut self, jobs: &[Job]) -> BatchReport {
        let _batch = mlv_core::span!("engine.batch");
        let before = self.stats;
        let keys: Vec<u64> = {
            let _s = mlv_core::span!("engine.classify");
            exec::par_map(jobs, |_, j| job_key(j))
        };

        // sequential classification: first occurrence of a new key
        // leads, everything else follows (deterministic counters)
        enum Source {
            Cached(Arc<JobOutcome>),
            Leader(usize),   // index into `leaders`
            Follower(usize), // index into `leaders`
        }
        let mut leaders: Vec<usize> = Vec::new();
        let mut batch_first: HashMap<u64, usize> = HashMap::new();
        let mut sources: Vec<Source> = Vec::with_capacity(jobs.len());
        for (i, key) in keys.iter().enumerate() {
            if let Some(hit) = self.map.get(key) {
                self.stats.hits += 1;
                sources.push(Source::Cached(Arc::clone(hit)));
            } else if let Some(&li) = batch_first.get(key) {
                self.stats.hits += 1;
                sources.push(Source::Follower(li));
            } else {
                self.stats.misses += 1;
                batch_first.insert(*key, leaders.len());
                sources.push(Source::Leader(leaders.len()));
                leaders.push(i);
            }
        }
        mlv_core::counter!("engine.cache.hit", self.stats.hits - before.hits);
        mlv_core::counter!("engine.cache.miss", self.stats.misses - before.misses);

        // parallel fan-out over the distinct specs only; each leader
        // records its queue-to-start latency (enqueue = batch entry)
        let lead_jobs: Vec<&Job> = leaders.iter().map(|&i| &jobs[i]).collect();
        let opts = &self.opts;
        let queued = std::time::Instant::now();
        let outcomes: Vec<Arc<JobOutcome>> = exec::par_map(&lead_jobs, |_, j| {
            mlv_core::histogram!(
                "engine.job.queue_ns",
                queued.elapsed().as_nanos().min(u64::MAX as u128) as u64
            );
            Arc::new(compute(j, opts))
        });

        // memoize in leader order (deterministic eviction)
        for (&i, outcome) in leaders.iter().zip(&outcomes) {
            self.insert(keys[i], Arc::clone(outcome));
        }
        mlv_core::counter!(
            "engine.cache.eviction",
            self.stats.evictions - before.evictions
        );

        let results = jobs
            .iter()
            .zip(&sources)
            .map(|(job, source)| {
                let (cached, outcome) = match source {
                    Source::Cached(o) => (true, Arc::clone(o)),
                    Source::Follower(li) => (true, Arc::clone(&outcomes[*li])),
                    Source::Leader(li) => (false, Arc::clone(&outcomes[*li])),
                };
                JobResult {
                    label: job.label.clone(),
                    layers: job.layers,
                    cached,
                    outcome,
                }
            })
            .collect();
        BatchReport {
            results,
            cache: CacheStats {
                hits: self.stats.hits - before.hits,
                misses: self.stats.misses - before.misses,
                evictions: self.stats.evictions - before.evictions,
            },
        }
    }

    fn insert(&mut self, key: u64, outcome: Arc<JobOutcome>) {
        while self.map.len() >= self.opts.cache_capacity.max(1) {
            let Some(old) = self.order.pop_front() else {
                break;
            };
            self.map.remove(&old);
            self.stats.evictions += 1;
        }
        if self.map.insert(key, outcome).is_none() {
            self.order.push_back(key);
        }
    }
}

/// One fresh realization into tiles: metrics, physical metrics,
/// content digest, and (when requested) the full legality check, all
/// walking the tile instances. The pass scratch is this worker
/// thread's own (`crate::arena`), so a panicking job leaves nothing
/// shared behind.
fn compute(job: &Job, opts: &EngineOptions) -> JobOutcome {
    let _job = mlv_core::span!("engine.job");
    let pdk = job.effective_pdk();
    let mut ropts = RealizeOptions::with_layers(job.layers);
    ropts.pdk = pdk.cloned();
    let tiled = realize_tiled(&job.family.spec, &ropts);
    let metrics = metrics_stream(&tiled);
    let (physical, phys_error) = match pdk.map(|p| PhysicalMetrics::of(&tiled, p)) {
        None => (None, None),
        Some(Ok(ph)) => (Some(ph), None),
        Some(Err(e)) => (None, Some(e)),
    };
    let digest = layout_digest(&tiled);
    mlv_core::histogram!("engine.job.wires", metrics.wire_count as u64);
    mlv_core::histogram!("engine.job.area", metrics.area);
    let check = if opts.check {
        let r = match pdk {
            Some(p) => checker::check_with_pdk(&tiled, Some(&job.family.graph), p),
            None => checker::check(&tiled, Some(&job.family.graph)),
        };
        if r.is_legal() {
            CheckStatus::Legal
        } else {
            CheckStatus::Illegal(format!("{:?}", &r.errors[..r.errors.len().min(2)]))
        }
    } else {
        CheckStatus::Skipped
    };
    JobOutcome {
        digest,
        metrics,
        check,
        physical,
        phys_error,
        layout: opts.keep_layouts.then(|| tiled.materialize()),
    }
}

/// FNV-1a content digest of a layout — a flat [`Layout`] or any other
/// [`StreamSource`], such as a tiled IR — over the canonical
/// `mlv_grid::io` text serialization, so equal digests mean
/// byte-identical layout files under the documented round-trip
/// guarantee. The text is hashed as it is written, never built.
pub fn layout_digest<S: StreamSource + ?Sized>(src: &S) -> u64 {
    struct Fnv(u64);
    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0 = fnv1a(self.0, s.as_bytes());
            Ok(())
        }
    }
    let mut h = Fnv(FNV_BASIS);
    // hashing cannot fail
    let _ = mlv_grid::io::write_layout_to(src, &mut h);
    h.0
}

/// Memo key of one job: FNV-1a over the canonical spec content
/// (name, grid shape, node arrangement, every wire) plus the layer
/// budget. Field values are digested as little-endian `u64`s with
/// per-section tags, so e.g. a row wire can never collide with a
/// col wire of the same coordinates.
fn job_key(job: &Job) -> u64 {
    let spec = &job.family.spec;
    let mut h = fnv1a(FNV_BASIS, spec.name.as_bytes());
    h = fnv1a_u64(h, 0xA0);
    h = fnv1a_u64(h, spec.rows as u64);
    h = fnv1a_u64(h, spec.cols as u64);
    h = fnv1a_u64(h, 0xA1);
    for &n in &spec.node_at {
        h = fnv1a_u64(h, n as u64);
    }
    h = fnv1a_u64(h, 0xA2);
    for w in &spec.row_wires {
        h = fnv1a_u64(h, w.row as u64);
        h = fnv1a_u64(h, w.lo as u64);
        h = fnv1a_u64(h, w.hi as u64);
        h = fnv1a_u64(h, w.track as u64);
    }
    h = fnv1a_u64(h, 0xA3);
    for w in &spec.col_wires {
        h = fnv1a_u64(h, w.col as u64);
        h = fnv1a_u64(h, w.lo as u64);
        h = fnv1a_u64(h, w.hi as u64);
        h = fnv1a_u64(h, w.track as u64);
    }
    h = fnv1a_u64(h, 0xA4);
    for w in &spec.jog_wires {
        h = fnv1a_u64(h, w.a.0 as u64);
        h = fnv1a_u64(h, w.a.1 as u64);
        h = fnv1a_u64(h, w.b.0 as u64);
        h = fnv1a_u64(h, w.b.1 as u64);
    }
    h = fnv1a_u64(h, 0xA5);
    h = fnv1a_u64(h, job.layers as u64);
    // the uniform stack folds nothing: a uniform-PDK job must share its
    // memo entry (and digest) with the PDK-free job it is identical to
    if let Some(p) = job.effective_pdk() {
        h = fnv1a_u64(h, 0xA6);
        // every variable-length name is length-prefixed: without the
        // prefixes, name bytes from adjacent fields concatenate, so
        // pdk "ab" + layer "c" would alias pdk "a" + layer "bc"
        h = fnv1a_u64(h, p.name.len() as u64);
        h = fnv1a(h, p.name.as_bytes());
        h = fnv1a_u64(h, p.layers.len() as u64);
        for l in &p.layers {
            h = fnv1a_u64(h, l.name.len() as u64);
            h = fnv1a(h, l.name.as_bytes());
            h = fnv1a_u64(h, l.dir as u64);
            h = fnv1a_u64(h, l.pitch);
            h = fnv1a_u64(h, l.via_cost);
        }
    }
    h
}

/// Stable per-family sub-seed: master seed mixed with an FNV-1a hash
/// of the family name through SplitMix64, so adding families or
/// reordering a sweep never perturbs another family's draws. (The
/// conformance harness re-exports this — both walk identical
/// lattices.)
pub fn family_seed(master: u64, family: &str) -> u64 {
    SplitMix64(master ^ fnv1a(FNV_BASIS, family.as_bytes())).next_u64()
}

/// Enumerate the full registry lattice as engine jobs: for every
/// lattice-bearing family, `cases_per_family` seeded draws from its
/// parameter pool, each at a layer budget drawn from
/// [`registry::LAYER_POOL`] **plus** its 2-layer Thompson baseline —
/// the same `(family, params, L)` grid (same RNG discipline, same
/// labels) the conformance harness evaluates, which is exactly what
/// makes the memo cache pay: small pools re-draw the same parameters,
/// and every case shares the Thompson point of its spec.
pub fn lattice_jobs(seed: u64, cases_per_family: usize) -> Vec<Job> {
    lattice_jobs_with_pdk(seed, cases_per_family, None)
}

/// [`lattice_jobs`] with every job targeting a technology stack. The
/// RNG discipline and labels are identical to the PDK-free lattice —
/// only the jobs' `pdk` field differs — so `None` (or a uniform
/// stack) reproduces [`lattice_jobs`] exactly.
pub fn lattice_jobs_with_pdk(seed: u64, cases_per_family: usize, pdk: Option<&Pdk>) -> Vec<Job> {
    let mut jobs = Vec::new();
    for entry in registry::REGISTRY {
        let Some(lattice) = &entry.lattice else {
            continue;
        };
        let mut rng = Rng::seed_from_u64(family_seed(seed, entry.name));
        let sub_seeds: Vec<u64> = (0..cases_per_family).map(|_| rng.next_u64()).collect();
        for s in sub_seeds {
            let mut rng = Rng::seed_from_u64(s);
            let layers = registry::LAYER_POOL[rng.gen_range_usize(0..registry::LAYER_POOL.len())];
            let draw = (lattice.draw)(&mut rng);
            let mut a = Job::new(&draw.label, draw.family.clone(), layers);
            let mut b = Job::new(&draw.label, draw.family, 2);
            a.pdk = pdk.cloned();
            b.pdk = pdk.cloned();
            jobs.push(a);
            jobs.push(b);
        }
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families;

    fn job(n: usize, layers: usize) -> Job {
        Job::new(format!("hypercube:{n}"), families::hypercube(n), layers)
    }

    #[test]
    fn batch_results_in_job_order_with_dedup() {
        let jobs = vec![job(3, 2), job(4, 4), job(3, 2), job(4, 2)];
        let mut engine = Engine::new(EngineOptions::default());
        let report = engine.run(&jobs);
        assert_eq!(report.results.len(), 4);
        assert_eq!(report.cache.misses, 3, "three distinct (spec, L) pairs");
        assert_eq!(report.cache.hits, 1, "the repeated job hits");
        let r = &report.results;
        assert_eq!(r[0].label, "hypercube:3 L=2");
        assert!(!r[0].cached && !r[1].cached && r[2].cached && !r[3].cached);
        // the duplicate shares the leader's outcome verbatim
        assert_eq!(r[0].outcome.digest, r[2].outcome.digest);
        assert!(Arc::ptr_eq(&r[0].outcome, &r[2].outcome));
        // distinct (spec, L) pairs produce distinct layouts
        assert_ne!(r[0].outcome.digest, r[1].outcome.digest);
        assert_ne!(r[1].outcome.digest, r[3].outcome.digest);
        for res in r {
            assert_eq!(res.outcome.check, CheckStatus::Legal);
            assert!(res.outcome.metrics.area > 0);
        }
    }

    #[test]
    fn cache_persists_across_batches() {
        let mut engine = Engine::new(EngineOptions::default());
        let first = engine.run(&[job(3, 2)]);
        assert_eq!((first.cache.hits, first.cache.misses), (0, 1));
        let second = engine.run(&[job(3, 2), job(3, 4)]);
        assert_eq!((second.cache.hits, second.cache.misses), (1, 1));
        assert_eq!(engine.stats().hits, 1);
        assert_eq!(engine.stats().misses, 2);
        assert!(second.results[0].cached);
        assert_eq!(
            first.results[0].outcome.digest,
            second.results[0].outcome.digest
        );
    }

    #[test]
    fn capacity_bound_evicts_oldest_first() {
        let mut engine = Engine::new(EngineOptions {
            cache_capacity: 2,
            ..EngineOptions::default()
        });
        engine.run(&[job(3, 2), job(3, 4), job(4, 2)]); // 3 -> evicts first
        assert_eq!(engine.stats().evictions, 1);
        // the oldest (3, 2) was evicted: running it again misses...
        let again = engine.run(&[job(3, 2)]);
        assert_eq!(again.cache.misses, 1);
        // ...while the newest (4, 2) is still resident
        let newest = engine.run(&[job(4, 2)]);
        assert_eq!(newest.cache.hits, 1);
    }

    #[test]
    fn capacity_zero_behaves_as_single_slot() {
        // capacity 0 is clamped to one resident entry: the cache never
        // grows past 1, every insert evicts the previous resident, and
        // same-key reuse within a batch still dedups (batch-local
        // follower detection is upstream of the cache).
        let mut engine = Engine::new(EngineOptions {
            cache_capacity: 0,
            ..EngineOptions::default()
        });
        let first = engine.run(&[job(3, 2), job(3, 2), job(4, 2)]);
        assert_eq!((first.cache.hits, first.cache.misses), (1, 2));
        assert_eq!(first.cache.evictions, 1, "second leader evicts the first");
        // only (4, 2) — the last insert — survives
        let probe = engine.run(&[job(4, 2), job(3, 2)]);
        assert_eq!((probe.cache.hits, probe.cache.misses), (1, 1));
    }

    #[test]
    fn capacity_one_fifo_eviction_order() {
        let mut engine = Engine::new(EngineOptions {
            cache_capacity: 1,
            ..EngineOptions::default()
        });
        engine.run(&[job(3, 2)]);
        assert_eq!(engine.stats().evictions, 0, "first insert fits");
        engine.run(&[job(3, 4)]);
        assert_eq!(engine.stats().evictions, 1, "second key displaces first");
        // re-running the displaced key misses and displaces in turn
        let displaced = engine.run(&[job(3, 2)]);
        assert_eq!(displaced.cache.misses, 1);
        assert_eq!(engine.stats().evictions, 2);
        // the current resident hits without evicting
        let resident = engine.run(&[job(3, 2)]);
        assert_eq!((resident.cache.hits, resident.cache.evictions), (1, 0));
        assert_eq!(engine.stats().evictions, 2);
    }

    #[test]
    fn lattice_counters_reconcile() {
        // over a seeded lattice batch the counters must account for
        // every job: each is either a hit or a miss, and evictions can
        // never exceed inserts (= misses)
        for capacity in [0, 1, 3, 1024] {
            let jobs = lattice_jobs(2000, 2);
            let mut engine = Engine::new(EngineOptions {
                cache_capacity: capacity,
                ..EngineOptions::default()
            });
            let trace = mlv_core::trace::Trace::new();
            let report = trace.collect(|| engine.run(&jobs));
            let c = &report.cache;
            assert_eq!(
                c.hits + c.misses,
                jobs.len() as u64,
                "capacity {capacity}: every job is a hit or a miss"
            );
            assert!(
                c.evictions <= c.misses,
                "capacity {capacity}: evictions {} > misses {}",
                c.evictions,
                c.misses
            );
            // the trace counters mirror the batch report exactly
            let agg = trace.aggregate();
            assert_eq!(agg.counter("engine.cache.hit"), c.hits);
            assert_eq!(agg.counter("engine.cache.miss"), c.misses);
            assert_eq!(agg.counter("engine.cache.eviction"), c.evictions);
            // one engine.job span per leader, one queue-latency sample each
            let jobs_run = agg.span("engine.job").expect("engine.job span").count;
            assert_eq!(jobs_run, c.misses);
            let queue = &agg.histograms["engine.job.queue_ns"];
            assert_eq!(queue.count, c.misses);
        }
    }

    #[test]
    fn trace_digest_identical_across_thread_counts() {
        // the aggregate trace of a lattice batch — span counts, cache
        // counters, value histograms — is byte-identical for any
        // MLV_THREADS; 13 families x 3 cases x 2 = 78 jobs, above
        // exec's inline threshold, so the 8-thread run really fans out
        let jobs = lattice_jobs(2000, 3);
        assert!(jobs.len() > 64, "need enough jobs to exercise fan-out");
        let run = |threads: usize| {
            exec::with_thread_count(threads, || {
                let mut engine = Engine::new(EngineOptions::default());
                let trace = mlv_core::trace::Trace::new();
                trace.collect(|| engine.run(&jobs));
                trace.aggregate()
            })
        };
        let seq = run(1);
        let par = run(8);
        assert_eq!(seq.deterministic_lines(), par.deterministic_lines());
        assert_eq!(seq.digest(), par.digest());
        // the deterministic view is not vacuous: it still carries the
        // pipeline spans and the non-timing histograms
        assert!(seq.span("pipeline").is_some());
        assert!(seq.histograms.contains_key("engine.job.wires"));
        assert!(!seq
            .deterministic_lines()
            .iter()
            .any(|l| l.contains("queue_ns")));
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let jobs = lattice_jobs(7, 2);
        let lines = |threads: usize| {
            exec::with_thread_count(threads, || {
                let mut engine = Engine::new(EngineOptions::default());
                let report = engine.run(&jobs);
                (
                    report
                        .results
                        .iter()
                        .map(JobResult::json_line)
                        .collect::<Vec<_>>(),
                    report.cache,
                )
            })
        };
        let (seq, seq_cache) = lines(1);
        let (par, par_cache) = lines(8);
        assert_eq!(seq, par);
        assert_eq!(seq_cache, par_cache, "cache counters must be deterministic");
        assert!(seq_cache.hits > 0, "lattice sweeps must exercise the cache");
    }

    #[test]
    fn lattice_jobs_are_deterministic_and_cover_every_family() {
        let a = lattice_jobs(2000, 2);
        let b = lattice_jobs(2000, 2);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.len(), 2 * 2 * registry::lattice_names().len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.label, y.label);
            assert_eq!(job_key(x), job_key(y));
        }
        // every label ends with its layer suffix; thompson twin follows
        for pair in a.chunks(2) {
            assert!(pair[0].label.contains(" L="));
            assert!(pair[1].label.ends_with(" L=2"));
        }
        // a different master seed reaches the draws
        let c = lattice_jobs(2001, 2);
        assert_ne!(
            a.iter().map(|j| j.label.clone()).collect::<Vec<_>>(),
            c.iter().map(|j| j.label.clone()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn job_key_separates_sections() {
        // a row wire and a col wire with identical coordinates must not
        // collide (the section tags keep encodings disjoint)
        use crate::spec::{ColWire, OrthogonalSpec, RowWire};
        let base = OrthogonalSpec::new("k", 2, 2);
        let mut with_row = base.clone();
        with_row.row_wires.push(RowWire {
            row: 0,
            lo: 0,
            hi: 1,
            track: 0,
        });
        let mut with_col = base.clone();
        with_col.col_wires.push(ColWire {
            col: 0,
            lo: 0,
            hi: 1,
            track: 0,
        });
        let graph = mlv_topology::hypercube::hypercube(2);
        let key = |spec: &OrthogonalSpec, layers: usize| {
            job_key(&Job {
                label: "x".into(),
                family: Family {
                    graph: graph.clone(),
                    spec: spec.clone(),
                },
                layers,
                pdk: None,
            })
        };
        assert_ne!(key(&with_row, 2), key(&with_col, 2));
        assert_ne!(key(&base, 2), key(&base, 4));
        assert_eq!(key(&base, 2), key(&base.clone(), 2));
    }

    fn stack(pdk_name: &str, layer_names: &[&str]) -> Pdk {
        use mlv_grid::pdk::{Dir, PdkLayer};
        Pdk {
            name: pdk_name.to_string(),
            layers: layer_names
                .iter()
                .map(|n| PdkLayer {
                    name: n.to_string(),
                    dir: Dir::Any,
                    pitch: 2, // non-uniform, so effective_pdk keeps it
                    via_cost: 1,
                })
                .collect(),
        }
    }

    #[test]
    fn memo_key_uniform_pdk_shares_pdk_free_entry() {
        // the uniform stack is behaviorally the unit grid: sharing the
        // memo entry with the PDK-free job is intentional
        let plain = job(3, 2);
        let mut uniform = job(3, 2);
        uniform.pdk = Some(Pdk::uniform(2));
        assert_eq!(job_key(&plain), job_key(&uniform));
        let mut engine = Engine::new(EngineOptions::default());
        let report = engine.run(&[plain, uniform]);
        assert!(report.results[1].cached, "uniform job must hit");
        assert!(Arc::ptr_eq(
            &report.results[0].outcome,
            &report.results[1].outcome
        ));
        assert!(report.results[1].outcome.physical.is_none());
    }

    #[test]
    fn memo_key_non_uniform_pdk_never_aliases_pdk_free() {
        let plain = job(3, 2);
        let mut hv = job(3, 2);
        hv.pdk = Some(Pdk::hv6());
        assert_ne!(job_key(&plain), job_key(&hv));
        let mut engine = Engine::new(EngineOptions::default());
        let report = engine.run(&[plain, hv]);
        assert!(!report.results[1].cached, "hv6 job must realize fresh");
        assert!(report.results[1].outcome.physical.is_some());
        assert!(report.results[0].outcome.physical.is_none());
    }

    #[test]
    fn memo_key_length_prefixes_defeat_name_aliasing() {
        // adversarial stacks whose name bytes concatenate identically:
        // without length prefixes in the key hash, all three serialized
        // to the byte stream "abc" + identical dir/pitch/via words and
        // shared one memo entry
        let stacks = [
            stack("ab", &["c"]),
            stack("a", &["bc"]),
            stack("abc", &[""]),
        ];
        let keys: Vec<u64> = stacks
            .iter()
            .map(|p| {
                let mut j = job(3, 2);
                j.pdk = Some(p.clone());
                job_key(&j)
            })
            .collect();
        for a in 0..keys.len() {
            for b in a + 1..keys.len() {
                assert_ne!(
                    keys[a], keys[b],
                    "stacks {:?} and {:?} alias",
                    stacks[a].name, stacks[b].name
                );
            }
        }
        // layer-boundary aliasing within one stack: same pdk name,
        // same concatenated layer-name bytes, different split
        let mut two_a = job(3, 2);
        two_a.pdk = Some(stack("p", &["ab", "c"]));
        let mut two_b = job(3, 2);
        two_b.pdk = Some(stack("p", &["a", "bc"]));
        assert_ne!(job_key(&two_a), job_key(&two_b));
        // and the engine really keeps them as distinct entries
        let mut engine = Engine::new(EngineOptions::default());
        let report = engine.run(&[two_a, two_b]);
        assert!(!report.results[0].cached);
        assert!(!report.results[1].cached, "aliased stacks shared an entry");
    }

    #[test]
    fn keep_layouts_retains_the_layout() {
        let mut engine = Engine::new(EngineOptions {
            keep_layouts: true,
            ..EngineOptions::default()
        });
        let report = engine.run(&[job(3, 2)]);
        let layout = report.results[0].outcome.layout.as_ref().unwrap();
        assert_eq!(layout_digest(layout), report.results[0].outcome.digest);
        // default: layouts are dropped
        let mut lean = Engine::new(EngineOptions::default());
        assert!(lean.run(&[job(3, 2)]).results[0].outcome.layout.is_none());
    }

    #[test]
    fn json_line_is_wellformed_and_label_escaped() {
        let mut engine = Engine::new(EngineOptions::default());
        let mut jobs = vec![job(3, 2)];
        jobs[0].label = "weird \"label\"\n\x7f".into();
        let line = engine.run(&jobs).results[0].json_line();
        // DEL is escaped too — the original private escaper only
        // covered codepoints < 0x20 and leaked \x7f raw into reports
        assert!(line.starts_with("{\"label\":\"weird \\\"label\\\"\\n\\u007f\""));
        assert!(line.contains("\"checked\":true"));
        assert!(!line.contains('\x7f'));
        assert_eq!(line.matches('{').count(), line.matches('}').count());
    }

    #[test]
    fn check_off_reports_skipped() {
        let mut engine = Engine::new(EngineOptions {
            check: false,
            ..EngineOptions::default()
        });
        let report = engine.run(&[job(3, 2)]);
        assert_eq!(report.results[0].outcome.check, CheckStatus::Skipped);
        assert!(report.results[0].json_line().contains("\"checked\":null"));
    }

    #[test]
    fn family_seed_stable_and_distinct() {
        assert_eq!(family_seed(7, "hypercube"), family_seed(7, "hypercube"));
        assert_ne!(family_seed(7, "hypercube"), family_seed(8, "hypercube"));
        assert_ne!(family_seed(7, "hypercube"), family_seed(7, "ccc"));
    }
}
