//! The request dispatcher: one shared [`Engine`] behind a mutex, a
//! service-lifetime [`Trace`], and a pure `line in → line out`
//! handler that every transport (stdio, TCP, tests, bench) funnels
//! through.
//!
//! ## Wire protocol
//!
//! One JSON object per line in, one JSON object per line out. Requests
//! carry an `id` (echoed back), a `kind`, and kind-specific fields:
//!
//! | kind          | fields                                                    |
//! |---------------|-----------------------------------------------------------|
//! | `realize`     | `family`, `layers`?, `pdk`?/`pdk_text`?                   |
//! | `check`       | same as `realize`                                         |
//! | `metrics`     | same as `realize`                                         |
//! | `sweep-shard` | `seed`, `cases`?, `shard`?, `shards`?, `pdk`?/`pdk_text`? |
//! | `profile`     | same as `realize`                                         |
//! | `stats`       | —                                                         |
//!
//! Success frames are `{"id":…,"ok":true,"kind":…,…}`; failures are
//! `{"id":…,"ok":false,"error":…}` (plus `retry_after_ms` on the
//! backpressure path — see [`Service::busy_response`]). Every field a
//! response carries is thread-count-independent: digests, metrics,
//! legality verdicts, and trace renderings all come from the
//! workspace's deterministic paths, so responses are byte-identical
//! for any `MLV_THREADS`.

use crate::json::{self, Value};
use mlv_core::trace::Trace;
use mlv_grid::io::json_escape;
use mlv_grid::pdk::{read_pdk, Pdk};
use mlv_layout::engine::{lattice_jobs_with_pdk, CheckStatus, Engine, EngineOptions, Job};
use mlv_layout::{registry, MAX_LAYERS};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Service configuration, shared by every connection.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Per-connection request-queue depth; a full queue sheds load
    /// with a busy frame instead of buffering.
    pub queue_depth: usize,
    /// `retry_after_ms` hint carried by busy frames.
    pub retry_after_ms: u64,
    /// Engine memo-cache capacity (entries).
    pub cache_capacity: usize,
    /// Maximum request-frame length in bytes; longer frames are
    /// discarded to the next newline and answered with an error.
    pub max_frame_bytes: usize,
    /// Stack applied to requests that don't name one themselves.
    pub default_pdk: Option<Pdk>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_depth: 64,
            retry_after_ms: 50,
            cache_capacity: 1024,
            max_frame_bytes: 1 << 20,
            default_pdk: None,
        }
    }
}

/// Hard cap on `cases` per `sweep-shard` request: work per request
/// stays bounded no matter what a client asks for.
const MAX_SWEEP_CASES: usize = 64;
/// Hard cap on a served stack's track pitch. Pitches stretch layout
/// coordinates multiplicatively during geometry emission, so an
/// `i64::MAX`-ish pitch from a hostile `pdk_text` would overflow the
/// coordinate space; 2⁴⁰ leaves > 2²⁰ of headroom for any servable
/// spec. (Via costs are *not* capped — they never touch geometry, and
/// the physical-metrics arithmetic is checked end to end.)
const MAX_PITCH: u64 = 1 << 40;

/// The persistent layout service. Cheap to share behind an `Arc`; all
/// methods take `&self`.
pub struct Service {
    engine: Mutex<Engine>,
    trace: Trace,
    config: ServeConfig,
    in_flight: AtomicU64,
}

impl Service {
    /// A fresh service with its own engine and trace.
    pub fn new(config: ServeConfig) -> Service {
        let engine = Engine::new(EngineOptions {
            cache_capacity: config.cache_capacity,
            ..EngineOptions::default()
        });
        Service {
            engine: Mutex::new(engine),
            trace: Trace::new(),
            config,
            in_flight: AtomicU64::new(0),
        }
    }

    /// The shared configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Requests currently being handled (the soak test pins that this
    /// returns to zero — no leaked slots — after every workload).
    pub fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::SeqCst)
    }

    /// Memoized engine entries right now (soak pins this never exceeds
    /// the configured capacity).
    pub fn cache_len(&self) -> usize {
        self.lock_engine().cache_len()
    }

    /// Record a counter into the service trace from outside a request
    /// (the transports use this for shed/oversize/write-error events).
    pub fn note(&self, counter: &'static str) {
        self.trace.collect(|| mlv_core::counter!(counter, 1));
    }

    /// The backpressure frame for a shed request: not an internal
    /// error — an explicit "retry later" with the configured hint.
    pub fn busy_response(&self, id: Option<u64>) -> String {
        format!(
            "{{\"id\":{},\"ok\":false,\"error\":\"busy\",\"retry_after_ms\":{}}}",
            fmt_id(id),
            self.config.retry_after_ms
        )
    }

    /// Handle one request line, producing exactly one response line
    /// (without trailing newline). Never panics on hostile input; the
    /// in-flight gauge is balanced even if a handler unwinds.
    pub fn handle_line(&self, line: &str) -> String {
        struct Slot<'a>(&'a AtomicU64);
        impl Drop for Slot<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        let _slot = Slot(&self.in_flight);
        self.trace.collect(|| {
            let _span = mlv_core::span!("serve.request");
            let started = std::time::Instant::now();
            // dispatch records the request's id here as soon as it has
            // parsed one, so a handler that panics still answers to it
            let id = Cell::new(None);
            let out = contain(&id, || self.dispatch(line, &id));
            mlv_core::histogram!(
                "serve.request_ns",
                started.elapsed().as_nanos().min(u64::MAX as u128) as u64
            );
            out
        })
    }

    fn dispatch(&self, line: &str, seen_id: &Cell<Option<u64>>) -> String {
        let req = match json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                mlv_core::counter!("serve.malformed", 1);
                return err_frame(None, &format!("parse: {e}"));
            }
        };
        let id = req.get("id").and_then(Value::as_u64);
        seen_id.set(id);
        let Some(kind) = req.get("kind").and_then(Value::as_str) else {
            mlv_core::counter!("serve.malformed", 1);
            return err_frame(id, "missing or non-string 'kind'");
        };
        let body = match kind {
            "realize" => {
                mlv_core::counter!("serve.request.realize", 1);
                self.req_result(&req)
            }
            "check" => {
                mlv_core::counter!("serve.request.check", 1);
                self.req_check(&req)
            }
            "metrics" => {
                mlv_core::counter!("serve.request.metrics", 1);
                self.req_result(&req)
            }
            "sweep-shard" => {
                mlv_core::counter!("serve.request.sweep_shard", 1);
                self.req_sweep_shard(&req)
            }
            "profile" => {
                mlv_core::counter!("serve.request.profile", 1);
                self.req_profile(&req)
            }
            "stats" => {
                mlv_core::counter!("serve.request.stats", 1);
                Ok(self.stats_body())
            }
            other => Err(format!("unknown kind '{other}'")),
        };
        match body {
            Ok(body) => format!(
                "{{\"id\":{},\"ok\":true,\"kind\":\"{}\",{body}}}",
                fmt_id(id),
                json_escape(kind)
            ),
            Err(e) => {
                mlv_core::counter!("serve.request.error", 1);
                err_frame(id, &e)
            }
        }
    }

    /// `realize` and `metrics`: the full sweep-format result object.
    fn req_result(&self, req: &Value) -> Result<String, String> {
        let job = self.job_from(req)?;
        let result = self.lock_engine().run_one(&job);
        Ok(format!("\"result\":{}", result.json_line()))
    }

    /// `check`: digest + the legality verdict (with error summary).
    fn req_check(&self, req: &Value) -> Result<String, String> {
        let job = self.job_from(req)?;
        let result = self.lock_engine().run_one(&job);
        let o = &result.outcome;
        let mut body = format!(
            "\"digest\":\"{:016x}\",\"legal\":{}",
            o.digest,
            matches!(o.check, CheckStatus::Legal)
        );
        if let CheckStatus::Illegal(summary) = &o.check {
            body.push_str(&format!(",\"errors\":\"{}\"", json_escape(summary)));
        }
        Ok(body)
    }

    /// `sweep-shard`: this shard's slice of the seeded registry
    /// lattice, as one engine batch.
    fn req_sweep_shard(&self, req: &Value) -> Result<String, String> {
        let seed = req
            .get("seed")
            .and_then(Value::as_u64)
            .ok_or("missing or non-integer 'seed'")?;
        let cases = match req.get("cases") {
            None => 1,
            Some(v) => v.as_usize().ok_or("bad 'cases'")?,
        };
        if cases == 0 || cases > MAX_SWEEP_CASES {
            return Err(format!("'cases' must be in 1..={MAX_SWEEP_CASES}"));
        }
        let shards = match req.get("shards") {
            None => 1,
            Some(v) => v.as_usize().filter(|&s| s >= 1).ok_or("bad 'shards'")?,
        };
        let shard = match req.get("shard") {
            None => 0,
            Some(v) => v.as_usize().ok_or("bad 'shard'")?,
        };
        if shard >= shards {
            return Err(format!("'shard' {shard} out of range for {shards} shards"));
        }
        let pdk = self.resolve_pdk(req)?;
        let jobs: Vec<Job> = lattice_jobs_with_pdk(seed, cases, pdk.as_ref())
            .into_iter()
            .enumerate()
            .filter(|(i, _)| i % shards == shard)
            .map(|(_, j)| j)
            .collect();
        for j in &jobs {
            j.validate().map_err(|e| format!("{}: {e}", j.label))?;
        }
        let report = self.lock_engine().run(&jobs);
        let lines: Vec<String> = report.results.iter().map(|r| r.json_line()).collect();
        Ok(format!(
            "\"results\":[{}],\"cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{}}}",
            lines.join(","),
            report.cache.hits,
            report.cache.misses,
            report.cache.evictions
        ))
    }

    /// `profile`: one realization under a request-local nested trace;
    /// the response carries the deterministic rendering and its digest.
    fn req_profile(&self, req: &Value) -> Result<String, String> {
        let job = self.job_from(req)?;
        let t = Trace::new();
        let result = t.collect(|| self.lock_engine().run_one(&job));
        let agg = t.aggregate();
        let lines = agg.deterministic_lines();
        Ok(format!(
            "\"cached\":{},\"digest\":\"{:016x}\",\"trace_digest\":\"{:016x}\",\"trace\":[{}]",
            result.cached,
            result.outcome.digest,
            agg.digest(),
            lines.join(",")
        ))
    }

    /// `stats`: engine cache counters plus the service-lifetime trace,
    /// rendered deterministically.
    fn stats_body(&self) -> String {
        let (stats, len) = {
            let engine = self.lock_engine();
            (engine.stats(), engine.cache_len())
        };
        let agg = self.trace.aggregate();
        let lines = agg.deterministic_lines();
        format!(
            "\"engine\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\
             \"cache_len\":{len},\"cache_capacity\":{}}},\
             \"in_flight\":{},\"trace_digest\":\"{:016x}\",\"trace\":[{}]",
            stats.hits,
            stats.misses,
            stats.evictions,
            self.config.cache_capacity,
            self.in_flight(),
            agg.digest(),
            lines.join(",")
        )
    }

    fn job_from(&self, req: &Value) -> Result<Job, String> {
        let spec = req
            .get("family")
            .and_then(Value::as_str)
            .ok_or("missing or non-string 'family'")?;
        let layers = match req.get("layers") {
            None => 2,
            Some(v) => v.as_usize().ok_or("bad 'layers'")?,
        };
        if !(2..=MAX_LAYERS).contains(&layers) {
            return Err(format!("'layers' must be in 2..={MAX_LAYERS}"));
        }
        let family = registry::parse(spec)?;
        let pdk = self.resolve_pdk(req)?;
        let mut job = Job::new(spec, family, layers);
        job.pdk = pdk;
        job.validate()?;
        Ok(job)
    }

    fn resolve_pdk(&self, req: &Value) -> Result<Option<Pdk>, String> {
        if let Some(v) = req.get("pdk_text") {
            let text = v.as_str().ok_or("'pdk_text' must be a string")?;
            let pdk = read_pdk(text).map_err(|e| format!("pdk_text {e}"))?;
            if let Some(l) = pdk.layers.iter().find(|l| l.pitch > MAX_PITCH) {
                return Err(format!(
                    "pdk_text layer '{}': pitch {} exceeds the serve cap of {MAX_PITCH}",
                    l.name, l.pitch
                ));
            }
            return Ok(Some(pdk));
        }
        if let Some(v) = req.get("pdk") {
            let name = v.as_str().ok_or("'pdk' must be a string")?;
            return Pdk::named(name)
                .map(Some)
                .ok_or_else(|| format!("unknown pdk '{name}' (try 'uniform' or 'hv6')"));
        }
        Ok(self.config.default_pdk.clone())
    }

    /// The engine mutex, recovering from poisoning: a panicking
    /// request must not wedge the service (the cache is structurally
    /// intact after any single map/queue operation).
    fn lock_engine(&self) -> std::sync::MutexGuard<'_, Engine> {
        self.engine
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// Run one request's handler; if it panics, answer with an error frame
/// for the id the handler recorded in `id` before it unwound.
fn contain(id: &Cell<Option<u64>>, handler: impl FnOnce() -> String) -> String {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(handler)).unwrap_or_else(|_| {
        mlv_core::counter!("serve.panic", 1);
        err_frame(id.get(), "internal: request handler panicked")
    })
}

fn fmt_id(id: Option<u64>) -> String {
    match id {
        Some(n) => n.to_string(),
        None => "null".to_string(),
    }
}

fn err_frame(id: Option<u64>, message: &str) -> String {
    format!(
        "{{\"id\":{},\"ok\":false,\"error\":\"{}\"}}",
        fmt_id(id),
        json_escape(message)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_request_keeps_its_id() {
        // no request is known to panic a handler, so one is simulated:
        // the containment frame must still answer to request 7
        let id = Cell::new(None);
        let r = contain(&id, || {
            id.set(Some(7));
            panic!("handler bug")
        });
        assert_eq!(
            r,
            r#"{"id":7,"ok":false,"error":"internal: request handler panicked"}"#
        );
        assert_eq!(contain(&id, || "fine".into()), "fine");
    }
}
