//! `serve-open`: the layout service over loopback TCP, driven open-loop
//! at a fixed rate, then closed-loop with hits only to measure their
//! capacity.
//!
//! The seeded request mix is ~90% interactive (`realize`, `check`,
//! `metrics`, `stats` on a hot set from `hypercube:4` to `hypercube:12`,
//! all cache hits after warm-up), every 12th request a cold `realize`
//! (small hypercubes and butterflies at a random layer budget in
//! 2..=1024) and every 50th a `sweep-shard` with a fresh seed. A hit
//! still rebuilds and hashes the family, so its cost grows with family
//! size; sweeps and misses hold the engine lock that hits wait for.
//!
//! Load comes from this process over two connections: one thread drives
//! both in the open loop, one thread per connection in the closed loop.
//! Open-loop latency runs from the moment a request was due, so a stall
//! also delays the requests due while it lasts.

use crate::expected;
use crate::harness::{
    peak_rss_mb, sub_seed, timed_setup, traced_run, warn_unsupported, Report, RunConfig, Scale,
    Tally,
};
use crate::{layers, stats};
use mlv_core::rng::Rng;
use mlv_layout::registry;
use mlv_serve::{listen, ServeConfig, ServerHandle, Service};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered rate of the open-loop phase, requests per second. Fixed, so
/// every commit is offered the same load. On a 2-core container it keeps
/// the service about a fifth busy, where the generator, which shares
/// the cores, still sends on time (lag p99 under 1 ms); at 500 req/s it
/// ran up to 3 ms late and the tail latencies spread twice as wide.
const RATE: f64 = 300.0;
/// Share of `--seconds` spent open-loop; the rest measures capacity.
const OPEN_SHARE: f64 = 0.7;
/// Interactive latency percentile reported as `latency_tail_ms`. p99 has
/// ~38 of ~3800 samples beyond it, but its spread over ten runs of the
/// same code was 0.19–0.28 against 0.07–0.10 for p90; p99 is printed on
/// stderr.
const TAIL: f64 = 0.9;
/// Longest sleep of the open-loop generator between polls of its
/// connections. `thread::sleep` uses the high-resolution timer; a
/// socket read timeout would round up to the kernel tick (4–10 ms) and
/// make the generator that late.
const POLL: Duration = Duration::from_micros(20);
/// How long to wait for the last responses after the last request.
const DRAIN: Duration = Duration::from_secs(10);
/// Layer budget of the hot set.
const HOT_LAYERS: usize = 4;
/// Request-stream offset of the closed-loop phase.
const CLOSED_BASE: u64 = 1 << 40;
/// Seed streams of the requests and of the warm-up sweeps.
const REQUESTS: u64 = 4;
const WARM_UP: u64 = 5;
/// Sweeps run while warming up.
const WARM_SWEEPS: u64 = 12;

/// Every `SWEEP_EVERY`-th request is a `sweep-shard` and every
/// `COLD_EVERY`-th of the rest a cold miss. The schedule is fixed, so
/// every run carries the same number of heavy requests at the same
/// moments; the seed picks what they ask for.
const SWEEP_EVERY: u64 = 50;
const COLD_EVERY: u64 = 12;

/// What a request draws from, per scale.
struct Mix {
    hot: std::ops::RangeInclusive<u64>,
    cold: &'static [&'static str],
    cases: u64,
}

const FULL: Mix = Mix {
    hot: 4..=12,
    cold: &[
        "hypercube:5",
        "hypercube:6",
        "hypercube:7",
        "butterfly:4",
        "butterfly:5",
    ],
    cases: 4,
};
const SMOKE: Mix = Mix {
    hot: 4..=6,
    cold: &["hypercube:3", "butterfly:3"],
    cases: 1,
};

fn mix(scale: Scale) -> &'static Mix {
    match scale {
        Scale::Full => &FULL,
        Scale::Smoke => &SMOKE,
    }
}

/// What a correct response to a request looks like.
#[derive(Clone, Debug, PartialEq)]
enum Expect {
    /// `realize`/`metrics` of hot-set `hypercube:n`: its pinned digest.
    Hot(u64),
    /// `check` of hot-set `hypercube:n`: legal, with its pinned digest.
    HotCheck(u64),
    /// A cold `realize`: checked legal.
    Cold,
    /// A `sweep-shard`: every job checked legal.
    Sweep,
    /// `stats`: the engine counters.
    Stats,
}

/// One generated request.
#[derive(Clone, Debug, PartialEq)]
struct Request {
    /// The frame, without its newline.
    line: String,
    /// The family spec the frame names, if any.
    family: Option<String>,
    /// Interactive requests are the ones the latency metrics report.
    interactive: bool,
    expect: Expect,
}

/// Request `k` of the stream seeded by `seed`: the full mix.
fn request(seed: u64, k: u64, scale: Scale) -> Request {
    let m = mix(scale);
    let mut rng = Rng::seed_from_u64(sub_seed(seed, REQUESTS, k));
    if k % SWEEP_EVERY == SWEEP_EVERY - 1 {
        sweep(k, rng.next_u64(), m.cases)
    } else if k % COLD_EVERY == COLD_EVERY - 1 {
        let family = m.cold[rng.gen_range_usize(0..m.cold.len())];
        let layers = rng.gen_range_usize(2..1025);
        on_family(k, "realize", family.into(), layers, Expect::Cold)
    } else {
        hot(k, &mut rng, m)
    }
}

/// Request `k` of the interactive-only stream seeded by `seed`.
fn hot_request(seed: u64, k: u64, scale: Scale) -> Request {
    let mut rng = Rng::seed_from_u64(sub_seed(seed, REQUESTS, k));
    hot(k, &mut rng, mix(scale))
}

/// An interactive request on the hot set.
fn hot(k: u64, rng: &mut Rng, m: &Mix) -> Request {
    let n = m.hot.start() + rng.bounded_u64(m.hot.end() - m.hot.start() + 1);
    let (kind, expect) = match rng.bounded_u64(10) {
        0..=2 => ("realize", Expect::Hot(n)),
        3..=5 => ("check", Expect::HotCheck(n)),
        6..=8 => ("metrics", Expect::Hot(n)),
        _ => {
            return Request {
                line: format!("{{\"id\":{k},\"kind\":\"stats\"}}"),
                family: None,
                interactive: true,
                expect: Expect::Stats,
            }
        }
    };
    on_family(k, kind, format!("hypercube:{n}"), HOT_LAYERS, expect)
}

/// A `kind` request on `family` at `layers`.
fn on_family(k: u64, kind: &str, family: String, layers: usize, expect: Expect) -> Request {
    Request {
        line: format!(
            "{{\"id\":{k},\"kind\":\"{kind}\",\"family\":\"{family}\",\"layers\":{layers}}}"
        ),
        family: Some(family),
        interactive: expect != Expect::Cold,
        expect,
    }
}

/// A `sweep-shard` request.
fn sweep(k: u64, sweep_seed: u64, cases: u64) -> Request {
    Request {
        line: format!(
            "{{\"id\":{k},\"kind\":\"sweep-shard\",\"seed\":{sweep_seed},\"cases\":{cases}}}"
        ),
        family: None,
        interactive: false,
        expect: Expect::Sweep,
    }
}

/// Whether `response` correctly answers request `k`.
fn validate(response: &str, k: u64, req: &Request) -> Result<(), String> {
    let fail = || {
        let head: String = response.chars().take(160).collect();
        Err(format!("request {k} {}: {head}", req.line))
    };
    if !response.starts_with(&format!("{{\"id\":{k},\"ok\":true,")) {
        return fail();
    }
    let digest = || {
        let at = response.find("\"digest\":\"")? + 10;
        u64::from_str_radix(response.get(at..at + 16)?, 16).ok()
    };
    let hot = |n: u64| expected::lookup(expected::SERVE, &format!("hypercube:{n}@{HOT_LAYERS}"));
    let ok = match req.expect {
        Expect::Hot(n) => {
            response.contains("\"checked\":true") && digest().is_some() && digest() == hot(n)
        }
        Expect::HotCheck(n) => {
            response.contains("\"legal\":true") && digest().is_some() && digest() == hot(n)
        }
        Expect::Cold => response.contains("\"checked\":true"),
        Expect::Sweep => {
            response.contains("\"results\":[{") && !response.contains("\"checked\":false")
        }
        Expect::Stats => response.contains("\"engine\":{"),
    };
    if ok {
        Ok(())
    } else {
        fail()
    }
}

/// `expected/` lines: the hot set's layout digests.
pub fn expected() -> Vec<String> {
    FULL.hot
        .clone()
        .map(|n| {
            let family = mlv_layout::families::hypercube(n as usize);
            let digest = mlv_layout::engine::layout_digest(&family.realize(HOT_LAYERS));
            format!("hypercube:{n}@{HOT_LAYERS} {digest:016x}")
        })
        .collect()
}

fn config() -> ServeConfig {
    ServeConfig {
        // deep enough that no stall of this mix sheds a request, and
        // large enough that nothing is evicted
        queue_depth: 1024,
        cache_capacity: 1 << 20,
        ..ServeConfig::default()
    }
}

/// A service whose cache holds the hot set and, after a few sweeps, the
/// lattice draws that recur from sweep to sweep: the first sweeps on a
/// fresh service cost several times what later ones do.
fn warmed(seed: u64, scale: Scale) -> Result<Service, String> {
    let service = Service::new(config());
    let m = mix(scale);
    let hot = m.hot.clone().map(|n| {
        let family = format!("hypercube:{n}");
        on_family(n, "realize", family, HOT_LAYERS, Expect::Hot(n))
    });
    let sweeps = (0..WARM_SWEEPS).map(|i| sweep(i, sub_seed(seed, WARM_UP, i), m.cases));
    for req in hot.chain(sweeps) {
        let k = frame_id(&req.line).expect("generated frames carry an id");
        validate(&service.handle_line(&req.line), k, &req)?;
    }
    Ok(service)
}

/// A warmed service listening on loopback, with this process's two
/// client connections open.
struct Server {
    handle: Option<ServerHandle>,
    conns: Vec<TcpStream>,
}

impl Server {
    fn start(seed: u64, scale: Scale) -> Result<Server, String> {
        let service = Arc::new(warmed(seed, scale)?);
        let handle = listen(service, "127.0.0.1:0", 2).map_err(|e| format!("listen: {e}"))?;
        let mut server = Server {
            conns: Vec::new(),
            handle: None,
        };
        let addr = handle.addr();
        server.handle = Some(handle);
        for _ in 0..2 {
            let c = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
            c.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
            server.conns.push(c);
        }
        Ok(server)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // the connection threads end when their clients hang up, and
        // shutdown joins them
        self.conns.clear();
        if let Some(h) = self.handle.take() {
            h.shutdown();
        }
    }
}

/// Latencies of one open-loop phase, seconds.
#[derive(Default)]
struct OpenLoop {
    interactive: Vec<f64>,
    other: Vec<f64>,
    /// How late each request was written after it was due.
    lag: Vec<f64>,
}

/// Open loop: request `j` of the phase (stream index `first + j`) is due
/// `j / rate` seconds after the start and goes to connection
/// `j % conns.len()`. One thread writes each request when due and polls
/// every connection for responses in between. Requests are due for
/// `seconds`; each latency runs from the due time to the response.
fn open_loop(
    conns: &mut [TcpStream],
    first: u64,
    rate: f64,
    seconds: f64,
    make: &dyn Fn(u64) -> Request,
    check: &dyn Fn(&str, u64, &Request) -> Result<(), String>,
    tally: &mut Tally,
) -> OpenLoop {
    let mut out = OpenLoop::default();
    let mut pending: HashMap<u64, (Instant, Request)> = HashMap::new();
    let mut readers: Vec<Lines> = conns.iter().map(|_| Lines::default()).collect();
    if let Err(e) = conns.iter().try_for_each(|c| c.set_nonblocking(true)) {
        tally.fail(format!("nonblocking: {e}"));
        return out;
    }
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let due = |j: u64| start + Duration::from_secs_f64(j as f64 / rate);
    let mut j = 0;
    'run: loop {
        let now = Instant::now();
        while due(j) <= now && due(j) < end {
            let req = make(first + j);
            let lane = (j % conns.len() as u64) as usize;
            out.lag.push((Instant::now() - due(j)).as_secs_f64());
            if let Err(e) = write_line(&mut conns[lane], &req.line) {
                tally.fail(format!("write: {e}"));
                break 'run;
            }
            pending.insert(first + j, (due(j), req));
            j += 1;
        }
        let mut heard = false;
        for (conn, lines) in conns.iter_mut().zip(&mut readers) {
            match lines.read_available(conn) {
                Ok(n) => heard |= n > 0,
                Err(e) => {
                    tally.fail(format!("read: {e}"));
                    break 'run;
                }
            }
            let at = Instant::now();
            while let Some(line) = lines.take() {
                let Some((k, (due_at, req))) =
                    frame_id(&line).and_then(|k| Some((k, pending.remove(&k)?)))
                else {
                    tally.fail(format!("unexpected response {line}"));
                    continue;
                };
                let ok = check(&line, k, &req);
                tally.check(ok.is_ok(), || ok.unwrap_err());
                let latency = (at - due_at).as_secs_f64();
                if req.interactive {
                    out.interactive.push(latency);
                } else {
                    out.other.push(latency);
                }
            }
        }
        if due(j) >= end && (pending.is_empty() || now > end + DRAIN) {
            break;
        }
        if !heard {
            std::thread::sleep(POLL.min(due(j).saturating_duration_since(Instant::now())));
        }
    }
    for (k, (_, req)) in pending {
        tally.fail(format!("no response to request {k} {}", req.line));
    }
    if let Err(e) = conns.iter().try_for_each(|c| c.set_nonblocking(false)) {
        tally.fail(format!("blocking: {e}"));
    }
    out
}

/// Closed loop: each connection's thread sends its next request as soon
/// as the previous response arrives, until `seconds` have passed.
/// Returns completed requests per second.
fn closed_loop(
    conns: &mut [TcpStream],
    first: u64,
    seconds: f64,
    make: &(dyn Fn(u64) -> Request + Sync),
    tally: &mut Tally,
) -> f64 {
    let lanes = conns.len() as u64;
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let parts: Vec<(u64, Tally)> = std::thread::scope(|s| {
        let threads: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(lane, conn)| {
                s.spawn(move || {
                    let mut tally = Tally::default();
                    let mut reader = Lines::default();
                    let mut k = first + lane as u64;
                    let mut done = 0;
                    while Instant::now() < end {
                        let req = make(k);
                        let response =
                            write_line(conn, &req.line).and_then(|()| reader.next(conn, DRAIN));
                        match response {
                            Ok(line) => {
                                let ok = validate(&line, k, &req);
                                tally.check(ok.is_ok(), || ok.unwrap_err());
                                done += 1;
                            }
                            Err(e) => {
                                tally.fail(format!("request {k}: {e}"));
                                break;
                            }
                        }
                        k += lanes;
                    }
                    (done, tally)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("load thread panicked"))
            .collect()
    });
    let secs = start.elapsed().as_secs_f64();
    let mut done = 0;
    for (d, t) in parts {
        done += d;
        tally.merge(t);
    }
    done as f64 / secs
}

fn write_line(conn: &mut TcpStream, line: &str) -> std::io::Result<()> {
    conn.write_all(line.as_bytes())?;
    conn.write_all(b"\n")
}

/// The `"id":N` of a response frame.
fn frame_id(line: &str) -> Option<u64> {
    let tail = line.strip_prefix("{\"id\":")?;
    tail[..tail.find(|c: char| !c.is_ascii_digit())?]
        .parse()
        .ok()
}

/// Newline-framed reading from a socket, keeping partial frames.
#[derive(Default)]
struct Lines {
    buf: Vec<u8>,
}

impl Lines {
    /// Read whatever arrives within `wait` (maybe nothing).
    fn fill(&mut self, conn: &mut TcpStream, wait: Duration) -> std::io::Result<()> {
        conn.set_read_timeout(Some(wait.max(Duration::from_micros(1))))?;
        let mut chunk = [0u8; 1 << 16];
        match conn.read(&mut chunk) {
            Ok(0) => Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// The oldest complete frame read so far.
    fn take(&mut self) -> Option<String> {
        let p = self.buf.iter().position(|&b| b == b'\n')?;
        let frame: Vec<u8> = self.buf.drain(..=p).collect();
        Some(String::from_utf8_lossy(&frame[..p]).into_owned())
    }

    /// Read everything a nonblocking connection has ready; returns the
    /// bytes read.
    fn read_available(&mut self, conn: &mut TcpStream) -> std::io::Result<usize> {
        let mut chunk = [0u8; 1 << 16];
        let mut total = 0;
        loop {
            match conn.read(&mut chunk) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    total += n;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(total),
                Err(e) => return Err(e),
            }
        }
    }

    /// The next complete frame, waiting at most `wait`.
    fn next(&mut self, conn: &mut TcpStream, wait: Duration) -> std::io::Result<String> {
        let deadline = Instant::now() + wait;
        loop {
            if let Some(line) = self.take() {
                return Ok(line);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(ErrorKind::TimedOut.into());
            }
            self.fill(conn, deadline - now)?;
        }
    }
}

pub fn run(cfg: &RunConfig) -> Report {
    let mut tally = Tally::default();
    let (seed, scale) = (cfg.seed, cfg.scale);
    let make = move |k: u64| request(seed, k, scale);
    if cfg.trace {
        return replay(cfg, &make);
    }
    let (setup_s, server) = timed_setup(|| Server::start(seed, scale));
    let mut server = match server {
        Ok(s) => s,
        Err(e) => {
            tally.fail(format!("set-up: {e}"));
            return Report {
                tally,
                metrics: Vec::new(),
            };
        }
    };
    let open = open_loop(
        &mut server.conns,
        0,
        RATE,
        cfg.seconds * OPEN_SHARE,
        &make,
        &validate,
        &mut tally,
    );
    let capacity = closed_loop(
        &mut server.conns,
        CLOSED_BASE,
        cfg.seconds * (1.0 - OPEN_SHARE),
        &move |k| hot_request(seed, k, scale),
        &mut tally,
    );
    drop(server);

    if open.interactive.is_empty() {
        tally.fail("no interactive response in the open-loop phase".into());
        return Report {
            tally,
            metrics: Vec::new(),
        };
    }
    let lat = stats::sorted(&open.interactive);
    warn_unsupported(lat.len(), TAIL);
    let lag = stats::sorted(&open.lag);
    let other_p50 = if open.other.is_empty() {
        0.0
    } else {
        stats::median(&open.other)
    };
    eprintln!(
        "open loop at {RATE} rps: {} interactive responses (p99 {:.3} ms), {} misses and \
         sweeps (p50 {:.3} ms), generator lag p99 {:.3} ms; closed loop: {capacity:.1} rps",
        lat.len(),
        stats::percentile(&lat, 0.99) * 1e3,
        open.other.len(),
        other_p50 * 1e3,
        stats::percentile(&lag, 0.99) * 1e3,
    );
    let metrics = vec![
        ("setup_s", setup_s),
        ("peak_rss_mb", peak_rss_mb()),
        ("throughput_per_s", capacity),
        ("latency_p50_ms", stats::percentile(&lat, 0.5) * 1e3),
        ("latency_tail_ms", stats::percentile(&lat, TAIL) * 1e3),
    ];
    Report { tally, metrics }
}

/// The traced run: replay the request stream in-process through
/// `Service::handle_line`, parsing each named family once more just
/// before its request so the registry's share of the handler shows.
fn replay(cfg: &RunConfig, make: &dyn Fn(u64) -> Request) -> Report {
    let mut tally = Tally::default();
    let mut broken = None;
    let run = traced_run(
        cfg.seconds,
        || {
            warmed(cfg.seed, cfg.scale).unwrap_or_else(|e| {
                broken = Some(e);
                Service::new(config())
            })
        },
        |service, i| {
            let k = i as u64;
            let req = make(k);
            if let Some(f) = &req.family {
                let _s = mlv_core::span!("bench.registry");
                let _ = registry::parse(f);
            }
            let t = Instant::now();
            let response = {
                let _s = mlv_core::span!("bench.serve");
                service.handle_line(&req.line)
            };
            let secs = t.elapsed().as_secs_f64();
            let ok = validate(&response, k, &req);
            tally.check(ok.is_ok(), || ok.unwrap_err());
            secs
        },
    );
    if let Some(e) = broken {
        tally.fail(format!("set-up: {e}"));
    }
    let metrics = layers::per_layer(&run, &mut tally);
    Report { tally, metrics }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn requests_follow_the_seed() {
        let a: Vec<Request> = (0..200).map(|k| request(7, k, Scale::Full)).collect();
        let b: Vec<Request> = (0..200).map(|k| request(7, k, Scale::Full)).collect();
        let c: Vec<Request> = (0..200).map(|k| request(8, k, Scale::Full)).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let interactive = a.iter().filter(|r| r.interactive).count();
        assert!(
            (160..=195).contains(&interactive),
            "{interactive} of 200 interactive"
        );
        assert!(a.iter().all(|r| frame_id(&r.line).is_some()));
    }

    /// A server answering `stats` frames at once, except that it stops
    /// reading for `stall` when request `stall_at` arrives.
    fn stalling_server(
        stall_at: u64,
        stall: Duration,
    ) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            let mut lines = Lines::default();
            while let Ok(line) = lines.next(&mut conn, Duration::from_secs(5)) {
                let k = frame_id(&line).expect("id");
                if k == stall_at {
                    std::thread::sleep(stall);
                }
                let out = format!("{{\"id\":{k},\"ok\":true,\"kind\":\"stats\"}}\n");
                if conn.write_all(out.as_bytes()).is_err() {
                    break;
                }
            }
        });
        (addr, server)
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        // 200 rps for 0.5 s: one request every 5 ms; the server stalls
        // 100 ms on request 20, so requests 21..=39 are due during the
        // stall and their latency must include the rest of it
        let (addr, server) = stalling_server(20, Duration::from_millis(100));
        let mut conns = vec![TcpStream::connect(addr).expect("connect")];
        let make = |k: u64| Request {
            line: format!("{{\"id\":{k},\"kind\":\"stats\"}}"),
            family: None,
            interactive: true,
            expect: Expect::Stats,
        };
        let check = |line: &str, k: u64, _: &Request| {
            if frame_id(line) == Some(k) {
                Ok(())
            } else {
                Err(line.to_string())
            }
        };
        let mut tally = Tally::default();
        let out = open_loop(&mut conns, 0, 200.0, 0.5, &make, &check, &mut tally);
        drop(conns);
        server.join().expect("server");
        assert_eq!(
            (tally.attempted, tally.failed),
            (100, 0),
            "{:?}",
            tally.notes
        );
        let lat = &out.interactive;
        assert_eq!(lat.len(), 100);
        // the request due 5 ms into the stall waits ~95 ms more; one due
        // 90 ms in still waits ~10 ms
        assert!(lat[21] >= 0.09, "request 21 took {:.1} ms", lat[21] * 1e3);
        assert!(lat[38] >= 0.005, "request 38 took {:.1} ms", lat[38] * 1e3);
        assert!(lat[20] >= 0.1);
        // well after the stall, latency is back to a loopback round trip
        assert!(stats::median(&lat[60..]) < 0.05);
    }

    #[test]
    fn open_loop_latency_counts_generator_lateness() {
        // the generator itself stalls 50 ms while making request 10 (due
        // at 50 ms); requests 10..=19 go out late, and counting from
        // their due times charges them the lateness
        let (addr, server) = stalling_server(u64::MAX, Duration::ZERO);
        let mut conns = vec![TcpStream::connect(addr).expect("connect")];
        let make = |k: u64| {
            if k == 10 {
                std::thread::sleep(Duration::from_millis(50));
            }
            Request {
                line: format!("{{\"id\":{k},\"kind\":\"stats\"}}"),
                family: None,
                interactive: true,
                expect: Expect::Stats,
            }
        };
        let check = |_: &str, _: u64, _: &Request| Ok(());
        let mut tally = Tally::default();
        let out = open_loop(&mut conns, 0, 200.0, 0.2, &make, &check, &mut tally);
        drop(conns);
        server.join().expect("server");
        assert_eq!(
            (tally.attempted, tally.failed),
            (40, 0),
            "{:?}",
            tally.notes
        );
        assert!(out.interactive[10] >= 0.05);
        assert!(out.interactive[11] >= 0.04);
        assert!(
            out.lag[11] >= 0.04,
            "request 11 went out {:.1} ms late",
            out.lag[11] * 1e3
        );
    }
}
