//! Large-N scaling bench for the tiled layout IR.
//!
//! Walks the hypercube and k-ary n-cube ladders up to (by default)
//! 2²⁰ nodes, realizing each size into the tiled IR
//! ([`mlv_layout::realize_tiled`]) and reporting streaming metrics —
//! without ever materializing the flat grid at large N, so peak memory
//! stays proportional to nodes + wires (one instance record per wire)
//! instead of cells. CI runs the 2²⁰ sizes under a `ulimit -v` budget
//! the flat pipeline cannot fit in; the bench itself reports `VmHWM`
//! per size so the scaling table in `EXPERIMENTS.md` is reproducible.
//!
//! At small sizes (≤ 2¹² nodes) every record also runs the legality
//! check over the tile instances plus a differential: the checker's
//! report on the tiled IR must equal the naive point-set reference
//! checker's on the materialized layout. Large sizes skip both — the
//! flat side is exactly the memory the bench avoids, and the naive
//! checker walks every wire *point*, which is hours of work at 2²⁰
//! nodes. The conformance harness already pins checker agreement
//! across the lattice; this bench pins realization scaling.
//!
//! ```text
//! bench_tiled [--family=hypercube|karyn|all] [--layers=L]
//!             [--max-nodes=N] [--digests]
//! ```
//!
//! `--digests` switches to a deterministic digest-only output (one
//! `family n digest` line per size, no timings or RSS): CI diffs this
//! output between `MLV_THREADS=1` and `MLV_THREADS=8` to pin
//! thread-count independence of the tiled pipeline.

use mlv_grid::streaming::StreamSource;
use mlv_layout::{families, RealizeOptions};
use std::process::ExitCode;
use std::time::Instant;

#[path = "../../../grid/tests/support/naive_checker.rs"]
mod naive_checker;

/// Sizes above this many nodes skip the legality check and the
/// naive-checker differential: the flat side is exactly the memory the
/// bench exists to avoid (and would pollute the `VmHWM` column), and
/// checking is per-wire-point work that dwarfs realization at scale.
const DIFFERENTIAL_MAX_NODES: usize = 1 << 12;

/// Peak resident set (`VmHWM`) in kB from `/proc/self/status`; 0 when
/// the proc filesystem is unavailable (non-Linux).
fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

struct Args {
    family: String,
    layers: usize,
    max_nodes: usize,
    digests_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        family: "all".to_string(),
        layers: 4,
        max_nodes: 1 << 20,
        digests_only: false,
    };
    for arg in std::env::args().skip(1) {
        if let Some(v) = arg.strip_prefix("--family=") {
            match v {
                "hypercube" | "karyn" | "all" => a.family = v.to_string(),
                other => return Err(format!("unknown family '{other}'")),
            }
        } else if let Some(v) = arg.strip_prefix("--layers=") {
            a.layers = v
                .parse()
                .ok()
                .filter(|&l| l >= 2 && l % 2 == 0)
                .ok_or("--layers needs an even integer >= 2")?;
        } else if let Some(v) = arg.strip_prefix("--max-nodes=") {
            a.max_nodes = v.parse().map_err(|_| "--max-nodes needs an integer")?;
        } else if arg == "--digests" {
            a.digests_only = true;
        } else {
            return Err(format!("unknown flag '{arg}'"));
        }
    }
    Ok(a)
}

/// One ladder rung: realize tiled, stream metrics + legality, and (at
/// small N) run the naive-checker differential. Returns false on any
/// failure.
fn run_size(tag: &str, n: usize, family: families::Family, args: &Args) -> bool {
    let opts = RealizeOptions::with_layers(args.layers);
    let t0 = Instant::now();
    let tiled = mlv_layout::realize_tiled(&family.spec, &opts);
    let realize_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t1 = Instant::now();
    let m = mlv_grid::metrics_stream(&tiled);
    let metrics_ms = t1.elapsed().as_secs_f64() * 1e3;
    let digest = tiled.digest();

    if args.digests_only {
        println!("{tag} {n} {digest:016x}");
        return true;
    }

    let nodes = tiled.node_count();
    let mut ok = true;
    let (legal, differential, check_ms) = if nodes <= DIFFERENTIAL_MAX_NODES {
        let t2 = Instant::now();
        let report = mlv_grid::check(&tiled, Some(&family.graph));
        let check_ms = t2.elapsed().as_secs_f64() * 1e3;
        if !report.is_legal() {
            eprintln!(
                "FAIL {tag} n={n}: checker found {} error(s): {:?}",
                report.errors.len(),
                report.errors.first()
            );
            ok = false;
        }
        let reference = naive_checker::naive_check(&tiled.materialize(), Some(&family.graph));
        let matches = report == reference;
        if !matches {
            eprintln!("FAIL {tag} n={n}: tiled checker diverged from the naive checker");
            ok = false;
        }
        (
            if report.is_legal() { "true" } else { "false" },
            if matches { "\"ok\"" } else { "\"FAIL\"" },
            check_ms,
        )
    } else {
        ("null", "\"skipped\"", 0.0)
    };

    println!(
        "{{\"bench\":\"tiled\",\"family\":\"{tag}\",\"n\":{n},\"nodes\":{nodes},\
         \"wires\":{},\"layers\":{},\"tiles\":{},\"digest\":\"{digest:016x}\",\
         \"area\":{},\"volume\":{},\"legal\":{legal},\"differential\":{differential},\
         \"realize_ms\":{realize_ms:.1},\"metrics_ms\":{metrics_ms:.1},\
         \"check_ms\":{check_ms:.1},\"peak_rss_kb\":{}}}",
        tiled.wire_count(),
        tiled.layers,
        tiled.tiles.len(),
        m.area,
        m.volume,
        peak_rss_kb(),
    );
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    if args.family == "hypercube" || args.family == "all" {
        for n in [10usize, 12, 14, 16, 18, 20] {
            if 1usize << n > args.max_nodes {
                break;
            }
            ok &= run_size("hypercube", n, families::hypercube(n), &args);
        }
    }
    if args.family == "karyn" || args.family == "all" {
        for n in [5usize, 6, 7, 8, 9, 10] {
            if 4usize.pow(n as u32) > args.max_nodes {
                break;
            }
            ok &= run_size("karyn", n, families::karyn_cube(4, n, false), &args);
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
