//! `mlv` — build, verify, analyze, and render multilayer VLSI layouts
//! of interconnection networks (ICPP 2000 reproduction).
//!
//! ```text
//! mlv families                                  list family specs
//! mlv layout hypercube:8 --layers 4 [options]   build + report one layout
//! mlv sweep karyn:8,2 --layers 2,4,8,16         engine batch, JSON per job
//! mlv sweep --lattice --cases 8                 full registry lattice
//! mlv figures [f1|f2|f3|f4|folded|layout]       the paper's figures
//! mlv tables [<id>]                             measured vs paper tables
//! ```
//!
//! `mlv layout` options:
//! `--check` (full legality verification), `--routed` (worst-pair
//! routed wire length), `--node-side S`, `--active-layers LA` (3-D
//! model), `--svg PATH`, `--save PATH` (text format, reloadable with
//! `mlv check`), `--ascii`, `--json` (machine-readable report).
//!
//! Every command prints through [`write_stdout`], so `mlv … | head`
//! ends quietly once the reader has what it wants, and reports through
//! [`write_stderr`], so a closed stderr leaves its exit code alone.

/// `print!` through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        out!("{}\n", format_args!($($arg)*))
    };
}

/// `eprintln!` through [`write_stderr`].
macro_rules! errln {
    ($($arg:tt)*) => {
        $crate::write_stderr(format_args!("{}\n", format_args!($($arg)*)))
    };
}

mod parse;
mod report;
mod tables;

use mlv_grid::checker;
use mlv_grid::io::write_layout;
use mlv_grid::metrics::{LayoutMetrics, PhysicalMetrics};
use mlv_grid::streaming::{metrics_stream, StreamSource};
use mlv_grid::svg::{render_svg, SvgOptions};
use mlv_layout::passes::{check_stack, max_node_side, min_node_side};
use mlv_layout::realize::{align_wires, RealizeOptions};
use mlv_layout::realize3d::Realize3dOptions;
use mlv_layout::{realize_tiled, realize_tiled_3d, registry, TiledLayout};
use parse::{parse_family, parse_layers};
use report::Report;
use std::io::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("families") => cmd_families(&args[1..]),
        Some("layout") => cmd_layout(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("figures") => cmd_figures(&args[1..]),
        Some("tables") => cmd_tables(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("conformance") => cmd_conformance(&args[1..]),
        Some("--help") | Some("-h") | None => {
            out!("{}", HELP);
            ExitCode::SUCCESS
        }
        Some(other) => {
            errln!("unknown command '{other}'\n\n{HELP}");
            ExitCode::FAILURE
        }
    };
    if let Err(e) = std::io::stdout().flush() {
        stdout_failed(e);
    }
    code
}

/// Write to stdout, the one way every command prints. A reader that
/// closed the pipe early ends the process quietly with exit 0; any
/// other write error is `error: …`, exit 1.
fn write_stdout(args: std::fmt::Arguments) {
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        stdout_failed(e);
    }
}

/// Write to stderr, the one way every command reports. A write error is
/// ignored: with nobody left to read, a report cannot change the exit
/// code.
fn write_stderr(args: std::fmt::Arguments) {
    let _ = std::io::stderr().lock().write_fmt(args);
}

fn stdout_failed(e: std::io::Error) -> ! {
    if e.kind() == std::io::ErrorKind::BrokenPipe {
        std::process::exit(0);
    }
    errln!("error: writing stdout: {e}");
    std::process::exit(1);
}

const HELP: &str = "\
mlv — multilayer VLSI layouts of interconnection networks

USAGE:
  mlv families [--json]
  mlv layout <family-spec> --layers <L> [--active-layers <LA>] [--check]
             [--routed] [--node-side <S>] [--svg <path>] [--save <path>]
             [--ascii] [--json] [--tiled] [--pdk uniform|hv6|@file.pdk]
  mlv sweep  <family-spec> --layers <L1,L2,...> [--no-check] [--trace <path>]
             [--pdk uniform|hv6|@file.pdk]
  mlv sweep  --lattice [--seed <u64>] [--cases <n>] [--no-check] [--trace <path>]
             [--pdk uniform|hv6|@file.pdk]
  mlv profile <family> [<params>] [--layers <L>] [--no-check]
             [--pdk uniform|hv6|@file.pdk]
  mlv check  <layout-file.mlv> [--pdk uniform|hv6|@file.pdk]
  mlv serve  [--stdio] [--listen <addr>] [--queue-depth <n>]
             [--max-connections <n>] [--cache-capacity <n>]
             [--pdk uniform|hv6|@file.pdk]
  mlv figures [f1|f2|f3|f4|folded|layout]
  mlv tables [<id>]
  mlv conformance [--seed <u64>] [--cases <n>] [--families a,b,...]
                  [--no-inject] [--pdk-axis]

EXAMPLES:
  mlv layout hypercube:8 --layers 4 --check
  mlv layout karyn:8,2 --layers 8 --svg torus.svg
  mlv layout hypercube:8 --layers 6 --pdk hv6 --check
  mlv sweep ghc:16,16 --layers 2,4,8,16
  mlv sweep --lattice --seed 2000 --cases 8 --trace sweep.trace
  mlv profile hypercube 6 --layers 4
  mlv conformance --seed 2000 --cases 12 --pdk-axis
  mlv tables hypercube
  mlv serve --stdio
  mlv serve --listen 127.0.0.1:7171 --max-connections 8

`mlv sweep` drives the parallel batch-realization engine: one JSON
line per (family, L) job on stdout (label, layout digest, metrics,
check status, cache flag), in job order and byte-identical for any
MLV_THREADS; cache counters and wall-clock go to stderr. `--lattice`
enumerates the full registry parameter lattice (seeded; the same
(family, params, L) grid the conformance harness walks). Legality
checking is on by default; --no-check skips it. Exits nonzero if any
checked job is illegal. --trace <path> writes the run's trace (one
JSON object per span/counter/histogram plus a closing digest line);
the digest covers only deterministic fields, so it is identical for
any MLV_THREADS.

`mlv layout` realizes into the hierarchical tile IR: a small tile table
plus one instance record per wire. `--check`, the metrics and `--save`
walk the tile instances. `--tiled` prints the streaming report, which
never builds the flat grid; the full report's analytics, `--svg`,
`--ascii` and `--routed` materialize it.

`mlv tables` prints the tables that compare measured layouts with the
paper's closed forms, all of them or the one named: model_comparison,
karyncube, hypercube, genhyper, butterfly, hsn_isn, ccc,
folded_enhanced, clusterc, lower_bounds, mesh, cayley, routing,
congestion, 3d. Every measured row is a checked engine job; an illegal
layout ends the run with an error naming it.

`mlv profile` realizes one family through the engine under a trace
and prints the trace to stdout: per-pass pipeline spans, engine and
checker spans, counters, histograms, and the deterministic digest.

`mlv conformance` fuzzes every family over a seeded lattice (checker,
differential, and prediction oracles + fault injection), prints one
JSON line per family, and exits nonzero on any violation. Env
fallbacks: MLV_SEED, MLV_CONFORMANCE_CASES, MLV_PDK_AXIS; MLV_THREADS
sizes the executor (the report is byte-identical for any thread count).

`mlv serve` runs the persistent layout service: one engine (shared
memo cache, parallel fan-out) answering JSON-lines requests — kinds
realize, check, metrics, sweep-shard, profile, stats — over stdio
and/or a TCP listener. Per-connection queues are bounded; a full queue
or an over-cap connection is answered with one busy frame carrying
retry_after_ms instead of buffering. Response bytes are deterministic
for any MLV_THREADS. --pdk sets the default stack for requests that
don't carry their own `pdk`/`pdk_text` field. With neither --stdio nor
--listen, serve defaults to stdio.

`--pdk` threads a technology stack through the pipeline: per-layer
preferred directions steer the layer-assignment pass, per-layer pitches
widen wiring gaps and track spacing, and reports gain pitch-weighted
physical area/wirelength. `uniform` is the paper's unit grid — the
identity; with it (or no flag) every output stays byte-identical.
`hv6` is a built-in 6-layer alternating-HV stack; `@file.pdk` loads a
text stack (see mlv-grid's pdk module docs for the format). With a
non-uniform stack `--check` verifies direction/pitch legality too.
`mlv conformance --pdk-axis` adds the technology differential oracle
and the direction/pitch fault-injection strategies.
";

fn cmd_families(args: &[String]) -> ExitCode {
    let json = match args {
        [] => false,
        [flag] if flag == "--json" => true,
        _ => {
            errln!("usage: mlv families [--json]");
            return ExitCode::FAILURE;
        }
    };
    if json {
        // one object per line, mirroring the conformance report style
        for e in registry::REGISTRY {
            outln!(
                "{{\"name\":\"{}\",\"keyword\":\"{}\",\"spec\":\"{}\",\"description\":\"{}\",\"example\":\"{}\",\"lattice\":{}}}",
                e.name,
                e.keyword,
                e.grammar,
                e.description,
                e.example,
                e.lattice.is_some()
            );
        }
    } else {
        outln!("family specs (use with `mlv layout <spec> ...`):\n");
        for e in registry::REGISTRY {
            outln!("  {:<42} {}", e.grammar, e.description);
        }
    }
    ExitCode::SUCCESS
}

struct Flags {
    positional: Vec<String>,
    layers: Option<String>,
    active_layers: Option<usize>,
    node_side: Option<usize>,
    svg: Option<String>,
    save: Option<String>,
    ascii: bool,
    json: bool,
    check: bool,
    no_check: bool,
    routed: bool,
    tiled: bool,
    lattice: bool,
    seed: Option<u64>,
    cases: Option<usize>,
    trace: Option<String>,
    pdk: Option<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        positional: Vec::new(),
        layers: None,
        active_layers: None,
        node_side: None,
        svg: None,
        save: None,
        ascii: false,
        json: false,
        check: false,
        no_check: false,
        routed: false,
        tiled: false,
        lattice: false,
        seed: None,
        cases: None,
        trace: None,
        pdk: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--layers" => f.layers = Some(it.next().ok_or("--layers needs a value")?.clone()),
            "--active-layers" => {
                f.active_layers = Some(
                    it.next()
                        .ok_or("--active-layers needs a value")?
                        .parse()
                        .map_err(|_| "--active-layers needs an integer")?,
                )
            }
            "--node-side" => {
                f.node_side = Some(
                    it.next()
                        .ok_or("--node-side needs a value")?
                        .parse()
                        .map_err(|_| "--node-side needs an integer")?,
                )
            }
            "--svg" => f.svg = Some(it.next().ok_or("--svg needs a path")?.clone()),
            "--save" => f.save = Some(it.next().ok_or("--save needs a path")?.clone()),
            "--ascii" => f.ascii = true,
            "--json" => f.json = true,
            "--check" => f.check = true,
            "--no-check" => f.no_check = true,
            "--routed" => f.routed = true,
            "--tiled" => f.tiled = true,
            "--lattice" => f.lattice = true,
            "--seed" => {
                f.seed = Some(
                    it.next()
                        .ok_or("--seed needs a value")?
                        .parse()
                        .map_err(|_| "--seed needs an unsigned integer")?,
                )
            }
            "--cases" => {
                f.cases = Some(
                    it.next()
                        .ok_or("--cases needs a value")?
                        .parse()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or("--cases needs a positive integer")?,
                )
            }
            "--trace" => f.trace = Some(it.next().ok_or("--trace needs a path")?.clone()),
            "--pdk" => {
                f.pdk = Some(
                    it.next()
                        .ok_or("--pdk needs a value (uniform, hv6, or @file.pdk)")?
                        .clone(),
                )
            }
            other if other.starts_with("--") => return Err(format!("unknown flag '{other}'")),
            other => f.positional.push(other.to_string()),
        }
    }
    Ok(f)
}

fn fail(msg: impl std::fmt::Display) -> ExitCode {
    errln!("error: {msg}");
    ExitCode::FAILURE
}

/// Resolve a `--pdk` value. `uniform` (and any loaded stack that turns
/// out uniform) resolves to `None` — the uniform grid is the identity,
/// so treating it exactly like "no flag" keeps output byte-identical.
fn resolve_pdk(flag: Option<&str>) -> Result<Option<mlv_grid::pdk::Pdk>, String> {
    match flag {
        None | Some("uniform") => Ok(None),
        Some("hv6") => Ok(Some(mlv_grid::pdk::Pdk::hv6())),
        Some(spec) => {
            let Some(path) = spec.strip_prefix('@') else {
                return Err(format!(
                    "unknown PDK '{spec}' (use uniform, hv6, or @file.pdk)"
                ));
            };
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            let pdk = mlv_grid::pdk::read_pdk(&text).map_err(|e| format!("{path}: {e}"))?;
            Ok(Some(pdk).filter(|p| !p.is_uniform()))
        }
    }
}

fn cmd_layout(args: &[String]) -> ExitCode {
    let flags = match parse_flags(args) {
        Ok(f) => f,
        Err(e) => return fail(e),
    };
    let Some(spec) = flags.positional.first() else {
        return fail("missing <family-spec>; try `mlv families`");
    };
    let family = match parse_family(spec) {
        Ok(f) => f,
        Err(e) => return fail(e),
    };
    let layers = match flags.layers.as_deref().map(parse_layers) {
        Some(Ok(ls)) if ls.len() == 1 => ls[0],
        Some(Ok(_)) => return fail("`mlv layout` takes one layer count; use `mlv sweep`"),
        Some(Err(e)) => return fail(e),
        None => 2,
    };
    let pdk = match resolve_pdk(flags.pdk.as_deref()) {
        Ok(p) => p,
        Err(e) => return fail(e),
    };
    if flags.tiled && (flags.svg.is_some() || flags.ascii || flags.routed) {
        return fail("--svg/--ascii/--routed need flat geometry; drop --tiled");
    }
    let opts_3d = flags.active_layers.map(|la| Realize3dOptions {
        layers,
        active_layers: la,
        node_side: flags.node_side,
        pdk: pdk.clone(),
    });
    if let Some(Err(e)) = opts_3d.as_ref().map(Realize3dOptions::validate) {
        return fail(e);
    }
    let active_layers = flags.active_layers.unwrap_or(1);
    if let Err(e) = check_stack(pdk.as_ref(), layers, active_layers) {
        return fail(e);
    }
    if let Some(side) = flags.node_side {
        let demand = min_node_side(&family.spec, active_layers);
        if side < demand {
            return fail(format!(
                "--node-side {side} is below the terminal demand: {spec} needs a node side of at least {demand}"
            ));
        }
        let max = max_node_side(&family.spec, layers, active_layers, pdk.as_ref());
        if max.is_none_or(|max| side > max) {
            let most = max.map_or("no node side fits".into(), |m| {
                format!("{spec} takes a node side of at most {m}")
            });
            return fail(format!(
                "--node-side {side} puts the layout past the i64 coordinate range: {most}"
            ));
        }
    }
    let tiled = match &opts_3d {
        Some(o) if o.active_layers > 1 => realize_tiled_3d(&family.spec, o),
        _ => realize_tiled(
            &family.spec,
            &RealizeOptions {
                layers,
                node_side: flags.node_side,
                jog_strategy: Default::default(),
                pdk: pdk.clone(),
            },
        ),
    };
    let metrics = metrics_stream(&tiled);
    // the streaming report has no physical section
    let physical = match &pdk {
        Some(p) if !flags.tiled => match PhysicalMetrics::of(&tiled, p) {
            Ok(ph) => Some(ph),
            Err(e) => {
                errln!("warning: {e}");
                None
            }
        },
        _ => None,
    };
    let checked = flags.check.then(|| {
        let r = match &pdk {
            Some(p) => checker::check_with_pdk(&tiled, Some(&family.graph), p),
            None => checker::check(&tiled, Some(&family.graph)),
        };
        if !r.is_legal() {
            errln!(
                "legality check FAILED: {:?}",
                &r.errors[..r.errors.len().min(3)]
            );
        }
        r.is_legal()
    });
    // the full report's analytics, the renderings and the routed metric
    // read stored geometry; the streaming report never materializes
    let flat = if flags.tiled {
        print_tiled_report(&tiled, &metrics, checked, flags.json);
        None
    } else {
        let mut layout = tiled.materialize();
        let mut rep = Report::collect(&layout, metrics);
        rep.physical = physical;
        rep.checked = checked;
        if flags.routed {
            align_wires(&mut layout, &family.graph);
            rep.routed = LayoutMetrics::max_routed_path(&layout, &family.graph);
        }
        if flags.json {
            out!("{}", rep.json());
        } else {
            out!("{}", rep.text());
        }
        if flags.ascii {
            outln!("\n{}", mlv_grid::render::render_top(&layout));
        }
        Some(layout)
    };
    if let Some(path) = &flags.save {
        // `--routed` reorders the wires, and the saved file keeps that order
        let text = match &flat {
            Some(layout) if flags.routed => write_layout(layout),
            _ => write_layout(&tiled),
        };
        if let Err(e) = std::fs::write(path, text) {
            return fail(format!("writing {path}: {e}"));
        }
        errln!("saved {path}");
    }
    if let (Some(path), Some(layout)) = (&flags.svg, &flat) {
        let svg = render_svg(layout, &SvgOptions::default());
        if let Err(e) = std::fs::write(path, svg) {
            return fail(format!("writing {path}: {e}"));
        }
        errln!("wrote {path}");
    }
    if checked == Some(false) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// The `--tiled` report: counts, the tile table's size, the streaming
/// metrics and the tiled IR's own digest.
fn print_tiled_report(tiled: &TiledLayout, m: &LayoutMetrics, legal: Option<bool>, json: bool) {
    if json {
        outln!(
            "{{\"name\":\"{}\",\"layers\":{},\"nodes\":{},\"wires\":{},\"tiles\":{},\"digest\":\"{:#018x}\",\"width\":{},\"height\":{},\"area\":{},\"volume\":{},\"max_wire\":{},\"vias\":{}{}}}",
            tiled.name,
            tiled.layers,
            tiled.node_count(),
            tiled.wire_count(),
            tiled.tiles.len(),
            tiled.digest(),
            m.width,
            m.height,
            m.area,
            m.volume,
            m.max_wire_full,
            m.via_count,
            match legal {
                Some(ok) => format!(",\"legal\":{ok}"),
                None => String::new(),
            }
        );
    } else {
        outln!("{}", tiled.name);
        outln!(
            "  tiled IR: {} tile shapes, {} instances",
            tiled.tiles.len(),
            tiled.instances.len()
        );
        outln!(
            "  nodes {}  wires {}  layers {}",
            tiled.node_count(),
            tiled.wire_count(),
            tiled.layers
        );
        outln!(
            "  streaming metrics: {}x{} area {} volume {} max-wire {} vias {}",
            m.width,
            m.height,
            m.area,
            m.volume,
            m.max_wire_full,
            m.via_count
        );
        outln!("  tiled digest {:#018x}", tiled.digest());
        if let Some(ok) = legal {
            outln!("  legality: {}", if ok { "VERIFIED" } else { "FAILED" });
        }
    }
}

/// `mlv sweep`: realize a batch of `(family, L)` jobs through the
/// engine ([`mlv_layout::engine`]) and print one JSON line per job, in
/// job order. Stdout is deterministic — byte-identical for any
/// `MLV_THREADS` — so sweep reports can be diffed across machines;
/// wall-clock and cache counters go to stderr. Exits nonzero if any
/// checked job is illegal.
fn cmd_sweep(args: &[String]) -> ExitCode {
    use mlv_layout::engine::{CheckStatus, Engine, EngineOptions, Job};
    let flags = match parse_flags(args) {
        Ok(f) => f,
        Err(e) => return fail(e),
    };
    let pdk = match resolve_pdk(flags.pdk.as_deref()) {
        Ok(p) => p,
        Err(e) => return fail(e),
    };
    let jobs: Vec<Job> = if flags.lattice {
        if !flags.positional.is_empty() {
            return fail("--lattice enumerates the registry; drop the <family-spec>");
        }
        let seed = flags
            .seed
            .or_else(|| std::env::var("MLV_SEED").ok()?.parse().ok())
            .unwrap_or(2000);
        let cases = flags.cases.unwrap_or(8);
        match &pdk {
            Some(p) => errln!(
                "sweep: lattice seed={seed} cases/family={cases} pdk={}",
                p.name
            ),
            None => errln!("sweep: lattice seed={seed} cases/family={cases}"),
        }
        mlv_layout::engine::lattice_jobs_with_pdk(seed, cases, pdk.as_ref())
    } else {
        let Some(spec) = flags.positional.first() else {
            return fail("missing <family-spec> (or use --lattice)");
        };
        let family = match parse_family(spec) {
            Ok(f) => f,
            Err(e) => return fail(e),
        };
        let layers = match flags.layers.as_deref().map(parse_layers) {
            Some(Ok(ls)) => ls,
            Some(Err(e)) => return fail(e),
            None => vec![2, 4, 8],
        };
        layers
            .into_iter()
            .map(|l| match &pdk {
                Some(p) => Job::with_pdk(spec.as_str(), family.clone(), l, p.clone()),
                None => Job::new(spec.as_str(), family.clone(), l),
            })
            .collect()
    };
    if let Err(e) = validate_jobs(&jobs) {
        return fail(e);
    }
    let mut engine = Engine::new(EngineOptions {
        check: !flags.no_check,
        ..EngineOptions::default()
    });
    let clock = std::time::Instant::now();
    let trace = flags.trace.as_ref().map(|_| mlv_core::trace::Trace::new());
    let report = match &trace {
        Some(t) => t.collect(|| engine.run(&jobs)),
        None => engine.run(&jobs),
    };
    let elapsed = clock.elapsed();
    if let (Some(path), Some(t)) = (&flags.trace, &trace) {
        if let Err(e) = std::fs::write(path, trace_document(&t.aggregate())) {
            return fail(format!("writing {path}: {e}"));
        }
        errln!("trace written to {path}");
    }
    let mut illegal = 0usize;
    for r in &report.results {
        if let CheckStatus::Illegal(why) = &r.outcome.check {
            illegal += 1;
            errln!("ILLEGAL [{}]: {why}", r.label);
        }
        outln!("{}", r.json_line());
    }
    errln!(
        "sweep: {} jobs in {:.1} ms — cache hits={} misses={} evictions={}",
        report.results.len(),
        elapsed.as_secs_f64() * 1e3,
        report.cache.hits,
        report.cache.misses,
        report.cache.evictions,
    );
    if illegal > 0 {
        errln!("sweep: {illegal} illegal layout(s)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// The first job [`Job::validate`](mlv_layout::engine::Job::validate)
/// rejects, labelled.
fn validate_jobs(jobs: &[mlv_layout::engine::Job]) -> Result<(), String> {
    jobs.iter()
        .try_for_each(|j| j.validate().map_err(|e| format!("{}: {e}", j.label)))
}

/// Render an [`Aggregate`](mlv_core::trace::Aggregate) as the trace
/// document format shared by `mlv profile` and `mlv sweep --trace`:
/// one JSON object per span/counter/histogram
/// (stable key order, io-escaped names) followed by a closing
/// `{"type":"digest",...}` line over the deterministic subset.
fn trace_document(agg: &mlv_core::trace::Aggregate) -> String {
    let mut out = String::new();
    for line in agg.json_lines() {
        out.push_str(&line);
        out.push('\n');
    }
    out.push_str(&format!(
        "{{\"type\":\"digest\",\"value\":\"{:016x}\"}}\n",
        agg.digest()
    ));
    out
}

/// `mlv profile`: realize one `(family, L)` job through the engine
/// under a trace and print the trace document to stdout — pipeline
/// pass spans, engine/checker spans, counters, histograms, and the
/// deterministic digest. Human-readable summary goes to stderr.
fn cmd_profile(args: &[String]) -> ExitCode {
    use mlv_layout::engine::{CheckStatus, Engine, EngineOptions, Job};
    let flags = match parse_flags(args) {
        Ok(f) => f,
        Err(e) => return fail(e),
    };
    if flags.positional.is_empty() {
        return fail("missing <family-spec>; try `mlv profile hypercube 6 --layers 4`");
    }
    let spec = flags.positional.join(":");
    let family = match parse_family(&spec) {
        Ok(f) => f,
        Err(e) => return fail(e),
    };
    let layers = match flags.layers.as_deref().map(parse_layers) {
        Some(Ok(ls)) if ls.len() == 1 => ls[0],
        Some(Ok(_)) => return fail("`mlv profile` takes one layer count"),
        Some(Err(e)) => return fail(e),
        None => 4,
    };
    let pdk = match resolve_pdk(flags.pdk.as_deref()) {
        Ok(p) => p,
        Err(e) => return fail(e),
    };
    let mut engine = Engine::new(EngineOptions {
        check: !flags.no_check,
        ..EngineOptions::default()
    });
    let jobs = vec![match pdk {
        Some(p) => Job::with_pdk(spec.as_str(), family, layers, p),
        None => Job::new(spec.as_str(), family, layers),
    }];
    if let Err(e) = validate_jobs(&jobs) {
        return fail(e);
    }
    let clock = std::time::Instant::now();
    let trace = mlv_core::trace::Trace::new();
    let report = trace.collect(|| engine.run(&jobs));
    let elapsed = clock.elapsed();
    let agg = trace.aggregate();
    out!("{}", trace_document(&agg));
    let mut illegal = false;
    for r in &report.results {
        if let CheckStatus::Illegal(why) = &r.outcome.check {
            illegal = true;
            errln!("ILLEGAL [{}]: {why}", r.label);
        }
    }
    errln!(
        "profile: {spec} L={layers} in {:.1} ms — {} span(s), {} counter(s), {} histogram(s)",
        elapsed.as_secs_f64() * 1e3,
        agg.spans.len(),
        agg.counters.len(),
        agg.histograms.len(),
    );
    if illegal {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `mlv check <file>`: load a saved layout and re-run the structural
/// legality checks (no topology reference).
fn cmd_check(args: &[String]) -> ExitCode {
    let mut pdk_flag: Option<String> = None;
    let mut path: Option<&String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--pdk" => {
                pdk_flag = Some(match it.next() {
                    Some(v) => v.clone(),
                    None => return fail("--pdk needs a value (uniform, hv6, or @file.pdk)"),
                })
            }
            other if other.starts_with("--") => return fail(format!("unknown flag '{other}'")),
            _ => path = Some(a),
        }
    }
    let pdk = match resolve_pdk(pdk_flag.as_deref()) {
        Ok(p) => p,
        Err(e) => return fail(e),
    };
    let Some(path) = path else {
        return fail("missing <layout-file.mlv>");
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return fail(format!("reading {path}: {e}")),
    };
    let layout = match mlv_grid::io::read_layout(&text) {
        Ok(l) => l,
        Err(e) => return fail(format!("{path}: {e}")),
    };
    let r = match &pdk {
        Some(p) => checker::check_with_pdk(&layout, None, p),
        None => checker::check(&layout, None),
    };
    let m = LayoutMetrics::of(&layout);
    outln!(
        "{}: {} nodes, {} wires, area {}, layers {}",
        layout.name,
        layout.nodes.len(),
        layout.wires.len(),
        m.area,
        layout.layers
    );
    if let Some(p) = &pdk {
        match PhysicalMetrics::of(&layout, p) {
            Ok(ph) => outln!(
                "physical [{}]: area {} ({} x {}), wirelength {} (vias {})",
                ph.pdk,
                ph.area,
                ph.width,
                ph.height,
                ph.wirelength,
                ph.via_cost
            ),
            Err(e) => outln!("physical: unavailable ({e})"),
        }
    }
    if r.is_legal() {
        outln!("legality: VERIFIED");
        ExitCode::SUCCESS
    } else {
        outln!("legality: FAILED ({} error(s))", r.errors.len());
        for e in r.errors.iter().take(5) {
            outln!("  {e:?}");
        }
        ExitCode::FAILURE
    }
}

/// `mlv serve`: run the persistent layout service. `--listen <addr>`
/// starts the TCP transport; `--stdio` (the default when no transport
/// is named) serves stdin/stdout as one connection until EOF. Both may
/// be combined — the TCP listener runs on background threads while the
/// stdio loop blocks the main thread.
fn cmd_serve(args: &[String]) -> ExitCode {
    use mlv_serve::{listen, serve_stdio, ServeConfig, Service};
    let mut stdio = false;
    let mut listen_addr: Option<String> = None;
    let mut max_connections = 16usize;
    let mut pdk_flag: Option<String> = None;
    let mut config = ServeConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--stdio" => stdio = true,
            "--listen" => {
                listen_addr = Some(match it.next() {
                    Some(v) => v.clone(),
                    None => return fail("--listen needs an address (e.g. 127.0.0.1:7171)"),
                })
            }
            "--queue-depth" => {
                config.queue_depth = match it.next().and_then(|v| v.parse().ok()) {
                    Some(n) if n > 0 => n,
                    _ => return fail("--queue-depth needs a positive integer"),
                }
            }
            "--max-connections" => {
                max_connections = match it.next().and_then(|v| v.parse().ok()) {
                    Some(n) if n > 0 => n,
                    _ => return fail("--max-connections needs a positive integer"),
                }
            }
            "--cache-capacity" => {
                config.cache_capacity = match it.next().and_then(|v| v.parse().ok()) {
                    Some(n) if n > 0 => n,
                    _ => return fail("--cache-capacity needs a positive integer"),
                }
            }
            "--pdk" => {
                pdk_flag = Some(match it.next() {
                    Some(v) => v.clone(),
                    None => return fail("--pdk needs a value (uniform, hv6, or @file.pdk)"),
                })
            }
            other => return fail(format!("unknown serve flag '{other}'")),
        }
    }
    config.default_pdk = match resolve_pdk(pdk_flag.as_deref()) {
        Ok(p) => p,
        Err(e) => return fail(e),
    };
    let service = std::sync::Arc::new(Service::new(config));
    let server = match &listen_addr {
        Some(addr) => match listen(std::sync::Arc::clone(&service), addr, max_connections) {
            Ok(h) => {
                errln!("serve: listening on {}", h.addr());
                Some(h)
            }
            Err(e) => return fail(format!("binding {addr}: {e}")),
        },
        None => None,
    };
    if stdio || listen_addr.is_none() {
        errln!("serve: reading JSON-lines requests from stdin");
        let stats = serve_stdio(&service);
        errln!(
            "serve: stdio closed — {} accepted, {} shed, {} oversize",
            stats.accepted,
            stats.shed,
            stats.oversize
        );
        if let Some(h) = server {
            h.shutdown();
        }
        ExitCode::SUCCESS
    } else {
        // TCP only: the accept loop owns the process lifetime
        server.expect("--listen was given").join();
        ExitCode::SUCCESS
    }
}

/// `mlv conformance`: run the cross-family conformance harness and
/// print one JSON line per family. Exit code: 0 only when every oracle
/// passed, no injection survived, and (for full-vocabulary runs with
/// injection on) every `CheckError` kind was exercised.
fn cmd_conformance(args: &[String]) -> ExitCode {
    let mut config = mlv_conformance::Config::from_env();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                config.seed = match it.next().and_then(|v| v.parse().ok()) {
                    Some(s) => s,
                    None => return fail("--seed needs an unsigned integer"),
                }
            }
            "--cases" => {
                config.cases_per_family = match it.next().and_then(|v| v.parse().ok()) {
                    Some(n) if n > 0 => n,
                    _ => return fail("--cases needs a positive integer"),
                }
            }
            "--families" => {
                let Some(list) = it.next() else {
                    return fail("--families needs a comma-separated list");
                };
                let known = mlv_conformance::cases::family_names();
                let families: Vec<String> = list.split(',').map(|s| s.trim().to_string()).collect();
                for f in &families {
                    if !known.contains(&f.as_str()) {
                        return fail(format!("unknown family '{f}'; choose from {known:?}"));
                    }
                }
                config.families = families;
            }
            "--no-inject" => config.inject = false,
            "--pdk-axis" => config.pdk_axis = true,
            other => return fail(format!("unknown conformance flag '{other}'")),
        }
    }
    // full kind coverage is only demanded when the run can deliver it:
    // injection on, the whole family vocabulary in play, and enough
    // cases per family to cycle through every strategy (the cycle is
    // longer when the PDK axis adds its strategies)
    let cycle = if config.pdk_axis {
        mlv_conformance::inject::Strategy::ALL_WITH_PDK.len()
    } else {
        mlv_conformance::inject::Strategy::ALL.len()
    };
    let full = config.inject
        && config.families.len() == mlv_conformance::cases::family_names().len()
        && config.cases_per_family >= cycle;
    errln!(
        "conformance: seed={} cases/family={} families={} inject={} pdk_axis={}",
        config.seed,
        config.cases_per_family,
        config.families.len(),
        config.inject,
        config.pdk_axis
    );
    let report = mlv_conformance::run(&config);
    for r in &report.results {
        outln!("{}", r.json_line());
    }
    if !report.uncovered_kinds().is_empty() {
        errln!(
            "CheckError kinds not exercised: {:?}",
            report.uncovered_kinds()
        );
    }
    if report.passed(full) {
        errln!(
            "conformance: PASSED (reproduce with --seed {})",
            report.seed
        );
        ExitCode::SUCCESS
    } else {
        errln!(
            "conformance: FAILED (reproduce with --seed {})",
            report.seed
        );
        ExitCode::FAILURE
    }
}

/// `mlv tables [id]`: every table, or the one named
/// ([`tables::TABLES`]).
fn cmd_tables(args: &[String]) -> ExitCode {
    let ids = tables::TABLES.map(|(id, _)| id);
    let id = match args {
        [] => None,
        [id] if ids.contains(&id.as_str()) => Some(id.as_str()),
        [id] => return fail(format!("unknown table '{id}'; choose from {ids:?}")),
        _ => return fail("`mlv tables` takes at most one table id"),
    };
    match tables::print(id) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(e),
    }
}

/// `mlv figures [id]`: the paper's figures F1–F4 (all four with no id),
/// §3.1's folded ring (`folded`) or a realized 3-cube by layer (`layout`).
fn cmd_figures(args: &[String]) -> ExitCode {
    use mlv_collinear::complete::complete_collinear;
    use mlv_collinear::folded::fold_outer_groups;
    use mlv_collinear::hypercube::hypercube_collinear;
    use mlv_collinear::karyn::kary_collinear;
    use mlv_collinear::render::render_tracks;
    use mlv_grid::render::{render_block_grid, render_layer, render_top};
    use mlv_layout::scheme::figure1_labels;

    const IDS: [&str; 6] = ["f1", "f2", "f3", "f4", "folded", "layout"];
    let which = match args {
        [] => "",
        [id] if IDS.contains(&id.as_str()) => id.as_str(),
        [id] => return fail(format!("unknown figure '{id}'; choose from {IDS:?}")),
        _ => return fail("`mlv figures` takes at most one figure id"),
    };
    let all = which.is_empty();
    if all || which == "f1" {
        outln!("Figure 1 — recursive grid layout scheme:\n");
        outln!("{}", render_block_grid(&figure1_labels(3, 4), 7, 3));
    }
    if all || which == "f2" {
        let l = kary_collinear(3, 2);
        outln!(
            "Figure 2 — collinear 3-ary 2-cube ({} tracks):\n",
            l.tracks()
        );
        outln!("{}", render_tracks(&l, None));
    }
    if all || which == "f3" {
        let l = complete_collinear(9);
        outln!("Figure 3 — collinear K9 ({} tracks):\n", l.tracks());
        outln!("{}", render_tracks(&l, None));
    }
    if all || which == "f4" {
        let l = hypercube_collinear(4);
        outln!("Figure 4 — collinear 4-cube ({} tracks):\n", l.tracks());
        outln!("{}", render_tracks(&l, None));
    }
    if which == "folded" {
        let plain = kary_collinear(8, 1);
        let folded = fold_outer_groups(&plain, 8);
        outln!("Folding an 8-ring (§3.1) — the wrap link shrinks:\n");
        for (order, l) in [("plain", &plain), ("folded", &folded)] {
            let tracks = render_tracks(l, None);
            outln!("{order} order (max span {}):\n{tracks}", l.max_span());
        }
    }
    if which == "layout" {
        let layout = mlv_layout::families::hypercube(3).realize(4);
        outln!(
            "Realized 3-cube at L=4 — top view:\n\n{}",
            render_top(&layout)
        );
        for z in 0..4 {
            outln!("layer z={z}:\n{}", render_layer(&layout, z));
        }
    }
    ExitCode::SUCCESS
}
