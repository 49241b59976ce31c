//! The repository benchmark: four workloads that between them cover
//! every layer of the pipeline, each measured end to end, with a traced
//! variant that breaks the time down per layer. See README.md.
//!
//! ```text
//! benchmark --workload <name|all> [--seed S] [--seconds T] [--trace 0|1]
//! benchmark --workload <name> --print-expected
//! ```
//!
//! A run prints a header line, one JSON line per metric, and, last, the
//! result: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones. `all` runs each workload in a child process (so peak
//! memory is per workload) and fails if any of them does.
//! `--print-expected` prints the workload's `expected/` file.

mod expected;
mod harness;
mod lattice;
mod layers;
mod serve;
mod stats;
mod tiled;
mod verify;

use harness::{drive, Report, RunConfig, Scale, DEFAULT_SEED};
use std::process::ExitCode;

const WORKLOADS: [&str; 4] = [
    "lattice-sweep",
    "verify-medium",
    "tiled-large",
    "serve-open",
];

/// The end-to-end metrics and their units, as BENCHMARK.json lists them.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
];

/// The per-layer metrics and their units, as BENCHMARK.json lists them.
const PER_LAYER: [(&str, &str); 21] = [
    ("registry.construct_ms", "ms"),
    ("passes.placement_ms", "ms"),
    ("passes.tracks_ms", "ms"),
    ("passes.layers_ms", "ms"),
    ("passes.emit_ms", "ms"),
    ("registry.share_pct", "%"),
    ("serve.share_pct", "%"),
    ("engine.share_pct", "%"),
    ("engine.classify_pct", "%"),
    ("engine.residual_pct", "%"),
    ("passes.share_pct", "%"),
    ("checker.share_pct", "%"),
    ("tiled.realize_pct", "%"),
    ("tiled.metrics_pct", "%"),
    ("tiled.digest_pct", "%"),
    ("engine.jobs", "count"),
    ("engine.hit_pct", "%"),
    ("checker.checks", "count"),
    ("passes.wires", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.gap_pct", "%"),
];

struct Args {
    workload: String,
    cfg: RunConfig,
    print_expected: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: "all".into(),
        cfg: RunConfig {
            seed: DEFAULT_SEED,
            seconds: 20.0,
            trace: false,
            scale: Scale::Full,
        },
        print_expected: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--print-expected" {
            out.print_expected = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} needs {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.cfg.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                out.cfg.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                out.cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    if out.workload != "all" && !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!(
            "unknown workload '{}'; one of {} or all",
            out.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(out)
}

fn run_workload(name: &str, cfg: &RunConfig) -> Report {
    match name {
        "lattice-sweep" => drive(&lattice::Lattice::new(cfg), cfg),
        "verify-medium" => drive(&verify::Verify::new(cfg), cfg),
        "tiled-large" => drive(&tiled::Tiled::new(cfg), cfg),
        "serve-open" => serve::run(cfg),
        _ => unreachable!("workload names are checked when parsed"),
    }
}

/// The metric lines and the closing result line of one run. Every
/// catalog metric must have been measured, finite, and (end to end)
/// non-zero; anything else is a failure.
fn render(workload: &str, cfg: &RunConfig, mut report: Report) -> (Vec<String>, bool) {
    let catalog: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let mut lines = Vec::new();
    let mut fields = Vec::new();
    for &(name, unit) in catalog {
        let value = report.metrics.iter().find(|m| m.0 == name).map(|m| m.1);
        match value {
            Some(v) if v.is_finite() && (cfg.trace || v > 0.0) => {
                lines.push(format!(
                    "{{\"workload\":\"{workload}\",\"metric\":\"{name}\",\"value\":{v},\"unit\":\"{unit}\"}}"
                ));
                fields.push(format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"));
            }
            _ => report
                .tally
                .fail(format!("metric {name} not measured ({value:?})")),
        }
    }
    if report.tally.attempted == 0 {
        report.tally.fail("no output was checked".into());
    }
    for note in &report.tally.notes {
        eprintln!("FAIL {workload}: {note}");
    }
    let t = &report.tally;
    let correct = t.failed == 0;
    lines.push(format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        t.attempted,
        t.failed,
        fields.join(",")
    ));
    (lines, correct)
}

/// `all`: each workload in a child process, its lines passed through.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.cfg.seed.to_string()])
            .args(["--seconds", &args.cfg.seconds.to_string()])
            .args(["--trace", if args.cfg.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output();
        match out {
            Ok(o) => {
                print!("{}", String::from_utf8_lossy(&o.stdout));
                ok &= o.status.success();
            }
            Err(e) => {
                eprintln!("{w}: cannot run: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.print_expected {
        let lines = match args.workload.as_str() {
            "lattice-sweep" => lattice::Lattice::new(&args.cfg).expected(),
            "verify-medium" => verify::Verify::expected(),
            "tiled-large" => tiled::Tiled::expected(),
            "serve-open" => serve::expected(),
            _ => {
                eprintln!("error: --print-expected needs one workload");
                return ExitCode::from(2);
            }
        };
        for l in lines {
            println!("{l}");
        }
        return ExitCode::SUCCESS;
    }
    if args.workload == "all" {
        return run_all(&args);
    }

    let env = |k: &str| match std::env::var(k) {
        Ok(v) => format!("\"{}\"", v.escape_default()),
        Err(_) => "null".into(),
    };
    println!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"available_parallelism\":{},\"MLV_THREADS\":{},\"MLV_PAR_WIRES\":{},\"MLV_FRESH_ALLOC\":{}}}",
        args.workload,
        args.cfg.seed,
        args.cfg.seconds,
        args.cfg.trace,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        env("MLV_THREADS"),
        env("MLV_PAR_WIRES"),
        env("MLV_FRESH_ALLOC"),
    );
    let report = run_workload(&args.workload, &args.cfg);
    let (lines, correct) = render(&args.workload, &args.cfg, report);
    for l in lines {
        println!("{l}");
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &str, trace: bool) -> Vec<String> {
        let cfg = RunConfig {
            seed: 11,
            seconds: 0.05,
            trace,
            scale: Scale::Smoke,
        };
        let report = run_workload(workload, &cfg);
        let (lines, correct) = render(workload, &cfg, report);
        assert!(
            correct,
            "{workload} (trace {trace}): {}",
            lines.last().unwrap()
        );
        lines
    }

    /// Every workload at its tiny size, untraced and traced, with all of
    /// its output checks on.
    #[test]
    fn every_workload_runs_clean_at_smoke_size() {
        for w in WORKLOADS {
            for trace in [false, true] {
                let lines = smoke(w, trace);
                let catalog = if trace {
                    PER_LAYER.len()
                } else {
                    END_TO_END.len()
                };
                assert_eq!(lines.len(), catalog + 1, "{w}: {lines:?}");
            }
        }
    }

    fn benchmark_json() -> &'static str {
        include_str!("../../../../../BENCHMARK.json")
    }

    #[test]
    fn metric_catalog_matches_benchmark_json() {
        let doc = benchmark_json();
        let names = END_TO_END.iter().chain(&PER_LAYER);
        for (name, unit) in names.clone() {
            assert!(
                !name.is_empty()
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
                "bad metric name {name}"
            );
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(doc.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        // and BENCHMARK.json names no metric the benchmark does not emit
        let listed = doc.matches("\"unit\":").count();
        assert_eq!(listed, names.count());
        for w in WORKLOADS {
            assert!(doc.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
    }

    #[test]
    fn same_seed_same_inputs() {
        let cfg = |seed| RunConfig {
            seed,
            seconds: 1.0,
            trace: false,
            scale: Scale::Full,
        };
        let labels = |seed| -> Vec<String> {
            lattice::Lattice::new(&cfg(seed))
                .batch(3)
                .into_iter()
                .map(|j| j.label)
                .collect()
        };
        assert_eq!(labels(5), labels(5));
        assert_ne!(labels(5), labels(6));
        let plan = |seed| verify::Verify::new(&cfg(seed)).plan(2);
        assert_eq!(plan(5), plan(5));
        assert_ne!(
            (0..4)
                .map(|i| verify::Verify::new(&cfg(5)).plan(i))
                .collect::<Vec<_>>(),
            (0..4)
                .map(|i| verify::Verify::new(&cfg(6)).plan(i))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn arguments_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload serve-open --seed 9 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "serve-open");
        assert_eq!((a.cfg.seed, a.cfg.seconds, a.cfg.trace), (9, 3.0, true));
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--trace 2",
            "--seed",
            "--what 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
