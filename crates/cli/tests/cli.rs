//! Integration tests driving the `mlv` binary end to end: registry
//! reachability through `mlv families --json`, and the trace surface
//! (`mlv profile`, `mlv sweep --trace`) that CI's smoke leg parses.

use std::process::Command;

fn mlv(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_mlv"))
        .args(args)
        .output()
        .expect("spawn mlv")
}

/// Every registry family — lattice-bearing or not — is reachable from
/// `mlv families --json`, with its keyword, grammar, and lattice flag
/// intact. A family added to the registry without surfacing here fails.
#[test]
fn families_json_covers_registry() {
    let out = mlv(&["families", "--json"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), mlv_layout::registry::REGISTRY.len());
    for e in mlv_layout::registry::REGISTRY {
        let line = lines
            .iter()
            .find(|l| l.contains(&format!("\"name\":\"{}\"", e.name)))
            .unwrap_or_else(|| panic!("{}: missing from families --json", e.name));
        assert!(
            line.contains(&format!("\"keyword\":\"{}\"", e.keyword)),
            "{line}"
        );
        assert!(
            line.contains(&format!("\"spec\":\"{}\"", e.grammar)),
            "{line}"
        );
        assert!(
            line.contains(&format!("\"lattice\":{}", e.lattice.is_some())),
            "{line}"
        );
        // the advertised example spec really builds a layout
        let built = mlv(&["layout", e.example, "--json"]);
        assert!(built.status.success(), "{} example failed", e.example);
    }
}

/// `mlv profile` emits one JSON object per line, covers all four
/// pipeline passes plus the engine spans, and closes with a digest.
#[test]
fn profile_emits_full_trace() {
    let out = mlv(&["profile", "hypercube", "6", "--layers", "4"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    for line in stdout.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "not a JSON object line: {line}"
        );
    }
    for span in [
        "pass.placement",
        "pass.tracks",
        "pass.layers",
        "pass.emit",
        "pipeline",
        "engine.batch",
        "engine.job",
        "checker.check",
    ] {
        assert!(
            stdout.contains(&format!("\"type\":\"span\",\"name\":\"{span}\"")),
            "span {span} missing from:\n{stdout}"
        );
    }
    assert!(stdout.contains("\"name\":\"engine.cache.miss\",\"value\":1"));
    let last = stdout.lines().last().unwrap();
    assert!(
        last.starts_with("{\"type\":\"digest\",\"value\":\""),
        "no closing digest line: {last}"
    );
}

/// The profile digest is stable run-over-run: wall-clock fields vary,
/// the deterministic fingerprint does not.
#[test]
fn profile_digest_is_reproducible() {
    let digest = |out: std::process::Output| -> String {
        String::from_utf8(out.stdout)
            .unwrap()
            .lines()
            .last()
            .unwrap()
            .to_string()
    };
    let a = digest(mlv(&["profile", "ccc", "3", "--layers", "4"]));
    let b = digest(mlv(&["profile", "ccc", "3", "--layers", "4"]));
    assert_eq!(a, b);
}

/// `mlv sweep --trace` writes the trace document next to the normal
/// per-job stdout report, and the job lines stay byte-identical to a
/// traceless run (tracing must not perturb sweep output).
#[test]
fn sweep_trace_file_and_stdout() {
    let dir = std::env::temp_dir().join(format!("mlv-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sweep.trace");
    let args = ["sweep", "--lattice", "--seed", "2000", "--cases", "2"];
    let traced = mlv(&[&args[..], &["--trace", path.to_str().unwrap()]].concat());
    assert!(traced.status.success());
    let plain = mlv(&args);
    assert_eq!(plain.stdout, traced.stdout);
    let doc = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert!(doc.contains("\"type\":\"span\",\"name\":\"pass.tracks\""));
    assert!(doc.contains("\"type\":\"histogram\",\"name\":\"engine.job.queue_ns\""));
    assert!(doc
        .lines()
        .last()
        .unwrap()
        .starts_with("{\"type\":\"digest\""));
}

/// `--tiled` threads a non-uniform stack through realization and checks
/// its direction and pitch rules on the tile instances.
#[test]
fn tiled_layout_checks_under_a_non_uniform_pdk() {
    let out = mlv(&[
        "layout",
        "hypercube:4",
        "--layers",
        "6",
        "--tiled",
        "--pdk",
        "hv6",
        "--check",
    ]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("legality: VERIFIED"), "{stdout}");
}

/// A saved layout whose one node spans 100001×100001 grid points gets a
/// verdict; the checker never enumerates the footprint. `mlv check` has
/// a single checker, so `--tiled` is no longer a flag there.
#[test]
fn check_verifies_a_huge_footprint() {
    let dir = std::env::temp_dir().join(format!("mlv-cli-huge-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("huge.mlv");
    std::fs::write(
        &path,
        "mlvlayout 1\nlayout huge layers=2\nnode 0 0 0 100000 100000 layer=0\n",
    )
    .unwrap();
    let file = path.to_str().unwrap();
    let out = mlv(&["check", file]);
    let tiled = mlv(&["check", file, "--tiled"]);
    std::fs::remove_dir_all(&dir).ok();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("area 10000200001"), "{stdout}");
    assert!(stdout.contains("legality: VERIFIED"), "{stdout}");
    assert!(!tiled.status.success());
    assert!(String::from_utf8(tiled.stderr)
        .unwrap()
        .contains("unknown flag '--tiled'"));
}

/// Coordinates that span the whole `i64` range make a layout 2⁶⁴
/// columns wide: its area saturates at `u64::MAX` rather than
/// overflowing (a panic in a debug build, `area 0` in a release one),
/// and a PDK's physical metrics report the overflow.
#[test]
fn check_saturates_a_full_range_span() {
    let dir = std::env::temp_dir().join(format!("mlv-cli-full-range-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("big.mlv");
    std::fs::write(
        &path,
        "mlvlayout 1\nlayout big layers=2\n\
         node 0 -9223372036854775808 0 -9223372036854775808 0 layer=0\n\
         node 1 9223372036854775807 0 9223372036854775807 0 layer=0\n\
         wire 0 1 -9223372036854775808,0,0 9223372036854775807,0,0\n",
    )
    .unwrap();
    let file = path.to_str().unwrap();
    let out = mlv(&["check", file]);
    let hv6 = mlv(&["check", file, "--pdk", "hv6"]);
    std::fs::remove_dir_all(&dir).ok();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("area 18446744073709551615,"), "{stdout}");
    assert!(stdout.contains("legality: VERIFIED"), "{stdout}");
    let stdout = String::from_utf8(hv6.stdout).unwrap();
    assert!(hv6.status.success(), "{stdout}");
    assert!(stdout.contains("physical: unavailable"), "{stdout}");
    assert!(stdout.contains("legality: VERIFIED"), "{stdout}");
}

/// An `--active-layers` budget `Realize3dOptions::validate` rejects is a
/// clean error (exit 1), never a panic, with and without `--tiled`;
/// `0` is rejected rather than silently realized in 2-D.
#[test]
fn bad_active_layers_are_an_error() {
    for la in ["3", "0"] {
        for tiled in [false, true] {
            let mut args = vec![
                "layout",
                "hypercube:4",
                "--layers",
                "4",
                "--active-layers",
                la,
            ];
            if tiled {
                args.push("--tiled");
            }
            let out = mlv(&args);
            let stderr = String::from_utf8(out.stderr).unwrap();
            assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
            assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
            assert!(out.stdout.is_empty(), "{args:?} printed a report");
        }
    }
}

/// Degenerate or oversized family parameters, layer counts and case
/// counts are a clean error (exit 1), never a panic, an abort or a
/// silent default.
#[test]
fn out_of_domain_families_are_an_error() {
    for (spec, needle) in [
        ("hypercube:0", "need 1 <= n <= 30"),
        ("karyn:4,20", "u32 node id range"),
        ("clusterc:0,0,0", "need k >= 1 and c >= 1"),
        ("macrostar:0,0", "need l >= 1"),
    ] {
        assert_error(&["layout", spec, "--layers", "4"], needle);
    }
    // `mlv serve` applies the same bound
    for args in [
        &["layout", "hypercube:4", "--layers", "1025"][..],
        &["layout", "hypercube:4", "--layers", "1000000000", "--tiled"][..],
        &["layout", "hypercube:4", "--layers", "99999999999"][..],
        &["sweep", "hypercube:4", "--layers", "2,1025"][..],
    ] {
        assert_error(args, "in 2..=1024");
    }
    assert_error(&["sweep", "--lattice", "--cases", "0"], "positive integer");
}

/// `mlv figures` prints every figure its help names, all four of the
/// paper's with no id, and rejects an unknown id.
#[test]
fn figures_print_every_advertised_id() {
    let print = |args: &[&str]| {
        let out = mlv(args);
        assert!(out.status.success(), "{args:?}");
        String::from_utf8(out.stdout).unwrap()
    };
    let paper = ["f1", "f2", "f3", "f4"].map(|id| print(&["figures", id]));
    assert_eq!(print(&["figures"]), paper.concat());
    for id in ["folded", "layout"] {
        assert!(!print(&["figures", id]).is_empty(), "{id}");
    }
    assert_error(&["figures", "f9"], "unknown figure 'f9'");
}

/// `mlv tables` rejects an unknown id and a second id before it
/// measures anything.
#[test]
fn tables_reject_an_unknown_or_second_id() {
    assert_error(&["tables", "f9"], "unknown table 'f9'");
    assert_error(&["tables", "hypercube", "mesh"], "at most one table id");
}

/// A reader that stops early (`mlv … | head`) ends `mlv` quietly: exit
/// 0 and nothing on stderr. The ASCII render is ~300 KB, more than a
/// pipe holds, so `mlv` is still writing when the reader leaves.
#[test]
fn a_closed_stdout_ends_quietly() {
    use std::io::BufRead;
    let mut child = Command::new(env!("CARGO_BIN_EXE_mlv"))
        .args(["layout", "hypercube:10", "--layers", "4", "--ascii"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn mlv");
    let mut line = String::new();
    std::io::BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut line)
        .unwrap();
    assert!(line.starts_with("layout"), "{line}");
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
}

/// Assert `mlv <args>` fails with exit 1, an `error: ` line naming
/// `needle`, and no report.
fn assert_error(args: &[&str], needle: &str) {
    let out = mlv(args);
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(
        stderr
            .lines()
            .any(|l| l.starts_with("error: ") && l.contains(needle)),
        "{args:?}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?} printed a report");
}

/// A `--node-side` one below the terminal demand is an error, not a
/// panic, in 2-D, with `--tiled` and in 3-D; the demand itself
/// realizes.
#[test]
fn node_side_below_the_demand_is_an_error() {
    let spec = mlv_layout::registry::parse("hypercube:4").unwrap().spec;
    for (extra, active_layers) in [
        (&["--layers", "4"][..], 1),
        (&["--layers", "4", "--tiled"][..], 1),
        (&["--layers", "8", "--active-layers", "2"][..], 2),
        (&["--layers", "8", "--active-layers", "2", "--tiled"][..], 2),
    ] {
        let demand = mlv_layout::passes::min_node_side(&spec, active_layers);
        let (at, below) = (demand.to_string(), (demand - 1).to_string());
        let args = |side| [&["layout", "hypercube:4", "--node-side", side][..], extra].concat();
        assert!(mlv(&args(&at)).status.success(), "{:?}", args(&at));
        assert_error(&args(&below), "terminal demand");
    }
}

/// A stack that leaves a slab without an H/V layer pair is an error,
/// not a panic, for every command that realizes.
#[test]
fn stack_without_an_hv_pair_is_an_error() {
    let dir = std::env::temp_dir().join(format!("mlv-cli-allh-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("allh.pdk");
    std::fs::write(
        &path,
        "mlvpdk 1\npdk allh\nlayer m1 H pitch=1 via=1\nlayer m2 H pitch=1 via=1\n",
    )
    .unwrap();
    let pdk = format!("@{}", path.display());
    let pdk = pdk.as_str();
    for args in [
        &["layout", "hypercube:4", "--layers", "4", "--pdk", pdk][..],
        &[
            "layout",
            "hypercube:4",
            "--layers",
            "4",
            "--tiled",
            "--pdk",
            pdk,
        ][..],
        &[
            "layout",
            "hypercube:4",
            "--layers",
            "8",
            "--active-layers",
            "2",
            "--pdk",
            pdk,
        ][..],
        &["sweep", "hypercube:4", "--layers", "2,4", "--pdk", pdk][..],
        &["profile", "hypercube:4", "--layers", "4", "--pdk", pdk][..],
    ] {
        assert_error(args, "without an H/V layer pair");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--save` writes the same bytes from the streaming and the full
/// report path, in 2-D and 3-D, and `mlv check` accepts the file.
#[test]
fn save_is_identical_with_and_without_tiled() {
    let dir = std::env::temp_dir().join(format!("mlv-cli-save-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for extra in [&[][..], &["--active-layers", "2"][..]] {
        let saved: Vec<Vec<u8>> = [false, true]
            .into_iter()
            .map(|tiled| {
                let path = dir.join(format!("{tiled}.mlv"));
                let file = path.to_str().unwrap();
                let mut args = vec!["layout", "ccc:3", "--layers", "8", "--save", file];
                args.extend_from_slice(extra);
                if tiled {
                    args.push("--tiled");
                }
                assert!(mlv(&args).status.success(), "{args:?}");
                let check = mlv(&["check", file]);
                assert!(check.status.success(), "{args:?}: saved file fails check");
                std::fs::read(&path).unwrap()
            })
            .collect();
        assert!(!saved[0].is_empty());
        assert_eq!(
            saved[0], saved[1],
            "{extra:?}: --tiled saved different bytes"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
