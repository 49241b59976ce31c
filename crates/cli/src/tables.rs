//! `mlv tables [id]`: the tables that compare measured layouts with the
//! paper's closed forms, one per experiment of DESIGN.md's index
//! (EXPERIMENTS.md records the outcomes; `tests/tables.rs` pins every
//! table byte for byte).
//!
//! Every measured row is a checked job on one [`Engine`] shared by the
//! whole run, named by its registry spec, so the tables measure a
//! layout the way `mlv sweep`, `mlv serve` and the benchmark do, and a
//! family × L pair that several tables print is realized once. A job
//! whose check does not pass ends the run with an error naming it. The
//! rows the engine does not compute keep their library calls: routed
//! paths, congestion analytics, the 3-D model, explicit node sides and
//! the model comparison.

use mlv_collinear::complete::complete_collinear;
use mlv_collinear::generic::{best_order_collinear, bfs_order, generic_collinear, improve_order};
use mlv_collinear::genhyper::{genhyper_collinear, genhyper_track_count_fixed};
use mlv_collinear::hypercube::{hypercube_collinear, hypercube_track_count};
use mlv_collinear::karyn::{kary_collinear, kary_track_count};
use mlv_collinear::mesh::{mesh_collinear, mesh_track_count};
use mlv_formulas::bounds::{area_lower_bound, optimality_ratio};
use mlv_formulas::{bisection, predictions};
use mlv_grid::analytics;
use mlv_grid::checker;
use mlv_grid::fold::CollinearMultilayerEstimate;
use mlv_grid::layout::Layout;
use mlv_grid::metrics::LayoutMetrics;
use mlv_layout::baseline::compare_models;
use mlv_layout::engine::{CheckStatus, Engine, EngineOptions, Job};
use mlv_layout::families::{self, Family};
use mlv_layout::passes::min_node_side;
use mlv_layout::realize::{align_wires, realize, JogStrategy, RealizeOptions};
use mlv_layout::realize3d::{realize_3d, Realize3dOptions};
use mlv_layout::registry;
use mlv_topology::dimrouting::DimensionOrderRouter;
use mlv_topology::karyn::KaryNCube;
use mlv_topology::Graph;

type Result<T = ()> = std::result::Result<T, String>;

/// One table: it prints itself, measuring on the shared engine.
type Print = fn(&mut Meter) -> Result;

/// The tables by id, in the order `mlv tables` prints them.
pub const TABLES: [(&str, Print); 15] = [
    ("model_comparison", model_comparison),
    ("karyncube", karyncube),
    ("hypercube", hypercube),
    ("genhyper", genhyper),
    ("butterfly", butterfly),
    ("hsn_isn", hsn_isn),
    ("ccc", ccc),
    ("folded_enhanced", folded_enhanced),
    ("clusterc", clusterc),
    ("lower_bounds", lower_bounds),
    ("mesh", mesh),
    ("cayley", cayley),
    ("routing", routing),
    ("congestion", congestion),
    ("3d", three_d),
];

/// Print the table `id`, or every table with `None`.
pub fn print(id: Option<&str>) -> Result {
    let mut meter = Meter(Engine::new(EngineOptions::default()));
    for (name, table) in TABLES {
        if id.is_none_or(|id| id == name) {
            table(&mut meter)?;
        }
    }
    Ok(())
}

/// The engine every measured row runs on: one checked job per
/// (family, L), memoized for the whole run.
pub struct Meter(Engine);

impl Meter {
    /// Metrics of `family` at `layers` from a job labelled `label`, once
    /// its check has passed.
    fn metrics(&mut self, label: &str, family: &Family, layers: usize) -> Result<LayoutMetrics> {
        let r = self.0.run_one(&Job::new(label, family.clone(), layers));
        match &r.outcome.check {
            CheckStatus::Legal => Ok(r.outcome.metrics.clone()),
            status => Err(format!("{}: {status:?}", r.label)),
        }
    }

    /// [`Meter::metrics`] of the registry family `spec`.
    fn spec(&mut self, spec: &str, layers: usize) -> Result<LayoutMetrics> {
        self.metrics(spec, &family(spec)?, layers)
    }
}

/// The registry family `spec`.
fn family(spec: &str) -> Result<Family> {
    registry::parse(spec).map_err(|e| format!("{spec}: {e}"))
}

/// `Ok` when `layout` passes the checker against `graph`; otherwise an
/// error naming the row.
fn check(label: &str, layout: &Layout, graph: &Graph) -> Result {
    let r = checker::check(layout, Some(graph));
    if r.is_legal() {
        return Ok(());
    }
    Err(format!("{label}: {:?}", &r.errors[..r.errors.len().min(2)]))
}

/// `xs` as a spec's comma-separated parameter list.
fn list(xs: &[usize]) -> String {
    xs.iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

/// Worst-pair routed wire length (paper §1 claim 4) of `family` at
/// `layers`; its engine job has already checked the layout.
fn routed(family: &Family, layers: usize) -> Option<u64> {
    let mut layout = family.realize(layers);
    align_wires(&mut layout, &family.graph);
    LayoutMetrics::max_routed_path(&layout, &family.graph)
}

/// T-model (paper §1 claims 1–4, §2.2): direct multilayer redesign vs
/// folded-Thompson vs multilayer-collinear, on a track-dominated
/// generalized hypercube and a k-ary n-cube.
///
/// Paper prediction: direct area gain ≈ L²/4, folded ≈ L/2; direct
/// volume gain ≈ L/2, folded ≈ 1; direct max-wire gain ≈ L/2,
/// folded ≈ 1.
fn model_comparison(_: &mut Meter) -> Result {
    for (label, spec) in [
        ("K16 x K16 (GHC)", "ghc:16,16"),
        ("8-ary 4-cube", "karyn:8,4"),
    ] {
        let spec = family(spec)?.spec;
        let mut t = Table::new(
            format!("T-model: {label} — gains over the 2-layer (Thompson) layout"),
            "L|direct area gain|paper L^2/4|folded area gain|paper L/2|direct vol gain|folded vol gain|direct wire gain|folded wire gain",
        );
        for layers in [2usize, 4, 8, 16] {
            let cmp = compare_models(&spec, layers);
            t.row(vec![
                layers.to_string(),
                f(cmp.direct_area_gain()),
                f(predictions::model_area_gain_direct(layers)),
                f(cmp.folded_area_gain()),
                f(predictions::model_area_gain_folded(layers)),
                f(cmp.direct_volume_gain()),
                f(cmp.folded_volume_gain()),
                f(cmp.direct_wire_gain()),
                f(cmp.folded_wire_gain()),
            ]);
        }
        t.print();
    }

    // multilayer-collinear baseline: volume and wire never improve
    let mut t = Table::new(
        "T-model: multilayer collinear baseline (K64 row, 1024 tracks)",
        "L|area|volume|max wire",
    );
    let k = complete_collinear(64);
    for layers in [2usize, 4, 8, 16] {
        let est = CollinearMultilayerEstimate::new(64, 33, k.tracks() as u64, layers);
        t.row(vec![
            layers.to_string(),
            est.area.to_string(),
            est.volume.to_string(),
            est.max_wire.to_string(),
        ]);
    }
    t.print();
    outln!(
        "\nShape check: direct gains track L^2/4 (diluted by node footprints at these sizes),\n\
         folded gains track L/2 with volume and max wire length unchanged — the paper's §2.2 contrast."
    );
    Ok(())
}

/// T-kary (paper §3.1): k-ary n-cube track counts, L-layer area/volume,
/// and the folded max-wire bound.
///
/// Paper: collinear tracks `f_k(n) = 2(kⁿ−1)/(k−1)`; L-layer area
/// `16N²/(L²k²) + o(·)`; volume `16N²/(Lk²)`; folded max wire
/// `O(N/(Lk²))`.
fn karyncube(e: &mut Meter) -> Result {
    let mut t = Table::new(
        "T-kary (a): collinear track counts f_k(n) = 2(k^n - 1)/(k - 1)",
        "k|n|constructed|paper formula|load lower bound",
    );
    for (k, n) in [(3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (8, 2), (16, 1)] {
        let l = kary_collinear(k, n);
        l.assert_valid();
        t.row(vec![
            k.to_string(),
            n.to_string(),
            l.tracks().to_string(),
            kary_track_count(k, n).to_string(),
            l.max_load().to_string(),
        ]);
    }
    t.print();

    let mut t = Table::new(
        "T-kary (b): L-layer layouts vs paper leading terms (ratio -> 1 as tracks dominate)",
        "k|n|N|L|area|paper area|a-ratio|volume|v-ratio|max wire",
    );
    for (k, n) in [(4usize, 4usize), (6, 4), (3, 6), (8, 2), (16, 2)] {
        for layers in [2usize, 4, 8] {
            let m = e.spec(&format!("karyn:{k},{n}"), layers)?;
            let p = predictions::karyn(k, n, layers);
            t.row(vec![
                k.to_string(),
                n.to_string(),
                k.pow(n as u32).to_string(),
                layers.to_string(),
                m.area.to_string(),
                f(p.area),
                ratio(m.area as f64, p.area),
                m.volume.to_string(),
                ratio(m.volume as f64, p.volume),
                m.max_wire_planar.to_string(),
            ]);
        }
    }
    t.print();

    let mut t = Table::new(
        "T-kary (c): folded rows/columns cut the max wire (paper: O(N/(Lk^2)))",
        "k|n|L|max wire (plain)|max wire (folded)|scale N/(Lk^2)|folded/scale",
    );
    for (k, n) in [(4usize, 4usize), (6, 4), (3, 6)] {
        for layers in [2usize, 4] {
            let plain = e.spec(&format!("karyn:{k},{n}"), layers)?;
            let folded = e.spec(&format!("karyn-folded:{k},{n}"), layers)?;
            let scale = predictions::karyn_max_wire_scale(k, n, layers);
            t.row(vec![
                k.to_string(),
                n.to_string(),
                layers.to_string(),
                plain.max_wire_planar.to_string(),
                folded.max_wire_planar.to_string(),
                f(scale),
                ratio(folded.max_wire_planar as f64, scale),
            ]);
        }
    }
    t.print();
    outln!(
        "\nShape check: track counts match f_k(n) exactly; area ratios approach 1 and\n\
         scale as 1/L^2; folding cuts the longest wire by ~k against the plain order."
    );
    Ok(())
}

/// T-hcube (paper §5.1): hypercube collinear tracks and L-layer
/// layouts.
///
/// Paper: `⌊2N/3⌋` collinear tracks; area `16N²/(9L²)`; volume
/// `16N²/(9L)` (volume = L·area by §2.2 — §5.1's printed `9L²` is a
/// typo); max wire `2N/(3L)`.
fn hypercube(e: &mut Meter) -> Result {
    let mut t = Table::new(
        "T-hcube (a): collinear track counts = floor(2N/3)",
        "n|N|constructed|paper|load lower bound",
    );
    for n in 1..=10usize {
        let l = hypercube_collinear(n);
        l.assert_valid();
        t.row(vec![
            n.to_string(),
            (1usize << n).to_string(),
            l.tracks().to_string(),
            hypercube_track_count(n).to_string(),
            l.max_load().to_string(),
        ]);
    }
    t.print();

    let mut t = Table::new(
        "T-hcube (b): L-layer layouts vs paper leading terms",
        "n|N|L|area|paper area|a-ratio|max wire|paper wire|w-ratio|used layers",
    );
    for n in [6usize, 8, 10] {
        for layers in [2usize, 4, 6, 8] {
            let m = e.spec(&format!("hypercube:{n}"), layers)?;
            let p = predictions::hypercube(1 << n, layers);
            let paper_wire = p.max_wire.unwrap();
            t.row(vec![
                n.to_string(),
                (1usize << n).to_string(),
                layers.to_string(),
                m.area.to_string(),
                f(p.area),
                ratio(m.area as f64, p.area),
                m.max_wire_planar.to_string(),
                f(paper_wire),
                ratio(m.max_wire_planar as f64, paper_wire),
                (m.max_used_layer + 1).to_string(),
            ]);
        }
    }
    t.print();

    // odd vs even L: odd leaves a layer unused (paper's L^2 - 1)
    let mut t = Table::new(
        "T-hcube (c): odd L pairs with L-1 (paper's L^2-1 denominators)",
        "n|L|area|area at L-1",
    );
    for layers in [3usize, 5, 7, 9] {
        let odd = e.spec("hypercube:8", layers)?;
        let even = e.spec("hypercube:8", layers - 1)?;
        t.row(vec![
            "8".into(),
            layers.to_string(),
            odd.area.to_string(),
            even.area.to_string(),
        ]);
    }
    t.print();

    // split ablation: the paper's balanced digit split is area-optimal
    let mut t = Table::new(
        "T-hcube (d): split-point ablation at n = 8, L = 4",
        "split (cols+rows)|width|height|area",
    );
    for lo in [1usize, 2, 3, 4, 5, 6] {
        let fam = families::hypercube_with_split(8, lo);
        let m = e.metrics(&fam.spec.name, &fam, 4)?;
        t.row(vec![
            format!("{lo}+{}", 8 - lo),
            m.width.to_string(),
            m.height.to_string(),
            m.area.to_string(),
        ]);
    }
    t.print();
    outln!(
        "\nShape check: tracks are exactly floor(2N/3) and equal the order's load bound;\n\
         area tracks 16N^2/9L^2 (ratio shrinking toward 1 with N); odd L = even L-1;\n\
         the balanced 4+4 split minimizes the area (the paper's ceil/floor choice)."
    );
    Ok(())
}

/// T-ghc (paper §4.1): generalized hypercubes — track counts, area,
/// volume, max wire, and the routed-path metric.
///
/// Paper: tracks `f_r(n) = (N−1)⌊r²/4⌋/(r−1)`; area `r²N²/(4L²)`;
/// volume `r²N²/(4L)`; max wire `rN/(2L)`; max routed-path `rN/L`.
fn genhyper(e: &mut Meter) -> Result {
    let mut t = Table::new(
        "T-ghc (a): collinear track counts f_r(n) = (N-1) floor(r^2/4)/(r-1)",
        "r|n|constructed|paper|load lower bound",
    );
    for (r, n) in [(3, 2), (3, 3), (4, 2), (5, 2), (6, 2), (9, 1), (8, 2)] {
        let l = genhyper_collinear(&vec![r; n]);
        l.assert_valid();
        t.row(vec![
            r.to_string(),
            n.to_string(),
            l.tracks().to_string(),
            genhyper_track_count_fixed(r, n).to_string(),
            l.max_load().to_string(),
        ]);
    }
    t.print();

    let mut t = Table::new(
        "T-ghc (b): L-layer layouts vs paper leading terms",
        "r|n|N|L|area|a-ratio|max wire|w-ratio|routed|r-ratio",
    );
    for (r, n) in [(8usize, 2usize), (12, 2), (16, 2), (4, 3)] {
        let spec = format!("ghc:{}", list(&vec![r; n]));
        let fam = family(&spec)?;
        let nn = r.pow(n as u32);
        for layers in [2usize, 4, 8] {
            let m = e.metrics(&spec, &fam, layers)?;
            let routed = (nn <= 512).then(|| routed(&fam, layers)).flatten();
            let p = predictions::genhyper(r, n, layers);
            t.row(vec![
                r.to_string(),
                n.to_string(),
                nn.to_string(),
                layers.to_string(),
                m.area.to_string(),
                ratio(m.area as f64, p.area),
                m.max_wire_planar.to_string(),
                ratio(m.max_wire_planar as f64, p.max_wire.unwrap()),
                routed.map_or("-".into(), |x| x.to_string()),
                routed.map_or("-".into(), |x| ratio(x as f64, p.max_routed.unwrap())),
            ]);
        }
    }
    t.print();

    // mixed radices exercise the general recurrence
    let mut t = Table::new(
        "T-ghc (c): mixed radices (general recurrence f(m+1) = r_m f(m) + floor(r_m^2/4))",
        "radices (msd..lsd)|N|tracks|L=4 area",
    );
    for radices in [vec![4usize, 3, 2], vec![6, 4], vec![5, 5, 2]] {
        let spec = format!("ghc:{}", list(&radices));
        let m = e.spec(&spec, 4)?;
        let lo = genhyper_collinear(&radices);
        t.row(vec![
            format!("{:?}", radices.iter().rev().collect::<Vec<_>>()),
            radices.iter().product::<usize>().to_string(),
            lo.tracks().to_string(),
            m.area.to_string(),
        ]);
    }
    t.print();
    outln!(
        "\nShape check: tracks exactly match f_r(n) and its load bound; area ~ r^2N^2/4L^2;\n\
         routed-path metric ~ 2x the max wire (paper: rN/L vs rN/2L)."
    );
    Ok(())
}

/// T-bfly (paper §4.2): butterfly networks as PN clusters.
///
/// Paper: area `4N²/(L²·log₂²N)`, volume `4N²/(L·log₂²N)`, max wire
/// `2N/(L·log₂N)`. Our reconstruction clusters each of the `R = 2^m`
/// rows (m nodes each) and lays the quotient m-cube grid out with the
/// recursive grid scheme; the measured constant is reported against the
/// paper's 4.
fn butterfly(e: &mut Meter) -> Result {
    let mut t = Table::new(
        "T-bfly: wrapped butterfly layouts vs paper leading terms",
        "m|N|L|area|paper area|a-ratio|max wire|paper wire|w-ratio|checked",
    );
    for m in [3usize, 4, 5, 6, 8, 10] {
        let nn = m << m;
        for layers in [2usize, 4, 8] {
            let meas = e.spec(&format!("butterfly:{m}"), layers)?;
            let p = predictions::butterfly(nn, layers);
            let paper_wire = p.max_wire.unwrap();
            t.row(vec![
                m.to_string(),
                nn.to_string(),
                layers.to_string(),
                meas.area.to_string(),
                f(p.area),
                ratio(meas.area as f64, p.area),
                meas.max_wire_planar.to_string(),
                f(paper_wire),
                ratio(meas.max_wire_planar as f64, paper_wire),
                "yes".into(),
            ]);
        }
    }
    t.print();

    // area scaling in L at fixed m: ratio between successive L should
    // approach 4 (the L^2/4 gain per doubling) as wiring dominates the
    // fixed node footprints
    let mut t = Table::new(
        "T-bfly: area gain per L doubling (paper: -> 4 as wiring dominates)",
        "m|L2/L4 gain|L4/L8 gain",
    );
    for m in [4usize, 6, 8, 10, 12] {
        let spec = format!("butterfly:{m}");
        let a2 = e.spec(&spec, 2)?.area as f64;
        let a4 = e.spec(&spec, 4)?.area as f64;
        let a8 = e.spec(&spec, 8)?.area as f64;
        t.row(vec![m.to_string(), f(a2 / a4), f(a4 / a8)]);
    }
    t.print();

    // ablation over the paper's cluster radix r = 2^b: clusters of r
    // rows; b = 1 is the paper's "4 links per neighbouring pair"
    let mut t = Table::new(
        "T-bfly: cluster-radix ablation at m = 8 (paper's free parameter r = 2^b)",
        "b|r|clusters|L|area|max wire",
    );
    for b in [0usize, 1, 2, 3] {
        for layers in [2usize, 4] {
            let meas = e.spec(&format!("butterfly:8,{b}"), layers)?;
            t.row(vec![
                b.to_string(),
                (1usize << b).to_string(),
                (1usize << (8 - b)).to_string(),
                layers.to_string(),
                meas.area.to_string(),
                meas.max_wire_planar.to_string(),
            ]);
        }
    }
    t.print();
    outln!(
        "\nShape check: area scales as N^2/(L^2 lg^2 N) — the measured/paper ratio\n\
         falls steadily with m; L-doubling gains rise toward 4 as the per-gap track\n\
         budget outgrows the constant node footprints; the cluster radix trades\n\
         block width against inter-cluster bundles."
    );
    Ok(())
}

/// T-hsn (paper §4.3): hierarchical swap networks, HHNs, and indirect
/// swap networks.
///
/// Paper: HSN area `N²/(4L²)`, volume `N²/(4L)`, max wire `N/(2L)`,
/// routed-path `N/L`; HHN identical; ISN ≈ butterfly/4 in area and
/// butterfly/2 in wire length.
fn hsn_isn(e: &mut Meter) -> Result {
    let mut t = Table::new(
        "T-hsn (a): HSN / HHN layouts vs paper leading terms",
        "family|N|L|area|paper area|a-ratio|max wire|w-ratio|routed|r-ratio",
    );
    for (label, spec) in [
        ("HSN(2,K8)", "hsn:2,8"),
        ("HSN(2,K12)", "hsn:2,12"),
        ("HSN(3,K5)", "hsn:3,5"),
        ("HSN(3,K8)", "hsn:3,8"),
        ("HSN(3,K16)", "hsn:3,16"),
        ("HSN(4,K8)", "hsn:4,8"),
        ("HHN(2,3)", "hhn:2,3"),
        ("HHN(3,2)", "hhn:3,2"),
        ("HHN(3,3)", "hhn:3,3"),
    ] {
        let fam = family(spec)?;
        let nn = fam.graph.node_count();
        for layers in [2usize, 4, 8] {
            let m = e.metrics(spec, &fam, layers)?;
            let routed = (nn <= 256).then(|| routed(&fam, layers)).flatten();
            let p = predictions::hsn(nn, layers);
            t.row(vec![
                label.to_string(),
                nn.to_string(),
                layers.to_string(),
                m.area.to_string(),
                f(p.area),
                ratio(m.area as f64, p.area),
                m.max_wire_planar.to_string(),
                ratio(m.max_wire_planar as f64, p.max_wire.unwrap()),
                routed.map_or("-".into(), |x| x.to_string()),
                routed.map_or("-".into(), |x| ratio(x as f64, p.max_routed.unwrap())),
            ]);
        }
    }
    t.print();

    let mut t = Table::new(
        "T-hsn (b): ISN vs similar-size butterfly (paper: area/4, wire/2)",
        "pair|ISN N|BF N|L|ISN area|BF area|area ratio|ISN wire|BF wire|wire ratio",
    );
    // similar sizes: ISN(2,4)=32 vs BF(3)=24; ISN(2,6)=72 vs BF(4)=64;
    // ISN(3,4)=192 vs BF(5)=160; ISN(3,8)=1536 vs BF(9)=4608
    for (lv, r, m) in [(2usize, 4usize, 3usize), (2, 6, 4), (3, 4, 5), (3, 8, 9)] {
        let (isn_spec, bf_spec) = (format!("isn:{lv},{r}"), format!("butterfly:{m}"));
        let (isn, bf) = (family(&isn_spec)?, family(&bf_spec)?);
        for layers in [2usize, 4] {
            let mi = e.metrics(&isn_spec, &isn, layers)?;
            let mb = e.metrics(&bf_spec, &bf, layers)?;
            t.row(vec![
                format!("ISN({lv},{r}) / BF({m})"),
                isn.graph.node_count().to_string(),
                bf.graph.node_count().to_string(),
                layers.to_string(),
                mi.area.to_string(),
                mb.area.to_string(),
                ratio(mb.area as f64, mi.area as f64),
                mi.max_wire_planar.to_string(),
                mb.max_wire_planar.to_string(),
                ratio(mb.max_wire_planar as f64, mi.max_wire_planar as f64),
            ]);
        }
    }
    t.print();

    // predicted ISN-vs-butterfly ratios at equal N, for reference
    let p_bf = predictions::butterfly(4096, 4);
    let p_isn = predictions::isn(4096, 4);
    outln!(
        "\npaper at equal N: BF/ISN area = {:.1}, wire = {:.1}",
        p_bf.area / p_isn.area,
        p_bf.max_wire.unwrap() / p_isn.max_wire.unwrap()
    );
    outln!(
        "Shape check: HSN/HHN area and wire ratios fall steadily toward the paper's\n\
         leading constants as N and the level count grow (wire ratio is already < 3x at\n\
         HSN(4,K8)). The ISN-vs-butterfly comparison does NOT reproduce the paper's 4x\n\
         area / 2x wire advantage at feasible sizes: our ISN reconstruction (ref [35]\n\
         unavailable) carries an extra K_r nucleus stage per cluster for connectivity\n\
         and pays wider cluster blocks; see EXPERIMENTS.md for the full discussion."
    );
    Ok(())
}

/// T-ccc (paper §5.2): cube-connected cycles and reduced hypercubes as
/// hypercube PN clusters.
///
/// Paper: area `16N²/(9L²·log₂²N)` for both (the hypercube links
/// dominate; the cycles/clusters ride inside the blocks).
fn ccc(e: &mut Meter) -> Result {
    let mut t = Table::new(
        "T-ccc: CCC and reduced hypercube layouts vs paper leading terms",
        "family|N|L|area|paper area|a-ratio|max wire|volume|v-ratio",
    );
    for (label, spec) in [
        ("CCC(3)", "ccc:3"),
        ("CCC(4)", "ccc:4"),
        ("CCC(5)", "ccc:5"),
        ("CCC(6)", "ccc:6"),
        ("RH(2,2)", "rh:4"),
        ("RH(3,3)", "rh:8"),
    ] {
        let fam = family(spec)?;
        let nn = fam.graph.node_count();
        for layers in [2usize, 4, 8] {
            let m = e.metrics(spec, &fam, layers)?;
            let p = predictions::ccc(nn, layers);
            t.row(vec![
                label.to_string(),
                nn.to_string(),
                layers.to_string(),
                m.area.to_string(),
                f(p.area),
                ratio(m.area as f64, p.area),
                m.max_wire_planar.to_string(),
                m.volume.to_string(),
                ratio(m.volume as f64, p.volume),
            ]);
        }
    }
    t.print();

    // CCC vs same-cube-dimension hypercube: the constant-degree CCC pays
    // only a polylog more area than its quotient hypercube
    let mut t = Table::new(
        "T-ccc: CCC vs its quotient hypercube (area overhead of the cycles)",
        "n|CCC N|cube N|L|CCC area|cube area|overhead",
    );
    for n in [4usize, 5, 6] {
        let (c_spec, h_spec) = (format!("ccc:{n}"), format!("hypercube:{n}"));
        let (c, h) = (family(&c_spec)?, family(&h_spec)?);
        for layers in [2usize, 4] {
            let mc = e.metrics(&c_spec, &c, layers)?;
            let mh = e.metrics(&h_spec, &h, layers)?;
            t.row(vec![
                n.to_string(),
                c.graph.node_count().to_string(),
                h.graph.node_count().to_string(),
                layers.to_string(),
                mc.area.to_string(),
                mh.area.to_string(),
                ratio(mc.area as f64, mh.area as f64),
            ]);
        }
    }
    t.print();
    outln!(
        "\nShape check: CCC area ~ its quotient hypercube's (N^2/lg^2 N scaling, small\n\
         constant overhead for the cycles), matching 16N^2/(9 L^2 lg^2 N)."
    );
    Ok(())
}

/// T-fold (paper §5.3): folded hypercubes and enhanced cubes.
///
/// Paper: the N/2 diameter links of a folded hypercube need at most N/2
/// extra tracks each way, giving side `7N/(3L)` and area `49N²/(9L²)`;
/// the enhanced cube's N random links give side `10N/(3L)` and area
/// `100N²/(9L²)`. The paper notes some links can share tracks, so the
/// measured constants sit *below* 49/9 and 100/9.
fn folded_enhanced(e: &mut Meter) -> Result {
    let mut t = Table::new(
        "T-fold: folded hypercube / enhanced cube vs paper leading terms",
        "family|N|L|area|paper area|a-ratio|vs plain cube|paper vs plain",
    );
    for n in [6usize, 8] {
        let nn = 1usize << n;
        for layers in [2usize, 4, 8] {
            let mp = e.spec(&format!("hypercube:{n}"), layers)?;
            let mf = e.spec(&format!("folded:{n}"), layers)?;
            let me = e.spec(&format!("enhanced:{n},2026"), layers)?;
            let ph = predictions::hypercube(nn, layers);
            for (kind, m, p) in [
                ("folded", mf, predictions::folded_hypercube(nn, layers)),
                ("enhanced", me, predictions::enhanced_cube(nn, layers)),
            ] {
                t.row(vec![
                    format!("{kind} {n}-cube"),
                    nn.to_string(),
                    layers.to_string(),
                    m.area.to_string(),
                    f(p.area),
                    ratio(m.area as f64, p.area),
                    ratio(m.area as f64, mp.area as f64),
                    f(p.area / ph.area),
                ]);
            }
        }
    }
    t.print();

    // determinism of the enhanced cube across seeds: different seeds,
    // same asymptotics
    let mut t = Table::new(
        "T-fold: enhanced cube across random seeds (L=4)",
        "seed|area|max wire",
    );
    for seed in [1u64, 42, 2026] {
        let m = e.spec(&format!("enhanced:7,{seed}"), 4)?;
        t.row(vec![
            seed.to_string(),
            m.area.to_string(),
            m.max_wire_planar.to_string(),
        ]);
    }
    t.print();
    outln!(
        "\nShape check: folded costs a small constant more than the plain cube\n\
         (paper bound 49/16) and enhanced a bit more (paper bound 100/16); measured\n\
         constants are below the bounds because extra links share tracks."
    );
    Ok(())
}

/// T-cluster (paper §3.2): k-ary n-cube cluster-c and the node-size
/// scalability claim.
///
/// Paper: while the cluster size `c` is small relative to `k^{n/2−1}`,
/// the PN-cluster layout's area stays within `1 + o(1)` of the quotient
/// torus; and any layout of the paper's kind remains optimal while each
/// node occupies `o(Area/N)` — growing the node footprint below that
/// threshold must not change the leading constant.
fn clusterc(e: &mut Meter) -> Result {
    // the paper's regime is c = o(k^{n/2-1}): at n = 2 *no* c qualifies
    // (the first row shows the resulting overhead); at n = 4 small c
    // rides along nearly free as the quotient tracks dominate
    let mut t = Table::new(
        "T-cluster (a): k-ary n-cube cluster-c area vs the flat quotient torus",
        "k|n|c|kind|L|cluster area|flat area|overhead",
    );
    for (k, n, c, kind) in [
        (8usize, 2usize, 4usize, "hypercube"),
        (4, 4, 2, "ring"),
        (4, 4, 4, "hypercube"),
        (6, 4, 2, "ring"),
        (6, 4, 4, "hypercube"),
        (8, 4, 2, "ring"),
    ] {
        for layers in [2usize, 4] {
            let mc = e.spec(&format!("clusterc:{k},{n},{c},{kind}"), layers)?;
            let mf = e.spec(&format!("karyn:{k},{n}"), layers)?;
            t.row(vec![
                k.to_string(),
                n.to_string(),
                c.to_string(),
                kind.to_string(),
                layers.to_string(),
                mc.area.to_string(),
                mf.area.to_string(),
                ratio(mc.area as f64, mf.area as f64),
            ]);
        }
    }
    t.print();

    // denser clusters cost more; ring < hypercube < complete at fixed c
    let mut t = Table::new(
        "T-cluster (b): cluster density ordering at k=8, c=8, L=2",
        "kind|area",
    );
    for kind in ["ring", "hypercube", "complete"] {
        let m = e.spec(&format!("clusterc:8,2,8,{kind}"), 2)?;
        t.row(vec![kind.to_string(), m.area.to_string()]);
    }
    t.print();

    // node-size scalability: grow node footprints; area constant moves
    // only once footprints rival the per-gap track budget
    let mut t = Table::new(
        "T-cluster (c): node-size scalability on a 16-ary 2-cube GHC-like (K16xK16), L=2",
        "node side|min side|area|vs min-side area",
    );
    let spec = "ghc:16,16";
    let fam = family(spec)?;
    let base = e.metrics(spec, &fam, 2)?;
    let min_side = min_node_side(&fam.spec, 1);
    for side in [0, 8, 16, 32, 64].map(|extra| min_side + extra) {
        let layout = fam.realize_with(&RealizeOptions {
            node_side: Some(side),
            ..RealizeOptions::with_layers(2)
        });
        check(&format!("{spec} L=2 node side {side}"), &layout, &fam.graph)?;
        let m = LayoutMetrics::of(&layout);
        t.row(vec![
            side.to_string(),
            min_side.to_string(),
            m.area.to_string(),
            ratio(m.area as f64, base.area as f64),
        ]);
    }
    t.print();
    outln!(
        "\nShape check: small clusters cost little over the flat torus; density raises\n\
         the constant; node growth below the track budget barely moves the area."
    );
    Ok(())
}

/// T-lb (paper §1/§6): optimality ratios of the measured layouts
/// against the trivial bisection lower bound `(B/L)²`.
///
/// Paper: butterflies, GHCs, HSNs and ISNs are optimal within
/// `2 + o(1)` per side (4 in area) of this bound under the multilayer
/// grid model; the other families within small constants.
fn lower_bounds(e: &mut Meter) -> Result {
    let mut t = Table::new(
        "T-lb: measured area vs trivial lower bound (B/L)^2",
        "family|N|B|L|area|bound|ratio",
    );
    for (label, spec, b) in [
        ("K16xK16 (GHC)", "ghc:16,16", bisection::genhyper(16, 2)),
        ("8-cube", "hypercube:8", bisection::hypercube(8)),
        ("8-ary 4-cube", "karyn:8,4", bisection::karyn(8, 4)),
        ("BF(5)", "butterfly:5", bisection::butterfly_wrapped(5)),
        ("HSN(2,K12)", "hsn:2,12", bisection::hsn(12, 2)),
        ("CCC(5)", "ccc:5", bisection::ccc(5)),
        ("folded 8-cube", "folded:8", bisection::folded_hypercube(8)),
    ] {
        let fam = family(spec)?;
        for layers in [2usize, 4, 8] {
            let m = e.metrics(spec, &fam, layers)?;
            t.row(vec![
                label.to_string(),
                fam.graph.node_count().to_string(),
                b.to_string(),
                layers.to_string(),
                m.area.to_string(),
                f(area_lower_bound(b, layers)),
                f(optimality_ratio(m.area, b, layers)),
            ]);
        }
    }
    t.print();
    outln!(
        "\nShape check: every ratio is >= 1 (the bound is valid); the headline families\n\
         sit at small constants that improve (head toward the paper's 4-16) as N grows\n\
         and wiring dominates the node footprints; L^2 cancels in the ratio so rows of\n\
         one family drift only through footprint effects."
    );
    Ok(())
}

/// Mesh extension (paper §3.2: "easily extended to general meshes and
/// tori"): the k-ary n-mesh drops the wraparound links, halving every
/// dimension's track count — area should approach a quarter of the
/// torus'.
fn mesh(e: &mut Meter) -> Result {
    let mut t = Table::new(
        "Mesh collinear track counts g_k(n) = (k^n - 1)/(k - 1)",
        "k|n|constructed|formula|torus tracks",
    );
    for (k, n) in [(3usize, 2usize), (4, 2), (4, 3), (5, 2), (8, 2)] {
        let l = mesh_collinear(k, n);
        l.assert_valid();
        t.row(vec![
            k.to_string(),
            n.to_string(),
            l.tracks().to_string(),
            mesh_track_count(k, n).to_string(),
            kary_track_count(k, n).to_string(),
        ]);
    }
    t.print();

    let mut t = Table::new(
        "Mesh vs torus layouts (paper: mesh area -> torus/4)",
        "k|n|L|mesh area|torus area|mesh/torus|paper ratio|a-ratio vs 4N^2/(L^2 k^2)",
    );
    for (k, n) in [(6usize, 2usize), (8, 2), (4, 4), (6, 4)] {
        for layers in [2usize, 4] {
            let mm = e.spec(&format!("mesh:{k},{n}"), layers)?;
            let mt = e.spec(&format!("karyn:{k},{n}"), layers)?;
            let p = predictions::karyn_mesh(k, n, layers);
            t.row(vec![
                k.to_string(),
                n.to_string(),
                layers.to_string(),
                mm.area.to_string(),
                mt.area.to_string(),
                f(mm.area as f64 / mt.area as f64),
                "0.25".into(),
                ratio(mm.area as f64, p.area),
            ]);
        }
    }
    t.print();
    outln!(
        "\nShape check: mesh/torus area heads to 1/4 as tracks dominate the node\n\
         footprints (footprints don't halve, so small instances sit above 0.25)."
    );
    Ok(())
}

/// Cayley families (paper §1, §4.3: the multilayer techniques "are
/// still true" for star graphs, transposition networks, pancake graphs,
/// bubble-sort graphs, and SCC — constructions deferred to future
/// work). We lay them out with the generic recursive-grid scheme and
/// report the same figures of merit, plus the collinear order-search
/// ablation.
fn cayley(e: &mut Meter) -> Result {
    let cases = [
        ("star(4)", "star:4"),
        ("star(5)", "star:5"),
        ("pancake(4)", "pancake:4"),
        ("pancake(5)", "pancake:5"),
        ("bubble-sort(5)", "bubble:5"),
        ("transposition(4)", "transposition:4"),
        ("SCC(4)", "scc:4"),
        ("MS(2,2)", "macrostar:2,2"),
    ];
    let mut t = Table::new(
        "Cayley families: multilayer layouts via the generic scheme",
        "family|N|deg|L|area|max wire|L2/L gain",
    );
    for (label, spec) in cases {
        let fam = family(spec)?;
        let a2 = e.metrics(spec, &fam, 2)?.area;
        for layers in [2usize, 4, 8] {
            let m = e.metrics(spec, &fam, layers)?;
            t.row(vec![
                label.to_string(),
                fam.graph.node_count().to_string(),
                fam.graph.max_degree().to_string(),
                layers.to_string(),
                m.area.to_string(),
                m.max_wire_planar.to_string(),
                f(a2 as f64 / m.area as f64),
            ]);
        }
    }
    t.print();

    // collinear order-search ablation: natural vs BFS vs best-of-16
    let mut t = Table::new(
        "Collinear order search (tracks; lower is better)",
        "family|natural|BFS order|best of 16 random|BFS + local search",
    );
    for (label, spec) in cases {
        let g = family(spec)?.graph;
        let natural: Vec<u32> = (0..g.node_count() as u32).collect();
        let bfs = bfs_order(&g);
        t.row(vec![
            label.to_string(),
            generic_collinear(&g, &natural).tracks().to_string(),
            generic_collinear(&g, &bfs).tracks().to_string(),
            best_order_collinear(&g, 16, 2026).tracks().to_string(),
            generic_collinear(&g, &improve_order(&g, &bfs, 6, 7))
                .tracks()
                .to_string(),
        ]);
    }
    t.print();

    // sanity: generic scheme on a known family vs its dedicated layout
    let mut t = Table::new(
        "Generic scheme overhead vs dedicated construction (L = 4)",
        "family|generic area|dedicated area|overhead",
    );
    for (label, graph, dedicated) in [
        (
            "6-cube",
            mlv_topology::hypercube::hypercube(6),
            "hypercube:6",
        ),
        ("6-ary 2-cube", KaryNCube::torus(6, 2).graph, "karyn:6,2"),
    ] {
        let generic = families::generic(graph);
        let mg = e.metrics(&format!("generic {label}"), &generic, 4)?;
        let md = e.spec(dedicated, 4)?;
        t.row(vec![
            label.to_string(),
            mg.area.to_string(),
            md.area.to_string(),
            ratio(mg.area as f64, md.area as f64),
        ]);
    }
    t.print();
    outln!(
        "\nShape check: the multilayer gains carry over to the permutation families\n\
         (L2 -> L8 area gains > 1 everywhere); BFS orders beat random restarts on\n\
         these structured graphs; and on product families the generic scheme with\n\
         the natural placement exactly matches the dedicated constructions — greedy\n\
         interval colouring is optimal per order, so only the *order* matters."
    );
    Ok(())
}

/// Routing (paper §1 claim 4, extended): the worst-case total wire
/// length along a route, under BFS shortest paths and under the
/// deterministic dimension-order router real tori use. Both shrink
/// ≈ L/2 with layers; dimension-order pays only a small premium over
/// the best shortest path.
fn routing(e: &mut Meter) -> Result {
    let mut t = Table::new(
        "Worst-case routed wire length: BFS shortest paths vs dimension-order",
        "network|N|L|max wire|routed (BFS)|routed (dim-order)|dim/BFS|routed/maxwire",
    );
    for (k, n) in [(6usize, 2usize), (4, 3), (8, 2), (3, 4)] {
        let spec = format!("karyn:{k},{n}");
        let fam = family(&spec)?;
        let cube = KaryNCube::torus(k, n);
        let router = DimensionOrderRouter::new(&cube);
        for layers in [2usize, 4, 8] {
            let m = e.metrics(&spec, &fam, layers)?;
            let mut layout = fam.realize(layers);
            align_wires(&mut layout, &cube.graph);
            let lens: Vec<u64> = layout.wires.iter().map(|w| w.path.length()).collect();
            let bfs = LayoutMetrics::max_routed_path(&layout, &cube.graph).unwrap();
            let dim = router.max_route_cost(|e| lens[e as usize]).unwrap();
            t.row(vec![
                format!("{k}-ary {n}-cube"),
                cube.node_count().to_string(),
                layers.to_string(),
                m.max_wire_full.to_string(),
                bfs.to_string(),
                dim.to_string(),
                ratio(dim as f64, bfs as f64),
                f(bfs as f64 / m.max_wire_full as f64),
            ]);
        }
    }
    t.print();
    outln!(
        "\nShape check: both routed budgets scale down with L alongside the wire\n\
         lengths; dimension-order routing pays a small constant premium (>= 1.0)\n\
         over the best shortest path, since it cannot pick the cheapest of the\n\
         equal-hop routes."
    );
    Ok(())
}

/// Ablation: where the area goes — lane utilization, footprint
/// fraction, layer balance, and cut congestion per family and layer
/// count; plus the jog-distribution ablation (round-robin vs all in one
/// group) that shows irregular wires need the multilayer treatment too.
fn congestion(_: &mut Meter) -> Result {
    let mut t = Table::new(
        "Congestion & density per family",
        "family|L|area|footprint %|lane util mean|lane util max|peak cut flux|layer balance",
    );
    for (label, spec) in [
        ("8-cube", "hypercube:8"),
        ("6-ary 4-cube", "karyn:6,4"),
        ("GHC 12x12", "ghc:12,12"),
        ("CCC(5)", "ccc:5"),
        ("BF(5)", "butterfly:5"),
        ("HSN(3,K5)", "hsn:3,5"),
    ] {
        let fam = family(spec)?;
        for layers in [2usize, 8] {
            let layout = fam.realize(layers);
            let usage = analytics::layer_usage(&layout);
            let (_, lmean, lmax) = analytics::lane_utilization(&layout);
            let balance = {
                let mx = *usage.iter().max().unwrap_or(&0) as f64;
                let mn = *usage.iter().filter(|&&u| u > 0).min().unwrap_or(&1) as f64;
                if mx > 0.0 {
                    mn / mx
                } else {
                    0.0
                }
            };
            t.row(vec![
                label.to_string(),
                layers.to_string(),
                LayoutMetrics::of(&layout).area.to_string(),
                f(analytics::footprint_fraction(&layout) * 100.0),
                f(lmean * 100.0),
                f(lmax * 100.0),
                analytics::max_cut_flux(&layout).to_string(),
                f(balance),
            ]);
        }
    }
    t.print();

    // jog ablation: spreading jogs over layer groups vs piling them in
    // group 0, on jog-heavy families
    let mut t = Table::new(
        "Jog-distribution ablation (round-robin vs single group), L = 8",
        "family|area RR|area single|single/RR",
    );
    for (label, spec) in [
        ("HSN(3,K5)", "hsn:3,5"),
        ("folded 7-cube", "folded:7"),
        ("star(5)", "star:5"),
        ("BF(5)", "butterfly:5"),
    ] {
        let fam = family(spec)?;
        let [rr, single] = [JogStrategy::RoundRobin, JogStrategy::SingleGroup].map(|jogs| {
            let opts = RealizeOptions {
                jog_strategy: jogs,
                ..RealizeOptions::with_layers(8)
            };
            LayoutMetrics::of(&realize(&fam.spec, &opts)).area
        });
        t.row(vec![
            label.to_string(),
            rr.to_string(),
            single.to_string(),
            f(single as f64 / rr as f64),
        ]);
    }
    t.print();
    outln!(
        "\nShape check: footprint fraction rises with L (the wiring shrinks, nodes\n\
         don't) — the finite-size dilution discussed in EXPERIMENTS.md; piling jogs\n\
         into one layer group forfeits their multilayer gain on jog-heavy families."
    );
    Ok(())
}

/// T-3d: the multilayer **3-D** grid model (paper §2.2 defines it;
/// constructions deferred) — a concrete riser-based instance, measured
/// against the 2-D multilayer scheme at the same total layer budget.
///
/// Claim under test (from the model's definition): stacking `L_A`
/// active layers removes `L_A − 1` of every stack's node footprints at
/// the cost of a thicker per-slab bundle (wiring is a wash) plus one
/// riser column per block-crossing wire. It therefore pays off where
/// the 2-D scheme saturates: node-dominated layouts with few crossing
/// wires.
fn three_d(_: &mut Meter) -> Result {
    const L: usize = 8;
    let metrics_3d = |spec: &str, fam: &Family, la: usize, side: Option<usize>| {
        let opts = Realize3dOptions {
            layers: L,
            active_layers: la,
            node_side: side,
            pdk: None,
        };
        let layout = realize_3d(&fam.spec, &opts);
        check(&format!("{spec} L={L} LA={la}"), &layout, &fam.graph)?;
        Ok::<_, String>(LayoutMetrics::of(&layout))
    };
    let cases = [
        ("8-ary 2-cube", "karyn:8,2"),
        ("8-ary 2-mesh", "mesh:8,2"),
        ("4-ary 4-cube", "karyn:4,4"),
        ("6-cube", "hypercube:6"),
    ];
    let mut t = Table::new(
        "T-3d: 2-D vs 3-D grid model at L = 8 (area; gain over L_A = 1)",
        "network|node side|LA=1|LA=2|gain|LA=4|gain",
    );
    for (label, spec) in cases {
        let fam = family(spec)?;
        for side in [None, Some(16), Some(32)] {
            let m1 = metrics_3d(spec, &fam, 1, side)?;
            let m2 = metrics_3d(spec, &fam, 2, side)?;
            let m4 = metrics_3d(spec, &fam, 4, side)?;
            t.row(vec![
                label.to_string(),
                side.map_or("min".into(), |s| s.to_string()),
                m1.area.to_string(),
                m2.area.to_string(),
                f(m1.area as f64 / m2.area as f64),
                m4.area.to_string(),
                f(m1.area as f64 / m4.area as f64),
            ]);
        }
    }
    t.print();

    // volume is conserved (L × area falls only as far as area does) and
    // the max wire shrinks with the shorter column spans
    let mut t = Table::new(
        "T-3d: wire length and risers at node side 16, L = 8",
        "network|LA|height|max wire|width (risers included)",
    );
    for (label, spec) in cases {
        let fam = family(spec)?;
        for la in [1usize, 2, 4] {
            let m = metrics_3d(spec, &fam, la, Some(16))?;
            t.row(vec![
                label.to_string(),
                la.to_string(),
                m.height.to_string(),
                m.max_wire_planar.to_string(),
                m.width.to_string(),
            ]);
        }
    }
    t.print();
    outln!(
        "\nShape check: with minimal node sizes stacking is a wash (wiring conserved);\n\
         with processor-scale nodes the gain approaches L_A on tori/meshes (few\n\
         risers) and stays smaller on hypercubes (every high-dimension link crosses\n\
         blocks and buys a riser column)."
    );
    Ok(())
}

/// A plain-text table printer (fixed-width columns, Markdown-ish).
struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with a title and `|`-separated column headers.
    fn new(title: impl Into<String>, headers: &str) -> Self {
        Table {
            title: title.into(),
            headers: headers.split('|').map(String::from).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Render to a string.
    fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("| ");
            for (i, c) in cells.iter().enumerate() {
                line.push_str(&format!("{:>width$} | ", c, width = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&fmt_row(&sep, &widths));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    fn print(&self) {
        out!("{}", self.render());
    }
}

/// Format a measured/predicted ratio.
fn ratio(measured: f64, predicted: f64) -> String {
    if predicted == 0.0 {
        "-".to_string()
    } else {
        format!("{:.3}", measured / predicted)
    }
}

/// Format a float compactly.
fn f(x: f64) -> String {
    if x >= 1000.0 {
        format!("{:.3e}", x)
    } else {
        format!("{:.1}", x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders() {
        let mut t = Table::new("demo", "a|bb");
        t.row(vec!["1".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("| 1 |"));
    }

    #[test]
    #[should_panic]
    fn table_rejects_bad_row() {
        let mut t = Table::new("demo", "a");
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn ratio_formatting() {
        assert_eq!(ratio(3.0, 2.0), "1.500");
        assert_eq!(ratio(1.0, 0.0), "-");
    }
}
