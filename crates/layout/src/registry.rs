//! The family registry: one table of every network family the repo
//! lays out — its canonical name, CLI spec grammar, constructor, and
//! (where the conformance harness covers it) the seeded parameter
//! lattice with its calibrated prediction envelope.
//!
//! The CLI parser (`mlv-cli`), the `mlv families` listing, the
//! conformance case builder (`mlv-conformance`), and the bench binaries
//! all enumerate this table, so a family's name and grammar are spelled
//! exactly once in the workspace.

use crate::families::{self, Family};
use mlv_core::rng::Rng;
use mlv_formulas::predictions::{self, Prediction};
use mlv_topology::cluster::ClusterKind;

/// Parsed arguments of a `"<name>:<args>"` family spec.
pub struct FamilyArgs<'a> {
    /// The full spec string, for error messages.
    pub spec: &'a str,
    /// Leading numeric arguments.
    pub nums: Vec<usize>,
    /// All comma-separated argument tokens, trimmed (for trailing word
    /// arguments such as the cluster kind).
    pub words: Vec<&'a str>,
}

impl FamilyArgs<'_> {
    /// Require at least `n` leading numeric arguments.
    pub fn need(&self, n: usize) -> Result<(), String> {
        if self.nums.len() < n {
            Err(format!("'{}': expected {n} numeric argument(s)", self.spec))
        } else {
            Ok(())
        }
    }
}

/// Closed-form prediction at a layer budget, boxed per lattice draw.
pub type PredictFn = Box<dyn Fn(usize) -> Prediction>;

/// One seeded draw from a family's conformance parameter pool.
pub struct LatticeDraw {
    /// `family:params` label (the layer suffix is appended by the
    /// harness).
    pub label: String,
    /// The drawn graph + orthogonal spec.
    pub family: Family,
    /// Leading-term predictor, `None` for draws without closed forms.
    pub predict: Option<PredictFn>,
}

/// Measured/predicted ratio bounds at the Thompson (L = 2) point.
#[derive(Clone, Copy, Debug)]
pub struct RatioEnvelope {
    /// `(lo, hi)` for `measured_area / predicted_area`.
    pub area: (f64, f64),
    /// `(lo, hi)` for `measured_max_wire_planar / predicted_max_wire`,
    /// when the paper states a max-wire leading term.
    pub wire: Option<(f64, f64)>,
}

/// A family's conformance lattice: the seeded draw plus the calibrated
/// envelope its predictions are checked against.
pub struct LatticeSpec {
    /// Draw one parameter choice from the family's pool.
    pub draw: fn(&mut Rng) -> LatticeDraw,
    /// Ratio envelope; required whenever draws carry predictions.
    pub envelope: Option<RatioEnvelope>,
}

/// One row of the registry.
pub struct FamilyEntry {
    /// Canonical name (conformance `--families` vocabulary).
    pub name: &'static str,
    /// CLI spec keyword (differs from `name` only for `genhyper`/`ghc`).
    pub keyword: &'static str,
    /// CLI spec grammar, e.g. `karyn:<k>,<n>`.
    pub grammar: &'static str,
    /// One-line description for `mlv families`.
    pub description: &'static str,
    /// A valid example spec (exercised by tests).
    pub example: &'static str,
    /// Build the family from parsed spec arguments.
    pub construct: fn(&FamilyArgs) -> Result<Family, String>,
    /// Conformance lattice, `None` for families the harness skips.
    pub lattice: Option<LatticeSpec>,
}

/// Layer budgets drawn per lattice case (even, odd, and the degenerate
/// Thompson `L = 2`) — shared by the conformance harness's case builder
/// and the batch engine's lattice enumeration, so both walk the same
/// `(family, params, L)` grid.
pub const LAYER_POOL: [usize; 6] = [2, 3, 4, 5, 6, 8];

fn pick<T: Copy>(rng: &mut Rng, pool: &[T]) -> T {
    pool[rng.gen_range_usize(0..pool.len())]
}

// --- constructors ------------------------------------------------------

fn c_hypercube(a: &FamilyArgs) -> Result<Family, String> {
    a.need(1)?;
    Ok(families::hypercube(a.nums[0]))
}

fn c_karyn(a: &FamilyArgs) -> Result<Family, String> {
    a.need(2)?;
    Ok(families::karyn_cube(a.nums[0], a.nums[1], false))
}

fn c_karyn_folded(a: &FamilyArgs) -> Result<Family, String> {
    a.need(2)?;
    Ok(families::karyn_cube(a.nums[0], a.nums[1], true))
}

fn c_mesh(a: &FamilyArgs) -> Result<Family, String> {
    a.need(2)?;
    Ok(families::karyn_mesh(a.nums[0], a.nums[1]))
}

fn c_genhyper(a: &FamilyArgs) -> Result<Family, String> {
    a.need(1)?;
    Ok(families::genhyper(&a.nums))
}

fn c_complete(a: &FamilyArgs) -> Result<Family, String> {
    a.need(1)?;
    Ok(families::genhyper(&a.nums[..1]))
}

fn c_folded(a: &FamilyArgs) -> Result<Family, String> {
    a.need(1)?;
    Ok(families::folded_hypercube(a.nums[0]))
}

fn c_enhanced(a: &FamilyArgs) -> Result<Family, String> {
    a.need(1)?;
    let seed = a.nums.get(1).copied().unwrap_or(2026) as u64;
    Ok(families::enhanced_cube(a.nums[0], seed))
}

fn c_ccc(a: &FamilyArgs) -> Result<Family, String> {
    a.need(1)?;
    Ok(families::ccc(a.nums[0]))
}

fn c_rh(a: &FamilyArgs) -> Result<Family, String> {
    a.need(1)?;
    Ok(families::reduced_hypercube(a.nums[0]))
}

fn c_butterfly(a: &FamilyArgs) -> Result<Family, String> {
    a.need(1)?;
    let b = a.nums.get(1).copied().unwrap_or(0);
    Ok(families::butterfly_clustered(a.nums[0], b))
}

fn c_hsn(a: &FamilyArgs) -> Result<Family, String> {
    a.need(2)?;
    Ok(families::hsn(a.nums[0], a.nums[1]))
}

fn c_hhn(a: &FamilyArgs) -> Result<Family, String> {
    a.need(2)?;
    Ok(families::hhn(a.nums[0], a.nums[1]))
}

fn c_isn(a: &FamilyArgs) -> Result<Family, String> {
    a.need(2)?;
    Ok(families::isn(a.nums[0], a.nums[1]))
}

fn c_clusterc(a: &FamilyArgs) -> Result<Family, String> {
    a.need(3)?;
    let kind = match a.words.get(3).copied() {
        Some("ring") | None => ClusterKind::Ring,
        Some("cube") | Some("hypercube") => ClusterKind::Hypercube,
        Some("complete") => ClusterKind::Complete,
        Some(other) => return Err(format!("unknown cluster kind '{other}'")),
    };
    Ok(families::kary_cluster(
        a.nums[0], a.nums[1], a.nums[2], kind,
    ))
}

fn c_star(a: &FamilyArgs) -> Result<Family, String> {
    a.need(1)?;
    Ok(families::star(a.nums[0]))
}

fn c_pancake(a: &FamilyArgs) -> Result<Family, String> {
    a.need(1)?;
    Ok(families::pancake(a.nums[0]))
}

fn c_bubble(a: &FamilyArgs) -> Result<Family, String> {
    a.need(1)?;
    Ok(families::bubble_sort(a.nums[0]))
}

fn c_transposition(a: &FamilyArgs) -> Result<Family, String> {
    a.need(1)?;
    Ok(families::transposition(a.nums[0]))
}

fn c_scc(a: &FamilyArgs) -> Result<Family, String> {
    a.need(1)?;
    Ok(families::scc(a.nums[0]))
}

fn c_macrostar(a: &FamilyArgs) -> Result<Family, String> {
    a.need(2)?;
    Ok(families::macro_star(a.nums[0], a.nums[1]))
}

// --- lattice draws -----------------------------------------------------
// Each draw replays the exact RNG call sequence the conformance harness
// has always used for its family, so the seeded lattice (and its FNV
// digest) is stable across refactors.

fn d_hypercube(rng: &mut Rng) -> LatticeDraw {
    let n = pick(rng, &[3usize, 4, 5, 6]);
    LatticeDraw {
        label: format!("hypercube:{n}"),
        family: families::hypercube(n),
        predict: Some(Box::new(move |l| predictions::hypercube(1 << n, l))),
    }
}

fn d_karyn(rng: &mut Rng) -> LatticeDraw {
    let (k, n) = pick(rng, &[(3usize, 2usize), (4, 2), (5, 2), (3, 3)]);
    let fold = rng.gen_bool(0.5);
    LatticeDraw {
        label: format!("karyn:{k},{n}{}", if fold { " folded" } else { "" }),
        family: families::karyn_cube(k, n, fold),
        predict: Some(Box::new(move |l| predictions::karyn(k, n, l))),
    }
}

fn d_mesh(rng: &mut Rng) -> LatticeDraw {
    let (k, n) = pick(rng, &[(3usize, 2usize), (4, 2), (5, 2), (3, 3)]);
    LatticeDraw {
        label: format!("mesh:{k},{n}"),
        family: families::karyn_mesh(k, n),
        predict: Some(Box::new(move |l| predictions::karyn_mesh(k, n, l))),
    }
}

fn d_genhyper(rng: &mut Rng) -> LatticeDraw {
    // uniform radices carry predictions; mixed radices are exercised
    // checker+differential-only
    let uniform = rng.gen_bool(0.7);
    if uniform {
        let (r, n) = pick(rng, &[(3usize, 2usize), (4, 2), (5, 2), (3, 3)]);
        LatticeDraw {
            label: format!("ghc:{r}^{n}"),
            family: families::genhyper(&vec![r; n]),
            predict: Some(Box::new(move |l| predictions::genhyper(r, n, l))),
        }
    } else {
        let radices: &[usize] = pick(rng, &[&[4usize, 3][..], &[5, 3][..], &[4, 3, 2][..]]);
        LatticeDraw {
            label: format!("ghc:{radices:?}"),
            family: families::genhyper(radices),
            predict: None,
        }
    }
}

fn d_butterfly(rng: &mut Rng) -> LatticeDraw {
    let (m, b) = pick(rng, &[(3usize, 0usize), (4, 0), (4, 1)]);
    let n_nodes = m << m;
    LatticeDraw {
        label: format!("butterfly:{m},{b}"),
        family: families::butterfly_clustered(m, b),
        predict: Some(Box::new(move |l| predictions::butterfly(n_nodes, l))),
    }
}

fn d_ccc(rng: &mut Rng) -> LatticeDraw {
    let n = pick(rng, &[3usize, 4]);
    let n_nodes = n << n;
    LatticeDraw {
        label: format!("ccc:{n}"),
        family: families::ccc(n),
        predict: Some(Box::new(move |l| predictions::ccc(n_nodes, l))),
    }
}

fn d_folded(rng: &mut Rng) -> LatticeDraw {
    let n = pick(rng, &[3usize, 4, 5]);
    LatticeDraw {
        label: format!("folded:{n}"),
        family: families::folded_hypercube(n),
        predict: Some(Box::new(move |l| predictions::folded_hypercube(1 << n, l))),
    }
}

fn d_enhanced(rng: &mut Rng) -> LatticeDraw {
    let n = pick(rng, &[3usize, 4, 5]);
    let seed = rng.gen_range_u64(1..1_000_000);
    LatticeDraw {
        label: format!("enhanced:{n} seed={seed}"),
        family: families::enhanced_cube(n, seed),
        predict: Some(Box::new(move |l| predictions::enhanced_cube(1 << n, l))),
    }
}

fn d_hsn(rng: &mut Rng) -> LatticeDraw {
    let (levels, r) = pick(rng, &[(2usize, 3usize), (2, 4), (2, 5), (3, 3)]);
    let n_nodes = r.pow(levels as u32);
    LatticeDraw {
        label: format!("hsn:{levels},{r}"),
        family: families::hsn(levels, r),
        predict: Some(Box::new(move |l| predictions::hsn(n_nodes, l))),
    }
}

fn d_hhn(rng: &mut Rng) -> LatticeDraw {
    let (levels, s) = pick(rng, &[(2usize, 2usize), (2, 3)]);
    let n_nodes = (1usize << s).pow(levels as u32);
    LatticeDraw {
        label: format!("hhn:{levels},{s}"),
        family: families::hhn(levels, s),
        predict: Some(Box::new(move |l| predictions::hsn(n_nodes, l))),
    }
}

fn d_isn(rng: &mut Rng) -> LatticeDraw {
    let (levels, r) = pick(rng, &[(2usize, 3usize), (2, 4)]);
    let family = families::isn(levels, r);
    let n_nodes = family.graph.node_count();
    LatticeDraw {
        label: format!("isn:{levels},{r}"),
        family,
        predict: Some(Box::new(move |l| predictions::isn(n_nodes, l))),
    }
}

fn d_clusterc(rng: &mut Rng) -> LatticeDraw {
    let (k, n, c, kind) = pick(
        rng,
        &[
            (3usize, 2usize, 4usize, ClusterKind::Hypercube),
            (4, 2, 3, ClusterKind::Ring),
            (3, 2, 3, ClusterKind::Complete),
        ],
    );
    LatticeDraw {
        label: format!("clusterc:{k},{n},{c},{kind:?}"),
        family: families::kary_cluster(k, n, c, kind),
        predict: None,
    }
}

fn d_star(rng: &mut Rng) -> LatticeDraw {
    let n = pick(rng, &[3usize, 4]);
    LatticeDraw {
        label: format!("star:{n}"),
        family: families::star(n),
        predict: None,
    }
}

// Envelopes calibrated against the full pool lattice at the Thompson
// point (the `tune_envelopes` sweep in mlv-conformance; re-measure
// after layout-engine changes). Bounds carry ≥ 25% slack beyond the
// observed extremes; a breach means the layout engine's constants
// moved. Large ratios (ISN, butterfly, CCC, HSN) are small-instance
// effects — the lower-order terms the leading constants drop still
// dominate at the pool's N — which is exactly why the envelope is
// per-family.
const HYPERCUBE_ENV: RatioEnvelope = RatioEnvelope {
    area: (2.0, 7.5),
    wire: Some((2.0, 8.0)),
};
const KARYN_ENV: RatioEnvelope = RatioEnvelope {
    area: (4.5, 10.0),
    wire: None,
};
const MESH_ENV: RatioEnvelope = RatioEnvelope {
    area: (12.0, 24.0),
    wire: None,
};
const GENHYPER_ENV: RatioEnvelope = RatioEnvelope {
    area: (2.2, 8.0),
    wire: Some((1.0, 3.5)),
};
const BUTTERFLY_ENV: RatioEnvelope = RatioEnvelope {
    area: (38.0, 90.0),
    wire: Some((5.0, 15.0)),
};
const CCC_ENV: RatioEnvelope = RatioEnvelope {
    area: (40.0, 92.0),
    wire: None,
};
const FOLDED_ENV: RatioEnvelope = RatioEnvelope {
    area: (2.1, 6.0),
    wire: Some((2.1, 5.6)),
};
const ENHANCED_ENV: RatioEnvelope = RatioEnvelope {
    area: (1.6, 8.0),
    wire: Some((1.3, 6.0)),
};
const HSN_ENV: RatioEnvelope = RatioEnvelope {
    area: (24.0, 82.0),
    wire: Some((5.0, 20.0)),
};
const HHN_ENV: RatioEnvelope = RatioEnvelope {
    area: (18.0, 48.0),
    wire: Some((8.5, 15.5)),
};
const ISN_ENV: RatioEnvelope = RatioEnvelope {
    area: (170.0, 420.0),
    wire: Some((22.0, 54.0)),
};

/// The registry itself. Lattice-bearing entries appear in the harness's
/// historical reporting order.
pub static REGISTRY: &[FamilyEntry] = &[
    FamilyEntry {
        name: "hypercube",
        keyword: "hypercube",
        grammar: "hypercube:<n>",
        description: "binary n-cube (2^n nodes)",
        example: "hypercube:4",
        construct: c_hypercube,
        lattice: Some(LatticeSpec {
            draw: d_hypercube,
            envelope: Some(HYPERCUBE_ENV),
        }),
    },
    FamilyEntry {
        name: "karyn",
        keyword: "karyn",
        grammar: "karyn:<k>,<n>",
        description: "k-ary n-cube torus",
        example: "karyn:4,2",
        construct: c_karyn,
        lattice: Some(LatticeSpec {
            draw: d_karyn,
            envelope: Some(KARYN_ENV),
        }),
    },
    FamilyEntry {
        name: "karyn-folded",
        keyword: "karyn-folded",
        grammar: "karyn-folded:<k>,<n>",
        description: "k-ary n-cube with folded rows/columns",
        example: "karyn-folded:4,2",
        construct: c_karyn_folded,
        lattice: None,
    },
    FamilyEntry {
        name: "mesh",
        keyword: "mesh",
        grammar: "mesh:<k>,<n>",
        description: "k-ary n-mesh (no wraparound)",
        example: "mesh:3,2",
        construct: c_mesh,
        lattice: Some(LatticeSpec {
            draw: d_mesh,
            envelope: Some(MESH_ENV),
        }),
    },
    FamilyEntry {
        name: "genhyper",
        keyword: "ghc",
        grammar: "ghc:<r0>,<r1>,...",
        description: "generalized hypercube, mixed radices",
        example: "ghc:4,4",
        construct: c_genhyper,
        lattice: Some(LatticeSpec {
            draw: d_genhyper,
            envelope: Some(GENHYPER_ENV),
        }),
    },
    FamilyEntry {
        name: "complete",
        keyword: "complete",
        grammar: "complete:<n>",
        description: "complete graph K_n (1-dim GHC)",
        example: "complete:6",
        construct: c_complete,
        lattice: None,
    },
    FamilyEntry {
        name: "butterfly",
        keyword: "butterfly",
        grammar: "butterfly:<m>[,<b>]",
        description: "wrapped butterfly, cluster radix 2^b",
        example: "butterfly:4,1",
        construct: c_butterfly,
        lattice: Some(LatticeSpec {
            draw: d_butterfly,
            envelope: Some(BUTTERFLY_ENV),
        }),
    },
    FamilyEntry {
        name: "ccc",
        keyword: "ccc",
        grammar: "ccc:<n>",
        description: "cube-connected cycles",
        example: "ccc:3",
        construct: c_ccc,
        lattice: Some(LatticeSpec {
            draw: d_ccc,
            envelope: Some(CCC_ENV),
        }),
    },
    FamilyEntry {
        name: "rh",
        keyword: "rh",
        grammar: "rh:<n>",
        description: "reduced hypercube (n = 2^s)",
        example: "rh:4",
        construct: c_rh,
        lattice: None,
    },
    FamilyEntry {
        name: "folded",
        keyword: "folded",
        grammar: "folded:<n>",
        description: "folded hypercube",
        example: "folded:4",
        construct: c_folded,
        lattice: Some(LatticeSpec {
            draw: d_folded,
            envelope: Some(FOLDED_ENV),
        }),
    },
    FamilyEntry {
        name: "enhanced",
        keyword: "enhanced",
        grammar: "enhanced:<n>[,<seed>]",
        description: "enhanced cube (random extra links)",
        example: "enhanced:4,7",
        construct: c_enhanced,
        lattice: Some(LatticeSpec {
            draw: d_enhanced,
            envelope: Some(ENHANCED_ENV),
        }),
    },
    FamilyEntry {
        name: "hsn",
        keyword: "hsn",
        grammar: "hsn:<levels>,<r>",
        description: "hierarchical swap network over K_r",
        example: "hsn:2,4",
        construct: c_hsn,
        lattice: Some(LatticeSpec {
            draw: d_hsn,
            envelope: Some(HSN_ENV),
        }),
    },
    FamilyEntry {
        name: "hhn",
        keyword: "hhn",
        grammar: "hhn:<levels>,<s>",
        description: "hierarchical hypercube network (s-cube nuclei)",
        example: "hhn:2,2",
        construct: c_hhn,
        lattice: Some(LatticeSpec {
            draw: d_hhn,
            envelope: Some(HHN_ENV),
        }),
    },
    FamilyEntry {
        name: "isn",
        keyword: "isn",
        grammar: "isn:<levels>,<r>",
        description: "indirect swap network",
        example: "isn:2,3",
        construct: c_isn,
        lattice: Some(LatticeSpec {
            draw: d_isn,
            envelope: Some(ISN_ENV),
        }),
    },
    FamilyEntry {
        name: "clusterc",
        keyword: "clusterc",
        grammar: "clusterc:<k>,<n>,<c>,<ring|cube|complete>",
        description: "k-ary n-cube cluster-c",
        example: "clusterc:3,2,4,cube",
        construct: c_clusterc,
        lattice: Some(LatticeSpec {
            draw: d_clusterc,
            envelope: None,
        }),
    },
    FamilyEntry {
        name: "star",
        keyword: "star",
        grammar: "star:<n>",
        description: "star graph (n! nodes)",
        example: "star:4",
        construct: c_star,
        lattice: Some(LatticeSpec {
            draw: d_star,
            envelope: None,
        }),
    },
    FamilyEntry {
        name: "pancake",
        keyword: "pancake",
        grammar: "pancake:<n>",
        description: "pancake graph",
        example: "pancake:4",
        construct: c_pancake,
        lattice: None,
    },
    FamilyEntry {
        name: "bubble",
        keyword: "bubble",
        grammar: "bubble:<n>",
        description: "bubble-sort graph",
        example: "bubble:4",
        construct: c_bubble,
        lattice: None,
    },
    FamilyEntry {
        name: "transposition",
        keyword: "transposition",
        grammar: "transposition:<n>",
        description: "transposition network",
        example: "transposition:4",
        construct: c_transposition,
        lattice: None,
    },
    FamilyEntry {
        name: "scc",
        keyword: "scc",
        grammar: "scc:<n>",
        description: "star-connected cycles",
        example: "scc:4",
        construct: c_scc,
        lattice: None,
    },
    FamilyEntry {
        name: "macrostar",
        keyword: "macrostar",
        grammar: "macrostar:<l>,<n>",
        description: "macro-star network MS(l,n)",
        example: "macrostar:2,2",
        construct: c_macrostar,
        lattice: None,
    },
];

/// Look up an entry by canonical name or CLI keyword.
pub fn find(name: &str) -> Option<&'static FamilyEntry> {
    REGISTRY
        .iter()
        .find(|e| e.name == name || e.keyword == name)
}

/// Canonical names of the lattice-bearing families, in reporting order
/// (the conformance `--families` vocabulary).
pub fn lattice_names() -> Vec<&'static str> {
    REGISTRY
        .iter()
        .filter(|e| e.lattice.is_some())
        .map(|e| e.name)
        .collect()
}

/// Parse a `"<name>:<args>"` family spec against the registry. Returns
/// a readable error for anything invalid.
pub fn parse(spec: &str) -> Result<Family, String> {
    let (name, rest) = spec.split_once(':').unwrap_or((spec, ""));
    let entry = find(name)
        .ok_or_else(|| format!("unknown family '{name}'; run `mlv families` for the list"))?;
    let words: Vec<&str> = rest.split(',').map(str::trim).collect();
    let nums: Vec<usize> = words
        .iter()
        .map_while(|t| t.parse::<usize>().ok())
        .collect();
    (entry.construct)(&FamilyArgs { spec, nums, words })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_example_parses_and_builds() {
        for e in REGISTRY {
            let fam = parse(e.example).unwrap_or_else(|err| panic!("{}: {err}", e.example));
            assert!(fam.graph.node_count() > 0, "{}", e.example);
            assert!(
                e.example.starts_with(e.keyword),
                "{} example does not use keyword {}",
                e.name,
                e.keyword
            );
            assert!(
                e.grammar.starts_with(e.keyword),
                "{} grammar does not use keyword {}",
                e.name,
                e.keyword
            );
        }
    }

    #[test]
    fn names_and_keywords_are_unique() {
        use std::collections::BTreeSet;
        let names: BTreeSet<_> = REGISTRY.iter().map(|e| e.name).collect();
        let keywords: BTreeSet<_> = REGISTRY.iter().map(|e| e.keyword).collect();
        assert_eq!(names.len(), REGISTRY.len());
        assert_eq!(keywords.len(), REGISTRY.len());
    }

    #[test]
    fn find_matches_name_and_keyword() {
        assert!(find("genhyper").is_some());
        assert!(find("ghc").is_some());
        assert_eq!(find("genhyper").unwrap().name, find("ghc").unwrap().name);
        assert!(find("nope").is_none());
    }

    #[test]
    fn rejects_unknown_and_malformed() {
        assert!(parse("nope:3").is_err());
        assert!(parse(REGISTRY[0].name).is_err()); // missing numeric args
        let bad_kind = format!("{}:3,2,4,triangle", find("clusterc").unwrap().keyword);
        assert!(parse(&bad_kind).is_err());
    }

    #[test]
    fn optional_arguments_default() {
        // butterfly's <b> and enhanced's <seed> are optional
        let bf = find("butterfly").unwrap();
        assert!(parse(bf.keyword).is_err());
        assert!((bf.construct)(&FamilyArgs {
            spec: "x",
            nums: vec![3],
            words: vec!["3"],
        })
        .is_ok());
        let en = find("enhanced").unwrap();
        assert!((en.construct)(&FamilyArgs {
            spec: "x",
            nums: vec![4],
            words: vec!["4"],
        })
        .is_ok());
    }

    #[test]
    fn lattice_draws_are_deterministic() {
        for e in REGISTRY.iter().filter(|e| e.lattice.is_some()) {
            let lat = e.lattice.as_ref().unwrap();
            let mut r1 = Rng::seed_from_u64(7);
            let mut r2 = Rng::seed_from_u64(7);
            let a = (lat.draw)(&mut r1);
            let b = (lat.draw)(&mut r2);
            assert_eq!(a.label, b.label, "{}", e.name);
            assert_eq!(
                a.family.graph.edge_multiset(),
                b.family.graph.edge_multiset(),
                "{}",
                e.name
            );
            // prediction-bearing draws require an envelope to check
            // against
            if a.predict.is_some() {
                assert!(
                    lat.envelope.is_some(),
                    "{}: prediction without envelope",
                    e.name
                );
            }
        }
    }

    #[test]
    fn registry_is_complete_per_family() {
        // Adding a family without wiring up the whole vocabulary —
        // parameter pool, calibrated envelope — fails here rather than
        // silently shrinking coverage. (That every lattice family is
        // measured follows from `engine::lattice_jobs`, which the
        // benchmark's `lattice-sweep` runs; its tests cover every
        // family.)
        for e in REGISTRY {
            let Some(lat) = &e.lattice else { continue };
            // lattice pool: the draw stream actually varies, i.e. the
            // family exposes a parameter pool rather than one point
            let labels: std::collections::BTreeSet<String> = (0..32)
                .map(|s| {
                    let mut rng = Rng::seed_from_u64(s);
                    (lat.draw)(&mut rng).label
                })
                .collect();
            assert!(
                labels.len() > 1,
                "{}: 32 seeds drew a single label {:?} — empty pool?",
                e.name,
                labels
            );
            // calibrated envelope: sane, non-degenerate ratio bounds
            if let Some(env) = &lat.envelope {
                let (lo, hi) = env.area;
                assert!(
                    lo > 0.0 && lo < hi,
                    "{}: uncalibrated area envelope ({lo}, {hi})",
                    e.name
                );
                if let Some((wlo, whi)) = env.wire {
                    assert!(
                        wlo > 0.0 && wlo < whi,
                        "{}: uncalibrated wire envelope ({wlo}, {whi})",
                        e.name
                    );
                }
            }
        }
    }

    #[test]
    fn lattice_labels_start_with_keyword() {
        for e in REGISTRY.iter().filter(|e| e.lattice.is_some()) {
            let mut rng = Rng::seed_from_u64(11);
            let d = (e.lattice.as_ref().unwrap().draw)(&mut rng);
            assert!(
                d.label.starts_with(e.keyword),
                "{}: label {} does not start with {}",
                e.name,
                d.label,
                e.keyword
            );
        }
    }
}
