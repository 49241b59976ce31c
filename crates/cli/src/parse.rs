//! Family-spec parsing: `"<name>:<args>"` strings to [`Family`]
//! instances (run `mlv families` for every accepted spelling).
//!
//! The grammar itself lives in [`mlv_layout::registry`] — one table
//! shared with the conformance lattice and `mlv families` — so this
//! module is a thin delegate.

use mlv_layout::families::Family;
use mlv_layout::{registry, MAX_LAYERS};

/// Parse a family spec. Returns a readable error for anything invalid.
pub fn parse_family(spec: &str) -> Result<Family, String> {
    registry::parse(spec)
}

/// Parse a comma-separated layer list, e.g. `"2,4,8"`. Each count must
/// lie in `2..=MAX_LAYERS`, the bound `mlv serve` applies too.
pub fn parse_layers(s: &str) -> Result<Vec<usize>, String> {
    s.split(',')
        .map(|t| {
            t.trim()
                .parse::<usize>()
                .ok()
                .filter(|l| (2..=MAX_LAYERS).contains(l))
                .ok_or_else(|| format!("bad layer count '{t}' (need integers in 2..={MAX_LAYERS})"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_registry_example() {
        for entry in registry::REGISTRY {
            let fam =
                parse_family(entry.example).unwrap_or_else(|e| panic!("{}: {e}", entry.example));
            assert!(fam.graph.node_count() > 0, "{}", entry.example);
        }
    }

    #[test]
    fn rejects_unknown_and_missing_arguments() {
        assert!(parse_family("nope:3").is_err());
        // every family needs at least one numeric argument
        for entry in registry::REGISTRY {
            assert!(parse_family(entry.name).is_err(), "{}", entry.name);
        }
    }

    #[test]
    fn layer_list() {
        assert_eq!(parse_layers("2,4,8").unwrap(), vec![2, 4, 8]);
        assert!(parse_layers("1").is_err());
        assert!(parse_layers("x").is_err());
    }

    #[test]
    fn parsed_families_match_direct_construction() {
        // the example spec and a second parse of the same spec must
        // agree exactly — the registry constructors are deterministic
        for entry in registry::REGISTRY {
            let a = parse_family(entry.example).unwrap();
            let b = parse_family(entry.example).unwrap();
            assert_eq!(
                a.graph.edge_multiset(),
                b.graph.edge_multiset(),
                "{}",
                entry.example
            );
        }
    }
}
