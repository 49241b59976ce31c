//! Pinned outputs, one `key digest` pair per line (hex digest; `#`
//! starts a comment line). Print a file's content afresh with
//! `benchmark --workload <name> --print-expected`.
//!
//! The lattice batch digests hold for the default seed only; the other
//! files pin outputs every seed produces (per-family layout digests).

pub const LATTICE: &str = include_str!("expected/lattice-sweep.txt");
pub const VERIFY: &str = include_str!("expected/verify-medium.txt");
pub const TILED: &str = include_str!("expected/tiled-large.txt");
pub const SERVE: &str = include_str!("expected/serve-open.txt");

/// The `(key, digest)` pairs of a pin file, in file order.
pub fn values(text: &'static str) -> Vec<(&'static str, u64)> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (key, hex) = l.split_once(' ').expect("pin line is `key digest`");
            let digest = u64::from_str_radix(hex.trim(), 16).expect("pin digest is hex");
            (key, digest)
        })
        .collect()
}

/// The digest pinned for `key`, if any.
pub fn lookup(text: &'static str, key: &str) -> Option<u64> {
    values(text)
        .into_iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_files_parse() {
        for text in [LATTICE, VERIFY, TILED, SERVE] {
            assert!(!values(text).is_empty());
        }
        assert_eq!(lookup(TILED, "hypercube:18"), Some(0xac7a_1ba9_9270_9ac7));
        assert_eq!(lookup(TILED, "karyn:4,9"), Some(0x8f3d_06d5_c73d_afd6));
        assert_eq!(lookup(TILED, "nope"), None);
    }
}
