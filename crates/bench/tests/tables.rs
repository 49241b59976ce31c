//! Pins every `table_*` binary's stdout, byte for byte, to
//! `tests/fixtures/tables/<bin>.txt`. To move a table on purpose, write
//! the output of `cargo run --release -p mlv-bench --bin <bin>` over its
//! fixture and review the diff.

fn assert_pinned(bin: &str, fixture: &str) {
    let out = std::process::Command::new(bin).output().unwrap();
    let got = String::from_utf8_lossy(&out.stdout);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{bin}: {err}");
    for (i, (g, w)) in got.lines().zip(fixture.lines()).enumerate() {
        assert_eq!(g, w, "{bin}: line {} differs from its fixture", i + 1);
    }
    assert!(got == fixture, "{bin}: output and fixture differ in length");
}

macro_rules! pin {
    ($($bin:ident)*) => {$(
        #[test]
        fn $bin() {
            assert_pinned(
                env!(concat!("CARGO_BIN_EXE_", stringify!($bin))),
                include_str!(concat!("fixtures/tables/", stringify!($bin), ".txt")),
            );
        }
    )*};
}

pin! {
    table_3d table_butterfly table_cayley table_ccc table_clusterc
    table_congestion table_folded_enhanced table_genhyper table_hsn_isn
    table_hypercube table_karyncube table_lower_bounds table_mesh
    table_model_comparison table_routing
}
