//! Pins every table `mlv tables <id>` prints, byte for byte, to
//! `tests/fixtures/tables/<id>.txt`. To move a table on purpose, write
//! the output of `mlv tables <id>` over its fixture and review the diff.

fn assert_pinned(id: &str, fixture: &str) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_mlv"))
        .args(["tables", id])
        .output()
        .unwrap();
    let got = String::from_utf8_lossy(&out.stdout);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{id}: {err}");
    for (i, (g, w)) in got.lines().zip(fixture.lines()).enumerate() {
        assert_eq!(g, w, "{id}: line {} differs from its fixture", i + 1);
    }
    assert!(got == fixture, "{id}: output and fixture differ in length");
}

macro_rules! pin {
    ($($test:ident $id:literal)*) => {$(
        #[test]
        fn $test() {
            assert_pinned($id, include_str!(concat!("fixtures/tables/", $id, ".txt")));
        }
    )*};
}

pin! {
    table_3d "3d"
    table_butterfly "butterfly"
    table_cayley "cayley"
    table_ccc "ccc"
    table_clusterc "clusterc"
    table_congestion "congestion"
    table_folded_enhanced "folded_enhanced"
    table_genhyper "genhyper"
    table_hsn_isn "hsn_isn"
    table_hypercube "hypercube"
    table_karyncube "karyncube"
    table_lower_bounds "lower_bounds"
    table_mesh "mesh"
    table_model_comparison "model_comparison"
    table_routing "routing"
}
