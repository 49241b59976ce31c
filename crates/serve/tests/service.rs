//! Request/response tests for the serve dispatcher: every request
//! kind, hostile inputs, and the thread-count determinism contract.

use mlv_core::exec;
use mlv_serve::{ServeConfig, Service};

fn service() -> Service {
    Service::new(ServeConfig::default())
}

fn assert_ok(resp: &str, id: u64) {
    assert!(
        resp.starts_with(&format!("{{\"id\":{id},\"ok\":true,")),
        "unexpected response: {resp}"
    );
}

#[test]
fn realize_round_trips_and_caches() {
    let s = service();
    let r1 = s.handle_line(r#"{"id":1,"kind":"realize","family":"hypercube:3","layers":4}"#);
    assert_ok(&r1, 1);
    assert!(r1.contains("\"digest\":\""), "{r1}");
    assert!(r1.contains("\"cached\":false"), "{r1}");
    assert!(r1.contains("\"checked\":true"), "{r1}");
    // identical request: memo hit, same digest
    let r2 = s.handle_line(r#"{"id":2,"kind":"realize","family":"hypercube:3","layers":4}"#);
    assert!(r2.contains("\"cached\":true"), "{r2}");
    let digest = |r: &str| {
        let i = r.find("\"digest\":\"").unwrap() + 10;
        r[i..i + 16].to_string()
    };
    assert_eq!(digest(&r1), digest(&r2));
}

#[test]
fn check_reports_legality() {
    let s = service();
    let r = s.handle_line(r#"{"id":5,"kind":"check","family":"mesh:4,4"}"#);
    assert_ok(&r, 5);
    assert!(r.contains("\"legal\":true"), "{r}");
    assert!(r.contains("\"digest\":\""), "{r}");
}

#[test]
fn metrics_with_named_pdk_carries_physical_fields() {
    let s = service();
    let r =
        s.handle_line(r#"{"id":9,"kind":"metrics","family":"hypercube:3","layers":4,"pdk":"hv6"}"#);
    assert_ok(&r, 9);
    assert!(r.contains("\"pdk\":\"hv6\""), "{r}");
    assert!(r.contains("\"phys_wirelength\":"), "{r}");
    // the uniform stack intentionally reports the PDK-free shape
    let u = s.handle_line(
        r#"{"id":10,"kind":"metrics","family":"hypercube:3","layers":4,"pdk":"uniform"}"#,
    );
    assert!(!u.contains("\"phys_wirelength\""), "{u}");
}

#[test]
fn hostile_pdk_text_never_panics() {
    let s = service();
    // a pitch near i64::MAX would overflow layout coordinates during
    // emission: rejected up front with a clean error frame
    let huge_pitch = "mlvpdk 1\\npdk evil\\nlayer M1 H pitch=9223372036854775807 via=1\\nlayer M2 V pitch=2 via=1\\n";
    let r = s.handle_line(&format!(
        "{{\"id\":2,\"kind\":\"realize\",\"family\":\"hypercube:4\",\"layers\":4,\"pdk_text\":\"{huge_pitch}\"}}"
    ));
    assert!(r.contains("\"ok\":false"), "{r}");
    assert!(r.contains("serve cap"), "{r}");
    // via costs are uncapped (they never touch geometry): a stack
    // whose weighted sums overflow realizes fine and surfaces
    // phys_error through the checked metrics arithmetic
    let huge_via = "mlvpdk 1\\npdk evil2\\nlayer M1 H pitch=2 via=18446744073709551615\\nlayer M2 V pitch=2 via=18446744073709551615\\n";
    let r = s.handle_line(&format!(
        "{{\"id\":3,\"kind\":\"realize\",\"family\":\"hypercube:4\",\"layers\":4,\"pdk_text\":\"{huge_via}\"}}"
    ));
    assert_ok(&r, 3);
    assert!(r.contains("\"phys_error\":\""), "{r}");
    assert!(r.contains("overflow"), "{r}");
    // a malformed stack is a clean error frame
    let bad = s.handle_line(
        r#"{"id":4,"kind":"realize","family":"hypercube:3","pdk_text":"mlvpdk 1\nbogus\n"}"#,
    );
    assert!(bad.contains("\"ok\":false"), "{bad}");
    assert!(bad.contains("pdk_text"), "{bad}");
}

#[test]
fn crlf_pdk_text_parses() {
    let s = service();
    let r = s.handle_line(
        r#"{"id":6,"kind":"metrics","family":"hypercube:3","pdk_text":"mlvpdk 1\r\npdk win\r\nlayer M1 H pitch=2 via=1\r\nlayer M2 V pitch=2 via=1\r\n"}"#,
    );
    assert_ok(&r, 6);
    assert!(r.contains("\"pdk\":\"win\""), "{r}");
}

#[test]
fn sweep_shards_partition_the_lattice() {
    let s = service();
    let full = s.handle_line(r#"{"id":1,"kind":"sweep-shard","seed":2000,"cases":2}"#);
    assert_ok(&full, 1);
    let count = |r: &str| r.matches("\"label\":").count();
    let total = count(&full);
    assert!(total > 0, "{full}");
    let mut sharded = 0;
    for shard in 0..3 {
        let r = s.handle_line(&format!(
            "{{\"id\":2,\"kind\":\"sweep-shard\",\"seed\":2000,\"cases\":2,\"shard\":{shard},\"shards\":3}}"
        ));
        assert_ok(&r, 2);
        sharded += count(&r);
    }
    assert_eq!(sharded, total, "shards must partition the lattice");
    // out-of-range shard is an error
    let bad = s.handle_line(r#"{"id":3,"kind":"sweep-shard","seed":1,"shard":3,"shards":3}"#);
    assert!(bad.contains("\"ok\":false"), "{bad}");
}

#[test]
fn profile_returns_deterministic_trace() {
    let s = service();
    let r = s.handle_line(r#"{"id":7,"kind":"profile","family":"hypercube:3","layers":4}"#);
    assert_ok(&r, 7);
    assert!(r.contains("\"trace_digest\":\""), "{r}");
    assert!(r.contains("\"span\""), "{r}");
    // wall-clock fields never leak into the deterministic rendering
    assert!(!r.contains("total_ns"), "{r}");
}

#[test]
fn stats_reports_counters_and_cache() {
    let s = service();
    s.handle_line(r#"{"id":1,"kind":"realize","family":"hypercube:3"}"#);
    s.handle_line(r#"{"id":2,"kind":"realize","family":"hypercube:3"}"#);
    s.handle_line("not json at all");
    let r = s.handle_line(r#"{"id":3,"kind":"stats"}"#);
    assert_ok(&r, 3);
    assert!(r.contains("\"hits\":1"), "{r}");
    assert!(r.contains("\"misses\":1"), "{r}");
    assert!(r.contains("\"cache_len\":1"), "{r}");
    assert!(r.contains("serve.request.realize"), "{r}");
    assert!(r.contains("serve.malformed"), "{r}");
    assert!(r.contains("\"in_flight\":1"), "{r}");
}

#[test]
fn malformed_requests_get_error_frames_without_panic() {
    let s = service();
    for bad in [
        "",
        "{",
        "null",
        "42",
        r#"{"id":1}"#,
        r#"{"id":1,"kind":"warp"}"#,
        r#"{"id":1,"kind":"realize"}"#,
        r#"{"id":1,"kind":"realize","family":"nope:3"}"#,
        r#"{"id":1,"kind":"realize","family":"hypercube:3","layers":1}"#,
        r#"{"id":1,"kind":"realize","family":"hypercube:3","layers":99999}"#,
        r#"{"id":1,"kind":"realize","family":"hypercube:3","pdk":"nope"}"#,
        r#"{"id":1,"kind":"sweep-shard"}"#,
        r#"{"id":1,"kind":"sweep-shard","seed":1,"cases":0}"#,
        r#"{"id":1,"kind":"sweep-shard","seed":1,"cases":100000}"#,
        "\u{7f}\u{1}",
    ] {
        let r = s.handle_line(bad);
        assert!(r.contains("\"ok\":false"), "{bad:?} -> {r}");
        assert!(r.ends_with('}'), "{bad:?} -> {r}");
    }
    assert_eq!(s.in_flight(), 0);
}

#[test]
fn out_of_domain_families_get_typed_errors_with_their_ids() {
    // degenerate and oversized parameters are rejected before anything
    // is built (hypercube:64 would overflow u32 node ids), and the error
    // frame keeps the request's id
    let s = service();
    for (id, family, error) in [
        (7, "hypercube:64", "'hypercube:64': need 1 <= n <= 30"),
        (
            8,
            "karyn:4,20",
            "'karyn:4,20': more than 4294967295 nodes, the u32 node id range",
        ),
        (9, "star:1", "'star:1': need 2 <= n <= 9"),
    ] {
        let r = s.handle_line(&format!(
            r#"{{"id":{id},"kind":"realize","family":"{family}"}}"#
        ));
        assert_eq!(r, format!(r#"{{"id":{id},"ok":false,"error":"{error}"}}"#));
    }
    assert_eq!(s.in_flight(), 0);
}

#[test]
fn a_stack_without_an_hv_pair_gets_a_typed_error() {
    // two H layers: no slab can route y-runs
    let allh =
        r#""pdk_text":"mlvpdk 1\npdk allh\nlayer m1 H pitch=1 via=1\nlayer m2 H pitch=1 via=1\n""#;
    let s = service();
    for (id, kind) in [(1, "realize"), (2, "check"), (3, "metrics"), (4, "profile")] {
        let r = s.handle_line(&format!(
            r#"{{"id":{id},"kind":"{kind}","family":"hypercube:4","layers":4,{allh}}}"#
        ));
        assert_eq!(
            r,
            format!(
                r#"{{"id":{id},"ok":false,"error":"stack allh leaves a slab without an H/V layer pair (L=4, L_A=1)"}}"#
            )
        );
    }
    let r = s.handle_line(&format!(
        r#"{{"id":5,"kind":"sweep-shard","seed":2000,"cases":1,{allh}}}"#
    ));
    assert!(r.starts_with(r#"{"id":5,"ok":false,"error":""#), "{r}");
    assert!(r.contains("without an H/V layer pair"), "{r}");
    // nothing was realized, and the service still answers
    assert_eq!(s.cache_len(), 0);
    assert_ok(
        &s.handle_line(r#"{"id":6,"kind":"realize","family":"hypercube:4","layers":4}"#),
        6,
    );
    assert_eq!(s.in_flight(), 0);
}

#[test]
fn responses_byte_identical_across_thread_counts() {
    let requests = [
        r#"{"id":1,"kind":"realize","family":"hypercube:4","layers":4}"#,
        r#"{"id":2,"kind":"check","family":"mesh:4,4","layers":3}"#,
        r#"{"id":3,"kind":"metrics","family":"hypercube:3","layers":4,"pdk":"hv6"}"#,
        r#"{"id":4,"kind":"sweep-shard","seed":2000,"cases":2,"shard":1,"shards":2}"#,
        r#"{"id":5,"kind":"profile","family":"hypercube:4","layers":4}"#,
        r#"{"id":6,"kind":"stats"}"#,
    ];
    let transcript = |threads: usize| {
        exec::with_thread_count(threads, || {
            let s = service();
            requests
                .iter()
                .map(|r| s.handle_line(r))
                .collect::<Vec<_>>()
        })
    };
    let seq = transcript(1);
    let par = transcript(8);
    for (a, b) in seq.iter().zip(&par) {
        assert_eq!(a, b, "serve responses must not depend on MLV_THREADS");
    }
}
