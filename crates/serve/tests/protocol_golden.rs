//! Golden-fixture coverage for the wire protocol.
//!
//! The encoded forms below are the protocol's compatibility surface: a
//! client written against these exact bytes must keep working, so any
//! diff here is a wire-format break and should be treated as one.

use kaleidoscope_serve::{
    decode_request, decode_response, encode_request, encode_response, CacheDisposition, Request,
    Response,
};

#[test]
fn golden_minimal_request() {
    let req = Request::inline("r1", "module \"m\" {\n}\n");
    assert_eq!(
        encode_request(&req),
        r#"{"id":"r1","tenant":"default","module":"module \"m\" {\n}\n"}"#
    );
}

#[test]
fn golden_full_request() {
    let req = Request {
        id: "req-42".into(),
        tenant: "acme".into(),
        op: None,
        module: None,
        fingerprint: Some(0x00ab_cdef_0123_4567),
        prev_fingerprint: Some(0x00ab_cdef_0123_0000),
        config: Some("kd-ctx-pa".into()),
        stats: true,
        budget: Some(1000),
        fault: Some("kill".into()),
    };
    assert_eq!(
        encode_request(&req),
        r#"{"id":"req-42","tenant":"acme","fingerprint":"00abcdef01234567","prev_fingerprint":"00abcdef01230000","config":"kd-ctx-pa","stats":true,"budget":1000,"fault":"kill"}"#
    );
}

#[test]
fn retired_solver_threads_field_is_rejected() {
    // The field selected a since-removed solver schedule. A client still
    // sending it must hear so, never have it silently dropped.
    for line in [
        r#"{"id":"x","module":"m","solver_threads":4}"#,
        r#"{"id":"x","module":"m","solver_threads":0}"#,
    ] {
        let e = decode_request(line).expect_err(line);
        assert!(e.0.contains("unknown field `solver_threads`"), "{}", e.0);
    }
}

#[test]
fn golden_incremental_request_and_absence_compatibility() {
    // A watch-mode client naming its previous revision.
    let mut req = Request::inline("w1", "module \"m\" {\n}\n");
    req.prev_fingerprint = Some(0xFEED);
    assert_eq!(
        encode_request(&req),
        r#"{"id":"w1","tenant":"default","module":"module \"m\" {\n}\n","prev_fingerprint":"000000000000feed"}"#
    );
    // Pre-incremental clients never send the field; their frames must
    // keep decoding unchanged (the daemon's per-tenant lookup fills in).
    let old = decode_request(r#"{"id":"r1","tenant":"default","module":"m"}"#).unwrap();
    assert_eq!(old.prev_fingerprint, None);
}

#[test]
fn golden_ok_response() {
    let resp = Response::Ok {
        id: "r1".into(),
        report: "config line\n\tdetail\n".into(),
        tier: "steensgaard".into(),
        cache: CacheDisposition::Miss,
        fingerprint: 0xfeed,
        degraded: 8,
        parse_ms: None,
        gen_ms: None,
        fe_cache_hits: None,
    };
    assert_eq!(
        encode_response(&resp),
        r#"{"id":"r1","status":"ok","tier":"steensgaard","cache":"miss","fingerprint":"000000000000feed","degraded":8,"report":"config line\n\tdetail\n"}"#
    );
}

#[test]
fn golden_ok_response_with_frontend_counters() {
    // The frontend counters are additive and optional: absent fields keep
    // the pre-counter golden above byte-identical, present fields slot in
    // between `degraded` and `report`.
    let resp = Response::Ok {
        id: "r2".into(),
        report: "x\n".into(),
        tier: "full".into(),
        cache: CacheDisposition::Stored,
        fingerprint: 0xfeed,
        degraded: 0,
        parse_ms: Some(41),
        gen_ms: Some(7),
        fe_cache_hits: Some(1180),
    };
    assert_eq!(
        encode_response(&resp),
        r#"{"id":"r2","status":"ok","tier":"full","cache":"stored","fingerprint":"000000000000feed","degraded":0,"parse_ms":41,"gen_ms":7,"fe_cache_hits":1180,"report":"x\n"}"#
    );
    assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
}

#[test]
fn golden_error_response() {
    let resp = Response::Error {
        id: "?".into(),
        error: "malformed message: expected `{`".into(),
    };
    assert_eq!(
        encode_response(&resp),
        r#"{"id":"?","status":"error","error":"malformed message: expected `{`"}"#
    );
}

#[test]
fn golden_health_request() {
    assert_eq!(
        encode_request(&Request::health("h1")),
        r#"{"id":"h1","tenant":"default","op":"health"}"#
    );
}

#[test]
fn golden_draining_response() {
    let resp = Response::Draining { id: "r9".into() };
    assert_eq!(encode_response(&resp), r#"{"id":"r9","status":"draining"}"#);
}

#[test]
fn golden_health_response() {
    let resp = Response::Health {
        id: "h1".into(),
        report: kaleidoscope_serve::HealthReport {
            state: "accepting".into(),
            in_flight: 2,
            admitted: 40,
            shed: 3,
            draining_rejected: 0,
            breaker_short_circuits: 5,
            breakers_open: 1,
            tenants: "acme=2/2 open=1".into(),
            cache_tmp_swept: 1,
            cache_quarantined: 0,
        },
    };
    assert_eq!(
        encode_response(&resp),
        r#"{"id":"h1","status":"health","state":"accepting","in_flight":2,"admitted":40,"shed":3,"draining_rejected":0,"breaker_short_circuits":5,"breakers_open":1,"tenants":"acme=2/2 open=1","cache_tmp_swept":1,"cache_quarantined":0}"#
    );
}

#[test]
fn goldens_decode_back_to_the_same_values() {
    // The encoder goldens above must stay parseable by our own decoder.
    let req = decode_request(
        r#"{"id":"req-42","tenant":"acme","fingerprint":"00abcdef01234567","config":"kd-ctx-pa","stats":true,"budget":1000,"fault":"kill"}"#,
    )
    .expect("golden request decodes");
    assert_eq!(req.fingerprint, Some(0x00ab_cdef_0123_4567));
    assert_eq!(req.budget, Some(1000));
    let resp = decode_response(
        r#"{"id":"r1","status":"ok","tier":"full","cache":"hit","fingerprint":"000000000000feed","degraded":0,"report":"x\n"}"#,
    )
    .expect("golden response decodes");
    assert_eq!(resp.id(), "r1");
}

#[test]
fn field_order_is_not_significant_on_decode() {
    // Foreign clients may emit fields in any order.
    let req =
        decode_request(r#"{"module":"module \"m\" {\n}\n","tenant":"t","id":"x","stats":false}"#)
            .expect("reordered fields decode");
    assert_eq!(req.id, "x");
    assert_eq!(req.tenant, "t");
}

#[test]
fn malformed_lines_are_rejected_not_crashed() {
    for line in [
        "",
        "   ",
        "null",
        "[1,2,3]",
        "{",
        "{}",
        r#"{"id":"x"}"#,
        r#"{"id":"x","module":"m","module":"m2","fingerprint":"1"}"#,
        r#"{"id":"x","module":"m","extra":{"nested":true}}"#,
        r#"{"id":12,"module":"m"}"#,
        "\u{0}\u{1}\u{2}",
        r#"{"id":"x","module":"\q"}"#,
    ] {
        assert!(decode_request(line).is_err(), "accepted: {line:?}");
    }
}
