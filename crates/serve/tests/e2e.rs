//! End-to-end suite: a real `btrd` server on an ephemeral port, driven over
//! real sockets through the shared client. Covers the success paths (both
//! wire codecs), content-addressed cache replay, every typed failure class,
//! the memory budgets, admission control and request timeouts.

use btr_core::class::BinningScheme;
use btr_serve::analysis::{self, BodyFormat, Budgets};
use btr_serve::client::{parse_response, send, ClientRequest, ClientResponse};
use btr_serve::digest::DigestReader;
use btr_serve::metrics::MetricsSnapshot;
use btr_serve::{Server, ServerConfig, ServerHandle};
use btr_sim::engine::{BatchLane, SimEngine};
use btr_trace::io::binary;
use btr_trace::{BranchAddr, BranchRecord, Outcome, Trace, TraceMetadata};
use btr_wire::{Value, Wire};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use stealpool::WorkStealingPool;

const TIMEOUT: Duration = Duration::from_secs(10);

/// Spawns a server with the given config tweaks, answering its address.
fn spawn(tweak: impl FnOnce(&mut ServerConfig)) -> (String, ServerHandle) {
    let mut config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    };
    tweak(&mut config);
    let (handle, _join) = Server::spawn(config).expect("ephemeral server must spawn");
    (handle.addr().to_string(), handle)
}

/// A deterministic trace with a controllable static-branch population.
fn trace(records: usize, sites: u64) -> Trace {
    let mut out = Vec::with_capacity(records);
    for i in 0..records {
        let site = i as u64 % sites;
        let addr = BranchAddr::new(0x1000 + site * 4);
        let taken = (i / (1 + site as usize % 3)).is_multiple_of(2);
        out.push(BranchRecord::conditional(addr, Outcome::from_bool(taken)));
    }
    Trace::from_records(
        TraceMetadata::named("e2e")
            .with_input_set("suite")
            .with_seed(42),
        out,
    )
}

fn btrt(records: usize, sites: u64) -> Vec<u8> {
    let mut bytes = Vec::new();
    binary::write_trace(&mut bytes, &trace(records, sites)).expect("in-memory encode");
    bytes
}

fn post(addr: &str, target: &str, body: Vec<u8>) -> ClientResponse {
    send(addr, &ClientRequest::post(target, body), TIMEOUT).expect("request must complete")
}

fn get(addr: &str, target: &str) -> ClientResponse {
    send(addr, &ClientRequest::get(target), TIMEOUT).expect("request must complete")
}

fn json(resp: &ClientResponse) -> Value {
    Value::from_json(&resp.text()).expect("JSON body must parse")
}

fn error_code(resp: &ClientResponse) -> String {
    json(resp)
        .get("error")
        .and_then(Value::as_str)
        .expect("error documents carry a code")
        .to_string()
}

#[test]
fn classify_streams_btrt_and_answers_the_full_document() {
    let (addr, _handle) = spawn(|_| {});
    let resp = post(&addr, "/classify", btrt(5_000, 97));
    assert_eq!(resp.status, 200, "body: {}", resp.text());
    assert_eq!(resp.header("x-btr-cache"), Some("store"));
    assert!(resp.header("x-btr-digest").is_some());
    let doc = json(&resp);
    assert_eq!(
        doc.get("records").and_then(Value::as_u64).expect("records"),
        5_000
    );
    assert_eq!(
        doc.get("static_branches")
            .and_then(Value::as_u64)
            .expect("static_branches"),
        97
    );
    for field in [
        "metadata",
        "scheme",
        "taken_distribution",
        "transition_distribution",
        "joint",
        "analysis",
        "advisor",
    ] {
        assert!(doc.get(field).is_ok(), "classify document missing {field}");
    }
    let advisor = doc
        .get("advisor")
        .and_then(Value::as_list)
        .expect("advisor renders a list");
    assert!(!advisor.is_empty(), "a 97-site trace must yield advice");
}

#[test]
fn classify_accepts_text_traces_and_scheme_overrides() {
    let (addr, _handle) = spawn(|_| {});
    let text = "# e2e text\nC 1000 T\nC 1004 N\nC 1000 N\nC 1004 T\n".repeat(50);
    let resp = send(
        &addr,
        &ClientRequest::post("/classify?scheme=chang6", text.into_bytes())
            .with_header("Content-Type", "text/plain"),
        TIMEOUT,
    )
    .expect("request must complete");
    assert_eq!(resp.status, 200, "body: {}", resp.text());
    let doc = json(&resp);
    assert_eq!(
        doc.get("scheme").and_then(Value::as_str).expect("scheme"),
        "chang-6"
    );
}

#[test]
fn sweep_answers_the_history_curve_in_json_and_btrw() {
    let (addr, _handle) = spawn(|_| {});
    let body = btrt(4_000, 53);
    let resp = post(
        &addr,
        "/sweep?family=pas&histories=0,2,4&metric=taken",
        body.clone(),
    );
    assert_eq!(resp.status, 200, "body: {}", resp.text());
    let doc = json(&resp);
    assert_eq!(
        doc.get("family").and_then(Value::as_str).expect("family"),
        "PAs"
    );
    assert_eq!(
        doc.get("histories")
            .and_then(Value::as_u64_seq)
            .expect("histories"),
        vec![0, 2, 4]
    );
    assert!(doc.get("sweep").is_ok());
    assert!(doc.get("class_history").is_ok());

    // The same request negotiated to BTRW must carry the same document.
    let wire = send(
        &addr,
        &ClientRequest::post("/sweep?family=pas&histories=0,2,4&metric=taken", body)
            .with_header("Accept", "application/x-btrw"),
        TIMEOUT,
    )
    .expect("request must complete");
    assert_eq!(wire.status, 200);
    assert_eq!(wire.header("content-type"), Some("application/x-btrw"));
    let decoded = Value::from_btrw(&wire.body).expect("BTRW body must decode");
    // BTRW keeps packed sequences (`U64s`) that JSON canonicalizes to plain
    // lists, so equality holds at the JSON rendering, not the value tree.
    assert_eq!(
        decoded.to_json().expect("decoded document renders"),
        doc.to_json().expect("json document renders"),
        "JSON and BTRW must encode the same document"
    );
}

#[test]
fn digest_replay_is_served_from_cache_without_an_upload() {
    let (addr, _handle) = spawn(|_| {});
    let first = post(&addr, "/classify", btrt(3_000, 31));
    assert_eq!(first.status, 200);
    let digest = first
        .header("x-btr-digest")
        .expect("analysis responses carry a digest")
        .to_string();

    // Replay by digest, no body: must be a cache hit with the same document.
    let replay = send(
        &addr,
        &ClientRequest::post("/classify", Vec::new()).with_header("X-Btr-Digest", &digest),
        TIMEOUT,
    )
    .expect("request must complete");
    assert_eq!(replay.status, 200);
    assert_eq!(replay.header("x-btr-cache"), Some("hit"));
    assert_eq!(replay.body, first.body, "cache must replay identical bytes");

    // A different digest misses the cache and falls through to the (empty)
    // upload, which then fails as an unprocessable trace — never a hang.
    let miss = send(
        &addr,
        &ClientRequest::post("/classify", Vec::new())
            .with_header("X-Btr-Digest", "0000000000000000"),
        TIMEOUT,
    )
    .expect("request must complete");
    assert_eq!(miss.status, 422);

    // Params are part of the key: same digest, different scheme, no replay.
    let other_params = send(
        &addr,
        &ClientRequest::post("/classify?scheme=uniform8", Vec::new())
            .with_header("X-Btr-Digest", &digest),
        TIMEOUT,
    )
    .expect("request must complete");
    assert_ne!(other_params.header("x-btr-cache"), Some("hit"));
}

#[test]
fn truncated_and_garbage_uploads_surface_typed_422s() {
    let (addr, _handle) = spawn(|_| {});
    let mut cut = btrt(2_000, 19);
    cut.truncate(cut.len() - 5);
    let resp = post(&addr, "/classify", cut);
    assert_eq!(resp.status, 422, "body: {}", resp.text());
    assert_eq!(error_code(&resp), "unprocessable-trace");

    let resp = post(&addr, "/classify", b"BTRT but not really".to_vec());
    assert_eq!(resp.status, 422);
    assert_eq!(error_code(&resp), "unprocessable-trace");

    let resp = post(&addr, "/sweep", Vec::new());
    assert_eq!(resp.status, 422);
}

#[test]
fn bad_parameters_and_unknown_routes_are_4xx_not_500() {
    let (addr, _handle) = spawn(|_| {});
    let body = btrt(500, 7);
    for target in [
        "/sweep?family=zas",
        "/sweep?histories=,,",
        "/sweep?histories=99",
        "/sweep?metric=vibes",
        "/classify?scheme=uniform0",
        "/classify?scheme=uniform999",
    ] {
        let resp = post(&addr, target, body.clone());
        assert_eq!(resp.status, 400, "{target} body: {}", resp.text());
        assert_eq!(error_code(&resp), "bad-request", "{target}");
    }
    let resp = send(
        &addr,
        &ClientRequest::post("/classify", body.clone())
            .with_header("Content-Type", "application/x-tar"),
        TIMEOUT,
    )
    .expect("request must complete");
    assert_eq!(resp.status, 400);

    assert_eq!(get(&addr, "/no-such").status, 404);
    assert_eq!(error_code(&get(&addr, "/no-such")), "not-found");
    assert_eq!(get(&addr, "/classify").status, 405);
    let resp = send(
        &addr,
        &ClientRequest {
            method: "DELETE".into(),
            target: "/metrics".into(),
            headers: Vec::new(),
            body: Vec::new(),
        },
        TIMEOUT,
    )
    .expect("request must complete");
    assert_eq!(resp.status, 405);
}

#[test]
fn malformed_heads_get_a_400_over_the_raw_socket() {
    let (addr, _handle) = spawn(|_| {});
    for raw in [
        "TOTAL JUNK\r\n\r\n",
        "GET /healthz HTTP/9.9\r\n\r\n",
        "get /healthz HTTP/1.1\r\n\r\n",
        "GET relative-path HTTP/1.1\r\n\r\n",
        "GET /healthz HTTP/1.1\r\nno-colon-here\r\n\r\n",
    ] {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream.write_all(raw.as_bytes()).expect("write head");
        let mut bytes = Vec::new();
        stream.read_to_end(&mut bytes).expect("read response");
        let resp = parse_response(&bytes).expect("server answers malformed heads");
        assert_eq!(resp.status, 400, "head {raw:?}");
    }
}

#[test]
fn oversized_and_missing_content_lengths_are_refused_up_front() {
    let (addr, _handle) = spawn(|config| config.max_upload_bytes = 4096);
    // Declared over the limit: refused before any body byte is read.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .write_all(b"POST /classify HTTP/1.1\r\nHost: t\r\nContent-Length: 8192\r\n\r\n")
        .expect("write head");
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).expect("read response");
    let resp = parse_response(&bytes).expect("parseable refusal");
    assert_eq!(resp.status, 413);
    assert_eq!(error_code(&resp), "payload-too-large");

    // No Content-Length at all: a 411, because streaming needs the bound.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .write_all(b"POST /classify HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("write head");
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).expect("read response");
    let resp = parse_response(&bytes).expect("parseable refusal");
    assert_eq!(resp.status, 411);
}

#[test]
fn static_branch_budget_maps_to_a_413_budget_error() {
    let (addr, handle) = spawn(|config| config.max_static_branches = 16);
    // 64 distinct sites against a budget of 16: the stream is cut off
    // mid-flight with a typed budget error on both endpoints (the sweep
    // streamed through the fused engine), and in the in-process sweep
    // reference, which materializes the upload.
    let body = btrt(2_000, 64);
    for target in ["/classify", "/sweep?histories=0,1"] {
        let resp = post(&addr, target, body.clone());
        assert_eq!(resp.status, 413, "{target} body: {}", resp.text());
        assert_eq!(error_code(&resp), "budget-exceeded", "{target}");
    }
    let budgets = Budgets {
        chunk_records: ServerConfig::default().chunk_records,
        max_static_branches: 16,
    };
    let err = analysis::materialize_sweep(body.as_slice(), BodyFormat::Btrt, budgets)
        .expect_err("the reference enforces the same budget");
    assert_eq!(err.status(), 413, "{err}");
    assert_eq!(err.code(), "budget-exceeded");
    // A sweep cut off by its budget is not a completed lane.
    assert_eq!(handle.metrics().batched_lanes, 0);
}

#[test]
fn saturation_is_a_clean_503_with_retry_after() {
    // One admission slot, held by an upload whose body never arrives: once
    // the in-flight gauge shows it admitted, every further analysis is over
    // capacity — the deterministic way to pin the backpressure path.
    let (addr, handle) = spawn(|config| config.max_concurrent = 1);
    let mut holder = TcpStream::connect(&addr).expect("connect");
    holder
        .write_all(b"POST /classify HTTP/1.1\r\nHost: t\r\nContent-Length: 4096\r\n\r\n")
        .expect("write head");
    let deadline = Instant::now() + TIMEOUT;
    while handle.metrics().active_analyses == 0 {
        assert!(
            Instant::now() < deadline,
            "the held upload was never admitted"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let resp = post(&addr, "/classify", btrt(500, 7));
    assert_eq!(resp.status, 503, "body: {}", resp.text());
    assert_eq!(error_code(&resp), "busy");
    assert_eq!(resp.header("retry-after"), Some("1"));
    // Health stays served: admission gates analyses, not the endpoint set.
    assert_eq!(get(&addr, "/healthz").status, 200);
}

#[test]
fn live_connections_past_the_cap_get_a_503_until_they_close() {
    // `max_concurrent = 1` caps live connection threads at 1 * 4 + 4 = 8.
    // Eight idle connections (no request head yet) hold every slot; the
    // accept loop counts each before it accepts the next.
    let (addr, handle) = spawn(|config| config.max_concurrent = 1);
    let idle: Vec<TcpStream> = (0..8)
        .map(|_| TcpStream::connect(&addr).expect("connect"))
        .collect();
    // The ninth sends nothing either, so the server's unconditional 503 is
    // written to a socket with no unread request bytes and arrives intact.
    let mut ninth = TcpStream::connect(&addr).expect("connect");
    ninth.set_read_timeout(Some(TIMEOUT)).expect("read timeout");
    let mut bytes = Vec::new();
    ninth.read_to_end(&mut bytes).expect("read the refusal");
    let resp = parse_response(&bytes).expect("well-formed refusal");
    assert_eq!(resp.status, 503, "body: {}", resp.text());
    assert_eq!(error_code(&resp), "busy");
    assert_eq!(resp.header("retry-after"), Some("1"));
    assert_eq!(handle.metrics().rejected_busy, 1);
    // Closing the idle connections frees their slots: health answers again.
    // Until then a probe may be refused before its request is read, which
    // can reset the connection, so a failed send is just "not yet".
    drop(idle);
    let deadline = Instant::now() + TIMEOUT;
    let healthy =
        || send(&addr, &ClientRequest::get("/healthz"), TIMEOUT).is_ok_and(|r| r.status == 200);
    while !healthy() {
        assert!(
            Instant::now() < deadline,
            "slots were never released after the idle connections closed"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn stalled_connections_time_out_without_wedging_the_server() {
    let (addr, _handle) = spawn(|config| config.request_timeout = Duration::from_millis(200));
    // Open a connection and send nothing: the server must tear it down.
    let mut stalled = TcpStream::connect(&addr).expect("connect");
    let mut bytes = Vec::new();
    stalled
        .read_to_end(&mut bytes)
        .expect("server closes the stalled connection");
    let resp = parse_response(&bytes).expect("timeout answer is well-formed");
    assert_eq!(resp.status, 408);
    // And the server keeps serving.
    assert_eq!(get(&addr, "/healthz").status, 200);
}

#[test]
fn bodies_that_stall_or_end_short_are_refused_and_never_cached() {
    let (addr, _handle) = spawn(|config| config.request_timeout = Duration::from_millis(200));
    // A complete trace plus trailing padding: the decoder finishes without
    // waiting for more bytes, so only the drain of the declared tail can
    // notice that the body never arrived in full.
    let mut sent = btrt(1_000, 11);
    sent.extend_from_slice(&[0u8; 64]);
    let mut digest = DigestReader::new(sent.as_slice());
    std::io::copy(&mut digest, &mut std::io::sink()).expect("in-memory digest");
    let prefix_digest = digest.digest().hex();
    let head = format!(
        "POST /classify HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
        sent.len() + 1_000
    );
    for (ends_short, status) in [(false, 408), (true, 400)] {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream
            .set_read_timeout(Some(TIMEOUT))
            .expect("read timeout");
        stream.write_all(head.as_bytes()).expect("write head");
        stream.write_all(&sent).expect("write partial body");
        if ends_short {
            stream
                .shutdown(std::net::Shutdown::Write)
                .expect("half-close ends the body early");
        }
        // Otherwise the socket stays open with the declared tail unsent.
        let mut bytes = Vec::new();
        stream.read_to_end(&mut bytes).expect("read response");
        let resp = parse_response(&bytes).expect("well-formed refusal");
        assert_eq!(
            resp.status,
            status,
            "ends_short={ends_short}: {}",
            resp.text()
        );
        assert_eq!(resp.header("x-btr-digest"), None);
    }
    // Nothing was cached under the digest of the prefix that did arrive.
    let replay = send(
        &addr,
        &ClientRequest::post("/classify", Vec::new()).with_header("X-Btr-Digest", &prefix_digest),
        TIMEOUT,
    )
    .expect("request must complete");
    assert_ne!(replay.header("x-btr-cache"), Some("hit"));
    assert_ne!(replay.status, 200);
}

#[test]
fn concurrent_uploads_all_complete_within_the_admission_bound() {
    // Six sweeps with different history sets for each of two distinct
    // uploads, all in flight at once: every one is its own analysis (no
    // digest is presented, so nothing single-flights) and its own streamed
    // fused sweep, counted as one lane.
    let (addr, handle) = spawn(|config| {
        config.max_concurrent = 12;
        config.analysis_threads = 2;
    });
    let uploads = [btrt(10_000, 101), btrt(7_000, 53)];
    let requests: Vec<(String, &Vec<u8>)> = uploads
        .iter()
        .flat_map(|body| (0..6).map(move |i| (format!("/sweep?histories=0,{}", 1 + i), body)))
        .collect();
    let replies: Vec<ClientResponse> = std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .iter()
            .map(|(target, body)| {
                let addr = addr.as_str();
                scope.spawn(move || {
                    send(addr, &ClientRequest::post(target, body.to_vec()), TIMEOUT)
                        .expect("concurrent request must complete")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no worker panics"))
            .collect()
    });
    let statuses: Vec<u16> = replies.iter().map(|reply| reply.status).collect();
    assert!(
        statuses.iter().all(|&s| s == 200),
        "all within the bound must succeed: {statuses:?}"
    );
    assert_eq!(handle.metrics().batched_lanes, requests.len() as u64);

    // Each reply must be byte-identical to the same request sent alone.
    let (alone_addr, _alone_handle) = spawn(|config| config.cache_entries = 0);
    for ((target, body), reply) in requests.iter().zip(&replies) {
        let alone = post(&alone_addr, target, body.to_vec());
        assert_eq!(alone.status, 200);
        assert_eq!(
            reply.body, alone.body,
            "{target}: a concurrent reply differs from the same request sent alone"
        );
    }
}

#[test]
fn concurrent_identical_digests_coalesce_onto_one_analysis() {
    let (addr, handle) = spawn(|config| {
        config.max_concurrent = 8;
    });
    // Prime with different params so the digest is known but the target
    // (digest × params) cache key is still cold.
    let body = btrt(120_000, 211);
    let primed = post(&addr, "/classify?scheme=chang6", body.clone());
    assert_eq!(primed.status, 200);
    let digest = primed
        .header("x-btr-digest")
        .expect("analysis responses carry a digest")
        .to_string();

    // Leader: the real upload, presenting its digest so the computation is
    // registered in flight. Only its head goes out now; the body is held
    // back until the followers are released, so the leader cannot finish
    // before the rendezvous below observes it.
    let mut leader = TcpStream::connect(&addr).expect("connect");
    leader
        .set_read_timeout(Some(TIMEOUT))
        .expect("read timeout");
    let head = format!(
        "POST /classify HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nX-Btr-Digest: {digest}\r\n\r\n",
        body.len()
    );
    leader.write_all(head.as_bytes()).expect("write head");
    // Deterministic rendezvous: wait until the leader's analysis is
    // actually in flight before releasing the followers.
    let t0 = std::time::Instant::now();
    while handle.metrics().active_analyses == 0 {
        assert!(
            t0.elapsed() < TIMEOUT,
            "leader never entered the admission gate"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let followers: Vec<ClientResponse> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let addr = addr.as_str();
                let digest = digest.as_str();
                scope.spawn(move || {
                    send(
                        addr,
                        &ClientRequest::post("/classify", Vec::new())
                            .with_header("X-Btr-Digest", digest),
                        TIMEOUT,
                    )
                    .expect("follower request must complete")
                })
            })
            .collect();
        // Followers wait on the leader's flight (or, arriving after it
        // lands, hit its cache fill): release the leader's body.
        leader.write_all(&body).expect("write leader body");
        handles
            .into_iter()
            .map(|h| h.join().expect("no follower panics"))
            .collect()
    });
    let mut bytes = Vec::new();
    leader
        .read_to_end(&mut bytes)
        .expect("read leader response");
    let leader = parse_response(&bytes).expect("leader response is well-formed");
    assert_eq!(leader.status, 200);
    for follower in &followers {
        assert_eq!(follower.status, 200);
        assert_eq!(
            follower.body, leader.body,
            "coalesced followers must serve the leader's exact bytes"
        );
        assert!(
            matches!(follower.header("x-btr-cache"), Some("coalesced" | "hit")),
            "followers never recompute: {:?}",
            follower.header("x-btr-cache")
        );
    }
    let snapshot = handle.metrics();
    // Exactly two analyses ran — the priming upload and the leader — no
    // matter how many followers raced the leader.
    assert_eq!(snapshot.cache_misses, 2);
    assert_eq!(snapshot.records_decoded, 2 * 120_000);
    assert!(
        snapshot.coalesced_hits + snapshot.cache_hits >= 4,
        "every follower was served without an analysis: {snapshot:?}"
    );
}

#[test]
fn batched_and_streaming_sweeps_answer_identical_documents() {
    // Same upload, same params: the server's streamed reply against the
    // in-process batch reference (materialize, one `run_batch` lane, sweep
    // document, JSON). The response bytes must be identical — the engine's
    // tier plan is invisible in the documents.
    let (addr, handle) = spawn(|_| {});
    let body = btrt(8_000, 67);
    let target = "/sweep?family=gas&histories=0,3,7&metric=transition";
    let from_streaming = post(&addr, target, body.clone());
    assert_eq!(
        from_streaming.status,
        200,
        "body: {}",
        from_streaming.text()
    );

    let family = analysis::parse_family(Some("gas")).expect("family");
    let histories = analysis::parse_histories(Some("0,3,7"), family).expect("histories");
    let metric = analysis::parse_metric(Some("transition")).expect("metric");
    let config = ServerConfig::default();
    let budgets = Budgets {
        chunk_records: config.chunk_records,
        max_static_branches: config.max_static_branches,
    };
    let materialized = analysis::materialize_sweep(body.as_slice(), BodyFormat::Btrt, budgets)
        .expect("valid upload");
    let results = SimEngine::new()
        .run_batch(
            &[materialized.interned.as_ref()],
            vec![BatchLane::new(0, family.fused_paper(&histories))],
        )
        .into_iter()
        .flatten()
        .collect();
    let pool = WorkStealingPool::new(config.analysis_threads);
    let from_batched = analysis::sweep_document(
        &materialized,
        family,
        &histories,
        results,
        metric,
        BinningScheme::Paper11,
        &pool,
    );
    let from_batched = from_batched.value.to_json().expect("finite document");
    assert_eq!(
        from_batched.as_bytes(),
        from_streaming.body.as_slice(),
        "batch admission must not change a single response byte"
    );
    let mut digest = DigestReader::new(body.as_slice());
    std::io::copy(&mut digest, &mut std::io::sink()).expect("in-memory digest");
    assert_eq!(
        Some(digest.digest().hex().as_str()),
        from_streaming.header("x-btr-digest"),
    );
    assert_eq!(handle.metrics().batched_lanes, 1);
}

#[test]
fn metrics_snapshot_roundtrips_and_counts_the_traffic() {
    let (addr, handle) = spawn(|_| {});
    let resp = post(&addr, "/classify", btrt(1_000, 13));
    assert_eq!(resp.status, 200);
    let digest = resp.header("x-btr-digest").expect("digest").to_string();
    let replay = send(
        &addr,
        &ClientRequest::post("/classify", Vec::new()).with_header("X-Btr-Digest", &digest),
        TIMEOUT,
    )
    .expect("request must complete");
    assert_eq!(replay.header("x-btr-cache"), Some("hit"));
    assert_eq!(post(&addr, "/classify", b"junk".to_vec()).status, 422);

    // The wire type decodes from the endpoint itself…
    let body = get(&addr, "/metrics");
    assert_eq!(body.status, 200);
    let snapshot = MetricsSnapshot::from_json(&body.text()).expect("metrics decode");
    assert!(snapshot.requests >= 4);
    assert_eq!(snapshot.cache_hits, 1);
    assert_eq!(snapshot.cache_misses, 1);
    assert!(snapshot.responses_2xx >= 2);
    assert!(snapshot.responses_4xx >= 1);
    assert!(snapshot.bytes_streamed > 0);
    assert_eq!(snapshot.records_decoded, 1_000);
    assert_eq!(snapshot.active_analyses, 0);

    // …and through BTRW, matching the in-process handle's view.
    let wire = send(
        &addr,
        &ClientRequest::get("/metrics").with_header("Accept", "application/x-btrw"),
        TIMEOUT,
    )
    .expect("request must complete");
    let decoded = MetricsSnapshot::from_btrw(&wire.body).expect("BTRW metrics decode");
    assert_eq!(decoded.cache_hits, 1);
    assert_eq!(handle.metrics().cache_hits, 1);
}

#[test]
fn shutdown_stops_the_accept_loop() {
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    };
    let (handle, join) = Server::spawn(config).expect("ephemeral server must spawn");
    let addr = handle.addr().to_string();
    assert_eq!(get(&addr, "/healthz").status, 200);
    handle.shutdown();
    join.join()
        .expect("accept thread joins")
        .expect("accept loop exits cleanly");
}
