//! Integration tests for the serve runtime: batching fan-out, cache
//! identity, deadlines, backpressure, drain, and the TCP transport.
//!
//! Most tests drive `handle_line` directly with an in-memory sink — the
//! transport loops are thin wrappers around it — and one test runs the
//! real TCP path end to end.

use domatic_graph::Graph;
use domatic_server::server::ResponseSink;
use domatic_server::{Client, Server, ServerConfig};
use domatic_telemetry::json;
use std::io::Write;
use std::net::TcpListener;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The CI smoke topology: a ring with skip-3 chords, solvable at b ≥ 1.
fn ring_graph(n: u32) -> Graph {
    let edges: Vec<(u32, u32)> = (0..n)
        .flat_map(|i| [(i, (i + 1) % n), (i, (i + 3) % n)])
        .collect();
    Graph::from_edges(n as usize, &edges)
}

fn make_server(cfg: ServerConfig) -> Arc<Server> {
    let server = Server::new(cfg);
    server.add_graph("ring", ring_graph(24));
    server.add_graph("ring2", ring_graph(30));
    Arc::new(server)
}

fn sink() -> (Arc<Mutex<Vec<u8>>>, ResponseSink) {
    let buf = Arc::new(Mutex::new(Vec::new()));
    let dyn_sink: ResponseSink = buf.clone();
    (buf, dyn_sink)
}

fn lines(buf: &Arc<Mutex<Vec<u8>>>) -> Vec<String> {
    let bytes = buf.lock().unwrap();
    String::from_utf8(bytes.clone())
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect()
}

/// Polls until `n` response lines have arrived (jobs are asynchronous).
fn wait_lines(buf: &Arc<Mutex<Vec<u8>>>, n: usize) -> Vec<String> {
    let start = Instant::now();
    loop {
        let have = lines(buf);
        if have.len() >= n {
            return have;
        }
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "timed out at {} of {n} responses: {have:?}",
            have.len()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The rendered `result` payload of a response line (panics on errors).
fn result_of(line: &str) -> String {
    let prefix = line
        .find("\"result\":")
        .unwrap_or_else(|| panic!("not an ok response: {line}"));
    line[prefix + "\"result\":".len()..line.len() - 1].to_string()
}

fn id_of(line: &str) -> u64 {
    let v = json::parse(line).unwrap();
    u64::try_from(v.get("id").unwrap().as_int().unwrap()).unwrap()
}

fn error_kind(line: &str) -> String {
    let v = json::parse(line).unwrap();
    assert_eq!(v.get("ok"), Some(&json::Json::Bool(false)), "{line}");
    v.get("error")
        .and_then(|e| e.get("kind"))
        .and_then(|k| k.as_str())
        .unwrap()
        .to_string()
}

#[test]
fn batched_duplicates_run_exactly_one_solve_and_fan_out_identically() {
    // Each duplicate either joins the open batch or hits the cache the
    // batch fills before it closes, whatever the thread interleaving: one
    // solve, and the same bytes for every waiter and every hit.
    const N: usize = 8;
    let server = make_server(ServerConfig {
        capacity: 8,
        cache_bytes: 1 << 20,
        ..ServerConfig::default()
    });
    let (buf, sink) = sink();
    for id in 1..=N {
        let line = format!(
            "{{\"id\":{id},\"op\":\"solve\",\"graph\":\"ring\",\"alg\":\"general\",\"b\":4,\"seed\":3}}"
        );
        assert!(!server.handle_line(&line, &sink));
    }
    let responses = wait_lines(&buf, N);
    let mut ids: Vec<u64> = responses.iter().map(|l| id_of(l)).collect();
    ids.sort_unstable();
    assert_eq!(ids, (1..=N as u64).collect::<Vec<_>>());
    let payloads: Vec<String> = responses.iter().map(|l| result_of(l)).collect();
    for p in &payloads[1..] {
        assert_eq!(*p, payloads[0], "fan-out must be byte-identical");
    }
    let stats = server.stats();
    assert_eq!(
        stats["solves"], 1,
        "{N} identical requests, 1 underlying solve"
    );
    assert_eq!(
        stats["batch_joined"] + stats["cache_hits"] + stats["cache_misses"],
        N as u64,
        "every request is exactly one of join, hit or miss: {stats:?}"
    );
}

#[test]
fn a_duplicate_arriving_mid_solve_joins_it_instead_of_solving_again() {
    // A solve long enough that the duplicate, sent 20 ms later, lands
    // while it runs. The batch stays open until the result is cached, so
    // the duplicate joins it (or, if the solve already finished, hits
    // the cache): never a second solve.
    let server = Server::new(ServerConfig {
        capacity: 8,
        cache_bytes: 1 << 20,
        ..ServerConfig::default()
    });
    server.add_graph(
        "big",
        domatic_graph::generators::gnp::gnp_with_avg_degree(2000, 12.0, 1),
    );
    let server = Arc::new(server);
    let (buf, sink) = sink();
    let line = |id: u64| {
        format!(
            "{{\"id\":{id},\"op\":\"solve\",\"graph\":\"big\",\"solver\":\"portfolio\",\"b\":2}}"
        )
    };
    server.handle_line(&line(1), &sink);
    std::thread::sleep(Duration::from_millis(20));
    server.handle_line(&line(2), &sink);
    let responses = wait_lines(&buf, 2);
    assert_eq!(result_of(&responses[0]), result_of(&responses[1]));
    let stats = server.stats();
    assert_eq!(stats["solves"], 1, "the duplicate re-solved: {stats:?}");
    assert_eq!(stats["batch_joined"] + stats["cache_hits"], 1, "{stats:?}");
}

#[test]
fn cached_response_is_byte_identical_to_the_uncached_one() {
    let server = make_server(ServerConfig {
        capacity: 8,
        cache_bytes: 1 << 20,
        ..ServerConfig::default()
    });
    let (buf, sink) = sink();
    let line = r#"{"id":9,"op":"solve","graph":"ring","alg":"uniform","b":2,"seed":5,"trials":4}"#;
    server.handle_line(line, &sink);
    let first = wait_lines(&buf, 1)[0].clone();
    server.handle_line(line, &sink);
    let both = wait_lines(&buf, 2);
    assert_eq!(both[1], first, "cache hit must replay the exact bytes");
    let stats = server.stats();
    assert_eq!(stats["solves"], 1);
    assert_eq!(stats["cache_hits"], 1);
}

#[test]
fn expired_deadline_gets_a_typed_error_and_the_server_keeps_serving() {
    let server = make_server(ServerConfig {
        capacity: 8,
        cache_bytes: 1 << 20,
        ..ServerConfig::default()
    });
    let (buf, sink) = sink();
    // deadline_ms 0 expires the moment the job is dequeued.
    server.handle_line(
        r#"{"id":1,"op":"solve","graph":"ring","b":3,"deadline_ms":0}"#,
        &sink,
    );
    let first = wait_lines(&buf, 1);
    assert_eq!(error_kind(&first[0]), "deadline");

    // The expired request skipped its solve entirely…
    assert_eq!(server.stats()["solves"], 0);
    assert_eq!(server.stats()["deadline_expired"], 1);

    // …and the server still serves the next request normally.
    server.handle_line(r#"{"id":2,"op":"solve","graph":"ring","b":3}"#, &sink);
    let both = wait_lines(&buf, 2);
    assert!(both[1].contains("\"ok\":true"), "{}", both[1]);
}

#[test]
fn admission_beyond_capacity_is_a_typed_overloaded_error() {
    let server = make_server(ServerConfig {
        capacity: 1,
        cache_bytes: 1 << 20,
        ..ServerConfig::default()
    });
    let (leader_buf, leader_sink) = sink();
    let (buf, sink) = sink();
    // A job releases its in-flight slot only after fanning out, so
    // holding the first request's sink holds the single slot.
    let held = leader_buf.lock().unwrap();
    server.handle_line(
        r#"{"id":1,"op":"solve","graph":"ring","b":3}"#,
        &leader_sink,
    );
    // A different key cannot be admitted and is rejected synchronously.
    server.handle_line(
        r#"{"id":2,"op":"solve","graph":"ring","b":3,"seed":77}"#,
        &sink,
    );
    let rejected = lines(&buf);
    assert_eq!(rejected.len(), 1, "{rejected:?}");
    assert_eq!(id_of(&rejected[0]), 2);
    assert_eq!(error_kind(&rejected[0]), "overloaded");
    // An identical key is never rejected: it joins the batch, or hits
    // the cache once the solve is in.
    server.handle_line(r#"{"id":3,"op":"solve","graph":"ring","b":3}"#, &sink);
    assert_eq!(server.stats()["inflight"], 1);
    drop(held);

    let joined = wait_lines(&buf, 2);
    let leader = wait_lines(&leader_buf, 1);
    assert_eq!(id_of(&joined[1]), 3);
    assert_eq!(result_of(&joined[1]), result_of(&leader[0]));
    let stats = server.stats();
    assert_eq!(stats["overloads"], 1);
    assert_eq!(stats["shed_miss"], 1);
    assert_eq!(stats["batch_joined"] + stats["cache_hits"], 1, "{stats:?}");
    assert_eq!(stats["solves"], 1);
}

#[test]
fn bounds_and_adapt_ops_serve_and_cache() {
    let server = make_server(ServerConfig {
        capacity: 8,
        cache_bytes: 1 << 20,
        ..ServerConfig::default()
    });
    let (buf, sink) = sink();
    let bounds = r#"{"id":1,"op":"bounds","graph":"ring","b":3}"#;
    server.handle_line(bounds, &sink);
    // Wait for the first result to land in the cache before duplicating,
    // so the duplicate is a guaranteed hit (not a batch join).
    wait_lines(&buf, 1);
    server.handle_line(bounds, &sink);
    let adapt = r#"{"id":2,"op":"adapt","graph":"ring","alg":"greedy","b":3,"failures":"crash","p":0.05,"slots":200}"#;
    server.handle_line(adapt, &sink);
    let responses = wait_lines(&buf, 3);
    for line in &responses {
        assert!(line.contains("\"ok\":true"), "{line}");
    }
    let bounds_payload = responses
        .iter()
        .find(|l| id_of(l) == 1)
        .map(|l| result_of(l))
        .unwrap();
    let v = json::parse(&bounds_payload).unwrap();
    assert!(v.get("general").unwrap().as_int().unwrap() > 0);
    let adapt_payload = responses
        .iter()
        .find(|l| id_of(l) == 2)
        .map(|l| result_of(l))
        .unwrap();
    let v = json::parse(&adapt_payload).unwrap();
    assert!(v.get("planned").unwrap().as_int().unwrap() > 0);
    assert!(
        server.stats()["cache_hits"] >= 1,
        "duplicate bounds must hit"
    );
}

#[test]
fn bad_requests_get_typed_errors_without_occupying_capacity() {
    let server = make_server(ServerConfig::default());
    let (buf, sink) = sink();
    server.handle_line(r#"{"id":1,"op":"solve","graph":"nope","b":3}"#, &sink);
    server.handle_line(
        r#"{"id":2,"op":"solve","graph":"ring","alg":"nope"}"#,
        &sink,
    );
    server.handle_line("garbage", &sink);
    let responses = wait_lines(&buf, 3);
    let mut kinds: Vec<String> = responses.iter().map(|l| error_kind(l)).collect();
    kinds.sort();
    assert_eq!(
        kinds,
        vec!["bad_request", "unknown_graph", "unknown_solver"]
    );
    assert_eq!(server.stats()["inflight"], 0);
    assert_eq!(server.stats()["solves"], 0);
}

#[test]
fn deeply_nested_request_is_a_bad_request_and_the_server_keeps_serving() {
    // 500 000 open brackets once recursed through the parser until the
    // thread's stack overflowed and took the whole process down.
    let server = make_server(ServerConfig::default());
    let (buf, sink) = sink();
    server.handle_line(&"[".repeat(500_000), &sink);
    server.handle_line(r#"{"id":7,"op":"ping"}"#, &sink);
    let responses = wait_lines(&buf, 2);
    assert_eq!(responses.len(), 2, "{responses:?}");
    assert_eq!(error_kind(&responses[0]), "bad_request");
    assert_eq!(id_of(&responses[1]), 7);
    assert!(responses[1].contains("\"pong\":true"), "{}", responses[1]);
    assert_eq!(server.stats()["inflight"], 0);
}

#[test]
fn hops_request_serves_valid_d_hop_schedules_and_adapt_rejects_it() {
    let server = make_server(ServerConfig {
        capacity: 8,
        cache_bytes: 1 << 20,
        ..ServerConfig::default()
    });
    let (buf, sink) = sink();
    server.handle_line(
        r#"{"id":1,"op":"solve","graph":"ring","alg":"greedy","b":3,"hops":2}"#,
        &sink,
    );
    server.handle_line(
        r#"{"id":2,"op":"solve","graph":"ring","alg":"greedy","b":3}"#,
        &sink,
    );
    server.handle_line(
        r#"{"id":3,"op":"adapt","graph":"ring","alg":"greedy","b":3,"failures":"iid","p":0.1,"slots":4,"hops":2}"#,
        &sink,
    );
    let responses = wait_lines(&buf, 3);

    // The hops>1 refusal is a typed `config` error carried on the wire
    // (the solver configuration is unsupported for `adapt`), not a
    // generic bad request.
    let adapt_line = responses.iter().find(|l| id_of(l) == 3).unwrap();
    assert_eq!(error_kind(adapt_line), "config");
    assert!(
        adapt_line.contains("adapt does not support hops > 1"),
        "{adapt_line}"
    );

    let payload_2hop = result_of(responses.iter().find(|l| id_of(l) == 1).unwrap());
    let payload_1hop = result_of(responses.iter().find(|l| id_of(l) == 2).unwrap());
    assert_ne!(
        payload_2hop, payload_1hop,
        "hops must participate in the solve, not just the cache key"
    );

    // Every slot of the 2-hop response must be a 2-hop dominating set of
    // the *original* ring — the server solves on the power graph but the
    // schedule is stated in terms of base-graph nodes.
    let g = ring_graph(24);
    let v = json::parse(&payload_2hop).unwrap();
    assert!(v.get("lifetime").unwrap().as_int().unwrap() > 0);
    let Some(json::Json::Arr(entries)) = v.get("schedule") else {
        panic!("missing schedule array: {payload_2hop}");
    };
    assert!(!entries.is_empty());
    for entry in entries {
        let json::Json::Arr(pair) = entry else {
            panic!("entry is not [duration, nodes]: {entry:?}");
        };
        let json::Json::Arr(nodes) = &pair[1] else {
            panic!("nodes is not an array: {entry:?}");
        };
        let set = domatic_graph::NodeSet::from_iter(
            g.n(),
            nodes
                .iter()
                .map(|x| u32::try_from(x.as_int().unwrap()).unwrap()),
        );
        assert!(
            domatic_graph::domination::is_d_hop_dominating_set(&g, &set, 2),
            "slot is not 2-hop dominating: {nodes:?}"
        );
    }
}

#[test]
fn default_solver_responses_are_pinned_byte_for_byte() {
    // These are the exact bytes the server produced for default-solver
    // requests BEFORE the budget-aware Solver redesign (captured from the
    // seed build). The redesign must not change a single byte of them:
    // cached entries written by an old process must replay identically,
    // and clients diff responses across versions.
    let pins = [
        (
            r#"{"id":1,"op":"solve","graph":"ring","b":3}"#,
            r#"{"id":1,"ok":true,"result":{"alg":"uniform","b":3,"bound":15,"graph":"ring","graph_hash":"a23199d0c97326dd","k":1,"lifetime":3,"n":24,"schedule":[[3,[0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23]]],"seed":0,"steps":1,"tolerance":1,"trials":8}}"#,
        ),
        (
            r#"{"id":2,"op":"solve","graph":"ring","alg":"greedy","b":2,"seed":4,"trials":3}"#,
            r#"{"id":2,"ok":true,"result":{"alg":"greedy","b":2,"bound":10,"graph":"ring","graph_hash":"a23199d0c97326dd","k":1,"lifetime":6,"n":24,"schedule":[[2,[0,5,10,14,15,19]],[2,[1,6,11,16,17,20]],[2,[2,7,12,13,18,21]]],"seed":4,"steps":3,"tolerance":1,"trials":3}}"#,
        ),
        (
            r#"{"id":3,"op":"bounds","graph":"ring","b":3}"#,
            r#"{"id":3,"ok":true,"result":{"b":3,"ft":15,"general":15,"graph":"ring","graph_hash":"a23199d0c97326dd","k":1,"m":48,"n":24,"uniform":15}}"#,
        ),
    ];
    let server = make_server(ServerConfig {
        capacity: 8,
        cache_bytes: 1 << 20,
        ..ServerConfig::default()
    });
    let (buf, sink) = sink();
    for (req, _) in &pins {
        server.handle_line(req, &sink);
    }
    let responses = wait_lines(&buf, pins.len());
    for (req, want) in &pins {
        let got = responses
            .iter()
            .find(|l| id_of(l) == id_of(want))
            .unwrap_or_else(|| panic!("no response for {req}"));
        assert_eq!(got, want, "response bytes drifted for {req}");
    }
}

#[test]
fn solver_alias_and_budget_ms_drive_the_anytime_solvers() {
    let server = make_server(ServerConfig {
        capacity: 8,
        cache_bytes: 1 << 20,
        ..ServerConfig::default()
    });
    let (buf, sink) = sink();
    // The anytime solvers are reachable through the new `solver` field…
    server.handle_line(
        r#"{"id":1,"op":"solve","graph":"ring","solver":"tabu","b":3,"trials":2}"#,
        &sink,
    );
    server.handle_line(
        r#"{"id":2,"op":"solve","graph":"ring","solver":"portfolio","b":3,"trials":2}"#,
        &sink,
    );
    // …and the greedy row they must never lose to.
    server.handle_line(
        r#"{"id":3,"op":"solve","graph":"ring","alg":"greedy","b":3}"#,
        &sink,
    );
    let responses = wait_lines(&buf, 3);
    let lifetime_of = |id: u64| {
        let line = responses.iter().find(|l| id_of(l) == id).unwrap();
        assert!(line.contains("\"ok\":true"), "{line}");
        json::parse(&result_of(line))
            .unwrap()
            .get("lifetime")
            .unwrap()
            .as_int()
            .unwrap()
    };
    let greedy = lifetime_of(3);
    assert!(lifetime_of(1) >= greedy, "tabu lost to greedy");
    assert!(lifetime_of(2) >= greedy, "portfolio lost to greedy");

    // `budget_ms` is part of the solve identity: the same request with
    // and without a budget may not share a cache entry.
    let solves_before = server.stats()["solves"];
    server.handle_line(
        r#"{"id":4,"op":"solve","graph":"ring","solver":"tabu","b":3,"trials":2}"#,
        &sink,
    );
    wait_lines(&buf, 4);
    assert_eq!(
        server.stats()["solves"],
        solves_before,
        "exact repeat must hit"
    );
    server.handle_line(
        r#"{"id":5,"op":"solve","graph":"ring","solver":"tabu","b":3,"trials":2,"budget_ms":10000}"#,
        &sink,
    );
    wait_lines(&buf, 5);
    assert_eq!(
        server.stats()["solves"],
        solves_before + 1,
        "budgeted request must key its own solve"
    );
}

#[test]
fn unknown_solver_names_are_rejected_typed_via_either_field() {
    let server = make_server(ServerConfig::default());
    let (buf, sink) = sink();
    server.handle_line(
        r#"{"id":1,"op":"solve","graph":"ring","solver":"quantum"}"#,
        &sink,
    );
    server.handle_line(
        r#"{"id":2,"op":"solve","graph":"ring","alg":"greedy","solver":"tabu"}"#,
        &sink,
    );
    let responses = wait_lines(&buf, 2);
    let kind_of = |id: u64| error_kind(responses.iter().find(|l| id_of(l) == id).unwrap());
    assert_eq!(kind_of(1), "unknown_solver");
    assert_eq!(kind_of(2), "bad_request", "alg/solver disagreement");
    assert_eq!(server.stats()["solves"], 0);
}

#[test]
fn shutdown_drains_and_rejects_new_work() {
    let server = make_server(ServerConfig {
        capacity: 8,
        cache_bytes: 1 << 20,
        ..ServerConfig::default()
    });
    let (leader_buf, leader_sink) = sink();
    let (buf, sink) = sink();
    // Holding the first request's sink keeps its job in flight (the slot
    // is released only after fan-out) while shutdown arrives.
    let held = leader_buf.lock().unwrap();
    server.handle_line(
        r#"{"id":1,"op":"solve","graph":"ring","b":3}"#,
        &leader_sink,
    );
    assert!(server.handle_line(r#"{"id":2,"op":"shutdown"}"#, &sink));
    // Admission is closed from the moment shutdown was seen.
    server.handle_line(
        r#"{"id":3,"op":"solve","graph":"ring","b":3,"seed":9}"#,
        &sink,
    );
    let responses = lines(&buf);
    assert_eq!(responses.len(), 2, "{responses:?}");
    assert!(responses[0].contains("draining"), "{}", responses[0]);
    assert_eq!(id_of(&responses[1]), 3);
    assert_eq!(error_kind(&responses[1]), "shutting_down");
    assert_eq!(server.stats()["inflight"], 1);
    drop(held);

    // Drain returns only after the in-flight job has fanned out.
    server.drain();
    assert_eq!(server.stats()["inflight"], 0);
    let first = lines(&leader_buf);
    assert_eq!(first.len(), 1, "{first:?}");
    assert_eq!(id_of(&first[0]), 1);
    assert!(first[0].contains("\"ok\":true"), "{}", first[0]);
}

#[test]
fn tcp_transport_serves_concurrent_mixed_clients_end_to_end() {
    let server = make_server(ServerConfig {
        capacity: 16,
        cache_bytes: 1 << 20,
        ..ServerConfig::default()
    });
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let srv = Arc::clone(&server);
    let serve_thread = std::thread::spawn(move || srv.serve_tcp(listener).unwrap());

    let mut clients = Vec::new();
    for c in 0..4u64 {
        clients.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let n = 6u64;
            for i in 0..n {
                // A mixed pipelined workload with deliberate duplicates
                // across clients (seed i % 2).
                let id = c * 100 + i;
                let line = if i % 3 == 0 {
                    format!("{{\"id\":{id},\"op\":\"bounds\",\"graph\":\"ring\",\"b\":3}}")
                } else {
                    format!(
                        "{{\"id\":{id},\"op\":\"solve\",\"graph\":\"ring2\",\"alg\":\"greedy\",\"b\":2,\"seed\":{}}}",
                        i % 2
                    )
                };
                client.send(&line).unwrap();
            }
            let mut got = Vec::new();
            for _ in 0..n {
                let line = client.recv().unwrap();
                assert!(line.contains("\"ok\":true"), "{line}");
                got.push(id_of(&line));
            }
            got.sort_unstable();
            let want: Vec<u64> = (0..n).map(|i| c * 100 + i).collect();
            assert_eq!(got, want, "every pipelined request answered exactly once");
        }));
    }
    for c in clients {
        c.join().unwrap();
    }

    let stats = server.stats();
    assert_eq!(stats["errors"], 0);
    assert!(
        stats["cache_hits"] + stats["batch_joined"] > 0,
        "duplicates must coalesce or hit: {stats:?}"
    );
    assert!(
        stats["solves"] < 24,
        "24 requests must not mean 24 solves: {stats:?}"
    );

    // Shut the server down over the wire and join the serve loop.
    let line = Client::connect(addr)
        .unwrap()
        .request("\"op\":\"shutdown\"")
        .unwrap();
    assert!(line.contains("draining"), "{line}");
    serve_thread.join().unwrap();
}

#[test]
fn stats_op_reports_counters_inline() {
    let server = make_server(ServerConfig::default());
    let (buf, sink) = sink();
    server.handle_line(r#"{"id":1,"op":"ping"}"#, &sink);
    server.handle_line(r#"{"id":2,"op":"stats"}"#, &sink);
    let responses = wait_lines(&buf, 2);
    assert!(responses[0].contains("\"pong\":true"));
    let v = json::parse(&result_of(&responses[1])).unwrap();
    assert_eq!(v.get("requests").unwrap().as_int().unwrap(), 2);
}

/// The whole `stats` result line — field names, order and values —
/// after a fixed request sequence that touches every counter class:
/// a miss, a hit, a mutation retiring one entry, a post-mutation solve
/// and a typed error.
#[test]
fn stats_op_payload_is_pinned_byte_for_byte() {
    let server = make_server(ServerConfig::default());
    let (buf, sink) = sink();
    let requests = [
        r#"{"id":1,"op":"ping"}"#,
        r#"{"id":2,"op":"solve","graph":"ring","alg":"greedy","b":3}"#,
        r#"{"id":3,"op":"solve","graph":"ring","alg":"greedy","b":3}"#,
        r#"{"id":4,"op":"mutate","graph":"ring","action":"add_edge","u":0,"v":12}"#,
        r#"{"id":5,"op":"solve","graph":"ring","alg":"greedy","b":3}"#,
        r#"{"id":6,"op":"solve","graph":"ghost","alg":"greedy","b":3}"#,
    ];
    for (i, line) in requests.iter().enumerate() {
        server.handle_line(line, &sink);
        wait_lines(&buf, i + 1);
    }
    // A job writes its response before releasing its in-flight slot.
    let start = Instant::now();
    while server.stats()["inflight"] > 0 {
        assert!(start.elapsed() < Duration::from_secs(20));
        std::thread::sleep(Duration::from_millis(1));
    }
    server.handle_line(r#"{"id":7,"op":"stats"}"#, &sink);
    let responses = wait_lines(&buf, requests.len() + 1);
    assert_eq!(
        responses[requests.len()],
        "{\"id\":7,\"ok\":true,\"result\":{\"batch_joined\":0,\"cache_bytes\":228,\"cache_entries\":1,\"cache_evictions\":0,\"cache_hits\":1,\"cache_misses\":2,\"connections\":0,\"deadline_expired\":0,\"errors\":1,\"inflight\":0,\"lineage_invalidations\":1,\"mutations\":1,\"overloads\":0,\"requests\":7,\"shed_join\":0,\"shed_miss\":0,\"solves\":2}}"
    );
}

/// A `Write` adapter over a shared byte buffer, used as an access-log
/// sink in tests.
struct SharedLog(Arc<Mutex<Vec<u8>>>);

impl Write for SharedLog {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn access_log_traces_the_lifecycle_without_changing_response_bytes() {
    let requests = [
        r#"{"id":1,"op":"solve","graph":"ring","alg":"greedy","b":3,"seed":41}"#,
        r#"{"id":2,"op":"bounds","graph":"ring","b":3,"k":2}"#,
        r#"{"id":1,"op":"solve","graph":"ring","alg":"greedy","b":3,"seed":41}"#, // cache hit
        r#"{"id":3,"op":"solve","graph":"nope","b":3}"#,                          // shed
    ];
    let run = |with_log: bool| -> (Vec<String>, Vec<String>) {
        let server = make_server(ServerConfig {
            capacity: 8,
            cache_bytes: 1 << 20,
            ..ServerConfig::default()
        });
        let log_buf = Arc::new(Mutex::new(Vec::new()));
        if with_log {
            server.set_access_log(Box::new(SharedLog(Arc::clone(&log_buf))));
        }
        let (buf, sink) = sink();
        for (i, line) in requests.iter().enumerate() {
            server.handle_line(line, &sink);
            if i < 2 {
                // Let the first two land (the third must be a cache hit).
                wait_lines(&buf, i + 1);
            }
        }
        let mut responses = wait_lines(&buf, requests.len());
        responses.sort();
        let log_lines: Vec<String> = String::from_utf8(log_buf.lock().unwrap().clone())
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect();
        (responses, log_lines)
    };

    let (traced, log) = run(true);
    let (untraced, no_log) = run(false);
    // The tracing-never-changes-response-bytes invariant.
    assert_eq!(
        traced, untraced,
        "responses must be byte-identical with tracing on vs off"
    );
    assert!(no_log.is_empty());
    assert!(!log.is_empty(), "access log captured events");

    // Every log line is valid JSON; timestamps are monotone per trace.
    let mut last_t: std::collections::HashMap<i128, i128> = std::collections::HashMap::new();
    let mut events_seen = std::collections::HashSet::new();
    for line in &log {
        let v = json::parse(line).unwrap_or_else(|e| panic!("invalid log line {line}: {e}"));
        let trace = v.get("trace").and_then(|t| t.as_int()).unwrap();
        let t_us = v.get("t_us").and_then(|t| t.as_int()).unwrap();
        let prev = last_t.insert(trace, t_us).unwrap_or(0);
        assert!(
            t_us >= prev,
            "timestamps regress within trace {trace}: {line}"
        );
        events_seen.insert(v.get("event").and_then(|e| e.as_str()).unwrap().to_string());
    }
    for required in [
        "received",
        "admitted",
        "cache_miss",
        "cache_hit",
        "solve_start",
        "solve_end",
        "rendered",
        "written",
        "shed",
    ] {
        assert!(
            events_seen.contains(required),
            "missing event {required}: {log:?}"
        );
    }
    // No trace id ever appears in a response line.
    for line in &traced {
        assert!(
            !line.contains("\"trace\""),
            "trace leaked into response: {line}"
        );
    }
}

/// Sends `requests` one at a time, each waiting for its response, then
/// waits until no job is in flight (a job records its latencies and
/// releases its slot only after writing its response).
fn run_script(server: &Arc<Server>, requests: &[&str]) {
    let (buf, sink) = sink();
    for (i, line) in requests.iter().enumerate() {
        server.handle_line(line, &sink);
        wait_lines(&buf, i + 1);
    }
    let start = Instant::now();
    while server.stats()["inflight"] > 0 {
        assert!(start.elapsed() < Duration::from_secs(20));
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The `metrics` op's exposition text.
fn scrape(server: &Arc<Server>) -> String {
    let (buf, sink) = sink();
    server.handle_line(r#"{"id":99,"op":"metrics"}"#, &sink);
    let v = json::parse(&result_of(&wait_lines(&buf, 1)[0])).unwrap();
    v.get("exposition")
        .and_then(|e| e.as_str())
        .unwrap()
        .to_string()
}

/// The value of the unlabeled sample `name`, if the exposition has it.
fn sample(samples: &[domatic_telemetry::prometheus::Sample], name: &str) -> Option<f64> {
    samples
        .iter()
        .find(|s| s.name == name && s.labels.is_empty())
        .map(|s| s.value)
}

#[test]
fn metrics_op_returns_valid_prometheus_exposition() {
    let server = make_server(ServerConfig {
        capacity: 8,
        cache_bytes: 1 << 20,
        ..ServerConfig::default()
    });
    // A miss, a hit, a mutation retiring one entry, a post-mutation
    // solve and a typed error.
    run_script(
        &server,
        &[
            r#"{"id":1,"op":"ping"}"#,
            r#"{"id":2,"op":"solve","graph":"ring","alg":"greedy","b":3,"seed":7}"#,
            r#"{"id":3,"op":"solve","graph":"ring","alg":"greedy","b":3,"seed":7}"#,
            r#"{"id":4,"op":"mutate","graph":"ring","action":"add_edge","u":0,"v":12}"#,
            r#"{"id":5,"op":"solve","graph":"ring","alg":"greedy","b":3,"seed":7}"#,
            r#"{"id":6,"op":"solve","graph":"ghost","alg":"greedy","b":3}"#,
        ],
    );
    let text = scrape(&server);
    let samples = domatic_telemetry::prometheus::parse(&text).expect("valid exposition");
    let value_of = |name: &str| sample(&samples, name);

    // The registry is this server's own, so every count is exact: six
    // script lines plus the `metrics` line itself.
    for (series, want) in [
        ("server_requests_total", 7.0),
        ("server_solves_total", 2.0),
        ("server_cache_hit_total", 1.0),
        ("server_cache_miss_total", 2.0),
        ("server_batch_joined_total", 0.0),
        ("server_errors_total", 1.0),
        ("server_mutations_total", 1.0),
        ("cache_lineage_invalidations_total", 1.0),
        ("server_cache_entries", 1.0),
        ("server_inflight", 0.0),
        ("server_connections", 0.0),
        ("server_graphs", 2.0),
        ("server_pending_batches", 0.0),
        ("server_queued_waiters", 0.0),
    ] {
        assert_eq!(value_of(series), Some(want), "{series}:\n{text}");
    }
    assert!(value_of("runtime_cache_bytes").is_some_and(|v| v > 0.0));
    let count_of = |name: &str, labels: &[(&str, &str)]| {
        samples
            .iter()
            .find(|s| s.name == name && labels.iter().all(|&(k, v)| s.label(k) == Some(v)))
            .map(|s| s.value)
    };
    // Four solve requests were traced (two misses, a hit and the
    // unknown-graph shed); two of them ran the solver.
    assert_eq!(
        count_of("server_request_latency_us_count", &[("op", "solve")]),
        Some(4.0),
        "per-op latency histogram:\n{text}"
    );
    assert_eq!(
        count_of(
            "server_solve_latency_us_count",
            &[("alg", "greedy"), ("graph", "ring")]
        ),
        Some(2.0),
        "per-solver/per-graph latency histogram:\n{text}"
    );
    assert!(
        samples
            .iter()
            .any(|s| s.name == "server_request_latency_us_bucket"
                && s.label("op") == Some("solve")
                && s.label("le").is_some()),
        "per-op latency histogram buckets present"
    );

    // `stats` and `metrics` read one store: every `stats` field equals
    // its exposition series.
    let series_of = [
        ("batch_joined", "server_batch_joined_total"),
        ("cache_bytes", "runtime_cache_bytes"),
        ("cache_entries", "server_cache_entries"),
        ("cache_evictions", "server_cache_eviction_total"),
        ("cache_hits", "server_cache_hit_total"),
        ("cache_misses", "server_cache_miss_total"),
        ("connections", "server_connections"),
        ("deadline_expired", "server_deadline_expired_total"),
        ("errors", "server_errors_total"),
        ("inflight", "server_inflight"),
        ("lineage_invalidations", "cache_lineage_invalidations_total"),
        ("mutations", "server_mutations_total"),
        ("overloads", "server_overload_total"),
        ("requests", "server_requests_total"),
        ("shed_join", "server_shed_join_total"),
        ("shed_miss", "server_shed_miss_total"),
        ("solves", "server_solves_total"),
    ];
    let stats = server.stats();
    assert_eq!(
        stats.keys().copied().collect::<Vec<_>>(),
        series_of.map(|(field, _)| field),
        "every stats field has a series"
    );
    for (field, series) in series_of {
        assert_eq!(
            value_of(series),
            Some(stats[field] as f64),
            "stats.{field} vs {series}:\n{text}"
        );
    }

    // And the full text round-trips through the snapshot parser.
    let snap = domatic_telemetry::prometheus::parse_snapshot(&text).unwrap();
    assert_eq!(snap.counters["server_requests"], 7);
}

#[test]
fn two_servers_in_one_process_keep_separate_counts() {
    let a = make_server(ServerConfig::default());
    let b = make_server(ServerConfig::default());
    run_script(
        &a,
        &[
            r#"{"id":1,"op":"solve","graph":"ring","alg":"greedy","b":3,"seed":11}"#,
            r#"{"id":2,"op":"solve","graph":"ring","alg":"greedy","b":3,"seed":11}"#,
            r#"{"id":3,"op":"bounds","graph":"ring","b":3}"#,
            r#"{"id":4,"op":"solve","graph":"ghost","b":3}"#,
        ],
    );
    assert_eq!(a.stats()["requests"], 4);
    assert_eq!(a.stats()["solves"], 2);

    let idle = b.stats();
    assert!(idle.values().all(|&v| v == 0), "{idle:?}");
    let text = b.metrics_text();
    let samples = domatic_telemetry::prometheus::parse(&text).expect("valid exposition");
    assert_eq!(
        sample(&samples, "server_requests_total"),
        Some(0.0),
        "{text}"
    );
    assert!(
        !samples
            .iter()
            .any(|s| s.name.starts_with("server_request_latency_us")),
        "an idle server has no latency cells:\n{text}"
    );
}

#[test]
fn scrapes_running_alongside_cache_misses_never_deadlock() {
    // A `metrics`/`stats` reader must not hold one server lock while it
    // waits for another: the admit path takes `pending`, then `inflight`,
    // so a reader taking them the other way round can hang both threads.
    const MISSES: u64 = 400;
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let server = make_server(ServerConfig {
            capacity: 4 * MISSES as usize,
            ..ServerConfig::default()
        });
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let scraper = {
            let (server, stop) = (Arc::clone(&server), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut scrapes = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    assert!(server.metrics_text().contains("server_pending_batches"));
                    assert!(server.stats()["requests"] <= MISSES);
                    scrapes += 1;
                }
                scrapes
            })
        };
        let (buf, sink) = sink();
        for seed in 1..=MISSES {
            let line = format!(
                r#"{{"id":{seed},"op":"solve","graph":"ring","alg":"greedy","b":3,"seed":{seed}}}"#
            );
            server.handle_line(&line, &sink);
        }
        wait_lines(&buf, MISSES as usize);
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let scrapes = scraper.join().expect("scraper panicked");
        done_tx
            .send((server.stats()["cache_misses"], scrapes))
            .unwrap();
    });
    let (misses, scrapes) = done_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("a scrape and the admit path deadlocked");
    assert_eq!(misses, MISSES);
    assert!(scrapes > 0);
}

#[test]
fn trials_over_the_cap_are_a_bad_request_and_the_server_keeps_serving() {
    let server = make_server(ServerConfig::default());
    let (buf, sink) = sink();
    server.handle_line(
        r#"{"id":1,"op":"solve","graph":"ring","alg":"uniform","b":3,"trials":1000000000000}"#,
        &sink,
    );
    server.handle_line(r#"{"id":2,"op":"ping"}"#, &sink);
    let responses = wait_lines(&buf, 2);
    assert_eq!(
        responses[0],
        r#"{"id":1,"ok":false,"error":{"kind":"bad_request","message":"bad request: field 'trials' must be at most 1024"}}"#
    );
    assert_eq!(responses[1], r#"{"id":2,"ok":true,"result":{"pong":true}}"#);
    // The cap itself is still served.
    server.handle_line(
        r#"{"id":3,"op":"solve","graph":"ring","alg":"uniform","b":3,"trials":1024}"#,
        &sink,
    );
    let solved = &wait_lines(&buf, 3)[2];
    assert!(solved.starts_with(r#"{"id":3,"ok":true,"#), "{solved}");
    assert!(solved.contains("\"trials\":1024"), "{solved}");
}

#[test]
fn profile_op_reports_the_trace_ring() {
    let server = make_server(ServerConfig {
        capacity: 8,
        cache_bytes: 1 << 20,
        trace_ring: 4,
        ..ServerConfig::default()
    });
    let (buf, sink) = sink();
    for seed in 0..3 {
        let line = format!(
            "{{\"id\":{seed},\"op\":\"solve\",\"graph\":\"ring\",\"alg\":\"greedy\",\"b\":3,\"seed\":{seed}}}"
        );
        server.handle_line(&line, &sink);
    }
    wait_lines(&buf, 3);
    server.handle_line(r#"{"id":99,"op":"profile"}"#, &sink);
    let responses = wait_lines(&buf, 4);
    let profile_line = responses.iter().find(|l| id_of(l) == 99).unwrap();
    let v = json::parse(&result_of(profile_line)).unwrap();
    let ring = match v.get("ring") {
        Some(json::Json::Arr(items)) => items,
        other => panic!("ring must be an array: {other:?}"),
    };
    assert_eq!(ring.len(), 3, "one completed record per request");
    for rec in ring {
        assert_eq!(rec.get("op").and_then(|o| o.as_str()), Some("solve"));
        assert_eq!(rec.get("outcome").and_then(|o| o.as_str()), Some("ok"));
        let total = rec.get("total_us").and_then(|t| t.as_int()).unwrap();
        let queue = rec.get("queue_us").and_then(|t| t.as_int()).unwrap();
        let solve = rec.get("solve_us").and_then(|t| t.as_int()).unwrap();
        let render = rec.get("render_us").and_then(|t| t.as_int()).unwrap();
        assert!(
            queue + solve + render <= total + 1,
            "phases partition total: {rec:?}"
        );
    }
    assert!(v.get("spans").is_some());
}

#[test]
fn slow_request_threshold_dumps_lifecycles_to_the_access_log() {
    let server = make_server(ServerConfig {
        capacity: 8,
        cache_bytes: 1 << 20,
        slow_ms: Some(0), // everything is an outlier
        ..ServerConfig::default()
    });
    let log_buf = Arc::new(Mutex::new(Vec::new()));
    server.set_access_log(Box::new(SharedLog(Arc::clone(&log_buf))));
    let (buf, sink) = sink();
    server.handle_line(r#"{"id":1,"op":"bounds","graph":"ring","b":3}"#, &sink);
    wait_lines(&buf, 1);
    let text = String::from_utf8(log_buf.lock().unwrap().clone()).unwrap();
    let slow: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("\"event\":\"slow_request\""))
        .collect();
    assert_eq!(slow.len(), 1, "{text}");
    let v = json::parse(slow[0]).unwrap();
    let events = match v.get("events") {
        Some(json::Json::Arr(e)) => e.len(),
        other => panic!("events must be an array: {other:?}"),
    };
    assert!(events >= 3, "lifecycle dump carries the event list");
}
