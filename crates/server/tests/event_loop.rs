//! Integration tests for the evented TCP transport: receipt-order
//! pipelining, frames split across reads, shed tiers, drain behavior
//! (no leaked connection handlers), shard-count response invariance,
//! and the telemetry the shards export.

use domatic_graph::Graph;
use domatic_server::server::ResponseSink;
use domatic_server::{protocol, Client, Server, ServerConfig};
use domatic_telemetry::json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

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

/// Starts `serve_tcp` on an ephemeral port; returns the bound address
/// and the serve thread (joined by sending a `shutdown` line).
fn start(server: &Arc<Server>) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let srv = Arc::clone(server);
    let handle = std::thread::spawn(move || srv.serve_tcp(listener).unwrap());
    (addr, handle)
}

fn shutdown(addr: std::net::SocketAddr, handle: std::thread::JoinHandle<()>) {
    let line = Client::connect(addr)
        .unwrap()
        .request("\"op\":\"shutdown\"")
        .unwrap();
    assert!(line.contains("draining"), "{line}");
    handle.join().unwrap();
}

fn sink() -> (Arc<Mutex<Vec<u8>>>, ResponseSink) {
    let buf = Arc::new(Mutex::new(Vec::new()));
    let dyn_sink: ResponseSink = buf.clone();
    (buf, dyn_sink)
}

fn lines(buf: &Arc<Mutex<Vec<u8>>>) -> Vec<String> {
    let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
    text.lines().map(str::to_string).collect()
}

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

/// Polls `done` until it holds (bounded).
fn wait_until(done: impl Fn() -> bool) {
    let start = Instant::now();
    while !done() {
        assert!(start.elapsed() < Duration::from_secs(20), "timed out");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn id_of(line: &str) -> u64 {
    let v = json::parse(line).unwrap();
    u64::try_from(v.get("id").unwrap().as_int().unwrap()).unwrap()
}

/// A pipelined workload whose completion order differs from receipt
/// order on purpose: cheap inline ops interleaved with solves of
/// different costs and duplicate keys.
fn pipelined_workload() -> Vec<String> {
    let mut lines = Vec::new();
    for i in 0..12u64 {
        let id = i + 1;
        let line = match i % 4 {
            0 => format!(
                "{{\"id\":{id},\"op\":\"solve\",\"graph\":\"ring\",\"alg\":\"greedy\",\"b\":3,\"seed\":{}}}",
                i % 3
            ),
            1 => format!("{{\"id\":{id},\"op\":\"ping\"}}"),
            2 => format!("{{\"id\":{id},\"op\":\"bounds\",\"graph\":\"ring2\",\"b\":2}}"),
            _ => format!(
                "{{\"id\":{id},\"op\":\"solve\",\"graph\":\"ring2\",\"alg\":\"uniform\",\"b\":2,\"seed\":{}}}",
                i % 2
            ),
        };
        lines.push(line);
    }
    lines
}

fn pipelined_config() -> ServerConfig {
    ServerConfig {
        capacity: 16,
        cache_bytes: 1 << 20,
        shards: 2,
        ..ServerConfig::default()
    }
}

/// `pipelined_workload()` written in one burst on one socket before
/// reading anything back; returns the responses in arrival order.
fn burst_responses() -> Vec<String> {
    let requests = pipelined_workload();
    let server = make_server(pipelined_config());
    let (addr, handle) = start(&server);
    let mut client = Client::connect(addr).unwrap();
    client.send(&requests.join("\n")).unwrap();
    let got: Vec<String> = requests.iter().map(|_| client.recv().unwrap()).collect();
    assert_eq!(server.stats()["errors"], 0);
    shutdown(addr, handle);
    got
}

#[test]
fn pipelined_requests_answer_in_receipt_order_byte_identically() {
    let cfg = pipelined_config();
    let requests = pipelined_workload();

    // Reference responses: the same lines driven synchronously through
    // handle_line, one at a time, on an identically configured server.
    let reference = {
        let server = make_server(cfg.clone());
        let (buf, sink) = sink();
        for (i, line) in requests.iter().enumerate() {
            server.handle_line(line, &sink);
            wait_lines(&buf, i + 1);
        }
        wait_lines(&buf, requests.len())
    };

    // The evented path: all 12 requests in one burst.
    let got = burst_responses();
    let ids: Vec<u64> = got.iter().map(|l| id_of(l)).collect();
    let want: Vec<u64> = (1..=requests.len() as u64).collect();
    assert_eq!(ids, want, "responses must arrive in receipt order");
    assert_eq!(
        got, reference,
        "pipelined responses must be byte-identical to the synchronous path"
    );
}

/// A splitmix64 step: the seeded chunk lengths below.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Feeds `chunks` through the framer the way a shard's reads do: append
/// each chunk, then frame.
fn frame_chunks<'a>(chunks: impl IntoIterator<Item = &'a [u8]>) -> (Vec<String>, Vec<u8>) {
    let mut buf = Vec::new();
    let mut got = Vec::new();
    for chunk in chunks {
        buf.extend_from_slice(chunk);
        protocol::drain_lines(&mut buf, |line| got.push(line.to_string()));
    }
    (got, buf)
}

#[test]
fn framer_yields_the_same_lines_under_every_chunking() {
    // The workload with blank lines, whitespace-only lines and `\r\n`
    // endings mixed in, plus a trailing partial line.
    let mut wire = String::new();
    for (i, line) in pipelined_workload().iter().enumerate() {
        match i % 3 {
            0 => wire.push_str(&format!("{line}\r\n")),
            1 => wire.push_str(&format!("\n  {line}\n\r\n")),
            _ => wire.push_str(&format!(" \t\n{line}\n")),
        }
    }
    wire.push_str("{\"id\":99,\"op\":\"pi");
    let wire = wire.as_bytes();

    let (whole, rest) = frame_chunks([wire]);
    assert_eq!(
        whole,
        pipelined_workload(),
        "blank lines and \\r must vanish"
    );
    assert_eq!(
        rest, b"{\"id\":99,\"op\":\"pi",
        "a partial line stays buffered"
    );

    let (bytewise, rest1) = frame_chunks(wire.chunks(1));
    assert_eq!(
        (bytewise, rest1),
        (whole.clone(), rest.clone()),
        "1-byte chunks"
    );
    for seed in 0..200u64 {
        let mut state = seed;
        let mut cuts = Vec::new();
        let mut at = 0usize;
        while at < wire.len() {
            let len = 1 + (splitmix(&mut state) % 48) as usize;
            cuts.push(&wire[at..(at + len).min(wire.len())]);
            at += len;
        }
        let (got, left) = frame_chunks(cuts);
        assert_eq!(got, whole, "seed {seed}");
        assert_eq!(left, rest, "seed {seed}");
    }
}

#[test]
fn requests_written_one_byte_per_write_answer_like_the_burst() {
    let requests = pipelined_workload();
    let server = make_server(pipelined_config());
    let (addr, handle) = start(&server);
    // The one socket that writes raw bytes: it splits every frame, which
    // `Client` by design never does.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for byte in requests.join("\n").bytes().chain([b'\n']) {
        assert_eq!(stream.write(&[byte]).unwrap(), 1);
    }
    let got: Vec<String> = requests
        .iter()
        .map(|_| {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            line.trim_end().to_string()
        })
        .collect();
    assert_eq!(server.stats()["errors"], 0);
    shutdown(addr, handle);
    assert_eq!(
        got,
        burst_responses(),
        "byte-split requests must be answered byte-identically to the burst"
    );
}

#[test]
fn cache_hits_serve_while_misses_shed_at_saturated_capacity() {
    let server = make_server(ServerConfig {
        capacity: 1,
        cache_bytes: 1 << 20,
        ..ServerConfig::default()
    });
    let (held_buf, held_sink) = sink();
    let (buf, sink) = sink();
    let warm = r#"{"id":1,"op":"bounds","graph":"ring","b":3}"#;
    server.handle_line(warm, &sink);
    let warmed = wait_lines(&buf, 1);
    assert!(warmed[0].contains("\"ok\":true"), "{warmed:?}");
    // The warming job writes its response before releasing its slot.
    wait_until(|| server.stats()["inflight"] == 0);

    // Saturate the single slot with a job (different key) whose fan-out
    // blocks on its held sink: the slot is released only after fan-out.
    let held = held_buf.lock().unwrap();
    server.handle_line(
        r#"{"id":2,"op":"solve","graph":"ring","alg":"greedy","b":3}"#,
        &held_sink,
    );
    // A fresh miss (third key) is shed at tier "miss"...
    server.handle_line(r#"{"id":3,"op":"bounds","graph":"ring2","b":2}"#, &sink);
    // ...while the warmed key still serves from cache. Both answers are
    // synchronous.
    server.handle_line(warm, &sink);
    let responses = lines(&buf);
    assert_eq!(responses.len(), 3, "{responses:?}");
    let shed = &responses[1];
    assert_eq!(id_of(shed), 3);
    let v = json::parse(shed).unwrap();
    let error = v.get("error").expect("shed response is an error");
    assert_eq!(
        error.get("kind").and_then(|k| k.as_str()),
        Some("overloaded")
    );
    assert_eq!(
        error.get("shed_tier").and_then(|t| t.as_str()),
        Some("miss"),
        "{shed}"
    );
    assert_eq!(responses[2], responses[0], "hit must be byte-identical");
    assert_eq!(server.stats()["inflight"], 1);
    drop(held);

    server.drain();
    assert_eq!(wait_lines(&held_buf, 1).len(), 1);
    let stats = server.stats();
    assert_eq!(stats["shed_miss"], 1);
    assert_eq!(stats["shed_join"], 0);
    assert_eq!(stats["overloads"], 1);
    assert_eq!(stats["cache_hits"], 1);
}

#[test]
fn severe_waiter_pressure_sheds_even_batch_joins() {
    // Occupy every pool worker: each of these jobs solves, closes its
    // batch, then blocks fanning out to its held sink.
    let workers = rayon::current_num_threads();
    let server = make_server(ServerConfig {
        capacity: workers + 1,
        cache_bytes: 1 << 20,
        shed_join_waiters: 1,
        ..ServerConfig::default()
    });
    let held: Vec<_> = (0..workers).map(|_| sink()).collect();
    let guards: Vec<_> = held.iter().map(|(buf, _)| buf.lock().unwrap()).collect();
    for (seed, (_, held_sink)) in held.iter().enumerate() {
        let line = format!(
            "{{\"id\":{seed},\"op\":\"solve\",\"graph\":\"ring\",\"alg\":\"greedy\",\"b\":3,\"seed\":{seed}}}"
        );
        server.handle_line(&line, held_sink);
    }
    // Once all of them have solved, no worker is free...
    wait_until(|| server.stats()["solves"] == workers as u64);
    let (buf, sink) = sink();
    let line = r#"{"id":1,"op":"solve","graph":"ring2","alg":"greedy","b":3}"#;
    // ...so this leader's job stays queued with its batch open (1 queued
    // waiter = the threshold)...
    server.handle_line(line, &sink);
    // ...and the identical request can no longer even join.
    server.handle_line(line, &sink);
    let responses = lines(&buf);
    assert_eq!(responses.len(), 1, "{responses:?}");
    let v = json::parse(&responses[0]).unwrap();
    let error = v.get("error").expect("join must be shed");
    assert_eq!(
        error.get("shed_tier").and_then(|t| t.as_str()),
        Some("join"),
        "{responses:?}"
    );
    // The open batch and its one waiter show on the structure gauges.
    let gauges = server.snapshot().gauges;
    assert_eq!(gauges["server.pending_batches"], 1);
    assert_eq!(gauges["server.queued_waiters"], 1);
    drop(guards);
    server.drain();
    let stats = server.stats();
    assert_eq!(stats["shed_join"], 1);
    assert_eq!(stats["batch_joined"], 0);
    assert_eq!(
        stats["solves"],
        workers as u64 + 1,
        "the leader still solves"
    );
}

#[test]
fn shutdown_closes_idle_connections_and_joins_all_transport_threads() {
    let server = make_server(ServerConfig {
        capacity: 8,
        cache_bytes: 1 << 20,
        shards: 2,
        ..ServerConfig::default()
    });
    let (addr, handle) = start(&server);

    // Idle clients that never send a byte and never disconnect: the
    // pre-evented transport leaked a blocked reader thread per one of
    // these. The evented transport must tear them down on shutdown.
    let mut idle: Vec<TcpStream> = (0..4).map(|_| TcpStream::connect(addr).unwrap()).collect();
    // An active client with in-flight work right at shutdown; its work
    // completes (so it is committed, not shed, when shutdown arrives).
    let mut active = Client::connect(addr).unwrap();
    let line = active
        .request("\"op\":\"solve\",\"graph\":\"ring\",\"alg\":\"greedy\",\"b\":3")
        .unwrap();
    assert!(line.contains("\"ok\":true"), "{line}");

    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats()["connections"] < 5 {
        assert!(Instant::now() < deadline, "{:?}", server.stats());
        std::thread::sleep(Duration::from_millis(5));
    }

    shutdown(addr, handle); // joins the serve thread (and its shards)

    // Every idle socket got closed by the server: reads see EOF.
    for stream in &mut idle {
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut byte = [0u8; 1];
        assert_eq!(
            stream.read(&mut byte).unwrap_or(0),
            0,
            "idle connection must be closed on shutdown"
        );
    }
    assert_eq!(
        server.stats()["connections"],
        0,
        "no connection outlives serve_tcp"
    );
}

#[test]
fn responses_are_byte_identical_across_shard_counts() {
    let run = |shards: usize| -> Vec<String> {
        let server = make_server(ServerConfig {
            capacity: 16,
            cache_bytes: 1 << 20,
            shards,
            ..ServerConfig::default()
        });
        let (addr, handle) = start(&server);
        let requests = pipelined_workload();
        // Spread the same workload across 3 connections (different
        // shards when sharded) and collect every response.
        let mut all: Vec<String> = Vec::new();
        let mut clients = Vec::new();
        for chunk in requests.chunks(4) {
            let chunk: Vec<String> = chunk.to_vec();
            clients.push(std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for line in &chunk {
                    client.send(line).unwrap();
                }
                chunk
                    .iter()
                    .map(|_| client.recv().unwrap())
                    .collect::<Vec<_>>()
            }));
        }
        for c in clients {
            all.extend(c.join().unwrap());
        }
        shutdown(addr, handle);
        all.sort();
        all
    };
    assert_eq!(
        run(1),
        run(4),
        "response bytes must not depend on the shard count"
    );
}

#[test]
fn metrics_scrape_reports_connection_gauge_and_shard_queue_depth() {
    let server = make_server(ServerConfig {
        capacity: 8,
        cache_bytes: 1 << 20,
        shards: 2,
        ..ServerConfig::default()
    });
    let (addr, handle) = start(&server);
    // Three live connections, one of which does a solve (so the depth
    // histogram has recorded on a nonzero path too).
    let _idle_a = TcpStream::connect(addr).unwrap();
    let _idle_b = TcpStream::connect(addr).unwrap();
    let mut client = Client::connect(addr).unwrap();
    let line = client
        .request("\"op\":\"solve\",\"graph\":\"ring\",\"alg\":\"greedy\",\"b\":3")
        .unwrap();
    assert!(line.contains("\"ok\":true"), "{line}");

    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats()["connections"] < 3 {
        assert!(Instant::now() < deadline, "{:?}", server.stats());
        std::thread::sleep(Duration::from_millis(5));
    }
    // Each shard records its queue depth once per loop pass; rescrape
    // until both shards have reported (bounded).
    let text = loop {
        let text = server.metrics_text();
        if text.contains("server_shard_queue_depth_bucket{shard=\"0\",le=")
            && text.contains("server_shard_queue_depth_bucket{shard=\"1\",le=")
        {
            break text;
        }
        assert!(
            Instant::now() < deadline,
            "shard depth series missing:\n{text}"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    let snap =
        domatic_telemetry::prometheus::parse_snapshot(&text).expect("exposition must parse back");
    // The registry is this server's own: the one solve and the three
    // connections are exact.
    for (gauge, want) in [
        ("server_connections", 3),
        ("server_graphs", 2),
        ("server_pending_batches", 0),
        ("server_queued_waiters", 0),
    ] {
        assert_eq!(snap.gauges.get(gauge), Some(&want), "{gauge}:\n{text}");
    }
    for (counter, want) in [
        ("server_requests", 1),
        ("server_solves", 1),
        ("server_cache_miss", 1),
    ] {
        assert_eq!(
            snap.counters.get(counter),
            Some(&want),
            "{counter}:\n{text}"
        );
    }
    assert_eq!(server.stats()["connections"], 3);
    assert!(
        text.contains("server_shard_queue_depth_count{shard=\"0\"}"),
        "missing depth count:\n{text}"
    );
    shutdown(addr, handle);
}
