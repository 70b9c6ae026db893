//! The in-process half of the traced run.
//!
//! The request stream is replayed, one request at a time, through
//! `Server::handle_line` on a server built with `ServerConfig::default()`
//! and the same graph files; a sink stamps each response line, which
//! gives the `server.handle_line` span of every request. Right after each
//! request, the public layer calls it implies are timed on the same
//! inputs and recorded as that span's children: protocol and JSON
//! parsing, a harness-owned `SolveCache` at the default byte budget, the
//! solver, the incremental layer and the graph hash. The oracle's
//! `validate_schedule` is timed as a separate root, since the server does
//! not run it.

use crate::gen::{Inputs, Kind};
use crate::oracle::{parse_schedule, result_of, GraphState};
use crate::spans::Recorder;
use domatic_core::hash::{config_hash, versioned_graph_hash, CanonicalHasher};
use domatic_core::incremental::{repair_schedule, GraphDelta};
use domatic_core::solver::{make_solver, SolverConfig};
use domatic_schedule::{validate_schedule, Schedule};
use domatic_server::server::ResponseSink;
use domatic_server::{protocol, Server, ServerConfig, SolveCache};
use std::collections::HashMap;
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A response sink that timestamps each completed line.
struct StampSink {
    tx: Sender<(Instant, Vec<u8>)>,
    buf: Vec<u8>,
}

impl Write for StampSink {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.buf.extend_from_slice(data);
        while let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
            let now = Instant::now();
            let mut line: Vec<u8> = self.buf.drain(..=pos).collect();
            line.pop();
            // The receiver outlives every request; a send error only means
            // the replay already gave up on this response.
            let _ = self.tx.send((now, line));
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

pub const SCHEDULE_SPANS: [(&str, &str); 3] = [
    ("uniform", "solver.schedule.uniform"),
    ("general", "solver.schedule.general"),
    ("greedy", "solver.schedule.greedy"),
];

fn schedule_span(alg: &str) -> &'static str {
    SCHEDULE_SPANS
        .iter()
        .find(|(a, _)| *a == alg)
        .map(|(_, s)| *s)
        .expect("benchmark solves use uniform, general or greedy")
}

/// The harness cache's key: the same dimensions the server keys on.
fn cache_key(kind: &Kind, graph_hash: u64) -> u64 {
    let mut h = CanonicalHasher::new();
    h.write_u64(graph_hash);
    match kind {
        Kind::Solve {
            alg,
            b,
            seed,
            trials,
            ..
        } => {
            h.write_u64(*b);
            h.write_str("solve");
            h.write_str(alg);
            h.write_u64(config_hash(
                &SolverConfig::new().seed(*seed).trials(*trials),
            ));
        }
        Kind::Bounds { b, .. } => {
            h.write_u64(*b);
            h.write_str("bounds");
        }
        Kind::Mutate { .. } => unreachable!("mutations are not cached"),
    }
    h.finish()
}

/// The exact `result` bytes of a success line, as the server cached them.
fn raw_result(id: u64, line: &[u8]) -> Result<String, String> {
    let text = std::str::from_utf8(line).map_err(|_| "response is not UTF-8".to_string())?;
    text.strip_prefix(&format!("{{\"id\":{id},\"ok\":true,\"result\":"))
        .and_then(|rest| rest.strip_suffix('}'))
        .map(str::to_string)
        .ok_or_else(|| format!("unexpected response shape: {}", &text[..text.len().min(80)]))
}

/// Schedules solved against one graph version, by solver point: what
/// the next version's repair projects through its delta.
type Hints = HashMap<(&'static str, u64, u64, u64), Schedule>;

struct Lineage {
    state: GraphState,
    hints: Hints,
    prev: Option<(GraphDelta, Hints)>,
}

pub struct ReplayOut {
    /// Stream requests replayed (warm-up excluded).
    pub replayed: usize,
    /// Sum of the ancestor-list lengths the server holds afterwards.
    pub lineage_len: u64,
}

/// Replays the warm-up and the first `count` stream requests; spans go
/// into `rec`. Returns an error if a response does not arrive.
pub fn replay(
    inputs: &Inputs,
    files: &[(String, PathBuf)],
    count: usize,
    rec: &mut Recorder,
) -> Result<ReplayOut, String> {
    let server = Arc::new(Server::new(ServerConfig::default()));
    let mut lineages = Vec::new();
    for (name, path) in files {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let graph = domatic_graph::io::parse_edge_list(&text)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        rec.time("hash.versioned_graph_hash", 0, None, || {
            versioned_graph_hash(&graph, &Default::default())
        });
        server.add_graph(name.clone(), graph.clone());
        lineages.push(Lineage {
            state: GraphState::new(graph),
            hints: Hints::new(),
            prev: None,
        });
    }
    let (tx, rx): (_, Receiver<(Instant, Vec<u8>)>) = channel();
    let sink: ResponseSink = Arc::new(Mutex::new(StampSink {
        tx,
        buf: Vec::new(),
    }));
    let mut cache = SolveCache::new(ServerConfig::default().cache_bytes);

    let warm = inputs
        .warmup
        .iter()
        .enumerate()
        .map(|(i, r)| ((i + 1) as u64, r));
    let stream = (0..count).filter_map(|p| inputs.at(p).map(|r| (inputs.stream_id(p), r)));
    let mut replayed = 0;
    for (id, req) in warm.chain(stream) {
        if id > inputs.warmup.len() as u64 {
            replayed += 1;
        }
        let line = req.line(id);
        let line = line.trim_end();
        let t0 = Instant::now();
        server.handle_line(line, &sink);
        let (t1, resp) = rx
            .recv_timeout(Duration::from_secs(60))
            .map_err(|_| format!("in-process server gave no response to request {id}"))?;
        let root = Some(rec.record("server.handle_line", id, None, t0, t1));

        let (_, parse) = rec.time("protocol.parse_request", id, root, || {
            protocol::parse_request(line)
        });
        rec.time("json.parse", id, Some(parse), || {
            domatic_telemetry::json::parse(line)
        })
        .0
        .map_err(|e| format!("request {id} is not JSON: {e}"))?;
        let result = result_of(id, &resp)?;
        let payload = raw_result(id, &resp)?;
        match &req.kind {
            Kind::Mutate { graph, delta } => {
                let lin = &mut lineages[*graph];
                let (applied, _) = rec.time("incremental.apply", id, root, || {
                    delta.apply(&lin.state.graph)
                });
                applied.map_err(|e| format!("replayed mutation rejected: {e}"))?;
                let old = lin.state.hash;
                lin.state.apply(delta)?;
                rec.time("hash.versioned_graph_hash", id, root, || {
                    versioned_graph_hash(&lin.state.graph, &lin.state.overrides)
                });
                // Mirror the server's lineage invalidation on the harness cache.
                let live: Vec<u64> = lineages.iter().map(|l| l.state.hash).collect();
                if !live.contains(&old) {
                    cache.retire_graphs(&[old]);
                }
                cache.revive_graphs(&live);
                let lin = &mut lineages[*graph];
                let hints = std::mem::take(&mut lin.hints);
                lin.prev = Some((delta.clone(), hints));
            }
            kind @ (Kind::Solve { graph, .. } | Kind::Bounds { graph, .. }) => {
                let lin = &mut lineages[*graph];
                let key = cache_key(kind, lin.state.hash);
                let (hit, _) = rec.time("cache.get", id, root, || cache.get(key));
                if hit.is_none() {
                    if let Kind::Solve {
                        alg,
                        b,
                        seed,
                        trials,
                        ..
                    } = kind
                    {
                        let solver = make_solver(alg).map_err(|e| e.to_string())?;
                        let cfg = SolverConfig::new().seed(*seed).trials(*trials);
                        let batteries = lin.state.batteries(*b);
                        let g = &lin.state.graph;
                        let point = (*alg, *b, *seed, *trials);
                        let hint = lin
                            .prev
                            .as_ref()
                            .and_then(|(d, h)| h.get(&point).map(|s| (d, s)));
                        let schedule = match hint {
                            Some((delta, prev)) => {
                                let (out, repair) =
                                    rec.time("incremental.repair", id, root, || {
                                        repair_schedule(
                                            g,
                                            &batteries,
                                            prev,
                                            delta,
                                            solver.as_ref(),
                                            &cfg,
                                        )
                                    });
                                rec.time(schedule_span(alg), id, Some(repair), || {
                                    solver.schedule(g, &batteries, &cfg)
                                })
                                .0
                                .map_err(|e| e.to_string())?;
                                out.map_err(|e| e.to_string())?.schedule
                            }
                            None => {
                                let (out, _) = rec.time(schedule_span(alg), id, root, || {
                                    solver.schedule(g, &batteries, &cfg)
                                });
                                out.map_err(|e| e.to_string())?
                            }
                        };
                        rec.time("solver.upper_bound", id, root, || {
                            solver.upper_bound(g, &batteries, &cfg)
                        });
                        lin.hints.insert(point, schedule);
                    }
                    let graph_hash = lin.state.hash;
                    let value: Arc<str> = payload.as_str().into();
                    rec.time("cache.insert", id, root, || {
                        cache.insert(key, graph_hash, value)
                    });
                }
                if let Kind::Solve { b, .. } = kind {
                    let schedule = parse_schedule(&result, lin.state.graph.n())?;
                    let batteries = lin.state.batteries(*b);
                    let (valid, _) = rec.time("schedule.validate", id, None, || {
                        validate_schedule(&lin.state.graph, &batteries, &schedule, 1)
                    });
                    valid.map_err(|v| format!("replayed solve is invalid: {v}"))?;
                }
            }
        }
        rec.time("protocol.ok_line", id, root, || {
            protocol::ok_line(id, &payload)
        });
    }
    let lineage_len = files
        .iter()
        .filter_map(|(name, _)| server.graph_lineage(name))
        .map(|(_, _, ancestors)| ancestors.len() as u64)
        .sum();
    server.drain();
    Ok(ReplayOut {
        replayed,
        lineage_len,
    })
}
