//! `domatic` serving benchmark.
//!
//! ```text
//! perfbench --workload hot-read|cold-solve|churn --seed N --seconds S --trace 0|1
//!           --server PATH/TO/domatic [--out DIR]
//! ```
//!
//! Starts the real `domatic serve` binary with its default knobs, drives it
//! over TCP from one thread, checks every response, and prints one JSON
//! report line followed by the result line
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` runs the traced variant
//! and reports the per-layer breakdown. See README.md.

mod client;
mod gen;
mod oracle;
mod proc;
mod spans;
mod stats;
mod traced;

use client::{drive, Conn, Pace};
use gen::{Inputs, Kind, Workload};
use oracle::{Kept, Verdict};
use proc::ServerProc;
use spans::Recorder;
use stats::{median, quantile_of};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// End-to-end metrics (`--trace 0`), as listed in BENCHMARK.json.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_rps", "req/s"),
    ("latency_p50_us", "us"),
    ("server_cpu_us_per_req", "us"),
    ("peak_rss_mb", "MiB"),
    ("lifetime_ratio", "ratio"),
];

/// Per-layer metrics (`--trace 1`), as listed in BENCHMARK.json. A layer a
/// workload never reaches reports 0.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("e2e.latency_p99_us", "us"),
    ("client.cpu_share", "ratio"),
    ("client.send_lag_p99_us", "us"),
    ("client.trace_overhead_us", "us"),
    ("transport.gap_p50_us", "us"),
    ("protocol.parse_request_ns_p50", "ns"),
    ("json.parse_ns_p50", "ns"),
    ("protocol.ok_line_ns_p50", "ns"),
    ("server.handle_line_us_p50", "us"),
    ("server.handle_line_us_p99", "us"),
    ("server.self_us_p50", "us"),
    ("server.cache_hits", "count"),
    ("server.cache_misses", "count"),
    ("server.batch_joined", "count"),
    ("server.solves", "count"),
    ("server.shed_miss", "count"),
    ("server.shed_join", "count"),
    ("server.deadline_expired", "count"),
    ("server.errors", "count"),
    ("server.solves_per_miss", "ratio"),
    ("server.repairs", "count"),
    ("server.repair_fallbacks", "count"),
    ("server.lineage_invalidations", "count"),
    ("server.mutations", "count"),
    ("server.lineage_len", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.lookups", "count"),
    ("cache.get_ns_p50", "ns"),
    ("cache.insert_ns_p50", "ns"),
    ("cache.evictions", "count"),
    ("cache.bytes", "bytes"),
    ("solver.schedule_us_p50.uniform", "us"),
    ("solver.schedule_us_p50.general", "us"),
    ("solver.schedule_us_p50.greedy", "us"),
    ("solver.upper_bound_us_p50", "us"),
    ("solver.lifetime_ratio.uniform", "ratio"),
    ("solver.lifetime_ratio.general", "ratio"),
    ("solver.lifetime_ratio.greedy", "ratio"),
    ("schedule.validate_us_p50", "us"),
    ("incremental.apply_us_p50", "us"),
    ("hash.versioned_graph_hash_us_p50", "us"),
    ("incremental.repair_us_p50", "us"),
    ("churn.mutate_p50_us", "us"),
    ("churn.mutate_p99_us", "us"),
    ("churn.resolve_p50_us", "us"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// `hot-read` keeps (and fully re-checks) the responses of this many
/// leading stream positions; later ones are compared byte-for-byte with
/// the warm-up response for the same key. The run digest covers them.
const KEEP_PREFIX: usize = 1024;
/// A run whose client used more than this share of a core was limited by
/// the client, and is reported invalid.
const CLIENT_CPU_LIMIT: f64 = 0.9;
/// An open-loop run whose median send ran this late (µs) did not offer the
/// load it claims, and is reported invalid.
const SEND_LAG_LIMIT_US: f64 = 1000.0;
const RPC_TIMEOUT: Duration = Duration::from_secs(60);
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);
/// Client spans written to `spans.jsonl`. A `hot-read` window records
/// over a million; all are kept in memory (that is the traced cost), and
/// the first ten thousand show the pattern on disk.
const CLIENT_SPANS_WRITTEN: usize = 10_000;
/// Ids for out-of-band requests (`stats`, `shutdown`), above any stream id.
const OOB_ID: u64 = 1 << 40;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut server = None;
    let mut out = PathBuf::from("perfbench/out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && *s <= 120.0)
                        .ok_or("--seconds takes a number in (0, 120]")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--server" => server = Some(PathBuf::from(value)),
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        server: server.ok_or("--server is required")?,
        out,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok((report, result)) => {
            println!("{report}");
            println!("{result}");
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// A server after set-up, with the workload's connections open.
struct Live {
    server: ServerProc,
    conns: Vec<Conn>,
    warm: Vec<Vec<u8>>,
}

fn setup(
    args: &Args,
    inputs: &Inputs,
    files: &[(String, PathBuf)],
    log: &Path,
) -> Result<(Live, f64), String> {
    let t0 = Instant::now();
    let server =
        ServerProc::spawn(&args.server, files, log).map_err(|e| format!("spawning server: {e}"))?;
    let n_conns = if inputs.workload == Workload::Churn {
        1
    } else {
        2
    };
    let mut conns = (0..n_conns)
        .map(|_| Conn::connect(server.addr))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connecting: {e}"))?;
    let mut warm = Vec::with_capacity(inputs.warmup.len());
    for (i, req) in inputs.warmup.iter().enumerate() {
        let id = i as u64 + 1;
        let resp = conns[0]
            .rpc(id, &req.line(id), RPC_TIMEOUT)
            .map_err(|e| format!("warm-up: {e}"))?;
        warm.push(resp.into_bytes());
    }
    Ok((
        Live {
            server,
            conns,
            warm,
        },
        t0.elapsed().as_secs_f64(),
    ))
}

fn server_stats(conn: &mut Conn, id: u64) -> Result<BTreeMap<String, u64>, String> {
    let resp = conn
        .rpc(
            id,
            &format!("{{\"id\":{id},\"op\":\"stats\"}}\n"),
            RPC_TIMEOUT,
        )
        .map_err(|e| format!("stats: {e}"))?;
    match oracle::result_of(id, resp.as_bytes())? {
        domatic_telemetry::json::Json::Obj(map) => Ok(map
            .into_iter()
            .filter_map(|(k, v)| Some((k, u64::try_from(v.as_int()?).ok()?)))
            .collect()),
        _ => Err("stats result is not an object".into()),
    }
}

fn shutdown(mut live: Live, id: u64) -> Result<(), String> {
    live.conns[0]
        .rpc(
            id,
            &format!("{{\"id\":{id},\"op\":\"shutdown\"}}\n"),
            RPC_TIMEOUT,
        )
        .map_err(|e| format!("shutdown: {e}"))?;
    drop(live.conns);
    match live.server.wait_exit(Duration::from_secs(30)) {
        Ok(true) => Ok(()),
        Ok(false) => Err("server did not exit cleanly after shutdown".into()),
        Err(e) => Err(format!("waiting for server: {e}")),
    }
}

/// `line` minus its leading `{"id":N` (what repeats across equal requests).
fn after_id(line: &[u8]) -> &[u8] {
    let rest = line.strip_prefix(b"{\"id\":").unwrap_or(line);
    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    &rest[digits..]
}

/// One completed request, in nanoseconds since its window's epoch
/// (32 bytes, so a busy window's millions of samples stay small).
#[derive(Clone, Copy, Debug)]
struct Timing {
    idx: u64,
    due_ns: u64,
    sent_ns: u64,
    recv_ns: u64,
}

/// One timed window's raw results.
struct Window {
    samples: Vec<Timing>,
    kept: Vec<Kept>,
    /// `hot-read` responses that differed from their key's warm-up bytes.
    mismatches: u64,
    first_mismatch: Option<String>,
    sent: u64,
    in_window: u64,
    missing: u64,
    /// When sending began, in ns since the samples' epoch.
    start_ns: u64,
    elapsed: f64,
    client_cpu: f64,
    server_cpu: f64,
}

fn pace_of(w: Workload) -> Pace {
    match w {
        Workload::HotRead => Pace::Closed {
            window: gen::HOT_READ_WINDOW,
        },
        Workload::ColdSolve => Pace::Open {
            rate: gen::COLD_SOLVE_RATE,
        },
        Workload::Churn => Pace::Closed { window: 1 },
    }
}

/// Drives stream positions `first..` for `seconds`. With `rec`, a client
/// span is recorded per response inside the loop (the traced variant).
fn window(
    live: &mut Live,
    inputs: &Inputs,
    first: u64,
    seconds: f64,
    mut rec: Option<&mut Recorder>,
) -> Result<Window, String> {
    let expected: Vec<&[u8]> = if inputs.cyclic {
        inputs
            .stream
            .iter()
            .map(|r| {
                let w = inputs
                    .warmup
                    .iter()
                    .position(|k| k.body == r.body)
                    .expect("hot-read keys are warmed");
                after_id(&live.warm[w])
            })
            .collect()
    } else {
        Vec::new()
    };
    let mut samples = Vec::with_capacity(1 << 16);
    let epoch = Instant::now();
    let ns = move |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;
    let slice_ns = trace_slice_ns(seconds);
    let mut kept = Vec::new();
    let mut mismatches = 0u64;
    let mut first_mismatch = None;
    let pid = live.server.pid().to_string();
    let cpu = |who: &str| proc::cpu_seconds(who).map_err(|e| format!("/proc/{who}/stat: {e}"));
    let (s0, c0) = (cpu(&pid)?, cpu("self")?);
    let limit = (!inputs.cyclic).then_some(inputs.stream.len() as u64);
    let driven = drive(
        &mut live.conns,
        &pace_of(inputs.workload),
        first,
        limit,
        seconds,
        DRAIN_TIMEOUT,
        &mut |idx| {
            let id = inputs.stream_id(idx as usize);
            (
                id,
                inputs
                    .at(idx as usize)
                    .expect("driven positions exist")
                    .line(id),
            )
        },
        &mut |s, line| {
            samples.push(Timing {
                idx: s.idx,
                due_ns: ns(s.due),
                sent_ns: ns(s.sent),
                recv_ns: ns(s.recv),
            });
            let pos = s.idx as usize;
            let id = inputs.stream_id(pos);
            if let Some(r) = rec.as_deref_mut() {
                if in_traced_slice(ns(s.sent), slice_ns) {
                    r.record("client.request", id, None, s.sent, s.recv);
                }
            }
            if !inputs.cyclic || pos < KEEP_PREFIX {
                kept.push(Kept {
                    pos: Some(pos),
                    id,
                    line: line.to_vec(),
                });
            } else if after_id(line) != expected[pos % expected.len()] {
                mismatches += 1;
                if first_mismatch.is_none() {
                    first_mismatch =
                        Some(String::from_utf8_lossy(&line[..line.len().min(200)]).into_owned());
                }
            }
            Ok(())
        },
    )
    .map_err(|e| format!("timed window: {e}"))?;
    let (s1, c1) = (cpu(&pid)?, cpu("self")?);
    let elapsed = driven.elapsed.as_secs_f64();
    Ok(Window {
        samples,
        kept,
        mismatches,
        first_mismatch,
        sent: driven.sent,
        in_window: driven.in_window,
        missing: driven.missing,
        start_ns: ns(driven.start),
        elapsed,
        client_cpu: c1 - c0,
        server_cpu: s1 - s0,
    })
}

/// The traced run alternates untraced and traced slices of its window, so
/// both see the same stretch of the stream and of host conditions; the
/// p50 difference between them is the tracing overhead.
const TRACE_SLICES: f64 = 10.0;

fn trace_slice_ns(seconds: f64) -> u64 {
    ((seconds * 1e9 / TRACE_SLICES) as u64).max(1)
}

/// Whether a request sent at `t_ns` (since its window's epoch) falls in a
/// traced slice.
fn in_traced_slice(t_ns: u64, slice_ns: u64) -> bool {
    (t_ns / slice_ns) % 2 == 1
}

/// Latency (µs) of a sample: from the scheduled send in an open loop,
/// from the actual send in a closed loop.
fn latency_us(w: Workload, s: &Timing) -> f64 {
    let from = if w == Workload::ColdSolve {
        s.due_ns
    } else {
        s.sent_ns
    };
    s.recv_ns.saturating_sub(from) as f64 / 1e3
}

fn p(values: &[f64], q: f64) -> f64 {
    quantile_of(values, q).unwrap_or(0.0)
}

fn counter_delta(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>, key: &str) -> u64 {
    after
        .get(key)
        .copied()
        .unwrap_or(0)
        .saturating_sub(before.get(key).copied().unwrap_or(0))
}

fn is_mutate(inputs: &Inputs, pos: u64) -> bool {
    matches!(
        inputs.at(pos as usize).map(|r| &r.kind),
        Some(Kind::Mutate { .. })
    )
}

/// Everything a run reports beyond its metrics.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    digest: u64,
}

/// Checks the kept responses (warm-up first, then the stream in order)
/// and folds in byte mismatches and missing responses.
fn judge(inputs: &Inputs, warm: &[Vec<u8>], windows: &mut [&mut Window]) -> (Verdict, Outcome) {
    let mut kept: Vec<Kept> = warm
        .iter()
        .enumerate()
        .map(|(i, line)| Kept {
            pos: None,
            id: i as u64 + 1,
            line: line.clone(),
        })
        .collect();
    let mut stream: Vec<Kept> = windows
        .iter_mut()
        .flat_map(|w| std::mem::take(&mut w.kept))
        .collect();
    stream.sort_by_key(|k| k.pos);
    kept.extend(stream);
    let verdict = oracle::check_all(inputs, &kept);
    let digest = oracle::digest(
        kept.iter()
            .filter(|k| k.pos.is_none_or(|p| p < KEEP_PREFIX))
            .map(|k| (k.id, k.line.as_slice())),
    );
    let mismatches: u64 = windows.iter().map(|w| w.mismatches).sum();
    let missing: u64 = windows.iter().map(|w| w.missing).sum();
    let sent: u64 = windows.iter().map(|w| w.sent).sum();
    let mut notes = Vec::new();
    if let Some(f) = &verdict.first_failure {
        notes.push(format!("oracle: {f}"));
    }
    if let Some(m) = windows.iter().find_map(|w| w.first_mismatch.clone()) {
        notes.push(format!("response differs from its warm-up bytes: {m}"));
    }
    if missing > 0 {
        notes.push(format!("{missing} requests got no response"));
    }
    let failed = verdict.failed + mismatches + missing;
    let outcome = Outcome {
        correct: failed == 0,
        attempted: sent + warm.len() as u64,
        failed,
        notes,
        digest,
    };
    (verdict, outcome)
}

/// Fails the run when the workload's premise did not hold over stream
/// positions `0..sent`.
fn check_premise(
    inputs: &Inputs,
    sent: u64,
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
    out: &mut Outcome,
) {
    let d = |k: &str| counter_delta(before, after, k);
    let broken = match inputs.workload {
        Workload::HotRead => (d("solves") != 0).then(|| {
            format!(
                "hot-read ran {} solves; every request must hit",
                d("solves")
            )
        }),
        Workload::ColdSolve => (d("cache_hits") != 0).then(|| {
            format!(
                "cold-solve had {} cache hits; every key must be new",
                d("cache_hits")
            )
        }),
        Workload::Churn => {
            let planned = (0..sent).filter(|&p| is_mutate(inputs, p)).count() as u64;
            (d("mutations") != planned)
                .then(|| format!("churn applied {} mutations, sent {planned}", d("mutations")))
        }
    };
    if let Some(msg) = broken {
        out.correct = false;
        out.notes.push(format!("premise: {msg}"));
    }
}

/// Fails the run when the client, not the server, set the pace: the
/// client thread used most of a core, or an open-loop generator ran late
/// for most of its sends (latency is charged from the scheduled time, so
/// occasional late wake-ups under CPU contention still count against the
/// server, not as invalid).
fn check_client(inputs: &Inputs, cpu_share: f64, lag_p50_us: f64, out: &mut Outcome) {
    if cpu_share > CLIENT_CPU_LIMIT {
        out.correct = false;
        out.notes.push(format!(
            "client-bound: client used {cpu_share:.2} of a core"
        ));
    }
    if inputs.workload == Workload::ColdSolve && lag_p50_us > SEND_LAG_LIMIT_US {
        out.correct = false;
        out.notes.push(format!(
            "client-bound: open-loop sends ran {lag_p50_us:.0} us late at p50"
        ));
    }
}

fn latencies(w: Workload, samples: &[Timing]) -> Vec<f64> {
    samples.iter().map(|s| latency_us(w, s)).collect()
}

/// Sub-windows per timed window. Latency percentiles and throughput are
/// medians over them, so one burst of host noise moves one sub-window,
/// not the run. `churn` completes too few updates for a p99 per part.
fn sub_windows(w: Workload) -> usize {
    match w {
        Workload::HotRead => 10,
        Workload::ColdSolve => 3,
        Workload::Churn => 1,
    }
}

/// `(latency p50, latency p99, throughput, smallest sub-window sample
/// count)` of a timed window, each the median over its sub-windows.
fn split_figures(inputs: &Inputs, w: &Window) -> (f64, f64, f64, usize) {
    let k = sub_windows(inputs.workload);
    if k == 1 {
        let lat = request_latencies(inputs, &w.samples);
        return (
            p(&lat, 0.5),
            p(&lat, 0.99),
            w.in_window as f64 / w.elapsed,
            lat.len(),
        );
    }
    let part = w.elapsed / k as f64;
    let slot = |t_ns: u64| -> Option<usize> {
        let i = (t_ns.saturating_sub(w.start_ns) as f64 / 1e9 / part) as usize;
        (i < k).then_some(i)
    };
    let mut lat = vec![Vec::new(); k];
    let mut done = vec![0u64; k];
    for s in &w.samples {
        lat[slot(s.due_ns).unwrap_or(k - 1)].push(latency_us(inputs.workload, s));
        if let Some(i) = slot(s.recv_ns) {
            done[i] += 1;
        }
    }
    let p50: Vec<f64> = lat.iter().map(|l| p(l, 0.5)).collect();
    let p99: Vec<f64> = lat.iter().map(|l| p(l, 0.99)).collect();
    let rate: Vec<f64> = done.iter().map(|&d| d as f64 / part).collect();
    let fewest = lat.iter().map(Vec::len).min().unwrap_or(0);
    (median(&p50), median(&p99), median(&rate), fewest)
}

/// Stream position → the request a user waits on. In `churn` that is one
/// controller update: a `mutate` and the `solve` after it.
fn unit_of(inputs: &Inputs, pos: u64) -> u64 {
    if inputs.workload == Workload::Churn {
        pos / 2
    } else {
        pos
    }
}

/// End-to-end latency (µs) per user request. A churn update is timed from
/// its `mutate`'s send to its `solve`'s response.
fn request_latencies(inputs: &Inputs, samples: &[Timing]) -> Vec<f64> {
    if inputs.workload != Workload::Churn {
        return latencies(inputs.workload, samples);
    }
    let mut sorted: Vec<&Timing> = samples.iter().collect();
    sorted.sort_by_key(|s| s.idx);
    sorted
        .windows(2)
        .filter(|w| is_mutate(inputs, w[0].idx) && w[1].idx == w[0].idx + 1)
        .map(|w| w[1].recv_ns.saturating_sub(w[0].sent_ns) as f64 / 1e3)
        .collect()
}

fn send_lags(samples: &[Timing]) -> Vec<f64> {
    samples
        .iter()
        .map(|s| s.sent_ns.saturating_sub(s.due_ns) as f64 / 1e3)
        .collect()
}

fn write_inputs(inputs: &Inputs, dir: &Path) -> Result<Vec<(String, PathBuf)>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut files = Vec::new();
    for (name, text) in inputs.graph_files() {
        let path = dir.join(format!("{name}.txt"));
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        files.push((name, path));
    }
    Ok(files)
}

type Metrics = BTreeMap<&'static str, f64>;
type Counts = BTreeMap<String, u64>;

fn run(args: &Args) -> Result<(String, String), String> {
    let inputs = gen::generate(args.workload, args.seed, args.seconds);
    let dir = args
        .out
        .join(format!("{}-{}", args.workload.name(), args.seed));
    // Start from an empty directory, so no file of an earlier run with
    // other settings passes for this run's output.
    let _ = std::fs::remove_dir_all(&dir);
    let files = write_inputs(&inputs, &dir)?;
    let (outcome, metrics, counts) = if args.trace {
        traced_run(args, &inputs, &files, &dir)?
    } else {
        timed_run(args, &inputs, &files, &dir)?
    };
    let mut metrics = metrics;
    metrics.insert(
        "error_rate",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
    );
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let result = result_line(&outcome, table, &metrics);
    let report = report_line(args, &outcome, &metrics, &counts);
    let path = dir.join(format!("report-trace{}.json", u8::from(args.trace)));
    std::fs::write(&path, format!("{report}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((report, result))
}

/// The timed run: set up `SETUP_REPS` times, time one window, check.
fn timed_run(
    args: &Args,
    inputs: &Inputs,
    files: &[(String, PathBuf)],
    dir: &Path,
) -> Result<(Outcome, Metrics, Counts), String> {
    let log = dir.join("server.log");
    let mut setups = Vec::new();
    let mut live = None;
    for rep in 0..SETUP_REPS {
        let (l, secs) = setup(args, inputs, files, &log)?;
        setups.push(secs);
        if rep + 1 < SETUP_REPS {
            shutdown(l, OOB_ID)?;
        } else {
            live = Some(l);
        }
    }
    let mut live = live.expect("at least one set-up");
    let before = server_stats(&mut live.conns[0], OOB_ID + 1)?;
    let mut w = window(&mut live, inputs, 0, args.seconds, None)?;
    let after = server_stats(&mut live.conns[0], OOB_ID + 2)?;
    let rss = proc::peak_rss_mib(live.server.pid()).map_err(|e| format!("VmHWM: {e}"))?;
    let warm = std::mem::take(&mut live.warm);
    shutdown(live, OOB_ID + 3)?;

    let (verdict, mut out) = judge(inputs, &warm, &mut [&mut w]);
    check_premise(inputs, w.sent, &before, &after, &mut out);
    let (p50, p99, throughput, fewest) = split_figures(inputs, &w);
    let lag = send_lags(&w.samples);
    let cpu_share = w.client_cpu / w.elapsed;
    check_client(inputs, cpu_share, p(&lag, 0.5), &mut out);
    let ratio = verdict.lifetime_ratio();
    if ratio.is_none() {
        out.correct = false;
        out.notes.push(format!(
            "fewer than {} checked solves",
            oracle::QUALITY_SOLVES
        ));
    }
    let mut metrics = Metrics::new();
    let mut counts = Counts::new();
    metrics.insert("setup_s", median(&setups));
    metrics.insert(
        "setup_s.min",
        setups.iter().copied().fold(f64::INFINITY, f64::min),
    );
    metrics.insert("setup_s.max", setups.iter().copied().fold(0.0, f64::max));
    metrics.insert("throughput_rps", throughput);
    metrics.insert("latency_p50_us", p50);
    metrics.insert("latency_p99_us", p99);
    metrics.insert(
        "server_cpu_us_per_req",
        w.server_cpu * 1e6 / (w.samples.len().max(1) as f64),
    );
    metrics.insert("peak_rss_mb", rss);
    metrics.insert("lifetime_ratio", ratio.unwrap_or(0.0));
    let whole = request_latencies(inputs, &w.samples);
    metrics.insert("latency_p50_us.whole", p(&whole, 0.5));
    metrics.insert("latency_p99_us.whole", p(&whole, 0.99));
    counts.insert(
        "latency_sub_windows".into(),
        sub_windows(inputs.workload) as u64,
    );
    counts.insert("latency_samples_per_sub_window_min".into(), fewest as u64);
    counts.insert("setup_samples".into(), setups.len() as u64);
    counts.insert("lifetime_solves".into(), oracle::QUALITY_SOLVES as u64);
    counts.insert("checked_responses".into(), verdict.checked);
    client_metrics(inputs, &w, &mut metrics, &mut counts);
    for k in [
        "solves",
        "cache_hits",
        "cache_misses",
        "batch_joined",
        "mutations",
        "cache_evictions",
    ] {
        counts.insert(format!("server.{k}"), counter_delta(&before, &after, k));
    }
    Ok((out, metrics, counts))
}

/// The traced run: an untraced window, then a window with client spans,
/// then the in-process replay that splits the server's time into layers.
fn traced_run(
    args: &Args,
    inputs: &Inputs,
    files: &[(String, PathBuf)],
    dir: &Path,
) -> Result<(Outcome, Metrics, Counts), String> {
    let mut rec = Recorder::new(Instant::now());
    let (mut live, _) = setup(args, inputs, files, &dir.join("server.log"))?;
    let before = server_stats(&mut live.conns[0], OOB_ID + 1)?;
    let mut w = window(&mut live, inputs, 0, args.seconds, Some(&mut rec))?;
    let after = server_stats(&mut live.conns[0], OOB_ID + 2)?;
    let warm = std::mem::take(&mut live.warm);
    shutdown(live, OOB_ID + 3)?;

    let (verdict, mut out) = judge(inputs, &warm, &mut [&mut w]);
    check_premise(inputs, w.sent, &before, &after, &mut out);
    let slice_ns = trace_slice_ns(args.seconds);
    let (traced, plain): (Vec<Timing>, Vec<Timing>) = w
        .samples
        .iter()
        .partition(|s| in_traced_slice(s.sent_ns, slice_ns));
    let lat_plain = request_latencies(inputs, &plain);
    let lat_traced = request_latencies(inputs, &traced);
    let lag = send_lags(&w.samples);
    check_client(inputs, w.client_cpu / w.elapsed, p(&lag, 0.5), &mut out);

    let replay_count = match args.workload {
        Workload::HotRead => 4000,
        Workload::ColdSolve | Workload::Churn => 300,
    };
    let replay = traced::replay(inputs, files, replay_count, &mut rec)?;
    let spans_path = dir.join("spans.jsonl");
    let mut f = std::io::BufWriter::new(
        std::fs::File::create(&spans_path).map_err(|e| format!("{}: {e}", spans_path.display()))?,
    );
    let mut client_spans = 0;
    let written: Vec<spans::Span> = rec
        .spans
        .iter()
        .filter(|s| {
            client_spans += usize::from(s.name == "client.request");
            s.name != "client.request" || client_spans <= CLIENT_SPANS_WRITTEN
        })
        .cloned()
        .collect();
    spans::write_jsonl(&written, &mut f).map_err(|e| format!("{}: {e}", spans_path.display()))?;

    let mut metrics = Metrics::new();
    let mut counts = Counts::new();
    client_metrics(inputs, &w, &mut metrics, &mut counts);
    metrics.insert(
        "client.trace_overhead_us",
        p(&lat_traced, 0.5) - p(&lat_plain, 0.5),
    );
    metrics.insert("e2e.latency_p99_us", p(&lat_plain, 0.99));

    // Server time per user request (a churn update sums its two lines),
    // over stream requests only: the warm-up's misses would otherwise blur
    // hot-read's all-hit profile.
    let warm_ids = inputs.warmup.len() as u64;
    let selfs = spans::self_times(&rec.spans);
    let mut units: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
    for (s, own) in rec.spans.iter().zip(&selfs) {
        if s.name == "server.handle_line" && s.req > warm_ids {
            let unit = units
                .entry(unit_of(inputs, s.req - warm_ids - 1))
                .or_default();
            unit.0 += s.dur_ns() as f64 / 1e3;
            unit.1 += *own as f64 / 1e3;
        }
    }
    let handle: Vec<f64> = units.values().map(|u| u.0).collect();
    let self_us: Vec<f64> = units.values().map(|u| u.1).collect();
    let span_p50 = |name: &str, scale: f64| -> f64 {
        let d: Vec<f64> = rec
            .durations(name)
            .iter()
            .map(|&ns| ns as f64 / scale)
            .collect();
        p(&d, 0.5)
    };
    metrics.insert("transport.gap_p50_us", p(&lat_plain, 0.5) - p(&handle, 0.5));
    metrics.insert(
        "protocol.parse_request_ns_p50",
        span_p50("protocol.parse_request", 1.0),
    );
    metrics.insert("json.parse_ns_p50", span_p50("json.parse", 1.0));
    metrics.insert("protocol.ok_line_ns_p50", span_p50("protocol.ok_line", 1.0));
    metrics.insert("server.handle_line_us_p50", p(&handle, 0.5));
    metrics.insert("server.handle_line_us_p99", p(&handle, 0.99));
    metrics.insert("server.self_us_p50", p(&self_us, 0.5));
    metrics.insert("cache.get_ns_p50", span_p50("cache.get", 1.0));
    metrics.insert("cache.insert_ns_p50", span_p50("cache.insert", 1.0));
    for (alg, name) in traced::SCHEDULE_SPANS {
        let key = PER_LAYER
            .iter()
            .find(|(k, _)| k.ends_with(alg) && k.starts_with("solver.schedule"))
            .expect("listed")
            .0;
        metrics.insert(key, span_p50(name, 1e3));
        let (life, bound) = verdict
            .quality
            .iter()
            .filter(|(_, _, q)| q.alg == alg)
            .fold((0u64, 0u64), |(l, b), (_, _, q)| {
                (l + q.lifetime, b + q.bound)
            });
        let key = PER_LAYER
            .iter()
            .find(|(k, _)| k.ends_with(alg) && k.starts_with("solver.lifetime"))
            .expect("listed")
            .0;
        metrics.insert(
            key,
            if bound > 0 {
                life as f64 / bound as f64
            } else {
                0.0
            },
        );
    }
    metrics.insert(
        "solver.upper_bound_us_p50",
        span_p50("solver.upper_bound", 1e3),
    );
    metrics.insert(
        "schedule.validate_us_p50",
        span_p50("schedule.validate", 1e3),
    );
    metrics.insert(
        "incremental.apply_us_p50",
        span_p50("incremental.apply", 1e3),
    );
    metrics.insert(
        "hash.versioned_graph_hash_us_p50",
        span_p50("hash.versioned_graph_hash", 1e3),
    );
    metrics.insert(
        "incremental.repair_us_p50",
        span_p50("incremental.repair", 1e3),
    );

    let d = |k: &str| counter_delta(&before, &after, k) as f64;
    for (key, counter) in [
        ("server.cache_hits", "cache_hits"),
        ("server.cache_misses", "cache_misses"),
        ("server.batch_joined", "batch_joined"),
        ("server.solves", "solves"),
        ("server.shed_miss", "shed_miss"),
        ("server.shed_join", "shed_join"),
        ("server.deadline_expired", "deadline_expired"),
        ("server.errors", "errors"),
        ("server.repairs", "repairs"),
        ("server.repair_fallbacks", "repair_fallbacks"),
        ("server.lineage_invalidations", "lineage_invalidations"),
        ("server.mutations", "mutations"),
        ("cache.evictions", "cache_evictions"),
    ] {
        metrics.insert(key, d(counter));
    }
    let lookups = d("cache_hits") + d("cache_misses") + d("batch_joined");
    metrics.insert(
        "server.solves_per_miss",
        if d("cache_misses") > 0.0 {
            d("solves") / d("cache_misses")
        } else {
            0.0
        },
    );
    metrics.insert("server.lineage_len", replay.lineage_len as f64);
    metrics.insert("cache.lookups", lookups);
    metrics.insert(
        "cache.hit_ratio",
        if lookups > 0.0 {
            d("cache_hits") / lookups
        } else {
            0.0
        },
    );
    metrics.insert(
        "cache.bytes",
        after.get("cache_bytes").copied().unwrap_or(0) as f64,
    );

    counts.insert("latency_samples.untraced".into(), lat_plain.len() as u64);
    counts.insert("latency_samples.traced".into(), lat_traced.len() as u64);
    counts.insert("replayed_requests".into(), replay.replayed as u64);
    counts.insert("server.handle_line_samples".into(), handle.len() as u64);
    let mut by_name: BTreeMap<&str, u64> = BTreeMap::new();
    for s in &rec.spans {
        *by_name.entry(s.name).or_default() += 1;
    }
    for (name, n) in by_name {
        counts.insert(format!("spans.{name}"), n);
    }
    Ok((out, metrics, counts))
}

/// Client-side numbers every run records.
fn client_metrics(inputs: &Inputs, w: &Window, metrics: &mut Metrics, counts: &mut Counts) {
    metrics.insert("client.cpu_share", w.client_cpu / w.elapsed);
    metrics.insert("client.send_lag_p99_us", p(&send_lags(&w.samples), 0.99));
    if inputs.workload == Workload::Churn {
        let (mutates, solves): (Vec<Timing>, Vec<Timing>) =
            w.samples.iter().partition(|s| is_mutate(inputs, s.idx));
        let (m, r) = (
            latencies(inputs.workload, &mutates),
            latencies(inputs.workload, &solves),
        );
        metrics.insert("churn.mutate_p50_us", p(&m, 0.5));
        metrics.insert("churn.mutate_p99_us", p(&m, 0.99));
        metrics.insert("churn.resolve_p50_us", p(&r, 0.5));
        counts.insert("churn.mutate_samples".into(), m.len() as u64);
        counts.insert("churn.resolve_samples".into(), r.len() as u64);
    }
}

fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The last stdout line: exactly `correct`, `attempted`, `failed`, and the
/// metrics of `table`.
fn result_line(
    out: &Outcome,
    table: &[(&str, &str)],
    metrics: &BTreeMap<&'static str, f64>,
) -> String {
    let fields: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = metrics.get(name).copied().unwrap_or(0.0);
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                esc(name),
                num(v),
                esc(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        fields.join(",")
    )
}

/// The full report: stamp, outcome, every metric recorded, sample counts.
fn report_line(
    args: &Args,
    out: &Outcome,
    metrics: &BTreeMap<&'static str, f64>,
    counts: &BTreeMap<String, u64>,
) -> String {
    let sha = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let m: Vec<String> = metrics
        .iter()
        .map(|(k, v)| format!("{}:{}", esc(k), num(*v)))
        .collect();
    let c: Vec<String> = counts
        .iter()
        .map(|(k, v)| format!("{}:{v}", esc(k)))
        .collect();
    let notes: Vec<String> = out.notes.iter().map(|n| esc(n)).collect();
    format!(
        "{{\"report\":\"perfbench\",\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"git_sha\":{},\"date\":{},\"nproc\":{nproc},\"server_bin\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"digest\":\"{:016x}\",\"notes\":[{}],\"metrics\":{{{}}},\"samples\":{{{}}}}}",
        esc(args.workload.name()),
        args.seed,
        num(args.seconds),
        args.trace,
        esc(&sha),
        esc(&utc_now()),
        esc(&args.server.display().to_string()),
        out.correct,
        out.attempted,
        out.failed,
        out.digest,
        notes.join(","),
        m.join(","),
        c.join(","),
    )
}

/// The current UTC time as `YYYY-MM-DDTHH:MM:SSZ`.
fn utc_now() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs()) as i64;
    let (days, rem) = (secs.div_euclid(86_400), secs.rem_euclid(86_400));
    // Civil-from-days (Howard Hinnant's algorithm).
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem / 60 % 60,
        rem % 60
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use domatic_telemetry::json::{self, Json};

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        let Some(Json::Arr(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no '{key}' list");
        };
        items
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .expect("name and unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(&PER_LAYER));
        let Some(Json::Arr(workloads)) = doc.get("workloads") else {
            panic!("no workloads");
        };
        let names: Vec<&str> = workloads
            .iter()
            .filter_map(|w| w.get("name")?.as_str())
            .collect();
        // `hot-read` runs but is not gated; see README.md.
        assert_eq!(names, ["cold-solve", "churn"]);
        assert!(names.iter().all(|n| Workload::parse(n).is_some()));
    }

    #[test]
    fn utc_stamp_has_iso_shape() {
        let s = utc_now();
        assert_eq!(s.len(), 20, "{s}");
        assert!(s.ends_with('Z') && s.as_bytes()[10] == b'T', "{s}");
    }

    #[test]
    fn after_id_strips_only_the_id() {
        assert_eq!(after_id(br#"{"id":123,"ok":true}"#), br#","ok":true}"#);
        assert_eq!(client::response_id(br#"{"id":123,"ok":true}"#), Some(123));
    }
}
