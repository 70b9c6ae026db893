//! The wire protocol: JSON-lines requests in, JSON-lines responses out.
//!
//! A request is one JSON object per line:
//!
//! ```json
//! {"id":1,"op":"solve","graph":"ring","alg":"greedy","b":3,"seed":0}
//! ```
//!
//! | field         | ops              | default   | meaning |
//! |---------------|------------------|-----------|---------|
//! | `id`          | all              | required  | echoed on the response |
//! | `op`          | all              | required  | `solve`, `bounds`, `adapt`, `mutate`, `stats`, `metrics`, `profile`, `ping`, `shutdown` |
//! | `graph`       | solve/bounds/adapt/mutate | required | a graph name preloaded at server start |
//! | `alg`         | solve/adapt      | `uniform` | a [`solver_registry`] name |
//! | `solver`      | solve/adapt      | —         | alias for `alg`; if both appear they must agree |
//! | `b`           | solve/bounds/adapt | 3       | uniform battery level |
//! | `k`           | solve/bounds/adapt | 1       | domination tolerance |
//! | `seed`        | solve/adapt      | 0         | base seed |
//! | `trials`      | solve/adapt      | 8         | best-of-R restarts, at most 1024: each restart is a whole solve |
//! | `c`           | solve/adapt      | 3.0       | the paper's range constant |
//! | `hops`        | solve/bounds     | 1         | coverage radius (d-hop domination) |
//! | `deadline_ms` | solve/bounds/adapt | none    | per-request deadline |
//! | `budget_ms`   | solve/adapt      | none      | anytime-solver wall-clock budget (`SolverConfig::budget`) |
//! | `failures`    | adapt            | `crash`   | failure model list |
//! | `p`           | adapt            | 0.02      | per-slot failure probability |
//! | `slots`       | adapt            | 10000     | simulated slot budget |
//! | `action`      | mutate           | required  | `add_node`, `remove_node`, `add_edge`, `remove_edge`, `set_battery` |
//! | `node`        | mutate           | —         | node id for `remove_node` / `set_battery` |
//! | `value`       | mutate           | —         | battery level for `set_battery` |
//! | `u`, `v`      | mutate           | —         | edge endpoints for `add_edge` / `remove_edge` |
//! | `neighbors`   | mutate           | `[]`      | neighbor list for `add_node` |
//!
//! Responses are `{"id":N,"ok":true,"result":{…}}` or
//! `{"id":N,"ok":false,"error":{"kind":"…","message":"…"}}`, with
//! `error.kind` drawn from [`DomaticError::kind`]. Response objects are
//! hand-rendered with a fixed field order, so equal requests produce
//! byte-identical lines — the cache stores and replays exactly these
//! bytes.
//!
//! [`solver_registry`]: domatic_core::solver::solver_registry

use domatic_core::error::DomaticError;
use domatic_core::incremental::GraphDelta;
use domatic_core::solver::{Budget, SolverConfig};
use domatic_telemetry::json::{self, Json};

/// What a request asks the server to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Run a registered solver and return the validated schedule.
    Solve,
    /// Report the analytic lifetime upper bounds for an instance.
    Bounds,
    /// Run the adaptive-vs-static comparison under a failure plan.
    Adapt,
    /// Apply one churn delta to a named graph, producing a new version.
    Mutate,
    /// Report the server's counters (requests, cache, batching).
    Stats,
    /// Render the telemetry registry in Prometheus text exposition
    /// format (returned as one JSON string field).
    Metrics,
    /// Return the completed-request trace ring and span aggregates.
    Profile,
    /// Liveness probe.
    Ping,
    /// Begin graceful drain: finish in-flight work, admit nothing new.
    Shutdown,
}

impl Op {
    fn parse(s: &str) -> Option<Op> {
        Some(match s {
            "solve" => Op::Solve,
            "bounds" => Op::Bounds,
            "adapt" => Op::Adapt,
            "mutate" => Op::Mutate,
            "stats" => Op::Stats,
            "metrics" => Op::Metrics,
            "profile" => Op::Profile,
            "ping" => Op::Ping,
            "shutdown" => Op::Shutdown,
            _ => return None,
        })
    }
}

/// A parsed, defaulted request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim.
    pub id: u64,
    /// The operation.
    pub op: Op,
    /// Named graph the request runs against (solve/bounds/adapt).
    pub graph: String,
    /// Solver registry name.
    pub alg: String,
    /// Uniform battery level.
    pub b: u64,
    /// Solver configuration (seed/trials/k/c/hops).
    pub cfg: SolverConfig,
    /// Optional per-request deadline.
    pub deadline_ms: Option<u64>,
    /// Failure model list for `adapt`.
    pub failures: String,
    /// Per-slot failure probability for `adapt`.
    pub p: f64,
    /// Slot budget for `adapt`.
    pub slots: u64,
    /// The churn delta for `mutate` (always `Some` when `op` is
    /// [`Op::Mutate`], `None` otherwise).
    pub delta: Option<GraphDelta>,
}

/// Cap on `trials`, 128× the default of 8. Each restart is a whole
/// solve, and the thread pool collects `best_of`'s whole trial range
/// into memory first, so an uncapped value lets one request line abort
/// the process on a failed allocation.
const MAX_TRIALS: u64 = 1024;

fn bad(message: impl Into<String>) -> DomaticError {
    DomaticError::BadRequest {
        message: message.into(),
    }
}

fn field_u64(obj: &Json, key: &str, default: u64) -> Result<u64, DomaticError> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_int()
            .and_then(|i| u64::try_from(i).ok())
            .ok_or_else(|| bad(format!("field '{key}' must be a non-negative integer"))),
    }
}

fn field_f64(obj: &Json, key: &str, default: f64) -> Result<f64, DomaticError> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| bad(format!("field '{key}' must be a number"))),
    }
}

fn field_str(obj: &Json, key: &str, default: &str) -> Result<String, DomaticError> {
    match obj.get(key) {
        None => Ok(default.to_string()),
        Some(v) => v
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| bad(format!("field '{key}' must be a string"))),
    }
}

/// A required node-id field for `mutate` actions: present, integral,
/// and within `u32` range (the server validates against the actual
/// graph size).
fn field_node(obj: &Json, key: &str) -> Result<u32, DomaticError> {
    obj.get(key)
        .ok_or_else(|| bad(format!("field '{key}' is required for this action")))?
        .as_int()
        .and_then(|i| u32::try_from(i).ok())
        .ok_or_else(|| bad(format!("field '{key}' must be a non-negative integer")))
}

/// Parses the `mutate` delta from `action` plus its per-action fields.
fn parse_delta(obj: &Json) -> Result<GraphDelta, DomaticError> {
    let action = field_str(obj, "action", "")?;
    match action.as_str() {
        "add_node" => {
            let neighbors = match obj.get("neighbors") {
                None => Vec::new(),
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|v| {
                        v.as_int()
                            .and_then(|i| u32::try_from(i).ok())
                            .ok_or_else(|| bad("field 'neighbors' must hold non-negative integers"))
                    })
                    .collect::<Result<Vec<u32>, DomaticError>>()?,
                Some(_) => return Err(bad("field 'neighbors' must be an array")),
            };
            Ok(GraphDelta::AddNode { neighbors })
        }
        "remove_node" => Ok(GraphDelta::RemoveNode {
            node: field_node(obj, "node")?,
        }),
        "add_edge" => Ok(GraphDelta::AddEdge {
            u: field_node(obj, "u")?,
            v: field_node(obj, "v")?,
        }),
        "remove_edge" => Ok(GraphDelta::RemoveEdge {
            u: field_node(obj, "u")?,
            v: field_node(obj, "v")?,
        }),
        "set_battery" => Ok(GraphDelta::SetBattery {
            node: field_node(obj, "node")?,
            value: obj
                .get("value")
                .ok_or_else(|| bad("field 'value' is required for this action"))?
                .as_int()
                .and_then(|i| u64::try_from(i).ok())
                .ok_or_else(|| bad("field 'value' must be a non-negative integer"))?,
        }),
        "" => Err(bad("field 'action' is required for op 'mutate'")),
        other => Err(bad(format!(
            "unknown action '{other}' (add_node|remove_node|add_edge|remove_edge|set_battery)"
        ))),
    }
}

/// Parses one request line. On failure the error is paired with the best
/// `id` that could be recovered from the line (0 if none), so the error
/// response still correlates where possible.
pub fn parse_request(line: &str) -> Result<Request, (u64, DomaticError)> {
    let obj = json::parse(line).map_err(|e| (0, bad(format!("invalid JSON: {e}"))))?;
    if !matches!(obj, Json::Obj(_)) {
        return Err((0, bad("request must be a JSON object")));
    }
    let id = field_u64(&obj, "id", 0).map_err(|e| (0, e))?;
    let fail = |e: DomaticError| (id, e);
    let op_name = field_str(&obj, "op", "").map_err(fail)?;
    let op = Op::parse(&op_name).ok_or_else(|| {
        fail(bad(format!(
            "unknown op '{op_name}' (solve|bounds|adapt|mutate|stats|metrics|profile|ping|shutdown)"
        )))
    })?;
    let graph = field_str(&obj, "graph", "").map_err(fail)?;
    if graph.is_empty() && matches!(op, Op::Solve | Op::Bounds | Op::Adapt | Op::Mutate) {
        return Err(fail(bad("field 'graph' is required for this op")));
    }
    let delta = if op == Op::Mutate {
        Some(parse_delta(&obj).map_err(fail)?)
    } else {
        None
    };
    let trials = field_u64(&obj, "trials", 8).map_err(fail)?;
    if trials > MAX_TRIALS {
        return Err(fail(bad(format!(
            "field 'trials' must be at most {MAX_TRIALS}"
        ))));
    }
    let mut cfg = SolverConfig::new()
        .seed(field_u64(&obj, "seed", 0).map_err(fail)?)
        .trials(trials)
        .k(field_u64(&obj, "k", 1).map_err(fail)? as usize)
        .c(field_f64(&obj, "c", 3.0).map_err(fail)?)
        .hops(field_u64(&obj, "hops", 1).map_err(fail)? as usize);
    // `budget_ms` caps the anytime solvers' refinement wall-clock; it
    // lives in the `SolverConfig` (and therefore in `config_hash`), so
    // the solve cache keys per-budget. Same strictness as `deadline_ms`:
    // present means a non-negative integer, never a silent default.
    if let Some(v) = obj.get("budget_ms") {
        let ms = v
            .as_int()
            .and_then(|i| u64::try_from(i).ok())
            .ok_or_else(|| fail(bad("field 'budget_ms' must be a non-negative integer")))?;
        cfg = cfg.budget(Budget::new().deadline_ms(ms));
    }
    // Parsed once: an absent field means "no deadline", while a present
    // field must be a non-negative integer — a null/float/string never
    // silently defaults.
    let deadline_ms = match obj.get("deadline_ms") {
        None => None,
        Some(v) => Some(
            v.as_int()
                .and_then(|i| u64::try_from(i).ok())
                .ok_or_else(|| fail(bad("field 'deadline_ms' must be a non-negative integer")))?,
        ),
    };
    // `solver` is the preferred spelling going forward; `alg` stays for
    // compatibility. A request naming both with different values is
    // ambiguous and rejected rather than silently resolved.
    let alg = field_str(&obj, "alg", "uniform").map_err(fail)?;
    let alg = match obj.get("solver") {
        None => alg,
        Some(v) => {
            let solver = v
                .as_str()
                .ok_or_else(|| fail(bad("field 'solver' must be a string")))?;
            if obj.get("alg").is_some() && solver != alg {
                return Err(fail(bad(format!(
                    "fields 'alg' ('{alg}') and 'solver' ('{solver}') disagree"
                ))));
            }
            solver.to_string()
        }
    };
    Ok(Request {
        id,
        op,
        graph,
        alg,
        b: field_u64(&obj, "b", 3).map_err(fail)?,
        cfg,
        deadline_ms,
        failures: field_str(&obj, "failures", "crash").map_err(fail)?,
        p: field_f64(&obj, "p", 0.02).map_err(fail)?,
        slots: field_u64(&obj, "slots", 10_000).map_err(fail)?,
        delta,
    })
}

/// The JSON-lines framer: calls `on_line` with every complete line in
/// `buf` (lossy UTF-8, trimmed, blank lines skipped) and drains the
/// consumed prefix, so at most one partial line stays buffered. A line
/// that is valid UTF-8 is borrowed straight from `buf`, never copied.
pub fn drain_lines(buf: &mut Vec<u8>, mut on_line: impl FnMut(&str)) {
    let mut start = 0usize;
    while let Some(pos) = buf[start..].iter().position(|&b| b == b'\n') {
        let end = start + pos;
        let line = String::from_utf8_lossy(&buf[start..end]);
        let line = line.trim();
        if !line.is_empty() {
            on_line(line);
        }
        start = end + 1;
    }
    buf.drain(..start);
}

/// Renders a success response line (no trailing newline). `result` must
/// already be rendered JSON — for cacheable ops it comes verbatim from
/// the cache, which is what makes cached and uncached responses
/// byte-identical.
pub fn ok_line(id: u64, result: &str) -> String {
    format!("{{\"id\":{id},\"ok\":true,\"result\":{result}}}")
}

/// Renders a typed error response line (no trailing newline). An
/// `overloaded` error additionally carries `error.shed_tier` (`"miss"`
/// or `"join"`) so clients can tell ordinary backpressure (retry soon)
/// from severe waiter pressure (back off hard).
pub fn err_line(id: u64, err: &DomaticError) -> String {
    let message = Json::Str(err.to_string()).render();
    if let DomaticError::Overloaded { tier, .. } = err {
        return format!(
            "{{\"id\":{id},\"ok\":false,\"error\":{{\"kind\":\"overloaded\",\"message\":{message},\"shed_tier\":\"{tier}\"}}}}",
        );
    }
    format!(
        "{{\"id\":{id},\"ok\":false,\"error\":{{\"kind\":\"{}\",\"message\":{message}}}}}",
        err.kind()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_solve_request_with_defaults() {
        let r = parse_request(r#"{"id":7,"op":"solve","graph":"ring"}"#).unwrap();
        assert_eq!(r.id, 7);
        assert_eq!(r.op, Op::Solve);
        assert_eq!(r.graph, "ring");
        assert_eq!(r.alg, "uniform");
        assert_eq!(r.b, 3);
        assert_eq!(r.cfg, SolverConfig::new());
        assert_eq!(r.deadline_ms, None);
    }

    #[test]
    fn parses_every_field() {
        let r = parse_request(
            r#"{"id":1,"op":"adapt","graph":"g","alg":"ft","b":5,"k":2,"seed":9,"trials":3,"c":4.5,"hops":2,"deadline_ms":250,"failures":"all","p":0.1,"slots":500}"#,
        )
        .unwrap();
        assert_eq!(r.op, Op::Adapt);
        assert_eq!(r.alg, "ft");
        assert_eq!(r.b, 5);
        assert_eq!(
            r.cfg,
            SolverConfig::new().seed(9).trials(3).k(2).c(4.5).hops(2)
        );
        assert_eq!(r.deadline_ms, Some(250));
        assert_eq!((r.failures.as_str(), r.slots), ("all", 500));
    }

    #[test]
    fn hops_defaults_to_one_and_feeds_the_cache_key() {
        let plain = parse_request(r#"{"id":1,"op":"solve","graph":"g"}"#).unwrap();
        assert_eq!(plain.cfg.hops, 1);
        let wide = parse_request(r#"{"id":1,"op":"solve","graph":"g","hops":2}"#).unwrap();
        assert_eq!(wide.cfg.hops, 2);
        // config_hash covers hops, so cached 1-hop solves can never be
        // replayed for a d-hop request.
        use domatic_core::hash::config_hash;
        assert_ne!(config_hash(&plain.cfg), config_hash(&wide.cfg));
    }

    #[test]
    fn rejects_garbage_with_recovered_id() {
        let (id, e) = parse_request(r#"{"id":42,"op":"nope"}"#).unwrap_err();
        assert_eq!(id, 42);
        assert_eq!(e.kind(), "bad_request");

        let (id, e) = parse_request("not json").unwrap_err();
        assert_eq!(id, 0);
        assert_eq!(e.kind(), "bad_request");

        let (_, e) = parse_request(r#"{"id":1,"op":"solve"}"#).unwrap_err();
        assert!(e.to_string().contains("graph"), "{e}");
    }

    #[test]
    fn deadline_ms_must_be_a_nonnegative_integer_when_present() {
        // Absent → no deadline.
        let r = parse_request(r#"{"id":1,"op":"solve","graph":"g"}"#).unwrap();
        assert_eq!(r.deadline_ms, None);
        // Present and integral → parsed (including explicit 0).
        let r = parse_request(r#"{"id":1,"op":"solve","graph":"g","deadline_ms":0}"#).unwrap();
        assert_eq!(r.deadline_ms, Some(0));
        // null / float / string / negative are rejected, never defaulted.
        for bad_value in ["null", "1.5", "\"100\"", "-3", "true"] {
            let line = format!(
                "{{\"id\":2,\"op\":\"solve\",\"graph\":\"g\",\"deadline_ms\":{bad_value}}}"
            );
            let (id, e) = parse_request(&line).unwrap_err();
            assert_eq!(id, 2, "id still recovered for {bad_value}");
            assert!(
                e.to_string().contains("deadline_ms"),
                "error names the field for {bad_value}: {e}"
            );
        }
    }

    #[test]
    fn solver_field_is_an_alias_for_alg() {
        let r = parse_request(r#"{"id":1,"op":"solve","graph":"g","solver":"tabu"}"#).unwrap();
        assert_eq!(r.alg, "tabu");
        // Agreeing duplicates are fine.
        let r =
            parse_request(r#"{"id":1,"op":"solve","graph":"g","alg":"sa","solver":"sa"}"#).unwrap();
        assert_eq!(r.alg, "sa");
        // Disagreeing duplicates are ambiguous and rejected.
        let (id, e) =
            parse_request(r#"{"id":3,"op":"solve","graph":"g","alg":"greedy","solver":"tabu"}"#)
                .unwrap_err();
        assert_eq!(id, 3);
        assert_eq!(e.kind(), "bad_request");
        assert!(e.to_string().contains("disagree"), "{e}");
        // Non-string solver is a type error, not a default.
        let (_, e) = parse_request(r#"{"id":4,"op":"solve","graph":"g","solver":7}"#).unwrap_err();
        assert!(e.to_string().contains("solver"), "{e}");
    }

    #[test]
    fn budget_ms_lands_in_the_solver_config_and_the_cache_key() {
        let plain = parse_request(r#"{"id":1,"op":"solve","graph":"g"}"#).unwrap();
        assert_eq!(plain.cfg.budget.deadline_ms, None);
        let bounded =
            parse_request(r#"{"id":1,"op":"solve","graph":"g","budget_ms":150}"#).unwrap();
        assert_eq!(bounded.cfg.budget.deadline_ms, Some(150));
        // The budget is part of config_hash, so a cached unbounded solve
        // can never answer a budgeted request (or vice versa).
        use domatic_core::hash::config_hash;
        assert_ne!(config_hash(&plain.cfg), config_hash(&bounded.cfg));
        // Explicit zero is distinct from absent.
        let zero = parse_request(r#"{"id":1,"op":"solve","graph":"g","budget_ms":0}"#).unwrap();
        assert_eq!(zero.cfg.budget.deadline_ms, Some(0));
        assert_ne!(config_hash(&plain.cfg), config_hash(&zero.cfg));
        // Malformed values are rejected, never defaulted.
        for bad_value in ["null", "1.5", "\"100\"", "-3"] {
            let line =
                format!("{{\"id\":2,\"op\":\"solve\",\"graph\":\"g\",\"budget_ms\":{bad_value}}}");
            let (_, e) = parse_request(&line).unwrap_err();
            assert!(e.to_string().contains("budget_ms"), "{bad_value}: {e}");
        }
    }

    #[test]
    fn parses_every_mutate_action() {
        let cases = [
            (
                r#"{"id":1,"op":"mutate","graph":"g","action":"add_node","neighbors":[0,2,5]}"#,
                GraphDelta::AddNode {
                    neighbors: vec![0, 2, 5],
                },
            ),
            (
                r#"{"id":2,"op":"mutate","graph":"g","action":"remove_node","node":4}"#,
                GraphDelta::RemoveNode { node: 4 },
            ),
            (
                r#"{"id":3,"op":"mutate","graph":"g","action":"add_edge","u":1,"v":7}"#,
                GraphDelta::AddEdge { u: 1, v: 7 },
            ),
            (
                r#"{"id":4,"op":"mutate","graph":"g","action":"remove_edge","u":0,"v":3}"#,
                GraphDelta::RemoveEdge { u: 0, v: 3 },
            ),
            (
                r#"{"id":5,"op":"mutate","graph":"g","action":"set_battery","node":2,"value":9}"#,
                GraphDelta::SetBattery { node: 2, value: 9 },
            ),
        ];
        for (line, expected) in cases {
            let r = parse_request(line).unwrap();
            assert_eq!(r.op, Op::Mutate);
            assert_eq!(r.graph, "g");
            assert_eq!(r.delta.as_ref(), Some(&expected), "{line}");
        }
        // An isolated add_node defaults to an empty neighbor list.
        let r = parse_request(r#"{"id":6,"op":"mutate","graph":"g","action":"add_node"}"#).unwrap();
        assert_eq!(r.delta, Some(GraphDelta::AddNode { neighbors: vec![] }));
    }

    #[test]
    fn rejects_malformed_mutate_requests_with_recovered_id() {
        let rejected = [
            // Missing graph / action / required per-action fields.
            r#"{"id":9,"op":"mutate","action":"remove_node","node":1}"#,
            r#"{"id":9,"op":"mutate","graph":"g"}"#,
            r#"{"id":9,"op":"mutate","graph":"g","action":"warp"}"#,
            r#"{"id":9,"op":"mutate","graph":"g","action":"remove_node"}"#,
            r#"{"id":9,"op":"mutate","graph":"g","action":"add_edge","u":1}"#,
            r#"{"id":9,"op":"mutate","graph":"g","action":"set_battery","node":1}"#,
            // Type errors are rejected, never defaulted.
            r#"{"id":9,"op":"mutate","graph":"g","action":"remove_node","node":-1}"#,
            r#"{"id":9,"op":"mutate","graph":"g","action":"remove_node","node":1.5}"#,
            r#"{"id":9,"op":"mutate","graph":"g","action":"add_node","neighbors":3}"#,
            r#"{"id":9,"op":"mutate","graph":"g","action":"add_node","neighbors":["a"]}"#,
        ];
        for line in rejected {
            let (id, e) = parse_request(line).unwrap_err();
            assert_eq!(id, 9, "{line}");
            assert_eq!(e.kind(), "bad_request", "{line}: {e}");
        }
    }

    #[test]
    fn metrics_and_profile_ops_parse_without_a_graph() {
        let r = parse_request(r#"{"id":5,"op":"metrics"}"#).unwrap();
        assert_eq!(r.op, Op::Metrics);
        let r = parse_request(r#"{"id":6,"op":"profile"}"#).unwrap();
        assert_eq!(r.op, Op::Profile);
    }

    #[test]
    fn err_line_escapes_hostile_messages_byte_exactly() {
        // Control chars, quotes, backslashes, and non-ASCII in error
        // messages must stay valid JSON — these exact bytes can be
        // cached and replayed.
        let cases = [
            ("quote\"inside", "quote\\\"inside"),
            ("back\\slash", "back\\\\slash"),
            ("tab\there", "tab\\there"),
            ("new\nline", "new\\nline"),
            ("bell\u{7}char", "bell\\u0007char"),
            ("snow\u{2603}man", "snow\u{2603}man"),
        ];
        for (raw, escaped) in cases {
            let err = DomaticError::BadRequest {
                message: raw.to_string(),
            };
            let line = err_line(9, &err);
            let expected = format!(
                "{{\"id\":9,\"ok\":false,\"error\":{{\"kind\":\"bad_request\",\"message\":\"bad request: {escaped}\"}}}}"
            );
            assert_eq!(line, expected, "byte-exact rendering for {raw:?}");
            let parsed = json::parse(&line).expect("line parses back");
            let msg = parsed
                .get("error")
                .and_then(|e| e.get("message"))
                .and_then(|m| m.as_str())
                .unwrap();
            assert_eq!(
                msg,
                format!("bad request: {raw}"),
                "round-trips for {raw:?}"
            );
        }
    }

    #[test]
    fn json_str_render_escapes_every_class_of_hostile_input() {
        let hostile = "a\"b\\c\nd\re\tf\u{1}g\u{1F}h\u{80}i\u{2028}j";
        let rendered = Json::Str(hostile.to_string()).render();
        // Valid JSON that round-trips to the original.
        assert_eq!(
            json::parse(&rendered).unwrap().as_str(),
            Some(hostile),
            "{rendered}"
        );
        // No raw control bytes survive in the rendered form.
        assert!(
            rendered.bytes().all(|b| b >= 0x20),
            "control bytes leaked: {rendered:?}"
        );
    }

    #[test]
    fn response_lines_are_valid_json_with_fixed_shape() {
        let ok = ok_line(3, "{\"x\":1}");
        assert_eq!(ok, "{\"id\":3,\"ok\":true,\"result\":{\"x\":1}}");
        json::parse(&ok).unwrap();

        let err = err_line(4, &DomaticError::ShuttingDown);
        json::parse(&err).unwrap();
        assert!(err.contains("\"kind\":\"shutting_down\""), "{err}");
    }

    #[test]
    fn overloaded_errors_carry_their_shed_tier() {
        for tier in ["miss", "join"] {
            let line = err_line(11, &DomaticError::Overloaded { capacity: 64, tier });
            let v = json::parse(&line).unwrap();
            let error = v.get("error").unwrap();
            assert_eq!(
                error.get("kind").and_then(|k| k.as_str()),
                Some("overloaded")
            );
            assert_eq!(
                error.get("shed_tier").and_then(|t| t.as_str()),
                Some(tier),
                "{line}"
            );
        }
        // Only overloaded responses grow the field: other kinds keep the
        // two-field error shape.
        assert!(!err_line(4, &DomaticError::ShuttingDown).contains("shed_tier"));
    }
}
