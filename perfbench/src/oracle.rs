//! The correctness oracle. It runs after the timed window, against the
//! harness's own copy of every graph, and never trusts the server's view:
//! schedules are re-validated with `validate_schedule`, bounds are
//! recomputed, and churn's graph hashes come from replaying each delta.

use crate::gen::{Inputs, Kind};
use domatic_core::bounds::{fault_tolerant_upper_bound, general_upper_bound, uniform_upper_bound};
use domatic_core::hash::versioned_graph_hash;
use domatic_core::incremental::GraphDelta;
use domatic_core::solver::{make_solver, SolverConfig};
use domatic_graph::{Graph, NodeSet};
use domatic_schedule::{validate_schedule, Batteries, Schedule};
use domatic_telemetry::json::{self, Json};
use std::collections::BTreeMap;

/// A graph version as the oracle knows it.
pub struct GraphState {
    pub graph: Graph,
    pub overrides: BTreeMap<u32, u64>,
    pub hash: u64,
    pub version: u64,
}

impl GraphState {
    pub fn new(graph: Graph) -> GraphState {
        let overrides = BTreeMap::new();
        let hash = versioned_graph_hash(&graph, &overrides);
        GraphState {
            graph,
            overrides,
            hash,
            version: 0,
        }
    }

    /// Uniform level `b` with `set_battery` overrides pinned on top, as
    /// the server builds a solve's battery vector.
    pub fn batteries(&self, b: u64) -> Batteries {
        let mut values = vec![b; self.graph.n()];
        for (&v, &level) in &self.overrides {
            values[v as usize] = level;
        }
        Batteries::from_vec(values)
    }

    /// Applies a mutation the way the server does.
    pub fn apply(&mut self, delta: &GraphDelta) -> Result<(), String> {
        self.graph = delta.apply(&self.graph).map_err(|e| e.to_string())?;
        match *delta {
            GraphDelta::SetBattery { node, value } => {
                self.overrides.insert(node, value);
            }
            GraphDelta::RemoveNode { node } => {
                self.overrides = std::mem::take(&mut self.overrides)
                    .into_iter()
                    .filter(|&(k, _)| k != node)
                    .map(|(k, v)| (if k > node { k - 1 } else { k }, v))
                    .collect();
            }
            _ => {}
        }
        self.hash = versioned_graph_hash(&self.graph, &self.overrides);
        self.version += 1;
        Ok(())
    }
}

/// What a checked solve contributes to the quality numbers.
#[derive(Clone, Copy, Debug)]
pub struct Quality {
    pub alg: &'static str,
    pub lifetime: u64,
    pub bound: u64,
}

fn int(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_int)
        .and_then(|i| u64::try_from(i).ok())
        .ok_or_else(|| format!("field '{key}' missing or not a u64"))
}

fn text<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("field '{key}' missing or not a string"))
}

fn expect<T: PartialEq + std::fmt::Debug>(what: &str, got: T, want: T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, expected {want:?}"))
    }
}

/// Parses a response line and returns its `result` object.
pub fn result_of(id: u64, line: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(line).map_err(|_| "response is not UTF-8".to_string())?;
    let v = json::parse(text).map_err(|e| format!("response is not JSON: {e}"))?;
    expect("id", int(&v, "id")?, id)?;
    if v.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("error response: {}", &text[..text.len().min(200)]));
    }
    v.get("result")
        .cloned()
        .ok_or_else(|| "no result".to_string())
}

/// The schedule array of a solve result, on `n` nodes.
pub fn parse_schedule(r: &Json, n: usize) -> Result<Schedule, String> {
    let Some(Json::Arr(entries)) = r.get("schedule") else {
        return Err("field 'schedule' missing".into());
    };
    let mut s = Schedule::new();
    for e in entries {
        let (duration, members) = match e {
            Json::Arr(pair) if pair.len() == 2 => (&pair[0], &pair[1]),
            _ => return Err("schedule entry is not [duration, [nodes]]".into()),
        };
        let duration = duration
            .as_int()
            .and_then(|d| u64::try_from(d).ok())
            .ok_or("bad duration")?;
        let Json::Arr(members) = members else {
            return Err("schedule set is not an array".into());
        };
        let ids = members
            .iter()
            .map(|m| {
                m.as_int()
                    .and_then(|v| u32::try_from(v).ok())
                    .filter(|&v| (v as usize) < n)
                    .ok_or_else(|| "schedule node out of range".to_string())
            })
            .collect::<Result<Vec<u32>, String>>()?;
        s.push(NodeSet::from_iter(n, ids), duration);
    }
    Ok(s)
}

/// Checks one response against its request and the graph state it ran
/// on. Returns the solve's quality numbers, if it was a solve.
pub fn check(
    kind: &Kind,
    name: &str,
    state: &GraphState,
    id: u64,
    line: &[u8],
) -> Result<Option<Quality>, String> {
    let r = result_of(id, line)?;
    let g = &state.graph;
    let hash = format!("{:016x}", state.hash);
    match kind {
        Kind::Solve {
            alg,
            b,
            seed,
            trials,
            ..
        } => {
            expect("alg", text(&r, "alg")?, alg)?;
            expect("graph", text(&r, "graph")?, name)?;
            expect("graph_hash", text(&r, "graph_hash")?, &hash)?;
            expect("n", int(&r, "n")?, g.n() as u64)?;
            expect("b", int(&r, "b")?, *b)?;
            expect("seed", int(&r, "seed")?, *seed)?;
            expect("trials", int(&r, "trials")?, *trials)?;
            let schedule = parse_schedule(&r, g.n())?;
            let batteries = state.batteries(*b);
            validate_schedule(g, &batteries, &schedule, 1)
                .map_err(|v| format!("invalid schedule: {v}"))?;
            let lifetime = int(&r, "lifetime")?;
            expect("lifetime", lifetime, schedule.lifetime())?;
            expect("steps", int(&r, "steps")?, schedule.num_steps() as u64)?;
            let cfg = SolverConfig::new().seed(*seed).trials(*trials);
            let solver = make_solver(alg).map_err(|e| e.to_string())?;
            let bound = int(&r, "bound")?;
            expect("bound", bound, solver.upper_bound(g, &batteries, &cfg))?;
            if lifetime > bound {
                return Err(format!("lifetime {lifetime} exceeds bound {bound}"));
            }
            Ok(Some(Quality {
                alg,
                lifetime,
                bound,
            }))
        }
        Kind::Bounds { b, .. } => {
            expect("graph", text(&r, "graph")?, name)?;
            expect("graph_hash", text(&r, "graph_hash")?, &hash)?;
            expect("n", int(&r, "n")?, g.n() as u64)?;
            expect("m", int(&r, "m")?, g.m() as u64)?;
            expect("b", int(&r, "b")?, *b)?;
            expect(
                "general",
                int(&r, "general")?,
                general_upper_bound(g, &state.batteries(*b)),
            )?;
            expect("uniform", int(&r, "uniform")?, uniform_upper_bound(g, *b))?;
            expect("ft", int(&r, "ft")?, fault_tolerant_upper_bound(g, *b, 1))?;
            Ok(None)
        }
        Kind::Mutate { delta, .. } => {
            expect("action", text(&r, "action")?, delta.action())?;
            expect("graph_hash", text(&r, "graph_hash")?, &hash)?;
            expect("version", int(&r, "version")?, state.version)?;
            expect("n", int(&r, "n")?, g.n() as u64)?;
            expect("m", int(&r, "m")?, g.m() as u64)?;
            Ok(None)
        }
    }
}

/// One response kept for checking: its stream position (`None` for
/// warm-up), request id and bytes.
pub struct Kept {
    pub pos: Option<usize>,
    pub id: u64,
    pub line: Vec<u8>,
}

/// The oracle's verdict over a run's kept responses.
#[derive(Default)]
pub struct Verdict {
    pub checked: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Every checked solve: stream position (`None` for warm-up), a hash
    /// of its payload, and its quality.
    pub quality: Vec<(Option<usize>, u64, Quality)>,
}

/// `lifetime_ratio` covers the warm-up's solves and the first this-many
/// stream solves, so it depends only on the seed, not on how far a run got.
pub const QUALITY_SOLVES: usize = 512;

impl Verdict {
    fn record(
        &mut self,
        pos: Option<usize>,
        line: &[u8],
        outcome: Result<Option<Quality>, String>,
    ) {
        self.checked += 1;
        match outcome {
            Ok(Some(q)) => {
                let payload = line
                    .iter()
                    .position(|&b| b == b',')
                    .map_or(line, |i| &line[i..]);
                self.quality
                    .push((pos, digest(std::iter::once((0, payload))), q));
            }
            Ok(None) => {}
            Err(e) => {
                self.failed += 1;
                if self.first_failure.is_none() {
                    self.first_failure = Some(format!("{pos:?}: {e}"));
                }
            }
        }
    }

    /// Σ lifetime / Σ bound over the distinct solve results among the
    /// warm-up and the first [`QUALITY_SOLVES`] stream solves; `None` if
    /// the run checked fewer stream solves than that.
    pub fn lifetime_ratio(&self) -> Option<f64> {
        let mut solves: Vec<&(Option<usize>, u64, Quality)> = self.quality.iter().collect();
        solves.sort_by_key(|(pos, _, _)| *pos);
        let warm = solves.iter().filter(|(pos, _, _)| pos.is_none()).count();
        if solves.len() < warm + QUALITY_SOLVES {
            return None;
        }
        let mut seen = std::collections::HashSet::new();
        let (mut life, mut bound) = (0u64, 0u64);
        for (_, payload, q) in &solves[..warm + QUALITY_SOLVES] {
            if seen.insert(*payload) {
                life += q.lifetime;
                bound += q.bound;
            }
        }
        Some(life as f64 / bound as f64)
    }
}

/// Checks every kept response. `kept` must hold the warm-up responses
/// first and then stream responses in stream order (churn replays its
/// deltas in that order).
pub fn check_all(inputs: &Inputs, kept: &[Kept]) -> Verdict {
    let mut states: Vec<GraphState> = inputs
        .graphs
        .iter()
        .map(|(_, g)| GraphState::new(g.clone()))
        .collect();
    let mut verdict = Verdict::default();
    for k in kept {
        let req = match k.pos {
            None => &inputs.warmup[(k.id - 1) as usize],
            Some(p) => inputs.at(p).expect("kept positions were sent"),
        };
        let graph = match req.kind {
            Kind::Solve { graph, .. } | Kind::Bounds { graph, .. } | Kind::Mutate { graph, .. } => {
                graph
            }
        };
        if let Kind::Mutate { delta, .. } = &req.kind {
            if let Err(e) = states[graph].apply(delta) {
                verdict.record(
                    k.pos,
                    &k.line,
                    Err(format!("oracle cannot apply {delta:?}: {e}")),
                );
                continue;
            }
        }
        let outcome = check(
            &req.kind,
            &inputs.graphs[graph].0,
            &states[graph],
            k.id,
            &k.line,
        );
        verdict.record(k.pos, &k.line, outcome);
    }
    verdict
}

/// Order-independent digest of `(id, response bytes)`: a wrapping sum of
/// per-response FNV-1a hashes.
pub fn digest<'a>(responses: impl Iterator<Item = (u64, &'a [u8])>) -> u64 {
    responses.fold(0u64, |acc, (id, bytes)| {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &byte in id.to_le_bytes().iter().chain(bytes) {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        acc.wrapping_add(h)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_order_but_not_content() {
        let a: [(u64, &[u8]); 2] = [(1, b"x"), (2, b"y")];
        let b: [(u64, &[u8]); 2] = [(2, b"y"), (1, b"x")];
        let c: [(u64, &[u8]); 2] = [(1, b"y"), (2, b"x")];
        assert_eq!(digest(a.into_iter()), digest(b.into_iter()));
        assert_ne!(digest(a.into_iter()), digest(c.into_iter()));
    }

    #[test]
    fn rejects_an_invalid_schedule_and_an_error_response() {
        let g = domatic_graph::generators::regular::cycle(6);
        let state = GraphState::new(g);
        let kind = Kind::Solve {
            graph: 0,
            alg: "greedy",
            b: 1,
            seed: 0,
            trials: 1,
        };
        let hash = format!("{:016x}", state.hash);
        // Node 3 alone does not dominate a 6-cycle.
        let bad = format!(
            "{{\"id\":4,\"ok\":true,\"result\":{{\"alg\":\"greedy\",\"b\":1,\"bound\":3,\"graph\":\"g\",\"graph_hash\":\"{hash}\",\"k\":1,\"lifetime\":1,\"n\":6,\"schedule\":[[1,[3]]],\"seed\":0,\"steps\":1,\"tolerance\":1,\"trials\":1}}}}"
        );
        let err = check(&kind, "g", &state, 4, bad.as_bytes()).unwrap_err();
        assert!(err.contains("invalid schedule"), "{err}");
        let good = bad.replace("[[1,[3]]]", "[[1,[0,3]]]");
        let q = check(&kind, "g", &state, 4, good.as_bytes())
            .unwrap()
            .unwrap();
        assert_eq!((q.lifetime, q.bound), (1, 3));
        let refused = br#"{"id":4,"ok":false,"error":{"kind":"overloaded","message":"x","shed_tier":"miss"}}"#;
        assert!(check(&kind, "g", &state, 4, refused).is_err());
        assert!(
            check(&kind, "g", &state, 5, good.as_bytes()).is_err(),
            "id mismatch"
        );
    }
}
