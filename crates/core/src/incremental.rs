//! Graph deltas for dynamic graphs.
//!
//! A live deployment churns: nodes crash, links flap, batteries drain
//! and recharge. The serving tier models each churn event as a
//! [`GraphDelta`] applied to a named graph, producing a new graph
//! version. This module holds the version-agnostic algorithmic core:
//! applying a delta to a topology, and projecting a schedule computed on
//! the pre-delta graph onto the post-delta node universe (reusing the
//! same index-compaction rules as the subgraph machinery the adaptive
//! runtime is built on).
//!
//! The server solves every graph version from scratch: a schedule is a
//! pure function of `(graph content, batteries, request)`, so a solve
//! after a mutation is the same code path as any other solve.
//! [`repair_schedule`] is kept as the benchmark replay's reference for
//! what projecting and certifying the previous schedule would cost: it
//! projects the previous schedule through the delta, clips it to its
//! longest valid prefix, runs the solver on the mutated graph, and
//! reports [`RepairMode::Repaired`] exactly when the projected candidate
//! already equals the fresh solution. It always returns the fresh
//! solution.

use crate::error::DomaticError;
use crate::solver::{effective_graph, Solver, SolverConfig};
use domatic_graph::{Graph, NodeId, NodeSet};
use domatic_schedule::validate::longest_valid_prefix;
use domatic_schedule::{Batteries, Schedule};

/// One churn event against a graph version.
///
/// Node identifiers refer to the *pre-delta* graph; `RemoveNode`
/// compacts the id space exactly like
/// [`domatic_graph::subgraph::remove_nodes`] (survivors keep their
/// relative order, ids above the removed node shift down by one), and
/// `AddNode` appends the new node at id `n`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphDelta {
    /// Append node `n` with edges to `neighbors` (existing ids).
    AddNode { neighbors: Vec<NodeId> },
    /// Remove one node; ids above it shift down by one.
    RemoveNode { node: NodeId },
    /// Insert the edge `{u, v}`; rejected if it already exists.
    AddEdge { u: NodeId, v: NodeId },
    /// Delete the edge `{u, v}`; rejected if it does not exist.
    RemoveEdge { u: NodeId, v: NodeId },
    /// Pin one node's battery to `value` (an overlay over the
    /// per-request uniform level). Topology is unchanged.
    SetBattery { node: NodeId, value: u64 },
}

impl GraphDelta {
    /// Wire/trace name of the mutation action.
    pub fn action(&self) -> &'static str {
        match self {
            GraphDelta::AddNode { .. } => "add_node",
            GraphDelta::RemoveNode { .. } => "remove_node",
            GraphDelta::AddEdge { .. } => "add_edge",
            GraphDelta::RemoveEdge { .. } => "remove_edge",
            GraphDelta::SetBattery { .. } => "set_battery",
        }
    }

    /// Applies the delta to a topology, returning the mutated graph.
    ///
    /// No-op mutations (adding a present edge, removing an absent one)
    /// are rejected rather than silently accepted so every applied
    /// mutation is guaranteed to produce a new graph version.
    /// `SetBattery` validates its node and returns the topology
    /// unchanged — callers that track battery overlays separately (the
    /// server does) need not rebuild anything for it.
    pub fn apply(&self, g: &Graph) -> Result<Graph, DomaticError> {
        let n = g.n();
        let check = |v: NodeId, what: &str| -> Result<(), DomaticError> {
            if (v as usize) < n {
                Ok(())
            } else {
                Err(DomaticError::BadRequest {
                    message: format!("{what} {v} out of range for graph with {n} nodes"),
                })
            }
        };
        match self {
            GraphDelta::AddNode { neighbors } => {
                for &w in neighbors {
                    check(w, "neighbor")?;
                }
                let mut edges = undirected_edges(g);
                let fresh = n as NodeId;
                edges.extend(neighbors.iter().map(|&w| (w, fresh)));
                Ok(Graph::from_edges(n + 1, &edges))
            }
            GraphDelta::RemoveNode { node } => {
                check(*node, "node")?;
                if n == 1 {
                    return Err(DomaticError::BadRequest {
                        message: "cannot remove the last node".to_string(),
                    });
                }
                let shift = |v: NodeId| if v > *node { v - 1 } else { v };
                let edges: Vec<(NodeId, NodeId)> = undirected_edges(g)
                    .into_iter()
                    .filter(|&(u, w)| u != *node && w != *node)
                    .map(|(u, w)| (shift(u), shift(w)))
                    .collect();
                Ok(Graph::from_edges(n - 1, &edges))
            }
            GraphDelta::AddEdge { u, v } => {
                check(*u, "node")?;
                check(*v, "node")?;
                if u == v {
                    return Err(DomaticError::BadRequest {
                        message: "self-loops are not allowed".to_string(),
                    });
                }
                if g.neighbors(*u).contains(v) {
                    return Err(DomaticError::BadRequest {
                        message: format!("edge ({u}, {v}) already exists"),
                    });
                }
                let mut edges = undirected_edges(g);
                edges.push((*u, *v));
                Ok(Graph::from_edges(n, &edges))
            }
            GraphDelta::RemoveEdge { u, v } => {
                check(*u, "node")?;
                check(*v, "node")?;
                if !g.neighbors(*u).contains(v) {
                    return Err(DomaticError::BadRequest {
                        message: format!("edge ({u}, {v}) does not exist"),
                    });
                }
                let edges: Vec<(NodeId, NodeId)> = undirected_edges(g)
                    .into_iter()
                    .filter(|&(a, b)| (a.min(b), a.max(b)) != ((*u).min(*v), (*u).max(*v)))
                    .collect();
                Ok(Graph::from_edges(n, &edges))
            }
            GraphDelta::SetBattery { node, .. } => {
                check(*node, "node")?;
                Ok(g.clone())
            }
        }
    }
}

/// The undirected edge list of `g`, each edge once with `u < v`.
fn undirected_edges(g: &Graph) -> Vec<(NodeId, NodeId)> {
    let mut edges = Vec::with_capacity(g.m());
    for u in 0..g.n() as NodeId {
        for &w in g.neighbors(u) {
            if u < w {
                edges.push((u, w));
            }
        }
    }
    edges
}

/// Projects a schedule computed on the pre-delta graph onto the
/// post-delta node universe (`n_new` nodes).
///
/// Set membership follows the same compaction rules as the delta
/// itself: removed nodes drop out of every set and survivors' ids
/// shift; added nodes are simply absent from every projected set;
/// edge and battery deltas keep membership as-is. The result is a
/// *candidate* — entries may no longer dominate or fit the batteries,
/// which is what [`repair_schedule`]'s certify step sorts out.
pub fn project_through_delta(prev: &Schedule, delta: &GraphDelta, n_new: usize) -> Schedule {
    let mut out = Schedule::new();
    for e in prev.entries() {
        let set = match delta {
            GraphDelta::RemoveNode { node } => NodeSet::from_iter(
                n_new,
                e.set
                    .iter()
                    .filter(|&v| v != *node)
                    .map(|v| if v > *node { v - 1 } else { v }),
            ),
            _ => NodeSet::from_iter(n_new, e.set.iter().filter(|&v| (v as usize) < n_new)),
        };
        if set.is_empty() {
            continue;
        }
        out.push(set, e.duration);
    }
    out
}

/// How a repair attempt resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepairMode {
    /// The projected + clipped previous schedule already equals the
    /// fresh solution — the old plan survived the delta intact.
    Repaired,
    /// The projected candidate was invalid, worse, or merely different;
    /// the full re-solve's answer is the one that counts.
    FullResolve,
}

/// A certified repair: the schedule to serve plus how it was obtained.
#[derive(Clone, Debug)]
pub struct RepairOutcome {
    /// Always the fresh solver output for the mutated instance —
    /// byte-identical to what a from-scratch solve would produce.
    pub schedule: Schedule,
    /// Whether the projected previous schedule certified as equal.
    pub mode: RepairMode,
}

/// Repairs `prev` (solved on the pre-delta graph) against `delta` for
/// the mutated instance `(g_new, b_new)`: project, clip to the longest
/// valid prefix, re-solve, and certify. See the module docs for why the
/// fresh solution is always the one returned.
pub fn repair_schedule(
    g_new: &Graph,
    b_new: &Batteries,
    prev: &Schedule,
    delta: &GraphDelta,
    solver: &dyn Solver,
    cfg: &SolverConfig,
) -> Result<RepairOutcome, DomaticError> {
    let eff = effective_graph(g_new, cfg.hops);
    let tol = solver.tolerance(cfg);
    let candidate = longest_valid_prefix(
        &eff,
        b_new,
        &project_through_delta(prev, delta, g_new.n()),
        tol,
    );
    let fresh = solver.schedule(g_new, b_new, cfg)?;
    let mode = if !candidate.is_empty() && candidate == fresh {
        RepairMode::Repaired
    } else {
        RepairMode::FullResolve
    };
    Ok(RepairOutcome {
        schedule: fresh,
        mode,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::solver_registry;
    use domatic_graph::generators::regular::cycle;

    fn greedy() -> Box<dyn Solver> {
        solver_registry()
            .into_iter()
            .find(|s| s.name() == "greedy")
            .expect("greedy solver registered")
    }

    fn cfg() -> SolverConfig {
        SolverConfig::default()
    }

    #[test]
    fn add_edge_then_remove_edge_round_trips() {
        let g = cycle(8);
        let added = GraphDelta::AddEdge { u: 0, v: 4 }.apply(&g).unwrap();
        assert_eq!(added.m(), g.m() + 1);
        let back = GraphDelta::RemoveEdge { u: 4, v: 0 }.apply(&added).unwrap();
        assert_eq!(crate::hash::graph_hash(&back), crate::hash::graph_hash(&g));
    }

    #[test]
    fn add_node_appends_at_the_end() {
        let g = cycle(5);
        let bigger = GraphDelta::AddNode {
            neighbors: vec![0, 2],
        }
        .apply(&g)
        .unwrap();
        assert_eq!(bigger.n(), 6);
        assert_eq!(bigger.neighbors(5), &[0, 2]);
    }

    #[test]
    fn remove_node_compacts_ids_like_remove_nodes() {
        let g = cycle(6);
        let smaller = GraphDelta::RemoveNode { node: 2 }.apply(&g).unwrap();
        let mut drop = NodeSet::new(6);
        drop.insert(2);
        let via_subgraph = domatic_graph::subgraph::remove_nodes(&g, &drop);
        assert_eq!(
            crate::hash::graph_hash(&smaller),
            crate::hash::graph_hash(&via_subgraph.graph)
        );
    }

    #[test]
    fn noop_mutations_are_rejected() {
        let g = cycle(4);
        assert!(GraphDelta::AddEdge { u: 0, v: 1 }.apply(&g).is_err());
        assert!(GraphDelta::RemoveEdge { u: 0, v: 2 }.apply(&g).is_err());
        assert!(GraphDelta::AddEdge { u: 3, v: 3 }.apply(&g).is_err());
        assert!(GraphDelta::RemoveNode { node: 9 }.apply(&g).is_err());
        assert!(GraphDelta::SetBattery { node: 7, value: 3 }
            .apply(&g)
            .is_err());
    }

    #[test]
    fn removing_last_node_is_rejected() {
        let g = Graph::from_edges(1, &[]);
        assert!(GraphDelta::RemoveNode { node: 0 }.apply(&g).is_err());
    }

    #[test]
    fn projection_remaps_sets_through_remove_node() {
        let mut prev = Schedule::new();
        prev.push(NodeSet::from_iter(5, [0, 2, 4]), 3);
        let delta = GraphDelta::RemoveNode { node: 2 };
        let proj = project_through_delta(&prev, &delta, 4);
        assert_eq!(proj.entries()[0].set.to_vec(), vec![0, 3]);
        assert_eq!(proj.entries()[0].duration, 3);
    }

    #[test]
    fn repair_certifies_when_delta_leaves_the_solution_intact() {
        // Triangle plus a pendant node hanging off node 0, and a far
        // isolated-ish extra node 4 joined to everything so removing an
        // edge inside the triangle leaves greedy's plan unchanged.
        // Empirically: greedy on a cycle is stable under removing a
        // *chord* it never used. Build that: cycle(6) plus chord (0,3);
        // solve the chorded graph, then remove the chord.
        let chorded = GraphDelta::AddEdge { u: 0, v: 3 }.apply(&cycle(6)).unwrap();
        let b = Batteries::uniform(6, 2);
        let solver = greedy();
        let prev = solver.schedule(&chorded, &b, &cfg()).unwrap();
        let delta = GraphDelta::RemoveEdge { u: 0, v: 3 };
        let g_new = delta.apply(&chorded).unwrap();
        let out = repair_schedule(&g_new, &b, &prev, &delta, solver.as_ref(), &cfg()).unwrap();
        let fresh = solver.schedule(&g_new, &b, &cfg()).unwrap();
        assert_eq!(out.schedule, fresh, "repair must return the fresh solution");
        if out.mode == RepairMode::Repaired {
            assert_eq!(prev, fresh, "certified repair implies stability");
        }
    }

    #[test]
    fn repair_always_returns_the_fresh_solution() {
        let g0 = cycle(9);
        let b0 = Batteries::uniform(9, 2);
        let solver = greedy();
        let prev = solver.schedule(&g0, &b0, &cfg()).unwrap();
        let delta = GraphDelta::RemoveNode { node: 4 };
        let g1 = delta.apply(&g0).unwrap();
        let b1 = Batteries::uniform(8, 2);
        let out = repair_schedule(&g1, &b1, &prev, &delta, solver.as_ref(), &cfg()).unwrap();
        assert_eq!(out.schedule, solver.schedule(&g1, &b1, &cfg()).unwrap());
    }
}
