//! Canonical content hashing for solve-cache keys.
//!
//! The serve layer caches solves by *what was asked*, not *how it was
//! spelled*: two requests against the same topology and configuration
//! must map to the same key even if the graph was loaded from edge lists
//! in different orders. [`graph_hash`] therefore hashes the canonical
//! adjacency structure (per-node sorted neighbor lists), which
//! [`Graph::from_edges`] already produces and which this function
//! re-sorts defensively for graphs built through other constructors.
//!
//! The hash is 64-bit FNV-1a — stable across platforms and processes
//! (unlike `std`'s `DefaultHasher`, which is randomly keyed per process
//! and explicitly not portable), which a cache key that appears in
//! logs, traces, and on-the-wire responses must be.

use crate::solver::SolverConfig;
use domatic_graph::Graph;
use domatic_schedule::Batteries;

/// 64-bit FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// 64-bit FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a hasher with length-prefixed field framing, so
/// `("ab", "c")` and `("a", "bc")` hash differently.
#[derive(Clone, Copy, Debug)]
pub struct CanonicalHasher {
    state: u64,
}

impl CanonicalHasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        CanonicalHasher { state: FNV_OFFSET }
    }

    /// Feeds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds one `u64` (little-endian).
    pub fn write_u64(&mut self, value: u64) {
        self.write_bytes(&value.to_le_bytes());
    }

    /// Feeds a string as a length-prefixed field.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for CanonicalHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// Canonical content hash of a graph: node count, then each node's
/// neighbor list in ascending order. Invariant under edge input order,
/// edge orientation, and duplicate edges (all of which
/// [`Graph::from_edges`] normalizes away), and under unsorted adjacency
/// from other constructors (re-sorted here before hashing).
pub fn graph_hash(g: &Graph) -> u64 {
    let mut h = CanonicalHasher::new();
    h.write_u64(g.n() as u64);
    let mut buf: Vec<u32> = Vec::new();
    for v in g.nodes() {
        let neighbors = g.neighbors(v);
        h.write_u64(neighbors.len() as u64);
        if neighbors.windows(2).all(|w| w[0] < w[1]) {
            for &w in neighbors {
                h.write_u64(u64::from(w));
            }
        } else {
            buf.clear();
            buf.extend_from_slice(neighbors);
            buf.sort_unstable();
            buf.dedup();
            for &w in &buf {
                h.write_u64(u64::from(w));
            }
        }
    }
    h.finish()
}

/// Canonical hash of a solver configuration. `c` is hashed by bit
/// pattern: configs are equal keys iff they produce identical solves,
/// and the solvers consume `c` exactly as an `f64`. The [`Budget`] is
/// part of the key — the anytime solvers produce different schedules at
/// different budgets, so the serve cache must not conflate them
/// (`deadline_ms` hashes a presence flag first, so `None` and `Some(0)`
/// stay distinct keys).
///
/// [`Budget`]: crate::budget::Budget
pub fn config_hash(cfg: &SolverConfig) -> u64 {
    let mut h = CanonicalHasher::new();
    h.write_u64(cfg.seed);
    h.write_u64(cfg.trials);
    h.write_u64(cfg.k as u64);
    h.write_u64(cfg.c.to_bits());
    h.write_u64(cfg.hops as u64);
    h.write_u64(cfg.budget.max_iterations);
    h.write_u64(u64::from(cfg.budget.deadline_ms.is_some()));
    h.write_u64(cfg.budget.deadline_ms.unwrap_or(0));
    h.write_u64(cfg.budget.stall_iterations);
    h.finish()
}

/// Canonical content hash of a graph version: the plain [`graph_hash`]
/// when no battery overrides are pinned (so a mutated graph hashes
/// identically to the same topology registered fresh — the serve
/// cache keys on this hash, so both share entries and a mutation chain
/// back to earlier content finds that content's entries again), and a
/// domain-separated hash over the topology plus the sorted
/// `(node, value)` override pairs otherwise.
pub fn versioned_graph_hash(g: &Graph, overrides: &std::collections::BTreeMap<u32, u64>) -> u64 {
    if overrides.is_empty() {
        return graph_hash(g);
    }
    let mut h = CanonicalHasher::new();
    h.write_str("battery-overrides");
    h.write_u64(graph_hash(g));
    h.write_u64(overrides.len() as u64);
    for (&node, &value) in overrides {
        h.write_u64(u64::from(node));
        h.write_u64(value);
    }
    h.finish()
}

/// Canonical hash of a battery vector.
pub fn batteries_hash(b: &Batteries) -> u64 {
    let mut h = CanonicalHasher::new();
    h.write_u64(b.n() as u64);
    for &v in b.as_slice() {
        h.write_u64(v);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use domatic_graph::generators::gnp::gnp;

    #[test]
    fn graph_hash_ignores_edge_order_and_orientation() {
        let edges = [(0u32, 1u32), (1, 2), (2, 3), (3, 0), (0, 2)];
        let a = Graph::from_edges(4, &edges);
        let mut rev: Vec<(u32, u32)> = edges.iter().map(|&(u, v)| (v, u)).collect();
        rev.reverse();
        rev.push((1, 0)); // duplicate, opposite orientation
        let b = Graph::from_edges(4, &rev);
        assert_eq!(graph_hash(&a), graph_hash(&b));
    }

    #[test]
    fn graph_hash_separates_structures() {
        // Same node count and edge count, different wiring.
        let path = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let star = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        assert_ne!(graph_hash(&path), graph_hash(&star));
        // Node count alone separates empty graphs.
        assert_ne!(graph_hash(&Graph::empty(3)), graph_hash(&Graph::empty(4)));
    }

    #[test]
    fn graph_hash_is_stable_across_calls() {
        let g = gnp(40, 0.2, 9);
        assert_eq!(graph_hash(&g), graph_hash(&g));
    }

    #[test]
    fn config_hash_covers_every_field() {
        let base = SolverConfig::new();
        let variants = [
            SolverConfig::new().seed(1),
            SolverConfig::new().trials(3),
            SolverConfig::new().k(2),
            SolverConfig::new().c(4.0),
            SolverConfig::new().hops(2),
            SolverConfig::new().budget(Budget::new().max_iterations(5)),
            SolverConfig::new().budget(Budget::new().deadline_ms(0)),
            SolverConfig::new().budget(Budget::new().deadline_ms(250)),
            SolverConfig::new().budget(Budget::new().stall_iterations(9)),
        ];
        for v in &variants {
            assert_ne!(config_hash(&base), config_hash(v), "{v:?}");
        }
        assert_eq!(config_hash(&base), config_hash(&SolverConfig::new()));
    }

    #[test]
    fn versioned_graph_hash_matches_graph_hash_without_overrides() {
        use std::collections::BTreeMap;
        let g = gnp(20, 0.3, 4);
        assert_eq!(versioned_graph_hash(&g, &BTreeMap::new()), graph_hash(&g));
        let mut overrides = BTreeMap::new();
        overrides.insert(3u32, 7u64);
        let with = versioned_graph_hash(&g, &overrides);
        assert_ne!(with, graph_hash(&g));
        overrides.insert(3, 8);
        assert_ne!(versioned_graph_hash(&g, &overrides), with);
    }

    #[test]
    fn batteries_hash_separates_levels_and_lengths() {
        let a = Batteries::uniform(5, 3);
        let b = Batteries::uniform(5, 4);
        let c = Batteries::uniform(6, 3);
        assert_ne!(batteries_hash(&a), batteries_hash(&b));
        assert_ne!(batteries_hash(&a), batteries_hash(&c));
    }
}
