//! Kernel equivalence proptests: the bitset (word-parallel) domination
//! kernels must be bit-identical to the scalar CSR walk on every
//! randomized input — counts, predicates, uncovered lists, greedy
//! choices, and the d-hop generalization. The greedy extraction is also
//! pinned against an independent rescan reference, so its tie-break is
//! checked by something that shares none of its priority structure.
//!
//! Thread coverage comes from the CI test matrix, which runs this suite
//! under `RAYON_NUM_THREADS=1` and `=4`; the forced `_bitset` variants
//! build rows on graphs of any size, so the word path is exercised even
//! below `BITS_BUILD_THRESHOLD` and on either side of the density gate.

use domatic_graph::domination::{
    dilate, dominator_count, dominator_count_scalar, greedy_dominating_set,
    greedy_dominating_set_bitset, greedy_dominating_set_scalar, is_d_hop_k_dominating_set,
    is_d_hop_k_dominating_set_scalar, is_k_dominating_set, is_k_dominating_set_bitset,
    is_k_dominating_set_scalar, uncovered_nodes, uncovered_nodes_scalar,
};
use domatic_graph::generators::gnp::gnp;
use domatic_graph::generators::regular::path;
use domatic_graph::nodeset::NodeSet;
use domatic_graph::{Graph, NodeId};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..80, 0.02f64..0.7, 0u64..1000).prop_map(|(n, p, seed)| gnp(n, p, seed))
}

/// A random subset of the vertex set, from a membership bitmask seed.
fn arb_set(n: usize, seed: u64) -> NodeSet {
    NodeSet::from_iter(
        n,
        (0..n as NodeId).filter(|v| (seed >> (v % 64)) & 1 == 1 || u64::from(*v) == seed % 97),
    )
}

/// Reference greedy: every round rescans all alive nodes for the largest
/// count of uncovered nodes in the closed neighborhood, keeping the first
/// (lowest-id) maximum. `None` once no alive node has a positive count
/// while some node is still uncovered. O(n · |D|) rounds of full scans.
fn rescan_greedy(g: &Graph, alive: &NodeSet) -> Option<NodeSet> {
    let n = g.n();
    let mut covered = vec![false; n];
    let mut chosen = NodeSet::new(n);
    let mut uncovered = n;
    while uncovered > 0 {
        let mut best: Option<(usize, NodeId)> = None;
        for v in g.nodes().filter(|&v| alive.contains(v)) {
            let count = std::iter::once(v)
                .chain(g.neighbors(v).iter().copied())
                .filter(|&u| !covered[u as usize])
                .count();
            if count > 0 && best.is_none_or(|(c, _)| count > c) {
                best = Some((count, v));
            }
        }
        let (_, v) = best?;
        chosen.insert(v);
        for u in std::iter::once(v).chain(g.neighbors(v).iter().copied()) {
            if !covered[u as usize] {
                covered[u as usize] = true;
                uncovered -= 1;
            }
        }
    }
    Some(chosen)
}

/// All three library greedy variants, each checked against the reference.
fn assert_greedy_matches_reference(g: &Graph, alive: &NodeSet) -> Option<NodeSet> {
    let reference = rescan_greedy(g, alive);
    assert_eq!(greedy_dominating_set_scalar(g, alive), reference, "scalar");
    assert_eq!(greedy_dominating_set_bitset(g, alive), reference, "bitset");
    assert_eq!(greedy_dominating_set(g, alive), reference, "auto");
    reference
}

#[test]
fn greedy_on_empty_and_single_node_graphs() {
    assert_eq!(
        assert_greedy_matches_reference(&Graph::empty(0), &NodeSet::new(0)),
        Some(NodeSet::new(0))
    );
    let one = Graph::empty(1);
    assert_eq!(
        assert_greedy_matches_reference(&one, &NodeSet::full(1)),
        Some(NodeSet::full(1))
    );
    assert_eq!(
        assert_greedy_matches_reference(&one, &NodeSet::new(1)),
        None
    );
}

#[test]
fn greedy_tie_break_off_a_power_of_two() {
    // P7: picks 1 (gain 3, lowest of 1..=5), then 4 (gain 3), then 5 over
    // 6 (both gain 1 for the last uncovered node 6).
    let ds = assert_greedy_matches_reference(&path(7), &NodeSet::full(7)).unwrap();
    assert_eq!(ds.to_vec(), vec![1, 4, 5]);
    // A 6-node star centred on the highest id: the winner sits in the last
    // real leaf of the padded tree.
    let g = Graph::from_edges(6, &[(0, 5), (1, 5), (2, 5), (3, 5), (4, 5)]);
    let ds = assert_greedy_matches_reference(&g, &NodeSet::full(6)).unwrap();
    assert_eq!(ds.to_vec(), vec![5]);
}

#[test]
fn greedy_fails_on_all_dead_or_isolated_dead_nodes() {
    let g = path(5);
    assert_eq!(assert_greedy_matches_reference(&g, &NodeSet::new(5)), None);
    // Node 2 is isolated and dead: nothing can cover it.
    let g = Graph::from_edges(3, &[(0, 1)]);
    let alive = NodeSet::from_iter(3, [0, 1]);
    assert_eq!(assert_greedy_matches_reference(&g, &alive), None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn dominator_counts_are_identical(g in arb_graph(), mask in 0u64..u64::MAX) {
        let set = arb_set(g.n(), mask);
        // Force-build the rows, then compare every per-node count on the
        // auto path (now seeing cached rows) against the scalar walk.
        let bits = g.neighborhood_bits().expect("small graphs fit the budget");
        for v in g.nodes() {
            let scalar = dominator_count_scalar(&g, &set, v);
            prop_assert_eq!(bits.dominator_count(&set, v), scalar);
            prop_assert_eq!(dominator_count(&g, &set, v), scalar);
        }
    }

    #[test]
    fn k_domination_checks_are_identical(
        g in arb_graph(), mask in 0u64..u64::MAX, k in 1usize..4
    ) {
        let set = arb_set(g.n(), mask);
        let scalar = is_k_dominating_set_scalar(&g, &set, k);
        prop_assert_eq!(is_k_dominating_set_bitset(&g, &set, k), scalar);
        prop_assert_eq!(is_k_dominating_set(&g, &set, k), scalar);
    }

    #[test]
    fn uncovered_node_lists_are_identical(
        g in arb_graph(), mask in 0u64..u64::MAX, k in 1usize..4
    ) {
        let set = arb_set(g.n(), mask);
        let scalar = uncovered_nodes_scalar(&g, &set, k);
        // Empty-iff-k-dominating, with and without cached rows.
        prop_assert_eq!(scalar.is_empty(), is_k_dominating_set_scalar(&g, &set, k));
        prop_assert_eq!(&uncovered_nodes(&g, &set, k), &scalar);
        g.neighborhood_bits().expect("small graphs fit the budget");
        prop_assert_eq!(&uncovered_nodes(&g, &set, k), &scalar);
    }

    #[test]
    fn greedy_chooses_identical_sets(g in arb_graph(), mask in 0u64..u64::MAX) {
        assert_greedy_matches_reference(&g, &arb_set(g.n(), mask));
    }

    #[test]
    fn d_hop_checks_are_identical(
        g in arb_graph(), mask in 0u64..u64::MAX, k in 1usize..4, d in 1usize..4
    ) {
        let set = arb_set(g.n(), mask);
        let scalar = is_d_hop_k_dominating_set_scalar(&g, &set, k, d);
        prop_assert_eq!(is_d_hop_k_dominating_set(&g, &set, k, d), scalar);
        // d-hop k-domination of g ≡ k-domination of the d-th graph power.
        let gd = g.power(d);
        prop_assert_eq!(is_k_dominating_set_scalar(&gd, &set, k), scalar);
    }

    #[test]
    fn dilation_matches_power_graph_neighborhoods(g in arb_graph(), mask in 0u64..u64::MAX) {
        let set = arb_set(g.n(), mask);
        // dilate under cached rows equals dilate without them...
        let plain = dilate(&g, &set);
        g.neighborhood_bits().expect("small graphs fit the budget");
        prop_assert_eq!(&dilate(&g, &set), &plain);
        // ...and both equal the 1-hop ball: v ∈ dilate(S) ⟺ N⁺(v) ∩ S ≠ ∅.
        for v in g.nodes() {
            prop_assert_eq!(plain.contains(v), dominator_count_scalar(&g, &set, v) > 0);
        }
    }
}
