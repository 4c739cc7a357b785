from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clroute import (
    Route,
    generate_instance,
    held_karp_min_path,
    loss_upper,
    metric_closure,
    minimum_spanning_tree,
    route_travel_cost,
)
from clroute.shp import (
    HELD_KARP_MAX_T,
    InvariantViolation,
    SizeLimitError,
    eulerian_circuit,
    fixed_end_path,
    min_weight_perfect_matching,
    odd_degree_vertices,
    shortcut_to_hamiltonian,
)
from helpers import (
    bitmask_matching,
    brute_min_matching_weight,
    circuit_edge_multiset,
    graph_edge_multiset,
    manual_instance,
    scalar_held_karp,
    scan_all_routes,
    tie_heavy_instances,
    travel_objective,
    worked_under,
)


def test_mst_three_vertices():
    edges, weight = minimum_spanning_tree(np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], float))
    assert set(edges) == {(0, 1), (1, 2)}
    assert weight == 2.0


def test_mst_two_vertices():
    edges, weight = minimum_spanning_tree(np.array([[0, 7], [7, 0]], float))
    assert edges == ((0, 1),)
    assert weight == 7.0


def test_mst_tie_break_is_lexicographic():
    costs = np.full((4, 4), 5.0)
    np.fill_diagonal(costs, 0.0)
    edges, weight = minimum_spanning_tree(costs)
    assert weight == 15.0
    assert set(edges) == {(0, 1), (0, 2), (0, 3)}


def test_mst_weight_matches_reference_on_random_instances():
    try:
        from scipy.sparse.csgraph import minimum_spanning_tree as scipy_mst
    except ImportError:
        pytest.skip("scipy not available")
    rng = np.random.default_rng(2)
    for _ in range(20):
        t = int(rng.integers(2, 12))
        inst = generate_instance(t, seed=int(rng.integers(1 << 30)))
        _, weight = minimum_spanning_tree(inst.costs)
        ref = scipy_mst(inst.costs).sum()
        assert weight == pytest.approx(ref, rel=1e-9)


def test_dummy_attachment_and_degrees_worked_instance():
    inst = worked_under()
    edges, _ = minimum_spanning_tree(inst.costs)
    w = np.pad(inst.costs, (0, 1))
    assert w.shape == (4, 4)
    assert w[0, 3] == w[3, 0] == 0.0
    tree = edges + ((0, 3),)
    # degrees v0:1, region1:2, region2:2, region3:1 -> O = {region3, v0}
    assert odd_degree_vertices(tree) == (2, 3)


def test_odd_vertices_path_tree_with_dummy_at_endpoint():
    assert odd_degree_vertices(((0, 1), (1, 2), (2, 3), (0, 4))) == (3, 4)


def test_odd_vertices_star_tree():
    assert odd_degree_vertices(((0, 1), (0, 2), (0, 3), (0, 4))) == (1, 2, 3, 4)


def test_matching_dummy_pair_is_free():
    w = np.pad(worked_under().costs, (0, 1))
    pairs, weight = min_weight_perfect_matching(w, (2, 3))
    assert weight == 0.0
    assert {frozenset(p) for p in pairs} == {frozenset({2, 3})}


def test_matching_four_vertices_hand_checked():
    costs = np.array(
        [
            [0, 1, 2, 3],
            [1, 0, 3, 2],
            [2, 3, 0, 1],
            [3, 2, 1, 0],
        ],
        float,
    )
    pairs, weight = min_weight_perfect_matching(np.pad(costs, (0, 1)), (0, 1, 2, 3))
    assert weight == 2.0
    assert {frozenset(p) for p in pairs} == {frozenset({0, 1}), frozenset({2, 3})}


def test_matching_empty_set():
    assert min_weight_perfect_matching(np.zeros((4, 4)), ()) == ((), 0.0)


def test_matching_odd_count_is_invariant_violation():
    with pytest.raises(InvariantViolation):
        min_weight_perfect_matching(np.zeros((4, 4)), (0, 1, 2))


def test_matching_equals_brute_force_on_random_graphs():
    rng = np.random.default_rng(4)
    for _ in range(60):
        t = int(rng.integers(2, 10))
        inst = generate_instance(t, seed=int(rng.integers(1 << 30)))
        w = np.pad(inst.costs, (0, 1))
        verts = list(range(t + 1))  # include the dummy
        rng.shuffle(verts)
        k = 2 * int(rng.integers(1, (t + 1) // 2 + 1))
        odd = tuple(sorted(verts[:k]))
        pairs, weight = min_weight_perfect_matching(w, odd)
        assert weight == pytest.approx(brute_min_matching_weight(w, odd), rel=1e-12)
        matched = sorted(v for pair in pairs for v in pair)
        assert matched == sorted(odd)


def test_matching_dummy_prefers_lowest_region_on_ties():
    # all-zero costs: every matching weighs 0; dummy must pair with region 0
    pairs, _ = min_weight_perfect_matching(np.zeros((5, 5)), (0, 1, 2, 4))
    assert frozenset({4, 0}) in {frozenset(p) for p in pairs}


@st.composite
def tie_heavy_matchings(draw):
    """A padded weight matrix with region costs in {1, 2} or {1, 2, 3},
    metric-closed or not, and an ascending vertex set of even size k <= 14,
    with or without the dummy."""
    k = 2 * draw(st.integers(1, 7))
    with_dummy = draw(st.booleans())
    t = draw(st.integers(k - with_dummy, 16))
    upper = np.triu_indices(t, 1)
    pairs = len(upper[0])
    values = draw(st.sampled_from([[1.0, 2.0], [1.0, 2.0, 3.0]]))
    costs = np.zeros((t, t))
    costs[upper] = draw(st.lists(st.sampled_from(values), min_size=pairs, max_size=pairs))
    costs = costs + costs.T
    if draw(st.booleans()):
        costs = metric_closure(costs)
    regions = draw(st.permutations(range(t)))[: k - with_dummy]
    return np.pad(costs, (0, 1)), tuple(sorted(regions + [t] * with_dummy))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(case=tie_heavy_matchings())
def test_matching_matches_the_bitmask_oracle_bit_for_bit(case):
    w, odd = case
    pairs, weight = min_weight_perfect_matching(w, odd)
    oracle_pairs, oracle_weight = bitmask_matching(w, odd)
    assert pairs == oracle_pairs
    assert repr(weight) == repr(oracle_weight)


def test_euler_worked_instance_circuit():
    assert eulerian_circuit(((0, 1), (1, 2), (3, 0), (3, 2)), 3) == (3, 0, 1, 2, 3)


def test_euler_doubled_dummy_edge():
    assert eulerian_circuit(((0, 1), (0, 1)), 1) == (1, 0, 1)


def test_euler_triangle_plus_doubled_dummy():
    edges = ((0, 1), (1, 2), (0, 2), (3, 0), (3, 0))
    circuit = eulerian_circuit(edges, 3)
    assert len(circuit) - 1 == 5
    assert circuit[0] == circuit[-1] == 3
    assert circuit_edge_multiset(circuit) == graph_edge_multiset(edges)


def test_euler_rejects_odd_degree():
    with pytest.raises(InvariantViolation, match="odd degree"):
        eulerian_circuit(((0, 1), (1, 2), (0, 2), (0, 1)), 2)


def test_euler_rejects_disconnected_multigraph():
    with pytest.raises(InvariantViolation, match="not connected"):
        eulerian_circuit(((4, 0), (4, 0), (1, 2), (2, 3), (1, 3)), 4)


def test_euler_rejects_start_without_edges():
    with pytest.raises(InvariantViolation, match="no incident edges"):
        eulerian_circuit(((0, 1), (0, 1)), 2)


def test_shortcut_no_repeats_unchanged():
    # the route is the circuit's interior, reversed so that it ends at v'
    assert shortcut_to_hamiltonian((4, 0, 2, 1, 3, 4), 0).order == (3, 1, 2, 0)


def test_shortcut_skips_second_visit():
    assert shortcut_to_hamiltonian((3, 0, 1, 0, 2, 3), 0).order == (2, 1, 0)


def test_shortcut_keeps_v_prime_next_to_dummy_by_reversing():
    # v' = 0 repeats; only the occurrence adjacent to the dummy survives
    route = shortcut_to_hamiltonian((3, 1, 0, 2, 0, 3), 0)
    assert route.order == (1, 2, 0)
    assert route.final_region == 0


def test_shortcut_rejects_broken_anchor():
    with pytest.raises(InvariantViolation, match="final region"):
        shortcut_to_hamiltonian((3, 1, 0, 2, 3), 0)


# Dropping the dummy and its two zero-weight edges is the last step of
# shortcut_to_hamiltonian.


def test_remove_dummy_worked_cycle():
    inst = worked_under()
    edges, _ = minimum_spanning_tree(inst.costs)
    tree = edges + ((0, 3),)
    pairs, _ = min_weight_perfect_matching(np.pad(inst.costs, (0, 1)), odd_degree_vertices(tree))
    circuit = eulerian_circuit(tree + pairs, 3)
    assert circuit == (3, 0, 1, 2, 3)
    assert shortcut_to_hamiltonian(circuit, 0).order == (2, 1, 0)


def test_remove_dummy_two_regions():
    assert shortcut_to_hamiltonian((2, 1, 0, 2), 0).order == (1, 0)


def test_remove_dummy_weight_preserved():
    rng = np.random.default_rng(8)
    for _ in range(20):
        t = int(rng.integers(2, 9))
        inst = generate_instance(t, seed=int(rng.integers(1 << 30)))
        w = np.pad(inst.costs, (0, 1))
        perm = [int(v) for v in rng.permutation(t)]
        v_prime = perm[0]
        cycle = tuple([t] + perm + [t])
        route = shortcut_to_hamiltonian(cycle, v_prime)
        cycle_weight = sum(float(w[a, b]) for a, b in zip(cycle[:-1], cycle[1:]))
        assert route_travel_cost(inst, route) == pytest.approx(cycle_weight, rel=1e-12)
        assert route.final_region == v_prime


def test_remove_dummy_rejects_interior_dummy():
    with pytest.raises(InvariantViolation, match="inside"):
        shortcut_to_hamiltonian((3, 0, 3, 1, 3), 0)


def test_fixed_end_path_ends_where_asked_within_tree_plus_matching():
    rng = np.random.default_rng(11)
    for _ in range(20):
        t = int(rng.integers(2, 10))
        inst = generate_instance(t, seed=int(rng.integers(1 << 30)))
        for end in range(t):
            route, tree_weight, matching_weight = fixed_end_path(inst.costs, end)
            assert sorted(route.order) == list(range(t)) and route.final_region == end
            assert route_travel_cost(inst, route) <= tree_weight + matching_weight + 1e-9


def test_held_karp_worked_instance():
    inst = worked_under()
    route, value = held_karp_min_path(inst, inst.objective)
    assert route.order == (2, 1, 0)
    assert value == pytest.approx(8 / 3 + 0.8, rel=1e-12)


def test_held_karp_two_regions_picks_better_route():
    inst = generate_instance(2, seed=5)
    route, value = held_karp_min_path(inst, inst.objective)
    candidates = [loss_upper(inst, Route(o)).total for o in [(0, 1), (1, 0)]]
    assert value == pytest.approx(min(candidates), rel=1e-12)
    assert loss_upper(inst, route).total == pytest.approx(value, rel=1e-12)


@pytest.mark.parametrize("objective,m", [("under", 80), ("over", 120)])
def test_held_karp_matches_permutation_scan(objective, m):
    rng = np.random.default_rng(12)
    for _ in range(50):
        inst = generate_instance(7, seed=int(rng.integers(1 << 30)), m=m, n=100)
        route, value = held_karp_min_path(inst, inst.objective)
        scan_value, _ = scan_all_routes(inst, objective)
        assert value == pytest.approx(scan_value, rel=1e-9)
        assert loss_upper(inst, route).total == pytest.approx(scan_value, rel=1e-9)


def test_held_karp_travel_objective_matches_scan():
    rng = np.random.default_rng(13)
    for _ in range(20):
        t = int(rng.integers(2, 8))
        inst = generate_instance(t, seed=int(rng.integers(1 << 30)))
        route, value = held_karp_min_path(inst, travel_objective(t))
        scan_value, _ = scan_all_routes(inst, "travel")
        assert value == pytest.approx(scan_value, rel=1e-9)
        assert route_travel_cost(inst, route) == pytest.approx(value, rel=1e-12)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(inst=tie_heavy_instances(), travel_only=st.booleans())
def test_held_karp_matches_the_scalar_oracle_bit_for_bit(inst, travel_only):
    objective = travel_objective(inst.t_regions) if travel_only else inst.objective
    route, value = held_karp_min_path(inst, objective)
    oracle_route, oracle_value = scalar_held_karp(inst, objective)
    assert route == oracle_route
    assert repr(value) == repr(oracle_value)


def test_held_karp_size_guard():
    inst = generate_instance(HELD_KARP_MAX_T + 1, seed=1)
    with pytest.raises(SizeLimitError, match="approximation"):
        held_karp_min_path(inst, inst.objective)


def test_held_karp_rejects_objective_of_another_size():
    with pytest.raises(ValueError, match="regions"):
        held_karp_min_path(worked_under(), travel_objective(4))
