from __future__ import annotations

import hashlib
import math
import sys
import tempfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clroute import (
    Objective,
    RegimeKind,
    Route,
    ValidationError,
    classify_regime,
    generate_instance,
    metric_closure,
    read_instance,
    validate_instance,
    write_instance,
)
from helpers import (
    assert_compared_by_identity,
    closure_by_full_passes,
    generated_raw_costs,
    instance_json_oracle,
    manual_instance,
    scalar_entry_faults,
    scalar_triangle_violation,
    special_float_instances,
)


def test_classify_regime_boundaries():
    assert classify_regime(80, 100) is RegimeKind.UNDER
    assert classify_regime(80, 82) is RegimeKind.UNDER
    assert classify_regime(120, 100) is RegimeKind.OVER
    assert classify_regime(82, 80) is RegimeKind.OVER


def test_regime_r_value():
    # the surviving-error fraction r = 1 - n/m sets the overparameterized
    # position weights (1 - r) r^(T-p) / T; the underparameterized ones have no r
    r = 1.0 - 100 / 120
    assert 0.0 < r < 1.0
    over = Objective.build(np.zeros(3), 0.0, 120, 100, 1.0)
    assert over.position_weights == pytest.approx([(1 - r) * r ** (3 - p) / 3 for p in (1, 2, 3)])
    assert Objective.build(np.zeros(3), 0.0, 80, 100, 1.0).position_weights == (0.0, 0.0, 1.0)


def test_route_accessors():
    route = Route((2, 0, 1))
    assert len(route) == 3
    assert route.final_region == 1
    assert route.one_based() == (3, 1, 2)


@st.composite
def corrupted_costs(draw):
    """A metric cost matrix, scaled by 1e-3, 1 or 1.6e307 (where sums of two
    costs overflow), with one to four corruptions: an off-diagonal pair set
    to within a few ulps of the tolerance of one of its triangles, an
    off-diagonal entry set to any value on one side or both, or a nonzero
    diagonal entry. The tight pair is set on both sides, as the triangle
    check runs only on symmetric costs."""
    t = draw(st.integers(3, 10))
    scale = draw(st.sampled_from([1e-3, 1.0, 1.6e307]))
    upper = np.triu_indices(t, 1)
    pairs = len(upper[0])
    raw = np.zeros((t, t))
    raw[upper] = draw(st.lists(st.floats(1.0, 10.0), min_size=pairs, max_size=pairs))
    c = metric_closure(raw + raw.T) * scale
    for _ in range(draw(st.integers(1, 4))):
        i, j, k = draw(st.permutations(range(t)))[:3]
        kind = draw(st.sampled_from(["tight", "value", "diagonal"]))
        if kind == "diagonal":
            c[i, i] = draw(st.floats(-2.0, 11.0)) * scale
            continue
        if kind == "tight":
            via = float(c[i, k]) + float(c[k, j])  # a Python sum overflows silently
            x = via + 1e-12 * via
            steps = draw(st.integers(-4, 4))
            for _step in range(abs(steps)):
                x = math.nextafter(x, math.copysign(math.inf, steps))
            x = min(x, sys.float_info.max)
        else:
            x = draw(st.floats(-2.0, 11.0)) * scale
        c[i, j] = x
        if kind == "tight" or draw(st.booleans()):
            c[j, i] = x
    return c


def assert_message_matches_the_scalar_loop(costs):
    """The full message, from the scalar loops alone: the asymmetry, diagonal
    and sign faults, or, only when there are none, the first violated triple."""
    t = costs.shape[0]
    expected = scalar_entry_faults("c", costs)
    violation = scalar_triangle_violation(costs)
    if not expected and violation is not None:
        expected.append(violation)
    try:
        manual_instance(np.zeros((t, t)), np.ones(t), costs, 4, 10)
    except ValidationError as exc:
        message = str(exc)
    else:
        message = None
    if expected:
        assert message == "; ".join(expected)
    else:  # a metric matrix whose costs sum past a float is rejected after validation
        assert message is None or message.startswith("c too large:")
    return message


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(costs=corrupted_costs())
def test_triangle_message_matches_the_scalar_loop(costs):
    assert_message_matches_the_scalar_loop(costs)


@pytest.mark.parametrize("t", [41, 90])
@pytest.mark.parametrize("both", [False, True])
def test_triangle_message_matches_the_scalar_loop_across_row_blocks(t, both):
    # the check takes 38 rows per block at T=41 and 8 at T=90. Entry (i, j)
    # is set in the last block's first row, or in a row of the block before
    # it, below or above the diagonal; on both sides it keeps the costs
    # symmetric, which are scanned at j > i only, and on one side the
    # asymmetry is reported alone, as is a negative entry
    start = {41: 38, 90: 88}[t]
    rng = np.random.default_rng(t)
    raw = np.triu(rng.uniform(1.0, 10.0, (t, t)), 1)
    metric = metric_closure(raw + raw.T)
    triangles = 0
    for i, j in [(start, start + 1), (start - 1, t - 1), (start - 1, start - 2)]:
        via = np.delete(metric[i] + metric[:, j], [i, j]).min()  # the tightest triangle
        below = above = via + 1e-12 * via
        for _ in range(3):
            below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
        # a few ulps either side of its tolerance, far over, or below every detour
        for x in (below, above, 25.0, -25.0):
            c = metric.copy()
            c[i, j] = x
            if both:
                c[j, i] = x
            message = assert_message_matches_the_scalar_loop(c)
            triangles += message is not None and "triangle inequality" in message
    # a nonzero diagonal entry is reported alone: as a detour's leg (k = i
    # or k = j) below zero it would undercut every detour through it, and as
    # a pair (j = i) above every detour it would be a violated one
    for i in (start, start - 1):
        for x in (-25.0, 25.0):
            c = metric.copy()
            c[i, i] = x
            assert "triangle inequality" not in assert_message_matches_the_scalar_loop(c)
    assert triangles == (6 if both else 0)


def test_problem_instance_arrays_read_only():
    inst = generate_instance(4, seed=1)
    with pytest.raises(ValueError):
        inst.delta[0, 1] = 99.0
    with pytest.raises(ValueError):
        inst.costs[0, 1] = 99.0


def test_instances_built_alike_compare_by_identity():
    assert_compared_by_identity(generate_instance(4, 1), generate_instance(4, 1))


def test_metric_closure_shortest_paths_by_hand():
    closed = metric_closure(np.array([[0, 1, 5], [1, 0, 1], [5, 1, 0]], float))
    assert np.array_equal(closed, np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], float))


def closure_inputs():
    """Named inputs for the bit-for-bit closure test: raw costs
    generate_instance closes, asymmetric uniform matrices, matrices holding
    +inf or signed zeros, and already-closed matrices."""
    rng = np.random.default_rng(3)
    # seeds 0-2 at every T from 2 to 40 take one to four full passes (four
    # at T=16, 24, 34 and 36); T=28 seed 32 takes five
    for t, seed in [*((t, seed) for t in range(2, 41) for seed in range(3)), (28, 32)]:
        yield f"generated T={t} seed={seed}", generated_raw_costs(t, seed)
    # on an asymmetric matrix the triples through a moved d[i, k] and
    # through a moved d[k, j] are different sets, and a check that skips
    # either set returns early on some of these
    for t in range(3, 41):
        mat = rng.uniform(0.0, 10.0, (t, t))
        np.fill_diagonal(mat, 0.0)
        yield f"asymmetric T={t}", mat
        holes = mat.copy()
        holes[rng.random((t, t)) < 0.3] = np.inf
        np.fill_diagonal(holes, 0.0)
        yield f"+inf T={t}", holes
        zeros = rng.choice([0.0, -0.0, 1.0, 2.5, np.inf], (t, t))
        yield f"signed zeros T={t}", zeros
        yield f"closed T={t}", closure_by_full_passes(mat)[0]
    yield "closed generated T=24", generate_instance(24, seed=2).costs


def test_metric_closure_matches_full_passes_bit_for_bit():
    # the closure skips the pass that would only confirm its fixed point,
    # checking the triples through the entries the last pass moved instead
    passes = Counter()
    for name, costs in closure_inputs():
        expected, n = closure_by_full_passes(costs)
        passes[n] += name.startswith("generated")
        assert metric_closure(costs).tobytes() == expected.tobytes(), name
    assert all(passes[n] for n in range(1, 6)), passes


def test_generated_raw_costs_are_what_generate_instance_closes():
    for t, seed in ((2, 0), (16, 1), (24, 2), (80, 0)):
        closed, _ = closure_by_full_passes(generated_raw_costs(t, seed))
        assert generate_instance(t, seed).costs.tobytes() == closed.tobytes()


def test_generate_smallest_instance():
    inst = generate_instance(2, seed=3)
    assert inst.t_regions == 2
    assert inst.delta[0, 1] == inst.delta[1, 0] > 0
    assert inst.costs[0, 1] == inst.costs[1, 0] > 0
    assert validate_instance(inst) is None


def test_write_read_round_trip(tmp_path):
    inst = generate_instance(5, seed=9, m=120, n=100, sigma2=0.5)
    path = tmp_path / "inst.json"
    write_instance(inst, path)
    back = read_instance(path)
    assert back.t_regions == inst.t_regions
    assert back.m_features == 120 and back.n_samples == 100
    assert back.sigma2 == 0.5
    assert np.array_equal(back.delta, inst.delta)
    assert np.array_equal(back.delta0, inst.delta0)
    assert np.array_equal(back.costs, inst.costs)


def test_serialized_floats_round_trip_exactly(tmp_path):
    inst = generate_instance(6, seed=123)
    path = tmp_path / "rt.json"
    write_instance(inst, path)
    back = read_instance(path)
    assert back.delta.tobytes() == inst.delta.tobytes()
    assert back.costs.tobytes() == inst.costs.tobytes()


# sha256 of the file write_instance writes for
# generate_instance(t, seed, m=m, n=100, sigma2=sigma2): the gen file layout
# is fixed, so a change that moves one is an output change, re-pinned openly
GEN_FILE_SHA256 = {
    (2, 1, 80, 1.0): "3fee92af752e6be997b8e92fe8fb6300f1d2b62ebc58afe0fbb0f36958c2b3e2",
    (2, 1, 120, 0.5): "7bee426d67029aa62f60c0ee299090f9d570c2559df9901a7b5e1662a89d96cf",
    (2, 2, 80, 1.0): "c83465daf57192959836faa803f57b41be68c81111cf4268985ea04f3b5bdb0c",
    (2, 2, 120, 0.5): "b85a20d55095011331af24cf2191d7aa9a8f72b24bad5b90fa5eb249a7ad3021",
    (8, 1, 80, 1.0): "8d0667824978bebcfc2f251a7cf04e1ee7d4266a627b417f7e45b6d093b5eca2",
    (8, 1, 120, 0.5): "4fa376e7c39e397e82c0e3e81799d51a80f101f2aa38d3adb3979f0c888af1d9",
    (8, 2, 80, 1.0): "5d75af00c09962bb700f8cc0e15b0fa7503ffae1793dd769c52b1653e1f6e0d9",
    (8, 2, 120, 0.5): "d1aca0fac744644abfa84c84af411e7f85904536b07082ae6b6be5929d3f7965",
    (24, 1, 80, 1.0): "fd0bb665e3c5d77f79f744c9194d15f7159a4aaa7f5a43f1de0199f788a70eb2",
    (24, 1, 120, 0.5): "c35a14e1b92e2ec8cf8e252387f514d315e43d8b0b931bc2715b873ede125c7a",
    (24, 2, 80, 1.0): "df427bc4dcc8ef403224c3672816aa8b4d5e43f5a81c469e273783f9628b4ad4",
    (24, 2, 120, 0.5): "2c3d2ddad5f732e110db8e3b703c8b564f4f2959ae0eb0a04069acea8f269248",
    (80, 1, 80, 1.0): "820121c1f88a718b15a232b975c45f73b08173c2e592e01999c0ac63f7e57a79",
    (80, 1, 120, 0.5): "9f7471a48777614dacdd3a5937c6965c785af987622813850490e33a61a1510d",
    (80, 2, 80, 1.0): "c092b95e61943680dfe1e818b7689f345e75c89d99c1ccd73d45edd14e2b589e",
    (80, 2, 120, 0.5): "2d2395e923cdeb3a5f5e6bc197e42683f6e9b669271766e9308effeb00cd5246",
}


@pytest.mark.parametrize("t,seed,m,sigma2", sorted(GEN_FILE_SHA256))
def test_gen_file_bytes_are_pinned(tmp_path, t, seed, m, sigma2):
    path = tmp_path / "inst.json"
    write_instance(generate_instance(t, seed, m=m, n=100, sigma2=sigma2), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GEN_FILE_SHA256[t, seed, m, sigma2]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(inst=special_float_instances())
def test_write_instance_matches_the_encoder_oracle(inst):
    # the same bytes as json.dumps(indent=2), and every float read back bit for bit
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/inst.json"
        write_instance(inst, path)
        with open(path, "rb") as f:
            assert f.read() == instance_json_oracle(inst).encode()
        back = read_instance(path)
    for name in ("delta", "delta0", "costs"):
        assert getattr(back, name).tobytes() == getattr(inst, name).tobytes()
    assert np.float64(back.sigma2).tobytes() == np.float64(inst.sigma2).tobytes()
