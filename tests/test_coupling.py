import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qeci
from qeci.coupling import (
    MarginalError,
    MarginalSet,
    Placement,
    bruteforce_coupling_2rows,
    coupling_to_joint_density,
    greedy_min_entropy_coupling,
    shannon_entropy,
)
from qeci.density import von_neumann_entropy
from qeci.linalg import partial_trace


def test_shannon_entropy_worked_value():
    assert shannon_entropy([0.95, 0.05]) == pytest.approx(0.2864, abs=5e-5)


def test_shannon_entropy_point_mass():
    assert shannon_entropy([1.0, 0.0]) == 0.0


def test_shannon_entropy_uniform_four():
    assert shannon_entropy([0.25] * 4) == pytest.approx(2.0, abs=1e-12)


def test_shannon_entropy_rejects_negative():
    with pytest.raises(MarginalError):
        shannon_entropy([1.1, -0.1])



def test_shannon_entropy_overflowing_sum_is_a_marginal_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MarginalError):
            shannon_entropy([1e308, 1e308])


def test_oracle_rejects_nan_rows():
    with pytest.raises(MarginalError):
        bruteforce_coupling_2rows([np.nan, np.nan], [0.5, 0.5], 10)

def test_marginal_set_pads_and_clamps():
    ms = MarginalSet.from_rows([[0.5, 0.5], [0.25, 0.25, 0.25, 0.25]])
    assert ms.rows.shape == (2, 4)
    assert np.allclose(ms.rows[0], [0.5, 0.5, 0.0, 0.0])
    ms2 = MarginalSet.from_rows([[1.0, -1e-13], [0.5, 0.5]])
    assert (ms2.rows >= 0).all()


def test_marginal_set_from_array_equals_the_list_path():
    rng = np.random.default_rng(72)
    for shape in [(1, 1), (2, 2), (3, 5), (64, 64)]:
        rows = rng.dirichlet(np.ones(shape[1]), size=shape[0])
        if shape[1] > 1:  # rounding noise below zero, which the clamp removes
            rows[0, 0] += rows[0, 1] + 1e-13
            rows[0, 1] = -1e-13
        got = MarginalSet.from_rows(rows).rows
        assert got.dtype == float and got.shape == shape and got.flags.c_contiguous
        assert got.tobytes() == MarginalSet.from_rows(list(rows)).rows.tobytes()


@pytest.mark.parametrize(
    "rows",
    [
        np.array([[0.5, 0.5], [1.1, -0.1]]),
        np.array([[0.5, 0.5], [np.nan, 1.0]]),
        np.array([[0.5, 0.5], [0.5, 0.4]]),
        np.array([[1e308, 1e308], [0.5, 0.5]]),
        np.zeros((0, 3)),
    ],
    ids=["negative", "nan", "row-sum", "overflow", "no-rows"],
)
def test_marginal_set_from_array_raises_as_the_list_path(rows):
    with pytest.raises(ValueError) as expected:
        MarginalSet.from_rows(list(rows))
    with pytest.raises(ValueError) as got:
        MarginalSet.from_rows(rows)
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)


def test_greedy_ignores_the_memory_order_of_its_rows():
    table = np.random.default_rng(73).dirichlet(np.ones(12)).reshape(3, 4)
    x = table / table.sum(axis=0)  # columns are the marginals
    expected = greedy_min_entropy_coupling(MarginalSet.from_rows(list(x.T)))
    assert len(expected.placements) > 2
    for marginals in [
        MarginalSet.from_rows(x.T),
        MarginalSet.from_rows(np.asfortranarray(x.T)),
        MarginalSet(rows=np.asfortranarray(MarginalSet.from_rows(list(x.T)).rows)),
    ]:
        result = greedy_min_entropy_coupling(marginals)
        assert result.placements == expected.placements
        assert result.entropy_bits == expected.entropy_bits


def test_marginal_set_rejects_unnormalized_row():
    with pytest.raises(MarginalError):
        MarginalSet.from_rows([[0.5, 0.4], [0.5, 0.5]])


def test_greedy_worked_forward_coupling():
    result = greedy_min_entropy_coupling(MarginalSet.from_rows([[0.05, 0.95], [0.05, 0.95]]))
    assert result.entropy_bits == pytest.approx(0.2864, abs=5e-5)
    by_coords = {p.coords: p.mass for p in result.placements}
    assert by_coords[(1, 1)] == pytest.approx(0.95, abs=1e-12)
    assert by_coords[(0, 0)] == pytest.approx(0.05, abs=1e-12)


def test_greedy_worked_backward_coupling():
    # rounded presentation of the conditionals reproduces the quoted masses
    rows = [[0.9268, 0.0732], [0.9661, 0.0339]]
    result = greedy_min_entropy_coupling(MarginalSet.from_rows(rows))
    masses = sorted(p.mass for p in result.placements)
    assert np.allclose(masses, [0.0339, 0.0393, 0.9268], atol=1e-12)
    # the quoted entropy belongs to the unrounded conditionals
    exact = [[0.38 / 0.41, 0.03 / 0.41], [0.57 / 0.59, 0.02 / 0.59]]
    result = greedy_min_entropy_coupling(MarginalSet.from_rows(exact))
    assert result.entropy_bits == pytest.approx(0.4505, abs=5e-5)


def test_greedy_identical_rows_reproduce_row_entropy():
    row = [0.5, 0.3, 0.2]
    result = greedy_min_entropy_coupling(MarginalSet.from_rows([row, row]))
    assert abs(result.entropy_bits - shannon_entropy(row)) <= 1e-12


def test_greedy_forced_coupling():
    result = greedy_min_entropy_coupling(MarginalSet.from_rows([[1.0, 0.0], [0.3, 0.7]]))
    assert result.entropy_bits == pytest.approx(shannon_entropy([0.3, 0.7]), abs=1e-12)


def test_greedy_marginal_consistency():
    rng = np.random.default_rng(31)
    for _ in range(30):
        nrows = rng.integers(2, 5)
        width = rng.integers(2, 6)
        rows = [rng.dirichlet(np.ones(width)) for _ in range(nrows)]
        ms = MarginalSet.from_rows(rows)
        result = greedy_min_entropy_coupling(ms)
        for k in range(nrows):
            recovered = np.zeros(width)
            for coords, mass in result.placements:
                recovered[coords[k]] += mass
            assert np.allclose(recovered, ms.rows[k], atol=1e-9)


def test_greedy_entropy_bounds():
    rng = np.random.default_rng(32)
    for _ in range(30):
        rows = [rng.dirichlet(np.ones(4)) for _ in range(3)]
        result = greedy_min_entropy_coupling(MarginalSet.from_rows(rows))
        lower = max(shannon_entropy(r) for r in rows)
        upper = sum(shannon_entropy(r) for r in rows)
        assert result.entropy_bits >= lower - 1e-9
        assert result.entropy_bits <= upper + 1e-9


def test_greedy_row_order_invariance():
    rng = np.random.default_rng(33)
    rows = [rng.dirichlet(np.ones(5)) for _ in range(4)]
    base = greedy_min_entropy_coupling(MarginalSet.from_rows(rows)).entropy_bits
    perm = greedy_min_entropy_coupling(MarginalSet.from_rows(rows[::-1])).entropy_bits
    assert base == pytest.approx(perm, abs=1e-12)


def test_greedy_masses_sum_to_one():
    rng = np.random.default_rng(34)
    rows = [rng.dirichlet(np.ones(3)) for _ in range(2)]
    result = greedy_min_entropy_coupling(MarginalSet.from_rows(rows))
    total = sum(p.mass for p in result.placements)
    assert total == pytest.approx(1.0, abs=1e-9)
    assert all(p.mass > 0 for p in result.placements)
    recomputed = -sum(p.mass * math.log2(p.mass) for p in result.placements)
    assert result.entropy_bits == pytest.approx(recomputed, abs=1e-12)


def test_bruteforce_uniform_pair():
    assert bruteforce_coupling_2rows([0.5, 0.5], [0.5, 0.5], 1000) == pytest.approx(
        1.0, abs=1e-12
    )


def test_bruteforce_forced_coupling():
    q = [0.3, 0.7]
    assert bruteforce_coupling_2rows([1.0, 0.0], q, 100) == pytest.approx(
        shannon_entropy(q), abs=1e-12
    )


def test_bruteforce_matches_greedy_on_worked_pair():
    p = [0.05, 0.95]
    brute = bruteforce_coupling_2rows(p, p, 10000)
    greedy = greedy_min_entropy_coupling(MarginalSet.from_rows([p, p])).entropy_bits
    assert brute == pytest.approx(0.2864, abs=5e-5)
    assert greedy <= brute + 1e-9


def test_greedy_within_one_bit_of_bruteforce():
    rng = np.random.default_rng(35)
    for _ in range(50):
        p = rng.dirichlet(np.ones(2))
        q = rng.dirichlet(np.ones(2))
        greedy = greedy_min_entropy_coupling(MarginalSet.from_rows([p, q])).entropy_bits
        brute = bruteforce_coupling_2rows(p, q, 10000)
        assert greedy <= brute + 1.0 + 1e-6


def test_coupling_to_joint_single_placement():
    result = greedy_min_entropy_coupling(MarginalSet.from_rows([[1.0, 0.0], [1.0, 0.0]]))
    rho = coupling_to_joint_density(result, [np.eye(2), np.eye(2)])
    assert np.allclose(rho.mat, np.diag([1.0, 0.0, 0.0, 0.0]))
    assert rho.dims == (2, 2)


def test_coupling_to_joint_worked_example():
    result = greedy_min_entropy_coupling(MarginalSet.from_rows([[0.05, 0.95], [0.05, 0.95]]))
    rho = coupling_to_joint_density(result, [np.eye(2), np.eye(2)])
    # placements land on |11> (mass 0.95) and |00> (mass 0.05)
    assert np.allclose(rho.mat, np.diag([0.05, 0.0, 0.0, 0.95]), atol=1e-12)


def test_coupling_to_joint_entropy_and_marginals_match():
    rng = np.random.default_rng(36)
    rows = [rng.dirichlet(np.ones(2)) for _ in range(2)]
    result = greedy_min_entropy_coupling(MarginalSet.from_rows(rows))
    rho = coupling_to_joint_density(result, [np.eye(2), np.eye(2)])
    assert von_neumann_entropy(rho) == pytest.approx(result.entropy_bits, abs=1e-9)
    # each subsystem's reduced density carries that marginal on its basis
    reduced = partial_trace(rho.mat, 2, 2, "B")
    assert np.allclose(np.diag(reduced).real, rows[0], atol=1e-9)


def _reference_greedy(rows: np.ndarray) -> tuple[list[tuple[int, ...]], list[float], float]:
    """Plain greedy loop: per round, each row's full-row argmax (lowest index on
    ties) and one scalar subtraction per row; masses renormalized by their
    sequential sum."""
    rows = np.array(rows, dtype=float)
    coords, masses = [], []
    while True:
        argmaxes = [int(j) for j in rows.argmax(axis=1)]
        r = min(float(rows[i, j]) for i, j in enumerate(argmaxes))
        if r <= 1e-12:
            break
        coords.append(tuple(argmaxes))
        masses.append(r)
        for i, j in enumerate(argmaxes):
            rows[i, j] -= r
    total = sum(masses)
    masses = [m / total for m in masses]
    return coords, masses, -sum(m * math.log2(m) for m in masses)


def _dirichlet_rows(seed: int, shape) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.dirichlet(np.ones(shape[1]), size=shape[0])


REFERENCE_SETS = {
    **{f"dirichlet_{m}x{n}": _dirichlet_rows(41 + k, (m, n))
       for k, (m, n) in enumerate([(64, 64), (32, 128), (128, 32)])},
    "ragged": [np.random.default_rng(44).dirichlet(np.ones(w)) for w in (3, 7, 5, 2, 6)],
    # after the first round row 1 holds 0.125 beside two untouched 0.25 entries
    "dyadic_ties": [[0.375, 0.375, 0.25], [0.5, 0.25, 0.25]],
    "dyadic_ragged": [[0.375, 0.375, 0.25], [0.5, 0.25, 0.25], [0.5, 0.5], [0.25] * 4],
}


@pytest.mark.parametrize("name", sorted(REFERENCE_SETS))
def test_greedy_matches_reference_loop(name):
    marginals = MarginalSet.from_rows(REFERENCE_SETS[name])
    coords, masses, entropy = _reference_greedy(marginals.rows)
    result = greedy_min_entropy_coupling(marginals)
    assert [p.coords for p in result.placements] == coords
    assert [p.mass for p in result.placements] == masses
    assert all(type(j) is int for p in result.placements for j in p.coords)
    assert abs(result.entropy_bits - entropy) <= 1e-12



@pytest.mark.parametrize("name", sorted(REFERENCE_SETS))
def test_coupling_result_arrays_match_the_eager_placements(name):
    marginals = MarginalSet.from_rows(REFERENCE_SETS[name])
    coords, masses, _ = _reference_greedy(marginals.rows)
    result = greedy_min_entropy_coupling(marginals)
    placements = result.placements
    assert placements == tuple(map(Placement, coords, masses))
    assert all(type(j) is int for p in placements for j in p.coords)
    assert all(type(p.mass) is float for p in placements)
    assert result.masses.tolist() == [p.mass for p in placements]
    assert result.coords.tolist() == [list(p.coords) for p in placements]
    assert result.coords.shape == (len(placements), marginals.rows.shape[0])
    assert not result.coords.flags.writeable and not result.masses.flags.writeable


_GREEDY_CHILD = """
import json, sys
import numpy as np
from qeci.coupling import MarginalError, MarginalSet, greedy_min_entropy_coupling
try:
    greedy_min_entropy_coupling(MarginalSet(rows=np.array(json.loads(sys.argv[1]))))
except MarginalError as exc:
    print(exc)
"""


@pytest.mark.parametrize(
    "rows",
    [
        [[math.nan, 1.0], [0.5, 0.5]],
        [[0.5, 0.5], [1.0, math.nan]],
        [[math.inf, math.inf]],  # the first round leaves inf - inf = nan
        [[math.inf, 1.0], [math.inf, math.inf]],
    ],
)
def test_greedy_on_unchecked_non_finite_rows_raises_instead_of_looping(rows):
    # a directly built MarginalSet is not checked; the child process turns a
    # loop that never ends into a timeout instead of a stalled suite
    src = str(Path(qeci.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    # the child keeps the suite's warning filter, so a raw numpy warning fails it too
    child = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", _GREEDY_CHILD, json.dumps(rows)],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout == "no probability mass to couple\n"


def test_greedy_stops_on_an_inf_top_before_subtracting():
    # inf - inf would leave a nan and a RuntimeWarning in the rows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MarginalError, match="no probability mass to couple"):
            greedy_min_entropy_coupling(MarginalSet(rows=np.array([[math.inf, math.inf]])))


# a row is either integer weights over their sum, or a cut of [0, 16] into
# dyadic sixteenths, whose residuals tie untouched entries exactly
_weight_rows = st.lists(st.integers(0, 9), min_size=1, max_size=5).filter(any).map(
    lambda w: [v / sum(w) for v in w]
)
_dyadic_rows = st.lists(st.integers(0, 16), max_size=4).map(
    lambda cuts: [b / 16 - a / 16 for a, b in zip([0, *sorted(cuts)], [*sorted(cuts), 16])]
)


@settings(max_examples=300)
@given(st.lists(st.one_of(_weight_rows, _dyadic_rows), min_size=1, max_size=4))
def test_greedy_properties_on_small_ragged_sets(rows):
    marginals = MarginalSet.from_rows(rows)
    result = greedy_min_entropy_coupling(marginals)
    masses = np.array([p.mass for p in result.placements])
    assert (masses > 0.0).all()
    assert abs(masses.sum() - 1.0) <= 1e-12
    for k, row in enumerate(marginals.rows):
        recovered = np.zeros_like(row)
        for coords, mass in result.placements:
            recovered[coords[k]] += mass
        assert np.allclose(recovered, row, rtol=0.0, atol=1e-9)
    entropies = [shannon_entropy(r) for r in marginals.rows]
    assert max(entropies) - 1e-12 <= result.entropy_bits <= sum(entropies) + 1e-12
    # exact ties between the smallest maxima must not move a placement
    coords, ref_masses, entropy = _reference_greedy(marginals.rows)
    assert [p.coords for p in result.placements] == coords
    assert [p.mass for p in result.placements] == ref_masses
    assert abs(result.entropy_bits - entropy) <= 1e-12
