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
from qeci import coupling
from qeci.causal import BRANCH_FLOOR, DegeneracyWarning, conditional_spectra
from qeci.channels import depolarizing_mixture, qsc_hadamard
from qeci.classicalmap import rotate_to_classical
from qeci.cli import main as cli_main
from qeci.coupling import (
    MarginalError,
    MarginalSet,
    Placement,
    greedy_min_entropy_coupling,
    shannon_entropy,
)

from _helpers import exact_min_entropy_2rows

FIG3_COMPONENTS = ((0.6, 0.8), (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)))


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
        exact_min_entropy_2rows([np.nan, np.nan], [0.5, 0.5])

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
    assert exact_min_entropy_2rows([0.5, 0.5], [0.5, 0.5]) == pytest.approx(1.0, abs=1e-12)


def test_bruteforce_forced_coupling():
    q = [0.3, 0.7]
    assert exact_min_entropy_2rows([1.0, 0.0], q) == pytest.approx(
        shannon_entropy(q), abs=1e-12
    )


def test_bruteforce_matches_greedy_on_worked_pair():
    p = [0.05, 0.95]
    exact = exact_min_entropy_2rows(p, p)
    greedy = greedy_min_entropy_coupling(MarginalSet.from_rows([p, p])).entropy_bits
    assert exact == pytest.approx(0.2864, abs=5e-5)
    assert greedy <= exact + 1e-9


def test_greedy_within_one_bit_of_bruteforce():
    rng = np.random.default_rng(35)
    for _ in range(50):
        p = rng.dirichlet(np.ones(2))
        q = rng.dirichlet(np.ones(2))
        greedy = greedy_min_entropy_coupling(MarginalSet.from_rows([p, q])).entropy_bits
        exact = exact_min_entropy_2rows(p, q)
        assert greedy <= exact + 1.0 + 1e-6


def _paper_sweep_two_row_sets():
    """Every two-row conditional set of the 19-point Hadamard (qsc_hadamard(0.4, p))
    and depolarizing sweeps: both cause sides' spectra, and both directions of
    the rotate_to_classical table's conditionals."""
    sets = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegeneracyWarning)
        for p in [round(0.05 * k, 2) for k in range(1, 20)]:
            for rho in (qsc_hadamard(0.4, p), depolarizing_mixture(0.4, *FIG3_COMPONENTS, p)):
                sets += [conditional_spectra(rho, side).rows for side in ("forward", "backward")]
                table = rotate_to_classical(rho).table
                for t in (table, table.T):
                    weights = t.sum(axis=1)
                    sets.append(t[weights > BRANCH_FLOOR] / weights[weights > BRANCH_FLOOR, None])
    return [rows for rows in sets if rows.shape == (2, 2)]


def test_greedy_is_exact_on_the_paper_sweeps_two_row_sets():
    # greedy is only an upper bound in general; on these sets it is the minimum
    sets = _paper_sweep_two_row_sets()
    assert len(sets) == 152
    gaps = [
        greedy_min_entropy_coupling(MarginalSet.from_rows(rows)).entropy_bits
        - exact_min_entropy_2rows(*rows)
        for rows in sets
    ]
    assert max(map(abs, gaps)) <= 1e-9


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
    total = 0.0
    for m in masses:
        total += m
    masses = [m / total for m in masses]
    return coords, masses, -sum(m * math.log2(m) for m in masses)


def _dirichlet_rows(seed: int, shape) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.dirichlet(np.ones(shape[1]), size=shape[0])


REFERENCE_SETS = {
    **{f"dirichlet_{m}x{n}": _dirichlet_rows(41 + k, (m, n))
       for k, (m, n) in enumerate([(64, 64), (32, 128), (128, 32)])},
    # the worked pair: (1, 1) with mass 0.95, then (0, 0) with 0.05
    "worked_pair": [[0.05, 0.95], [0.05, 0.95]],
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
    greedy_min_entropy_coupling(MarginalSet._trusted(np.array(json.loads(sys.argv[1]))))
except MarginalError as exc:
    print(exc)
"""

NON_FINITE_ROWS = [
    [[math.nan, 1.0], [0.5, 0.5]],
    [[0.5, 0.5], [1.0, math.nan]],
    [[math.inf, math.inf]],  # the first round leaves inf - inf = nan
    [[math.inf, 1.0], [math.inf, math.inf]],
]


@pytest.mark.parametrize("rows", NON_FINITE_ROWS)
def test_greedy_on_unchecked_non_finite_rows_raises_instead_of_looping(rows):
    # rows built by the library are trusted unchecked; the child process turns
    # a loop that never ends into a timeout instead of a stalled suite
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
            greedy_min_entropy_coupling(MarginalSet._trusted(np.array([[math.inf, math.inf]])))


@pytest.mark.parametrize("rows", NON_FINITE_ROWS)
def test_marginal_set_rejects_non_finite_rows_when_built(rows):
    with pytest.raises(MarginalError, match="^marginal set contains non-finite entries$"):
        MarginalSet(rows=np.array(rows))


def test_marginal_set_rejects_a_row_summing_to_more_than_one_when_built():
    with pytest.raises(MarginalError, match=r"^row 0 sums to 1\.8, not 1$"):
        MarginalSet(rows=np.array([[0.9, 0.9], [0.5, 0.5]]))


@pytest.mark.parametrize("rows", [[[0.5, 0.5], [0.5, 0.5, 0.0]], [0.5, 0.5], [], np.zeros((0, 2))])
def test_marginal_set_rejects_rows_that_are_not_one_stack(rows):
    # ragged rows are padded by from_rows; built directly they must already be a stack
    with pytest.raises(MarginalError):
        MarginalSet(rows=rows)


def test_marginal_set_keeps_c_ordered_read_only_float_rows():
    rows = np.asfortranarray([[1, 0, 0], [0, 1, 0]], dtype=np.int64)
    kept = MarginalSet(rows=rows).rows
    assert kept.dtype == float and kept.flags.c_contiguous and not kept.flags.writeable
    assert kept.tolist() == rows.tolist()


def test_marginal_set_from_rows_checks_once(monkeypatch):
    calls = []
    real_check = coupling._probability_rows

    def counting_check(*args):
        calls.append(args[1])
        return real_check(*args)

    monkeypatch.setattr(coupling, "_probability_rows", counting_check)
    MarginalSet.from_rows([[0.5, 0.5], [1.0]])
    assert calls == ["marginal set"]


@pytest.mark.parametrize("name", sorted(REFERENCE_SETS))
def test_greedy_renormalizes_by_the_left_to_right_total(name):
    # not sum(masses), which compensates its rounding on Python >= 3.12
    masses, total = coupling._greedy_rounds(MarginalSet.from_rows(REFERENCE_SETS[name]).rows)
    loop_total = 0.0
    for m in masses:
        loop_total += m
    assert total == loop_total
    result = greedy_min_entropy_coupling(MarginalSet.from_rows(REFERENCE_SETS[name]))
    assert result.masses.tobytes() == (np.array(masses) / loop_total).tobytes()


def test_coords_are_replayed_once_and_cached():
    result = greedy_min_entropy_coupling(MarginalSet.from_rows(REFERENCE_SETS["ragged"]))
    assert "coords" not in vars(result)
    first = result.coords
    assert result.coords is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0] = 1


def test_coords_ignore_a_later_change_to_the_coupled_array():
    rows = np.array(REFERENCE_SETS["dirichlet_64x64"])
    expected = greedy_min_entropy_coupling(MarginalSet.from_rows(rows.copy())).coords
    result = greedy_min_entropy_coupling(MarginalSet(rows=rows))
    rows[:] = rows[::-1, ::-1]
    assert result.coords.tobytes() == expected.tobytes()
    assert [list(p.coords) for p in result.placements] == expected.tolist()
    assert len(expected) > 64


def _greedy_loops_run(monkeypatch, run) -> list[tuple[str, bool]]:
    """Each greedy loop run under ``run()``: the numpy rounds or the heaps, by
    name, and whether it was handed a picks list (the heaps take none)."""
    runs = []

    def spying(name, real):
        def loop(rows, *picks):
            runs.append((name, bool(picks) and picks[0] is not None))
            return real(rows, *picks)

        return loop

    for name in ("_greedy_rounds", "_greedy_masses"):
        monkeypatch.setattr(coupling, name, spying(name, getattr(coupling, name)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegeneracyWarning)
        run()
    return runs


def _picks_handed_to_the_rounds(monkeypatch, run) -> list:
    """Whether each greedy loop run under ``run()``, of either kind, was handed a picks list."""
    return [handed for _, handed in _greedy_loops_run(monkeypatch, run)]


def _cli(*argv):
    assert cli_main(list(argv)) == 0


_VERDICT_PATHS = {
    "qeci_infer": lambda: qeci.qeci_infer(qsc_hadamard(0.4, 0.3)),
    "classical_eci": lambda: qeci.classical_eci(
        qeci.JointDistribution(table=_dirichlet_rows(45, (1, 12)).reshape(3, 4))
    ),
    "rotate_to_classical": lambda: qeci.classical_eci(
        rotate_to_classical(depolarizing_mixture(0.4, *FIG3_COMPONENTS, 0.3))
    ),
    "qeci sweep": lambda: _cli(
        "sweep", "--channel", "qsc", "--q", "0.4", "--p-start", "0.1", "--p-end", "0.9",
        "--steps", "3",
    ),
    "qeci demo": lambda: _cli("demo"),
}


@pytest.mark.parametrize("path", sorted(_VERDICT_PATHS))
def test_verdicts_never_ask_for_placements(monkeypatch, capsys, path):
    handed = _picks_handed_to_the_rounds(monkeypatch, _VERDICT_PATHS[path])
    assert handed and not any(handed)


def test_the_coupling_command_replays_the_placements_once(monkeypatch, capsys, tmp_path):
    marginals = tmp_path / "marginals.json"
    marginals.write_text(json.dumps([[0.05, 0.95], [0.05, 0.95]]))
    handed = _picks_handed_to_the_rounds(
        monkeypatch, lambda: _cli("coupling", "--marginals", str(marginals))
    )
    assert handed == [False, True]


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


@settings(max_examples=300)
@given(st.lists(st.one_of(_weight_rows, _dyadic_rows), min_size=1, max_size=8))
def test_the_heaps_give_the_masses_and_total_of_the_numpy_rounds(rows):
    # with exact ties and zeros, the heaps may take another of equal maxima than argmax
    rows = MarginalSet.from_rows(rows).rows
    assert coupling._greedy_masses(rows) == coupling._greedy_rounds(rows)


@pytest.mark.parametrize(
    "nrows, loop",
    [(1, "_greedy_masses"), (8, "_greedy_masses"), (9, "_greedy_rounds"), (64, "_greedy_rounds")],
)
def test_sets_of_more_than_eight_rows_take_the_numpy_rounds(monkeypatch, nrows, loop):
    marginals = MarginalSet.from_rows(_dirichlet_rows(46, (nrows, 3)))
    runs = _greedy_loops_run(monkeypatch, lambda: greedy_min_entropy_coupling(marginals))
    assert runs == [(loop, False)]


@pytest.mark.parametrize("rows", [*NON_FINITE_ROWS, np.zeros((2, 0))])
def test_sets_the_heaps_cannot_couple_raise_as_under_the_numpy_rounds(monkeypatch, rows):
    marginals = MarginalSet._trusted(np.array(rows, dtype=float))
    with monkeypatch.context() as numpy_only:
        numpy_only.setattr(coupling, "_HEAP_ROWS", 0)
        with pytest.raises(ValueError) as expected:
            greedy_min_entropy_coupling(marginals)
    monkeypatch.setattr(coupling, "_greedy_masses", lambda rows: pytest.fail("heaps ran"))
    with pytest.raises(ValueError) as got:
        greedy_min_entropy_coupling(marginals)
    assert (type(got.value), str(got.value)) == (type(expected.value), str(expected.value))
