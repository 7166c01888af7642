"""One check per contract: what each boundary check rejects, and with which error.

The tables pin, for inputs that break exactly one contract, the exception
class and message raised by the density-matrix check, by each
probability-vector caller and by the other public entry points. Spy tests check that validate_density runs the
finiteness and hermiticity checks once and certifies a positive definite
matrix by one Cholesky factorization, and property tests fuzz every
boundary check with extreme entries: each call returns an object that meets
its contract or raises a ValueError (or EigenConvergenceError), and never
lets a raw numpy RuntimeWarning through.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeci import (
    JointDistribution,
    MarginalError,
    MarginalSet,
    conditional_spectra,
    instance_conditional,
    qeci_infer,
    rotate_to_classical,
    shannon_entropy,
    star_product,
    validate_density,
)
from qeci.causal import _reduced
from qeci.density import NotPSD, TraceNotOne, pure_state
from qeci.linalg import (
    DimensionMismatch,
    EigenConvergenceError,
    NotHermitian,
    _umath_linalg,
    hermitian_eig,
    partial_trace,
    require_finite,
)

from _helpers import random_density, rebind


def _half(**entries) -> np.ndarray:
    m = np.diag([0.5, 0.5]).astype(complex)
    for key, value in entries.items():
        m[int(key[1]), int(key[2])] = value
    return m


def _huge(off_diagonal) -> np.ndarray:
    m = np.diag([0.25] * 4).astype(complex)
    if off_diagonal is None:
        np.fill_diagonal(m, 1e308)
    else:
        m[0, 1], m[1, 0] = off_diagonal, -off_diagonal
    return m


# (case, matrix, dims, exception class or None when accepted, message)
DENSITY_CASES = [
    ("non-square", np.zeros((2, 3)), (2,), DimensionMismatch,
     "expected a square matrix, got shape (2, 3)"),
    ("1-D", np.array([1.0]), (1,), DimensionMismatch,
     "expected a square matrix, got shape (1,)"),
    ("dims mismatch", _half(), (3,), DimensionMismatch,
     "subsystem dims (3,) do not multiply to matrix dimension 2"),
    ("negative dims", np.eye(4) / 4, (-2, -2), DimensionMismatch,
     "subsystem dims (-2, -2) must be integers >= 1"),
    ("fractional dims", np.eye(4) / 4, (2.9, 2.9), DimensionMismatch,
     "subsystem dims (2.9, 2.9) must be integers >= 1"),
    ("zero dim of an empty matrix", np.zeros((0, 0)), (0,), DimensionMismatch,
     "subsystem dims (0,) must be integers >= 1"),
    ("nan dim", _half(), (math.nan,), DimensionMismatch,
     "subsystem dims (nan,) must be integers >= 1"),
    ("inf dim", _half(), (math.inf,), DimensionMismatch,
     "subsystem dims (inf,) must be integers >= 1"),
    ("string dims", np.eye(4) / 4, ("2", "2"), DimensionMismatch,
     "subsystem dims ('2', '2') must be integers >= 1"),
    ("integral float dims", np.eye(4) / 4, (2.0, 2.0), None, None),
    ("NaN", _half(m01=np.nan), (2,), ValueError,
     "matrix contains non-finite entries"),
    ("inf", _half(m11=np.inf), (2,), ValueError,
     "matrix contains non-finite entries"),
    ("anti-Hermitian 1e-6", _half(m01=0.5e-6, m10=-0.5e-6), (2,), NotHermitian,
     "hermiticity residual 1.414e-06 exceeds 1.0e-09"),
    ("trace 0.9", np.diag([0.5, 0.4]), (2,), TraceNotOne,
     "trace residual 1.000e-01 exceeds 1.0e-09"),
    ("eigenvalue -1e-3", np.diag([1.001, -1e-3]), (2,), NotPSD,
     "minimum eigenvalue -1.000e-03 below -1.0e-09"),
    ("noise -1e-10 clamped", np.diag([1 + 1e-10, -1e-10]), (2,), None, None),
    ("1e308 diagonal", _huge(None), (2, 2), TraceNotOne,
     "trace residual inf exceeds 1.0e-09"),
    ("1e308 Hermitian pair", _huge(1e308j), (2, 2), NotPSD,
     "minimum eigenvalue -1.000e+308 below -1.0e-09"),
    ("1e308 anti-Hermitian pair", _huge(1e308), (2, 2), NotHermitian,
     "hermiticity residual inf exceeds 1.0e-09"),
]


@pytest.mark.parametrize(
    "matrix, dims, error, message",
    [case[1:] for case in DENSITY_CASES],
    ids=[case[0] for case in DENSITY_CASES],
)
def test_validate_density_single_contract_violations(matrix, dims, error, message):
    if error is None:
        rho = validate_density(matrix, dims)
        assert (rho.eig.eigenvalues >= 0.0).all()
        assert abs(np.trace(rho.mat) - 1.0) <= 1e-12
        return
    with pytest.raises(error) as info:
        validate_density(matrix, dims)
    assert str(info.value) == message


CALLERS = {
    "from_rows": lambda r: MarginalSet.from_rows([[0.5, 0.5], r]),
    "MarginalSet": lambda r: MarginalSet(rows=[[0.5, 0.5], r]),
    "from_table": lambda r: JointDistribution.from_table([r]),
    "JointDistribution": lambda r: JointDistribution(table=[r]),
    "shannon_entropy": shannon_entropy,
}

BAD_ROWS = {
    "negative": [1.001, -1e-3],
    "NaN": [np.nan, 0.5],
    "bad sum": [0.5, 0.25],
    "overflowing sum": [1e308, 1e308],
}

# (caller, violation, exception class, message)
PROBABILITY_CASES = [
    ("from_rows", "negative", MarginalError, "row 1 has entry -1.000e-03 below -1.0e-12"),
    ("from_rows", "NaN", MarginalError, "marginal set contains non-finite entries"),
    ("from_rows", "bad sum", MarginalError, "row 1 sums to 0.75, not 1"),
    ("from_rows", "overflowing sum", MarginalError, "row 1 sums to inf, not 1"),
    ("MarginalSet", "negative", MarginalError, "row 1 has entry -1.000e-03 below -1.0e-12"),
    ("MarginalSet", "NaN", MarginalError, "marginal set contains non-finite entries"),
    ("MarginalSet", "bad sum", MarginalError, "row 1 sums to 0.75, not 1"),
    ("MarginalSet", "overflowing sum", MarginalError, "row 1 sums to inf, not 1"),
    ("from_table", "negative", ValueError, "joint table has entry -1.000e-03 below -1.0e-12"),
    ("from_table", "NaN", ValueError, "joint table contains non-finite entries"),
    ("from_table", "bad sum", ValueError, "joint table sums to 0.75, not 1"),
    ("from_table", "overflowing sum", ValueError, "joint table sums to inf, not 1"),
    ("JointDistribution", "negative", ValueError,
     "joint table has entry -1.000e-03 below -1.0e-12"),
    ("JointDistribution", "NaN", ValueError, "joint table contains non-finite entries"),
    ("JointDistribution", "bad sum", ValueError, "joint table sums to 0.75, not 1"),
    ("JointDistribution", "overflowing sum", ValueError, "joint table sums to inf, not 1"),
    ("shannon_entropy", "negative", MarginalError,
     "probability vector has entry -1.000e-03 below -1.0e-12"),
    ("shannon_entropy", "NaN", MarginalError, "probability vector contains non-finite entries"),
    ("shannon_entropy", "bad sum", MarginalError, "probability vector sums to 0.75, not 1"),
    ("shannon_entropy", "overflowing sum", MarginalError, "probability vector sums to inf, not 1"),
]


@pytest.mark.parametrize(
    "caller, violation, error, message",
    PROBABILITY_CASES,
    ids=[f"{case[0]}-{case[1]}" for case in PROBABILITY_CASES],
)
def test_probability_callers_single_contract_violations(caller, violation, error, message):
    with pytest.raises(error) as info:
        CALLERS[caller](BAD_ROWS[violation])
    assert type(info.value) is error
    assert str(info.value) == message


def _uniform(*dims):
    d = math.prod(dims)
    return validate_density(np.eye(d) / d, dims)


# (case, call, exception class, message): each call breaks one contract of its entry point
ENTRY_CASES = [
    *[
        (f"{name} on dims {dims}", lambda call=call, dims=dims: call(_uniform(*dims)),
         DimensionMismatch, f"need a bipartite density, got dims {dims}")
        for dims in [(4,), (2, 2, 2)]
        for name, call in [
            ("qeci_infer", qeci_infer),
            ("conditional_spectra", lambda rho: conditional_spectra(rho, "forward")),
            ("rotate_to_classical", rotate_to_classical),
            ("instance_conditional",
             lambda rho: instance_conditional(rho, pure_state(np.eye(rho.dims[0])[0]), "first")),
        ]
    ],
    ("instance_conditional ket of dimension 3",
     lambda: instance_conditional(_uniform(2, 4), pure_state(np.eye(3)[0]), "first"),
     DimensionMismatch, "condition ket dimension 3 != subsystem dimension 2"),
    ("instance_conditional second-side ket of dimension 2",
     lambda: instance_conditional(_uniform(2, 4), pure_state(np.eye(2)[0]), "second"),
     DimensionMismatch, "condition ket dimension 2 != subsystem dimension 4"),
    ("1-D JointDistribution", lambda: JointDistribution.from_table([0.5, 0.5]),
     ValueError, "joint table must be 2-D, got shape (2,)"),
    ("conditional_spectra direction", lambda: conditional_spectra(_uniform(2, 2), "sideways"),
     ValueError, "direction must be 'forward' or 'backward', got 'sideways'"),
    ("partial_trace side", lambda: partial_trace(np.eye(4) / 4, 2, 2, "C"),
     ValueError, "traced_side must be 'A' or 'B', got 'C'"),
    ("star_product non-square", lambda: star_product(np.zeros((2, 3)), np.eye(2)),
     DimensionMismatch, "star product needs two square matrices"),
    ("star_product dims that do not divide", lambda: star_product(np.eye(3) / 3, np.eye(2)),
     DimensionMismatch, "dimension 2 does not divide 3"),
]


@pytest.mark.parametrize(
    "call, error, message",
    [case[1:] for case in ENTRY_CASES],
    ids=[case[0] for case in ENTRY_CASES],
)
def test_entry_points_single_contract_violations(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


def test_validate_density_checks_finiteness_and_hermiticity_once(monkeypatch):
    mat = random_density(np.random.default_rng(8), (2, 2)).mat
    calls = {"require_finite": 0, "norm": 0}
    norm = np.linalg.norm

    def counting_finite(*args, **kwargs):
        calls["require_finite"] += 1
        return require_finite(*args, **kwargs)

    def counting_norm(*args, **kwargs):
        calls["norm"] += 1
        return norm(*args, **kwargs)

    rebind(monkeypatch, require_finite, counting_finite)
    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    validate_density(mat, (2, 2))
    assert calls == {"require_finite": 1, "norm": 1}


@pytest.mark.parametrize("rank, cholesky, eigvalsh", [(16, 1, 0), (1, 1, 1)])
def test_validate_density_certifies_a_positive_definite_joint_by_one_factorization(
    monkeypatch, rank, cholesky, eigvalsh
):
    # a full-rank joint is certified by one Cholesky factorization and needs
    # no spectrum; a rank-deficient one fails it and pays for one eigvalsh
    rng = np.random.default_rng(12)
    g = rng.normal(size=(16, rank)) + 1j * rng.normal(size=(16, rank))
    mat = g @ g.conj().T
    calls = dict.fromkeys(("cholesky_lo", "eigvalsh_lo", "eigh_lo"), 0)
    for name in calls:

        def counting(*args, _name=name, _kernel=getattr(_umath_linalg, name), **kwargs):
            calls[_name] += 1
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(_umath_linalg, name, counting)
    validate_density(mat / np.trace(mat).real, (4, 4))
    assert (calls["cholesky_lo"], calls["eigvalsh_lo"]) == (cholesky, eigvalsh)
    if rank == 16:
        assert calls["eigh_lo"] == 0  # nor a decomposition


# -- fuzzing the boundary checks with extreme entries -------------------------

SMALL = [0.0, 1e-13, -1e-13, 0.25, 0.5, 1.0]
EXTREME = [1e154, -1e154, 1e300, -1e300, 1e308, -1e308, math.nan, math.inf, -math.inf]
_entries = st.one_of(st.sampled_from(SMALL), st.sampled_from(SMALL + EXTREME))
# rows that sum to one, up to entries the clamp removes
_unit_rows = st.sampled_from(
    [[1.0], [0.5, 0.5], [0.25, 0.25, 0.5], [1.0, 1e-13], [1.0, -1e-13, 0.0], [0.25] * 4]
)
_rows = st.one_of(_unit_rows, st.lists(_entries, max_size=4))


def _returns_or_rejects(call):
    """call() under warnings-as-errors; None when it raises a documented error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return call()
        except (ValueError, EigenConvergenceError):
            return None


def _is_probability_stack(rows) -> bool:
    rows = np.asarray(rows, dtype=float)
    return bool(
        np.isfinite(rows).all()
        and (rows >= 0.0).all()
        and (np.abs(rows.sum(axis=-1) - 1.0) <= 1e-9).all()
    )


@st.composite
def _matrices(draw):
    n = draw(st.integers(1, 4))
    parts = draw(st.lists(_entries, min_size=2 * n * n, max_size=2 * n * n))
    m = np.empty((n, n), dtype=complex)
    m.real.flat, m.imag.flat = parts[::2], (parts[1::2] if draw(st.booleans()) else 0.0)
    with np.errstate(all="ignore"):  # inf - inf and inf * 0 give nan here
        if draw(st.booleans()):
            m = 0.5 * m + 0.5 * m.conj().T
        if draw(st.booleans()):
            diagonal = draw(_unit_rows.filter(lambda r: len(r) <= n))
            np.fill_diagonal(m, diagonal + [0.0] * (n - len(diagonal)))
    dims = draw(st.sampled_from([(n,), (n + 1,)] + [(k, n // k) for k in (2, 3) if n % k == 0]))
    return m, dims


@settings(max_examples=400)
@given(_matrices())
def test_fuzz_validate_density(case):
    mat, dims = case
    rho = _returns_or_rejects(lambda: validate_density(mat, dims))
    if rho is not None:
        assert np.isfinite(rho.mat).all()
        assert abs(np.trace(rho.mat) - 1.0) <= 1e-12
        assert (rho.eig.eigenvalues >= 0.0).all()


@settings(max_examples=300)
@given(st.lists(_rows, max_size=4))
def test_fuzz_marginal_set_from_rows(rows):
    marginals = _returns_or_rejects(lambda: MarginalSet.from_rows(rows))
    if marginals is not None:
        assert _is_probability_stack(marginals.rows) and not marginals.rows.flags.writeable


@settings(max_examples=300)
@given(st.lists(_rows, max_size=4))
def test_fuzz_marginal_set_built_directly(rows):
    marginals = _returns_or_rejects(lambda: MarginalSet(rows=rows))
    if marginals is not None:
        assert _is_probability_stack(marginals.rows) and not marginals.rows.flags.writeable
        assert marginals.rows.flags.c_contiguous


@settings(max_examples=300)
@given(st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(_entries, min_size=n, max_size=n), min_size=1, max_size=3)
))
def test_fuzz_joint_distribution_from_table(table):
    joint = _returns_or_rejects(lambda: JointDistribution.from_table(table))
    if joint is not None:
        assert _is_probability_stack(joint.table.reshape(-1)) and not joint.table.flags.writeable


@settings(max_examples=300)
@given(_rows)
def test_fuzz_shannon_entropy(row):
    entropy = _returns_or_rejects(lambda: shannon_entropy(row))
    if entropy is not None:
        assert _is_probability_stack(np.maximum(row, 0.0))
        assert 0.0 <= entropy <= math.log2(len(row)) + 1e-12


# Records holding arrays compare and hash by identity: compared field by field,
# their arrays would make == raise on the truth value of an array, and hash()
# raise on an unhashable ndarray.
_ARRAY_RECORDS = {
    "MarginalSet": lambda: MarginalSet.from_rows([[0.5, 0.5], [1.0]]),
    "JointDistribution": lambda: JointDistribution(table=[[0.25, 0.25], [0.25, 0.25]]),
    "DensityMatrix": lambda: validate_density(np.diag([0.1, 0.2, 0.3, 0.4]), (2, 2)),
    "EigenDecomposition": lambda: hermitian_eig(np.diag([0.25, 0.75])),
    "CauseSide": lambda: _reduced(validate_density(np.diag([0.1, 0.2, 0.3, 0.4]), (2, 2))).sides[0],
    "_Pass": lambda: _reduced(validate_density(np.diag([0.1, 0.2, 0.3, 0.4]), (2, 2))),
    "PureState": lambda: pure_state([0.6, 0.8]),
}


@pytest.mark.parametrize("name", sorted(_ARRAY_RECORDS))
def test_records_holding_arrays_compare_and_hash_by_identity(name):
    first, second = _ARRAY_RECORDS[name](), _ARRAY_RECORDS[name]()
    assert type(first).__name__ == name
    assert first == first and first != second
    assert hash(first) == hash(first) and len({first, second}) == 2
