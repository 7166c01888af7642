import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeci import causal
from qeci import density as density_module
from qeci.channels import ChannelSpec
from qeci.density import (
    DensityMatrix,
    NotPSD,
    TraceNotOne,
    ZeroProbabilityCondition,
    _block_spectra,
    _cause_first,
    _conditional_blocks,
    instance_conditional,
    pure_state,
    spin_singlet,
    star_product,
    validate_density,
    von_neumann_entropy,
)
from qeci.linalg import NotHermitian, dagger, hermitian_eig, partial_trace, swap_subsystems

from _helpers import (
    random_density,
    random_unitary,
    reference_conditional_blocks,
    reference_validate_density,
    skewed_density,
    small_branch_joint,
    x_minus,
    x_plus,
    y_minus,
    y_plus,
    z_plus,
)


def binary_entropy(p):
    terms = [v * math.log2(v) for v in (p, 1 - p) if v > 0]
    return -sum(terms)


def test_validate_accepts_worked_joint():
    rho = validate_density(np.diag([0.38, 0.02, 0.03, 0.57]).astype(complex), (2, 2))
    assert rho.dims == (2, 2)
    assert np.allclose(rho.mat, np.diag([0.38, 0.02, 0.03, 0.57]))


def test_validate_rejects_bad_trace():
    with pytest.raises(TraceNotOne):
        validate_density(np.diag([0.5, 0.6]).astype(complex), (2,))


def test_validate_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        validate_density(np.array([[0, 1], [0, 0]], dtype=complex), (2,))


def test_validate_rejects_negative_eigenvalue():
    with pytest.raises(NotPSD):
        validate_density(np.diag([1.1, -0.1]).astype(complex), (2,))


def test_validate_clamps_rounding_noise():
    eps = 1e-11
    rho = validate_density(np.diag([1.0 + eps, -eps]).astype(complex), (2,))
    vals = hermitian_eig(rho.mat).eigenvalues
    assert vals[-1] >= 0.0
    assert abs(np.trace(rho.mat) - 1.0) <= 1e-12


@pytest.mark.parametrize("diag", [[0.4, 0.6 + 4e-10], [1.0 + 1e-11, -1e-11]])
def test_validated_density_keeps_its_own_spectrum(diag):
    # the first matrix is renormalized within tol, the second clamped
    rho = validate_density(np.diag(diag).astype(complex), (2,))
    values, vectors = rho.eig.eigenvalues, rho.eig.eigenvectors
    assert np.abs(values - np.linalg.eigvalsh(rho.mat)[::-1]).max() <= 1e-15
    assert np.abs((vectors * values) @ vectors.conj().T - rho.mat).max() <= 1e-15


def test_entropy_of_two_level_marginal():
    rho = validate_density(np.diag([0.4, 0.6]).astype(complex), (2,))
    assert von_neumann_entropy(rho) == pytest.approx(0.9710, abs=5e-5)


def test_entropy_of_pure_state_is_zero():
    ket = pure_state([0.6, 0.8j])
    rho = validate_density(np.outer(ket.ket, ket.ket.conj()), (2,))
    assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-10)


def test_entropy_of_maximally_mixed_two_qubits():
    rho = validate_density(0.25 * np.eye(4, dtype=complex), (2, 2))
    assert von_neumann_entropy(rho) == pytest.approx(2.0, abs=1e-12)


def test_entropy_is_unitarily_invariant():
    rng = np.random.default_rng(21)
    for _ in range(10):
        rho = random_density(rng, (4,))
        u = random_unitary(rng, 4)
        rotated = validate_density(u @ rho.mat @ dagger(u), (4,))
        assert abs(von_neumann_entropy(rotated) - von_neumann_entropy(rho)) <= 1e-8


def test_entropy_totals_its_terms_left_to_right():
    # not by sum(), which compensates its rounding on Python >= 3.12: on these
    # spectra of 16 x 16 Ginibre densities its bits would follow the interpreter
    rng = np.random.default_rng(7)
    for _ in range(50):
        g = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        m = g @ g.conj().T
        rho = validate_density(m / np.trace(m).real, (4, 4))
        total = 0.0
        for v in rho.eig.eigenvalues.tolist():
            if v > density_module.ENTROPY_EIGENVALUE_FLOOR:
                total += v * math.log2(v)
        assert von_neumann_entropy(rho) == -total


def test_star_product_with_identity_is_identity_map():
    rng = np.random.default_rng(22)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = 0.5 * (m + m.conj().T)
    assert np.allclose(star_product(m, np.eye(2, dtype=complex)), m)


def test_star_product_singlet_projection():
    # hand expansion: projecting the (symmetric) singlet on z+ in the first
    # slot and tracing that slot leaves diag(0, 1/2) before normalization
    singlet = spin_singlet()
    proj = np.outer(z_plus().ket, z_plus().ket.conj())
    numerator = star_product(singlet.mat, proj)
    assert np.allclose(partial_trace(numerator, 2, 2, "A"), np.diag([0.0, 0.5]))


def test_star_product_masks_diagonal_blocks():
    joint = np.diag([0.38, 0.02, 0.03, 0.57]).astype(complex)
    proj = np.diag([1.0, 0.0]).astype(complex)
    assert np.allclose(star_product(joint, proj), np.diag([0.38, 0.02, 0.0, 0.0]))


def test_star_product_output_is_psd():
    rng = np.random.default_rng(23)
    for _ in range(10):
        rho = random_density(rng, (2, 2))
        n = random_density(rng, (2,)).mat  # arbitrary PSD factor, not just projectors
        out = star_product(rho.mat, n)
        assert hermitian_eig(out).eigenvalues[-1] >= -1e-12


def test_star_product_rejects_a_non_hermitian_idempotent_factor():
    # n @ n == n, so only the Hermitian check can reject it
    with pytest.raises(NotHermitian):
        star_product(np.eye(4, dtype=complex) / 4, np.array([[1.0, 1.0], [0.0, 0.0]]))


def test_instance_conditional_epr_z():
    cond = instance_conditional(spin_singlet(), z_plus(), "second")
    assert np.allclose(cond.mat, [[0, 0], [0, 1]], atol=1e-10)


def test_instance_conditional_epr_x():
    cond = instance_conditional(spin_singlet(), x_plus(), "second")
    expected = np.outer(x_minus().ket, x_minus().ket.conj())
    assert np.allclose(cond.mat, expected, atol=1e-10)


def test_instance_conditional_epr_y():
    cond = instance_conditional(spin_singlet(), y_plus(), "second")
    expected = np.outer(y_minus().ket, y_minus().ket.conj())
    assert np.allclose(cond.mat, expected, atol=1e-10)


def test_instance_conditional_worked_forward():
    rho = validate_density(np.diag([0.38, 0.02, 0.03, 0.57]).astype(complex), (2, 2))
    cond = instance_conditional(rho, z_plus(), "first")
    assert np.allclose(cond.mat, np.diag([0.95, 0.05]), atol=1e-12)


def test_instance_conditional_worked_backward():
    rho = validate_density(np.diag([0.38, 0.02, 0.03, 0.57]).astype(complex), (2, 2))
    cond = instance_conditional(rho, z_plus(), "second")
    assert np.allclose(cond.mat, np.diag([0.38 / 0.41, 0.03 / 0.41]), atol=1e-12)


def test_instance_conditional_outputs_are_valid_densities():
    rng = np.random.default_rng(24)
    for _ in range(25):
        rho = random_density(rng, (2, 3))
        side = "first" if rng.random() < 0.5 else "second"
        dim = 2 if side == "first" else 3
        ket = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        ket = pure_state(ket / np.linalg.norm(ket))
        cond = instance_conditional(rho, ket, side)
        validate_density(cond.mat, cond.dims)  # raises on violation
        assert cond.dims == ((3,) if side == "first" else (2,))


def test_instance_conditional_matches_classical_conditioning_on_diagonals():
    rng = np.random.default_rng(25)
    table = rng.dirichlet(np.ones(6)).reshape(2, 3)
    rho = validate_density(np.diag(table.reshape(-1)).astype(complex), (2, 3))
    for i in range(2):
        ket = pure_state(np.eye(2)[i])
        cond = instance_conditional(rho, ket, "first")
        assert np.allclose(cond.mat, np.diag(table[i] / table[i].sum()), atol=1e-12)


def test_instance_conditional_rejects_an_unknown_side():
    msg = "conditioned_side must be 'first' or 'second', got 'third'"
    with pytest.raises(ValueError, match=re.escape(msg)):
        instance_conditional(spin_singlet(), z_plus(), "third")


def test_instance_conditional_zero_probability_branch():
    rho = validate_density(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex), (2, 2))
    with pytest.raises(ZeroProbabilityCondition):
        instance_conditional(rho, pure_state([0.0, 1.0]), "first")


@pytest.mark.parametrize("side", ["first", "second"])
def test_instance_conditional_equals_star_product_route(side):
    # the star product with |v><v| is the reference definition of conditioning
    rng = np.random.default_rng(26 if side == "first" else 27)
    for dim_a, dim_b in [(2, 3), (3, 2), (4, 4), (2, 8), (8, 2)]:
        rho = random_density(rng, (dim_a, dim_b))
        if side == "first":
            mat, cond_dim, keep_dim = rho.mat, dim_a, dim_b
        else:
            mat, cond_dim, keep_dim = swap_subsystems(rho.mat, dim_a, dim_b), dim_b, dim_a
        ket = rng.normal(size=cond_dim) + 1j * rng.normal(size=cond_dim)
        v = pure_state(ket / np.linalg.norm(ket))
        projector = np.outer(v.ket, v.ket.conj())
        numerator = partial_trace(star_product(mat, projector), cond_dim, keep_dim, "A")
        expected = numerator / np.trace(numerator).real
        assert np.abs(instance_conditional(rho, v, side).mat - expected).max() <= 1e-12


# instance_conditional's conditioned side, as the cause label _cause_first takes
CAUSE = {"first": "A", "second": "B"}


@pytest.mark.parametrize("side", ["first", "second"])
def test_conditional_blocks_reject_a_near_zero_branch(side):
    # branch |1> on the conditioned side carries probability 1e-13 <= PROB_TOL
    diag = [1.0 - 1e-13, 0.0, 1e-13, 0.0] if side == "first" else [1.0 - 1e-13, 1e-13, 0.0, 0.0]
    rho = validate_density(np.diag(diag).astype(complex), (2, 2))
    with pytest.raises(ZeroProbabilityCondition):
        _conditional_blocks(_cause_first(rho, CAUSE[side]), np.eye(2, dtype=complex))


@pytest.mark.parametrize("side", ["first", "second"])
def test_conditional_blocks_match_the_tensordot_route(side):
    rng = np.random.default_rng(28 if side == "first" else 29)
    for dims in [(2, 3), (3, 2), (4, 4), (2, 8), (8, 2)]:
        rho = random_density(rng, dims)
        cond_dim = dims[0] if side == "first" else dims[1]
        kets = random_unitary(rng, cond_dim)
        blocks, weights = _conditional_blocks(_cause_first(rho, CAUSE[side]), kets)
        ref_blocks, ref_weights = reference_conditional_blocks(rho, kets, side)
        assert blocks.shape == ref_blocks.shape
        assert np.abs(blocks - ref_blocks).max() <= 1e-15
        assert np.abs(weights - ref_weights).max() <= 1e-15


def test_block_spectra_check_the_whole_stack():
    good = np.diag([0.5, 0.5]).astype(complex)
    # rounding noise is clipped and each spectrum renormalized
    noisy = np.diag([2.0, -1e-10]).astype(complex)
    rows = _block_spectra(np.stack([good, noisy]), np.array([1.0, 2.0]))
    assert np.array_equal(rows, [[0.5, 0.5], [1.0, 0.0]])


def _validated_joints(rng):
    for dims in [(2, 2), (2, 3), (3, 2), (4, 4), (2, 8), (8, 2)]:
        for _ in range(50):
            yield random_density(rng, dims)
    for k in range(200):
        dims = [(2, 2), (2, 3), (3, 2), (4, 4)][k % 4]
        yield validate_density(skewed_density(rng, dims), dims, tol=1e-3)
    for k in range(100):
        eps = [1e-8, 1e-10, 1e-11][k % 3]
        yield validate_density(small_branch_joint(rng, eps, k % 2 == 1), (2, 2))


def test_blocks_of_a_validated_joint_need_no_check():
    # _block_spectra trusts its blocks: a validated joint is exactly Hermitian,
    # so each block is Hermitian and PSD to rounding at the joint's scale
    for rho in _validated_joints(np.random.default_rng(31)):
        assert np.array_equal(rho.mat, rho.mat.conj().T)
        for label in ("A", "B"):
            side = causal._cause_sides(rho, (label,))[0]
            skew = side.blocks - side.blocks.conj().swapaxes(1, 2)
            assert np.linalg.norm(skew, axis=(1, 2)).max() <= 1e-15
            conditionals = side.blocks / side.weights[:, None, None]
            values = np.linalg.eigvalsh(0.5 * (conditionals + conditionals.conj().swapaxes(1, 2)))
            assert (values[:, 0] * side.weights).min() >= -1e-15


def test_block_spectra_skip_only_a_clamp_that_changes_no_bit():
    # _block_spectra clamps at zero only when some eigenvalue is not
    # positive; the rows must equal those of an unconditional clamp, bit for bit
    for rho in _validated_joints(np.random.default_rng(35)):
        for side in causal._cause_sides(rho):
            conditionals = side.blocks / side.weights[:, None, None]
            hermitian = 0.5 * (conditionals + conditionals.conj().swapaxes(1, 2))
            values = np.maximum(np.linalg.eigvalsh(hermitian)[:, ::-1], 0.0)
            clamped = values / np.add.reduce(values, axis=1, keepdims=True)
            assert side.rows.rows.tobytes() == clamped.tobytes()


def _low_rank_density(rng, dims, rank) -> np.ndarray:
    d = math.prod(dims)
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _joints_with_reduced_sides(rng):
    yield from _validated_joints(rng)
    for dims in [(2, 2), (2, 3), (3, 2), (4, 4), (2, 8), (8, 2), (3, 5), (1, 4), (4, 1)]:
        for rank in (math.prod(dims), 2):
            for _ in range(20):
                yield validate_density(_low_rank_density(rng, dims, rank), dims)
    amplitudes = dict(gamma1=0.6, lambda1=0.8, gamma2=2**-0.5, lambda2=2**-0.5)
    for kind in ChannelSpec.KINDS:
        spec = ChannelSpec(kind, q=0.4, **(amplitudes if kind == "depolarizing" else {}))
        for p in np.linspace(0.0, 1.0, 41):
            yield spec.joint(p)


def test_reduced_densities_of_a_validated_joint_need_no_check():
    # causal._reduced wraps each partial trace unchecked: the partial trace of
    # an exactly Hermitian joint of unit trace is exactly Hermitian, and its
    # trace is one to rounding
    sides = 0
    for rho in _joints_with_reduced_sides(np.random.default_rng(33)):
        for traced in ("A", "B"):
            reduced = partial_trace(rho.mat, *rho.dims, traced)
            assert np.array_equal(reduced, reduced.conj().T)
            assert abs(np.trace(reduced) - 1.0) <= 1e-15
            sides += 1
    assert sides == 2 * (600 + 9 * 2 * 20 + 4 * 41)


def _clamped_joints(rng):
    """Joints whose smallest eigenvalue lies in [-1e-10, 0), which
    validate_density decomposes at once to clamp and rebuild."""
    for dims in [(2,), (2, 2), (2, 3), (4, 4)]:
        d = math.prod(dims)
        for _ in range(10):
            least = -1e-10 * rng.uniform(0.1, 1.0)
            values = np.append(rng.dirichlet(np.ones(d - 1)) * (1.0 - least), least)
            u = random_unitary(rng, d)
            yield validate_density((u * values) @ u.conj().T, dims)


def test_matrices_decomposed_at_an_infinite_tolerance_are_finite_and_hermitian(monkeypatch):
    # hermitian_eig at herm_tol=inf decomposes the matrix as given, unchecked;
    # every one the library hands it must be finite and exactly Hermitian
    seen = []

    def recording(a, herm_tol=1e-9):
        if herm_tol == math.inf:  # one entry per matrix of a stack
            seen.extend(np.array(a).reshape(-1, *np.shape(a)[-2:]))
        return hermitian_eig(a, herm_tol)

    monkeypatch.setattr(density_module, "hermitian_eig", recording)
    rng = np.random.default_rng(34)
    clamped = list(_clamped_joints(rng))
    assert len(seen) == len(clamped)  # each was decomposed for its clamp

    def joints():
        amplitudes = dict(gamma1=0.6, lambda1=0.8, gamma2=2**-0.5, lambda2=2**-0.5)
        for kind in ChannelSpec.KINDS:
            spec = ChannelSpec(kind, q=0.4, **(amplitudes if kind == "depolarizing" else {}))
            for p in np.linspace(0.0, 1.0, 21):
                yield spec.joint(p)
        for dims in [(2, 2), (4, 4), (2, 8), (8, 2), (3, 5)]:
            for _ in range(20):
                yield validate_density(_low_rank_density(rng, dims, 2), dims)
        for k in range(40):
            dims = [(2, 2), (2, 3), (3, 2), (4, 4)][k % 4]
            yield validate_density(skewed_density(rng, dims), dims, tol=1e-3)
        for k in range(30):
            eps = [1e-8, 1e-10, 1e-11][k % 3]
            yield validate_density(small_branch_joint(rng, eps, k % 2 == 1), (2, 2))
        yield from clamped

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", causal.DegeneracyWarning)
        for rho in joints():
            rho.eig
            if len(rho.dims) == 2:
                causal.qeci_infer(rho)
    assert len(seen) == len(clamped) + 3 * (84 + 100 + 40 + 30) + 2 * 30
    for a in seen:
        assert np.isfinite(a).all()
        assert np.array_equal(a, a.conj().T)
        built, checked = hermitian_eig(a, herm_tol=math.inf), hermitian_eig(a, herm_tol=1e-9)
        assert built.eigenvalues.tobytes() == checked.eigenvalues.tobytes()
        assert built.eigenvectors.tobytes() == checked.eigenvectors.tobytes()


def test_validate_keeps_an_exactly_hermitian_input_as_is():
    rng = np.random.default_rng(32)
    for dims in [(2, 3), (4, 4), (8, 2)] * 10:
        d = math.prod(dims)
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        mat = g @ g.conj().T
        mat = (0.5 * (mat + mat.conj().T)) / np.trace(mat).real
        assert np.array_equal(mat, mat.conj().T)
        rho = validate_density(mat, dims)
        assert rho.mat is not mat
        assert np.array_equal(rho.mat, mat)


def test_spin_singlet_marginals_and_purity():
    singlet = spin_singlet()
    assert np.allclose(partial_trace(singlet.mat, 2, 2, "B"), 0.5 * np.eye(2))
    assert np.allclose(partial_trace(singlet.mat, 2, 2, "A"), 0.5 * np.eye(2))
    assert von_neumann_entropy(singlet) == pytest.approx(0.0, abs=1e-10)


def test_pure_state_rejects_unnormalized():
    with pytest.raises(ValueError):
        pure_state([1.0, 1.0])


def test_binary_entropy_helper_agrees_with_entropy():
    rho = validate_density(np.diag([0.25, 0.75]).astype(complex), (2,))
    assert von_neumann_entropy(rho) == pytest.approx(binary_entropy(0.25), abs=1e-12)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0])
def test_validate_rejects_a_tolerance_that_is_not_finite_and_non_negative(tol):
    # a nan or infinite tol would pass every check, a negative one fail them all
    bad = np.array([[-1.0, 2.0], [0.0, 4.5]], dtype=complex)  # not Hermitian or PSD, trace 3.5
    with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
        validate_density(bad, (2,), tol)
    with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
        validate_density(np.diag([0.5, 0.5]), (2,), tol)


def _joint_of_rank(rng, d: int, rank: int) -> np.ndarray:
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


@st.composite
def _checked_inputs(draw):
    """(matrix, dims, tol): seeded joints of full and low rank, a smallest
    eigenvalue at -tol * (1 +- 1e-3), a Hermitian residual or a trace off by a
    multiple of tol either side of it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dims = draw(st.sampled_from([(2,), (2, 2), (2, 3), (4, 4), (2, 8)]))
    tol = draw(st.sampled_from([1e-9, 1e-6, 1e-3]))
    kind = draw(st.sampled_from(["full", "low", "negative", "non-hermitian", "trace"]))
    d = math.prod(dims)
    m = _joint_of_rank(rng, d, int(rng.integers(1, d)) if kind == "low" else d)
    if kind == "negative":
        least = -tol * draw(st.sampled_from([1.0 - 1e-3, 1.0 + 1e-3]))
        values = np.append(rng.dirichlet(np.ones(d - 1)) * (1.0 - least), least)
        u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
        m = (u * values) @ u.conj().T
    elif kind == "non-hermitian":
        m[0, 1] += 1j * tol * draw(st.sampled_from([0.3, 3.0]))
    elif kind == "trace":
        m = m * (1.0 + tol * draw(st.sampled_from([0.5, 2.0])))
    return m, dims, tol


def _message_prefix(exc: Exception) -> str:
    return re.match(r"[^-\d]*", str(exc)).group()


@settings(derandomize=True, max_examples=300)
@given(_checked_inputs())
def test_spectrum_check_agrees_with_the_decomposition_check(case):
    mat, dims, tol = case
    outcomes = []
    for check in (validate_density, reference_validate_density):
        try:
            outcomes.append(check(mat, dims, tol))
        except ValueError as exc:
            outcomes.append(exc)
    ours, ref = outcomes
    assert type(ours) is type(ref)
    if isinstance(ref, ValueError):
        assert _message_prefix(ours) == _message_prefix(ref)
        return
    assert isinstance(ours, DensityMatrix) and ours.dims == ref.dims
    h = 0.5 * mat + 0.5 * mat.conj().T
    if np.linalg.eigvalsh(h)[0] >= 0.0 > hermitian_eig(h).eigenvalues[-1]:
        # only the decomposition sees a negative eigenvalue, and rebuilds
        assert np.abs(ours.mat - ref.mat).max() <= 1e-15
    else:
        assert np.array_equal(ours.mat, ref.mat)
