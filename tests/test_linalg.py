import math
import warnings

import numpy as np
import pytest

from qeci.linalg import (
    DimensionMismatch,
    EigenConvergenceError,
    NotHermitian,
    dagger,
    hermitian_eig,
    kron,
    partial_trace,
    swap_subsystems,
)

from _helpers import random_hermitian, reference_kron

KET0 = np.array([[1], [0]], dtype=complex)
KET1 = np.array([[0], [1]], dtype=complex)


def test_dagger_real_diagonal_fixed_point():
    d = np.diag([1.0, 2.0]).astype(complex)
    assert np.array_equal(dagger(d), d)


def test_dagger_definition():
    a = np.array([[0, 1j], [0, 0]], dtype=complex)
    assert np.array_equal(dagger(a), np.array([[0, 0], [-1j, 0]]))


def test_dagger_involution():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    assert np.array_equal(dagger(dagger(a)), a)


def test_kron_identities():
    assert np.allclose(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_basis_bookkeeping():
    assert np.allclose(kron(KET0, KET1).reshape(-1), [0, 1, 0, 0])


def test_kron_projector_with_identity():
    proj = KET0 @ dagger(KET0)
    assert np.allclose(kron(proj, np.eye(2)), np.diag([1.0, 1.0, 0.0, 0.0]))


def test_kron_equals_numpy_kron():
    rng = np.random.default_rng(71)

    def real(*shape):
        return rng.normal(size=shape)

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    pairs = [
        (real(3), real(2)),
        (cplx(2), real(4)),
        (cplx(4), cplx(2)),
        (real(2, 2), real(3, 3)),
        (cplx(3, 3), cplx(2, 2)),
        (cplx(2, 3), real(4, 1)),
        (real(1, 2), cplx(3, 2)),
        (KET0, cplx(2, 5)),
        (real(3), cplx(2, 2)),
        (cplx(2, 4), real(3)),
        (np.eye(2), np.eye(3, dtype=int)),
    ]
    for a, b in pairs:
        got = kron(a, b)
        assert got.dtype == complex
        assert np.array_equal(got, reference_kron(a, b))
    with pytest.raises(DimensionMismatch):
        kron(np.ones((2, 2, 2)), np.eye(2))


def test_hermitian_eig_two_level_diagonal():
    eig = hermitian_eig(np.diag([0.4, 0.6]).astype(complex))
    assert np.allclose(eig.eigenvalues, [0.6, 0.4])
    assert np.allclose(np.abs(eig.eigenvectors), [[0, 1], [1, 0]])


def test_hermitian_eig_maximally_mixed():
    eig = hermitian_eig(0.5 * np.eye(2, dtype=complex))
    assert np.allclose(eig.eigenvalues, [0.5, 0.5])


def test_hermitian_eig_singlet_is_rank_one():
    mat = 0.5 * np.array(
        [[0, 0, 0, 0], [0, 1, -1, 0], [0, -1, 1, 0], [0, 0, 0, 0]], dtype=complex
    )
    # purity oracle: mat is idempotent, so the spectrum must be {1, 0, 0, 0}
    assert np.allclose(mat @ mat, mat, atol=1e-14)
    eig = hermitian_eig(mat)
    assert np.allclose(eig.eigenvalues, [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


def test_hermitian_eig_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        hermitian_eig(np.zeros((2, 3), dtype=complex))


def test_infinite_tolerance_decomposes_the_matrix_as_given(monkeypatch):
    # herm_tol=inf is for matrices the library built: finite and exactly Hermitian
    a = random_hermitian(np.random.default_rng(17), 4)
    assert np.array_equal(a, a.conj().T)
    checked = hermitian_eig(a, herm_tol=1e-9)
    norms, decomposed = [], []
    norm, eigh = np.linalg.norm, np.linalg.eigh

    def counting_norm(*args, **kwargs):
        norms.append(args)
        return norm(*args, **kwargs)

    def recording_eigh(m):
        decomposed.append(m)
        return eigh(m)

    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    eig = hermitian_eig(a, herm_tol=math.inf)
    assert norms == []  # no residual is computed
    assert len(decomposed) == 1 and decomposed[0] is a  # nothing is averaged
    assert np.array_equal(eig.eigenvalues, checked.eigenvalues)
    assert np.array_equal(eig.eigenvectors, checked.eigenvectors)
    monkeypatch.undo()
    for bad in ([[np.nan, 0], [0, 1]], [[np.inf, 0], [0, 1]], [[1, np.nan], [np.nan, 1]]):
        with pytest.raises(EigenConvergenceError):
            hermitian_eig(np.array(bad, dtype=complex), herm_tol=math.inf)
    with pytest.raises(DimensionMismatch):
        hermitian_eig(np.zeros((2, 3), dtype=complex), herm_tol=math.inf)


@pytest.mark.parametrize("shape", [(1, 2), (2, 2), (3, 4), (2, 8), (2, 3, 5)])
def test_infinite_tolerance_decomposes_a_stack_as_each_matrix_alone(shape):
    # a stack (..., n, n) gets one eigh call; each matrix must come out as
    # the 2-D call gives it, order and gauge included, degenerate ones too
    *lead, n = shape
    rng = np.random.default_rng(18 + n)
    mats = [random_hermitian(rng, n) for _ in range(math.prod(lead))]
    mats[0] = np.diag(np.repeat([0.25, 0.5], n)[:n]).astype(complex)  # repeated eigenvalues
    stack = np.array(mats).reshape(*lead, n, n)
    eig = hermitian_eig(stack, herm_tol=math.inf)
    assert eig.eigenvalues.shape == (*lead, n) and eig.eigenvectors.shape == (*lead, n, n)
    values = eig.eigenvalues.reshape(-1, n)
    vectors = eig.eigenvectors.reshape(-1, n, n)
    for k, a in enumerate(mats):
        alone = hermitian_eig(a, herm_tol=math.inf)
        assert values[k].tobytes() == alone.eigenvalues.tobytes()
        assert vectors[k].tobytes() == alone.eigenvectors.tobytes()
    # a finite tolerance checks one matrix at a time
    with pytest.raises(DimensionMismatch):
        hermitian_eig(stack, herm_tol=1e-9)


@pytest.mark.parametrize("herm_tol", [math.nan, -1.0, -math.inf])
def test_hermitian_eig_rejects_a_nan_or_negative_tolerance(herm_tol):
    # at nan no residual was computed; at -1.0 even the identity failed
    for a in ([[0, 1], [0, 0]], np.eye(2)):
        with pytest.raises(ValueError, match="herm_tol must be a number >= 0"):
            hermitian_eig(np.array(a, dtype=complex), herm_tol=herm_tol)
    assert np.array_equal(hermitian_eig(np.eye(2), herm_tol=0.0).eigenvalues, [1.0, 1.0])


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_hermitian_eig_reconstruction_and_orthonormality(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(10):
        a = random_hermitian(rng, n)
        eig = hermitian_eig(a)
        v = eig.eigenvectors
        recon = (v * eig.eigenvalues) @ v.conj().T
        assert np.linalg.norm(a - recon) <= 1e-9 * max(np.linalg.norm(a), 1e-30)
        assert np.linalg.norm(v.conj().T @ v - np.eye(n)) <= 1e-9
        # residual of each eigenpair
        for i in range(n):
            res = a @ v[:, i] - eig.eigenvalues[i] * v[:, i]
            assert np.linalg.norm(res) <= 1e-8 * max(np.linalg.norm(a), 1e-30)
        assert (np.diff(eig.eigenvalues) <= 1e-12).all()


@pytest.mark.parametrize("n", [2, 4, 7])
def test_hermitian_eig_matches_numpy_spectrum(n):
    rng = np.random.default_rng(50 + n)
    for _ in range(10):
        a = random_hermitian(rng, n)
        ours = hermitian_eig(a).eigenvalues
        ref = np.sort(np.linalg.eigvalsh(a))[::-1]
        assert np.allclose(ours, ref, atol=1e-9)


def test_hermitian_eig_gauge_pins_largest_component_positive():
    rng = np.random.default_rng(3)
    a = random_hermitian(rng, 4)
    v = hermitian_eig(a).eigenvectors
    for i in range(4):
        k = np.argmax(np.abs(v[:, i]))
        assert v[k, i].imag == pytest.approx(0.0, abs=1e-12)
        assert v[k, i].real > 0


def test_hermitian_eig_maps_lapack_failure(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(EigenConvergenceError):
        hermitian_eig(np.eye(2, dtype=complex))



@pytest.mark.parametrize(
    "mat",
    [
        # at 1e300 both Frobenius norms overflow to inf, and inf > inf is false
        [[0.5, 1e300], [-1e300, 0.5]],
        # norm(a) alone overflows; the relative residual is 2.8e-7
        [[1e160, 1e153], [-1e153, 0.0]],
    ],
    ids=["anti-hermitian-1e300", "relative-residual-2.8e-7"],
)
def test_hermitian_eig_rejects_huge_non_hermitian(mat):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotHermitian):
            hermitian_eig(np.array(mat, dtype=complex))


@pytest.mark.parametrize("noise", [0.0, 1e-12], ids=["exact", "noise-1e-12"])
def test_hermitian_eig_accepts_huge_hermitian(noise):
    rng = np.random.default_rng(11)
    h = random_hermitian(rng, 4)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    anti = 0.5 * (g - g.conj().T)
    a = h + noise * np.linalg.norm(h) / np.linalg.norm(anti) * anti
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = hermitian_eig(1e200 * a).eigenvalues
    expected = np.sort(np.linalg.eigvalsh(0.5 * (a + a.conj().T)))[::-1]
    assert np.allclose(values / 1e200, expected, rtol=0.0, atol=1e-9)



def test_hermitian_eig_maps_overflowing_moduli_to_convergence_error():
    # finite parts, but |z| = 2.1e308 overflows and eigh returns nan
    z = 1.5e308 + 1.5e308j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EigenConvergenceError):
            hermitian_eig(np.array([[0.5, z], [np.conj(z), 0.5]]))

QSC_JOINT = np.diag([0.38, 0.02, 0.03, 0.57]).astype(complex)


def test_partial_trace_worked_values():
    assert np.allclose(partial_trace(QSC_JOINT, 2, 2, "B"), np.diag([0.4, 0.6]))
    assert np.allclose(partial_trace(QSC_JOINT, 2, 2, "A"), np.diag([0.41, 0.59]))


def test_partial_trace_product_state():
    rng = np.random.default_rng(11)
    a = random_hermitian(rng, 2)
    b = random_hermitian(rng, 3)
    b = b / np.trace(b).real  # unit trace so Tr_B factors out exactly
    assert np.allclose(partial_trace(np.kron(a, b), 2, 3, "B"), a)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(12)
    for _ in range(20):
        m = random_hermitian(rng, 6)
        assert abs(np.trace(partial_trace(m, 2, 3, "B")) - np.trace(m)) <= 1e-12 * max(
            1.0, abs(np.trace(m))
        )
        assert abs(np.trace(partial_trace(m, 2, 3, "A")) - np.trace(m)) <= 1e-12 * max(
            1.0, abs(np.trace(m))
        )


def test_partial_trace_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        partial_trace(QSC_JOINT, 2, 3, "B")


def test_swap_subsystems_worked_values():
    assert np.allclose(
        swap_subsystems(QSC_JOINT, 2, 2), np.diag([0.38, 0.03, 0.02, 0.57])
    )


def test_swap_subsystems_exchanges_product_factors():
    rng = np.random.default_rng(13)
    a = random_hermitian(rng, 2)
    b = random_hermitian(rng, 3)
    assert np.array_equal(swap_subsystems(np.kron(a, b), 2, 3), np.kron(b, a))


def test_swap_subsystems_fixes_symmetric_singlet():
    singlet = 0.5 * np.array(
        [[0, 0, 0, 0], [0, 1, -1, 0], [0, -1, 1, 0], [0, 0, 0, 0]], dtype=complex
    )
    assert np.array_equal(swap_subsystems(singlet, 2, 2), singlet)


def test_swap_subsystems_is_exact_involution():
    rng = np.random.default_rng(14)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    assert np.array_equal(swap_subsystems(swap_subsystems(m, 2, 3), 3, 2), m)


def test_swap_then_trace_matches_other_side():
    rng = np.random.default_rng(15)
    for _ in range(10):
        m = random_hermitian(rng, 6)
        direct = partial_trace(m, 2, 3, "A")
        via_swap = partial_trace(swap_subsystems(m, 2, 3), 3, 2, "B")
        assert np.linalg.norm(direct - via_swap) <= 1e-12
