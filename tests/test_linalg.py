import math
import warnings

import numpy as np
import pytest

from qeci.linalg import (
    DimensionMismatch,
    EigenConvergenceError,
    NotHermitian,
    _lapack_eigh,
    _positive_definite,
    _umath_linalg,
    dagger,
    hermitian_eig,
    kron,
    partial_trace,
    swap_subsystems,
)

from _helpers import failing_gufunc, random_hermitian, reference_kron

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
    norm, eigh = np.linalg.norm, _umath_linalg.eigh_lo

    def counting_norm(*args, **kwargs):
        norms.append(args)
        return norm(*args, **kwargs)

    def recording_eigh(m, **kwargs):
        decomposed.append(m)
        return eigh(m, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    monkeypatch.setattr(_umath_linalg, "eigh_lo", recording_eigh)
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


_NOT_CONVERGED = "eigendecomposition did not converge"


def test_hermitian_eig_maps_lapack_failure(monkeypatch):
    monkeypatch.setattr(_umath_linalg, "eigh_lo", failing_gufunc(_umath_linalg.eigh_lo))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # the invalid flag stays inside
        with pytest.raises(EigenConvergenceError, match=f"^{_NOT_CONVERGED}: eigh returned nan$"):
            hermitian_eig(np.eye(2, dtype=complex))


# the shapes the library decomposes: 2-D matrices (a lone reduced density
# among them), the stacked reduced densities of a d x d joint, a lone side's
# (n, k, k) conditionals (of one branch too), both sides' stacked
# conditionals, and empty ones
_KERNEL_SHAPES = [
    (2, 2), (2, 2, 2), (2, 4, 4), (1, 8, 8), (8, 2, 2), (2, 4, 4, 4), (16, 16), (0, 0), (2, 0, 0)
]


@pytest.mark.parametrize("shape", _KERNEL_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_lapack_eigh_is_numpys_kernel(shape):
    # _lapack_eigh calls the gufuncs behind np.linalg.eigh and eigvalsh, so a
    # numpy release that changes its wrappers fails here, not in a verdict
    rng = np.random.default_rng(29)
    g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    a = 0.5 * (g + g.conj().swapaxes(-1, -2))
    values, vectors = _lapack_eigh(a)
    ref_values, ref_vectors = np.linalg.eigh(a)
    alone = _lapack_eigh(a, vectors=False)
    ref_alone = np.linalg.eigvalsh(a)
    for got, ref in ((values, ref_values), (vectors, ref_vectors), (alone, ref_alone)):
        assert type(got) is np.ndarray
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("vectors, name", [(True, "eigh"), (False, "eigvalsh")])
def test_lapack_eigh_maps_a_nan_output_without_a_warning(vectors, name):
    # the kernel returns nan eigenvalues here without the invalid flag, so
    # numpy's wrappers raise no LinAlgError either
    a = np.array([[1, 0], [np.inf, 1]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(EigenConvergenceError, match=f"^{_NOT_CONVERGED}: {name} returned nan$"):
            _lapack_eigh(a, vectors=vectors)


def _hermitian_with_spectrum(rng, values) -> np.ndarray:
    n = len(values)
    u = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    m = (u * values) @ u.conj().T
    return 0.5 * m + 0.5 * m.conj().T


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 8, 16])
def test_cholesky_kernel_is_numpys_and_fails_where_numpy_raises(n):
    # _positive_definite calls the gufunc behind np.linalg.cholesky: it
    # succeeds exactly when the wrapper raises no LinAlgError, with the
    # wrapper's bits, and at trace 0 (no shift) the certificate reads it so
    rng = np.random.default_rng(30)
    least_values = [1e-3, 1e-17, 0.0, -1e-17, -1e-3]
    matrices = [random_hermitian(rng, n), -np.eye(n, dtype=complex)]
    for least in least_values if n else []:
        values = np.append(rng.dirichlet(np.ones(n - 1)) if n > 1 else [], least)
        matrices.append(_hermitian_with_spectrum(rng, values))
    for rank in range(n + 1):
        g = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
        matrices.append(g @ g.conj().T)
    raised = []
    for a in matrices:
        with np.errstate(all="ignore"):
            got = _umath_linalg.cholesky_lo(a, signature="D->D")
        try:
            ref = np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            raised.append(True)
            assert np.isnan(got).all()
            assert _positive_definite(a, 0.0) is False
            continue
        raised.append(False)
        assert type(got) is np.ndarray
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
        assert _positive_definite(a, 0.0) is (n > 0)  # an empty matrix is never certified
    assert set(raised) == ({True, False} if n else {False})


def test_a_certified_matrix_has_a_positive_smallest_eigvalsh_eigenvalue():
    # the certificate's shift, 4 n^2 eps |tr h|, exceeds the backward errors of
    # Cholesky and of eigvalsh together: whenever it certifies h, eigvalsh reads
    # a positive smallest eigenvalue of h, so _wrap's two routes agree
    rng = np.random.default_rng(40)
    eps = np.finfo(float).eps
    certified = []  # the least eigenvalue each certified matrix was built with
    for n in (1, 2, 3, 4, 8, 16, 32):
        delta = 4 * n * n * eps  # at trace one
        least_values = [-1e-9, -1e-13, -1e-16, 0.0, 1e-16]
        least_values += [delta * f for f in (0.25, 0.5, 1.0, 2.0, 10.0)] + [1e-10]
        for least in least_values:
            for k in range(12 if n < 32 else 4):
                # the rest of the spectrum spread out, or half of it at least too
                ties = (n // 2) * (k % 2)
                rest = rng.dirichlet(np.ones(n - 1 - ties)) if n - 1 - ties else []
                values = np.concatenate([[least] * (ties + 1), np.multiply(rest, 1.0 - least)])
                h = _hermitian_with_spectrum(rng, values) * (1.0, 1e-3, 1e3)[k % 3]
                if _positive_definite(h, complex(np.einsum("ii", h))):
                    assert _lapack_eigh(h, vectors=False)[0] > 0.0, (n, least, k)
                    certified.append(least)
                else:  # a clear margin is always certified
                    assert least < 10.0 * delta, (n, least, k)
    # never for a least eigenvalue <= 0, and for 314 of the grid's 836 matrices
    assert min(certified) > 0.0 and len(certified) >= 200


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
