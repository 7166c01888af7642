import ast
import dataclasses
import inspect
import math
import sys
import warnings

import numpy as np
import pytest

import qeci
from qeci import causal, coupling, density
from qeci.causal import (
    DegeneracyWarning,
    Direction,
    JointDistribution,
    classical_eci,
    conditional_spectra,
    qeci_infer,
)
from qeci.channels import (
    ChannelSpec,
    bitflip_entangled,
    depolarizing_mixture,
    qsc_computational,
    qsc_hadamard,
)
from qeci.classicalmap import diag_embed, rotate_to_classical
from qeci.density import (
    NotPSD,
    ZeroProbabilityCondition,
    instance_conditional,
    pure_state,
    validate_density,
)
from qeci.linalg import (
    PROB_FLOOR,
    EigenConvergenceError,
    EigenDecomposition,
    dagger,
    hermitian_eig,
    kron,
    partial_trace,
    swap_subsystems,
)

from _helpers import (
    branch_floor_joint,
    random_density,
    random_nondegenerate_density,
    random_nondegenerate_table,
    random_unitary,
    skewed_density,
    small_branch_joint,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)


def _rows_as_set(marginals):
    return {tuple(np.round(r, 10)) for r in marginals.rows}


def test_conditional_spectra_forward_worked():
    ms = conditional_spectra(qsc_computational(0.4, 0.05), "forward")
    assert _rows_as_set(ms) == {(0.95, 0.05)}
    assert ms.rows.shape == (2, 2)


def test_conditional_spectra_backward_worked():
    ms = conditional_spectra(qsc_computational(0.4, 0.05), "backward")
    expected = {
        tuple(np.round([0.38 / 0.41, 0.03 / 0.41], 10)),
        tuple(np.round([0.57 / 0.59, 0.02 / 0.59], 10)),
    }
    assert _rows_as_set(ms) == expected


def test_conditional_spectra_product_state():
    rng = np.random.default_rng(41)
    rho_a = random_density(rng, (2,))
    rho_b = random_density(rng, (3,))
    joint = validate_density(kron(rho_a.mat, rho_b.mat), (2, 3))
    ms = conditional_spectra(joint, "forward")
    from qeci.linalg import hermitian_eig

    spectrum = hermitian_eig(rho_b.mat).eigenvalues
    for row in ms.rows:
        assert np.allclose(row, spectrum, atol=1e-9)


def test_qeci_infer_worked_example():
    verdict = qeci_infer(qsc_computational(0.4, 0.05))
    assert verdict.direction is Direction.A_TO_B
    assert verdict.s_forward == pytest.approx(1.2573, abs=5e-4)
    assert verdict.s_backward == pytest.approx(1.4270, abs=5e-4)
    assert verdict.s_exo_fwd == pytest.approx(0.2864, abs=5e-5)
    assert verdict.s_exo_bwd == pytest.approx(0.4505, abs=5e-5)


def test_qeci_infer_hadamard_tie():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegeneracyWarning)
        verdict = qeci_infer(qsc_hadamard(0.4, 0.5))
    assert verdict.direction is Direction.TIE
    assert verdict.s_forward == pytest.approx(1.97, abs=0.02)
    assert abs(verdict.s_forward - verdict.s_backward) < 1e-9


def test_qeci_infer_product_state_ties():
    rng = np.random.default_rng(42)
    rho_a = random_density(rng, (2,))
    rho_b = random_density(rng, (2,))
    joint = validate_density(kron(rho_a.mat, rho_b.mat), (2, 2))
    verdict = qeci_infer(joint)
    assert verdict.direction is Direction.TIE
    assert verdict.s_forward == pytest.approx(
        verdict.s_cause_fwd + verdict.s_cause_bwd, abs=1e-9
    )
    assert verdict.s_backward == pytest.approx(verdict.s_forward, abs=1e-9)


def test_verdict_score_decomposition():
    verdict = qeci_infer(qsc_computational(0.3, 0.1))
    assert verdict.s_forward == verdict.s_cause_fwd + verdict.s_exo_fwd
    assert verdict.s_backward == verdict.s_cause_bwd + verdict.s_exo_bwd


def _product_with_a_pure_side():
    # side A is pure (one branch), side B mixed (two): the sides keep
    # different branch counts. Diagonal, so that validate_density keeps it
    # and its swap exactly as given (an eigenvalue computed at -1e-17 would
    # have either rebuilt)
    return validate_density(np.diag([0.3, 0.7, 0.0, 0.0]).astype(complex), (2, 2))


_DEPOLARIZING = dict(gamma1=0.6, lambda1=0.8, gamma2=2**-0.5, lambda2=2**-0.5)
_MIRRORED = {Direction.A_TO_B: Direction.B_TO_A, Direction.B_TO_A: Direction.A_TO_B}


@pytest.mark.parametrize(
    "build",
    [
        lambda: qsc_computational(0.4, 0.05),
        lambda: ChannelSpec("gqsc", q=0.4).joint(0.3),
        lambda: ChannelSpec("depolarizing", q=0.4, **_DEPOLARIZING).joint(0.3),
        lambda: bitflip_entangled(0.3),
        lambda: random_density(np.random.default_rng(46), (3, 3)),
        lambda: random_density(np.random.default_rng(47), (2, 4)),
        lambda: random_density(np.random.default_rng(48), (4, 2)),
        _product_with_a_pure_side,
    ],
    ids=["qsc", "gqsc", "depolarizing", "bitflip", "3x3", "2x4", "4x2", "pure-side-product"],
)
def test_swap_antisymmetry(build):
    rho = build()
    swapped = validate_density(swap_subsystems(rho.mat, *rho.dims), rho.dims[::-1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegeneracyWarning)
        v1 = qeci_infer(rho)
        v2 = qeci_infer(swapped)
    assert v1.s_forward == v2.s_backward
    assert v1.s_backward == v2.s_forward
    assert (v1.s_cause_fwd, v1.s_exo_fwd) == (v2.s_cause_bwd, v2.s_exo_bwd)
    assert (v1.s_cause_bwd, v1.s_exo_bwd) == (v2.s_cause_fwd, v2.s_exo_fwd)
    assert v2.direction is _MIRRORED.get(v1.direction, Direction.TIE)


def test_classical_eci_symmetric_channel_table():
    q, p = 0.4, 0.05
    table = JointDistribution.from_table(
        [[q * (1 - p), q * p], [(1 - q) * p, (1 - q) * (1 - p)]]
    )
    verdict = classical_eci(table)
    assert verdict.s_forward == pytest.approx(1.2573, abs=5e-4)
    assert verdict.s_forward < verdict.s_backward
    assert verdict.direction is Direction.A_TO_B


def test_classical_eci_uniform_table_ties():
    verdict = classical_eci(JointDistribution.from_table(np.full((2, 2), 0.25)))
    assert verdict.direction is Direction.TIE


def test_classical_eci_deterministic_effect():
    verdict = classical_eci(JointDistribution.from_table(np.diag([0.3, 0.7])))
    assert verdict.s_exo_fwd == pytest.approx(0.0, abs=1e-12)
    assert verdict.s_forward == pytest.approx(verdict.s_cause_fwd, abs=1e-12)


def test_classical_reduction_matches_quantum_on_diagonal_embeddings():
    rng = np.random.default_rng(43)
    for shape in ((2, 2), (3, 3)):
        for _ in range(10):
            table = random_nondegenerate_table(rng, shape)
            joint = JointDistribution.from_table(table)
            cv = classical_eci(joint)
            qv = qeci_infer(diag_embed(joint))
            assert abs(cv.s_cause_fwd - qv.s_cause_fwd) <= 1e-9
            assert abs(cv.s_exo_fwd - qv.s_exo_fwd) <= 1e-9
            assert abs(cv.s_cause_bwd - qv.s_cause_bwd) <= 1e-9
            assert abs(cv.s_exo_bwd - qv.s_exo_bwd) <= 1e-9
            assert cv.direction is qv.direction


def test_rotational_invariance_of_verdict_entropies():
    rng = np.random.default_rng(44)
    for _ in range(10):
        rho = random_nondegenerate_density(rng, (2, 2))
        u = random_unitary(rng, 2)
        v = random_unitary(rng, 2)
        local = kron(u, v)
        rotated = validate_density(local @ rho.mat @ dagger(local), (2, 2))
        base = qeci_infer(rho)
        moved = qeci_infer(rotated)
        assert abs(base.s_cause_fwd - moved.s_cause_fwd) <= 1e-6
        assert abs(base.s_exo_fwd - moved.s_exo_fwd) <= 1e-6
        assert abs(base.s_cause_bwd - moved.s_cause_bwd) <= 1e-6
        assert abs(base.s_exo_bwd - moved.s_exo_bwd) <= 1e-6
        assert base.direction is moved.direction


@pytest.mark.parametrize("p", [0.1, 0.3, 0.7])
def test_bitflip_structural_equation(p):
    rho = bitflip_entangled(p)
    exo = 0.5 * np.diag([1 - p, p, p, 1 - p]).astype(complex)
    for a in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
        cond = instance_conditional(rho, pure_state(a), "first")
        flipped = SIGMA_X @ a
        closed_form = (1 - p) * np.outer(a, a.conj()) + p * np.outer(
            flipped, flipped.conj()
        )
        assert np.allclose(cond.mat, closed_form, atol=1e-9)
        m = kron(a.conj()[None, :], np.eye(2, dtype=complex))
        assert np.allclose(cond.mat, 2.0 * m @ exo @ dagger(m), atol=1e-9)


def test_degeneracy_warning_on_maximally_mixed_marginal():
    with pytest.warns(DegeneracyWarning):
        conditional_spectra(bitflip_entangled(0.2), "forward")


def test_pure_joint_skips_zero_branches():
    # rank-1 reduced density: only one eigenbranch survives
    rho = qsc_computational(1.0, 0.3)
    ms = conditional_spectra(rho, "forward")
    assert ms.rows.shape[0] == 1
    assert np.allclose(ms.rows[0], [0.7, 0.3])
    verdict = qeci_infer(rho)
    assert verdict.s_cause_fwd == pytest.approx(0.0, abs=1e-10)


def test_joint_distribution_validation():
    with pytest.raises(ValueError):
        JointDistribution.from_table([[0.5, 0.6]])
    with pytest.raises(ValueError):
        JointDistribution.from_table([[1.2, -0.2]])



@pytest.mark.parametrize("offset", [0.999e-9, -0.999e-9])
def test_classical_eci_accepts_what_from_table_accepts(offset):
    # the table is checked once, when the JointDistribution is built, at from_table's tolerance
    rng = np.random.default_rng(21)
    for table in (np.full((2, 2), 0.25), rng.dirichlet(np.ones(12)).reshape(3, 4)):
        table = table / table.sum() * (1.0 + offset)
        verdict = classical_eci(JointDistribution.from_table(table))
        assert math.isfinite(verdict.s_forward) and math.isfinite(verdict.s_backward)


def test_verdict_paths_check_probabilities_once(monkeypatch):
    rho = qsc_computational(0.4, 0.1)
    cells = np.random.default_rng(22).dirichlet(np.ones(12)).reshape(3, 4)
    checks = []
    real_check = coupling._probability_rows

    def counting_check(stack, what, row_name, error):
        checks.append(what)
        return real_check(stack, what, row_name, error)

    def unreachable(*args, **kwargs):
        raise AssertionError("an internal probability stack was checked again")

    for module in (coupling, causal):
        monkeypatch.setattr(module, "_probability_rows", counting_check)
    monkeypatch.setattr(coupling.MarginalSet, "from_rows", unreachable)
    monkeypatch.setattr(coupling, "shannon_entropy", unreachable)
    qeci_infer(rho)
    assert checks == []
    rotate_to_classical(rho)  # its clamped, normalized table is checked when built
    assert checks == ["joint table"]
    classical_eci(JointDistribution.from_table(cells))  # checked when built, not again
    assert checks == ["joint table"] * 2


def test_causal_couples_at_one_site():
    def sites(tree):
        return [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "greedy_min_entropy_coupling"
        ]

    module = ast.parse(inspect.getsource(causal))
    verdict = next(f for f in module.body if getattr(f, "name", None) == "_verdict")
    assert len(sites(module)) == 1
    assert sites(verdict) == sites(module)


def test_each_verdict_couples_both_directions(monkeypatch):
    calls = []
    real_coupling = causal.greedy_min_entropy_coupling

    def counting_coupling(marginals):
        calls.append(marginals.rows.shape)
        return real_coupling(marginals)

    monkeypatch.setattr(causal, "greedy_min_entropy_coupling", counting_coupling)
    qeci_infer(qsc_computational(0.4, 0.1))
    assert calls == [(2, 2), (2, 2)]
    cells = np.random.default_rng(23).dirichlet(np.ones(12)).reshape(3, 4)
    classical_eci(JointDistribution.from_table(cells))
    assert calls[2:] == [(3, 4), (4, 3)]


@pytest.mark.parametrize(
    "table",
    [
        [[0.6, -0.1], [0.25, 0.25]],
        [[math.nan, 0.5], [0.25, 0.25]],
        [[math.inf, 0.5], [0.0, 0.0]],
        np.zeros((2, 2)),
    ],
)
def test_joint_distribution_construction_rejects_an_invalid_table(table):
    # a JointDistribution checks itself, so classical_eci never sees such a table
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            JointDistribution(table=np.array(table, dtype=float))
    assert type(info.value) is ValueError


@pytest.mark.parametrize(
    "call", [qeci_infer, lambda rho: conditional_spectra(rho, "forward"), rotate_to_classical]
)
def test_degeneracy_warning_names_the_caller(call):
    with pytest.warns(DegeneracyWarning) as record:
        call(bitflip_entangled(0.2))
    assert record[0].filename == __file__


def test_single_level_scores_are_positive_zero():
    quantum = qeci_infer(validate_density(np.ones((1, 1)), (1, 1)))
    classical = classical_eci(JointDistribution.from_table([[1.0]]))
    for verdict in (quantum, classical):
        for name in ("s_cause_fwd", "s_exo_fwd", "s_cause_bwd", "s_exo_bwd", "s_forward"):
            assert math.copysign(1.0, getattr(verdict, name)) == 1.0, name


@pytest.mark.parametrize("tie_tol", [math.nan, -5.0, math.inf])
def test_tie_tol_must_be_a_finite_number_at_least_zero(tie_tol):
    # unchecked, nan would read every joint as a tie and -5.0 would turn this
    # joint's BtoA (s_forward 2.347 > s_backward 1.852) into AtoB
    rho = qsc_hadamard(0.4, 0.3)
    swapped = validate_density(swap_subsystems(rho.mat, *rho.dims), rho.dims[::-1])
    assert qeci_infer(swapped).direction is Direction.B_TO_A
    message = f"tie_tol must be a finite number >= 0, got {tie_tol}"
    for infer in (qeci_infer, lambda r, **kw: classical_eci(rotate_to_classical(r), **kw)):
        with pytest.raises(ValueError) as info:
            infer(swapped, tie_tol=tie_tol)
        assert str(info.value) == message


@pytest.mark.parametrize("tie_tol", [math.nan, -1.0, math.inf])
def test_tie_tol_is_checked_before_any_work(monkeypatch, tie_tol):
    # built, this joint's reduced densities would warn (both are I/2), and the
    # table's marginals would be scored; neither happens before the raise
    scored = []
    monkeypatch.setattr(causal, "_entropy_bits", scored.append)
    rho = validate_density(np.eye(4) / 4, (2, 2))
    table = JointDistribution.from_table(np.full((2, 2), 0.25))
    message = f"tie_tol must be a finite number >= 0, got {tie_tol}"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for infer, joint in ((qeci_infer, rho), (classical_eci, table)):
            with pytest.raises(ValueError) as info:
                infer(joint, tie_tol=tie_tol)
            assert str(info.value) == message
    assert caught == [] and scored == []


def test_a_branch_just_above_the_floor_is_conditioned():
    # side A keeps a branch at eigenvalue 1.0000004e-12 > PROB_FLOOR whose
    # block trace reads 9.999999e-13; the pass keeps it by the eigenvalue alone
    # and does not test the trace again, so this product state ties
    with pytest.warns(DegeneracyWarning):  # side B is I/2
        verdict = qeci_infer(validate_density(branch_floor_joint(), (2, 2)))
    assert verdict.direction is Direction.TIE
    rows = conditional_spectra(validate_density(branch_floor_joint(), (2, 2)), "forward")
    assert np.array_equal(rows.rows, [[0.5, 0.5], [0.5, 0.5]])


def test_no_branch_above_the_floor_is_refused():
    # product states with a cause eigenvalue in PROB_FLOOR * (1, 1 + 3e-4]: each
    # such eigenket is a branch, and conditioning on it never raises
    rng = np.random.default_rng(0)
    for _ in range(1000):
        lam = PROB_FLOOR * (1.0 + 3e-4 * (1.0 - rng.uniform()))
        q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        u = q * (r.diagonal() / np.abs(r.diagonal()))  # Haar on U(2)
        rho_b = random_density(rng, (2,)).mat
        mat = np.kron(u @ np.diag([1.0 - lam, lam]) @ u.conj().T, rho_b)
        try:
            qeci_infer(validate_density(mat, (2, 2)))
        except ZeroProbabilityCondition as exc:
            pytest.fail(f"branch of eigenvalue {lam!r} refused: {exc}")


def test_a_classical_marginal_scores_as_its_diagonal_embedding():
    # one entropy for both paths: the 1e-13 entries, at the floor, count as zero on each
    table = JointDistribution.from_table([[0.5, 0.5 - 1e-13], [0.0, 1e-13]])
    with pytest.warns(DegeneracyWarning):
        quantum = qeci_infer(diag_embed(table))
    assert classical_eci(table).s_cause_fwd == quantum.s_cause_fwd


# -- agreement with a numpy reference --------------------------------------------

REF_FLOOR = 1e-12


def _ref_entropy(p) -> float:
    p = np.asarray(p, dtype=float)
    p = p[p > REF_FLOOR]
    return float(-(p * np.log2(p)).sum())


def _ref_greedy_entropy(rows) -> float:
    rows = np.array(rows, dtype=float)
    idx = np.arange(rows.shape[0])
    masses = []
    while True:
        top = rows.argmax(axis=1)
        r = rows[idx, top].min()
        if r <= REF_FLOOR:
            break
        masses.append(r)
        rows[idx, top] -= r
    total = 0.0
    for m in masses:  # left to right, as the greedy loop totals them
        total += m
    return _ref_entropy(np.array(masses) / total)


def _ref_scores(mat, dim_a, dim_b):
    """(s_cause_fwd, s_exo_fwd, s_cause_bwd, s_exo_bwd): partial traces and
    conditionals by contraction of the joint tensor, spectra by eigh."""
    r = np.asarray(mat).reshape(dim_a, dim_b, dim_a, dim_b)
    scores = []
    for t in (r, r.transpose(1, 0, 3, 2)):  # the cause index comes first
        values, vectors = np.linalg.eigh(np.einsum("ikjk->ij", t))
        spectra = []
        for value, v in zip(values, vectors.T):
            if value > REF_FLOOR:
                numerator = np.einsum("i,ikjl,j->kl", v.conj(), t, v)
                spectra.append(np.linalg.eigvalsh(numerator / np.trace(numerator).real))
        scores += [_ref_entropy(values), _ref_greedy_entropy(np.clip(spectra, 0.0, None))]
    return scores


def _assert_agrees(rho):
    verdict = qeci_infer(rho)
    got = [verdict.s_cause_fwd, verdict.s_exo_fwd, verdict.s_cause_bwd, verdict.s_exo_bwd]
    assert np.abs(np.subtract(got, _ref_scores(rho.mat, *rho.dims))).max() <= 1e-10


def _ref_block_entropy(blocks, weights) -> float:
    """Coupled entropy of the spectra of each normalized block's Hermitian part, by eigh."""
    spectra = []
    for block, weight in zip(blocks, weights):
        c = block / weight
        values = np.maximum(np.linalg.eigh(0.5 * (c + c.conj().T))[0], 0.0)
        spectra.append(values / values.sum())
    return _ref_greedy_entropy(spectra)


@pytest.mark.parametrize("pure_tau", [False, True])
@pytest.mark.parametrize("eps", [1e-8, 1e-10, 1e-11])
def test_small_branches_are_checked_at_their_own_scale(eps, pure_tau):
    # the forward branch of weight eps holds rounding residue of ~1e-17, which
    # reads as 1e-17 / eps once the block is normalized; checked against the
    # absolute tolerance these joints raised NotHermitian, and NotPSD for a
    # pure tau, in qeci_infer and in instance_conditional
    rng = np.random.default_rng(round(-math.log10(eps)) + 100 * pure_tau)
    for _ in range(20):
        rho = validate_density(small_branch_joint(rng, eps, pure_tau), (2, 2))
        verdict = qeci_infer(rho)
        s_cause_fwd, _, s_cause_bwd, s_exo_bwd = _ref_scores(rho.mat, 2, 2)
        # An independent contraction moves a branch of weight eps by ~1e-16 / eps
        # once normalized (up to 3e-5 bits of s_exo_fwd at eps = 1e-11), so the
        # forward coupling is checked from the blocks the verdict conditioned on.
        fwd = causal._cause_sides(rho, ("A",))[0]
        got = [verdict.s_cause_fwd, verdict.s_exo_fwd, verdict.s_cause_bwd, verdict.s_exo_bwd]
        ref = [s_cause_fwd, _ref_block_entropy(fwd.blocks, fwd.weights), s_cause_bwd, s_exo_bwd]
        assert np.abs(np.subtract(got, ref)).max() <= 1e-8
        for ket, row in zip(fwd.kets.T, fwd.rows.rows):
            cond = instance_conditional(rho, pure_state(ket), "first")
            assert np.abs(cond.eig.eigenvalues - row).max() <= 1e-15 / eps


def test_joints_accepted_at_a_loose_tol_infer():
    # validate_density keeps the exactly Hermitian part of a joint it accepts,
    # so an anti-Hermitian part of ~1e-4 passed at tol=1e-3 reaches no later check
    rng = np.random.default_rng(12)
    for k in range(200):
        dims = [(2, 2), (2, 3), (3, 2), (4, 4)][k % 4]
        rho = validate_density(skewed_density(rng, dims), dims, tol=1e-3)
        _assert_agrees(rho)
        assert np.array_equal(rho.mat, rho.mat.conj().T)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (4, 4), (2, 8), (8, 2)])
def test_qeci_infer_agrees_with_reference_on_ginibre_states(dims):
    rng = np.random.default_rng(sum(dims) * 10 + dims[0])
    for _ in range(3):
        _assert_agrees(random_density(rng, dims))


@pytest.mark.parametrize("kind", ChannelSpec.KINDS)
def test_qeci_infer_agrees_with_reference_on_channel_sweeps(kind):
    amplitudes = dict(gamma1=0.6, lambda1=0.8, gamma2=2**-0.5, lambda2=2**-0.5)
    spec = ChannelSpec(kind, q=0.4, **(amplitudes if kind == "depolarizing" else {}))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegeneracyWarning)
        for k in range(1, 20):
            _assert_agrees(spec.joint(round(0.05 * k, 2)))


def test_verdict_path_avoids_slow_numpy_idioms(monkeypatch):
    # cheaper equivalents give the same bits: a broadcast product for np.kron,
    # matmul for np.tensordot, np.maximum for np.clip and a slice difference
    # for np.diff
    called = []
    for name in ("kron", "tensordot", "clip", "diff"):

        def refuse(*args, _name=name, **kwargs):
            called.append(_name)
            raise AssertionError(f"np.{_name} on the verdict path")

        monkeypatch.setattr(np, name, refuse)
    amplitudes = dict(gamma1=0.6, lambda1=0.8, gamma2=2**-0.5, lambda2=2**-0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegeneracyWarning)
        for kind in ChannelSpec.KINDS:
            spec = ChannelSpec(kind, q=0.4, **(amplitudes if kind == "depolarizing" else {}))
            rho = spec.joint(0.3)
            qeci_infer(rho)
            classical_eci(rotate_to_classical(rho))
    assert called == []


def _record_eig_inputs(monkeypatch) -> list:
    """From now on, append (shape, bytes) of each matrix qeci hands hermitian_eig,
    one entry per matrix of a stacked call."""
    seen = []

    def counting(a, *args, **kwargs):
        a = np.asarray(a, dtype=complex)
        seen.extend((m.shape, m.tobytes()) for m in a.reshape(-1, *a.shape[-2:]))
        return hermitian_eig(a, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qeci" and getattr(module, "hermitian_eig", None) is hermitian_eig:
            monkeypatch.setattr(module, "hermitian_eig", counting)
    return seen


def _count_validations(monkeypatch) -> list:
    """From now on, append the dims of each validate_density call, wherever bound."""
    calls = []

    def counting(mat, dims, *args, **kwargs):
        calls.append(dims)
        return validate_density(mat, dims, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        bound = getattr(module, "validate_density", None)
        if name.split(".")[0] == "qeci" and bound is validate_density:
            monkeypatch.setattr(module, "validate_density", counting)
    return calls


def test_each_matrix_is_decomposed_once(monkeypatch):
    rho = qsc_computational(0.4, 0.05)
    seen = _record_eig_inputs(monkeypatch)
    qeci_infer(rho)
    assert 0 < len(seen) <= 10
    assert len(set(seen)) == len(seen)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (4, 2)])
def test_rotate_after_infer_reuses_the_reduced_densities(monkeypatch, dims):
    rng = np.random.default_rng(31 + sum(dims))
    rho = random_nondegenerate_density(rng, dims)
    fresh = validate_density(rho.mat, dims)
    qeci_infer(rho)
    seen = _record_eig_inputs(monkeypatch)
    table = rotate_to_classical(rho)
    assert seen == []
    assert np.array_equal(rotate_to_classical(fresh).table, table.table)
    assert len(seen) == 2


def test_depolarizing_mixture_is_decomposed_once(monkeypatch):
    # checked by its spectrum, decomposed on the first read of eig
    seen = _record_eig_inputs(monkeypatch)
    rho = depolarizing_mixture(0.4, (0.6, 0.8), (1 / math.sqrt(2), 1 / math.sqrt(2)), 0.3)
    assert len(seen) == 0
    rho.eig
    assert len(seen) == 1


@pytest.mark.parametrize(
    "build",
    [
        lambda: validate_density(random_density(np.random.default_rng(3), (2, 3)).mat, (2, 3)),
        lambda: depolarizing_mixture(0.4, (0.6, 0.8), (2**-0.5, 2**-0.5), 0.3),
    ],
    ids=["validated", "channel"],
)
def test_joint_eig_is_taken_on_first_read(monkeypatch, build):
    seen = _record_eig_inputs(monkeypatch)
    rho = build()
    assert seen == []
    eig = rho.eig
    assert len(seen) == 1
    assert rho.eig is eig and len(seen) == 1
    ref = hermitian_eig(rho.mat)
    assert np.array_equal(eig.eigenvalues, np.maximum(ref.eigenvalues, 0.0))
    assert np.array_equal(eig.eigenvectors, ref.eigenvectors)
    assert not eig.eigenvalues.flags.writeable and not eig.eigenvectors.flags.writeable


@pytest.mark.parametrize("kind", ChannelSpec.KINDS)
def test_library_built_densities_are_not_validated(monkeypatch, kind):
    # a channel joint is built from checked parameters and its reduced
    # densities from a validated joint, so a sweep point validates nothing
    amplitudes = dict(gamma1=0.6, lambda1=0.8, gamma2=2**-0.5, lambda2=2**-0.5)
    spec = ChannelSpec(kind, q=0.4, **(amplitudes if kind == "depolarizing" else {}))
    validations = _count_validations(monkeypatch)
    seen = _record_eig_inputs(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegeneracyWarning)
        rho = spec.joint(0.3)
        qeci_infer(rho)
        classical_eci(rotate_to_classical(rho))
    assert validations == [] and len(seen) == 2
    # outside input is validated once by its spectrum; only its two sides are decomposed
    mat = random_density(np.random.default_rng(5), (4, 4)).mat
    del seen[:]
    qeci_infer(qeci.validate_density(mat, (4, 4)))
    assert validations == [(4, 4)] and len(seen) == 2


def _pair_inputs():
    rng = np.random.default_rng(49)
    for d in (2, 3, 4):
        for _ in range(5):
            yield random_density(rng, (d, d))
    for k in range(12):
        eps = [1e-8, 1e-10, 1e-11][k % 3]
        yield validate_density(small_branch_joint(rng, eps, k % 2 == 1), (2, 2))
    yield bitflip_entangled(0.2)  # both sides maximally mixed
    yield depolarizing_mixture(0.4, (0.6, 0.8), (2**-0.5, 2**-0.5), 0.75)  # side B degenerate
    yield _product_with_a_pure_side()  # sides of one and two branches
    yield random_density(rng, (2, 3))
    yield random_density(rng, (2, 8))  # the benchmark's lone sides
    yield random_density(rng, (8, 2))
    g = rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2))
    yield validate_density(g @ g.conj().T / np.linalg.norm(g) ** 2, (4, 2))  # rank 2


def _as_stacks_of_one(monkeypatch) -> None:
    """From now on, hand the inference kernels each lone reduced density, and
    each lone side's tensor and kets, as a stack of one."""

    def eig(a, herm_tol):
        stacked = hermitian_eig(a[None], herm_tol=herm_tol)
        return EigenDecomposition(stacked.eigenvalues[0], stacked.eigenvectors[0])

    def conditioned(r, kets, kernel=causal._conditioned):
        return [out[0] for out in kernel(r[None], kets[None])]

    monkeypatch.setattr(density, "hermitian_eig", eig)
    monkeypatch.setattr(causal, "_conditioned", conditioned)


def test_stacked_pair_equals_each_side_alone(monkeypatch):
    # qeci_infer conditions the two sides of a d x d joint in one stacked
    # pass and any other side alone, as matrices; each side must be what a
    # lone pass and a pass through stacks of one make of it, bit for bit
    for rho in _pair_inputs():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegeneracyWarning)
            pair = causal._cause_sides(rho)
            with monkeypatch.context() as patched:
                _as_stacks_of_one(patched)
                stacked = [
                    causal._cause_sides(dataclasses.replace(rho, _memo={}), (label,))[0]
                    for label in ("A", "B")
                ]
            alone = [
                causal._cause_sides(dataclasses.replace(rho, _memo={}), (label,))[0]
                for label in ("A", "B")
            ]
        for sides in zip(pair, alone, stacked):
            for side in sides[1:]:
                for name in ("kets", "weights", "blocks"):
                    assert np.array_equal(getattr(sides[0], name), getattr(side, name)), name
                assert np.array_equal(sides[0].rows.rows, side.rows.rows)
                assert np.array_equal(sides[0].reduced.mat, side.reduced.mat)
                for name in ("eigenvalues", "eigenvectors"):
                    ref, got = getattr(sides[0].reduced.eig, name), getattr(side.reduced.eig, name)
                    assert np.array_equal(ref, got), name


def test_a_lone_side_goes_to_the_kernels_as_a_matrix(monkeypatch):
    # a d x d joint decomposes and conditions its two sides as one stack;
    # a d_A != d_B joint, and conditional_spectra's one side, go alone, with
    # no leading axis of one
    shapes = []

    def recording(kernel):
        def call(a, *args, **kwargs):
            shapes.append((kernel.__name__, a.shape))
            return kernel(a, *args, **kwargs)

        return call

    monkeypatch.setattr(density, "hermitian_eig", recording(hermitian_eig))
    monkeypatch.setattr(causal, "_block_spectra", recording(density._block_spectra))
    rng = np.random.default_rng(11)
    qeci_infer(random_density(rng, (4, 4)))
    assert shapes == [("hermitian_eig", (2, 4, 4)), ("_block_spectra", (2, 4, 4, 4))]
    rho = random_density(rng, (2, 8))
    del shapes[:]
    qeci_infer(rho)
    forward = [("hermitian_eig", (2, 2)), ("_block_spectra", (2, 8, 8))]
    backward = [("hermitian_eig", (8, 8)), ("_block_spectra", (8, 2, 2))]
    assert shapes == [forward[0], backward[0], forward[1], backward[1]]
    for direction, want in (("forward", forward), ("backward", backward)):
        del shapes[:]
        conditional_spectra(dataclasses.replace(rho, _memo={}), direction)
        assert shapes == want


_DEGENERATE = (
    "reduced density of side {} has near-degenerate eigenvalues; "
    "the conditioning eigenbasis is not unique"
)


def test_a_failing_pass_builds_then_warns_then_raises_once():
    # joints built around validate_density, so that one step fails: the pass
    # builds every reduced density, then warns for each degenerate one, then
    # conditions, and the first error is raised once
    base = validate_density(np.eye(4) / 4, (2, 2))
    # side A is maximally mixed; side B's reduced density has eigenvalue -0.2,
    # so the build fails before side A can warn
    bad_b = dataclasses.replace(base, mat=np.diag([0.1, 0.4, -0.3, 0.8]).astype(complex), _memo={})
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        with pytest.raises(NotPSD, match="^minimum eigenvalue -2.000e-01 below -1.0e-09$"):
            qeci_infer(bad_b)
    assert record == []
    # both sides maximally mixed; an infinite coherence between |00> and |11>
    # leaves them finite but poisons every conditional: both sides warn, in
    # side order, and the one conditioning pass fails, with one numpy warning
    m = np.eye(4, dtype=complex) / 4
    m[0, 3] = m[3, 0] = np.inf
    nan = "^eigendecomposition did not converge: eigvalsh returned nan$"
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        with pytest.raises(EigenConvergenceError, match=nan):
            qeci_infer(dataclasses.replace(base, mat=m, _memo={}))
    degenerate = [(str(w.message), w.filename) for w in record if w.category is DegeneracyWarning]
    assert degenerate == [(_DEGENERATE.format("A"), __file__), (_DEGENERATE.format("B"), __file__)]
    messages = [str(w.message) for w in record if w.category is RuntimeWarning]
    assert messages == ["invalid value encountered in matmul"]


def test_reused_reduced_density_still_warns_at_the_caller():
    # p = 3/4 twirls the second qubit: side B is maximally mixed
    rho = depolarizing_mixture(0.4, (0.6, 0.8), (1 / math.sqrt(2), 1 / math.sqrt(2)), 0.75)
    with pytest.warns(DegeneracyWarning) as record:
        qeci_infer(rho)
    assert record[0].filename == __file__
    with pytest.warns(DegeneracyWarning, match="side B") as record:
        rotate_to_classical(rho)
    assert [w.filename for w in record] == [__file__]


@pytest.mark.parametrize("dims", [(2, 3), (3, 2), (4, 4), (2, 8), (8, 2)])
@pytest.mark.parametrize(
    "direction, side, traced", [("forward", "first", "B"), ("backward", "second", "A")]
)
def test_stacked_spectra_equal_per_branch_conditionals(dims, direction, side, traced):
    rng = np.random.default_rng(sum(dims) * 7 + dims[0])
    rho = random_density(rng, dims)
    dim = dims[0] if side == "first" else dims[1]
    reduced = validate_density(partial_trace(rho.mat, *dims, traced), (dim,)).eig
    per_branch = [
        instance_conditional(rho, pure_state(ket), side).eig.eigenvalues
        for value, ket in zip(reduced.eigenvalues, reduced.eigenvectors.T)
        if value > PROB_FLOOR
    ]
    stacked = conditional_spectra(rho, direction).rows
    assert stacked.shape == (dim, dims[1] if side == "first" else dims[0])
    assert np.abs(stacked - np.array(per_branch)).max() <= 1e-12


def _flip_share(rho, eps: float, draws: int = 200) -> float:
    """Share of ``draws`` seeded perturbations of Frobenius norm ``eps`` that flip
    the verdict on ``rho``: each adds a random traceless Hermitian matrix, projects
    the sum to PSD, renormalizes it, validates it and infers again."""
    rng = np.random.default_rng(7)
    dim = rho.dim
    base = qeci_infer(rho).direction
    flips = 0
    for _ in range(draws):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = g + g.conj().T
        h -= np.trace(h).real / dim * np.eye(dim)
        w, v = np.linalg.eigh(rho.mat + eps * h / np.linalg.norm(h))
        m = (v * np.maximum(w, 0.0)) @ v.conj().T
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegeneracyWarning)
            verdict = qeci_infer(validate_density(m / np.trace(m).real, rho.dims))
        flips += verdict.direction is not base
    return flips / draws


def test_the_depolarizing_verdicts_flip_under_tiny_noise_and_the_hadamard_ones_do_not():
    # The README's fragility finding, recorded as it stands.
    # The criterion-04 joints have two exactly equal forward conditional
    # spectra and a forward branch of weight 0.0048, so a 1e-6 perturbation
    # flips most verdicts; qsc_hadamard's hold at 1e-2. Loose bounds, so the
    # counts of other LAPACK builds pass too.
    inv = 1 / math.sqrt(2)
    shares = [
        _flip_share(depolarizing_mixture(0.4, (0.6, 0.8), (inv, inv), p), 1e-6)
        for p in (0.1, 0.4, 0.7)
    ]
    assert shares[0] < shares[1] < shares[2] and shares[2] >= 0.9, shares
    for p in (0.1, 0.4, 0.7):
        assert _flip_share(qsc_hadamard(0.4, p), 1e-2) == 0.0, p
