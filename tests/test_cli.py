import contextlib
import io
import json
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qeci.channels import qsc_computational
from qeci.cli import main
from qeci.fileio import (
    FileFormatError,
    density_payload,
    dump_density,
    load_density_file,
    load_table_file,
    table_to_csv,
)
from qeci.causal import DegeneracyWarning, JointDistribution
from qeci.density import validate_density

from _helpers import small_branch_joint


@pytest.fixture()
def qsc_file(tmp_path):
    path = tmp_path / "qsc.json"
    path.write_text(dump_density(qsc_computational(0.4, 0.05)), encoding="utf-8")
    return str(path)


def test_density_file_round_trip(tmp_path, qsc_file):
    rho = load_density_file(qsc_file)
    assert rho.dims == (2, 2)
    assert np.allclose(rho.mat, np.diag([0.38, 0.02, 0.03, 0.57]))


def test_density_payload_shape():
    payload = density_payload(qsc_computational(0.4, 0.05))
    assert payload["dims"] == [2, 2]
    assert payload["matrix"][0][0] == [0.38, 0.0]


def test_load_density_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(FileFormatError):
        load_density_file(str(path))


def test_infer_report_worked_example(qsc_file, capsys):
    assert main(["infer", "--input", qsc_file]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "A->B  S(A->B)=1.2573  S(A<-B)=1.4270"


def test_infer_json_output(qsc_file, capsys):
    assert main(["infer", "--input", qsc_file, "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["direction"] == "AtoB"
    assert record["s_forward"] == pytest.approx(1.2573, abs=5e-4)
    assert set(record) == {
        "direction",
        "s_forward",
        "s_backward",
        "s_cause_fwd",
        "s_exo_fwd",
        "s_cause_bwd",
        "s_exo_bwd",
    }


def test_infer_parse_failure_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2, 3]", encoding="utf-8")
    assert main(["infer", "--input", str(path)]) == 2


def _write_density(tmp_path, edit) -> str:
    payload = density_payload(qsc_computational(0.4, 0.05))
    edit(payload)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("dims", [None, [[1]], [[2], [2]]])
def test_infer_malformed_dims_exits_2(tmp_path, capsys, dims):
    path = _write_density(tmp_path, lambda payload: payload.update(dims=dims))
    assert main(["infer", "--input", path]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_infer_cell_with_extra_component_exits_2(tmp_path, capsys):
    path = _write_density(tmp_path, lambda payload: payload["matrix"][0][0].append(0.0))
    assert main(["infer", "--input", path]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_infer_single_level_prints_no_negative_zero(tmp_path, capsys):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"dims": [1, 1], "matrix": [[[1.0, 0.0]]]}), encoding="utf-8")
    assert main(["infer", "--input", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "Tie  S(A->B)=0.0000  S(A<-B)=0.0000"


def test_infer_numeric_failure_exits_4(qsc_file, capsys, monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    assert main(["infer", "--input", qsc_file]) == 4
    assert capsys.readouterr().err.startswith("error: numeric failure")


def test_infer_stacked_spectra_failure_exits_4(qsc_file, capsys, monkeypatch):
    # eigh still works, so the failure comes from the conditionals' stacked eigvalsh
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    assert main(["infer", "--input", qsc_file]) == 4
    assert capsys.readouterr().err.startswith("error: numeric failure")


def test_infer_nan_stacked_spectra_exits_4(qsc_file, capsys, monkeypatch):
    # the spectra reach the coupling unchecked, so a nan eigvalsh is caught where it happens
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.full(a.shape[:-1], np.nan))
    assert main(["infer", "--input", qsc_file]) == 4
    assert capsys.readouterr().err.startswith("error: numeric failure")


def test_infer_accepts_a_joint_with_a_small_branch(tmp_path, capsys):
    # its forward branch of weight 1e-11 failed the hermiticity check once normalized
    rng = np.random.default_rng(11)
    path = tmp_path / "small_branch.json"
    rho = validate_density(small_branch_joint(rng, 1e-11, pure_tau=False), (2, 2))
    path.write_text(dump_density(rho), encoding="utf-8")
    assert main(["infer", "--input", str(path)]) == 0
    assert capsys.readouterr().err == ""


def test_infer_tol_reaches_the_conditionals(tmp_path, capsys):
    # an anti-Hermitian part of 1e-5 passes --tol 1e-3; the conditionals
    # derived from the accepted joint are not checked again at 1e-9
    rng = np.random.default_rng(7)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    mat = g @ g.conj().T
    mat = mat / np.trace(mat).real
    mat[0, 1] += 1e-5j
    mat[1, 0] += 1e-5j
    path = tmp_path / "skewed.json"
    cells = [[[z.real, z.imag] for z in row] for row in mat]
    path.write_text(json.dumps({"dims": [2, 2], "matrix": cells}), encoding="utf-8")
    assert main(["infer", "--input", str(path)]) == 3
    assert "NotHermitian" in capsys.readouterr().err
    assert main(["infer", "--input", str(path), "--tol", "1e-3"]) == 0
    assert capsys.readouterr().err == ""


def test_infer_trace_violation_exits_3(tmp_path, capsys):
    path = tmp_path / "trace.json"
    rho = qsc_computational(0.4, 0.05)
    payload = density_payload(rho)
    payload["matrix"][0][0] = [0.28, 0.0]  # trace 0.9
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["infer", "--input", str(path)]) == 3
    assert "TraceNotOne" in capsys.readouterr().err


def test_infer_env_tolerance_override(tmp_path, capsys, monkeypatch):
    path = tmp_path / "trace.json"
    payload = density_payload(qsc_computational(0.4, 0.05))
    payload["matrix"][0][0] = [0.38 + 5e-8, 0.0]  # trace off by 5e-8
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["infer", "--input", str(path)]) == 3
    monkeypatch.setenv("QECI_TOL", "1e-6")
    assert main(["infer", "--input", str(path)]) == 0


def _garbled_density_file(tmp_path) -> str:
    # [[-1, 2], [0, 4.5]]: not Hermitian, not PSD, trace 3.5
    path = tmp_path / "garbled.json"
    cells = [[[-1.0, 0.0], [2.0, 0.0]], [[0.0, 0.0], [4.5, 0.0]]]
    path.write_text(json.dumps({"dims": [1, 2], "matrix": cells}), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_infer_rejects_a_tol_that_is_not_finite_and_non_negative(tmp_path, capsys, tol):
    assert main(["infer", "--input", _garbled_density_file(tmp_path), "--tol", tol]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: --tol must be a finite number >= 0") and err.count("\n") == 1


def test_infer_rejects_a_nan_env_tol(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QECI_TOL", "nan")
    assert main(["infer", "--input", _garbled_density_file(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: QECI_TOL must be a finite number >= 0, got nan\n"


def test_sweep_gqsc_single_tie_row(capsys):
    assert main(
        [
            "sweep", "--channel", "gqsc", "--q", "0.4",
            "--p-start", "0.5", "--p-end", "0.5", "--steps", "1",
        ]
    ) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "p,s_forward,s_backward,delta,direction"
    assert len(lines) == 2
    p, fwd, bwd, delta, direction = lines[1].split(",")
    assert float(p) == 0.5
    assert float(fwd) == pytest.approx(1.97, abs=0.02)
    assert float(bwd) == pytest.approx(float(fwd), abs=1e-9)
    assert direction == "Tie"


def test_sweep_writes_ordered_csv_with_endpoint_flags(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(
        [
            "sweep", "--channel", "qsc", "--q", "0.4",
            "--p-start", "0.0", "--p-end", "1.0", "--steps", "5",
            "--out", str(out),
        ]
    ) == 0
    text = out.read_text(encoding="utf-8")
    lines = text.strip().split("\n")
    assert len(lines) == 6
    ps = [float(line.split(",")[0]) for line in lines[1:]]
    assert ps == sorted(ps) == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert lines[1].endswith("*")
    assert lines[-1].endswith("*")
    for line in lines[2:-1]:
        assert not line.endswith("*")


def test_sweep_csv_is_byte_stable(tmp_path):
    args = [
        "sweep", "--channel", "depolarizing", "--q", "0.4",
        "--gamma1", "0.6", "--lambda1", "0.8",
        "--gamma2", str(2**-0.5), "--lambda2", str(2**-0.5),
        "--p-start", "0.1", "--p-end", "0.9", "--steps", "5",
    ]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_sweep_prints_each_warning_as_one_line(capsys):
    assert main(
        [
            "sweep", "--channel", "depolarizing", "--q", "0.4",
            "--gamma1", "0.6", "--lambda1", "0.8",
            "--gamma2", str(2**-0.5), "--lambda2", str(2**-0.5),
            "--p-start", "0.05", "--p-end", "0.95", "--steps", "19",
        ]
    ) == 0
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "warning: p=0.75: reduced density of side B has near-degenerate eigenvalues; "
        "the conditioning eigenbasis is not unique"
    ]


def test_sweep_rejects_bad_channel_params(capsys):
    code = main(
        [
            "sweep", "--channel", "depolarizing", "--q", "0.4",
            "--gamma1", "0.6", "--lambda1", "0.9",
            "--gamma2", "0.6", "--lambda2", "0.8",
            "--p-start", "0.1", "--p-end", "0.9", "--steps", "3",
        ]
    )
    assert code == 2


@pytest.mark.parametrize(
    "flags",
    [
        ["--p-start", "nan", "--p-end", "0.9"],
        ["--p-start", "0.1", "--p-end", "nan"],
        ["--p-start", "0.1", "--p-end", "1.5"],
        ["--p-start", "-0.1", "--p-end", "0.9"],
        ["--p-start", "0.1", "--p-end", "0.9", "--gamma1", "nan"],
        ["--p-start", "0.1", "--p-end", "0.9", "--lambda2", "nan"],
    ],
)
def test_sweep_rejects_bad_ends_and_amplitudes_with_one_line(capsys, flags):
    amplitudes = {"--gamma1": "0.6", "--lambda1": "0.8", "--gamma2": "0.6", "--lambda2": "0.8"}
    for flag in flags[::2]:
        amplitudes.pop(flag, None)
    argv = ["sweep", "--channel", "depolarizing", "--q", "0.4", "--steps", "3", *flags]
    for flag, value in amplitudes.items():
        argv += [flag, value]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_sweep_amplitude_pair_at_the_tolerance_edge_gives_finite_rows(capsys):
    # |gamma^2 + lambda^2 - 1| = 9e-10 is accepted, so every point must infer
    def rows(lam):
        argv = [
            "sweep", "--channel", "depolarizing", "--q", "0.4",
            "--gamma1", "0.6", "--lambda1", lam, "--gamma2", "0.6", "--lambda2", lam,
            "--p-start", "0.05", "--p-end", "0.95", "--steps", "19",
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "failed" not in captured.err
        return [line.split(",") for line in captured.out.split()[1:]]

    for edge, exact in zip(rows("0.8000000005625"), rows("0.8")):
        assert edge[0] == exact[0] and edge[4] == exact[4]
        for got, want in zip(edge[1:4], exact[1:4]):
            assert math.isfinite(float(got))
            assert abs(float(got) - float(want)) <= 1e-8


def test_coupling_worked_example(tmp_path, capsys):
    path = tmp_path / "rows.json"
    path.write_text("[[0.05, 0.95], [0.05, 0.95]]", encoding="utf-8")
    assert main(["coupling", "--marginals", str(path)]) == 0
    out = capsys.readouterr().out
    assert "coupling entropy (bits): 0.2864" in out
    assert "mass 0.95 at (1, 1)" in out


def test_coupling_three_identical_rows(tmp_path, capsys):
    path = tmp_path / "rows.json"
    path.write_text("[[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]]", encoding="utf-8")
    assert main(["coupling", "--marginals", str(path)]) == 0
    assert "coupling entropy (bits): 1.0000" in capsys.readouterr().out


def test_coupling_non_numeric_marginal_exits_2(tmp_path, capsys):
    path = tmp_path / "rows.json"
    path.write_text('[[0.5, "x"], [0.5, 0.5]]', encoding="utf-8")
    assert main(["coupling", "--marginals", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_coupling_unnormalized_rows_exit_3(tmp_path, capsys):
    path = tmp_path / "rows.json"
    path.write_text("[[0.5, 0.4], [0.5, 0.5]]", encoding="utf-8")
    assert main(["coupling", "--marginals", str(path)]) == 3


COUPLING_GOLDEN = (
    "mass 0.375 at (0, 0, 0, 3)\n"
    "mass 0.25 at (1, 1, 1, 2)\n"
    "mass 0.2 at (2, 2, 0, 1)\n"
    "mass 0.1 at (1, 0, 1, 0)\n"
    "mass 0.05 at (2, 2, 1, 2)\n"
    "mass 0.025 at (1, 0, 0, 3)\n"
    "coupling entropy (bits): 2.1764\n"
)


def test_coupling_stdout_is_golden(tmp_path, capsys):
    # ragged rows, with dyadic residuals that tie untouched entries
    path = tmp_path / "rows.json"
    path.write_text(
        "[[0.375, 0.375, 0.25], [0.5, 0.25, 0.25], [0.6, 0.4], [0.1, 0.2, 0.3, 0.4]]",
        encoding="utf-8",
    )
    assert main(["coupling", "--marginals", str(path)]) == 0
    assert capsys.readouterr().out == COUPLING_GOLDEN


def _single_error_line(capsys, argv) -> str:
    """Run the CLI with warnings as errors; expect exit 3 and one stderr line."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "np.float64" not in err
    return err


def test_coupling_row_sum_message_prints_plain_float(tmp_path, capsys):
    path = tmp_path / "rows.json"
    path.write_text("[[0.5, 0.5], [0.6, 0.6]]", encoding="utf-8")
    err = _single_error_line(capsys, ["coupling", "--marginals", str(path)])
    assert err == "error: MarginalError: row 1 sums to 1.2, not 1\n"


def test_embed_table_sum_message_prints_plain_float(tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_text("[[0.5, 0.25], [0.2, 0.0]]", encoding="utf-8")
    err = _single_error_line(capsys, ["map-classical", "--input", str(path), "--mode", "embed"])
    assert err == "error: ValueError: joint table sums to 0.95, not 1\n"


def test_coupling_overflowing_row_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "rows.json"
    path.write_text("[[1e308, 1e308], [0.5, 0.5]]", encoding="utf-8")
    err = _single_error_line(capsys, ["coupling", "--marginals", str(path)])
    assert err == "error: MarginalError: row 0 sums to inf, not 1\n"


def test_embed_overflowing_table_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_text("[[1e308, 1e308], [0.5, 0.5]]", encoding="utf-8")
    err = _single_error_line(capsys, ["map-classical", "--input", str(path), "--mode", "embed"])
    assert err == "error: ValueError: joint table sums to inf, not 1\n"


# a JSON integer with 401 digits: float() of it raises OverflowError
_HUGE = 10**400
_HUGE_DENSITY = {"dims": [2], "matrix": [[[_HUGE, 0], [0, 0]], [[0, 0], [0, 0]]]}


@pytest.mark.parametrize(
    "argv, doc, message",
    [
        (["infer", "--input"], _HUGE_DENSITY, "matrix entries must be [re, im] pairs"),
        (["map-classical", "--mode", "rotate", "--input"], _HUGE_DENSITY,
         "matrix entries must be [re, im] pairs"),
        (["map-classical", "--mode", "embed", "--input"], [[_HUGE, 0], [0, 0]],
         "table rows must hold only numbers"),
        (["coupling", "--marginals"], [[_HUGE, 0], [0.5, 0.5]],
         "probability rows must hold only numbers"),
    ],
    ids=["density-infer", "density-rotate", "table-embed", "marginal-rows"],
)
def test_integer_beyond_float_range_exits_2(tmp_path, capsys, argv, doc, message):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main([*argv, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {path}: {message}\n"


def test_largest_float_as_an_integer_is_a_number(tmp_path, capsys):
    # the largest integer that float() takes passes the parse and fails as a table
    path = tmp_path / "table.json"
    path.write_text(json.dumps([[int(sys.float_info.max), 0], [0, 0]]), encoding="utf-8")
    assert main(["map-classical", "--input", str(path), "--mode", "embed"]) == 3
    err = capsys.readouterr().err
    assert err == "error: ValueError: joint table sums to 1.7976931348623157e+308, not 1\n"


_numbers = (
    st.floats(allow_nan=True, allow_infinity=True)  # json writes NaN, Infinity, -Infinity
    | st.integers(-2, 2)
    | st.sampled_from([0.25, 0.5, 1.0, 10**20, int(sys.float_info.max), 2**1024, _HUGE, -_HUGE])
)
_leaves = _numbers | st.none() | st.booleans() | st.sampled_from(["", "0.5", "[]"])
_dims = st.lists(st.sampled_from([0, -1, 1, 2, 3, 4, 10**6, _HUGE]), max_size=3)
_cells = st.lists(_numbers, min_size=2, max_size=2) | st.lists(_leaves, max_size=3)
_matrices = st.one_of(
    [st.lists(st.lists(_cells, min_size=n, max_size=n), min_size=n, max_size=n) for n in range(5)]
    + [st.lists(st.lists(_cells, max_size=4), max_size=4)]  # ragged
)
_arbitrary = st.one_of(
    st.fixed_dictionaries({"dims": _dims | _leaves, "matrix": _matrices}),
    st.lists(st.lists(_numbers, max_size=4), max_size=4),  # tables and marginal rows, ragged too
    st.recursive(
        _leaves,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.sampled_from(["dims", "matrix"]), inner, max_size=2),
        max_leaves=12,
    ),
)
_MIXED = {"dims": [2, 2], "matrix": [[[0.25 * (i == j), 0.0] for j in range(4)] for i in range(4)]}
# each loader's argv, with well-formed documents it reads
_LOADERS = {
    ("infer", "--input"): [density_payload(qsc_computational(0.4, 0.05)), _MIXED],
    ("map-classical", "--mode", "rotate", "--input"): [_MIXED],
    ("map-classical", "--mode", "embed", "--input"): [[[0.1, 0.2], [0.3, 0.4]]],
    ("coupling", "--marginals"): [[[0.5, 0.5], [0.9, 0.1], [1.0, 0.0]]],
}


@st.composite
def _documents(draw, docs):
    """Half the time one of ``docs`` with up to two leaves, and maybe its dims,
    redrawn; else an arbitrary document."""
    if draw(st.booleans()):
        return draw(_arbitrary)
    doc = json.loads(json.dumps(draw(st.sampled_from(docs))))  # a deep copy
    if isinstance(doc, dict) and draw(st.integers(0, 3)) == 0:
        doc["dims"] = draw(_dims)
    for _ in range(draw(st.integers(0, 2))):
        node = doc["matrix"] if isinstance(doc, dict) else doc
        while isinstance(node, list):
            parent, i = node, draw(st.integers(0, len(node) - 1))
            node = node[i]
        parent[i] = draw(_numbers if draw(st.booleans()) else _leaves)
    return doc


_cases = st.one_of(
    [st.tuples(st.just(argv), _documents(docs)) for argv, docs in _LOADERS.items()]
)


@settings(max_examples=300)
@given(case=_cases)
@example(case=(("infer", "--input"), _HUGE_DENSITY))
def test_fuzz_loaders_through_main(tmp_path_factory, case):
    # every document gives exit 0, 2, 3 or 4, never an exception (a raw numpy
    # RuntimeWarning is one here), and a failure prints one error line
    argv, doc = case
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegeneracyWarning)
            code = main([*argv, str(path)])
    assert code in (0, 2, 3, 4)
    if code:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def _matrix_payload(mat) -> list:
    return [[[c.real, c.imag] for c in row] for row in mat]


def test_infer_overflowing_trace_is_one_error_line(tmp_path, capsys):
    huge = _matrix_payload(np.diag([1e308] * 4).astype(complex))
    path = _write_density(tmp_path, lambda payload: payload.update(matrix=huge))
    err = _single_error_line(capsys, ["infer", "--input", path])
    assert err == "error: TraceNotOne: trace residual inf exceeds 1.0e-09\n"


def test_infer_huge_hermitian_pair_is_not_psd(tmp_path, capsys):
    # eigenvalues +-1e308: finite, Hermitian, unit trace, not positive
    mat = np.diag([0.25] * 4).astype(complex)
    mat[0, 1], mat[1, 0] = 1e308j, -1e308j
    path = _write_density(tmp_path, lambda payload: payload.update(matrix=_matrix_payload(mat)))
    err = _single_error_line(capsys, ["infer", "--input", path])
    assert err == "error: NotPSD: minimum eigenvalue -1.000e+308 below -1.0e-09\n"


def test_infer_huge_anti_hermitian_pair_is_not_hermitian(tmp_path, capsys):
    # m - m^dagger overflows to inf at (0, 1) and (1, 0)
    mat = np.diag([0.25] * 4).astype(complex)
    mat[0, 1], mat[1, 0] = 1e308, -1e308
    path = _write_density(tmp_path, lambda payload: payload.update(matrix=_matrix_payload(mat)))
    err = _single_error_line(capsys, ["infer", "--input", path])
    assert err == "error: NotHermitian: hermiticity residual inf exceeds 1.0e-09\n"


def test_map_classical_embed_then_infer_round_trip(tmp_path, capsys):
    table = tmp_path / "table.json"
    table.write_text(json.dumps([[1 / 16, 3 / 16], [5 / 16, 7 / 16]]), encoding="utf-8")
    emitted = tmp_path / "embedded.json"
    assert main(
        ["map-classical", "--input", str(table), "--mode", "embed", "--out", str(emitted)]
    ) == 0
    rho = load_density_file(str(emitted))
    assert np.allclose(rho.mat, np.diag([1 / 16, 3 / 16, 5 / 16, 7 / 16]))
    assert main(["infer", "--input", str(emitted)]) == 0


def test_map_classical_rotate_diagonal_density(tmp_path, capsys, qsc_file):
    assert main(["map-classical", "--input", qsc_file, "--mode", "rotate"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "y0,y1"
    values = sorted(float(v) for line in lines[1:] for v in line.split(","))
    assert np.allclose(values, [0.02, 0.03, 0.38, 0.57], atol=1e-10)


def test_table_csv_round_trip_format():
    joint = JointDistribution.from_table([[0.25, 0.25], [0.25, 0.25]])
    csv = table_to_csv(joint)
    assert csv == "y0,y1\n0.25,0.25\n0.25,0.25\n"


def test_load_table_rejects_ragged(tmp_path):
    path = tmp_path / "ragged.json"
    path.write_text("[[0.5, 0.5], [1.0]]", encoding="utf-8")
    with pytest.raises(FileFormatError):
        load_table_file(str(path))


@pytest.mark.parametrize("text", ['[["0.5", 0.25], [0.0, 0.25]]', "[[true, 0.0], [0.0, 0.0]]"])
def test_embed_rejects_a_table_of_non_numbers(tmp_path, capsys, text):
    path = tmp_path / "table.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(FileFormatError, match="only numbers"):
        load_table_file(str(path))
    assert main(["map-classical", "--input", str(path), "--mode", "embed"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {path}: table rows must hold only numbers\n"


def test_demo_prints_numbered_trace(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert len(lines) == 25
    assert lines[0].startswith("step  1:")
    assert "0.9500" in lines[7] and "0.0500" in lines[7]
    assert "0.2864" in lines[11]
    assert "0.9268" in lines[17] and "0.0732" in lines[17]
    assert "0.4505" in lines[21]
    assert "1.2573" in lines[12]
    assert "1.4270" in lines[22]
    assert lines[24].endswith("A->B")


DEMO_GOLDEN = (
    "step  1: reduced density of A = [[0.4000, 0.0000]; [0.0000, 0.6000]]\n"
    "step  2: reduced density of B = [[0.4100, 0.0000]; [0.0000, 0.5900]]\n"
    "step  3: joint reordered to B-first = [[0.3800, 0.0000, 0.0000, 0.0000]; [0.0000, 0.0300, 0.0000, 0.0000]; [0.0000, 0.0000, 0.0200, 0.0000]; [0.0000, 0.0000, 0.0000, 0.5700]]\n"
    "step  4: eigendecomposition of reduced A: V = [[1.0000, 0.0000]; [0.0000, 1.0000]], D = diag([0.4000, 0.6000])\n"
    "step  5: loop over eigenbranches [0.4000, 0.6000]\n"
    "step  6: branch projectors: P0 = [[1.0000, 0.0000]; [0.0000, 0.0000]]; P1 = [[0.0000, 0.0000]; [0.0000, 1.0000]]\n"
    "step  7: unnormalized conditionals: N0 = [[0.3800, 0.0000]; [0.0000, 0.0200]]; N1 = [[0.0300, 0.0000]; [0.0000, 0.5700]]\n"
    "step  8: conditional densities: rho0 = [[0.9500, 0.0000]; [0.0000, 0.0500]]; rho1 = [[0.0500, 0.0000]; [0.0000, 0.9500]]\n"
    "step  9: conditional spectra: B0 = [0.0500, 0.9500]; B1 = [0.0500, 0.9500]\n"
    "step 10: marginal matrix M = [[0.0500, 0.9500]; [0.0500, 0.9500]]\n"
    "step 11: end of eigenbranch loop\n"
    "step 12: coupling entropy forward = 0.2864\n"
    "step 13: S(A->B) = 0.9710 + 0.2864 = 1.2573\n"
    "step 14: eigendecomposition of reduced B: V = [[1.0000, 0.0000]; [0.0000, 1.0000]], D = diag([0.4100, 0.5900])\n"
    "step 15: loop over eigenbranches [0.4100, 0.5900]\n"
    "step 16: branch projectors: P0 = [[1.0000, 0.0000]; [0.0000, 0.0000]]; P1 = [[0.0000, 0.0000]; [0.0000, 1.0000]]\n"
    "step 17: unnormalized conditionals: N0 = [[0.3800, 0.0000]; [0.0000, 0.0300]]; N1 = [[0.0200, 0.0000]; [0.0000, 0.5700]]\n"
    "step 18: conditional densities: rho0 = [[0.9268, 0.0000]; [0.0000, 0.0732]]; rho1 = [[0.0339, 0.0000]; [0.0000, 0.9661]]\n"
    "step 19: conditional spectra: B0 = [0.0732, 0.9268]; B1 = [0.0339, 0.9661]\n"
    "step 20: marginal matrix M = [[0.0732, 0.9268]; [0.0339, 0.9661]]\n"
    "step 21: end of eigenbranch loop\n"
    "step 22: coupling entropy backward = 0.4505\n"
    "step 23: S(A<-B) = 0.9765 + 0.4505 = 1.4270\n"
    "step 24: compare: S(A->B) = 1.2573 < S(A<-B) = 1.4270\n"
    "step 25: causal direction: A->B\n"
)


def test_demo_stdout_is_golden(capsys):
    assert main(["demo"]) == 0
    assert capsys.readouterr().out == DEMO_GOLDEN


# `qeci sweep --q 0.4 --p-start 0.05 --p-end 0.95 --steps 19` per channel, with
# the README amplitudes (1/sqrt(2) in full) for the depolarizing mixture
SWEEP_GOLDEN = {
    "qsc": """\
p,s_forward,s_backward,delta,direction
0.05,1.25734755157,1.42703254259,0.169684991018,A->B
0.1,1.43994618804,1.7158612599,0.275915071857,A->B
0.15,1.58079089917,1.93525924216,0.354468342985,A->B
0.2,1.69287868934,2.10721945946,0.414340770119,A->B
0.25,1.78222871891,2.24241369187,0.460184972954,A->B
0.3,1.85224149369,2.3470971551,0.494855661413,A->B
0.35,1.90501864983,2.4252488452,0.520230195372,A->B
0.4,1.94190118891,2.47946383836,0.537562649447,A->B
0.45,1.96372504844,2.32841867142,0.364693622974,A->B
0.5,1.97095059445,1.97095059445,2.22044604925e-16,Tie
0.55,1.96372504844,2.32841867142,0.364693622974,A->B
0.6,1.94190118891,2.47946383836,0.537562649447,A->B
0.65,1.90501864983,2.4252488452,0.520230195372,A->B
0.7,1.85224149369,2.3470971551,0.494855661413,A->B
0.75,1.78222871891,2.24241369187,0.460184972954,A->B
0.8,1.69287868934,2.10721945946,0.414340770119,A->B
0.85,1.58079089917,1.93525924216,0.354468342985,A->B
0.9,1.43994618804,1.7158612599,0.275915071857,A->B
0.95,1.25734755157,1.42703254259,0.169684991018,A->B
""",
    "gqsc": """\
p,s_forward,s_backward,delta,direction
0.05,1.25734755157,1.42703254259,0.169684991018,A->B
0.1,1.43994618804,1.7158612599,0.275915071857,A->B
0.15,1.58079089917,1.93525924216,0.354468342985,A->B
0.2,1.69287868934,2.10721945946,0.414340770119,A->B
0.25,1.78222871891,2.24241369187,0.460184972954,A->B
0.3,1.85224149369,2.3470971551,0.494855661413,A->B
0.35,1.90501864983,2.4252488452,0.520230195372,A->B
0.4,1.94190118891,2.47946383836,0.537562649447,A->B
0.45,1.96372504844,2.32841867142,0.364693622974,A->B
0.5,1.97095059445,1.97095059445,0,Tie
0.55,1.96372504844,2.32841867142,0.364693622974,A->B
0.6,1.94190118891,2.47946383836,0.537562649447,A->B
0.65,1.90501864983,2.4252488452,0.520230195372,A->B
0.7,1.85224149369,2.3470971551,0.494855661413,A->B
0.75,1.78222871891,2.24241369187,0.460184972954,A->B
0.8,1.69287868934,2.10721945946,0.414340770119,A->B
0.85,1.58079089917,1.93525924216,0.354468342985,A->B
0.9,1.43994618804,1.7158612599,0.275915071857,A->B
0.95,1.25734755157,1.42703254259,0.169684991018,A->B
""",
    "bitflip": """\
p,s_forward,s_backward,delta,direction
0.05,1.28639695712,1.28639695712,0,Tie
0.1,1.46899559359,1.46899559359,0,Tie
0.15,1.60984030472,1.60984030472,0,Tie
0.2,1.72192809489,1.72192809489,0,Tie
0.25,1.81127812446,1.81127812446,0,Tie
0.3,1.88129089923,1.88129089923,0,Tie
0.35,1.93406805538,1.93406805538,0,Tie
0.4,1.97095059445,1.97095059445,0,Tie
0.45,1.99277445399,1.99277445399,0,Tie
0.5,2,2,0,Tie
0.55,1.99277445399,1.99277445399,0,Tie
0.6,1.97095059445,1.97095059445,0,Tie
0.65,1.93406805538,1.93406805538,0,Tie
0.7,1.88129089923,1.88129089923,0,Tie
0.75,1.81127812446,1.81127812446,0,Tie
0.8,1.72192809489,1.72192809489,0,Tie
0.85,1.60984030472,1.60984030472,0,Tie
0.9,1.46899559359,1.46899559359,0,Tie
0.95,1.28639695712,1.28639695712,0,Tie
""",
    "depolarizing": """\
p,s_forward,s_backward,delta,direction
0.05,0.276319562407,0.277630866041,0.00131130363428,A->B
0.1,0.413123652638,0.413876104613,0.000752451974938,A->B
0.15,0.525159714472,0.525674404772,0.000514690299917,A->B
0.2,0.620036342674,0.620417649939,0.000381307265062,A->B
0.25,0.701489585796,0.701784501131,0.00029491533544,A->B
0.3,0.771734148475,0.771967882351,0.000233733875788,A->B
0.35,0.832221982482,0.832409618513,0.000187636030395,A->B
0.4,0.883964837947,0.884116083288,0.000151245341635,A->B
0.45,0.927695027285,0.927816446972,0.000121419687181,A->B
0.5,0.963954342534,0.964050519325,9.61767902294e-05,A->B
0.55,0.993146892678,0.99322106949,7.41768119134e-05,A->B
0.6,1.01557206792,1.01562651152,5.4443601146e-05,A->B
0.65,1.03144569468,1.03148188087,3.61861856408e-05,A->B
0.7,1.04091366908,1.0409322844,1.8615319052e-05,A->B
0.75,1.04406044183,1.04406044183,-4.4408920985e-16,Tie
0.8,1.04091366908,1.0409322844,1.86153190471e-05,A->B
0.85,1.03144569468,1.03148188087,3.61861856391e-05,A->B
0.9,1.01557206792,1.01562651152,5.44436011458e-05,A->B
0.95,0.993146892678,0.99322106949,7.41768119124e-05,A->B
""",
}
SWEEP_GRID = [line.split(",")[0] for line in SWEEP_GOLDEN["qsc"].splitlines()[1:]]
# (p, side) of each degeneracy warning line, in the order printed
SWEEP_WARNINGS = {
    "qsc": [("0.5", "B")],
    "gqsc": [("0.5", "B")],
    "bitflip": [(p, side) for p in SWEEP_GRID for side in "AB"],
    "depolarizing": [("0.75", "B")],
}


@pytest.mark.parametrize("channel", list(SWEEP_GOLDEN))
def test_sweep_output_is_golden(channel, capsys):
    argv = ["sweep", "--channel", channel, "--q", "0.4",
            "--p-start", "0.05", "--p-end", "0.95", "--steps", "19"]
    if channel == "depolarizing":
        argv += ["--gamma1", "0.6", "--lambda1", "0.8",
                 "--gamma2", "0.7071067811865476", "--lambda2", "0.7071067811865476"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    got = [line.split(",") for line in captured.out.splitlines()]
    want = [line.split(",") for line in SWEEP_GOLDEN[channel].splitlines()]
    assert len(got) == len(want) and got[0] == want[0]
    for row, golden in zip(got[1:], want[1:]):
        # p, both scores and the direction byte for byte; delta to rounding
        assert row[:3] + row[4:] == golden[:3] + golden[4:]
        assert abs(float(row[3]) - float(golden[3])) <= 1e-12
    assert captured.err == "".join(
        f"warning: p={p}: reduced density of side {side} has near-degenerate "
        "eigenvalues; the conditioning eigenbasis is not unique\n"
        for p, side in SWEEP_WARNINGS[channel]
    )
