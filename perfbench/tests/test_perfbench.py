"""Tests of the benchmark itself: reference, tracing counts, tail rule, names.

Run from the repository root: python -m pytest perfbench/tests
"""

import json
import os
import random
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [BENCH, SRC]

import measure  # noqa: E402
import refcheck  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_reference_reproduces_worked_example():
    # qsc_computational(0.4, 0.05): |00>,|11> at 0.4/0.6, second qubit flipped at 5%.
    rho = np.diag([0.38, 0.02, 0.03, 0.57]).astype(complex)
    scores = refcheck.quantum_scores(rho, 2, 2)
    assert scores["s_forward"] == pytest.approx(1.257347551570625, abs=1e-12)
    assert scores["s_backward"] == pytest.approx(1.4270325425889727, abs=1e-12)
    assert refcheck.expected_direction(scores) == "AtoB"


def test_reference_channels_match_program():
    import qeci

    amps = workloads.DEPOLARIZING_AMPLITUDES
    for kind in ("qsc", "gqsc", "bitflip", "depolarizing"):
        spec = qeci.ChannelSpec(kind, q=0.3, gamma1=amps[0][0], lambda1=amps[0][1],
                                gamma2=amps[1][0], lambda2=amps[1][1])
        for p in (0.05, 0.5, 0.75, 0.95):
            want = refcheck.channel_joint(kind, 0.3, p, amps)
            assert np.abs(spec.joint(p).mat - want).max() <= refcheck.JOINT_TOL


def _traced_counts(name, seed, outdir, passes):
    workload = workloads.WORKLOADS[name](seed, outdir)
    tracer = spans.Tracer()
    tracer.install()
    try:
        first = 0
        for _ in range(passes):
            ops = measure.run_loop(workload, 0, tracer, first)
            first += len(ops)
            assert not measure.failures(ops)
    finally:
        tracer.uninstall()
    metrics = tracer.per_layer(0.0)
    return {k: m["value"] for k, m in metrics.items()
            if k.endswith((".calls", ".n3", ".repeat_frac", ".placements", "_warnings"))}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(name, tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", SRC)
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    one = _traced_counts(name, 7, str(tmp_path), passes=1)
    two = _traced_counts(name, 7, str(tmp_path), passes=2)
    assert one == two
    assert one["linalg.hermitian_eig.calls"] > 0 or name == "classical_tables"


def test_uninstall_restores_every_binding():
    import qeci.cli

    def bindings():
        return {(name, attr): value for name, m in sys.modules.items()
                if name == "qeci" or name.startswith("qeci.")
                for attr, value in vars(m).items() if callable(value)}

    before = bindings()
    from_rows = qeci.coupling.MarginalSet.__dict__["from_rows"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for name in ("qeci.linalg", "qeci.density", "qeci.causal", "qeci.classicalmap", "qeci.cli"):
            assert sys.modules[name].hermitian_eig is not before[(name, "hermitian_eig")]
    finally:
        tracer.uninstall()
    assert bindings() == before
    assert qeci.coupling.MarginalSet.__dict__["from_rows"] is from_rows


def test_self_time_subtracts_union_of_children():
    tracer = spans.Tracer()
    tracer.spans = [
        (1, 0, 0, "child", 10, 30),
        (2, 0, 0, "child", 20, 40),
        (0, None, 0, "parent", 0, 100),
    ]
    assert tracer.layer_totals() == {"parent": (1, 70), "child": (2, 40)}


@pytest.mark.parametrize("n", [11, 12, 19, 20, 39, 40, 41, 199, 200, 201, 999, 1000, 5000])
def test_tail_rule_leaves_ten_samples_beyond(n):
    xs = list(range(n))
    random.Random(n).shuffle(xs)
    pct, value, beyond = measure.tail_percentile(xs)
    assert beyond >= measure.TAIL_BEYOND
    assert sum(x > value for x in xs) == beyond
    higher = [t for t in measure.TAIL_LADDER if t > pct * 10]
    if higher:  # the next percentile up would leave fewer than ten beyond
        rank = -(-min(higher) * n // 1000)
        assert n - rank < measure.TAIL_BEYOND


def test_reported_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ops = [(i, 0.001 * (i + 1), None, 1.0) for i in range(20)]
    metrics, _ = measure.end_to_end(ops, 5, 0.5, 40.0)
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == {
        (k, v["unit"]) for k, v in metrics.items()}
    layers = spans.Tracer().per_layer(0.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (k, v["unit"]) for k, v in layers.items()]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_end_to_end_uses_scaled_times():
    ops = [(i, 0.002, None, 0.5) for i in range(40)]
    metrics, details = measure.end_to_end(ops, 4, 0.5, 40.0)
    assert metrics["ops_per_s"]["value"] == pytest.approx(1000.0)
    assert metrics["op_p50_ms"]["value"] == pytest.approx(1.0)
    assert details["unscaled_ops_per_s"] == pytest.approx(500.0)


def test_calibration_never_imports_qeci():
    import ast

    import calibrate

    with open(calibrate.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not any(m.split(".")[0] == "qeci" for m in modules)
    assert calibrate.seconds() > 0
