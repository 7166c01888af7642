"""The four benchmark workloads: seeded inputs, one op each, and output checks.

Each workload builds its inputs from the seed when constructed, runs op ``i``
on input ``i % n``, and checks an op's output against ``refcheck``. The
in-process workloads call qeci through module attributes looked up at call
time, so the span wrappers, when installed, see every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import subprocess
import sys

import numpy as np

import refcheck

HERE = os.path.dirname(os.path.abspath(__file__))
P_GRID = [round(0.05 * k, 2) for k in range(1, 20)]
INV_SQRT2 = 1.0 / math.sqrt(2.0)
# The README's depolarizing amplitudes, (0.6, 0.8) and (0.7071, 0.7071),
# with the second pair at full precision: 0.7071 fails the program's 1e-9
# normalization check.
DEPOLARIZING_AMPLITUDES = ((0.6, 0.8), (INV_SQRT2, INV_SQRT2))
SWEEP_Q = 0.4
ARROWS = {"A->B": "AtoB", "B->A": "BtoA", "Tie": "Tie"}


def ginibre_density(rng, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return m / np.trace(m).real


def verdict_dict(v) -> dict:
    return {key: getattr(v, key) for key in
            ("s_forward", "s_backward", "s_cause_fwd", "s_exo_fwd", "s_cause_bwd", "s_exo_bwd")}


class Workload:
    name = ""
    in_process = True  # ops run in this process; see measure.run_loop

    def __init__(self, seed: int, outdir: str):
        self.rng = np.random.default_rng(seed)
        self.outdir = outdir
        self._digest = hashlib.sha256()
        self._refs = {}
        self.build()

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    def record(self, *parts) -> None:
        for part in parts:
            data = part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode()
            self._digest.update(data)

    def reference(self, i: int):
        if i not in self._refs:
            self._refs[i] = self.make_reference(i)
        return self._refs[i]

    def warm_up(self) -> None:
        for i in range(min(self.n, 3)):
            self.op(i)

    def traced_op(self, tracer, op_id, i):
        return tracer.run_op(op_id, lambda: self.op(i))

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def probe_known_defects(self) -> list[dict]:
        return []


class PaperSweeps(Workload):
    """The four ChannelSpec families over the 19-point grid, in seeded order."""

    name = "paper_sweeps"

    def build(self):
        import qeci

        s = DEPOLARIZING_AMPLITUDES
        self.specs = {
            "qsc": qeci.ChannelSpec("qsc", q=SWEEP_Q),
            "gqsc": qeci.ChannelSpec("gqsc", q=SWEEP_Q),
            "bitflip": qeci.ChannelSpec("bitflip"),
            "depolarizing": qeci.ChannelSpec(
                "depolarizing", q=SWEEP_Q, gamma1=s[0][0], lambda1=s[0][1],
                gamma2=s[1][0], lambda2=s[1][1]),
        }
        points = [(kind, p) for kind in self.specs for p in P_GRID]
        self.items = [points[k] for k in self.rng.permutation(len(points))]
        self.n = len(self.items)
        self.record(self.items, self.specs)

    def op(self, i):
        import qeci

        kind, p = self.items[i % self.n]
        rho = self.specs[kind].joint(p)
        verdict = qeci.qeci_infer(rho)
        table = qeci.rotate_to_classical(rho)
        return rho.mat, verdict, qeci.classical_eci(table)

    def make_reference(self, i):
        kind, p = self.items[i]
        rho = refcheck.channel_joint(kind, SWEEP_Q, p, DEPOLARIZING_AMPLITUDES)
        return (rho, refcheck.quantum_scores(rho, 2, 2),
                refcheck.classical_scores(refcheck.rotated_table(rho, 2, 2)))

    def check(self, i, out):
        rho, verdict, classical = out
        ref_rho, ref_q, ref_c = self.reference(i % self.n)
        label = "%s p=%g" % self.items[i % self.n]
        if np.abs(rho - ref_rho).max() > refcheck.JOINT_TOL:
            return f"{label}: joint density differs from the reference channel"
        return (refcheck.compare(verdict_dict(verdict), ref_q, verdict.direction.value, label)
                or refcheck.compare(verdict_dict(classical), ref_c,
                                    classical.direction.value, label + " classical"))


class RandomQudits(Workload):
    """Ginibre joint densities of dimension 16 with dims (4,4), (2,8), (8,2)."""

    name = "random_qudits"
    DIMS = ((4, 4), (2, 8), (8, 2))
    SIZE = 12

    def build(self):
        self.items = [(ginibre_density(self.rng, 16), self.DIMS[k % 3]) for k in range(self.SIZE)]
        self.n = len(self.items)
        for mat, dims in self.items:
            self.record(mat, dims)

    def op(self, i):
        import qeci

        mat, dims = self.items[i % self.n]
        return qeci.qeci_infer(qeci.validate_density(mat, dims))

    def make_reference(self, i):
        mat, dims = self.items[i]
        return refcheck.quantum_scores(mat, *dims)

    def check(self, i, verdict):
        dims = self.items[i % self.n][1]
        return refcheck.compare(verdict_dict(verdict), self.reference(i % self.n),
                                verdict.direction.value, f"input {i % self.n} dims {dims}")


class ClassicalTables(Workload):
    """Dirichlet(1) tables of 4,096 cells shaped (64,64), (32,128), (128,32)."""

    name = "classical_tables"
    SHAPES = ((64, 64), (32, 128), (128, 32))
    # Op time follows the number of greedy placements, which differs between
    # tables (41-75 ms in one seed); 36 tables keep the per-seed mean steady.
    SIZE = 36

    def build(self):
        self.items = [self.rng.dirichlet(np.ones(4096)).reshape(self.SHAPES[k % 3])
                      for k in range(self.SIZE)]
        self.n = len(self.items)
        self.record(*self.items)

    def op(self, i):
        import qeci

        return qeci.classical_eci(qeci.JointDistribution.from_table(self.items[i % self.n]))

    def make_reference(self, i):
        return refcheck.classical_scores(self.items[i])

    def check(self, i, verdict):
        shape = self.items[i % self.n].shape
        return refcheck.compare(verdict_dict(verdict), self.reference(i % self.n),
                                verdict.direction.value, f"table {i % self.n} shape {shape}")


# -- the cli workload --------------------------------------------------------

def density_doc(mat, dims) -> dict:
    return {"dims": list(dims),
            "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in mat]}


def _error_exit(code: int, invariant: str | None = None):
    """Checker for a malformed input: the README exit code, a message, no traceback."""
    def check(rc, out, err):
        if rc != code:
            return f"exit {rc}, want {code}"
        if "Traceback" in err or not err.startswith("error:"):
            return f"stderr is not an error message: {err.strip()[-120:]!r}"
        if invariant and invariant not in err:
            return f"message does not name {invariant}"
        return None
    return check


class Cli(Workload):
    """One CLI child at a time over a fixed mix of cases.

    Timed ops run ``qeci.cli.main`` through cli_launch.py, which times the
    calibration passes in the child; the known-defect probes run the plain
    ``python -m qeci.cli`` entry point.
    """

    name = "cli"
    in_process = False

    def build(self):
        self.dir = os.path.join(self.outdir, "cli_inputs")
        os.makedirs(self.dir, exist_ok=True)
        rng = self.rng
        rho_2q = ginibre_density(rng, 4)
        rho_44 = ginibre_density(rng, 16)
        rho_24 = ginibre_density(rng, 8)
        rows = rng.dirichlet(np.ones(16), size=4)
        base = ginibre_density(rng, 4)
        non_herm = base.copy()
        non_herm[0, 1] += 0.01
        diag = rng.dirichlet(np.ones(4))
        diag[1] += diag[0] + 0.1
        diag[0] = -0.1
        one = np.ones((1, 1), dtype=complex)
        f = self.write
        self.cases = [
            ("infer_json_2q", ["infer", "--json", "--input",
                               f("infer_2q", density_doc(rho_2q, (2, 2)))],
             self.infer_checker(rho_2q, (2, 2))),
            ("infer_json_4x4", ["infer", "--json", "--input",
                                f("infer_4x4", density_doc(rho_44, (4, 4)))],
             self.infer_checker(rho_44, (4, 4))),
            ("sweep_qsc", ["sweep", "--channel", "qsc", "--q", str(SWEEP_Q), "--p-start",
                           "0.05", "--p-end", "0.95", "--steps", "19"], self.check_sweep),
            ("coupling", ["coupling", "--marginals", f("rows", rows.tolist())],
             self.coupling_checker(rows)),
            ("map_rotate", ["map-classical", "--mode", "rotate", "--input",
                            f("rotate_2x4", density_doc(rho_24, (2, 4)))],
             self.rotate_checker(rho_24, (2, 4))),
            ("demo", ["demo"], self.check_demo),
            ("bad_json", ["infer", "--input", f("bad", None, '{"dims": [2, 2], "matrix": [')],
             _error_exit(2)),
            ("non_hermitian", ["infer", "--input", f("non_herm", density_doc(non_herm, (2, 2)))],
             _error_exit(3, "NotHermitian")),
            ("trace_not_one", ["infer", "--input",
                               f("trace", density_doc(1.1 * base, (2, 2)))],
             _error_exit(3, "TraceNotOne")),
            ("not_psd", ["infer", "--input",
                         f("not_psd", density_doc(np.diag(diag).astype(complex), (2, 2)))],
             _error_exit(3, "NotPSD")),
        ]
        # Defects listed in ROADMAP item 4a. Each runs once per benchmark run,
        # after the timed loop, and is reported by name with its outcome.
        doc = density_doc(base, (2, 2))
        doc["dims"] = None
        extra = density_doc(base, (2, 2))
        extra["matrix"][0][0].append(0.0)
        bad_rows = rows.tolist()
        bad_rows[1][0] = "x"
        self.known_defects = [
            ("dims_null", ["infer", "--input", f("dims_null", doc)], _error_exit(2)),
            ("marginal_non_numeric", ["coupling", "--marginals", f("rows_str", bad_rows)],
             _error_exit(2)),
            ("cell_extra_component", ["infer", "--input", f("extra_cell", extra)],
             _error_exit(2)),
            ("dims_1x1_negative_zero", ["infer", "--input",
                                        f("one", density_doc(one, (1, 1)))],
             self.check_no_negative_zero),
        ]
        self.n = len(self.cases)
        self.max_child_rss_mb = 0.0
        self.record([argv for _, argv, _ in self.cases + self.known_defects])
        self.env = dict(os.environ)

    def write(self, stem, doc, text=None) -> str:
        path = os.path.join(self.dir, stem + ".json")
        data = text if text is not None else json.dumps(doc)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(data)
        self.record(stem, data)
        return os.path.relpath(path)

    def warm_up(self) -> None:
        self.op([name for name, _, _ in self.cases].index("demo"))

    # -- running one child -------------------------------------------------------

    def spawn(self, argv):
        """Run ``python -m qeci.cli`` once; return (exit code, stdout, stderr, peak RSS MB)."""
        return self._run([sys.executable, "-m", "qeci.cli", *argv])

    def _run(self, cmd):
        out_path = os.path.join(self.outdir, "child.out")
        err_path = os.path.join(self.outdir, "child.err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8") as out, open(err_path, encoding="utf-8") as err:
            return proc.returncode, out.read(), err.read(), usage.ru_maxrss / 1024.0

    def op(self, i, trace=False):
        """One CLI process through cli_launch.py; its launch record is the last item."""
        doc_path = os.path.join(self.outdir, "child_launch.json")
        if os.path.exists(doc_path):
            os.remove(doc_path)  # so a child that dies cannot pass off the last record
        cmd = [sys.executable, os.path.join(HERE, "cli_launch.py"), doc_path, str(int(trace)),
               *self.cases[i % self.n][1]]
        result = self._run(cmd)
        self.max_child_rss_mb = max(self.max_child_rss_mb, result[3])
        with open(doc_path, encoding="utf-8") as fh:
            return (*result, json.load(fh))

    @staticmethod
    def child_passes(out):
        return out[4]["calibration_s"]

    def traced_op(self, tracer, op_id, i):
        result = self.op(i, trace=True)
        tracer.merge_child(op_id, result[4])
        return result

    def check(self, i, out):
        rc, stdout, stderr, _, _ = out
        return self.cases[i % self.n][2](rc, stdout, stderr)

    def peak_rss_mb(self) -> float:
        """Largest peak resident memory of a CLI child run as an op."""
        return self.max_child_rss_mb

    def probe_known_defects(self) -> list[dict]:
        report = []
        for name, argv, check in self.known_defects:
            rc, stdout, stderr, _ = self.spawn(argv)
            problem = check(rc, stdout, stderr)
            report.append({"case": name, "exit": rc, "fails": problem is not None,
                           "problem": problem})
        return report

    # -- output checkers -----------------------------------------------------------

    @staticmethod
    def _ok_exit(rc, stderr):
        if rc != 0:
            return f"exit {rc}: {stderr.strip()[-200:]}"
        return None

    def infer_checker(self, mat, dims):
        def check(rc, out, err):
            if problem := self._ok_exit(rc, err):
                return problem
            got = json.loads(out)
            return refcheck.compare(got, refcheck.quantum_scores(mat, *dims),
                                    got["direction"], "infer --json")
        return check

    def check_sweep(self, rc, out, err):
        if problem := self._ok_exit(rc, err):
            return problem
        lines = out.strip().splitlines()
        if lines[0] != "p,s_forward,s_backward,delta,direction" or len(lines) != 20:
            return f"unexpected sweep CSV layout: {lines[:2]}"
        for line in lines[1:]:
            p, fwd, bwd, _, arrow = line.split(",")
            ref = refcheck.quantum_scores(refcheck.channel_joint("qsc", SWEEP_Q, float(p)), 2, 2)
            want = {"s_forward": ref["s_forward"], "s_backward": ref["s_backward"]}
            got = {"s_forward": float(fwd), "s_backward": float(bwd)}
            if problem := refcheck.compare(got, want, ARROWS.get(arrow, arrow), f"sweep p={p}"):
                return problem
        return None

    def coupling_checker(self, rows):
        want, count = refcheck.greedy_coupling(rows)

        def check(rc, out, err):
            if problem := self._ok_exit(rc, err):
                return problem
            lines = out.strip().splitlines()
            masses = [float(line.split()[1]) for line in lines[:-1]]
            got = refcheck.entropy_bits(masses)
            if len(masses) != count or abs(got - want) > refcheck.ENTROPY_TOL:
                return f"coupling: {len(masses)} placements, {got!r} bits; reference {count}, {want!r}"
            if abs(float(lines[-1].rsplit(":", 1)[1]) - want) > 5e-5 + refcheck.ENTROPY_TOL:
                return f"coupling summary line {lines[-1]!r}, reference {want!r}"
            return None
        return check

    def rotate_checker(self, mat, dims):
        want = refcheck.rotated_table(mat, *dims)

        def check(rc, out, err):
            if problem := self._ok_exit(rc, err):
                return problem
            got = np.array([[float(x) for x in line.split(",")]
                            for line in out.strip().splitlines()[1:]])
            if got.shape != want.shape or np.abs(got - want).max() > 1e-9:
                return "map-classical rotate table differs from the reference"
            return None
        return check

    def check_demo(self, rc, out, err):
        if problem := self._ok_exit(rc, err):
            return problem
        ref = refcheck.quantum_scores(refcheck.channel_joint("qsc", 0.4, 0.05), 2, 2)
        for want in (f"= {ref['s_forward']:.4f}", f"= {ref['s_backward']:.4f}",
                     "causal direction: A->B"):
            if want not in out:
                return f"demo output lacks {want!r}"
        return None

    def check_no_negative_zero(self, rc, out, err):
        if problem := self._ok_exit(rc, err):
            return problem
        if "-0.0000" in out:
            return f"prints negative zero: {out.strip()!r}"
        return None


WORKLOADS = {w.name: w for w in (PaperSweeps, RandomQudits, ClassicalTables, Cli)}
