"""Command-line surface: infer, sweep, coupling, map-classical, demo."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings

import numpy as np

from .causal import CausalVerdict, CauseSide, _cause_sides, _score, qeci_infer
from .channels import ChannelSpec, _check_prob, qsc_computational
from .classicalmap import diag_embed, rotate_to_classical
from .coupling import greedy_min_entropy_coupling
from .density import DEFAULT_TOL, DensityMatrix
from .fileio import (
    FileFormatError,
    dump_density,
    load_density_file,
    load_marginal_rows,
    load_table_file,
    table_to_csv,
)
from .linalg import EigenConvergenceError, swap_subsystems


def _resolve_tol(args) -> float:
    """--tol, else QECI_TOL, else DEFAULT_TOL; a finite number >= 0 or FileFormatError."""
    tol, source = args.tol, "--tol"
    if tol is None:
        raw, source = os.environ.get("QECI_TOL"), "QECI_TOL"
        if raw is None:
            return DEFAULT_TOL
        try:
            tol = float(raw)
        except ValueError as exc:
            raise FileFormatError(f"QECI_TOL is not a number: {raw!r}") from exc
    if not 0.0 <= tol < math.inf:  # nan fails too
        raise FileFormatError(f"{source} must be a finite number >= 0, got {tol}")
    return tol


def _write_text(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _verdict_json(verdict: CausalVerdict) -> str:
    return json.dumps(
        {
            "direction": verdict.direction.value,
            "s_forward": verdict.s_forward,
            "s_backward": verdict.s_backward,
            "s_cause_fwd": verdict.s_cause_fwd,
            "s_exo_fwd": verdict.s_exo_fwd,
            "s_cause_bwd": verdict.s_cause_bwd,
            "s_exo_bwd": verdict.s_exo_bwd,
        }
    )


def _load_bipartite(args, use: str) -> DensityMatrix:
    rho = load_density_file(args.input, _resolve_tol(args))
    if len(rho.dims) != 2:
        raise FileFormatError(
            f"{args.input}: {use} needs exactly two subsystem dims, got {rho.dims}"
        )
    return rho


def cmd_infer(args) -> int:
    verdict = qeci_infer(_load_bipartite(args, "inference"))
    if args.json:
        print(_verdict_json(verdict))
    else:
        print(
            f"{verdict.direction.arrow}  "
            f"S(A->B)={verdict.s_forward:.4f}  S(A<-B)={verdict.s_backward:.4f}"
        )
    return 0


def _p_grid(start: float, end: float, steps: int) -> list[float]:
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if steps == 1:
        return [start]
    return [start + k * (end - start) / (steps - 1) for k in range(steps)]


def cmd_sweep(args) -> int:
    try:
        spec = ChannelSpec(
            kind=args.channel,
            q=args.q,
            gamma1=args.gamma1,
            lambda1=args.lambda1,
            gamma2=args.gamma2,
            lambda2=args.lambda2,
        )
        grid = _p_grid(
            _check_prob(args.p_start, "--p-start"), _check_prob(args.p_end, "--p-end"), args.steps
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    lines = ["p,s_forward,s_backward,delta,direction"]
    for p in sorted(grid):
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                verdict = qeci_infer(spec.joint(p))
        except (ValueError, EigenConvergenceError) as exc:
            print(f"warning: p={p:.10g} failed: {exc}", file=sys.stderr)
            lines.append(f"{p:.10g},nan,nan,nan,error")
            continue
        finally:
            for w in caught:
                print(f"warning: p={p:.10g}: {w.message}", file=sys.stderr)
        direction = verdict.direction.arrow
        if p in (0.0, 1.0):
            # direction is formally undecidable at the symmetric endpoints
            direction += "*"
        delta = verdict.s_backward - verdict.s_forward
        lines.append(
            f"{p:.10g},{verdict.s_forward:.12g},{verdict.s_backward:.12g},"
            f"{delta:.12g},{direction}"
        )
    _write_text("\n".join(lines) + "\n", args.out)
    return 0


def cmd_coupling(args) -> int:
    result = greedy_min_entropy_coupling(load_marginal_rows(args.marginals))
    for placement in result.placements:
        coords = ", ".join(str(i) for i in placement.coords)
        print(f"mass {placement.mass:.12g} at ({coords})")
    print(f"coupling entropy (bits): {result.entropy_bits:.4f}")
    return 0


def cmd_map_classical(args) -> int:
    if args.mode == "embed":
        text = dump_density(diag_embed(load_table_file(args.input))) + "\n"
    else:
        text = table_to_csv(rotate_to_classical(_load_bipartite(args, "rotation")))
    _write_text(text, args.out)
    return 0


def _fmt_val(z: complex) -> str:
    if abs(z.imag) < 5e-5:
        return f"{z.real:.4f}"
    return f"{z.real:.4f}{z.imag:+.4f}i"


def _fmt_mat(mat: np.ndarray) -> str:
    rows = ["[" + ", ".join(_fmt_val(z) for z in row) + "]" for row in np.atleast_2d(mat)]
    return "[" + "; ".join(rows) + "]"


def _fmt_vec(values) -> str:
    return "[" + ", ".join(f"{float(v):.4f}" for v in values) + "]"


def _branch_steps(label: str, side: CauseSide) -> list[str]:
    """Walkthrough of one direction's branches, in ascending eigenvalue order."""
    eig = side.reduced.eig
    kets = side.kets[:, ::-1].T
    weights = side.weights[::-1]
    blocks = side.blocks[::-1]
    spectra = side.rows.rows[::-1, ::-1]

    def listed(symbol, items, fmt) -> str:
        return "; ".join(f"{symbol}{i} = {fmt(item)}" for i, item in enumerate(items))

    return [
        f"eigendecomposition of reduced {label}: V = {_fmt_mat(eig.eigenvectors[:, ::-1])}, "
        f"D = diag({_fmt_vec(eig.eigenvalues[::-1])})",
        "loop over eigenbranches " + _fmt_vec(weights),
        "branch projectors: " + listed("P", [np.outer(k, k.conj()) for k in kets], _fmt_mat),
        "unnormalized conditionals: " + listed("N", blocks, _fmt_mat),
        "conditional densities: " + listed("rho", blocks / weights[:, None, None], _fmt_mat),
        "conditional spectra: " + listed("B", spectra, _fmt_vec),
        "marginal matrix M = [" + "; ".join(_fmt_vec(s) for s in spectra) + "]",
        "end of eigenbranch loop",
    ]


def cmd_demo(args) -> int:
    rho = qsc_computational(0.4, 0.05)
    fwd, bwd = _cause_sides(rho)
    v = _score(fwd, bwd)
    steps = [
        f"reduced density of A = {_fmt_mat(fwd.reduced.mat)}",
        f"reduced density of B = {_fmt_mat(bwd.reduced.mat)}",
        f"joint reordered to B-first = {_fmt_mat(swap_subsystems(rho.mat, *rho.dims))}",
        *_branch_steps("A", fwd),
        f"coupling entropy forward = {v.s_exo_fwd:.4f}",
        f"S(A->B) = {v.s_cause_fwd:.4f} + {v.s_exo_fwd:.4f} = {v.s_forward:.4f}",
        *_branch_steps("B", bwd),
        f"coupling entropy backward = {v.s_exo_bwd:.4f}",
        f"S(A<-B) = {v.s_cause_bwd:.4f} + {v.s_exo_bwd:.4f} = {v.s_backward:.4f}",
        f"compare: S(A->B) = {v.s_forward:.4f} {'<' if v.s_forward < v.s_backward else '>='} "
        f"S(A<-B) = {v.s_backward:.4f}",
        f"causal direction: {v.direction.arrow}",
    ]
    print("\n".join(f"step {n:2d}: {text}" for n, text in enumerate(steps, 1)))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qeci",
        description="Causal direction inference for bipartite quantum states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_infer = sub.add_parser("infer", help="infer causal direction from a density file")
    p_infer.add_argument("--input", required=True, help="density file (JSON)")
    p_infer.add_argument("--tol", type=float, default=None, help="validation tolerance")
    p_infer.add_argument("--json", action="store_true", help="machine-readable output")
    p_infer.set_defaults(func=cmd_infer)

    p_sweep = sub.add_parser("sweep", help="sweep a channel's error probability")
    p_sweep.add_argument("--channel", required=True, choices=ChannelSpec.KINDS)
    p_sweep.add_argument("--q", type=float, default=0.5)
    p_sweep.add_argument("--p-start", type=float, required=True)
    p_sweep.add_argument("--p-end", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True, help="number of grid points")
    p_sweep.add_argument("--gamma1", type=float, default=None)
    p_sweep.add_argument("--lambda1", type=float, default=None)
    p_sweep.add_argument("--gamma2", type=float, default=None)
    p_sweep.add_argument("--lambda2", type=float, default=None)
    p_sweep.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_coupling = sub.add_parser("coupling", help="solve a standalone coupling")
    p_coupling.add_argument("--marginals", required=True, help="JSON file of probability rows")
    p_coupling.set_defaults(func=cmd_coupling)

    p_map = sub.add_parser("map-classical", help="convert between tables and densities")
    p_map.add_argument("--input", required=True)
    p_map.add_argument("--mode", required=True, choices=("rotate", "embed"))
    p_map.add_argument("--tol", type=float, default=None)
    p_map.add_argument("--out", default=None)
    p_map.set_defaults(func=cmd_map_classical)

    p_demo = sub.add_parser("demo", help="replay the worked bit-flip channel example")
    p_demo.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except EigenConvergenceError as exc:
        print(f"error: numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
