"""Checks that keep the repository's tooling and docs in step with the package.

The benchmark's span tracer (perfbench/spans.py) wraps qeci functions by
name, so each name it lists must resolve on the package; the README's
library example must run as written; the package imports nothing beyond
numpy and the standard library, and every name it exports resolves. LAPACK's
kernels, the Hermitian part, the construction of a DensityMatrix, the
PSD rule's NotPSD, the bipartite rule, the stack-or-alone choice of the
verdict pass, its DegeneracyWarning, the CLI's verdict pass, the terms of a
verdict's scores, the conditioning floor's ZeroProbabilityCondition, the range
rule of a tolerance argument and the tolerances are each written at one site."""

import ast
import contextlib
import importlib
import importlib.util
import io
import re
import sys
from pathlib import Path

import qeci

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
PACKAGE = ROOT / "src" / "qeci"


def _load_spans():
    # spans.py imports only the standard library
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    for module_name, attr in _load_spans().TRACED:
        target = importlib.import_module(module_name)
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), f"{module_name}.{attr}"


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue().splitlines()[-1] == "Direction.A_TO_B"


def test_package_imports_only_numpy_and_the_standard_library():
    allowed = sys.stdlib_module_names | {"numpy", "qeci"}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:  # a relative import stays inside qeci
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name} imports {name}"


def test_every_exported_name_resolves():
    missing = [name for name in qeci.__all__ if not hasattr(qeci, name)]
    assert not missing, missing


def _sites(predicate):
    """(module, innermost enclosing function or None) of each src/qeci node ``predicate`` takes."""
    found = []

    def visit(node, module, function):
        if predicate(node):
            found.append((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, module, child.name if isinstance(child, ast.FunctionDef) else function)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, None)
    return found


def _identifier(node):
    """The name a Name, an Attribute or an imported alias ends in, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rsplit(".", 1)[-1]
    return None


def test_lapack_is_called_and_its_failures_mapped_in_linalg_only():
    # numpy's LAPACK kernels are imported once, at linalg's top level under an
    # import guard, and looked up and called in _lapack_eigh (the eigensolvers)
    # and _positive_definite (Cholesky) alone; numpy's linalg wrappers, their
    # fallback on a numpy without a kernel, and the LinAlgError they raise are
    # named in those two functions too, and nowhere else
    kernels = ("_umath_linalg", "eigh_lo", "eigvalsh_lo", "cholesky_lo")

    def names_a_kernel(node):
        constant = isinstance(node, ast.Constant) and node.value in kernels
        return constant or _identifier(node) in kernels

    sites = _sites(names_a_kernel)
    allowed = {("linalg.py", "_lapack_eigh"), ("linalg.py", "_positive_definite")}
    assert {site for site in sites if site[1] is not None} == allowed, sites
    assert {site for site in sites if site[1] is None} == {("linalg.py", None)}, sites
    wrappers = ("eigh", "eigvalsh", "cholesky", "LinAlgError")
    assert set(_sites(lambda node: _identifier(node) in wrappers)) == allowed


def test_the_hermitian_part_is_written_once():
    # a product by 0.5 over a conjugate: 0.5 * a + 0.5 * a.conj().T, 0.5 * (a + a^dagger)
    def halved_conjugate(node):
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)):
            return False
        parts = list(ast.walk(node))
        has_half = any(isinstance(n, ast.Constant) and n.value == 0.5 for n in parts)
        return has_half and any(isinstance(n, ast.Attribute) and n.attr == "conj" for n in parts)

    assert set(_sites(halved_conjugate)) == {("linalg.py", "_hermitian_part")}


def test_every_entropy_is_computed_at_one_site():
    # von Neumann, Shannon, coupling and classical-marginal entropies all go
    # through coupling._entropy_bits, so one floor rule and one summation order
    assert _sites(lambda node: _identifier(node) == "log2") == [("coupling.py", "_entropy_bits")]


def test_a_density_is_built_at_one_site():
    def constructs_density(node):
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "DensityMatrix"
        )

    assert _sites(constructs_density) == [("density.py", "_wrap")]


def test_the_psd_rule_raises_at_one_site():
    def raises_not_psd(node):
        if not isinstance(node, ast.Raise) or node.exc is None:
            return False
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == "NotPSD"

    assert len(_sites(raises_not_psd)) == 1, _sites(raises_not_psd)


def test_the_bipartite_rule_raises_at_one_site():
    def bipartite_message(node):
        text = node.value if isinstance(node, ast.Constant) else None
        return isinstance(text, str) and text.startswith("need a bipartite density")

    assert _sites(bipartite_message) == [("density.py", "_joint_dims")]


def test_stack_or_alone_is_decided_at_one_site():
    # a comparison of two .shape attributes decides whether sides share one
    # kernel call; the verdict pass makes that choice in causal._by_side alone
    def compares_shapes(node):
        if not isinstance(node, ast.Compare):
            return False
        operands = [node.left, *node.comparators]
        return all(isinstance(n, ast.Attribute) and n.attr == "shape" for n in operands)

    assert _sites(compares_shapes) == [("causal.py", "_by_side")]


def test_a_degeneracy_warns_at_one_site_and_nothing_intercepts_warnings():
    # every verdict pass hands its record to causal._warned, the one warning
    # site, at one fixed stacklevel; the package records or filters no warning
    def warns_degeneracy(node):
        return (
            isinstance(node, ast.Call)
            and _identifier(node.func) == "warn"
            and any(_identifier(arg) == "DegeneracyWarning" for arg in node.args)
        )

    assert _sites(warns_degeneracy) == [("causal.py", "_warned")]
    intercepts = ("catch_warnings", "simplefilter")
    assert _sites(lambda node: _identifier(node) in intercepts) == []
    stacklevels = _sites(lambda node: isinstance(node, ast.keyword) and node.arg == "stacklevel")
    assert stacklevels == [("causal.py", "_warned")]


def test_every_cli_command_reads_one_verdict_pass():
    # the CLI builds each pass in cli._passed, which prints the degenerate sides itself,
    # and names no public verdict function, so no command reaches causal._warned
    def in_cli(predicate):
        return [function for module, function in _sites(predicate) if module == "cli.py"]

    def calls_reduced(node):
        return isinstance(node, ast.Call) and _identifier(node.func) == "_reduced"

    public = ("qeci_infer", "conditional_spectra", "rotate_to_classical")
    assert in_cli(calls_reduced) == ["_passed"]
    assert in_cli(lambda node: _identifier(node) in public) == []


def test_both_terms_of_every_score_are_computed_in_causal_verdict():
    # every direction, of a density or of a table, hands causal._verdict its cause
    # distribution and conditional rows; the cause entropy and the coupled entropy
    # are named nowhere else in causal.py but its imports
    def in_causal(predicate):
        return [function for module, function in _sites(predicate) if module == "causal.py"]

    def names_a_term(node):  # an imported alias is no use of the name
        terms = ("_entropy_bits", "greedy_min_entropy_coupling")
        return isinstance(node, (ast.Name, ast.Attribute)) and _identifier(node) in terms

    assert in_causal(names_a_term) == ["_verdict", "_verdict"]
    assert in_causal(lambda node: _identifier(node) == "von_neumann_entropy") == []


def test_the_conditioning_floor_and_the_tolerance_range_are_each_written_once():
    # the verdict pass keeps a branch by its eigenvalue alone; only an outside
    # ket, in instance_conditional, is held to the floor on its probability
    def raises_zero_probability(node):
        if not isinstance(node, ast.Raise) or node.exc is None:
            return False
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == "ZeroProbabilityCondition"

    def range_message(node):
        text = node.value if isinstance(node, ast.Constant) else None
        return isinstance(text, str) and "must be a finite number >= 0" in text

    assert _sites(raises_zero_probability) == [("density.py", "instance_conditional")]
    assert _sites(range_message) == [("linalg.py", "_require_tolerance")]


def _is_float_literal(node) -> bool:
    try:
        return isinstance(ast.literal_eval(node), float)
    except (ValueError, TypeError, SyntaxError):
        return False


def test_the_tolerances_are_bound_at_one_site():
    # every module-level name bound to a float literal is one of linalg's five
    bound = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if _is_float_literal(node.value):
                    bound += [(path.name, ast.unparse(target)) for target in targets]
    tolerances = ("DEFAULT_TOL", "PROB_FLOOR", "TRACE_ROUNDING", "TIE_TOL", "DEGENERACY_GAP")
    assert sorted(bound) == sorted(("linalg.py", name) for name in tolerances), bound
