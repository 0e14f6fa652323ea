"""The package imports only the standard library, numpy and itself, only
fluctuation.py reads a covariance tensor, and no code that runs on a
forward.step_results worker multiplies by a transposed operand.

pyproject declares ``dependencies = ["numpy>=2.0"]``; scipy and
hypothesis are test-only, so no module under src/vpmerge may import them.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "vpmerge"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "vpmerge"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_or_vpmerge(path):
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:  # level > 0: vpmerge itself
            names.append(node.module)
    assert {name.split(".")[0] for name in names} <= ALLOWED, names


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "fluctuation.py"),
                         ids=lambda p: p.name)
def test_only_fluctuation_reads_a_tensor(path):
    # ConditionalMoments' statistics (lambda_max, tr S, ||S||_F^2, <S_a, S_b>)
    # are the only reads of a covariance tensor, so how they are computed
    # stays inside fluctuation.py
    reads = [node.lineno for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Attribute) and node.attr == "tensor"]
    assert reads == [], reads


# The functions whose code runs on forward.step_results' worker threads, by
# module: the probe's fits and snapshots, and the battery's snapshots and views.
POOL_WORKER_CODE = {
    "probe.py": ("train_linear_probe", "probe_through_time"),
    "convergence.py": ("_view_moments",),
    "forward.py": ("TrajectorySweep.snapshot",),
}


def _functions(tree, prefix=""):
    """{qualified name: def node} of the functions and methods in tree."""
    found = {}
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            name = prefix + node.name
            if isinstance(node, ast.FunctionDef):
                found[name] = node
            found.update(_functions(node, name + "."))
    return found


@pytest.mark.parametrize("module", sorted(POOL_WORKER_CODE))
def test_no_transposed_matmul_on_a_pool_worker(module):
    # numpy's matmul holds the GIL for the whole BLAS call when a transposed
    # operand meets a vector: a pure-Python loop ran 1.98-2.03x slower beside a
    # thread looping x.T @ r on the probe's 1120 x 289 design, and 1.0-1.1x
    # beside np.dot(r, x), the same dgemv bit for bit.  Matrix-matrix products
    # release it (x.T @ x 1.00-1.01x, x.T @ B 1.01-1.04x), but this scan bans
    # every transposed operand, as it cannot tell a vector from a matrix.  One
    # matrix-vector product makes the pool's workers take turns instead of
    # overlapping.
    funcs = _functions(ast.parse((SRC / module).read_text(), filename=module))
    missing = [name for name in POOL_WORKER_CODE[module] if name not in funcs]
    assert missing == [], f"{module} no longer defines {missing}: update POOL_WORKER_CODE"

    def transposed(node):
        return isinstance(node, ast.Attribute) and node.attr == "T"

    hits = []
    for name in POOL_WORKER_CODE[module]:
        for node in ast.walk(funcs[name]):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                operands = [node.left, node.right]
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "matmul":
                operands = node.args
            else:
                continue
            if any(transposed(op) for op in operands):
                hits.append(f"{name} line {node.lineno}")
    assert hits == [], hits
