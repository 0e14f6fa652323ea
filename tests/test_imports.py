"""The package imports only the standard library, numpy and itself, and only
fluctuation.py reads a covariance tensor.

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
