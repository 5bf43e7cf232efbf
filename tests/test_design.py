"""Design invariants read from the source: only ``kinspace`` knows how a
KinOperator is stored, and no module takes a dense eigendecomposition."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qrfkit"
# the fields that hold a KinOperator's stored form (the public ``diag`` and
# ``factor`` also name a form, but other modules read them as values)
STORED_FORM = {"_matrix", "local", "operands", "classes", "scalar"}


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "kinspace.py"),
                         ids=lambda p: p.name)
def test_only_kinspace_reads_the_stored_form(path):
    reads = [f"{path.name}:{node.lineno} .{node.attr}"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr in STORED_FORM]
    assert not reads, reads


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_calls_eigh(path):
    # every constraint, G_S and Pi is diagonal: no D x D eigh is needed
    # (the small Gram matrix in algstates takes eigvalsh, which is allowed)
    calls = [f"{path.name}:{node.lineno}"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None))
             == "eigh"]
    assert not calls, calls
