"""Design invariants read from the source: only ``kinspace`` knows how a
KinOperator is stored."""

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
