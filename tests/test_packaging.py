"""Every entry point and package-data glob in pyproject.toml must exist,
and importing the package stays free of optional heavy imports."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def pyproject():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)


def test_script_targets_import_to_callables(pyproject):
    for name, target in pyproject["project"].get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"script {name!r} -> {target!r} is not callable"


def test_package_data_globs_match_files(pyproject):
    setuptools = pyproject.get("tool", {}).get("setuptools", {})
    where = setuptools.get("packages", {}).get("find", {}).get("where", ["."])
    for package, globs in setuptools.get("package-data", {}).items():
        roots = [ROOT / w / package.replace(".", "/") for w in where]
        for pattern in globs:
            assert any(any(r.glob(pattern)) for r in roots), (
                f"package-data {package!r}: {pattern!r} matches no file")


@pytest.mark.parametrize("module", ["scipy.sparse.linalg", "scipy.linalg"])
def test_import_does_not_load_sparse_linalg(module):
    # gauge_flow imports scipy.sparse.linalg only on its non-diagonal path,
    # composite_gauge scipy.linalg only when called
    code = ("import sys; import qrfkit.models, qrfkit.relobs, "
            "qrfkit.reduction_gauge, qrfkit.algstates; "
            f"print({module!r} in sys.modules)")
    path = os.pathsep.join(p for p in (str(ROOT / "src"),
                                       os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "False"
