"""Every entry point and package-data glob in pyproject.toml must exist."""

import importlib
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
