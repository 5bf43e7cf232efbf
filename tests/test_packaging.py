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


def run_fresh(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter on ``src``."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"),
                                       os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    return out.stdout.strip()


@pytest.mark.parametrize("module", ["scipy", "sympy"])
def test_import_does_not_load_sparse_linalg(module):
    # no module of qrfkit imports scipy, not even KinOperator.exp's
    # non-diagonal path, which one composite_gauge apply takes here; ncalg
    # imports sympy only for sympy input, serialize and the HBAR symbol
    code = f"""if True:
        import sys
        import numpy as np
        import qrfkit.relobs, qrfkit.algstates
        from qrfkit import kinspace as ks, models as md, reduction_gauge as rg
        loaded = [{module!r} in sys.modules]
        model = md.build_model(md.ModelSpec("nparticle"))
        sp, fr = model.space, model.frames["A"]
        o1 = ks.factor_operator(sp, 2, np.diag(np.ones(7), 1)
                                + np.diag(np.ones(7), -1))
        comp = rg.composite_gauge(rg.theta_gauge(fr, fr.grid[1]), o1,
                                  ks.identity_operator(sp), model.constraint)
        comp.apply(np.ones(sp.dim))
        loaded.append({module!r} in sys.modules)
        print(loaded)
    """
    assert run_fresh(code) == "[False, False]"


def test_algebra_pipeline_does_not_load_sympy():
    # a lazy sympy import inside a pass would cost about 0.4 s there
    code = """if True:
        import sys
        from qrfkit import algstates as ast, models as md, ncalg
        from qrfkit import reduction_gauge as rg
        for spec, f_sys in ((md.ModelSpec("nparticle", lattice_size=8), "q_C"),
                            (md.ModelSpec("su2", lattice_size=8), "J_z")):
            model = md.build_model(spec)
            g = model.gens
            psi = md.gaussian_physical_state(model, centers_x={1: 0.5})
            fa, fb = model.frames["A"], model.frames["B"]
            rho_a, rho_b = fa.grid[2], fb.grid[5]

            def state(frame, rho):
                return ast.frame_state(model.space, model.constraint, frame,
                                       rho, psi, model.assignment, g, 4)

            om = state(fa, rho_a)
            om.value_table(4)
            ast.check_constraint_surface(om, model.constraint_elem)
            ast.check_frame_gauge(om, "q_A", rho_a)
            ast.verify_reference_frame(g, "q_A", model.constraint_elem, 4)
            ast.transform_frame(state(fb, rho_b), frame_a=("q_A", "p_A"),
                                rho_a=rho_a, frame_b=("q_B", "p_B"),
                                rho_b=rho_b, f=g.gen("q_B") * g.gen(f_sys),
                                g_s=model.g_s_elem("A"))
            rg.gauge_transform_state(om, rg.theta_gauge(fb, rho_b), model.Pi)
            s = g.zero()
            for k, name in enumerate(g.names):
                s = s + (k + 1) * g.gen(name)
            ncalg.adjoint(ncalg.multiply(s, s))
            ncalg.commutator(s, s * s)
            ncalg.from_weyl_basis(g, ncalg.to_weyl_basis(s * s))
            repr(s * s), repr(g.zero())
        print("sympy" in sys.modules)
    """
    assert run_fresh(code) == "False"


def test_ncalg_import_loads_neither_numpy_nor_kinspace():
    # the exact algebra imports only the standard library and its errors
    code = """if True:
        import sys
        import qrfkit.ncalg
        print(["numpy" in sys.modules, "qrfkit.kinspace" in sys.modules])
    """
    assert run_fresh(code) == "[False, False]"
