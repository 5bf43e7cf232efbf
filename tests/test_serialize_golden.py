"""``AlgebraElement.serialize`` text of a fixed set of elements, byte for byte
against ``serialize_golden.json``.

The set covers random products, adjoints and Weyl symmetrizations with
rational, complex-integer, hbar-dependent and float coefficients; the
dressed system elements and substituted products ``transform_frame``
builds; and the four models' constraint elements, su2 with non-unit beta
included.  The golden text was recorded with sympy-held coefficients, so
the test pins the exact coefficient type to the same canonical output.

Regenerate (only when the text format itself changes on purpose) with
``PYTHONPATH=src python tests/test_serialize_golden.py > tests/serialize_golden.json``.
"""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qrfkit import algstates as ast
from qrfkit import models as md
from qrfkit import ncalg
from qrfkit.ncalg import GeneratorSet

GOLDEN = Path(__file__).with_name("serialize_golden.json")


def _coefficient(rng, kind):
    num, den = int(rng.integers(-5, 6)), int(rng.integers(1, 5))
    if kind == "rational":
        return Fraction(num, den)
    if kind == "complex":
        return complex(num, int(rng.integers(-3, 4)))
    return round(float(rng.uniform(-2, 2)), 3)


def _random_element(gens, rng, kind, max_degree=3, nterms=4):
    basis = gens.monomial_basis(max_degree)
    return gens.element({basis[int(rng.integers(0, len(basis)))]:
                         _coefficient(rng, kind) for _ in range(nterms)})


def _algebra_elements():
    rng = np.random.default_rng(2024)
    sets = {"two_frames": GeneratorSet.canonical(
                [("q_A", "p_A"), ("q_B", "p_B")], centrals=("G",)),
            "su2": GeneratorSet.canonical_with_su2(
                [("q_A", "p_A"), ("q_B", "p_B")])}
    for name, gens in sets.items():
        for kind in ("rational", "complex", "float"):
            for k in range(3):
                a = _random_element(gens, rng, kind)
                b = _random_element(gens, rng, kind)
                yield f"{name}-{kind}-{k}-a", a
                yield f"{name}-{kind}-{k}-ab", a * b
                yield f"{name}-{kind}-{k}-adjoint", ncalg.adjoint(a * b)
                yield f"{name}-{kind}-{k}-commutator", ncalg.commutator(a, b)
        for m in gens.monomial_basis(4)[::7]:
            yield f"{name}-weyl-{m}", ncalg.weyl_symmetrize(gens, m)
    pair = GeneratorSet.canonical([("q", "p")])
    q, p = pair.gen("q"), pair.gen("p")
    hbar = ncalg.HBAR
    laurent = (pair.element({(1, 1): 3 / hbar + hbar ** 2 / 4,
                             (0, 1): Fraction(-2, 3) * hbar})
               + (1 + 2j) * q)
    yield "pair-laurent", laurent
    yield "pair-laurent-squared", laurent * laurent
    yield "pair-laurent-adjoint", ncalg.adjoint(laurent * p)


def _transform_products(model, f, rho_a, rho_b):
    """The dressed elements and substituted products ``transform_frame``
    builds for ``f`` from frame B to frame A."""
    gens = model.gens
    g_s = model.g_s_elem("A")
    ia, ipa = gens.index["q_A"], gens.index["p_A"]
    ib, ipb = gens.index["q_B"], gens.index["p_B"]
    arg_q = (rho_b + rho_a) * gens.one() - gens.gen("q_A")
    arg_p = -gens.gen("p_A") - g_s
    for m in f.terms:
        assert not (m[ia] or m[ipa])
        sys_m = tuple(0 if g in (ib, ipb) else e for g, e in enumerate(m))
        sub = gens.one()
        for _ in range(m[ib]):
            sub = sub * arg_q
        for _ in range(m[ipb]):
            sub = sub * arg_p
        dressed = ast.dress_system_element(gens, gens.element({sys_m: 1}),
                                           g_s, "q_A", rho_a)
        yield m, dressed, sub * dressed


def _model_elements():
    for spec in (md.ModelSpec("nparticle", n_particles=3, lattice_size=32),
                 md.ModelSpec("nparticle", n_particles=3, lattice_size=8)):
        model = md.build_model(spec)
        n = spec.lattice_size
        fa, fb = model.frames["A"], model.frames["B"]
        rho_a, rho_b = fa.grid[n // 2 - 2], fb.grid[n // 2 + 1]
        g = model.gens
        q_b, q_c, p_b = g.gen("q_B"), g.gen("q_C"), g.gen("p_B")
        for label, f in (("q_C", q_c), ("q_C^2", q_c * q_c),
                         ("q_B*q_C", q_b * q_c), ("p_B*q_C", p_b * q_c)):
            for m, dressed, product in _transform_products(model, f, rho_a,
                                                           rho_b):
                yield f"np{n}-{label}-{m}-dressed", dressed
                yield f"np{n}-{label}-{m}-product", product
    newton = md.build_model(md.ModelSpec("newtonian", dp=2.0))
    yield "newtonian-dressed-q_S", ast.dress_system_element(
        newton.gens, newton.gens.gen("q_S"), newton.g_s_elem("C"), "t_C",
        newton.frames["C"].grid[5])
    for spec in (md.ModelSpec("nparticle"), md.ModelSpec("su2"),
                 md.ModelSpec("su2", beta=2), md.ModelSpec("su2", beta=3,
                                                           dp=0.5),
                 md.ModelSpec("su2", beta=2, dp=0.1),
                 md.ModelSpec("newtonian", dp=2.0),
                 md.ModelSpec("degenerate", lattice_size=16,
                              levels=(0, 1, 2))):
        tag = "-".join(f"{k}={getattr(spec, k)}" for k in ("beta", "dp"))
        yield f"{spec.name}-{tag}-constraint", md.build_model(
            spec).constraint_elem


def golden_elements():
    yield from _algebra_elements()
    yield from _model_elements()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_serialize_is_byte_identical_to_the_recorded_text(golden):
    got = {label: el.serialize() for label, el in golden_elements()}
    assert list(got) == list(golden)
    for label, text in golden.items():
        assert got[label] == text, label


if __name__ == "__main__":
    print(json.dumps({label: el.serialize()
                      for label, el in golden_elements()}, indent=1))
