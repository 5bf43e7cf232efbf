"""Argument checks of the model builders and state recipes, and the exact
su2 coupling."""

import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from qrfkit import models as md
from qrfkit.errors import ConfigError, IncommensurableSpectrum


@pytest.mark.parametrize("spec", [
    md.ModelSpec("nbody"),
    md.ModelSpec("nparticle", n_particles=1),
    md.ModelSpec("nparticle", n_particles=9),
    md.ModelSpec("su2", j=0),
    md.ModelSpec("degenerate", levels=(1.0, -1.0)),
    # the momentum window of N = 8, dp = 1 is [-4, 4)
    md.ModelSpec("degenerate", lattice_size=8, levels=(1.0, 4.0)),
], ids=["unknown", "1-particle", "9-particles", "su2-j0",
        "negative-level", "window-edge-level"])
def test_build_model_rejects_a_bad_spec(spec):
    with pytest.raises(ConfigError):
        md.build_model(spec)


@pytest.fixture(scope="module")
def su2():
    return md.build_model(md.ModelSpec("su2", lattice_size=8))


@pytest.mark.parametrize("name", ["centers_x", "centers_p", "sigmas",
                                  "shear", "system_amp"])
def test_gaussian_state_rejects_a_non_mapping_argument(su2, name):
    with pytest.raises(ConfigError, match=name):
        md.gaussian_physical_state(su2, **{name: np.array([0.5, 0.2])})


def test_gaussian_state_takes_mappings(su2):
    psi = md.gaussian_physical_state(
        su2, centers_x={1: 0.5}, centers_p={1: 0.0}, sigmas={1: 1.5},
        shear={(1, 2): 0.1}, system_amp={2: md.spin_coherent(1, 0.4, 0.3)})
    assert abs(np.linalg.norm(psi) - 1) < 1e-12
    assert np.linalg.norm(su2.constraint.apply(psi)) < 1e-9


@pytest.mark.parametrize("dp, coefficient", [
    (1.0, -3), (0.5, Fraction(-3, 2)), (0.1, Fraction(-3, 10)),
    (np.pi / 4, -3 * (np.pi / 4))])
def test_su2_coupling_is_exact_where_a_fraction_reproduces_dp(dp,
                                                               coefficient):
    # C = p_A + p_B - beta*dp/hbar J_z
    model = md.build_model(md.ModelSpec("su2", beta=3, dp=dp,
                                        lattice_size=4))
    j_z = model.gens.gen("J_z")
    (m,) = j_z.terms
    ((power, (re, im)),) = model.constraint_elem.coefficient(m).terms.items()
    assert (power, re, im) == (-1, coefficient, 0)
    assert type(re) is type(coefficient)


@pytest.mark.parametrize("spec, eigenvalue", [
    (md.ModelSpec("newtonian", dp=1.0), "4.5"),
    (md.ModelSpec("su2", beta=0.5), "-0.5")], ids=["newtonian", "su2"])
def test_off_lattice_system_spectrum_raises(spec, eigenvalue):
    # tensor_space checks every system spectrum against dp * Z and names
    # the first eigenvalue off the lattice
    with pytest.raises(IncommensurableSpectrum,
                       match=f"system eigenvalue {re.escape(eigenvalue)} "):
        md.build_model(spec)


SPECS = [md.ModelSpec("nparticle"), md.ModelSpec("su2"),
         md.ModelSpec("degenerate"), md.ModelSpec("newtonian", dp=2.0)]


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
@pytest.mark.parametrize("field, value", [
    ("dp", 0.0), ("dp", -1.0), ("dp", np.nan), ("dp", np.inf),
    ("hbar", 0.0), ("hbar", -1.0), ("hbar", np.nan), ("hbar", np.inf)])
def test_build_model_rejects_a_bad_spacing_or_hbar(spec, field, value):
    with pytest.raises(ConfigError, match="dp|hbar"):
        md.build_model(replace(spec, **{field: value}))


@pytest.mark.parametrize("N", [2, 5, 7])
def test_build_model_rejects_an_odd_or_small_frame(N):
    with pytest.raises(ConfigError, match="even and >= 4"):
        md.build_model(md.ModelSpec("nparticle", lattice_size=N))
