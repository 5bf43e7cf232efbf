"""The shared frame recipe of the worked models and the broadcast Gaussian
state, against the lifted Fourier-dual position matrix and the meshgrid
oracle."""

from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import gaussian_state_oracle
from qrfkit import kinspace as ks
from qrfkit import models as md
from qrfkit.errors import ConfigError

SPECS = [md.ModelSpec("nparticle"), md.ModelSpec("su2"),
         md.ModelSpec("newtonian", dp=2.0), md.ModelSpec("degenerate"),
         md.ModelSpec("nparticle", dp=0.5, hbar=0.7),
         md.ModelSpec("su2", lattice_size=6, dp=0.5, hbar=0.7, j=2),
         md.ModelSpec("newtonian", dp=2.0, hbar=0.7, clock_size=8),
         md.ModelSpec("degenerate", dp=0.5, hbar=0.7, levels=(0, 1))]


@cache
def model_of(spec):
    return md.build_model(spec)


@pytest.mark.parametrize("spec", SPECS,
                         ids=lambda s: f"{s.name}-dp{s.dp}-hbar{s.hbar}")
def test_frame_pairs_are_the_orientation_operator_and_the_momentum(spec):
    # the orientation operator of an ideal frame is its Fourier-dual
    # position matrix, bit for bit
    model = model_of(spec)
    assert model.frame_pairs
    for label, (q, p) in model.frame_pairs.items():
        i = model.frames[label].factor
        f = model.space.factors[i]
        lifted = ks.factor_operator(model.space, i, md.position_matrix(
            f.N, f.dp, spec.hbar))
        assert np.array_equal(model.assignment[q].matrix, lifted.matrix)
        assert np.array_equal(model.assignment[p].diag,
                              ks.momentum_operator(model.space, i).diag)


FLOAT = st.floats(-2.0, 2.0)


@st.composite
def state_kwargs(draw):
    spec = draw(st.sampled_from(SPECS))
    factors = model_of(spec).space.factors
    n = len(factors)
    frames = [i for i in range(1, n) if factors[i].is_frame]
    systems = [i for i in range(1, n) if not factors[i].is_frame]
    kwargs = {
        "centers_x": draw(st.dictionaries(st.integers(0, n - 1), FLOAT)),
        "centers_p": draw(st.dictionaries(st.sampled_from(frames), FLOAT)
                          if frames else st.just({})),
        "sigmas": draw(st.dictionaries(st.sampled_from(frames),
                                       st.floats(0.5, 3.0))
                       if frames else st.just({})),
        "shear": draw(st.dictionaries(
            st.tuples(st.integers(0, n - 2), st.integers(1, n - 1)).filter(
                lambda ik: ik[0] < ik[1]), st.floats(-0.2, 0.2))),
        "system_amp": {i: draw(st.lists(
            st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0),
            min_size=factors[i].N, max_size=factors[i].N))
            for i in systems if draw(st.booleans())},
    }
    return spec, kwargs


@settings(max_examples=150)
@given(state_kwargs())
def test_broadcast_gaussian_state_matches_the_meshgrid_oracle(case):
    spec, kwargs = case
    model = model_of(spec)
    got = md.gaussian_physical_state(model, **kwargs)
    want = gaussian_state_oracle(model, **kwargs)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("size", [2, 4])
def test_gaussian_state_rejects_a_system_amplitude_of_another_length(size):
    model = model_of(md.ModelSpec("su2"))
    with pytest.raises(ConfigError, match=r"system_amp\[2\] must hold 3"):
        md.gaussian_physical_state(model, system_amp={2: np.ones(size)})


@pytest.mark.parametrize("kwargs, message", [
    ({"centers_x": {7: 0.3}}, "centers_x names factor 7"),
    ({"centers_p": {-1: 0.3}}, "centers_p names factor -1"),
    ({"sigmas": {9: 1.0}}, "sigmas names factor 9"),
    ({"system_amp": {1: np.ones(8)}}, "system_amp names frame factor 1"),
    ({"system_amp": {0: np.ones(8)}}, "system_amp names frame factor 0")],
    ids=["centers_x", "centers_p", "sigmas", "system_amp-frame",
         "system_amp-solved-frame"])
def test_gaussian_state_rejects_a_key_that_is_not_its_factor(kwargs, message):
    # su2: frames 0 and 1 (8 points each), the spin on factor 2; the
    # system_amp and shear keys outside the factors are CONFIG_ERRORS cases
    with pytest.raises(ConfigError, match=message):
        md.gaussian_physical_state(model_of(md.ModelSpec("su2")), **kwargs)


@pytest.mark.parametrize("spec, factor, amp", [
    (md.ModelSpec("su2"), 2, md.spin_coherent(1, 0.4, 0.3)),
    (md.ModelSpec("degenerate"), 1, np.array([0.6, 0.8j])),
    (md.ModelSpec("newtonian", dp=2.0), 1, np.linspace(1.0, 2.0, 8))],
    ids=["su2", "degenerate", "newtonian"])
def test_gaussian_state_does_not_depend_on_the_scale_of_its_amplitude(
        spec, factor, amp):
    model = model_of(spec)
    want = md.gaussian_physical_state(model, system_amp={factor: amp})
    for scale in (1e-10, 1e-15):
        got = md.gaussian_physical_state(model,
                                         system_amp={factor: scale * amp})
        assert np.max(np.abs(got - want)) <= 1e-15


def test_gaussian_state_rejects_a_recipe_off_the_kernel():
    # newtonian, dp = 2: p_S = -8 needs the clock momentum -32, outside its
    # 16-point window, so that amplitude has no point on the kernel; p_S = 0
    # has one.  Whatever the scale, the first is refused, and what lies off
    # the kernel is dropped however much it outweighs the rest
    model = model_of(md.ModelSpec("newtonian", dp=2.0))
    off, on = np.eye(8)[0], np.eye(8)[4]
    want = md.gaussian_physical_state(model, system_amp={1: on})
    for scale in (1.0, 1e-15):
        with pytest.raises(ConfigError, match="no support on the kernel"):
            md.gaussian_physical_state(model, system_amp={1: scale * off})
        got = md.gaussian_physical_state(
            model, system_amp={1: scale * (off + 1e-17 * on)})
        assert np.max(np.abs(got - want)) <= 1e-15


def test_gaussian_state_drops_a_shear_that_overflows_off_the_kernel():
    # newtonian, dp = 2: exp(3 p_C p_S) overflows at the far corners of the
    # grid, which lie off the kernel; the state is finite, normalised and
    # physical, with no RuntimeWarning (an error under the test config)
    model = model_of(md.ModelSpec("newtonian", dp=2.0))
    psi = md.gaussian_physical_state(model, shear={(0, 1): 3.0})
    assert np.all(np.isfinite(psi))
    assert abs(np.linalg.norm(psi) - 1) <= 1e-15
    assert np.linalg.norm(model.constraint.apply(psi)) == 0


def test_gaussian_state_rejects_a_shear_that_overflows_on_the_kernel():
    # exp(-300 p_C p_S) overflows where p_C = -p_S, on the kernel: the
    # recipe is refused instead of returning a NaN state
    model = model_of(md.ModelSpec("newtonian", dp=2.0))
    with pytest.raises(ConfigError, match="overflows on the kernel"):
        md.gaussian_physical_state(model, shear={(0, 1): -300.0})
