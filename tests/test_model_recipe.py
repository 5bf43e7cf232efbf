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


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
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
