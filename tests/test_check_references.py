"""verify_gauge and verify_assignment against dense references written here
from ``.matrix``, over random commensurate spaces and the four models, and
group_average and g_twirl against the explicit cyclic-group oracles."""

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from oracles import cyclic_group, g_twirl_oracle
from qrfkit import algstates as ast
from qrfkit import kinspace as ks
from qrfkit import models as md
from qrfkit import ncalg
from qrfkit import reduction_gauge as rg
from qrfkit import relobs as ro
from qrfkit.errors import UnsupportedForm


def dense_gauge_residuals(phi, Pi):
    P, F = Pi.matrix, phi.matrix
    return (float(np.max(np.abs(P @ F @ P - P))),
            float(np.max(np.abs((F @ P @ F - F) @ P))))


def assert_matches_dense(phi, Pi):
    rep = rg.verify_gauge(phi, Pi)
    r1, r2 = dense_gauge_residuals(phi, Pi)
    assert abs(rep["pi_phi_pi"] - r1) <= 1e-12 * max(1.0, r1)
    assert abs(rep["phi_pi_phi"] - r2) <= 1e-12 * max(1.0, r2)
    assert rep["valid"] == (r1 < 1e-10 and r2 < 1e-10)


def random_unitary(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return np.linalg.qr(m)[0]


@settings(max_examples=40)
@given(frames=st.lists(st.sampled_from([4, 6, 8]), min_size=1, max_size=2),
       spectrum=st.lists(st.integers(-3, 3), min_size=1, max_size=4),
       hbar=st.sampled_from([1.0, 0.7]),
       dense_pi=st.booleans(),
       kind=st.sampled_from(["theta", "diagonal", "dense", "zero"]),
       seed=st.integers(0, 2**32 - 1))
def test_verify_gauge_matches_dense_formula(frames, spectrum, hbar, dense_pi,
                                            kind, seed):
    space = ks.tensor_space([ks.FactorSpec.frame(n) for n in frames]
                            + [ks.FactorSpec.system(spectrum)], hbar=hbar)
    d = space.dim
    C = ks.build_constraint(space, {i: 1.0 for i in range(len(frames) + 1)})
    rng = np.random.default_rng(seed)
    Pi = ks.group_average(space, C)
    if dense_pi:
        # a rotated C is refused; the rotated Pi is still a dense projector
        U = random_unitary(rng, d)
        with pytest.raises(UnsupportedForm):
            ks.group_average(space, ks.KinOperator.from_matrix(
                space, (U * C.diag) @ U.conj().T))
        Pi = ks.KinOperator.from_matrix(space, (U * Pi.diag) @ U.conj().T)
    assert Pi.is_diagonal != dense_pi
    if kind == "theta":
        fr = ro.OrientationFrame(space, 0)
        phi = rg.theta_gauge(fr, fr.grid[rng.integers(fr.N)])
    elif kind == "diagonal":
        phi = ks.KinOperator.from_diag(space, rng.normal(size=d)
                                       + 1j * rng.normal(size=d))
    elif kind == "dense":
        phi = ks.KinOperator.from_matrix(space, rng.normal(size=(d, d))
                                         + 1j * rng.normal(size=(d, d)))
    else:
        phi = ks.KinOperator.from_matrix(space, np.zeros((d, d)))
    assert_matches_dense(phi, Pi)


@settings(max_examples=25)
@given(n_frames=st.integers(1, 2), N=st.sampled_from([4, 6, 8]),
       dp=st.sampled_from([1.0, 0.7]), hbar=st.sampled_from([1.0, 0.7]),
       levels=st.lists(st.integers(-3, 3), min_size=1, max_size=3),
       seed=st.integers(0, 2**32 - 1))
def test_group_average_and_twirl_match_the_cyclic_group(n_frames, N, dp, hbar,
                                                        levels, seed):
    # frames of one size only: the group of mixed frame sizes is not settled
    space = ks.tensor_space([ks.FactorSpec.frame(N, dp)] * n_frames
                            + [ks.FactorSpec.system(dp * np.array(levels))],
                            hbar=hbar)
    d = space.dim
    assert d <= 192
    C = ks.build_constraint(space, {i: 1.0 for i in range(n_frames + 1)})
    P, Cm = ks.group_average(space, C).matrix, C.matrix
    _, order, step = cyclic_group(C)
    group = sum(expm(1j * j * step * Cm / hbar) for j in range(order)) / order
    assert np.max(np.abs(P - group)) < 1e-10
    assert np.max(np.abs(P @ P - P)) < 1e-12
    assert np.max(np.abs(P - P.conj().T)) < 1e-12
    assert np.max(np.abs(Cm @ P)) < 1e-12
    rng = np.random.default_rng(seed)
    A = ks.KinOperator.from_matrix(space, rng.normal(size=(d, d))
                                   + 1j * rng.normal(size=(d, d)))
    tw = ro.g_twirl(space, C, A)
    assert np.max(np.abs(tw.matrix - g_twirl_oracle(space, C, A))) < 1e-10


def test_verify_gauge_across_a_block_boundary():
    # zero system generator: the kernel is p = 0 times all 300 levels, so
    # more than one block of unit columns is read
    space = ks.tensor_space([ks.FactorSpec.frame(4),
                             ks.FactorSpec.system(np.zeros(300))])
    Pi = ks.group_average(space, ks.build_constraint(space, {0: 1.0}))
    assert space.dim == 1200
    assert np.count_nonzero(Pi.diagonal()) == 300 > ks._COLUMN_BLOCK
    fr = ro.OrientationFrame(space, 0)
    theta = rg.theta_gauge(fr, fr.grid[1])
    assert rg.verify_gauge(theta, Pi)["valid"]
    assert_matches_dense(theta, Pi)
    rng = np.random.default_rng(163)
    dense = ks.KinOperator.from_matrix(space, rng.normal(size=(1200, 1200)))
    assert_matches_dense(dense, Pi)


def dense_assignment_reference(gens, space, assignment, test_states):
    mats = {name: op.matrix for name, op in assignment.items()}
    report = {}
    for (i, j), comps in gens.relations.items():
        a, b = mats[gens.names[i]], mats[gens.names[j]]
        resid = a @ b - b @ a
        for k, alpha in comps.items():
            y = (np.eye(space.dim) if k == ncalg.IDENTITY
                 else mats[gens.names[k]])
            resid = resid - ncalg.numeric(sp.I * ncalg.HBAR * alpha,
                                          space.hbar) * y
        key = (gens.names[i], gens.names[j])
        if ncalg.IDENTITY not in comps:
            report[key] = float(np.max(np.abs(resid)))
        elif test_states:
            report[key] = max(abs(np.vdot(v, resid @ v)) / np.vdot(v, v).real
                              for v in test_states)
        else:
            report[key] = None
    return report


@pytest.mark.parametrize("spec", [
    md.ModelSpec("nparticle"), md.ModelSpec("su2"),
    md.ModelSpec("degenerate"), md.ModelSpec("newtonian", dp=2.0)],
    ids=lambda s: s.name)
def test_verify_assignment_matches_dense_reference(spec):
    model = md.build_model(spec)
    rng = np.random.default_rng(167)
    states = [md.random_physical_state(model, rng),
              md.gaussian_physical_state(model)]
    for test_states in (None, [], states):
        got = ast.verify_assignment(model.gens, model.space,
                                    model.assignment, test_states)
        ref = dense_assignment_reference(model.gens, model.space,
                                         model.assignment, test_states)
        assert got.keys() == ref.keys()
        for key, value in ref.items():
            if value is None:
                assert got[key] is None
            else:
                assert abs(got[key] - value) <= 1e-12 * max(1.0, value), key



def blockwise_gauge_residuals(phi, Pi):
    """verify_gauge's residuals with fresh arrays for every block product."""
    cols = np.flatnonzero(Pi.diagonal())
    r1 = r2 = 0.0
    for i in range(0, cols.size, ks._COLUMN_BLOCK):
        block = cols[i:i + ks._COLUMN_BLOCK]
        E = np.zeros((Pi.space.dim, block.size))
        E[block, np.arange(block.size)] = 1.0
        B = Pi.apply(E)
        Y = phi.apply(B)
        PY = Pi.apply(Y)
        r1 = max(r1, float(np.max(np.abs(PY - B))))
        r2 = max(r2, float(np.max(np.abs(phi.apply(PY) - Y))))
    return r1, r2


@pytest.mark.parametrize("kind", ["theta", "dense"])
def test_verify_gauge_in_reused_blocks_is_bitwise_fresh_blocks(kind):
    # 300 kernel columns: one full block and one narrower one
    space = ks.tensor_space([ks.FactorSpec.frame(4),
                             ks.FactorSpec.system(np.zeros(300))])
    Pi = ks.group_average(space, ks.build_constraint(space, {0: 1.0}))
    rng = np.random.default_rng(163)
    if kind == "theta":
        fr = ro.OrientationFrame(space, 0)
        phi = rg.theta_gauge(fr, fr.grid[2])
    else:
        d = space.dim
        phi = ks.KinOperator.from_matrix(
            space, rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    rep = rg.verify_gauge(phi, Pi)
    assert (rep["pi_phi_pi"], rep["phi_pi_phi"]) == \
        blockwise_gauge_residuals(phi, Pi)


def test_verify_gauge_peak_below_four_blocks():
    import tracemalloc

    model = md.build_model(md.ModelSpec("nparticle", n_particles=3,
                                        lattice_size=16))
    D = model.space.dim
    assert D == 4096 and np.count_nonzero(model.Pi.diagonal()) == 256
    fr = model.frames["A"]
    theta = rg.theta_gauge(fr, fr.grid[3])
    tracemalloc.start()
    try:
        rep = rg.verify_gauge(theta, model.Pi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["valid"]
    # B, Y and Pi Y (the unit columns are written into Pi Y's block) and
    # one real |difference|: 3.5 blocks, where a separate real unit block
    # made 4.0
    assert peak < 3.75 * D * ks._COLUMN_BLOCK * 16
    assert (rep["pi_phi_pi"], rep["phi_pi_phi"]) == \
        blockwise_gauge_residuals(theta, model.Pi)


def test_verify_assignment_lie_peak_below_fifteen_mib():
    import tracemalloc

    model = md.build_model(md.ModelSpec("su2", lattice_size=16, j=1))
    assert model.space.dim == 768
    tracemalloc.start()
    try:
        ast.verify_assignment(model.gens, model.space, model.assignment)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Lie relations read 256 unit columns at a time, not a D x D identity
    assert peak < 15 * 2**20
